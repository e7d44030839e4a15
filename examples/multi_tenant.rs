//! Multi-tenant scheduling demo: three tenants with different fair-share
//! weights and deadlines submit GHZ/TFIM/QAOA mixes concurrently through
//! the qfw-sched fair-share scheduler, and the per-tenant wait/service numbers
//! come back out of the observability snapshot.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```
//!
//! `carol` (weight 4) is visited by the deficit round-robin four times as
//! often as `alice` (weight 1) while all three are backlogged, which
//! shows up as a much lower mean queue wait; every tenant's sweep is
//! identical-skeleton, so the whole load coalesces into a handful of
//! batched engine invocations.

use qfw::{BackendSpec, QfwConfig, QfwSession};
use qfw_hpc::ClusterSpec;
use qfw_obs::Obs;
use qfw_sched::{JobEnvelope, JobStatus, Priority, SchedConfig, Scheduler, TenantConfig};
use qfw_workloads::{ghz, qaoa_ansatz, tfim, Qubo};
use std::time::Duration;

fn main() {
    let obs = Obs::wall();
    let session = QfwSession::launch(
        &ClusterSpec::test(3),
        QfwConfig {
            qfw_nodes: 2,
            qrc_workers: 4,
            obs: obs.clone(),
            ..QfwConfig::default()
        },
    )
    .expect("launch session");

    let sched = Scheduler::attach(
        &session,
        SchedConfig {
            tenants: vec![
                TenantConfig::new("alice", 1, 128),
                TenantConfig::new("bob", 2, 128),
                TenantConfig::new("carol", 4, 128),
            ],
            max_queue_depth: 512,
            max_batch: 8,
            // Pre-load the queues so fair-share and batching act on the
            // full backlog.
            start_paused: true,
            ..SchedConfig::default()
        },
    );

    // --- Submission mixes ------------------------------------------------
    // alice: GHZ states, no deadline, low priority — background traffic.
    let mut ids = Vec::new();
    for i in 0..24u64 {
        ids.push(
            sched
                .submit(
                    JobEnvelope::new("alice", &ghz(8), 256)
                        .with_spec(BackendSpec::of("nwqsim", "cpu"))
                        .with_priority(Priority::Low)
                        .with_seed(i),
                )
                .expect("admit alice"),
        );
    }
    // bob: TFIM Trotter circuits with a 2 s deadline — interactive-ish.
    for i in 0..24u64 {
        ids.push(
            sched
                .submit(
                    JobEnvelope::new("bob", &tfim(8), 256)
                        .with_spec(BackendSpec::of("aer", "statevector"))
                        .with_deadline_ms(2_000)
                        .with_seed(100 + i),
                )
                .expect("admit bob"),
        );
    }
    // carol: a QAOA parameter sweep — one skeleton, many bindings, tight
    // deadlines and the biggest weight.
    let qubo = Qubo::random(8, 0.4, 7);
    let ansatz = qaoa_ansatz(&qubo, 1);
    for i in 0..24u64 {
        let x = i as f64 / 24.0;
        ids.push(
            sched
                .submit(
                    JobEnvelope::new("carol", &ansatz.bind(&[0.4 + x, 0.9 - x]), 256)
                        .with_spec(BackendSpec::of("aer", "statevector"))
                        .with_priority(Priority::High)
                        .with_deadline_ms(500)
                        .with_seed(200 + i),
                )
                .expect("admit carol"),
        );
    }

    sched.resume();
    for id in &ids {
        match sched.wait(*id, Duration::from_secs(120)) {
            JobStatus::Done(_) => {}
            other => panic!("job {id} ended as {other:?}"),
        }
    }

    // --- Per-tenant stats from the obs snapshot --------------------------
    let log = sched.dispatch_log();
    println!("tenant   weight   jobs   first dispatch   mean wait   mean service");
    for (tenant, weight) in [("alice", 1), ("bob", 2), ("carol", 4)] {
        let wait = obs.histogram(&format!("sched.wait_us.{tenant}"));
        let service = obs.histogram(&format!("sched.service_us.{tenant}"));
        let first = log
            .iter()
            .position(|t| t == tenant)
            .map_or_else(|| "-".into(), |p| format!("#{}", p + 1));
        println!(
            "{tenant:<8} {weight:>6}   {:>4}   {first:>14}   {:>6} us   {:>9} us",
            wait.count(),
            wait.sum_us() / wait.count().max(1),
            service.sum_us() / service.count().max(1),
        );
    }
    let stats = sched.stats();
    println!(
        "\n{} jobs in {} engine invocations ({} multi-job batches); pool size {}",
        stats.completed,
        session.qrc().engine_invocations(),
        stats.batches,
        stats.workers,
    );

    sched.shutdown();
    session.teardown();
}
