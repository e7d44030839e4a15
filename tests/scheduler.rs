//! Scheduler suite: the qfw-sched acceptance criteria end to end.
//!
//! * Weighted fair shares: a saturated 3-tenant load with weights 1/2/4
//!   is served within 10% of the configured shares.
//! * Admission control: hitting the queue bound (or a tenant quota)
//!   returns a typed `Overloaded { retry_after }` — never a stall — and
//!   the queue recovers once drained.
//! * Transparent batching: a 32-job identical-skeleton QAOA sweep runs in
//!   ≤ 8 engine invocations with per-job counts bitwise identical to
//!   unbatched seeded execution.
//! * Chaos: injected slot death requeues work without perturbing the
//!   fairness ledger; an injected engine panic fails its batch and gives
//!   the window slot back.
//! * Bounded state: a job's record outlives its finish by `JOB_RETENTION`
//!   later finishes, then the id answers as one the scheduler never issued.
//! * A scheduler attached to a live session serves cancel/stats over the
//!   `SchedIngress` front door.
//! * Elastic scaling grows the pool under sustained load and shrinks it
//!   back, returning every leased core; its streaks count timer ticks, so a
//!   burst of submissions inside one tick scales nothing.
//! * A scheduler whose handles are all dropped without `shutdown` lets go
//!   of its pool: parked runners and the dispatcher keep nothing alive.

use qfw::registry::BackendRegistry;
use qfw::{BackendSpec, DispatchPolicy, QfwSession, Qrc};
use qfw_chaos::{FaultPlan, FaultSpec};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use qfw_sched::ingress::client;
use qfw_sched::{
    CancelOutcome, IngressSubmitOutcome, JobEnvelope, JobStatus, OverloadScope, Priority,
    ScalingConfig, SchedConfig, SchedError, SchedIngress, SchedIngressConfig, Scheduler,
    TenantConfig, JOB_RETENTION,
};
use qfw_workloads::{ghz, qaoa_ansatz, Qubo};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(60);

fn qrc_with(workers: usize, chaos: Option<Arc<FaultPlan>>) -> (Arc<Qrc>, Arc<HetJob>) {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let dvm = Arc::new(Dvm::new(&cluster));
    let mut qrc = Qrc::new(
        BackendRegistry::standard(None),
        Arc::clone(&hetjob),
        dvm,
        1,
        workers,
        DispatchPolicy::RoundRobin,
    );
    if let Some(plan) = chaos {
        qrc = qrc.with_chaos(plan);
    }
    (Arc::new(qrc), hetjob)
}

fn nwqsim_env(tenant: &str, seed: u64) -> JobEnvelope {
    JobEnvelope::new(tenant, &ghz(4), 100)
        .with_spec(BackendSpec::of("nwqsim", "cpu"))
        .with_seed(seed)
}

/// Counts tenants in a dispatch-log prefix and asserts each share is
/// within `tolerance` (relative) of its weight share.
fn assert_shares(log: &[String], prefix: usize, weights: &[(&str, u32)], tolerance: f64) {
    assert!(
        log.len() >= prefix,
        "dispatch log has {} entries, need {}",
        log.len(),
        prefix
    );
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for tenant in &log[..prefix] {
        *counts.entry(tenant.as_str()).or_insert(0) += 1;
    }
    let weight_sum: u32 = weights.iter().map(|(_, w)| w).sum();
    for (tenant, weight) in weights {
        let got = f64::from(*counts.get(tenant).unwrap_or(&0));
        let want = prefix as f64 * f64::from(*weight) / f64::from(weight_sum);
        let err = (got - want).abs() / want;
        assert!(
            err <= tolerance,
            "tenant {tenant}: served {got} of first {prefix}, want {want:.1} (±{:.0}%), log counts {counts:?}",
            tolerance * 100.0
        );
    }
}

#[test]
fn weighted_shares_within_ten_percent() {
    let (qrc, _hetjob) = qrc_with(2, None);
    let sched = Scheduler::start(
        qrc,
        Obs::disabled(),
        SchedConfig {
            tenants: vec![
                TenantConfig::new("a", 1, 64),
                TenantConfig::new("b", 2, 64),
                TenantConfig::new("c", 4, 64),
            ],
            max_queue_depth: 256,
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let mut ids = Vec::new();
    for i in 0..40u64 {
        for tenant in ["a", "b", "c"] {
            ids.push(sched.submit(nwqsim_env(tenant, i)).unwrap());
        }
    }
    sched.resume();
    for id in &ids {
        match sched.wait(*id, T) {
            JobStatus::Done(r) => assert_eq!(r.counts.values().sum::<usize>(), 100),
            other => panic!("job {id} ended as {other:?}"),
        }
    }
    // While all three tenants were backlogged (the first 9 full DRR
    // rotations = 63 dispatches), service shares must track 1/2/4.
    assert_shares(&sched.dispatch_log(), 63, &[("a", 1), ("b", 2), ("c", 4)], 0.10);
    sched.shutdown();
}

#[test]
fn admission_rejects_typed_and_recovers() {
    let (qrc, _hetjob) = qrc_with(2, None);
    let sched = Scheduler::start(
        qrc,
        Obs::disabled(),
        SchedConfig {
            tenants: vec![TenantConfig::new("quota2", 1, 2)],
            max_queue_depth: 8,
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    // Tenant quota fires first for the configured tenant.
    sched.submit(nwqsim_env("quota2", 0)).unwrap();
    sched.submit(nwqsim_env("quota2", 1)).unwrap();
    match sched.submit(nwqsim_env("quota2", 2)) {
        Err(SchedError::Overloaded { retry_after, scope }) => {
            assert_eq!(scope, OverloadScope::Tenant);
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected tenant-quota rejection, got {other:?}"),
    }
    // Fill the global bound with other tenants; the 9th job overflows.
    for i in 0..6u64 {
        sched.submit(nwqsim_env(&format!("t{i}"), i)).unwrap();
    }
    let start = Instant::now();
    match sched.submit(nwqsim_env("late", 9)) {
        Err(SchedError::Overloaded { retry_after, scope }) => {
            assert_eq!(scope, OverloadScope::Queue);
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    // Typed rejection, not a stall: the submit returned immediately.
    assert!(start.elapsed() < Duration::from_secs(1));
    // Draining the queue restores admission.
    sched.resume();
    assert!(sched.drain(T), "queue failed to drain");
    sched.submit(nwqsim_env("late", 10)).unwrap();
    let stats = sched.stats();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.admitted, 9);
    sched.shutdown();
}

#[test]
fn batching_cuts_invocations_with_identical_counts() {
    // A 32-point QAOA parameter sweep: one skeleton, 32 bindings.
    let qubo = Qubo::random(6, 0.5, 11);
    let ansatz = qaoa_ansatz(&qubo, 1);
    let circuits: Vec<_> = (0..32)
        .map(|i| {
            let x = i as f64 / 32.0;
            ansatz.bind(&[0.3 + x, 0.7 - x])
        })
        .collect();
    let spec = BackendSpec::of("aer", "statevector");

    // Reference: unbatched execution, one invocation per job.
    let (qrc_ref, _h1) = qrc_with(2, None);
    let unbatched = Scheduler::start(Arc::clone(&qrc_ref), Obs::disabled(), SchedConfig::default());
    let mut reference = Vec::new();
    for (i, qc) in circuits.iter().enumerate() {
        let env = JobEnvelope::new("sweep", qc, 256)
            .with_spec(spec.clone())
            .with_seed(4_000 + i as u64);
        let id = unbatched.submit(env).unwrap();
        match unbatched.wait(id, T) {
            JobStatus::Done(r) => reference.push(r.counts),
            other => panic!("reference job {i} ended as {other:?}"),
        }
    }
    assert_eq!(qrc_ref.engine_invocations(), 32);
    unbatched.shutdown();

    // Batched: same envelopes, max_batch 8, queue pre-loaded while paused
    // so the coalescer sees the whole sweep.
    let (qrc_b, _h2) = qrc_with(2, None);
    let batched = Scheduler::start(
        Arc::clone(&qrc_b),
        Obs::disabled(),
        SchedConfig {
            max_batch: 8,
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let ids: Vec<_> = circuits
        .iter()
        .enumerate()
        .map(|(i, qc)| {
            let env = JobEnvelope::new("sweep", qc, 256)
                .with_spec(spec.clone())
                .with_seed(4_000 + i as u64);
            batched.submit(env).unwrap()
        })
        .collect();
    batched.resume();
    for (i, id) in ids.iter().enumerate() {
        match batched.wait(*id, T) {
            JobStatus::Done(r) => assert_eq!(
                r.counts, reference[i],
                "batched counts diverged from unbatched at sweep point {i}"
            ),
            other => panic!("batched job {i} ended as {other:?}"),
        }
    }
    let invocations = qrc_b.engine_invocations();
    assert!(
        invocations <= 8,
        "32-job sweep took {invocations} engine invocations, want ≤ 8"
    );
    assert!(batched.stats().batches >= 1);
    batched.shutdown();
}

#[test]
fn symbolic_sweep_coalesces_to_one_invocation_without_touching_drr() {
    // The same 32-point sweep, but submitted *symbolically*: each job is
    // the skeleton plus a `bind` line, so the batcher keys on the exact
    // skeleton text and the runner coalesces the whole batch into a
    // single compile-once `execute_sweep` engine invocation.
    let qubo = Qubo::random(6, 0.5, 11);
    let ansatz = qaoa_ansatz(&qubo, 1);
    let bindings: Vec<Vec<f64>> = (0..32)
        .map(|i| {
            let x = i as f64 / 32.0;
            vec![0.3 + x, 0.7 - x]
        })
        .collect();
    let spec = BackendSpec::of("nwqsim", "cpu");

    // Reference: the same bound param jobs, unbatched (one invocation
    // per job).
    let (qrc_ref, _h1) = qrc_with(2, None);
    let unbatched = Scheduler::start(Arc::clone(&qrc_ref), Obs::disabled(), SchedConfig::default());
    let mut reference = Vec::new();
    for (i, params) in bindings.iter().enumerate() {
        let env = JobEnvelope::new_param("sweep", &ansatz, params, 256)
            .with_spec(spec.clone())
            .with_seed(7_000 + i as u64);
        let id = unbatched.submit(env).unwrap();
        match unbatched.wait(id, T) {
            JobStatus::Done(r) => reference.push(r.counts),
            other => panic!("reference job {i} ended as {other:?}"),
        }
    }
    assert_eq!(qrc_ref.engine_invocations(), 32);
    unbatched.shutdown();

    // Coalesced: max_batch covers the whole sweep, so all 32 jobs ride
    // one execute_sweep invocation.
    let (qrc_b, _h2) = qrc_with(2, None);
    let batched = Scheduler::start(
        Arc::clone(&qrc_b),
        Obs::disabled(),
        SchedConfig {
            max_batch: 32,
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let ids: Vec<_> = bindings
        .iter()
        .enumerate()
        .map(|(i, params)| {
            let env = JobEnvelope::new_param("sweep", &ansatz, params, 256)
                .with_spec(spec.clone())
                .with_seed(7_000 + i as u64);
            batched.submit(env).unwrap()
        })
        .collect();
    batched.resume();
    for (i, id) in ids.iter().enumerate() {
        match batched.wait(*id, T) {
            JobStatus::Done(r) => assert_eq!(
                r.counts, reference[i],
                "sweep counts diverged from unbatched at point {i}"
            ),
            other => panic!("sweep job {i} ended as {other:?}"),
        }
    }
    assert_eq!(
        qrc_b.engine_invocations(),
        1,
        "32-job symbolic sweep must ride one engine invocation"
    );
    // DRR accounting is untouched by coalescing: every job is logged
    // individually at dispatch time and counted in `dispatched`; the
    // whole sweep is one batch.
    let stats = batched.stats();
    assert_eq!(stats.dispatched, 32);
    assert_eq!(stats.batches, 1);
    assert_eq!(batched.dispatch_log().len(), 32);
    assert!(batched.dispatch_log().iter().all(|t| t == "sweep"));
    batched.shutdown();
}

#[test]
fn chaos_slot_death_preserves_fairness() {
    let plan = Arc::new(FaultPlan::seeded(77).inject("qrc.slot_death", FaultSpec::first(2)));
    let (qrc, _hetjob) = qrc_with(4, Some(plan));
    let sched = Scheduler::start(
        Arc::clone(&qrc),
        Obs::disabled(),
        SchedConfig {
            tenants: vec![
                TenantConfig::new("a", 1, 64),
                TenantConfig::new("b", 1, 64),
                TenantConfig::new("c", 2, 64),
            ],
            max_queue_depth: 256,
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let mut ids = Vec::new();
    for i in 0..20u64 {
        ids.push(sched.submit(nwqsim_env("a", i)).unwrap());
        ids.push(sched.submit(nwqsim_env("b", i)).unwrap());
    }
    for i in 0..40u64 {
        ids.push(sched.submit(nwqsim_env("c", i)).unwrap());
    }
    sched.resume();
    for id in &ids {
        match sched.wait(*id, T) {
            JobStatus::Done(r) => assert_eq!(r.counts.values().sum::<usize>(), 100),
            other => panic!("job {id} ended as {other:?}"),
        }
    }
    assert!(qrc.requeues() >= 1, "the fault plan must have fired");
    assert_eq!(qrc.dead_slots(), 2);
    // Slot deaths requeue inside the QRC; the scheduler's fairness ledger
    // (dispatch order) must still track the 1/1/2 weights.
    assert_shares(&sched.dispatch_log(), 40, &[("a", 1), ("b", 1), ("c", 2)], 0.10);
    sched.shutdown();
}

/// An engine that panics takes down its own batch and nothing else: the
/// job fails, the one slot and the one window position come back, the
/// jobs queued behind it run, and `shutdown` has no runner to wait for.
#[test]
fn engine_panic_fails_the_batch_and_frees_the_window() {
    let plan = Arc::new(FaultPlan::seeded(5).inject("qrc.engine_panic", FaultSpec::first(1)));
    let (qrc, _hetjob) = qrc_with(1, Some(plan));
    let sched = Scheduler::start(
        qrc,
        Obs::disabled(),
        SchedConfig {
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let ids: Vec<_> = (0..3u64)
        .map(|i| sched.submit(nwqsim_env("t", i)).unwrap())
        .collect();
    sched.resume();
    let short = Duration::from_secs(20);
    match sched.wait(ids[0], short) {
        JobStatus::Failed(msg) => assert!(msg.contains("engine panicked"), "{msg}"),
        other => panic!("the panicked job must fail, got {other:?}"),
    }
    for id in &ids[1..] {
        assert!(
            matches!(sched.wait(*id, short), JobStatus::Done(_)),
            "job {id} behind the panic did not complete"
        );
    }
    assert!(sched.drain(short));
    let stats = sched.stats();
    assert_eq!((stats.failed, stats.completed, stats.in_flight), (1, 2, 0));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        sched.shutdown();
        tx.send(()).ok();
    });
    rx.recv_timeout(short).expect("shutdown must return after an engine panic");
}

/// The job table is bounded: once `JOB_RETENTION` later jobs have
/// finished, nothing of a finished job is left — status, timing, tenant
/// and result all lived in the one evicted record.
#[test]
fn terminal_records_are_evicted_beyond_retention() {
    // One slot: jobs finish in the order they were submitted.
    let (qrc, _hetjob) = qrc_with(1, None);
    let sched = Scheduler::start(
        qrc,
        Obs::disabled(),
        SchedConfig {
            default_quota: 256,
            ..SchedConfig::default()
        },
    );
    let total = JOB_RETENTION + 8;
    let mut ids = Vec::with_capacity(total);
    while ids.len() < total {
        for _ in 0..(total - ids.len()).min(256) {
            let env = JobEnvelope::new("t", &ghz(4), 8)
                .with_spec(BackendSpec::of("aer", "stabilizer"))
                .with_seed(ids.len() as u64);
            ids.push(sched.submit(env).unwrap());
        }
        assert!(sched.drain(T), "wave did not drain");
    }
    assert_eq!(sched.stats().completed, total as u64);
    assert!(matches!(sched.poll(ids[0]), JobStatus::Unknown));
    assert!(sched.job_timing(ids[0]).is_none());
    assert!(matches!(sched.poll(ids[total - 1]), JobStatus::Done(_)));
    assert!(sched.job_timing(ids[total - 1]).is_some());
    assert_eq!(sched.dispatch_log().len(), JOB_RETENTION);
    sched.shutdown();
}

#[test]
fn attached_scheduler_serves_cancel_and_stats_over_ingress() {
    // Submit/poll, typed overload and cancel-while-queued over the ingress
    // are covered by `tests/ingress.rs`; this pins what is not: a
    // scheduler attached to a live session behind the one RPC front door,
    // a too-late cancel, and the `stats` method.
    let session = QfwSession::launch_local(2).unwrap();
    let sched = Scheduler::attach(&session, SchedConfig::default());
    let ingress = SchedIngress::start(
        sched.clone(),
        SchedIngressConfig::default(),
        session.obs().clone(),
    );
    let conn = ingress.connect();
    let id = match client::submit(&conn, &nwqsim_env("rpc-tenant", 3), T).unwrap() {
        IngressSubmitOutcome::Accepted(id) => id,
        other => panic!("expected acceptance, got {other:?}"),
    };
    match client::wait(&conn, id, T).unwrap() {
        JobStatus::Done(r) => assert_eq!(r.counts.values().sum::<usize>(), 100),
        other => panic!("job ended as {other:?}"),
    }
    let cancel: CancelOutcome = conn.call("cancel", &id, T).unwrap();
    assert_eq!(cancel, CancelOutcome::TooLate);
    let stats: qfw_sched::SchedStats = conn.call("stats", &(), T).unwrap();
    assert_eq!(stats.completed, 1);
    ingress.shutdown();
    sched.shutdown();
    session.teardown();
}

#[test]
fn elastic_scaling_grows_and_shrinks() {
    let (qrc, hetjob) = qrc_with(1, None);
    let free_before = hetjob.free_cores(1);
    let sched = Scheduler::start(
        Arc::clone(&qrc),
        Obs::disabled(),
        SchedConfig {
            max_queue_depth: 512,
            default_quota: 512,
            scaling: Some(ScalingConfig {
                max_workers: 4,
                scale_up_depth: 4,
                scale_down_depth: 0,
                up_ticks: 2,
                down_ticks: 3,
                step: 1,
            }),
            tick: Duration::from_millis(1),
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    // Enough moderately-sized jobs that the backlog survives several
    // scaling ticks even as the pool grows.
    let ids: Vec<_> = (0..200u64)
        .map(|i| {
            sched
                .submit(
                    JobEnvelope::new("load", &ghz(12), 512)
                        .with_spec(BackendSpec::of("aer", "statevector"))
                        .with_seed(i)
                        .with_priority(Priority::Normal),
                )
                .unwrap()
        })
        .collect();
    sched.resume();
    for id in &ids {
        assert!(
            matches!(sched.wait(*id, T), JobStatus::Done(_)),
            "job {id} did not complete"
        );
    }
    let stats = sched.stats();
    assert!(stats.scale_ups >= 1, "sustained backlog must grow the pool");
    // Idle queue: the pool must shrink back to the base worker and return
    // every leased core.
    let deadline = Instant::now() + T;
    while (qrc.workers() > 1 || hetjob.free_cores(1) != free_before) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(qrc.workers(), 1, "pool did not shrink to base");
    assert_eq!(hetjob.free_cores(1), free_before, "leaked core leases");
    assert!(sched.stats().scale_downs >= 1);
    sched.shutdown();
}

/// `up_ticks` counts ticks of `SchedConfig.tick`, not dispatcher wakes: a
/// burst far deeper than `scale_up_depth`, submitted and drained inside one
/// (10 s) tick, is pressure that did not persist and grows nothing.
#[test]
fn scaling_streaks_count_ticks_not_submissions() {
    let (qrc, _hetjob) = qrc_with(1, None);
    let sched = Scheduler::start(
        Arc::clone(&qrc),
        Obs::disabled(),
        SchedConfig {
            scaling: Some(ScalingConfig {
                max_workers: 4,
                scale_up_depth: 2,
                scale_down_depth: 0,
                up_ticks: 2,
                down_ticks: 3,
                step: 1,
            }),
            tick: Duration::from_secs(10),
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    for seed in 0..16 {
        sched.submit(nwqsim_env("burst", seed)).unwrap();
    }
    sched.resume();
    assert!(sched.drain(T), "burst did not drain");
    let stats = sched.stats();
    assert_eq!(stats.completed, 16);
    assert_eq!((stats.scale_ups, qrc.workers()), (0, 1), "one tick cannot be a streak of two");
    sched.shutdown();
}

/// Dropping every handle without `shutdown` ends the scheduler's threads —
/// the dispatcher and the parked runners that served jobs — so the QRC
/// pool they ran on is released.
#[test]
fn dropped_scheduler_releases_its_pool() {
    let (qrc, _hetjob) = qrc_with(2, None);
    let held = Arc::strong_count(&qrc);
    let sched = Scheduler::start(Arc::clone(&qrc), Obs::disabled(), SchedConfig::default());
    for seed in 0..8 {
        let id = sched.submit(nwqsim_env("gone", seed)).unwrap();
        assert!(matches!(sched.wait(id, T), JobStatus::Done(_)));
    }
    assert!(Arc::strong_count(&qrc) > held);
    drop(sched);
    let deadline = Instant::now() + T;
    while Arc::strong_count(&qrc) > held && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(Arc::strong_count(&qrc), held, "a scheduler thread still holds the pool");
}
