//! Observability suite: the unified qfw-obs layer records every
//! orchestration layer of a DQAOA run, exports a valid Chrome trace, and
//! — under the deterministic virtual clock — produces byte-identical
//! trace and metrics exports across same-seed runs. Chaos injections are
//! annotated into the same timeline.

use qfw::{QfwConfig, QfwSession};
use qfw_chaos::{FaultPlan, FaultSpec};
use qfw_dqaoa::{solve_dqaoa_traced, DqaoaConfig, DqaoaOutcome, QaoaConfig};
use qfw_hpc::ClusterSpec;
use qfw_obs::Obs;
use qfw_workloads::Qubo;
use std::sync::Arc;

/// One fully-serialized DQAOA run under the virtual clock: a single DEFw
/// dispatcher and one sub-QUBO in flight at a time make the interleaving
/// of clock reads causal, so the tick sequence — and therefore every
/// timestamp — replays exactly.
fn traced_dqaoa(seed: u64) -> (String, String, DqaoaOutcome) {
    let obs = Obs::virtual_clock(seed);
    let session = QfwSession::launch(
        &ClusterSpec::test(3),
        QfwConfig {
            qfw_nodes: 2,
            defw_workers: 1,
            obs: obs.clone(),
            ..QfwConfig::default()
        },
    )
    .unwrap();
    let backend = session
        .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
        .unwrap();
    let qubo = Qubo::metamaterial(12, 3, 7);
    let config = DqaoaConfig {
        subqsize: 6,
        nsubq: 1,
        qaoa: QaoaConfig {
            layers: 1,
            shots: 128,
            max_evals: 6,
            ..QaoaConfig::default()
        },
        max_iterations: 2,
        patience: 1,
        ..DqaoaConfig::default()
    };
    let out = solve_dqaoa_traced(&backend, &qubo, config, &obs).unwrap();
    let trace = obs.chrome_trace();
    let metrics = obs.metrics_snapshot();
    session.teardown();
    (trace, metrics, out)
}

/// The exported trace spans every orchestration layer of the run: DEFw
/// RPC handling, QRC slot lifecycle, QPM dispatch, engine phases, and the
/// DQAOA driver's sub-QUBO solves.
#[test]
fn dqaoa_trace_covers_every_layer() {
    let (trace, metrics, out) = traced_dqaoa(42);
    for span in [
        "rpc.handle",       // DEFw dispatcher
        "qpm.run_circuit",  // QPM dispatch
        "qrc.slot.acquire", // QRC slot lifecycle
        "qrc.execute",
        "sv.fuse", // engine phases (a lone bound job emits a
        "sv.apply", // concrete job's spans)
        "sv.sample",
        "dqaoa.run", // driver
        "dqaoa.iteration",
        "dqaoa.sub_solve",
    ] {
        assert!(trace.contains(&format!("\"name\":\"{span}\"")), "missing {span}");
    }
    // Valid Chrome trace-event envelope.
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.trim_end().ends_with("]}"));
    // Metrics cover the RPC and QRC planes.
    assert!(metrics.contains("\"defw.calls\""), "{metrics}");
    assert!(metrics.contains("\"qpm.dispatched\""), "{metrics}");
    assert!(metrics.contains("\"qrc.tasks\""), "{metrics}");
    assert!(metrics.contains("\"defw.handle_us\""), "{metrics}");
    // The TaskTraces derive from the same spans: one per sub-solve.
    assert_eq!(out.trace.len(), out.iterations);
}

/// Same seed ⇒ byte-identical trace JSON and metrics snapshot across two
/// independent full-stack runs; a different seed shifts the virtual
/// timestamps.
#[test]
fn same_seed_runs_export_identical_bytes() {
    let (trace_a, metrics_a, out_a) = traced_dqaoa(42);
    let (trace_b, metrics_b, out_b) = traced_dqaoa(42);
    assert_eq!(trace_a, trace_b, "trace bytes diverged between same-seed runs");
    assert_eq!(metrics_a, metrics_b, "metrics bytes diverged");
    assert_eq!(out_a.best_energy, out_b.best_energy);
    assert_eq!(
        out_a
            .trace
            .iter()
            .map(|t| (t.start_secs.to_bits(), t.end_secs.to_bits()))
            .collect::<Vec<_>>(),
        out_b
            .trace
            .iter()
            .map(|t| (t.start_secs.to_bits(), t.end_secs.to_bits()))
            .collect::<Vec<_>>(),
        "TaskTrace timings diverged"
    );

    let (trace_c, _, _) = traced_dqaoa(43);
    assert_ne!(trace_a, trace_c, "different seeds should tick differently");
}

/// Chaos injections surface as `chaos.fire` instants in the trace and a
/// `chaos.fires` counter in the metrics, alongside the retries they
/// trigger in the QRC.
#[test]
fn chaos_injections_are_annotated_into_the_trace() {
    let obs = Obs::virtual_clock(7);
    let chaos = Arc::new(FaultPlan::seeded(7).inject("qrc.slot_death", FaultSpec::first(2)));
    let session = QfwSession::launch(
        &ClusterSpec::test(3),
        QfwConfig {
            qfw_nodes: 2,
            defw_workers: 1,
            obs: obs.clone(),
            chaos: Arc::clone(&chaos),
            ..QfwConfig::default()
        },
    )
    .unwrap();
    let backend = session
        .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
        .unwrap();
    let mut qc = qfw_circuit::Circuit::new(3);
    qc.h(0).cx(0, 1).cx(1, 2).measure_all();
    for _ in 0..3 {
        backend.execute_sync(&qc, 100).unwrap();
    }
    assert_eq!(chaos.fired("qrc.slot_death"), 2);
    let trace = obs.chrome_trace();
    let metrics = obs.metrics_snapshot();
    session.teardown();
    assert!(trace.contains("\"name\":\"chaos.fire\""), "{trace}");
    assert!(trace.contains("\"site\":\"qrc.slot_death\""), "{trace}");
    assert!(trace.contains("\"name\":\"qrc.requeue\""), "{trace}");
    assert!(metrics.contains("\"chaos.fires\":2"), "{metrics}");
    assert!(metrics.contains("\"qrc.requeues\":2"), "{metrics}");
}

/// A disabled handle records nothing and exports empty envelopes — the
/// zero-overhead default every production path runs with.
#[test]
fn disabled_obs_stays_empty_through_a_run() {
    let session = QfwSession::launch_local(2).unwrap();
    let backend = session
        .backend(&[("backend", "aer"), ("subbackend", "statevector")])
        .unwrap();
    let mut qc = qfw_circuit::Circuit::new(4);
    qc.h(0).cx(0, 1).measure_all();
    backend.execute_sync(&qc, 50).unwrap();
    let obs = session.obs();
    assert!(!obs.is_enabled());
    assert_eq!(obs.span_count(), 0);
    assert_eq!(obs.event_count(), 0);
}
