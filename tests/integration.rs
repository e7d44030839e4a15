//! Workspace integration tests: full QFw bring-up, cross-backend
//! agreement, distributed execution, cloud path, and DQAOA end-to-end —
//! the flows Fig. 1 walks through, exercised across crate boundaries.

use qfw::{BackendSpec, ExecTask, QfwConfig, QfwError, QfwResult, QfwSession, Source};
use qfw_chaos::{FaultPlan, FaultSpec};
use qfw_circuit::{text, Circuit};
use qfw_cloud::CloudConfig;
use qfw_dqaoa::{solve_dqaoa, solve_qaoa, DqaoaConfig, QaoaConfig};
use qfw_dqaoa::qaoa::solution_fidelity;
use qfw_hpc::ClusterSpec;
use qfw_obs::Obs;
use qfw_sched::{JobEnvelope, SchedConfig, SchedError, Scheduler};
use qfw_workloads::{ghz, ham, hhl_benchmark, tfim, Qubo};
use std::sync::Arc;

fn full_session() -> QfwSession {
    QfwSession::launch(
        &ClusterSpec::test(4),
        QfwConfig {
            qfw_nodes: 3,
            qpm_services: 2,
            cloud: Some(CloudConfig::instant()),
            ..QfwConfig::default()
        },
    )
    .expect("session")
}

/// Every backend must sample statistically-equivalent distributions from
/// the same circuit — the portability contract behind all of Fig. 3.
#[test]
fn all_five_backends_agree_on_every_workload_family() {
    let session = full_session();
    let specs = [
        BackendSpec::of("nwqsim", "cpu"),
        BackendSpec::of("aer", "automatic"),
        BackendSpec::of("tnqvm", "exatn-mps"),
        BackendSpec::of("qtensor", "numpy"),
        BackendSpec::of("ionq", "simulator"),
    ];
    for circuit in [ghz(6), ham(6), tfim(6)] {
        let results: Vec<QfwResult> = specs
            .iter()
            .map(|spec| {
                session
                    .backend_with_spec(spec.clone())
                    .unwrap()
                    .execute_sync(&circuit, 6000)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", spec.backend, circuit.name))
            })
            .collect();
        for pair in results.windows(2) {
            let tv = pair[0].tv_distance(&pair[1]);
            assert!(
                tv < 0.15,
                "{}: {} vs {} tv={tv}",
                circuit.name,
                pair[0].backend,
                pair[1].backend
            );
        }
    }
}

/// Distributed NWQ-Sim must agree with its serial mode (not just
/// statistically — this catches rank-exchange bugs at the distribution
/// level across the full stack).
#[test]
fn distributed_ranks_match_serial_distribution() {
    let session = full_session();
    let circuit = ham(8);
    let serial = session
        .backend_with_spec(BackendSpec::of("nwqsim", "cpu"))
        .unwrap()
        .execute_sync(&circuit, 4000)
        .unwrap();
    for ranks in [2usize, 4, 8] {
        let dist = session
            .backend_with_spec(BackendSpec::of("nwqsim", "mpi").with_ranks(ranks))
            .unwrap()
            .execute_sync(&circuit, 4000)
            .unwrap();
        assert_eq!(dist.profile.ranks, ranks);
        // Two 4000-shot samples of a ~256-outcome distribution sit at
        // TV ≈ 0.14 from sampling noise alone; a rank-exchange bug scores
        // ~0.9 (amplitude-exact agreement is asserted in qfw-sim-sv).
        let tv = serial.tv_distance(&dist);
        assert!(tv < 0.25, "ranks={ranks}: tv={tv}");
    }
}

/// HHL runs through the framework and post-selects successfully on every
/// dense backend.
#[test]
fn hhl_through_the_framework() {
    let session = full_session();
    let (circuit, inst) = hhl_benchmark(5);
    let ancilla = inst.total_qubits() - 1;
    for spec in [
        BackendSpec::of("nwqsim", "cpu"),
        BackendSpec::of("aer", "statevector"),
    ] {
        let result = session
            .backend_with_spec(spec)
            .unwrap()
            .execute_sync(&circuit, 3000)
            .unwrap();
        // Some shots must land in the ancilla=1 subspace.
        let success: usize = result
            .counts
            .iter()
            .filter(|(bits, _)| bits.as_bytes()[circuit.num_qubits() - 1 - ancilla] == b'1')
            .map(|(_, c)| *c)
            .sum();
        assert!(
            success > 30,
            "{}: only {success} successful post-selections",
            result.backend
        );
    }
}

/// The session enforces teardown semantics: after teardown the frontends
/// fail cleanly instead of hanging.
#[test]
fn teardown_closes_the_rpc_plane() {
    let session = QfwSession::launch_local(1).unwrap();
    let backend = session
        .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
        .unwrap();
    let mut circuit = Circuit::new(2);
    circuit.h(0).cx(0, 1).measure_all();
    backend.execute_sync(&circuit, 10).unwrap();
    session.teardown();
    match backend.execute_sync(&circuit, 10) {
        Err(QfwError::Rpc(_)) | Err(QfwError::Execution(_)) => {}
        other => panic!("expected a transport error after teardown, got {other:?}"),
    }
}

/// The walltime budget produces the paper's "missing point" behaviour
/// end-to-end.
#[test]
fn walltime_cutoff_end_to_end() {
    let session = full_session();
    let backend = session
        .backend_with_spec(BackendSpec::of("aer", "statevector"))
        .unwrap()
        .with_timeout(std::time::Duration::from_millis(5));
    match backend.execute_sync(&ghz(22), 100) {
        Err(QfwError::WalltimeExceeded { .. }) => {}
        other => panic!("expected walltime error, got {other:?}"),
    }
}

/// QAOA end-to-end across two engines reaches the paper's >95% fidelity
/// band on a small instance.
#[test]
fn qaoa_end_to_end_fidelity() {
    let session = full_session();
    let qubo = Qubo::random(8, 0.8, 404);
    let (_, exact) = qubo.brute_force_min();
    for spec in [
        BackendSpec::of("nwqsim", "cpu"),
        BackendSpec::of("aer", "statevector"),
    ] {
        let backend = session.backend_with_spec(spec).unwrap();
        let out = solve_qaoa(&backend, &qubo, QaoaConfig::default()).unwrap();
        let fid = solution_fidelity(out.best_energy, exact);
        assert!(fid > 0.95, "{}: fidelity {fid}", backend.spec().backend);
    }
}

/// DQAOA end-to-end on the local and cloud paths: same application code,
/// both converge, local overlaps its sub-solves.
#[test]
fn dqaoa_local_and_cloud_end_to_end() {
    let session = full_session();
    let qubo = Qubo::metamaterial(24, 3, 99);
    let config = DqaoaConfig {
        subqsize: 8,
        nsubq: 3,
        qaoa: QaoaConfig {
            layers: 1,
            shots: 256,
            max_evals: 12,
            seed: 2,
            wall_limit_secs: f64::INFINITY,
        },
        max_iterations: 3,
        patience: 2,
        ..DqaoaConfig::default()
    };
    let mut energies = Vec::new();
    for spec in [
        BackendSpec::of("nwqsim", "cpu"),
        BackendSpec::of("ionq", "simulator"),
    ] {
        let backend = session.backend_with_spec(spec).unwrap();
        let out = solve_dqaoa(&backend, &qubo, config).unwrap();
        assert_eq!(out.trace.len(), out.iterations * 3);
        assert!((qubo.energy(&out.best_bits) - out.best_energy).abs() < 1e-12);
        energies.push(out.best_energy);
    }
    // Both runs found genuinely low-energy assignments (below the random
    // baseline by a wide margin).
    let mut rng = qfw_num::rng::Rng::seed_from(7);
    let mut random_mean = 0.0;
    for _ in 0..200 {
        let x: Vec<u8> = (0..24).map(|_| u8::from(rng.chance(0.5))).collect();
        random_mean += qubo.energy(&x) / 200.0;
    }
    for e in energies {
        assert!(e < random_mean - 1.0, "dqaoa {e} vs random {random_mean}");
    }
}

/// Seeds are a function of the evaluation, not of arrival order: with two
/// sub-solve threads in flight, ten same-seed runs on one backend handle
/// make the same number of evaluations and walk the same energies to the
/// same answer.
#[test]
fn dqaoa_replays_bitwise_with_concurrent_sub_solves() {
    let session = QfwSession::launch_local(2).unwrap();
    let backend = session
        .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
        .unwrap();
    let qubo = Qubo::metamaterial(12, 3, 41);
    let config = DqaoaConfig {
        subqsize: 6,
        nsubq: 2,
        qaoa: QaoaConfig {
            layers: 1,
            shots: 128,
            max_evals: 12,
            seed: 3,
            wall_limit_secs: f64::INFINITY,
        },
        max_iterations: 3,
        patience: 2,
        seed: 0xD0A0A,
        ..DqaoaConfig::default()
    };
    let mut runs = Vec::new();
    for _ in 0..10 {
        let before = session.total_stats().completed;
        let out = solve_dqaoa(&backend, &qubo, config).unwrap();
        let evals = session.total_stats().completed - before;
        let energies: Vec<u64> = out.energy_per_iteration.iter().map(|e| e.to_bits()).collect();
        runs.push((evals, energies, out.best_bits));
    }
    assert!(runs[0].0 > 0);
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run, &runs[0], "run {i} diverged from run 0");
    }
}

/// Multiple QPM services share one QRC without interference, and the
/// session aggregates their statistics.
#[test]
fn multi_qpm_sessions_track_stats() {
    let session = full_session();
    assert_eq!(session.qpm_services().len(), 2);
    let circuit = ghz(5);
    for _ in 0..4 {
        // Round-robin attachment spreads frontends across QPMs.
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        backend.execute_sync(&circuit, 50).unwrap();
    }
    let stats = session.total_stats();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
}

/// The `auto` pseudo-backend routes each workload to the engine the
/// paper's results say should win, and reports its reasoning.
#[test]
fn auto_backend_routes_workloads_sensibly() {
    let session = full_session();
    let backend = session.backend(&[("backend", "auto")]).unwrap();
    // GHZ (Clifford) -> the stabilizer fast path.
    let r = backend.execute_sync(&ghz(10), 200).unwrap();
    assert_eq!(r.metadata["auto_selected"], "aer/stabilizer");
    // TFIM weak quench -> MPS.
    let r = backend.execute_sync(&tfim(14), 200).unwrap();
    assert_eq!(r.metadata["auto_selected"], "aer/matrix_product_state");
    // HAM (strong entanglers) -> dense state vector.
    let r = backend.execute_sync(&ham(10), 200).unwrap();
    assert!(r.metadata["auto_selected"].starts_with("nwqsim"));
    assert_eq!(session.total_stats().failed, 0);
}

/// The cloud provider records queue time in the unified profile, and jobs
/// carry provider-side IDs (the REST path is really exercised).
#[test]
fn cloud_profile_carries_queue_metadata() {
    let session = full_session();
    let backend = session
        .backend_with_spec(BackendSpec::of("ionq", "simulator"))
        .unwrap();
    let result = backend.execute_sync(&ghz(4), 100).unwrap();
    assert!(result.metadata.contains_key("cloud_job_id"));
    assert!(result.profile.queue_secs >= 0.0);
    assert_eq!(session.cloud().unwrap().jobs_completed(), 1);
}

/// An engine that panics behind the DEFw hub fails its own job and nothing
/// else: both hub workers live on, the QPM books each panic as a failure,
/// and the next job completes.
#[test]
fn hub_workers_survive_engine_panics() {
    let chaos = Arc::new(FaultPlan::seeded(11).inject("qrc.engine_panic", FaultSpec::first(3)));
    let session = QfwSession::launch(
        &ClusterSpec::test(3),
        QfwConfig {
            qfw_nodes: 2,
            defw_workers: 2,
            chaos,
            ..QfwConfig::default()
        },
    )
    .unwrap();
    let backend = session
        .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
        .unwrap();
    for _ in 0..3 {
        match backend.execute_sync(&ghz(4), 100) {
            Err(QfwError::Execution(msg)) => assert!(msg.contains("engine panicked"), "{msg}"),
            other => panic!("a panicking engine must fail its job, got {other:?}"),
        }
    }
    let done = backend
        .execute_sync(&ghz(4), 100)
        .expect("the hub still runs a job");
    assert_eq!(done.counts.values().sum::<usize>(), 100);
    let stats = session.total_stats();
    assert_eq!((stats.accepted, stats.completed, stats.failed), (4, 1, 3));
}

/// A register of no qubits is refused at admission on every row — by the
/// QRC (wire text and a compiled circuit alike), by the scheduler's submit
/// and through a session — before an engine that cannot hold an empty
/// chain sees it.
#[test]
fn an_empty_register_is_refused_at_admission() {
    let session = QfwSession::launch_local(2).unwrap();
    let sched = Scheduler::start(
        Arc::clone(session.qrc()),
        Obs::disabled(),
        SchedConfig {
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let empty = Circuit::new(0);
    let rows = [
        ("nwqsim", "cpu"),
        ("nwqsim", "openmp"),
        ("nwqsim", "mpi"),
        ("aer", "automatic"),
        ("aer", "statevector"),
        ("aer", "matrix_product_state"),
        ("aer", "stabilizer"),
        ("tnqvm", "exatn-mps"),
        ("tnqvm", ""),
        ("qtensor", ""),
        ("auto", ""),
    ];
    let refused =
        |e: &QfwError| matches!(e, QfwError::BadProperties(m) if m.contains("at least one qubit"));
    for (name, sub) in rows {
        let spec = BackendSpec::of(name, sub);
        let task = ExecTask {
            circuit: text::dump(&empty),
            shots: 10,
            seed: 1,
            spec: spec.clone(),
        };
        let err = session.qrc().execute(&task).unwrap_err();
        assert!(refused(&err), "{name}/{sub}: {err}");
        let compiled = Source::Compiled {
            circuit: empty.clone(),
            layout: None,
            predicted_fidelity: None,
        };
        let err = session.qrc().admit(compiled, 10, 1, &spec).unwrap_err();
        assert!(refused(&err), "{name}/{sub} compiled: {err}");
        match sched.submit(JobEnvelope::new("t", &empty, 10).with_spec(spec.clone())) {
            Err(SchedError::Unrunnable(err)) => assert!(refused(&err), "{name}/{sub}: {err}"),
            other => panic!("{name}/{sub}: the scheduler must refuse, got {other:?}"),
        }
        let via_hub = session
            .backend_with_spec(spec)
            .unwrap()
            .execute_sync(&empty, 10);
        match via_hub {
            Err(QfwError::Execution(msg)) => assert!(msg.contains("at least one qubit"), "{msg}"),
            other => panic!("{name}/{sub}: the session must refuse, got {other:?}"),
        }
    }
    assert_eq!(session.qrc().engine_invocations(), 0);
    sched.shutdown();
}
