//! The NWQ-Sim (SV-Sim) analog rows: `nwqsim/{cpu,openmp,mpi}`.

use crate::backends::local::LocalRunner;
use crate::backends::testutil::{ghz_task, materialize_point, TestRig};
use crate::error::QfwError;
use crate::result::QfwResult;
use crate::spec::{BackendSpec, ExecTask, SweepPointSpec, SweepTask};
use qfw_circuit::param::Angle;
use qfw_circuit::text;
use qfw_circuit::Circuit;
use qfw_hpc::Stopwatch;

#[test]
fn all_subbackends_agree_on_ghz() {
    let rig = TestRig::new(2);
    let backend = LocalRunner;
    for (sub, ranks) in [("cpu", 1), ("openmp", 1), ("mpi", 4)] {
        let spec = BackendSpec::of("nwqsim", sub).with_ranks(ranks);
        let task = ghz_task(6, 600, spec);
        let result = rig.execute(&backend, &task).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 600, "{sub}");
        assert_eq!(result.counts.len(), 2, "{sub}");
        assert_eq!(result.subbackend, sub);
        assert_eq!(result.profile.ranks, ranks);
    }
}

#[test]
fn default_subbackend_is_cpu() {
    let rig = TestRig::new(1);
    let task = ghz_task(4, 50, BackendSpec::of("nwqsim", ""));
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.subbackend, "cpu");
}

#[test]
fn unknown_subbackend_rejected() {
    let rig = TestRig::new(1);
    let task = ghz_task(4, 50, BackendSpec::of("nwqsim", "gpu"));
    let err = rig.execute(&LocalRunner, &task).unwrap_err();
    assert!(matches!(err, QfwError::UnknownSubBackend { .. }));
}

#[test]
fn mpi_rejects_too_many_ranks_for_register() {
    let rig = TestRig::new(2);
    let task = ghz_task(3, 10, BackendSpec::of("nwqsim", "mpi").with_ranks(8));
    let err = rig.execute(&LocalRunner, &task).unwrap_err();
    assert!(matches!(err, QfwError::Resources(_)));
}

#[test]
fn cores_are_released_after_execution() {
    let rig = TestRig::new(1);
    let before = rig.hetjob.free_cores(1);
    let task = ghz_task(5, 20, BackendSpec::of("nwqsim", "mpi").with_ranks(4));
    rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(rig.hetjob.free_cores(1), before);
}

fn depolarizing_2q(p: f64) -> String {
    let mut model = qfw_noise::NoiseModel::empty();
    model.add_2q_all(qfw_noise::Channel::depolarizing(p));
    model.to_text()
}

#[test]
fn noise_model_extra_engages_kraus_channels() {
    let rig = TestRig::new(1);
    let mut model = qfw_noise::NoiseModel::empty();
    model.add_2q_all(qfw_noise::Channel::depolarizing(0.05));
    model.set_readout_all(qfw_noise::ReadoutError::symmetric(0.01));
    let spec = BackendSpec::of("nwqsim", "cpu")
        .with_extra("noise_model", model.to_text())
        .with_extra("noise_trajectories", 32);
    let task = ghz_task(6, 2000, spec);
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.metadata["noise"], model.to_text());
    assert_eq!(result.metadata["noise_trajectories"], "32");
    assert!(result.counts.len() > 2, "noise had no visible effect");
}

#[test]
fn malformed_noise_model_is_rejected() {
    let rig = TestRig::new(1);
    let spec = BackendSpec::of("nwqsim", "cpu").with_extra("noise_model", "garbage");
    let task = ghz_task(3, 10, spec);
    assert!(matches!(
        rig.execute(&LocalRunner, &task).unwrap_err(),
        QfwError::BadProperties(_)
    ));
}

#[test]
fn noisy_counts_match_between_cpu_and_openmp() {
    // Trajectory seeding is per-trajectory, so the serial and the
    // trajectory-parallel sub-backends must agree bitwise.
    let rig = TestRig::new(1);
    let run = |sub: &str| {
        let spec =
            BackendSpec::of("nwqsim", sub).with_extra("noise_model", depolarizing_2q(0.03));
        let task = ghz_task(6, 1000, spec);
        rig.execute(&LocalRunner, &task)
            .unwrap()
            .counts
    };
    assert_eq!(run("cpu"), run("openmp"));
}

#[test]
fn predicted_fidelity_extra_is_surfaced() {
    let rig = TestRig::new(1);
    let spec =
        BackendSpec::of("nwqsim", "cpu").with_extra("predicted_fidelity", -0.0123_f64);
    let task = ghz_task(3, 10, spec);
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.metadata["predicted_fidelity"], "-0.0123");
}

#[test]
fn noise_rejected_on_mpi() {
    let rig = TestRig::new(1);
    let spec = BackendSpec::of("nwqsim", "mpi")
        .with_ranks(2)
        .with_extra("noise_model", depolarizing_2q(0.05));
    let task = ghz_task(5, 10, spec);
    assert!(matches!(
        rig.execute(&LocalRunner, &task).unwrap_err(),
        QfwError::BadProperties(_)
    ));
}

#[test]
fn mpi_reports_comm_counters() {
    let rig = TestRig::new(2);
    let task = ghz_task(6, 200, BackendSpec::of("nwqsim", "mpi").with_ranks(4));
    let result = rig.execute(&LocalRunner, &task).unwrap();
    // An entangling chain across the rank boundary moves data.
    assert!(result.metadata["comm_exchanges"].parse::<u64>().unwrap() > 0);
    assert!(result.metadata["comm_bytes"].parse::<u64>().unwrap() > 0);
    // Five requested ranks round up to eight, once, and say so.
    let task = ghz_task(6, 200, BackendSpec::of("nwqsim", "mpi").with_ranks(5));
    let rounded = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(rounded.profile.ranks, 8);
    assert_eq!(rounded.metadata["ranks_rounded"], "8");
    assert!(!result.metadata.contains_key("ranks_rounded"));
}

#[test]
fn initial_layout_extra_preserves_counts_and_reduces_exchanges() {
    // Compiler handoff: a layout pulling the hot high qubits into
    // local positions must not change counts (bitwise) while moving
    // strictly less data on a top-heavy circuit.
    let rig = TestRig::new(2);
    let mut qc = Circuit::new(6);
    for _ in 0..5 {
        qc.h(4);
        qc.cx(4, 5);
        qc.rx(5, 0.3);
        qc.cx(5, 4);
    }
    qc.measure_all();
    let run = |layout: Option<&str>| {
        let mut spec = BackendSpec::of("nwqsim", "mpi").with_ranks(4);
        if let Some(order) = layout {
            spec = spec.with_extra("initial_layout", order);
        }
        let task = ExecTask {
            circuit: qfw_circuit::text::dump(&qc),
            shots: 300,
            seed: 21,
            spec,
        };
        rig.execute(&LocalRunner, &task).unwrap()
    };
    let plain = run(None);
    let seeded = run(Some("4,5,0,1,2,3"));
    assert_eq!(seeded.counts, plain.counts, "layout changed counts");
    assert_eq!(seeded.metadata["initial_layout"], "4,5,0,1,2,3");
    let exchanges =
        |r: &QfwResult| r.metadata["comm_exchanges"].parse::<u64>().unwrap();
    assert!(exchanges(&seeded) < exchanges(&plain));
    // Malformed layouts are rejected, not silently ignored.
    let mut spec = BackendSpec::of("nwqsim", "mpi").with_ranks(4);
    spec = spec.with_extra("initial_layout", "0,1,2");
    let task = ExecTask {
        circuit: qfw_circuit::text::dump(&qc),
        shots: 10,
        seed: 1,
        spec,
    };
    assert!(matches!(
        rig.execute(&LocalRunner, &task).unwrap_err(),
        QfwError::BadProperties(_)
    ));
}

#[test]
fn bound_diagonal_gates_take_zero_exchange_route_on_mpi() {
    // Regression for the compile-once sweep path: angles arriving via a
    // `bind` line materialize as literal rz/rzz/cp gates, which must
    // classify as diagonal and ride the zero-exchange route in the
    // distributed engine — inserting them between the entangling layers
    // of a 4-rank run must not add a single exchange.
    use qfw_circuit::param::{ParamCircuit, RotKind};
    let rig = TestRig::new(2);
    let n = 6; // ranks=4 -> qubits 4 and 5 live in the rank index
    let base = {
        let mut t = ParamCircuit::new(n);
        for q in 0..n {
            t.h(q);
        }
        for q in 0..n {
            t.rx(q, Angle::scaled(1, 2.0));
        }
        t.measure_all();
        t
    };
    let with_diag = {
        let mut t = ParamCircuit::new(n);
        for q in 0..n {
            t.h(q);
        }
        t.rzz(4, 5, Angle::scaled(0, 2.0)); // both high
        t.rot(RotKind::Cp, &[4, 3], Angle::sym(0)); // mixed high/low
        t.rz(5, Angle::sym(0)); // 1q high
        t.rzz(0, 4, Angle::scaled(0, -1.5)); // mixed low/high
        for q in 0..n {
            t.rx(q, Angle::scaled(1, 2.0));
        }
        t.measure_all();
        t
    };
    let params = [0.37, -0.82];
    let run = |template: &ParamCircuit| {
        let spec = BackendSpec::of("nwqsim", "mpi").with_ranks(4);
        let task = ExecTask {
            circuit: qfw_circuit::text::dump_param_bound(template, &params),
            shots: 400,
            seed: 77,
            spec,
        };
        rig.execute(&LocalRunner, &task).unwrap()
    };
    let exchanges =
        |r: &QfwResult| r.metadata["comm_exchanges"].parse::<u64>().unwrap();
    let dist = run(&with_diag);
    assert_eq!(
        exchanges(&dist),
        exchanges(&run(&base)),
        "bound diagonal gates caused data movement"
    );
    // The bound diagonal gates must still *act*: counts match the
    // serial engine bitwise (same canonical sampling scheme).
    let serial = {
        let task = ExecTask {
            circuit: qfw_circuit::text::dump_param_bound(&with_diag, &params),
            shots: 400,
            seed: 77,
            spec: BackendSpec::of("nwqsim", "cpu"),
        };
        rig.execute(&LocalRunner, &task).unwrap()
    };
    assert_eq!(dist.counts, serial.counts);
}

#[test]
fn fusion_toggle_respected() {
    let rig = TestRig::new(1);
    let spec = BackendSpec::of("nwqsim", "cpu").with_extra("fusion", false);
    let task = ghz_task(4, 50, spec);
    let result = rig.execute(&LocalRunner, &task).unwrap();
    // GHZ(4) has 4 gates; without fusion all 4 are applied verbatim.
    assert_eq!(result.metadata["gates_applied"], "4");
}

/// A circuit with a deep Clifford prefix whose stabilizer X-part has
/// rank 1 (a single H): the seam amplitudes are then `+-sqrt(0.5)`,
/// the one norm value the dense engine also produces exactly, so
/// partitioned and monolithic counts must agree *bitwise*.
fn clifford_prefix_circuit(n: usize, layers: usize) -> (Circuit, usize) {
    let mut qc = Circuit::new(n);
    qc.h(0);
    for l in 0..layers {
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        for q in 0..n {
            if (q + l) % 2 == 0 {
                qc.s(q);
            } else {
                qc.z(q);
            }
        }
    }
    let seam = qc.ops().len();
    for q in 0..n {
        qc.rx(q, 0.3 + 0.05 * q as f64);
    }
    qc.measure_all();
    (qc, seam)
}

#[test]
fn partitioned_execution_bitwise_matches_monolithic() {
    let rig = TestRig::new(1);
    let backend = LocalRunner;
    let (qc, seam) = clifford_prefix_circuit(6, 4);
    let task_of = |spec: BackendSpec| ExecTask {
        circuit: text::dump(&qc),
        shots: 500,
        seed: 4242,
        spec,
    };
    let mono = rig
        .execute(
            &backend,
            &task_of(BackendSpec::of("nwqsim", "cpu").with_extra("fusion", false)),
        )
        .unwrap();
    let part = rig
        .execute(
            &backend,
            &task_of(
                BackendSpec::of("nwqsim", "cpu")
                    .with_extra("fusion", false)
                    .with_extra("partition", "clifford_prefix")
                    .with_extra("partition_seam", seam),
            ),
        )
        .unwrap();
    assert_eq!(part.counts, mono.counts, "partition changed sampled counts");
    assert_eq!(part.metadata["partition"], "clifford_prefix");
    assert_eq!(part.metadata["partition_seam"], seam.to_string());
    assert_eq!(
        part.metadata["partition_prefix_gates"],
        (seam).to_string(),
        "every seam op here is a gate"
    );
    // Only the suffix ran dense.
    assert!(
        part.metadata["gates_applied"].parse::<usize>().unwrap()
            < mono.metadata["gates_applied"].parse::<usize>().unwrap()
    );
}

#[test]
fn partition_seam_crossing_non_clifford_is_rejected() {
    let rig = TestRig::new(1);
    let (qc, seam) = clifford_prefix_circuit(4, 2);
    let task = ExecTask {
        circuit: text::dump(&qc),
        shots: 10,
        seed: 1,
        // One past the Clifford prefix: the seam now includes an rx.
        spec: BackendSpec::of("nwqsim", "cpu").with_extra("partition_seam", seam + 1),
    };
    assert!(matches!(
        rig.execute(&LocalRunner, &task).unwrap_err(),
        QfwError::BadProperties(_)
    ));
}

/// A QAOA-shaped two-parameter skeleton used by the sweep tests.
fn sweep_template(n: usize) -> qfw_circuit::ParamCircuit {
    let mut t = qfw_circuit::ParamCircuit::new(n);
    for q in 0..n {
        t.h(q);
    }
    for q in 0..n - 1 {
        t.rzz(q, q + 1, Angle::scaled(0, 2.0));
    }
    for q in 0..n {
        t.rx(q, Angle::scaled(1, 2.0));
    }
    t.measure_all();
    t
}

fn sweep_points(k: usize, shots: usize) -> Vec<SweepPointSpec> {
    (0..k)
        .map(|i| SweepPointSpec {
            params: vec![0.15 + 0.05 * i as f64, 0.9 - 0.03 * i as f64],
            shots,
            seed: 9000 + i as u64,
        })
        .collect()
}

/// A concrete job, a bound job and a one-point sweep of one circuit
/// and seed are the same engine call, so their counts and applied
/// gates are equal by construction — and nothing is remembered from
/// one to the next.
#[test]
fn concrete_bound_and_one_point_sweep_are_one_path() {
    let rig = TestRig::new(1);
    let backend = LocalRunner;
    let template = sweep_template(5);
    let params = [0.4, 0.7];
    for sub in ["cpu", "openmp"] {
        for fusion in [true, false] {
            let spec = BackendSpec::of("nwqsim", sub).with_extra("fusion", fusion);
            let task = |circuit: String| ExecTask {
                circuit,
                shots: 128,
                seed: 11,
                spec: spec.clone(),
            };
            let concrete = rig
                .execute(&backend, &task(text::dump(&template.bind(&params))))
                .unwrap();
            let bound = rig
                .execute(&backend, &task(text::dump_param_bound(&template, &params)))
                .unwrap();
            let repeat = rig
                .execute(&backend, &task(text::dump_param_bound(&template, &params)))
                .unwrap();
            let swept = rig
                .qrc(None)
                .execute_sweep(&SweepTask {
                    circuit: text::dump_param(&template),
                    points: vec![SweepPointSpec {
                        params: params.to_vec(),
                        shots: 128,
                        seed: 11,
                    }],
                    spec: spec.clone(),
                })
                .unwrap();
            assert_eq!(concrete.counts.values().sum::<usize>(), 128);
            for other in [&bound, &repeat, &swept[0]] {
                assert_eq!(other.counts, concrete.counts, "{sub} fusion={fusion}");
                assert_eq!(
                    other.metadata["gates_applied"], concrete.metadata["gates_applied"],
                    "{sub} fusion={fusion}"
                );
            }
            for result in [&concrete, &bound, &repeat, &swept[0]] {
                assert!(!result.metadata.contains_key("plan_cached"));
                assert!(!result.metadata.contains_key("fusion_cached"));
            }
        }
    }
}

/// A point's profile is its own time: summed over the sweep it cannot
/// exceed the sweep's wall (it used to be the whole wall on each). A
/// point is a job like any other, so its `total_secs` is its adapter
/// call, of which engine and sampling are a part.
#[test]
fn sweep_point_profiles_sum_to_at_most_the_sweep_wall() {
    let rig = TestRig::new(1);
    let qrc = rig.qrc(None);
    let task = SweepTask {
        circuit: text::dump_param(&sweep_template(8)),
        points: sweep_points(6, 256),
        spec: BackendSpec::of("nwqsim", "cpu"),
    };
    let wall = Stopwatch::start();
    let swept = qrc.execute_sweep(&task).unwrap();
    let wall = wall.elapsed_secs();
    let total: f64 = swept.iter().map(|r| r.profile.total_secs).sum();
    assert!(total <= wall, "points sum to {total}s of a {wall}s sweep");
    for result in &swept {
        let own = result.profile.exec_secs + result.profile.sample_secs;
        assert!(own > 0.0 && own <= result.profile.total_secs);
        assert_eq!(result.profile.ranks, 1);
    }
}

#[test]
fn execute_sweep_bitwise_matches_per_point_executes() {
    let rig = TestRig::new(1);
    let qrc = rig.qrc(None);
    let backend = LocalRunner;
    let template = sweep_template(6);
    for sub in ["cpu", "openmp"] {
        let task = SweepTask {
            circuit: text::dump_param(&template),
            points: sweep_points(4, 256),
            spec: BackendSpec::of("nwqsim", sub),
        };
        let swept = qrc.execute_sweep(&task).unwrap();
        assert_eq!(swept.len(), 4, "{sub}");
        for (result, point) in swept.iter().zip(&task.points) {
            let single = rig
                .execute(
                    &backend,
                    &ExecTask {
                        circuit: materialize_point(&task.circuit, &point.params),
                        shots: point.shots,
                        seed: point.seed,
                        spec: task.spec.clone(),
                    },
                )
                .unwrap();
            assert_eq!(result.counts, single.counts, "{sub}");
        }
    }
}

#[test]
fn mpi_sweep_falls_back_to_per_point_execution() {
    let rig = TestRig::new(2);
    let backend = LocalRunner;
    let template = sweep_template(5);
    let task = SweepTask {
        circuit: text::dump_param(&template),
        points: sweep_points(3, 200),
        spec: BackendSpec::of("nwqsim", "mpi").with_ranks(4),
    };
    let swept = rig.qrc(None).execute_sweep(&task).unwrap();
    assert_eq!(swept.len(), 3);
    for (result, point) in swept.iter().zip(&task.points) {
        assert_eq!(result.profile.ranks, 4);
        let single = rig
            .execute(
                &backend,
                &ExecTask {
                    circuit: materialize_point(&task.circuit, &point.params),
                    shots: point.shots,
                    seed: point.seed,
                    spec: task.spec.clone(),
                },
            )
            .unwrap();
        assert_eq!(result.counts, single.counts);
    }
}

#[test]
fn sweep_point_with_short_binding_rejected() {
    let rig = TestRig::new(1);
    let template = sweep_template(4);
    let task = SweepTask {
        circuit: text::dump_param(&template),
        points: vec![SweepPointSpec {
            params: vec![0.1],
            shots: 16,
            seed: 1,
        }],
        spec: BackendSpec::of("nwqsim", "cpu"),
    };
    assert!(matches!(
        rig.qrc(None).execute_sweep(&task).unwrap_err(),
        QfwError::Marshal(_)
    ));
}
