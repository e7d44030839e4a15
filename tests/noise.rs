//! End-to-end noisy execution: the full stack — session, DEFw transport,
//! QPM dispatch, nwqsim adapter, trajectory executor — driven with the
//! canonical `noise_model` wire format, checked for statistical
//! correctness against the exact density-matrix reference and for
//! bitwise reproducibility across engines, and the mock cloud's
//! calibration loop closed through the noise-aware compiler.

use qfw::{BackendSpec, QfwConfig, QfwSession};
use qfw_circuit::Counts;
use qfw_hpc::ClusterSpec;
use qfw_noise::{reference, Calibration, Channel, NoiseModel, ReadoutError};
use qfw_workloads::ghz;

fn session() -> QfwSession {
    QfwSession::launch(
        &ClusterSpec::test(3),
        QfwConfig {
            qfw_nodes: 2,
            ..QfwConfig::default()
        },
    )
    .expect("session")
}

fn device_model() -> NoiseModel {
    let mut model = NoiseModel::empty();
    model.add_1q_all(Channel::depolarizing(0.008));
    model.add_2q_all(Channel::thermal_relaxation(90.0, 70.0, 0.6));
    model.set_readout_all(ReadoutError::new(0.03, 0.015));
    model
}

fn tv_to_reference(counts: &Counts, exact: &[f64], n: usize) -> f64 {
    let total: usize = counts.values().sum();
    let mut probs = vec![0.0f64; 1 << n];
    for (bits, &c) in counts {
        let mut idx = 0usize;
        for (i, ch) in bits.chars().enumerate() {
            if ch == '1' {
                idx |= 1 << (n - 1 - i);
            }
        }
        probs[idx] += c as f64 / total as f64;
    }
    0.5 * probs
        .iter()
        .zip(exact)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
}

#[test]
fn noisy_execution_matches_density_matrix_reference_through_the_stack() {
    let session = session();
    let model = device_model();
    let n = 3;
    let spec = BackendSpec::of("nwqsim", "cpu")
        .with_extra("noise_model", model.to_text())
        .with_extra("noise_trajectories", 4096);
    let backend = session.backend_with_spec(spec).unwrap().with_base_seed(5);
    let result = backend.execute_sync(&ghz(n), 4096).unwrap();
    assert_eq!(result.metadata["noise"], model.to_text());

    // Reference evolution wants the measurement-free circuit.
    let mut bare = qfw_circuit::Circuit::new(n);
    bare.h(0).cx(0, 1).cx(1, 2);
    let exact = reference::run_reference(&bare, &model);
    let d = tv_to_reference(&result.counts, &exact, n);
    assert!(d < 0.05, "TV to exact reference: {d}");
    // And the noise is visible: an ideal GHZ has exactly two outcomes.
    assert!(result.counts.len() > 2);
}

#[test]
fn noisy_counts_replay_bitwise_between_cpu_and_openmp() {
    let session = session();
    let model = device_model();
    let mut counts = Vec::new();
    for sub in ["cpu", "openmp"] {
        let spec = BackendSpec::of("nwqsim", sub)
            .with_extra("noise_model", model.to_text())
            .with_extra("noise_trajectories", 128);
        let backend = session.backend_with_spec(spec).unwrap().with_base_seed(99);
        counts.push(backend.execute_sync(&ghz(4), 600).unwrap().counts);
    }
    assert_eq!(
        counts[0], counts[1],
        "trajectory seeding must make worker count invisible"
    );
}

#[test]
fn scaled_models_degrade_monotonically() {
    // The ZNE premise, end to end: amplifying every channel must push the
    // sampled distribution further from ideal, scale over scale.
    let session = session();
    let model = device_model();
    let n = 4;
    let ideal: Counts = {
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap()
            .with_base_seed(7);
        backend.execute_sync(&ghz(n), 6000).unwrap().counts
    };
    let ghz_mass = |counts: &Counts| -> f64 {
        let total: usize = counts.values().sum();
        let good = counts.get(&"0".repeat(n)).copied().unwrap_or(0)
            + counts.get(&"1".repeat(n)).copied().unwrap_or(0);
        good as f64 / total as f64
    };
    assert!(ghz_mass(&ideal) > 0.999);
    let mut masses = Vec::new();
    for scale in [1.0, 2.0, 3.0] {
        let spec = BackendSpec::of("nwqsim", "cpu")
            .with_extra("noise_model", model.scaled(scale).to_text())
            .with_extra("noise_trajectories", 2048);
        let backend = session.backend_with_spec(spec).unwrap().with_base_seed(7);
        masses.push(ghz_mass(&backend.execute_sync(&ghz(n), 6000).unwrap().counts));
    }
    assert!(
        masses[0] > masses[1] && masses[1] > masses[2],
        "GHZ mass must fall as noise folds: {masses:?}"
    );
}

#[test]
fn cloud_calibration_feeds_the_noise_aware_compiler() {
    // Close the loop the tentpole draws: pull the drifting table off the
    // mock cloud, hand it to the O3 noise-aware layout planner, and check
    // the plan beats the connectivity-only layout on predicted fidelity.
    use qfw_cloud::{CloudConfig, CloudProvider};
    use qfw_compile::{plan_layout, plan_layout_calibrated, predicted_log_fidelity, DagCircuit};

    let provider = CloudProvider::start(CloudConfig::ionq_like());
    let cal: Calibration = provider.calibration().expect("ionq-like publishes a table");
    assert!(cal.num_qubits() >= 8);

    // A circuit whose hot pair the greedy plan parks on positions 0/1
    // regardless of their measured quality.
    let mut qc = qfw_circuit::Circuit::new(8);
    for _ in 0..10 {
        qc.h(0).cx(0, 1).h(1);
    }
    for q in 2..8 {
        qc.rx(q, 0.2);
    }
    let dag = DagCircuit::from_circuit(&qc);
    let greedy_score = predicted_log_fidelity(&dag, &plan_layout(&dag), &cal);
    let (order, tuned_score) = plan_layout_calibrated(&dag, &cal);
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    assert!(
        tuned_score >= greedy_score,
        "calibrated plan regressed: {tuned_score} < {greedy_score}"
    );
}
