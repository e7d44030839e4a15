//! Noise-aware O3 layout: on a heterogeneous calibration table the
//! calibrated planner must strictly beat the connectivity-greedy layout
//! in predicted log-fidelity, and the score must flow through
//! `compile_qasm3` as `predicted_fidelity`.

use qfw_circuit::Circuit;
use qfw_compile::{
    compile_dag_calibrated, compile_qasm3, plan_layout, plan_layout_calibrated,
    predicted_log_fidelity, DagCircuit, OptLevel,
};
use qfw_noise::{Calibration, QubitCal};
use qfw_obs::Obs;

/// A table where the low physical positions — exactly where the greedy
/// planner parks the hottest qubits — are the *worst* qubits on the
/// device, so connectivity-only placement is measurably wrong.
fn adversarial_calibration(n: usize) -> Calibration {
    let qubits = (0..n)
        .map(|p| {
            // Quality improves with position: position 0 is noisiest.
            let f = (n - p) as f64 / n as f64; // 1.0 (worst) .. 1/n (best)
            QubitCal {
                t1_us: 20.0 + 180.0 * (1.0 - f),
                t2_us: 15.0 + 120.0 * (1.0 - f),
                err_1q: 1e-4 + 4e-3 * f,
                err_2q: 2e-3 + 8e-2 * f,
                readout_p01: 0.01,
                readout_p10: 0.01,
            }
        })
        .collect();
    Calibration {
        qubits,
        gate_time_1q_us: 0.05,
        gate_time_2q_us: 0.35,
    }
}

/// Hot pair (0,1) hammered by entanglers; qubits 2..n nearly idle — the
/// greedy plan puts 0 and 1 on the (bad) low physical positions.
fn skewed_circuit(n: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    for _ in 0..12 {
        qc.h(0).cx(0, 1).h(1);
    }
    for q in 2..n {
        qc.rx(q, 0.1);
    }
    qc.cx(2, 3);
    qc
}

#[test]
fn calibrated_layout_strictly_beats_greedy_on_heterogeneous_device() {
    let qc = skewed_circuit(6);
    let dag = DagCircuit::from_circuit(&qc);
    let cal = adversarial_calibration(6);

    let greedy = plan_layout(&dag);
    let greedy_score = predicted_log_fidelity(&dag, &greedy, &cal);
    let (tuned, tuned_score) = plan_layout_calibrated(&dag, &cal);

    // A valid permutation…
    let mut sorted = tuned.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    // …that is strictly better than connectivity-only placement, and the
    // reported score is the layout's actual score.
    assert!(
        tuned_score > greedy_score,
        "calibrated {tuned_score} must beat greedy {greedy_score}"
    );
    assert!(
        (tuned_score - predicted_log_fidelity(&dag, &tuned, &cal)).abs() < 1e-12,
        "returned score must match a rescoring of the returned layout"
    );
    // Both are lossy placements (negative log-fidelity) on a noisy device.
    assert!(tuned_score < 0.0);
}

#[test]
fn calibrated_compile_surfaces_predicted_fidelity_only_at_o3() {
    let qc = skewed_circuit(5);
    let cal = adversarial_calibration(5);
    let obs = Obs::wall();
    let result = compile_dag_calibrated(
        DagCircuit::from_circuit(&qc),
        OptLevel::O3,
        &obs,
        Some(&cal),
    );
    let score = result.predicted_fidelity.expect("O3 + calibration scores");
    assert!(score.is_finite() && score < 0.0);
    assert!(result.layout.is_some());
    assert!(obs
        .spans()
        .iter()
        .any(|s| s.name == "compile.pass.plan-layout-calibrated"));

    // Below O3 the calibration is ignored entirely.
    let o2 = compile_dag_calibrated(
        DagCircuit::from_circuit(&qc),
        OptLevel::O2,
        &Obs::disabled(),
        Some(&cal),
    );
    assert!(o2.predicted_fidelity.is_none());
    assert!(o2.layout.is_none());

    // And without a table, O3 falls back to the uncalibrated planner.
    let plain = compile_dag_calibrated(
        DagCircuit::from_circuit(&qc),
        OptLevel::O3,
        &Obs::disabled(),
        None,
    );
    assert!(plain.predicted_fidelity.is_none());
    assert!(plain.layout.is_some());
}

#[test]
fn calibrated_compile_carries_score_and_preserves_the_circuit() {
    let src = "OPENQASM 3; qubit[4] q; bit[4] c; h q[0]; cx q[0], q[1]; cx q[0], q[1]; \
               cx q[2], q[3]; c = measure q;";
    let cal = adversarial_calibration(4);
    let obs = Obs::disabled();
    let (with_cal, scored) = compile_qasm3(src, OptLevel::O3, &obs, Some(&cal)).unwrap();
    let (without, plain) = compile_qasm3(src, OptLevel::O3, &obs, None).unwrap();
    assert!(scored.predicted_fidelity.is_some());
    assert!(plain.predicted_fidelity.is_none());
    // The layout pass is analysis-only: the lowered program is identical.
    assert_eq!(with_cal, without);
}

#[test]
fn score_penalizes_hot_qubits_on_bad_hardware() {
    // Direct check on the scoring function: swapping the hot pair from
    // the best physical positions to the worst must lower the score.
    let qc = skewed_circuit(4);
    let dag = DagCircuit::from_circuit(&qc);
    let cal = adversarial_calibration(4);
    // order[p] = q: hot logical 0,1 on best physical positions (3,2)…
    let hot_on_good = vec![2, 3, 1, 0];
    // …vs hot logical 0,1 on worst physical positions (0,1).
    let hot_on_bad = vec![0, 1, 2, 3];
    let good = predicted_log_fidelity(&dag, &hot_on_good, &cal);
    let bad = predicted_log_fidelity(&dag, &hot_on_bad, &cal);
    assert!(
        good > bad,
        "hot-on-good {good} should beat hot-on-bad {bad}"
    );
}
