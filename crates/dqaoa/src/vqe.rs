//! The Variational Quantum Eigensolver (VQE) — the extension workload.
//!
//! The paper's introduction lists VQE alongside QAOA and VQLS as the hybrid
//! algorithms motivating Q-HPC orchestration; its evaluation stops at
//! QAOA/DQAOA. This module closes that gap: a hardware-efficient ansatz,
//! Hamiltonian expectation estimation via measurement-basis grouping (one
//! QFw execution per qubit-wise-commuting group), and a Nelder–Mead outer
//! loop — all through the same backend-agnostic `execute` API, so VQE too
//! runs unmodified on every engine.

use qfw::{QfwBackend, QfwError};
use qfw_circuit::{Angle, Circuit, Gate, ParamCircuit, RotKind};
use qfw_optim::{nelder_mead, NelderMeadConfig};
use qfw_workloads::pauli::PauliHamiltonian;
use std::cell::RefCell;

/// VQE driver configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VqeConfig {
    /// Hardware-efficient ansatz layers.
    pub layers: usize,
    /// Shots per measurement-group execution.
    pub shots: usize,
    /// Objective-evaluation budget (each costs one execution per group).
    pub max_evals: usize,
    /// Seed for the initial parameters.
    pub seed: u64,
}

impl Default for VqeConfig {
    fn default() -> Self {
        VqeConfig {
            layers: 2,
            shots: 2048,
            max_evals: 120,
            seed: 0x0E5E,
        }
    }
}

/// Result of a VQE run.
#[derive(Clone, Debug)]
pub struct VqeOutcome {
    /// Lowest energy estimate reached.
    pub energy: f64,
    /// The optimized ansatz parameters.
    pub params: Vec<f64>,
    /// Total circuit executions (evaluations × measurement groups).
    pub circuit_evals: usize,
    /// Energy estimate per objective evaluation.
    pub energy_trace: Vec<f64>,
}

/// Builds the hardware-efficient ansatz: per layer, an `RY` rotation on
/// every qubit followed by a CX entangling ladder, plus a final rotation
/// layer. `n * (layers + 1)` parameters.
pub fn hardware_efficient_ansatz(n: usize, layers: usize) -> ParamCircuit {
    assert!(n >= 2);
    let mut t = ParamCircuit::new(n);
    t.name = format!("hwe_n{n}_l{layers}");
    let mut param = 0usize;
    for _ in 0..layers {
        for q in 0..n {
            t.rot(RotKind::Ry, &[q], Angle::sym(param));
            param += 1;
        }
        for q in 0..n - 1 {
            t.fixed(Gate::Cx(q, q + 1));
        }
    }
    for q in 0..n {
        t.rot(RotKind::Ry, &[q], Angle::sym(param));
        param += 1;
    }
    t
}

/// Estimates `<H>` for a bound ansatz circuit through the backend: one
/// execution per measurement group.
pub fn estimate_energy(
    backend: &QfwBackend,
    ham: &PauliHamiltonian,
    bound: &Circuit,
    shots: usize,
) -> Result<(f64, usize), QfwError> {
    let n = bound.num_qubits();
    let mut energy = ham.constant_offset();
    let mut execs = 0usize;
    for group in ham.measurement_groups() {
        let mut qc = bound.clone();
        qc.compose(&group.rotation_circuit(n));
        qc.measure_all();
        let result = backend.execute_sync(&qc, shots)?;
        execs += 1;
        for (idx, e) in group.estimate(ham, &result.counts) {
            energy += ham.terms[idx].coeff * e;
        }
    }
    Ok((energy, execs))
}

/// Runs the VQE loop for a Hamiltonian against any QFw backend.
pub fn solve_vqe(
    backend: &QfwBackend,
    ham: &PauliHamiltonian,
    config: VqeConfig,
) -> Result<VqeOutcome, QfwError> {
    let n = ham.num_qubits().max(2);
    let ansatz = hardware_efficient_ansatz(n, config.layers);
    let num_params = ansatz.num_params();

    let error: RefCell<Option<QfwError>> = RefCell::new(None);
    let trace: RefCell<Vec<f64>> = RefCell::new(Vec::new());
    let execs: RefCell<usize> = RefCell::new(0);

    let objective = |theta: &[f64]| -> f64 {
        if error.borrow().is_some() {
            return f64::INFINITY;
        }
        let bound = ansatz.bind(theta);
        match estimate_energy(backend, ham, &bound, config.shots) {
            Ok((e, k)) => {
                *execs.borrow_mut() += k;
                trace.borrow_mut().push(e);
                e
            }
            Err(e) => {
                *error.borrow_mut() = Some(e);
                f64::INFINITY
            }
        }
    };

    // Domain-informed initialization: zero rotations everywhere except the
    // final RY layer at pi/2, i.e. the uniform-superposition product state
    // (the mean-field starting point), plus a small seeded jitter to break
    // the symmetry of the simplex.
    let mut rng = qfw_num::rng::Rng::seed_from(config.seed);
    let x0: Vec<f64> = (0..num_params)
        .map(|i| {
            let base = if i >= num_params - n {
                std::f64::consts::FRAC_PI_2
            } else {
                0.0
            };
            base + rng.uniform(-0.1, 0.1)
        })
        .collect();
    let opt = nelder_mead(
        objective,
        &x0,
        NelderMeadConfig {
            max_evals: config.max_evals,
            f_tol: 1e-5,
            step: 0.4,
        },
    );
    if let Some(e) = error.into_inner() {
        return Err(e);
    }
    Ok(VqeOutcome {
        energy: opt.value,
        params: opt.x,
        circuit_evals: execs.into_inner(),
        energy_trace: trace.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw::QfwSession;
    use qfw_workloads::pauli::Pauli;

    #[test]
    fn ansatz_parameter_count() {
        let t = hardware_efficient_ansatz(4, 3);
        assert_eq!(t.num_params(), 4 * 4);
        let qc = t.bind(&[0.1; 16]);
        assert_eq!(qc.num_qubits(), 4);
        // 4 RY per layer x4 + 3 CX x3 layers
        assert_eq!(qc.num_gates(), 16 + 9);
    }

    #[test]
    fn estimate_matches_dense_on_fixed_state() {
        let session = QfwSession::launch_local(1).unwrap();
        let backend = session
            .backend(&[("backend", "aer"), ("subbackend", "statevector")])
            .unwrap();
        let ham = PauliHamiltonian::tfim(3, 1.0, 0.5);
        let mut prep = Circuit::new(3);
        prep.ry(0, 0.6).ry(1, -0.9).cx(0, 1).cx(1, 2);
        let (estimate, execs) = estimate_energy(&backend, &ham, &prep, 40_000).unwrap();
        assert_eq!(execs, 2); // ZZ group + X group

        let sv = qfw_sim_sv::SvSimulator::plain().statevector(&prep);
        let hv = ham.dense_matrix(3).matvec(sv.amps());
        let exact = qfw_num::matrix::inner(sv.amps(), &hv).re;
        assert!(
            (estimate - exact).abs() < 0.06,
            "estimate {estimate} vs exact {exact}"
        );
    }

    #[test]
    fn vqe_finds_tfim_ground_state() {
        let session = QfwSession::launch_local(2).unwrap();
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let n = 4;
        let ham = PauliHamiltonian::tfim(n, 1.0, 1.0);
        let exact = ham.ground_energy(n);
        let out = solve_vqe(
            &backend,
            &ham,
            VqeConfig {
                layers: 2,
                shots: 4096,
                max_evals: 300,
                seed: 11,
            },
        )
        .unwrap();
        // Within ~10% of the true ground energy: Nelder-Mead over 12 noisy
        // parameters is not a precision optimizer, but it must clearly find
        // the ground-state basin (random states sit near 0, not -4.7).
        assert!(
            out.energy < 0.9 * exact,
            "vqe energy {} vs exact {exact}",
            out.energy
        );
        assert!(out.circuit_evals >= out.energy_trace.len());
    }

    #[test]
    fn vqe_on_single_z_is_trivial() {
        let session = QfwSession::launch_local(1).unwrap();
        let backend = session
            .backend(&[("backend", "aer"), ("subbackend", "statevector")])
            .unwrap();
        // H = Z0 Z1: ground energy -1 (anti-aligned).
        let ham = PauliHamiltonian::default().term(1.0, vec![(0, Pauli::Z), (1, Pauli::Z)]);
        let out = solve_vqe(
            &backend,
            &ham,
            VqeConfig {
                layers: 1,
                shots: 1024,
                max_evals: 80,
                seed: 5,
            },
        )
        .unwrap();
        assert!(out.energy < -0.95, "energy {}", out.energy);
    }

    #[test]
    fn errors_propagate() {
        let session = QfwSession::launch_local(1).unwrap();
        let backend = session.backend(&[("backend", "missing")]).unwrap();
        let ham = PauliHamiltonian::tfim(3, 1.0, 1.0);
        assert!(solve_vqe(&backend, &ham, VqeConfig::default()).is_err());
    }
}
