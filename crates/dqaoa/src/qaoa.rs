//! The single-problem QAOA hybrid loop.

use qfw::{QfwBackend, QfwError};
use qfw_optim::{gradient_descent, nelder_mead, GradientDescentConfig, NelderMeadConfig};
use qfw_sim_sv::{SvSimulator, SweepPoint};
use qfw_workloads::qaoa::{counts_best, counts_energy, qaoa_ansatz, qubo_z_terms};
use qfw_workloads::Qubo;
use std::cell::RefCell;

/// QAOA driver configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QaoaConfig {
    /// Ansatz depth `p`.
    pub layers: usize,
    /// Shots per circuit evaluation.
    pub shots: usize,
    /// Classical-optimizer evaluation budget (circuit executions).
    pub max_evals: usize,
    /// Whole-loop wall-clock budget in seconds (infinite by default) — the
    /// per-run analog of the paper's two-hour cutoff. Exceeding it aborts
    /// the loop with [`QfwError::WalltimeExceeded`].
    pub wall_limit_secs: f64,
    /// Seed controlling the initial parameters.
    pub seed: u64,
}

impl Default for QaoaConfig {
    fn default() -> Self {
        QaoaConfig {
            layers: 2,
            shots: 1024,
            max_evals: 60,
            wall_limit_secs: f64::INFINITY,
            seed: 0x0A0A,
        }
    }
}

/// Result of a QAOA run.
#[derive(Clone, Debug)]
pub struct QaoaOutcome {
    /// Best sampled assignment (LSB-first).
    pub best_bits: Vec<u8>,
    /// Its QUBO energy.
    pub best_energy: f64,
    /// Optimized `[gamma_0, beta_0, ...]`.
    pub optimal_params: Vec<f64>,
    /// Circuit executions spent.
    pub circuit_evals: usize,
    /// Mean-energy trace per evaluation (the optimizer's view).
    pub energy_trace: Vec<f64>,
    /// End-to-end wall time in seconds.
    pub wall_secs: f64,
}

/// Runs the QAOA hybrid loop for a QUBO against any QFw backend.
///
/// The *identical* code path serves every engine — local state-vector, MPS,
/// tensor-network, or the cloud provider — because all communication goes
/// through the frontend's `execute` (the paper's central portability claim).
pub fn solve_qaoa(
    backend: &QfwBackend,
    qubo: &Qubo,
    config: QaoaConfig,
) -> Result<QaoaOutcome, QfwError> {
    let sw = qfw_hpc::Stopwatch::start();
    let ansatz = qaoa_ansatz(qubo, config.layers);
    let num_params = 2 * config.layers;

    // The optimizer wants plain f64; stash the first transport/executor
    // error and poison the objective with +inf so the loop unwinds fast.
    let error: RefCell<Option<QfwError>> = RefCell::new(None);
    let trace: RefCell<Vec<f64>> = RefCell::new(Vec::new());

    let objective = |theta: &[f64]| -> f64 {
        if error.borrow().is_some() {
            return f64::INFINITY;
        }
        if sw.elapsed_secs() > config.wall_limit_secs {
            *error.borrow_mut() = Some(QfwError::WalltimeExceeded {
                limit_secs: config.wall_limit_secs,
            });
            return f64::INFINITY;
        }
        // The skeleton travels symbolically with a `bind` line, so the
        // scheduler can coalesce same-skeleton evaluations into one sweep.
        match backend.execute_param_sync(&ansatz, theta, config.shots) {
            Ok(result) => {
                let e = counts_energy(qubo, &result.counts);
                trace.borrow_mut().push(e);
                e
            }
            Err(e) => {
                *error.borrow_mut() = Some(e);
                f64::INFINITY
            }
        }
    };

    // Small deterministic initial angles: near zero, away from the saddle.
    let mut rng = qfw_num::rng::Rng::seed_from(config.seed);
    let x0: Vec<f64> = (0..num_params).map(|_| rng.uniform(-0.3, 0.3)).collect();

    let opt = nelder_mead(
        objective,
        &x0,
        NelderMeadConfig {
            max_evals: config.max_evals,
            f_tol: 1e-4,
            step: 0.25,
        },
    );
    if let Some(e) = error.into_inner() {
        return Err(e);
    }

    // Final sampling at the optimum picks the reported assignment.
    let result = backend.execute_param_sync(&ansatz, &opt.x, config.shots.max(2048))?;
    let (best_bits, best_energy) = counts_best(qubo, &result.counts);

    Ok(QaoaOutcome {
        best_bits,
        best_energy,
        optimal_params: opt.x,
        circuit_evals: opt.evals + 1,
        energy_trace: trace.into_inner(),
        wall_secs: sw.elapsed_secs(),
    })
}

/// Runs the QAOA loop with exact parameter-shift gradients against the
/// local state-vector engine: the ansatz is compiled **once** into a sweep
/// plan, every optimizer iteration evaluates the exact mean energy and its
/// analytic gradient against that plan (no shot noise in the inner loop),
/// and only the final assignment is sampled.
///
/// This is the single-node analytic path; [`solve_qaoa`] remains the
/// backend-portable shot-based loop.
pub fn solve_qaoa_gradient(
    qubo: &Qubo,
    config: QaoaConfig,
) -> Result<QaoaOutcome, QfwError> {
    let sw = qfw_hpc::Stopwatch::start();
    let ansatz = qaoa_ansatz(qubo, config.layers);
    let num_params = 2 * config.layers;
    let engine = SvSimulator::plain();
    let plan = engine
        .compile_sweep(&ansatz)
        .map_err(|e| QfwError::Execution(e.to_string()))?;
    let (offset, terms) = qubo_z_terms(qubo);

    let trace: RefCell<Vec<f64>> = RefCell::new(Vec::new());
    let eval = |theta: &[f64]| -> (f64, Vec<f64>) {
        let e = offset + plan.expectation_z(theta, &terms);
        trace.borrow_mut().push(e);
        (e, plan.grad_expectation_z(theta, &terms))
    };

    let mut rng = qfw_num::rng::Rng::seed_from(config.seed);
    let x0: Vec<f64> = (0..num_params).map(|_| rng.uniform(-0.3, 0.3)).collect();
    let opt = gradient_descent(
        eval,
        &x0,
        GradientDescentConfig {
            max_iters: config.max_evals,
            ..GradientDescentConfig::default()
        },
    );
    if sw.elapsed_secs() > config.wall_limit_secs {
        return Err(QfwError::WalltimeExceeded {
            limit_secs: config.wall_limit_secs,
        });
    }

    // Sample the optimized state once for the reported assignment.
    let out = plan.run(&SweepPoint {
        params: opt.x.clone(),
        shots: config.shots.max(2048),
        seed: config.seed,
    });
    let (best_bits, best_energy) = counts_best(qubo, &out.counts);

    Ok(QaoaOutcome {
        best_bits,
        best_energy,
        optimal_params: opt.x,
        circuit_evals: opt.evals,
        energy_trace: trace.into_inner(),
        wall_secs: sw.elapsed_secs(),
    })
}

/// Solution fidelity as the paper's Fig. 3f defines it: the ratio of the
/// achieved energy improvement over the reference solver's, clamped into
/// `[0, 1]` (1 = matched or beat the reference).
///
/// Energies are measured against the zero-assignment baseline `E(0) = 0`.
pub fn solution_fidelity(achieved: f64, reference: f64) -> f64 {
    if reference >= 0.0 {
        // Degenerate instance: nothing below the baseline to find.
        return if achieved <= reference { 1.0 } else { 0.0 };
    }
    (achieved / reference).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw::QfwSession;
    use qfw_optim::{anneal, AnnealConfig};

    fn session() -> QfwSession {
        QfwSession::launch_local(2).unwrap()
    }

    #[test]
    fn qaoa_reaches_high_fidelity_on_small_qubo() {
        let session = session();
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let qubo = Qubo::random(6, 1.0, 17);
        let (_, exact) = qubo.brute_force_min();
        let out = solve_qaoa(&backend, &qubo, QaoaConfig::default()).unwrap();
        let fid = solution_fidelity(out.best_energy, exact);
        assert!(fid > 0.95, "fidelity {fid} (got {} vs {exact})", out.best_energy);
        assert!(!out.energy_trace.is_empty());
        assert!(out.circuit_evals > 10);
    }

    #[test]
    fn same_driver_code_runs_on_mps_backend() {
        let session = session();
        let backend = session
            .backend(&[("backend", "aer"), ("subbackend", "matrix_product_state")])
            .unwrap();
        let qubo = Qubo::metamaterial(5, 2, 3);
        let (_, exact) = qubo.brute_force_min();
        let config = QaoaConfig {
            max_evals: 40,
            shots: 512,
            ..QaoaConfig::default()
        };
        let out = solve_qaoa(&backend, &qubo, config).unwrap();
        assert!(solution_fidelity(out.best_energy, exact) > 0.9);
    }

    #[test]
    fn gradient_qaoa_reaches_high_fidelity_without_shots_in_the_loop() {
        let qubo = Qubo::random(6, 1.0, 17);
        let (_, exact) = qubo.brute_force_min();
        let out = solve_qaoa_gradient(
            &qubo,
            QaoaConfig {
                max_evals: 80,
                ..QaoaConfig::default()
            },
        )
        .unwrap();
        let fid = solution_fidelity(out.best_energy, exact);
        assert!(fid > 0.95, "fidelity {fid} (got {} vs {exact})", out.best_energy);
        // The analytic trace must be monotone-ish: the best seen value
        // beats the starting value.
        let first = out.energy_trace[0];
        let best = out.energy_trace.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(best < first, "no descent: {best} vs {first}");
    }

    #[test]
    fn fidelity_metric_edges() {
        assert_eq!(solution_fidelity(-10.0, -10.0), 1.0);
        assert_eq!(solution_fidelity(-12.0, -10.0), 1.0); // beat the reference
        assert!((solution_fidelity(-5.0, -10.0) - 0.5).abs() < 1e-12);
        assert_eq!(solution_fidelity(3.0, -10.0), 0.0);
        assert_eq!(solution_fidelity(0.0, 0.0), 1.0);
    }

    #[test]
    fn qaoa_matches_annealer_reference_on_benchmark_sizes() {
        // The Fig. 3f shape: fidelity vs the annealing reference stays
        // above 95% for the small Table 2 sizes.
        let session = session();
        let backend = session
            .backend(&[("backend", "aer"), ("subbackend", "statevector")])
            .unwrap();
        for n in [4usize, 8] {
            let qubo = Qubo::random(n, 1.0, 100 + n as u64);
            let reference = anneal(n, |x| qubo.energy(x), AnnealConfig::default());
            let out = solve_qaoa(&backend, &qubo, QaoaConfig::default()).unwrap();
            let fid = solution_fidelity(out.best_energy, reference.energy);
            assert!(fid > 0.95, "n={n}: fidelity {fid}");
        }
    }

    #[test]
    fn errors_propagate_not_panic() {
        let session = session();
        // ionq is not registered in a cloud-less session.
        let backend = session.backend(&[("backend", "ionq")]).unwrap();
        let qubo = Qubo::random(4, 1.0, 1);
        let err = solve_qaoa(&backend, &qubo, QaoaConfig::default()).unwrap_err();
        assert!(err.to_string().contains("ionq"));
    }
}
