//! Distributed QAOA: decompose → dispatch concurrently → aggregate →
//! iterate (Section 2.3 and 4.2).

use crate::qaoa::{solve_qaoa, QaoaConfig};
use crate::trace::TaskTrace;
use parking_lot::Mutex;
use qfw::{QfwBackend, QfwError};
use qfw_hpc::Stopwatch;
use qfw_num::rng::Rng;
use qfw_obs::Obs;
use qfw_workloads::Qubo;

/// How the large QUBO is cut into sub-QUBOs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompPolicy {
    /// Random partition of the variables, reshuffled each iteration.
    Random,
    /// Impact-factor directed: variables sorted by total coupling weight,
    /// grouped strongest-first so tightly-coupled variables are optimized
    /// together (the paper's "decomposition methods directed by an impact
    /// factor").
    ImpactFactor,
}

/// DQAOA configuration. The paper's Table 2 parameters map directly:
/// `subqsize` and `nsubq`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DqaoaConfig {
    /// Variables per sub-QUBO.
    pub subqsize: usize,
    /// Sub-QUBOs dispatched per iteration.
    pub nsubq: usize,
    /// Decomposition policy.
    pub policy: DecompPolicy,
    /// Inner QAOA configuration.
    pub qaoa: QaoaConfig,
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Stop after this many iterations without global improvement.
    pub patience: usize,
    /// Run greedy single-flip descent on the incumbent after each
    /// aggregation (the workflow's classical post-processing step).
    pub local_refine: bool,
    /// Seed for partitioning and the initial incumbent.
    pub seed: u64,
}

impl Default for DqaoaConfig {
    fn default() -> Self {
        DqaoaConfig {
            subqsize: 12,
            nsubq: 4,
            policy: DecompPolicy::Random,
            qaoa: QaoaConfig {
                layers: 1,
                shots: 512,
                max_evals: 30,
                ..QaoaConfig::default()
            },
            max_iterations: 8,
            patience: 3,
            local_refine: true,
            seed: 0xD0A0A,
        }
    }
}

/// Greedy single-flip descent: flips any variable that lowers the energy
/// until no single flip helps. Returns the (possibly unchanged) energy.
fn local_descent(qubo: &Qubo, x: &mut [u8], mut energy: f64) -> f64 {
    let n = qubo.num_vars();
    loop {
        let mut improved = false;
        for i in 0..n {
            x[i] ^= 1;
            let e = qubo.energy(x);
            if e < energy - 1e-15 {
                energy = e;
                improved = true;
            } else {
                x[i] ^= 1;
            }
        }
        if !improved {
            return energy;
        }
    }
}

/// Result of a DQAOA run.
#[derive(Clone, Debug)]
pub struct DqaoaOutcome {
    /// Best assignment found (LSB-first over the full QUBO).
    pub best_bits: Vec<u8>,
    /// Its energy.
    pub best_energy: f64,
    /// Outer iterations executed.
    pub iterations: usize,
    /// Global energy after each iteration.
    pub energy_per_iteration: Vec<f64>,
    /// Per-sub-QUBO timing traces (Fig. 5's raw data).
    pub trace: Vec<TaskTrace>,
    /// End-to-end wall time.
    pub wall_secs: f64,
}

/// Partitions variables into `nsubq` groups of (up to) `subqsize`.
fn decompose(
    qubo: &Qubo,
    policy: DecompPolicy,
    subqsize: usize,
    nsubq: usize,
    rng: &mut Rng,
) -> Vec<Vec<usize>> {
    let n = qubo.num_vars();
    let mut order: Vec<usize> = (0..n).collect();
    match policy {
        DecompPolicy::Random => rng.shuffle(&mut order),
        DecompPolicy::ImpactFactor => {
            let impact = qubo.impact_factors();
            order.sort_by(|&a, &b| impact[b].partial_cmp(&impact[a]).unwrap());
        }
    }
    order
        .chunks(subqsize)
        .take(nsubq)
        .map(|c| c.to_vec())
        .collect()
}

/// Runs DQAOA for a QUBO against any QFw backend.
///
/// Each iteration decomposes around the current incumbent, solves all
/// sub-QUBOs **concurrently** (one OS thread per sub-problem, mirroring the
/// paper's I/O-bound `threading` dispatch of asynchronous QFw calls), and
/// greedily accepts sub-solutions that lower the global energy.
pub fn solve_dqaoa(
    backend: &QfwBackend,
    qubo: &Qubo,
    config: DqaoaConfig,
) -> Result<DqaoaOutcome, QfwError> {
    solve_dqaoa_traced(backend, qubo, config, &Obs::disabled())
}

/// [`solve_dqaoa`], recording the run on the `dqaoa` track of `obs`:
/// a `dqaoa.run` span over the whole solve, one `dqaoa.iteration` span per
/// outer iteration, and one `dqaoa.sub_solve` span per sub-QUBO task. The
/// returned [`TaskTrace`]s are derived from the same spans, so the Fig. 5
/// timeline and the exported trace agree exactly.
pub fn solve_dqaoa_traced(
    backend: &QfwBackend,
    qubo: &Qubo,
    config: DqaoaConfig,
    obs: &Obs,
) -> Result<DqaoaOutcome, QfwError> {
    assert!(config.subqsize >= 2, "sub-QUBOs need at least two variables");
    assert!(config.nsubq >= 1);
    // Span times are the single timing source for TaskTrace; when the caller
    // isn't recording, a private wall-clock handle keeps the times real.
    let private;
    let obs = if obs.is_enabled() {
        obs
    } else {
        private = Obs::wall();
        &private
    };
    let n = qubo.num_vars();
    let run_sw = Stopwatch::start();
    let mut run_span = obs
        .span("dqaoa", "dqaoa.run")
        .attr("vars", n)
        .attr("subqsize", config.subqsize)
        .attr("nsubq", config.nsubq);
    let run_start_us = run_span.start_us();
    let mut rng = Rng::seed_from(config.seed);

    // Random initial incumbent.
    let mut incumbent: Vec<u8> = (0..n).map(|_| u8::from(rng.chance(0.5))).collect();
    let mut best_energy = qubo.energy(&incumbent);

    let mut traces: Vec<TaskTrace> = Vec::new();
    let mut energy_per_iteration = Vec::new();
    let mut stall = 0usize;
    let mut iterations = 0usize;

    for iteration in 0..config.max_iterations {
        iterations = iteration + 1;
        let mut iter_span = obs
            .span("dqaoa", "dqaoa.iteration")
            .attr("iteration", iteration);
        let groups = decompose(qubo, config.policy, config.subqsize, config.nsubq, &mut rng);

        // Concurrent sub-QUBO solves. Results land in a shared vector;
        // failures are stashed and re-raised after the scope joins.
        struct SubResult {
            sub_index: usize,
            vars: Vec<usize>,
            bits: Vec<u8>,
            trace: TaskTrace,
        }
        let results: Mutex<Vec<SubResult>> = Mutex::new(Vec::new());
        let failure: Mutex<Option<QfwError>> = Mutex::new(None);
        let incumbent_ref = &incumbent;
        let results_ref = &results;
        let failure_ref = &failure;

        std::thread::scope(|scope| {
            for (sub_index, vars) in groups.into_iter().enumerate() {
                let sub = qubo.sub_qubo(&vars, incumbent_ref);
                let mut sub_config = config.qaoa;
                sub_config.seed = config
                    .seed
                    .wrapping_add((iteration as u64) << 16)
                    .wrapping_add(sub_index as u64);
                // A handle with its own seed counter per sub-solve: every
                // evaluation's seed is fixed by (run seed, iteration,
                // sub-problem, evaluation index), not by which thread of
                // this scope reached a shared counter first.
                let stream = ((iteration as u64) << 32) | sub_index as u64;
                let solver = backend
                    .with_spec(backend.spec().clone())
                    .with_base_seed(Rng::stream(config.seed, stream).next_u64());
                scope.spawn(move || {
                    let mut span = obs
                        .span("dqaoa", "dqaoa.sub_solve")
                        .attr("iteration", iteration)
                        .attr("sub_index", sub_index)
                        .attr("backend", backend.spec().backend.as_str());
                    match solve_qaoa(&solver, &sub, sub_config) {
                        Ok(out) => {
                            span.set_attr("energy", out.best_energy);
                            let (start_us, end_us) = span.finish();
                            results_ref.lock().push(SubResult {
                                sub_index,
                                vars,
                                bits: out.best_bits,
                                trace: TaskTrace {
                                    iteration,
                                    sub_index,
                                    start_secs: start_us.saturating_sub(run_start_us) as f64
                                        / 1e6,
                                    end_secs: end_us.saturating_sub(run_start_us) as f64 / 1e6,
                                    backend: backend.spec().backend.clone(),
                                    energy: out.best_energy,
                                },
                            });
                        }
                        Err(e) => {
                            span.set_attr("ok", false);
                            failure_ref.lock().get_or_insert(e);
                        }
                    }
                });
            }
        });
        if let Some(e) = failure.into_inner() {
            return Err(e);
        }

        // Aggregate deterministically in sub-index order: accept each
        // sub-solution iff it lowers the global energy.
        let mut batch = results.into_inner();
        batch.sort_by_key(|r| r.sub_index);
        let mut improved = false;
        for r in &batch {
            let mut candidate = incumbent.clone();
            for (slot, &var) in r.vars.iter().enumerate() {
                candidate[var] = r.bits[slot];
            }
            let e = qubo.energy(&candidate);
            if e < best_energy {
                best_energy = e;
                incumbent = candidate;
                improved = true;
            }
        }
        // Classical post-processing: polish the incumbent locally. This is
        // cheap relative to circuit execution and never hurts (descent).
        if config.local_refine && improved {
            let refined = local_descent(qubo, &mut incumbent, best_energy);
            best_energy = refined;
        }
        traces.extend(batch.into_iter().map(|r| r.trace));
        energy_per_iteration.push(best_energy);
        iter_span.set_attr("energy", best_energy);
        drop(iter_span);

        stall = if improved { 0 } else { stall + 1 };
        if stall >= config.patience {
            break;
        }
    }

    run_span.set_attr("iterations", iterations);
    run_span.set_attr("energy", best_energy);
    drop(run_span);
    Ok(DqaoaOutcome {
        best_bits: incumbent,
        best_energy,
        iterations,
        energy_per_iteration,
        trace: traces,
        wall_secs: run_sw.elapsed_secs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qaoa::solution_fidelity;
    use crate::trace::max_concurrency;
    use qfw::QfwSession;
    use qfw_optim::{anneal, AnnealConfig};

    fn fast_config(subqsize: usize, nsubq: usize) -> DqaoaConfig {
        DqaoaConfig {
            subqsize,
            nsubq,
            qaoa: QaoaConfig {
                layers: 1,
                shots: 256,
                max_evals: 15,
                ..QaoaConfig::default()
            },
            max_iterations: 6,
            patience: 2,
            ..DqaoaConfig::default()
        }
    }

    #[test]
    fn dqaoa_solves_a_20_variable_qubo_well() {
        let session = QfwSession::launch_local(2).unwrap();
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let qubo = Qubo::metamaterial(20, 3, 7);
        let reference = anneal(20, |x| qubo.energy(x), AnnealConfig::default());
        let out = solve_dqaoa(&backend, &qubo, fast_config(8, 3)).unwrap();
        let fid = solution_fidelity(out.best_energy, reference.energy);
        assert!(
            fid > 0.8,
            "fidelity {fid}: dqaoa {} vs anneal {}",
            out.best_energy,
            reference.energy
        );
        assert!((qubo.energy(&out.best_bits) - out.best_energy).abs() < 1e-12);
    }

    #[test]
    fn energy_is_monotone_nonincreasing_per_iteration() {
        let session = QfwSession::launch_local(2).unwrap();
        let backend = session
            .backend(&[("backend", "aer"), ("subbackend", "statevector")])
            .unwrap();
        let qubo = Qubo::random(16, 0.6, 4);
        let out = solve_dqaoa(&backend, &qubo, fast_config(6, 3)).unwrap();
        for pair in out.energy_per_iteration.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12, "{:?}", out.energy_per_iteration);
        }
    }

    #[test]
    fn subqubo_tasks_run_concurrently_locally() {
        let session = QfwSession::launch_local(2).unwrap();
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let qubo = Qubo::random(24, 0.4, 12);
        let out = solve_dqaoa(&backend, &qubo, fast_config(6, 4)).unwrap();
        assert!(
            max_concurrency(&out.trace) >= 2,
            "no overlap observed in {} tasks",
            out.trace.len()
        );
        // nsubq tasks per iteration.
        let it0: Vec<_> = out.trace.iter().filter(|t| t.iteration == 0).collect();
        assert_eq!(it0.len(), 4);
    }

    #[test]
    fn traced_run_matches_tasktrace_and_records_spans() {
        let session = QfwSession::launch_local(2).unwrap();
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let qubo = Qubo::random(12, 0.5, 3);
        let obs = Obs::wall();
        let out = solve_dqaoa_traced(&backend, &qubo, fast_config(6, 2), &obs).unwrap();
        let spans = obs.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"dqaoa.run"));
        assert!(names.contains(&"dqaoa.iteration"));
        assert!(names.contains(&"dqaoa.sub_solve"));
        // One sub_solve span per TaskTrace, with identical durations.
        let subs: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "dqaoa.sub_solve")
            .collect();
        assert_eq!(subs.len(), out.trace.len());
        for t in &out.trace {
            assert!(t.end_secs >= t.start_secs);
            assert!(t.duration() >= 0.0);
        }
    }

    #[test]
    fn impact_policy_groups_strongly_coupled_variables() {
        let mut qubo = Qubo::zeros(8);
        // Variables 6 and 7 dominate the couplings.
        qubo.set(6, 7, 50.0);
        qubo.set(0, 1, 0.1);
        let mut rng = Rng::seed_from(1);
        let groups = decompose(&qubo, DecompPolicy::ImpactFactor, 4, 2, &mut rng);
        assert!(groups[0].contains(&6));
        assert!(groups[0].contains(&7));
    }

    #[test]
    fn random_policy_changes_between_iterations() {
        let qubo = Qubo::random(12, 0.5, 5);
        let mut rng = Rng::seed_from(2);
        let a = decompose(&qubo, DecompPolicy::Random, 4, 3, &mut rng);
        let b = decompose(&qubo, DecompPolicy::Random, 4, 3, &mut rng);
        assert_ne!(a, b);
        // Partition covers all variables exactly once.
        let mut all: Vec<usize> = a.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn local_descent_reaches_a_local_minimum() {
        let qubo = Qubo::random(12, 0.7, 6);
        let mut x = vec![0u8; 12];
        let e0 = qubo.energy(&x);
        let e = local_descent(&qubo, &mut x, e0);
        assert!(e <= e0);
        // No single flip improves further.
        for i in 0..12 {
            x[i] ^= 1;
            assert!(qubo.energy(&x) >= e - 1e-12, "flip {i} still improves");
            x[i] ^= 1;
        }
        assert!((qubo.energy(&x) - e).abs() < 1e-12);
    }

    #[test]
    fn refinement_never_worsens_the_outcome() {
        let session = QfwSession::launch_local(2).unwrap();
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let qubo = Qubo::random(16, 0.5, 44);
        let mut with = fast_config(6, 3);
        with.local_refine = true;
        let mut without = fast_config(6, 3);
        without.local_refine = false;
        let e_with = solve_dqaoa(&backend, &qubo, with).unwrap().best_energy;
        let e_without = solve_dqaoa(&backend, &qubo, without).unwrap().best_energy;
        assert!(e_with <= e_without + 1e-9, "{e_with} vs {e_without}");
    }

    #[test]
    fn errors_from_sub_solves_propagate() {
        let session = QfwSession::launch_local(1).unwrap();
        let backend = session.backend(&[("backend", "nope")]).unwrap();
        let qubo = Qubo::random(8, 0.5, 1);
        assert!(solve_dqaoa(&backend, &qubo, fast_config(4, 2)).is_err());
    }
}
