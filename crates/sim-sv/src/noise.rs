//! Stochastic Kraus-trajectory noise simulation.
//!
//! The paper's motivation for variational workloads is NISQ noise ("in
//! contrast to their non-variational counterpart, variational algorithms
//! are less prone to adverse effects of today's noisy quantum devices").
//! This module executes circuits under a [`qfw_noise::NoiseModel`]
//! without ever materializing a density matrix. A job builds one plan:
//! the circuit's [`verbatim`](crate::fusion::verbatim) layers with a
//! Kraus site after every gate on each touched qubit that has channels.
//! Each *trajectory* runs that plan on the tile executor; at a site, each
//! of the qubit's channels draws its branch with probability
//! `tr(K_i rho K_i^dag)` from the qubit's reduced density matrix (one
//! read pass), and `K_i / sqrt(p_i)` — the operator and the
//! renormalization in one — is applied as one single-qubit layer (one
//! more pass); a mid-circuit measurement collapses the trajectory's
//! state. Averaged over trajectories this converges to the exact channel
//! (validated against `qfw_noise::reference` in tests). Each trajectory
//! draws its shots through the canonical split scheme, readout error flips
//! each drawn qubit independently per its confusion matrix, and the
//! circuit's [`Readout`](qfw_circuit::Readout) turns the draws into
//! counts like every engine's.
//!
//! **Determinism.** Trajectory `t` owns the RNG `Rng::stream(seed, t)`
//! and a fixed slice of the shot budget, and per-trajectory histograms
//! are merged in trajectory order — so fixed-seed counts are bitwise
//! identical at any worker count. Workers split the trajectory range
//! contiguously via scoped threads.
//!
//! The IonQ-analog cloud backend runs its jobs through this model; local
//! backends opt in through `noise_model`/`noise_*` runtime properties.

use crate::engine::SvSimulator;
use crate::fusion::verbatim_with_sites;
use crate::layers::{apply_local_1q, LayerPlan, Site};
use crate::state::{canonical_split_bits, StateVector};
use qfw_circuit::{Circuit, Counts};
use qfw_noise::Kraus2;
pub use qfw_noise::NoiseModel;
use qfw_num::complex::C64;
use qfw_num::rng::Rng;
use qfw_obs::Obs;
use std::collections::BTreeMap;

/// `tr(K rho K^dag)` for a 2x2 operator and reduced density matrix,
/// both row-major — the Monte-Carlo branch weight.
fn branch_prob(k: &Kraus2, rho: &[C64; 4]) -> f64 {
    let mut t = 0.0;
    for i in 0..2 {
        for j in 0..2 {
            for l in 0..2 {
                t += (k[i * 2 + j] * rho[j * 2 + l] * k[i * 2 + l].conj()).re;
            }
        }
    }
    t
}

/// Runs one trajectory of a noisy plan: one sampled Kraus branch per
/// (site, channel) and the mid-circuit measurements collapsed. Returns the
/// final state and the collapsed classical bits; `kraus_apps` counts
/// non-trivial branch applications.
fn run_one_trajectory(
    plan: &LayerPlan,
    model: &NoiseModel,
    rng: &mut Rng,
    kraus_apps: &mut u64,
) -> (StateVector, BTreeMap<usize, u8>) {
    let mut collapsed = BTreeMap::new();
    let mut weights: Vec<f64> = Vec::with_capacity(8);
    let sv = plan.run_from_zero(false, |sv, site| match site {
        Site::Collapse { qubit, clbit } => {
            collapsed.insert(clbit, sv.measure(qubit, rng, false));
        }
        Site::Kraus { qubit, arity } => {
            for ch in model.channels(arity, qubit) {
                let rho = sv.reduced_density_1q(qubit);
                weights.clear();
                weights.extend(ch.kraus().iter().map(|k| branch_prob(k, &rho).max(0.0)));
                let total: f64 = weights.iter().sum();
                if total <= 0.0 {
                    // Degenerate (zero-norm) state slice: nothing to sample.
                    continue;
                }
                let idx = rng.weighted(&weights);
                let renorm = 1.0 / (weights[idx] / total).sqrt();
                apply_local_1q(sv, qubit, ch.kraus()[idx].map(|k| k.scale(renorm)));
                *kraus_apps += 1;
            }
        }
    });
    (sv, collapsed)
}

/// Draws a trajectory's shot share through the canonical split scheme, on
/// a seed taken from the trajectory's stream, then flips each drawn
/// qubit's bit per its readout confusion.
fn sample_with_readout(
    sv: &StateVector,
    my_shots: usize,
    model: &NoiseModel,
    rng: &mut Rng,
) -> Vec<u64> {
    let n = sv.num_qubits();
    let mut draws = sv.sample_split(my_shots, rng.next_u64(), canonical_split_bits(n, 0));
    let errors: Vec<_> = (0..n)
        .filter_map(|q| Some((q, model.readout(q)?)))
        .collect();
    for draw in &mut draws {
        for &(q, ro) in &errors {
            if rng.chance(ro.flip_prob((*draw >> q & 1) as u8)) {
                *draw ^= 1 << q;
            }
        }
    }
    draws
}

/// Runs a circuit under `model`, splitting `shots` across (at most
/// `shots`) stochastic Kraus `trajectories`, executed on `workers`
/// scoped threads. Each trajectory collapses the circuit's mid-circuit
/// measurements and samples its terminal ones, read like the ideal
/// engines' ([`Readout`](qfw_circuit::Readout)); an empty model is the ideal engine.
///
/// Fixed-seed counts are **bitwise identical for every `workers`
/// value**: trajectory `t` always uses `Rng::stream(seed, t)` and a
/// fixed shot share, and histograms merge in trajectory order.
pub fn sample_trajectories(
    circuit: &Circuit,
    shots: usize,
    seed: u64,
    model: &NoiseModel,
    trajectories: usize,
    workers: usize,
    obs: &Obs,
) -> Counts {
    if model.is_empty() {
        return SvSimulator::default()
            .run_traced(circuit, shots, seed, &Obs::disabled())
            .counts;
    }
    let plan = verbatim_with_sites(circuit, |arity, q| !model.channels(arity, q).is_empty());
    let span = obs
        .span("engine", "noise.run")
        .attr("shots", shots)
        .attr("workers", workers);
    let trajectories = trajectories.clamp(1, shots.max(1));
    let workers = workers.clamp(1, trajectories);
    // Spread the shots as evenly as possible; trajectory t's share is a
    // pure function of (shots, trajectories, t).
    let base = shots / trajectories;
    let extra = shots % trajectories;

    // One result slot per trajectory, handed out to workers in
    // contiguous chunks so merge order never depends on thread timing.
    let mut slots: Vec<Option<(Counts, u64)>> = vec![None; trajectories];
    let chunk = trajectories.div_ceil(workers);
    let plan = &plan;
    std::thread::scope(|scope| {
        for (w, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
            let first = w * chunk;
            scope.spawn(move || {
                for (off, slot) in slot_chunk.iter_mut().enumerate() {
                    let t = first + off;
                    let my_shots = base + usize::from(t < extra);
                    if my_shots == 0 {
                        continue;
                    }
                    let mut rng = Rng::stream(seed, t as u64);
                    let mut kraus_apps = 0u64;
                    let (sv, collapsed) =
                        run_one_trajectory(plan, model, &mut rng, &mut kraus_apps);
                    let draws = sample_with_readout(&sv, my_shots, model, &mut rng);
                    *slot = Some((plan.readout().counts(draws, &collapsed), kraus_apps));
                }
            });
        }
    });

    let (mut total_kraus, mut ran) = (0u64, 0u64);
    let counts = slots
        .into_iter()
        .flatten()
        .map(|(traj_counts, kraus_apps)| {
            total_kraus += kraus_apps;
            ran += 1;
            traj_counts
        })
        .sum();
    obs.counter("noise.trajectories").add(ran);
    obs.counter("noise.kraus_applications").add(total_kraus);
    drop(span.attr("trajectories", ran));
    counts
}

/// [`sample_trajectories`] with the counts rendered as bit strings.
pub fn run_trajectories(
    circuit: &Circuit,
    shots: usize,
    seed: u64,
    model: &NoiseModel,
    trajectories: usize,
    workers: usize,
    obs: &Obs,
) -> BTreeMap<String, usize> {
    sample_trajectories(circuit, shots, seed, model, trajectories, workers, obs).bitstrings()
}

/// Serial [`sample_trajectories`] (one worker, no observability) — the
/// signature the cloud uses.
pub fn run_noisy(
    circuit: &Circuit,
    shots: usize,
    seed: u64,
    model: &NoiseModel,
    max_trajectories: usize,
) -> Counts {
    sample_trajectories(
        circuit,
        shots,
        seed,
        model,
        max_trajectories,
        1,
        &Obs::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_noise::{Channel, ReadoutError};

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    fn depol_2q(p2: f64) -> NoiseModel {
        let mut m = NoiseModel::empty();
        m.add_2q_all(Channel::depolarizing(p2));
        m
    }

    /// Fraction of shots that land outside the ideal GHZ outcomes.
    fn leakage(counts: &Counts, n: usize) -> f64 {
        let shots: usize = counts.values().sum();
        let ideal = ["0".repeat(n), "1".repeat(n)];
        let good: usize = ideal.iter().filter_map(|k| counts.get(k)).sum();
        1.0 - good as f64 / shots as f64
    }

    #[test]
    fn ideal_model_matches_plain_sampling() {
        let counts = run_noisy(&ghz(5), 500, 7, &NoiseModel::empty(), 64);
        assert_eq!(counts.values().sum::<usize>(), 500);
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn depolarizing_noise_leaks_out_of_the_ghz_subspace() {
        let counts = run_noisy(&ghz(6), 3000, 11, &depol_2q(0.05), 64);
        let l = leakage(&counts, 6);
        assert!(l > 0.05, "leakage {l} too small for 5% 2q error");
        assert!(l < 0.8, "leakage {l} implausibly large");
    }

    #[test]
    fn noise_grows_with_error_rate() {
        let run = |p2: f64| leakage(&run_noisy(&ghz(6), 3000, 5, &depol_2q(p2), 64), 6);
        let low = run(0.01);
        let high = run(0.10);
        assert!(high > low, "leakage did not grow: {low} vs {high}");
    }

    #[test]
    fn readout_error_rate_is_calibrated() {
        // A deterministic |0...0> circuit: every '1' seen is a readout flip.
        let mut qc = Circuit::new(4);
        qc.x(0).x(0); // identity, but keeps the circuit non-empty
        qc.measure_all();
        let mut model = NoiseModel::empty();
        model.set_readout_all(ReadoutError::symmetric(0.02));
        let counts = run_noisy(&qc, 20_000, 3, &model, 8);
        let flips: usize = counts
            .iter()
            .map(|(bits, c)| bits.chars().filter(|&b| b == '1').count() * c)
            .sum();
        let rate = flips as f64 / (20_000.0 * 4.0);
        assert!((rate - 0.02).abs() < 0.005, "readout rate {rate}");
    }

    #[test]
    fn asymmetric_readout_respects_bit_convention() {
        // |01> (qubit 0 = 1): qubit 0's p10 flips the rightmost char.
        let mut qc = Circuit::new(2);
        qc.x(0);
        qc.measure_all();
        let mut model = NoiseModel::empty();
        model.set_readout(0, ReadoutError::new(0.0, 0.5));
        let counts = run_noisy(&qc, 8_000, 17, &model, 4);
        let flipped = *counts.get("00").unwrap_or(&0) as f64 / 8_000.0;
        assert!((flipped - 0.5).abs() < 0.05, "p10 rate {flipped}");
        assert_eq!(counts.get("10"), None, "qubit 1 has no readout error");
    }

    #[test]
    fn deterministic_per_seed() {
        let model = NoiseModel::flat(0.0005, 0.01, 0.004);
        let a = run_noisy(&ghz(5), 400, 9, &model, 16);
        let b = run_noisy(&ghz(5), 400, 9, &model, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_never_changes_counts() {
        let model = NoiseModel::flat(0.001, 0.02, 0.01);
        let obs = Obs::disabled();
        let serial = run_trajectories(&ghz(6), 2000, 42, &model, 64, 1, &obs);
        for workers in [2, 4, 8, 64, 200] {
            let par = run_trajectories(&ghz(6), 2000, 42, &model, 64, workers, &obs);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn shots_conserved_across_trajectories() {
        let model = NoiseModel::flat(0.0005, 0.01, 0.004);
        for shots in [1usize, 7, 63, 64, 65, 1000] {
            let counts = run_noisy(&ghz(4), shots, 1, &model, 64);
            assert_eq!(counts.values().sum::<usize>(), shots, "shots={shots}");
        }
    }

    #[test]
    fn amplitude_damping_decays_excited_population() {
        let mut qc = Circuit::new(1);
        qc.x(0);
        qc.measure_all();
        let mut model = NoiseModel::empty();
        model.add_1q_all(Channel::amplitude_damping(0.25));
        // One shot per trajectory: the trajectory outcome itself is the
        // Bernoulli sample, so 20k trajectories pin the rate to ~0.3%.
        let counts = run_trajectories(&qc, 20_000, 5, &model, 20_000, 8, &Obs::disabled());
        let p1 = *counts.get("1").unwrap_or(&0) as f64 / 20_000.0;
        assert!((p1 - 0.75).abs() < 0.02, "P(1) = {p1}, want ~0.75");
    }

    #[test]
    fn trajectory_counters_are_reported() {
        let obs = Obs::wall();
        run_trajectories(&ghz(3), 100, 1, &depol_2q(0.05), 10, 2, &obs);
        let spans = obs.spans();
        assert!(spans.iter().any(|s| s.name == "noise.run"));
    }
}
