//! Error mitigation: tensored readout correction and zero-noise
//! extrapolation.
//!
//! NISQ results come back through a noisy readout channel (the cloud
//! provider and a `noise_model` readout error both model it). The standard
//! counter-measure is calibration: estimate each qubit's assignment matrix
//! `M_q = [[1-e01, e10], [e01, 1-e10]]` from two calibration circuits
//! (all-zeros and all-ones preparations), then apply the tensored inverse
//! `⊗ M_q^{-1}` to measured histograms, clipping and renormalizing the
//! (possibly slightly negative) quasi-probabilities.
//!
//! Zero-noise extrapolation ([`zne_expectation`]) attacks *gate* noise
//! instead: the same circuit is executed under the device noise model
//! amplified by factors λ = 1, 2, 3 (`NoiseModel::scaled` folds every
//! channel probability and readout rate), and the observable is
//! Richardson-extrapolated back to λ = 0. Noise folding happens in the
//! backend spec (`noise_model` extra), so ZNE composes with any QFw
//! engine that honours the canonical noise-model wire format.
//!
//! Both techniques operate purely on histograms/spec properties, so they
//! compose with *any* QFw backend — mitigated DQAOA on the cloud path
//! needs one extra line.

use qfw::{QfwBackend, QfwError};
use qfw_circuit::counts::{bitstring, key_bit};
use qfw_circuit::{Circuit, Counts, ParamCircuit};
use qfw_noise::NoiseModel;
use std::collections::BTreeMap;

/// Per-qubit assignment-error calibration.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadoutCalibration {
    /// `e01[q]`: P(read 1 | prepared 0) for qubit `q`.
    pub e01: Vec<f64>,
    /// `e10[q]`: P(read 0 | prepared 1) for qubit `q`.
    pub e10: Vec<f64>,
}

impl ReadoutCalibration {
    /// Runs the two tensored calibration circuits (|0...0> and |1...1>)
    /// through the backend and estimates the per-qubit error rates.
    pub fn measure(
        backend: &QfwBackend,
        num_qubits: usize,
        shots: usize,
    ) -> Result<ReadoutCalibration, QfwError> {
        // Prepared |0...0>.
        let mut zeros = Circuit::new(num_qubits).named("cal_zeros");
        // An X-X pair keeps the circuit non-empty without changing the state
        // (some engines special-case empty circuits).
        zeros.x(0).x(0);
        zeros.measure_all();
        let r0 = backend.execute_sync(&zeros, shots)?;

        // Prepared |1...1>.
        let mut ones = Circuit::new(num_qubits).named("cal_ones");
        for q in 0..num_qubits {
            ones.x(q);
        }
        ones.measure_all();
        let r1 = backend.execute_sync(&ones, shots)?;

        let rate = |counts: &Counts, q: usize, flipped_to: bool| -> f64 {
            let total: usize = counts.values().sum();
            let hits: usize = counts
                .outcomes()
                .filter(|(key, _)| key_bit(key, q) == flipped_to)
                .map(|(_, c)| c)
                .sum();
            hits as f64 / total as f64
        };
        Ok(ReadoutCalibration {
            e01: (0..num_qubits).map(|q| rate(&r0.counts, q, true)).collect(),
            e10: (0..num_qubits)
                .map(|q| rate(&r1.counts, q, false))
                .collect(),
        })
    }

    /// Number of calibrated qubits.
    pub fn num_qubits(&self) -> usize {
        self.e01.len()
    }

    /// Applies the tensored inverse to a histogram, returning corrected
    /// counts (clipped at zero, renormalized to the original shot total).
    ///
    /// Works key-by-key: each observed bitstring's weight is redistributed
    /// through the inverse of every qubit's 2x2 assignment matrix. To stay
    /// sparse, corrections are expanded only over qubits with nonzero error
    /// (exact for the tensored model).
    pub fn correct(&self, counts: &Counts) -> BTreeMap<String, f64> {
        let n = self.num_qubits();
        let shots: usize = counts.values().sum();
        // Per-qubit inverse M^{-1} entries: minv[q] = [[a, b], [c, d]] with
        // M = [[1-e01, e10], [e01, 1-e10]].
        let minv: Vec<[f64; 4]> = (0..n)
            .map(|q| {
                let (e01, e10) = (self.e01[q], self.e10[q]);
                let det = (1.0 - e01) * (1.0 - e10) - e01 * e10;
                assert!(
                    det.abs() > 1e-9,
                    "assignment matrix of qubit {q} is singular"
                );
                [
                    (1.0 - e10) / det,
                    -e10 / det,
                    -e01 / det,
                    (1.0 - e01) / det,
                ]
            })
            .collect();

        // Quasi-probabilities, sparse expansion.
        let mut quasi: BTreeMap<Vec<u64>, f64> = BTreeMap::new();
        for (key, c) in counts.outcomes() {
            let mut partial: Vec<(Vec<u64>, f64)> = vec![(key.to_vec(), c as f64)];
            for (q, inv) in minv.iter().enumerate().take(n) {
                if self.e01[q] == 0.0 && self.e10[q] == 0.0 {
                    continue;
                }
                let (word, bit) = (key.len() - 1 - q / 64, q % 64); // qubit q
                let mut next = Vec::with_capacity(partial.len() * 2);
                for (key, w) in partial {
                    let observed = (key[word] >> bit & 1) as usize;
                    // corrected[prepared] += inv[prepared][observed] * w
                    for prepared in 0..2usize {
                        let factor = inv[prepared * 2 + observed];
                        if factor == 0.0 {
                            continue;
                        }
                        let mut k = key.clone();
                        k[word] = k[word] & !(1 << bit) | (prepared as u64) << bit;
                        next.push((k, w * factor));
                    }
                }
                // Merge duplicates to keep the expansion bounded.
                next.sort_by(|a, b| a.0.cmp(&b.0));
                let mut merged: Vec<(Vec<u64>, f64)> = Vec::with_capacity(next.len());
                for (k, w) in next {
                    match merged.last_mut() {
                        Some((lk, lw)) if *lk == k => *lw += w,
                        _ => merged.push((k, w)),
                    }
                }
                partial = merged;
            }
            for (k, w) in partial {
                *quasi.entry(k).or_insert(0.0) += w;
            }
        }

        // Clip negatives and renormalize to the shot total.
        let mut total = 0.0;
        for w in quasi.values_mut() {
            if *w < 0.0 {
                *w = 0.0;
            }
            total += *w;
        }
        if total > 0.0 {
            let scale = shots as f64 / total;
            for w in quasi.values_mut() {
                *w *= scale;
            }
        }
        quasi
            .into_iter()
            .filter(|&(_, w)| w > 1e-9)
            .map(|(key, w)| (bitstring(&key, counts.width()), w))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Zero-noise extrapolation
// ---------------------------------------------------------------------

/// Zero-noise-extrapolation configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ZneConfig {
    /// Noise-amplification factors, each producing one evaluation of the
    /// observable under `model.scaled(λ)`. Must be distinct and nonzero;
    /// the canonical ladder is `[1, 2, 3]`.
    pub scales: Vec<f64>,
    /// Stochastic-trajectory budget per evaluation (`noise_trajectories`
    /// spec extra).
    pub trajectories: usize,
}

impl Default for ZneConfig {
    fn default() -> Self {
        ZneConfig {
            scales: vec![1.0, 2.0, 3.0],
            trajectories: 256,
        }
    }
}

/// One ZNE estimate with its raw extrapolation points.
#[derive(Clone, Debug)]
pub struct ZneOutcome {
    /// The Richardson estimate of the observable at zero noise.
    pub mitigated: f64,
    /// `(scale, observable)` pairs, in the order of [`ZneConfig::scales`].
    /// `points[0]` is the unmitigated (λ = 1) value when the canonical
    /// ladder is used.
    pub points: Vec<(f64, f64)>,
}

/// Richardson extrapolation of `(x_i, y_i)` samples to `x = 0`: the
/// value at zero of the unique degree-`n-1` polynomial through all `n`
/// points, via Lagrange weights `y_i · Π_{j≠i} x_j / (x_j − x_i)`.
///
/// With the ladder `x = [1, 2, 3]` this cancels the first- and
/// second-order noise bias, leaving O(λ³).
///
/// # Panics
/// On fewer than two points or duplicate abscissae.
pub fn richardson_extrapolate(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "extrapolation needs at least two points");
    let mut estimate = 0.0;
    for (i, &(xi, yi)) in points.iter().enumerate() {
        let mut weight = 1.0;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            let gap = xj - xi;
            assert!(gap.abs() > 1e-12, "duplicate noise scale {xi}");
            weight *= xj / gap;
        }
        estimate += yi * weight;
    }
    estimate
}

/// Mean single-qubit ⟨Z⟩ of a histogram: `(1/n) Σ_q (P(q=0) − P(q=1))`,
/// the default ZNE observable when no problem Hamiltonian is at hand.
pub fn counts_mean_z(counts: &Counts) -> f64 {
    let total: usize = counts.values().sum();
    assert!(total > 0, "empty counts");
    let n = counts.width();
    let mut acc = 0.0;
    for (key, c) in counts.outcomes() {
        let ones: u32 = key.iter().map(|word| word.count_ones()).sum();
        acc += c as f64 * (n as f64 - 2.0 * ones as f64) / n as f64;
    }
    acc / total as f64
}

/// Zero-noise extrapolation of an arbitrary histogram observable for a
/// bound evaluation of a parameterized circuit.
///
/// For each scale λ the circuit runs on a clone of `backend` whose spec
/// carries `noise_model = model.scaled(λ)` (and the configured
/// trajectory budget); `observable` maps each histogram to a scalar and
/// the ladder is Richardson-extrapolated to λ = 0. The base spec's own
/// noise extras are overridden, never composed.
pub fn zne_expectation<F>(
    backend: &QfwBackend,
    model: &NoiseModel,
    template: &ParamCircuit,
    params: &[f64],
    shots: usize,
    config: &ZneConfig,
    observable: F,
) -> Result<ZneOutcome, QfwError>
where
    F: Fn(&Counts) -> f64,
{
    if config.scales.len() < 2 {
        return Err(QfwError::BadProperties(
            "ZNE needs at least two noise scales".into(),
        ));
    }
    let mut points = Vec::with_capacity(config.scales.len());
    for &scale in &config.scales {
        let spec = backend
            .spec()
            .clone()
            .with_extra("noise_model", model.scaled(scale).to_text())
            .with_extra("noise_trajectories", config.trajectories);
        let result = backend
            .with_spec(spec)
            .execute_param_sync(template, params, shots)?;
        points.push((scale, observable(&result.counts)));
    }
    Ok(ZneOutcome {
        mitigated: richardson_extrapolate(&points),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw::{QfwConfig, QfwSession};
    use qfw_hpc::ClusterSpec;
    use qfw_workloads::ghz;

    fn noisy_backend(session: &QfwSession, readout: f64) -> QfwBackend {
        let mut model = qfw_noise::NoiseModel::empty();
        model.set_readout_all(qfw_noise::ReadoutError::symmetric(readout));
        session
            .backend(&[
                ("backend", "nwqsim"),
                ("subbackend", "cpu"),
                ("noise_model", &model.to_text()),
            ])
            .unwrap()
    }

    fn session() -> QfwSession {
        QfwSession::launch(
            &ClusterSpec::test(2),
            QfwConfig {
                qfw_nodes: 1,
                ..QfwConfig::default()
            },
        )
        .unwrap()
    }

    /// Probability mass on the ideal GHZ outcomes.
    fn ghz_mass(counts: &BTreeMap<String, f64>, n: usize) -> f64 {
        let total: f64 = counts.values().sum();
        let good: f64 = [&"0".repeat(n), &"1".repeat(n)]
            .iter()
            .filter_map(|k| counts.get(*k))
            .sum();
        good / total
    }

    #[test]
    fn calibration_estimates_injected_rates() {
        let session = session();
        let backend = noisy_backend(&session, 0.04);
        let cal = ReadoutCalibration::measure(&backend, 4, 30_000).unwrap();
        for q in 0..4 {
            assert!(
                (cal.e01[q] - 0.04).abs() < 0.01,
                "e01[{q}] = {}",
                cal.e01[q]
            );
            assert!(
                (cal.e10[q] - 0.04).abs() < 0.01,
                "e10[{q}] = {}",
                cal.e10[q]
            );
        }
    }

    #[test]
    fn correction_recovers_ghz_fidelity() {
        let session = session();
        let n = 5;
        let backend = noisy_backend(&session, 0.05);
        let cal = ReadoutCalibration::measure(&backend, n, 40_000).unwrap();
        let noisy = backend.execute_sync(&ghz(n), 40_000).unwrap();
        let raw: BTreeMap<String, f64> = noisy.counts.iter().map(|(k, &v)| (k, v as f64)).collect();
        let corrected = cal.correct(&noisy.counts);
        let before = ghz_mass(&raw, n);
        let after = ghz_mass(&corrected, n);
        assert!(
            after > before + 0.05,
            "mitigation did not help: {before} -> {after}"
        );
        assert!(after > 0.93, "corrected mass {after}");
    }

    #[test]
    fn identity_calibration_is_a_noop() {
        let cal = ReadoutCalibration {
            e01: vec![0.0; 3],
            e10: vec![0.0; 3],
        };
        let mut counts = Counts::default();
        counts.insert("011".to_string(), 70usize);
        counts.insert("100".to_string(), 30usize);
        let corrected = cal.correct(&counts);
        assert_eq!(corrected.len(), 2);
        assert!((corrected["011"] - 70.0).abs() < 1e-9);
        assert!((corrected["100"] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn correction_preserves_shot_total() {
        let cal = ReadoutCalibration {
            e01: vec![0.03, 0.05],
            e10: vec![0.02, 0.04],
        };
        let mut counts = Counts::default();
        counts.insert("00".to_string(), 480usize);
        counts.insert("11".to_string(), 470);
        counts.insert("01".to_string(), 30);
        counts.insert("10".to_string(), 20);
        let corrected = cal.correct(&counts);
        let total: f64 = corrected.values().sum();
        assert!((total - 1000.0).abs() < 1e-6, "total {total}");
        // Error keys should shrink, ideal keys grow.
        assert!(corrected["00"] > 480.0);
        assert!(corrected.get("01").copied().unwrap_or(0.0) < 30.0);
    }

    #[test]
    fn richardson_is_exact_on_low_order_polynomials() {
        // Three points pin a quadratic exactly: y = 3 - 2x + 0.5x².
        let f = |x: f64| 3.0 - 2.0 * x + 0.5 * x * x;
        let points: Vec<(f64, f64)> = [1.0, 2.0, 3.0].iter().map(|&x| (x, f(x))).collect();
        assert!((richardson_extrapolate(&points) - 3.0).abs() < 1e-12);
        // Two points pin a line.
        let g = |x: f64| -1.5 + 0.25 * x;
        let linear: Vec<(f64, f64)> = [1.0, 3.0].iter().map(|&x| (x, g(x))).collect();
        assert!((richardson_extrapolate(&linear) + 1.5).abs() < 1e-12);
    }

    #[test]
    fn mean_z_observable_matches_hand_count() {
        let mut counts = Counts::default();
        counts.insert("00".to_string(), 3usize); // <Z> = +1
        counts.insert("11".to_string(), 1); // <Z> = -1
        counts.insert("01".to_string(), 4); // <Z> = 0
        assert!((counts_mean_z(&counts) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zne_converges_toward_ideal_qaoa_energy() {
        use qfw_workloads::qaoa::{counts_energy, qaoa_ansatz, qubo_z_terms};
        use qfw_workloads::Qubo;

        let session = session();
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap()
            .with_base_seed(0x2E2E);
        let qubo = Qubo::random(4, 1.0, 7);
        let ansatz = qaoa_ansatz(&qubo, 1);
        let theta = [0.8, 0.4];

        // Exact ideal energy from the analytic sweep plan — no shot noise
        // in the reference.
        let plan = qfw_sim_sv::SvSimulator::plain().compile_sweep(&ansatz).unwrap();
        let (offset, terms) = qubo_z_terms(&qubo);
        let ideal = offset + plan.expectation_z(&theta, &terms);

        // A meaningfully noisy device: depolarizing on both gate classes
        // plus symmetric readout error.
        let mut model = NoiseModel::empty();
        model.add_1q_all(qfw_noise::Channel::depolarizing(0.01));
        model.add_2q_all(qfw_noise::Channel::depolarizing(0.04));
        model.set_readout_all(qfw_noise::ReadoutError::symmetric(0.02));

        let config = ZneConfig {
            trajectories: 512,
            ..ZneConfig::default()
        };
        let shots = 20_000;
        let out = zne_expectation(&backend, &model, &ansatz, &theta, shots, &config, |c| {
            counts_energy(&qubo, c)
        })
        .unwrap();
        assert_eq!(out.points.len(), 3);
        let noisy = out.points[0].1;
        let (zne_err, raw_err) = ((out.mitigated - ideal).abs(), (noisy - ideal).abs());
        // The noise must be visible, and extrapolation must recover a
        // strictly better estimate than the unmitigated λ=1 run.
        assert!(raw_err > 0.02, "noise had no measurable bias: {raw_err}");
        assert!(
            zne_err < raw_err,
            "ZNE did not converge: |{} - {ideal}| vs |{noisy} - {ideal}|",
            out.mitigated
        );
    }

    #[test]
    fn zne_rejects_degenerate_ladders() {
        let session = session();
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let qubo = qfw_workloads::Qubo::random(3, 1.0, 1);
        let ansatz = qfw_workloads::qaoa::qaoa_ansatz(&qubo, 1);
        let config = ZneConfig {
            scales: vec![1.0],
            ..ZneConfig::default()
        };
        let err = zne_expectation(
            &backend,
            &NoiseModel::empty(),
            &ansatz,
            &[0.1, 0.2],
            100,
            &config,
            counts_mean_z,
        )
        .unwrap_err();
        assert!(err.to_string().contains("two noise scales"));
    }

    #[test]
    fn asymmetric_rates_handled() {
        let cal = ReadoutCalibration {
            e01: vec![0.10],
            e10: vec![0.0],
        };
        // Prepared |0> read as 1 10% of the time: observed 900/100.
        let mut counts = Counts::default();
        counts.insert("0".to_string(), 900usize);
        counts.insert("1".to_string(), 100);
        let corrected = cal.correct(&counts);
        // The inverse should reassign essentially everything to "0".
        assert!(corrected["0"] > 995.0, "{corrected:?}");
    }
}
