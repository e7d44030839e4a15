//! The QAOA ansatz over a QUBO, as a parameterized circuit template.
//!
//! `p` layers of cost/mixer pairs over the Ising form of the QUBO:
//! parameter `2k` is layer `k`'s gamma, `2k+1` its beta. The cost layer's
//! rotation angles carry the QUBO coefficients through
//! [`Angle::Sym`]'s affine form, so every optimizer iteration is a cheap
//! re-bind rather than a rebuild.

use crate::qubo::Qubo;
use qfw_circuit::{Angle, Counts, ParamCircuit};

/// Builds the depth-`p` QAOA ansatz for a QUBO.
///
/// Parameter layout: `theta = [gamma_0, beta_0, gamma_1, beta_1, ...]`,
/// `2p` parameters total.
pub fn qaoa_ansatz(qubo: &Qubo, p: usize) -> ParamCircuit {
    assert!(p >= 1, "QAOA needs at least one layer");
    let n = qubo.num_vars();
    let (h, j_terms, _offset) = qubo.to_ising();
    let mut t = ParamCircuit::new(n);
    t.name = format!("qaoa_n{n}_p{p}");

    // Initial |+...+>.
    for q in 0..n {
        t.h(q);
    }
    for layer in 0..p {
        let gamma = 2 * layer;
        let beta = 2 * layer + 1;
        // Cost unitary e^{-i gamma C}: Rz(2 gamma h_i) and Rzz(2 gamma J_ij).
        for (i, &hi) in h.iter().enumerate() {
            if hi != 0.0 {
                t.rz(i, Angle::scaled(gamma, 2.0 * hi));
            }
        }
        for &(i, j, jij) in &j_terms {
            t.rzz(i, j, Angle::scaled(gamma, 2.0 * jij));
        }
        // Mixer e^{-i beta sum X}: Rx(2 beta).
        for q in 0..n {
            t.rx(q, Angle::scaled(beta, 2.0));
        }
    }
    t.measure_all();
    t
}

/// The QUBO energy as a diagonal Z observable: a constant offset plus
/// `(mask, weight)` terms, where each mask selects the qubits of one
/// `Z`-product. This is the input shape `SweepPlan`'s
/// `expectation_z`/`grad_expectation_z` consume, so
/// `offset + expectation_z(theta, &terms)` is the exact mean energy of the
/// ansatz state.
pub fn qubo_z_terms(qubo: &Qubo) -> (f64, Vec<(usize, f64)>) {
    let (h, j_terms, offset) = qubo.to_ising();
    let mut terms = Vec::with_capacity(h.len() + j_terms.len());
    for (i, &hi) in h.iter().enumerate() {
        if hi != 0.0 {
            terms.push((1usize << i, hi));
        }
    }
    for &(i, j, jij) in &j_terms {
        terms.push(((1usize << i) | (1usize << j), jij));
    }
    (offset, terms)
}

/// Each outcome's assignment, bit-packed (classical bit `i` is variable
/// `i`), with its shots, in key order.
fn assignments<'a>(qubo: &Qubo, counts: &'a Counts) -> impl Iterator<Item = (usize, usize)> + 'a {
    let n = qubo.num_vars();
    assert!(
        counts.is_empty() || counts.width() == n,
        "assignment length mismatch"
    );
    assert!(n <= usize::BITS as usize, "a {n}-bit key exceeds a word");
    counts
        .outcomes()
        .map(|(key, shots)| (key[0] as usize, shots))
}

/// Mean QUBO energy of a counts histogram.
pub fn counts_energy(qubo: &Qubo, counts: &Counts) -> f64 {
    let total: usize = counts.values().sum();
    assert!(total > 0, "empty counts");
    let mut acc = 0.0;
    for (bits, shots) in assignments(qubo, counts) {
        acc += qubo.energy_bits(bits) * shots as f64;
    }
    acc / total as f64
}

/// Best (lowest-energy) sampled assignment in a counts histogram.
/// Returns (bits LSB-first, energy).
pub fn counts_best(qubo: &Qubo, counts: &Counts) -> (Vec<u8>, f64) {
    let mut best: Option<(usize, f64)> = None;
    for (bits, _) in assignments(qubo, counts) {
        let e = qubo.energy_bits(bits);
        if best.is_none_or(|(_, be)| e < be) {
            best = Some((bits, e));
        }
    }
    let (bits, e) = best.expect("empty counts");
    (
        (0..qubo.num_vars())
            .map(|i| ((bits >> i) & 1) as u8)
            .collect(),
        e,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_sim_sv::SvSimulator;
    use std::collections::BTreeMap;

    #[test]
    fn ansatz_shape() {
        let q = Qubo::random(5, 1.0, 11);
        let t = qaoa_ansatz(&q, 3);
        assert_eq!(t.num_qubits(), 5);
        assert_eq!(t.num_params(), 6);
        let qc = t.bind(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        // 5 H + per layer (5 rz + 10 rzz + 5 rx) = 5 + 3*20 = 65 gates.
        assert_eq!(qc.num_gates(), 65);
        assert!(qc.measures_all());
    }

    #[test]
    fn zero_angles_give_uniform_superposition() {
        let q = Qubo::random(4, 1.0, 3);
        let t = qaoa_ansatz(&q, 1);
        let qc = t.bind(&[0.0, 0.0]);
        let sv = SvSimulator::plain().statevector(&qc);
        let want = 1.0 / 4.0; // |amp|^2 of uniform over 16 states
        for a in sv.amps() {
            assert!((a.norm_sqr() - want / 4.0).abs() < 1e-10);
        }
    }

    #[test]
    fn cost_layer_phases_match_energies() {
        // At beta=0 the QAOA state has per-basis phase e^{-i gamma (E - const)}:
        // probabilities stay uniform.
        let q = Qubo::random(3, 1.0, 9);
        let t = qaoa_ansatz(&q, 1);
        let qc = t.bind(&[0.7, 0.0]);
        let sv = SvSimulator::plain().statevector(&qc);
        for a in sv.amps() {
            assert!((a.norm_sqr() - 1.0 / 8.0).abs() < 1e-10);
        }
        // And the relative phase between two basis states equals the energy
        // difference times gamma.
        let amps = sv.amps();
        let phase01 = (amps[1] / amps[0]).arg();
        let de = q.energy_bits(1) - q.energy_bits(0);
        let want = (-0.7 * de).rem_euclid(std::f64::consts::TAU);
        let got = phase01.rem_euclid(std::f64::consts::TAU);
        assert!(
            (want - got).abs() < 1e-9 || (want - got).abs() > std::f64::consts::TAU - 1e-9,
            "phase {got} vs {want}"
        );
    }

    #[test]
    fn qubo_z_terms_reproduce_basis_energies() {
        let q = Qubo::random(6, 0.8, 5);
        let (offset, terms) = qubo_z_terms(&q);
        for bits in 0..(1usize << 6) {
            let e: f64 = offset
                + terms
                    .iter()
                    .map(|&(mask, w)| {
                        if (bits & mask).count_ones() % 2 == 1 {
                            -w
                        } else {
                            w
                        }
                    })
                    .sum::<f64>();
            assert!(
                (e - q.energy_bits(bits)).abs() < 1e-10,
                "bits {bits}: z-terms {e} vs qubo {}",
                q.energy_bits(bits)
            );
        }
    }

    #[test]
    fn counts_energy_weighted_mean() {
        let mut q = Qubo::zeros(2);
        q.set(0, 0, 1.0);
        q.set(1, 1, 2.0);
        let mut counts = Counts::default();
        counts.insert("00".to_string(), 50usize); // E=0
        counts.insert("01".to_string(), 25); // x0=1 -> E=1
        counts.insert("10".to_string(), 25); // x1=1 -> E=2
        let e = counts_energy(&q, &counts);
        assert!((e - 0.75).abs() < 1e-12);
    }

    #[test]
    fn counts_best_finds_minimum_sample() {
        let mut q = Qubo::zeros(2);
        q.set(0, 0, -1.0);
        let mut counts = Counts::default();
        counts.insert("00".to_string(), 10usize);
        counts.insert("01".to_string(), 1); // x0=1: E=-1, rare but best
        let (x, e) = counts_best(&q, &counts);
        assert_eq!(x, vec![1, 0]);
        assert_eq!(e, -1.0);
    }

    /// Index-folded energies sum exactly as the per-key `Vec<u8>` parse +
    /// `Qubo::energy` did, so an optimizer's path cannot move.
    #[test]
    fn counts_energies_are_the_parsed_keys_energies_bitwise() {
        let mut rng = qfw_num::Rng::seed_from(29);
        for n in [1, 6, 12, 17] {
            let q = Qubo::random(n, 0.7, rng.next_u64());
            let mut counts = BTreeMap::new();
            for _ in 0..300 {
                let bits = rng.next_u64() as usize & ((1 << n) - 1);
                let key: String = (0..n)
                    .rev()
                    .map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })
                    .collect();
                *counts.entry(key).or_insert(0usize) += 1 + rng.index(5);
            }
            let parsed = |key: &String| -> Vec<u8> {
                key.bytes().rev().map(|b| u8::from(b == b'1')).collect()
            };
            let total: usize = counts.values().sum();
            let mut acc = 0.0;
            let mut best: Option<(Vec<u8>, f64)> = None;
            for (key, &c) in &counts {
                let e = q.energy(&parsed(key));
                acc += e * c as f64;
                if best.as_ref().is_none_or(|(_, be)| e < *be) {
                    best = Some((parsed(key), e));
                }
            }
            let mean = acc / total as f64;
            let counts = Counts::from(counts);
            assert_eq!(
                counts_energy(&q, &counts).to_bits(),
                mean.to_bits(),
                "n {n}"
            );
            let (x, e) = counts_best(&q, &counts);
            let (want_x, want_e) = best.unwrap();
            assert_eq!((x, e.to_bits()), (want_x, want_e.to_bits()), "n {n}");
        }
    }

    #[test]
    fn qaoa_beats_random_guessing_on_small_instance() {
        // Not an optimizer test — somewhere on a coarse (gamma, beta) grid
        // the p=1 landscape must dip below the uniform-sampling mean.
        let q = Qubo::random(6, 1.0, 21);
        let t = qaoa_ansatz(&q, 1);
        let engine = SvSimulator::plain();
        let uniform_mean: f64 = (0..64).map(|b| q.energy_bits(b)).sum::<f64>() / 64.0;
        let mut best = f64::INFINITY;
        for gi in -7i32..8 {
            for bi in -7i32..8 {
                if gi == 0 || bi == 0 {
                    continue;
                }
                let gamma = gi as f64 * 0.15;
                let beta = bi as f64 * 0.15;
                let qc = t.bind(&[gamma, beta]);
                let sv = engine.statevector(&qc);
                let e = sv.expectation_diagonal(|bits| q.energy_bits(bits), false);
                best = best.min(e);
            }
        }
        assert!(
            best < uniform_mean - 0.05,
            "best grid energy {best} vs uniform {uniform_mean}"
        );
    }
}
