//! Quadratic unconstrained binary optimization (QUBO) instances.
//!
//! The paper's variational workloads minimize `E(x) = x^T Q x` over binary
//! vectors, with the application being metamaterial design (selecting layer
//! materials/thicknesses in a stack, where physical coupling is strongest
//! between neighbouring layers). Two generators:
//!
//! * [`Qubo::random`] — dense random instances (general benchmarking);
//! * [`Qubo::metamaterial`] — banded instances with strong near-diagonal
//!   couplings and local fields, the structure of a layered-stack design
//!   problem.

use qfw_num::rng::Rng;
use serde::{Deserialize, Serialize};

/// A symmetric QUBO over `n` binary variables: `E(x) = sum_i q_ii x_i +
/// sum_{i<j} q_ij x_i x_j` (upper-triangular storage).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Qubo {
    n: usize,
    /// Upper-triangular coefficients, row-major: `coeff[idx(i, j)]`, `i <= j`.
    coeffs: Vec<f64>,
}

impl Qubo {
    /// A zero QUBO over `n` variables.
    pub fn zeros(n: usize) -> Self {
        Qubo {
            n,
            coeffs: vec![0.0; n * (n + 1) / 2],
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        let (i, j) = (i.min(j), i.max(j));
        // Row-major upper triangle: offset of row i, then j - i.
        i * self.n - i * (i + 1) / 2 + j
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Reads coefficient `q_ij` (symmetric access).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.coeffs[self.idx(i, j)]
    }

    /// Sets coefficient `q_ij` (symmetric access).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j);
        self.coeffs[k] = v;
    }

    /// Adds to coefficient `q_ij`.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j);
        self.coeffs[k] += v;
    }

    /// Energy of a binary assignment.
    pub fn energy(&self, x: &[u8]) -> f64 {
        assert_eq!(x.len(), self.n, "assignment length mismatch");
        let mut e = 0.0;
        for i in 0..self.n {
            if x[i] == 0 {
                continue;
            }
            e += self.get(i, i);
            for (j, &xj) in x.iter().enumerate().take(self.n).skip(i + 1) {
                if xj != 0 {
                    e += self.get(i, j);
                }
            }
        }
        e
    }

    /// Energy of a bit-packed assignment (bit `i` of `bits` = `x_i`; bits
    /// at `n` and above are ignored). Walks the set bits only, in
    /// [`Qubo::energy`]'s order — `i` ascending, then `j > i` ascending —
    /// so the two agree bitwise.
    pub fn energy_bits(&self, bits: usize) -> f64 {
        let mut rest = if self.n < usize::BITS as usize {
            bits & ((1 << self.n) - 1)
        } else {
            bits
        };
        let mut e = 0.0;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            // Row i of the upper triangle: q_ii, then q_ij at (j - i) past it.
            let row = self.idx(i, i);
            e += self.coeffs[row];
            let mut higher = rest;
            while higher != 0 {
                let j = higher.trailing_zeros() as usize;
                higher &= higher - 1;
                e += self.coeffs[row + j - i];
            }
        }
        e
    }

    /// Dense random instance: every diagonal and off-diagonal coefficient
    /// drawn uniformly from `[-1, 1]`, with `density` controlling the
    /// fraction of nonzero couplings.
    pub fn random(n: usize, density: f64, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let mut q = Self::zeros(n);
        for i in 0..n {
            q.set(i, i, rng.uniform(-1.0, 1.0));
            for j in (i + 1)..n {
                if rng.chance(density) {
                    q.set(i, j, rng.uniform(-1.0, 1.0));
                }
            }
        }
        q
    }

    /// Metamaterial-stack instance: layer `i` interacts strongly with the
    /// next `band` layers (interface physics), plus a local field per layer
    /// (material cost / target response).
    pub fn metamaterial(n: usize, band: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let mut q = Self::zeros(n);
        for i in 0..n {
            // Local field: preference for/against placing the material.
            q.set(i, i, rng.uniform(-2.0, 1.0));
            for d in 1..=band {
                if i + d < n {
                    // Interface couplings decay with distance.
                    let scale = 1.5 / d as f64;
                    q.set(i, i + d, rng.uniform(-scale, scale));
                }
            }
        }
        q
    }

    /// Exhaustive minimization. Exponential — use only for `n <= ~22`.
    /// Returns (best bits, best energy).
    pub fn brute_force_min(&self) -> (usize, f64) {
        assert!(self.n <= 26, "brute force beyond 2^26 is a mistake");
        let mut best = (0usize, f64::INFINITY);
        for bits in 0..(1usize << self.n) {
            let e = self.energy_bits(bits);
            if e < best.1 {
                best = (bits, e);
            }
        }
        best
    }

    /// Ising form: `E(x) = offset + sum_i h_i z_i + sum_{i<j} J_ij z_i z_j`
    /// under `x_i = (1 - z_i)/2`. Returns `(h, J(upper pairs), offset)`.
    pub fn to_ising(&self) -> (Vec<f64>, Vec<(usize, usize, f64)>, f64) {
        let n = self.n;
        let mut h = vec![0.0; n];
        let mut j_terms = Vec::new();
        let mut offset = 0.0;
        for i in 0..n {
            let qii = self.get(i, i);
            offset += qii / 2.0;
            h[i] -= qii / 2.0;
            for j in (i + 1)..n {
                let qij = self.get(i, j);
                if qij == 0.0 {
                    continue;
                }
                offset += qij / 4.0;
                h[i] -= qij / 4.0;
                h[j] -= qij / 4.0;
                j_terms.push((i, j, qij / 4.0));
            }
        }
        (h, j_terms, offset)
    }

    /// Extracts the sub-QUBO over the listed variables, with the *impact*
    /// of the frozen complement folded into the diagonal: freezing `x_k`
    /// at its incumbent value contributes `q_ik * x_k` to variable `i`'s
    /// linear term. This is the decomposition step of DQAOA.
    pub fn sub_qubo(&self, vars: &[usize], incumbent: &[u8]) -> Qubo {
        assert_eq!(incumbent.len(), self.n);
        let k = vars.len();
        let in_sub: std::collections::BTreeSet<usize> = vars.iter().copied().collect();
        assert_eq!(in_sub.len(), k, "duplicate variables in sub-QUBO");
        let mut sub = Qubo::zeros(k);
        for (a, &i) in vars.iter().enumerate() {
            let mut diag = self.get(i, i);
            for (j, &inc) in incumbent.iter().enumerate().take(self.n) {
                if j != i && !in_sub.contains(&j) && inc == 1 {
                    diag += self.get(i, j);
                }
            }
            sub.set(a, a, diag);
            for (b, &j) in vars.iter().enumerate().skip(a + 1) {
                sub.set(a, b, self.get(i, j));
            }
        }
        sub
    }

    /// Per-variable impact factor: how strongly each variable couples into
    /// the rest of the problem (`sum_j |q_ij|`). DQAOA's directed
    /// decomposition groups high-impact variables first.
    pub fn impact_factors(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                (0..self.n)
                    .map(|j| if i == j { self.get(i, i).abs() } else { self.get(i, j).abs() })
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Qubo {
        // E(x) = -x0 + 2 x1 + 3 x0 x1
        let mut q = Qubo::zeros(2);
        q.set(0, 0, -1.0);
        q.set(1, 1, 2.0);
        q.set(0, 1, 3.0);
        q
    }

    #[test]
    fn energy_enumeration() {
        let q = toy();
        assert_eq!(q.energy(&[0, 0]), 0.0);
        assert_eq!(q.energy(&[1, 0]), -1.0);
        assert_eq!(q.energy(&[0, 1]), 2.0);
        assert_eq!(q.energy(&[1, 1]), 4.0);
        assert_eq!(q.energy_bits(0b01), -1.0);
    }

    #[test]
    fn symmetric_access() {
        let mut q = Qubo::zeros(3);
        q.set(2, 0, 5.0);
        assert_eq!(q.get(0, 2), 5.0);
        q.add(0, 2, 1.0);
        assert_eq!(q.get(2, 0), 6.0);
    }

    #[test]
    fn brute_force_finds_minimum() {
        let q = toy();
        let (bits, e) = q.brute_force_min();
        assert_eq!(bits, 0b01);
        assert_eq!(e, -1.0);
    }

    #[test]
    fn ising_round_trip_energy() {
        // Ising form must reproduce QUBO energies through z = 1 - 2x.
        let q = Qubo::random(6, 0.8, 42);
        let (h, j_terms, offset) = q.to_ising();
        for bits in 0..(1usize << 6) {
            let z: Vec<f64> = (0..6)
                .map(|i| if (bits >> i) & 1 == 1 { -1.0 } else { 1.0 })
                .collect();
            let mut e = offset;
            for (i, &hi) in h.iter().enumerate() {
                e += hi * z[i];
            }
            for &(i, j, jij) in &j_terms {
                e += jij * z[i] * z[j];
            }
            assert!(
                (e - q.energy_bits(bits)).abs() < 1e-10,
                "bits {bits}: ising {e} vs qubo {}",
                q.energy_bits(bits)
            );
        }
    }

    #[test]
    fn random_is_seeded_and_dense() {
        let a = Qubo::random(8, 1.0, 7);
        let b = Qubo::random(8, 1.0, 7);
        assert_eq!(a, b);
        let c = Qubo::random(8, 1.0, 8);
        assert_ne!(a, c);
        // Full density: all off-diagonals nonzero.
        let nonzero = (0..8)
            .flat_map(|i| ((i + 1)..8).map(move |j| (i, j)))
            .filter(|&(i, j)| a.get(i, j) != 0.0)
            .count();
        assert_eq!(nonzero, 28);
    }

    #[test]
    fn metamaterial_is_banded() {
        let q = Qubo::metamaterial(10, 2, 3);
        for i in 0..10 {
            for j in (i + 1)..10 {
                if j - i > 2 {
                    assert_eq!(q.get(i, j), 0.0, "({i},{j}) outside the band");
                }
            }
        }
    }

    #[test]
    fn sub_qubo_captures_frozen_impact() {
        let q = {
            let mut q = Qubo::zeros(3);
            q.set(0, 0, 1.0);
            q.set(1, 1, -2.0);
            q.set(2, 2, 0.5);
            q.set(0, 1, 4.0);
            q.set(1, 2, -1.0);
            q.set(0, 2, 2.0);
            q
        };
        // Freeze x2 = 1, sub-problem over {0, 1}.
        let sub = q.sub_qubo(&[0, 1], &[0, 0, 1]);
        assert_eq!(sub.num_vars(), 2);
        // diag0 = q00 + q02*1 = 3; diag1 = q11 + q12*1 = -3; coupling = q01.
        assert_eq!(sub.get(0, 0), 3.0);
        assert_eq!(sub.get(1, 1), -3.0);
        assert_eq!(sub.get(0, 1), 4.0);

        // Consistency: E_full(x0,x1,1) - E_full(0,0,1) == E_sub(x0,x1).
        for bits in 0..4usize {
            let x_full = [bits as u8 & 1, (bits >> 1) as u8 & 1, 1];
            let delta = q.energy(&x_full) - q.energy(&[0, 0, 1]);
            assert!(
                (delta - sub.energy_bits(bits)).abs() < 1e-12,
                "bits {bits}"
            );
        }
    }

    #[test]
    fn impact_factors_rank_coupled_variables() {
        let mut q = Qubo::zeros(3);
        q.set(0, 1, 10.0);
        q.set(2, 2, 0.1);
        let f = q.impact_factors();
        assert!(f[0] > f[2]);
        assert!(f[1] > f[2]);
    }

    #[test]
    fn energy_bits_is_energy_bitwise() {
        let mut rng = Rng::seed_from(17);
        let word = usize::BITS as usize;
        for (n, density) in [(1, 1.0), (5, 0.5), (12, 0.8), (20, 0.3), (word, 0.1)] {
            let q = Qubo::random(n, density, rng.next_u64());
            for _ in 0..200 {
                let bits = rng.next_u64() as usize;
                let x: Vec<u8> = (0..n).map(|i| ((bits >> i) & 1) as u8).collect();
                let (fast, slow) = (q.energy_bits(bits), q.energy(&x));
                assert_eq!(fast.to_bits(), slow.to_bits(), "n {n}, bits {bits:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn energy_length_checked() {
        let _ = toy().energy(&[1]);
    }
}
