//! The matrix-product state, its gauge bookkeeping, and gate application.

use crate::tensor::Tensor3;
use qfw_circuit::{Circuit, Gate, Op};
use qfw_num::complex::C64;
use qfw_num::decomp::svd;
use qfw_num::rng::Rng;
use qfw_num::Matrix;

/// An n-qubit matrix-product state with an explicit orthogonality center.
///
/// Invariant: sites `0..center` are left-canonical, sites `center+1..n` are
/// right-canonical, and the full norm lives in `sites[center]`.
#[derive(Clone, Debug)]
pub struct MpsState {
    sites: Vec<Tensor3>,
    center: usize,
    chi_max: usize,
    trunc_eps: f64,
    /// Accumulated discarded squared Schmidt weight across all truncations.
    pub trunc_error: f64,
    /// Largest bond dimension reached during the run.
    pub max_bond_seen: usize,
}

impl MpsState {
    /// The product state `|0...0>` with truncation parameters.
    ///
    /// `chi_max` caps every bond; `trunc_eps` discards Schmidt values whose
    /// squared weight falls below it (relative to the total).
    pub fn zero(n: usize, chi_max: usize, trunc_eps: f64) -> Self {
        assert!(n >= 1, "MPS needs at least one site");
        assert!(chi_max >= 1, "chi_max must be positive");
        MpsState {
            sites: (0..n).map(|_| Tensor3::basis(0)).collect(),
            center: 0,
            chi_max,
            trunc_eps,
            trunc_error: 0.0,
            max_bond_seen: 1,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.sites.len()
    }

    /// Bond dimensions between adjacent sites (`n-1` entries).
    pub fn bond_dims(&self) -> Vec<usize> {
        (0..self.sites.len() - 1)
            .map(|k| self.sites[k].dr)
            .collect()
    }

    /// Current largest bond dimension.
    pub fn max_bond(&self) -> usize {
        self.bond_dims().into_iter().max().unwrap_or(1)
    }

    /// Norm of the represented state (1 up to truncation).
    pub fn norm(&self) -> f64 {
        self.sites[self.center].norm()
    }

    // --- gauge movement ------------------------------------------------------

    fn move_center_to(&mut self, k: usize) {
        while self.center < k {
            self.shift_right();
        }
        while self.center > k {
            self.shift_left();
        }
    }

    /// Left-orthogonalizes the center site and moves the center one right.
    fn shift_right(&mut self) {
        let c = self.center;
        let m = self.sites[c].to_matrix_left();
        let f = svd(&m);
        let rank = effective_rank(&f.s);
        let u = keep_cols(&f.u, rank);
        let sv = s_vdag(&f.s, &f.v, rank);
        self.sites[c] = Tensor3::from_matrix_left(&u, self.sites[c].dl);
        // Absorb S V^dag into the right neighbour over its left bond.
        let right = &self.sites[c + 1];
        let rmat = right.to_matrix_right(); // (dl, 2*dr)
        let merged = sv.matmul(&rmat);
        self.sites[c + 1] = Tensor3::from_matrix_right(&merged, right.dr);
        self.center += 1;
    }

    /// Right-orthogonalizes the center site and moves the center one left.
    fn shift_left(&mut self) {
        let c = self.center;
        let m = self.sites[c].to_matrix_right();
        let f = svd(&m);
        let rank = effective_rank(&f.s);
        let vdag = keep_cols(&f.v, rank).dagger(); // (rank, 2*dr)
        let us = u_s(&f.u, &f.s, rank); // (dl, rank)
        self.sites[c] = Tensor3::from_matrix_right(&vdag, self.sites[c].dr);
        // Absorb U S into the left neighbour over its right bond.
        let left = &self.sites[c - 1];
        let lmat = left.to_matrix_left(); // (dl*2, dr)
        let merged = lmat.matmul(&us);
        self.sites[c - 1] = Tensor3::from_matrix_left(&merged, left.dl);
        self.center -= 1;
    }

    // --- gate application ------------------------------------------------------

    /// Applies any gate from the IR.
    pub fn apply(&mut self, gate: &Gate) {
        let qs = gate.qubits();
        match qs.len() {
            1 => self.sites[qs[0]].apply_phys(&gate.matrix()),
            2 => self.apply_2q(qs[0], qs[1], &gate.matrix()),
            _ => self.apply_unitary_k(&qs, &gate.matrix()),
        }
    }

    /// Runs the unitary part of a circuit.
    pub fn run_unitary(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.num_qubits());
        for op in circuit.ops() {
            if let Op::Gate(g) = op {
                self.apply(g);
            }
        }
    }

    /// Two-qubit gate on arbitrary operands; long-range pairs are routed
    /// through adjacent SWAPs (the standard MPS swap network).
    fn apply_2q(&mut self, qa: usize, qb: usize, u: &Matrix) {
        assert_ne!(qa, qb);
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        // Bring the higher qubit down to lo+1.
        let swap = Gate::Swap(0, 1).matrix();
        let mut pos = hi;
        while pos > lo + 1 {
            self.apply_2q_adjacent(pos - 1, &swap, true);
            pos -= 1;
        }
        // Orientation: gate-local bit 0 is qa. After routing, site lo holds
        // qubit lo(=min) and site lo+1 holds the routed one.
        let first_at_site = qa == lo;
        self.apply_2q_adjacent(lo, u, first_at_site);
        // Undo the routing.
        while pos < hi {
            self.apply_2q_adjacent(pos, &swap, true);
            pos += 1;
        }
    }

    /// Core TEBD step on sites `(k, k+1)`. `first_at_k` says gate-local bit
    /// 0 lives on site `k` (otherwise on `k+1`).
    fn apply_2q_adjacent(&mut self, k: usize, u: &Matrix, first_at_k: bool) {
        self.move_center_to(k);
        let theta = self.sites[k].contract_pair(&self.sites[k + 1]);
        let (dl, dr) = (self.sites[k].dl, self.sites[k + 1].dr);
        // theta rows: l*2 + p1 ; cols: p2*dr + r.
        let mut new_theta = Matrix::zeros(theta.rows(), theta.cols());
        for l in 0..dl {
            for r in 0..dr {
                // Gather the 4 amplitudes for this (l, r).
                let mut v = [C64::ZERO; 4];
                for p1 in 0..2 {
                    for p2 in 0..2 {
                        let g = if first_at_k { p1 + 2 * p2 } else { p2 + 2 * p1 };
                        v[g] = theta[(l * 2 + p1, p2 * dr + r)];
                    }
                }
                let mut w = [C64::ZERO; 4];
                for (row, slot) in w.iter_mut().enumerate() {
                    let mut acc = C64::ZERO;
                    for (col, &x) in v.iter().enumerate() {
                        acc = u[(row, col)].mul_add(x, acc);
                    }
                    *slot = acc;
                }
                for p1 in 0..2 {
                    for p2 in 0..2 {
                        let g = if first_at_k { p1 + 2 * p2 } else { p2 + 2 * p1 };
                        new_theta[(l * 2 + p1, p2 * dr + r)] = w[g];
                    }
                }
            }
        }
        self.split_theta(k, &new_theta, dl, dr);
    }

    /// Truncated-SVD split of a `theta` matrix back into sites `k`, `k+1`.
    fn split_theta(&mut self, k: usize, theta: &Matrix, dl: usize, dr: usize) {
        let f = svd(theta);
        let total: f64 = f.s.iter().map(|s| s * s).sum();
        let mut keep = effective_rank(&f.s).min(self.chi_max);
        // Relative truncation: drop tail weight below trunc_eps.
        while keep > 1 {
            let tail: f64 = f.s[keep - 1] * f.s[keep - 1];
            if tail / total > self.trunc_eps {
                break;
            }
            keep -= 1;
        }
        let kept: f64 = f.s[..keep].iter().map(|s| s * s).sum();
        self.trunc_error += (total - kept).max(0.0);
        self.max_bond_seen = self.max_bond_seen.max(keep);
        // Renormalize to preserve the state norm.
        let scale = if kept > 0.0 {
            (total / kept).sqrt()
        } else {
            1.0
        };

        let u = keep_cols(&f.u, keep);
        let mut sv = s_vdag(&f.s, &f.v, keep);
        for z in sv.as_mut_slice() {
            *z = z.scale(scale);
        }
        self.sites[k] = Tensor3::from_matrix_left(&u, dl);
        self.sites[k + 1] = Tensor3::from_matrix_right(&sv, dr);
        self.center = k + 1;
    }

    /// Applies an opaque k-qubit unitary by routing the operands onto
    /// adjacent sites, merging, applying, and re-splitting with truncated
    /// SVDs — Aer-MPS's strategy for multi-qubit blocks.
    fn apply_unitary_k(&mut self, qs: &[usize], u: &Matrix) {
        let k = qs.len();
        assert_eq!(u.rows(), 1 << k);
        // Route qubit qs[j] to site base + j.
        let base = *qs.iter().min().unwrap();
        // Track where each logical qubit currently sits.
        let n = self.num_qubits();
        let mut site_of: Vec<usize> = (0..n).collect();
        let swap = Gate::Swap(0, 1).matrix();
        let mut swaps: Vec<usize> = Vec::new();
        for (j, &q) in qs.iter().enumerate() {
            let target = base + j;
            let mut cur = site_of[q];
            while cur > target {
                self.apply_2q_adjacent(cur - 1, &swap, true);
                swaps.push(cur - 1);
                let other = site_of.iter().position(|&s| s == cur - 1).unwrap();
                site_of.swap(q, other);
                cur -= 1;
            }
            while cur < target {
                self.apply_2q_adjacent(cur, &swap, true);
                swaps.push(cur);
                let other = site_of.iter().position(|&s| s == cur + 1).unwrap();
                site_of.swap(q, other);
                cur += 1;
            }
        }

        // Merge sites base..base+k into one blob with physical index
        // P = sum_j p_{base+j} << j.
        self.move_center_to(base);
        let mut dl = self.sites[base].dl;
        let mut blob = self.sites[base].data.clone(); // (l, p, r) row-major
        let mut phys = 2usize;
        let mut dr = self.sites[base].dr;
        for j in 1..k {
            let next = &self.sites[base + j];
            let mut merged =
                vec![C64::ZERO; dl * phys * 2 * next.dr];
            for l in 0..dl {
                for pp in 0..phys {
                    for m in 0..dr {
                        let a = blob[(l * phys + pp) * dr + m];
                        if a == C64::ZERO {
                            continue;
                        }
                        for p in 0..2 {
                            for r in 0..next.dr {
                                // New physical index: pp | p << j
                                let np = pp | (p << j);
                                let idx = (l * (phys * 2) + np) * next.dr + r;
                                merged[idx] = a.mul_add(next.get(m, p, r), merged[idx]);
                            }
                        }
                    }
                }
            }
            blob = merged;
            phys *= 2;
            dr = next.dr;
        }

        // Apply the gate on the merged physical index.
        let dim = 1usize << k;
        let mut new_blob = vec![C64::ZERO; blob.len()];
        for l in 0..dl {
            for r in 0..dr {
                for row in 0..dim {
                    let mut acc = C64::ZERO;
                    for col in 0..dim {
                        let x = blob[(l * dim + col) * dr + r];
                        acc = u[(row, col)].mul_add(x, acc);
                    }
                    new_blob[(l * dim + row) * dr + r] = acc;
                }
            }
        }

        // Split back site by site: peel the lowest physical bit each time.
        let mut rest = new_blob;
        let mut rest_phys = dim;
        for j in 0..k - 1 {
            // rest is (dl, rest_phys, dr): reshape to rows (l, p0), cols (P', r).
            let half = rest_phys / 2;
            let mut m = Matrix::zeros(dl * 2, half * dr);
            for l in 0..dl {
                for p in 0..rest_phys {
                    let (p0, prest) = (p & 1, p >> 1);
                    for r in 0..dr {
                        m[(l * 2 + p0, prest * dr + r)] =
                            rest[(l * rest_phys + p) * dr + r];
                    }
                }
            }
            let f = svd(&m);
            let total: f64 = f.s.iter().map(|s| s * s).sum();
            let mut keep = effective_rank(&f.s).min(self.chi_max);
            while keep > 1 {
                let tail = f.s[keep - 1] * f.s[keep - 1];
                if tail / total > self.trunc_eps {
                    break;
                }
                keep -= 1;
            }
            let kept: f64 = f.s[..keep].iter().map(|s| s * s).sum();
            self.trunc_error += (total - kept).max(0.0);
            self.max_bond_seen = self.max_bond_seen.max(keep);
            let scale = (total / kept).sqrt();

            let u_m = keep_cols(&f.u, keep);
            self.sites[base + j] = Tensor3::from_matrix_left(&u_m, dl);
            let mut sv = s_vdag(&f.s, &f.v, keep); // (keep, half*dr)
            for z in sv.as_mut_slice() {
                *z = z.scale(scale);
            }
            // sv becomes the new rest blob with dl = keep.
            dl = keep;
            rest_phys = half;
            let mut next_rest = vec![C64::ZERO; dl * rest_phys * dr];
            for l in 0..dl {
                for p in 0..rest_phys {
                    for r in 0..dr {
                        next_rest[(l * rest_phys + p) * dr + r] = sv[(l, p * dr + r)];
                    }
                }
            }
            rest = next_rest;
        }
        // Final site holds the remaining physical bit.
        self.sites[base + k - 1] = Tensor3 {
            dl,
            dr,
            data: rest,
        };
        self.center = base + k - 1;

        // Undo the routing swaps in reverse order.
        for &s in swaps.iter().rev() {
            self.apply_2q_adjacent(s, &swap, true);
        }
    }

    // --- readout ---------------------------------------------------------------

    /// Amplitude of one computational basis state.
    pub fn amplitude(&self, index: usize) -> C64 {
        let mut v = vec![C64::ONE];
        for (kk, site) in self.sites.iter().enumerate() {
            let b = (index >> kk) & 1;
            let mut w = vec![C64::ZERO; site.dr];
            for (l, &vl) in v.iter().enumerate() {
                if vl == C64::ZERO {
                    continue;
                }
                for (r, slot) in w.iter_mut().enumerate() {
                    *slot = vl.mul_add(site.get(l, b, r), *slot);
                }
            }
            v = w;
        }
        v[0]
    }

    /// Materializes the dense state vector — exponential, tests only.
    pub fn to_statevector(&self) -> Vec<C64> {
        let n = self.num_qubits();
        assert!(n <= 16, "to_statevector is for small test registers");
        (0..(1usize << n)).map(|i| self.amplitude(i)).collect()
    }

    /// Draws `shots` basis indices by the conditional left-to-right walk.
    pub fn sample(&mut self, shots: usize, rng: &mut Rng) -> Vec<u64> {
        self.move_center_to(0);
        let mut draws = Vec::with_capacity(shots);
        for _ in 0..shots {
            let mut v = vec![C64::ONE];
            let mut index = 0u64;
            for (kk, site) in self.sites.iter().enumerate() {
                let mut w0 = vec![C64::ZERO; site.dr];
                let mut w1 = vec![C64::ZERO; site.dr];
                for (l, &vl) in v.iter().enumerate() {
                    if vl == C64::ZERO {
                        continue;
                    }
                    for r in 0..site.dr {
                        w0[r] = vl.mul_add(site.get(l, 0, r), w0[r]);
                        w1[r] = vl.mul_add(site.get(l, 1, r), w1[r]);
                    }
                }
                let p0: f64 = w0.iter().map(|z| z.norm_sqr()).sum();
                let p1: f64 = w1.iter().map(|z| z.norm_sqr()).sum();
                let total = p0 + p1;
                let bit = u64::from(rng.next_f64() * total >= p0);
                let (chosen, p) = if bit == 0 { (w0, p0) } else { (w1, p1) };
                index |= bit << kk;
                let inv = 1.0 / p.sqrt();
                v = chosen.into_iter().map(|z| z.scale(inv)).collect();
            }
            draws.push(index);
        }
        draws
    }

    /// Schmidt spectrum (singular values) across the bond `k | k+1`.
    pub fn schmidt_spectrum(&mut self, k: usize) -> Vec<f64> {
        self.move_center_to(k);
        let theta = self.sites[k].contract_pair(&self.sites[k + 1]);
        let f = svd(&theta);
        f.s.into_iter().filter(|&s| s > 1e-14).collect()
    }

    /// Von Neumann entanglement entropy across the bond `k | k+1` (nats).
    pub fn entanglement_entropy(&mut self, k: usize) -> f64 {
        let s = self.schmidt_spectrum(k);
        let total: f64 = s.iter().map(|x| x * x).sum();
        -s.iter()
            .map(|x| {
                let p = x * x / total;
                if p > 1e-15 {
                    p * p.ln()
                } else {
                    0.0
                }
            })
            .sum::<f64>()
    }
}

/// Number of singular values above numerical noise.
fn effective_rank(s: &[f64]) -> usize {
    let s0 = s.first().copied().unwrap_or(0.0);
    let cutoff = s0 * 1e-14;
    s.iter().take_while(|&&x| x > cutoff).count().max(1)
}

/// First `k` columns of a matrix.
fn keep_cols(m: &Matrix, k: usize) -> Matrix {
    Matrix::from_fn(m.rows(), k, |i, j| m[(i, j)])
}

/// `diag(s[..k]) * V[..,..k]^dagger`.
fn s_vdag(s: &[f64], v: &Matrix, k: usize) -> Matrix {
    Matrix::from_fn(k, v.rows(), |i, j| v[(j, i)].conj().scale(s[i]))
}

/// `U[.., ..k] * diag(s[..k])`.
fn u_s(u: &Matrix, s: &[f64], k: usize) -> Matrix {
    Matrix::from_fn(u.rows(), k, |i, j| u[(i, j)].scale(s[j]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::approx_eq;

    fn exact() -> (usize, f64) {
        (64, 0.0)
    }

    /// Cross-validates the MPS against dense simulation on a circuit.
    fn check_against_dense(qc: &Circuit, chi: usize, eps: f64, tol: f64) -> MpsState {
        let mut mps = MpsState::zero(qc.num_qubits(), chi, eps);
        mps.run_unitary(qc);
        let dense = dense_reference(qc);
        let got = mps.to_statevector();
        for (i, (a, b)) in got.iter().zip(dense.iter()).enumerate() {
            assert!(
                a.approx_eq(*b, tol),
                "amplitude {i}: mps {a} vs dense {b} in '{}'",
                qc.name
            );
        }
        mps
    }

    /// Tiny dense simulator reference local to this crate's tests (avoids a
    /// dev-dependency cycle with qfw-sim-sv).
    fn dense_reference(qc: &Circuit) -> Vec<C64> {
        let n = qc.num_qubits();
        let mut state = vec![C64::ZERO; 1 << n];
        state[0] = C64::ONE;
        for op in qc.ops() {
            if let Op::Gate(g) = op {
                state = qfw_dense_apply(&state, g, n);
            }
        }
        state
    }

    fn qfw_dense_apply(state: &[C64], g: &Gate, n: usize) -> Vec<C64> {
        let qs = g.qubits();
        let m = g.matrix();
        let dim = m.rows();
        let mut out = vec![C64::ZERO; state.len()];
        for (i, &amp) in state.iter().enumerate() {
            if amp == C64::ZERO {
                continue;
            }
            let mut local = 0usize;
            for (j, &q) in qs.iter().enumerate() {
                if i & (1 << q) != 0 {
                    local |= 1 << j;
                }
            }
            for row in 0..dim {
                let coeff = m[(row, local)];
                if coeff == C64::ZERO {
                    continue;
                }
                let mut target = i;
                for (j, &q) in qs.iter().enumerate() {
                    target &= !(1 << q);
                    if row & (1 << j) != 0 {
                        target |= 1 << q;
                    }
                }
                out[target] = coeff.mul_add(amp, out[target]);
            }
        }
        let _ = n;
        out
    }

    #[test]
    fn ghz_state_has_bond_two() {
        let mut qc = Circuit::new(6).named("ghz6");
        qc.h(0);
        for q in 0..5 {
            qc.cx(q, q + 1);
        }
        let (chi, eps) = exact();
        let mps = check_against_dense(&qc, chi, eps, 1e-9);
        assert!(mps.max_bond() <= 2, "GHZ needs only bond 2");
        assert!(mps.trunc_error < 1e-12);
    }

    #[test]
    fn single_qubit_gates_exact() {
        let mut qc = Circuit::new(3).named("1q");
        qc.h(0).t(1).rx(2, 0.7).rz(0, -0.3).ry(1, 1.1);
        check_against_dense(&qc, 4, 0.0, 1e-10);
    }

    #[test]
    fn adjacent_two_qubit_gates_exact() {
        let mut qc = Circuit::new(4).named("adj2q");
        qc.h(0).cx(0, 1).rzz(1, 2, 0.8).cx(2, 3).swap(1, 2).cz(2, 3);
        let (chi, eps) = exact();
        check_against_dense(&qc, chi, eps, 1e-9);
    }

    #[test]
    fn reversed_operand_order_matches() {
        // cx with control above target exercises the orientation flag.
        let mut qc = Circuit::new(3).named("rev");
        qc.h(2).cx(2, 1).cx(1, 0).cry(2, 0, 0.9);
        let (chi, eps) = exact();
        check_against_dense(&qc, chi, eps, 1e-9);
    }

    #[test]
    fn long_range_gates_via_swap_network() {
        let mut qc = Circuit::new(5).named("longrange");
        qc.h(0).cx(0, 4).rzz(1, 3, -0.4).cp(4, 0, 0.6);
        let (chi, eps) = exact();
        check_against_dense(&qc, chi, eps, 1e-9);
    }

    #[test]
    fn toffoli_block_via_merge_split() {
        let mut qc = Circuit::new(4).named("ccx");
        qc.h(0).h(1).ccx(0, 1, 2).ccx(3, 1, 0);
        let (chi, eps) = exact();
        check_against_dense(&qc, chi, eps, 1e-9);
    }

    #[test]
    fn random_circuit_exact_at_full_chi() {
        let mut rng = Rng::seed_from(17);
        let n = 6;
        let mut qc = Circuit::new(n).named("random");
        for _ in 0..40 {
            let q = rng.index(n);
            let p = (q + 1 + rng.index(n - 1)) % n;
            match rng.index(6) {
                0 => qc.h(q),
                1 => qc.t(q),
                2 => qc.rx(q, rng.uniform(-3.0, 3.0)),
                3 => qc.cx(q, p),
                4 => qc.rzz(q, p, rng.uniform(-1.0, 1.0)),
                _ => qc.cry(q, p, rng.uniform(-1.0, 1.0)),
            };
        }
        // chi=64 >= 2^(6/2) = 8, so this is exact.
        check_against_dense(&qc, 64, 0.0, 1e-8);
    }

    #[test]
    fn truncation_is_tracked_and_bounded() {
        // A heavily entangling circuit with tight chi must record error.
        let mut rng = Rng::seed_from(23);
        let n = 8;
        let mut qc = Circuit::new(n).named("volume");
        for _ in 0..60 {
            let q = rng.index(n);
            let p = (q + 1 + rng.index(n - 1)) % n;
            qc.ry(q, rng.uniform(-1.0, 1.0));
            qc.cx(q, p);
        }
        let mut mps = MpsState::zero(n, 4, 1e-10);
        mps.run_unitary(&qc);
        assert!(mps.trunc_error > 0.0, "expected truncation at chi=4");
        assert!(mps.max_bond() <= 4);
        // Norm is preserved by renormalization.
        assert!(approx_eq(mps.norm(), 1.0, 1e-6), "norm {}", mps.norm());
    }

    #[test]
    fn tfim_layer_keeps_small_bond() {
        // One trotter step of TFIM: low entanglement growth — the mechanism
        // behind Fig. 3c's MPS advantage.
        let n = 12;
        let mut qc = Circuit::new(n).named("tfim_step");
        for step in 0..3 {
            for q in 0..n - 1 {
                qc.rzz(q, q + 1, 0.1);
            }
            for q in 0..n {
                qc.rx(q, 0.2 + 0.01 * step as f64);
            }
        }
        let mut mps = MpsState::zero(n, 64, 1e-12);
        mps.run_unitary(&qc);
        assert!(
            mps.max_bond() <= 8,
            "TFIM bond blew up to {}",
            mps.max_bond()
        );
    }

    #[test]
    fn sampling_matches_amplitudes() {
        let mut qc = Circuit::new(3).named("sample");
        qc.h(0).cx(0, 1).ry(2, 0.8);
        let mut mps = MpsState::zero(3, 16, 0.0);
        mps.run_unitary(&qc);
        let probs: Vec<f64> = (0..8).map(|i| mps.amplitude(i).norm_sqr()).collect();
        let mut rng = Rng::seed_from(5);
        let shots = 20_000;
        let mut counts = [0usize; 8];
        for idx in mps.sample(shots, &mut rng) {
            counts[idx as usize] += 1;
        }
        for (idx, count) in counts.into_iter().enumerate() {
            let freq = count as f64 / shots as f64;
            assert!(
                (freq - probs[idx]).abs() < 0.02,
                "idx {idx}: freq {freq} vs prob {}",
                probs[idx]
            );
        }
    }

    #[test]
    fn entanglement_entropy_of_bell_pair() {
        let mut qc = Circuit::new(2).named("bell");
        qc.h(0).cx(0, 1);
        let mut mps = MpsState::zero(2, 4, 0.0);
        mps.run_unitary(&qc);
        let s = mps.entanglement_entropy(0);
        assert!(approx_eq(s, std::f64::consts::LN_2, 1e-9), "entropy {s}");
    }

    #[test]
    fn product_state_has_zero_entropy() {
        let mut qc = Circuit::new(3).named("product");
        qc.h(0).h(1).h(2);
        let mut mps = MpsState::zero(3, 4, 0.0);
        mps.run_unitary(&qc);
        assert!(mps.entanglement_entropy(0).abs() < 1e-9);
        assert!(mps.entanglement_entropy(1).abs() < 1e-9);
    }

    #[test]
    fn norm_stays_one_without_truncation() {
        let mut qc = Circuit::new(5).named("norm");
        qc.h(0).cx(0, 1).cx(1, 2).rzz(2, 3, 0.4).cry(3, 4, 0.8);
        let mut mps = MpsState::zero(5, 64, 0.0);
        mps.run_unitary(&qc);
        assert!(approx_eq(mps.norm(), 1.0, 1e-9));
    }
}
