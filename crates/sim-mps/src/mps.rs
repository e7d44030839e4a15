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

    /// Applies any gate from the IR: a one-qubit gate acts on its site's
    /// physical index, anything wider is one block update through the router.
    pub fn apply(&mut self, gate: &Gate) {
        let qs = gate.qubits();
        match qs.len() {
            1 => self.sites[qs[0]].apply_phys(&gate.matrix()),
            _ => self.apply_block(&qs, &gate.matrix()),
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

    /// The router: applies `u` (gate-local bit `j` on qubit `qs[j]`) to any
    /// operands, however far apart. The operands are taken in site order,
    /// and each, lowest first, is swapped down next to the one before it,
    /// so they sit on `lo..lo+k`; moving one down shifts only sites below
    /// the next, so every operand starts from its own site. The routing
    /// swaps are block updates too, undone in reverse order afterwards.
    fn apply_block(&mut self, qs: &[usize], u: &Matrix) {
        let mut order: Vec<usize> = (0..qs.len()).collect();
        order.sort_unstable_by_key(|&j| qs[j]);
        assert!(
            order.windows(2).all(|w| qs[w[0]] < qs[w[1]]),
            "gate operands must be distinct"
        );
        let lo = qs[order[0]];
        let swap = Gate::Swap(0, 1).matrix();
        let mut swaps = Vec::new();
        for (j, &g) in order.iter().enumerate().skip(1) {
            for site in (lo + j..qs[g]).rev() {
                self.update(site, &swap, &[0, 1]);
                swaps.push(site);
            }
        }
        self.update(lo, u, &order);
        for &site in swaps.iter().rev() {
            self.update(site, &swap, &[0, 1]);
        }
    }

    /// The block update on the `k = bits.len()` adjacent sites from `base`,
    /// where `bits[j]` is the gate-local bit of site `base + j`: merge the
    /// sites into one blob over the shared bonds, apply `u` to each
    /// `(l, r)` fibre with its columns in gate-local order, and split the
    /// blob back site by site with `k - 1` truncated SVDs, leaving the
    /// orthogonality center on the last site.
    ///
    /// The blob is row-major `(l, P, r)` with site `base` as the most
    /// significant bit of `P`, so its rows `(l, p_base)` against columns
    /// `(rest, r)` are the first split's matrix as laid out, and each
    /// split's `S·V†` is the blob of the sites left.
    fn update(&mut self, base: usize, u: &Matrix, bits: &[usize]) {
        let k = bits.len();
        let dim = 1usize << k;
        assert_eq!(u.rows(), dim, "a {k}-site update takes a {dim}x{dim} gate");
        self.move_center_to(base);
        let (dl, dr) = (self.sites[base].dl, self.sites[base + k - 1].dr);
        let mut blob = merge(&self.sites[base].data, &self.sites[base + 1]);
        for site in &self.sites[base + 2..base + k] {
            blob = merge(&blob, site);
        }

        // Blob index P -> gate-local index.
        let local: Vec<usize> = (0..dim)
            .map(|p| (0..k).map(|j| ((p >> (k - 1 - j)) & 1) << bits[j]).sum())
            .collect();
        let mut theta = Matrix::zeros(dl * 2, (dim / 2) * dr);
        let out = theta.as_mut_slice();
        let (mut v, mut w) = (vec![C64::ZERO; dim], vec![C64::ZERO; dim]);
        for l in 0..dl {
            for r in 0..dr {
                for (p, &g) in local.iter().enumerate() {
                    v[g] = blob[(l * dim + p) * dr + r];
                }
                for (row, slot) in w.iter_mut().enumerate() {
                    let mut acc = C64::ZERO;
                    for (col, &x) in v.iter().enumerate() {
                        acc = u[(row, col)].mul_add(x, acc);
                    }
                    *slot = acc;
                }
                for (p, &g) in local.iter().enumerate() {
                    out[(l * dim + p) * dr + r] = w[g];
                }
            }
        }

        for site in base..base + k - 1 {
            let (left, rest) = self.truncated_split(&theta);
            self.sites[site] = Tensor3::from_matrix_left(&left, theta.rows() / 2);
            theta = if site + 2 < base + k {
                Matrix::from_rows(rest.rows() * 2, rest.cols() / 2, rest.as_slice())
            } else {
                rest
            };
        }
        self.sites[base + k - 1] = Tensor3::from_matrix_right(&theta, dr);
        self.center = base + k - 1;
    }

    /// The truncation rule, and the only place it is applied: a truncated
    /// SVD `m ≈ U·S·V†` that keeps at most `chi_max` singular values, drops
    /// tail values whose squared weight relative to the total is at most
    /// `trunc_eps`, books the discarded weight and the kept rank, and
    /// renormalises `S·V†` to the full norm. Returns `(U, S·V†)`.
    fn truncated_split(&mut self, m: &Matrix) -> (Matrix, Matrix) {
        let f = svd(m);
        let total: f64 = f.s.iter().map(|s| s * s).sum();
        let mut keep = effective_rank(&f.s).min(self.chi_max);
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
        let scale = if kept > 0.0 {
            (total / kept).sqrt()
        } else {
            1.0
        };
        let mut sv = s_vdag(&f.s, &f.v, keep);
        for z in sv.as_mut_slice() {
            *z = z.scale(scale);
        }
        (keep_cols(&f.u, keep), sv)
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
    /// The walk's three bond vectors are reused across sites and shots.
    pub fn sample(&mut self, shots: usize, rng: &mut Rng) -> Vec<u64> {
        self.move_center_to(0);
        let mut draws = Vec::with_capacity(shots);
        let (mut v, mut w0, mut w1) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..shots {
            v.clear();
            v.push(C64::ONE);
            let mut index = 0u64;
            for (kk, site) in self.sites.iter().enumerate() {
                w0.clear();
                w0.resize(site.dr, C64::ZERO);
                w1.clear();
                w1.resize(site.dr, C64::ZERO);
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
                let (chosen, p) = if bit == 0 { (&w0, p0) } else { (&w1, p1) };
                index |= bit << kk;
                let inv = 1.0 / p.sqrt();
                v.clear();
                v.extend(chosen.iter().map(|z| z.scale(inv)));
            }
            draws.push(index);
        }
        draws
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

/// Contracts a row-major `(rows, right.dl)` block with the next site over
/// their shared bond into a `(rows, 2, right.dr)` block: each entry sums
/// over the bond in order with `mul_add`, from zero, skipping zero terms.
fn merge(left: &[C64], right: &Tensor3) -> Vec<C64> {
    let cols = 2 * right.dr;
    let mut out = vec![C64::ZERO; left.len() / right.dl * cols];
    for (row, out_row) in left.chunks_exact(right.dl).zip(out.chunks_exact_mut(cols)) {
        for (&a, next) in row.iter().zip(right.data.chunks_exact(cols)) {
            if a == C64::ZERO {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(next) {
                *o = a.mul_add(b, *o);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::approx_eq;
    use qfw_num::complex::c64;
    use qfw_num::decomp::qr;
    use std::sync::Arc;

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
        for seed in 17..21 {
            let mut rng = Rng::seed_from(seed);
            let n = 6;
            let mut qc = Circuit::new(n).named("random");
            for _ in 0..40 {
                let q = rng.index(n);
                let p = (q + 1 + rng.index(n - 1)) % n;
                let o = (0..n)
                    .filter(|&x| x != q && x != p)
                    .nth(rng.index(n - 2))
                    .unwrap();
                match rng.index(9) {
                    0 => qc.h(q),
                    1 => qc.t(q),
                    2 => qc.rx(q, rng.uniform(-3.0, 3.0)),
                    3 => qc.cx(q, p),
                    4 => qc.rzz(q, p, rng.uniform(-1.0, 1.0)),
                    5 => qc.cry(q, p, rng.uniform(-1.0, 1.0)),
                    6 => qc.swap(q, p),
                    7 => qc.ccx(q, p, o),
                    _ => {
                        // Unsorted, pairwise non-adjacent operands.
                        let a = Matrix::from_fn(8, 8, |_, _| {
                            c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                        });
                        qc.push(Gate::Unitary {
                            qubits: vec![q, (q + 4) % n, (q + 2) % n],
                            matrix: Arc::new(qr(&a).q),
                            label: "u3".into(),
                        })
                    }
                };
            }
            // chi=64 >= 2^(6/2) = 8, so this is exact.
            check_against_dense(&qc, 64, 0.0, 1e-8);
        }
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
    fn norm_stays_one_without_truncation() {
        let mut qc = Circuit::new(5).named("norm");
        qc.h(0).cx(0, 1).cx(1, 2).rzz(2, 3, 0.4).cry(3, 4, 0.8);
        let mut mps = MpsState::zero(5, 64, 0.0);
        mps.run_unitary(&qc);
        assert!(approx_eq(mps.norm(), 1.0, 1e-9));
    }
}
