//! The matrix-product state, its gauge bookkeeping, gate application and
//! sampling.
//!
//! Every SVD goes through one [`SvdWorkspace`] the state owns, and every
//! gauge move and block update writes its factors into the site tensors'
//! own buffers and two scratch buffers the state keeps, so a run allocates
//! only when a bond grows past what it has held before. The sampler walks
//! the shots of a chunk as a prefix tree: shots that agree on their first
//! `k` outcomes share the environment vector at site `k`, so each distinct
//! prefix is contracted once, not once per shot.

use crate::tensor::Tensor3;
use qfw_circuit::{Circuit, Gate, Op};
use qfw_num::complex::C64;
use qfw_num::decomp::SvdWorkspace;
use qfw_num::rng::Rng;

/// Shots whose uniforms the sampler draws and walks at once: the uniform
/// buffer holds at most this many shots' worth, whatever the shot count.
const SAMPLE_CHUNK: usize = 1024;

/// The two-qubit swap, row-major, as the router's block updates apply it.
const SWAP: [C64; 16] = {
    let (o, z) = (C64::ONE, C64::ZERO);
    [o, z, z, z, z, z, o, z, z, o, z, z, z, z, z, o]
};

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
    /// SVDs made: one per gauge move of the center and one per truncating
    /// split.
    pub(crate) svds: usize,
    /// Prefix-tree nodes the sampler contracted: one per distinct outcome
    /// prefix of each chunk of shots, the empty prefix included.
    pub(crate) sample_nodes: usize,
    scratch: Scratch,
}

/// Storage the state's updates reuse from one call to the next.
#[derive(Clone, Debug, Default)]
struct Scratch {
    svd: SvdWorkspace,
    /// A block update's merged sites, or a gauge move's factor.
    a: Vec<C64>,
    /// The blob a block update splits, which becomes its last site, or
    /// the product a gauge move leaves in the neighbour.
    b: Vec<C64>,
    /// A block update's blob index to gate-local index, and one fibre in
    /// and out.
    local: Vec<usize>,
    fibre: Vec<C64>,
    /// The router's operand order.
    order: Vec<usize>,
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
            svds: 0,
            sample_nodes: 0,
            scratch: Scratch::default(),
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
        let Scratch { svd, a, b, .. } = &mut self.scratch;
        let (head, tail) = self.sites.split_at_mut(c + 1);
        let (site, right) = (&mut head[c], &mut tail[0]);
        svd.factor(site.dl * 2, site.dr, &site.data);
        self.svds += 1;
        let rank = effective_rank(svd.s());
        u_into(svd, rank, &mut site.data);
        site.dr = rank;
        // Absorb S V^dag into the right neighbour over its left bond.
        s_vdag_into(svd, rank, a);
        matmul_into(a, rank, right.dl, &right.data, 2 * right.dr, b);
        std::mem::swap(&mut right.data, b);
        right.dl = rank;
        self.center += 1;
    }

    /// Right-orthogonalizes the center site and moves the center one left.
    fn shift_left(&mut self) {
        let c = self.center;
        let Scratch { svd, a, b, .. } = &mut self.scratch;
        let (head, tail) = self.sites.split_at_mut(c);
        let (left, site) = (&mut head[c - 1], &mut tail[0]);
        svd.factor(site.dl, 2 * site.dr, &site.data);
        self.svds += 1;
        let rank = effective_rank(svd.s());
        vdag_into(svd, rank, &mut site.data);
        site.dl = rank;
        // Absorb U S into the left neighbour over its right bond.
        u_s_into(svd, rank, a);
        matmul_into(&left.data, left.dl * 2, left.dr, a, rank, b);
        std::mem::swap(&mut left.data, b);
        left.dr = rank;
        self.center -= 1;
    }

    // --- gate application ------------------------------------------------------

    /// Applies any gate from the IR: a one-qubit gate acts on its site's
    /// physical index from a stack 2×2, anything wider is one block update
    /// through the router (a two-qubit gate's matrix from a stack 4×4).
    pub fn apply(&mut self, gate: &Gate) {
        let qs = gate.operands();
        match qs.len() {
            1 => {
                let u = gate.matrix_1q().expect("a one-qubit gate has a 2x2 matrix");
                self.sites[qs[0]].apply_phys(&u);
            }
            2 => {
                let u = gate.matrix_2q().expect("a two-qubit gate has a 4x4 matrix");
                self.apply_block(&qs, &u);
            }
            _ => self.apply_block(&qs, gate.matrix().as_slice()),
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

    /// The router: applies the row-major `u` (gate-local bit `j` on qubit
    /// `qs[j]`) to any operands, however far apart. The operands are taken
    /// in site order, and each, lowest first, is swapped down next to the
    /// one before it, so they sit on `lo..lo+k`; moving one down shifts
    /// only sites below the next, so every operand starts from its own
    /// site. The routing swaps are block updates too, undone in reverse
    /// order afterwards.
    fn apply_block(&mut self, qs: &[usize], u: &[C64]) {
        let mut order = std::mem::take(&mut self.scratch.order);
        order.clear();
        order.extend(0..qs.len());
        order.sort_unstable_by_key(|&j| qs[j]);
        assert!(
            order.windows(2).all(|w| qs[w[0]] < qs[w[1]]),
            "gate operands must be distinct"
        );
        let lo = qs[order[0]];
        for (j, &g) in order.iter().enumerate().skip(1) {
            for site in (lo + j..qs[g]).rev() {
                self.update(site, &SWAP, &[0, 1]);
            }
        }
        self.update(lo, u, &order);
        for (j, &g) in order.iter().enumerate().skip(1).rev() {
            for site in lo + j..qs[g] {
                self.update(site, &SWAP, &[0, 1]);
            }
        }
        self.scratch.order = order;
    }

    /// The block update on the `k = bits.len()` adjacent sites from `base`,
    /// where `bits[j]` is the gate-local bit of site `base + j`: merge the
    /// sites into one blob over the shared bonds, apply the row-major `u`
    /// to each `(l, r)` fibre with its columns in gate-local order, and
    /// split the blob back site by site with `k - 1` truncated SVDs,
    /// leaving the orthogonality center on the last site.
    ///
    /// The blob is row-major `(l, P, r)` with site `base` as the most
    /// significant bit of `P`, so its rows `(l, p_base)` against columns
    /// `(rest, r)` are the first split's matrix as laid out, and each
    /// split's `S·V†` is the blob of the sites left.
    fn update(&mut self, base: usize, u: &[C64], bits: &[usize]) {
        let k = bits.len();
        let dim = 1usize << k;
        assert_eq!(
            u.len(),
            dim * dim,
            "a {k}-site update takes a {dim}x{dim} gate"
        );
        self.move_center_to(base);
        let (dl, dr) = (self.sites[base].dl, self.sites[base + k - 1].dr);
        let Scratch {
            a: blob,
            b: theta,
            local,
            fibre,
            ..
        } = &mut self.scratch;
        merge(&self.sites[base].data, &self.sites[base + 1], blob);
        for site in &self.sites[base + 2..base + k] {
            merge(blob, site, theta);
            std::mem::swap(blob, theta);
        }

        // Blob index P -> gate-local index.
        local.clear();
        local.extend((0..dim).map(|p| {
            (0..k)
                .map(|j| ((p >> (k - 1 - j)) & 1) << bits[j])
                .sum::<usize>()
        }));
        let (mut rows, mut cols) = (dl * 2, (dim / 2) * dr);
        theta.clear();
        theta.resize(rows * cols, C64::ZERO);
        fibre.clear();
        fibre.resize(2 * dim, C64::ZERO);
        let (v, w) = fibre.split_at_mut(dim);
        for l in 0..dl {
            for r in 0..dr {
                for (p, &g) in local.iter().enumerate() {
                    v[g] = blob[(l * dim + p) * dr + r];
                }
                for (slot, row) in w.iter_mut().zip(u.chunks_exact(dim)) {
                    let mut acc = C64::ZERO;
                    for (&m, &x) in row.iter().zip(v.iter()) {
                        acc = m.mul_add(x, acc);
                    }
                    *slot = acc;
                }
                for (p, &g) in local.iter().enumerate() {
                    theta[(l * dim + p) * dr + r] = w[g];
                }
            }
        }

        for site in base..base + k - 1 {
            let keep = self.truncated_split(site, rows, cols);
            // The rest, `S·V†`, as the next split's rows `(l, p_next)`.
            (rows, cols) = if site + 2 < base + k {
                (keep * 2, cols / 2)
            } else {
                (keep, cols)
            };
        }
        let last = &mut self.sites[base + k - 1];
        std::mem::swap(&mut last.data, &mut self.scratch.b);
        (last.dl, last.dr) = (rows, dr);
        self.center = base + k - 1;
    }

    /// The truncation rule, and the only place it is applied: a truncated
    /// SVD `θ ≈ U·S·V†` of the `rows x cols` blob in the scratch buffer
    /// that keeps at most `chi_max` singular values, drops tail values
    /// whose squared weight relative to the total is at most `trunc_eps`,
    /// books the discarded weight and the kept rank, and renormalises
    /// `S·V†` to the full norm. `U` becomes `site`, `S·V†` replaces the
    /// blob, and the kept rank is returned.
    fn truncated_split(&mut self, site: usize, rows: usize, cols: usize) -> usize {
        let Scratch { svd, b: theta, .. } = &mut self.scratch;
        svd.factor(rows, cols, theta);
        self.svds += 1;
        let s = svd.s();
        let total: f64 = s.iter().map(|s| s * s).sum();
        let mut keep = effective_rank(s).min(self.chi_max);
        while keep > 1 {
            let tail: f64 = s[keep - 1] * s[keep - 1];
            if tail / total > self.trunc_eps {
                break;
            }
            keep -= 1;
        }
        let kept: f64 = s[..keep].iter().map(|s| s * s).sum();
        self.trunc_error += (total - kept).max(0.0);
        self.max_bond_seen = self.max_bond_seen.max(keep);
        let scale = if kept > 0.0 {
            (total / kept).sqrt()
        } else {
            1.0
        };
        let left = &mut self.sites[site];
        u_into(svd, keep, &mut left.data);
        (left.dl, left.dr) = (rows / 2, keep);
        s_vdag_into(svd, keep, theta);
        for z in theta.iter_mut() {
            *z = z.scale(scale);
        }
        keep
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
    ///
    /// Shot `s` reads the uniforms `s·n .. s·n + n` of `rng`, one per site
    /// in order, and takes bit 1 at site `k` when `u·total >= p0`. The
    /// uniforms are drawn a chunk of [`SAMPLE_CHUNK`] shots at a time, and
    /// the chunk's shots are walked as a prefix tree: each node contracts
    /// its environment with the site once, splits its shots stably on
    /// their bit, and descends into each non-empty child with the child's
    /// normalised vector, held in one buffer per depth. Every shot so sees
    /// the environment vectors, and draws the bits, of a walk of its own.
    pub fn sample(&mut self, shots: usize, rng: &mut Rng) -> Vec<u64> {
        self.move_center_to(0);
        let n = self.sites.len();
        let chunk = shots.min(SAMPLE_CHUNK);
        let mut walk = Walk {
            sites: &self.sites,
            first: 0,
            uniforms: Vec::with_capacity(chunk * n),
            spill: Vec::with_capacity(chunk),
            draws: vec![0; shots],
            nodes: 0,
        };
        let mut group = Vec::with_capacity(chunk);
        // Site k's two child vectors, (w0 | w1), after those of the sites
        // before it.
        let mut env = vec![C64::ZERO; self.sites.iter().map(|s| 2 * s.dr).sum()];
        for first in (0..shots).step_by(SAMPLE_CHUNK) {
            let len = chunk.min(shots - first);
            walk.first = first;
            walk.uniforms.clear();
            walk.uniforms.extend((0..len * n).map(|_| rng.next_f64()));
            group.clear();
            group.extend(first..first + len);
            walk.node(0, &[C64::ONE], &mut group, &mut env, 0);
        }
        self.sample_nodes += walk.nodes;
        walk.draws
    }
}

/// The sampler's prefix tree over one chunk of shots.
struct Walk<'a> {
    sites: &'a [Tensor3],
    /// The chunk's first shot.
    first: usize,
    /// The chunk's uniforms, shot-major: shot `first + s` at site `k` is
    /// `uniforms[s·n + k]`.
    uniforms: Vec<f64>,
    /// The shots a partition moves behind the rest.
    spill: Vec<usize>,
    draws: Vec<u64>,
    nodes: usize,
}

impl Walk<'_> {
    /// The node at depth `k` with environment `v`, holding `shots` (in
    /// shot order) whose outcomes on sites `0..k` are the bits of `index`.
    /// `env` holds the child vectors of this depth and every deeper one.
    fn node(&mut self, k: usize, v: &[C64], shots: &mut [usize], env: &mut [C64], index: u64) {
        let Some(site) = self.sites.get(k) else {
            for &s in shots.iter() {
                self.draws[s] = index;
            }
            return;
        };
        self.nodes += 1;
        let (here, deeper) = env.split_at_mut(2 * site.dr);
        let (w0, w1) = here.split_at_mut(site.dr);
        w0.fill(C64::ZERO);
        w1.fill(C64::ZERO);
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
        // Stable partition: the shots drawing 0 first, then those drawing 1.
        let (n, first) = (self.sites.len(), self.first);
        self.spill.clear();
        let mut zeros = 0;
        for i in 0..shots.len() {
            let s = shots[i];
            if self.uniforms[(s - first) * n + k] * total >= p0 {
                self.spill.push(s);
            } else {
                shots[zeros] = s;
                zeros += 1;
            }
        }
        shots[zeros..].copy_from_slice(&self.spill);
        let (draw0, draw1) = shots.split_at_mut(zeros);
        for (bit, group, w, p) in [(0u64, draw0, w0, p0), (1, draw1, w1, p1)] {
            if group.is_empty() {
                continue;
            }
            let inv = 1.0 / p.sqrt();
            for z in w.iter_mut() {
                *z = z.scale(inv);
            }
            self.node(k + 1, w, group, deeper, index | (bit << k));
        }
    }
}

/// Number of singular values above numerical noise.
fn effective_rank(s: &[f64]) -> usize {
    let s0 = s.first().copied().unwrap_or(0.0);
    let cutoff = s0 * 1e-14;
    s.iter().take_while(|&&x| x > cutoff).count().max(1)
}

/// `out = U[.., ..k]`, row-major.
fn u_into(f: &SvdWorkspace, k: usize, out: &mut Vec<C64>) {
    let rows = f.u_col(0).len();
    out.clear();
    out.extend((0..rows).flat_map(|i| (0..k).map(move |j| f.u_col(j)[i])));
}

/// `out = U[.., ..k] * diag(s[..k])`, row-major.
fn u_s_into(f: &SvdWorkspace, k: usize, out: &mut Vec<C64>) {
    let (rows, s) = (f.u_col(0).len(), f.s());
    out.clear();
    out.extend((0..rows).flat_map(|i| (0..k).map(move |j| f.u_col(j)[i].scale(s[j]))));
}

/// `out = V[.., ..k]^dagger`, row-major.
fn vdag_into(f: &SvdWorkspace, k: usize, out: &mut Vec<C64>) {
    out.clear();
    out.extend((0..k).flat_map(|i| f.v_col(i).iter().map(|z| z.conj())));
}

/// `out = diag(s[..k]) * V[.., ..k]^dagger`, row-major.
fn s_vdag_into(f: &SvdWorkspace, k: usize, out: &mut Vec<C64>) {
    let s = f.s();
    out.clear();
    out.extend((0..k).flat_map(|i| f.v_col(i).iter().map(move |z| z.conj().scale(s[i]))));
}

/// `out = a * b` for row-major `a` (`rows x inner`) and `b` (`inner x
/// cols`): each entry sums over `inner` in order with `mul_add`, from
/// zero, skipping zero entries of `a`.
fn matmul_into(a: &[C64], rows: usize, inner: usize, b: &[C64], cols: usize, out: &mut Vec<C64>) {
    out.clear();
    out.resize(rows * cols, C64::ZERO);
    for (row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
        for (&x, b_row) in row.iter().zip(b.chunks_exact(cols)) {
            if x == C64::ZERO {
                continue;
            }
            for (o, &y) in out_row.iter_mut().zip(b_row) {
                *o = x.mul_add(y, *o);
            }
        }
    }
}

/// Contracts a row-major `(rows, right.dl)` block with the next site over
/// their shared bond into `out`, a `(rows, 2, right.dr)` block: each entry
/// sums over the bond in order with `mul_add`, from zero, skipping zero
/// terms.
fn merge(left: &[C64], right: &Tensor3, out: &mut Vec<C64>) {
    let cols = 2 * right.dr;
    out.clear();
    out.resize(left.len() / right.dl * cols, C64::ZERO);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::approx_eq;
    use qfw_num::complex::c64;
    use qfw_num::decomp::qr;
    use qfw_num::Matrix;
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

/// The sampler, the SVD and the updates held to the code they replaced:
/// the walk that contracted every site once per shot, the Jacobi SVD that
/// copied out two columns per pair step, and the updates that factored
/// through `Matrix` copies of the sites. All three live only here, as
/// oracles, and the new code must match them to the bit.
#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;
    use qfw_num::decomp::svd;
    use qfw_num::matrix::inner;
    use qfw_num::Matrix;
    use qfw_testkit::random_circuit;
    use std::sync::Arc;

    /// Today's state on `n` qubits: `len` gates of the shared generator, then,
    /// from three qubits on, a Toffoli and an opaque three-qubit block on
    /// unsorted, non-adjacent operands, so the router and the three-site
    /// update run too.
    fn circuit(n: usize, len: usize, seed: u64) -> Circuit {
        let mut qc = if n > 1 {
            random_circuit(n, len, seed)
        } else {
            Circuit::new(1)
        };
        let mut rng = Rng::seed_from(seed ^ 0x5eed);
        if n == 1 {
            for _ in 0..len {
                qc.rx(0, rng.uniform(-3.0, 3.0)).h(0).t(0);
            }
        }
        if n >= 3 {
            let q = rng.index(n);
            let (a, b) = ((q + 1 + rng.index(n - 1)) % n, (q + n - 1) % n);
            if a != b {
                qc.ccx(a, q, b);
                let m = Matrix::from_fn(8, 8, |_, _| {
                    qfw_num::complex::c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                });
                qc.push(Gate::Unitary {
                    qubits: vec![b, q, a],
                    matrix: Arc::new(qfw_num::decomp::qr(&m).q),
                    label: "u3".into(),
                });
            }
        }
        qc
    }

    fn bits(z: &[C64]) -> Vec<(u64, u64)> {
        z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    // --- the sampler ---------------------------------------------------------

    /// The per-shot walk: every shot contracts every site from the left.
    fn sample_per_shot(state: &mut MpsState, shots: usize, rng: &mut Rng) -> Vec<u64> {
        state.move_center_to(0);
        let mut draws = Vec::with_capacity(shots);
        let (mut v, mut w0, mut w1) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..shots {
            v.clear();
            v.push(C64::ONE);
            let mut index = 0u64;
            for (kk, site) in state.sites.iter().enumerate() {
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

    // --- the SVD -------------------------------------------------------------

    struct Factors {
        u: Matrix,
        s: Vec<f64>,
        v: Matrix,
    }

    /// One-sided Jacobi on a row-major working copy, two columns copied out
    /// per pair step.
    fn svd_by_columns(a: &Matrix) -> Factors {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            let t = svd_by_columns(&a.dagger());
            return Factors {
                u: t.v,
                s: t.s,
                v: t.u,
            };
        }
        let mut w = a.clone();
        let mut v = Matrix::identity(n);
        let tol = 1e-14 * a.frobenius_norm().max(1.0);
        for _ in 0..60 {
            let mut off = 0.0_f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    let cp = w.col(p);
                    let cq = w.col(q);
                    let apq = inner(&cp, &cq);
                    let app: f64 = cp.iter().map(|z| z.norm_sqr()).sum();
                    let aqq: f64 = cq.iter().map(|z| z.norm_sqr()).sum();
                    let mag = apq.abs();
                    off = off.max(mag);
                    if mag <= tol * (app.sqrt() * aqq.sqrt()).max(1e-300) {
                        continue;
                    }
                    let phase = apq / mag;
                    let theta = 0.5 * (2.0 * mag).atan2(app - aqq);
                    let (c, s) = (theta.cos(), theta.sin());
                    rotate_cols(&mut w, p, q, c, s, phase);
                    rotate_cols(&mut v, p, q, c, s, phase);
                }
            }
            if off <= tol {
                break;
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        let norms: Vec<f64> = (0..n)
            .map(|j| w.col(j).iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt())
            .collect();
        order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());
        let mut u = Matrix::zeros(m, n);
        let mut vv = Matrix::zeros(n, n);
        let mut s = Vec::with_capacity(n);
        for (dst, &src) in order.iter().enumerate() {
            let sigma = norms[src];
            s.push(sigma);
            let inv = if sigma > 0.0 { 1.0 / sigma } else { 0.0 };
            for i in 0..m {
                u[(i, dst)] = w[(i, src)].scale(inv);
            }
            for i in 0..n {
                vv[(i, dst)] = v[(i, src)];
            }
        }
        Factors { u, s, v: vv }
    }

    fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64, phase: C64) {
        for i in 0..m.rows() {
            let a = m[(i, p)];
            let b = m[(i, q)] * phase.conj();
            m[(i, p)] = a.scale(c) + b.scale(s);
            m[(i, q)] = (b.scale(c) - a.scale(s)) * phase;
        }
    }

    /// A `rows x cols` matrix of the given kind: 0 dense, 1 of rank at most
    /// two, 2 with repeated and zero columns, 3 zero.
    fn matrix(rows: usize, cols: usize, kind: u64, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        let mut draw = || qfw_num::complex::c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        match kind {
            0 => Matrix::from_fn(rows, cols, |_, _| draw()),
            1 => {
                let (x, y) = (
                    Matrix::from_fn(rows, 2, |_, _| draw()),
                    Matrix::from_fn(2, cols, |_, _| draw()),
                );
                x.matmul(&y)
            }
            2 => {
                let base = Matrix::from_fn(rows, 2, |_, _| draw());
                Matrix::from_fn(rows, cols, |i, j| {
                    if j % 3 == 2 {
                        C64::ZERO
                    } else {
                        base[(i, j % 2)]
                    }
                })
            }
            _ => Matrix::zeros(rows, cols),
        }
    }

    // --- the updates ---------------------------------------------------------

    /// The state as the updates left it: every site, the center, and the books.
    type Snapshot = (
        Vec<(usize, usize, Vec<(u64, u64)>)>,
        usize,
        u64,
        usize,
        usize,
    );

    fn snapshot(s: &MpsState) -> Snapshot {
        let sites = s
            .sites
            .iter()
            .map(|t| (t.dl, t.dr, bits(&t.data)))
            .collect();
        (
            sites,
            s.center,
            s.trunc_error.to_bits(),
            s.max_bond_seen,
            s.svds,
        )
    }

    /// The updates through `Matrix` copies: every factor a fresh matrix, every
    /// site rebuilt from one, each gate through `Gate::matrix`.
    struct ByMatrices(MpsState);

    impl ByMatrices {
        fn left(t: &Tensor3) -> Matrix {
            Matrix::from_rows(t.dl * 2, t.dr, &t.data)
        }

        fn right(t: &Tensor3) -> Matrix {
            Matrix::from_rows(t.dl, 2 * t.dr, &t.data)
        }

        fn site(m: &Matrix, dl: usize, dr: usize) -> Tensor3 {
            Tensor3 {
                dl,
                dr,
                data: m.as_slice().to_vec(),
            }
        }

        fn factor(&mut self, m: &Matrix) -> Factors {
            self.0.svds += 1;
            let f = svd(m);
            Factors {
                u: f.u,
                s: f.s,
                v: f.v,
            }
        }

        fn move_center_to(&mut self, k: usize) {
            while self.0.center < k {
                let c = self.0.center;
                let f = self.factor(&Self::left(&self.0.sites[c]));
                let rank = effective_rank(&f.s);
                let u = Matrix::from_fn(f.u.rows(), rank, |i, j| f.u[(i, j)]);
                let sv = Matrix::from_fn(rank, f.v.rows(), |i, j| f.v[(j, i)].conj().scale(f.s[i]));
                self.0.sites[c] = Self::site(&u, self.0.sites[c].dl, rank);
                let right = &self.0.sites[c + 1];
                let merged = sv.matmul(&Self::right(right));
                self.0.sites[c + 1] = Self::site(&merged, rank, right.dr);
                self.0.center += 1;
            }
            while self.0.center > k {
                let c = self.0.center;
                let f = self.factor(&Self::right(&self.0.sites[c]));
                let rank = effective_rank(&f.s);
                let vdag = Matrix::from_fn(f.v.rows(), rank, |i, j| f.v[(i, j)]).dagger();
                let us = Matrix::from_fn(f.u.rows(), rank, |i, j| f.u[(i, j)].scale(f.s[j]));
                self.0.sites[c] = Self::site(&vdag, rank, self.0.sites[c].dr);
                let left = &self.0.sites[c - 1];
                let merged = Self::left(left).matmul(&us);
                self.0.sites[c - 1] = Self::site(&merged, left.dl, rank);
                self.0.center -= 1;
            }
        }

        fn apply(&mut self, gate: &Gate) {
            let qs = gate.qubits();
            if qs.len() == 1 {
                let t = &mut self.0.sites[qs[0]];
                let u = gate.matrix();
                for l in 0..t.dl {
                    for r in 0..t.dr {
                        let (t0, t1) = (t.get(l, 0, r), t.get(l, 1, r));
                        t.set(l, 0, r, u[(0, 0)] * t0 + u[(0, 1)] * t1);
                        t.set(l, 1, r, u[(1, 0)] * t0 + u[(1, 1)] * t1);
                    }
                }
                return;
            }
            let mut order: Vec<usize> = (0..qs.len()).collect();
            order.sort_unstable_by_key(|&j| qs[j]);
            let lo = qs[order[0]];
            let swap = Gate::Swap(0, 1).matrix();
            let mut swaps = Vec::new();
            for (j, &g) in order.iter().enumerate().skip(1) {
                for site in (lo + j..qs[g]).rev() {
                    self.update(site, &swap, &[0, 1]);
                    swaps.push(site);
                }
            }
            self.update(lo, &gate.matrix(), &order);
            for &site in swaps.iter().rev() {
                self.update(site, &swap, &[0, 1]);
            }
        }

        fn update(&mut self, base: usize, u: &Matrix, bits: &[usize]) {
            let k = bits.len();
            let dim = 1usize << k;
            self.move_center_to(base);
            let (dl, dr) = (self.0.sites[base].dl, self.0.sites[base + k - 1].dr);
            let mut blob = Vec::new();
            merge(&self.0.sites[base].data, &self.0.sites[base + 1], &mut blob);
            for site in &self.0.sites[base + 2..base + k] {
                let mut next = Vec::new();
                merge(&blob, site, &mut next);
                blob = next;
            }
            let local: Vec<usize> = (0..dim)
                .map(|p| (0..k).map(|j| ((p >> (k - 1 - j)) & 1) << bits[j]).sum())
                .collect();
            let mut theta = Matrix::zeros(dl * 2, (dim / 2) * dr);
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
                        theta.as_mut_slice()[(l * dim + p) * dr + r] = w[g];
                    }
                }
            }
            for site in base..base + k - 1 {
                let (left, rest) = self.truncated_split(&theta);
                self.0.sites[site] = Self::site(&left, theta.rows() / 2, left.cols());
                theta = if site + 2 < base + k {
                    Matrix::from_rows(rest.rows() * 2, rest.cols() / 2, rest.as_slice())
                } else {
                    rest
                };
            }
            self.0.sites[base + k - 1] = Self::site(&theta, theta.rows(), dr);
            self.0.center = base + k - 1;
        }

        fn truncated_split(&mut self, m: &Matrix) -> (Matrix, Matrix) {
            let f = self.factor(m);
            let s = &self.0;
            let total: f64 = f.s.iter().map(|s| s * s).sum();
            let mut keep = effective_rank(&f.s).min(s.chi_max);
            while keep > 1 {
                if f.s[keep - 1] * f.s[keep - 1] / total > s.trunc_eps {
                    break;
                }
                keep -= 1;
            }
            let kept: f64 = f.s[..keep].iter().map(|s| s * s).sum();
            self.0.trunc_error += (total - kept).max(0.0);
            self.0.max_bond_seen = self.0.max_bond_seen.max(keep);
            let scale = if kept > 0.0 {
                (total / kept).sqrt()
            } else {
                1.0
            };
            let mut sv = Matrix::from_fn(keep, f.v.rows(), |i, j| f.v[(j, i)].conj().scale(f.s[i]));
            for z in sv.as_mut_slice() {
                *z = z.scale(scale);
            }
            (Matrix::from_fn(f.u.rows(), keep, |i, j| f.u[(i, j)]), sv)
        }
    }

    /// χ of a case: 2 and 4 truncate, 64 is exact at these sizes.
    const CHI: [usize; 3] = [2, 4, 64];

    /// Shots of a case: one, a few, a typical job, one past a chunk, many.
    const SHOTS: [usize; 5] = [1, 7, 256, SAMPLE_CHUNK + 1, 5000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On 1–24 qubits at every χ and shot count, the prefix tree draws
        /// what the per-shot walk draws, from the same uniforms, and leaves
        /// the generator where the walk leaves it.
        #[test]
        fn prefix_tree_draws_what_the_per_shot_walk_draws(
            n in 1usize..25,
            len in 0usize..40,
            seed in 0u64..u64::MAX,
            chi in 0usize..3,
            shots in 0usize..5,
        ) {
            let mut state = MpsState::zero(n, CHI[chi], 1e-10);
            state.run_unitary(&circuit(n, len, seed));
            let mut walked = state.clone();
            let (mut rng, mut walk_rng) = (Rng::seed_from(seed), Rng::seed_from(seed));
            let shots = SHOTS[shots];
            let want = sample_per_shot(&mut walked, shots, &mut walk_rng);
            let got = state.sample(shots, &mut rng);
            prop_assert_eq!(got, want);
            prop_assert_eq!(rng.next_u64(), walk_rng.next_u64());
            prop_assert!(state.sample_nodes <= shots * n);
        }

        /// The workspace SVD is the column-copying Jacobi to the bit, on tall,
        /// wide and square, dense, low-rank, repeated-column and zero matrices.
        #[test]
        fn svd_is_the_column_copying_jacobi(
            rows in 1usize..13,
            cols in 1usize..13,
            kind in 0u64..4,
            seed in 0u64..u64::MAX,
        ) {
            let a = matrix(rows, cols, kind, seed);
            let (got, want) = (svd(&a), svd_by_columns(&a));
            prop_assert_eq!(bits(got.u.as_slice()), bits(want.u.as_slice()));
            prop_assert_eq!(bits(got.v.as_slice()), bits(want.v.as_slice()));
            let s = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(s(&got.s), s(&want.s));
        }

        /// Gates, gauge moves and the sampler's move to site 0 leave every
        /// site, the center and the books where the `Matrix` updates leave
        /// them.
        #[test]
        fn updates_in_place_are_the_matrix_updates(
            n in 1usize..13,
            len in 0usize..60,
            seed in 0u64..u64::MAX,
            chi in 0usize..3,
        ) {
            let qc = circuit(n, len, seed);
            let mut state = MpsState::zero(n, CHI[chi], 1e-10);
            let mut by = ByMatrices(state.clone());
            for g in qc.gates() {
                state.apply(g);
                by.apply(g);
                prop_assert_eq!(snapshot(&state), snapshot(&by.0));
            }
            state.move_center_to(0);
            by.move_center_to(0);
            prop_assert_eq!(snapshot(&state), snapshot(&by.0));
        }
    }

    /// The SVD at the shapes an MPS factors, up to χ = 64: a `(2χ, χ)` left
    /// move, a `(χ, 2χ)` right move and a `(2χ, 2χ)` two-site blob.
    #[test]
    fn svd_is_the_column_copying_jacobi_at_bond_shapes() {
        for (rows, cols) in [(128, 64), (64, 128), (128, 128), (16, 1), (1, 16)] {
            for kind in 0..4 {
                let a = matrix(rows, cols, kind, (rows * cols) as u64 + kind);
                let (got, want) = (svd(&a), svd_by_columns(&a));
                assert_eq!(
                    bits(got.u.as_slice()),
                    bits(want.u.as_slice()),
                    "{rows}x{cols} kind {kind}: U"
                );
                assert_eq!(
                    bits(got.v.as_slice()),
                    bits(want.v.as_slice()),
                    "{rows}x{cols} kind {kind}: V"
                );
                assert!(got
                    .s
                    .iter()
                    .zip(&want.s)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }
}
