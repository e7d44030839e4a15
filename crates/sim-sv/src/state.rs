//! The dense state vector and its gate-application kernels.
//!
//! Layout: amplitude `amps[i]` is the coefficient of basis state `|i>` with
//! qubit `q` stored in bit `q` of `i` (little-endian, matching the IR).
//!
//! The per-gate kernels run on the calling thread: they partition the
//! amplitude array into *groups* that vary only the gate's target bits,
//! and distinct groups touch disjoint indices, which is what the raw-pointer
//! scatter in the k-qubit kernel relies on. Threads belong to the layer
//! plan's tile executor ([`crate::layers`]), the block sampler
//! ([`draw_blocks`]) and [`StateVector::expectation_diagonal`].

use crate::kernels::MAX_DENSE_QUBITS;
use qfw_circuit::{Circuit, Counts, Gate, Op, Readout};
use qfw_num::complex::{c64, C64};
use qfw_num::rng::{AliasSampler, CdfSampler, Rng};
use qfw_num::Matrix;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Amplitudes per partial sum of [`StateVector::expectation_diagonal`]:
/// its rounding, so every expectation value's bits, follow this length.
const SUM_CHUNK: usize = 1 << 12;

/// Below this many amplitudes read, [`draw_blocks`] draws on the calling
/// thread. Measured on a 2-vCPU host (QAOA states, 512 and 1024 shots),
/// the workers' hand-off costs more than they save up to 2^14 amplitudes,
/// breaks even at 2^15 and saves 17-39 % at 2^16 to 2^18.
const PAR_DRAW: usize = 1 << 16;

/// A dense `2^n` state vector.
#[derive(Clone, Debug)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0...0>`.
    pub fn zero(n: usize) -> Self {
        assert!(n <= 30, "refusing to allocate a >2^30 amplitude vector");
        let mut amps = vec![C64::ZERO; 1 << n];
        amps[0] = C64::ONE;
        StateVector { n, amps }
    }

    /// Builds from raw amplitudes (length must be a power of two).
    pub fn from_amps(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(len.is_power_of_two(), "amplitude count must be 2^n");
        StateVector {
            n: len.trailing_zeros() as usize,
            amps,
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The raw amplitudes.
    #[inline]
    pub fn amps(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable access to the raw amplitudes, for in-place shard surgery
    /// (distributed collapse and remap paths).
    #[inline]
    pub(crate) fn amps_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Consumes the state and returns its amplitudes.
    pub fn into_amps(self) -> Vec<C64> {
        self.amps
    }

    /// Squared norm (should stay 1 under unitary evolution).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Measurement probability of basis state `i`.
    #[inline]
    pub fn probability(&self, i: usize) -> f64 {
        self.amps[i].norm_sqr()
    }

    /// Applies one gate. `parallel` is accepted and ignored: the per-gate
    /// kernels run on the calling thread, and a threaded job runs the
    /// layer plan instead.
    pub fn apply(&mut self, gate: &Gate, _parallel: bool) {
        match gate {
            // Diagonal fast paths: pure per-amplitude phases, no scatter.
            Gate::Z(q) => self.apply_phase_if(*q, -C64::ONE),
            Gate::S(q) => self.apply_phase_if(*q, C64::I),
            Gate::Sdg(q) => self.apply_phase_if(*q, -C64::I),
            Gate::T(q) => self.apply_phase_if(*q, C64::cis(std::f64::consts::FRAC_PI_4)),
            Gate::Tdg(q) => self.apply_phase_if(*q, C64::cis(-std::f64::consts::FRAC_PI_4)),
            Gate::Phase(q, t) => self.apply_phase_if(*q, C64::cis(*t)),
            Gate::Rz(q, t) => self.apply_rz(*q, *t),
            Gate::Cz(a, b) => self.apply_cz(*a, *b),
            Gate::Cp(c, t, theta) => self.apply_cphase(*c, *t, C64::cis(*theta)),
            Gate::Rzz(a, b, t) => self.apply_rzz(*a, *b, *t),
            // X is a pure bit-flip permutation: cheaper than a dense 1q kernel.
            Gate::X(q) => self.apply_x(*q),
            Gate::Cx(c, t) => self.apply_cx(*c, *t),
            Gate::Ccx(a, b, t) => self.apply_ccx(*a, *b, *t),
            // Everything else goes through dense kernels by arity, except
            // that any remaining diagonal gate (Crz, fused diagonal Unitary
            // blocks) gets a single strided phase sweep.
            g => {
                let qs = g.qubits();
                if let Some(d) = g.diagonal() {
                    self.apply_diag_kq(&qs, &d);
                    return;
                }
                let m = g.matrix();
                match qs.len() {
                    1 => self.apply_1q(qs[0], &m),
                    2 => self.apply_2q(qs[0], qs[1], &m),
                    _ => self.apply_kq(&qs, &m),
                }
            }
        }
    }

    /// The reduced 2x2 density matrix of qubit `q` (row-major
    /// `[rho00, rho01, rho10, rho11]`), traced over every other qubit.
    /// The Kraus trajectory sampler uses it to weigh branch
    /// probabilities `tr(K rho K^dag)` without touching amplitudes.
    pub fn reduced_density_1q(&self, q: usize) -> [C64; 4] {
        let bit = 1usize << q;
        let mut r00 = 0.0;
        let mut r11 = 0.0;
        let mut r01 = C64::ZERO;
        for i in 0..self.amps.len() {
            if i & bit != 0 {
                continue;
            }
            let (a0, a1) = (self.amps[i], self.amps[i | bit]);
            r00 += a0.norm_sqr();
            r11 += a1.norm_sqr();
            r01 += a0 * a1.conj();
        }
        [c64(r00, 0.0), r01, r01.conj(), c64(r11, 0.0)]
    }

    /// Applies an arbitrary — not necessarily unitary — 2x2 operator to
    /// qubit `q` (row-major matrix). Kraus operators come through here;
    /// callers renormalize afterwards via [`Self::scale`].
    pub fn apply_matrix_1q(&mut self, q: usize, m: &[C64; 4]) {
        let (u00, u01, u10, u11) = (m[0], m[1], m[2], m[3]);
        self.apply_pairwise(q, move |a, b| {
            let (x, y) = (*a, *b);
            *a = u00 * x + u01 * y;
            *b = u10 * x + u11 * y;
        });
    }

    /// Multiplies every amplitude by the real scalar `f`
    /// (renormalization after a non-unitary Kraus application).
    pub fn scale(&mut self, f: f64) {
        for a in &mut self.amps {
            *a = a.scale(f);
        }
    }

    /// Runs the unitary part of a circuit (measurements/barriers skipped).
    pub fn run_unitary(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.n, "register size mismatch");
        for op in circuit.ops() {
            if let Op::Gate(g) = op {
                self.apply(g, false);
            }
        }
    }

    // --- strided iteration helpers ------------------------------------------

    /// Applies `f` to every `(bit q = 0, bit q = 1)` amplitude pair: the
    /// one place that knows how to split the register around one qubit.
    fn apply_pairwise(&mut self, q: usize, f: impl Fn(&mut C64, &mut C64)) {
        let stride = 1usize << q;
        for chunk in self.amps.chunks_mut(stride << 1) {
            let (lo, hi) = chunk.split_at_mut(stride);
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                f(a, b);
            }
        }
    }

    /// Applies `f` to every amplitude whose bit `q` is 1 — exactly half the
    /// register, visited in contiguous runs with no per-index branch.
    fn for_each_one(&mut self, q: usize, f: impl Fn(&mut C64)) {
        let stride = 1usize << q;
        for chunk in self.amps.chunks_mut(stride << 1) {
            chunk[stride..].iter_mut().for_each(&f);
        }
    }

    /// Applies `f` to every amplitude whose bits `a` and `b` are both 1 —
    /// a quarter of the register, visited as contiguous runs of
    /// `2^min(a, b)` by nesting block sweeps around the two bits instead of
    /// scanning everything with a mask branch.
    fn for_each_11(&mut self, a: usize, b: usize, f: impl Fn(&mut C64)) {
        debug_assert_ne!(a, b);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (slo, shi) = (1usize << lo, 1usize << hi);
        // Within the hi=1 half of each block, the lo=1 amplitudes are the
        // upper halves of the sub-blocks around the low bit.
        for chunk in self.amps.chunks_mut(shi << 1) {
            for sub in chunk[shi..].chunks_mut(slo << 1) {
                sub[slo..].iter_mut().for_each(&f);
            }
        }
    }

    /// What the raw-pointer kernels below rely on: ascending `sorted`
    /// targets are distinct qubits of this register.
    fn check_targets(&self, sorted: &[usize]) {
        assert!(
            sorted.windows(2).all(|w| w[0] < w[1]) && sorted.last().is_some_and(|&q| q < self.n),
            "gate targets {sorted:?} must be distinct qubits of a {}-qubit register",
            self.n
        );
    }

    // --- diagonal / permutation kernels -------------------------------------

    /// Multiplies amplitudes whose bit `q` is 1 by `phase`.
    fn apply_phase_if(&mut self, q: usize, phase: C64) {
        self.for_each_one(q, move |a| *a *= phase);
    }

    fn apply_rz(&mut self, q: usize, t: f64) {
        let (p0, p1) = (C64::cis(-t / 2.0), C64::cis(t / 2.0));
        self.apply_pairwise(q, move |a, b| {
            *a *= p0;
            *b *= p1;
        });
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        self.for_each_11(a, b, |amp| *amp = -*amp);
    }

    fn apply_cphase(&mut self, c: usize, t: usize, phase: C64) {
        self.for_each_11(c, t, move |amp| *amp *= phase);
    }

    fn apply_rzz(&mut self, a: usize, b: usize, t: f64) {
        let (aligned, anti) = (C64::cis(-t / 2.0), C64::cis(t / 2.0));
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (slo, shi) = (1usize << lo, 1usize << hi);
        // Every amplitude gets one of two phases keyed by the parity of
        // bits a and b; sweep in contiguous runs around the low bit, with
        // the phase pair swapping between the two halves of the high bit.
        let sweep = |half: &mut [C64], p0: C64, p1: C64| {
            for sub in half.chunks_mut(slo << 1) {
                let (z, o) = sub.split_at_mut(slo);
                for amp in z {
                    *amp *= p0;
                }
                for amp in o {
                    *amp *= p1;
                }
            }
        };
        for chunk in self.amps.chunks_mut(shi << 1) {
            let (lo_half, hi_half) = chunk.split_at_mut(shi);
            sweep(lo_half, aligned, anti);
            sweep(hi_half, anti, aligned);
        }
    }

    fn apply_x(&mut self, q: usize) {
        // A pure permutation: swap each block's halves wholesale — bulk
        // slice swaps vectorize where a per-pair closure does not.
        let stride = 1usize << q;
        for chunk in self.amps.chunks_mut(stride << 1) {
            let (lo, hi) = chunk.split_at_mut(stride);
            lo.swap_with_slice(hi);
        }
    }

    fn apply_cx(&mut self, c: usize, t: usize) {
        let (cm, tm) = (1usize << c, 1usize << t);
        let (lo, hi) = if c < t { (c, t) } else { (t, c) };
        self.check_targets(&[lo, hi]);
        let run = 1usize << lo;
        let runs = self.amps.len() >> (lo + 2);
        let p = self.amps.as_mut_ptr();
        // control=1/target=0 indices come in contiguous runs of `run`
        // (bits below `lo` pass through the insertions); each run swaps
        // wholesale with its target=1 partner run.
        for r in 0..runs {
            let i = insert_zero_bit(insert_zero_bit(r << lo, lo), hi) | cm;
            // SAFETY: `r < 2^(n-lo-2)` spreads around `lo` and `hi`, both
            // below `n` (checked), so both runs lie inside the register;
            // they differ in bit t, so they never overlap.
            unsafe {
                std::ptr::swap_nonoverlapping(p.add(i), p.add(i | tm), run);
            }
        }
    }

    /// Toffoli as a strided permutation: one amplitude-pair swap per
    /// 8-element group instead of the generic 8x8 dense matvec.
    fn apply_ccx(&mut self, a: usize, b: usize, t: usize) {
        let cmask = (1usize << a) | (1usize << b);
        let tm = 1usize << t;
        let mut sorted = [a, b, t];
        sorted.sort_unstable();
        self.check_targets(&sorted);
        let run = 1usize << sorted[0];
        let runs = self.amps.len() >> (sorted[0] + 3);
        let p = self.amps.as_mut_ptr();
        for r in 0..runs {
            let i = insert_zero_bits(r << sorted[0], &sorted) | cmask;
            // SAFETY: as for `apply_cx`, around three distinct targets.
            unsafe {
                std::ptr::swap_nonoverlapping(p.add(i), p.add(i | tm), run);
            }
        }
    }

    /// Diagonal k-qubit gate: every amplitude gets exactly one phase factor
    /// selected by its target-bit pattern — one sweep, no gather/scatter.
    /// Used for Crz and for fused diagonal `Unitary` blocks.
    fn apply_diag_kq(&mut self, qs: &[usize], diag: &[C64]) {
        let k = qs.len();
        debug_assert_eq!(diag.len(), 1 << k);
        if k == 1 {
            let (p0, p1) = (diag[0], diag[1]);
            self.apply_pairwise(qs[0], move |a, b| {
                *a *= p0;
                *b *= p1;
            });
            return;
        }
        let dim = 1usize << k;
        let groups = self.amps.len() >> k;
        let mut sorted = qs.to_vec();
        sorted.sort_unstable();
        self.check_targets(&sorted);
        let offsets = local_offsets(qs);
        let p = self.amps.as_mut_ptr();
        for g in 0..groups {
            let base = insert_zero_bits(g, &sorted);
            // SAFETY: `g` spreads into the bits outside the targets and
            // `offsets` sets only target bits, all below `n` (checked).
            unsafe {
                for (local, &phase) in diag.iter().enumerate().take(dim) {
                    *p.add(base | offsets[local]) *= phase;
                }
            }
        }
    }

    // --- dense kernels -------------------------------------------------------

    /// Dense single-qubit gate.
    fn apply_1q(&mut self, q: usize, m: &Matrix) {
        debug_assert_eq!(m.rows(), 2);
        let (u00, u01, u10, u11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        self.apply_pairwise(q, move |a, b| {
            let (x, y) = (*a, *b);
            *a = u00 * x + u01 * y;
            *b = u10 * x + u11 * y;
        });
    }

    /// Dense two-qubit gate, fully unrolled: the hot path for fused 2q
    /// blocks, which would otherwise pay `apply_kq`'s generic scratch
    /// setup on every 4-amplitude group. `a` is local bit 0, `b` local
    /// bit 1 of the 4x4 matrix.
    fn apply_2q(&mut self, a: usize, b: usize, m: &Matrix) {
        debug_assert_eq!(m.rows(), 4);
        let mut u = [C64::ZERO; 16];
        for (i, v) in u.iter_mut().enumerate() {
            *v = m[(i >> 2, i & 3)];
        }
        let (ma, mb) = (1usize << a, 1usize << b);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.check_targets(&[lo, hi]);
        let groups = self.amps.len() >> 2;
        let p = self.amps.as_mut_ptr();
        for g in 0..groups {
            let base = insert_zero_bit(insert_zero_bit(g, lo), hi);
            // SAFETY: `g < 2^(n-2)` spreads around bits `lo` and `hi`, both
            // below `n` (checked), so all four indices are below `2^n`.
            unsafe {
                let (i1, i2, i3) = (base | ma, base | mb, base | ma | mb);
                let (x0, x1, x2, x3) = (*p.add(base), *p.add(i1), *p.add(i2), *p.add(i3));
                *p.add(base) =
                    u[3].mul_add(x3, u[2].mul_add(x2, u[1].mul_add(x1, u[0] * x0)));
                *p.add(i1) =
                    u[7].mul_add(x3, u[6].mul_add(x2, u[5].mul_add(x1, u[4] * x0)));
                *p.add(i2) =
                    u[11].mul_add(x3, u[10].mul_add(x2, u[9].mul_add(x1, u[8] * x0)));
                *p.add(i3) =
                    u[15].mul_add(x3, u[14].mul_add(x2, u[13].mul_add(x1, u[12] * x0)));
            }
        }
    }

    /// Dense k-qubit gate via group scatter. `qs` follows the IR convention:
    /// `qs[j]` is local bit `j` of the gate matrix.
    fn apply_kq(&mut self, qs: &[usize], m: &Matrix) {
        let k = qs.len();
        assert!(
            k <= MAX_DENSE_QUBITS,
            "gates above {MAX_DENSE_QUBITS} qubits are not supported"
        );
        debug_assert_eq!(m.rows(), 1 << k);
        let dim = 1usize << k;
        let groups = self.amps.len() >> k;
        // Sorted copy for spreading group bits around target positions, and
        // a precomputed local-index -> target-bit-mask table; both hoisted
        // out of the per-group loop.
        let mut sorted = qs.to_vec();
        sorted.sort_unstable();
        self.check_targets(&sorted);
        let offsets = local_offsets(qs);
        let p = self.amps.as_mut_ptr();
        for g in 0..groups {
            // Spread the group index bits into the non-target positions.
            let base = insert_zero_bits(g, &sorted);
            // Gather, multiply, scatter. The scratch array stays
            // uninitialized past `dim` — zeroing all 256 slots per group
            // would cost more than the matvec itself at small k.
            let mut vin = [std::mem::MaybeUninit::<C64>::uninit(); 1 << MAX_DENSE_QUBITS];
            for (local, v) in vin.iter_mut().enumerate().take(dim) {
                // SAFETY: `base` has zeros at the targets and `offsets` sets
                // only target bits, all below `n` (checked).
                unsafe {
                    v.write(*p.add(base | offsets[local]));
                }
            }
            for (row, &offset) in offsets.iter().enumerate().take(dim) {
                let mut acc = C64::ZERO;
                let mrow = m.row(row);
                for (col, x) in vin.iter().enumerate().take(dim) {
                    // SAFETY: the first `dim` slots were written above.
                    acc = mrow[col].mul_add(unsafe { x.assume_init() }, acc);
                }
                // SAFETY: the index read above.
                unsafe {
                    *p.add(base | offset) = acc;
                }
            }
        }
    }

    // --- measurement ---------------------------------------------------------

    /// Probability that qubit `q` measures 1. Sums only the bit-`q`=1 half
    /// of the register, in index order.
    pub fn prob_one(&self, q: usize) -> f64 {
        let stride = 1usize << q;
        let block = stride << 1;
        self.amps
            .chunks(block)
            .map(|c| c[stride..].iter().map(|a| a.norm_sqr()).sum::<f64>())
            .sum()
    }

    /// Projectively measures qubit `q`, collapsing the state. Returns the
    /// observed bit. `parallel` is accepted and ignored: the collapse runs
    /// on the calling thread, like every per-gate kernel.
    pub fn measure(&mut self, q: usize, rng: &mut Rng, _parallel: bool) -> u8 {
        let p1 = self.prob_one(q);
        let outcome = u8::from(rng.chance(p1));
        let norm = if outcome == 1 { p1 } else { 1.0 - p1 };
        let scale = if norm > 0.0 { 1.0 / norm.sqrt() } else { 0.0 };
        if outcome == 1 {
            self.apply_pairwise(q, move |a, b| {
                *a = C64::ZERO;
                *b = b.scale(scale);
            });
        } else {
            self.apply_pairwise(q, move |a, b| {
                *a = a.scale(scale);
                *b = C64::ZERO;
            });
        }
        outcome
    }

    /// The full `|amp|^2` probability table.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Draws `shots` basis indices with the canonical *split* scheme: the
    /// index space is cut into `2^split_bits` contiguous blocks (top bits),
    /// a seeded [`CdfSampler`] over per-block masses decides how many shots
    /// each block receives, and each block then draws its shots from a
    /// per-block [`AliasSampler`] seeded by `Rng::stream(seed, block)`
    /// ([`draw_blocks`]).
    ///
    /// Because every step depends only on `(seed, split_bits)` and on
    /// per-block sums computed with fresh accumulators, any block-aligned
    /// distributed partitioning of the register reproduces these draws
    /// bit-for-bit — this is the common sampling contract between the
    /// serial engine and [`crate::dist::DistStateVector`].
    pub fn sample_split(&self, shots: usize, seed: u64, split_bits: usize) -> Vec<u64> {
        self.sample_split_on(shots, seed, split_bits, false)
    }

    /// [`sample_split`](Self::sample_split), drawing the blocks on the
    /// shim's workers when `parallel` is set — the same draws either way.
    pub(crate) fn sample_split_on(
        &self,
        shots: usize,
        seed: u64,
        split_bits: usize,
        parallel: bool,
    ) -> Vec<u64> {
        let block_len = 1usize << (self.n - split_bits.min(self.n));
        let split = block_shot_split(&block_masses(&self.amps, block_len), shots, seed);
        draw_blocks(&self.amps, block_len, 0, &split, seed, parallel)
    }

    /// [`sample_split`](Self::sample_split) as whole-register counts: what
    /// a circuit that measures every qubit into its own bit reads.
    pub fn sample_counts_split(
        &self,
        shots: usize,
        seed: u64,
        split_bits: usize,
    ) -> Counts {
        let whole = Readout::of(&Circuit::new(self.n));
        whole.counts(self.sample_split(shots, seed, split_bits), &BTreeMap::new())
    }

    /// Expectation of a diagonal observable `sum_i f(i) |amp_i|^2`, summed
    /// in fixed chunks of [`SUM_CHUNK`] amplitudes whose partials are
    /// added in index order: the value is the same bits under every
    /// threading mode and worker count (`parallel` only spreads the chunks
    /// over the shim's workers).
    pub fn expectation_diagonal(&self, f: impl Fn(usize) -> f64 + Sync, parallel: bool) -> f64 {
        let chunks = self.amps.len().div_ceil(SUM_CHUNK);
        let chunk = |c: usize| -> f64 {
            let at = c * SUM_CHUNK;
            let amps = &self.amps[at..self.amps.len().min(at + SUM_CHUNK)];
            amps.iter().enumerate().map(|(i, a)| f(at + i) * a.norm_sqr()).sum()
        };
        let mut partials = vec![0.0; chunks];
        if parallel && chunks >= 2 {
            partials.par_iter_mut().enumerate().for_each(|(c, p)| *p = chunk(c));
        } else {
            partials.iter_mut().enumerate().for_each(|(c, p)| *p = chunk(c));
        }
        partials.iter().sum()
    }

    /// Fidelity `|<self|other>|^2` against another state.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n, other.n);
        let ip = self
            .amps
            .iter()
            .zip(other.amps.iter())
            .fold(C64::ZERO, |acc, (a, b)| a.conj().mul_add(*b, acc));
        ip.norm_sqr()
    }
}

/// How many split blocks the canonical sampling scheme uses: enough that
/// any power-of-two world up to `2^rank_bits` ranks gets block-aligned
/// shards, with a floor of [`DEFAULT_SPLIT_BITS`] so serial runs agree
/// with every such world without knowing the rank count in advance.
pub fn canonical_split_bits(n: usize, rank_bits: usize) -> usize {
    n.min(DEFAULT_SPLIT_BITS.max(rank_bits))
}

/// Floor for [`canonical_split_bits`]: serial and distributed sampling
/// replay identically for any world of up to `2^6` ranks.
pub const DEFAULT_SPLIT_BITS: usize = 6;

/// Splits `shots` across blocks proportionally to `masses` with one
/// seeded CDF draw per shot. Exact-boundary draws can land on a
/// zero-mass block; those walk to the nearest nonzero block (downward
/// first) so no block with zero probability ever receives a shot.
pub fn block_shot_split(masses: &[f64], shots: usize, seed: u64) -> Vec<usize> {
    let sampler = CdfSampler::new(masses);
    let mut rng = Rng::seed_from(seed);
    let mut per_block = vec![0usize; masses.len()];
    for _ in 0..shots {
        let mut b = sampler.sample(&mut rng);
        if masses[b] <= 0.0 {
            b = (0..=b)
                .rev()
                .chain(b + 1..masses.len())
                .find(|&i| masses[i] > 0.0)
                .expect("total mass is positive");
        }
        per_block[b] += 1;
    }
    per_block
}

/// Each block's probability mass, summed in index order with a fresh
/// accumulator — the same bits whichever process holds the block.
pub(crate) fn block_masses(amps: &[C64], block_len: usize) -> Vec<f64> {
    amps.chunks(block_len)
        .map(|block| block.iter().map(|a| a.norm_sqr()).sum())
        .collect()
}

/// The one block sampler behind serial and distributed sampling. Block `b`
/// of `amps` (`block_len` amplitudes; block `first + b` of the register)
/// draws `shots[b]` outcomes, as register indices, from an alias table over
/// its probabilities on its own stream `Rng::stream(seed, first + b)`.
/// Only a block that won shots has its probabilities written out, into one
/// block-sized buffer — no `2^n` table. The draws land in block order
/// whichever worker made them, so `parallel` (blocks on the shim's
/// workers once they read [`PAR_DRAW`] amplitudes) changes no bit.
pub(crate) fn draw_blocks(
    amps: &[C64],
    block_len: usize,
    first: usize,
    shots: &[usize],
    seed: u64,
    parallel: bool,
) -> Vec<u64> {
    let mut out = vec![0u64; shots.iter().sum()];
    let mut slots: Vec<(usize, &mut [u64])> = Vec::with_capacity(shots.len());
    let mut rest = out.as_mut_slice();
    for (b, &s) in shots.iter().enumerate() {
        let (slot, tail) = std::mem::take(&mut rest).split_at_mut(s);
        rest = tail;
        if s > 0 {
            slots.push((b, slot));
        }
    }
    // One probability buffer and one alias table per worker.
    let init = || (Vec::with_capacity(block_len), AliasSampler::empty());
    let draw = |(probs, sampler): &mut (Vec<f64>, AliasSampler),
                (b, slot): &mut (usize, &mut [u64])| {
        probs.clear();
        probs.extend(amps[*b * block_len..][..block_len].iter().map(|a| a.norm_sqr()));
        sampler.rebuild(probs);
        let block = first + *b;
        let mut rng = Rng::stream(seed, block as u64);
        for d in slot.iter_mut() {
            *d = ((block * block_len) | sampler.sample(&mut rng)) as u64;
        }
    };
    if parallel && slots.len() >= 2 && slots.len() * block_len >= PAR_DRAW {
        let draw = |scratch: &mut _, (_, slot): (usize, &mut _)| draw(scratch, slot);
        slots.par_iter_mut().enumerate().for_each_init(init, draw);
    } else {
        let mut scratch = init();
        slots.iter_mut().for_each(|slot| draw(&mut scratch, slot));
    }
    out
}

/// Inserts a 0 bit at position `q` of `x`, shifting the bits at and above
/// `q` up by one. Enumerating `g` in `0..2^(n-1)` and inserting at `q`
/// visits exactly the indices whose bit `q` is 0 — the bit-insertion trick
/// every strided kernel uses to touch only the amplitudes a gate affects.
#[inline(always)]
pub(crate) fn insert_zero_bit(x: usize, q: usize) -> usize {
    let low = x & ((1usize << q) - 1);
    ((x >> q) << (q + 1)) | low
}

/// Inserts 0 bits at each position in `sorted_qs` (must be ascending).
#[inline(always)]
pub(crate) fn insert_zero_bits(mut x: usize, sorted_qs: &[usize]) -> usize {
    for &q in sorted_qs {
        x = insert_zero_bit(x, q);
    }
    x
}

/// Local gate index -> OR-mask of global target bits, for every local index.
/// Precomputing this table hoists the per-amplitude bit-spreading loop out
/// of the k-qubit kernels.
pub(crate) fn local_offsets(qs: &[usize]) -> Vec<usize> {
    (0..(1usize << qs.len()))
        .map(|local| {
            let mut off = 0usize;
            for (j, &q) in qs.iter().enumerate() {
                if local & (1 << j) != 0 {
                    off |= 1 << q;
                }
            }
            off
        })
        .collect()
}

/// Reference implementation: applies a gate by building the full `2^n`
/// operator with Kronecker products and dense matvec. Exponentially slow —
/// exists purely as the ground truth for validating the fast kernels.
pub fn apply_via_dense_operator(state: &[C64], gate: &Gate, n: usize) -> Vec<C64> {
    let qs = gate.qubits();
    let m = gate.matrix();
    let dim = 1usize << n;
    let mut full = Matrix::zeros(dim, dim);
    // full[row, col] built by embedding m at target bits, identity elsewhere.
    for col in 0..dim {
        // Extract the local input index from col.
        let mut local_in = 0usize;
        for (j, &q) in qs.iter().enumerate() {
            if col & (1 << q) != 0 {
                local_in |= 1 << j;
            }
        }
        for local_out in 0..m.rows() {
            let coeff = m[(local_out, local_in)];
            if coeff == C64::ZERO {
                continue;
            }
            // Row: col with target bits replaced by local_out bits.
            let mut row = col;
            for (j, &q) in qs.iter().enumerate() {
                row &= !(1 << q);
                if local_out & (1 << j) != 0 {
                    row |= 1 << q;
                }
            }
            full[(row, col)] = coeff;
        }
    }
    full.matvec(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::approx_eq;
    use qfw_num::complex::c64;
    use std::sync::Arc;

    fn random_state(n: usize, seed: u64) -> StateVector {
        let mut rng = Rng::seed_from(seed);
        let mut amps: Vec<C64> = (0..(1 << n))
            .map(|_| c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        qfw_num::matrix::normalize(&mut amps);
        StateVector::from_amps(amps)
    }

    fn assert_states_close(a: &[C64], b: &[C64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                x.approx_eq(*y, tol),
                "{what}: amplitude {i} differs: {x} vs {y}"
            );
        }
    }

    /// Every kernel must match the dense-operator reference on random
    /// states.
    #[test]
    fn kernels_match_dense_reference() {
        let n = 6;
        let gates = vec![
            Gate::H(0),
            Gate::H(5),
            Gate::X(3),
            Gate::Y(2),
            Gate::Z(4),
            Gate::S(1),
            Gate::T(5),
            Gate::Sx(0),
            Gate::Rx(2, 0.7),
            Gate::Ry(4, -0.4),
            Gate::Rz(1, 1.9),
            Gate::Phase(3, 0.3),
            Gate::U(0, 0.5, 1.0, -0.5),
            Gate::Cx(0, 5),
            Gate::Cx(5, 0),
            Gate::Cx(2, 3),
            Gate::Cy(1, 4),
            Gate::Cz(0, 3),
            Gate::Swap(1, 5),
            Gate::Cp(2, 0, 0.8),
            Gate::Crx(3, 1, 0.9),
            Gate::Cry(4, 2, -1.2),
            Gate::Crz(5, 3, 0.6),
            Gate::Rxx(0, 4, 1.1),
            Gate::Ryy(2, 5, 0.2),
            Gate::Rzz(1, 3, -0.7),
            Gate::Ccx(0, 2, 4),
            Gate::Ccx(5, 3, 1),
            Gate::Unitary {
                qubits: vec![4, 1, 3],
                matrix: Arc::new(Gate::Ccx(0, 1, 2).matrix()),
                label: "ccx_blk".into(),
            },
        ];
        for (i, g) in gates.iter().enumerate() {
            let base = random_state(n, 100 + i as u64);
            let want = apply_via_dense_operator(base.amps(), g, n);
            let mut got = base.clone();
            got.apply(g, false);
            assert_states_close(got.amps(), &want, 1e-10, &format!("{g}"));
        }
    }

    /// The raw-pointer kernels refuse a repeated target or one outside
    /// the register instead of reading or swapping memory they do not own.
    #[test]
    fn raw_kernels_refuse_repeated_or_outside_targets() {
        let dense3 = Gate::Unitary {
            qubits: vec![0, 1, 7],
            matrix: Arc::new(Gate::Ccx(0, 1, 2).matrix()),
            label: "ccx_blk".into(),
        };
        for g in [
            Gate::Cx(1, 1),
            Gate::Cx(0, 4),
            Gate::Ccx(0, 2, 2),
            Gate::Crz(0, 9, 0.3),
            Gate::Swap(2, 5),
            dense3,
        ] {
            let applied = std::panic::catch_unwind(|| StateVector::zero(3).apply(&g, false));
            assert!(applied.is_err(), "{g} was applied");
        }
    }

    #[test]
    fn ghz_state_structure() {
        let mut sv = StateVector::zero(3);
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        sv.run_unitary(&qc);
        let s = 1.0 / 2.0_f64.sqrt();
        assert!(sv.amps()[0].approx_eq(c64(s, 0.0), 1e-12));
        assert!(sv.amps()[7].approx_eq(c64(s, 0.0), 1e-12));
        for i in 1..7 {
            assert!(sv.amps()[i].approx_eq(C64::ZERO, 1e-12));
        }
    }

    #[test]
    fn norm_preserved_under_random_circuit() {
        let mut rng = Rng::seed_from(77);
        let n = 8;
        let mut sv = StateVector::zero(n);
        for _ in 0..200 {
            let q = rng.index(n);
            let p = (q + 1 + rng.index(n - 1)) % n;
            match rng.index(5) {
                0 => sv.apply(&Gate::H(q), false),
                1 => sv.apply(&Gate::Rx(q, rng.uniform(-3.0, 3.0)), false),
                2 => sv.apply(&Gate::Cx(q, p), false),
                3 => sv.apply(&Gate::Rzz(q, p, rng.uniform(-3.0, 3.0)), false),
                _ => sv.apply(&Gate::T(q), false),
            }
        }
        assert!(approx_eq(sv.norm_sqr(), 1.0, 1e-9));
    }

    #[test]
    fn prob_one_and_measure_collapse() {
        let mut sv = StateVector::zero(2);
        sv.apply(&Gate::X(1), false);
        assert!(approx_eq(sv.prob_one(1), 1.0, 1e-12));
        assert!(approx_eq(sv.prob_one(0), 0.0, 1e-12));
        let mut rng = Rng::seed_from(1);
        assert_eq!(sv.measure(1, &mut rng, false), 1);
        assert!(approx_eq(sv.norm_sqr(), 1.0, 1e-12));
    }

    #[test]
    fn measure_plus_state_statistics() {
        let mut zeros = 0;
        for seed in 0..400 {
            let mut sv = StateVector::zero(1);
            sv.apply(&Gate::H(0), false);
            let mut rng = Rng::seed_from(seed);
            if sv.measure(0, &mut rng, false) == 0 {
                zeros += 1;
            }
        }
        assert!((150..250).contains(&zeros), "zeros={zeros}");
    }

    #[test]
    fn split_sampling_ghz_bimodal() {
        let mut sv = StateVector::zero(4);
        let mut qc = Circuit::new(4);
        qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        sv.run_unitary(&qc);
        let counts = sv.sample_counts_split(2000, 5, DEFAULT_SPLIT_BITS);
        assert_eq!(counts.len(), 2);
        let all0 = counts["0000"];
        let all1 = counts["1111"];
        assert_eq!(all0 + all1, 2000);
        assert!((800..1200).contains(&all0), "all0={all0}");
    }

    #[test]
    fn split_sampling_is_independent_of_split_granularity() {
        // The split scheme must give a valid sample of the distribution at
        // every granularity, and be deterministic per (seed, split_bits).
        let sv = {
            let mut sv = StateVector::zero(6);
            let mut qc = Circuit::new(6);
            qc.h(0).cx(0, 1).cx(1, 2).rz(3, 0.7).h(4).cx(4, 5);
            sv.run_unitary(&qc);
            sv
        };
        for split_bits in [0, 2, canonical_split_bits(6, 3)] {
            let a = sv.sample_counts_split(4000, 0xD15, split_bits);
            let b = sv.sample_counts_split(4000, 0xD15, split_bits);
            assert_eq!(a, b, "split replay diverged at {split_bits}");
            assert_eq!(a.values().sum::<usize>(), 4000);
            // Impossible outcomes (qubit 3 never flips) must not appear.
            assert!(a.keys().all(|k| k.as_bytes()[6 - 1 - 3] == b'0'));
        }
    }

    #[test]
    fn block_shot_split_avoids_zero_mass_blocks() {
        // Half the blocks carry zero mass; every shot must land on a
        // positive-mass block for any seed.
        let masses = [0.0, 0.25, 0.0, 0.75, 0.0, 0.0];
        for seed in 0..50 {
            let split = block_shot_split(&masses, 200, seed);
            assert_eq!(split.iter().sum::<usize>(), 200);
            for (b, &s) in split.iter().enumerate() {
                assert!(masses[b] > 0.0 || s == 0, "zero-mass block {b} drawn");
            }
        }
    }

    #[test]
    fn canonical_split_bits_floors_and_clamps() {
        assert_eq!(canonical_split_bits(24, 3), 6); // floor dominates
        assert_eq!(canonical_split_bits(24, 8), 8); // rank bits dominate
        assert_eq!(canonical_split_bits(4, 3), 4); // clamped to n
    }

    /// Past `PAR_DRAW` amplitudes read, blocks are drawn on the shim's
    /// workers; the draws are the calling thread's, in the same order.
    #[test]
    fn block_draws_do_not_depend_on_threading() {
        let sv = random_state(17, 3);
        let split = canonical_split_bits(17, 0);
        for shots in [1, 64, 1024] {
            let serial = sv.sample_split_on(shots, 9, split, false);
            assert_eq!(sv.sample_split_on(shots, 9, split, true), serial);
        }
    }

    #[test]
    fn expectation_diagonal_matches_manual_sum() {
        let sv = random_state(5, 9);
        let f = |i: usize| (i as f64).sqrt();
        let want: f64 = sv
            .amps()
            .iter()
            .enumerate()
            .map(|(i, a)| f(i) * a.norm_sqr())
            .sum();
        assert!(approx_eq(sv.expectation_diagonal(f, false), want, 1e-12));
        assert!(approx_eq(sv.expectation_diagonal(f, true), want, 1e-12));
    }

    #[test]
    fn fidelity_extremes() {
        let a = random_state(4, 11);
        assert!(approx_eq(a.fidelity(&a), 1.0, 1e-10));
        let mut b = StateVector::zero(4);
        let mut c = StateVector::zero(4);
        c.apply(&Gate::X(0), false);
        assert!(approx_eq(b.fidelity(&c), 0.0, 1e-12));
        b.apply(&Gate::X(0), false);
        assert!(approx_eq(b.fidelity(&c), 1.0, 1e-12));
    }

    #[test]
    fn circuit_inverse_returns_to_start() {
        let mut qc = Circuit::new(5);
        qc.h(0).cx(0, 1).t(2).rzz(1, 3, 0.9).ccx(0, 1, 4).ry(3, 0.3);
        let start = random_state(5, 21);
        let mut sv = start.clone();
        sv.run_unitary(&qc);
        sv.run_unitary(&qc.inverse());
        assert_states_close(sv.amps(), start.amps(), 1e-10, "inverse round trip");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every rewritten strided kernel (phase-if, rz, cz, cp, rzz, x,
        /// cx, the generic diagonal sweep, and the hoisted k-qubit path)
        /// matches the dense-operator reference at proptest-chosen qubit
        /// positions — the top qubit included; so does the same gate taken
        /// alone through the layer plan, serial and threaded, which lands
        /// each on its tile kernel (block or strided butterfly, monomial or
        /// dense block, gather) at that position.
        #[test]
        fn strided_kernels_match_dense_at_random_positions(
            seed in 0u64..10_000,
            n in 3usize..7,
            theta in -3.0f64..3.0,
        ) {
            let mut rng = Rng::seed_from(seed);
            let q = rng.index(n);
            let a = rng.index(n);
            let b = (a + 1 + rng.index(n - 1)) % n;
            // A qubit strictly below the top one, for forced top-qubit pairs.
            let top = n - 1;
            let low = rng.index(n - 1);
            // Third ccx operand distinct from a and b.
            let (alo, ahi) = (a.min(b), a.max(b));
            let mut c3 = rng.index(n - 2);
            if c3 >= alo {
                c3 += 1;
            }
            if c3 >= ahi {
                c3 += 1;
            }

            let diag2: Vec<C64> =
                (0..4).map(|k| C64::cis(theta * (k as f64 + 0.5))).collect();
            let gates = vec![
                Gate::Z(q),
                Gate::S(q),
                Gate::T(q),
                Gate::Phase(q, theta),
                Gate::Rz(q, theta),
                Gate::X(q),
                Gate::H(q),
                Gate::Cz(a, b),
                Gate::Cp(a, b, theta),
                Gate::Rzz(a, b, theta),
                Gate::Cx(a, b),
                Gate::Ccx(a, b, c3),
                // Forced top-qubit coverage in every operand slot.
                Gate::Phase(top, theta),
                Gate::X(top),
                Gate::Rz(top, theta),
                Gate::Cx(top, low),
                Gate::Cx(low, top),
                Gate::Cz(low, top),
                Gate::Cp(top, low, theta),
                Gate::Rzz(low, top, theta),
                // Generic diagonal sweep (apply_diag_kq at k = 2).
                Gate::Unitary {
                    qubits: vec![a, b],
                    matrix: Arc::new(Matrix::diag(&diag2)),
                    label: "diag2".into(),
                },
            ];
            for g in &gates {
                let base = random_state(n, seed ^ 0x5EED);
                let want = apply_via_dense_operator(base.amps(), g, n);
                let mut got = base.clone();
                got.apply(g, false);
                assert_states_close(got.amps(), &want, 1e-10, &format!("{g}"));
                for &par in &[false, true] {
                    let mut alone = Circuit::new(n);
                    alone.push(g.clone());
                    let mut tiled = base.clone();
                    crate::fusion::fuse(&alone).apply_unitary(&mut tiled, par);
                    assert_states_close(
                        tiled.amps(),
                        &want,
                        1e-10,
                        &format!("{g} through the layer plan (par={par})"),
                    );
                }
            }
        }
    }
}
