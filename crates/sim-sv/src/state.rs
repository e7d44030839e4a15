//! The dense state vector: its amplitudes, measurement and sampling.
//!
//! Layout: amplitude `amps[i]` is the coefficient of basis state `|i>` with
//! qubit `q` stored in bit `q` of `i` (little-endian, matching the IR).
//!
//! Gates reach the amplitudes only through the layer plan's tile executor
//! ([`crate::layers`]): [`StateVector::apply`] and
//! [`StateVector::run_unitary`] run the [`verbatim`] plan of what they
//! are given. Threads belong to that executor, the block sampler
//! ([`draw_blocks`]) and [`StateVector::expectation_diagonal`]; a collapse
//! runs on the calling thread.

use crate::fusion::{verbatim, verbatim_layer};
use crate::layers::{Fused, LayerPlan};
use qfw_circuit::{Circuit, Counts, Gate, Readout};
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

    /// Applies one gate: the one-layer [`verbatim`] plan of it, through
    /// the tile executor. `parallel` is accepted and ignored.
    ///
    /// # Panics
    /// Panics on a target repeated or outside the register.
    pub fn apply(&mut self, gate: &Gate, _parallel: bool) {
        let layer = Fused::Layer(verbatim_layer(self.n, gate));
        let readout = Readout::of(&Circuit::new(self.n));
        LayerPlan::build(self.n, self.n, readout, vec![layer]).apply_unitary(self, false);
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

    /// Runs the unitary part of a circuit (measurements/barriers skipped):
    /// its [`verbatim`] plan.
    pub fn run_unitary(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.n, "register size mismatch");
        verbatim(circuit).apply_unitary(self, false);
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
    /// on the calling thread.
    pub fn measure(&mut self, q: usize, rng: &mut Rng, _parallel: bool) -> u8 {
        let p1 = self.prob_one(q);
        let outcome = u8::from(rng.chance(p1));
        let norm = if outcome == 1 { p1 } else { 1.0 - p1 };
        let scale = if norm > 0.0 { 1.0 / norm.sqrt() } else { 0.0 };
        let stride = 1usize << q;
        for chunk in self.amps.chunks_mut(stride << 1) {
            let (lo, hi) = chunk.split_at_mut(stride);
            let (kept, cleared) = if outcome == 1 { (hi, lo) } else { (lo, hi) };
            kept.iter_mut().for_each(|a| *a = a.scale(scale));
            cleared.fill(C64::ZERO);
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
    pub fn sample_counts_split(&self, shots: usize, seed: u64, split_bits: usize) -> Counts {
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
            amps.iter()
                .enumerate()
                .map(|(i, a)| f(at + i) * a.norm_sqr())
                .sum()
        };
        let mut partials = vec![0.0; chunks];
        if parallel && chunks >= 2 {
            partials
                .par_iter_mut()
                .enumerate()
                .for_each(|(c, p)| *p = chunk(c));
        } else {
            partials
                .iter_mut()
                .enumerate()
                .for_each(|(c, p)| *p = chunk(c));
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
        probs.extend(
            amps[*b * block_len..][..block_len]
                .iter()
                .map(|a| a.norm_sqr()),
        );
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
/// the tile executor uses to find a tile's base index.
#[inline(always)]
pub(crate) fn insert_zero_bit(x: usize, q: usize) -> usize {
    let low = x & ((1usize << q) - 1);
    ((x >> q) << (q + 1)) | low
}

/// Local gate index -> OR-mask of global target bits, for every local index
/// (the distributed remap's bit-spreading table).
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

    /// Every gate kind, applied alone through the tile path, must match
    /// the dense-operator reference on random states.
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

    /// With fusion off, a diagonal gate wider than the dense kernels take
    /// runs as its own diagonal layer and matches the reference.
    #[test]
    fn verbatim_job_runs_a_diagonal_wider_than_the_dense_kernels() {
        let n = 10;
        let phases: Vec<C64> = (0..1 << 9).map(|k| C64::cis(0.01 * k as f64)).collect();
        let mut qc = Circuit::new(n);
        for q in 0..n {
            qc.h(q);
        }
        qc.push(Gate::Unitary {
            qubits: vec![7, 0, 9, 2, 5, 1, 8, 3, 6],
            matrix: Arc::new(Matrix::diag(&phases)),
            label: "diag9".into(),
        });
        let engine = crate::SvSimulator::plain();
        let mut want = StateVector::zero(n).into_amps();
        for g in qc.gates() {
            want = apply_via_dense_operator(&want, g, n);
        }
        assert_states_close(engine.statevector(&qc).amps(), &want, 1e-12, "diag9");
        assert_eq!(engine.run(&qc, 64, 1).counts.values().sum::<usize>(), 64);
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

        /// Every gate kind matches the dense-operator reference at
        /// proptest-chosen qubit positions — the top qubit included — as
        /// its verbatim layer (`apply`) and fused alone, serial and
        /// threaded, which lands each on its tile kernel (block or strided
        /// butterfly, monomial or dense block, diagonal table, gather) at
        /// that position.
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
                // A diagonal unitary block on two qubits.
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
