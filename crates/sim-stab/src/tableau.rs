//! The bit-packed CHP tableau, the echelon form of its stabilizer rows, and
//! the engine façade over both.

use qfw_circuit::{Circuit, Counts, Gate, Outcome, Readout};
use qfw_num::rng::Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// Bit-packed Pauli rows with signs, row-major: row `i` is words
/// `i * words..(i + 1) * words` of `x` and of `z` (qubit `q` in bit `q % 64`
/// of word `q / 64`) and sign `r[i]` (`true` = phase −1).
#[derive(Clone, Debug)]
pub(crate) struct Rows {
    pub(crate) words: usize,
    pub(crate) x: Vec<u64>,
    pub(crate) z: Vec<u64>,
    pub(crate) r: Vec<bool>,
    /// Rows below this one are destabilizers: a product with one may carry
    /// an odd phase, and their signs are never read.
    destabilizers: usize,
}

impl Rows {
    fn has_x(&self, row: usize, q: usize) -> bool {
        get(&self.x[row * self.words..], q)
    }

    fn has_z(&self, row: usize, q: usize) -> bool {
        get(&self.z[row * self.words..], q)
    }

    fn flip_x(&mut self, row: usize, q: usize) {
        flip(&mut self.x[row * self.words..], q);
    }

    fn flip_z(&mut self, row: usize, q: usize) {
        flip(&mut self.z[row * self.words..], q);
    }

    /// `rowsum(h, i)`: row `h` *= row `i`, with the CHP phase function.
    fn rowsum(&mut self, h: usize, i: usize) {
        let w = self.words;
        let mut g: i64 = 0;
        for k in 0..w {
            let (x1, z1) = (self.x[i * w + k], self.z[i * w + k]);
            let (x2, z2) = (self.x[h * w + k], self.z[h * w + k]);
            // g per bit, summed via popcounts of the +1 and −1 masks.
            // x1=1,z1=1: +1 where z2>x2 bitwise (z2 & !x2), −1 where x2 & !z2
            let c11 = x1 & z1;
            let plus11 = c11 & z2 & !x2;
            let minus11 = c11 & x2 & !z2;
            // x1=1,z1=0: +1 where z2&x2, −1 where z2&!x2
            let c10 = x1 & !z1;
            let plus10 = c10 & z2 & x2;
            let minus10 = c10 & z2 & !x2;
            // x1=0,z1=1: +1 where x2&!z2, −1 where x2&z2
            let c01 = !x1 & z1;
            let plus01 = c01 & x2 & !z2;
            let minus01 = c01 & x2 & z2;
            g += (plus11 | plus10 | plus01).count_ones() as i64;
            g -= (minus11 | minus10 | minus01).count_ones() as i64;
            self.x[h * w + k] = x2 ^ x1;
            self.z[h * w + k] = z2 ^ z1;
        }
        // Stabilizer-row sums always come out even (the generators
        // commute). Destabilizer rows may anticommute with the pivot and
        // produce an odd phase — their signs are never read, so any value
        // is acceptable there (Aaronson–Gottesman, Sec. III).
        debug_assert!(
            g.rem_euclid(2) == 0 || h < self.destabilizers,
            "rowsum produced odd phase on a stabilizer row"
        );
        // The new sign is bit 1 of `2 r_h + 2 r_i + g (mod 4)`: the two
        // signs XORed with a bit that depends on the Pauli parts alone.
        self.r[h] ^= self.r[i] ^ (g.rem_euclid(4) >= 2);
    }

    /// Row `to` becomes a copy of row `from`.
    fn copy(&mut self, from: usize, to: usize) {
        let w = self.words;
        self.x.copy_within(from * w..(from + 1) * w, to * w);
        self.z.copy_within(from * w..(from + 1) * w, to * w);
        self.r[to] = self.r[from];
    }

    /// Row `row` becomes `+I`.
    fn clear(&mut self, row: usize) {
        let w = self.words;
        self.x[row * w..(row + 1) * w].fill(0);
        self.z[row * w..(row + 1) * w].fill(0);
        self.r[row] = false;
    }

    fn swap(&mut self, a: usize, b: usize) {
        for k in 0..self.words {
            self.x.swap(a * self.words + k, b * self.words + k);
            self.z.swap(a * self.words + k, b * self.words + k);
        }
        self.r.swap(a, b);
    }

    /// Brings rows `from..` into reduced row-echelon form over the bits
    /// `bit` reads, qubit by qubit from qubit 0, and returns the pivot
    /// qubits: row `from + k` has its lowest such bit on the `k`-th, and no
    /// other row of the range has that bit.
    fn reduce(&mut self, from: usize, n: usize, bit: fn(&Rows, usize, usize) -> bool) -> Vec<usize> {
        let end = self.r.len();
        let mut pivots = Vec::with_capacity(n);
        for q in 0..n {
            let next = from + pivots.len();
            let Some(hit) = (next..end).find(|&row| bit(self, row, q)) else {
                continue;
            };
            self.swap(hit, next);
            for row in from..end {
                if row != next && bit(self, row, q) {
                    self.rowsum(row, next);
                }
            }
            pivots.push(q);
        }
        pivots
    }
}

#[inline]
fn get(m: &[u64], q: usize) -> bool {
    m[q / 64] >> (q % 64) & 1 == 1
}

#[inline]
fn flip(m: &mut [u64], q: usize) {
    m[q / 64] ^= 1u64 << (q % 64);
}

fn xor(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a ^= b;
    }
}

/// An n-qubit stabilizer tableau.
#[derive(Clone, Debug)]
pub struct Tableau {
    pub(crate) n: usize,
    /// Rows `0..n` are destabilizer generators, rows `n..2n` stabilizer
    /// generators, row `2n` is scratch space for deterministic measurements.
    rows: Rows,
}

impl Tableau {
    /// The `|0...0>` tableau: destabilizers `X_i`, stabilizers `Z_i`.
    pub fn zero(n: usize) -> Self {
        assert!(n >= 1);
        let words = n.div_ceil(64);
        let mut rows = Rows {
            words,
            x: vec![0; (2 * n + 1) * words],
            z: vec![0; (2 * n + 1) * words],
            r: vec![false; 2 * n + 1],
            destabilizers: n,
        };
        for i in 0..n {
            rows.flip_x(i, i);
            rows.flip_z(n + i, i);
        }
        Tableau { n, rows }
    }

    /// `|0...0>` evolved through `gates`: how a job's state and a
    /// Clifford prefix's state at a partition seam are both made.
    ///
    /// # Panics
    /// Panics on a non-Clifford gate, as [`Tableau::apply`] does.
    pub fn evolve<'a>(n: usize, gates: impl IntoIterator<Item = &'a Gate>) -> Self {
        let mut t = Self::zero(n);
        for g in gates {
            t.apply(g);
        }
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Applies a Clifford gate.
    ///
    /// # Panics
    /// Panics on non-Clifford gates — callers must gate on
    /// [`qfw_circuit::analysis::is_clifford`] first.
    pub fn apply(&mut self, gate: &Gate) {
        match *gate {
            Gate::H(q) => self.h(q),
            Gate::S(q) => self.s(q),
            Gate::Sdg(q) => {
                // Sdg = S Z (diagonal gates commute).
                self.s(q);
                self.z_gate(q);
            }
            Gate::X(q) => self.x_gate(q),
            Gate::Y(q) => self.y_gate(q),
            Gate::Z(q) => self.z_gate(q),
            Gate::Cx(c, t) => self.cx(c, t),
            Gate::Cz(c, t) => {
                self.h(t);
                self.cx(c, t);
                self.h(t);
            }
            Gate::Cy(c, t) => {
                // CY = Sdg(t) CX(c,t) S(t).
                self.s(t);
                self.cx(c, t);
                self.s(t);
                self.z_gate(t);
            }
            Gate::Swap(a, b) => {
                self.cx(a, b);
                self.cx(b, a);
                self.cx(a, b);
            }
            ref g => panic!("stabilizer engine received non-Clifford gate {g}"),
        }
    }

    fn h(&mut self, q: usize) {
        let t = &mut self.rows;
        for row in 0..2 * self.n {
            let (xb, zb) = (t.has_x(row, q), t.has_z(row, q));
            t.r[row] ^= xb & zb;
            if xb != zb {
                t.flip_x(row, q);
                t.flip_z(row, q);
            }
        }
    }

    fn s(&mut self, q: usize) {
        let t = &mut self.rows;
        for row in 0..2 * self.n {
            let (xb, zb) = (t.has_x(row, q), t.has_z(row, q));
            t.r[row] ^= xb & zb;
            if xb {
                t.flip_z(row, q);
            }
        }
    }

    fn x_gate(&mut self, q: usize) {
        let t = &mut self.rows;
        for row in 0..2 * self.n {
            t.r[row] ^= t.has_z(row, q);
        }
    }

    fn z_gate(&mut self, q: usize) {
        let t = &mut self.rows;
        for row in 0..2 * self.n {
            t.r[row] ^= t.has_x(row, q);
        }
    }

    fn y_gate(&mut self, q: usize) {
        let t = &mut self.rows;
        for row in 0..2 * self.n {
            t.r[row] ^= t.has_x(row, q) ^ t.has_z(row, q);
        }
    }

    fn cx(&mut self, c: usize, tq: usize) {
        let t = &mut self.rows;
        for row in 0..2 * self.n {
            let (xc, zc) = (t.has_x(row, c), t.has_z(row, c));
            let (xt, zt) = (t.has_x(row, tq), t.has_z(row, tq));
            t.r[row] ^= xc & zt & (xt ^ zc ^ true);
            if xc {
                t.flip_x(row, tq);
            }
            if zt {
                t.flip_z(row, c);
            }
        }
    }

    /// Measures qubit `q` in the Z basis, collapsing the tableau.
    pub fn measure(&mut self, q: usize, rng: &mut Rng) -> u8 {
        let (n, t) = (self.n, &mut self.rows);
        // A stabilizer with X on q means the outcome is random.
        let row = if let Some(p) = (n..2 * n).find(|&row| t.has_x(row, q)) {
            for h in 0..2 * n {
                if h != p && t.has_x(h, q) {
                    t.rowsum(h, p);
                }
            }
            // Destabilizer p-n := old stabilizer p; stabilizer p := ±Z_q.
            t.copy(p, p - n);
            t.clear(p);
            t.flip_z(p, q);
            t.r[p] = rng.chance(0.5);
            p
        } else {
            // Deterministic: accumulate into the scratch row 2n.
            t.clear(2 * n);
            for i in 0..n {
                if t.has_x(i, q) {
                    t.rowsum(2 * n, i + n);
                }
            }
            2 * n
        };
        u8::from(t.r[row])
    }

    /// Measures every qubit in order, returning the bits.
    pub fn measure_all(&mut self, rng: &mut Rng) -> Vec<u8> {
        (0..self.n).map(|q| self.measure(q, rng)).collect()
    }

    /// The stabilizer rows in reduced row-echelon form: the one derivation
    /// of the state's support, which the sampler and the dense seam read.
    ///
    /// The rows are eliminated over their X bits (`rowsum` keeps the
    /// signs): the pivot rows' X parts span the support's translations, and
    /// the rest are Z-only, each a parity constraint `z . x = sign` on every
    /// support point. Solving those with every free qubit zeroed gives the
    /// base point. `O(n^2)` row operations of `⌈n/64⌉` words at most.
    pub(crate) fn echelon(&self) -> Echelon {
        let (n, words) = (self.n, self.rows.words);
        let stabilizers = n * words..2 * n * words;
        let mut rows = Rows {
            words,
            x: self.rows.x[stabilizers.clone()].to_vec(),
            z: self.rows.z[stabilizers].to_vec(),
            r: self.rows.r[n..2 * n].to_vec(),
            destabilizers: 0,
        };
        let pivots = rows.reduce(0, n, Rows::has_x);
        let rank = pivots.len();
        let constraints = rows.reduce(rank, n, Rows::has_z);
        // A stabilizer group has full rank, so every Z-only row pivots.
        debug_assert_eq!(rank + constraints.len(), n);
        let mut base = vec![0; words];
        for (k, q) in constraints.into_iter().enumerate() {
            if rows.r[rank + k] {
                flip(&mut base, q);
            }
        }
        Echelon { rows, pivots, base }
    }
}

/// A stabilizer state's support, `base + span(a_0..a_rank)`: the stabilizer
/// rows in reduced row-echelon form, where row `k < rank` has X part `a_k`
/// with its lowest bit on qubit `pivots[k]`, which no other row has, and
/// rows `rank..n` are Z-only.
pub(crate) struct Echelon {
    pub(crate) rows: Rows,
    pub(crate) pivots: Vec<usize>,
    /// The support point whose Z-only-constraint free qubits are all zero.
    pub(crate) base: Vec<u64>,
}

impl Echelon {
    /// `shots` packed outcomes of measuring every qubit, one after another.
    ///
    /// Every outcome is the support point with every pivot bit cleared, with
    /// any subset of the pivot rows' X parts XORed in: the pivot bits pick
    /// the point. Each shot draws one coin per pivot row in pivot order —
    /// the coins a collapse of qubits `0..n` in order draws, for the same
    /// outcome, since exactly the pivot qubits measure at random.
    fn sample(self, shots: usize, rng: &mut Rng) -> Vec<u64> {
        let words = self.rows.words;
        let flips = &self.rows.x[..self.pivots.len() * words];
        let mut reference = self.base;
        for (flip, &q) in flips.chunks_exact(words).zip(&self.pivots) {
            if get(&reference, q) {
                xor(&mut reference, flip);
            }
        }
        let mut out = Vec::with_capacity(shots * words);
        for _ in 0..shots {
            let at = out.len();
            out.extend_from_slice(&reference);
            for flip in flips.chunks_exact(words) {
                if rng.chance(0.5) {
                    xor(&mut out[at..], flip);
                }
            }
        }
        out
    }
}

/// A packed outcome of a register wider than one word.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Packed<'a>(&'a [u64]);

impl Outcome for Packed<'_> {
    fn qubit(&self, q: usize) -> bool {
        get(self.0, q)
    }
}

/// Result of one stabilizer execution: counts as outcome words from
/// [`StabSimulator::execute`], as bit strings from [`StabSimulator::run`].
#[derive(Clone, Debug)]
pub struct StabOutcome<C = BTreeMap<String, usize>> {
    /// Measured counts.
    pub counts: C,
    /// Wall time for tableau evolution plus sampling.
    pub total_time: Duration,
}

impl StabOutcome<Counts> {
    /// This outcome with its counts rendered as bit strings.
    pub fn rendered(self) -> StabOutcome {
        StabOutcome {
            counts: self.counts.bitstrings(),
            total_time: self.total_time,
        }
    }
}

/// Engine façade: evolves the tableau once, brings its stabilizer rows to
/// echelon form (`O(n^2)` row operations of `⌈n/64⌉` words), then draws
/// each shot from that in `O(k)` for `k ≤ n` random measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct StabSimulator;

impl StabSimulator {
    /// [`execute`](Self::execute) with the counts rendered as bit strings.
    pub fn run(&self, circuit: &Circuit, shots: usize, seed: u64) -> Result<StabOutcome, String> {
        self.execute(circuit, shots, seed)
            .map(StabOutcome::rendered)
    }

    /// Executes a Clifford circuit for `shots` samples, read through the
    /// circuit's [`Readout`].
    ///
    /// Returns `Err` with the offending gate's name when the circuit is not
    /// Clifford — the `automatic` dispatcher treats that as "pick another
    /// method" — and when it measures mid-circuit, which this sampler of
    /// one evolved tableau cannot collapse (admission refuses both first,
    /// `qfw::plan`).
    pub fn execute(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<StabOutcome<Counts>, String> {
        if let Some(bad) = circuit.gates().find(|g| !g.is_clifford()) {
            return Err(format!("non-Clifford gate '{}'", bad.name()));
        }
        let readout = Readout::of(circuit);
        if readout.has_mid_circuit() {
            return Err("the stabilizer engine cannot collapse a state mid-circuit".into());
        }
        let sw = qfw_hpc::Stopwatch::start();
        let tableau = Tableau::evolve(circuit.num_qubits(), circuit.gates());
        let words = tableau.rows.words;
        let draws = tableau.echelon().sample(shots, &mut Rng::seed_from(seed));
        let counts = if words == 1 {
            readout.counts(draws, &BTreeMap::new())
        } else {
            let wide = draws.chunks_exact(words).map(Packed).collect();
            readout.counts(wide, &BTreeMap::new())
        };
        Ok(StabOutcome {
            counts,
            total_time: sw.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    #[test]
    fn zero_state_measures_zero() {
        let mut t = Tableau::zero(4);
        let mut rng = Rng::seed_from(1);
        assert_eq!(t.measure_all(&mut rng), vec![0, 0, 0, 0]);
    }

    #[test]
    fn x_flips_deterministically() {
        let mut t = Tableau::zero(3);
        t.apply(&Gate::X(1));
        let mut rng = Rng::seed_from(1);
        assert_eq!(t.measure_all(&mut rng), vec![0, 1, 0]);
    }

    #[test]
    fn hadamard_gives_random_then_consistent() {
        let mut ones = 0;
        for seed in 0..200 {
            let mut t = Tableau::zero(1);
            t.apply(&Gate::H(0));
            let mut rng = Rng::seed_from(seed);
            let b1 = t.measure(0, &mut rng);
            // Re-measurement must repeat the collapsed value.
            let b2 = t.measure(0, &mut rng);
            assert_eq!(b1, b2);
            ones += b1 as usize;
        }
        assert!((60..140).contains(&ones), "ones={ones}");
    }

    #[test]
    fn ghz_correlations() {
        for seed in 0..50 {
            let mut t = Tableau::zero(5);
            t.apply(&Gate::H(0));
            for q in 0..4 {
                t.apply(&Gate::Cx(q, q + 1));
            }
            let mut rng = Rng::seed_from(seed);
            let bits = t.measure_all(&mut rng);
            assert!(
                bits.iter().all(|&b| b == bits[0]),
                "GHZ decohered: {bits:?}"
            );
        }
    }

    #[test]
    fn bell_anticorrelated_with_x() {
        // H(0) CX(0,1) X(1) => outcomes are complementary.
        for seed in 0..30 {
            let mut t = Tableau::zero(2);
            t.apply(&Gate::H(0));
            t.apply(&Gate::Cx(0, 1));
            t.apply(&Gate::X(1));
            let mut rng = Rng::seed_from(seed);
            let bits = t.measure_all(&mut rng);
            assert_ne!(bits[0], bits[1]);
        }
    }

    #[test]
    fn s_gate_phase_via_interference() {
        // H S S H |0> = HZH|0> = X|0> = |1>.
        let mut t = Tableau::zero(1);
        for g in [Gate::H(0), Gate::S(0), Gate::S(0), Gate::H(0)] {
            t.apply(&g);
        }
        let mut rng = Rng::seed_from(3);
        assert_eq!(t.measure(0, &mut rng), 1);
    }

    #[test]
    fn sdg_is_inverse_of_s() {
        // H S Sdg H |0> = |0>.
        let mut t = Tableau::zero(1);
        for g in [Gate::H(0), Gate::S(0), Gate::Sdg(0), Gate::H(0)] {
            t.apply(&g);
        }
        let mut rng = Rng::seed_from(3);
        assert_eq!(t.measure(0, &mut rng), 0);
    }

    #[test]
    fn cz_phase_via_interference() {
        // |+>|1> --CZ--> |->|1>; H on q0 => |1>|1>.
        let mut t = Tableau::zero(2);
        t.apply(&Gate::X(1));
        t.apply(&Gate::H(0));
        t.apply(&Gate::Cz(0, 1));
        t.apply(&Gate::H(0));
        let mut rng = Rng::seed_from(1);
        assert_eq!(t.measure_all(&mut rng), vec![1, 1]);
    }

    #[test]
    fn cy_matches_composition() {
        // CY|+>|0>: check statistics consistent with Bell-like correlation
        // rotated to Y: measuring both in Z should correlate.
        for seed in 0..30 {
            let mut t = Tableau::zero(2);
            t.apply(&Gate::H(0));
            t.apply(&Gate::Cy(0, 1));
            let mut rng = Rng::seed_from(seed);
            let bits = t.measure_all(&mut rng);
            assert_eq!(bits[0], bits[1]);
        }
    }

    #[test]
    fn swap_moves_excitation() {
        let mut t = Tableau::zero(3);
        t.apply(&Gate::X(0));
        t.apply(&Gate::Swap(0, 2));
        let mut rng = Rng::seed_from(1);
        assert_eq!(t.measure_all(&mut rng), vec![0, 0, 1]);
    }

    #[test]
    fn engine_rejects_non_clifford() {
        let mut qc = Circuit::new(1);
        qc.t(0);
        let err = StabSimulator.run(&qc, 10, 1).unwrap_err();
        assert!(err.contains("t"), "err={err}");
    }

    #[test]
    fn engine_ghz_counts() {
        let out = StabSimulator.run(&ghz(30), 500, 9).unwrap();
        assert_eq!(out.counts.values().sum::<usize>(), 500);
        assert_eq!(out.counts.len(), 2);
        let zeros = out.counts[&"0".repeat(30)];
        assert!((150..350).contains(&zeros), "zeros={zeros}");
    }

    #[test]
    fn engine_handles_wide_registers() {
        // 70 qubits: crosses the 64-bit word boundary in the bit packing.
        let out = StabSimulator.run(&ghz(70), 50, 2).unwrap();
        assert_eq!(out.counts.len(), 2);
        assert_eq!(out.counts.values().sum::<usize>(), 50);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = StabSimulator.run(&ghz(8), 100, 5).unwrap();
        let b = StabSimulator.run(&ghz(8), 100, 5).unwrap();
        assert_eq!(a.counts, b.counts);
    }
}
