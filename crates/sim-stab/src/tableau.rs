//! The bit-packed CHP tableau and the engine façade over it.

use qfw_circuit::{Circuit, Counts, Gate, Outcome, Readout};
use qfw_num::rng::Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// An n-qubit stabilizer tableau: rows `0..n` are destabilizer generators,
/// rows `n..2n` stabilizer generators, row `2n` is scratch space for
/// deterministic measurements.
#[derive(Clone, Debug)]
pub struct Tableau {
    pub(crate) n: usize,
    pub(crate) words: usize,
    /// X bit matrix, `(2n+1) x words`.
    pub(crate) x: Vec<Vec<u64>>,
    /// Z bit matrix, `(2n+1) x words`.
    pub(crate) z: Vec<Vec<u64>>,
    /// Sign bit per row (`true` = phase −1).
    pub(crate) r: Vec<bool>,
}

impl Tableau {
    /// The `|0...0>` tableau: destabilizers `X_i`, stabilizers `Z_i`.
    pub fn zero(n: usize) -> Self {
        assert!(n >= 1);
        let words = n.div_ceil(64);
        let rows = 2 * n + 1;
        let mut t = Tableau {
            n,
            words,
            x: vec![vec![0; words]; rows],
            z: vec![vec![0; words]; rows],
            r: vec![false; rows],
        };
        for i in 0..n {
            t.x[i][i / 64] |= 1u64 << (i % 64);
            t.z[n + i][i / 64] |= 1u64 << (i % 64);
        }
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    pub(crate) fn get(m: &[u64], q: usize) -> bool {
        m[q / 64] >> (q % 64) & 1 == 1
    }

    #[inline]
    fn flip(m: &mut [u64], q: usize) {
        m[q / 64] ^= 1u64 << (q % 64);
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
        for row in 0..2 * self.n {
            let xb = Self::get(&self.x[row], q);
            let zb = Self::get(&self.z[row], q);
            self.r[row] ^= xb & zb;
            if xb != zb {
                Self::flip(&mut self.x[row], q);
                Self::flip(&mut self.z[row], q);
            }
        }
    }

    fn s(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let xb = Self::get(&self.x[row], q);
            let zb = Self::get(&self.z[row], q);
            self.r[row] ^= xb & zb;
            if xb {
                Self::flip(&mut self.z[row], q);
            }
        }
    }

    fn x_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= Self::get(&self.z[row], q);
        }
    }

    fn z_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= Self::get(&self.x[row], q);
        }
    }

    fn y_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= Self::get(&self.x[row], q) ^ Self::get(&self.z[row], q);
        }
    }

    fn cx(&mut self, c: usize, t: usize) {
        for row in 0..2 * self.n {
            let xc = Self::get(&self.x[row], c);
            let zc = Self::get(&self.z[row], c);
            let xt = Self::get(&self.x[row], t);
            let zt = Self::get(&self.z[row], t);
            self.r[row] ^= xc & zt & (xt ^ zc ^ true);
            if xc {
                Self::flip(&mut self.x[row], t);
            }
            if zt {
                Self::flip(&mut self.z[row], c);
            }
        }
    }

    /// `rowsum(h, i)`: row `h` *= row `i`, with the CHP phase function.
    pub(crate) fn rowsum(&mut self, h: usize, i: usize) {
        let mut g: i64 = 0;
        for w in 0..self.words {
            let (x1, z1) = (self.x[i][w], self.z[i][w]);
            let (x2, z2) = (self.x[h][w], self.z[h][w]);
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
        }
        // Stabilizer-row sums always come out even (the generators
        // commute). Destabilizer rows may anticommute with the pivot and
        // produce an odd phase — their signs are never read, so any value
        // is acceptable there (Aaronson–Gottesman, Sec. III).
        debug_assert!(
            g.rem_euclid(2) == 0 || h < self.n,
            "rowsum produced odd phase on a stabilizer row"
        );
        // The new sign is bit 1 of `2 r_h + 2 r_i + g (mod 4)`: the two
        // signs XORed with a bit that depends on the Pauli parts alone.
        self.r[h] ^= self.r[i] ^ (g.rem_euclid(4) >= 2);
        for w in 0..self.words {
            let (xi, zi) = (self.x[i][w], self.z[i][w]);
            self.x[h][w] ^= xi;
            self.z[h][w] ^= zi;
        }
    }

    /// The measurement body: measures qubit `q` in the Z basis, collapsing
    /// the tableau, and returns the row whose sign is the outcome. A random
    /// outcome's sign is whatever `signs` makes of it; `signs` also follows
    /// every sign update, so it can carry what the signs depend on.
    fn measure_row(&mut self, q: usize, signs: &mut impl Signs) -> usize {
        let n = self.n;
        // A stabilizer with X on q means the outcome is random.
        let p = (n..2 * n).find(|&row| Self::get(&self.x[row], q));
        if let Some(p) = p {
            for row in 0..2 * n {
                if row != p && Self::get(&self.x[row], q) {
                    self.rowsum(row, p);
                    signs.add(row, p);
                }
            }
            // Destabilizer p-n := old stabilizer p; stabilizer p := ±Z_q.
            self.x[p - n] = self.x[p].clone();
            self.z[p - n] = self.z[p].clone();
            self.r[p - n] = self.r[p];
            signs.copy(p, p - n);
            for w in 0..self.words {
                self.x[p][w] = 0;
                self.z[p][w] = 0;
            }
            Self::flip(&mut self.z[p], q);
            self.r[p] = signs.random(p);
            p
        } else {
            // Deterministic: accumulate into the scratch row 2n.
            let s = 2 * n;
            for w in 0..self.words {
                self.x[s][w] = 0;
                self.z[s][w] = 0;
            }
            self.r[s] = false;
            signs.clear(s);
            for i in 0..n {
                if Self::get(&self.x[i], q) {
                    self.rowsum(s, i + n);
                    signs.add(s, i + n);
                }
            }
            s
        }
    }

    /// Measures qubit `q` in the Z basis, collapsing the tableau.
    pub fn measure(&mut self, q: usize, rng: &mut Rng) -> u8 {
        let row = self.measure_row(q, rng);
        u8::from(self.r[row])
    }

    /// Measures every qubit in order, returning the bits.
    pub fn measure_all(&mut self, rng: &mut Rng) -> Vec<u8> {
        (0..self.n).map(|q| self.measure(q, rng)).collect()
    }

    /// The distribution of measuring every qubit in order, in one pass.
    ///
    /// Whether measuring a qubit is random depends on the Pauli parts
    /// alone, never on a sign, so the same measurements are random on
    /// every shot and each determined outcome is a fixed bit XORed with
    /// some of the earlier random ones. The pass gives every random
    /// outcome a variable of its own and carries each sign as its constant
    /// bit plus the variables it depends on.
    fn outcomes(mut self) -> AffineOutcomes {
        let n = self.n;
        let mut vars = Variables::new(2 * n + 1, n);
        let mut reference = vec![0; self.words];
        let mut flips = vec![0; n * self.words];
        for q in 0..n {
            let row = self.measure_row(q, &mut vars);
            let bit = 1u64 << (q % 64);
            if self.r[row] {
                reference[q / 64] |= bit;
            }
            for v in 0..vars.count {
                if vars.depends(row, v) {
                    flips[v * self.words + q / 64] |= bit;
                }
            }
        }
        flips.truncate(vars.count * self.words);
        AffineOutcomes { reference, flips }
    }
}

/// What the measurement body does with signs beyond the tableau's own
/// constant bits, and what it makes a random outcome's sign.
trait Signs {
    /// The sign of a random outcome, stored in stabilizer row `row`.
    fn random(&mut self, row: usize) -> bool;
    /// Row `h`'s sign takes on row `i`'s (a `rowsum`).
    fn add(&mut self, _h: usize, _i: usize) {}
    /// Row `to`'s sign becomes row `from`'s.
    fn copy(&mut self, _from: usize, _to: usize) {}
    /// Row `row`'s sign becomes a constant.
    fn clear(&mut self, _row: usize) {}
}

/// A collapse: a random outcome is drawn on the spot.
impl Signs for Rng {
    fn random(&mut self, _row: usize) -> bool {
        self.chance(0.5)
    }
}

/// Per row, the random outcomes its sign is XORed with: variable `v` is
/// the `v`-th random outcome, in measurement order.
struct Variables {
    words: usize,
    masks: Vec<u64>,
    count: usize,
}

impl Variables {
    fn new(rows: usize, most: usize) -> Self {
        let words = most.div_ceil(64);
        Variables {
            words,
            masks: vec![0; rows * words],
            count: 0,
        }
    }

    /// Whether row `row`'s sign depends on variable `v`.
    fn depends(&self, row: usize, v: usize) -> bool {
        Tableau::get(&self.masks[row * self.words..], v)
    }
}

impl Signs for Variables {
    fn random(&mut self, row: usize) -> bool {
        self.clear(row);
        let v = self.count;
        self.masks[row * self.words + v / 64] |= 1u64 << (v % 64);
        self.count += 1;
        false
    }

    fn add(&mut self, h: usize, i: usize) {
        for w in 0..self.words {
            self.masks[h * self.words + w] ^= self.masks[i * self.words + w];
        }
    }

    fn copy(&mut self, from: usize, to: usize) {
        let w = self.words;
        self.masks.copy_within(from * w..(from + 1) * w, to * w);
    }

    fn clear(&mut self, row: usize) {
        self.masks[row * self.words..(row + 1) * self.words].fill(0);
    }
}

/// Every outcome of measuring a stabilizer state: the reference outcome
/// with any subset of the flips XORed in, each flip taken with
/// probability one half. Outcomes are packed, qubit `q` in bit `q % 64`
/// of word `q / 64`.
struct AffineOutcomes {
    reference: Vec<u64>,
    /// One outcome-sized column per random measurement, in measurement
    /// order: the qubits whose outcome it flips.
    flips: Vec<u64>,
}

impl AffineOutcomes {
    /// `shots` packed outcomes, one after another. Each shot draws one
    /// coin per random measurement in measurement order, as a collapse per
    /// qubit does.
    fn sample(&self, shots: usize, rng: &mut Rng) -> Vec<u64> {
        let words = self.reference.len();
        let mut out = Vec::with_capacity(shots * words);
        for _ in 0..shots {
            let at = out.len();
            out.extend_from_slice(&self.reference);
            for flip in self.flips.chunks_exact(words) {
                if rng.chance(0.5) {
                    for (o, f) in out[at..].iter_mut().zip(flip) {
                        *o ^= f;
                    }
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
        Tableau::get(self.0, q)
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

/// Engine façade: evolves the tableau once, derives the distribution of
/// its outcomes in one measurement pass (`O(n^2)` row operations of
/// `⌈n/64⌉` words), then draws each shot from it in `O(k)` for `k ≤ n`
/// random measurements.
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
    /// one evolved tableau cannot collapse (admission refuses
    /// such circuits first, `qfw::plan`).
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
        let mut base = Tableau::zero(circuit.num_qubits());
        let mut rng = Rng::seed_from(seed);
        for g in circuit.gates() {
            base.apply(g);
        }
        let words = base.words;
        let draws = base.outcomes().sample(shots, &mut rng);
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
