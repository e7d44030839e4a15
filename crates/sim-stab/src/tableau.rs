//! The bit-packed CHP tableau and the engine façade over it.

use qfw_circuit::{Circuit, Counts, Gate, Readout};
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
        let mut phase: i64 = if self.r[h] { 2 } else { 0 };
        phase += if self.r[i] { 2 } else { 0 };
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
            phase += (plus11 | plus10 | plus01).count_ones() as i64;
            phase -= (minus11 | minus10 | minus01).count_ones() as i64;
        }
        // Stabilizer-row sums always come out even (the generators
        // commute). Destabilizer rows may anticommute with the pivot and
        // produce an odd phase — their signs are never read, so any value
        // is acceptable there (Aaronson–Gottesman, Sec. III).
        debug_assert!(
            phase.rem_euclid(2) == 0 || h < self.n,
            "rowsum produced odd phase on a stabilizer row"
        );
        self.r[h] = phase.rem_euclid(4) == 2 || phase.rem_euclid(4) == 3;
        for w in 0..self.words {
            let (xi, zi) = (self.x[i][w], self.z[i][w]);
            self.x[h][w] ^= xi;
            self.z[h][w] ^= zi;
        }
    }

    /// Measures qubit `q` in the Z basis, collapsing the tableau.
    pub fn measure(&mut self, q: usize, rng: &mut Rng) -> u8 {
        let n = self.n;
        // A stabilizer with X on q means the outcome is random.
        let p = (n..2 * n).find(|&row| Self::get(&self.x[row], q));
        if let Some(p) = p {
            for row in 0..2 * n {
                if row != p && Self::get(&self.x[row], q) {
                    self.rowsum(row, p);
                }
            }
            // Destabilizer p-n := old stabilizer p; stabilizer p := ±Z_q.
            self.x[p - n] = self.x[p].clone();
            self.z[p - n] = self.z[p].clone();
            self.r[p - n] = self.r[p];
            for w in 0..self.words {
                self.x[p][w] = 0;
                self.z[p][w] = 0;
            }
            Self::flip(&mut self.z[p], q);
            let outcome = u8::from(rng.chance(0.5));
            self.r[p] = outcome == 1;
            outcome
        } else {
            // Deterministic: accumulate into the scratch row 2n.
            let s = 2 * n;
            for w in 0..self.words {
                self.x[s][w] = 0;
                self.z[s][w] = 0;
            }
            self.r[s] = false;
            for i in 0..n {
                if Self::get(&self.x[i], q) {
                    self.rowsum(s, i + n);
                }
            }
            u8::from(self.r[s])
        }
    }

    /// Measures every qubit in order, returning the bits.
    pub fn measure_all(&mut self, rng: &mut Rng) -> Vec<u8> {
        (0..self.n).map(|q| self.measure(q, rng)).collect()
    }
}

/// Result of one stabilizer execution: counts as outcome words from
/// [`StabSimulator::execute`], as bit strings from [`StabSimulator::run`].
#[derive(Clone, Debug)]
pub struct StabOutcome<C = BTreeMap<String, usize>> {
    /// Measured counts.
    pub counts: C,
    /// Wall time for tableau evolution plus per-shot measurement.
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

/// Engine façade: runs Clifford circuits shot-by-shot (each shot clones the
/// evolved tableau and measures, so per-shot cost is `O(n^2)`).
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
    /// method" — and when it measures mid-circuit, which this shot-by-shot
    /// sampler of one evolved tableau cannot collapse (admission refuses
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
        let draws = (0..shots)
            .map(|_| base.clone().measure_all(&mut rng))
            .collect();
        Ok(StabOutcome {
            counts: readout.counts(draws, &BTreeMap::new()),
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
