//! What a circuit's measurements make of a sampled state: the one place a
//! count key is decided, for every engine.
//!
//! Engines draw computational-basis outcomes (qubit `q` in bit `q`) and
//! hand them here, together with the classical bits their mid-circuit
//! collapses fixed. [`Readout`] owns three decisions:
//!
//! * **Which measurements are terminal.** A measurement is terminal iff no
//!   later gate touches its qubit: sampling the final state then reads what
//!   it would have read (deferred measurement). Any other measurement
//!   collapses the state where it stands, so the run is one trajectory.
//! * **The projection onto the classical register.** Each classical bit
//!   reads what the *last* measurement into it reads: a terminal one, the
//!   sampled outcome's qubit; a mid-circuit one, the trajectory's collapsed
//!   bit. A classical bit nothing measures reads `0`. A circuit that
//!   measures nothing measures every qubit into the same-numbered bit
//!   (implicit measure-all, register width). A circuit whose measurements
//!   are all mid-circuit gives one trajectory's bits for every shot.
//! * **The count key.** The classical register's value as an outcome
//!   word ([`Counts`]), built once per distinct sampled outcome; no bit
//!   string is rendered here.

use crate::circuit::{Circuit, Op};
use crate::counts::{stride, Counts};
use std::collections::BTreeMap;

/// One sampled computational-basis outcome.
pub trait Outcome: Ord {
    /// Whether qubit `q` reads 1.
    fn qubit(&self, q: usize) -> bool;
}

/// A basis index: qubit `q` is bit `q`.
impl Outcome for u64 {
    fn qubit(&self, q: usize) -> bool {
        self >> q & 1 == 1
    }
}

/// One bit per qubit, for registers wider than an index.
impl Outcome for Vec<u8> {
    fn qubit(&self, q: usize) -> bool {
        self[q] == 1
    }
}

/// Where one classical bit's value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// Nothing measures it.
    Zero,
    /// A terminal measurement of this qubit: the sampled outcome.
    Sampled(usize),
    /// A mid-circuit measurement: the trajectory's collapsed bit.
    Collapsed,
}

/// A circuit's measurements, read once: the terminal rule per op and, per
/// classical bit, where its value comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Readout {
    /// Per op position: a measurement there is terminal.
    terminal: Vec<bool>,
    /// Per classical bit, in bit order.
    sources: Vec<Source>,
    mid_circuit: bool,
}

impl Readout {
    /// Reads `circuit`'s measurements.
    ///
    /// # Panics
    /// Panics when a measurement writes a classical bit outside the
    /// circuit's classical register.
    pub fn of(circuit: &Circuit) -> Readout {
        let ops = circuit.ops();
        let mut terminal = vec![false; ops.len()];
        let mut touched = vec![false; circuit.num_qubits()];
        for (at, op) in ops.iter().enumerate().rev() {
            match op {
                Op::Gate(g) => g.operands().iter().for_each(|&q| touched[q] = true),
                Op::Measure { qubit, .. } => terminal[at] = !touched[*qubit],
                Op::Barrier(_) => {}
            }
        }
        let mut sources = vec![Source::Zero; circuit.num_clbits()];
        let (mut measured, mut mid_circuit) = (false, false);
        for (at, op) in ops.iter().enumerate() {
            if let Op::Measure { qubit, clbit } = op {
                measured = true;
                mid_circuit |= !terminal[at];
                sources[*clbit] = if terminal[at] {
                    Source::Sampled(*qubit)
                } else {
                    Source::Collapsed
                };
            }
        }
        if !measured {
            sources = (0..circuit.num_qubits()).map(Source::Sampled).collect();
        }
        Readout {
            terminal,
            sources,
            mid_circuit,
        }
    }

    /// Whether the op at position `at` is a terminal measurement. A
    /// measurement that is not collapses the state there.
    pub fn is_terminal(&self, at: usize) -> bool {
        self.terminal[at]
    }

    /// Whether some measurement is mid-circuit (whether or not a later one
    /// overwrites its bit): an engine that cannot collapse a state cannot
    /// run the circuit.
    pub fn has_mid_circuit(&self) -> bool {
        self.mid_circuit
    }

    /// Counts of one trajectory: one sampled outcome per shot, in any
    /// order, and the classical bits its mid-circuit measurements
    /// collapsed to (by classical bit).
    pub fn counts<T: Outcome>(&self, mut shots: Vec<T>, collapsed: &BTreeMap<usize, u8>) -> Counts {
        shots.sort_unstable();
        let width = self.sources.len();
        let words = stride(width);
        let distinct = shots.chunk_by(|a, b| a == b).count();
        let (mut keys, mut ns) = Counts::buffers(width, distinct);
        keys.resize(distinct * words, 0);
        for (run, key) in shots
            .chunk_by(|a, b| a == b)
            .zip(keys.chunks_exact_mut(words))
        {
            self.key(&run[0], collapsed, key);
            ns.push(run.len());
        }
        // Distinct outcomes share a key where the map leaves qubits out.
        Counts::tally(width, keys, ns)
    }

    /// Writes the count key of one outcome into `key` (zeroed, most
    /// significant word first).
    fn key(&self, outcome: &impl Outcome, collapsed: &BTreeMap<usize, u8>, key: &mut [u64]) {
        let last = key.len() - 1;
        for (c, source) in self.sources.iter().enumerate() {
            let bit = match *source {
                Source::Zero => false,
                Source::Sampled(q) => outcome.qubit(q),
                Source::Collapsed => collapsed.get(&c) == Some(&1),
            };
            key[last - c / 64] |= u64::from(bit) << (c % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(qc: &Circuit, shots: &[u64], collapsed: &[(usize, u8)]) -> Counts {
        let collapsed = collapsed.iter().copied().collect();
        Readout::of(qc).counts(shots.to_vec(), &collapsed)
    }

    fn map(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|&(k, c)| (k.to_string(), c)).collect()
    }

    #[test]
    fn measure_all_renders_the_register_qubit_zero_rightmost() {
        let mut qc = Circuit::new(3);
        qc.h(0).measure_all();
        let got = counts(&qc, &[0b001, 0b100, 0b001, 0b000], &[]);
        assert_eq!(got, map(&[("000", 1), ("001", 2), ("100", 1)]));
        // Measuring nothing is measuring everything, in order.
        assert_eq!(
            counts(&Circuit::new(3), &[0b001, 0b100, 0b001, 0b000], &[]),
            got
        );
    }

    #[test]
    fn partial_and_permuted_maps_project_onto_the_classical_register() {
        // q2 -> c0, q0 -> c3 on a 4-clbit register: c1, c2 read 0.
        let mut qc = Circuit::with_clbits(3, 4);
        qc.h(0).measure(2, 0).measure(0, 3);
        let got = counts(&qc, &[0b101, 0b001, 0b100, 0b010], &[]);
        assert_eq!(
            got,
            map(&[("0000", 1), ("0001", 1), ("1000", 1), ("1001", 1)])
        );
    }

    #[test]
    fn terminal_iff_no_later_gate_touches_the_qubit() {
        let mut qc = Circuit::new(2);
        qc.h(0)
            .measure(0, 0)
            .x(1)
            .measure(1, 1)
            .barrier()
            .x(0)
            .measure(0, 1);
        let r = Readout::of(&qc);
        let flags: Vec<bool> = (0..qc.ops().len()).map(|at| r.is_terminal(at)).collect();
        assert_eq!(flags, [false, false, false, true, false, false, true]);
        assert!(r.has_mid_circuit());
        // A collapse still happens when a later measurement overwrites
        // its bit.
        let mut qc = Circuit::new(1);
        qc.h(0).measure(0, 0).x(0).measure(0, 0);
        assert!(Readout::of(&qc).has_mid_circuit());
    }

    #[test]
    fn the_last_measurement_into_a_bit_wins() {
        // c0 is first collapsed (mid-circuit), then overwritten by a
        // terminal measurement of q1; c1 keeps the collapsed bit.
        let mut qc = Circuit::new(2);
        qc.h(0).measure(0, 0).measure(0, 1).x(0).measure(1, 0);
        assert_eq!(
            counts(&qc, &[0b10, 0b00], &[(0, 1), (1, 1)]),
            map(&[("10", 1), ("11", 1)])
        );
    }

    #[test]
    fn only_mid_circuit_measurements_give_one_trajectory_for_every_shot() {
        let mut qc = Circuit::new(2);
        qc.h(0).measure(0, 1).x(0);
        assert_eq!(counts(&qc, &[0, 1, 2, 3], &[(1, 1)]), map(&[("10", 4)]));
    }

    #[test]
    fn wide_outcomes_render_like_indices() {
        let mut qc = Circuit::new(3);
        qc.measure(2, 0).measure(0, 2);
        let bits = vec![vec![1, 0, 0], vec![0, 0, 1], vec![1, 0, 0]];
        let wide = Readout::of(&qc).counts(bits, &BTreeMap::new());
        assert_eq!(wide, counts(&qc, &[0b001, 0b100, 0b001], &[]));
        assert_eq!(wide, map(&[("001", 1), ("100", 2)]));
    }
}
