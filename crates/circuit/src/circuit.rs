//! The [`Circuit`] container and its fluent builder API.

use crate::gate::Gate;
use std::fmt;

/// The widest register a program may declare: the most qubits, and the
/// most classical bits, across all of its registers. Every text front end
/// refuses a wider declaration before it sizes anything from it, so a few
/// bytes of input cannot make the process allocate for a register no
/// engine could run.
pub const MAX_REGISTER_WIDTH: usize = 1024;

/// One operation in a circuit: a gate, a measurement, or a barrier.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A unitary gate.
    Gate(Gate),
    /// Projective Z-basis measurement of `qubit` into classical bit `clbit`.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
    /// Scheduling barrier across the listed qubits (all qubits when empty).
    Barrier(Vec<usize>),
}

impl Op {
    /// Qubits the operation touches.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Op::Gate(g) => g.qubits(),
            Op::Measure { qubit, .. } => vec![*qubit],
            Op::Barrier(qs) => qs.clone(),
        }
    }
}

/// An ordered quantum circuit over `num_qubits` qubits and `num_clbits`
/// classical bits.
///
/// The builder methods return `&mut Self` so workload generators read like
/// the Qiskit code they mirror:
///
/// ```
/// use qfw_circuit::Circuit;
/// let mut qc = Circuit::new(3);
/// qc.h(0).cx(0, 1).cx(1, 2).measure_all();
/// assert_eq!(qc.depth(), 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<Op>,
    /// Optional human-readable name carried through dispatch logs.
    pub name: String,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits (and as many
    /// classical bits).
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            num_clbits: num_qubits,
            ops: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates an empty circuit with distinct quantum/classical register sizes.
    pub fn with_clbits(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit {
            num_qubits,
            num_clbits,
            ops: Vec::new(),
            name: String::new(),
        }
    }

    /// Sets the display name (builder style).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    #[inline]
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The operation list in program order.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Iterates over just the unitary gates, in order.
    pub fn gates(&self) -> impl Iterator<Item = &Gate> {
        self.ops.iter().filter_map(|op| match op {
            Op::Gate(g) => Some(g),
            _ => None,
        })
    }

    /// Appends a gate after validating its qubit operands.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        let qs = gate.operands();
        for &q in qs.iter() {
            assert!(
                q < self.num_qubits,
                "gate {gate} touches qubit {q} but the circuit has {} qubits",
                self.num_qubits
            );
        }
        // Reject duplicate operands (e.g. cx q0 q0), which are not unitary
        // operations on the register.
        for i in 0..qs.len() {
            for j in (i + 1)..qs.len() {
                assert!(qs[i] != qs[j], "gate {gate} repeats qubit {}", qs[i]);
            }
        }
        self.ops.push(Op::Gate(gate));
        self
    }

    /// Appends an arbitrary op without builder sugar.
    pub fn push_op(&mut self, op: Op) -> &mut Self {
        match &op {
            Op::Gate(g) => return self.push(g.clone()),
            Op::Measure { qubit, clbit } => {
                assert!(*qubit < self.num_qubits, "measure of out-of-range qubit");
                assert!(*clbit < self.num_clbits, "measure into out-of-range clbit");
            }
            Op::Barrier(qs) => {
                assert!(qs.iter().all(|&q| q < self.num_qubits));
            }
        }
        self.ops.push(op);
        self
    }

    // --- builder sugar -----------------------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }
    /// Pauli X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }
    /// Pauli Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y(q))
    }
    /// Pauli Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z(q))
    }
    /// S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S(q))
    }
    /// S-dagger on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Sdg(q))
    }
    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T(q))
    }
    /// T-dagger on `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Tdg(q))
    }
    /// X rotation on `q`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx(q, theta))
    }
    /// Y rotation on `q`.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Ry(q, theta))
    }
    /// Z rotation on `q`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz(q, theta))
    }
    /// Phase gate on `q`.
    pub fn p(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Phase(q, theta))
    }
    /// CNOT with the given control and target.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cx(control, target))
    }
    /// Controlled-Z.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }
    /// Controlled phase.
    pub fn cp(&mut self, control: usize, target: usize, theta: f64) -> &mut Self {
        self.push(Gate::Cp(control, target, theta))
    }
    /// Controlled Y rotation.
    pub fn cry(&mut self, control: usize, target: usize, theta: f64) -> &mut Self {
        self.push(Gate::Cry(control, target, theta))
    }
    /// SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }
    /// ZZ interaction.
    pub fn rzz(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rzz(a, b, theta))
    }
    /// XX interaction.
    pub fn rxx(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rxx(a, b, theta))
    }
    /// Toffoli.
    pub fn ccx(&mut self, c0: usize, c1: usize, t: usize) -> &mut Self {
        self.push(Gate::Ccx(c0, c1, t))
    }
    /// Measures `qubit` into classical bit `clbit`.
    pub fn measure(&mut self, qubit: usize, clbit: usize) -> &mut Self {
        self.push_op(Op::Measure { qubit, clbit })
    }
    /// Measures every qubit into the same-numbered classical bit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.ops.push(Op::Measure { qubit: q, clbit: q });
        }
        self
    }
    /// Full-width barrier.
    pub fn barrier(&mut self) -> &mut Self {
        let qs: Vec<usize> = (0..self.num_qubits).collect();
        self.ops.push(Op::Barrier(qs));
        self
    }

    // --- composition -------------------------------------------------------

    /// Appends all of `other`'s operations (registers must be compatible).
    pub fn compose(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot compose a {}-qubit circuit onto {} qubits",
            other.num_qubits,
            self.num_qubits
        );
        for op in &other.ops {
            self.push_op(op.clone());
        }
        self
    }

    /// Appends `other` with its qubit `i` mapped onto `layout[i]`.
    pub fn compose_mapped(&mut self, other: &Circuit, layout: &[usize]) -> &mut Self {
        assert_eq!(layout.len(), other.num_qubits, "layout length mismatch");
        for op in &other.ops {
            let mapped = match op {
                Op::Gate(g) => Op::Gate(g.map_qubits(|q| layout[q])),
                Op::Measure { qubit, clbit } => Op::Measure {
                    qubit: layout[*qubit],
                    clbit: *clbit,
                },
                Op::Barrier(qs) => Op::Barrier(qs.iter().map(|&q| layout[q]).collect()),
            };
            self.push_op(mapped);
        }
        self
    }

    /// The adjoint circuit: gates reversed and inverted. Measurements and
    /// barriers are dropped (they have no inverse).
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        inv.name = if self.name.is_empty() {
            String::new()
        } else {
            format!("{}_dg", self.name)
        };
        for op in self.ops.iter().rev() {
            if let Op::Gate(g) = op {
                inv.push(g.inverse());
            }
        }
        inv
    }

    // --- statistics ----------------------------------------------------------

    /// Total number of operations (gates + measurements; barriers excluded).
    pub fn size(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| !matches!(op, Op::Barrier(_)))
            .count()
    }

    /// Number of unitary gates.
    pub fn num_gates(&self) -> usize {
        self.gates().count()
    }

    /// Number of entangling (multi-qubit, non-swap) gates — the quantity the
    /// backend-selection heuristics key on.
    pub fn num_entangling(&self) -> usize {
        self.gates().filter(|g| g.is_entangling()).count()
    }

    /// Circuit depth: the length of the longest qubit-ordered dependency
    /// chain, counting gates and measurements (barriers synchronize but do
    /// not add depth).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits.max(1)];
        let mut max_depth = 0;
        for op in &self.ops {
            match op {
                Op::Barrier(qs) => {
                    let sync = qs.iter().map(|&q| level[q]).max().unwrap_or(0);
                    for &q in qs {
                        level[q] = sync;
                    }
                }
                _ => {
                    let qs = op.qubits();
                    let d = qs.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
                    for &q in &qs {
                        level[q] = d;
                    }
                    max_depth = max_depth.max(d);
                }
            }
        }
        max_depth
    }

    /// Gate counts keyed by mnemonic, for logs and reports.
    pub fn count_ops(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for g in self.gates() {
            *counts.entry(g.name()).or_insert(0) += 1;
        }
        counts
    }

    /// True when the circuit ends by measuring every qubit (the common shape
    /// of the paper's benchmark kernels).
    pub fn measures_all(&self) -> bool {
        let measured: std::collections::BTreeSet<usize> = self
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Measure { qubit, .. } => Some(*qubit),
                _ => None,
            })
            .collect();
        measured.len() == self.num_qubits
    }

    /// Strips measurements and barriers, leaving the unitary part.
    pub fn unitary_part(&self) -> Circuit {
        let mut c = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        c.name = self.name.clone();
        for g in self.gates() {
            c.push(g.clone());
        }
        c
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit{} [{} qubits, {} ops, depth {}]",
            if self.name.is_empty() {
                String::new()
            } else {
                format!(" '{}'", self.name)
            },
            self.num_qubits,
            self.size(),
            self.depth()
        )?;
        for op in &self.ops {
            match op {
                Op::Gate(g) => writeln!(f, "  {g}")?,
                Op::Measure { qubit, clbit } => writeln!(f, "  measure q{qubit} -> c{clbit}")?,
                Op::Barrier(_) => writeln!(f, "  barrier")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz3() -> Circuit {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        qc
    }

    #[test]
    fn builder_chains_and_counts() {
        let qc = ghz3();
        assert_eq!(qc.num_gates(), 3);
        assert_eq!(qc.num_entangling(), 2);
        assert_eq!(qc.count_ops()["cx"], 2);
        assert_eq!(qc.count_ops()["h"], 1);
    }

    #[test]
    fn depth_of_ghz_chain() {
        // h q0; cx q0,q1; cx q1,q2 => depth 3
        assert_eq!(ghz3().depth(), 3);
    }

    #[test]
    fn depth_parallel_layers() {
        let mut qc = Circuit::new(4);
        qc.h(0).h(1).h(2).h(3); // one layer
        qc.cx(0, 1).cx(2, 3); // one layer
        assert_eq!(qc.depth(), 2);
    }

    #[test]
    fn barrier_synchronizes_without_depth() {
        let mut a = Circuit::new(2);
        a.h(0).barrier().h(1);
        // h q1 must come after the barrier which saw level 1 on q0.
        assert_eq!(a.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "touches qubit 5")]
    fn push_validates_range() {
        let mut qc = Circuit::new(2);
        qc.h(5);
    }

    #[test]
    #[should_panic(expected = "repeats qubit")]
    fn push_rejects_duplicate_operands() {
        let mut qc = Circuit::new(2);
        qc.cx(1, 1);
    }

    #[test]
    fn compose_appends() {
        let mut a = ghz3();
        let b = ghz3();
        a.compose(&b);
        assert_eq!(a.num_gates(), 6);
    }

    #[test]
    fn compose_mapped_remaps() {
        let mut big = Circuit::new(6);
        let mut small = Circuit::new(2);
        small.h(0).cx(0, 1);
        big.compose_mapped(&small, &[4, 2]);
        let gates: Vec<_> = big.gates().cloned().collect();
        assert_eq!(gates[0], Gate::H(4));
        assert_eq!(gates[1], Gate::Cx(4, 2));
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut qc = Circuit::new(2);
        qc.h(0).t(0).cx(0, 1).measure_all();
        let inv = qc.inverse();
        let gates: Vec<_> = inv.gates().cloned().collect();
        assert_eq!(gates[0], Gate::Cx(0, 1));
        assert_eq!(gates[1], Gate::Tdg(0));
        assert_eq!(gates[2], Gate::H(0));
        assert_eq!(inv.size(), 3); // measurements dropped
    }

    #[test]
    fn measure_all_and_detection() {
        let mut qc = ghz3();
        assert!(!qc.measures_all());
        qc.measure_all();
        assert!(qc.measures_all());
        assert_eq!(qc.size(), 6);
    }

    #[test]
    fn unitary_part_strips_nonunitary() {
        let mut qc = ghz3();
        qc.barrier().measure_all();
        let u = qc.unitary_part();
        assert_eq!(u.size(), 3);
        assert!(u.ops().iter().all(|op| matches!(op, Op::Gate(_))));
    }

    #[test]
    fn display_smoke() {
        let text = format!("{}", ghz3());
        assert!(text.contains("3 qubits"));
        assert!(text.contains("cx q0 q1"));
    }
}
