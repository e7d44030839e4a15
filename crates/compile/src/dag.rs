//! The DAG circuit IR: nodes are operations, edges are qubit/clbit wires.
//!
//! Every node records, per wire it touches, its predecessor and successor
//! on that wire — the standard "last op on each wire" construction. Pass
//! authors navigate with [`DagCircuit::next_on`]/[`DagCircuit::prev_on`],
//! read a node's wires with [`DagCircuit::wires`], and rewrite with
//! [`DagCircuit::remove`]/[`DagCircuit::replace_op`], which splice edges
//! in place.
//!
//! **Edge storage:** a node's wires and their links live in one arena
//! shared by the whole DAG, as one contiguous run per node in operand
//! order. A node is appended once and its wire list never changes
//! (`replace_op` keeps it), so building and rewriting a DAG allocates
//! nothing per node beyond the arena's amortized growth.
//!
//! **Id-order invariant:** node ids are assigned in program order, and the
//! rewrite API never re-inserts a node (only removal and in-place
//! replacement), so ascending id order is always a valid topological
//! order. Passes rely on this to compare positions across wires cheaply,
//! and [`DagCircuit::linearize`] exploits it to reproduce the source
//! program order exactly — which is what makes `Circuit → DAG → Circuit`
//! a lossless round trip.
//!
//! Symbolic angles ride through untouched: node payloads are
//! [`ParamOp`]s, so a [`ParamCircuit`] round-trips with its
//! [`Rotation`](qfw_circuit::Rotation)s' affine angles intact and the rotation-merging passes can
//! fold symbolic chains (`rz(2γ·w1); rz(2γ·w2)` → `rz(2γ·(w1+w2))`)
//! without binding. A rotation with a literal angle is stored as its fixed
//! gate ([`DagCircuit::push`]), so a `ParamOp::Rot` node is always
//! symbolic.

use qfw_circuit::param::{ParamCircuit, ParamOp};
use qfw_circuit::{Circuit, Op};

/// Index of a node within its [`DagCircuit`].
pub type NodeId = usize;

/// A wire: one qubit or one classical bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Wire {
    /// Qubit wire.
    Q(usize),
    /// Classical-bit wire.
    C(usize),
}

/// A node payload: a (possibly symbolic) operation or a barrier.
#[derive(Clone, Debug, PartialEq)]
pub enum DagOp {
    /// A gate (fixed or parameterized rotation) or a measurement.
    Op(ParamOp),
    /// A barrier across the listed qubits (optimization fence).
    Barrier(Vec<usize>),
}

impl DagOp {
    /// Calls `f` with each wire this operation touches, in operand order.
    pub fn for_each_wire(&self, mut f: impl FnMut(Wire)) {
        match self {
            DagOp::Op(ParamOp::Rot(r)) => r.operands().iter().for_each(|&q| f(Wire::Q(q))),
            DagOp::Op(ParamOp::Fixed(g)) => g.operands().iter().for_each(|&q| f(Wire::Q(q))),
            DagOp::Op(ParamOp::Measure { qubit, clbit }) => {
                f(Wire::Q(*qubit));
                f(Wire::C(*clbit));
            }
            DagOp::Barrier(qs) => qs.iter().for_each(|&q| f(Wire::Q(q))),
        }
    }

    /// True for plain gates (not measurements, not barriers).
    pub fn is_gate(&self) -> bool {
        !matches!(self, DagOp::Barrier(_) | DagOp::Op(ParamOp::Measure { .. }))
    }
}

#[derive(Clone, Debug)]
struct DagNode {
    op: DagOp,
    /// This node's edges: `first..first + len` in the DAG's edge arena,
    /// parallel to the op's wires.
    first: usize,
    len: usize,
    live: bool,
}

/// The neighbours of one node on one of its wires.
#[derive(Clone, Copy, Debug)]
struct Link {
    pred: Option<NodeId>,
    succ: Option<NodeId>,
}

/// Errors converting a DAG back to a concrete [`Circuit`].
#[derive(Clone, Debug, PartialEq)]
pub enum DagError {
    /// A symbolic angle cannot be lowered without a parameter binding.
    SymbolicAngle {
        /// Parameter index the angle references.
        index: usize,
    },
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::SymbolicAngle { index } => write!(
                f,
                "circuit references unbound parameter theta[{index}]; bind it or convert to a ParamCircuit"
            ),
        }
    }
}

impl std::error::Error for DagError {}

/// A circuit as a wire-edged DAG. See the module docs for the edge arena
/// and the id-order invariant the rewrite API maintains.
#[derive(Clone, Debug)]
pub struct DagCircuit {
    num_qubits: usize,
    num_clbits: usize,
    /// Display name, carried through conversions.
    pub name: String,
    nodes: Vec<DagNode>,
    /// Edge arena: the wire of each edge ...
    wires: Vec<Wire>,
    /// ... and its neighbours, at the same index.
    links: Vec<Link>,
    q_first: Vec<Option<NodeId>>,
    q_last: Vec<Option<NodeId>>,
    c_first: Vec<Option<NodeId>>,
    c_last: Vec<Option<NodeId>>,
    live: usize,
}

impl DagCircuit {
    /// An empty DAG over `num_qubits` qubits and `num_clbits` clbits.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        Self::with_capacity(num_qubits, num_clbits, 0)
    }

    /// An empty DAG with room for `ops` operations of up to two wires.
    pub(crate) fn with_capacity(num_qubits: usize, num_clbits: usize, ops: usize) -> Self {
        DagCircuit {
            num_qubits,
            num_clbits,
            name: String::new(),
            nodes: Vec::with_capacity(ops),
            wires: Vec::with_capacity(2 * ops),
            links: Vec::with_capacity(2 * ops),
            q_first: vec![None; num_qubits],
            q_last: vec![None; num_qubits],
            c_first: vec![None; num_clbits],
            c_last: vec![None; num_clbits],
            live: 0,
        }
    }

    /// Grows the registers to `num_qubits` qubits and `num_clbits`
    /// clbits, appending empty wires: the QASM3 parser declares registers
    /// as it reads them.
    pub(crate) fn widen(&mut self, num_qubits: usize, num_clbits: usize) {
        self.num_qubits = num_qubits;
        self.num_clbits = num_clbits;
        self.q_first.resize(num_qubits, None);
        self.q_last.resize(num_qubits, None);
        self.c_first.resize(num_clbits, None);
        self.c_last.resize(num_clbits, None);
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Number of live operations (gates + measurements + barriers).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live operation remains.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live gate nodes (excluding measurements and barriers) —
    /// the "pre-fusion gate count" the compiler benchmarks report.
    pub fn gate_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.live && n.op.is_gate())
            .count()
    }

    /// Appends an operation, linking it after the current last node on
    /// each of its wires. Literal-angle rotations are canonicalized to
    /// fixed gates on entry ([`canonicalize_op`]), so every ingestion
    /// path — `from_circuit`, `from_param`, the QASM3 parser — produces
    /// the same representation for the same operation.
    ///
    /// # Panics
    /// Panics when a wire index is out of range or a qubit is repeated.
    pub fn push(&mut self, op: DagOp) -> NodeId {
        let op = canonicalize_op(op);
        let id = self.nodes.len();
        let first = self.wires.len();
        op.for_each_wire(|w| self.wires.push(w));
        let len = self.wires.len() - first;
        for e in first..first + len {
            let w = self.wires[e];
            match w {
                Wire::Q(q) => assert!(
                    q < self.num_qubits,
                    "qubit {q} out of range for {} qubits",
                    self.num_qubits
                ),
                Wire::C(c) => assert!(
                    c < self.num_clbits,
                    "clbit {c} out of range for {} clbits",
                    self.num_clbits
                ),
            }
            assert!(
                !self.wires[first..e].contains(&w),
                "repeated operand {w:?} in {op:?}"
            );
        }
        for e in first..first + len {
            let w = self.wires[e];
            let last = match w {
                Wire::Q(q) => self.q_last[q].replace(id),
                Wire::C(c) => self.c_last[c].replace(id),
            };
            if let Some(prev) = last {
                let slot = self.wire_slot(prev, w);
                self.links[slot].succ = Some(id);
            } else {
                match w {
                    Wire::Q(q) => self.q_first[q] = Some(id),
                    Wire::C(c) => self.c_first[c] = Some(id),
                }
            }
            self.links.push(Link {
                pred: last,
                succ: None,
            });
        }
        self.nodes.push(DagNode {
            op,
            first,
            len,
            live: true,
        });
        self.live += 1;
        id
    }

    /// The arena index of `id`'s edge on `wire`.
    fn wire_slot(&self, id: NodeId, wire: Wire) -> usize {
        let node = &self.nodes[id];
        self.wires[node.first..node.first + node.len]
            .iter()
            .position(|&w| w == wire)
            .map(|k| node.first + k)
            .unwrap_or_else(|| panic!("node {id} does not touch wire {wire:?}"))
    }

    /// The payload of a node.
    ///
    /// # Panics
    /// Panics when the node has been removed.
    pub fn op(&self, id: NodeId) -> &DagOp {
        let node = &self.nodes[id];
        assert!(node.live, "node {id} was removed");
        &node.op
    }

    /// The wires a node touches, in operand order.
    ///
    /// # Panics
    /// Panics when the node has been removed.
    pub fn wires(&self, id: NodeId) -> &[Wire] {
        let node = &self.nodes[id];
        assert!(node.live, "node {id} was removed");
        &self.wires[node.first..node.first + node.len]
    }

    /// Whether a node is still live.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes.get(id).is_some_and(|n| n.live)
    }

    /// One past the highest node id ever assigned. Removed ids never come
    /// back, so a pass that rewrites while it walks visits `0..id_limit()`
    /// and skips the ids [`is_live`](Self::is_live) rejects.
    pub fn id_limit(&self) -> NodeId {
        self.nodes.len()
    }

    /// All currently live node ids, ascending (a topological order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).filter(|&id| self.nodes[id].live)
    }

    /// The first live node on a wire.
    pub fn first_on(&self, wire: Wire) -> Option<NodeId> {
        match wire {
            Wire::Q(q) => self.q_first[q],
            Wire::C(c) => self.c_first[c],
        }
    }

    /// The next node after `id` on `wire`.
    pub fn next_on(&self, id: NodeId, wire: Wire) -> Option<NodeId> {
        self.links[self.wire_slot(id, wire)].succ
    }

    /// The node before `id` on `wire`.
    pub fn prev_on(&self, id: NodeId, wire: Wire) -> Option<NodeId> {
        self.links[self.wire_slot(id, wire)].pred
    }

    /// Removes a node, splicing its predecessor and successor together on
    /// every wire it touched.
    pub fn remove(&mut self, id: NodeId) {
        let DagNode {
            first, len, live, ..
        } = self.nodes[id];
        assert!(live, "node {id} already removed");
        for e in first..first + len {
            let w = self.wires[e];
            let Link { pred, succ } = self.links[e];
            match pred {
                Some(prev) => {
                    let slot = self.wire_slot(prev, w);
                    self.links[slot].succ = succ;
                }
                None => match w {
                    Wire::Q(q) => self.q_first[q] = succ,
                    Wire::C(c) => self.c_first[c] = succ,
                },
            }
            match succ {
                Some(next) => {
                    let slot = self.wire_slot(next, w);
                    self.links[slot].pred = pred;
                }
                None => match w {
                    Wire::Q(q) => self.q_last[q] = pred,
                    Wire::C(c) => self.c_last[c] = pred,
                },
            }
        }
        self.nodes[id].live = false;
        self.live -= 1;
    }

    /// Replaces a node's payload in place. The replacement must touch
    /// exactly the same wires in the same order (so edges are preserved);
    /// this is the rewrite primitive peephole passes use (e.g.
    /// `cx; rz; cx` → `rzz` replaces the first `cx` and removes the rest).
    ///
    /// # Panics
    /// Panics when the wire lists differ.
    pub fn replace_op(&mut self, id: NodeId, op: DagOp) {
        let op = canonicalize_op(op);
        let wires = self.wires(id);
        let mut k = 0;
        let mut same = true;
        op.for_each_wire(|w| {
            same &= wires.get(k) == Some(&w);
            k += 1;
        });
        assert!(
            same && k == wires.len(),
            "replacement for node {id} must touch the same wires"
        );
        self.nodes[id].op = op;
    }

    /// Live payloads in program order (ascending id — a topological order
    /// by the id-order invariant).
    pub fn linearize(&self) -> impl Iterator<Item = &DagOp> + '_ {
        self.nodes.iter().filter(|n| n.live).map(|n| &n.op)
    }

    /// Highest parameter index referenced by any symbolic angle, if any.
    pub fn max_param_index(&self) -> Option<usize> {
        self.nodes
            .iter()
            .filter(|n| n.live)
            .filter_map(|n| match &n.op {
                DagOp::Op(ParamOp::Rot(r)) => r.angle().index(),
                _ => None,
            })
            .max()
    }

    /// Number of parameters (one past the highest referenced index).
    pub fn num_params(&self) -> usize {
        self.max_param_index().map_or(0, |m| m + 1)
    }

    /// Builds a DAG from a concrete circuit. Lossless: `to_circuit`
    /// returns an identical [`Circuit`].
    pub fn from_circuit(qc: &Circuit) -> Self {
        let mut dag = DagCircuit::with_capacity(qc.num_qubits(), qc.num_clbits(), qc.ops().len());
        dag.name = qc.name.clone();
        for op in qc.ops() {
            match op {
                Op::Gate(g) => {
                    dag.push(DagOp::Op(ParamOp::Fixed(g.clone())));
                }
                Op::Measure { qubit, clbit } => {
                    dag.push(DagOp::Op(ParamOp::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    }));
                }
                Op::Barrier(qs) => {
                    // An empty operand list means "all qubits"; expand it
                    // so the fence is visible on every wire.
                    let qs = if qs.is_empty() {
                        (0..qc.num_qubits()).collect()
                    } else {
                        qs.clone()
                    };
                    dag.push(DagOp::Barrier(qs));
                }
            }
        }
        dag
    }

    /// Builds a DAG from a parameterized circuit. Semantically lossless:
    /// symbolic angles survive, and `to_param` returns the same program
    /// with literal-angle rotations canonicalized to fixed gates
    /// ([`push`](Self::push)).
    pub fn from_param(t: &ParamCircuit) -> Self {
        let mut dag = DagCircuit::new(t.num_qubits(), t.num_qubits());
        dag.name = t.name.clone();
        for op in t.ops() {
            dag.push(DagOp::Op(op.clone()));
        }
        dag
    }

    /// Lowers the DAG to a concrete [`Circuit`].
    ///
    /// Fails with [`DagError::SymbolicAngle`] when any rotation still
    /// references an unbound parameter.
    pub fn to_circuit(&self) -> Result<Circuit, DagError> {
        let mut qc = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        qc.name = self.name.clone();
        for op in self.linearize() {
            match op {
                DagOp::Op(ParamOp::Fixed(g)) => {
                    qc.push(g.clone());
                }
                DagOp::Op(ParamOp::Measure { qubit, clbit }) => {
                    qc.push_op(Op::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    });
                }
                DagOp::Op(ParamOp::Rot(r)) => {
                    qc.push(r.lower().ok_or_else(|| {
                        DagError::SymbolicAngle {
                            index: r
                                .angle()
                                .index()
                                .expect("a rotation that does not lower is symbolic"),
                        }
                    })?);
                }
                DagOp::Barrier(qs) => {
                    qc.push_op(Op::Barrier(qs.clone()));
                }
            }
        }
        Ok(qc)
    }

    /// Converts the DAG to a [`ParamCircuit`] template. Barriers are
    /// dropped (the template format has no fence construct); everything
    /// else — including symbolic angles — is preserved verbatim.
    pub fn to_param(&self) -> ParamCircuit {
        let mut t = ParamCircuit::new(self.num_qubits);
        t.name = self.name.clone();
        for op in self.linearize() {
            match op {
                DagOp::Op(p) => {
                    t.push(p.clone());
                }
                DagOp::Barrier(_) => {}
            }
        }
        t
    }

    /// Binds a parameter vector, lowering every symbolic angle.
    pub fn bind(&self, params: &[f64]) -> Circuit {
        let mut qc = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        qc.name = self.name.clone();
        for op in self.linearize() {
            match op {
                DagOp::Op(ParamOp::Fixed(g)) => {
                    qc.push(g.clone());
                }
                DagOp::Op(ParamOp::Measure { qubit, clbit }) => {
                    qc.push_op(Op::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    });
                }
                DagOp::Op(ParamOp::Rot(r)) => {
                    qc.push(r.bind(params));
                }
                DagOp::Barrier(qs) => {
                    qc.push_op(Op::Barrier(qs.clone()));
                }
            }
        }
        qc
    }
}

impl PartialEq for DagCircuit {
    /// Structural equality: same dimensions and the same live operation
    /// sequence (names are display-only and excluded, matching what the
    /// QASM3 fixed-point property compares).
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits
            && self.num_clbits == other.num_clbits
            && self.linearize().eq(other.linearize())
    }
}

/// The canonical IR form of an operation: a rotation whose angle is a
/// literal becomes the equivalent fixed gate, so symbolic ops are exactly
/// the ops that still reference a parameter. Everything else passes
/// through unchanged.
fn canonicalize_op(op: DagOp) -> DagOp {
    match op {
        DagOp::Op(ParamOp::Rot(r)) => match r.lower() {
            Some(g) => DagOp::Op(ParamOp::Fixed(g)),
            None => op,
        },
        op => op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::param::{Angle, RotKind, Rotation};
    use qfw_circuit::Gate;

    fn sample_circuit() -> Circuit {
        let mut qc = Circuit::with_clbits(3, 2);
        qc.name = "sample".into();
        qc.h(0);
        qc.cx(0, 1);
        qc.rz(1, 0.25);
        qc.push_op(Op::Barrier(vec![0, 1]));
        qc.ccx(0, 1, 2);
        qc.measure(2, 0);
        qc.h(2);
        qc.measure(2, 1);
        qc
    }

    #[test]
    fn circuit_round_trip_is_lossless() {
        let qc = sample_circuit();
        let dag = DagCircuit::from_circuit(&qc);
        assert_eq!(dag.to_circuit().unwrap(), qc);
    }

    #[test]
    fn param_round_trip_preserves_symbolic_angles() {
        let mut t = ParamCircuit::new(3);
        t.name = "tmpl".into();
        t.h(0)
            .rz(1, Angle::scaled(0, 2.5))
            .rzz(0, 2, Angle::sym(1))
            .rx(2, 0.5)
            .measure_all();
        let dag = DagCircuit::from_param(&t);
        // Literal-angle rotations canonicalize to fixed gates on entry;
        // symbolic angles and measures survive exactly.
        let mut want = ParamCircuit::new(3);
        want.name = "tmpl".into();
        want.h(0)
            .rz(1, Angle::scaled(0, 2.5))
            .rzz(0, 2, Angle::sym(1))
            .fixed(Gate::Rx(2, 0.5))
            .measure_all();
        assert_eq!(dag.to_param(), want);
        assert_eq!(dag.num_params(), 2);
    }

    #[test]
    fn to_circuit_rejects_unbound_symbols() {
        let mut t = ParamCircuit::new(1);
        t.rx(0, Angle::sym(3));
        let dag = DagCircuit::from_param(&t);
        assert_eq!(dag.to_circuit(), Err(DagError::SymbolicAngle { index: 3 }));
        // Binding lowers it.
        let bound = dag.bind(&[0.0, 0.0, 0.0, 1.5]);
        assert_eq!(bound.gates().next(), Some(&Gate::Rx(0, 1.5)));
    }

    #[test]
    fn wire_navigation_follows_program_order() {
        let qc = sample_circuit();
        let dag = DagCircuit::from_circuit(&qc);
        // Wire q1: cx(0,1) -> rz(1) -> barrier -> ccx.
        let first = dag.first_on(Wire::Q(1)).unwrap();
        assert!(matches!(
            dag.op(first),
            DagOp::Op(ParamOp::Fixed(Gate::Cx(0, 1)))
        ));
        let rz = dag.next_on(first, Wire::Q(1)).unwrap();
        assert!(matches!(
            dag.op(rz),
            DagOp::Op(ParamOp::Fixed(Gate::Rz(1, _)))
        ));
        assert_eq!(dag.prev_on(rz, Wire::Q(1)), Some(first));
        let barrier = dag.next_on(rz, Wire::Q(1)).unwrap();
        assert!(matches!(dag.op(barrier), DagOp::Barrier(_)));
    }

    #[test]
    fn remove_splices_edges() {
        let mut qc = Circuit::new(2);
        qc.h(0);
        qc.cx(0, 1);
        qc.h(0);
        let mut dag = DagCircuit::from_circuit(&qc);
        let cx = dag
            .next_on(dag.first_on(Wire::Q(0)).unwrap(), Wire::Q(0))
            .unwrap();
        dag.remove(cx);
        let first = dag.first_on(Wire::Q(0)).unwrap();
        let second = dag.next_on(first, Wire::Q(0)).unwrap();
        assert!(matches!(
            dag.op(second),
            DagOp::Op(ParamOp::Fixed(Gate::H(0)))
        ));
        assert_eq!(dag.next_on(second, Wire::Q(0)), None);
        assert_eq!(dag.first_on(Wire::Q(1)), None);
        assert_eq!(dag.len(), 2);
    }

    #[test]
    fn replace_op_keeps_edges() {
        let mut qc = Circuit::new(2);
        qc.cx(0, 1);
        qc.cx(0, 1);
        let mut dag = DagCircuit::from_circuit(&qc);
        let first = dag.first_on(Wire::Q(0)).unwrap();
        let rzz = Rotation::new(RotKind::Rzz, &[0, 1], Angle::Lit(0.5)).unwrap();
        dag.replace_op(first, DagOp::Op(ParamOp::Rot(rzz)));
        let qc2 = dag.to_circuit().unwrap();
        let gates: Vec<_> = qc2.gates().cloned().collect();
        assert_eq!(gates, vec![Gate::Rzz(0, 1, 0.5), Gate::Cx(0, 1)]);
    }

    #[test]
    fn structural_equality_ignores_name() {
        let mut a = Circuit::new(1);
        a.h(0);
        let mut b = Circuit::new(1).named("other");
        b.h(0);
        assert_eq!(DagCircuit::from_circuit(&a), DagCircuit::from_circuit(&b));
    }
}
