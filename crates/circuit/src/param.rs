//! Parameterized circuits: the ansatz path used by QAOA/DQAOA.
//!
//! A [`ParamCircuit`] is a circuit template whose rotation angles may be
//! affine functions of a parameter vector (`coeff * theta[k] + offset`).
//! Each optimizer iteration binds a fresh parameter vector to obtain an
//! executable [`Circuit`] — mirroring how Qiskit's `Parameter` objects are
//! bound before submission to a backend.
//!
//! A rotation, literal or symbolic, is one [`Rotation`] value: its family
//! ([`RotKind`]: name, arity, `Gate` constructor), its operands and its
//! [`Angle`]. The text formats, the compiler's DAG, passes and QASM3
//! front-end, and the sweep gradient all read this one value; a symbolic
//! angle is accepted only on the families [`RotKind::takes_symbol`] names.

use crate::circuit::{Circuit, Op};
use crate::gate::Gate;

/// An angle that is either a literal or an affine function of one parameter:
/// `coeff * theta[index] + offset`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Angle {
    /// A fixed angle.
    Lit(f64),
    /// `coeff * theta[index] + offset`.
    Sym {
        /// Index into the bound parameter vector.
        index: usize,
        /// Multiplicative coefficient (QUBO weights enter here).
        coeff: f64,
        /// Additive offset.
        offset: f64,
    },
}

impl Angle {
    /// A pure symbolic parameter `theta[index]`.
    pub fn sym(index: usize) -> Angle {
        Angle::Sym {
            index,
            coeff: 1.0,
            offset: 0.0,
        }
    }

    /// `coeff * theta[index]`.
    pub fn scaled(index: usize, coeff: f64) -> Angle {
        Angle::Sym {
            index,
            coeff,
            offset: 0.0,
        }
    }

    /// Evaluates against a bound parameter vector.
    pub fn bind(&self, params: &[f64]) -> f64 {
        match *self {
            Angle::Lit(v) => v,
            Angle::Sym {
                index,
                coeff,
                offset,
            } => {
                assert!(
                    index < params.len(),
                    "angle references theta[{index}] but only {} parameters were bound",
                    params.len()
                );
                coeff * params[index] + offset
            }
        }
    }

    /// The parameter index a symbolic angle references; `None` for a
    /// literal.
    pub fn index(&self) -> Option<usize> {
        match self {
            Angle::Lit(_) => None,
            Angle::Sym { index, .. } => Some(*index),
        }
    }
}

impl From<f64> for Angle {
    fn from(v: f64) -> Angle {
        Angle::Lit(v)
    }
}

/// The rotation families of the gate set: one angle on one or two qubits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RotKind {
    /// `rx`
    Rx,
    /// `ry`
    Ry,
    /// `rz`
    Rz,
    /// `p`
    Phase,
    /// `rzz`
    Rzz,
    /// `rxx`
    Rxx,
    /// `ryy`
    Ryy,
    /// `cp` (control, target)
    Cp,
    /// `crx` (control, target)
    Crx,
    /// `cry` (control, target)
    Cry,
    /// `crz` (control, target)
    Crz,
}

impl RotKind {
    /// Every family.
    pub const ALL: [RotKind; 11] = [
        RotKind::Rx,
        RotKind::Ry,
        RotKind::Rz,
        RotKind::Phase,
        RotKind::Rzz,
        RotKind::Rxx,
        RotKind::Ryy,
        RotKind::Cp,
        RotKind::Crx,
        RotKind::Cry,
        RotKind::Crz,
    ];

    /// The families that take a symbolic angle. Their generators have a
    /// gap-1 spectrum, so the two-point parameter-shift rule is exact on
    /// them; the controlled rotations and `ryy` take literals only.
    pub const SYMBOLIC: [RotKind; 7] = [
        RotKind::Rx,
        RotKind::Ry,
        RotKind::Rz,
        RotKind::Phase,
        RotKind::Rzz,
        RotKind::Rxx,
        RotKind::Cp,
    ];

    /// The mnemonic, as the text formats and QASM3 spell it.
    pub fn name(self) -> &'static str {
        match self {
            RotKind::Rx => "rx",
            RotKind::Ry => "ry",
            RotKind::Rz => "rz",
            RotKind::Phase => "p",
            RotKind::Rzz => "rzz",
            RotKind::Rxx => "rxx",
            RotKind::Ryy => "ryy",
            RotKind::Cp => "cp",
            RotKind::Crx => "crx",
            RotKind::Cry => "cry",
            RotKind::Crz => "crz",
        }
    }

    /// The family a mnemonic names.
    pub fn named(name: &str) -> Option<RotKind> {
        RotKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Number of qubit operands.
    pub fn arity(self) -> usize {
        match self {
            RotKind::Rx | RotKind::Ry | RotKind::Rz | RotKind::Phase => 1,
            _ => 2,
        }
    }

    /// Whether the family takes a symbolic angle (see [`Self::SYMBOLIC`]).
    pub fn takes_symbol(self) -> bool {
        RotKind::SYMBOLIC.contains(&self)
    }

    /// The fixed gate of this family on `qubits` (the first
    /// [`arity`](Self::arity) entries) at angle `t`.
    pub fn gate(self, qubits: [usize; 2], t: f64) -> Gate {
        let [a, b] = qubits;
        match self {
            RotKind::Rx => Gate::Rx(a, t),
            RotKind::Ry => Gate::Ry(a, t),
            RotKind::Rz => Gate::Rz(a, t),
            RotKind::Phase => Gate::Phase(a, t),
            RotKind::Rzz => Gate::Rzz(a, b, t),
            RotKind::Rxx => Gate::Rxx(a, b, t),
            RotKind::Ryy => Gate::Ryy(a, b, t),
            RotKind::Cp => Gate::Cp(a, b, t),
            RotKind::Crx => Gate::Crx(a, b, t),
            RotKind::Cry => Gate::Cry(a, b, t),
            RotKind::Crz => Gate::Crz(a, b, t),
        }
    }
}

/// A rotation, literal or symbolic: a family, its operands and its angle.
/// Built only through [`Rotation::new`] (or from a fixed gate), so a
/// symbolic angle sits only on a family that takes one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rotation {
    kind: RotKind,
    /// The operands are the first `kind.arity()` entries.
    qubits: [usize; 2],
    angle: Angle,
}

impl Rotation {
    /// A rotation of `kind` on `qubits` at `angle`; `None` when the operand
    /// count is not the family's arity, or the angle is symbolic and the
    /// family takes literals only.
    pub fn new(kind: RotKind, qubits: &[usize], angle: Angle) -> Option<Rotation> {
        if qubits.len() != kind.arity() || (angle.index().is_some() && !kind.takes_symbol()) {
            return None;
        }
        let mut qs = [0; 2];
        qs[..qubits.len()].copy_from_slice(qubits);
        Some(Rotation {
            kind,
            qubits: qs,
            angle,
        })
    }

    /// The rotation a fixed gate is, if it is one (a literal angle).
    pub fn of_gate(g: &Gate) -> Option<Rotation> {
        let (kind, qubits, t) = match *g {
            Gate::Rx(q, t) => (RotKind::Rx, [q, 0], t),
            Gate::Ry(q, t) => (RotKind::Ry, [q, 0], t),
            Gate::Rz(q, t) => (RotKind::Rz, [q, 0], t),
            Gate::Phase(q, t) => (RotKind::Phase, [q, 0], t),
            Gate::Rzz(a, b, t) => (RotKind::Rzz, [a, b], t),
            Gate::Rxx(a, b, t) => (RotKind::Rxx, [a, b], t),
            Gate::Ryy(a, b, t) => (RotKind::Ryy, [a, b], t),
            Gate::Cp(a, b, t) => (RotKind::Cp, [a, b], t),
            Gate::Crx(a, b, t) => (RotKind::Crx, [a, b], t),
            Gate::Cry(a, b, t) => (RotKind::Cry, [a, b], t),
            Gate::Crz(a, b, t) => (RotKind::Crz, [a, b], t),
            _ => return None,
        };
        Some(Rotation {
            kind,
            qubits,
            angle: Angle::Lit(t),
        })
    }

    /// The rotation a templated op is, parameterized or fixed.
    pub fn of(op: &ParamOp) -> Option<Rotation> {
        match op {
            ParamOp::Rot(r) => Some(*r),
            ParamOp::Fixed(g) => Rotation::of_gate(g),
            ParamOp::Measure { .. } => None,
        }
    }

    /// The family.
    pub fn kind(&self) -> RotKind {
        self.kind
    }

    /// The operands, in the family's order.
    pub fn operands(&self) -> &[usize] {
        &self.qubits[..self.kind.arity()]
    }

    /// The angle.
    pub fn angle(&self) -> Angle {
        self.angle
    }

    /// The same rotation at another angle; `None` when that angle is
    /// symbolic and the family takes literals only.
    pub fn with_angle(self, angle: Angle) -> Option<Rotation> {
        Rotation::new(self.kind, self.operands(), angle)
    }

    /// The fixed gate at `params`.
    pub fn bind(&self, params: &[f64]) -> Gate {
        self.kind.gate(self.qubits, self.angle.bind(params))
    }

    /// The fixed gate, when the angle is a literal.
    pub fn lower(&self) -> Option<Gate> {
        match self.angle {
            Angle::Lit(t) => Some(self.kind.gate(self.qubits, t)),
            Angle::Sym { .. } => None,
        }
    }
}

/// A templated operation: a rotation, a fixed gate, or a measurement.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamOp {
    /// A rotation whose angle may be symbolic.
    Rot(Rotation),
    /// Any fixed (non-parameterized) gate.
    Fixed(Gate),
    /// Measurement (copied through binding verbatim).
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
}

/// A circuit template over `num_qubits` qubits and `num_params` symbolic
/// parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamCircuit {
    num_qubits: usize,
    ops: Vec<ParamOp>,
    /// Display name carried onto every bound circuit.
    pub name: String,
}

impl ParamCircuit {
    /// Creates an empty template.
    pub fn new(num_qubits: usize) -> Self {
        ParamCircuit {
            num_qubits,
            ops: Vec::new(),
            name: String::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of parameters the template references (one past the highest
    /// index used).
    pub fn num_params(&self) -> usize {
        self.ops
            .iter()
            .filter_map(|op| match op {
                ParamOp::Rot(r) => r.angle().index(),
                _ => None,
            })
            .max()
            .map_or(0, |m| m + 1)
    }

    /// The templated operation list.
    pub fn ops(&self) -> &[ParamOp] {
        &self.ops
    }

    /// Appends a templated op.
    pub fn push(&mut self, op: ParamOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Appends a fixed gate.
    pub fn fixed(&mut self, gate: Gate) -> &mut Self {
        self.ops.push(ParamOp::Fixed(gate));
        self
    }

    /// Hadamard sugar (QAOA's initial superposition layer).
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.fixed(Gate::H(q))
    }

    /// A rotation of `kind` on `qubits` at `angle`.
    ///
    /// # Panics
    /// Panics when the operand count is not the family's arity, or the
    /// angle is symbolic on a family that takes literals only.
    pub fn rot(&mut self, kind: RotKind, qubits: &[usize], angle: impl Into<Angle>) -> &mut Self {
        let angle = angle.into();
        let r = Rotation::new(kind, qubits, angle)
            .unwrap_or_else(|| panic!("no {} rotation on {qubits:?} at {angle:?}", kind.name()));
        self.push(ParamOp::Rot(r))
    }

    /// Parameterized X rotation.
    pub fn rx(&mut self, q: usize, a: impl Into<Angle>) -> &mut Self {
        self.rot(RotKind::Rx, &[q], a)
    }

    /// Parameterized Z rotation.
    pub fn rz(&mut self, q: usize, a: impl Into<Angle>) -> &mut Self {
        self.rot(RotKind::Rz, &[q], a)
    }

    /// Parameterized ZZ interaction.
    pub fn rzz(&mut self, a: usize, b: usize, angle: impl Into<Angle>) -> &mut Self {
        self.rot(RotKind::Rzz, &[a, b], angle)
    }

    /// Measures every qubit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.ops.push(ParamOp::Measure { qubit: q, clbit: q });
        }
        self
    }

    /// Binds a parameter vector, producing an executable [`Circuit`].
    ///
    /// # Panics
    /// Panics when `params` is shorter than [`num_params`](Self::num_params).
    pub fn bind(&self, params: &[f64]) -> Circuit {
        assert!(
            params.len() >= self.num_params(),
            "bound {} parameters but the template references {}",
            params.len(),
            self.num_params()
        );
        let mut qc = Circuit::new(self.num_qubits);
        qc.name = self.name.clone();
        for op in &self.ops {
            match op {
                ParamOp::Rot(r) => {
                    qc.push(r.bind(params));
                }
                ParamOp::Fixed(g) => {
                    qc.push(g.clone());
                }
                ParamOp::Measure { qubit, clbit } => {
                    qc.push_op(Op::Measure {
                        qubit: *qubit,
                        clbit: *clbit,
                    });
                }
            }
        }
        qc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_literal_and_symbolic() {
        let mut t = ParamCircuit::new(2);
        t.h(0)
            .rzz(0, 1, Angle::scaled(0, 2.0))
            .rx(0, Angle::sym(1))
            .rx(1, 0.5);
        assert_eq!(t.num_params(), 2);
        let qc = t.bind(&[0.3, 0.7]);
        let gates: Vec<_> = qc.gates().cloned().collect();
        assert_eq!(gates[0], Gate::H(0));
        assert_eq!(gates[1], Gate::Rzz(0, 1, 0.6));
        assert_eq!(gates[2], Gate::Rx(0, 0.7));
        assert_eq!(gates[3], Gate::Rx(1, 0.5));
    }

    #[test]
    fn rebinding_gives_fresh_circuits() {
        let mut t = ParamCircuit::new(1);
        t.rz(0, Angle::sym(0));
        let a = t.bind(&[1.0]);
        let b = t.bind(&[2.0]);
        assert_ne!(a, b);
        assert_eq!(t.bind(&[1.0]), a);
    }

    #[test]
    fn offset_and_coeff_combine() {
        let angle = Angle::Sym {
            index: 0,
            coeff: -3.0,
            offset: 1.0,
        };
        assert_eq!(angle.bind(&[2.0]), -5.0);
    }

    #[test]
    fn measure_ops_survive_binding() {
        let mut t = ParamCircuit::new(2);
        t.h(0).measure_all();
        let qc = t.bind(&[]);
        assert!(qc.measures_all());
    }

    #[test]
    fn num_params_zero_for_fixed_circuits() {
        let mut t = ParamCircuit::new(2);
        t.h(0).fixed(Gate::Cx(0, 1));
        assert_eq!(t.num_params(), 0);
    }

    #[test]
    #[should_panic(expected = "template references")]
    fn bind_underflow_panics() {
        let mut t = ParamCircuit::new(1);
        t.rx(0, Angle::sym(3));
        let _ = t.bind(&[1.0, 2.0]);
    }
}
