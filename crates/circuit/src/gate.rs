//! The gate set shared by every simulator backend.
//!
//! Each gate knows the qubits it touches and can produce its unitary matrix
//! in the *local* basis: if [`Gate::qubits`] returns `[a, b]` then local basis
//! index `i` has bit 0 = qubit `a` and bit 1 = qubit `b` (LSB-first, matching
//! the global convention).

use qfw_num::complex::{c64, C64};
use qfw_num::Matrix;
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;
use std::sync::Arc;

/// A quantum gate applied to specific qubits.
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Pauli X.
    X(usize),
    /// Pauli Y.
    Y(usize),
    /// Pauli Z.
    Z(usize),
    /// Phase gate S = sqrt(Z).
    S(usize),
    /// Inverse phase gate.
    Sdg(usize),
    /// T = sqrt(S).
    T(usize),
    /// Inverse T.
    Tdg(usize),
    /// sqrt(X).
    Sx(usize),
    /// Rotation about X by the given angle.
    Rx(usize, f64),
    /// Rotation about Y by the given angle.
    Ry(usize, f64),
    /// Rotation about Z by the given angle.
    Rz(usize, f64),
    /// Phase rotation diag(1, e^{i theta}).
    Phase(usize, f64),
    /// General single-qubit gate U(theta, phi, lambda) in the OpenQASM sense.
    U(usize, f64, f64, f64),
    /// Controlled-X. Fields: control, target.
    Cx(usize, usize),
    /// Controlled-Y. Fields: control, target.
    Cy(usize, usize),
    /// Controlled-Z. Fields: control, target (symmetric).
    Cz(usize, usize),
    /// Swap two qubits.
    Swap(usize, usize),
    /// Controlled phase diag(1,1,1,e^{i theta}). Fields: control, target.
    Cp(usize, usize, f64),
    /// Controlled X rotation. Fields: control, target, angle.
    Crx(usize, usize, f64),
    /// Controlled Y rotation. Fields: control, target, angle.
    Cry(usize, usize, f64),
    /// Controlled Z rotation. Fields: control, target, angle.
    Crz(usize, usize, f64),
    /// Two-qubit XX interaction exp(-i theta/2 X⊗X).
    Rxx(usize, usize, f64),
    /// Two-qubit YY interaction exp(-i theta/2 Y⊗Y).
    Ryy(usize, usize, f64),
    /// Two-qubit ZZ interaction exp(-i theta/2 Z⊗Z) — the Ising/QAOA workhorse.
    Rzz(usize, usize, f64),
    /// Toffoli. Fields: control0, control1, target.
    Ccx(usize, usize, usize),
    /// Opaque k-qubit unitary block (HHL's controlled-e^{iAt} powers).
    Unitary {
        /// Qubits the block acts on; entry 0 is the local LSB.
        qubits: Vec<usize>,
        /// Dense unitary in the local basis, 2^k x 2^k.
        matrix: Arc<Matrix>,
        /// Human-readable label carried through dumps and logs.
        label: String,
    },
}

/// A gate's qubit operands, local LSB first (see [`Gate::operands`]).
#[derive(Clone, Copy, Debug)]
pub enum Operands<'a> {
    /// A named gate's operands: the first `n` entries of the array.
    Named([usize; 3], usize),
    /// A unitary block's operand list.
    Block(&'a [usize]),
}

impl std::ops::Deref for Operands<'_> {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match self {
            Operands::Named(qs, n) => &qs[..*n],
            Operands::Block(qs) => qs,
        }
    }
}

impl Gate {
    /// Canonical lowercase mnemonic, as used by the textual format.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Sx(_) => "sx",
            Gate::Rx(..) => "rx",
            Gate::Ry(..) => "ry",
            Gate::Rz(..) => "rz",
            Gate::Phase(..) => "p",
            Gate::U(..) => "u",
            Gate::Cx(..) => "cx",
            Gate::Cy(..) => "cy",
            Gate::Cz(..) => "cz",
            Gate::Swap(..) => "swap",
            Gate::Cp(..) => "cp",
            Gate::Crx(..) => "crx",
            Gate::Cry(..) => "cry",
            Gate::Crz(..) => "crz",
            Gate::Rxx(..) => "rxx",
            Gate::Ryy(..) => "ryy",
            Gate::Rzz(..) => "rzz",
            Gate::Ccx(..) => "ccx",
            Gate::Unitary { .. } => "unitary",
        }
    }

    /// The qubits this gate acts on, local LSB first.
    pub fn qubits(&self) -> Vec<usize> {
        self.operands().to_vec()
    }

    /// [`qubits`](Self::qubits) without a heap allocation: the named gates'
    /// operands inline, a unitary block's borrowed.
    pub fn operands(&self) -> Operands<'_> {
        match self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Sx(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _)
            | Gate::Phase(q, _)
            | Gate::U(q, ..) => Operands::Named([*q, 0, 0], 1),
            Gate::Cx(c, t)
            | Gate::Cy(c, t)
            | Gate::Cz(c, t)
            | Gate::Swap(c, t)
            | Gate::Cp(c, t, _)
            | Gate::Crx(c, t, _)
            | Gate::Cry(c, t, _)
            | Gate::Crz(c, t, _)
            | Gate::Rxx(c, t, _)
            | Gate::Ryy(c, t, _)
            | Gate::Rzz(c, t, _) => Operands::Named([*c, *t, 0], 2),
            Gate::Ccx(c0, c1, t) => Operands::Named([*c0, *c1, *t], 3),
            Gate::Unitary { qubits, .. } => Operands::Block(qubits),
        }
    }

    /// Number of qubits the gate touches.
    pub fn arity(&self) -> usize {
        match self {
            Gate::Ccx(..) => 3,
            Gate::Unitary { qubits, .. } => qubits.len(),
            Gate::Cx(..)
            | Gate::Cy(..)
            | Gate::Cz(..)
            | Gate::Swap(..)
            | Gate::Cp(..)
            | Gate::Crx(..)
            | Gate::Cry(..)
            | Gate::Crz(..)
            | Gate::Rxx(..)
            | Gate::Ryy(..)
            | Gate::Rzz(..) => 2,
            _ => 1,
        }
    }

    /// The rotation angles carried by the gate, if any.
    pub fn params(&self) -> Vec<f64> {
        match self {
            Gate::Rx(_, t)
            | Gate::Ry(_, t)
            | Gate::Rz(_, t)
            | Gate::Phase(_, t)
            | Gate::Cp(_, _, t)
            | Gate::Crx(_, _, t)
            | Gate::Cry(_, _, t)
            | Gate::Crz(_, _, t)
            | Gate::Rxx(_, _, t)
            | Gate::Ryy(_, _, t)
            | Gate::Rzz(_, _, t) => vec![*t],
            Gate::U(_, a, b, c) => vec![*a, *b, *c],
            _ => vec![],
        }
    }

    /// The gate's unitary in its local basis (`2^arity` square).
    pub fn matrix(&self) -> Matrix {
        match *self {
            Gate::Ccx(..) => {
                // Local bits: (c0, c1, t) = bits (0, 1, 2). Flip t when c0=c1=1,
                // i.e. exchange indices 3 (011) and 7 (111).
                let mut m = Matrix::identity(8);
                m[(3, 3)] = C64::ZERO;
                m[(7, 7)] = C64::ZERO;
                m[(3, 7)] = C64::ONE;
                m[(7, 3)] = C64::ONE;
                m
            }
            Gate::Unitary { ref matrix, .. } => (**matrix).clone(),
            _ => match self.matrix_2q() {
                Some(m) => Matrix::from_rows(4, 4, &m),
                None => Matrix::from_rows(
                    2,
                    2,
                    &self
                        .matrix_1q()
                        .expect("every other named gate acts on one qubit"),
                ),
            },
        }
    }

    /// A two-qubit gate's unitary as row-major entries (local bit 0 is the
    /// first operand), without a heap allocation; `None` for gates on any
    /// other number of qubits.
    pub fn matrix_2q(&self) -> Option<[C64; 16]> {
        let one_q = |g: Gate| g.matrix_1q().expect("a one-qubit gate");
        Some(match *self {
            Gate::Cx(..) => controlled(one_q(Gate::X(0))),
            Gate::Cy(..) => controlled(one_q(Gate::Y(0))),
            Gate::Cz(..) => controlled(one_q(Gate::Z(0))),
            Gate::Cp(_, _, t) => controlled(one_q(Gate::Phase(0, t))),
            Gate::Crx(_, _, t) => controlled(one_q(Gate::Rx(0, t))),
            Gate::Cry(_, _, t) => controlled(one_q(Gate::Ry(0, t))),
            Gate::Crz(_, _, t) => controlled(one_q(Gate::Rz(0, t))),
            Gate::Swap(..) => {
                let mut m = [C64::ZERO; 16];
                (m[0], m[6], m[9], m[15]) = (C64::ONE, C64::ONE, C64::ONE, C64::ONE);
                m
            }
            Gate::Rxx(_, _, t) => two_body_rotation(t, one_q(Gate::X(0))),
            Gate::Ryy(_, _, t) => two_body_rotation(t, one_q(Gate::Y(0))),
            Gate::Rzz(_, _, t) => {
                // Diagonal: phase e^{-i t/2} on aligned spins, e^{+i t/2} otherwise.
                let (neg, pos) = (C64::cis(-t / 2.0), C64::cis(t / 2.0));
                let mut m = [C64::ZERO; 16];
                (m[0], m[5], m[10], m[15]) = (neg, pos, pos, neg);
                m
            }
            Gate::Unitary {
                ref qubits,
                ref matrix,
                ..
            } if qubits.len() == 2 => matrix.as_slice().try_into().ok()?,
            _ => return None,
        })
    }

    /// A single-qubit gate's unitary as row-major entries, without a heap
    /// allocation; `None` for gates on more than one qubit.
    pub fn matrix_1q(&self) -> Option<[C64; 4]> {
        let i = C64::I;
        let o = C64::ONE;
        let zz = C64::ZERO;
        let real = |v: f64| c64(v, 0.0);
        Some(match *self {
            Gate::H(_) => [
                real(FRAC_1_SQRT_2),
                real(FRAC_1_SQRT_2),
                real(FRAC_1_SQRT_2),
                real(-FRAC_1_SQRT_2),
            ],
            Gate::X(_) => [zz, o, o, zz],
            Gate::Y(_) => [zz, -i, i, zz],
            Gate::Z(_) => [o, zz, zz, -o],
            Gate::S(_) => [o, zz, zz, i],
            Gate::Sdg(_) => [o, zz, zz, -i],
            Gate::T(_) => [o, zz, zz, C64::cis(std::f64::consts::FRAC_PI_4)],
            Gate::Tdg(_) => [o, zz, zz, C64::cis(-std::f64::consts::FRAC_PI_4)],
            Gate::Sx(_) => {
                let p = c64(0.5, 0.5);
                let m = c64(0.5, -0.5);
                [p, m, m, p]
            }
            Gate::Rx(_, t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [c64(c, 0.0), c64(0.0, -s), c64(0.0, -s), c64(c, 0.0)]
            }
            Gate::Ry(_, t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [real(c), real(-s), real(s), real(c)]
            }
            Gate::Rz(_, t) => [C64::cis(-t / 2.0), zz, zz, C64::cis(t / 2.0)],
            Gate::Phase(_, t) => [o, zz, zz, C64::cis(t)],
            Gate::U(_, theta, phi, lam) => {
                let (ct, st) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                [
                    c64(ct, 0.0),
                    -C64::cis(lam).scale(st),
                    C64::cis(phi).scale(st),
                    C64::cis(phi + lam).scale(ct),
                ]
            }
            Gate::Unitary {
                ref qubits,
                ref matrix,
                ..
            } if qubits.len() == 1 => matrix.as_slice().try_into().ok()?,
            _ => return None,
        })
    }

    /// The inverse gate (adjoint), used to build `circuit.inverse()`.
    pub fn inverse(&self) -> Gate {
        match self.clone() {
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::T(q) => Gate::Tdg(q),
            Gate::Tdg(q) => Gate::T(q),
            Gate::Sx(q) => Gate::Unitary {
                qubits: vec![q],
                matrix: Arc::new(Gate::Sx(q).matrix().dagger()),
                label: "sxdg".to_string(),
            },
            Gate::Rx(q, t) => Gate::Rx(q, -t),
            Gate::Ry(q, t) => Gate::Ry(q, -t),
            Gate::Rz(q, t) => Gate::Rz(q, -t),
            Gate::Phase(q, t) => Gate::Phase(q, -t),
            Gate::U(q, theta, phi, lam) => Gate::U(q, -theta, -lam, -phi),
            Gate::Cp(c, t, a) => Gate::Cp(c, t, -a),
            Gate::Crx(c, t, a) => Gate::Crx(c, t, -a),
            Gate::Cry(c, t, a) => Gate::Cry(c, t, -a),
            Gate::Crz(c, t, a) => Gate::Crz(c, t, -a),
            Gate::Rxx(a, b, t) => Gate::Rxx(a, b, -t),
            Gate::Ryy(a, b, t) => Gate::Ryy(a, b, -t),
            Gate::Rzz(a, b, t) => Gate::Rzz(a, b, -t),
            Gate::Unitary {
                qubits,
                matrix,
                label,
            } => Gate::Unitary {
                qubits,
                matrix: Arc::new(matrix.dagger()),
                label: format!("{label}dg"),
            },
            // Self-inverse gates.
            g => g,
        }
    }

    /// True for gates in the Clifford group (with angle-aware checks for
    /// rotations that happen to land on Clifford angles is *not* attempted —
    /// only structurally Clifford gates qualify). Drives the Aer-`automatic`
    /// analog's stabilizer fast path.
    pub fn is_clifford(&self) -> bool {
        matches!(
            self,
            Gate::H(_)
                | Gate::X(_)
                | Gate::Y(_)
                | Gate::Z(_)
                | Gate::S(_)
                | Gate::Sdg(_)
                | Gate::Cx(..)
                | Gate::Cy(..)
                | Gate::Cz(..)
                | Gate::Swap(..)
        )
    }

    /// True when the gate's matrix is diagonal in the computational basis.
    /// Diagonal gates commute with Z-basis measurement and are exploited by
    /// the tensor-network lightcone pass and the state-vector engine's
    /// single-sweep diagonal kernel. Named gates classify structurally;
    /// opaque `Unitary` blocks are inspected numerically.
    pub fn is_diagonal(&self) -> bool {
        match self {
            Gate::Z(_)
            | Gate::S(_)
            | Gate::Sdg(_)
            | Gate::T(_)
            | Gate::Tdg(_)
            | Gate::Rz(..)
            | Gate::Phase(..)
            | Gate::Cz(..)
            | Gate::Cp(..)
            | Gate::Crz(..)
            | Gate::Rzz(..) => true,
            Gate::Unitary { matrix, .. } => (0..matrix.rows())
                .all(|r| (0..matrix.cols()).all(|c| r == c || matrix[(r, c)].abs() <= 1e-12)),
            _ => false,
        }
    }

    /// The gate's diagonal in its local basis (`2^arity` entries), when the
    /// gate [`is_diagonal`](Self::is_diagonal). Lets simulators apply
    /// diagonal gates — including fused diagonal `Unitary` blocks — as a
    /// single phase sweep instead of a dense matrix kernel.
    pub fn diagonal(&self) -> Option<Vec<C64>> {
        if !self.is_diagonal() {
            return None;
        }
        if let Gate::Unitary { matrix, .. } = self {
            return Some((0..matrix.rows()).map(|i| matrix[(i, i)]).collect());
        }
        let m = self.matrix();
        Some((0..m.rows()).map(|i| m[(i, i)]).collect())
    }

    /// True when the gate can create entanglement between its qubits.
    pub fn is_entangling(&self) -> bool {
        self.arity() >= 2 && !matches!(self, Gate::Swap(..))
    }

    /// Remaps every qubit index through `f`. Used when embedding sub-circuits
    /// and when MPS routes long-range gates through swap networks.
    pub fn map_qubits(&self, f: impl Fn(usize) -> usize) -> Gate {
        match self.clone() {
            Gate::H(q) => Gate::H(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Y(q) => Gate::Y(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::T(q) => Gate::T(f(q)),
            Gate::Tdg(q) => Gate::Tdg(f(q)),
            Gate::Sx(q) => Gate::Sx(f(q)),
            Gate::Rx(q, t) => Gate::Rx(f(q), t),
            Gate::Ry(q, t) => Gate::Ry(f(q), t),
            Gate::Rz(q, t) => Gate::Rz(f(q), t),
            Gate::Phase(q, t) => Gate::Phase(f(q), t),
            Gate::U(q, a, b, c) => Gate::U(f(q), a, b, c),
            Gate::Cx(c, t) => Gate::Cx(f(c), f(t)),
            Gate::Cy(c, t) => Gate::Cy(f(c), f(t)),
            Gate::Cz(c, t) => Gate::Cz(f(c), f(t)),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
            Gate::Cp(c, t, a) => Gate::Cp(f(c), f(t), a),
            Gate::Crx(c, t, a) => Gate::Crx(f(c), f(t), a),
            Gate::Cry(c, t, a) => Gate::Cry(f(c), f(t), a),
            Gate::Crz(c, t, a) => Gate::Crz(f(c), f(t), a),
            Gate::Rxx(a, b, t) => Gate::Rxx(f(a), f(b), t),
            Gate::Ryy(a, b, t) => Gate::Ryy(f(a), f(b), t),
            Gate::Rzz(a, b, t) => Gate::Rzz(f(a), f(b), t),
            Gate::Ccx(c0, c1, t) => Gate::Ccx(f(c0), f(c1), f(t)),
            Gate::Unitary {
                qubits,
                matrix,
                label,
            } => Gate::Unitary {
                qubits: qubits.iter().map(|&q| f(q)).collect(),
                matrix,
                label,
            },
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())?;
        let ps = self.params();
        if !ps.is_empty() {
            write!(f, "(")?;
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
        }
        for q in self.qubits() {
            write!(f, " q{q}")?;
        }
        Ok(())
    }
}

/// The 4x4 identity, row-major.
fn identity4() -> [C64; 16] {
    let mut m = [C64::ZERO; 16];
    for d in [0, 5, 10, 15] {
        m[d] = C64::ONE;
    }
    m
}

/// Lifts a single-qubit unitary `u` to its controlled version with the
/// control on local bit 0 and the target on local bit 1.
fn controlled(u: [C64; 4]) -> [C64; 16] {
    // Local basis index = control + 2*target. Control=0 rows/cols (indices
    // 0b00 and 0b10) stay identity; control=1 block (indices 0b01, 0b11)
    // carries `u` acting on the target bit.
    let mut m = identity4();
    (m[5], m[7], m[13], m[15]) = (u[0], u[1], u[2], u[3]);
    m
}

/// Builds `exp(-i t/2 P⊗P)` for a single-qubit Pauli `p`:
/// `cos(t/2) I - i sin(t/2) P⊗P`, entry by entry (`P⊗P` keeps `+0`
/// wherever a factor of `p` is zero).
fn two_body_rotation(t: f64, p: [C64; 4]) -> [C64; 16] {
    let cos = c64((t / 2.0).cos(), 0.0);
    let msin = c64(0.0, -(t / 2.0).sin());
    let id = identity4();
    std::array::from_fn(|k| {
        let (r, c) = (k / 4, k % 4);
        let a = p[2 * (r / 2) + c / 2];
        let pp = if a == C64::ZERO {
            C64::ZERO
        } else {
            a * p[2 * (r % 2) + c % 2]
        };
        id[k] * cos + pp * msin
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn all_sample_gates() -> Vec<Gate> {
        vec![
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::T(0),
            Gate::Tdg(0),
            Gate::Sx(0),
            Gate::Rx(0, 0.7),
            Gate::Ry(0, -1.1),
            Gate::Rz(0, 2.3),
            Gate::Phase(0, 0.4),
            Gate::U(0, 0.3, 1.2, -0.8),
            Gate::Cx(0, 1),
            Gate::Cy(0, 1),
            Gate::Cz(0, 1),
            Gate::Swap(0, 1),
            Gate::Cp(0, 1, 0.9),
            Gate::Crx(0, 1, 1.3),
            Gate::Cry(0, 1, -0.6),
            Gate::Crz(0, 1, 0.2),
            Gate::Rxx(0, 1, 0.5),
            Gate::Ryy(0, 1, 1.7),
            Gate::Rzz(0, 1, -0.9),
            Gate::Ccx(0, 1, 2),
        ]
    }

    #[test]
    fn every_gate_matrix_is_unitary() {
        for g in all_sample_gates() {
            let m = g.matrix();
            assert_eq!(m.rows(), 1 << g.arity(), "{g}");
            assert!(m.is_unitary(1e-10), "{g} is not unitary");
        }
    }

    #[test]
    fn inverse_matrix_is_adjoint() {
        for g in all_sample_gates() {
            let m = g.matrix();
            let inv = g.inverse().matrix();
            let prod = m.matmul(&inv);
            assert!(
                prod.max_abs_diff(&Matrix::identity(m.rows())) < 1e-10,
                "{g} inverse wrong"
            );
        }
    }

    #[test]
    fn pauli_algebra() {
        let x = Gate::X(0).matrix();
        let y = Gate::Y(0).matrix();
        let z = Gate::Z(0).matrix();
        // XY = iZ
        assert!(x.matmul(&y).max_abs_diff(&z.scale(C64::I)) < 1e-12);
        // HXH = Z
        let h = Gate::H(0).matrix();
        assert!(h.matmul(&x).matmul(&h).max_abs_diff(&z) < 1e-12);
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        let s = Gate::S(0).matrix();
        let t = Gate::T(0).matrix();
        assert!(s.matmul(&s).max_abs_diff(&Gate::Z(0).matrix()) < 1e-12);
        assert!(t.matmul(&t).max_abs_diff(&s) < 1e-12);
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = Gate::Sx(0).matrix();
        assert!(sx.matmul(&sx).max_abs_diff(&Gate::X(0).matrix()) < 1e-12);
    }

    #[test]
    fn rotation_at_pi_matches_pauli_up_to_phase() {
        // Rx(pi) = -i X
        let rx = Gate::Rx(0, PI).matrix();
        let want = Gate::X(0).matrix().scale(c64(0.0, -1.0));
        assert!(rx.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn u_gate_specializations() {
        // U(theta, 0, 0) = Ry(theta)
        let u = Gate::U(0, 0.8, 0.0, 0.0).matrix();
        assert!(u.max_abs_diff(&Gate::Ry(0, 0.8).matrix()) < 1e-12);
        // U(0, 0, lambda) = Phase(lambda)
        let u2 = Gate::U(0, 0.0, 0.0, 1.1).matrix();
        assert!(u2.max_abs_diff(&Gate::Phase(0, 1.1).matrix()) < 1e-12);
    }

    #[test]
    fn cx_truth_table_with_local_ordering() {
        // qubits() = [control, target]; local index = control + 2*target.
        let m = Gate::Cx(5, 9).matrix();
        // |c=0,t=0> -> itself
        assert_eq!(m[(0, 0)], C64::ONE);
        // |c=1,t=0> (idx 1) -> |c=1,t=1> (idx 3)
        assert_eq!(m[(3, 1)], C64::ONE);
        assert_eq!(m[(1, 1)], C64::ZERO);
        // |c=0,t=1> (idx 2) -> itself
        assert_eq!(m[(2, 2)], C64::ONE);
        // |c=1,t=1> -> |c=1,t=0>
        assert_eq!(m[(1, 3)], C64::ONE);
    }

    #[test]
    fn cz_is_symmetric_diagonal() {
        let m = Gate::Cz(0, 1).matrix();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(m[(i, j)], C64::ZERO);
                }
            }
        }
        assert_eq!(m[(3, 3)], -C64::ONE);
        assert_eq!(m[(1, 1)], C64::ONE);
    }

    #[test]
    fn rzz_diagonal_phases() {
        let t = 0.6;
        let m = Gate::Rzz(0, 1, t).matrix();
        assert!(m[(0, 0)].approx_eq(C64::cis(-t / 2.0), 1e-12));
        assert!(m[(1, 1)].approx_eq(C64::cis(t / 2.0), 1e-12));
        assert!(m[(2, 2)].approx_eq(C64::cis(t / 2.0), 1e-12));
        assert!(m[(3, 3)].approx_eq(C64::cis(-t / 2.0), 1e-12));
    }

    /// The stack form is the Kronecker formula's arithmetic, bit for bit
    /// (signed zeros included), so fused blocks built from it do not move.
    #[test]
    fn two_body_rotations_are_the_kron_formula_bitwise() {
        for t in [1.2, -0.7, 2.9, 0.0] {
            for (g, p) in [
                (Gate::Rxx(0, 1, t), Gate::X(0)),
                (Gate::Ryy(0, 1, t), Gate::Y(0)),
            ] {
                let pp = p.matrix().kron(&p.matrix());
                let want = &Matrix::identity(4).scale(c64((t / 2.0).cos(), 0.0))
                    + &pp.scale(c64(0.0, -(t / 2.0).sin()));
                let bits = |z: &C64| (z.re.to_bits(), z.im.to_bits());
                let got = g.matrix_2q().expect("two-qubit gate");
                assert!(
                    got.iter().map(bits).eq(want.as_slice().iter().map(bits)),
                    "{g}"
                );
            }
        }
        assert_eq!(Gate::H(0).matrix_2q(), None);
        assert_eq!(Gate::Ccx(0, 1, 2).matrix_2q(), None);
    }

    #[test]
    fn ccx_flips_only_when_both_controls_set() {
        let m = Gate::Ccx(0, 1, 2).matrix();
        // index = c0 + 2 c1 + 4 t; (c0=1,c1=1,t=0) = 3 -> 7
        assert_eq!(m[(7, 3)], C64::ONE);
        assert_eq!(m[(3, 7)], C64::ONE);
        assert_eq!(m[(3, 3)], C64::ZERO);
        // (c0=1,c1=0,t=0) = 1 stays
        assert_eq!(m[(1, 1)], C64::ONE);
    }

    #[test]
    fn clifford_classification() {
        assert!(Gate::H(0).is_clifford());
        assert!(Gate::Cx(0, 1).is_clifford());
        assert!(Gate::S(3).is_clifford());
        assert!(!Gate::T(0).is_clifford());
        assert!(!Gate::Rx(0, 0.1).is_clifford());
        assert!(!Gate::Ccx(0, 1, 2).is_clifford());
    }

    #[test]
    fn diagonal_classification_matches_matrices() {
        for g in all_sample_gates() {
            let m = g.matrix();
            let mut diag = true;
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    if r != c && m[(r, c)].abs() > 1e-12 {
                        diag = false;
                    }
                }
            }
            assert_eq!(g.is_diagonal(), diag, "{g} diagonal mismatch");
        }
    }

    #[test]
    fn diagonal_entries_match_matrix_diagonal() {
        for g in all_sample_gates() {
            match g.diagonal() {
                Some(d) => {
                    let m = g.matrix();
                    assert_eq!(d.len(), m.rows(), "{g}");
                    for (i, &p) in d.iter().enumerate() {
                        assert!(p.approx_eq(m[(i, i)], 1e-12), "{g} entry {i}");
                    }
                }
                None => assert!(!g.is_diagonal(), "{g}"),
            }
        }
    }

    #[test]
    fn unitary_blocks_classify_diagonality_numerically() {
        let diag_block = Gate::Unitary {
            qubits: vec![0, 2],
            matrix: Arc::new(Matrix::diag(&[C64::ONE, C64::I, -C64::ONE, -C64::I])),
            label: "dblk".into(),
        };
        assert!(diag_block.is_diagonal());
        assert_eq!(diag_block.diagonal().unwrap()[1], C64::I);
        let dense_block = Gate::Unitary {
            qubits: vec![0, 1],
            matrix: Arc::new(Gate::Cx(0, 1).matrix()),
            label: "cxblk".into(),
        };
        assert!(!dense_block.is_diagonal());
        assert!(dense_block.diagonal().is_none());
    }

    #[test]
    fn map_qubits_remaps_all_operands() {
        let g = Gate::Ccx(0, 1, 2).map_qubits(|q| q + 10);
        assert_eq!(g.qubits(), vec![10, 11, 12]);
        let u = Gate::Unitary {
            qubits: vec![2, 5],
            matrix: Arc::new(Matrix::identity(4)),
            label: "blk".into(),
        };
        assert_eq!(u.map_qubits(|q| q * 2).qubits(), vec![4, 10]);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", Gate::Cx(0, 1)), "cx q0 q1");
        assert_eq!(format!("{}", Gate::Rz(2, 0.5)), "rz(0.5) q2");
    }

    #[test]
    fn unitary_gate_round_trip() {
        let m = Gate::Swap(0, 1).matrix();
        let g = Gate::Unitary {
            qubits: vec![3, 7],
            matrix: Arc::new(m.clone()),
            label: "swp".into(),
        };
        assert_eq!(g.arity(), 2);
        assert!(g.matrix().max_abs_diff(&m) < 1e-15);
        assert!(g.inverse().matrix().max_abs_diff(&m.dagger()) < 1e-15);
    }
}
