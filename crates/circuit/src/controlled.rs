//! Controlled versions of gates and whole circuits.
//!
//! The Hadamard-test primitives behind VQLS (and textbook QPE) require
//! `controlled-U` for arbitrary sub-circuits `U`. Controlled standard gates
//! map to their controlled counterparts where the IR has one; everything
//! else is lifted exactly through its unitary matrix into an opaque
//! [`Gate::Unitary`] block with the control as the new low local bit.

use crate::circuit::{Circuit, Op};
use crate::gate::Gate;
use qfw_num::complex::C64;
use qfw_num::Matrix;
use std::sync::Arc;

/// Lifts a `2^k` unitary to its controlled version: local bit 0 is the
/// control, bits `1..=k` the original operands.
pub fn controlled_matrix(u: &Matrix) -> Matrix {
    let dim = u.rows();
    Matrix::from_fn(2 * dim, 2 * dim, |row, col| {
        let (rc, rs) = (row & 1, row >> 1);
        let (cc, cs) = (col & 1, col >> 1);
        if rc != cc {
            C64::ZERO
        } else if rc == 0 {
            if rs == cs {
                C64::ONE
            } else {
                C64::ZERO
            }
        } else {
            u[(rs, cs)]
        }
    })
}

/// Returns the controlled version of a gate with `control` as the control
/// qubit. Uses native controlled forms where the gate set has them.
///
/// # Panics
/// Panics when `control` collides with the gate's operands, or when the
/// result would exceed the simulators' 8-qubit dense-gate ceiling.
pub fn controlled_gate(gate: &Gate, control: usize) -> Gate {
    assert!(
        !gate.qubits().contains(&control),
        "control qubit {control} collides with {gate}"
    );
    match gate.clone() {
        Gate::X(q) => Gate::Cx(control, q),
        Gate::Y(q) => Gate::Cy(control, q),
        Gate::Z(q) => Gate::Cz(control, q),
        Gate::Rx(q, t) => Gate::Crx(control, q, t),
        Gate::Ry(q, t) => Gate::Cry(control, q, t),
        Gate::Rz(q, t) => Gate::Crz(control, q, t),
        Gate::Phase(q, t) => Gate::Cp(control, q, t),
        Gate::Cx(c, t) => Gate::Ccx(control, c, t),
        g => {
            let arity = g.arity();
            assert!(arity < 8, "controlled gate would span {} qubits", arity + 1);
            let mut qubits = vec![control];
            qubits.extend(g.qubits());
            Gate::Unitary {
                qubits,
                matrix: Arc::new(controlled_matrix(&g.matrix())),
                label: format!("c-{}", g.name()),
            }
        }
    }
}

/// Returns the circuit with every gate controlled on `control`
/// (measurements and barriers are dropped: a controlled measurement has no
/// meaning in this setting).
///
/// # Panics
/// Panics when `control` is out of range or touched by the circuit.
pub fn controlled_circuit(circuit: &Circuit, control: usize) -> Circuit {
    assert!(control < circuit.num_qubits(), "control out of range");
    let mut out = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    out.name = format!("c-{}", circuit.name);
    for op in circuit.ops() {
        if let Op::Gate(g) = op {
            out.push(controlled_gate(g, control));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::complex::c64;

    /// Dense reference application.
    fn dense_state(qc: &Circuit) -> Vec<C64> {
        let n = qc.num_qubits();
        let mut state = vec![C64::ZERO; 1 << n];
        state[0] = C64::ONE;
        for op in qc.ops() {
            if let Op::Gate(g) = op {
                let qs = g.qubits();
                let m = g.matrix();
                let dim = m.rows();
                let mut out = vec![C64::ZERO; state.len()];
                for (i, &amp) in state.iter().enumerate() {
                    if amp == C64::ZERO {
                        continue;
                    }
                    let mut local = 0usize;
                    for (j, &q) in qs.iter().enumerate() {
                        if i & (1 << q) != 0 {
                            local |= 1 << j;
                        }
                    }
                    for row in 0..dim {
                        let coeff = m[(row, local)];
                        if coeff == C64::ZERO {
                            continue;
                        }
                        let mut target = i;
                        for (j, &q) in qs.iter().enumerate() {
                            target &= !(1 << q);
                            if row & (1 << j) != 0 {
                                target |= 1 << q;
                            }
                        }
                        out[target] = coeff.mul_add(amp, out[target]);
                    }
                }
                state = out;
            }
        }
        state
    }

    #[test]
    fn native_controlled_forms_used() {
        assert_eq!(controlled_gate(&Gate::X(2), 0), Gate::Cx(0, 2));
        assert_eq!(controlled_gate(&Gate::Rz(1, 0.5), 3), Gate::Crz(3, 1, 0.5));
        assert_eq!(controlled_gate(&Gate::Cx(1, 2), 0), Gate::Ccx(0, 1, 2));
    }

    #[test]
    fn opaque_lift_matches_direct_matrix() {
        let g = Gate::H(1);
        let cg = controlled_gate(&g, 0);
        match &cg {
            Gate::Unitary { qubits, matrix, .. } => {
                assert_eq!(qubits, &vec![0, 1]);
                let want = controlled_matrix(&g.matrix());
                assert!(matrix.max_abs_diff(&want) < 1e-15);
                assert!(matrix.is_unitary(1e-12));
            }
            other => panic!("expected opaque lift, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn control_collision_rejected() {
        let _ = controlled_gate(&Gate::H(0), 0);
    }

    #[test]
    fn controlled_circuit_is_identity_when_control_off() {
        // Control (qubit 0) stays |0>: the controlled circuit must act as
        // identity on the rest.
        let mut inner = Circuit::new(3);
        inner.h(1).cx(1, 2).t(2).swap(1, 2);
        let controlled = controlled_circuit(&inner, 0);
        let state = dense_state(&controlled);
        assert!(state[0].approx_eq(C64::ONE, 1e-10));
    }

    #[test]
    fn controlled_circuit_applies_when_control_on() {
        // Control set to |1>: the controlled circuit must act like the
        // original on the remaining register.
        let mut inner = Circuit::new(3);
        inner.h(1).cx(1, 2).rz(2, 0.7);

        let mut with_control = Circuit::new(3);
        with_control.x(0);
        with_control.compose(&controlled_circuit(&inner, 0));
        let got = dense_state(&with_control);

        let want_inner = dense_state(&inner);
        // got[i | 1] should equal want_inner[i] for control bit 0 set.
        for i in 0..8 {
            if i & 1 == 1 {
                assert!(
                    got[i].approx_eq(want_inner[i & !1], 1e-10),
                    "index {i}: {} vs {}",
                    got[i],
                    want_inner[i & !1]
                );
            } else {
                assert!(got[i].approx_eq(C64::ZERO, 1e-10));
            }
        }
    }

    #[test]
    fn hadamard_test_estimates_real_part() {
        // <+|H|+> style check: prepare |psi> = H|0> on qubit 1, W = Z.
        // Re<psi|Z|psi> = 0; with W = X it is 1.
        for (w, want) in [(Gate::Z(1), 0.0), (Gate::X(1), 1.0)] {
            let mut qc = Circuit::new(2);
            qc.h(1); // |psi>
            qc.h(0); // ancilla
            qc.push(controlled_gate(&w, 0));
            qc.h(0);
            let state = dense_state(&qc);
            // P(ancilla=0) - P(ancilla=1) = Re<psi|W|psi>.
            let p0: f64 = (0..4)
                .filter(|i| i & 1 == 0)
                .map(|i| state[i].norm_sqr())
                .sum();
            let p1 = 1.0 - p0;
            assert!(((p0 - p1) - want).abs() < 1e-10, "W={w:?}: got {}", p0 - p1);
        }
    }

    #[test]
    fn controlled_matrix_unitary_for_two_qubit_gates() {
        let m = controlled_matrix(&Gate::Swap(0, 1).matrix());
        assert_eq!(m.rows(), 8);
        assert!(m.is_unitary(1e-12));
        let _ = c64(0.0, 0.0);
    }
}
