//! The symbolic-angle boundary of the one rotation value.
//!
//! A rotation, literal or symbolic, is one `qfw_circuit::Rotation`, and a
//! symbolic angle sits only on the seven families that take one (rx ry rz
//! p rzz rxx cp). These tests pin that the representation lets no symbolic
//! angle through where the text formats refused one before: the QASM3
//! parser and `text::parse_param` refuse it on `ryy`, `crx`, `cry`, `crz`
//! and `u` with the same messages and line numbers, `Rotation::new`
//! refuses it, and over random templates the `qfwasm-param` text round
//! trips and binding follows the seven-family rule.

use qfw_circuit::param::{Angle, ParamCircuit, ParamOp, RotKind, Rotation};
use qfw_circuit::{text, Circuit, Gate, Op};
use qfw_testkit::{random_binding, random_template};

#[test]
fn qasm3_refuses_a_symbolic_angle_on_the_literal_only_gates() {
    let head = "OPENQASM 3;\ninput float g;\nqubit[2] q;\n";
    for (body, line, gate) in [
        ("ryy(g) q[0], q[1];", 4, "ryy"),
        ("h q[0];\ncrx(2*g) q[0], q[1];", 5, "crx"),
        ("cry(g + 1) q[1], q[0];", 4, "cry"),
        ("x q[1];\n\ncrz(-g) q[0], q[1];", 6, "crz"),
        ("u(g, 0, 0) q[0];", 4, "u"),
        ("U(0, 0, g) q[1];", 4, "U"),
    ] {
        let e = qfw_compile::parse(&format!("{head}{body}\n")).unwrap_err();
        let want = format!("`{gate}` does not support symbolic parameters");
        assert_eq!((e.line, e.message), (line, want), "{body}");
    }
}

#[test]
fn parse_param_refuses_a_symbolic_angle_on_the_literal_only_gates() {
    let head = "qfwasm-param 1\nqubits 2\n";
    for (body, line) in [
        ("ryy(@0) q0 q1\n", 3),
        ("h q0\ncrx(@0*2e0) q0 q1\n", 4),
        ("cry(@1) q1 q0\n", 3),
        ("rx(@0) q0\ncrz(@0*1e0+5e-1) q0 q1\n", 4),
        ("u(@0,0,0) q0\n", 3),
        ("u(0,0,@2) q1\n", 3),
    ] {
        let e = text::parse_param(&format!("{head}{body}bind 0.1 0.2 0.3\n")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (line, "bad parameter"), "{body}");
    }
}

#[test]
fn a_rotation_takes_a_symbolic_angle_only_on_the_seven_families() {
    assert_eq!(
        RotKind::ALL.into_iter().filter(|k| k.takes_symbol()).collect::<Vec<_>>(),
        RotKind::SYMBOLIC
    );
    for kind in RotKind::ALL {
        let qubits = &[3, 1][..kind.arity()];
        assert_eq!(RotKind::named(kind.name()), Some(kind));
        let lit = Rotation::new(kind, qubits, Angle::Lit(0.5)).expect("a literal angle");
        assert_eq!(lit.lower(), Some(kind.gate([3, 1], 0.5)));
        assert_eq!(Rotation::of_gate(&kind.gate([3, 1], 0.5)), Some(lit));
        let sym = Rotation::new(kind, qubits, Angle::scaled(0, 2.0));
        assert_eq!(sym.is_some(), kind.takes_symbol(), "{kind:?}");
        assert_eq!(lit.with_angle(Angle::sym(1)).is_some(), kind.takes_symbol(), "{kind:?}");
        assert_eq!(Rotation::new(kind, &[0, 1, 2][..kind.arity() % 2 + 1], Angle::Lit(0.5)), None);
    }
    for name in ["ryy", "crx", "cry", "crz"] {
        let kind = RotKind::named(name).expect("a rotation family");
        assert!(Rotation::new(kind, &[0, 1], Angle::sym(0)).is_none(), "{name}");
    }
    assert_eq!(RotKind::named("u"), None);
}

/// The binding rule of the seven symbolic rotation ops, written out.
fn seven_family_bind(t: &ParamCircuit, params: &[f64]) -> Circuit {
    let mut qc = Circuit::new(t.num_qubits());
    qc.name = t.name.clone();
    for op in t.ops() {
        match op {
            ParamOp::Rot(r) => {
                let (q, v) = (r.operands(), r.angle().bind(params));
                qc.push(match r.kind() {
                    RotKind::Rx => Gate::Rx(q[0], v),
                    RotKind::Ry => Gate::Ry(q[0], v),
                    RotKind::Rz => Gate::Rz(q[0], v),
                    RotKind::Phase => Gate::Phase(q[0], v),
                    RotKind::Rzz => Gate::Rzz(q[0], q[1], v),
                    RotKind::Rxx => Gate::Rxx(q[0], q[1], v),
                    RotKind::Cp => Gate::Cp(q[0], q[1], v),
                    kind => panic!("{kind:?} is no template rotation"),
                });
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

#[test]
fn random_templates_round_trip_and_bind_by_the_seven_family_rule() {
    for seed in 0..96u64 {
        let n = 2 + (seed % 11) as usize;
        let np = 1 + (seed % 3) as usize;
        let mut t = random_template(n, 3 * n + 4, np, seed);
        t.measure_all();
        let params = random_binding(np, seed);
        let (back, bound) = text::parse_param(&text::dump_param_bound(&t, &params)).unwrap();
        assert_eq!(back, t, "seed {seed}");
        assert_eq!(bound.as_deref(), Some(&params[..]), "seed {seed}");
        assert_eq!(t.bind(&params), seven_family_bind(&t, &params), "seed {seed}");
    }
}
