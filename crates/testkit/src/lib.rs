//! Shared deterministic generators for property tests.
//!
//! The proptest shim draws plain integers (usually a `seed in 0u64..N`
//! strategy) and hands them to seed-driven generator functions; the three
//! suites that pioneered this style (`tests/properties.rs`,
//! `crates/sim-sv/tests/dist_props.rs`, `crates/sim-sv/tests/sweep_props.rs`)
//! each grew an ad-hoc generator. This crate is the single home for those
//! generators so every suite — including the compiler's metamorphic and
//! QASM3 round-trip properties — draws from the same distributions.
//!
//! **Stability contract:** the draw sequences of [`random_circuit`],
//! [`random_dist_circuit`], [`random_template`], and [`random_binding`] are
//! frozen. Checked-in regressions (e.g. the seed-28 counterexample pinned in
//! `tests/properties.rs`) replay historical failures by seed, which only
//! works while `seed → circuit` stays byte-identical. Add new generators
//! instead of changing existing ones.

use qfw_circuit::param::{Angle, ParamCircuit, RotKind};
use qfw_circuit::{Circuit, Gate, Op};
use qfw_num::rng::Rng;

/// A random circuit over `n` qubits with `len` gates drawn from a
/// universal, structurally diverse set (no measurements).
///
/// This is the generator behind the core simulator-agreement properties;
/// same draw sequence as the original in `tests/properties.rs`.
pub fn random_circuit(n: usize, len: usize, seed: u64) -> Circuit {
    let mut rng = Rng::seed_from(seed);
    let mut qc = Circuit::new(n).named(format!("prop{seed}"));
    for _ in 0..len {
        let q = rng.index(n);
        let p = (q + 1 + rng.index(n - 1)) % n;
        match rng.index(8) {
            0 => qc.h(q),
            1 => qc.t(q),
            2 => qc.rx(q, rng.uniform(-3.0, 3.0)),
            3 => qc.ry(q, rng.uniform(-3.0, 3.0)),
            4 => qc.cx(q, p),
            5 => qc.rzz(q, p, rng.uniform(-1.5, 1.5)),
            6 => qc.cry(q, p, rng.uniform(-1.5, 1.5)),
            _ => qc.swap(q, p),
        };
    }
    qc
}

/// A random circuit biased toward the distributed engine's hard cases:
/// top-qubit operands, all-high multi-qubit gates, and (optionally)
/// mid-circuit measurements.
///
/// Same draw sequence as the original in `crates/sim-sv/tests/dist_props.rs`.
pub fn random_dist_circuit(n: usize, gates: usize, seed: u64, with_measure: bool) -> Circuit {
    let mut rng = Rng::seed_from(seed);
    let mut qc = Circuit::new(n);
    let top = n - 1;
    for i in 0..gates {
        // Bias operand choice toward the top of the register, where the
        // rank bits live.
        let pick = |rng: &mut Rng| -> usize {
            if rng.chance(0.5) {
                top - rng.index(2.min(n - 1))
            } else {
                rng.index(n)
            }
        };
        let q = pick(&mut rng);
        let mut p = pick(&mut rng);
        while p == q {
            p = rng.index(n);
        }
        match rng.index(10) {
            0 => qc.h(q),
            1 => qc.rx(q, rng.uniform(-3.0, 3.0)),
            2 => qc.t(q),
            3 => qc.rz(q, rng.uniform(-3.0, 3.0)),
            4 => qc.cx(q, p),
            5 => qc.rzz(q, p, rng.uniform(-1.0, 1.0)),
            6 => qc.cp(q, p, rng.uniform(-1.0, 1.0)),
            7 => qc.swap(q, p),
            8 => {
                let mut r = rng.index(n);
                while r == q || r == p {
                    r = rng.index(n);
                }
                qc.ccx(q, p, r)
            }
            _ => {
                if with_measure && i > 0 && rng.chance(0.5) {
                    qc.measure(q, q)
                } else {
                    qc.h(q)
                }
            }
        };
    }
    qc
}

/// A random Clifford circuit (h/s/cx/cz/x), measured on every qubit —
/// the stabilizer-engine agreement case.
pub fn random_clifford_circuit(n: usize, len: usize, seed: u64) -> Circuit {
    let mut rng = Rng::seed_from(seed);
    let mut qc = Circuit::new(n);
    for _ in 0..len {
        let q = rng.index(n);
        let p = (q + 1 + rng.index(n - 1)) % n;
        match rng.index(5) {
            0 => qc.h(q),
            1 => qc.s(q),
            2 => qc.cx(q, p),
            3 => qc.cz(q, p),
            _ => qc.x(q),
        };
    }
    qc.measure_all();
    qc
}

/// An all-diagonal circuit after an initial Hadamard layer: every gate
/// past the first layer is Z-diagonal (z/s/t/rz/cz/cp/rzz), the
/// distributed engine's zero-exchange edge case and the rotation-merging
/// passes' densest input.
pub fn all_diagonal_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = Rng::seed_from(seed);
    let mut qc = Circuit::new(n).named(format!("diag{seed}"));
    for q in 0..n {
        qc.h(q);
    }
    for _ in 0..gates {
        let q = rng.index(n);
        let p = (q + 1 + rng.index(n - 1)) % n;
        match rng.index(7) {
            0 => qc.z(q),
            1 => qc.s(q),
            2 => qc.t(q),
            3 => qc.rz(q, rng.uniform(-3.0, 3.0)),
            4 => qc.cz(q, p),
            5 => qc.cp(q, p, rng.uniform(-1.5, 1.5)),
            _ => qc.rzz(q, p, rng.uniform(-1.5, 1.5)),
        };
    }
    qc
}

/// `circuit`'s operations under a random classical readout: a register of
/// `1..=n + 2` classical bits (narrower than, as wide as, or wider than
/// the quantum one), and at the end a random non-empty subset of qubits
/// measured into distinct random classical bits in random order — a
/// partial, permuted map. With `mid_circuit`, one measurement of a qubit a
/// later gate still acts on is inserted too (into any classical bit).
pub fn with_random_readout(circuit: &Circuit, seed: u64, mid_circuit: bool) -> Circuit {
    let mut rng = Rng::seed_from(seed ^ 0x52_45_41_44); // "READ"
    let n = circuit.num_qubits();
    let num_clbits = 1 + rng.index(n + 2);
    let mut out = Circuit::with_clbits(n, num_clbits).named(circuit.name.clone());
    let ops = circuit.ops();
    let mid = (mid_circuit && !ops.is_empty()).then(|| rng.index(ops.len()));
    for (at, op) in ops.iter().enumerate() {
        if let (true, Op::Gate(g)) = (mid == Some(at), op) {
            out.measure(g.qubits()[0], rng.index(num_clbits));
        }
        out.push_op(op.clone());
    }
    let mut qubits: Vec<usize> = (0..n).collect();
    let mut clbits: Vec<usize> = (0..num_clbits).collect();
    rng.shuffle(&mut qubits);
    rng.shuffle(&mut clbits);
    let measured = 1 + rng.index(n.min(num_clbits));
    for (&q, &c) in qubits.iter().zip(&clbits).take(measured) {
        out.measure(q, c);
    }
    out
}

/// A random affine angle: literal, bare symbol, scaled, or full
/// `coeff * theta[k] + offset`.
pub fn random_angle(rng: &mut Rng, num_params: usize) -> Angle {
    let index = rng.index(num_params);
    match rng.index(4) {
        0 => Angle::Lit(rng.uniform(-3.0, 3.0)),
        1 => Angle::sym(index),
        2 => Angle::scaled(index, rng.uniform(-2.0, 2.0)),
        _ => Angle::Sym {
            index,
            coeff: rng.uniform(-2.0, 2.0),
            offset: rng.uniform(-1.0, 1.0),
        },
    }
}

/// A random symbolic template mixing parameterized rotations (all seven
/// parameterized op kinds) with fixed Clifford+T structure, biased so
/// every parameter index is referenced at least once.
///
/// Same draw sequence as the original in `crates/sim-sv/tests/sweep_props.rs`.
pub fn random_template(n: usize, gates: usize, num_params: usize, seed: u64) -> ParamCircuit {
    let mut rng = Rng::seed_from(seed);
    let mut t = ParamCircuit::new(n);
    for q in 0..n {
        t.h(q);
    }
    // Guarantee every parameter appears (the plan rejects nothing, but an
    // unused parameter would weaken the property).
    for k in 0..num_params {
        t.rx(rng.index(n), Angle::sym(k));
    }
    for _ in 0..gates {
        let q = rng.index(n);
        let mut p = rng.index(n);
        while p == q {
            p = rng.index(n);
        }
        let a = random_angle(&mut rng, num_params);
        match rng.index(10) {
            k @ 0..=6 => {
                let kind = RotKind::SYMBOLIC[k];
                t.rot(kind, &[q, p][..kind.arity()], a)
            }
            7 => t.fixed(Gate::Cx(q, p)),
            8 => t.fixed(Gate::T(q)),
            _ => t.fixed(Gate::H(q)),
        };
    }
    t
}

/// A random parameter binding for [`random_template`].
pub fn random_binding(num_params: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from(seed ^ 0x53_57_45_45_50); // "SWEEP"
    (0..num_params).map(|_| rng.uniform(-3.0, 3.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::Op;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_circuit(5, 20, 7), random_circuit(5, 20, 7));
        assert_eq!(
            random_dist_circuit(6, 25, 9, true),
            random_dist_circuit(6, 25, 9, true)
        );
        assert_eq!(random_template(4, 30, 3, 11), random_template(4, 30, 3, 11));
        assert_eq!(random_binding(3, 5), random_binding(3, 5));
        assert_eq!(
            random_clifford_circuit(5, 20, 3),
            random_clifford_circuit(5, 20, 3)
        );
    }

    #[test]
    fn dist_generator_emits_measurements_when_asked() {
        let with = random_dist_circuit(6, 200, 1, true);
        assert!(with
            .ops()
            .iter()
            .any(|op| matches!(op, Op::Measure { .. })));
        let without = random_dist_circuit(6, 200, 1, false);
        assert!(!without
            .ops()
            .iter()
            .any(|op| matches!(op, Op::Measure { .. })));
    }

    #[test]
    fn all_diagonal_is_diagonal_after_prefix() {
        let qc = all_diagonal_circuit(5, 50, 2);
        for op in qc.ops().iter().skip(5) {
            match op {
                Op::Gate(g) => assert!(g.is_diagonal(), "{g} not diagonal"),
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn random_readout_measures_at_the_end_and_mid_circuit_when_asked() {
        for seed in 0..20 {
            let mid = seed % 2 == 0;
            let draw = || with_random_readout(&random_circuit(4, 12, seed), seed, mid);
            let qc = draw();
            assert_eq!(qc, draw());
            assert_eq!(qfw_circuit::Readout::of(&qc).has_mid_circuit(), mid);
            assert!((1..=6).contains(&qc.num_clbits()));
            assert!(matches!(qc.ops().last(), Some(Op::Measure { .. })));
        }
    }

    #[test]
    fn template_generator_uses_every_parameter() {
        let t = random_template(5, 40, 4, 13);
        assert_eq!(t.num_params(), 4);
    }
}
