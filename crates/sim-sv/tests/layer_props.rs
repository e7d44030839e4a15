//! Property tests for the layer-plan executor (`FusionLevel::Full`):
//! random circuits over the full gate set — targets on the top qubit,
//! barriers, mid-circuit measurements, non-|0> initial states, registers
//! below, at and above the tile width — must (a) match the dense-operator
//! reference at the amplitude level, (b) leave bit-identical states under
//! `Serial` and `Rayon`, (c) leave bit-identical states on every kernel
//! tier this CPU has, and (d) sample the counts `FusionLevel::None` samples.

use qfw_circuit::{Circuit, Gate};
use qfw_num::complex::{c64, C64};
use qfw_num::rng::Rng;
use qfw_num::Matrix;
use qfw_sim_sv::kernels::TILE_BITS;
use qfw_sim_sv::state::apply_via_dense_operator;
use qfw_sim_sv::{fuse, FusionLevel, IsaTier, StateVector, SvConfig, SvSimulator, Threading};
use qfw_workloads::{ghz, qaoa_ansatz, tfim, Qubo};
use std::sync::Arc;

fn random_state(n: usize, seed: u64) -> StateVector {
    let mut rng = Rng::seed_from(seed);
    let mut amps: Vec<C64> = (0..1usize << n)
        .map(|_| c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect();
    qfw_num::matrix::normalize(&mut amps);
    StateVector::from_amps(amps)
}

/// `k` distinct qubits of `0..n`, the first one biased to the top qubit.
fn operands(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut qs = vec![if rng.chance(0.3) { n - 1 } else { rng.index(n) }];
    while qs.len() < k {
        let q = rng.index(n);
        if !qs.contains(&q) {
            qs.push(q);
        }
    }
    qs
}

/// A random `2^k` unitary-ish block: a product of named gates' matrices
/// would do, but a diagonal of phases and a dense Toffoli cover the two
/// paths (factor table / gather kernel) wide gates take.
fn wide_block(rng: &mut Rng, qubits: Vec<usize>) -> Gate {
    let dim = 1usize << qubits.len();
    let (matrix, label) = if rng.chance(0.5) {
        let phases: Vec<C64> = (0..dim).map(|_| C64::cis(rng.uniform(-3.0, 3.0))).collect();
        (Matrix::diag(&phases), "diag")
    } else {
        (Gate::Ccx(0, 1, 2).matrix(), "ccx")
    };
    Gate::Unitary {
        qubits,
        matrix: Arc::new(matrix),
        label: label.into(),
    }
}

/// A random circuit over the whole gate set. Gates that need more qubits
/// than the register has are redrawn as single-qubit ones.
fn random_circuit(seed: u64, n: usize, len: usize, with_measure: bool) -> Circuit {
    let mut rng = Rng::seed_from(seed);
    let mut qc = Circuit::new(n).named(format!("layer{seed}"));
    for _ in 0..len {
        let t = rng.uniform(-3.0, 3.0);
        let arity = match rng.index(10) {
            0..=4 => 1,
            5..=8 => 2,
            _ => 3,
        }
        .min(n);
        let qs = operands(&mut rng, n, arity);
        let gate = match (arity, rng.index(14)) {
            (1, 0) => Gate::H(qs[0]),
            (1, 1) => Gate::X(qs[0]),
            (1, 2) => Gate::Y(qs[0]),
            (1, 3) => Gate::Z(qs[0]),
            (1, 4) => Gate::S(qs[0]),
            (1, 5) => Gate::Sdg(qs[0]),
            (1, 6) => Gate::T(qs[0]),
            (1, 7) => Gate::Tdg(qs[0]),
            (1, 8) => Gate::Sx(qs[0]),
            (1, 9) => Gate::Rx(qs[0], t),
            (1, 10) => Gate::Ry(qs[0], t),
            (1, 11) => Gate::Rz(qs[0], t),
            (1, 12) => Gate::Phase(qs[0], t),
            (1, _) => Gate::U(qs[0], t, 0.5 * t, -0.3 * t),
            (2, 0) => Gate::Cx(qs[0], qs[1]),
            (2, 1) => Gate::Cy(qs[0], qs[1]),
            (2, 2) => Gate::Cz(qs[0], qs[1]),
            (2, 3) => Gate::Swap(qs[0], qs[1]),
            (2, 4) => Gate::Cp(qs[0], qs[1], t),
            (2, 5) => Gate::Crx(qs[0], qs[1], t),
            (2, 6) => Gate::Cry(qs[0], qs[1], t),
            (2, 7) => Gate::Crz(qs[0], qs[1], t),
            (2, 8) => Gate::Rxx(qs[0], qs[1], t),
            (2, 9) => Gate::Ryy(qs[0], qs[1], t),
            (2, _) => Gate::Rzz(qs[0], qs[1], t),
            (_, 0..=6) => Gate::Ccx(qs[0], qs[1], qs[2]),
            _ => wide_block(&mut rng, qs),
        };
        qc.push(gate);
        if rng.chance(0.05) {
            qc.barrier();
        }
        if with_measure && rng.chance(0.04) {
            let q = rng.index(n);
            qc.measure(q, q);
        }
    }
    qc
}

fn bits(sv: &StateVector) -> Vec<(u64, u64)> {
    sv.amps()
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// (a) Amplitudes against `apply_via_dense_operator`, from a random
/// initial state, at every width from one qubit to past the tile.
#[test]
fn amplitudes_match_the_dense_operator_reference() {
    // The sweep must reach past the tile width.
    const { assert!(TILE_BITS < 12) };
    for n in 1..=12usize {
        // The reference builds a 2^n x 2^n operator per gate: keep the
        // widest registers to a few dozen gates.
        let (seeds, len) = if n <= 9 { (6, 60) } else { (1, 28) };
        for seed in 0..seeds {
            let qc = random_circuit(1000 * n as u64 + seed, n, len, false);
            let initial = random_state(n, 77 + seed);
            let mut want = initial.amps().to_vec();
            for g in qc.gates() {
                want = apply_via_dense_operator(&want, g, n);
            }
            let mut got = initial.clone();
            fuse(&qc).apply_unitary(&mut got, false);
            for (i, (a, b)) in got.amps().iter().zip(&want).enumerate() {
                assert!(
                    a.approx_eq(*b, 1e-10),
                    "n={n} seed={seed} amp {i}: {a} vs {b}"
                );
            }
        }
    }
}

/// (b) + (c): one trajectory — mid-circuit measurements included — leaves
/// the same bits whichever threading mode or kernel tier ran it. The wide
/// registers are there so tile groups carry enough work to actually be
/// dispatched to the shim's workers.
#[test]
fn threading_and_isa_tiers_are_bitwise_identical() {
    for (n, len) in [(3, 40), (10, 80), (11, 80), (12, 120), (14, 200), (16, 260)] {
        for seed in 0..3u64 {
            let qc = random_circuit(31 * n as u64 + seed, n, len, true);
            let plan = fuse(&qc);
            let initial = random_state(n, seed);
            let run = |tier: IsaTier, parallel: bool| {
                let mut sv = initial.clone();
                let collapsed = plan.apply_on(tier, &mut sv, &mut Rng::seed_from(seed), parallel);
                (bits(&sv), collapsed)
            };
            let want = run(IsaTier::PORTABLE, false);
            for tier in IsaTier::available() {
                for parallel in [false, true] {
                    assert!(
                        run(tier, parallel) == want,
                        "n={n} seed={seed}: {tier:?} parallel={parallel} differs from portable serial"
                    );
                }
            }
        }
    }
}

/// (b) at the engine surface: seeded counts under `Rayon` equal `Serial`.
#[test]
fn engine_counts_do_not_depend_on_threading() {
    let engine = |threading| {
        SvSimulator::new(SvConfig {
            threading,
            ..SvConfig::default()
        })
    };
    for seed in 0..4u64 {
        let qc = random_circuit(500 + seed, 15, 220, true);
        let a = engine(Threading::Serial).run(&qc, 512, seed);
        let b = engine(Threading::Rayon).run(&qc, 512, seed);
        assert_eq!(a.counts, b.counts, "seed {seed}");
        assert_eq!(a.gates_applied, b.gates_applied);
    }
}

/// (d) Counts equal the verbatim per-gate path on the differential
/// fixtures, from |0> and — through `run_from` — from a seam state.
#[test]
fn counts_equal_the_unfused_reference_on_the_differential_fixtures() {
    let qubo = Qubo::random(8, 0.6, 17);
    let qaoa = qaoa_ansatz(&qubo, 2).bind(&[0.4, 0.7, -0.3, 0.5]);
    let full = SvSimulator::default();
    let none = SvSimulator::new(SvConfig {
        fusion: FusionLevel::None,
        ..SvConfig::default()
    });
    for qc in [ghz(10), tfim(8), tfim(12), qaoa] {
        let n = qc.num_qubits();
        for seed in [3u64, 11] {
            assert_eq!(
                full.run(&qc, 2048, seed).counts,
                none.run(&qc, 2048, seed).counts,
                "{} seed {seed}",
                qc.name
            );
            let seam = random_state(n, seed);
            assert_eq!(
                full.run_from(seam.clone(), &qc, 2048, seed).counts,
                none.run_from(seam, &qc, 2048, seed).counts,
                "{} from a seam state, seed {seed}",
                qc.name
            );
        }
    }
}

/// Mid-circuit measurements split tile groups; the trajectory they pick
/// must be the one the per-gate path picks from the same seed.
#[test]
fn mid_circuit_measurements_replay_the_unfused_trajectory() {
    for n in [2usize, 6, 11, 12] {
        for seed in 0..4u64 {
            let qc = random_circuit(9000 + 13 * n as u64 + seed, n, 60, true);
            let mut fused = StateVector::zero(n);
            let collapsed = fuse(&qc).apply(&mut fused, &mut Rng::seed_from(seed), false);
            // Replay: gates verbatim, the same seeded collapses.
            let mut plain = StateVector::zero(n);
            let mut rng = Rng::seed_from(seed);
            let mut plain_bits = std::collections::BTreeMap::new();
            let last_gate: Vec<usize> = (0..n)
                .map(|q| {
                    qc.ops()
                        .iter()
                        .rposition(
                            |op| matches!(op, qfw_circuit::Op::Gate(g) if g.qubits().contains(&q)),
                        )
                        .unwrap_or(0)
                })
                .collect();
            for (pos, op) in qc.ops().iter().enumerate() {
                match op {
                    qfw_circuit::Op::Gate(g) => plain.apply(g, false),
                    qfw_circuit::Op::Measure { qubit, clbit } if pos < last_gate[*qubit] => {
                        plain_bits.insert(*clbit, plain.measure(*qubit, &mut rng, false));
                    }
                    _ => {}
                }
            }
            assert_eq!(collapsed, plain_bits, "n={n} seed={seed}: collapsed bits");
            assert!(
                (fused.fidelity(&plain) - 1.0).abs() < 1e-9,
                "n={n} seed={seed}: trajectories diverged"
            );
        }
    }
}
