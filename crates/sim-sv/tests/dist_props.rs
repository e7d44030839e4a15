//! Property tests for the distributed state-vector engine: random
//! circuits — including all-high multi-qubit gates, mid-circuit
//! measurements, and top-qubit edge cases — must reproduce the serial
//! reference at 1/2/4/8 ranks, with and without a seeded layout, at the
//! amplitude level and (fixed seed) bit-identically at the counts level —
//! through the plan ([`DistPlan`]) every distributed job runs, with the
//! serial replay as the reference.

use proptest::prelude::*;
use qfw_circuit::{Circuit, Gate, Op};
use qfw_hpc::{Communicator, RankCtx};
use qfw_num::rng::Rng;
use qfw_num::Matrix;
use qfw_obs::Obs;
use qfw_sim_sv::dist::{
    run_distributed_laid_out, DistPlan, DistStateVector, DistStep, RouteStrategy,
};
use qfw_sim_sv::state::{canonical_split_bits, StateVector};
use qfw_sim_sv::{fuse, SvSimulator};
use qfw_testkit::random_dist_circuit;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

fn run_world<R: Send + 'static>(
    ranks: usize,
    f: impl Fn(RankCtx) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let f = Arc::new(f);
    let handles: Vec<_> = Communicator::test_world(ranks)
        .into_iter()
        .map(|ctx| {
            let f = Arc::clone(&f);
            thread::spawn(move || f(ctx))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Whether the measurement at op `at` collapses the state: some later
/// gate touches its qubit. The engines leave the others to sampling.
fn is_mid_circuit(qc: &Circuit, at: usize, qubit: usize) -> bool {
    qc.ops()[at + 1..]
        .iter()
        .any(|op| matches!(op, Op::Gate(g) if g.qubits().contains(&qubit)))
}

/// Serial single-trajectory replay: gates applied plainly, mid-circuit
/// measurements collapsed from the same seeded rng the distributed run
/// uses.
fn serial_replay(qc: &Circuit, seed: u64) -> StateVector {
    let mut sv = StateVector::zero(qc.num_qubits());
    let mut rng = Rng::seed_from(seed);
    for (at, op) in qc.ops().iter().enumerate() {
        match op {
            Op::Gate(g) => sv.apply(g, false),
            Op::Measure { qubit, .. } if is_mid_circuit(qc, at, *qubit) => {
                sv.measure(*qubit, &mut rng, false);
            }
            _ => {}
        }
    }
    sv
}

/// What one distributed execution leaves at rank 0.
struct Replay {
    state: StateVector,
    counts: BTreeMap<String, usize>,
    /// Exchange operations this rank performed, flush included.
    exchanges: u64,
}

/// Runs `qc` on `ranks` ranks through its plan from the given layout,
/// seed and shot count.
fn distributed_replay(
    qc: &Circuit,
    ranks: usize,
    layout: Option<Vec<usize>>,
    seed: u64,
    shots: usize,
) -> (Replay, DistPlan) {
    let plan = DistPlan::build(qc, ranks.trailing_zeros() as usize, layout.as_deref());
    let (n, shared) = (qc.num_qubits(), Arc::new(plan.clone()));
    let results = run_world(ranks, move |mut ctx| {
        let mut dsv = DistStateVector::zero(&mut ctx, n);
        dsv.run_plan(&shared, &mut Rng::seed_from(seed));
        let counts = dsv.sample_counts(shots, seed);
        let state = dsv.gather_full();
        let exchanges = dsv.stats().exchanges;
        state.map(|state| Replay {
            state,
            counts: counts.expect("rank 0 counts"),
            exchanges,
        })
    });
    let planned = results.into_iter().next().unwrap();
    (planned.expect("rank 0 gathers"), plan)
}

/// A seeded random placement of `n` logical qubits.
fn random_layout(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from(seed ^ 0x1A70);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// The distributed run against the serial state, amplitude by amplitude,
/// and the plan's own bookkeeping against what it did.
fn check_against_serial(
    qc: &Circuit,
    serial: &StateVector,
    ranks: usize,
    layout: Option<Vec<usize>>,
    seed: u64,
) -> Replay {
    let laid_out = layout.is_some();
    let (planned, plan) = distributed_replay(qc, ranks, layout, seed, 500);
    for (i, (a, b)) in serial.amps().iter().zip(planned.state.amps()).enumerate() {
        assert!(
            a.approx_eq(*b, 1e-12),
            "{ranks} ranks, layout {laid_out}, amp {i}: {a} vs {b}"
        );
    }
    assert_eq!(
        plan.remaps() as u64,
        planned.exchanges,
        "{ranks} ranks: planned remaps vs exchanges performed"
    );
    planned
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Unitary random circuits: amplitudes match the serial engine at
    /// every world size and from any starting layout, and sampled counts
    /// replay the serial split-sampling scheme bit for bit.
    #[test]
    fn distributed_matches_serial_on_random_unitaries(
        seed in 0u64..1 << 48,
        n in 4usize..7,
    ) {
        let qc = random_dist_circuit(n, 40, seed, false);
        let serial = serial_replay(&qc, seed);
        for ranks in [1usize, 2, 4, 8] {
            let r = ranks.trailing_zeros() as usize;
            // ccx needs three simultaneous local operands.
            if n - r < 3 {
                continue;
            }
            let want_counts =
                serial.sample_counts_split(500, seed, canonical_split_bits(n, r));
            for layout in [None, Some(random_layout(n, seed))] {
                let planned = check_against_serial(&qc, &serial, ranks, layout, seed);
                prop_assert_eq!(
                    &planned.counts, &want_counts,
                    "plan, {} ranks: counts diverged", ranks
                );
            }
        }
    }

    /// Circuits with mid-circuit measurements: the distributed engine
    /// collapses the same trajectory as a serial replay drawn from the
    /// same rng.
    #[test]
    fn distributed_measurements_collapse_serial_trajectory(
        seed in 0u64..1 << 48,
        n in 4usize..7,
    ) {
        let qc = random_dist_circuit(n, 30, seed, true);
        let serial = serial_replay(&qc, seed);
        for ranks in [1usize, 2, 4] {
            if n - (ranks.trailing_zeros() as usize) < 3 {
                continue;
            }
            for layout in [None, Some(random_layout(n, seed))] {
                check_against_serial(&qc, &serial, ranks, layout, seed);
            }
        }
    }

    /// Gates pinned to the very top of the register (all operands high)
    /// at the maximum rank count the register supports.
    #[test]
    fn all_high_gates_at_top_qubits(seed in 0u64..1 << 48) {
        let n = 6;
        let mut rng = Rng::seed_from(seed);
        let mut qc = Circuit::new(n);
        qc.h(3).h(4).h(5);
        for _ in 0..12 {
            match rng.index(5) {
                0 => qc.swap(4, 5),
                1 => qc.ccx(3, 4, 5),
                2 => qc.rzz(4, 5, rng.uniform(-1.0, 1.0)),
                3 => qc.cx(5, 3),
                _ => qc.cp(3, 5, rng.uniform(-1.0, 1.0)),
            };
        }
        let serial = serial_replay(&qc, seed);
        // 8 ranks leaves L=3 local bits: qubits 3..5 all live on rank
        // bits.
        check_against_serial(&qc, &serial, 8, None, seed);
    }

    /// Shards narrower than the executor's tile (`L < TILE_BITS`) and
    /// than its contiguous block (`L < BLOCK_BITS`), down to one local
    /// qubit: one- and two-qubit gates and diagonals anywhere.
    #[test]
    fn shards_narrower_than_a_tile_or_a_block(seed in 0u64..1 << 48, n in 3usize..7) {
        let mut rng = Rng::seed_from(seed);
        let mut qc = Circuit::new(n);
        for _ in 0..30 {
            let q = rng.index(n);
            let p = (q + 1 + rng.index(n - 1)) % n;
            match rng.index(6) {
                0 => qc.h(q),
                1 => qc.rx(q, rng.uniform(-3.0, 3.0)),
                2 => qc.rz(q, rng.uniform(-3.0, 3.0)),
                3 => qc.cz(q, p),
                4 => qc.rzz(q, p, rng.uniform(-1.0, 1.0)),
                _ => qc.cx(q, p),
            };
        }
        let serial = serial_replay(&qc, seed);
        // A two-qubit gate needs two local operands.
        for ranks in [2usize, 4, 8].into_iter().filter(|r| n - r.trailing_zeros() as usize >= 2) {
            for layout in [None, Some(random_layout(n, seed))] {
                check_against_serial(&qc, &serial, ranks, layout, seed);
            }
        }
    }

    /// A dense three-qubit gate (no named kernel, no diagonal shortcut)
    /// whose operands start on rank bits, between entangling layers.
    #[test]
    fn wide_dense_gate_with_high_operands(seed in 0u64..1 << 48) {
        let n = 6;
        let mut rng = Rng::seed_from(seed);
        // A real orthogonal 8x8: products of Givens rotations.
        let mut m = Matrix::identity(8);
        for _ in 0..12 {
            let (i, j) = (rng.index(8), rng.index(7));
            let j = if j >= i { j + 1 } else { j };
            let (s, c) = rng.uniform(-3.0, 3.0).sin_cos();
            let mut g = Matrix::identity(8);
            g[(i, i)] = c.into();
            g[(j, j)] = c.into();
            g[(i, j)] = (-s).into();
            g[(j, i)] = s.into();
            m = g.matmul(&m);
        }
        let mut qc = Circuit::new(n);
        for q in 0..n {
            qc.h(q);
        }
        qc.rzz(0, 5, 0.4).cx(4, 1);
        qc.push(Gate::Unitary {
            qubits: vec![5, 2, 4],
            matrix: Arc::new(m),
            label: "givens3".into(),
        });
        qc.cz(3, 5).rx(5, 0.7);
        let serial = serial_replay(&qc, seed);
        for ranks in [2usize, 4, 8] {
            for layout in [None, Some(random_layout(n, seed))] {
                check_against_serial(&qc, &serial, ranks, layout, seed);
            }
        }
    }

    /// Planning is a pure function of (circuit, ranks, layout); at one
    /// rank nothing moves and the single epoch is the local engine's own
    /// plan, layer for layer.
    #[test]
    fn plan_is_deterministic_and_degenerates_to_the_local_plan(
        seed in 0u64..1 << 48,
        n in 4usize..7,
    ) {
        let qc = random_dist_circuit(n, 40, seed, false);
        let layout = random_layout(n, seed);
        for rank_bits in 0..=n - 3 {
            prop_assert_eq!(
                DistPlan::build(&qc, rank_bits, Some(&layout)),
                DistPlan::build(&qc, rank_bits, Some(&layout))
            );
        }
        let one = DistPlan::build(&qc, 0, None);
        prop_assert_eq!(one.remaps(), 0);
        match one.steps() {
            [DistStep::Epoch(epoch)] => prop_assert_eq!(epoch.layers(), fuse(&qc).layers()),
            steps => prop_assert!(false, "one rank, {} steps", steps.len()),
        }
    }
}

/// Narrow registers, end to end through [`run_distributed_laid_out`]:
/// GHZ-6 on 4 ranks (`L = 4 < TILE_BITS`) and a 3-qubit register on 2
/// ranks (`L = 2 < BLOCK_BITS`) must sample the local engine's counts.
#[test]
fn narrow_registers_sample_the_local_engines_counts() {
    let mut ghz6 = Circuit::new(6);
    ghz6.h(0);
    for q in 0..5 {
        ghz6.cx(q, q + 1);
    }
    ghz6.cz(4, 5).rzz(0, 5, 0.3);
    let mut w3 = Circuit::new(3);
    w3.h(2).cx(2, 0).rx(1, 0.9).cz(1, 2).h(2);
    for (qc, ranks) in [(ghz6, 4usize), (w3, 2)] {
        let want = SvSimulator::default().run(&qc, 2000, 0xD157).counts;
        let qc = Arc::new(qc);
        let results = run_world(ranks, move |mut ctx| {
            let (route, obs) = (RouteStrategy::Lazy, Obs::disabled());
            run_distributed_laid_out(&mut ctx, &qc, 2000, 0xD157, route, None, &obs)
        });
        let (got, _) = results[0].as_ref().expect("rank 0 outcome");
        assert_eq!(got.counts, want, "{ranks} ranks");
    }
}
