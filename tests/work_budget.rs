//! Work budget of a job: how many full-state passes a dense run from
//! |0…0⟩ makes, how large a block the sampling tail asks the heap for,
//! that a per-gate kernel starts no thread, that the stabilizer and MPS
//! samplers, an MPS job and a tensor-network job ask the heap for no more
//! blocks at 4 096 shots than at 256, how many SVDs an MPS job makes, how
//! wide a tensor-network job's contraction plan gets and how many
//! multiply-adds it costs, that a Clifford prefix
//! reaches the partition seam in the same blocks whatever its length, and
//! that tallying, encoding and decoding a result's counts take a fixed
//! number of blocks however many distinct outcomes it holds — none per
//! key.
//!
//! Counts, not timings: the passes a plan makes are a pure function of the
//! circuit, and the number and sizes of the heap blocks a call asks for are
//! a pure function of its input, so the budgets hold on any host. A change
//! that makes a job stream its state more often, or brings back a `2^n`
//! table in the tail, fails here before any benchmark has to see it.
//!
//! The allocation tracker is per thread, so tests running in parallel do
//! not see each other's blocks.

use qfw::QfwResult;
use qfw_circuit::hash::param_hash;
use qfw_circuit::{circuit_hash, Circuit, Counts, Gate, Readout};
use qfw_compile::{compile_qasm3, DagCircuit, OptLevel};
use qfw_num::rng::Rng;
use qfw_num::Matrix;
use qfw_obs::Obs;
use qfw_sim_mps::{MpsConfig, MpsSimulator, MpsState};
use qfw_sim_stab::{StabSimulator, Tableau};
use qfw_sim_tn::{OrderHeuristic, TensorNetwork, TnSimulator};
use qfw_sim_sv::{canonical_split_bits, fuse, StateVector, SvSimulator};
use qfw_workloads::{ghz, ham, qaoa_ansatz, tfim, Qubo};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
    let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the tracker is a
// const-initialized thread-local `Cell`, which neither allocates nor locks.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// The largest heap block `f` asks for on this thread.
fn largest_block<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// Allocations (fresh blocks and resizes) made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (BLOCKS.with(Cell::get) - before, out)
}

/// How many heap blocks `f` asks for on this thread.
fn blocks(f: impl FnOnce()) -> usize {
    allocations(f).0
}

/// A circuit as the scheduler's ingress admits it for `nwqsim/cpu`: as
/// OpenQASM 3 text compiled at O2.
fn o2(circuit: &Circuit) -> Circuit {
    let text = qfw_compile::emit(&DagCircuit::from_circuit(circuit), &[]).expect("emits");
    compile_qasm3(&text, OptLevel::O2, &Obs::disabled(), None)
        .expect("compiles")
        .0
}

fn qaoa(n: usize, p: usize) -> Circuit {
    let qubo = Qubo::metamaterial(n, 3, 0x51AB + n as u64);
    let theta: Vec<f64> = (0..2 * p).map(|k| 0.35 + 0.11 * k as f64).collect();
    qaoa_ansatz(&qubo, p).bind(&theta)
}

/// `(job, its circuit, passes today, ceiling)`: the dense jobs of the
/// `engine_sv` workload as admitted, and a `dqaoa` sub-ansatz as bound,
/// with the passes a run from |0…0⟩ makes. A ceiling is at most a tenth
/// above today's count, so one pass more on any of these jobs fails.
fn jobs() -> Vec<(&'static str, Circuit, usize, usize)> {
    vec![
        ("QAOA-18 p=2, O2", o2(&qaoa(18, 2)), 3, 3),
        ("HAM-18, O2", o2(&ham(18)), 4, 4),
        ("TFIM-18, O2", o2(&tfim(18)), 11, 12),
        ("QAOA-12 p=1", qaoa(12, 1), 2, 2),
    ]
}

#[test]
fn dense_jobs_stay_inside_their_pass_budget() {
    for (job, circuit, today, ceiling) in jobs() {
        assert!(today <= ceiling && 10 * ceiling <= 11 * today, "{job}: budget");
        let passes = fuse(&circuit).passes_from_zero();
        assert!(passes <= ceiling, "{job}: {passes} passes, budget {ceiling}");
    }
}

#[test]
fn sampling_tail_allocates_no_state_sized_block() {
    let n = 18;
    let circuit = qaoa(n, 2);
    let state = SvSimulator::default().statevector(&circuit);
    let readout = Readout::of(&circuit);
    let split = canonical_split_bits(n, 0);
    let (largest, counts) = largest_block(|| {
        let draws = state.sample_split(1024, 7, split);
        readout.counts(draws, &BTreeMap::new())
    });
    assert_eq!(counts.values().sum::<usize>(), 1024);
    let table = (1usize << n) * std::mem::size_of::<f64>();
    assert!(
        largest < table,
        "the tail asked for a {largest}-byte block; a 2^{n} probability table is {table}"
    );
}

/// Every gate kind, and `measure`, on a 14-qubit state allocates exactly
/// as much with `parallel = true` as with `false`: the per-gate kernels
/// start no thread, and a scoped spawn always allocates on the spawning
/// thread. A host with one hardware thread cannot show the opposite,
/// because there the shim never spawns.
#[test]
fn per_gate_kernels_start_no_thread() {
    let n = 14;
    let (a, b, c) = (0, 7, 13);
    let wide = Matrix::identity(8);
    let gates = [
        Gate::H(a),
        Gate::X(b),
        Gate::Y(b),
        Gate::Z(a),
        Gate::S(b),
        Gate::Sdg(c),
        Gate::T(a),
        Gate::Tdg(b),
        Gate::Sx(c),
        Gate::Rx(a, 0.3),
        Gate::Ry(b, 0.4),
        Gate::Rz(c, 0.5),
        Gate::Phase(a, 0.6),
        Gate::U(b, 0.1, 0.2, 0.3),
        Gate::Cx(a, c),
        Gate::Cy(c, b),
        Gate::Cz(a, b),
        Gate::Swap(b, c),
        Gate::Cp(a, c, 0.7),
        Gate::Crx(b, a, 0.8),
        Gate::Cry(c, a, 0.9),
        Gate::Crz(a, b, 1.0),
        Gate::Rxx(a, c, 1.1),
        Gate::Ryy(b, c, 1.2),
        Gate::Rzz(a, b, 1.3),
        Gate::Ccx(a, b, c),
        Gate::Unitary {
            qubits: vec![a, b, c],
            matrix: Arc::new(Gate::Ccx(0, 1, 2).matrix()),
            label: "dense3".into(),
        },
        Gate::Unitary {
            qubits: vec![c, a, b],
            matrix: Arc::new(wide),
            label: "diag3".into(),
        },
    ];
    let mut sv = StateVector::zero(n);
    for g in &gates {
        let serial = blocks(|| sv.apply(g, false));
        let threaded = blocks(|| sv.apply(g, true));
        assert_eq!(threaded, serial, "{g}: {threaded} blocks threaded, {serial} serial");
    }
    let mut rng = Rng::seed_from(5);
    for q in [a, b, c] {
        let serial = blocks(|| {
            sv.measure(q, &mut rng, false);
        });
        let threaded = blocks(|| {
            sv.measure(q, &mut rng, true);
        });
        assert_eq!(threaded, serial, "measure q{q}: {threaded} blocks threaded, {serial} serial");
    }
}

/// A GHZ-24 job on the stabilizer engine, as `auto_mix`'s `ghz24.auto`
/// runs it: the blocks of one execution do not grow with the shots, since
/// every shot is drawn from one echelon form, nor with the rows, since the
/// tableau is one block per bit matrix.
#[test]
fn stabilizer_job_allocates_the_same_blocks_whatever_the_shots() {
    let circuit = ghz(24);
    let job = |shots| {
        blocks(|| {
            let out = StabSimulator.execute(&circuit, shots, 7).unwrap();
            assert_eq!(out.counts.values().sum::<usize>(), shots);
        })
    };
    let (few, many) = (job(256), job(4096));
    assert_eq!(few, many, "GHZ-24: {few} blocks at 256 shots, {many} at 4 096");
    assert!(few <= STAB_JOB_BLOCKS, "GHZ-24: {few} blocks, budget {STAB_JOB_BLOCKS}");
}

/// Ceiling of a GHZ-24 stabilizer job's blocks (15 today: `Readout::of`
/// reads each gate's operands in place), at most a tenth above today's
/// count.
const STAB_JOB_BLOCKS: usize = 16;

/// The Clifford prefix of `auto_mix`'s `cliff14` kind, cut after `gates`
/// gates.
fn clifford_prefix(n: usize, gates: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    qc.h(0);
    for l in 0.. {
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        for q in 0..n {
            if (q + l) % 2 == 0 {
                qc.s(q);
            } else {
                qc.cz(q, (q + 1) % n);
            }
        }
        if qc.gates().count() >= gates {
            break;
        }
    }
    let mut cut = Circuit::new(n);
    for g in qc.gates().take(gates) {
        cut.push(g.clone());
    }
    cut
}

/// The partition seam of a 14-qubit Clifford prefix — evolve it on the
/// tableau, then extract the dense state — asks the heap for the same
/// blocks at 32 gates as at 256: the tableau's bit matrices and its
/// echelon form's, and nothing per row or per gate.
#[test]
fn clifford_prefix_seam_allocates_the_same_blocks_whatever_the_gates() {
    let seam = |gates| {
        let prefix = clifford_prefix(14, gates);
        blocks(|| {
            let amps = Tableau::evolve(14, prefix.gates()).to_amplitudes().unwrap();
            assert_eq!(amps.len(), 1 << 14);
        })
    };
    let (short, long) = (seam(32), seam(256));
    assert_eq!(short, long, "cliff14 seam: {short} blocks at 32 gates, {long} at 256");
    assert!(short <= SEAM_BLOCKS, "cliff14 seam: {short} blocks, budget {SEAM_BLOCKS}");
}

/// Ceiling of the `cliff14` seam's blocks (10 today: the tableau's X, Z
/// and signs, the echelon form's copy of its stabilizer rows, pivots and
/// base point, and the amplitudes), at most a tenth above today's count.
const SEAM_BLOCKS: usize = 11;

/// The MPS sampler on a TFIM-20 state reuses its bond vectors across sites
/// and shots, so its blocks do not grow with the shots either. The budget
/// is at most a tenth over today's 12 blocks: the draws, the chunk's
/// uniforms, its shot list and spill, one buffer of child vectors for
/// every depth, and the gauge move to site 0 growing the scratch buffers
/// the clone made exact-size. It was 476 while every gauge move factored
/// through fresh matrices and the SVD copied out two columns per pair step.
#[test]
fn mps_sampler_allocates_the_same_blocks_whatever_the_shots() {
    let config = MpsConfig::default();
    let mut state = MpsState::zero(20, config.chi_max, config.trunc_eps);
    state.run_unitary(&tfim(20));
    let draw = |shots| {
        let mut state = state.clone();
        let mut rng = Rng::seed_from(3);
        blocks(|| assert_eq!(state.sample(shots, &mut rng).len(), shots))
    };
    let (few, many) = (draw(256), draw(4096));
    assert_eq!(few, many, "TFIM-20: {few} blocks at 256 shots, {many} at 4 096");
    assert!(few <= 13, "TFIM-20: {few} blocks, budget 13");
}

/// A TFIM-20 job on the MPS engine, as `auto_mix`'s `tfim20.auto` runs it
/// at `aer/matrix_product_state`'s χ64/ε1e-12, and a QAOA-12 p=1 job at
/// `tnqvm/exatn-mps`'s χ32/ε1e-10: each job's SVDs are pinned (one per
/// truncating split, one per gauge move), and its blocks do not grow with
/// the shots and stay inside [`MPS_JOB_BLOCKS`].
#[test]
fn mps_job_pins_its_svds_and_allocates_the_same_blocks_whatever_the_shots() {
    let exatn = MpsConfig {
        chi_max: 32,
        trunc_eps: 1e-10,
    };
    let jobs = [
        ("TFIM-20", tfim(20), MpsConfig::default(), 380),
        ("QAOA-12 p=1", qaoa(12, 1), exatn, 172),
    ];
    for ((name, circuit, config, svds), budget) in jobs.into_iter().zip(MPS_JOB_BLOCKS) {
        let job = |shots| {
            allocations(|| {
                let out = MpsSimulator::new(config).execute(&circuit, shots, 7);
                assert_eq!(out.counts.values().sum::<usize>(), shots);
                out
            })
        };
        let ((few, out), (many, _)) = (job(256), job(4096));
        assert_eq!(out.svds, svds, "{name}: SVDs per run");
        assert_eq!(few, many, "{name}: {few} blocks at 256 shots, {many} at 4 096");
        assert!(few <= budget, "{name}: {few} blocks, budget {budget}");
    }
}

/// Ceilings of the two MPS jobs' blocks (147 and 95 today: the readout,
/// the counts, and the site tensors' and the SVD workspace's buffers as
/// the bonds grow), each at most a tenth above today's count. They were
/// 15 661 and 9 354 while every SVD, gauge move and block update built its
/// factors as fresh matrices, and 337 and 147 while every two-qubit gate's
/// matrix was built on the heap.
const MPS_JOB_BLOCKS: [usize; 2] = [161, 104];

/// At most this many blocks per step: the tally's keys and shots; the
/// encoder's buffer, its first block and the counts' one reservation (and
/// one more growth when the counts are too few to leave room for the
/// fields after them); the decoded backend, sub-backend and counts' keys
/// and shots.
const BUDGET: [usize; 3] = [2, 3, 4];

/// The allocations of each step for the QAOA-12 ansatz sampled `shots`
/// times, and the number of distinct outcomes.
fn steps(shots: usize) -> ([usize; 3], usize) {
    let qubo = Qubo::random(12, 0.6, 41);
    let circuit = qaoa_ansatz(&qubo, 1).bind(&[0.7, 0.3]);
    let state = SvSimulator::default().statevector(&circuit);
    let draws = state.sample_split(shots, 41, canonical_split_bits(12, 0));
    let readout = Readout::of(&circuit);
    let collapsed = BTreeMap::new();
    let mut result = QfwResult::new("nwqsim", "cpu", shots);

    let (tally, counts) = allocations(|| readout.counts(draws, &collapsed));
    result.counts = counts;
    let (encode, bytes) = allocations(|| serde_json::to_vec(&result).unwrap());
    let (decode, back) = allocations(|| serde_json::from_slice::<QfwResult>(&bytes).unwrap());
    assert_eq!(back.counts, result.counts);
    ([tally, encode, decode], result.counts.len())
}

#[test]
fn counts_allocate_a_fixed_number_of_blocks_whatever_the_outcomes() {
    let within = |made: [usize; 3], distinct: usize| {
        assert!(
            made.iter().zip(BUDGET).all(|(&n, budget)| n <= budget),
            "tally, encode, decode made {made:?} allocations for {distinct} outcomes \
             (budget {BUDGET:?})"
        );
    };
    let (at_512, distinct) = steps(512);
    assert!(
        distinct > 300,
        "a 512-shot QAOA-12 sample spreads: {distinct} outcomes"
    );
    within(at_512, distinct);
    // Eight times the shots, several times the outcomes: the same blocks.
    let (at_4096, more) = steps(4096);
    assert!(more > 2 * distinct, "{more} outcomes at 4096 shots");
    assert_eq!(at_4096, at_512, "{more} outcomes vs {distinct}");
    // And a histogram of a handful of outcomes.
    let (at_8, few) = steps(8);
    within(at_8, few);
}

/// A decoded histogram is one block of keys and one of shots.
#[test]
fn decoding_counts_allocates_two_blocks() {
    let mut counts = Counts::default();
    for i in 0..1000usize {
        counts.insert(format!("{i:012b}"), i + 1);
    }
    let bytes = serde_json::to_vec(&counts).unwrap();
    let (decode, back) = allocations(|| serde_json::from_slice::<Counts>(&bytes).unwrap());
    assert_eq!(back, counts);
    assert_eq!(decode, 2);
}

/// The `auto_mix` QAOA-12 p=1 job on the tensor-network engine: its greedy
/// plan, laid out from the wires alone, has the widest intermediate and
/// multiply-adds pinned here, and a 256-shot `execute` asks the heap for
/// no more blocks than [`TN_JOB_BLOCKS`], and for no more at 4 096 shots.
#[test]
fn qtensor_job_plans_its_width_and_work_and_allocates_the_same_blocks_whatever_the_shots() {
    let circuit = qaoa(12, 1);
    let plan = TensorNetwork::from_circuit(&circuit).plan(OrderHeuristic::Greedy);
    assert_eq!(
        (plan.widest(), plan.multiply_adds()),
        (12, 51_288),
        "QAOA-12 greedy plan: widest rank, multiply-adds"
    );
    let job = |shots| {
        blocks(|| {
            let out = TnSimulator::default().execute(&circuit, shots, 7);
            assert_eq!(out.counts.values().sum::<usize>(), shots);
        })
    };
    let (few, many) = (job(256), job(4096));
    assert_eq!(few, many, "QAOA-12 qtensor: {few} blocks at 256 shots, {many} at 4 096");
    assert!(few <= TN_JOB_BLOCKS, "QAOA-12 qtensor: {few} blocks, budget {TN_JOB_BLOCKS}");
}

/// Ceiling of a QAOA-12 qtensor job's blocks (441 today: each gate's
/// matrix, indices and data, each step's result, and a fixed number for
/// the plan, the state and the dense engine's split sampler), at most a
/// tenth above today's count. It was 985 while every gate lowered through
/// three scratch vectors and every step rebuilt its index maps, and 427
/// while the engine sampled through its own three `2^n` tables.
const TN_JOB_BLOCKS: usize = 469;

/// The cache keys of a `dqaoa` sub-ansatz (QAOA-12 p=1): hashing the
/// bound circuit and the bound template streams their canonical text with
/// no heap block at all (writing a gate line used to allocate its angle
/// and operand lists: 120 and 12 blocks here).
#[test]
fn cache_keys_of_the_dqaoa_sub_ansatz_allocate_nothing() {
    let template = qaoa_ansatz(&Qubo::metamaterial(12, 3, 0x51AB + 12), 1);
    let theta = [0.35, 0.46];
    let bound = template.bind(&theta);
    assert_eq!(allocations(|| circuit_hash(&bound)).0, 0, "circuit_hash");
    let (n, _) = allocations(|| param_hash(&template, Some(&theta)));
    assert_eq!(n, 0, "param_hash");
}
