//! Work budget of a dense job: how many full-state passes a run from
//! |0…0⟩ makes, and how large a block the sampling tail asks the heap for.
//!
//! Counts, not timings: the passes a plan makes are a pure function of the
//! circuit, and the sizes of the heap blocks a sampler asks for are a pure
//! function of its input, so the budgets hold on any host. A change that
//! makes a job stream its state more often, or brings back a `2^n` table
//! in the tail, fails here before any benchmark has to see it.
//!
//! The allocation tracker is per thread, so tests running in parallel do
//! not see each other's blocks.

use qfw_circuit::{Circuit, Readout};
use qfw_compile::{compile_qasm3, DagCircuit, OptLevel};
use qfw_obs::Obs;
use qfw_sim_sv::{canonical_split_bits, fuse, SvSimulator};
use qfw_workloads::{ham, qaoa_ansatz, tfim, Qubo};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
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

