//! Allocation budget of QASM3 ingestion: `parse` and the O2 pipeline may
//! allocate a bounded number of times per source op plus a constant, on
//! the five `serve_cold` programs and the corpus QAOA-14.
//!
//! Counts, not timings: the number of heap allocations a call makes is a
//! deterministic function of its input, so the bound holds on any host.
//! The counting allocator is per thread, so tests running in parallel do
//! not see each other's allocations.

mod common;

use qfw_compile::{compile_dag, parse, OptLevel};
use qfw_obs::Obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counter is a
// const-initialized thread-local `Cell`, which neither allocates nor locks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (fresh blocks and resizes) made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn budgeted_programs() -> Vec<(String, String)> {
    let mut out = common::serve_cold_programs();
    out.push(("corpus-qaoa14".into(), common::corpus("qaoa14.qasm")));
    out
}

#[test]
fn parse_allocates_at_most_once_per_op() {
    for (name, src) in budgeted_programs() {
        let (count, parsed) = allocations(|| parse(&src).expect("parses"));
        let ops = parsed.dag.len();
        assert!(
            count <= ops + 32,
            "{name}: parse made {count} allocations for {ops} ops (budget {})",
            ops + 32
        );
    }
}

#[test]
fn o2_pipeline_allocates_at_most_twice_per_op() {
    let obs = Obs::disabled();
    for (name, src) in budgeted_programs() {
        let dag = parse(&src).expect("parses").dag;
        let ops = dag.len();
        let (count, result) = allocations(|| compile_dag(dag, OptLevel::O2, &obs));
        assert!(
            count <= 2 * ops + 32,
            "{name}: O2 made {count} allocations for {ops} ops (budget {}), {:?}",
            2 * ops + 32,
            result.stats
        );
    }
}
