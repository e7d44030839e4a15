//! Allocation budget of a result's counts: tallying a 512-shot QAOA-12
//! sample with `Readout::counts`, encoding the `QfwResult` and decoding it
//! take a fixed number of heap blocks, however many distinct outcomes the
//! sample holds — none per key.
//!
//! Counts, not timings: the number of heap allocations a call makes is a
//! deterministic function of its input, so the bound holds on any host.
//! The counting allocator is per thread, so tests running in parallel do
//! not see each other's allocations.

use qfw::QfwResult;
use qfw_circuit::{Counts, Readout};
use qfw_sim_sv::{canonical_split_bits, SvSimulator};
use qfw_workloads::{qaoa_ansatz, Qubo};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

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
