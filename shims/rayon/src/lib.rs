//! Offline stand-in for `rayon`: the slice/range parallel combinators the
//! state-vector engine uses, executed on `std::thread::scope` with
//! contiguous chunking (one chunk per hardware thread).
//!
//! Shapes covered (the only two spawn sites):
//! * `slice.par_iter_mut().enumerate().for_each(f)` and `.for_each_init(init, f)`
//!   — sweep points, the sampler's blocks, expectation partial sums
//! * `(a..b).into_par_iter().for_each_init(init, f)` — the layer plan's tiles

use std::ops::Range;
use std::sync::OnceLock;

/// Everything a `use rayon::prelude::*` caller expects in scope.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

/// Worker count, asked of the OS once: `available_parallelism` is a
/// `sched_getaffinity` syscall, and every combinator below consults this.
fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
    })
}

/// Splits `len` items into near-equal contiguous spans, one per worker.
fn spans(len: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1).min(len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

// --- slice entry points -----------------------------------------------------

/// `par_iter_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel mutable element iterator.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }
}

/// `into_par_iter` for index ranges.
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

// --- mutable element iterators ----------------------------------------------

/// Parallel `&mut T` iterator over a slice.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Pairs each element with its index.
    pub fn enumerate(self) -> EnumerateMut<'a, T> {
        EnumerateMut { slice: self.slice }
    }
}

/// Indexed parallel `&mut T` iterator.
pub struct EnumerateMut<'a, T> {
    slice: &'a mut [T],
}

impl<T: Send> EnumerateMut<'_, T> {
    /// Applies `f` to every `(index, &mut element)` in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Sync,
    {
        self.for_each_init(|| (), |(), x| f(x));
    }

    /// [`for_each`](Self::for_each), handing `f` a per-worker value built
    /// by `init` (scratch buffers that must not be shared).
    pub fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, (usize, &mut T)) + Sync,
    {
        let workers = threads();
        if self.slice.len() < 2 || workers < 2 {
            let mut state = init();
            for (i, v) in self.slice.iter_mut().enumerate() {
                f(&mut state, (i, v));
            }
            return;
        }
        let plan = spans(self.slice.len(), workers);
        let (init, f) = (&init, &f);
        std::thread::scope(|scope| {
            let mut rest = self.slice;
            let mut consumed = 0;
            for span in plan {
                let (head, tail) = rest.split_at_mut(span.len());
                rest = tail;
                let offset = consumed;
                consumed += span.len();
                scope.spawn(move || {
                    let mut state = init();
                    for (i, v) in head.iter_mut().enumerate() {
                        f(&mut state, (offset + i, v));
                    }
                });
            }
        });
    }
}

// --- ranges -------------------------------------------------------------------

/// Parallel iterator over a `Range<usize>`.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Applies `f` to every index in parallel, handing it a per-worker
    /// value built by `init` (scratch buffers that must not be shared).
    pub fn for_each_init<T, I, F>(self, init: I, f: F)
    where
        I: Fn() -> T + Sync + Send,
        F: Fn(&mut T, usize) + Sync + Send,
    {
        let len = self.range.len();
        let workers = threads();
        if len < 2 || workers < 2 {
            let mut state = init();
            for i in self.range {
                f(&mut state, i);
            }
            return;
        }
        let start = self.range.start;
        let (init, f) = (&init, &f);
        let run = move |span: Range<usize>| {
            let mut state = init();
            for i in span {
                f(&mut state, start + i);
            }
        };
        // The caller takes the first span itself instead of idling in the
        // join: one thread fewer to start per dispatch.
        let mut plan = spans(len, workers).into_iter();
        let own = plan.next().expect("at least one span");
        std::thread::scope(|scope| {
            for span in plan {
                scope.spawn(move || run(span));
            }
            run(own);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn enumerate_for_each_touches_every_index() {
        let mut v = vec![0usize; 1000];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * 2);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn two_items_both_run_and_one_item_stays_on_the_caller() {
        let caller = std::thread::current().id();
        // Two items: both are visited, whoever runs them.
        let mut v = vec![0u8; 2];
        v.par_iter_mut().enumerate().for_each(|(_, x)| *x += 1);
        assert_eq!(v, [1, 1]);
        // One item is below every combinator's cutoff: the serial fallback
        // runs it on the calling thread, no spawn.
        let mut v = vec![0u8; 1];
        v.par_iter_mut().enumerate().for_each(|(_, x)| {
            assert_eq!(std::thread::current().id(), caller);
            *x = 7;
        });
        assert_eq!(v, [7]);
        (0..1).into_par_iter().for_each_init(
            || (),
            |_, _| assert_eq!(std::thread::current().id(), caller),
        );
    }

    #[test]
    fn for_each_init_builds_one_state_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        (0..64).into_par_iter().for_each_init(
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert!((1..=super::threads()).contains(&inits.load(Ordering::Relaxed)));
    }
}
