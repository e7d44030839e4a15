//! Offline stand-in for `rayon`: the slice/range parallel combinators the
//! state-vector kernels use, executed on `std::thread::scope` with
//! contiguous chunking (one chunk per hardware thread).
//!
//! Shapes covered:
//! * `slice.par_iter_mut().enumerate().for_each(f)`
//! * `slice.par_iter_mut().enumerate().for_each_init(init, f)`
//! * `slice.par_iter_mut().zip(other.par_iter_mut()).for_each(f)`
//! * `slice.par_chunks_mut(n).for_each(f)`
//! * `(a..b).into_par_iter().for_each(f)`
//! * `(a..b).into_par_iter().for_each_init(init, f)`

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

/// `par_iter_mut` / `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel mutable element iterator.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel mutable chunk iterator.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunksMut { slice: self, chunk }
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

    /// Locksteps two equal-length mutable iterators.
    pub fn zip(self, other: ParIterMut<'a, T>) -> ZipMut<'a, T> {
        assert_eq!(self.slice.len(), other.slice.len(), "zip length mismatch");
        ZipMut {
            left: self.slice,
            right: other.slice,
        }
    }

    /// Applies `f` to every element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        EnumerateMut { slice: self.slice }.for_each(|(_, v)| f(v));
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

/// Locksteped pair of parallel mutable iterators.
pub struct ZipMut<'a, T> {
    left: &'a mut [T],
    right: &'a mut [T],
}

impl<T: Send> ZipMut<'_, T> {
    /// Applies `f` to every aligned `(&mut left, &mut right)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((&mut T, &mut T)) + Sync,
    {
        let workers = threads();
        if self.left.len() < 2 || workers < 2 {
            for (a, b) in self.left.iter_mut().zip(self.right.iter_mut()) {
                f((a, b));
            }
            return;
        }
        let plan = spans(self.left.len(), workers);
        let f = &f;
        std::thread::scope(|scope| {
            let mut left = self.left;
            let mut right = self.right;
            for span in plan {
                let (lh, lt) = left.split_at_mut(span.len());
                let (rh, rt) = right.split_at_mut(span.len());
                left = lt;
                right = rt;
                scope.spawn(move || {
                    for (a, b) in lh.iter_mut().zip(rh.iter_mut()) {
                        f((a, b));
                    }
                });
            }
        });
    }
}

/// Parallel mutable chunk iterator.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<T: Send> ParChunksMut<'_, T> {
    /// Applies `f` to every chunk in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        let chunks = self.slice.len().div_ceil(self.chunk.max(1));
        let workers = threads();
        if chunks < 2 || workers < 2 {
            for chunk in self.slice.chunks_mut(self.chunk) {
                f(chunk);
            }
            return;
        }
        let f = &f;
        // Hand each worker a contiguous run of whole chunks.
        let plan = spans(chunks, workers);
        std::thread::scope(|scope| {
            let mut rest = self.slice;
            for span in plan {
                let take = (span.len() * self.chunk).min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let chunk = self.chunk;
                scope.spawn(move || {
                    for piece in head.chunks_mut(chunk) {
                        f(piece);
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
    /// Applies `f` to every index in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        self.for_each_init(|| (), |(), i| f(i));
    }

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
    fn chunks_cover_whole_slice() {
        let mut v = vec![1u64; 1003];
        v.par_chunks_mut(64).for_each(|c| {
            for x in c {
                *x += 1;
            }
        });
        assert_eq!(v.iter().sum::<u64>(), 2006);
    }

    #[test]
    fn two_chunks_both_run_and_one_chunk_stays_on_the_caller() {
        let caller = std::thread::current().id();
        // Two chunks: both are visited, whoever runs them.
        let mut v = vec![0u8; 2];
        v.par_chunks_mut(1).for_each(|c| c[0] += 1);
        assert_eq!(v, [1, 1]);
        // One chunk (or one item) is below every combinator's cutoff: the
        // serial fallback runs it on the calling thread, no spawn.
        let mut v = vec![0u8; 2];
        v.par_chunks_mut(2).for_each(|c| {
            assert_eq!(std::thread::current().id(), caller);
            c.fill(7);
        });
        assert_eq!(v, [7, 7]);
        (0..1).into_par_iter().for_each(|_| {
            assert_eq!(std::thread::current().id(), caller);
        });
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

    #[test]
    fn zip_pairs_align() {
        let mut a = vec![1i64; 500];
        let mut b = vec![2i64; 500];
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .for_each(|(x, y)| std::mem::swap(x, y));
        assert!(a.iter().all(|&x| x == 2) && b.iter().all(|&y| y == 1));
    }

    #[test]
    fn range_for_each_visits_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        (0..777).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 777);
    }
}
