//! A PRTE-like distributed virtual machine (DVM).
//!
//! QFw relies on PRTE in DVM mode for "rapid process spawning and
//! low-latency coordination across distributed nodes" (Section 2.1): the DVM
//! is brought up once, identified by a URI shared with every component, and
//! then parallel jobs are launched into it repeatedly without paying
//! scheduler latency. This module reproduces those semantics with rank
//! threads: [`Dvm::spawn`] places `n` ranks onto the cores of a SLURM
//! [`Allocation`], wires them into a
//! [`Communicator`], and returns a [`JobHandle`]
//! whose `wait` collects per-rank results in rank order.

use crate::comm::{Communicator, RankCtx};
use crate::slurm::Allocation;
use crate::topology::{ClusterSpec, CoreId};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

static DVM_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A running distributed virtual machine bound to one cluster.
pub struct Dvm {
    cluster: ClusterSpec,
    uri: String,
    jobs_launched: AtomicU64,
}

impl Dvm {
    /// Boots a DVM over the cluster and mints its URI.
    pub fn new(cluster: &ClusterSpec) -> Dvm {
        let id = DVM_COUNTER.fetch_add(1, Ordering::Relaxed);
        Dvm {
            cluster: cluster.clone(),
            uri: format!("prte-dvm://qfw/{id}"),
            jobs_launched: AtomicU64::new(0),
        }
    }

    /// The URI shared with every QFw component (Fig. 1, step-2).
    pub fn uri(&self) -> &str {
        &self.uri
    }

    /// The cluster this DVM spans.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Number of parallel jobs launched so far.
    pub fn jobs_launched(&self) -> u64 {
        self.jobs_launched.load(Ordering::Relaxed)
    }

    /// Launches an `n`-rank parallel job onto the cores of `alloc`
    /// (round-robin when `n` exceeds the core count — MPI-style
    /// oversubscription). Each rank thread runs `f(ctx)`.
    pub fn spawn<R, F>(&self, alloc: &Allocation, n: usize, f: F) -> JobHandle<R>
    where
        R: Send + 'static,
        F: Fn(RankCtx) -> R + Send + Sync + 'static,
    {
        assert!(n > 0, "cannot spawn a zero-rank job");
        assert!(!alloc.is_empty(), "cannot spawn onto an empty allocation");
        let placement: Vec<CoreId> = (0..n).map(|i| alloc.cores()[i % alloc.len()]).collect();
        self.spawn_placed(placement, f)
    }

    /// Launches a job with an explicit rank-to-core placement.
    pub fn spawn_placed<R, F>(&self, placement: Vec<CoreId>, f: F) -> JobHandle<R>
    where
        R: Send + 'static,
        F: Fn(RankCtx) -> R + Send + Sync + 'static,
    {
        self.jobs_launched.fetch_add(1, Ordering::Relaxed);
        let ctxs = Communicator::create(
            placement,
            self.cluster.node,
            self.cluster.interconnect,
        );
        let f = Arc::new(f);
        let threads: Vec<_> = ctxs
            .into_iter()
            .map(|ctx| {
                let f = Arc::clone(&f);
                let rank = ctx.rank();
                thread::Builder::new()
                    .name(format!("qfw-rank-{rank}"))
                    .spawn(move || catch_unwind(AssertUnwindSafe(|| f(ctx))))
                    .expect("failed to spawn rank thread")
            })
            .collect();
        JobHandle { threads }
    }
}

/// Handle to a running parallel job.
pub struct JobHandle<R> {
    threads: Vec<thread::JoinHandle<std::thread::Result<R>>>,
}

impl<R> JobHandle<R> {
    /// Blocks until every rank finishes and returns results in rank order.
    /// A panic on any rank is re-raised here (after all ranks are joined, so
    /// no threads leak).
    pub fn wait(self) -> Vec<R> {
        let outcomes: Vec<_> = self
            .threads
            .into_iter()
            .map(|t| t.join().expect("rank thread was killed"))
            .collect();
        let mut results = Vec::with_capacity(outcomes.len());
        let mut panic_payload = None;
        for outcome in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(p) => panic_payload = Some(p),
            }
        }
        if let Some(p) = panic_payload {
            resume_unwind(p);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slurm::{HetJob, HetJobSpec};

    fn setup() -> (ClusterSpec, HetJob) {
        let cluster = ClusterSpec::test(3);
        let job = HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap();
        (cluster, job)
    }

    #[test]
    fn uri_is_unique_per_dvm() {
        let (cluster, _) = setup();
        let a = Dvm::new(&cluster);
        let b = Dvm::new(&cluster);
        assert_ne!(a.uri(), b.uri());
        assert!(a.uri().starts_with("prte-dvm://"));
    }

    #[test]
    fn spawn_runs_all_ranks_with_working_comm() {
        let (cluster, job) = setup();
        let dvm = Dvm::new(&cluster);
        let alloc = job.allocate_cores(1, 8).unwrap();
        let results = dvm
            .spawn(&alloc, 8, |mut ctx| ctx.allreduce_sum(ctx.rank() as f64))
            .wait();
        assert_eq!(results.len(), 8);
        assert!(results.iter().all(|&s| s == 28.0));
        assert_eq!(dvm.jobs_launched(), 1);
    }

    #[test]
    fn results_come_back_in_rank_order() {
        let (cluster, job) = setup();
        let dvm = Dvm::new(&cluster);
        let alloc = job.allocate_cores(1, 4).unwrap();
        let results = dvm.spawn(&alloc, 4, |ctx| ctx.rank() * 100).wait();
        assert_eq!(results, vec![0, 100, 200, 300]);
    }

    #[test]
    fn oversubscription_wraps_placement() {
        let (cluster, job) = setup();
        let dvm = Dvm::new(&cluster);
        let alloc = job.allocate_cores(1, 2).unwrap();
        let cores = alloc.cores().to_vec();
        let results = dvm.spawn(&alloc, 5, |ctx| ctx.placement()).wait();
        assert_eq!(results[0], cores[0]);
        assert_eq!(results[1], cores[1]);
        assert_eq!(results[2], cores[0]);
        assert_eq!(results[4], cores[0]);
    }

    #[test]
    #[should_panic(expected = "deliberate rank failure")]
    fn rank_panic_propagates_from_wait() {
        let (cluster, job) = setup();
        let dvm = Dvm::new(&cluster);
        let alloc = job.allocate_cores(1, 2).unwrap();
        dvm.spawn(&alloc, 2, |ctx| {
            if ctx.rank() == 1 {
                panic!("deliberate rank failure");
            }
            ctx.rank()
        })
        .wait();
    }

    #[test]
    fn sequential_jobs_reuse_the_dvm() {
        let (cluster, job) = setup();
        let dvm = Dvm::new(&cluster);
        let alloc = job.allocate_cores(1, 4).unwrap();
        for expected in 1..=3u64 {
            let r = dvm.spawn(&alloc, 4, |ctx| ctx.size()).wait();
            assert!(r.iter().all(|&s| s == 4));
            assert_eq!(dvm.jobs_launched(), expected);
        }
    }
}
