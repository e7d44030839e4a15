//! SLURM-like heterogeneous job allocation.
//!
//! The paper launches every experiment as one SLURM job with two
//! heterogeneous groups: `hetgroup-0` carries the application's classical
//! control logic and `hetgroup-1` carries QFw services plus simulator
//! workers (Fig. 1, step-1). This module reproduces that allocation model:
//! a [`HetJob`] partitions cluster nodes into disjoint groups, and each
//! group leases cores through an [`Allocation`] that enforces the
//! no-oversubscription invariant.

use crate::topology::{ClusterSpec, CoreId};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requested shape of a heterogeneous job: node counts per group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HetJobSpec {
    /// Number of nodes requested by each heterogeneous group, in order.
    pub group_nodes: Vec<usize>,
}

impl HetJobSpec {
    /// The paper's standard shape: one application node (`hetgroup-0`) and
    /// `qfw_nodes` service/worker nodes (`hetgroup-1`).
    pub fn qfw_standard(qfw_nodes: usize) -> Self {
        HetJobSpec {
            group_nodes: vec![1, qfw_nodes],
        }
    }
}

/// Errors from allocation requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The cluster does not have enough nodes for the requested groups.
    InsufficientNodes {
        /// Nodes requested across all groups.
        requested: usize,
        /// Nodes the cluster has.
        available: usize,
    },
    /// A group ran out of free cores.
    InsufficientCores {
        /// Group that failed.
        group: usize,
        /// Cores requested.
        requested: usize,
        /// Cores currently free in the group.
        free: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::InsufficientNodes {
                requested,
                available,
            } => write!(
                f,
                "heterogeneous job requests {requested} nodes but the cluster has {available}"
            ),
            AllocError::InsufficientCores {
                group,
                requested,
                free,
            } => write!(
                f,
                "hetgroup-{group} asked for {requested} cores but only {free} are free"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// One group's application cores: the free set, how many there are in
/// all, and the condvar a returning lease signals when `waiting` says
/// someone is blocked on it — an uncontended lease or release is one lock.
struct Pool {
    free: Mutex<BTreeSet<CoreId>>,
    capacity: usize,
    /// Threads inside [`HetJob::lease_cores`]'s wait; written under `free`.
    waiting: AtomicUsize,
    released: Condvar,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pool({}/{} free)", self.free.lock().len(), self.capacity)
    }
}

impl Pool {
    /// Takes `n` cores out of a free set that has them, densely packed:
    /// `BTreeSet` iterates in (node, core) order.
    fn take(self: &Arc<Pool>, free: &mut BTreeSet<CoreId>, group: usize, n: usize) -> Allocation {
        let cores: Vec<CoreId> = free.iter().take(n).copied().collect();
        for c in &cores {
            free.remove(c);
        }
        Allocation {
            group,
            cores,
            pool: Arc::clone(self),
        }
    }
}

/// A granted heterogeneous job: disjoint node groups carved from a cluster.
#[derive(Debug)]
pub struct HetJob {
    cluster: ClusterSpec,
    groups: Vec<Vec<usize>>, // node indices per group
    /// Application cores per group, shared with leases for release.
    pools: Vec<Arc<Pool>>,
}

impl HetJob {
    /// Submits a heterogeneous job against the cluster, assigning node
    /// ranges first-fit in group order (group 0 gets the lowest-numbered
    /// nodes, exactly like contiguous SLURM placement).
    pub fn submit(cluster: &ClusterSpec, spec: &HetJobSpec) -> Result<HetJob, AllocError> {
        let requested: usize = spec.group_nodes.iter().sum();
        if requested > cluster.nodes {
            return Err(AllocError::InsufficientNodes {
                requested,
                available: cluster.nodes,
            });
        }
        let mut groups = Vec::with_capacity(spec.group_nodes.len());
        let mut next = 0usize;
        for &count in &spec.group_nodes {
            groups.push((next..next + count).collect::<Vec<_>>());
            next += count;
        }
        let pools = groups
            .iter()
            .map(|nodes| {
                let cores: BTreeSet<CoreId> = nodes
                    .iter()
                    .flat_map(|&n| cluster.app_cores_of(n))
                    .collect();
                Arc::new(Pool {
                    capacity: cores.len(),
                    free: Mutex::new(cores),
                    waiting: AtomicUsize::new(0),
                    released: Condvar::new(),
                })
            })
            .collect();
        Ok(HetJob {
            cluster: cluster.clone(),
            groups,
            pools,
        })
    }

    /// The cluster this job runs on.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Number of heterogeneous groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Node indices owned by a group.
    pub fn nodes_of(&self, group: usize) -> &[usize] {
        &self.groups[group]
    }

    /// The lead node of a group — where the paper starts QPM services.
    pub fn lead_node(&self, group: usize) -> usize {
        self.groups[group][0]
    }

    /// Free application cores currently available in a group.
    pub fn free_cores(&self, group: usize) -> usize {
        self.pools[group].free.lock().len()
    }

    /// Leases `n` cores from a group, preferring to pack whole LLC domains
    /// on the lowest-numbered nodes (round-robin within a node would spread
    /// cache pressure; the paper packs workers densely).
    pub fn allocate_cores(&self, group: usize, n: usize) -> Result<Allocation, AllocError> {
        let pool = &self.pools[group];
        let mut free = pool.free.lock();
        if free.len() < n {
            return Err(AllocError::InsufficientCores {
                group,
                requested: n,
                free: free.len(),
            });
        }
        Ok(pool.take(&mut free, group, n))
    }

    /// [`HetJob::allocate_cores`] that waits, up to `timeout`, for other
    /// leases to return the cores it lacks; a dropped [`Allocation`] wakes
    /// it. A width the whole group does not have fails at once.
    pub fn lease_cores(
        &self,
        group: usize,
        n: usize,
        timeout: Duration,
    ) -> Result<Allocation, AllocError> {
        let pool = &self.pools[group];
        let deadline = Instant::now() + timeout;
        let mut free = pool.free.lock();
        while free.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if n > pool.capacity || left.is_zero() {
                return Err(AllocError::InsufficientCores {
                    group,
                    requested: n,
                    free: free.len(),
                });
            }
            // Counted under the lock a release holds while it reads the
            // count, so no release can miss this waiter.
            pool.waiting.fetch_add(1, Ordering::Relaxed);
            pool.released.wait_for(&mut free, left);
            pool.waiting.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(pool.take(&mut free, group, n))
    }
}

/// A lease of specific cores within one heterogeneous group. Cores return to
/// the free pool when the allocation is dropped (the paper's step-13
/// teardown releasing worker allocations).
#[derive(Debug)]
pub struct Allocation {
    group: usize,
    cores: Vec<CoreId>,
    pool: Arc<Pool>,
}

impl Allocation {
    /// The heterogeneous group this lease came from.
    pub fn group(&self) -> usize {
        self.group
    }

    /// The leased cores.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Number of leased cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True when the lease is empty.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Number of distinct nodes spanned.
    pub fn node_span(&self) -> usize {
        let nodes: BTreeSet<usize> = self.cores.iter().map(|c| c.node).collect();
        nodes.len()
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        let mut free = self.pool.free.lock();
        free.extend(self.cores.drain(..));
        let waiting = self.pool.waiting.load(Ordering::Relaxed);
        drop(free);
        if waiting > 0 {
            // Waiters want different widths: let each look.
            self.pool.released.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> HetJob {
        let cluster = ClusterSpec::test(4);
        HetJob::submit(&cluster, &HetJobSpec::qfw_standard(3)).unwrap()
    }

    #[test]
    fn groups_are_disjoint_and_ordered() {
        let j = job();
        assert_eq!(j.num_groups(), 2);
        assert_eq!(j.nodes_of(0), &[0]);
        assert_eq!(j.nodes_of(1), &[1, 2, 3]);
        assert_eq!(j.lead_node(1), 1);
    }

    #[test]
    fn rejects_oversized_jobs() {
        let cluster = ClusterSpec::test(2);
        let err = HetJob::submit(&cluster, &HetJobSpec::qfw_standard(4)).unwrap_err();
        assert!(matches!(err, AllocError::InsufficientNodes { .. }));
    }

    #[test]
    fn core_accounting_is_exact() {
        let j = job();
        assert_eq!(j.free_cores(1), 3 * 56);
        let a = j.allocate_cores(1, 100).unwrap();
        assert_eq!(a.len(), 100);
        assert_eq!(j.free_cores(1), 3 * 56 - 100);
        drop(a);
        assert_eq!(j.free_cores(1), 3 * 56);
    }

    #[test]
    fn cannot_oversubscribe() {
        let j = job();
        let _a = j.allocate_cores(0, 56).unwrap();
        let err = j.allocate_cores(0, 1).unwrap_err();
        assert!(matches!(
            err,
            AllocError::InsufficientCores {
                group: 0,
                requested: 1,
                free: 0
            }
        ));
    }

    #[test]
    fn leases_do_not_overlap() {
        let j = job();
        let a = j.allocate_cores(1, 60).unwrap();
        let b = j.allocate_cores(1, 60).unwrap();
        let sa: BTreeSet<_> = a.cores().iter().collect();
        assert!(b.cores().iter().all(|c| !sa.contains(c)));
    }

    #[test]
    fn packing_is_dense_lowest_node_first() {
        let j = job();
        let a = j.allocate_cores(1, 56).unwrap();
        assert_eq!(a.node_span(), 1);
        assert!(a.cores().iter().all(|c| c.node == 1));
        let b = j.allocate_cores(1, 10).unwrap();
        assert!(b.cores().iter().all(|c| c.node == 2));
    }

    #[test]
    fn groups_allocate_independently() {
        let j = job();
        let _a = j.allocate_cores(0, 56).unwrap();
        // Group 1 unaffected.
        assert_eq!(j.free_cores(1), 3 * 56);
        assert!(j.allocate_cores(1, 56).is_ok());
    }

    #[test]
    fn blocked_lease_is_woken_by_a_returning_one() {
        let j = Arc::new(job());
        let all = j.allocate_cores(0, 56).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                tx.send(()).unwrap();
                j.lease_cores(0, 8, Duration::from_secs(60)).map(|a| a.len())
            })
        };
        rx.recv().unwrap();
        // Nothing is free, so the lease cannot have been granted yet.
        assert_eq!(j.free_cores(0), 0);
        drop(all);
        assert_eq!(waiter.join().unwrap(), Ok(8));
        assert_eq!(j.free_cores(0), 56);
    }

    #[test]
    fn lease_fails_when_nothing_comes_back_or_ever_could() {
        let j = job();
        let _all = j.allocate_cores(0, 56).unwrap();
        let err = j.lease_cores(0, 1, Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, AllocError::InsufficientCores { requested: 1, free: 0, .. }));
        // Wider than the group: no wait at all, the deadline notwithstanding.
        let start = Instant::now();
        let err = j.lease_cores(1, 3 * 56 + 1, Duration::from_secs(600)).unwrap_err();
        assert!(matches!(err, AllocError::InsufficientCores { group: 1, .. }));
        assert!(start.elapsed() < Duration::from_secs(60));
    }
}
