//! The weighted fair queue: deficit round-robin across tenants, strict
//! priority classes within a tenant, EDF tie-break within a class, and
//! admission control at the push boundary.
//!
//! The structure is deliberately pure — no clocks, no threads, no I/O —
//! so fairness invariants are directly proptestable: callers supply
//! timestamps and the queue's behaviour is a deterministic function of
//! the push/pop sequence.
//!
//! ## Deficit round-robin
//!
//! Active tenants (≥ 1 queued job) rotate through a deque. When a tenant
//! reaches the head it banks one quantum — its configured weight — into
//! its deficit counter, then serves jobs at one deficit unit each until
//! the deficit drops below one, at which point the rotation moves on.
//! Over any window of full rotations, tenant service counts are
//! proportional to weights, within one quantum per tenant. A tenant that
//! drains keeps its *debt* (negative deficit, incurred by batching) but
//! forfeits accumulated credit, so idle periods cannot be hoarded.
//!
//! ## Batching debt
//!
//! [`FairQueue::pop_batch_mates`] lets the dispatcher coalesce
//! identical-skeleton jobs of the tenant it just served into one engine
//! invocation. Every coalesced job is still charged one deficit unit —
//! the deficit may go negative — so a tenant cannot convert batching
//! into extra scheduling share: the debt is repaid before its next
//! quantum serves anything.

use crate::batch::skeleton_hash;
use crate::{CacheFill, JobId, Priority};
use qfw::ResolvedJob;
use qfw_circuit::ContentHash;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Number of strict priority classes (see [`crate::Priority`]).
pub const CLASSES: usize = 3;

/// A job admitted into the fair queue: whose it is, and the admitted job
/// itself — the parsed circuit and its plan, no wire strings.
pub struct QueuedJob {
    /// Scheduler-assigned id.
    pub id: JobId,
    /// Submitting tenant (fair-share accounting key).
    pub tenant: String,
    /// Priority class within the tenant.
    pub priority: Priority,
    /// What the QRC will run.
    pub job: ResolvedJob,
    /// Absolute deadline (scheduler epoch, µs); `u64::MAX` when none.
    pub deadline_us: u64,
    /// Batching key (see [`crate::batch::skeleton_hash`]).
    pub skeleton: ContentHash,
    /// Who else gets the result if the job finishes `Done` (set by
    /// [`crate::Scheduler::enqueue`]); dropped unused with a cancelled job.
    pub on_done: Option<CacheFill>,
    /// Queue-assigned FIFO sequence, set on push.
    seq: u64,
}

impl QueuedJob {
    /// Builds a job ready for [`FairQueue::try_push`].
    pub fn new(
        id: JobId,
        tenant: String,
        priority: Priority,
        job: ResolvedJob,
        deadline_us: u64,
    ) -> Self {
        QueuedJob {
            id,
            tenant,
            priority,
            skeleton: skeleton_hash(&job),
            on_done: None,
            job,
            deadline_us,
            seq: 0,
        }
    }
}

/// Why a submission was refused admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The global queue-depth bound is hit.
    QueueFull,
    /// The submitting tenant's quota is hit.
    TenantQuota,
}

struct TenantState {
    weight: u32,
    quota: usize,
    queued: usize,
    deficit: f64,
    /// Whether the quantum was already banked for the current head visit.
    topped_up: bool,
    /// EDF-ordered jobs per priority class, keyed `(deadline_us, seq)` so
    /// equal deadlines fall back to FIFO order.
    classes: [BTreeMap<(u64, u64), QueuedJob>; CLASSES],
}

impl TenantState {
    fn new(weight: u32, quota: usize) -> Self {
        TenantState {
            weight: weight.max(1),
            quota,
            queued: 0,
            deficit: 0.0,
            topped_up: false,
            classes: Default::default(),
        }
    }

    /// Pops the most urgent job: lowest non-empty class, earliest
    /// deadline, earliest arrival.
    fn pop_best(&mut self) -> Option<QueuedJob> {
        for class in &mut self.classes {
            if let Some(key) = class.keys().next().copied() {
                return class.remove(&key);
            }
        }
        None
    }

    /// On drain: forfeit credit, keep batching debt, reset visit state.
    fn drained(&mut self) {
        self.topped_up = false;
        self.deficit = self.deficit.min(0.0);
    }
}

/// The multi-tenant fair queue. Single-threaded by design; the scheduler
/// guards it with its state mutex.
pub struct FairQueue {
    tenants: HashMap<String, TenantState>,
    /// Rotation order over tenants with queued work.
    active: VecDeque<String>,
    depth: usize,
    max_depth: usize,
    default_weight: u32,
    default_quota: usize,
    seq: u64,
    /// Job id → (tenant, class, map key), for O(log n) cancel.
    index: HashMap<JobId, (String, usize, (u64, u64))>,
}

impl FairQueue {
    /// Builds an empty queue with a global depth bound and defaults for
    /// tenants not explicitly configured.
    pub fn new(max_depth: usize, default_weight: u32, default_quota: usize) -> Self {
        FairQueue {
            tenants: HashMap::new(),
            active: VecDeque::new(),
            depth: 0,
            max_depth: max_depth.max(1),
            default_weight: default_weight.max(1),
            default_quota: default_quota.max(1),
            seq: 0,
            index: HashMap::new(),
        }
    }

    /// Configures (or re-configures) a tenant's weight and quota.
    pub fn set_tenant(&mut self, name: &str, weight: u32, quota: usize) {
        let (dw, dq) = (self.default_weight, self.default_quota);
        let t = self
            .tenants
            .entry(name.to_string())
            .or_insert_with(|| TenantState::new(dw, dq));
        t.weight = weight.max(1);
        t.quota = quota.max(1);
    }

    /// Jobs currently queued across all tenants.
    pub fn len(&self) -> usize {
        self.depth
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Jobs currently queued for one tenant.
    pub fn tenant_depth(&self, name: &str) -> usize {
        self.tenants.get(name).map_or(0, |t| t.queued)
    }

    /// Admits a job or rejects it at the admission boundary — never
    /// blocks. Checks the global bound first, then the tenant quota.
    pub fn try_push(&mut self, mut job: QueuedJob) -> Result<(), AdmitError> {
        if self.depth >= self.max_depth {
            return Err(AdmitError::QueueFull);
        }
        let (dw, dq) = (self.default_weight, self.default_quota);
        let tenant = job.tenant.clone();
        let t = self
            .tenants
            .entry(tenant.clone())
            .or_insert_with(|| TenantState::new(dw, dq));
        if t.queued >= t.quota {
            return Err(AdmitError::TenantQuota);
        }
        job.seq = self.seq;
        self.seq += 1;
        let class = job.priority.class();
        let key = (job.deadline_us, job.seq);
        let id = job.id;
        let was_empty = t.queued == 0;
        t.classes[class].insert(key, job);
        t.queued += 1;
        self.depth += 1;
        self.index.insert(id, (tenant.clone(), class, key));
        if was_empty {
            self.active.push_back(tenant);
        }
        Ok(())
    }

    /// Pops the next job under deficit round-robin. `None` iff empty.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        loop {
            let tenant = self.active.front()?.clone();
            let t = self
                .tenants
                .get_mut(&tenant)
                .expect("active tenant has state");
            if !t.topped_up {
                t.deficit += f64::from(t.weight);
                t.topped_up = true;
            }
            if t.deficit >= 1.0 {
                t.deficit -= 1.0;
                let job = t.pop_best().expect("active tenant has queued jobs");
                t.queued -= 1;
                self.depth -= 1;
                self.index.remove(&job.id);
                if t.queued == 0 {
                    t.drained();
                    self.active.pop_front();
                }
                return Some(job);
            }
            // Quantum exhausted (or repaying batch debt): move on. The
            // next visit banks another quantum, so even a deep debt is
            // repaid in finitely many rotations.
            t.topped_up = false;
            self.active.rotate_left(1);
        }
    }

    /// Removes up to `max` additional jobs of `tenant` in `class` that
    /// share `skeleton`, in EDF order — the dispatcher coalesces them
    /// with the job just popped. Each removed job is charged one deficit
    /// unit (the deficit may go negative), so batching never buys extra
    /// scheduling share.
    pub fn pop_batch_mates(
        &mut self,
        tenant: &str,
        class: usize,
        skeleton: ContentHash,
        max: usize,
    ) -> Vec<QueuedJob> {
        let Some(t) = self.tenants.get_mut(tenant) else {
            return Vec::new();
        };
        let keys: Vec<(u64, u64)> = t.classes[class]
            .iter()
            .filter(|(_, job)| job.skeleton == skeleton)
            .take(max)
            .map(|(key, _)| *key)
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let job = t.classes[class].remove(&key).expect("key just listed");
            self.index.remove(&job.id);
            t.queued -= 1;
            self.depth -= 1;
            t.deficit -= 1.0;
            out.push(job);
        }
        if t.queued == 0 && !out.is_empty() {
            t.drained();
            self.active.retain(|name| name != tenant);
        }
        out
    }

    /// Removes a queued job by id (cancel path). `None` when the job is
    /// not queued (already dispatched, finished, or never admitted).
    pub fn remove(&mut self, id: JobId) -> Option<QueuedJob> {
        let (tenant, class, key) = self.index.remove(&id)?;
        let t = self.tenants.get_mut(&tenant)?;
        let job = t.classes[class].remove(&key)?;
        t.queued -= 1;
        self.depth -= 1;
        if t.queued == 0 {
            t.drained();
            self.active.retain(|name| name != &tenant);
        }
        Some(job)
    }

    /// Drains every queued job (shutdown path), in no particular order.
    pub fn drain_all(&mut self) -> Vec<QueuedJob> {
        let mut out = Vec::with_capacity(self.depth);
        for t in self.tenants.values_mut() {
            for class in &mut t.classes {
                out.extend(std::mem::take(class).into_values());
            }
            t.queued = 0;
            t.deficit = 0.0;
            t.topped_up = false;
        }
        self.active.clear();
        self.index.clear();
        self.depth = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw::{BackendSpec, GroupCores, Source};

    /// One circuit and spec throughout: every job shares a skeleton.
    fn admitted() -> ResolvedJob {
        let (spec, group) = (
            BackendSpec::of("aer", "statevector"),
            GroupCores {
                total: 8,
                per_llc: 4,
            },
        );
        ResolvedJob::admit(Source::Wire("qfwasm 1\nqubits 1\nh q0\n"), 100, 0, &spec, group)
            .unwrap()
    }

    fn job(id: JobId, tenant: &str) -> QueuedJob {
        job_pc(id, tenant, Priority::Normal, u64::MAX)
    }

    fn job_pc(id: JobId, tenant: &str, p: Priority, deadline_us: u64) -> QueuedJob {
        QueuedJob::new(id, tenant.into(), p, admitted(), deadline_us)
    }

    #[test]
    fn drr_serves_in_weight_proportion() {
        let mut q = FairQueue::new(1024, 1, 1024);
        q.set_tenant("a", 1, 1024);
        q.set_tenant("b", 2, 1024);
        q.set_tenant("c", 4, 1024);
        let mut id = 0;
        for tenant in ["a", "b", "c"] {
            for _ in 0..28 {
                q.try_push(job(id, tenant)).unwrap();
                id += 1;
            }
        }
        // First full rotation: 1×a, 2×b, 4×c.
        let order: Vec<String> = (0..7).map(|_| q.pop().unwrap().tenant).collect();
        assert_eq!(order, ["a", "b", "b", "c", "c", "c", "c"]);
        // Over 4 rotations the counts match the weights exactly.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..21 {
            *counts.entry(q.pop().unwrap().tenant).or_insert(0) += 1;
        }
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 6);
        assert_eq!(counts["c"], 12);
    }

    #[test]
    fn strict_priority_within_tenant() {
        let mut q = FairQueue::new(64, 1, 64);
        q.try_push(job_pc(0, "t", Priority::Low, u64::MAX)).unwrap();
        q.try_push(job_pc(1, "t", Priority::High, u64::MAX)).unwrap();
        q.try_push(job_pc(2, "t", Priority::Normal, u64::MAX)).unwrap();
        q.try_push(job_pc(3, "t", Priority::High, u64::MAX)).unwrap();
        let order: Vec<JobId> = (0..4).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, [1, 3, 2, 0]);
    }

    #[test]
    fn edf_breaks_ties_within_class() {
        let mut q = FairQueue::new(64, 1, 64);
        q.try_push(job_pc(0, "t", Priority::Normal, u64::MAX)).unwrap();
        q.try_push(job_pc(1, "t", Priority::Normal, 5_000)).unwrap();
        q.try_push(job_pc(2, "t", Priority::Normal, 1_000)).unwrap();
        let order: Vec<JobId> = (0..3).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, [2, 1, 0], "earliest deadline first, no-deadline last");
    }

    #[test]
    fn admission_bounds_enforced() {
        let mut q = FairQueue::new(3, 1, 2);
        assert!(q.try_push(job(0, "a")).is_ok());
        assert!(q.try_push(job(1, "a")).is_ok());
        assert_eq!(q.try_push(job(2, "a")).unwrap_err(), AdmitError::TenantQuota);
        assert!(q.try_push(job(3, "b")).is_ok());
        assert_eq!(q.try_push(job(4, "c")).unwrap_err(), AdmitError::QueueFull);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn remove_supports_cancel() {
        let mut q = FairQueue::new(64, 1, 64);
        q.try_push(job(7, "t")).unwrap();
        q.try_push(job(8, "t")).unwrap();
        assert_eq!(q.remove(7).unwrap().id, 7);
        assert!(q.remove(7).is_none());
        assert_eq!(q.pop().unwrap().id, 8);
        assert!(q.pop().is_none());
    }

    #[test]
    fn batch_mates_incur_deficit_debt() {
        let mut q = FairQueue::new(64, 1, 64);
        q.set_tenant("a", 1, 64);
        q.set_tenant("b", 1, 64);
        for i in 0..4 {
            q.try_push(job(i, "a")).unwrap();
        }
        for i in 4..8 {
            q.try_push(job(i, "b")).unwrap();
        }
        let first = q.pop().unwrap();
        assert_eq!(first.tenant, "a");
        let mates = q.pop_batch_mates("a", Priority::Normal.class(), first.skeleton, 3);
        assert_eq!(mates.len(), 3, "all of a's remaining jobs coalesce");
        // a effectively consumed 4 service units on a weight-1 quantum:
        // b must now be served 4 times before a would be again (debt).
        let order: Vec<String> = (0..4).map(|_| q.pop().unwrap().tenant).collect();
        assert_eq!(order, ["b", "b", "b", "b"]);
    }

    #[test]
    fn drained_tenant_forfeits_credit() {
        let mut q = FairQueue::new(64, 1, 64);
        q.set_tenant("a", 8, 64);
        q.try_push(job(0, "a")).unwrap();
        // Weight 8, one job: serving it leaves 7 credit, which drain wipes.
        assert_eq!(q.pop().unwrap().id, 0);
        for i in 1..=12 {
            q.try_push(job(i, "a")).unwrap();
        }
        q.try_push(job(13, "b")).unwrap();
        // A fresh quantum serves exactly 8 before the rotation reaches b;
        // hoarded credit (7 + 8) would have let a burst all 12 straight.
        let order: Vec<String> = (0..13).map(|_| q.pop().unwrap().tenant).collect();
        assert!(order[..8].iter().all(|t| t == "a"));
        assert_eq!(order[8], "b");
        assert!(order[9..].iter().all(|t| t == "a"));
    }
}
