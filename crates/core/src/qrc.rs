//! QRC — the Quantum Resource Controller.
//!
//! The QRC "schedules and launches quantum tasks across MPI ranks, ensuring
//! efficient utilization of allocated resources" (Section 2.1). Here it
//! owns the worker-slot pool that QPM dispatches into (the paper's
//! "eight worker threads, distributed round-robin"), brokers core leases
//! from the `hetgroup-1` allocation, and hands each Backend-QPM an
//! [`ExecContext`] for DVM rank spawning.
//!
//! Two dispatch policies are provided; `ablation_dispatch` measures the
//! difference under skewed task durations.
//!
//! The pool is **elastic**: `qfw-sched`'s scaling controller calls
//! [`Qrc::grow_slots`] / [`Qrc::shrink_slots`] as sustained queue depth
//! crosses its hysteresis thresholds. Grown slots are backed by real core
//! leases ([`Allocation`]) from the heterogeneous job, so scaling up is
//! bounded by `hetgroup-1`'s free cores and scaling down returns cores to
//! the free pool. [`Qrc::slot_snapshot`] exposes the live/busy/dead counts
//! the scheduler sizes its dispatch window from, and
//! [`Qrc::run_many`] runs a coalesced batch under a single slot
//! acquisition (one *engine invocation*).
//!
//! Every entry point has the same two halves: [`Qrc::admit`] turns a
//! submission into owned jobs ([`crate::plan`]; a sweep is one bound job
//! per point), and [`Qrc::run_many`] executes admitted jobs under one slot
//! ([`Qrc::run`] is `run_many` of one). `execute*` are the two back to
//! back.

use crate::backends::ExecContext;
use crate::error::QfwError;
use crate::plan::{auto_circuit, ExecPlan, GroupCores, ResolvedJob, Source, AUTO};
use crate::planner::SelectorContext;
use crate::registry::BackendRegistry;
use crate::result::QfwResult;
use crate::spec::{BackendSpec, ExecTask, SweepTask};
use parking_lot::{Condvar, Mutex, RwLock};
use qfw_chaos::FaultPlan;
use qfw_hpc::slurm::{Allocation, HetJob};
use qfw_hpc::{Dvm, Stopwatch};
use qfw_obs::{Obs, Span};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How QPM assigns tasks to QRC worker slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Strict rotation over the slots (the paper's policy). A task waits
    /// for *its* slot even when others are free.
    RoundRobin,
    /// Pick the slot with the fewest active tasks. Ties break on the
    /// lowest slot index, so seeded runs replay the same placement.
    LeastLoaded,
}

/// A point-in-time view of the worker pool, used by `qfw-sched` to size
/// its dispatch window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Slots in the pool (live + dead).
    pub total: usize,
    /// Slots marked dead by fault injection.
    pub dead: usize,
    /// Live slots currently running a task.
    pub busy: usize,
}

impl SlotSnapshot {
    /// Slots that can accept work (live, whether busy or idle).
    pub fn live(&self) -> usize {
        self.total - self.dead
    }

    /// Live slots with no task on them right now.
    pub fn free(&self) -> usize {
        self.live().saturating_sub(self.busy)
    }
}

#[derive(Default)]
struct Slot {
    active: Mutex<usize>,
    freed: Condvar,
    tasks_run: AtomicU64,
    /// Set when chaos kills the slot's worker; dead slots are skipped by
    /// dispatch until [`Qrc::revive_slots`] brings them back.
    dead: AtomicBool,
    /// Set when the scaling controller removes the slot from the pool;
    /// waiters re-route like on death, but retired slots never revive.
    retired: AtomicBool,
    /// Core lease backing an elastically-grown slot. Base slots are
    /// provisioned with the session and carry no lease.
    lease: Mutex<Option<Allocation>>,
}

impl Slot {
    fn is_routable(&self) -> bool {
        !self.dead.load(Ordering::Relaxed) && !self.retired.load(Ordering::Relaxed)
    }
}

/// Cores leased per elastically-grown slot.
const CORES_PER_SLOT: usize = 2;

/// An acquired slot, freed for the next dispatcher on drop.
struct HeldSlot(Arc<Slot>);

impl Drop for HeldSlot {
    fn drop(&mut self) {
        *self.0.active.lock() = 0;
        self.0.freed.notify_one();
    }
}

/// The resource controller: worker slots + core leasing + DVM access.
pub struct Qrc {
    registry: BackendRegistry,
    hetjob: Arc<HetJob>,
    dvm: Arc<Dvm>,
    group: usize,
    slots: RwLock<Vec<Arc<Slot>>>,
    /// Slots the pool was built with; [`Qrc::shrink_slots`] never goes below.
    base_workers: usize,
    next: AtomicUsize,
    policy: DispatchPolicy,
    chaos: Arc<FaultPlan>,
    obs: Obs,
    requeues: AtomicU64,
    /// Engine invocations: slot-held backend dispatches. A coalesced batch
    /// through [`Qrc::run_many`] counts once.
    invocations: AtomicU64,
    /// Dispatchers currently waiting in slot acquisition.
    waiting: AtomicUsize,
    /// Cost-model planner behind `backend="auto"`. Lives on the controller
    /// so its online EWMA corrections accumulate across dispatches: every
    /// successful auto execution feeds measured runtime back via
    /// [`crate::planner::Planner::observe`].
    planner: crate::planner::Planner,
}

impl Qrc {
    /// Builds a controller with `workers` slots over the given hetgroup.
    pub fn new(
        registry: BackendRegistry,
        hetjob: Arc<HetJob>,
        dvm: Arc<Dvm>,
        group: usize,
        workers: usize,
        policy: DispatchPolicy,
    ) -> Self {
        assert!(workers >= 1, "QRC needs at least one worker slot");
        Qrc {
            registry,
            hetjob,
            dvm,
            group,
            slots: RwLock::new((0..workers).map(|_| Arc::new(Slot::default())).collect()),
            base_workers: workers,
            next: AtomicUsize::new(0),
            policy,
            chaos: Arc::new(FaultPlan::disabled()),
            obs: Obs::disabled(),
            requeues: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
            waiting: AtomicUsize::new(0),
            planner: crate::planner::Planner::default(),
        }
    }

    /// Attaches a fault plan. The `qrc.slot_death` site is consulted once
    /// per dispatch: when it fires, the slot the task landed on dies and
    /// the task is requeued onto a surviving slot. The `qrc.engine_panic`
    /// site is consulted once per held slot: when it fires, the dispatch
    /// panics where an engine would.
    pub fn with_chaos(mut self, chaos: Arc<FaultPlan>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Attaches an observability handle: slot acquire/execute/requeue
    /// lifecycle lands in the trace as `qrc.*` spans and events, and the
    /// pool state is mirrored into `qrc.slots.*` gauges on every execute.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.slots.read().len()
    }

    /// The pool size the controller was built with (the scaling floor).
    pub fn base_workers(&self) -> usize {
        self.base_workers
    }

    /// Tasks executed per slot (diagnostics).
    pub fn tasks_per_slot(&self) -> Vec<u64> {
        self.slots
            .read()
            .iter()
            .map(|s| s.tasks_run.load(Ordering::Relaxed))
            .collect()
    }

    /// Slots currently marked dead.
    pub fn dead_slots(&self) -> usize {
        self.slots
            .read()
            .iter()
            .filter(|s| s.dead.load(Ordering::Relaxed))
            .count()
    }

    /// Tasks that had to be re-dispatched after their slot died.
    pub fn requeues(&self) -> u64 {
        self.requeues.load(Ordering::Relaxed)
    }

    /// Engine invocations so far: each slot-held backend dispatch counts
    /// one; a [`Qrc::run_many`] batch counts one for the whole batch.
    pub fn engine_invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// A point-in-time view of the pool for dispatch-window sizing.
    pub fn slot_snapshot(&self) -> SlotSnapshot {
        let slots = self.slots.read();
        let mut snap = SlotSnapshot {
            total: slots.len(),
            ..SlotSnapshot::default()
        };
        for s in slots.iter() {
            if s.dead.load(Ordering::Relaxed) {
                snap.dead += 1;
            } else if *s.active.lock() > 0 {
                snap.busy += 1;
            }
        }
        snap
    }

    /// Grows the pool by up to `n` slots, each backed by a fresh core
    /// lease from the hetgroup. Returns how many slots were added; errors
    /// only when not even one lease could be obtained.
    pub fn grow_slots(&self, n: usize) -> Result<usize, QfwError> {
        let mut added = 0;
        for _ in 0..n {
            match self.hetjob.allocate_cores(self.group, CORES_PER_SLOT) {
                Ok(lease) => {
                    let slot = Arc::new(Slot::default());
                    *slot.lease.lock() = Some(lease);
                    self.slots.write().push(slot);
                    added += 1;
                }
                Err(e) if added == 0 => return Err(QfwError::Resources(e.to_string())),
                Err(_) => break,
            }
        }
        self.refresh_slot_gauges();
        Ok(added)
    }

    /// Shrinks the pool by up to `n` slots, never below the base size.
    /// Only idle, live slots are removed (busy slots finish their task and
    /// survive); removed slots drop their core leases back to the free
    /// pool. Returns how many were removed.
    pub fn shrink_slots(&self, n: usize) -> usize {
        let mut removed = 0;
        let mut slots = self.slots.write();
        let mut i = slots.len();
        while removed < n && slots.len() > self.base_workers && i > 0 {
            i -= 1;
            let slot = Arc::clone(&slots[i]);
            let active = slot.active.lock();
            if *active == 0 && slot.is_routable() {
                slot.retired.store(true, Ordering::Relaxed);
                // Anyone parked on this slot re-routes.
                slot.freed.notify_all();
                drop(active);
                let gone = slots.remove(i);
                // Returns the lease's cores to hetgroup-1's free pool.
                drop(gone.lease.lock().take());
                removed += 1;
            }
        }
        drop(slots);
        if removed > 0 {
            self.refresh_slot_gauges();
        }
        removed
    }

    /// Revives every dead slot (the operator restarting workers); returns
    /// how many came back.
    pub fn revive_slots(&self) -> usize {
        let mut revived = 0;
        for slot in self.slots.read().iter() {
            if slot.dead.swap(false, Ordering::Relaxed) {
                revived += 1;
            }
        }
        revived
    }

    /// Mirrors the pool state into gauges: `qrc.slots.total/dead/busy`,
    /// `qrc.queue_depth` (dispatchers waiting for a slot), and the
    /// per-slot task spread `qrc.slots.tasks_spread` (max − min tasks run,
    /// the balance signal). Refreshed on every execute, so exported
    /// metrics always reflect what the scheduler's scaling decisions saw.
    fn refresh_slot_gauges(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        let snap = self.slot_snapshot();
        self.obs.gauge("qrc.slots.total").set(snap.total as f64);
        self.obs.gauge("qrc.slots.dead").set(snap.dead as f64);
        self.obs.gauge("qrc.slots.busy").set(snap.busy as f64);
        self.obs
            .gauge("qrc.queue_depth")
            .set(self.waiting.load(Ordering::Relaxed) as f64);
        let tasks = self.tasks_per_slot();
        let spread = match (tasks.iter().max(), tasks.iter().min()) {
            (Some(max), Some(min)) => (max - min) as f64,
            _ => 0.0,
        };
        self.obs.gauge("qrc.slots.tasks_spread").set(spread);
    }

    /// Admits one job against this controller's worker group and backend
    /// registry ([`ResolvedJob::admit`]): what [`Qrc::run`] will execute, or
    /// why nothing ever will. The scheduler and its ingress call this at
    /// submit, so an unrunnable job is refused before a queue entry exists.
    pub fn admit(
        &self,
        source: Source<'_>,
        shots: usize,
        seed: u64,
        spec: &BackendSpec,
    ) -> Result<ResolvedJob, QfwError> {
        let job = ResolvedJob::admit(source, shots, seed, spec, self.group_cores())?;
        self.registered(&job.plan)?;
        Ok(job)
    }

    fn group_cores(&self) -> GroupCores {
        GroupCores::of(&self.hetjob, self.group)
    }

    /// The plan's backend has an adapter here (`auto` needs none of its own).
    fn registered(&self, plan: &ExecPlan) -> Result<(), QfwError> {
        if plan.backend != AUTO {
            self.registry.get(plan.backend)?;
        }
        Ok(())
    }

    /// Holds one worker slot around `run`: acquisition (with chaos
    /// requeues), the [`ExecContext`], one engine invocation, release, the
    /// `qrc.*` accounting for `n_tasks` tasks, and the queueing time
    /// stamped on every result. `run` gets the `qrc.execute` span to
    /// annotate.
    fn with_slot(
        &self,
        n_tasks: u64,
        run: impl FnOnce(&ExecContext<'_>, &mut Span) -> Vec<Result<QfwResult, QfwError>>,
    ) -> Result<Vec<Result<QfwResult, QfwError>>, QfwError> {
        let queue_sw = Stopwatch::start();
        let mut acquire_span = self.obs.span("qrc", "qrc.slot.acquire");
        let (slot, requeued) = self.acquire_with_chaos()?;
        acquire_span.set_attr("requeues", requeued);
        let (acq_start, acq_end) = acquire_span.finish();
        let queue_secs = queue_sw.elapsed_secs();

        let mut span = self.obs.span("qrc", "qrc.execute");
        let ctx = ExecContext {
            dvm: &self.dvm,
            hetjob: &self.hetjob,
            group: self.group,
            obs: &self.obs,
        };
        self.invocations.fetch_add(1, Ordering::Relaxed);
        // Released on drop, so an engine panic unwinding through here
        // cannot strand the slot.
        let held = HeldSlot(slot);
        if self.chaos.is_enabled() && self.chaos.fires("qrc.engine_panic") {
            panic!("injected engine panic");
        }
        let mut results = run(&ctx, &mut span);
        span.set_attr("ok", results.iter().all(Result::is_ok));
        drop(span);
        held.0.tasks_run.fetch_add(n_tasks, Ordering::Relaxed);
        drop(held);
        if self.obs.is_enabled() {
            self.obs.counter("qrc.tasks").add(n_tasks);
            self.obs.counter("qrc.requeues").add(requeued);
            self.obs
                .histogram("qrc.queue_us")
                .observe_us(acq_end.saturating_sub(acq_start));
            self.refresh_slot_gauges();
        }
        for result in results.iter_mut().flatten() {
            result.profile.queue_secs += queue_secs;
        }
        Ok(results)
    }

    /// Runs one admitted job: [`Qrc::run_many`] of one.
    pub fn run(&self, job: &ResolvedJob) -> Result<QfwResult, QfwError> {
        let mut results = self.run_many(std::slice::from_ref(job));
        results.pop().expect("one job in, one result out")
    }

    /// Runs admitted jobs — one job, a scheduler batch or the points of a
    /// sweep alike — under **one** slot acquisition and one engine
    /// invocation. Every job runs with its own shots and seed on the shared
    /// slot, so per-job counts are bitwise identical to running each alone;
    /// only the dispatch overhead (slot acquisition, invocation accounting)
    /// is amortized. Results come back in input order; nothing to run takes
    /// no slot.
    ///
    /// A job on the pseudo-backend `auto` engages the workload-driven
    /// planner before any slot is taken (`run_auto`): the planner
    /// may send each job to a different engine, so a batch holding one runs
    /// job by job, one invocation per attempt.
    pub fn run_many(&self, jobs: &[ResolvedJob]) -> Vec<Result<QfwResult, QfwError>> {
        if jobs.iter().any(|job| job.plan.backend == AUTO) {
            let one = |job: &ResolvedJob| match job.plan.backend {
                AUTO => self.run_auto(job),
                _ => self.run(job),
            };
            return jobs.iter().map(one).collect();
        }
        let Some(first) = jobs.first() else {
            return Vec::new();
        };
        let slotted = self.with_slot(jobs.len() as u64, |ctx, span| {
            span.set_attr("size", jobs.len() as u64);
            span.set_attr("backend", first.plan.backend);
            span.set_attr("subbackend", first.plan.subbackend);
            let run = |job: &ResolvedJob| self.registry.get(job.plan.backend)?.execute(job, ctx);
            jobs.iter().map(run).collect()
        });
        slotted.unwrap_or_else(|e| jobs.iter().map(|_| Err(e.clone())).collect())
    }

    /// Executes one task end-to-end: admission (spec and circuit, before
    /// any slot is taken), then [`Qrc::run`].
    pub fn execute(&self, task: &ExecTask) -> Result<QfwResult, QfwError> {
        let source = Source::Wire(&task.circuit);
        self.run(&self.admit(source, task.shots, task.seed, &task.spec)?)
    }

    /// Admits every task, then [`Qrc::run_many`] over the admitted ones. A
    /// task that is refused reports its refusal in its own position, and a
    /// batch in which nothing can run takes no slot.
    pub fn execute_many(&self, tasks: &[ExecTask]) -> Vec<Result<QfwResult, QfwError>> {
        let admit = |t: &ExecTask| self.admit(Source::Wire(&t.circuit), t.shots, t.seed, &t.spec);
        let admitted: Vec<Result<ResolvedJob, QfwError>> = tasks.iter().map(admit).collect();
        let jobs: Vec<ResolvedJob> = admitted.iter().flatten().cloned().collect();
        let mut ran = self.run_many(&jobs).into_iter();
        let mut result = |_| ran.next().expect("one result per admitted job");
        admitted.into_iter().map(|job| job.and_then(&mut result)).collect()
    }

    /// Admits a sweep as one bound job per point
    /// ([`ResolvedJob::admit_sweep`]), then [`Qrc::run_many`] over them: one
    /// slot and one engine invocation for every point, none for no points.
    /// The first point that fails fails the sweep.
    pub fn execute_sweep(&self, task: &SweepTask) -> Result<Vec<QfwResult>, QfwError> {
        let jobs = ResolvedJob::admit_sweep(task, self.group_cores())?;
        if let Some(job) = jobs.first() {
            self.registered(&job.plan)?;
        }
        self.run_many(&jobs).into_iter().collect()
    }

    /// Workload-driven dispatch: analyze, rank, retarget the job's plan
    /// onto each candidate in turn, run the first that succeeds (the
    /// rationale lands in the result metadata).
    ///
    /// Degrades gracefully: when a candidate cannot take the job's
    /// options, or its engine fails at runtime, the next-ranked admissible
    /// engine is tried, and the chain of attempts lands in the result
    /// metadata (`failover_chain`, `failover_errors`).
    fn run_auto(&self, job: &ResolvedJob) -> Result<QfwResult, QfwError> {
        let circuit = auto_circuit(&job.form)?;
        let ctx = SelectorContext {
            free_cores: self.hetjob.free_cores(self.group),
            cloud_available: self.registry.get("ionq").is_ok(),
        };
        let group = self.group_cores();
        let mut failed: Vec<(&str, QfwError)> = Vec::new();
        for planned in &self.planner.plan(circuit, job.shots, ctx) {
            let engine = planned.target.engine.key;
            let attempt = job
                .plan
                .retarget(&planned.target, group)
                .and_then(|plan| self.run(&job.on_plan(plan, group)?));
            match attempt {
                Ok(mut result) => {
                    // Close the calibration loop: drift this engine's EWMA
                    // correction toward the measured engine+sampling time.
                    let actual = result.profile.exec_secs + result.profile.sample_secs;
                    self.planner.observe(engine, planned.cost, actual);
                    result.note("auto_selected", engine);
                    result.note("auto_rationale", &planned.rationale);
                    result.note("planned_cost", format!("{:.3e}", planned.cost));
                    if !failed.is_empty() {
                        let chain: Vec<&str> = failed.iter().map(|(e, _)| *e).collect();
                        result.note("failover_chain", chain.join(" -> "));
                        let errors: Vec<String> =
                            failed.iter().map(|(e, err)| format!("{e}: {err}")).collect();
                        result.note("failover_errors", errors.join("; "));
                    }
                    return Ok(result);
                }
                // A candidate that cannot take the job's options, or
                // whose engine fails at runtime, hands over to the next
                // one. (The job's own values were validated when it was
                // admitted on `auto`, so a `BadProperties` here is this
                // engine's incompatibility, not the caller's typo.)
                Err(
                    err @ (QfwError::Execution(_)
                    | QfwError::Resources(_)
                    | QfwError::Rpc(_)
                    | QfwError::BadProperties(_)),
                ) => failed.push((engine, err)),
                Err(err) => return Err(err),
            }
        }
        Err(failed.pop().expect("ranked list is never empty").1)
    }

    /// Acquires a slot, consulting the `qrc.slot_death` chaos site once
    /// per landing: a fired injection kills the slot and requeues onto a
    /// survivor. Returns the slot and the requeue count.
    fn acquire_with_chaos(&self) -> Result<(Arc<Slot>, u64), QfwError> {
        let mut requeued = 0u64;
        self.waiting.fetch_add(1, Ordering::Relaxed);
        let result = loop {
            let slot = match self.acquire_slot() {
                Ok(slot) => slot,
                Err(e) => break Err(e),
            };
            // Injected worker death: the slot the task landed on dies and
            // the task goes back to dispatch onto a surviving slot.
            if self.chaos.is_enabled() && self.chaos.fires("qrc.slot_death") {
                self.kill_slot(&slot);
                self.requeues.fetch_add(1, Ordering::Relaxed);
                requeued += 1;
                self.obs.instant("qrc", "qrc.requeue");
                continue;
            }
            break Ok(slot);
        };
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        result.map(|slot| (slot, requeued))
    }

    fn all_dead_error(&self) -> QfwError {
        QfwError::Resources("every QRC worker slot is dead".into())
    }

    fn acquire_slot(&self) -> Result<Arc<Slot>, QfwError> {
        match self.policy {
            DispatchPolicy::RoundRobin => loop {
                let slot = {
                    let slots = self.slots.read();
                    if slots.iter().all(|s| !s.is_routable()) {
                        return Err(self.all_dead_error());
                    }
                    let idx = self.next.fetch_add(1, Ordering::Relaxed) % slots.len();
                    Arc::clone(&slots[idx])
                };
                if !slot.is_routable() {
                    // Rotation naturally advances past dead/retired slots.
                    continue;
                }
                let mut active = slot.active.lock();
                loop {
                    if !slot.is_routable() {
                        // Died or retired while we queued on it: pick
                        // another slot.
                        break;
                    }
                    if *active == 0 {
                        *active = 1;
                        drop(active);
                        return Ok(slot);
                    }
                    slot.freed.wait(&mut active);
                }
            },
            DispatchPolicy::LeastLoaded => loop {
                // Order candidates by a load snapshot, then claim under
                // each slot's own lock with the load re-checked — the
                // snapshot alone is stale by the time the lock is taken
                // (two dispatchers could both pick the same "free" slot
                // and one would queue behind it while other slots idle).
                // The (load, index) sort is lexicographic, so equal loads
                // deterministically break toward the lowest slot index and
                // seeded runs replay the same placement.
                let candidates = {
                    let slots = self.slots.read();
                    let mut order: Vec<(usize, usize, Arc<Slot>)> = slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_routable())
                        .map(|(i, s)| (*s.active.lock(), i, Arc::clone(s)))
                        .collect();
                    if order.is_empty() {
                        return Err(self.all_dead_error());
                    }
                    order.sort_unstable_by_key(|(load, idx, _)| (*load, *idx));
                    order
                };
                for (_, _, slot) in &candidates {
                    if !slot.is_routable() {
                        continue;
                    }
                    let mut active = slot.active.lock();
                    if slot.is_routable() && *active == 0 {
                        *active = 1;
                        return Ok(Arc::clone(slot));
                    }
                }
                // Every live slot is busy: park briefly on the least
                // loaded one, then rescan (releases only notify their own
                // slot, so bound the wait instead of trusting one condvar).
                let (_, _, first) = &candidates[0];
                let mut active = first.active.lock();
                if *active > 0 && first.is_routable() {
                    first.freed.wait_for(&mut active, Duration::from_millis(5));
                }
            },
        }
    }

    /// Marks a slot dead and wakes anything queued on it so it re-routes.
    fn kill_slot(&self, slot: &Arc<Slot>) {
        slot.dead.store(true, Ordering::Relaxed);
        let mut active = slot.active.lock();
        *active = 0;
        slot.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BackendSpec;
    use qfw_circuit::{text, Circuit};
    use qfw_hpc::slurm::HetJobSpec;
    use qfw_hpc::ClusterSpec;

    fn qrc(workers: usize, policy: DispatchPolicy) -> Arc<Qrc> {
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        Arc::new(Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            workers,
            policy,
        ))
    }

    fn ghz_task(n: usize, spec: BackendSpec) -> ExecTask {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        ExecTask {
            circuit: text::dump(&qc),
            shots: 100,
            seed: 3,
            spec,
        }
    }

    #[test]
    fn executes_through_every_local_backend() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        for backend in ["nwqsim", "aer", "tnqvm", "qtensor"] {
            let result = qrc.execute(&ghz_task(5, BackendSpec::of(backend, ""))).unwrap();
            assert_eq!(result.counts.values().sum::<usize>(), 100, "{backend}");
            assert_eq!(result.backend, backend);
        }
    }

    #[test]
    fn a_panicking_engine_gives_its_slot_back() {
        let qrc = qrc(1, DispatchPolicy::RoundRobin);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            qrc.with_slot(1, |_, _| panic!("engine blew up"))
        }));
        assert!(unwound.is_err());
        assert_eq!(qrc.slot_snapshot().busy, 0);
        // The only slot is free again: this would otherwise wait forever.
        qrc.execute(&ghz_task(3, BackendSpec::of("nwqsim", "cpu")))
            .unwrap();
    }

    #[test]
    fn unknown_backend_is_reported() {
        let qrc = qrc(1, DispatchPolicy::RoundRobin);
        let err = qrc
            .execute(&ghz_task(3, BackendSpec::of("quantumagic", "")))
            .unwrap_err();
        assert!(matches!(err, QfwError::UnknownBackend(_)));
    }

    #[test]
    fn round_robin_spreads_tasks() {
        let qrc = qrc(4, DispatchPolicy::RoundRobin);
        for _ in 0..8 {
            qrc.execute(&ghz_task(4, BackendSpec::of("nwqsim", "cpu")))
                .unwrap();
        }
        assert_eq!(qrc.tasks_per_slot(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn least_loaded_ties_break_to_lowest_index() {
        // Sequential executes always find every slot idle, so the
        // deterministic tie-break must land every task on slot 0. This
        // pins the replayability guarantee seeded runs rely on.
        let qrc = qrc(3, DispatchPolicy::LeastLoaded);
        for _ in 0..4 {
            qrc.execute(&ghz_task(4, BackendSpec::of("nwqsim", "cpu")))
                .unwrap();
        }
        assert_eq!(qrc.tasks_per_slot(), vec![4, 0, 0]);
    }

    #[test]
    fn concurrent_tasks_complete_and_balance() {
        let qrc = qrc(4, DispatchPolicy::LeastLoaded);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let qrc = Arc::clone(&qrc);
                std::thread::spawn(move || {
                    qrc.execute(&ghz_task(4 + (i % 3), BackendSpec::of("nwqsim", "cpu")))
                        .unwrap()
                })
            })
            .collect();
        for h in handles {
            let r = h.join().unwrap();
            assert_eq!(r.counts.values().sum::<usize>(), 100);
        }
        assert_eq!(qrc.tasks_per_slot().iter().sum::<u64>(), 8);
    }

    #[test]
    fn queue_time_is_profiled_when_slots_contend() {
        // One slot, two concurrent tasks: the second one must record queue
        // time while the first holds the slot.
        let qrc = qrc(1, DispatchPolicy::RoundRobin);
        let a = {
            let qrc = Arc::clone(&qrc);
            std::thread::spawn(move || {
                qrc.execute(&ghz_task(12, BackendSpec::of("aer", "statevector")))
                    .unwrap()
            })
        };
        let b = {
            let qrc = Arc::clone(&qrc);
            std::thread::spawn(move || {
                qrc.execute(&ghz_task(12, BackendSpec::of("aer", "statevector")))
                    .unwrap()
            })
        };
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        let max_queue = ra.profile.queue_secs.max(rb.profile.queue_secs);
        assert!(max_queue > 0.0, "no contention recorded");
    }

    #[test]
    fn auto_backend_selects_and_reports() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        // GHZ is Clifford: auto must route to the stabilizer tableau.
        let result = qrc.execute(&ghz_task(8, BackendSpec::of("auto", ""))).unwrap();
        assert_eq!((result.backend.as_str(), result.subbackend.as_str()), ("aer", "stabilizer"));
        assert_eq!(result.metadata["auto_selected"], "aer/stabilizer");
        assert!(result.metadata["auto_rationale"].contains("Clifford"));
        assert_eq!(result.counts.values().sum::<usize>(), 100);
        // The planner annotates (and learns from) every auto execution.
        let cost: f64 = result.metadata["planned_cost"].parse().unwrap();
        assert!(cost.is_finite() && cost > 0.0);
        assert!(
            qrc.planner.correction("aer/stabilizer") != 1.0,
            "successful execution must feed the EWMA corrections"
        );
    }

    #[test]
    fn auto_partitions_deep_clifford_prefix() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        // A deep Clifford prefix on a dense-entangled register followed by
        // a dense suffix: the planner must issue a partitioned nwqsim plan
        // and the backend must report the seam it executed.
        let n = 10;
        let mut qc = qfw_circuit::Circuit::new(n);
        qc.h(0);
        for _ in 0..20 {
            for q in 0..n - 1 {
                qc.cx(q, q + 1);
            }
        }
        for q in 0..n {
            qc.rx(q, 2.0);
        }
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        let task = ExecTask {
            circuit: text::dump(&qc),
            shots: 80,
            seed: 7,
            spec: BackendSpec::of("auto", ""),
        };
        let result = qrc.execute(&task).unwrap();
        assert_eq!(result.metadata["auto_selected"], "nwqsim/cpu");
        assert_eq!(result.metadata["partition"], "clifford_prefix");
        let seam: usize = result.metadata["partition_seam"].parse().unwrap();
        assert_eq!(seam, 1 + 20 * (n - 1));
        assert!(result.metadata["auto_rationale"].contains("partition"));
        assert_eq!(result.counts.values().sum::<usize>(), 80);
    }

    #[test]
    fn auto_preserves_user_tunables() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        // A weak-entangler chain routes to MPS; the chi_max tunable must
        // survive the rewrite.
        let mut qc = qfw_circuit::Circuit::new(6);
        for q in 0..5 {
            qc.rzz(q, q + 1, 0.05);
        }
        for q in 0..6 {
            qc.rx(q, 0.1);
        }
        qc.measure_all();
        let task = ExecTask {
            circuit: text::dump(&qc),
            shots: 50,
            seed: 1,
            spec: BackendSpec::of("auto", "").with_extra("chi_max", 2),
        };
        let result = qrc.execute(&task).unwrap();
        assert_eq!(result.subbackend, "matrix_product_state");
        assert!(result.metadata["max_bond"].parse::<usize>().unwrap() <= 2);
    }

    #[test]
    fn auto_hands_a_noisy_job_over_to_the_engine_that_can_run_it() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        // GHZ ranks the stabilizer tableau first, but a noise model runs on
        // the local dense engine only: the first candidate's row refuses
        // it before a slot is taken and the next one runs.
        let mut model = qfw_noise::NoiseModel::empty();
        model.add_2q_all(qfw_noise::Channel::depolarizing(0.02));
        let spec = BackendSpec::of("auto", "").with_extra("noise_model", model.to_text());
        let result = qrc.execute(&ghz_task(6, spec)).unwrap();
        assert_eq!(result.metadata["auto_selected"], "nwqsim/cpu");
        assert_eq!(result.metadata["failover_chain"], "aer/stabilizer");
        assert!(result.metadata["failover_errors"].contains("noise channels"));
        assert!(result.metadata.contains_key("noise"));
        assert_eq!(qrc.engine_invocations(), 1);
    }

    #[test]
    fn slot_death_requeues_task() {
        use qfw_chaos::{FaultPlan, FaultSpec};
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        let plan = Arc::new(FaultPlan::seeded(21).inject("qrc.slot_death", FaultSpec::first(1)));
        let qrc = Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            3,
            DispatchPolicy::RoundRobin,
        )
        .with_chaos(plan);
        let result = qrc
            .execute(&ghz_task(4, BackendSpec::of("nwqsim", "cpu")))
            .unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 100);
        assert_eq!(qrc.requeues(), 1);
        assert_eq!(qrc.dead_slots(), 1);
        assert_eq!(qrc.revive_slots(), 1);
        assert_eq!(qrc.dead_slots(), 0);
    }

    #[test]
    fn all_slots_dead_is_a_resource_error() {
        use qfw_chaos::{FaultPlan, FaultSpec};
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        let plan = Arc::new(FaultPlan::seeded(2).inject("qrc.slot_death", FaultSpec::always()));
        let qrc = Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            2,
            DispatchPolicy::RoundRobin,
        )
        .with_chaos(plan);
        let err = qrc
            .execute(&ghz_task(4, BackendSpec::of("nwqsim", "cpu")))
            .unwrap_err();
        assert!(matches!(err, QfwError::Resources(_)), "{err:?}");
        assert_eq!(qrc.dead_slots(), 2);
        // Revival restores service even though the plan keeps killing:
        // after revive, the task burns both slots again; check the counter.
        assert_eq!(qrc.revive_slots(), 2);
    }

    #[test]
    fn mpi_tasks_use_dvm_ranks() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        let result = qrc
            .execute(&ghz_task(6, BackendSpec::of("nwqsim", "mpi").with_ranks(4)))
            .unwrap();
        assert_eq!(result.profile.ranks, 4);
    }

    #[test]
    fn grow_and_shrink_round_trip_core_leases() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        let free_before = qrc.hetjob.free_cores(1);
        assert_eq!(qrc.grow_slots(3).unwrap(), 3);
        assert_eq!(qrc.workers(), 5);
        assert_eq!(qrc.hetjob.free_cores(1), free_before - 3 * CORES_PER_SLOT);
        // Shrink never drops below the base pool and returns the cores.
        assert_eq!(qrc.shrink_slots(10), 3);
        assert_eq!(qrc.workers(), 2);
        assert_eq!(qrc.hetjob.free_cores(1), free_before);
    }

    #[test]
    fn grow_fails_cleanly_when_cores_exhausted() {
        let qrc = qrc(1, DispatchPolicy::RoundRobin);
        let hog = qrc.hetjob.allocate_cores(1, qrc.hetjob.free_cores(1)).unwrap();
        let err = qrc.grow_slots(1).unwrap_err();
        assert!(matches!(err, QfwError::Resources(_)), "{err:?}");
        assert_eq!(qrc.workers(), 1);
        drop(hog);
        assert_eq!(qrc.grow_slots(1).unwrap(), 1);
    }

    #[test]
    fn grown_slots_accept_work() {
        let qrc = qrc(1, DispatchPolicy::RoundRobin);
        qrc.grow_slots(1).unwrap();
        for _ in 0..4 {
            qrc.execute(&ghz_task(4, BackendSpec::of("nwqsim", "cpu")))
                .unwrap();
        }
        // Strict rotation over both slots.
        assert_eq!(qrc.tasks_per_slot(), vec![2, 2]);
    }

    #[test]
    fn slot_snapshot_tracks_pool_state() {
        use qfw_chaos::{FaultPlan, FaultSpec};
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        let plan = Arc::new(FaultPlan::seeded(21).inject("qrc.slot_death", FaultSpec::first(1)));
        let qrc = Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            3,
            DispatchPolicy::RoundRobin,
        )
        .with_chaos(plan);
        let snap = qrc.slot_snapshot();
        assert_eq!((snap.total, snap.dead, snap.busy), (3, 0, 0));
        assert_eq!(snap.live(), 3);
        assert_eq!(snap.free(), 3);
        qrc.execute(&ghz_task(4, BackendSpec::of("nwqsim", "cpu")))
            .unwrap();
        let snap = qrc.slot_snapshot();
        assert_eq!(snap.dead, 1, "chaos killed one slot");
        assert_eq!(snap.live(), 2);
    }

    #[test]
    fn execute_many_uses_one_invocation_and_matches_unbatched() {
        let batched = qrc(2, DispatchPolicy::RoundRobin);
        let unbatched = qrc(2, DispatchPolicy::RoundRobin);
        let tasks: Vec<ExecTask> = (0..4)
            .map(|i| {
                let mut t = ghz_task(5, BackendSpec::of("nwqsim", "cpu"));
                t.seed = 100 + i;
                t
            })
            .collect();
        let results = batched.execute_many(&tasks);
        assert_eq!(batched.engine_invocations(), 1);
        for (task, result) in tasks.iter().zip(&results) {
            let solo = unbatched.execute(task).unwrap();
            assert_eq!(
                result.as_ref().unwrap().counts,
                solo.counts,
                "batched counts diverged from unbatched at seed {}",
                task.seed
            );
        }
        assert_eq!(unbatched.engine_invocations(), 4);
    }

    #[test]
    fn execute_many_reports_per_task_errors() {
        let qrc = qrc(1, DispatchPolicy::RoundRobin);
        let good = ghz_task(4, BackendSpec::of("nwqsim", "cpu"));
        let bad = ghz_task(4, BackendSpec::of("bogus", ""));
        let results = qrc.execute_many(&[good, bad]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(QfwError::UnknownBackend(_))));
    }

    fn sweep_task(points: usize) -> SweepTask {
        let mut t = qfw_circuit::ParamCircuit::new(5);
        for q in 0..5 {
            t.h(q);
        }
        for q in 0..4 {
            t.rzz(q, q + 1, qfw_circuit::Angle::scaled(0, 2.0));
        }
        for q in 0..5 {
            t.rx(q, qfw_circuit::Angle::scaled(1, 2.0));
        }
        t.measure_all();
        SweepTask {
            circuit: text::dump_param(&t),
            points: (0..points)
                .map(|i| crate::spec::SweepPointSpec {
                    params: vec![0.2 + 0.01 * i as f64, 0.8 - 0.01 * i as f64],
                    shots: 128,
                    seed: 500 + i as u64,
                })
                .collect(),
            spec: BackendSpec::of("nwqsim", "cpu"),
        }
    }

    #[test]
    fn execute_sweep_uses_one_invocation_for_all_points() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        let task = sweep_task(32);
        let results = qrc.execute_sweep(&task).unwrap();
        assert_eq!(results.len(), 32);
        assert_eq!(qrc.engine_invocations(), 1);
        for r in &results {
            assert_eq!(r.counts.values().sum::<usize>(), 128);
        }
    }

    #[test]
    fn execute_sweep_counts_match_per_point_executes() {
        let mut noise = qfw_noise::NoiseModel::empty();
        noise.add_2q_all(qfw_noise::Channel::depolarizing(0.03));
        let specs = [
            BackendSpec::of("nwqsim", "cpu"),
            BackendSpec::of("nwqsim", "openmp"),
            BackendSpec::of("nwqsim", "mpi").with_ranks(2),
            BackendSpec::of("aer", "statevector"),
            BackendSpec::of("nwqsim", "cpu").with_extra("noise_model", noise.to_text()),
        ];
        for spec in specs {
            let swept = qrc(2, DispatchPolicy::RoundRobin);
            let unswept = qrc(2, DispatchPolicy::RoundRobin);
            let task = SweepTask {
                spec,
                ..sweep_task(6)
            };
            let results = swept.execute_sweep(&task).unwrap();
            assert_eq!(results.len(), 6);
            assert_eq!(swept.engine_invocations(), 1);
            for (result, point) in results.iter().zip(&task.points) {
                let solo = unswept
                    .execute(&ExecTask {
                        circuit: crate::backends::testutil::materialize_point(
                            &task.circuit,
                            &point.params,
                        ),
                        shots: point.shots,
                        seed: point.seed,
                        spec: task.spec.clone(),
                    })
                    .unwrap();
                assert_eq!(
                    result.counts, solo.counts,
                    "{:?}: sweep counts diverged at seed {}",
                    task.spec, point.seed
                );
            }
        }
    }

    /// A sweep of no points is refused or accepted like any other, and
    /// then runs nothing: no slot, no core lease, no engine invocation.
    #[test]
    fn an_empty_sweep_takes_no_slot() {
        let qrc = qrc(1, DispatchPolicy::RoundRobin);
        let free = qrc.hetjob.free_cores(1);
        let task = SweepTask {
            points: Vec::new(),
            ..sweep_task(1)
        };
        assert!(qrc.execute_sweep(&task).unwrap().is_empty());
        assert_eq!(qrc.engine_invocations(), 0);
        assert_eq!(qrc.tasks_per_slot(), vec![0]);
        assert_eq!(qrc.hetjob.free_cores(1), free);
        // Admission still reads the skeleton and the spec.
        let task = SweepTask {
            circuit: "qfwasm-param 1\nqubits 2\nnosuchgate q0\n".into(),
            ..task
        };
        assert!(matches!(
            qrc.execute_sweep(&task),
            Err(QfwError::Marshal(_))
        ));
    }

    #[test]
    fn execute_sweep_surfaces_backend_errors() {
        let qrc = qrc(1, DispatchPolicy::RoundRobin);
        let mut task = sweep_task(2);
        task.spec = BackendSpec::of("bogus", "");
        assert!(matches!(
            qrc.execute_sweep(&task).unwrap_err(),
            QfwError::UnknownBackend(_)
        ));
    }
}
