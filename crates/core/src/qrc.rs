//! QRC — the Quantum Resource Controller.
//!
//! The QRC "schedules and launches quantum tasks across MPI ranks, ensuring
//! efficient utilization of allocated resources" (Section 2.1). Here it
//! owns the worker-slot pool that QPM dispatches into (the paper's
//! "eight worker threads, distributed round-robin"), brokers core leases
//! from the `hetgroup-1` allocation, and hands each Backend-QPM an
//! [`ExecContext`] for DVM rank spawning.
//!
//! One acquisition rule ([`DispatchPolicy::RoundRobin`]): a task scans the
//! pool from the rotation index and takes the first idle live slot, so no
//! task waits on a busy slot while another is idle. It parks on one
//! pool-wide wake-up only when no slot is idle, and everything that can
//! make a slot takeable — release, death, revival, growth, retirement —
//! signals it.
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
use parking_lot::{Condvar, Mutex};
use qfw_chaos::FaultPlan;
use qfw_hpc::slurm::{Allocation, HetJob};
use qfw_hpc::{Dvm, Stopwatch};
use qfw_obs::{Obs, Span};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How QPM assigns tasks to QRC worker slots: there is one rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// The paper's round-robin, without parking on a busy slot: a task
    /// scans the pool from the rotation index and takes the first idle
    /// live slot, and the rotation moves past it. A serial submitter
    /// therefore visits the slots in strict rotation. When no slot is
    /// idle the task parks until one is.
    RoundRobin,
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

/// One worker slot; read and written under the pool lock only.
struct Slot {
    /// Stable name: a slot's index shifts when the pool shrinks.
    id: u64,
    /// Held by a task. Killing a slot clears it, so a dead slot is never busy.
    busy: bool,
    /// Set when chaos kills the slot's worker; dead slots take no work
    /// until [`Qrc::revive_slots`] brings them back.
    dead: bool,
    tasks_run: u64,
    /// Core lease backing an elastically-grown slot. Base slots are
    /// provisioned with the session and carry no lease.
    _lease: Option<Allocation>,
}

impl Slot {
    fn idle(&self) -> bool {
        !self.busy && !self.dead
    }
}

/// The worker pool, behind the controller's one lock.
struct Pool {
    slots: Vec<Slot>,
    /// Rotation counter: the next scan starts at `next % slots.len()`.
    next: usize,
    /// Dispatchers parked on [`Qrc::slot_ready`] because no slot is idle.
    waiting: usize,
    /// Slots ever created; the next slot's id.
    created: u64,
}

impl Pool {
    fn push(&mut self, lease: Option<Allocation>) {
        self.slots.push(Slot {
            id: self.created,
            busy: false,
            dead: false,
            tasks_run: 0,
            _lease: lease,
        });
        self.created += 1;
    }

    /// Marks the first idle live slot from the rotation index busy and
    /// moves the rotation past it.
    fn take_idle(&mut self) -> Option<u64> {
        let (start, len) = (self.next, self.slots.len());
        let at = |k: usize| start.wrapping_add(k) % len;
        let k = (0..len).find(|&k| self.slots[at(k)].idle())?;
        self.next = start.wrapping_add(k + 1);
        let slot = &mut self.slots[at(k)];
        slot.busy = true;
        Some(slot.id)
    }

    /// The slot named `id`; a held slot is never removed from the pool.
    fn slot(&mut self, id: u64) -> Option<&mut Slot> {
        self.slots.iter_mut().find(|s| s.id == id)
    }

    fn snapshot(&self) -> SlotSnapshot {
        SlotSnapshot {
            total: self.slots.len(),
            dead: self.slots.iter().filter(|s| s.dead).count(),
            busy: self.slots.iter().filter(|s| s.busy).count(),
        }
    }
}

/// Cores leased per elastically-grown slot.
const CORES_PER_SLOT: usize = 2;

/// An acquired slot, freed for the next dispatcher on drop (an engine
/// panic unwinding through [`Qrc::with_slot`] included).
struct HeldSlot<'a> {
    qrc: &'a Qrc,
    id: u64,
    /// Tasks credited to the slot on release: set once the run returns.
    tasks: u64,
}

impl Drop for HeldSlot<'_> {
    fn drop(&mut self) {
        let mut pool = self.qrc.pool.lock();
        if let Some(slot) = pool.slot(self.id) {
            slot.busy = false;
            slot.tasks_run += self.tasks;
        }
        drop(pool);
        self.qrc.slot_ready.notify_one();
    }
}

/// The resource controller: worker slots + core leasing + DVM access.
pub struct Qrc {
    registry: BackendRegistry,
    hetjob: Arc<HetJob>,
    dvm: Arc<Dvm>,
    group: usize,
    pool: Mutex<Pool>,
    /// The one wake-up for dispatchers parked in acquisition.
    slot_ready: Condvar,
    /// Slots the pool was built with; [`Qrc::shrink_slots`] never goes below.
    base_workers: usize,
    chaos: Arc<FaultPlan>,
    obs: Obs,
    requeues: AtomicU64,
    /// Engine invocations: slot-held backend dispatches. A coalesced batch
    /// through [`Qrc::run_many`] counts once.
    invocations: AtomicU64,
    /// Engine panics caught at [`Qrc::run_many`]'s boundary.
    panics: AtomicU64,
    /// Cost-model planner behind `backend="auto"`. Lives on the controller
    /// so its online EWMA corrections accumulate across dispatches: every
    /// successful auto execution feeds measured runtime back via
    /// [`crate::planner::Planner::observe`].
    planner: crate::planner::Planner,
}

impl Qrc {
    /// Builds a controller with `workers` slots over the given hetgroup.
    /// `policy` names the one acquisition rule ([`DispatchPolicy`]).
    pub fn new(
        registry: BackendRegistry,
        hetjob: Arc<HetJob>,
        dvm: Arc<Dvm>,
        group: usize,
        workers: usize,
        policy: DispatchPolicy,
    ) -> Self {
        assert!(workers >= 1, "QRC needs at least one worker slot");
        let DispatchPolicy::RoundRobin = policy;
        let mut pool = Pool {
            slots: Vec::with_capacity(workers),
            next: 0,
            waiting: 0,
            created: 0,
        };
        for _ in 0..workers {
            pool.push(None);
        }
        Qrc {
            registry,
            hetjob,
            dvm,
            group,
            pool: Mutex::new(pool),
            slot_ready: Condvar::new(),
            base_workers: workers,
            chaos: Arc::new(FaultPlan::disabled()),
            obs: Obs::disabled(),
            requeues: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            planner: crate::planner::Planner::default(),
        }
    }

    /// Attaches a fault plan. The `qrc.slot_death` site is consulted once
    /// per landing: when it fires, the slot the task landed on dies and
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
        self.pool.lock().slots.len()
    }

    /// The pool size the controller was built with (the scaling floor).
    pub fn base_workers(&self) -> usize {
        self.base_workers
    }

    /// Tasks executed per slot (diagnostics).
    pub fn tasks_per_slot(&self) -> Vec<u64> {
        self.pool.lock().slots.iter().map(|s| s.tasks_run).collect()
    }

    /// Slots currently marked dead.
    pub fn dead_slots(&self) -> usize {
        self.slot_snapshot().dead
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

    /// Engine panics so far (`qrc.engine_panics`), each caught by
    /// [`Qrc::run_many`]'s one panic boundary: 0 while admission refuses
    /// every job its engine would.
    pub fn engine_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// A point-in-time view of the pool for dispatch-window sizing.
    pub fn slot_snapshot(&self) -> SlotSnapshot {
        self.pool.lock().snapshot()
    }

    /// Grows the pool by up to `n` slots, each backed by a fresh core
    /// lease from the hetgroup. Returns how many slots were added; errors
    /// only when not even one lease could be obtained.
    pub fn grow_slots(&self, n: usize) -> Result<usize, QfwError> {
        let mut added = 0;
        for _ in 0..n {
            match self.hetjob.allocate_cores(self.group, CORES_PER_SLOT) {
                Ok(lease) => {
                    self.pool.lock().push(Some(lease));
                    added += 1;
                }
                Err(e) if added == 0 => return Err(QfwError::Resources(e.to_string())),
                Err(_) => break,
            }
        }
        self.slot_ready.notify_all();
        self.refresh_slot_gauges();
        Ok(added)
    }

    /// Shrinks the pool by up to `n` slots, never below the base size.
    /// Only idle, live slots are removed (busy slots finish their task and
    /// survive); removed slots drop their core leases back to the free
    /// pool. Returns how many were removed.
    pub fn shrink_slots(&self, n: usize) -> usize {
        let mut gone = Vec::new();
        let mut pool = self.pool.lock();
        let mut i = pool.slots.len();
        while gone.len() < n && pool.slots.len() > self.base_workers && i > 0 {
            i -= 1;
            if pool.slots[i].idle() {
                gone.push(pool.slots.remove(i));
            }
        }
        drop(pool);
        let removed = gone.len();
        // Dropping a slot returns its lease's cores to hetgroup-1's free pool.
        drop(gone);
        if removed > 0 {
            self.slot_ready.notify_all();
            self.refresh_slot_gauges();
        }
        removed
    }

    /// Revives every dead slot (the operator restarting workers); returns
    /// how many came back. Dispatchers parked for a slot wake and take
    /// the revived ones.
    pub fn revive_slots(&self) -> usize {
        let mut pool = self.pool.lock();
        let mut revived = 0;
        for slot in pool.slots.iter_mut().filter(|s| s.dead) {
            slot.dead = false;
            revived += 1;
        }
        drop(pool);
        self.slot_ready.notify_all();
        self.refresh_slot_gauges();
        revived
    }

    /// Mirrors the pool state into gauges: `qrc.slots.total/dead/busy`,
    /// `qrc.queue_depth` (dispatchers parked for a slot), and the
    /// per-slot task spread `qrc.slots.tasks_spread` (max − min tasks run,
    /// the balance signal). Refreshed on every execute, grow, shrink and
    /// revive, so exported metrics always reflect what the scheduler's
    /// scaling decisions saw.
    fn refresh_slot_gauges(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        let pool = self.pool.lock();
        let snap = pool.snapshot();
        let waiting = pool.waiting;
        let tasks = pool.slots.iter().map(|s| s.tasks_run);
        let spread = tasks.clone().max().unwrap_or(0) - tasks.min().unwrap_or(0);
        drop(pool);
        self.obs.gauge("qrc.slots.total").set(snap.total as f64);
        self.obs.gauge("qrc.slots.dead").set(snap.dead as f64);
        self.obs.gauge("qrc.slots.busy").set(snap.busy as f64);
        self.obs.gauge("qrc.queue_depth").set(waiting as f64);
        self.obs.gauge("qrc.slots.tasks_spread").set(spread as f64);
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
        // Released on drop, so an engine panic unwinding through here
        // cannot strand the slot.
        let (mut held, requeued) = self.acquire_with_chaos()?;
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
        if self.chaos.is_enabled() && self.chaos.fires("qrc.engine_panic") {
            panic!("injected engine panic");
        }
        let mut results = run(&ctx, &mut span);
        span.set_attr("ok", results.iter().all(Result::is_ok));
        drop(span);
        held.tasks = n_tasks;
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
    ///
    /// This is the one panic boundary of a run: an engine that panics
    /// fails every job of its invocation with
    /// `QfwError::Execution("engine panicked: …")` and gives its slot back,
    /// so the QPM, the scheduler's runner and `auto`'s failover all see an
    /// ordinary failure and their threads live on.
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
        let slotted = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.with_slot(jobs.len() as u64, |ctx, span| {
                span.set_attr("size", jobs.len() as u64);
                span.set_attr("backend", first.plan.backend);
                span.set_attr("subbackend", first.plan.subbackend);
                let run =
                    |job: &ResolvedJob| self.registry.get(job.plan.backend)?.execute(job, ctx);
                jobs.iter().map(run).collect()
            })
        }))
        .unwrap_or_else(|cause| {
            self.panics.fetch_add(1, Ordering::Relaxed);
            let detail = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("no message");
            Err(QfwError::Execution(format!("engine panicked: {detail}")))
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

    /// Takes a slot by the one rule, consulting the `qrc.slot_death` chaos
    /// site once per landing: a fired injection kills the slot the task
    /// landed on and the task goes back to acquisition. Returns the held
    /// slot and the requeue count.
    fn acquire_with_chaos(&self) -> Result<(HeldSlot<'_>, u64), QfwError> {
        let mut requeued = 0u64;
        loop {
            let id = self.take_slot()?;
            // Injected worker death: the slot the task landed on dies and
            // the task goes back to dispatch onto a surviving slot.
            if self.chaos.is_enabled() && self.chaos.fires("qrc.slot_death") {
                self.kill_slot(id);
                self.requeues.fetch_add(1, Ordering::Relaxed);
                requeued += 1;
                self.obs.instant("qrc", "qrc.requeue");
                continue;
            }
            return Ok((HeldSlot { qrc: self, id, tasks: 0 }, requeued));
        }
    }

    /// The acquisition rule: scan from the rotation index, take the first
    /// idle live slot and move the rotation past it. While every live slot
    /// is busy, park on `slot_ready`; with none live, fail.
    fn take_slot(&self) -> Result<u64, QfwError> {
        let mut pool = self.pool.lock();
        loop {
            if let Some(id) = pool.take_idle() {
                return Ok(id);
            }
            if pool.slots.iter().all(|s| s.dead) {
                return Err(QfwError::Resources("every QRC worker slot is dead".into()));
            }
            pool.waiting += 1;
            self.slot_ready.wait(&mut pool);
            pool.waiting -= 1;
        }
    }

    /// Marks a slot dead and wakes every parked dispatcher, so one whose
    /// last live slot this was reports the dead pool.
    fn kill_slot(&self, id: u64) {
        let mut pool = self.pool.lock();
        if let Some(slot) = pool.slot(id) {
            slot.dead = true;
            slot.busy = false;
        }
        drop(pool);
        self.slot_ready.notify_all();
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
        Arc::new(unshared_qrc(workers, policy))
    }

    fn unshared_qrc(workers: usize, policy: DispatchPolicy) -> Qrc {
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        Qrc::new(BackendRegistry::standard(None), hetjob, dvm, 1, workers, policy)
    }

    fn chaos_qrc(workers: usize, plan: FaultPlan) -> Qrc {
        unshared_qrc(workers, DispatchPolicy::RoundRobin).with_chaos(Arc::new(plan))
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

    /// Admission refuses whatever an engine would: a run of every local
    /// row leaves the panic boundary untouched.
    #[test]
    fn every_local_row_runs_without_an_engine_panic() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        let rows = [
            ("nwqsim", "cpu"),
            ("nwqsim", "openmp"),
            ("nwqsim", "mpi"),
            ("aer", "statevector"),
            ("aer", "matrix_product_state"),
            ("aer", "stabilizer"),
            ("aer", "automatic"),
            ("tnqvm", "exatn-mps"),
            ("qtensor", "numpy"),
            ("qtensor", "sequential"),
            ("qtensor", "mpi"),
        ];
        for (backend, sub) in rows {
            let spec = BackendSpec::of(backend, sub).with_ranks(2);
            let result = qrc.execute(&ghz_task(5, spec)).unwrap();
            assert_eq!(
                result.counts.values().sum::<usize>(),
                100,
                "{backend}/{sub}"
            );
        }
        assert_eq!(qrc.engine_invocations(), rows.len() as u64);
        assert_eq!(qrc.engine_panics(), 0);
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

    /// A dense 22-qubit job: far longer than two `ghz_task(3, ..)` runs.
    fn long_task() -> ExecTask {
        let n = 22;
        let mut qc = Circuit::new(n);
        for layer in 0..2 {
            for q in 0..n {
                qc.rx(q, 0.3 + 0.1 * layer as f64);
            }
            for q in 0..n - 1 {
                qc.cx(q, q + 1);
            }
        }
        qc.measure_all();
        ExecTask {
            circuit: text::dump(&qc),
            shots: 1000,
            seed: 9,
            spec: BackendSpec::of("nwqsim", "cpu"),
        }
    }

    fn spawn_execute(qrc: &Arc<Qrc>, task: ExecTask) -> std::thread::JoinHandle<QfwResult> {
        let qrc = Arc::clone(qrc);
        std::thread::spawn(move || qrc.execute(&task).unwrap())
    }

    fn spin_until(done: impl Fn() -> bool) {
        while !done() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn no_task_waits_on_a_busy_slot_while_another_is_idle() {
        let qrc = qrc(2, DispatchPolicy::RoundRobin);
        let long = spawn_execute(&qrc, long_task());
        spin_until(|| qrc.slot_snapshot().busy == 1);
        // The rotation points at idle slot 1, then back at busy slot 0:
        // both tiny tasks run on slot 1 while the long job holds slot 0
        // (its task is credited when it lets go).
        for _ in 0..2 {
            qrc.execute(&ghz_task(3, BackendSpec::of("nwqsim", "cpu")))
                .unwrap();
        }
        assert_eq!(qrc.tasks_per_slot(), vec![0, 2]);
        long.join().unwrap();
        assert_eq!(qrc.tasks_per_slot(), vec![1, 2]);
    }

    #[test]
    fn revived_slot_takes_a_parked_task() {
        use qfw_chaos::FaultSpec;
        let plan = FaultPlan::seeded(21).inject("qrc.slot_death", FaultSpec::first(1));
        let qrc = Arc::new(chaos_qrc(2, plan));
        // The long task lands on slot 0, kills it and requeues onto slot 1.
        let long = spawn_execute(&qrc, long_task());
        spin_until(|| qrc.slot_snapshot() == SlotSnapshot { total: 2, dead: 1, busy: 1 });
        // The next one passes dead slot 0, finds slot 1 busy and parks.
        let tiny = spawn_execute(&qrc, ghz_task(3, BackendSpec::of("nwqsim", "cpu")));
        spin_until(|| qrc.pool.lock().waiting == 1);
        assert_eq!(qrc.revive_slots(), 1);
        tiny.join().unwrap();
        assert_eq!(qrc.tasks_per_slot(), vec![1, 0], "ran on the revived slot");
        long.join().unwrap();
        assert_eq!(qrc.tasks_per_slot(), vec![1, 1]);
    }

    #[test]
    fn concurrent_tasks_complete_and_balance() {
        let qrc = qrc(4, DispatchPolicy::RoundRobin);
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
        use qfw_chaos::FaultSpec;
        let qrc = chaos_qrc(3, FaultPlan::seeded(21).inject("qrc.slot_death", FaultSpec::first(1)));
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
        use qfw_chaos::FaultSpec;
        let qrc = chaos_qrc(2, FaultPlan::seeded(2).inject("qrc.slot_death", FaultSpec::always()));
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
        use qfw_chaos::FaultSpec;
        let qrc = chaos_qrc(3, FaultPlan::seeded(21).inject("qrc.slot_death", FaultSpec::first(1)));
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

    /// A bound template naming a qubit or clbit outside its register is a
    /// marshal error at admission, never a panic inside a slot.
    #[test]
    fn out_of_range_template_operands_are_refused_before_a_slot() {
        let qrc = qrc(1, DispatchPolicy::RoundRobin);
        for body in ["h q7\nrx(@0) q0\n", "rx(@0) q0\nmeasure q0 -> c9\n"] {
            let task = ExecTask {
                circuit: format!("qfwasm-param 1\nqubits 2\n{body}bind 0.1\n"),
                shots: 16,
                seed: 1,
                spec: BackendSpec::of("nwqsim", "cpu"),
            };
            let refusal = qrc.execute(&task).unwrap_err();
            assert!(
                matches!(&refusal, QfwError::Marshal(why) if why.contains("out of range")),
                "{body}: {refusal:?}"
            );
        }
        assert_eq!(qrc.engine_invocations(), 0);
        assert_eq!(qrc.tasks_per_slot(), vec![0]);
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
