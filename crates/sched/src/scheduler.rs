//! The scheduler runtime: job admission and queue admission at submit,
//! dispatch by whichever thread changed what can run, a small set of parked
//! runner threads executing batches inside a bounded dispatch window, and
//! elastic pool scaling on a timer.
//!
//! ## Who dispatches, who runs
//!
//! A job's turnaround is hand-offs, with no timer on the path: *the thread
//! that changes the state does the next step itself*. `dispatch_round`
//! (pop under DRR, coalesce batch mates, fill the window) is called under
//! the state lock by `enqueue` (new work — on the submitter's thread),
//! `resume`, and a runner that has just finished a batch (a freed window
//! position). A dispatched batch goes onto `ready` and a runner parked on
//! `run_cv` — a condvar of the same state mutex — is woken for it; a runner
//! that finishes a batch takes the next one itself without being woken.
//! Runners are spawned lazily, only when the window holds more batches than
//! there are runners, so there are never more than the window's high-water
//! mark; they survive an engine panic (caught in `run_batch`) and end at
//! [`Scheduler::shutdown`], which joins them, or when the last handle drops.
//!
//! The dispatcher thread keeps what is periodic, once per
//! [`SchedConfig::tick`]: the scaling tick, a dispatch round for whatever
//! a pool change or a slot coming back to life made room for, and the
//! gauges. No job waits for it.
//!
//! ## Job table
//!
//! A job has exactly one record (`JobRecord`: tenant, dispatch sequence,
//! state, timing, parked waiters), created by `enqueue` and keyed by its id
//! in the one `jobs` table. Every terminal transition — executed, failed,
//! cancelled, drained at shutdown — goes through `Inner::finish`, which
//! also hands a finished result to whoever asked for it at `enqueue` (the
//! ingress's result cache), sharing the one `Arc<QfwResult>` the record
//! keeps. Terminal records are retained for the last [`JOB_RETENTION`]
//! finishes; an id evicted from that ring answers like an id the scheduler
//! never issued ([`JobStatus::Unknown`], no timing).
//!
//! A record's waiters are [`Scheduler::on_terminal`] registrations — the
//! ingress's parked `wait` replies. Only live records hold any, at most
//! [`WAITERS_PER_JOB`] each; `finish` takes them under the lock and calls
//! them after releasing it, after the cache hand-off, on the thread that
//! finished the job, each exactly once with the status `poll` returns from
//! then on. It is the only place a parked waiter is answered from.
//!
//! ## Dispatch window
//!
//! At most as many batches are in flight as the QRC has *live* slots (from
//! [`qfw::Qrc::slot_snapshot`]) — dead slots shrink the window, so under
//! chaos the scheduler stops over-committing instead of piling blocked
//! dispatches onto a dying pool.
//!
//! ## Elastic scaling
//!
//! With a [`ScalingConfig`], the dispatcher watches queue depth each tick
//! — a tick of the [`SchedConfig::tick`] timer, never a submission or a
//! completion. Depth at or above `scale_up_depth` for `up_ticks`
//! consecutive ticks grows the pool by `step` slots (bounded by
//! `max_workers` and by free cores in the hetgroup); depth at or below
//! `scale_down_depth` for `down_ticks` ticks shrinks idle slots back toward
//! the base pool. The two streak counters are the hysteresis: a flapping
//! queue resets them and the pool holds steady, and a burst that drains
//! inside one tick is never a streak.

use crate::queue::{AdmitError, FairQueue, QueuedJob};
use crate::{CancelOutcome, JobEnvelope, JobId, JobStatus, OverloadScope, Priority, SchedError};
use parking_lot::{Condvar, Mutex};
use qfw::{BackendSpec, QfwResult, QfwSession, Qrc, ResolvedJob, ResultCache, Source};
use qfw_circuit::ContentHash;
use qfw_obs::{AttrValue, Obs};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-tenant fair-share configuration.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Tenant name (the `JobEnvelope.tenant` key).
    pub name: String,
    /// DRR weight: relative service share versus other tenants.
    pub weight: u32,
    /// Maximum queued (undispatched) jobs before admission rejects.
    pub quota: usize,
}

impl TenantConfig {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, weight: u32, quota: usize) -> Self {
        TenantConfig {
            name: name.into(),
            weight,
            quota,
        }
    }
}

/// Elastic worker-scaling thresholds (hysteresis via tick streaks).
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// Upper bound on the pool (the base pool is the lower bound).
    pub max_workers: usize,
    /// Queue depth at or above this arms scale-up.
    pub scale_up_depth: usize,
    /// Queue depth at or below this arms scale-down.
    pub scale_down_depth: usize,
    /// Consecutive armed ticks required before growing.
    pub up_ticks: u32,
    /// Consecutive armed ticks required before shrinking.
    pub down_ticks: u32,
    /// Slots added/removed per scaling action.
    pub step: usize,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            max_workers: 16,
            scale_up_depth: 8,
            scale_down_depth: 1,
            up_ticks: 3,
            down_ticks: 10,
            step: 1,
        }
    }
}

/// Scheduler configuration, passed to [`Scheduler::start`] /
/// [`Scheduler::attach`].
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Explicitly configured tenants; others get the defaults below.
    pub tenants: Vec<TenantConfig>,
    /// DRR weight for unconfigured tenants.
    pub default_weight: u32,
    /// Quota for unconfigured tenants.
    pub default_quota: usize,
    /// Global queued-job bound; beyond it every submit is rejected with
    /// [`SchedError::Overloaded`].
    pub max_queue_depth: usize,
    /// Maximum jobs coalesced into one engine invocation; `1` disables
    /// batching.
    pub max_batch: usize,
    /// Elastic pool scaling; `None` keeps the pool fixed.
    pub scaling: Option<ScalingConfig>,
    /// Dispatcher wake interval (scaling ticks happen at this cadence).
    pub tick: Duration,
    /// Start with dispatch paused (submissions queue up); call
    /// [`Scheduler::resume`] to begin serving. Useful for tests and for
    /// pre-loading a sweep so batching sees the whole queue.
    pub start_paused: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            tenants: Vec::new(),
            default_weight: 1,
            default_quota: 64,
            max_queue_depth: 256,
            max_batch: 1,
            scaling: None,
            tick: Duration::from_millis(2),
            start_paused: false,
        }
    }
}

/// Timestamps of one job's flow through the scheduler (scheduler epoch,
/// µs).
#[derive(Clone, Copy, Debug, Default)]
pub struct JobTiming {
    /// When the job was admitted.
    pub submitted_us: u64,
    /// When it left the queue for a runner.
    pub dispatched_us: u64,
    /// When its result was recorded.
    pub completed_us: u64,
}

impl JobTiming {
    /// Queue wait: admission → dispatch.
    pub fn wait_us(&self) -> u64 {
        self.dispatched_us.saturating_sub(self.submitted_us)
    }

    /// Service: dispatch → completion.
    pub fn service_us(&self) -> u64 {
        self.completed_us.saturating_sub(self.dispatched_us)
    }
}

/// Aggregate counters, exposed locally and over the `stats` RPC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Submissions seen (admitted + rejected).
    pub submitted: u64,
    /// Submissions admitted into the queue.
    pub admitted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Jobs handed to runners.
    pub dispatched: u64,
    /// Multi-job engine invocations.
    pub batches: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed in execution.
    pub failed: u64,
    /// Jobs cancelled before dispatch.
    pub cancelled: u64,
    /// Scale-up actions taken.
    pub scale_ups: u64,
    /// Scale-down actions taken.
    pub scale_downs: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Batches currently executing.
    pub in_flight: u64,
    /// Current QRC pool size.
    pub workers: u64,
}

/// How many terminal jobs keep their record. One value is in use: the
/// result cache's default capacity, far beyond the few hundred completions
/// within which every caller reads a job it finished.
pub const JOB_RETENTION: usize = 4096;

/// How many waiters one live record parks. Beyond it a [`Scheduler::on_terminal`]
/// registration is answered at once with the current status, so the memory
/// parked on the job table is bounded by `WAITERS_PER_JOB` × live records
/// (≤ queue depth + window) and a crowd on one job degrades to polling.
pub const WAITERS_PER_JOB: usize = 8;

/// Called exactly once with a job's status: see [`Scheduler::on_terminal`].
type Waiter = Box<dyn FnOnce(&JobStatus) + Send>;

/// Where a finished job's result goes besides its own record: the result
/// cache entry whose key the ingress computed at submit. Travels with the
/// queued job, so a job that never finishes `Done` never fills anything.
pub struct CacheFill {
    /// The cache to fill.
    pub cache: Arc<ResultCache>,
    /// The admitted job's [`ResolvedJob::cache_key`].
    pub key: ContentHash,
}

/// A job's lifecycle state as the record keeps it: [`JobStatus`] with the
/// result shared, so reading it under the state lock copies no result.
#[derive(Clone)]
enum JobState {
    Queued,
    Running,
    Done(Arc<QfwResult>),
    Failed(String),
    Cancelled,
}

impl JobState {
    fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// The wire form; the one copy of the result a `Done` reply needs. Call it
/// after releasing the state lock.
impl From<JobState> for JobStatus {
    fn from(state: JobState) -> JobStatus {
        match state {
            JobState::Queued => JobStatus::Queued,
            JobState::Running => JobStatus::Running,
            JobState::Done(result) => JobStatus::Done((*result).clone()),
            JobState::Failed(msg) => JobStatus::Failed(msg),
            JobState::Cancelled => JobStatus::Cancelled,
        }
    }
}

/// Everything the scheduler knows about one job.
struct JobRecord {
    tenant: String,
    /// Position in dispatch order (`SchedStats.dispatched` when the job
    /// left the queue); `None` until then.
    dispatch_seq: Option<u64>,
    state: JobState,
    timing: JobTiming,
    /// Parked [`Scheduler::on_terminal`] registrations, at most
    /// [`WAITERS_PER_JOB`]; `finish` takes and calls them.
    waiters: Vec<Waiter>,
}

struct SchedState {
    queue: FairQueue,
    /// The one job table: every live job, plus the terminal ones whose id
    /// is still in `terminal`.
    jobs: HashMap<JobId, JobRecord>,
    /// Ids of terminal jobs, oldest first, at most [`JOB_RETENTION`].
    terminal: VecDeque<JobId>,
    /// Batches dispatched (counted in `in_flight`) and not yet picked up by
    /// a runner.
    ready: VecDeque<Vec<QueuedJob>>,
    /// Every runner spawned so far; joined by `shutdown`.
    runners: Vec<std::thread::JoinHandle<()>>,
    /// Runners not executing a batch: parked, starting, or between batches.
    idle_runners: usize,
    in_flight: usize,
    paused: bool,
    shutdown: bool,
    stats: SchedStats,
    /// Recent service times (µs) for the `retry_after` estimate.
    recent_service_us: VecDeque<u64>,
    up_streak: u32,
    down_streak: u32,
}

struct Inner {
    qrc: Arc<Qrc>,
    obs: Obs,
    cfg: SchedConfig,
    state: Mutex<SchedState>,
    /// Ends the dispatcher's tick wait early (shutdown).
    work_cv: Condvar,
    /// Wakes a parked runner (a batch in `ready`, shutdown).
    run_cv: Condvar,
    /// Wakes [`Scheduler::wait`]/`drain`/`shutdown` on job completion.
    done_cv: Condvar,
    next_id: AtomicU64,
    epoch: Instant,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The one place a job becomes terminal (`outcome` is `Done`, `Failed`
    /// or `Cancelled`): stamps the timing, bumps the counters, retires the
    /// oldest terminal record beyond [`JOB_RETENTION`], and answers the
    /// record's parked waiters — the only place they are answered from —
    /// after releasing the lock. A `Done` result reaches `on_done` first,
    /// outside the state lock and *before* the record says `Done` — whoever
    /// observes `Done` and resubmits finds the entry.
    fn finish(&self, id: JobId, outcome: JobState, on_done: Option<CacheFill>) {
        if let (JobState::Done(result), Some(fill)) = (&outcome, on_done) {
            fill.cache.insert(fill.key, Arc::clone(result));
        }
        let now = self.now_us();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // Live records are never evicted, so the job is always here.
        let Some(rec) = st.jobs.get_mut(&id) else { return };
        rec.timing.completed_us = now;
        if rec.dispatch_seq.is_some() {
            let (wait_us, service_us) = (rec.timing.wait_us(), rec.timing.service_us());
            if self.obs.is_enabled() {
                let tenant = &rec.tenant;
                self.obs
                    .histogram(&format!("sched.wait_us.{tenant}"))
                    .observe_us(wait_us);
                self.obs
                    .histogram(&format!("sched.service_us.{tenant}"))
                    .observe_us(service_us);
            }
            st.recent_service_us.push_back(service_us);
            if st.recent_service_us.len() > 64 {
                st.recent_service_us.pop_front();
            }
        }
        match &outcome {
            JobState::Done(r) => {
                st.stats.completed += 1;
                if self.obs.is_enabled() {
                    // Per-engine service time (gate application + sampling):
                    // the measured ground truth the planner's cost model is
                    // judged against, keyed the way the planner keys its
                    // EWMA corrections.
                    self.obs
                        .histogram(&format!("sched.engine_us.{}/{}", r.backend, r.subbackend))
                        .observe_secs(r.profile.exec_secs + r.profile.sample_secs);
                    self.obs.counter("sched.completed").inc();
                }
            }
            JobState::Failed(_) => {
                st.stats.failed += 1;
                if self.obs.is_enabled() {
                    self.obs.counter("sched.failed").inc();
                }
            }
            JobState::Cancelled => st.stats.cancelled += 1,
            JobState::Queued | JobState::Running => unreachable!("finish takes a terminal state"),
        }
        let waiters = std::mem::take(&mut rec.waiters);
        rec.state = outcome.clone();
        st.terminal.push_back(id);
        if st.terminal.len() > JOB_RETENTION {
            let oldest = st.terminal.pop_front().expect("ring is non-empty");
            st.jobs.remove(&oldest);
        }
        drop(guard);
        self.done_cv.notify_all();
        if !waiters.is_empty() {
            let status = JobStatus::from(outcome);
            waiters.into_iter().for_each(|waiter| waiter(&status));
        }
    }
}

/// Handle to a running scheduler. Cloning shares the instance (the RPC
/// service holds clones); [`Scheduler::shutdown`] stops it explicitly.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
    /// Shared by every clone and by nothing else: its drop is "the last
    /// handle is gone".
    _owner: Arc<Owner>,
}

/// Ends the scheduler's threads when the last [`Scheduler`] handle drops
/// without [`Scheduler::shutdown`]. The dispatcher and the runners own the
/// `Inner` they park on, so nothing else would ever wake them: this marks
/// the state shut down and does. It waits for nothing and cancels nothing
/// — with no handle left there is nobody to tell.
struct Owner(Arc<Inner>);

impl Drop for Owner {
    fn drop(&mut self) {
        self.0.state.lock().shutdown = true;
        self.0.work_cv.notify_all();
        self.0.run_cv.notify_all();
    }
}

impl Scheduler {
    /// Starts a scheduler over a QRC pool. Its threads exit on
    /// [`Scheduler::shutdown`] or once every handle is dropped.
    pub fn start(qrc: Arc<Qrc>, obs: Obs, cfg: SchedConfig) -> Scheduler {
        let mut queue = FairQueue::new(cfg.max_queue_depth, cfg.default_weight, cfg.default_quota);
        for t in &cfg.tenants {
            queue.set_tenant(&t.name, t.weight, t.quota);
        }
        let paused = cfg.start_paused;
        let inner = Arc::new(Inner {
            qrc,
            obs,
            cfg,
            state: Mutex::new(SchedState {
                queue,
                jobs: HashMap::new(),
                terminal: VecDeque::new(),
                ready: VecDeque::new(),
                runners: Vec::new(),
                idle_runners: 0,
                in_flight: 0,
                paused,
                shutdown: false,
                stats: SchedStats::default(),
                recent_service_us: VecDeque::new(),
                up_streak: 0,
                down_streak: 0,
            }),
            work_cv: Condvar::new(),
            run_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            dispatcher: Mutex::new(None),
        });
        let dispatcher = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("qfw-sched".into())
            .spawn(move || dispatcher_loop(&dispatcher))
            .expect("spawn scheduler dispatcher");
        *inner.dispatcher.lock() = Some(handle);
        let _owner = Arc::new(Owner(Arc::clone(&inner)));
        Scheduler { inner, _owner }
    }

    /// Starts a scheduler on a live session's QRC, reporting into the
    /// session's observability handle. Remote clients reach it through a
    /// [`crate::SchedIngress`] started over it.
    pub fn attach(session: &QfwSession, cfg: SchedConfig) -> Scheduler {
        Scheduler::start(Arc::clone(session.qrc()), session.obs().clone(), cfg)
    }

    /// Submits a job: [`Scheduler::admit`], then [`Scheduler::enqueue`].
    /// Returns the job id, a typed [`SchedError::Unrunnable`] refusal when
    /// the job can never execute on this pool, or the typed
    /// [`SchedError::Overloaded`] rejection — this call never blocks on a
    /// full queue.
    pub fn submit(&self, env: JobEnvelope) -> Result<JobId, SchedError> {
        let job = self.admit(Source::Wire(&env.circuit), env.shots, env.seed, &env.spec)?;
        self.enqueue(env.tenant, env.priority, env.deadline_ms, job, None)
    }

    /// Admits a job against this scheduler's pool ([`qfw::Qrc::admit`]):
    /// circuit parsed, spec resolved, every refusal that either can cause
    /// made here — before a job id, record or queue entry exists. The
    /// strings stop at this call.
    pub fn admit(
        &self,
        source: Source<'_>,
        shots: usize,
        seed: u64,
        spec: &BackendSpec,
    ) -> Result<ResolvedJob, SchedError> {
        let admitted = self.inner.qrc.admit(source, shots, seed, spec);
        admitted.map_err(SchedError::Unrunnable)
    }

    /// Queues an admitted job under fair-share admission control. If the
    /// job finishes `Done`, `on_done` receives the result (shared with the
    /// job's record) before any poll can observe the completion.
    pub fn enqueue(
        &self,
        tenant: String,
        priority: Priority,
        deadline_ms: Option<u64>,
        job: ResolvedJob,
        on_done: Option<CacheFill>,
    ) -> Result<JobId, SchedError> {
        let inner = &self.inner;
        let now = inner.now_us();
        let deadline_us = deadline_ms
            .map(|ms| now.saturating_add(ms.saturating_mul(1000)))
            .unwrap_or(u64::MAX);
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        // Built (and its batching key hashed) outside the state lock.
        let mut queued = QueuedJob::new(id, tenant.clone(), priority, job, deadline_us);
        queued.on_done = on_done;
        let mut st = inner.state.lock();
        if st.shutdown {
            return Err(SchedError::Shutdown);
        }
        st.stats.submitted += 1;
        match st.queue.try_push(queued) {
            Ok(()) => {
                st.stats.admitted += 1;
                st.jobs.insert(
                    id,
                    JobRecord {
                        tenant: tenant.clone(),
                        dispatch_seq: None,
                        state: JobState::Queued,
                        timing: JobTiming {
                            submitted_us: now,
                            ..JobTiming::default()
                        },
                        waiters: Vec::new(),
                    },
                );
                if inner.obs.is_enabled() {
                    inner.obs.counter("sched.admitted").inc();
                    inner.obs.gauge("sched.queue_depth").set(st.queue.len() as f64);
                    inner.obs.instant_with(
                        "sched",
                        "sched.admit",
                        &[("tenant", AttrValue::Str(tenant))],
                    );
                }
                dispatch_round(inner, &mut st);
                Ok(id)
            }
            Err(kind) => {
                st.stats.rejected += 1;
                let scope = match kind {
                    AdmitError::QueueFull => OverloadScope::Queue,
                    AdmitError::TenantQuota => OverloadScope::Tenant,
                };
                let retry_after = estimate_retry_after(&st, inner);
                if inner.obs.is_enabled() {
                    inner.obs.counter("sched.rejected").inc();
                    inner.obs.instant_with(
                        "sched",
                        "sched.reject",
                        &[
                            ("tenant", AttrValue::Str(tenant)),
                            ("scope", AttrValue::Str(format!("{scope:?}"))),
                            (
                                "retry_after_ms",
                                AttrValue::Int(retry_after.as_millis() as i64),
                            ),
                        ],
                    );
                }
                Err(SchedError::Overloaded { retry_after, scope })
            }
        }
    }

    /// Current status of a job (non-blocking).
    pub fn poll(&self, id: JobId) -> JobStatus {
        let state = self.inner.state.lock().jobs.get(&id).map(|r| r.state.clone());
        state.map_or(JobStatus::Unknown, JobStatus::from)
    }

    /// Blocks until the job reaches a terminal state or `timeout`
    /// elapses; returns the status either way.
    pub fn wait(&self, id: JobId, timeout: Duration) -> JobStatus {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        let state = loop {
            let state = st.jobs.get(&id).map(|r| r.state.clone());
            let now = Instant::now();
            if state.as_ref().is_none_or(JobState::is_terminal) || now >= deadline {
                break state;
            }
            self.inner.done_cv.wait_for(&mut st, deadline - now);
        };
        drop(st);
        state.map_or(JobStatus::Unknown, JobStatus::from)
    }

    /// Calls `waiter` exactly once with the job's status. At once, on this
    /// thread, when there is nothing to wait for — the id is unknown or
    /// evicted ([`JobStatus::Unknown`]), or already terminal — or when the
    /// record already parks [`WAITERS_PER_JOB`] waiters (the current,
    /// non-terminal status: ask again). Otherwise the waiter is parked on
    /// the record and called by the thread that finishes the job, with the
    /// status [`Scheduler::poll`] would return from then on.
    pub fn on_terminal(&self, id: JobId, waiter: impl FnOnce(&JobStatus) + Send + 'static) {
        let mut st = self.inner.state.lock();
        let now = match st.jobs.get_mut(&id) {
            None => None,
            Some(rec) if !rec.state.is_terminal() && rec.waiters.len() < WAITERS_PER_JOB => {
                rec.waiters.push(Box::new(waiter));
                return;
            }
            Some(rec) => Some(rec.state.clone()),
        };
        drop(st);
        waiter(&now.map_or(JobStatus::Unknown, JobStatus::from));
    }

    /// Cancels a queued job. Running or finished jobs report
    /// [`CancelOutcome::TooLate`].
    pub fn cancel(&self, id: JobId) -> CancelOutcome {
        let mut st = self.inner.state.lock();
        if !st.jobs.contains_key(&id) {
            return CancelOutcome::Unknown;
        }
        // The queue decides: a job it no longer holds has been dispatched.
        if st.queue.remove(id).is_none() {
            return CancelOutcome::TooLate;
        }
        drop(st);
        self.inner.finish(id, JobState::Cancelled, None);
        CancelOutcome::Cancelled
    }

    /// Resumes dispatch.
    pub fn resume(&self) {
        let mut st = self.inner.state.lock();
        st.paused = false;
        dispatch_round(&self.inner, &mut st);
    }

    /// Aggregate counters plus live depth/in-flight/pool-size readings.
    pub fn stats(&self) -> SchedStats {
        let st = self.inner.state.lock();
        let mut s = st.stats;
        s.queue_depth = st.queue.len() as u64;
        s.in_flight = st.in_flight as u64;
        s.workers = self.inner.qrc.workers() as u64;
        s
    }

    /// Tenants of dispatched jobs, in dispatch order — the fairness
    /// ledger: a length-K prefix of a saturated run shows each tenant's
    /// service share. Read off the retained records, so it covers the jobs
    /// in flight plus the last [`JOB_RETENTION`] finished.
    pub fn dispatch_log(&self) -> Vec<String> {
        let st = self.inner.state.lock();
        let mut dispatched: Vec<(u64, String)> = st
            .jobs
            .values()
            .filter_map(|r| Some((r.dispatch_seq?, r.tenant.clone())))
            .collect();
        drop(st);
        dispatched.sort_unstable_by_key(|(seq, _)| *seq);
        dispatched.into_iter().map(|(_, tenant)| tenant).collect()
    }

    /// Flow timestamps of a job, while the scheduler has its record.
    pub fn job_timing(&self, id: JobId) -> Option<JobTiming> {
        self.inner.state.lock().jobs.get(&id).map(|r| r.timing)
    }

    /// Blocks until the queue and dispatch window are both empty or the
    /// timeout elapses; returns whether fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            if st.queue.is_empty() && st.in_flight == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner.done_cv.wait_for(&mut st, deadline - now);
        }
    }

    /// Stops the scheduler: running batches finish, queued jobs are
    /// marked [`JobStatus::Cancelled`], the dispatcher and the runners join.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        let queued = {
            let mut st = inner.state.lock();
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            st.queue.drain_all()
        };
        for job in queued {
            inner.finish(job.id, JobState::Cancelled, None);
        }
        let runners = {
            // Let in-flight runners finish (they hold no state lock while
            // executing); their results are still recorded.
            let mut st = inner.state.lock();
            while st.in_flight > 0 {
                inner.done_cv.wait_for(&mut st, Duration::from_millis(50));
            }
            std::mem::take(&mut st.runners)
        };
        inner.work_cv.notify_all();
        inner.run_cv.notify_all();
        inner.done_cv.notify_all();
        let dispatcher = inner.dispatcher.lock().take();
        // An engine panic is caught in `run_batch`, so a join error here is
        // a scheduler bug; the threads are gone either way.
        for handle in dispatcher.into_iter().chain(runners) {
            let _ = handle.join();
        }
    }
}

/// Backoff hint for a rejected submission: how long until the backlog
/// plausibly clears one queue position, from recent service times and
/// live parallelism.
fn estimate_retry_after(st: &SchedState, inner: &Inner) -> Duration {
    let avg_us = if st.recent_service_us.is_empty() {
        5_000
    } else {
        st.recent_service_us.iter().sum::<u64>() / st.recent_service_us.len() as u64
    };
    let live = inner.qrc.slot_snapshot().live();
    let backlog = st.queue.len() as u64 + st.in_flight as u64 + 1;
    retry_after_hint(avg_us, live, backlog)
}

/// The pure arithmetic behind [`estimate_retry_after`], factored out so
/// the degenerate inputs are testable without a live pool. `live_slots`
/// can genuinely be zero — an elastic shrink (or chaos killing slots) can
/// drain the pool between the snapshot and this call — so it is clamped
/// before dividing, and the product saturates instead of wrapping. The
/// result stays within [1ms, 60s].
pub fn retry_after_hint(avg_us: u64, live_slots: usize, backlog: u64) -> Duration {
    let live = live_slots.max(1) as u64;
    let positions = backlog.max(1).div_ceil(live);
    Duration::from_micros(avg_us.saturating_mul(positions).clamp(1_000, 60_000_000))
}

/// The periodic half of the scheduler, one pass per `SchedConfig.tick`:
/// the scaling tick, a dispatch round for whatever the pool change (or a
/// slot coming back to life) made room for, and the gauges. Jobs do not
/// wait for it — `enqueue`, `resume` and a finishing runner dispatch
/// themselves.
fn dispatcher_loop(inner: &Arc<Inner>) {
    let mut st = inner.state.lock();
    while !st.shutdown {
        if !st.paused {
            if let Some(scaling) = &inner.cfg.scaling {
                scaling_tick(inner, &mut st, scaling);
            }
            dispatch_round(inner, &mut st);
        }
        if inner.obs.is_enabled() {
            inner.obs.gauge("sched.queue_depth").set(st.queue.len() as f64);
            inner
                .obs
                .gauge("sched.workers")
                .set(inner.qrc.workers() as f64);
        }
        inner.work_cv.wait_for(&mut st, inner.cfg.tick);
    }
}

/// One hysteresis tick: arm/advance/reset the scale streaks and act when
/// a streak crosses its threshold.
fn scaling_tick(inner: &Inner, st: &mut SchedState, scaling: &ScalingConfig) {
    let depth = st.queue.len();
    let workers = inner.qrc.workers();
    if depth >= scaling.scale_up_depth && workers < scaling.max_workers {
        st.up_streak += 1;
        st.down_streak = 0;
        if st.up_streak >= scaling.up_ticks {
            st.up_streak = 0;
            let step = scaling.step.min(scaling.max_workers - workers);
            if let Ok(added) = inner.qrc.grow_slots(step) {
                if added > 0 {
                    st.stats.scale_ups += 1;
                    if inner.obs.is_enabled() {
                        inner.obs.counter("sched.scale_up").inc();
                        inner.obs.instant_with(
                            "sched",
                            "sched.scale",
                            &[
                                ("direction", AttrValue::Str("up".into())),
                                ("workers", AttrValue::Int((workers + added) as i64)),
                            ],
                        );
                    }
                }
            }
        }
    } else if depth <= scaling.scale_down_depth && workers > inner.qrc.base_workers() {
        st.down_streak += 1;
        st.up_streak = 0;
        if st.down_streak >= scaling.down_ticks {
            st.down_streak = 0;
            let removed = inner.qrc.shrink_slots(scaling.step);
            if removed > 0 {
                st.stats.scale_downs += 1;
                if inner.obs.is_enabled() {
                    inner.obs.counter("sched.scale_down").inc();
                    inner.obs.instant_with(
                        "sched",
                        "sched.scale",
                        &[
                            ("direction", AttrValue::Str("down".into())),
                            ("workers", AttrValue::Int((workers - removed) as i64)),
                        ],
                    );
                }
            }
        }
    } else {
        st.up_streak = 0;
        st.down_streak = 0;
    }
}

/// Fills the dispatch window: pop under DRR, coalesce batch mates, hand
/// each batch to a runner. Called, under the state lock, by whoever just
/// changed what can be dispatched: `enqueue` (new work), `resume`, a runner
/// done with its batch (freed window), and the dispatcher's tick.
fn dispatch_round(inner: &Arc<Inner>, st: &mut SchedState) {
    if st.paused || st.shutdown {
        return;
    }
    let window = inner.qrc.slot_snapshot().live().max(1);
    while st.in_flight < window {
        let Some(job) = st.queue.pop() else { break };
        let mut batch = vec![job];
        if inner.cfg.max_batch > 1 {
            let lead = &batch[0];
            let mates = st.queue.pop_batch_mates(
                &lead.tenant,
                lead.priority.class(),
                lead.skeleton,
                inner.cfg.max_batch - 1,
            );
            batch.extend(mates);
        }
        let now = inner.now_us();
        for j in &batch {
            if let Some(rec) = st.jobs.get_mut(&j.id) {
                rec.state = JobState::Running;
                rec.timing.dispatched_us = now;
                rec.dispatch_seq = Some(st.stats.dispatched);
            }
            st.stats.dispatched += 1;
        }
        if batch.len() > 1 {
            st.stats.batches += 1;
            if inner.obs.is_enabled() {
                inner.obs.counter("sched.batches").inc();
                inner.obs.instant_with(
                    "sched",
                    "sched.batch",
                    &[
                        ("tenant", AttrValue::Str(batch[0].tenant.clone())),
                        ("size", AttrValue::Int(batch.len() as i64)),
                    ],
                );
            }
        }
        st.in_flight += 1;
        st.ready.push_back(batch);
        if st.ready.len() <= st.idle_runners {
            // Every idle runner looks at `ready` before it parks, so an
            // extra wake is harmless and a missing one impossible.
            inner.run_cv.notify_one();
        } else {
            // More batches than runners to take them: the window has never
            // been this full, so this is reached window-many times at most.
            st.idle_runners += 1;
            let runner = Arc::clone(inner);
            let runner = std::thread::Builder::new()
                .name("qfw-sched-run".into())
                .spawn(move || runner_loop(&runner))
                .expect("spawn scheduler runner");
            st.runners.push(runner);
        }
    }
}

/// A runner: takes dispatched batches off `ready` and executes them, and
/// parks on `run_cv` in between, until `shutdown` (or the last handle's
/// drop, see [`Owner`]) ends it.
fn runner_loop(inner: &Arc<Inner>) {
    let mut st = inner.state.lock();
    loop {
        let Some(batch) = st.ready.pop_front() else {
            if st.shutdown {
                return;
            }
            inner.run_cv.wait(&mut st);
            continue;
        };
        st.idle_runners -= 1;
        drop(st);
        run_batch(inner, batch);
        st = inner.state.lock();
        st.in_flight -= 1;
        st.idle_runners += 1;
        dispatch_round(inner, &mut st);
        inner.done_cv.notify_all();
    }
}

/// Executes one batch on the QRC (single slot acquisition, single engine
/// invocation) and finishes each job with its outcome. An engine panic
/// comes back from [`Qrc::run_many`] as the whole batch failing, so one bad
/// job cannot cost a runner or wedge `shutdown`.
fn run_batch(inner: &Arc<Inner>, batch: Vec<QueuedJob>) {
    let (owners, jobs): (Vec<(JobId, Option<CacheFill>)>, Vec<ResolvedJob>) =
        batch.into_iter().map(|q| ((q.id, q.on_done), q.job)).unzip();
    let results = inner.qrc.run_many(&jobs);
    for ((id, on_done), result) in owners.into_iter().zip(results) {
        let outcome = match result {
            Ok(r) => JobState::Done(Arc::new(r)),
            Err(e) => JobState::Failed(e.to_string()),
        };
        inner.finish(id, outcome, on_done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Priority;
    use qfw::registry::BackendRegistry;
    use qfw::{DispatchPolicy, QfwError};
    use qfw_chaos::{FaultPlan, FaultSpec};
    use qfw_circuit::Circuit;
    use qfw_hpc::slurm::{HetJob, HetJobSpec};
    use qfw_hpc::{ClusterSpec, Dvm};

    fn qrc(workers: usize) -> Arc<Qrc> {
        Arc::new(unshared_qrc(workers))
    }

    fn unshared_qrc(workers: usize) -> Qrc {
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            workers,
            DispatchPolicy::RoundRobin,
        )
    }

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    /// A one-slot QRC on which the job admission accepted as engine
    /// invocation `nth` (from 0) fails at run time: the `qrc.engine_panic`
    /// chaos site panics there, as an engine would.
    fn fails_at_run_time(nth: u64) -> Arc<Qrc> {
        let chaos = FaultPlan::seeded(1).inject("qrc.engine_panic", FaultSpec::first(1).after(nth));
        Arc::new(unshared_qrc(1).with_chaos(Arc::new(chaos)))
    }

    const T: Duration = Duration::from_secs(30);

    #[test]
    fn submit_wait_roundtrip() {
        let sched = Scheduler::start(qrc(2), Obs::disabled(), SchedConfig::default());
        let id = sched
            .submit(JobEnvelope::new("alice", &ghz(4), 100).with_seed(7))
            .unwrap();
        match sched.wait(id, T) {
            JobStatus::Done(r) => assert_eq!(r.counts.values().sum::<usize>(), 100),
            other => panic!("unexpected status {other:?}"),
        }
        let timing = sched.job_timing(id).unwrap();
        assert!(timing.completed_us >= timing.dispatched_us);
        assert_eq!(sched.stats().completed, 1);
        sched.shutdown();
    }

    #[test]
    fn per_engine_service_time_is_recorded() {
        let obs = Obs::wall();
        let sched = Scheduler::start(qrc(2), obs.clone(), SchedConfig::default());
        let id = sched
            .submit(
                JobEnvelope::new("alice", &ghz(4), 50)
                    .with_spec(qfw::BackendSpec::of("nwqsim", "cpu")),
            )
            .unwrap();
        assert!(matches!(sched.wait(id, T), JobStatus::Done(_)));
        let hist = obs.histogram("sched.engine_us.nwqsim/cpu");
        assert_eq!(hist.count(), 1);
        assert!(hist.mean_us() >= 0.0);
        sched.shutdown();
    }

    #[test]
    fn unknown_job_polls_unknown() {
        let sched = Scheduler::start(qrc(1), Obs::disabled(), SchedConfig::default());
        assert!(matches!(sched.poll(999), JobStatus::Unknown));
        sched.shutdown();
    }

    #[test]
    fn cancel_before_dispatch() {
        let sched = Scheduler::start(
            qrc(1),
            Obs::disabled(),
            SchedConfig {
                start_paused: true,
                ..SchedConfig::default()
            },
        );
        let id = sched.submit(JobEnvelope::new("t", &ghz(3), 10)).unwrap();
        assert_eq!(sched.cancel(id), CancelOutcome::Cancelled);
        assert!(matches!(sched.poll(id), JobStatus::Cancelled));
        assert_eq!(sched.cancel(id), CancelOutcome::TooLate);
        assert_eq!(sched.cancel(12345), CancelOutcome::Unknown);
        sched.shutdown();
    }

    #[test]
    fn shutdown_cancels_queued_jobs() {
        let sched = Scheduler::start(
            qrc(1),
            Obs::disabled(),
            SchedConfig {
                start_paused: true,
                ..SchedConfig::default()
            },
        );
        let id = sched.submit(JobEnvelope::new("t", &ghz(3), 10)).unwrap();
        sched.shutdown();
        assert!(matches!(sched.poll(id), JobStatus::Cancelled));
        assert!(matches!(
            sched.submit(JobEnvelope::new("t", &ghz(3), 10)),
            Err(SchedError::Shutdown)
        ));
    }

    #[test]
    fn failed_execution_is_reported() {
        let qrc = fails_at_run_time(0);
        let sched = Scheduler::start(Arc::clone(&qrc), Obs::disabled(), SchedConfig::default());
        // A job admission accepts but whose engine fails at run time.
        let id = sched.submit(JobEnvelope::new("t", &ghz(3), 10)).unwrap();
        match sched.wait(id, T) {
            JobStatus::Failed(msg) => assert!(msg.contains("injected"), "{msg}"),
            other => panic!("unexpected status {other:?}"),
        }
        assert_eq!(qrc.engine_panics(), 1);
        // One that can never run is refused at submit, with no queue entry.
        let admitted = sched.stats().admitted;
        let env = JobEnvelope::new("t", &ghz(3), 10)
            .with_spec(qfw::BackendSpec::of("bogus", ""));
        assert!(matches!(
            sched.submit(env),
            Err(SchedError::Unrunnable(QfwError::UnknownBackend(_)))
        ));
        assert_eq!(sched.stats().admitted, admitted);
        sched.shutdown();
    }

    /// `on_terminal` calls its waiter exactly once, with what `poll` says:
    /// at once for an id with nothing to wait for, from `finish` for a
    /// parked one — a failed job as much as a finished one.
    #[test]
    fn on_terminal_answers_once_with_the_polled_status() {
        use std::sync::mpsc::channel;
        // `good` runs first on the one slot, then `bad` fails.
        let qrc = fails_at_run_time(1);
        let sched = Scheduler::start(
            Arc::clone(&qrc),
            Obs::disabled(),
            SchedConfig {
                start_paused: true,
                ..SchedConfig::default()
            },
        );
        let (tx, rx) = channel();
        let watch = |id: JobId| {
            let tx = tx.clone();
            sched.on_terminal(id, move |status| tx.send((id, format!("{status:?}"))).unwrap());
        };
        watch(999);
        assert_eq!(rx.try_recv().unwrap(), (999, "Unknown".to_string()));

        let good = sched.submit(JobEnvelope::new("t", &ghz(3), 10)).unwrap();
        let bad = sched
            .submit(JobEnvelope::new("t", &ghz(3), 10).with_seed(2))
            .unwrap();
        for id in [good, bad, good] {
            watch(id);
        }
        assert!(rx.try_recv().is_err(), "queued jobs park their waiters");
        sched.resume();
        let mut answers: Vec<(JobId, String)> = (0..3).map(|_| rx.recv_timeout(T).unwrap()).collect();
        answers.sort();
        let polled = |id| format!("{:?}", sched.poll(id));
        assert_eq!(answers, [(good, polled(good)), (good, polled(good)), (bad, polled(bad))]);
        assert!(answers[2].1.starts_with("Failed"), "{answers:?}");
        assert_eq!(qrc.engine_panics(), 1);
        // Terminal now: answered at once, and nobody is answered twice.
        watch(bad);
        assert_eq!(rx.try_recv().unwrap(), (bad, polled(bad)));
        sched.shutdown();
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn retry_after_hint_guards_drained_pool() {
        // Zero live slots (pool fully drained mid-shrink) must not divide
        // by zero or return a degenerate hint.
        let hint = retry_after_hint(5_000, 0, 10);
        assert!(hint >= Duration::from_millis(1));
        assert!(hint <= Duration::from_secs(60));
        // And it matches the single-slot estimate: everything queues
        // behind one (future) slot.
        assert_eq!(hint, retry_after_hint(5_000, 1, 10));
    }

    #[test]
    fn retry_after_hint_clamps_and_scales() {
        // Floor: tiny service times still back callers off a millisecond.
        assert_eq!(retry_after_hint(1, 4, 1), Duration::from_millis(1));
        // Ceiling: huge backlogs (or saturating products) cap at 60s.
        assert_eq!(retry_after_hint(u64::MAX, 1, u64::MAX), Duration::from_secs(60));
        // In between it scales with queue positions per live slot.
        assert_eq!(
            retry_after_hint(10_000, 2, 8),
            Duration::from_micros(40_000)
        );
        // Zero backlog behaves like one position, not zero.
        assert_eq!(retry_after_hint(10_000, 2, 0), Duration::from_micros(10_000));
    }

    #[test]
    fn priority_and_deadline_order_apply() {
        let sched = Scheduler::start(
            qrc(1),
            Obs::disabled(),
            SchedConfig {
                start_paused: true,
                ..SchedConfig::default()
            },
        );
        let low = sched
            .submit(JobEnvelope::new("t", &ghz(3), 10).with_priority(Priority::Low))
            .unwrap();
        let tight = sched
            .submit(JobEnvelope::new("t", &ghz(3), 10).with_deadline_ms(5))
            .unwrap();
        let loose = sched
            .submit(JobEnvelope::new("t", &ghz(3), 10).with_deadline_ms(60_000))
            .unwrap();
        let high = sched
            .submit(JobEnvelope::new("t", &ghz(3), 10).with_priority(Priority::High))
            .unwrap();
        sched.resume();
        for id in [low, tight, loose, high] {
            assert!(sched.wait(id, T).is_terminal());
        }
        let timings: Vec<u64> = [high, tight, loose, low]
            .iter()
            .map(|id| sched.job_timing(*id).unwrap().dispatched_us)
            .collect();
        assert!(
            timings.windows(2).all(|w| w[0] <= w[1]),
            "dispatch order must be high, tight-deadline, loose-deadline, low: {timings:?}"
        );
        sched.shutdown();
    }
}
