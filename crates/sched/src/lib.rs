//! qfw-sched — the multi-tenant job scheduler.
//!
//! The paper's QPM/QRC dispatch one circuit at a time onto a fixed worker
//! pool; its DQAOA results hinge on overlapping many concurrent sub-QUBO
//! solves. This crate adds the queueing discipline between clients
//! ([`qfw::QfwBackend`]/DEFw) and the execution substrate (QPM/QRC):
//!
//! * **Per-tenant submission channels** carrying [`JobEnvelope`]s
//!   (tenant, priority class, optional deadline, shots, circuit, spec) —
//!   the wire form, read once: [`Scheduler::admit`] turns it into the
//!   owned [`qfw::ResolvedJob`] that the queue holds, the batcher groups
//!   and the QRC runs, or refuses it typed before anything is queued.
//! * **Weighted fair-share scheduling** ([`queue::FairQueue`]): deficit
//!   round-robin across tenants, strict priority classes within a tenant,
//!   deadline-aware EDF tie-break within a class.
//! * **Admission control**: per-tenant quotas and a global queue bound;
//!   over-limit submissions are rejected with a typed
//!   [`SchedError::Overloaded`] carrying a `retry_after` hint — the
//!   scheduler never stalls a submitter.
//! * **Transparent batching** ([`batch`]): identical-skeleton
//!   parameterized circuits coalesce into one engine invocation
//!   ([`qfw::Qrc::run_many`]); each job keeps its own seed and shot
//!   budget, so per-job counts are bitwise identical to unbatched runs.
//! * **Elastic worker scaling**: sustained queue depth beyond hysteresis
//!   thresholds grows the QRC slot pool against SLURM core leases
//!   (`allocate_cores`/`Allocation`), and sustained idleness shrinks it
//!   back to the base pool.
//!
//! The scheduler runs embedded ([`Scheduler::start`]) or attached to a
//! live session ([`Scheduler::attach`]). Its one RPC front door is
//! [`ingress::SchedIngress`] (`submit`/`poll`/`wait`/`cancel`/`stats`):
//! the pipelined multiplexed transport from [`qfw_defw::ingress`] plus a
//! content-addressed [`qfw::ResultCache`], so repeat submissions are
//! answered from the cache (bitwise identical counts) without consuming
//! admission or engine capacity, and a `wait` is answered by the thread
//! that finishes the job.

pub mod batch;
pub mod ingress;
pub mod queue;
mod scheduler;

pub use ingress::{IngressSubmitOutcome, SchedIngress, SchedIngressConfig};
pub use queue::{AdmitError, FairQueue, QueuedJob};
pub use scheduler::{
    retry_after_hint, CacheFill, JobTiming, ScalingConfig, SchedConfig, SchedStats, Scheduler,
    TenantConfig, JOB_RETENTION, WAITERS_PER_JOB,
};

use qfw::{BackendSpec, QfwError, QfwResult};
use qfw_circuit::{text, Circuit, ParamCircuit};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Scheduler-assigned job identifier, unique within one scheduler.
pub type JobId = u64;

/// Strict priority class within a tenant: every queued `High` job of a
/// tenant dispatches before any of its `Normal` jobs, and so on. Priority
/// never crosses tenants — fairness between tenants is the DRR weights'
/// job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Served first within the tenant.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when the tenant has nothing more urgent.
    Low,
}

impl Priority {
    /// The class index (0 = most urgent).
    pub fn class(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// One job as submitted to the scheduler: the tenant channel it arrives
/// on plus everything the QRC needs to execute it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobEnvelope {
    /// Submitting tenant (fair-share accounting key).
    pub tenant: String,
    /// Priority class within the tenant.
    pub priority: Priority,
    /// Relative deadline in milliseconds; jobs with earlier deadlines win
    /// ties within a priority class (EDF). `None` sorts after every
    /// deadline-carrying job, FIFO among themselves.
    pub deadline_ms: Option<u64>,
    /// Measurement shots.
    pub shots: usize,
    /// Sampling seed, preserved verbatim through batching.
    pub seed: u64,
    /// Circuit in the `qfwasm` wire format.
    pub circuit: String,
    /// Backend-selection properties.
    pub spec: BackendSpec,
}

impl JobEnvelope {
    /// Builds an envelope for a circuit with the default spec
    /// (`aer/automatic`), `Normal` priority, and no deadline.
    pub fn new(tenant: impl Into<String>, circuit: &Circuit, shots: usize) -> Self {
        JobEnvelope {
            tenant: tenant.into(),
            priority: Priority::Normal,
            deadline_ms: None,
            shots,
            seed: 0,
            circuit: text::dump(circuit),
            spec: BackendSpec::of("aer", "automatic"),
        }
    }

    /// Builds an envelope for a **bound parameterized** circuit: the
    /// skeleton travels symbolically in the `qfwasm-param` wire format
    /// with a `bind` line, so the batcher recognizes same-skeleton jobs
    /// exactly (no masking heuristic) and coalesces them into one sweep
    /// invocation.
    pub fn new_param(
        tenant: impl Into<String>,
        template: &ParamCircuit,
        params: &[f64],
        shots: usize,
    ) -> Self {
        JobEnvelope {
            tenant: tenant.into(),
            priority: Priority::Normal,
            deadline_ms: None,
            shots,
            seed: 0,
            circuit: text::dump_param_bound(template, params),
            spec: BackendSpec::of("aer", "automatic"),
        }
    }

    /// Sets the backend spec (builder style).
    pub fn with_spec(mut self, spec: BackendSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the priority class (builder style).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the relative deadline (builder style).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the sampling seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Which admission bound rejected a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadScope {
    /// The global queue-depth bound.
    Queue,
    /// The submitting tenant's quota.
    Tenant,
}

/// Typed scheduler errors. Admission rejections carry a backoff hint
/// instead of blocking the submitter.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedError {
    /// The job can never run on this pool — unknown engine, malformed or
    /// incompatible spec extras, a width beyond the worker group, a circuit
    /// that does not parse or that the spec does not fit — so it was
    /// refused at admission, before taking a queue entry. Not retryable as
    /// is.
    Unrunnable(QfwError),
    /// The queue (or the tenant's slice of it) is full; retry after the
    /// hinted interval, estimated from recent service times and current
    /// depth.
    Overloaded {
        /// Suggested client backoff.
        retry_after: Duration,
        /// Which bound fired.
        scope: OverloadScope,
    },
    /// The scheduler has shut down.
    Shutdown,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Overloaded { retry_after, scope } => write!(
                f,
                "overloaded ({}): retry after {:?}",
                match scope {
                    OverloadScope::Queue => "queue depth bound",
                    OverloadScope::Tenant => "tenant quota",
                },
                retry_after
            ),
            SchedError::Unrunnable(e) => write!(f, "unrunnable job: {e}"),
            SchedError::Shutdown => write!(f, "scheduler is shut down"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Lifecycle state of a submitted job, as reported by `poll`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum JobStatus {
    /// Admitted, waiting in the fair queue.
    Queued,
    /// Dispatched to the QRC, executing.
    Running,
    /// Finished; the result is attached.
    Done(QfwResult),
    /// Execution failed; the error text is attached.
    Failed(String),
    /// Removed before dispatch (client cancel or scheduler shutdown).
    Cancelled,
    /// The scheduler has no record of this job id.
    Unknown,
}

impl JobStatus {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done(_) | JobStatus::Failed(_) | JobStatus::Cancelled | JobStatus::Unknown
        )
    }
}

/// Outcome of a cancel request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CancelOutcome {
    /// The job was still queued and has been removed.
    Cancelled,
    /// The job already dispatched (or finished); it runs to completion.
    TooLate,
    /// No such job.
    Unknown,
}

/// Wire form of an admission rejection (the ingress reply cannot carry
/// [`SchedError`] directly).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OverloadInfo {
    /// Suggested client backoff, milliseconds.
    pub retry_after_ms: u64,
    /// `"Queue"` or `"Tenant"`.
    pub scope: String,
}
