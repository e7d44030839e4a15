//! A mock cloud QPU provider — the IonQ-analog backend.
//!
//! The paper's cloud path (Section 4.1, "IonQ (cloud)") reaches a remote
//! simulator through REST: jobs are submitted over the internet, wait in a
//! shared provider queue, execute, and are polled for results. What matters
//! for the reproduction is the *behavioural envelope* of that path, visible
//! in Fig. 5: cloud rounds are serialized by the provider queue and jittery
//! from network latency, in contrast to the uniform, concurrent local
//! iterations.
//!
//! This crate implements that envelope deterministically:
//!
//! * a REST-shaped API — [`CloudProvider::submit_job`] (POST /jobs),
//!   [`CloudProvider::job_status`] (GET /jobs/{id}),
//!   [`CloudProvider::job_result`] (GET /jobs/{id}/results) — that accepts
//!   circuits in the `qfwasm` wire format, like a real provider accepts
//!   serialized circuit payloads;
//! * a **single-worker shared queue** (one QPU behind the API) with a
//!   seeded queueing-delay model;
//! * a seeded **network latency model** charged on every API call;
//! * an execution-time model proportional to circuit size, plus Kraus-
//!   channel execution noise: providers that publish a per-qubit
//!   [`Calibration`] table (served over `GET /calibration`, drifting
//!   under a seeded walk — one step per executed job) run jobs through
//!   `NoiseModel::from_calibration`; providers without one fall back to
//!   the uniform depolarizing + readout-flip config constants.

//!
//! For resilience testing the provider also accepts a seeded
//! [`FaultPlan`] (see [`CloudProvider::start_with_chaos`]): jobs can be
//! failed (`cloud.job_fail`), submissions rejected with HTTP-429-style
//! rate limits (`cloud.rate_limit`, via [`CloudProvider::try_submit_job`]),
//! and the shared queue stalled (`cloud.queue_stall`).

use parking_lot::{Condvar, Mutex};
pub use qfw_chaos::{FaultPlan, FaultSpec};
use qfw_circuit::{text, Counts};
pub use qfw_noise::Calibration;
use qfw_num::rng::Rng;
use qfw_sim_sv::noise::{run_noisy, NoiseModel};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Latency/queue/noise model of the provider.
#[derive(Clone, Debug, PartialEq)]
pub struct CloudConfig {
    /// Mean one-way network latency charged per API call.
    pub net_latency: Duration,
    /// Uniform jitter added to each network hop (0..jitter).
    pub net_jitter: Duration,
    /// Mean time a job sits in the provider queue before execution begins
    /// (on top of waiting for jobs ahead of it).
    pub queue_delay: Duration,
    /// Uniform jitter on the queue delay.
    pub queue_jitter: Duration,
    /// Modeled execution time per gate.
    pub gate_time: Duration,
    /// Modeled fixed execution overhead per job.
    pub job_overhead: Duration,
    /// Depolarizing probability per touched qubit after two-qubit gates.
    /// Only used when no [`Calibration`] table is published.
    pub gate_error: f64,
    /// Probability each measured bit flips (readout error). Only used
    /// when no [`Calibration`] table is published.
    pub readout_flip: f64,
    /// Per-qubit device characterization. When present, execution noise
    /// comes from `NoiseModel::from_calibration` on the drifted table
    /// (one seeded walk step per executed job) instead of the flat
    /// `gate_error`/`readout_flip` constants, and the table is served
    /// over the [`CloudProvider::calibration`] RPC.
    pub calibration: Option<Calibration>,
    /// Seed for all of the provider's stochastic behaviour.
    pub seed: u64,
}

impl CloudConfig {
    /// Defaults loosely shaped like a public cloud simulator endpoint:
    /// tens of milliseconds of network, hundreds of queue, light noise.
    pub fn ionq_like() -> Self {
        CloudConfig {
            net_latency: Duration::from_millis(40),
            net_jitter: Duration::from_millis(30),
            queue_delay: Duration::from_millis(150),
            queue_jitter: Duration::from_millis(250),
            gate_time: Duration::from_micros(30),
            job_overhead: Duration::from_millis(60),
            gate_error: 0.002,
            readout_flip: 0.005,
            calibration: Some(Calibration::synthetic(29, 0xC10D)),
            seed: 0xC10D,
        }
    }

    /// A fast, noise-free configuration for unit tests.
    pub fn instant() -> Self {
        CloudConfig {
            net_latency: Duration::ZERO,
            net_jitter: Duration::ZERO,
            queue_delay: Duration::ZERO,
            queue_jitter: Duration::ZERO,
            gate_time: Duration::ZERO,
            job_overhead: Duration::ZERO,
            gate_error: 0.0,
            readout_flip: 0.0,
            calibration: None,
            seed: 7,
        }
    }
}

/// Job submission payload (the body of `POST /jobs`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobRequest {
    /// Circuit in the `qfwasm` wire format.
    pub circuit: String,
    /// Number of measurement shots.
    pub shots: usize,
    /// Client-chosen display name.
    pub name: String,
}

/// Lifecycle states, mirroring a provider's job dashboard.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Accepted, waiting in the shared queue.
    Queued,
    /// Executing on the (single) backend.
    Running,
    /// Finished; results available.
    Completed,
    /// Rejected or crashed.
    Failed(String),
}

/// Result payload (the body of `GET /jobs/{id}/results`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobResult {
    /// Measured histogram (bit-string keys on the wire).
    pub counts: Counts,
    /// Time the job spent queued, seconds.
    pub queue_secs: f64,
    /// Modeled execution time, seconds.
    pub exec_secs: f64,
}

/// Errors returned by the REST-shaped API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// Unknown job ID.
    NotFound(u64),
    /// Results requested before completion.
    NotReady(u64),
    /// The job failed.
    Failed(String),
    /// The provider rejected the submission (HTTP 429 flavour); retry
    /// after a backoff.
    RateLimited,
}

impl std::fmt::Display for CloudError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudError::NotFound(id) => write!(f, "job {id} not found"),
            CloudError::NotReady(id) => write!(f, "job {id} is not completed yet"),
            CloudError::Failed(msg) => write!(f, "job failed: {msg}"),
            CloudError::RateLimited => write!(f, "submission rate-limited by the provider"),
        }
    }
}

impl std::error::Error for CloudError {}

struct JobRecord {
    request: JobRequest,
    status: JobStatus,
    result: Option<JobResult>,
}

struct ProviderState {
    jobs: HashMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    rng: Rng,
}

/// The published calibration table under a seeded random-walk drift.
///
/// Each executed job advances every qubit's drift offset by one normal
/// step (clamped to ±30%); the drifted table scales error rates by
/// `1 + offset` and shrinks coherence times by the same factor, so the
/// physical `t2 <= 2*t1` constraint is preserved. The walk lives on the
/// single QPU worker thread (one step per job, in execution order), so
/// a fixed provider seed yields a fixed drift history regardless of how
/// often clients poll the [`CloudProvider::calibration`] RPC.
struct CalDrift {
    base: Calibration,
    offsets: Vec<f64>,
    rng: Rng,
}

impl CalDrift {
    fn new(base: Calibration, seed: u64) -> CalDrift {
        let offsets = vec![0.0; base.num_qubits()];
        CalDrift {
            base,
            offsets,
            rng: Rng::stream(seed, 0xD21F7),
        }
    }

    /// One walk step per executed job.
    fn step(&mut self) {
        for off in &mut self.offsets {
            *off = (*off + self.rng.normal_with(0.0, 0.02)).clamp(-0.3, 0.3);
        }
    }

    /// The current drifted table.
    fn current(&self) -> Calibration {
        let mut cal = self.base.clone();
        for (qc, &off) in cal.qubits.iter_mut().zip(&self.offsets) {
            let f = 1.0 + off;
            qc.err_1q = (qc.err_1q * f).clamp(0.0, 0.5);
            qc.err_2q = (qc.err_2q * f).clamp(0.0, 0.5);
            qc.readout_p01 = (qc.readout_p01 * f).clamp(0.0, 0.5);
            qc.readout_p10 = (qc.readout_p10 * f).clamp(0.0, 0.5);
            qc.t1_us /= f;
            qc.t2_us /= f;
        }
        cal
    }
}

struct Shared {
    state: Mutex<ProviderState>,
    wake: Condvar,
    stop: AtomicBool,
    next_id: AtomicU64,
    config: CloudConfig,
    completed: AtomicU64,
    chaos: Arc<FaultPlan>,
    calibration: Option<Mutex<CalDrift>>,
}

/// The provider: a shared queue in front of one simulated QPU.
pub struct CloudProvider {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl CloudProvider {
    /// Boots the provider and its queue worker with no fault injection.
    pub fn start(config: CloudConfig) -> CloudProvider {
        Self::start_with_chaos(config, Arc::new(FaultPlan::disabled()))
    }

    /// Boots the provider with a fault plan. Sites consulted:
    /// `cloud.job_fail` (a pulled job is marked `Failed` without
    /// executing), `cloud.rate_limit` ([`CloudProvider::try_submit_job`]
    /// returns [`CloudError::RateLimited`]), and `cloud.queue_stall`
    /// (delay-style: extra wait added to the shared-queue delay).
    pub fn start_with_chaos(config: CloudConfig, chaos: Arc<FaultPlan>) -> CloudProvider {
        let calibration = config
            .calibration
            .clone()
            .map(|cal| Mutex::new(CalDrift::new(cal, config.seed)));
        let shared = Arc::new(Shared {
            state: Mutex::new(ProviderState {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                rng: Rng::seed_from(config.seed),
            }),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            config,
            completed: AtomicU64::new(0),
            chaos,
            calibration,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("cloud-qpu-worker".into())
            .spawn(move || Self::worker_loop(worker_shared))
            .expect("spawn cloud worker");
        CloudProvider {
            shared,
            worker: Some(worker),
        }
    }

    fn worker_loop(shared: Arc<Shared>) {
        loop {
            // Pull the next queued job (or park until one arrives).
            let job_id = {
                let mut state = shared.state.lock();
                loop {
                    if shared.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if let Some(id) = state.queue.pop_front() {
                        break id;
                    }
                    shared.wake.wait_for(&mut state, Duration::from_millis(50));
                }
            };

            // Injected provider-side crash: the job never executes.
            if shared.chaos.is_enabled() && shared.chaos.fires("cloud.job_fail") {
                let mut state = shared.state.lock();
                if let Some(job) = state.jobs.get_mut(&job_id) {
                    job.status =
                        JobStatus::Failed("injected provider-side job failure".into());
                }
                drop(state);
                shared.completed.fetch_add(1, Ordering::Relaxed);
                continue;
            }

            // Queueing delay (the shared-queue wait the paper's Fig. 5
            // shows as irregular gaps between cloud iterations).
            let stall = shared
                .chaos
                .delay("cloud.queue_stall")
                .unwrap_or(Duration::ZERO);
            let (queue_wait, exec_seed) = {
                let mut state = shared.state.lock();
                let jitter = shared.config.queue_jitter.as_secs_f64() * state.rng.next_f64();
                let wait = shared.config.queue_delay.as_secs_f64() + jitter + stall.as_secs_f64();
                // The execution seed must be a pure function of (provider
                // seed, job id): the shared rng stream also serves network
                // jitter draws whose count depends on client poll timing.
                let seed = Rng::seed_from(
                    shared.config.seed ^ job_id.wrapping_mul(0x9E3779B97F4A7C15),
                )
                .next_u64();
                if let Some(job) = state.jobs.get_mut(&job_id) {
                    job.status = JobStatus::Running;
                }
                (Duration::from_secs_f64(wait), seed)
            };
            std::thread::sleep(queue_wait);

            // Parse and execute.
            let request = {
                let state = shared.state.lock();
                state.jobs.get(&job_id).map(|j| j.request.clone())
            };
            let Some(request) = request else { continue };
            // Advance the calibration walk exactly once per executed job
            // — on this single worker thread, so the drift history is a
            // pure function of the provider seed and execution order.
            let drifted = shared.calibration.as_ref().map(|cal| {
                let mut cal = cal.lock();
                cal.step();
                cal.current()
            });
            let outcome = Self::execute(&shared, &request, exec_seed, drifted.as_ref());
            {
                let mut state = shared.state.lock();
                if let Some(job) = state.jobs.get_mut(&job_id) {
                    match outcome {
                        Ok(mut result) => {
                            result.queue_secs = queue_wait.as_secs_f64();
                            job.result = Some(result);
                            job.status = JobStatus::Completed;
                        }
                        Err(msg) => job.status = JobStatus::Failed(msg),
                    }
                }
            }
            shared.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn execute(
        shared: &Shared,
        request: &JobRequest,
        seed: u64,
        calibration: Option<&Calibration>,
    ) -> Result<JobResult, String> {
        let circuit = if text::is_param_text(&request.circuit) {
            // Bound parameterized submissions: bind the skeleton here.
            let (template, bound) =
                text::parse_param(&request.circuit).map_err(|e| e.to_string())?;
            let params =
                bound.ok_or_else(|| "parameterized job carries no 'bind' line".to_string())?;
            if params.len() < template.num_params() {
                return Err(format!(
                    "bind line carries {} values but the skeleton references {} parameters",
                    params.len(),
                    template.num_params()
                ));
            }
            template.bind(&params)
        } else {
            text::parse(&request.circuit).map_err(|e| e.to_string())?
        };
        if circuit.num_qubits() > 29 {
            return Err(format!(
                "circuit has {} qubits; provider supports at most 29",
                circuit.num_qubits()
            ));
        }
        // Modeled hardware time.
        let exec = shared.config.job_overhead
            + shared.config.gate_time * circuit.num_gates() as u32;
        std::thread::sleep(exec);

        // A published calibration table beats the uniform config constants:
        // per-qubit depolarizing + thermal relaxation + asymmetric readout.
        let model = match calibration {
            Some(cal) => NoiseModel::from_calibration(cal),
            None => NoiseModel::flat(
                shared.config.gate_error / 4.0,
                shared.config.gate_error,
                shared.config.readout_flip,
            ),
        };
        let counts = run_noisy(&circuit, request.shots, seed, &model, 64);
        Ok(JobResult {
            counts,
            queue_secs: 0.0,
            exec_secs: exec.as_secs_f64(),
        })
    }

    /// Charges one network hop (latency + seeded jitter).
    fn network_hop(&self) {
        let delay = {
            let mut state = self.shared.state.lock();
            let jitter = self.shared.config.net_jitter.as_secs_f64() * state.rng.next_f64();
            self.shared.config.net_latency.as_secs_f64() + jitter
        };
        if delay > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(delay));
        }
    }

    /// `POST /jobs`: accepts a job into the shared queue and returns its
    /// ID. Never rate-limited — resilient clients should prefer
    /// [`CloudProvider::try_submit_job`].
    pub fn submit_job(&self, request: JobRequest) -> u64 {
        self.network_hop();
        self.accept(request)
    }

    /// `POST /jobs` through the rate limiter: an injected
    /// `cloud.rate_limit` fault rejects the submission with
    /// [`CloudError::RateLimited`] and the client is expected to back off
    /// and retry.
    pub fn try_submit_job(&self, request: JobRequest) -> Result<u64, CloudError> {
        self.network_hop();
        if self.shared.chaos.is_enabled() && self.shared.chaos.fires("cloud.rate_limit") {
            return Err(CloudError::RateLimited);
        }
        Ok(self.accept(request))
    }

    fn accept(&self, request: JobRequest) -> u64 {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = self.shared.state.lock();
            state.jobs.insert(
                id,
                JobRecord {
                    request,
                    status: JobStatus::Queued,
                    result: None,
                },
            );
            state.queue.push_back(id);
        }
        self.shared.wake.notify_one();
        id
    }

    /// The provider's fault plan (disabled unless started via
    /// [`CloudProvider::start_with_chaos`]).
    pub fn chaos(&self) -> &Arc<FaultPlan> {
        &self.shared.chaos
    }

    /// `GET /calibration`: the device's current (drifted) per-qubit
    /// characterization, or `None` when the provider publishes no
    /// calibration data. Read-only — polling never perturbs the drift
    /// walk, which advances once per executed job.
    pub fn calibration(&self) -> Option<Calibration> {
        self.network_hop();
        self.shared.calibration.as_ref().map(|cal| cal.lock().current())
    }

    /// `GET /jobs/{id}`: current lifecycle state.
    pub fn job_status(&self, id: u64) -> Result<JobStatus, CloudError> {
        self.network_hop();
        let state = self.shared.state.lock();
        state
            .jobs
            .get(&id)
            .map(|j| j.status.clone())
            .ok_or(CloudError::NotFound(id))
    }

    /// `GET /jobs/{id}/results`: the histogram once completed.
    pub fn job_result(&self, id: u64) -> Result<JobResult, CloudError> {
        self.network_hop();
        let state = self.shared.state.lock();
        match state.jobs.get(&id) {
            None => Err(CloudError::NotFound(id)),
            Some(job) => match &job.status {
                JobStatus::Completed => Ok(job.result.clone().expect("completed job has result")),
                JobStatus::Failed(msg) => Err(CloudError::Failed(msg.clone())),
                _ => Err(CloudError::NotReady(id)),
            },
        }
    }

    /// Blocks until the job completes or fails, polling like a REST client.
    pub fn wait_for(&self, id: u64, poll: Duration, deadline: Duration) -> Result<JobResult, CloudError> {
        let start = std::time::Instant::now();
        loop {
            match self.job_status(id)? {
                JobStatus::Completed => return self.job_result(id),
                JobStatus::Failed(msg) => return Err(CloudError::Failed(msg)),
                _ => {}
            }
            if start.elapsed() > deadline {
                return Err(CloudError::NotReady(id));
            }
            std::thread::sleep(poll);
        }
    }

    /// Jobs completed since boot.
    pub fn jobs_completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Jobs currently waiting in the shared queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().queue.len()
    }
}

impl Drop for CloudProvider {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.wake.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::Circuit;

    fn ghz_request(n: usize, shots: usize) -> JobRequest {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        JobRequest {
            circuit: text::dump(&qc),
            shots,
            name: format!("ghz{n}"),
        }
    }

    const POLL: Duration = Duration::from_millis(2);
    const DEADLINE: Duration = Duration::from_secs(30);

    #[test]
    fn submit_execute_fetch() {
        let cloud = CloudProvider::start(CloudConfig::instant());
        let id = cloud.submit_job(ghz_request(4, 300));
        let result = cloud.wait_for(id, POLL, DEADLINE).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 300);
        assert_eq!(result.counts.len(), 2);
        assert_eq!(cloud.jobs_completed(), 1);
    }

    #[test]
    fn status_transitions_to_completed() {
        let cloud = CloudProvider::start(CloudConfig::instant());
        let id = cloud.submit_job(ghz_request(3, 10));
        let result = cloud.wait_for(id, POLL, DEADLINE);
        assert!(result.is_ok());
        assert_eq!(cloud.job_status(id).unwrap(), JobStatus::Completed);
    }

    #[test]
    fn unknown_job_is_not_found() {
        let cloud = CloudProvider::start(CloudConfig::instant());
        assert_eq!(cloud.job_status(999).unwrap_err(), CloudError::NotFound(999));
        assert!(matches!(
            cloud.job_result(999).unwrap_err(),
            CloudError::NotFound(_)
        ));
    }

    #[test]
    fn malformed_circuit_fails_job() {
        let cloud = CloudProvider::start(CloudConfig::instant());
        let id = cloud.submit_job(JobRequest {
            circuit: "not a circuit".into(),
            shots: 1,
            name: "bad".into(),
        });
        let err = cloud.wait_for(id, POLL, DEADLINE).unwrap_err();
        assert!(matches!(err, CloudError::Failed(_)));
    }

    #[test]
    fn oversized_circuit_rejected() {
        let cloud = CloudProvider::start(CloudConfig::instant());
        let qc = Circuit::new(30);
        let id = cloud.submit_job(JobRequest {
            circuit: text::dump(&qc),
            shots: 1,
            name: "big".into(),
        });
        let err = cloud.wait_for(id, POLL, DEADLINE).unwrap_err();
        match err {
            CloudError::Failed(msg) => assert!(msg.contains("29"), "msg={msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn queue_serializes_jobs() {
        // With a fixed queue delay, k jobs take at least k * delay total —
        // the single shared QPU serializes them.
        let mut config = CloudConfig::instant();
        config.queue_delay = Duration::from_millis(40);
        let cloud = CloudProvider::start(config);
        let start = std::time::Instant::now();
        let ids: Vec<u64> = (0..3).map(|_| cloud.submit_job(ghz_request(2, 5))).collect();
        for id in ids {
            cloud.wait_for(id, POLL, DEADLINE).unwrap();
        }
        assert!(
            start.elapsed() >= Duration::from_millis(110),
            "jobs did not serialize: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn network_latency_charged_on_calls() {
        let mut config = CloudConfig::instant();
        config.net_latency = Duration::from_millis(25);
        let cloud = CloudProvider::start(config);
        let start = std::time::Instant::now();
        let _ = cloud.job_status(1);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn readout_noise_spreads_histogram() {
        let mut config = CloudConfig::instant();
        config.readout_flip = 0.05;
        let cloud = CloudProvider::start(config);
        let id = cloud.submit_job(ghz_request(6, 2000));
        let result = cloud.wait_for(id, POLL, DEADLINE).unwrap();
        // Ideal GHZ has 2 outcomes; 5% readout error must create more.
        assert!(result.counts.len() > 2, "noise had no effect");
        // But the two ideal outcomes still dominate.
        let top2: usize = {
            let mut v: Vec<usize> = result.counts.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(2).sum()
        };
        assert!(top2 > 1200, "top2={top2}");
    }

    #[test]
    fn calibration_rpc_serves_and_drifts_the_table() {
        let mut config = CloudConfig::instant();
        config.calibration = Some(Calibration::synthetic(8, 3));
        let cloud = CloudProvider::start(config);
        let before = cloud.calibration().expect("table published");
        assert_eq!(before.num_qubits(), 8);
        // Polling is read-only: the table only moves when jobs execute.
        assert_eq!(cloud.calibration().unwrap(), before);
        let id = cloud.submit_job(ghz_request(4, 50));
        cloud.wait_for(id, POLL, DEADLINE).unwrap();
        let after = cloud.calibration().unwrap();
        assert_ne!(after, before, "executed job must advance the drift walk");
        for qc in &after.qubits {
            assert!(qc.t2_us <= 2.0 * qc.t1_us, "drift broke physics: {qc:?}");
            assert!(qc.err_2q > 0.0 && qc.err_2q <= 0.5);
        }
        // No table published: the RPC says so.
        let bare = CloudProvider::start(CloudConfig::instant());
        assert!(bare.calibration().is_none());
    }

    #[test]
    fn calibrated_noise_engages_instead_of_flat_constants() {
        let mut config = CloudConfig::instant();
        config.calibration = Some(Calibration::synthetic(6, 11));
        let cloud = CloudProvider::start(config);
        let id = cloud.submit_job(ghz_request(6, 2000));
        let result = cloud.wait_for(id, POLL, DEADLINE).unwrap();
        // gate_error/readout_flip are zero here, so any spread beyond the
        // two ideal GHZ outcomes comes from the calibration channels.
        assert!(result.counts.len() > 2, "calibration noise had no effect");
        let top2: usize = {
            let mut v: Vec<usize> = result.counts.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(2).sum()
        };
        assert!(top2 > 1200, "top2={top2}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let cloud = CloudProvider::start(CloudConfig::instant());
            let id = cloud.submit_job(ghz_request(4, 100));
            cloud.wait_for(id, POLL, DEADLINE).unwrap().counts
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn injected_job_failure_marks_job_failed() {
        let plan = Arc::new(FaultPlan::seeded(5).inject("cloud.job_fail", FaultSpec::first(1)));
        let cloud = CloudProvider::start_with_chaos(CloudConfig::instant(), plan);
        let first = cloud.submit_job(ghz_request(3, 10));
        let err = cloud.wait_for(first, POLL, DEADLINE).unwrap_err();
        assert!(matches!(err, CloudError::Failed(msg) if msg.contains("injected")));
        // The fault was first(1): the next job runs normally.
        let second = cloud.submit_job(ghz_request(3, 10));
        assert!(cloud.wait_for(second, POLL, DEADLINE).is_ok());
    }

    #[test]
    fn rate_limit_rejects_then_admits() {
        let plan =
            Arc::new(FaultPlan::seeded(5).inject("cloud.rate_limit", FaultSpec::first(2)));
        let cloud = CloudProvider::start_with_chaos(CloudConfig::instant(), plan);
        let req = ghz_request(3, 10);
        assert_eq!(cloud.try_submit_job(req.clone()), Err(CloudError::RateLimited));
        assert_eq!(cloud.try_submit_job(req.clone()), Err(CloudError::RateLimited));
        let id = cloud.try_submit_job(req).unwrap();
        assert!(cloud.wait_for(id, POLL, DEADLINE).is_ok());
    }

    #[test]
    fn queue_stall_delays_completion() {
        let plan = Arc::new(FaultPlan::seeded(5).inject(
            "cloud.queue_stall",
            FaultSpec::first(1).delayed(Duration::from_millis(80)),
        ));
        let cloud = CloudProvider::start_with_chaos(CloudConfig::instant(), plan);
        let start = std::time::Instant::now();
        let id = cloud.submit_job(ghz_request(2, 5));
        cloud.wait_for(id, POLL, DEADLINE).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(80),
            "stall not applied: {:?}",
            start.elapsed()
        );
        let reported_queue = cloud.job_result(id).unwrap().queue_secs;
        assert!(reported_queue >= 0.08, "queue_secs={reported_queue}");
    }

    #[test]
    fn concurrent_submissions_all_complete() {
        let cloud = Arc::new(CloudProvider::start(CloudConfig::instant()));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let cloud = Arc::clone(&cloud);
                std::thread::spawn(move || {
                    let id = cloud.submit_job(ghz_request(3, 50));
                    cloud.wait_for(id, POLL, DEADLINE).unwrap()
                })
            })
            .collect();
        for h in handles {
            let r = h.join().unwrap();
            assert_eq!(r.counts.values().sum::<usize>(), 50);
        }
        assert_eq!(cloud.jobs_completed(), 6);
    }
}
