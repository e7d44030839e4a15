//! The scheduler's ingress service: the multiplexed front door with a
//! content-addressed result cache in front of admission.
//!
//! This wires four layers together (a byte-identical repeat of a completed
//! job is answered between 1 and 2, see below):
//!
//! 1. [`qfw_defw::Ingress`] — pipelined framed transport with bounded-queue
//!    admission (queue-full rejections surface as
//!    [`qfw_defw::IngressError::Overloaded`] before any scheduler state is
//!    touched).
//! 2. [`Scheduler::admit`] — the submission becomes the one owned job
//!    (parsed circuit + plan) or the call's typed error; nothing behind
//!    this point reads the envelope's strings.
//! 3. [`qfw::ResultCache`] — tier-1 result reuse: a submit whose job keys
//!    ([`qfw::ResolvedJob::cache_key`]: canonical circuit, seed, shots,
//!    plan) like a completed one returns [`IngressSubmitOutcome::Cached`]
//!    immediately — bitwise the counts the engine produced — without
//!    consuming a queue slot.
//! 4. [`Scheduler::enqueue`] — cache misses go through fair-share admission;
//!    the scheduler's own typed [`SchedError::Overloaded`] rejection
//!    travels in the reply payload as
//!    [`IngressSubmitOutcome::Overloaded`], so both backpressure layers
//!    (transport queue and scheduler queue) reach the client typed, never
//!    as unbounded buffering.
//!
//! The cache is filled because a job finished, not because someone polled:
//! a miss hands [`Scheduler::enqueue`] a [`CacheFill`] (this cache, the key
//! just computed), and the scheduler's one terminal transition inserts the
//! `Done` result under it — the same `Arc` the job's record keeps — before
//! any poll or wait can see the completion. Failed and cancelled jobs never
//! reach it, so the ingress keeps no per-job state of its own and
//! `poll`/`wait`/`cancel` are the scheduler's. Invalidation is purely
//! capacity-driven (LRU) — every input that could change counts is part of
//! the key, so a stored result is never out of date.
//!
//! A finished job wakes its waiter. The `wait` method is a deferred reply
//! ([`qfw_defw::Reply`]): its handler registers the request's return path
//! on the job's record ([`Scheduler::on_terminal`]) and returns, so the
//! ingress worker is free at once; the thread that finishes the job encodes
//! the [`JobStatus`] and sends it. A parked wait therefore costs a slot on a
//! live record — bounded by [`crate::WAITERS_PER_JOB`] per job and by queue
//! depth + window jobs — never a worker, and a job's turnaround through
//! [`client::wait`] is two requests with no polling quantum. An id with
//! nothing to wait for (unknown, evicted, already terminal) and a record
//! whose waiter list is full are answered at once with the current status.
//! `poll` stays for callers that want a non-blocking read.
//!
//! A repeat costs a lookup. Before any of the above, `submit` folds the
//! request *as submitted* — circuit bytes, seed, shots, spec strings — into
//! [`ResultCache::request_key`] and follows its alias
//! ([`ResultCache::get_by_request`]) to the completed result; a hit is
//! answered without parsing, compiling, admitting or canonically hashing
//! anything. The alias is written by this ingress only, right after it has
//! compiled and admitted those exact bytes and computed their canonical
//! key — both pure functions of the request for the pool's lifetime — so a
//! front hit returns what the full path would have returned, and a request
//! that ingestion or admission refuses is never aliased and is refused
//! again on every repeat. The canonical key still decides equality: on a
//! front miss (bytes never seen, alias evicted) or a stale alias (result
//! evicted, still running, failed, cancelled) the full path runs unchanged.
//!
//! On that full path, submissions whose circuit payload is OpenQASM 3
//! (detected by [`qfw_compile::is_qasm3`]) are compiled on ingestion —
//! parsed, optimized at O2 (O3 with a layout handoff for `nwqsim/mpi`
//! targets), and lowered to a circuit before the canonical key is
//! computed. Formatting variants of the same program therefore share one
//! post-compile result entry (each variant's bytes get their own alias to
//! it), and malformed or parameterized (unbound `input float`) programs
//! are rejected at the front door.

use crate::{CacheFill, JobEnvelope, JobId, JobStatus, OverloadInfo, SchedError, Scheduler};
use qfw::cache::CacheConfig;
use qfw::{QfwResult, ResultCache, Source};
use qfw_defw::{Connection, Ingress, IngressConfig, IngressError, MethodTable, Reply};
use qfw_obs::Obs;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// `submit` outcome over the ingress. Admission is an outcome, not an RPC
/// failure, so overload travels in the success payload; an unrunnable job
/// (see [`SchedError::Unrunnable`]) is the call's error.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum IngressSubmitOutcome {
    /// Admitted under this job id; poll for completion.
    Accepted(JobId),
    /// Served from the result cache: these are the exact counts a fresh
    /// execution would produce (`metadata["result_cached"] = "true"`).
    Cached(QfwResult),
    /// Rejected by scheduler admission control.
    Overloaded(OverloadInfo),
}

/// Configuration for [`SchedIngress::start`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedIngressConfig {
    /// Transport knobs (queue depth, worker count).
    pub ingress: IngressConfig,
    /// Result-cache knobs (capacity, shards).
    pub result_cache: CacheConfig,
}

struct Shared {
    sched: Scheduler,
    /// Read at submit; filled by the scheduler when a job finishes.
    cache: Arc<ResultCache>,
    /// Handle for `compile.*` spans emitted by QASM3 ingestion.
    obs: Obs,
}

/// A running scheduler ingress. Owns the transport; connections come from
/// [`SchedIngress::connect`].
pub struct SchedIngress {
    ingress: Ingress,
    shared: Arc<Shared>,
}

impl SchedIngress {
    /// Starts the ingress service over a running scheduler.
    pub fn start(sched: Scheduler, cfg: SchedIngressConfig, obs: Obs) -> SchedIngress {
        // Only `submit` needs the cache; the rest are the scheduler's own.
        let (poll, wait) = (sched.clone(), sched.clone());
        let (cancel, stats) = (sched.clone(), sched.clone());
        let shared = Arc::new(Shared {
            sched,
            cache: Arc::new(ResultCache::new(cfg.result_cache, &obs)),
            obs: obs.clone(),
        });
        let submit = Arc::clone(&shared);
        let service = MethodTable::new("sched-ingress")
            .method("submit", move |env: JobEnvelope| submit.submit(env))
            .method("poll", move |id: u64| Ok(poll.poll(id)))
            .deferred("wait", move |id: u64, reply: Reply| {
                wait.on_terminal(id, move |status| reply.send_typed(Ok(status)))
            })
            .method("cancel", move |id: u64| Ok(cancel.cancel(id)))
            .method("stats", move |_: ()| Ok(stats.stats()))
            .build();
        let ingress = Ingress::start(cfg.ingress, service, obs);
        SchedIngress { ingress, shared }
    }

    /// Opens a logical client connection.
    pub fn connect(&self) -> Connection {
        self.ingress.connect()
    }

    /// The underlying transport (queue depth, stats).
    pub fn ingress(&self) -> &Ingress {
        &self.ingress
    }

    /// Result-cache statistics.
    pub fn cache_stats(&self) -> qfw::CacheStats {
        self.shared.cache.stats()
    }

    /// Stops the transport. The scheduler keeps running — it may serve
    /// other ingresses or direct submitters.
    pub fn shutdown(self) {
        self.ingress.shutdown()
    }
}

/// The reply for a submission answered from the result cache: the caller's
/// own copy of the stored result, marked as served from it.
fn served(result: &QfwResult) -> IngressSubmitOutcome {
    let mut served = result.clone();
    served
        .metadata
        .insert("result_cached".into(), "true".into());
    IngressSubmitOutcome::Cached(served)
}

impl Shared {
    fn submit(&self, env: JobEnvelope) -> Result<IngressSubmitOutcome, String> {
        // A repeat costs a lookup: bytes this ingress has already compiled
        // and admitted lead straight to the result stored under the key
        // they were admitted as. Anything else — never seen, alias or
        // result evicted, job still running, failed, cancelled — takes the
        // full path below.
        let request = ResultCache::request_key(&env.circuit, env.seed, env.shots, &env.spec);
        if let Some(result) = self.cache.get_by_request(request) {
            return Ok(served(&result));
        }
        // OpenQASM 3 payloads compile on ingestion — parse → optimize →
        // lower to a circuit — and the circuit is admitted as is, so every
        // formatting variant of the same program shares one cache entry
        // (the key is post-compile canonical). Distributed targets get the
        // O3 layout, handed to admission as a typed value.
        let source = if qfw_compile::is_qasm3(&env.circuit) {
            let opt = if env.spec.backend == "nwqsim" && env.spec.subbackend == "mpi" {
                qfw_compile::OptLevel::O3
            } else {
                qfw_compile::OptLevel::O2
            };
            // A `calibration` extra (the device table as JSON, e.g. from
            // the cloud `calibration` RPC) upgrades the O3 layout pass to
            // the noise-aware planner; the winning score travels with the
            // layout as `predicted_fidelity`.
            let cal = qfw::plan::calibration_of(&env.spec).map_err(|e| e.to_string())?;
            let (circuit, compiled) =
                qfw_compile::compile_qasm3(&env.circuit, opt, &self.obs, cal.as_ref())
                    .map_err(|e| format!("qasm3 ingestion failed: {e}"))?;
            Source::Compiled {
                circuit,
                layout: compiled.layout,
                predicted_fidelity: compiled.predicted_fidelity,
            }
        } else {
            Source::Wire(&env.circuit)
        };
        // Admission comes first: the cache keys on the admitted job, and a
        // job that can never run is the call's error whether or not an
        // earlier twin is cached.
        let admitted = self.sched.admit(source, env.shots, env.seed, &env.spec);
        let job = admitted.map_err(|e| e.to_string())?;
        let key = job.cache_key();
        // These exact bytes were compiled and admitted, and both are pure
        // functions of the request for this pool's lifetime, so their next
        // arrival may skip both. A refused request never gets here.
        self.cache.alias(request, key);
        if let Some(result) = self.cache.get(key) {
            return Ok(served(&result));
        }
        let fill = CacheFill {
            cache: Arc::clone(&self.cache),
            key,
        };
        match self
            .sched
            .enqueue(env.tenant, env.priority, env.deadline_ms, job, Some(fill))
        {
            Ok(id) => Ok(IngressSubmitOutcome::Accepted(id)),
            Err(SchedError::Overloaded { retry_after, scope }) => {
                Ok(IngressSubmitOutcome::Overloaded(OverloadInfo {
                    retry_after_ms: retry_after.as_millis().max(1) as u64,
                    scope: format!("{scope:?}"),
                }))
            }
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Typed client helpers over a raw ingress [`Connection`].
///
/// These are free functions (not a wrapper type) so callers can mix typed
/// calls with raw pipelined sends on the same connection.
pub mod client {
    use super::*;

    /// Submits one envelope; transport-level overload is mapped into the
    /// same shape as scheduler-level overload so callers handle one enum.
    pub fn submit(
        conn: &Connection,
        env: &JobEnvelope,
        timeout: Duration,
    ) -> Result<IngressSubmitOutcome, IngressError> {
        match conn.call("submit", env, timeout) {
            Ok(outcome) => Ok(outcome),
            Err(IngressError::Overloaded { retry_after }) => {
                Ok(IngressSubmitOutcome::Overloaded(OverloadInfo {
                    retry_after_ms: retry_after.as_millis().max(1) as u64,
                    scope: "Ingress".into(),
                }))
            }
            Err(e) => Err(e),
        }
    }

    /// Polls a job's status.
    pub fn poll(
        conn: &Connection,
        id: JobId,
        timeout: Duration,
    ) -> Result<JobStatus, IngressError> {
        conn.call("poll", &id, timeout)
    }

    /// Blocks until the job is terminal or `deadline` elapses; returns the
    /// status either way. One `wait` request, parked on the job's record
    /// and answered by the thread that finishes the job. A non-terminal
    /// answer means the record parks all the waiters it will
    /// ([`crate::WAITERS_PER_JOB`]): ask again. If the deadline passes
    /// first, the answer is what [`poll`] says.
    pub fn wait(
        conn: &Connection,
        id: JobId,
        deadline: Duration,
    ) -> Result<JobStatus, IngressError> {
        let start = std::time::Instant::now();
        loop {
            let left = deadline.saturating_sub(start.elapsed());
            match conn.call::<_, JobStatus>("wait", &id, left) {
                Ok(status) if status.is_terminal() || start.elapsed() >= deadline => {
                    return Ok(status)
                }
                Ok(_) => {}
                Err(IngressError::Timeout { .. }) => return poll(conn, id, deadline),
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedConfig;
    use qfw::registry::BackendRegistry;
    use qfw::{DispatchPolicy, Qrc};
    use qfw_circuit::Circuit;
    use qfw_hpc::slurm::{HetJob, HetJobSpec};
    use qfw_hpc::{ClusterSpec, Dvm};

    const T: Duration = Duration::from_secs(30);

    fn qrc(workers: usize) -> Arc<Qrc> {
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        Arc::new(Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            workers,
            DispatchPolicy::RoundRobin,
        ))
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

    fn start_ingress(workers: usize) -> (SchedIngress, Scheduler) {
        let sched = Scheduler::start(qrc(workers), Obs::disabled(), SchedConfig::default());
        let ingress = SchedIngress::start(
            sched.clone(),
            SchedIngressConfig::default(),
            Obs::disabled(),
        );
        (ingress, sched)
    }

    #[test]
    fn submit_poll_round_trip_through_ingress() {
        let (ingress, sched) = start_ingress(2);
        let conn = ingress.connect();
        let env = JobEnvelope::new("alice", &ghz(4), 200).with_seed(3);
        let id = match client::submit(&conn, &env, T).unwrap() {
            IngressSubmitOutcome::Accepted(id) => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        match client::wait(&conn, id, T).unwrap() {
            JobStatus::Done(r) => assert_eq!(r.counts.values().sum::<usize>(), 200),
            other => panic!("unexpected status {other:?}"),
        }
        ingress.shutdown();
        sched.shutdown();
    }

    #[test]
    fn second_identical_submit_is_served_from_cache_bitwise() {
        let (ingress, sched) = start_ingress(2);
        let conn = ingress.connect();
        let env = JobEnvelope::new("alice", &ghz(5), 300).with_seed(42);
        let id = match client::submit(&conn, &env, T).unwrap() {
            IngressSubmitOutcome::Accepted(id) => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        let cold = match client::wait(&conn, id, T).unwrap() {
            JobStatus::Done(r) => r,
            other => panic!("unexpected status {other:?}"),
        };
        // Resubmit the identical envelope: no scheduler admission, just
        // the cached counts.
        let warm = match client::submit(&conn, &env, T).unwrap() {
            IngressSubmitOutcome::Cached(r) => r,
            other => panic!("expected cached result, got {other:?}"),
        };
        assert_eq!(warm.counts, cold.counts, "cache hit must be bitwise identical");
        assert_eq!(warm.metadata["result_cached"], "true");
        assert!(!cold.metadata.contains_key("result_cached"));
        assert_eq!(ingress.cache_stats().hits, 1);
        // A different seed is a different computation: back to admission.
        let other = env.clone().with_seed(43);
        assert!(matches!(
            client::submit(&conn, &other, T).unwrap(),
            IngressSubmitOutcome::Accepted(_)
        ));
        ingress.shutdown();
        sched.shutdown();
    }

    #[test]
    fn scheduler_overload_propagates_typed_through_ingress() {
        let sched = Scheduler::start(
            qrc(1),
            Obs::disabled(),
            SchedConfig {
                max_queue_depth: 1,
                start_paused: true,
                ..SchedConfig::default()
            },
        );
        let ingress = SchedIngress::start(
            sched.clone(),
            SchedIngressConfig::default(),
            Obs::disabled(),
        );
        let conn = ingress.connect();
        let env = JobEnvelope::new("t", &ghz(3), 10);
        assert!(matches!(
            client::submit(&conn, &env, T).unwrap(),
            IngressSubmitOutcome::Accepted(_)
        ));
        match client::submit(&conn, &env.clone().with_seed(1), T).unwrap() {
            IngressSubmitOutcome::Overloaded(info) => {
                assert!(info.retry_after_ms >= 1);
                assert_eq!(info.scope, "Queue");
            }
            other => panic!("expected overload, got {other:?}"),
        }
        ingress.shutdown();
        sched.shutdown();
    }

    fn ghz_qasm3(n: usize) -> String {
        let mut src = format!("OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[{n}] q;\nbit[{n}] c;\nh q[0];\n");
        for q in 0..n - 1 {
            src.push_str(&format!("cx q[{q}], q[{}];\n", q + 1));
        }
        src.push_str("c = measure q;\n");
        src
    }

    #[test]
    fn qasm3_submission_matches_native_counts_bitwise() {
        // Private Obs handle — see qasm3_formatting_variants below.
        let obs = Obs::wall();
        let sched = Scheduler::start(qrc(2), obs.clone(), crate::SchedConfig::default());
        let ingress = SchedIngress::start(sched.clone(), SchedIngressConfig::default(), obs);
        let conn = ingress.connect();
        // Native qfwasm path.
        let env = JobEnvelope::new("alice", &ghz(4), 250).with_seed(11);
        let id = match client::submit(&conn, &env, T).unwrap() {
            IngressSubmitOutcome::Accepted(id) => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        let native = match client::wait(&conn, id, T).unwrap() {
            JobStatus::Done(r) => r,
            other => panic!("unexpected status {other:?}"),
        };
        // The same program as OpenQASM 3 text: ingestion compiles it to
        // the *same* canonical qfwasm, so it lands on the native
        // submission's cache entry — the strongest form of "identical
        // counts".
        let mut qenv = JobEnvelope::new("alice", &ghz(4), 250).with_seed(11);
        qenv.circuit = ghz_qasm3(4);
        let via_qasm = match client::submit(&conn, &qenv, T).unwrap() {
            IngressSubmitOutcome::Cached(r) => r,
            other => panic!("expected the native cache entry, got {other:?}"),
        };
        assert_eq!(via_qasm.counts, native.counts);
        ingress.shutdown();
        sched.shutdown();
    }

    #[test]
    fn qasm3_formatting_variants_share_one_cache_entry() {
        // Private Obs handle: cache counters hang off the Obs metric
        // registry, and the shared disabled() singleton would let
        // concurrent tests pollute the hit count asserted below.
        let obs = Obs::wall();
        let sched = Scheduler::start(qrc(2), obs.clone(), crate::SchedConfig::default());
        let ingress = SchedIngress::start(sched.clone(), SchedIngressConfig::default(), obs);
        let conn = ingress.connect();
        let mut env = JobEnvelope::new("alice", &ghz(4), 100).with_seed(7);
        env.circuit = ghz_qasm3(4);
        let id = match client::submit(&conn, &env, T).unwrap() {
            IngressSubmitOutcome::Accepted(id) => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        let cold = match client::wait(&conn, id, T).unwrap() {
            JobStatus::Done(r) => r,
            other => panic!("unexpected status {other:?}"),
        };
        // Same program, different whitespace and comments: the
        // post-compile key must hit the cache bitwise.
        let mut variant = env.clone();
        variant.circuit = format!(
            "// reformatted\n{}",
            env.circuit.replace('\n', "\n\n").replace(", ", " ,  ")
        );
        let warm = match client::submit(&conn, &variant, T).unwrap() {
            IngressSubmitOutcome::Cached(r) => r,
            other => panic!("expected cached result, got {other:?}"),
        };
        assert_eq!(warm.counts, cold.counts);
        assert_eq!(ingress.cache_stats().hits, 1);
        ingress.shutdown();
        sched.shutdown();
    }

    #[test]
    fn calibration_extra_upgrades_o3_to_noise_aware_layout() {
        let (ingress, sched) = start_ingress(2);
        let conn = ingress.connect();
        let cal = qfw_noise::Calibration::synthetic(8, 0xBEEF);
        let spec = qfw::BackendSpec::of("nwqsim", "mpi")
            .with_extra("ranks", 2)
            .with_extra("calibration", cal.to_json());
        let mut env = JobEnvelope::new("alice", &ghz(4), 120)
            .with_seed(9)
            .with_spec(spec);
        env.circuit = ghz_qasm3(4);
        let id = match client::submit(&conn, &env, T).unwrap() {
            IngressSubmitOutcome::Accepted(id) => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        let result = match client::wait(&conn, id, T).unwrap() {
            JobStatus::Done(r) => r,
            other => panic!("unexpected status {other:?}"),
        };
        // The noise-aware planner's score flows through the spec extra
        // into the adapter's result metadata.
        let score: f64 = result.metadata["predicted_fidelity"].parse().unwrap();
        assert!(score.is_finite() && score < 0.0, "got {score}");
        assert!(result.metadata.contains_key("initial_layout"));
        // Garbage tables are rejected at the door, not at execution.
        let mut bad = env.clone().with_seed(10);
        bad.spec = bad.spec.with_extra("calibration", "{not json");
        bad.circuit = ghz_qasm3(4);
        let err = client::submit(&conn, &bad, T).unwrap_err();
        assert!(err.to_string().contains("calibration"), "err={err}");
        ingress.shutdown();
        sched.shutdown();
    }

    #[test]
    fn qasm3_rejects_unbound_parameters_and_parse_errors() {
        let (ingress, sched) = start_ingress(1);
        let conn = ingress.connect();
        let mut env = JobEnvelope::new("alice", &ghz(3), 10);
        env.circuit =
            "OPENQASM 3;\ninput float[64] theta;\nqubit[2] q;\nrx(theta) q[0];\n".into();
        assert!(client::submit(&conn, &env, T).is_err());
        env.circuit = "OPENQASM 3;\nqubit[2] q;\nnosuchgate q[0];\n".into();
        assert!(client::submit(&conn, &env, T).is_err());
        ingress.shutdown();
        sched.shutdown();
    }

    #[test]
    fn stats_flow_through_the_ingress() {
        let (ingress, sched) = start_ingress(1);
        let conn = ingress.connect();
        let env = JobEnvelope::new("t", &ghz(3), 50);
        let id = match client::submit(&conn, &env, T).unwrap() {
            IngressSubmitOutcome::Accepted(id) => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        assert!(client::wait(&conn, id, T).unwrap().is_terminal());
        let stats: crate::SchedStats = conn.call("stats", &(), T).unwrap();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        ingress.shutdown();
        sched.shutdown();
    }
}
