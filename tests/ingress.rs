//! Ingress suite: the pipelined multiplexed front door end to end.
//!
//! * Many concurrent logical clients multiplex over one `SchedIngress`;
//!   every client's jobs complete and replies never cross connections.
//! * Pipelined sends on one connection resolve out of order by
//!   correlation id.
//! * A repeat submission is served from the result cache with counts
//!   bitwise identical to the cold execution, without consuming a queue
//!   slot.
//! * The cache is filled when the job finishes, whoever waits for it: a
//!   job awaited on the scheduler alone is a hit on resubmission.
//! * Both backpressure layers reach the client typed: scheduler admission
//!   rejections carry `retry_after` in the reply payload, and the system
//!   recovers once drained.
//! * Cancel through the ingress releases the cache reservation — a
//!   cancelled job's envelope re-submits as a fresh execution, never as a
//!   stale hit.
//! * The front (request-bytes) key: a byte-identical repeat is answered
//!   without compiling or admitting anything; a reformatted program still
//!   lands on its twin's one entry; every ingredient of the request
//!   separates; a refused request is refused again and never aliased; an
//!   alias that outlives its result falls through to a normal execution.
//! * The completion wait: `client::wait` is one request that the job's
//!   finish answers, so a job costs two ingress requests; a parked wait
//!   occupies a record slot, never a worker; every way a job ends (done,
//!   cancelled, shutdown drain) and every id with nothing to wait for
//!   (unknown, already finished) answers with what `poll` would; a crowd
//!   beyond the per-record bound is still answered; a deadline shorter than
//!   the job returns the live status and loses nothing.

use qfw::registry::BackendRegistry;
use qfw::{BackendSpec, DispatchPolicy, Qrc};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use qfw_sched::ingress::client;
use qfw::cache::CacheConfig;
use qfw::QfwResult;
use qfw_compile::DagCircuit;
use qfw_sched::{
    CancelOutcome, IngressSubmitOutcome, JobEnvelope, JobStatus, Priority, SchedConfig,
    SchedIngress, SchedIngressConfig, SchedStats, Scheduler, WAITERS_PER_JOB,
};
use qfw_workloads::ghz;
use std::sync::Arc;
use std::time::Duration;

const T: Duration = Duration::from_secs(60);

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

fn ingress_with(sched_cfg: SchedConfig) -> (Scheduler, SchedIngress) {
    ingress_over(qrc(2), sched_cfg)
}

fn ingress_over(qrc: Arc<Qrc>, sched_cfg: SchedConfig) -> (Scheduler, SchedIngress) {
    let sched = Scheduler::start(qrc, Obs::disabled(), sched_cfg);
    let ingress = SchedIngress::start(
        sched.clone(),
        SchedIngressConfig::default(),
        Obs::disabled(),
    );
    (sched, ingress)
}

fn env(tenant: &str, seed: u64) -> JobEnvelope {
    JobEnvelope::new(tenant, &ghz(4), 100)
        .with_spec(BackendSpec::of("nwqsim", "cpu"))
        .with_seed(seed)
}

/// Six concurrent logical clients, four jobs each, over one ingress: all
/// 24 jobs complete, and each client observes exactly its own seeds'
/// results (a cross-connection routing bug would surface as a mismatched
/// count distribution or a stuck wait).
#[test]
fn concurrent_clients_multiplex_over_one_ingress() {
    let (sched, ingress) = ingress_with(SchedConfig::default());
    let ingress = Arc::new(ingress);

    let handles: Vec<_> = (0..6)
        .map(|c| {
            let conn = ingress.connect();
            std::thread::spawn(move || {
                let tenant = format!("tenant-{c}");
                // Pipeline all four submits before waiting on any result.
                let ids: Vec<u64> = (0..4)
                    .map(|j| {
                        match client::submit(&conn, &env(&tenant, 1_000 * c + j), T).unwrap() {
                            IngressSubmitOutcome::Accepted(id) => id,
                            other => panic!("expected acceptance, got {other:?}"),
                        }
                    })
                    .collect();
                for id in ids {
                    match client::wait(&conn, id, T).unwrap() {
                        JobStatus::Done(r) => {
                            assert_eq!(r.counts.values().sum::<usize>(), 100);
                        }
                        other => panic!("job {id} did not complete: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = ingress.ingress().stats();
    assert!(stats.accepted >= 24, "every submit went through the queue");
    assert_eq!(stats.rejected, 0);
    sched.shutdown();
}

/// Pipelined sends on one connection resolve out of order: waiting on the
/// second correlation id first still yields the right reply, and the
/// first reply remains claimable afterwards.
#[test]
fn pipelined_replies_resolve_out_of_order() {
    let (sched, ingress) = ingress_with(SchedConfig::default());
    let conn = ingress.connect();

    let c1 = conn.send("submit", &env("ooo", 1)).unwrap();
    let c2 = conn.send("submit", &env("ooo", 2)).unwrap();
    assert_ne!(c1, c2);

    // Claim the later correlation first.
    let raw2 = conn.wait(c2, T).unwrap();
    let raw1 = conn.wait(c1, T).unwrap();
    for raw in [raw1, raw2] {
        let outcome: IngressSubmitOutcome = serde_json::from_slice(&raw).unwrap();
        assert!(matches!(outcome, IngressSubmitOutcome::Accepted(_)));
    }
    sched.shutdown();
}

/// A repeat submission is a cache hit: bitwise-identical counts, the
/// `result_cached` marker, no additional engine execution, and a
/// different seed still misses.
#[test]
fn repeat_submission_hits_cache_bitwise() {
    let qrc = qrc(2);
    let (sched, ingress) = ingress_over(Arc::clone(&qrc), SchedConfig::default());
    let conn = ingress.connect();
    let envelope = env("hot", 42);

    let id = match client::submit(&conn, &envelope, T).unwrap() {
        IngressSubmitOutcome::Accepted(id) => id,
        other => panic!("cold submit should be accepted, got {other:?}"),
    };
    let cold = match client::wait(&conn, id, T).unwrap() {
        JobStatus::Done(r) => r,
        other => panic!("cold job did not complete: {other:?}"),
    };
    let (admitted, invocations) = (sched.stats().admitted, qrc.engine_invocations());
    assert_eq!((admitted, invocations), (1, 1), "the cold job ran once");

    let warm = match client::submit(&conn, &envelope, T).unwrap() {
        IngressSubmitOutcome::Cached(r) => r,
        other => panic!("repeat submit should hit the cache, got {other:?}"),
    };
    assert_eq!(warm.counts, cold.counts, "cache hit must be bitwise identical");
    assert_eq!(warm.metadata.get("result_cached").map(String::as_str), Some("true"));
    assert!(ingress.cache_stats().hits >= 1);
    // The hit is served at the door: nothing enters the queue, no engine runs.
    assert_eq!(sched.stats().admitted, admitted, "a cache hit admits nothing");
    assert_eq!(qrc.engine_invocations(), invocations, "a cache hit invokes no engine");

    // Any key ingredient changing — here the seed — is a miss.
    match client::submit(&conn, &env("hot", 43), T).unwrap() {
        IngressSubmitOutcome::Accepted(_) => {}
        other => panic!("different seed must miss the cache, got {other:?}"),
    }
    sched.shutdown();
}

/// The result reaches the cache because the job finished, not because an
/// ingress `poll` saw it: awaited only through `Scheduler::wait`, the
/// identical resubmission is still a bitwise hit.
#[test]
fn result_is_cached_without_an_ingress_poll() {
    let (sched, ingress) = ingress_with(SchedConfig::default());
    let conn = ingress.connect();
    let envelope = env("quiet", 11);

    let id = match client::submit(&conn, &envelope, T).unwrap() {
        IngressSubmitOutcome::Accepted(id) => id,
        other => panic!("cold submit should be accepted, got {other:?}"),
    };
    let cold = match sched.wait(id, T) {
        JobStatus::Done(r) => r,
        other => panic!("cold job did not complete: {other:?}"),
    };
    match client::submit(&conn, &envelope, T).unwrap() {
        IngressSubmitOutcome::Cached(r) => assert_eq!(r.counts, cold.counts),
        other => panic!("a finished job's result must be cached, got {other:?}"),
    }
    sched.shutdown();
}

/// Scheduler admission rejections travel typed through the ingress reply
/// (never a stall, never unbounded buffering), and admission recovers
/// after the backlog drains.
#[test]
fn scheduler_backpressure_is_typed_and_recoverable() {
    let (sched, ingress) = ingress_with(SchedConfig {
        max_queue_depth: 2,
        start_paused: true,
        ..SchedConfig::default()
    });
    let conn = ingress.connect();

    for seed in 0..2 {
        match client::submit(&conn, &env("bp", seed), T).unwrap() {
            IngressSubmitOutcome::Accepted(_) => {}
            other => panic!("within the bound, got {other:?}"),
        }
    }
    match client::submit(&conn, &env("bp", 99), T).unwrap() {
        IngressSubmitOutcome::Overloaded(info) => {
            assert!(info.retry_after_ms >= 1, "hint must be actionable");
            assert_eq!(info.scope, "Queue");
        }
        other => panic!("beyond the bound must reject typed, got {other:?}"),
    }

    sched.resume();
    assert!(sched.drain(T), "paused backlog drains after resume");
    match client::submit(&conn, &env("bp", 99), T).unwrap() {
        IngressSubmitOutcome::Accepted(_) => {}
        other => panic!("admission must recover after drain, got {other:?}"),
    }
    sched.shutdown();
}

/// Cancelling through the ingress releases the job's cache reservation:
/// the same envelope later re-submits as a fresh execution rather than
/// surfacing a result that never existed. A cancel that comes too late
/// releases nothing: the job completes and its result is cached.
#[test]
fn cancel_releases_cache_reservation() {
    let (sched, ingress) = ingress_with(SchedConfig {
        start_paused: true,
        ..SchedConfig::default()
    });
    let conn = ingress.connect();
    let envelope = env("cxl", 7);

    let id = match client::submit(&conn, &envelope, T).unwrap() {
        IngressSubmitOutcome::Accepted(id) => id,
        other => panic!("expected acceptance, got {other:?}"),
    };
    let outcome: CancelOutcome = conn.call("cancel", &id, T).unwrap();
    assert_eq!(outcome, CancelOutcome::Cancelled);
    assert!(matches!(client::poll(&conn, id, T).unwrap(), JobStatus::Cancelled));

    sched.resume();
    match client::submit(&conn, &envelope, T).unwrap() {
        IngressSubmitOutcome::Accepted(id) => {
            assert!(matches!(client::wait(&conn, id, T).unwrap(), JobStatus::Done(_)));
        }
        other => panic!("cancelled envelope must re-execute, got {other:?}"),
    }

    // Late cancel: the job is already past the queue (here: finished, as
    // the scheduler — not the ingress — has seen), so cancel answers
    // `TooLate` and the completed result must still reach the cache.
    let late = env("cxl", 8);
    let id = match client::submit(&conn, &late, T).unwrap() {
        IngressSubmitOutcome::Accepted(id) => id,
        other => panic!("expected acceptance, got {other:?}"),
    };
    assert!(matches!(sched.wait(id, T), JobStatus::Done(_)));
    let outcome: CancelOutcome = conn.call("cancel", &id, T).unwrap();
    assert_eq!(outcome, CancelOutcome::TooLate);
    let done = match client::poll(&conn, id, T).unwrap() {
        JobStatus::Done(r) => r,
        other => panic!("a too-late cancel leaves the job to complete, got {other:?}"),
    };
    match client::submit(&conn, &late, T).unwrap() {
        IngressSubmitOutcome::Cached(r) => assert_eq!(r.counts, done.counts),
        other => panic!("late-cancelled job's result must be cached, got {other:?}"),
    }
    sched.shutdown();
}

/// An ingress on its own `Obs::wall()` — cache counters and `compile.*`
/// spans hang off the handle, and the shared disabled one would mix in
/// other tests' — with a result cache of `capacity` entries.
fn observed_ingress(qrc: Arc<Qrc>, capacity: usize) -> (Obs, Scheduler, SchedIngress) {
    let obs = Obs::wall();
    let sched = Scheduler::start(qrc, obs.clone(), SchedConfig::default());
    let cfg = SchedIngressConfig {
        result_cache: CacheConfig::with_capacity(capacity),
        ..SchedIngressConfig::default()
    };
    let ingress = SchedIngress::start(sched.clone(), cfg, obs.clone());
    (obs, sched, ingress)
}

/// `[cache.front.hit, .miss, .stale, .evict]` as `obs` has counted them.
fn front(obs: &Obs) -> [u64; 4] {
    ["hit", "miss", "stale", "evict"].map(|n| obs.counter(&format!("cache.front.{n}")).get())
}

fn compile_spans(obs: &Obs) -> usize {
    let spans = obs.spans();
    spans.iter().filter(|s| s.name.starts_with("compile.")).count()
}

/// GHZ-`n` as OpenQASM 3 text, in an envelope otherwise like [`env`].
fn qasm3_env(tenant: &str, seed: u64, n: usize) -> JobEnvelope {
    let mut envelope = env(tenant, seed);
    envelope.circuit = qfw_compile::emit(&DagCircuit::from_circuit(&ghz(n)), &[]).unwrap();
    envelope
}

/// Submits expecting admission.
fn accepted(conn: &qfw_defw::Connection, envelope: &JobEnvelope) -> u64 {
    match client::submit(conn, envelope, T).unwrap() {
        IngressSubmitOutcome::Accepted(id) => id,
        other => panic!("expected acceptance, got {other:?}"),
    }
}

/// Submits expecting admission and waits for the result.
fn run(conn: &qfw_defw::Connection, envelope: &JobEnvelope) -> QfwResult {
    let id = accepted(conn, envelope);
    match client::wait(conn, id, T).unwrap() {
        JobStatus::Done(r) => r,
        other => panic!("job {id} did not complete: {other:?}"),
    }
}

/// Submits expecting to be answered from the cache.
fn cached(conn: &qfw_defw::Connection, envelope: &JobEnvelope) -> QfwResult {
    match client::submit(conn, envelope, T).unwrap() {
        IngressSubmitOutcome::Cached(r) => r,
        other => panic!("expected a cached result, got {other:?}"),
    }
}

/// A byte-identical resubmission is answered by the front key alone: the
/// same counts and marker as any hit, and nothing was compiled, admitted
/// or executed to produce it.
#[test]
fn identical_qasm3_repeat_skips_compile_and_admission() {
    let qrc = qrc(2);
    let (obs, sched, ingress) = observed_ingress(Arc::clone(&qrc), 64);
    let conn = ingress.connect();
    let envelope = qasm3_env("hot", 5, 5);

    let cold = run(&conn, &envelope);
    assert_eq!(front(&obs), [0, 1, 0, 0], "first sight of these bytes");
    let before = (compile_spans(&obs), sched.stats().admitted, qrc.engine_invocations());
    assert!(before.0 > 0, "the cold submit compiled the program");

    let warm = cached(&conn, &envelope);
    assert_eq!(warm.counts, cold.counts, "front hit must be bitwise identical");
    assert_eq!(warm.metadata["result_cached"], "true");
    assert!(!cold.metadata.contains_key("result_cached"));
    let after = (compile_spans(&obs), sched.stats().admitted, qrc.engine_invocations());
    assert_eq!(after, before, "a front hit compiles, admits and runs nothing");
    assert_eq!(front(&obs), [1, 1, 0, 0]);
    // One served request is one result-tier hit, not two.
    assert_eq!(ingress.cache_stats().hits, 1);
    sched.shutdown();
}

/// The canonical key still decides equality: a reformatted program is new
/// bytes (front miss), compiles onto its twin's entry, and from then on
/// its own bytes are known too.
#[test]
fn reformatted_variant_shares_the_entry_then_front_hits() {
    let (obs, sched, ingress) = observed_ingress(qrc(2), 64);
    let conn = ingress.connect();
    let envelope = qasm3_env("fmt", 6, 4);
    let cold = run(&conn, &envelope);

    let mut variant = envelope.clone();
    variant.circuit = format!("// reformatted\n{}", envelope.circuit.replace('\n', "\n\n"));
    let twin = cached(&conn, &variant);
    assert_eq!(twin.counts, cold.counts);
    assert_eq!(front(&obs), [0, 2, 0, 0], "new bytes miss the front tier");
    assert_eq!(ingress.cache_stats().hits, 1, "served from the twin's entry");
    assert_eq!(ingress.cache_stats().entries, 1, "one program, one entry");

    let compiled = compile_spans(&obs);
    let again = cached(&conn, &variant);
    assert_eq!(again.counts, cold.counts);
    assert_eq!(front(&obs), [1, 2, 0, 0], "the variant's own bytes now front-hit");
    assert_eq!(compile_spans(&obs), compiled);
    assert_eq!(ingress.cache_stats().hits, 2);
    sched.shutdown();
}

/// Everything that is part of the computation is part of the request key;
/// who asked, how urgently and by when is not.
#[test]
fn request_key_ingredients_separate_and_scheduling_fields_do_not() {
    let (obs, sched, ingress) = observed_ingress(qrc(2), 64);
    let conn = ingress.connect();
    let base = qasm3_env("alice", 7, 4);
    let cold = run(&conn, &base);

    let with_spec = |spec: BackendSpec| base.clone().with_spec(spec);
    let mut more_shots = base.clone();
    more_shots.shots += 1;
    let changed = [
        ("seed", base.clone().with_seed(8)),
        ("shots", more_shots),
        ("subbackend", with_spec(BackendSpec::of("nwqsim", "openmp"))),
        ("ranks", with_spec(base.spec.clone().with_ranks(2))),
        ("extra", with_spec(base.spec.clone().with_extra("site", "ornl"))),
    ];
    for (what, envelope) in &changed {
        match client::submit(&conn, envelope, T).unwrap() {
            IngressSubmitOutcome::Accepted(id) => {
                assert!(matches!(client::wait(&conn, id, T).unwrap(), JobStatus::Done(_)));
            }
            other => panic!("a different {what} is a different job, got {other:?}"),
        }
    }
    assert_eq!(front(&obs)[0], 0, "none of them was a front hit");

    let mut other_tenant = base.clone();
    other_tenant.tenant = "bob".into();
    let same = [
        ("tenant", other_tenant),
        ("priority", base.clone().with_priority(Priority::High)),
        ("deadline", base.clone().with_deadline_ms(5)),
    ];
    for (what, envelope) in &same {
        let warm = cached(&conn, envelope);
        assert_eq!(warm.counts, cold.counts, "{what} is not part of the job");
    }
    assert_eq!(front(&obs)[0], same.len() as u64, "each was served by the front key");
    sched.shutdown();
}

/// What ingestion or admission refuses, it refuses on every repeat: no
/// alias is made for a request that never became a job.
#[test]
fn refused_requests_are_refused_again_and_never_aliased() {
    let (obs, sched, ingress) = observed_ingress(qrc(2), 64);
    let conn = ingress.connect();

    let mut unbound = qasm3_env("bad", 1, 2);
    unbound.circuit =
        "OPENQASM 3;\ninput float[64] theta;\nqubit[2] q;\nrx(theta) q[0];\n".into();
    let mut garbled = qasm3_env("bad", 2, 4);
    garbled.spec = garbled.spec.with_extra("calibration", "{not json");

    for (envelope, needle) in [(&unbound, "qasm3"), (&garbled, "calibration")] {
        let first = client::submit(&conn, envelope, T).unwrap_err().to_string();
        let second = client::submit(&conn, envelope, T).unwrap_err().to_string();
        assert!(first.contains(needle), "err={first}");
        assert_eq!(first, second, "the repeat is refused the same way");
    }
    assert_eq!(front(&obs), [0, 4, 0, 0], "four lookups, all of bytes never admitted");
    assert_eq!(sched.stats().admitted, 0);
    sched.shutdown();
}

/// An alias can outlive its result: aliases age by when their bytes last
/// arrived, results by when they were produced or last served. The repeat
/// then takes the full path and runs again — same key, same engine, same
/// counts.
#[test]
fn alias_that_outlives_its_result_falls_through_to_execution() {
    // One slot, so the queue's order is the finish order; each tier is one
    // shard of two entries, so eviction is plain LRU.
    let obs = Obs::wall();
    let paused = SchedConfig {
        start_paused: true,
        ..SchedConfig::default()
    };
    let sched = Scheduler::start(qrc(1), obs.clone(), paused);
    let cfg = SchedIngressConfig {
        result_cache: CacheConfig {
            capacity: 2,
            shards: 1,
        },
        ..SchedIngressConfig::default()
    };
    let ingress = SchedIngress::start(sched.clone(), cfg, obs.clone());
    let conn = ingress.connect();

    // X's bytes arrive before A's, A's result is produced before X's.
    let a = qasm3_env("evict", 21, 4).with_priority(Priority::High);
    let x = accepted(&conn, &qasm3_env("evict", 22, 5));
    let first_id = accepted(&conn, &a);
    sched.resume();
    let first = match sched.wait(first_id, T) {
        JobStatus::Done(r) => r,
        other => panic!("A did not complete: {other:?}"),
    };
    assert!(matches!(sched.wait(x, T), JobStatus::Done(_)));
    // A third job's alias displaces X's (the older alias); its result
    // displaces A's (the older result).
    run(&conn, &qasm3_env("evict", 23, 4));
    assert_eq!(front(&obs), [0, 3, 0, 1]);
    assert_eq!(ingress.cache_stats().evictions, 1);

    let admitted = sched.stats().admitted;
    let second = run(&conn, &a);
    assert_eq!(front(&obs), [0, 3, 1, 1], "A's alias was there, its result was not");
    assert_eq!(sched.stats().admitted, admitted + 1, "so A ran again");
    assert_eq!(second.counts, first.counts, "and produced what it produced before");
    assert!(!second.metadata.contains_key("result_cached"));
    sched.shutdown();
}

/// A paused scheduler behind an ingress with ONE worker: requests are
/// handled in the order they were accepted, so once a later request has
/// been answered, every earlier `wait` has been handled — and, its job
/// still queued, is parked.
fn paused_single_worker_ingress() -> (Scheduler, SchedIngress) {
    let sched = Scheduler::start(
        qrc(2),
        Obs::disabled(),
        SchedConfig {
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let mut cfg = SchedIngressConfig::default();
    cfg.ingress.workers = 1;
    let ingress = SchedIngress::start(sched.clone(), cfg, Obs::disabled());
    (sched, ingress)
}

fn status(raw: &[u8]) -> JobStatus {
    serde_json::from_slice(raw).unwrap()
}

fn done(status: JobStatus) -> QfwResult {
    match status {
        JobStatus::Done(r) => r,
        other => panic!("expected a finished job, got {other:?}"),
    }
}

/// Submit + wait is two ingress requests per job — `stats().completed` is
/// the counter the harness's `client.polls_per_job` reads — and what the
/// wait returns is bitwise what `Scheduler::wait` returns.
#[test]
fn submit_and_wait_cost_two_requests_per_job() {
    const JOBS: u64 = 50;
    let (sched, ingress) = ingress_with(SchedConfig::default());
    let conn = ingress.connect();
    for seed in 0..JOBS {
        let id = accepted(&conn, &env("two", seed));
        let waited = done(client::wait(&conn, id, T).unwrap());
        assert_eq!(waited.counts.values().sum::<usize>(), 100);
        assert_eq!(waited.counts, done(sched.wait(id, T)).counts);
    }
    assert_eq!(ingress.ingress().stats().completed, 2 * JOBS);
    sched.shutdown();
}

/// No head-of-line blocking: four clients parked in `wait` behind the one
/// ingress worker do not keep a fifth from being served, and all four are
/// answered when their jobs run.
#[test]
fn parked_waits_do_not_occupy_the_ingress_worker() {
    let (sched, ingress) = paused_single_worker_ingress();
    let ingress = Arc::new(ingress);
    let (parked_tx, parked_rx) = std::sync::mpsc::channel();
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let (ingress, parked_tx) = (Arc::clone(&ingress), parked_tx.clone());
            std::thread::spawn(move || {
                let conn = ingress.connect();
                let id = accepted(&conn, &env("parked", c));
                let wait = conn.send("wait", &id).unwrap();
                parked_tx.send(()).unwrap();
                done(status(&conn.wait(wait, T).unwrap()))
            })
        })
        .collect();
    for _ in 0..4 {
        parked_rx.recv().unwrap();
    }
    let fifth = ingress.connect();
    accepted(&fifth, &env("fifth", 0));
    let stats: SchedStats = fifth.call("stats", &(), T).unwrap();
    assert_eq!((stats.admitted, stats.completed), (5, 0));
    // Ten requests accepted, six answered: the four waits hold no worker.
    let transport = ingress.ingress().stats();
    assert_eq!((transport.accepted, transport.completed), (10, 6));

    sched.resume();
    for client in clients {
        assert_eq!(client.join().unwrap().counts.values().sum::<usize>(), 100);
    }
    assert_eq!(ingress.ingress().stats().completed, 10);
    sched.shutdown();
}

/// Every answer a `wait` can get besides a fresh `Done`: nothing to wait
/// for (unknown id, finished id) is answered at once; a job cancelled, or
/// drained by `shutdown`, while its wait is parked answers `Cancelled`.
#[test]
fn wait_answers_unknown_finished_cancelled_and_shutdown() {
    let (sched, ingress) = paused_single_worker_ingress();
    let conn = ingress.connect();
    assert!(matches!(client::wait(&conn, 999_999, T).unwrap(), JobStatus::Unknown));

    let cancelled = accepted(&conn, &env("end", 1));
    let wait = conn.send("wait", &cancelled).unwrap();
    // Answered after the wait was handled: it is parked.
    let _: SchedStats = conn.call("stats", &(), T).unwrap();
    assert_eq!(sched.cancel(cancelled), CancelOutcome::Cancelled);
    assert!(matches!(status(&conn.wait(wait, T).unwrap()), JobStatus::Cancelled));
    assert!(matches!(client::wait(&conn, cancelled, T).unwrap(), JobStatus::Cancelled));

    sched.resume();
    let id = accepted(&conn, &env("end", 2));
    let first = done(client::wait(&conn, id, T).unwrap());
    let again = done(client::wait(&conn, id, T).unwrap());
    assert_eq!(first.counts, again.counts);
    sched.shutdown();

    // A wait parked on a job that `shutdown` drains.
    let (sched, ingress) = paused_single_worker_ingress();
    let conn = ingress.connect();
    let drained = accepted(&conn, &env("end", 3));
    let wait = conn.send("wait", &drained).unwrap();
    let _: SchedStats = conn.call("stats", &(), T).unwrap();
    sched.shutdown();
    assert!(matches!(status(&conn.wait(wait, T).unwrap()), JobStatus::Cancelled));
}

/// Several waiters on one job all get the same result, and waiters beyond
/// the per-record bound are answered at once with the live status and get
/// the result by asking again — which is what `client::wait` does.
#[test]
fn a_crowd_on_one_job_is_bounded_and_all_answered() {
    let (sched, ingress) = paused_single_worker_ingress();
    let ingress = Arc::new(ingress);
    let conn = ingress.connect();
    let id = accepted(&conn, &env("crowd", 5));
    let waits: Vec<u64> = (0..WAITERS_PER_JOB + 3)
        .map(|_| conn.send("wait", &id).unwrap())
        .collect();
    let (parked, refused) = waits.split_at(WAITERS_PER_JOB);
    for wait in refused {
        assert!(matches!(status(&conn.wait(*wait, T).unwrap()), JobStatus::Queued));
    }
    let late = {
        let ingress = Arc::clone(&ingress);
        std::thread::spawn(move || client::wait(&ingress.connect(), id, T).unwrap())
    };
    sched.resume();
    let reference = done(sched.wait(id, T));
    for wait in parked {
        assert_eq!(done(status(&conn.wait(*wait, T).unwrap())).counts, reference.counts);
    }
    assert_eq!(done(late.join().unwrap()).counts, reference.counts);
    sched.shutdown();
}

/// `client::wait` returns the status either way: a deadline shorter than
/// the job yields the live, non-terminal status in about that long, and
/// the job is still there for a later wait.
#[test]
fn wait_deadline_returns_live_status_and_loses_nothing() {
    let (sched, ingress) = paused_single_worker_ingress();
    let conn = ingress.connect();
    let id = accepted(&conn, &env("slow", 6));
    let start = std::time::Instant::now();
    let early = client::wait(&conn, id, Duration::from_millis(50)).unwrap();
    assert!(matches!(early, JobStatus::Queued), "got {early:?}");
    assert!(start.elapsed() >= Duration::from_millis(50));
    assert!(start.elapsed() < Duration::from_secs(20), "a 50 ms deadline took {:?}", start.elapsed());
    sched.resume();
    let result = done(client::wait(&conn, id, T).unwrap());
    assert_eq!(result.counts.values().sum::<usize>(), 100);
    sched.shutdown();
}
