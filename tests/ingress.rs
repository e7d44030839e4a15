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

use qfw::registry::BackendRegistry;
use qfw::{BackendSpec, DispatchPolicy, Qrc};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use qfw_sched::ingress::client;
use qfw_sched::{
    CancelOutcome, IngressSubmitOutcome, JobEnvelope, JobStatus, SchedConfig, SchedIngress,
    SchedIngressConfig, Scheduler,
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
