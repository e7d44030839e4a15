//! Pipelined, multiplexed ingress: the high-throughput front door.
//!
//! [`Defw`](crate::Defw) models the paper's RPC hub faithfully — one
//! rendezvous channel per call, a service registry consulted per dispatch —
//! which is the right shape for control-plane traffic but tops out well
//! below what a batched variational workload generates. This module is the
//! data-plane alternative:
//!
//! * **Multiplexing** — one [`Connection`] carries many concurrent logical
//!   requests, each tagged with a per-connection correlation id. Replies
//!   come back over the connection's single reply channel, possibly out of
//!   order; [`Connection::call`] stashes strays so pipelined callers can
//!   also do simple request/response.
//! * **Bounded admission** — the shared request queue has a hard depth.
//!   When it is full, [`Connection::send_raw`] fails *immediately* with
//!   [`IngressError::Overloaded`] carrying a `retry_after` hint derived
//!   from the observed service rate — typed backpressure instead of
//!   unbounded buffering (see Section 2.2's sustained-load requirement).
//! * **Lock-free hot path** — every request frame carries a clone of its
//!   connection's reply sender, so workers route replies without
//!   consulting any registry lock; the handler is a fixed `Arc` installed
//!   at startup. The only synchronization on the hot path is the queue's
//!   own channel mutex.
//! * **Deferred replies** — a request's return path is a value, [`Reply`]:
//!   correlation id, the connection's reply sender, the counters a reply
//!   bumps. The worker hands it to [`Service::serve`]; a handler either
//!   gives it back with the outcome (the worker sends it) or keeps it and
//!   calls [`Reply::send`] later from any thread, and the worker goes back
//!   to the queue as soon as the handler returns. Every reply goes through
//!   that one `send`, which is where [`IngressStats::completed`]/`errors`
//!   and `ingress.handled` count; the `retry_after` estimate keeps
//!   measuring how long a request occupied a *worker*, which a parked
//!   reply does not. A `Reply` holds no handle on the request queue, so
//!   replies parked past [`Ingress::shutdown`] keep no worker alive.
//!
//! The handler is the same byte-level [`Service`] trait the hub uses, so a
//! [`MethodTable`](crate::MethodTable) built for `Defw` plugs in unchanged
//! — the scheduler's ingress service (in `qfw-sched`) does exactly that,
//! with one [`MethodTable::deferred`](crate::MethodTable::deferred) method,
//! `wait`, whose reply is sent by the thread that finishes the job.

use crate::{RpcError, Service};
use crossbeam::channel::{unbounded, Receiver, Sender, TrySendError};
use qfw_obs::Obs;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by ingress operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngressError {
    /// The request queue is full; retry after the hinted backoff. The hint
    /// is the expected time for the backlog ahead of you to drain.
    Overloaded {
        /// Suggested client backoff before retrying.
        retry_after: Duration,
    },
    /// The handler (or codec) failed; see the wrapped RPC error.
    Rpc(RpcError),
    /// No reply arrived within the deadline.
    Timeout {
        /// Correlation id of the lost request.
        correlation: u64,
    },
    /// The ingress was shut down.
    Shutdown,
}

impl std::fmt::Display for IngressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngressError::Overloaded { retry_after } => {
                write!(f, "ingress overloaded; retry after {retry_after:?}")
            }
            IngressError::Rpc(e) => write!(f, "{e}"),
            IngressError::Timeout { correlation } => {
                write!(f, "request {correlation} timed out")
            }
            IngressError::Shutdown => write!(f, "ingress shut down"),
        }
    }
}

impl std::error::Error for IngressError {}

impl From<RpcError> for IngressError {
    fn from(e: RpcError) -> Self {
        IngressError::Rpc(e)
    }
}

/// Ingress tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct IngressConfig {
    /// Maximum queued (admitted, not yet dispatched) requests. Admission
    /// beyond this fails with [`IngressError::Overloaded`].
    pub queue_depth: usize,
    /// Dispatcher threads draining the queue into the handler.
    pub workers: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            queue_depth: 1024,
            workers: 4,
        }
    }
}

/// One reply frame, delivered over the connection's reply channel.
#[derive(Debug)]
pub struct ReplyFrame {
    /// Correlation id of the request this answers.
    pub correlation: u64,
    /// Handler outcome: raw reply bytes or the error.
    pub body: Result<Vec<u8>, IngressError>,
}

/// A queued request: the frame plus its return path.
struct Job {
    conn: u64,
    method: String,
    payload: Arc<Vec<u8>>,
    reply: Reply,
    enqueued: Instant,
}

/// The return path of one request, as a value: the correlation id, a clone
/// of the *connection's* reply channel (so nothing is looked up to route a
/// reply) and the counters a reply bumps. [`Service::serve`] receives it and
/// either hands it back with the outcome or keeps it and answers later from
/// any thread; either way the one [`Reply::send`] is how a request gets its
/// answer. It holds no handle on the request queue, so a parked reply never
/// keeps the ingress workers alive.
pub struct Reply {
    correlation: u64,
    tx: Sender<ReplyFrame>,
    tally: Arc<Tally>,
}

impl Reply {
    /// Answers the request: counts it, then delivers the frame. The
    /// connection may be gone — replies to the dead are free.
    pub fn send(self, body: Result<Vec<u8>, RpcError>) {
        let tally = &self.tally;
        tally.completed.fetch_add(1, Ordering::Relaxed);
        if body.is_err() {
            tally.errors.fetch_add(1, Ordering::Relaxed);
        }
        if tally.obs.is_enabled() {
            tally.obs.counter("ingress.handled").inc();
            if body.is_err() {
                tally.obs.counter("ingress.errors").inc();
            }
        }
        let _ = self.tx.send(ReplyFrame {
            correlation: self.correlation,
            body: body.map_err(IngressError::from),
        });
    }

    /// [`Reply::send`] with a typed handler outcome, encoded as JSON.
    pub fn send_typed<Resp: Serialize>(self, outcome: Result<Resp, String>) {
        self.send(outcome.map_err(RpcError::Handler).and_then(|resp| {
            serde_json::to_vec(&resp).map_err(|e| RpcError::Codec(e.to_string()))
        }));
    }
}

/// What a reply counts into, shared by the ingress and every outstanding
/// [`Reply`].
struct Tally {
    completed: AtomicU64,
    errors: AtomicU64,
    obs: Obs,
}

/// Point-in-time ingress statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests rejected with `Overloaded` at admission.
    pub rejected: u64,
    /// Requests answered (ok or handler error), counted when the reply is
    /// sent — for a deferred reply that is later than the handler's return.
    pub completed: u64,
    /// Answered requests whose reply was an error.
    pub errors: u64,
}

struct Shared {
    queue: Sender<Job>,
    queue_depth: usize,
    workers: usize,
    conn_ids: AtomicU64,
    /// EWMA of how long a request occupies a worker, microseconds (seeded
    /// at 1ms). A deferred reply's wait is not in it: the worker was free.
    avg_handle_us: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    tally: Arc<Tally>,
}

impl Shared {
    /// Expected drain time for the current backlog: the `Overloaded` hint.
    fn retry_after(&self) -> Duration {
        let avg_us = self.avg_handle_us.load(Ordering::Relaxed).max(1);
        let backlog = self.queue.len() as u64 + 1;
        let positions = backlog.div_ceil(self.workers.max(1) as u64);
        Duration::from_micros((avg_us * positions).clamp(100, 60_000_000))
    }
}

/// The ingress: a bounded queue plus a worker pool over one [`Service`].
pub struct Ingress {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Ingress {
    /// Starts the ingress over `handler`. Counters and `ingress.handle`
    /// spans are recorded on `obs` when enabled.
    pub fn start(config: IngressConfig, handler: Arc<dyn Service>, obs: Obs) -> Ingress {
        assert!(config.workers >= 1, "need at least one ingress worker");
        assert!(config.queue_depth >= 1, "queue depth must be positive");
        let (tx, rx): (Sender<Job>, Receiver<Job>) =
            crossbeam::channel::bounded(config.queue_depth);
        let shared = Arc::new(Shared {
            queue: tx,
            queue_depth: config.queue_depth,
            workers: config.workers,
            conn_ids: AtomicU64::new(1),
            avg_handle_us: AtomicU64::new(1_000),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            tally: Arc::new(Tally {
                completed: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                obs,
            }),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("ingress-worker-{i}"))
                    .spawn(move || Self::worker_loop(rx, shared, handler))
                    .expect("spawn ingress worker")
            })
            .collect();
        Ingress { shared, workers }
    }

    fn worker_loop(rx: Receiver<Job>, shared: Arc<Shared>, handler: Arc<dyn Service>) {
        let obs = shared.tally.obs.clone();
        while let Ok(job) = rx.recv() {
            let queue_us = job.enqueued.elapsed().as_micros() as u64;
            let mut span = obs.span("ingress", "ingress.handle");
            span.set_attr("conn", job.conn);
            span.set_attr("correlation", job.reply.correlation);
            span.set_attr("method", job.method.as_str());
            let start = Instant::now();
            let answered = handler.serve(&job.method, &job.payload, job.reply);
            let handle_us = start.elapsed().as_micros() as u64;
            match &answered {
                Some((_, result)) => span.set_attr("ok", result.is_ok()),
                None => span.set_attr("deferred", true),
            }
            drop(span);

            // EWMA (7/8 old, 1/8 new): cheap, lock-free service-rate
            // estimate feeding the Overloaded retry hint.
            let old = shared.avg_handle_us.load(Ordering::Relaxed);
            let new = (old.saturating_mul(7) + handle_us.max(1)) / 8;
            shared.avg_handle_us.store(new, Ordering::Relaxed);
            if obs.is_enabled() {
                obs.histogram("ingress.queue_us").observe_us(queue_us);
                obs.histogram("ingress.handle_us").observe_us(handle_us);
            }
            if let Some((reply, result)) = answered {
                reply.send(result);
            }
        }
    }

    /// Opens a logical client connection (cheap; no handshake).
    pub fn connect(&self) -> Connection {
        let (tx, rx) = unbounded();
        Connection {
            shared: Arc::clone(&self.shared),
            conn: self.shared.conn_ids.fetch_add(1, Ordering::Relaxed),
            correlation: AtomicU64::new(1),
            reply_tx: tx,
            reply_rx: rx,
            stash: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> IngressStats {
        IngressStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            completed: self.shared.tally.completed.load(Ordering::Relaxed),
            errors: self.shared.tally.errors.load(Ordering::Relaxed),
        }
    }

    /// Requests admitted but not yet dispatched.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// The configured queue depth (admission bound).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth
    }

    /// Drops the queue and joins workers that have already finished;
    /// like [`Defw::shutdown`](crate::Defw::shutdown), workers holding
    /// live connections exit once the last connection drops.
    pub fn shutdown(self) {
        let Ingress { shared, workers } = self;
        drop(shared);
        for w in workers {
            if w.is_finished() {
                let _ = w.join();
            }
        }
    }
}

/// One logical client: pipelined sends, multiplexed replies.
///
/// Not `Clone` — each concurrent logical client opens its own connection
/// via [`Ingress::connect`] (ids are per-connection, the reply channel is
/// single-consumer).
pub struct Connection {
    shared: Arc<Shared>,
    conn: u64,
    correlation: AtomicU64,
    reply_tx: Sender<ReplyFrame>,
    reply_rx: Receiver<ReplyFrame>,
    /// Replies that arrived while a different correlation id was being
    /// awaited in [`Connection::call`].
    stash: parking_lot::Mutex<HashMap<u64, Result<Vec<u8>, IngressError>>>,
}

impl Connection {
    /// This connection's id (appears in `ingress.handle` span attrs).
    pub fn id(&self) -> u64 {
        self.conn
    }

    /// Enqueues pre-serialized bytes; returns the correlation id the reply
    /// will carry. Fails fast with [`IngressError::Overloaded`] when the
    /// queue is full — never blocks, never buffers beyond the bound.
    pub fn send_raw(
        &self,
        method: &str,
        payload: Arc<Vec<u8>>,
    ) -> Result<u64, IngressError> {
        let correlation = self.correlation.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            conn: self.conn,
            method: method.to_string(),
            payload,
            reply: Reply {
                correlation,
                tx: self.reply_tx.clone(),
                tally: Arc::clone(&self.shared.tally),
            },
            enqueued: Instant::now(),
        };
        match self.shared.queue.try_send(job) {
            Ok(()) => {
                self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                if self.shared.tally.obs.is_enabled() {
                    self.shared.tally.obs.counter("ingress.accepted").inc();
                }
                Ok(correlation)
            }
            Err(TrySendError::Full(_)) => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                if self.shared.tally.obs.is_enabled() {
                    self.shared.tally.obs.counter("ingress.rejected").inc();
                }
                Err(IngressError::Overloaded {
                    retry_after: self.shared.retry_after(),
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(IngressError::Shutdown),
        }
    }

    /// Typed [`Connection::send_raw`]: serializes `req` as JSON.
    pub fn send<Req: Serialize>(&self, method: &str, req: &Req) -> Result<u64, IngressError> {
        let payload = serde_json::to_vec(req)
            .map_err(|e| IngressError::Rpc(RpcError::Codec(e.to_string())))?;
        self.send_raw(method, Arc::new(payload))
    }

    /// Blocks for the next reply frame, in arrival order. Frames stashed
    /// by [`Connection::call`] are drained first.
    pub fn recv(&self, timeout: Duration) -> Result<ReplyFrame, IngressError> {
        {
            let mut stash = self.stash.lock();
            if let Some(&correlation) = stash.keys().next() {
                let body = stash.remove(&correlation).expect("key just seen");
                return Ok(ReplyFrame { correlation, body });
            }
        }
        match self.reply_rx.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                Err(IngressError::Timeout { correlation: 0 })
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Err(IngressError::Shutdown)
            }
        }
    }

    /// Blocks for the reply to one specific request, stashing any other
    /// replies that arrive first (they stay claimable by later waits).
    pub fn wait(
        &self,
        correlation: u64,
        timeout: Duration,
    ) -> Result<Vec<u8>, IngressError> {
        if let Some(body) = self.stash.lock().remove(&correlation) {
            return body;
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(IngressError::Timeout { correlation })?;
            match self.reply_rx.recv_timeout(remaining) {
                Ok(frame) if frame.correlation == correlation => return frame.body,
                Ok(frame) => {
                    self.stash.lock().insert(frame.correlation, frame.body);
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    return Err(IngressError::Timeout { correlation })
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return Err(IngressError::Shutdown)
                }
            }
        }
    }

    /// Typed request/response over the multiplexed connection.
    pub fn call<Req: Serialize, Resp: DeserializeOwned>(
        &self,
        method: &str,
        req: &Req,
        timeout: Duration,
    ) -> Result<Resp, IngressError> {
        let correlation = self.send(method, req)?;
        let bytes = self.wait(correlation, timeout)?;
        serde_json::from_slice(&bytes)
            .map_err(|e| IngressError::Rpc(RpcError::Codec(e.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MethodTable;

    const T: Duration = Duration::from_secs(5);

    fn echo() -> Arc<dyn Service> {
        MethodTable::new("echo")
            .method("echo", |v: String| Ok(v))
            .method("slow", |ms: u64| {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(ms)
            })
            .method("fail", |_: String| Err::<String, _>("boom".into()))
            .build()
    }

    #[test]
    fn call_round_trip() {
        let ingress = Ingress::start(IngressConfig::default(), echo(), Obs::disabled());
        let conn = ingress.connect();
        let out: String = conn.call("echo", &"hi".to_string(), T).unwrap();
        assert_eq!(out, "hi");
        assert_eq!(ingress.stats().accepted, 1);
        assert_eq!(ingress.stats().completed, 1);
    }

    #[test]
    fn pipelined_requests_multiplex_out_of_order() {
        let cfg = IngressConfig {
            queue_depth: 64,
            workers: 4,
        };
        let ingress = Ingress::start(cfg, echo(), Obs::disabled());
        let conn = ingress.connect();
        // Slow request first, fast ones behind it: replies come back out
        // of order, and wait() must still pair them correctly.
        let slow = conn.send("slow", &60u64).unwrap();
        let fasts: Vec<u64> = (0..3).map(|_| conn.send("slow", &1u64).unwrap()).collect();
        for corr in &fasts {
            let bytes = conn.wait(*corr, T).unwrap();
            let ms: u64 = serde_json::from_slice(&bytes).unwrap();
            assert_eq!(ms, 1);
        }
        let bytes = conn.wait(slow, T).unwrap();
        let ms: u64 = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(ms, 60);
    }

    #[test]
    fn overload_rejects_with_retry_hint() {
        // One worker stuck on a slow job, a queue of one: the third send
        // must bounce with a typed Overloaded carrying a nonzero hint.
        let cfg = IngressConfig {
            queue_depth: 1,
            workers: 1,
        };
        let ingress = Ingress::start(cfg, echo(), Obs::disabled());
        let conn = ingress.connect();
        let first = conn.send("slow", &100u64).unwrap();
        // Wait until the worker picks the first job up, then fill the queue.
        let mut queued = None;
        for _ in 0..200 {
            if let Ok(corr) = conn.send("slow", &100u64) {
                if ingress.queue_len() == 1 {
                    queued = Some(corr);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = queued.expect("filled the queue");
        let err = conn.send("slow", &100u64).unwrap_err();
        match err {
            IngressError::Overloaded { retry_after } => {
                assert!(retry_after >= Duration::from_micros(100));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(ingress.stats().rejected >= 1);
        // The admitted requests still complete.
        assert!(conn.wait(first, T).is_ok());
        assert!(conn.wait(queued, T).is_ok());
    }

    #[test]
    fn handler_errors_propagate_typed() {
        let ingress = Ingress::start(IngressConfig::default(), echo(), Obs::disabled());
        let conn = ingress.connect();
        let err = conn
            .call::<_, String>("fail", &"x".to_string(), T)
            .unwrap_err();
        assert_eq!(err, IngressError::Rpc(RpcError::Handler("boom".into())));
        let err = conn
            .call::<_, String>("nope", &"x".to_string(), T)
            .unwrap_err();
        assert!(matches!(
            err,
            IngressError::Rpc(RpcError::MethodNotFound { .. })
        ));
        assert_eq!(ingress.stats().errors, 2);
    }

    #[test]
    fn connections_are_isolated() {
        let ingress = Ingress::start(IngressConfig::default(), echo(), Obs::disabled());
        let a = ingress.connect();
        let b = ingress.connect();
        assert_ne!(a.id(), b.id());
        let ca = a.send("echo", &"from-a".to_string()).unwrap();
        let cb = b.send("echo", &"from-b".to_string()).unwrap();
        let va: String = serde_json::from_slice(&a.wait(ca, T).unwrap()).unwrap();
        let vb: String = serde_json::from_slice(&b.wait(cb, T).unwrap()).unwrap();
        assert_eq!(va, "from-a");
        assert_eq!(vb, "from-b");
    }

    #[test]
    fn obs_counters_and_spans_record_ingress_traffic() {
        let obs = Obs::virtual_clock(5);
        let ingress = Ingress::start(IngressConfig::default(), echo(), obs.clone());
        let conn = ingress.connect();
        let _: String = conn.call("echo", &"x".to_string(), T).unwrap();
        let trace = obs.chrome_trace();
        assert!(trace.contains("\"ingress.handle\""), "{trace}");
        assert!(trace.contains("\"correlation\""), "{trace}");
        let snap = obs.metrics_snapshot();
        assert!(snap.contains("\"ingress.accepted\":1"), "{snap}");
        assert!(snap.contains("\"ingress.handled\":1"), "{snap}");
    }

    #[test]
    fn timeout_leaves_later_replies_claimable() {
        let ingress = Ingress::start(
            IngressConfig {
                queue_depth: 8,
                workers: 1,
            },
            echo(),
            Obs::disabled(),
        );
        let conn = ingress.connect();
        let corr = conn.send("slow", &50u64).unwrap();
        assert!(matches!(
            conn.wait(corr, Duration::from_millis(1)),
            Err(IngressError::Timeout { .. })
        ));
        // The reply still lands and a later wait on the same id gets it.
        let bytes = conn.wait(corr, T).unwrap();
        let ms: u64 = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(ms, 50);
    }

    /// A handler that keeps its reply does not keep the worker: with one
    /// worker, a request sent after the parked one is answered first; the
    /// parked reply is delivered under its own correlation id when released;
    /// `completed` counts at each `send`; a reply to a dropped connection is
    /// free.
    #[test]
    fn parked_reply_does_not_occupy_the_worker() {
        let parked: Arc<parking_lot::Mutex<Vec<(String, Reply)>>> = Arc::default();
        let keep = Arc::clone(&parked);
        let service = MethodTable::new("park")
            .method("echo", |v: String| Ok(v))
            .deferred("park", move |v: String, reply: Reply| keep.lock().push((v, reply)))
            .build();
        let cfg = IngressConfig {
            queue_depth: 8,
            workers: 1,
        };
        let ingress = Ingress::start(cfg, service, Obs::disabled());
        let conn = ingress.connect();
        let held = conn.send("park", &"later".to_string()).unwrap();
        let out: String = conn.call("echo", &"now".to_string(), T).unwrap();
        assert_eq!(out, "now");
        // The one worker took `park` before `echo`, so the reply is parked.
        assert_eq!(ingress.stats().completed, 1);
        assert_eq!(parked.lock().len(), 1);
        assert!(matches!(
            conn.wait(held, Duration::from_millis(1)),
            Err(IngressError::Timeout { .. })
        ));

        let (v, reply) = parked.lock().pop().unwrap();
        reply.send_typed(Ok(v));
        assert_eq!(ingress.stats().completed, 2);
        let out: String = serde_json::from_slice(&conn.wait(held, T).unwrap()).unwrap();
        assert_eq!(out, "later");

        // An undecodable payload is answered at once, as an error.
        let err = conn.call::<_, String>("park", &7u64, T).unwrap_err();
        assert!(matches!(err, IngressError::Rpc(RpcError::Codec(_))), "{err:?}");
        assert_eq!(ingress.stats().errors, 1);

        // A reply sent after its connection dropped goes nowhere, and counts.
        let gone = ingress.connect();
        gone.send("park", &"nobody".to_string()).unwrap();
        let _: String = conn.call("echo", &"sync".to_string(), T).unwrap();
        drop(gone);
        let (_, reply) = parked.lock().pop().unwrap();
        reply.send_typed(Err::<String, _>("too late".into()));
        let stats = ingress.stats();
        assert_eq!((stats.completed, stats.errors), (5, 2));
    }
}
