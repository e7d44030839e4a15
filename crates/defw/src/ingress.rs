//! The transport: one frame, one bounded queue, one worker loop, one reply.
//!
//! Every request in this crate — a hub [`Client`](crate::Client) call to a
//! named service, a pipelined [`Connection`] request to a scheduler front
//! door — is the same frame in the same queue, dispatched by the same
//! worker loop into a [`Service`] and answered through the same [`Reply`].
//! The two client shapes differ only in where replies land: a hub call
//! brings its own one-slot reply channel, a connection shares one channel
//! across its requests.
//!
//! * **Multiplexing** — one [`Connection`] carries many concurrent logical
//!   requests, each tagged with a per-connection correlation id. Replies
//!   come back over the connection's single reply channel, possibly out of
//!   order; [`Connection::call`] stashes strays so pipelined callers can
//!   also do simple request/response.
//! * **Bounded admission** — the request queue has a hard depth. When it is
//!   full, [`Connection::send_raw`] fails *immediately* with
//!   [`IngressError::Overloaded`] carrying a `retry_after` hint derived
//!   from the observed service rate — typed backpressure instead of
//!   unbounded buffering (see Section 2.2's sustained-load requirement). A
//!   depth of `usize::MAX` is "no bound", which is how the hub runs.
//! * **Lock-free reply routing** — every frame carries a clone of its reply
//!   sender, so workers route replies without consulting any registry; the
//!   handler is a fixed `Arc` installed at startup. A sender takes the read
//!   side of the admission lock and the queue's own channel mutex, nothing
//!   else.
//! * **Deferred replies** — a request's return path is a value, [`Reply`]:
//!   correlation id, target service, attempt number, the reply sender, the
//!   counts a reply bumps. The worker hands it to [`Service::serve`]; a
//!   handler either gives it back with the outcome (the worker sends it) or
//!   keeps it and calls [`Reply::send`] later from any thread, and the
//!   worker goes back to the queue as soon as the handler returns. Every
//!   reply goes through that one `send`, which is the one place a request
//!   is counted ([`IngressStats::completed`]/`errors`, the per-service
//!   [`ServiceStats`](crate::ServiceStats), `defw.calls`/`defw.errors`);
//!   the `retry_after` estimate keeps measuring how long a request occupied
//!   a *worker*, which a parked reply does not. A `Reply` holds no handle
//!   on the request queue, so replies parked past [`Ingress::shutdown`]
//!   keep no worker alive.
//! * **Shutdown** — [`Ingress::shutdown`], or dropping the handle, closes
//!   admission: later sends fail with [`IngressError::Shutdown`], frames
//!   admitted before it are still served, and workers exit once the queue
//!   is drained. Idle workers are joined; one inside a handler is not
//!   waited for.
//!
//! The handler is a byte-level [`Service`]: a
//! [`MethodTable`](crate::MethodTable) directly — the scheduler's ingress
//! service (in `qfw-sched`) does exactly that, with one
//! [`MethodTable::deferred`](crate::MethodTable::deferred) method, `wait`,
//! whose reply is sent by the thread that finishes the job — or the hub's
//! registry, which routes each frame to the service it names.

use crate::{decode, encode, RpcError, Service, ServiceStats};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};
use qfw_obs::Obs;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// One reply frame, delivered over the request's reply channel.
#[derive(Debug)]
pub struct ReplyFrame {
    /// Correlation id of the request this answers.
    pub correlation: u64,
    /// Handler outcome: raw reply bytes or the error.
    pub body: Result<Vec<u8>, IngressError>,
}

/// A queued request: the frame plus its return path.
struct Frame {
    method: String,
    /// Shared, not owned: retries re-enqueue the same serialized bytes
    /// instead of re-marshaling the request per attempt.
    payload: Arc<Vec<u8>>,
    reply: Reply,
}

/// Where requests come from and where their replies go: a [`Connection`]
/// has one for its lifetime, a hub call one of its own.
#[derive(Clone)]
pub(crate) struct Route {
    pub(crate) conn: u64,
    /// The named service the requests are for; empty on a plain
    /// [`Ingress::connect`] connection, whose transport has one handler.
    pub(crate) service: Arc<str>,
    pub(crate) tx: Sender<ReplyFrame>,
}

/// The return path of one request, as a value: the rest of the frame's
/// header (its route, correlation id and attempt number) — so a clone of the
/// reply channel, and nothing is looked up to route a reply — and the counts
/// a reply bumps. [`Service::serve`] receives it and either hands it back
/// with the outcome or keeps it and answers later from any thread; either
/// way the one [`Reply::send`] is how a request gets its answer. It holds no
/// handle on the request queue, so a parked reply never keeps the workers
/// alive.
pub struct Reply {
    pub(crate) route: Route,
    correlation: u64,
    /// 1-based ([`Client::call_with_retry`](crate::Client::call_with_retry)
    /// increments it).
    attempt: u32,
    tally: Arc<Tally>,
    /// The target service's own counts, once the registry has found it.
    pub(crate) service_counts: Option<Arc<Counts>>,
}

impl Reply {
    /// Answers the request: counts it, then delivers the frame. The
    /// receiver may be gone — replies to the dead are free.
    pub fn send(self, body: Result<Vec<u8>, RpcError>) {
        self.tally.count(&self.tally.completed, "defw.calls");
        if body.is_err() {
            self.tally.count(&self.tally.errors, "defw.errors");
        }
        if let Some(counts) = &self.service_counts {
            counts.calls.fetch_add(1, Ordering::Relaxed);
            if body.is_err() {
                counts.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = self.route.tx.send(ReplyFrame {
            correlation: self.correlation,
            body: body.map_err(IngressError::from),
        });
    }

    /// [`Reply::send`] with a typed handler outcome, encoded as JSON.
    pub fn send_typed<Resp: Serialize>(self, outcome: Result<Resp, String>) {
        self.send(outcome.map_err(RpcError::Handler).and_then(|resp| encode(&resp)));
    }
}

/// One service's answered requests, counted in [`Reply::send`].
#[derive(Default)]
pub(crate) struct Counts {
    calls: AtomicU64,
    errors: AtomicU64,
}

impl Counts {
    pub(crate) fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            calls: self.calls.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// What one transport counts, shared with each outstanding [`Reply`].
struct Tally {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    obs: Obs,
}

impl Tally {
    /// One event, where [`Ingress::stats`] reads it and on the registry.
    fn count(&self, cell: &AtomicU64, name: &str) {
        cell.fetch_add(1, Ordering::Relaxed);
        if self.obs.is_enabled() {
            self.obs.counter(name).inc();
        }
    }
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

/// The admission side of a transport, shared by its [`Ingress`] handle, its
/// workers and every client endpoint.
pub(crate) struct Shared {
    /// `None` once shut down. A sender holds the read side for one
    /// `try_send`, so closing waits for it and admits nothing after.
    queue: RwLock<Option<Sender<Frame>>>,
    queue_depth: usize,
    workers: usize,
    ids: AtomicU64,
    /// EWMA of how long a request occupies a worker, microseconds (seeded
    /// at 1ms). A deferred reply's wait is not in it: the worker was free.
    avg_handle_us: AtomicU64,
    tally: Arc<Tally>,
}

impl Shared {
    pub(crate) fn obs(&self) -> &Obs {
        &self.tally.obs
    }

    /// A fresh connection id. A hub call, being a connection of one
    /// request, uses it as its correlation id too.
    pub(crate) fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// The one way into the queue: builds the frame and offers it. Never
    /// blocks, never buffers beyond the bound.
    pub(crate) fn send(
        &self,
        route: Route,
        correlation: u64,
        method: &str,
        attempt: u32,
        payload: Arc<Vec<u8>>,
    ) -> Result<(), IngressError> {
        let queue = self.queue.read();
        let Some(queue) = queue.as_ref() else {
            return Err(IngressError::Shutdown);
        };
        let reply = Reply {
            route,
            correlation,
            attempt,
            tally: Arc::clone(&self.tally),
            service_counts: None,
        };
        let frame = Frame {
            method: method.to_string(),
            payload,
            reply,
        };
        match queue.try_send(frame) {
            Ok(()) => {
                self.tally.count(&self.tally.accepted, "ingress.accepted");
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.tally.count(&self.tally.rejected, "ingress.rejected");
                // Expected drain time for the backlog ahead of the caller.
                let avg_us = self.avg_handle_us.load(Ordering::Relaxed).max(1);
                let backlog = queue.len() as u64 + 1;
                let positions = backlog.div_ceil(self.workers.max(1) as u64);
                let hint_us = (avg_us * positions).clamp(100, 60_000_000);
                Err(IngressError::Overloaded {
                    retry_after: Duration::from_micros(hint_us),
                })
            }
            // Every worker died in a panicking handler.
            Err(TrySendError::Disconnected(_)) => Err(IngressError::Shutdown),
        }
    }
}

/// One blocking read of a reply channel, its errors put as the transport's.
pub(crate) fn recv_frame(
    rx: &Receiver<ReplyFrame>,
    timeout: Duration,
    correlation: u64,
) -> Result<ReplyFrame, IngressError> {
    rx.recv_timeout(timeout).map_err(|e| match e {
        RecvTimeoutError::Timeout => IngressError::Timeout { correlation },
        RecvTimeoutError::Disconnected => IngressError::Shutdown,
    })
}

/// A running transport: the queue plus a worker pool over one [`Service`].
pub struct Ingress {
    pub(crate) shared: Arc<Shared>,
    /// Each worker with its "inside a handler" flag.
    workers: Vec<(JoinHandle<()>, Arc<AtomicBool>)>,
}

impl Ingress {
    /// Starts the transport over `handler`. Counters and `rpc.handle` spans
    /// are recorded on `obs` when enabled. A `queue_depth` of `usize::MAX`
    /// is "no bound".
    pub fn start(config: IngressConfig, handler: Arc<dyn Service>, obs: Obs) -> Ingress {
        assert!(config.workers >= 1, "need at least one ingress worker");
        assert!(config.queue_depth >= 1, "queue depth must be positive");
        let (tx, rx) = bounded(config.queue_depth);
        let shared = Arc::new(Shared {
            queue: RwLock::new(Some(tx)),
            queue_depth: config.queue_depth,
            workers: config.workers,
            ids: AtomicU64::new(1),
            avg_handle_us: AtomicU64::new(1_000),
            tally: Arc::new(Tally {
                accepted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                obs,
            }),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let busy = Arc::new(AtomicBool::new(false));
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                let flag = Arc::clone(&busy);
                let thread = std::thread::Builder::new()
                    .name(format!("defw-worker-{i}"))
                    .spawn(move || Self::worker_loop(rx, shared, handler, flag))
                    .expect("spawn defw worker");
                (thread, busy)
            })
            .collect();
        Ingress { shared, workers }
    }

    fn worker_loop(
        rx: Receiver<Frame>,
        shared: Arc<Shared>,
        handler: Arc<dyn Service>,
        busy: Arc<AtomicBool>,
    ) {
        let obs = shared.obs().clone();
        while let Ok(frame) = rx.recv() {
            busy.store(true, Ordering::SeqCst);
            let mut span = obs.span("defw", "rpc.handle");
            span.set_attr("attempt", u64::from(frame.reply.attempt));
            span.set_attr("conn", frame.reply.route.conn);
            span.set_attr("correlation", frame.reply.correlation);
            span.set_attr("method", frame.method.as_str());
            span.set_attr("payload_bytes", frame.payload.len());
            span.set_attr("service", &*frame.reply.route.service);
            let start = Instant::now();
            let answered = handler.serve(&frame.method, &frame.payload, frame.reply);
            let handle_us = start.elapsed().as_micros() as u64;
            match &answered {
                Some((_, result)) => span.set_attr("ok", result.is_ok()),
                None => span.set_attr("deferred", true),
            }
            // The span is closed and sampled before the reply goes out: a
            // caller that has its answer finds both already recorded.
            let (span_start, span_end) = span.finish();
            if obs.is_enabled() {
                // On the obs clock, so the histogram stays deterministic
                // under the virtual clock.
                obs.histogram("defw.handle_us")
                    .observe_us(span_end.saturating_sub(span_start));
            }
            // EWMA (7/8 old, 1/8 new): cheap, lock-free service-rate
            // estimate feeding the Overloaded retry hint.
            let old = shared.avg_handle_us.load(Ordering::Relaxed);
            let new = (old.saturating_mul(7) + handle_us.max(1)) / 8;
            shared.avg_handle_us.store(new, Ordering::Relaxed);
            if let Some((reply, result)) = answered {
                reply.send(result);
            }
            busy.store(false, Ordering::SeqCst);
        }
    }

    /// Opens a logical client connection (cheap; no handshake).
    pub fn connect(&self) -> Connection {
        self.connect_to("")
    }

    /// A connection whose requests name `service`, for a transport whose
    /// handler routes by name (the hub's registry).
    pub(crate) fn connect_to(&self, service: &str) -> Connection {
        let (tx, rx) = unbounded();
        Connection {
            shared: Arc::clone(&self.shared),
            route: Route {
                conn: self.shared.next_id(),
                service: service.into(),
                tx,
            },
            correlation: AtomicU64::new(1),
            reply_rx: rx,
            stash: Mutex::new(HashMap::new()),
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> IngressStats {
        let tally = &self.shared.tally;
        IngressStats {
            accepted: tally.accepted.load(Ordering::Relaxed),
            rejected: tally.rejected.load(Ordering::Relaxed),
            completed: tally.completed.load(Ordering::Relaxed),
            errors: tally.errors.load(Ordering::Relaxed),
        }
    }

    /// Requests admitted but not yet dispatched.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.read().as_ref().map_or(0, |q| q.len())
    }

    /// The configured queue depth (admission bound).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth
    }

    /// Shuts the transport down, which is what dropping the handle does.
    pub fn shutdown(self) {}
}

impl Drop for Ingress {
    /// Closes admission — later sends fail with [`IngressError::Shutdown`];
    /// the channel disconnects, so frames admitted before are still served
    /// and the workers then exit — and joins every worker that is not inside
    /// a handler. One that is finishes, answers and exits on its own: an
    /// abandoned long job must not hold teardown up.
    fn drop(&mut self) {
        self.shared.queue.write().take();
        for (worker, busy) in self.workers.drain(..) {
            // Neither finished nor busy is a worker between the queue and a
            // handler, or between the closed queue and its exit: a few
            // instructions either way.
            while !worker.is_finished() && !busy.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            if worker.is_finished() {
                let _ = worker.join();
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
    route: Route,
    correlation: AtomicU64,
    reply_rx: Receiver<ReplyFrame>,
    /// Replies that arrived while a different correlation id was being
    /// awaited in [`Connection::call`].
    stash: Mutex<HashMap<u64, Result<Vec<u8>, IngressError>>>,
}

impl Connection {
    /// This connection's id (appears in `rpc.handle` span attrs).
    pub fn id(&self) -> u64 {
        self.route.conn
    }

    /// Enqueues pre-serialized bytes; returns the correlation id the reply
    /// will carry. Fails fast with [`IngressError::Overloaded`] when the
    /// queue is full — never blocks, never buffers beyond the bound.
    pub fn send_raw(&self, method: &str, payload: Arc<Vec<u8>>) -> Result<u64, IngressError> {
        let correlation = self.correlation.fetch_add(1, Ordering::Relaxed);
        self.shared.send(self.route.clone(), correlation, method, 1, payload)?;
        Ok(correlation)
    }

    /// Typed [`Connection::send_raw`]: serializes `req` as JSON.
    pub fn send<Req: Serialize>(&self, method: &str, req: &Req) -> Result<u64, IngressError> {
        self.send_raw(method, Arc::new(encode(req)?))
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
        recv_frame(&self.reply_rx, timeout, 0)
    }

    /// Blocks for the reply to one specific request, stashing any other
    /// replies that arrive first (they stay claimable by later waits).
    pub fn wait(&self, correlation: u64, timeout: Duration) -> Result<Vec<u8>, IngressError> {
        if let Some(body) = self.stash.lock().remove(&correlation) {
            return body;
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(IngressError::Timeout { correlation })?;
            let frame = recv_frame(&self.reply_rx, remaining, correlation)?;
            if frame.correlation == correlation {
                return frame.body;
            }
            self.stash.lock().insert(frame.correlation, frame.body);
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
        Ok(decode(&self.wait(correlation, timeout)?)?)
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

    /// Everything the one loop records comes off the obs clock, so two runs
    /// of the same requests on the same virtual clock export the same bytes.
    #[test]
    fn same_seed_runs_export_identical_bytes() {
        let run = |seed: u64| {
            let obs = Obs::virtual_clock(seed);
            let cfg = IngressConfig {
                queue_depth: 8,
                workers: 1,
            };
            let ingress = Ingress::start(cfg, echo(), obs.clone());
            let conn = ingress.connect();
            for word in ["a", "bb", "ccc"] {
                let out: String = conn.call("echo", &word.to_string(), T).unwrap();
                assert_eq!(out, word);
            }
            let _: u64 = conn.call("slow", &3u64, T).unwrap();
            assert!(conn.call::<_, String>("fail", &"x".to_string(), T).is_err());
            let stats = ingress.stats();
            assert_eq!((stats.accepted, stats.completed, stats.errors), (5, 5, 1));
            ingress.shutdown();
            (obs.metrics_snapshot(), obs.chrome_trace())
        };
        let (metrics, trace) = run(21);
        assert!(metrics.contains("\"defw.handle_us\""), "{metrics}");
        assert!(metrics.contains("\"defw.calls\":5"), "{metrics}");
        assert!(trace.contains("\"rpc.handle\""), "{trace}");
        assert_eq!(run(21), (metrics, trace.clone()));
        assert_ne!(run(22).1, trace, "different seeds should tick differently");
    }

    /// `shutdown` closes admission and joins the idle workers, whatever
    /// connections are still open: the workers' handles on the handler are
    /// gone when it returns.
    #[test]
    fn shutdown_joins_idle_workers_under_a_live_connection() {
        let handler = echo();
        let ingress =
            Ingress::start(IngressConfig::default(), Arc::clone(&handler), Obs::disabled());
        let conn = ingress.connect();
        let out: String = conn.call("echo", &"hi".to_string(), T).unwrap();
        assert_eq!(out, "hi");
        ingress.shutdown();
        assert_eq!(Arc::strong_count(&handler), 1);
        let err = conn.send("echo", &"late".to_string()).unwrap_err();
        assert_eq!(err, IngressError::Shutdown);
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
