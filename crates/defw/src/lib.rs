//! DEFw — the Distributed Execution Framework: QFw's lightweight RPC layer.
//!
//! In the paper, every interaction between the frontend (`QFwBackend`) and
//! the platform manager (QPM) — circuit creation, execution, status queries,
//! teardown — travels as an RPC over DEFw (Section 2.1, Fig. 1 step-5). This
//! crate reproduces that layer in-process:
//!
//! * [`Defw`] — a service registry plus a dispatcher thread pool. Handlers
//!   receive *bytes* and return bytes: requests are genuinely marshaled
//!   (serde_json) on the way in and out, like the paper's "results are
//!   marshaled into the common QPM API format".
//! * [`Client`] — typed sync ([`Client::call`]) and async
//!   ([`Client::call_async`]) calls with correlation IDs, timeouts, and
//!   structured error propagation.
//! * Per-service call statistics, feeding QFw's uniform timing/logging
//!   instrumentation.
//! * Resilience hooks: a seeded [`FaultPlan`] (from `qfw-chaos`) can drop
//!   replies, delay handlers, or poison codec paths deterministically;
//!   [`Client::call_with_retry`] layers exponential backoff on top, and
//!   per-service [`CircuitBreaker`]s (see [`Defw::enable_breakers`]) shed
//!   load from services that keep failing.
//! * [`ingress`] — the pipelined, multiplexed data-plane front door:
//!   bounded-queue admission with typed [`IngressError::Overloaded`]
//!   backpressure and per-request correlation ids, for workloads that
//!   outgrow the one-channel-per-call hub.

pub mod ingress;

pub use ingress::{
    Connection, Ingress, IngressConfig, IngressError, IngressStats, Reply, ReplyFrame,
};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
pub use qfw_chaos::{BreakerPhase, CircuitBreaker, FaultPlan, FaultSpec, RetryPolicy};
use qfw_obs::Obs;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by RPC calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// No service registered under the requested name.
    ServiceNotFound(String),
    /// The service does not implement the requested method.
    MethodNotFound {
        /// Service name.
        service: String,
        /// Method name.
        method: String,
    },
    /// The handler ran and returned an application-level error.
    Handler(String),
    /// Request or response bytes failed to (de)serialize.
    Codec(String),
    /// The reply did not arrive within the deadline.
    Timeout {
        /// Correlation ID of the lost call.
        correlation: u64,
        /// How many attempts were made before giving up (1 for plain
        /// calls; the full attempt count for [`Client::call_with_retry`]).
        attempts: u32,
    },
    /// The service's circuit breaker is open: the call was shed without
    /// ever being enqueued.
    CircuitOpen(String),
    /// The RPC layer was shut down while the call was in flight.
    Shutdown,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::ServiceNotFound(s) => write!(f, "no service '{s}' registered"),
            RpcError::MethodNotFound { service, method } => {
                write!(f, "service '{service}' has no method '{method}'")
            }
            RpcError::Handler(msg) => write!(f, "handler error: {msg}"),
            RpcError::Codec(msg) => write!(f, "codec error: {msg}"),
            RpcError::Timeout {
                correlation,
                attempts,
            } => {
                write!(f, "rpc {correlation} timed out after {attempts} attempt(s)")
            }
            RpcError::CircuitOpen(service) => {
                write!(f, "circuit breaker for '{service}' is open")
            }
            RpcError::Shutdown => write!(f, "rpc layer shut down"),
        }
    }
}

impl std::error::Error for RpcError {}

/// A byte-level service handler. Implementors usually wrap
/// [`json_handler`] to stay typed.
pub trait Service: Send + Sync {
    /// Handles one request; `method` selects the operation.
    fn handle(&self, method: &str, payload: &[u8]) -> Result<Vec<u8>, RpcError>;

    /// The [`Ingress`] entry point. Either hands `reply` back with the
    /// outcome, for the worker to send once it has closed its span, or
    /// keeps it to answer later from any thread (see [`ingress::Reply`])
    /// and returns `None`. The default hands back [`Service::handle`]'s
    /// outcome.
    fn serve(
        &self,
        method: &str,
        payload: &[u8],
        reply: ingress::Reply,
    ) -> Option<(ingress::Reply, Result<Vec<u8>, RpcError>)> {
        Some((reply, self.handle(method, payload)))
    }
}

impl<F> Service for F
where
    F: Fn(&str, &[u8]) -> Result<Vec<u8>, RpcError> + Send + Sync,
{
    fn handle(&self, method: &str, payload: &[u8]) -> Result<Vec<u8>, RpcError> {
        self(method, payload)
    }
}

/// Wraps a typed closure into a byte-level handler for one method.
pub fn json_handler<Req, Resp, F>(f: F) -> impl Fn(&[u8]) -> Result<Vec<u8>, RpcError>
where
    Req: DeserializeOwned,
    Resp: Serialize,
    F: Fn(Req) -> Result<Resp, String>,
{
    move |payload: &[u8]| {
        let req: Req =
            serde_json::from_slice(payload).map_err(|e| RpcError::Codec(e.to_string()))?;
        let resp = f(req).map_err(RpcError::Handler)?;
        serde_json::to_vec(&resp).map_err(|e| RpcError::Codec(e.to_string()))
    }
}

/// Channel half carrying a call's outcome back to the waiting client.
type ReplySender = Sender<Result<Vec<u8>, RpcError>>;

struct Request {
    service: String,
    method: String,
    /// Shared, not owned: retries re-enqueue the same serialized bytes
    /// instead of re-marshaling the request per attempt.
    payload: Arc<Vec<u8>>,
    /// 1-based attempt number ([`Client::call_with_retry`] increments it).
    attempt: u32,
    reply: ReplySender,
    enqueued: Instant,
}

/// Per-service call statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Completed calls (ok or handler error).
    pub calls: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Total queue + handler time across calls, seconds.
    pub busy_secs: f64,
}

struct Inner {
    services: Mutex<HashMap<String, Arc<dyn Service>>>,
    stats: Mutex<HashMap<String, ServiceStats>>,
    queue: Sender<Request>,
    correlation: AtomicU64,
    chaos: Arc<FaultPlan>,
    obs: Obs,
    /// `Some((threshold, cooldown))` once breakers are enabled; breakers
    /// are created lazily per service on first call.
    breaker_config: Mutex<Option<(u32, Duration)>>,
    breakers: Mutex<HashMap<String, Arc<CircuitBreaker>>>,
    /// Reply senders whose replies were chaos-dropped. Parked here so the
    /// channel stays open and the caller's deadline genuinely fires
    /// (dropping the sender would surface as `Shutdown` instead). Grows
    /// only by the number of injected drops.
    dropped_replies: Mutex<Vec<ReplySender>>,
}

/// The RPC hub: owns the dispatcher pool and the service registry.
pub struct Defw {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Defw {
    /// Starts the hub with `workers` dispatcher threads and no fault
    /// injection.
    pub fn start(workers: usize) -> Defw {
        Self::start_with_chaos(workers, Arc::new(FaultPlan::disabled()))
    }

    /// Starts the hub with a fault plan. Sites consulted per request on
    /// service `S`: `defw.delay.S` (stall before dispatch),
    /// `defw.poison.S` (handler replaced by a codec error), and
    /// `defw.drop_reply.S` (reply silently discarded — the caller times
    /// out). A [`FaultPlan::disabled`] plan makes this identical to
    /// [`Defw::start`].
    pub fn start_with_chaos(workers: usize, chaos: Arc<FaultPlan>) -> Defw {
        Self::start_full(workers, chaos, Obs::disabled())
    }

    /// Starts the hub with a fault plan *and* an observability handle.
    /// Every dispatched request is wrapped in an `rpc.handle` span; chaos
    /// injections from the plan are annotated into the trace as
    /// `chaos.fire` instant events.
    pub fn start_full(workers: usize, chaos: Arc<FaultPlan>, obs: Obs) -> Defw {
        assert!(workers >= 1, "need at least one dispatcher");
        if chaos.is_enabled() && obs.is_enabled() {
            let chaos_obs = obs.clone();
            chaos.set_observer(move |rec| {
                chaos_obs.counter("chaos.fires").inc();
                chaos_obs.instant_with(
                    "chaos",
                    "chaos.fire",
                    &[("hit", rec.hit.into()), ("site", rec.site.as_str().into())],
                );
            });
        }
        let (tx, rx): (Sender<Request>, Receiver<Request>) = unbounded();
        let inner = Arc::new(Inner {
            services: Mutex::new(HashMap::new()),
            stats: Mutex::new(HashMap::new()),
            queue: tx,
            correlation: AtomicU64::new(1),
            chaos,
            obs,
            breaker_config: Mutex::new(None),
            breakers: Mutex::new(HashMap::new()),
            dropped_replies: Mutex::new(Vec::new()),
        });
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("defw-worker-{i}"))
                    .spawn(move || Self::worker_loop(rx, inner))
                    .expect("spawn defw worker")
            })
            .collect();
        Defw {
            inner,
            workers: handles,
        }
    }

    fn worker_loop(rx: Receiver<Request>, inner: Arc<Inner>) {
        let chaos = Arc::clone(&inner.chaos);
        let obs = inner.obs.clone();
        while let Ok(req) = rx.recv() {
            let mut span = obs.span("defw", "rpc.handle");
            span.set_attr("method", req.method.as_str());
            span.set_attr("service", req.service.as_str());
            span.set_attr("attempt", u64::from(req.attempt));
            span.set_attr("payload_bytes", req.payload.len());
            if chaos.is_enabled() {
                if let Some(d) = chaos.delay(&format!("defw.delay.{}", req.service)) {
                    std::thread::sleep(d);
                }
            }
            let poisoned =
                chaos.is_enabled() && chaos.fires(&format!("defw.poison.{}", req.service));
            let result = if poisoned {
                Err(RpcError::Codec(format!(
                    "injected codec fault on '{}'",
                    req.service
                )))
            } else {
                let service = inner.services.lock().get(&req.service).cloned();
                match service {
                    None => Err(RpcError::ServiceNotFound(req.service.clone())),
                    Some(svc) => svc.handle(&req.method, &req.payload),
                }
            };
            span.set_attr("ok", result.is_ok());
            let (handle_start, handle_end) = span.finish();
            if obs.is_enabled() {
                obs.counter("defw.calls").inc();
                if result.is_err() {
                    obs.counter("defw.errors").inc();
                }
                // Handler latency measured on the obs clock, so the
                // histogram stays deterministic under the virtual clock.
                obs.histogram("defw.handle_us")
                    .observe_us(handle_end.saturating_sub(handle_start));
            }
            let elapsed = req.enqueued.elapsed().as_secs_f64();
            {
                let mut stats = inner.stats.lock();
                let entry = stats.entry(req.service.clone()).or_default();
                entry.calls += 1;
                if result.is_err() {
                    entry.errors += 1;
                }
                entry.busy_secs += elapsed;
            }
            if chaos.is_enabled() && chaos.fires(&format!("defw.drop_reply.{}", req.service)) {
                // The reply vanishes in transit; the caller's deadline
                // fires and retry logic takes over.
                inner.dropped_replies.lock().push(req.reply);
                continue;
            }
            // Receiver may have timed out and gone — that's fine.
            let _ = req.reply.send(result);
        }
    }

    /// Registers (or replaces) a service.
    pub fn register(&self, name: impl Into<String>, service: Arc<dyn Service>) {
        self.inner.services.lock().insert(name.into(), service);
    }

    /// Removes a service; later calls fail with `ServiceNotFound`.
    pub fn unregister(&self, name: &str) {
        self.inner.services.lock().remove(name);
    }

    /// Registered service names, sorted.
    pub fn services(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.services.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Statistics for one service, if it has received calls.
    pub fn stats(&self, name: &str) -> Option<ServiceStats> {
        self.inner.stats.lock().get(name).copied()
    }

    /// The hub's fault plan (disabled unless started via
    /// [`Defw::start_with_chaos`]).
    pub fn chaos(&self) -> &Arc<FaultPlan> {
        &self.inner.chaos
    }

    /// The hub's observability handle (disabled unless started via
    /// [`Defw::start_full`]).
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Enables per-service circuit breakers: after `threshold` consecutive
    /// failed calls to a service, further calls are shed with
    /// [`RpcError::CircuitOpen`] until `cooldown` elapses and a half-open
    /// probe succeeds.
    pub fn enable_breakers(&self, threshold: u32, cooldown: Duration) {
        *self.inner.breaker_config.lock() = Some((threshold, cooldown));
    }

    /// Current breaker phase for a service, if breakers are enabled and the
    /// service has been called.
    pub fn breaker_phase(&self, service: &str) -> Option<BreakerPhase> {
        self.inner
            .breakers
            .lock()
            .get(service)
            .map(|b| b.phase())
    }

    /// Creates a client endpoint.
    pub fn client(&self) -> Client {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Drops the queue and joins the workers (in-flight calls complete).
    pub fn shutdown(self) {
        // Dropping the only non-worker Sender closes the channel...
        let Defw { inner, workers } = self;
        // Replace the queue sender so workers see a closed channel once all
        // clients drop too. We can't pull the Sender out of Arc<Inner>, so
        // close by dropping our Arc after detaching workers when idle.
        drop(inner);
        for w in workers {
            // Workers exit when every Sender clone (hub + clients) is gone.
            // If clients outlive the hub, joining would block; detach instead.
            if w.is_finished() {
                let _ = w.join();
            }
        }
    }
}

/// A client endpoint for issuing RPCs. Cheap to clone.
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
}

impl Client {
    /// Typed synchronous call with a deadline.
    pub fn call<Req: Serialize, Resp: DeserializeOwned>(
        &self,
        service: &str,
        method: &str,
        req: &Req,
        timeout: Duration,
    ) -> Result<Resp, RpcError> {
        self.call_async(service, method, req)?.wait(timeout)
    }

    /// Synchronous call retried per `policy` on transient failures
    /// (timeouts, handler errors, open breakers). Each attempt gets
    /// `timeout`; between attempts the thread sleeps the policy's jittered
    /// backoff. On exhaustion the last error is returned — for timeouts
    /// with the total attempt count filled in.
    pub fn call_with_retry<Req: Serialize, Resp: DeserializeOwned>(
        &self,
        service: &str,
        method: &str,
        req: &Req,
        timeout: Duration,
        policy: &RetryPolicy,
    ) -> Result<Resp, RpcError> {
        // Marshal once: every retry re-enqueues the same Arc'd bytes, so
        // chaos-injected retry storms never pay per-attempt serialization.
        let payload = Arc::new(
            serde_json::to_vec(req).map_err(|e| RpcError::Codec(e.to_string()))?,
        );
        let mut schedule = policy.schedule();
        loop {
            let attempt = schedule.attempts();
            let outcome = self
                .send_raw(service, method, Arc::clone(&payload), attempt)
                .and_then(|reply: AsyncReply<Resp>| reply.wait(timeout));
            let transient = match outcome {
                Err(e @ RpcError::Timeout { .. })
                | Err(e @ RpcError::Handler(_))
                | Err(e @ RpcError::CircuitOpen(_)) => e,
                other => return other,
            };
            match schedule.next_backoff() {
                Some(backoff) => {
                    if self.inner.obs.is_enabled() {
                        self.inner.obs.counter("defw.retries").inc();
                        self.inner.obs.instant_with(
                            "defw",
                            "rpc.retry",
                            &[
                                ("attempt", u64::from(schedule.attempts()).into()),
                                ("method", method.into()),
                                ("service", service.into()),
                            ],
                        );
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                None => {
                    return Err(match transient {
                        RpcError::Timeout { correlation, .. } => RpcError::Timeout {
                            correlation,
                            attempts: schedule.attempts(),
                        },
                        other => other,
                    })
                }
            }
        }
    }

    /// Typed asynchronous call: returns immediately with a reply handle.
    /// This is what lets DQAOA keep many sub-QUBO solves in flight.
    pub fn call_async<Req: Serialize, Resp: DeserializeOwned>(
        &self,
        service: &str,
        method: &str,
        req: &Req,
    ) -> Result<AsyncReply<Resp>, RpcError> {
        let payload = Arc::new(
            serde_json::to_vec(req).map_err(|e| RpcError::Codec(e.to_string()))?,
        );
        self.send_raw(service, method, payload, 1)
    }

    /// Enqueues already-serialized bytes (shared by value, so retries and
    /// fan-out never copy the payload).
    fn send_raw<Resp: DeserializeOwned>(
        &self,
        service: &str,
        method: &str,
        payload: Arc<Vec<u8>>,
        attempt: u32,
    ) -> Result<AsyncReply<Resp>, RpcError> {
        let breaker = self.breaker_for(service);
        if let Some(b) = &breaker {
            if !b.allow() {
                if self.inner.obs.is_enabled() {
                    self.inner.obs.counter("defw.circuit_open").inc();
                    self.inner.obs.instant_with(
                        "defw",
                        "rpc.circuit_open",
                        &[("service", service.into())],
                    );
                }
                return Err(RpcError::CircuitOpen(service.to_string()));
            }
        }
        let correlation = self.inner.correlation.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.inner
            .queue
            .send(Request {
                service: service.to_string(),
                method: method.to_string(),
                payload,
                attempt,
                reply: tx,
                enqueued: Instant::now(),
            })
            .map_err(|_| RpcError::Shutdown)?;
        Ok(AsyncReply {
            correlation,
            rx,
            breaker,
            _marker: std::marker::PhantomData,
        })
    }

    /// The service's breaker, created on first use once
    /// [`Defw::enable_breakers`] has been called.
    fn breaker_for(&self, service: &str) -> Option<Arc<CircuitBreaker>> {
        let (threshold, cooldown) = (*self.inner.breaker_config.lock())?;
        let mut breakers = self.inner.breakers.lock();
        Some(Arc::clone(
            breakers
                .entry(service.to_string())
                .or_insert_with(|| Arc::new(CircuitBreaker::new(threshold, cooldown))),
        ))
    }
}

/// Handle to an in-flight RPC reply.
pub struct AsyncReply<Resp> {
    correlation: u64,
    rx: Receiver<Result<Vec<u8>, RpcError>>,
    breaker: Option<Arc<CircuitBreaker>>,
    _marker: std::marker::PhantomData<fn() -> Resp>,
}

impl<Resp: DeserializeOwned> AsyncReply<Resp> {
    /// The call's correlation ID (appears in timeout errors and logs).
    pub fn correlation(&self) -> u64 {
        self.correlation
    }

    /// Feeds the call outcome to the service's breaker, if one exists.
    /// Timeouts and handler errors count as service failures; codec and
    /// routing errors are the caller's problem and stay neutral.
    fn record(&self, outcome: &Result<Resp, RpcError>) {
        let Some(breaker) = &self.breaker else { return };
        match outcome {
            Ok(_) => breaker.record_success(),
            Err(RpcError::Timeout { .. }) | Err(RpcError::Handler(_)) => {
                breaker.record_failure()
            }
            Err(_) => {}
        }
    }

    /// Blocks until the reply arrives or the deadline passes.
    pub fn wait(self, timeout: Duration) -> Result<Resp, RpcError> {
        let outcome = match self.rx.recv_timeout(timeout) {
            Ok(Ok(bytes)) => {
                serde_json::from_slice(&bytes).map_err(|e| RpcError::Codec(e.to_string()))
            }
            Ok(Err(e)) => Err(e),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(RpcError::Timeout {
                correlation: self.correlation,
                attempts: 1,
            }),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(RpcError::Shutdown),
        };
        self.record(&outcome);
        outcome
    }

    /// Non-blocking poll: `None` while the call is still in flight.
    pub fn try_wait(&self) -> Option<Result<Resp, RpcError>> {
        let outcome = match self.rx.try_recv() {
            Ok(Ok(bytes)) => {
                serde_json::from_slice(&bytes).map_err(|e| RpcError::Codec(e.to_string()))
            }
            Ok(Err(e)) => Err(e),
            Err(crossbeam::channel::TryRecvError::Empty) => return None,
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(RpcError::Shutdown),
        };
        self.record(&outcome);
        Some(outcome)
    }
}

/// Type-erased per-method handler: raw request bytes in, raw reply bytes out.
type MethodHandler = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, RpcError> + Send + Sync>;
/// Type-erased deferred handler: raw request bytes and the return path in.
type DeferredHandler = Box<dyn Fn(&[u8], ingress::Reply) + Send + Sync>;

/// A convenience service built from per-method typed handlers.
#[derive(Default)]
pub struct MethodTable {
    methods: HashMap<String, MethodHandler>,
    /// Methods that keep their [`ingress::Reply`]; reachable only through
    /// [`Service::serve`], so the hub reports them as not found.
    deferred: HashMap<String, DeferredHandler>,
    name: String,
}

impl MethodTable {
    /// Creates an empty table; `name` is used in error messages.
    pub fn new(name: impl Into<String>) -> Self {
        MethodTable {
            methods: HashMap::new(),
            deferred: HashMap::new(),
            name: name.into(),
        }
    }

    /// Adds a typed method handler.
    pub fn method<Req, Resp, F>(mut self, name: &str, f: F) -> Self
    where
        Req: DeserializeOwned + 'static,
        Resp: Serialize + 'static,
        F: Fn(Req) -> Result<Resp, String> + Send + Sync + 'static,
    {
        self.methods
            .insert(name.to_string(), Box::new(json_handler(f)));
        self
    }

    /// Adds a typed method whose handler takes the request's return path and
    /// answers through it whenever it likes — the ingress worker is free as
    /// soon as `f` returns. A payload that does not decode is answered with
    /// the codec error, like any other method.
    pub fn deferred<Req, F>(mut self, name: &str, f: F) -> Self
    where
        Req: DeserializeOwned + 'static,
        F: Fn(Req, ingress::Reply) + Send + Sync + 'static,
    {
        let handler = move |payload: &[u8], reply: ingress::Reply| {
            match serde_json::from_slice(payload) {
                Ok(req) => f(req, reply),
                Err(e) => reply.send(Err(RpcError::Codec(e.to_string()))),
            }
        };
        self.deferred.insert(name.to_string(), Box::new(handler));
        self
    }

    /// Finalizes into a registrable service.
    pub fn build(self) -> Arc<dyn Service> {
        Arc::new(self)
    }
}

impl Service for MethodTable {
    fn handle(&self, method: &str, payload: &[u8]) -> Result<Vec<u8>, RpcError> {
        match self.methods.get(method) {
            Some(f) => f(payload),
            None => Err(RpcError::MethodNotFound {
                service: self.name.clone(),
                method: method.to_string(),
            }),
        }
    }

    fn serve(
        &self,
        method: &str,
        payload: &[u8],
        reply: ingress::Reply,
    ) -> Option<(ingress::Reply, Result<Vec<u8>, RpcError>)> {
        match self.deferred.get(method) {
            Some(f) => {
                f(payload, reply);
                None
            }
            None => Some((reply, self.handle(method, payload))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_service() -> Arc<dyn Service> {
        MethodTable::new("echo")
            .method("echo", |v: String| Ok(v))
            .method("double", |v: f64| Ok(v * 2.0))
            .method("fail", |_: String| Err::<String, _>("nope".to_string()))
            .build()
    }

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn sync_round_trip() {
        let hub = Defw::start(2);
        hub.register("echo", echo_service());
        let client = hub.client();
        let out: String = client.call("echo", "echo", &"hi".to_string(), T).unwrap();
        assert_eq!(out, "hi");
        let d: f64 = client.call("echo", "double", &21.0, T).unwrap();
        assert_eq!(d, 42.0);
    }

    #[test]
    fn unknown_service_and_method() {
        let hub = Defw::start(1);
        hub.register("echo", echo_service());
        let client = hub.client();
        let err = client
            .call::<_, String>("nope", "echo", &"x".to_string(), T)
            .unwrap_err();
        assert_eq!(err, RpcError::ServiceNotFound("nope".into()));
        let err = client
            .call::<_, String>("echo", "nope", &"x".to_string(), T)
            .unwrap_err();
        assert!(matches!(err, RpcError::MethodNotFound { .. }));
    }

    #[test]
    fn handler_errors_propagate() {
        let hub = Defw::start(1);
        hub.register("echo", echo_service());
        let err = hub
            .client()
            .call::<_, String>("echo", "fail", &"x".to_string(), T)
            .unwrap_err();
        assert_eq!(err, RpcError::Handler("nope".into()));
    }

    #[test]
    fn async_calls_overlap() {
        // One slow service, several in-flight calls on 4 workers: total
        // time must be far below the serial sum.
        let slow = MethodTable::new("slow")
            .method("work", |ms: u64| {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(ms)
            })
            .build();
        let hub = Defw::start(4);
        hub.register("slow", slow);
        let client = hub.client();
        let start = Instant::now();
        let replies: Vec<AsyncReply<u64>> = (0..4)
            .map(|_| client.call_async("slow", "work", &50u64).unwrap())
            .collect();
        let sum: u64 = replies.into_iter().map(|r| r.wait(T).unwrap()).sum();
        assert_eq!(sum, 200);
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "calls did not overlap: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn try_wait_polls() {
        let slow = MethodTable::new("slow")
            .method("work", |ms: u64| {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(ms)
            })
            .build();
        let hub = Defw::start(1);
        hub.register("slow", slow);
        let reply = hub.client().call_async::<_, u64>("slow", "work", &80u64).unwrap();
        assert!(reply.try_wait().is_none());
        let mut result = None;
        for _ in 0..100 {
            if let Some(r) = reply.try_wait() {
                result = Some(r);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(result.unwrap().unwrap(), 80);
    }

    #[test]
    fn timeout_fires() {
        let slow = MethodTable::new("slow")
            .method("work", |ms: u64| {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(ms)
            })
            .build();
        let hub = Defw::start(1);
        hub.register("slow", slow);
        let err = hub
            .client()
            .call::<_, u64>("slow", "work", &500u64, Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, RpcError::Timeout { .. }));
    }

    #[test]
    fn stats_accumulate() {
        let hub = Defw::start(1);
        hub.register("echo", echo_service());
        let client = hub.client();
        for _ in 0..3 {
            let _: String = client.call("echo", "echo", &"x".to_string(), T).unwrap();
        }
        let _ = client.call::<_, String>("echo", "fail", &"x".to_string(), T);
        let stats = hub.stats("echo").unwrap();
        assert_eq!(stats.calls, 4);
        assert_eq!(stats.errors, 1);
        assert!(stats.busy_secs >= 0.0);
    }

    #[test]
    fn unregister_stops_service() {
        let hub = Defw::start(1);
        hub.register("echo", echo_service());
        let client = hub.client();
        let _: String = client.call("echo", "echo", &"x".to_string(), T).unwrap();
        hub.unregister("echo");
        assert!(client
            .call::<_, String>("echo", "echo", &"x".to_string(), T)
            .is_err());
        assert!(hub.services().is_empty());
    }

    #[test]
    fn correlation_ids_are_unique() {
        let hub = Defw::start(1);
        hub.register("echo", echo_service());
        let client = hub.client();
        let a = client
            .call_async::<_, String>("echo", "echo", &"x".to_string())
            .unwrap();
        let b = client
            .call_async::<_, String>("echo", "echo", &"x".to_string())
            .unwrap();
        assert_ne!(a.correlation(), b.correlation());
    }

    #[test]
    fn chaos_drop_reply_times_out_then_recovers() {
        let plan = Arc::new(
            FaultPlan::seeded(11).inject("defw.drop_reply.echo", FaultSpec::first(1)),
        );
        let hub = Defw::start_with_chaos(1, Arc::clone(&plan));
        hub.register("echo", echo_service());
        let client = hub.client();
        let err = client
            .call::<_, String>("echo", "echo", &"x".to_string(), Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, RpcError::Timeout { attempts: 1, .. }));
        // The fault was first(1): the second call goes through.
        let out: String = client.call("echo", "echo", &"x".to_string(), T).unwrap();
        assert_eq!(out, "x");
        assert_eq!(plan.fired("defw.drop_reply.echo"), 1);
    }

    #[test]
    fn chaos_poison_surfaces_codec_error() {
        let plan =
            Arc::new(FaultPlan::seeded(3).inject("defw.poison.echo", FaultSpec::first(1)));
        let hub = Defw::start_with_chaos(1, plan);
        hub.register("echo", echo_service());
        let err = hub
            .client()
            .call::<_, String>("echo", "echo", &"x".to_string(), T)
            .unwrap_err();
        assert!(matches!(err, RpcError::Codec(msg) if msg.contains("injected")));
    }

    #[test]
    fn chaos_delay_stalls_dispatch() {
        let plan = Arc::new(FaultPlan::seeded(4).inject(
            "defw.delay.echo",
            FaultSpec::first(1).delayed(Duration::from_millis(60)),
        ));
        let hub = Defw::start_with_chaos(1, plan);
        hub.register("echo", echo_service());
        let start = Instant::now();
        let _: String = hub
            .client()
            .call("echo", "echo", &"x".to_string(), T)
            .unwrap();
        assert!(start.elapsed() >= Duration::from_millis(60));
    }

    #[test]
    fn call_with_retry_survives_dropped_replies() {
        let plan = Arc::new(
            FaultPlan::seeded(8).inject("defw.drop_reply.echo", FaultSpec::first(2)),
        );
        let hub = Defw::start_with_chaos(1, plan);
        hub.register("echo", echo_service());
        let policy = RetryPolicy::new(
            Duration::from_millis(1),
            Duration::from_millis(5),
            5,
            Duration::from_secs(1),
        );
        let out: String = hub
            .client()
            .call_with_retry(
                "echo",
                "echo",
                &"hi".to_string(),
                Duration::from_millis(50),
                &policy,
            )
            .unwrap();
        assert_eq!(out, "hi");
    }

    #[test]
    fn call_with_retry_reports_attempts_on_exhaustion() {
        let plan =
            Arc::new(FaultPlan::seeded(8).inject("defw.drop_reply.echo", FaultSpec::always()));
        let hub = Defw::start_with_chaos(1, plan);
        hub.register("echo", echo_service());
        let policy = RetryPolicy::new(
            Duration::from_millis(1),
            Duration::from_millis(2),
            3,
            Duration::from_secs(1),
        );
        let err = hub
            .client()
            .call_with_retry::<_, String>(
                "echo",
                "echo",
                &"hi".to_string(),
                Duration::from_millis(20),
                &policy,
            )
            .unwrap_err();
        assert!(matches!(err, RpcError::Timeout { attempts: 3, .. }), "{err:?}");
    }

    #[test]
    fn breaker_sheds_calls_after_consecutive_failures() {
        let hub = Defw::start(1);
        hub.register("echo", echo_service());
        hub.enable_breakers(2, Duration::from_millis(30));
        let client = hub.client();
        for _ in 0..2 {
            let _ = client.call::<_, String>("echo", "fail", &"x".to_string(), T);
        }
        assert_eq!(hub.breaker_phase("echo"), Some(BreakerPhase::Open));
        let err = client
            .call::<_, String>("echo", "echo", &"x".to_string(), T)
            .unwrap_err();
        assert_eq!(err, RpcError::CircuitOpen("echo".into()));
        // After the cooldown one probe goes through and closes the breaker.
        std::thread::sleep(Duration::from_millis(40));
        let out: String = client.call("echo", "echo", &"x".to_string(), T).unwrap();
        assert_eq!(out, "x");
        assert_eq!(hub.breaker_phase("echo"), Some(BreakerPhase::Closed));
    }

    #[test]
    fn obs_records_rpc_spans_retries_and_chaos_annotations() {
        let plan = Arc::new(
            FaultPlan::seeded(9).inject("defw.drop_reply.echo", FaultSpec::first(1)),
        );
        let obs = Obs::virtual_clock(9);
        let hub = Defw::start_full(1, plan, obs.clone());
        hub.register("echo", echo_service());
        let policy = RetryPolicy::new(
            Duration::from_millis(1),
            Duration::from_millis(5),
            4,
            Duration::from_secs(1),
        );
        let out: String = hub
            .client()
            .call_with_retry(
                "echo",
                "echo",
                &"x".to_string(),
                Duration::from_millis(50),
                &policy,
            )
            .unwrap();
        assert_eq!(out, "x");
        let trace = obs.chrome_trace();
        assert!(trace.contains("\"rpc.handle\""), "{trace}");
        assert!(trace.contains("\"rpc.retry\""), "{trace}");
        // The retried dispatch carries its attempt number into the span.
        assert!(trace.contains("\"attempt\":2"), "{trace}");
        assert!(trace.contains("\"payload_bytes\""), "{trace}");
        assert!(trace.contains("\"chaos.fire\""), "{trace}");
        assert!(trace.contains("\"site\":\"defw.drop_reply.echo\""), "{trace}");
        let snap = obs.metrics_snapshot();
        assert!(snap.contains("\"chaos.fires\":1"), "{snap}");
        assert!(snap.contains("\"defw.calls\":2"), "{snap}");
        assert!(snap.contains("\"defw.retries\":1"), "{snap}");
    }

    #[test]
    fn codec_error_on_bad_response_type() {
        let hub = Defw::start(1);
        hub.register("echo", echo_service());
        // Ask for a number back from the string echo: decode must fail.
        let err = hub
            .client()
            .call::<_, u64>("echo", "echo", &"not a number".to_string(), T)
            .unwrap_err();
        assert!(matches!(err, RpcError::Codec(_)));
    }
}
