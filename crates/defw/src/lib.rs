//! DEFw — the Distributed Execution Framework: QFw's lightweight RPC layer.
//!
//! In the paper, every interaction between the frontend (`QFwBackend`) and
//! the platform manager (QPM) — circuit creation, execution, status queries,
//! teardown — travels as an RPC over DEFw (Section 2.1, Fig. 1 step-5). This
//! crate reproduces that layer in-process:
//!
//! * [`ingress`] — the one transport under everything here: one frame, one
//!   bounded queue with typed [`IngressError::Overloaded`] backpressure, one
//!   worker loop, one [`Reply`] return path, one place a request is
//!   counted. Handlers receive *bytes* and return bytes: requests are
//!   genuinely marshaled (serde_json) on the way in and out, like the
//!   paper's "results are marshaled into the common QPM API format".
//! * Two client shapes over it. [`Client`] — calls to a *named* service on
//!   a [`Defw`] hub, each with its own one-slot reply channel: typed sync
//!   ([`Client::call`]) and async ([`Client::call_async`]) calls with
//!   correlation IDs, timeouts, and structured error propagation.
//!   [`Connection`] — pipelined requests multiplexed over one reply
//!   channel, correlated by id, to a transport with a single handler.
//! * [`Defw`] — the hub: a service registry installed as its transport's
//!   handler, with per-service call statistics feeding QFw's uniform
//!   timing/logging instrumentation.
//! * Resilience hooks: a seeded [`FaultPlan`] (from `qfw-chaos`) can drop
//!   replies, delay handlers, or poison codec paths deterministically at
//!   the registry; client-side, [`Client::call_with_retry`] layers
//!   exponential backoff on top, and per-service [`CircuitBreaker`]s (see
//!   [`Defw::enable_breakers`]) shed load from services that keep failing.

pub mod ingress;

pub use ingress::{
    Connection, Ingress, IngressConfig, IngressError, IngressStats, Reply, ReplyFrame,
};

use crossbeam::channel::{bounded, Receiver, Sender};
use ingress::{recv_frame, Counts, Route};
use parking_lot::Mutex;
pub use qfw_chaos::{BreakerPhase, CircuitBreaker, FaultPlan, FaultSpec, RetryPolicy};
use qfw_obs::Obs;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

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

/// A byte-level service: what a transport's workers dispatch into.
/// [`MethodTable`] builds one from typed per-method handlers.
pub trait Service: Send + Sync {
    /// Handles one request; `method` selects the operation.
    fn serve(&self, method: &str, payload: &[u8], reply: Reply) -> Served;
}

/// What [`Service::serve`] leaves the worker: `reply` handed back with the
/// outcome, for the worker to send once it has closed its span, or `None` —
/// the handler kept it, to answer later from any thread (see
/// [`ingress::Reply`]).
pub type Served = Option<(Reply, Result<Vec<u8>, RpcError>)>;

/// JSON, the wire encoding of every request and reply.
pub(crate) fn encode<T: Serialize>(value: &T) -> Result<Vec<u8>, RpcError> {
    serde_json::to_vec(value).map_err(|e| RpcError::Codec(e.to_string()))
}

pub(crate) fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, RpcError> {
    serde_json::from_slice(bytes).map_err(|e| RpcError::Codec(e.to_string()))
}

/// Per-service call statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Completed calls (ok or handler error).
    pub calls: u64,
    /// Calls that returned an error.
    pub errors: u64,
}

/// A registered service with the statistics [`Reply::send`] keeps for it.
#[derive(Clone)]
struct Entry {
    service: Arc<dyn Service>,
    counts: Arc<Counts>,
}

/// The hub's handler: routes each frame to the service it names, with the
/// chaos sites around the dispatch. Also home to what the client-side layer
/// shares across [`Client`] clones (breakers).
struct Registry {
    services: Mutex<HashMap<String, Entry>>,
    chaos: Arc<FaultPlan>,
    breakers: Mutex<Breakers>,
    /// Reply senders whose replies were chaos-dropped. Parked here so the
    /// channel stays open and the caller's deadline genuinely fires
    /// (dropping the sender would surface as `Shutdown` instead). Grows
    /// only by the number of injected drops.
    dropped_replies: Mutex<Vec<Sender<ReplyFrame>>>,
}

#[derive(Default)]
struct Breakers {
    /// `Some((threshold, cooldown))` once breakers are enabled.
    config: Option<(u32, Duration)>,
    /// Created lazily, on a service's first call.
    by_service: HashMap<String, Arc<CircuitBreaker>>,
}

impl Service for Registry {
    fn serve(&self, method: &str, payload: &[u8], mut reply: Reply) -> Served {
        let chaos = self.chaos.is_enabled().then_some(&*self.chaos);
        let site = |kind: &str, reply: &Reply| format!("defw.{kind}.{}", reply.route.service);
        if let Some(d) = chaos.and_then(|c| c.delay(&site("delay", &reply))) {
            std::thread::sleep(d);
        }
        let entry = self.services.lock().get(&*reply.route.service).cloned();
        let (service, counts) = entry.map(|e| (e.service, e.counts)).unzip();
        reply.service_counts = counts;
        let answered = if chaos.is_some_and(|c| c.fires(&site("poison", &reply))) {
            let fault = format!("injected codec fault on '{}'", reply.route.service);
            Some((reply, Err(RpcError::Codec(fault))))
        } else {
            match service {
                None => {
                    let unknown = RpcError::ServiceNotFound(reply.route.service.to_string());
                    Some((reply, Err(unknown)))
                }
                Some(service) => service.serve(method, payload, reply),
            }
        };
        // A reply its handler kept is out of the dispatcher's hands, and so
        // out of the drop site's.
        let (mut reply, result) = answered?;
        if chaos.is_some_and(|c| c.fires(&site("drop_reply", &reply))) {
            // The reply vanishes in transit: counted and traced like any
            // other, sent to nobody; the caller's deadline fires and retry
            // logic takes over.
            let real = std::mem::replace(&mut reply.route.tx, bounded(1).0);
            self.dropped_replies.lock().push(real);
        }
        Some((reply, result))
    }
}

/// The RPC hub: a service registry behind one transport.
pub struct Defw {
    registry: Arc<Registry>,
    transport: Ingress,
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
        let registry = Arc::new(Registry {
            services: Mutex::new(HashMap::new()),
            chaos,
            breakers: Mutex::default(),
            dropped_replies: Mutex::new(Vec::new()),
        });
        // The hub admits without a bound.
        let config = IngressConfig {
            queue_depth: usize::MAX,
            workers,
        };
        let transport = Ingress::start(config, Arc::clone(&registry) as Arc<dyn Service>, obs);
        Defw {
            registry,
            transport,
        }
    }

    /// Registers (or replaces) a service; its statistics start at zero.
    pub fn register(&self, name: impl Into<String>, service: Arc<dyn Service>) {
        let counts = Arc::default();
        let entry = Entry { service, counts };
        self.registry.services.lock().insert(name.into(), entry);
    }

    /// Removes a service; later calls fail with `ServiceNotFound`.
    pub fn unregister(&self, name: &str) {
        self.registry.services.lock().remove(name);
    }

    /// Registered service names, sorted.
    pub fn services(&self) -> Vec<String> {
        let mut names: Vec<String> = self.registry.services.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Statistics for one registered service.
    pub fn stats(&self, name: &str) -> Option<ServiceStats> {
        let services = self.registry.services.lock();
        Some(services.get(name)?.counts.snapshot())
    }

    /// The hub's fault plan (disabled unless started via
    /// [`Defw::start_with_chaos`]).
    pub fn chaos(&self) -> &Arc<FaultPlan> {
        &self.registry.chaos
    }

    /// The hub's observability handle (disabled unless started via
    /// [`Defw::start_full`]).
    pub fn obs(&self) -> &Obs {
        self.transport.shared.obs()
    }

    /// Enables per-service circuit breakers: after `threshold` consecutive
    /// failed calls to a service, further calls are shed with
    /// [`RpcError::CircuitOpen`] until `cooldown` elapses and a half-open
    /// probe succeeds.
    pub fn enable_breakers(&self, threshold: u32, cooldown: Duration) {
        self.registry.breakers.lock().config = Some((threshold, cooldown));
    }

    /// Current breaker phase for a service, if breakers are enabled and the
    /// service has been called.
    pub fn breaker_phase(&self, service: &str) -> Option<BreakerPhase> {
        let breakers = self.registry.breakers.lock();
        breakers.by_service.get(service).map(|b| b.phase())
    }

    /// Creates a client endpoint.
    pub fn client(&self) -> Client {
        Client {
            registry: Arc::clone(&self.registry),
            port: Arc::clone(&self.transport.shared),
        }
    }

    /// Shuts the transport down: see [`Ingress::shutdown`]. Later calls
    /// fail with [`RpcError::Shutdown`]; calls already admitted complete.
    pub fn shutdown(self) {
        self.transport.shutdown()
    }
}

/// What a hub caller sees of a transport error. The hub's queue has no
/// bound, so `Overloaded` does not occur.
impl From<IngressError> for RpcError {
    fn from(e: IngressError) -> Self {
        match e {
            IngressError::Rpc(e) => e,
            IngressError::Timeout { correlation } => RpcError::Timeout {
                correlation,
                attempts: 1,
            },
            IngressError::Shutdown | IngressError::Overloaded { .. } => RpcError::Shutdown,
        }
    }
}

/// A client endpoint for issuing RPCs to named services: each call brings
/// its own one-slot reply channel, and retries and breakers are layered here,
/// above the queue. Cheap to clone.
#[derive(Clone)]
pub struct Client {
    registry: Arc<Registry>,
    port: Arc<ingress::Shared>,
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
        let payload = Arc::new(encode(req)?);
        let obs = self.port.obs();
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
                    if obs.is_enabled() {
                        obs.counter("defw.retries").inc();
                        obs.instant_with(
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
        self.send_raw(service, method, Arc::new(encode(req)?), 1)
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
                let obs = self.port.obs();
                if obs.is_enabled() {
                    obs.counter("defw.circuit_open").inc();
                    obs.instant_with("defw", "rpc.circuit_open", &[("service", service.into())]);
                }
                return Err(RpcError::CircuitOpen(service.to_string()));
            }
        }
        // A call is a connection of one request, with a reply channel of
        // one slot: its id is its correlation id.
        let correlation = self.port.next_id();
        let (tx, rx) = bounded(1);
        let route = Route {
            conn: correlation,
            service: service.into(),
            tx,
        };
        self.port.send(route, correlation, method, attempt, payload)?;
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
        let mut breakers = self.registry.breakers.lock();
        let (threshold, cooldown) = breakers.config?;
        Some(Arc::clone(
            breakers
                .by_service
                .entry(service.to_string())
                .or_insert_with(|| Arc::new(CircuitBreaker::new(threshold, cooldown))),
        ))
    }
}

/// Handle to an in-flight RPC reply.
pub struct AsyncReply<Resp> {
    correlation: u64,
    rx: Receiver<ReplyFrame>,
    breaker: Option<Arc<CircuitBreaker>>,
    _marker: std::marker::PhantomData<fn() -> Resp>,
}

impl<Resp: DeserializeOwned> AsyncReply<Resp> {
    /// The call's correlation ID (appears in timeout errors and logs).
    pub fn correlation(&self) -> u64 {
        self.correlation
    }

    /// Decodes what the reply channel gave and feeds the outcome to the
    /// service's breaker, if one exists. Timeouts and handler errors count
    /// as service failures; codec and routing errors are the caller's
    /// problem and stay neutral.
    fn settle(&self, frame: Result<ReplyFrame, IngressError>) -> Result<Resp, RpcError> {
        let outcome = match frame.and_then(|frame| frame.body) {
            Ok(bytes) => decode(&bytes),
            Err(e) => Err(e.into()),
        };
        if let Some(breaker) = &self.breaker {
            match &outcome {
                Ok(_) => breaker.record_success(),
                Err(RpcError::Timeout { .. }) | Err(RpcError::Handler(_)) => {
                    breaker.record_failure()
                }
                Err(_) => {}
            }
        }
        outcome
    }

    /// Blocks until the reply arrives or the deadline passes.
    pub fn wait(self, timeout: Duration) -> Result<Resp, RpcError> {
        self.settle(recv_frame(&self.rx, timeout, self.correlation))
    }

    /// Non-blocking poll: `None` while the call is still in flight.
    pub fn try_wait(&self) -> Option<Result<Resp, RpcError>> {
        match recv_frame(&self.rx, Duration::ZERO, self.correlation) {
            Err(IngressError::Timeout { .. }) => None,
            frame => Some(self.settle(frame)),
        }
    }
}

/// Type-erased per-method handler: raw request bytes and the return path
/// in; the return path back with the outcome, or neither.
type MethodHandler = Box<dyn Fn(&[u8], Reply) -> Served + Send + Sync>;

/// A convenience service built from per-method typed handlers.
#[derive(Default)]
pub struct MethodTable {
    methods: HashMap<String, MethodHandler>,
    name: String,
}

impl MethodTable {
    /// Creates an empty table; `name` is used in error messages.
    pub fn new(name: impl Into<String>) -> Self {
        MethodTable {
            methods: HashMap::new(),
            name: name.into(),
        }
    }

    /// Adds a typed method handler, answered when `f` returns.
    pub fn method<Req, Resp, F>(mut self, name: &str, f: F) -> Self
    where
        Req: DeserializeOwned + 'static,
        Resp: Serialize + 'static,
        F: Fn(Req) -> Result<Resp, String> + Send + Sync + 'static,
    {
        let handler = move |payload: &[u8], reply: Reply| {
            let outcome = decode(payload)
                .and_then(|req| f(req).map_err(RpcError::Handler))
                .and_then(|resp| encode(&resp));
            Some((reply, outcome))
        };
        self.methods.insert(name.to_string(), Box::new(handler));
        self
    }

    /// Adds a typed method whose handler takes the request's return path and
    /// answers through it whenever it likes — the worker is free as soon as
    /// `f` returns. A payload that does not decode is answered with the
    /// codec error, like any other method.
    pub fn deferred<Req, F>(mut self, name: &str, f: F) -> Self
    where
        Req: DeserializeOwned + 'static,
        F: Fn(Req, Reply) + Send + Sync + 'static,
    {
        let handler = move |payload: &[u8], reply: Reply| match decode(payload) {
            Ok(req) => {
                f(req, reply);
                None
            }
            Err(e) => Some((reply, Err(e))),
        };
        self.methods.insert(name.to_string(), Box::new(handler));
        self
    }

    /// Finalizes into a registrable service.
    pub fn build(self) -> Arc<dyn Service> {
        Arc::new(self)
    }
}

impl Service for MethodTable {
    fn serve(&self, method: &str, payload: &[u8], reply: Reply) -> Served {
        match self.methods.get(method) {
            Some(f) => f(payload, reply),
            None => {
                let unknown = RpcError::MethodNotFound {
                    service: self.name.clone(),
                    method: method.to_string(),
                };
                Some((reply, Err(unknown)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn echo_service() -> Arc<dyn Service> {
        MethodTable::new("echo")
            .method("echo", |v: String| Ok(v))
            .method("double", |v: f64| Ok(v * 2.0))
            .method("fail", |_: String| Err::<String, _>("nope".to_string()))
            .build()
    }

    fn slow_service() -> Arc<dyn Service> {
        MethodTable::new("slow")
            .method("work", |ms: u64| {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(ms)
            })
            .build()
    }

    const T: Duration = Duration::from_secs(5);

    /// The hub's other client shape: a multiplexed connection whose frames
    /// name `service`.
    fn connect(hub: &Defw, service: &str) -> Connection {
        hub.transport.connect_to(service)
    }

    /// One `echo` call through each client shape, with the errors on a
    /// common footing.
    type EchoCall = fn(&Defw, Duration) -> Result<String, IngressError>;
    const SHAPES: [(&str, EchoCall); 2] = [
        ("client", |hub, timeout| {
            hub.client()
                .call("echo", "echo", &"x".to_string(), timeout)
                .map_err(|e| match e {
                    RpcError::Timeout { correlation, .. } => IngressError::Timeout { correlation },
                    other => IngressError::Rpc(other),
                })
        }),
        ("connection", |hub, timeout| {
            connect(hub, "echo").call("echo", &"x".to_string(), timeout)
        }),
    ];

    #[test]
    fn round_trip_on_both_client_shapes() {
        let hub = Defw::start(2);
        hub.register("echo", echo_service());
        let client = hub.client();
        let out: String = client.call("echo", "echo", &"hi".to_string(), T).unwrap();
        assert_eq!(out, "hi");
        let d: f64 = client.call("echo", "double", &21.0, T).unwrap();
        assert_eq!(d, 42.0);
        let conn = connect(&hub, "echo");
        let out: String = conn.call("echo", &"hi".to_string(), T).unwrap();
        assert_eq!(out, "hi");
        let transport = hub.transport.stats();
        assert_eq!((transport.accepted, transport.completed), (3, 3));
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
    fn handler_errors_propagate_on_both_client_shapes() {
        let hub = Defw::start(1);
        hub.register("echo", echo_service());
        let err = hub
            .client()
            .call::<_, String>("echo", "fail", &"x".to_string(), T)
            .unwrap_err();
        assert_eq!(err, RpcError::Handler("nope".into()));
        let conn = connect(&hub, "echo");
        let err = conn
            .call::<_, String>("fail", &"x".to_string(), T)
            .unwrap_err();
        assert_eq!(err, IngressError::Rpc(RpcError::Handler("nope".into())));
        let err = conn
            .call::<_, String>("nope", &"x".to_string(), T)
            .unwrap_err();
        assert!(matches!(
            err,
            IngressError::Rpc(RpcError::MethodNotFound { .. })
        ));
        assert_eq!(hub.transport.stats().errors, 3);
    }

    #[test]
    fn async_calls_overlap() {
        // One slow service, several in-flight calls on 4 workers: total
        // time must be far below the serial sum.
        let hub = Defw::start(4);
        hub.register("slow", slow_service());
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
        let hub = Defw::start(1);
        hub.register("slow", slow_service());
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
    fn timeout_fires_on_both_client_shapes() {
        let hub = Defw::start(2);
        hub.register("slow", slow_service());
        let err = hub
            .client()
            .call::<_, u64>("slow", "work", &500u64, Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, RpcError::Timeout { .. }));
        let conn = connect(&hub, "slow");
        let corr = conn.send("work", &50u64).unwrap();
        assert!(matches!(
            conn.wait(corr, Duration::from_millis(1)),
            Err(IngressError::Timeout { .. })
        ));
        // A connection outlives its deadline: the reply still lands and a
        // later wait on the same id gets it.
        let bytes = conn.wait(corr, T).unwrap();
        let ms: u64 = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(ms, 50);
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
        // One place a request is counted: the service's statistics and the
        // transport's move together, whichever client shape sent it.
        let transport = hub.transport.stats();
        assert_eq!((transport.completed, transport.errors), (4, 1));
        let _: String = connect(&hub, "echo").call("echo", &"x".to_string(), T).unwrap();
        assert_eq!(hub.stats("echo").unwrap().calls, 5);
        assert_eq!(hub.transport.stats().completed, 5);
        // A call to nobody is the transport's alone.
        let _ = client.call::<_, String>("nowhere", "echo", &"x".to_string(), T);
        assert_eq!(hub.stats("echo").unwrap().calls, 5);
        assert_eq!(hub.stats("nowhere"), None);
        let transport = hub.transport.stats();
        assert_eq!((transport.completed, transport.errors), (6, 2));
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

    /// A hub with `echo` registered and one fault injected at `site`.
    fn faulty_hub(seed: u64, site: &str, spec: FaultSpec) -> (Defw, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::seeded(seed).inject(site, spec));
        let hub = Defw::start_with_chaos(1, Arc::clone(&plan));
        hub.register("echo", echo_service());
        (hub, plan)
    }

    #[test]
    fn chaos_drop_reply_times_out_then_recovers() {
        for (shape, call) in SHAPES {
            let (hub, plan) = faulty_hub(11, "defw.drop_reply.echo", FaultSpec::first(1));
            let err = call(&hub, Duration::from_millis(50)).unwrap_err();
            assert!(matches!(err, IngressError::Timeout { .. }), "{shape}: {err:?}");
            // The fault was first(1): the second call goes through.
            assert_eq!(call(&hub, T).unwrap(), "x", "{shape}");
            assert_eq!(plan.fired("defw.drop_reply.echo"), 1, "{shape}");
            // The lost reply was a served, counted request all the same.
            assert_eq!(hub.stats("echo").unwrap().calls, 2, "{shape}");
        }
    }

    #[test]
    fn chaos_poison_surfaces_codec_error() {
        for (shape, call) in SHAPES {
            let (hub, plan) = faulty_hub(3, "defw.poison.echo", FaultSpec::first(1));
            let err = call(&hub, T).unwrap_err();
            assert!(
                matches!(&err, IngressError::Rpc(RpcError::Codec(msg)) if msg.contains("injected")),
                "{shape}: {err:?}"
            );
            assert_eq!(plan.fired("defw.poison.echo"), 1, "{shape}");
        }
    }

    #[test]
    fn chaos_delay_stalls_dispatch() {
        for (shape, call) in SHAPES {
            let stall = FaultSpec::first(1).delayed(Duration::from_millis(60));
            let (hub, plan) = faulty_hub(4, "defw.delay.echo", stall);
            let start = Instant::now();
            assert_eq!(call(&hub, T).unwrap(), "x", "{shape}");
            assert!(start.elapsed() >= Duration::from_millis(60), "{shape}");
            assert_eq!(plan.fired("defw.delay.echo"), 1, "{shape}");
        }
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

        // A connection's request is recorded by the same span and counters.
        let conn = connect(&hub, "echo");
        let _: String = conn.call("echo", &"x".to_string(), T).unwrap();
        let trace = obs.chrome_trace();
        assert!(trace.contains(&format!("\"conn\":{}", conn.id())), "{trace}");
        assert!(trace.contains("\"correlation\":1"), "{trace}");
        let snap = obs.metrics_snapshot();
        assert!(snap.contains("\"defw.calls\":3"), "{snap}");
        assert!(snap.contains("\"ingress.accepted\":3"), "{snap}");
        assert!(snap.contains("\"defw.handle_us\""), "{snap}");
    }

    /// A deferred method works over the hub: its reply is sent from another
    /// thread while the hub's single worker serves a second request.
    #[test]
    fn deferred_method_is_answered_through_a_client_call() {
        let (parked_tx, parked_rx) = crossbeam::channel::unbounded();
        let service = MethodTable::new("park")
            .method("echo", |v: String| Ok(v))
            .deferred("park", move |v: String, reply: Reply| {
                parked_tx.send((v, reply)).unwrap()
            })
            .build();
        let hub = Defw::start(1);
        hub.register("park", service);
        let client = hub.client();
        let waiter = {
            let client = client.clone();
            std::thread::spawn(move || {
                client.call::<_, String>("park", "park", &"later".to_string(), T)
            })
        };
        let (v, reply) = parked_rx.recv().unwrap();
        // The one worker is free again, and the parked call is not counted yet.
        let out: String = client.call("park", "echo", &"now".to_string(), T).unwrap();
        assert_eq!(out, "now");
        assert_eq!(hub.stats("park").unwrap().calls, 1);
        reply.send_typed(Ok(v));
        assert_eq!(waiter.join().unwrap().unwrap(), "later");
        assert_eq!(hub.stats("park").unwrap().calls, 2);
    }

    /// `shutdown` closes admission on both client shapes, does not wait for
    /// a worker inside a handler, and everything admitted before it is
    /// still answered.
    #[test]
    fn shutdown_refuses_new_calls_and_answers_admitted_ones() {
        let (entered_tx, entered_rx) = crossbeam::channel::unbounded();
        let (release_tx, release_rx) = crossbeam::channel::unbounded::<()>();
        let service = MethodTable::new("gate")
            .method("echo", |v: String| Ok(v))
            .method("hold", move |v: String| {
                entered_tx.send(()).unwrap();
                release_rx.recv().map_err(|_| "never released".to_string())?;
                Ok(v)
            })
            .build();
        let hub = Defw::start(1);
        hub.register("gate", service);
        let client = hub.client();
        let conn = connect(&hub, "gate");
        let held = client
            .call_async::<_, String>("gate", "hold", &"held".to_string())
            .unwrap();
        entered_rx.recv().unwrap();
        let queued = conn.send("echo", &"queued".to_string()).unwrap();

        // The one worker is inside `hold`: shutdown must not wait for it.
        hub.shutdown();
        let err = client
            .call::<_, String>("gate", "echo", &"x".to_string(), T)
            .unwrap_err();
        assert_eq!(err, RpcError::Shutdown);
        let err = conn.send("echo", &"x".to_string()).unwrap_err();
        assert_eq!(err, IngressError::Shutdown);

        release_tx.send(()).unwrap();
        assert_eq!(held.wait(T).unwrap(), "held");
        let out: String = serde_json::from_slice(&conn.wait(queued, T).unwrap()).unwrap();
        assert_eq!(out, "queued");
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
