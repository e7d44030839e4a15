//! qfw-obs — the unified observability layer for the QFw stack.
//!
//! The paper's evaluation rests on per-layer timing visibility: Fig. 5's
//! zoomed DQAOA iteration timeline, the per-backend wall-clock breakdowns,
//! the QRC slot-occupancy arguments. This crate is the one instrumentation
//! seam behind all of it:
//!
//! * [`Obs`] — a cheap-to-clone handle carrying a clock, a span/event
//!   recorder, and a metrics [`Registry`]. A disabled handle (the default
//!   everywhere) costs one branch per call site.
//! * Hierarchical [`Span`]s with typed [`AttrValue`] attributes. Parents
//!   resolve per thread; each span lives on a named *track* (DEFw, QRC,
//!   engine, ...) that becomes a lane in the exported timeline.
//! * Counters / gauges / histograms in a lock-cheap registry (mutex on
//!   first name lookup, atomics thereafter).
//! * Exporters: Chrome trace-event JSON ([`Obs::chrome_trace`], viewable
//!   in `chrome://tracing` / Perfetto) and a flat metrics snapshot
//!   ([`Obs::metrics_snapshot`]).
//! * A pluggable [`Clock`]: wall time for production, a **virtual clock**
//!   keyed off the chaos seed for tests — with canonical export ordering,
//!   two same-seed runs produce byte-identical traces.

mod clock;
mod export;
mod metrics;
mod span;

pub use clock::Clock;
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use span::{AttrValue, EventRecord, Span, SpanRecord};

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub(crate) struct ObsInner {
    pub(crate) clock: Clock,
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    metrics: Registry,
    ids: AtomicU64,
    enabled: bool,
}

impl ObsInner {
    pub(crate) fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }
}

/// The observability handle threaded through the stack. Clones share the
/// same recorder; a disabled handle records nothing.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.enabled)
            .field("virtual_clock", &self.inner.clock.is_virtual())
            .finish()
    }
}

static DISABLED: OnceLock<Obs> = OnceLock::new();

impl Obs {
    fn with_clock(clock: Clock, enabled: bool) -> Obs {
        Obs {
            inner: Arc::new(ObsInner {
                clock,
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
                metrics: Registry::default(),
                ids: AtomicU64::new(1),
                enabled,
            }),
        }
    }

    /// An enabled handle on the wall clock.
    pub fn wall() -> Obs {
        Self::with_clock(Clock::wall(), true)
    }

    /// An enabled handle on the deterministic virtual clock, keyed off
    /// `seed` (conventionally the chaos seed).
    pub fn virtual_clock(seed: u64) -> Obs {
        Self::with_clock(Clock::virtual_seeded(seed), true)
    }

    /// The shared disabled handle (the default everywhere): spans and
    /// events are inert, metrics still function but are never exported.
    pub fn disabled() -> Obs {
        DISABLED
            .get_or_init(|| Self::with_clock(Clock::wall(), false))
            .clone()
    }

    /// Whether this handle records spans and events.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Opens a span named `name` on track `track`. The guard records the
    /// span when dropped (or via [`Span::finish`]).
    pub fn span(&self, track: &str, name: &str) -> Span {
        if !self.inner.enabled {
            return Span::disabled();
        }
        Span::open(&self.inner, track, name)
    }

    /// Records an instant (point-in-time) event with no attributes.
    pub fn instant(&self, track: &str, name: &str) {
        self.instant_with(track, name, &[]);
    }

    /// Records an instant event with attributes.
    pub fn instant_with(&self, track: &str, name: &str, attrs: &[(&str, AttrValue)]) {
        if !self.inner.enabled {
            return;
        }
        let ts_us = self.inner.clock.now_us();
        self.inner.events.lock().push(EventRecord {
            name: name.to_string(),
            track: track.to_string(),
            ts_us,
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect::<BTreeMap<_, _>>(),
        });
    }

    /// The counter registered under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.metrics.counter(name)
    }

    /// The gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.metrics.gauge(name)
    }

    /// The histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.metrics.histogram(name)
    }

    /// Number of finished spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.inner.spans.lock().len()
    }

    /// Number of instant events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// Snapshot of the finished spans (cloned; recording continues).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().clone()
    }

    /// Snapshot of the instant events (cloned; recording continues).
    pub fn events(&self) -> Vec<EventRecord> {
        self.inner.events.lock().clone()
    }

    /// Exports everything recorded so far as canonical Chrome trace-event
    /// JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(self.spans(), self.events())
    }

    /// Exports a flat, canonical metrics snapshot (JSON).
    pub fn metrics_snapshot(&self) -> String {
        self.inner.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let span = obs.span("app", "work");
        assert!(!span.is_recording());
        assert_eq!(span.finish(), (0, 0));
        obs.instant("app", "tick");
        assert_eq!(obs.span_count(), 0);
        assert_eq!(obs.event_count(), 0);
    }

    #[test]
    fn spans_nest_per_thread() {
        let obs = Obs::virtual_clock(1);
        {
            let _outer = obs.span("app", "outer");
            let _inner = obs.span("app", "inner");
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.end_us <= outer.end_us);
    }

    #[test]
    fn parents_do_not_leak_across_threads() {
        let obs = Obs::virtual_clock(2);
        let _outer = obs.span("app", "outer");
        let o = obs.clone();
        std::thread::spawn(move || {
            let _worker = o.span("worker", "task");
        })
        .join()
        .unwrap();
        assert_eq!(
            obs.spans().iter().find(|s| s.name == "task").unwrap().parent,
            0
        );
    }

    #[test]
    fn attrs_and_finish_times() {
        let obs = Obs::virtual_clock(3);
        let mut span = obs.span("app", "solve").attr("backend", "nwqsim");
        span.set_attr("energy", -4.25);
        let (start, end) = span.finish();
        assert!(end > start);
        let rec = &obs.spans()[0];
        assert_eq!(rec.attrs["backend"], AttrValue::Str("nwqsim".into()));
        assert_eq!(rec.attrs["energy"], AttrValue::Float(-4.25));
        assert_eq!((rec.start_us, rec.end_us), (start, end));
    }

    #[test]
    fn same_seed_exports_identical_bytes() {
        let run = |seed: u64| {
            let obs = Obs::virtual_clock(seed);
            {
                let _a = obs.span("qrc", "execute").attr("backend", "aer");
                obs.instant_with("chaos", "chaos.fire", &[("site", "qrc.slot_death".into())]);
            }
            obs.counter("qrc.tasks").inc();
            obs.histogram("qrc.queue_secs").observe_secs(0.25);
            (obs.chrome_trace(), obs.metrics_snapshot())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn metrics_flow_through_the_handle() {
        let obs = Obs::wall();
        obs.counter("calls").add(3);
        obs.gauge("load").set(0.5);
        obs.histogram("lat").observe_us(100);
        let snap = obs.metrics_snapshot();
        assert!(snap.contains("\"calls\":3"), "{snap}");
        assert!(snap.contains("\"load\":0.5"), "{snap}");
    }
}
