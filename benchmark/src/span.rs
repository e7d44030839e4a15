//! Benchmark-side spans.
//!
//! The harness cannot see inside the program, so a traced op is replayed
//! as a *stair-step*: a fresh op of the same kind is timed at each depth
//! (front door ⊃ scheduler ⊃ QRC ⊃ engine) and the measured durations are
//! nested into one waterfall. A layer's self time is its span minus what
//! its children cover, so the per-layer budget of a group sums to its root
//! span exactly; a child measured longer than its parent shows up as a
//! negative self time, which flags noise rather than hiding it.

use crate::metrics::Metrics;
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One recorded interval. Times are microseconds on the trace's own
/// timeline (groups are laid end to end).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Numbers a stair-step replay collects beside its spans.
#[derive(Default)]
pub struct StairNotes {
    /// Op groups replayed.
    pub groups: usize,
    pub submit_us: Vec<f64>,
    pub marshal_us: Vec<f64>,
    pub envelope_bytes: Vec<f64>,
    pub result_bytes: Vec<f64>,
}

/// Which per-layer metric carries the median self time of which span.
const BUDGET: [(&str, &str); 12] = [
    ("ingress.job", "defw.self_us"),
    ("rpc.job", "qpm.self_us"),
    ("defw.serde", "defw.serde_us"),
    ("compile.ingest", "compile.ingest_us"),
    ("circuit.text_parse", "circuit.text_parse_us"),
    ("cache.key", "cache.key_us"),
    ("cache.get_hit", "cache.get_hit_us"),
    ("cache.get_miss", "cache.get_miss_us"),
    ("cache.insert", "cache.insert_us"),
    ("sched.job", "sched.self_us"),
    ("qrc.execute", "qrc.self_us"),
    ("engine", "engine.call_us"),
];

/// Spans kept in memory until the run ends.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Where the next child of each span starts.
    child_cursor: Vec<f64>,
    /// Where the next root starts.
    root_cursor: f64,
}

impl Trace {
    /// Opens a new op group with its outermost span.
    pub fn root(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op_id: u64,
        dur_us: f64,
    ) -> usize {
        let start_us = self.root_cursor;
        self.root_cursor = start_us + dur_us.max(0.0) + 1.0;
        self.push(Span {
            name,
            layer,
            op_id,
            parent: None,
            start_us,
            end_us: start_us + dur_us,
        })
    }

    /// Nests a measured duration under `parent`, after its earlier children.
    pub fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        layer: &'static str,
        dur_us: f64,
    ) -> usize {
        let start_us = self.child_cursor[parent];
        self.child_cursor[parent] = start_us + dur_us;
        let op_id = self.spans[parent].op_id;
        self.push(Span {
            name,
            layer,
            op_id,
            parent: Some(parent),
            start_us,
            end_us: start_us + dur_us,
        })
    }

    fn push(&mut self, span: Span) -> usize {
        self.child_cursor.push(span.start_us);
        self.spans.push(span);
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by id: its duration minus the length of
    /// the union of its children's intervals. Negative when separately
    /// measured children outran their parent.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_us, span.end_us));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_by(|a, b| a.partial_cmp(b).expect("finite span times"));
                let mut cover = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for &(start, end) in kids.iter() {
                    if end > reach {
                        cover += end - start.max(reach);
                        reach = end;
                    }
                }
                span.dur_us() - cover
            })
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self.self_times()) {
            out.entry(span.name).or_default().push(self_us);
        }
        out
    }

    /// Share of spans whose self time came out negative.
    pub fn negative_share(&self) -> f64 {
        if self.spans.is_empty() {
            return 0.0;
        }
        let negative = self.self_times().iter().filter(|&&t| t < 0.0).count();
        negative as f64 / self.spans.len() as f64
    }

    /// The per-layer budget of a replay: the median self time of each span
    /// name, and the medians of the notes taken beside the spans.
    pub fn budget_metrics(&self, notes: &StairNotes, metrics: &mut Metrics) {
        let by_name = self.self_by_name();
        for (span, metric) in BUDGET {
            if let Some(selfs) = by_name.get(span) {
                metrics.set(metric, stats::median(selfs));
            }
        }
        metrics.set("span.negative_share", self.negative_share());
        metrics.set("span.groups", notes.groups as f64);
        metrics.set("sched.submit_us", stats::median(&notes.submit_us));
        metrics.set("backend.marshal_us", stats::median(&notes.marshal_us));
        metrics.set("defw.envelope_bytes", stats::median(&notes.envelope_bytes));
        metrics.set("defw.result_bytes", stats::median(&notes.result_bytes));
    }

    /// Writes Chrome trace-event JSON (`chrome://tracing`, Perfetto). One
    /// lane per nesting depth so a group reads as a waterfall.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let self_times = self.self_times();
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut depth = 0u64;
                let mut up = s.parent;
                while let Some(p) = up {
                    depth += 1;
                    up = self.spans[p].parent;
                }
                let parent = match s.parent {
                    Some(p) => Value::UInt(p as u64),
                    None => Value::Null,
                };
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(s.layer.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Float(s.start_us)),
                    ("dur".into(), Value::Float(s.dur_us().max(0.0))),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(depth)),
                    (
                        "args".into(),
                        Value::Map(vec![
                            ("id".into(), Value::UInt(id as u64)),
                            ("op_id".into(), Value::UInt(s.op_id)),
                            ("parent".into(), parent),
                            ("self_us".into(), Value::Float(self_times[id])),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Map(vec![("traceEvents".into(), Value::Seq(events))]);
        let text = serde_json::to_string(&doc)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_span() {
        let mut t = Trace::default();
        let root = t.root("ingress.job", "qfw-defw", 7, 1000.0);
        t.child(root, "compile.ingest", "qfw-compile", 120.0);
        t.child(root, "cache.key", "qfw", 15.0);
        let sched = t.child(root, "sched.job", "qfw-sched", 600.0);
        let qrc = t.child(sched, "qrc.execute", "qfw", 450.0);
        t.child(qrc, "engine", "qfw-sim-sv", 300.0);
        let selfs = t.self_times();
        assert!((selfs.iter().sum::<f64>() - 1000.0).abs() < 1e-9);
        assert_eq!(selfs[root], 1000.0 - 120.0 - 15.0 - 600.0);
        assert_eq!(selfs[sched], 150.0);
        assert_eq!(selfs[qrc], 150.0);
        assert_eq!(t.negative_share(), 0.0);
        // Children follow one another inside the parent.
        assert_eq!(t.spans()[2].start_us, 120.0);
        assert_eq!(t.spans()[3].start_us, 135.0);
        assert_eq!(t.spans()[4].start_us, 135.0);
    }

    #[test]
    fn a_child_longer_than_its_parent_is_flagged_not_clipped() {
        let mut t = Trace::default();
        let root = t.root("ingress.job", "qfw-defw", 1, 100.0);
        t.child(root, "sched.job", "qfw-sched", 130.0);
        assert_eq!(t.self_times()[root], -30.0);
        assert_eq!(t.negative_share(), 0.5);
        // The budget still closes: the negative self time offsets the child.
        assert_eq!(t.self_times().iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn groups_do_not_overlap_on_the_timeline() {
        let mut t = Trace::default();
        let a = t.root("ingress.job", "qfw-defw", 1, 50.0);
        let b = t.root("ingress.job", "qfw-defw", 2, 70.0);
        assert!(t.spans()[b].start_us > t.spans()[a].end_us);
        assert_eq!(t.self_by_name()["ingress.job"], vec![50.0, 70.0]);
    }
}
