//! The benchmark's contract: workloads, metrics, units, bounds. The tables
//! here generate `BENCHMARK.json` (`-- manifest`), name every value a run
//! prints, and are what `README.md` documents.

use serde::Value;
use std::collections::BTreeMap;

/// How long one run measures; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u64 = 16;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "serve_cold",
        why: "small unique QASM3 jobs through SchedIngress: stack-bound, every cache misses and fills, so inserts, eviction and state growth are in the measurement",
    },
    WorkloadInfo {
        name: "serve_hot",
        why: "same front door with its result cache full, 90% repeats of a 64-envelope hot set: the cache read path (ingest, key, hit) with scheduler, QRC and engine bypassed",
    },
    WorkloadInfo {
        name: "engine_sv",
        why: "dense 18-qubit jobs on nwqsim cpu/openmp: the engine is over 95% of latency, so kernel, fusion and sampler work shows here and nowhere else",
    },
    WorkloadInfo {
        name: "dist_sv",
        why: "dense 18-qubit QASM3 jobs on nwqsim/mpi with 2 ranks: O3 layout handoff, lazy routing, rank spawn and gather sampling",
    },
    WorkloadInfo {
        name: "dqaoa",
        why: "solve_dqaoa through QfwSession (DEFw RPC, QPM, QRC, plan cache): thousands of sub-millisecond evaluations, so per-evaluation overhead is the time to solution",
    },
    WorkloadInfo {
        name: "auto_mix",
        why: "seven kinds on auto, tnqvm and qtensor: planner, stabilizer, MPS, tensor-network and the Clifford-prefix partition do the work, dense SV little",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "heap_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Crate the number belongs to.
    pub layer: &'static str,
    /// The end-to-end metric and workload a change to it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

// One metric per row: the table is read, and diffed, by row.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // --- stair-step budget: medians of span self times on this workload's kinds
    layer("defw.self_us", "us", "lower", "qfw-defw", "latency_p50_ms on serve_hot, serve_cold"),
    layer("defw.serde_us", "us", "lower", "qfw-defw", "latency_p50_ms on serve_hot; throughput_ops_s on dqaoa"),
    layer("defw.envelope_bytes", "count", "lower", "qfw-defw", "latency_p50_ms on serve_hot, dqaoa"),
    layer("defw.result_bytes", "count", "lower", "qfw-defw", "latency_p50_ms on serve_hot, dqaoa"),
    layer("compile.ingest_us", "us", "lower", "qfw-compile", "latency_p50_ms on serve_hot (largest share of a hit), serve_cold"),
    layer("circuit.text_parse_us", "us", "lower", "qfw-circuit", "latency_p50_ms on serve_cold, dqaoa"),
    layer("cache.key_us", "us", "lower", "qfw", "latency_p50_ms on serve_hot"),
    layer("cache.get_hit_us", "us", "lower", "qfw", "latency_p50_ms on serve_hot"),
    layer("cache.get_miss_us", "us", "lower", "qfw", "latency_p50_ms on serve_cold"),
    layer("cache.insert_us", "us", "lower", "qfw", "throughput_ops_s on serve_cold"),
    layer("sched.submit_us", "us", "lower", "qfw-sched", "latency_p50_ms on serve_cold, auto_mix"),
    layer("sched.self_us", "us", "lower", "qfw-sched", "latency_p50_ms on serve_cold, auto_mix; zero on dqaoa"),
    layer("qrc.self_us", "us", "lower", "qfw", "latency_p50_ms on serve_cold, dqaoa"),
    layer("qpm.self_us", "us", "lower", "qfw", "throughput_ops_s on dqaoa; zero on serve_*"),
    layer("backend.marshal_us", "us", "lower", "qfw", "latency_p50_ms on serve_cold, dqaoa"),
    layer("engine.call_us", "us", "lower", "qfw-sim-*", "latency_p50_ms on engine_sv, dist_sv"),
    layer("span.negative_share", "share", "lower", "benchmark", "none: flags noise in the stair-step replay"),
    layer("span.groups", "count", "higher", "benchmark", "none: stair-step groups sampled"),
    // --- counters of the traced closed loop
    layer("stack.overhead_share", "share", "lower", "whole stack", "latency_p50_ms on serve_cold; must stay under 0.05 on engine_sv, dist_sv"),
    layer("stack.drift_ratio", "ratio", "higher", "whole stack", "throughput_ops_s on serve_cold, serve_hot"),
    layer("stack.rss_kb_per_job", "KiB", "lower", "whole stack", "heap_mb on serve_cold, serve_hot"),
    layer("stack.failed_share", "share", "lower", "whole stack", "failed ops on every workload; expected 0"),
    layer("client.polls_per_job", "count", "lower", "qfw-sched", "latency_p50_ms on serve_cold"),
    layer("cache.hit_ratio", "share", "higher", "qfw", "throughput_ops_s on serve_hot"),
    layer("cache.evictions", "count", "lower", "qfw", "throughput_ops_s on serve_cold"),
    layer("sched.wait_us", "us", "lower", "qfw-sched", "latency_p50_ms on serve_cold, auto_mix"),
    layer("sched.rejected", "count", "lower", "qfw-sched", "failed ops on serve_cold"),
    layer("sched.batches", "count", "higher", "qfw-sched", "throughput_ops_s on serve_cold"),
    layer("qrc.engine_invocations", "count", "lower", "qfw", "throughput_ops_s on serve_cold; zero per hit on serve_hot"),
    layer("planner.picks.stab", "count", "higher", "qfw", "latency_p50_ms on auto_mix"),
    layer("planner.picks.mps", "count", "higher", "qfw", "latency_p50_ms on auto_mix"),
    layer("planner.picks.sv", "count", "higher", "qfw", "latency_p50_ms on auto_mix"),
    layer("planner.picks.partition", "count", "higher", "qfw", "latency_p50_ms on auto_mix"),
    layer("planner.abs_log_err", "ratio", "lower", "qfw", "latency_tail_ms on auto_mix"),
    layer("dqaoa.evals", "count", "lower", "qfw-dqaoa", "throughput_ops_s on dqaoa"),
    layer("dqaoa.evals_per_s", "1/s", "higher", "qfw-dqaoa", "throughput_ops_s on dqaoa"),
    // --- isolated probes of the layers this workload exercises (0 elsewhere)
    layer("defw.ingress_rtt_us", "us", "lower", "qfw-defw", "latency_p50_ms on serve_hot"),
    layer("defw.rpc_rtt_us", "us", "lower", "qfw-defw", "throughput_ops_s on dqaoa"),
    layer("compile.parse_us", "us", "lower", "qfw-compile", "latency_p50_ms on serve_hot, serve_cold"),
    layer("compile.gates_in", "count", "lower", "qfw-compile", "none: input size of compile.ingest_us"),
    layer("compile.gates_out", "count", "lower", "qfw-compile", "latency_p50_ms on serve_cold"),
    layer("circuit.hash_us", "us", "lower", "qfw-circuit", "latency_p50_ms on serve_hot, serve_cold"),
    layer("cache.insert_full_us", "us", "lower", "qfw", "throughput_ops_s on serve_cold"),
    layer("planner.plan_us", "us", "lower", "qfw", "latency_p50_ms on auto_mix"),
    layer("num.sample_us.12q", "us", "lower", "qfw-num", "latency_p50_ms on serve_cold"),
    layer("num.sample_us.20q", "us", "lower", "qfw-num", "latency_p50_ms on engine_sv"),
    layer("sim_sv.qaoa.serial_ms", "ms", "lower", "qfw-sim-sv", "latency_p50_ms on engine_sv"),
    layer("sim_sv.qaoa.rayon_ms", "ms", "lower", "qfw-sim-sv", "latency_p50_ms on engine_sv"),
    layer("sim_sv.ham.serial_ms", "ms", "lower", "qfw-sim-sv", "latency_p50_ms on engine_sv"),
    layer("sim_sv.ham.rayon_ms", "ms", "lower", "qfw-sim-sv", "latency_p50_ms on engine_sv"),
    layer("sim_sv.tfim.serial_ms", "ms", "lower", "qfw-sim-sv", "latency_tail_ms on engine_sv"),
    layer("sim_sv.tfim.rayon_ms", "ms", "lower", "qfw-sim-sv", "latency_tail_ms on engine_sv"),
    layer("sim_sv.rayon_speedup", "ratio", "higher", "qfw-sim-sv", "throughput_ops_s on engine_sv"),
    layer("sim_sv.gate_ms", "ms", "lower", "qfw-sim-sv", "latency_p50_ms on engine_sv"),
    layer("sim_sv.sample_ms", "ms", "lower", "qfw-sim-sv", "latency_p50_ms on engine_sv"),
    layer("sim_sv.fused_gates", "count", "lower", "qfw-sim-sv", "latency_p50_ms on engine_sv"),
    layer("sim_sv.amp_updates_per_s", "1/s", "higher", "qfw-sim-sv", "throughput_ops_s on engine_sv"),
    layer("sim_sv.apply_gbps_22q", "GB/s", "higher", "qfw-sim-sv", "throughput_ops_s on engine_sv (computed bytes)"),
    layer("sweep.compile_ms", "ms", "lower", "qfw-sim-sv", "setup_s on dqaoa"),
    layer("sweep.point_us", "us", "lower", "qfw-sim-sv", "throughput_ops_s on dqaoa"),
    layer("sweep.bind1_us", "us", "lower", "qfw-sim-sv", "latency_p50_ms on dqaoa"),
    layer("dist.r1_ms", "ms", "lower", "qfw-sim-sv", "none: the one-rank baseline of dist.speedup_2r"),
    layer("dist.r2_ms", "ms", "lower", "qfw-sim-sv", "latency_p50_ms on dist_sv"),
    layer("dist.speedup_2r", "ratio", "higher", "qfw-sim-sv", "throughput_ops_s on dist_sv"),
    layer("dist.exchanges", "count", "lower", "qfw-sim-sv", "latency_p50_ms on dist_sv"),
    layer("dist.bytes", "count", "lower", "qfw-sim-sv", "latency_p50_ms on dist_sv"),
    layer("dist.sample_ms", "ms", "lower", "qfw-sim-sv", "latency_p50_ms on dist_sv"),
    layer("hpc.spawn2_us", "us", "lower", "qfw-hpc", "latency_p50_ms on dist_sv"),
    layer("hpc.alltoallv_ms_per_64mib", "ms", "lower", "qfw-hpc", "latency_p50_ms on dist_sv"),
    layer("hpc.barrier_us", "us", "lower", "qfw-hpc", "latency_p50_ms on dist_sv"),
    layer("sim_mps.tfim20_ms", "ms", "lower", "qfw-sim-mps", "latency_p50_ms on auto_mix"),
    layer("sim_stab.ghz24_ms", "ms", "lower", "qfw-sim-stab", "latency_p50_ms on auto_mix"),
    layer("sim_tn.exatn_qaoa12_ms", "ms", "lower", "qfw-sim-mps", "latency_p50_ms on auto_mix"),
    layer("sim_tn.qtensor_qaoa12_ms", "ms", "lower", "qfw-sim-tn", "latency_tail_ms on auto_mix"),
    layer("partition.cliff14_ms", "ms", "lower", "qfw-sim-stab", "latency_p50_ms on auto_mix"),
    layer("obs.on_overhead_share", "share", "lower", "qfw-obs", "latency_p50_ms on serve_cold with Obs::wall()"),
    // --- what this host cannot hold a 25 % bound on (README)
    layer("latency_tail_ms", "ms", "lower", "whole stack", "none: the percentile bench.tail_percentile of the traced closed loop"),
    layer("peak_rss_mb", "MiB", "lower", "whole stack", "none: heap_mb plus what the allocator's arenas kept"),
    // --- the harness about itself
    layer("bench.trace_overhead_share", "share", "lower", "benchmark", "none: cost of the traced bookkeeping"),
    layer("bench.reference_s", "s", "lower", "benchmark", "none: verification references, outside every timer"),
    layer("bench.tail_percentile", "count", "higher", "benchmark", "none: which percentile latency_tail_ms is"),
    layer("bench.tail_beyond", "count", "higher", "benchmark", "none: samples beyond that percentile"),
    layer("bench.ops_traced", "count", "higher", "benchmark", "none: ops of the traced closed loop"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The figures every workload reports the same way: the end-to-end
    /// ones but `heap_mb` (read earlier, see [`Metrics::set_memory`]), the
    /// tail and, in a traced run, the harness's notes on itself.
    pub fn set_summary(
        &mut self,
        setup_s: f64,
        plan: crate::stats::Plan,
        summary: &crate::stats::Summary,
        traced: Option<(f64, f64)>,
    ) {
        self.set("setup_s", setup_s);
        self.set("throughput_ops_s", summary.throughput_ops_s);
        self.set("latency_p50_ms", summary.latency_p50_ms);
        self.set("latency_tail_ms", summary.latency_tail_ms);
        if let Some((reference_s, failed_share)) = traced {
            self.set("bench.reference_s", reference_s);
            self.set("bench.tail_percentile", f64::from(plan.tail_pct));
            self.set("bench.tail_beyond", summary.tail_beyond as f64);
            self.set("stack.failed_share", failed_share);
        }
    }

    pub fn set_memory(&mut self, memory: crate::host::Memory) {
        self.set("heap_mb", memory.heap_mb);
        self.set("peak_rss_mb", memory.peak_rss_mb);
    }

    /// `{"name": {"value": v, "unit": u}}` for every metric of `table`, in
    /// table order. A per-layer metric this workload does not exercise
    /// reads 0; a missing end-to-end metric is a harness bug.
    pub fn to_value(&self, table: &[(&'static str, &'static str)], default_zero: bool) -> Value {
        Value::Map(
            table
                .iter()
                .map(|&(name, unit)| {
                    let value = match self.get(name) {
                        Some(v) => v,
                        None if default_zero => 0.0,
                        None => panic!("metric {name} was not measured"),
                    };
                    let value = if value.is_finite() { value } else { 0.0 };
                    (
                        name.to_string(),
                        Value::Map(vec![
                            ("value".into(), Value::Float(value)),
                            ("unit".into(), Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// The content of `/BENCHMARK.json`.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::Map(vec![
        (
            "command".into(),
            Value::Seq(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Value::Seq(vec![s("benchmark")])),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| Value::Map(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::Map(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better)),
                            ("bound".into(), Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::Map(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metric tables as Markdown, as `README.md` carries them.
pub fn markdown() -> String {
    let mut out =
        String::from("| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % |\n",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | better | layer | should move |\n|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.layer, m.moves
        ));
    }
    out
}

/// Indented JSON, for the files people read.
pub fn pretty(value: &Value) -> String {
    fn write(value: &Value, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match value {
            Value::Seq(items) if !items.is_empty() => {
                // Leaf objects (a metric, a workload) stay on one line.
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    match item {
                        Value::Map(_) | Value::Seq(_) if indent >= 1 => {
                            out.push_str(&serde_json::to_string(item).expect("finite JSON"))
                        }
                        _ => write(item, indent + 1, out),
                    }
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Value::Map(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (key, item)) in entries.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&serde_json::to_string(key).expect("string"));
                    out.push_str(": ");
                    write(item, indent + 1, out);
                    out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
            other => out.push_str(&serde_json::to_string(other).expect("finite JSON")),
        }
    }
    let mut out = String::new();
    write(value, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {unit:?}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(!well_formed("has space") && !well_formed(".dot-first") && !well_formed("a/b"));
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            pretty(&manifest()),
            "regenerate with `-- manifest`"
        );
    }
}
