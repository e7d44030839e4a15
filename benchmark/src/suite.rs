//! `all` and `agree`: the whole set, every run a fresh child process.
//!
//! Within one process the stack slows as it ages (the scheduler never trims
//! its job tables), so runs are only comparable when each starts clean.

use crate::metrics::{self, END_TO_END, WORKLOADS};
use crate::{host, stats, Options};
use serde::Value;
use std::process::Command;

/// One child run's result object (the last line it printed).
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

impl ChildResult {
    fn value(&self, name: &str) -> f64 {
        match self.metrics.get(name).and_then(|m| m.get("value")) {
            Some(Value::Float(v)) => *v,
            Some(Value::UInt(v)) => *v as f64,
            Some(Value::Int(v)) => *v as f64,
            _ => f64::NAN,
        }
    }
}

fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("# FAILED")) {
        eprintln!("{workload}: {line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let parsed: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload} printed no result ({e}); exit {:?}",
            out.status.code()
        )
    })?;
    let uint = |key: &str| match parsed.get(key) {
        Some(Value::UInt(v)) => *v,
        _ => 0,
    };
    Ok(ChildResult {
        correct: matches!(parsed.get("correct"), Some(Value::Bool(true))) && out.status.success(),
        attempted: uint("attempted"),
        failed: uint("failed"),
        metrics: parsed.get("metrics").cloned().unwrap_or(Value::Null),
    })
}

fn write_report(name: &str, report: &Value) {
    let path = crate::out_dir().join(name);
    let written = std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::write(&path, metrics::pretty(report)));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Every workload once untraced and once traced; prints every metric by
/// name with its unit and writes `out/report.json`.
pub fn all(options: &Options) -> i32 {
    let stamp = host::stamp(options.seed, options.seconds, false);
    println!(
        "host {}",
        serde_json::to_string(&stamp).expect("finite stamp")
    );
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut entry = vec![("why".to_string(), Value::Str(w.why.into()))];
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            match child(w.name, options.seed, options.seconds, traced) {
                Ok(run) => {
                    ok &= run.correct;
                    println!(
                        "\n{} [{key}] correct={} attempted={} failed={}",
                        w.name, run.correct, run.attempted, run.failed
                    );
                    if let Value::Map(metrics) = &run.metrics {
                        for (name, m) in metrics {
                            let unit = match m.get("unit") {
                                Some(Value::Str(u)) => u.as_str(),
                                _ => "",
                            };
                            println!("  {name:<28} {:>16.6} {unit}", run.value(name));
                        }
                    }
                    entry.push((key.to_string(), run.metrics));
                    if !traced {
                        entry.push(("attempted".into(), Value::UInt(run.attempted)));
                        entry.push(("failed".into(), Value::UInt(run.failed)));
                    }
                }
                Err(e) => {
                    ok = false;
                    eprintln!("{e}");
                }
            }
        }
        workloads.push((w.name.to_string(), Value::Map(entry)));
    }
    write_report(
        "report.json",
        &Value::Map(vec![
            ("host".into(), stamp),
            ("workloads".into(), Value::Map(workloads)),
            // This harness is the baseline later claims are measured
            // against; it makes none itself.
            ("claim".into(), Value::Null),
        ]),
    );
    i32::from(!ok)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// Two sets of untraced runs of the same code, `reps` seeds each, held
/// against the benchmark's own bounds the way the acceptance rule states
/// them: each set's interquartile spread within the metric's bound
/// (`setup_s` exempt), and the second median no worse than the first by
/// more than the bound. Writes `out/baseline.json` with the medians.
pub fn agree(options: &Options) -> i32 {
    let stamp = host::stamp(options.seed, options.seconds, false);
    println!(
        "host {}",
        serde_json::to_string(&stamp).expect("finite stamp")
    );
    let mut breaches = 0;
    let mut baseline = Vec::new();
    println!(
        "\n{:<11} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "shift", "spreadA", "spreadB", "bound"
    );
    for w in &WORKLOADS {
        let mut sets: [Vec<ChildResult>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for rep in 0..options.reps {
                match child(w.name, options.seed + rep as u64, options.seconds, false) {
                    Ok(run) => {
                        if !run.correct || run.failed > 0 {
                            eprintln!(
                                "{}: run with seed {} failed ops",
                                w.name,
                                options.seed + rep as u64
                            );
                            breaches += 1;
                        }
                        set.push(run);
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return 1;
                    }
                }
            }
        }
        let mut medians = Vec::new();
        for m in &END_TO_END {
            let values =
                |set: &[ChildResult]| set.iter().map(|r| r.value(m.name)).collect::<Vec<f64>>();
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let shift = worsening(m.better, ma, mb);
            let spread = |v: &[f64]| if v.len() >= 2 { stats::spread(v) } else { 0.0 };
            let (sa, sb) = (spread(&a), spread(&b));
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let verdict = if shift > m.bound || !spread_ok {
                breaches += 1;
                "BREACH"
            } else if sa.max(sb) > m.bound / 3.0 && m.name != "setup_s" {
                "ok (spread over a third of the bound)"
            } else {
                "ok"
            };
            println!(
                "{:<11} {:<18} {:>12.4} {:>12.4} {:>+8.3} {:>8.3} {:>8.3} {:>6.2}  {verdict}",
                w.name, m.name, ma, mb, shift, sa, sb, m.bound
            );
            medians.push((
                m.name.to_string(),
                Value::Map(vec![
                    (
                        "value".into(),
                        Value::Float(stats::median(&[a, b].concat())),
                    ),
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("spread".into(), Value::Float(sa.max(sb))),
                ]),
            ));
        }
        baseline.push((w.name.to_string(), Value::Map(medians)));
    }
    if breaches == 0 {
        write_report(
            "baseline.json",
            &Value::Map(vec![
                ("host".into(), stamp),
                (
                    "runs_per_workload".into(),
                    Value::UInt(2 * options.reps as u64),
                ),
                ("end_to_end".into(), Value::Map(baseline)),
                ("claim".into(), Value::Null),
            ]),
        );
    } else {
        eprintln!("{breaches} breach(es): no baseline written");
    }
    i32::from(breaches > 0)
}
