//! `qfw-benchmark`: the repo's single measuring stick.
//!
//! ```text
//! qfw-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! qfw-benchmark all      [--seed n] [--seconds s]
//! qfw-benchmark agree    [--seed n] [--seconds s] [--reps r]
//! qfw-benchmark trace <workload> [--seed n] [--seconds s]
//! qfw-benchmark manifest | metrics
//! ```
//!
//! The first form is one run in this process; its last stdout line is the
//! result object the driver reads. `all` and `agree` start every run as a
//! fresh child process, because the stack slows and grows as it ages.

mod engines;
mod gen;
mod host;
mod hybrid;
mod metrics;
mod probes;
mod serve;
mod span;
mod stack;
mod stats;
mod suite;

use metrics::Metrics;
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

/// What one run of one workload produced.
pub struct Outcome {
    /// Ops started in the measured phase.
    pub attempted: u64,
    /// One line per op that failed, was refused, or returned wrong counts.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Counts worth printing that are not metrics.
    pub detail: Vec<(String, f64)>,
}

impl Outcome {
    /// A run that could not be carried out at all is one failed op.
    pub fn or_broken(measured: Result<Outcome, String>) -> Outcome {
        measured.unwrap_or_else(|why| Outcome {
            attempted: 1,
            failures: vec![why],
            metrics: Metrics::default(),
            detail: Vec::new(),
        })
    }
}

/// How often set-up is timed in a run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Sets the stack up again until it has been timed [`SETUP_REPS`] times,
/// the run's own set-up (`first_s`) included, tearing each one down, and
/// returns the median in seconds. The repeats come after the measured
/// phase: four launches and teardowns ahead of it left 20 to 35 MiB of
/// allocator debris in the process, a different amount every run.
pub fn median_setup_s<L>(
    first_s: f64,
    mut setup: impl FnMut() -> Result<L, String>,
    teardown: impl Fn(L),
) -> Result<f64, String> {
    let mut seconds = vec![first_s];
    for _ in 1..SETUP_REPS {
        let t0 = Instant::now();
        let live = setup()?;
        seconds.push(t0.elapsed().as_secs_f64());
        teardown(live);
    }
    Ok(stats::median(&seconds))
}

/// Microseconds since `since`.
pub fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Serialises and parses a request and its result, as a transport does on
/// the way in and on the way out. Returns (µs, request bytes, result bytes).
pub fn serde_round_trip<T: serde::Serialize + serde::de::DeserializeOwned>(
    request: &T,
    result: &qfw::QfwResult,
) -> Result<(f64, usize, usize), String> {
    let t0 = Instant::now();
    let sent = serde_json::to_vec(request).map_err(|e| e.to_string())?;
    let _: T = serde_json::from_slice(&sent).map_err(|e| e.to_string())?;
    let reply = serde_json::to_vec(result).map_err(|e| e.to_string())?;
    let _: qfw::QfwResult = serde_json::from_slice(&reply).map_err(|e| e.to_string())?;
    Ok((us(t0), sent.len(), reply.len()))
}

/// Writes a traced run's spans next to the reports; failing to is a
/// warning, not a failed run.
pub fn write_trace(trace: &span::Trace, workload: &str) {
    let path = out_dir().join(format!("{workload}.trace.json"));
    if let Err(e) = trace.write_chrome(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Where traces and reports go: inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: qfw-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         qfw-benchmark all|agree [--seed n] [--seconds s] [--reps r]\n       \
         qfw-benchmark trace <workload> [--seed n] [--seconds s]\n       \
         qfw-benchmark manifest|metrics",
        metrics::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| usage()))
    };
    let number = |name: &str, default: f64| match flag(name) {
        Some(text) => text.parse::<f64>().unwrap_or_else(|_| usage()),
        None => default,
    };
    let options = Options {
        seed: match flag("--seed") {
            Some(text) => text.parse().unwrap_or_else(|_| usage()),
            None => 1,
        },
        seconds: number("--seconds", metrics::RUN_SECONDS as f64),
        reps: number("--reps", 3.0) as usize,
    };
    if options.seconds.is_nan() || options.seconds <= 0.0 || options.reps == 0 {
        usage();
    }
    let code = match (args.first().map(String::as_str), flag("--workload")) {
        (_, Some(workload)) => run_one(&workload, &options, number("--trace", 0.0) != 0.0),
        (Some("trace"), None) => match args.get(1) {
            Some(workload) => run_one(workload, &options, true),
            None => usage(),
        },
        (Some("all"), None) => suite::all(&options),
        (Some("agree"), None) => suite::agree(&options),
        (Some("manifest"), None) => {
            print!("{}", metrics::pretty(&metrics::manifest()));
            0
        }
        (Some("metrics"), None) => {
            print!("{}", metrics::markdown());
            0
        }
        _ => usage(),
    };
    std::process::exit(code);
}

/// Runs one workload in this process and prints the report; the last line
/// is the machine-readable result.
fn run_one(workload: &str, options: &Options, traced: bool) -> i32 {
    let outcome = match (workload, serve::workload(workload)) {
        ("dqaoa", _) => hybrid::run(options.seed, options.seconds, traced),
        (_, Some(w)) => serve::run(&w, options.seed, options.seconds, traced),
        _ => usage(),
    };
    let table = if traced {
        metrics::per_layer_table()
    } else {
        metrics::end_to_end_table()
    };
    println!("# qfw-benchmark {workload} (trace {})", u8::from(traced));
    println!(
        "# host {}",
        serde_json::to_string(&host::stamp(options.seed, options.seconds, false))
            .expect("finite stamp")
    );
    for (name, value) in &outcome.detail {
        println!("# {name} = {value}");
    }
    for failure in outcome.failures.iter().take(20) {
        println!("# FAILED {failure}");
    }
    if outcome.metrics.get("setup_s").is_none() {
        // Nothing was measured: no result line, so nobody reads one.
        return 1;
    }
    for (name, unit) in metrics::end_to_end_table() {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        // A traced run's own end-to-end numbers include the tracing cost.
        println!(
            "{}{name} = {value} {unit}",
            if traced { "# traced run: " } else { "" }
        );
    }
    if traced {
        for &(name, unit) in &table {
            println!(
                "{name} = {} {unit}",
                outcome.metrics.get(name).unwrap_or(0.0)
            );
        }
    }
    let failed = (outcome.failures.len() as u64).min(outcome.attempted);
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.failures.is_empty())),
        ("attempted".into(), Value::UInt(outcome.attempted.max(1))),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), outcome.metrics.to_value(&table, traced)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("finite metrics")
    );
    i32::from(!outcome.failures.is_empty())
}
