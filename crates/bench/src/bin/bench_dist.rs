//! `bench_dist` — the distributed state-vector process-scaling sweep.
//!
//! Reproduces the paper's TFIM strong-scaling experiment on simulated
//! ranks (1/2/4/8): wall seconds per rank count (the fastest of three
//! runs), with exchange-count and byte-volume columns from the engine's
//! comm counters and the plan's epoch and pass counts. Counts are checked
//! bit-for-bit against the serial engine at the same seed, so the sweep
//! doubles as a determinism audit: any mismatch fails the run (exit 1).
//!
//! ```text
//! bench_dist [--smoke|--short] [--out PATH]
//! ```
//!
//! * `--smoke` (alias `--short`) — CI sizes (TFIM-16 / QAOA-12).
//! * `--out` — output path (default `BENCH_dist.json`).
//!
//! Full mode runs TFIM-24 / QAOA-14. The report carries the host it ran
//! on; rank threads share its cores, so a speedup past `nproc` ranks is
//! not to be expected from wall time.

use qfw_bench::host::{command_line, HostStamp};
use qfw_circuit::{Circuit, Op};
use qfw_hpc::{Communicator, RankCtx};
use qfw_obs::Obs;
use qfw_sim_sv::dist::{run_distributed_plan, DistPlan};
use qfw_sim_sv::state::{canonical_split_bits, StateVector};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Runs per row; the report keeps the fastest.
const REPS: usize = 3;
const SEED: u64 = 7;

/// One cell of the rank sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct DistEntry {
    /// Workload label (`tfim24`, `qaoa14`, ...).
    workload: String,
    /// Register size.
    qubits: usize,
    /// Simulated rank count.
    ranks: usize,
    /// Wall-clock seconds for the whole distributed run — planning, rank
    /// threads, gates, sampling — as the fastest of the report's `reps`
    /// runs: one run on a shared host says more about its neighbours and
    /// about first-touch page faults than about the engine.
    secs: f64,
    /// Communication-free epochs the plan cut the circuit into.
    epochs: usize,
    /// Passes one rank makes over its shard (tile groups over all epochs).
    passes: usize,
    /// Exchange operations summed over ranks.
    exchanges: u64,
    /// Point-to-point messages posted by exchanges, summed over ranks.
    messages: u64,
    /// Payload bytes moved by exchanges, summed over ranks.
    bytes: u64,
    /// Whether the counts matched the serial engine bit for bit.
    counts_match: bool,
}

/// The full report written to `BENCH_dist.json`.
#[derive(Debug, Serialize, Deserialize)]
struct DistReport {
    /// `full` or `smoke`.
    suite: String,
    host: HostStamp,
    /// `git rev-parse --short HEAD` where it ran — the commit the tree was
    /// built on top of, if it is dirty.
    git_sha: String,
    seed: u64,
    shots: usize,
    /// Runs per row; `secs` is the fastest.
    reps: usize,
    entries: Vec<DistEntry>,
}

fn run_world<R: Send + 'static>(
    ranks: usize,
    f: impl Fn(RankCtx) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let f = Arc::new(f);
    let handles: Vec<_> = Communicator::test_world(ranks)
        .into_iter()
        .map(|ctx| {
            let f = Arc::clone(&f);
            thread::spawn(move || f(ctx))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Serial reference counts via the canonical split-sampling scheme the
/// distributed engine replays (terminal measurements defer to sampling).
fn serial_counts(
    circuit: &Circuit,
    shots: usize,
    rank_bits: usize,
) -> BTreeMap<String, usize> {
    let mut sv = StateVector::zero(circuit.num_qubits());
    for op in circuit.ops() {
        if let Op::Gate(g) = op {
            sv.apply(g, true);
        }
    }
    sv.sample_counts_split(
        shots,
        SEED,
        canonical_split_bits(circuit.num_qubits(), rank_bits),
    )
}

fn workloads(smoke: bool) -> Vec<(String, Circuit)> {
    let (tfim_n, qaoa_n) = if smoke { (16, 12) } else { (24, 14) };
    let qubo = qfw_workloads::Qubo::random(qaoa_n, 0.5, SEED);
    let ansatz = qfw_workloads::qaoa_ansatz(&qubo, 2);
    let params: Vec<f64> = (0..ansatz.num_params())
        .map(|k| 0.3 + 0.1 * k as f64)
        .collect();
    vec![
        (format!("tfim{tfim_n}"), qfw_workloads::tfim(tfim_n)),
        (format!("qaoa{qaoa_n}"), ansatz.bind(&params)),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--short");
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_dist.json".to_string());
    let shots = if smoke { 1024 } else { 4096 };

    let mut entries = Vec::new();
    for (label, circuit) in workloads(smoke) {
        let n = circuit.num_qubits();
        for ranks in [1usize, 2, 4, 8] {
            let rank_bits = ranks.trailing_zeros() as usize;
            eprintln!("[bench_dist] {label} serial reference at split 2^{rank_bits}");
            let reference = serial_counts(&circuit, shots, rank_bits);
            eprintln!("[bench_dist] {label} ranks={ranks}");
            let mut secs = f64::INFINITY;
            let mut run = None;
            for _ in 0..REPS {
                let t0 = Instant::now();
                let plan = Arc::new(DistPlan::build(&circuit, rank_bits, None));
                let shared = Arc::clone(&plan);
                let results = run_world(ranks, move |mut ctx| {
                    run_distributed_plan(&mut ctx, &shared, shots, SEED, &Obs::disabled())
                });
                secs = secs.min(t0.elapsed().as_secs_f64());
                let rank0 = results.into_iter().next().unwrap();
                run = Some((plan, rank0.expect("rank 0 returns the outcome")));
            }
            let (plan, (outcome, stats)) = run.expect("at least one run");
            entries.push(DistEntry {
                workload: label.clone(),
                qubits: n,
                ranks,
                secs,
                epochs: plan.epochs(),
                passes: plan.passes(),
                exchanges: stats.exchanges,
                messages: stats.messages,
                bytes: stats.bytes,
                counts_match: outcome.counts == reference,
            });
        }
    }

    let report = DistReport {
        suite: if smoke { "smoke" } else { "full" }.to_string(),
        host: HostStamp::take(),
        git_sha: command_line("git", &["rev-parse", "--short", "HEAD"]),
        seed: SEED,
        shots,
        reps: REPS,
        entries,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("[bench_dist] wrote {out_path}");

    // Digest: the scaling table, speedups against each workload's one-rank row.
    eprintln!(
        "  host: {} x {}, {}, {}",
        report.host.nproc, report.host.cpu_model, report.host.rustc, report.git_sha
    );
    eprintln!(
        "  {:<10} {:>5} {:>10} {:>8} {:>7} {:>7} {:>10} {:>14} {:>8} {:>4}",
        "workload",
        "ranks",
        "secs",
        "speedup",
        "epochs",
        "passes",
        "exchanges",
        "bytes",
        "msgs",
        "ok"
    );
    let mut one_rank_secs = 0.0;
    for e in &report.entries {
        if e.ranks == 1 {
            one_rank_secs = e.secs;
        }
        eprintln!(
            "  {:<10} {:>5} {:>10.4} {:>8.2} {:>7} {:>7} {:>10} {:>14} {:>8} {:>4}",
            e.workload,
            e.ranks,
            e.secs,
            one_rank_secs / e.secs,
            e.epochs,
            e.passes,
            e.exchanges,
            e.bytes,
            e.messages,
            if e.counts_match { "yes" } else { "NO" }
        );
    }
    let diverged: Vec<String> = report
        .entries
        .iter()
        .filter(|e| !e.counts_match)
        .map(|e| format!("{} ranks={}", e.workload, e.ranks))
        .collect();
    if !diverged.is_empty() {
        eprintln!(
            "[bench_dist] FAIL: counts diverged from the serial engine: {}",
            diverged.join(", ")
        );
        std::process::exit(1);
    }
}
