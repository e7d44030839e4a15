//! `bench_sv` — the state-vector hot-path perf trajectory.
//!
//! Runs a fixed kernel/fusion/sampling suite at fixed seeds and writes the
//! wall-clock results as JSON (`results/BENCH_sv.json` by default), so every perf
//! PR touching `qfw-sim-sv` is measured against the previous checked-in
//! numbers instead of asserted. The `layered` section runs the dense
//! TFIM/QAOA/HAM shapes the layer-plan executor exists for and records,
//! next to the time, how many ops went in and how many passes over memory
//! came out.
//!
//! ```text
//! bench_sv [--short] [--out PATH] [--baseline PATH]
//! ```
//!
//! * `--short` — CI smoke sizes (seconds, not minutes).
//! * `--out` — output path (default `results/BENCH_sv.json`).
//! * `--baseline` — a previous report; per-entry speedups are computed
//!   and embedded under `speedups`.
//!
//! Absolute numbers are machine-dependent; the tracked quantity is the
//! *ratio* against the baseline file, which is recorded on the same host
//! in the same session.

use qfw_bench::host::HostStamp;
use qfw_circuit::{Circuit, Gate};
use qfw_num::complex::c64;
use qfw_num::rng::Rng;
use qfw_sim_sv::StateVector;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One timed gate-kernel cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct KernelEntry {
    /// Gate mnemonic being timed.
    name: String,
    /// `serial` or `rayon`.
    mode: String,
    /// Register size.
    qubits: usize,
    /// Applications per timed round (best of three rounds kept).
    reps: usize,
    /// Wall-clock seconds per single gate application.
    secs_per_apply: f64,
}

/// One timed shot-sampling cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SamplingEntry {
    /// Sampler strategy (`cdf` or `alias`).
    strategy: String,
    /// Register size.
    qubits: usize,
    /// Shots drawn.
    shots: usize,
    /// Wall-clock seconds for table build + all draws + histogram.
    secs: f64,
}

/// One timed end-to-end workload cell at a fusion tier.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct WorkloadEntry {
    /// Workload label (`ghz20`, `tfim16`, ...).
    workload: String,
    /// Fusion tier label.
    fusion: String,
    /// Gate count of the source circuit.
    gates_before: usize,
    /// Gates actually applied after the fusion pre-pass.
    gates_applied: usize,
    /// Engine wall-clock for gate application (excludes sampling).
    run_secs: f64,
}

/// One layered-circuit cell: a dense Trotter/QAOA shape under full fusion.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct LayeredEntry {
    /// Workload label (`tfim18`, `qaoa18`, `ham18`).
    workload: String,
    /// `serial` or `rayon`.
    mode: String,
    /// Register size.
    qubits: usize,
    /// Gates of the source circuit.
    ops_in: usize,
    /// Fused layers the plan applies.
    layers: usize,
    /// Full-state passes over memory one execution makes.
    passes: usize,
    /// Engine wall-clock for gate application (excludes sampling).
    run_secs: f64,
}

/// A computed ratio against the baseline file.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SpeedupEntry {
    /// `suite/name/mode` key the ratio belongs to.
    key: String,
    /// Seconds in the baseline report.
    baseline_secs: f64,
    /// Seconds in this report.
    secs: f64,
    /// `baseline_secs / secs` (>1 is faster than baseline).
    speedup: f64,
}

/// The full report written to `results/BENCH_sv.json`.
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    /// `full` or `short`.
    suite: String,
    /// Seed every stochastic component of the suite derives from.
    seed: u64,
    /// The host the numbers were taken on.
    host: HostStamp,
    /// Per-kernel timings.
    kernels: Vec<KernelEntry>,
    /// Per-strategy sampling timings.
    sampling: Vec<SamplingEntry>,
    /// Per-workload fusion-tier timings and gate counts.
    workloads: Vec<WorkloadEntry>,
    /// Layered dense circuits: time, ops in, passes out.
    layered: Vec<LayeredEntry>,
    /// Ratios against `--baseline`, when given.
    speedups: Vec<SpeedupEntry>,
}

const SEED: u64 = 2025;

fn random_state(n: usize, seed: u64) -> StateVector {
    let mut rng = Rng::seed_from(seed);
    let mut amps: Vec<_> = (0..(1usize << n))
        .map(|_| c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect();
    qfw_num::matrix::normalize(&mut amps);
    StateVector::from_amps(amps)
}

/// Times `reps` applications of `gate`, best of five rounds.
fn time_kernel(base: &StateVector, gate: &Gate, par: bool, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut sv = base.clone();
        let t0 = Instant::now();
        for _ in 0..reps {
            sv.apply(gate, par);
        }
        let secs = t0.elapsed().as_secs_f64() / reps as f64;
        // Keep the optimizer honest: fold the state into an observable.
        std::hint::black_box(sv.probability(0));
        best = best.min(secs);
    }
    best
}

fn kernel_suite(n: usize, reps: usize) -> Vec<KernelEntry> {
    // The diagonal/controlled/permutation hot set plus a dense 1q control.
    // Operand placement mixes low/high qubits so strided enumeration is
    // exercised away from the friendly contiguous case.
    let mid = n / 2;
    let gates: Vec<(&str, Gate)> = vec![
        ("z", Gate::Z(mid)),
        ("s", Gate::S(mid)),
        ("t", Gate::T(mid)),
        ("rz", Gate::Rz(mid, 0.37)),
        ("phase", Gate::Phase(mid, 0.21)),
        ("x", Gate::X(mid)),
        ("cz", Gate::Cz(2, n - 2)),
        ("cp", Gate::Cp(2, n - 2, 0.53)),
        ("rzz", Gate::Rzz(2, n - 2, 0.41)),
        ("cx", Gate::Cx(2, n - 2)),
        ("cx_adj", Gate::Cx(mid, mid + 1)),
        ("h_dense", Gate::H(mid)),
        ("ccx", Gate::Ccx(1, mid, n - 2)),
    ];
    let base = random_state(n, SEED);
    let mut out = Vec::new();
    for (name, gate) in &gates {
        for (mode, par) in [("serial", false), ("rayon", true)] {
            out.push(KernelEntry {
                name: (*name).to_string(),
                mode: mode.to_string(),
                qubits: n,
                reps,
                secs_per_apply: time_kernel(&base, gate, par, reps),
            });
        }
    }
    out
}

fn sampling_suite(n: usize, shots: usize) -> Vec<SamplingEntry> {
    let base = random_state(n, SEED ^ 0xA11A5);
    let mut out = Vec::new();
    for strategy in sampling_strategies() {
        let mut best = f64::INFINITY;
        for round in 0..5 {
            let mut rng = Rng::seed_from(SEED + round);
            let t0 = Instant::now();
            let counts = sample_with(&base, shots, &mut rng, strategy);
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(counts.len());
        }
        out.push(SamplingEntry {
            strategy: strategy.to_string(),
            qubits: n,
            shots,
            secs: best,
        });
    }
    out
}

/// Sampler strategies exercised by the suite.
fn sampling_strategies() -> Vec<&'static str> {
    vec!["cdf", "alias"]
}

fn sample_with(
    sv: &StateVector,
    shots: usize,
    rng: &mut Rng,
    strategy: &str,
) -> std::collections::BTreeMap<String, usize> {
    use qfw_num::rng::SampleStrategy;
    let strat = match strategy {
        "cdf" => SampleStrategy::Cdf,
        "alias" => SampleStrategy::Alias,
        other => panic!("unknown strategy {other}"),
    };
    sv.sample_counts_with(shots, rng, strat, false)
}

fn workload_circuits(short: bool) -> Vec<(String, Circuit)> {
    let (ghz_n, tfim_n, qaoa_n) = if short { (12, 10, 8) } else { (20, 16, 14) };
    let qubo = qfw_workloads::Qubo::random(qaoa_n, 0.5, SEED);
    let ansatz = qfw_workloads::qaoa_ansatz(&qubo, 2);
    let params: Vec<f64> = (0..ansatz.num_params())
        .map(|k| 0.3 + 0.1 * k as f64)
        .collect();
    vec![
        (format!("ghz{ghz_n}"), qfw_workloads::ghz(ghz_n)),
        (format!("tfim{tfim_n}"), qfw_workloads::tfim(tfim_n)),
        (format!("qaoa{qaoa_n}"), ansatz.bind(&params)),
    ]
}

fn workload_suite(short: bool) -> Vec<WorkloadEntry> {
    use qfw_sim_sv::{FusionLevel, SvConfig, SvSimulator, Threading};
    let shots = if short { 256 } else { 1024 };
    let mut out = Vec::new();
    for (label, circuit) in workload_circuits(short) {
        for (tier, fusion) in [
            ("none", FusionLevel::None),
            ("full", FusionLevel::Full),
        ] {
            let engine = SvSimulator::new(SvConfig {
                threading: Threading::Serial,
                fusion,
                ..SvConfig::default()
            });
            let mut best_secs = f64::INFINITY;
            let mut gates_applied = 0;
            for _ in 0..3 {
                let outcome = engine.run(&circuit, shots, SEED);
                best_secs = best_secs.min(outcome.gate_time.as_secs_f64());
                gates_applied = outcome.gates_applied;
            }
            out.push(WorkloadEntry {
                workload: label.clone(),
                fusion: tier.to_string(),
                gates_before: circuit.num_gates(),
                gates_applied,
                run_secs: best_secs,
            });
        }
    }
    out
}

/// The dense layered shapes at the width the end-to-end benchmark runs
/// them (12 qubits — one past the tile width — in the short suite).
fn layered_suite(short: bool) -> Vec<LayeredEntry> {
    use qfw_sim_sv::{fuse, SvConfig, SvSimulator, Threading};
    let n = if short { 12 } else { 18 };
    let qubo = qfw_workloads::Qubo::metamaterial(n, 3, SEED);
    let theta: Vec<f64> = (0..4).map(|k| 0.35 + 0.11 * k as f64).collect();
    let circuits = [
        (format!("tfim{n}"), qfw_workloads::tfim(n)),
        (format!("qaoa{n}"), qfw_workloads::qaoa_ansatz(&qubo, 2).bind(&theta)),
        (format!("ham{n}"), qfw_workloads::ham(n)),
    ];
    let mut out = Vec::new();
    for (label, circuit) in &circuits {
        let plan = fuse(circuit);
        for (mode, threading) in [("serial", Threading::Serial), ("rayon", Threading::Rayon)] {
            let engine = SvSimulator::new(SvConfig {
                threading,
                ..SvConfig::default()
            });
            let run_secs = (0..5)
                .map(|_| engine.run(circuit, 1024, SEED).gate_time.as_secs_f64())
                .fold(f64::INFINITY, f64::min);
            out.push(LayeredEntry {
                workload: label.clone(),
                mode: mode.to_string(),
                qubits: n,
                ops_in: circuit.num_gates(),
                layers: plan.num_layers(),
                passes: plan.passes(),
                run_secs,
            });
        }
    }
    out
}

/// Flattens a report into `(key, secs)` pairs for baseline comparison.
fn flat(report: &BenchReport) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for k in &report.kernels {
        out.push((format!("kernel/{}/{}", k.name, k.mode), k.secs_per_apply));
    }
    for s in &report.sampling {
        out.push((format!("sampling/{}", s.strategy), s.secs));
    }
    for w in &report.workloads {
        out.push((format!("workload/{}/{}", w.workload, w.fusion), w.run_secs));
    }
    for l in &report.layered {
        out.push((format!("layered/{}/{}", l.workload, l.mode), l.run_secs));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let short = args.iter().any(|a| a == "--short");
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_after("--out").unwrap_or_else(|| "results/BENCH_sv.json".to_string());
    let baseline_path = arg_after("--baseline");

    let (kern_n, kern_reps, samp_n, samp_shots) = if short {
        (14, 6, 12, 20_000)
    } else {
        (20, 12, 16, 200_000)
    };

    eprintln!("[bench_sv] kernel suite (n={kern_n}, reps={kern_reps})");
    let kernels = kernel_suite(kern_n, kern_reps);
    eprintln!("[bench_sv] sampling suite (n={samp_n}, shots={samp_shots})");
    let sampling = sampling_suite(samp_n, samp_shots);
    eprintln!("[bench_sv] workload/fusion suite");
    let workloads = workload_suite(short);
    eprintln!("[bench_sv] layered suite");
    let layered = layered_suite(short);

    let mut report = BenchReport {
        suite: if short { "short" } else { "full" }.to_string(),
        seed: SEED,
        host: HostStamp::take(),
        kernels,
        sampling,
        workloads,
        layered,
        speedups: Vec::new(),
    };

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: BenchReport =
            serde_json::from_str(&text).expect("baseline parses as a BenchReport");
        let base_flat = flat(&baseline);
        for (key, secs) in flat(&report) {
            if let Some((_, base_secs)) = base_flat.iter().find(|(k, _)| *k == key) {
                if *base_secs > 0.0 && secs > 0.0 {
                    report.speedups.push(SpeedupEntry {
                        key,
                        baseline_secs: *base_secs,
                        secs,
                        speedup: base_secs / secs,
                    });
                }
            }
        }
    }

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("[bench_sv] wrote {out_path}");

    // Human-readable digest on stderr so CI logs show the trajectory.
    for l in &report.layered {
        eprintln!(
            "  {:<8} {:<6} {:>8.3} ms  {:>4} ops in, {:>3} layers, {:>2} passes out",
            l.workload,
            l.mode,
            l.run_secs * 1e3,
            l.ops_in,
            l.layers,
            l.passes
        );
    }
    for s in &report.speedups {
        eprintln!(
            "  {:<40} {:>10.6}s -> {:>10.6}s  ({:.2}x)",
            s.key, s.baseline_secs, s.secs, s.speedup
        );
    }
}
