//! `bench_noise` — stochastic-trajectory noisy execution perf trajectory.
//!
//! Runs a noisy QAOA-14 (p=2) workload — the noise model derived from a
//! synthetic per-qubit calibration table, exactly as the cloud path
//! builds it — through the trajectory executor at 1, 4, and 8 workers.
//! Counts must be bitwise identical at every worker count (per-trajectory
//! seeding makes the thread count invisible); the speedup is pure
//! parallelism over independent trajectories.
//!
//! ```text
//! bench_noise [--smoke] [--out PATH]
//! ```
//!
//! * `--smoke` — CI sizes (QAOA-8, 64 trajectories).
//! * `--out` — output path (default `results/BENCH_noise.json`).
//!
//! Gates: bitwise identity, always; and, in the full suite on a host with
//! a hardware thread per worker, 8 workers at least [`SPEEDUP_BAR`] faster
//! than one (fewer threads than workers cannot show it, so there the
//! speedup is recorded ungated).

use qfw_bench::report::{median, Run};
use qfw_noise::{Calibration, NoiseModel};
use qfw_obs::Obs;
use qfw_sim_sv::run_trajectories;
use qfw_workloads::{qaoa_ansatz, Qubo};
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 2025;
/// Required widest-worker-count speedup over serial in the full suite.
const SPEEDUP_BAR: f64 = 3.0;

/// One worker-count measurement.
#[derive(Clone, Copy, Debug, Serialize)]
struct WorkerPoint {
    /// Trajectory worker threads.
    workers: usize,
    /// Median-of-rounds wall-clock seconds.
    secs: f64,
}

/// The full report written to `results/BENCH_noise.json`.
#[derive(Debug, Serialize)]
struct NoiseReport {
    /// Seed every stochastic component derives from.
    seed: u64,
    /// Register size.
    qubits: usize,
    /// QAOA depth `p`.
    layers: usize,
    /// Trajectory budget per execution.
    trajectories: usize,
    /// Shots per execution.
    shots: usize,
    /// Canonical wire form of the calibration-derived noise model.
    noise_model: String,
    /// Per-worker-count timings, ascending worker count.
    points: Vec<WorkerPoint>,
    /// Serial over widest-worker wall clock.
    speedup: f64,
    /// Whether the speedup bar applied (full suite, a hardware thread per
    /// worker).
    speedup_gated: bool,
    /// Whether every worker count produced bitwise-identical counts.
    bitwise_identical: bool,
}

fn main() {
    let mut run = Run::from_args("bench_noise", "results/BENCH_noise.json");
    let smoke = run.smoke;

    let (n, layers, trajectories, shots) = if smoke {
        (8usize, 2usize, 64usize, 512usize)
    } else {
        (14, 2, 256, 4096)
    };
    let worker_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8] };

    // The workload: a dense QAOA ansatz under a heterogeneous
    // calibration-derived model — depolarizing + thermal relaxation per
    // gate class per qubit, plus per-qubit readout confusion.
    let qubo = Qubo::random(n, 0.5, SEED);
    let template = qaoa_ansatz(&qubo, layers);
    let theta: Vec<f64> = (0..template.num_params())
        .map(|k| 0.2 + 0.1 * k as f64)
        .collect();
    let circuit = template.bind(&theta);
    let cal = Calibration::synthetic(n, SEED);
    let model = NoiseModel::from_calibration(&cal);
    let obs = Obs::disabled();

    let rounds = if smoke { 3 } else { 5 };
    eprintln!(
        "[bench_noise] qaoa{n} p={layers}, {trajectories} trajectories, \
         {shots} shots, workers {worker_counts:?}, median of {rounds}"
    );

    // Warmup burns the startup frequency boost off the first timed round.
    let baseline_counts =
        run_trajectories(&circuit, shots, SEED, &model, trajectories, 1, &obs);

    let mut points = Vec::new();
    let mut bitwise_identical = true;
    for &workers in worker_counts {
        let mut times = Vec::new();
        for _ in 0..rounds {
            let t0 = Instant::now();
            let counts =
                run_trajectories(&circuit, shots, SEED, &model, trajectories, workers, &obs);
            times.push(t0.elapsed().as_secs_f64());
            if counts != baseline_counts {
                bitwise_identical = false;
            }
        }
        let secs = median(&mut times);
        eprintln!("[bench_noise]   {workers} worker(s): {secs:.4}s");
        points.push(WorkerPoint { workers, secs });
    }

    let serial_secs = points.first().expect("at least one point").secs;
    let WorkerPoint { workers: widest, secs: widest_secs } =
        *points.last().expect("at least one point");
    let speedup = serial_secs / widest_secs;
    eprintln!(
        "[bench_noise] serial {serial_secs:.4}s -> {widest} workers {widest_secs:.4}s = \
         {speedup:.2}x (bitwise_identical={bitwise_identical})"
    );

    run.gate(bitwise_identical, "counts diverged across worker counts".to_string());
    // The bar needs a hardware thread per worker: CI containers may be
    // single-core, and a smaller host cannot show 8-way parallelism.
    let speedup_gated = !smoke && run.host.nproc >= widest;
    if speedup_gated {
        run.gate(
            speedup >= SPEEDUP_BAR,
            format!("speedup {speedup:.2}x under the {SPEEDUP_BAR:.2}x bar"),
        );
    }
    run.finish(&NoiseReport {
        seed: SEED,
        qubits: n,
        layers,
        trajectories,
        shots,
        noise_model: model.to_text(),
        points,
        speedup,
        speedup_gated,
        bitwise_identical,
    })
}
