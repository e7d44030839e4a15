//! `bench_plan` — cost-model planner agreement and hybrid-partition gains.
//!
//! Two experiments back the planner's two claims:
//!
//! 1. **Agreement** — for a fixture sweep spanning the routing families
//!    (Clifford → stabilizer, nearest-neighbor weak entanglers → MPS,
//!    dense entanglers → state vector), execute the planner's top-ranked
//!    candidates and check that its pick measures within `--within` of the
//!    fastest candidate. The run fails under `--min-agreement` (default
//!    0.9).
//! 2. **Partition** — a deep-Clifford-prefix circuit executed monolithic
//!    (unfused state vector) versus partitioned at the planner's seam
//!    (stabilizer prefix + dense suffix). Counts must be bitwise
//!    identical and the partitioned run at least `--min-part-speedup`
//!    (default 2.0) faster.
//!
//! ```text
//! bench_plan [--smoke] [--out PATH] [--within X] [--min-agreement X]
//!            [--min-part-speedup X]
//! ```
//!
//! * `--smoke` — CI sizes (10–12 qubits, 1 timing round).
//! * `--out` — output path (default `results/BENCH_plan.json`).

use qfw::planner::Planner;
use qfw::{BackendSpec, QfwConfig, QfwSession, SelectorContext, Target};
use qfw_circuit::Circuit;
use qfw_hpc::ClusterSpec;
use qfw_workloads::{ham, tfim};
use serde::{Deserialize, Serialize};

const SEED_NAME: &str = "bench_plan";
/// Candidates predicted more than this factor over the best are skipped
/// (measuring a predicted-hopeless engine only burns bench minutes); the
/// skip is reported per fixture, never silent.
const PRUNE_FACTOR: f64 = 50.0;

/// Median of a sample (sorts in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// One measured candidate engine for a fixture.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CandidatePoint {
    /// `backend/subbackend` (ranks folded in for MPI).
    engine: String,
    /// The planner's predicted runtime, seconds.
    predicted_secs: f64,
    /// Median measured engine+sampling seconds.
    measured_secs: f64,
}

/// One fixture's agreement verdict.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct FixtureReport {
    /// Workload name.
    name: String,
    /// Register width.
    qubits: usize,
    /// The planner's top pick.
    picked: String,
    /// Measured candidates, ranked order.
    candidates: Vec<CandidatePoint>,
    /// Candidates skipped as predicted-hopeless (engine names).
    pruned: Vec<String>,
    /// Fastest measured engine.
    fastest: String,
    /// Pick's measured time over the fastest measured time.
    pick_ratio: f64,
    /// Whether the pick landed within the `--within` factor.
    agree: bool,
}

/// The partition A/B measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PartitionReport {
    /// Register width.
    qubits: usize,
    /// Clifford ladder layers in the prefix.
    layers: usize,
    /// Seam operation index.
    seam: usize,
    /// Monolithic unfused state-vector seconds (median).
    mono_secs: f64,
    /// Partitioned (stabilizer prefix + dense suffix) seconds (median).
    part_secs: f64,
    /// `mono_secs / part_secs`.
    speedup: f64,
    /// Whether partitioned counts equal monolithic counts bitwise.
    bitwise_identical: bool,
}

/// The full report written to `results/BENCH_plan.json`.
#[derive(Debug, Serialize, Deserialize)]
struct PlanReport {
    /// `full` or `smoke`.
    suite: String,
    /// Shots per execution.
    shots: usize,
    /// Timing rounds per measurement (median taken).
    rounds: usize,
    /// Agreement factor: pick must measure within this of the fastest.
    within: f64,
    /// Per-fixture verdicts.
    fixtures: Vec<FixtureReport>,
    /// Fraction of fixtures where the pick agreed.
    agreement: f64,
    /// Partition A/B.
    partition: PartitionReport,
}

/// High-cut-weight Clifford circuit: every CX crosses the middle cut, so
/// MPS bond dimension saturates and only the stabilizer route stays cheap
/// — unlike a GHZ chain, which MPS follows at bond dimension 2.
fn clifford_volume(n: usize, layers: usize) -> Circuit {
    let mut qc = Circuit::new(n).named(format!("cliffvol{n}"));
    for q in 0..n {
        qc.h(q);
    }
    for l in 0..layers {
        for q in 0..n / 2 {
            qc.cx(q, q + n / 2);
        }
        for q in 0..n {
            if (q + l) % 2 == 0 {
                qc.s(q);
            }
        }
    }
    qc.measure_all();
    qc
}

/// Nearest-neighbor weakly-entangling chain: the MPS-friendly family.
fn weak_chain(n: usize) -> Circuit {
    let mut qc = Circuit::new(n).named(format!("weak{n}"));
    for q in 0..n - 1 {
        qc.rzz(q, q + 1, 0.05);
    }
    for q in 0..n {
        qc.rx(q, 0.1);
    }
    qc.measure_all();
    qc
}

/// Deep Clifford prefix (single H, then CX/S/Z ladders — a rank-one
/// stabilizer X-part, so seam amplitudes are exactly `+-sqrt(0.5)`) with a
/// short dense suffix. Returns the circuit and the seam op index.
fn clifford_prefix_circuit(n: usize, layers: usize) -> (Circuit, usize) {
    let mut qc = Circuit::new(n).named(format!("cliffpfx{n}"));
    qc.h(0);
    for l in 0..layers {
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        for q in 0..n {
            if (q + l) % 2 == 0 {
                qc.s(q);
            } else {
                qc.z(q);
            }
        }
    }
    let seam = qc.ops().len();
    for q in 0..n {
        qc.rx(q, 0.3 + 0.05 * q as f64);
    }
    for q in 0..n - 1 {
        qc.cx(q, q + 1);
    }
    qc.measure_all();
    (qc, seam)
}

/// A ranked candidate as the wire spec a client would submit to get it.
fn spec_of(target: &Target) -> BackendSpec {
    let (backend, subbackend) = target.engine.names();
    let mut spec = BackendSpec::of(backend, subbackend).with_ranks(target.ranks);
    if let Some(chi) = target.chi_max {
        spec = spec.with_extra("chi_max", chi);
    }
    if let Some(seam) = target.partition_seam {
        spec = spec.with_extra("partition_seam", seam);
    }
    spec
}

/// Engine+sampling seconds for one spec, median of `rounds`.
fn measure(session: &QfwSession, spec: &BackendSpec, qc: &Circuit, shots: usize, rounds: usize) -> f64 {
    let backend = session
        .backend_with_spec(spec.clone())
        .expect("local backend resolves");
    let mut times: Vec<f64> = (0..rounds)
        .map(|_| {
            let r = backend
                .execute_sync(qc, shots)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", spec.backend, spec.subbackend));
            r.profile.exec_secs + r.profile.sample_secs
        })
        .collect();
    median(&mut times)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_after("--out").unwrap_or_else(|| "results/BENCH_plan.json".to_string());
    // 1.6x separates a wrong *family* (state vector where MPS applies,
    // dense where the stabilizer wins: >=4x off on this sweep) from
    // sibling engines of the same family, which differ only by a
    // constant-factor overhead.
    let within: f64 = arg_after("--within")
        .map(|s| s.parse().expect("--within takes a number"))
        .unwrap_or(1.6);
    let min_agreement: f64 = arg_after("--min-agreement")
        .map(|s| s.parse().expect("--min-agreement takes a number"))
        .unwrap_or(0.9);
    let min_part_speedup: f64 = arg_after("--min-part-speedup")
        .map(|s| s.parse().expect("--min-part-speedup takes a number"))
        .unwrap_or(2.0);

    // Fixture widths sit where the families separate decisively: below
    // ~14 qubits every engine finishes in microseconds and the ranking is
    // measurement noise.
    let (shots, rounds) = if smoke { (256usize, 5usize) } else { (1024, 5) };
    let fixtures: Vec<Circuit> = if smoke {
        vec![clifford_volume(20, 8), tfim(16), ham(10), weak_chain(16)]
    } else {
        vec![
            clifford_volume(22, 8),
            tfim(20),
            ham(12),
            weak_chain(18),
            ham(14),
        ]
    };
    eprintln!(
        "[{SEED_NAME}] {} fixtures, {shots} shots, median of {rounds}, \
         within {within:.2}x",
        fixtures.len()
    );

    let session =
        QfwSession::launch(&ClusterSpec::test(4), QfwConfig::default()).expect("session");
    // The plan is built against a local-only context: no cloud round-trips
    // in a timing harness, and every fixture is sized under the
    // distribution threshold so the candidates are all in-process.
    let ctx = SelectorContext {
        free_cores: 1,
        cloud_available: false,
    };
    let planner = Planner::default();

    let mut reports: Vec<FixtureReport> = Vec::new();
    for qc in &fixtures {
        let ranked = planner.plan(qc, shots, ctx);
        let best_cost = ranked
            .first()
            .expect("plan is never empty")
            .cost;
        let picked = ranked[0].target.engine.key.to_string();

        let mut candidates: Vec<CandidatePoint> = Vec::new();
        let mut pruned: Vec<String> = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        for planned in &ranked {
            let engine = planned.target.engine.key.to_string();
            if seen.contains(&engine) {
                continue; // one measurement per engine: tunable variants time alike
            }
            seen.push(engine.clone());
            // Never prune down to an uncontested pick: the first rival is
            // always measured so every agreement verdict has a comparison.
            if candidates.len() >= 2 && planned.cost > PRUNE_FACTOR * best_cost {
                pruned.push(engine);
                continue;
            }
            let spec = spec_of(&planned.target);
            let measured_secs = measure(&session, &spec, qc, shots, rounds);
            candidates.push(CandidatePoint {
                engine,
                predicted_secs: planned.cost,
                measured_secs,
            });
        }
        let fastest_point = candidates
            .iter()
            .min_by(|a, b| a.measured_secs.partial_cmp(&b.measured_secs).expect("finite"))
            .expect("at least the pick was measured")
            .clone();
        let pick_secs = candidates
            .iter()
            .find(|c| c.engine == picked)
            .expect("the pick is always measured")
            .measured_secs;
        // Guard the zero-resolution floor: sub-microsecond measurements
        // compare as equal. Absolute slack: the planner exists to avoid
        // order-of-magnitude mispicks, so a pick trailing the winner by
        // under 2ms is a constant-factor overhead, not a routing error.
        let floor = 1e-6;
        let pick_ratio = (pick_secs.max(floor)) / (fastest_point.measured_secs.max(floor));
        let agree = pick_ratio <= within
            || (pick_secs - fastest_point.measured_secs) < 2e-3;
        eprintln!(
            "[{SEED_NAME}]   {:<10} picked {:<28} ratio {pick_ratio:.3} \
             ({}, pruned: {:?})",
            qc.name,
            picked,
            if agree { "agree" } else { "MISS" },
            pruned
        );
        reports.push(FixtureReport {
            name: qc.name.clone(),
            qubits: qc.num_qubits(),
            picked,
            candidates,
            pruned,
            fastest: fastest_point.engine,
            pick_ratio,
            agree,
        });
    }
    let agreement =
        reports.iter().filter(|r| r.agree).count() as f64 / reports.len() as f64;

    // Partition A/B: same circuit, same seed path, monolithic unfused
    // versus stabilizer-prefix partitioned.
    let (n, layers) = if smoke { (12usize, 16usize) } else { (14, 32) };
    let (qc, seam) = clifford_prefix_circuit(n, layers);
    let mono_spec = BackendSpec::of("nwqsim", "cpu").with_extra("fusion", false);
    let part_spec = BackendSpec::of("nwqsim", "cpu")
        .with_extra("fusion", false)
        .with_extra("partition", "clifford_prefix")
        .with_extra("partition_seam", seam);
    let mono_counts = session
        .backend_with_spec(mono_spec.clone())
        .unwrap()
        .execute_sync(&qc, shots)
        .expect("monolithic run")
        .counts;
    let part_counts = session
        .backend_with_spec(part_spec.clone())
        .unwrap()
        .execute_sync(&qc, shots)
        .expect("partitioned run")
        .counts;
    let bitwise_identical = mono_counts == part_counts;
    let mono_secs = measure(&session, &mono_spec, &qc, shots, rounds.max(3));
    let part_secs = measure(&session, &part_spec, &qc, shots, rounds.max(3));
    let speedup = mono_secs / part_secs.max(1e-9);
    let partition = PartitionReport {
        qubits: n,
        layers,
        seam,
        mono_secs,
        part_secs,
        speedup,
        bitwise_identical,
    };
    eprintln!(
        "[{SEED_NAME}] partition {n}q x{layers}: mono {mono_secs:.5}s -> \
         part {part_secs:.5}s = {speedup:.2}x (bitwise={bitwise_identical})"
    );

    let report = PlanReport {
        suite: if smoke { "smoke" } else { "full" }.to_string(),
        shots,
        rounds,
        within,
        fixtures: reports,
        agreement,
        partition,
    };
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, serde_json::to_string(&report).expect("serializes"))
        .expect("write report");
    eprintln!("[{SEED_NAME}] agreement {agreement:.2}, wrote {out_path}");

    let mut failed = false;
    if agreement < min_agreement {
        eprintln!(
            "[{SEED_NAME}] FAIL: agreement {agreement:.2} under the \
             {min_agreement:.2} bar"
        );
        failed = true;
    }
    if !report.partition.bitwise_identical {
        eprintln!("[{SEED_NAME}] FAIL: partitioned counts diverged from monolithic");
        failed = true;
    }
    if report.partition.speedup < min_part_speedup {
        eprintln!(
            "[{SEED_NAME}] FAIL: partition speedup {:.2}x under the \
             {min_part_speedup:.2}x bar",
            report.partition.speedup
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
