//! `bench_plan` — cost-model planner agreement and hybrid-partition gains.
//!
//! Two experiments back the planner's two claims:
//!
//! 1. **Agreement** — for a fixture sweep spanning the routing families
//!    (Clifford → stabilizer, nearest-neighbor weak entanglers → MPS,
//!    dense entanglers → state vector), execute the planner's top-ranked
//!    candidates and check that its pick measures within [`WITHIN`] of the
//!    fastest candidate. The run fails under [`MIN_AGREEMENT`].
//! 2. **Partition** — a deep-Clifford-prefix circuit executed monolithic
//!    (unfused state vector) versus partitioned at the planner's seam
//!    (stabilizer prefix + dense suffix). Counts must be bitwise
//!    identical and the partitioned run at least [`MIN_PART_SPEEDUP`]
//!    faster.
//!
//! ```text
//! bench_plan [--smoke] [--out PATH]
//! ```
//!
//! * `--smoke` — CI sizes (10–20 qubits).
//! * `--out` — output path (default `results/BENCH_plan.json`).

use qfw::planner::Planner;
use qfw::{BackendSpec, QfwConfig, QfwSession, SelectorContext, Target};
use qfw_bench::report::{median, Run};
use qfw_circuit::Circuit;
use qfw_hpc::ClusterSpec;
use qfw_workloads::{ham, tfim};
use serde::Serialize;

const SEED_NAME: &str = "bench_plan";
/// Candidates predicted more than this factor over the best are skipped
/// (measuring a predicted-hopeless engine only burns bench minutes); the
/// skip is reported per fixture, never silent.
const PRUNE_FACTOR: f64 = 50.0;

/// The pick must measure within this factor of the fastest candidate.
/// 1.6x separates a wrong *family* (state vector where MPS applies, dense
/// where the stabilizer wins: >=4x off on this sweep) from sibling engines
/// of the same family, which differ only by a constant-factor overhead.
const WITHIN: f64 = 1.6;
/// Required fraction of fixtures where the pick agreed.
const MIN_AGREEMENT: f64 = 0.9;
/// Required partitioned-over-monolithic speedup.
const MIN_PART_SPEEDUP: f64 = 2.0;

/// One measured candidate engine for a fixture.
#[derive(Clone, Debug, Serialize)]
struct CandidatePoint {
    /// `backend/subbackend` (ranks folded in for MPI).
    engine: String,
    /// The planner's predicted runtime, seconds.
    predicted_secs: f64,
    /// Median measured engine+sampling seconds.
    measured_secs: f64,
}

/// One fixture's agreement verdict.
#[derive(Clone, Debug, Serialize)]
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
    /// Whether the pick landed within the [`WITHIN`] factor.
    agree: bool,
}

/// The partition A/B measurement.
#[derive(Clone, Debug, Serialize)]
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
#[derive(Debug, Serialize)]
struct PlanReport {
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
    let mut run = Run::from_args(SEED_NAME, "results/BENCH_plan.json");
    let smoke = run.smoke;

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
         within {WITHIN:.2}x",
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
        let agree = pick_ratio <= WITHIN
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
    eprintln!("[{SEED_NAME}] agreement {agreement:.2}");

    run.gate(
        agreement >= MIN_AGREEMENT,
        format!("agreement {agreement:.2} under the {MIN_AGREEMENT:.2} bar"),
    );
    run.gate(
        bitwise_identical,
        "partitioned counts diverged from monolithic".to_string(),
    );
    run.gate(
        speedup >= MIN_PART_SPEEDUP,
        format!("partition speedup {speedup:.2}x under the {MIN_PART_SPEEDUP:.2}x bar"),
    );
    run.finish(&PlanReport {
        shots,
        rounds,
        within: WITHIN,
        fixtures: reports,
        agreement,
        partition,
    })
}
