//! One entry point per table/figure of the paper's evaluation.
//!
//! Every function returns the rendered report plus (where applicable) the
//! raw cells for CSV export. EXPERIMENTS.md records how each reproduced
//! series compares with the paper's.

use crate::config::{fig3_backends, render_table2, Suite};
use crate::runner::{harness_session, run_cell, render_series, Cell};
use qfw::{BackendRegistry, BackendSpec, QfwSession};
use qfw_circuit::Circuit;
use qfw_cloud::CloudConfig;
use qfw_dqaoa::{
    solve_dqaoa, solve_qaoa, DecompPolicy, DqaoaConfig, QaoaConfig,
};
use qfw_dqaoa::qaoa::solution_fidelity;
use qfw_dqaoa::trace::{duration_cv, max_concurrency, render_timeline};
use qfw_hpc::{Communicator, CoreId, InterconnectModel, NodeSpec, RunStats, Stopwatch};
use qfw_optim::{anneal, AnnealConfig};
use qfw_sim_mps::{MpsConfig, MpsSimulator};
use qfw_workloads::{ghz, ham, hhl_benchmark, tfim, Qubo};
use std::fmt::Write as _;
use std::time::Duration;

/// Table 1: the live capability matrix.
pub fn table1() -> String {
    format!(
        "== Table 1: backends used with QFw ==\n{}",
        BackendRegistry::render_capability_table()
    )
}

/// Table 2: the benchmark suite.
pub fn table2(suite: Suite) -> String {
    format!("== Table 2 ==\n{}", render_table2(suite))
}

/// Per-backend applicability rules for non-variational kernels: returns
/// `Some(reason)` when the cell is statically skipped (the paper's missing
/// points for configurations a backend cannot attempt).
fn skip_reason(backend: (&str, &str), circuit: &Circuit) -> Option<&'static str> {
    let n = circuit.num_qubits();
    match backend.0 {
        // Full-state contraction is width-limited (qtree memory wall).
        "qtensor" if n > 22 => Some("width limit"),
        // Dense 2^n on one node: 30 qubits = 16 GiB, the local ceiling.
        "nwqsim" | "aer" if backend.1 != "matrix_product_state" && n > 26 => Some("memory"),
        // MPS engines on HHL blow the bond dimension up through the QPE
        // blocks; attempts beyond 11 total qubits only burn the cutoff.
        "tnqvm" | "aer" if backend.1.contains("mps") || backend.1 == "matrix_product_state" => {
            if circuit.name.starts_with("hhl") && n > 9 {
                Some("bond blowup")
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Shared driver for Fig. 3a/3b/3c: runtime-vs-size series across the five
/// local backends under the weak-scaling resource ladder.
fn nonvariational_series(
    session: &QfwSession,
    suite: Suite,
    workload: &str,
    sizes: &[usize],
    build: impl Fn(usize) -> Circuit,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &(name, sub) in fig3_backends().iter() {
        for &n in sizes {
            let circuit = build(n);
            let resources = suite.resources_for(n);
            let ranks = resources.0 * resources.1;
            if let Some(reason) = skip_reason((name, sub), &circuit) {
                cells.push(Cell {
                    workload: workload.into(),
                    backend: format!("{name}/{sub}"),
                    size: n,
                    resources,
                    stats: None,
                    note: reason.into(),
                });
                continue;
            }
            // The weak-scaling ladder engages rank-parallel modes where the
            // engine has one (NWQ-Sim native MPI, Aer chunking).
            let spec = match (name, sub) {
                ("nwqsim", _) if ranks > 1 => BackendSpec::of("nwqsim", "mpi").with_ranks(ranks),
                ("aer", "statevector") if ranks > 1 => {
                    BackendSpec::of("aer", "statevector").with_ranks(ranks)
                }
                _ => BackendSpec::of(name, sub),
            };
            let backend = session.backend_with_spec(spec).expect("backend");
            eprintln!("  [{workload}] {name}/{sub} n={n} ranks={ranks}");
            cells.push(run_cell(
                &backend,
                workload,
                &circuit,
                n,
                resources,
                suite.shots(),
                suite.repetitions(),
                suite.cutoff_secs(),
            ));
        }
    }
    cells
}

/// Fig. 3a: GHZ runtime scaling.
pub fn fig3a(suite: Suite) -> (String, Vec<Cell>) {
    let session = harness_session(None);
    let cells = nonvariational_series(&session, suite, "ghz", &suite.ghz_ham_sizes(), ghz);
    (
        render_series("Fig 3a: GHZ runtime scaling", &cells),
        cells,
    )
}

/// Fig. 3b: SupermarQ Hamiltonian-simulation runtime scaling.
pub fn fig3b(suite: Suite) -> (String, Vec<Cell>) {
    let session = harness_session(None);
    let cells = nonvariational_series(&session, suite, "ham", &suite.ghz_ham_sizes(), ham);
    (
        render_series("Fig 3b: Hamiltonian simulation runtime scaling", &cells),
        cells,
    )
}

/// Fig. 3c: TFIM runtime scaling, including the MPS-only tail sizes.
pub fn fig3c(suite: Suite) -> (String, Vec<Cell>) {
    let session = harness_session(None);
    let mut cells = nonvariational_series(&session, suite, "tfim", &suite.tfim_sizes(), tfim);
    // MPS engines keep going where dense engines stop (Fig. 3c's tail).
    for &(name, sub) in &[("aer", "matrix_product_state"), ("tnqvm", "exatn-mps")] {
        for &n in &suite.tfim_mps_tail() {
            let backend = session
                .backend_with_spec(BackendSpec::of(name, sub))
                .unwrap();
            eprintln!("  [tfim-tail] {name}/{sub} n={n}");
            cells.push(run_cell(
                &backend,
                "tfim",
                &tfim(n),
                n,
                (1, 1),
                suite.shots(),
                suite.repetitions(),
                suite.cutoff_secs(),
            ));
        }
    }
    (
        render_series("Fig 3c: TFIM runtime scaling", &cells),
        cells,
    )
}

/// Fig. 3c inset: approximate strong scaling on a fixed TFIM instance —
/// state-vector engines improve with ranks, MPS does not.
pub fn fig3c_strong(suite: Suite) -> (String, Vec<Cell>) {
    let session = harness_session(None);
    let n = suite.strong_scaling_qubits();
    let circuit = tfim(n);
    let mut cells = Vec::new();
    for ranks in suite.strong_scaling_ranks() {
        for (name, sub) in [("nwqsim", "mpi"), ("aer", "statevector")] {
            let spec = BackendSpec::of(name, sub).with_ranks(ranks);
            let backend = session.backend_with_spec(spec).unwrap();
            eprintln!("  [tfim-{n} strong] {name}/{sub} ranks={ranks}");
            cells.push(run_cell(
                &backend,
                &format!("tfim{n}-strong"),
                &circuit,
                ranks, // x-axis is the process count here
                (1, ranks),
                suite.shots(),
                suite.repetitions(),
                suite.cutoff_secs(),
            ));
        }
        // MPS runs once per rank count to show the flat (non-scaling) line.
        let backend = session
            .backend_with_spec(
                BackendSpec::of("aer", "matrix_product_state").with_ranks(ranks),
            )
            .unwrap();
        cells.push(run_cell(
            &backend,
            &format!("tfim{n}-strong"),
            &circuit,
            ranks,
            (1, ranks),
            suite.shots(),
            suite.repetitions(),
            suite.cutoff_secs(),
        ));
    }
    (
        render_series(
            &format!("Fig 3c (inset): TFIM-{n} strong scaling over ranks"),
            &cells,
        ),
        cells,
    )
}

/// Fig. 3d: HHL runtime scaling.
pub fn fig3d(suite: Suite) -> (String, Vec<Cell>) {
    let session = harness_session(None);
    let cells = nonvariational_series(&session, suite, "hhl", &suite.hhl_sizes(), |n| {
        hhl_benchmark(n).0
    });
    (
        render_series("Fig 3d: HHL runtime scaling", &cells),
        cells,
    )
}

/// QAOA backends for Fig. 3e/3f.
fn qaoa_backends(ranks: usize) -> Vec<BackendSpec> {
    vec![
        BackendSpec::of("nwqsim", "cpu"),
        BackendSpec::of("nwqsim", "mpi").with_ranks(ranks.max(2)),
        BackendSpec::of("aer", "statevector"),
        BackendSpec::of("aer", "matrix_product_state"),
    ]
}

/// Fig. 3e: QAOA runtime vs QUBO size (with walltime-cutoff X marks).
pub fn fig3e(suite: Suite) -> (String, Vec<Cell>) {
    let session = harness_session(None);
    let mut cells = Vec::new();
    for n in suite.qaoa_sizes() {
        let qubo = Qubo::random(n, 0.5, 1000 + n as u64);
        let (nodes, ppn) = suite.resources_for(n);
        for spec in qaoa_backends(nodes * ppn) {
            let label = format!("{}/{}", spec.backend, spec.subbackend);
            let backend = session
                .backend_with_spec(spec)
                .unwrap()
                .with_timeout(Duration::from_secs_f64(suite.cutoff_secs()));
            eprintln!("  [qaoa] {label} n={n}");
            let config = QaoaConfig {
                layers: 1,
                shots: suite.shots(),
                max_evals: 25,
                seed: 42,
                wall_limit_secs: suite.cutoff_secs(),
            };
            let cell = match solve_qaoa(&backend, &qubo, config) {
                Ok(out) if out.wall_secs <= suite.cutoff_secs() => Cell {
                    workload: "qaoa".into(),
                    backend: label,
                    size: n,
                    resources: (nodes, ppn),
                    stats: Some(qfw_hpc::RunStats::from_secs(&[out.wall_secs])),
                    note: String::new(),
                },
                Ok(_) | Err(qfw::QfwError::WalltimeExceeded { .. }) => Cell {
                    workload: "qaoa".into(),
                    backend: label,
                    size: n,
                    resources: (nodes, ppn),
                    stats: None,
                    note: "walltime".into(),
                },
                Err(e) => Cell {
                    workload: "qaoa".into(),
                    backend: label,
                    size: n,
                    resources: (nodes, ppn),
                    stats: None,
                    note: e.to_string().chars().take(40).collect(),
                },
            };
            cells.push(cell);
        }
    }
    (
        render_series("Fig 3e: QAOA runtime vs QUBO size", &cells),
        cells,
    )
}

/// Fig. 3f: QAOA solution fidelity against the annealing reference.
pub fn fig3f(suite: Suite) -> String {
    let session = harness_session(None);
    let backend = session
        .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
        .unwrap();
    let mut out = String::from("== Fig 3f: QAOA solution fidelity (vs annealing reference) ==\n");
    writeln!(out, "  {:>6} {:>12} {:>12} {:>9}", "size", "qaoa E", "reference E", "fidelity")
        .unwrap();
    for n in suite.qaoa_sizes() {
        let qubo = Qubo::random(n, 0.5, 1000 + n as u64);
        let reference = if n <= 20 {
            qubo.brute_force_min().1
        } else {
            anneal(n, |x| qubo.energy(x), AnnealConfig::default()).energy
        };
        let config = QaoaConfig {
            layers: 2,
            shots: suite.shots(),
            max_evals: 60,
            seed: 7,
            wall_limit_secs: f64::INFINITY,
        };
        let result = solve_qaoa(&backend, &qubo, config).expect("qaoa");
        let fid = solution_fidelity(result.best_energy, reference);
        eprintln!("  [fidelity] n={n}: {fid:.4}");
        writeln!(
            out,
            "  {:>6} {:>12.4} {:>12.4} {:>8.1}%",
            n,
            result.best_energy,
            reference,
            fid * 100.0
        )
        .unwrap();
    }
    out
}

/// A scaled-down cloud model for the quick suite (same jitter/queueing
/// *shape* as the IonQ-like defaults, faster constants).
fn cloud_config(suite: Suite) -> CloudConfig {
    match suite {
        Suite::Paper => CloudConfig::ionq_like(),
        Suite::Quick => CloudConfig {
            net_latency: Duration::from_millis(6),
            net_jitter: Duration::from_millis(5),
            queue_delay: Duration::from_millis(20),
            queue_jitter: Duration::from_millis(40),
            gate_time: Duration::from_micros(5),
            job_overhead: Duration::from_millis(8),
            gate_error: 0.001,
            readout_flip: 0.005,
            seed: 0xC10D,
            // Flat-constant noise keeps the quick suite's counts cheap to
            // reproduce; only the paper suite pays for calibrated Kraus
            // channels.
            calibration: None,
        },
    }
}

fn dqaoa_config(suite: Suite, subqsize: usize, nsubq: usize) -> DqaoaConfig {
    let _ = suite;
    DqaoaConfig {
        subqsize,
        nsubq,
        policy: DecompPolicy::Random,
        qaoa: QaoaConfig {
            layers: 1,
            shots: 256,
            max_evals: 12,
            seed: 0xD0,
            wall_limit_secs: f64::INFINITY,
        },
        max_iterations: 4,
        patience: 2,
        local_refine: true,
        seed: 0xD0A0A,
    }
}

/// Fig. 4: DQAOA total execution time across (qubo, subqsize, nsubq)
/// configurations on the local NWQ-Sim analog and the IonQ-analog cloud.
pub fn fig4(suite: Suite) -> (String, Vec<Cell>) {
    let session = harness_session(Some(cloud_config(suite)));
    let mut cells = Vec::new();
    for (qubo_size, subqsize, nsubq) in suite.dqaoa_configs() {
        let qubo = Qubo::metamaterial(qubo_size, 3, 77);
        for (name, sub) in [("nwqsim", "cpu"), ("ionq", "simulator")] {
            let backend = session
                .backend_with_spec(BackendSpec::of(name, sub))
                .unwrap();
            eprintln!("  [dqaoa] {name} qubo={qubo_size} ({subqsize},{nsubq})");
            let out = solve_dqaoa(&backend, &qubo, dqaoa_config(suite, subqsize, nsubq))
                .expect("dqaoa run");
            cells.push(Cell {
                workload: format!("dqaoa{qubo_size}({subqsize},{nsubq})"),
                backend: format!("{name}/{sub}"),
                size: qubo_size * 1000 + subqsize * 10 + nsubq, // stable sort key
                resources: (1, nsubq),
                stats: Some(qfw_hpc::RunStats::from_secs(&[out.wall_secs])),
                note: format!("E={:.3}", out.best_energy),
            });
        }
    }
    // Custom rendering: grouped by configuration.
    let mut text = String::from("== Fig 4: DQAOA total execution time ==\n");
    writeln!(
        text,
        "  {:<22} {:>16} {:>16}",
        "config", "nwqsim (s)", "ionq cloud (s)"
    )
    .unwrap();
    let mut by_config: std::collections::BTreeMap<&str, Vec<&Cell>> = Default::default();
    for c in &cells {
        by_config.entry(&c.workload).or_default().push(c);
    }
    for (config, group) in by_config {
        let get = |b: &str| {
            group
                .iter()
                .find(|c| c.backend.starts_with(b))
                .and_then(|c| c.stats.as_ref())
                .map(|s| format!("{:.3}", s.mean_secs))
                .unwrap_or_else(|| "X".into())
        };
        writeln!(
            text,
            "  {:<22} {:>16} {:>16}",
            config,
            get("nwqsim"),
            get("ionq")
        )
        .unwrap();
    }
    (text, cells)
}

/// Fig. 5: zoomed iteration-level timeline of DQAOA-40 (subqsize=12,
/// nsubq=4) on local vs cloud backends.
pub fn fig5(suite: Suite) -> String {
    let session = harness_session(Some(cloud_config(suite)));
    let qubo = Qubo::metamaterial(40, 3, 77);
    let mut out = String::from("== Fig 5: DQAOA-40 (12,4) iteration timeline ==\n");
    for (name, sub) in [("nwqsim", "cpu"), ("ionq", "simulator")] {
        let backend = session
            .backend_with_spec(BackendSpec::of(name, sub))
            .unwrap();
        eprintln!("  [fig5] {name}");
        let mut config = dqaoa_config(suite, 12, 4);
        config.max_iterations = 2; // the "zoomed portion"
        let result = solve_dqaoa(&backend, &qubo, config).expect("dqaoa");
        writeln!(out, "[{name}/{sub}]").unwrap();
        out.push_str(&render_timeline(&result.trace, 60));
        writeln!(
            out,
            "  max concurrency: {}   duration CV: {:.3}   total: {:.3}s",
            max_concurrency(&result.trace),
            duration_cv(&result.trace),
            result.wall_secs
        )
        .unwrap();
    }
    out.push_str(
        "\nReading: local rows overlap (concurrent sub-QUBOs) with uniform widths;\n\
         cloud rows serialize through the shared provider queue with jittery widths.\n",
    );
    out
}

/// Ablation (DESIGN.md §5): MPS runtime and truncation error against the
/// bond budget `chi_max` on TFIM-16 — the accuracy/runtime dial behind
/// Fig 3c's flat MPS line. The size axis is `chi_max`; each cell's note
/// carries the discarded weight and the largest bond the run reached.
pub fn ablation_mps(suite: Suite) -> (String, Vec<Cell>) {
    let n = 16;
    let circuit = tfim(n);
    let mut cells = Vec::new();
    for chi_max in [2, 8, 32, 64] {
        let engine = MpsSimulator::new(MpsConfig {
            chi_max,
            trunc_eps: 1e-12,
        });
        eprintln!("  [tfim-{n} mps] chi_max={chi_max}");
        let mut last = None;
        let stats = RunStats::measure(suite.repetitions(), || {
            last = Some(engine.run(&circuit, suite.shots(), 3));
        });
        let outcome = last.expect("at least one repetition");
        cells.push(Cell {
            workload: format!("tfim{n}"),
            backend: "mps".into(),
            size: chi_max,
            resources: (1, 1),
            stats: Some(stats),
            note: format!(
                "trunc_err={:.2e} max_bond={}",
                outcome.trunc_error, outcome.max_bond
            ),
        });
    }
    (
        render_series(
            &format!("Ablation: MPS bond budget on TFIM-{n} (size = chi_max)"),
            &cells,
        ),
        cells,
    )
}

/// Allreduce rounds timed per cell of [`ablation_comm`].
const ALLREDUCE_ROUNDS: usize = 1000;

/// Wall time of [`ALLREDUCE_ROUNDS`] back-to-back 8 KiB sum-allreduces
/// over `ranks` rank threads under `model`, timed on rank 0 from a
/// barrier (thread start-up is not in it). Ranks sit one per LLC domain,
/// up to 8 per node, the shape of the harness's weak-scaling ladder.
fn allreduce_secs(ranks: usize, model: InterconnectModel) -> f64 {
    let spec = NodeSpec::frontier();
    let placement = (0..ranks)
        .map(|r| CoreId {
            node: r / 8,
            core: (r % 8) * spec.cores_per_llc(),
        })
        .collect();
    let rank_threads: Vec<_> = Communicator::create(placement, spec, model)
        .into_iter()
        .map(|mut ctx| {
            std::thread::spawn(move || {
                ctx.barrier();
                let sw = Stopwatch::start();
                for _ in 0..ALLREDUCE_ROUNDS {
                    ctx.allreduce_sum_vec(vec![1.0; 1 << 10]);
                }
                sw.elapsed_secs()
            })
        })
        .collect();
    let secs: Vec<f64> = rank_threads
        .into_iter()
        .map(|t| t.join().expect("allreduce rank thread"))
        .collect();
    secs[0]
}

/// Ablation (DESIGN.md §5, §5c): allreduce time under the free vs the
/// Slingshot-like interconnect model at 2, 8 and 16 ranks — the modelled
/// fabric cost behind Fig 3e's MPI overhead. The size axis is the rank
/// count; 16 ranks span two nodes.
pub fn ablation_comm(suite: Suite) -> (String, Vec<Cell>) {
    let mut cells = Vec::new();
    for (label, model) in [
        ("free", InterconnectModel::free()),
        ("slingshot", InterconnectModel::slingshot()),
    ] {
        for ranks in [2, 8, 16] {
            eprintln!("  [allreduce] {label} ranks={ranks}");
            let secs: Vec<f64> = (0..suite.repetitions())
                .map(|_| allreduce_secs(ranks, model))
                .collect();
            cells.push(Cell {
                workload: "allreduce8k".into(),
                backend: label.into(),
                size: ranks,
                resources: (ranks.div_ceil(8), ranks.min(8)),
                stats: Some(RunStats::from_secs(&secs)),
                note: String::new(),
            });
        }
    }
    (
        render_series(
            &format!(
                "Ablation: {ALLREDUCE_ROUNDS} rounds of an 8 KiB allreduce (size = ranks)"
            ),
            &cells,
        ),
        cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::to_csv;

    /// A tiny suite so the harness logic itself is exercised in tests.
    fn tiny_sizes() -> Vec<usize> {
        vec![4, 6]
    }

    #[test]
    fn table1_lists_all_backends() {
        let t = table1();
        for b in ["nwqsim", "aer", "tnqvm", "qtensor", "ionq"] {
            assert!(t.contains(b), "missing {b}");
        }
    }

    #[test]
    fn table2_quick_and_paper() {
        assert!(table2(Suite::Quick).contains("QAOA"));
        assert!(table2(Suite::Paper).contains("40:(12,4)"));
    }

    #[test]
    fn nonvariational_driver_produces_full_grid() {
        let session = harness_session(None);
        let cells =
            nonvariational_series(&session, Suite::Quick, "ghz", &tiny_sizes(), ghz);
        // 5 backends x 2 sizes.
        assert_eq!(cells.len(), 10);
        assert!(cells.iter().all(|c| c.stats.is_some()), "{cells:?}");
    }

    #[test]
    fn skip_rules_apply() {
        let big_ghz = ghz(24);
        assert_eq!(
            skip_reason(("qtensor", "numpy"), &big_ghz),
            Some("width limit")
        );
        assert_eq!(skip_reason(("nwqsim", "cpu"), &ghz(8)), None);
        let (hhl13, _) = hhl_benchmark(13);
        assert_eq!(
            skip_reason(("aer", "matrix_product_state"), &hhl13),
            Some("bond blowup")
        );
        assert_eq!(skip_reason(("aer", "statevector"), &hhl13), None);
    }

    #[test]
    fn mps_ablation_sweeps_the_bond_budget() {
        let (text, cells) = ablation_mps(Suite::Quick);
        let sizes: Vec<usize> = cells.iter().map(|c| c.size).collect();
        assert_eq!(sizes, vec![2, 8, 32, 64]);
        assert!(cells.iter().all(|c| c.stats.is_some() && c.note.starts_with("trunc_err=")));
        assert!(text.contains("trunc_err="));
        assert!(to_csv(&cells).lines().nth(1).unwrap().contains(",trunc_err="));
    }

    #[test]
    fn allreduce_rounds_complete_across_two_nodes() {
        for model in [InterconnectModel::free(), InterconnectModel::slingshot()] {
            assert!(allreduce_secs(16, model) > 0.0);
        }
    }

    #[test]
    fn fig5_timeline_renders_both_backends() {
        let text = fig5(Suite::Quick);
        assert!(text.contains("[nwqsim/cpu]"));
        assert!(text.contains("[ionq/simulator]"));
        assert!(text.contains("max concurrency"));
    }
}
