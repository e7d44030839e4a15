//! Cross-backend differential harness: the same circuit families (GHZ,
//! TFIM, QAOA) run through [`qfw::QfwBackend::execute`] on every local
//! engine class — dense state vector, matrix product state, tensor
//! network, and (where the circuit is Clifford) stabilizer — and the
//! sampled distributions plus derived expectation values must agree
//! within sampling tolerance. Any engine-specific simulation bug shows up
//! here as one backend drifting from the rest.

use qfw::{BackendSpec, QfwConfig, QfwResult, QfwSession};
use qfw_hpc::ClusterSpec;
use qfw_workloads::qaoa::counts_energy;
use qfw_workloads::{ghz, qaoa_ansatz, tfim, Qubo};

const SHOTS: usize = 6000;
/// Two 6000-shot samples of a few-outcome distribution sit well under
/// TV = 0.15 from sampling noise; a wrong amplitude scores far higher.
const TV_TOL: f64 = 0.15;
/// Per-qubit ⟨Z⟩ sampling noise at 6000 shots is ~0.013; 0.1 leaves a
/// wide margin while still catching sign/placement errors (which cost
/// O(1)).
const EXPECTATION_TOL: f64 = 0.1;

fn session() -> QfwSession {
    QfwSession::launch(
        &ClusterSpec::test(4),
        QfwConfig {
            qfw_nodes: 3,
            ..QfwConfig::default()
        },
    )
    .expect("session")
}

/// The four local engine classes. The stabilizer entry only joins for
/// Clifford circuits.
fn sv_mps_tn_specs() -> Vec<BackendSpec> {
    vec![
        BackendSpec::of("nwqsim", "cpu"),            // dense state vector
        BackendSpec::of("aer", "matrix_product_state"), // MPS
        BackendSpec::of("tnqvm", "exatn-mps"),       // tensor network (MPS contraction)
        BackendSpec::of("qtensor", "numpy"),         // tensor network (path contraction)
    ]
}

/// Per-qubit ⟨Z_q⟩ estimated from a counts histogram (Qiskit bit order:
/// qubit n-1 leftmost).
fn z_expectations(result: &QfwResult, n: usize) -> Vec<f64> {
    let total: usize = result.counts.values().sum();
    let mut z = vec![0.0f64; n];
    for (bits, &count) in &result.counts {
        for (q, zq) in z.iter_mut().enumerate() {
            let bit = bits.as_bytes()[n - 1 - q];
            *zq += if bit == b'1' { -1.0 } else { 1.0 } * count as f64;
        }
    }
    z.iter_mut().for_each(|zq| *zq /= total as f64);
    z
}

/// Executes `circuit` with a fixed base seed on each spec, returning
/// (label, result) pairs.
fn run_all(
    session: &QfwSession,
    specs: &[BackendSpec],
    circuit: &qfw_circuit::Circuit,
) -> Vec<(String, QfwResult)> {
    specs
        .iter()
        .map(|spec| {
            let label = format!("{}/{}", spec.backend, spec.subbackend);
            let result = session
                .backend_with_spec(spec.clone())
                .unwrap()
                .with_base_seed(0xD1FF)
                .execute_sync(circuit, SHOTS)
                .unwrap_or_else(|e| panic!("{label} on {}: {e}", circuit.name));
            (label, result)
        })
        .collect()
}

/// Asserts pairwise TV distance and per-qubit ⟨Z⟩ agreement across all
/// results.
fn assert_agreement(results: &[(String, QfwResult)], n: usize, family: &str) {
    for i in 0..results.len() {
        for j in i + 1..results.len() {
            let (la, ra) = &results[i];
            let (lb, rb) = &results[j];
            let tv = ra.tv_distance(rb);
            assert!(tv < TV_TOL, "{family}: {la} vs {lb} tv={tv}");
            let za = z_expectations(ra, n);
            let zb = z_expectations(rb, n);
            for q in 0..n {
                let d = (za[q] - zb[q]).abs();
                assert!(
                    d < EXPECTATION_TOL,
                    "{family}: {la} vs {lb} ⟨Z_{q}⟩ differs by {d} ({} vs {})",
                    za[q],
                    zb[q]
                );
            }
        }
    }
}

/// GHZ is Clifford, so the stabilizer engine joins the panel: all four
/// engine classes must sample the same bimodal distribution.
#[test]
fn ghz_agrees_across_sv_mps_tn_stab() {
    let session = session();
    let circuit = ghz(8);
    let mut specs = sv_mps_tn_specs();
    specs.push(BackendSpec::of("aer", "stabilizer"));
    let results = run_all(&session, &specs, &circuit);
    assert_agreement(&results, 8, "ghz");
    // The distribution itself must be the GHZ signature: only the two
    // all-equal bitstrings appear.
    for (label, r) in &results {
        assert!(
            r.counts.keys().all(|k| k == "00000000" || k == "11111111"),
            "{label}: spurious outcomes {:?}",
            r.counts.keys().take(4).collect::<Vec<_>>()
        );
        assert_eq!(r.counts.values().sum::<usize>(), SHOTS, "{label}");
    }
}

/// TFIM quench (non-Clifford): dense, MPS, and tensor-network backends
/// agree on the sampled distribution and single-qubit magnetizations.
#[test]
fn tfim_agrees_across_sv_mps_tn() {
    let session = session();
    let circuit = tfim(8);
    let results = run_all(&session, &sv_mps_tn_specs(), &circuit);
    assert_agreement(&results, 8, "tfim");
}

/// A bound QAOA ansatz (rz/rzz/rx layers over an 8-variable QUBO): all
/// non-stabilizer backends agree on the distribution and on the mean
/// QUBO energy of their samples.
#[test]
fn qaoa_agrees_across_sv_mps_tn() {
    let session = session();
    let qubo = Qubo::random(8, 0.7, 11);
    let circuit = qaoa_ansatz(&qubo, 1).bind(&[0.4, 0.7]);
    let results = run_all(&session, &sv_mps_tn_specs(), &circuit);
    assert_agreement(&results, 8, "qaoa");
    let energies: Vec<f64> = results
        .iter()
        .map(|(_, r)| counts_energy(&qubo, &r.counts))
        .collect();
    for w in energies.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 0.5,
            "QAOA mean energies diverge: {energies:?}"
        );
    }
}

/// Local-vs-distributed bit identity: with a fixed base seed the
/// rank-distributed state-vector engine must return *exactly* the counts
/// of the single-process engine — same canonical split-sampling scheme,
/// same draws — at every power-of-two world size (the per-gate-swap
/// routing baseline is held to the same bar at engine level by
/// `qfw-sim-sv`'s `dist_props`). Statistical agreement is not enough here; any divergence
/// in gate routing, permutation flushing, or shot partitioning shows up
/// as a hard mismatch.
#[test]
fn distributed_sv_replays_local_counts_bitwise() {
    let session = session();
    for circuit in [tfim(6), {
        let qubo = Qubo::random(6, 0.7, 5);
        qaoa_ansatz(&qubo, 1).bind(&[0.4, 0.7])
    }] {
        let local = session
            .backend_with_spec(BackendSpec::of("nwqsim", "cpu"))
            .unwrap()
            .with_base_seed(0xB17)
            .execute_sync(&circuit, 3000)
            .expect("local run");
        for ranks in [1usize, 2, 4, 8] {
            let dist = session
                .backend_with_spec(BackendSpec::of("nwqsim", "mpi").with_ranks(ranks))
                .unwrap()
                .with_base_seed(0xB17)
                .execute_sync(&circuit, 3000)
                .unwrap_or_else(|e| panic!("mpi x{ranks}: {e}"));
            assert_eq!(
                local.counts, dist.counts,
                "{}: mpi x{ranks} diverged from cpu",
                circuit.name
            );
        }
    }
}

/// Seeded determinism: with a fixed base seed the same backend returns
/// byte-identical counts on a repeated execute, for every engine class.
#[test]
fn seeded_counts_are_reproducible_per_backend() {
    let session = session();
    let circuit = tfim(6);
    let mut specs = sv_mps_tn_specs();
    specs.push(BackendSpec::of("aer", "statevector"));
    for spec in specs {
        let label = format!("{}/{}", spec.backend, spec.subbackend);
        let a = session
            .backend_with_spec(spec.clone())
            .unwrap()
            .with_base_seed(77)
            .execute_sync(&circuit, 2000)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let b = session
            .backend_with_spec(spec)
            .unwrap()
            .with_base_seed(77)
            .execute_sync(&circuit, 2000)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(a.counts, b.counts, "{label}: seeded replay diverged");
    }
}

/// Compile-once/bind-many equivalence through the full frontend stack:
/// one `execute_sweep` over k bindings returns counts bitwise identical
/// to k independent `execute_param` submissions at the same seeds — on
/// the serial plan path (cpu) and on the distributed gather path (mpi),
/// which reaches the engine through the materialized per-point fallback.
#[test]
fn execute_sweep_is_bitwise_identical_to_independent_executes() {
    let session = session();
    let qubo = Qubo::random(6, 0.8, 23);
    let template = qaoa_ansatz(&qubo, 1);
    let bindings: Vec<Vec<f64>> = (0..6)
        .map(|i| vec![0.2 + 0.09 * i as f64, 0.85 - 0.07 * i as f64])
        .collect();
    let specs = [
        BackendSpec::of("nwqsim", "cpu"),
        BackendSpec::of("nwqsim", "mpi").with_ranks(4),
    ];
    for spec in specs {
        let label = format!("{}/{} x{}", spec.backend, spec.subbackend, spec.ranks);
        let sweep = session
            .backend_with_spec(spec.clone())
            .unwrap()
            .with_base_seed(0x5EED)
            .execute_sweep_sync(&template, &bindings, 400)
            .unwrap_or_else(|e| panic!("{label}: sweep failed: {e}"));
        assert_eq!(sweep.len(), bindings.len(), "{label}: result count");
        // A fresh frontend at the same base seed draws the identical seed
        // sequence when the points are submitted one by one.
        let solo = session
            .backend_with_spec(spec)
            .unwrap()
            .with_base_seed(0x5EED);
        for (i, binding) in bindings.iter().enumerate() {
            let single = solo
                .execute_param_sync(&template, binding, 400)
                .unwrap_or_else(|e| panic!("{label}: point {i} failed: {e}"));
            assert_eq!(
                sweep[i].counts, single.counts,
                "{label}: point {i} diverged from independent execution"
            );
        }
    }
}

/// Metamorphic compiler identity through the full frontend stack: for
/// every optimization level O0-O3 the compiled circuit must replay the
/// uncompiled circuit's fixed-seed counts *bit for bit* on every engine
/// class. Statistical agreement is not enough: the passes are exact
/// rewrites, so any divergence — a dropped gate, a wrong merge, an
/// angle-sign slip — shows up as a hard counts mismatch on at least one
/// workload family.
#[test]
fn compiled_circuits_replay_uncompiled_counts_bitwise() {
    use qfw_compile::{compile_circuit, OptLevel};
    let session = session();
    let obs = qfw_obs::Obs::disabled();
    let workloads = [ghz(8), tfim(6), {
        let qubo = Qubo::random(6, 0.7, 17);
        qaoa_ansatz(&qubo, 1).bind(&[0.4, 0.7])
    }];
    for circuit in workloads {
        for spec in sv_mps_tn_specs() {
            let label = format!("{}/{}", spec.backend, spec.subbackend);
            let baseline = session
                .backend_with_spec(spec.clone())
                .unwrap()
                .with_base_seed(0xC0DE)
                .execute_sync(&circuit, 2000)
                .unwrap_or_else(|e| panic!("{label} on {}: {e}", circuit.name));
            for opt in OptLevel::ALL {
                let (compiled, stats) = compile_circuit(&circuit, opt, &obs);
                assert!(
                    stats.gates_after <= stats.gates_before,
                    "{}: {opt} grew the circuit",
                    circuit.name
                );
                let got = session
                    .backend_with_spec(spec.clone())
                    .unwrap()
                    .with_base_seed(0xC0DE)
                    .execute_sync(&compiled, 2000)
                    .unwrap_or_else(|e| panic!("{label} on {} at {opt}: {e}", circuit.name));
                assert_eq!(
                    baseline.counts, got.counts,
                    "{}: {label} at {opt} diverged from uncompiled run",
                    circuit.name
                );
            }
        }
    }
}

/// O3's connectivity-aware layout rides the `initial_layout` extra into
/// the distributed engine as a seeded logical→physical permutation —
/// and because the permutation is flushed before sampling, counts stay
/// bitwise identical to the serial engine on the same compiled circuit.
#[test]
fn o3_layout_extra_replays_cpu_counts_bitwise() {
    use qfw_compile::{compile_dag, DagCircuit, OptLevel};
    let session = session();
    let circuit = tfim(6);
    let result = compile_dag(
        DagCircuit::from_circuit(&circuit),
        OptLevel::O3,
        &qfw_obs::Obs::disabled(),
    );
    let compiled = result.dag.to_circuit().expect("concrete circuit");
    let order = result.layout.expect("O3 always plans a layout");
    let csv = order
        .iter()
        .map(|q| q.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let local = session
        .backend_with_spec(BackendSpec::of("nwqsim", "cpu"))
        .unwrap()
        .with_base_seed(0x1A07)
        .execute_sync(&compiled, 2000)
        .expect("cpu run");
    let dist = session
        .backend_with_spec(
            BackendSpec::of("nwqsim", "mpi")
                .with_ranks(4)
                .with_extra("initial_layout", csv.clone()),
        )
        .unwrap()
        .with_base_seed(0x1A07)
        .execute_sync(&compiled, 2000)
        .expect("mpi run with layout");
    assert_eq!(
        local.counts, dist.counts,
        "seeded layout {csv} changed the sampled distribution"
    );
}

/// Parameter-shift gradients are exact: on a QAOA-8 ansatz every
/// component of `grad_expectation_z` matches a central finite difference
/// of `expectation_z` to far better than the O(eps^2) truncation error.
#[test]
fn parameter_shift_gradient_matches_finite_differences_on_qaoa8() {
    let qubo = Qubo::random(8, 1.0, 41);
    let template = qaoa_ansatz(&qubo, 2);
    let (_, terms) = qfw_workloads::qaoa::qubo_z_terms(&qubo);
    let plan = qfw_sim_sv::SvSimulator::plain()
        .compile_sweep(&template)
        .expect("ansatz has no mid-circuit measurements");
    let theta = [0.37, -0.52, 0.81, 0.14];
    let grad = plan.grad_expectation_z(&theta, &terms);
    assert_eq!(grad.len(), theta.len());
    let eps = 1e-5;
    let mut max_err = 0.0f64;
    for k in 0..theta.len() {
        let mut hi = theta.to_vec();
        let mut lo = theta.to_vec();
        hi[k] += eps;
        lo[k] -= eps;
        let fd = (plan.expectation_z(&hi, &terms) - plan.expectation_z(&lo, &terms))
            / (2.0 * eps);
        let err = (grad[k] - fd).abs();
        max_err = max_err.max(err);
        assert!(
            err < 1e-6,
            "theta[{k}]: parameter-shift {} vs finite-difference {fd} (err {err:.2e})",
            grad[k]
        );
    }
    // The analytic gradient must not be trivially zero.
    assert!(grad.iter().any(|g| g.abs() > 1e-3), "gradient vanished: {grad:?}");
    assert!(max_err < 1e-6, "max gradient error {max_err:.2e}");
}
