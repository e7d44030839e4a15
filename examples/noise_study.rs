//! NISQ noise study: GHZ-state fidelity versus gate-error rate through the
//! noise channels, and the same circuit on the (noisy) cloud provider —
//! the decoherence backdrop that motivates the paper's variational focus.
//!
//! ```text
//! cargo run --release --example noise_study
//! ```

use qfw::{QfwConfig, QfwSession};
use qfw_circuit::Counts;
use qfw_cloud::CloudConfig;
use qfw_hpc::ClusterSpec;
use qfw_noise::NoiseModel;
use qfw_workloads::ghz;

fn ghz_fidelity(counts: &Counts, n: usize) -> f64 {
    let shots: usize = counts.values().sum();
    let good: usize = [&"0".repeat(n), &"1".repeat(n)]
        .iter()
        .filter_map(|k| counts.get(k))
        .sum();
    good as f64 / shots as f64
}

fn main() {
    let session = QfwSession::launch(
        &ClusterSpec::test(3),
        QfwConfig {
            qfw_nodes: 2,
            cloud: Some(CloudConfig::instant()),
            ..QfwConfig::default()
        },
    )
    .expect("launch");

    let n = 8;
    let circuit = ghz(n);
    println!("GHZ-{n} survival probability vs two-qubit error rate:");
    println!("{:>10} {:>12}", "p2", "P(ideal outcome)");
    for p2 in [0.0, 0.002, 0.005, 0.01, 0.02, 0.05] {
        let backend = session
            .backend(&[
                ("backend", "nwqsim"),
                ("subbackend", "cpu"),
                ("noise_model", &NoiseModel::flat(0.0, p2, 0.002).to_text()),
            ])
            .expect("backend");
        let result = backend.execute_sync(&circuit, 4000).expect("run");
        println!("{:>10.3} {:>12.4}", p2, ghz_fidelity(&result.counts, n));
    }

    // The cloud provider folds the same channels into its execution model.
    let cloud_backend = session
        .backend(&[("backend", "ionq"), ("subbackend", "simulator")])
        .expect("cloud backend");
    let result = cloud_backend.execute_sync(&circuit, 4000).expect("cloud run");
    println!(
        "\nionq/simulator (provider noise model): P(ideal) = {:.4}",
        ghz_fidelity(&result.counts, n)
    );
    println!("noise study OK");
}
