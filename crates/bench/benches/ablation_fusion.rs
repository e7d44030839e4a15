//! Ablation: gate fusion in the state-vector engine.
//! DESIGN.md calls this out — the layer plan (merged diagonal runs, 2x2
//! chains, 4x4 blocks, executed tile by tile) against the verbatim
//! per-gate path on rotation-heavy circuits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qfw_circuit::Circuit;
use qfw_sim_sv::{FusionLevel, SvConfig, SvSimulator, Threading};
use std::time::Duration;

/// A rotation-heavy circuit: 6 consecutive 1q gates per qubit per layer.
fn rotation_heavy(n: usize, layers: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    for l in 0..layers {
        for q in 0..n {
            qc.rx(q, 0.1 + l as f64 * 0.01)
                .rz(q, 0.2)
                .ry(q, 0.05)
                .t(q)
                .rz(q, -0.1)
                .h(q);
        }
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
    }
    qc
}

fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fusion");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    for &n in &[12usize, 16] {
        let circuit = rotation_heavy(n, 4);
        for (label, fusion) in [
            ("full", FusionLevel::Full),
            ("unfused", FusionLevel::None),
        ] {
            let engine = SvSimulator::new(SvConfig {
                threading: Threading::Serial,
                fusion,
            });
            group.bench_with_input(BenchmarkId::new(label, n), &circuit, |b, circuit| {
                b.iter(|| engine.run(circuit, 64, 3));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fusion);
criterion_main!(benches);
