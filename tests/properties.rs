//! Property-based tests over the core invariants DESIGN.md calls out:
//! simulator agreement on random circuits, norm preservation, QUBO/Ising
//! consistency, decomposition soundness, and allocator safety.

use proptest::prelude::*;
use qfw_circuit::{Circuit, Gate};
use qfw_num::complex::C64;
use qfw_num::decomp::{eigh, svd};
use qfw_num::matrix::normalize;
use qfw_num::rng::Rng;
use qfw_num::Matrix;
use qfw_sim_mps::MpsState;
use qfw_sim_sv::{StateVector, SvSimulator};
use qfw_sim_tn::{TnConfig, TnSimulator};
use qfw_testkit::{random_circuit, random_clifford_circuit};
use qfw_workloads::Qubo;

/// Body of `engines_agree_on_random_circuits`, shared with the pinned
/// seed-28 regression below.
fn check_engines_agree(seed: u64) {
    let n = 5;
    let qc = random_circuit(n, 20, seed);
    let sv = SvSimulator::plain().statevector(&qc);

    let mut mps = MpsState::zero(n, 64, 0.0);
    mps.run_unitary(&qc);
    let mps_amps = mps.to_statevector();

    let tn = TnSimulator::new(TnConfig::default()).statevector(&qc);

    for i in 0..(1 << n) {
        assert!(
            sv.amps()[i].approx_eq(mps_amps[i], 1e-7),
            "mps amplitude {i} differs"
        );
        assert!(sv.amps()[i].approx_eq(tn[i], 1e-7), "tn amplitude {i} differs");
    }
}

/// Body of `norm_preserved`, shared with the pinned seed-28 regression.
fn check_norm_preserved(seed: u64) {
    let n = 6;
    let qc = random_circuit(n, 30, seed);
    let sv = SvSimulator::plain().statevector(&qc);
    assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);

    let mut mps = MpsState::zero(n, 64, 0.0);
    mps.run_unitary(&qc);
    assert!((mps.norm() - 1.0).abs() < 1e-7);
}

/// Body of `inverse_returns_to_start`, shared with the pinned seed-28
/// regression.
fn check_inverse_returns_to_start(seed: u64) {
    let n = 5;
    let qc = random_circuit(n, 15, seed);
    let mut sv = StateVector::zero(n);
    sv.run_unitary(&qc);
    sv.run_unitary(&qc.inverse());
    assert!(sv.amps()[0].approx_eq(C64::ONE, 1e-8));
}

/// Body of `wire_format_round_trips`, shared with the pinned seed-28
/// regression.
fn check_wire_format_round_trips(seed: u64) {
    let qc = random_circuit(4, 25, seed);
    let back = qfw_circuit::text::parse(&qfw_circuit::text::dump(&qc)).unwrap();
    assert_eq!(back, qc);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The three wave-function engines agree amplitude-for-amplitude on
    /// arbitrary circuits (MPS at full bond dimension, TN under both
    /// contraction orders collapse to the same state as dense SV).
    #[test]
    fn engines_agree_on_random_circuits(seed in 0u64..500) {
        check_engines_agree(seed);
    }

    /// Unitary evolution preserves the norm in every engine.
    #[test]
    fn norm_preserved(seed in 0u64..500) {
        check_norm_preserved(seed);
    }

    /// `circuit.inverse()` really is the inverse on the state level.
    #[test]
    fn inverse_returns_to_start(seed in 0u64..500) {
        check_inverse_returns_to_start(seed);
    }

    /// The qfwasm wire format round-trips arbitrary circuits exactly.
    #[test]
    fn wire_format_round_trips(seed in 0u64..500) {
        check_wire_format_round_trips(seed);
    }

    /// QUBO -> Ising -> energy agrees with direct QUBO evaluation on every
    /// assignment.
    #[test]
    fn qubo_ising_consistency(seed in 0u64..500, n in 2usize..8) {
        let q = Qubo::random(n, 0.7, seed);
        let (h, j_terms, offset) = q.to_ising();
        for bits in 0..(1usize << n) {
            let z: Vec<f64> = (0..n)
                .map(|i| if (bits >> i) & 1 == 1 { -1.0 } else { 1.0 })
                .collect();
            let mut e = offset;
            for (i, hi) in h.iter().enumerate() {
                e += hi * z[i];
            }
            for &(i, j, jij) in &j_terms {
                e += jij * z[i] * z[j];
            }
            prop_assert!((e - q.energy_bits(bits)).abs() < 1e-9);
        }
    }

    /// Sub-QUBO extraction is energy-consistent: for any assignment of the
    /// sub-variables, the sub-energy equals the global energy delta
    /// relative to the frozen baseline.
    #[test]
    fn sub_qubo_energy_delta(seed in 0u64..300) {
        let n = 9;
        let q = Qubo::random(n, 0.8, seed);
        let mut rng = Rng::seed_from(seed ^ 0xF00D);
        let incumbent: Vec<u8> = (0..n).map(|_| u8::from(rng.chance(0.5))).collect();
        let vars = rng.sample_indices(n, 4);
        let sub = q.sub_qubo(&vars, &incumbent);

        // Baseline: incumbent with the sub-variables zeroed.
        let mut base = incumbent.clone();
        for &v in &vars {
            base[v] = 0;
        }
        for bits in 0..16usize {
            let mut full = base.clone();
            for (slot, &v) in vars.iter().enumerate() {
                full[v] = ((bits >> slot) & 1) as u8;
            }
            let sub_bits: Vec<u8> = (0..4).map(|s| ((bits >> s) & 1) as u8).collect();
            let delta = q.energy(&full) - q.energy(&base);
            prop_assert!((delta - sub.energy(&sub_bits)).abs() < 1e-9);
        }
    }

    /// SVD reconstructs arbitrary complex matrices and its factors are
    /// isometries.
    #[test]
    fn svd_reconstruction(seed in 0u64..300, m in 2usize..7, n in 2usize..7) {
        let mut rng = Rng::seed_from(seed);
        let a = Matrix::from_fn(m, n, |_, _| {
            qfw_num::complex::c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        });
        let f = svd(&a);
        let r = f.s.len();
        let s_mat = Matrix::from_fn(r, r, |i, j| {
            if i == j { qfw_num::complex::c64(f.s[i], 0.0) } else { C64::ZERO }
        });
        let rec = f.u.matmul(&s_mat).matmul(&f.v.dagger());
        prop_assert!(rec.max_abs_diff(&a) < 1e-8);
        prop_assert!(f.u.dagger().matmul(&f.u).max_abs_diff(&Matrix::identity(r)) < 1e-8);
    }

    /// Hermitian eigendecomposition: real spectrum, unitary eigenbasis,
    /// exact reconstruction.
    #[test]
    fn eigh_reconstruction(seed in 0u64..300, n in 2usize..7) {
        let mut rng = Rng::seed_from(seed);
        let raw = Matrix::from_fn(n, n, |_, _| {
            qfw_num::complex::c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        });
        let herm = (&raw + &raw.dagger()).scale(qfw_num::complex::c64(0.5, 0.0));
        let e = eigh(&herm);
        prop_assert!(e.vectors.is_unitary(1e-8));
        let lam = Matrix::from_fn(n, n, |i, j| {
            if i == j { qfw_num::complex::c64(e.values[i], 0.0) } else { C64::ZERO }
        });
        let rec = e.vectors.matmul(&lam).matmul(&e.vectors.dagger());
        prop_assert!(rec.max_abs_diff(&herm) < 1e-8);
    }

    /// MPS truncation error plus retained fidelity stay consistent: with a
    /// chi cap the reported truncation error bounds the fidelity loss
    /// against the exact state (loose bound via triangle inequality).
    #[test]
    fn mps_truncation_error_bounds_fidelity_loss(seed in 0u64..100) {
        let n = 6;
        let qc = random_circuit(n, 18, seed);
        let exact = SvSimulator::plain().statevector(&qc);
        let mut mps = MpsState::zero(n, 4, 1e-12);
        mps.run_unitary(&qc);
        let approx = mps.to_statevector();
        let mut approx_norm = approx.clone();
        normalize(&mut approx_norm);
        let fid = qfw_num::matrix::inner(exact.amps(), &approx_norm).norm_sqr();
        // Each truncation discards weight eps_i; total infidelity is at
        // most ~2 * sum eps_i for small errors. Use a generous constant.
        let bound = (8.0 * mps.trunc_error).min(1.0);
        prop_assert!(
            1.0 - fid <= bound + 1e-6,
            "infidelity {} vs bound {bound}", 1.0 - fid
        );
    }

    /// The stabilizer engine agrees with dense simulation on random
    /// Clifford circuits (measured as full-distribution TV distance).
    #[test]
    fn stabilizer_matches_dense_on_clifford(seed in 0u64..200) {
        let n = 5;
        let qc = random_clifford_circuit(n, 20, seed);
        let shots = 8000;
        let stab = qfw_sim_stab::StabSimulator.run(&qc, shots, seed).unwrap();
        let sv = SvSimulator::plain().run(&qc, shots, seed ^ 1);
        // TV distance between two empirical samples of the same state.
        let keys: std::collections::BTreeSet<_> =
            stab.counts.keys().chain(sv.counts.keys()).collect();
        let tv: f64 = keys
            .into_iter()
            .map(|k| {
                let a = *stab.counts.get(k).unwrap_or(&0) as f64 / shots as f64;
                let b = *sv.counts.get(k).unwrap_or(&0) as f64 / shots as f64;
                (a - b).abs()
            })
            .sum::<f64>()
            / 2.0;
        // Two 8000-shot samples of a <=32-outcome distribution sit near
        // TV ~ 0.06; a tableau bug scores near 1.
        prop_assert!(tv < 0.15, "tv={tv}");
    }

    /// A controlled circuit acts as identity with the control off and as
    /// the original with the control on, for random payload circuits.
    #[test]
    fn controlled_circuits_behave(seed in 0u64..200) {
        let n = 4;
        // Payload on qubits 1..4, control on 0.
        let payload = {
            let small = random_circuit(3, 10, seed);
            let mut wide = Circuit::new(n);
            wide.compose_mapped(&small, &[1, 2, 3]);
            wide
        };
        let controlled = qfw_circuit::controlled::controlled_circuit(&payload, 0);

        // Control off: |0...0> unchanged.
        let off = SvSimulator::plain().statevector(&controlled);
        prop_assert!(off.amps()[0].approx_eq(C64::ONE, 1e-8));

        // Control on: matches the payload on the upper half.
        let mut with_x = Circuit::new(n);
        with_x.x(0);
        with_x.compose(&controlled);
        let on = SvSimulator::plain().statevector(&with_x);
        let want = SvSimulator::plain().statevector(&payload);
        for i in 0..(1 << n) {
            let expect = if i & 1 == 1 { want.amps()[i & !1] } else { C64::ZERO };
            prop_assert!(on.amps()[i].approx_eq(expect, 1e-8), "index {i}");
        }
    }

    /// The noise model conserves shots and is seed-deterministic.
    #[test]
    fn noise_model_shot_conservation(seed in 0u64..100, shots in 1usize..400) {
        let qc = random_circuit(4, 10, seed);
        let mut measured = qc.clone();
        measured.measure_all();
        let model = qfw_sim_sv::NoiseModel::flat(0.01, 0.03, 0.01);
        let a = qfw_sim_sv::noise::run_noisy(&measured, shots, seed, &model, 16);
        prop_assert_eq!(a.values().sum::<usize>(), shots);
        let b = qfw_sim_sv::noise::run_noisy(&measured, shots, seed, &model, 16);
        prop_assert_eq!(a, b);
    }

    /// Gate matrices are unitary for arbitrary angles.
    #[test]
    fn parametric_gates_stay_unitary(theta in -10.0f64..10.0) {
        for gate in [
            Gate::Rx(0, theta),
            Gate::Ry(0, theta),
            Gate::Rz(0, theta),
            Gate::Phase(0, theta),
            Gate::Cp(0, 1, theta),
            Gate::Crx(0, 1, theta),
            Gate::Rxx(0, 1, theta),
            Gate::Rzz(0, 1, theta),
            Gate::U(0, theta, theta / 2.0, -theta),
        ] {
            prop_assert!(gate.matrix().is_unitary(1e-9), "{gate} at {theta}");
        }
    }
}

/// Replays the shrunk counterexample recorded in
/// `tests/properties.proptest-regressions` (`shrinks to seed = 28`)
/// against every single-seed circuit property, so the historical failure
/// stays pinned on every run regardless of which cases the property
/// runner happens to draw. An exhaustive replay of each property over
/// its full strategy domain passes on the current tree, so this exists
/// purely to keep the old counterexample from regressing silently.
#[test]
fn proptest_regression_seed_28() {
    const SEED: u64 = 28;
    check_engines_agree(SEED);
    check_norm_preserved(SEED);
    check_inverse_returns_to_start(SEED);
    check_wire_format_round_trips(SEED);
}

/// The SLURM allocator never oversubscribes under concurrent leasing —
/// exercised outside proptest because it involves threads.
#[test]
fn allocator_never_oversubscribes_under_concurrency() {
    use qfw_hpc::slurm::{HetJob, HetJobSpec};
    use qfw_hpc::ClusterSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let cluster = ClusterSpec::test(3);
    let job = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let total = 2 * 56;
    let peak = Arc::new(AtomicUsize::new(0));
    let live = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..16)
        .map(|i| {
            let job = Arc::clone(&job);
            let peak = Arc::clone(&peak);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                let mut rng = Rng::seed_from(i);
                for _ in 0..50 {
                    let want = 1 + rng.index(20);
                    if let Ok(lease) = job.allocate_cores(1, want) {
                        let now = live.fetch_add(lease.len(), Ordering::SeqCst) + lease.len();
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(lease.len(), Ordering::SeqCst);
                        drop(lease);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        peak.load(Ordering::SeqCst) <= total,
        "oversubscribed: peak {} > {total}",
        peak.load(Ordering::SeqCst)
    );
    assert_eq!(job.free_cores(1), total);
}
