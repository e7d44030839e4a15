//! Property tests for the compile-once/bind-many sweep engine: a plan
//! compiled from a random symbolic template and evaluated at a random
//! binding must be indistinguishable from binding first and running the
//! concrete circuit through a scratch engine — at the amplitude level and
//! (fixed seed) bit-identically at the counts level — across every fusion
//! level.

use proptest::prelude::*;
use qfw_sim_sv::{FusionLevel, SvConfig, SvSimulator, SweepPoint};
use qfw_testkit::{random_binding, random_template};

const TIERS: [FusionLevel; 2] = [FusionLevel::None, FusionLevel::Full];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Amplitude identity: `plan.statevector(theta)` equals running the
    /// scratch-fused concrete circuit `template.bind(theta)` through an
    /// engine at the same fusion tier.
    #[test]
    fn bind_then_run_matches_scratch_fused_concrete_circuit(
        seed in 0u64..1 << 48,
        n in 3usize..6,
        num_params in 1usize..4,
    ) {
        let template = random_template(n, 30, num_params, seed);
        let theta = random_binding(num_params, seed);
        let concrete = template.bind(&theta);
        for tier in TIERS {
            let config = SvConfig { fusion: tier, ..SvConfig::default() };
            let engine = SvSimulator::new(config);
            let reference = engine.statevector(&concrete);
            let plan = engine.compile_sweep(&template).expect("no measurements");
            let got = plan.statevector(&theta);
            prop_assert_eq!(got.amps().len(), reference.amps().len());
            for (i, (a, b)) in reference.amps().iter().zip(got.amps().iter()).enumerate() {
                prop_assert!(
                    a.approx_eq(*b, 1e-9),
                    "{:?} amp {}: {} vs {}", tier, i, a, b
                );
            }
        }
    }

    /// Counts identity: a plan evaluated at a sweep point yields bitwise
    /// the counts of the bound circuit run through a scratch engine with
    /// the same seed, across all tiers.
    #[test]
    fn plan_counts_are_bitwise_identical_to_bound_runs(
        seed in 0u64..1 << 48,
        n in 3usize..6,
        num_params in 1usize..4,
    ) {
        let template = random_template(n, 25, num_params, seed);
        let theta = random_binding(num_params, seed.wrapping_add(1));
        let concrete = template.bind(&theta);
        for tier in TIERS {
            let config = SvConfig { fusion: tier, ..SvConfig::default() };
            let engine = SvSimulator::new(config);
            let want = engine.run(&concrete, 300, seed).counts;
            let plan = engine.compile_sweep(&template).expect("no measurements");
            let got = plan
                .run(&SweepPoint { params: theta.clone(), shots: 300, seed })
                .counts;
            prop_assert_eq!(&got, &want, "{:?}: counts diverged", tier);
        }
    }

    /// Re-binding purity: evaluating a plan at point B between two
    /// evaluations at point A must not perturb A's amplitudes — the plan
    /// holds no binding-dependent state across runs.
    #[test]
    fn rebinding_leaves_no_residue(
        seed in 0u64..1 << 48,
        n in 3usize..6,
    ) {
        let template = random_template(n, 20, 2, seed);
        let a = random_binding(2, seed);
        let b = random_binding(2, seed.wrapping_add(7));
        let engine = SvSimulator::plain();
        let plan = engine.compile_sweep(&template).expect("no measurements");
        let first = plan.statevector(&a);
        let _ = plan.statevector(&b);
        let again = plan.statevector(&a);
        for (x, y) in first.amps().iter().zip(again.amps().iter()) {
            prop_assert_eq!(x, y, "rebinding changed a previous point's state");
        }
    }
}
