//! Property tests for bind-many sweep execution: a sweep point *is* the
//! bound circuit run through the engine, so a handle built from a random
//! symbolic template and evaluated at a random binding must equal binding
//! first and running the concrete circuit — bit for bit in amplitudes,
//! counts and applied gates — across fusion levels, threading modes and
//! register widths below, at and above the tile, with and without
//! mid-circuit measurements.

use proptest::prelude::*;
use qfw_circuit::{Gate, ParamCircuit, ParamOp};
use qfw_obs::Obs;
use qfw_sim_sv::{FusionLevel, SvConfig, SvSimulator, SweepPoint, Threading};
use qfw_testkit::{random_binding, random_template};

const TIERS: [FusionLevel; 2] = [FusionLevel::None, FusionLevel::Full];

/// Every engine configuration a sweep can run under.
fn engines() -> impl Iterator<Item = SvSimulator> {
    [Threading::Serial, Threading::Rayon]
        .into_iter()
        .flat_map(|threading| TIERS.map(|fusion| SvSimulator::new(SvConfig { threading, fusion })))
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Identity by construction, 3..=13 qubits (the tile is 11 wide): a
    /// point's counts and `gates_applied` are the bound run's, and its
    /// state vector is the bound circuit's amplitude for amplitude.
    #[test]
    fn a_sweep_point_is_the_bound_run_at_every_width(
        seed in 0u64..1 << 48,
        n in 3usize..14,
        num_params in 1usize..4,
    ) {
        let template = random_template(n, 30, num_params, seed);
        let theta = random_binding(num_params, seed);
        let concrete = template.bind(&theta);
        for engine in engines() {
            let plan = engine.compile_sweep(&template).expect("never fails");
            let want = engine.run(&concrete, 300, seed);
            let got = plan.run(&SweepPoint { params: theta.clone(), shots: 300, seed });
            prop_assert_eq!(&got.counts, &want.counts, "{:?}", engine.config);
            prop_assert_eq!(got.gates_applied, want.gates_applied, "{:?}", engine.config);
            let reference = engine.statevector(&concrete);
            let state = plan.statevector(&theta);
            prop_assert_eq!(state.amps(), reference.amps(), "{:?}", engine.config);
        }
    }

    /// A skeleton with a mid-circuit measurement is served like any
    /// circuit: swept over four points it equals the four per-binding runs.
    #[test]
    fn mid_circuit_measurement_is_served_by_the_plan(
        seed in 0u64..1 << 48,
        n in 3usize..8,
    ) {
        let mut template = ParamCircuit::new(n);
        for op in random_template(n, 12, 2, seed).ops() {
            template.push(op.clone());
        }
        let measured = (seed % n as u64) as usize;
        template.push(ParamOp::Measure { qubit: measured, clbit: measured });
        template.fixed(Gate::H(measured)); // gated again: the measure is mid-circuit
        for op in random_template(n, 12, 2, seed.wrapping_add(1)).ops() {
            template.push(op.clone());
        }
        template.measure_all();
        let points: Vec<SweepPoint> = (0..4u64)
            .map(|i| SweepPoint {
                params: random_binding(2, seed.wrapping_add(i)),
                shots: 200,
                seed: seed.wrapping_add(i),
            })
            .collect();
        for engine in engines() {
            let plan = engine.compile_sweep(&template).expect("never fails");
            let swept = engine.run_plan_traced(&plan, &points, &Obs::disabled());
            for (point, got) in points.iter().zip(&swept) {
                let want = engine.run(&template.bind(&point.params), point.shots, point.seed);
                prop_assert_eq!(&got.counts, &want.counts, "{:?}", engine.config);
                prop_assert_eq!(got.gates_applied, want.gates_applied);
            }
        }
    }
}
