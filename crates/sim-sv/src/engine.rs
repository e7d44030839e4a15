//! The single-process engine façade: configuration, execution, outcomes.

use crate::fusion::{fuse, verbatim, FusionLevel};
use crate::layers::LayerPlan;
use crate::state::{canonical_split_bits, StateVector};
use qfw_circuit::{Circuit, Counts};
use qfw_num::rng::Rng;
use qfw_obs::Obs;
use std::collections::BTreeMap;
use std::time::Duration;

/// Intra-process threading mode (NWQ-Sim's CPU vs OpenMP sub-backends).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Threading {
    /// Everything on the calling thread.
    Serial,
    /// Tile groups that pay for the hand-off, sampling blocks and sweep
    /// points on the rayon shim's workers, whether the plan is fused or
    /// verbatim. Mid-circuit collapses stay on the calling thread.
    Rayon,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SvConfig {
    /// Threading mode.
    pub threading: Threading,
    /// Gate-fusion pre-pass tier.
    pub fusion: FusionLevel,
}

impl Default for SvConfig {
    fn default() -> Self {
        SvConfig {
            threading: Threading::Serial,
            fusion: FusionLevel::Full,
        }
    }
}

/// Result of one circuit execution. The engine tallies outcome words
/// ([`Counts`]); [`SvSimulator::run`] and [`SvSimulator::run_from`] hand
/// them out rendered as bit strings (Qiskit order: qubit n-1 leftmost).
#[derive(Clone, Debug)]
pub struct SvOutcome<C = BTreeMap<String, usize>> {
    /// Measured counts.
    pub counts: C,
    /// Wall time spent applying gates (excludes sampling).
    pub gate_time: Duration,
    /// Wall time spent sampling shots.
    pub sample_time: Duration,
    /// Number of gates actually applied (after fusion).
    pub gates_applied: usize,
}

impl SvOutcome<Counts> {
    /// This outcome with its counts rendered as bit strings.
    pub fn rendered(self) -> SvOutcome {
        SvOutcome {
            counts: self.counts.bitstrings(),
            gate_time: self.gate_time,
            sample_time: self.sample_time,
            gates_applied: self.gates_applied,
        }
    }
}

/// The state-vector simulator engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct SvSimulator {
    /// Engine configuration.
    pub config: SvConfig,
}

impl SvSimulator {
    /// Creates an engine with the given configuration.
    pub fn new(config: SvConfig) -> Self {
        SvSimulator { config }
    }

    /// Serial engine without fusion: the verbatim plan, one layer per
    /// gate — the reference the fused path is compared against.
    pub fn plain() -> Self {
        SvSimulator {
            config: SvConfig {
                threading: Threading::Serial,
                fusion: FusionLevel::None,
            },
        }
    }

    /// Executes a circuit for `shots` samples.
    ///
    /// Terminal measurements are served by sampling the final state (the
    /// standard fast path). A mid-circuit measurement instead collapses the
    /// state projectively once, i.e. the run is a single stochastic
    /// trajectory — sufficient for every workload in the paper, all of which
    /// measure only at the end. The circuit's
    /// [`Readout`](qfw_circuit::Readout) decides which is which and what
    /// the draws read. The counts are rendered from
    /// [`run_traced`](Self::run_traced)'s outcome words.
    pub fn run(&self, circuit: &Circuit, shots: usize, seed: u64) -> SvOutcome {
        self.run_traced(circuit, shots, seed, &Obs::disabled())
            .rendered()
    }

    /// [`run`](Self::run) with its counts as outcome words, reporting
    /// engine phases (fuse / apply / sample) as spans on the `engine` track
    /// of the given observability handle.
    pub fn run_traced(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
        obs: &Obs,
    ) -> SvOutcome<Counts> {
        self.run_inner(None, circuit, shots, seed, obs)
    }

    /// Executes a circuit for `shots` samples starting from a caller-built
    /// initial state instead of `|0...0>` — the dense half of hybrid
    /// partitioned execution, where a stabilizer tableau evolves a Clifford
    /// prefix and hands the converted state over at the seam.
    ///
    /// Sampling draws through exactly the same path as [`run`](Self::run)
    /// (same seed, same canonical shot split), so a partitioned run's
    /// counts are bitwise comparable to a monolithic one.
    ///
    /// # Panics
    /// Panics when the initial state's register width does not match the
    /// circuit's.
    pub fn run_from(
        &self,
        initial: StateVector,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> SvOutcome {
        self.run_traced_from(initial, circuit, shots, seed, &Obs::disabled())
            .rendered()
    }

    /// [`run_from`](Self::run_from) with its counts as outcome words and
    /// engine-phase tracing.
    pub fn run_traced_from(
        &self,
        initial: StateVector,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
        obs: &Obs,
    ) -> SvOutcome<Counts> {
        assert_eq!(
            initial.num_qubits(),
            circuit.num_qubits(),
            "initial state width must match the circuit register"
        );
        self.run_inner(Some(initial), circuit, shots, seed, obs)
    }

    fn run_inner(
        &self,
        initial: Option<StateVector>,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
        obs: &Obs,
    ) -> SvOutcome<Counts> {
        let mut fuse_span = obs
            .span("engine", "sv.fuse")
            .attr("ops_in", circuit.ops().len());
        let plan = self.plan(circuit);
        fuse_span.set_attr("ops_out", plan.num_layers());
        drop(fuse_span);
        self.run_plan_from(initial, &plan, shots, seed, obs)
    }

    /// The circuit's plan at this engine's fusion level.
    fn plan(&self, circuit: &Circuit) -> LayerPlan {
        match self.config.fusion {
            FusionLevel::None => verbatim(circuit),
            FusionLevel::Full => fuse(circuit),
        }
    }

    /// The plan's tile groups, one pass each, then the sampling tail. The
    /// draws take the canonical split scheme — the shot partition the
    /// distributed engine replays — so a fixed seed yields bit-identical
    /// counts whether the state lived on one process or across ranks.
    fn run_plan_from(
        &self,
        initial: Option<StateVector>,
        plan: &LayerPlan,
        shots: usize,
        seed: u64,
        obs: &Obs,
    ) -> SvOutcome<Counts> {
        let parallel = self.config.threading == Threading::Rayon;
        let mut rng = Rng::seed_from(seed);
        let sw = qfw_hpc::Stopwatch::start();
        let passes = initial
            .as_ref()
            .map_or(plan.passes_from_zero(), |_| plan.passes());
        let apply_span = obs
            .span("engine", "sv.apply")
            .attr("qubits", plan.num_qubits())
            .attr("gates", plan.num_layers())
            .attr("passes", passes)
            .attr("tile_groups", passes);
        let (sv, collapsed) = match initial {
            Some(mut sv) => {
                let collapsed = plan.apply(&mut sv, &mut rng, parallel);
                (sv, collapsed)
            }
            None => plan.apply_to_zero(Some(&mut rng), parallel),
        };
        drop(apply_span);
        let gate_time = sw.elapsed();

        let sample_span = obs.span("engine", "sv.sample").attr("shots", shots);
        let sw = qfw_hpc::Stopwatch::start();
        let split_bits = canonical_split_bits(sv.num_qubits(), 0);
        let draws = sv.sample_split_on(shots, seed, split_bits, parallel);
        let counts = plan.readout().counts(draws, &collapsed);
        drop(sample_span);
        SvOutcome {
            counts,
            gate_time,
            sample_time: sw.elapsed(),
            gates_applied: plan.num_layers(),
        }
    }

    /// Returns the final state vector of the unitary part of a circuit.
    pub fn statevector(&self, circuit: &Circuit) -> StateVector {
        let parallel = self.config.threading == Threading::Rayon;
        self.plan(circuit).apply_to_zero(None, parallel).0
    }

    /// Expectation of a diagonal observable after running the unitary part.
    pub fn expectation_diagonal(&self, circuit: &Circuit, f: impl Fn(usize) -> f64 + Sync) -> f64 {
        let sv = self.statevector(circuit);
        sv.expectation_diagonal(f, self.config.threading == Threading::Rayon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::approx_eq;

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    #[test]
    fn run_ghz_counts_are_bimodal() {
        for config in [
            SvConfig {
                threading: Threading::Serial,
                fusion: FusionLevel::None,
            },
            SvConfig {
                threading: Threading::Serial,
                fusion: FusionLevel::Full,
            },
            SvConfig {
                threading: Threading::Rayon,
                fusion: FusionLevel::Full,
            },
        ] {
            let engine = SvSimulator::new(config);
            let out = engine.run(&ghz(5), 1000, 42);
            assert_eq!(out.counts.values().sum::<usize>(), 1000);
            assert_eq!(out.counts.len(), 2);
            assert!(out.counts.contains_key("00000"));
            assert!(out.counts.contains_key("11111"));
        }
    }

    #[test]
    fn same_seed_same_counts() {
        let engine = SvSimulator::default();
        let a = engine.run(&ghz(4), 500, 7);
        let b = engine.run(&ghz(4), 500, 7);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn different_seeds_differ() {
        let engine = SvSimulator::default();
        let a = engine.run(&ghz(4), 500, 7);
        let b = engine.run(&ghz(4), 500, 8);
        assert_ne!(a.counts, b.counts);
    }

    #[test]
    fn run_traced_records_engine_phases() {
        let obs = Obs::virtual_clock(5);
        let out = SvSimulator::default().run_traced(&ghz(4), 100, 3, &obs);
        assert_eq!(out.counts.values().sum::<usize>(), 100);
        let names: Vec<String> = obs.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.contains(&"sv.fuse".to_string()));
        assert!(names.contains(&"sv.apply".to_string()));
        assert!(names.contains(&"sv.sample".to_string()));
        // The apply span says why a job was fast: how often memory was swept.
        let spans = obs.spans();
        let apply = spans
            .iter()
            .find(|s| s.name == "sv.apply")
            .expect("recorded");
        assert_eq!(apply.attrs["passes"], qfw_obs::AttrValue::Int(1));
        assert_eq!(apply.attrs["tile_groups"], qfw_obs::AttrValue::Int(1));
        // Untraced run records nothing.
        let silent = Obs::disabled();
        SvSimulator::default().run_traced(&ghz(4), 100, 3, &silent);
        assert_eq!(silent.span_count(), 0);
    }

    #[test]
    fn fusion_reduces_gates_applied() {
        let mut qc = Circuit::new(2);
        qc.h(0).t(0).rz(0, 0.3).h(1).s(1).cx(0, 1);
        qc.measure_all();
        let plain = SvSimulator::plain().run(&qc, 10, 1);
        let full = SvSimulator::default().run(&qc, 10, 1);
        assert_eq!(plain.gates_applied, 6);
        assert_eq!(full.gates_applied, 1); // everything in one 4x4 block
    }

    #[test]
    fn no_measurement_means_implicit_measure_all() {
        let mut qc = Circuit::new(2);
        qc.h(0);
        let out = SvSimulator::default().run(&qc, 400, 3);
        assert_eq!(out.counts.values().sum::<usize>(), 400);
        // Only "00" and "01" should appear (qubit 1 never touched).
        assert!(out.counts.keys().all(|k| k == "00" || k == "01"));
    }

    #[test]
    fn partial_terminal_measurement_projects_clbits() {
        let mut qc = Circuit::with_clbits(3, 1);
        qc.h(0).cx(0, 1).cx(1, 2);
        qc.measure(2, 0); // only the top qubit
        let out = SvSimulator::default().run(&qc, 300, 9);
        assert_eq!(out.counts.len(), 2);
        assert_eq!(out.counts.keys().cloned().collect::<Vec<_>>(), ["0", "1"]);
    }

    #[test]
    fn mid_circuit_measurement_collapses_trajectory() {
        // Measure q0, then act on q0 again: the first measurement is truly
        // mid-circuit and must collapse a single trajectory.
        let mut qc = Circuit::new(2);
        qc.h(0);
        qc.measure(0, 0);
        qc.x(0); // later gate on q0 forces the collapse path
        qc.measure(0, 1);
        let out = SvSimulator::default().run(&qc, 100, 11);
        assert_eq!(out.counts.len(), 1);
        let key = out.counts.keys().next().unwrap();
        // c1 = NOT c0 always (key printed as "c1 c0").
        assert!(key == "10" || key == "01", "key={key}");
    }

    #[test]
    fn deferred_measurement_on_untouched_qubit_is_terminal() {
        // Measuring q0 of a Bell pair and then gating only q1 keeps q0's
        // measurement servable by final-state sampling (deferred
        // measurement principle) — per-shot outcomes stay correlated.
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        qc.measure(0, 0);
        qc.x(1);
        qc.measure(1, 1);
        let out = SvSimulator::default().run(&qc, 200, 11);
        // Bell + X(q1): outcomes are anti-correlated "01"/"10" only.
        assert!(out.counts.keys().all(|k| k == "01" || k == "10"));
        assert_eq!(out.counts.len(), 2);
    }

    #[test]
    fn expectation_diagonal_of_plus_state() {
        let mut qc = Circuit::new(2);
        qc.h(0).h(1);
        // f(i) = i: uniform over 0..4 => mean 1.5
        let e = SvSimulator::default().expectation_diagonal(&qc, |i| i as f64);
        assert!(approx_eq(e, 1.5, 1e-10));
    }

    #[test]
    fn statevector_matches_between_configs() {
        let mut qc = Circuit::new(9);
        for q in 0..9 {
            qc.h(q);
            qc.rz(q, 0.1 * (q + 1) as f64);
        }
        for q in 0..8 {
            qc.cx(q, q + 1);
        }
        let a = SvSimulator::plain().statevector(&qc);
        let b = SvSimulator::new(SvConfig {
            threading: Threading::Rayon,
            ..SvConfig::default()
        })
        .statevector(&qc);
        assert!(approx_eq(a.fidelity(&b), 1.0, 1e-9));
    }
}
