//! Engine façade for the MPS simulator, mirroring the state-vector engine's
//! shape so the QFw backend adapters stay symmetric.

use crate::mps::MpsState;
use qfw_circuit::{Circuit, Counts, Readout};
use qfw_num::rng::Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// MPS engine configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpsConfig {
    /// Hard cap on every bond dimension.
    pub chi_max: usize,
    /// Relative squared-weight threshold below which Schmidt values are
    /// discarded.
    pub trunc_eps: f64,
}

impl Default for MpsConfig {
    fn default() -> Self {
        // Aer's MPS defaults to unbounded chi with a small truncation
        // threshold; we cap at 64 to keep worst-case costs bounded and rely
        // on the threshold for structured circuits.
        MpsConfig {
            chi_max: 64,
            trunc_eps: 1e-12,
        }
    }
}

/// Result of one MPS execution: counts as outcome words from
/// [`MpsSimulator::execute`], as bit strings from [`MpsSimulator::run`].
#[derive(Clone, Debug)]
pub struct MpsOutcome<C = BTreeMap<String, usize>> {
    /// Measured counts.
    pub counts: C,
    /// Wall time applying gates.
    pub gate_time: Duration,
    /// Wall time sampling.
    pub sample_time: Duration,
    /// Largest bond dimension reached.
    pub max_bond: usize,
    /// Accumulated truncation error (discarded squared Schmidt weight).
    pub trunc_error: f64,
    /// SVDs the run made: one per gauge move of the orthogonality center
    /// and one per truncating split.
    pub svds: usize,
    /// Prefix-tree nodes the sampler contracted: one per distinct outcome
    /// prefix of each chunk of shots, the empty prefix included.
    pub sample_nodes: usize,
}

impl MpsOutcome<Counts> {
    /// This outcome with its counts rendered as bit strings.
    pub fn rendered(self) -> MpsOutcome {
        MpsOutcome {
            counts: self.counts.bitstrings(),
            gate_time: self.gate_time,
            sample_time: self.sample_time,
            max_bond: self.max_bond,
            trunc_error: self.trunc_error,
            svds: self.svds,
            sample_nodes: self.sample_nodes,
        }
    }
}

/// The MPS simulator engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct MpsSimulator {
    /// Engine configuration.
    pub config: MpsConfig,
}

impl MpsSimulator {
    /// Creates an engine with the given configuration.
    pub fn new(config: MpsConfig) -> Self {
        MpsSimulator { config }
    }

    /// [`execute`](Self::execute) with the counts rendered as bit strings.
    pub fn run(&self, circuit: &Circuit, shots: usize, seed: u64) -> MpsOutcome {
        self.execute(circuit, shots, seed).rendered()
    }

    /// Executes a circuit for `shots` samples, read through the circuit's
    /// [`Readout`].
    ///
    /// # Panics
    /// This engine cannot collapse a state mid-circuit: it panics on a
    /// circuit with a mid-circuit measurement, which admission refuses
    /// before it reaches here (`qfw::plan`).
    pub fn execute(&self, circuit: &Circuit, shots: usize, seed: u64) -> MpsOutcome<Counts> {
        let readout = Readout::of(circuit);
        assert!(
            !readout.has_mid_circuit(),
            "the MPS engine cannot collapse a state mid-circuit"
        );
        let sw = qfw_hpc::Stopwatch::start();
        let mut mps = MpsState::zero(
            circuit.num_qubits(),
            self.config.chi_max,
            self.config.trunc_eps,
        );
        mps.run_unitary(circuit);
        let gate_time = sw.elapsed();

        let sw = qfw_hpc::Stopwatch::start();
        let mut rng = Rng::seed_from(seed);
        let counts = readout.counts(mps.sample(shots, &mut rng), &BTreeMap::new());
        let sample_time = sw.elapsed();
        MpsOutcome {
            counts,
            gate_time,
            sample_time,
            max_bond: mps.max_bond_seen,
            trunc_error: mps.trunc_error,
            svds: mps.svds,
            sample_nodes: mps.sample_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn ghz_counts_bimodal() {
        let out = MpsSimulator::default().run(&ghz(10), 800, 3);
        assert_eq!(out.counts.values().sum::<usize>(), 800);
        assert_eq!(out.counts.len(), 2);
        assert!(out.counts.contains_key(&"0".repeat(10)));
        assert!(out.counts.contains_key(&"1".repeat(10)));
        assert!(out.max_bond <= 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let engine = MpsSimulator::default();
        assert_eq!(
            engine.run(&ghz(6), 200, 9).counts,
            engine.run(&ghz(6), 200, 9).counts
        );
    }

    #[test]
    fn large_ghz_runs_fast_past_dense_limits() {
        // 40 qubits is far beyond any dense simulator on this machine —
        // bond dimension 2 makes it trivial for MPS.
        let out = MpsSimulator::default().run(&ghz(40), 100, 1);
        assert_eq!(out.counts.values().sum::<usize>(), 100);
        assert!(out.max_bond <= 2);
        assert_eq!(out.counts.len(), 2);
    }

    #[test]
    fn truncation_reported() {
        let config = MpsConfig {
            chi_max: 2,
            trunc_eps: 1e-16,
        };
        let mut qc = Circuit::new(6);
        for q in 0..6 {
            qc.ry(q, 0.7);
        }
        for _ in 0..4 {
            for q in 0..5 {
                qc.cx(q, q + 1);
            }
            for q in 0..6 {
                qc.ry(q, 0.5);
            }
        }
        let out = MpsSimulator::new(config).run(&qc, 10, 2);
        assert!(out.trunc_error > 0.0);
        assert!(out.max_bond <= 2);
    }
}
