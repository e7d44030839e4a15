//! Engine façade for the tensor-network simulator.
//!
//! [`TnSimulator`] lays out its own contraction plan under its
//! [`TnConfig`] for every call. [`ContractionPlan::execute`] contracts a
//! plan laid out before the call — by the stack's admission, which refuses
//! the width there. Both sample the contracted state through the dense
//! engine's canonical split sampler ([`StateVector::sample_split`]), so a
//! tensor-network run and a dense run with bitwise-equal amplitudes draw
//! bitwise-equal counts.

pub use crate::network::OrderHeuristic;
use crate::network::{ContractionPlan, TensorNetwork};
use crate::tensor::Tensor;
use qfw_circuit::analysis::lightcone;
use qfw_circuit::{Circuit, Counts, Op, Readout};
use qfw_num::complex::C64;
use qfw_sim_sv::{canonical_split_bits, StateVector};
use std::collections::BTreeMap;
use std::time::Duration;

/// TN engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TnConfig {
    /// Contraction-order heuristic.
    pub order: OrderHeuristic,
    /// Maximum rank any intermediate tensor may reach before the engine
    /// refuses (the memory wall of a contraction-based simulator).
    pub width_limit: usize,
}

impl Default for TnConfig {
    fn default() -> Self {
        TnConfig {
            order: OrderHeuristic::Greedy,
            width_limit: 27,
        }
    }
}

/// Result of one TN execution: counts as outcome words from
/// [`TnSimulator::execute`], as bit strings from [`TnSimulator::run`].
#[derive(Clone, Debug)]
pub struct TnOutcome<C = BTreeMap<String, usize>> {
    /// Measured counts.
    pub counts: C,
    /// Wall time contracting the network.
    pub contract_time: Duration,
    /// Wall time sampling.
    pub sample_time: Duration,
}

impl TnOutcome<Counts> {
    /// Contracts `qc`'s state with `amps`, then draws `shots` samples
    /// through the dense engine's canonical split sampler, read through
    /// the circuit's [`Readout`].
    ///
    /// # Panics
    /// This engine cannot collapse a state mid-circuit: it panics on a
    /// circuit with a mid-circuit measurement, which admission refuses
    /// before it reaches here (`qfw::plan`).
    fn sample(qc: &Circuit, shots: usize, seed: u64, amps: impl FnOnce() -> Vec<C64>) -> Self {
        let readout = Readout::of(qc);
        assert!(
            !readout.has_mid_circuit(),
            "the tensor-network engine cannot collapse a state mid-circuit"
        );
        let sw = qfw_hpc::Stopwatch::start();
        let state = StateVector::from_amps(amps());
        let contract_time = sw.elapsed();

        let sw = qfw_hpc::Stopwatch::start();
        let split_bits = canonical_split_bits(state.num_qubits(), 0);
        let draws = state.sample_split(shots, seed, split_bits);
        TnOutcome {
            counts: readout.counts(draws, &BTreeMap::new()),
            contract_time,
            sample_time: sw.elapsed(),
        }
    }

    /// This outcome with its counts rendered as bit strings.
    pub fn rendered(self) -> TnOutcome {
        TnOutcome {
            counts: self.counts.bitstrings(),
            contract_time: self.contract_time,
            sample_time: self.sample_time,
        }
    }
}

/// The tensor-network simulator engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct TnSimulator {
    /// Engine configuration.
    pub config: TnConfig,
}

impl TnSimulator {
    /// Creates an engine with the given configuration.
    pub fn new(config: TnConfig) -> Self {
        TnSimulator { config }
    }

    /// Contracts the full network into the dense state vector in qubit
    /// order (QTensor-in-QFw's full-state contraction mode).
    pub fn statevector(&self, circuit: &Circuit) -> Vec<C64> {
        state(circuit, |net| {
            net.contract_all(self.config.order, self.config.width_limit)
        })
    }

    /// [`execute`](Self::execute) with the counts rendered as bit strings.
    pub fn run(&self, circuit: &Circuit, shots: usize, seed: u64) -> TnOutcome {
        self.execute(circuit, shots, seed).rendered()
    }

    /// Executes a circuit for `shots` samples along its own plan, read
    /// through the circuit's [`Readout`].
    ///
    /// # Panics
    /// On a contraction wider than `width_limit`, and on a circuit with a
    /// mid-circuit measurement, which this engine cannot collapse. The
    /// stack's admission refuses both before a job reaches an engine
    /// (`qfw::plan`).
    pub fn execute(&self, circuit: &Circuit, shots: usize, seed: u64) -> TnOutcome<Counts> {
        TnOutcome::sample(circuit, shots, seed, || self.statevector(circuit))
    }

    /// Amplitude of one basis state by capping every output — never
    /// materializes the dense state.
    pub fn amplitude(&self, circuit: &Circuit, index: usize) -> C64 {
        let mut net = TensorNetwork::from_circuit(circuit);
        for q in 0..circuit.num_qubits() {
            net.cap_output(q, ((index >> q) & 1) as u8);
        }
        let t = net.contract_all(self.config.order, self.config.width_limit);
        t.data[0]
    }

    /// `<Z_i Z_j>` (or `<Z_i>` when `i == j`) via lightcone slicing: only
    /// the backward causal cone of the observable's support is simulated —
    /// QTensor's native QAOA expectation path.
    ///
    /// Returns the expectation and the cone width actually contracted.
    ///
    /// # Panics
    /// When the cone's contraction is wider than `width_limit` — as it is
    /// whenever the cone is, since a full-state contraction's last step
    /// has the register's rank.
    pub fn expectation_zz(&self, circuit: &Circuit, i: usize, j: usize) -> (f64, usize) {
        let targets: Vec<usize> = if i == j { vec![i] } else { vec![i, j] };
        let (cone, support) = lightcone(circuit, &targets);
        let support: Vec<usize> = support.into_iter().collect();
        let width = support.len();
        // Re-index the cone onto a compact register over its support.
        let mut remap = vec![usize::MAX; circuit.num_qubits()];
        for (new, &old) in support.iter().enumerate() {
            remap[old] = new;
        }
        let mut reduced = Circuit::new(width.max(1));
        for op in cone.ops() {
            if let Op::Gate(g) = op {
                reduced.push(g.map_qubits(|q| remap[q]));
            }
        }
        let amps = self.statevector(&reduced);
        let mask: usize = targets.iter().map(|&t| 1usize << remap[t]).sum();
        let e = amps
            .iter()
            .enumerate()
            .map(|(idx, a)| {
                let sign = if (idx & mask).count_ones().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                sign * a.norm_sqr()
            })
            .sum();
        (e, width)
    }
}

impl ContractionPlan {
    /// [`TnSimulator::execute`] along this plan, laid out before the call
    /// for `circuit`'s wires ([`TensorNetwork::plan`] of its network, or of
    /// any binding of the same skeleton): contracted as it is, with no
    /// second plan and no width check.
    ///
    /// # Panics
    /// On a circuit with a mid-circuit measurement. A plan laid out for
    /// other wires panics or contracts the wrong pairs; the stack's
    /// admission lays it out from the job's own gate operands.
    pub fn execute(&self, circuit: &Circuit, shots: usize, seed: u64) -> TnOutcome<Counts> {
        TnOutcome::sample(circuit, shots, seed, || {
            state(circuit, |net| net.contract(self))
        })
    }
}

/// The dense state of `circuit` in qubit order, its network contracted by
/// `contract`.
fn state(circuit: &Circuit, contract: impl FnOnce(TensorNetwork) -> Tensor) -> Vec<C64> {
    let net = TensorNetwork::from_circuit(circuit);
    let outputs = net.outputs().to_vec();
    contract(net).permute_to(&outputs).data
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::approx_eq;
    use qfw_num::rng::Rng;

    /// Dense reference by direct gate application (independent of sim-sv).
    fn dense_reference(qc: &Circuit) -> Vec<C64> {
        let n = qc.num_qubits();
        let mut state = vec![C64::ZERO; 1 << n];
        state[0] = C64::ONE;
        for op in qc.ops() {
            if let Op::Gate(g) = op {
                let qs = g.qubits();
                let m = g.matrix();
                let dim = m.rows();
                let mut out = vec![C64::ZERO; state.len()];
                for (i, &amp) in state.iter().enumerate() {
                    if amp == C64::ZERO {
                        continue;
                    }
                    let mut local = 0usize;
                    for (jj, &q) in qs.iter().enumerate() {
                        if i & (1 << q) != 0 {
                            local |= 1 << jj;
                        }
                    }
                    for row in 0..dim {
                        let c = m[(row, local)];
                        if c == C64::ZERO {
                            continue;
                        }
                        let mut target = i;
                        for (jj, &q) in qs.iter().enumerate() {
                            target &= !(1 << q);
                            if row & (1 << jj) != 0 {
                                target |= 1 << q;
                            }
                        }
                        out[target] = c.mul_add(amp, out[target]);
                    }
                }
                state = out;
            }
        }
        state
    }

    fn check_statevector(qc: &Circuit) {
        let want = dense_reference(qc);
        for order in [OrderHeuristic::Greedy, OrderHeuristic::Sequential] {
            let engine = TnSimulator::new(TnConfig {
                order,
                width_limit: 27,
            });
            let got = engine.statevector(qc);
            for (idx, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                assert!(
                    a.approx_eq(*b, 1e-9),
                    "{order:?} amplitude {idx}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn ghz_statevector_matches_dense() {
        let mut qc = Circuit::new(4);
        qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        check_statevector(&qc);
    }

    #[test]
    fn random_circuit_matches_dense() {
        let mut rng = Rng::seed_from(41);
        let n = 5;
        let mut qc = Circuit::new(n);
        for _ in 0..25 {
            let q = rng.index(n);
            let p = (q + 1 + rng.index(n - 1)) % n;
            match rng.index(5) {
                0 => qc.h(q),
                1 => qc.t(q),
                2 => qc.rx(q, rng.uniform(-3.0, 3.0)),
                3 => qc.cx(q, p),
                _ => qc.rzz(q, p, rng.uniform(-1.0, 1.0)),
            };
        }
        check_statevector(&qc);
    }

    #[test]
    fn amplitude_path_matches_statevector() {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).cry(1, 2, 0.9);
        let engine = TnSimulator::default();
        let amps = engine.statevector(&qc);
        for (idx, &want) in amps.iter().enumerate() {
            let a = engine.amplitude(&qc, idx);
            assert!(a.approx_eq(want, 1e-10), "idx {idx}");
        }
    }

    #[test]
    fn run_produces_normalized_counts() {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        qc.measure_all();
        let out = TnSimulator::default().run(&qc, 500, 7);
        assert_eq!(out.counts.values().sum::<usize>(), 500);
        assert_eq!(out.counts.len(), 2);
    }

    #[test]
    fn lightcone_expectation_matches_dense() {
        // QAOA-like circuit on 6 qubits; observable touches only 2 — the
        // cone should be narrower than the register.
        let mut qc = Circuit::new(6);
        for q in 0..6 {
            qc.h(q);
        }
        qc.rzz(0, 1, 0.7).rzz(2, 3, 0.4).rzz(4, 5, 0.9);
        for q in 0..6 {
            qc.rx(q, 0.5);
        }
        let engine = TnSimulator::default();
        let (e01, w01) = engine.expectation_zz(&qc, 0, 1);
        assert!(w01 <= 2, "cone width {w01}");
        // Dense check.
        let amps = dense_reference(&qc);
        let mask = 0b11usize;
        let want: f64 = amps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let sign = if (i & mask).count_ones().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                sign * a.norm_sqr()
            })
            .sum();
        assert!(approx_eq(e01, want, 1e-9), "{e01} vs {want}");
    }

    #[test]
    fn single_z_expectation() {
        let mut qc = Circuit::new(2);
        qc.x(0);
        let engine = TnSimulator::default();
        let (e, _) = engine.expectation_zz(&qc, 0, 0);
        assert!(approx_eq(e, -1.0, 1e-10));
        let (e1, _) = engine.expectation_zz(&qc, 1, 1);
        assert!(approx_eq(e1, 1.0, 1e-10));
    }

    #[test]
    fn greedy_beats_sequential_on_width() {
        // A line circuit: greedy keeps intermediates narrow; sequential
        // (fold-left over kets first) widens early. We only check that
        // greedy succeeds under a tight width limit where the final state
        // would be fine but naive order may or may not pass — the point is
        // the plan stays within n+1 wires.
        let n = 10;
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        let engine = TnSimulator::new(TnConfig {
            order: OrderHeuristic::Greedy,
            width_limit: n + 1,
        });
        let amps = engine.statevector(&qc);
        assert!((amps.iter().map(|a| a.norm_sqr()).sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;
    use qfw_testkit::random_circuit;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One sampler: at 1–12 qubits and in both orders, `execute`'s
        /// counts are the dense engine's split sampler over `statevector`'s
        /// amplitudes, read through the circuit's `Readout` (a random
        /// subset of qubits measured into reversed clbits), to the bit.
        #[test]
        fn counts_are_the_split_sampler_over_the_amplitudes(
            n in 1usize..13,
            len in 0usize..40,
            seed in 0u64..u64::MAX,
            shots in 1usize..600,
        ) {
            let mut qc = Circuit::new(n);
            for g in random_circuit(n.max(2), len, seed).gates() {
                if g.operands().iter().all(|&q| q < n) {
                    qc.push(g.clone());
                }
            }
            for q in (0..n).filter(|q| (seed >> q) & 1 == 1) {
                qc.measure(q, n - 1 - q);
            }
            let readout = Readout::of(&qc);
            for order in [OrderHeuristic::Greedy, OrderHeuristic::Sequential] {
                let engine = TnSimulator::new(TnConfig { order, width_limit: 27 });
                let state = StateVector::from_amps(engine.statevector(&qc));
                let draws = state.sample_split(shots, seed, canonical_split_bits(n, 0));
                let want = readout.counts(draws, &BTreeMap::new());
                prop_assert_eq!(engine.execute(&qc, shots, seed).counts, want);
            }
        }
    }
}
