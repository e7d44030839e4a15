//! Per-engine runtime cost formulas.
//!
//! Every formula maps the cheap structural features in a
//! [`StructureReport`] to a predicted wall-clock in seconds. The shapes
//! follow the engines' asymptotics — `gates * 2^n` amplitude touches for
//! dense state vector, `gates * n * chi^3` tensor contractions for MPS,
//! `gates * n * words` row updates for the stabilizer tableau — and the
//! unit coefficients are measured defaults, nudged online from observed
//! run times (see [`super::Planner::observe`]).

use qfw_circuit::analysis::StructureReport;

/// Unit costs, all in seconds per elementary operation.
///
/// The state-vector default is measured (the serial layer-plan executor
/// costs ~0.25 ns per amplitude per *source* gate: TFIM/QAOA/HAM-18 run 694
/// gates over `2^18` amplitudes in 47.0 ms — `benchmark/`'s
/// `sim_sv.{tfim,qaoa,ham}.serial_ms` probes time the same three circuits).
/// So is the stabilizer shot term: with every measurement random (an H
/// layer, so each shot draws `n` coins and most outcomes are distinct),
/// 65 536 shots cost 17–20 ns per qubit per shot more than 256 at 24, 48
/// and 70 qubits. The other engines get round numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct CostCoefficients {
    /// Dense SV: seconds per amplitude per gate.
    pub sv_amp_secs: f64,
    /// Dense SV: seconds per sampled shot (alias-table draw).
    pub sv_shot_secs: f64,
    /// MPS: seconds per site per `chi^3` contraction element per gate.
    pub mps_elem_secs: f64,
    /// Stabilizer tableau: seconds per row-word update per gate.
    pub stab_word_secs: f64,
    /// Stabilizer tableau: seconds per qubit per sampled shot (one draw and
    /// its share of the readout).
    pub stab_shot_secs: f64,
    /// MPI: fractional exchange penalty per doubling of the rank count.
    pub mpi_link_penalty: f64,
    /// MPI: seconds of spawn/teardown per rank.
    pub mpi_spawn_secs: f64,
    /// Seam conversion (tableau -> state vector): seconds per amplitude.
    pub conv_amp_secs: f64,
    /// Cloud: fixed submit/queue/poll round trip in seconds.
    pub cloud_roundtrip_secs: f64,
    /// Cloud: marginal seconds per shot.
    pub cloud_shot_secs: f64,
    /// Bond dimension an exact local MPS run is trusted up to.
    pub chi_budget: f64,
}

impl Default for CostCoefficients {
    fn default() -> Self {
        CostCoefficients {
            sv_amp_secs: 2.5e-10,
            sv_shot_secs: 3e-8,
            mps_elem_secs: 2e-9,
            stab_word_secs: 1e-9,
            stab_shot_secs: 2e-8,
            mpi_link_penalty: 0.15,
            mpi_spawn_secs: 1e-3,
            conv_amp_secs: 2e-9,
            cloud_roundtrip_secs: 30.0,
            cloud_shot_secs: 1e-3,
            chi_budget: 64.0,
        }
    }
}

impl CostCoefficients {
    /// Dense serial state vector: every gate sweeps all `2^n` amplitudes,
    /// the terminal alias table costs one more sweep, then per-shot draws.
    pub fn sv_cost(&self, n: usize, gates: usize, shots: usize) -> f64 {
        let amps = 2f64.powi(n as i32);
        (gates as f64 + 1.0) * amps * self.sv_amp_secs + shots as f64 * self.sv_shot_secs
    }

    /// Rank-distributed state vector: the gate sweeps parallelize over
    /// ranks at the price of pairwise exchanges (log-scaling penalty) and
    /// per-rank spawn cost.
    pub fn mpi_cost(&self, n: usize, gates: usize, shots: usize, ranks: usize) -> f64 {
        let ranks = ranks.max(1);
        let amps = 2f64.powi(n as i32);
        let gate_secs = gates as f64 * amps * self.sv_amp_secs / ranks as f64;
        let penalty = 1.0 + self.mpi_link_penalty * (ranks as f64).log2();
        gate_secs * penalty
            + self.mpi_spawn_secs * ranks as f64
            + amps * self.sv_amp_secs
            + shots as f64 * self.sv_shot_secs
    }

    /// MPS: per-gate two-site contraction/SVD is `O(n * chi^3)`, sampling
    /// one shot sweeps the chain contracting `O(n * chi^2)` elements.
    pub fn mps_cost(&self, n: usize, gates: usize, shots: usize, chi: f64) -> f64 {
        let chi = chi.max(1.0);
        gates as f64 * n as f64 * chi.powi(3) * self.mps_elem_secs
            + shots as f64 * n as f64 * chi.powi(2) * self.mps_elem_secs
    }

    /// Stabilizer tableau: each gate touches `2n` rows of `words` machine
    /// words. Sampling reads the reduced row-echelon form of the `n`
    /// stabilizer rows: one elimination over their X bits and one over the
    /// Z-only rows' bits, each pivot clearing its qubit from the other rows
    /// of its range, so at most `n` pivots of `n` row operations each —
    /// priced here as `n · 2n` row-words, an upper bound. Then per shot one
    /// draw per pivot row, at most `n`. Taking no shot samples nothing.
    pub fn stab_cost(&self, n: usize, gates: usize, shots: usize) -> f64 {
        let words = n.div_ceil(64) as f64;
        let row_ops = |count: usize| count as f64 * 2.0 * n as f64 * words * self.stab_word_secs;
        let sampling = if shots == 0 {
            0.0
        } else {
            row_ops(n) + shots as f64 * n as f64 * self.stab_shot_secs
        };
        row_ops(gates) + sampling
    }

    /// Cloud provider: queue-dominated; circuit size barely matters below
    /// the provider's qubit cap.
    pub fn cloud_cost(&self, shots: usize) -> f64 {
        self.cloud_roundtrip_secs + shots as f64 * self.cloud_shot_secs
    }
}

/// Predicts the bond dimension an exact MPS run of this circuit needs.
///
/// The static bound (`log2_bond_bound`) counts every entangling gate
/// across the worst cut as a full Schmidt-rank doubling; weak entanglers
/// (small rotation angles) grow entanglement far slower, so the bound is
/// tempered by the mean entangling angle: a gate at angle `theta`
/// contributes `min(1, 2 sin(theta/2))` of a doubling.
pub fn effective_chi(report: &StructureReport, n: usize) -> f64 {
    if report.num_entangling == 0 {
        return 1.0;
    }
    let theta = report.mean_entangling_angle;
    let growth = if theta.is_finite() {
        (2.0 * (theta / 2.0).sin()).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let b_eff = (report.log2_bond_bound(n) as f64)
        .min(report.max_cut_weight as f64 * growth)
        .clamp(0.0, 14.0);
    2f64.powf(b_eff).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_order_engines_sanely() {
        let c = CostCoefficients::default();
        // 20 qubits, 400 gates: MPS at chi=2 beats dense SV, dense SV
        // beats the cloud, and distributing over 8 ranks beats serial.
        let sv = c.sv_cost(20, 400, 1024);
        assert!(c.mps_cost(20, 400, 1024, 2.0) < sv);
        assert!(sv < c.cloud_cost(1024));
        assert!(c.mpi_cost(22, 500, 1024, 8) < c.sv_cost(22, 500, 1024));
        // The tableau crushes everything on a Clifford workload.
        assert!(c.stab_cost(24, 24, 1024) < c.mps_cost(24, 24, 1024, 2.0) * 10.0);
    }

    #[test]
    fn effective_chi_tempers_by_angle() {
        use qfw_circuit::Circuit;
        let mut weak = Circuit::new(12);
        for _ in 0..4 {
            for q in 0..11 {
                weak.rzz(q, q + 1, 0.1);
            }
        }
        let chi_weak = effective_chi(&StructureReport::of(&weak), 12);
        let mut strong = Circuit::new(12);
        for _ in 0..4 {
            for q in 0..11 {
                strong.rzz(q, q + 1, 2.8);
            }
        }
        let chi_strong = effective_chi(&StructureReport::of(&strong), 12);
        assert!(chi_weak < chi_strong, "{chi_weak} !< {chi_strong}");
        assert!(chi_weak < 2.5);
    }
}
