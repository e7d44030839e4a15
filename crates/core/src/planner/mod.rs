//! Calibrated cost-model backend planner.
//!
//! Automated workload-driven backend selection — the paper's stated
//! future work. Every admissible engine gets a predicted wall-clock from
//! the [`cost`] formulas over the circuit's [`StructureReport`] features,
//! and [`Planner::plan`] ranks candidates by `(tier, predicted cost)`.
//! Tiers encode *result quality*, which cost alone cannot: a truncating
//! MPS run may be predicted faster than an exact engine, but it answers a
//! different question.
//!
//! * tier 0 — the stabilizer fast path on Clifford circuits (polynomial:
//!   asymptotically dominant at every size that matters).
//! * tier 1 — exact engines (dense SV serial/distributed, MPS within its
//!   trusted bond budget, the cloud provider below its qubit cap).
//! * tier 2 — best-effort truncating MPS with a raised bond budget.
//! * tier 3 — last-resort tensor engines with tighter default budgets.
//!
//! Coefficients start from [`CostCoefficients::default`] (measured once on
//! the layer-plan executor) and drift toward observed reality via EWMA
//! updates fed by the same measured run times qfw-obs records under
//! `qpm.run_circuit` / `plan.actual_us.*` (see [`Planner::observe`]).
//!
//! The planner also proposes the first *hybrid partition*: a maximal
//! Clifford prefix executed on the stabilizer tableau, converted to a
//! dense state vector at the seam, and continued on the SV engine
//! ([`partition`]). A winning split surfaces as an `nwqsim/cpu` candidate
//! whose [`Target`] carries the seam, so the plan the QRC retargets onto
//! it, and the result metadata, see it.

pub mod cost;
pub mod partition;

pub use cost::{effective_chi, CostCoefficients};
pub use partition::{plan_partition, PartitionPlan, PARTITION_MIN_PREFIX_GATES};

use crate::plan::Target;
use parking_lot::RwLock;
use qfw_circuit::analysis::StructureReport;
use qfw_circuit::Circuit;
use std::collections::BTreeMap;

/// Qubit count above which a dense single-core run is considered too slow
/// and the planner admits rank-distributed execution.
pub const DISTRIBUTE_ABOVE: usize = 18;

/// Qubit count above which dense simulation is off the table entirely.
pub const DENSE_LIMIT: usize = 26;

/// Qubit cap of the cloud provider's simulator tier: the single source of
/// truth for cloud admissibility (previously duplicated as two literal
/// `29`s that could drift apart).
pub const CLOUD_QUBIT_LIMIT: usize = 29;

/// Shot budget assumed when the caller ranks without a concrete task.
pub const DEFAULT_PLAN_SHOTS: usize = 1024;

/// EWMA smoothing factor for online coefficient corrections.
const EWMA_ALPHA: f64 = 0.2;

/// Observed/predicted ratios are clamped to this band so one wild outlier
/// (cold caches, a paging container) cannot invert the ranking.
const CORRECTION_BAND: (f64, f64) = (0.25, 4.0);

/// Resource context the planner weighs: how many cores the session can
/// offer a single task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectorContext {
    /// Free cores available for one task.
    pub free_cores: usize,
    /// Whether the cloud path is configured.
    pub cloud_available: bool,
}

impl Default for SelectorContext {
    fn default() -> Self {
        SelectorContext {
            free_cores: 8,
            cloud_available: false,
        }
    }
}

/// A ranked execution candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    /// The engine row to run on, with the values the planner sets on it.
    pub target: Target,
    /// Human-readable rationale (logged by callers).
    pub rationale: String,
    /// Predicted wall-clock seconds (correction-adjusted).
    pub cost: f64,
    /// Quality tier (0 best); ranking key is `(tier, cost)`.
    pub tier: u8,
}

/// The cost-model planner. Cheap to construct; `Qrc` holds one per pool
/// so online corrections accumulate per session, and a fresh
/// `Planner::default()` ranks deterministically.
#[derive(Default)]
pub struct Planner {
    coeffs: CostCoefficients,
    /// Multiplicative per-engine corrections, keyed by
    /// [`crate::plan::Engine::key`].
    corrections: RwLock<BTreeMap<String, f64>>,
}

impl Planner {
    /// The active coefficient set.
    pub fn coefficients(&self) -> &CostCoefficients {
        &self.coeffs
    }

    /// Current multiplicative correction for an engine (1.0 = untouched).
    pub fn correction(&self, engine: &str) -> f64 {
        self.corrections.read().get(engine).copied().unwrap_or(1.0)
    }

    /// Folds an observed run time into the engine's correction factor:
    /// `corr <- (1-a)*corr + a*clamp(actual/predicted)`. Callers feed the
    /// same measured durations qfw-obs histograms record, so offline
    /// coefficients drift toward this machine's reality.
    pub fn observe(&self, engine: &str, predicted_secs: f64, actual_secs: f64) {
        let valid = predicted_secs.is_finite()
            && predicted_secs > 0.0
            && actual_secs.is_finite()
            && actual_secs >= 0.0;
        if !valid {
            return;
        }
        let ratio = (actual_secs / predicted_secs).clamp(CORRECTION_BAND.0, CORRECTION_BAND.1);
        let mut corrections = self.corrections.write();
        let corr = corrections.entry(engine.to_string()).or_insert(1.0);
        *corr = (1.0 - EWMA_ALPHA) * *corr + EWMA_ALPHA * ratio;
    }

    /// Ranks every admissible backend for the circuit by predicted cost
    /// within quality tier. The list is never empty, never names one
    /// target twice (each candidate below is pushed at most once and differs
    /// from the others in engine or override), and holds at least two
    /// entries whenever a second engine is admissible (QRC's failover chain
    /// depends on it).
    pub fn plan(&self, circuit: &Circuit, shots: usize, ctx: SelectorContext) -> Vec<Planned> {
        let n = circuit.num_qubits();
        let shots = if shots == 0 { DEFAULT_PLAN_SHOTS } else { shots };
        let report = StructureReport::of(circuit);
        let gates = report.num_gates;
        let c = &self.coeffs;
        let mut out: Vec<Planned> = Vec::new();
        // One candidate: its predicted seconds, adjusted by the engine's
        // correction, rank it and close its rationale.
        let mut push = |tier: u8, target: Target, secs: f64, why: String| {
            let cost = secs * self.correction(target.engine.key);
            out.push(Planned {
                target,
                rationale: format!("{why}, predicted {cost:.1e}s"),
                cost,
                tier,
            });
        };

        // Tier 0: Clifford circuits — polynomial tableau, any width. The
        // stabilizer method is named outright: the structure was analysed
        // just above, `aer/automatic` would only analyse it again.
        if report.clifford {
            push(
                0,
                Target::on("aer/stabilizer"),
                c.stab_cost(n, gates, shots),
                format!("circuit is Clifford ({gates} gates): stabilizer fast path"),
            );
        }

        // Tier 1: exact dense engines within the dense limit.
        if n <= DENSE_LIMIT {
            let sv_secs = c.sv_cost(n, gates, shots);
            push(
                1,
                Target::on("nwqsim/cpu"),
                sv_secs,
                format!("{n}-qubit dense state vector on a single core"),
            );
            if n > DISTRIBUTE_ABOVE && ctx.free_cores >= 2 {
                let ranks = prev_power_of_two(ctx.free_cores).min(1 << (n / 2));
                push(
                    1,
                    Target {
                        ranks,
                        ..Target::on("nwqsim/mpi")
                    },
                    c.mpi_cost(n, gates, shots, ranks),
                    format!(
                        "{n}-qubit dense register: rank-distributed state vector \
                         over {ranks} of {} free cores",
                        ctx.free_cores
                    ),
                );
            }
            if !report.clifford {
                // Aer's generic path: same dense engine underneath, a
                // little marshalling overhead on top — kept for failover
                // diversity across backend implementations.
                push(
                    1,
                    Target::on("aer/automatic"),
                    sv_secs * 1.15,
                    "Aer automatic method selection".into(),
                );
                // Hybrid partition: a deep Clifford prefix runs on the
                // tableau, converts at the seam, and finishes dense.
                if let Some(plan) = plan_partition(c, circuit, gates, shots) {
                    push(
                        1,
                        Target {
                            partition_seam: Some(plan.seam_ops),
                            ..Target::on("nwqsim/cpu")
                        },
                        plan.predicted_secs,
                        format!(
                            "Clifford-prefix partition: {} prefix gates on the \
                             stabilizer tableau, seam conversion, {} gates dense",
                            plan.prefix_gates, plan.suffix_gates
                        ),
                    );
                }
            }
        }

        // MPS: exact inside its trusted regime, best-effort outside it.
        let chi = effective_chi(&report, n);
        let mps_trusted = report.nearest_neighbor_only
            && chi <= c.chi_budget
            && (n <= DENSE_LIMIT || report.mean_entangling_angle < 1.0);
        if mps_trusted {
            push(
                1,
                Target::on("aer/matrix_product_state"),
                c.mps_cost(n, gates, shots, chi),
                format!(
                    "nearest-neighbour structure keeps MPS exact at bond \
                     dimension ~{chi:.0}"
                ),
            );
        }

        // Tier 1: the cloud provider — exact but queue-dominated, so it
        // only leads when no local exact engine is admissible.
        if ctx.cloud_available && n <= CLOUD_QUBIT_LIMIT {
            push(
                1,
                Target::on("ionq/simulator"),
                c.cloud_cost(shots),
                format!(
                    "{n}-qubit circuit within the cloud provider's \
                     {CLOUD_QUBIT_LIMIT}-qubit cap (queue-dominated)"
                ),
            );
        }

        // Tier 2: best-effort MPS with a raised bond budget — the honest
        // fallback when no exact engine fits, and the failover beneath an
        // exact-MPS primary beyond the dense limit.
        if !mps_trusted || n > DENSE_LIMIT {
            let chi_cap = 128.0;
            push(
                2,
                Target {
                    chi_max: Some(128),
                    ..Target::on("aer/matrix_product_state")
                },
                c.mps_cost(n, gates, shots, chi.min(chi_cap).max(chi_cap * 0.5)),
                "best-effort MPS with a raised bond budget (expect truncation)".into(),
            );
        }

        // Tier 3: last-resort tensor engine with a tighter default bond
        // budget — admissible at any width, kept so the failover chain is
        // never a single entry.
        push(
            3,
            Target::on("tnqvm/exatn-mps"),
            c.mps_cost(n, gates, shots, chi.min(32.0)) * 1.3,
            "last-resort ExaTN MPS processor (chi<=32)".into(),
        );

        // Rank by (tier, predicted cost); the sort is stable so equal-cost
        // candidates keep their deterministic generation order.
        out.sort_by(|a, b| {
            (a.tier, a.cost)
                .partial_cmp(&(b.tier, b.cost))
                .expect("costs are finite")
        });
        out
    }
}

/// Largest power of two `<= x` (`x >= 1`).
pub(crate) fn prev_power_of_two(x: usize) -> usize {
    debug_assert!(x >= 1);
    1usize << (usize::BITS - 1 - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prev_power_of_two_rounds_down() {
        for (x, want) in [(1, 1), (2, 2), (3, 2), (4, 4), (5, 4), (6, 4), (7, 4), (8, 8), (9, 8)] {
            assert_eq!(prev_power_of_two(x), want, "x={x}");
        }
    }

    #[test]
    fn observe_drifts_corrections_within_band() {
        let planner = Planner::default();
        assert_eq!(planner.correction("nwqsim/cpu"), 1.0);
        // An engine consistently 4x slower than predicted converges to ~4.
        for _ in 0..64 {
            planner.observe("nwqsim/cpu", 1.0, 10.0);
        }
        let corr = planner.correction("nwqsim/cpu");
        assert!(corr > 3.5 && corr <= 4.0, "corr={corr}");
        // Garbage observations are ignored.
        planner.observe("nwqsim/cpu", 0.0, 1.0);
        planner.observe("nwqsim/cpu", 1.0, f64::NAN);
        assert_eq!(planner.correction("nwqsim/cpu"), corr);
    }

    #[test]
    fn corrections_can_reorder_close_candidates() {
        // ham-like: SV and MPS are within the correction band of each
        // other; a consistently slow SV engine flips the ranking.
        let deep = qfw_workloads::ham::ham_with(12, 4, 0.25);
        let ctx = SelectorContext {
            free_cores: 1,
            cloud_available: false,
        };
        let planner = Planner::default();
        let before = planner.plan(&deep, 200, ctx);
        assert_eq!(before[0].target.engine.key, "nwqsim/cpu");
        for _ in 0..64 {
            planner.observe("nwqsim/cpu", 1.0, 100.0);
            planner.observe("aer/automatic", 1.0, 100.0);
        }
        let after = planner.plan(&deep, 200, ctx);
        assert_eq!(after[0].target.engine.key, "aer/matrix_product_state");
    }

    #[test]
    fn plan_has_no_duplicates_and_is_never_single_entry() {
        let planner = Planner::default();
        let ctx = SelectorContext {
            free_cores: 8,
            cloud_available: false,
        };
        for n in [4usize, 12, 20, 27, 40] {
            let mut qc = Circuit::new(n);
            for q in 0..n - 1 {
                qc.rzz(q, q + 1, 1.5);
            }
            qc.rx(0, 0.2);
            let plan = planner.plan(&qc, 256, ctx);
            assert!(plan.len() >= 2, "n={n}: {} candidates", plan.len());
            for (i, a) in plan.iter().enumerate() {
                for b in &plan[i + 1..] {
                    assert_ne!(a.target, b.target, "duplicate target at n={n}");
                }
            }
            // Ranking is monotone in (tier, cost).
            for w in plan.windows(2) {
                assert!(
                    (w[0].tier, w[0].cost) <= (w[1].tier, w[1].cost),
                    "ranking out of order at n={n}"
                );
            }
        }
    }

    use qfw_workloads::{ghz, hhl_benchmark, tfim};

    /// Ranked recommendations from a fresh planner: the primary first,
    /// then the failover candidates QRC walks when an engine fails.
    fn rank_backends(circuit: &Circuit, ctx: SelectorContext) -> Vec<Planned> {
        Planner::default().plan(circuit, DEFAULT_PLAN_SHOTS, ctx)
    }

    fn select_backend(circuit: &Circuit, ctx: SelectorContext) -> Planned {
        rank_backends(circuit, ctx).swap_remove(0)
    }

    fn ctx(free: usize) -> SelectorContext {
        SelectorContext {
            free_cores: free,
            cloud_available: false,
        }
    }

    #[test]
    fn ghz_routes_to_stabilizer() {
        let rec = select_backend(&ghz(24), ctx(8));
        assert_eq!(rec.target.engine.key, "aer/stabilizer");
        assert!(rec.rationale.contains("Clifford"));
    }

    #[test]
    fn tfim_routes_to_mps() {
        let rec = select_backend(&tfim(20), ctx(8));
        assert_eq!(rec.target.engine.key, "aer/matrix_product_state");
    }

    #[test]
    fn ham_small_routes_to_serial_sv() {
        // HAM is nearest-neighbour but its per-cut rzz count (steps) pushes
        // the effective bond dimension high enough that the predicted MPS
        // cost loses to a 10-qubit dense sweep.
        let deep = qfw_workloads::ham::ham_with(10, 12, 0.25);
        let rec = select_backend(&deep, ctx(1));
        assert_eq!(rec.target.engine.key, "nwqsim/cpu");
    }

    #[test]
    fn large_entangled_routes_to_distributed_sv() {
        let deep = qfw_workloads::ham::ham_with(22, 12, 0.25);
        let rec = select_backend(&deep, ctx(8));
        assert_eq!(rec.target.engine.key, "nwqsim/mpi");
        assert!(rec.target.ranks >= 2);
        assert!(rec.target.ranks.is_power_of_two());
    }

    #[test]
    fn hhl_routes_to_dense() {
        let (circuit, _) = hhl_benchmark(9);
        let rec = select_backend(&circuit, ctx(1));
        assert_eq!(rec.target.engine.names().0, "nwqsim");
    }

    #[test]
    fn beyond_dense_nearest_neighbor_stays_mps() {
        let rec = select_backend(&tfim(40), ctx(8));
        assert_eq!(rec.target.engine.key, "aer/matrix_product_state");
    }

    #[test]
    fn ranked_list_leads_with_primary_and_dedupes() {
        let ranked = rank_backends(&ghz(8), ctx(8));
        assert_eq!(ranked[0], select_backend(&ghz(8), ctx(8)));
        assert!(ranked.len() >= 2, "no failover candidates");
        for (i, a) in ranked.iter().enumerate() {
            for b in &ranked[i + 1..] {
                assert_ne!(a.target.engine, b.target.engine, "duplicate candidate");
            }
        }
    }

    #[test]
    fn ranked_list_keeps_cloud_admissible() {
        // 27 qubits, nearest-neighbour but strongly entangling: primary is
        // the cloud, fallback must stay inside what MPS can attempt.
        let mut qc = qfw_circuit::Circuit::new(27);
        for q in 0..26 {
            qc.rzz(q, q + 1, 1.5);
        }
        let ranked = rank_backends(
            &qc,
            SelectorContext {
                free_cores: 8,
                cloud_available: true,
            },
        );
        assert_eq!(ranked[0].target.engine.key, "ionq/simulator");
        assert!(ranked
            .iter()
            .any(|r| r.target.engine.key == "aer/matrix_product_state"));
    }

    #[test]
    fn beyond_dense_long_range_prefers_cloud_when_available() {
        // A wide, long-range, non-Clifford circuit.
        let mut qc = qfw_circuit::Circuit::new(28);
        for q in 0..28 {
            qc.ry(q, 0.3);
        }
        for q in 0..14 {
            qc.rzz(q, 27 - q, 0.4);
        }
        let with_cloud = select_backend(
            &qc,
            SelectorContext {
                free_cores: 8,
                cloud_available: true,
            },
        );
        assert_eq!(with_cloud.target.engine.key, "ionq/simulator");
        let without = select_backend(&qc, ctx(8));
        assert_eq!(without.target.engine.key, "aer/matrix_product_state");
        assert_eq!(without.target.chi_max, Some(128));
    }

    /// Regression for the rank-sizing bug: `free_cores.next_power_of_two()`
    /// rounded *up* (5 free cores -> 8 ranks), oversubscribing the
    /// allocation, and the old `is_power_of_two` guard after it was dead
    /// code. Ranks must round *down* to the previous power of two.
    #[test]
    fn distributed_ranks_never_oversubscribe_free_cores() {
        let deep = qfw_workloads::ham::ham_with(22, 12, 0.25);
        for (free, want) in [(3usize, 2usize), (5, 4), (6, 4)] {
            let rec = select_backend(&deep, ctx(free));
            assert_eq!(rec.target.engine.key, "nwqsim/mpi", "free={free}");
            assert_eq!(rec.target.ranks, want, "free={free}");
            assert!(rec.target.ranks <= free, "oversubscribed at free={free}");
            assert!(rec.target.ranks.is_power_of_two());
        }
    }

    /// Regression for the failover-gap bug: beyond `DENSE_LIMIT` the
    /// best-effort-MPS primary used to dedupe against the only fallback,
    /// leaving QRC a single-entry list. The ranked list must keep >=2
    /// distinct targets (overrides included) whenever a second engine is
    /// admissible.
    #[test]
    fn beyond_dense_list_always_has_a_failover() {
        // Long-range, strongly entangling, no cloud: the old code returned
        // exactly one candidate here.
        let mut qc = qfw_circuit::Circuit::new(30);
        for q in 0..15 {
            qc.rzz(q, 29 - q, 1.2);
        }
        let ranked = rank_backends(&qc, ctx(8));
        assert!(ranked.len() >= 2, "single-entry plan: {ranked:?}");
        for (i, a) in ranked.iter().enumerate() {
            for b in &ranked[i + 1..] {
                assert_ne!(a.target, b.target, "duplicate target");
            }
        }
        // Nearest-neighbour weak entanglers beyond the dense limit: the
        // exact-MPS primary and the raised-bond best-effort variant differ
        // only in `chi_max` and must both be there.
        let ranked = rank_backends(&tfim(40), ctx(8));
        assert!(ranked.len() >= 2);
        let mps_variants = ranked
            .iter()
            .filter(|r| r.target.engine.key == "aer/matrix_product_state")
            .count();
        assert!(mps_variants >= 2, "chi_max variant is missing");
    }

    /// The two cloud-admissibility checks used to be independent literal
    /// `29`s; both paths now share [`CLOUD_QUBIT_LIMIT`].
    #[test]
    fn cloud_admissibility_is_shared_and_capped() {
        let cloud = SelectorContext {
            free_cores: 8,
            cloud_available: true,
        };
        let wide = |n: usize| {
            let mut qc = qfw_circuit::Circuit::new(n);
            for q in 0..n / 2 {
                qc.rzz(q, n - 1 - q, 1.2);
            }
            qc
        };
        let at_cap = wide(CLOUD_QUBIT_LIMIT);
        assert_eq!(select_backend(&at_cap, cloud).target.engine.key, "ionq/simulator");
        assert!(rank_backends(&at_cap, cloud)
            .iter()
            .any(|r| r.target.engine.key == "ionq/simulator"));
        let over_cap = wide(CLOUD_QUBIT_LIMIT + 1);
        assert_ne!(select_backend(&over_cap, cloud).target.engine.key, "ionq/simulator");
        assert!(rank_backends(&over_cap, cloud)
            .iter()
            .all(|r| r.target.engine.key != "ionq/simulator"));
    }
}
