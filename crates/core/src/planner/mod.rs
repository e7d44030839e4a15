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
//! Coefficients start from the checked-in `results/BENCH_sv.json`
//! calibration and drift toward observed reality via EWMA updates fed by
//! the same measured run times qfw-obs records under `qpm.run_circuit` /
//! `plan.actual_us.*` (see [`Planner::observe`]).
//!
//! The planner also proposes the first *hybrid partition*: a maximal
//! Clifford prefix executed on the stabilizer tableau, converted to a
//! dense state vector at the seam, and continued on the SV engine
//! ([`partition`]). A winning split surfaces as an `nwqsim/cpu` candidate
//! carrying `partition=clifford_prefix` / `partition_seam=<ops>` extras,
//! so the cache key, scheduler, and result metadata all see it.

pub mod cost;
pub mod partition;

pub use cost::{effective_chi, CostCoefficients};
pub use partition::{plan_partition, PartitionPlan, PARTITION_MIN_PREFIX_GATES};

use crate::spec::BackendSpec;
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

/// A scored recommendation.
#[derive(Clone, Debug, PartialEq)]
pub struct Recommendation {
    /// The backend/sub-backend to use.
    pub spec: BackendSpec,
    /// Human-readable rationale (logged by callers).
    pub rationale: String,
}

/// A ranked execution candidate: the public [`Recommendation`] plus the
/// planner's internals (predicted cost and quality tier).
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    /// Backend spec + rationale, as handed to QRC.
    pub rec: Recommendation,
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
    /// Multiplicative per-engine corrections, keyed `backend/subbackend`.
    corrections: RwLock<BTreeMap<String, f64>>,
}

impl Planner {
    /// A planner with explicit coefficients (e.g. freshly calibrated).
    pub fn new(coeffs: CostCoefficients) -> Self {
        Planner {
            coeffs,
            corrections: RwLock::new(BTreeMap::new()),
        }
    }

    /// Calibrates from a `BENCH_sv.json`-shaped report, falling back to
    /// the built-in defaults when the text does not parse as one.
    pub fn calibrated_from(bench_json: &str) -> Self {
        Planner::new(CostCoefficients::from_bench_json(bench_json).unwrap_or_default())
    }

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
    /// within quality tier. The list is never empty, never contains a
    /// duplicate spec, and holds at least two entries whenever a second
    /// engine is admissible (QRC's failover chain depends on it).
    pub fn plan(&self, circuit: &Circuit, shots: usize, ctx: SelectorContext) -> Vec<Planned> {
        let n = circuit.num_qubits();
        let shots = if shots == 0 { DEFAULT_PLAN_SHOTS } else { shots };
        let report = StructureReport::of(circuit);
        let gates = report.num_gates;
        let c = &self.coeffs;
        let adj = |engine: &str, secs: f64| secs * self.correction(engine);
        let mut out: Vec<Planned> = Vec::new();

        // Tier 0: Clifford circuits — polynomial tableau, any width.
        if report.clifford {
            let secs = adj("aer/automatic", c.stab_cost(n, gates, shots));
            out.push(Planned {
                rec: Recommendation {
                    spec: BackendSpec::of("aer", "automatic"),
                    rationale: format!(
                        "circuit is Clifford ({gates} gates): stabilizer fast path, \
                         predicted {secs:.1e}s"
                    ),
                },
                cost: secs,
                tier: 0,
            });
        }

        // Tier 1: exact dense engines within the dense limit.
        if n <= DENSE_LIMIT {
            let sv_secs = adj("nwqsim/cpu", c.sv_cost(n, gates, shots));
            out.push(Planned {
                rec: Recommendation {
                    spec: BackendSpec::of("nwqsim", "cpu"),
                    rationale: format!(
                        "{n}-qubit dense state vector on a single core, \
                         predicted {sv_secs:.1e}s"
                    ),
                },
                cost: sv_secs,
                tier: 1,
            });
            if n > DISTRIBUTE_ABOVE && ctx.free_cores >= 2 {
                let ranks = prev_power_of_two(ctx.free_cores).min(1 << (n / 2));
                let secs = adj("nwqsim/mpi", c.mpi_cost(n, gates, shots, ranks));
                out.push(Planned {
                    rec: Recommendation {
                        spec: BackendSpec::of("nwqsim", "mpi").with_ranks(ranks),
                        rationale: format!(
                            "{n}-qubit dense register: rank-distributed state vector \
                             over {ranks} of {} free cores, predicted {secs:.1e}s",
                            ctx.free_cores
                        ),
                    },
                    cost: secs,
                    tier: 1,
                });
            }
            if !report.clifford {
                // Aer's generic path: same dense engine underneath, a
                // little marshalling overhead on top — kept for failover
                // diversity across backend implementations.
                let secs = adj("aer/automatic", c.sv_cost(n, gates, shots) * 1.15);
                out.push(Planned {
                    rec: Recommendation {
                        spec: BackendSpec::of("aer", "automatic"),
                        rationale: format!(
                            "Aer automatic method selection, predicted {secs:.1e}s"
                        ),
                    },
                    cost: secs,
                    tier: 1,
                });
                // Hybrid partition: a deep Clifford prefix runs on the
                // tableau, converts at the seam, and finishes dense.
                if let Some(plan) = plan_partition(c, circuit, gates, shots) {
                    let secs = adj("nwqsim/cpu", plan.predicted_secs);
                    out.push(Planned {
                        rec: Recommendation {
                            spec: BackendSpec::of("nwqsim", "cpu")
                                .with_extra(
                                    crate::spec::extras::PARTITION,
                                    crate::spec::extras::PARTITION_CLIFFORD_PREFIX,
                                )
                                .with_extra(
                                    crate::spec::extras::PARTITION_SEAM,
                                    plan.seam_ops,
                                ),
                            rationale: format!(
                                "Clifford-prefix partition: {} prefix gates on the \
                                 stabilizer tableau, seam conversion, {} gates dense, \
                                 predicted {secs:.1e}s",
                                plan.prefix_gates, plan.suffix_gates
                            ),
                        },
                        cost: secs,
                        tier: 1,
                    });
                }
            }
        }

        // MPS: exact inside its trusted regime, best-effort outside it.
        let chi = effective_chi(&report, n);
        let mps_trusted = report.nearest_neighbor_only
            && chi <= c.chi_budget
            && (n <= DENSE_LIMIT || report.mean_entangling_angle < 1.0);
        if mps_trusted {
            let secs = adj("aer/matrix_product_state", c.mps_cost(n, gates, shots, chi));
            out.push(Planned {
                rec: Recommendation {
                    spec: BackendSpec::of("aer", "matrix_product_state"),
                    rationale: format!(
                        "nearest-neighbour structure keeps MPS exact at bond \
                         dimension ~{chi:.0}, predicted {secs:.1e}s"
                    ),
                },
                cost: secs,
                tier: 1,
            });
        }

        // Tier 1: the cloud provider — exact but queue-dominated, so it
        // only leads when no local exact engine is admissible.
        if ctx.cloud_available && n <= CLOUD_QUBIT_LIMIT {
            let secs = adj("ionq/simulator", c.cloud_cost(shots));
            out.push(Planned {
                rec: Recommendation {
                    spec: BackendSpec::of("ionq", "simulator"),
                    rationale: format!(
                        "{n}-qubit circuit within the cloud provider's \
                         {CLOUD_QUBIT_LIMIT}-qubit cap, predicted {secs:.1e}s \
                         (queue-dominated)"
                    ),
                },
                cost: secs,
                tier: 1,
            });
        }

        // Tier 2: best-effort MPS with a raised bond budget — the honest
        // fallback when no exact engine fits, and the failover beneath an
        // exact-MPS primary beyond the dense limit.
        if !mps_trusted || n > DENSE_LIMIT {
            let chi_cap = 128.0;
            let secs = adj(
                "aer/matrix_product_state",
                c.mps_cost(n, gates, shots, chi.min(chi_cap).max(chi_cap * 0.5)),
            );
            out.push(Planned {
                rec: Recommendation {
                    spec: BackendSpec::of("aer", "matrix_product_state")
                        .with_extra(crate::spec::extras::CHI_MAX, 128),
                    rationale: format!(
                        "best-effort MPS with a raised bond budget (expect \
                         truncation), predicted {secs:.1e}s"
                    ),
                },
                cost: secs,
                tier: 2,
            });
        }

        // Tier 3: last-resort tensor engine with a tighter default bond
        // budget — admissible at any width, kept so the failover chain is
        // never a single entry.
        {
            let secs = adj(
                "tnqvm/exatn-mps",
                c.mps_cost(n, gates, shots, chi.min(32.0)) * 1.3,
            );
            out.push(Planned {
                rec: Recommendation {
                    spec: BackendSpec::of("tnqvm", "exatn-mps"),
                    rationale: format!(
                        "last-resort ExaTN MPS processor (chi<=32), \
                         predicted {secs:.1e}s"
                    ),
                },
                cost: secs,
                tier: 3,
            });
        }

        // Rank by (tier, predicted cost); the sort is stable so equal-cost
        // candidates keep their deterministic generation order. Dedupe on
        // the *full* spec — extras included — so two MPS variants with
        // different bond budgets both stay available to failover.
        out.sort_by(|a, b| {
            (a.tier, a.cost)
                .partial_cmp(&(b.tier, b.cost))
                .expect("costs are finite")
        });
        let mut seen: Vec<BackendSpec> = Vec::new();
        out.retain(|p| {
            if seen.contains(&p.rec.spec) {
                false
            } else {
                seen.push(p.rec.spec.clone());
                true
            }
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
        assert_eq!(before[0].rec.spec.backend, "nwqsim");
        for _ in 0..64 {
            planner.observe("nwqsim/cpu", 1.0, 100.0);
            planner.observe("aer/automatic", 1.0, 100.0);
        }
        let after = planner.plan(&deep, 200, ctx);
        assert_eq!(after[0].rec.spec.subbackend, "matrix_product_state");
    }

    #[test]
    fn plan_is_deduped_and_never_single_entry() {
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
                    assert_ne!(a.rec.spec, b.rec.spec, "duplicate spec at n={n}");
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
    fn rank_backends(circuit: &Circuit, ctx: SelectorContext) -> Vec<Recommendation> {
        Planner::default()
            .plan(circuit, DEFAULT_PLAN_SHOTS, ctx)
            .into_iter()
            .map(|p| p.rec)
            .collect()
    }

    fn select_backend(circuit: &Circuit, ctx: SelectorContext) -> Recommendation {
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
        assert_eq!(rec.spec.backend, "aer");
        assert_eq!(rec.spec.subbackend, "automatic");
        assert!(rec.rationale.contains("Clifford"));
    }

    #[test]
    fn tfim_routes_to_mps() {
        let rec = select_backend(&tfim(20), ctx(8));
        assert_eq!(rec.spec.subbackend, "matrix_product_state");
    }

    #[test]
    fn ham_small_routes_to_serial_sv() {
        // HAM is nearest-neighbour but its per-cut rzz count (steps) pushes
        // the effective bond dimension high enough that the predicted MPS
        // cost loses to a 10-qubit dense sweep.
        let deep = qfw_workloads::ham::ham_with(10, 12, 0.25);
        let rec = select_backend(&deep, ctx(1));
        assert_eq!(rec.spec.backend, "nwqsim");
        assert_eq!(rec.spec.subbackend, "cpu");
    }

    #[test]
    fn large_entangled_routes_to_distributed_sv() {
        let deep = qfw_workloads::ham::ham_with(22, 12, 0.25);
        let rec = select_backend(&deep, ctx(8));
        assert_eq!(rec.spec.backend, "nwqsim");
        assert_eq!(rec.spec.subbackend, "mpi");
        assert!(rec.spec.ranks >= 2);
        assert!(rec.spec.ranks.is_power_of_two());
    }

    #[test]
    fn hhl_routes_to_dense() {
        let (circuit, _) = hhl_benchmark(9);
        let rec = select_backend(&circuit, ctx(1));
        assert_eq!(rec.spec.backend, "nwqsim");
    }

    #[test]
    fn beyond_dense_nearest_neighbor_stays_mps() {
        let rec = select_backend(&tfim(40), ctx(8));
        assert_eq!(rec.spec.subbackend, "matrix_product_state");
    }

    #[test]
    fn ranked_list_leads_with_primary_and_dedupes() {
        let ranked = rank_backends(&ghz(8), ctx(8));
        assert_eq!(ranked[0], select_backend(&ghz(8), ctx(8)));
        assert!(ranked.len() >= 2, "no failover candidates");
        for (i, a) in ranked.iter().enumerate() {
            for b in &ranked[i + 1..] {
                assert!(
                    a.spec.backend != b.spec.backend
                        || a.spec.subbackend != b.spec.subbackend,
                    "duplicate candidate {}/{}",
                    a.spec.backend,
                    a.spec.subbackend
                );
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
        assert_eq!(ranked[0].spec.backend, "ionq");
        assert!(ranked
            .iter()
            .any(|r| r.spec.subbackend == "matrix_product_state"));
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
        assert_eq!(with_cloud.spec.backend, "ionq");
        let without = select_backend(&qc, ctx(8));
        assert_eq!(without.spec.subbackend, "matrix_product_state");
        assert_eq!(without.spec.extra["chi_max"], "128");
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
            assert_eq!(rec.spec.subbackend, "mpi", "free={free}");
            assert_eq!(rec.spec.ranks, want, "free={free}");
            assert!(rec.spec.ranks <= free, "oversubscribed at free={free}");
            assert!(rec.spec.ranks.is_power_of_two());
        }
    }

    /// Regression for the failover-gap bug: beyond `DENSE_LIMIT` the
    /// best-effort-MPS primary used to dedupe against the only fallback,
    /// leaving QRC a single-entry list. The ranked list must keep >=2
    /// distinct full specs (extras included) whenever a second engine is
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
                assert_ne!(a.spec, b.spec, "duplicate full spec");
            }
        }
        // Nearest-neighbour weak entanglers beyond the dense limit: the
        // exact-MPS primary and the raised-bond best-effort variant differ
        // only in extras and must both survive dedupe.
        let ranked = rank_backends(&tfim(40), ctx(8));
        assert!(ranked.len() >= 2);
        let mps_variants = ranked
            .iter()
            .filter(|r| r.spec.subbackend == "matrix_product_state")
            .count();
        assert!(mps_variants >= 2, "chi_max variant was deduped away");
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
        assert_eq!(select_backend(&at_cap, cloud).spec.backend, "ionq");
        assert!(rank_backends(&at_cap, cloud)
            .iter()
            .any(|r| r.spec.backend == "ionq"));
        let over_cap = wide(CLOUD_QUBIT_LIMIT + 1);
        assert_ne!(select_backend(&over_cap, cloud).spec.backend, "ionq");
        assert!(rank_backends(&over_cap, cloud)
            .iter()
            .all(|r| r.spec.backend != "ionq"));
    }
}
