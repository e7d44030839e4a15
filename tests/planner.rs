//! Planner-level integration tests: admissibility of every ranked
//! candidate over random circuits and contexts (the regression surface of
//! the rank-oversubscription and single-entry-failover bugs), and the
//! hybrid Clifford-prefix partition's bitwise-identity contract across the
//! full stack.

use proptest::prelude::*;
use qfw::planner::{CLOUD_QUBIT_LIMIT, DEFAULT_PLAN_SHOTS, DENSE_LIMIT};
use qfw::{BackendSpec, Planner, QfwConfig, QfwSession, SelectorContext, Target};
use qfw_circuit::analysis::is_clifford;
use qfw_circuit::Circuit;
use qfw_hpc::ClusterSpec;
use qfw_testkit::{random_circuit, random_clifford_circuit};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every candidate the planner ranks must be *admissible*: distributed
    /// ranks never exceed free cores and stay powers of two, dense engines
    /// never appear above the dense limit, the stabilizer route only on
    /// Clifford circuits, cloud only when reachable and within its width
    /// cap — and the list always offers a failover.
    #[test]
    fn all_ranked_candidates_are_admissible(
        n in 2usize..36,
        depth in 1usize..60,
        seed in 0u64..1024,
        clifford_coin in 0u8..2,
        free_cores in 1usize..64,
        cloud_coin in 0u8..2,
    ) {
        let clifford = clifford_coin == 1;
        let cloud_available = cloud_coin == 1;
        let qc = if clifford {
            random_clifford_circuit(n, depth, seed)
        } else {
            random_circuit(n, depth, seed)
        };
        let ctx = SelectorContext { free_cores, cloud_available };
        let ranked = Planner::default().plan(&qc, DEFAULT_PLAN_SHOTS, ctx);
        prop_assert!(!ranked.is_empty());

        let clifford_circuit = is_clifford(&qc);
        for planned in &ranked {
            let target = &planned.target;
            let (backend, subbackend) = target.engine.names();
            if subbackend == "mpi" {
                prop_assert!(
                    target.ranks <= free_cores,
                    "{} oversubscribed: {} ranks > {} free cores",
                    target.engine.key, target.ranks, free_cores
                );
                prop_assert!(target.ranks.is_power_of_two());
                prop_assert!((1usize << n) >= 2 * target.ranks);
            }
            if backend == "nwqsim" {
                prop_assert!(n <= DENSE_LIMIT, "dense engine ranked at {n} qubits");
            }
            if target.engine.key == "aer/automatic" {
                prop_assert!(
                    n <= DENSE_LIMIT && !clifford_circuit,
                    "aer/automatic at {n} qubits (Clifford: {clifford_circuit})"
                );
            }
            if target.engine.key == "aer/stabilizer" {
                prop_assert!(clifford_circuit, "the tableau ranked for a non-Clifford circuit");
            }
            if backend == "ionq" {
                prop_assert!(cloud_available);
                prop_assert!(n <= CLOUD_QUBIT_LIMIT);
            }
        }

        // Failover guarantee: at least two distinct targets, so a runtime
        // failure of the primary never strands the task.
        let mut distinct: Vec<&Target> = Vec::new();
        for planned in &ranked {
            if !distinct.contains(&&planned.target) {
                distinct.push(&planned.target);
            }
        }
        prop_assert_eq!(distinct.len(), ranked.len(), "a target is ranked twice");
        prop_assert!(
            distinct.len() >= 2,
            "single-entry ranked list at n={n}: {:?}",
            ranked.iter().map(|p| p.target.engine.key).collect::<Vec<_>>()
        );
    }
}

/// A circuit with a deep Clifford prefix whose stabilizer X-part has rank
/// one (a single H, then CX/CZ/S/Z ladders): every seam amplitude is then
/// `+-sqrt(0.5)` or `+-i*sqrt(0.5)` — values the dense engine reproduces
/// exactly — so partitioned counts must equal monolithic counts bitwise.
fn clifford_prefix_circuit(n: usize, layers: usize) -> (Circuit, usize) {
    let mut qc = Circuit::new(n);
    qc.h(0);
    for l in 0..layers {
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        for q in 0..n {
            if (q + l) % 2 == 0 {
                qc.s(q);
            } else {
                qc.cz(q, (q + 1) % n);
            }
        }
    }
    let seam = qc.ops().len();
    for q in 0..n {
        qc.rx(q, 0.4 + 0.07 * q as f64);
    }
    for q in 0..n - 1 {
        qc.cx(q, q + 1);
    }
    qc.measure_all();
    (qc, seam)
}

fn session() -> QfwSession {
    QfwSession::launch(&ClusterSpec::test(4), QfwConfig::default()).expect("session")
}

/// Partitioned Clifford-prefix execution through the full session stack
/// must produce *bitwise identical* counts to the monolithic unfused run
/// at the same seed.
#[test]
fn partitioned_execution_is_bitwise_identical_end_to_end() {
    let session = session();
    let (qc, seam) = clifford_prefix_circuit(10, 6);
    let mono = session
        .backend_with_spec(BackendSpec::of("nwqsim", "cpu").with_extra("fusion", false))
        .unwrap()
        .execute_sync(&qc, 400)
        .unwrap();
    let part = session
        .backend_with_spec(
            BackendSpec::of("nwqsim", "cpu")
                .with_extra("fusion", false)
                .with_extra("partition", "clifford_prefix")
                .with_extra("partition_seam", seam),
        )
        .unwrap()
        .execute_sync(&qc, 400)
        .unwrap();
    assert_eq!(part.counts, mono.counts, "partition changed sampled counts");
    assert_eq!(part.partition(), Some(("clifford_prefix", seam)));
    assert!(mono.partition().is_none());
}

/// The auto route must discover the partition itself on a deep-prefix
/// circuit: the planner issues a partitioned nwqsim plan, the backend
/// reports the seam, and the result carries the predicted cost.
#[test]
fn auto_route_partitions_deep_clifford_prefix() {
    let session = session();
    let (qc, seam) = clifford_prefix_circuit(12, 8);
    let result = session
        .backend_with_spec(BackendSpec::of("auto", ""))
        .unwrap()
        .execute_sync(&qc, 200)
        .unwrap();
    assert_eq!(result.metadata["auto_selected"], "nwqsim/cpu");
    assert_eq!(result.partition(), Some(("clifford_prefix", seam)));
    let cost = result.planned_cost().expect("auto results carry planned_cost");
    assert!(cost.is_finite() && cost > 0.0);
    assert!(result.metadata["auto_rationale"].contains("partition"));
    assert_eq!(result.counts.values().sum::<usize>(), 200);
}
