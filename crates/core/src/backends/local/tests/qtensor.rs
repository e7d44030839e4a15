//! The QTensor analog rows: `qtensor/{numpy,sequential,mpi}`.

use crate::backends::local::LocalRunner;
use crate::backends::testutil::{ghz_task, TestRig};
use crate::error::QfwError;
use crate::spec::{BackendSpec, ExecTask};
use qfw_circuit::text;

#[test]
fn numpy_and_sequential_agree_on_ghz() {
    let rig = TestRig::new(1);
    for sub in ["numpy", "sequential"] {
        let task = ghz_task(6, 300, BackendSpec::of("qtensor", sub));
        let result = rig.execute(&LocalRunner, &task).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 300, "{sub}");
        assert_eq!(result.counts.len(), 2, "{sub}");
    }
}

#[test]
fn width_limit_rejects_oversized_registers() {
    let rig = TestRig::new(1);
    let spec = BackendSpec::of("qtensor", "numpy").with_extra("width_limit", 5);
    let task = ghz_task(8, 10, spec);
    let err = rig.execute(&LocalRunner, &task).unwrap_err();
    assert!(matches!(err, QfwError::Resources(_)));
}

#[test]
fn mpi_leases_ranks_but_reports_them() {
    let rig = TestRig::new(2);
    let task = ghz_task(5, 50, BackendSpec::of("qtensor", "mpi").with_ranks(4));
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.profile.ranks, 4);
    assert_eq!(result.counts.values().sum::<usize>(), 50);
}

#[test]
fn order_recorded_in_metadata() {
    let rig = TestRig::new(1);
    let task = ghz_task(4, 10, BackendSpec::of("qtensor", "sequential"));
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.metadata["order"], "sequential");
}

/// The QRC runs the contraction admission laid out, and says how much work
/// it was: the `auto_mix` QAOA-12 p=1 job reports its greedy plan's widest
/// rank and multiply-adds, the numbers `tests/work_budget.rs` pins.
#[test]
fn work_is_stamped_from_the_admitted_plan() {
    let qubo = qfw_workloads::Qubo::metamaterial(12, 3, 0x51AB + 12);
    let circuit = qfw_workloads::qaoa_ansatz(&qubo, 1).bind(&[0.35, 0.46]);
    let task = ExecTask {
        circuit: text::dump(&circuit),
        shots: 256,
        seed: 7,
        spec: BackendSpec::of("qtensor", "numpy"),
    };
    let result = TestRig::new(1).qrc(None).execute(&task).unwrap();
    assert_eq!(result.metadata["work.contraction_width"], "12");
    assert_eq!(result.metadata["work.multiply_adds"], "51288");
}
