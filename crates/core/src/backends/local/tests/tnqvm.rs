//! The TN-QVM analog rows: `tnqvm/exatn-mps`, and the pending `ttn`/`peps`.

use crate::backends::local::LocalRunner;
use crate::backends::testutil::{ghz_task, TestRig};
use crate::error::QfwError;
use crate::spec::{BackendSpec, ExecTask};
use qfw_circuit::text;

#[test]
fn exatn_mps_runs_ghz() {
    let rig = TestRig::new(1);
    let task = ghz_task(8, 300, BackendSpec::of("tnqvm", "exatn-mps"));
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.counts.values().sum::<usize>(), 300);
    assert_eq!(result.counts.len(), 2);
    assert_eq!(result.subbackend, "exatn-mps");
}

#[test]
fn default_is_exatn_mps() {
    let rig = TestRig::new(1);
    let task = ghz_task(4, 10, BackendSpec::of("tnqvm", ""));
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.subbackend, "exatn-mps");
}

#[test]
fn pending_topologies_fail_with_table1_notes() {
    let rig = TestRig::new(1);
    for (sub, note) in [("ttn", "xasm"), ("peps", "architecturally")] {
        let task = ghz_task(4, 10, BackendSpec::of("tnqvm", sub));
        match rig.execute(&LocalRunner, &task).unwrap_err() {
            QfwError::BadProperties(msg) => assert!(msg.contains(note), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn chi_override_applies() {
    let rig = TestRig::new(1);
    let spec = BackendSpec::of("tnqvm", "exatn-mps").with_extra("chi_max", 2);
    let task = ghz_task(6, 50, spec);
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert!(result.metadata["max_bond"].parse::<usize>().unwrap() <= 2);
}

/// The QRC stamps an MPS job's work on both MPS rows: the SVDs the run
/// made and the sampler's prefix-tree nodes. The `auto_mix` QAOA-12 p=1
/// job on `tnqvm/exatn-mps` makes the 172 SVDs `tests/work_budget.rs`
/// pins, and its 256 shots share 982 prefixes, where a walk per shot
/// takes 256 · 12 = 3 072 site steps.
#[test]
fn mps_work_is_stamped_on_both_rows() {
    let qubo = qfw_workloads::Qubo::metamaterial(12, 3, 0x51AB + 12);
    let circuit = qfw_workloads::qaoa_ansatz(&qubo, 1).bind(&[0.35, 0.46]);
    let qrc = TestRig::new(1).qrc(None);
    let work = |backend, subbackend| {
        let task = ExecTask {
            circuit: text::dump(&circuit),
            shots: 256,
            seed: 7,
            spec: BackendSpec::of(backend, subbackend),
        };
        let result = qrc.execute(&task).unwrap();
        let read = |key: &str| result.metadata[key].parse::<usize>().unwrap();
        (read("work.svds"), read("work.sample_nodes"))
    };
    // Both rows' truncation keeps this state exact, so they do the same
    // work.
    assert_eq!(work("tnqvm", "exatn-mps"), (172, 982));
    assert_eq!(work("aer", "matrix_product_state"), (172, 982));
}
