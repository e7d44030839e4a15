//! The TN-QVM analog rows: `tnqvm/exatn-mps`, and the pending `ttn`/`peps`.

use crate::backends::local::LocalRunner;
use crate::backends::testutil::{ghz_task, TestRig};
use crate::error::QfwError;
use crate::spec::BackendSpec;

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
