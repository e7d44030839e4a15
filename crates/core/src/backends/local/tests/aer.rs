//! The Qiskit-Aer analog rows:
//! `aer/{automatic,statevector,matrix_product_state,stabilizer}`.

use crate::backends::local::LocalRunner;
use crate::backends::testutil::{ghz_task, TestRig};
use crate::backends::BackendQpm;
use crate::error::QfwError;
use crate::spec::{BackendSpec, ExecTask};
use qfw_circuit::text;
use qfw_circuit::Circuit;

fn tfim_task(n: usize, shots: usize, spec: BackendSpec) -> ExecTask {
    let mut qc = Circuit::new(n);
    for q in 0..n {
        qc.h(q);
    }
    for _ in 0..3 {
        for q in 0..n - 1 {
            qc.rzz(q, q + 1, 0.2);
        }
        for q in 0..n {
            qc.rx(q, 0.4);
        }
    }
    qc.measure_all();
    ExecTask {
        circuit: text::dump(&qc),
        shots,
        seed: 77,
        spec,
    }
}

#[test]
fn explicit_subbackends_run_ghz() {
    let rig = TestRig::new(1);
    for sub in ["statevector", "matrix_product_state", "stabilizer"] {
        let task = ghz_task(6, 400, BackendSpec::of("aer", sub));
        let result = rig.execute(&LocalRunner, &task).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 400, "{sub}");
        assert_eq!(result.counts.len(), 2, "{sub}");
    }
}

#[test]
fn automatic_selects_stabilizer_for_ghz() {
    let rig = TestRig::new(1);
    let task = ghz_task(8, 100, BackendSpec::of("aer", "automatic"));
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.metadata["method"], "stabilizer");
}

#[test]
fn automatic_selects_mps_for_tfim() {
    let rig = TestRig::new(1);
    let task = tfim_task(10, 100, BackendSpec::of("aer", "automatic"));
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.metadata["method"], "matrix_product_state");
    assert!(result.metadata.contains_key("max_bond"));
}

#[test]
fn automatic_falls_back_to_statevector_for_dense_nonclifford() {
    let rig = TestRig::new(1);
    let mut qc = Circuit::new(5);
    // Long-range non-Clifford entanglers defeat both fast paths.
    qc.h(0).t(1).cry(0, 4, 0.7).rzz(1, 3, 0.9).ccx(0, 2, 4);
    qc.measure_all();
    let task = ExecTask {
        circuit: text::dump(&qc),
        shots: 50,
        seed: 5,
        spec: BackendSpec::of("aer", "automatic"),
    };
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert_eq!(result.metadata["method"], "statevector");
}

#[test]
fn stabilizer_rejects_nonclifford() {
    let rig = TestRig::new(1);
    let mut qc = Circuit::new(2);
    qc.h(0).t(0);
    qc.measure_all();
    let task = ExecTask {
        circuit: text::dump(&qc),
        shots: 10,
        seed: 1,
        spec: BackendSpec::of("aer", "stabilizer"),
    };
    assert!(matches!(
        rig.execute(&LocalRunner, &task).unwrap_err(),
        QfwError::BadProperties(why) if why.contains("'t'")
    ));
}

#[test]
fn chunked_mpi_statevector_matches_serial() {
    let rig = TestRig::new(2);
    let serial = rig
        .execute(
            &LocalRunner,
            &tfim_task(6, 3000, BackendSpec::of("nwqsim", "cpu")),
        )
        .unwrap();
    for ranks in [2, 4] {
        let on = |backend: &dyn BackendQpm, spec: BackendSpec| {
            rig.execute(backend, &tfim_task(6, 3000, spec.with_ranks(ranks)))
                .unwrap()
        };
        let chunked = on(&LocalRunner, BackendSpec::of("aer", "statevector"));
        let mpi = on(&LocalRunner, BackendSpec::of("nwqsim", "mpi"));
        assert_eq!(chunked.profile.ranks, ranks);
        // One executor, one sampling scheme: the counts are bitwise.
        assert_eq!(chunked.counts, mpi.counts, "{ranks} ranks vs nwqsim/mpi");
        assert_eq!(chunked.counts, serial.counts, "{ranks} ranks vs nwqsim/cpu");
        for note in ["dist_epochs", "comm_exchanges"] {
            let noted = chunked.metadata.contains_key(note);
            assert!(noted, "{ranks} ranks: no {note}");
        }
    }
}

#[test]
fn mps_notes_ignored_ranks() {
    let rig = TestRig::new(1);
    let task = tfim_task(6, 10, BackendSpec::of("aer", "matrix_product_state").with_ranks(8));
    let result = rig.execute(&LocalRunner, &task).unwrap();
    assert!(result.metadata.contains_key("ranks_ignored"));
}
