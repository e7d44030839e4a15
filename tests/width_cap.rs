//! The register width limit at the front door: a few bytes declaring a
//! register wider than `qfw_circuit::MAX_REGISTER_WIDTH` — as OpenQASM 3,
//! compiled on an ingress worker, or as `qfwasm` with a huge classical
//! register on the engines whose admission reads the register — is a
//! typed refusal, not an allocation of the declared size that aborts the
//! process, and the connection that sent it keeps serving.

use qfw::registry::BackendRegistry;
use qfw::{BackendSpec, DispatchPolicy, Qrc};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use qfw_sched::ingress::client;
use qfw_sched::{
    IngressSubmitOutcome, JobEnvelope, JobStatus, SchedConfig, SchedIngress, SchedIngressConfig,
    Scheduler,
};
use qfw_workloads::ghz;
use std::sync::Arc;
use std::time::Duration;

const T: Duration = Duration::from_secs(60);

fn qrc() -> Arc<Qrc> {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let dvm = Arc::new(Dvm::new(&cluster));
    Arc::new(Qrc::new(
        BackendRegistry::standard(None),
        hetjob,
        dvm,
        1,
        2,
        DispatchPolicy::RoundRobin,
    ))
}

const WIDE_QUBITS: &str = "OPENQASM 3;\nqubit[100000000000] q;\n";
const WIDE_CLBITS: &str = "qfwasm 1\nqubits 2\nclbits 100000000000\nh q0\nmeasure q0 -> c0\n";

#[test]
fn oversized_registers_are_refused_and_the_connection_keeps_serving() {
    let sched = Scheduler::start(qrc(), Obs::disabled(), SchedConfig::default());
    let ingress = SchedIngress::start(
        sched.clone(),
        SchedIngressConfig::default(),
        Obs::disabled(),
    );
    let conn = ingress.connect();
    for (backend, sub, payload) in [
        ("nwqsim", "cpu", WIDE_QUBITS),
        ("qtensor", "numpy", WIDE_CLBITS),
        ("tnqvm", "exatn-mps", WIDE_CLBITS),
        ("aer", "stabilizer", WIDE_CLBITS),
    ] {
        let spec = BackendSpec::of(backend, sub);
        let mut oversized = JobEnvelope::new("tenant", &ghz(2), 64).with_spec(spec.clone());
        oversized.circuit = payload.to_string();
        let refusal = client::submit(&conn, &oversized, T)
            .expect_err("an oversized register is refused")
            .to_string();
        assert!(
            refusal.contains("width limit"),
            "{backend}/{sub}: {refusal}"
        );

        let ordinary = JobEnvelope::new("tenant", &ghz(3), 64).with_spec(spec);
        let id = match client::submit(&conn, &ordinary, T).unwrap() {
            IngressSubmitOutcome::Accepted(id) => id,
            other => panic!("{backend}/{sub}: expected acceptance, got {other:?}"),
        };
        match client::wait(&conn, id, T).unwrap() {
            JobStatus::Done(r) => assert_eq!(r.counts.values().sum::<usize>(), 64),
            other => panic!("{backend}/{sub}: job {id} did not complete: {other:?}"),
        }
    }
    ingress.shutdown();
    sched.shutdown();
}
