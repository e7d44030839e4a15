//! Bring-up and teardown of the system under test, through the same
//! public constructors an application uses.

use qfw::registry::BackendRegistry;
use qfw::{DispatchPolicy, QfwConfig, QfwResult, QfwSession, Qrc};
use qfw_defw::Connection;
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use qfw_sched::ingress::client;
use qfw_sched::{
    IngressSubmitOutcome, JobEnvelope, JobId, JobStatus, SchedConfig, SchedIngress,
    SchedIngressConfig, Scheduler,
};
use std::sync::Arc;
use std::time::Duration;

/// Per-call timeout: far above any op here, so it only fires on a hang.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(120);
/// QRC slots and client threads: the reference host has two cores.
pub const WORKERS: usize = 2;

/// A QRC pool on the three-node test cluster (one login node, two QFw
/// nodes), as `QfwSession::launch` builds it.
pub fn launch_qrc(obs: &Obs) -> Arc<Qrc> {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(
        HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2))
            .expect("test cluster fits the het-job"),
    );
    let dvm = Arc::new(Dvm::new(&cluster));
    Arc::new(
        Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            WORKERS,
            DispatchPolicy::RoundRobin,
        )
        .with_obs(obs.clone()),
    )
}

/// The tenant-facing front door: QRC → scheduler → ingress.
pub struct ServeStack {
    pub qrc: Arc<Qrc>,
    pub sched: Scheduler,
    pub ingress: SchedIngress,
}

impl ServeStack {
    pub fn launch(obs: &Obs) -> ServeStack {
        let qrc = launch_qrc(obs);
        let sched = Scheduler::start(Arc::clone(&qrc), obs.clone(), SchedConfig::default());
        let ingress =
            SchedIngress::start(sched.clone(), SchedIngressConfig::default(), obs.clone());
        ServeStack {
            qrc,
            sched,
            ingress,
        }
    }

    /// Stops the transport and the dispatcher and waits for their threads.
    pub fn shutdown(self) {
        self.ingress.shutdown();
        self.sched.shutdown();
    }
}

/// What a closed-loop client got back for one submission.
pub enum Served {
    /// Executed; the scheduler's id lets the harness read `job_timing`.
    Done(QfwResult, JobId),
    /// Answered from the result cache.
    Cached(QfwResult),
}

impl Served {
    pub fn result(&self) -> &QfwResult {
        match self {
            Served::Done(r, _) | Served::Cached(r) => r,
        }
    }
}

/// One closed-loop op: submit, then poll to completion. Every refusal,
/// failure or transport error is an `Err` the caller counts as failed.
pub fn serve(conn: &Connection, env: &JobEnvelope) -> Result<Served, String> {
    match client::submit(conn, env, CALL_TIMEOUT).map_err(|e| e.to_string())? {
        IngressSubmitOutcome::Cached(r) => Ok(Served::Cached(r)),
        IngressSubmitOutcome::Overloaded(info) => Err(format!("refused: {}", info.scope)),
        IngressSubmitOutcome::Accepted(id) => {
            match client::wait(conn, id, CALL_TIMEOUT).map_err(|e| e.to_string())? {
                JobStatus::Done(r) => Ok(Served::Done(r, id)),
                other => Err(format!("job {id} ended as {other:?}")),
            }
        }
    }
}

/// The hybrid-loop front door: DEFw RPC → QPM → QRC.
pub fn launch_session(obs: &Obs) -> QfwSession {
    QfwSession::launch(
        &ClusterSpec::test(3),
        QfwConfig {
            qrc_workers: WORKERS,
            defw_workers: WORKERS,
            obs: obs.clone(),
            ..QfwConfig::default()
        },
    )
    .expect("test cluster fits the session")
}
