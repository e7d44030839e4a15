//! Session bring-up and teardown: Fig. 1's step-1/step-2 and step-13/14.
//!
//! A [`QfwSession`] owns the whole stack for one experiment:
//! heterogeneous SLURM job → PRTE-like DVM (URI minted and shared) → DEFw
//! RPC hub → QRC worker pool → one or more QPM services → optional cloud
//! provider connection. Dropping the session performs the controlled
//! teardown: QPM services unregister, worker allocations release, and the
//! "SLURM job" ends.

use crate::frontend::QfwBackend;
use crate::qpm::Qpm;
use crate::qrc::{DispatchPolicy, Qrc};
use crate::registry::BackendRegistry;
use crate::spec::BackendSpec;
use crate::QfwError;
use qfw_chaos::FaultPlan;
use qfw_cloud::{CloudConfig, CloudProvider};
use qfw_defw::Defw;
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_obs::Obs;
use std::sync::Arc;

/// Session-level configuration.
#[derive(Clone)]
pub struct QfwConfig {
    /// Nodes reserved for QFw services and simulator workers (hetgroup-1).
    pub qfw_nodes: usize,
    /// QPM service instances to start.
    pub qpm_services: usize,
    /// QRC worker slots per session (the paper spawns eight).
    pub qrc_workers: usize,
    /// DEFw dispatcher threads.
    pub defw_workers: usize,
    /// Cloud provider model; `None` disables the IonQ-analog path.
    pub cloud: Option<CloudConfig>,
    /// Observability handle threaded through every layer (DEFw, QPM, QRC,
    /// engines). Disabled by default; pass [`Obs::wall`] or
    /// [`Obs::virtual_clock`] to record traces.
    pub obs: Obs,
    /// Session-wide fault plan shared by DEFw and the QRC; disabled by
    /// default. When both chaos and obs are enabled, injections are
    /// annotated into the trace.
    pub chaos: Arc<FaultPlan>,
}

impl std::fmt::Debug for QfwConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QfwConfig")
            .field("qfw_nodes", &self.qfw_nodes)
            .field("qpm_services", &self.qpm_services)
            .field("qrc_workers", &self.qrc_workers)
            .field("defw_workers", &self.defw_workers)
            .field("cloud", &self.cloud)
            .field("obs", &self.obs)
            .finish_non_exhaustive()
    }
}

impl Default for QfwConfig {
    fn default() -> Self {
        QfwConfig {
            qfw_nodes: 2,
            qpm_services: 1,
            qrc_workers: 8,
            defw_workers: 8,
            cloud: None,
            obs: Obs::disabled(),
            chaos: Arc::new(FaultPlan::disabled()),
        }
    }
}

/// A live QFw deployment on a (simulated) cluster.
pub struct QfwSession {
    defw: Option<Defw>,
    qpms: Vec<Qpm>,
    qrc: Arc<Qrc>,
    dvm: Arc<Dvm>,
    hetjob: Arc<HetJob>,
    cloud: Option<Arc<CloudProvider>>,
    obs: Obs,
    next_qpm: std::sync::atomic::AtomicUsize,
}

impl QfwSession {
    /// Launches the stack on a cluster (Fig. 1, steps 1-2).
    pub fn launch(cluster: &ClusterSpec, config: QfwConfig) -> Result<QfwSession, QfwError> {
        let hetjob = Arc::new(
            HetJob::submit(cluster, &HetJobSpec::qfw_standard(config.qfw_nodes))
                .map_err(|e| QfwError::Resources(e.to_string()))?,
        );
        let dvm = Arc::new(Dvm::new(cluster));
        let obs = config.obs.clone();
        let defw = Defw::start_full(
            config.defw_workers,
            Arc::clone(&config.chaos),
            obs.clone(),
        );
        let cloud = config
            .cloud
            .map(|cfg| Arc::new(CloudProvider::start(cfg)));
        let registry = BackendRegistry::standard(cloud.clone());
        let qrc = Arc::new(
            Qrc::new(
                registry,
                Arc::clone(&hetjob),
                Arc::clone(&dvm),
                1, // hetgroup-1 hosts the workers
                config.qrc_workers,
                DispatchPolicy::RoundRobin,
            )
            .with_chaos(Arc::clone(&config.chaos))
            .with_obs(obs.clone()),
        );
        assert!(config.qpm_services >= 1, "need at least one QPM");
        let qpms = (0..config.qpm_services)
            .map(|i| Qpm::start(&defw, i, Arc::clone(&qrc)))
            .collect();
        Ok(QfwSession {
            defw: Some(defw),
            qpms,
            qrc,
            dvm,
            hetjob,
            cloud,
            obs,
            next_qpm: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// Convenience launch on a small free-communication test cluster.
    pub fn launch_local(qfw_nodes: usize) -> Result<QfwSession, QfwError> {
        let cluster = ClusterSpec::test(qfw_nodes + 1);
        Self::launch(
            &cluster,
            QfwConfig {
                qfw_nodes,
                ..QfwConfig::default()
            },
        )
    }

    /// The DVM URI shared across components (step-2).
    pub fn dvm_uri(&self) -> &str {
        self.dvm.uri()
    }

    /// QPM service names.
    pub fn qpm_services(&self) -> Vec<&str> {
        self.qpms.iter().map(|q| q.service_name()).collect()
    }

    /// The heterogeneous job backing the session.
    pub fn hetjob(&self) -> &Arc<HetJob> {
        &self.hetjob
    }

    /// The RPC hub, for registering additional services or opening raw
    /// clients.
    pub fn defw(&self) -> &Defw {
        self.defw.as_ref().expect("session is live")
    }

    /// The shared resource controller.
    pub fn qrc(&self) -> &Arc<Qrc> {
        &self.qrc
    }

    /// The cloud provider handle, when the cloud path is configured.
    pub fn cloud(&self) -> Option<&Arc<CloudProvider>> {
        self.cloud.as_ref()
    }

    /// The session's observability handle (disabled unless configured).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Creates a frontend bound to the given backend properties, attached
    /// to QPM services round-robin (the paper's multi-QPM layout).
    pub fn backend(&self, properties: &[(&str, &str)]) -> Result<QfwBackend, QfwError> {
        let spec = BackendSpec::from_pairs(properties)?;
        self.backend_with_spec(spec)
    }

    /// Creates a frontend from an already-built spec.
    pub fn backend_with_spec(&self, spec: BackendSpec) -> Result<QfwBackend, QfwError> {
        let defw = self.defw.as_ref().expect("session is live");
        let idx = self
            .next_qpm
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            % self.qpms.len();
        Ok(QfwBackend::connect(
            defw.client(),
            self.qpms[idx].service_name().to_string(),
            spec,
        ))
    }

    /// Aggregate QPM statistics.
    pub fn total_stats(&self) -> crate::qpm::QpmStats {
        let mut total = crate::qpm::QpmStats::default();
        for q in &self.qpms {
            let s = q.stats();
            total.accepted += s.accepted;
            total.completed += s.completed;
            total.failed += s.failed;
        }
        total
    }

    /// Controlled teardown (steps 13-14): unregister QPM services, shut the
    /// RPC hub down, release allocations. Also runs on drop.
    pub fn teardown(mut self) {
        self.teardown_inner();
    }

    fn teardown_inner(&mut self) {
        if let Some(defw) = self.defw.take() {
            for q in &self.qpms {
                defw.unregister(q.service_name());
            }
            defw.shutdown();
        }
    }
}

impl Drop for QfwSession {
    fn drop(&mut self) {
        self.teardown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::Circuit;

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    #[test]
    fn launch_execute_teardown() {
        let session = QfwSession::launch_local(2).unwrap();
        assert!(session.dvm_uri().starts_with("prte-dvm://"));
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let result = backend.execute_sync(&ghz(5), 200).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 200);
        assert_eq!(session.total_stats().completed, 1);
        session.teardown();
    }

    #[test]
    fn multiple_qpms_round_robin_frontends() {
        let cluster = ClusterSpec::test(3);
        let session = QfwSession::launch(
            &cluster,
            QfwConfig {
                qfw_nodes: 2,
                qpm_services: 2,
                ..QfwConfig::default()
            },
        )
        .unwrap();
        assert_eq!(session.qpm_services(), vec!["qpm0", "qpm1"]);
        let b0 = session.backend(&[("backend", "nwqsim")]).unwrap();
        let b1 = session.backend(&[("backend", "nwqsim")]).unwrap();
        b0.execute_sync(&ghz(4), 50).unwrap();
        b1.execute_sync(&ghz(4), 50).unwrap();
        let stats = session.total_stats();
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn cloud_path_available_when_configured() {
        let cluster = ClusterSpec::test(2);
        let session = QfwSession::launch(
            &cluster,
            QfwConfig {
                qfw_nodes: 1,
                cloud: Some(qfw_cloud::CloudConfig::instant()),
                ..QfwConfig::default()
            },
        )
        .unwrap();
        let backend = session
            .backend(&[("backend", "ionq"), ("subbackend", "simulator")])
            .unwrap();
        let result = backend.execute_sync(&ghz(4), 100).unwrap();
        assert_eq!(result.backend, "ionq");
        assert_eq!(session.cloud().unwrap().jobs_completed(), 1);
    }

    #[test]
    fn cloud_absent_by_default() {
        let session = QfwSession::launch_local(1).unwrap();
        let backend = session.backend(&[("backend", "ionq")]).unwrap();
        // The frontend builds, but execution reports the missing backend.
        let err = backend.execute_sync(&ghz(3), 10).unwrap_err();
        assert!(err.to_string().contains("ionq"));
    }

    #[test]
    fn bad_properties_rejected_at_frontend_creation() {
        let session = QfwSession::launch_local(1).unwrap();
        assert!(session.backend(&[("subbackend", "cpu")]).is_err());
        assert!(session
            .backend(&[("backend", "nwqsim"), ("ranks", "-3")])
            .is_err());
    }
}
