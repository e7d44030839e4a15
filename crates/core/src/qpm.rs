//! QPM — the Quantum Platform Manager.
//!
//! "The QPM acts as a central dispatcher, selecting execution backends and
//! managing task configurations" (Section 2.1). Each QPM instance is a DEFw
//! service exposing the QPM-API over RPC:
//!
//! * `run_circuit(ExecTask) -> QfwResult` — execute one task (the frontend
//!   issues these asynchronously for variational workloads);
//! * `ping() -> String` — liveness;
//! * `capabilities() -> Vec<String>` — registered backend names;
//! * `stats() -> QpmStats` — jobs accepted/completed/failed.
//!
//! Multiple QPM services can run side by side (the paper launches several
//! per job); they share one QRC and are named `qpm0`, `qpm1`, ...

use crate::error::QfwError;
use crate::qrc::Qrc;
use crate::spec::{BackendSpec, ExecTask, SweepTask};
use qfw_defw::{Defw, MethodTable};
use qfw_obs::{Obs, Span};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters exposed over the `stats` method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QpmStats {
    /// Tasks accepted.
    pub accepted: u64,
    /// Tasks completed successfully.
    pub completed: u64,
    /// Tasks that failed.
    pub failed: u64,
}

struct QpmInner {
    qrc: Arc<Qrc>,
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    name: String,
    obs: Obs,
}

impl QpmInner {
    /// The body of both run methods: `tasks` counted accepted, then all
    /// completed or all failed (a sweep counts per point, and fails whole),
    /// under a `span_name` span that nests under the DEFw `rpc.handle` span
    /// (same worker thread) and that `run` may annotate.
    fn dispatch<T>(
        &self,
        span_name: &str,
        tasks: u64,
        spec: &BackendSpec,
        run: impl FnOnce(&mut Span) -> Result<T, QfwError>,
    ) -> Result<T, String> {
        self.accepted.fetch_add(tasks, Ordering::Relaxed);
        let mut span = self
            .obs
            .span("qpm", span_name)
            .attr("backend", spec.backend.as_str())
            .attr("qpm", self.name.as_str());
        if self.obs.is_enabled() {
            self.obs.counter("qpm.dispatched").add(tasks);
        }
        let outcome = run(&mut span);
        let ended = if outcome.is_ok() {
            &self.completed
        } else {
            &self.failed
        };
        ended.fetch_add(tasks, Ordering::Relaxed);
        span.set_attr("ok", outcome.is_ok());
        outcome.map_err(|e| e.to_string())
    }
}

/// Handle to a registered QPM service.
pub struct Qpm {
    inner: Arc<QpmInner>,
}

impl Qpm {
    /// Starts a QPM service named `qpm{index}` on the RPC hub, dispatching
    /// into the shared QRC.
    pub fn start(defw: &Defw, index: usize, qrc: Arc<Qrc>) -> Qpm {
        let name = format!("qpm{index}");
        let inner = Arc::new(QpmInner {
            qrc,
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            name: name.clone(),
            obs: defw.obs().clone(),
        });

        let run_inner = Arc::clone(&inner);
        let sweep_inner = Arc::clone(&inner);
        let stats_inner = Arc::clone(&inner);
        let caps_inner = Arc::clone(&inner);
        let ping_name = name.clone();
        let service = MethodTable::new(name.clone())
            .method("ping", move |_: ()| Ok(format!("{ping_name} alive")))
            .method("run_circuit", move |task: ExecTask| {
                run_inner.dispatch("qpm.run_circuit", 1, &task.spec, |span| {
                    span.set_attr("shots", task.shots);
                    let result = run_inner.qrc.execute(&task)?;
                    // Backend selection is recorded once the QRC resolves it.
                    if let Some(selected) = result.metadata.get("auto_selected") {
                        span.set_attr("selected", selected.as_str());
                    }
                    Ok(result)
                })
            })
            .method("run_sweep", move |task: SweepTask| {
                let points = task.points.len() as u64;
                sweep_inner.dispatch("qpm.run_sweep", points, &task.spec, |span| {
                    span.set_attr("points", points);
                    sweep_inner.qrc.execute_sweep(&task)
                })
            })
            .method("capabilities", move |_: ()| {
                let _ = &caps_inner;
                Ok(crate::registry::BackendRegistry::capability_matrix()
                    .iter()
                    .map(|c| c.backend.to_string())
                    .collect::<Vec<String>>())
            })
            .method("stats", move |_: ()| {
                Ok(QpmStats {
                    accepted: stats_inner.accepted.load(Ordering::Relaxed),
                    completed: stats_inner.completed.load(Ordering::Relaxed),
                    failed: stats_inner.failed.load(Ordering::Relaxed),
                })
            })
            .build();
        defw.register(&name, service);
        Qpm { inner }
    }

    /// This QPM's service name on the RPC hub.
    pub fn service_name(&self) -> &str {
        &self.inner.name
    }

    /// Current counters (local view, no RPC).
    pub fn stats(&self) -> QpmStats {
        QpmStats {
            accepted: self.inner.accepted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qrc::DispatchPolicy;
    use crate::registry::BackendRegistry;
    use crate::result::QfwResult;
    use qfw_circuit::{text, Circuit};
    use qfw_hpc::slurm::{HetJob, HetJobSpec};
    use qfw_hpc::{ClusterSpec, Dvm};
    use std::time::Duration;

    fn rig() -> (Defw, Qpm) {
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        let qrc = Arc::new(Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            4,
            DispatchPolicy::RoundRobin,
        ));
        let defw = Defw::start(4);
        let qpm = Qpm::start(&defw, 0, qrc);
        (defw, qpm)
    }

    fn bell_task() -> ExecTask {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).measure_all();
        ExecTask {
            circuit: text::dump(&qc),
            shots: 100,
            seed: 5,
            spec: BackendSpec::of("aer", "statevector"),
        }
    }

    const T: Duration = Duration::from_secs(30);

    #[test]
    fn ping_and_capabilities() {
        let (defw, qpm) = rig();
        let client = defw.client();
        let pong: String = client.call(qpm.service_name(), "ping", &(), T).unwrap();
        assert_eq!(pong, "qpm0 alive");
        let caps: Vec<String> = client
            .call(qpm.service_name(), "capabilities", &(), T)
            .unwrap();
        assert!(caps.contains(&"nwqsim".to_string()));
    }

    #[test]
    fn run_circuit_over_rpc() {
        let (defw, qpm) = rig();
        let result: QfwResult = defw
            .client()
            .call(qpm.service_name(), "run_circuit", &bell_task(), T)
            .unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 100);
        assert_eq!(qpm.stats().completed, 1);
        assert_eq!(qpm.stats().failed, 0);
    }

    #[test]
    fn failures_counted_and_propagated() {
        let (defw, qpm) = rig();
        let mut task = bell_task();
        task.spec = BackendSpec::of("bogus", "");
        let err = defw
            .client()
            .call::<_, QfwResult>(qpm.service_name(), "run_circuit", &task, T)
            .unwrap_err();
        assert!(err.to_string().contains("bogus"));
        assert_eq!(qpm.stats().failed, 1);
    }

    #[test]
    fn stats_over_rpc_match_local() {
        let (defw, qpm) = rig();
        let client = defw.client();
        let _: QfwResult = client
            .call(qpm.service_name(), "run_circuit", &bell_task(), T)
            .unwrap();
        let remote: QpmStats = client.call(qpm.service_name(), "stats", &(), T).unwrap();
        assert_eq!(remote, qpm.stats());
        assert_eq!(remote.accepted, 1);
    }

    #[test]
    fn run_sweep_over_rpc() {
        let (defw, qpm) = rig();
        let mut template = qfw_circuit::ParamCircuit::new(4);
        for q in 0..4 {
            template.h(q);
            template.rx(q, qfw_circuit::Angle::sym(0));
        }
        template.measure_all();
        let task = SweepTask {
            circuit: text::dump_param(&template),
            points: (0..8)
                .map(|i| crate::spec::SweepPointSpec {
                    params: vec![0.1 * (i + 1) as f64],
                    shots: 64,
                    seed: 40 + i as u64,
                })
                .collect(),
            spec: BackendSpec::of("nwqsim", "cpu"),
        };
        let results: Vec<QfwResult> = defw
            .client()
            .call(qpm.service_name(), "run_sweep", &task, T)
            .unwrap();
        assert_eq!(results.len(), 8);
        for r in &results {
            assert_eq!(r.counts.values().sum::<usize>(), 64);
        }
        // Sweep stats count per point.
        assert_eq!(qpm.stats().accepted, 8);
        assert_eq!(qpm.stats().completed, 8);
    }

    #[test]
    fn multiple_qpm_services_coexist() {
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        let qrc = Arc::new(Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            4,
            DispatchPolicy::RoundRobin,
        ));
        let defw = Defw::start(4);
        let qpm0 = Qpm::start(&defw, 0, Arc::clone(&qrc));
        let qpm1 = Qpm::start(&defw, 1, qrc);
        let client = defw.client();
        let _: QfwResult = client.call("qpm0", "run_circuit", &bell_task(), T).unwrap();
        let _: QfwResult = client.call("qpm1", "run_circuit", &bell_task(), T).unwrap();
        assert_eq!(qpm0.stats().completed, 1);
        assert_eq!(qpm1.stats().completed, 1);
    }
}
