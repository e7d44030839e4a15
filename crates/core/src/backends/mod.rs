//! Backend-QPMs: every engine behind the same QPM-API, so "the
//! application code remains unchanged when swapping backends" (Section 4.1).
//!
//! Of the four integration obligations the paper lists — (1) accept the
//! standardized circuit description, (2) configure engine-specific runtime
//! parameters from the runtime properties, (3) launch execution, (4)
//! marshal results — the first two are done once, for every backend, by
//! admission ([`crate::plan`]): a Backend-QPM receives a [`ResolvedJob`]
//! (parsed circuit plus typed [`crate::plan::ExecPlan`], on a row of the
//! engine table) and is left with (3) and (4). There are two:
//!
//! * [`local::LocalRunner`] runs every row that runs in this process —
//!   `nwqsim`, `aer`, `tnqvm`, `qtensor` — by matching on the row's
//!   simulator column ([`crate::plan::Sim`]): serially, rayon-threaded, or
//!   on DVM ranks.
//! * [`ionq::IonqBackend`] forwards `ionq/simulator` to the cloud provider.

pub mod ionq;
pub mod local;

use crate::error::QfwError;
use crate::plan::ResolvedJob;
use crate::result::QfwResult;
use qfw_hpc::slurm::HetJob;
use qfw_hpc::{Allocation, Dvm};
use qfw_obs::Obs;
use std::time::Duration;

/// Execution-side context handed to a Backend-QPM: the DVM for rank
/// spawning, the `hetgroup-1` lease broker for cores, and the
/// observability handle engine phases report into.
pub struct ExecContext<'a> {
    /// The PRTE-like DVM spanning the worker group.
    pub dvm: &'a Dvm,
    /// The heterogeneous job owning the worker nodes.
    pub hetjob: &'a HetJob,
    /// Index of the worker group (`hetgroup-1` in the standard layout).
    pub group: usize,
    /// Observability handle (disabled by default).
    pub obs: &'a Obs,
}

impl ExecContext<'_> {
    /// Leases `n` cores, waiting (bounded) for earlier tasks to release
    /// theirs — this is what throttles DQAOA's concurrent sub-QUBO solves
    /// to the physically available width. Admission has already refused
    /// any width the whole group could never grant ([`crate::plan`]), so the
    /// wait is for cores that will come back.
    pub fn lease_cores(&self, n: usize) -> Result<Allocation, QfwError> {
        self.hetjob
            .lease_cores(self.group, n, Duration::from_secs(300))
            .map_err(|e| QfwError::Resources(e.to_string()))
    }
}

/// The QPM-API every backend implements.
pub trait BackendQpm: Send + Sync {
    /// Executes one admitted job. A sweep point or a batch mate is a job
    /// like any other: [`crate::Qrc::run_many`] calls this once per job
    /// under one slot.
    fn execute(&self, job: &ResolvedJob, ctx: &ExecContext<'_>) -> Result<QfwResult, QfwError>;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::plan::{GroupCores, Source};
    use crate::qrc::{DispatchPolicy, Qrc};
    use crate::registry::BackendRegistry;
    use crate::spec::{BackendSpec, ExecTask};
    use qfw_circuit::{text, Circuit};
    use qfw_cloud::CloudProvider;
    use qfw_hpc::slurm::HetJobSpec;
    use qfw_hpc::ClusterSpec;
    use std::sync::Arc;

    /// A self-contained (cluster, hetjob, dvm) bundle for Backend-QPM tests.
    pub struct TestRig {
        pub hetjob: Arc<HetJob>,
        pub dvm: Arc<Dvm>,
        pub obs: Obs,
    }

    impl TestRig {
        pub fn new(nodes: usize) -> TestRig {
            let cluster = ClusterSpec::test(nodes + 1);
            let hetjob = HetJob::submit(&cluster, &HetJobSpec::qfw_standard(nodes)).unwrap();
            TestRig {
                hetjob: Arc::new(hetjob),
                dvm: Arc::new(Dvm::new(&cluster)),
                obs: Obs::disabled(),
            }
        }

        /// A one-slot QRC over this rig's worker group and the standard
        /// registry (with `ionq` on `cloud`, when given): what sweeps run
        /// through.
        pub fn qrc(&self, cloud: Option<Arc<CloudProvider>>) -> Qrc {
            let registry = BackendRegistry::standard(cloud);
            let (hetjob, dvm) = (Arc::clone(&self.hetjob), Arc::clone(&self.dvm));
            Qrc::new(registry, hetjob, dvm, 1, 1, DispatchPolicy::RoundRobin)
        }

        pub fn ctx(&self) -> ExecContext<'_> {
            ExecContext {
                dvm: &self.dvm,
                hetjob: &self.hetjob,
                group: 1,
                obs: &self.obs,
            }
        }

        /// Admits a task the way the QRC does and runs it on `backend`.
        pub fn execute(
            &self,
            backend: &dyn BackendQpm,
            task: &ExecTask,
        ) -> Result<QfwResult, QfwError> {
            let (source, group) = (Source::Wire(&task.circuit), GroupCores::of(&self.hetjob, 1));
            let job = ResolvedJob::admit(source, task.shots, task.seed, &task.spec, group)?;
            backend.execute(&job, &self.ctx())
        }
    }

    /// One sweep point as bound `qfwasm-param` text: the (unbound) skeleton
    /// plus a `bind` line carrying the point's parameters.
    pub fn materialize_point(skeleton: &str, params: &[f64]) -> String {
        let mut out = skeleton.to_string();
        text::write_bind(&mut out, params);
        out
    }

    /// A measured GHZ circuit in wire format.
    pub fn ghz_task(n: usize, shots: usize, spec: BackendSpec) -> ExecTask {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        ExecTask {
            circuit: text::dump(&qc),
            shots,
            seed: 1234,
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::TestRig;
    use super::*;

    /// `lease_cores` waits on the group's pool, not on a timer: a lease
    /// blocked behind one that holds every core is granted when that one
    /// drops, and a width the group never had is refused without waiting.
    #[test]
    fn lease_cores_waits_for_a_release_and_refuses_the_impossible() {
        let rig = TestRig::new(1);
        let total = rig.hetjob.free_cores(1);
        let all = rig.hetjob.allocate_cores(1, total).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| {
                tx.send(()).unwrap();
                rig.ctx().lease_cores(4).map(|lease| lease.len())
            });
            rx.recv().unwrap();
            assert_eq!(rig.hetjob.free_cores(1), 0);
            drop(all);
            assert_eq!(blocked.join().unwrap().unwrap(), 4);
        });
        assert_eq!(rig.hetjob.free_cores(1), total);
        let err = rig.ctx().lease_cores(total + 1).unwrap_err();
        assert!(matches!(&err, QfwError::Resources(msg) if msg.contains("hetgroup-1")), "{err}");
    }
}
