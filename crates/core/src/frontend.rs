//! The application-facing frontend: `QfwBackend`, the analog of the
//! paper's Qiskit `BackendV2`-compatible `QFwBackend` Python class.
//!
//! Applications build circuits with the IR, pick a backend with runtime
//! properties, and call [`QfwBackend::execute`]. Execution is asynchronous
//! by default — each call returns a [`QfwJob`] handle — which is what lets
//! variational workloads keep many circuit evaluations in flight per
//! optimizer iteration (Section 4.2).

use crate::error::QfwError;
use crate::result::QfwResult;
use crate::spec::{BackendSpec, ExecTask, SweepPointSpec, SweepTask};
use qfw_circuit::{text, Circuit, ParamCircuit};
use qfw_defw::{AsyncReply, Client};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default walltime budget per job.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(7200); // the paper's 2 h cutoff

/// A drop-in backend handle bound to one QPM service and one backend spec.
pub struct QfwBackend {
    client: Client,
    qpm_service: String,
    spec: BackendSpec,
    seed: Arc<AtomicU64>,
    timeout: Duration,
}

impl QfwBackend {
    /// Binds a frontend to a QPM service with the given backend properties.
    /// (Obtain one via [`crate::session::QfwSession::backend`].)
    pub fn connect(client: Client, qpm_service: impl Into<String>, spec: BackendSpec) -> Self {
        QfwBackend {
            client,
            qpm_service: qpm_service.into(),
            spec,
            seed: Arc::new(AtomicU64::new(0x5EED)),
            timeout: DEFAULT_TIMEOUT,
        }
    }

    /// The active backend spec.
    pub fn spec(&self) -> &BackendSpec {
        &self.spec
    }

    /// Returns a clone of this frontend targeting different properties —
    /// the paper's "swapping backend/subbackend toggles engines without
    /// changing the user's quantum program".
    pub fn with_spec(&self, spec: BackendSpec) -> QfwBackend {
        QfwBackend {
            client: self.client.clone(),
            qpm_service: self.qpm_service.clone(),
            spec,
            seed: Arc::clone(&self.seed),
            timeout: self.timeout,
        }
    }

    /// Sets the per-job walltime budget (the experiment harness uses this
    /// to reproduce the two-hour cutoff marks).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Fixes the base seed (jobs still get distinct derived seeds). The
    /// handle counts from it on its own: a sibling made by
    /// [`QfwBackend::with_spec`] keeps the counter they shared.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.seed = Arc::new(AtomicU64::new(seed));
        self
    }

    /// Sends one task to the QPM; the handle collects the reply.
    fn submit<T: DeserializeOwned>(
        &self,
        method: &str,
        task: &impl Serialize,
    ) -> Result<QfwJob<T>, QfwError> {
        let reply = self.client.call_async(&self.qpm_service, method, task)?;
        Ok(QfwJob {
            reply,
            timeout: self.timeout,
        })
    }

    /// Submits a circuit asynchronously; returns immediately with a job
    /// handle.
    pub fn execute(&self, circuit: &Circuit, shots: usize) -> Result<QfwJob, QfwError> {
        let task = ExecTask {
            circuit: text::dump(circuit),
            shots,
            seed: self.seed.fetch_add(1, Ordering::Relaxed),
            spec: self.spec.clone(),
        };
        self.submit("run_circuit", &task)
    }

    /// Submits and blocks for the result.
    pub fn execute_sync(&self, circuit: &Circuit, shots: usize) -> Result<QfwResult, QfwError> {
        self.execute(circuit, shots)?.result()
    }

    /// Submits one bound evaluation of a parameterized circuit. The
    /// skeleton travels in the `qfwasm-param` wire format with a `bind`
    /// line, so same-skeleton evaluations are recognisable (and
    /// coalescible into one sweep) without masking angles.
    pub fn execute_param(
        &self,
        template: &ParamCircuit,
        params: &[f64],
        shots: usize,
    ) -> Result<QfwJob, QfwError> {
        let task = ExecTask {
            circuit: text::dump_param_bound(template, params),
            shots,
            seed: self.seed.fetch_add(1, Ordering::Relaxed),
            spec: self.spec.clone(),
        };
        self.submit("run_circuit", &task)
    }

    /// Bound parameterized submission + blocking collection.
    pub fn execute_param_sync(
        &self,
        template: &ParamCircuit,
        params: &[f64],
        shots: usize,
    ) -> Result<QfwResult, QfwError> {
        self.execute_param(template, params, shots)?.result()
    }

    /// Submits a parse-once/bind-many sweep: one skeleton, many
    /// bindings, one engine invocation. Each binding gets its own derived
    /// seed from the frontend's counter, so per-point counts are bitwise
    /// identical to submitting the same bindings through
    /// [`QfwBackend::execute_param`] in the same order.
    pub fn execute_sweep(
        &self,
        template: &ParamCircuit,
        bindings: &[Vec<f64>],
        shots: usize,
    ) -> Result<QfwSweepJob, QfwError> {
        let task = SweepTask {
            circuit: text::dump_param(template),
            points: bindings
                .iter()
                .map(|params| SweepPointSpec {
                    params: params.clone(),
                    shots,
                    seed: self.seed.fetch_add(1, Ordering::Relaxed),
                })
                .collect(),
            spec: self.spec.clone(),
        };
        self.submit("run_sweep", &task)
    }

    /// Sweep submission + blocking collection (results in binding order).
    pub fn execute_sweep_sync(
        &self,
        template: &ParamCircuit,
        bindings: &[Vec<f64>],
        shots: usize,
    ) -> Result<Vec<QfwResult>, QfwError> {
        self.execute_sweep(template, bindings, shots)?.result()
    }

    /// Submits a batch of independent circuits in one call, returning one
    /// job handle per circuit. This is the non-variational throughput path
    /// of Section 4.2 ("QFw batches independent circuit instances across
    /// available cores"): all jobs are in flight before the first result is
    /// awaited, so the QRC worker pool drains them concurrently.
    pub fn execute_batch(
        &self,
        circuits: &[Circuit],
        shots: usize,
    ) -> Result<Vec<QfwJob>, QfwError> {
        circuits
            .iter()
            .map(|circuit| self.execute(circuit, shots))
            .collect()
    }

    /// Batch submission + collection: returns results in input order,
    /// failing fast on the first error.
    pub fn execute_batch_sync(
        &self,
        circuits: &[Circuit],
        shots: usize,
    ) -> Result<Vec<QfwResult>, QfwError> {
        let jobs = self.execute_batch(circuits, shots)?;
        jobs.into_iter().map(QfwJob::result).collect()
    }
}

/// Handle to an in-flight QFw job, resolving to `T`.
pub struct QfwJob<T = QfwResult> {
    reply: AsyncReply<T>,
    timeout: Duration,
}

/// Handle to an in-flight parameter sweep (results in binding order).
pub type QfwSweepJob = QfwJob<Vec<QfwResult>>;

impl<T: DeserializeOwned> QfwJob<T> {
    /// Blocks until the result arrives (or the walltime budget expires,
    /// which maps to [`QfwError::WalltimeExceeded`]).
    pub fn result(self) -> Result<T, QfwError> {
        let limit = self.timeout;
        self.reply.wait(limit).map_err(|e| match e {
            qfw_defw::RpcError::Timeout { .. } => QfwError::WalltimeExceeded {
                limit_secs: limit.as_secs_f64(),
            },
            other => other.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qpm::Qpm;
    use crate::qrc::{DispatchPolicy, Qrc};
    use crate::registry::BackendRegistry;
    use qfw_chaos::{FaultPlan, FaultSpec};
    use qfw_defw::Defw;
    use qfw_hpc::slurm::{HetJob, HetJobSpec};
    use qfw_hpc::{ClusterSpec, Dvm};

    fn rig() -> (Defw, Qpm) {
        let (defw, qpm, _) = rig_with(FaultPlan::disabled());
        (defw, qpm)
    }

    /// A DEFw hub and `qpm0` over a four-slot QRC with `chaos` attached.
    fn rig_with(chaos: FaultPlan) -> (Defw, Qpm, Arc<Qrc>) {
        let cluster = ClusterSpec::test(3);
        let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
        let dvm = Arc::new(Dvm::new(&cluster));
        let qrc = Qrc::new(
            BackendRegistry::standard(None),
            hetjob,
            dvm,
            1,
            4,
            DispatchPolicy::RoundRobin,
        );
        let qrc = Arc::new(qrc.with_chaos(Arc::new(chaos)));
        let defw = Defw::start(4);
        let qpm = Qpm::start(&defw, 0, Arc::clone(&qrc));
        (defw, qpm, qrc)
    }

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
    fn sync_execution_round_trip() {
        let (defw, _qpm) = rig();
        let backend = QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("nwqsim", "cpu"));
        let result = backend.execute_sync(&ghz(5), 300).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 300);
        assert_eq!(result.backend, "nwqsim");
    }

    #[test]
    fn async_jobs_overlap() {
        let (defw, _qpm) = rig();
        let backend = QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("aer", "statevector"));
        let jobs: Vec<QfwJob> = (0..4).map(|_| backend.execute(&ghz(10), 50).unwrap()).collect();
        for job in jobs {
            let r = job.result().unwrap();
            assert_eq!(r.counts.values().sum::<usize>(), 50);
        }
    }

    #[test]
    fn same_code_swaps_backends() {
        // The paper's headline property: identical circuit, four engines.
        let (defw, _qpm) = rig();
        let circuit = ghz(6);
        let base = QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("nwqsim", "cpu"));
        let mut results = Vec::new();
        for spec in [
            BackendSpec::of("nwqsim", "cpu"),
            BackendSpec::of("aer", "matrix_product_state"),
            BackendSpec::of("tnqvm", "exatn-mps"),
            BackendSpec::of("qtensor", "numpy"),
        ] {
            let backend = base.with_spec(spec);
            results.push(backend.execute_sync(&circuit, 400).unwrap());
        }
        // All four sample the same GHZ distribution.
        for pair in results.windows(2) {
            assert!(
                pair[0].tv_distance(&pair[1]) < 0.12,
                "{} vs {}: tv={}",
                pair[0].backend,
                pair[1].backend,
                pair[0].tv_distance(&pair[1])
            );
        }
    }

    #[test]
    fn distinct_seeds_per_job() {
        let (defw, _qpm) = rig();
        let backend = QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("nwqsim", "cpu"));
        let a = backend.execute_sync(&ghz(4), 200).unwrap();
        let b = backend.execute_sync(&ghz(4), 200).unwrap();
        assert_ne!(a.counts, b.counts, "consecutive jobs reused a seed");
    }

    #[test]
    fn reseeding_a_sibling_leaves_the_original_alone() {
        let (defw, _qpm) = rig();
        let spec = BackendSpec::of("nwqsim", "cpu");
        let connect = || QfwBackend::connect(defw.client(), "qpm0", spec.clone());
        let (fresh, original) = (connect().with_base_seed(5), connect().with_base_seed(5));
        let sibling = original.with_spec(spec.clone()).with_base_seed(99);
        let expected = fresh.execute_sync(&ghz(4), 200).unwrap();
        assert_eq!(original.execute_sync(&ghz(4), 200).unwrap().counts, expected.counts);
        assert_ne!(sibling.execute_sync(&ghz(4), 200).unwrap().counts, expected.counts);
    }

    #[test]
    fn walltime_cutoff_maps_to_qfw_error() {
        let (defw, _qpm) = rig();
        let backend = QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("aer", "statevector"))
            .with_timeout(Duration::from_millis(1));
        // 22 qubits takes well over a millisecond on any host.
        let job = backend.execute(&ghz(22), 100).unwrap();
        match job.result() {
            Err(QfwError::WalltimeExceeded { .. }) => {}
            other => panic!("expected walltime error, got {other:?}"),
        }
    }

    #[test]
    fn batch_submission_overlaps_and_preserves_order() {
        let (defw, _qpm) = rig();
        let backend =
            QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("aer", "statevector"));
        // Mixed sizes: results must come back in input order regardless of
        // completion order.
        let circuits: Vec<Circuit> = vec![ghz(12), ghz(4), ghz(10), ghz(6)];
        let start = std::time::Instant::now();
        let results = backend.execute_batch_sync(&circuits, 100).unwrap();
        let batch_time = start.elapsed();
        assert_eq!(results.len(), 4);
        for (r, c) in results.iter().zip(&circuits) {
            assert_eq!(
                r.counts.keys().next().unwrap().len(),
                c.num_qubits(),
                "result order scrambled"
            );
        }
        // Serial lower bound sanity: batch must not be slower than 4x the
        // largest circuit alone (i.e. some overlap happened). Soft check to
        // avoid timing flakiness: just re-run serially and compare loosely.
        let start = std::time::Instant::now();
        for c in &circuits {
            backend.execute_sync(c, 100).unwrap();
        }
        let serial_time = start.elapsed();
        assert!(
            batch_time < serial_time * 3,
            "batch {batch_time:?} vs serial {serial_time:?}"
        );
    }

    fn sweep_template(n: usize) -> ParamCircuit {
        let mut t = ParamCircuit::new(n);
        for q in 0..n {
            t.h(q);
        }
        for q in 0..n - 1 {
            t.rzz(q, q + 1, qfw_circuit::Angle::scaled(0, 2.0));
        }
        for q in 0..n {
            t.rx(q, qfw_circuit::Angle::scaled(1, 2.0));
        }
        t.measure_all();
        t
    }

    #[test]
    fn execute_param_round_trip() {
        let (defw, _qpm) = rig();
        let backend = QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("nwqsim", "cpu"));
        let template = sweep_template(5);
        let result = backend.execute_param_sync(&template, &[0.3, 0.8], 256).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 256);
        // A re-binding of the skeleton is one more bound job: nothing
        // server-side remembers the first.
        let again = backend.execute_param_sync(&template, &[0.5, 0.2], 256).unwrap();
        assert_eq!(again.counts.values().sum::<usize>(), 256);
        assert!(!again.metadata.contains_key("plan_cached"));
    }

    #[test]
    fn execute_sweep_matches_sequential_param_submissions() {
        let (defw, _qpm) = rig();
        let template = sweep_template(5);
        let bindings: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.1 + 0.1 * i as f64, 1.0 - 0.1 * i as f64])
            .collect();
        // Same base seed on both frontends: point i draws the same derived
        // seed either way, so counts must be bitwise identical.
        let swept = QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("nwqsim", "cpu"))
            .with_base_seed(777);
        let sequential =
            QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("nwqsim", "cpu"))
                .with_base_seed(777);
        let sweep_results = swept.execute_sweep_sync(&template, &bindings, 200).unwrap();
        assert_eq!(sweep_results.len(), bindings.len());
        for (binding, swept_result) in bindings.iter().zip(&sweep_results) {
            let solo = sequential.execute_param_sync(&template, binding, 200).unwrap();
            assert_eq!(swept_result.counts, solo.counts);
        }
    }

    /// An admitted job whose engine fails in its slot (the
    /// `qrc.engine_panic` chaos site) reaches the caller as `Execution`.
    #[test]
    fn execution_errors_pass_through() {
        let chaos = FaultPlan::seeded(1).inject("qrc.engine_panic", FaultSpec::first(1));
        let (defw, _qpm, qrc) = rig_with(chaos);
        let backend = QfwBackend::connect(defw.client(), "qpm0", BackendSpec::of("nwqsim", "cpu"));
        match backend.execute_sync(&ghz(3), 10) {
            Err(QfwError::Execution(msg)) => assert!(msg.contains("injected"), "{msg}"),
            other => panic!("expected execution error, got {other:?}"),
        }
        assert_eq!(qrc.engine_panics(), 1);
    }
}
