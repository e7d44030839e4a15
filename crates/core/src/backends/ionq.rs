//! The IonQ (cloud) analog adapter: routes execution through the mock
//! cloud provider's REST-shaped API instead of local HPC resources —
//! "for the cloud path, simple REST suffices" (Section 4.1).
//!
//! Only the `simulator` sub-backend runs; `hardware` is planned, exactly
//! as in Table 1, and admission refuses it as a pending row.

use crate::backends::{BackendQpm, ExecContext};
use crate::error::QfwError;
use crate::plan::ResolvedJob;
use crate::result::QfwResult;
use qfw_chaos::RetryPolicy;
use qfw_cloud::{CloudError, CloudProvider, JobRequest};
use qfw_hpc::Stopwatch;
use std::sync::Arc;
use std::time::Duration;

/// IonQ analog Backend-QPM, wrapping a shared cloud provider handle.
///
/// Cloud calls are inherently flaky — rate limits on submission,
/// provider-side job crashes — so each task runs under a [`RetryPolicy`]:
/// rejected submissions and failed jobs are re-tried with jittered
/// backoff until the policy's attempt ceiling or sleep budget runs out.
pub struct IonqBackend {
    provider: Arc<CloudProvider>,
    poll: Duration,
    deadline: Duration,
    retry: RetryPolicy,
}

impl IonqBackend {
    /// Wraps a provider connection with the default retry policy
    /// (3 attempts, 10 ms base backoff capped at 200 ms, 2 s budget).
    pub fn new(provider: Arc<CloudProvider>) -> Self {
        IonqBackend {
            provider,
            poll: Duration::from_millis(20),
            deadline: Duration::from_secs(600),
            retry: RetryPolicy::new(
                Duration::from_millis(10),
                Duration::from_millis(200),
                3,
                Duration::from_secs(2),
            ),
        }
    }

    /// Replaces the retry policy (e.g. `RetryPolicy::no_retry()` to
    /// surface the first provider error).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Shared provider handle (diagnostics).
    pub fn provider(&self) -> &Arc<CloudProvider> {
        &self.provider
    }
}

impl BackendQpm for IonqBackend {
    fn execute(
        &self,
        job: &ResolvedJob,
        _ctx: &ExecContext<'_>,
    ) -> Result<QfwResult, QfwError> {
        let total = Stopwatch::start();
        let mut schedule = self.retry.schedule();
        let (job_id, outcome) = loop {
            // No local cores are consumed: the request leaves the cluster.
            let attempt = self
                .provider
                .try_submit_job(JobRequest {
                    circuit: job.wire_text(),
                    shots: job.shots,
                    name: "qfw-task".into(),
                })
                .and_then(|job_id| {
                    self.provider
                        .wait_for(job_id, self.poll, self.deadline)
                        .map(|r| (job_id, r))
                });
            match attempt {
                Ok(done) => break done,
                // Rate limits and provider-side crashes are transient:
                // back off and resubmit. A blown poll deadline or an
                // unknown job is not.
                Err(e @ (CloudError::RateLimited | CloudError::Failed(_))) => {
                    match schedule.next_backoff() {
                        Some(backoff) => {
                            if !backoff.is_zero() {
                                std::thread::sleep(backoff);
                            }
                        }
                        None => {
                            return Err(QfwError::Execution(format!(
                                "{e} (gave up after {} attempt(s))",
                                schedule.attempts()
                            )))
                        }
                    }
                }
                Err(e) => return Err(QfwError::Execution(e.to_string())),
            }
        };

        let mut result = QfwResult::new(job.plan.backend, job.plan.subbackend, job.shots);
        result.counts = outcome.counts;
        result.profile.queue_secs = outcome.queue_secs;
        result.profile.exec_secs = outcome.exec_secs;
        result.profile.ranks = 1;
        result.profile.total_secs = total.elapsed_secs();
        result.note("cloud_job_id", job_id);
        result.note("cloud_attempts", schedule.attempts());
        // Providers that publish a calibration table execute through
        // `NoiseModel::from_calibration` on the drifted table; record
        // which snapshot this job saw for reproducibility analysis.
        if let Some(cal) = self.provider.calibration() {
            result.note("cloud_calibration", cal.content_hash().to_hex());
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::testutil::{ghz_task, TestRig};
    use crate::spec::BackendSpec;
    use qfw_cloud::CloudConfig;

    fn backend() -> IonqBackend {
        IonqBackend::new(Arc::new(CloudProvider::start(CloudConfig::instant())))
    }

    #[test]
    fn simulator_round_trip() {
        let rig = TestRig::new(1);
        let task = ghz_task(5, 200, BackendSpec::of("ionq", "simulator"));
        let result = rig.execute(&backend(), &task).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 200);
        assert!(result.metadata.contains_key("cloud_job_id"));
    }

    #[test]
    fn calibrated_provider_reports_snapshot_hash() {
        let rig = TestRig::new(1);
        let mut config = CloudConfig::instant();
        config.calibration = Some(qfw_cloud::Calibration::synthetic(8, 21));
        let b = IonqBackend::new(Arc::new(CloudProvider::start(config)));
        let task = ghz_task(5, 200, BackendSpec::of("ionq", "simulator"));
        let result = rig.execute(&b, &task).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 200);
        let hash = &result.metadata["cloud_calibration"];
        assert_eq!(hash.len(), 32, "expected a 128-bit hex hash: {hash}");
        // The uncalibrated provider publishes nothing.
        let bare = rig.execute(&backend(), &task).unwrap();
        assert!(!bare.metadata.contains_key("cloud_calibration"));
    }

    #[test]
    fn hardware_is_planned() {
        let rig = TestRig::new(1);
        let task = ghz_task(3, 10, BackendSpec::of("ionq", "hardware"));
        match rig.execute(&backend(), &task).unwrap_err() {
            QfwError::BadProperties(msg) => assert!(msg.contains("planned")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn no_local_cores_consumed() {
        let rig = TestRig::new(1);
        let before = rig.hetjob.free_cores(1);
        let task = ghz_task(4, 20, BackendSpec::of("ionq", "simulator"));
        let b = backend();
        let _ = rig.execute(&b, &task).unwrap();
        assert_eq!(rig.hetjob.free_cores(1), before);
    }

    #[test]
    fn rate_limits_are_retried_until_admitted() {
        use qfw_cloud::{FaultPlan, FaultSpec};
        let rig = TestRig::new(1);
        let plan =
            Arc::new(FaultPlan::seeded(6).inject("cloud.rate_limit", FaultSpec::first(2)));
        let provider = Arc::new(CloudProvider::start_with_chaos(
            CloudConfig::instant(),
            Arc::clone(&plan),
        ));
        let b = IonqBackend::new(provider).with_retry_policy(RetryPolicy::new(
            Duration::from_millis(1),
            Duration::from_millis(5),
            4,
            Duration::from_secs(1),
        ));
        let task = ghz_task(4, 50, BackendSpec::of("ionq", "simulator"));
        let result = rig.execute(&b, &task).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 50);
        assert_eq!(result.metadata["cloud_attempts"], "3");
        assert_eq!(plan.fired("cloud.rate_limit"), 2);
    }

    #[test]
    fn exhausted_retries_report_attempt_count() {
        use qfw_cloud::{FaultPlan, FaultSpec};
        let rig = TestRig::new(1);
        let plan = Arc::new(FaultPlan::seeded(6).inject("cloud.job_fail", FaultSpec::always()));
        let provider = Arc::new(CloudProvider::start_with_chaos(CloudConfig::instant(), plan));
        let b = IonqBackend::new(provider).with_retry_policy(RetryPolicy::new(
            Duration::from_millis(1),
            Duration::from_millis(2),
            3,
            Duration::from_secs(1),
        ));
        let task = ghz_task(3, 10, BackendSpec::of("ionq", "simulator"));
        match rig.execute(&b, &task).unwrap_err() {
            QfwError::Execution(msg) => {
                assert!(msg.contains("injected"), "msg={msg}");
                assert!(msg.contains("3 attempt"), "msg={msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn provider_failures_surface_as_execution_errors() {
        // Text the stack cannot parse never leaves the cluster (`Marshal`
        // at admission); this is the provider itself turning down a
        // job the stack accepted — one qubit past its 29-qubit simulator.
        let rig = TestRig::new(1);
        let b = backend().with_retry_policy(RetryPolicy::no_retry());
        let task = crate::spec::ExecTask {
            circuit: qfw_circuit::text::dump(&qfw_circuit::Circuit::new(30)),
            shots: 1,
            seed: 0,
            spec: BackendSpec::of("ionq", "simulator"),
        };
        match rig.execute(&b, &task).unwrap_err() {
            QfwError::Execution(msg) => assert!(msg.contains("29"), "msg={msg}"),
            other => panic!("unexpected {other:?}"),
        }
        let garbage = crate::spec::ExecTask {
            circuit: "garbage".into(),
            ..task
        };
        assert!(matches!(
            rig.execute(&b, &garbage).unwrap_err(),
            QfwError::Marshal(_)
        ));
        assert_eq!(b.provider().jobs_completed(), 1);
    }

    #[test]
    fn sweeps_forward_each_point_as_bound_wire_text() {
        let rig = TestRig::new(1);
        let task = crate::spec::SweepTask {
            circuit: "qfwasm-param 1\nqubits 2\nh q0\nrx(@0) q1\nmeasure q0 -> c0\nmeasure q1 -> c1\n"
                .into(),
            points: (0..3)
                .map(|i| crate::spec::SweepPointSpec {
                    params: vec![0.2 * i as f64],
                    shots: 40,
                    seed: i,
                })
                .collect(),
            spec: BackendSpec::of("ionq", "simulator"),
        };
        let provider = Arc::new(CloudProvider::start(CloudConfig::instant()));
        let qrc = rig.qrc(Some(Arc::clone(&provider)));
        let results = qrc.execute_sweep(&task).unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.counts.values().sum::<usize>(), 40);
        }
        assert_eq!(provider.jobs_completed(), 3);
    }
}
