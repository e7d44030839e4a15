//! The TN-QVM analog adapter: a tensor-network virtual machine whose
//! `exatn-mps` sub-backend is the one QFw supports and tests (Table 1).
//! `ttn` and `peps` are declared but pending/planned — requesting them
//! returns the same "not available" failure a user of the real integration
//! would hit, keeping the capability matrix honest.

use crate::backends::{BackendQpm, ExecContext};
use crate::error::QfwError;
use crate::plan::ResolvedJob;
use crate::result::QfwResult;
use qfw_hpc::Stopwatch;
use qfw_sim_mps::{MpsConfig, MpsSimulator};

/// TN-QVM analog Backend-QPM.
#[derive(Debug, Default)]
pub struct TnQvmBackend;

impl BackendQpm for TnQvmBackend {
    fn name(&self) -> &'static str {
        "tnqvm"
    }

    fn execute(
        &self,
        job: &ResolvedJob,
        ctx: &ExecContext<'_>,
    ) -> Result<QfwResult, QfwError> {
        let sub = job.plan.subbackend;
        // ttn/peps are addressable so that execution reports their Table 1
        // status.
        match sub {
            "ttn" => {
                return Err(QfwError::Execution(
                    "tnqvm/ttn is currently blocked by .xasm vs qasm translation".into(),
                ))
            }
            "peps" => {
                return Err(QfwError::Execution(
                    "tnqvm/peps is architecturally supported but not yet wired".into(),
                ))
            }
            _ => {}
        }
        let total = Stopwatch::start();
        let _lease = ctx.lease_cores(1)?;
        let config = MpsConfig {
            chi_max: job.plan.chi_max,
            trunc_eps: job.plan.trunc_eps,
        };
        let out = MpsSimulator::new(config).execute(&job.concrete(), job.shots, job.seed);

        let mut result = QfwResult::new(self.name(), sub, job.shots);
        result.counts = out.counts;
        result.profile.marshal_secs = job.marshal_secs;
        result.profile.exec_secs = out.gate_time.as_secs_f64();
        result.profile.sample_secs = out.sample_time.as_secs_f64();
        result.profile.ranks = 1;
        result.profile.total_secs = total.elapsed_secs();
        result.note("max_bond", out.max_bond);
        result.note("engine", "exatn-mps");
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::testutil::{ghz_task, TestRig};
    use crate::spec::BackendSpec;

    #[test]
    fn exatn_mps_runs_ghz() {
        let rig = TestRig::new(1);
        let task = ghz_task(8, 300, BackendSpec::of("tnqvm", "exatn-mps"));
        let result = rig.execute(&TnQvmBackend, &task).unwrap();
        assert_eq!(result.counts.values().sum::<usize>(), 300);
        assert_eq!(result.counts.len(), 2);
        assert_eq!(result.metadata["engine"], "exatn-mps");
    }

    #[test]
    fn default_is_exatn_mps() {
        let rig = TestRig::new(1);
        let task = ghz_task(4, 10, BackendSpec::of("tnqvm", ""));
        let result = rig.execute(&TnQvmBackend, &task).unwrap();
        assert_eq!(result.subbackend, "exatn-mps");
    }

    #[test]
    fn pending_topologies_fail_with_table1_notes() {
        let rig = TestRig::new(1);
        for (sub, note) in [("ttn", "xasm"), ("peps", "architecturally")] {
            let task = ghz_task(4, 10, BackendSpec::of("tnqvm", sub));
            match rig.execute(&TnQvmBackend, &task).unwrap_err() {
                QfwError::Execution(msg) => assert!(msg.contains(note), "{msg}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn chi_override_applies() {
        let rig = TestRig::new(1);
        let spec = BackendSpec::of("tnqvm", "exatn-mps").with_extra("chi_max", 2);
        let task = ghz_task(6, 50, spec);
        let result = rig.execute(&TnQvmBackend, &task).unwrap();
        assert!(result.metadata["max_bond"].parse::<usize>().unwrap() <= 2);
    }
}
