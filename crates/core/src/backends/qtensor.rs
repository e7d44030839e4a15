//! The QTensor (ANL) analog adapter: tree tensor-network contraction via a
//! greedy (qtree-style) planner.
//!
//! As in the paper, QFw uses this engine for **full-state contraction** even
//! though QTensor is designed for lightcone expectation estimation — the
//! `numpy` sub-backend is the thoroughly tested path. The `mpi` sub-backend
//! mirrors the mpi4py integration: ranks are leased, but the contraction
//! itself is not parallelized across them (expectation-term parallelism is
//! what QTensor distributes, not a single contraction), so it buys no
//! speedup for these workloads — consistent with Fig. 3's QTensor curves.

use crate::backends::{BackendQpm, ExecContext};
use crate::error::QfwError;
use crate::plan::ResolvedJob;
use crate::result::QfwResult;
use qfw_hpc::Stopwatch;
use qfw_sim_tn::{OrderHeuristic, TnConfig, TnSimulator};

/// QTensor analog Backend-QPM.
#[derive(Debug, Default)]
pub struct QTensorBackend;

impl BackendQpm for QTensorBackend {
    fn name(&self) -> &'static str {
        "qtensor"
    }

    fn execute(
        &self,
        job: &ResolvedJob,
        ctx: &ExecContext<'_>,
    ) -> Result<QfwResult, QfwError> {
        let sub = job.plan.subbackend;
        let total = Stopwatch::start();
        let circuit = job.concrete();

        let order = match sub {
            "sequential" => OrderHeuristic::Sequential,
            _ => OrderHeuristic::Greedy,
        };
        let ranks = job.plan.ranks;
        let _lease = ctx.lease_cores(ranks)?;

        let config = TnConfig {
            order,
            width_limit: job.plan.width_limit,
        };
        if circuit.num_qubits() > config.width_limit {
            return Err(QfwError::Execution(format!(
                "full-state contraction of {} qubits exceeds the width limit {}",
                circuit.num_qubits(),
                config.width_limit
            )));
        }
        let engine = TnSimulator::new(config);
        let out = std::panic::catch_unwind(|| engine.execute(&circuit, job.shots, job.seed))
            .map_err(|_| {
                QfwError::Execution("contraction width exceeded the memory budget".into())
            })?;

        let mut result = QfwResult::new(self.name(), sub, job.shots);
        result.counts = out.counts;
        result.profile.marshal_secs = job.marshal_secs;
        result.profile.exec_secs = out.contract_time.as_secs_f64();
        result.profile.sample_secs = out.sample_time.as_secs_f64();
        result.profile.ranks = ranks;
        result.profile.total_secs = total.elapsed_secs();
        result.note("order", format!("{order:?}").to_lowercase());
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::testutil::{ghz_task, TestRig};
    use crate::spec::BackendSpec;

    #[test]
    fn numpy_and_sequential_agree_on_ghz() {
        let rig = TestRig::new(1);
        for sub in ["numpy", "sequential"] {
            let task = ghz_task(6, 300, BackendSpec::of("qtensor", sub));
            let result = rig.execute(&QTensorBackend, &task).unwrap();
            assert_eq!(result.counts.values().sum::<usize>(), 300, "{sub}");
            assert_eq!(result.counts.len(), 2, "{sub}");
        }
    }

    #[test]
    fn width_limit_rejects_oversized_registers() {
        let rig = TestRig::new(1);
        let spec = BackendSpec::of("qtensor", "numpy").with_extra("width_limit", 5);
        let task = ghz_task(8, 10, spec);
        let err = rig.execute(&QTensorBackend, &task).unwrap_err();
        assert!(matches!(err, QfwError::Execution(_)));
    }

    #[test]
    fn mpi_leases_ranks_but_reports_them() {
        let rig = TestRig::new(2);
        let task = ghz_task(5, 50, BackendSpec::of("qtensor", "mpi").with_ranks(4));
        let result = rig.execute(&QTensorBackend, &task).unwrap();
        assert_eq!(result.profile.ranks, 4);
        assert_eq!(result.counts.values().sum::<usize>(), 50);
    }

    #[test]
    fn order_recorded_in_metadata() {
        let rig = TestRig::new(1);
        let task = ghz_task(4, 10, BackendSpec::of("qtensor", "sequential"));
        let result = rig.execute(&QTensorBackend, &task).unwrap();
        assert_eq!(result.metadata["order"], "sequential");
    }
}
