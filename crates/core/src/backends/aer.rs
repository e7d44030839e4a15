//! The Qiskit-Aer analog adapter: `statevector`, `matrix_product_state`,
//! `stabilizer`, and `automatic` sub-backends.
//!
//! `automatic` reproduces Aer's method-selection heuristic: Clifford
//! circuits go to the stabilizer tableau, structured low-entanglement
//! circuits to MPS, everything else to the dense state vector. Admission
//! makes the choice (`crate::plan`, which has the circuit in hand), so the
//! method's width is checked before a slot is taken; the adapter runs
//! `plan.method` and reports it in the result metadata.
//!
//! Multi-rank requests on `statevector` run on the one distributed
//! executor `nwqsim/mpi` runs (`backends::run_on_ranks`): the same plan,
//! the same cost, the same counts.

use crate::backends::{run_on_ranks, BackendQpm, ExecContext};
use crate::error::QfwError;
use crate::plan::ResolvedJob;
use crate::result::QfwResult;
use qfw_circuit::Circuit;
use qfw_hpc::Stopwatch;
use qfw_sim_mps::{MpsConfig, MpsSimulator};
use qfw_sim_stab::StabSimulator;
use qfw_sim_sv::{SvConfig, SvSimulator};

/// Qiskit-Aer analog Backend-QPM.
#[derive(Debug, Default)]
pub struct AerBackend;

impl AerBackend {
    fn run_statevector(
        &self,
        circuit: &Circuit,
        job: &ResolvedJob,
        ctx: &ExecContext<'_>,
        result: &mut QfwResult,
    ) -> Result<(), QfwError> {
        if job.plan.ranks > 1 {
            return run_on_ranks(circuit, job, ctx, result);
        }
        let _lease = ctx.lease_cores(1)?;
        let engine = SvSimulator::new(SvConfig::default());
        let out = engine.run_traced(circuit, job.shots, job.seed, ctx.obs);
        result.counts = out.counts;
        result.profile.exec_secs = out.gate_time.as_secs_f64();
        result.profile.sample_secs = out.sample_time.as_secs_f64();
        result.profile.ranks = 1;
        Ok(())
    }

    fn run_mps(
        &self,
        circuit: &Circuit,
        job: &ResolvedJob,
        ctx: &ExecContext<'_>,
        result: &mut QfwResult,
    ) -> Result<(), QfwError> {
        let _lease = ctx.lease_cores(1)?;
        let config = MpsConfig {
            chi_max: job.plan.chi_max,
            trunc_eps: job.plan.trunc_eps,
        };
        let out = MpsSimulator::new(config).execute(circuit, job.shots, job.seed);
        result.counts = out.counts;
        result.profile.exec_secs = out.gate_time.as_secs_f64();
        result.profile.sample_secs = out.sample_time.as_secs_f64();
        result.profile.ranks = 1;
        result.note("max_bond", out.max_bond);
        result.note("trunc_error", format!("{:.3e}", out.trunc_error));
        if job.plan.requested_ranks > 1 {
            // The paper: "MPS-based approaches do not scale as effectively".
            result.note("ranks_ignored", format!( "{} (mps is sequential along the bond chain)", job.plan.requested_ranks ));
        }
        Ok(())
    }

    fn run_stabilizer(
        &self,
        circuit: &Circuit,
        job: &ResolvedJob,
        ctx: &ExecContext<'_>,
        result: &mut QfwResult,
    ) -> Result<(), QfwError> {
        let _lease = ctx.lease_cores(1)?;
        let out = StabSimulator
            .execute(circuit, job.shots, job.seed)
            .map_err(QfwError::Execution)?;
        result.counts = out.counts;
        result.profile.exec_secs = out.total_time.as_secs_f64();
        result.profile.ranks = 1;
        Ok(())
    }
}

impl BackendQpm for AerBackend {
    fn name(&self) -> &'static str {
        "aer"
    }

    fn execute(
        &self,
        job: &ResolvedJob,
        ctx: &ExecContext<'_>,
    ) -> Result<QfwResult, QfwError> {
        let sub = job.plan.subbackend;
        let total = Stopwatch::start();
        let circuit = job.concrete();
        let mut result = QfwResult::new(self.name(), sub, job.shots);
        result.profile.marshal_secs = job.marshal_secs;

        if sub == "automatic" {
            result.note("method", job.plan.method);
        }
        match job.plan.method {
            "statevector" => self.run_statevector(&circuit, job, ctx, &mut result)?,
            "matrix_product_state" => self.run_mps(&circuit, job, ctx, &mut result)?,
            // The engine table's one other `aer` method.
            _ => self.run_stabilizer(&circuit, job, ctx, &mut result)?,
        }
        result.profile.total_secs = total.elapsed_secs();
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::testutil::{ghz_task, TestRig};
    use crate::spec::{BackendSpec, ExecTask};
    use qfw_circuit::text;

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
            let result = rig.execute(&AerBackend, &task).unwrap();
            assert_eq!(result.counts.values().sum::<usize>(), 400, "{sub}");
            assert_eq!(result.counts.len(), 2, "{sub}");
        }
    }

    #[test]
    fn automatic_selects_stabilizer_for_ghz() {
        let rig = TestRig::new(1);
        let task = ghz_task(8, 100, BackendSpec::of("aer", "automatic"));
        let result = rig.execute(&AerBackend, &task).unwrap();
        assert_eq!(result.metadata["method"], "stabilizer");
    }

    #[test]
    fn automatic_selects_mps_for_tfim() {
        let rig = TestRig::new(1);
        let task = tfim_task(10, 100, BackendSpec::of("aer", "automatic"));
        let result = rig.execute(&AerBackend, &task).unwrap();
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
        let result = rig.execute(&AerBackend, &task).unwrap();
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
            rig.execute(&AerBackend, &task).unwrap_err(),
            QfwError::Execution(_)
        ));
    }

    #[test]
    fn chunked_mpi_statevector_matches_serial() {
        use crate::backends::nwqsim::NwqSimBackend;
        let rig = TestRig::new(2);
        let serial = rig
            .execute(
                &NwqSimBackend,
                &tfim_task(6, 3000, BackendSpec::of("nwqsim", "cpu")),
            )
            .unwrap();
        for ranks in [2, 4] {
            let on = |backend: &dyn BackendQpm, spec: BackendSpec| {
                rig.execute(backend, &tfim_task(6, 3000, spec.with_ranks(ranks)))
                    .unwrap()
            };
            let chunked = on(&AerBackend, BackendSpec::of("aer", "statevector"));
            let mpi = on(&NwqSimBackend, BackendSpec::of("nwqsim", "mpi"));
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
        let result = rig.execute(&AerBackend, &task).unwrap();
        assert!(result.metadata.contains_key("ranks_ignored"));
    }
}
