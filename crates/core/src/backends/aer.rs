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
//! Multi-rank requests on `statevector` model Aer's chunk-based MPI mode:
//! the state is distributed, but every gate is followed by a chunk
//! synchronization barrier — the bookkeeping that keeps Aer from scaling
//! "beyond a single node" in the paper's Fig. 3e discussion.

use crate::backends::{BackendQpm, ExecContext};
use crate::error::QfwError;
use crate::plan::ResolvedJob;
use crate::result::QfwResult;
use qfw_circuit::{Circuit, Op, Readout};
use qfw_hpc::Stopwatch;
use qfw_num::rng::Rng;
use qfw_sim_mps::{MpsConfig, MpsSimulator};
use qfw_sim_stab::StabSimulator;
use qfw_sim_sv::dist::DistStateVector;
use qfw_sim_sv::{SvConfig, SvSimulator};
use std::collections::BTreeMap;
use std::sync::Arc;

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
        let ranks = job.plan.ranks;
        if ranks <= 1 {
            let _lease = ctx.lease_cores(1)?;
            let engine = SvSimulator::new(SvConfig::default());
            let out = engine.run_traced(circuit, job.shots, job.seed, ctx.obs);
            result.counts = out.counts;
            result.profile.exec_secs = out.gate_time.as_secs_f64();
            result.profile.sample_secs = out.sample_time.as_secs_f64();
            result.profile.ranks = 1;
            return Ok(());
        }
        // Chunked MPI mode: distributed state + per-gate synchronization.
        let alloc = ctx.lease_cores(ranks)?;
        let circuit = Arc::new(circuit.clone());
        let (shots, seed) = (job.shots, job.seed);
        let job = ctx.dvm.spawn(&alloc, ranks, move |mut rank_ctx| {
            let sw = Stopwatch::start();
            let readout = Readout::of(&circuit);
            let mut dsv = DistStateVector::zero(&mut rank_ctx, circuit.num_qubits());
            // Every rank draws mid-circuit outcomes from the same stream, so
            // the collapses stay in lockstep.
            let mut rng = Rng::seed_from(seed);
            let mut collapsed = BTreeMap::new();
            for (at, op) in circuit.ops().iter().enumerate() {
                match op {
                    Op::Gate(g) => dsv.apply(g),
                    Op::Measure { qubit, clbit } if !readout.is_terminal(at) => {
                        collapsed.insert(*clbit, dsv.measure(*qubit, &mut rng));
                    }
                    _ => continue,
                }
                // Chunk bookkeeping: Aer synchronizes chunk state after
                // every instruction when distributed.
                dsv.barrier();
            }
            let exec = sw.elapsed_secs();
            let sw = Stopwatch::start();
            let draws = dsv.sample_indices(shots, seed);
            draws.map(|d| (readout.counts(d, &collapsed), exec, sw.elapsed_secs()))
        });
        let mut outcomes = job.wait();
        let (counts, exec_secs, sample_secs) =
            outcomes.swap_remove(0).expect("rank 0 returns counts");
        result.counts = counts;
        result.profile.exec_secs = exec_secs;
        result.profile.sample_secs = sample_secs;
        result.profile.ranks = ranks;
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
        let out = MpsSimulator::new(config).run(circuit, job.shots, job.seed);
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
            .run(circuit, job.shots, job.seed)
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
        let rig = TestRig::new(2);
        let serial = rig
            .execute(
                &AerBackend,
                &tfim_task(6, 3000, BackendSpec::of("aer", "statevector")),
            )
            .unwrap();
        let chunked = rig
            .execute(
                &AerBackend,
                &tfim_task(6, 3000, BackendSpec::of("aer", "statevector").with_ranks(4)),
            )
            .unwrap();
        assert_eq!(chunked.profile.ranks, 4);
        // Same distribution (different sampling paths): TV distance small.
        assert!(
            serial.tv_distance(&chunked) < 0.15,
            "tv={}",
            serial.tv_distance(&chunked)
        );
    }

    #[test]
    fn mps_notes_ignored_ranks() {
        let rig = TestRig::new(1);
        let task = tfim_task(6, 10, BackendSpec::of("aer", "matrix_product_state").with_ranks(8));
        let result = rig.execute(&AerBackend, &task).unwrap();
        assert!(result.metadata.contains_key("ranks_ignored"));
    }
}
