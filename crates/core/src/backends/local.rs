//! The local runner: the Backend-QPM of every engine-table row that runs in
//! this process — the NWQ-Sim, Qiskit-Aer, TN-QVM and QTensor analogs.
//!
//! Admission has picked the row and checked the job against it, so what
//! is left is the paper's last two duties, once for all four backends:
//! lease `plan.cores`, launch the engine the row's [`Sim`] column names
//! with the plan's typed values, and marshal its outcome into a
//! [`QfwResult`] named by the plan.
//!
//! * `nwqsim/{cpu,openmp}` ([`Sim::Dense`]): the state-vector engine, serial
//!   or threaded over one LLC domain; the only row that honours `fusion`,
//!   runs noise trajectories and Clifford-prefix partitions.
//! * `nwqsim/mpi` ([`Sim::Distributed`]) and `aer/statevector` past one rank
//!   ([`Sim::Chunked`]): the one distributed executor. At one rank
//!   `aer/statevector` is the serial fused dense engine.
//! * `aer/matrix_product_state`, `tnqvm/exatn-mps` ([`Sim::Mps`]): MPS, which
//!   the paper finds "do[es] not scale as effectively" with ranks. The
//!   runner stamps the SVDs the run made and the sampler's prefix-tree
//!   nodes as `work.*`, beside `max_bond` and `trunc_error`.
//! * `aer/stabilizer` ([`Sim::Stabilizer`]): the tableau. `aer/automatic`
//!   arrives on whichever of the `aer` rows admission picked, and says which.
//! * `qtensor/*` ([`Sim::TensorNetwork`]): full-state contraction, though
//!   QTensor is built for lightcone expectations. Admission laid out the
//!   job's contraction plan and refused its width; the runner contracts
//!   exactly that plan, plans nothing itself, and stamps the plan's widest
//!   rank and multiply-adds as `work.*`. `mpi` leases its ranks without
//!   splitting the contraction across them, which is why QTensor gains
//!   nothing from ranks in Fig. 3.

use crate::backends::{BackendQpm, ExecContext};
use crate::error::QfwError;
use crate::plan::{Form, ResolvedJob, Sim};
use crate::result::QfwResult;
use crate::spec::extras;
use qfw_circuit::{Circuit, Counts, Op};
use qfw_hpc::{Allocation, Stopwatch};
use qfw_sim_mps::{MpsConfig, MpsSimulator};
use qfw_sim_stab::{StabSimulator, Tableau};
use qfw_sim_sv::dist::{run_distributed_plan, DistPlan};
use qfw_sim_sv::engine::SvOutcome;
use qfw_sim_sv::{FusionLevel, SvConfig, SvSimulator, Threading};
use std::sync::Arc;

/// The Backend-QPM of every local row. It holds nothing between jobs.
#[derive(Debug, Default)]
pub struct LocalRunner;

impl BackendQpm for LocalRunner {
    fn execute(&self, job: &ResolvedJob, ctx: &ExecContext<'_>) -> Result<QfwResult, QfwError> {
        let plan = &*job.plan;
        let total = Stopwatch::start();
        let mut result = QfwResult::new(plan.backend, plan.subbackend, job.shots);
        result.profile.marshal_secs = job.marshal_secs;
        result.profile.ranks = plan.ranks;
        if plan.method != plan.subbackend {
            // `aer/automatic`: the method admission picked.
            result.note("method", plan.method);
        }
        let lease = ctx.lease_cores(plan.cores)?;
        let circuit = job.concrete();
        let (shots, seed) = (job.shots, job.seed);
        match plan.engine().sim {
            Sim::Distributed => run_on_ranks(&circuit, job, ctx, &lease, &mut result),
            Sim::Chunked if plan.ranks > 1 => run_on_ranks(&circuit, job, ctx, &lease, &mut result),
            Sim::Dense | Sim::Chunked => run_dense(&circuit, job, ctx, &mut result),
            Sim::Mps(_) => {
                let config = MpsConfig {
                    chi_max: plan.chi_max,
                    trunc_eps: plan.trunc_eps,
                };
                let out = MpsSimulator::new(config).execute(&circuit, shots, seed);
                result.counts = out.counts;
                result.profile.exec_secs = out.gate_time.as_secs_f64();
                result.profile.sample_secs = out.sample_time.as_secs_f64();
                result.note("max_bond", out.max_bond);
                result.note("trunc_error", format!("{:.3e}", out.trunc_error));
                result.note("work.svds", out.svds);
                result.note("work.sample_nodes", out.sample_nodes);
                if plan.requested_ranks > 1 {
                    let why = "mps is sequential along the bond chain";
                    result.note("ranks_ignored", format!("{} ({why})", plan.requested_ranks));
                }
                Ok(())
            }
            Sim::Stabilizer => StabSimulator.execute(&circuit, shots, seed).map(|out| {
                result.counts = out.counts;
                result.profile.exec_secs = out.total_time.as_secs_f64();
            }),
            Sim::TensorNetwork(order) => {
                let contraction = plan.contraction.as_deref().expect("planned at admission");
                let out = contraction.execute(&circuit, shots, seed);
                result.counts = out.counts;
                result.profile.exec_secs = out.contract_time.as_secs_f64();
                result.profile.sample_secs = out.sample_time.as_secs_f64();
                result.note("order", format!("{order:?}").to_lowercase());
                result.note("work.contraction_width", contraction.widest());
                result.note("work.multiply_adds", contraction.multiply_adds());
                Ok(())
            }
            Sim::Cloud | Sim::Pending(_) | Sim::Automatic | Sim::Planner => {
                unreachable!(
                    "admission never hands {} to the local runner",
                    plan.engine().key
                )
            }
        }
        .map_err(QfwError::Execution)?;
        // Compiler handoff: the O3 noise-aware layout pass annotates its
        // predicted log-fidelity; surface it on the result for analysis.
        if let Some(pf) = plan.predicted_fidelity {
            result.note(extras::PREDICTED_FIDELITY, pf);
        }
        result.profile.total_secs = total.elapsed_secs();
        Ok(result)
    }
}

/// The dense state vector in this process: noise trajectories when the
/// plan carries a model, the Clifford-prefix partition when it carries a
/// seam, otherwise bind → fuse → apply → sample.
fn run_dense(
    circuit: &Circuit,
    job: &ResolvedJob,
    ctx: &ExecContext<'_>,
    result: &mut QfwResult,
) -> Result<(), String> {
    let plan = &*job.plan;
    if !plan.noise.is_empty() {
        // Trajectory-parallel on the threaded row (counts are bitwise
        // identical at any worker count), serial on `cpu`.
        let sw = Stopwatch::start();
        result.counts = qfw_sim_sv::noise::sample_trajectories(
            circuit,
            job.shots,
            job.seed,
            &plan.noise,
            plan.trajectories,
            plan.cores,
            ctx.obs,
        );
        result.profile.exec_secs = sw.elapsed_secs();
        result.note("noise", plan.noise.to_text());
        result.note("noise_trajectories", plan.trajectories);
        return Ok(());
    }
    let engine = SvSimulator::new(SvConfig {
        threading: if plan.engine().threaded() {
            Threading::Rayon
        } else {
            Threading::Serial
        },
        // Aer's chunked state vector fuses whatever `fusion` says.
        fusion: if plan.fusion || plan.engine().sim == Sim::Chunked {
            FusionLevel::Full
        } else {
            FusionLevel::None
        },
    });
    // Admission checks a seam against a concrete circuit only; a bound job
    // carrying the hint runs whole.
    let out = match (plan.partition_seam, &job.form) {
        (Some(seam), Form::Concrete(_)) => {
            run_partitioned(&engine, circuit, seam, job, ctx, result)?
        }
        _ => engine.run_traced(circuit, job.shots, job.seed, ctx.obs),
    };
    result.counts = out.counts;
    result.profile.exec_secs += out.gate_time.as_secs_f64();
    result.profile.sample_secs = out.sample_time.as_secs_f64();
    result.note("gates_applied", out.gates_applied);
    Ok(())
}

/// Hybrid Clifford-prefix partitioned execution: evolve the first `seam`
/// operations (admission has checked they are all Clifford gates or
/// barriers) on a stabilizer tableau in `O(gates * n^2 / 64)`, through the
/// same entry a stabilizer job takes ([`Tableau::evolve`]), convert the
/// tableau to dense amplitudes at the seam, and run the remaining ops on
/// the state-vector engine from that state.
///
/// The suffix runs like any dense job (fused unless `fusion=false`) and
/// samples through the same canonical path and seed as a monolithic run,
/// and the seam conversion produces every amplitude exactly (see
/// `qfw_sim_stab::extract`), so counts are bitwise comparable to running
/// the whole circuit dense.
fn run_partitioned(
    engine: &SvSimulator,
    circuit: &Circuit,
    seam: usize,
    job: &ResolvedJob,
    ctx: &ExecContext<'_>,
    result: &mut QfwResult,
) -> Result<SvOutcome<Counts>, String> {
    let n = circuit.num_qubits();
    let ops = circuit.ops();
    let sw = Stopwatch::start();
    let mut span = ctx.obs.span("engine", "stab.prefix").attr("seam_ops", seam);
    let prefix = || {
        ops[..seam].iter().filter_map(|op| match op {
            Op::Gate(g) => Some(g),
            _ => None,
        })
    };
    let amps = Tableau::evolve(n, prefix()).to_amplitudes()?;
    let prefix_gates = prefix().count();
    span.set_attr("prefix_gates", prefix_gates);
    drop(span);
    result.profile.exec_secs = sw.elapsed_secs();
    let initial = qfw_sim_sv::StateVector::from_amps(amps);
    let mut suffix = Circuit::with_clbits(n, circuit.num_clbits());
    for op in &ops[seam..] {
        suffix.push_op(op.clone());
    }
    result.note(extras::PARTITION, extras::PARTITION_CLIFFORD_PREFIX);
    result.note(extras::PARTITION_SEAM, seam);
    result.note("partition_prefix_gates", prefix_gates);
    Ok(engine.run_traced_from(initial, &suffix, job.shots, job.seed, ctx.obs))
}

/// The one distributed dense executor, behind `nwqsim/mpi` and multi-rank
/// `aer/statevector`: the register split across DVM ranks on the leased
/// cores. All routing and fusion is decided here, once, before the ranks
/// exist; they share the plan and only move amplitudes.
fn run_on_ranks(
    circuit: &Circuit,
    job: &ResolvedJob,
    ctx: &ExecContext<'_>,
    lease: &Allocation,
    result: &mut QfwResult,
) -> Result<(), String> {
    let plan = &*job.plan;
    let ranks = plan.ranks;
    if ranks != plan.requested_ranks {
        result.note("ranks_rounded", ranks);
    }
    // Compiler handoff: the layout is the plan's starting permutation —
    // free at |0…0⟩, and counts stay bitwise identical since the plan ends
    // on the flush back to the identity placement.
    if let Some(order) = &plan.layout {
        let csv: Vec<String> = order.iter().map(|q| q.to_string()).collect();
        result.note(extras::INITIAL_LAYOUT, csv.join(","));
    }
    let sw = Stopwatch::start();
    let mut span = ctx
        .obs
        .span("engine", "sv.fuse")
        .attr("ops_in", circuit.ops().len());
    let dist = Arc::new(DistPlan::build(
        circuit,
        ranks.trailing_zeros() as usize,
        plan.layout.as_deref(),
    ));
    span.set_attr("ops_out", dist.num_layers());
    drop(span);
    let plan_secs = sw.elapsed_secs();
    result.note("dist_epochs", dist.epochs());
    result.note("dist_passes", dist.passes());
    let (shots, seed) = (job.shots, job.seed);
    let obs = ctx.obs.clone();
    let rank_job = ctx.dvm.spawn(lease, ranks, move |mut rank_ctx| {
        run_distributed_plan(&mut rank_ctx, &dist, shots, seed, &obs)
    });
    let mut outcomes = rank_job.wait();
    let (out, stats) = outcomes.swap_remove(0).expect("rank 0 returns the outcome");
    result.counts = out.counts;
    result.profile.exec_secs = plan_secs + out.gate_time.as_secs_f64();
    result.profile.sample_secs = out.sample_time.as_secs_f64();
    result.note("comm_exchanges", stats.exchanges);
    result.note("comm_bytes", stats.bytes);
    Ok(())
}

/// The rows' tests, grouped by the backend that names them.
#[cfg(test)]
mod tests {
    mod aer;
    mod nwqsim;
    mod qtensor;
    mod tnqvm;
}
