//! The NWQ-Sim (SV-Sim) analog adapter: a state-vector engine with `cpu`,
//! `openmp`, and natively-distributed `mpi` sub-backends — the backend the
//! paper finds strongest on highly-entangled GHZ/HAM workloads and the one
//! whose native MPI distribution "makes it a good fit for multi-node
//! CPU/GPU HPC runs".

use crate::backends::{
    sweep_via_execute, unmarshal_circuit, unmarshal_param, BackendQpm, ExecContext,
};
use crate::cache::{report_event, CacheConfig, CacheEvent, ShardedLru};
use crate::error::QfwError;
use crate::result::QfwResult;
use crate::spec::{BackendSpec, ExecTask, SweepTask};
use qfw_circuit::hash::ContentHash;
use qfw_circuit::{text, Circuit, ParamCircuit};
use qfw_hpc::Stopwatch;
use qfw_obs::Obs;
use qfw_sim_sv::dist::{run_distributed_laid_out, RouteStrategy};
use qfw_sim_sv::noise::NoiseModel;
use qfw_sim_sv::{
    fuse, FusionLevel, LayerPlan, SvConfig, SvSimulator, SweepError, SweepPlan, SweepPoint,
    Threading,
};
use std::sync::Arc;

/// Compiled sweep plans retained per backend instance (sharded LRU).
const PLAN_CACHE_CAP: usize = 64;
/// Layer plans of concrete circuits retained per backend instance (sharded
/// LRU).
const FUSED_CACHE_CAP: usize = 256;

/// NWQ-Sim analog Backend-QPM.
///
/// Two compiled-artifact cache tiers hang off each instance:
///
/// * Parameterized (`qfwasm-param`) tasks on the `cpu`/`openmp`
///   sub-backends run through a compile-once sweep plan cached by
///   skeleton, so variational loops stop paying per-iteration
///   transpile+fusion; single bound tasks and full sweeps share the plan
///   path, keeping their counts bitwise identical.
/// * Concrete (`qfwasm`) tasks cache their **layer plan** (the fused
///   circuit, already cut into tile groups) keyed by the canonical content
///   hash, so repeat (and near-repeat: different seed/shots) submissions
///   skip the fusion pre-pass entirely and go straight to gate
///   application.
///
/// Both tiers report `cache.{hit,miss,evict}` (and `cache.plan.*` /
/// `cache.fused.*`) counters on the per-execution obs handle.
pub struct NwqSimBackend {
    /// Compiled sweep plans keyed by hash of `sub|fusion|skeleton-text`.
    plans: ShardedLru<Arc<SweepPlan>>,
    /// Layer plans keyed by canonical circuit hash.
    fused: ShardedLru<Arc<LayerPlan>>,
}

impl Default for NwqSimBackend {
    fn default() -> Self {
        // Built over the disabled handle: instances exist before any
        // session obs does. Events are reported per-execution instead
        // (see `crate::cache::report_event`).
        let obs = Obs::disabled();
        NwqSimBackend {
            plans: ShardedLru::new(CacheConfig::with_capacity(PLAN_CACHE_CAP), &obs, "plan"),
            fused: ShardedLru::new(CacheConfig::with_capacity(FUSED_CACHE_CAP), &obs, "fused"),
        }
    }
}

impl NwqSimBackend {
    /// Resolves the task's noise model. The canonical `noise_model` text
    /// extra (the `qfw-noise` wire codec) wins; the legacy flat
    /// `noise_p1`/`noise_p2`/`noise_readout` constants are honoured
    /// otherwise.
    fn noise_of(spec: &BackendSpec) -> Result<NoiseModel, QfwError> {
        if let Some(text) = spec.extra_parsed::<String>("noise_model") {
            return NoiseModel::parse(&text).map_err(|e| QfwError::BadProperties(e.to_string()));
        }
        #[allow(deprecated)]
        Ok(NoiseModel::flat(
            spec.extra_parsed("noise_p1").unwrap_or(0.0),
            spec.extra_parsed("noise_p2").unwrap_or(0.0),
            spec.extra_parsed("noise_readout").unwrap_or(0.0),
        ))
    }

    /// Trajectory budget for noisy execution (`noise_trajectories`,
    /// default 64 — plenty for histogram statistics; raise it for tail
    /// accuracy).
    fn trajectories_of(spec: &BackendSpec) -> usize {
        spec.extra_parsed::<usize>("noise_trajectories")
            .unwrap_or(64)
            .max(1)
    }

    fn fusion_of(spec: &BackendSpec) -> FusionLevel {
        if spec
            .extra_parsed::<bool>(crate::spec::extras::FUSION)
            .unwrap_or(true)
        {
            FusionLevel::Full
        } else {
            FusionLevel::None
        }
    }

    fn engine_for(sub: &str, fusion: FusionLevel) -> SvSimulator {
        let threading = if sub == "openmp" {
            Threading::Rayon
        } else {
            Threading::Serial
        };
        SvSimulator::new(SvConfig {
            threading,
            fusion,
            ..SvConfig::default()
        })
    }

    /// Fetches (or compiles and caches) the sweep plan for a skeleton.
    /// Returns the plan and whether it was served from the cache.
    fn plan_for(
        &self,
        key: String,
        engine: &SvSimulator,
        template: &ParamCircuit,
        obs: &Obs,
    ) -> Result<(Arc<SweepPlan>, bool), SweepError> {
        let hash = ContentHash::of_bytes(key.as_bytes());
        if let Some(plan) = self.plans.get(hash) {
            report_event(obs, "plan", CacheEvent::Hit);
            return Ok((plan, true));
        }
        report_event(obs, "plan", CacheEvent::Miss);
        // Compile outside any shard lock: concurrent misses may compile
        // twice, but never block each other on a multi-millisecond fuse.
        let mut span = obs
            .span("engine", "sweep.compile")
            .attr("ops_in", template.ops().len())
            .attr("params", template.num_params());
        let plan = Arc::new(engine.compile_sweep(template)?);
        span.set_attr("slots", plan.num_slots());
        drop(span);
        if self.plans.insert(hash, Arc::clone(&plan)) {
            report_event(obs, "plan", CacheEvent::Evict);
        }
        Ok((plan, false))
    }

    /// Fetches (or fuses and caches) the layer plan of a concrete circuit.
    /// Returns the plan and whether it was served from the cache.
    fn fused_for(&self, circuit: &Circuit, obs: &Obs) -> (Arc<LayerPlan>, bool) {
        let key = ContentHash::of_bytes(text::dump(circuit).as_bytes());
        if let Some(fused) = self.fused.get(key) {
            report_event(obs, "fused", CacheEvent::Hit);
            return (fused, true);
        }
        report_event(obs, "fused", CacheEvent::Miss);
        let mut span = obs
            .span("engine", "sv.fuse")
            .attr("ops_in", circuit.ops().len());
        let fused = Arc::new(fuse(circuit));
        span.set_attr("ops_out", fused.num_layers());
        drop(span);
        if self.fused.insert(key, Arc::clone(&fused)) {
            report_event(obs, "fused", CacheEvent::Evict);
        }
        (fused, false)
    }

    /// Hybrid Clifford-prefix partitioned execution: evolve the first
    /// `seam` operations (which must all be Clifford gates or barriers) on
    /// a stabilizer tableau in `O(gates * n^2 / 64)`, convert the tableau
    /// to dense amplitudes at the seam, and run the remaining ops on the
    /// state-vector engine from that state.
    ///
    /// Sampling goes through the same canonical path and seed as a
    /// monolithic unfused run, and the seam conversion produces every
    /// amplitude exactly (see `qfw_sim_stab::extract`), so counts are
    /// bitwise comparable to running the whole circuit dense.
    fn run_partitioned(
        circuit: &Circuit,
        seam: usize,
        shots: usize,
        seed: u64,
        threading: Threading,
        obs: &Obs,
    ) -> Result<(qfw_sim_sv::engine::SvOutcome, usize, f64), QfwError> {
        use qfw_circuit::Op;
        let n = circuit.num_qubits();
        if n > qfw_sim_stab::MAX_EXTRACT_QUBITS {
            return Err(QfwError::Resources(format!(
                "clifford-prefix partition needs a dense seam state: {n} qubits \
                 exceeds the {} -qubit extraction limit",
                qfw_sim_stab::MAX_EXTRACT_QUBITS
            )));
        }
        let ops = circuit.ops();
        if seam == 0 || seam > ops.len() {
            return Err(QfwError::Execution(format!(
                "partition_seam {seam} is outside the operation list (1..={})",
                ops.len()
            )));
        }
        let sw = Stopwatch::start();
        let mut span = obs.span("engine", "stab.prefix").attr("seam_ops", seam);
        let mut tableau = qfw_sim_stab::Tableau::zero(n);
        let mut prefix_gates = 0usize;
        for op in &ops[..seam] {
            match op {
                Op::Gate(g) if g.is_clifford() => {
                    tableau.apply(g);
                    prefix_gates += 1;
                }
                Op::Barrier(_) => {}
                other => {
                    return Err(QfwError::Execution(format!(
                        "partition_seam crosses a non-Clifford operation: {other:?}"
                    )))
                }
            }
        }
        let amps = tableau.to_amplitudes().map_err(QfwError::Execution)?;
        span.set_attr("prefix_gates", prefix_gates);
        drop(span);
        let prefix_secs = sw.elapsed_secs();
        let initial = qfw_sim_sv::StateVector::from_amps(amps);
        let mut suffix = Circuit::with_clbits(n, circuit.num_clbits());
        for op in &ops[seam..] {
            suffix.push_op(op.clone());
        }
        let engine = SvSimulator::new(SvConfig {
            threading,
            fusion: FusionLevel::None,
            ..SvConfig::default()
        });
        let out = engine.run_traced_from(initial, &suffix, shots, seed, obs);
        Ok((out, prefix_gates, prefix_secs))
    }

    /// The local compile-once path for one bound parameterized task.
    fn execute_param_local(
        &self,
        task: &ExecTask,
        ctx: &ExecContext<'_>,
        sub: &'static str,
        total: Stopwatch,
    ) -> Result<QfwResult, QfwError> {
        let (template, bound, marshal_secs) = unmarshal_param(&task.circuit)?;
        let params = bound.ok_or_else(|| {
            QfwError::Marshal("parameterized task carries no 'bind' line".into())
        })?;
        if params.len() < template.num_params() {
            return Err(QfwError::Marshal(format!(
                "bind line carries {} values but the skeleton references {} parameters",
                params.len(),
                template.num_params()
            )));
        }
        let fusion = Self::fusion_of(&task.spec);
        let cores = if sub == "openmp" {
            ctx.hetjob.cluster().node.app_cores_per_llc()
        } else {
            1
        };
        let _lease = ctx.lease_cores(cores)?;
        let engine = Self::engine_for(sub, fusion);
        let key = format!(
            "{sub}|{fusion:?}|{}",
            text::param_skeleton_text(&task.circuit)
        );

        let mut result = QfwResult::new(self.name(), sub, task.shots);
        result.profile.marshal_secs = marshal_secs;
        let out = match self.plan_for(key, &engine, &template, ctx.obs) {
            Ok((plan, cached)) => {
                result
                    .metadata
                    .insert("plan_cached".into(), cached.to_string());
                let point = SweepPoint {
                    params,
                    shots: task.shots,
                    seed: task.seed,
                };
                engine
                    .run_plan_traced(&plan, std::slice::from_ref(&point), ctx.obs)
                    .pop()
                    .expect("one point in, one outcome out")
            }
            Err(SweepError::MidCircuitMeasure { .. }) => {
                // Mid-circuit measurements can't take the plan path; bind
                // and run the trajectory engine instead.
                result
                    .metadata
                    .insert("sweep_fallback".into(), "mid_circuit_measure".into());
                engine.run_traced(&template.bind(&params), task.shots, task.seed, ctx.obs)
            }
        };
        result.counts = out.counts;
        result.profile.exec_secs = out.gate_time.as_secs_f64();
        result.profile.sample_secs = out.sample_time.as_secs_f64();
        result
            .metadata
            .insert("gates_applied".into(), out.gates_applied.to_string());
        result.profile.ranks = 1;
        result.profile.total_secs = total.elapsed_secs();
        Ok(result)
    }
}

impl BackendQpm for NwqSimBackend {
    fn name(&self) -> &'static str {
        "nwqsim"
    }

    fn subbackends(&self) -> &'static [&'static str] {
        &["cpu", "openmp", "mpi"]
    }

    fn execute(&self, task: &ExecTask, ctx: &ExecContext<'_>) -> Result<QfwResult, QfwError> {
        let sub = self.resolve_subbackend(&task.spec)?;
        let total = Stopwatch::start();

        // Optional stochastic noise channels, selected via runtime
        // properties (the canonical `noise_model` text, or the legacy
        // `noise_p1`/`noise_p2`/`noise_readout` constants) — the NISQ
        // emulation path.
        let noise = Self::noise_of(&task.spec)?;

        // Bound parameterized tasks on the local sub-backends take the
        // compile-once plan path (bitwise identical to the sweep path).
        if text::is_param_text(&task.circuit)
            && matches!(sub, "cpu" | "openmp")
            && noise.is_empty()
        {
            return self.execute_param_local(task, ctx, sub, total);
        }

        let (circuit, marshal_secs) = unmarshal_circuit(task)?;
        let fusion = Self::fusion_of(&task.spec);

        let mut result = QfwResult::new(self.name(), sub, task.shots);
        result.profile.marshal_secs = marshal_secs;

        match sub {
            "cpu" | "openmp" => {
                let threading = if sub == "openmp" {
                    Threading::Rayon
                } else {
                    Threading::Serial
                };
                // Account the cores the engine occupies: 1 for the serial
                // path, one LLC domain's worth for the threaded path.
                let cores = if sub == "openmp" {
                    ctx.hetjob.cluster().node.app_cores_per_llc()
                } else {
                    1
                };
                let _lease = ctx.lease_cores(cores)?;
                let sw = Stopwatch::start();
                let seam = task
                    .spec
                    .extra_parsed::<usize>(crate::spec::extras::PARTITION_SEAM);
                if seam.is_some() && !noise.is_empty() {
                    return Err(QfwError::Execution(
                        "clifford-prefix partitioned execution does not compose \
                         with noise channels"
                            .into(),
                    ));
                }
                if let Some(seam) = seam {
                    // Planner-issued hybrid partition: stabilizer tableau
                    // over the Clifford prefix, dense continuation from the
                    // extracted seam state. (The guard above already
                    // rejected the noisy case, so noise is empty here.)
                    let (out, prefix_gates, prefix_secs) = Self::run_partitioned(
                        &circuit, seam, task.shots, task.seed, threading, ctx.obs,
                    )?;
                    result.counts = out.counts;
                    result.profile.exec_secs = prefix_secs + out.gate_time.as_secs_f64();
                    result.profile.sample_secs = out.sample_time.as_secs_f64();
                    result
                        .metadata
                        .insert("gates_applied".into(), out.gates_applied.to_string());
                    result.metadata.insert(
                        crate::spec::extras::PARTITION.into(),
                        crate::spec::extras::PARTITION_CLIFFORD_PREFIX.into(),
                    );
                    result.metadata.insert(
                        crate::spec::extras::PARTITION_SEAM.into(),
                        seam.to_string(),
                    );
                    result.metadata.insert(
                        "partition_prefix_gates".into(),
                        prefix_gates.to_string(),
                    );
                } else if noise.is_empty() {
                    // With fusion enabled, run the layer plan out of the
                    // per-instance cache — the plan `FusionLevel::Full`
                    // would build, so counts are bitwise the same, but
                    // repeat submissions skip the fusion pre-pass.
                    // `fusion=false` bypasses the cache so the unfused gate
                    // stream runs verbatim.
                    let engine = SvSimulator::new(SvConfig {
                        threading,
                        fusion,
                        ..SvConfig::default()
                    });
                    let (out, fusion_cached) = if fusion == FusionLevel::None {
                        let out = engine.run_traced(&circuit, task.shots, task.seed, ctx.obs);
                        (out, None)
                    } else {
                        let (plan, cached) = self.fused_for(&circuit, ctx.obs);
                        let out =
                            engine.run_layers_traced(&plan, task.shots, task.seed, ctx.obs);
                        (out, Some(cached))
                    };
                    result.counts = out.counts;
                    result.profile.exec_secs = out.gate_time.as_secs_f64();
                    result.profile.sample_secs = out.sample_time.as_secs_f64();
                    result
                        .metadata
                        .insert("gates_applied".into(), out.gates_applied.to_string());
                    if let Some(cached) = fusion_cached {
                        result
                            .metadata
                            .insert("fusion_cached".into(), cached.to_string());
                    }
                } else {
                    // Trajectory-parallel on the threaded sub-backend
                    // (counts are bitwise identical at any worker count),
                    // serial on `cpu`.
                    let trajectories = Self::trajectories_of(&task.spec);
                    let workers = if sub == "openmp" { cores.max(1) } else { 1 };
                    result.counts = qfw_sim_sv::noise::run_trajectories(
                        &circuit,
                        task.shots,
                        task.seed,
                        &noise,
                        trajectories,
                        workers,
                        ctx.obs,
                    );
                    result.profile.exec_secs = sw.elapsed_secs();
                    result.metadata.insert("noise".into(), noise.to_text());
                    result
                        .metadata
                        .insert("noise_trajectories".into(), trajectories.to_string());
                }
                result.profile.ranks = 1;
            }
            "mpi" => {
                if !noise.is_empty() {
                    return Err(QfwError::Execution(
                        "noise channels are only supported on the cpu/openmp \
                         sub-backends"
                            .into(),
                    ));
                }
                let ranks = task.spec.ranks.max(1).next_power_of_two();
                if ranks as u32 != task.spec.ranks as u32 && task.spec.ranks != ranks {
                    result
                        .metadata
                        .insert("ranks_rounded".into(), ranks.to_string());
                }
                if circuit.num_qubits() == 0 || (1usize << circuit.num_qubits()) < 2 * ranks {
                    return Err(QfwError::Resources(format!(
                        "{} ranks need at least {} qubits",
                        ranks,
                        ranks.trailing_zeros() + 1
                    )));
                }
                // Routing strategy: communication-avoiding lazy remapping
                // by default; `dist_route=swaps` selects the per-gate
                // exchange baseline (for A/B measurements).
                let route = match task
                    .spec
                    .extra_parsed::<String>("dist_route")
                    .as_deref()
                {
                    Some("swaps") => RouteStrategy::Swaps,
                    _ => RouteStrategy::Lazy,
                };
                // Compiler handoff: `initial_layout=q0,q1,...` (entry p is
                // the logical qubit at physical position p) seeds the
                // starting permutation — free at |0…0⟩, and counts stay
                // bitwise identical since sampling flushes the
                // permutation. Planned by qfw-compile's O3 layout pass.
                let layout = match task.spec.extra_parsed::<String>("initial_layout") {
                    Some(csv) => {
                        let order: Vec<usize> = csv
                            .split(',')
                            .map(|s| s.trim().parse::<usize>())
                            .collect::<Result<_, _>>()
                            .map_err(|e| {
                                QfwError::Execution(format!("malformed initial_layout: {e}"))
                            })?;
                        let n = circuit.num_qubits();
                        let mut seen = vec![false; n];
                        for &q in &order {
                            if q >= n || std::mem::replace(&mut seen[q], true) {
                                return Err(QfwError::Execution(format!(
                                    "initial_layout is not a permutation of 0..{n}"
                                )));
                            }
                        }
                        if order.len() != n {
                            return Err(QfwError::Execution(format!(
                                "initial_layout covers {} of {n} qubits",
                                order.len()
                            )));
                        }
                        Some(order)
                    }
                    None => None,
                };
                let alloc = ctx.lease_cores(ranks)?;
                let circuit = Arc::new(circuit);
                let shots = task.shots;
                let seed = task.seed;
                let obs = ctx.obs.clone();
                let layout_meta = layout.as_ref().map(|o| {
                    o.iter()
                        .map(|q| q.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                });
                let job = ctx.dvm.spawn(&alloc, ranks, move |mut rank_ctx| {
                    run_distributed_laid_out(
                        &mut rank_ctx,
                        &circuit,
                        shots,
                        seed,
                        route,
                        layout.as_deref(),
                        &obs,
                    )
                });
                let mut outcomes = job.wait();
                let (out, stats) = outcomes
                    .swap_remove(0)
                    .expect("rank 0 returns the outcome");
                result.counts = out.counts;
                result.profile.exec_secs = out.gate_time.as_secs_f64();
                result.profile.sample_secs = out.sample_time.as_secs_f64();
                result.profile.ranks = ranks;
                result.metadata.insert(
                    "dist_route".into(),
                    format!("{route:?}").to_lowercase(),
                );
                if let Some(meta) = layout_meta {
                    result.metadata.insert("initial_layout".into(), meta);
                }
                result
                    .metadata
                    .insert("comm_exchanges".into(), stats.exchanges.to_string());
                result
                    .metadata
                    .insert("comm_bytes".into(), stats.bytes.to_string());
            }
            other => unreachable!("resolve_subbackend admitted '{other}'"),
        }
        // Compiler handoff: the O3 noise-aware layout pass annotates its
        // predicted log-fidelity; surface it on the result for analysis.
        if let Some(pf) = task.spec.extra_parsed::<f64>("predicted_fidelity") {
            result
                .metadata
                .insert("predicted_fidelity".into(), pf.to_string());
        }
        result.profile.total_secs = total.elapsed_secs();
        Ok(result)
    }

    fn execute_sweep(
        &self,
        task: &SweepTask,
        ctx: &ExecContext<'_>,
    ) -> Result<Vec<QfwResult>, QfwError> {
        let sub = self.resolve_subbackend(&task.spec)?;
        let noise = Self::noise_of(&task.spec)?;
        // The native compile-once path serves the local sub-backends; the
        // distributed and noisy configurations fall back to per-point
        // execution (still bitwise identical to independent submissions,
        // since both sides bind the same skeleton to the same seeds).
        if !matches!(sub, "cpu" | "openmp") || !noise.is_empty() {
            return sweep_via_execute(self, task, ctx);
        }
        let total = Stopwatch::start();
        let (template, _, marshal_secs) = unmarshal_param(&task.circuit)?;
        for (i, point) in task.points.iter().enumerate() {
            if point.params.len() < template.num_params() {
                return Err(QfwError::Marshal(format!(
                    "sweep point {i} carries {} values but the skeleton references {} parameters",
                    point.params.len(),
                    template.num_params()
                )));
            }
        }
        let fusion = Self::fusion_of(&task.spec);
        let cores = if sub == "openmp" {
            ctx.hetjob.cluster().node.app_cores_per_llc()
        } else {
            1
        };
        let _lease = ctx.lease_cores(cores)?;
        let engine = Self::engine_for(sub, fusion);
        let key = format!(
            "{sub}|{fusion:?}|{}",
            text::param_skeleton_text(&task.circuit)
        );
        let (plan, cached) = match self.plan_for(key, &engine, &template, ctx.obs) {
            Ok(pair) => pair,
            // Mid-circuit skeletons can't sweep: bind each point instead.
            Err(SweepError::MidCircuitMeasure { .. }) => {
                return sweep_via_execute(self, task, ctx)
            }
        };
        let points: Vec<SweepPoint> = task
            .points
            .iter()
            .map(|p| SweepPoint {
                params: p.params.clone(),
                shots: p.shots,
                seed: p.seed,
            })
            .collect();
        let outcomes = engine.run_plan_traced(&plan, &points, ctx.obs);
        let total_secs = total.elapsed_secs();
        Ok(outcomes
            .into_iter()
            .zip(&task.points)
            .map(|(out, point)| {
                let mut result = QfwResult::new(self.name(), sub, point.shots);
                result.counts = out.counts;
                result.profile.marshal_secs = marshal_secs;
                result.profile.exec_secs = out.gate_time.as_secs_f64();
                result.profile.sample_secs = out.sample_time.as_secs_f64();
                result.profile.ranks = 1;
                result.profile.total_secs = total_secs;
                result
                    .metadata
                    .insert("gates_applied".into(), out.gates_applied.to_string());
                result
                    .metadata
                    .insert("plan_cached".into(), cached.to_string());
                result
                    .metadata
                    .insert("sweep_points".into(), task.points.len().to_string());
                result
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{materialize_point, testutil::{ghz_task, TestRig}};
    use crate::spec::{BackendSpec, SweepPointSpec};
    use qfw_circuit::param::Angle;

    #[test]
    fn all_subbackends_agree_on_ghz() {
        let rig = TestRig::new(2);
        let backend = NwqSimBackend::default();
        for (sub, ranks) in [("cpu", 1), ("openmp", 1), ("mpi", 4)] {
            let spec = BackendSpec::of("nwqsim", sub).with_ranks(ranks);
            let task = ghz_task(6, 600, spec);
            let result = backend.execute(&task, &rig.ctx()).unwrap();
            assert_eq!(result.counts.values().sum::<usize>(), 600, "{sub}");
            assert_eq!(result.counts.len(), 2, "{sub}");
            assert_eq!(result.subbackend, sub);
            assert_eq!(result.profile.ranks, ranks);
        }
    }

    #[test]
    fn default_subbackend_is_cpu() {
        let rig = TestRig::new(1);
        let task = ghz_task(4, 50, BackendSpec::of("nwqsim", ""));
        let result = NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap();
        assert_eq!(result.subbackend, "cpu");
    }

    #[test]
    fn unknown_subbackend_rejected() {
        let rig = TestRig::new(1);
        let task = ghz_task(4, 50, BackendSpec::of("nwqsim", "gpu"));
        let err = NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap_err();
        assert!(matches!(err, QfwError::UnknownSubBackend { .. }));
    }

    #[test]
    fn mpi_rejects_too_many_ranks_for_register() {
        let rig = TestRig::new(2);
        let task = ghz_task(3, 10, BackendSpec::of("nwqsim", "mpi").with_ranks(8));
        let err = NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap_err();
        assert!(matches!(err, QfwError::Resources(_)));
    }

    #[test]
    fn cores_are_released_after_execution() {
        let rig = TestRig::new(1);
        let before = rig.hetjob.free_cores(1);
        let task = ghz_task(5, 20, BackendSpec::of("nwqsim", "mpi").with_ranks(4));
        NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap();
        assert_eq!(rig.hetjob.free_cores(1), before);
    }

    #[test]
    fn noise_properties_engage_the_noisy_path() {
        let rig = TestRig::new(1);
        let spec = BackendSpec::of("nwqsim", "cpu")
            .with_extra("noise_p2", 0.05)
            .with_extra("noise_readout", 0.01);
        let task = ghz_task(6, 2000, spec);
        let result = NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap();
        assert!(result.metadata.contains_key("noise"));
        // Noise leaks probability out of the two GHZ outcomes.
        assert!(result.counts.len() > 2, "noise had no visible effect");
    }

    #[test]
    fn noise_model_extra_engages_kraus_channels() {
        let rig = TestRig::new(1);
        let mut model = qfw_noise::NoiseModel::empty();
        model.add_2q_all(qfw_noise::Channel::depolarizing(0.05));
        model.set_readout_all(qfw_noise::ReadoutError::symmetric(0.01));
        let spec = BackendSpec::of("nwqsim", "cpu")
            .with_extra("noise_model", model.to_text())
            .with_extra("noise_trajectories", 32);
        let task = ghz_task(6, 2000, spec);
        let result = NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap();
        assert_eq!(result.metadata["noise"], model.to_text());
        assert_eq!(result.metadata["noise_trajectories"], "32");
        assert!(result.counts.len() > 2, "noise had no visible effect");
    }

    #[test]
    fn malformed_noise_model_is_rejected() {
        let rig = TestRig::new(1);
        let spec = BackendSpec::of("nwqsim", "cpu").with_extra("noise_model", "garbage");
        let task = ghz_task(3, 10, spec);
        assert!(matches!(
            NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap_err(),
            QfwError::BadProperties(_)
        ));
    }

    #[test]
    fn noisy_counts_match_between_cpu_and_openmp() {
        // Trajectory seeding is per-trajectory, so the serial and the
        // trajectory-parallel sub-backends must agree bitwise.
        let rig = TestRig::new(1);
        let run = |sub: &str| {
            let spec = BackendSpec::of("nwqsim", sub).with_extra("noise_p2", 0.03);
            let task = ghz_task(6, 1000, spec);
            NwqSimBackend::default()
                .execute(&task, &rig.ctx())
                .unwrap()
                .counts
        };
        assert_eq!(run("cpu"), run("openmp"));
    }

    #[test]
    fn predicted_fidelity_extra_is_surfaced() {
        let rig = TestRig::new(1);
        let spec =
            BackendSpec::of("nwqsim", "cpu").with_extra("predicted_fidelity", -0.0123_f64);
        let task = ghz_task(3, 10, spec);
        let result = NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap();
        assert_eq!(result.metadata["predicted_fidelity"], "-0.0123");
    }

    #[test]
    fn noise_rejected_on_mpi() {
        let rig = TestRig::new(1);
        let spec = BackendSpec::of("nwqsim", "mpi")
            .with_ranks(2)
            .with_extra("noise_p2", 0.05);
        let task = ghz_task(5, 10, spec);
        assert!(matches!(
            NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap_err(),
            QfwError::Execution(_)
        ));
    }

    #[test]
    fn mpi_reports_comm_counters_and_route_toggle() {
        let rig = TestRig::new(2);
        let run = |route_extra: Option<&str>| {
            let mut spec = BackendSpec::of("nwqsim", "mpi").with_ranks(4);
            if let Some(route) = route_extra {
                spec = spec.with_extra("dist_route", route);
            }
            let task = ghz_task(6, 200, spec);
            NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap()
        };
        let lazy = run(None);
        assert_eq!(lazy.metadata["dist_route"], "lazy");
        let swaps = run(Some("swaps"));
        assert_eq!(swaps.metadata["dist_route"], "swaps");
        // Identical seeds: the two routes must agree on counts while the
        // lazy route moves strictly less data on an entangling circuit.
        assert_eq!(lazy.counts, swaps.counts);
        let bytes = |r: &QfwResult| r.metadata["comm_bytes"].parse::<u64>().unwrap();
        let exchanges = |r: &QfwResult| r.metadata["comm_exchanges"].parse::<u64>().unwrap();
        assert!(exchanges(&lazy) < exchanges(&swaps));
        assert!(bytes(&lazy) < bytes(&swaps));
    }

    #[test]
    fn initial_layout_extra_preserves_counts_and_reduces_exchanges() {
        // Compiler handoff: a layout pulling the hot high qubits into
        // local positions must not change counts (bitwise) while moving
        // strictly less data on a top-heavy circuit.
        let rig = TestRig::new(2);
        let mut qc = Circuit::new(6);
        for _ in 0..5 {
            qc.h(4);
            qc.cx(4, 5);
            qc.rx(5, 0.3);
            qc.cx(5, 4);
        }
        qc.measure_all();
        let run = |layout: Option<&str>| {
            let mut spec = BackendSpec::of("nwqsim", "mpi").with_ranks(4);
            if let Some(order) = layout {
                spec = spec.with_extra("initial_layout", order);
            }
            let task = ExecTask {
                circuit: qfw_circuit::text::dump(&qc),
                shots: 300,
                seed: 21,
                spec,
            };
            NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap()
        };
        let plain = run(None);
        let seeded = run(Some("4,5,0,1,2,3"));
        assert_eq!(seeded.counts, plain.counts, "layout changed counts");
        assert_eq!(seeded.metadata["initial_layout"], "4,5,0,1,2,3");
        let exchanges =
            |r: &QfwResult| r.metadata["comm_exchanges"].parse::<u64>().unwrap();
        assert!(exchanges(&seeded) < exchanges(&plain));
        // Malformed layouts are rejected, not silently ignored.
        let mut spec = BackendSpec::of("nwqsim", "mpi").with_ranks(4);
        spec = spec.with_extra("initial_layout", "0,1,2");
        let task = ExecTask {
            circuit: qfw_circuit::text::dump(&qc),
            shots: 10,
            seed: 1,
            spec,
        };
        assert!(matches!(
            NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap_err(),
            QfwError::Execution(_)
        ));
    }

    #[test]
    fn bound_diagonal_gates_take_zero_exchange_route_on_mpi() {
        // Regression for the compile-once sweep path: angles arriving via a
        // `bind` line materialize as literal rz/rzz/cp gates, which must
        // classify as diagonal and ride the zero-exchange route in the
        // distributed engine — inserting them between the entangling layers
        // of a 4-rank run must not add a single exchange.
        use qfw_circuit::param::{ParamCircuit, ParamOp};
        let rig = TestRig::new(2);
        let n = 6; // ranks=4 -> qubits 4 and 5 live in the rank index
        let base = {
            let mut t = ParamCircuit::new(n);
            for q in 0..n {
                t.h(q);
            }
            for q in 0..n {
                t.rx(q, Angle::scaled(1, 2.0));
            }
            t.measure_all();
            t
        };
        let with_diag = {
            let mut t = ParamCircuit::new(n);
            for q in 0..n {
                t.h(q);
            }
            t.rzz(4, 5, Angle::scaled(0, 2.0)); // both high
            t.push(ParamOp::Cp(4, 3, Angle::sym(0))); // mixed high/low
            t.rz(5, Angle::sym(0)); // 1q high
            t.rzz(0, 4, Angle::scaled(0, -1.5)); // mixed low/high
            for q in 0..n {
                t.rx(q, Angle::scaled(1, 2.0));
            }
            t.measure_all();
            t
        };
        let params = [0.37, -0.82];
        let run = |template: &ParamCircuit, route: &str| {
            let spec = BackendSpec::of("nwqsim", "mpi")
                .with_ranks(4)
                .with_extra("dist_route", route);
            let task = ExecTask {
                circuit: qfw_circuit::text::dump_param_bound(template, &params),
                shots: 400,
                seed: 77,
                spec,
            };
            NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap()
        };
        let exchanges =
            |r: &QfwResult| r.metadata["comm_exchanges"].parse::<u64>().unwrap();
        for route in ["lazy", "swaps"] {
            let plain = run(&base, route);
            let diag = run(&with_diag, route);
            assert_eq!(
                exchanges(&diag),
                exchanges(&plain),
                "{route}: bound diagonal gates caused data movement"
            );
        }
        // The bound diagonal gates must still *act*: counts match the
        // serial engine bitwise (same canonical sampling scheme).
        let dist = run(&with_diag, "lazy");
        let serial = {
            let task = ExecTask {
                circuit: qfw_circuit::text::dump_param_bound(&with_diag, &params),
                shots: 400,
                seed: 77,
                spec: BackendSpec::of("nwqsim", "cpu"),
            };
            NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap()
        };
        assert_eq!(dist.counts, serial.counts);
    }

    #[test]
    fn fusion_toggle_respected() {
        let rig = TestRig::new(1);
        let spec = BackendSpec::of("nwqsim", "cpu").with_extra("fusion", false);
        let task = ghz_task(4, 50, spec);
        let result = NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap();
        // GHZ(4) has 4 gates; without fusion all 4 are applied verbatim.
        assert_eq!(result.metadata["gates_applied"], "4");
        // fusion=false bypasses the fused-circuit cache entirely.
        assert!(!result.metadata.contains_key("fusion_cached"));
    }

    #[test]
    fn concrete_task_hits_fused_cache_on_second_call() {
        let rig = TestRig::new(1);
        let backend = NwqSimBackend::default();
        let task = ghz_task(6, 300, BackendSpec::of("nwqsim", "cpu"));
        let first = backend.execute(&task, &rig.ctx()).unwrap();
        assert_eq!(first.metadata["fusion_cached"], "false");
        let second = backend.execute(&task, &rig.ctx()).unwrap();
        assert_eq!(second.metadata["fusion_cached"], "true");
        // Same seed, same fused circuit: bitwise identical counts.
        assert_eq!(first.counts, second.counts);
        // Different shots/seed still hit the cache (key is circuit+fusion).
        let mut varied = ghz_task(6, 150, BackendSpec::of("nwqsim", "cpu"));
        varied.seed ^= 0x5eed;
        let third = backend.execute(&varied, &rig.ctx()).unwrap();
        assert_eq!(third.metadata["fusion_cached"], "true");
    }

    /// A circuit with a deep Clifford prefix whose stabilizer X-part has
    /// rank 1 (a single H): the seam amplitudes are then `+-sqrt(0.5)`,
    /// the one norm value the dense engine also produces exactly, so
    /// partitioned and monolithic counts must agree *bitwise*.
    fn clifford_prefix_circuit(n: usize, layers: usize) -> (Circuit, usize) {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for l in 0..layers {
            for q in 0..n - 1 {
                qc.cx(q, q + 1);
            }
            for q in 0..n {
                if (q + l) % 2 == 0 {
                    qc.s(q);
                } else {
                    qc.z(q);
                }
            }
        }
        let seam = qc.ops().len();
        for q in 0..n {
            qc.rx(q, 0.3 + 0.05 * q as f64);
        }
        qc.measure_all();
        (qc, seam)
    }

    #[test]
    fn partitioned_execution_bitwise_matches_monolithic() {
        let rig = TestRig::new(1);
        let backend = NwqSimBackend::default();
        let (qc, seam) = clifford_prefix_circuit(6, 4);
        let task_of = |spec: BackendSpec| ExecTask {
            circuit: text::dump(&qc),
            shots: 500,
            seed: 4242,
            spec,
        };
        let mono = backend
            .execute(
                &task_of(BackendSpec::of("nwqsim", "cpu").with_extra("fusion", false)),
                &rig.ctx(),
            )
            .unwrap();
        let part = backend
            .execute(
                &task_of(
                    BackendSpec::of("nwqsim", "cpu")
                        .with_extra("fusion", false)
                        .with_extra("partition", "clifford_prefix")
                        .with_extra("partition_seam", seam),
                ),
                &rig.ctx(),
            )
            .unwrap();
        assert_eq!(part.counts, mono.counts, "partition changed sampled counts");
        assert_eq!(part.metadata["partition"], "clifford_prefix");
        assert_eq!(part.metadata["partition_seam"], seam.to_string());
        assert_eq!(
            part.metadata["partition_prefix_gates"],
            (seam).to_string(),
            "every seam op here is a gate"
        );
        // Only the suffix ran dense.
        assert!(
            part.metadata["gates_applied"].parse::<usize>().unwrap()
                < mono.metadata["gates_applied"].parse::<usize>().unwrap()
        );
    }

    #[test]
    fn partition_seam_crossing_non_clifford_is_rejected() {
        let rig = TestRig::new(1);
        let (qc, seam) = clifford_prefix_circuit(4, 2);
        let task = ExecTask {
            circuit: text::dump(&qc),
            shots: 10,
            seed: 1,
            // One past the Clifford prefix: the seam now includes an rx.
            spec: BackendSpec::of("nwqsim", "cpu").with_extra("partition_seam", seam + 1),
        };
        assert!(matches!(
            NwqSimBackend::default().execute(&task, &rig.ctx()).unwrap_err(),
            QfwError::Execution(_)
        ));
    }

    /// A QAOA-shaped two-parameter skeleton used by the sweep tests.
    fn sweep_template(n: usize) -> qfw_circuit::ParamCircuit {
        let mut t = qfw_circuit::ParamCircuit::new(n);
        for q in 0..n {
            t.h(q);
        }
        for q in 0..n - 1 {
            t.rzz(q, q + 1, Angle::scaled(0, 2.0));
        }
        for q in 0..n {
            t.rx(q, Angle::scaled(1, 2.0));
        }
        t.measure_all();
        t
    }

    fn sweep_points(k: usize, shots: usize) -> Vec<SweepPointSpec> {
        (0..k)
            .map(|i| SweepPointSpec {
                params: vec![0.15 + 0.05 * i as f64, 0.9 - 0.03 * i as f64],
                shots,
                seed: 9000 + i as u64,
            })
            .collect()
    }

    #[test]
    fn bound_param_task_hits_plan_cache_on_second_call() {
        let rig = TestRig::new(1);
        let backend = NwqSimBackend::default();
        let template = sweep_template(5);
        let task = ExecTask {
            circuit: text::dump_param_bound(&template, &[0.4, 0.7]),
            shots: 128,
            seed: 11,
            spec: BackendSpec::of("nwqsim", "cpu"),
        };
        let first = backend.execute(&task, &rig.ctx()).unwrap();
        assert_eq!(first.metadata["plan_cached"], "false");
        assert_eq!(first.counts.values().sum::<usize>(), 128);
        let second = backend.execute(&task, &rig.ctx()).unwrap();
        assert_eq!(second.metadata["plan_cached"], "true");
        // Same seed, same binding, same plan: bitwise identical counts.
        assert_eq!(first.counts, second.counts);
    }

    #[test]
    fn execute_sweep_bitwise_matches_per_point_executes() {
        let rig = TestRig::new(1);
        let backend = NwqSimBackend::default();
        let template = sweep_template(6);
        for sub in ["cpu", "openmp"] {
            let task = SweepTask {
                circuit: text::dump_param(&template),
                points: sweep_points(4, 256),
                spec: BackendSpec::of("nwqsim", sub),
            };
            let swept = backend.execute_sweep(&task, &rig.ctx()).unwrap();
            assert_eq!(swept.len(), 4, "{sub}");
            for (result, point) in swept.iter().zip(&task.points) {
                assert_eq!(result.metadata["sweep_points"], "4", "{sub}");
                let single = backend
                    .execute(
                        &ExecTask {
                            circuit: materialize_point(&task.circuit, &point.params),
                            shots: point.shots,
                            seed: point.seed,
                            spec: task.spec.clone(),
                        },
                        &rig.ctx(),
                    )
                    .unwrap();
                assert_eq!(result.counts, single.counts, "{sub}");
            }
        }
    }

    #[test]
    fn mpi_sweep_falls_back_to_per_point_execution() {
        let rig = TestRig::new(2);
        let backend = NwqSimBackend::default();
        let template = sweep_template(5);
        let task = SweepTask {
            circuit: text::dump_param(&template),
            points: sweep_points(3, 200),
            spec: BackendSpec::of("nwqsim", "mpi").with_ranks(4),
        };
        let swept = backend.execute_sweep(&task, &rig.ctx()).unwrap();
        assert_eq!(swept.len(), 3);
        for (result, point) in swept.iter().zip(&task.points) {
            assert_eq!(result.profile.ranks, 4);
            assert!(!result.metadata.contains_key("sweep_points"));
            let single = backend
                .execute(
                    &ExecTask {
                        circuit: materialize_point(&task.circuit, &point.params),
                        shots: point.shots,
                        seed: point.seed,
                        spec: task.spec.clone(),
                    },
                    &rig.ctx(),
                )
                .unwrap();
            assert_eq!(result.counts, single.counts);
        }
    }

    #[test]
    fn sweep_point_with_short_binding_rejected() {
        let rig = TestRig::new(1);
        let backend = NwqSimBackend::default();
        let template = sweep_template(4);
        let task = SweepTask {
            circuit: text::dump_param(&template),
            points: vec![SweepPointSpec {
                params: vec![0.1],
                shots: 16,
                seed: 1,
            }],
            spec: BackendSpec::of("nwqsim", "cpu"),
        };
        assert!(matches!(
            backend.execute_sweep(&task, &rig.ctx()).unwrap_err(),
            QfwError::Marshal(_)
        ));
    }
}
