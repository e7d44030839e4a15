//! The `dqaoa` workload: the paper's flagship hybrid loop through the other
//! front door — `QfwSession` → `QfwBackend` → DEFw RPC → QPM → QRC →
//! `nwqsim/cpu` with its bound-parameter plan cache. An op is one sub-QUBO
//! solve (about thirty evaluations of well under a millisecond each), so
//! the stack's per-evaluation overhead is most of the time to solution.

use crate::metrics::Metrics;
use crate::span::{StairNotes, Trace};
use crate::stack::{self, WORKERS};
use crate::{host, probes, serde_round_trip, stats, us, Outcome};
use qfw::{BackendSpec, ExecTask, QfwBackend, QfwSession};
use qfw_circuit::{text, ParamCircuit};
use qfw_dqaoa::{solve_dqaoa, DqaoaConfig, DqaoaOutcome, QaoaConfig};
use qfw_num::Rng;
use qfw_obs::Obs;
use qfw_sim_sv::{SvConfig, SvSimulator, SweepPoint};
use qfw_workloads::{qaoa_ansatz, Qubo};
use std::time::{Duration, Instant};

const VARS: usize = 48;
const BAND: usize = 3;
/// Twelve variables keep an evaluation under a millisecond, which is what
/// makes this workload overhead-bound; at sixteen the engine dominates
/// (3 ms per evaluation) and `engine_sv` already covers that.
const SUBQSIZE: usize = 12;
const SHOTS: usize = 512;
/// Sub-QUBO solves per second on the reference host (feeds `stats::Plan`,
/// see `ServeWorkload::nominal_ops_per_s`).
const NOMINAL_OPS_PER_S: f64 = 135.0;
/// Random assignments a solution must beat.
const RANDOM_ASSIGNMENTS: usize = 4096;

fn config(seed: u64) -> DqaoaConfig {
    DqaoaConfig {
        subqsize: SUBQSIZE,
        nsubq: WORKERS,
        qaoa: QaoaConfig {
            layers: 1,
            shots: SHOTS,
            max_evals: 30,
            ..QaoaConfig::default()
        },
        // Patience equal to the cap: every run does all sixteen
        // iterations, so the op count per run does not depend on luck.
        max_iterations: 16,
        patience: 16,
        seed,
        ..DqaoaConfig::default()
    }
}

/// Problem `run` of a seed: instance and solver seed from its own stream.
fn problem(seed: u64, run: usize) -> (Qubo, DqaoaConfig) {
    let instance_seed = Rng::stream(seed, run as u64).next_u64() >> 1;
    (
        Qubo::metamaterial(VARS, BAND, instance_seed),
        config(instance_seed),
    )
}

/// The ansatz of one sub-QUBO, as `solve_qaoa` builds it per sub-solve.
fn sub_ansatz(seed: u64) -> ParamCircuit {
    let (qubo, _) = problem(seed, usize::MAX >> 1);
    let mut vars: Vec<usize> = (0..VARS).collect();
    Rng::stream(seed, u64::MAX).shuffle(&mut vars);
    vars.truncate(SUBQSIZE);
    qaoa_ansatz(&qubo.sub_qubo(&vars, &[0u8; VARS]), 1)
}

struct Live {
    session: QfwSession,
    backend: QfwBackend,
}

fn setup(obs: &Obs, warm: &ParamCircuit) -> Result<Live, String> {
    let session = stack::launch_session(obs);
    let backend = session
        .backend_with_spec(BackendSpec::of("nwqsim", "cpu"))
        .map_err(|e| e.to_string())?;
    backend
        .execute_param_sync(warm, &[0.3, 0.2], SHOTS)
        .map_err(|e| format!("dqaoa warm-up: {e}"))?;
    Ok(Live { session, backend })
}

struct Solved {
    run: usize,
    wall_s: f64,
    evals: u64,
    outcome: DqaoaOutcome,
    /// Memory when the run ended.
    memory: host::Memory,
}

fn solve_loop(
    live: &Live,
    seed: u64,
    first_run: usize,
    duration: Duration,
) -> Result<Vec<Solved>, String> {
    let start = Instant::now();
    let mut solved = Vec::new();
    while start.elapsed() < duration {
        let run = first_run + solved.len();
        let (qubo, cfg) = problem(seed, run);
        let before = live.session.total_stats().completed;
        let t0 = Instant::now();
        let outcome =
            solve_dqaoa(&live.backend, &qubo, cfg).map_err(|e| format!("run {run}: {e}"))?;
        solved.push(Solved {
            run,
            wall_s: t0.elapsed().as_secs_f64(),
            evals: live.session.total_stats().completed - before,
            outcome,
            memory: host::memory(),
        });
    }
    Ok(solved)
}

/// The properties a DQAOA answer must have whatever the optimiser did.
fn verify(seed: u64, solved: &[Solved]) -> (Vec<String>, f64) {
    let t0 = Instant::now();
    let mut failures = Vec::new();
    for s in solved {
        let (qubo, _) = problem(seed, s.run);
        let out = &s.outcome;
        if out.energy_per_iteration.windows(2).any(|w| w[1] > w[0]) {
            failures.push(format!("run {}: energy rose between iterations", s.run));
        }
        if (qubo.energy(&out.best_bits) - out.best_energy).abs() > 1e-9 {
            failures.push(format!(
                "run {}: best_energy is not the energy of best_bits",
                s.run
            ));
        }
        let mut rng = Rng::stream(seed ^ 0xA55E_55ED, s.run as u64);
        let best_random = (0..RANDOM_ASSIGNMENTS)
            .map(|_| {
                let x: Vec<u8> = (0..VARS).map(|_| u8::from(rng.chance(0.5))).collect();
                qubo.energy(&x)
            })
            .fold(f64::INFINITY, f64::min);
        if out.best_energy > best_random {
            failures.push(format!(
                "run {}: {} random assignments beat the solver ({best_random} < {})",
                s.run, RANDOM_ASSIGNMENTS, out.best_energy
            ));
        }
    }
    (failures, t0.elapsed().as_secs_f64())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    Outcome::or_broken(measure(seed, seconds, traced))
}

fn ops(runs: &[Solved]) -> usize {
    runs.iter().map(|s| s.outcome.trace.len()).sum()
}

fn ops_per_s(runs: &[Solved]) -> f64 {
    ops(runs) as f64 / runs.iter().map(|s| s.wall_s).sum::<f64>()
}

fn measure(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let obs = Obs::disabled();
    let ansatz = sub_ansatz(seed);
    let t0 = Instant::now();
    let live = setup(&obs, &ansatz)?;
    let first_setup_s = t0.elapsed().as_secs_f64();

    let mut metrics = Metrics::default();
    let mut failures = Vec::new();
    let share = |part: f64| Duration::from_secs_f64(seconds * part);
    let solved = if traced {
        // The traced loop only reads two counters per solve more than the
        // plain one; the slices on either side make that a measured claim.
        let before = solve_loop(&live, seed, 0, share(0.075))?;
        let rss_kb = host::rss_kb();
        let invocations = live.session.qrc().engine_invocations();
        let solved = solve_loop(&live, seed, before.len(), share(0.45))?;
        let grown_kb = host::rss_kb() - rss_kb;
        let invoked = live.session.qrc().engine_invocations() - invocations;
        let after = solve_loop(&live, seed, before.len() + solved.len(), share(0.075))?;

        let evals = solved.iter().map(|s| s.evals).sum::<u64>().max(1) as f64;
        let wall: f64 = solved.iter().map(|s| s.wall_s).sum();
        metrics.set("bench.ops_traced", ops(&solved) as f64);
        metrics.set(
            "bench.trace_overhead_share",
            1.0 - ops_per_s(&solved) / ((ops_per_s(&before) + ops_per_s(&after)) / 2.0),
        );
        metrics.set("dqaoa.evals", evals / solved.len().max(1) as f64);
        metrics.set("dqaoa.evals_per_s", evals / wall);
        metrics.set("stack.rss_kb_per_job", grown_kb / evals);
        metrics.set("qrc.engine_invocations", invoked as f64 / evals);
        let quarter = solved.len() / 4;
        if quarter > 0 {
            metrics.set(
                "stack.drift_ratio",
                ops_per_s(&solved[solved.len() - quarter..]) / ops_per_s(&solved[..quarter]),
            );
        }
        let mut trace = Trace::default();
        match stair_step(&live, seed, &ansatz, share(0.4), &mut trace, &mut metrics) {
            Ok(()) => crate::write_trace(&trace, "dqaoa"),
            Err(e) => failures.push(format!("stair-step: {e}")),
        }
        solved
    } else {
        solve_loop(&live, seed, 0, share(1.0))?
    };

    // Memory as it stood at the end of the run that completed op
    // `memory_after` (or of the last one, in a phase that never got there):
    // before verification and probes, whose memory is the harness's.
    let plan = stats::Plan::for_nominal((NOMINAL_OPS_PER_S * seconds) as usize);
    let mut ops_so_far = 0;
    let at_mark = solved.iter().find(|s| {
        ops_so_far += s.outcome.trace.len();
        ops_so_far > plan.memory_after
    });
    if let Some(s) = at_mark.or(solved.last()) {
        metrics.set_memory(s.memory);
    }
    let (check_failures, reference_s) = verify(seed, &solved);
    failures.extend(check_failures);
    let attempted = ops(&solved) as u64;
    // An op ends when its sub-solve does; idle time between solves (the
    // instance build) is the client's and stays out of the phase.
    let mut completed = Vec::with_capacity(attempted as usize);
    let mut wall = 0.0;
    for s in &solved {
        completed.extend(
            s.outcome
                .trace
                .iter()
                .map(|t| (wall + t.end_secs.min(s.wall_s), t.duration() * 1e3)),
        );
        wall += s.wall_s;
    }
    let summary = stats::summarize(&completed, wall, plan);
    let failed_share = failures.len() as f64 / attempted.max(1) as f64;
    live.session.teardown();
    let setup_s = crate::median_setup_s(
        first_setup_s,
        || setup(&obs, &ansatz),
        |live: Live| live.session.teardown(),
    )?;
    metrics.set_summary(
        setup_s,
        plan,
        &summary,
        traced.then_some((reference_s, failed_share)),
    );
    if traced {
        // On their own, after the workload's session is gone.
        probes::for_workload("dqaoa", &mut metrics);
    }
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        detail: vec![
            ("ops_completed".to_string(), attempted as f64),
            ("dqaoa_runs".to_string(), solved.len() as f64),
            (
                "evaluations".to_string(),
                solved.iter().map(|s| s.evals).sum::<u64>() as f64,
            ),
            ("tail_percentile".to_string(), f64::from(plan.tail_pct)),
            ("latency_tail_ms".to_string(), summary.latency_tail_ms),
            ("windows".to_string(), plan.windows as f64),
            ("reference_s".to_string(), reference_s),
        ],
    })
}

/// Stair-step of one evaluation: RPC front door ⊃ QRC ⊃ plan re-bind, a
/// fresh binding at each depth.
fn stair_step(
    live: &Live,
    seed: u64,
    ansatz: &ParamCircuit,
    budget: Duration,
    trace: &mut Trace,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let spec = BackendSpec::of("nwqsim", "cpu");
    let plan = SvSimulator::new(SvConfig::default())
        .compile_sweep(ansatz)
        .map_err(|e| format!("{e:?}"))?;
    let mut rng = Rng::stream(seed, u64::MAX - 1);
    let mut fresh = || vec![rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)];
    let mut next_seed = 1u64 << 50;
    let start = Instant::now();
    let (mut adapter_s, mut front_s) = (0.0, 0.0);
    let mut notes = StairNotes::default();
    while notes.groups == 0 || start.elapsed() < budget {
        let t0 = Instant::now();
        let result = live
            .backend
            .execute_param_sync(ansatz, &fresh(), SHOTS)
            .map_err(|e| e.to_string())?;
        let rpc_us = us(t0);
        let root = trace.root("rpc.job", "qfw-defw", notes.groups as u64, rpc_us);
        front_s += rpc_us * 1e-6;
        adapter_s += result.profile.total_secs;

        next_seed += 1;
        let task = ExecTask {
            circuit: text::dump_param_bound(ansatz, &fresh()),
            shots: SHOTS,
            seed: next_seed,
            spec: spec.clone(),
        };
        let (serde_us, task_bytes, reply_bytes) = serde_round_trip(&task, &result)?;
        trace.child(root, "defw.serde", "qfw-defw", serde_us);
        notes.envelope_bytes.push(task_bytes as f64);
        notes.result_bytes.push(reply_bytes as f64);

        let t0 = Instant::now();
        let direct = live
            .session
            .qrc()
            .execute(&task)
            .map_err(|e| e.to_string())?;
        let qrc = trace.child(root, "qrc.execute", "qfw", us(t0));
        notes.marshal_us.push(direct.profile.marshal_secs * 1e6);

        let bound = text::dump_param_bound(ansatz, &fresh());
        let t0 = Instant::now();
        let (_, params) = text::parse_param(&bound).map_err(|e| e.to_string())?;
        trace.child(qrc, "circuit.text_parse", "qfw-circuit", us(t0));
        next_seed += 1;
        let point = SweepPoint {
            params: params.ok_or("bound text lost its bind line")?,
            shots: SHOTS,
            seed: next_seed,
        };
        let t0 = Instant::now();
        let out = plan.run(&point);
        trace.child(qrc, "engine", "qfw-sim", us(t0));
        if out.counts.values().sum::<usize>() != SHOTS {
            return Err("plan re-bind lost shots".into());
        }
        notes.groups += 1;
    }
    trace.budget_metrics(&notes, metrics);
    metrics.set("stack.overhead_share", 1.0 - adapter_s / front_s);
    Ok(())
}
