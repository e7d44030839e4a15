//! The five workloads that enter through `SchedIngress`: a closed loop of
//! client threads, each with one submission outstanding, because every
//! real caller of this front door blocks on its reply.

use crate::engines::{Counts, Engine};
use crate::gen::{self, Family, Job, Kind};
use crate::metrics::Metrics;
use crate::span::{StairNotes, Trace};
use crate::stack::{self, ServeStack, Served, CALL_TIMEOUT, WORKERS};
use crate::{host, probes, serde_round_trip, stats, us, Outcome};
use qfw::cache::CacheConfig;
use qfw::{BackendSpec, ExecTask, QfwResult, ResultCache};
use qfw_compile::OptLevel;
use qfw_obs::Obs;
use qfw_sched::{JobEnvelope, JobStatus};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A hot set filled during set-up and the share of draws that repeat it.
#[derive(Clone, Copy)]
pub struct HotMix {
    pub size: usize,
    pub per_100: u64,
}

pub struct ServeWorkload {
    pub name: &'static str,
    pub kinds: Vec<Kind>,
    /// Client threads, one connection and one outstanding job each.
    pub connections: usize,
    pub hot: Option<HotMix>,
    /// Every `check_every`-th cold op is compared bitwise with a direct
    /// engine reference (every op has its shot total checked).
    pub check_every: usize,
    /// Ops per second measured on the 2-core reference host. Only feeds
    /// `stats::Plan`, which fixes the window count and tail percentile
    /// with a factor two to spare so neither flips between runs.
    pub nominal_ops_per_s: f64,
}

pub fn workload(name: &str) -> Option<ServeWorkload> {
    let cpu = || BackendSpec::of("nwqsim", "cpu");
    let omp = || BackendSpec::of("nwqsim", "openmp");
    let auto = || BackendSpec::of("auto", "");
    let small = || {
        vec![
            Kind::new("ghz12", Family::Ghz, 12, 256, cpu()),
            Kind::new("tfim10", Family::Tfim, 10, 256, cpu()),
            Kind::new("qaoa10", Family::Qaoa(1), 10, 256, cpu()),
            Kind::new("ham8", Family::Ham, 8, 256, cpu()),
            Kind::new("qaoa12", Family::Qaoa(1), 12, 256, cpu()),
        ]
    };
    Some(match name {
        "serve_cold" => ServeWorkload {
            name: "serve_cold",
            kinds: small(),
            connections: WORKERS,
            hot: None,
            check_every: 64,
            nominal_ops_per_s: 1300.0,
        },
        "serve_hot" => ServeWorkload {
            name: "serve_hot",
            kinds: small(),
            connections: WORKERS,
            hot: Some(HotMix {
                size: 64,
                per_100: 90,
            }),
            check_every: 64,
            nominal_ops_per_s: 3600.0,
        },
        "engine_sv" => ServeWorkload {
            name: "engine_sv",
            kinds: vec![
                Kind::new("qaoa18.omp", Family::Qaoa(2), 18, 1024, omp()),
                Kind::new("ham18.omp", Family::Ham, 18, 1024, omp()),
                Kind::new("tfim18.omp", Family::Tfim, 18, 1024, omp()),
                Kind::new("qaoa18.cpu", Family::Qaoa(2), 18, 1024, cpu()).twin_of(0),
                Kind::new("tfim18.cpu", Family::Tfim, 18, 1024, cpu()).twin_of(2),
            ],
            connections: 1,
            hot: None,
            check_every: 16,
            nominal_ops_per_s: 12.5,
        },
        "dist_sv" => {
            // `with_ranks`, not `with_extra("ranks", _)`: the adapter reads
            // the typed field and silently ignores the extra.
            let mpi = || BackendSpec::of("nwqsim", "mpi").with_ranks(2);
            ServeWorkload {
                name: "dist_sv",
                kinds: vec![
                    Kind::new("tfim18.mpi", Family::Tfim, 18, 1024, mpi()),
                    Kind::new("qaoa18.mpi", Family::Qaoa(2), 18, 1024, mpi()),
                    Kind::new("ham18.mpi", Family::Ham, 18, 1024, mpi()),
                ],
                connections: 1,
                hot: None,
                check_every: 4,
                nominal_ops_per_s: 14.0,
            }
        }
        "auto_mix" => ServeWorkload {
            name: "auto_mix",
            kinds: vec![
                Kind::new("ghz24.auto", Family::Ghz, 24, 256, auto()),
                Kind::new("tfim20.auto", Family::Tfim, 20, 256, auto()),
                Kind::new("ham12.auto", Family::Ham, 12, 256, auto()),
                Kind::new("qaoa14.auto", Family::Qaoa(2), 14, 256, auto()),
                Kind::new("cliff14.auto", Family::CliffordPrefix(32), 14, 256, auto()),
                Kind::new(
                    "qaoa12.exatn",
                    Family::Qaoa(1),
                    12,
                    256,
                    BackendSpec::of("tnqvm", "exatn-mps"),
                ),
                Kind::new(
                    "qaoa12.qtensor",
                    Family::Qaoa(1),
                    12,
                    256,
                    BackendSpec::of("qtensor", "numpy"),
                ),
            ],
            connections: WORKERS,
            hot: None,
            check_every: 64,
            nominal_ops_per_s: 650.0,
        },
        _ => return None,
    })
}

impl ServeWorkload {
    fn op(&self, seed: u64, hot: &[Job], index: usize) -> Job {
        match self.hot {
            Some(mix) => gen::mixed_op(&self.kinds, hot, mix.per_100, seed, index),
            None => gen::cold_op(&self.kinds, seed, index),
        }
    }

    /// Cold ops served after set-up and before any timer, so the measured
    /// phase starts in the state a long-running service is in. Hits slow by
    /// a fifth once the result cache is full and every insert evicts, and a
    /// fresh stack takes 40 000 ops of a 90 % hot mix to get there; one
    /// shard's worth beyond capacity fills every shard.
    fn age_ops(&self) -> usize {
        match self.hot {
            Some(_) => CacheConfig::default().capacity * 9 / 8,
            None => 0,
        }
    }

    /// The kind whose `(circuit, seed)` this kind shares each round, if it
    /// is one of a twin pair (the pair's first kind names the group).
    fn twin_group(&self, kind: usize) -> Option<usize> {
        self.kinds[kind].twin_of.or_else(|| {
            self.kinds
                .iter()
                .any(|k| k.twin_of == Some(kind))
                .then_some(kind)
        })
    }

    /// Whether the op is compared with a direct engine reference.
    fn referenced(&self, job: &Job) -> bool {
        job.hot_slot.is_none() && job.index.is_multiple_of(self.check_every)
    }

    /// Whether verification needs the op's result after the loop.
    fn kept(&self, job: &Job) -> bool {
        self.referenced(job) || (job.hot_slot.is_none() && self.twin_group(job.kind).is_some())
    }
}

/// A launched stack, warmed and with its hot set filled.
struct Live {
    stack: ServeStack,
    hot: Vec<Job>,
    /// Cold results of the hot set, by slot: what every hit must equal.
    hot_results: Vec<QfwResult>,
}

fn setup(w: &ServeWorkload, warm: &[Job], hot: &[Job], obs: &Obs) -> Result<Live, String> {
    let stack = ServeStack::launch(obs);
    let conn = stack.ingress.connect();
    for job in warm {
        stack::serve(&conn, &job.envelope).map_err(|e| format!("{} warm-up: {e}", w.name))?;
    }
    let mut hot_results = Vec::with_capacity(hot.len());
    for job in hot {
        match stack::serve(&conn, &job.envelope).map_err(|e| format!("hot fill: {e}"))? {
            Served::Done(result, _) => hot_results.push(result),
            Served::Cached(_) => return Err("hot-set envelope was cached before it ran".into()),
        }
    }
    Ok(Live {
        stack,
        hot: hot.to_vec(),
        hot_results,
    })
}

/// Serves `w.age_ops()` cold ops on the workload's connections. Returns the
/// seconds it took, which no metric includes.
fn age(live: &Live, w: &ServeWorkload, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let failure = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..w.connections {
            scope.spawn(|| {
                let conn = live.stack.ingress.connect();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= w.age_ops() {
                        break;
                    }
                    let index = gen::AGE_ROUND * w.kinds.len() + i;
                    let job = gen::cold_op(&w.kinds, seed, index);
                    if let Err(e) = stack::serve(&conn, &job.envelope) {
                        *failure.lock().expect("ageing threads do not panic") =
                            Some(format!("ageing op {i}: {e}"));
                        break;
                    }
                }
            });
        }
    });
    match failure.into_inner().expect("ageing threads do not panic") {
        Some(e) => Err(e),
        None => Ok(t0.elapsed().as_secs_f64()),
    }
}

/// One completed op as the client saw it.
struct OpRecord {
    kind: usize,
    latency_s: f64,
    /// Completion time since the loop started.
    end_s: f64,
    cached: bool,
    /// The adapter's own `profile.total_secs`.
    adapter_s: f64,
}

/// What the traced loop additionally notes per executed op.
#[derive(Default)]
struct TracedTally {
    wait_us: Vec<f64>,
    picks: BTreeMap<&'static str, u64>,
    abs_log_err: Vec<f64>,
}

#[derive(Default)]
struct LoopData {
    records: Vec<OpRecord>,
    failures: Vec<String>,
    attempted: u64,
    /// `(job, result)` of the ops verification looks at after the loop.
    kept: Vec<(Job, QfwResult)>,
    /// Memory when op `Plan::memory_after` completed, if the loop got there.
    memory: Option<host::Memory>,
    tally: TracedTally,
}

impl LoopData {
    fn wall_s(&self) -> f64 {
        self.records.iter().map(|r| r.end_s).fold(0.0, f64::max)
    }

    fn throughput(&self) -> f64 {
        let wall = self.wall_s();
        if wall > 0.0 {
            self.records.len() as f64 / wall
        } else {
            0.0
        }
    }

    fn absorb(&mut self, other: LoopData) {
        self.records.extend(other.records);
        self.failures.extend(other.failures);
        self.attempted += other.attempted;
        self.kept.extend(other.kept);
        self.memory = self.memory.or(other.memory);
        self.tally.wait_us.extend(other.tally.wait_us);
        self.tally.abs_log_err.extend(other.tally.abs_log_err);
        for (bucket, n) in other.tally.picks {
            *self.tally.picks.entry(bucket).or_default() += n;
        }
    }
}

fn check_total(result: &QfwResult, shots: usize) -> Result<(), String> {
    let total: usize = result.counts.values().sum();
    if total == shots {
        Ok(())
    } else {
        Err(format!("counts sum to {total}, not {shots} shots"))
    }
}

/// Runs the closed loop for `duration`, taking ops off the shared list from
/// `next` on. Generation happens on the client thread but outside the
/// latency timer, as a tenant's own work would. Memory is read when op
/// `memory_after` of the list completes.
fn closed_loop(
    live: &Live,
    w: &ServeWorkload,
    seed: u64,
    next: &AtomicUsize,
    duration: Duration,
    memory_after: usize,
    traced: bool,
) -> LoopData {
    let start = Instant::now();
    let deadline = start + duration;
    let merged = Mutex::new(LoopData::default());
    std::thread::scope(|scope| {
        for _ in 0..w.connections {
            scope.spawn(|| {
                let conn = live.stack.ingress.connect();
                let mut data = LoopData::default();
                while Instant::now() < deadline {
                    let job = w.op(seed, &live.hot, next.fetch_add(1, Ordering::Relaxed));
                    data.attempted += 1;
                    let t0 = Instant::now();
                    let served = stack::serve(&conn, &job.envelope);
                    let latency_s = t0.elapsed().as_secs_f64();
                    let end_s = start.elapsed().as_secs_f64();
                    if job.index == memory_after {
                        data.memory = Some(host::memory());
                    }
                    let served = match served {
                        Ok(served) => served,
                        Err(e) => {
                            data.failures.push(format!("op {}: {e}", job.index));
                            continue;
                        }
                    };
                    let result = served.result();
                    let mut verdict = check_total(result, job.envelope.shots);
                    if let (Ok(()), Some(slot)) = (&verdict, job.hot_slot) {
                        // A repeat must be the cold execution's counts, and
                        // say so when it came from the cache.
                        if result.counts != live.hot_results[slot].counts {
                            verdict = Err("repeat differs from its cold result".into());
                        } else if matches!(served, Served::Cached(_))
                            && result.metadata.get("result_cached").map(String::as_str)
                                != Some("true")
                        {
                            verdict = Err("cache hit without result_cached=true".into());
                        }
                    }
                    if let Err(e) = verdict {
                        data.failures.push(format!("op {}: {e}", job.index));
                        continue;
                    }
                    data.records.push(OpRecord {
                        kind: job.kind,
                        latency_s,
                        end_s,
                        cached: matches!(served, Served::Cached(_)),
                        adapter_s: result.profile.total_secs,
                    });
                    if traced {
                        if let Served::Done(result, id) = &served {
                            note_traced(&mut data.tally, live, w, &job, result, *id);
                        }
                    }
                    if w.kept(&job) {
                        if let Served::Done(result, _) = served {
                            data.kept.push((job, result));
                        }
                    }
                }
                merged
                    .lock()
                    .expect("client threads do not panic")
                    .absorb(data);
            });
        }
    });
    merged.into_inner().expect("client threads do not panic")
}

fn note_traced(
    tally: &mut TracedTally,
    live: &Live,
    w: &ServeWorkload,
    job: &Job,
    result: &QfwResult,
    id: qfw_sched::JobId,
) {
    if let Some(timing) = live.stack.sched.job_timing(id) {
        tally.wait_us.push(timing.wait_us() as f64);
    }
    if w.kinds[job.kind].spec.backend != "auto" {
        return;
    }
    if let Ok(engine) = Engine::of_result(result) {
        *tally.picks.entry(engine.pick_bucket()).or_default() += 1;
    }
    let actual = result.profile.exec_secs + result.profile.sample_secs;
    if let Some(planned) = result.planned_cost() {
        if planned > 0.0 && actual > 0.0 {
            tally.abs_log_err.push((planned / actual).ln().abs());
        }
    }
}

/// What ingress does to a QASM3 envelope before the cache and scheduler
/// see it, through the same public compiler entry point.
fn ingest(env: &JobEnvelope) -> Result<(JobEnvelope, Option<Vec<usize>>), String> {
    let opt = if env.spec.backend == "nwqsim" && env.spec.subbackend == "mpi" {
        OptLevel::O3
    } else {
        OptLevel::O2
    };
    let ingested = qfw_compile::ingest_qasm3(&env.circuit, opt, &Obs::disabled())
        .map_err(|e| format!("ingest: {e}"))?;
    let mut out = env.clone();
    out.circuit = ingested.qfwasm;
    if let Some(order) = &ingested.layout {
        let csv: Vec<String> = order.iter().map(|q| q.to_string()).collect();
        out.spec = out.spec.with_extra("initial_layout", csv.join(","));
    }
    Ok((out, ingested.layout))
}

/// Counts the job must have produced, from a direct engine call.
fn reference(job: &Job, served: &QfwResult) -> Result<Counts, String> {
    let (env, _) = ingest(&job.envelope)?;
    let circuit = qfw_circuit::text::parse(&env.circuit).map_err(|e| e.to_string())?;
    Engine::reference_for(served)?.run(&circuit, env.shots, env.seed)
}

/// Compares kept ops with their references (and twins with each other).
/// Returns the failures and the seconds spent, which no metric includes.
fn verify(w: &ServeWorkload, kept: &[(Job, QfwResult)]) -> (Vec<String>, f64) {
    let t0 = Instant::now();
    let failures = Mutex::new(Vec::new());
    let referenced: Vec<&(Job, QfwResult)> =
        kept.iter().filter(|(job, _)| w.referenced(job)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| {
                while let Some((job, result)) =
                    referenced.get(cursor.fetch_add(1, Ordering::Relaxed))
                {
                    let verdict = match reference(job, result) {
                        Ok(counts) if counts == result.counts => continue,
                        Ok(_) => "counts differ from the direct engine reference".to_string(),
                        Err(e) => e,
                    };
                    failures
                        .lock()
                        .expect("verifier threads do not panic")
                        .push(format!(
                            "op {} ({}): {verdict}",
                            job.index, w.kinds[job.kind].name
                        ));
                }
            });
        }
    });
    let mut failures = failures
        .into_inner()
        .expect("verifier threads do not panic");
    // Twins: same round, same (circuit, seed), two sub-backends.
    let mut rounds: BTreeMap<(usize, usize), &QfwResult> = BTreeMap::new();
    for (job, result) in kept {
        let round = job.index / w.kinds.len();
        let Some(group) = w.twin_group(job.kind) else {
            continue;
        };
        if let Some(other) = rounds.insert((round, group), result) {
            if other.counts != result.counts {
                failures.push(format!(
                    "round {round}: {} twins disagree",
                    w.kinds[group].name
                ));
            }
        }
    }
    (failures, t0.elapsed().as_secs_f64())
}

pub fn run(w: &ServeWorkload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    Outcome::or_broken(measure(w, seed, seconds, traced))
}

fn measure(w: &ServeWorkload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let obs = Obs::disabled();
    let warm: Vec<Job> = (0..w.kinds.len())
        .map(|kind| gen::job(&w.kinds, seed, gen::WARM_ROUND, kind))
        .collect();
    let hot = match w.hot {
        Some(mix) => gen::hot_set(&w.kinds, seed, mix.size),
        None => Vec::new(),
    };
    let t0 = Instant::now();
    let live = setup(w, &warm, &hot, &obs)?;
    let first_setup_s = t0.elapsed().as_secs_f64();
    let age_s = age(&live, w, seed)?;

    let plan = stats::Plan::for_nominal((w.nominal_ops_per_s * seconds) as usize);
    let next = AtomicUsize::new(0);
    let share = |part: f64| Duration::from_secs_f64(seconds * part);
    let run = |part: f64, traced: bool| {
        closed_loop(
            &live,
            w,
            seed,
            &next,
            share(part),
            plan.memory_after,
            traced,
        )
    };
    let mut metrics = Metrics::default();
    let mut data;
    if traced {
        // An untraced slice on either side of the traced loop, so the cost
        // of the traced bookkeeping is a measured number and ageing of the
        // stack between the slices cancels; then the stair-step.
        let before = run(0.075, false);
        let snapshot = Counters::read(&live);
        data = run(0.45, true);
        traced_counters(&mut metrics, &live, &data, &snapshot);
        let after = run(0.075, false);
        let plain = (before.throughput() + after.throughput()) / 2.0;
        if plain > 0.0 {
            metrics.set(
                "bench.trace_overhead_share",
                1.0 - data.throughput() / plain,
            );
        }
        // The slices' ops are verified and counted, not summarised.
        for plain in [before, after] {
            data.absorb(LoopData {
                records: Vec::new(),
                ..plain
            });
        }
        let mut trace = Trace::default();
        match stair_step(&live, w, seed, share(0.4), &mut trace) {
            Ok(notes) => {
                trace.budget_metrics(&notes, &mut metrics);
                crate::write_trace(&trace, w.name);
            }
            Err(e) => data.failures.push(format!("stair-step: {e}")),
        }
    } else {
        data = run(1.0, false);
    }

    // A phase that never got to op `memory_after` reports what it reached,
    // read before verification and probes, whose memory is the harness's.
    let memory_marked = data.memory.is_some();
    metrics.set_memory(data.memory.unwrap_or_else(host::memory));
    let (check_failures, reference_s) = verify(w, &data.kept);
    data.failures.extend(check_failures);

    let completed: Vec<(f64, f64)> = data
        .records
        .iter()
        .map(|r| (r.end_s, r.latency_s * 1e3))
        .collect();
    let summary = stats::summarize(&completed, data.wall_s(), plan);
    let failed_share = data.failures.len() as f64 / data.attempted.max(1) as f64;
    live.stack.shutdown();
    let setup_s = crate::median_setup_s(
        first_setup_s,
        || setup(w, &warm, &hot, &obs),
        |live: Live| live.stack.shutdown(),
    )?;
    metrics.set_summary(
        setup_s,
        plan,
        &summary,
        traced.then_some((reference_s, failed_share)),
    );
    if traced {
        // On their own, after the workload's stack is gone.
        probes::for_workload(w.name, &mut metrics);
    }
    let referenced = data.kept.iter().filter(|(j, _)| w.referenced(j)).count();
    let mut detail = vec![
        ("ops_completed".to_string(), data.records.len() as f64),
        (
            "ops_checked_against_reference".to_string(),
            referenced as f64,
        ),
        ("tail_percentile".to_string(), f64::from(plan.tail_pct)),
        ("latency_tail_ms".to_string(), summary.latency_tail_ms),
        ("windows".to_string(), plan.windows as f64),
        ("reference_s".to_string(), reference_s),
        ("age_s".to_string(), age_s),
        (
            "memory_read_after_ops".to_string(),
            plan.memory_after as f64,
        ),
        (
            "memory_read_there".to_string(),
            f64::from(u8::from(memory_marked)),
        ),
    ];
    // Per-kind medians, of executed ops and of cache hits, show at a glance
    // whether `latency_p50_ms` sits inside one kind's distribution or
    // between two.
    for (cached, label) in [(false, "p50_ms"), (true, "hit_p50_ms")] {
        for (k, kind) in w.kinds.iter().enumerate() {
            let of_kind: Vec<f64> = data
                .records
                .iter()
                .filter(|r| r.kind == k && r.cached == cached)
                .map(|r| r.latency_s * 1e3)
                .collect();
            if !of_kind.is_empty() {
                detail.push((
                    format!("{label}[{}] (n={})", kind.name, of_kind.len()),
                    stats::median(&of_kind),
                ));
            }
        }
    }
    Ok(Outcome {
        attempted: data.attempted,
        failures: data.failures,
        metrics,
        detail,
    })
}

/// Readings of the stack's own counters, taken before the traced loop.
struct Counters {
    rss_kb: f64,
    sched: qfw_sched::SchedStats,
    requests: u64,
    invocations: u64,
}

impl Counters {
    fn read(live: &Live) -> Counters {
        Counters {
            rss_kb: host::rss_kb(),
            sched: live.stack.sched.stats(),
            requests: live.stack.ingress.ingress().stats().completed,
            invocations: live.stack.qrc.engine_invocations(),
        }
    }
}

fn traced_counters(metrics: &mut Metrics, live: &Live, data: &LoopData, before: &Counters) {
    let now = Counters::read(live);
    let ops = data.records.len().max(1) as f64;
    let executed: Vec<&OpRecord> = data.records.iter().filter(|r| !r.cached).collect();
    let client_s: f64 = executed.iter().map(|r| r.latency_s).sum();
    let adapter_s: f64 = executed.iter().map(|r| r.adapter_s).sum();
    if client_s > 0.0 {
        metrics.set("stack.overhead_share", 1.0 - adapter_s / client_s);
    }
    metrics.set("bench.ops_traced", data.records.len() as f64);
    // Throughput of the last quarter of the traced window over the first.
    let quarter = data.wall_s() / 4.0;
    let first = data.records.iter().filter(|r| r.end_s <= quarter).count();
    let last = data
        .records
        .iter()
        .filter(|r| r.end_s > 3.0 * quarter)
        .count();
    if first > 0 {
        metrics.set("stack.drift_ratio", last as f64 / first as f64);
    }
    metrics.set("stack.rss_kb_per_job", (now.rss_kb - before.rss_kb) / ops);
    metrics.set(
        "cache.hit_ratio",
        data.records.iter().filter(|r| r.cached).count() as f64 / ops,
    );
    metrics.set(
        "cache.evictions",
        live.stack.ingress.cache_stats().evictions as f64,
    );
    metrics.set(
        "sched.rejected",
        (now.sched.rejected - before.sched.rejected) as f64,
    );
    metrics.set(
        "sched.batches",
        (now.sched.batches - before.sched.batches) as f64,
    );
    metrics.set("sched.wait_us", stats::median(&data.tally.wait_us));
    // Every request beyond the one submit per op is a poll.
    let requests = now.requests - before.requests;
    if !executed.is_empty() {
        metrics.set(
            "client.polls_per_job",
            (requests as f64 - data.attempted as f64) / executed.len() as f64,
        );
    }
    metrics.set(
        "qrc.engine_invocations",
        (now.invocations - before.invocations) as f64 / ops,
    );
    for (bucket, name) in [
        ("stab", "planner.picks.stab"),
        ("mps", "planner.picks.mps"),
        ("sv", "planner.picks.sv"),
        ("partition", "planner.picks.partition"),
    ] {
        metrics.set(
            name,
            data.tally.picks.get(bucket).copied().unwrap_or(0) as f64,
        );
    }
    metrics.set(
        "planner.abs_log_err",
        stats::median(&data.tally.abs_log_err),
    );
}

/// Replays ops depth by depth on the now idle stack until `budget` is
/// spent (at least one round): each depth gets a fresh op of the kind, so
/// no cache answers for the layer being timed.
fn stair_step(
    live: &Live,
    w: &ServeWorkload,
    seed: u64,
    budget: Duration,
    trace: &mut Trace,
) -> Result<StairNotes, String> {
    let conn = live.stack.ingress.connect();
    let cache = ResultCache::new(CacheConfig::default(), &Obs::disabled());
    for (job, result) in live.hot.iter().zip(&live.hot_results) {
        let (env, _) = ingest(&job.envelope)?;
        let key = ResultCache::key(&env.circuit, env.seed, env.shots, &env.spec);
        cache.insert(key, Arc::new(result.clone()));
    }
    let mut extra = StairNotes::default();
    let start = Instant::now();
    let mut serial = 0usize;
    let mut round = 0usize;
    while round == 0 || start.elapsed() < budget {
        for kind in 0..w.kinds.len() {
            let op_id = extra.groups as u64;
            // Nine of ten groups of a hot workload replay the hit path.
            if !live.hot.is_empty() && round % 10 != 9 {
                let slot = (kind + w.kinds.len() * round) % live.hot.len();
                hit_group(live, &conn, &cache, slot, op_id, trace, &mut extra)?;
            } else {
                let mut fresh = || {
                    serial += 1;
                    gen::job(&w.kinds, seed, gen::STAIR_ROUND + serial, kind)
                };
                cold_group(
                    live,
                    &conn,
                    &cache,
                    [fresh(), fresh(), fresh(), fresh()],
                    op_id,
                    trace,
                    &mut extra,
                )?;
            }
            extra.groups += 1;
        }
        round += 1;
    }
    Ok(extra)
}

fn hit_group(
    live: &Live,
    conn: &qfw_defw::Connection,
    cache: &ResultCache,
    slot: usize,
    op_id: u64,
    trace: &mut Trace,
    extra: &mut StairNotes,
) -> Result<(), String> {
    let env = &live.hot[slot].envelope;
    let t0 = Instant::now();
    let served = stack::serve(conn, env)?;
    let root = trace.root("ingress.job", "qfw-defw", op_id, us(t0));
    let (serde_us, env_bytes, result_bytes) = serde_round_trip(env, served.result())?;
    trace.child(root, "defw.serde", "qfw-defw", serde_us);
    extra.envelope_bytes.push(env_bytes as f64);
    extra.result_bytes.push(result_bytes as f64);
    let t0 = Instant::now();
    let (compiled, _) = ingest(env)?;
    trace.child(root, "compile.ingest", "qfw-compile", us(t0));
    let t0 = Instant::now();
    let key = ResultCache::key(
        &compiled.circuit,
        compiled.seed,
        compiled.shots,
        &compiled.spec,
    );
    trace.child(root, "cache.key", "qfw", us(t0));
    let t0 = Instant::now();
    let hit = cache.get(key);
    trace.child(root, "cache.get_hit", "qfw", us(t0));
    if hit.is_none() {
        return Err(format!("hot slot {slot} missed the harness cache"));
    }
    Ok(())
}

fn cold_group(
    live: &Live,
    conn: &qfw_defw::Connection,
    cache: &ResultCache,
    jobs: [Job; 4],
    op_id: u64,
    trace: &mut Trace,
    extra: &mut StairNotes,
) -> Result<(), String> {
    let [front, sched_job, qrc_job, engine_job] = jobs;
    // Depth 0: the client's view.
    let t0 = Instant::now();
    stack::serve(conn, &front.envelope)?;
    let root = trace.root("ingress.job", "qfw-defw", op_id, us(t0));

    // Depth 1: what ingress does around the scheduler, step by step.
    let env = &sched_job.envelope;
    let t0 = Instant::now();
    let (compiled, _) = ingest(env)?;
    let ingest_us = us(t0);
    let t0 = Instant::now();
    let key = ResultCache::key(
        &compiled.circuit,
        compiled.seed,
        compiled.shots,
        &compiled.spec,
    );
    let key_us = us(t0);
    let t0 = Instant::now();
    let miss = cache.get(key);
    let miss_us = us(t0);
    if miss.is_some() {
        return Err("a fresh op hit the harness cache".into());
    }
    let t0 = Instant::now();
    let id = live
        .stack
        .sched
        .submit(compiled.clone())
        .map_err(|e| e.to_string())?;
    let submit_us = us(t0);
    let result = match live.stack.sched.wait(id, CALL_TIMEOUT) {
        JobStatus::Done(result) => result,
        other => return Err(format!("scheduler job ended as {other:?}")),
    };
    let sched_us = us(t0);
    let t0 = Instant::now();
    cache.insert(key, Arc::new(result.clone()));
    let insert_us = us(t0);
    let (serde_us, env_bytes, result_bytes) = serde_round_trip(env, &result)?;
    extra.submit_us.push(submit_us);
    extra.envelope_bytes.push(env_bytes as f64);
    extra.result_bytes.push(result_bytes as f64);
    trace.child(root, "defw.serde", "qfw-defw", serde_us);
    trace.child(root, "compile.ingest", "qfw-compile", ingest_us);
    trace.child(root, "cache.key", "qfw", key_us);
    trace.child(root, "cache.get_miss", "qfw", miss_us);
    let sched = trace.child(root, "sched.job", "qfw-sched", sched_us);
    trace.child(root, "cache.insert", "qfw", insert_us);

    // Depth 2: the QRC alone.
    let (compiled, _) = ingest(&qrc_job.envelope)?;
    let task = ExecTask {
        circuit: compiled.circuit,
        shots: compiled.shots,
        seed: compiled.seed,
        spec: compiled.spec,
    };
    let t0 = Instant::now();
    let direct = live.stack.qrc.execute(&task).map_err(|e| e.to_string())?;
    let qrc = trace.child(sched, "qrc.execute", "qfw", us(t0));
    extra.marshal_us.push(direct.profile.marshal_secs * 1e6);

    // Depth 3: parse and the simulator the QRC just chose, called directly.
    let (compiled, layout) = ingest(&engine_job.envelope)?;
    let t0 = Instant::now();
    let circuit = qfw_circuit::text::parse(&compiled.circuit).map_err(|e| e.to_string())?;
    trace.child(qrc, "circuit.text_parse", "qfw-circuit", us(t0));
    let engine = match Engine::of_result(&direct)? {
        Engine::Dist { ranks, .. } => Engine::Dist { ranks, layout },
        other => other,
    };
    let t0 = Instant::now();
    engine.run(&circuit, compiled.shots, compiled.seed)?;
    trace.child(qrc, "engine", "qfw-sim", us(t0));
    Ok(())
}
