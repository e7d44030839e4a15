//! Admission suite: every feature combination either meets the
//! bitwise-identity guarantee or is refused with a typed error before any
//! work is committed.
//!
//! * The composition matrix — engine × noise × partition × circuit form ×
//!   fusion — runs every cell through the QRC: an accepted cell's counts
//!   equal a direct serial engine call and the scheduler admits it too; a
//!   refused cell takes no slot, no engine invocation and no scheduler
//!   queue entry, and `Scheduler::submit` refuses it with the same error.
//! * Malformed or out-of-range values of every recognised spec key, and
//!   every spec the job's circuit rules out, are refused from
//!   `Qrc::execute`, from `Scheduler::submit` and over the ingress — never
//!   silently defaulted, never after a queue entry exists.
//! * A core request the worker group can never grant returns at once
//!   instead of spinning on the lease.

use qfw::registry::BackendRegistry;
use qfw::{
    BackendSpec, DispatchPolicy, ExecTask, QfwError, QfwResult, Qrc, ResultCache, SweepPointSpec,
    SweepTask,
};
use qfw_circuit::{text, Angle, Circuit, Gate, ParamCircuit};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_noise::{Channel, NoiseModel};
use qfw_obs::Obs;
use qfw_sched::ingress::client;
use qfw_sched::{
    JobEnvelope, JobStatus, SchedConfig, SchedError, SchedIngress, SchedIngressConfig, Scheduler,
};
use qfw_sim_sv::{FusionLevel, SvConfig, SvSimulator, Threading};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(60);
const N: usize = 5;
const SHOTS: usize = 2000;

type Counts = BTreeMap<String, usize>;

/// One QRC slot over two worker nodes.
fn qrc() -> (Arc<Qrc>, Arc<HetJob>) {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let dvm = Arc::new(Dvm::new(&cluster));
    let qrc = Qrc::new(
        BackendRegistry::standard(None),
        Arc::clone(&hetjob),
        dvm,
        1,
        1,
        DispatchPolicy::RoundRobin,
    );
    (Arc::new(qrc), hetjob)
}

/// A GHZ-ladder Clifford prefix (single H, so seam amplitudes are exact),
/// then — unless `clifford_only` — two parameterized rotation layers.
/// Returns the template and the prefix length in ops.
fn template(clifford_only: bool) -> (ParamCircuit, usize) {
    let mut t = ParamCircuit::new(N);
    t.h(0);
    for q in 0..N - 1 {
        t.fixed(Gate::Cx(q, q + 1));
    }
    for q in 0..N {
        t.fixed(Gate::S(q));
    }
    let seam = t.ops().len();
    if !clifford_only {
        for q in 0..N - 1 {
            t.rzz(q, q + 1, Angle::scaled(0, 2.0));
        }
        for q in 0..N {
            t.rx(q, Angle::scaled(1, 2.0));
        }
    }
    t.measure_all();
    (t, seam)
}

/// Three bindings with distinct seeds; point 0 is the concrete/bound job.
fn points(num_params: usize) -> Vec<SweepPointSpec> {
    (0..3)
        .map(|i| SweepPointSpec {
            params: [0.31 + 0.1 * i as f64, 0.84 - 0.07 * i as f64][..num_params].to_vec(),
            shots: SHOTS,
            seed: 900 + i as u64,
        })
        .collect()
}

fn noise_text() -> String {
    let mut model = NoiseModel::empty();
    model.add_2q_all(Channel::depolarizing(0.03));
    model.to_text()
}

/// What the cell must produce, from direct engine calls: the serial
/// unfused state-vector run, or the serial trajectory run for a noisy cell.
fn reference(circuit: &Circuit, point: &SweepPointSpec, noise: Option<&NoiseModel>) -> Counts {
    match noise {
        Some(model) => qfw_sim_sv::noise::run_trajectories(
            circuit,
            point.shots,
            point.seed,
            model,
            64,
            1,
            &Obs::disabled(),
        ),
        None => {
            SvSimulator::new(SvConfig {
                threading: Threading::Serial,
                fusion: FusionLevel::None,
            })
            .run(circuit, point.shots, point.seed)
            .counts
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Form {
    Concrete,
    Bound,
    Sweep,
}

/// Snapshot of everything a refusal must leave untouched.
fn footprint(qrc: &Qrc, sched: &Scheduler) -> (u64, Vec<u64>, u64) {
    (
        qrc.engine_invocations(),
        qrc.tasks_per_slot(),
        sched.stats().admitted,
    )
}

#[test]
fn composition_matrix_matches_reference_or_refuses_before_work() {
    let (qrc, _hetjob) = qrc();
    let sched = Scheduler::start(
        Arc::clone(&qrc),
        Obs::disabled(),
        SchedConfig {
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let noise = noise_text();
    let model = NoiseModel::parse(&noise).unwrap();
    let engines: Vec<(&str, &str, usize)> = vec![
        ("nwqsim", "cpu", 1),
        ("nwqsim", "openmp", 1),
        ("nwqsim", "mpi", 2),
        ("nwqsim", "mpi", 4),
        ("aer", "automatic", 1),
        ("aer", "statevector", 1),
        ("aer", "matrix_product_state", 1),
        ("aer", "stabilizer", 1),
        ("tnqvm", "", 1),
        ("qtensor", "", 1),
        ("auto", "", 1),
    ];
    let (mut ran, mut refused) = (0usize, 0usize);
    for &(backend, sub, ranks) in &engines {
        // The stabilizer engine admits no rotation: it gets the prefix.
        let (tmpl, seam) = template(sub == "stabilizer");
        let pts = points(tmpl.num_params());
        for noisy in [false, true] {
            for partitioned in [false, true] {
                for fusion in [None, Some(true), Some(false)] {
                    for form in [Form::Concrete, Form::Bound, Form::Sweep] {
                        let mut spec = BackendSpec::of(backend, sub).with_ranks(ranks);
                        if noisy {
                            spec = spec.with_extra("noise_model", &noise);
                        }
                        if partitioned {
                            spec = spec
                                .with_extra("partition", "clifford_prefix")
                                .with_extra("partition_seam", seam);
                        }
                        if let Some(f) = fusion {
                            spec = spec.with_extra("fusion", f);
                        }
                        let cell = format!(
                            "{backend}/{sub} x{ranks} noisy={noisy} partitioned={partitioned} \
                             fusion={fusion:?} {form:?}"
                        );
                        let before = footprint(&qrc, &sched);
                        let outcome: Result<Vec<QfwResult>, QfwError> = match form {
                            Form::Sweep => qrc.execute_sweep(&SweepTask {
                                circuit: text::dump_param(&tmpl),
                                points: pts.clone(),
                                spec: spec.clone(),
                            }),
                            _ => qrc
                                .execute(&ExecTask {
                                    circuit: if form == Form::Concrete {
                                        text::dump(&tmpl.bind(&pts[0].params))
                                    } else {
                                        text::dump_param_bound(&tmpl, &pts[0].params)
                                    },
                                    shots: pts[0].shots,
                                    seed: pts[0].seed,
                                    spec: spec.clone(),
                                })
                                .map(|r| vec![r]),
                        };
                        // The same cell as the scheduler sees it: a sweep
                        // arrives there as bound jobs it coalesces.
                        let env = match form {
                            Form::Concrete => JobEnvelope::new("t", &tmpl.bind(&pts[0].params), 10),
                            _ => JobEnvelope::new_param("t", &tmpl, &pts[0].params, 10),
                        }
                        .with_spec(spec.clone());
                        match outcome {
                            Ok(results) => {
                                ran += 1;
                                for (result, point) in results.iter().zip(&pts) {
                                    let want = reference(
                                        &tmpl.bind(&point.params),
                                        point,
                                        noisy.then_some(&model),
                                    );
                                    // Dense engines share the canonical
                                    // sampler: bitwise. MPS / TN / tableau
                                    // engines sample their own way: TV.
                                    let dense = result.backend == "nwqsim"
                                        || result
                                            .metadata
                                            .get("method")
                                            .map_or(result.subbackend.as_str(), String::as_str)
                                            == "statevector";
                                    if dense {
                                        assert_eq!(result.counts, want, "{cell}");
                                    } else {
                                        assert!(!noisy, "{cell}: noise ran off the dense engine");
                                        let mut exact =
                                            QfwResult::new("reference", "", point.shots);
                                        exact.counts = want.into();
                                        let d = result.tv_distance(&exact);
                                        assert!(d < 0.1, "{cell}: tv={d}");
                                    }
                                }
                                // What the QRC runs, the scheduler admits.
                                let id = sched.submit(env).unwrap_or_else(|e| panic!("{cell}: {e}"));
                                sched.cancel(id);
                            }
                            Err(e) => {
                                refused += 1;
                                assert!(
                                    matches!(
                                        e,
                                        QfwError::BadProperties(_)
                                            | QfwError::Resources(_)
                                            | QfwError::Marshal(_)
                                    ),
                                    "{cell}: refused with {e:?}"
                                );
                                // The only legitimate refusals in this
                                // matrix: noise off the local dense engine
                                // or across a partition seam, and `auto`
                                // asked to route a symbolic circuit.
                                assert!(
                                    noisy || (backend == "auto" && form != Form::Concrete),
                                    "{cell}: refused with {e:?}"
                                );
                                assert_eq!(footprint(&qrc, &sched), before, "{cell}: {e:?}");
                                // Every refusal — whether it rests on the
                                // spec alone or needs the circuit — is made
                                // at submit too, before a queue entry.
                                assert_eq!(
                                    sched.submit(env),
                                    Err(SchedError::Unrunnable(e)),
                                    "{cell}: the scheduler disagrees"
                                );
                                assert_eq!(footprint(&qrc, &sched), before, "{cell}");
                            }
                        }
                    }
                }
            }
        }
    }
    // Noise runs on nwqsim/{cpu,openmp} unpartitioned (and wherever `auto`
    // lands it); everything else ideal runs.
    assert!(ran > 200 && refused > 100, "ran={ran} refused={refused}");
    sched.shutdown();
}

/// Every recognised key fed a malformed or out-of-range value.
fn malformed_specs(group_cores: usize) -> Vec<(String, BackendSpec)> {
    let cpu = || BackendSpec::of("nwqsim", "cpu");
    // Cut before the channel's strength: a channel with no parameter.
    let mut truncated = noise_text();
    truncated.truncate(truncated.rfind(' ').unwrap());
    let mut out: Vec<(String, BackendSpec)> = [
        ("chi_max", "abc"),
        ("chi_max", "0"),
        ("trunc_eps", "-1"),
        ("width_limit", "wide"),
        ("fusion", "flase"),
        ("noise_trajectories", "0"),
        ("initial_layout", "0,0,1"),
        ("partition_seam", "0"),
        ("partition", "magic"),
        ("predicted_fidelity", "high"),
        ("noise_model", truncated.as_str()),
    ]
    .iter()
    .map(|(k, v)| (format!("{k}={v}"), cpu().with_extra(k, v)))
    .collect();
    // One rank per core fits; one more rounds up past the group.
    let too_many = group_cores.next_power_of_two() + 1;
    out.push((
        format!("nwqsim/mpi ranks={too_many}"),
        BackendSpec::of("nwqsim", "mpi").with_ranks(too_many),
    ));
    out.push((
        format!("qtensor/mpi ranks={}", group_cores + 1),
        BackendSpec::of("qtensor", "mpi").with_ranks(group_cores + 1),
    ));
    out
}

fn is_refusal(e: &QfwError) -> bool {
    matches!(e, QfwError::BadProperties(_) | QfwError::Resources(_))
}

#[test]
fn malformed_values_are_refused_on_every_entry_path() {
    let (qrc, hetjob) = qrc();
    let sched = Scheduler::start(Arc::clone(&qrc), Obs::disabled(), SchedConfig::default());
    let ingress = SchedIngress::start(
        sched.clone(),
        SchedIngressConfig::default(),
        Obs::disabled(),
    );
    let conn = ingress.connect();
    let circuit = template(false).0.bind(&[0.3, 0.8]);
    let before = footprint(&qrc, &sched);
    for (label, spec) in malformed_specs(hetjob.free_cores(1)) {
        let task = ExecTask {
            circuit: text::dump(&circuit),
            shots: 10,
            seed: 1,
            spec: spec.clone(),
        };
        let err = qrc.execute(&task).unwrap_err();
        assert!(is_refusal(&err), "{label}: Qrc::execute gave {err:?}");
        let batch = qrc.execute_many(std::slice::from_ref(&task));
        assert!(
            is_refusal(batch[0].as_ref().unwrap_err()),
            "{label}: execute_many"
        );
        // `auto` validates the caller's values before ranking anything.
        let mut auto = task.clone();
        auto.spec.backend = "auto".into();
        auto.spec.subbackend.clear();
        if spec.ranks <= 1 {
            let err = qrc.execute(&auto).unwrap_err();
            assert!(is_refusal(&err), "{label}: auto gave {err:?}");
        }
        let env = JobEnvelope::new("t", &circuit, 10).with_spec(spec);
        match sched.submit(env.clone()) {
            Err(SchedError::Unrunnable(e)) => assert!(is_refusal(&e), "{label}: {e:?}"),
            other => panic!("{label}: Scheduler::submit returned {other:?}"),
        }
        let remote = client::submit(&conn, &env, T).unwrap_err().to_string();
        assert!(
            remote.contains("unrunnable job"),
            "{label}: ingress said {remote}"
        );
    }
    assert_eq!(footprint(&qrc, &sched), before);

    // Checks that need the circuit run at admission too — before a slot
    // or a queue entry, whichever way the job arrives. A seam is a hint for
    // concrete circuits only; width checks bind symbolic forms too.
    let n_ops = circuit.ops().len();
    let (tmpl, _) = template(false);
    let pts = points(tmpl.num_params());
    for (label, spec, symbolic) in [
        (
            "seam past the op list",
            BackendSpec::of("nwqsim", "cpu").with_extra("partition_seam", n_ops + 1),
            false,
        ),
        (
            "seam across a rotation",
            BackendSpec::of("nwqsim", "cpu").with_extra("partition_seam", n_ops - N),
            false,
        ),
        (
            "layout narrower than the register",
            BackendSpec::of("nwqsim", "mpi")
                .with_ranks(2)
                .with_extra("initial_layout", "1,0,2"),
            true,
        ),
        (
            "more ranks than amplitudes pairs",
            BackendSpec::of("nwqsim", "mpi").with_ranks(1 << N),
            true,
        ),
        (
            "a shard narrower than a cx",
            BackendSpec::of("nwqsim", "mpi").with_ranks(1 << (N - 1)),
            true,
        ),
        (
            "a chunk narrower than a cx",
            BackendSpec::of("aer", "statevector").with_ranks(1 << (N - 1)),
            true,
        ),
    ] {
        let task = |circuit: String| ExecTask {
            circuit,
            shots: 10,
            seed: 1,
            spec: spec.clone(),
        };
        let outcome = qrc.execute(&task(text::dump(&circuit)));
        assert!(
            matches!(&outcome, Err(e) if is_refusal(e)),
            "{label}: {outcome:?}"
        );
        let env = JobEnvelope::new("t", &circuit, 10).with_spec(spec.clone());
        let submitted = sched.submit(env.clone());
        assert!(
            matches!(&submitted, Err(SchedError::Unrunnable(e)) if is_refusal(e)),
            "{label}: Scheduler::submit returned {submitted:?}"
        );
        let remote = client::submit(&conn, &env, T).unwrap_err().to_string();
        assert!(remote.contains("unrunnable job"), "{label}: ingress said {remote}");
        if !symbolic {
            continue;
        }
        let bound = task(text::dump_param_bound(&tmpl, &pts[0].params));
        let outcome = qrc.execute(&bound);
        assert!(
            matches!(&outcome, Err(e) if is_refusal(e)),
            "{label}, bound: {outcome:?}"
        );
        let env = JobEnvelope::new_param("t", &tmpl, &pts[0].params, 10).with_spec(spec.clone());
        let submitted = sched.submit(env);
        assert!(
            matches!(&submitted, Err(SchedError::Unrunnable(e)) if is_refusal(e)),
            "{label}, bound: Scheduler::submit returned {submitted:?}"
        );
        for outcome in qrc.execute_many(&[bound.clone(), bound]) {
            assert!(
                matches!(&outcome, Err(e) if is_refusal(e)),
                "{label}, batch: {outcome:?}"
            );
        }
        let outcome = qrc.execute_sweep(&SweepTask {
            circuit: text::dump_param(&tmpl),
            points: pts.clone(),
            spec: spec.clone(),
        });
        assert!(
            matches!(&outcome, Err(e) if is_refusal(e)),
            "{label}, sweep: {outcome:?}"
        );
    }
    // Text that is no circuit at all is refused the same way.
    let mut garbled = JobEnvelope::new("t", &circuit, 10);
    garbled.circuit = "qfwasm 1\nqubits 2\nnosuchgate q0\n".into();
    assert!(matches!(
        sched.submit(garbled),
        Err(SchedError::Unrunnable(QfwError::Marshal(_)))
    ));
    assert_eq!(footprint(&qrc, &sched), before);
    ingress.shutdown();
    sched.shutdown();
}

/// Regression: a lease the group can never grant used to spin for 300 s
/// inside the adapter while holding the slot.
#[test]
fn unsatisfiable_core_request_is_refused_at_once() {
    let (qrc, hetjob) = qrc();
    let cores = hetjob.free_cores(1);
    let circuit = template(false).0.bind(&[0.3, 0.8]);
    for ranks in [cores + 1, cores.next_power_of_two() * 2] {
        let start = Instant::now();
        let err = qrc
            .execute(&ExecTask {
                circuit: text::dump(&circuit),
                shots: 10,
                seed: 1,
                spec: BackendSpec::of("nwqsim", "mpi").with_ranks(ranks),
            })
            .unwrap_err();
        assert!(
            matches!(err, QfwError::Resources(_)),
            "{ranks} ranks: {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{ranks} ranks spun"
        );
    }
    assert_eq!(qrc.engine_invocations(), 0);
    assert_eq!(qrc.tasks_per_slot(), vec![0]);
    // A request that fits still runs, rounded up once.
    let ok = qrc
        .execute(&ExecTask {
            circuit: text::dump(&circuit),
            shots: 10,
            seed: 1,
            spec: BackendSpec::of("nwqsim", "mpi").with_ranks(3),
        })
        .unwrap();
    assert_eq!(ok.profile.ranks, 4);
}

/// The cache keys on what a spec means, not how it is spelled.
#[test]
fn cache_key_follows_the_resolved_plan() {
    let wire = text::dump(&template(false).0.bind(&[0.3, 0.8]));
    let key = |spec: BackendSpec| ResultCache::key(&wire, 7, 100, &spec);
    let base = key(BackendSpec::of("nwqsim", "cpu"));
    assert_eq!(
        base,
        key(BackendSpec::of("nwqsim", "cpu").with_extra("fusion", true))
    );
    assert_ne!(
        base,
        key(BackendSpec::of("nwqsim", "cpu").with_extra("fusion", false))
    );
    // Unrecognised keys stay legal and separate the key verbatim.
    assert_ne!(
        base,
        key(BackendSpec::of("nwqsim", "cpu").with_extra("site", "ornl"))
    );
}

/// Regression: the scheduler coalesces same-skeleton bound jobs into one
/// sweep, whose points used to skip the layout check single jobs get — a
/// short `initial_layout` on `nwqsim/mpi` then panicked inside the rank
/// threads with the slot held. Every such job is now refused at submit, so
/// a coalesced batch only ever holds jobs that passed the single-job
/// checks, and the stack carries on.
#[test]
fn coalesced_sweep_points_get_the_single_job_checks() {
    let (qrc, _hetjob) = qrc();
    let sched = Scheduler::start(
        Arc::clone(&qrc),
        Obs::disabled(),
        SchedConfig {
            start_paused: true,
            max_batch: 8,
            ..SchedConfig::default()
        },
    );
    let (tmpl, _) = template(false);
    let mpi = BackendSpec::of("nwqsim", "mpi").with_ranks(2);
    let short = mpi.clone().with_extra("initial_layout", "1,0,2");
    for p in points(tmpl.num_params()) {
        let env = JobEnvelope::new_param("t", &tmpl, &p.params, 10).with_spec(short.clone());
        match sched.submit(env) {
            Err(SchedError::Unrunnable(QfwError::BadProperties(why))) => {
                assert!(why.contains("initial_layout"), "{why}")
            }
            other => panic!("short layout was answered with {other:?}"),
        }
    }
    assert_eq!(sched.stats().admitted, 0);
    // Jobs that pass coalesce into one invocation and all finish.
    let full = mpi.with_extra("initial_layout", "4,3,2,1,0");
    let ids: Vec<_> = points(tmpl.num_params())
        .iter()
        .map(|p| {
            let env = JobEnvelope::new_param("t", &tmpl, &p.params, 10).with_spec(full.clone());
            sched.submit(env).unwrap()
        })
        .collect();
    sched.resume();
    for id in ids {
        assert!(matches!(sched.wait(id, T), JobStatus::Done(_)));
    }
    assert_eq!(qrc.engine_invocations(), 1);
    sched.shutdown();
}

/// `aer/automatic` learns whether it runs dense only once it has seen the
/// circuit — which admission has: ranks it will not use must not get a job
/// refused, and ranks it cannot have are refused before a slot is taken.
#[test]
fn aer_automatic_checks_ranks_only_on_the_dense_method() {
    let (qrc, hetjob) = qrc();
    let too_many = hetjob.free_cores(1).next_power_of_two() * 2;
    let run = |circuit: &Circuit, ranks: usize| {
        qrc.execute(&ExecTask {
            circuit: text::dump(circuit),
            shots: 10,
            seed: 1,
            spec: BackendSpec::of("aer", "automatic").with_ranks(ranks),
        })
    };
    // Clifford: the tableau ignores ranks, however many.
    let clifford = template(true).0.bind(&[]);
    for ranks in [1 << N, too_many] {
        let result = run(&clifford, ranks).unwrap();
        assert_eq!(result.metadata["method"], "stabilizer");
        assert_eq!(result.profile.ranks, 1);
    }
    // Dense: the register must split, and the group must have the cores.
    // (A long-range rotation keeps `automatic` off the MPS method.)
    let mut dense = Circuit::new(N);
    dense.h(0);
    dense.cx(0, N - 1);
    dense.rzz(1, N - 2, 0.7);
    dense.measure_all();
    assert_eq!(run(&dense, 1).unwrap().metadata["method"], "statevector");
    assert_eq!(run(&dense, 4).unwrap().profile.ranks, 4);
    let before = (qrc.engine_invocations(), qrc.tasks_per_slot());
    for ranks in [1 << N, too_many] {
        let start = Instant::now();
        let err = run(&dense, ranks).unwrap_err();
        assert!(matches!(err, QfwError::Resources(_)), "{ranks}: {err:?}");
        assert!(start.elapsed() < Duration::from_secs(1), "{ranks} spun");
    }
    assert_eq!((qrc.engine_invocations(), qrc.tasks_per_slot()), before);
    assert_eq!(run(&dense, 1).unwrap().profile.ranks, 1);
}

/// A row the engine table declares but cannot run (its Table 1 note), and
/// a register wider than `qtensor`'s width limit, are refused by admission
/// on every entry path — `Qrc::admit`, `Qrc::execute`, `Qrc::execute_sweep`
/// and `Scheduler::submit` — before a slot, an engine invocation or a
/// queue entry exists.
#[test]
fn rows_that_cannot_run_are_refused_before_work() {
    let (qrc, _hetjob) = qrc();
    let sched = Scheduler::start(
        Arc::clone(&qrc),
        Obs::disabled(),
        SchedConfig {
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let n = 8;
    let mut ghz = Circuit::new(n);
    ghz.h(0);
    for q in 0..n - 1 {
        ghz.cx(q, q + 1);
    }
    ghz.measure_all();
    let mut skeleton = ParamCircuit::new(n);
    skeleton.h(0);
    for q in 0..n - 1 {
        skeleton.fixed(Gate::Cx(q, q + 1));
    }
    skeleton.rx(0, Angle::sym(0));
    skeleton.measure_all();
    let pts = points(1);
    // (spec, what the refusal says): a pending row's Table 1 note is
    // `BadProperties`, a register past the width limit `Resources`.
    let cases = [
        (BackendSpec::of("tnqvm", "ttn"), "xasm"),
        (BackendSpec::of("tnqvm", "peps"), "architecturally"),
        (BackendSpec::of("ionq", "hardware"), "planned"),
        (
            BackendSpec::of("qtensor", "numpy").with_extra("width_limit", 5),
            "width limit 5",
        ),
    ];
    let before = footprint(&qrc, &sched);
    for (spec, says) in &cases {
        let cell = format!("{}/{}", spec.backend, spec.subbackend);
        let refused = |e: &QfwError| match e {
            QfwError::Resources(why) => spec.backend == "qtensor" && why.contains(says),
            QfwError::BadProperties(why) => spec.backend != "qtensor" && why.contains(says),
            _ => false,
        };
        let wire = text::dump(&ghz);
        let admitted = qrc.admit(qfw::Source::Wire(&wire), 10, 1, spec);
        assert!(matches!(&admitted, Err(e) if refused(e)), "{cell}: admit gave {admitted:?}");
        let task = ExecTask {
            circuit: wire.clone(),
            shots: 10,
            seed: 1,
            spec: spec.clone(),
        };
        let executed = qrc.execute(&task);
        assert!(matches!(&executed, Err(e) if refused(e)), "{cell}: execute gave {executed:?}");
        let swept = qrc.execute_sweep(&SweepTask {
            circuit: text::dump_param(&skeleton),
            points: pts.clone(),
            spec: spec.clone(),
        });
        assert!(matches!(&swept, Err(e) if refused(e)), "{cell}: sweep gave {swept:?}");
        let env = JobEnvelope::new("t", &ghz, 10).with_spec(spec.clone());
        match sched.submit(env) {
            Err(SchedError::Unrunnable(e)) => assert!(refused(&e), "{cell}: submit gave {e:?}"),
            other => panic!("{cell}: Scheduler::submit returned {other:?}"),
        }
        assert_eq!(footprint(&qrc, &sched), before, "{cell}");
    }
    // A register that fits the limit still runs.
    let fits = BackendSpec::of("qtensor", "numpy").with_extra("width_limit", n);
    let env = JobEnvelope::new("t", &ghz, 10).with_spec(fits);
    let id = sched.submit(env).unwrap();
    sched.resume();
    assert!(matches!(sched.wait(id, T), JobStatus::Done(_)));
    sched.shutdown();
}

/// A non-Clifford gate on `aer/stabilizer` is refused by admission with
/// `BadProperties` naming the gate, on every entry path — `Qrc::admit`,
/// `Qrc::execute`, `Qrc::execute_many`, `Qrc::execute_sweep`,
/// `Scheduler::submit` and the ingress — before a slot, an engine
/// invocation, a queue entry or a job id exists. A Clifford circuit still
/// runs there.
#[test]
fn non_clifford_gates_are_refused_on_the_stabilizer_row_before_work() {
    let (qrc, _hetjob) = qrc();
    let sched = Scheduler::start(
        Arc::clone(&qrc),
        Obs::disabled(),
        SchedConfig {
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let ingress = SchedIngress::start(
        sched.clone(),
        SchedIngressConfig::default(),
        Obs::disabled(),
    );
    let conn = ingress.connect();
    let spec = BackendSpec::of("aer", "stabilizer");
    let refused = |e: &QfwError| matches!(e, QfwError::BadProperties(why) if why.contains("'t'"));
    let mut qc = Circuit::new(3);
    qc.h(0).t(0).cx(0, 1);
    qc.measure_all();
    let wire = text::dump(&qc);
    let task = ExecTask {
        circuit: wire.clone(),
        shots: 10,
        seed: 1,
        spec: spec.clone(),
    };
    let before = footprint(&qrc, &sched);
    let admitted = qrc.admit(qfw::Source::Wire(&wire), 10, 1, &spec);
    assert!(matches!(&admitted, Err(e) if refused(e)), "admit gave {admitted:?}");
    let executed = qrc.execute(&task);
    assert!(matches!(&executed, Err(e) if refused(e)), "execute gave {executed:?}");
    for outcome in qrc.execute_many(&[task.clone(), task]) {
        assert!(matches!(&outcome, Err(e) if refused(e)), "batch gave {outcome:?}");
    }
    // A skeleton's rotation is non-Clifford at every binding.
    let (tmpl, _) = template(false);
    let swept = qrc.execute_sweep(&SweepTask {
        circuit: text::dump_param(&tmpl),
        points: points(tmpl.num_params()),
        spec: spec.clone(),
    });
    assert!(
        matches!(&swept, Err(QfwError::BadProperties(why)) if why.contains("non-Clifford")),
        "sweep gave {swept:?}"
    );
    let env = JobEnvelope::new("t", &qc, 10).with_spec(spec.clone());
    match sched.submit(env.clone()) {
        Err(SchedError::Unrunnable(e)) => assert!(refused(&e), "submit gave {e:?}"),
        other => panic!("Scheduler::submit returned {other:?}"),
    }
    let remote = client::submit(&conn, &env, T).unwrap_err().to_string();
    assert!(remote.contains("unrunnable job"), "ingress said {remote}");
    assert_eq!(footprint(&qrc, &sched), before);
    // The same row still runs a Clifford circuit.
    let clifford = template(true).0.bind(&[]);
    let id = sched
        .submit(JobEnvelope::new("t", &clifford, 10).with_spec(spec))
        .unwrap();
    sched.resume();
    assert!(matches!(sched.wait(id, T), JobStatus::Done(_)));
    ingress.shutdown();
    sched.shutdown();
}

/// A register that fits `width_limit` can still need a wider intermediate
/// midway through its contraction. Admission lays out the job's
/// contraction plan from its wires and refuses that width with `Resources`
/// in the engine's words, on `qtensor/{numpy,mpi}` and on every entry path
/// — `Qrc::admit`, `Qrc::execute`, `Qrc::execute_many`,
/// `Qrc::execute_sweep` on a skeleton, `Scheduler::submit` and the ingress
/// — before a slot, an engine invocation, a queue entry or a job id
/// exists. The next job on the same controller runs.
#[test]
fn contraction_past_the_width_limit_is_refused_before_work() {
    let (qrc, _hetjob) = qrc();
    let sched = Scheduler::start(
        Arc::clone(&qrc),
        Obs::disabled(),
        SchedConfig {
            start_paused: true,
            ..SchedConfig::default()
        },
    );
    let ingress = SchedIngress::start(
        sched.clone(),
        SchedIngressConfig::default(),
        Obs::disabled(),
    );
    let conn = ingress.connect();
    let qc = qfw_testkit::random_circuit(5, 30, 15);
    let wire = text::dump(&qc);
    // The same gates as a skeleton whose first `rx` angle is symbolic.
    let mut skeleton = ParamCircuit::new(5);
    let first_rx = qc.gates().position(|g| matches!(g, Gate::Rx(..))).unwrap();
    for (i, g) in qc.gates().enumerate() {
        match g {
            Gate::Rx(q, _) if i == first_rx => skeleton.rx(*q, Angle::sym(0)),
            _ => skeleton.fixed(g.clone()),
        };
    }
    let refused = |e: &QfwError| {
        matches!(e, QfwError::Resources(why)
            if why.starts_with("contraction width") && why.ends_with("exceeds the limit 5"))
    };
    let before = footprint(&qrc, &sched);
    for sub in ["numpy", "mpi"] {
        let spec = BackendSpec::of("qtensor", sub).with_extra("width_limit", 5);
        let task = ExecTask {
            circuit: wire.clone(),
            shots: 10,
            seed: 1,
            spec: spec.clone(),
        };
        let admitted = qrc.admit(qfw::Source::Wire(&wire), 10, 1, &spec);
        assert!(
            matches!(&admitted, Err(e) if refused(e)),
            "{sub}: admit gave {admitted:?}"
        );
        let executed = qrc.execute(&task);
        assert!(
            matches!(&executed, Err(e) if refused(e)),
            "{sub}: execute gave {executed:?}"
        );
        for outcome in qrc.execute_many(&[task.clone(), task]) {
            assert!(
                matches!(&outcome, Err(e) if refused(e)),
                "{sub}: batch gave {outcome:?}"
            );
        }
        let swept = qrc.execute_sweep(&SweepTask {
            circuit: text::dump_param(&skeleton),
            points: points(1),
            spec: spec.clone(),
        });
        assert!(
            matches!(&swept, Err(e) if refused(e)),
            "{sub}: sweep gave {swept:?}"
        );
        let env = JobEnvelope::new("t", &qc, 10).with_spec(spec);
        match sched.submit(env.clone()) {
            Err(SchedError::Unrunnable(e)) => assert!(refused(&e), "{sub}: submit gave {e:?}"),
            other => panic!("{sub}: Scheduler::submit returned {other:?}"),
        }
        let remote = client::submit(&conn, &env, T).unwrap_err().to_string();
        assert!(
            remote.contains("exceeds the limit 5"),
            "{sub}: ingress said {remote}"
        );
    }
    assert_eq!(footprint(&qrc, &sched), before);
    assert_eq!((qrc.engine_invocations(), qrc.engine_panics()), (0, 0));
    let wire = text::dump(&template(false).0.bind(&[0.3, 0.8]));
    let next = qrc
        .execute(&ExecTask {
            circuit: wire,
            shots: 10,
            seed: 1,
            spec: BackendSpec::of("qtensor", "numpy"),
        })
        .unwrap();
    assert_eq!(next.counts.values().sum::<usize>(), 10);
    ingress.shutdown();
    sched.shutdown();
}
