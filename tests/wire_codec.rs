//! Wire codec suite: the JSON every request and reply crosses a front door
//! in (the DEFw hub, `SchedIngress`) and the calibration table's JSON.
//!
//! * Golden bytes: a representative value of every wire type encodes to
//!   exactly the bytes pinned below, and decoding those bytes re-encodes
//!   to them. The bytes were captured from the value-tree codec the
//!   streaming one replaced, so the wire has not moved.
//! * Byte-mutation fuzz: seeded flips, truncations, insertions and
//!   duplications of that corpus, decoded as their own type and as a
//!   `Value`, never panic; an accepted mutation re-encodes to a fixed
//!   point.
//! * Nesting cap: a payload nested past the reader's depth limit is a typed
//!   `Codec` error through both `Ingress` (the hub's transport) and
//!   `SchedIngress`, and the same connection serves the next call.

use qfw::registry::BackendRegistry;
use qfw::{BackendSpec, DispatchPolicy, ExecProfile, ExecTask, QfwResult, Qrc};
use qfw::{SweepPointSpec, SweepTask};
use qfw_defw::{Ingress, IngressConfig, IngressError, MethodTable, RpcError};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_noise::Calibration;
use qfw_num::Rng;
use qfw_obs::Obs;
use qfw_sched::ingress::client;
use qfw_sched::{
    CancelOutcome, IngressSubmitOutcome, JobEnvelope, JobStatus, OverloadInfo, Priority,
    SchedConfig, SchedIngress, SchedIngressConfig, Scheduler,
};
use qfw_workloads::{ghz, Qubo};
use serde_json::Value;
use std::sync::Arc;
use std::time::Duration;

/// A QASM3 payload with the escapes a circuit text carries: newlines, a
/// tab, quotes, a backslash and non-ASCII.
const QASM3: &str = "OPENQASM 3.0;\ninclude \"stdgates.inc\";\n\
    // état préparé — GHZ, θ = π/4\tC:\\tmp\r\n\
    qubit[3] q;\nbit[3] c;\nh q[0];\ncx q[0], q[1];\nrz(pi/4) q[2];\nc = measure q;\n";

fn spec() -> BackendSpec {
    BackendSpec::of("nwqsim", "mpi")
        .with_ranks(4)
        .with_extra("fusion", true)
        .with_extra("calibration", Calibration::synthetic(1, 3).to_json())
}

fn result() -> QfwResult {
    let mut r = QfwResult::new("nwqsim", "cpu", 1024)
        .with_meta("max_bond", 7)
        .with_meta("note", "a \"quoted\"\nline");
    for (k, c) in [("000", 480), ("011", 3), ("111", 541)] {
        r.counts.insert(k.into(), c);
    }
    r.profile = ExecProfile {
        queue_secs: 0.0,
        marshal_secs: 1.5e-5,
        exec_secs: 2.0,
        sample_secs: 0.000123,
        total_secs: 3.25,
        ranks: 2,
    };
    r
}

fn document() -> Value {
    Value::Map(vec![
        ("neg".into(), Value::Int(-42)),
        ("min".into(), Value::Int(i64::MIN)),
        ("max".into(), Value::UInt(u64::MAX)),
        ("half".into(), Value::Float(-0.5)),
        ("whole".into(), Value::Float(3.0)),
        ("tiny".into(), Value::Float(6.02e-23)),
        (
            "esc \"k\"".into(),
            Value::Str("tab\t\\ \u{1}\u{1f} \u{7f} é😀".into()),
        ),
        (
            "seq".into(),
            Value::Seq(vec![
                Value::Null,
                Value::Bool(true),
                Value::Bool(false),
                Value::Seq(vec![]),
            ]),
        ),
        ("empty".into(), Value::Map(vec![])),
    ])
}

/// One wire type's codec with its type erased: the sample's encoding, the
/// pinned bytes, and "decode as this type, then encode".
struct Case {
    name: &'static str,
    sample: Vec<u8>,
    golden: &'static str,
    reencode: fn(&[u8]) -> Result<Vec<u8>, serde_json::Error>,
}

macro_rules! case {
    ($name:literal, $ty:ty, $value:expr, $golden:expr) => {
        Case {
            name: $name,
            sample: serde_json::to_vec::<$ty>(&$value).unwrap(),
            golden: $golden,
            reencode: |bytes| serde_json::to_vec(&serde_json::from_slice::<$ty>(bytes)?),
        }
    };
}

fn corpus() -> Vec<Case> {
    vec![
        case!(
            "exec_task",
            ExecTask,
            ExecTask { circuit: QASM3.into(), shots: 512, seed: 0xDEAD_BEEF_CAFE_F00D, spec: spec() },
            r#"{"circuit":"OPENQASM 3.0;\ninclude \"stdgates.inc\";\n// état préparé — GHZ, θ = π/4\tC:\\tmp\r\nqubit[3] q;\nbit[3] c;\nh q[0];\ncx q[0], q[1];\nrz(pi/4) q[2];\nc = measure q;\n","shots":512,"seed":16045690984503111693,"spec":{"backend":"nwqsim","subbackend":"mpi","ranks":4,"extra":{"calibration":"{\"qubits\":[{\"t1_us\":94.29015417956754,\"t2_us\":79.81901676828457,\"err_1q\":0.0017565908019716249,\"err_2q\":0.02460774306581611,\"readout_p01\":0.025095786798835572,\"readout_p10\":0.011415612475787363}],\"gate_time_1q_us\":0.05,\"gate_time_2q_us\":0.35}","fusion":"true"}}}"#
        ),
        case!(
            "sweep_task",
            SweepTask,
            SweepTask {
                circuit: "qfwasm-param 1\nqubits 2\nrx(@0) q0\nrzz(@1) q0 q1\n".into(),
                points: vec![
                    SweepPointSpec { params: vec![0.25, -1.5, 2.0, 1e-7, 1e15, 1e20], shots: 64, seed: 7 },
                    SweepPointSpec { params: vec![], shots: 0, seed: u64::MAX },
                ],
                spec: BackendSpec::of("aer", "automatic"),
            },
            r#"{"circuit":"qfwasm-param 1\nqubits 2\nrx(@0) q0\nrzz(@1) q0 q1\n","points":[{"params":[0.25,-1.5,2.0,0.0000001,1000000000000000,100000000000000000000],"shots":64,"seed":7},{"params":[],"shots":0,"seed":18446744073709551615}],"spec":{"backend":"aer","subbackend":"automatic","ranks":1,"extra":{}}}"#
        ),
        case!(
            "job_envelope",
            JobEnvelope,
            JobEnvelope {
                tenant: "tenant-α \"quoted\"".into(),
                priority: Priority::High,
                deadline_ms: Some(250),
                shots: 1024,
                seed: 99,
                circuit: QASM3.into(),
                spec: spec(),
            },
            r#"{"tenant":"tenant-α \"quoted\"","priority":"High","deadline_ms":250,"shots":1024,"seed":99,"circuit":"OPENQASM 3.0;\ninclude \"stdgates.inc\";\n// état préparé — GHZ, θ = π/4\tC:\\tmp\r\nqubit[3] q;\nbit[3] c;\nh q[0];\ncx q[0], q[1];\nrz(pi/4) q[2];\nc = measure q;\n","spec":{"backend":"nwqsim","subbackend":"mpi","ranks":4,"extra":{"calibration":"{\"qubits\":[{\"t1_us\":94.29015417956754,\"t2_us\":79.81901676828457,\"err_1q\":0.0017565908019716249,\"err_2q\":0.02460774306581611,\"readout_p01\":0.025095786798835572,\"readout_p10\":0.011415612475787363}],\"gate_time_1q_us\":0.05,\"gate_time_2q_us\":0.35}","fusion":"true"}}}"#
        ),
        case!(
            "job_envelope_defaults",
            JobEnvelope,
            JobEnvelope {
                tenant: "t".into(),
                priority: Priority::Low,
                deadline_ms: None,
                shots: 1,
                seed: 0,
                circuit: String::new(),
                spec: BackendSpec::of("aer", "automatic"),
            },
            r#"{"tenant":"t","priority":"Low","deadline_ms":null,"shots":1,"seed":0,"circuit":"","spec":{"backend":"aer","subbackend":"automatic","ranks":1,"extra":{}}}"#
        ),
        case!("qfw_result", QfwResult, result(), r#"{"counts":{"000":480,"011":3,"111":541},"shots":1024,"backend":"nwqsim","subbackend":"cpu","profile":{"queue_secs":0.0,"marshal_secs":0.000015,"exec_secs":2.0,"sample_secs":0.000123,"total_secs":3.25,"ranks":2},"metadata":{"max_bond":"7","note":"a \"quoted\"\nline"}}"#),
        case!("qfw_result_empty", QfwResult, QfwResult::new("ionq", "simulator", 0), r#"{"counts":{},"shots":0,"backend":"ionq","subbackend":"simulator","profile":{"queue_secs":0.0,"marshal_secs":0.0,"exec_secs":0.0,"sample_secs":0.0,"total_secs":0.0,"ranks":0},"metadata":{}}"#),
        case!("status_queued", JobStatus, JobStatus::Queued, r#""Queued""#),
        case!("status_running", JobStatus, JobStatus::Running, r#""Running""#),
        case!("status_done", JobStatus, JobStatus::Done(result()), r#"{"Done":{"counts":{"000":480,"011":3,"111":541},"shots":1024,"backend":"nwqsim","subbackend":"cpu","profile":{"queue_secs":0.0,"marshal_secs":0.000015,"exec_secs":2.0,"sample_secs":0.000123,"total_secs":3.25,"ranks":2},"metadata":{"max_bond":"7","note":"a \"quoted\"\nline"}}}"#),
        case!("status_failed", JobStatus, JobStatus::Failed("engine \"panicked\"\n".into()), r#"{"Failed":"engine \"panicked\"\n"}"#),
        case!("status_cancelled", JobStatus, JobStatus::Cancelled, r#""Cancelled""#),
        case!("status_unknown", JobStatus, JobStatus::Unknown, r#""Unknown""#),
        case!("outcome_accepted", IngressSubmitOutcome, IngressSubmitOutcome::Accepted(42), r#"{"Accepted":42}"#),
        case!("outcome_cached", IngressSubmitOutcome, IngressSubmitOutcome::Cached(result()), r#"{"Cached":{"counts":{"000":480,"011":3,"111":541},"shots":1024,"backend":"nwqsim","subbackend":"cpu","profile":{"queue_secs":0.0,"marshal_secs":0.000015,"exec_secs":2.0,"sample_secs":0.000123,"total_secs":3.25,"ranks":2},"metadata":{"max_bond":"7","note":"a \"quoted\"\nline"}}}"#),
        case!(
            "outcome_overloaded",
            IngressSubmitOutcome,
            IngressSubmitOutcome::Overloaded(OverloadInfo { retry_after_ms: 17, scope: "Tenant".into() }),
            r#"{"Overloaded":{"retry_after_ms":17,"scope":"Tenant"}}"#
        ),
        case!(
            "cancel_outcomes",
            Vec<CancelOutcome>,
            vec![CancelOutcome::Cancelled, CancelOutcome::TooLate, CancelOutcome::Unknown],
            r#"["Cancelled","TooLate","Unknown"]"#
        ),
        case!("calibration", Calibration, Calibration::synthetic(3, 7), r#"{"qubits":[{"t1_us":94.19026154778298,"t2_us":49.97683249150785,"err_1q":0.0017481282521854343,"err_2q":0.017862481896243055,"readout_p01":0.027752761952446692,"readout_p10":0.01195722612323713},{"t1_us":100.23787960877561,"t2_us":69.80538319729547,"err_1q":0.00022321639364997325,"err_2q":0.015210428610765887,"readout_p01":0.023393224459108044,"readout_p10":0.025314071082370247},{"t1_us":67.19533073180037,"t2_us":60.32180172253653,"err_1q":0.00030284462364320135,"err_2q":0.026893602915506208,"readout_p01":0.016745858522172995,"readout_p10":0.007867422383576746}],"gate_time_1q_us":0.05,"gate_time_2q_us":0.35}"#),
        case!("qubo", Qubo, Qubo::random(4, 0.5, 3), r#"{"n":4,"coeffs":[0.3812765902355759,0.0,0.06792325300090751,-0.2009839420740498,-0.5796647416973824,0.0,0.0,-0.6097926758326873,0.0,0.35975242382003403]}"#),
        case!("counts", qfw_circuit::Counts, result().counts, r#"{"000":480,"011":3,"111":541}"#),
        case!("value", Value, document(), "{\"neg\":-42,\"min\":-9223372036854775808,\"max\":18446744073709551615,\"half\":-0.5,\"whole\":3.0,\"tiny\":0.0000000000000000000000602,\"esc \\\"k\\\"\":\"tab\\t\\\\ \\u0001\\u001f \u{7f} é😀\",\"seq\":[null,true,false,[]],\"empty\":{}}"),
    ]
}

#[test]
fn every_wire_type_emits_its_golden_bytes_and_round_trips() {
    for case in corpus() {
        assert_eq!(
            String::from_utf8(case.sample).unwrap(),
            case.golden,
            "{}",
            case.name
        );
        let again = (case.reencode)(case.golden.as_bytes())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_eq!(
            String::from_utf8(again).unwrap(),
            case.golden,
            "{} round trip",
            case.name
        );
    }
    // The types with equality also decode to the value they came from.
    let text = |name| {
        corpus()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap()
            .golden
    };
    assert_eq!(
        Calibration::from_json(text("calibration")),
        Ok(Calibration::synthetic(3, 7))
    );
    assert_eq!(
        serde_json::from_str::<Qubo>(text("qubo")).unwrap(),
        Qubo::random(4, 0.5, 3)
    );
    assert_eq!(
        serde_json::from_str::<Value>(text("value")).unwrap(),
        document()
    );
}

/// Bytes an insertion draws from half the time: JSON's structural
/// characters, a digit, an exponent, keyword letters, DEL, and a UTF-8
/// lead byte, continuation byte and invalid byte.
const INSERTS: &[u8] = b"{}[]\":,\\-0e.nt \x7f\xc3\xa9\xff";

fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    match rng.index(4) {
        0 if !bytes.is_empty() => {
            let i = rng.index(bytes.len());
            bytes[i] ^= 1 << rng.index(8);
        }
        1 => bytes.truncate(rng.index(bytes.len() + 1)),
        2 => {
            let b = if rng.chance(0.5) {
                INSERTS[rng.index(INSERTS.len())]
            } else {
                rng.next_u64() as u8
            };
            bytes.insert(rng.index(bytes.len() + 1), b);
        }
        _ if !bytes.is_empty() => {
            let from = rng.index(bytes.len());
            let len = 1 + rng.index((bytes.len() - from).min(64));
            let chunk = bytes[from..from + len].to_vec();
            let at = rng.index(bytes.len() + 1);
            bytes.splice(at..at, chunk);
        }
        _ => {}
    }
}

/// Every mutation decodes to a value or an `Err` — a panic fails the test
/// and a stack overflow aborts it — and whatever is accepted re-encodes to
/// bytes that decode and encode to themselves.
#[test]
fn mutated_corpus_never_panics() {
    let as_value: fn(&[u8]) -> Result<Vec<u8>, serde_json::Error> =
        |bytes| serde_json::to_vec(&serde_json::from_slice::<Value>(bytes)?);
    let mut rng = Rng::seed_from(0x5EED_F022);
    let (mut accepted, mut refused) = (0usize, 0usize);
    for case in corpus() {
        for _ in 0..1_500 {
            let mut bytes = case.golden.as_bytes().to_vec();
            for _ in 0..=rng.index(3) {
                mutate(&mut rng, &mut bytes);
            }
            for reencode in [case.reencode, as_value] {
                match reencode(&bytes) {
                    Ok(encoded) => {
                        accepted += 1;
                        assert_eq!(
                            reencode(&encoded),
                            Ok(encoded.clone()),
                            "{}: {}",
                            case.name,
                            String::from_utf8_lossy(&bytes)
                        );
                    }
                    Err(_) => refused += 1,
                }
            }
        }
    }
    assert!(
        accepted > 1_000 && refused > 1_000,
        "{accepted} accepted, {refused} refused"
    );
}

const T: Duration = Duration::from_secs(60);

/// `[` repeated far past the reader's nesting cap, after `prefix`.
fn too_deep(prefix: &str) -> Arc<Vec<u8>> {
    Arc::new(format!("{prefix}{}", "[".repeat(50_000)).into_bytes())
}

#[test]
fn nesting_is_capped_at_128() {
    let nested = |depth| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str::<Value>(&nested(128)).is_ok());
    assert!(serde_json::from_str::<Value>(&nested(129)).is_err());
    assert!(serde_json::from_str::<Value>(&"[".repeat(100_000)).is_err());
    assert!(serde_json::from_str::<Value>(&"{\"a\":".repeat(100_000)).is_err());
    // An unknown field is skipped, and the skip is capped too.
    let unknown = format!("{{\"tenant\":\"t\",\"x\":{}", "[".repeat(100_000));
    assert!(serde_json::from_str::<JobEnvelope>(&unknown).is_err());
}

fn assert_codec_error(got: Result<Vec<u8>, IngressError>) {
    assert!(
        matches!(got, Err(IngressError::Rpc(RpcError::Codec(_)))),
        "{got:?}"
    );
}

/// The hub's transport: a too-deep request is answered with `Codec` by the
/// worker that decoded it, which lives to serve the next call.
#[test]
fn deep_payload_is_refused_and_the_ingress_keeps_serving() {
    let service = MethodTable::new("echo")
        .method("echo", |v: Value| Ok(v))
        .build();
    let cfg = IngressConfig {
        queue_depth: 8,
        workers: 1,
    };
    let ingress = Ingress::start(cfg, service, Obs::disabled());
    let conn = ingress.connect();
    for prefix in ["", "{\"a\":"] {
        let deep = conn.send_raw("echo", too_deep(prefix)).unwrap();
        assert_codec_error(conn.wait(deep, T));
    }
    let out: Value = conn.call("echo", &Value::Str("next".into()), T).unwrap();
    assert_eq!(out, Value::Str("next".into()));
    ingress.shutdown();
}

/// The scheduler's front door: a too-deep submission (bare, or inside an
/// unknown field of an otherwise valid envelope) is a `Codec` error, and
/// the same connection's next job runs to completion.
#[test]
fn deep_submission_is_refused_and_the_sched_ingress_keeps_serving() {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let dvm = Arc::new(Dvm::new(&cluster));
    let registry = BackendRegistry::standard(None);
    let qrc = Arc::new(Qrc::new(
        registry,
        hetjob,
        dvm,
        1,
        1,
        DispatchPolicy::RoundRobin,
    ));
    let sched = Scheduler::start(qrc, Obs::disabled(), SchedConfig::default());
    let ingress = SchedIngress::start(
        sched.clone(),
        SchedIngressConfig::default(),
        Obs::disabled(),
    );
    let conn = ingress.connect();
    for prefix in ["", "{\"tenant\":\"t\",\"shots\":64,\"x\":"] {
        let deep = conn.send_raw("submit", too_deep(prefix)).unwrap();
        assert_codec_error(conn.wait(deep, T));
    }
    let env = JobEnvelope::new("t", &ghz(3), 64)
        .with_spec(BackendSpec::of("nwqsim", "cpu"))
        .with_seed(1);
    let id = match client::submit(&conn, &env, T).unwrap() {
        IngressSubmitOutcome::Accepted(id) => id,
        other => panic!("expected acceptance, got {other:?}"),
    };
    match client::wait(&conn, id, T).unwrap() {
        JobStatus::Done(r) => assert_eq!(r.counts.values().sum::<usize>(), 64),
        other => panic!("job {id} did not complete: {other:?}"),
    }
    sched.shutdown();
}
