//! Cache correctness suite: the content-addressed result cache and the
//! canonical circuit hash it keys on.
//!
//! * Seeded replay: a cache hit returns counts bitwise identical to the
//!   cold execution that populated it, across seeds and shot budgets.
//! * Eviction under capacity pressure never corrupts surviving entries —
//!   a `get` either misses or returns exactly what was inserted.
//! * Key agreement: the key of an admitted job — from wire text, from a
//!   bound skeleton, from the QASM3 compiler's circuit and typed handoff —
//!   equals `ResultCache::key` of the strings it could have arrived as.
//! * Canonical-hash sanity (proptest): dumping and re-parsing a circuit
//!   never changes its hash (whitespace/formatting insensitivity), while
//!   perturbing any rotation angle always changes it (counts-relevant
//!   inputs are never aliased).

use proptest::prelude::*;
use qfw::cache::CacheConfig;
use qfw::registry::BackendRegistry;
use qfw::{
    BackendSpec, DispatchPolicy, ExecTask, QfwResult, Qrc, ResultCache, ShardedLru, Source,
};
use qfw_circuit::{canonical_hash, canonical_text, text, Angle, Circuit, ContentHash, ParamCircuit};
use qfw_compile::{DagCircuit, OptLevel};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_num::rng::Rng;
use qfw_obs::Obs;
use std::collections::HashMap;
use std::sync::Arc;

/// A layered circuit whose sampled distribution is seed-sensitive, so a
/// replay mismatch cannot hide behind a deterministic outcome.
fn seeded_circuit(n: usize, seed: u64) -> Circuit {
    let mut rng = Rng::seed_from(seed);
    let mut qc = Circuit::new(n);
    for q in 0..n {
        qc.h(q);
        qc.rz(q, rng.uniform(-3.0, 3.0));
    }
    for q in 0..n - 1 {
        qc.cx(q, q + 1);
    }
    qc.measure_all();
    qc
}

fn qrc() -> Arc<Qrc> {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let dvm = Arc::new(Dvm::new(&cluster));
    Arc::new(Qrc::new(
        BackendRegistry::standard(None),
        hetjob,
        dvm,
        1,
        2,
        DispatchPolicy::RoundRobin,
    ))
}

fn execute(qrc: &Qrc, circuit: &Circuit, seed: u64, shots: usize) -> QfwResult {
    qrc.execute(&ExecTask {
        circuit: text::dump(circuit),
        shots,
        seed,
        spec: BackendSpec::of("nwqsim", "cpu"),
    })
    .unwrap()
}

/// Cold-execute a grid of (circuit seed, sampling seed, shots) points,
/// cache every result, then replay each key: the hit must be bitwise
/// identical to the result the engine produced.
#[test]
fn seeded_replay_hits_are_bitwise_identical() {
    let cache = ResultCache::new(CacheConfig::default(), &Obs::wall());
    let spec = BackendSpec::of("nwqsim", "cpu");
    let qrc = qrc();

    let mut cold = Vec::new();
    for circuit_seed in 0..4u64 {
        let qc = seeded_circuit(5, circuit_seed);
        let wire = text::dump(&qc);
        for sample_seed in [1u64, 99, 4096] {
            for shots in [64usize, 256] {
                let result = execute(&qrc, &qc, sample_seed, shots);
                let key = ResultCache::key(&wire, sample_seed, shots, &spec);
                cache.insert(key, Arc::new(result.clone()));
                cold.push((wire.clone(), sample_seed, shots, result));
            }
        }
    }

    for (wire, sample_seed, shots, expected) in &cold {
        let key = ResultCache::key(wire, *sample_seed, *shots, &spec);
        let hit = cache.get(key).expect("replayed key must hit");
        assert_eq!(
            hit.counts, expected.counts,
            "cache hit diverged for seed {sample_seed}, shots {shots}"
        );
    }
    assert_eq!(cache.stats().hits as usize, cold.len());

    // Replay through a *fresh* execution too: the engine itself is
    // deterministic under (circuit, seed, shots), which is what makes
    // result caching sound in the first place.
    let qc = seeded_circuit(5, 0);
    assert_eq!(
        execute(&qrc, &qc, 1, 64).counts,
        execute(&qrc, &qc, 1, 64).counts
    );
}

/// The ingress keys on the job it admitted; callers on the wire side key on
/// strings. Both must name the same cache entry, for every way a job can
/// arrive and every kind of option a spec can carry.
#[test]
fn admitted_job_keys_like_its_wire_text() {
    let qrc = qrc();
    let obs = Obs::disabled();
    let circuit = seeded_circuit(4, 3);
    let mut skeleton = ParamCircuit::new(4);
    skeleton.h(0).rx(1, Angle::sym(0)).rzz(1, 2, Angle::scaled(1, 2.0));
    skeleton.measure_all();
    let qasm = qfw_compile::emit(&DagCircuit::from_circuit(&circuit), &[]).unwrap();
    let mut noise = qfw_noise::NoiseModel::empty();
    noise.add_2q_all(qfw_noise::Channel::depolarizing(0.02));
    let cpu = || BackendSpec::of("nwqsim", "cpu");
    let mpi = BackendSpec::of("nwqsim", "mpi").with_ranks(2);
    let specs = [
        cpu(),
        BackendSpec::of("tnqvm", ""),
        mpi.clone(),
        mpi.with_extra("initial_layout", "3,2,1,0"),
        cpu().with_extra("noise_model", noise.to_text()),
        cpu().with_extra("site", "ornl"),
    ];
    let (seed, shots) = (7, 100);
    for spec in &specs {
        let label = format!("{spec:?}");
        let key_of = |wire: &str, spec: &BackendSpec| ResultCache::key(wire, seed, shots, spec);
        let admit = |source| qrc.admit(source, shots, seed, spec).unwrap().cache_key();

        let wire = text::dump(&circuit);
        assert_eq!(admit(Source::Wire(&wire)), key_of(&wire, spec), "concrete, {label}");
        // A formatting variant of the same text is the same job.
        let spaced = wire.replacen('\n', "\n\n# same circuit\n", 1);
        assert_eq!(admit(Source::Wire(&spaced)), key_of(&wire, spec), "spaced, {label}");

        let bound = text::dump_param_bound(&skeleton, &[0.3, -0.8]);
        assert_eq!(admit(Source::Wire(&bound)), key_of(&bound, spec), "bound, {label}");
        let rebound = text::dump_param_bound(&skeleton, &[0.3, -0.81]);
        assert_ne!(key_of(&bound, spec), key_of(&rebound, spec), "binding, {label}");

        // QASM3: the ingress admits the compiled circuit and the O3 layout
        // as typed values; a wire-side caller spells the same thing as the
        // dumped text plus an `initial_layout` extra.
        let opt = if spec.subbackend == "mpi" {
            OptLevel::O3
        } else {
            OptLevel::O2
        };
        let (compiled_circuit, compiled) =
            qfw_compile::compile_qasm3(&qasm, opt, &obs, None).unwrap();
        let ingested = qfw_compile::ingest_qasm3(&qasm, opt, &obs).unwrap();
        let spelled = match &ingested.layout {
            Some(order) => {
                let csv: Vec<String> = order.iter().map(|q| q.to_string()).collect();
                spec.clone().with_extra("initial_layout", csv.join(","))
            }
            None => spec.clone(),
        };
        let typed = admit(Source::Compiled {
            circuit: compiled_circuit,
            layout: compiled.layout,
            predicted_fidelity: compiled.predicted_fidelity,
        });
        assert_eq!(typed, key_of(&ingested.qfwasm, &spelled), "qasm3, {label}");
    }

    // Two spellings of one meaning share a key; a different meaning never does.
    let wire = text::dump(&circuit);
    let key_of = |spec: BackendSpec| ResultCache::key(&wire, seed, shots, &spec);
    assert_eq!(key_of(cpu()), key_of(cpu().with_extra("fusion", true)));
    let silent = qfw_noise::NoiseModel::empty().to_text();
    assert_eq!(key_of(cpu()), key_of(cpu().with_extra("noise_model", silent)));
    assert_ne!(key_of(cpu()), key_of(cpu().with_extra("fusion", false)));
    assert_ne!(key_of(cpu()), key_of(cpu().with_extra("site", "ornl")));
}

/// Keys are a contract with whatever was cached before this code ran: these
/// values were printed by `ResultCache::key` at the commit before admission
/// replaced the string path (PR 14), and must never move.
#[test]
fn keys_are_what_they_were_before_admission() {
    let wire = "qfwasm 1\nqubits 3\nclbits 3\nh q0\nrz(2.5e-1) q1\ncx q0 q1\ncx q1 q2\n\
                measure q0 -> c0\nmeasure q1 -> c1\nmeasure q2 -> c2\n";
    let bound = "qfwasm-param 1\nqubits 2\nrx(@0) q0\nrzz(@1*2e0) q0 q1\nbind 1e-1 2e-1\n";
    let mpi = BackendSpec::of("nwqsim", "mpi")
        .with_ranks(2)
        .with_extra("initial_layout", "2,0,1")
        .with_extra("site", "ornl");
    for (text, spec, want) in [
        (wire, BackendSpec::of("nwqsim", "cpu"), "018980e68afa717747ae9ff9ccc156d3"),
        (wire, BackendSpec::of("tnqvm", ""), "58005fb46787a58eb464aa44e4d00f8d"),
        (wire, mpi, "d3372593323c762cc0e913e4a443912f"),
        (
            wire,
            BackendSpec::of("auto", "whatever").with_extra("chi_max", 8),
            "0b734a83cf72b1c51a651f9cc989f6b1",
        ),
        (
            bound,
            BackendSpec::of("aer", "automatic").with_ranks(3),
            "8921d74ecea9fc63ad1f5264bf3abe46",
        ),
    ] {
        assert_eq!(ResultCache::key(text, 7, 100, &spec).to_hex(), want, "{spec:?}");
    }
}

/// Hammer a tiny cache far past capacity and verify every observable
/// entry is exactly what was inserted under that key — eviction may drop
/// entries, never corrupt them. The value encodes its own key, so any
/// slot/key mix-up is self-evident.
#[test]
fn eviction_under_pressure_never_corrupts() {
    let obs = Obs::wall();
    let cfg = CacheConfig {
        capacity: 32,
        shards: 4,
    };
    let cache: ShardedLru<Arc<String>> = ShardedLru::new(cfg, &obs, "pressure");

    let mut expected: HashMap<ContentHash, String> = HashMap::new();
    for round in 0..8u64 {
        for i in 0..64u64 {
            // Re-insert some keys across rounds by folding `round % 3`.
            let key = ContentHash::of_bytes(&i.to_le_bytes()).fold_u64(round % 3);
            let value = format!("round={} i={} key={:x}", round % 3, i, key.value());
            cache.insert(key, Arc::new(value.clone()));
            expected.insert(key, value);

            // Interleave reads while evictions are happening.
            if let Some(seen) = cache.get(key) {
                assert_eq!(*seen, expected[&key], "read-back corrupted");
            }
        }
    }

    assert!(cache.len() <= 32, "capacity bound must hold");
    let mut survivors = 0;
    for (key, value) in &expected {
        if let Some(seen) = cache.get(*key) {
            assert_eq!(*seen, *value, "survivor corrupted after pressure");
            survivors += 1;
        }
    }
    assert!(survivors > 0, "a bounded cache still retains recent entries");
    let stats = cache.stats();
    assert!(stats.evictions > 0, "pressure must actually evict");
}

/// Concurrent writers over overlapping keys: whatever a reader observes
/// must be a value some writer inserted under that exact key.
#[test]
fn concurrent_eviction_pressure_is_consistent() {
    let obs = Obs::wall();
    let cache: Arc<ShardedLru<Arc<String>>> = Arc::new(ShardedLru::new(
        CacheConfig {
            capacity: 16,
            shards: 2,
        },
        &obs,
        "race",
    ));

    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    let k = i % 48; // overlap across threads
                    let key = ContentHash::of_bytes(&k.to_le_bytes());
                    // Every writer stores the same canonical value for a
                    // key, so cross-thread reads have one legal answer.
                    let value = format!("key={k}");
                    cache.insert(key, Arc::new(value.clone()));
                    if let Some(seen) = cache.get(key) {
                        assert_eq!(*seen, value, "thread {t} saw a foreign value");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(cache.len() <= 16);
}

/// Strategy helper: a random circuit built from a seed, mirroring the
/// generator in `tests/properties.rs` but biased toward rotation gates so
/// angle perturbation always has a target.
fn random_circuit(n: usize, len: usize, seed: u64) -> Circuit {
    let mut rng = Rng::seed_from(seed);
    let mut qc = Circuit::new(n);
    for _ in 0..len {
        let q = rng.index(n);
        let p = (q + 1 + rng.index(n - 1)) % n;
        match rng.index(6) {
            0 => qc.h(q),
            1 => qc.rx(q, rng.uniform(-3.0, 3.0)),
            2 => qc.ry(q, rng.uniform(-3.0, 3.0)),
            3 => qc.rz(q, rng.uniform(-3.0, 3.0)),
            4 => qc.cx(q, p),
            _ => qc.rzz(q, p, rng.uniform(-1.5, 1.5)),
        };
    }
    qc.measure_all();
    qc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dump → parse → dump is a fixed point for hashing: the canonical
    /// hash is a function of circuit content, not of formatting.
    #[test]
    fn canonical_hash_survives_text_round_trip(seed in 0u64..500) {
        let qc = random_circuit(4, 12, seed);
        let wire = text::dump(&qc);
        let canon = canonical_text(&wire).expect("dump output parses");
        prop_assert_eq!(canonical_hash(&wire), canonical_hash(&canon));
        // Idempotence: canonicalizing twice changes nothing.
        prop_assert_eq!(canonical_text(&canon).unwrap(), canon);
    }

    /// Perturbing any rotation angle changes the canonical hash: inputs
    /// that change measurement statistics are never aliased to the same
    /// cache key.
    #[test]
    fn angle_perturbation_changes_hash(seed in 0u64..500, bump in 1e-3f64..1.0) {
        let mut rng = Rng::seed_from(seed);
        let n = 4;
        let theta = rng.uniform(-3.0, 3.0);
        let target = rng.index(n);

        let mut a = Circuit::new(n);
        let mut b = Circuit::new(n);
        for q in 0..n {
            a.h(q);
            b.h(q);
        }
        a.rz(target, theta);
        b.rz(target, theta + bump);
        a.measure_all();
        b.measure_all();

        prop_assert_ne!(canonical_hash(&text::dump(&a)), canonical_hash(&text::dump(&b)));
    }

    /// Both result-cache keys separate every ingredient: circuit, seed,
    /// shots, and backend spec each produce distinct keys. The request key
    /// also separates any changed byte of text, which the canonical key
    /// deliberately does not.
    #[test]
    fn result_key_separates_all_ingredients(seed in 0u64..200) {
        let qc = random_circuit(4, 10, seed);
        let other = random_circuit(4, 10, seed + 1_000);
        let wire = text::dump(&qc);
        let cpu = BackendSpec::of("nwqsim", "cpu");
        type KeyFn = fn(&str, u64, usize, &BackendSpec) -> ContentHash;
        for key in [ResultCache::key as KeyFn, ResultCache::request_key as KeyFn] {
            let base = key(&wire, 7, 100, &cpu);
            prop_assert_eq!(base, key(&wire, 7, 100, &cpu));
            prop_assert_ne!(base, key(&text::dump(&other), 7, 100, &cpu));
            prop_assert_ne!(base, key(&wire, 8, 100, &cpu));
            prop_assert_ne!(base, key(&wire, 7, 101, &cpu));
            prop_assert_ne!(base, key(&wire, 7, 100, &BackendSpec::of("aer", "automatic")));
            prop_assert_ne!(base, key(&wire, 7, 100, &BackendSpec::of("nwqsim", "openmp")));
            prop_assert_ne!(base, key(&wire, 7, 100, &cpu.clone().with_ranks(2)));
            prop_assert_ne!(base, key(&wire, 7, 100, &cpu.clone().with_extra("site", "ornl")));
        }
        let spaced = wire.replacen('\n', "\n\n", 1);
        prop_assert_eq!(ResultCache::key(&wire, 7, 100, &cpu), ResultCache::key(&spaced, 7, 100, &cpu));
        prop_assert_ne!(
            ResultCache::request_key(&wire, 7, 100, &cpu),
            ResultCache::request_key(&spaced, 7, 100, &cpu)
        );
    }
}
