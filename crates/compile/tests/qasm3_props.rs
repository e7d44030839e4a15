//! QASM3 round-trip properties and the checked-in corpus.
//!
//! Two invariants anchor the front end:
//!
//! * **Fixed point:** `parse(emit(parse(s))) == parse(s)` — the emitter
//!   is canonical, so emitting a parsed program and reparsing it changes
//!   nothing, for concrete and symbolic circuits alike.
//! * **Canonical stability:** `canonical_qasm3` sees through formatting —
//!   any whitespace/comment perturbation of a valid program canonicalizes
//!   to the same text (the front-end half of what makes QASM3 submissions
//!   share result cache entries with differently-formatted duplicates).
//!
//! The corpus under `tests/corpus/` pins real workload exports (GHZ-8,
//! TFIM-16, stdgates-lowered QAOA-14) as canonical fixed points plus one
//! hand-written messy program with a golden canonical emission. Regen
//! with `cargo test -p qfw-compile --test qasm3_props -- --ignored`.

use proptest::prelude::*;
use qfw_compile::{
    canonical_qasm3, compile_dag, default_param_names, emit, lower_to_stdgates, parse, DagCircuit,
    OptLevel,
};
use qfw_num::rng::Rng;
use qfw_testkit::{random_circuit, random_template};
use std::fs;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn read_corpus(name: &str) -> String {
    let path = corpus_dir().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "corpus file {} unreadable ({e}); regen with --ignored",
            path.display()
        )
    })
}

/// The generated corpus files, emitted canonically by `regen_corpus`.
const GENERATED: [&str; 3] = ["ghz8.qasm", "tfim16.qasm", "qaoa14.qasm"];

/// Deterministic formatting perturbation: extra indentation, trailing
/// spaces, inline and standalone comments, blank lines — everything the
/// canonicalizer must see through, nothing that changes the token
/// stream.
fn perturb_formatting(src: &str, seed: u64) -> String {
    let mut rng = Rng::seed_from(seed);
    let mut out = String::new();
    for line in src.lines() {
        if rng.chance(0.3) {
            out.push('\n');
        }
        if rng.chance(0.3) {
            out.push_str("// injected noise\n");
        }
        if rng.chance(0.4) {
            out.push_str("   \t");
        }
        out.push_str(line);
        if rng.chance(0.3) {
            out.push_str("  ");
        }
        if rng.chance(0.2) && line.trim_end().ends_with(';') {
            out.push_str(" /* inline */");
        }
        out.push('\n');
    }
    out
}

#[test]
fn generated_corpus_files_are_canonical_fixed_points() {
    for name in GENERATED {
        let src = read_corpus(name);
        let canon = canonical_qasm3(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(canon, src, "{name} is not a canonical fixed point");
    }
    // The stdgates-lowered QAOA-14 is the shape an external producer
    // ships (`rzz` as `cx; rz; cx`): O2's template recognizer must
    // reassemble the interactions, at least 20% of the gates.
    let qaoa = parse(&read_corpus("qaoa14.qasm")).unwrap().dag;
    let stats = compile_dag(qaoa, OptLevel::O2, &qfw_obs::Obs::disabled()).stats;
    assert!(
        stats.gates_after * 5 <= stats.gates_before * 4,
        "O2 on qaoa14.qasm: {} -> {} gates",
        stats.gates_before,
        stats.gates_after
    );
}

#[test]
fn mixed_corpus_matches_golden_canonicalization() {
    let messy = read_corpus("mixed.qasm");
    let golden = read_corpus("mixed.golden.qasm");
    let canon = canonical_qasm3(&messy).expect("mixed.qasm parses");
    assert_eq!(canon, golden, "canonical emission of mixed.qasm drifted");
    // The golden itself is a fixed point and parses to the same program.
    assert_eq!(canonical_qasm3(&golden).unwrap(), golden);
    let a = parse(&messy).unwrap();
    let b = parse(&golden).unwrap();
    assert_eq!(a.dag, b.dag, "messy and golden parse to different DAGs");
    assert_eq!(a.params, b.params);
}

#[test]
fn corpus_canonical_text_survives_formatting_perturbations() {
    for name in GENERATED
        .iter()
        .chain(["mixed.qasm", "mixed.golden.qasm"].iter())
    {
        let src = read_corpus(name);
        let want = canonical_qasm3(&src).unwrap();
        for seed in 0..8u64 {
            let noisy = perturb_formatting(&src, seed);
            assert_eq!(
                canonical_qasm3(&noisy).unwrap(),
                want,
                "{name}: canonical text changed under perturbation seed {seed}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `parse . emit` is the identity on DAGs built from concrete random
    /// circuits, and the emission is a fixed point of re-emission.
    #[test]
    fn emit_parse_is_identity_on_concrete_circuits(seed in 0u64..500) {
        let dag = DagCircuit::from_circuit(&random_circuit(5, 30, seed));
        let names = default_param_names(dag.num_params());
        let src = emit(&dag, &names).expect("emittable");
        let parsed = parse(&src).expect("own emission parses");
        prop_assert_eq!(&parsed.dag, &dag, "parse(emit(dag)) != dag");
        let again = emit(&parsed.dag, &parsed.params).unwrap();
        prop_assert_eq!(&again, &src, "emission is not a fixed point");
    }

    /// The same identity for symbolic templates: `input float` parameters
    /// survive the round trip with their affine coefficients intact.
    #[test]
    fn emit_parse_is_identity_on_symbolic_templates(seed in 0u64..500) {
        let dag = DagCircuit::from_param(&random_template(4, 20, 3, seed));
        let names = default_param_names(dag.num_params());
        let src = emit(&dag, &names).expect("emittable");
        let parsed = parse(&src).expect("own emission parses");
        prop_assert_eq!(&parsed.dag, &dag);
        prop_assert_eq!(&parsed.params, &names);
        prop_assert_eq!(&emit(&parsed.dag, &parsed.params).unwrap(), &src);
    }

    /// Lowering to the stdgates basis (rzz/rxx/ryy expanded) keeps the
    /// program emittable and the round trip exact.
    #[test]
    fn stdgates_lowering_round_trips(seed in 0u64..500) {
        let dag = lower_to_stdgates(&DagCircuit::from_param(&random_template(4, 20, 2, seed)));
        let names = default_param_names(dag.num_params());
        let src = emit(&dag, &names).expect("lowered circuit emits");
        let parsed = parse(&src).expect("lowered emission parses");
        prop_assert_eq!(&parsed.dag, &dag);
    }

    /// Invariance under formatting, on arbitrary generated programs
    /// rather than just the corpus.
    #[test]
    fn canonical_text_ignores_formatting(seed in 0u64..500) {
        let dag = DagCircuit::from_circuit(&random_circuit(4, 20, seed));
        let src = emit(&dag, &[]).expect("emittable");
        let want = canonical_qasm3(&src).unwrap();
        prop_assert_eq!(&canonical_qasm3(&perturb_formatting(&src, seed)).unwrap(), &want);
        // A genuinely different program canonicalizes differently.
        let other = emit(&DagCircuit::from_circuit(&random_circuit(4, 21, seed)), &[]).unwrap();
        prop_assert_ne!(canonical_qasm3(&other).unwrap(), want);
    }
}

/// Rewrites the generated corpus files and the golden canonicalization
/// of `mixed.qasm`. Run after any deliberate emitter change:
/// `cargo test -p qfw-compile --test qasm3_props -- --ignored`.
#[test]
#[ignore = "regenerates the checked-in corpus"]
fn regen_corpus() {
    use qfw_workloads::{ghz, qaoa_ansatz, tfim, Qubo};
    let dir = corpus_dir();
    fs::create_dir_all(&dir).unwrap();

    let ghz_dag = DagCircuit::from_circuit(&ghz(8));
    fs::write(dir.join("ghz8.qasm"), emit(&ghz_dag, &[]).unwrap()).unwrap();

    let tfim_dag = DagCircuit::from_circuit(&tfim(16));
    fs::write(dir.join("tfim16.qasm"), emit(&tfim_dag, &[]).unwrap()).unwrap();

    // QAOA-14 in the stdgates basis (rzz lowered to cx;rz;cx) — the
    // program the O2 gate-count assertion above compiles.
    let qubo = Qubo::random(14, 0.5, 7);
    let qaoa = lower_to_stdgates(&DagCircuit::from_param(&qaoa_ansatz(&qubo, 1)));
    let names = default_param_names(qaoa.num_params());
    fs::write(dir.join("qaoa14.qasm"), emit(&qaoa, &names).unwrap()).unwrap();

    let golden = canonical_qasm3(&read_corpus("mixed.qasm")).unwrap();
    fs::write(dir.join("mixed.golden.qasm"), golden).unwrap();
}
