//! Golden compiler output: what O0–O3 make of the checked-in corpus and of
//! programs shaped like the benchmark workloads, byte for byte, plus the
//! `(line, message)` of malformed programs.
//!
//! Each program's file under `tests/golden/` holds, per level, the
//! `CompileStats` (totals and every pass in order), the O3 layout, and the
//! compiled program: `qfwasm` text (`text::dump` of what `compile_qasm3`
//! returns) for concrete programs, canonical QASM3 (`emit`) for programs
//! with `input float` parameters. Any change to the parser, the DAG or a
//! pass that moves one byte here changes what a job runs. Regenerate only
//! for a deliberate change in compiled output:
//! `cargo test -p qfw-compile --test golden -- --ignored`.

mod common;

use qfw_circuit::text;
use qfw_compile::{compile_dag, compile_qasm3, emit, parse, OptLevel};
use qfw_obs::Obs;
use std::fmt::Write;
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    common::tests_dir().join("golden")
}

/// Every program the suite pins: `(file stem, source)`.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = common::CORPUS
        .iter()
        .map(|name| {
            (
                format!("corpus-{}", name.trim_end_matches(".qasm")),
                common::corpus(name),
            )
        })
        .collect();
    out.extend(common::workload_programs());
    out
}

/// The golden record of one program at every level.
fn record(src: &str) -> String {
    let obs = Obs::disabled();
    let mut out = String::new();
    for opt in OptLevel::ALL {
        let parsed = parse(src).expect("golden programs parse");
        let (compiled, result) = if parsed.params.is_empty() {
            let (circuit, result) =
                compile_qasm3(src, opt, &obs, None).expect("concrete programs compile");
            (text::dump(&circuit), result)
        } else {
            let result = compile_dag(parsed.dag, opt, &obs);
            (
                emit(&result.dag, &parsed.params).expect("compiled programs emit"),
                result,
            )
        };
        let s = &result.stats;
        writeln!(
            out,
            "== {opt}: gates {} -> {}, eliminated {}, rewritten {}",
            s.gates_before, s.gates_after, s.eliminated, s.rewritten
        )
        .unwrap();
        for (name, o) in &s.per_pass {
            writeln!(
                out,
                "pass {name}: eliminated {}, rewritten {}",
                o.eliminated, o.rewritten
            )
            .unwrap();
        }
        if let Some(layout) = &result.layout {
            writeln!(out, "layout {layout:?}").unwrap();
        }
        out.push_str(&compiled);
    }
    out
}

/// Malformed programs, each with the diagnostic it must keep.
const MALFORMED: &[(&str, &str)] = &[
    (
        "unterminated-comment",
        "OPENQASM 3;\nqubit[1] q;\n/* never closed\nh q[0];\n",
    ),
    (
        "unterminated-string",
        "OPENQASM 3;\ninclude \"stdgates.inc;\nqubit[1] q;\n",
    ),
    (
        "malformed-number",
        "OPENQASM 3;\nqubit[1] q;\nrx(1.2.3) q[0];\n",
    ),
    (
        "malformed-exponent",
        "OPENQASM 3;\nqubit[1] q;\nrx(2e) q[0];\n",
    ),
    ("undeclared-register", "OPENQASM 3;\nqubit[2] q;\nh r[0];\n"),
    (
        "index-out-of-range",
        "OPENQASM 3;\nqubit[2] q;\nh q[0];\nh q[5];\n",
    ),
    (
        "repeated-operand",
        "OPENQASM 3;\nqubit[2] q;\ncx q[0], q[0];\n",
    ),
    (
        "mixed-parameter-sum",
        "OPENQASM 3;\ninput float a;\ninput float b;\nqubit[1] q;\nrx(a + b) q[0];\n",
    ),
    (
        "non-affine-product",
        "OPENQASM 3;\ninput float a;\nqubit[1] q;\nrx(a * a) q[0];\n",
    ),
    (
        "divide-by-parameter",
        "OPENQASM 3;\ninput float a;\nqubit[1] q;\nrx(1 / a) q[0];\n",
    ),
    ("missing-version", "qubit[2] q;\nh q[0];\n"),
    ("unsupported-version", "OPENQASM 2.0;\nqubit[2] q;\n"),
    ("reserved-name", "OPENQASM 3;\nqubit[2] pi;\n"),
    ("already-declared", "OPENQASM 3;\nqubit[2] q;\nbit[2] q;\n"),
    ("unsupported-gate", "OPENQASM 3;\nqubit[2] q;\nfrob q[0];\n"),
    ("wrong-arity", "OPENQASM 3;\nqubit[2] q;\ncx q[0];\n"),
    ("wrong-angle-count", "OPENQASM 3;\nqubit[1] q;\nrx q[0];\n"),
    (
        "broadcast-mismatch",
        "OPENQASM 3;\nqubit[2] a;\nqubit[3] b;\ncx a, b;\n",
    ),
    (
        "measure-broadcast-mismatch",
        "OPENQASM 3;\nqubit[2] q;\nbit[1] c;\nc = measure q;\n",
    ),
    (
        "unknown-identifier",
        "OPENQASM 3;\nqubit[1] q;\nrx(phi) q[0];\n",
    ),
    (
        "symbolic-u",
        "OPENQASM 3;\ninput float a;\nqubit[1] q;\nu(a, 0, 0) q[0];\n",
    ),
    (
        "unexpected-character",
        "OPENQASM 3;\nqubit[1] q;\nh q[0] ¤;\n",
    ),
    ("missing-semicolon", "OPENQASM 3;\nqubit[1] q;\nh q[0]"),
    (
        "parse-error-then-lex-error",
        "OPENQASM 3;\nqubit[1] q;\nfrob q[0];\nh q[0];\n$\n",
    ),
    (
        "unbound-input",
        "OPENQASM 3;\ninput float g;\nqubit[1] q;\nrx(g) q[0];\n",
    ),
    (
        "oversized-register",
        "OPENQASM 3;\nqubit[100000000000] q;\n",
    ),
];

fn error_record() -> String {
    let obs = Obs::disabled();
    let mut out = String::new();
    for (name, src) in MALFORMED {
        let e = compile_qasm3(src, OptLevel::O2, &obs, None)
            .err()
            .unwrap_or_else(|| panic!("{name} compiled"));
        writeln!(out, "{name}: line {}: {}", e.line, e.message).unwrap();
    }
    out
}

fn golden(file: &str) -> String {
    let path = golden_dir().join(file);
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); regen with --ignored",
            path.display()
        )
    })
}

#[test]
fn compiled_output_matches_golden() {
    for (name, src) in programs() {
        let got = record(&src);
        let want = golden(&format!("{name}.txt"));
        assert!(
            got == want,
            "{name}: compiled output drifted from tests/golden/{name}.txt"
        );
    }
}

#[test]
fn diagnostics_match_golden() {
    let got = error_record();
    assert_eq!(got, golden("errors.txt"));
}

#[test]
#[ignore = "regenerates the golden compiler output"]
fn regen_golden() {
    let dir = golden_dir();
    fs::create_dir_all(&dir).unwrap();
    for (name, src) in programs() {
        fs::write(dir.join(format!("{name}.txt")), record(&src)).unwrap();
    }
    fs::write(dir.join("errors.txt"), error_record()).unwrap();
}
