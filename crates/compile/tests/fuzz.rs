//! Byte-mutation fuzz of both text front ends: OpenQASM 3 (`parse`, and
//! `compile_qasm3` at O0–O3) and `qfwasm` / `qfwasm-param`
//! (`text::parse`, `text::parse_param`).
//!
//! Seeded flips, truncations, insertions and duplications of the corpus,
//! of the `serve_cold` programs and of their `qfwasm` / `qfwasm-param`
//! dumps go through every entry point. Nothing may panic (a panic fails
//! the test, an abort kills it): every failure is an `Err`. A program that
//! is accepted re-emits to text that parses and re-emits to itself.

mod common;

use qfw_circuit::text;
use qfw_compile::{compile_qasm3, emit, parse, OptLevel};
use qfw_num::rng::Rng;
use qfw_obs::Obs;

/// Bytes an insertion draws from half the time: both grammars' structural
/// characters, digits and exponents, operand prefixes, a newline, and the
/// UTF-8 of `π` and of a no-break space (an identifier and a whitespace
/// character outside ASCII), a lone continuation byte and an invalid byte.
const INSERTS: &[u8] = b"[](){};,:=+-*/>@.e19qc \n\"\xcf\x80\xc2\xa0\x80\xff";

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

/// The seeds: QASM3 programs and `qfwasm` / `qfwasm-param` dumps of the
/// same programs.
fn seeds() -> Vec<String> {
    let mut qasm: Vec<String> = common::CORPUS
        .iter()
        .map(|name| common::corpus(name))
        .collect();
    qasm.extend(
        common::serve_cold_programs()
            .into_iter()
            .map(|(_, src)| src),
    );
    let mut out = qasm.clone();
    for src in &qasm {
        let parsed = parse(src).expect("seed programs parse");
        let template = parsed.dag.to_param();
        out.push(text::dump_param(&template));
        let binding: Vec<f64> = (0..template.num_params())
            .map(|k| 0.25 * k as f64)
            .collect();
        out.push(text::dump_param_bound(&template, &binding));
        if let Ok(circuit) = parsed.dag.to_circuit() {
            out.push(text::dump(&circuit));
        }
    }
    out
}

/// Accepted and refused inputs of one entry point.
#[derive(Default)]
struct Tally {
    accepted: usize,
    refused: usize,
}

impl Tally {
    fn count<T, E>(&mut self, r: &Result<T, E>) {
        match r {
            Ok(_) => self.accepted += 1,
            Err(_) => self.refused += 1,
        }
    }
}

/// QASM3: an accepted program's canonical emission is a fixed point.
fn check_qasm3(src: &str, tally: &mut Tally) {
    let parsed = parse(src);
    tally.count(&parsed);
    let Ok(parsed) = parsed else { return };
    let emitted = emit(&parsed.dag, &parsed.params).expect("parsed programs emit");
    let again =
        parse(&emitted).unwrap_or_else(|e| panic!("emission of {src:?} fails to parse: {e}"));
    assert_eq!(
        emit(&again.dag, &again.params).unwrap(),
        emitted,
        "emission of {src:?} is not a fixed point"
    );
}

/// Compilation at every level ends in a circuit whose dump re-parses to
/// itself, or in an `Err`.
fn check_compile(src: &str, tally: &mut Tally) {
    let obs = Obs::disabled();
    for opt in OptLevel::ALL {
        let compiled = compile_qasm3(src, opt, &obs, None);
        tally.count(&compiled);
        if let Ok((circuit, _)) = compiled {
            let dumped = text::dump(&circuit);
            let back =
                text::parse(&dumped).unwrap_or_else(|e| panic!("{opt} dump fails to parse: {e}"));
            assert_eq!(text::dump(&back), dumped, "{opt} dump is not a fixed point");
        }
    }
}

/// qfwasm: an accepted circuit's dump is a fixed point.
fn check_qfwasm(src: &str, tally: &mut Tally) {
    let parsed = text::parse(src);
    tally.count(&parsed);
    let Ok(circuit) = parsed else { return };
    let dumped = text::dump(&circuit);
    let back =
        text::parse(&dumped).unwrap_or_else(|e| panic!("dump of {src:?} fails to parse: {e}"));
    assert_eq!(
        text::dump(&back),
        dumped,
        "dump of {src:?} is not a fixed point"
    );
}

/// qfwasm-param: an accepted template (and binding) dumps to a fixed point.
fn check_param(src: &str, tally: &mut Tally) {
    let dump = |(t, bound): &(qfw_circuit::ParamCircuit, Option<Vec<f64>>)| match bound {
        Some(values) => text::dump_param_bound(t, values),
        None => text::dump_param(t),
    };
    let parsed = text::parse_param(src);
    tally.count(&parsed);
    let Ok(parsed) = parsed else { return };
    let dumped = dump(&parsed);
    let back = text::parse_param(&dumped)
        .unwrap_or_else(|e| panic!("dump of {src:?} fails to parse: {e}"));
    assert_eq!(dump(&back), dumped, "dump of {src:?} is not a fixed point");
}

#[test]
fn mutated_programs_are_parsed_or_refused() {
    let mut rng = Rng::seed_from(0xF022_0A53);
    let mut tallies: [Tally; 4] = Default::default();
    for seed in seeds() {
        for _ in 0..300 {
            let mut bytes = seed.as_bytes().to_vec();
            for _ in 0..=rng.index(2) {
                mutate(&mut rng, &mut bytes);
            }
            let src = String::from_utf8_lossy(&bytes);
            check_qasm3(&src, &mut tallies[0]);
            check_compile(&src, &mut tallies[1]);
            check_qfwasm(&src, &mut tallies[2]);
            check_param(&src, &mut tallies[3]);
        }
    }
    for (name, t) in ["parse", "compile_qasm3", "text::parse", "text::parse_param"]
        .iter()
        .zip(&tallies)
    {
        assert!(
            t.accepted > 100 && t.refused > 100,
            "{name}: {} accepted, {} refused",
            t.accepted,
            t.refused
        );
    }
}

/// Registers past the width limit are refused by every front end, and the
/// limit itself is accepted.
#[test]
fn oversized_registers_are_refused() {
    use qfw_circuit::MAX_REGISTER_WIDTH as MAX;
    let obs = Obs::disabled();
    let qasm = |decls: &str| format!("OPENQASM 3;\n{decls}\n");
    for decls in [
        "qubit[100000000000] q;".to_string(),
        format!("qubit[{}] q;", MAX + 1),
        format!("qubit[{MAX}] a;\nqubit[1] b;"),
        "qubit[1e30] a;\nqubit[1] b;".to_string(),
        format!("bit[{}] c;", MAX + 1),
    ] {
        let e = parse(&qasm(&decls)).expect_err(&decls);
        assert!(e.message.contains("width limit"), "{decls}: {e}");
        assert!(compile_qasm3(&qasm(&decls), OptLevel::O3, &obs, None).is_err());
    }
    assert!(parse(&qasm(&format!("qubit[{MAX}] q;\nbit[{MAX}] c;"))).is_ok());

    for header in ["qubits 100000000000", "qubits 2\nclbits 100000000000"] {
        let e = text::parse(&format!("qfwasm 1\n{header}\nh q0\n")).expect_err(header);
        assert!(e.message.contains("width limit"), "{header}: {e}");
    }
    let e = text::parse_param("qfwasm-param 1\nqubits 100000000000\n").unwrap_err();
    assert!(e.message.contains("width limit"), "{e}");
    assert!(text::parse(&format!("qfwasm 1\nqubits {MAX}\nclbits {MAX}\n")).is_ok());
}

/// Angle expressions nest at most 64 deep: a long run of `(` or `-` is an
/// `Err`, not a stack overflow.
#[test]
fn deep_angle_expressions_are_refused() {
    let program = |angle: String| format!("OPENQASM 3;\nqubit[1] q;\nrx({angle}) q[0];\n");
    let nested = |depth: usize| program(format!("{}1{}", "(".repeat(depth), ")".repeat(depth)));
    assert!(parse(&nested(63)).is_ok());
    for src in [
        nested(64),
        program(format!("{}1", "(".repeat(100_000))),
        program(format!("{}1", "-".repeat(100_000))),
    ] {
        let e = parse(&src).unwrap_err();
        assert!(e.message.contains("nested deeper than 64"), "{e}");
    }
}
