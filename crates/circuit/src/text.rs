//! `qfwasm`: a line-oriented textual circuit format.
//!
//! This is the on-the-wire representation the DEFw RPC layer marshals when a
//! frontend submits a circuit to a QPM — the reproduction of the paper's
//! "standardized circuit/problem description" that every Backend-QPM must
//! accept. It is deliberately trivial to parse so each backend can consume it
//! without a shared in-memory type, and it round-trips every construct in the
//! IR including opaque unitary blocks.
//!
//! ```text
//! qfwasm 1
//! name ghz4
//! qubits 4
//! clbits 4
//! h q0
//! cx q0 q1
//! rz(0.5) q2
//! unitary[blk] q0 q1 : 1,0 0,0 ... (row-major re,im pairs)
//! measure q0 -> c0
//! barrier
//! ```

use crate::circuit::{Circuit, Op, MAX_REGISTER_WIDTH};
use crate::gate::Gate;
use crate::param::{Angle, ParamCircuit, ParamOp, RotKind, Rotation};
use qfw_num::complex::{c64, C64};
use qfw_num::Matrix;
use std::fmt::Write;
use std::sync::Arc;

/// Writes one gate line (`name(params) q..` or a `unitary[..]` block).
fn write_gate_line(out: &mut impl Write, g: &Gate) {
    match g {
        Gate::Unitary {
            qubits,
            matrix,
            label,
        } => {
            write!(out, "unitary[{label}]").unwrap();
            for q in qubits {
                write!(out, " q{q}").unwrap();
            }
            write!(out, " :").unwrap();
            for v in matrix.as_slice() {
                // {:e} preserves full f64 precision compactly.
                write!(out, " {:e},{:e}", v.re, v.im).unwrap();
            }
            writeln!(out).unwrap();
        }
        Gate::U(q, theta, phi, lambda) => {
            writeln!(out, "u({theta:e},{phi:e},{lambda:e}) q{q}").unwrap();
        }
        g => match Rotation::of_gate(g) {
            Some(r) => write_rotation(out, &r),
            None => {
                out.write_str(g.name()).unwrap();
                write_operands(out, &g.operands());
            }
        },
    }
}

/// Writes ` q<i>` per operand and ends the line.
fn write_operands(out: &mut impl Write, qubits: &[usize]) {
    for q in qubits {
        write!(out, " q{q}").unwrap();
    }
    writeln!(out).unwrap();
}

/// Writes one rotation line, `name(angle) q..`, literal or symbolic.
fn write_rotation(out: &mut impl Write, r: &Rotation) {
    write!(out, "{}(", r.kind().name()).unwrap();
    write_angle(out, &r.angle());
    out.write_char(')').unwrap();
    write_operands(out, r.operands());
}

/// Serializes a circuit to `qfwasm` text.
pub fn dump(circuit: &Circuit) -> String {
    let mut out = String::new();
    write_circuit(&mut out, circuit);
    out
}

/// Streams the canonical `qfwasm` form of a circuit into `out` (a
/// `String` for [`dump`], a hasher for [`crate::hash::circuit_hash`]).
pub(crate) fn write_circuit(out: &mut impl Write, circuit: &Circuit) {
    writeln!(out, "qfwasm 1").unwrap();
    if !circuit.name.is_empty() {
        writeln!(out, "name {}", circuit.name).unwrap();
    }
    writeln!(out, "qubits {}", circuit.num_qubits()).unwrap();
    writeln!(out, "clbits {}", circuit.num_clbits()).unwrap();
    for op in circuit.ops() {
        match op {
            Op::Gate(g) => write_gate_line(out, g),
            Op::Measure { qubit, clbit } => {
                writeln!(out, "measure q{qubit} -> c{clbit}").unwrap();
            }
            Op::Barrier(qs) => {
                if qs.len() == circuit.num_qubits() {
                    writeln!(out, "barrier").unwrap();
                } else {
                    write!(out, "barrier").unwrap();
                    for q in qs {
                        write!(out, " q{q}").unwrap();
                    }
                    writeln!(out).unwrap();
                }
            }
        }
    }
}

/// Errors produced by [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "qfwasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_qubit(tok: &str, line: usize) -> Result<usize, ParseError> {
    tok.strip_prefix('q')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(line, format!("expected qubit operand, got '{tok}'")))
}

fn parse_clbit(tok: &str, line: usize) -> Result<usize, ParseError> {
    tok.strip_prefix('c')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(line, format!("expected clbit operand, got '{tok}'")))
}

/// A `qubits` / `clbits` count, refused above [`MAX_REGISTER_WIDTH`].
fn parse_width(rest: &str, what: &str, ln: usize) -> Result<usize, ParseError> {
    let n: usize = rest
        .parse()
        .map_err(|_| err(ln, format!("bad {what} count")))?;
    if n > MAX_REGISTER_WIDTH {
        return Err(err(
            ln,
            format!("{n} {what}s exceed the register width limit of {MAX_REGISTER_WIDTH}"),
        ));
    }
    Ok(n)
}

/// Refuses an operand outside an `nq`-qubit register or repeated in one op.
fn check_operands(qs: &[usize], nq: usize, ln: usize) -> Result<(), ParseError> {
    for (i, &q) in qs.iter().enumerate() {
        if q >= nq {
            return Err(err(ln, format!("qubit q{q} out of range for {nq} qubits")));
        }
        if qs[..i].contains(&q) {
            return Err(err(ln, format!("repeated qubit operand q{q}")));
        }
    }
    Ok(())
}

/// Refuses a clbit outside an `nc`-bit classical register.
fn check_clbit(c: usize, nc: usize, ln: usize) -> Result<(), ParseError> {
    if c >= nc {
        return Err(err(ln, format!("clbit c{c} out of range for {nc} clbits")));
    }
    Ok(())
}

/// Parses `qfwasm` text back into a [`Circuit`].
pub fn parse(text: &str) -> Result<Circuit, ParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));

    let (ln, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if header != "qfwasm 1" {
        return Err(err(ln, format!("bad header '{header}'")));
    }

    let mut name = String::new();
    let mut num_qubits: Option<usize> = None;
    let mut num_clbits: Option<usize> = None;
    let mut body: Vec<(usize, &str)> = Vec::new();

    for (ln, line) in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("name ") {
            name = rest.to_string();
        } else if let Some(rest) = line.strip_prefix("qubits ") {
            num_qubits = Some(parse_width(rest, "qubit", ln)?);
        } else if let Some(rest) = line.strip_prefix("clbits ") {
            num_clbits = Some(parse_width(rest, "clbit", ln)?);
        } else {
            body.push((ln, line));
        }
    }

    let nq = num_qubits.ok_or_else(|| err(0, "missing 'qubits' declaration"))?;
    let nc = num_clbits.unwrap_or(nq);
    let mut qc = Circuit::with_clbits(nq, nc);
    qc.name = name;

    for (ln, line) in body {
        if let Some(rest) = line.strip_prefix("measure ") {
            let mut it = rest.split_whitespace();
            let q = parse_qubit(it.next().unwrap_or(""), ln)?;
            let arrow = it.next().unwrap_or("");
            if arrow != "->" {
                return Err(err(ln, "measure expects 'q<i> -> c<j>'"));
            }
            let c = parse_clbit(it.next().unwrap_or(""), ln)?;
            check_operands(&[q], nq, ln)?;
            check_clbit(c, nc, ln)?;
            qc.push_op(Op::Measure { qubit: q, clbit: c });
            continue;
        }
        if line == "barrier" {
            qc.barrier();
            continue;
        }
        if let Some(rest) = line.strip_prefix("barrier ") {
            let qs = rest
                .split_whitespace()
                .map(|t| parse_qubit(t, ln))
                .collect::<Result<Vec<_>, _>>()?;
            check_operands(&qs, nq, ln)?;
            qc.push_op(Op::Barrier(qs));
            continue;
        }
        if let Some(rest) = line.strip_prefix("unitary[") {
            let gate = parse_unitary_line(rest, ln)?;
            check_operands(&gate.operands(), nq, ln)?;
            qc.push(gate);
            continue;
        }

        // Standard gate: `name(params) q.. ` or `name q..`.
        let (mnemonic, raw_params, qs) = split_gate_line(line, ln)?;
        let params = raw_params
            .iter()
            .map(|t| t.parse::<f64>().map_err(|_| err(ln, "bad parameter")))
            .collect::<Result<Vec<_>, _>>()?;
        let gate = build_fixed_gate(mnemonic, &params, &qs, ln)?;
        check_operands(&qs, nq, ln)?;
        qc.push(gate);
    }
    Ok(qc)
}

/// Parses the remainder of a `unitary[label] q.. : data` line (after the
/// `unitary[` prefix has been stripped).
fn parse_unitary_line(rest: &str, ln: usize) -> Result<Gate, ParseError> {
    let (label, rest) = rest
        .split_once(']')
        .ok_or_else(|| err(ln, "unterminated unitary label"))?;
    let (operands, data) = rest
        .split_once(':')
        .ok_or_else(|| err(ln, "unitary missing ':' data separator"))?;
    let qubits = operands
        .split_whitespace()
        .map(|t| parse_qubit(t, ln))
        .collect::<Result<Vec<_>, _>>()?;
    let values = data
        .split_whitespace()
        .map(|pair| {
            let (re, im) = pair
                .split_once(',')
                .ok_or_else(|| err(ln, format!("bad complex entry '{pair}'")))?;
            let re: f64 = re.parse().map_err(|_| err(ln, "bad real part"))?;
            let im: f64 = im.parse().map_err(|_| err(ln, "bad imag part"))?;
            Ok(c64(re, im))
        })
        .collect::<Result<Vec<C64>, ParseError>>()?;
    // 4^k entries for k operands, when that count fits in a usize.
    let entries = u32::try_from(qubits.len())
        .ok()
        .and_then(|k| 1usize.checked_shl(k))
        .and_then(|dim| dim.checked_mul(dim));
    let Some(entries) = entries else {
        return Err(err(
            ln,
            format!("unitary over {} qubits is too wide", qubits.len()),
        ));
    };
    if values.len() != entries {
        return Err(err(
            ln,
            format!(
                "unitary over {} qubits needs {entries} entries, got {}",
                qubits.len(),
                values.len()
            ),
        ));
    }
    let dim = 1usize << qubits.len();
    Ok(Gate::Unitary {
        qubits,
        matrix: Arc::new(Matrix::from_rows(dim, dim, &values)),
        label: label.to_string(),
    })
}

/// Splits a gate line into `(mnemonic, raw parameter tokens, qubits)` without
/// committing to a parameter grammar — the caller decides whether the tokens
/// are literal floats or symbolic angle expressions.
fn split_gate_line(line: &str, ln: usize) -> Result<(&str, Vec<&str>, Vec<usize>), ParseError> {
    let (head, operands) = match line.find(' ') {
        Some(idx) => (&line[..idx], &line[idx + 1..]),
        None => return Err(err(ln, format!("dangling token '{line}'"))),
    };
    let (mnemonic, raw_params): (&str, Vec<&str>) = match head.find('(') {
        Some(idx) => {
            let mn = &head[..idx];
            let inner = head[idx + 1..]
                .strip_suffix(')')
                .ok_or_else(|| err(ln, "unterminated parameter list"))?;
            (mn, inner.split(',').collect())
        }
        None => (head, vec![]),
    };
    let qs = operands
        .split_whitespace()
        .map(|t| parse_qubit(t, ln))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((mnemonic, raw_params, qs))
}

/// Builds a concrete [`Gate`] from a mnemonic, literal parameters, and qubit
/// operands — the shared back half of [`parse`] and [`parse_param`].
fn build_fixed_gate(
    mnemonic: &str,
    params: &[f64],
    qs: &[usize],
    ln: usize,
) -> Result<Gate, ParseError> {
    let need = |n: usize, p: usize| -> Result<(), ParseError> {
        if qs.len() != n {
            return Err(err(ln, format!("'{mnemonic}' expects {n} qubits")));
        }
        if params.len() != p {
            return Err(err(ln, format!("'{mnemonic}' expects {p} parameters")));
        }
        Ok(())
    };

    if let Some(kind) = RotKind::named(mnemonic) {
        need(kind.arity(), 1)?;
        return Ok(kind.gate([qs[0], qs.get(1).copied().unwrap_or(0)], params[0]));
    }
    let gate = match mnemonic {
        "h" => {
            need(1, 0)?;
            Gate::H(qs[0])
        }
        "x" => {
            need(1, 0)?;
            Gate::X(qs[0])
        }
        "y" => {
            need(1, 0)?;
            Gate::Y(qs[0])
        }
        "z" => {
            need(1, 0)?;
            Gate::Z(qs[0])
        }
        "s" => {
            need(1, 0)?;
            Gate::S(qs[0])
        }
        "sdg" => {
            need(1, 0)?;
            Gate::Sdg(qs[0])
        }
        "t" => {
            need(1, 0)?;
            Gate::T(qs[0])
        }
        "tdg" => {
            need(1, 0)?;
            Gate::Tdg(qs[0])
        }
        "sx" => {
            need(1, 0)?;
            Gate::Sx(qs[0])
        }
        "u" => {
            need(1, 3)?;
            Gate::U(qs[0], params[0], params[1], params[2])
        }
        "cx" => {
            need(2, 0)?;
            Gate::Cx(qs[0], qs[1])
        }
        "cy" => {
            need(2, 0)?;
            Gate::Cy(qs[0], qs[1])
        }
        "cz" => {
            need(2, 0)?;
            Gate::Cz(qs[0], qs[1])
        }
        "swap" => {
            need(2, 0)?;
            Gate::Swap(qs[0], qs[1])
        }
        "ccx" => {
            need(3, 0)?;
            Gate::Ccx(qs[0], qs[1], qs[2])
        }
        other => return Err(err(ln, format!("unknown gate '{other}'"))),
    };
    Ok(gate)
}

/// Header line of the parameterized (symbolic-skeleton) wire format.
pub const PARAM_HEADER: &str = "qfwasm-param 1";

/// Returns `true` when `text` is in the parameterized `qfwasm-param` wire
/// format (a symbolic skeleton, possibly with a trailing `bind` line).
pub fn is_param_text(text: &str) -> bool {
    text.trim_start().starts_with(PARAM_HEADER)
}

fn write_angle(out: &mut impl Write, a: &Angle) {
    match *a {
        Angle::Lit(v) => write!(out, "{v:e}").unwrap(),
        Angle::Sym {
            index,
            coeff,
            offset,
        } => {
            write!(out, "@{index}").unwrap();
            if offset != 0.0 {
                write!(out, "*{coeff:e}{offset:+e}").unwrap();
            } else if coeff != 1.0 {
                write!(out, "*{coeff:e}").unwrap();
            }
        }
    }
}

fn write_param_op(out: &mut impl Write, op: &ParamOp) {
    match op {
        ParamOp::Rot(r) => write_rotation(out, r),
        ParamOp::Fixed(g) => write_gate_line(out, g),
        ParamOp::Measure { qubit, clbit } => {
            writeln!(out, "measure q{qubit} -> c{clbit}").unwrap();
        }
    }
}

/// Serializes a parameterized template to `qfwasm-param` text.
///
/// Symbolic angles print as `@k`, `@k*coeff`, or `@k*coeff±offset` (with
/// `{:e}` floats for lossless round-trips); everything else reuses the
/// concrete `qfwasm` gate grammar. The output carries **no** parameter
/// values — append them with [`dump_param_bound`].
pub fn dump_param(t: &ParamCircuit) -> String {
    let mut out = String::new();
    write_param(&mut out, t);
    out
}

/// Streams the canonical `qfwasm-param` skeleton of a template into `out`.
pub(crate) fn write_param(out: &mut impl Write, t: &ParamCircuit) {
    writeln!(out, "{PARAM_HEADER}").unwrap();
    if !t.name.is_empty() {
        writeln!(out, "name {}", t.name).unwrap();
    }
    writeln!(out, "qubits {}", t.num_qubits()).unwrap();
    for op in t.ops() {
        write_param_op(out, op);
    }
}

/// Streams the trailing `bind v0 v1 ...` line of a bound template.
pub fn write_bind(out: &mut impl Write, params: &[f64]) {
    out.write_str("bind").unwrap();
    for v in params {
        write!(out, " {v:e}").unwrap();
    }
    out.write_char('\n').unwrap();
}

/// Serializes a parameterized template plus one bound parameter vector.
///
/// The binding travels as a trailing `bind v0 v1 ...` line, so the skeleton
/// portion stays byte-identical across points of a sweep.
pub fn dump_param_bound(t: &ParamCircuit, params: &[f64]) -> String {
    let mut out = dump_param(t);
    write_bind(&mut out, params);
    out
}

/// Parses a symbolic angle token: `@k`, `@k*coeff`, or `@k*coeff±offset`.
fn parse_angle_token(tok: &str, ln: usize) -> Result<Angle, ParseError> {
    let Some(rest) = tok.strip_prefix('@') else {
        // Literal angle: plain float.
        return tok
            .parse::<f64>()
            .map(Angle::Lit)
            .map_err(|_| err(ln, format!("bad angle '{tok}'")));
    };
    let (index_str, tail) = match rest.find('*') {
        Some(idx) => (&rest[..idx], Some(&rest[idx + 1..])),
        None => (rest, None),
    };
    let index: usize = index_str
        .parse()
        .map_err(|_| err(ln, format!("bad parameter index in '{tok}'")))?;
    let Some(tail) = tail else {
        return Ok(Angle::sym(index));
    };
    // Split `coeff±offset` at the first sign that is not leading and not an
    // exponent sign (i.e. not preceded by 'e' or 'E').
    let bytes = tail.as_bytes();
    let mut split = None;
    for i in 1..bytes.len() {
        if (bytes[i] == b'+' || bytes[i] == b'-') && bytes[i - 1] != b'e' && bytes[i - 1] != b'E' {
            split = Some(i);
            break;
        }
    }
    let (coeff_str, offset_str) = match split {
        Some(i) => (&tail[..i], &tail[i..]),
        None => (tail, "0"),
    };
    let coeff: f64 = coeff_str
        .parse()
        .map_err(|_| err(ln, format!("bad coefficient in '{tok}'")))?;
    let offset: f64 = offset_str
        .parse()
        .map_err(|_| err(ln, format!("bad offset in '{tok}'")))?;
    Ok(Angle::Sym {
        index,
        coeff,
        offset,
    })
}

/// Parses `qfwasm-param` text into a [`ParamCircuit`] and, when the text
/// carries a trailing `bind` line, the bound parameter vector.
pub fn parse_param(text: &str) -> Result<(ParamCircuit, Option<Vec<f64>>), ParseError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));

    let (ln, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if header != PARAM_HEADER {
        return Err(err(ln, format!("bad header '{header}'")));
    }

    let mut name = String::new();
    let mut num_qubits: Option<usize> = None;
    let mut bound: Option<Vec<f64>> = None;
    let mut body: Vec<(usize, &str)> = Vec::new();

    for (ln, line) in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("name ") {
            name = rest.to_string();
        } else if let Some(rest) = line.strip_prefix("qubits ") {
            num_qubits = Some(parse_width(rest, "qubit", ln)?);
        } else if line == "bind" || line.starts_with("bind ") {
            let vs = line["bind".len()..]
                .split_whitespace()
                .map(|t| t.parse::<f64>().map_err(|_| err(ln, "bad bind value")))
                .collect::<Result<Vec<_>, _>>()?;
            bound = Some(vs);
        } else {
            body.push((ln, line));
        }
    }

    let nq = num_qubits.ok_or_else(|| err(0, "missing 'qubits' declaration"))?;
    let mut t = ParamCircuit::new(nq);
    t.name = name;

    for (ln, line) in body {
        if let Some(rest) = line.strip_prefix("measure ") {
            let mut it = rest.split_whitespace();
            let q = parse_qubit(it.next().unwrap_or(""), ln)?;
            if it.next().unwrap_or("") != "->" {
                return Err(err(ln, "measure expects 'q<i> -> c<j>'"));
            }
            let c = parse_clbit(it.next().unwrap_or(""), ln)?;
            // A template's classical register is as wide as its quantum one.
            check_operands(&[q], nq, ln)?;
            check_clbit(c, nq, ln)?;
            t.push(ParamOp::Measure { qubit: q, clbit: c });
            continue;
        }
        if let Some(rest) = line.strip_prefix("unitary[") {
            let gate = parse_unitary_line(rest, ln)?;
            check_operands(&gate.operands(), nq, ln)?;
            t.fixed(gate);
            continue;
        }

        let (mnemonic, raw_params, qs) = split_gate_line(line, ln)?;
        check_operands(&qs, nq, ln)?;
        if let Some(kind) = RotKind::named(mnemonic).filter(|k| k.takes_symbol()) {
            let arity = kind.arity();
            if qs.len() != arity || raw_params.len() != 1 {
                return Err(err(
                    ln,
                    format!("'{mnemonic}' expects {arity} qubits and 1 angle"),
                ));
            }
            let a = parse_angle_token(raw_params[0], ln)?;
            t.rot(kind, &qs, a);
            continue;
        }

        let params = raw_params
            .iter()
            .map(|tok| tok.parse::<f64>().map_err(|_| err(ln, "bad parameter")))
            .collect::<Result<Vec<_>, _>>()?;
        t.fixed(build_fixed_gate(mnemonic, &params, &qs, ln)?);
    }
    Ok((t, bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(qc: &Circuit) -> Circuit {
        parse(&dump(qc)).expect("round trip parse")
    }

    #[test]
    fn round_trips_every_standard_gate() {
        let mut qc = Circuit::new(3).named("kitchen_sink");
        qc.h(0)
            .x(1)
            .y(2)
            .z(0)
            .s(1)
            .sdg(2)
            .t(0)
            .tdg(1)
            .push(Gate::Sx(2))
            .rx(0, 0.25)
            .ry(1, -1.5)
            .rz(2, 3.25)
            .p(0, 0.125)
            .push(Gate::U(1, 0.1, 0.2, 0.3))
            .cx(0, 1)
            .push(Gate::Cy(1, 2))
            .cz(0, 2)
            .swap(1, 2)
            .cp(0, 1, 0.7)
            .push(Gate::Crx(0, 2, 0.4))
            .cry(1, 0, 0.9)
            .push(Gate::Crz(2, 1, -0.2))
            .rxx(0, 1, 1.1)
            .push(Gate::Ryy(1, 2, 2.2))
            .rzz(0, 2, -3.3)
            .ccx(0, 1, 2)
            .barrier()
            .measure_all();
        assert_eq!(round_trip(&qc), qc);
    }

    #[test]
    fn round_trips_unitary_blocks() {
        let mut qc = Circuit::new(2);
        qc.push(Gate::Unitary {
            qubits: vec![1, 0],
            matrix: Arc::new(Gate::Cx(0, 1).matrix()),
            label: "cxblk".into(),
        });
        let back = round_trip(&qc);
        match back.gates().next().unwrap() {
            Gate::Unitary {
                qubits,
                matrix,
                label,
            } => {
                assert_eq!(qubits, &vec![1, 0]);
                assert_eq!(label, "cxblk");
                assert!(matrix.max_abs_diff(&Gate::Cx(0, 1).matrix()) < 1e-15);
            }
            other => panic!("expected unitary, got {other:?}"),
        };
    }

    #[test]
    fn angles_preserve_full_precision() {
        let theta = std::f64::consts::PI / 3.0 + 1e-13;
        let mut qc = Circuit::new(1);
        qc.rz(0, theta);
        let back = round_trip(&qc);
        match back.gates().next().unwrap() {
            Gate::Rz(_, t) => assert_eq!(*t, theta),
            _ => unreachable!(),
        };
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "qfwasm 1\nqubits 1\n\n# a comment\nh q0\n";
        let qc = parse(text).unwrap();
        assert_eq!(qc.num_gates(), 1);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse("qasm 2\nqubits 1\n").is_err());
    }

    #[test]
    fn rejects_unknown_gate_with_line_number() {
        let e = parse("qfwasm 1\nqubits 1\nfrobnicate q0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(parse("qfwasm 1\nqubits 2\ncx q0\n").is_err());
        assert!(parse("qfwasm 1\nqubits 2\nrz q0\n").is_err());
    }

    #[test]
    fn rejects_missing_qubit_decl() {
        assert!(parse("qfwasm 1\nh q0\n").is_err());
    }

    #[test]
    fn partial_barrier_round_trips() {
        let mut qc = Circuit::new(4);
        qc.push_op(Op::Barrier(vec![1, 2]));
        let back = round_trip(&qc);
        assert_eq!(back.ops()[0], Op::Barrier(vec![1, 2]));
    }

    fn sample_template() -> ParamCircuit {
        let mut t = ParamCircuit::new(3);
        t.name = "sweepable".into();
        t.h(0)
            .fixed(Gate::Cx(0, 1))
            .rz(1, Angle::sym(0))
            .rzz(0, 2, Angle::scaled(0, -2.5))
            .rot(
                RotKind::Cp,
                &[1, 2],
                Angle::Sym {
                    index: 1,
                    coeff: 0.75,
                    offset: -1.25e-3,
                },
            )
            .rx(2, 0.5)
            .measure_all();
        t
    }

    #[test]
    fn param_round_trips_all_angle_forms() {
        let t = sample_template();
        let (back, bound) = parse_param(&dump_param(&t)).expect("param round trip");
        assert_eq!(back, t);
        assert_eq!(bound, None);
    }

    #[test]
    fn param_bound_round_trips_values_exactly() {
        let t = sample_template();
        let params = [std::f64::consts::PI / 3.0 + 1e-13, -0.625];
        let (back, bound) = parse_param(&dump_param_bound(&t, &params)).unwrap();
        assert_eq!(back, t);
        assert_eq!(bound.as_deref(), Some(&params[..]));
    }

    #[test]
    fn param_negative_coeff_and_offset_survive() {
        let mut t = ParamCircuit::new(1);
        t.rz(
            0,
            Angle::Sym {
                index: 4,
                coeff: -3.5e-2,
                offset: -7.25,
            },
        );
        let (back, _) = parse_param(&dump_param(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn bound_dump_is_the_skeleton_plus_one_bind_line() {
        let t = sample_template();
        let bound = dump_param_bound(&t, &[0.1, 0.2]);
        assert_eq!(
            bound.strip_prefix(&dump_param(&t)),
            Some("bind 1e-1 2e-1\n")
        );
    }

    #[test]
    fn param_header_detection() {
        let t = sample_template();
        assert!(is_param_text(&dump_param(&t)));
        assert!(!is_param_text(&dump(&t.bind(&[0.1, 0.2]))));
    }

    #[test]
    fn param_rejects_concrete_header_and_vice_versa() {
        let t = sample_template();
        assert!(parse_param(&dump(&t.bind(&[0.0, 0.0]))).is_err());
        assert!(parse(&dump_param(&t)).is_err());
    }

    #[test]
    fn param_empty_bind_line_parses_as_zero_params() {
        let mut t = ParamCircuit::new(1);
        t.h(0);
        let (_, bound) = parse_param(&dump_param_bound(&t, &[])).unwrap();
        assert_eq!(bound, Some(vec![]));
    }

    /// Every operand is checked against `qubits N` at parse time, with the
    /// line number, so binding the template cannot panic.
    #[test]
    fn param_refuses_out_of_range_operands_by_line() {
        let head = "qfwasm-param 1\nqubits 2\n";
        let out_of_range = |q: &str| format!("qubit {q} out of range for 2 qubits");
        for (body, line, what) in [
            ("h q7\nrx(@0) q0\nbind 0.1\n", 3, out_of_range("q7")),
            ("rx(@0) q0\nrzz(@0) q0 q2\n", 4, out_of_range("q2")),
            ("measure q5 -> c0\n", 3, out_of_range("q5")),
            ("unitary[u] q3 : 1,0 0,0 0,0 1,0\n", 3, out_of_range("q3")),
            (
                "rx(@0) q0\nmeasure q0 -> c9\n",
                4,
                "clbit c9 out of range for 2 clbits".into(),
            ),
            ("cx q1 q1\n", 3, "repeated qubit operand q1".into()),
        ] {
            let e = parse_param(&format!("{head}{body}")).unwrap_err();
            assert_eq!((e.line, e.message), (line, what), "{body}");
        }
    }
}
