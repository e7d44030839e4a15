//! OpenQASM 3 front-end: lexer, recursive-descent parser, and emitter.
//!
//! The supported subset is the interoperability surface the stack needs:
//! the version statement, `include` (accepted and ignored), `qubit[n]` /
//! `bit[n]` register declarations (multiple registers are flattened into
//! one index space in declaration order), `input float[64] name;`
//! parameter declarations (parameter indices follow declaration order),
//! standard-gate calls with angle expressions that are affine in at most
//! one parameter (`pi`/`π`/`tau`/`euler` constants, `+ - * /`,
//! parentheses, register broadcast), both measurement forms
//! (`c[0] = measure q[0];` and `measure q[0] -> c[0];`), and `barrier`.
//! As an extension the two-qubit rotation names `rzz`/`rxx`/`ryy` are
//! accepted directly; [`lower_to_stdgates`] rewrites them onto the strict
//! `stdgates.inc` set for export to consumers without the extension.
//!
//! The emitter is canonical: one statement per line, flattened `q`/`c`
//! registers, `{:e}` floats (exact `f64` round trips), and parameter
//! names preserved from the parse. That makes `parse ∘ emit` a fixed
//! point on parsed programs, which is what lets [`canonical_qasm3`] give
//! every formatting variant of the same program one text.

use crate::dag::{DagCircuit, DagOp};
use qfw_circuit::param::{Angle, ParamOp, RotKind, Rotation};
use qfw_circuit::{Gate, MAX_REGISTER_WIDTH};

/// A parse failure, with the 1-based source line it was detected on.
#[derive(Clone, Debug, PartialEq)]
pub struct Qasm3Error {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Qasm3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "qasm3 line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for Qasm3Error {}

/// A parsed program: the DAG plus the `input float` parameter names in
/// index order (empty for fully concrete programs).
#[derive(Clone, Debug)]
pub struct ParsedQasm {
    /// The circuit as a DAG (symbolic angles preserved).
    pub dag: DagCircuit,
    /// Declared parameter names; `params[k]` is `theta[k]`.
    pub params: Vec<String>,
}

/// Quick sniff: does this source look like OpenQASM 3 (as opposed to the
/// native `qfwasm` text format)? True when the first non-comment,
/// non-whitespace content starts with `OPENQASM`.
pub fn is_qasm3(src: &str) -> bool {
    let mut rest = src;
    loop {
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix("//") {
            rest = after.split_once('\n').map_or("", |(_, r)| r);
        } else if let Some(after) = rest.strip_prefix("/*") {
            rest = after.split_once("*/").map_or("", |(_, r)| r);
        } else {
            return rest.starts_with("OPENQASM");
        }
    }
}

/// Default parameter names for emitting a DAG that was not produced by
/// the parser: `theta0`, `theta1`, ….
pub fn default_param_names(n: usize) -> Vec<String> {
    (0..n).map(|k| format!("theta{k}")).collect()
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

/// A token. Identifiers and string literals borrow the source; a symbol
/// is its byte, with `b'>'` standing for `->`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Num(f64),
    Str(&'a str),
    Sym(u8),
}

/// A symbol token as it is spelled in the source.
struct SymText(u8);

impl std::fmt::Display for SymText {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            b'>' => f.write_str("->"),
            c => write!(f, "{}", c as char),
        }
    }
}

struct Lexer<'a> {
    toks: Vec<(Tok<'a>, usize)>,
    pos: usize,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == 'π'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == 'π'
}

/// The character starting at byte `i` (a char boundary).
fn char_at(src: &str, i: usize) -> char {
    src[i..]
        .chars()
        .next()
        .expect("lexer positions are char boundaries")
}

/// The end of the identifier that starts at byte `i`.
fn ident_end(src: &str, mut i: usize) -> usize {
    let bytes = src.as_bytes();
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_alphanumeric() || b == b'_' {
            i += 1;
        } else if b >= 0x80 && is_ident_char(char_at(src, i)) {
            i += char_at(src, i).len_utf8();
        } else {
            break;
        }
    }
    i
}

/// The end of the number literal that starts at byte `i` (a digit or
/// `.`): digits, `.`, `e`/`E`, and a sign right after an `e`/`E`.
fn number_end(bytes: &[u8], mut i: usize) -> usize {
    while let Some(&d) = bytes.get(i) {
        let sign_after_e = matches!(d, b'+' | b'-') && matches!(bytes[i - 1], b'e' | b'E');
        if !(d.is_ascii_digit() || matches!(d, b'.' | b'e' | b'E') || sign_after_e) {
            break;
        }
        i += 1;
    }
    i
}

/// The value of a number literal. Up to 15 digits with no point or
/// exponent are below 2^53, where accumulating the integer gives the same
/// `f64` as `str::parse`; every other literal is parsed.
fn number_value(text: &str) -> Option<f64> {
    if text.len() <= 15 && text.bytes().all(|b| b.is_ascii_digit()) {
        let n = text.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
        return Some(n as f64);
    }
    text.parse().ok()
}

fn lex(src: &str) -> Result<Vec<(Tok<'_>, usize)>, Qasm3Error> {
    let bytes = src.as_bytes();
    // Room for one token per two bytes, about what dense code holds.
    let mut toks = Vec::with_capacity(src.len() / 2);
    let mut line = 1usize;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let next = bytes.get(i + 1).copied();
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            // The ASCII characters `char::is_whitespace` accepts.
            b'\t' | 0x0B | 0x0C | b'\r' | b' ' => i += 1,
            b'/' if next == Some(b'/') => match bytes[i..].iter().position(|&c| c == b'\n') {
                Some(k) => {
                    line += 1;
                    i += k + 1;
                }
                None => i = bytes.len(),
            },
            b'/' if next == Some(b'*') => {
                i += 2;
                let mut prev = b' ';
                let mut closed = false;
                while let Some(&c) = bytes.get(i) {
                    i += 1;
                    if c == b'\n' {
                        line += 1;
                    }
                    if prev == b'*' && c == b'/' {
                        closed = true;
                        break;
                    }
                    prev = c;
                }
                if !closed {
                    return Err(Qasm3Error {
                        line,
                        message: "unterminated block comment".into(),
                    });
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let end = ident_end(src, i + 1);
                toks.push((Tok::Ident(&src[i..end]), line));
                i = end;
            }
            b'0'..=b'9' | b'.' if b != b'.' || next.is_some_and(|d| d.is_ascii_digit()) => {
                let end = number_end(bytes, i);
                let text = &src[i..end];
                let v = number_value(text).ok_or_else(|| Qasm3Error {
                    line,
                    message: format!("malformed number `{text}`"),
                })?;
                toks.push((Tok::Num(v), line));
                i = end;
            }
            b'"' => {
                let body = &src[i + 1..];
                let Some(len) = body.find('"') else {
                    return Err(Qasm3Error {
                        line: line + body.matches('\n').count(),
                        message: "unterminated string literal".into(),
                    });
                };
                line += body[..len].matches('\n').count();
                toks.push((Tok::Str(&body[..len]), line));
                i += len + 2;
            }
            b'-' if next == Some(b'>') => {
                toks.push((Tok::Sym(b'>'), line));
                i += 2;
            }
            b'(' | b')' | b'[' | b']' | b'{' | b'}' | b',' | b';' | b'=' | b'+' | b'-' | b'*'
            | b'/' => {
                toks.push((Tok::Sym(b), line));
                i += 1;
            }
            _ => {
                let c = char_at(src, i);
                if c.is_whitespace() {
                    i += c.len_utf8();
                } else if b >= 0x80 && is_ident_start(c) {
                    let end = ident_end(src, i + c.len_utf8());
                    toks.push((Tok::Ident(&src[i..end]), line));
                    i = end;
                } else {
                    return Err(Qasm3Error {
                        line,
                        message: format!("unexpected character `{c}`"),
                    });
                }
            }
        }
    }
    Ok(toks)
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(1, |(_, l)| *l)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> Qasm3Error {
        Qasm3Error {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect_sym(&mut self, s: u8) -> Result<(), Qasm3Error> {
        match self.next() {
            Some(Tok::Sym(t)) if t == s => Ok(()),
            other => Err(self.err(format!(
                "expected `{}`, found {}",
                SymText(s),
                tok_name(&other)
            ))),
        }
    }

    fn eat_sym(&mut self, s: u8) -> bool {
        let hit = self.peek() == Some(Tok::Sym(s));
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect_ident(&mut self) -> Result<&'a str, Qasm3Error> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {}", tok_name(&other)))),
        }
    }
}

fn tok_name(t: &Option<Tok>) -> String {
    match t {
        Some(Tok::Ident(s)) => format!("`{s}`"),
        Some(Tok::Num(v)) => format!("number `{v}`"),
        Some(Tok::Str(_)) => "string literal".into(),
        Some(Tok::Sym(s)) => format!("`{}`", SymText(*s)),
        None => "end of input".into(),
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum RegKind {
    Qubit,
    Bit,
}

struct Reg {
    kind: RegKind,
    offset: usize,
    size: usize,
}

/// A value affine in at most one parameter: `c + coeff·theta[index]`.
#[derive(Clone, Copy)]
struct AffineVal {
    c: f64,
    term: Option<(usize, f64)>,
}

impl AffineVal {
    fn lit(c: f64) -> Self {
        AffineVal { c, term: None }
    }

    fn to_angle(self) -> Angle {
        match self.term {
            None => Angle::Lit(self.c),
            Some((index, coeff)) => Angle::Sym {
                index,
                coeff,
                offset: self.c,
            },
        }
    }
}

#[derive(Clone, Copy)]
enum Operand {
    Single(usize),
    Whole { offset: usize, size: usize },
}

/// Deepest nesting of unary signs and parentheses an angle expression may
/// have: the parser recurses once per level.
const MAX_EXPR_DEPTH: usize = 64;

struct Parser<'a> {
    lx: Lexer<'a>,
    regs: std::collections::BTreeMap<&'a str, Reg>,
    params: Vec<&'a str>,
    /// The program so far; its registers grow as they are declared.
    dag: DagCircuit,
    saw_version: bool,
    /// Current angle-expression nesting.
    depth: usize,
    /// Per-statement scratch, reused so that a gate call allocates nothing.
    angles: Vec<Angle>,
    operands: Vec<Operand>,
    qubits: Vec<usize>,
}

/// Parses an OpenQASM 3 program in the supported subset.
pub fn parse(src: &str) -> Result<ParsedQasm, Qasm3Error> {
    let toks = lex(src)?;
    // About one op per ten tokens in gate-heavy code.
    let dag = DagCircuit::with_capacity(0, 0, toks.len() / 8);
    let mut p = Parser {
        lx: Lexer { toks, pos: 0 },
        regs: std::collections::BTreeMap::new(),
        params: Vec::new(),
        dag,
        saw_version: false,
        depth: 0,
        angles: Vec::new(),
        operands: Vec::new(),
        qubits: Vec::new(),
    };
    while p.lx.peek().is_some() {
        p.statement()?;
    }
    if !p.saw_version {
        return Err(Qasm3Error {
            line: 1,
            message: "missing `OPENQASM 3;` version statement".into(),
        });
    }
    Ok(ParsedQasm {
        dag: p.dag,
        params: p.params.iter().map(|name| name.to_string()).collect(),
    })
}

impl<'a> Parser<'a> {
    fn statement(&mut self) -> Result<(), Qasm3Error> {
        let Some(tok) = self.lx.peek() else {
            return Ok(());
        };
        let Tok::Ident(word) = tok else {
            return Err(self.lx.err(format!(
                "expected a statement, found {}",
                tok_name(&Some(tok))
            )));
        };
        match word {
            "OPENQASM" => self.version_stmt(),
            "include" => self.include_stmt(),
            "qubit" => self.reg_decl(RegKind::Qubit),
            "bit" => self.reg_decl(RegKind::Bit),
            "input" => self.input_decl(),
            "measure" => {
                self.lx.next();
                self.measure_arrow_stmt()
            }
            "barrier" => self.barrier_stmt(),
            _ => {
                // Either `c[i] = measure ...` (bit-register assignment) or
                // a gate call.
                if self.regs.get(word).map(|r| r.kind) == Some(RegKind::Bit) {
                    self.measure_assign_stmt()
                } else {
                    self.gate_stmt()
                }
            }
        }
    }

    fn version_stmt(&mut self) -> Result<(), Qasm3Error> {
        self.lx.next();
        match self.lx.next() {
            Some(Tok::Num(v)) if v.trunc() == 3.0 => {}
            other => {
                return Err(self
                    .lx
                    .err(format!("unsupported OPENQASM version {}", tok_name(&other))))
            }
        }
        self.lx.expect_sym(b';')?;
        self.saw_version = true;
        Ok(())
    }

    fn include_stmt(&mut self) -> Result<(), Qasm3Error> {
        self.lx.next();
        match self.lx.next() {
            Some(Tok::Str(_)) => {}
            other => {
                return Err(self.lx.err(format!(
                    "expected include path string, found {}",
                    tok_name(&other)
                )))
            }
        }
        self.lx.expect_sym(b';')
    }

    fn check_fresh_name(&self, name: &'a str) -> Result<(), Qasm3Error> {
        if self.regs.contains_key(name) || self.params.contains(&name) {
            return Err(self.lx.err(format!("`{name}` is already declared")));
        }
        if matches!(name, "pi" | "π" | "tau" | "euler" | "measure" | "barrier") {
            return Err(self.lx.err(format!("`{name}` is reserved")));
        }
        Ok(())
    }

    fn reg_decl(&mut self, kind: RegKind) -> Result<(), Qasm3Error> {
        self.lx.next();
        let size = if self.lx.eat_sym(b'[') {
            let n = self.const_index()?;
            self.lx.expect_sym(b']')?;
            n
        } else {
            1
        };
        let name = self.lx.expect_ident()?;
        self.check_fresh_name(name)?;
        let (offset, what) = match kind {
            RegKind::Qubit => (self.dag.num_qubits(), "qubit"),
            RegKind::Bit => (self.dag.num_clbits(), "bit"),
        };
        let Some(width) = offset
            .checked_add(size)
            .filter(|&w| w <= MAX_REGISTER_WIDTH)
        else {
            return Err(self.lx.err(format!(
                "register `{name}[{size}]` takes the {what}s past the width limit of {MAX_REGISTER_WIDTH}"
            )));
        };
        self.lx.expect_sym(b';')?;
        match kind {
            RegKind::Qubit => self.dag.widen(width, self.dag.num_clbits()),
            RegKind::Bit => self.dag.widen(self.dag.num_qubits(), width),
        }
        self.regs.insert(name, Reg { kind, offset, size });
        Ok(())
    }

    fn input_decl(&mut self) -> Result<(), Qasm3Error> {
        self.lx.next();
        let ty = self.lx.expect_ident()?;
        if ty != "float" && ty != "angle" {
            return Err(self
                .lx
                .err(format!("unsupported input type `{ty}` (expected float)")));
        }
        if self.lx.eat_sym(b'[') {
            self.const_index()?;
            self.lx.expect_sym(b']')?;
        }
        let name = self.lx.expect_ident()?;
        self.check_fresh_name(name)?;
        self.lx.expect_sym(b';')?;
        self.params.push(name);
        Ok(())
    }

    fn const_index(&mut self) -> Result<usize, Qasm3Error> {
        match self.lx.next() {
            Some(Tok::Num(v)) if v >= 0.0 && v.fract() == 0.0 => Ok(v as usize),
            other => Err(self.lx.err(format!(
                "expected a non-negative integer, found {}",
                tok_name(&other)
            ))),
        }
    }

    fn operand(&mut self, want: RegKind) -> Result<Operand, Qasm3Error> {
        let name = self.lx.expect_ident()?;
        let Some(reg) = self.regs.get(name) else {
            return Err(self.lx.err(format!("undeclared register `{name}`")));
        };
        if reg.kind != want {
            let k = if want == RegKind::Qubit {
                "qubit"
            } else {
                "bit"
            };
            return Err(self.lx.err(format!("`{name}` is not a {k} register")));
        }
        let (offset, size) = (reg.offset, reg.size);
        if self.lx.eat_sym(b'[') {
            let i = self.const_index()?;
            self.lx.expect_sym(b']')?;
            if i >= size {
                return Err(self
                    .lx
                    .err(format!("index {i} out of range for `{name}[{size}]`")));
            }
            Ok(Operand::Single(offset + i))
        } else {
            Ok(Operand::Whole { offset, size })
        }
    }

    fn measure_assign_stmt(&mut self) -> Result<(), Qasm3Error> {
        let dst = self.operand(RegKind::Bit)?;
        self.lx.expect_sym(b'=')?;
        let kw = self.lx.expect_ident()?;
        if kw != "measure" {
            return Err(self
                .lx
                .err(format!("expected `measure` after `=`, found `{kw}`")));
        }
        let src = self.operand(RegKind::Qubit)?;
        self.lx.expect_sym(b';')?;
        self.push_measure(src, dst)
    }

    fn measure_arrow_stmt(&mut self) -> Result<(), Qasm3Error> {
        let src = self.operand(RegKind::Qubit)?;
        self.lx.expect_sym(b'>')?;
        let dst = self.operand(RegKind::Bit)?;
        self.lx.expect_sym(b';')?;
        self.push_measure(src, dst)
    }

    fn push_measure(&mut self, src: Operand, dst: Operand) -> Result<(), Qasm3Error> {
        let measure = |qubit, clbit| DagOp::Op(ParamOp::Measure { qubit, clbit });
        match (src, dst) {
            (Operand::Single(q), Operand::Single(c)) => {
                self.dag.push(measure(q, c));
            }
            (
                Operand::Whole {
                    offset: qo,
                    size: qs,
                },
                Operand::Whole {
                    offset: co,
                    size: cs,
                },
            ) => {
                if qs != cs {
                    return Err(self.lx.err(format!(
                        "broadcast measure over registers of different sizes ({qs} vs {cs})"
                    )));
                }
                for i in 0..qs {
                    self.dag.push(measure(qo + i, co + i));
                }
            }
            _ => {
                return Err(self
                    .lx
                    .err("measure operands must both be indexed or both be registers"))
            }
        }
        Ok(())
    }

    fn barrier_stmt(&mut self) -> Result<(), Qasm3Error> {
        let line = self.lx.line();
        self.lx.next();
        let mut qubits = Vec::new();
        if self.lx.eat_sym(b';') {
            // Bare `barrier;` fences every qubit.
            self.dag
                .push(DagOp::Barrier((0..self.dag.num_qubits()).collect()));
            return Ok(());
        }
        loop {
            match self.operand(RegKind::Qubit)? {
                Operand::Single(q) => qubits.push(q),
                Operand::Whole { offset, size } => qubits.extend(offset..offset + size),
            }
            if !self.lx.eat_sym(b',') {
                break;
            }
        }
        self.lx.expect_sym(b';')?;
        if (1..qubits.len()).any(|i| qubits[..i].contains(&qubits[i])) {
            return Err(Qasm3Error {
                line,
                message: "repeated qubit operand in `barrier`".into(),
            });
        }
        self.dag.push(DagOp::Barrier(qubits));
        Ok(())
    }

    fn gate_stmt(&mut self) -> Result<(), Qasm3Error> {
        let line = self.lx.line();
        let name = self.lx.expect_ident()?;
        self.angles.clear();
        if self.lx.eat_sym(b'(') {
            loop {
                let angle = self.expr()?.to_angle();
                self.angles.push(angle);
                if !self.lx.eat_sym(b',') {
                    break;
                }
            }
            self.lx.expect_sym(b')')?;
        }
        self.operands.clear();
        loop {
            let operand = self.operand(RegKind::Qubit)?;
            self.operands.push(operand);
            if !self.lx.eat_sym(b',') {
                break;
            }
        }
        self.lx.expect_sym(b';')?;
        // Broadcast: every whole-register operand must have the same
        // length; indexed operands repeat.
        let mut width = None;
        for o in &self.operands {
            if let Operand::Whole { size, .. } = *o {
                match width {
                    None => width = Some(size),
                    Some(w) if w == size => {}
                    Some(w) => {
                        return Err(Qasm3Error {
                            line,
                            message: format!(
                                "broadcast over registers of different sizes ({w} vs {size})"
                            ),
                        })
                    }
                }
            }
        }
        for i in 0..width.unwrap_or(1) {
            self.qubits.clear();
            self.qubits.extend(self.operands.iter().map(|o| match *o {
                Operand::Single(q) => q,
                Operand::Whole { offset, .. } => offset + i,
            }));
            let op = build_gate(name, &self.angles, &self.qubits, line)?;
            self.dag.push(op);
        }
        Ok(())
    }

    // expr := term (('+'|'-') term)*
    fn expr(&mut self) -> Result<AffineVal, Qasm3Error> {
        let mut v = self.term()?;
        loop {
            if self.lx.eat_sym(b'+') {
                let r = self.term()?;
                v = affine_add(v, r, 1.0);
            } else if self.lx.eat_sym(b'-') {
                let r = self.term()?;
                v = affine_add(v, r, -1.0);
            } else {
                return Ok(v);
            }
        }
    }

    // term := factor (('*'|'/') factor)*
    fn term(&mut self) -> Result<AffineVal, Qasm3Error> {
        let mut v = self.factor()?;
        loop {
            if self.lx.eat_sym(b'*') {
                let r = self.factor()?;
                v = match (v.term, r.term) {
                    (None, _) => scale(r, v.c),
                    (_, None) => scale(v, r.c),
                    _ => {
                        return Err(self
                            .lx
                            .err("angle expressions must be affine in the parameter"))
                    }
                };
            } else if self.lx.eat_sym(b'/') {
                let r = self.factor()?;
                if r.term.is_some() {
                    return Err(self.lx.err("cannot divide by a parameter"));
                }
                v = scale(v, 1.0 / r.c);
            } else {
                return Ok(v);
            }
        }
    }

    // factor := ('-'|'+') factor | number | const | param | '(' expr ')'
    fn factor(&mut self) -> Result<AffineVal, Qasm3Error> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(self.lx.err(format!(
                "angle expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let v = self.nested_factor();
        self.depth -= 1;
        v
    }

    fn nested_factor(&mut self) -> Result<AffineVal, Qasm3Error> {
        if self.lx.eat_sym(b'-') {
            return Ok(scale(self.factor()?, -1.0));
        }
        if self.lx.eat_sym(b'+') {
            return self.factor();
        }
        if self.lx.eat_sym(b'(') {
            let v = self.expr()?;
            self.lx.expect_sym(b')')?;
            return Ok(v);
        }
        match self.lx.next() {
            Some(Tok::Num(v)) => Ok(AffineVal::lit(v)),
            Some(Tok::Ident(name)) => match name {
                "pi" | "π" => Ok(AffineVal::lit(std::f64::consts::PI)),
                "tau" => Ok(AffineVal::lit(std::f64::consts::TAU)),
                "euler" => Ok(AffineVal::lit(std::f64::consts::E)),
                _ => {
                    if let Some(index) = self.params.iter().position(|p| *p == name) {
                        Ok(AffineVal {
                            c: 0.0,
                            term: Some((index, 1.0)),
                        })
                    } else {
                        Err(self
                            .lx
                            .err(format!("unknown identifier `{name}` in expression")))
                    }
                }
            },
            other => Err(self.lx.err(format!(
                "expected an angle term, found {}",
                tok_name(&other)
            ))),
        }
    }
}

fn scale(v: AffineVal, k: f64) -> AffineVal {
    AffineVal {
        c: v.c * k,
        term: v.term.map(|(i, c)| (i, c * k)),
    }
}

fn affine_add(a: AffineVal, b: AffineVal, sign: f64) -> AffineVal {
    let b = scale(b, sign);
    let term = match (a.term, b.term) {
        (None, t) | (t, None) => t,
        (Some((i, c1)), Some((j, c2))) if i == j => Some((i, c1 + c2)),
        // A sum over two *different* parameters is not representable as
        // a single-parameter affine form. Poison the term; `build_gate`
        // rejects it with a proper diagnostic.
        (Some(_), Some(_)) => Some((usize::MAX, f64::NAN)),
    };
    AffineVal { c: a.c + b.c, term }
}

/// Builds the DAG op for one gate call.
fn build_gate(
    name: &str,
    angles: &[Angle],
    qubits: &[usize],
    line: usize,
) -> Result<DagOp, Qasm3Error> {
    let err = |message: String| Qasm3Error { line, message };
    // Validate affine sanity (mixed-parameter additions poison the term).
    for a in angles {
        if let Angle::Sym { index, coeff, .. } = a {
            if *index == usize::MAX || coeff.is_nan() {
                return Err(err(
                    "angle expressions must be affine in a single parameter".into(),
                ));
            }
        }
    }
    let arity = |n: usize| -> Result<(), Qasm3Error> {
        if qubits.len() != n {
            return Err(err(format!(
                "`{name}` expects {n} qubit operand(s), found {}",
                qubits.len()
            )));
        }
        for (i, q) in qubits.iter().enumerate() {
            if qubits[..i].contains(q) {
                return Err(err(format!("repeated qubit operand in `{name}`")));
            }
        }
        Ok(())
    };
    let nangles = |n: usize| -> Result<(), Qasm3Error> {
        if angles.len() != n {
            return Err(err(format!(
                "`{name}` expects {n} angle(s), found {}",
                angles.len()
            )));
        }
        Ok(())
    };
    let lit = |a: &Angle| -> Result<f64, Qasm3Error> {
        match a {
            Angle::Lit(v) => Ok(*v),
            Angle::Sym { .. } => Err(err(format!(
                "`{name}` does not support symbolic parameters"
            ))),
        }
    };
    let q = |i: usize| qubits[i];
    let op = match name {
        "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" | "sx" => {
            arity(1)?;
            nangles(0)?;
            let g = match name {
                "h" => Gate::H(q(0)),
                "x" => Gate::X(q(0)),
                "y" => Gate::Y(q(0)),
                "z" => Gate::Z(q(0)),
                "s" => Gate::S(q(0)),
                "sdg" => Gate::Sdg(q(0)),
                "t" => Gate::T(q(0)),
                "tdg" => Gate::Tdg(q(0)),
                _ => Gate::Sx(q(0)),
            };
            DagOp::Op(ParamOp::Fixed(g))
        }
        "u" | "U" => {
            arity(1)?;
            nangles(3)?;
            DagOp::Op(ParamOp::Fixed(Gate::U(
                q(0),
                lit(&angles[0])?,
                lit(&angles[1])?,
                lit(&angles[2])?,
            )))
        }
        "cx" | "CX" | "cy" | "cz" | "swap" => {
            arity(2)?;
            nangles(0)?;
            let g = match name {
                "cy" => Gate::Cy(q(0), q(1)),
                "cz" => Gate::Cz(q(0), q(1)),
                "swap" => Gate::Swap(q(0), q(1)),
                _ => Gate::Cx(q(0), q(1)),
            };
            DagOp::Op(ParamOp::Fixed(g))
        }
        "ccx" => {
            arity(3)?;
            nangles(0)?;
            DagOp::Op(ParamOp::Fixed(Gate::Ccx(q(0), q(1), q(2))))
        }
        _ => {
            let kind = match name {
                "phase" => RotKind::Phase,
                "cphase" => RotKind::Cp,
                _ => {
                    RotKind::named(name).ok_or_else(|| err(format!("unsupported gate `{name}`")))?
                }
            };
            arity(kind.arity())?;
            nangles(1)?;
            let r = Rotation::new(kind, qubits, angles[0])
                .ok_or_else(|| err(format!("`{name}` does not support symbolic parameters")))?;
            // A literal angle becomes the fixed gate on `DagCircuit::push`.
            DagOp::Op(ParamOp::Rot(r))
        }
    };
    Ok(op)
}

// ---------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------

/// Emits a DAG as canonical OpenQASM 3, using `params` for symbolic
/// angle names (falls back to `theta{k}` for missing or colliding
/// names). Fails when the DAG contains an opaque unitary block, which
/// has no QASM3 spelling.
pub fn emit(dag: &DagCircuit, params: &[String]) -> Result<String, Qasm3Error> {
    let n_params = dag.num_params();
    let names: Vec<String> = (0..n_params)
        .map(|k| {
            let candidate = params.get(k).cloned().unwrap_or_default();
            let reserved = matches!(
                candidate.as_str(),
                "" | "q" | "c" | "pi" | "π" | "tau" | "euler" | "measure" | "barrier"
            );
            let well_formed = candidate.chars().next().is_some_and(is_ident_start)
                && candidate.chars().all(is_ident_char);
            if reserved || !well_formed {
                format!("theta{k}")
            } else {
                candidate
            }
        })
        .collect();
    let mut out = String::from("OPENQASM 3.0;\ninclude \"stdgates.inc\";\n");
    for name in &names {
        out.push_str(&format!("input float[64] {name};\n"));
    }
    out.push_str(&format!("qubit[{}] q;\n", dag.num_qubits()));
    if dag.num_clbits() > 0 {
        out.push_str(&format!("bit[{}] c;\n", dag.num_clbits()));
    }
    for op in dag.linearize() {
        emit_op(&mut out, op, &names)?;
    }
    Ok(out)
}

fn write_angle(out: &mut String, a: &Angle, names: &[String]) -> std::fmt::Result {
    use std::fmt::Write;
    match *a {
        Angle::Lit(v) => write!(out, "{v:e}"),
        Angle::Sym {
            index,
            coeff,
            offset,
        } => {
            let name = &names[index];
            match (coeff, offset) {
                (1.0, 0.0) => write!(out, "{name}"),
                (c, 0.0) => write!(out, "{c:e}*{name}"),
                (1.0, o) => write!(out, "{name} + {o:e}"),
                (c, o) => write!(out, "{c:e}*{name} + {o:e}"),
            }
        }
    }
}

/// Writes ` q[a], q[b], …;` and ends the line.
fn write_operands(out: &mut String, qubits: &[usize]) -> std::fmt::Result {
    use std::fmt::Write;
    out.push(' ');
    for (i, q) in qubits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "q[{q}]")?;
    }
    out.write_str(";\n")
}

fn emit_op(out: &mut String, op: &DagOp, names: &[String]) -> Result<(), Qasm3Error> {
    use std::fmt::Write;
    let rotation = match op {
        DagOp::Op(p) => Rotation::of(p),
        DagOp::Barrier(_) => None,
    };
    match (op, rotation) {
        (_, Some(r)) => write!(out, "{}(", r.kind().name())
            .and_then(|()| write_angle(out, &r.angle(), names))
            .and_then(|()| out.write_char(')'))
            .and_then(|()| write_operands(out, r.operands())),
        (DagOp::Op(ParamOp::Measure { qubit, clbit }), _) => {
            writeln!(out, "c[{clbit}] = measure q[{qubit}];")
        }
        (DagOp::Barrier(qs), _) => {
            out.push_str("barrier");
            write_operands(out, qs)
        }
        (DagOp::Op(ParamOp::Fixed(Gate::U(q, t, p, l))), _) => {
            writeln!(out, "u({t:e}, {p:e}, {l:e}) q[{q}];")
        }
        (DagOp::Op(ParamOp::Fixed(Gate::Unitary { label, .. })), _) => {
            return Err(Qasm3Error {
                line: 0,
                message: format!("opaque unitary block `{label}` has no OpenQASM 3 spelling"),
            })
        }
        (DagOp::Op(ParamOp::Fixed(g)), _) => {
            out.push_str(g.name());
            write_operands(out, &g.operands())
        }
        (DagOp::Op(ParamOp::Rot(_)), None) => unreachable!("a `Rot` op is a rotation"),
    }
    .expect("writing to String cannot fail");
    Ok(())
}

/// The canonical QASM3 text of a program: `emit(parse(src))`. Formatting
/// and comments normalize away; parse errors surface.
pub fn canonical_qasm3(src: &str) -> Result<String, Qasm3Error> {
    let parsed = parse(src)?;
    emit(&parsed.dag, &parsed.params)
}

// ---------------------------------------------------------------------
// stdgates lowering
// ---------------------------------------------------------------------

/// Rewrites the `rzz`/`rxx`/`ryy` extension gates onto the strict
/// `stdgates.inc` set (`rzz(θ) a,b` → `cx a,b; rz(θ) b; cx a,b`, with
/// basis-change conjugation for the X/Y variants). Used when exporting
/// for consumers without the extension — and by the compiler benchmark,
/// whose O2 pipeline recognizes the decompositions right back.
pub fn lower_to_stdgates(dag: &DagCircuit) -> DagCircuit {
    use std::f64::consts::FRAC_PI_2;
    let mut out = DagCircuit::new(dag.num_qubits(), dag.num_clbits());
    out.name = dag.name.clone();
    let fixed = |g: Gate| DagOp::Op(ParamOp::Fixed(g));
    for op in dag.linearize() {
        let two_body = match op {
            DagOp::Op(p) => Rotation::of(p)
                .filter(|r| matches!(r.kind(), RotKind::Rzz | RotKind::Rxx | RotKind::Ryy)),
            DagOp::Barrier(_) => None,
        };
        let Some(r) = two_body else {
            out.push(op.clone());
            continue;
        };
        let [a, b] = [r.operands()[0], r.operands()[1]];
        // The basis change onto Z and back: H for X, Rx(±π/2) for Y.
        let basis = |q: usize, into: bool| match r.kind() {
            RotKind::Rxx => Some(Gate::H(q)),
            RotKind::Ryy => Some(Gate::Rx(q, if into { FRAC_PI_2 } else { -FRAC_PI_2 })),
            _ => None,
        };
        for g in [basis(a, true), basis(b, true)].into_iter().flatten() {
            out.push(fixed(g));
        }
        out.push(fixed(Gate::Cx(a, b)));
        out.push(DagOp::Op(ParamOp::Rot(
            Rotation::new(RotKind::Rz, &[b], r.angle()).expect("rz takes any angle"),
        )));
        out.push(fixed(Gate::Cx(a, b)));
        for g in [basis(a, false), basis(b, false)].into_iter().flatten() {
            out.push(fixed(g));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::Circuit;

    const GHZ: &str = r#"
        OPENQASM 3.0;
        include "stdgates.inc";
        qubit[3] q;
        bit[3] c;
        h q[0];
        cx q[0], q[1];
        cx q[1], q[2];
        c = measure q;
    "#;

    #[test]
    fn parses_ghz() {
        let parsed = parse(GHZ).unwrap();
        assert_eq!(parsed.dag.num_qubits(), 3);
        assert_eq!(parsed.dag.num_clbits(), 3);
        assert_eq!(parsed.dag.len(), 6);
        let qc = parsed.dag.to_circuit().unwrap();
        let mut expect = Circuit::with_clbits(3, 3);
        expect.h(0).cx(0, 1).cx(1, 2).measure_all();
        expect.name = String::new();
        assert_eq!(qc.ops(), expect.ops());
    }

    #[test]
    fn emit_parse_is_fixed_point() {
        let parsed = parse(GHZ).unwrap();
        let text = emit(&parsed.dag, &parsed.params).unwrap();
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed.dag, parsed.dag);
        let text2 = emit(&reparsed.dag, &reparsed.params).unwrap();
        assert_eq!(text, text2);
    }

    #[test]
    fn symbolic_parameters_round_trip() {
        let src = r#"
            OPENQASM 3;
            input float[64] gamma;
            input float[64] beta;
            qubit[2] q;
            rzz(2*gamma) q[0], q[1];
            rx(2*beta - pi/4) q[0];
            p(gamma) q[1];
        "#;
        let parsed = parse(src).unwrap();
        assert_eq!(parsed.params, vec!["gamma", "beta"]);
        assert_eq!(parsed.dag.num_params(), 2);
        let text = emit(&parsed.dag, &parsed.params).unwrap();
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed.dag, parsed.dag);
        assert_eq!(reparsed.params, parsed.params);
    }

    #[test]
    fn angle_expressions_evaluate() {
        let src = "OPENQASM 3; qubit[1] q; rx(pi/2) q[0]; rz(-(1 + 2) * 0.5) q[0];";
        let parsed = parse(src).unwrap();
        let qc = parsed.dag.to_circuit().unwrap();
        let gates: Vec<_> = qc.gates().cloned().collect();
        assert_eq!(
            gates,
            vec![Gate::Rx(0, std::f64::consts::FRAC_PI_2), Gate::Rz(0, -1.5)]
        );
    }

    #[test]
    fn both_measure_forms_agree() {
        let a = parse("OPENQASM 3; qubit[2] q; bit[2] c; h q[0]; c[1] = measure q[0];").unwrap();
        let b = parse("OPENQASM 3; qubit[2] q; bit[2] c; h q[0]; measure q[0] -> c[1];").unwrap();
        assert_eq!(a.dag, b.dag);
    }

    #[test]
    fn broadcast_applies_per_element() {
        let parsed = parse("OPENQASM 3; qubit[3] q; h q; rz(0.5) q;").unwrap();
        assert_eq!(parsed.dag.len(), 6);
    }

    #[test]
    fn canonical_text_ignores_formatting() {
        let a = "OPENQASM 3;\nqubit[2] q;\nh q[0];\ncx q[0], q[1];\n";
        let b = "// a comment\nOPENQASM   3.0;   qubit [ 2 ] q ;\n  h q[ 0 ]; /* block */ cx q[0],q[1];";
        assert_eq!(canonical_qasm3(a).unwrap(), canonical_qasm3(b).unwrap());
        let c = "OPENQASM 3;\nqubit[2] q;\nh q[1];\ncx q[0], q[1];\n";
        assert_ne!(canonical_qasm3(a).unwrap(), canonical_qasm3(c).unwrap());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("OPENQASM 3;\nqubit[2] q;\nbadgate q[0];\n").unwrap_err();
        assert_eq!(err.line, 3);
        let err = parse("OPENQASM 3;\nqubit[2] q;\nh q[5];\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(parse("qubit[2] q; h q[0];").is_err(), "missing version");
    }

    #[test]
    fn rejects_non_affine_angles() {
        let src = "OPENQASM 3; input float a; input float b; qubit[1] q; rx(a*b) q[0];";
        assert!(parse(src).is_err());
        let src = "OPENQASM 3; input float a; qubit[1] q; rx(a*a) q[0];";
        assert!(parse(src).is_err());
    }

    #[test]
    fn lower_to_stdgates_removes_extension_gates() {
        let src =
            "OPENQASM 3; input float g; qubit[2] q; rzz(2*g) q[0], q[1]; rxx(0.5) q[0], q[1];";
        let parsed = parse(src).unwrap();
        let lowered = lower_to_stdgates(&parsed.dag);
        let text = emit(&lowered, &parsed.params).unwrap();
        assert!(!text.contains("rzz"));
        assert!(!text.contains("rxx"));
        // Still parses, still symbolic.
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed.dag.num_params(), 1);
    }

    #[test]
    fn sniffs_qasm3() {
        assert!(is_qasm3(GHZ));
        assert!(is_qasm3("// c\n/* b */ OPENQASM 3;"));
        assert!(!is_qasm3("qfwasm 1\nqubits 2\nh 0\n"));
    }
}
