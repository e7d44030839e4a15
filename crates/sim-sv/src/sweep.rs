//! Compile-once / bind-many sweep execution for parameterized circuits.
//!
//! A [`SweepPlan`] is the compiled form of a [`ParamCircuit`]: the circuit
//! skeleton is walked once, its static prefix is simulated once into a
//! cached state, and the remaining ops are grouped into *slots* whose
//! parameter dependence is kept symbolic. Binding a parameter vector then
//! patches only the slot tables — no transpile, no re-fusion, no prefix
//! re-simulation — so a k-point sweep (or a variational optimizer loop)
//! pays the compile cost exactly once.
//!
//! Slot forms, mirroring the tiered fuser's grouping decisions:
//!
//! * **Diag** — a run of mutually commuting diagonal gates (rz/p/rzz/cp/crz
//!   and their fixed cousins z/s/t/cz...). Every such gate with angle `phi`
//!   contributes `phi * (c + sum_q l_q s_q + sum_ab k_ab s_a s_b)` to the
//!   per-basis phase, where `s_q = +1/-1` is the Z eigenvalue of bit `q`.
//!   The quadratic form is collapsed at compile time into `O(k^2)` scalar
//!   coefficients per parameter (constant, per-spin, per-pair); binding
//!   collapses the scalars (`base + sum theta_p * F_p`), takes
//!   `1 + k + k(k-1)/2` sincos values, and hands the resulting
//!   [`DiagForm`] to the shared diagonal kernels, which rebuild each
//!   cache-sized tile's phase table by doubling (`~2` complex multiplies
//!   per entry — no per-entry sincos) and multiply it onto the tile.
//! * **Layer1q** — concurrent chains of non-diagonal 1q gates. Binding
//!   multiplies each chain into one 2x2 matrix and applies it with the
//!   shared shape-specialized butterfly.
//! * **Generic** — everything else, applied through the dense
//!   [`StateVector`] kernels gate by gate.
//!
//! The state between slots lives in planar (structure-of-arrays) form,
//! the layout of [`crate::kernels`]: the sweep hands those kernels its
//! whole planes where the concrete executor hands them gathered tiles.
//!
//! Gradients use the exact two-point parameter-shift rule: every rotation
//! in the [`ParamOp`] gate set has a gap-1 generator spectrum, so
//! `dE/d(angle) = [E(angle + pi/2) - E(angle - pi/2)] / 2` exactly, and the
//! chain rule multiplies each occurrence's contribution by its affine
//! coefficient. Shifts are applied per *occurrence* (op index), not per
//! parameter, which the slot tables support without recompilation.

use crate::engine::{SvConfig, SvOutcome, SvSimulator, Threading};
use crate::fusion::{fuse, mat2_of, FusionLevel};
use crate::kernels::{self, mat2_mul, tri, DiagForm, IsaTier, PhaseForm, Shape1q, TileMap, TILE_BITS};
use crate::state::{canonical_split_bits, sample_counts_split_probs, StateVector};
use qfw_circuit::{Angle, Circuit, Gate, ParamCircuit, ParamOp};
use qfw_num::complex::C64;
use qfw_obs::Obs;
use rayon::ParallelSliceMut;
use std::collections::{BTreeMap, BTreeSet};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
use std::fmt;

/// One point of a parameter sweep: a binding plus its sampling request.
/// Per-point shots/seeds let the scheduler coalesce jobs that agree on the
/// skeleton but not on shot counts.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Parameter vector bound to the skeleton's `theta[i]` slots.
    pub params: Vec<f64>,
    /// Number of measurement shots for this binding.
    pub shots: usize,
    /// Sampling seed for this binding (bitwise-reproducible counts).
    pub seed: u64,
}

/// Why a skeleton cannot be compiled into a sweep plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepError {
    /// A measurement is followed by a gate on the same qubit; the sweep
    /// executor only serves terminal measurements (callers fall back to
    /// per-binding trajectory execution).
    MidCircuitMeasure {
        /// Index of the offending measure op in the skeleton.
        op_index: usize,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::MidCircuitMeasure { op_index } => write!(
                f,
                "skeleton has a mid-circuit measurement at op {op_index}; \
                 sweep execution serves terminal measurements only"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

// --- planar state -----------------------------------------------------------

/// Structure-of-arrays state: split real/imaginary planes. The split is
/// what allows the cis and butterfly kernels below to autovectorize.
#[derive(Clone, Debug)]
struct Planar {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Planar {
    fn from_state(sv: &StateVector) -> Planar {
        Planar {
            re: sv.amps().iter().map(|a| a.re).collect(),
            im: sv.amps().iter().map(|a| a.im).collect(),
        }
    }

    fn to_state(&self) -> StateVector {
        StateVector::from_amps(
            self.re
                .iter()
                .zip(self.im.iter())
                .map(|(&r, &i)| C64::new(r, i))
                .collect(),
        )
    }

    fn probabilities(&self) -> Vec<f64> {
        self.re
            .iter()
            .zip(self.im.iter())
            .map(|(&r, &i)| r * r + i * i)
            .collect()
    }

    fn probabilities_into(&self, out: &mut [f64]) {
        for ((o, &r), &i) in out.iter_mut().zip(self.re.iter()).zip(self.im.iter()) {
            *o = r * r + i * i;
        }
    }
}

/// Reusable per-point evaluation buffers; see [`SweepPlan::scratch`].
struct SweepScratch {
    /// Working state, re-seeded from the prefix each evaluation.
    st: Planar,
    /// One tile's phase form and table planes for the diagonal slots.
    local: PhaseForm,
    pre: Vec<f64>,
    pim: Vec<f64>,
    /// Probability table for sampling/expectations.
    probs: Vec<f64>,
}

// --- vectorized cis kernel --------------------------------------------------

/// Branchless `(cos x, sin x)` over a slice, writing split planes.
///
/// fdlibm's polynomial kernels with a 3-term Cody-Waite reduction, but the
/// quadrant index comes from the classic magic-number trick (`x + 2^52 +
/// 2^51` rounds-to-nearest in the mantissa) instead of `round()`, which
/// needs SSE4.1 and blocks autovectorization on the baseline x86-64
/// target. Max observed error vs libm is ~1 ulp over the +-1e6 range —
/// far beyond any angle a circuit produces.
#[allow(clippy::excessive_precision, clippy::approx_constant)] // fdlibm constants, verbatim
fn cis_slice(xs: &[f64], out_re: &mut [f64], out_im: &mut [f64]) {
    const INV_PIO2: f64 = 6.36619772367581382433e-01;
    const MAGIC: f64 = 6755399441055744.0; // 2^52 + 2^51
    const PIO2_1: f64 = 1.57079632673412561417e+00;
    const PIO2_1T: f64 = 6.07710050650619224932e-11;
    const PIO2_2T: f64 = 2.02226624879595063154e-21;
    const S1: f64 = -1.66666666666666324348e-01;
    const S2: f64 = 8.33333333332248946124e-03;
    const S3: f64 = -1.98412698298579493134e-04;
    const S4: f64 = 2.75573137070700676789e-06;
    const S5: f64 = -2.50507602534068634195e-08;
    const S6: f64 = 1.58969099521155010221e-10;
    const C1: f64 = 4.16666666666666019037e-02;
    const C2: f64 = -1.38888888888741095749e-03;
    const C3: f64 = 2.48015872894767294178e-05;
    const C4: f64 = -2.75573143513906633035e-07;
    const C5: f64 = 2.08757232129817482790e-09;
    const C6: f64 = -1.13596475577881948265e-11;
    for ((x, or), oi) in xs.iter().zip(out_re.iter_mut()).zip(out_im.iter_mut()) {
        let t = *x;
        let j = t * INV_PIO2 + MAGIC;
        let kf = j - MAGIC;
        let kb = j.to_bits();
        let r = t - kf * PIO2_1 - kf * PIO2_1T - kf * PIO2_2T;
        let z = r * r;
        let sp = r + r * z * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))));
        let cp =
            1.0 - 0.5 * z + z * z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
        // Quadrant selection, branchless: bit 0 swaps sin/cos, bit 1 flips
        // the sign of sin, bits 0^1 the sign of cos.
        let sw = (kb & 1) as f64;
        let nsw = 1.0 - sw;
        let sgn_s = 1.0 - (((kb >> 1) & 1) << 1) as f64;
        let sgn_c = sgn_s * (1.0 - 2.0 * sw);
        *oi = sgn_s * (sp * nsw + cp * sw);
        *or = sgn_c * (cp * nsw + sp * sw);
    }
}

// --- slots ------------------------------------------------------------------

/// Where a diagonal gate's phase lands in the slot's quadratic form:
/// `angle * (constant + sum linear_q s_q + sum quad_ab s_a s_b)` with
/// `s_q = (-1)^{bit q}`, qubit indices local to the slot.
#[derive(Clone, Debug)]
struct DiagTerm {
    constant: f64,
    linear: Vec<(usize, f64)>,
    quad: Vec<(usize, usize, f64)>,
}

impl DiagTerm {
    /// Adds `w * term` into the slot's collapsed quadratic form — scalar
    /// coefficient arithmetic only, never a `2^k` table walk.
    fn accumulate_form(&self, form: &mut QuadForm, w: f64) {
        if w == 0.0 {
            return;
        }
        form.c0 += w * self.constant;
        for &(q, lw) in &self.linear {
            form.lin[q] += w * lw;
        }
        for &(a, b, qw) in &self.quad {
            let (hi, lo) = if a > b { (a, b) } else { (b, a) };
            form.quad[tri(hi, lo)] += w * qw;
        }
    }
}

/// A degree-2 multilinear form over the slot's spin variables
/// `s_q = (-1)^{bit q}`: `c0 + sum_q lin[q] s_q + sum_{a>b} quad[tri(a,b)]
/// s_a s_b`. The slot keeps one of these per parameter instead of a `2^k`
/// angle table — `O(k^2)` scalars that collapse per binding before the
/// phase table is rebuilt by doubling.
#[derive(Clone, Debug)]
struct QuadForm {
    c0: f64,
    /// Per-spin coefficient, indexed by local qubit; len `k`.
    lin: Vec<f64>,
    /// Pair coefficients, upper-triangular flat; len `k(k-1)/2`.
    quad: Vec<f64>,
}

impl QuadForm {
    fn zero(k: usize) -> QuadForm {
        QuadForm {
            c0: 0.0,
            lin: vec![0.0; k],
            quad: vec![0.0; k * (k - 1) / 2],
        }
    }

    /// `self += w * other`.
    fn add_scaled(&mut self, other: &QuadForm, w: f64) {
        self.c0 += w * other.c0;
        for (d, s) in self.lin.iter_mut().zip(other.lin.iter()) {
            *d += w * s;
        }
        for (d, s) in self.quad.iter_mut().zip(other.quad.iter()) {
            *d += w * s;
        }
    }

    /// Symmetric pair lookup (`a != b`, either order).
    #[inline]
    fn pair(&self, a: usize, b: usize) -> f64 {
        if a > b {
            self.quad[tri(a, b)]
        } else {
            self.quad[tri(b, a)]
        }
    }
}

/// Adds `v * (-1)^{parity(i)}` into each entry, walking blocks over which
/// `parity` is constant (the caller's parity depends only on bits >= the
/// lowest stride, so the smallest block is the lowest involved stride).
fn sign_pass(dst: &mut [f64], v: f64, parity: impl Fn(usize) -> usize) {
    // Find the largest stride below which parity cannot change: the
    // lowest bit the parity function reads. Probe with single-bit flips.
    let mut block = dst.len();
    let mut bit = 0usize;
    while (1usize << bit) < dst.len() {
        if parity(0) != parity(1usize << bit) {
            block = 1usize << bit;
            break;
        }
        bit += 1;
    }
    let mut i = 0usize;
    while i < dst.len() {
        let s = if parity(i) == 0 { v } else { -v };
        for d in &mut dst[i..i + block] {
            *d += s;
        }
        i += block;
    }
}

/// The diagonal gate shapes the quadratic form covers, in global qubits.
#[derive(Clone, Copy, Debug)]
enum DiagKind {
    /// `diag(e^{-i phi/2}, e^{+i phi/2})`: `-1/2 s_q`.
    Rz(usize),
    /// `diag(1, e^{i phi})`: `1/2 - 1/2 s_q`.
    Phase(usize),
    /// `e^{-i phi/2 Z Z}`: `-1/2 s_a s_b`.
    Rzz(usize, usize),
    /// `diag(1,1,1,e^{i phi})`: `1/4 (1 - s_c - s_t + s_c s_t)`.
    Cp(usize, usize),
    /// Controlled Rz: `-1/4 s_t + 1/4 s_c s_t`.
    Crz(usize, usize),
}

impl DiagKind {
    fn qubits(&self) -> Vec<usize> {
        match *self {
            DiagKind::Rz(q) | DiagKind::Phase(q) => vec![q],
            DiagKind::Rzz(a, b) | DiagKind::Cp(a, b) | DiagKind::Crz(a, b) => vec![a, b],
        }
    }

    /// The term over slot-local qubit indices given a global->local map.
    fn term(&self, local: impl Fn(usize) -> usize) -> DiagTerm {
        match *self {
            DiagKind::Rz(q) => DiagTerm {
                constant: 0.0,
                linear: vec![(local(q), -0.5)],
                quad: vec![],
            },
            DiagKind::Phase(q) => DiagTerm {
                constant: 0.5,
                linear: vec![(local(q), -0.5)],
                quad: vec![],
            },
            DiagKind::Rzz(a, b) => DiagTerm {
                constant: 0.0,
                linear: vec![],
                quad: vec![(local(a), local(b), -0.5)],
            },
            DiagKind::Cp(c, t) => DiagTerm {
                constant: 0.25,
                linear: vec![(local(c), -0.25), (local(t), -0.25)],
                quad: vec![(local(c), local(t), 0.25)],
            },
            DiagKind::Crz(c, t) => DiagTerm {
                constant: 0.0,
                linear: vec![(local(t), -0.25)],
                quad: vec![(local(c), local(t), 0.25)],
            },
        }
    }
}

/// Maps an op onto the diagonal quadratic form, if it has one.
fn diag_of(op: &ParamOp) -> Option<(DiagKind, Angle)> {
    match op {
        ParamOp::Rz(q, a) => Some((DiagKind::Rz(*q), *a)),
        ParamOp::Phase(q, a) => Some((DiagKind::Phase(*q), *a)),
        ParamOp::Rzz(a, b, ang) => Some((DiagKind::Rzz(*a, *b), *ang)),
        ParamOp::Cp(c, t, ang) => Some((DiagKind::Cp(*c, *t), *ang)),
        ParamOp::Fixed(g) => match g {
            Gate::Z(q) => Some((DiagKind::Phase(*q), Angle::Lit(PI))),
            Gate::S(q) => Some((DiagKind::Phase(*q), Angle::Lit(FRAC_PI_2))),
            Gate::Sdg(q) => Some((DiagKind::Phase(*q), Angle::Lit(-FRAC_PI_2))),
            Gate::T(q) => Some((DiagKind::Phase(*q), Angle::Lit(FRAC_PI_4))),
            Gate::Tdg(q) => Some((DiagKind::Phase(*q), Angle::Lit(-FRAC_PI_4))),
            Gate::Rz(q, v) => Some((DiagKind::Rz(*q), Angle::Lit(*v))),
            Gate::Phase(q, v) => Some((DiagKind::Phase(*q), Angle::Lit(*v))),
            Gate::Cz(a, b) => Some((DiagKind::Cp(*a, *b), Angle::Lit(PI))),
            Gate::Cp(c, t, v) => Some((DiagKind::Cp(*c, *t), Angle::Lit(*v))),
            Gate::Crz(c, t, v) => Some((DiagKind::Crz(*c, *t), Angle::Lit(*v))),
            Gate::Rzz(a, b, v) => Some((DiagKind::Rzz(*a, *b), Angle::Lit(*v))),
            _ => None,
        },
        _ => None,
    }
}

/// The qubit of a non-diagonal 1q op, if it is one.
fn oneq_of(op: &ParamOp) -> Option<usize> {
    match op {
        ParamOp::Rx(q, _) | ParamOp::Ry(q, _) => Some(*q),
        ParamOp::Rz(q, _) | ParamOp::Phase(q, _) => Some(*q),
        ParamOp::Fixed(g) if g.arity() == 1 => Some(g.qubits()[0]),
        _ => None,
    }
}

/// The symbolic angle of an op, if parameterized.
fn angle_of(op: &ParamOp) -> Option<Angle> {
    match op {
        ParamOp::Rx(_, a)
        | ParamOp::Ry(_, a)
        | ParamOp::Rz(_, a)
        | ParamOp::Phase(_, a)
        | ParamOp::Rzz(_, _, a)
        | ParamOp::Rxx(_, _, a)
        | ParamOp::Cp(_, _, a) => Some(*a),
        _ => None,
    }
}

/// A compiled diagonal run: one constant quadratic form, one form per
/// parameter, and the sparse per-op terms kept for gradient shifts.
#[derive(Clone, Debug)]
struct DiagSlot {
    /// Slot qubits, ascending global indices.
    qubits: Vec<usize>,
    /// Constant coefficients (literal angles + affine offsets).
    base: QuadForm,
    /// `(param index, form)`: bind-time `base + sum theta_p * F_p`.
    per_param: Vec<(usize, QuadForm)>,
    /// `(op index, raw term)` for occurrence-level gradient shifts.
    sources: Vec<(usize, DiagTerm)>,
}

impl DiagSlot {
    /// Collapses the coefficient forms for a binding (+ occurrence shifts)
    /// into the multiplicative [`DiagForm`] the shared kernels apply.
    ///
    /// `phi` is a degree-2 multilinear form over the spin variables, so
    /// flipping local bit `q` multiplies the phase by `cis(a_q)` and, per
    /// lower set bit `j`, by `cis(4 quad[q][j])`: `1 + k + k(k-1)/2` scalar
    /// sincos evaluations describe the whole `2^k` phase table.
    fn bind(&self, params: &[f64], shifts: &[(usize, f64)]) -> DiagForm {
        let k = self.qubits.len();

        // Collapse `O(k^2)` scalar coefficients for this binding.
        let mut form = self.base.clone();
        for (p, pf) in &self.per_param {
            form.add_scaled(pf, params[*p]);
        }
        for &(op, delta) in shifts {
            if let Some((_, term)) = self.sources.iter().find(|(i, _)| *i == op) {
                term.accumulate_form(&mut form, delta);
            }
        }

        // Angle set for one vectorized cis pass: phi(0) (all spins +1),
        // the per-bit flip deltas `a_q`, then the pair corrections
        // `4 quad[q][j]`.
        let m = 1 + k + k * (k - 1) / 2;
        let mut ang = vec![0.0f64; m];
        ang[0] = form.c0 + form.lin.iter().sum::<f64>() + form.quad.iter().sum::<f64>();
        for q in 0..k {
            let cross: f64 = (0..k).filter(|&j| j != q).map(|j| form.pair(q, j)).sum();
            ang[1 + q] = -2.0 * (form.lin[q] + cross);
        }
        for (g, &qv) in ang[1 + k..].iter_mut().zip(form.quad.iter()) {
            *g = 4.0 * qv;
        }
        let mut fre = vec![0.0f64; m];
        let mut fim = vec![0.0f64; m];
        cis_slice(&ang, &mut fre, &mut fim);
        let phase = |i: usize| C64::new(fre[i], fim[i]);

        let mut pairs = Vec::new();
        for hi in 1..k {
            for lo in 0..hi {
                // Uncoupled pairs bind to exactly 1: leave them out.
                let w = phase(1 + k + tri(hi, lo));
                if w != C64::ONE {
                    pairs.push((self.qubits[lo], self.qubits[hi], w));
                }
            }
        }
        DiagForm {
            p0: phase(0),
            flips: (0..k).map(|q| (self.qubits[q], phase(1 + q))).collect(),
            pairs,
        }
    }
}

/// Multiplies the whole planar register by `form`, one contiguous
/// cache-sized tile at a time: localize, build the tile's table, multiply.
fn apply_diag_form(tier: IsaTier, tile: &TileMap, form: &DiagForm, sc: &mut SweepScratch) {
    let SweepScratch {
        st,
        local,
        pre,
        pim,
        ..
    } = sc;
    let len = 1usize << tile.qubits().len();
    for (t, (re, im)) in st
        .re
        .chunks_exact_mut(len)
        .zip(st.im.chunks_exact_mut(len))
        .enumerate()
    {
        local.localize(form, tile, t * len);
        kernels::phase_table(tier, local, pre, pim);
        kernels::mul_table(tier, re, im, pre, pim);
    }
}

/// A compiled slot of the skeleton body.
#[derive(Clone, Debug)]
enum Slot {
    /// Fused diagonal run.
    Diag(DiagSlot),
    /// Concurrent per-qubit chains of 1q ops (op indices, in order).
    Layer1q(Vec<(usize, Vec<usize>)>),
    /// Ops applied one-by-one through the dense kernels.
    Generic(Vec<usize>),
}

// --- the plan ---------------------------------------------------------------

/// The compiled, bind-many form of a [`ParamCircuit`]. Build with
/// [`SvSimulator::compile_sweep`]; evaluate bindings with [`run`](Self::run)
/// / [`expectation_z`](Self::expectation_z) /
/// [`grad_expectation_z`](Self::grad_expectation_z).
#[derive(Clone, Debug)]
pub struct SweepPlan {
    num_qubits: usize,
    num_params: usize,
    parallel: bool,
    /// Static prefix state (the ops before the first symbolic op), fused
    /// and simulated once at compile time.
    prefix: Planar,
    slots: Vec<Slot>,
    /// Skeleton body ops, indexed by the slots.
    ops: Vec<ParamOp>,
    /// Terminal `(qubit, clbit)` pairs, in skeleton order.
    measured: Vec<(usize, usize)>,
    /// `(op index, param index, affine coeff)` for every symbolic
    /// occurrence — the gradient work list.
    sym_ops: Vec<(usize, usize, f64)>,
    /// The contiguous low-qubit tile the diagonal slots are applied by.
    tile: TileMap,
    /// Gates a single binding applies (for [`SvOutcome::gates_applied`]).
    applied_per_run: usize,
}

impl SweepPlan {
    /// Compiles a skeleton under an engine configuration. Fails only for
    /// mid-circuit measurements, which need per-binding trajectories.
    pub fn compile(template: &ParamCircuit, config: &SvConfig) -> Result<SweepPlan, SweepError> {
        let n = template.num_qubits();
        let ops: Vec<ParamOp> = template.ops().to_vec();

        // Terminal-measurement check, mirroring the engine: a measurement
        // is terminal iff no later op gates the measured qubit.
        let mut last_gate_touch = vec![0usize; n.max(1)];
        for (pos, op) in ops.iter().enumerate() {
            let qs: Vec<usize> = match op {
                ParamOp::Rx(q, _)
                | ParamOp::Ry(q, _)
                | ParamOp::Rz(q, _)
                | ParamOp::Phase(q, _) => vec![*q],
                ParamOp::Rzz(a, b, _) | ParamOp::Rxx(a, b, _) | ParamOp::Cp(a, b, _) => {
                    vec![*a, *b]
                }
                ParamOp::Fixed(g) => g.qubits(),
                ParamOp::Measure { .. } => vec![],
            };
            for q in qs {
                last_gate_touch[q] = pos;
            }
        }
        let mut measured = Vec::new();
        for (pos, op) in ops.iter().enumerate() {
            if let ParamOp::Measure { qubit, clbit } = op {
                if pos > last_gate_touch[*qubit] {
                    measured.push((*qubit, *clbit));
                } else {
                    return Err(SweepError::MidCircuitMeasure { op_index: pos });
                }
            }
        }

        // Static prefix: leading concrete ops, fused + simulated once.
        let mut body_start = 0usize;
        let mut prefix_circuit = Circuit::new(n);
        for op in &ops {
            let concrete = match op {
                ParamOp::Measure { .. } => None,
                ParamOp::Fixed(g) => Some(g.clone()),
                other => match angle_of(other) {
                    Some(Angle::Lit(_)) | None => Some(bind_body_op(other, &[], 0.0)),
                    Some(Angle::Sym { .. }) => None,
                },
            };
            match concrete {
                Some(g) => {
                    prefix_circuit.push(g);
                    body_start += 1;
                }
                None => break,
            }
        }
        let parallel = config.threading == Threading::Rayon;
        let mut sv = StateVector::zero(n);
        let prefix_gates = match config.fusion {
            FusionLevel::None => {
                sv.run_unitary(&prefix_circuit, parallel);
                prefix_circuit.num_gates()
            }
            FusionLevel::Full => {
                let fused = fuse(&prefix_circuit);
                fused.apply_unitary(&mut sv, parallel);
                fused.num_layers()
            }
        };
        let prefix = Planar::from_state(&sv);

        // Slot the body: one open builder at a time; an op of a different
        // class flushes it. This mirrors the concrete fuser's grouping
        // (diagonal runs / 1q chains / passthrough); without fusion every
        // op is passthrough.
        enum Building {
            Idle,
            Diag(BTreeSet<usize>, Vec<(usize, DiagKind, Angle)>),
            Layer(Vec<(usize, Vec<usize>)>),
            Gen(Vec<usize>),
        }
        let mut slots = Vec::new();
        let mut building = Building::Idle;
        let flush = |building: &mut Building, slots: &mut Vec<Slot>| {
            match std::mem::replace(building, Building::Idle) {
                Building::Idle => {}
                Building::Diag(qubits, items) => {
                    slots.push(Slot::Diag(build_diag_slot(&qubits, &items)));
                }
                Building::Layer(chains) => slots.push(Slot::Layer1q(chains)),
                Building::Gen(idxs) => slots.push(Slot::Generic(idxs)),
            }
        };
        for (pos, op) in ops.iter().enumerate().skip(body_start) {
            if matches!(op, ParamOp::Measure { .. }) {
                continue; // terminal; recorded above
            }
            let diag = if config.fusion == FusionLevel::Full {
                diag_of(op)
            } else {
                None
            };
            if let Some((kind, angle)) = diag {
                let gate_qs = kind.qubits();
                match &mut building {
                    Building::Diag(qubits, items) => {
                        qubits.extend(gate_qs);
                        items.push((pos, kind, angle));
                    }
                    _ => {
                        flush(&mut building, &mut slots);
                        building =
                            Building::Diag(gate_qs.into_iter().collect(), vec![(pos, kind, angle)]);
                    }
                }
            } else if config.fusion == FusionLevel::Full && oneq_of(op).is_some() {
                let q = oneq_of(op).unwrap();
                match &mut building {
                    Building::Layer(chains) => {
                        match chains.iter_mut().find(|(cq, _)| *cq == q) {
                            Some((_, chain)) => chain.push(pos),
                            None => chains.push((q, vec![pos])),
                        }
                    }
                    _ => {
                        flush(&mut building, &mut slots);
                        building = Building::Layer(vec![(q, vec![pos])]);
                    }
                }
            } else {
                match &mut building {
                    Building::Gen(idxs) => idxs.push(pos),
                    _ => {
                        flush(&mut building, &mut slots);
                        building = Building::Gen(vec![pos]);
                    }
                }
            }
        }
        flush(&mut building, &mut slots);

        let sym_ops = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match angle_of(op) {
                Some(Angle::Sym { index, coeff, .. }) => Some((i, index, coeff)),
                _ => None,
            })
            .collect();
        let applied_per_run = prefix_gates
            + slots
                .iter()
                .map(|s| match s {
                    Slot::Diag(_) => 1,
                    Slot::Layer1q(chains) => chains.len(),
                    Slot::Generic(idxs) => idxs.len(),
                })
                .sum::<usize>();

        Ok(SweepPlan {
            num_qubits: n,
            num_params: template.num_params(),
            parallel,
            prefix,
            slots,
            ops,
            measured,
            sym_ops,
            tile: TileMap::new(n, (0..n.min(TILE_BITS)).collect()),
            applied_per_run,
        })
    }

    /// Number of qubits in the compiled skeleton.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of parameters the skeleton references.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Number of compiled slots (for observability attributes).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Allocates the reusable per-point evaluation buffers. One scratch
    /// serves any number of sequential evaluations; sweep loops allocate
    /// it once instead of paying fresh state/phase/probability buffers
    /// per binding.
    fn scratch(&self) -> SweepScratch {
        let tile_bits = self.tile.qubits().len();
        SweepScratch {
            st: self.prefix.clone(),
            local: PhaseForm::identity(tile_bits),
            pre: vec![0.0f64; 1 << tile_bits],
            pim: vec![0.0f64; 1 << tile_bits],
            probs: vec![0.0f64; self.prefix.re.len()],
        }
    }

    /// Binds a parameter vector (plus per-occurrence angle shifts, used by
    /// the gradient path) and evaluates the final state into `sc.st`.
    fn forward_with(&self, params: &[f64], shifts: &[(usize, f64)], sc: &mut SweepScratch) {
        assert!(
            params.len() >= self.num_params,
            "bound {} parameters but the skeleton references {}",
            params.len(),
            self.num_params
        );
        sc.st.re.copy_from_slice(&self.prefix.re);
        sc.st.im.copy_from_slice(&self.prefix.im);
        let tier = IsaTier::detect();
        for slot in &self.slots {
            match slot {
                Slot::Diag(d) => apply_diag_form(tier, &self.tile, &d.bind(params, shifts), sc),
                Slot::Layer1q(chains) => {
                    for (q, chain) in chains {
                        let mut m = [C64::ONE, C64::ZERO, C64::ZERO, C64::ONE];
                        for &idx in chain {
                            let g = bind_body_op(&self.ops[idx], params, shift_for(shifts, idx));
                            m = mat2_mul(&mat2_of(&g), &m);
                        }
                        let (re, im) = (&mut sc.st.re, &mut sc.st.im);
                        kernels::apply_1q(tier, re, im, *q, &m, Shape1q::of(&m));
                    }
                }
                Slot::Generic(idxs) => {
                    let mut sv = sc.st.to_state();
                    for &idx in idxs {
                        let g = bind_body_op(&self.ops[idx], params, shift_for(shifts, idx));
                        sv.apply(&g, self.parallel);
                    }
                    sc.st = Planar::from_state(&sv);
                }
            }
        }
    }

    /// [`forward_with`](Self::forward_with) into a fresh scratch.
    fn forward(&self, params: &[f64], shifts: &[(usize, f64)]) -> Planar {
        let mut sc = self.scratch();
        self.forward_with(params, shifts, &mut sc);
        sc.st
    }

    /// Executes one binding: final-state sampling with the engine's exact
    /// counts semantics (canonical split scheme, clbit projection for
    /// partial measurement).
    pub fn run(&self, point: &SweepPoint) -> SvOutcome {
        self.run_with(point, &mut self.scratch())
    }

    /// [`run`](Self::run) against caller-owned scratch — the sweep loop's
    /// entry point, so consecutive points share every buffer.
    fn run_with(&self, point: &SweepPoint, sc: &mut SweepScratch) -> SvOutcome {
        let sw = qfw_hpc::Stopwatch::start();
        self.forward_with(&point.params, &[], sc);
        let gate_time = sw.elapsed();

        let sw = qfw_hpc::Stopwatch::start();
        let n = self.num_qubits;
        sc.st.probabilities_into(&mut sc.probs);
        let raw = sample_counts_split_probs(
            &sc.probs,
            point.shots,
            point.seed,
            canonical_split_bits(n, 0),
        );
        let counts = if self.measured.is_empty() {
            // Implicit measure-all.
            raw
        } else {
            // Bound circuits carry `num_clbits == num_qubits` (the
            // `ParamCircuit::bind` contract), so the projection width is n.
            let width = n;
            let mut out: BTreeMap<String, usize> = BTreeMap::new();
            for (bitstring, count) in raw {
                let mut bits = vec!['0'; width];
                for &(q, c) in &self.measured {
                    bits[width - 1 - c] = bitstring.as_bytes()[n - 1 - q] as char;
                }
                *out.entry(bits.into_iter().collect()).or_insert(0) += count;
            }
            out
        };
        let sample_time = sw.elapsed();

        SvOutcome {
            counts,
            gate_time,
            sample_time,
            gates_applied: self.applied_per_run,
        }
    }

    /// The final state vector for one binding (unitary part only).
    pub fn statevector(&self, params: &[f64]) -> StateVector {
        self.forward(params, &[]).to_state()
    }

    /// `<psi(theta)| O |psi(theta)>` for a diagonal observable given as
    /// Pauli-Z strings: `O = sum_j w_j Z_{mask_j}`.
    pub fn expectation_z(&self, params: &[f64], terms: &[(usize, f64)]) -> f64 {
        let st = self.forward(params, &[]);
        let tab = z_observable_table(st.re.len(), terms);
        dot(&tab, &st.probabilities())
    }

    /// Exact parameter-shift gradient of [`expectation_z`](Self::expectation_z):
    /// for every symbolic occurrence `g` with angle `a_g * theta_p + b_g`,
    /// `dE/dtheta_p += a_g * [E(angle_g + pi/2) - E(angle_g - pi/2)] / 2`,
    /// evaluated as a sweep of shifted bindings over the compiled plan.
    pub fn grad_expectation_z(&self, params: &[f64], terms: &[(usize, f64)]) -> Vec<f64> {
        let mut grad = vec![0.0f64; self.num_params.max(params.len())];
        let mut shifted: Vec<(f64, f64)> = vec![(0.0, 0.0); self.sym_ops.len()];
        let tab = z_observable_table(self.prefix.re.len(), terms);
        let tab = &tab;
        let eval = |sc: &mut SweepScratch, op_idx: usize| {
            self.forward_with(params, &[(op_idx, FRAC_PI_2)], sc);
            sc.st.probabilities_into(&mut sc.probs);
            let plus = dot(tab, &sc.probs);
            self.forward_with(params, &[(op_idx, -FRAC_PI_2)], sc);
            sc.st.probabilities_into(&mut sc.probs);
            (plus, dot(tab, &sc.probs))
        };
        if self.parallel {
            let sym_ops = &self.sym_ops;
            shifted.par_iter_mut().enumerate().for_each(|(j, out)| {
                let mut sc = self.scratch();
                *out = eval(&mut sc, sym_ops[j].0);
            });
        } else {
            let mut sc = self.scratch();
            for (j, &(op_idx, _, _)) in self.sym_ops.iter().enumerate() {
                shifted[j] = eval(&mut sc, op_idx);
            }
        }
        for (j, &(_, p_idx, coeff)) in self.sym_ops.iter().enumerate() {
            grad[p_idx] += coeff * 0.5 * (shifted[j].0 - shifted[j].1);
        }
        grad
    }
}

/// Dense table of the diagonal observable `sum_j w_j Z_{mask_j}`:
/// `tab[b] = sum_j w_j (-1)^{popcount(b & mask_j)}`. Built once per
/// expectation/gradient call so every (shifted) binding evaluation is a
/// single dot product against its probability table.
fn z_observable_table(dim: usize, terms: &[(usize, f64)]) -> Vec<f64> {
    let mut tab = vec![0.0f64; dim];
    for &(mask, w) in terms {
        sign_pass(&mut tab, w, |i| (i & mask).count_ones() as usize & 1);
    }
    tab
}

/// `sum_b tab[b] p_b`.
fn dot(tab: &[f64], probs: &[f64]) -> f64 {
    tab.iter().zip(probs.iter()).map(|(t, p)| t * p).sum()
}

/// Total angle shift targeting op `idx`.
fn shift_for(shifts: &[(usize, f64)], idx: usize) -> f64 {
    shifts
        .iter()
        .filter(|(i, _)| *i == idx)
        .map(|(_, d)| *d)
        .sum()
}

/// Binds one body op to a concrete gate, adding `extra` to its angle
/// (gradient shifts). `extra` is only ever nonzero for symbolic ops.
fn bind_body_op(op: &ParamOp, params: &[f64], extra: f64) -> Gate {
    match op {
        ParamOp::Rx(q, a) => Gate::Rx(*q, a.bind(params) + extra),
        ParamOp::Ry(q, a) => Gate::Ry(*q, a.bind(params) + extra),
        ParamOp::Rz(q, a) => Gate::Rz(*q, a.bind(params) + extra),
        ParamOp::Phase(q, a) => Gate::Phase(*q, a.bind(params) + extra),
        ParamOp::Rzz(x, y, a) => Gate::Rzz(*x, *y, a.bind(params) + extra),
        ParamOp::Rxx(x, y, a) => Gate::Rxx(*x, *y, a.bind(params) + extra),
        ParamOp::Cp(c, t, a) => Gate::Cp(*c, *t, a.bind(params) + extra),
        ParamOp::Fixed(g) => g.clone(),
        ParamOp::Measure { .. } => unreachable!("measures never reach gate binding"),
    }
}

/// Builds a [`DiagSlot`] from the gates of one diagonal run.
fn build_diag_slot(qubits: &BTreeSet<usize>, items: &[(usize, DiagKind, Angle)]) -> DiagSlot {
    let qs: Vec<usize> = qubits.iter().copied().collect();
    let k = qs.len();
    let local = |g: usize| qs.iter().position(|&q| q == g).expect("qubit in slot");
    let mut base = QuadForm::zero(k);
    let mut per_param: BTreeMap<usize, QuadForm> = BTreeMap::new();
    let mut sources = Vec::with_capacity(items.len());
    for &(idx, kind, angle) in items {
        let term = kind.term(local);
        match angle {
            Angle::Lit(v) => term.accumulate_form(&mut base, v),
            Angle::Sym {
                index,
                coeff,
                offset,
            } => {
                term.accumulate_form(&mut base, offset);
                term.accumulate_form(
                    per_param.entry(index).or_insert_with(|| QuadForm::zero(k)),
                    coeff,
                );
            }
        }
        sources.push((idx, term));
    }
    DiagSlot {
        qubits: qs,
        base,
        per_param: per_param.into_iter().collect(),
        sources,
    }
}

// --- engine facade ----------------------------------------------------------

impl SvSimulator {
    /// Compiles a parameterized skeleton once under this engine's
    /// configuration (fusion tier, sampler, threading).
    pub fn compile_sweep(&self, template: &ParamCircuit) -> Result<SweepPlan, SweepError> {
        SweepPlan::compile(template, &self.config)
    }

    /// Executes every sweep point against one compiled plan. Counts are
    /// per-point seeded exactly like [`run`](Self::run), so a sweep is
    /// bitwise-identical to executing each binding through the same plan
    /// individually.
    pub fn execute_sweep(
        &self,
        template: &ParamCircuit,
        points: &[SweepPoint],
    ) -> Result<Vec<SvOutcome>, SweepError> {
        self.execute_sweep_traced(template, points, &Obs::disabled())
    }

    /// [`execute_sweep`](Self::execute_sweep), reporting `sweep.compile` /
    /// `sweep.run` spans on the `engine` track.
    pub fn execute_sweep_traced(
        &self,
        template: &ParamCircuit,
        points: &[SweepPoint],
        obs: &Obs,
    ) -> Result<Vec<SvOutcome>, SweepError> {
        let mut compile_span = obs
            .span("engine", "sweep.compile")
            .attr("ops_in", template.ops().len())
            .attr("params", template.num_params());
        let plan = self.compile_sweep(template)?;
        compile_span.set_attr("slots", plan.num_slots());
        drop(compile_span);
        Ok(self.run_plan_traced(&plan, points, obs))
    }

    /// Executes sweep points against an already-compiled plan — the entry
    /// point for callers that cache plans across invocations (the QPM's
    /// skeleton cache). Emits the `sweep.run` span only; compilation was
    /// accounted when the plan was built.
    pub fn run_plan_traced(
        &self,
        plan: &SweepPlan,
        points: &[SweepPoint],
        obs: &Obs,
    ) -> Vec<SvOutcome> {
        let run_span = obs
            .span("engine", "sweep.run")
            .attr("points", points.len())
            .attr(
                "shots",
                points.iter().map(|p| p.shots).sum::<usize>(),
            );
        let mut out: Vec<Option<SvOutcome>> = vec![None; points.len()];
        if self.config.threading == Threading::Rayon && points.len() > 1 {
            // Rayon across bindings: each point owns its output slot and
            // its own seeded sampler, so parallel order cannot leak into
            // the counts.
            out.par_iter_mut().enumerate().for_each(|(i, slot)| {
                *slot = Some(plan.run(&points[i]));
            });
        } else {
            let mut sc = plan.scratch();
            for (i, point) in points.iter().enumerate() {
                out[i] = Some(plan.run_with(point, &mut sc));
            }
        }
        drop(run_span);
        out.into_iter().map(|o| o.expect("point executed")).collect()
    }

    /// Runs a parameterized circuit once through the sweep plan when
    /// possible, falling back to bind-and-run for skeletons the plan
    /// cannot serve (mid-circuit measurements). Using the same compiled
    /// path for single executions keeps per-binding counts bitwise
    /// identical to [`execute_sweep`](Self::execute_sweep).
    pub fn run_param(
        &self,
        template: &ParamCircuit,
        params: &[f64],
        shots: usize,
        seed: u64,
    ) -> SvOutcome {
        self.run_param_traced(template, params, shots, seed, &Obs::disabled())
    }

    /// [`run_param`](Self::run_param) with observability spans.
    pub fn run_param_traced(
        &self,
        template: &ParamCircuit,
        params: &[f64],
        shots: usize,
        seed: u64,
        obs: &Obs,
    ) -> SvOutcome {
        match self.execute_sweep_traced(
            template,
            &[SweepPoint {
                params: params.to_vec(),
                shots,
                seed,
            }],
            obs,
        ) {
            Ok(mut outs) => outs.pop().expect("one point"),
            Err(SweepError::MidCircuitMeasure { .. }) => {
                self.run_traced(&template.bind(params), shots, seed, obs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::approx_eq;

    fn plan_for(t: &ParamCircuit, level: FusionLevel) -> SweepPlan {
        SweepPlan::compile(
            t,
            &SvConfig {
                threading: Threading::Serial,
                fusion: level,
            },
        )
        .expect("compiles")
    }

    fn assert_states_close(a: &StateVector, b: &StateVector, tol: f64) {
        assert_eq!(a.amps().len(), b.amps().len());
        for (x, y) in a.amps().iter().zip(b.amps().iter()) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "amplitude mismatch: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn cis_slice_matches_libm() {
        let xs: Vec<f64> = (-4000..4000).map(|i| i as f64 * 0.01).collect();
        let mut re = vec![0.0; xs.len()];
        let mut im = vec![0.0; xs.len()];
        cis_slice(&xs, &mut re, &mut im);
        for (i, &x) in xs.iter().enumerate() {
            let (s, c) = x.sin_cos();
            assert!((re[i] - c).abs() < 1e-14, "cos({x})");
            assert!((im[i] - s).abs() < 1e-14, "sin({x})");
        }
    }

    #[test]
    fn every_diag_gate_shape_matches_dense() {
        // One op per shape, on a 3-qubit register with a non-trivial state.
        let cases: Vec<ParamOp> = vec![
            ParamOp::Rz(1, Angle::sym(0)),
            ParamOp::Phase(2, Angle::scaled(0, 1.3)),
            ParamOp::Rzz(0, 2, Angle::sym(0)),
            ParamOp::Cp(2, 0, Angle::sym(0)),
            ParamOp::Fixed(Gate::Z(0)),
            ParamOp::Fixed(Gate::S(1)),
            ParamOp::Fixed(Gate::Sdg(2)),
            ParamOp::Fixed(Gate::T(0)),
            ParamOp::Fixed(Gate::Tdg(1)),
            ParamOp::Fixed(Gate::Rz(2, 0.41)),
            ParamOp::Fixed(Gate::Phase(0, -0.77)),
            ParamOp::Fixed(Gate::Cz(0, 2)),
            ParamOp::Fixed(Gate::Cp(1, 0, 0.9)),
            ParamOp::Fixed(Gate::Crz(2, 1, -1.1)),
            ParamOp::Fixed(Gate::Rzz(1, 2, 0.63)),
        ];
        for op in cases {
            let mut t = ParamCircuit::new(3);
            for q in 0..3 {
                t.h(q);
                t.fixed(Gate::T(q));
            }
            // A symbolic op first, so the case op lands in the body.
            t.rz(0, Angle::scaled(0, 0.5));
            t.push(op.clone());
            let plan = plan_for(&t, FusionLevel::Full);
            let got = plan.statevector(&[0.37]);
            let want = SvSimulator::plain().statevector(&t.bind(&[0.37]));
            assert_states_close(&got, &want, 1e-12);
        }
    }

    #[test]
    fn butterfly_kernels_match_dense() {
        for gate in [
            Gate::Rx(1, 0.8),
            Gate::Ry(0, -0.4),
            Gate::H(2),
            Gate::Sx(1),
            Gate::U(0, 0.3, 0.9, -0.2),
        ] {
            let mut t = ParamCircuit::new(3);
            for q in 0..3 {
                t.h(q);
            }
            t.rx(2, Angle::sym(0)); // open the body
            t.fixed(gate.clone());
            let plan = plan_for(&t, FusionLevel::Full);
            let got = plan.statevector(&[0.21]);
            let want = SvSimulator::plain().statevector(&t.bind(&[0.21]));
            assert_states_close(&got, &want, 1e-12);
        }
    }

    fn tiny_qaoa(n: usize) -> ParamCircuit {
        let mut t = ParamCircuit::new(n);
        for q in 0..n {
            t.h(q);
        }
        for q in 0..n {
            t.rz(q, Angle::scaled(0, 0.7 + q as f64 * 0.1));
        }
        for q in 0..n - 1 {
            t.rzz(q, q + 1, Angle::scaled(0, 1.0 + q as f64 * 0.2));
        }
        for q in 0..n {
            t.rx(q, Angle::scaled(1, 2.0));
        }
        t.measure_all();
        t
    }

    #[test]
    fn all_tiers_match_reference_state() {
        let t = tiny_qaoa(5);
        let theta = [0.9, -0.33];
        let want = SvSimulator::plain().statevector(&t.bind(&theta));
        for level in [FusionLevel::None, FusionLevel::Full] {
            let plan = plan_for(&t, level);
            assert_states_close(&plan.statevector(&theta), &want, 1e-10);
        }
    }

    #[test]
    fn partial_register_diag_run_matches() {
        // Diagonal gates on a strict subset of qubits: scatter path.
        let mut t = ParamCircuit::new(4);
        for q in 0..4 {
            t.h(q);
        }
        t.rz(1, Angle::sym(0));
        t.rzz(1, 3, Angle::scaled(0, -0.8));
        let plan = plan_for(&t, FusionLevel::Full);
        let theta = [1.17];
        assert_states_close(
            &plan.statevector(&theta),
            &SvSimulator::plain().statevector(&t.bind(&theta)),
            1e-12,
        );
    }

    #[test]
    fn sweep_counts_match_plan_runs_bitwise() {
        let t = tiny_qaoa(6);
        let engine = SvSimulator::default();
        let points: Vec<SweepPoint> = (0..8)
            .map(|i| SweepPoint {
                params: vec![0.1 * i as f64, 0.5 - 0.07 * i as f64],
                shots: 200 + 10 * i,
                seed: 1000 + i as u64,
            })
            .collect();
        let swept = engine.execute_sweep(&t, &points).expect("sweep");
        let plan = engine.compile_sweep(&t).expect("plan");
        for (point, out) in points.iter().zip(swept.iter()) {
            assert_eq!(out.counts, plan.run(point).counts);
            assert_eq!(out.counts.values().sum::<usize>(), point.shots);
        }
    }

    #[test]
    fn run_param_matches_engine_distribution() {
        // Not bitwise vs the concrete-circuit engine (different arithmetic
        // order), but the sampled distribution must agree closely.
        let t = tiny_qaoa(4);
        let theta = [0.6, 0.25];
        let engine = SvSimulator::default();
        let a = engine.run_param(&t, &theta, 4000, 7);
        let b = engine.run(&t.bind(&theta), 4000, 7);
        for (key, &c) in &a.counts {
            let d = *b.counts.get(key).unwrap_or(&0) as f64;
            assert!(
                (c as f64 - d).abs() < 160.0,
                "{key}: {c} vs {d}"
            );
        }
    }

    #[test]
    fn mid_circuit_measure_is_rejected_then_served_by_fallback() {
        let mut t = ParamCircuit::new(2);
        t.h(0);
        t.rx(0, Angle::sym(0));
        t.push(ParamOp::Measure { qubit: 0, clbit: 0 });
        t.fixed(Gate::X(0));
        t.push(ParamOp::Measure { qubit: 0, clbit: 1 });
        let engine = SvSimulator::default();
        let err = engine.compile_sweep(&t).unwrap_err();
        assert!(matches!(err, SweepError::MidCircuitMeasure { op_index: 2 }));
        // run_param falls back to trajectory execution.
        let out = engine.run_param(&t, &[0.0], 50, 3);
        assert_eq!(out.counts.values().sum::<usize>(), 50);
    }

    #[test]
    fn partial_measurement_projects_clbits() {
        let mut t = ParamCircuit::new(3);
        t.h(0);
        t.fixed(Gate::Cx(0, 1)).fixed(Gate::Cx(1, 2));
        t.rz(2, Angle::sym(0));
        t.push(ParamOp::Measure { qubit: 2, clbit: 0 });
        let out = SvSimulator::default().run_param(&t, &[0.4], 300, 9);
        // GHZ up to phases: only "0" / "1" on the single measured clbit —
        // but width follows the bound circuit's clbit register (= n).
        assert!(out.counts.keys().all(|k| k == "000" || k == "001"));
        assert_eq!(out.counts.len(), 2);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let t = tiny_qaoa(5);
        let terms: Vec<(usize, f64)> = vec![(0b00011, 0.7), (0b10100, -1.2), (0b00001, 0.4)];
        let theta = [0.45, -0.8];
        let plan = plan_for(&t, FusionLevel::Full);
        let grad = plan.grad_expectation_z(&theta, &terms);
        let eps = 1e-5;
        for p in 0..2 {
            let mut up = theta.to_vec();
            let mut dn = theta.to_vec();
            up[p] += eps;
            dn[p] -= eps;
            let fd = (plan.expectation_z(&up, &terms) - plan.expectation_z(&dn, &terms))
                / (2.0 * eps);
            assert!(
                approx_eq(grad[p], fd, 1e-6),
                "param {p}: shift {} vs fd {fd}",
                grad[p]
            );
        }
    }

    #[test]
    fn sweep_spans_are_recorded() {
        let t = tiny_qaoa(4);
        let obs = Obs::virtual_clock(5);
        let points = [SweepPoint {
            params: vec![0.3, 0.4],
            shots: 50,
            seed: 1,
        }];
        SvSimulator::default()
            .execute_sweep_traced(&t, &points, &obs)
            .expect("sweep");
        let names: Vec<String> = obs.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.contains(&"sweep.compile".to_string()));
        assert!(names.contains(&"sweep.run".to_string()));
    }

    #[test]
    fn diag_slot_qubits_are_tracked() {
        let mut t = ParamCircuit::new(3);
        t.h(0);
        t.rz(2, Angle::sym(0));
        let plan = plan_for(&t, FusionLevel::Full);
        match &plan.slots[0] {
            Slot::Diag(d) => assert_eq!(d.qubits, vec![2]),
            other => panic!("expected diag slot, got {other:?}"),
        }
    }
}
