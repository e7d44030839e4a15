//! Optimization passes over the DAG IR and the O0–O3 pass manager.
//!
//! Every pass is exactly unitary-preserving (no approximation, no global
//! phase games except where noted on [`Resynth1q`]), so compiled and
//! uncompiled circuits produce the same measurement distribution — the
//! metamorphic test suites hold them to bitwise-identical fixed-seed
//! counts through the full stack.
//!
//! * [`CancelInverses`] — removes adjacent gate/inverse pairs
//!   (self-inverses, `s/sdg`, `t/tdg`, exactly-negated rotations),
//!   cascading as removals create new adjacencies.
//! * [`MergeRotations`] — folds *adjacent* same-kind rotation pairs into
//!   one affine angle (symbolic angles merge symbolically:
//!   `coeff₁·θ + off₁` + `coeff₂·θ + off₂` → `(coeff₁+coeff₂)·θ +
//!   (off₁+off₂)`), dropping exact zero rotations. Because merged
//!   diagonal chains stay single `rz`/`rzz`/`cp` ops, the sweep engine's
//!   quadratic-form fuser absorbs them into one phase-table slot each.
//! * [`SinkDiagonals`] — commutation-aware sinking: a rotation walks
//!   forward past every gate it commutes with (Z-diagonal rotations slide
//!   through other diagonals and through CX/CCX *controls*; X-axis
//!   rotations through X-basis gates and CX *targets*) until it meets a
//!   mergeable partner. The walk advances a per-wire frontier in lockstep,
//!   so a two-qubit rotation never jumps a blocker that touches only its
//!   second wire.
//! * [`RecognizeTemplates`] — structure recovery for decomposed imports:
//!   `cx a,b; rz(θ) b; cx a,b` → `rzz(θ) a,b` and `h q; rz(θ) q; h q` →
//!   `rx(θ) q` (both exact identities, symbolic angles included). This is
//!   what turns a stdgates-only QASM3 export of QAOA back into the
//!   diagonal form the distributed engine executes exchange-free.
//! * [`Resynth1q`] — collapses runs of ≥2 single-qubit gates into one
//!   `u(θ,φ,λ)` via ZYZ resynthesis (identity runs vanish entirely).
//!   All-Clifford runs are left alone so stabilizer-backend eligibility
//!   survives compilation; replacement is exact up to global phase, which
//!   no measurement can observe.
//!
//! Every rotation rule reads one [`Rotation`] value (family, operands,
//! angle), parameterized or fixed: two rotations merge only within one
//! [`RotKind`] on identical operand tuples.
//!
//! Pipelines: O0 = none; O1 = cancel + adjacent merge; O2 = O1 +
//! template recognition + diagonal sinking + 1q resynthesis; O3 = O2 +
//! the connectivity-aware [`plan_layout`] analysis handed to the
//! distributed engine's Belady remap planner.

use crate::dag::{DagCircuit, DagOp, NodeId, Wire};
use qfw_circuit::param::{Angle, ParamOp, RotKind, Rotation};
use qfw_circuit::Gate;
use qfw_num::complex::C64;

/// What one pass did to the DAG.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassOutcome {
    /// Gate nodes removed outright.
    pub eliminated: usize,
    /// Gate nodes rewritten in place (merged angles, recognized
    /// templates, resynthesized runs).
    pub rewritten: usize,
}

impl PassOutcome {
    fn merge(&mut self, other: PassOutcome) {
        self.eliminated += other.eliminated;
        self.rewritten += other.rewritten;
    }
}

/// A DAG-to-DAG rewrite.
pub trait Pass {
    /// Stable pass name (`compile.pass.<name>` span / counter suffix).
    fn name(&self) -> &'static str;
    /// Runs the rewrite, returning what changed.
    fn run(&self, dag: &mut DagCircuit) -> PassOutcome;
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Axis {
    X,
    Y,
    Z,
}

/// The rotation axis of a family, used for commutation rules.
/// Controlled-axis rotations are not slid past anything (conservative).
fn axis_of(kind: RotKind) -> Option<Axis> {
    match kind {
        RotKind::Rz | RotKind::Phase | RotKind::Rzz | RotKind::Cp | RotKind::Crz => Some(Axis::Z),
        RotKind::Rx | RotKind::Rxx => Some(Axis::X),
        RotKind::Ry | RotKind::Ryy => Some(Axis::Y),
        RotKind::Crx | RotKind::Cry => None,
    }
}

/// The rotation a node is, parameterized or fixed.
fn rotation(op: &DagOp) -> Option<Rotation> {
    match op {
        DagOp::Op(p) => Rotation::of(p),
        DagOp::Barrier(_) => None,
    }
}

/// The node a rotation rewrites to (literal angles become fixed gates on
/// [`DagCircuit::replace_op`]).
fn rotation_op(kind: RotKind, qubits: &[usize], angle: Angle) -> DagOp {
    let r = Rotation::new(kind, qubits, angle)
        .expect("a rewrite is symbolic only where one of its sources was");
    DagOp::Op(ParamOp::Rot(r))
}

/// Adds two affine angles when the result is still affine in one
/// parameter. `None` means "don't merge" (distinct parameter indices).
fn angle_add(a: Angle, b: Angle) -> Option<Angle> {
    match (a, b) {
        (Angle::Lit(x), Angle::Lit(y)) => Some(Angle::Lit(x + y)),
        (
            Angle::Sym {
                index: i,
                coeff: c1,
                offset: o1,
            },
            Angle::Sym {
                index: j,
                coeff: c2,
                offset: o2,
            },
        ) if i == j => Some(Angle::Sym {
            index: i,
            coeff: c1 + c2,
            offset: o1 + o2,
        }),
        (
            Angle::Sym {
                index,
                coeff,
                offset,
            },
            Angle::Lit(v),
        )
        | (
            Angle::Lit(v),
            Angle::Sym {
                index,
                coeff,
                offset,
            },
        ) => Some(Angle::Sym {
            index,
            coeff,
            offset: offset + v,
        }),
        _ => None,
    }
}

/// True when the angle is identically zero for every binding — the
/// rotation is exactly the identity and can be deleted.
fn angle_is_zero(a: Angle) -> bool {
    match a {
        Angle::Lit(v) => v == 0.0,
        Angle::Sym { coeff, offset, .. } => coeff == 0.0 && offset == 0.0,
    }
}

/// True when `a == -b` exactly (symbolically for matching indices).
fn angle_neg_eq(a: Angle, b: Angle) -> bool {
    match (a, b) {
        (Angle::Lit(x), Angle::Lit(y)) => x == -y,
        (
            Angle::Sym {
                index: i,
                coeff: c1,
                offset: o1,
            },
            Angle::Sym {
                index: j,
                coeff: c2,
                offset: o2,
            },
        ) => i == j && c1 == -c2 && o1 == -o2,
        _ => false,
    }
}

/// Whether an op acts diagonally in the computational basis (symbolic
/// rotations included — `rz`/`p`/`rzz`/`cp` are diagonal for any angle).
fn op_is_diagonal(op: &DagOp) -> bool {
    match op {
        DagOp::Op(ParamOp::Rot(r)) => axis_of(r.kind()) == Some(Axis::Z),
        DagOp::Op(ParamOp::Fixed(g)) => g.is_diagonal(),
        _ => false,
    }
}

/// Can a rotation of `axis` acting on `qubits` slide past `other`, whose
/// node touches `other_wires`? Checked per shared qubit; conservative
/// `false` everywhere else.
fn commutes(axis: Axis, qubits: &[usize], other: &DagOp, other_wires: &[Wire]) -> bool {
    if matches!(
        other,
        DagOp::Barrier(_) | DagOp::Op(ParamOp::Measure { .. })
    ) {
        return false;
    }
    for &s in qubits
        .iter()
        .filter(|&&q| other_wires.contains(&Wire::Q(q)))
    {
        let ok = match axis {
            Axis::Z => {
                op_is_diagonal(other)
                    || match other {
                        DagOp::Op(ParamOp::Fixed(Gate::Cx(c, _) | Gate::Cy(c, _))) => s == *c,
                        DagOp::Op(ParamOp::Fixed(Gate::Crx(c, _, _) | Gate::Cry(c, _, _))) => {
                            s == *c
                        }
                        DagOp::Op(ParamOp::Fixed(Gate::Ccx(c0, c1, _))) => s == *c0 || s == *c1,
                        _ => false,
                    }
            }
            Axis::X => match other {
                DagOp::Op(ParamOp::Fixed(Gate::X(_) | Gate::Sx(_))) => true,
                DagOp::Op(ParamOp::Fixed(Gate::Cx(_, t) | Gate::Ccx(_, _, t))) => s == *t,
                _ => rotation(other).and_then(|r| axis_of(r.kind())) == Some(Axis::X),
            },
            Axis::Y => {
                matches!(other, DagOp::Op(ParamOp::Fixed(Gate::Y(_))))
                    || rotation(other).and_then(|r| axis_of(r.kind())) == Some(Axis::Y)
            }
        };
        if !ok {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------
// CancelInverses
// ---------------------------------------------------------------------

/// Removes adjacent gate/inverse pairs, cascading until no pair remains.
pub struct CancelInverses;

fn is_self_inverse(g: &Gate) -> bool {
    matches!(
        g,
        Gate::H(_)
            | Gate::X(_)
            | Gate::Y(_)
            | Gate::Z(_)
            | Gate::Cx(..)
            | Gate::Cy(..)
            | Gate::Cz(..)
            | Gate::Swap(..)
            | Gate::Ccx(..)
    )
}

/// Structural inverse test for two ops on identical wire tuples.
fn inverse_pair(a: &DagOp, b: &DagOp) -> bool {
    if let (DagOp::Op(ParamOp::Fixed(g)), DagOp::Op(ParamOp::Fixed(h))) = (a, b) {
        if g == h && is_self_inverse(g) {
            return true;
        }
        match (g, h) {
            (Gate::S(q), Gate::Sdg(p)) | (Gate::Sdg(q), Gate::S(p)) => return q == p,
            (Gate::T(q), Gate::Tdg(p)) | (Gate::Tdg(q), Gate::T(p)) => return q == p,
            _ => {}
        }
    }
    // Swap is symmetric in its operands: swap(a,b) cancels swap(b,a).
    if let (
        DagOp::Op(ParamOp::Fixed(Gate::Swap(a0, a1))),
        DagOp::Op(ParamOp::Fixed(Gate::Swap(b0, b1))),
    ) = (a, b)
    {
        if (*a0, *a1) == (*b1, *b0) {
            return true;
        }
    }
    match (rotation(a), rotation(b)) {
        (Some(r1), Some(r2)) => {
            r1.kind() == r2.kind()
                && r1.operands() == r2.operands()
                && angle_neg_eq(r1.angle(), r2.angle())
        }
        _ => false,
    }
}

impl Pass for CancelInverses {
    fn name(&self) -> &'static str {
        "cancel-inverses"
    }

    fn run(&self, dag: &mut DagCircuit) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut worklist: Vec<NodeId> = dag.node_ids().collect();
        while let Some(id) = worklist.pop() {
            if !dag.is_live(id) {
                continue;
            }
            let op = dag.op(id);
            if !op.is_gate() {
                continue;
            }
            let wires = dag.wires(id);
            let Some(&first) = wires.first() else {
                continue;
            };
            let Some(next) = dag.next_on(id, first) else {
                continue;
            };
            // The candidate must be the immediate successor on every
            // wire and touch exactly the same wires (no extras; no op
            // repeats a wire, so equal sets are equal lengths plus
            // containment).
            if !wires.iter().all(|&w| dag.next_on(id, w) == Some(next)) {
                continue;
            }
            let next_wires = dag.wires(next);
            if next_wires.len() != wires.len() || !wires.iter().all(|w| next_wires.contains(w)) {
                continue;
            }
            if inverse_pair(op, dag.op(next)) {
                // Revisit the neighbors the splice just made adjacent.
                for &w in wires {
                    if let Some(p) = dag.prev_on(id, w) {
                        worklist.push(p);
                    }
                }
                dag.remove(id);
                dag.remove(next);
                out.eliminated += 2;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// MergeRotations / SinkDiagonals
// ---------------------------------------------------------------------

/// Shared walker: for every rotation node, slide forward looking for a
/// same-kind partner on the same operands; merge the pair into a single
/// affine angle at the partner's position. `adjacent_only` restricts the
/// walk to immediate successors (the plain merge pass); otherwise the
/// rotation may pass any gate it commutes with (diagonal sinking).
fn merge_rotations(dag: &mut DagCircuit, adjacent_only: bool) -> PassOutcome {
    let mut out = PassOutcome::default();
    let mut again = true;
    while again {
        again = false;
        'nodes: for id in 0..dag.id_limit() {
            if !dag.is_live(id) {
                continue;
            }
            let Some(rot) = rotation(dag.op(id)) else {
                continue;
            };
            if angle_is_zero(rot.angle()) {
                dag.remove(id);
                out.eliminated += 1;
                again = true;
                continue;
            }
            let rot_axis = axis_of(rot.kind());
            let qubits = rot.operands();
            let n = qubits.len();
            // Per-wire frontier: the next unexamined node on each operand.
            let mut cur = [None; 2];
            for k in 0..n {
                cur[k] = dag.next_on(id, Wire::Q(qubits[k]));
            }
            // Examine the earliest frontier node (ids are topologically
            // ordered, so min-id is the next op in program order).
            while let Some(j) = cur[..n].iter().flatten().copied().min() {
                let at_j = [cur[0] == Some(j), cur[1] == Some(j)];
                if at_j[..n].iter().all(|&hit| hit) {
                    if let Some(r2) = rotation(dag.op(j)) {
                        if r2.kind() == rot.kind() && r2.operands() == qubits {
                            if let Some(sum) = angle_add(rot.angle(), r2.angle()) {
                                dag.remove(id);
                                if angle_is_zero(sum) {
                                    dag.remove(j);
                                    out.eliminated += 2;
                                } else {
                                    dag.replace_op(j, rotation_op(rot.kind(), qubits, sum));
                                    out.eliminated += 1;
                                    out.rewritten += 1;
                                }
                                again = true;
                                continue 'nodes;
                            }
                        }
                    }
                }
                if adjacent_only {
                    break;
                }
                let Some(axis) = rot_axis else { break };
                if !commutes(axis, qubits, dag.op(j), dag.wires(j)) {
                    break;
                }
                for k in (0..n).filter(|&k| at_j[k]) {
                    cur[k] = dag.next_on(j, Wire::Q(qubits[k]));
                }
            }
        }
    }
    out
}

/// Folds adjacent same-kind rotation chains into single affine angles.
pub struct MergeRotations;

impl Pass for MergeRotations {
    fn name(&self) -> &'static str {
        "merge-rotations"
    }

    fn run(&self, dag: &mut DagCircuit) -> PassOutcome {
        merge_rotations(dag, true)
    }
}

/// Commutation-aware sinking: rotations slide forward past everything
/// they commute with to reach a mergeable partner.
pub struct SinkDiagonals;

impl Pass for SinkDiagonals {
    fn name(&self) -> &'static str {
        "sink-diagonals"
    }

    fn run(&self, dag: &mut DagCircuit) -> PassOutcome {
        merge_rotations(dag, false)
    }
}

// ---------------------------------------------------------------------
// RecognizeTemplates
// ---------------------------------------------------------------------

/// Recovers compact rotations from their standard-basis decompositions:
/// `cx;rz;cx → rzz` and `h;rz;h → rx`. Both identities are exact
/// (including global phase), so they are safe under any composition.
pub struct RecognizeTemplates;

impl Pass for RecognizeTemplates {
    fn name(&self) -> &'static str {
        "recognize-templates"
    }

    fn run(&self, dag: &mut DagCircuit) -> PassOutcome {
        let mut out = PassOutcome::default();
        for id in 0..dag.id_limit() {
            if !dag.is_live(id) {
                continue;
            }
            match *dag.op(id) {
                // cx(a,b); rz(θ) b; cx(a,b)  →  rzz(θ) a,b
                DagOp::Op(ParamOp::Fixed(Gate::Cx(a, b))) => {
                    let Some(mid) = dag.next_on(id, Wire::Q(b)) else {
                        continue;
                    };
                    let Some(rz) = rotation(dag.op(mid)) else {
                        continue;
                    };
                    if rz.kind() != RotKind::Rz || rz.operands() != [b] {
                        continue;
                    }
                    let Some(close) = dag.next_on(mid, Wire::Q(b)) else {
                        continue;
                    };
                    // Nothing may sit between the two cx on the control
                    // wire either.
                    if dag.next_on(id, Wire::Q(a)) != Some(close) {
                        continue;
                    }
                    if dag.op(close) != &DagOp::Op(ParamOp::Fixed(Gate::Cx(a, b))) {
                        continue;
                    }
                    dag.replace_op(id, rotation_op(RotKind::Rzz, &[a, b], rz.angle()));
                    dag.remove(mid);
                    dag.remove(close);
                    out.rewritten += 1;
                    out.eliminated += 2;
                }
                // h q; rz(θ) q; h q  →  rx(θ) q
                DagOp::Op(ParamOp::Fixed(Gate::H(q))) => {
                    let Some(mid) = dag.next_on(id, Wire::Q(q)) else {
                        continue;
                    };
                    let Some(rz) = rotation(dag.op(mid)) else {
                        continue;
                    };
                    if rz.kind() != RotKind::Rz || rz.operands() != [q] {
                        continue;
                    }
                    let Some(close) = dag.next_on(mid, Wire::Q(q)) else {
                        continue;
                    };
                    if dag.op(close) != &DagOp::Op(ParamOp::Fixed(Gate::H(q))) {
                        continue;
                    }
                    dag.replace_op(id, rotation_op(RotKind::Rx, &[q], rz.angle()));
                    dag.remove(mid);
                    dag.remove(close);
                    out.rewritten += 1;
                    out.eliminated += 2;
                }
                _ => {}
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Resynth1q
// ---------------------------------------------------------------------

/// Resynthesizes runs of single-qubit gates into one `u(θ,φ,λ)` (exact
/// up to global phase). Identity runs are deleted outright. Runs made
/// entirely of Clifford gates are preserved so a Clifford circuit stays
/// recognizable to the stabilizer backend; symbolic rotations end a run.
pub struct Resynth1q;

impl Pass for Resynth1q {
    fn name(&self) -> &'static str {
        "resynth-1q"
    }

    fn run(&self, dag: &mut DagCircuit) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut run: Vec<(NodeId, Gate)> = Vec::new();
        for q in 0..dag.num_qubits() {
            let mut cursor = dag.first_on(Wire::Q(q));
            loop {
                // Collect the next maximal run of concrete 1q gates on q.
                run.clear();
                while let Some(id) = cursor {
                    // A symbolic rotation (the only `Rot` a DAG holds) ends
                    // the run.
                    let gate = match dag.op(id) {
                        DagOp::Op(ParamOp::Fixed(g)) if dag.wires(id) == [Wire::Q(q)] => {
                            Some(g.clone())
                        }
                        _ => None,
                    };
                    let Some(gate) = gate else { break };
                    run.push((id, gate));
                    cursor = dag.next_on(id, Wire::Q(q));
                }
                out.merge(resynthesize_run(dag, q, &run));
                match cursor {
                    Some(id) => cursor = dag.next_on(id, Wire::Q(q)),
                    None => break,
                }
            }
        }
        out
    }
}

/// `a · b` for row-major 2×2 matrices, in `Matrix::matmul`'s arithmetic
/// order (zero entries of `a` skipped, fused multiply-adds from zero).
fn matmul_2x2(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
    let mut out = [C64::ZERO; 4];
    for i in 0..2 {
        for k in 0..2 {
            let x = a[2 * i + k];
            if x == C64::ZERO {
                continue;
            }
            for j in 0..2 {
                out[2 * i + j] = x.mul_add(b[2 * k + j], out[2 * i + j]);
            }
        }
    }
    out
}

/// ZYZ Euler angles of a single-qubit unitary (row-major entries):
/// `U ~ Rz(a) Ry(b) Rz(c)` up to global phase. Returns `(a, b, c)`.
fn zyz_angles(u: &[C64; 4]) -> (f64, f64, f64) {
    // The half-angles (a±c)/2 live mod 4π, so arg() differences on a U(2)
    // matrix lose a sign bit. Normalize to SU(2) first (divide out
    // sqrt(det)); then with b in [0, π] both cos(b/2) and sin(b/2) are
    // non-negative and the entry phases identify the half-angles directly:
    //   V = [[e^{-i(a+c)/2} cos(b/2), -e^{-i(a-c)/2} sin(b/2)],
    //        [e^{ i(a-c)/2} sin(b/2),  e^{ i(a+c)/2} cos(b/2)]].
    let det = u[0] * u[3] - u[1] * u[2];
    let phase = C64::cis(det.arg() / 2.0); // sqrt(det) up to ±1 (harmless)
    let v00 = u[0] * phase.conj();
    let v10 = u[2] * phase.conj();
    let b = 2.0 * v10.abs().atan2(v00.abs());
    let half_sum = if v00.abs() > 1e-12 { -v00.arg() } else { 0.0 };
    let half_diff = if v10.abs() > 1e-12 { v10.arg() } else { 0.0 };
    (half_sum + half_diff, b, half_sum - half_diff)
}

fn resynthesize_run(dag: &mut DagCircuit, q: usize, run: &[(NodeId, Gate)]) -> PassOutcome {
    let mut out = PassOutcome::default();
    if run.len() < 2 {
        return out;
    }
    // Product in application order: later gates multiply on the left.
    let mut u = [C64::ONE, C64::ZERO, C64::ZERO, C64::ONE];
    for (_, g) in run {
        u = matmul_2x2(&g.matrix_1q().expect("runs hold single-qubit gates"), &u);
    }
    let (a, b, c) = zyz_angles(&u);
    let is_identity = b.abs() < 1e-12 && {
        // With no Y component the product is diag(e^{-i(a+c)/2}, e^{i(a+c)/2})
        // up to global phase: identity iff the residual z-angle vanishes.
        let z = (a + c).rem_euclid(2.0 * std::f64::consts::PI);
        z.abs() < 1e-12 || (z - 2.0 * std::f64::consts::PI).abs() < 1e-12
    };
    if is_identity {
        for (id, _) in run {
            dag.remove(*id);
        }
        out.eliminated += run.len();
        return out;
    }
    if run.iter().all(|(_, g)| g.is_clifford()) {
        return out;
    }
    // Replace the first node with u(θ=b, φ=a, λ=c) ~ Rz(a)·Ry(b)·Rz(c)
    // and delete the rest.
    dag.replace_op(run[0].0, DagOp::Op(ParamOp::Fixed(Gate::U(q, b, a, c))));
    for (id, _) in &run[1..] {
        dag.remove(*id);
    }
    out.rewritten += 1;
    out.eliminated += run.len() - 1;
    out
}

// ---------------------------------------------------------------------
// Layout analysis
// ---------------------------------------------------------------------

/// The qubit of a gate's wire: gates touch qubit wires only.
fn gate_qubit(w: Wire) -> usize {
    match w {
        Wire::Q(q) => q,
        Wire::C(_) => unreachable!("gates touch qubit wires only"),
    }
}

/// Connectivity-aware qubit ordering for the distributed engine.
///
/// Diagonal gates are exchange-free in the distributed state vector and
/// non-diagonal multi-qubit gates on *high* physical positions are what
/// force remaps, so the plan weighs each qubit by the non-diagonal
/// entangling gates that touch it and greedily grows a line from the
/// hottest qubit, always appending the qubit most strongly connected to
/// the placed set. The result `order[p] = q` assigns logical qubit `q`
/// to physical position `p`; hot qubits land in the low (rank-local)
/// positions, which the engine can seed for free at `|0…0⟩`.
pub fn plan_layout(dag: &DagCircuit) -> Vec<usize> {
    let n = dag.num_qubits();
    let mut weight = vec![0usize; n];
    let mut pair = std::collections::BTreeMap::<(usize, usize), usize>::new();
    for id in dag.node_ids() {
        let op = dag.op(id);
        if !op.is_gate() || op_is_diagonal(op) {
            continue;
        }
        let qs = dag.wires(id);
        if qs.len() < 2 {
            continue;
        }
        for &w in qs {
            weight[gate_qubit(w)] += 1;
        }
        for i in 0..qs.len() {
            for j in i + 1..qs.len() {
                let (a, b) = (gate_qubit(qs[i]), gate_qubit(qs[j]));
                *pair.entry((a.min(b), a.max(b))).or_default() += 1;
            }
        }
    }
    let mut neighbours = vec![Vec::new(); n];
    for (&(a, b), &count) in &pair {
        neighbours[a].push((b, count));
        neighbours[b].push((a, count));
    }
    // conn[q]: the pair counts between q and the placed set so far.
    let mut conn = vec![0usize; n];
    let mut any_hot = false;
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let unplaced = (0..n).filter(|&q| !placed[q]);
        let next = if !any_hot {
            // Seed (or restart while every placed qubit is cold): hottest
            // first, index as tie-break.
            unplaced.max_by_key(|&q| (weight[q], usize::MAX - q))
        } else {
            // Strongest connection to the placed set; own weight, then
            // smallest index, break ties.
            unplaced.max_by_key(|&q| (conn[q], weight[q], usize::MAX - q))
        }
        .expect("unplaced qubit exists");
        placed[next] = true;
        order.push(next);
        any_hot |= weight[next] > 0;
        for &(q, count) in &neighbours[next] {
            conn[q] += count;
        }
    }
    order
}

/// Predicted log-fidelity of running `dag` with logical qubit
/// `order[p]` placed on physical qubit `p`, scored against a
/// [`Calibration`] table.
///
/// Two loss terms, both in log space so contributions add:
///
/// * **Gate error** — every gate contributes `ln(1 - err)` per touched
///   qubit, with `err` the physical qubit's measured 1q/2q error.
/// * **Idle decoherence** — each physical qubit accumulates busy time
///   (gate durations of the gates it participates in); the circuit's
///   critical-path estimate is the maximum busy time, and each qubit
///   pays `-(idle/t1 + idle/t2)` for the idle remainder, the first-order
///   log-survival of amplitude and phase damping.
///
/// Higher is better; `0.0` is a noiseless placement. A calibration table
/// smaller than the register scores overflow qubits with its last entry.
pub fn predicted_log_fidelity(
    dag: &DagCircuit,
    order: &[usize],
    cal: &qfw_noise::Calibration,
) -> f64 {
    let n = dag.num_qubits();
    assert_eq!(order.len(), n, "layout must cover every qubit");
    // phys[q] = p: where logical qubit q lives.
    let mut phys = vec![0usize; n];
    for (p, &q) in order.iter().enumerate() {
        phys[q] = p;
    }
    let qubit_cal = |p: usize| &cal.qubits[p.min(cal.qubits.len().saturating_sub(1))];
    let mut log_f = 0.0;
    let mut busy = vec![0.0f64; n];
    for id in dag.node_ids() {
        if !dag.op(id).is_gate() {
            continue;
        }
        let qs = dag.wires(id);
        let (err_of, dt): (fn(&qfw_noise::QubitCal) -> f64, f64) = if qs.len() <= 1 {
            (|qc| qc.err_1q, cal.gate_time_1q_us)
        } else {
            (|qc| qc.err_2q, cal.gate_time_2q_us)
        };
        for &w in qs {
            let p = phys[gate_qubit(w)];
            log_f += (1.0 - err_of(qubit_cal(p)).min(0.999_999)).ln();
            busy[p] += dt;
        }
    }
    let horizon = busy.iter().copied().fold(0.0f64, f64::max);
    for (p, &b) in busy.iter().enumerate() {
        let idle = horizon - b;
        if idle > 0.0 {
            let qc = qubit_cal(p);
            log_f -= idle / qc.t1_us + idle / qc.t2_us;
        }
    }
    log_f
}

/// Noise-aware O3 layout: picks the placement maximizing
/// [`predicted_log_fidelity`] against the calibration table.
///
/// Candidates: the connectivity-greedy [`plan_layout`] order, the
/// identity placement, and a quality-sorted placement (hottest logical
/// qubits onto the lowest-error physical qubits); the best is then
/// refined by pairwise-swap hill climbing until no swap improves the
/// score. Returns `(order, predicted_log_fidelity)` with the same
/// `order[p] = q` convention as [`plan_layout`].
pub fn plan_layout_calibrated(dag: &DagCircuit, cal: &qfw_noise::Calibration) -> (Vec<usize>, f64) {
    let n = dag.num_qubits();
    let greedy = plan_layout(dag);

    // Quality-sorted candidate: rank logical qubits by how often the
    // greedy order placed them early (its proxy for hotness), rank
    // physical positions by calibration quality, marry the two.
    let quality = |p: usize| -> f64 {
        let qc = &cal.qubits[p.min(cal.qubits.len().saturating_sub(1))];
        qc.err_2q + qc.err_1q + cal.gate_time_2q_us * (1.0 / qc.t1_us + 1.0 / qc.t2_us)
    };
    let mut best_phys: Vec<usize> = (0..n).collect();
    best_phys.sort_by(|&a, &b| quality(a).total_cmp(&quality(b)));
    let mut sorted = vec![0usize; n];
    for (rank, &p) in best_phys.iter().enumerate() {
        // The rank-th hottest logical qubit (greedy order) goes to the
        // rank-th best physical position.
        sorted[p] = greedy[rank];
    }

    let identity: Vec<usize> = (0..n).collect();
    let mut best = greedy.clone();
    let mut best_score = predicted_log_fidelity(dag, &best, cal);
    for cand in [identity, sorted] {
        let score = predicted_log_fidelity(dag, &cand, cal);
        if score > best_score {
            best = cand;
            best_score = score;
        }
    }

    // Pairwise-swap hill climbing (first-improvement sweeps, bounded).
    for _ in 0..4 {
        let mut improved = false;
        for i in 0..n {
            for j in i + 1..n {
                best.swap(i, j);
                let score = predicted_log_fidelity(dag, &best, cal);
                if score > best_score {
                    best_score = score;
                    improved = true;
                } else {
                    best.swap(i, j);
                }
            }
        }
        if !improved {
            break;
        }
    }
    (best, best_score)
}

// ---------------------------------------------------------------------
// Pipelines
// ---------------------------------------------------------------------

/// Optimization level of the pass pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// IR round trip only, no rewrites.
    O0,
    /// Inverse cancellation + adjacent rotation merging.
    O1,
    /// O1 + template recognition, diagonal sinking, 1q resynthesis.
    O2,
    /// O2 + connectivity-aware layout analysis for the distributed
    /// engine.
    O3,
}

impl OptLevel {
    /// All levels, ascending.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

    /// Parses `"O0"`–`"O3"` (case-insensitive).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s.to_ascii_uppercase().as_str() {
            "O0" => Some(OptLevel::O0),
            "O1" => Some(OptLevel::O1),
            "O2" => Some(OptLevel::O2),
            "O3" => Some(OptLevel::O3),
            _ => None,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O1 => write!(f, "O1"),
            OptLevel::O2 => write!(f, "O2"),
            OptLevel::O3 => write!(f, "O3"),
        }
    }
}

/// The pass sequence for an optimization level. (The O3 layout analysis
/// is not a rewrite and runs separately in [`crate::compile_dag`].)
pub fn pipeline(opt: OptLevel) -> Vec<Box<dyn Pass>> {
    match opt {
        OptLevel::O0 => vec![],
        OptLevel::O1 => vec![Box::new(CancelInverses), Box::new(MergeRotations)],
        OptLevel::O2 | OptLevel::O3 => vec![
            Box::new(CancelInverses),
            Box::new(MergeRotations),
            Box::new(RecognizeTemplates),
            Box::new(SinkDiagonals),
            Box::new(CancelInverses),
            Box::new(Resynth1q),
            Box::new(MergeRotations),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::rng::Rng;

    #[test]
    fn zyz_reconstructs_random_unitaries() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..50 {
            // Random SU(2)-ish unitary via random rotations.
            let u = Gate::Rz(0, rng.uniform(-3.0, 3.0))
                .matrix()
                .matmul(&Gate::Ry(0, rng.uniform(-3.0, 3.0)).matrix())
                .matmul(&Gate::Rz(0, rng.uniform(-3.0, 3.0)).matrix())
                .matmul(&Gate::Phase(0, rng.uniform(-3.0, 3.0)).matrix());
            let (a, b, c) = zyz_angles(u.as_slice().try_into().unwrap());
            let rec = Gate::Rz(0, a)
                .matrix()
                .matmul(&Gate::Ry(0, b).matrix())
                .matmul(&Gate::Rz(0, c).matrix());
            // Compare up to global phase via |tr(U† R)| = 2.
            let tr = u.dagger().matmul(&rec).trace();
            assert!(
                (tr.abs() - 2.0).abs() < 1e-9,
                "zyz mismatch: |tr|={}",
                tr.abs()
            );
        }
    }
}
