//! Gate fusion: rewrites a circuit into the few dense [`Layer`]s the tile
//! executor runs ([`crate::layers`]).
//!
//! Two passes, both `O(ops)`:
//!
//! * **Diagonal runs** — commuting diagonal gates (Rz/Cz/Cp/Rzz/...,
//!   diagonal unitaries) merge into one [`DiagLayer`] of any width. The
//!   one- and two-qubit ones collapse into a handful of scalars (a phase
//!   at zero, one flip ratio per qubit, one correction per coupled pair);
//!   nothing the size of `2^width` is ever built. A run stays open across
//!   non-diagonal ops on *disjoint* qubits and ends at anything touching
//!   one of its qubits.
//! * **Blocks** — every two-qubit gate opens (or extends) a 4x4 block on
//!   its pair, absorbing the single-qubit chains on its qubits; chains
//!   that meet no block multiply out into one 2x2 [`Layer::Local1q`]
//!   tagged with its [`Shape1q`]; wider gates pass through as
//!   [`Layer::Dense`].
//!
//! [`FusionLevel::None`] skips both: [`verbatim`] makes one layer of each
//! gate, as written, and the same tile executor runs that plan — the
//! circuit applied gate by gate, which the fused path, the partitioned
//! path and the tests are compared against. Noisy trajectories run the
//! verbatim plan with a Kraus site after each noisy gate.

use crate::kernels::{mat2_mul, DiagForm, Mat2, Shape1q};
use crate::layers::{DiagLayer, FactorTable, Fused, Layer, LayerPlan, Site};
use qfw_circuit::{Circuit, Gate, Op, Readout};
use qfw_num::complex::C64;
use qfw_num::Matrix;
use std::sync::Arc;

/// Whether the engine fuses gates before applying them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FusionLevel {
    /// Apply the circuit verbatim: the [`verbatim`] plan, one layer per
    /// gate.
    None,
    /// Fuse into a [`LayerPlan`] and execute it tile by tile.
    #[default]
    Full,
}

/// Fuses a circuit into its layer plan.
pub fn fuse(circuit: &Circuit) -> LayerPlan {
    fuse_shard(circuit, circuit.num_qubits())
}

/// The circuit as written, one layer per gate: no diagonal merging, no
/// chaining — a one-qubit gate a [`Layer::Local1q`], a two-qubit gate a
/// 4x4 [`Layer::Dense`], a wider [`absorbable_diagonal`] gate a
/// [`Layer::Diag`], any other a [`Layer::Dense`] — and a collapse at each
/// mid-circuit measurement. The plan still cuts its layers into tile
/// groups, so a run of gates on few qubits shares a pass.
pub fn verbatim(circuit: &Circuit) -> LayerPlan {
    verbatim_with_sites(circuit, |_, _| false)
}

/// [`verbatim`] with a Kraus site after each gate on every operand `q`,
/// in operand order, for which `noisy(arity, q)` holds: a noisy
/// trajectory's plan.
pub(crate) fn verbatim_with_sites(
    circuit: &Circuit,
    noisy: impl Fn(usize, usize) -> bool,
) -> LayerPlan {
    let n = circuit.num_qubits();
    assert!(n < 64, "the dense engine cannot hold a {n}-qubit register");
    let readout = Readout::of(circuit);
    let mut items = Vec::with_capacity(circuit.ops().len());
    for (at, op) in circuit.ops().iter().enumerate() {
        match *op {
            Op::Gate(ref g) => {
                items.push(Fused::Layer(verbatim_layer(n, g)));
                let arity = g.arity();
                for &qubit in g.operands().iter().filter(|&&q| noisy(arity, q)) {
                    items.push(Fused::At(Site::Kraus { qubit, arity }));
                }
            }
            Op::Measure { qubit, clbit } if !readout.is_terminal(at) => {
                items.push(Fused::At(Site::Collapse { qubit, clbit }))
            }
            _ => {}
        }
    }
    LayerPlan::build(n, n, readout, items)
}

/// One gate as a layer of its own: a one-qubit gate a [`Layer::Local1q`],
/// a two-qubit gate a 4x4 [`Layer::Dense`] on ascending qubits, a wider
/// [`absorbable_diagonal`] gate a [`Layer::Diag`] (so it runs at any
/// width), and any other a [`Layer::Dense`].
///
/// # Panics
/// Panics on an operand repeated or outside the `n`-qubit register.
pub(crate) fn verbatim_layer(n: usize, g: &Gate) -> Layer {
    let qs = g.operands();
    let support = qs.iter().fold(0u64, |mask, &q| {
        assert!(
            q < n && mask >> q & 1 == 0,
            "gate targets {:?} must be distinct qubits of a {n}-qubit register",
            &*qs
        );
        mask | 1 << q
    });
    match *qs {
        [qubit] => {
            let m = mat2_of(g);
            Layer::Local1q {
                qubit,
                m,
                shape: Shape1q::of(&m),
            }
        }
        [a, b] => dense_2q([a, b], mat4_of(g)),
        _ => match absorbable_diagonal(g) {
            Some(phases) => Layer::Diag(DiagLayer {
                form: DiagForm {
                    p0: C64::ONE,
                    flips: Vec::new(),
                    pairs: Vec::new(),
                },
                tables: vec![FactorTable {
                    qubits: qs.to_vec(),
                    phases,
                }],
                support,
            }),
            None => Layer::Dense {
                qubits: qs.to_vec(),
                m: g.matrix().as_slice().to_vec(),
            },
        },
    }
}

/// [`fuse`] for an amplitude buffer that indexes only the low `local_bits`
/// qubits (one rank's shard; the whole register for the local engine).
/// Gates on the qubits above must be [`absorbable_diagonal`] — they stay
/// diagonal layers, which a tile reads off its base index — and every
/// other gate's operands must lie below `local_bits`.
pub(crate) fn fuse_shard(circuit: &Circuit, local_bits: usize) -> LayerPlan {
    let n = circuit.num_qubits();
    assert!(n < 64, "the dense engine cannot hold a {n}-qubit register");
    let readout = Readout::of(circuit);
    let items = fuse_blocks(n, merge_diagonal_runs(n, local_bits, circuit, &readout));
    LayerPlan::build(n, local_bits, readout, items)
}

// --- diagonal-run merging ----------------------------------------------------

/// An op between the two passes.
enum Item {
    Gate(Gate),
    Diag(DiagLayer),
    /// A measurement. Every one flushes what is open on its qubit; only a
    /// mid-circuit one (`collapses`) reaches the plan — terminal ones are
    /// the readout's.
    Measure {
        qubit: usize,
        clbit: usize,
        collapses: bool,
    },
    /// Barrier operands as a mask (every qubit for an operand-less one).
    Barrier(u64),
}

impl Item {
    fn support(&self) -> u64 {
        match self {
            Item::Gate(g) => mask_of(&g.qubits()),
            Item::Diag(d) => d.support,
            Item::Measure { qubit, .. } => 1 << qubit,
            Item::Barrier(mask) => *mask,
        }
    }
}

fn mask_of(qubits: &[usize]) -> u64 {
    qubits.iter().fold(0, |m, q| m | 1 << q)
}

/// The gate's diagonal, if it is one a [`DiagLayer`] can absorb: diagonal
/// in the computational basis with every entry finite and nonzero (the
/// run is kept as ratios of entries; circuit text can carry a "unitary"
/// that is neither, and that one stays a dense gate). The distributed
/// router asks the same question to decide that a gate needs no exchange,
/// so what it leaves on a rank bit is exactly what stays a layer here, and
/// admission asks it too: such a gate runs at any width.
pub fn absorbable_diagonal(g: &Gate) -> Option<Vec<C64>> {
    g.diagonal().filter(|d| {
        d.iter()
            .all(|z| z.norm_sqr() > 0.0 && z.norm_sqr().is_finite())
    })
}

/// An open run of diagonal gates.
struct DiagRun {
    p0: C64,
    /// Flip ratio per register qubit (`ONE` where untouched).
    flips: Vec<C64>,
    pairs: Vec<(usize, usize, C64)>,
    tables: Vec<FactorTable>,
    support: u64,
    /// First absorbed gate, emitted verbatim when nothing else merged.
    first: Gate,
    count: usize,
}

impl DiagRun {
    fn open(n: usize, g: &Gate) -> DiagRun {
        DiagRun {
            p0: C64::ONE,
            flips: vec![C64::ONE; n],
            pairs: Vec::new(),
            tables: Vec::new(),
            support: 0,
            first: g.clone(),
            count: 0,
        }
    }

    /// Folds a diagonal gate on `qubits` with local phases `d` into the run.
    fn absorb(&mut self, qubits: Vec<usize>, d: Vec<C64>) {
        self.support |= mask_of(&qubits);
        self.count += 1;
        match qubits[..] {
            [q] => {
                self.p0 *= d[0];
                self.flips[q] *= d[1] / d[0];
            }
            [a, b] => {
                self.p0 *= d[0];
                self.flips[a] *= d[1] / d[0];
                self.flips[b] *= d[2] / d[0];
                let w = d[3] * d[0] / (d[1] * d[2]);
                let key = (a.min(b), a.max(b));
                match self.pairs.iter_mut().find(|p| (p.0, p.1) == key) {
                    Some(p) => p.2 *= w,
                    None => self.pairs.push((key.0, key.1, w)),
                }
            }
            _ => self.tables.push(FactorTable { qubits, phases: d }),
        }
    }

    /// Closes the run. A lone gate goes back out verbatim and a run on at
    /// most two qubits as a small diagonal unitary, so the block pass can
    /// still absorb either; anything wider becomes a layer — as does any
    /// run reading a qubit at or above `local_bits`, which no dense block
    /// may target.
    fn close(self, local_bits: usize) -> Item {
        let blockable = self.support >> local_bits == 0;
        if blockable && self.count == 1 {
            return Item::Gate(self.first);
        }
        let qubits: Vec<usize> = (0..self.flips.len())
            .filter(|q| self.support >> q & 1 == 1)
            .collect();
        if blockable && qubits.len() <= 2 {
            let phases: Vec<C64> = (0..1usize << qubits.len())
                .map(|l| {
                    let set = |j: usize| l >> j & 1 == 1;
                    let mut p = self.p0;
                    for (j, &q) in qubits.iter().enumerate() {
                        if set(j) {
                            p *= self.flips[q];
                        }
                    }
                    if let (true, true, Some(pair)) = (set(0), set(1), self.pairs.first()) {
                        p *= pair.2;
                    }
                    p
                })
                .collect();
            return Item::Gate(Gate::Unitary {
                qubits,
                matrix: Arc::new(Matrix::diag(&phases)),
                label: format!("diag{}", self.count),
            });
        }
        Item::Diag(DiagLayer {
            form: DiagForm {
                p0: self.p0,
                flips: qubits.iter().map(|&q| (q, self.flips[q])).collect(),
                pairs: self.pairs,
            },
            tables: self.tables,
            support: self.support,
        })
    }
}

/// Merges runs of commuting diagonal gates. Diagonal gates all commute
/// with each other, so a run stays open across non-diagonal ops on
/// *disjoint* qubits (they pass straight through, ahead of the run); any
/// op touching one of the run's qubits — or an operand-less barrier —
/// closes it first.
fn merge_diagonal_runs(
    n: usize,
    local_bits: usize,
    circuit: &Circuit,
    readout: &Readout,
) -> Vec<Item> {
    let mut out = Vec::with_capacity(circuit.ops().len());
    let mut run: Option<DiagRun> = None;
    for (at, op) in circuit.ops().iter().enumerate() {
        let item = match op {
            Op::Gate(g) => {
                if let Some(d) = absorbable_diagonal(g) {
                    run.get_or_insert_with(|| DiagRun::open(n, g))
                        .absorb(g.qubits(), d);
                    continue;
                }
                Item::Gate(g.clone())
            }
            Op::Measure { qubit, clbit } => Item::Measure {
                qubit: *qubit,
                clbit: *clbit,
                collapses: !readout.is_terminal(at),
            },
            Op::Barrier(qs) if qs.is_empty() => Item::Barrier((1 << n) - 1),
            Op::Barrier(qs) => Item::Barrier(mask_of(qs)),
        };
        if run
            .as_ref()
            .is_some_and(|r| r.support & item.support() != 0)
        {
            out.extend(run.take().map(|r| r.close(local_bits)));
        }
        out.push(item);
    }
    out.extend(run.map(|r| r.close(local_bits)));
    out
}

// --- block fusion ------------------------------------------------------------

/// Row-major 4x4 matrix; local bit 0 is the block's first qubit.
type Mat4 = [C64; 16];

fn mat2_of(g: &Gate) -> Mat2 {
    g.matrix_1q().expect("single-qubit gate")
}

fn mat4_of(g: &Gate) -> Mat4 {
    g.matrix_2q().expect("two-qubit gate")
}

fn mat4_mul(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = [C64::ZERO; 16];
    for r in 0..4 {
        for c in 0..4 {
            for k in 0..4 {
                out[4 * r + c] += a[4 * r + k] * b[4 * k + c];
            }
        }
    }
    out
}

/// Lifts a 2x2 matrix acting on local bit `j` to the 4x4 two-qubit space
/// (identity on the other bit).
fn embed_1q(u: &Mat2, j: usize) -> Mat4 {
    let other = 1 - j;
    let mut m = [C64::ZERO; 16];
    for r in 0..4usize {
        for c in 0..4usize {
            if (r >> other) & 1 == (c >> other) & 1 {
                m[4 * r + c] = u[2 * ((r >> j) & 1) + ((c >> j) & 1)];
            }
        }
    }
    m
}

/// Rewrites a 4x4 matrix for qubit order `[a, b]` into the order `[b, a]`
/// (swaps local bits 0 and 1 of rows and columns).
fn swap_bits2(m: &Mat4) -> Mat4 {
    const PERM: [usize; 4] = [0, 2, 1, 3];
    let mut out = [C64::ZERO; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[4 * r + c] = m[4 * PERM[r] + PERM[c]];
        }
    }
    out
}

struct Block2q {
    /// The block's qubits; `qs[0]` is local bit 0 of `m`.
    qs: [usize; 2],
    m: Mat4,
}

/// The block pass's working state.
struct Blocks {
    out: Vec<Fused>,
    /// Accumulated single-qubit chain per qubit, not yet in any block.
    pending: Vec<Option<Mat2>>,
    /// `active[q]` indexes the open block touching `q`.
    active: Vec<Option<usize>>,
    blocks: Vec<Option<Block2q>>,
}

/// The dense layer of a 4x4 matrix whose local bit `j` is `qs[j]`, on
/// ascending qubits, as every dense two-qubit layer is.
fn dense_2q(qs: [usize; 2], m: Mat4) -> Layer {
    let (qs, m) = if qs[0] < qs[1] {
        (qs, m)
    } else {
        ([qs[1], qs[0]], swap_bits2(&m))
    };
    Layer::Dense {
        qubits: qs.to_vec(),
        m: m.to_vec(),
    }
}

impl Blocks {
    fn emit_block(&mut self, b: Block2q) {
        self.out.push(Fused::Layer(dense_2q(b.qs, b.m)));
    }

    /// Emits whatever is open on qubit `q`.
    fn flush(&mut self, q: usize) {
        if let Some(bi) = self.active[q] {
            let b = self.blocks[bi].take().expect("active block is open");
            self.active[b.qs[0]] = None;
            self.active[b.qs[1]] = None;
            self.emit_block(b);
        }
        if let Some(m) = self.pending[q].take() {
            self.out.push(Fused::Layer(Layer::Local1q {
                qubit: q,
                shape: Shape1q::of(&m),
                m,
            }));
        }
    }

    fn flush_mask(&mut self, mask: u64) {
        for q in 0..self.pending.len() {
            if mask >> q & 1 == 1 {
                self.flush(q);
            }
        }
    }

    fn gate_1q(&mut self, q: usize, gm: Mat2) {
        if let Some(bi) = self.active[q] {
            let blk = self.blocks[bi].as_mut().expect("active block is open");
            let j = usize::from(blk.qs[1] == q);
            blk.m = mat4_mul(&embed_1q(&gm, j), &blk.m);
        } else {
            self.pending[q] = Some(match self.pending[q] {
                None => gm,
                Some(m) => mat2_mul(&gm, &m),
            });
        }
    }

    fn gate_2q(&mut self, a: usize, b: usize, gm: Mat4) {
        match (self.active[a], self.active[b]) {
            (Some(bi), Some(bj)) if bi == bj => {
                let blk = self.blocks[bi].as_mut().expect("active block is open");
                let gm = if blk.qs == [a, b] {
                    gm
                } else {
                    swap_bits2(&gm)
                };
                blk.m = mat4_mul(&gm, &blk.m);
            }
            _ => {
                // A new block: close what the pair was part of, then seed
                // it from the gate, absorbing the chains waiting on its
                // qubits (they apply first).
                for q in [a, b] {
                    if let Some(bi) = self.active[q] {
                        let old = self.blocks[bi].take().expect("active block is open");
                        self.active[old.qs[0]] = None;
                        self.active[old.qs[1]] = None;
                        self.emit_block(old);
                    }
                }
                let mut m = gm;
                for (j, q) in [a, b].into_iter().enumerate() {
                    if let Some(pm) = self.pending[q].take() {
                        m = mat4_mul(&m, &embed_1q(&pm, j));
                    }
                }
                self.active[a] = Some(self.blocks.len());
                self.active[b] = Some(self.blocks.len());
                self.blocks.push(Some(Block2q { qs: [a, b], m }));
            }
        }
    }
}

/// Fuses contiguous two-qubit regions into 4x4 blocks and leftover
/// single-qubit chains into 2x2 layers. Wider gates, diagonal layers,
/// measurements and barriers flush what they touch.
fn fuse_blocks(n: usize, items: Vec<Item>) -> Vec<Fused> {
    let mut st = Blocks {
        out: Vec::with_capacity(items.len()),
        pending: vec![None; n],
        active: vec![None; n],
        blocks: Vec::new(),
    };
    for item in items {
        let support = item.support();
        match item {
            Item::Gate(g) => match g.qubits()[..] {
                [q] => st.gate_1q(q, mat2_of(&g)),
                [a, b] => st.gate_2q(a, b, mat4_of(&g)),
                _ => {
                    st.flush_mask(support);
                    st.out.push(Fused::Layer(Layer::Dense {
                        qubits: g.qubits(),
                        m: g.matrix().as_slice().to_vec(),
                    }));
                }
            },
            Item::Diag(d) => {
                st.flush_mask(support);
                st.out.push(Fused::Layer(Layer::Diag(d)));
            }
            Item::Measure {
                qubit,
                clbit,
                collapses,
            } => {
                st.flush_mask(support);
                if collapses {
                    st.out.push(Fused::At(Site::Collapse { qubit, clbit }));
                }
            }
            Item::Barrier(mask) => st.flush_mask(mask),
        }
    }
    // Remaining blocks in the order they opened, then leftover chains.
    for bi in 0..st.blocks.len() {
        if let Some(b) = st.blocks[bi].take() {
            st.emit_block(b);
        }
    }
    st.active.fill(None);
    st.flush_mask((1 << n) - 1);
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{BLOCK_BITS, TILE_BITS};
    use crate::state::StateVector;
    use proptest::prelude::*;
    use qfw_num::approx_eq;
    use qfw_num::rng::Rng;
    use qfw_workloads::{ham, qaoa_ansatz, tfim, Qubo};
    use std::sync::mpsc;
    use std::time::Duration;

    /// The plan must leave the state the verbatim circuit leaves.
    fn fused_state_matches(qc: &Circuit) {
        let mut a = StateVector::zero(qc.num_qubits());
        let mut b = StateVector::zero(qc.num_qubits());
        a.run_unitary(qc);
        fuse(qc).apply_unitary(&mut b, false);
        assert!(
            approx_eq(a.fidelity(&b), 1.0, 1e-9),
            "fusion changed the state of {}",
            qc.name
        );
    }

    fn num_layers(qc: &Circuit) -> usize {
        fuse(qc).num_layers()
    }

    fn random_circuit(seed: u64, n: usize, len: usize) -> Circuit {
        let mut rng = Rng::seed_from(seed);
        let mut qc = Circuit::new(n).named("random");
        for _ in 0..len {
            let q = rng.index(n);
            let p = (q + 1 + rng.index(n - 1)) % n;
            match rng.index(10) {
                0 => qc.h(q),
                1 => qc.t(q),
                2 => qc.rx(q, rng.uniform(-3.0, 3.0)),
                3 => qc.rz(q, rng.uniform(-3.0, 3.0)),
                4 => qc.s(q),
                5 => qc.cx(q, p),
                6 => qc.cz(q, p),
                7 => qc.cp(q, p, rng.uniform(-2.0, 2.0)),
                8 => qc.rzz(q, p, rng.uniform(-1.0, 1.0)),
                _ => {
                    // Third operand drawn from the n-2 qubits != q, p.
                    let (lo, hi) = (q.min(p), q.max(p));
                    let mut r = rng.index(n - 2);
                    if r >= lo {
                        r += 1;
                    }
                    if r >= hi {
                        r += 1;
                    }
                    qc.ccx(q, p, r)
                }
            };
        }
        qc
    }

    #[test]
    fn fuses_runs_and_preserves_semantics() {
        let mut qc = Circuit::new(3).named("runs");
        qc.h(0).t(0).rx(0, 0.3).rz(0, -0.8); // chain on q0
        qc.h(1); // chain on q1
        qc.cx(0, 1); // absorbs both chains
        qc.s(2).sdg(2); // 2-run on q2 (= identity)
        assert_eq!(num_layers(&qc), 2, "one 4x4 block, one 2x2 chain");
        fused_state_matches(&qc);
    }

    #[test]
    fn two_qubit_gates_collapse_into_one_block() {
        let mut qc = Circuit::new(2).named("split");
        qc.h(0).cx(0, 1).h(0).cx(0, 1).h(0);
        assert_eq!(num_layers(&qc), 1);
        fused_state_matches(&qc);
    }

    #[test]
    fn fusion_order_is_left_to_right() {
        // t then h is NOT h then t; chains must multiply in application order.
        let mut qc = Circuit::new(1).named("order");
        qc.t(0).h(0);
        fused_state_matches(&qc);
        let mut qc2 = Circuit::new(1).named("order2");
        qc2.h(0).t(0);
        fused_state_matches(&qc2);
    }

    #[test]
    fn measurements_flush_chains_ahead_of_themselves() {
        // x after the measurement makes it mid-circuit: the h·t chain must
        // land in a group before the collapse, the x after it.
        let mut qc = Circuit::new(1).named("measured");
        qc.h(0).t(0).measure(0, 0).x(0);
        let plan = fuse(&qc);
        assert_eq!(plan.num_layers(), 2);
        assert_eq!(plan.passes(), 2);
        assert!(plan.readout().has_mid_circuit());
        // Without the x it is terminal and cuts nothing.
        let mut qc = Circuit::new(1);
        qc.h(0).t(0).measure(0, 0);
        let plan = fuse(&qc);
        assert_eq!((plan.num_layers(), plan.passes()), (1, 1));
        assert!(!plan.readout().has_mid_circuit());
    }

    #[test]
    fn empty_circuit_is_noop() {
        let plan = fuse(&Circuit::new(2));
        assert_eq!((plan.num_layers(), plan.passes()), (0, 0));
    }

    #[test]
    fn diagonal_run_of_any_width_is_one_layer() {
        let mut qc = Circuit::new(8).named("wide_diag");
        for q in 0..8 {
            qc.rz(q, 0.1 * (q + 1) as f64);
        }
        qc.cz(0, 1).rzz(1, 2, 0.7).cp(0, 7, -0.4).t(2);
        let plan = fuse(&qc);
        assert_eq!(plan.num_layers(), 1, "twelve diagonal gates -> one layer");
        let Layer::Diag(d) = &plan.layers()[0] else {
            panic!("expected a diagonal layer")
        };
        // Scalars per qubit and per coupled pair, never a 2^8 table.
        assert_eq!((d.form.flips.len(), d.form.pairs.len()), (8, 3));
        assert!(d.tables.is_empty());
        fused_state_matches(&qc);
    }

    #[test]
    fn wide_diagonal_unitaries_ride_along_as_factor_tables() {
        let ccz: Vec<C64> = (0..8)
            .map(|l| if l == 7 { -C64::ONE } else { C64::ONE })
            .collect();
        let mut qc = Circuit::new(4).named("ccz");
        for q in 0..4 {
            qc.h(q);
        }
        qc.rzz(0, 3, 0.4).rz(1, 0.3);
        qc.push(Gate::Unitary {
            qubits: vec![3, 0, 2],
            matrix: Arc::new(Matrix::diag(&ccz)),
            label: "ccz".into(),
        });
        let plan = fuse(&qc);
        assert_eq!(plan.num_layers(), 5, "four h chains and one diagonal layer");
        fused_state_matches(&qc);
    }

    #[test]
    fn degenerate_diagonals_stay_dense() {
        // Circuit text can carry a "unitary" that is diagonal but singular;
        // the run's ratio form cannot hold it, the dense kernels can.
        let mut qc = Circuit::new(2).named("singular");
        qc.h(0).h(1).rz(0, 0.3);
        qc.push(Gate::Unitary {
            qubits: vec![1],
            matrix: Arc::new(Matrix::diag(&[C64::ONE, C64::ZERO])),
            label: "proj0".into(),
        });
        qc.rz(1, 0.2);
        let mut got = StateVector::zero(2);
        fuse(&qc).apply_unitary(&mut got, false);
        let mut want = StateVector::zero(2);
        want.run_unitary(&qc);
        for (a, b) in got.amps().iter().zip(want.amps()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn diagonal_run_survives_disjoint_nondiagonal_gates() {
        // h(3) is disjoint from the run on q0..q2 and must not split it.
        let mut qc = Circuit::new(4).named("disjoint");
        qc.rz(0, 0.5).h(3).cz(0, 1).rz(1, -0.2).rzz(1, 2, 0.3);
        assert_eq!(num_layers(&qc), 2, "h(3) and one diagonal layer");
        fused_state_matches(&qc);
    }

    #[test]
    fn nondiagonal_gate_on_run_qubit_flushes() {
        let mut qc = Circuit::new(3).named("flush");
        qc.rz(0, 0.5)
            .rz(1, 0.1)
            .rz(2, 0.2)
            .h(0)
            .rz(0, 0.5)
            .rz(1, 0.1)
            .rz(2, 0.2);
        // diag, h(0), diag: h(0) must split the run.
        assert_eq!(num_layers(&qc), 3);
        fused_state_matches(&qc);
    }

    #[test]
    fn two_qubit_blocks_absorb_1q_runs() {
        let mut qc = Circuit::new(2).named("absorb");
        qc.h(0).t(0).h(1).cx(0, 1).rx(0, 0.3).cz(0, 1);
        assert_eq!(num_layers(&qc), 1, "everything lands in one 4x4 block");
        fused_state_matches(&qc);
    }

    #[test]
    fn blocks_split_when_pairs_change() {
        let mut qc = Circuit::new(3).named("chain");
        qc.cx(0, 1).cx(1, 2).cx(0, 1);
        // (0,1) block, then (1,2) block, then a fresh (0,1) block.
        assert_eq!(num_layers(&qc), 3);
        fused_state_matches(&qc);
    }

    #[test]
    fn reversed_qubit_order_merges_into_same_block() {
        // cx(1,0) then cx(0,1) share the pair {0,1} and must fuse into one
        // block with the operand order reconciled — and come out ascending.
        let mut qc = Circuit::new(2).named("reversed");
        qc.cx(1, 0).cx(0, 1).cx(1, 0);
        let plan = fuse(&qc);
        assert_eq!(plan.num_layers(), 1);
        assert!(matches!(&plan.layers()[0], Layer::Dense { qubits, .. } if qubits == &[0, 1]));
        fused_state_matches(&qc);
    }

    #[test]
    fn ghz_full_fusion_gate_count() {
        let mut qc = Circuit::new(6).named("ghz6");
        qc.h(0);
        for q in 0..5 {
            qc.cx(q, q + 1);
        }
        // h+cx(0,1) fuse; each later cx opens a new pair block.
        assert_eq!(num_layers(&qc), 5);
        fused_state_matches(&qc);
    }

    #[test]
    fn chains_keep_their_shape_tags() {
        let mut qc = Circuit::new(3);
        qc.rx(0, 0.3).rx(0, 0.4).h(1).ry(1, 0.2).h(2).rx(2, 0.1);
        let shapes: Vec<Shape1q> = fuse(&qc)
            .layers()
            .iter()
            .map(|l| match l {
                Layer::Local1q { shape, .. } => *shape,
                other => panic!("expected a chain, got {other:?}"),
            })
            .collect();
        assert_eq!(shapes, [Shape1q::XPhase, Shape1q::Real, Shape1q::General]);
    }

    #[test]
    fn fusion_reduces_layer_count_on_random_circuits() {
        for seed in 0..5 {
            let qc = random_circuit(100 + seed, 6, 80);
            let layers = num_layers(&qc);
            assert!(
                layers < qc.num_gates(),
                "seed {seed}: {} -> {layers}",
                qc.num_gates()
            );
        }
    }

    /// The structure the executor's speed rests on: a Trotter step is
    /// about one pass, not one per gate, once layers join groups across
    /// the layers they commute with.
    #[test]
    fn layered_circuits_execute_in_few_passes() {
        let tfim18 = fuse(&tfim(18));
        assert!(tfim18.num_layers() <= 190, "{} layers", tfim18.num_layers());
        assert!(tfim18.passes() <= 11, "TFIM-18: {} passes", tfim18.passes());
        let qubo = Qubo::metamaterial(18, 3, 0x51AB + 18);
        let theta: Vec<f64> = (0..4).map(|k| 0.35 + 0.11 * k as f64).collect();
        let qaoa18 = fuse(&qaoa_ansatz(&qubo, 2).bind(&theta));
        assert!(
            qaoa18.passes() <= 4,
            "QAOA-18 p=2: {} passes",
            qaoa18.passes()
        );
        // At or below the tile width the whole circuit is one pass.
        assert_eq!(fuse(&tfim(10)).passes(), 1);
    }

    /// Passes of a cut in circuit order, as the plan cut before layers
    /// joined groups across the ones they commute with: each group is the
    /// longest run whose targets and the block bits fit a tile.
    fn in_order_passes(qc: &Circuit) -> usize {
        let n = qc.num_qubits();
        let (tile_bits, low) = (TILE_BITS.min(n), (1u64 << BLOCK_BITS.min(n)) - 1);
        let (mut passes, mut needs) = (0, None);
        for item in fuse_blocks(n, merge_diagonal_runs(n, n, qc, &Readout::of(qc))) {
            let Fused::Layer(layer) = item else {
                panic!("no measurements in these circuits")
            };
            let grown = needs.unwrap_or(low) | layer.targets();
            needs = if needs.is_some() && grown.count_ones() as usize <= tile_bits {
                Some(grown)
            } else {
                passes += 1;
                Some(low | layer.targets())
            };
        }
        passes
    }

    #[test]
    fn commuting_cut_never_makes_more_passes_than_circuit_order() {
        let qubo = Qubo::metamaterial(16, 3, 7);
        let mut circuits = vec![
            tfim(16),
            tfim(18),
            ham(16),
            qaoa_ansatz(&qubo, 2).bind(&[0.3, 0.4, 0.5, 0.6]),
        ];
        for n in [3, 5, 9, 12, 14, 16] {
            for seed in 0..4 {
                circuits.push(random_circuit(77 * n as u64 + seed, n, 6 * n));
            }
        }
        for qc in &circuits {
            let (got, want) = (fuse(qc).passes(), in_order_passes(qc));
            assert!(
                got <= want,
                "{} on {}: {got} > {want} passes",
                qc.name,
                qc.num_qubits()
            );
        }
        assert!(fuse(&tfim(18)).passes() < in_order_passes(&tfim(18)));
    }

    /// A dense layer wider than the tile gets a group of its own; the cut
    /// must not wait forever for a group it fits.
    #[test]
    fn layer_wider_than_the_tile_still_gets_a_group() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut qc = Circuit::new(12);
            qc.h(0).push(Gate::Unitary {
                qubits: (3..12).collect(),
                matrix: Arc::new(Matrix::identity(1 << 9)),
                label: "wide".into(),
            });
            qc.h(0).h(11);
            let plan = fuse(&qc);
            tx.send((plan.num_layers(), plan.passes())).unwrap();
        });
        let (layers, passes) = rx.recv_timeout(Duration::from_secs(20)).expect("cut hung");
        // The wide block alone, then the h(0) pair's chain and h(11).
        assert_eq!((layers, passes), (3, 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Fusion preserves final-state fidelity on random circuits mixing
        /// diagonal, dense 1q, 2q, and 3q gates.
        #[test]
        fn fusion_preserves_fidelity(seed in 0u64..10_000, n in 3usize..6, len in 10usize..60) {
            fused_state_matches(&random_circuit(seed, n, len));
        }
    }
}
