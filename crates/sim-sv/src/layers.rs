//! The layer plan and its tile-by-tile executor.
//!
//! [`fuse`](crate::fusion::fuse) rewrites a circuit into a short sequence
//! of [`Layer`]s. The plan then cuts that sequence into **tile groups**
//! whose non-diagonal targets, together with the [`BLOCK_BITS`] lowest
//! register qubits, number at most [`TILE_BITS`]; a layer that does not fit
//! waits for a later group, and a later layer that commutes with every
//! layer waiting before it still joins. A group executes as *one* pass
//! over memory: for every assignment of the register qubits outside the
//! group's tile, the `2^TILE_BITS` amplitudes that differ only in the
//! tile's qubits are gathered (as contiguous strips) into L1-resident
//! planes, every layer of the group is applied to them with the shared
//! [`kernels`](crate::kernels), and they are scattered back.
//!
//! * Diagonal layers never end a group: seen from a tile, a diagonal
//!   factor on outside qubits is a constant or a single-qubit phase read
//!   off the tile's base index ([`PhaseForm::localize`]).
//! * A tile's qubits need not be the lowest ones, so non-diagonal gates on
//!   high qubits are strip-tiled like any other: a Trotter step of TFIM-18
//!   is about one pass, not one per gate.
//! * A run from `|0…0⟩` applies the leading layers that keep the register
//!   a product state by doubling ([`LayerPlan::apply_to_zero`]) and skips
//!   the groups they cover.
//! * Tiles are independent and each amplitude's arithmetic is fixed, so
//!   `Serial`, `Rayon` and every [`IsaTier`] leave bit-identical states;
//!   threading is one shim dispatch per group, taken when the group's work
//!   (amplitudes x layers) pays for the thread hand-off.

use crate::kernels::{
    self, apply_kq, load_strip, pair_1q, store_strip, DiagForm, IsaTier, Mat2, Monomial2q,
    PhaseForm, Shape1q, TileMap, BLOCK_BITS, TILE_BITS,
};
use crate::state::{insert_zero_bit, StateVector};
use qfw_circuit::Readout;
use qfw_num::complex::C64;
use qfw_num::rng::Rng;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// Below this much work (amplitudes x layers) a tile group runs on the
/// calling thread: two scoped workers cost ~50 us to start and join, about
/// what a million amplitude updates take.
const PAR_WORK: usize = 1 << 20;

/// One fused operation of a plan, over register qubits.
#[derive(Clone, Debug, PartialEq)]
pub enum Layer {
    /// A whole run of commuting diagonal gates, any width.
    Diag(DiagLayer),
    /// One qubit's chain of single-qubit gates, multiplied out.
    Local1q {
        /// Target qubit.
        qubit: usize,
        /// The chain's product.
        m: Mat2,
        /// Which butterfly serves `m`.
        shape: Shape1q,
    },
    /// A dense block: a fused two-qubit region (qubits ascending) or a
    /// wider gate passed through.
    Dense {
        /// Qubits; entry `j` is local bit `j` of the matrix basis.
        qubits: Vec<usize>,
        /// Row-major `2^k x 2^k` matrix.
        m: Vec<C64>,
    },
}

/// A run of diagonal gates: the one- and two-qubit ones collapsed into a
/// [`DiagForm`], wider diagonal unitaries kept as their own `2^k` factor
/// tables (`k` is the *gate's* width, so they stay cache-sized).
#[derive(Clone, Debug, PartialEq)]
pub struct DiagLayer {
    pub(crate) form: DiagForm,
    pub(crate) tables: Vec<FactorTable>,
    /// Every qubit some factor reads, as a bit mask.
    pub(crate) support: u64,
}

/// The diagonal of one `k >= 3`-qubit diagonal gate.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FactorTable {
    /// Entry `j` is bit `j` of the index into `phases`.
    pub(crate) qubits: Vec<usize>,
    pub(crate) phases: Vec<C64>,
}

impl Layer {
    /// Qubits the layer acts on non-diagonally — the ones a tile must hold.
    pub(crate) fn targets(&self) -> u64 {
        match self {
            Layer::Diag(_) => 0,
            Layer::Local1q { qubit, .. } => 1 << qubit,
            Layer::Dense { qubits, .. } => qubits.iter().fold(0, |m, q| m | 1 << q),
        }
    }

    /// Every qubit the layer reads.
    fn support(&self) -> u64 {
        match self {
            Layer::Diag(d) => d.support,
            _ => self.targets(),
        }
    }
}

impl DiagLayer {
    /// Whether every phase the layer applies has a positive real part, so
    /// that it leaves a `+0` amplitude `+0`. Over spins `s = 1 - 2b` the
    /// phase angle is `c + sum h_q s_q + sum J_ab s_a s_b`, bounded by
    /// `|c| + sum |h| + sum |J|` (plus the widest angle of each factor
    /// table); below 1.5 rad no rounding can cross zero.
    fn keeps_zeros(&self) -> bool {
        let arg = |z: &C64| z.im.atan2(z.re);
        let mut c = arg(&self.form.p0);
        let mut h = [0.0f64; 64];
        let mut bound = 0.0;
        for (q, f) in &self.form.flips {
            c += arg(f) / 2.0;
            h[*q] -= arg(f) / 2.0;
        }
        for (a, b, w) in &self.form.pairs {
            let j = arg(w) / 4.0;
            (c, h[*a], h[*b]) = (c + j, h[*a] - j, h[*b] - j);
            bound += j.abs();
        }
        let widest = |t: &FactorTable| t.phases.iter().map(|z| arg(z).abs()).fold(0.0, f64::max);
        bound += self.tables.iter().map(widest).sum::<f64>();
        c.abs() + h.iter().map(|x| x.abs()).sum::<f64>() + bound < 1.5
    }
}

/// What the fuser hands the plan, in circuit order.
pub(crate) enum Fused {
    Layer(Layer),
    /// A mid-circuit measurement or a Kraus site.
    At(Site),
}

#[derive(Clone, Debug, PartialEq)]
enum Step {
    /// One pass over memory.
    Tiles(TileGroup),
    /// Where the caller acts on the state itself.
    At(Site),
}

/// A point of a plan where the caller acts on the state itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Site {
    /// A mid-circuit measurement: collapse one trajectory.
    Collapse { qubit: usize, clbit: usize },
    /// A noisy trajectory's Kraus site: after a gate on `arity` qubits,
    /// the channels of `qubit`, applied with [`apply_local_1q`].
    Kraus { qubit: usize, arity: usize },
}

/// Applies the 2x2 `m` — any operator, unitary or not — to `qubit` of `sv`
/// as one [`Layer::Local1q`] pass through the tile kernels.
pub(crate) fn apply_local_1q(sv: &mut StateVector, qubit: usize, m: Mat2) {
    let n = sv.num_qubits();
    let layer = Layer::Local1q {
        qubit,
        m,
        shape: Shape1q::of(&m),
    };
    let group = TileGroup {
        layers: 0..1,
        map: tile_map(n, n, 1 << qubit),
    };
    group.run(&[layer], sv.amps_mut(), 0, false, IsaTier::detect());
}

#[derive(Clone, Debug, PartialEq)]
struct TileGroup {
    /// Indices into [`LayerPlan::layers`].
    layers: Range<usize>,
    map: TileMap,
}

/// A fused circuit, cut into tile groups and ready to execute — what
/// `FusionLevel::Full` runs and what a rank of the distributed engine runs
/// on its shard between two remaps ([`crate::dist::DistPlan`]).
#[derive(Clone, Debug, PartialEq)]
pub struct LayerPlan {
    num_qubits: usize,
    /// Register qubits the amplitude buffer indexes: all of them for the
    /// local engine, the low `n - r` positions for one of `2^r` ranks.
    local_bits: usize,
    layers: Vec<Layer>,
    steps: Vec<Step>,
    /// What sampling the final state reads.
    readout: Readout,
    /// How many leading layers a run from `|0…0⟩` applies by doubling
    /// ([`apply_to_zero`](Self::apply_to_zero)).
    start: usize,
}

impl LayerPlan {
    /// Cuts fused items into tile groups; a mid-circuit measurement ends
    /// the open group and collapses the state there.
    ///
    /// Tiles are drawn from the low `local_bits` qubits only, so every
    /// non-diagonal target must lie below `local_bits`; diagonal layers may
    /// read any qubit.
    pub(crate) fn build(
        num_qubits: usize,
        local_bits: usize,
        readout: Readout,
        items: Vec<Fused>,
    ) -> LayerPlan {
        let mut plan = LayerPlan {
            num_qubits,
            local_bits,
            layers: Vec::new(),
            steps: Vec::new(),
            readout,
            start: 0,
        };
        let mut run = Vec::new();
        for item in items {
            match item {
                Fused::Layer(layer) => {
                    assert_eq!(
                        layer.targets() >> local_bits,
                        0,
                        "non-diagonal target outside the buffer"
                    );
                    run.push(layer);
                }
                Fused::At(site) => {
                    plan.cut(std::mem::take(&mut run));
                    plan.steps.push(Step::At(site));
                }
            }
        }
        plan.cut(run);
        plan.start = plan.product_start();
        plan
    }

    /// Cuts a run of layers into tile groups. A group takes, in order,
    /// every layer left that fits its tile and commutes with each layer it
    /// leaves behind before it (disjoint supports, or both diagonal); the
    /// next group starts over on what was left. Layers inside a group keep
    /// their order. The first group holds at least what a cut in circuit
    /// order would put there, and so on, so this never makes more groups.
    /// A layer wider than the tile opens a group of its own, as the
    /// in-order cut gave it, so every round places a layer; the kernels
    /// refuse such a layer when the plan runs.
    fn cut(&mut self, mut pending: Vec<Layer>) {
        let tile_bits = TILE_BITS.min(self.local_bits);
        let low_mask = (1u64 << BLOCK_BITS.min(self.local_bits)) - 1;
        while !pending.is_empty() {
            let start = self.layers.len();
            let mut needs = low_mask;
            // Supports of the layers left behind: all, and the non-diagonal.
            let (mut left, mut left_dense) = (0u64, 0u64);
            let mut rest = Vec::new();
            for layer in pending {
                let diag = matches!(layer, Layer::Diag(_));
                let grown = needs | layer.targets();
                let blocked = layer.support() & if diag { left_dense } else { left } != 0;
                let fits = grown.count_ones() as usize <= tile_bits;
                if !blocked && (fits || self.layers.len() == start) {
                    needs = grown;
                    self.layers.push(layer);
                    continue;
                }
                left |= layer.support();
                if !diag {
                    left_dense |= layer.support();
                }
                rest.push(layer);
            }
            self.close_group(start, needs);
            pending = rest;
        }
    }

    /// Ends the group of layers `start..`.
    fn close_group(&mut self, start: usize, needs: u64) {
        if start == self.layers.len() {
            return;
        }
        self.steps.push(Step::Tiles(TileGroup {
            layers: start..self.layers.len(),
            map: tile_map(self.num_qubits, self.local_bits, needs),
        }));
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// What sampling the final state reads.
    pub fn readout(&self) -> &Readout {
        &self.readout
    }

    /// The fused layers, in application order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of fused layers (what `SvOutcome::gates_applied` reports).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Full-state passes over memory one execution makes: one per tile
    /// group (mid-circuit collapses not counted).
    pub fn passes(&self) -> usize {
        self.groups().count()
    }

    /// The passes [`apply_to_zero`](Self::apply_to_zero) makes: the groups
    /// holding a layer past the product start.
    pub fn passes_from_zero(&self) -> usize {
        self.groups().filter(|g| g.layers.end > self.start).count()
    }

    fn groups(&self) -> impl Iterator<Item = &TileGroup> {
        self.steps.iter().filter_map(|step| match step {
            Step::Tiles(group) => Some(group),
            _ => None,
        })
    }

    /// Runs the plan on `sv` with the fastest kernels this CPU has.
    /// Returns the classical bits of collapsed mid-circuit measurements.
    /// Kraus sites belong to a noisy trajectory's own run and are passed
    /// over here, as by every public entry.
    pub fn apply(
        &self,
        sv: &mut StateVector,
        rng: &mut Rng,
        parallel: bool,
    ) -> BTreeMap<usize, u8> {
        self.apply_on(IsaTier::detect(), sv, rng, parallel)
    }

    /// [`apply`](Self::apply) on an explicit kernel tier — every tier
    /// leaves the same bits, which is what the property suite checks by
    /// calling them side by side.
    pub fn apply_on(
        &self,
        tier: IsaTier,
        sv: &mut StateVector,
        rng: &mut Rng,
        parallel: bool,
    ) -> BTreeMap<usize, u8> {
        let mut collapsed = BTreeMap::new();
        self.execute(tier, sv, 0, 0, parallel, |sv, site| {
            if let Site::Collapse { qubit, clbit } = site {
                collapsed.insert(clbit, sv.measure(qubit, rng, false));
            }
        });
        collapsed
    }

    /// Runs only the unitary part: mid-circuit measurements are skipped,
    /// as [`StateVector::run_unitary`] skips them.
    pub fn apply_unitary(&self, sv: &mut StateVector, parallel: bool) {
        self.execute(IsaTier::detect(), sv, 0, 0, parallel, |_, _| {});
    }

    /// [`apply`](Self::apply) on `|0…0⟩`, which the plan builds itself:
    /// the leading layers that keep the register a product state are
    /// applied by doubling, and a tile group they cover whole is never
    /// run. Leaves the bits `apply` leaves on [`StateVector::zero`]. With
    /// no `rng`, mid-circuit measurements are skipped, as in
    /// [`apply_unitary`](Self::apply_unitary).
    pub fn apply_to_zero(
        &self,
        mut rng: Option<&mut Rng>,
        parallel: bool,
    ) -> (StateVector, BTreeMap<usize, u8>) {
        let mut collapsed = BTreeMap::new();
        let sv = self.run_from_zero(parallel, |sv, site| {
            if let (Site::Collapse { qubit, clbit }, Some(rng)) = (site, rng.as_deref_mut()) {
                collapsed.insert(clbit, sv.measure(qubit, rng, false));
            }
        });
        (sv, collapsed)
    }

    /// The plan on the `|0…0⟩` [`apply_to_zero`](Self::apply_to_zero)
    /// builds, handing every collapse and Kraus site to `at`.
    pub(crate) fn run_from_zero(
        &self,
        parallel: bool,
        at: impl FnMut(&mut StateVector, Site),
    ) -> StateVector {
        let mut sv = self.product_state();
        self.execute(IsaTier::detect(), &mut sv, 0, self.start, parallel, at);
        sv
    }

    /// How many leading layers keep `|0…0⟩` a product state whose zero
    /// amplitudes all stay `+0` — the condition under which doubling
    /// reproduces the tile path bit for bit: diagonal layers before any
    /// qubit leaves `|0⟩` (a constant phase there) whose phases never turn
    /// a zero into `-0`, then the first single-qubit layer on each qubit
    /// whose butterfly maps a pair of zeros to zeros.
    fn product_start(&self) -> usize {
        let before_collapse = self.steps.iter().map_while(|step| match step {
            Step::Tiles(group) => Some(group.layers.end),
            _ => None,
        });
        let mut doubled = 0u64;
        let layers = &self.layers[..before_collapse.last().unwrap_or(0)];
        let holds = |layer: &&Layer| {
            let holds = match layer {
                Layer::Diag(d) => doubled == 0 && d.keeps_zeros(),
                Layer::Local1q { qubit, m, shape } => {
                    let (a, b) = pair_1q(m, *shape, C64::ZERO);
                    let bits = [a.re, a.im, b.re, b.im].map(f64::to_bits);
                    doubled >> qubit & 1 == 0 && bits == [0; 4]
                }
                Layer::Dense { .. } => false,
            };
            doubled |= layer.targets();
            holds
        };
        layers.iter().take_while(holds).count()
    }

    /// The state the product start leaves on `|0…0⟩`. While `k` qubits
    /// have had their single-qubit layer only the `2^k` amplitudes over
    /// them are nonzero; the next such layer writes each of them and its
    /// partner with the tile kernels' expression for its shape and a `+0`
    /// partner ([`pair_1q`]), which is what every zero amplitude still
    /// holds.
    fn product_state(&self) -> StateVector {
        let mut sv = StateVector::zero(self.local_bits);
        let amps = sv.amps_mut();
        let mut doubled = 0usize;
        for layer in &self.layers[..self.start] {
            match layer {
                // A tile's phase at index 0: the form's constant, then each
                // factor table's entry 0.
                Layer::Diag(d) => {
                    amps[0] *= d.tables.iter().fold(d.form.p0, |p, t| p * t.phases[0])
                }
                Layer::Local1q { qubit, m, shape } => {
                    // Every subset of the doubled qubits, ascending.
                    let mut i = 0usize;
                    loop {
                        let (a, b) = pair_1q(m, *shape, amps[i]);
                        (amps[i], amps[i | 1 << qubit]) = (a, b);
                        i = i.wrapping_sub(doubled) & doubled;
                        if i == 0 {
                            break;
                        }
                    }
                    doubled |= 1 << qubit;
                }
                Layer::Dense { .. } => unreachable!("the product start holds no dense layer"),
            }
        }
        sv
    }

    /// `sv` is the buffer the plan indexes; `above` holds the register's
    /// index bits beyond it (0 when it is the whole register). Layers
    /// below `skip` are already applied.
    fn execute(
        &self,
        tier: IsaTier,
        sv: &mut StateVector,
        above: usize,
        skip: usize,
        parallel: bool,
        mut at: impl FnMut(&mut StateVector, Site),
    ) {
        assert_eq!(sv.num_qubits(), self.local_bits, "register size mismatch");
        for step in &self.steps {
            match step {
                Step::Tiles(group) => {
                    let Range { start, end } = group.layers;
                    let layers = &self.layers[start.max(skip).min(end)..end];
                    if !layers.is_empty() {
                        group.run(layers, sv.amps_mut(), above, parallel, tier);
                    }
                }
                Step::At(site) => at(sv, *site),
            }
        }
    }

    /// Runs the plan on one rank's shard: `shard` holds the `2^local_bits`
    /// amplitudes whose index bits above the buffer read `above` (the rank
    /// number shifted past the local bits), which is all a diagonal factor
    /// on a rank bit needs to know.
    ///
    /// # Panics
    /// Panics on a plan that collapses mid-way: a measurement across ranks
    /// is a collective, which the distributed plan sequences itself.
    pub(crate) fn apply_to_shard(&self, shard: &mut StateVector, above: usize) {
        self.execute(IsaTier::detect(), shard, above, 0, false, |_, _| {
            panic!("a shard plan holds no measurements")
        });
    }
}

/// A layer as one tile sees it: qubits translated to local bits.
enum LocalOp<'a> {
    OneQ {
        q: usize,
        m: &'a Mat2,
        shape: Shape1q,
    },
    TwoQ {
        lo: usize,
        hi: usize,
        u: &'a [C64; 16],
    },
    /// A two-qubit block that only permutes and rescales runs.
    Monomial {
        lo: usize,
        hi: usize,
        m: Monomial2q,
    },
    KQ {
        qubits: Vec<usize>,
        m: &'a [C64],
    },
    Diag(&'a DiagLayer),
}

/// Per-worker tile buffers: the amplitude planes and the phase-table
/// planes of the diagonal layers.
struct Scratch {
    re: Vec<f64>,
    im: Vec<f64>,
    tre: Vec<f64>,
    tim: Vec<f64>,
    form: PhaseForm,
}

impl Scratch {
    fn new(tile_bits: usize) -> Scratch {
        let len = 1usize << tile_bits;
        Scratch {
            re: vec![0.0; len],
            im: vec![0.0; len],
            tre: vec![0.0; len],
            tim: vec![0.0; len],
            form: PhaseForm::identity(tile_bits),
        }
    }
}

/// Raw pointer into the amplitude buffer, shared by the tile workers.
#[derive(Clone, Copy)]
struct SharedAmps(*mut C64);
// SAFETY: the pointer is only dereferenced through `strip`, whose callers
// hand distinct workers disjoint index ranges (see `TileGroup::run`).
unsafe impl Sync for SharedAmps {}
unsafe impl Send for SharedAmps {}

impl SharedAmps {
    /// The `len` amplitudes from `start`.
    ///
    /// # Safety
    /// `start + len` must lie inside the buffer the pointer was taken from,
    /// that buffer must outlive the returned slice, and no other live
    /// reference may overlap the range.
    #[inline(always)]
    unsafe fn strip<'a>(self, start: usize, len: usize) -> &'a mut [C64] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// The tile over the qubits `needs` and the [`BLOCK_BITS`] lowest of a
/// buffer over `local_bits` of `num_qubits` register qubits, padded with the
/// lowest free qubits so strips are as long as they can be.
fn tile_map(num_qubits: usize, local_bits: usize, needs: u64) -> TileMap {
    let tile_bits = TILE_BITS.min(local_bits);
    let mut mask = needs | ((1u64 << BLOCK_BITS.min(local_bits)) - 1);
    let mut q = 0;
    while (mask.count_ones() as usize) < tile_bits {
        mask |= 1 << q;
        q += 1;
    }
    let qubits = (0..num_qubits).filter(|q| mask >> q & 1 == 1).collect();
    TileMap::new(num_qubits, qubits)
}

impl TileGroup {
    /// One pass of `layers` over `amps`, tile by tile. `above` holds the
    /// register's index bits beyond the buffer (0 when the buffer is the
    /// whole register).
    fn run(&self, layers: &[Layer], amps: &mut [C64], above: usize, parallel: bool, tier: IsaTier) {
        let qubits = self.map.qubits();
        let t = qubits.len();
        // The tile's lowest qubits that are also the register's lowest: a
        // strip of `2^low` amplitudes is contiguous in both.
        let low = qubits
            .iter()
            .enumerate()
            .take_while(|&(j, &q)| j == q)
            .count();
        let strip = 1usize << low;
        let strip_offsets: Vec<usize> = (0..1usize << (t - low))
            .map(|h| {
                qubits[low..]
                    .iter()
                    .enumerate()
                    .fold(0, |off, (j, &q)| off | (h >> j & 1) << q)
            })
            .collect();
        let local = |q: &usize| self.map.local(*q).expect("group tile holds its targets");
        let ops: Vec<LocalOp<'_>> = layers
            .iter()
            .map(|layer| match layer {
                Layer::Diag(d) => LocalOp::Diag(d),
                Layer::Local1q { qubit, m, shape } => LocalOp::OneQ {
                    q: local(qubit),
                    m,
                    shape: *shape,
                },
                Layer::Dense { qubits, m } if qubits.len() == 2 => {
                    let (lo, hi) = (local(&qubits[0]), local(&qubits[1]));
                    let u: &[C64; 16] = m.as_slice().try_into().expect("4x4 block");
                    // Run swaps only pay where runs are at least a block
                    // long; below, the small-block kernel is faster.
                    match Monomial2q::of(u) {
                        Some(m) if lo >= BLOCK_BITS => LocalOp::Monomial { lo, hi, m },
                        _ => LocalOp::TwoQ { lo, hi, u },
                    }
                }
                Layer::Dense { qubits, m } => LocalOp::KQ {
                    qubits: qubits.iter().map(local).collect(),
                    m,
                },
            })
            .collect();

        let tiles = amps.len() >> t;
        let shared = SharedAmps(amps.as_mut_ptr());
        let run_tile = |sc: &mut Scratch, tile: usize| {
            let base = qubits.iter().fold(tile, |x, &q| insert_zero_bit(x, q));
            for (h, &off) in strip_offsets.iter().enumerate() {
                // SAFETY: `base | off` has zeros in the low `low` bits and
                // is below `amps.len()`, so the strip is in bounds; `amps`
                // is mutably borrowed for the whole call. Two tiles differ
                // in a bit outside the tile's qubits and two strips of one
                // tile in a bit outside the strip, so no two strips of the
                // pass overlap.
                let src = unsafe { shared.strip(base | off, strip) };
                let at = h * strip..(h + 1) * strip;
                load_strip(src, &mut sc.re[at.clone()], &mut sc.im[at]);
            }
            for op in &ops {
                match op {
                    LocalOp::OneQ { q, m, shape } => {
                        kernels::apply_1q(tier, &mut sc.re, &mut sc.im, *q, m, *shape)
                    }
                    LocalOp::TwoQ { lo, hi, u } => {
                        kernels::apply_2q(tier, &mut sc.re, &mut sc.im, *lo, *hi, u)
                    }
                    LocalOp::Monomial { lo, hi, m } => {
                        kernels::apply_2q_monomial(tier, &mut sc.re, &mut sc.im, *lo, *hi, m)
                    }
                    LocalOp::KQ { qubits, m } => apply_kq(&mut sc.re, &mut sc.im, qubits, m),
                    LocalOp::Diag(d) => {
                        sc.form.localize(&d.form, &self.map, above | base);
                        kernels::phase_table(tier, &sc.form, &mut sc.tre, &mut sc.tim);
                        for table in &d.tables {
                            table.fold_into(&self.map, above | base, &mut sc.tre, &mut sc.tim);
                        }
                        kernels::mul_table(tier, &mut sc.re, &mut sc.im, &sc.tre, &sc.tim);
                    }
                }
            }
            for (h, &off) in strip_offsets.iter().enumerate() {
                // SAFETY: as for the load above.
                let dst = unsafe { shared.strip(base | off, strip) };
                let at = h * strip..(h + 1) * strip;
                store_strip(dst, &sc.re[at.clone()], &sc.im[at]);
            }
        };
        if parallel && tiles >= 2 && amps.len() * ops.len() >= PAR_WORK {
            (0..tiles)
                .into_par_iter()
                .for_each_init(|| Scratch::new(t), run_tile);
        } else {
            let mut sc = Scratch::new(t);
            (0..tiles).for_each(|tile| run_tile(&mut sc, tile));
        }
    }
}

impl FactorTable {
    /// Multiplies the factor's phases onto a tile's phase table.
    fn fold_into(&self, map: &TileMap, base: usize, tre: &mut [f64], tim: &mut [f64]) {
        // Index bits fixed by the tile's base, and `(local bit, index bit)`
        // for the ones that vary inside the tile.
        let mut fixed = 0usize;
        let mut varying = Vec::with_capacity(self.qubits.len());
        for (j, &q) in self.qubits.iter().enumerate() {
            match map.local(q) {
                Some(l) => varying.push((l, j)),
                None => fixed |= (base >> q & 1) << j,
            }
        }
        for (l, (tr, ti)) in tre.iter_mut().zip(tim.iter_mut()).enumerate() {
            let idx = varying
                .iter()
                .fold(fixed, |idx, &(lb, j)| idx | (l >> lb & 1) << j);
            let p = C64::new(*tr, *ti) * self.phases[idx];
            (*tr, *ti) = (p.re, p.im);
        }
    }
}
