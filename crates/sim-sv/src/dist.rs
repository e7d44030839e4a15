//! Rank-distributed state-vector simulation (the "MPI" sub-backend).
//!
//! The `2^n` amplitudes are block-partitioned across `R = 2^r` ranks: rank
//! `k` holds global indices `k * 2^L .. (k+1) * 2^L` with `L = n - r` local
//! bits. Gates on the low `L` *physical* bit positions are embarrassingly
//! local; anything touching the high `r` positions needs communication —
//! the cost that eventually caps strong scaling (the paper's TFIM-28
//! process sweep).
//!
//! Routing is communication-avoiding index remapping: a lazy
//! logical→physical qubit permutation is maintained instead of moving data
//! per gate. Gates whose operands are already physically local apply in
//! place under the permutation; *diagonal* gates (`rz`, `rzz`, `cz`, `cp`,
//! ...) apply as local phase sweeps at **any** placement with zero
//! exchanges, because their phase depends only on bit values each rank
//! already knows. Only a non-diagonal gate with high operands forces data
//! movement, and then a single batched remap (one aggregated all-to-all
//! slice exchange, with victims chosen by farthest-next-use lookahead)
//! re-localizes every upcoming operand it can, so one exchange typically
//! serves a whole circuit layer.
//!
//! None of those decisions reads an amplitude, so a job makes them once,
//! before any rank exists: [`DistPlan::build`] replays the router over the
//! op list and emits **epochs** — the ops between two remaps, relabelled to
//! physical positions and fused into a [`LayerPlan`] whose tiles stay
//! inside the `L` local bits — separated by the remaps themselves, and
//! ending on the flush back to the identity placement. A rank then runs
//! each epoch on its shard through the same tile executor and kernels as
//! the local engine ([`crate::layers`]), and exchanges between them. The
//! plan is the only router: every distributed job runs one, and readout
//! always finds logical qubit `q` at position `q`.

use crate::engine::SvOutcome;
use crate::fusion::{absorbable_diagonal, fuse_shard};
use crate::layers::LayerPlan;
use crate::state::{
    block_masses, block_shot_split, canonical_split_bits, draw_blocks, local_offsets, StateVector,
};
use qfw_circuit::{Circuit, Counts, Op, Readout};
use qfw_hpc::RankCtx;
use qfw_num::complex::C64;
use qfw_num::rng::Rng;
use qfw_obs::Obs;
use std::collections::BTreeMap;

/// How the distributed engine routes gates that touch high qubits. Lazy
/// remapping is the only router; the type (and the `route` parameter of
/// [`run_distributed_laid_out`]) survives because the repository's
/// benchmark harness names them and may not change in step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RouteStrategy {
    /// Lazy logical→physical permutation with batched remaps.
    #[default]
    Lazy,
}

/// Communication tallies for one distributed run, kept per rank and
/// summed over the world by [`DistStateVector::stats_allreduced`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Exchange operations (one batched remap counts once however many
    /// ranks it touches).
    pub exchanges: u64,
    /// Point-to-point payload messages posted by exchange operations.
    pub messages: u64,
    /// Payload bytes posted by exchange operations.
    pub bytes: u64,
}

/// How many upcoming ops the lazy router scans when planning a remap
/// batch and ranking eviction victims by next use.
const LOOKAHEAD_WINDOW: usize = 256;

// --- lazy permutation routing ------------------------------------------------

/// What the router's lookahead reads of a circuit: per op, the operands of
/// a gate that must be physically local when it runs — `None` for
/// measurements, barriers and the diagonal gates that run at any
/// placement.
fn locality_needs(ops: &[Op]) -> Vec<Option<Vec<usize>>> {
    ops.iter()
        .map(|op| match op {
            Op::Gate(g) if absorbable_diagonal(g).is_none() => Some(g.qubits()),
            _ => None,
        })
        .collect()
}

/// The fewest local qubits a shard of `circuit` needs: the operand count
/// of its widest gate that must run on local operands, and never less than
/// one. [`DistPlan::build`] refuses to plan for more ranks than leave this
/// many, and admission refuses such a job with the same number.
pub fn local_qubits_needed(circuit: &Circuit) -> usize {
    widest_need(&locality_needs(circuit.ops()))
}

fn widest_need(needs: &[Option<Vec<usize>>]) -> usize {
    needs
        .iter()
        .flatten()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// The lazy router's whole state: where each logical qubit lives. Pure
/// index bookkeeping — it holds no amplitudes and talks to no one — that
/// only [`DistPlan::build`] keeps, ahead of the ranks.
#[derive(Clone, Debug)]
struct Router {
    local_bits: usize,
    /// Logical qubit → physical bit position.
    perm: Vec<usize>,
    /// Physical bit position → logical qubit (inverse of `perm`).
    inv: Vec<usize>,
}

impl Router {
    /// Starts from a given placement: `order[p]` is the logical qubit at
    /// physical position `p`.
    ///
    /// # Panics
    /// Panics when `order` is not a permutation of `0..order.len()`.
    fn placed(local_bits: usize, order: Vec<usize>) -> Router {
        let n = order.len();
        let mut perm = vec![usize::MAX; n];
        for (p, &q) in order.iter().enumerate() {
            assert!(q < n, "layout entry {q} out of range");
            assert!(perm[q] == usize::MAX, "layout repeats logical qubit {q}");
            perm[q] = p;
        }
        Router {
            local_bits,
            perm,
            inv: order,
        }
    }

    fn all_local(&self, qubits: &[usize]) -> bool {
        qubits.iter().all(|&q| self.perm[q] < self.local_bits)
    }

    fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(q, &p)| p == q)
    }

    /// Plans the one batched remap that brings `qubits` — and every high
    /// operand `upcoming` will need, while victim capacity lasts — to local
    /// positions, adopts it, and returns it as a position permutation (the
    /// bit at `p` moves to `sigma[p]`). Victims are the local qubits whose
    /// next use is farthest in the lookahead window (Belady's rule), which
    /// is what keeps layered circuits at one remap per layer.
    fn localize(&mut self, qubits: &[usize], upcoming: &[Option<Vec<usize>>]) -> Vec<usize> {
        let l = self.local_bits;
        let window = &upcoming[..upcoming.len().min(LOOKAHEAD_WINDOW)];
        let mut batch = qubits.to_vec();
        batch.sort_unstable();
        batch.dedup();
        for &q in window.iter().flatten().flatten() {
            if self.perm[q] >= l && !batch.contains(&q) && batch.len() < l {
                batch.push(q);
            }
        }
        let needed: Vec<usize> = batch
            .iter()
            .copied()
            .filter(|&q| self.perm[q] >= l)
            .collect();
        // Distance (in ops) to the first upcoming use of logical qubit `q`.
        let next_use = |q: usize| {
            window
                .iter()
                .position(|need| need.as_ref().is_some_and(|qs| qs.contains(&q)))
                .unwrap_or(usize::MAX)
        };
        let mut victims: Vec<(usize, usize)> = (0..l)
            .filter(|&p| !batch.contains(&self.inv[p]))
            .map(|p| (next_use(self.inv[p]), p))
            .collect();
        assert!(
            victims.len() >= needed.len(),
            "not enough free local qubits to localize {} operands with {l} local bits",
            needed.len(),
        );
        // Farthest next use first; position index breaks ties so the plan
        // is a function of the circuit alone.
        victims.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut sigma: Vec<usize> = (0..self.perm.len()).collect();
        for (&q, &(_, v)) in needed.iter().zip(victims.iter()) {
            let h = self.perm[q];
            sigma[v] = h;
            sigma[h] = v;
        }
        self.adopt(&sigma);
        sigma
    }

    /// The remap that restores the identity placement (logical qubit `q`
    /// at position `q`), adopted; `None` when already there.
    fn flush(&mut self) -> Option<Vec<usize>> {
        if self.is_identity() {
            return None;
        }
        let sigma = self.inv.clone();
        self.adopt(&sigma);
        debug_assert!(self.is_identity());
        Some(sigma)
    }

    fn adopt(&mut self, sigma: &[usize]) {
        for p in self.perm.iter_mut() {
            *p = sigma[*p];
        }
        for (q, &p) in self.perm.iter().enumerate() {
            self.inv[p] = q;
        }
    }
}

// --- the plan ----------------------------------------------------------------

/// One step of a [`DistPlan`].
#[derive(Clone, Debug, PartialEq)]
pub enum DistStep {
    /// Communication-free work: every rank runs these fused layers on its
    /// own shard. Qubits are physical positions.
    Epoch(LayerPlan),
    /// A batched remap: the bit at physical position `p` moves to
    /// `sigma[p]` (one aggregated all-to-all). The last step is the flush
    /// back to the identity placement whenever the others leave another.
    Remap(Vec<usize>),
    /// A mid-circuit measurement of the qubit at physical position `pos`
    /// (one collective reduction, one lockstep draw).
    Collapse {
        /// Physical position measured.
        pos: usize,
        /// Classical bit the circuit stores the outcome in.
        clbit: usize,
    },
}

/// Everything the distributed engine decides about a circuit before a rank
/// touches an amplitude: the remaps from the starting placement, the fused
/// layers every rank runs between them, and the flush that ends the run
/// at the identity placement. Built once per job and shared by the ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct DistPlan {
    num_qubits: usize,
    rank_bits: usize,
    steps: Vec<DistStep>,
    /// What sampling the flushed state reads.
    readout: Readout,
}

impl DistPlan {
    /// Plans `circuit` for `2^rank_bits` ranks, starting from the
    /// compiler's `layout` (`layout[p]` = logical qubit at physical
    /// position `p`) when one is given. At `|0…0⟩` every placement is the
    /// same global state, so the layout costs no data movement: it only
    /// changes how much the circuit body exchanges. Mid-circuit
    /// measurements become collapses; terminal ones are left to sampling.
    ///
    /// # Panics
    /// Panics when the ranks leave fewer local qubits than
    /// [`local_qubits_needed`], or when `layout` is not a permutation of
    /// the register.
    pub fn build(circuit: &Circuit, rank_bits: usize, layout: Option<&[usize]>) -> DistPlan {
        let n = circuit.num_qubits();
        let ops = circuit.ops();
        let needs = locality_needs(ops);
        let need = widest_need(&needs);
        assert!(
            n >= rank_bits + need,
            "need at least {need} local qubits: n={n} ranks=2^{rank_bits}"
        );
        let order = layout.map_or_else(|| (0..n).collect(), <[usize]>::to_vec);
        assert_eq!(order.len(), n, "layout must cover all {n} qubits");
        let mut router = Router::placed(n - rank_bits, order);
        let mut plan = DistPlan {
            num_qubits: n,
            rank_bits,
            steps: Vec::new(),
            readout: Readout::of(circuit),
        };
        // The open epoch, over physical positions.
        let mut epoch = Circuit::new(n);
        for (at, op) in ops.iter().enumerate() {
            match op {
                Op::Gate(g) => {
                    if let Some(qubits) = needs[at].as_ref().filter(|qs| !router.all_local(qs)) {
                        let sigma = router.localize(qubits, &needs[at + 1..]);
                        plan.close_epoch(&mut epoch);
                        plan.steps.push(DistStep::Remap(sigma));
                    }
                    epoch.push(g.map_qubits(|q| router.perm[q]));
                }
                Op::Measure { qubit, clbit } if !plan.readout.is_terminal(at) => {
                    plan.close_epoch(&mut epoch);
                    plan.steps.push(DistStep::Collapse {
                        pos: router.perm[*qubit],
                        clbit: *clbit,
                    });
                }
                Op::Measure { .. } => {}
                Op::Barrier(qs) => {
                    epoch.push_op(Op::Barrier(qs.iter().map(|&q| router.perm[q]).collect()));
                }
            }
        }
        plan.close_epoch(&mut epoch);
        plan.steps.extend(router.flush().map(DistStep::Remap));
        plan
    }

    /// Fuses the open epoch's ops into a step and starts the next one.
    fn close_epoch(&mut self, epoch: &mut Circuit) {
        if epoch.num_gates() > 0 {
            let local_bits = self.num_qubits - self.rank_bits;
            self.steps
                .push(DistStep::Epoch(fuse_shard(epoch, local_bits)));
        }
        *epoch = Circuit::new(self.num_qubits);
    }

    /// The steps, in execution order.
    pub fn steps(&self) -> &[DistStep] {
        &self.steps
    }

    fn epoch_plans(&self) -> impl Iterator<Item = &LayerPlan> {
        self.steps.iter().filter_map(|step| match step {
            DistStep::Epoch(layers) => Some(layers),
            _ => None,
        })
    }

    /// Number of communication-free epochs.
    pub fn epochs(&self) -> usize {
        self.epoch_plans().count()
    }

    /// Passes over its shard one rank makes: tile groups summed over the
    /// epochs.
    pub fn passes(&self) -> usize {
        self.epoch_plans().map(LayerPlan::passes).sum()
    }

    /// Fused layers summed over the epochs.
    pub fn num_layers(&self) -> usize {
        self.epoch_plans().map(LayerPlan::num_layers).sum()
    }

    /// Exchange operations one rank performs: the remap steps, the flush
    /// included.
    pub fn remaps(&self) -> usize {
        self.steps
            .iter()
            .filter(|step| matches!(step, DistStep::Remap(_)))
            .count()
    }
}

// --- a rank's shard ----------------------------------------------------------

/// The offsets an enumeration index takes when its bits are spread over
/// given positions (bit `j` of the index goes to `positions[j]`), as two
/// half-index tables: index `f` spreads to `hi[f >> h] | lo[f & (2^h - 1)]`
/// — two small lookups per amplitude instead of a loop over its bits.
struct Spread {
    lo: Vec<usize>,
    hi: Vec<usize>,
}

impl Spread {
    fn over(positions: &[usize]) -> Spread {
        let (lo, hi) = positions.split_at(positions.len() / 2);
        Spread {
            lo: local_offsets(lo),
            hi: local_offsets(hi),
        }
    }
}

/// `dst[dst_base | to(f)] = src[src_base | from(f)]` for every enumeration
/// index `f`; the two spreads must be over equally many positions.
fn copy_spread(
    dst: &mut [C64],
    dst_base: usize,
    to: &Spread,
    src: &[C64],
    src_base: usize,
    from: &Spread,
) {
    debug_assert_eq!((to.lo.len(), to.hi.len()), (from.lo.len(), from.hi.len()));
    for (&dh, &sh) in to.hi.iter().zip(&from.hi) {
        let (drow, srow) = (dst_base | dh, src_base | sh);
        for (&dl, &sl) in to.lo.iter().zip(&from.lo) {
            dst[drow | dl] = src[srow | sl];
        }
    }
}

/// A rank's shard of a distributed state vector. Between plans it holds
/// the identity placement: global index bit `q` is logical qubit `q`.
pub struct DistStateVector<'a> {
    ctx: &'a mut RankCtx,
    n: usize,
    local_bits: usize,
    local: StateVector,
    /// Message buffers received by the last remap, reused by the next to
    /// send: a fresh one per exchange costs more in page faults than the
    /// copy into it.
    buffers: Vec<Vec<C64>>,
    obs: Obs,
    stats: DistStats,
}

impl<'a> DistStateVector<'a> {
    /// Initializes `|0...0>` distributed over the communicator world with
    /// no observability.
    ///
    /// # Panics
    /// Panics unless the world size is a power of two no larger than `2^n`
    /// (with at least one local qubit left for gate routing).
    pub fn zero(ctx: &'a mut RankCtx, n: usize) -> Self {
        Self::zero_with(ctx, n, Obs::disabled())
    }

    /// [`zero`](Self::zero) with an observability handle (`comm.exchange`
    /// spans, `comm.*` counters).
    pub fn zero_with(ctx: &'a mut RankCtx, n: usize, obs: Obs) -> Self {
        let size = ctx.size();
        assert!(size.is_power_of_two(), "world size must be a power of two");
        let r = size.trailing_zeros() as usize;
        assert!(n > r, "need at least one local qubit: n={n} ranks=2^{r}");
        let local_bits = n - r;
        let mut local = StateVector::zero(local_bits);
        if ctx.rank() != 0 {
            // Rank 0 holds global index 0; all other shards start as zero.
            local.amps_mut()[0] = C64::ZERO;
        }
        DistStateVector {
            ctx,
            n,
            local_bits,
            local,
            buffers: Vec::new(),
            obs,
            stats: DistStats::default(),
        }
    }

    /// Total number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of locally-stored qubits.
    pub fn local_bits(&self) -> usize {
        self.local_bits
    }

    /// This rank's communication tallies so far.
    pub fn stats(&self) -> DistStats {
        self.stats
    }

    /// World-summed communication tallies (collective).
    pub fn stats_allreduced(&mut self) -> DistStats {
        let v = self.ctx.allreduce(
            vec![self.stats.exchanges, self.stats.messages, self.stats.bytes],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
        DistStats {
            exchanges: v[0],
            messages: v[1],
            bytes: v[2],
        }
    }

    /// Global squared norm (collective; every rank gets the value).
    pub fn norm_sqr(&mut self) -> f64 {
        let local = self.local.norm_sqr();
        self.ctx.allreduce_sum(local)
    }

    /// Runs a whole plan (collective: every rank must call with the same
    /// plan and an identically-seeded `rng` replica): epochs through the
    /// tile executor, remaps and collapses in between, and the flush last,
    /// so the shard ends at the identity placement. The register must
    /// still be `|0…0⟩` — the plan starts from its own layout, which is
    /// only free to adopt there. Returns the classical bits the collapses
    /// fixed, by classical bit.
    ///
    /// # Panics
    /// Panics when the plan was made for another register or world size.
    pub fn run_plan(&mut self, plan: &DistPlan, rng: &mut Rng) -> BTreeMap<usize, u8> {
        assert_eq!(plan.num_qubits, self.n, "register size mismatch");
        assert_eq!(
            plan.rank_bits,
            self.n - self.local_bits,
            "plan made for another world size"
        );
        let above = self.ctx.rank() << self.local_bits;
        let mut collapsed = BTreeMap::new();
        for step in &plan.steps {
            match step {
                DistStep::Epoch(layers) => layers.apply_to_shard(&mut self.local, above),
                DistStep::Remap(sigma) => self.remap(sigma),
                DistStep::Collapse { pos, clbit } => {
                    collapsed.insert(*clbit, self.measure_at(*pos, rng));
                }
            }
        }
        collapsed
    }

    // --- data movement -------------------------------------------------------

    /// Applies a global bit-position permutation to the distributed index
    /// space: the bit at physical position `p` moves to `sigma[p]`. One
    /// aggregated sparse all-to-all moves exactly the amplitudes that
    /// change ranks; bits staying low are placed by matching enumeration
    /// order on both sides, so no per-element index metadata travels.
    fn remap(&mut self, sigma: &[usize]) {
        let l = self.local_bits;
        let me = self.ctx.rank();
        debug_assert_eq!(sigma.len(), self.n);
        let moving_low: Vec<usize> = (0..l).filter(|&p| sigma[p] >= l).collect();
        let staying_low: Vec<usize> = (0..l).filter(|&p| sigma[p] < l).collect();
        let k = moving_low.len();
        let bucket_len = 1usize << (l - k);
        // Where rank `from`'s amplitudes land: its high bits that stay
        // high pick the rank, the ones that come down fix local bits.
        let landing_of = |from: usize| {
            let (mut rank, mut base) = (0usize, 0usize);
            for (p, &sp) in sigma.iter().enumerate().skip(l) {
                if (from >> (p - l)) & 1 == 1 {
                    if sp >= l {
                        rank |= 1 << (sp - l);
                    } else {
                        base |= 1 << sp;
                    }
                }
            }
            (rank, base)
        };

        let _span = self.obs.span("comm", "comm.exchange");
        let (m0, b0) = (self.ctx.sent_messages(), self.ctx.sent_bytes());

        // Entry `f` of a bucket is the amplitude whose staying-low bits
        // spell `f`: read at the spread of `f` over where those bits are,
        // written at its spread over where `sigma` puts them — in whatever
        // order that leaves them (the flush that ends a plan scrambles it;
        // a per-bit loop there cost more than the whole sampler). A bucket
        // in flight is the same enumeration laid out flat.
        let landing: Vec<usize> = staying_low.iter().map(|&p| sigma[p]).collect();
        let flat: Vec<usize> = (0..staying_low.len()).collect();
        let (from, to, flat) = (
            Spread::over(&staying_low),
            Spread::over(&landing),
            Spread::over(&flat),
        );
        // Bucket `b` fixes the moved-low bits, selecting one destination
        // rank: (destination, the bucket's bits in the local index).
        let (base_dest, my_base) = landing_of(me);
        let buckets: Vec<(usize, usize)> = (0..1usize << k)
            .map(|b| {
                let (mut dest, mut pattern) = (base_dest, 0usize);
                for (j, &p) in moving_low.iter().enumerate() {
                    if (b >> j) & 1 == 1 {
                        dest |= 1 << (sigma[p] - l);
                        pattern |= 1 << p;
                    }
                }
                (dest, pattern)
            })
            .collect();
        // A remap that only trades low positions for high ones — every
        // remap the router plans mid-circuit — leaves the bucket that
        // stays exactly where it is, and what arrives fills the slots of
        // what left: the shard is rewritten in place. Any other `sigma`
        // (the flush) is assembled in a second buffer.
        let in_place = landing == staying_low
            && buckets
                .iter()
                .all(|&(dest, pattern)| dest != me || pattern == my_base);
        let mut assembled = (!in_place).then(|| vec![C64::ZERO; 1 << l]);

        let amps = self.local.amps();
        let mut sends: Vec<(usize, Vec<C64>)> = Vec::with_capacity((1 << k) - 1);
        for &(dest, pattern) in &buckets {
            if dest != me {
                // A buffer a peer sent last time carries this one out.
                let mut buf = self.buffers.pop().unwrap_or_default();
                buf.resize(bucket_len, C64::ZERO);
                copy_spread(&mut buf, 0, &flat, amps, pattern, &from);
                sends.push((dest, buf));
            } else if let Some(new_amps) = &mut assembled {
                copy_spread(new_amps, my_base, &to, amps, pattern, &from);
            }
        }
        let received = self.ctx.sparse_alltoallv(sends);
        let target = match &mut assembled {
            Some(new_amps) => new_amps.as_mut_slice(),
            None => self.local.amps_mut(),
        };
        for (src, buf) in received {
            debug_assert_eq!(buf.len(), bucket_len);
            copy_spread(target, landing_of(src).1, &to, &buf, 0, &flat);
            self.buffers.push(buf);
        }
        if let Some(new_amps) = assembled {
            self.local = StateVector::from_amps(new_amps);
        }

        let dm = self.ctx.sent_messages() - m0;
        let db = self.ctx.sent_bytes() - b0;
        self.stats.exchanges += 1;
        self.stats.messages += dm;
        self.stats.bytes += db;
        self.obs.counter("comm.exchanges").inc();
        self.obs.counter("comm.msgs").add(dm);
        self.obs.counter("comm.bytes").add(db);
    }

    #[inline]
    fn high_bit(&self, p: usize) -> usize {
        (self.ctx.rank() >> (p - self.local_bits)) & 1
    }

    // --- measurement / readout ----------------------------------------------

    /// Projectively measures whichever qubit sits at physical position
    /// `p`, collapsing the global state. Collective: every rank must call
    /// with an identically-seeded `rng` replica (the shared probability
    /// makes the draw lockstep).
    fn measure_at(&mut self, p: usize, rng: &mut Rng) -> u8 {
        let l = self.local_bits;
        let local_p1 = if p < l {
            self.local.prob_one(p)
        } else if self.high_bit(p) == 1 {
            self.local.norm_sqr()
        } else {
            0.0
        };
        let p1 = self.ctx.allreduce_sum(local_p1);
        let outcome = u8::from(rng.chance(p1));
        let norm = if outcome == 1 { p1 } else { 1.0 - p1 };
        let scale = if norm > 0.0 { 1.0 / norm.sqrt() } else { 0.0 };
        if p < l {
            let stride = 1usize << p;
            let block = stride << 1;
            for chunk in self.local.amps_mut().chunks_mut(block) {
                let (lo, hi) = chunk.split_at_mut(stride);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    if outcome == 1 {
                        *a = C64::ZERO;
                        *b = b.scale(scale);
                    } else {
                        *a = a.scale(scale);
                        *b = C64::ZERO;
                    }
                }
            }
        } else if self.high_bit(p) == outcome as usize {
            for a in self.local.amps_mut() {
                *a = a.scale(scale);
            }
        } else {
            for a in self.local.amps_mut() {
                *a = C64::ZERO;
            }
        }
        outcome
    }

    /// Gathers the full state vector at rank 0 (testing/diagnostics only —
    /// defeats the point of distribution at scale).
    pub fn gather_full(&mut self) -> Option<StateVector> {
        let mine = self.local.amps().to_vec();
        self.ctx.gather(0, mine).map(|blocks| {
            let amps: Vec<C64> = blocks.into_iter().flatten().collect();
            StateVector::from_amps(amps)
        })
    }

    /// Expectation of a diagonal observable over the *global* index
    /// (collective; every rank receives the value).
    pub fn expectation_diagonal(&mut self, f: impl Fn(usize) -> f64) -> f64 {
        let offset = self.ctx.rank() << self.local_bits;
        let local: f64 = self
            .local
            .amps()
            .iter()
            .enumerate()
            .map(|(i, a)| f(offset | i) * a.norm_sqr())
            .sum();
        self.ctx.allreduce_sum(local)
    }

    /// Samples `shots` basis indices from the distributed distribution.
    /// Returns every draw at rank 0, `None` elsewhere.
    ///
    /// Uses the canonical split scheme of [`StateVector::sample_split`]:
    /// rank 0 splits the shots over `2^c` index blocks from gathered block
    /// masses (`c = canonical_split_bits(n, r)`), each rank draws its
    /// blocks' shares from per-block alias samplers on dedicated seeded
    /// streams, and rank 0 gathers. Every step matches the serial scheme
    /// bit for bit, so a fixed seed draws the same outcomes local vs.
    /// distributed.
    pub fn sample_indices(&mut self, shots: usize, seed: u64) -> Option<Vec<u64>> {
        let r = self.n - self.local_bits;
        let c = canonical_split_bits(self.n, r);
        let blocks_per_rank = 1usize << (c - r);
        let block_len = 1usize << (self.n - c);
        let gathered = self
            .ctx
            .gather(0, block_masses(self.local.amps(), block_len));

        // Rank 0 splits the shots across all blocks with the seeded CDF.
        let split_chunks = gathered.map(|per_rank| {
            let masses: Vec<f64> = per_rank.into_iter().flatten().collect();
            let per_block = block_shot_split(&masses, shots, seed);
            per_block
                .chunks(blocks_per_rank)
                .map(<[usize]>::to_vec)
                .collect()
        });
        let my_split: Vec<usize> = self.ctx.scatter(0, split_chunks);
        // This rank's blocks, drawn by the one block sampler.
        let first = self.ctx.rank() * blocks_per_rank;
        let samples = draw_blocks(self.local.amps(), block_len, first, &my_split, seed, false);
        self.ctx
            .gather(0, samples)
            .map(|all| all.into_iter().flatten().collect())
    }

    /// [`sample_indices`](Self::sample_indices) as whole-register counts:
    /// what a circuit that measures every qubit into its own bit reads.
    /// Rendered as bit strings.
    pub fn sample_counts(&mut self, shots: usize, seed: u64) -> Option<BTreeMap<String, usize>> {
        let whole = Readout::of(&Circuit::new(self.n));
        self.sample_indices(shots, seed)
            .map(|draws| whole.counts(draws, &BTreeMap::new()).bitstrings())
    }
}

/// Convenience entry: every rank plans `circuit` from a compiler-planned
/// initial layout, when one is given (`layout[p]` = logical qubit at
/// physical position `p`), and runs [`run_distributed_plan`]. Counts are
/// bitwise identical to the unseeded run — the layout only changes how
/// much exchange traffic the circuit body incurs. Every rank builds the
/// (deterministic) plan for itself; a caller that spawns the ranks should
/// build it once and hand it to [`run_distributed_plan`]. `route` has one
/// value; the parameter is kept for the benchmark harness (see
/// [`RouteStrategy`]). The counts are rendered as bit strings.
pub fn run_distributed_laid_out(
    ctx: &mut RankCtx,
    circuit: &Circuit,
    shots: usize,
    seed: u64,
    _route: RouteStrategy,
    layout: Option<&[usize]>,
    obs: &Obs,
) -> Option<(SvOutcome, DistStats)> {
    let size = ctx.size();
    assert!(size.is_power_of_two(), "world size must be a power of two");
    let plan = DistPlan::build(circuit, size.trailing_zeros() as usize, layout);
    run_distributed_plan(ctx, &plan, shots, seed, obs).map(|(out, stats)| (out.rendered(), stats))
}

/// Executes a prebuilt plan on this rank's shard and samples: the whole
/// rank body of a distributed job. Mid-circuit measurements collapse a
/// single trajectory in rng lockstep (the serial engine's semantics);
/// terminal ones defer to sampling. Rank 0 returns the outcome and the
/// world-summed communication tallies.
pub fn run_distributed_plan(
    ctx: &mut RankCtx,
    plan: &DistPlan,
    shots: usize,
    seed: u64,
    obs: &Obs,
) -> Option<(SvOutcome<Counts>, DistStats)> {
    let sw = qfw_hpc::Stopwatch::start();
    let mut dsv = DistStateVector::zero_with(ctx, plan.num_qubits, obs.clone());
    let apply_span = obs
        .span("engine", "sv.apply")
        .attr("qubits", plan.num_qubits)
        .attr("gates", plan.num_layers())
        .attr("passes", plan.passes())
        .attr("tile_groups", plan.passes());
    let collapsed = dsv.run_plan(plan, &mut Rng::seed_from(seed));
    drop(apply_span);
    let gate_time = sw.elapsed();
    let sw = qfw_hpc::Stopwatch::start();
    let counts = dsv
        .sample_indices(shots, seed)
        .map(|draws| plan.readout.counts(draws, &collapsed));
    let sample_time = sw.elapsed();
    let stats = dsv.stats_allreduced();
    counts.map(|counts| {
        (
            SvOutcome {
                counts,
                gate_time,
                sample_time,
                gates_applied: plan.num_layers(),
            },
            stats,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SvSimulator;
    use qfw_circuit::Gate;
    use qfw_hpc::Communicator;
    use qfw_num::approx_eq;
    use qfw_num::rng::Rng;
    use qfw_num::Matrix;
    use std::sync::Arc;
    use std::thread;

    /// Runs `f` on an `n`-rank test world, returning rank-ordered results.
    fn run_world<R: Send + 'static>(
        ranks: usize,
        f: impl Fn(RankCtx) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let handles: Vec<_> = Communicator::test_world(ranks)
            .into_iter()
            .map(|ctx| {
                let f = Arc::clone(&f);
                thread::spawn(move || f(ctx))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Runs `plan` from `|0…0⟩` on every rank of a world its size, with
    /// collapses drawn from `seed`, then `f` on each rank's shard and the
    /// collapsed bits; rank-ordered results.
    fn after_plan<R: Send + 'static>(
        plan: DistPlan,
        seed: u64,
        f: impl Fn(&mut DistStateVector<'_>, BTreeMap<usize, u8>) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let plan = Arc::new(plan);
        run_world(1 << plan.rank_bits, move |mut ctx| {
            let mut dsv = DistStateVector::zero(&mut ctx, plan.num_qubits);
            let collapsed = dsv.run_plan(&plan, &mut Rng::seed_from(seed));
            f(&mut dsv, collapsed)
        })
    }

    /// Distributed execution of `circuit` through its plan must reproduce
    /// the serial state, at the exchange count the plan predicts.
    fn check_matches_serial(circuit: Circuit, ranks: usize) {
        let reference = SvSimulator::plain().statevector(&circuit);
        let plan = DistPlan::build(&circuit, ranks.trailing_zeros() as usize, None);
        let remaps = plan.remaps() as u64;
        let results = after_plan(plan, 0, |dsv, _| (dsv.gather_full(), dsv.stats().exchanges));
        let (full, exchanges) = &results[0];
        let full = full.as_ref().expect("rank 0 gathers");
        // Compare amplitudes exactly, not just fidelity, to catch phase
        // bugs.
        for (a, b) in reference.amps().iter().zip(full.amps().iter()) {
            assert!(a.approx_eq(*b, 1e-9), "amplitude mismatch: {a} vs {b}");
        }
        assert!(approx_eq(reference.fidelity(full), 1.0, 1e-9));
        assert_eq!(*exchanges, remaps, "exchanges vs planned remaps");
    }

    #[test]
    fn local_gates_only() {
        let mut qc = Circuit::new(4);
        qc.h(0).t(1).cx(0, 1).rzz(0, 1, 0.4);
        check_matches_serial(qc, 4); // qubits 0,1 local (L=2)
    }

    #[test]
    fn single_qubit_gate_on_high_qubit() {
        let mut qc = Circuit::new(4);
        qc.h(3).t(3).h(2).rx(2, 0.7);
        check_matches_serial(qc, 4); // qubits 2,3 are rank bits
    }

    #[test]
    fn two_qubit_mixed_low_high() {
        let mut qc = Circuit::new(4);
        qc.h(0).cx(0, 3).rzz(1, 2, 0.9).cry(3, 0, 0.5);
        check_matches_serial(qc, 4);
    }

    #[test]
    fn two_qubit_both_high() {
        let mut qc = Circuit::new(5);
        qc.h(3).cx(3, 4).rzz(3, 4, -0.6).swap(3, 4);
        check_matches_serial(qc, 8); // L=2, qubits 2,3,4 high
    }

    #[test]
    fn three_qubit_gate_spanning_ranks() {
        let mut qc = Circuit::new(5);
        qc.h(0).h(3).ccx(0, 3, 4).ccx(4, 3, 1);
        check_matches_serial(qc, 4);
    }

    #[test]
    fn ghz_across_ranks() {
        for n in [4usize, 6] {
            let mut qc = Circuit::new(n);
            qc.h(0);
            for q in 0..n - 1 {
                qc.cx(q, q + 1);
            }
            check_matches_serial(qc, 4);
        }
    }

    #[test]
    fn deep_random_circuit_across_worlds() {
        let mut rng = Rng::seed_from(31);
        let n = 6;
        let mut qc = Circuit::new(n);
        for _ in 0..60 {
            let q = rng.index(n);
            let p = (q + 1 + rng.index(n - 1)) % n;
            match rng.index(6) {
                0 => qc.h(q),
                1 => qc.rx(q, rng.uniform(-3.0, 3.0)),
                2 => qc.t(q),
                3 => qc.cx(q, p),
                4 => qc.rzz(q, p, rng.uniform(-1.0, 1.0)),
                _ => qc.swap(q, p),
            };
        }
        for ranks in [2, 4] {
            check_matches_serial(qc.clone(), ranks);
        }
    }

    #[test]
    fn rank_nonzero_shards_start_all_zero() {
        // Satellite regression: non-root shards must initialize to exact
        // zero in place (no clone/rebuild round trip needed to verify the
        // contents).
        let results = run_world(4, |mut ctx| {
            let rank = ctx.rank();
            let dsv = DistStateVector::zero(&mut ctx, 5);
            (rank, dsv.local.amps().to_vec())
        });
        for (rank, amps) in results {
            for (i, a) in amps.iter().enumerate() {
                let want = if rank == 0 && i == 0 {
                    C64::ONE
                } else {
                    C64::ZERO
                };
                assert_eq!(*a, want, "rank {rank} amp {i}");
            }
        }
    }

    #[test]
    fn diagonal_high_gates_are_exchange_free() {
        // Satellite regression: rzz/cz/cp (and rz) on high qubits are
        // local phase sweeps under block partitioning — zero exchanges.
        let mut superposed = Circuit::new(5);
        superposed.h(0).h(1).h(3).h(4); // superpose (incl. high qubits)
        let mut qc = superposed.clone();
        qc.rzz(3, 4, 0.7) // both high
            .cz(2, 4) // both high
            .cp(3, 2, -0.4) // both high
            .rz(4, 1.1) // 1q high
            .rzz(0, 3, 0.9); // mixed low/high
        assert_eq!(
            DistPlan::build(&qc, 3, None).remaps(),
            DistPlan::build(&superposed, 3, None).remaps(),
            "diagonal gates exchanged"
        );
        check_matches_serial(qc, 8);
    }

    #[test]
    fn layered_circuit_takes_one_remap_per_layer() {
        // A TFIM-like layered circuit: diagonal rzz chains plus rx on all
        // qubits. The rzz chains cost nothing, and each rx layer must cost
        // one batched remap, not one per rank-bit qubit. The register
        // must leave the batcher slack (n - l << l, the paper's TFIM-24
        // regime): Belady eviction then sustains one remap per layer,
        // since each layer's miss point has enough already-used local
        // qubits to evict without retriggering.
        let (n, layers) = (16, 4);
        let mut qc = Circuit::new(n);
        for q in 0..n {
            qc.h(q);
        }
        for _ in 0..layers {
            for q in 0..n - 1 {
                qc.rzz(q, q + 1, 0.3);
            }
            for q in 0..n {
                qc.rx(q, 0.17);
            }
        }
        let plan = DistPlan::build(&qc, 3, None);
        // One remap for the h layer, one per rx layer and the flush; the
        // last layer may take a second one, when too few of its qubits
        // are already done with to evict.
        let remaps = plan.remaps();
        assert!(remaps <= layers + 3, "{remaps} remaps for {layers} layers");
        assert_eq!(plan.epochs(), remaps, "an epoch before each remap");
        let plan = Arc::new(plan);
        let results = run_world(8, move |mut ctx| {
            run_distributed_plan(&mut ctx, &plan, 10, 5, &Obs::disabled()).map(|(_, stats)| stats)
        });
        let stats = results[0].expect("rank 0 stats");
        assert_eq!(stats.exchanges, 8 * remaps as u64, "summed over 8 ranks");
    }

    #[test]
    fn lone_diagonal_gate_on_a_rank_bit_stays_a_diagonal_layer() {
        // A one-gate diagonal run must not go back out as a gate for the
        // block pass to densify: at a position >= L that would be a
        // non-local target. It adds no remap and no dense layer.
        let mut ghz6 = Circuit::new(6);
        ghz6.h(0);
        for q in 0..5 {
            ghz6.cx(q, q + 1);
        }
        let bare = DistPlan::build(&ghz6, 2, None);
        // Where the chain leaves the qubits: the flush reads position ->
        // logical qubit, and positions 4 and 5 are the rank bits.
        let Some(DistStep::Remap(placed)) = bare.steps().last() else {
            panic!("the chain ends on a flush: {:?}", bare.steps())
        };
        let (low, top, next) = (placed[0], placed[5], placed[4]);
        for tail in [
            Gate::Cz(next, top),
            Gate::Rzz(low, top, 0.8),
            Gate::Rz(top, 0.3),
        ] {
            let mut qc = ghz6.clone();
            qc.push(tail);
            let plan = DistPlan::build(&qc, 2, None);
            assert_eq!(plan.remaps(), bare.remaps(), "a diagonal gate moved data");
            let last = plan.epoch_plans().last().expect("plan has an epoch");
            assert!(
                last.layers()
                    .iter()
                    .any(|layer| matches!(layer, crate::layers::Layer::Diag(_))),
                "the tail gate left the diagonal form: {:?}",
                last.layers()
            );
            check_matches_serial(qc, 4);
        }
    }

    #[test]
    fn singular_diagonal_unitary_on_a_rank_bit_routes_as_dense() {
        // Diagonal with a zero entry: the fuser's ratio form cannot hold
        // it, so the router must not call it exchange-free either — one
        // predicate decides both. It is localized and applied densely.
        let mut qc = Circuit::new(6);
        qc.h(0).h(1);
        let before = DistPlan::build(&qc, 2, None).remaps();
        qc.push(Gate::Unitary {
            qubits: vec![5],
            matrix: Arc::new(Matrix::diag(&[C64::ONE, C64::ZERO])),
            label: "proj0".into(),
        });
        let plan = DistPlan::build(&qc, 2, None);
        // Qubit 5 comes down (one remap) and goes back (the flush).
        assert_eq!(plan.remaps(), before + 2);
        check_matches_serial(qc, 4);
    }

    #[test]
    fn plan_is_deterministic_and_one_rank_is_the_local_plan() {
        let mut rng = Rng::seed_from(77);
        let n = 7;
        let mut qc = Circuit::new(n);
        for _ in 0..80 {
            let q = rng.index(n);
            let p = (q + 1 + rng.index(n - 1)) % n;
            match rng.index(6) {
                0 => qc.h(q),
                1 => qc.rx(q, rng.uniform(-3.0, 3.0)),
                2 => qc.rz(q, rng.uniform(-3.0, 3.0)),
                3 => qc.cx(q, p),
                4 => qc.rzz(q, p, rng.uniform(-1.0, 1.0)),
                _ => qc.barrier(),
            };
        }
        for rank_bits in 0..3 {
            assert_eq!(
                DistPlan::build(&qc, rank_bits, None),
                DistPlan::build(&qc, rank_bits, None)
            );
        }
        let one = DistPlan::build(&qc, 0, None);
        let [DistStep::Epoch(epoch)] = one.steps() else {
            panic!("one rank never remaps: {:?}", one.steps())
        };
        assert_eq!(epoch, &crate::fusion::fuse(&qc));
        assert_eq!(one.remaps(), 0);
    }

    #[test]
    fn norm_is_one_collectively() {
        let mut qc = Circuit::new(4);
        qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let results = after_plan(DistPlan::build(&qc, 2, None), 0, |dsv, _| dsv.norm_sqr());
        assert!(results.iter().all(|&x| approx_eq(x, 1.0, 1e-10)));
    }

    #[test]
    fn distributed_expectation_matches_serial() {
        let mut qc = Circuit::new(4);
        qc.h(0).cx(0, 2).rzz(1, 3, 0.8).rx(3, 0.3);
        let reference = SvSimulator::plain()
            .statevector(&qc)
            .expectation_diagonal(|i| i as f64, false);
        let results = after_plan(DistPlan::build(&qc, 2, None), 0, |dsv, _| {
            dsv.expectation_diagonal(|i| i as f64)
        });
        assert!(results.iter().all(|&e| approx_eq(e, reference, 1e-9)));
    }

    #[test]
    fn distributed_sampling_ghz_statistics() {
        let results = run_world(4, |mut ctx| {
            let mut qc = Circuit::new(5);
            qc.h(0);
            for q in 0..4 {
                qc.cx(q, q + 1);
            }
            let obs = Obs::disabled();
            run_distributed_laid_out(&mut ctx, &qc, 1000, 99, RouteStrategy::Lazy, None, &obs)
                .map(|(outcome, _)| outcome)
        });
        let outcome = results[0].as_ref().expect("rank 0 outcome");
        assert!(results[1..].iter().all(Option::is_none));
        let counts = &outcome.counts;
        assert_eq!(counts.values().sum::<usize>(), 1000);
        assert_eq!(counts.len(), 2);
        let c0 = counts["00000"];
        assert!((350..650).contains(&c0), "c0={c0}");
    }

    #[test]
    fn distributed_counts_replay_serial_split_sampling_bitwise() {
        // Satellite: a fixed seed must yield byte-identical counts local
        // vs. distributed, at every world size.
        let mut qc = Circuit::new(6);
        qc.h(0)
            .cx(0, 1)
            .cx(1, 2)
            .rx(3, 0.9)
            .rzz(2, 4, 0.5)
            .h(5)
            .cx(5, 3);
        let serial = SvSimulator::plain().statevector(&qc);
        for ranks in [2usize, 4, 8] {
            let r = ranks.trailing_zeros() as usize;
            let want =
                serial.sample_counts_split(3000, 0xFEED, crate::state::canonical_split_bits(6, r));
            let results = after_plan(DistPlan::build(&qc, r, None), 0, |dsv, _| {
                dsv.sample_counts(3000, 0xFEED)
            });
            let got = results[0].as_ref().expect("rank 0 counts");
            assert_eq!(got, &want, "counts diverged at {ranks} ranks");
        }
    }

    #[test]
    fn mid_circuit_measurement_collapses_in_lockstep() {
        // Measure a high qubit mid-circuit (a later gate acts on it); all
        // ranks must agree on the outcome and the collapsed state must
        // stay normalized and match a serial single-trajectory replay
        // drawn from the same rng.
        let mut qc = Circuit::new(5);
        qc.h(4).cx(4, 0);
        let (serial_bit, serial_sv) = {
            let mut sv = SvSimulator::plain().statevector(&qc);
            let bit = sv.measure(4, &mut Rng::seed_from(123), false);
            sv.apply(&Gate::Rx(4, 0.3), false);
            (bit, sv)
        };
        qc.measure(4, 4).rx(4, 0.3);
        let plan = DistPlan::build(&qc, 2, None);
        assert!(
            plan.steps()
                .iter()
                .any(|step| matches!(step, DistStep::Collapse { clbit: 4, .. })),
            "{:?}",
            plan.steps()
        );
        let results = after_plan(plan, 123, |dsv, collapsed| {
            (collapsed[&4], dsv.norm_sqr(), dsv.gather_full())
        });
        for (bit, norm, _) in &results {
            assert_eq!(*bit, serial_bit);
            assert!(approx_eq(*norm, 1.0, 1e-10));
        }
        let full = results[0].2.as_ref().expect("rank 0 gathers");
        for (a, b) in serial_sv.amps().iter().zip(full.amps().iter()) {
            assert!(a.approx_eq(*b, 1e-9), "{a} vs {b}");
        }
    }

    #[test]
    fn seeded_layout_preserves_counts_bitwise() {
        // Any initial layout is a pure relabeling at |0…0⟩: fixed-seed
        // counts must be byte-identical to the unseeded run.
        let mut qc = Circuit::new(6);
        qc.h(0)
            .cx(0, 5)
            .rzz(1, 4, 0.7)
            .rx(5, 0.3)
            .cx(4, 2)
            .h(3)
            .cx(3, 1);
        let counts = |layout: Option<&[usize]>| {
            let plan = DistPlan::build(&qc, 2, layout);
            let results = after_plan(plan, 0, |dsv, _| dsv.sample_counts(2000, 0xC0FFEE));
            results[0].clone().expect("rank 0 counts")
        };
        let baseline = counts(None);
        for order in [
            [5usize, 0, 4, 1, 3, 2],
            [1, 2, 3, 4, 5, 0],
            [0, 1, 2, 3, 4, 5],
        ] {
            assert_eq!(
                counts(Some(&order)),
                baseline,
                "layout changed measured counts"
            );
        }
    }

    #[test]
    fn hot_qubit_layout_reduces_exchanges() {
        // A circuit hammering the top (rank-bit) qubits with non-diagonal
        // two-qubit gates: seeding a layout that pulls those qubits into
        // local positions must cut exchange traffic.
        let mut qc = Circuit::new(6);
        for _ in 0..6 {
            qc.h(4).cx(4, 5).rx(5, 0.3).cx(5, 4);
        }
        let unseeded = DistPlan::build(&qc, 2, None).remaps();
        // Hot qubits 4,5 into local positions 0,1.
        let seeded = DistPlan::build(&qc, 2, Some(&[4, 5, 0, 1, 2, 3])).remaps();
        assert!(
            seeded < unseeded,
            "seeded layout should reduce exchanges: {seeded} vs {unseeded}"
        );
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn layout_must_be_a_permutation() {
        DistPlan::build(&Circuit::new(4), 1, Some(&[0, 1, 2, 2]));
    }

    #[test]
    #[should_panic(expected = "need at least 2 local qubits")]
    fn a_shard_narrower_than_its_widest_routed_gate_is_not_planned() {
        let mut ghz3 = Circuit::new(3);
        ghz3.h(0).cx(0, 1).cx(1, 2);
        assert_eq!(local_qubits_needed(&ghz3), 2);
        assert_eq!(DistPlan::build(&ghz3, 1, None).remaps(), 2);
        // Diagonal gates run at any placement, so they ask for nothing.
        let mut phases = Circuit::new(3);
        phases.rzz(0, 2, 0.4).cz(1, 2).rz(0, 0.2);
        assert_eq!(local_qubits_needed(&phases), 1);
        assert_eq!(DistPlan::build(&phases, 2, None).remaps(), 0);
        DistPlan::build(&ghz3, 2, None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn world_size_must_be_power_of_two() {
        let mut ctxs = Communicator::test_world(3);
        let _ = DistStateVector::zero(&mut ctxs[0], 4);
    }
}
