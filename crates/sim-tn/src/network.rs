//! Circuit → tensor network lowering, contraction planning and the
//! contraction itself.
//!
//! A network is contracted in two phases. [`TensorNetwork::plan`] reads
//! only the tensors' index lists and lays out every pairwise step, with
//! the rank of each result and the multiply-adds it costs; no amplitude
//! is touched. [`TensorNetwork::contract_all`] refuses a plan whose widest
//! step is past the width limit ([`ContractionPlan::within`]), then runs
//! the steps through one reused set of offset tables (`contract`, which
//! also runs a plan laid out before the call). A plan depends only on the
//! gates' operands, so one laid out for a circuit holds for every binding
//! of its skeleton, and the stack lays out a job's plan once, at
//! admission, from the operands alone ([`ContractionPlan::for_circuit`]),
//! without lowering a gate to a tensor.

use crate::tensor::{IndexId, Tensor, Workspace};
use qfw_circuit::{Circuit, Gate};
use qfw_num::complex::C64;

/// A tensor network built from a circuit, with one open output wire per
/// qubit.
#[derive(Clone, Debug)]
pub struct TensorNetwork {
    tensors: Vec<Tensor>,
    /// Output wire of each qubit, in qubit order.
    outputs: Vec<IndexId>,
    next_index: IndexId,
}

/// Pairwise contraction order strategies (the unit tests hold both to the
/// dense reference).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderHeuristic {
    /// Always contract the pair whose result tensor is smallest — the
    /// qtree-style greedy planner.
    Greedy,
    /// Contract tensors in insertion order (fold left) — the naive baseline.
    Sequential,
}

/// One pairwise contraction of a [`ContractionPlan`].
///
/// Operands are slots: the network's tensors are slots `0..T` in insertion
/// order, and step `k`'s result is slot `T + k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Step {
    /// The left operand, whose free indices come first in the result.
    pub(crate) a: usize,
    /// The right operand.
    pub(crate) b: usize,
    /// Rank of the result.
    pub(crate) rank: usize,
}

/// The order a network contracts in, laid out from its index lists alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContractionPlan {
    /// The pairwise steps, in the order they run.
    steps: Vec<Step>,
    multiply_adds: u64,
}

impl ContractionPlan {
    /// Rank of the widest intermediate (0 when nothing is contracted).
    pub fn widest(&self) -> usize {
        self.steps.iter().map(|s| s.rank).max().unwrap_or(0)
    }

    /// Complex multiply-adds of the whole contraction: `2^|a ∪ b|` per
    /// step, saturating at `u64::MAX`.
    pub fn multiply_adds(&self) -> u64 {
        self.multiply_adds
    }

    /// The refusal of a plan with a step wider than `limit`, naming the
    /// first such step's rank: the analog of a contraction running out of
    /// memory, in the words [`TensorNetwork::contract_all`] panics with.
    pub fn within(&self, limit: usize) -> Result<(), String> {
        let Some(width) = self.steps.iter().map(|s| s.rank).find(|&r| r > limit) else {
            return Ok(());
        };
        Err(format!(
            "contraction width {width} exceeds the limit {limit}"
        ))
    }
}

/// No slot.
const NONE: usize = usize::MAX;

/// The index lists of a network's slots while a plan is laid out: one arena
/// of indices, and for each wire the (at most two) slots that hold it.
struct Wires {
    arena: Vec<IndexId>,
    /// `arena[spans[s].0..spans[s].1]` is slot `s`'s index list.
    spans: Vec<(usize, usize)>,
    owners: Vec<[usize; 2]>,
    steps: Vec<Step>,
    multiply_adds: u64,
}

impl Wires {
    /// Room for `tensors` tensors of `ranks` indices in all, on wires
    /// `0..wires`.
    fn new(tensors: usize, ranks: usize, wires: IndexId) -> Self {
        Wires {
            arena: Vec::with_capacity(4 * ranks),
            spans: Vec::with_capacity(2 * tensors),
            owners: vec![[NONE; 2]; wires as usize],
            steps: Vec::with_capacity(tensors),
            multiply_adds: 0,
        }
    }

    fn of(tensors: &[Tensor], wires: IndexId) -> Self {
        let ranks = tensors.iter().map(Tensor::rank).sum();
        let mut w = Wires::new(tensors.len(), ranks, wires);
        for t in tensors {
            w.add(&t.indices);
        }
        w
    }

    /// The wires of `circuit`'s network, laid out as
    /// [`TensorNetwork::from_circuit`] lays out its tensors, from the gates'
    /// operands alone.
    fn of_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits();
        let arities: usize = circuit.gates().map(Gate::arity).sum();
        let tensors = n + circuit.gates().count();
        let mut w = Wires::new(tensors, n + 2 * arities, (n + arities) as IndexId);
        for q in 0..n as IndexId {
            w.add(&[q]);
        }
        wire_gates(circuit, |_, indices| w.add(indices));
        w
    }

    /// Appends a slot holding the wires `indices`.
    fn add(&mut self, indices: &[IndexId]) {
        let slot = self.spans.len();
        let start = self.arena.len();
        self.arena.extend_from_slice(indices);
        self.spans.push((start, self.arena.len()));
        for &x in indices {
            let owner = &mut self.owners[x as usize];
            let free = owner.iter().position(|&o| o == NONE);
            owner[free.expect("a wire joins at most two tensors")] = slot;
        }
    }

    fn list(&self, slot: usize) -> &[IndexId] {
        let (start, end) = self.spans[slot];
        &self.arena[start..end]
    }

    fn rank(&self, slot: usize) -> usize {
        let (start, end) = self.spans[slot];
        end - start
    }

    /// The slot other than `slot` that holds wire `x`, or [`NONE`].
    fn other(&self, x: IndexId, slot: usize) -> usize {
        match self.owners[x as usize] {
            [o, other] if o == slot => other,
            [o, _] => o,
        }
    }

    /// Records the contraction of slots `a` and `b` into a new slot, whose
    /// index list is `a`'s free wires then `b`'s, and returns that slot.
    fn merge(&mut self, a: usize, b: usize) -> usize {
        let slot = self.spans.len();
        let start = self.arena.len();
        let (a_lo, a_hi) = self.spans[a];
        for k in a_lo..a_hi {
            let x = self.arena[k];
            let owner = &mut self.owners[x as usize];
            if !owner.contains(&b) {
                owner[usize::from(owner[0] != a)] = slot;
                self.arena.push(x);
            }
        }
        let (b_lo, b_hi) = self.spans[b];
        for k in b_lo..b_hi {
            let x = self.arena[k];
            let owner = &mut self.owners[x as usize];
            if owner.contains(&a) {
                // Shared: summed over, the wire leaves the network.
                *owner = [NONE; 2];
            } else {
                owner[usize::from(owner[0] != b)] = slot;
                self.arena.push(x);
            }
        }
        self.spans.push((start, self.arena.len()));
        let rank = self.rank(slot);
        let union = (self.rank(a) + self.rank(b) + rank) / 2;
        let cost = 1u64.checked_shl(union as u32).unwrap_or(u64::MAX);
        self.multiply_adds = self.multiply_adds.saturating_add(cost);
        self.steps.push(Step { a, b, rank });
        slot
    }

    fn into_plan(self) -> ContractionPlan {
        ContractionPlan {
            steps: self.steps,
            multiply_adds: self.multiply_adds,
        }
    }
}

/// The greedy choice among the live slots, `live` in the order a vector
/// of tensors kept by `swap_remove` and `push` would hold them: the
/// connected pair at positions `(i, j)`, `i < j`, minimizing
/// `(result rank, combined input size, i, j)`, or, when no two live slots
/// share a wire, the outer product minimizing the same key.
///
/// Every wire has at most two owners, so the connected pairs are found
/// through the wires in `O(Σ rank)`; `shared` is scratch indexed by slot,
/// all zero between calls, and `pos` maps a live slot to its position.
fn greedy_pair(w: &Wires, live: &[usize], pos: &[usize], shared: &mut [usize]) -> (usize, usize) {
    // 2^ra + 2^rb orders as the pair (max, min) of the two ranks.
    let key = |i: usize, j: usize, rank: usize| {
        let (ra, rb) = (w.rank(live[i]), w.rank(live[j]));
        (rank, ra.max(rb), ra.min(rb), i, j)
    };
    let mut best = None;
    for (i, &a) in live.iter().enumerate() {
        let partners = || {
            w.list(a)
                .iter()
                .map(|&x| w.other(x, a))
                .filter(|&b| b != NONE && pos[b] > i)
        };
        for b in partners() {
            shared[b] += 1;
        }
        for b in partners() {
            if shared[b] > 0 {
                let k = key(i, pos[b], w.rank(a) + w.rank(b) - 2 * shared[b]);
                if best.is_none_or(|best| k < best) {
                    best = Some(k);
                }
                shared[b] = 0;
            }
        }
    }
    if best.is_none() {
        for i in 0..live.len() {
            for j in i + 1..live.len() {
                let k = key(i, j, w.rank(live[i]) + w.rank(live[j]));
                if best.is_none_or(|best| k < best) {
                    best = Some(k);
                }
            }
        }
    }
    let (.., i, j) = best.expect("at least two live tensors");
    (i, j)
}

/// The greedy or sequential order of [`TensorNetwork::plan`] over the
/// slots of `w`, before any is contracted.
fn lay_out(mut w: Wires, order: OrderHeuristic) -> ContractionPlan {
    let tensors = w.spans.len();
    match order {
        OrderHeuristic::Sequential => {
            let mut acc = 0;
            for next in 1..tensors {
                acc = w.merge(acc, next);
            }
        }
        OrderHeuristic::Greedy => {
            let mut live: Vec<usize> = (0..tensors).collect();
            // A slot's position in `live`; a result's is set at its push.
            let mut pos: Vec<usize> = (0..2 * tensors).collect();
            let mut shared = vec![0; pos.len()];
            while live.len() > 1 {
                let (i, j) = greedy_pair(&w, &live, &pos, &mut shared);
                let b = live.swap_remove(j);
                let a = live.swap_remove(i);
                for p in [j, i] {
                    if let Some(&moved) = live.get(p) {
                        pos[moved] = p;
                    }
                }
                let slot = w.merge(a, b);
                pos[slot] = live.len();
                live.push(slot);
            }
        }
    }
    w.into_plan()
}

/// The wiring of a circuit's network: qubit `q`'s ket sits on wire `q`, and
/// `gate` is called with each gate, in circuit order, and its index list —
/// a fresh output wire per operand, then the operands' current wires.
/// Returns each qubit's output wire and the next unused index.
fn wire_gates(
    circuit: &Circuit,
    mut gate: impl FnMut(&Gate, &[IndexId]),
) -> (Vec<IndexId>, IndexId) {
    let n = circuit.num_qubits();
    let mut wires: Vec<IndexId> = (0..n as IndexId).collect();
    let mut next_index = n as IndexId;
    let mut indices = Vec::new();
    for g in circuit.gates() {
        let qs = g.operands();
        indices.clear();
        indices.extend((next_index..).take(qs.len()));
        indices.extend(qs.iter().map(|&q| wires[q]));
        for (&q, &out) in qs.iter().zip(&indices) {
            wires[q] = out;
        }
        next_index += qs.len() as IndexId;
        gate(g, &indices);
    }
    (wires, next_index)
}

impl ContractionPlan {
    /// Lays out the contraction of `circuit`'s network under `order` from
    /// its gates' operands alone: the plan [`TensorNetwork::plan`] lays out
    /// on [`TensorNetwork::from_circuit`], with no gate lowered to a
    /// tensor. It holds for every binding of the circuit's skeleton.
    pub fn for_circuit(circuit: &Circuit, order: OrderHeuristic) -> Self {
        lay_out(Wires::of_circuit(circuit), order)
    }
}

impl TensorNetwork {
    /// Lowers the unitary part of a circuit to a tensor network.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits();
        let mut tensors: Vec<Tensor> = (0..n as IndexId).map(Tensor::ket0).collect();
        let (outputs, next_index) = wire_gates(circuit, |g, indices| {
            tensors.push(Tensor::of_gate(&g.matrix(), indices.to_vec()));
        });
        TensorNetwork {
            tensors,
            outputs,
            next_index,
        }
    }

    /// Number of tensors currently in the network.
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// The open output wire of each qubit.
    pub fn outputs(&self) -> &[IndexId] {
        &self.outputs
    }

    /// Caps qubit `q`'s output with `<b|`, turning it into a closed wire.
    pub fn cap_output(&mut self, q: usize, b: u8) {
        self.tensors.push(Tensor::bra(self.outputs[q], b));
    }

    /// Lays out the contraction under the given heuristic from the
    /// tensors' index lists alone.
    ///
    /// `Greedy` keeps the tensors as a vector that loses its pair by
    /// `swap_remove` (the higher position first) and gains the result at
    /// its end, and contracts the connected pair at positions `i < j`
    /// with the smallest `(result rank, combined input size, i, j)` — an
    /// outer product only when no two tensors share a wire. `Sequential`
    /// folds left in insertion order.
    pub fn plan(&self, order: OrderHeuristic) -> ContractionPlan {
        lay_out(Wires::of(&self.tensors, self.next_index), order)
    }

    /// Contracts the network to a single tensor under the given heuristic.
    ///
    /// `width_limit` bounds the rank of any intermediate: the plan is laid
    /// out first, and a plan that exceeds it panics at its first step past
    /// the limit before any tensor is contracted — the analog of a
    /// contraction running out of memory.
    pub fn contract_all(self, order: OrderHeuristic, width_limit: usize) -> Tensor {
        let plan = self.plan(order);
        plan.within(width_limit)
            .unwrap_or_else(|why| panic!("{why}"));
        self.contract(&plan)
    }

    /// Contracts the network along `plan`, each step through the same
    /// offset tables. The plan must be laid out for this network's wires —
    /// by [`plan`](Self::plan) on it, or on the network of any circuit with
    /// the same gate operands — and its width is not checked here.
    pub(crate) fn contract(self, plan: &ContractionPlan) -> Tensor {
        let mut slots: Vec<Option<Tensor>> =
            Vec::with_capacity(self.tensors.len() + plan.steps.len());
        slots.extend(self.tensors.into_iter().map(Some));
        let mut ws = Workspace::default();
        for step in &plan.steps {
            let a = slots[step.a].take().expect("a live operand");
            let b = slots[step.b].take().expect("a live operand");
            slots.push(Some(a.contract_with(&b, &mut ws)));
        }
        slots.pop().flatten().unwrap_or(Tensor::scalar(C64::ONE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::Circuit;
    use qfw_num::complex::c64;

    #[test]
    fn network_shape_for_ghz() {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        let net = TensorNetwork::from_circuit(&qc);
        // 3 kets + 3 gates
        assert_eq!(net.num_tensors(), 6);
        assert_eq!(net.outputs().len(), 3);
    }

    #[test]
    fn contract_bell_both_orders() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        for order in [OrderHeuristic::Greedy, OrderHeuristic::Sequential] {
            let net = TensorNetwork::from_circuit(&qc);
            let t = net.contract_all(order, 32);
            assert_eq!(t.rank(), 2);
            let s = 1.0 / 2.0_f64.sqrt();
            // Find the all-zero amplitude irrespective of index order.
            let total: f64 = t.data.iter().map(|z| z.norm_sqr()).sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!(t.data[0].approx_eq(c64(s, 0.0), 1e-12));
        }
    }

    #[test]
    fn capped_network_gives_amplitude() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let mut net = TensorNetwork::from_circuit(&qc);
        net.cap_output(0, 1);
        net.cap_output(1, 1);
        let t = net.contract_all(OrderHeuristic::Greedy, 32);
        assert_eq!(t.rank(), 0);
        let s = 1.0 / 2.0_f64.sqrt();
        assert!(t.data[0].approx_eq(c64(s, 0.0), 1e-12));
    }

    /// A plan laid out from a circuit's gate operands is the plan of its
    /// lowered network, under both orders: on random circuits of 1–10
    /// qubits, some with a Toffoli, and on the empty circuit.
    #[test]
    fn plan_from_operands_is_the_plan_of_the_network() {
        for seed in 0..96u64 {
            let n = 1 + (seed % 10) as usize;
            let len = (seed * 7 % 50) as usize;
            let mut qc = if n > 1 {
                qfw_testkit::random_circuit(n, len, seed)
            } else {
                Circuit::new(1)
            };
            if n > 2 && seed % 2 == 0 {
                qc.ccx(n - 1, 0, n / 2).h(n / 2);
            }
            for order in [OrderHeuristic::Greedy, OrderHeuristic::Sequential] {
                assert_eq!(
                    ContractionPlan::for_circuit(&qc, order),
                    TensorNetwork::from_circuit(&qc).plan(order),
                    "seed {seed}, {n} qubits, {order:?}"
                );
            }
        }
    }

    #[test]
    fn width_limit_enforced() {
        let mut qc = Circuit::new(6);
        for q in 0..6 {
            qc.h(q);
        }
        let net = TensorNetwork::from_circuit(&qc);
        let result = std::panic::catch_unwind(|| net.contract_all(OrderHeuristic::Greedy, 3));
        assert!(result.is_err());
    }

    #[test]
    fn empty_circuit_contracts_to_kets() {
        let qc = Circuit::new(2);
        let net = TensorNetwork::from_circuit(&qc);
        let t = net.contract_all(OrderHeuristic::Greedy, 8);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.data[0], C64::ONE);
    }
}

/// The plan and the kernel held to the code they replaced: the O(T²) scan
/// that picked the greedy pair among every pair of tensors at every step,
/// and the kernel that rebuilt both operands' offsets bit by bit for every
/// term. Both live only here, as oracles.
#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;
    use qfw_testkit::random_circuit;

    /// Greedy pair selection by scanning every pair: smallest result
    /// tensor; prefers connected pairs and breaks ties by smaller combined
    /// input size.
    fn pick_greedy_pair(tensors: &[Tensor]) -> (usize, usize) {
        for connected_only in [true, false] {
            let mut best: Option<(usize, usize, usize, usize)> = None; // (rank, insize, i, j)
            for i in 0..tensors.len() {
                for j in (i + 1)..tensors.len() {
                    let a = &tensors[i];
                    let b = &tensors[j];
                    let shared = a.indices.iter().filter(|x| b.indices.contains(x)).count();
                    if connected_only && shared == 0 {
                        continue;
                    }
                    let rank = a.rank() + b.rank() - 2 * shared;
                    let insize = a.size() + b.size();
                    if best.is_none_or(|(br, bi, ..)| (rank, insize) < (br, bi)) {
                        best = Some((rank, insize, i, j));
                    }
                }
            }
            if let Some((_, _, i, j)) = best {
                return (i, j);
            }
        }
        unreachable!("network has at least two tensors")
    }

    /// Pairwise contraction, every operand offset rebuilt from the loop
    /// variables bit by bit.
    fn element_kernel(a: &Tensor, b: &Tensor) -> Tensor {
        let shared: Vec<IndexId> = a
            .indices
            .iter()
            .copied()
            .filter(|i| b.indices.contains(i))
            .collect();
        let a_free: Vec<IndexId> = a
            .indices
            .iter()
            .copied()
            .filter(|i| !shared.contains(i))
            .collect();
        let b_free: Vec<IndexId> = b
            .indices
            .iter()
            .copied()
            .filter(|i| !shared.contains(i))
            .collect();
        let map = |t: &Tensor, free: &[IndexId]| -> Vec<(bool, usize)> {
            t.indices
                .iter()
                .map(|i| match free.iter().position(|x| x == i) {
                    Some(p) => (true, p),
                    None => (false, shared.iter().position(|x| x == i).unwrap()),
                })
                .collect()
        };
        let (a_map, b_map) = (map(a, &a_free), map(b, &b_free));
        let offset = |m: &[(bool, usize)], f: usize, s: usize| -> usize {
            let mut idx = 0usize;
            for (bit, &(is_free, pos)) in m.iter().enumerate() {
                let v = if is_free {
                    (f >> pos) & 1
                } else {
                    (s >> pos) & 1
                };
                idx |= v << bit;
            }
            idx
        };
        let (na, ns, nb) = (a_free.len(), shared.len(), b_free.len());
        let mut out = vec![C64::ZERO; 1 << (na + nb)];
        for af in 0..(1usize << na) {
            for bf in 0..(1usize << nb) {
                let mut acc = C64::ZERO;
                for s in 0..(1usize << ns) {
                    let x = a.data[offset(&a_map, af, s)];
                    let y = b.data[offset(&b_map, bf, s)];
                    acc = x.mul_add(y, acc);
                }
                out[af | (bf << na)] = acc;
            }
        }
        let mut indices = a_free;
        indices.extend(b_free);
        Tensor { indices, data: out }
    }

    fn bits(t: &Tensor) -> (Vec<IndexId>, Vec<(u64, u64)>) {
        let data = t
            .data
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect();
        (t.indices.clone(), data)
    }

    /// A random circuit's network on `n` qubits; `caps` closes no output
    /// (0), every output (1, the `amplitude` path) or the outputs picked
    /// by the bits of `seed >> 32` (2), each with a bit of `seed`.
    fn network(n: usize, len: usize, seed: u64, caps: u64) -> TensorNetwork {
        let circuit = if n > 1 {
            random_circuit(n, len, seed)
        } else {
            // One qubit: the 1q gates of a two-qubit draw that land on 0.
            let mut qc = Circuit::new(1);
            for g in random_circuit(2, len, seed).gates() {
                if *g.operands() == [0] {
                    qc.push(g.clone());
                }
            }
            qc
        };
        let mut net = TensorNetwork::from_circuit(&circuit);
        for q in (0..n).filter(|q| caps == 1 || (caps == 2 && (seed >> (32 + q)) & 1 == 1)) {
            net.cap_output(q, ((seed >> q) & 1) as u8);
        }
        net
    }

    /// Replays the parent's loop on the network's tensors: the pair from
    /// the scan (greedy) or the first two (sequential), contracted by the
    /// element kernel. Checks each step against the plan's operands and
    /// the offset-table kernel bit for bit, and returns the last tensor.
    fn replay(net: &TensorNetwork, order: OrderHeuristic, plan: &ContractionPlan) -> Tensor {
        let mut tensors: Vec<(usize, Tensor)> = net.tensors.iter().cloned().enumerate().collect();
        let mut ws = Workspace::default();
        let mut steps = plan.steps.iter();
        while tensors.len() > 1 {
            let ((sa, a), (sb, b)) = match order {
                OrderHeuristic::Sequential => {
                    let b = tensors.remove(1);
                    (tensors.remove(0), b)
                }
                OrderHeuristic::Greedy => {
                    let list: Vec<Tensor> = tensors.iter().map(|(_, t)| t.clone()).collect();
                    let (i, j) = pick_greedy_pair(&list);
                    let b = tensors.swap_remove(j);
                    (tensors.swap_remove(i), b)
                }
            };
            let step = steps.next().expect("the plan has a step per contraction");
            assert_eq!((step.a, step.b), (sa, sb), "{order:?}: operands");
            let want = element_kernel(&a, &b);
            assert_eq!(step.rank, want.rank(), "{order:?}: rank");
            assert_eq!(
                bits(&a.contract_with(&b, &mut ws)),
                bits(&want),
                "{order:?}: kernel"
            );
            let slot = net.num_tensors() + plan.steps.len() - steps.len() - 1;
            match order {
                OrderHeuristic::Sequential => tensors.insert(0, (slot, want)),
                OrderHeuristic::Greedy => tensors.push((slot, want)),
            }
        }
        assert!(steps.next().is_none(), "{order:?}: steps left over");
        tensors.pop().map_or(Tensor::scalar(C64::ONE), |(_, t)| t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both orders on 1–10 qubits, open and capped: the plan's pairs
        /// are the scan's, every step's contraction is the element
        /// kernel's to the bit, and so is what `contract_all` returns.
        #[test]
        fn plan_and_kernel_are_the_scan_and_the_element_kernel(
            n in 1usize..11,
            len in 0usize..40,
            seed in 0u64..u64::MAX,
            caps in 0u64..3,
        ) {
            let net = network(n, len, seed, caps);
            for order in [OrderHeuristic::Greedy, OrderHeuristic::Sequential] {
                let plan = net.plan(order);
                let want = replay(&net, order, &plan);
                let got = net.clone().contract_all(order, usize::MAX);
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }

    /// A plan past the width limit is refused at its first wide step, with
    /// that step's rank, and the scan meets the same step first.
    #[test]
    fn width_is_refused_at_the_first_step_past_the_limit() {
        let net = network(8, 40, 7, 0);
        let plan = net.plan(OrderHeuristic::Greedy);
        let limit = plan.widest() - 1;
        let first = plan.steps.iter().find(|s| s.rank > limit).unwrap().rank;
        let mut tensors = net.tensors.clone();
        let scanned = loop {
            let (i, j) = pick_greedy_pair(&tensors);
            let b = tensors.swap_remove(j);
            let t = element_kernel(&tensors.swap_remove(i), &b);
            if t.rank() > limit {
                break t.rank();
            }
            tensors.push(t);
        };
        assert_eq!(first, scanned);
        let err = std::panic::catch_unwind(|| net.contract_all(OrderHeuristic::Greedy, limit))
            .expect_err("past the limit");
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(
            *msg,
            format!("contraction width {first} exceeds the limit {limit}")
        );
    }

    /// A Bell pair's greedy plan, worked by hand: `ket0(0)·H` (rank 1,
    /// 2^2 terms), then `CX·ket0(1)` (rank 3, 2^4; it ties with
    /// `CX·(ket0 H)` and sits first), then the two results (rank 2, 2^3).
    #[test]
    fn bell_plan_by_hand() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let plan = TensorNetwork::from_circuit(&qc).plan(OrderHeuristic::Greedy);
        let steps: Vec<_> = plan.steps.iter().map(|s| (s.a, s.b, s.rank)).collect();
        assert_eq!(steps, [(0, 2, 1), (3, 1, 3), (4, 5, 2)]);
        assert_eq!((plan.widest(), plan.multiply_adds()), (3, 4 + 16 + 8));
    }
}
