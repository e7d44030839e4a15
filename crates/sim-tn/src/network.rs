//! Circuit → tensor network lowering and pairwise contraction planning.

use crate::tensor::{IndexId, Tensor};
use qfw_circuit::{Circuit, Op};
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

impl TensorNetwork {
    /// Lowers the unitary part of a circuit to a tensor network.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits();
        let mut next_index: IndexId = 0;
        let mut fresh = || {
            let i = next_index;
            next_index += 1;
            i
        };
        let mut wires: Vec<IndexId> = (0..n).map(|_| fresh()).collect();
        let mut tensors: Vec<Tensor> = wires.iter().map(|&w| Tensor::ket0(w)).collect();

        for op in circuit.ops() {
            if let Op::Gate(g) = op {
                let qs = g.qubits();
                let ins: Vec<IndexId> = qs.iter().map(|&q| wires[q]).collect();
                let outs: Vec<IndexId> = qs.iter().map(|_| fresh()).collect();
                tensors.push(Tensor::gate(&g.matrix(), &outs, &ins));
                for (j, &q) in qs.iter().enumerate() {
                    wires[q] = outs[j];
                }
            }
        }
        TensorNetwork {
            tensors,
            outputs: wires,
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

    /// Contracts the network to a single tensor under the given heuristic.
    ///
    /// `width_limit` bounds the rank of any intermediate (panics when the
    /// plan exceeds it — the analog of a contraction running out of memory).
    pub fn contract_all(mut self, order: OrderHeuristic, width_limit: usize) -> Tensor {
        let _ = self.next_index;
        while self.tensors.len() > 1 {
            match order {
                OrderHeuristic::Sequential => {
                    // Fold-left in insertion order: the accumulator absorbs
                    // the next tensor, exactly like naive statevector-style
                    // application. (Order must be preserved — swap_remove
                    // would scramble the fold into adversarial outer
                    // products.)
                    let b = self.tensors.remove(1);
                    let a = self.tensors.remove(0);
                    Self::check_width(&a, &b, width_limit);
                    self.tensors.insert(0, a.contract(&b));
                }
                OrderHeuristic::Greedy => {
                    let (i, j) = self.pick_greedy_pair();
                    let (i, j) = (i.min(j), i.max(j));
                    let b = self.tensors.swap_remove(j);
                    let a = self.tensors.swap_remove(i);
                    Self::check_width(&a, &b, width_limit);
                    self.tensors.push(a.contract(&b));
                }
            }
        }
        self.tensors.pop().unwrap_or(Tensor::scalar(C64::ONE))
    }

    fn check_width(a: &Tensor, b: &Tensor, width_limit: usize) {
        let result_rank = Self::result_rank(a, b);
        assert!(
            result_rank <= width_limit,
            "contraction width {result_rank} exceeds the limit {width_limit}"
        );
    }

    /// Rank of the tensor produced by contracting `a` with `b`.
    fn result_rank(a: &Tensor, b: &Tensor) -> usize {
        let shared = a
            .indices
            .iter()
            .filter(|i| b.indices.contains(i))
            .count();
        a.rank() + b.rank() - 2 * shared
    }

    /// Greedy pair selection: smallest result tensor; prefers connected
    /// pairs and breaks ties by smaller combined input size.
    fn pick_greedy_pair(&self) -> (usize, usize) {
        // Two passes: first restrict to connected pairs; fall back to outer
        // products only when the network is fully disconnected.
        for connected_only in [true, false] {
            let mut best: Option<(usize, usize, usize, usize)> = None; // (rank, insize, i, j)
            for i in 0..self.tensors.len() {
                for j in (i + 1)..self.tensors.len() {
                    let a = &self.tensors[i];
                    let b = &self.tensors[j];
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
