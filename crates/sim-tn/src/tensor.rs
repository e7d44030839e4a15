//! Dense tensors with binary (dimension-2) indices and pairwise contraction
//! through offset tables.
//!
//! A contraction never rebuilds an element's offset bit by bit: the offsets
//! of every assignment of a tensor's free indices, and of the indices it
//! sums over, are laid out once per contraction by doubling
//! (`Workspace`), and the inner loop adds a free offset to a shared one.
//! [`Tensor::permute_to`] reads its source offsets from the same kind of
//! table.

use qfw_num::complex::C64;
use qfw_num::Matrix;

/// Identifier of a tensor-network index (edge/wire).
pub type IndexId = u32;

/// A dense tensor whose indices all have dimension 2.
///
/// Element addressing: for linear offset `i`, bit `j` of `i` is the value of
/// `indices[j]` (first index fastest).
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    /// The tensor's indices; `data.len() == 2^indices.len()`.
    pub indices: Vec<IndexId>,
    /// Row-major-by-bit data.
    pub data: Vec<C64>,
}

/// The offset tables of one pairwise contraction, kept across the steps of
/// a network so that a step allocates only its result.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Offset in `a` of every assignment of `a`'s free indices.
    free_a: Vec<usize>,
    /// Offset in `b` of every assignment of `b`'s free indices.
    free_b: Vec<usize>,
    /// Offset in `a` of every assignment of the shared indices, which are
    /// ordered as in `a`.
    shared_a: Vec<usize>,
    /// Offset in `b` of the same assignments.
    shared_b: Vec<usize>,
}

/// Result elements accumulated side by side in one pass over the shared
/// assignments.
const CHUNK: usize = 64;

/// Fills `table` with the offset of every assignment of the indices at bit
/// positions `bits` (first fastest): entry `m` sets bit `bits[k]` for each
/// bit `k` of `m`. Built by doubling, one add per entry.
fn offsets(table: &mut Vec<usize>, bits: impl Iterator<Item = usize>) {
    table.clear();
    table.push(0);
    for bit in bits {
        let half = table.len();
        table.extend_from_within(..half);
        table[half..].iter_mut().for_each(|o| *o += 1 << bit);
    }
}

impl Tensor {
    /// A scalar tensor.
    pub fn scalar(v: C64) -> Self {
        Tensor {
            indices: vec![],
            data: vec![v],
        }
    }

    /// The `|0>` ket on a wire.
    pub fn ket0(wire: IndexId) -> Self {
        Tensor {
            indices: vec![wire],
            data: vec![C64::ONE, C64::ZERO],
        }
    }

    /// The `<b|` bra on a wire (to cap an output when computing amplitudes).
    pub fn bra(wire: IndexId, b: u8) -> Self {
        let mut data = vec![C64::ZERO, C64::ZERO];
        data[b as usize] = C64::ONE;
        Tensor {
            indices: vec![wire],
            data,
        }
    }

    /// A gate tensor: indices `[out_0.. out_{k-1}, in_0.. in_{k-1}]` with
    /// `data[(out, in)] = m[out, in]` (bit `j` of `out`/`in` belonging to
    /// the gate's local qubit `j`).
    pub fn gate(m: &Matrix, outs: &[IndexId], ins: &[IndexId]) -> Self {
        assert_eq!(ins.len(), outs.len());
        let mut indices = Vec::with_capacity(2 * outs.len());
        indices.extend_from_slice(outs);
        indices.extend_from_slice(ins);
        Self::of_gate(m, indices)
    }

    /// [`gate`](Self::gate) over its indices `[outs.., ins..]`, already laid
    /// out.
    pub(crate) fn of_gate(m: &Matrix, indices: Vec<IndexId>) -> Self {
        let k = indices.len() / 2;
        assert_eq!(m.rows(), 1 << k);
        let mut data = vec![C64::ZERO; 1 << (2 * k)];
        for out in 0..(1usize << k) {
            for inp in 0..(1usize << k) {
                data[out | (inp << k)] = m[(out, inp)];
            }
        }
        Tensor { indices, data }
    }

    /// Tensor rank (number of indices).
    pub fn rank(&self) -> usize {
        self.indices.len()
    }

    /// Number of stored amplitudes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Contracts two tensors over all of their shared indices (an outer
    /// product when they share none). Result indices: `self`'s free indices
    /// followed by `other`'s free indices.
    pub fn contract(&self, other: &Tensor) -> Tensor {
        self.contract_with(other, &mut Workspace::default())
    }

    /// [`contract`](Self::contract) with its offset tables in `ws`.
    ///
    /// A result element sums its terms in counting order of the shared
    /// assignment, shared indices ordered as in `self`, with one `mul_add`
    /// per term starting from zero.
    pub(crate) fn contract_with(&self, other: &Tensor, ws: &mut Workspace) -> Tensor {
        let (a, b) = (&self.indices, &other.indices);
        let in_b = |p: &usize| b.contains(&a[*p]);
        offsets(&mut ws.free_a, (0..a.len()).filter(|p| !in_b(p)));
        offsets(&mut ws.shared_a, (0..a.len()).filter(in_b));
        offsets(
            &mut ws.shared_b,
            a.iter().filter_map(|i| b.iter().position(|x| x == i)),
        );
        offsets(&mut ws.free_b, (0..b.len()).filter(|&p| !a.contains(&b[p])));

        let shared = ws.shared_a.len().trailing_zeros() as usize;
        let mut indices = Vec::with_capacity(a.len() + b.len() - 2 * shared);
        indices.extend(a.iter().filter(|i| !b.contains(i)));
        indices.extend(b.iter().filter(|i| !a.contains(i)));
        let mut data = Vec::with_capacity(ws.free_a.len() * ws.free_b.len());
        let mut acc = [C64::ZERO; CHUNK];
        for &bo in &ws.free_b {
            for free_a in ws.free_a.chunks(CHUNK) {
                let acc = &mut acc[..free_a.len()];
                acc.fill(C64::ZERO);
                for (&sa, &sb) in ws.shared_a.iter().zip(&ws.shared_b) {
                    let y = other.data[bo + sb];
                    for (acc, &ao) in acc.iter_mut().zip(free_a) {
                        *acc = self.data[ao + sa].mul_add(y, *acc);
                    }
                }
                data.extend_from_slice(acc);
            }
        }
        Tensor { indices, data }
    }

    /// Reorders this tensor's indices to `target` (a permutation of the
    /// current indices), permuting the data accordingly.
    pub fn permute_to(&self, target: &[IndexId]) -> Tensor {
        assert_eq!(target.len(), self.indices.len());
        // Bit j of a result offset is the value of target[j], which sits at
        // bit perm[j] of the source offset.
        let perm: Vec<usize> = target
            .iter()
            .map(|t| {
                self.indices
                    .iter()
                    .position(|i| i == t)
                    .expect("target index not present")
            })
            .collect();
        // One table for the low half of the target bits and one for the
        // high half, so neither is longer than 2^(n/2 + 1).
        let low = perm.len() / 2;
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        offsets(&mut lo, perm[..low].iter().copied());
        offsets(&mut hi, perm[low..].iter().copied());
        let mut data = Vec::with_capacity(self.data.len());
        for &h in &hi {
            data.extend(lo.iter().map(|&l| self.data[h + l]));
        }
        Tensor {
            indices: target.to_vec(),
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::Gate;
    use qfw_num::complex::c64;

    #[test]
    fn ket_and_bra_contract_to_scalar() {
        let k = Tensor::ket0(5);
        let b0 = Tensor::bra(5, 0);
        let b1 = Tensor::bra(5, 1);
        assert_eq!(k.contract(&b0).data, vec![C64::ONE]);
        assert_eq!(k.contract(&b1).data, vec![C64::ZERO]);
    }

    #[test]
    fn gate_tensor_matches_matrix_entries() {
        let m = Gate::Cx(0, 1).matrix();
        let t = Tensor::gate(&m, &[10, 11], &[0, 1]);
        assert_eq!(t.rank(), 4);
        // data[out | in<<2] = m[out][in]
        assert_eq!(t.data[0b0000], m[(0, 0)]);
        assert_eq!(t.data[0b0111], m[(3, 1)]);
    }

    #[test]
    fn hadamard_applied_via_contraction() {
        let k = Tensor::ket0(0);
        let h = Tensor::gate(&Gate::H(0).matrix(), &[1], &[0]);
        let out = k.contract(&h);
        assert_eq!(out.indices, vec![1]);
        let s = 1.0 / 2.0_f64.sqrt();
        assert!(out.data[0].approx_eq(c64(s, 0.0), 1e-12));
        assert!(out.data[1].approx_eq(c64(s, 0.0), 1e-12));
    }

    #[test]
    fn outer_product_when_no_shared_indices() {
        let a = Tensor::ket0(0);
        let b = Tensor::ket0(1);
        let ab = a.contract(&b);
        assert_eq!(ab.rank(), 2);
        assert_eq!(ab.data[0], C64::ONE);
        assert!(ab.data[1..].iter().all(|&z| z == C64::ZERO));
    }

    #[test]
    fn contraction_is_commutative_up_to_index_order() {
        let h = Tensor::gate(&Gate::H(0).matrix(), &[1], &[0]);
        let t = Tensor::gate(&Gate::T(0).matrix(), &[2], &[1]);
        let ab = h.contract(&t);
        let ba = t.contract(&h).permute_to(&ab.indices);
        for (x, y) in ab.data.iter().zip(ba.data.iter()) {
            assert!(x.approx_eq(*y, 1e-12));
        }
    }

    #[test]
    fn bell_amplitude_by_capping() {
        // <00| and <11| amplitudes of H⊗I then CX network.
        let k0 = Tensor::ket0(0);
        let k1 = Tensor::ket0(1);
        let h = Tensor::gate(&Gate::H(0).matrix(), &[2], &[0]);
        let cx = Tensor::gate(&Gate::Cx(0, 1).matrix(), &[3, 4], &[2, 1]);
        let net = k0.contract(&h).contract(&k1).contract(&cx);
        let s = 1.0 / 2.0_f64.sqrt();
        let amp00 = net
            .contract(&Tensor::bra(3, 0))
            .contract(&Tensor::bra(4, 0));
        let amp11 = net
            .contract(&Tensor::bra(3, 1))
            .contract(&Tensor::bra(4, 1));
        let amp01 = net
            .contract(&Tensor::bra(3, 1))
            .contract(&Tensor::bra(4, 0));
        assert!(amp00.data[0].approx_eq(c64(s, 0.0), 1e-12));
        assert!(amp11.data[0].approx_eq(c64(s, 0.0), 1e-12));
        assert!(amp01.data[0].approx_eq(C64::ZERO, 1e-12));
    }

    #[test]
    fn permute_round_trip() {
        let m = Gate::Cry(0, 1, 0.7).matrix();
        let t = Tensor::gate(&m, &[5, 6], &[1, 2]);
        let p = t.permute_to(&[2, 6, 1, 5]);
        let back = p.permute_to(&t.indices);
        assert_eq!(back, t);
    }
}
