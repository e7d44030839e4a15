//! Pauli-string observables and Hamiltonians.
//!
//! The variational eigensolver path (VQE — one of the hybrid families the
//! paper's introduction motivates) needs more than bitstring counts: it
//! estimates `<H> = sum_k c_k <P_k>` for a Pauli-decomposed Hamiltonian.
//! This module provides the observable representation, measurement-basis
//! grouping (qubit-wise commuting terms share one circuit), the basis
//! rotation circuits, and count-side estimators — everything needed to
//! evaluate a Hamiltonian through a counts-only backend API like QFw's.

use qfw_circuit::counts::key_bit;
use qfw_circuit::{Circuit, Counts};
use qfw_num::complex::{c64, C64};
use qfw_num::Matrix;
use std::collections::BTreeMap;

/// A single-qubit Pauli operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pauli {
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

/// A weighted Pauli string: `coeff * P_{q1} ⊗ P_{q2} ⊗ ...` (identity on
/// unlisted qubits). Qubit indices are unique and sorted.
#[derive(Clone, Debug, PartialEq)]
pub struct PauliTerm {
    /// Real coefficient (Hermitian observables only).
    pub coeff: f64,
    /// (qubit, operator) factors, sorted by qubit.
    pub ops: Vec<(usize, Pauli)>,
}

impl PauliTerm {
    /// Builds a term, sorting and validating the factors.
    pub fn new(coeff: f64, mut ops: Vec<(usize, Pauli)>) -> Self {
        ops.sort_by_key(|&(q, _)| q);
        for pair in ops.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "duplicate qubit in Pauli term");
        }
        PauliTerm { coeff, ops }
    }

    /// The identity term (a constant energy offset).
    pub fn constant(coeff: f64) -> Self {
        PauliTerm { coeff, ops: vec![] }
    }
}

/// A Hermitian observable as a sum of weighted Pauli strings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PauliHamiltonian {
    /// The terms; constants are terms with no factors.
    pub terms: Vec<PauliTerm>,
}

impl PauliHamiltonian {
    /// Adds a term (builder style).
    pub fn term(mut self, coeff: f64, ops: Vec<(usize, Pauli)>) -> Self {
        self.terms.push(PauliTerm::new(coeff, ops));
        self
    }

    /// The transverse-field Ising Hamiltonian
    /// `H = -J sum Z_i Z_{i+1} - h sum X_i` on a chain of `n` qubits — the
    /// model behind both the HAM and TFIM benchmarks.
    pub fn tfim(n: usize, j: f64, h: f64) -> Self {
        assert!(n >= 2);
        let mut ham = PauliHamiltonian::default();
        for q in 0..n - 1 {
            ham = ham.term(-j, vec![(q, Pauli::Z), (q + 1, Pauli::Z)]);
        }
        for q in 0..n {
            ham = ham.term(-h, vec![(q, Pauli::X)]);
        }
        ham
    }

    /// Number of qubits spanned (one past the highest index touched).
    pub fn num_qubits(&self) -> usize {
        self.terms
            .iter()
            .flat_map(|t| t.ops.iter().map(|&(q, _)| q))
            .max()
            .map_or(0, |q| q + 1)
    }

    /// Dense matrix representation — exponential; for validation only.
    pub fn dense_matrix(&self, n: usize) -> Matrix {
        assert!(n <= 12, "dense Hamiltonian beyond 2^12 is a mistake");
        let dim = 1usize << n;
        let mut m = Matrix::zeros(dim, dim);
        for t in &self.terms {
            // Pauli strings map basis state |col> to coeff * phase |row>.
            for col in 0..dim {
                let mut row = col;
                let mut amp = c64(t.coeff, 0.0);
                for &(q, p) in &t.ops {
                    let bit = (row >> q) & 1;
                    match p {
                        Pauli::Z => {
                            if bit == 1 {
                                amp = -amp;
                            }
                        }
                        Pauli::X => {
                            row ^= 1 << q;
                        }
                        Pauli::Y => {
                            // Y|0> = i|1>, Y|1> = -i|0>
                            amp *= if bit == 0 { C64::I } else { -C64::I };
                            row ^= 1 << q;
                        }
                    }
                }
                m[(row, col)] += amp;
            }
        }
        m
    }

    /// Exact ground-state energy by dense diagonalization (validation).
    pub fn ground_energy(&self, n: usize) -> f64 {
        let m = self.dense_matrix(n);
        qfw_num::decomp::eigh(&m).values[0]
    }

    /// Groups terms into qubit-wise commuting measurement groups: two terms
    /// share a group iff no qubit carries different non-identity Paulis.
    /// Greedy first-fit — optimal grouping is NP-hard and unnecessary here.
    pub fn measurement_groups(&self) -> Vec<MeasurementGroup> {
        let mut groups: Vec<MeasurementGroup> = Vec::new();
        for (idx, t) in self.terms.iter().enumerate() {
            if t.ops.is_empty() {
                continue; // constants need no measurement
            }
            let slot = groups.iter_mut().find(|g| g.accepts(t));
            match slot {
                Some(g) => g.add(idx, t),
                None => {
                    let mut g = MeasurementGroup::default();
                    g.add(idx, t);
                    groups.push(g);
                }
            }
        }
        groups
    }

    /// Sum of the constant (identity) terms.
    pub fn constant_offset(&self) -> f64 {
        self.terms
            .iter()
            .filter(|t| t.ops.is_empty())
            .map(|t| t.coeff)
            .sum()
    }
}

/// A set of qubit-wise commuting terms measurable with one basis-rotated
/// circuit execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MeasurementGroup {
    /// Required basis per qubit (absent = identity on every member).
    pub basis: BTreeMap<usize, Pauli>,
    /// Indices into `PauliHamiltonian::terms`.
    pub term_indices: Vec<usize>,
}

impl MeasurementGroup {
    fn accepts(&self, t: &PauliTerm) -> bool {
        t.ops
            .iter()
            .all(|&(q, p)| self.basis.get(&q).is_none_or(|&b| b == p))
    }

    fn add(&mut self, idx: usize, t: &PauliTerm) {
        for &(q, p) in &t.ops {
            self.basis.insert(q, p);
        }
        self.term_indices.push(idx);
    }

    /// The basis-rotation suffix mapping this group's measurement onto the
    /// computational basis: `H` for X, `Sdg;H` for Y, nothing for Z.
    pub fn rotation_circuit(&self, n: usize) -> Circuit {
        let mut qc = Circuit::new(n).named("basis_rotation");
        for (&q, &p) in &self.basis {
            match p {
                Pauli::X => {
                    qc.h(q);
                }
                Pauli::Y => {
                    qc.sdg(q).h(q);
                }
                Pauli::Z => {}
            }
        }
        qc
    }

    /// Estimates each member term's `<P>` from rotated-basis counts: the
    /// expectation is the mean of the ±1 parities over the term's qubits.
    /// Returns (term index, expectation) pairs.
    pub fn estimate(&self, ham: &PauliHamiltonian, counts: &Counts) -> Vec<(usize, f64)> {
        let shots: usize = counts.values().sum();
        assert!(shots > 0, "empty counts");
        self.term_indices
            .iter()
            .map(|&idx| {
                let term = &ham.terms[idx];
                let mut acc = 0.0;
                for (key, c) in counts.outcomes() {
                    let mut parity = 1.0;
                    for &(q, _) in &term.ops {
                        if key_bit(key, q) {
                            parity = -parity;
                        }
                    }
                    acc += parity * c as f64;
                }
                (idx, acc / shots as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_sim_sv::SvSimulator;

    #[test]
    fn tfim_hamiltonian_shape() {
        let h = PauliHamiltonian::tfim(4, 1.0, 0.5);
        assert_eq!(h.terms.len(), 3 + 4);
        assert_eq!(h.num_qubits(), 4);
        assert_eq!(h.constant_offset(), 0.0);
    }

    #[test]
    fn dense_matrix_is_hermitian_and_correct_for_single_terms() {
        // Z on qubit 0 of 2: diag(1, -1, 1, -1).
        let h = PauliHamiltonian::default().term(1.0, vec![(0, Pauli::Z)]);
        let m = h.dense_matrix(2);
        assert!(m.is_hermitian(1e-12));
        assert_eq!(m[(0, 0)], C64::ONE);
        assert_eq!(m[(1, 1)], -C64::ONE);
        assert_eq!(m[(3, 3)], -C64::ONE);
        // X on qubit 1 of 2: flips bit 1.
        let h = PauliHamiltonian::default().term(2.0, vec![(1, Pauli::X)]);
        let m = h.dense_matrix(2);
        assert_eq!(m[(2, 0)], c64(2.0, 0.0));
        assert_eq!(m[(0, 2)], c64(2.0, 0.0));
        // Y is Hermitian too.
        let h = PauliHamiltonian::default().term(1.0, vec![(0, Pauli::Y)]);
        assert!(h.dense_matrix(1).is_hermitian(1e-12));
    }

    #[test]
    fn tfim_ground_energy_matches_known_value() {
        // For n=2, J=1, h=1: H = -Z0Z1 - X0 - X1; ground energy = -(1+sqrt(2))...
        // compute by explicit 4x4 diagonalization and compare to eigh path.
        let h = PauliHamiltonian::tfim(2, 1.0, 1.0);
        let e = h.ground_energy(2);
        // Exact: eigenvalues of [[-1,-1,-1,0],[-1,1,0,-1],[-1,0,1,-1],[0,-1,-1,-1]]
        // ground state is -(1 + sqrt(2)) ≈ -2.2360? Verify numerically instead:
        let m = h.dense_matrix(2);
        let vals = qfw_num::decomp::eigh(&m).values;
        assert!((e - vals[0]).abs() < 1e-10);
        assert!(e < -2.0);
    }

    #[test]
    fn measurement_groups_split_zz_and_x() {
        let h = PauliHamiltonian::tfim(4, 1.0, 0.5);
        let groups = h.measurement_groups();
        // All ZZ terms fit one group, all X terms another.
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(|g| g.term_indices.len()).collect();
        assert!(sizes.contains(&3) && sizes.contains(&4));
    }

    #[test]
    fn incompatible_bases_get_separate_groups() {
        let h = PauliHamiltonian::default()
            .term(1.0, vec![(0, Pauli::X)])
            .term(1.0, vec![(0, Pauli::Z)])
            .term(1.0, vec![(0, Pauli::Y)]);
        assert_eq!(h.measurement_groups().len(), 3);
    }

    #[test]
    fn grouped_estimation_matches_exact_expectation() {
        // Prepare a known state, estimate <H> from rotated counts, compare
        // with the dense matrix expectation.
        let n = 3;
        let ham = PauliHamiltonian::tfim(n, 1.0, 0.7);
        let mut prep = Circuit::new(n);
        prep.ry(0, 0.8).ry(1, -0.4).ry(2, 1.2).cx(0, 1).cx(1, 2);

        // Exact value.
        let engine = SvSimulator::plain();
        let sv = engine.statevector(&prep);
        let m = ham.dense_matrix(n);
        let hv = m.matvec(sv.amps());
        let exact = qfw_num::matrix::inner(sv.amps(), &hv).re;

        // Sampled estimate through measurement groups.
        let mut estimate = ham.constant_offset();
        for group in ham.measurement_groups() {
            let mut qc = prep.clone();
            qc.compose(&group.rotation_circuit(n));
            qc.measure_all();
            let out = engine.run(&qc, 60_000, 9);
            for (idx, e) in group.estimate(&ham, &Counts::from(out.counts)) {
                estimate += ham.terms[idx].coeff * e;
            }
        }
        assert!(
            (estimate - exact).abs() < 0.05,
            "estimate {estimate} vs exact {exact}"
        );
    }

    #[test]
    fn constant_terms_skip_measurement() {
        let h = PauliHamiltonian::default()
            .term(3.5, vec![])
            .term(1.0, vec![(0, Pauli::Z)]);
        assert_eq!(h.constant_offset(), 3.5);
        assert_eq!(h.measurement_groups().len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn duplicate_qubits_rejected() {
        let _ = PauliTerm::new(1.0, vec![(0, Pauli::X), (0, Pauli::Z)]);
    }
}
