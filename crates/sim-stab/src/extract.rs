//! Stabilizer-state → state-vector extraction: the seam conversion of
//! hybrid Clifford-prefix partitioned execution.
//!
//! An `n`-qubit stabilizer state is an equal-magnitude superposition over
//! an affine subspace of basis states: `|psi> = 2^{-r/2} * sum_{u in
//! span(a_1..a_r)} i^{phi(u)} |x0 + u>`, where the `a_j` are the X parts
//! of the stabilizer generators and every relative phase is a power of
//! `i`. Extraction reads the support from the tableau's one echelon form
//! (`Tableau::echelon`: its pivot rows and its base point `x0`, in
//! `O(n^3/64)` bit operations) and then visits the `2^r` support points —
//! no dense linear algebra. The walk goes in Gray-code order, applying one
//! pivot row per step: `amp(x + a) = (-1)^{r_g} * i^{|a & b|} * (-1)^{b .
//! x} * amp(x)` for a row with X bits `a`, Z bits `b`, sign `r_g` — so
//! every amplitude is produced *exactly* (a quarter-turn phase times
//! `sqrt(2^-r)`), never accumulated through floating-point rotations.
//!
//! The global phase is pinned by `amp(x0) = +2^{-r/2}`; a dense engine
//! evolving the same prefix may differ from the extraction by a power of
//! `i`, which cancels in every probability (and powers of `i` commute
//! exactly with f64 complex arithmetic), so sampled counts agree with the
//! monolithic run bit for bit.

use crate::tableau::{Echelon, Tableau};
use qfw_num::complex::{c64, C64};

/// Widest register the extractor will materialize (one `Vec<C64>` of
/// `2^n` amplitudes; 28 qubits is already 4 GiB).
pub const MAX_EXTRACT_QUBITS: usize = 28;

impl Tableau {
    /// Converts the stabilizer state to dense amplitudes.
    ///
    /// Returns `Err` for registers wider than [`MAX_EXTRACT_QUBITS`].
    pub fn to_amplitudes(&self) -> Result<Vec<C64>, String> {
        let n = self.n;
        if n > MAX_EXTRACT_QUBITS {
            return Err(format!(
                "refusing to extract {n} qubits (> {MAX_EXTRACT_QUBITS}) into a dense vector"
            ));
        }
        // `n <= 28`: every row is one word.
        let Echelon { rows, pivots, base } = self.echelon();
        // Phases are tracked as integer quarter turns, so amplitudes come
        // out exactly +-norm / +-i*norm.
        let rank = pivots.len();
        let norm = 0.5f64.powi(rank as i32).sqrt();
        let quarter = [
            c64(norm, 0.0),
            c64(0.0, norm),
            c64(-norm, 0.0),
            c64(0.0, -norm),
        ];
        let mut amps = vec![C64::ZERO; 1usize << n];
        let mut cur = base[0];
        let mut phase = 0u32;
        amps[cur as usize] = quarter[0];
        for step in 1u64..1u64 << rank {
            let row = step.trailing_zeros() as usize;
            let (a, b) = (rows.x[row], rows.z[row]);
            let b_dot_x = (b & cur).count_ones() & 1;
            let a_and_b = (a & b).count_ones();
            phase = (phase + 2 * u32::from(rows.r[row]) + 2 * b_dot_x + a_and_b) % 4;
            cur ^= a;
            amps[cur as usize] = quarter[phase as usize];
        }
        Ok(amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::{Circuit, Op};
    use std::f64::consts::FRAC_1_SQRT_2;

    fn evolve(circuit: &Circuit) -> Tableau {
        let mut t = Tableau::zero(circuit.num_qubits());
        for op in circuit.ops() {
            if let Op::Gate(g) = op {
                t.apply(g);
            }
        }
        t
    }

    #[test]
    fn zero_state_extracts_exactly() {
        let amps = Tableau::zero(3).to_amplitudes().unwrap();
        assert_eq!(amps[0], c64(1.0, 0.0));
        assert!(amps[1..].iter().all(|&a| a == C64::ZERO));
    }

    #[test]
    fn ghz_extracts_exactly() {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        let amps = evolve(&qc).to_amplitudes().unwrap();
        assert_eq!(amps[0], c64(FRAC_1_SQRT_2, 0.0));
        assert_eq!(amps[7], c64(FRAC_1_SQRT_2, 0.0));
        assert!(amps[1..7].iter().all(|&a| a == C64::ZERO));
    }

    #[test]
    fn phase_gates_produce_quarter_turns() {
        // S|+> = (|0> + i|1>)/sqrt(2).
        let mut qc = Circuit::new(1);
        qc.h(0).s(0);
        let amps = evolve(&qc).to_amplitudes().unwrap();
        assert_eq!(amps[0], c64(FRAC_1_SQRT_2, 0.0));
        assert_eq!(amps[1], c64(0.0, FRAC_1_SQRT_2));
        // Z|+> = |->.
        let mut qc = Circuit::new(1);
        qc.h(0).z(0);
        let amps = evolve(&qc).to_amplitudes().unwrap();
        assert_eq!(amps[0], c64(FRAC_1_SQRT_2, 0.0));
        assert_eq!(amps[1], c64(-FRAC_1_SQRT_2, 0.0));
    }

    #[test]
    fn flipped_base_point_is_found() {
        // X on an unentangled qubit moves the support's base point.
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).x(2);
        let amps = evolve(&qc).to_amplitudes().unwrap();
        let hi = 1usize << 2;
        assert_eq!(amps[hi], c64(FRAC_1_SQRT_2, 0.0));
        assert_eq!(amps[hi | 3], c64(FRAC_1_SQRT_2, 0.0));
        assert_eq!(
            amps.iter().filter(|a| **a != C64::ZERO).count(),
            2,
            "support must stay two points"
        );
    }

    /// Random Clifford circuits: extraction must match the dense engine's
    /// unitary evolution up to a global power of `i`, with unit norm.
    #[test]
    fn random_cliffords_match_dense_evolution_up_to_global_phase() {
        for seed in 0..24u64 {
            let n = 2 + (seed as usize % 5);
            let qc = qfw_testkit::random_clifford_circuit(n, 40, seed).unitary_part();
            let amps = evolve(&qc).to_amplitudes().unwrap();
            let reference = qfw_sim_sv::SvSimulator::plain().statevector(&qc);
            let reference = reference.amps();
            // Fix the global phase at the extraction's base point.
            let k = amps
                .iter()
                .position(|a| a.re != 0.0 || a.im != 0.0)
                .expect("non-empty support");
            let ratio = reference[k] / amps[k];
            let mut norm = 0.0;
            for (ours, theirs) in amps.iter().zip(reference) {
                let aligned = *ours * ratio;
                assert!(
                    (aligned.re - theirs.re).abs() < 1e-12
                        && (aligned.im - theirs.im).abs() < 1e-12,
                    "seed {seed}: amplitude mismatch"
                );
                norm += ours.re * ours.re + ours.im * ours.im;
            }
            assert!((norm - 1.0).abs() < 1e-12, "seed {seed}: norm {norm}");
            // The global phase itself must be a quarter turn.
            let mag = (ratio.re * ratio.re + ratio.im * ratio.im).sqrt();
            assert!((mag - 1.0).abs() < 1e-10, "seed {seed}: |ratio| {mag}");
        }
    }
}
