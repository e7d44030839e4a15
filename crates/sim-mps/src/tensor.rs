//! The 3-index site tensor of an MPS and its one-qubit update.

use qfw_num::complex::C64;

/// A rank-3 tensor `T[l, p, r]` with left bond `dl`, physical dimension 2,
/// and right bond `dr`, stored row-major as `data[(l*2 + p)*dr + r]`: read
/// as a `(dl*2, dr)` matrix it is what a gauge move to the right factors,
/// and as a `(dl, 2*dr)` matrix what a move to the left factors.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor3 {
    /// Left bond dimension.
    pub dl: usize,
    /// Right bond dimension.
    pub dr: usize,
    /// Row-major `(l, p, r)` data, length `dl * 2 * dr`.
    pub data: Vec<C64>,
}

impl Tensor3 {
    /// Zero tensor of the given bond dimensions.
    pub fn zeros(dl: usize, dr: usize) -> Self {
        Tensor3 {
            dl,
            dr,
            data: vec![C64::ZERO; dl * 2 * dr],
        }
    }

    /// The product-state tensor `|b>` with trivial bonds.
    pub fn basis(b: u8) -> Self {
        let mut t = Self::zeros(1, 1);
        t.set(0, b as usize, 0, C64::ONE);
        t
    }

    /// Element accessor.
    #[inline(always)]
    pub fn get(&self, l: usize, p: usize, r: usize) -> C64 {
        self.data[(l * 2 + p) * self.dr + r]
    }

    /// Element mutator.
    #[inline(always)]
    pub fn set(&mut self, l: usize, p: usize, r: usize, v: C64) {
        self.data[(l * 2 + p) * self.dr + r] = v;
    }

    /// Applies a single-qubit gate, row-major, to the physical index:
    /// `T'[l, p, r] = sum_q U[p, q] T[l, q, r]`.
    pub fn apply_phys(&mut self, u: &[C64; 4]) {
        for l in 0..self.dl {
            for r in 0..self.dr {
                let t0 = self.get(l, 0, r);
                let t1 = self.get(l, 1, r);
                self.set(l, 0, r, u[0] * t0 + u[1] * t1);
                self.set(l, 1, r, u[2] * t0 + u[3] * t1);
            }
        }
    }

    /// Frobenius norm of the tensor.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Scales all entries.
    pub fn scale(&mut self, s: f64) {
        for z in &mut self.data {
            *z = z.scale(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::Gate;
    use qfw_num::complex::c64;

    #[test]
    fn basis_tensor_shape() {
        let t = Tensor3::basis(1);
        assert_eq!((t.dl, t.dr), (1, 1));
        assert_eq!(t.get(0, 1, 0), C64::ONE);
        assert_eq!(t.get(0, 0, 0), C64::ZERO);
    }

    #[test]
    fn apply_phys_hadamard() {
        let mut t = Tensor3::basis(0);
        t.apply_phys(&Gate::H(0).matrix_1q().unwrap());
        let s = 1.0 / 2.0_f64.sqrt();
        assert!(t.get(0, 0, 0).approx_eq(c64(s, 0.0), 1e-12));
        assert!(t.get(0, 1, 0).approx_eq(c64(s, 0.0), 1e-12));
    }

    #[test]
    fn norm_and_scale() {
        let mut t = Tensor3::basis(0);
        assert!((t.norm() - 1.0).abs() < 1e-12);
        t.scale(2.0);
        assert!((t.norm() - 2.0).abs() < 1e-12);
    }
}
