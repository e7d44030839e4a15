//! Dense row-major complex matrices.
//!
//! Gate matrices are tiny (2x2 .. 8x8) and the classical pieces of HHL work
//! on matrices up to a few hundred rows, so a straightforward row-major
//! `Vec<C64>` with cache-blocked matmul is plenty. The simulators never put a
//! full 2^n x 2^n operator in one of these except in tests, where small-`n`
//! dense application is the ground truth every engine is validated against.

use crate::complex::{c64, C64};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major complex matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major slice of complex values.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[C64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a matrix from a row-major slice of real values.
    pub fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
        let cdata: Vec<C64> = data.iter().map(|&x| c64(x, 0.0)).collect();
        Self::from_rows(rows, cols, &cdata)
    }

    /// Builds a diagonal matrix from its diagonal entries.
    pub fn diag(d: &[C64]) -> Self {
        let n = d.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Builds by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for square matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[C64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` out into a vector.
    pub fn col(&self, j: usize) -> Vec<C64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose (adjoint / dagger).
    pub fn dagger(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Elementwise complex conjugate.
    pub fn conj(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, s: C64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics when `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![C64::ZERO; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = C64::ZERO;
            for (a, b) in row.iter().zip(v.iter()) {
                acc = a.mul_add(*b, acc);
            }
            *o = acc;
        }
        out
    }

    /// Matrix product `self * rhs` with an `ikj` loop order so the inner loop
    /// streams both operands.
    ///
    /// # Panics
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == C64::ZERO {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(rrow.iter()) {
                    *o = a.mul_add(b, *o);
                }
            }
        }
        out
    }

    /// Kronecker product `self ⊗ rhs`: the tensor-product composition used to
    /// lift gate matrices onto multi-qubit registers.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == C64::ZERO {
                    continue;
                }
                for p in 0..rhs.rows {
                    for q in 0..rhs.cols {
                        out[(i * rhs.rows + p, j * rhs.cols + q)] = a * rhs[(p, q)];
                    }
                }
            }
        }
        out
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest componentwise deviation from another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// True when `self * self^dagger == I` to within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.matmul(&self.dagger());
        prod.max_abs_diff(&Matrix::identity(self.rows)) <= tol
    }

    /// True when the matrix equals its own adjoint to within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.max_abs_diff(&self.dagger()) <= tol
    }

    /// Matrix power by repeated squaring (square matrices only).
    pub fn powi(&self, mut n: u32) -> Matrix {
        assert!(self.is_square(), "powi of a non-square matrix");
        let mut acc = Matrix::identity(self.rows);
        let mut base = self.clone();
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.matmul(&base);
            }
            base = base.matmul(&base);
            n >>= 1;
        }
        acc
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// Inner product `<a|b>` with the physics convention (conjugate-linear in the
/// first argument).
pub fn inner(a: &[C64], b: &[C64]) -> C64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .fold(C64::ZERO, |acc, (x, y)| x.conj().mul_add(*y, acc))
}

/// Euclidean norm of a complex vector.
pub fn vec_norm(v: &[C64]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// Normalizes a complex vector in place; returns the norm it had.
pub fn normalize(v: &mut [C64]) -> f64 {
    let n = vec_norm(v);
    if n > 0.0 {
        let inv = 1.0 / n;
        for z in v.iter_mut() {
            *z = z.scale(inv);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn sample() -> Matrix {
        Matrix::from_rows(
            2,
            2,
            &[c64(1.0, 1.0), c64(0.0, -2.0), c64(3.0, 0.0), c64(-1.0, 0.5)],
        )
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = sample();
        let i = Matrix::identity(2);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-15);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn indexing_round_trips() {
        let mut m = Matrix::zeros(3, 4);
        m[(2, 3)] = c64(5.0, -1.0);
        assert_eq!(m[(2, 3)], c64(5.0, -1.0));
        assert_eq!(m.row(2)[3], c64(5.0, -1.0));
        assert_eq!(m.col(3)[2], c64(5.0, -1.0));
    }

    #[test]
    fn dagger_involution() {
        let a = sample();
        assert!(a.dagger().dagger().max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn matmul_associative() {
        let a = sample();
        let b = Matrix::from_rows(2, 2, &[c64(0.5, 0.0), C64::I, c64(1.0, -1.0), C64::ONE]);
        let c = Matrix::from_rows(2, 2, &[C64::ONE, C64::ZERO, c64(2.0, 2.0), c64(0.0, 3.0)]);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.max_abs_diff(&right) < 1e-12);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let v = [c64(1.0, 0.5), c64(-2.0, 1.0)];
        let as_mat = Matrix::from_rows(2, 1, &v);
        let mv = a.matvec(&v);
        let mm = a.matmul(&as_mat);
        assert!(mv[0].approx_eq(mm[(0, 0)], 1e-14));
        assert!(mv[1].approx_eq(mm[(1, 0)], 1e-14));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let a = Matrix::from_real(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::identity(2);
        let k = a.kron(&b);
        assert_eq!((k.rows(), k.cols()), (4, 4));
        assert_eq!(k[(0, 0)], c64(1.0, 0.0));
        assert_eq!(k[(1, 1)], c64(1.0, 0.0));
        assert_eq!(k[(2, 2)], c64(4.0, 0.0));
        assert_eq!(k[(0, 2)], c64(2.0, 0.0));
        assert_eq!(k[(0, 1)], C64::ZERO);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = sample();
        let b = Matrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let c = Matrix::from_real(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        let d = Matrix::from_real(2, 2, &[2.0, 0.0, 0.0, 0.5]);
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn trace_and_norm() {
        let a = sample();
        assert!(a.trace().approx_eq(c64(0.0, 1.5), 1e-15));
        assert!(approx_eq(Matrix::identity(4).frobenius_norm(), 2.0, 1e-15));
    }

    #[test]
    fn hadamard_is_unitary_and_hermitian() {
        let s = 1.0 / 2.0_f64.sqrt();
        let h = Matrix::from_real(2, 2, &[s, s, s, -s]);
        assert!(h.is_unitary(1e-12));
        assert!(h.is_hermitian(1e-12));
        assert!(h.powi(2).max_abs_diff(&Matrix::identity(2)) < 1e-12);
    }

    #[test]
    fn powi_matches_repeated_matmul() {
        let a = sample();
        let a3 = a.matmul(&a).matmul(&a);
        assert!(a.powi(3).max_abs_diff(&a3) < 1e-10);
        assert!(a.powi(0).max_abs_diff(&Matrix::identity(2)) < 1e-15);
    }

    #[test]
    fn inner_product_conjugate_symmetry() {
        let a = [c64(1.0, 2.0), c64(0.0, -1.0)];
        let b = [c64(0.5, 0.5), c64(2.0, 0.0)];
        let ab = inner(&a, &b);
        let ba = inner(&b, &a);
        assert!(ab.approx_eq(ba.conj(), 1e-14));
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![c64(3.0, 0.0), c64(0.0, 4.0)];
        let n = normalize(&mut v);
        assert!(approx_eq(n, 5.0, 1e-15));
        assert!(approx_eq(vec_norm(&v), 1.0, 1e-15));
    }

    #[test]
    fn diag_builds_diagonal() {
        let d = Matrix::diag(&[C64::ONE, C64::I]);
        assert_eq!(d[(0, 0)], C64::ONE);
        assert_eq!(d[(1, 1)], C64::I);
        assert_eq!(d[(0, 1)], C64::ZERO);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
