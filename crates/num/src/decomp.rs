//! Matrix decompositions: Householder QR, one-sided Jacobi SVD, Hermitian
//! Jacobi eigensolver, and the linear solves built on them.
//!
//! These replace the LAPACK routines the paper's simulators lean on. The
//! matrices involved are small — MPS bond matrices (up to a few hundred rows)
//! and HHL system matrices (up to 2^7) — so robust O(n^3) Jacobi-style
//! algorithms are the right trade: they are short, numerically excellent, and
//! trivially correct to test.
//!
//! The SVD is one implementation, [`SvdWorkspace::factor`]: it keeps the
//! working columns, the rotations and the sort in storage reused from one
//! factorisation to the next, each column contiguous, and [`svd`] is a thin
//! wrapper that factors into a workspace of its own and copies the factors
//! out as matrices.

use crate::complex::C64;
use crate::matrix::Matrix;

/// Result of a singular value decomposition `A = U * diag(S) * V^dagger`.
pub struct Svd {
    /// Left singular vectors, `m x r` with orthonormal columns.
    pub u: Matrix,
    /// Singular values in non-increasing order, length `r = min(m, n)`.
    pub s: Vec<f64>,
    /// Right singular vectors, `n x r` with orthonormal columns.
    pub v: Matrix,
}

/// Computes the thin SVD of an `m x n` matrix by one-sided Jacobi: one
/// [`SvdWorkspace::factor`] into a workspace of its own, copied out.
pub fn svd(a: &Matrix) -> Svd {
    let mut ws = SvdWorkspace::default();
    ws.factor(a.rows(), a.cols(), a.as_slice());
    let rank = ws.s().len();
    Svd {
        u: Matrix::from_fn(a.rows(), rank, |i, j| ws.u_col(j)[i]),
        s: ws.s().to_vec(),
        v: Matrix::from_fn(a.cols(), rank, |i, j| ws.v_col(j)[i]),
    }
}

/// The one-sided Jacobi SVD and the storage it works in, kept between
/// factorisations so a caller that factors many small matrices — the MPS
/// engine, one per bond update — allocates only when a matrix is larger
/// than every one before it.
///
/// Column pairs of a working copy of `A` are repeatedly rotated until all
/// are mutually orthogonal; the column norms are then the singular values.
/// The same rotations accumulated into an identity give `V`. This converges
/// quadratically and keeps tiny singular values accurate, which matters for
/// MPS truncation decisions. One-sided Jacobi wants at least as many rows
/// as columns, so a wide `A` is factored through its adjoint:
/// `A = U S V†  <=>  A† = V S U†`.
///
/// Both the working copy and the rotations are stored column by column, so
/// every pair step reads and rotates two contiguous slices. The factors are
/// read back through [`u_col`](Self::u_col), [`s`](Self::s) and
/// [`v_col`](Self::v_col) until the next factorisation.
#[derive(Clone, Debug, Default)]
pub struct SvdWorkspace {
    /// Rows of the tall matrix Jacobi runs on (`A`, or `A†` when wide).
    rows: usize,
    /// Columns of the tall matrix: the thin factorisation's rank.
    cols: usize,
    wide: bool,
    /// The tall matrix's columns; once factored, each divided by its norm.
    w: Vec<C64>,
    /// The accumulated rotations' columns (`cols x cols`).
    v: Vec<C64>,
    norms: Vec<f64>,
    /// Singular value `k` belongs to column `order[k]` of `w` and `v`.
    order: Vec<usize>,
    s: Vec<f64>,
}

impl SvdWorkspace {
    /// Factors the row-major `rows x cols` matrix `a`, replacing the
    /// previous factorisation.
    ///
    /// # Panics
    /// When `a.len() != rows * cols`.
    pub fn factor(&mut self, rows: usize, cols: usize, a: &[C64]) {
        assert_eq!(a.len(), rows * cols, "svd input is not {rows}x{cols}");
        self.wide = rows < cols;
        let (m, n) = if self.wide {
            (cols, rows)
        } else {
            (rows, cols)
        };
        (self.rows, self.cols) = (m, n);
        // Column j of A† is row j of A, conjugated.
        self.w.clear();
        if self.wide {
            self.w.extend(a.iter().map(|z| z.conj()));
        } else {
            self.w
                .extend((0..n).flat_map(|j| (0..m).map(move |i| a[i * n + j])));
        }
        self.v.clear();
        self.v.resize(n * n, C64::ZERO);
        for j in 0..n {
            self.v[j * n + j] = C64::ONE;
        }
        // The Frobenius norm, summed row by row of the tall matrix as
        // `Matrix::frobenius_norm` sums a row-major copy of it.
        let w = &self.w;
        let frob = (0..m)
            .flat_map(|i| (0..n).map(move |j| w[j * m + i].norm_sqr()))
            .sum::<f64>()
            .sqrt();
        let tol = 1e-14 * frob.max(1.0);
        let max_sweeps = 60;

        for _ in 0..max_sweeps {
            let mut off = 0.0_f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    let (cp, cq) = pair(&mut self.w, m, p, q);
                    let mut apq = C64::ZERO;
                    let (mut app, mut aqq) = (0.0_f64, 0.0_f64);
                    for (x, y) in cp.iter().zip(cq.iter()) {
                        apq = x.conj().mul_add(*y, apq);
                        app += x.norm_sqr();
                        aqq += y.norm_sqr();
                    }
                    let mag = apq.abs();
                    off = off.max(mag);
                    if mag <= tol * (app.sqrt() * aqq.sqrt()).max(1e-300) {
                        continue;
                    }
                    // Phase-align column q so the pair problem becomes
                    // real, then apply a classical real Jacobi rotation.
                    let phase = apq / mag; // e^{i phi}
                    let theta = 0.5 * (2.0 * mag).atan2(app - aqq);
                    let (c, s) = (theta.cos(), theta.sin());
                    rotate(cp, cq, c, s, phase);
                    let (vp, vq) = pair(&mut self.v, n, p, q);
                    rotate(vp, vq, c, s, phase);
                }
            }
            if off <= tol {
                break;
            }
        }

        // Column norms are the singular values; normalized columns form U.
        self.norms.clear();
        self.norms.extend(
            self.w
                .chunks_exact(m.max(1))
                .map(|col| col.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()),
        );
        self.order.clear();
        self.order.extend(0..n);
        let norms = &self.norms;
        self.order
            .sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());
        self.s.clear();
        self.s.extend(self.order.iter().map(|&j| norms[j]));
        for (col, &sigma) in self.w.chunks_exact_mut(m.max(1)).zip(norms) {
            let inv = if sigma > 0.0 { 1.0 / sigma } else { 0.0 };
            for z in col {
                *z = z.scale(inv);
            }
        }
    }

    /// Singular values in non-increasing order, `min(rows, cols)` of the
    /// last input.
    pub fn s(&self) -> &[f64] {
        &self.s
    }

    /// Left singular vector `k` (column `k` of `U`): one entry per row of
    /// the last input.
    pub fn u_col(&self, k: usize) -> &[C64] {
        if self.wide {
            self.rotation(k)
        } else {
            self.normalised(k)
        }
    }

    /// Right singular vector `k` (column `k` of `V`): one entry per column
    /// of the last input.
    pub fn v_col(&self, k: usize) -> &[C64] {
        if self.wide {
            self.normalised(k)
        } else {
            self.rotation(k)
        }
    }

    fn normalised(&self, k: usize) -> &[C64] {
        let j = self.order[k];
        &self.w[j * self.rows..(j + 1) * self.rows]
    }

    fn rotation(&self, k: usize) -> &[C64] {
        let j = self.order[k];
        &self.v[j * self.cols..(j + 1) * self.cols]
    }
}

/// Columns `p < q` of a column-major matrix with `len`-entry columns.
fn pair(m: &mut [C64], len: usize, p: usize, q: usize) -> (&mut [C64], &mut [C64]) {
    let (head, tail) = m.split_at_mut(q * len);
    (&mut head[p * len..(p + 1) * len], &mut tail[..len])
}

/// Applies the complex Jacobi rotation `[c, s*conj(phase); -s*phase, c]`
/// to the column pair `(p, q)`.
fn rotate(p: &mut [C64], q: &mut [C64], c: f64, s: f64, phase: C64) {
    for (x, y) in p.iter_mut().zip(q.iter_mut()) {
        let a = *x;
        let b = *y * phase.conj();
        *x = a.scale(c) + b.scale(s);
        *y = (b.scale(c) - a.scale(s)) * phase;
    }
}

/// Applies the complex Jacobi rotation `[c, s*conj(phase); -s*phase, c]`-style
/// update to columns `p` and `q` of `m`.
fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64, phase: C64) {
    let rows = m.rows();
    for i in 0..rows {
        let a = m[(i, p)];
        let b = m[(i, q)] * phase.conj();
        m[(i, p)] = a.scale(c) + b.scale(s);
        m[(i, q)] = (b.scale(c) - a.scale(s)) * phase;
    }
}

fn frob(a: &Matrix) -> f64 {
    a.frobenius_norm()
}

/// Result of a QR decomposition `A = Q * R`.
pub struct Qr {
    /// Unitary factor, `m x m`.
    pub q: Matrix,
    /// Upper-triangular factor, `m x n`.
    pub r: Matrix,
}

/// Householder QR decomposition of an `m x n` matrix with `m >= n`.
pub fn qr(a: &Matrix) -> Qr {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "qr requires rows >= cols, got {m}x{n}");
    let mut r = a.clone();
    let mut q = Matrix::identity(m);

    for k in 0..n.min(m - 1) {
        // Build the Householder reflector that zeroes column k below the
        // diagonal: v = x + e^{i arg(x0)} ||x|| e1, H = I - 2 v v^dag / (v^dag v).
        let mut x = vec![C64::ZERO; m - k];
        for i in k..m {
            x[i - k] = r[(i, k)];
        }
        let norm_x = x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm_x < 1e-300 {
            continue;
        }
        let phase = if x[0].abs() > 0.0 {
            x[0] / x[0].abs()
        } else {
            C64::ONE
        };
        let alpha = phase.scale(norm_x);
        let mut v = x;
        v[0] += alpha;
        let vnorm2: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        if vnorm2 < 1e-300 {
            continue;
        }
        let beta = 2.0 / vnorm2;

        // r <- H r (affecting rows k..m)
        for j in 0..n {
            let mut dot = C64::ZERO;
            for i in 0..(m - k) {
                dot = v[i].conj().mul_add(r[(k + i, j)], dot);
            }
            let scaled = dot.scale(beta);
            for i in 0..(m - k) {
                let upd = v[i] * scaled;
                r[(k + i, j)] -= upd;
            }
        }
        // q <- q H (accumulate from the right so q ends up with A = q r)
        for i in 0..m {
            let mut dot = C64::ZERO;
            for l in 0..(m - k) {
                dot += q[(i, k + l)] * v[l];
            }
            let scaled = dot.scale(beta);
            for l in 0..(m - k) {
                let upd = scaled * v[l].conj();
                q[(i, k + l)] -= upd;
            }
        }
    }
    // Clean the strictly-lower triangle of numerical dust so callers can rely
    // on exact zeros.
    for j in 0..n {
        for i in (j + 1)..m {
            r[(i, j)] = C64::ZERO;
        }
    }
    Qr { q, r }
}

/// Solves the square linear system `A x = b` via Householder QR and back
/// substitution.
///
/// # Panics
/// Panics when `A` is not square, shapes disagree, or `A` is singular to
/// working precision.
pub fn solve(a: &Matrix, b: &[C64]) -> Vec<C64> {
    let n = a.rows();
    assert!(a.is_square(), "solve requires a square matrix");
    assert_eq!(b.len(), n, "solve rhs length mismatch");
    let f = qr(a);
    // y = Q^dag b
    let y = f.q.dagger().matvec(b);
    // Back substitution on R x = y.
    let mut x = vec![C64::ZERO; n];
    for i in (0..n).rev() {
        let mut acc = y[i];
        for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
            acc -= f.r[(i, j)] * *xj;
        }
        let d = f.r[(i, i)];
        assert!(
            d.abs() > 1e-12 * f.r[(0, 0)].abs().max(1.0),
            "solve: matrix is singular to working precision"
        );
        x[i] = acc / d;
    }
    x
}

/// Result of a Hermitian eigendecomposition `A = V * diag(vals) * V^dagger`.
pub struct Eigh {
    /// Real eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the matching eigenvectors.
    pub vectors: Matrix,
}

/// Eigendecomposition of a Hermitian matrix by the classical two-sided Jacobi
/// method with the complex phase trick.
pub fn eigh(a: &Matrix) -> Eigh {
    let n = a.rows();
    assert!(a.is_square(), "eigh requires a square matrix");
    debug_assert!(a.is_hermitian(1e-9), "eigh requires a Hermitian matrix");
    let mut h = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-14 * frob(a).max(1.0);

    for _sweep in 0..80 {
        let mut off = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let hpq = h[(p, q)];
                let mag = hpq.abs();
                off = off.max(mag);
                if mag <= tol {
                    continue;
                }
                let phase = hpq / mag; // e^{i phi}
                let app = h[(p, p)].re;
                let aqq = h[(q, q)].re;
                let theta = 0.5 * (2.0 * mag).atan2(app - aqq);
                let (c, s) = (theta.cos(), theta.sin());
                // Columns: H <- H J,   then rows: H <- J^dag H; same J into V.
                rotate_cols(&mut h, p, q, c, s, phase);
                rotate_rows(&mut h, p, q, c, s, phase);
                rotate_cols(&mut v, p, q, c, s, phase);
            }
        }
        if off <= tol {
            break;
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| h[(i, i)].re).collect();
    order.sort_by(|&i, &j| diag[i].partial_cmp(&diag[j]).unwrap());
    let mut values = Vec::with_capacity(n);
    let mut vectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        values.push(diag[src]);
        for i in 0..n {
            vectors[(i, dst)] = v[(i, src)];
        }
    }
    Eigh { values, vectors }
}

/// Applies the conjugate-transposed Jacobi rotation to rows `p` and `q`.
fn rotate_rows(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64, phase: C64) {
    let cols = m.cols();
    for j in 0..cols {
        let a = m[(p, j)];
        let b = m[(q, j)] * phase;
        m[(p, j)] = a.scale(c) + b.scale(s);
        m[(q, j)] = (b.scale(c) - a.scale(s)) * phase.conj();
    }
}

/// Computes `exp(scale * A)` for a Hermitian `A` through its
/// eigendecomposition: `V exp(scale * Lambda) V^dagger`.
///
/// With `scale = -i*t` this yields exact unitary time evolution, the ground
/// truth the Hamiltonian-simulation workloads are validated against.
pub fn expm_hermitian(a: &Matrix, scale: C64) -> Matrix {
    let e = eigh(a);
    let n = a.rows();
    let d: Vec<C64> = e
        .values
        .iter()
        .map(|&lam| (scale.scale(lam)).exp())
        .collect();
    let mut out = Matrix::zeros(n, n);
    // V diag(d) V^dag without forming intermediates.
    for i in 0..n {
        for j in 0..n {
            let mut acc = C64::ZERO;
            for (k, dk) in d.iter().enumerate() {
                acc += e.vectors[(i, k)] * *dk * e.vectors[(j, k)].conj();
            }
            out[(i, j)] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::complex::c64;
    use crate::rng::Rng;

    fn random_matrix(rng: &mut Rng, m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |_, _| {
            c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        })
    }

    fn random_hermitian(rng: &mut Rng, n: usize) -> Matrix {
        let a = random_matrix(rng, n, n);
        let at = a.dagger();
        (&a + &at).scale(c64(0.5, 0.0))
    }

    fn reconstruct_svd(f: &Svd) -> Matrix {
        let r = f.s.len();
        let sm = Matrix::from_fn(
            r,
            r,
            |i, j| {
                if i == j {
                    c64(f.s[i], 0.0)
                } else {
                    C64::ZERO
                }
            },
        );
        f.u.matmul(&sm).matmul(&f.v.dagger())
    }

    #[test]
    fn svd_reconstructs_random_matrices() {
        let mut rng = Rng::seed_from(7);
        for &(m, n) in &[(4usize, 4usize), (6, 3), (3, 6), (8, 8), (5, 2)] {
            let a = random_matrix(&mut rng, m, n);
            let f = svd(&a);
            let err = reconstruct_svd(&f).max_abs_diff(&a);
            assert!(err < 1e-9, "svd reconstruction error {err} for {m}x{n}");
        }
    }

    #[test]
    fn svd_factors_are_isometries() {
        let mut rng = Rng::seed_from(11);
        let a = random_matrix(&mut rng, 6, 4);
        let f = svd(&a);
        let utu = f.u.dagger().matmul(&f.u);
        let vtv = f.v.dagger().matmul(&f.v);
        assert!(utu.max_abs_diff(&Matrix::identity(4)) < 1e-9);
        assert!(vtv.max_abs_diff(&Matrix::identity(4)) < 1e-9);
    }

    #[test]
    fn svd_values_sorted_and_nonnegative() {
        let mut rng = Rng::seed_from(13);
        let a = random_matrix(&mut rng, 7, 5);
        let f = svd(&a);
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(f.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_of_diagonal_recovers_diagonal() {
        let a = Matrix::diag(&[c64(3.0, 0.0), c64(1.0, 0.0), c64(2.0, 0.0)]);
        let f = svd(&a);
        assert!(approx_eq(f.s[0], 3.0, 1e-12));
        assert!(approx_eq(f.s[1], 2.0, 1e-12));
        assert!(approx_eq(f.s[2], 1.0, 1e-12));
    }

    #[test]
    fn svd_rank_deficient_has_zero_singular_value() {
        // Two identical columns => rank 1.
        let a = Matrix::from_real(2, 2, &[1.0, 1.0, 2.0, 2.0]);
        let f = svd(&a);
        assert!(f.s[1] < 1e-10);
        assert!(reconstruct_svd(&f).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn qr_reconstructs_and_q_unitary() {
        let mut rng = Rng::seed_from(17);
        for &(m, n) in &[(4usize, 4usize), (6, 4), (5, 5)] {
            let a = random_matrix(&mut rng, m, n);
            let f = qr(&a);
            assert!(f.q.is_unitary(1e-10), "Q not unitary for {m}x{n}");
            let err = f.q.matmul(&f.r).max_abs_diff(&a);
            assert!(err < 1e-10, "QR reconstruction error {err}");
            // R upper triangular
            for j in 0..n {
                for i in (j + 1)..m {
                    assert_eq!(f.r[(i, j)], C64::ZERO);
                }
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = Rng::seed_from(23);
        for n in [2usize, 3, 5, 8] {
            let a = {
                // Diagonally dominant => comfortably nonsingular.
                let mut m = random_matrix(&mut rng, n, n);
                for i in 0..n {
                    m[(i, i)] += c64(4.0 + n as f64, 0.0);
                }
                m
            };
            let x_true: Vec<C64> = (0..n)
                .map(|_| c64(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
                .collect();
            let b = a.matvec(&x_true);
            let x = solve(&a, &b);
            for (got, want) in x.iter().zip(x_true.iter()) {
                assert!(got.approx_eq(*want, 1e-9));
            }
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn solve_detects_singular_matrix() {
        let a = Matrix::from_real(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        let _ = solve(&a, &[C64::ONE, C64::ONE]);
    }

    #[test]
    fn eigh_reconstructs_hermitian() {
        let mut rng = Rng::seed_from(29);
        for n in [2usize, 3, 6, 10] {
            let a = random_hermitian(&mut rng, n);
            let e = eigh(&a);
            let lam = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    c64(e.values[i], 0.0)
                } else {
                    C64::ZERO
                }
            });
            let rec = e.vectors.matmul(&lam).matmul(&e.vectors.dagger());
            assert!(rec.max_abs_diff(&a) < 1e-9, "eigh reconstruction n={n}");
            assert!(e.vectors.is_unitary(1e-9));
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn eigh_pauli_z_eigenvalues() {
        let z = Matrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        let e = eigh(&z);
        assert!(approx_eq(e.values[0], -1.0, 1e-12));
        assert!(approx_eq(e.values[1], 1.0, 1e-12));
    }

    #[test]
    fn expm_hermitian_gives_unitary_evolution() {
        let mut rng = Rng::seed_from(31);
        let h = random_hermitian(&mut rng, 4);
        let u = expm_hermitian(&h, c64(0.0, -0.8));
        assert!(u.is_unitary(1e-9));
        // exp(0) = I
        let id = expm_hermitian(&h, C64::ZERO);
        assert!(id.max_abs_diff(&Matrix::identity(4)) < 1e-10);
        // Group property: U(t1) U(t2) = U(t1 + t2)
        let u1 = expm_hermitian(&h, c64(0.0, -0.3));
        let u2 = expm_hermitian(&h, c64(0.0, -0.5));
        assert!(u1.matmul(&u2).max_abs_diff(&u) < 1e-9);
    }

    #[test]
    fn expm_real_scale_matches_series_on_small_matrix() {
        let h = Matrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]); // Pauli X
        let e = expm_hermitian(&h, c64(1.0, 0.0));
        // exp(X) = cosh(1) I + sinh(1) X
        let (ch, sh) = (1.0_f64.cosh(), 1.0_f64.sinh());
        let want = Matrix::from_real(2, 2, &[ch, sh, sh, ch]);
        assert!(e.max_abs_diff(&want) < 1e-10);
    }
}
