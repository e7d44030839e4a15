//! Numerical substrate for the QFw reproduction.
//!
//! Every simulator in this workspace ultimately reduces to dense complex
//! linear algebra: state vectors are `Vec<C64>`, gates are small unitary
//! [`Matrix`] values, matrix-product-state tensors are reshaped matrices
//! factorized by the one-sided Jacobi SVD
//! ([`SvdWorkspace`](decomp::SvdWorkspace)), and the HHL workload needs
//! a classical reference solution from [`solve`](decomp::solve).
//!
//! The crate is dependency-free by design (the paper's simulators sit on
//! LAPACK/cuQuantum; we build the minimal equivalent from scratch):
//!
//! * [`complex`] — a `Copy` double-precision complex number, [`C64`].
//! * [`matrix`] — a dense row-major complex matrix with the usual
//!   products (matmul, Kronecker, adjoint) and unitarity checks.
//! * [`decomp`] — Householder QR, one-sided Jacobi SVD, Hermitian Jacobi
//!   eigensolver, and linear solves built on them.
//! * [`rng`] — a deterministic `SplitMix64`/`Xoshiro256**` PRNG so every
//!   experiment in the benchmark harness is reproducible bit-for-bit across
//!   platforms (the paper repeats each run three times; we fix seeds instead).

pub mod complex;
pub mod decomp;
pub mod matrix;
pub mod rng;

pub use complex::C64;
pub use matrix::Matrix;
pub use rng::Rng;

/// Machine tolerance used by the decompositions and unitarity checks.
///
/// `1e-10` is loose enough to absorb the rounding of long Jacobi sweeps on
/// 32x32 unitaries and tight enough to catch genuinely non-unitary gates.
pub const EPS: f64 = 1e-10;

/// Returns true when two floats agree to within `tol` absolutely or
/// relatively, whichever is looser. Used pervasively by tests.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}
