//! The one planar kernel set behind the dense executor.
//!
//! Every kernel works on a *tile*: `2^t` amplitudes held as split real and
//! imaginary planes (`re[l]`, `im[l]`), local qubit `j` stored in bit `j`
//! of the tile index `l`. The layer-plan executor ([`crate::layers`])
//! gathers cache-sized tiles out of the interleaved state vector, applies a
//! whole run of fused ops to each, and scatters them back. It is their only
//! caller, and the only code that applies gates to a state: the verbatim
//! plan (`FusionLevel::None`, `StateVector::apply`) and the noisy
//! trajectories' Kraus operators run through it too.
//!
//! # Bit identity
//!
//! Each output amplitude is one fixed arithmetic expression of its inputs:
//! no reductions across lanes, no `mul_add`, no reassociation. The ISA
//! tiers ([`IsaTier`]) compile the *same* source with wider vectors, and
//! rustc never contracts `a * b + c` into an FMA on its own, so every tier
//! produces bit-identical planes. Which kernel a gate takes depends only on
//! its local qubit and matrix shape, never on the tier or on threading.

use crate::state::insert_zero_bit;
use qfw_num::complex::C64;

/// log2 of the tile the layer-plan executor works on: `2^11` amplitudes are
/// two 16 KiB planes, which stay inside a 48 KiB L1d (the phase table of a
/// diagonal layer, as large again, spills to L2 only while that layer
/// runs). Measured on the reference host (Xeon @ 2.1 GHz,
/// 48 KiB L1d, 2 MiB L2): the strided x-phase butterfly runs at 0.62-0.72
/// ns/pair on a `2^11` tile, 0.70-0.74 at `2^12`, 0.73-0.77 at `2^13/14`
/// (L2), while a full pass over an 18-qubit state with one `rx` layer
/// costs 0.56-0.62 ms at any of these widths (each further `rx` layer in
/// the pass ~0.07 ms) — so the L1-sized tile wins until the pass count
/// would more than double. 11 is also the smallest width that always fits the
/// widest supported gate (8 qubits) next to the [`BLOCK_BITS`] contiguous
/// low qubits every tile keeps.
pub const TILE_BITS: usize = 11;

/// Local qubits below this pair amplitudes *inside* one SIMD-sized block of
/// 8 doubles, where a strided butterfly degenerates to scalar code; they
/// take the block kernel instead. Every tile also keeps this many lowest
/// register qubits, so its strips are at least one block (128 B) long.
pub const BLOCK_BITS: usize = 3;
const BLOCK: usize = 1 << BLOCK_BITS;

/// Widest non-diagonal gate the dense kernels take: the generic kernel
/// gathers at most this many targets onto its stack scratch. Admission
/// refuses a wider one on every engine that runs these kernels.
pub const MAX_DENSE_QUBITS: usize = 8;

// --- ISA tiers --------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// Which compiled variant of the tile kernels to run. The portable tier is
/// the crate's baseline target; `avx2` recompiles the same bodies under
/// `#[target_feature(enable = "avx2")]` (measured 15-20 % on the x-phase
/// butterfly and ~40 % on the general one; an AVX-512 tier measured no
/// better than AVX2 and was left out).
///
/// The inner tier is private so a value naming a vector extension can only
/// come from [`IsaTier::available`], which checks the CPU first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsaTier(Tier);

impl IsaTier {
    /// The baseline tier, present everywhere.
    pub const PORTABLE: IsaTier = IsaTier(Tier::Portable);

    /// The fastest tier this CPU can run.
    pub fn detect() -> IsaTier {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return IsaTier(Tier::Avx2);
        }
        IsaTier::PORTABLE
    }

    /// Every tier this CPU can run, portable first.
    pub fn available() -> Vec<IsaTier> {
        let mut tiers = vec![IsaTier::PORTABLE];
        let best = IsaTier::detect();
        if best != IsaTier::PORTABLE {
            tiers.push(best);
        }
        tiers
    }
}

impl std::fmt::Display for IsaTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.0 {
            Tier::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2",
        })
    }
}

/// Declares a kernel once and compiles it per tier: the body becomes an
/// `#[inline(always)]` function, wrapped by a `#[target_feature]` twin and
/// a dispatcher that takes the tier first.
macro_rules! tiered {
    ($(#[$doc:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$doc])*
        pub fn $name(tier: IsaTier, $($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }
            match tier.0 {
                Tier::Portable => body($($arg),*),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `Tier::Avx2` is only ever built by
                // `IsaTier::detect` after `is_x86_feature_detected!`.
                Tier::Avx2 => unsafe { avx2($($arg),*) },
            }
        }
    };
}

// --- tile load / store ------------------------------------------------------

/// Splits one contiguous strip of interleaved amplitudes into the planes.
pub fn load_strip(src: &[C64], re: &mut [f64], im: &mut [f64]) {
    for ((a, r), i) in src.iter().zip(re.iter_mut()).zip(im.iter_mut()) {
        *r = a.re;
        *i = a.im;
    }
}

/// Writes one strip of the planes back as interleaved amplitudes.
pub fn store_strip(dst: &mut [C64], re: &[f64], im: &[f64]) {
    for ((a, r), i) in dst.iter_mut().zip(re.iter()).zip(im.iter()) {
        *a = C64::new(*r, *i);
    }
}

// --- single-qubit kernels ---------------------------------------------------

/// Row-major 2x2 matrix `[m00, m01, m10, m11]`.
pub type Mat2 = [C64; 4];

/// `a * b` for row-major 2x2 matrices.
pub fn mat2_mul(a: &Mat2, b: &Mat2) -> Mat2 {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// Structure of a 2x2 matrix that lets a cheaper butterfly serve it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape1q {
    /// All entries real (H, Ry, X chains): the same real butterfly on each
    /// plane independently.
    Real,
    /// Real diagonal, imaginary off-diagonal (Rx chains): the `i` factor
    /// swaps planes instead of forcing full complex products.
    XPhase,
    /// Anything else: four complex products per pair.
    General,
}

impl Shape1q {
    /// Classifies `m` by exact zero tests (a chain product of one shape
    /// keeps its zeros exactly, so fused chains stay specialised).
    pub fn of(m: &Mat2) -> Shape1q {
        let [m00, m01, m10, m11] = m;
        if m00.im == 0.0 && m01.im == 0.0 && m10.im == 0.0 && m11.im == 0.0 {
            Shape1q::Real
        } else if m00.im == 0.0 && m11.im == 0.0 && m01.re == 0.0 && m10.re == 0.0 {
            Shape1q::XPhase
        } else {
            Shape1q::General
        }
    }
}

/// Walks the `(l, l + 2^q)` pairs of a tile, handing the kernel whole
/// contiguous runs of the four planes `(re0, re1, im0, im1)`.
#[inline(always)]
fn butterfly(
    re: &mut [f64],
    im: &mut [f64],
    q: usize,
    f: impl Fn(&mut [f64], &mut [f64], &mut [f64], &mut [f64]),
) {
    let stride = 1usize << q;
    for (rc, ic) in re
        .chunks_exact_mut(2 * stride)
        .zip(im.chunks_exact_mut(2 * stride))
    {
        let (r0, r1) = rc.split_at_mut(stride);
        let (i0, i1) = ic.split_at_mut(stride);
        f(r0, r1, i0, i1);
    }
}

#[inline(always)]
fn strided_1q(re: &mut [f64], im: &mut [f64], q: usize, m: &Mat2, shape: Shape1q) {
    let [m00, m01, m10, m11] = *m;
    match shape {
        Shape1q::Real => {
            let (a, b, c, d) = (m00.re, m01.re, m10.re, m11.re);
            butterfly(re, im, q, |r0, r1, i0, i1| {
                let n = r0.len();
                let (r1, i0, i1) = (&mut r1[..n], &mut i0[..n], &mut i1[..n]);
                for k in 0..n {
                    let (x0, x1) = (r0[k], r1[k]);
                    r0[k] = a * x0 + b * x1;
                    r1[k] = c * x0 + d * x1;
                    let (y0, y1) = (i0[k], i1[k]);
                    i0[k] = a * y0 + b * y1;
                    i1[k] = c * y0 + d * y1;
                }
            });
        }
        Shape1q::XPhase => {
            let (a, d) = (m00.re, m11.re);
            let (b, c) = (m01.im, m10.im);
            butterfly(re, im, q, |r0, r1, i0, i1| {
                let n = r0.len();
                let (r1, i0, i1) = (&mut r1[..n], &mut i0[..n], &mut i1[..n]);
                for k in 0..n {
                    let (x0r, x0i) = (r0[k], i0[k]);
                    let (x1r, x1i) = (r1[k], i1[k]);
                    r0[k] = a * x0r - b * x1i;
                    i0[k] = a * x0i + b * x1r;
                    r1[k] = d * x1r - c * x0i;
                    i1[k] = d * x1i + c * x0r;
                }
            });
        }
        Shape1q::General => {
            let (ar, ai, br, bi) = (m00.re, m00.im, m01.re, m01.im);
            let (cr, ci, dr, di) = (m10.re, m10.im, m11.re, m11.im);
            butterfly(re, im, q, move |r0, r1, i0, i1| {
                let n = r0.len();
                let (r1, i0, i1) = (&mut r1[..n], &mut i0[..n], &mut i1[..n]);
                for k in 0..n {
                    let (x0r, x0i) = (r0[k], i0[k]);
                    let (x1r, x1i) = (r1[k], i1[k]);
                    r0[k] = ar * x0r - ai * x0i + br * x1r - bi * x1i;
                    i0[k] = ar * x0i + ai * x0r + br * x1i + bi * x1r;
                    r1[k] = cr * x0r - ci * x0i + dr * x1r - di * x1i;
                    i1[k] = cr * x0i + ci * x0r + dr * x1i + di * x1r;
                }
            });
        }
    }
}

/// The small-block kernel for local qubits below [`BLOCK_BITS`]: one code
/// path for all three positions. Each block of 8 amplitudes is combined
/// with its in-block partner permutation `j ^ 2^Q` (a constant shuffle the
/// vectoriser lowers to lane swaps) under per-lane coefficient patterns —
/// lane `j` reads row `bit_Q(j)` of the matrix.
#[inline(always)]
fn block_1q<const Q: usize>(re: &mut [f64], im: &mut [f64], m: &Mat2, shape: Shape1q) {
    // Per lane: `d` multiplies the lane itself, `o` its partner.
    let mut dr = [0.0; BLOCK];
    let mut di = [0.0; BLOCK];
    let mut or = [0.0; BLOCK];
    let mut oi = [0.0; BLOCK];
    for j in 0..BLOCK {
        let (d, o) = if (j >> Q) & 1 == 0 {
            (m[0], m[1])
        } else {
            (m[3], m[2])
        };
        (dr[j], di[j], or[j], oi[j]) = (d.re, d.im, o.re, o.im);
    }
    for (r, i) in re.chunks_exact_mut(BLOCK).zip(im.chunks_exact_mut(BLOCK)) {
        let r: &mut [f64; BLOCK] = r.try_into().expect("exact chunk");
        let i: &mut [f64; BLOCK] = i.try_into().expect("exact chunk");
        let (xr, xi) = (*r, *i);
        let mut pr = [0.0; BLOCK];
        let mut pi = [0.0; BLOCK];
        for j in 0..BLOCK {
            pr[j] = xr[j ^ (1 << Q)];
            pi[j] = xi[j ^ (1 << Q)];
        }
        match shape {
            Shape1q::Real => {
                for j in 0..BLOCK {
                    r[j] = dr[j] * xr[j] + or[j] * pr[j];
                    i[j] = dr[j] * xi[j] + or[j] * pi[j];
                }
            }
            Shape1q::XPhase => {
                for j in 0..BLOCK {
                    r[j] = dr[j] * xr[j] - oi[j] * pi[j];
                    i[j] = dr[j] * xi[j] + oi[j] * pr[j];
                }
            }
            Shape1q::General => {
                for j in 0..BLOCK {
                    r[j] = dr[j] * xr[j] - di[j] * xi[j] + or[j] * pr[j] - oi[j] * pi[j];
                    i[j] = dr[j] * xi[j] + di[j] * xr[j] + or[j] * pi[j] + oi[j] * pr[j];
                }
            }
        }
    }
}

/// The pair `(x0, +0)` on a qubit's two sides after `m`, with exactly the
/// expressions [`apply_1q`] evaluates: the strided kernel's. The small-block
/// kernel sums row 1 of a general matrix in another order, but with a zero
/// partner both orders round alike — two of the four terms are zeros, and
/// a sum of zeros has one sign in any order. The product start of a layer
/// plan doubles the register through it.
pub fn pair_1q(m: &Mat2, shape: Shape1q, x0: C64) -> (C64, C64) {
    let x1 = C64::ZERO;
    // `d` multiplies the lane `s` itself, `o` its partner `p`.
    let lane = |d: C64, o: C64, s: C64, p: C64| match shape {
        Shape1q::Real => C64::new(d.re * s.re + o.re * p.re, d.re * s.im + o.re * p.im),
        Shape1q::XPhase => C64::new(d.re * s.re - o.im * p.im, d.re * s.im + o.im * p.re),
        Shape1q::General => C64::new(
            d.re * s.re - d.im * s.im + o.re * p.re - o.im * p.im,
            d.re * s.im + d.im * s.re + o.re * p.im + o.im * p.re,
        ),
    };
    let [m00, m01, m10, m11] = *m;
    let one = match shape {
        Shape1q::XPhase => lane(m11, m10, x1, x0),
        _ => lane(m10, m11, x0, x1),
    };
    (lane(m00, m01, x0, x1), one)
}

tiered! {
    /// Applies the 2x2 matrix `m` (of the given shape) to local qubit `q`
    /// of a tile.
    pub fn apply_1q(re: &mut [f64], im: &mut [f64], q: usize, m: &Mat2, shape: Shape1q) {
        debug_assert_eq!(re.len(), im.len());
        debug_assert!(re.len() >= 2 << q, "qubit outside the tile");
        if q < BLOCK_BITS && re.len() >= BLOCK {
            match q {
                0 => block_1q::<0>(re, im, m, shape),
                1 => block_1q::<1>(re, im, m, shape),
                _ => block_1q::<2>(re, im, m, shape),
            }
        } else {
            strided_1q(re, im, q, m, shape);
        }
    }
}

// --- dense multi-qubit kernels ----------------------------------------------

/// Hands `f` the four amplitude runs `(re, im)[0..4]` of every two-qubit
/// group of a tile — run `j` holds local basis state `j` (bit 0 = `lo`,
/// bit 1 = `hi`) and is contiguous over the bits below `lo`.
#[inline(always)]
fn quads(
    re: &mut [f64],
    im: &mut [f64],
    lo: usize,
    hi: usize,
    mut f: impl FnMut([&mut [f64]; 4], [&mut [f64]; 4]),
) {
    debug_assert!(lo < hi && re.len() >= 2 << hi, "qubits outside the tile");
    let (slo, shi) = (1usize << lo, 1usize << hi);
    for (rc, ic) in re
        .chunks_exact_mut(2 * shi)
        .zip(im.chunks_exact_mut(2 * shi))
    {
        let (rc0, rc1) = rc.split_at_mut(shi);
        let (ic0, ic1) = ic.split_at_mut(shi);
        for (((ra, rb), ia), ib) in rc0
            .chunks_exact_mut(2 * slo)
            .zip(rc1.chunks_exact_mut(2 * slo))
            .zip(ic0.chunks_exact_mut(2 * slo))
            .zip(ic1.chunks_exact_mut(2 * slo))
        {
            let (r0, r1) = ra.split_at_mut(slo);
            let (r2, r3) = rb.split_at_mut(slo);
            let (i0, i1) = ia.split_at_mut(slo);
            let (i2, i3) = ib.split_at_mut(slo);
            f([r0, r1, r2, r3], [i0, i1, i2, i3]);
        }
    }
}

/// The small-block kernel for a two-qubit matrix whose low qubit sits
/// below [`BLOCK_BITS`]. `W` lanes hold whole groups: lane `j` is local
/// basis state `s(j) = bit_ML(j) + 2 bit_MH(j)`, and its output is the sum
/// over `k` of `u[s][s ^ k]` times lane `j ^ mask_k` — four constant lane
/// permutations under per-lane coefficient patterns, as in [`block_1q`].
#[inline(always)]
fn mix_2q<const ML: usize, const MH: usize, const W: usize>(
    xr: &mut [f64; W],
    xi: &mut [f64; W],
    cr: &[[f64; W]; 4],
    ci: &[[f64; W]; 4],
) {
    let (ar, ai) = (*xr, *xi);
    let masks = [0, ML, MH, ML | MH];
    *xr = [0.0; W];
    *xi = [0.0; W];
    for k in 0..4 {
        for j in 0..W {
            let p = j ^ masks[k];
            xr[j] += cr[k][j] * ar[p] - ci[k][j] * ai[p];
            xi[j] += cr[k][j] * ai[p] + ci[k][j] * ar[p];
        }
    }
}

/// Lane coefficient patterns of [`mix_2q`] for the lane masks `ml`, `mh`.
#[inline(always)]
fn mix_2q_patterns<const W: usize>(
    u: &[C64; 16],
    ml: usize,
    mh: usize,
) -> ([[f64; W]; 4], [[f64; W]; 4]) {
    let mut cr = [[0.0; W]; 4];
    let mut ci = [[0.0; W]; 4];
    for k in 0..4 {
        for j in 0..W {
            let s = usize::from(j & ml != 0) + 2 * usize::from(j & mh != 0);
            (cr[k][j], ci[k][j]) = (u[4 * s + (s ^ k)].re, u[4 * s + (s ^ k)].im);
        }
    }
    (cr, ci)
}

/// [`mix_2q`] over a tile with both qubits inside one block of 8.
#[inline(always)]
fn block_2q_within<const ML: usize, const MH: usize>(
    re: &mut [f64],
    im: &mut [f64],
    u: &[C64; 16],
) {
    let (cr, ci) = mix_2q_patterns::<BLOCK>(u, ML, MH);
    for (r, i) in re.chunks_exact_mut(BLOCK).zip(im.chunks_exact_mut(BLOCK)) {
        let r: &mut [f64; BLOCK] = r.try_into().expect("exact chunk");
        let i: &mut [f64; BLOCK] = i.try_into().expect("exact chunk");
        mix_2q::<ML, MH, BLOCK>(r, i, &cr, &ci);
    }
}

/// [`mix_2q`] over a tile with `lo` inside a block and `hi` above it: the
/// two blocks `2^hi` apart are treated as one of 16 lanes.
#[inline(always)]
fn block_2q_across<const ML: usize>(re: &mut [f64], im: &mut [f64], hi: usize, u: &[C64; 16]) {
    const W: usize = 2 * BLOCK;
    let (cr, ci) = mix_2q_patterns::<W>(u, ML, BLOCK);
    let shi = 1usize << hi;
    for (rc, ic) in re
        .chunks_exact_mut(2 * shi)
        .zip(im.chunks_exact_mut(2 * shi))
    {
        let (ra, rb) = rc.split_at_mut(shi);
        let (ia, ib) = ic.split_at_mut(shi);
        for (((ra, rb), ia), ib) in ra
            .chunks_exact_mut(BLOCK)
            .zip(rb.chunks_exact_mut(BLOCK))
            .zip(ia.chunks_exact_mut(BLOCK))
            .zip(ib.chunks_exact_mut(BLOCK))
        {
            let mut xr = [0.0; W];
            let mut xi = [0.0; W];
            xr[..BLOCK].copy_from_slice(ra);
            xr[BLOCK..].copy_from_slice(rb);
            xi[..BLOCK].copy_from_slice(ia);
            xi[BLOCK..].copy_from_slice(ib);
            mix_2q::<ML, BLOCK, W>(&mut xr, &mut xi, &cr, &ci);
            ra.copy_from_slice(&xr[..BLOCK]);
            rb.copy_from_slice(&xr[BLOCK..]);
            ia.copy_from_slice(&xi[..BLOCK]);
            ib.copy_from_slice(&xi[BLOCK..]);
        }
    }
}

tiered! {
    /// Applies a dense 4x4 matrix (row-major, local bit 0 = `lo`, bit 1 =
    /// `hi`, `lo < hi`) to a tile. From [`BLOCK_BITS`] up the inner loop
    /// runs along the four contiguous runs; below, the small-block kernel
    /// takes over.
    pub fn apply_2q(re: &mut [f64], im: &mut [f64], lo: usize, hi: usize, u: &[C64; 16]) {
        if lo < BLOCK_BITS && re.len() >= 2 * BLOCK {
            return match (lo, hi) {
                (0, 1) => block_2q_within::<1, 2>(re, im, u),
                (0, 2) => block_2q_within::<1, 4>(re, im, u),
                (1, 2) => block_2q_within::<2, 4>(re, im, u),
                (0, _) => block_2q_across::<1>(re, im, hi, u),
                (1, _) => block_2q_across::<2>(re, im, hi, u),
                _ => block_2q_across::<4>(re, im, hi, u),
            };
        }
        let ur: [f64; 16] = std::array::from_fn(|k| u[k].re);
        let ui: [f64; 16] = std::array::from_fn(|k| u[k].im);
        quads(re, im, lo, hi, move |[r0, r1, r2, r3], [i0, i1, i2, i3]| {
            let n = r0.len();
            let (r1, r2, r3) = (&mut r1[..n], &mut r2[..n], &mut r3[..n]);
            let (i0, i1, i2, i3) = (&mut i0[..n], &mut i1[..n], &mut i2[..n], &mut i3[..n]);
            for k in 0..n {
                let (ar, br, cr, dr) = (r0[k], r1[k], r2[k], r3[k]);
                let (ai, bi, ci, di) = (i0[k], i1[k], i2[k], i3[k]);
                let row_re = |j: usize| {
                    ur[j] * ar - ui[j] * ai + ur[j + 1] * br - ui[j + 1] * bi
                        + ur[j + 2] * cr - ui[j + 2] * ci + ur[j + 3] * dr - ui[j + 3] * di
                };
                let row_im = |j: usize| {
                    ur[j] * ai + ui[j] * ar + ur[j + 1] * bi + ui[j + 1] * br
                        + ur[j + 2] * ci + ui[j + 2] * cr + ur[j + 3] * di + ui[j + 3] * dr
                };
                (r0[k], r1[k], r2[k], r3[k]) = (row_re(0), row_re(4), row_re(8), row_re(12));
                (i0[k], i1[k], i2[k], i3[k]) = (row_im(0), row_im(4), row_im(8), row_im(12));
            }
        });
    }
}

/// A two-qubit matrix with one nonzero per row and column (CX, CZ, SWAP
/// and whatever Paulis and phases fused into them): output run `j` is
/// input run `src[j]` times `coeff[j]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Monomial2q {
    src: [usize; 4],
    coeff: [C64; 4],
}

impl Monomial2q {
    /// Recognises a monomial 4x4 matrix by exact zero tests (products of
    /// monomial matrices keep their zeros exactly).
    pub fn of(u: &[C64; 16]) -> Option<Monomial2q> {
        let mut src = [0usize; 4];
        let mut coeff = [C64::ZERO; 4];
        let mut used = [false; 4];
        for row in 0..4 {
            let mut nonzero = (0..4).filter(|&col| u[4 * row + col] != C64::ZERO);
            let col = nonzero.next()?;
            if nonzero.next().is_some() || std::mem::replace(&mut used[col], true) {
                return None;
            }
            (src[row], coeff[row]) = (col, u[4 * row + col]);
        }
        Some(Monomial2q { src, coeff })
    }
}

tiered! {
    /// Applies a monomial two-qubit matrix: whole runs are swapped into
    /// place (no arithmetic at all for a bare CX) and then scaled where
    /// the coefficient is not 1.
    pub fn apply_2q_monomial(re: &mut [f64], im: &mut [f64], lo: usize, hi: usize, m: &Monomial2q) {
        let m = *m;
        quads(re, im, lo, hi, move |mut r, mut i| {
            // Selection sort on runs: after step `j`, run `j` holds its
            // source; `at[s]` tracks where original run `s` currently is.
            let mut at = [0, 1, 2, 3];
            for j in 0..3 {
                let from = at[m.src[j]];
                if from != j {
                    let (head, tail) = r.split_at_mut(from);
                    head[j].swap_with_slice(tail[0]);
                    let (head, tail) = i.split_at_mut(from);
                    head[j].swap_with_slice(tail[0]);
                    let displaced = at.iter().position(|&p| p == j).expect("permutation");
                    at[displaced] = from;
                    at[m.src[j]] = j;
                }
            }
            for j in 0..4 {
                let c = m.coeff[j];
                if c != C64::ONE {
                    let n = r[j].len();
                    let (rj, ij) = (&mut r[j][..n], &mut i[j][..n]);
                    for k in 0..n {
                        let (xr, xi) = (rj[k], ij[k]);
                        rj[k] = c.re * xr - c.im * xi;
                        ij[k] = c.re * xi + c.im * xr;
                    }
                }
            }
        });
    }
}

/// Applies a dense `2^k x 2^k` matrix (row-major; local bit `j` of the
/// matrix basis is tile qubit `qubits[j]`) by gather, multiply, scatter.
/// Serves Toffolis and opaque unitary blocks; not on any hot path, so it
/// has no tier twin.
pub fn apply_kq(re: &mut [f64], im: &mut [f64], qubits: &[usize], m: &[C64]) {
    let k = qubits.len();
    assert!(
        k <= MAX_DENSE_QUBITS,
        "gates above {MAX_DENSE_QUBITS} qubits are not supported"
    );
    let dim = 1usize << k;
    debug_assert_eq!(m.len(), dim * dim);
    let mut sorted = [0usize; MAX_DENSE_QUBITS];
    sorted[..k].copy_from_slice(qubits);
    sorted[..k].sort_unstable();
    let mut offsets = [0usize; 1 << MAX_DENSE_QUBITS];
    for (local, off) in offsets.iter_mut().enumerate().take(dim) {
        for (j, &q) in qubits.iter().enumerate() {
            if local & (1 << j) != 0 {
                *off |= 1 << q;
            }
        }
    }
    let mut vr = [0.0; 1 << MAX_DENSE_QUBITS];
    let mut vi = [0.0; 1 << MAX_DENSE_QUBITS];
    for g in 0..re.len() >> k {
        let base = sorted[..k].iter().fold(g, |x, &q| insert_zero_bit(x, q));
        for local in 0..dim {
            vr[local] = re[base | offsets[local]];
            vi[local] = im[base | offsets[local]];
        }
        for (row, mrow) in m.chunks_exact(dim).enumerate() {
            let (mut ar, mut ai) = (0.0, 0.0);
            for (col, u) in mrow.iter().enumerate() {
                ar += u.re * vr[col] - u.im * vi[col];
                ai += u.re * vi[col] + u.im * vr[col];
            }
            re[base | offsets[row]] = ar;
            im[base | offsets[row]] = ai;
        }
    }
}

// --- diagonal layers --------------------------------------------------------

/// Flat index of the unordered pair `(hi, lo)`, `hi > lo`, in an
/// upper-triangular table.
#[inline]
fn tri(hi: usize, lo: usize) -> usize {
    hi * (hi - 1) / 2 + lo
}

/// A product of one- and two-qubit diagonal gates over *register* qubits,
/// normalised so that
/// `phase(i) = p0 * prod_{q set in i} flip_q * prod_{a<b set in i} pair_ab`.
/// `O(gates)` scalars however wide the run — never a `2^k` table.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagForm {
    /// Phase of the all-zeros basis state.
    pub p0: C64,
    /// `(qubit, phase(bit = 1) / phase(bit = 0))`.
    pub flips: Vec<(usize, C64)>,
    /// `(a, b, correction when both bits are set)`, `a < b`.
    pub pairs: Vec<(usize, usize, C64)>,
}

/// Which register qubits a tile holds and where: local bit `j` of a tile
/// index is register qubit `qubits[j]` (ascending).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileMap {
    qubits: Vec<usize>,
    /// Register qubit -> local bit, `u8::MAX` outside the tile.
    local: Vec<u8>,
}

impl TileMap {
    /// A tile over the given ascending register qubits of an `n`-qubit
    /// register.
    pub fn new(n: usize, qubits: Vec<usize>) -> TileMap {
        debug_assert!(qubits.windows(2).all(|w| w[0] < w[1]));
        let mut local = vec![u8::MAX; n];
        for (j, &q) in qubits.iter().enumerate() {
            local[q] = j as u8;
        }
        TileMap { qubits, local }
    }

    /// The tile's register qubits, ascending.
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// Local bit of register qubit `q`, if the tile holds it.
    #[inline]
    pub fn local(&self, q: usize) -> Option<usize> {
        match self.local[q] {
            u8::MAX => None,
            j => Some(j as usize),
        }
    }
}

/// A [`DiagForm`] restricted to one tile: the same normalised product over
/// the tile's `k` local bits, pair corrections dense upper-triangular.
/// Qubits outside the tile have been folded into `p0` and `u` from the
/// tile's base index, which is why a diagonal op on high qubits never
/// forces a pass of its own.
#[derive(Clone, Debug)]
pub struct PhaseForm {
    p0: C64,
    u: Vec<C64>,
    w: Vec<C64>,
}

impl PhaseForm {
    /// The identity form over `k` local bits.
    pub fn identity(k: usize) -> PhaseForm {
        PhaseForm {
            p0: C64::ONE,
            u: vec![C64::ONE; k],
            w: vec![C64::ONE; k * k.saturating_sub(1) / 2],
        }
    }

    /// Overwrites `self` with `form` as seen from the tile `map` at base
    /// index `base` (the register bits outside the tile).
    pub fn localize(&mut self, form: &DiagForm, map: &TileMap, base: usize) {
        self.p0 = form.p0;
        self.u.fill(C64::ONE);
        self.w.fill(C64::ONE);
        let set = |q: usize| base >> q & 1 == 1;
        for &(q, f) in &form.flips {
            match map.local(q) {
                Some(j) => self.u[j] *= f,
                None if set(q) => self.p0 *= f,
                None => {}
            }
        }
        for &(a, b, f) in &form.pairs {
            match (map.local(a), map.local(b)) {
                (Some(i), Some(j)) => self.w[tri(j, i)] *= f,
                (Some(i), None) if set(b) => self.u[i] *= f,
                (None, Some(j)) if set(a) => self.u[j] *= f,
                (None, None) if set(a) && set(b) => self.p0 *= f,
                _ => {}
            }
        }
    }
}

tiered! {
    /// Builds the tile's phase table `phase(l)` into the planes
    /// `tre/tim[..2^k]` by doubling: level `j` first grows the flip-factor
    /// table `F_j(b) = u_j * prod_{i<j set in b} w_ji` in the upper half
    /// (itself by doubling), then multiplies it onto the finished lower
    /// half — `~2 * 2^k` complex products in all, no per-entry `sincos`.
    pub fn phase_table(form: &PhaseForm, tre: &mut [f64], tim: &mut [f64]) {
        let k = form.u.len();
        debug_assert!(tre.len() >= 1 << k && tim.len() >= 1 << k);
        tre[0] = form.p0.re;
        tim[0] = form.p0.im;
        for j in 0..k {
            let half = 1usize << j;
            tre[half] = form.u[j].re;
            tim[half] = form.u[j].im;
            for i in 0..j {
                let g = form.w[tri(j, i)];
                let s = 1usize << i;
                // Disjoint source/destination halves, split so the loop
                // vectorises.
                let (sre, dre) = tre[half..half + 2 * s].split_at_mut(s);
                let (sim, dim) = tim[half..half + 2 * s].split_at_mut(s);
                for b in 0..s {
                    dre[b] = sre[b] * g.re - sim[b] * g.im;
                    dim[b] = sre[b] * g.im + sim[b] * g.re;
                }
            }
            let (lre, hre) = tre[..2 * half].split_at_mut(half);
            let (lim, him) = tim[..2 * half].split_at_mut(half);
            for b in 0..half {
                let (xr, xi) = (hre[b], him[b]);
                hre[b] = lre[b] * xr - lim[b] * xi;
                him[b] = lre[b] * xi + lim[b] * xr;
            }
        }
    }
}

tiered! {
    /// Multiplies every amplitude of the tile by its table entry.
    pub fn mul_table(re: &mut [f64], im: &mut [f64], tre: &[f64], tim: &[f64]) {
        let n = re.len();
        let (im, tre, tim) = (&mut im[..n], &tre[..n], &tim[..n]);
        for l in 0..n {
            let (ar, ai) = (re[l], im[l]);
            re[l] = ar * tre[l] - ai * tim[l];
            im[l] = ar * tim[l] + ai * tre[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_num::rng::Rng;

    fn random_planes(t: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = Rng::seed_from(seed);
        let re = (0..1usize << t).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let im = (0..1usize << t).map(|_| rng.uniform(-1.0, 1.0)).collect();
        (re, im)
    }

    fn mats() -> [(Mat2, Shape1q); 3] {
        let c = |re, im| C64::new(re, im);
        [
            (
                [c(0.6, 0.0), c(-0.8, 0.0), c(0.8, 0.0), c(0.6, 0.0)],
                Shape1q::Real,
            ),
            (
                [c(0.6, 0.0), c(0.0, -0.8), c(0.0, -0.8), c(0.6, 0.0)],
                Shape1q::XPhase,
            ),
            (
                [c(0.36, 0.48), c(-0.64, 0.48), c(0.8, 0.0), c(0.6, 0.0)],
                Shape1q::General,
            ),
        ]
    }

    /// The scalar definition every 1q kernel must reproduce.
    fn reference_1q(re: &[f64], im: &[f64], q: usize, m: &Mat2) -> (Vec<f64>, Vec<f64>) {
        let (mut or, mut oi) = (re.to_vec(), im.to_vec());
        for l in 0..re.len() {
            let bit = l >> q & 1;
            let p = l ^ (1 << q);
            let (d, o) = (m[3 * bit], m[1 + bit]);
            let (x, y) = (C64::new(re[l], im[l]), C64::new(re[p], im[p]));
            let z = d * x + o * y;
            (or[l], oi[l]) = (z.re, z.im);
        }
        (or, oi)
    }

    #[test]
    fn shapes_classify_and_every_1q_kernel_matches_the_definition() {
        for t in 1..=6 {
            for q in 0..t {
                for (m, shape) in mats() {
                    assert_eq!(Shape1q::of(&m), shape);
                    let (re, im) = random_planes(t, 7 + q as u64);
                    let (wr, wi) = reference_1q(&re, &im, q, &m);
                    // The general kernel must serve every shape too.
                    for run_as in [shape, Shape1q::General] {
                        let (mut gr, mut gi) = (re.clone(), im.clone());
                        apply_1q(IsaTier::PORTABLE, &mut gr, &mut gi, q, &m, run_as);
                        for l in 0..re.len() {
                            assert!(
                                (gr[l] - wr[l]).abs() < 1e-14 && (gi[l] - wi[l]).abs() < 1e-14,
                                "t={t} q={q} {run_as:?} amp {l}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_tier_is_bitwise_the_portable_tier() {
        let (re, im) = random_planes(9, 3);
        let u: Vec<C64> = (0..16)
            .map(|k| C64::cis(0.3 * k as f64).scale(0.5))
            .collect();
        let u: [C64; 16] = u.try_into().expect("16 entries");
        let mut form = PhaseForm::identity(9);
        form.p0 = C64::cis(0.2);
        for (j, f) in form.u.iter_mut().enumerate() {
            *f = C64::cis(0.1 + j as f64);
        }
        for (j, f) in form.w.iter_mut().enumerate() {
            *f = C64::cis(0.7 * j as f64);
        }
        let run = |tier: IsaTier| {
            let (mut r, mut i) = (re.clone(), im.clone());
            for q in 0..9 {
                for (m, shape) in mats() {
                    apply_1q(tier, &mut r, &mut i, q, &m, shape);
                }
            }
            apply_2q(tier, &mut r, &mut i, 0, 5, &u);
            apply_2q(tier, &mut r, &mut i, 4, 8, &u);
            let (mut tr, mut ti) = (vec![0.0; 512], vec![0.0; 512]);
            phase_table(tier, &form, &mut tr, &mut ti);
            mul_table(tier, &mut r, &mut i, &tr, &ti);
            (r, i)
        };
        let want = run(IsaTier::PORTABLE);
        for tier in IsaTier::available() {
            let got = run(tier);
            assert!(
                got.0
                    .iter()
                    .zip(&want.0)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && got
                        .1
                        .iter()
                        .zip(&want.1)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{tier:?} differs from the portable tier"
            );
        }
    }

    #[test]
    fn phase_table_is_the_product_it_claims() {
        let k = 5;
        let mut form = PhaseForm::identity(k);
        form.p0 = C64::cis(0.4);
        for (j, f) in form.u.iter_mut().enumerate() {
            *f = C64::cis(0.3 * (j + 1) as f64);
        }
        for (j, f) in form.w.iter_mut().enumerate() {
            *f = C64::cis(-0.2 * (j + 1) as f64);
        }
        let (mut tr, mut ti) = (vec![0.0; 1 << k], vec![0.0; 1 << k]);
        phase_table(IsaTier::PORTABLE, &form, &mut tr, &mut ti);
        for l in 0..1usize << k {
            let mut want = form.p0;
            for j in 0..k {
                if l >> j & 1 == 1 {
                    want *= form.u[j];
                    for i in 0..j {
                        if l >> i & 1 == 1 {
                            want *= form.w[tri(j, i)];
                        }
                    }
                }
            }
            assert!(want.approx_eq(C64::new(tr[l], ti[l]), 1e-13), "entry {l}");
        }
    }

    #[test]
    fn localize_folds_outside_qubits_into_the_tile_constants() {
        // Register of 5, tile over {0, 1, 3}; qubits 2 and 4 come from base.
        let form = DiagForm {
            p0: C64::cis(0.1),
            flips: (0..5)
                .map(|q| (q, C64::cis(0.2 * (q + 1) as f64)))
                .collect(),
            pairs: vec![
                (0, 1, C64::cis(0.5)),
                (1, 2, C64::cis(0.6)),
                (2, 4, C64::cis(0.7)),
                (3, 4, C64::cis(0.8)),
            ],
        };
        let phase = |i: usize| {
            let mut p = form.p0;
            for &(q, f) in &form.flips {
                if i >> q & 1 == 1 {
                    p *= f;
                }
            }
            for &(a, b, f) in &form.pairs {
                if i >> a & 1 == 1 && i >> b & 1 == 1 {
                    p *= f;
                }
            }
            p
        };
        let map = TileMap::new(5, vec![0, 1, 3]);
        let mut local = PhaseForm::identity(3);
        let (mut tr, mut ti) = (vec![0.0; 8], vec![0.0; 8]);
        for base in [0b00000, 0b00100, 0b10000, 0b10100] {
            local.localize(&form, &map, base);
            phase_table(IsaTier::PORTABLE, &local, &mut tr, &mut ti);
            for l in 0..8usize {
                let i = base | (l & 3) | (l >> 2) << 3;
                assert!(
                    phase(i).approx_eq(C64::new(tr[l], ti[l]), 1e-13),
                    "index {i}"
                );
            }
        }
    }
}
