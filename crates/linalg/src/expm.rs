//! Matrix exponential via Padé approximation with scaling and squaring.
//!
//! QFast-style synthesis parameterizes generic blocks as `U = exp(i H)` with
//! `H` a Hermitian combination of Pauli strings, so we need a robust `expm`
//! for small (4x4 .. 16x16) matrices. This is the classic Higham [13/13]
//! scaling-and-squaring scheme, simplified: we always use the degree-13
//! approximant and pick the scaling power from the max-abs norm.
//!
//! [`expm_i_su4`] is the same computation for QFast's two-qubit blocks on
//! fixed-size `[Complex64; 16]` arrays, with no heap allocation: the block
//! exponential runs once per central-difference probe of the coarse stage,
//! so it is the hot path there. It performs the operations of
//! `expm_i_hermitian(&hermitian_from_coeffs(..))` in the same order, so its
//! bits are that oracle's.

use crate::complex::{c64, Complex64};
use crate::matrix::Matrix;
use crate::solve::invert;

/// Degree-13 Padé coefficients (Higham 2005).
const PADE13: [f64; 14] = [
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
];

/// Computes `exp(A)` for a square complex matrix.
///
/// # Panics
/// Panics if `A` is not square or if the Padé linear solve is singular
/// (which cannot happen for finite input due to diagonal dominance after
/// scaling).
pub fn expm(a: &Matrix) -> Matrix {
    assert!(a.is_square(), "expm requires a square matrix");
    let n = a.rows();
    if n == 0 {
        return Matrix::zeros(0, 0);
    }

    // Scale A down until its norm is comfortably inside the [13/13]
    // convergence region (theta_13 ~= 5.37; use 1.0 for extra margin on
    // these tiny matrices — squarings are cheap).
    let norm = one_norm(a);
    let mut squarings = 0u32;
    let mut scaled = a.clone();
    if norm > 1.0 {
        squarings = norm.log2().ceil() as u32 + 1;
        scaled = scaled.scale_re(0.5f64.powi(squarings as i32));
    }

    // Padé [13/13]: r(A) = (V - U)^{-1} (V + U) with
    // U = A * (b13 A^12 + b11 A^10 + ... ) and V the even part.
    let a2 = scaled.matmul(&scaled);
    let a4 = a2.matmul(&a2);
    let a6 = a4.matmul(&a2);

    let b = |i: usize| c64(PADE13[i], 0.0);

    // w1 = b13 A^6 + b11 A^4 + b9 A^2
    let mut w1 = a6.scale(b(13));
    w1.axpy(b(11), &a4);
    w1.axpy(b(9), &a2);
    // w2 = b7 A^6 + b5 A^4 + b3 A^2 + b1 I
    let mut w2 = a6.scale(b(7));
    w2.axpy(b(5), &a4);
    w2.axpy(b(3), &a2);
    w2.axpy(b(1), &Matrix::identity(n));
    // U = A (A^6 w1 + w2)
    let u = scaled.matmul(&(&a6.matmul(&w1) + &w2));

    // z1 = b12 A^6 + b10 A^4 + b8 A^2
    let mut z1 = a6.scale(b(12));
    z1.axpy(b(10), &a4);
    z1.axpy(b(8), &a2);
    // V = A^6 z1 + b6 A^6 + b4 A^4 + b2 A^2 + b0 I
    let mut v = a6.matmul(&z1);
    v.axpy(b(6), &a6);
    v.axpy(b(4), &a4);
    v.axpy(b(2), &a2);
    v.axpy(b(0), &Matrix::identity(n));

    let denom = &v - &u;
    let numer = &v + &u;
    let mut r = invert(&denom)
        .expect("Pade denominator is nonsingular for finite input")
        .matmul(&numer);

    for _ in 0..squarings {
        r = r.matmul(&r);
    }
    r
}

/// Computes `exp(i H)` for Hermitian `H` — the unitary generated by `H`.
pub fn expm_i_hermitian(h: &Matrix) -> Matrix {
    expm(&h.scale(Complex64::I))
}

/// A row-major 4x4 complex matrix as the fixed-size kernels take it.
pub(crate) type M4 = [Complex64; 16];

const IDENTITY4: M4 = {
    let mut m = [Complex64::ZERO; 16];
    let mut i = 0;
    while i < 4 {
        m[i * 5] = Complex64::ONE;
        i += 1;
    }
    m
};

/// `exp(i sum_j t_j P_j)` for the 15 coefficients `coeffs` over `basis`
/// (the two-qubit Pauli strings of [`crate::pauli::su4_basis`]), with no heap
/// allocation.
///
/// Bit for bit `expm_i_hermitian(&hermitian_from_coeffs(&su_basis(2),
/// coeffs))`: the same operations in the same order, on stack arrays. That
/// covers the skipped zero coefficients, the matrix products' i-k-j order
/// and zero-entry skips, the `hypot` norms and pivots, and the complex
/// (not real) scalings by the Padé coefficients.
///
/// Dispatched like [`crate::kernels::apply_1q_vec_blocked`], with
/// [`expm_i_su4_scalar`] as the portable fallback. The AVX2 table runs the
/// same algorithm with its products, scalings and row updates two entries
/// per vector; every entry keeps its own chain of operations, so the two
/// are bit-identical.
///
/// # Panics
/// Panics if `coeffs` does not hold 15 values, or if the Padé denominator
/// is singular (as [`expm`] does).
pub fn expm_i_su4(basis: &[M4; 15], coeffs: &[f64]) -> M4 {
    (crate::simd::kernel_dispatch().expm_i_su4)(basis, coeffs)
}

/// Portable [`expm_i_su4`] implementation.
pub fn expm_i_su4_scalar(basis: &[M4; 15], coeffs: &[f64]) -> M4 {
    // SAFETY: the scalar operations need no target feature
    unsafe { expm_i_su4_with::<Scalar4>(basis, coeffs) }
}

/// The 4x4 array operations the block exponential is built from, so that
/// the scalar and AVX2 kernel tables run one algorithm. Each has the
/// rounding of the heap [`Matrix`] operation it stands for.
pub(crate) trait Ops4 {
    /// [`Matrix::matmul`]: i-k-j order, zero left-hand entries skipped.
    ///
    /// # Safety
    /// The implementation's target features must be available (here and in
    /// every method below).
    unsafe fn matmul(a: &M4, b: &M4) -> M4;
    /// [`Matrix::scale`]: every entry times `k`.
    unsafe fn scale(a: &M4, k: Complex64) -> M4;
    /// [`Matrix::axpy`]: `y += k * x`.
    unsafe fn axpy(y: &mut M4, k: Complex64, x: &M4);
    /// Row `r` of `m` times `k`, entry by entry (`*=`).
    unsafe fn scale_row(m: &mut M4, r: usize, k: Complex64);
    /// Row `r` of `m` minus `f` times `src`, entry by entry (`-= f * src`).
    unsafe fn sub_scaled_row(m: &mut M4, r: usize, f: Complex64, src: &[Complex64; 4]);
}

/// The portable [`Ops4`]: the heap operations' loops on arrays.
struct Scalar4;

impl Ops4 for Scalar4 {
    #[inline(always)]
    unsafe fn matmul(a: &M4, b: &M4) -> M4 {
        let mut out = [Complex64::ZERO; 16];
        for i in 0..4 {
            for k in 0..4 {
                let aik = a[i * 4 + k];
                if aik == Complex64::ZERO {
                    continue;
                }
                for j in 0..4 {
                    out[i * 4 + j] = out[i * 4 + j].mul_add(aik, b[k * 4 + j]);
                }
            }
        }
        out
    }

    #[inline(always)]
    unsafe fn scale(a: &M4, k: Complex64) -> M4 {
        a.map(|z| z * k)
    }

    #[inline(always)]
    unsafe fn axpy(y: &mut M4, k: Complex64, x: &M4) {
        for (a, b) in y.iter_mut().zip(x) {
            *a = a.mul_add(k, *b);
        }
    }

    #[inline(always)]
    unsafe fn scale_row(m: &mut M4, r: usize, k: Complex64) {
        for z in &mut m[r * 4..r * 4 + 4] {
            *z *= k;
        }
    }

    #[inline(always)]
    unsafe fn sub_scaled_row(m: &mut M4, r: usize, f: Complex64, src: &[Complex64; 4]) {
        for (z, &s) in m[r * 4..r * 4 + 4].iter_mut().zip(src) {
            *z -= f * s;
        }
    }
}

/// [`expm_i_su4`] on the operations `O`.
///
/// # Safety
/// `O`'s target features must be available.
#[inline(always)]
pub(crate) unsafe fn expm_i_su4_with<O: Ops4>(basis: &[M4; 15], coeffs: &[f64]) -> M4 {
    assert_eq!(coeffs.len(), 15, "basis/coeff length mismatch");
    // hermitian_from_coeffs, then the scaling by i
    let mut h = [Complex64::ZERO; 16];
    for (b, &t) in basis.iter().zip(coeffs) {
        if t != 0.0 {
            O::axpy(&mut h, c64(t, 0.0), b);
        }
    }
    let a = O::scale(&h, Complex64::I);

    // expm
    let norm = one_norm4(&a);
    let mut squarings = 0u32;
    let mut scaled = a;
    if norm > 1.0 {
        squarings = norm.log2().ceil() as u32 + 1;
        let k = 0.5f64.powi(squarings as i32);
        scaled = scaled.map(|z| z * k);
    }

    let a2 = O::matmul(&scaled, &scaled);
    let a4 = O::matmul(&a2, &a2);
    let a6 = O::matmul(&a4, &a2);

    let b = |i: usize| c64(PADE13[i], 0.0);

    let mut w1 = O::scale(&a6, b(13));
    O::axpy(&mut w1, b(11), &a4);
    O::axpy(&mut w1, b(9), &a2);
    let mut w2 = O::scale(&a6, b(7));
    O::axpy(&mut w2, b(5), &a4);
    O::axpy(&mut w2, b(3), &a2);
    O::axpy(&mut w2, b(1), &IDENTITY4);
    let a6w1 = O::matmul(&a6, &w1);
    let u = O::matmul(&scaled, &std::array::from_fn(|e| a6w1[e] + w2[e]));

    let mut z1 = O::scale(&a6, b(12));
    O::axpy(&mut z1, b(10), &a4);
    O::axpy(&mut z1, b(8), &a2);
    let mut v = O::matmul(&a6, &z1);
    O::axpy(&mut v, b(6), &a6);
    O::axpy(&mut v, b(4), &a4);
    O::axpy(&mut v, b(2), &a2);
    O::axpy(&mut v, b(0), &IDENTITY4);

    let denom: M4 = std::array::from_fn(|e| v[e] - u[e]);
    let numer: M4 = std::array::from_fn(|e| v[e] + u[e]);
    let inv = invert4::<O>(&denom).expect("Pade denominator is nonsingular for finite input");
    let mut r = O::matmul(&inv, &numer);

    for _ in 0..squarings {
        r = O::matmul(&r, &r);
    }
    r
}

/// [`one_norm`] on a 4x4 array.
#[inline(always)]
fn one_norm4(a: &M4) -> f64 {
    let mut best = 0.0f64;
    for j in 0..4 {
        let mut s = 0.0;
        for i in 0..4 {
            s += a[i * 4 + j].abs();
        }
        best = best.max(s);
    }
    best
}

/// [`crate::solve::invert`] on a 4x4 array: Gauss-Jordan elimination with
/// partial pivoting, `None` where it reports a singular matrix.
///
/// # Safety
/// `O`'s target features must be available.
#[inline(always)]
unsafe fn invert4<O: Ops4>(m: &M4) -> Option<M4> {
    let mut a = *m;
    let mut inv = IDENTITY4;
    for col in 0..4 {
        let mut pivot_row = col;
        let mut pivot_mag = a[col * 4 + col].abs();
        for r in col + 1..4 {
            let mag = a[r * 4 + col].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag < 1e-300 {
            return None;
        }
        if pivot_row != col {
            for j in 0..4 {
                a.swap(col * 4 + j, pivot_row * 4 + j);
                inv.swap(col * 4 + j, pivot_row * 4 + j);
            }
        }

        let pivot_inv = a[col * 4 + col].inv();
        O::scale_row(&mut a, col, pivot_inv);
        O::scale_row(&mut inv, col, pivot_inv);
        // row `col` is not written again until the next column
        let a_col: [Complex64; 4] = std::array::from_fn(|j| a[col * 4 + j]);
        let inv_col: [Complex64; 4] = std::array::from_fn(|j| inv[col * 4 + j]);
        for r in 0..4 {
            if r == col {
                continue;
            }
            let factor = a[r * 4 + col];
            if factor == Complex64::ZERO {
                continue;
            }
            O::sub_scaled_row(&mut a, r, factor, &a_col);
            O::sub_scaled_row(&mut inv, r, factor, &inv_col);
        }
    }
    Some(inv)
}

fn one_norm(a: &Matrix) -> f64 {
    let mut best = 0.0f64;
    for j in 0..a.cols() {
        let mut s = 0.0;
        for i in 0..a.rows() {
            s += a[(i, j)].abs();
        }
        best = best.max(s);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{pauli_x, pauli_y, pauli_z};

    #[test]
    fn expm_of_zero_is_identity() {
        let z = Matrix::zeros(4, 4);
        assert!(expm(&z).approx_eq(&Matrix::identity(4), 1e-13));
    }

    #[test]
    fn expm_of_diagonal_is_elementwise_exp() {
        let d = Matrix::diag(&[c64(0.5, 0.0), c64(-1.0, 0.0), c64(0.0, 2.0)]);
        let e = expm(&d);
        assert!((e[(0, 0)] - c64(0.5f64.exp(), 0.0)).abs() < 1e-12);
        assert!((e[(1, 1)] - c64((-1.0f64).exp(), 0.0)).abs() < 1e-12);
        assert!((e[(2, 2)] - Complex64::cis(2.0)).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-13);
    }

    #[test]
    fn pauli_rotation_identity() {
        // exp(i t X) = cos(t) I + i sin(t) X
        let t = 0.8;
        let got = expm(&pauli_x().scale(c64(0.0, t)));
        let mut expect = Matrix::identity(2).scale_re(t.cos());
        expect.axpy(c64(0.0, t.sin()), &pauli_x());
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn hermitian_generator_gives_unitary() {
        // H = 0.3 X + 1.7 Y - 0.4 Z on one qubit, and a 4x4 combination
        let mut h = pauli_x().scale_re(0.3);
        h.axpy(c64(1.7, 0.0), &pauli_y());
        h.axpy(c64(-0.4, 0.0), &pauli_z());
        let u = expm_i_hermitian(&h);
        assert!(u.is_unitary(1e-11), "exp(iH) must be unitary");

        let h2 = pauli_x().kron(&pauli_y()).scale_re(2.5);
        let u2 = expm_i_hermitian(&h2);
        assert!(u2.is_unitary(1e-11));
    }

    #[test]
    fn expm_additivity_for_commuting_matrices() {
        // exp(aZ) exp(bZ) = exp((a+b)Z)
        let a = pauli_z().scale(c64(0.0, 0.4));
        let b = pauli_z().scale(c64(0.0, 1.1));
        let lhs = expm(&a).matmul(&expm(&b));
        let rhs = expm(&(&a + &b));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn large_norm_input_uses_squaring_correctly() {
        // t large enough to force several squarings
        let t = 37.3;
        let got = expm(&pauli_y().scale(c64(0.0, t)));
        let mut expect = Matrix::identity(2).scale_re(t.cos());
        expect.axpy(c64(0.0, t.sin()), &pauli_y());
        assert!(
            got.approx_eq(&expect, 1e-9),
            "max diff {}",
            got.max_diff(&expect)
        );
    }

    #[test]
    fn fixed_size_su4_exponential_is_bit_identical_to_the_heap_path() {
        use crate::pauli::{hermitian_from_coeffs, su4_basis, su_basis};
        use crate::random::{Rng, SplitMix64};
        use crate::simd::KernelDispatch;
        let basis = su_basis(2);
        let fixed = su4_basis();
        let mut rng = SplitMix64::seed_from_u64(0xE4E4);
        let mut seen_squarings = [0usize; 7];
        for rep in 0..240 {
            // coefficients in [-1, 1), about a third of them exactly 0.0
            // (or -0.0), rescaled so the one-norm of iH walks through every
            // squaring count from 0 to 6 (a norm above 1 takes at least 2,
            // so 1 never occurs)
            let mut c: Vec<f64> = (0..15)
                .map(|_| match rng.gen_range(0..6u32) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            let want_norm = [0.3, 0.9, 1.7, 3.5, 7.0, 13.0, 29.0][rep % 7];
            let a = hermitian_from_coeffs(&basis, &c).scale(Complex64::I);
            let norm = one_norm(&a);
            if norm > 0.0 {
                let k = want_norm * rng.gen_range(0.8..1.1) / norm;
                c.iter_mut().for_each(|t| *t *= k);
            }
            let heap = expm_i_hermitian(&hermitian_from_coeffs(&basis, &c));
            // the dispatched kernel, then every table the host can run
            let tables = std::iter::once(KernelDispatch::scalar()).chain(KernelDispatch::simd());
            let runs = std::iter::once(("dispatched", expm_i_su4(&fixed, &c)))
                .chain(tables.map(|t| (t.name, (t.expm_i_su4)(&fixed, &c))));
            for (name, got) in runs {
                for (e, (x, y)) in got.iter().zip(heap.data()).enumerate() {
                    assert_eq!(
                        (x.re.to_bits(), x.im.to_bits()),
                        (y.re.to_bits(), y.im.to_bits()),
                        "{name}: entry {e} differs for coefficients {c:?}"
                    );
                }
            }
            let norm = one_norm(&hermitian_from_coeffs(&basis, &c).scale(Complex64::I));
            let squarings = if norm > 1.0 {
                norm.log2().ceil() as usize + 1
            } else {
                0
            };
            seen_squarings[squarings.min(6)] += 1;
        }
        assert_eq!(seen_squarings[1], 0);
        assert!(
            seen_squarings
                .iter()
                .enumerate()
                .all(|(k, &n)| k == 1 || n > 0),
            "squaring counts covered: {seen_squarings:?}"
        );
        // all-zero coefficients skip every basis term: exp(0) = I
        let zero = expm_i_su4(&fixed, &[0.0; 15]);
        assert_eq!(&zero[..], expm_i_hermitian(&Matrix::zeros(4, 4)).data());
    }

    #[test]
    fn expm_inverse_property() {
        let h = pauli_x().kron(&pauli_z()).scale_re(1.3);
        let u = expm_i_hermitian(&h);
        let u_inv = expm(&h.scale(c64(0.0, -1.0)));
        assert!(u.matmul(&u_inv).approx_eq(&Matrix::identity(4), 1e-11));
    }
}
