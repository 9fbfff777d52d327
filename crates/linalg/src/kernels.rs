//! Gate-application kernels.
//!
//! These are the innermost loops of every simulator and of unitary
//! construction during synthesis, so they never materialize the embedded
//! `2^n x 2^n` gate matrix. A one-qubit gate applied to a statevector costs
//! `O(2^n)`; applied to a `2^n x 2^n` matrix it costs `O(4^n)` — always a
//! factor `2^n` cheaper than forming the embedding and multiplying.
//!
//! Conventions used across the whole workspace:
//! * qubit `0` is the **least significant bit** of a basis index;
//! * a two-qubit gate on `(a, b)` uses small-matrix index `s = (bit_a << 1) | bit_b`,
//!   i.e. the *first* listed qubit is the high bit of the 4x4 matrix.

use crate::complex::Complex64;
use crate::matrix::Matrix;

/// Expands basis-enumeration index `i` (over states with qubit `q` = 0) into
/// the actual basis index by inserting a `0` bit at position `q`.
#[inline(always)]
fn insert_zero_bit(i: usize, q: usize) -> usize {
    let low = i & ((1 << q) - 1);
    ((i >> q) << (q + 1)) | low
}

/// What a prescaled sweep ([`sweep_1q`], [`sweep_2q`]) does with the
/// amplitudes `U (pre * psi)` it computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Write them back in place and return their squared norm.
    Store,
    /// Return their squared norm only; the state is left untouched.
    NormOnly,
}

/// One pass of the trajectory shot loop for a one-qubit gate `u` on qubit
/// `q`: `u (pre * psi)` is formed, its squared norm is returned and, with
/// [`Sweep::Store`], it is written back.
///
/// `pre` is a renormalization carried over from an earlier noise event. It
/// is multiplied into the coefficients once per call (`u[k] * pre`), not
/// into each amplitude, and every complex multiply-add is two fused
/// multiply-adds (see the private `cfma`). The stores therefore agree with
/// scaling first and then [`apply_1q_vec_blocked`] to rounding, not bit
/// for bit. The returned norm
/// accumulates, fused, into four structural lanes `[re0, im0, re1, im1]`
/// reduced as `(l0 + l2) + (l1 + l3)`, the shape of the AVX2 accumulator,
/// so the dispatched kernel and [`sweep_1q_scalar`] agree bit for bit. See
/// [`crate::simd`].
pub fn sweep_1q(
    state: &mut [Complex64],
    q: usize,
    u: &[Complex64; 4],
    pre: f64,
    mode: Sweep,
) -> f64 {
    (crate::simd::kernel_dispatch().sweep_1q)(state, q, u, pre, mode)
}

/// [`sweep_1q`] for a two-qubit gate `u` on `(a, b)` (first listed qubit =
/// high bit): the same prescaled coefficients and fused multiply-adds, in
/// [`apply_2q_vec_blocked`]'s traversal, and the same four-lane norm.
/// Dispatched the same way, with [`sweep_2q_scalar`] as the fallback.
pub fn sweep_2q(
    state: &mut [Complex64],
    a: usize,
    b: usize,
    u: &[Complex64; 16],
    pre: f64,
    mode: Sweep,
) -> f64 {
    (crate::simd::kernel_dispatch().sweep_2q)(state, a, b, u, pre, mode)
}

/// The sweeps' complex multiply-add `acc + v * w`, as two fused
/// multiply-adds per part with the real-part product first:
/// `re = v.im * (-w.im) + (v.re * w.re + acc.re)`,
/// `im = v.re * w.im + (v.im * w.re + acc.im)`, each `+` fused with the
/// product before it. The AVX2 sweeps form it the same way, two
/// `_mm256_fmadd_pd` on `[-w.im, w.im]`-folded coefficients.
#[inline(always)]
fn cfma(acc: Complex64, v: Complex64, w: Complex64) -> Complex64 {
    Complex64::new(
        v.im.mul_add(-w.im, v.re.mul_add(w.re, acc.re)),
        v.re.mul_add(w.im, v.im.mul_add(w.re, acc.im)),
    )
}

/// `lanes[k] + x.re^2` and `lanes[k + 1] + x.im^2`, each fused: one
/// amplitude's share of a sweep's four-lane norm.
#[inline(always)]
fn norm_fma(lanes: &mut [f64; 4], k: usize, x: Complex64) {
    lanes[k] = x.re.mul_add(x.re, lanes[k]);
    lanes[k + 1] = x.im.mul_add(x.im, lanes[k + 1]);
}

/// Portable [`sweep_1q`]: blocked two-stream traversal in the AVX2 kernel's
/// order, with its prescaled coefficients, fused multiply-adds and four
/// structural lanes.
///
/// A portable x86-64 build compiles `f64::mul_add` to a library call. On a
/// host with FMA the body runs instead in a copy compiled with the `fma`
/// target feature, where each `mul_add` is one instruction; both round
/// once per fused multiply-add, so the bits are the same either way.
pub fn sweep_1q_scalar(
    state: &mut [Complex64],
    q: usize,
    u: &[Complex64; 4],
    pre: f64,
    mode: Sweep,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the host supports FMA, the one feature the copy enables
        return unsafe { sweep_1q_scalar_fma(state, q, u, pre, mode) };
    }
    sweep_1q_scalar_body(state, q, u, pre, mode)
}

/// [`sweep_1q_scalar`]'s body compiled with hardware FMA. Caller must
/// ensure the host supports FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn sweep_1q_scalar_fma(
    state: &mut [Complex64],
    q: usize,
    u: &[Complex64; 4],
    pre: f64,
    mode: Sweep,
) -> f64 {
    sweep_1q_scalar_body(state, q, u, pre, mode)
}

#[inline(always)]
fn sweep_1q_scalar_body(
    state: &mut [Complex64],
    q: usize,
    u: &[Complex64; 4],
    pre: f64,
    mode: Sweep,
) -> f64 {
    let dim = state.len();
    debug_assert!(dim.is_power_of_two());
    debug_assert!(1 << q < dim, "qubit index out of range");
    let store = mode == Sweep::Store;
    let mask = 1usize << q;
    let w = u.map(|w| w * pre);
    let z = Complex64::ZERO;
    let mut lanes = [0.0f64; 4];
    if mask == 1 {
        // one (a, b) pair per vector: lanes hold (x.re^2, x.im^2, y.re^2, y.im^2)
        let mut i = 0usize;
        while i < dim {
            let (a, b) = (state[i], state[i + 1]);
            let x = cfma(cfma(z, a, w[0]), b, w[1]);
            let y = cfma(cfma(z, a, w[2]), b, w[3]);
            norm_fma(&mut lanes, 0, x);
            norm_fma(&mut lanes, 2, y);
            if store {
                state[i] = x;
                state[i + 1] = y;
            }
            i += 2;
        }
    } else {
        // two pairs per vector step: lanes hold (pair0.re^2, pair0.im^2,
        // pair1.re^2, pair1.im^2), x-outputs then y-outputs
        let stride = mask << 1;
        let mut base = 0usize;
        while base < dim {
            let mut off = 0usize;
            while off < mask {
                let i0 = base + off;
                let i1 = i0 | mask;
                let (a0, a1) = (state[i0], state[i0 + 1]);
                let (b0, b1) = (state[i1], state[i1 + 1]);
                let x0 = cfma(cfma(z, a0, w[0]), b0, w[1]);
                let x1 = cfma(cfma(z, a1, w[0]), b1, w[1]);
                norm_fma(&mut lanes, 0, x0);
                norm_fma(&mut lanes, 2, x1);
                let y0 = cfma(cfma(z, a0, w[2]), b0, w[3]);
                let y1 = cfma(cfma(z, a1, w[2]), b1, w[3]);
                norm_fma(&mut lanes, 0, y0);
                norm_fma(&mut lanes, 2, y1);
                if store {
                    state[i0] = x0;
                    state[i0 + 1] = x1;
                    state[i1] = y0;
                    state[i1 + 1] = y1;
                }
                off += 2;
            }
            base += stride;
        }
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// Portable [`sweep_2q`]: blocked traversal in the AVX2 kernel's order,
/// with the same prescaled coefficients, fused multiply-adds and
/// structural four-lane accumulation as [`sweep_1q_scalar`], and the same
/// FMA-compiled copy on hosts that have it.
pub fn sweep_2q_scalar(
    state: &mut [Complex64],
    a: usize,
    b: usize,
    u: &[Complex64; 16],
    pre: f64,
    mode: Sweep,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the host supports FMA, the one feature the copy enables
        return unsafe { sweep_2q_scalar_fma(state, a, b, u, pre, mode) };
    }
    sweep_2q_scalar_body(state, a, b, u, pre, mode)
}

/// [`sweep_2q_scalar`]'s body compiled with hardware FMA. Caller must
/// ensure the host supports FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn sweep_2q_scalar_fma(
    state: &mut [Complex64],
    a: usize,
    b: usize,
    u: &[Complex64; 16],
    pre: f64,
    mode: Sweep,
) -> f64 {
    sweep_2q_scalar_body(state, a, b, u, pre, mode)
}

#[inline(always)]
fn sweep_2q_scalar_body(
    state: &mut [Complex64],
    a: usize,
    b: usize,
    u: &[Complex64; 16],
    pre: f64,
    mode: Sweep,
) -> f64 {
    let dim = state.len();
    debug_assert!(a != b, "two-qubit gate needs distinct qubits");
    debug_assert!((1 << a) < dim && (1 << b) < dim, "qubit index out of range");
    let store = mode == Sweep::Store;
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let ma = 1usize << a;
    let mb = 1usize << b;
    let mlo = 1usize << lo;
    let mhi = 1usize << hi;
    let w = u.map(|w| w * pre);
    let mut lanes = [0.0f64; 4];
    if mlo >= 2 {
        // two quads per vector step: lane pairs hold quad0 / quad1 outputs
        let mut base_hi = 0usize;
        while base_hi < dim {
            let mut base_mid = base_hi;
            while base_mid < base_hi + mhi {
                let mut off = 0usize;
                while off < mlo {
                    let base = base_mid + off;
                    let idx0 = [base, base | mb, base | ma, base | ma | mb];
                    let idx1 = idx0.map(|i| i + 1);
                    let amp0 = idx0.map(|i| state[i]);
                    let amp1 = idx1.map(|i| state[i]);
                    for r in 0..4 {
                        let mut acc0 = Complex64::ZERO;
                        let mut acc1 = Complex64::ZERO;
                        for c in 0..4 {
                            acc0 = cfma(acc0, amp0[c], w[r * 4 + c]);
                            acc1 = cfma(acc1, amp1[c], w[r * 4 + c]);
                        }
                        norm_fma(&mut lanes, 0, acc0);
                        norm_fma(&mut lanes, 2, acc1);
                        if store {
                            state[idx0[r]] = acc0;
                            state[idx1[r]] = acc1;
                        }
                    }
                    off += 2;
                }
                base_mid += mlo << 1;
            }
            base_hi += mhi << 1;
        }
    } else {
        // lo == 0: one quad spans two contiguous pairs; rows are visited in
        // memory order (the small-index order of adjacent slots depends on
        // which of a/b is qubit 0), two rows per accumulation step
        let ms: [usize; 4] = if mb == 1 { [0, 1, 2, 3] } else { [0, 2, 1, 3] };
        let mut base_hi = 0usize;
        while base_hi < dim {
            let mut base = base_hi;
            while base < base_hi + mhi {
                let idx = [base, base | mb, base | ma, base | ma | mb];
                let amp = idx.map(|i| state[i]);
                for half in 0..2 {
                    let r0 = ms[2 * half];
                    let r1 = ms[2 * half + 1];
                    let mut acc0 = Complex64::ZERO;
                    let mut acc1 = Complex64::ZERO;
                    for c in 0..4 {
                        acc0 = cfma(acc0, amp[c], w[r0 * 4 + c]);
                        acc1 = cfma(acc1, amp[c], w[r1 * 4 + c]);
                    }
                    norm_fma(&mut lanes, 0, acc0);
                    norm_fma(&mut lanes, 2, acc1);
                    if store {
                        state[idx[r0]] = acc0;
                        state[idx[r1]] = acc1;
                    }
                }
                base += 2;
            }
            base_hi += mhi << 1;
        }
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// Applies a one-qubit gate `u` (row-major 2x2) to qubit `q` of a
/// statevector. Cache-friendly: instead of recomputing the bit-insert per
/// index pair, it iterates blocks of `2^q` contiguous amplitudes so the
/// inner loop walks two contiguous streams. Identical results to the plain
/// per-pair kernel its tests use as an oracle (same operations in the same
/// order per pair).
///
/// Dispatches to the AVX2 kernel when the host supports it and to
/// [`apply_1q_vec_blocked_scalar`] otherwise; the two are bit-identical
/// (see [`crate::simd`]).
pub fn apply_1q_vec_blocked(state: &mut [Complex64], q: usize, u: &[Complex64; 4]) {
    (crate::simd::kernel_dispatch().apply_1q_blocked)(state, q, u)
}

/// Applies a two-qubit gate `u` (row-major 4x4) to qubits `(a, b)` of a
/// statevector, with `a` the high bit of the small index. Cache-friendly:
/// three nested loops over (high-bit block, mid block, contiguous low
/// offsets), so the innermost loop reads and writes four contiguous
/// amplitude streams — the layout the trajectory backend's fused 2q
/// matrices are applied with. Identical results to the plain per-quad
/// kernel its tests use as an oracle.
///
/// Dispatched like [`apply_1q_vec_blocked`], with
/// [`apply_2q_vec_blocked_scalar`] as the portable fallback.
pub fn apply_2q_vec_blocked(state: &mut [Complex64], a: usize, b: usize, u: &[Complex64; 16]) {
    (crate::simd::kernel_dispatch().apply_2q_blocked)(state, a, b, u)
}

/// Scales every amplitude by the real factor `s`: the trajectory shot
/// loop's last renormalization, paid at most once per shot (every earlier
/// one rides along in the next [`sweep_1q`]/[`sweep_2q`]). Elementwise (`re*s`, `im*s` per amplitude, no
/// reduction), so the AVX2 and scalar paths are trivially bit-identical.
///
/// Dispatched like [`apply_1q_vec_blocked`], with [`scale_scalar`] as the
/// portable fallback.
pub fn scale(state: &mut [Complex64], s: f64) {
    (crate::simd::kernel_dispatch().scale)(state, s)
}

/// Portable [`scale`] implementation.
pub fn scale_scalar(state: &mut [Complex64], s: f64) {
    for z in state.iter_mut() {
        *z *= s;
    }
}

/// Portable [`apply_1q_vec_blocked`] implementation.
pub fn apply_1q_vec_blocked_scalar(state: &mut [Complex64], q: usize, u: &[Complex64; 4]) {
    let dim = state.len();
    debug_assert!(dim.is_power_of_two());
    debug_assert!(1 << q < dim, "qubit index out of range");
    let mask = 1usize << q;
    let stride = mask << 1;
    let mut base = 0usize;
    while base < dim {
        for off in 0..mask {
            let i0 = base + off;
            let i1 = i0 | mask;
            let a = state[i0];
            let b = state[i1];
            state[i0] = a * u[0] + b * u[1];
            state[i1] = a * u[2] + b * u[3];
        }
        base += stride;
    }
}

/// Portable [`apply_2q_vec_blocked`] implementation.
pub fn apply_2q_vec_blocked_scalar(
    state: &mut [Complex64],
    a: usize,
    b: usize,
    u: &[Complex64; 16],
) {
    let dim = state.len();
    debug_assert!(a != b, "two-qubit gate needs distinct qubits");
    debug_assert!((1 << a) < dim && (1 << b) < dim, "qubit index out of range");
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let ma = 1usize << a;
    let mb = 1usize << b;
    let mlo = 1usize << lo;
    let mhi = 1usize << hi;
    let mut base_hi = 0usize;
    while base_hi < dim {
        let mut base_mid = base_hi;
        while base_mid < base_hi + mhi {
            for off in 0..mlo {
                let base = base_mid + off;
                let idx = [base, base | mb, base | ma, base | ma | mb];
                let amp = [state[idx[0]], state[idx[1]], state[idx[2]], state[idx[3]]];
                for (r, &out_i) in idx.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (c, &amp_c) in amp.iter().enumerate() {
                        acc = acc.mul_add(u[r * 4 + c], amp_c);
                    }
                    state[out_i] = acc;
                }
            }
            base_mid += mlo << 1;
        }
        base_hi += mhi << 1;
    }
}

/// The qubit of a row-major matrix's flat data that row qubit `q` is:
/// rows are `cols` entries apart, so row bit `q` is flat bit
/// `q + log2(cols)`.
///
/// # Panics
/// Panics unless the row and column counts are powers of two and `2^q` is
/// below the row count.
fn row_qubit(mat: &Matrix, q: usize) -> usize {
    let (rows, cols) = (mat.rows(), mat.cols());
    assert!(
        rows.is_power_of_two() && cols.is_power_of_two(),
        "matrix gate needs power-of-two rows and columns, got {rows}x{cols}"
    );
    assert!(q < rows.trailing_zeros() as usize, "qubit {q} out of range");
    q + cols.trailing_zeros() as usize
}

/// Left-multiplies a matrix by an embedded one-qubit gate: `M <- U_embed * M`.
///
/// The row index of `mat` is the quantum index; every column is transformed
/// like a statevector. Used both for building circuit unitaries (starting
/// from the identity) and for the `U rho` half of a density-matrix update.
///
/// The flat row-major data is a statevector whose qubit `q + log2(cols)`
/// is the row qubit, so this is [`apply_1q_vec_blocked`] on it, through the
/// dispatched kernel table: every entry is `a * u0 + b * u1` of its row
/// pair, as in a row-by-row loop. Both counts must be powers of two.
pub fn apply_1q_mat_left(mat: &mut Matrix, q: usize, u: &[Complex64; 4]) {
    let bit = row_qubit(mat, q);
    apply_1q_vec_blocked(mat.data_mut(), bit, u)
}

/// Left-multiplies a matrix by an embedded two-qubit gate: `M <- U_embed * M`.
///
/// [`apply_2q_vec_blocked`] on the flat data, as [`apply_1q_mat_left`] maps
/// it; every entry keeps its four-term `mul_add` chain.
pub fn apply_2q_mat_left(mat: &mut Matrix, a: usize, b: usize, u: &[Complex64; 16]) {
    assert_ne!(a, b, "two-qubit gate needs distinct qubits");
    let (fa, fb) = (row_qubit(mat, a), row_qubit(mat, b));
    apply_2q_vec_blocked(mat.data_mut(), fa, fb, u)
}

/// Right-multiplies a matrix by the adjoint of an embedded one-qubit gate:
/// `M <- M * U_embed^dagger`. Combined with [`apply_1q_mat_left`] this gives
/// the density-matrix conjugation `rho <- U rho U^dagger`; it is also the
/// suffix-chain update of the instantiation objective.
///
/// Dispatched like [`apply_1q_vec_blocked`], with
/// [`apply_1q_mat_right_dag_scalar`] as the portable fallback; each entry is
/// written independently, so the two are bit-identical.
pub fn apply_1q_mat_right_dag(mat: &mut Matrix, q: usize, u: &[Complex64; 4]) {
    (crate::simd::kernel_dispatch().apply_1q_mat_right_dag)(mat, q, u)
}

/// Portable [`apply_1q_mat_right_dag`] implementation.
pub fn apply_1q_mat_right_dag_scalar(mat: &mut Matrix, q: usize, u: &[Complex64; 4]) {
    let rows = mat.rows();
    let cols = mat.cols();
    debug_assert!(cols.is_power_of_two());
    let mask = 1usize << q;
    let data = mat.data_mut();
    for row in 0..rows {
        let off = row * cols;
        for j in 0..cols / 2 {
            let j0 = insert_zero_bit(j, q);
            let j1 = j0 | mask;
            let a = data[off + j0];
            let b = data[off + j1];
            // (M U^dag)[.,j0] = M[.,j0] conj(u00) + M[.,j1] conj(u01)
            data[off + j0] = a * u[0].conj() + b * u[1].conj();
            data[off + j1] = a * u[2].conj() + b * u[3].conj();
        }
    }
}

/// Out-of-place variant of [`apply_1q_mat_right_dag`]: `dst <- src *
/// U_embed^dagger`, leaving `src` untouched. Shapes must match, with a
/// power-of-two column count. The instantiation objective builds its suffix
/// chain with it, each product written straight into the next slot.
///
/// Dispatched like [`apply_1q_vec_blocked`], with
/// [`apply_1q_mat_right_dag_into_scalar`] as the portable fallback; each
/// entry is written independently, so the two are bit-identical.
pub fn apply_1q_mat_right_dag_into(dst: &mut Matrix, src: &Matrix, q: usize, u: &[Complex64; 4]) {
    (crate::simd::kernel_dispatch().apply_1q_mat_right_dag_into)(dst, src, q, u)
}

/// Portable [`apply_1q_mat_right_dag_into`] implementation.
pub fn apply_1q_mat_right_dag_into_scalar(
    dst: &mut Matrix,
    src: &Matrix,
    q: usize,
    u: &[Complex64; 4],
) {
    let rows = src.rows();
    let cols = src.cols();
    debug_assert_eq!((dst.rows(), dst.cols()), (rows, cols));
    debug_assert!(cols.is_power_of_two());
    let mask = 1usize << q;
    let s = src.data();
    let d = dst.data_mut();
    for row in 0..rows {
        let off = row * cols;
        for j in 0..cols / 2 {
            let j0 = insert_zero_bit(j, q);
            let j1 = j0 | mask;
            let a = s[off + j0];
            let b = s[off + j1];
            d[off + j0] = a * u[0].conj() + b * u[1].conj();
            d[off + j1] = a * u[2].conj() + b * u[3].conj();
        }
    }
}

/// Right-multiplies a matrix by the adjoint of an embedded two-qubit gate:
/// `M <- M * U_embed^dagger`.
pub fn apply_2q_mat_right_dag(mat: &mut Matrix, a: usize, b: usize, u: &[Complex64; 16]) {
    let rows = mat.rows();
    let cols = mat.cols();
    debug_assert!(a != b);
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let ma = 1usize << a;
    let mb = 1usize << b;
    let data = mat.data_mut();
    for row in 0..rows {
        let off = row * cols;
        for j in 0..cols / 4 {
            let base = insert_zero_bit(insert_zero_bit(j, lo), hi);
            let idx = [base, base | mb, base | ma, base | ma | mb];
            let amp = [
                data[off + idx[0]],
                data[off + idx[1]],
                data[off + idx[2]],
                data[off + idx[3]],
            ];
            for (ci, &col_i) in idx.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for (ki, &amp_k) in amp.iter().enumerate() {
                    acc = acc.mul_add(u[ci * 4 + ki].conj(), amp_k);
                }
                data[off + col_i] = acc;
            }
        }
    }
}

/// Out-of-place variant of [`apply_1q_mat_left`]: `dst <- U_embed * src`,
/// leaving `src` untouched. Shapes must match, with power-of-two row and
/// column counts. Used by the allocation-free
/// instantiation workspace, where prefix products must stay readable while
/// the next product is formed.
///
/// Dispatched like [`apply_1q_vec_blocked`], with
/// [`apply_1q_mat_left_into_scalar`] as the portable fallback; each entry is
/// written independently, so the two are bit-identical.
pub fn apply_1q_mat_left_into(dst: &mut Matrix, src: &Matrix, q: usize, u: &[Complex64; 4]) {
    (crate::simd::kernel_dispatch().apply_1q_mat_left_into)(dst, src, q, u)
}

/// Portable [`apply_1q_mat_left_into`] implementation.
pub fn apply_1q_mat_left_into_scalar(dst: &mut Matrix, src: &Matrix, q: usize, u: &[Complex64; 4]) {
    let rows = src.rows();
    let cols = src.cols();
    debug_assert_eq!((dst.rows(), dst.cols()), (rows, cols));
    let mask = 1usize << q;
    let s = src.data();
    let d = dst.data_mut();
    for i in 0..rows / 2 {
        let r0 = insert_zero_bit(i, q) * cols;
        let r1 = r0 + mask * cols;
        for j in 0..cols {
            let a = s[r0 + j];
            let b = s[r1 + j];
            d[r0 + j] = a * u[0] + b * u[1];
            d[r1 + j] = a * u[2] + b * u[3];
        }
    }
}

/// The three U3 gradient traces `Tr(L * dG_embed * A)` of one instantiation
/// gate on qubit `q`, for `dg = [dG/dtheta, dG/dphi, dG/dlambda]` (row-major
/// 2x2 each), in one pass over `(i, j)` with no scratch matrix.
///
/// Entry `(j, i)` of `dG_embed * A` is formed on the fly with the expression
/// [`apply_1q_mat_left_into`] uses and folded with `L[i, j]` into that
/// partial's accumulator by [`Complex64::mul_add`], in i-then-j order, as a
/// scratch-then-trace pass does. The U3 partials' structural zeros are
/// skipped, and their entries are never read: `dG/dphi`'s first row is zero,
/// so it adds nothing at `j` with bit `q` clear, and `dG/dlambda`'s first
/// column is zero, so each of its entries is a single product. Dropping
/// those terms is exact for finite values: every accumulator starts at
/// `+0.0`, so it never holds `-0.0`, and adding a product that is zero
/// leaves it unchanged.
///
/// Dispatched like [`apply_1q_vec_blocked`], with
/// [`u3_partial_traces_scalar`] as the portable fallback. The vector kernel
/// forms the products across lanes but keeps each accumulator's chain in
/// this order, so the two are bit-identical.
pub fn u3_partial_traces(
    l: &Matrix,
    a: &Matrix,
    q: usize,
    dg: &[[Complex64; 4]; 3],
) -> [Complex64; 3] {
    (crate::simd::kernel_dispatch().u3_partial_traces)(l, a, q, dg)
}

/// Portable [`u3_partial_traces`] implementation.
pub fn u3_partial_traces_scalar(
    l: &Matrix,
    a: &Matrix,
    q: usize,
    dg: &[[Complex64; 4]; 3],
) -> [Complex64; 3] {
    let n = l.rows();
    debug_assert_eq!((l.cols(), a.rows(), a.cols()), (n, n, n));
    let mask = 1usize << q;
    let [dt, dp, dl] = dg;
    let (mut at, mut ap, mut al) = (Complex64::ZERO, Complex64::ZERO, Complex64::ZERO);
    for i in 0..n {
        for j in 0..n {
            let lij = l[(i, j)];
            if j & mask == 0 {
                let (x, y) = (a[(j, i)], a[(j | mask, i)]);
                at = at.mul_add(lij, x * dt[0] + y * dt[1]);
                al = al.mul_add(lij, y * dl[1]);
            } else {
                let (x, y) = (a[(j ^ mask, i)], a[(j, i)]);
                at = at.mul_add(lij, x * dt[2] + y * dt[3]);
                ap = ap.mul_add(lij, x * dp[2] + y * dp[3]);
                al = al.mul_add(lij, y * dl[3]);
            }
        }
    }
    [at, ap, al]
}

/// Portable [`Matrix::matmul_trace`]: `Tr(L * R)` as one `mul_add` chain
/// per diagonal entry `i` over `k`, skipping zero entries `L[i, k]`, then
/// the entries summed in `i` order from zero. `L` is `n x m` and `R` is
/// `m x n`.
pub fn matmul_trace_scalar(l: &Matrix, r: &Matrix) -> Complex64 {
    let (n, m) = (l.rows(), l.cols());
    debug_assert_eq!((r.rows(), r.cols()), (m, n));
    let (ld, rd) = (l.data(), r.data());
    (0..n)
        .map(|i| {
            let mut acc = Complex64::ZERO;
            for k in 0..m {
                let a = ld[i * m + k];
                if a == Complex64::ZERO {
                    continue;
                }
                acc = acc.mul_add(a, rd[k * n + i]);
            }
            acc
        })
        .sum()
}

/// Accumulates the conjugation of `src` by an embedded one-qubit gate:
/// `dst += U_embed * src * U_embed^dagger`, with no intermediate matrix.
/// This is one Kraus term `K rho K^dagger` of a channel sum — the 2x2
/// sub-block `T = u S u^dagger` is formed in registers per (row-pair,
/// column-pair) and added straight into `dst`.
pub fn accum_conj_1q(dst: &mut Matrix, src: &Matrix, q: usize, u: &[Complex64; 4]) {
    let rows = src.rows();
    let cols = src.cols();
    debug_assert_eq!((dst.rows(), dst.cols()), (rows, cols));
    let mask = 1usize << q;
    let s = src.data();
    let d = dst.data_mut();
    for i in 0..rows / 2 {
        let r0 = insert_zero_bit(i, q);
        let r1 = r0 | mask;
        for j in 0..cols / 2 {
            let c0 = insert_zero_bit(j, q);
            let c1 = c0 | mask;
            let s00 = s[r0 * cols + c0];
            let s01 = s[r0 * cols + c1];
            let s10 = s[r1 * cols + c0];
            let s11 = s[r1 * cols + c1];
            // A = u * S
            let a00 = u[0] * s00 + u[1] * s10;
            let a01 = u[0] * s01 + u[1] * s11;
            let a10 = u[2] * s00 + u[3] * s10;
            let a11 = u[2] * s01 + u[3] * s11;
            // dst += A * u^dagger   ((u^dag)[k][c] = conj(u[c*2+k]))
            d[r0 * cols + c0] += a00 * u[0].conj() + a01 * u[1].conj();
            d[r0 * cols + c1] += a00 * u[2].conj() + a01 * u[3].conj();
            d[r1 * cols + c0] += a10 * u[0].conj() + a11 * u[1].conj();
            d[r1 * cols + c1] += a10 * u[2].conj() + a11 * u[3].conj();
        }
    }
}

/// Accumulates the conjugation of `src` by an embedded two-qubit gate:
/// `dst += U_embed * src * U_embed^dagger` (one 4x4 Kraus term of a channel).
pub fn accum_conj_2q(dst: &mut Matrix, src: &Matrix, a: usize, b: usize, u: &[Complex64; 16]) {
    let rows = src.rows();
    let cols = src.cols();
    debug_assert_eq!((dst.rows(), dst.cols()), (rows, cols));
    debug_assert!(a != b);
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let ma = 1usize << a;
    let mb = 1usize << b;
    let s = src.data();
    let d = dst.data_mut();
    for i in 0..rows / 4 {
        let rbase = insert_zero_bit(insert_zero_bit(i, lo), hi);
        let ridx = [rbase, rbase | mb, rbase | ma, rbase | ma | mb];
        for j in 0..cols / 4 {
            let cbase = insert_zero_bit(insert_zero_bit(j, lo), hi);
            let cidx = [cbase, cbase | mb, cbase | ma, cbase | ma | mb];
            let mut sblk = [[Complex64::ZERO; 4]; 4];
            for (r, &ri) in ridx.iter().enumerate() {
                for (c, &ci) in cidx.iter().enumerate() {
                    sblk[r][c] = s[ri * cols + ci];
                }
            }
            // A = u * S
            let mut ablk = [[Complex64::ZERO; 4]; 4];
            for (r, arow) in ablk.iter_mut().enumerate() {
                for (c, aval) in arow.iter_mut().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (k, srow) in sblk.iter().enumerate() {
                        acc = acc.mul_add(u[r * 4 + k], srow[c]);
                    }
                    *aval = acc;
                }
            }
            // dst += A * u^dagger
            for (r, &ri) in ridx.iter().enumerate() {
                for (c, &ci) in cidx.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (k, &aval) in ablk[r].iter().enumerate() {
                        acc = acc.mul_add(u[c * 4 + k].conj(), aval);
                    }
                    d[ri * cols + ci] += acc;
                }
            }
        }
    }
}

/// Builds the full `2^n x 2^n` embedding of a one-qubit gate (test oracle and
/// occasional cold-path use; hot paths use the `apply_*` kernels instead).
pub fn embed_1q(n: usize, q: usize, u: &[Complex64; 4]) -> Matrix {
    let mut m = Matrix::identity(1 << n);
    apply_1q_mat_left(&mut m, q, u);
    m
}

/// Builds the full `2^n x 2^n` embedding of a two-qubit gate.
pub fn embed_2q(n: usize, a: usize, b: usize, u: &[Complex64; 16]) -> Matrix {
    let mut m = Matrix::identity(1 << n);
    apply_2q_mat_left(&mut m, a, b, u);
    m
}

/// Copies a 2x2 [`Matrix`] into the fixed-size array the kernels take.
pub fn mat2_to_array(m: &Matrix) -> [Complex64; 4] {
    assert_eq!((m.rows(), m.cols()), (2, 2), "expected 2x2 matrix");
    let d = m.data();
    [d[0], d[1], d[2], d[3]]
}

/// Copies a 4x4 [`Matrix`] into the fixed-size array the kernels take.
pub fn mat4_to_array(m: &Matrix) -> [Complex64; 16] {
    assert_eq!((m.rows(), m.cols()), (4, 4), "expected 4x4 matrix");
    let mut out = [Complex64::ZERO; 16];
    out.copy_from_slice(m.data());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::matrix::{pauli_x, pauli_y, pauli_z};

    // The unblocked reference kernels: one bit-insert per amplitude pair.
    // They are the oracle the blocked and SIMD kernels are tested against.

    /// Applies a one-qubit gate `u` (row-major 2x2) to qubit `q` of a statevector.
    fn apply_1q_vec(state: &mut [Complex64], q: usize, u: &[Complex64; 4]) {
        let dim = state.len();
        debug_assert!(dim.is_power_of_two());
        debug_assert!(1 << q < dim, "qubit index out of range");
        let mask = 1usize << q;
        for i in 0..dim / 2 {
            let i0 = insert_zero_bit(i, q);
            let i1 = i0 | mask;
            let a = state[i0];
            let b = state[i1];
            state[i0] = a * u[0] + b * u[1];
            state[i1] = a * u[2] + b * u[3];
        }
    }

    /// Applies a two-qubit gate `u` (row-major 4x4) to qubits `(a, b)` of a
    /// statevector, with `a` the high bit of the small index.
    fn apply_2q_vec(state: &mut [Complex64], a: usize, b: usize, u: &[Complex64; 16]) {
        let dim = state.len();
        debug_assert!(a != b, "two-qubit gate needs distinct qubits");
        debug_assert!((1 << a) < dim && (1 << b) < dim, "qubit index out of range");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let ma = 1usize << a;
        let mb = 1usize << b;
        for i in 0..dim / 4 {
            let base = insert_zero_bit(insert_zero_bit(i, lo), hi);
            let idx = [base, base | mb, base | ma, base | ma | mb];
            let amp = [state[idx[0]], state[idx[1]], state[idx[2]], state[idx[3]]];
            for (r, &out_i) in idx.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for (c, &amp_c) in amp.iter().enumerate() {
                    acc = acc.mul_add(u[r * 4 + c], amp_c);
                }
                state[out_i] = acc;
            }
        }
    }

    /// The row-by-row loop [`apply_1q_mat_left`] ran before it moved onto
    /// the blocked statevector kernels: the matrix-gate oracle.
    fn apply_1q_mat_left_oracle(mat: &mut Matrix, q: usize, u: &[Complex64; 4]) {
        let rows = mat.rows();
        let cols = mat.cols();
        let mask = 1usize << q;
        let data = mat.data_mut();
        for i in 0..rows / 2 {
            let r0 = insert_zero_bit(i, q) * cols;
            let r1 = r0 + mask * cols;
            for j in 0..cols {
                let a = data[r0 + j];
                let b = data[r1 + j];
                data[r0 + j] = a * u[0] + b * u[1];
                data[r1 + j] = a * u[2] + b * u[3];
            }
        }
    }

    /// The row-by-row loop [`apply_2q_mat_left`] ran before it moved onto
    /// the blocked statevector kernels: the matrix-gate oracle.
    fn apply_2q_mat_left_oracle(mat: &mut Matrix, a: usize, b: usize, u: &[Complex64; 16]) {
        let rows = mat.rows();
        let cols = mat.cols();
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let ma = 1usize << a;
        let mb = 1usize << b;
        let data = mat.data_mut();
        for i in 0..rows / 4 {
            let base = insert_zero_bit(insert_zero_bit(i, lo), hi);
            let r = [
                base * cols,
                (base | mb) * cols,
                (base | ma) * cols,
                (base | ma | mb) * cols,
            ];
            for j in 0..cols {
                let amp = [
                    data[r[0] + j],
                    data[r[1] + j],
                    data[r[2] + j],
                    data[r[3] + j],
                ];
                for (ri, &row_off) in r.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (ci, &amp_c) in amp.iter().enumerate() {
                        acc = acc.mul_add(u[ri * 4 + ci], amp_c);
                    }
                    data[row_off + j] = acc;
                }
            }
        }
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, ctx: &str) {
        for (e, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                (x.re.to_bits(), x.im.to_bits()),
                (y.re.to_bits(), y.im.to_bits()),
                "entry {e} differs: {ctx}"
            );
        }
    }

    #[test]
    fn matrix_gates_are_bit_identical_to_the_row_loop_oracles() {
        use crate::random::{haar_unitary, Rng, SplitMix64};
        use crate::simd::KernelDispatch;
        let mut rng = SplitMix64::seed_from_u64(0x0A7E);
        // entries with exact zeros of both signs one time in three
        let sparse = |rng: &mut SplitMix64| {
            let mut part = || match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            };
            c64(part(), part())
        };
        // a CX whose zeros carry both signs, so signed zeros meet the
        // skipped-nothing mul_add chains
        let mut cx_like = cnot_gate();
        for (e, z) in cx_like.iter_mut().enumerate() {
            if *z == Complex64::ZERO && e % 3 == 0 {
                *z = c64(-0.0, if e % 2 == 0 { -0.0 } else { 0.0 });
            }
        }
        let x_like = [
            c64(-0.0, 0.0),
            Complex64::ONE,
            Complex64::ONE,
            c64(0.0, -0.0),
        ];
        let tables: Vec<&KernelDispatch> = std::iter::once(KernelDispatch::scalar())
            .chain(KernelDispatch::simd())
            .collect();
        for n in 1..=5usize {
            let dim = 1usize << n;
            let m: Vec<Complex64> = (0..dim * dim).map(|_| sparse(&mut rng)).collect();
            let m = Matrix::from_vec(dim, dim, m);
            let haar2 = mat2_to_array(&haar_unitary(2, &mut rng));
            for q in 0..n {
                for (name, u) in [("x-like", &x_like), ("haar", &haar2)] {
                    let mut want = m.clone();
                    apply_1q_mat_left_oracle(&mut want, q, u);
                    let mut got = m.clone();
                    apply_1q_mat_left(&mut got, q, u);
                    assert_bits_eq(&got, &want, &format!("dispatched dim={dim} q={q} {name}"));
                    for t in &tables {
                        let mut got = m.clone();
                        let bit = row_qubit(&got, q);
                        (t.apply_1q_blocked)(got.data_mut(), bit, u);
                        let ctx = format!("{} dim={dim} q={q} {name}", t.name);
                        assert_bits_eq(&got, &want, &ctx);
                    }
                }
            }
            if n < 2 {
                continue;
            }
            let haar4 = mat4_to_array(&haar_unitary(4, &mut rng));
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    for (name, u) in [("cx-like", &cx_like), ("haar", &haar4)] {
                        let mut want = m.clone();
                        apply_2q_mat_left_oracle(&mut want, a, b, u);
                        let mut got = m.clone();
                        apply_2q_mat_left(&mut got, a, b, u);
                        let ctx = format!("dispatched dim={dim} ({a},{b}) {name}");
                        assert_bits_eq(&got, &want, &ctx);
                        for t in &tables {
                            let mut got = m.clone();
                            let (fa, fb) = (row_qubit(&got, a), row_qubit(&got, b));
                            (t.apply_2q_blocked)(got.data_mut(), fa, fb, u);
                            let ctx = format!("{} dim={dim} ({a},{b}) {name}", t.name);
                            assert_bits_eq(&got, &want, &ctx);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two rows and columns")]
    fn matrix_gate_rejects_a_non_power_of_two_shape() {
        apply_1q_mat_left(&mut Matrix::zeros(4, 3), 0, &h_gate());
    }

    fn h_gate() -> [Complex64; 4] {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        [c64(s, 0.0), c64(s, 0.0), c64(s, 0.0), c64(-s, 0.0)]
    }

    fn cnot_gate() -> [Complex64; 16] {
        // control = high bit of small index
        let mut u = [Complex64::ZERO; 16];
        u[0] = Complex64::ONE; // 00 -> 00
        u[5] = Complex64::ONE; // 01 -> 01
        u[11] = Complex64::ONE; // 10 -> 11
        u[14] = Complex64::ONE; // 11 -> 10
        u
    }

    /// Reference embedding via explicit kron products, for cross-checking.
    fn kron_embed_1q(n: usize, q: usize, u: &Matrix) -> Matrix {
        // basis index bit q: kron ordering is qubit n-1 (x) ... (x) qubit 0
        let mut m = Matrix::identity(1);
        for k in (0..n).rev() {
            let f = if k == q {
                u.clone()
            } else {
                Matrix::identity(2)
            };
            m = m.kron(&f);
        }
        m
    }

    #[test]
    fn insert_zero_bit_enumerates_correctly() {
        // for q=1, i in 0..4 should give indices with bit 1 clear: 0,1,4,5
        let got: Vec<usize> = (0..4).map(|i| insert_zero_bit(i, 1)).collect();
        assert_eq!(got, vec![0, 1, 4, 5]);
    }

    #[test]
    fn embed_1q_matches_kron_reference() {
        for n in 1..=4 {
            for q in 0..n {
                for p in [pauli_x(), pauli_y(), pauli_z()] {
                    let fast = embed_1q(n, q, &mat2_to_array(&p));
                    let slow = kron_embed_1q(n, q, &p);
                    assert!(fast.approx_eq(&slow, 1e-13), "embed mismatch n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn statevector_h_creates_superposition() {
        let mut state = vec![Complex64::ZERO; 4];
        state[0] = Complex64::ONE;
        apply_1q_vec(&mut state, 0, &h_gate());
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((state[0] - c64(s, 0.0)).abs() < 1e-14);
        assert!((state[1] - c64(s, 0.0)).abs() < 1e-14);
        assert!(state[2].abs() < 1e-14);
    }

    #[test]
    fn cnot_truth_table_on_vec() {
        // control = qubit 1, target = qubit 0; gate on (a=1, b=0)
        for (inp, expect) in [
            (0b00usize, 0b00usize),
            (0b01, 0b01),
            (0b10, 0b11),
            (0b11, 0b10),
        ] {
            let mut state = vec![Complex64::ZERO; 4];
            state[inp] = Complex64::ONE;
            apply_2q_vec(&mut state, 1, 0, &cnot_gate());
            assert!(
                (state[expect] - Complex64::ONE).abs() < 1e-14,
                "CNOT |{inp:02b}> should be |{expect:02b}>, got {state:?}"
            );
        }
    }

    #[test]
    fn cnot_reversed_qubit_order() {
        // gate on (a=0, b=1): control = qubit 0, target = qubit 1
        for (inp, expect) in [
            (0b00usize, 0b00usize),
            (0b01, 0b11),
            (0b10, 0b10),
            (0b11, 0b01),
        ] {
            let mut state = vec![Complex64::ZERO; 4];
            state[inp] = Complex64::ONE;
            apply_2q_vec(&mut state, 0, 1, &cnot_gate());
            assert!(
                (state[expect] - Complex64::ONE).abs() < 1e-14,
                "CNOT(0->1) |{inp:02b}> should be |{expect:02b}>"
            );
        }
    }

    #[test]
    fn vec_and_mat_left_agree() {
        // applying a gate to the identity's columns equals the embedded matrix;
        // applying to a vector equals matvec with the embedding.
        let n = 3;
        let u = h_gate();
        let emb = embed_1q(n, 2, &u);
        let mut state: Vec<Complex64> = (0..8)
            .map(|i| c64(i as f64 * 0.1, -(i as f64) * 0.05))
            .collect();
        let expect = emb.matvec(&state);
        apply_1q_vec(&mut state, 2, &u);
        for (a, b) in state.iter().zip(&expect) {
            assert!((*a - *b).abs() < 1e-13);
        }
    }

    #[test]
    fn two_qubit_embed_is_unitary_and_matches_matvec() {
        let n = 4;
        let u = cnot_gate();
        for (a, b) in [(0usize, 3usize), (3, 0), (1, 2), (2, 1)] {
            let emb = embed_2q(n, a, b, &u);
            assert!(emb.is_unitary(1e-13), "embedding not unitary for ({a},{b})");
            let mut state: Vec<Complex64> = (0..16)
                .map(|i| c64((i as f64).sin(), (i as f64).cos()))
                .collect();
            let expect = emb.matvec(&state);
            apply_2q_vec(&mut state, a, b, &u);
            for (x, y) in state.iter().zip(&expect) {
                assert!((*x - *y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn right_dag_conjugation_matches_explicit() {
        // rho' = U rho U^dag computed with kernels vs explicit matmul
        let n = 2;
        let u = h_gate();
        let q = 1;
        let mut rho = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                rho[(i, j)] = c64((i + j) as f64 * 0.1, (i as f64 - j as f64) * 0.2);
            }
        }
        let emb = embed_1q(n, q, &u);
        let expect = emb.matmul(&rho).matmul(&emb.adjoint());
        apply_1q_mat_left(&mut rho, q, &u);
        apply_1q_mat_right_dag(&mut rho, q, &u);
        assert!(rho.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn right_dag_2q_conjugation_matches_explicit() {
        let n = 3;
        let u = cnot_gate();
        let (a, b) = (2usize, 0usize);
        let mut rho = Matrix::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                rho[(i, j)] = c64((i * 7 + j) as f64 * 0.03, (j * 5 + i) as f64 * 0.02);
            }
        }
        let emb = embed_2q(n, a, b, &u);
        let expect = emb.matmul(&rho).matmul(&emb.adjoint());
        apply_2q_mat_left(&mut rho, a, b, &u);
        apply_2q_mat_right_dag(&mut rho, a, b, &u);
        assert!(rho.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn into_variants_match_in_place() {
        let u1 = h_gate();
        let mut src = Matrix::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                src[(i, j)] = c64((i * 3 + j) as f64 * 0.07, (j * 11 + i) as f64 * 0.013);
            }
        }
        for q in 0..3 {
            let mut expect = src.clone();
            apply_1q_mat_left(&mut expect, q, &u1);
            let mut dst = Matrix::zeros(8, 8);
            apply_1q_mat_left_into(&mut dst, &src, q, &u1);
            assert!(dst.approx_eq(&expect, 1e-13), "1q left_into q={q}");
        }
    }

    #[test]
    fn accum_conj_matches_explicit_kraus_term() {
        // dst += U src U^dag against the explicit embed-and-matmul oracle,
        // on top of a nonzero dst to exercise the accumulation
        let mut src = Matrix::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                src[(i, j)] = c64((i + 2 * j) as f64 * 0.05, (i as f64 - j as f64) * 0.04);
            }
        }
        let seed = Matrix::identity(8);

        let u1 = h_gate();
        for q in 0..3 {
            let emb = embed_1q(3, q, &u1);
            let mut expect = seed.clone();
            expect.axpy(Complex64::ONE, &emb.matmul(&src).matmul(&emb.adjoint()));
            let mut dst = seed.clone();
            accum_conj_1q(&mut dst, &src, q, &u1);
            assert!(dst.approx_eq(&expect, 1e-12), "accum_conj_1q q={q}");
        }

        let u2 = cnot_gate();
        for (a, b) in [(0usize, 2usize), (2, 1), (1, 0)] {
            let emb = embed_2q(3, a, b, &u2);
            let mut expect = seed.clone();
            expect.axpy(Complex64::ONE, &emb.matmul(&src).matmul(&emb.adjoint()));
            let mut dst = seed.clone();
            accum_conj_2q(&mut dst, &src, a, b, &u2);
            assert!(dst.approx_eq(&expect, 1e-12), "accum_conj_2q ({a},{b})");
        }
    }

    /// `got` within a relative `1e-14` of `want`, amplitude by amplitude.
    fn assert_rel_close(got: &[Complex64], want: &[Complex64], ctx: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let err = (*g - *w).abs();
            assert!(
                err <= 1e-14 * w.abs(),
                "{ctx}: amplitude {i} off by {err:e}"
            );
        }
    }

    #[test]
    fn norm_sqr_kernels_match_apply_then_sum() {
        // the sweeps' norm, in both modes, agrees with applying the gate to
        // the prescaled state and summing, and a norm-only sweep leaves the
        // input untouched. A storing sweep's amplitudes hold to scaling
        // first and applying the gate only to a relative 1e-14 each, since
        // the sweeps fold `pre` into the coefficients and fuse their
        // multiply-adds (tests/simd_kernels.rs pins them bitwise to the
        // scalar FMA references)
        let u1 = h_gate();
        let u2 = cnot_gate();
        let state: Vec<Complex64> = (0..16)
            .map(|i| c64((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
            .collect();
        let pre = 0.75;
        let prescaled: Vec<Complex64> = state.iter().map(|&z| z * pre).collect();
        for q in 0..4 {
            let ctx = format!("sweep_1q q={q}");
            let mut applied = prescaled.clone();
            apply_1q_vec(&mut applied, q, &u1);
            let expect: f64 = applied.iter().map(|z| z.norm_sqr()).sum();
            let mut probe = state.clone();
            let got = sweep_1q(&mut probe, q, &u1, pre, Sweep::NormOnly);
            assert!((got - expect).abs() < 1e-12, "norm-only {ctx}");
            assert_eq!(probe, state, "norm-only {ctx} wrote");
            let got = sweep_1q(&mut probe, q, &u1, pre, Sweep::Store);
            assert!((got - expect).abs() < 1e-12, "storing {ctx}");
            assert_rel_close(&probe, &applied, &format!("storing {ctx} vs apply"));
        }
        for (a, b) in [(0usize, 1usize), (3, 0), (1, 3), (2, 1)] {
            let ctx = format!("sweep_2q ({a},{b})");
            let mut applied = prescaled.clone();
            apply_2q_vec(&mut applied, a, b, &u2);
            let expect: f64 = applied.iter().map(|z| z.norm_sqr()).sum();
            let mut probe = state.clone();
            let got = sweep_2q(&mut probe, a, b, &u2, pre, Sweep::NormOnly);
            assert!((got - expect).abs() < 1e-12, "norm-only {ctx}");
            assert_eq!(probe, state, "norm-only {ctx} wrote");
            let got = sweep_2q(&mut probe, a, b, &u2, pre, Sweep::Store);
            assert!((got - expect).abs() < 1e-12, "storing {ctx}");
            assert_rel_close(&probe, &applied, &format!("storing {ctx} vs apply"));
        }
    }

    #[test]
    fn scalar_sweep_bodies_match_their_dispatching_entries() {
        // the body with `mul_add` as a library call holds bit for bit to
        // the public scalar sweep, which on an FMA host runs the copy
        // compiled with hardware FMA
        use crate::random::{Rng, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(0xF4A);
        let mut c = || c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let same = |x: &[Complex64], y: &[Complex64]| {
            x.iter()
                .zip(y)
                .all(|(x, y)| (x.re.to_bits(), x.im.to_bits()) == (y.re.to_bits(), y.im.to_bits()))
        };
        let state: Vec<Complex64> = (0..32).map(|_| c()).collect();
        let u1: [Complex64; 4] = std::array::from_fn(|_| c());
        let u2: [Complex64; 16] = std::array::from_fn(|_| c());
        for mode in [Sweep::Store, Sweep::NormOnly] {
            for q in 0..5 {
                let (mut body, mut entry) = (state.clone(), state.clone());
                let nb = sweep_1q_scalar_body(&mut body, q, &u1, 0.75, mode);
                let ne = sweep_1q_scalar(&mut entry, q, &u1, 0.75, mode);
                assert_eq!(nb.to_bits(), ne.to_bits(), "1q norm q={q} {mode:?}");
                assert!(same(&body, &entry), "1q q={q} {mode:?}");
            }
            for (a, b) in [(0usize, 1usize), (1, 0), (4, 0), (2, 3), (3, 1)] {
                let (mut body, mut entry) = (state.clone(), state.clone());
                let nb = sweep_2q_scalar_body(&mut body, a, b, &u2, 0.75, mode);
                let ne = sweep_2q_scalar(&mut entry, a, b, &u2, 0.75, mode);
                assert_eq!(nb.to_bits(), ne.to_bits(), "2q norm ({a},{b}) {mode:?}");
                assert!(same(&body, &entry), "2q ({a},{b}) {mode:?}");
            }
        }
    }

    #[test]
    fn blocked_kernels_are_bit_identical_to_plain() {
        // the trajectory backend relies on blocked == plain *exactly* (not
        // just approximately): both perform the same arithmetic per disjoint
        // index group, only the group iteration order differs
        let u1 = h_gate();
        let u2 = cnot_gate();
        let base: Vec<Complex64> = (0..32)
            .map(|i| c64((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
            .collect();
        for q in 0..5 {
            let mut plain = base.clone();
            let mut blocked = base.clone();
            apply_1q_vec(&mut plain, q, &u1);
            apply_1q_vec_blocked(&mut blocked, q, &u1);
            assert_eq!(plain, blocked, "1q blocked mismatch q={q}");
        }
        for (a, b) in [(0usize, 1usize), (4, 0), (2, 3), (3, 1)] {
            let mut plain = base.clone();
            let mut blocked = base.clone();
            apply_2q_vec(&mut plain, a, b, &u2);
            apply_2q_vec_blocked(&mut blocked, a, b, &u2);
            assert_eq!(plain, blocked, "2q blocked mismatch ({a},{b})");
        }
    }

    #[test]
    fn kernels_preserve_norm() {
        let mut state = vec![Complex64::ZERO; 8];
        state[0] = c64(0.6, 0.0);
        state[5] = c64(0.0, 0.8);
        apply_1q_vec(&mut state, 1, &h_gate());
        apply_2q_vec(&mut state, 0, 2, &cnot_gate());
        let norm: f64 = state.iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-13);
    }
}
