//! Runtime-dispatched SIMD kernels.
//!
//! Three hot paths run through one [`KernelDispatch`] table of
//! hand-vectorized AVX2 kernels, selected **once per process**:
//!
//! * the trajectory and statevector shot loops: the blocked 1q/2q gate
//!   applications, the shot loop's prescaled sweeps (apply a 1q/2q matrix
//!   to `pre * psi` and return the squared norm, storing the result or
//!   not) and the end-of-shot renormalization scale. The matrix gates `U_embed * M` (circuit
//!   unitaries, the density simulator's `U rho`, QFast's blocks) run on the
//!   same two blocked kernels, with the row qubit mapped to a bit of the
//!   flat data;
//! * the Hilbert-Schmidt instantiation objective: the prefix-chain update
//!   `U_embed * A`, the suffix-chain update `M * U_embed^dagger` (in place,
//!   which the density-matrix simulator uses, and out of place, which the
//!   objective itself uses) and the fused pass that forms
//!   one U3's three gradient traces;
//! * QFast's coarse objective: the 4x4 block exponential
//!   ([`crate::expm::expm_i_su4`]) and the distance trace
//!   ([`Matrix::matmul_trace`]).
//!
//! Selection:
//!
//! * detection is at runtime via `is_x86_feature_detected!("avx2")` (and
//!   `"fma"`), so a portable build runs everywhere and non-AVX2 hosts fall
//!   back to the scalar kernels automatically;
//! * `QAPROX_SIMD=0` forces the scalar path (paired benchmarking, debugging);
//! * zero external dependencies — everything is `std::arch`.
//!
//! # Bit-identity contract
//!
//! The vector kernels perform **exactly the same IEEE-754 operations in the
//! same per-element order** as the scalar kernels, so `QAPROX_SIMD=0`
//! changes speed, never output. These deliberate choices make that hold:
//!
//! * the shot loop's sweeps ([`kernels::sweep_1q`]/[`kernels::sweep_2q`])
//!   are the only entries built on FMA. They multiply the pending
//!   renormalization into the matrix coefficients once per call (`w * pre`),
//!   store each imaginary coefficient sign-folded as `[-wi, wi, -wi, wi]`,
//!   and form each complex multiply-add as two `_mm256_fmadd_pd`
//!   (`amp * wr`, then `swap(amp) * wi`). Their scalar references
//!   [`kernels::sweep_1q_scalar`]/[`kernels::sweep_2q_scalar`] do the same
//!   operations in the same order with `f64::mul_add`, which is IEEE
//!   fusedMultiplyAdd like the hardware instruction, so the two tables agree
//!   bit for bit. The stores agree with scaling first and then applying the
//!   blocked gate kernels only to rounding. At 16 qubits the state (1 MiB)
//!   fits in a 2 MiB L2, so a sweep is limited by floating-point work, not
//!   memory. For 8 amplitudes, `sweep_2q` took about 76 FP operations in
//!   the mul/addsub form and takes 36 FMAs now; on the 2-core AVX2 host a
//!   16-qubit storing sweep went from 1.7-2.1 to 1.0-1.3 ns per amplitude
//!   (`docs/PERF.md`). A portable x86-64 build compiles `f64::mul_add` to
//!   a library call, on every host. So the scalar sweeps run their body in
//!   a copy compiled with the `fma` target feature when the host has FMA,
//!   where each `mul_add` is one instruction with the same rounding. Only
//!   a host without hardware FMA runs the library call, a software fma
//!   whose cost has not been measured;
//! * every other entry avoids FMA in its value path: complex
//!   multiply-accumulate is mul / permute / addsub, because
//!   [`Complex64`]'s scalar `Mul`/`mul_add` are plain mul/add/sub
//!   expressions (Rust does not contract float expressions into fused ops).
//!   So synthesis, the density simulator and the statevector paths keep
//!   their bits;
//! * the sweeps accumulate their norm, fused, into **four structural lanes**
//!   with a fixed final reduction tree `(acc0 + acc2) + (acc1 + acc3)`; the
//!   scalar references use the identical lane structure, so the sums
//!   associate identically;
//! * the U3 gradient traces run their products across lanes but never a
//!   sum: each trace keeps one accumulator whose chain of `mul_add` steps is
//!   the scalar [`kernels::u3_partial_traces_scalar`]'s, term for term and
//!   in the same order, with two of the three accumulators side by side in
//!   one register. `matmul_trace` keeps one chain per diagonal entry the
//!   same way, and takes a zero left-hand entry's skip as a blend that
//!   keeps the accumulator, so the skip is exact whatever the right-hand
//!   entry holds.
//!
//! The property suite in `tests/simd_kernels.rs` pins the contract across
//! all qubit positions and block boundaries.

use crate::complex::Complex64;
use crate::kernels::{self, Sweep};
use crate::matrix::Matrix;
use std::sync::OnceLock;

/// The hot shot-loop, instantiation and QFast kernels behind one
/// function-pointer table.
///
/// Resolved once per process by [`kernel_dispatch`]; the public kernels in
/// [`crate::kernels`] of the same names route through the selected entries.
pub struct KernelDispatch {
    /// Implementation name: `"simd"` (AVX2) or `"scalar"`. Recorded by the
    /// throughput benches so published numbers say which path they measured.
    pub name: &'static str,
    /// Blocked one-qubit gate application.
    pub apply_1q_blocked: fn(&mut [Complex64], usize, &[Complex64; 4]),
    /// Blocked two-qubit gate application.
    pub apply_2q_blocked: fn(&mut [Complex64], usize, usize, &[Complex64; 16]),
    /// Prescaled one-qubit sweep ([`kernels::sweep_1q`]): `||U (pre psi)||^2`,
    /// storing `U (pre psi)` in [`Sweep::Store`] mode.
    pub sweep_1q: Sweep1qFn,
    /// Prescaled two-qubit sweep ([`kernels::sweep_2q`]).
    pub sweep_2q: Sweep2qFn,
    /// Elementwise scale of every amplitude by a real factor (a shot's
    /// last pending renormalization).
    pub scale: fn(&mut [Complex64], f64),
    /// Out-of-place `dst <- U_embed * src` (instantiation prefix chain).
    pub apply_1q_mat_left_into: fn(&mut Matrix, &Matrix, usize, &[Complex64; 4]),
    /// In-place `M <- M * U_embed^dagger` (density simulator).
    pub apply_1q_mat_right_dag: fn(&mut Matrix, usize, &[Complex64; 4]),
    /// Out-of-place `dst <- src * U_embed^dagger` (instantiation suffix
    /// chain).
    pub apply_1q_mat_right_dag_into: fn(&mut Matrix, &Matrix, usize, &[Complex64; 4]),
    /// One U3's three gradient traces `Tr(L * dG_embed * A)`.
    pub u3_partial_traces: U3PartialTracesFn,
    /// `Tr(L * R)` from the diagonal of the product alone
    /// ([`Matrix::matmul_trace`]).
    pub matmul_trace: fn(&Matrix, &Matrix) -> Complex64,
    /// QFast's block exponential `exp(i sum_j t_j P_j)` on 4x4 arrays
    /// ([`crate::expm::expm_i_su4`]).
    pub expm_i_su4: fn(&[[Complex64; 16]; 15], &[f64]) -> [Complex64; 16],
}

/// Signature of [`KernelDispatch::sweep_1q`]: `(state, qubit, U, pre, mode)`.
pub type Sweep1qFn = fn(&mut [Complex64], usize, &[Complex64; 4], f64, Sweep) -> f64;

/// Signature of [`KernelDispatch::sweep_2q`]: `(state, a, b, U, pre, mode)`.
pub type Sweep2qFn = fn(&mut [Complex64], usize, usize, &[Complex64; 16], f64, Sweep) -> f64;

/// Signature of [`KernelDispatch::u3_partial_traces`]: `(L, A, qubit,
/// [dG/dtheta, dG/dphi, dG/dlambda])`.
pub type U3PartialTracesFn = fn(&Matrix, &Matrix, usize, &[[Complex64; 4]; 3]) -> [Complex64; 3];

static SCALAR: KernelDispatch = KernelDispatch {
    name: "scalar",
    apply_1q_blocked: kernels::apply_1q_vec_blocked_scalar,
    apply_2q_blocked: kernels::apply_2q_vec_blocked_scalar,
    sweep_1q: kernels::sweep_1q_scalar,
    sweep_2q: kernels::sweep_2q_scalar,
    scale: kernels::scale_scalar,
    apply_1q_mat_left_into: kernels::apply_1q_mat_left_into_scalar,
    apply_1q_mat_right_dag: kernels::apply_1q_mat_right_dag_scalar,
    apply_1q_mat_right_dag_into: kernels::apply_1q_mat_right_dag_into_scalar,
    u3_partial_traces: kernels::u3_partial_traces_scalar,
    matmul_trace: kernels::matmul_trace_scalar,
    expm_i_su4: crate::expm::expm_i_su4_scalar,
};

#[cfg(target_arch = "x86_64")]
static SIMD: KernelDispatch = KernelDispatch {
    name: "simd",
    apply_1q_blocked: avx2::apply_1q_vec_blocked,
    apply_2q_blocked: avx2::apply_2q_vec_blocked,
    sweep_1q: avx2::sweep_1q,
    sweep_2q: avx2::sweep_2q,
    scale: avx2::scale,
    apply_1q_mat_left_into: avx2::apply_1q_mat_left_into,
    apply_1q_mat_right_dag: avx2::apply_1q_mat_right_dag,
    apply_1q_mat_right_dag_into: avx2::apply_1q_mat_right_dag_into,
    u3_partial_traces: avx2::u3_partial_traces,
    matmul_trace: avx2::matmul_trace,
    expm_i_su4: avx2::expm_i_su4,
};

impl KernelDispatch {
    /// The portable scalar table, the reference every other table matches
    /// bit for bit.
    pub fn scalar() -> &'static KernelDispatch {
        &SCALAR
    }

    /// The AVX2 table, when it is compiled in and the host supports it
    /// ([`simd_available`]); `None` otherwise. Independent of
    /// `QAPROX_SIMD`, so tests can run both tables in one process.
    pub fn simd() -> Option<&'static KernelDispatch> {
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            return Some(&SIMD);
        }
        None
    }
}

static SELECTED: OnceLock<&'static KernelDispatch> = OnceLock::new();

/// True when the AVX2 kernels are compiled in *and* the host supports them.
/// Independent of `QAPROX_SIMD` — this reports capability, not selection.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel table selected for this process.
///
/// Resolution happens on first call and is then fixed: `QAPROX_SIMD=0`
/// forces scalar; otherwise AVX2(+FMA) detection picks the SIMD table with
/// the scalar kernels as the portable fallback.
pub fn kernel_dispatch() -> &'static KernelDispatch {
    SELECTED.get_or_init(|| {
        let forced_off = std::env::var("QAPROX_SIMD").is_ok_and(|v| v.trim() == "0");
        match KernelDispatch::simd() {
            Some(simd) if !forced_off => simd,
            _ => KernelDispatch::scalar(),
        }
    })
}

/// Name of the kernel implementation this process selected: `"simd"` or
/// `"scalar"`. Benches and smoke scripts record this next to their numbers.
pub fn selected_kernel() -> &'static str {
    kernel_dispatch().name
}

/// AVX2 implementations. Safe wrappers over `target_feature` inner kernels;
/// callers must only reach them through [`kernel_dispatch`] (which proves
/// feature support) or after checking [`simd_available`], as the test suite
/// does.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use crate::complex::Complex64;
    use crate::expm::{expm_i_su4_with, Ops4, M4};
    use crate::kernels::Sweep;
    use crate::matrix::Matrix;
    use std::arch::x86_64::*;

    /// Swap (re, im) within each 128-bit half: `[a, b, c, d] -> [b, a, d, c]`.
    #[inline(always)]
    unsafe fn swap_halves(v: __m256d) -> __m256d {
        _mm256_permute_pd(v, 0b0101)
    }

    /// Complex multiply of two interleaved amplitudes `v = [z0.re, z0.im,
    /// z1.re, z1.im]` by one broadcast coefficient `w` (given as `wr` =
    /// `[w.re; 4]`, `wi` = `[w.im; 4]`). Bitwise equal to the scalar
    /// `Complex64::mul` per lane pair: `re = v.re*w.re - v.im*w.im`,
    /// `im = v.re*w.im + v.im*w.re` (addsub's even lanes subtract, odd add).
    #[inline(always)]
    unsafe fn cmul(v: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        let t1 = _mm256_mul_pd(v, wr);
        let t2 = _mm256_mul_pd(swap_halves(v), wi);
        _mm256_addsub_pd(t1, t2)
    }

    /// `acc + v * w`, bitwise equal to the scalar `Complex64::mul_add`
    /// (`acc.re + v.re*w.re - v.im*w.im` evaluated left-to-right).
    #[inline(always)]
    unsafe fn cmul_acc(acc: __m256d, v: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        let s1 = _mm256_add_pd(acc, _mm256_mul_pd(v, wr));
        let t2 = _mm256_mul_pd(swap_halves(v), wi);
        _mm256_addsub_pd(s1, t2)
    }

    /// The sweeps' complex multiply-add `acc + v * w`: two fused
    /// multiply-adds, `v * wr` first, then `swap(v) * wi` with `wi` the
    /// sign-folded imaginary part `[-w.im, w.im, -w.im, w.im]` (from
    /// [`pair_fma`]). `vs` is `swap_halves(v)`, formed once per
    /// loaded vector. Bitwise equal to the scalar sweeps' `cfma`:
    /// `re = v.im.mul_add(-w.im, v.re.mul_add(w.re, acc.re))`,
    /// `im = v.re.mul_add(w.im, v.im.mul_add(w.re, acc.im))`.
    ///
    /// # Safety
    /// The host must support AVX and FMA.
    #[inline(always)]
    unsafe fn cfma(acc: __m256d, v: __m256d, vs: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        _mm256_fmadd_pd(vs, wi, _mm256_fmadd_pd(v, wr, acc))
    }

    /// Two sweep coefficients `lo * pre`, `hi * pre` side by side for
    /// [`cfma`]: `lo` for the low complex lane, `hi` for the high one (the
    /// same coefficient twice broadcasts it).
    ///
    /// # Safety
    /// The host must support AVX.
    #[inline(always)]
    unsafe fn pair_fma(lo: Complex64, hi: Complex64, pre: f64) -> (__m256d, __m256d) {
        // one vector multiply and three shuffles: at 8 amplitudes a 2q
        // sweep's coefficient setup costs as much as its loop
        let v = _mm256_mul_pd(
            _mm256_setr_pd(lo.re, lo.im, hi.re, hi.im),
            _mm256_set1_pd(pre),
        );
        let neg_even = _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0);
        (
            _mm256_permute_pd(v, 0b0000),
            _mm256_xor_pd(_mm256_permute_pd(v, 0b1111), neg_even),
        )
    }

    /// Broadcast one coefficient into (re-splat, im-splat) vectors.
    #[inline(always)]
    unsafe fn splat(w: Complex64) -> (__m256d, __m256d) {
        (_mm256_set1_pd(w.re), _mm256_set1_pd(w.im))
    }

    /// Two coefficients side by side: `lo` for the low complex lane, `hi`
    /// for the high one, as (re-splat, im-splat) vectors.
    ///
    /// # Safety
    /// The host must support AVX.
    #[inline(always)]
    unsafe fn pair(lo: Complex64, hi: Complex64) -> (__m256d, __m256d) {
        (
            _mm256_setr_pd(lo.re, lo.re, hi.re, hi.re),
            _mm256_setr_pd(lo.im, lo.im, hi.im, hi.im),
        )
    }

    /// The 128-bit [`cmul`]: one complex `v = [re, im]` times `w`.
    ///
    /// # Safety
    /// The host must support AVX.
    #[inline(always)]
    unsafe fn cmul128(v: __m128d, wr: __m128d, wi: __m128d) -> __m128d {
        let t1 = _mm_mul_pd(v, wr);
        let t2 = _mm_mul_pd(_mm_permute_pd(v, 0b01), wi);
        _mm_addsub_pd(t1, t2)
    }

    /// The 128-bit [`cmul_acc`]: `acc + v * w`, bitwise equal to the scalar
    /// `Complex64::mul_add`.
    ///
    /// # Safety
    /// The host must support AVX.
    #[inline(always)]
    unsafe fn cmul_acc128(acc: __m128d, v: __m128d, wr: __m128d, wi: __m128d) -> __m128d {
        let s1 = _mm_add_pd(acc, _mm_mul_pd(v, wr));
        let t2 = _mm_mul_pd(_mm_permute_pd(v, 0b01), wi);
        _mm_addsub_pd(s1, t2)
    }

    /// Structural four-lane reduction `(acc0 + acc2) + (acc1 + acc3)` —
    /// mirrored exactly by the scalar norm kernels.
    #[inline(always)]
    unsafe fn reduce_lanes(acc: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd(acc, 1);
        let s = _mm_add_pd(lo, hi); // [acc0+acc2, acc1+acc3]
        _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s))
    }

    /// `dst[i0], dst[i1] <- u * (src[i0], src[i1])` for every pair
    /// `i1 = i0 | mask` of a `len`-amplitude array laid out like a
    /// statevector (`mask` a power of two, `len` a multiple of `2 * mask`).
    /// `dst` may equal `src`: each pair is read in full before it is written.
    /// Each output is `a * u[r0] + b * u[r1]`, bit for bit the scalar form.
    ///
    /// # Safety
    /// The host must support AVX2, and `src` and `dst` must each be valid
    /// for `2 * len` `f64` reads (and writes, for `dst`), with `len` and
    /// `mask` as above.
    #[inline(always)]
    unsafe fn apply_1q_pairs(
        src: *const f64,
        dst: *mut f64,
        len: usize,
        mask: usize,
        u: &[Complex64; 4],
    ) {
        if mask == 1 {
            // Each vector is one (a, b) pair: [a.re, a.im, b.re, b.im].
            // Row coefficients carry u0/u1 in the low half (producing the
            // new a) and u2/u3 in the high half (producing the new b).
            let (c0r, c0i) = pair(u[0], u[2]);
            let (c1r, c1i) = pair(u[1], u[3]);
            let mut i = 0usize;
            while i < len {
                let v = _mm256_loadu_pd(src.add(2 * i));
                let aa = _mm256_permute2f128_pd(v, v, 0x00);
                let bb = _mm256_permute2f128_pd(v, v, 0x11);
                let out = _mm256_add_pd(cmul(aa, c0r, c0i), cmul(bb, c1r, c1i));
                _mm256_storeu_pd(dst.add(2 * i), out);
                i += 2;
            }
        } else {
            // Two contiguous streams, two amplitudes per vector.
            let (u0r, u0i) = splat(u[0]);
            let (u1r, u1i) = splat(u[1]);
            let (u2r, u2i) = splat(u[2]);
            let (u3r, u3i) = splat(u[3]);
            let stride = mask << 1;
            let mut base = 0usize;
            while base < len {
                let mut off = 0usize;
                while off < mask {
                    let i0 = 2 * (base + off);
                    let i1 = 2 * (base + off + mask);
                    let va = _mm256_loadu_pd(src.add(i0));
                    let vb = _mm256_loadu_pd(src.add(i1));
                    let o0 = _mm256_add_pd(cmul(va, u0r, u0i), cmul(vb, u1r, u1i));
                    let o1 = _mm256_add_pd(cmul(va, u2r, u2i), cmul(vb, u3r, u3i));
                    _mm256_storeu_pd(dst.add(i0), o0);
                    _mm256_storeu_pd(dst.add(i1), o1);
                    off += 2;
                }
                base += stride;
            }
        }
    }

    /// # Safety
    /// The host must support AVX2+FMA; `state.len()` must be a power of two
    /// above `2^q` (see `check_1q`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn apply_1q_inner(state: &mut [Complex64], q: usize, u: &[Complex64; 4]) {
        let p = state.as_mut_ptr() as *mut f64;
        apply_1q_pairs(p, p, state.len(), 1 << q, u)
    }

    /// [`crate::kernels::sweep_1q`] with the mode as a constant, so the
    /// norm-only loop carries no store branch.
    ///
    /// # Safety
    /// The host must support AVX2+FMA; `state.len()` must be a power of two
    /// above `2^q` (see `check_1q`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sweep_1q_inner<const STORE: bool>(
        state: &mut [Complex64],
        q: usize,
        u: &[Complex64; 4],
        pre: f64,
    ) -> f64 {
        let dim = state.len();
        let mask = 1usize << q;
        let p = state.as_mut_ptr() as *mut f64;
        let zero = _mm256_setzero_pd();
        let mut acc = zero;
        if mask == 1 {
            let (c0r, c0i) = pair_fma(u[0], u[2], pre);
            let (c1r, c1i) = pair_fma(u[1], u[3], pre);
            let mut i = 0usize;
            while i < dim {
                let v = _mm256_loadu_pd(p.add(2 * i));
                let vs = swap_halves(v);
                let aa = _mm256_permute2f128_pd(v, v, 0x00);
                let bb = _mm256_permute2f128_pd(v, v, 0x11);
                let aas = _mm256_permute2f128_pd(vs, vs, 0x00);
                let bbs = _mm256_permute2f128_pd(vs, vs, 0x11);
                let out = cfma(cfma(zero, aa, aas, c0r, c0i), bb, bbs, c1r, c1i);
                acc = _mm256_fmadd_pd(out, out, acc);
                if STORE {
                    _mm256_storeu_pd(p.add(2 * i), out);
                }
                i += 2;
            }
        } else {
            let (u0r, u0i) = pair_fma(u[0], u[0], pre);
            let (u1r, u1i) = pair_fma(u[1], u[1], pre);
            let (u2r, u2i) = pair_fma(u[2], u[2], pre);
            let (u3r, u3i) = pair_fma(u[3], u[3], pre);
            let stride = mask << 1;
            let mut base = 0usize;
            while base < dim {
                let mut off = 0usize;
                while off < mask {
                    let i0 = 2 * (base + off);
                    let i1 = 2 * (base + off + mask);
                    let va = _mm256_loadu_pd(p.add(i0));
                    let vb = _mm256_loadu_pd(p.add(i1));
                    let (vas, vbs) = (swap_halves(va), swap_halves(vb));
                    let o0 = cfma(cfma(zero, va, vas, u0r, u0i), vb, vbs, u1r, u1i);
                    let o1 = cfma(cfma(zero, va, vas, u2r, u2i), vb, vbs, u3r, u3i);
                    acc = _mm256_fmadd_pd(o0, o0, acc);
                    acc = _mm256_fmadd_pd(o1, o1, acc);
                    if STORE {
                        _mm256_storeu_pd(p.add(i0), o0);
                        _mm256_storeu_pd(p.add(i1), o1);
                    }
                    off += 2;
                }
                base += stride;
            }
        }
        reduce_lanes(acc)
    }

    /// Per-(a, b) index plumbing shared by the 2q kernels when the low
    /// qubit is 0: memory slot order `[base, base+1, base+mhi, base+mhi+1]`
    /// maps to small-matrix indices `ms`, with `inv` its inverse permutation
    /// (`inv[s]` = memory slot holding small index `s`).
    #[inline(always)]
    fn lo0_perm(mb: usize) -> ([usize; 4], [usize; 4]) {
        if mb == 1 {
            // b is qubit 0 (low bit of the small index): memory order is
            // already small-index order.
            ([0, 1, 2, 3], [0, 1, 2, 3])
        } else {
            // a is qubit 0 (high bit of the small index): adjacent memory
            // slots toggle the high bit.
            ([0, 2, 1, 3], [0, 2, 1, 3])
        }
    }

    /// # Safety
    /// The host must support AVX2+FMA; `state.len()` must be a power of two
    /// above `2^a` and `2^b`, with `a != b` (see `check_2q`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn apply_2q_inner(state: &mut [Complex64], a: usize, b: usize, u: &[Complex64; 16]) {
        let dim = state.len();
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let ma = 1usize << a;
        let mb = 1usize << b;
        let mlo = 1usize << lo;
        let mhi = 1usize << hi;
        let p = state.as_mut_ptr() as *mut f64;
        if mlo >= 2 {
            // Four contiguous streams; two quads per iteration.
            let mut ur = [_mm256_setzero_pd(); 16];
            let mut ui = [_mm256_setzero_pd(); 16];
            for k in 0..16 {
                let (r, i) = splat(u[k]);
                ur[k] = r;
                ui[k] = i;
            }
            let mut base_hi = 0usize;
            while base_hi < dim {
                let mut base_mid = base_hi;
                while base_mid < base_hi + mhi {
                    let mut off = 0usize;
                    while off < mlo {
                        let base = base_mid + off;
                        let idx = [
                            2 * base,
                            2 * (base | mb),
                            2 * (base | ma),
                            2 * (base | ma | mb),
                        ];
                        let amp = [
                            _mm256_loadu_pd(p.add(idx[0])),
                            _mm256_loadu_pd(p.add(idx[1])),
                            _mm256_loadu_pd(p.add(idx[2])),
                            _mm256_loadu_pd(p.add(idx[3])),
                        ];
                        for r in 0..4 {
                            let mut acc = _mm256_setzero_pd();
                            for (c, &amp_c) in amp.iter().enumerate() {
                                acc = cmul_acc(acc, amp_c, ur[r * 4 + c], ui[r * 4 + c]);
                            }
                            _mm256_storeu_pd(p.add(idx[r]), acc);
                        }
                        off += 2;
                    }
                    base_mid += mlo << 1;
                }
                base_hi += mhi << 1;
            }
        } else {
            // lo == 0: a quad is two contiguous pairs {base, base+1} and
            // {base+mhi, base+mhi+1}. Compute both output vectors in memory
            // order with per-lane coefficient vectors.
            let (ms, inv) = lo0_perm(mb);
            // clr[c]/cli[c]: coefficient for small column c of the low
            // output vector (rows ms[0] in the low half, ms[1] high);
            // chr/chi likewise for the high output vector (rows ms[2], ms[3]).
            let mut clr = [_mm256_setzero_pd(); 4];
            let mut cli = [_mm256_setzero_pd(); 4];
            let mut chr = [_mm256_setzero_pd(); 4];
            let mut chi = [_mm256_setzero_pd(); 4];
            for c in 0..4 {
                let wl0 = u[ms[0] * 4 + c];
                let wl1 = u[ms[1] * 4 + c];
                let wh0 = u[ms[2] * 4 + c];
                let wh1 = u[ms[3] * 4 + c];
                (clr[c], cli[c]) = pair(wl0, wl1);
                (chr[c], chi[c]) = pair(wh0, wh1);
            }
            let mut base_hi = 0usize;
            while base_hi < dim {
                let mut base = base_hi;
                while base < base_hi + mhi {
                    let il = 2 * base;
                    let ih = 2 * (base + mhi);
                    let vl = _mm256_loadu_pd(p.add(il));
                    let vh = _mm256_loadu_pd(p.add(ih));
                    let slots = [
                        _mm256_permute2f128_pd(vl, vl, 0x00),
                        _mm256_permute2f128_pd(vl, vl, 0x11),
                        _mm256_permute2f128_pd(vh, vh, 0x00),
                        _mm256_permute2f128_pd(vh, vh, 0x11),
                    ];
                    let mut accl = _mm256_setzero_pd();
                    let mut acch = _mm256_setzero_pd();
                    for c in 0..4 {
                        let amp_c = slots[inv[c]];
                        accl = cmul_acc(accl, amp_c, clr[c], cli[c]);
                        acch = cmul_acc(acch, amp_c, chr[c], chi[c]);
                    }
                    _mm256_storeu_pd(p.add(il), accl);
                    _mm256_storeu_pd(p.add(ih), acch);
                    base += 2;
                }
                base_hi += mhi << 1;
            }
        }
    }

    /// [`crate::kernels::sweep_2q`] with the mode as a constant.
    ///
    /// # Safety
    /// The host must support AVX2+FMA; `state.len()` must be a power of two
    /// above `2^a` and `2^b`, with `a != b` (see `check_2q`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sweep_2q_inner<const STORE: bool>(
        state: &mut [Complex64],
        a: usize,
        b: usize,
        u: &[Complex64; 16],
        pre: f64,
    ) -> f64 {
        let dim = state.len();
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let ma = 1usize << a;
        let mb = 1usize << b;
        let mlo = 1usize << lo;
        let mhi = 1usize << hi;
        let p = state.as_mut_ptr() as *mut f64;
        let zero = _mm256_setzero_pd();
        let mut acc = zero;
        if mlo >= 2 {
            let mut ur = [zero; 16];
            let mut ui = [zero; 16];
            for k in 0..16 {
                (ur[k], ui[k]) = pair_fma(u[k], u[k], pre);
            }
            let mut base_hi = 0usize;
            while base_hi < dim {
                let mut base_mid = base_hi;
                while base_mid < base_hi + mhi {
                    let mut off = 0usize;
                    while off < mlo {
                        let base = base_mid + off;
                        let idx = [
                            2 * base,
                            2 * (base | mb),
                            2 * (base | ma),
                            2 * (base | ma | mb),
                        ];
                        let amp = [
                            _mm256_loadu_pd(p.add(idx[0])),
                            _mm256_loadu_pd(p.add(idx[1])),
                            _mm256_loadu_pd(p.add(idx[2])),
                            _mm256_loadu_pd(p.add(idx[3])),
                        ];
                        let swapped = [
                            swap_halves(amp[0]),
                            swap_halves(amp[1]),
                            swap_halves(amp[2]),
                            swap_halves(amp[3]),
                        ];
                        for r in 0..4 {
                            let mut row = zero;
                            for c in 0..4 {
                                row = cfma(row, amp[c], swapped[c], ur[r * 4 + c], ui[r * 4 + c]);
                            }
                            acc = _mm256_fmadd_pd(row, row, acc);
                            if STORE {
                                _mm256_storeu_pd(p.add(idx[r]), row);
                            }
                        }
                        off += 2;
                    }
                    base_mid += mlo << 1;
                }
                base_hi += mhi << 1;
            }
        } else {
            let (ms, inv) = lo0_perm(mb);
            let mut clr = [zero; 4];
            let mut cli = [zero; 4];
            let mut chr = [zero; 4];
            let mut chi = [zero; 4];
            for c in 0..4 {
                (clr[c], cli[c]) = pair_fma(u[ms[0] * 4 + c], u[ms[1] * 4 + c], pre);
                (chr[c], chi[c]) = pair_fma(u[ms[2] * 4 + c], u[ms[3] * 4 + c], pre);
            }
            let mut base_hi = 0usize;
            while base_hi < dim {
                let mut base = base_hi;
                while base < base_hi + mhi {
                    let il = 2 * base;
                    let ih = 2 * (base + mhi);
                    let vl = _mm256_loadu_pd(p.add(il));
                    let vh = _mm256_loadu_pd(p.add(ih));
                    let slots = [
                        _mm256_permute2f128_pd(vl, vl, 0x00),
                        _mm256_permute2f128_pd(vl, vl, 0x11),
                        _mm256_permute2f128_pd(vh, vh, 0x00),
                        _mm256_permute2f128_pd(vh, vh, 0x11),
                    ];
                    let swapped = [
                        swap_halves(slots[0]),
                        swap_halves(slots[1]),
                        swap_halves(slots[2]),
                        swap_halves(slots[3]),
                    ];
                    let mut accl = zero;
                    let mut acch = zero;
                    for c in 0..4 {
                        let (amp_c, amp_cs) = (slots[inv[c]], swapped[inv[c]]);
                        accl = cfma(accl, amp_c, amp_cs, clr[c], cli[c]);
                        acch = cfma(acch, amp_c, amp_cs, chr[c], chi[c]);
                    }
                    acc = _mm256_fmadd_pd(accl, accl, acc);
                    acc = _mm256_fmadd_pd(acch, acch, acc);
                    if STORE {
                        _mm256_storeu_pd(p.add(il), accl);
                        _mm256_storeu_pd(p.add(ih), acch);
                    }
                    base += 2;
                }
                base_hi += mhi << 1;
            }
        }
        reduce_lanes(acc)
    }

    /// AVX2 [`crate::kernels::apply_1q_vec_blocked`]. Caller must ensure the
    /// host supports AVX2+FMA (see [`super::simd_available`]).
    pub fn apply_1q_vec_blocked(state: &mut [Complex64], q: usize, u: &[Complex64; 4]) {
        check_1q(state.len(), q);
        assert!(super::simd_available());
        // SAFETY: check_1q and the assert above are apply_1q_inner's
        // requirements
        unsafe { apply_1q_inner(state, q, u) }
    }

    /// AVX2 [`crate::kernels::apply_2q_vec_blocked`]. Caller must ensure the
    /// host supports AVX2+FMA.
    pub fn apply_2q_vec_blocked(state: &mut [Complex64], a: usize, b: usize, u: &[Complex64; 16]) {
        check_2q(state.len(), a, b);
        assert!(super::simd_available());
        // SAFETY: check_2q and the assert above are apply_2q_inner's
        // requirements
        unsafe { apply_2q_inner(state, a, b, u) }
    }

    /// AVX2 [`crate::kernels::sweep_1q`]. Caller must ensure the host
    /// supports AVX2+FMA.
    pub fn sweep_1q(
        state: &mut [Complex64],
        q: usize,
        u: &[Complex64; 4],
        pre: f64,
        mode: Sweep,
    ) -> f64 {
        check_1q(state.len(), q);
        assert!(super::simd_available());
        // SAFETY: as in apply_1q_vec_blocked
        unsafe {
            match mode {
                Sweep::Store => sweep_1q_inner::<true>(state, q, u, pre),
                Sweep::NormOnly => sweep_1q_inner::<false>(state, q, u, pre),
            }
        }
    }

    /// AVX2 [`crate::kernels::sweep_2q`]. Caller must ensure the host
    /// supports AVX2+FMA.
    pub fn sweep_2q(
        state: &mut [Complex64],
        a: usize,
        b: usize,
        u: &[Complex64; 16],
        pre: f64,
        mode: Sweep,
    ) -> f64 {
        check_2q(state.len(), a, b);
        assert!(super::simd_available());
        // SAFETY: as in apply_2q_vec_blocked
        unsafe {
            match mode {
                Sweep::Store => sweep_2q_inner::<true>(state, a, b, u, pre),
                Sweep::NormOnly => sweep_2q_inner::<false>(state, a, b, u, pre),
            }
        }
    }

    /// The statevector kernels' bounds: a power-of-two length with `2^q`
    /// below it. Checked in release builds too, since a bad qubit from safe
    /// code would otherwise index past the state in the pointer loops.
    fn check_1q(len: usize, q: usize) {
        assert!(len.is_power_of_two(), "state length must be a power of two");
        assert!(
            q < usize::BITS as usize && 1 << q < len,
            "qubit index out of range"
        );
    }

    /// [`check_1q`] for both qubits of a two-qubit gate, which must differ.
    fn check_2q(len: usize, a: usize, b: usize) {
        assert_ne!(a, b, "two-qubit gate needs distinct qubits");
        check_1q(len, a);
        check_1q(len, b);
    }

    /// # Safety
    /// The host must support AVX2+FMA; `dst` and `src` must have the same
    /// shape, with power-of-two row and column counts and `2^q` below the
    /// row count.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn mat_left_into_inner(dst: &mut Matrix, src: &Matrix, q: usize, u: &[Complex64; 4]) {
        // rows r and r | 2^q pair up, so in the flat row-major data entry
        // k pairs with k + 2^q * cols: the statevector pattern
        let len = src.data().len();
        let s = src.data().as_ptr() as *const f64;
        let d = dst.data_mut().as_mut_ptr() as *mut f64;
        apply_1q_pairs(s, d, len, (1 << q) * src.cols(), u)
    }

    /// # Safety
    /// The host must support AVX2+FMA; the column count must be a power of
    /// two above `2^q`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn mat_right_dag_inner(mat: &mut Matrix, q: usize, u: &[Complex64; 4]) {
        // columns c and c | 2^q pair up within each row; with a
        // power-of-two row length the flat data is the statevector pattern
        // at qubit q, with coefficients conj(u) as the scalar kernel uses
        let uc = u.map(Complex64::conj);
        let len = mat.data().len();
        let p = mat.data_mut().as_mut_ptr() as *mut f64;
        apply_1q_pairs(p, p, len, 1 << q, &uc)
    }

    /// # Safety
    /// The host must support AVX2+FMA; `dst` and `src` must have the same
    /// shape, with a power-of-two column count above `2^q`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn mat_right_dag_into_inner(
        dst: &mut Matrix,
        src: &Matrix,
        q: usize,
        u: &[Complex64; 4],
    ) {
        // the pattern of mat_right_dag_inner, read from src, written to dst
        let uc = u.map(Complex64::conj);
        let len = src.data().len();
        let s = src.data().as_ptr() as *const f64;
        let d = dst.data_mut().as_mut_ptr() as *mut f64;
        apply_1q_pairs(s, d, len, 1 << q, &uc)
    }

    /// # Safety
    /// The host must support AVX2+FMA; `l` and `a` must both be `n x n`
    /// with `n` a power of two above `2^q`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn u3_partial_traces_inner(
        l: &Matrix,
        a: &Matrix,
        q: usize,
        dg: &[[Complex64; 4]; 3],
    ) -> [Complex64; 3] {
        let n = l.rows();
        let mask = 1usize << q;
        let [dt, dp, dl] = dg;
        let lp = l.data().as_ptr() as *const f64;
        let ap = a.data().as_ptr() as *const f64;
        // Columns j with bit q clear: (theta | lambda) entries are
        // [x, y] * (dt0 | dl1) + [y, y] * dt1 with the sum's high half
        // dropped, since lambda's entry there is the single product y * dl1.
        let (c0r, c0i) = pair(dt[0], dl[1]);
        let (d0r, d0i) = splat(dt[1]);
        // Columns with bit q set: (theta | phi) entries are
        // [x, x] * (dt2 | dp2) + [y, y] * (dt3 | dp3); lambda's is y * dl3.
        let (c1r, c1i) = pair(dt[2], dp[2]);
        let (d1r, d1i) = pair(dt[3], dp[3]);
        let (l3r, l3i) = (_mm_set1_pd(dl[3].re), _mm_set1_pd(dl[3].im));
        // accumulators: [theta, lambda] side by side, phi alone; each lane
        // pair runs the scalar kernel's chain of mul_add steps in its order
        let mut acc_tl = _mm256_setzero_pd();
        let mut acc_p = _mm_setzero_pd();
        for i in 0..n {
            let lrow = lp.add(2 * i * n);
            // a[(j, i)] as f64 offset
            let at = |j: usize| ap.add(2 * (j * n + i));
            // the step at column j with bit q clear / set, given the pair
            // x = a[(j & !mask, i)], y = a[(j | mask, i)]
            macro_rules! clear_step {
                ($j:expr, $x:expr, $y:expr) => {{
                    let p = cmul(_mm256_set_m128d($y, $x), c0r, c0i);
                    let s = _mm256_add_pd(p, cmul(_mm256_set_m128d($y, $y), d0r, d0i));
                    let e = _mm256_blend_pd(s, p, 0b1100);
                    let lre = _mm256_broadcast_sd(&*lrow.add(2 * $j));
                    let lim = _mm256_broadcast_sd(&*lrow.add(2 * $j + 1));
                    acc_tl = cmul_acc(acc_tl, e, lre, lim);
                }};
            }
            macro_rules! set_step {
                ($j:expr, $x:expr, $y:expr) => {{
                    let tp = _mm256_add_pd(
                        cmul(_mm256_set_m128d($x, $x), c1r, c1i),
                        cmul(_mm256_set_m128d($y, $y), d1r, d1i),
                    );
                    let e = _mm256_insertf128_pd(tp, cmul128($y, l3r, l3i), 1);
                    let lre = _mm256_broadcast_sd(&*lrow.add(2 * $j));
                    let lim = _mm256_broadcast_sd(&*lrow.add(2 * $j + 1));
                    acc_tl = cmul_acc(acc_tl, e, lre, lim);
                    acc_p = cmul_acc128(
                        acc_p,
                        _mm256_extractf128_pd(tp, 1),
                        _mm256_castpd256_pd128(lre),
                        _mm256_castpd256_pd128(lim),
                    );
                }};
            }
            if mask == 1 {
                // columns j and j + 1 share their pair: load it once
                for j in (0..n).step_by(2) {
                    let x = _mm_loadu_pd(at(j));
                    let y = _mm_loadu_pd(at(j + 1));
                    clear_step!(j, x, y);
                    set_step!(j + 1, x, y);
                }
            } else {
                for blk in (0..n).step_by(2 * mask) {
                    for j in blk..blk + mask {
                        clear_step!(j, _mm_loadu_pd(at(j)), _mm_loadu_pd(at(j | mask)));
                    }
                    for j in blk + mask..blk + 2 * mask {
                        set_step!(j, _mm_loadu_pd(at(j ^ mask)), _mm_loadu_pd(at(j)));
                    }
                }
            }
        }
        let mut out = [Complex64::ZERO; 3];
        let o = out.as_mut_ptr() as *mut f64;
        _mm_storeu_pd(o, _mm256_castpd256_pd128(acc_tl));
        _mm_storeu_pd(o.add(2), acc_p);
        _mm_storeu_pd(o.add(4), _mm256_extractf128_pd(acc_tl, 1));
        out
    }

    /// AVX2 [`crate::kernels::apply_1q_mat_left_into`], for power-of-two
    /// row and column counts. Panics on a host without AVX2+FMA.
    pub fn apply_1q_mat_left_into(dst: &mut Matrix, src: &Matrix, q: usize, u: &[Complex64; 4]) {
        assert_eq!((dst.rows(), dst.cols()), (src.rows(), src.cols()));
        assert!(src.rows().is_power_of_two() && 1 << q < src.rows());
        assert!(src.cols().is_power_of_two());
        assert!(super::simd_available());
        // SAFETY: the asserts above are mat_left_into_inner's requirements
        unsafe { mat_left_into_inner(dst, src, q, u) }
    }

    /// AVX2 [`crate::kernels::apply_1q_mat_right_dag`]. Panics on a host
    /// without AVX2+FMA.
    pub fn apply_1q_mat_right_dag(mat: &mut Matrix, q: usize, u: &[Complex64; 4]) {
        assert!(mat.cols().is_power_of_two() && 1 << q < mat.cols());
        assert!(super::simd_available());
        // SAFETY: the asserts above are mat_right_dag_inner's requirements
        unsafe { mat_right_dag_inner(mat, q, u) }
    }

    /// AVX2 [`crate::kernels::apply_1q_mat_right_dag_into`]. Panics on a
    /// host without AVX2+FMA.
    pub fn apply_1q_mat_right_dag_into(
        dst: &mut Matrix,
        src: &Matrix,
        q: usize,
        u: &[Complex64; 4],
    ) {
        assert_eq!((dst.rows(), dst.cols()), (src.rows(), src.cols()));
        assert!(src.cols().is_power_of_two() && 1 << q < src.cols());
        assert!(super::simd_available());
        // SAFETY: the asserts above are mat_right_dag_into_inner's
        // requirements
        unsafe { mat_right_dag_into_inner(dst, src, q, u) }
    }

    /// AVX2 [`crate::kernels::u3_partial_traces`]. Panics on a host without
    /// AVX2+FMA.
    pub fn u3_partial_traces(
        l: &Matrix,
        a: &Matrix,
        q: usize,
        dg: &[[Complex64; 4]; 3],
    ) -> [Complex64; 3] {
        let n = l.rows();
        assert!(n.is_power_of_two() && 1 << q < n);
        assert_eq!((l.cols(), a.rows(), a.cols()), (n, n, n));
        assert!(super::simd_available());
        // SAFETY: the asserts above are u3_partial_traces_inner's
        // requirements
        unsafe { u3_partial_traces_inner(l, a, q, dg) }
    }

    /// The diagonal entries `i0 .. i0 + 2W` of `L * R` as `W` vectors of two
    /// chains each, lane pair `t` of vector `v` holding entry `i0 + 2v + t`.
    /// Every chain steps over `k` in order with the scalar `mul_add`, and a
    /// lane whose `L[i, k]` is zero keeps its accumulator (a blend, so the
    /// skip is exact whatever `R` holds).
    ///
    /// # Safety
    /// The host must support AVX2; `lp` and `rp` must point at the `n x m`
    /// and `m x n` row-major data, with `i0 + 2W <= n`.
    #[inline(always)]
    unsafe fn trace_chains<const W: usize>(
        lp: *const f64,
        rp: *const f64,
        n: usize,
        m: usize,
        i0: usize,
    ) -> [__m256d; W] {
        let zero = _mm256_setzero_pd();
        let mut acc = [zero; W];
        for k in 0..m {
            for (v, acc) in acc.iter_mut().enumerate() {
                let i = i0 + 2 * v;
                // L[i, k] and L[i + 1, k] side by side, R[k, i..i + 2] loaded
                let a0 = _mm_loadu_pd(lp.add(2 * (i * m + k)));
                let a1 = _mm_loadu_pd(lp.add(2 * ((i + 1) * m + k)));
                let a = _mm256_set_m128d(a1, a0);
                let wr = _mm256_unpacklo_pd(a, a);
                let wi = _mm256_unpackhi_pd(a, a);
                let r = _mm256_loadu_pd(rp.add(2 * (k * n + i)));
                let eq = _mm256_cmp_pd(a, zero, _CMP_EQ_OQ);
                let skip = _mm256_and_pd(eq, swap_halves(eq));
                *acc = _mm256_blendv_pd(cmul_acc(*acc, r, wr, wi), *acc, skip);
            }
        }
        acc
    }

    /// # Safety
    /// The host must support AVX2+FMA; `l` must be `n x m` and `r` `m x n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn matmul_trace_inner(l: &Matrix, r: &Matrix) -> Complex64 {
        let (n, m) = (l.rows(), l.cols());
        let lp = l.data().as_ptr() as *const f64;
        let rp = r.data().as_ptr() as *const f64;
        let mut diag = [0.0f64; 4];
        let mut total = Complex64::ZERO;
        let mut fold = |vs: &[__m256d]| {
            for &v in vs {
                _mm256_storeu_pd(diag.as_mut_ptr(), v);
                total += Complex64::new(diag[0], diag[1]);
                total += Complex64::new(diag[2], diag[3]);
            }
        };
        let mut i0 = 0;
        // eight chains at a time keep the adder busy; pairs mop up the rest
        while i0 + 8 <= n {
            fold(&trace_chains::<4>(lp, rp, n, m, i0));
            i0 += 8;
        }
        while i0 + 2 <= n {
            fold(&trace_chains::<1>(lp, rp, n, m, i0));
            i0 += 2;
        }
        if i0 < n {
            let mut acc = Complex64::ZERO;
            for k in 0..m {
                let a = l.data()[i0 * m + k];
                if a != Complex64::ZERO {
                    acc = acc.mul_add(a, r.data()[k * n + i0]);
                }
            }
            total += acc;
        }
        total
    }

    /// AVX2 [`crate::kernels::matmul_trace_scalar`]. Panics on a host
    /// without AVX2+FMA.
    pub fn matmul_trace(l: &Matrix, r: &Matrix) -> Complex64 {
        assert_eq!((r.rows(), r.cols()), (l.cols(), l.rows()));
        assert!(super::simd_available());
        // SAFETY: the asserts above are matmul_trace_inner's requirements
        unsafe { matmul_trace_inner(l, r) }
    }

    /// The block exponential's 4x4 operations on AVX2: a row of four
    /// entries is two vectors, and every entry runs the scalar operation's
    /// own sequence of roundings ([`cmul`] for products, [`cmul_acc`] for
    /// `mul_add`).
    struct Avx4;

    /// Row `r` of a 4x4 array as two vectors.
    ///
    /// # Safety
    /// The host must support AVX.
    #[inline(always)]
    unsafe fn load_row(m: &M4, r: usize) -> [__m256d; 2] {
        let p = m.as_ptr().add(4 * r) as *const f64;
        [_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))]
    }

    /// Stores two vectors as row `r` of a 4x4 array.
    ///
    /// # Safety
    /// The host must support AVX.
    #[inline(always)]
    unsafe fn store_row(m: &mut M4, r: usize, row: [__m256d; 2]) {
        let p = m.as_mut_ptr().add(4 * r) as *mut f64;
        _mm256_storeu_pd(p, row[0]);
        _mm256_storeu_pd(p.add(4), row[1]);
    }

    impl Ops4 for Avx4 {
        #[inline(always)]
        unsafe fn matmul(a: &M4, b: &M4) -> M4 {
            // k outermost: the sixteen chains advance together, each over
            // k in order, skipping the k whose left entry is zero
            let mut acc = [[_mm256_setzero_pd(); 2]; 4];
            for k in 0..4 {
                let brow = load_row(b, k);
                for (i, acc) in acc.iter_mut().enumerate() {
                    let aik = a[i * 4 + k];
                    if aik == Complex64::ZERO {
                        continue;
                    }
                    let (wr, wi) = splat(aik);
                    acc[0] = cmul_acc(acc[0], brow[0], wr, wi);
                    acc[1] = cmul_acc(acc[1], brow[1], wr, wi);
                }
            }
            let mut out = [Complex64::ZERO; 16];
            for (i, row) in acc.into_iter().enumerate() {
                store_row(&mut out, i, row);
            }
            out
        }

        #[inline(always)]
        unsafe fn scale(a: &M4, k: Complex64) -> M4 {
            let (wr, wi) = splat(k);
            let mut out = [Complex64::ZERO; 16];
            for r in 0..4 {
                let row = load_row(a, r);
                store_row(&mut out, r, [cmul(row[0], wr, wi), cmul(row[1], wr, wi)]);
            }
            out
        }

        #[inline(always)]
        unsafe fn axpy(y: &mut M4, k: Complex64, x: &M4) {
            let (wr, wi) = splat(k);
            for r in 0..4 {
                let (yr, xr) = (load_row(y, r), load_row(x, r));
                let out = [
                    cmul_acc(yr[0], xr[0], wr, wi),
                    cmul_acc(yr[1], xr[1], wr, wi),
                ];
                store_row(y, r, out);
            }
        }

        #[inline(always)]
        unsafe fn scale_row(m: &mut M4, r: usize, k: Complex64) {
            let (wr, wi) = splat(k);
            let row = load_row(m, r);
            store_row(m, r, [cmul(row[0], wr, wi), cmul(row[1], wr, wi)]);
        }

        #[inline(always)]
        unsafe fn sub_scaled_row(m: &mut M4, r: usize, f: Complex64, src: &[Complex64; 4]) {
            let (wr, wi) = splat(f);
            let p = src.as_ptr() as *const f64;
            let s = [_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))];
            let row = load_row(m, r);
            let out = [
                _mm256_sub_pd(row[0], cmul(s[0], wr, wi)),
                _mm256_sub_pd(row[1], cmul(s[1], wr, wi)),
            ];
            store_row(m, r, out);
        }
    }

    /// # Safety
    /// The host must support AVX2+FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn expm_i_su4_inner(basis: &[M4; 15], coeffs: &[f64]) -> M4 {
        expm_i_su4_with::<Avx4>(basis, coeffs)
    }

    /// AVX2 [`crate::expm::expm_i_su4`]. Panics on a host without AVX2+FMA.
    pub fn expm_i_su4(basis: &[[Complex64; 16]; 15], coeffs: &[f64]) -> [Complex64; 16] {
        assert!(super::simd_available());
        // SAFETY: the host supports AVX2+FMA (asserted above)
        unsafe { expm_i_su4_inner(basis, coeffs) }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn scale_inner(state: &mut [Complex64], s: f64) {
        // each f64 is multiplied by `s` exactly once — identical per-element
        // operations to the scalar loop, so width never changes the result
        let n2 = state.len() * 2;
        let p = state.as_mut_ptr() as *mut f64;
        let vs = _mm256_set1_pd(s);
        let mut i = 0usize;
        while i + 8 <= n2 {
            let a = _mm256_loadu_pd(p.add(i));
            let b = _mm256_loadu_pd(p.add(i + 4));
            _mm256_storeu_pd(p.add(i), _mm256_mul_pd(a, vs));
            _mm256_storeu_pd(p.add(i + 4), _mm256_mul_pd(b, vs));
            i += 8;
        }
        while i < n2 {
            *p.add(i) *= s;
            i += 1;
        }
    }

    /// AVX2 [`crate::kernels::scale`]. Caller must ensure the host supports
    /// AVX2+FMA.
    pub fn scale(state: &mut [Complex64], s: f64) {
        debug_assert!(super::simd_available());
        unsafe { scale_inner(state, s) }
    }
}
