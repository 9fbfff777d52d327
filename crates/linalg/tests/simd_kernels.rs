//! Property tests for the SIMD kernel dispatch: the AVX2 kernels must be
//! **bit-identical** to the scalar blocked kernels on random states and
//! random (non-unitary) gate matrices, across every qubit position — in
//! particular the block-boundary cases (qubit 0, qubit 1, the top qubit,
//! and adjacent pairs) where the vector lane layout changes shape.
//!
//! The shot loop's prescaled sweeps are held to their scalar FMA references
//! in both modes (storing and norm-only), with the identity prescale,
//! renormalization-sized ones and a large one, on random matrices and on
//! matrices with exact and signed zeros like the fused CX/ZZ products of a
//! TFIM chain; their stores are held to the blocked gate kernels on the
//! prescaled state to rounding.
//!
//! The instantiation kernels (the chain updates, in place and out of place,
//! and the fused U3 gradient traces) are held to the same contract on matrices of dimension
//! 2 to 16, at every qubit position, on inputs seeded with exact and signed
//! zeros.
//!
//! Run twice in CI: once with detection on (exercises AVX2 on x86 runners)
//! and once with `QAPROX_SIMD=0` (pins the forced-scalar dispatch).

use qaprox_linalg::kernels::{
    apply_1q_mat_left_into_scalar, apply_1q_mat_right_dag_into_scalar,
    apply_1q_mat_right_dag_scalar, apply_1q_vec_blocked, apply_1q_vec_blocked_scalar,
    apply_2q_vec_blocked, apply_2q_vec_blocked_scalar, matmul_trace_scalar, scale, scale_scalar,
    sweep_1q, sweep_1q_scalar, sweep_2q, sweep_2q_scalar, u3_partial_traces_scalar, Sweep,
};
use qaprox_linalg::{
    c64, kernel_dispatch, selected_kernel, simd_available, Complex64, KernelDispatch, Matrix, Rng,
    SplitMix64,
};

fn random_state(n: usize, rng: &mut SplitMix64) -> Vec<Complex64> {
    (0..1usize << n)
        .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

fn random_mat2(rng: &mut SplitMix64) -> [Complex64; 4] {
    std::array::from_fn(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
}

fn random_mat4(rng: &mut SplitMix64) -> [Complex64; 16] {
    std::array::from_fn(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
}

/// Bitwise equality, so that even a +0.0 / -0.0 or NaN-payload difference
/// (invisible to `==`) would fail the suite.
fn assert_bits_eq(a: &[Complex64], b: &[Complex64], ctx: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "amplitude {i} differs: {ctx}"
        );
    }
}

#[test]
fn dispatch_selects_a_known_kernel() {
    let name = selected_kernel();
    assert!(
        name == "simd" || name == "scalar",
        "unexpected kernel {name}"
    );
    // QAPROX_SIMD=0 must force scalar; otherwise an AVX2 host selects simd.
    if std::env::var("QAPROX_SIMD").is_ok_and(|v| v.trim() == "0") {
        assert_eq!(name, "scalar");
    } else if simd_available() {
        assert_eq!(name, "simd");
    } else {
        assert_eq!(name, "scalar");
    }
}

#[test]
fn dispatched_apply_1q_is_bit_identical_to_scalar() {
    let mut rng = SplitMix64::seed_from_u64(0x51D0_0001);
    for n in 1..=9 {
        for rep in 0..3 {
            let state = random_state(n, &mut rng);
            let u = random_mat2(&mut rng);
            for q in 0..n {
                let mut via_dispatch = state.clone();
                let mut via_scalar = state.clone();
                apply_1q_vec_blocked(&mut via_dispatch, q, &u);
                apply_1q_vec_blocked_scalar(&mut via_scalar, q, &u);
                assert_bits_eq(
                    &via_dispatch,
                    &via_scalar,
                    &format!("apply_1q n={n} q={q} rep={rep}"),
                );
            }
        }
    }
}

#[test]
fn dispatched_apply_2q_is_bit_identical_to_scalar() {
    let mut rng = SplitMix64::seed_from_u64(0x51D0_0002);
    for n in 2..=7 {
        for rep in 0..2 {
            let state = random_state(n, &mut rng);
            let u = random_mat4(&mut rng);
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let mut via_dispatch = state.clone();
                    let mut via_scalar = state.clone();
                    apply_2q_vec_blocked(&mut via_dispatch, a, b, &u);
                    apply_2q_vec_blocked_scalar(&mut via_scalar, a, b, &u);
                    assert_bits_eq(
                        &via_dispatch,
                        &via_scalar,
                        &format!("apply_2q n={n} a={a} b={b} rep={rep}"),
                    );
                }
            }
        }
    }
}

/// A random state whose parts are, one time in three, a signed zero when
/// `sparse`, so the prescale meets exact zeros of both signs.
fn sweep_state(n: usize, sparse: bool, rng: &mut SplitMix64) -> Vec<Complex64> {
    if sparse {
        (0..1usize << n).map(|_| sparse_c64(rng)).collect()
    } else {
        random_state(n, rng)
    }
}

/// One-qubit matrices with exact and signed zeros: sparse random entries,
/// a fused `X * Rz` (exact zeros on the diagonal) and its negation (the
/// zeros turn `-0.0`).
fn zero_heavy_mat2s(rng: &mut SplitMix64) -> Vec<[Complex64; 4]> {
    let t: f64 = rng.gen_range(-3.0..3.0);
    let z = Complex64::ZERO;
    let x_rz = [z, Complex64::cis(t), Complex64::cis(-t), z];
    vec![
        std::array::from_fn(|_| sparse_c64(rng)),
        x_rz,
        x_rz.map(|w| w * -1.0),
    ]
}

/// Two-qubit matrices with exact and signed zeros, shaped like the fused
/// CX/ZZ products on TFIM chains: sparse random entries, `CX * ZZ(t)`
/// (a permutation with phases, twelve exact zeros) and its negation.
fn zero_heavy_mat4s(rng: &mut SplitMix64) -> Vec<[Complex64; 16]> {
    let t: f64 = rng.gen_range(-3.0..3.0);
    let zz = [-t, t, t, -t].map(Complex64::cis);
    // CX on (a, b) maps small index 2 <-> 3, so row r of CX * ZZ holds
    // ZZ's entry in column cx[r]
    let cx = [0usize, 1, 3, 2];
    let cx_zz: [Complex64; 16] = std::array::from_fn(|k| {
        let (r, c) = (k / 4, k % 4);
        if c == cx[r] {
            zz[c]
        } else {
            Complex64::ZERO
        }
    });
    vec![
        std::array::from_fn(|_| sparse_c64(rng)),
        cx_zz,
        cx_zz.map(|w| w * -1.0),
    ]
}

/// Holds one sweep entry to its scalar reference by `to_bits`: the
/// norm-only sweep must leave the state untouched and return the
/// reference's norm, and the storing sweep must return that same norm and
/// store the reference's amplitudes. Those amplitudes must also lie within
/// `tol` of `applied`, the blocked gate kernel's result on the prescaled
/// state, part by part.
fn check_sweep_pair(
    sweep: impl Fn(&mut [Complex64], Sweep) -> f64,
    reference: impl Fn(&mut [Complex64], Sweep) -> f64,
    state: &[Complex64],
    applied: &[Complex64],
    tol: f64,
    ctx: &str,
) {
    let mut probe = state.to_vec();
    let norm = sweep(&mut probe, Sweep::NormOnly);
    assert_bits_eq(&probe, state, &format!("norm-only wrote {ctx}"));
    let mut sc = state.to_vec();
    let sc_norm = reference(&mut sc, Sweep::NormOnly);
    assert_eq!(norm.to_bits(), sc_norm.to_bits(), "norm {ctx}");
    let stored = sweep(&mut probe, Sweep::Store);
    let sc_stored = reference(&mut sc, Sweep::Store);
    assert_eq!(stored.to_bits(), norm.to_bits(), "store {ctx}");
    assert_eq!(sc_stored.to_bits(), norm.to_bits(), "scalar store {ctx}");
    assert_bits_eq(&probe, &sc, &format!("store {ctx}"));
    for (i, (x, y)) in probe.iter().zip(applied).enumerate() {
        let err = (x.re - y.re).abs().max((x.im - y.im).abs());
        assert!(
            err <= tol,
            "store vs apply: amplitude {i} off by {err:e} > {tol:e}: {ctx}"
        );
    }
}

/// The bound on a stored amplitude's distance from the blocked gate
/// kernel's on the prescaled state. Each output part is a sum of at most
/// eight real products no larger than `pre * max|u| * max|amp|`, rounded
/// in a different order on each side, so the bound scales with the terms
/// rather than with the result: cancellation in a random matrix cannot
/// make it flaky, and a misplaced or missing store still fails it.
fn sweep_tol(pre: f64, u: &[Complex64], state: &[Complex64]) -> f64 {
    let max_abs = |zs: &[Complex64]| zs.iter().fold(0.0f64, |m, z| m.max(z.abs()));
    256.0 * f64::EPSILON * pre * max_abs(u) * max_abs(state)
}

/// Holds `kernels`' sweep entries to [`sweep_1q_scalar`] and
/// [`sweep_2q_scalar`] by `to_bits` at every qubit and ordered pair of 1-8
/// qubit states (dense and with signed-zero parts), in both modes, on a
/// random matrix and on matrices with exact and signed zeros, with `pre`
/// 1.0, 0.75, 1e6 and a random one. Each storing sweep is also held, to
/// rounding ([`sweep_tol`]), to the scalar blocked gate kernel on the
/// prescaled state, an oracle independent of both sweep tables.
fn check_sweeps(kernels: &KernelDispatch, seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let name = kernels.name;
    for n in 1..=8usize {
        for sparse in [false, true] {
            let state = sweep_state(n, sparse, &mut rng);
            let mut u1s = vec![random_mat2(&mut rng)];
            u1s.extend(zero_heavy_mat2s(&mut rng));
            let mut u2s = vec![random_mat4(&mut rng)];
            u2s.extend(zero_heavy_mat4s(&mut rng));
            for pre in [1.0, 0.75, 1e6, rng.gen_range(0.5..2.0)] {
                let mut prescaled = state.clone();
                scale_scalar(&mut prescaled, pre);
                for (m, u1) in u1s.iter().enumerate() {
                    let tol = sweep_tol(pre, u1, &state);
                    for q in 0..n {
                        let mut applied = prescaled.clone();
                        apply_1q_vec_blocked_scalar(&mut applied, q, u1);
                        check_sweep_pair(
                            |s, mode| (kernels.sweep_1q)(s, q, u1, pre, mode),
                            |s, mode| sweep_1q_scalar(s, q, u1, pre, mode),
                            &state,
                            &applied,
                            tol,
                            &format!("1q {name} n={n} sparse={sparse} pre={pre} u={m} q={q}"),
                        );
                    }
                }
                for (m, u2) in u2s.iter().enumerate() {
                    let tol = sweep_tol(pre, u2, &state);
                    for a in 0..n {
                        for b in (0..n).filter(|&b| b != a) {
                            let mut applied = prescaled.clone();
                            apply_2q_vec_blocked_scalar(&mut applied, a, b, u2);
                            check_sweep_pair(
                                |s, mode| (kernels.sweep_2q)(s, a, b, u2, pre, mode),
                                |s, mode| sweep_2q_scalar(s, a, b, u2, pre, mode),
                                &state,
                                &applied,
                                tol,
                                &format!(
                                    "2q {name} n={n} sparse={sparse} pre={pre} u={m} a={a} b={b}"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dispatched_norms_are_bit_identical_to_scalar() {
    check_sweeps(kernel_dispatch(), 0x51D0_0003);
}

#[test]
fn avx2_kernels_bit_identical_when_available() {
    // Direct exercise of the AVX2 module (not just whatever dispatch picked),
    // so this leg is meaningful even under QAPROX_SIMD=0.
    #[cfg(target_arch = "x86_64")]
    {
        if !simd_available() {
            return;
        }
        use qaprox_linalg::simd::avx2;
        let mut rng = SplitMix64::seed_from_u64(0x51D0_0004);
        for n in 1..=8 {
            let state = random_state(n, &mut rng);
            let s = rng.gen_range(0.25..4.0);
            let mut vec_scaled = state.clone();
            let mut sc_scaled = state.clone();
            avx2::scale(&mut vec_scaled, s);
            scale_scalar(&mut sc_scaled, s);
            assert_bits_eq(&vec_scaled, &sc_scaled, &format!("avx2 scale n={n}"));
            let u1 = random_mat2(&mut rng);
            for q in 0..n {
                let mut vec_out = state.clone();
                let mut sc_out = state.clone();
                avx2::apply_1q_vec_blocked(&mut vec_out, q, &u1);
                apply_1q_vec_blocked_scalar(&mut sc_out, q, &u1);
                assert_bits_eq(&vec_out, &sc_out, &format!("avx2 1q n={n} q={q}"));
            }
            if n >= 2 {
                let u2 = random_mat4(&mut rng);
                for a in 0..n {
                    for b in 0..n {
                        if a == b {
                            continue;
                        }
                        let mut vec_out = state.clone();
                        let mut sc_out = state.clone();
                        avx2::apply_2q_vec_blocked(&mut vec_out, a, b, &u2);
                        apply_2q_vec_blocked_scalar(&mut sc_out, a, b, &u2);
                        assert_bits_eq(&vec_out, &sc_out, &format!("avx2 2q n={n} a={a} b={b}"));
                    }
                }
            }
        }
        check_sweeps(KernelDispatch::simd().expect("avx2 available"), 0x51D0_0007);
    }
}

#[test]
fn dispatched_scale_is_bit_identical_to_scalar() {
    let mut rng = SplitMix64::seed_from_u64(0x51D0_0006);
    // odd-dim slices too: the vector kernel's tail loop must match
    for len in [1usize, 2, 3, 7, 8, 64, 65, 257] {
        let state: Vec<Complex64> = (0..len)
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let s = rng.gen_range(0.25..4.0);
        let mut via_dispatch = state.clone();
        let mut via_scalar = state;
        scale(&mut via_dispatch, s);
        scale_scalar(&mut via_scalar, s);
        assert_bits_eq(&via_dispatch, &via_scalar, &format!("scale len={len}"));
    }
}

#[test]
fn norm_kernels_still_match_apply_then_sum() {
    // Sanity anchor: the structural-lane norms agree (to rounding) with
    // applying the gate and summing |amp|^2 the naive way.
    let mut rng = SplitMix64::seed_from_u64(0x51D0_0005);
    let n = 6;
    let mut state = random_state(n, &mut rng);
    let u1 = random_mat2(&mut rng);
    let u2 = random_mat4(&mut rng);
    for q in 0..n {
        let mut applied = state.clone();
        apply_1q_vec_blocked(&mut applied, q, &u1);
        let expect: f64 = applied.iter().map(|z| z.norm_sqr()).sum();
        let got = sweep_1q(&mut state, q, &u1, 1.0, Sweep::NormOnly);
        assert!((got - expect).abs() <= 1e-11 * expect.abs().max(1.0));
    }
    for (a, b) in [(0usize, 1usize), (1, 0), (0, 5), (5, 0), (2, 4), (4, 1)] {
        let mut applied = state.clone();
        apply_2q_vec_blocked(&mut applied, a, b, &u2);
        let expect: f64 = applied.iter().map(|z| z.norm_sqr()).sum();
        let got = sweep_2q(&mut state, a, b, &u2, 1.0, Sweep::NormOnly);
        assert!((got - expect).abs() <= 1e-11 * expect.abs().max(1.0));
    }
}

/// A random complex whose parts are, one time in three each, `+0.0` or
/// `-0.0`, so exact zeros of both signs flow through every product and sum.
fn sparse_c64(rng: &mut SplitMix64) -> Complex64 {
    let mut part = || match rng.gen_range(0..6usize) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-1.0..1.0),
    };
    c64(part(), part())
}

fn sparse_matrix(rows: usize, cols: usize, rng: &mut SplitMix64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| sparse_c64(rng)).collect(),
    )
}

/// U3-shaped partials `[dG/dtheta, dG/dphi, dG/dlambda]` with sparse entries;
/// the structural zeros (first row of `dG/dphi`, first column of
/// `dG/dlambda`) are NaN, so a kernel that read them would show it.
fn sparse_partials(rng: &mut SplitMix64) -> [[Complex64; 4]; 3] {
    let nan = c64(f64::NAN, f64::NAN);
    let mut dg: [[Complex64; 4]; 3] =
        std::array::from_fn(|_| std::array::from_fn(|_| sparse_c64(rng)));
    dg[1][0] = nan;
    dg[1][1] = nan;
    dg[2][0] = nan;
    dg[2][2] = nan;
    dg
}

/// Holds `kernels`' instantiation entries to the scalar references by
/// `to_bits` at dimensions 2 to 16 and every qubit position.
fn check_instantiation_kernels(kernels: &KernelDispatch, seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let name = kernels.name;
    for n in 1..=4usize {
        let dim = 1usize << n;
        for rep in 0..6 {
            let src = sparse_matrix(dim, dim, &mut rng);
            let l = sparse_matrix(dim, dim, &mut rng);
            let u = std::array::from_fn(|_| sparse_c64(&mut rng));
            let dg = sparse_partials(&mut rng);
            for q in 0..n {
                let ctx = format!("{name} dim={dim} q={q} rep={rep}");
                let mut via = Matrix::zeros(dim, dim);
                let mut sc = Matrix::zeros(dim, dim);
                (kernels.apply_1q_mat_left_into)(&mut via, &src, q, &u);
                apply_1q_mat_left_into_scalar(&mut sc, &src, q, &u);
                assert_bits_eq(via.data(), sc.data(), &format!("left_into {ctx}"));

                // the suffix chain is square; the in-place kernel
                // accepts any row count
                for rows in [dim, 3] {
                    let m = sparse_matrix(rows, dim, &mut rng);
                    let mut via = m.clone();
                    let mut sc = m.clone();
                    (kernels.apply_1q_mat_right_dag)(&mut via, q, &u);
                    apply_1q_mat_right_dag_scalar(&mut sc, q, &u);
                    assert_bits_eq(
                        via.data(),
                        sc.data(),
                        &format!("right_dag rows={rows} {ctx}"),
                    );
                    // the out-of-place form writes the in-place result's bits
                    let mut via = Matrix::zeros(rows, dim);
                    let mut sc_into = Matrix::zeros(rows, dim);
                    (kernels.apply_1q_mat_right_dag_into)(&mut via, &m, q, &u);
                    apply_1q_mat_right_dag_into_scalar(&mut sc_into, &m, q, &u);
                    let ctx = format!("right_dag_into rows={rows} {ctx}");
                    assert_bits_eq(via.data(), sc_into.data(), &ctx);
                    assert_bits_eq(sc_into.data(), sc.data(), &ctx);
                }

                let via = (kernels.u3_partial_traces)(&l, &src, q, &dg);
                let sc = u3_partial_traces_scalar(&l, &src, q, &dg);
                assert_bits_eq(&via, &sc, &format!("u3_partial_traces {ctx}"));
                assert!(
                    sc.iter().all(|z| z.is_finite()),
                    "a structural zero was read: {ctx}"
                );
            }
        }
    }
}

#[test]
fn dispatched_instantiation_kernels_are_bit_identical_to_scalar() {
    check_instantiation_kernels(kernel_dispatch(), 0x51D0_0007);
}

#[test]
fn avx2_instantiation_kernels_bit_identical_when_available() {
    // the AVX2 table directly, so this leg is meaningful under QAPROX_SIMD=0
    if let Some(simd) = KernelDispatch::simd() {
        check_instantiation_kernels(simd, 0x51D0_0008);
    }
}

/// Holds `kernels.matmul_trace` to the scalar reference by `to_bits` on
/// sparse `n x m` by `m x n` products: every chain-block shape (eight, two
/// and one chains) and the signed zeros the skipped entries must not touch.
/// Infinite right-hand entries under zero left-hand ones would turn a
/// product into NaN, so they show a skip that was not taken.
fn check_trace_kernel(kernels: &KernelDispatch, seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 16, 19, 32] {
        for m in [1usize, 2, 3, 8, 16] {
            for rep in 0..4 {
                let l = sparse_matrix(n, m, &mut rng);
                let mut r = sparse_matrix(m, n, &mut rng);
                if rep == 3 {
                    for i in 0..n {
                        for k in 0..m {
                            if l[(i, k)] == Complex64::ZERO {
                                r[(k, i)] = c64(f64::INFINITY, f64::NEG_INFINITY);
                            }
                        }
                    }
                }
                let via = (kernels.matmul_trace)(&l, &r);
                let sc = matmul_trace_scalar(&l, &r);
                let ctx = format!("{} matmul_trace n={n} m={m} rep={rep}", kernels.name);
                assert_bits_eq(&[via], &[sc], &ctx);
            }
        }
    }
}

#[test]
fn dispatched_matmul_trace_is_bit_identical_to_scalar() {
    check_trace_kernel(kernel_dispatch(), 0x7ACE_0001);
}

#[test]
fn avx2_matmul_trace_bit_identical_when_available() {
    if let Some(simd) = KernelDispatch::simd() {
        check_trace_kernel(simd, 0x7ACE_0002);
    }
}

// The AVX2 statevector wrappers are safe functions over unsafe pointer
// loops, so bad input must panic in release builds too. Their bounds checks
// run before the AVX2 check, so these panic on the bounds on every x86_64
// host and never reach the vector code.

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "qubit index out of range")]
fn avx2_apply_1q_rejects_an_out_of_range_qubit() {
    let mut state = vec![Complex64::ZERO; 8];
    qaprox_linalg::simd::avx2::apply_1q_vec_blocked(&mut state, 3, &[Complex64::ONE; 4]);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "state length must be a power of two")]
fn avx2_apply_2q_rejects_a_non_power_of_two_state() {
    let mut state = vec![Complex64::ZERO; 12];
    qaprox_linalg::simd::avx2::apply_2q_vec_blocked(&mut state, 0, 1, &[Complex64::ONE; 16]);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "two-qubit gate needs distinct qubits")]
fn avx2_apply_2q_rejects_a_repeated_qubit() {
    let mut state = vec![Complex64::ZERO; 8];
    qaprox_linalg::simd::avx2::apply_2q_vec_blocked(&mut state, 1, 1, &[Complex64::ONE; 16]);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "qubit index out of range")]
fn avx2_norm_1q_rejects_a_qubit_past_the_word_size() {
    // 1 << 64 wraps to 1 in release arithmetic, which would pass a bare
    // `1 << q < len` check
    let mut state = vec![Complex64::ZERO; 8];
    let q = usize::BITS as usize;
    let u = [Complex64::ONE; 4];
    qaprox_linalg::simd::avx2::sweep_1q(&mut state, q, &u, 1.0, Sweep::NormOnly);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "qubit index out of range")]
fn avx2_norm_2q_rejects_an_out_of_range_qubit() {
    let mut state = vec![Complex64::ZERO; 16];
    let u = [Complex64::ONE; 16];
    qaprox_linalg::simd::avx2::sweep_2q(&mut state, 0, 4, &u, 1.0, Sweep::NormOnly);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "state length must be a power of two")]
fn avx2_sweep_1q_rejects_a_non_power_of_two_state() {
    let mut state = vec![Complex64::ZERO; 6];
    let u = [Complex64::ONE; 4];
    qaprox_linalg::simd::avx2::sweep_1q(&mut state, 1, &u, 0.5, Sweep::Store);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "qubit index out of range")]
fn avx2_sweep_1q_rejects_an_out_of_range_qubit() {
    let mut state = vec![Complex64::ZERO; 8];
    let u = [Complex64::ONE; 4];
    qaprox_linalg::simd::avx2::sweep_1q(&mut state, 3, &u, 0.5, Sweep::Store);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "two-qubit gate needs distinct qubits")]
fn avx2_sweep_2q_rejects_a_repeated_qubit() {
    let mut state = vec![Complex64::ZERO; 8];
    let u = [Complex64::ONE; 16];
    qaprox_linalg::simd::avx2::sweep_2q(&mut state, 2, 2, &u, 0.5, Sweep::Store);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "state length must be a power of two")]
fn avx2_sweep_2q_rejects_a_non_power_of_two_state() {
    let mut state = vec![Complex64::ZERO; 24];
    let u = [Complex64::ONE; 16];
    qaprox_linalg::simd::avx2::sweep_2q(&mut state, 0, 1, &u, 0.5, Sweep::NormOnly);
}
