//! Property-style tests for the linear-algebra substrate, driven by the
//! in-repo seeded RNG: each case loops over many deterministic samples.

use qaprox_linalg::matrix::Matrix;
use qaprox_linalg::random::{haar_unitary, Rng, SplitMix64};
use qaprox_linalg::{c64, expm, invert, u3_matrix, zyz_decompose, Complex64};

const CASES: usize = 48;

fn small_matrix(n: usize, rng: &mut SplitMix64) -> Matrix {
    let data: Vec<Complex64> = (0..n * n)
        .map(|_| c64(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
        .collect();
    Matrix::from_vec(n, n, data)
}

fn angle(rng: &mut SplitMix64) -> f64 {
    rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI)
}

#[test]
fn matmul_is_associative() {
    let mut rng = SplitMix64::seed_from_u64(1);
    for _ in 0..CASES {
        let (a, b, c) = (
            small_matrix(3, &mut rng),
            small_matrix(3, &mut rng),
            small_matrix(3, &mut rng),
        );
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.approx_eq(&right, 1e-9 * (1.0 + left.fro_norm())));
    }
}

#[test]
fn adjoint_is_an_involution() {
    let mut rng = SplitMix64::seed_from_u64(2);
    for _ in 0..CASES {
        let a = small_matrix(4, &mut rng);
        assert!(a.adjoint().adjoint().approx_eq(&a, 1e-12));
    }
}

#[test]
fn adjoint_reverses_products() {
    let mut rng = SplitMix64::seed_from_u64(3);
    for _ in 0..CASES {
        let (a, b) = (small_matrix(3, &mut rng), small_matrix(3, &mut rng));
        let lhs = a.matmul(&b).adjoint();
        let rhs = b.adjoint().matmul(&a.adjoint());
        assert!(lhs.approx_eq(&rhs, 1e-9 * (1.0 + lhs.fro_norm())));
    }
}

#[test]
fn kron_respects_mixed_product() {
    let mut rng = SplitMix64::seed_from_u64(4);
    for _ in 0..CASES {
        let (a, b, c, d) = (
            small_matrix(2, &mut rng),
            small_matrix(2, &mut rng),
            small_matrix(2, &mut rng),
            small_matrix(2, &mut rng),
        );
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-8 * (1.0 + lhs.fro_norm())));
    }
}

#[test]
fn trace_is_linear() {
    let mut rng = SplitMix64::seed_from_u64(5);
    for _ in 0..CASES {
        let (a, b) = (small_matrix(3, &mut rng), small_matrix(3, &mut rng));
        let k: f64 = rng.gen_range(-2.0..2.0);
        let mut combo = a.scale_re(k);
        combo.axpy(Complex64::ONE, &b);
        let direct = combo.trace();
        let split = a.trace() * k + b.trace();
        assert!((direct - split).abs() < 1e-10);
    }
}

#[test]
fn u3_matrices_are_unitary() {
    let mut rng = SplitMix64::seed_from_u64(6);
    for _ in 0..CASES {
        let (theta, phi, lambda) = (angle(&mut rng), angle(&mut rng), angle(&mut rng));
        assert!(u3_matrix(theta, phi, lambda).is_unitary(1e-12));
    }
}

#[test]
fn zyz_round_trips_haar_unitaries() {
    for seed in 0..CASES as u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let u = haar_unitary(2, &mut rng);
        let z = zyz_decompose(&u);
        assert!(z.to_matrix().approx_eq(&u, 1e-9), "seed {seed}");
    }
}

#[test]
fn inverse_round_trips_when_well_conditioned() {
    let mut rng = SplitMix64::seed_from_u64(7);
    for _ in 0..CASES {
        // shift the diagonal to guarantee nonsingularity
        let mut shifted = small_matrix(3, &mut rng);
        for i in 0..3 {
            shifted[(i, i)] += c64(10.0, 0.0);
        }
        let inv = invert(&shifted).unwrap();
        assert!(shifted.matmul(&inv).approx_eq(&Matrix::identity(3), 1e-8));
    }
}

#[test]
fn expm_of_skew_hermitian_is_unitary() {
    use qaprox_linalg::matrix::{pauli_x, pauli_y, pauli_z};
    let mut rng = SplitMix64::seed_from_u64(8);
    for _ in 0..CASES {
        // H = x X + y Y + z Z; exp(iH) must be unitary
        let (x, y, z): (f64, f64, f64) = (
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
        );
        let mut h = pauli_x().scale_re(x);
        h.axpy(c64(y, 0.0), &pauli_y());
        h.axpy(c64(z, 0.0), &pauli_z());
        let u = expm(&h.scale(Complex64::I));
        assert!(u.is_unitary(1e-9));
        // and exp(iH) exp(-iH) = I
        let v = expm(&h.scale(c64(0.0, -1.0)));
        assert!(u.matmul(&v).approx_eq(&Matrix::identity(2), 1e-9));
    }
}

#[test]
fn haar_unitaries_preserve_norms() {
    for seed in 0..CASES as u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = 1usize << rng.gen_range(1usize..4);
        let u = haar_unitary(n, &mut rng);
        let v = qaprox_linalg::random::random_statevector(n, &mut rng);
        let w = u.matvec(&v);
        let norm: f64 = w.iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn complex_field_axioms() {
    let mut rng = SplitMix64::seed_from_u64(10);
    for _ in 0..CASES {
        let a = c64(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0));
        let b = c64(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0));
        assert!(((a + b) - (b + a)).abs() < 1e-12);
        assert!(((a * b) - (b * a)).abs() < 1e-12);
        assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-12);
        assert!((a.abs() * b.abs() - (a * b).abs()).abs() < 1e-9);
    }
}
