//! One-qubit unitary decompositions.
//!
//! Every 2x2 unitary factors as `U = e^{i alpha} U3(theta, phi, lambda)` —
//! the ZYZ Euler decomposition in IBM's U3 convention. The transpiler uses
//! this to fuse runs of one-qubit gates back into a single U3, and synthesis
//! uses it to express optimized blocks in the native basis.

use crate::complex::{c64, Complex64};
use crate::matrix::Matrix;

/// Euler angles of a one-qubit unitary: `U = e^{i alpha} U3(theta, phi, lambda)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zyz {
    /// Polar rotation angle.
    pub theta: f64,
    /// First phase angle.
    pub phi: f64,
    /// Second phase angle.
    pub lambda: f64,
    /// Global phase.
    pub alpha: f64,
}

/// Builds the U3 gate matrix in IBM's convention:
///
/// ```text
/// U3(t, p, l) = [ cos(t/2)            -e^{il} sin(t/2)      ]
///               [ e^{ip} sin(t/2)      e^{i(p+l)} cos(t/2)  ]
/// ```
pub fn u3_matrix(theta: f64, phi: f64, lambda: f64) -> Matrix {
    let (ct, st) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    Matrix::from_rows(&[
        &[c64(ct, 0.0), -Complex64::cis(lambda) * st],
        &[Complex64::cis(phi) * st, Complex64::cis(phi + lambda) * ct],
    ])
}

/// [`u3_matrix`] as the fixed-size row-major array the gate kernels take —
/// no heap allocation, for the synthesis hot path.
pub fn u3_array(theta: f64, phi: f64, lambda: f64) -> [Complex64; 4] {
    let (ct, st) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [
        c64(ct, 0.0),
        -Complex64::cis(lambda) * st,
        Complex64::cis(phi) * st,
        Complex64::cis(phi + lambda) * ct,
    ]
}

/// Decomposes a 2x2 unitary into ZYZ Euler angles plus global phase.
///
/// # Panics
/// Panics if `u` is not 2x2. The result is only meaningful for (near-)unitary
/// input.
pub fn zyz_decompose(u: &Matrix) -> Zyz {
    assert_eq!((u.rows(), u.cols()), (2, 2), "zyz_decompose expects 2x2");
    let u00 = u[(0, 0)];
    let u01 = u[(0, 1)];
    let u10 = u[(1, 0)];
    let u11 = u[(1, 1)];

    let cos_half = u00.abs();
    let sin_half = u10.abs();
    let theta = 2.0 * sin_half.atan2(cos_half);

    const EPS: f64 = 1e-12;
    let (alpha, phi, lambda);
    if sin_half < EPS {
        // Diagonal-dominant: theta ~ 0, phases split arbitrarily -> phi = 0.
        alpha = u00.arg();
        phi = 0.0;
        lambda = u11.arg() - alpha;
    } else if cos_half < EPS {
        // Anti-diagonal: theta ~ pi, choose lambda = 0.
        lambda = 0.0;
        alpha = (-u01).arg();
        phi = u10.arg() - alpha;
    } else {
        alpha = u00.arg();
        phi = u10.arg() - alpha;
        lambda = (-u01).arg() - alpha;
    }
    Zyz {
        theta,
        phi,
        lambda,
        alpha,
    }
}

impl Zyz {
    /// Reconstructs the full 2x2 unitary `e^{i alpha} U3(theta, phi, lambda)`.
    pub fn to_matrix(&self) -> Matrix {
        u3_matrix(self.theta, self.phi, self.lambda).scale(Complex64::cis(self.alpha))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{pauli_x, pauli_y, pauli_z};
    use crate::random::haar_unitary;
    use crate::random::SplitMix64 as StdRng;

    fn assert_round_trip(u: &Matrix, tol: f64) {
        let zyz = zyz_decompose(u);
        let back = zyz.to_matrix();
        assert!(
            back.approx_eq(u, tol),
            "round trip failed: {zyz:?}\noriginal {u:?}\nreconstructed {back:?}"
        );
    }

    #[test]
    fn u3_matrix_is_unitary() {
        for &(t, p, l) in &[
            (0.0, 0.0, 0.0),
            (1.0, 2.0, 3.0),
            (std::f64::consts::PI, -0.5, 0.7),
        ] {
            assert!(u3_matrix(t, p, l).is_unitary(1e-13));
        }
    }

    #[test]
    fn identity_decomposes_trivially() {
        let zyz = zyz_decompose(&Matrix::identity(2));
        assert!(zyz.theta.abs() < 1e-12);
        assert_round_trip(&Matrix::identity(2), 1e-12);
    }

    #[test]
    fn paulis_round_trip() {
        assert_round_trip(&pauli_x(), 1e-12);
        assert_round_trip(&pauli_y(), 1e-12);
        assert_round_trip(&pauli_z(), 1e-12);
    }

    #[test]
    fn hadamard_round_trips_with_expected_theta() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let h = Matrix::from_rows(&[&[c64(s, 0.0), c64(s, 0.0)], &[c64(s, 0.0), c64(-s, 0.0)]]);
        let zyz = zyz_decompose(&h);
        assert!((zyz.theta - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_round_trip(&h, 1e-12);
    }

    #[test]
    fn named_u3_angles_recovered() {
        // Decompose a matrix built from known angles: reconstruction must
        // match even if the angle representation differs.
        for &(t, p, l) in &[(0.3, 1.2, -0.9), (2.8, -2.0, 0.1), (1.57, 0.0, 3.0)] {
            let u = u3_matrix(t, p, l);
            assert_round_trip(&u, 1e-12);
            let zyz = zyz_decompose(&u);
            assert!(
                (zyz.theta - t).abs() < 1e-9,
                "theta mismatch for ({t},{p},{l})"
            );
        }
    }

    #[test]
    fn random_unitaries_round_trip() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let u = haar_unitary(2, &mut rng);
            assert_round_trip(&u, 1e-10);
        }
    }

    #[test]
    fn global_phase_is_captured() {
        let u = pauli_x().scale(Complex64::cis(1.234));
        let zyz = zyz_decompose(&u);
        assert_round_trip(&u, 1e-12);
        // U3 part alone differs from u by exactly the global phase
        let bare = u3_matrix(zyz.theta, zyz.phi, zyz.lambda);
        assert!(bare.scale(Complex64::cis(zyz.alpha)).approx_eq(&u, 1e-12));
    }
}
