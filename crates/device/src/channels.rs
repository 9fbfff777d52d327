//! Standard noise channels as Kraus operator sets.
//!
//! These are the same ingredients Qiskit's device noise models are built
//! from: depolarizing errors sized from reported gate error rates, thermal
//! relaxation from T1/T2 and gate durations, and (for completeness and tests)
//! the textbook bit/phase-flip and damping channels. Which channel follows
//! which gate, and with what strength, is [`crate::GateNoise`]'s rule; the
//! density-matrix simulator, the trajectory compiler and the static
//! verifier all build their channels from these constructors.

use qaprox_linalg::matrix::{pauli_x, pauli_y, pauli_z, Matrix};
use qaprox_linalg::{c64, Complex64};

/// Checks Kraus completeness: `sum K_i^dagger K_i = I`.
pub fn is_trace_preserving(kraus: &[Matrix], tol: f64) -> bool {
    let dim = kraus[0].rows();
    let mut acc = Matrix::zeros(dim, dim);
    for k in kraus {
        acc.axpy(Complex64::ONE, &k.adjoint().matmul(k));
    }
    acc.approx_eq(&Matrix::identity(dim), tol)
}

/// Bit-flip channel: applies X with probability `p`.
pub fn bit_flip(p: f64) -> Vec<Matrix> {
    assert!((0.0..=1.0).contains(&p));
    vec![
        Matrix::identity(2).scale_re((1.0 - p).sqrt()),
        pauli_x().scale_re(p.sqrt()),
    ]
}

/// Phase-flip channel: applies Z with probability `p`.
pub fn phase_flip(p: f64) -> Vec<Matrix> {
    assert!((0.0..=1.0).contains(&p));
    vec![
        Matrix::identity(2).scale_re((1.0 - p).sqrt()),
        pauli_z().scale_re(p.sqrt()),
    ]
}

/// One-qubit depolarizing channel with parameter `lambda`
/// (`rho -> (1-lambda) rho + lambda I/2`), expressed with 4 Kraus operators.
pub fn depolarizing_1q(lambda: f64) -> Vec<Matrix> {
    assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
    let p = lambda / 4.0;
    vec![
        Matrix::identity(2).scale_re((1.0 - 3.0 * p).max(0.0).sqrt()),
        pauli_x().scale_re(p.sqrt()),
        pauli_y().scale_re(p.sqrt()),
        pauli_z().scale_re(p.sqrt()),
    ]
}

/// Two-qubit depolarizing channel with parameter `lambda`
/// (`rho -> (1-lambda) rho + lambda I/4`), expressed with all 16 two-qubit
/// Pauli Kraus operators.
pub fn depolarizing_2q(lambda: f64) -> Vec<Matrix> {
    assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
    let p = lambda / 16.0;
    let singles = [Matrix::identity(2), pauli_x(), pauli_y(), pauli_z()];
    let mut out = Vec::with_capacity(16);
    for (i, a) in singles.iter().enumerate() {
        for (j, b) in singles.iter().enumerate() {
            let weight = if i == 0 && j == 0 {
                (1.0 - 15.0 * p).max(0.0)
            } else {
                p
            };
            out.push(a.kron(b).scale_re(weight.sqrt()));
        }
    }
    out
}

/// Amplitude damping with decay probability `gamma` (T1 process).
pub fn amplitude_damping(gamma: f64) -> Vec<Matrix> {
    assert!((0.0..=1.0).contains(&gamma));
    let k0 = Matrix::from_rows(&[
        &[Complex64::ONE, Complex64::ZERO],
        &[Complex64::ZERO, c64((1.0 - gamma).sqrt(), 0.0)],
    ]);
    let k1 = Matrix::from_rows(&[
        &[Complex64::ZERO, c64(gamma.sqrt(), 0.0)],
        &[Complex64::ZERO, Complex64::ZERO],
    ]);
    vec![k0, k1]
}

/// Phase damping with parameter `lambda` (pure dephasing).
pub fn phase_damping(lambda: f64) -> Vec<Matrix> {
    assert!((0.0..=1.0).contains(&lambda));
    let k0 = Matrix::diag(&[Complex64::ONE, c64((1.0 - lambda).sqrt(), 0.0)]);
    let k1 = Matrix::diag(&[Complex64::ZERO, c64(lambda.sqrt(), 0.0)]);
    vec![k0, k1]
}

/// The parameters of thermal relaxation over `t_ns` for a qubit with the
/// given coherence times: the amplitude-damping probability `gamma` and the
/// phase-damping parameter `lambda_pd` of the residual dephasing, so that
/// populations decay as `exp(-t/T1)` and coherences as `exp(-t/T2)`.
///
/// The caller checks its input: [`thermal_relaxation`] asserts positive
/// coherence times, and the static estimators treat non-positive times as
/// "no data".
pub fn relaxation_params(t_ns: f64, t1_us: f64, t2_us: f64) -> (f64, f64) {
    let t_us = t_ns * 1e-3;
    let gamma = 1.0 - (-t_us / t1_us).exp();
    // residual dephasing after accounting for T1's contribution to T2
    let inv_tphi = (1.0 / t2_us - 0.5 / t1_us).max(0.0);
    let lambda_pd = 1.0 - (-2.0 * t_us * inv_tphi).exp();
    (gamma, lambda_pd)
}

/// Thermal relaxation over duration `t_ns` for a qubit with the given
/// coherence times: amplitude damping composed with the pure dephasing that
/// makes the total off-diagonal decay `exp(-t/T2)`.
///
/// Requires `T2 <= 2 T1` (physical); the excess dephasing rate is
/// `1/T_phi = 1/T2 - 1/(2 T1)`.
pub fn thermal_relaxation(t_ns: f64, t1_us: f64, t2_us: f64) -> Vec<Matrix> {
    assert!(t_ns >= 0.0 && t1_us > 0.0 && t2_us > 0.0);
    let (gamma, lambda) = relaxation_params(t_ns, t1_us, t2_us);
    // Compose: K_total = {A_i * P_j} over amplitude damping A and phase damping P.
    let ad = amplitude_damping(gamma);
    let pd = phase_damping(lambda);
    let mut out = Vec::with_capacity(ad.len() * pd.len());
    for a in &ad {
        for p in &pd {
            out.push(a.matmul(p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sum K rho K^dagger`, with `rho` held as a dense matrix.
    fn apply(kraus: &[Matrix], rho: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(rho.rows(), rho.cols());
        for k in kraus {
            out.axpy(Complex64::ONE, &k.matmul(rho).matmul(&k.adjoint()));
        }
        out
    }

    /// `|psi><psi|`.
    fn pure(psi: &[Complex64]) -> Matrix {
        let mut rho = Matrix::zeros(psi.len(), psi.len());
        for (r, a) in psi.iter().enumerate() {
            for (c, b) in psi.iter().enumerate() {
                rho[(r, c)] = *a * b.conj();
            }
        }
        rho
    }

    /// `|+><+|`.
    fn plus() -> Matrix {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        pure(&[c64(h, 0.0), c64(h, 0.0)])
    }

    /// `|1><1|`.
    fn excited() -> Matrix {
        pure(&[Complex64::ZERO, Complex64::ONE])
    }

    /// `(1 - lambda) rho + lambda I/d`, the depolarizing channel's closed form.
    fn depolarized(rho: &Matrix, lambda: f64) -> Matrix {
        let d = rho.rows();
        let mut out = rho.scale_re(1.0 - lambda);
        out.axpy(
            Complex64::ONE,
            &Matrix::identity(d).scale_re(lambda / d as f64),
        );
        out
    }

    #[test]
    fn all_channels_are_trace_preserving() {
        for kraus in [
            bit_flip(0.3),
            phase_flip(0.1),
            depolarizing_1q(0.25),
            depolarizing_2q(0.25),
            amplitude_damping(0.4),
            phase_damping(0.2),
            thermal_relaxation(300.0, 80.0, 70.0),
        ] {
            assert!(is_trace_preserving(&kraus, 1e-12));
        }
    }

    #[test]
    fn depolarizing_matches_closed_form() {
        let lambda = 0.37;
        let rho = pure(&[c64(0.6, 0.0), c64(0.0, 0.8)]);
        let via_kraus = apply(&depolarizing_1q(lambda), &rho);
        assert!(via_kraus.approx_eq(&depolarized(&rho, lambda), 1e-12));
    }

    #[test]
    fn depolarizing_2q_is_trace_preserving_and_matches_closed_form() {
        let lambda = 0.41;
        let kraus = depolarizing_2q(lambda);
        assert_eq!(kraus.len(), 16);
        assert!(is_trace_preserving(&kraus, 1e-12));
        // an entangled state with complex amplitudes
        let rho = pure(&[c64(0.5, 0.0), c64(0.0, 0.5), c64(0.1, 0.0), c64(0.0, -0.7)]);
        let via_kraus = apply(&kraus, &rho);
        assert!(via_kraus.approx_eq(&depolarized(&rho, lambda), 1e-12));
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let rho = apply(&amplitude_damping(0.3), &excited());
        assert!((rho[(1, 1)].re - 0.7).abs() < 1e-13);
        assert!((rho[(0, 0)].re - 0.3).abs() < 1e-13);
    }

    #[test]
    fn phase_damping_kills_coherence_not_populations() {
        let rho = apply(&phase_damping(1.0), &plus());
        assert!((rho[(0, 0)].re - 0.5).abs() < 1e-13);
        assert!((rho[(1, 1)].re - 0.5).abs() < 1e-13);
        assert!(rho[(0, 1)].abs() < 1e-13, "coherence should vanish");
    }

    #[test]
    fn thermal_relaxation_zero_time_is_identity() {
        let rho = apply(&thermal_relaxation(0.0, 80.0, 70.0), &plus());
        assert!(rho.approx_eq(&plus(), 1e-12));
    }

    #[test]
    fn thermal_relaxation_off_diagonal_decays_at_t2() {
        let (t1, t2) = (80.0, 60.0);
        let t_ns = 50_000.0; // 50 us
        let rho = apply(&thermal_relaxation(t_ns, t1, t2), &plus());
        let expected = 0.5 * (-(t_ns * 1e-3) / t2).exp();
        assert!(
            (rho[(0, 1)].abs() - expected).abs() < 1e-10,
            "off-diagonal {} vs expected {expected}",
            rho[(0, 1)].abs()
        );
    }

    #[test]
    fn thermal_relaxation_population_decays_at_t1() {
        let (t1, t2) = (80.0, 60.0);
        let t_ns = 80_000.0; // one T1
        let rho = apply(&thermal_relaxation(t_ns, t1, t2), &excited());
        let expected = (-1.0f64).exp();
        assert!((rho[(1, 1)].re - expected).abs() < 1e-10);
    }

    #[test]
    fn long_relaxation_reaches_ground_state() {
        let rho = apply(&thermal_relaxation(10_000_000.0, 50.0, 40.0), &excited());
        assert!(rho[(0, 0)].re > 0.999);
    }
}
