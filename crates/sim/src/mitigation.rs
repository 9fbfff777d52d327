//! Measurement-error mitigation.
//!
//! The paper's Related Work asks whether post-processing mitigation
//! "interferes with the noise which the approximate circuits rely on". This
//! module implements the standard readout-error mitigation — invert the
//! per-qubit confusion matrices and project back onto the probability
//! simplex — so that question becomes an experiment
//! (the `mitigation_study` driver) instead of speculation.

use crate::readout::ReadoutError;

/// Applies the *inverse* of the per-qubit confusion to a measured
/// distribution. The raw inverse can leave the simplex, so the result is
/// clipped at zero and renormalized (the usual least-squares-lite recipe).
pub fn mitigate_readout(measured: &[f64], errors: &[ReadoutError]) -> Vec<f64> {
    let dim = measured.len();
    assert!(dim.is_power_of_two(), "distribution length must be 2^n");
    let n = dim.trailing_zeros() as usize;
    assert_eq!(errors.len(), n, "need one readout error per qubit");

    let mut probs = measured.to_vec();
    for (q, err) in errors.iter().enumerate() {
        // per-qubit confusion M = [[1-e01, e10], [e01, 1-e10]];
        // inverse = 1/det [[1-e10, -e10], [-e01, 1-e01]]
        let det = 1.0 - err.e01 - err.e10;
        assert!(
            det.abs() > 1e-9,
            "confusion matrix is singular (e01 + e10 = 1): cannot mitigate"
        );
        let inv00 = (1.0 - err.e10) / det;
        let inv01 = -err.e10 / det;
        let inv10 = -err.e01 / det;
        let inv11 = (1.0 - err.e01) / det;
        let mask = 1usize << q;
        for base in 0..dim {
            if base & mask != 0 {
                continue;
            }
            let hi = base | mask;
            let p0 = probs[base];
            let p1 = probs[hi];
            probs[base] = inv00 * p0 + inv01 * p1;
            probs[hi] = inv10 * p0 + inv11 * p1;
        }
    }
    // Project back onto the simplex: clip then renormalize.
    let mut total = 0.0;
    for p in probs.iter_mut() {
        *p = p.max(0.0);
        total += *p;
    }
    if total > 0.0 {
        for p in probs.iter_mut() {
            *p /= total;
        }
    }
    probs
}

/// Convenience: builds the per-qubit error list from a calibration.
pub fn errors_from_calibration(cal: &qaprox_device::Calibration) -> Vec<ReadoutError> {
    cal.qubits
        .iter()
        .map(|q| ReadoutError::symmetric(q.readout_error))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readout::apply_confusion;

    #[test]
    fn mitigation_inverts_confusion_exactly_on_exact_distributions() {
        let true_dist = vec![0.55, 0.05, 0.15, 0.25];
        let errors = vec![
            ReadoutError {
                e01: 0.03,
                e10: 0.08,
            },
            ReadoutError::symmetric(0.05),
        ];
        let mut measured = true_dist.clone();
        apply_confusion(&mut measured, &errors);
        let recovered = mitigate_readout(&measured, &errors);
        for (r, t) in recovered.iter().zip(&true_dist) {
            assert!((r - t).abs() < 1e-10, "{recovered:?} vs {true_dist:?}");
        }
    }

    #[test]
    fn mitigation_is_identity_for_zero_error() {
        let d = vec![0.4, 0.1, 0.3, 0.2];
        let out = mitigate_readout(&d, &[ReadoutError::symmetric(0.0); 2]);
        for (a, b) in out.iter().zip(&d) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn output_stays_on_the_simplex_even_with_shot_noise() {
        // A noisy empirical distribution can push the raw inverse negative;
        // the projection must keep it a valid distribution.
        let measured = vec![0.95, 0.05, 0.0, 0.0];
        let errors = vec![ReadoutError::symmetric(0.15); 2];
        let out = mitigate_readout(&measured, &errors);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn mitigation_improves_fidelity_to_truth() {
        use crate::sampler::{counts_to_probs, sample_counts};
        let true_dist = vec![0.5, 0.0, 0.0, 0.5]; // Bell-like
        let errors = vec![ReadoutError::symmetric(0.08); 2];
        let mut confused = true_dist.clone();
        apply_confusion(&mut confused, &errors);
        // add shot noise
        let measured = counts_to_probs(&sample_counts(&confused, 8192, 3));
        let mitigated = mitigate_readout(&measured, &errors);
        let tvd =
            |a: &[f64], b: &[f64]| 0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>();
        assert!(
            tvd(&mitigated, &true_dist) < tvd(&measured, &true_dist),
            "mitigation should reduce readout bias"
        );
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn rejects_singular_confusion() {
        let d = vec![0.5, 0.5];
        mitigate_readout(&d, &[ReadoutError { e01: 0.5, e10: 0.5 }]);
    }
}
