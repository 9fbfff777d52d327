//! Hermitian eigendecomposition via the cyclic complex Jacobi method.
//!
//! Used for spectral matrix functions (`exp(iH)` cross-validation against
//! the Padé path), density-matrix spectra, and entanglement entropy. Jacobi
//! is slow asymptotically but bulletproof at the tiny dimensions this stack
//! uses (<= 64), and it delivers orthonormal eigenvectors by construction.

use crate::complex::Complex64;
use crate::matrix::Matrix;

/// The eigendecomposition `H = V diag(w) V^dagger` of a Hermitian matrix.
#[derive(Debug, Clone)]
pub struct Eigh {
    /// Real eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the eigenvectors (same order).
    pub vectors: Matrix,
}

/// Computes the eigendecomposition of a Hermitian matrix.
///
/// # Panics
/// Panics if `h` is not square or not Hermitian to `1e-9`.
pub fn eigh(h: &Matrix) -> Eigh {
    assert!(h.is_square(), "eigh needs a square matrix");
    assert!(h.is_hermitian(1e-9), "eigh needs a Hermitian matrix");
    let n = h.rows();
    let mut a = h.clone();
    let mut v = Matrix::identity(n);

    // Cyclic Jacobi sweeps: rotate away the largest off-diagonal entries.
    for _sweep in 0..100 {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in i + 1..n {
                off = off.max(a[(i, j)].abs());
            }
        }
        if off < 1e-14 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a[(p, q)];
                if apq.abs() < 1e-16 {
                    continue;
                }
                // Unitary 2x2 rotation eliminating a[p][q]: strip the phase
                // of apq with D = diag(1, e^{-i phi}), then apply the real
                // Jacobi rotation G(theta); J = D G is unitary and
                // J^dag A J zeroes the (p, q) entry.
                let phase = apq / apq.abs(); // e^{i phi}
                let app = a[(p, p)].re;
                let aqq = a[(q, q)].re;
                let theta = 0.5 * (2.0 * apq.abs()).atan2(app - aqq);
                let (c, sn) = (theta.cos(), theta.sin());
                apply_rotation(&mut a, &mut v, p, q, c, sn, phase);
            }
        }
    }

    // Extract eigenvalues, sort ascending, permute the eigenvector columns.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| a[(i, i)].re).collect();
    order.sort_by(|&x, &y| diag[x].total_cmp(&diag[y]));
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    Eigh { values, vectors }
}

/// Applies the two-sided Jacobi rotation `A <- J^dagger A J`, `V <- V J`
/// with `J = D G`: `D = diag(1, e^{-i phi})` on the `(p, q)` block and `G`
/// the real rotation by `theta`, i.e.
/// `J[p][p] = c`, `J[p][q] = -sn`, `J[q][p] = e^{-i phi} sn`,
/// `J[q][q] = e^{-i phi} c`.
fn apply_rotation(
    a: &mut Matrix,
    v: &mut Matrix,
    p: usize,
    q: usize,
    c: f64,
    sn: f64,
    phase: Complex64,
) {
    let n = a.rows();
    let e_m = phase.conj(); // e^{-i phi}
    let e_p = phase; // e^{+i phi}
                     // A <- A J (columns)
    for r in 0..n {
        let arp = a[(r, p)];
        let arq = a[(r, q)];
        a[(r, p)] = arp * c + arq * (e_m * sn);
        a[(r, q)] = arp * (-sn) + arq * (e_m * c);
    }
    // A <- J^dagger A (rows): J^dag = [[c, e^{i phi} sn], [-sn, e^{i phi} c]]
    for col in 0..n {
        let apc = a[(p, col)];
        let aqc = a[(q, col)];
        a[(p, col)] = apc * c + aqc * (e_p * sn);
        a[(q, col)] = apc * (-sn) + aqc * (e_p * c);
    }
    // V <- V J
    for r in 0..n {
        let vrp = v[(r, p)];
        let vrq = v[(r, q)];
        v[(r, p)] = vrp * c + vrq * (e_m * sn);
        v[(r, q)] = vrp * (-sn) + vrq * (e_m * c);
    }
}

impl Eigh {
    /// Reconstructs `f(H) = V diag(f(w)) V^dagger` for a real function `f`.
    pub fn apply_function<F: Fn(f64) -> Complex64>(&self, f: F) -> Matrix {
        let n = self.values.len();
        let mut d = Matrix::zeros(n, n);
        for (i, &w) in self.values.iter().enumerate() {
            d[(i, i)] = f(w);
        }
        self.vectors.matmul(&d).matmul(&self.vectors.adjoint())
    }
}

/// `exp(i H)` via the spectral decomposition — an independent cross-check of
/// the Padé implementation in [`crate::expm`](mod@crate::expm).
pub fn expm_i_hermitian_spectral(h: &Matrix) -> Matrix {
    eigh(h).apply_function(Complex64::cis)
}

/// Von Neumann entropy `-Tr(rho ln rho)` (nats) of a density matrix.
/// Eigenvalues below `1e-12` are treated as zero.
pub fn von_neumann_entropy(rho: &Matrix) -> f64 {
    let e = eigh(rho);
    -e.values
        .iter()
        .filter(|&&w| w > 1e-12)
        .map(|&w| w * w.ln())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::expm::expm_i_hermitian;
    use crate::matrix::{pauli_x, pauli_y, pauli_z};
    use crate::pauli::{hermitian_from_coeffs, su_basis};
    use crate::random::haar_unitary;
    use crate::random::Rng;
    use crate::random::SplitMix64 as StdRng;

    fn random_hermitian(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = c64(rng.gen_range(-2.0..2.0), 0.0);
            for j in i + 1..n {
                let z = c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                m[(i, j)] = z;
                m[(j, i)] = z.conj();
            }
        }
        m
    }

    #[test]
    fn diagonalizes_pauli_z() {
        let e = eigh(&pauli_z());
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diagonalizes_pauli_x_and_y() {
        for p in [pauli_x(), pauli_y()] {
            let e = eigh(&p);
            assert!((e.values[0] + 1.0).abs() < 1e-10);
            assert!((e.values[1] - 1.0).abs() < 1e-10);
            assert!(e.vectors.is_unitary(1e-10));
        }
    }

    #[test]
    fn reconstruction_identity() {
        for seed in 0..10 {
            for n in [2usize, 4, 8] {
                let h = random_hermitian(n, seed * 31 + n as u64);
                let e = eigh(&h);
                assert!(e.vectors.is_unitary(1e-9), "eigenvectors not unitary");
                let back = e.apply_function(|w| c64(w, 0.0));
                assert!(
                    back.approx_eq(&h, 1e-8),
                    "V diag(w) V^dag != H (n={n}, seed={seed}): max diff {}",
                    back.max_diff(&h)
                );
            }
        }
    }

    #[test]
    fn eigenvalues_are_sorted_and_real_trace_matches() {
        let h = random_hermitian(6, 7);
        let e = eigh(&h);
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        let trace_sum: f64 = e.values.iter().sum();
        assert!((trace_sum - h.trace().re).abs() < 1e-9);
    }

    #[test]
    fn spectral_expm_matches_pade() {
        for seed in 0..5 {
            let basis = su_basis(2);
            let mut rng = StdRng::seed_from_u64(seed);
            let coeffs: Vec<f64> = (0..15).map(|_| rng.gen_range(-1.5..1.5)).collect();
            let h = hermitian_from_coeffs(&basis, &coeffs);
            let via_pade = expm_i_hermitian(&h);
            let via_spectral = expm_i_hermitian_spectral(&h);
            assert!(
                via_pade.approx_eq(&via_spectral, 1e-8),
                "expm paths disagree: {}",
                via_pade.max_diff(&via_spectral)
            );
        }
    }

    #[test]
    fn entropy_of_pure_and_mixed_states() {
        // pure state: |0><0| has zero entropy
        let mut pure = Matrix::zeros(2, 2);
        pure[(0, 0)] = Complex64::ONE;
        assert!(von_neumann_entropy(&pure).abs() < 1e-10);
        // maximally mixed qubit: ln 2
        let mixed = Matrix::identity(2).scale_re(0.5);
        assert!((von_neumann_entropy(&mixed) - std::f64::consts::LN_2).abs() < 1e-10);
    }

    #[test]
    fn entropy_is_unitarily_invariant() {
        let mut rng = StdRng::seed_from_u64(3);
        let rho = {
            // random diagonal density matrix conjugated by a Haar unitary
            let probs = [0.5, 0.3, 0.15, 0.05];
            let mut d = Matrix::zeros(4, 4);
            for (i, &p) in probs.iter().enumerate() {
                d[(i, i)] = c64(p, 0.0);
            }
            let u = haar_unitary(4, &mut rng);
            u.matmul(&d).matmul(&u.adjoint())
        };
        let expect: f64 = -[0.5f64, 0.3, 0.15, 0.05]
            .iter()
            .map(|p| p * p.ln())
            .sum::<f64>();
        assert!((von_neumann_entropy(&rho) - expect).abs() < 1e-8);
    }
}
