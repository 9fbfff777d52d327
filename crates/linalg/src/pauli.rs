//! Pauli strings and the Hermitian basis of su(2^n).
//!
//! QFast parameterizes a generic `k`-qubit block as `U = exp(i sum_j t_j P_j)`
//! over all `4^k - 1` non-identity Pauli strings (plus optionally the
//! identity for global phase). This module enumerates that basis without
//! materializing kron products gate by gate: a Pauli string matrix is built
//! directly from its per-qubit labels.

use crate::complex::{c64, Complex64};
use crate::matrix::Matrix;

/// Single-qubit Pauli label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl Pauli {
    /// The four labels in canonical order (matches base-4 digit encoding).
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// Action on basis bit `b`: returns `(new_bit, phase)` such that
    /// `P |b> = phase |new_bit>`.
    #[inline]
    fn action(self, b: usize) -> (usize, Complex64) {
        match self {
            Pauli::I => (b, Complex64::ONE),
            Pauli::X => (b ^ 1, Complex64::ONE),
            Pauli::Y => (b ^ 1, if b == 0 { Complex64::I } else { c64(0.0, -1.0) }),
            Pauli::Z => (
                b,
                if b == 0 {
                    Complex64::ONE
                } else {
                    c64(-1.0, 0.0)
                },
            ),
        }
    }
}

/// A Pauli string over `n` qubits; index 0 is qubit 0 (LSB).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString(pub Vec<Pauli>);

impl PauliString {
    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.0.len()
    }

    /// Decodes a base-4 index (`digit q` = label of qubit `q`) into a string.
    pub fn from_index(n: usize, mut idx: usize) -> Self {
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            labels.push(Pauli::ALL[idx % 4]);
            idx /= 4;
        }
        PauliString(labels)
    }

    /// Builds the dense `2^n x 2^n` matrix of the string.
    ///
    /// Pauli strings have exactly one nonzero per row, so this is `O(2^n)`.
    pub fn to_matrix(&self) -> Matrix {
        let n = self.num_qubits();
        let dim = 1usize << n;
        let mut m = Matrix::zeros(dim, dim);
        for col in 0..dim {
            let mut row = 0usize;
            let mut phase = Complex64::ONE;
            for (q, &p) in self.0.iter().enumerate() {
                let b = (col >> q) & 1;
                let (nb, ph) = p.action(b);
                row |= nb << q;
                phase *= ph;
            }
            m[(row, col)] = phase;
        }
        m
    }
}

impl std::fmt::Display for PauliString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print qubit n-1 .. 0, the usual ket ordering.
        for &p in self.0.iter().rev() {
            write!(
                f,
                "{}",
                match p {
                    Pauli::I => 'I',
                    Pauli::X => 'X',
                    Pauli::Y => 'Y',
                    Pauli::Z => 'Z',
                }
            )?;
        }
        Ok(())
    }
}

/// Enumerates the `4^n - 1` non-identity Pauli strings on `n` qubits —
/// a Hermitian, trace-orthogonal basis of su(2^n).
pub fn su_basis(n: usize) -> Vec<Matrix> {
    (1..4usize.pow(n as u32))
        .map(|idx| PauliString::from_index(n, idx).to_matrix())
        .collect()
}

/// [`su_basis`]`(2)` as the fixed-size arrays [`crate::expm::expm_i_su4`]
/// takes: the 15 non-identity two-qubit Pauli strings, row-major 4x4.
pub fn su4_basis() -> [[Complex64; 16]; 15] {
    let basis = su_basis(2);
    std::array::from_fn(|j| {
        let mut m = [Complex64::ZERO; 16];
        m.copy_from_slice(basis[j].data());
        m
    })
}

/// Builds `H(t) = sum_j t_j B_j` over a precomputed basis.
pub fn hermitian_from_coeffs(basis: &[Matrix], coeffs: &[f64]) -> Matrix {
    assert_eq!(basis.len(), coeffs.len(), "basis/coeff length mismatch");
    let dim = basis[0].rows();
    let mut h = Matrix::zeros(dim, dim);
    for (b, &t) in basis.iter().zip(coeffs) {
        if t != 0.0 {
            h.axpy(c64(t, 0.0), b);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{pauli_x, pauli_y, pauli_z};

    #[test]
    fn single_qubit_strings_match_dense_paulis() {
        assert!(PauliString(vec![Pauli::X])
            .to_matrix()
            .approx_eq(&pauli_x(), 1e-15));
        assert!(PauliString(vec![Pauli::Y])
            .to_matrix()
            .approx_eq(&pauli_y(), 1e-15));
        assert!(PauliString(vec![Pauli::Z])
            .to_matrix()
            .approx_eq(&pauli_z(), 1e-15));
    }

    #[test]
    fn two_qubit_string_matches_kron() {
        // string [X (qubit0), Z (qubit1)] should equal Z (x) X in kron order
        let s = PauliString(vec![Pauli::X, Pauli::Z]);
        let expect = pauli_z().kron(&pauli_x());
        assert!(s.to_matrix().approx_eq(&expect, 1e-15));
    }

    #[test]
    fn strings_are_hermitian_and_unitary() {
        for idx in 0..16 {
            let m = PauliString::from_index(2, idx).to_matrix();
            assert!(m.is_hermitian(1e-15), "idx {idx} not hermitian");
            assert!(m.is_unitary(1e-15), "idx {idx} not unitary");
        }
    }

    #[test]
    fn basis_is_trace_orthogonal() {
        let basis = su_basis(2);
        assert_eq!(basis.len(), 15);
        for (i, a) in basis.iter().enumerate() {
            for (j, b) in basis.iter().enumerate() {
                let ip = a.hs_inner(b);
                if i == j {
                    assert!((ip.re - 4.0).abs() < 1e-12, "norm of basis {i}");
                } else {
                    assert!(ip.abs() < 1e-12, "basis {i},{j} not orthogonal");
                }
            }
        }
    }

    #[test]
    fn non_identity_strings_are_traceless() {
        for m in su_basis(2) {
            assert!(m.trace().abs() < 1e-13);
        }
    }

    #[test]
    fn from_index_round_trips_display() {
        let s = PauliString::from_index(3, 0b100111); // digits: 3,1,2 base4? just check display length
        assert_eq!(format!("{s}").len(), 3);
    }

    #[test]
    fn hermitian_from_coeffs_builds_combination() {
        let basis = su_basis(1);
        let h = hermitian_from_coeffs(&basis, &[0.5, 0.0, -1.0]);
        let mut expect = pauli_x().scale_re(0.5);
        expect.axpy(c64(-1.0, 0.0), &pauli_z());
        assert!(h.approx_eq(&expect, 1e-14));
        assert!(h.is_hermitian(1e-14));
    }
}
