//! Dense row-major complex matrices.
//!
//! All quantum objects in this stack (gate matrices, circuit unitaries,
//! density matrices) are small — dimension `2^n` with `n <= 8` — so a simple
//! contiguous `Vec<Complex64>` with cubic matmul is both adequate and fast.

use crate::complex::{c64, Complex64};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl Matrix {
    /// Creates a `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds a square matrix from nested row arrays (test/gate convenience).
    pub fn from_rows(rows: &[&[Complex64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged matrix rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a diagonal matrix from its diagonal entries.
    pub fn diag(entries: &[Complex64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data slice.
    #[inline(always)]
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable raw row-major data slice.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Overwrites `self` with the contents of `src` (no allocation).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Overwrites `self` with the identity (no allocation).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn set_identity(&mut self) {
        assert!(self.is_square(), "set_identity needs a square matrix");
        self.data.fill(Complex64::ZERO);
        for i in 0..self.rows {
            self.data[i * self.cols + i] = Complex64::ONE;
        }
    }

    /// Returns row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Complex64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product written into a preallocated output (i-k-j loop order,
    /// which streams both `rhs` rows and `out` rows for cache friendliness).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmul output rows mismatch");
        assert_eq!(out.cols, rhs.cols, "matmul output cols mismatch");
        out.data.fill(Complex64::ZERO);
        let n = rhs.cols;
        for i in 0..self.rows {
            let orow = &mut out.data[i * n..(i + 1) * n];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == Complex64::ZERO {
                    continue;
                }
                let brow = &rhs.data[k * n..(k + 1) * n];
                for j in 0..n {
                    orow[j] = orow[j].mul_add(a, brow[j]);
                }
            }
        }
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        let mut out = vec![Complex64::ZERO; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = Complex64::ZERO;
            for (a, b) in row.iter().zip(v) {
                acc = acc.mul_add(*a, *b);
            }
            *o = acc;
        }
        out
    }

    /// Conjugate transpose (dagger).
    pub fn adjoint(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Elementwise complex conjugate.
    pub fn conj(&self) -> Matrix {
        let data = self.data.iter().map(|z| z.conj()).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Trace (sum of diagonal entries). Requires a square matrix.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `Tr(self * rhs)` computed from the diagonal of the product alone, bit
    /// for bit equal to `self.matmul(rhs).trace()`: each diagonal entry
    /// accumulates over `k` in [`Matrix::matmul_into`]'s order with its
    /// `mul_add` and its skipping of zero left-hand entries, and the diagonal
    /// is folded over `i` as [`Matrix::trace`] folds it.
    ///
    /// Runs on the kernel table this process selected
    /// ([`crate::simd::kernel_dispatch`]), with
    /// [`crate::kernels::matmul_trace_scalar`] as the portable reference.
    pub fn matmul_trace(&self, rhs: &Matrix) -> Complex64 {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        assert_eq!(self.rows, rhs.cols, "trace of non-square matrix");
        (crate::simd::kernel_dispatch().matmul_trace)(self, rhs)
    }

    /// `Tr(self^dagger * rhs)` computed without forming the product —
    /// the Hilbert-Schmidt inner product.
    pub fn hs_inner(&self, rhs: &Matrix) -> Complex64 {
        assert_eq!(self.rows, rhs.rows, "hs_inner shape mismatch");
        assert_eq!(self.cols, rhs.cols, "hs_inner shape mismatch");
        let mut acc = Complex64::ZERO;
        for (a, b) in self.data.iter().zip(&rhs.data) {
            acc = acc.mul_add(a.conj(), *b);
        }
        acc
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entrywise modulus — a cheap stand-in for the operator norm
    /// when scaling for `expm`.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Kronecker (tensor) product `self (x) rhs`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == Complex64::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> Matrix {
        let data = self.data.iter().map(|&z| z * k).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_re(&self, k: f64) -> Matrix {
        let data = self.data.iter().map(|&z| z * k).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += k * rhs` (axpy).
    pub fn axpy(&mut self, k: Complex64, rhs: &Matrix) {
        assert_eq!(self.rows, rhs.rows, "axpy shape mismatch");
        assert_eq!(self.cols, rhs.cols, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a = a.mul_add(k, *b);
        }
    }

    /// True when every entry is within `tol` of `rhs`.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// True when `self^dagger * self` is the identity to within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.adjoint().matmul(self);
        prod.approx_eq(&Matrix::identity(self.rows), tol)
    }

    /// True when `self == self^dagger` to within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.cols {
                if !self[(i, j)].approx_eq(self[(j, i)].conj(), tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Canonical byte serialization for content addressing: dimensions as
    /// little-endian u64 followed by each entry's real and imaginary parts as
    /// little-endian IEEE-754 doubles (`-0.0` normalized to `0.0`).
    /// Numerically equal matrices always serialize identically, so this is a
    /// stable input for [`crate::hashing::Hash128`] cache keys.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 16 * self.data.len());
        out.extend_from_slice(&(self.rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.cols as u64).to_le_bytes());
        for z in &self.data {
            let re = if z.re == 0.0 { 0.0f64 } else { z.re };
            let im = if z.im == 0.0 { 0.0f64 } else { z.im };
            out.extend_from_slice(&re.to_le_bytes());
            out.extend_from_slice(&im.to_le_bytes());
        }
        out
    }

    /// Maximum entrywise distance to `rhs`.
    pub fn max_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.rows, rhs.rows, "max_diff shape mismatch");
        assert_eq!(self.cols, rhs.cols, "max_diff shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "add shape mismatch");
        assert_eq!(self.cols, rhs.cols, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a + *b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "sub shape mismatch");
        assert_eq!(self.cols, rhs.cols, "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a - *b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// The 2x2 Pauli-X matrix.
pub fn pauli_x() -> Matrix {
    Matrix::from_rows(&[
        &[Complex64::ZERO, Complex64::ONE],
        &[Complex64::ONE, Complex64::ZERO],
    ])
}

/// The 2x2 Pauli-Y matrix.
pub fn pauli_y() -> Matrix {
    Matrix::from_rows(&[
        &[Complex64::ZERO, c64(0.0, -1.0)],
        &[Complex64::I, Complex64::ZERO],
    ])
}

/// The 2x2 Pauli-Z matrix.
pub fn pauli_z() -> Matrix {
    Matrix::from_rows(&[
        &[Complex64::ONE, Complex64::ZERO],
        &[Complex64::ZERO, c64(-1.0, 0.0)],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[
            &[c64(1.0, 2.0), c64(0.0, -1.0)],
            &[c64(3.0, 0.0), c64(0.5, 0.5)],
        ]);
        let i = Matrix::identity(2);
        assert!(a.matmul(&i).approx_eq(&a, 1e-14));
        assert!(i.matmul(&a).approx_eq(&a, 1e-14));
    }

    #[test]
    fn matmul_known_product() {
        // [[1,i],[0,1]] * [[1,0],[i,1]] = [[1+i*i, i],[i,1]] = [[0,i],[i,1]]
        let a = Matrix::from_rows(&[
            &[Complex64::ONE, Complex64::I],
            &[Complex64::ZERO, Complex64::ONE],
        ]);
        let b = Matrix::from_rows(&[
            &[Complex64::ONE, Complex64::ZERO],
            &[Complex64::I, Complex64::ONE],
        ]);
        let p = a.matmul(&b);
        let expect = Matrix::from_rows(&[
            &[Complex64::ZERO, Complex64::I],
            &[Complex64::I, Complex64::ONE],
        ]);
        assert!(p.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn adjoint_reverses_products() {
        let a = pauli_x().matmul(&pauli_y());
        let lhs = a.adjoint();
        let rhs = pauli_y().adjoint().matmul(&pauli_x().adjoint());
        assert!(lhs.approx_eq(&rhs, 1e-14));
    }

    #[test]
    fn paulis_are_unitary_hermitian_traceless() {
        for p in [pauli_x(), pauli_y(), pauli_z()] {
            assert!(p.is_unitary(1e-14));
            assert!(p.is_hermitian(1e-14));
            assert!(p.trace().abs() < 1e-14);
        }
    }

    #[test]
    fn pauli_algebra_xy_equals_iz() {
        let xy = pauli_x().matmul(&pauli_y());
        let iz = pauli_z().scale(Complex64::I);
        assert!(xy.approx_eq(&iz, 1e-14));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let i = Matrix::identity(2);
        let xi = x.kron(&i);
        assert_eq!(xi.rows(), 4);
        // X (x) I swaps the high bit: |00> -> |10>
        assert_eq!(xi[(2, 0)], Complex64::ONE);
        assert_eq!(xi[(0, 2)], Complex64::ONE);
        assert_eq!(xi[(0, 0)], Complex64::ZERO);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A (x) B)(C (x) D) = AC (x) BD
        let a = pauli_x();
        let b = pauli_y();
        let c = pauli_z();
        let d = Matrix::identity(2);
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-13));
    }

    #[test]
    fn hs_inner_matches_trace_of_product() {
        let a = pauli_x();
        let b = pauli_y();
        let direct = a.adjoint().matmul(&b).trace();
        assert!((a.hs_inner(&b) - direct).abs() < 1e-13);
        // self inner product = squared Frobenius norm
        let self_ip = a.hs_inner(&a);
        assert!((self_ip.re - a.fro_norm().powi(2)).abs() < 1e-13);
        assert!(self_ip.im.abs() < 1e-14);
    }

    #[test]
    fn matmul_trace_is_bit_identical_to_matmul_then_trace() {
        use crate::random::{Rng, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(0x7ACE);
        for dim in [1usize, 2, 4, 8, 16] {
            for _ in 0..8 {
                // sparse-ish entries with both signed zeros exercise the
                // skipped left-hand entries and the zero-sign behaviour
                let mut entry = || match rng.gen_range(0..4u32) {
                    0 => c64(0.0, 0.0),
                    1 => c64(
                        -0.0,
                        if rng.gen_range(0..2u32) == 0 {
                            -0.0
                        } else {
                            0.5
                        },
                    ),
                    _ => c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                };
                let mut a = Matrix::zeros(dim, dim);
                let mut b = Matrix::zeros(dim, dim);
                for z in a.data_mut().iter_mut().chain(b.data_mut().iter_mut()) {
                    *z = entry();
                }
                let want = a.matmul(&b).trace();
                let got = a.matmul_trace(&b);
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "dim {dim}"
                );
            }
        }
    }

    #[test]
    fn matvec_matches_matmul_column() {
        let a = pauli_y();
        let v = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        let got = a.matvec(&v);
        // Y * (1, i) = (-i*i, i*1) = (1, i)
        assert!((got[0] - c64(1.0, 0.0)).abs() < 1e-14);
        assert!((got[1] - c64(0.0, 1.0)).abs() < 1e-14);
    }

    #[test]
    fn diag_builds_diagonal() {
        let d = Matrix::diag(&[Complex64::ONE, Complex64::I]);
        assert_eq!(d[(0, 0)], Complex64::ONE);
        assert_eq!(d[(1, 1)], Complex64::I);
        assert_eq!(d[(0, 1)], Complex64::ZERO);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::identity(2);
        a.axpy(c64(2.0, 0.0), &pauli_z());
        assert_eq!(a[(0, 0)], c64(3.0, 0.0));
        assert_eq!(a[(1, 1)], c64(-1.0, 0.0));
    }

    #[test]
    fn trace_of_identity_is_dim() {
        assert_eq!(Matrix::identity(8).trace(), c64(8.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let _ = a.matmul(&b);
    }
}
