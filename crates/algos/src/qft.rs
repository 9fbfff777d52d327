//! Quantum Fourier transform — an extra CNOT-heavy workload beyond the
//! paper's three, used by examples.

use qaprox_circuit::{Circuit, Gate};

/// Builds the n-qubit QFT (with final bit-reversal swaps).
pub fn qft_circuit(num_qubits: usize) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for i in (0..num_qubits).rev() {
        c.h(i);
        for j in (0..i).rev() {
            let angle = std::f64::consts::PI / (1 << (i - j)) as f64;
            c.push(Gate::CP(angle), &[j, i]);
        }
    }
    for q in 0..num_qubits / 2 {
        c.swap(q, num_qubits - 1 - q);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_linalg::matrix::Matrix;
    use qaprox_linalg::Complex64;
    use qaprox_metrics::hs_distance;

    fn dft_matrix(n: usize) -> Matrix {
        let dim = 1usize << n;
        let mut m = Matrix::zeros(dim, dim);
        let norm = 1.0 / (dim as f64).sqrt();
        for i in 0..dim {
            for j in 0..dim {
                let phase = std::f64::consts::TAU * (i * j) as f64 / dim as f64;
                m[(i, j)] = Complex64::cis(phase) * norm;
            }
        }
        m
    }

    #[test]
    fn qft_matches_dft_matrix() {
        for n in [1usize, 2, 3, 4] {
            let c = qft_circuit(n);
            let d = hs_distance(&c.unitary(), &dft_matrix(n));
            assert!(d < 1e-10, "{n}-qubit QFT distance {d}");
        }
    }

    #[test]
    fn qft_on_ground_state_is_uniform() {
        let c = qft_circuit(3);
        let p: Vec<f64> = c.statevector().iter().map(|z| z.norm_sqr()).collect();
        for &x in &p {
            assert!((x - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn qft_two_qubit_cost() {
        // n(n-1)/2 controlled phases + floor(n/2) swaps
        let c = qft_circuit(4);
        assert_eq!(c.two_qubit_count(), 6 + 2);
    }
}
