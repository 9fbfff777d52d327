//! Density-matrix state and operations.
//!
//! Noisy execution needs mixed states: a [`DensityMatrix`] is a `2^n x 2^n`
//! Hermitian, unit-trace matrix evolved by unitaries (`U rho U^dagger`, via
//! the embedding-free kernels) and by Kraus channels. The paper's circuits
//! top out at 5 qubits, so rho is at most 32x32 — the cost center is the
//! *number* of circuits (hundreds per figure), which the batch executor
//! parallelizes instead.

use qaprox_circuit::{Circuit, Gate};
use qaprox_linalg::kernels::{
    accum_conj_1q, accum_conj_2q, apply_1q_mat_left, apply_1q_mat_right_dag, apply_2q_mat_left,
    apply_2q_mat_right_dag, mat2_to_array, mat4_to_array,
};
use qaprox_linalg::matrix::Matrix;
use qaprox_linalg::{c64, Complex64};

/// A mixed quantum state on `n` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: Matrix,
}

impl DensityMatrix {
    /// The pure state `|0...0><0...0|`.
    pub fn ground(num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        let mut rho = Matrix::zeros(dim, dim);
        rho[(0, 0)] = Complex64::ONE;
        DensityMatrix { num_qubits, rho }
    }

    /// The pure state `|basis><basis|`.
    pub fn basis(num_qubits: usize, basis: usize) -> Self {
        let dim = 1usize << num_qubits;
        assert!(basis < dim, "basis state out of range");
        let mut rho = Matrix::zeros(dim, dim);
        rho[(basis, basis)] = Complex64::ONE;
        DensityMatrix { num_qubits, rho }
    }

    /// The maximally mixed state `I / 2^n`.
    pub fn maximally_mixed(num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        let rho = Matrix::identity(dim).scale_re(1.0 / dim as f64);
        DensityMatrix { num_qubits, rho }
    }

    /// Builds from a pure statevector.
    pub fn from_statevector(state: &[Complex64]) -> Self {
        let dim = state.len();
        assert!(dim.is_power_of_two(), "statevector length must be 2^n");
        let num_qubits = dim.trailing_zeros() as usize;
        let mut rho = Matrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                rho[(i, j)] = state[i] * state[j].conj();
            }
        }
        DensityMatrix { num_qubits, rho }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Hilbert dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Immutable access to the underlying matrix.
    #[inline]
    pub fn matrix(&self) -> &Matrix {
        &self.rho
    }

    /// Applies a placed gate: `rho <- U rho U^dagger`.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        match gate.arity() {
            1 => {
                let u = mat2_to_array(&gate.matrix());
                apply_1q_mat_left(&mut self.rho, qubits[0], &u);
                apply_1q_mat_right_dag(&mut self.rho, qubits[0], &u);
            }
            2 => {
                let u = mat4_to_array(&gate.matrix());
                apply_2q_mat_left(&mut self.rho, qubits[0], qubits[1], &u);
                apply_2q_mat_right_dag(&mut self.rho, qubits[0], qubits[1], &u);
            }
            _ => unreachable!("IR only holds 1- and 2-qubit gates"),
        }
    }

    /// Applies a whole circuit without noise.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert_eq!(
            circuit.num_qubits(),
            self.num_qubits,
            "circuit width mismatch"
        );
        for inst in circuit.iter() {
            self.apply_gate(&inst.gate, &inst.qubits);
        }
    }

    /// Applies a one-qubit Kraus channel `{K_i}` on qubit `q`:
    /// `rho <- sum_i K_i rho K_i^dagger`.
    pub fn apply_kraus_1q(&mut self, q: usize, kraus: &[Matrix]) {
        #[cfg(feature = "strict-invariants")]
        let trace_before = self.trace();
        // One scratch accumulator for the whole channel: each Kraus term is
        // accumulated as `acc += K rho K^dagger` block-wise in registers
        // (previously: one full `rho.clone()` per Kraus operator — 4 clones
        // for a depolarizing channel; now exactly one allocation per call).
        let mut acc = Matrix::zeros(self.dim(), self.dim());
        for k in kraus {
            let ka = mat2_to_array(k);
            accum_conj_1q(&mut acc, &self.rho, q, &ka);
        }
        self.rho = acc;
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            (self.trace() - trace_before).abs() < 1e-8,
            "1q Kraus set on qubit {q} is not trace preserving"
        );
    }

    /// Applies a two-qubit Kraus channel on `(a, b)`.
    pub fn apply_kraus_2q(&mut self, a: usize, b: usize, kraus: &[Matrix]) {
        #[cfg(feature = "strict-invariants")]
        let trace_before = self.trace();
        // Same single-scratch pattern as `apply_kraus_1q`: one accumulator
        // allocation per call instead of one `rho.clone()` per Kraus operator
        // (a 2q amplitude-damping pair of channels used to clone 16 times).
        let mut acc = Matrix::zeros(self.dim(), self.dim());
        for k in kraus {
            let ka = mat4_to_array(k);
            accum_conj_2q(&mut acc, &self.rho, a, b, &ka);
        }
        self.rho = acc;
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            (self.trace() - trace_before).abs() < 1e-8,
            "2q Kraus set on qubits ({a}, {b}) is not trace preserving"
        );
    }

    /// Depolarizes the given qubits with strength `lambda`:
    /// `rho <- (1 - lambda) rho + lambda * (Tr_q rho) (x) I/d_q`.
    ///
    /// This closed form equals the uniform Pauli-twirl channel and avoids
    /// enumerating 4^k Kraus operators.
    pub fn depolarize(&mut self, qubits: &[usize], lambda: f64) {
        assert!((0.0..=1.0 + 1e-12).contains(&lambda), "lambda out of range");
        if lambda == 0.0 {
            return;
        }
        let reduced = self.partial_trace(qubits);
        let dq = 1usize << qubits.len();
        // Rebuild lambda * (I/dq (x) reduced) embedded at the right qubit positions.
        let dim = self.dim();
        let rest_qubits: Vec<usize> = (0..self.num_qubits)
            .filter(|q| !qubits.contains(q))
            .collect();
        let mut mixed = Matrix::zeros(dim, dim);
        // index helpers: compose a full index from (rest_index_bits, traced_bits)
        for ri in 0..(1usize << rest_qubits.len()) {
            for rj in 0..(1usize << rest_qubits.len()) {
                let val = reduced[(ri, rj)] / dq as f64;
                if val.abs() < 1e-300 {
                    continue;
                }
                for t in 0..dq {
                    let mut i_full = 0usize;
                    let mut j_full = 0usize;
                    for (k, &q) in rest_qubits.iter().enumerate() {
                        i_full |= ((ri >> k) & 1) << q;
                        j_full |= ((rj >> k) & 1) << q;
                    }
                    for (k, &q) in qubits.iter().enumerate() {
                        let bit = (t >> k) & 1;
                        i_full |= bit << q;
                        j_full |= bit << q;
                    }
                    mixed[(i_full, j_full)] += val;
                }
            }
        }
        let mut out = self.rho.scale_re(1.0 - lambda);
        out.axpy(c64(lambda, 0.0), &mixed);
        self.rho = out;
    }

    /// Partial trace over `qubits`, returning the reduced density matrix on
    /// the remaining qubits (in ascending qubit order).
    pub fn partial_trace(&self, qubits: &[usize]) -> Matrix {
        for &q in qubits {
            assert!(q < self.num_qubits, "trace qubit out of range");
        }
        let rest: Vec<usize> = (0..self.num_qubits)
            .filter(|q| !qubits.contains(q))
            .collect();
        let rdim = 1usize << rest.len();
        let tdim = 1usize << qubits.len();
        let mut out = Matrix::zeros(rdim, rdim);
        for ri in 0..rdim {
            for rj in 0..rdim {
                let mut acc = Complex64::ZERO;
                for t in 0..tdim {
                    let mut i_full = 0usize;
                    let mut j_full = 0usize;
                    for (k, &q) in rest.iter().enumerate() {
                        i_full |= ((ri >> k) & 1) << q;
                        j_full |= ((rj >> k) & 1) << q;
                    }
                    for (k, &q) in qubits.iter().enumerate() {
                        let bit = (t >> k) & 1;
                        i_full |= bit << q;
                        j_full |= bit << q;
                    }
                    acc += self.rho[(i_full, j_full)];
                }
                out[(ri, rj)] = acc;
            }
        }
        out
    }

    /// Measurement distribution: the real diagonal of rho.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim())
            .map(|i| self.rho[(i, i)].re.max(0.0))
            .collect()
    }

    /// Trace (should stay 1 under trace-preserving evolution).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Purity `Tr(rho^2)`: 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        // Tr(rho^2) = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2 for Hermitian rho
        self.rho.data().iter().map(|z| z.norm_sqr()).sum()
    }

    /// Entanglement (von Neumann) entropy of the subsystem left after
    /// tracing out `qubits`, in nats. For a globally pure state this is the
    /// entanglement between the two partitions (a Bell pair gives `ln 2`).
    pub fn entanglement_entropy(&self, traced_qubits: &[usize]) -> f64 {
        let reduced = self.partial_trace(traced_qubits);
        qaprox_linalg::von_neumann_entropy(&reduced)
    }

    /// Fidelity against a pure state: `<psi| rho |psi>`.
    pub fn fidelity_pure(&self, psi: &[Complex64]) -> f64 {
        assert_eq!(psi.len(), self.dim(), "state dimension mismatch");
        let rho_psi = self.rho.matvec(psi);
        let mut acc = Complex64::ZERO;
        for (a, b) in psi.iter().zip(&rho_psi) {
            acc = acc.mul_add(a.conj(), *b);
        }
        acc.re.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_device::channels::{depolarizing_1q, depolarizing_2q};

    #[test]
    fn ground_state_properties() {
        let dm = DensityMatrix::ground(3);
        assert!((dm.trace() - 1.0).abs() < 1e-14);
        assert!((dm.purity() - 1.0).abs() < 1e-14);
        let p = dm.probabilities();
        assert!((p[0] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(0.9, 1).cx(1, 2).ry(0.4, 2);
        let sv = c.statevector();
        let mut dm = DensityMatrix::ground(3);
        dm.apply_circuit(&c);
        let expect = DensityMatrix::from_statevector(&sv);
        assert!(dm.matrix().approx_eq(expect.matrix(), 1e-12));
        assert!((dm.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn maximally_mixed_is_invariant_under_unitaries() {
        let mut dm = DensityMatrix::maximally_mixed(2);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(1.0, 1);
        dm.apply_circuit(&c);
        let expect = DensityMatrix::maximally_mixed(2);
        assert!(dm.matrix().approx_eq(expect.matrix(), 1e-12));
    }

    #[test]
    fn full_depolarize_gives_maximally_mixed_on_target() {
        let mut dm = DensityMatrix::ground(2);
        dm.depolarize(&[0], 1.0);
        // qubit 0 fully mixed, qubit 1 still |0>
        let p = dm.probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-13);
        assert!((p[0b01] - 0.5).abs() < 1e-13);
        assert!(p[0b10].abs() < 1e-13);
        assert!((dm.trace() - 1.0).abs() < 1e-13);
    }

    #[test]
    fn depolarize_both_qubits_fully() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut dm = DensityMatrix::ground(2);
        dm.apply_circuit(&c);
        dm.depolarize(&[0, 1], 1.0);
        assert!(dm
            .matrix()
            .approx_eq(DensityMatrix::maximally_mixed(2).matrix(), 1e-12));
    }

    #[test]
    fn depolarize_preserves_trace_and_reduces_purity() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut dm = DensityMatrix::ground(3);
        dm.apply_circuit(&c);
        let p0 = dm.purity();
        dm.depolarize(&[1], 0.3);
        assert!((dm.trace() - 1.0).abs() < 1e-12);
        assert!(dm.purity() < p0);
    }

    #[test]
    fn partial_trace_of_bell_state_is_mixed() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut dm = DensityMatrix::ground(2);
        dm.apply_circuit(&c);
        let reduced = dm.partial_trace(&[1]);
        assert_eq!(reduced.rows(), 2);
        assert!((reduced[(0, 0)].re - 0.5).abs() < 1e-13);
        assert!((reduced[(1, 1)].re - 0.5).abs() < 1e-13);
        assert!(reduced[(0, 1)].abs() < 1e-13);
    }

    #[test]
    fn partial_trace_of_product_state_is_pure() {
        let mut c = Circuit::new(2);
        c.h(0); // qubit 0 in |+>, qubit 1 in |0>
        let mut dm = DensityMatrix::ground(2);
        dm.apply_circuit(&c);
        let reduced = dm.partial_trace(&[1]); // keep qubit 0
                                              // |+><+| has purity 1
        let purity: f64 = reduced.data().iter().map(|z| z.norm_sqr()).sum();
        assert!((purity - 1.0).abs() < 1e-12);
        assert!((reduced[(0, 1)].re - 0.5).abs() < 1e-13);
    }

    #[test]
    fn kraus_bit_flip_channel() {
        // bit flip with p = 0.25 on |0>: P(1) = 0.25
        let p: f64 = 0.25;
        let k0 = Matrix::identity(2).scale_re((1.0 - p).sqrt());
        let k1 = qaprox_linalg::matrix::pauli_x().scale_re(p.sqrt());
        let mut dm = DensityMatrix::ground(1);
        dm.apply_kraus_1q(0, &[k0, k1]);
        let probs = dm.probabilities();
        assert!((probs[0] - 0.75).abs() < 1e-13);
        assert!((probs[1] - 0.25).abs() < 1e-13);
        assert!((dm.trace() - 1.0).abs() < 1e-13);
    }

    #[test]
    fn depolarize_matches_kraus_form_1q() {
        // the partial-trace closed form vs the 4-operator Kraus set
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(0.3, 0);
        let lambda = 0.37;

        let mut via_kraus = DensityMatrix::ground(2);
        via_kraus.apply_circuit(&c);
        via_kraus.apply_kraus_1q(0, &depolarizing_1q(lambda));

        let mut via_closed = DensityMatrix::ground(2);
        via_closed.apply_circuit(&c);
        via_closed.depolarize(&[0], lambda);

        assert!(via_kraus.matrix().approx_eq(via_closed.matrix(), 1e-12));
    }

    #[test]
    fn depolarize_matches_kraus_form_2q() {
        // the partial-trace closed form vs all 16 two-qubit Pauli operators,
        // on a non-adjacent pair of a 3-qubit register
        let lambda = 0.41;
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(0.4, 2);
        let mut via_kraus = DensityMatrix::ground(3);
        via_kraus.apply_circuit(&c);
        via_kraus.apply_kraus_2q(0, 2, &depolarizing_2q(lambda));

        let mut via_closed = DensityMatrix::ground(3);
        via_closed.apply_circuit(&c);
        via_closed.depolarize(&[0, 2], lambda);

        assert!(via_kraus.matrix().approx_eq(via_closed.matrix(), 1e-11));
    }

    #[test]
    fn fidelity_pure_detects_match_and_mismatch() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = c.statevector();
        let mut dm = DensityMatrix::ground(2);
        dm.apply_circuit(&c);
        assert!((dm.fidelity_pure(&sv) - 1.0).abs() < 1e-12);
        let ground: Vec<Complex64> = {
            let mut v = vec![Complex64::ZERO; 4];
            v[0] = Complex64::ONE;
            v
        };
        assert!((dm.fidelity_pure(&ground) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bell_pair_entanglement_entropy_is_ln2() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut dm = DensityMatrix::ground(2);
        dm.apply_circuit(&c);
        let s = dm.entanglement_entropy(&[1]);
        assert!(
            (s - std::f64::consts::LN_2).abs() < 1e-9,
            "Bell entropy {s}"
        );
        // product state: zero entanglement
        let mut prod = DensityMatrix::ground(2);
        let mut pc = Circuit::new(2);
        pc.h(0).rx(0.3, 1);
        prod.apply_circuit(&pc);
        assert!(prod.entanglement_entropy(&[1]).abs() < 1e-9);
    }

    #[test]
    fn ghz_entropy_of_single_qubit_cut() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut dm = DensityMatrix::ground(3);
        dm.apply_circuit(&c);
        // tracing two qubits of GHZ leaves a classical 50/50 mixture: ln 2
        let s = dm.entanglement_entropy(&[1, 2]);
        assert!((s - std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn basis_constructor() {
        let dm = DensityMatrix::basis(3, 0b101);
        let p = dm.probabilities();
        assert!((p[5] - 1.0).abs() < 1e-14);
    }
}
