//! The circuit IR: an ordered list of placed gates on `n` qubits.

use crate::gate::Gate;
use qaprox_linalg::kernels::{
    apply_1q_mat_left, apply_1q_vec_blocked, apply_2q_mat_left, apply_2q_vec_blocked,
    mat2_to_array, mat4_to_array,
};
use qaprox_linalg::matrix::Matrix;
use qaprox_linalg::Complex64;

/// A gate placed on specific qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The gate.
    pub gate: Gate,
    /// Target qubits; for two-qubit gates the first entry is the
    /// control / high bit of the gate's 4x4 matrix.
    pub qubits: Vec<usize>,
}

/// An ordered quantum circuit over one- and two-qubit gates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Hilbert-space dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// The placed gates in order.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True when the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends a gate on the given qubits.
    ///
    /// # Panics
    /// Panics if the qubit list length does not match the gate arity, if any
    /// qubit is out of range, or if a two-qubit gate repeats a qubit.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) {
        assert_eq!(
            qubits.len(),
            gate.arity(),
            "qubit count != gate arity for {}",
            gate.name()
        );
        for &q in qubits {
            assert!(
                q < self.num_qubits,
                "qubit {q} out of range (n={})",
                self.num_qubits
            );
        }
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "two-qubit gate with repeated qubit");
        }
        self.instructions.push(Instruction {
            gate,
            qubits: qubits.to_vec(),
        });
    }

    /// Appends every instruction of `other` (qubit counts must match).
    pub fn extend(&mut self, other: &Circuit) {
        assert_eq!(self.num_qubits, other.num_qubits, "compose width mismatch");
        self.instructions.extend(other.instructions.iter().cloned());
    }

    /// Appends `other` with its qubit `i` mapped to `mapping[i]`.
    pub fn extend_mapped(&mut self, other: &Circuit, mapping: &[usize]) {
        assert_eq!(mapping.len(), other.num_qubits, "mapping length mismatch");
        for inst in &other.instructions {
            let qubits: Vec<usize> = inst.qubits.iter().map(|&q| mapping[q]).collect();
            self.push(inst.gate.clone(), &qubits);
        }
    }

    // --- convenience builders ---

    /// Appends a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H, &[q]);
        self
    }
    /// Appends a Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X, &[q]);
        self
    }
    /// Appends a Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y, &[q]);
        self
    }
    /// Appends a Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z, &[q]);
        self
    }
    /// Appends an RX rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::RX(theta), &[q]);
        self
    }
    /// Appends an RY rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::RY(theta), &[q]);
        self
    }
    /// Appends an RZ rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::RZ(theta), &[q]);
        self
    }
    /// Appends a U3 gate.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.push(Gate::U3(theta, phi, lambda), &[q]);
        self
    }
    /// Appends a CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::CX, &[control, target]);
        self
    }
    /// Appends a CZ.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::CZ, &[a, b]);
        self
    }
    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::SWAP, &[a, b]);
        self
    }

    // --- accounting ---

    /// Number of literal CX gates.
    pub fn cx_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i.gate, Gate::CX))
            .count()
    }

    /// Number of two-qubit gates of any kind.
    pub fn two_qubit_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.is_two_qubit())
            .count()
    }

    /// CNOT cost after decomposition to the {U3, CX} basis
    /// (CX/CZ -> 1, controlled rotations -> 2, SWAP / generic 2q -> 3).
    pub fn cnot_cost(&self) -> usize {
        self.instructions.iter().map(|i| i.gate.cnot_cost()).sum()
    }

    /// Circuit depth: longest chain of dependent gates.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut max = 0;
        for inst in &self.instructions {
            let l = inst.qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &inst.qubits {
                level[q] = l;
            }
            max = max.max(l);
        }
        max
    }

    /// Depth counting only two-qubit gates (the paper's "CNOT depth").
    pub fn cnot_depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut max = 0;
        for inst in &self.instructions {
            if !inst.gate.is_two_qubit() {
                continue;
            }
            let l = inst.qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &inst.qubits {
                level[q] = l;
            }
            max = max.max(l);
        }
        max
    }

    // --- semantics ---

    /// Applies the circuit to a statevector in place.
    ///
    /// Rides the same blocked, runtime-dispatched amplitude kernels as the
    /// trajectory backend (AVX2 when the host supports it), so the ideal
    /// statevector path gets the SIMD speedup too. The blocked kernels are
    /// bit-identical to the plain ones.
    ///
    /// Two gate shapes skip the dense kernels. A CX swaps contiguous runs
    /// of amplitudes, and a one-qubit gate whose off-diagonal entries are
    /// exactly zero (RZ, P, S, T, Z) multiplies each half by its diagonal
    /// entry. On a finite state every nonzero amplitude keeps the bits the
    /// dense kernel gives it: the terms these paths leave out are products
    /// with an exact zero, and adding a zero to a nonzero value is exact.
    /// Only an exact zero may come out with the other sign, which its
    /// probability does not see.
    pub fn apply_to_state(&self, state: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim(), "statevector dimension mismatch");
        for inst in &self.instructions {
            match (&inst.gate, inst.qubits.as_slice()) {
                (Gate::CX, &[c, t]) => apply_cx(state, c, t),
                (gate, &[q]) => {
                    let u = mat2_to_array(&gate.matrix());
                    if u[1] == Complex64::ZERO && u[2] == Complex64::ZERO {
                        apply_diagonal_1q(state, q, u[0], u[3]);
                    } else {
                        apply_1q_vec_blocked(state, q, &u);
                    }
                }
                (gate, &[a, b]) => {
                    let u = mat4_to_array(&gate.matrix());
                    apply_2q_vec_blocked(state, a, b, &u);
                }
                _ => unreachable!("IR only holds 1- and 2-qubit gates"),
            }
        }
    }

    /// Builds the circuit's full unitary by applying each gate to the columns
    /// of the identity — `O(len * 4^n)`, never materializing embeddings.
    pub fn unitary(&self) -> Matrix {
        let mut m = Matrix::identity(self.dim());
        for inst in &self.instructions {
            match inst.gate.arity() {
                1 => {
                    let u = mat2_to_array(&inst.gate.matrix());
                    apply_1q_mat_left(&mut m, inst.qubits[0], &u);
                }
                2 => {
                    let u = mat4_to_array(&inst.gate.matrix());
                    apply_2q_mat_left(&mut m, inst.qubits[0], inst.qubits[1], &u);
                }
                _ => unreachable!("IR only holds 1- and 2-qubit gates"),
            }
        }
        m
    }

    /// Runs the circuit on `|0...0>` and returns the final statevector.
    pub fn statevector(&self) -> Vec<Complex64> {
        let mut state = vec![Complex64::ZERO; self.dim()];
        state[0] = Complex64::ONE;
        self.apply_to_state(&mut state);
        state
    }

    /// The inverse circuit: reversed order, daggered gates.
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::new(self.num_qubits);
        for inst in self.instructions.iter().rev() {
            inv.push(inst.gate.dagger(), &inst.qubits);
        }
        inv
    }

    /// Iterates over `(gate, qubits)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &Instruction> {
        self.instructions.iter()
    }

    /// Removes all instructions, keeping the width.
    pub fn clear(&mut self) {
        self.instructions.clear();
    }
}

/// CX with control `c` and target `t` on a statevector: every amplitude
/// with the control bit set trades places with its target-bit partner.
/// Indices that differ only below the lower of the two bits are
/// contiguous, so each trade is a swap of two runs of that length.
fn apply_cx(state: &mut [Complex64], c: usize, t: usize) {
    let dim = state.len();
    assert!(
        c != t && 1 << c < dim && 1 << t < dim,
        "CX qubits out of range"
    );
    let (mc, mt) = (1usize << c, 1usize << t);
    let (run, mhi) = (mc.min(mt), mc.max(mt));
    let mut base_hi = 0usize;
    while base_hi < dim {
        // `base` walks the indices with both bits clear, one run at a time
        let mut base = base_hi;
        while base < base_hi + mhi {
            let i0 = base | mc;
            let (head, tail) = state.split_at_mut(i0 | mt);
            head[i0..i0 + run].swap_with_slice(&mut tail[..run]);
            base += run << 1;
        }
        base_hi += mhi << 1;
    }
}

/// A one-qubit gate `diag(d0, d1)` on qubit `q`: each amplitude is
/// multiplied by the entry of its bit `q`, as the dense kernel's
/// `a * u[0] + b * u[1]` does less its product with the zero entry.
fn apply_diagonal_1q(state: &mut [Complex64], q: usize, d0: Complex64, d1: Complex64) {
    let dim = state.len();
    assert!(1 << q < dim, "qubit index out of range");
    let mask = 1usize << q;
    for block in state.chunks_exact_mut(mask << 1) {
        let (zero, one) = block.split_at_mut(mask);
        for z in zero {
            *z *= d0;
        }
        for z in one {
            *z *= d1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_linalg::c64;

    #[test]
    fn bell_state_preparation() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = c.statevector();
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((sv[0] - c64(s, 0.0)).abs() < 1e-13);
        assert!((sv[3] - c64(s, 0.0)).abs() < 1e-13);
        assert!(sv[1].abs() < 1e-13 && sv[2].abs() < 1e-13);
    }

    #[test]
    fn ghz_state_on_three_qubits() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let sv = c.statevector();
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((sv[0].abs() - s).abs() < 1e-13);
        assert!((sv[7].abs() - s).abs() < 1e-13);
        for (i, amp) in sv.iter().enumerate().take(7).skip(1) {
            assert!(amp.abs() < 1e-13, "leak at index {i}");
        }
    }

    #[test]
    fn unitary_matches_statevector_column_zero() {
        let mut c = Circuit::new(2);
        c.h(0).rz(0.7, 1).cx(1, 0).ry(-0.3, 0);
        let u = c.unitary();
        let sv = c.statevector();
        for i in 0..4 {
            assert!((u[(i, 0)] - sv[i]).abs() < 1e-13);
        }
        assert!(u.is_unitary(1e-12));
    }

    #[test]
    fn inverse_cancels_circuit() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .rz(1.3, 1)
            .swap(1, 2)
            .u3(0.4, 1.1, -0.6, 2)
            .cz(0, 2);
        let mut full = c.clone();
        full.extend(&c.inverse());
        assert!(full.unitary().approx_eq(&Matrix::identity(8), 1e-12));
    }

    #[test]
    fn accounting_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).swap(0, 2).rz(0.5, 1).cz(0, 1);
        assert_eq!(c.cx_count(), 2);
        assert_eq!(c.two_qubit_count(), 4);
        assert_eq!(c.cnot_cost(), 1 + 1 + 3 + 1);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn depth_computation() {
        let mut c = Circuit::new(3);
        // layer 1: h(0), h(1); layer 2: cx(0,1); layer 3: cx(1,2)
        c.h(0).h(1).cx(0, 1).cx(1, 2);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.cnot_depth(), 2);
    }

    #[test]
    fn cnot_depth_parallel_gates() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3); // parallel: depth 1
        assert_eq!(c.cnot_depth(), 1);
        c.cx(1, 2); // forces a second layer
        assert_eq!(c.cnot_depth(), 2);
    }

    #[test]
    fn extend_mapped_relabels_qubits() {
        let mut inner = Circuit::new(2);
        inner.h(0).cx(0, 1);
        let mut outer = Circuit::new(4);
        outer.extend_mapped(&inner, &[3, 1]);
        assert_eq!(outer.instructions()[0].qubits, vec![3]);
        assert_eq!(outer.instructions()[1].qubits, vec![3, 1]);
    }

    #[test]
    fn swap_gate_swaps_basis_states() {
        let mut c = Circuit::new(2);
        c.x(0); // |01> (qubit0 = 1)
        c.swap(0, 1); // -> |10>
        let sv = c.statevector();
        assert!((sv[2] - Complex64::ONE).abs() < 1e-13);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range_qubit() {
        let mut c = Circuit::new(2);
        c.h(5);
    }

    #[test]
    #[should_panic(expected = "repeated qubit")]
    fn push_rejects_repeated_qubits() {
        let mut c = Circuit::new(2);
        c.cx(1, 1);
    }

    #[test]
    fn cz_is_symmetric() {
        let mut a = Circuit::new(2);
        a.cz(0, 1);
        let mut b = Circuit::new(2);
        b.cz(1, 0);
        assert!(a.unitary().approx_eq(&b.unitary(), 1e-13));
    }

    #[test]
    fn unitary_of_empty_circuit_is_identity() {
        let c = Circuit::new(3);
        assert!(c.unitary().approx_eq(&Matrix::identity(8), 1e-15));
    }
}
