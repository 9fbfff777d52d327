//! The QSearch circuit template.
//!
//! QSearch builds candidates from a fixed ansatz: one U3 on every qubit,
//! then a sequence of *blocks*, each a CNOT on a coupling-graph edge followed
//! by a U3 on each of its qubits. A structure is fully described by its CNOT
//! placement sequence; the continuous parameters are the U3 angles
//! (`3 * (n + 2 * blocks)` of them).

use qaprox_circuit::{Circuit, Gate, Instruction};
use qaprox_linalg::kernels::{apply_1q_mat_left, apply_2q_mat_left, mat2_to_array, mat4_to_array};
use qaprox_linalg::matrix::Matrix;
use qaprox_linalg::{u3_matrix, Complex64};

/// One primitive op of a flattened ansatz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnsatzOp {
    /// A parameterized U3 on a qubit; angles live at `param_offset..+3`.
    U3 {
        /// Target qubit.
        qubit: usize,
        /// Index of theta in the parameter vector.
        param_offset: usize,
    },
    /// A fixed CNOT.
    Cx {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
}

/// A CNOT-placement structure over `num_qubits` qubits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Structure {
    /// Circuit width.
    pub num_qubits: usize,
    /// CNOT placements `(control, target)` in temporal order.
    pub placements: Vec<(usize, usize)>,
}

impl Structure {
    /// The root structure: no CNOTs, just the initial U3 layer.
    pub fn root(num_qubits: usize) -> Self {
        Structure {
            num_qubits,
            placements: Vec::new(),
        }
    }

    /// Child structure extended by one block on `(control, target)`.
    pub fn extended(&self, control: usize, target: usize) -> Self {
        let mut placements = self.placements.clone();
        placements.push((control, target));
        Structure {
            num_qubits: self.num_qubits,
            placements,
        }
    }

    /// Number of CNOTs.
    pub fn cnots(&self) -> usize {
        self.placements.len()
    }

    /// Number of continuous parameters.
    pub fn num_params(&self) -> usize {
        3 * (self.num_qubits + 2 * self.placements.len())
    }

    /// Flattens to the op sequence: initial U3 layer, then
    /// `CX; U3(control); U3(target)` per placement.
    pub fn ops(&self) -> Vec<AnsatzOp> {
        let mut ops = Vec::with_capacity(self.num_qubits + 3 * self.placements.len());
        let mut offset = 0;
        for q in 0..self.num_qubits {
            ops.push(AnsatzOp::U3 {
                qubit: q,
                param_offset: offset,
            });
            offset += 3;
        }
        for &(c, t) in &self.placements {
            ops.push(AnsatzOp::Cx {
                control: c,
                target: t,
            });
            ops.push(AnsatzOp::U3 {
                qubit: c,
                param_offset: offset,
            });
            offset += 3;
            ops.push(AnsatzOp::U3 {
                qubit: t,
                param_offset: offset,
            });
            offset += 3;
        }
        ops
    }

    /// Builds the concrete circuit for a parameter assignment.
    pub fn to_circuit(&self, params: &[f64]) -> Circuit {
        assert_eq!(params.len(), self.num_params(), "parameter count mismatch");
        let mut c = Circuit::new(self.num_qubits);
        for op in self.ops() {
            match op {
                AnsatzOp::U3 {
                    qubit,
                    param_offset,
                } => {
                    c.push(
                        Gate::U3(
                            params[param_offset],
                            params[param_offset + 1],
                            params[param_offset + 2],
                        ),
                        &[qubit],
                    );
                }
                AnsatzOp::Cx { control, target } => {
                    c.cx(control, target);
                }
            }
        }
        c
    }

    /// Builds the ansatz unitary directly (faster than `to_circuit().unitary()`
    /// in the optimizer's inner loop).
    pub fn unitary(&self, params: &[f64]) -> Matrix {
        let dim = 1usize << self.num_qubits;
        let mut m = Matrix::identity(dim);
        let cx = mat4_to_array(&Gate::CX.matrix());
        for op in self.ops() {
            match op {
                AnsatzOp::U3 {
                    qubit,
                    param_offset,
                } => {
                    let g = mat2_to_array(&u3_matrix(
                        params[param_offset],
                        params[param_offset + 1],
                        params[param_offset + 2],
                    ));
                    apply_1q_mat_left(&mut m, qubit, &g);
                }
                AnsatzOp::Cx { control, target } => {
                    apply_2q_mat_left(&mut m, control, target, &cx);
                }
            }
        }
        m
    }

    /// Extends a parent's optimal parameters with identity-initialized angles
    /// for one extra block — the warm start used when A* expands a node.
    pub fn warm_start_from(&self, parent_params: &[f64]) -> Vec<f64> {
        let mut params = parent_params.to_vec();
        params.resize(self.num_params(), 0.0);
        params
    }

    /// Inverse of [`Structure::to_circuit`]: recovers the structure and its
    /// parameter vector from an emitted ansatz circuit. The emitted layout is
    /// rigid — one U3 per qubit in index order, then `CX(c,t); U3(c); U3(t)`
    /// per placement, with parameters stored verbatim as U3 angles — so the
    /// round trip is bit-exact. Returns `None` for any circuit not produced
    /// by [`Structure::to_circuit`] (e.g. QFast output), which callers treat
    /// as "cannot warm-start from this one".
    pub fn from_circuit(circuit: &Circuit) -> Option<(Structure, Vec<f64>)> {
        let n = circuit.num_qubits();
        let insts: Vec<_> = circuit.iter().collect();
        if insts.len() < n || !(insts.len() - n).is_multiple_of(3) {
            return None;
        }
        fn u3_on(inst: &Instruction, expect: usize, params: &mut Vec<f64>) -> bool {
            match (&inst.gate, inst.qubits.as_slice()) {
                (Gate::U3(t, p, l), [q]) if *q == expect => {
                    params.extend_from_slice(&[*t, *p, *l]);
                    true
                }
                _ => false,
            }
        }
        let mut params = Vec::with_capacity(3 * insts.len());
        for (q, inst) in insts[..n].iter().enumerate() {
            if !u3_on(inst, q, &mut params) {
                return None;
            }
        }
        let mut placements = Vec::with_capacity((insts.len() - n) / 3);
        for block in insts[n..].chunks(3) {
            let (c, t) = match (&block[0].gate, block[0].qubits.as_slice()) {
                (Gate::CX, [c, t]) => (*c, *t),
                _ => return None,
            };
            if !u3_on(block[1], c, &mut params) || !u3_on(block[2], t, &mut params) {
                return None;
            }
            placements.push((c, t));
        }
        Some((
            Structure {
                num_qubits: n,
                placements,
            },
            params,
        ))
    }
}

/// The trigonometry of one U3 gate: `cos/sin(theta/2)` and the phases
/// `e^{i phi}`, `e^{i lambda}`, `e^{i (phi + lambda)}`. The instantiation
/// objective computes it once per gate per evaluation and builds the gate
/// and its three partials from it, with the same expressions as
/// [`qaprox_linalg::u3_array`], so the gate is bit-identical to that one.
#[derive(Debug, Clone, Copy, Default)]
pub struct U3Trig {
    ct: f64,
    st: f64,
    ep: Complex64,
    el: Complex64,
    epl: Complex64,
}

impl U3Trig {
    /// Evaluates the trigonometry of `U3(theta, phi, lambda)`.
    pub fn new(theta: f64, phi: f64, lambda: f64) -> Self {
        U3Trig {
            ct: (theta / 2.0).cos(),
            st: (theta / 2.0).sin(),
            ep: Complex64::cis(phi),
            el: Complex64::cis(lambda),
            epl: Complex64::cis(phi + lambda),
        }
    }

    /// The row-major U3 matrix.
    pub fn gate(&self) -> [Complex64; 4] {
        let (ct, st) = (self.ct, self.st);
        [
            Complex64::from_real(ct),
            -self.el * st,
            self.ep * st,
            self.epl * ct,
        ]
    }

    /// Partial derivatives of the U3 matrix with respect to its three angles.
    pub fn partials(&self) -> [[Complex64; 4]; 3] {
        let (ct, st) = (self.ct, self.st);
        let (ep, el, epl) = (self.ep, self.el, self.epl);
        let i = Complex64::I;
        // d/dtheta
        let dt = [
            Complex64::from_real(-st / 2.0),
            -el * (ct / 2.0),
            ep * (ct / 2.0),
            epl * (-st / 2.0),
        ];
        // d/dphi
        let dp = [Complex64::ZERO, Complex64::ZERO, i * ep * st, i * epl * ct];
        // d/dlambda
        let dl = [Complex64::ZERO, -i * el * st, Complex64::ZERO, i * epl * ct];
        [dt, dp, dl]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_metrics::hs_distance;

    #[test]
    fn root_structure_has_one_u3_per_qubit() {
        let s = Structure::root(3);
        assert_eq!(s.num_params(), 9);
        assert_eq!(s.ops().len(), 3);
        assert_eq!(s.cnots(), 0);
    }

    #[test]
    fn extended_structure_grows_params_by_six() {
        let s = Structure::root(3).extended(0, 1).extended(1, 2);
        assert_eq!(s.cnots(), 2);
        assert_eq!(s.num_params(), 9 + 12);
        assert_eq!(s.ops().len(), 3 + 2 * 3);
    }

    #[test]
    fn circuit_and_direct_unitary_agree() {
        let s = Structure::root(2).extended(0, 1).extended(1, 0);
        let params: Vec<f64> = (0..s.num_params())
            .map(|i| 0.1 * (i as f64 + 1.0))
            .collect();
        let via_circuit = s.to_circuit(&params).unitary();
        let direct = s.unitary(&params);
        assert!(hs_distance(&via_circuit, &direct) < 1e-12);
    }

    #[test]
    fn zero_params_give_cnot_skeleton() {
        // U3(0,0,0) = I, so the ansatz collapses to the bare CNOT sequence.
        let s = Structure::root(2).extended(0, 1);
        let params = vec![0.0; s.num_params()];
        let mut skeleton = Circuit::new(2);
        skeleton.cx(0, 1);
        assert!(hs_distance(&s.unitary(&params), &skeleton.unitary()) < 1e-12);
    }

    #[test]
    fn warm_start_preserves_parent_prefix() {
        let parent = Structure::root(2).extended(0, 1);
        let child = parent.extended(1, 0);
        let parent_params: Vec<f64> = (0..parent.num_params()).map(|i| i as f64).collect();
        let warm = child.warm_start_from(&parent_params);
        assert_eq!(warm.len(), child.num_params());
        assert_eq!(&warm[..parent_params.len()], parent_params.as_slice());
        assert!(warm[parent_params.len()..].iter().all(|&x| x == 0.0));
        // and the warm-start unitary equals the parent's optimum
        let pu = parent.unitary(&parent_params);
        let cu = child.unitary(&warm);
        // extra block with identity U3s adds one CNOT, so unitaries differ;
        // but removing it (zero params -> I U3s around a CX) is exactly CX * parent
        let mut cx = Circuit::new(2);
        cx.cx(1, 0);
        let expect = cx.unitary().matmul(&pu);
        assert!(hs_distance(&cu, &expect) < 1e-12);
    }

    #[test]
    fn from_circuit_round_trips_bit_exactly() {
        let s = Structure::root(3)
            .extended(0, 1)
            .extended(1, 2)
            .extended(0, 1);
        let params: Vec<f64> = (0..s.num_params())
            .map(|i| (i as f64 * 0.37).sin() * 2.2)
            .collect();
        let c = s.to_circuit(&params);
        let (s2, p2) = Structure::from_circuit(&c).expect("ansatz layout must parse");
        assert_eq!(s2.num_qubits, s.num_qubits);
        assert_eq!(s2.placements, s.placements);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p2), bits(&params), "params must survive bit-exactly");
        // root-only structures parse too
        let root = Structure::root(2);
        let rp = vec![0.25; root.num_params()];
        let (r2, _) = Structure::from_circuit(&root.to_circuit(&rp)).unwrap();
        assert!(r2.placements.is_empty());
    }

    #[test]
    fn from_circuit_rejects_non_ansatz_layouts() {
        let mut other = Circuit::new(2);
        other.h(0).cx(0, 1);
        assert!(Structure::from_circuit(&other).is_none());
        // a truncated block (CX without its trailing U3 pair) is rejected
        let s = Structure::root(2).extended(0, 1);
        let full = s.to_circuit(&vec![0.1; s.num_params()]);
        let mut truncated = Circuit::new(2);
        for inst in full.iter().take(full.iter().count() - 1) {
            truncated.push(inst.gate.clone(), &inst.qubits);
        }
        assert!(Structure::from_circuit(&truncated).is_none());
        assert!(Structure::from_circuit(&Circuit::new(2)).is_none());
    }

    #[test]
    fn u3_trig_gate_is_bit_identical_to_u3_array() {
        let bits = |g: [Complex64; 4]| g.map(|z| (z.re.to_bits(), z.im.to_bits()));
        for (t, p, l) in [
            (0.0, 0.0, 0.0),
            (0.7, -1.2, 2.1),
            (-3.1, 2.9, -0.4),
            (1e-9, 6.0, -6.0),
        ] {
            let gate = U3Trig::new(t, p, l).gate();
            assert_eq!(bits(gate), bits(qaprox_linalg::u3_array(t, p, l)));
        }
    }

    #[test]
    fn u3_partials_match_finite_differences() {
        let (t, p, l) = (0.7, -1.2, 2.1);
        let h = 1e-6;
        let partials = U3Trig::new(t, p, l).partials();
        let base_args = [(t, p, l); 3];
        for (k, args) in base_args.iter().enumerate() {
            let (mut tp, mut pp, mut lp) = *args;
            let (mut tm, mut pm, mut lm) = *args;
            match k {
                0 => {
                    tp += h;
                    tm -= h;
                }
                1 => {
                    pp += h;
                    pm -= h;
                }
                _ => {
                    lp += h;
                    lm -= h;
                }
            }
            let up = u3_matrix(tp, pp, lp);
            let um = u3_matrix(tm, pm, lm);
            for (idx, &an) in partials[k].iter().enumerate() {
                let fd = (up.data()[idx] - um.data()[idx]) / (2.0 * h);
                assert!(
                    (fd - an).abs() < 1e-8,
                    "partial {k} entry {idx}: fd {fd:?} vs analytic {an:?}"
                );
            }
        }
    }
}
