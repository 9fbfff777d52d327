//! QFactor-style tensor-sweep circuit optimization (the paper's Sec. 6.5
//! roadmap tool).
//!
//! Instead of gradient descent over gate *parameters*, QFactor sweeps over
//! gate *matrices*: holding every other gate fixed, the optimal replacement
//! for gate `G_k` maximizing `|Tr(V^dag U)|` is the unitary polar factor of
//! its environment tensor. Each sweep touches every gate once; distances are
//! monotone non-increasing, converging to a local optimum.

use qaprox_circuit::{Circuit, Gate, Instruction};
use qaprox_linalg::kernels::{
    apply_1q_mat_left, apply_1q_mat_right_dag, apply_2q_mat_left, apply_2q_mat_right_dag,
    mat2_to_array, mat4_to_array,
};
use qaprox_linalg::matrix::Matrix;
use qaprox_linalg::polar::polar_unitary;
use qaprox_linalg::Complex64;

/// QFactor configuration.
#[derive(Debug, Clone)]
pub struct QFactorConfig {
    /// Maximum sweeps over the circuit.
    pub max_sweeps: usize,
    /// Stop when a full sweep improves the distance by less than this.
    pub improvement_tol: f64,
    /// Also update two-qubit gates (otherwise CX placements stay fixed and
    /// only one-qubit gates move — the mode used to polish QSearch output).
    pub optimize_two_qubit: bool,
}

impl Default for QFactorConfig {
    fn default() -> Self {
        QFactorConfig {
            max_sweeps: 100,
            improvement_tol: 1e-12,
            optimize_two_qubit: false,
        }
    }
}

/// Result of a QFactor run.
#[derive(Debug, Clone)]
pub struct QFactorResult {
    /// The optimized circuit (free gates become `Unitary1`/`Unitary2`).
    pub circuit: Circuit,
    /// Final HS distance to the target.
    pub distance: f64,
    /// Sweeps performed.
    pub sweeps: usize,
}

fn apply_gate_left(m: &mut Matrix, inst: &Instruction) {
    match *inst.qubits.as_slice() {
        [q] => apply_1q_mat_left(m, q, &mat2_to_array(&inst.gate.matrix())),
        [a, b] => apply_2q_mat_left(m, a, b, &mat4_to_array(&inst.gate.matrix())),
        _ => unreachable!(),
    }
}

/// `M <- M * G_embed` via the right-dag kernel with the daggered gate.
fn apply_gate_right(m: &mut Matrix, inst: &Instruction) {
    match *inst.qubits.as_slice() {
        [q] => {
            let gd = mat2_to_array(&inst.gate.matrix().adjoint());
            apply_1q_mat_right_dag(m, q, &gd);
        }
        [a, b] => {
            let gd = mat4_to_array(&inst.gate.matrix().adjoint());
            apply_2q_mat_right_dag(m, a, b, &gd);
        }
        _ => unreachable!(),
    }
}

/// Environment of gate `k`: `W[s', s] = sum_rest M[(s', rest), (s, rest)]`
/// where `M = A_{k-1} L_k` and `s` ranges over the gate's local indices.
fn environment(m: &Matrix, qubits: &[usize], n: usize) -> Matrix {
    let k = qubits.len();
    let small = 1usize << k;
    let rest_qubits: Vec<usize> = (0..n).filter(|q| !qubits.contains(q)).collect();
    let mut w = Matrix::zeros(small, small);
    for sp in 0..small {
        for s in 0..small {
            let mut acc = Complex64::ZERO;
            for r in 0..(1usize << rest_qubits.len()) {
                let mut i = 0usize;
                let mut j = 0usize;
                for (bit, &q) in qubits.iter().enumerate() {
                    // qubits[0] is the high bit of the gate's small index
                    let shift = k - 1 - bit;
                    i |= ((sp >> shift) & 1) << q;
                    j |= ((s >> shift) & 1) << q;
                }
                for (bit, &q) in rest_qubits.iter().enumerate() {
                    let b = (r >> bit) & 1;
                    i |= b << q;
                    j |= b << q;
                }
                acc += m[(i, j)];
            }
            w[(sp, s)] = acc;
        }
    }
    w
}

/// Optimizes the gates of `circuit` to approach `target`, keeping the gate
/// *placements* fixed. One-qubit gates always float; two-qubit gates float
/// only when `cfg.optimize_two_qubit` is set.
pub fn qfactor_optimize(circuit: &Circuit, target: &Matrix, cfg: &QFactorConfig) -> QFactorResult {
    let n = circuit.num_qubits();
    let dim = 1usize << n;
    assert_eq!(target.rows(), dim, "target dimension mismatch");
    let target_dag = target.adjoint();

    let mut insts: Vec<Instruction> = circuit.instructions().to_vec();
    let m = insts.len();
    let dist_of = |insts: &[Instruction]| -> f64 {
        let mut u = Matrix::identity(dim);
        for inst in insts {
            apply_gate_left(&mut u, inst);
        }
        (1.0 - target_dag.matmul_trace(&u).abs() / dim as f64).max(0.0)
    };

    let mut best_dist = dist_of(&insts);
    let mut sweeps = 0usize;

    for _ in 0..cfg.max_sweeps {
        sweeps += 1;
        // prefix products a[k] = G_{k-1}..G_0
        let mut prefixes: Vec<Matrix> = Vec::with_capacity(m + 1);
        prefixes.push(Matrix::identity(dim));
        for inst in &insts {
            let mut next = prefixes.last().unwrap().clone();
            apply_gate_left(&mut next, inst);
            prefixes.push(next);
        }
        // suffix l[k] = V^dag G_{m-1}..G_{k+1}
        let mut suffix = target_dag.clone();
        for k in (0..m).rev() {
            let free = match insts[k].qubits.len() {
                1 => true,
                _ => cfg.optimize_two_qubit,
            };
            if free {
                // M = A_{k-1} * L_k ; T(g) = Tr(g_embed M) maximized at
                // g = polar_unitary(W^dag), W = env(M)
                let m_mat = prefixes[k].matmul(&suffix);
                let w = environment(&m_mat, &insts[k].qubits, n);
                if let Ok(g) = polar_unitary(&w.adjoint()) {
                    insts[k].gate = match insts[k].qubits.len() {
                        1 => Gate::Unitary1(Box::new(g)),
                        _ => Gate::Unitary2(Box::new(g)),
                    };
                }
            }
            apply_gate_right(&mut suffix, &insts[k]);
        }
        let new_dist = dist_of(&insts);
        let improvement = best_dist - new_dist;
        best_dist = new_dist.min(best_dist);
        if improvement < cfg.improvement_tol {
            break;
        }
    }

    let mut out = Circuit::new(n);
    for inst in insts {
        out.push(inst.gate, &inst.qubits);
    }
    QFactorResult {
        circuit: out,
        distance: best_dist,
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Structure;
    use qaprox_linalg::random::haar_unitary;
    use qaprox_linalg::random::SplitMix64 as StdRng;

    #[test]
    fn environment_trace_identity() {
        // Tr(g_embed M) computed via environment must match direct embedding.
        let mut rng = StdRng::seed_from_u64(2);
        let n = 3;
        let dim = 8;
        let mut m = Matrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                m[(i, j)] = qaprox_linalg::c64((i * 3 + j) as f64 * 0.07, (j * 5) as f64 * 0.03);
            }
        }
        let g = haar_unitary(2, &mut rng);
        for q in 0..n {
            let w = environment(&m, &[q], n);
            let direct = {
                let emb = qaprox_linalg::kernels::embed_1q(n, q, &mat2_to_array(&g));
                emb.matmul(&m).trace()
            };
            let via_env: Complex64 = {
                let mut acc = Complex64::ZERO;
                for s in 0..2 {
                    for sp in 0..2 {
                        acc += g[(s, sp)] * w[(sp, s)];
                    }
                }
                acc
            };
            assert!(
                (direct - via_env).abs() < 1e-10,
                "qubit {q}: {direct:?} vs {via_env:?}"
            );
        }
    }

    #[test]
    fn environment_trace_identity_2q() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 3;
        let dim = 8;
        let mut m = Matrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                m[(i, j)] = qaprox_linalg::c64((i + 2 * j) as f64 * 0.05, (i * j) as f64 * 0.01);
            }
        }
        let g = haar_unitary(4, &mut rng);
        for (a, b) in [(0usize, 1usize), (2, 0), (1, 2)] {
            let w = environment(&m, &[a, b], n);
            let direct = {
                let emb = qaprox_linalg::kernels::embed_2q(n, a, b, &mat4_to_array(&g));
                emb.matmul(&m).trace()
            };
            let mut via_env = Complex64::ZERO;
            for s in 0..4 {
                for sp in 0..4 {
                    via_env += g[(s, sp)] * w[(sp, s)];
                }
            }
            assert!((direct - via_env).abs() < 1e-10, "pair ({a},{b})");
        }
    }

    #[test]
    fn polishes_perturbed_circuit_to_exact() {
        // Build a 2-CNOT ansatz circuit, perturb its 1q gates, and let
        // QFactor recover the target.
        let s = Structure::root(2).extended(0, 1).extended(1, 0);
        let true_params: Vec<f64> = (0..s.num_params())
            .map(|i| 0.31 * (i as f64 + 1.0))
            .collect();
        let target = s.unitary(&true_params);
        let perturbed: Vec<f64> = true_params.iter().map(|p| p + 0.15).collect();
        let start = s.to_circuit(&perturbed);
        let r = qfactor_optimize(&start, &target, &QFactorConfig::default());
        assert!(r.distance < 1e-9, "QFactor residual {}", r.distance);
    }

    #[test]
    fn distance_is_monotone_nonincreasing() {
        let mut rng = StdRng::seed_from_u64(7);
        let target = haar_unitary(8, &mut rng);
        let s = Structure::root(3)
            .extended(0, 1)
            .extended(1, 2)
            .extended(0, 1);
        let start = s.to_circuit(&vec![0.3; s.num_params()]);
        let d0 = {
            let dim = 8.0;
            (1.0 - target.adjoint().matmul(&start.unitary()).trace().abs() / dim).max(0.0)
        };
        let r = qfactor_optimize(
            &start,
            &target,
            &QFactorConfig {
                max_sweeps: 5,
                ..Default::default()
            },
        );
        assert!(
            r.distance <= d0 + 1e-12,
            "{} should not exceed {d0}",
            r.distance
        );
    }

    #[test]
    fn two_qubit_mode_reaches_lower_distance() {
        let mut rng = StdRng::seed_from_u64(8);
        let target = haar_unitary(4, &mut rng);
        let s = Structure::root(2).extended(0, 1);
        let start = s.to_circuit(&vec![0.2; s.num_params()]);
        let fixed = qfactor_optimize(&start, &target, &QFactorConfig::default());
        let free = qfactor_optimize(
            &start,
            &target,
            &QFactorConfig {
                optimize_two_qubit: true,
                ..Default::default()
            },
        );
        // with the CX replaced by a free SU(4) block, one block is universal
        assert!(
            free.distance < 1e-8,
            "free-block distance {}",
            free.distance
        );
        assert!(free.distance <= fixed.distance + 1e-12);
    }
}
