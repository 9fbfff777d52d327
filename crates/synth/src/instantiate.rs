//! Instantiation: optimizing a structure's continuous parameters against a
//! target unitary.
//!
//! The objective is BQSKit's `f(theta) = 1 - |Tr(V^dag U(theta))| / d`,
//! minimized by multistart L-BFGS with **analytic gradients**. The gradient
//! uses prefix products `A_k` and suffix products `L_k = V^dag G_m ... G_{k+1}`
//! so that `dT/dtheta = Tr(L_k dG_k A_{k-1})` costs `O(d^2)` per parameter.
//!
//! # Bit-identity contract
//!
//! Rewrites of this objective must not move a single bit of `f` or of any
//! gradient entry for finite parameters: synthesis streams are hashed into
//! checkpoint keys and stored artifacts, and every scored row downstream
//! depends on them. Two tests enforce it. The unit tests compare
//! [`HsObjective::eval_with_workspace`] with a test-only oracle (the
//! straightforward evaluation this one replaced) by `to_bits` over random
//! structures, and `tests/golden_stream.rs` pins digests of full QSearch
//! and QFast intermediate streams.
//!
//! The evaluation does only the arithmetic whose result is used:
//! * each U3's trigonometry is evaluated once ([`U3Trig`]) and shared by the
//!   prefix gate, the suffix gate and the three partials;
//! * CX is a row permutation (prefix chain) or a column permutation (suffix
//!   chain), not a dense 4x4 multiply;
//! * both chains are built out of place, each product written from its
//!   predecessor's slot straight into its own, so no product is copied;
//! * a U3's three partials `Tr(L_k dG A_k)` come from one fused pass
//!   ([`qaprox_linalg::kernels::u3_partial_traces`]) that forms entries of
//!   `dG A_k` on the fly, skipping the rows that `dG/dphi` zeroes and the
//!   zero column of `dG/dlambda`.
//!
//! Dropping those terms is exact for finite values. Every nonzero result of
//! a complex add or multiply is the same whatever the signs of any zero
//! inputs, so the two ways differ at most in the sign of exact zeros (the
//! dense CX multiply turns `-0.0` into `+0.0`; a copy keeps it). That sign
//! never reaches the output: the trace and each partial fold into an
//! accumulator that starts at `+0.0` and so can never hold `-0.0`.
//!
//! # What runs across lanes
//!
//! The chain updates and the fused partial pass go through the kernel table
//! [`qaprox_linalg::kernel_dispatch`] selected (AVX2 where the host has it;
//! `QAPROX_SIMD=0` selects the scalar references):
//! * the prefix update `U_embed * A` and the suffix update
//!   `M * U_embed^dagger` (both out of place) write every entry
//!   independently, so computing two entries per vector cannot change one;
//! * the fused pass forms the entries `x * u0 + y * u1` of `dG A_k` across
//!   lanes, but each partial's accumulate chain stays serial: one
//!   accumulator per partial, adding the same terms in the same i-then-j
//!   order. Splitting a sum across lanes would reassociate it and move bits.
//!   The vector step is `addsub(acc + l.re * e, l.im * swap(e))`, which
//!   rounds exactly as `acc.mul_add(l, e)` (`(acc.re + l.re e.re) - l.im
//!   e.im`); it never uses FMA and never forms `l * e` first. The theta and
//!   lambda accumulators share one 256-bit register, phi's is 128-bit.
//!
//! Every step of a chain is two dependent roundings, so a U3's partial pass
//! is bounded below by `d^2` such step latencies, however wide the vectors.
//!
//! Computed cost of one 3-qubit evaluation (`d = 8`) with `B` blocks, in
//! complex multiply-adds: the oracle spends `832` per U3 (`128` prefix,
//! `128` suffix, `3 x 192` gradient) and `512` per CX, so `832 (3 + 2B) +
//! 512 B`, which is `11200` at `B = 4`. This evaluation spends `672` per U3
//! (`128 + 128` in the chains, `192 + 96 + 128` in the partials) and none
//! per CX: `672 (3 + 2B)`, `7392` at `B = 4`. Trigonometric calls per U3
//! fall from 24 to 8. Of the scalar evaluation's time at `B = 4`, about 40 %
//! is the chains and 60 % the partials; `docs/PERF.md` has the measured
//! per-evaluation times of both kernel tables.

use crate::template::{AnsatzOp, Structure, U3Trig};
use qaprox_linalg::matrix::Matrix;
use qaprox_linalg::{kernel_dispatch, KernelDispatch};
use qaprox_opt::{multistart_minimize, GradObjective, LbfgsParams, MultistartParams};
use std::cell::RefCell;

/// Reusable buffers for one objective/gradient evaluation: the prefix and
/// suffix product chains plus the per-op U3 trigonometry. After the first
/// evaluation at a given (dimension, op-count) every later evaluation does
/// **zero** heap allocation inside the objective — the optimizer's hot loop
/// touches only these warm buffers.
pub struct InstantiateWorkspace {
    dim: usize,
    /// `prefixes[k] = G_{k-1} ... G_0` (so `prefixes[0] = I`).
    prefixes: Vec<Matrix>,
    /// `suffixes[k] = V^dag G_{m-1} ... G_{k+1}`.
    suffixes: Vec<Matrix>,
    /// The full product `V^dag U`.
    cur: Matrix,
    /// `trig[k]` for every U3 op `k` of this evaluation (unused at CX ops).
    trig: Vec<U3Trig>,
}

impl Default for InstantiateWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl InstantiateWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        InstantiateWorkspace {
            dim: 0,
            prefixes: Vec::new(),
            suffixes: Vec::new(),
            cur: Matrix::zeros(0, 0),
            trig: Vec::new(),
        }
    }

    /// Grows the buffers to hold an evaluation of `m` ops at dimension `dim`.
    fn ensure(&mut self, dim: usize, m: usize) {
        if self.dim != dim {
            self.prefixes.clear();
            self.suffixes.clear();
            self.cur = Matrix::zeros(dim, dim);
            self.dim = dim;
        }
        while self.prefixes.len() < m + 1 {
            self.prefixes.push(Matrix::zeros(dim, dim));
        }
        while self.suffixes.len() < m {
            self.suffixes.push(Matrix::zeros(dim, dim));
        }
        if self.trig.len() < m {
            self.trig.resize(m, U3Trig::default());
        }
    }
}

thread_local! {
    /// Per-thread workspace behind [`HsObjective`]'s `GradObjective` impl, so
    /// the objective stays `Sync` (parallel search waves share it immutably)
    /// while evaluations reuse buffers.
    static WORKSPACE: RefCell<InstantiateWorkspace> = RefCell::new(InstantiateWorkspace::new());
}

/// The Hilbert-Schmidt instantiation objective for a fixed structure.
pub struct HsObjective<'a> {
    structure: &'a Structure,
    target_dag: Matrix,
    dim: usize,
    ops: Vec<AnsatzOp>,
}

impl<'a> HsObjective<'a> {
    /// Creates the objective for synthesizing `target` with `structure`.
    pub fn new(structure: &'a Structure, target: &Matrix) -> Self {
        let dim = 1usize << structure.num_qubits;
        assert_eq!(target.rows(), dim, "target dimension mismatch");
        HsObjective {
            structure,
            target_dag: target.adjoint(),
            dim,
            ops: structure.ops(),
        }
    }

    /// Objective value only.
    pub fn distance(&self, params: &[f64]) -> f64 {
        let t = self
            .target_dag
            .matmul_trace(&self.structure.unitary(params));
        (1.0 - t.abs() / self.dim as f64).max(0.0)
    }

    /// The full objective+gradient evaluation against an explicit workspace,
    /// on the kernel table this process selected ([`kernel_dispatch`]).
    /// [`GradObjective::eval_into`] routes here through a thread-local one.
    pub fn eval_with_workspace(
        &self,
        ws: &mut InstantiateWorkspace,
        params: &[f64],
        grad: &mut [f64],
    ) -> f64 {
        self.eval_with_kernels(kernel_dispatch(), ws, params, grad)
    }

    /// [`Self::eval_with_workspace`] on an explicit kernel table, so the
    /// tests can hold every table to the oracle in one process.
    fn eval_with_kernels(
        &self,
        kernels: &KernelDispatch,
        ws: &mut InstantiateWorkspace,
        params: &[f64],
        grad: &mut [f64],
    ) -> f64 {
        let d = self.dim as f64;
        let m = self.ops.len();
        ws.ensure(self.dim, m);

        // prefix products: a[k] = G_{k-1} ... G_0 (a[0] = I)
        ws.prefixes[0].set_identity();
        for (k, op) in self.ops.iter().enumerate() {
            let (done, rest) = ws.prefixes.split_at_mut(k + 1);
            match *op {
                AnsatzOp::U3 {
                    qubit,
                    param_offset,
                } => {
                    let p = &params[param_offset..param_offset + 3];
                    ws.trig[k] = U3Trig::new(p[0], p[1], p[2]);
                    (kernels.apply_1q_mat_left_into)(
                        &mut rest[0],
                        &done[k],
                        qubit,
                        &ws.trig[k].gate(),
                    );
                }
                AnsatzOp::Cx { control, target } => {
                    cx_rows_into(&mut rest[0], &done[k], control, target);
                }
            }
        }

        // suffix products: l[k] = V^dag G_{m-1} ... G_{k+1} (l[m-1] = V^dag)
        // built backward out of place, l[k-1] = l[k] * G_k, and the last
        // step l[0] * G_0 = V^dag U written to cur
        if m == 0 {
            ws.cur.copy_from(&self.target_dag);
        } else {
            ws.suffixes[m - 1].copy_from(&self.target_dag);
        }
        for k in (0..m).rev() {
            let (head, tail) = ws.suffixes.split_at_mut(k);
            let dst = match k {
                0 => &mut ws.cur,
                _ => &mut head[k - 1],
            };
            match self.ops[k] {
                AnsatzOp::U3 { qubit, .. } => {
                    // M * G through the right_dag kernel: pass G^dag (its
                    // adjoint is G again, bit for bit)
                    let g = ws.trig[k].gate();
                    let gd = [g[0].conj(), g[2].conj(), g[1].conj(), g[3].conj()];
                    (kernels.apply_1q_mat_right_dag_into)(dst, &tail[0], qubit, &gd);
                }
                AnsatzOp::Cx { control, target } => cx_cols_into(dst, &tail[0], control, target),
            }
        }
        // cur = V^dag U; trace overlap:
        let t = ws.cur.trace();
        let t_abs = t.abs();
        let f = (1.0 - t_abs / d).max(0.0);

        grad.fill(0.0);
        if t_abs < 1e-300 {
            return f;
        }
        let scale = t.conj() / (t_abs * d);

        for (k, op) in self.ops.iter().enumerate() {
            if let AnsatzOp::U3 {
                qubit,
                param_offset,
            } = *op
            {
                let dg = ws.trig[k].partials();
                let dts = (kernels.u3_partial_traces)(&ws.suffixes[k], &ws.prefixes[k], qubit, &dg);
                for (which, dt) in dts.into_iter().enumerate() {
                    grad[param_offset + which] = -(scale * dt).re;
                }
            }
        }
        f
    }
}

/// `dst <- CX_embed * src`: rows with the control bit set take the row with
/// the target bit flipped; the rest are copied.
fn cx_rows_into(dst: &mut Matrix, src: &Matrix, control: usize, target: usize) {
    let cols = src.cols();
    let (cmask, tmask) = (1usize << control, 1usize << target);
    let s = src.data();
    for (r, row) in dst.data_mut().chunks_exact_mut(cols).enumerate() {
        let from = if r & cmask != 0 { r ^ tmask } else { r };
        row.copy_from_slice(&s[from * cols..(from + 1) * cols]);
    }
}

/// `dst <- src * CX_embed`: columns with the control bit set take the
/// column with the target bit flipped; the rest are copied.
fn cx_cols_into(dst: &mut Matrix, src: &Matrix, control: usize, target: usize) {
    let cols = src.cols();
    let (cmask, tmask) = (1usize << control, 1usize << target);
    let rows = src.data().chunks_exact(cols);
    for (out, row) in dst.data_mut().chunks_exact_mut(cols).zip(rows) {
        for (j, z) in out.iter_mut().enumerate() {
            *z = row[if j & cmask != 0 { j ^ tmask } else { j }];
        }
    }
}

impl GradObjective for HsObjective<'_> {
    fn eval_into(&self, params: &[f64], grad: &mut [f64]) -> f64 {
        WORKSPACE.with(|ws| self.eval_with_workspace(&mut ws.borrow_mut(), params, grad))
    }
}

/// Instantiation settings.
#[derive(Debug, Clone)]
pub struct InstantiateConfig {
    /// Random restarts (beyond the provided warm start).
    pub starts: usize,
    /// RNG seed for restarts.
    pub seed: u64,
    /// Early-exit threshold on the HS distance.
    pub success_threshold: f64,
    /// L-BFGS settings.
    pub lbfgs: LbfgsParams,
}

impl Default for InstantiateConfig {
    fn default() -> Self {
        InstantiateConfig {
            starts: 3,
            seed: 0x5EED,
            success_threshold: 1e-12,
            lbfgs: LbfgsParams {
                max_iters: 150,
                ..Default::default()
            },
        }
    }
}

/// Result of instantiating one structure.
#[derive(Debug, Clone)]
pub struct Instantiated {
    /// Optimal parameters found.
    pub params: Vec<f64>,
    /// HS distance at the optimum.
    pub distance: f64,
}

/// Optimizes `structure`'s parameters against `target`, starting from
/// `warm_start` (plus random restarts).
pub fn instantiate(
    structure: &Structure,
    target: &Matrix,
    warm_start: &[f64],
    cfg: &InstantiateConfig,
) -> Instantiated {
    let obj = HsObjective::new(structure, target);
    let ms = MultistartParams {
        starts: cfg.starts,
        range: std::f64::consts::PI,
        seed: cfg.seed,
        success_threshold: cfg.success_threshold,
        local: cfg.lbfgs.clone(),
    };
    // Nested-parallelism guard: the search layer's candidate waves normally
    // saturate the thread budget, in which case the serial multistart driver
    // avoids oversubscription. When budget is left (few candidates, many
    // cores) the parallel driver fans the starts out — both drivers return
    // bit-identical results, so this choice never changes the synthesis.
    let r = if cfg.starts > 1 && qaprox_linalg::parallel::thread_budget() > 1 {
        qaprox_opt::multistart_minimize_par(&obj, warm_start, &ms)
    } else {
        multistart_minimize(&obj, warm_start, &ms)
    };
    Instantiated {
        params: r.x,
        distance: r.f.max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_circuit::Circuit;
    use qaprox_circuit::Gate;
    use qaprox_linalg::kernels::{
        apply_1q_mat_left, apply_1q_mat_right_dag_scalar, apply_2q_mat_left,
        apply_2q_mat_right_dag, mat4_to_array,
    };
    use qaprox_linalg::random::haar_unitary;
    use qaprox_linalg::random::Rng;
    use qaprox_linalg::random::SplitMix64 as StdRng;
    use qaprox_linalg::u3_array;
    use qaprox_linalg::Complex64;
    use qaprox_metrics::hs_distance;
    use qaprox_opt::gradient::central_difference;

    /// Trace of the product `L * M` without forming it: `sum_ij L[i,j] M[j,i]`.
    fn oracle_trace_product(l: &Matrix, m: &Matrix) -> Complex64 {
        let n = l.rows();
        let mut acc = Complex64::ZERO;
        for i in 0..n {
            for j in 0..n {
                acc = acc.mul_add(l[(i, j)], m[(j, i)]);
            }
        }
        acc
    }

    /// The evaluation [`HsObjective::eval_with_workspace`] replaced, kept as
    /// its bit-identity oracle: the gate from `u3_array` at every use, CX as
    /// a dense 4x4 multiply, and each partial written in full to a scratch
    /// matrix before its trace.
    fn oracle_eval(obj: &HsObjective<'_>, params: &[f64]) -> (f64, Vec<f64>) {
        let d = obj.dim as f64;
        let cx = mat4_to_array(&Gate::CX.matrix());
        let u3 = |o: usize| u3_array(params[o], params[o + 1], params[o + 2]);
        let mut prefixes = vec![Matrix::identity(obj.dim)];
        for op in &obj.ops {
            let mut next = prefixes.last().unwrap().clone();
            match *op {
                AnsatzOp::U3 {
                    qubit,
                    param_offset,
                } => apply_1q_mat_left(&mut next, qubit, &u3(param_offset)),
                AnsatzOp::Cx { control, target } => {
                    apply_2q_mat_left(&mut next, control, target, &cx)
                }
            }
            prefixes.push(next);
        }
        let mut suffixes = vec![Matrix::zeros(0, 0); obj.ops.len()];
        let mut cur = obj.target_dag.clone();
        for k in (0..obj.ops.len()).rev() {
            suffixes[k] = cur.clone();
            match obj.ops[k] {
                AnsatzOp::U3 {
                    qubit,
                    param_offset,
                } => {
                    let g = u3(param_offset);
                    let gd = [g[0].conj(), g[2].conj(), g[1].conj(), g[3].conj()];
                    apply_1q_mat_right_dag_scalar(&mut cur, qubit, &gd);
                }
                AnsatzOp::Cx { control, target } => {
                    apply_2q_mat_right_dag(&mut cur, control, target, &cx)
                }
            }
        }
        let t = cur.trace();
        let t_abs = t.abs();
        let f = (1.0 - t_abs / d).max(0.0);
        let mut grad = vec![0.0; params.len()];
        if t_abs < 1e-300 {
            return (f, grad);
        }
        let scale = t.conj() / (t_abs * d);
        for (k, op) in obj.ops.iter().enumerate() {
            if let AnsatzOp::U3 {
                qubit,
                param_offset,
            } = *op
            {
                let p = &params[param_offset..];
                for (which, dg) in U3Trig::new(p[0], p[1], p[2]).partials().iter().enumerate() {
                    let mut scratch = prefixes[k].clone();
                    apply_1q_mat_left(&mut scratch, qubit, dg);
                    let dt = oracle_trace_product(&suffixes[k], &scratch);
                    grad[param_offset + which] = -(scale * dt).re;
                }
            }
        }
        (f, grad)
    }

    /// A random structure on `n` qubits with `blocks` placements drawn from
    /// every ordered pair, so repeated and reversed placements both occur.
    fn random_structure(n: usize, blocks: usize, rng: &mut StdRng) -> Structure {
        let mut s = Structure::root(n);
        for _ in 0..blocks {
            let c = rng.gen_range(0..n);
            let t = (c + rng.gen_range(1..n)) % n;
            s = s.extended(c, t);
        }
        s
    }

    /// The scalar table, and the AVX2 one when the host supports it.
    fn tables() -> impl Iterator<Item = &'static KernelDispatch> {
        std::iter::once(KernelDispatch::scalar()).chain(KernelDispatch::simd())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn evaluation_is_bit_identical_to_the_oracle() {
        let mut rng = StdRng::seed_from_u64(0xB17);
        let mut ws = InstantiateWorkspace::new();
        let mut cases = 0;
        for n in 1..=4usize {
            for blocks in 0..=7usize {
                if n == 1 && blocks > 0 {
                    continue;
                }
                for rep in 0..8 {
                    let s = random_structure(n, blocks, &mut rng);
                    // sparse real targets (a CX skeleton, the identity) make
                    // exact zeros, and so signed zeros, reach f and the gradient
                    let target = match rep {
                        0 => random_structure(n, blocks, &mut rng)
                            .unitary(&vec![0.0; s.num_params()]),
                        1 => Matrix::identity(1 << n),
                        _ => haar_unitary(1 << n, &mut rng),
                    };
                    let obj = HsObjective::new(&s, &target);
                    // warm-start zeros, a partial warm start, then generic points
                    let params: Vec<f64> = match rep {
                        0..=2 => vec![0.0; s.num_params()],
                        3 => s.warm_start_from(
                            &(0..3 * n)
                                .map(|_| rng.gen_range(-3.2..3.2))
                                .collect::<Vec<_>>(),
                        ),
                        _ => (0..s.num_params())
                            .map(|_| rng.gen_range(-7.0..7.0))
                            .collect(),
                    };
                    let (f_oracle, g_oracle) = oracle_eval(&obj, &params);
                    let ctx = format!("n={n} blocks={blocks} rep={rep} {:?}", s.placements);
                    let mut g = vec![f64::NAN; params.len()];
                    let f = obj.eval_with_workspace(&mut ws, &params, &mut g);
                    assert_eq!(f.to_bits(), f_oracle.to_bits(), "f differs: {ctx}");
                    assert_eq!(bits(&g), bits(&g_oracle), "gradient differs: {ctx}");
                    // every table the host can run, whichever one the
                    // process selected
                    for kernels in tables() {
                        let mut g = vec![f64::NAN; params.len()];
                        let f = obj.eval_with_kernels(kernels, &mut ws, &params, &mut g);
                        let ctx = format!("{ctx} kernels={}", kernels.name);
                        assert_eq!(f.to_bits(), f_oracle.to_bits(), "f differs: {ctx}");
                        assert_eq!(bits(&g), bits(&g_oracle), "gradient differs: {ctx}");
                    }
                    let u = s.unitary(&params);
                    let t = obj.target_dag.matmul(&u).trace();
                    let dist = (1.0 - t.abs() / obj.dim as f64).max(0.0);
                    assert_eq!(obj.distance(&params).to_bits(), dist.to_bits(), "{ctx}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 8 * (1 + 3 * 8));
    }

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let s = Structure::root(2).extended(0, 1);
        let mut rng = StdRng::seed_from_u64(17);
        let target = haar_unitary(4, &mut rng);
        let obj = HsObjective::new(&s, &target);
        let x: Vec<f64> = (0..s.num_params())
            .map(|i| 0.3 * ((i as f64).sin() + 0.5))
            .collect();
        let (_, analytic) = obj.eval(&x);
        let numeric = central_difference(&|p: &[f64]| obj.distance(p), &x, 1e-6);
        for (a, n) in analytic.iter().zip(&numeric) {
            assert!((a - n).abs() < 1e-6, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn explicit_workspace_reuse_matches_fresh_evaluation() {
        // One workspace reused across evaluations — and across different
        // dimensions — must reproduce the thread-local path bit-for-bit.
        let mut ws = InstantiateWorkspace::new();
        let mut rng = StdRng::seed_from_u64(91);
        for n in [1usize, 2] {
            let s = if n == 1 {
                Structure::root(1)
            } else {
                Structure::root(2).extended(0, 1).extended(1, 0)
            };
            let target = haar_unitary(1 << n, &mut rng);
            let obj = HsObjective::new(&s, &target);
            let x: Vec<f64> = (0..s.num_params()).map(|i| 0.1 * i as f64 - 0.4).collect();
            let (f_fresh, g_fresh) = obj.eval(&x);
            let mut g_ws = vec![0.0; x.len()];
            let f_ws = obj.eval_with_workspace(&mut ws, &x, &mut g_ws);
            assert_eq!(f_fresh, f_ws);
            assert_eq!(g_fresh, g_ws);
        }
    }

    #[test]
    fn instantiates_single_qubit_target_exactly() {
        let s = Structure::root(1);
        let mut rng = StdRng::seed_from_u64(5);
        let target = haar_unitary(2, &mut rng);
        let r = instantiate(&s, &target, &[0.0; 3], &InstantiateConfig::default());
        assert!(
            r.distance < 1e-9,
            "1q instantiation distance {}",
            r.distance
        );
    }

    #[test]
    fn recovers_a_known_one_block_circuit() {
        // Build a circuit from the ansatz itself; instantiation must drive
        // the distance to ~0 with the same structure.
        let s = Structure::root(2).extended(0, 1);
        let true_params: Vec<f64> = (0..s.num_params()).map(|i| 0.2 + 0.37 * i as f64).collect();
        let target = s.unitary(&true_params);
        let r = instantiate(
            &s,
            &target,
            &vec![0.1; s.num_params()],
            &InstantiateConfig::default(),
        );
        assert!(r.distance < 1e-8, "distance {}", r.distance);
        let got = s.unitary(&r.params);
        assert!(hs_distance(&got, &target) < 1e-7);
    }

    #[test]
    fn cnot_target_needs_one_block() {
        let mut cx = Circuit::new(2);
        cx.cx(0, 1);
        let target = cx.unitary();
        // zero blocks cannot reach a CNOT...
        let s0 = Structure::root(2);
        let r0 = instantiate(
            &s0,
            &target,
            &vec![0.0; s0.num_params()],
            &InstantiateConfig::default(),
        );
        assert!(r0.distance > 0.2, "CNOT is entangling: {}", r0.distance);
        // ...one block can
        let s1 = s0.extended(0, 1);
        let r1 = instantiate(
            &s1,
            &target,
            &s1.warm_start_from(&r0.params),
            &InstantiateConfig::default(),
        );
        assert!(
            r1.distance < 1e-8,
            "one block should be exact: {}",
            r1.distance
        );
    }

    #[test]
    fn random_two_qubit_unitary_reachable_with_three_blocks() {
        let mut rng = StdRng::seed_from_u64(23);
        let target = haar_unitary(4, &mut rng);
        let s = Structure::root(2)
            .extended(0, 1)
            .extended(1, 0)
            .extended(0, 1);
        let cfg = InstantiateConfig {
            starts: 5,
            ..Default::default()
        };
        let r = instantiate(&s, &target, &vec![0.0; s.num_params()], &cfg);
        assert!(
            r.distance < 1e-6,
            "3 CNOTs are universal for 2 qubits: {}",
            r.distance
        );
    }

    #[test]
    fn deeper_structures_never_do_worse_with_warm_start() {
        let mut rng = StdRng::seed_from_u64(31);
        let target = haar_unitary(4, &mut rng);
        let mut s = Structure::root(2);
        let mut params = vec![0.0; s.num_params()];
        let mut last = f64::INFINITY;
        for i in 0..3 {
            let (c, t) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
            s = s.extended(c, t);
            let warm = s.warm_start_from(&params);
            let r = instantiate(&s, &target, &warm, &InstantiateConfig::default());
            assert!(
                r.distance <= last + 1e-9,
                "depth {i}: {} should not exceed {last}",
                r.distance
            );
            last = r.distance;
            params = r.params;
        }
    }
}
