//! QFast-style hierarchical synthesis.
//!
//! QFast trades QSearch's exhaustive search for a two-level scheme that
//! scales to more qubits: a **coarse** stage places generic two-qubit
//! SU(4) blocks (parameterized as `exp(i sum_j t_j P_j)` over the 15-element
//! Pauli basis, optimized numerically), then each block is **refined** into
//! native {U3, CX} gates by a bounded 2-qubit instantiation (<= 3 CNOTs).
//! Placement is greedy: at each depth the edge whose new block most improves
//! the Hilbert-Schmidt distance wins. Every refined depth-k circuit is
//! emitted as an intermediate — the `partial_solution_callback` of the
//! paper's Sec. 4.

use crate::approx::{ApproxCircuit, SynthStats, SynthesisOutput};
use crate::hooks::SearchHooks;
use crate::instantiate::{instantiate, InstantiateConfig};
use crate::template::Structure;
use qaprox_circuit::Circuit;
use qaprox_device::Topology;
use qaprox_linalg::expm::expm_i_su4;
use qaprox_linalg::hashing::hash128;
use qaprox_linalg::kernels::apply_2q_mat_left;
use qaprox_linalg::matrix::Matrix;
use qaprox_linalg::parallel::par_map_range;
use qaprox_linalg::pauli::su4_basis;
use qaprox_linalg::Complex64;
use qaprox_opt::{lbfgs, GradObjective, LbfgsParams};
use std::cell::RefCell;
use std::collections::HashMap;

/// QFast configuration.
#[derive(Debug, Clone)]
pub struct QFastConfig {
    /// Stop when the coarse distance falls below this.
    pub success_threshold: f64,
    /// Maximum number of SU(4) blocks.
    pub max_blocks: usize,
    /// L-BFGS settings for the coarse stage (finite-difference gradients).
    pub coarse_lbfgs: LbfgsParams,
    /// Random initializations tried per candidate block (the zero point is a
    /// saddle of the |Tr| objective, so blocks start from random coeffs).
    pub coarse_starts: usize,
    /// RNG seed for block initialization.
    pub seed: u64,
    /// Instantiation settings for block refinement.
    pub refine: InstantiateConfig,
}

impl Default for QFastConfig {
    fn default() -> Self {
        QFastConfig {
            success_threshold: 1e-8,
            max_blocks: 8,
            coarse_lbfgs: LbfgsParams {
                max_iters: 60,
                grad_tol: 1e-8,
                ..Default::default()
            },
            coarse_starts: 3,
            seed: 0xFA57,
            refine: InstantiateConfig::default(),
        }
    }
}

/// A placed SU(4) block: an edge plus 15 Pauli coefficients.
#[derive(Debug, Clone)]
struct Block {
    edge: (usize, usize),
    coeffs: Vec<f64>,
}

/// Central-difference step of the coarse stage's gradient.
const FD_STEP: f64 = 1e-6;

/// The 15 two-qubit Pauli strings a block's coefficients weight.
type Basis = [[Complex64; 16]; 15];

/// The coarse objective over one block placement: the distance of the
/// block product to the target and its central-difference gradient in the
/// blocks' 15 coefficients each. It holds the buffers an evaluation needs,
/// allocated once per L-BFGS run, so evaluations allocate nothing.
struct CoarseObjective<'a> {
    edges: &'a [(usize, usize)],
    basis: &'a Basis,
    target_dag: &'a Matrix,
    ws: RefCell<CoarseWorkspace>,
}

/// [`CoarseObjective`]'s buffers.
struct CoarseWorkspace {
    /// Every block's unitary at the evaluated point.
    blocks: Vec<[Complex64; 16]>,
    /// `prefixes[b] = B_{b-1} ... B_0` (so `prefixes[0] = I`).
    prefixes: Vec<Matrix>,
    /// The product one probe forms.
    probe: Matrix,
}

impl<'a> CoarseObjective<'a> {
    fn new(edges: &'a [(usize, usize)], basis: &'a Basis, target_dag: &'a Matrix) -> Self {
        let dim = target_dag.rows();
        let mut prefixes = vec![Matrix::zeros(dim, dim); edges.len() + 1];
        prefixes[0].set_identity();
        CoarseObjective {
            edges,
            basis,
            target_dag,
            ws: RefCell::new(CoarseWorkspace {
                blocks: vec![[Complex64::ZERO; 16]; edges.len()],
                prefixes,
                probe: Matrix::zeros(dim, dim),
            }),
        }
    }

    /// The coarse distance of the product `u`; it needs only the diagonal
    /// of `V^dag U`.
    fn distance(&self, u: &Matrix) -> f64 {
        let dim = self.target_dag.rows() as f64;
        (1.0 - self.target_dag.matmul_trace(u).abs() / dim).max(0.0)
    }
}

impl GradObjective for CoarseObjective<'_> {
    /// The objective and its central-difference gradient at `flat`, bit for
    /// bit equal to evaluating the coarse distance at the point and at every
    /// probe from scratch. Every block is exponentiated once and the prefix
    /// products are kept, so a probe of block `b` re-exponentiates only that
    /// block, applies it to the cached prefix, then applies the cached later
    /// blocks.
    fn eval_into(&self, flat: &[f64], grad: &mut [f64]) -> f64 {
        let ws = &mut *self.ws.borrow_mut();
        for (b, &(hi, lo)) in self.edges.iter().enumerate() {
            ws.blocks[b] = expm_i_su4(self.basis, &flat[b * 15..(b + 1) * 15]);
            let (done, rest) = ws.prefixes.split_at_mut(b + 1);
            rest[0].copy_from(&done[b]);
            apply_2q_mat_left(&mut rest[0], hi, lo, &ws.blocks[b]);
        }
        let f = self.distance(&ws.prefixes[self.edges.len()]);

        for (b, &(hi, lo)) in self.edges.iter().enumerate() {
            let mut coeffs = [0.0; 15];
            coeffs.copy_from_slice(&flat[b * 15..(b + 1) * 15]);
            let mut probe = |coeffs: &[f64]| {
                let u = &mut ws.probe;
                u.copy_from(&ws.prefixes[b]);
                apply_2q_mat_left(u, hi, lo, &expm_i_su4(self.basis, coeffs));
                for (later, &(h, l)) in self.edges.iter().enumerate().skip(b + 1) {
                    apply_2q_mat_left(u, h, l, &ws.blocks[later]);
                }
                self.distance(u)
            };
            for j in 0..15 {
                let orig = coeffs[j];
                coeffs[j] = orig + FD_STEP;
                let fp = probe(&coeffs);
                coeffs[j] = orig - FD_STEP;
                let fm = probe(&coeffs);
                coeffs[j] = orig;
                grad[b * 15 + j] = (fp - fm) / (2.0 * FD_STEP);
            }
        }
        f
    }
}

/// Optimizes every block's coefficients jointly (finite-difference L-BFGS).
fn optimize_blocks(
    blocks: &mut [Block],
    basis: &Basis,
    target_dag: &Matrix,
    lb: &LbfgsParams,
) -> f64 {
    let flat0: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.coeffs.iter().copied())
        .collect();
    let edges: Vec<(usize, usize)> = blocks.iter().map(|b| b.edge).collect();
    let r = lbfgs(&CoarseObjective::new(&edges, basis, target_dag), &flat0, lb);
    for (i, b) in blocks.iter_mut().enumerate() {
        b.coeffs.copy_from_slice(&r.x[i * 15..(i + 1) * 15]);
    }
    r.f.max(0.0)
}

/// Refines one SU(4) unitary into at most 3 CNOTs + U3s on the virtual
/// pair (0, 1); relabeling onto the physical edge happens at assembly.
fn refine_unitary(u: &Matrix, cfg: &InstantiateConfig) -> Circuit {
    let mut best: Option<(Circuit, f64)> = None;
    let mut s = Structure::root(2);
    let mut warm = vec![0.0; s.num_params()];
    for depth in 0..=3usize {
        if depth > 0 {
            let (c, t) = if depth % 2 == 1 { (0, 1) } else { (1, 0) };
            s = s.extended(c, t);
            warm = s.warm_start_from(&warm);
        }
        let inst = instantiate(&s, u, &warm, cfg);
        warm = inst.params.clone();
        let circuit = s.to_circuit(&inst.params);
        if best.as_ref().is_none_or(|(_, d)| inst.distance < *d) {
            let done = inst.distance < 1e-9;
            best = Some((circuit, inst.distance));
            if done {
                break;
            }
        }
    }
    best.expect("refinement always produces a circuit").0
}

/// Relabels a virtual-pair circuit onto the block's physical edge. The coarse
/// kernel treats `edge.0` as the HIGH bit of the block's 4x4 matrix, while
/// the refined circuit's qubit 0 is the LOW bit - so the map is reversed.
fn relabel(local: &Circuit, edge: (usize, usize)) -> Circuit {
    let mut out = Circuit::new(edge.0.max(edge.1) + 1);
    out.extend_mapped(local, &[edge.1, edge.0]);
    out
}

/// Cache of refined blocks across assembly rounds, keyed by the exact bytes
/// of the block unitary. Greedy QFast re-assembles the whole block list at
/// every depth, so blocks the joint optimizer left untouched (and duplicate
/// blocks inside one round) refine once instead of once per depth. All cache
/// traffic happens on the merge thread, in block order — deterministic for
/// any thread count.
#[derive(Default)]
struct RefineMemo {
    map: HashMap<(u64, u64), Circuit>,
    hits: usize,
    misses: usize,
}

/// How one block resolves in an assembly wave.
enum RefineKind {
    /// Served from [`RefineMemo`].
    Cached(Circuit),
    /// Same unitary as an earlier block in this wave (by block index).
    Dup(usize),
    /// Refine in the parallel wave.
    Live,
}

/// Assembles the native-gate circuit for a refined block sequence and
/// re-instantiates nothing (each block is already near-exact).
fn assemble(
    n: usize,
    blocks: &[Block],
    basis: &Basis,
    cfg: &InstantiateConfig,
    memo: &mut RefineMemo,
) -> Circuit {
    // Pre-scan (sequential): resolve each block against the memo.
    let mut unitaries: Vec<Matrix> = Vec::with_capacity(blocks.len());
    let mut kinds: Vec<RefineKind> = Vec::with_capacity(blocks.len());
    let mut keys: Vec<(u64, u64)> = Vec::with_capacity(blocks.len());
    let mut wave_seen: HashMap<(u64, u64), usize> = HashMap::new();
    for (i, b) in blocks.iter().enumerate() {
        let u = Matrix::from_vec(4, 4, expm_i_su4(basis, &b.coeffs).to_vec());
        let key = hash128(&u.canonical_bytes());
        let kind = if let Some(local) = memo.map.get(&key) {
            memo.hits += 1;
            RefineKind::Cached(local.clone())
        } else if let Some(&first) = wave_seen.get(&key) {
            memo.hits += 1;
            RefineKind::Dup(first)
        } else {
            memo.misses += 1;
            wave_seen.insert(key, i);
            RefineKind::Live
        };
        unitaries.push(u);
        keys.push(key);
        kinds.push(kind);
    }

    // The wave: refine every live block concurrently.
    let refined: Vec<Option<Circuit>> = par_map_range(blocks.len(), |i| match kinds[i] {
        RefineKind::Live => Some(refine_unitary(&unitaries[i], cfg)),
        _ => None,
    });

    // Merge (sequential, block order): resolve, cache, relabel, append.
    let mut locals: Vec<Circuit> = Vec::with_capacity(blocks.len());
    let mut c = Circuit::new(n);
    for (i, block) in blocks.iter().enumerate() {
        let local = match &kinds[i] {
            RefineKind::Cached(l) => l.clone(),
            RefineKind::Dup(j) => locals[*j].clone(),
            RefineKind::Live => {
                let l = refined[i].clone().expect("live block refined in the wave");
                memo.map.insert(keys[i], l.clone());
                l
            }
        };
        let rc = relabel(&local, block.edge);
        locals.push(local);
        for inst in rc.iter() {
            c.push(inst.gate.clone(), &inst.qubits);
        }
    }
    c
}

/// Runs QFast-style synthesis of `target` over `topology`.
pub fn qfast(target: &Matrix, topology: &Topology, cfg: &QFastConfig) -> SynthesisOutput {
    qfast_with_hooks(target, topology, cfg, &mut SearchHooks::none())
}

/// [`qfast`] with progress/cancellation hooks (see [`SearchHooks`]).
///
/// Cancellation is checked once per block depth (the natural round size);
/// the output then covers every depth completed before the stop.
pub fn qfast_with_hooks(
    target: &Matrix,
    topology: &Topology,
    cfg: &QFastConfig,
    hooks: &mut SearchHooks<'_>,
) -> SynthesisOutput {
    let n = topology.num_qubits();
    assert_eq!(target.rows(), 1 << n, "target dimension mismatch");
    let basis = su4_basis();
    let target_dag = target.adjoint();

    let mut blocks: Vec<Block> = Vec::new();
    let mut intermediates: Vec<ApproxCircuit> = Vec::new();
    let mut nodes_evaluated = 0usize;
    let mut refine_memo = RefineMemo::default();

    // Depth-0 "circuit": identity (only meaningful for near-identity targets).
    let empty = Circuit::new(n);
    let d0 = {
        let d = (1 << n) as f64;
        (1.0 - target_dag.trace().abs() / d).max(0.0)
    };
    intermediates.push(ApproxCircuit::new(empty, d0));
    let mut best_coarse = d0;

    for _depth in 0..cfg.max_blocks {
        if best_coarse < cfg.success_threshold || hooks.cancelled() {
            break;
        }
        // Try a new block on every edge (both orientations are equivalent for
        // a generic SU(4) block, so undirected edges suffice). Every
        // (edge, random start) pair is an independent task, so the whole
        // depth optimizes in one flat parallel wave instead of serial starts
        // inside an edge-wide wave.
        let depth_salt = blocks.len() as u64;
        let edges = topology.edges();
        let starts = cfg.coarse_starts.max(1);
        let trials: Vec<(Vec<Block>, f64)> = par_map_range(edges.len() * starts, |ti| {
            let (ei, start) = (ti / starts, ti % starts);
            use qaprox_linalg::random::Rng;
            let mut rng = qaprox_linalg::random::SplitMix64::seed_from_u64(
                cfg.seed ^ (depth_salt << 24) ^ ((ei as u64) << 8) ^ start as u64,
            );
            let coeffs: Vec<f64> = (0..15).map(|_| rng.gen_range(-0.8..0.8)).collect();
            let mut trial = blocks.clone();
            trial.push(Block {
                edge: edges[ei],
                coeffs,
            });
            let dist = optimize_blocks(&mut trial, &basis, &target_dag, &cfg.coarse_lbfgs);
            (trial, dist)
        });
        // Per-edge reduce in start order with the serial driver's exact
        // rules (strict improvement, stop at the first success), so the
        // chosen candidate is thread-count-invariant. Starts the serial loop
        // would have skipped after a success are computed then discarded.
        let candidates: Vec<(usize, &(Vec<Block>, f64))> = (0..edges.len())
            .map(|ei| {
                let mut best_start = ei * starts;
                for s in 0..starts {
                    let ti = ei * starts + s;
                    if trials[ti].1 < trials[best_start].1 {
                        best_start = ti;
                    }
                    if trials[best_start].1 < cfg.success_threshold {
                        break;
                    }
                }
                (ei, &trials[best_start])
            })
            .collect();
        nodes_evaluated += candidates.len();

        let (_, (best_blocks, best_dist)) = candidates
            .into_iter()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .expect("topology has at least one edge");

        blocks = best_blocks.clone();
        best_coarse = *best_dist;

        // Emit the refined native circuit for this depth.
        let native = assemble(n, &blocks, &basis, &cfg.refine, &mut refine_memo);
        let d = {
            let dim = (1 << n) as f64;
            (1.0 - target_dag.matmul_trace(&native.unitary()).abs() / dim).max(0.0)
        };
        intermediates.push(ApproxCircuit::new(native, d));
        hooks.progress(nodes_evaluated, &intermediates);
    }

    let best_idx = intermediates
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.hs_distance.total_cmp(&b.1.hs_distance))
        .map(|(i, _)| i)
        .unwrap();

    SynthesisOutput {
        best: intermediates[best_idx].clone(),
        intermediates,
        nodes_evaluated,
        stats: SynthStats {
            memo_hits: refine_memo.hits,
            memo_misses: refine_memo.misses,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_circuit::Gate;
    use qaprox_linalg::expm::expm_i_hermitian;
    use qaprox_linalg::kernels::mat4_to_array;
    use qaprox_linalg::pauli::{hermitian_from_coeffs, su_basis};
    use qaprox_linalg::random::haar_unitary;
    use qaprox_linalg::random::SplitMix64 as StdRng;
    use qaprox_metrics::hs_distance;

    /// The coarse distance evaluated from scratch: every block
    /// exponentiated on the heap and applied, then the full product
    /// `V^dag U` formed.
    fn coarse_distance(n: usize, blocks: &[Block], target_dag: &Matrix) -> f64 {
        let basis = su_basis(2);
        let mut u = Matrix::identity(1 << n);
        for b in blocks {
            let g = mat4_to_array(&expm_i_hermitian(&hermitian_from_coeffs(&basis, &b.coeffs)));
            apply_2q_mat_left(&mut u, b.edge.0, b.edge.1, &g);
        }
        let d = (1 << n) as f64;
        (1.0 - target_dag.matmul(&u).trace().abs() / d).max(0.0)
    }

    #[test]
    fn coarse_objective_is_bit_identical_to_from_scratch_probes() {
        use qaprox_linalg::random::Rng;
        use qaprox_opt::gradient::central_difference;
        let basis = su4_basis();
        let mut rng = StdRng::seed_from_u64(0xC0A5);
        for n in 2..=4usize {
            let target_dag = haar_unitary(1 << n, &mut rng).adjoint();
            let topology = Topology::linear(n);
            let all_edges = topology.edges();
            for num_blocks in 1..=4usize {
                let edges: Vec<(usize, usize)> = (0..num_blocks)
                    .map(|_| all_edges[rng.gen_range(0..all_edges.len())])
                    .collect();
                let value = |x: &[f64]| {
                    let blocks: Vec<Block> = edges
                        .iter()
                        .enumerate()
                        .map(|(i, &edge)| Block {
                            edge,
                            coeffs: x[i * 15..(i + 1) * 15].to_vec(),
                        })
                        .collect();
                    coarse_distance(n, &blocks, &target_dag)
                };
                // one objective, so one workspace, across several points
                let obj = CoarseObjective::new(&edges, &basis, &target_dag);
                for _ in 0..3 {
                    let flat: Vec<f64> = (0..15 * num_blocks)
                        .map(|_| rng.gen_range(-0.8..0.8))
                        .collect();
                    let (f, g) = obj.eval(&flat);
                    let g_ref = central_difference(&value, &flat, FD_STEP);
                    assert_eq!(f.to_bits(), value(&flat).to_bits(), "n={n} {edges:?}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&g), bits(&g_ref), "n={n} {edges:?}");
                }
            }
        }
    }

    fn quick_cfg() -> QFastConfig {
        QFastConfig {
            max_blocks: 3,
            coarse_lbfgs: LbfgsParams {
                max_iters: 40,
                ..Default::default()
            },
            refine: InstantiateConfig {
                starts: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn block_parameterization_covers_cnot() {
        // a single SU(4) block must represent CNOT exactly (it's in SU(4) up
        // to phase)
        let mut cx = Circuit::new(2);
        cx.cx(0, 1);
        let out = qfast(&cx.unitary(), &Topology::linear(2), &quick_cfg());
        assert!(out.best.hs_distance < 1e-5, "dist {}", out.best.hs_distance);
    }

    #[test]
    fn synthesizes_random_2q_unitary() {
        let mut rng = StdRng::seed_from_u64(12);
        let target = haar_unitary(4, &mut rng);
        let out = qfast(&target, &Topology::linear(2), &quick_cfg());
        assert!(out.best.hs_distance < 1e-4, "dist {}", out.best.hs_distance);
        let recheck = hs_distance(&out.best.circuit.unitary(), &target);
        assert!((recheck - out.best.hs_distance).abs() < 1e-6);
    }

    #[test]
    fn intermediates_are_native_and_improving_overall() {
        let mut rng = StdRng::seed_from_u64(13);
        let target = haar_unitary(8, &mut rng);
        let out = qfast(&target, &Topology::linear(3), &quick_cfg());
        assert!(out.intermediates.len() >= 2);
        // every intermediate (past the identity) is in the native basis
        for ap in out.intermediates.iter().skip(1) {
            for inst in ap.circuit.iter() {
                assert!(
                    matches!(inst.gate, Gate::U3(..) | Gate::CX),
                    "non-native gate {} in refined circuit",
                    inst.gate.name()
                );
            }
        }
        // the best must beat the identity baseline
        assert!(out.best.hs_distance < out.intermediates[0].hs_distance);
    }

    #[test]
    fn three_qubit_target_improves_with_depth() {
        let mut rng = StdRng::seed_from_u64(14);
        let target = haar_unitary(8, &mut rng);
        let out = qfast(&target, &Topology::linear(3), &quick_cfg());
        // coarse greedy should reduce distance vs the empty circuit by a lot
        assert!(
            out.best.hs_distance < 0.6 * out.intermediates[0].hs_distance,
            "best {} vs baseline {}",
            out.best.hs_distance,
            out.intermediates[0].hs_distance
        );
    }
}
