//! The approximate-circuit workflow of the paper's Fig. 1:
//!
//! 1. obtain the **target unitary** of a reference circuit;
//! 2. run modified synthesis to generate **many candidate circuits**;
//! 3. **select** candidates by a Hilbert-Schmidt threshold (never < 0.1);
//! 4. **execute** the selection on a simulator/noise-model/hardware backend;
//! 5. **evaluate** outputs against the noise-free reference.

use qaprox_circuit::Circuit;
use qaprox_device::Topology;
use qaprox_linalg::parallel::{par_map, par_map_indexed};
use qaprox_linalg::Matrix;
use qaprox_metrics::hs_distance;
use qaprox_sim::Backend;
use qaprox_synth::{
    dedupe, qfast_with_hooks, qsearch_resume, qsearch_with_hooks, select_by_threshold,
    ApproxCircuit, ProgressFn, QFastConfig, QSearchConfig, SearchHooks, SynthStats,
    SynthesisOutput,
};

/// Which synthesis engine generates the candidate stream.
#[derive(Debug, Clone)]
pub enum Engine {
    /// A* search (3-4 qubits; exhaustive-ish).
    QSearch(QSearchConfig),
    /// Greedy hierarchical blocks (scales further, coarser stream).
    QFast(QFastConfig),
    /// Union of both streams (the paper uses both tools). The engines run
    /// one after the other, QSearch first, each with the whole thread
    /// budget: each parallelizes its own waves, and QSearch's share of the
    /// time is small next to QFast's on the paper's Toffoli.
    Both(QSearchConfig, QFastConfig),
}

impl Engine {
    /// A QSearch engine with sensible experiment defaults.
    pub fn default_qsearch() -> Self {
        Engine::QSearch(QSearchConfig::default())
    }
}

/// The generation + selection stage.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// Topology the synthesized circuits must respect (usually the linear
    /// chain the paper maps onto qubits 0..n).
    pub topology: Topology,
    /// Synthesis engine(s).
    pub engine: Engine,
    /// Selection threshold on HS distance (paper: at least 0.1).
    pub max_hs: f64,
}

/// A generated, selected candidate population for one target.
#[derive(Debug, Clone)]
pub struct Population {
    /// Selected approximate circuits (HS below threshold), deduped.
    pub circuits: Vec<ApproxCircuit>,
    /// The best (minimum-HS) circuit the synthesis found.
    pub minimal_hs: ApproxCircuit,
    /// Total candidates evaluated by synthesis before selection.
    pub explored: usize,
    /// Memo-cache counters aggregated over every engine that ran.
    pub stats: SynthStats,
}

impl Workflow {
    /// A workflow over a linear chain with QSearch and the paper's 0.1
    /// threshold.
    pub fn linear_qsearch(num_qubits: usize) -> Self {
        Workflow {
            topology: Topology::linear(num_qubits),
            engine: Engine::default_qsearch(),
            max_hs: 0.1,
        }
    }

    /// Step 1 of Fig. 1: the target unitary of a reference circuit
    /// (the `Operator(circuit).data` call in the paper's Qiskit recipe).
    pub fn target_unitary(reference: &Circuit) -> Matrix {
        reference.unitary()
    }

    /// Steps 2-3: generate candidates and select by the HS threshold.
    ///
    /// The uncontrolled [`Workflow::generate_with`]: for [`Engine::Both`],
    /// QSearch runs and then QFast, each with the calling thread's whole
    /// thread budget.
    pub fn generate(&self, target: &Matrix) -> Population {
        self.generate_with(target, GenerateControl::default())
            .population
    }

    /// Generates populations for a series of targets in parallel (e.g. the
    /// 21 TFIM timesteps).
    pub fn generate_series(&self, targets: &[Matrix]) -> Vec<Population> {
        par_map(targets, |t| self.generate(t))
    }

    /// [`Workflow::generate`] under external control: resume credit,
    /// cooperative cancellation, and checkpoint streaming. With the default
    /// [`GenerateControl`] (no prior, no credit, no hooks) this *is*
    /// [`Workflow::generate`].
    ///
    /// Engines run **sequentially** (QSearch then QFast for
    /// [`Engine::Both`]), each with the calling thread's whole thread
    /// budget, so resume maps onto a deterministic order.
    /// What a resumed run does with `prior`/`nodes_credit` depends on
    /// [`GenerateControl::resume`]:
    ///
    /// * [`ResumeMode::Complement`] (the default): the first `max_nodes` of
    ///   credit pay down the QSearch budget, the remainder pays down QFast
    ///   blocks, and the instantiation seed is salted by the credit so the
    ///   resumed nodes complement (rather than replay) the prior run's. The
    ///   final population unions `prior` with the new stream.
    /// * [`ResumeMode::Replay`]: the run keeps its full budget and original
    ///   seed, and `prior` pre-warms the QSearch structure memo instead —
    ///   the search replays the identical trajectory from node 0, serving
    ///   already-evaluated structures from cache, so the output is
    ///   **bit-identical** to an uninterrupted run while skipping most of
    ///   the re-instantiation cost. This is what the job service uses, so a
    ///   crash-recovered job fingerprints identically to a clean one.
    pub fn generate_with(&self, target: &Matrix, ctl: GenerateControl<'_>) -> Generation {
        let GenerateControl {
            prior,
            nodes_credit: credit,
            resume,
            cancel,
            mut checkpoint,
        } = ctl;
        let replaying = matches!(resume, ResumeMode::Replay);
        let salt = if replaying {
            0
        } else {
            (credit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let cancelled = || cancel.as_ref().is_some_and(|f| f());

        let (qs_cfg, qf_cfg): (Option<&QSearchConfig>, Option<&QFastConfig>) = match &self.engine {
            Engine::QSearch(c) => (Some(c), None),
            Engine::QFast(c) => (None, Some(c)),
            Engine::Both(a, b) => (Some(a), Some(b)),
        };

        let mut outputs: Vec<SynthesisOutput> = Vec::new();
        let mut live_nodes = 0usize;

        if let Some(cfg) = qs_cfg {
            let mut adj = cfg.clone();
            if !replaying {
                adj.max_nodes = cfg.max_nodes.saturating_sub(credit);
                adj.instantiate.seed = adj.instantiate.seed.wrapping_add(salt);
            }
            // with the budget fully credited and prior results in hand there
            // is nothing left for this engine to add (complement mode only;
            // a replay always re-traverses its full budget)
            if (replaying || adj.max_nodes > 0 || prior.is_empty()) && !cancelled() {
                let mut hooks = SearchHooks {
                    on_progress: checkpoint.as_mut().map(|cb| {
                        // replay counts are already absolute (from node 0)
                        let base = if replaying { 0 } else { credit };
                        Box::new(move |n: usize, inter: &[ApproxCircuit]| cb(base + n, inter))
                            as Box<dyn FnMut(usize, &[ApproxCircuit])>
                    }),
                    cancel: cancel
                        .as_ref()
                        .map(|f| Box::new(f) as Box<dyn Fn() -> bool + '_>),
                };
                let out = if replaying {
                    qsearch_resume(target, &self.topology, &adj, &prior, &mut hooks)
                } else {
                    qsearch_with_hooks(target, &self.topology, &adj, &mut hooks)
                };
                live_nodes += out.nodes_evaluated;
                outputs.push(out);
            }
        }

        if let Some(cfg) = qf_cfg {
            // QFast evaluates one candidate per edge per block depth, so
            // leftover credit converts to completed depths exactly. In
            // replay mode QFast has no memo to warm, so it simply re-runs in
            // full — deterministic, hence still bit-identical.
            let edges = self.topology.edges().len().max(1);
            let qf_credit = credit.saturating_sub(qs_cfg.map_or(0, |c| c.max_nodes));
            let mut adj = cfg.clone();
            if !replaying {
                adj.max_blocks = cfg.max_blocks.saturating_sub(qf_credit / edges);
                adj.seed = adj.seed.wrapping_add(salt);
            }
            // a fresh run (no credit) runs every configured engine, as does
            // a replay or a run with nothing else to show
            let run_anyway = replaying || credit == 0 || (prior.is_empty() && outputs.is_empty());
            if (adj.max_blocks > 0 || run_anyway) && !cancelled() {
                // checkpoints must carry everything from THIS invocation, so
                // prepend the finished QSearch stream (QFast rounds are few)
                let prefix: Vec<ApproxCircuit> = outputs
                    .iter()
                    .flat_map(|o| o.intermediates.iter().cloned())
                    .collect();
                let base = if replaying {
                    live_nodes
                } else {
                    credit + live_nodes
                };
                let mut hooks = SearchHooks {
                    on_progress: checkpoint.as_mut().map(|cb| {
                        Box::new(move |n: usize, inter: &[ApproxCircuit]| {
                            let mut all = prefix.clone();
                            all.extend_from_slice(inter);
                            cb(base + n, &all);
                        }) as Box<dyn FnMut(usize, &[ApproxCircuit])>
                    }),
                    cancel: cancel
                        .as_ref()
                        .map(|f| Box::new(f) as Box<dyn Fn() -> bool + '_>),
                };
                let out = qfast_with_hooks(target, &self.topology, &adj, &mut hooks);
                live_nodes += out.nodes_evaluated;
                outputs.push(out);
            }
        }

        let completed = !cancelled();
        let mut stats = SynthStats::default();
        for o in &outputs {
            stats.absorb(&o.stats);
        }
        // A replay regenerates the full stream from node 0, so folding the
        // prior prefix back in would double it; complement mode unions. A
        // replay that was cancelled before any engine ran falls back to the
        // prior checkpoint unchanged.
        let mut all: Vec<ApproxCircuit> = if replaying && !outputs.is_empty() {
            Vec::new()
        } else {
            prior
        };
        for o in &outputs {
            all.extend(o.intermediates.iter().cloned());
        }
        if all.is_empty() {
            // cancelled before anything ran and no prior: fall back to the
            // empty circuit so the population stays well-formed
            let empty = Circuit::new(self.topology.num_qubits());
            let d = hs_distance(&empty.unitary(), target);
            all.push(ApproxCircuit::new(empty, d));
        }
        let minimal_hs = all
            .iter()
            .min_by(|a, b| a.hs_distance.total_cmp(&b.hs_distance))
            .cloned()
            .expect("union is non-empty by construction");
        let circuits = dedupe(&select_by_threshold(&all, self.max_hs));
        let explored = if replaying && !outputs.is_empty() {
            live_nodes
        } else {
            credit + live_nodes
        };
        Generation {
            population: Population {
                circuits,
                minimal_hs,
                explored,
                stats,
            },
            completed,
        }
    }
}

/// How [`Workflow::generate_with`] treats a prior partial run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumeMode {
    /// Credit the prior nodes against the budget and explore complementary
    /// candidates under a salted seed; union `prior` into the result. Total
    /// work across both runs stays within one budget, but the combined
    /// stream differs from an uninterrupted run's.
    #[default]
    Complement,
    /// Replay the original trajectory from node 0 with the full budget and
    /// unsalted seed, using `prior` only to pre-warm the structure memo.
    /// The result is bit-identical to an uninterrupted run; the prior
    /// prefix costs only memo lookups instead of re-instantiation.
    Replay,
}

/// Control block for [`Workflow::generate_with`].
#[derive(Default)]
pub struct GenerateControl<'a> {
    /// Intermediates recovered from a prior partial run; unioned into the
    /// final population (complement) or used as a memo warm-start (replay).
    pub prior: Vec<ApproxCircuit>,
    /// Nodes already evaluated by prior runs. In complement mode this is
    /// credited against the engines' budgets and salts the instantiation
    /// seeds; in replay mode it is informational only (progress counts
    /// restart from zero and cover the replayed prefix).
    pub nodes_credit: usize,
    /// What to do with `prior` (see [`ResumeMode`]).
    pub resume: ResumeMode,
    /// Polled between synthesis rounds; `true` stops generation early.
    pub cancel: Option<Box<dyn Fn() -> bool + 'a>>,
    /// Called after each synthesis round with `(total nodes, every
    /// intermediate generated by this invocation)`. In complement mode the
    /// total includes the credit and the caller merges in its own `prior`
    /// when persisting a checkpoint; in replay mode both the count and the
    /// stream are absolute (they include the replayed prefix).
    pub checkpoint: Option<ProgressFn<'a>>,
}

impl std::fmt::Debug for GenerateControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerateControl")
            .field("prior", &self.prior.len())
            .field("nodes_credit", &self.nodes_credit)
            .field("resume", &self.resume)
            .field("cancel", &self.cancel.is_some())
            .field("checkpoint", &self.checkpoint.is_some())
            .finish()
    }
}

/// What [`Workflow::generate_with`] produced.
#[derive(Debug, Clone)]
pub struct Generation {
    /// The (possibly partial) population: prior ∪ new, selected and deduped.
    pub population: Population,
    /// False when the run was stopped by [`GenerateControl::cancel`]; the
    /// population is then a checkpoint, not a finished artifact.
    pub completed: bool,
}

/// One executed-and-scored circuit (a dot on the paper's figures).
#[derive(Debug, Clone)]
pub struct Scored {
    /// CNOT count of the executed circuit.
    pub cnots: usize,
    /// HS distance recorded at synthesis time.
    pub hs_distance: f64,
    /// Scalar quality score (metric-dependent: magnetization, success
    /// probability, or JS distance).
    pub score: f64,
}

/// Steps 4-5: execute every circuit of a population on `backend` and score
/// its output distribution with `metric`.
pub fn execute_and_score<F>(
    population: &[ApproxCircuit],
    backend: &Backend,
    metric: F,
) -> Vec<Scored>
where
    F: Fn(&Circuit, &[f64]) -> f64 + Sync,
{
    par_map_indexed(population, |i, ap| {
        let probs = backend.probabilities(&ap.circuit, i as u64);
        Scored {
            cnots: ap.cnots,
            hs_distance: ap.hs_distance,
            score: metric(&ap.circuit, &probs),
        }
    })
}

/// Convenience: verify a recorded population against its target (sanity
/// check used by tests and the experiment harness).
pub fn verify_population(population: &Population, target: &Matrix, tol: f64) -> bool {
    population
        .circuits
        .iter()
        .all(|ap| (hs_distance(&ap.circuit.unitary(), target) - ap.hs_distance).abs() < tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_metrics::{magnetization, probabilities};
    use qaprox_synth::InstantiateConfig;

    fn quick_workflow(n: usize) -> Workflow {
        Workflow {
            topology: Topology::linear(n),
            engine: Engine::QSearch(QSearchConfig {
                max_cnots: 4,
                max_nodes: 80,
                beam_width: 3,
                instantiate: InstantiateConfig {
                    starts: 2,
                    ..Default::default()
                },
                ..Default::default()
            }),
            max_hs: 0.4,
        }
    }

    fn ghz_reference() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn generate_produces_selected_population() {
        let wf = quick_workflow(2);
        let target = Workflow::target_unitary(&ghz_reference());
        let pop = wf.generate(&target);
        assert!(!pop.circuits.is_empty(), "population should not be empty");
        assert!(pop
            .circuits
            .iter()
            .all(|c| c.hs_distance <= wf.max_hs + 1e-12));
        assert!(
            pop.minimal_hs.hs_distance < 1e-8,
            "GHZ prep is exactly synthesizable"
        );
        assert!(pop.explored >= pop.circuits.len());
        assert!(verify_population(&pop, &target, 1e-6));
    }

    #[test]
    fn execute_and_score_on_ideal_backend() {
        let wf = quick_workflow(2);
        let target = Workflow::target_unitary(&ghz_reference());
        let pop = wf.generate(&target);
        let scored = execute_and_score(&pop.circuits, &Backend::Ideal, |_, p| magnetization(p));
        assert_eq!(scored.len(), pop.circuits.len());
        // the reference GHZ state has magnetization 0; near-exact circuits
        // must score near 0
        let exact_ref = magnetization(&probabilities(&ghz_reference().statevector()));
        for s in scored.iter().filter(|s| s.hs_distance < 1e-6) {
            assert!((s.score - exact_ref).abs() < 1e-6);
        }
    }

    #[test]
    fn series_generation_matches_individual() {
        let wf = quick_workflow(2);
        let t1 = Workflow::target_unitary(&ghz_reference());
        let mut other = Circuit::new(2);
        other.h(0).cx(0, 1).rz(0.5, 1);
        let t2 = Workflow::target_unitary(&other);
        let series = wf.generate_series(&[t1.clone(), t2.clone()]);
        assert_eq!(series.len(), 2);
        let solo = wf.generate(&t1);
        assert_eq!(series[0].circuits.len(), solo.circuits.len());
    }

    #[test]
    fn generate_with_defaults_matches_generate() {
        let wf = quick_workflow(2);
        let target = Workflow::target_unitary(&ghz_reference());
        let plain = wf.generate(&target);
        let gen = wf.generate_with(&target, GenerateControl::default());
        assert!(gen.completed);
        assert_eq!(gen.population.explored, plain.explored);
        assert_eq!(gen.population.circuits.len(), plain.circuits.len());
        assert_eq!(
            gen.population.minimal_hs.hs_distance,
            plain.minimal_hs.hs_distance
        );
    }

    #[test]
    fn cancelled_generation_resumes_from_checkpoint() {
        let wf = quick_workflow(2);
        let target = Workflow::target_unitary(&ghz_reference());
        let budget = match &wf.engine {
            Engine::QSearch(c) => c.max_nodes,
            _ => unreachable!(),
        };

        // first run: cancel after the first checkpoint, capturing it
        let checkpointed: std::cell::RefCell<(usize, Vec<ApproxCircuit>)> =
            std::cell::RefCell::new((0, Vec::new()));
        let first = wf.generate_with(
            &target,
            GenerateControl {
                cancel: Some(Box::new(|| checkpointed.borrow().0 > 0)),
                checkpoint: Some(Box::new(|nodes, inter| {
                    *checkpointed.borrow_mut() = (nodes, inter.to_vec());
                })),
                ..Default::default()
            },
        );
        assert!(!first.completed, "cancel must mark the run incomplete");
        let (nodes_done, circuits) = checkpointed.into_inner();
        assert!(nodes_done > 0 && nodes_done < budget);
        assert!(!circuits.is_empty());

        // second run: resume with credit — must finish within the remaining
        // budget and fold the prior circuits into the population
        let resumed = wf.generate_with(
            &target,
            GenerateControl {
                prior: circuits.clone(),
                nodes_credit: nodes_done,
                ..Default::default()
            },
        );
        assert!(resumed.completed);
        assert!(
            resumed.population.explored <= budget + 4,
            "credit must bound total work: {} vs {budget}",
            resumed.population.explored
        );
        assert!(
            resumed.population.explored > nodes_done,
            "resume ran fresh nodes"
        );
        // prior selected circuits survive into the resumed population
        let selected_prior = dedupe(&select_by_threshold(&circuits, wf.max_hs));
        assert!(resumed.population.circuits.len() >= selected_prior.len());
    }

    #[test]
    fn replay_resume_is_bit_identical_to_an_uninterrupted_run() {
        // a 3-qubit GHZ-with-phase target keeps the search running to its
        // node cap, so the cancelled run really stops mid-stream
        let wf = Workflow {
            topology: Topology::linear(3),
            engine: Engine::QSearch(QSearchConfig {
                max_cnots: 4,
                max_nodes: 50,
                beam_width: 2,
                instantiate: InstantiateConfig {
                    starts: 1,
                    ..Default::default()
                },
                ..Default::default()
            }),
            max_hs: 0.5,
        };
        let mut reference = Circuit::new(3);
        reference.h(0).cx(0, 1).cx(1, 2).rz(0.4, 2).cx(0, 1);
        let target = Workflow::target_unitary(&reference);
        let uninterrupted = wf.generate_with(&target, GenerateControl::default());
        assert!(uninterrupted.completed);

        // crash simulation: cancel after the first checkpoint
        let checkpointed: std::cell::RefCell<(usize, Vec<ApproxCircuit>)> =
            std::cell::RefCell::new((0, Vec::new()));
        let first = wf.generate_with(
            &target,
            GenerateControl {
                cancel: Some(Box::new(|| checkpointed.borrow().0 > 0)),
                checkpoint: Some(Box::new(|nodes, inter| {
                    *checkpointed.borrow_mut() = (nodes, inter.to_vec());
                })),
                ..Default::default()
            },
        );
        assert!(!first.completed);
        let (nodes_done, circuits) = checkpointed.into_inner();
        assert!(nodes_done > 0 && nodes_done < uninterrupted.population.explored);

        let resumed = wf.generate_with(
            &target,
            GenerateControl {
                prior: circuits,
                nodes_credit: nodes_done,
                resume: ResumeMode::Replay,
                ..Default::default()
            },
        );
        assert!(resumed.completed);
        assert_eq!(
            resumed.population.explored,
            uninterrupted.population.explored
        );
        let fp = |p: &Population| -> Vec<(String, u64)> {
            p.circuits
                .iter()
                .map(|c| {
                    (
                        qaprox_circuit::qasm::to_qasm(&c.circuit),
                        c.hs_distance.to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(
            fp(&resumed.population),
            fp(&uninterrupted.population),
            "replayed population must be bit-identical"
        );
        assert_eq!(
            resumed.population.minimal_hs.hs_distance.to_bits(),
            uninterrupted.population.minimal_hs.hs_distance.to_bits()
        );
        assert!(
            resumed.population.stats.memo_misses < uninterrupted.population.stats.memo_misses,
            "replay must reuse the checkpointed work"
        );
    }

    #[test]
    fn fully_credited_run_does_no_new_work() {
        let wf = quick_workflow(2);
        let target = Workflow::target_unitary(&ghz_reference());
        let full = wf.generate(&target);
        let budget = match &wf.engine {
            Engine::QSearch(c) => c.max_nodes,
            _ => unreachable!(),
        };
        let gen = wf.generate_with(
            &target,
            GenerateControl {
                prior: full.circuits.clone(),
                nodes_credit: budget,
                ..Default::default()
            },
        );
        assert!(gen.completed);
        assert_eq!(
            gen.population.explored, budget,
            "a fully credited budget leaves nothing to explore"
        );
        assert_eq!(gen.population.circuits.len(), full.circuits.len());
    }

    #[test]
    fn threshold_controls_population_size() {
        let mut wf = quick_workflow(2);
        let target = Workflow::target_unitary(&ghz_reference());
        wf.max_hs = 0.5;
        let loose = wf.generate(&target).circuits.len();
        wf.max_hs = 0.01;
        let tight = wf.generate(&target).circuits.len();
        assert!(loose >= tight, "looser threshold keeps more circuits");
    }
}
