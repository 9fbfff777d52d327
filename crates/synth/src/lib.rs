//! # qaprox-synth
//!
//! Circuit synthesis — the Rust reproduction of the BQSKit tools the paper
//! modifies into approximate-circuit generators:
//!
//! * [`template`] — the QSearch ansatz (CNOT placements + U3 layers);
//! * [`instantiate`](mod@instantiate) — Hilbert-Schmidt instantiation with analytic-gradient
//!   multistart L-BFGS (the SciPy BFGS/COBYLA stand-in);
//! * [`qsearch`](mod@qsearch) — A* over placements, emitting **every** evaluated circuit
//!   (the paper's enhancement, Sec. 4);
//! * [`qfast`](mod@qfast) — hierarchical synthesis: greedy SU(4)-block placement via
//!   `exp(i sum t_j P_j)` then per-block refinement into {U3, CX}
//!   (`partial_solution_callback` analogue);
//! * [`qfactor`] — tensor-sweep gate optimization via polar decomposition
//!   (the paper's Sec. 6.5 roadmap tool);
//! * [`approx`] — the approximate-circuit records, HS-threshold selection,
//!   and per-depth frontiers the experiments consume;
//! * [`partitioned`] — Sec. 6.5's "large circuits from many small pieces":
//!   segment-wise synthesis with a composable error budget.

#![warn(missing_docs)]

pub mod approx;
pub mod hooks;
pub mod instantiate;
pub mod memo;
pub mod partitioned;
pub mod qfactor;
pub mod qfast;
pub mod qsearch;
pub mod template;

pub use approx::{
    admit, admit_on_device, best_per_cnot_count, certified_score, dedupe, partition_by_bound,
    predicted_score, rank_by_predicted, select_by_threshold, ApproxCircuit, BoundPartition,
    SynthStats, SynthesisOutput,
};
pub use hooks::{ProgressFn, SearchHooks};
pub use instantiate::{
    instantiate, HsObjective, InstantiateConfig, InstantiateWorkspace, Instantiated,
};
pub use memo::{canonicalize, CanonicalForm, StructureMemo};
pub use partitioned::{partition, synthesize_partitioned, PartitionConfig, PartitionedResult};
pub use qfactor::{qfactor_optimize, QFactorConfig, QFactorResult};
pub use qfast::{qfast, qfast_with_hooks, QFastConfig};
pub use qsearch::{qsearch, qsearch_resume, qsearch_with_hooks, warm_memo, QSearchConfig};
pub use template::Structure;
