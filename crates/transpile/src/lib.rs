//! # qaprox-transpile
//!
//! The transpiler substrate standing in for Qiskit's: basis translation to
//! {U3, CX} ([`decompose`]), peephole optimization
//! ([`optimize`](mod@optimize)), initial layout selection ([`layout`] —
//! trivial for the paper's simulator runs, noise-aware for its hardware
//! runs), and SWAP routing onto coupling graphs ([`routing`]), tied together
//! by [`transpiler::transpile`] with Qiskit-style optimization levels 0-3.

#![warn(missing_docs)]

pub mod commutation;
pub mod decompose;
pub mod layout;
pub mod optimize;
pub mod routing;
pub mod transpiler;

pub use commutation::commutation_cancel_cx;
pub use decompose::{is_in_basis, to_basis};
pub use layout::{best_permutation_onto, noise_aware_layout, trivial_layout, Layout};
pub use optimize::{cancel_cx_pairs, merge_1q_runs, optimize};
pub use routing::{compact, route, used_qubits, Routed};
pub use transpiler::{check_routed, check_routed_with, transpile, OptLevel, Transpiled};
