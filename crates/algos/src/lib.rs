//! # qaprox-algos
//!
//! Reference circuit generators for the paper's three workloads (plus QFT):
//!
//! * [`tfim`] — time-dependent Transverse-Field Ising Model Trotter circuits
//!   (21 timesteps, depth growing linearly — Figs. 2-4, 8-13);
//! * [`grover`] — Grover search, 3 qubits, marked state `|111>` (Figs. 5, 14);
//! * [`mct`] — no-ancilla multi-controlled Toffoli via the Barenco
//!   square-root recursion (Figs. 6, 7, 15, 17-19);
//! * [`qft`] — quantum Fourier transform, extra workload for examples;
//! * [`qaoa`] — QAOA MaxCut circuits (Related Work \[20\] workload).

#![warn(missing_docs)]

pub mod grover;
pub mod mct;
pub mod qaoa;
pub mod qft;
pub mod tfim;

pub use grover::{grover_circuit, optimal_iterations, paper_grover};
pub use mct::{ccx, mct_reference, mct_unitary, mcu, mcx, mcz};
pub use qaoa::{qaoa_circuit, MaxCutGraph};
pub use qft::qft_circuit;
pub use tfim::{tfim_circuit, tfim_series, FieldSchedule, TfimParams};
