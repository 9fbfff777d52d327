//! # qaprox
//!
//! A Rust reproduction of *"Empirical Evaluation of Circuit Approximations
//! on Noisy Quantum Devices"* (Wilson, Bassman, Mueller, Iancu — SC 2021),
//! together with every substrate the paper's Python/Qiskit/BQSKit stack
//! provided: simulators with device noise models, calibration snapshots for
//! the five IBM machines, a transpiler, and QSearch/QFast-style
//! synthesis — all built from scratch in this workspace.
//!
//! The headline workflow (the paper's Fig. 1) lives in [`workflow`]:
//!
//! ```
//! use qaprox::prelude::*;
//!
//! // 1. reference circuit -> target unitary
//! let mut reference = Circuit::new(2);
//! reference.h(0).cx(0, 1);
//! let target = Workflow::target_unitary(&reference);
//!
//! // 2-3. generate + select approximate circuits (HS threshold 0.1)
//! let workflow = Workflow::linear_qsearch(2);
//! let population = workflow.generate(&target);
//! assert!(!population.circuits.is_empty());
//!
//! // 4-5. execute on a noisy device model and score
//! let cal = qaprox_device::devices::ourense().induced(&[0, 1]);
//! let backend = Backend::Noisy(NoiseModel::from_calibration(cal));
//! let scored = execute_and_score(&population.circuits, &backend, |_, probs| {
//!     qaprox_metrics::magnetization(probs)
//! });
//! assert_eq!(scored.len(), population.circuits.len());
//! ```
//!
//! The experiment drivers behind the paper's figures:
//! * [`tfim_study`] — magnetization series (Figs. 2-4, 8-10, 12-13);
//! * [`sweep`] — CNOT-error sensitivity (Figs. 8-11);
//! * [`grover_study`] — success probability (Figs. 5, 14);
//! * [`toffoli_study`] — JS-distance battery (Figs. 6, 7, 15);
//! * [`mapping`] — qubit-mapping sensitivity (Figs. 16-19);
//! * [`selection`] — selection-strategy study (the open problem of Obs. 2);
//! * [`metric_correlation`] — which cheap metric predicts real-device error
//!   (Sec. 6.5's metric analysis);
//! * [`qvolume`] — quantum-volume estimation (Sec. 6.5 roadmap).

#![warn(missing_docs)]

pub mod grover_study;
pub mod mapping;
pub mod metric_correlation;
pub mod qvolume;
pub mod selection;
pub mod sweep;
pub mod tfim_study;
pub mod toffoli_study;
pub mod workflow;

pub use workflow::{
    execute_and_score, Engine, GenerateControl, Generation, Population, ResumeMode, Scored,
    Workflow,
};

/// Convenient re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::workflow::{
        execute_and_score, Engine, GenerateControl, Generation, Population, ResumeMode, Scored,
        Workflow,
    };
    pub use qaprox_algos::grover::grover_circuit;
    pub use qaprox_algos::mct::{mct_reference, mct_unitary};
    pub use qaprox_algos::tfim::{tfim_circuit, tfim_series, FieldSchedule, TfimParams};
    pub use qaprox_circuit::{Circuit, Gate};
    pub use qaprox_device::devices;
    pub use qaprox_device::{Calibration, Topology};
    pub use qaprox_metrics::{hs_distance, js_distance, magnetization, success_probability};
    pub use qaprox_sim::{
        Backend, HardwareBackend, HardwareEffects, NoiseModel, TrajectoryBackend,
    };
    pub use qaprox_synth::{
        qfast, qsearch, ApproxCircuit, QFastConfig, QSearchConfig, SynthesisOutput,
    };
    pub use qaprox_transpile::{transpile, OptLevel};
}
