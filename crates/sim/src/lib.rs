//! # qaprox-sim
//!
//! Quantum circuit simulators — the Rust stand-in for Qiskit-Aer:
//!
//! * [`statevector`] — ideal simulation ("noise free reference");
//! * [`density`] — density-matrix states with Kraus-channel support;
//! * [`noise_model`] — device noise models built from calibration snapshots
//!   (the paper's "hardware specific noise models"), applying the
//!   `qaprox_device` per-gate noise rule and Kraus channels;
//! * [`readout`] — per-qubit measurement confusion;
//! * [`hardware`] — emulated physical machines: model noise plus coherent
//!   over-rotation, ZZ crosstalk, readout drift, finite shots (the
//!   substitute for the paper's IBM Q hardware runs);
//! * [`sampler`] — finite-shot sampling;
//! * [`trajectory`] — Monte-Carlo trajectory simulation (cross-validates the
//!   density matrix; scales to wider circuits);
//! * [`mitigation`] — readout-error mitigation (confusion-matrix inversion);
//! * [`executor`] — parallel batch execution over circuit populations.

#![warn(missing_docs)]

pub mod density;
pub mod executor;
pub mod hardware;
pub mod mitigation;
pub mod noise_model;
pub mod readout;
pub mod sampler;
pub mod statevector;
pub mod trajectory;

pub use density::DensityMatrix;
pub use executor::Backend;
pub use hardware::{HardwareBackend, HardwareEffects};
pub use mitigation::mitigate_readout;
pub use noise_model::NoiseModel;
pub use readout::ReadoutError;
pub use sampler::{counts_to_probs, sample_counts, DEFAULT_SHOTS};
pub use trajectory::{
    BatchRun, FusedProgram, HealthReport, TrajectoryBackend, TrajectoryBatch,
    DEFAULT_TRAJECTORY_SHOTS, NORM_DRIFT_TOL,
};
