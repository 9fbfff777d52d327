//! # qaprox-device
//!
//! The NISQ device substrate: coupling [`Topology`] graphs, per-qubit /
//! per-edge [`Calibration`] snapshots for the five IBM machines the paper
//! uses (anchored to its Table 1 averages), the per-gate noise rule
//! ([`GateNoise`]) and the Kraus [`channels`] it is built from, and the
//! noise-report rendering behind Fig. 16. The simulators, the static
//! verifier and noise-aware transpilation consume these.

#![warn(missing_docs)]

pub mod calibration;
pub mod channels;
pub mod devices;
pub mod noise;
pub mod report;
pub mod topology;

pub use calibration::{Calibration, EdgeCal, QubitCal};
pub use noise::GateNoise;
pub use report::{render as render_report, standard_mappings, Mapping};
pub use topology::Topology;
