//! # qaprox-store
//!
//! Content-addressed on-disk artifact store for synthesis populations and
//! execution results.
//!
//! Synthesizing a population for a target unitary is the expensive step of
//! every workflow in the paper reproduction; executing it on a simulated
//! backend is the second. Both are pure functions of their inputs, so both
//! are cacheable. This crate gives the workspace a durable cache:
//!
//! * [`Key`] — a stable 128-bit content address. Population keys hash the
//!   target unitary's canonical bytes, a synthesis-config fingerprint, and
//!   the seed ([`population_key`]); result keys hash the population key, a
//!   backend fingerprint, and the job seed ([`result_key`]).
//! * [`PopulationArtifact`] / [`ResultArtifact`] — versioned manifests
//!   (JSON, checksummed) plus QASM dumps, losslessly round-trippable.
//! * [`PartialCheckpoint`] — an in-progress synthesis snapshot so a killed
//!   job resumes with its remaining node budget instead of restarting.
//! * [`Store`] — the on-disk store itself: atomic writes, corruption
//!   detection on load, persistent hit/miss counters, and LRU [`Store::gc`].
//!
//! The JSON machinery is hand-rolled to keep the workspace
//! zero-external-dependency. It lives in [`qaprox_linalg::json`] and is
//! re-exported here as [`json`]: the manifests, `qaprox-serve`'s wire
//! protocol and journal, and `qaprox-verify`'s reports all write through it.

pub mod artifact;
pub mod key;
pub mod store;

pub use artifact::{DecodeError, PartialCheckpoint, PopulationArtifact, ResultArtifact, ResultRow};
pub use key::{population_key, result_key, Key};
pub use qaprox_linalg::json::{self, Json};
pub use store::{GcReport, Stats, Store, StoreError};
