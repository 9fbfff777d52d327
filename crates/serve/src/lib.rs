//! # qaprox-serve
//!
//! A long-lived job service over the content-addressed store.
//!
//! Synthesis dominates every experiment's wall clock, and identical targets
//! recur constantly (the same workload at the same settings across figure
//! sweeps). This crate turns the one-shot CLI pipeline into a service:
//!
//! * [`spec`] — [`JobSpec`]: wire-level job descriptions that mirror the
//!   `qaprox synth` / `qaprox run` options and define the cache keys;
//! * [`exec`] — cache-first execution: store hit → answer immediately;
//!   partial checkpoint → resume with the remaining node budget; miss →
//!   synthesize, streaming checkpoints so a killed job resumes, not
//!   restarts;
//! * [`scheduler`] — a worker pool with a bounded queue (backpressure),
//!   in-flight dedup, cooperative cancellation, per-job timeouts, panic
//!   isolation, client deadlines (expired jobs shed before dispatch),
//!   cost-based admission control, and runaway-job watchdogs that
//!   quarantine stalled or over-budget jobs;
//! * [`server`] / [`client`] — newline-delimited JSON over
//!   `std::net::TcpListener`, ops `synth`, `run`, `status`, `result`,
//!   `cancel`, `stats`, `recover`, `shutdown`.
//!
//! Robustness (documented in `docs/FAULTS.md`):
//!
//! * [`journal`] — a durable append-only NDJSON write-ahead log of job
//!   transitions; a scheduler opened on the same journal directory replays
//!   it, re-enqueues lost jobs, and resumes synthesis from the last store
//!   checkpoint;
//! * [`retry`] — deterministic exponential backoff with seeded jitter, used
//!   by workers for transient faults and by clients for backpressure;
//! * [`breaker`] — per-backend circuit breakers (closed → open → half-open)
//!   that stop a failing backend from absorbing every worker's retry budget.
//!
//! The protocol and store layout are documented in `docs/SERVE.md`.

pub mod breaker;
pub mod client;
pub mod exec;
pub mod journal;
pub mod retry;
pub mod scheduler;
pub mod server;
pub mod spec;

pub use breaker::{BreakerConfig, BreakerRegistry};
pub use client::{Client, ClientError};
pub use exec::{
    obtain_population, obtain_run, run_spec, ExecCtl, ExecResult, PopulationOutcome, RunOutcome,
};
pub use journal::{Journal, ReplayedJournal};
pub use retry::RetryPolicy;
pub use scheduler::{
    AdmissionConfig, JobState, JobView, Scheduler, SchedulerConfig, Submitted, WatchdogConfig,
};
pub use server::{Server, ServerConfig};
pub use spec::{JobSpec, RunSpec, SynthSpec, MAX_SYNTH_QUBITS};
