//! What every workload hands back to the reporter.

use crate::trace::Span;

/// Options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run's stores and journals.
    pub tmp: std::path::PathBuf,
    /// Digest of the benchmark executable, naming the build under test.
    pub build: String,
}

impl Opts {
    /// How long the first pass runs. A traced invocation runs two passes
    /// (untraced, then traced over the same jobs) and, on the serve
    /// workloads, a replay, so each pass gets half the time.
    pub fn window(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Jobs the first pass runs at least: enough for the tail percentile
    /// in an untraced invocation, which reports it.
    pub fn min_jobs(&self, tail_samples: usize) -> usize {
        if self.trace {
            1
        } else {
            tail_samples
        }
    }
}

/// One measured pass over a workload's job list.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Per-job latency, in completion order.
    pub job_ms: Vec<f64>,
    /// Scored candidate rows produced.
    pub rows: usize,
    pub attempted: usize,
    pub failed: usize,
}

/// Counts recorded at layer boundaries during the traced run.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub synth_nodes: usize,
    pub memo_hits: usize,
    pub memo_misses: usize,
    pub cx_logical: usize,
    pub cx_routed: usize,
    pub source_gates: usize,
    pub fused_ops: usize,
    /// Computed bytes one pass over the state moves, summed per compiled
    /// program: fused ops × 2^n amplitudes × 16 bytes.
    pub bytes_per_shot_sum: f64,
    pub compiled_programs: usize,
    pub trajectory_shots: u64,
    pub aborted_shots: u64,
    /// Circuits run on the density-matrix backends (noisy and hardware).
    pub density_circuits: usize,
    pub journal_records: usize,
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub untraced: Pass,
    pub traced: Option<Pass>,
    pub spans: Vec<Span>,
    pub counters: Counters,
    /// `Store::stats` of the served store (`serve_wide_tfim`).
    pub store: Option<qaprox_store::Stats>,
    pub precision_gain_pct: Option<f64>,
    pub shots_per_s: Option<f64>,
    /// The fixed tail percentile this workload reports.
    pub tail_p: f64,
    /// Correctness-gate failures; any entry fails the run.
    pub failures: Vec<String>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}
