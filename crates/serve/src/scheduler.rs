//! The worker-pool scheduler.
//!
//! A fixed pool of worker threads drains a bounded FIFO queue of jobs.
//! Guarantees:
//!
//! * **backpressure** — a full queue rejects new submissions immediately
//!   (the server surfaces this as `backpressure: true`) instead of growing
//!   without bound;
//! * **dedup** — a submission identical to a queued/running job returns the
//!   existing job id instead of queueing duplicate work (identical *after*
//!   one completes hits the store instead);
//! * **cancellation** — `cancel` flips the job's atomic flag; synthesis
//!   notices at the next round boundary and suspends with a checkpoint;
//! * **timeout** — each job gets a deadline; overruns suspend the same way
//!   and the job reports `timed-out`;
//! * **panic isolation** — a panicking job poisons nothing: the worker
//!   catches the unwind, marks the job failed, and moves on;
//! * **durability** — with [`SchedulerConfig::journal_dir`] set, every job
//!   transition is appended to the [`crate::journal`] WAL; a scheduler
//!   started on the same directory replays it, restores finished jobs'
//!   results, and re-enqueues (same ids) whatever never reached a terminal
//!   state — synthesis then resumes from the last store checkpoint. Live
//!   execution and replay share one state machine: `State::transition` is
//!   the only code that changes a job's state, and the terminal vocabulary
//!   (wire name, journal event, `stats` field) is one table;
//! * **retry + degradation** — workers retry transient failures through the
//!   configured [`RetryPolicy`]; when retries exhaust, the job degrades to
//!   the best available fallback (see [`crate::exec::degraded_payload`])
//!   instead of failing outright, reporting `degraded` with a flagged
//!   payload;
//! * **deadline shedding** — a job carrying a client deadline
//!   ([`crate::spec::SynthSpec::deadline_ms`]) that lapses while queued is
//!   `shed` before dispatch: it never touches a worker or the backend, and
//!   running jobs propagate the remaining budget as a cancellation deadline
//!   checked at shot/wave granularity;
//! * **admission control** — with [`AdmissionConfig`] budgets set, every
//!   submission is priced by the static predictor
//!   ([`JobSpec::predicted_cost`]) and anything exceeding its per-class cap
//!   (or overflowing the summed queued-cost budget) is rejected
//!   [`Submitted::Overloaded`] with a `retry_after_ms` hint;
//! * **runaway watchdogs** — with [`WatchdogConfig`] armed, a sentinel
//!   thread cancels and **quarantines** running jobs that hold a worker
//!   past the stall budget, and jobs whose predicted arena ask exceeds the
//!   memory budget quarantine at dispatch. `quarantined` is terminal and
//!   journaled, so recovery replay never re-runs a poison job.

use crate::breaker::{BreakerConfig, BreakerRegistry};
use crate::exec::{degraded_payload, run_spec, ExecCtl, ExecResult};
use crate::journal::{self, Journal, ReplayedJournal};
use crate::retry::RetryPolicy;
use crate::spec::JobSpec;
use qaprox_store::json::Json;
use qaprox_store::Store;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads.
    pub workers: usize,
    /// Bounded queue length; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Per-job wall-clock budget (None = unbounded).
    pub job_timeout: Option<Duration>,
    /// Checkpoint cadence in synthesis nodes (0 = only on suspension).
    pub checkpoint_every: usize,
    /// Journal directory (None = no durability).
    pub journal_dir: Option<PathBuf>,
    /// Worker-side retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Per-backend circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Admission-control budgets (all `None` = admission disabled).
    pub admission: AdmissionConfig,
    /// Runaway-job watchdog budgets (all `None` = watchdog disabled).
    pub watchdog: WatchdogConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            queue_capacity: 64,
            job_timeout: None,
            checkpoint_every: 20,
            journal_dir: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            admission: AdmissionConfig::default(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Admission-control budgets, priced with the static cost predictor
/// ([`JobSpec::predicted_cost`]). A `None` field disables that gate; with
/// every budget unset (the default) submissions skip pricing entirely, so
/// the layer costs nothing when idle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Cap on a single synthesis job's predicted cost.
    pub max_synth_cost: Option<u64>,
    /// Cap on a single (non-wide) run job's predicted cost.
    pub max_run_cost: Option<u64>,
    /// Cap on a single wide trajectory job's predicted cost.
    pub max_wide_cost: Option<u64>,
    /// Cap on the summed predicted cost of everything currently queued;
    /// beyond it new work is turned away with backpressure instead of
    /// queueing without bound.
    pub max_queued_cost: Option<u64>,
    /// Retry hint carried by [`Submitted::Overloaded`].
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_synth_cost: None,
            max_run_cost: None,
            max_wide_cost: None,
            max_queued_cost: None,
            retry_after_ms: 250,
        }
    }
}

impl AdmissionConfig {
    /// True when any budget is configured (pricing happens at submit).
    pub fn enabled(&self) -> bool {
        self.max_synth_cost.is_some()
            || self.max_run_cost.is_some()
            || self.max_wide_cost.is_some()
            || self.max_queued_cost.is_some()
    }

    fn class_cap(&self, class: &str) -> Option<u64> {
        match class {
            "synth" => self.max_synth_cost,
            "wide" => self.max_wide_cost,
            _ => self.max_run_cost,
        }
    }
}

/// Runaway-job watchdog budgets. The stall sentinel runs on its own thread
/// (spawned only when [`WatchdogConfig::stall_timeout`] is set) and
/// quarantines any job holding a worker past the budget; the memory
/// sentinel prices each job's arena ask at dispatch and quarantines
/// over-budget jobs without running them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Wall-clock a running job may hold a worker before it is cancelled
    /// and quarantined (`None` = no stall sentinel, no watchdog thread).
    pub stall_timeout: Option<Duration>,
    /// Largest predicted arena footprint
    /// ([`JobSpec::estimated_arena_bytes`]) allowed to dispatch.
    pub max_arena_bytes: Option<u64>,
    /// Stall-sentinel scan cadence.
    pub poll_interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_timeout: None,
            max_arena_bytes: None,
            poll_interval: Duration::from_millis(10),
        }
    }
}

/// A job's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the payload is available via `result`.
    Done,
    /// Failed with an error message.
    Failed(String),
    /// Cancelled by request (suspended with a checkpoint if it was running).
    Cancelled,
    /// Exceeded its deadline (suspended with a checkpoint).
    TimedOut,
    /// Retries exhausted; a fallback payload (flagged `degraded: true`) is
    /// available via `result`.
    Degraded,
    /// Client deadline lapsed while queued; the job was dropped before
    /// dispatch and never touched a worker or the backend.
    Shed,
    /// A watchdog sentinel condemned the job (wall-clock stall or an
    /// over-budget arena ask). Terminal and journaled: recovery replay
    /// restores it queryable but never re-runs it, so a poison circuit
    /// cannot crash-loop the scheduler.
    Quarantined(String),
}

/// A terminal state's `(wire name, stats field, constructor)`.
type Terminal = (&'static str, &'static str, fn(String) -> JobState);

/// Every terminal state as `(wire name, stats field, constructor)`, in
/// `stats` order. The wire name is also the journal event; the constructor
/// builds the state from its reason, which only `failed` and `quarantined`
/// carry. The terminal vocabulary is spelled out here and nowhere else:
/// names, journal records, replay, counters and `stats` all read this table.
const TERMINALS: [Terminal; 7] = [
    ("done", "completed", |_| JobState::Done),
    ("failed", "failed", JobState::Failed),
    ("cancelled", "cancelled", |_| JobState::Cancelled),
    ("timed-out", "timed_out", |_| JobState::TimedOut),
    ("degraded", "degraded", |_| JobState::Degraded),
    ("shed", "shed", |_| JobState::Shed),
    ("quarantined", "quarantined", JobState::Quarantined),
];

impl JobState {
    /// The wire name of this state.
    pub fn name(&self) -> &'static str {
        match (self, self.terminal()) {
            (_, Some(row)) => TERMINALS[row].0,
            (JobState::Queued, None) => "queued",
            _ => "running",
        }
    }

    /// True once the job can never run again.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The `result` error text of a job without a payload.
    pub(crate) fn error_text(&self) -> String {
        match self {
            JobState::Failed(e) => e.clone(),
            JobState::Quarantined(reason) => format!("job {}: {reason}", self.name()),
            s if s.is_terminal() => format!("job {}", s.name()),
            _ => "not finished".to_string(),
        }
    }

    /// This state's row in [`TERMINALS`] (None while queued or running).
    /// Each row's constructor yields its variant, so the table alone fixes
    /// the mapping.
    fn terminal(&self) -> Option<usize> {
        let variant = std::mem::discriminant(self);
        TERMINALS
            .iter()
            .position(|(.., state)| std::mem::discriminant(&state(String::new())) == variant)
    }

    /// The failure or quarantine reason this state carries.
    fn reason(&self) -> Option<&str> {
        match self {
            JobState::Failed(r) | JobState::Quarantined(r) => Some(r),
            _ => None,
        }
    }
}

/// The inverse of the terminal records [`State::transition`] writes: the
/// state and payload text a record restores, or None for a non-terminal
/// event.
fn decode_terminal(record: &Json) -> Option<(JobState, Option<Arc<str>>)> {
    let event = record.get_str("event")?;
    let (name, _, state) = TERMINALS.iter().find(|(name, ..)| *name == event)?;
    let reason = record.get_str("error").unwrap_or(name).to_string();
    Some((state(reason), record.get("payload").map(wire_text)))
}

/// A payload as the wire text `result` sends. A finished job keeps only
/// this, not the tree it was built as.
fn wire_text(payload: &Json) -> Arc<str> {
    Arc::from(payload.to_string())
}

struct Job {
    spec: JobSpec,
    state: JobState,
    cancel: Arc<AtomicBool>,
    /// The finished payload as wire text ([`wire_text`]).
    result: Option<Arc<str>>,
    /// The dedup key while the job is live; empty once it is terminal,
    /// since a finished job no longer absorbs resubmissions.
    fingerprint: String,
    /// Client deadline, stamped at submission from the spec's relative TTL.
    deadline: Option<Instant>,
    /// When a worker dispatched it (the stall sentinel's clock).
    started: Option<Instant>,
    /// Set by a watchdog sentinel; the worker resolves the outcome to
    /// `Quarantined` regardless of how execution unwound.
    quarantine_reason: Option<String>,
    /// Predicted cost at admission (0 when admission is disabled).
    cost: u64,
}

impl Job {
    /// A queued job. The client deadline is a relative TTL stamped here, so
    /// a job re-enqueued by replay gets its budget afresh: the downtime is
    /// not charged against the client.
    fn queued(spec: JobSpec, fingerprint: String, cost: u64) -> Job {
        let deadline = spec
            .deadline_ms()
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        Job {
            spec,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            result: None,
            fingerprint,
            deadline,
            started: None,
            quarantine_reason: None,
            cost,
        }
    }
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    rejected: u64,
    deduped: u64,
    overloaded: u64,
    /// Jobs that reached each terminal state, indexed like [`TERMINALS`].
    terminal: [u64; TERMINALS.len()],
}

/// What moves a job: the inputs of [`State::transition`].
enum Event {
    /// A submission joins the back of the queue.
    Submit(Box<Job>),
    /// A submission whose journal append failed never happened.
    Retract,
    /// A worker takes the queued job.
    Dispatch,
    /// The job ends in a terminal state, with the payload of a `done` or
    /// `degraded` one.
    Finish(JobState, Option<Json>),
    /// An injected panic, standing in for the process dying mid-job: the
    /// job fails and, as a dead process would, journals nothing.
    Crash(String),
}

#[derive(Default)]
struct State {
    queue: VecDeque<u64>,
    /// Boxed, so the table's spare capacity costs a pointer per slot, not
    /// a job.
    jobs: HashMap<u64, Box<Job>>,
    inflight: HashMap<String, u64>,
    /// The highest job id handed out (0 before the first).
    last_id: u64,
    stopping: bool,
    counters: Counters,
    /// Summed predicted cost of everything in `queue` (maintained only
    /// while admission is enabled; otherwise stays 0).
    queued_cost: u64,
}

impl State {
    /// The one place a job changes state. It does the bookkeeping that goes
    /// with the change (queue slot and queued cost, dedup entry, counters)
    /// and returns the journal record for the caller to append. Terminal
    /// transitions during shutdown journal nothing, so a restart re-enqueues
    /// those jobs; neither does [`Event::Crash`].
    fn transition(&mut self, id: u64, event: Event) -> Option<Json> {
        let record = self.apply(id, event);
        #[cfg(feature = "strict-invariants")]
        assert!(self.balances(), "strict-invariants: jobs unaccounted");
        record
    }

    fn apply(&mut self, id: u64, event: Event) -> Option<Json> {
        if let Event::Submit(job) = event {
            let record = journal::submit_event(id, &job.spec);
            self.last_id = self.last_id.max(id);
            self.counters.submitted += 1;
            self.queued_cost = self.queued_cost.saturating_add(job.cost);
            self.inflight.entry(job.fingerprint.clone()).or_insert(id);
            self.queue.push_back(id);
            self.jobs.insert(id, job);
            return Some(record);
        }
        let job = self.jobs.get_mut(&id).filter(|j| !j.state.is_terminal())?;
        if job.state == JobState::Queued {
            // whatever happens next, the job gives up its queue slot
            if let Some(pos) = self.queue.iter().position(|&q| q == id) {
                self.queue.remove(pos);
            }
            self.queued_cost = self.queued_cost.saturating_sub(job.cost);
        }
        if let Event::Dispatch = event {
            job.state = JobState::Running;
            job.started = Some(Instant::now());
            return Some(journal::event("start", id));
        }
        let fingerprint = std::mem::take(&mut job.fingerprint);
        if self.inflight.get(&fingerprint) == Some(&id) {
            self.inflight.remove(&fingerprint);
        }
        let (state, result, journaled) = match event {
            Event::Finish(state, result) => (state, result, !self.stopping),
            Event::Crash(msg) => (JobState::Failed(msg), None, false),
            Event::Retract => {
                self.counters.submitted -= 1;
                self.jobs.remove(&id);
                return None;
            }
            Event::Submit(_) | Event::Dispatch => unreachable!("handled above"),
        };
        // a watchdog verdict overrides however the condemned job unwound
        // (suspended, failed, even finished after the flag flip)
        let (state, result) = match job.quarantine_reason.take() {
            Some(reason) => (JobState::Quarantined(reason), None),
            None => (state, result),
        };
        self.counters.terminal[state.terminal().expect("a terminal state")] += 1;
        let record = journaled
            .then(|| journal::terminal_event(id, state.name(), result.as_ref(), state.reason()));
        job.state = state;
        job.result = result.as_ref().map(wire_text);
        record
    }

    /// Shutdown: accept nothing more, cancel every queued job and flag the
    /// running ones to stop. The cancels are not journaled, so a restart
    /// re-enqueues the jobs.
    fn drain(&mut self) {
        self.stopping = true;
        for id in self.queue.clone() {
            self.transition(id, Event::Finish(JobState::Cancelled, None));
        }
        for job in self.jobs.values().filter(|j| j.state == JobState::Running) {
            job.cancel.store(true, Ordering::Relaxed);
        }
    }

    fn view(&self, id: u64) -> Option<JobView> {
        self.jobs.get(&id).map(|j| JobView {
            id,
            state: j.state.clone(),
            result: j.result.clone(),
        })
    }

    fn running(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count()
    }

    /// The accounting identity: every counted submission is queued, running
    /// or counted under exactly one terminal state. Jobs a replay restored
    /// as terminal count on neither side.
    #[cfg(any(test, feature = "strict-invariants"))]
    fn balances(&self) -> bool {
        let terminal: u64 = self.counters.terminal.iter().sum();
        self.counters.submitted == (self.queue.len() + self.running()) as u64 + terminal
    }

    /// Rebuilds the job table from journal records, and the recovery report.
    /// Jobs whose last record is terminal come back as they ended, outside
    /// the counters; every other journaled submit re-enters through the
    /// submit transition under its original id, in id order.
    fn replay(dir: &Path, log: &ReplayedJournal, admission: &AdmissionConfig) -> (State, Json) {
        // BTreeMap: jobs are visited in id order, so re-enqueueing
        // preserves the original submission order
        let mut seen: BTreeMap<u64, Rebuilt> = BTreeMap::new();
        for rec in &log.records {
            let (Some(event), Some(id)) = (rec.get_str("event"), rec.get_u64("job")) else {
                continue;
            };
            let r = seen.entry(id).or_default();
            match event {
                "submit" => r.spec = rec.get("spec").and_then(|s| JobSpec::from_json(s).ok()),
                "checkpoint" => {
                    r.checkpoint_nodes = rec.get_usize("nodes").unwrap_or(r.checkpoint_nodes)
                }
                // terminal events decode through the table; "start" and
                // future event kinds carry no state
                _ => r.terminal = decode_terminal(rec).or(r.terminal.take()),
            }
        }
        let mut st = State::default();
        let mut reenqueued = Vec::new();
        let mut restored_terminal = 0u64;
        let jobs_seen = seen.len();
        for (id, r) in seen {
            st.last_id = st.last_id.max(id);
            let Some(spec) = r.spec else { continue };
            if let Some((state, result)) = r.terminal {
                restored_terminal += 1;
                let mut job = Job::queued(spec, String::new(), 0);
                (job.state, job.result) = (state, result);
                st.jobs.insert(id, Box::new(job));
                continue;
            }
            let fingerprint = spec.dedup_fingerprint();
            let mut job = Job::queued(spec, fingerprint, 0);
            if admission.enabled() {
                job.cost = job.spec.predicted_cost().unwrap_or(0);
            }
            reenqueued.push(Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("checkpoint", Json::Num(r.checkpoint_nodes as f64)),
            ]));
            // the submit record is already in the journal
            let _ = st.transition(id, Event::Submit(Box::new(job)));
        }
        let report = Json::obj(vec![
            ("journal", Json::Str(dir.display().to_string())),
            ("records", Json::Num(log.records.len() as f64)),
            ("skipped_lines", Json::Num(log.skipped_lines as f64)),
            ("jobs_seen", Json::Num(jobs_seen as f64)),
            ("restored_terminal", Json::Num(restored_terminal as f64)),
            ("reenqueued", Json::Arr(reenqueued)),
        ]);
        (st, report)
    }
}

/// One journal-replayed job, accumulated in record order.
#[derive(Default)]
struct Rebuilt {
    spec: Option<JobSpec>,
    terminal: Option<(JobState, Option<Arc<str>>)>,
    checkpoint_nodes: usize,
}

struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
    job_done: Condvar,
    // dedicated wake-up so the sentinel never steals a worker's notify_one
    watchdog_wake: Condvar,
    store: Option<Arc<Store>>,
    journal: Option<Journal>,
    recovery: Option<Json>,
    breakers: Arc<BreakerRegistry>,
    cfg: SchedulerConfig,
}

impl Inner {
    /// Applies a transition and appends its journal record. Once the
    /// segment holds [`journal::SEGMENT_CAP`] records, the journal compacts
    /// to the submit records of the jobs still live: finished jobs' results
    /// live in the store, and recovery no longer needs their history.
    fn commit(&self, st: &mut State, id: u64, event: Event) -> Result<(), String> {
        let (Some(j), Some(record)) = (&self.journal, st.transition(id, event)) else {
            return Ok(());
        };
        j.append(&record)?;
        if j.needs_rotation() {
            let live: Vec<Json> = st
                .jobs
                .iter()
                .filter(|(_, job)| !job.state.is_terminal())
                .map(|(&id, job)| journal::submit_event(id, &job.spec))
                .collect();
            // a failed compaction leaves the old segment growing
            let _ = j.rotate(&live);
        }
        Ok(())
    }
}

/// What `submit` decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// Queued as a new job.
    Accepted(u64),
    /// Identical to an in-flight job; its id is returned instead.
    Deduped(u64),
    /// The queue is full; retry later.
    Rejected,
    /// Admission control turned the job away: it exceeded its class budget
    /// or would overflow the queued-cost budget. Retry after the hint.
    Overloaded {
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
}

/// A point-in-time view of one job.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job id.
    pub id: u64,
    /// Current state.
    pub state: JobState,
    /// Response payload as the wire text `result` sends, present once
    /// `Done` (or `Degraded`). Shared with the job table: a view copies a
    /// pointer, not the payload.
    pub result: Option<Arc<str>>,
}

impl JobView {
    /// The response payload parsed back into a tree.
    pub fn payload(&self) -> Option<Json> {
        let text = self.result.as_deref()?;
        Some(qaprox_store::json::parse(text).expect("a stored payload is valid json"))
    }
}

/// The worker-pool scheduler. Dropping it shuts the pool down.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Scheduler {
    /// Starts the pool. With a journal directory configured, replays the
    /// journal first: finished jobs get their states and payloads restored
    /// (queryable as before the restart), unfinished ones are re-enqueued
    /// under their original ids, in id order.
    pub fn start(cfg: SchedulerConfig, store: Option<Arc<Store>>) -> Result<Scheduler, String> {
        let (state, recovery, journal) = match &cfg.journal_dir {
            Some(dir) => {
                let (state, report) = State::replay(dir, &journal::replay(dir)?, &cfg.admission);
                (state, Some(report), Some(Journal::open(dir)?))
            }
            None => (State::default(), None, None),
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            watchdog_wake: Condvar::new(),
            store,
            journal,
            recovery,
            breakers: Arc::new(BreakerRegistry::new(cfg.breaker.clone())),
            cfg,
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qaprox-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        // the stall sentinel only exists when a stall budget is configured —
        // an idle robustness layer must cost nothing
        let watchdog = inner.cfg.watchdog.stall_timeout.is_some().then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("qaprox-watchdog".into())
                .spawn(move || watchdog_loop(&inner))
                .expect("spawn watchdog")
        });
        Ok(Scheduler {
            inner,
            workers,
            watchdog,
        })
    }

    /// What startup replayed from the journal (None when journal-less).
    pub fn recovery_report(&self) -> Option<Json> {
        self.inner.recovery.clone()
    }

    /// Submits a job; validation errors are returned before queueing.
    pub fn submit(&self, spec: JobSpec) -> Result<Submitted, String> {
        spec.validate()?;
        // Failpoint `serve.scheduler.enqueue`: submission machinery failing
        // before the job becomes visible (transient → clients retry).
        qaprox_fault::fail_point!("serve.scheduler.enqueue", |_action| {
            Err(qaprox_fault::injected_error("serve.scheduler.enqueue"))
        });
        let fingerprint = spec.dedup_fingerprint();
        let mut st = self.inner.state.lock().expect("scheduler state poisoned");
        if st.stopping {
            return Err("scheduler is shutting down".into());
        }
        if let Some(&id) = st.inflight.get(&fingerprint) {
            st.counters.deduped += 1;
            return Ok(Submitted::Deduped(id));
        }
        // admission control: price the job with the static predictor and
        // turn it away if it busts its class budget or would overflow the
        // queued-cost budget. With no budgets configured this whole block
        // is skipped — no pricing on the hot path.
        let adm = &self.inner.cfg.admission;
        let cost = if adm.enabled() {
            // validation already built the reference circuit, so pricing
            // cannot fail; an unpriceable job under admission is rejected
            let cost = spec.predicted_cost().unwrap_or(u64::MAX);
            let over_class = adm.class_cap(spec.class()).is_some_and(|cap| cost > cap);
            let over_queue = adm
                .max_queued_cost
                .is_some_and(|cap| st.queued_cost.saturating_add(cost) > cap);
            if over_class || over_queue {
                st.counters.overloaded += 1;
                return Ok(Submitted::Overloaded {
                    retry_after_ms: adm.retry_after_ms,
                });
            }
            cost
        } else {
            0
        };
        if st.queue.len() >= self.inner.cfg.queue_capacity {
            st.counters.rejected += 1;
            return Ok(Submitted::Rejected);
        }
        let id = st.last_id + 1;
        let job = Job::queued(spec, fingerprint, cost);
        // durable before visible: if the WAL cannot record the submission,
        // the job must not exist
        if let Err(e) = self.inner.commit(&mut st, id, Event::Submit(Box::new(job))) {
            st.transition(id, Event::Retract);
            return Err(e);
        }
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            st.queue.len() <= self.inner.cfg.queue_capacity,
            "strict-invariants: queue over capacity"
        );
        drop(st);
        self.inner.work_ready.notify_one();
        Ok(Submitted::Accepted(id))
    }

    /// A snapshot of one job, if it exists.
    pub fn job(&self, id: u64) -> Option<JobView> {
        self.inner
            .state
            .lock()
            .expect("scheduler state poisoned")
            .view(id)
    }

    /// Requests cancellation. Queued jobs cancel immediately; running jobs
    /// suspend at their next synthesis round. Returns false for unknown or
    /// already-terminal jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let mut guard = self.inner.state.lock().expect("scheduler state poisoned");
        let st = &mut *guard;
        let Some(job) = st.jobs.get(&id) else {
            return false;
        };
        match job.state {
            JobState::Queued => {
                let _ = self
                    .inner
                    .commit(st, id, Event::Finish(JobState::Cancelled, None));
                drop(guard);
                self.inner.job_done.notify_all();
                true
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Blocks until the job reaches a terminal state (or the timeout).
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobView> {
        let st = self.inner.state.lock().expect("scheduler state poisoned");
        let unfinished = |st: &mut State| st.jobs.get(&id).is_some_and(|j| !j.state.is_terminal());
        let (st, _) = self
            .inner
            .job_done
            .wait_timeout_while(st, timeout, unfinished)
            .expect("scheduler state poisoned");
        st.view(id)
    }

    /// Scheduler + store statistics as a JSON payload.
    pub fn stats(&self) -> Json {
        let st = self.inner.state.lock().expect("scheduler state poisoned");
        let c = &st.counters;
        let count = |name: &str, n: u64| (name.to_string(), Json::Num(n as f64));
        let mut fields = vec![
            count("workers", self.workers.len() as u64),
            count("queued", st.queue.len() as u64),
            count("running", st.running() as u64),
            count("submitted", c.submitted),
        ];
        let terminal = TERMINALS.iter().zip(c.terminal);
        fields.extend(terminal.map(|((_, stat, _), n)| count(stat, n)));
        fields.extend([
            count("rejected", c.rejected),
            count("deduped", c.deduped),
            count("overloaded", c.overloaded),
            count("queued_cost", st.queued_cost),
        ]);
        let breakers = self
            .inner
            .breakers
            .states_all()
            .into_iter()
            .map(|(name, state)| {
                Json::obj(vec![
                    ("name", Json::Str(name)),
                    ("state", Json::Str(state.to_string())),
                ])
            });
        fields.push(("breakers".to_string(), Json::Arr(breakers.collect())));
        if let Some(store) = &self.inner.store {
            let s = store.stats();
            fields.push((
                "store".to_string(),
                Json::obj(vec![
                    ("hits", Json::Num(s.hits as f64)),
                    ("misses", Json::Num(s.misses as f64)),
                    ("puts", Json::Num(s.puts as f64)),
                    ("populations", Json::Num(s.entries.0 as f64)),
                    ("partials", Json::Num(s.entries.1 as f64)),
                    ("results", Json::Num(s.entries.2 as f64)),
                    ("total_bytes", Json::Num(s.total_bytes as f64)),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// Stops accepting work, cancels running jobs, and joins the workers.
    pub fn shutdown(self) {
        drop(self); // Drop shuts the pool down
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // a poisoned lock means the workers died on it: nothing to drain
        if let Ok(mut st) = self.inner.state.lock() {
            st.drain();
        }
        self.inner.work_ready.notify_all();
        self.inner.job_done.notify_all();
        self.inner.watchdog_wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

/// The stall sentinel: scans running jobs on a fixed cadence and condemns
/// any that have held a worker past the stall budget — the cancel flag
/// stops the backend at its next shot/round boundary, and the quarantine
/// marker makes the worker resolve the outcome to `Quarantined` no matter
/// how execution unwound.
fn watchdog_loop(inner: &Arc<Inner>) {
    let Some(stall) = inner.cfg.watchdog.stall_timeout else {
        return;
    };
    let tick = inner
        .cfg
        .watchdog
        .poll_interval
        .max(Duration::from_millis(1));
    let mut guard = inner.state.lock().expect("scheduler state poisoned");
    loop {
        if guard.stopping {
            return;
        }
        let now = Instant::now();
        for job in guard.jobs.values_mut() {
            if job.state == JobState::Running
                && job.quarantine_reason.is_none()
                && job.started.is_some_and(|t| now.duration_since(t) > stall)
            {
                job.quarantine_reason = Some(format!(
                    "stalled: held a worker past the {}ms watchdog budget",
                    stall.as_millis()
                ));
                job.cancel.store(true, Ordering::Relaxed);
            }
        }
        // Drop notifies watchdog_wake, so shutdown stays prompt
        let (g, _) = inner
            .watchdog_wake
            .wait_timeout(guard, tick)
            .expect("scheduler state poisoned");
        guard = g;
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (id, spec, cancel, job_deadline) = {
            let mut guard = inner.state.lock().expect("scheduler state poisoned");
            loop {
                let idle = |st: &mut State| !st.stopping && st.queue.is_empty();
                guard = inner
                    .work_ready
                    .wait_while(guard, idle)
                    .expect("scheduler state poisoned");
                let st = &mut *guard;
                let Some(&id) = st.queue.front().filter(|_| !st.stopping) else {
                    return;
                };
                let job = &st.jobs[&id];
                // deadline shed: a job whose client deadline lapsed while it
                // waited never dispatches — no worker time, no backend evals.
                // Memory sentinel: an arena ask over the watchdog budget is
                // condemned before it can take the process down.
                let verdict = if job.deadline.is_some_and(|d| Instant::now() >= d) {
                    Some(JobState::Shed)
                } else {
                    let ask = job.spec.estimated_arena_bytes();
                    let cap = inner.cfg.watchdog.max_arena_bytes.filter(|&cap| ask > cap);
                    cap.map(|cap| {
                        JobState::Quarantined(format!(
                            "arena ask of {ask} bytes exceeds the {cap}-byte watchdog budget"
                        ))
                    })
                };
                if let Some(state) = verdict {
                    let _ = inner.commit(st, id, Event::Finish(state, None));
                    inner.job_done.notify_all();
                    continue;
                }
                let _ = inner.commit(st, id, Event::Dispatch);
                let job = &st.jobs[&id];
                break (id, job.spec.clone(), Arc::clone(&job.cancel), job.deadline);
            }
        };

        let on_checkpoint = inner.journal.as_ref().map(|_| {
            let inner = Arc::clone(inner);
            Arc::new(move |nodes: usize| {
                if let Some(j) = &inner.journal {
                    let _ = j.append(&journal::checkpoint_event(id, nodes));
                }
            }) as Arc<dyn Fn(usize) + Send + Sync>
        });
        // the effective deadline is the tighter of the operator's per-job
        // timeout and the client's submitted deadline
        let timeout_deadline = inner.cfg.job_timeout.map(|t| Instant::now() + t);
        let deadline = match (timeout_deadline, job_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let ctl = ExecCtl {
            cancel: Some(Arc::clone(&cancel)),
            deadline,
            node_budget: None,
            checkpoint_every: inner.cfg.checkpoint_every,
            on_checkpoint,
            breakers: Arc::clone(&inner.breakers),
        };
        let store = inner.store.as_deref();
        let spec_for_run = spec.clone();
        // Confine each job to a fair share of the process thread cap: with
        // `workers` jobs running side by side, letting every job's nested
        // par_map* claim the full cap oversubscribes the host `workers`-fold
        // (measurably slower on the cold path, see
        // artifacts/serve_throughput.csv).
        let share = qaprox_linalg::parallel::max_threads() / inner.cfg.workers.max(1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            qaprox_linalg::parallel::with_thread_budget(share, || {
                // transient failures (injected faults, flaky store reads,
                // emulated backend drops, open circuit breakers) retry on
                // the deterministic backoff schedule before degrading
                inner.cfg.retry.run(qaprox_fault::is_transient, |_attempt| {
                    // Failpoint `serve.worker.pre_exec`: a worker failing to
                    // set a job up (transient → retried).
                    qaprox_fault::fail_point!("serve.worker.pre_exec", |_action| {
                        Err(qaprox_fault::injected_error("serve.worker.pre_exec"))
                    });
                    let result = run_spec(store, &spec_for_run, &ctl);
                    // Failpoint `serve.worker.complete` (panic action): a
                    // crash AFTER execution but BEFORE the state update and
                    // terminal journal record land — the classic
                    // recovery-window crash.
                    qaprox_fault::fail_point!("serve.worker.complete");
                    result
                })
            })
        }));

        // Resolve the outcome (including the degradation fallback, which
        // reads the store) BEFORE taking the state lock.
        let event = match outcome {
            Ok(Ok(ExecResult::Done(payload))) => Event::Finish(JobState::Done, Some(payload)),
            Ok(Ok(ExecResult::Suspended)) if cancel.load(Ordering::Relaxed) => {
                Event::Finish(JobState::Cancelled, None)
            }
            Ok(Ok(ExecResult::Suspended)) => Event::Finish(JobState::TimedOut, None),
            Ok(Err(e)) => {
                let fallback =
                    qaprox_fault::is_transient(&e).then(|| degraded_payload(store, &spec, &e));
                match fallback.flatten() {
                    Some(payload) => Event::Finish(JobState::Degraded, Some(payload)),
                    None => Event::Finish(JobState::Failed(e), None),
                }
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                let failed = format!("job panicked: {msg}");
                // an injected panic stands in for the process dying
                if qaprox_fault::is_injected_panic(msg) {
                    Event::Crash(failed)
                } else {
                    Event::Finish(JobState::Failed(failed), None)
                }
            }
        };

        let _ = inner.commit(
            &mut inner.state.lock().expect("scheduler state poisoned"),
            id,
            event,
        );
        inner.job_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SynthSpec;
    use qaprox_linalg::{Rng, SplitMix64};
    use std::path::PathBuf;

    fn tmp_dir(prefix: &str, tag: &str) -> PathBuf {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "qaprox-serve-{prefix}-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tmp_store(tag: &str) -> Arc<Store> {
        Arc::new(Store::open(tmp_dir("sched", tag)).unwrap())
    }

    fn tiny(seed: u64) -> JobSpec {
        JobSpec::Synth(SynthSpec {
            workload: "tfim".into(),
            qubits: 2,
            steps: 2,
            max_cnots: 3,
            max_nodes: 20,
            max_hs: 0.4,
            seed,
            deadline_ms: None,
        })
    }

    fn tiny_with_deadline(seed: u64, deadline_ms: u64) -> JobSpec {
        let JobSpec::Synth(mut s) = tiny(seed) else {
            unreachable!()
        };
        s.deadline_ms = Some(deadline_ms);
        JobSpec::Synth(s)
    }

    const WAIT: Duration = Duration::from_secs(120);

    #[test]
    fn jobs_complete_and_expose_results() {
        let sched = Scheduler::start(SchedulerConfig::default(), Some(tmp_store("basic"))).unwrap();
        let id = match sched.submit(tiny(0)).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        let view = sched.wait(id, WAIT).unwrap();
        assert_eq!(view.state, JobState::Done);
        let payload = view.payload().unwrap();
        assert_eq!(payload.get_str("kind"), Some("synth"));
        assert_eq!(payload.get_bool("cached"), Some(false));
        assert!(sched.recovery_report().is_none(), "no journal configured");
        sched.shutdown();
    }

    #[test]
    fn identical_inflight_submissions_dedup() {
        // one worker so the first job occupies it while we resubmit
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                ..Default::default()
            },
            Some(tmp_store("dedup")),
        )
        .unwrap();
        let a = sched.submit(tiny(0)).unwrap();
        let b = sched.submit(tiny(0)).unwrap();
        let id = match a {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        assert_eq!(b, Submitted::Deduped(id));
        let stats = sched.stats();
        assert_eq!(stats.get_u64("deduped"), Some(1));
        sched.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                queue_capacity: 2,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        // distinct seeds defeat dedup; capacity 2 → some must be rejected
        let outcomes: Vec<Submitted> = (0..12).map(|s| sched.submit(tiny(s)).unwrap()).collect();
        assert!(outcomes.contains(&Submitted::Rejected), "{outcomes:?}");
        assert!(sched.stats().get_u64("rejected").unwrap() > 0);
        sched.shutdown();
    }

    #[test]
    fn thirty_two_concurrent_submissions_settle_cleanly() {
        let sched = Arc::new(
            Scheduler::start(
                SchedulerConfig {
                    workers: 4,
                    queue_capacity: 16,
                    ..Default::default()
                },
                Some(tmp_store("load")),
            )
            .unwrap(),
        );
        let handles: Vec<_> = (0..32u64)
            .map(|i| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || sched.submit(tiny(i % 8)).unwrap())
            })
            .collect();
        let outcomes: Vec<Submitted> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let mut ids: Vec<u64> = outcomes
            .iter()
            .filter_map(|o| match o {
                Submitted::Accepted(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert!(!ids.is_empty());
        let accepted = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), accepted, "accepted ids must be unique");

        // every accepted job settles into a terminal state; none is lost
        for id in &ids {
            let view = sched
                .wait(*id, WAIT)
                .unwrap_or_else(|| panic!("job {id} lost"));
            assert!(
                matches!(view.state, JobState::Done),
                "job {id} ended {:?}",
                view.state
            );
        }
        // deduped references point at real jobs
        for o in &outcomes {
            if let Submitted::Deduped(id) = o {
                assert!(sched.wait(*id, WAIT).is_some());
            }
        }
        let stats = Arc::try_unwrap(sched)
            .map(|s| {
                let st = s.stats();
                s.shutdown();
                st
            })
            .unwrap_or_else(|_| panic!("scheduler still shared"));
        let done = stats.get_u64("completed").unwrap();
        assert_eq!(done as usize, accepted, "all accepted jobs completed");
    }

    #[test]
    fn cancel_stops_a_queued_job() {
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        // occupy the worker, then queue a second job and cancel it
        let _busy = sched.submit(tiny(100)).unwrap();
        let id = match sched.submit(tiny(101)).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        assert!(sched.cancel(id));
        let view = sched.wait(id, WAIT).unwrap();
        assert_eq!(view.state, JobState::Cancelled);
        assert!(!sched.cancel(id), "terminal jobs cannot re-cancel");
        assert!(!sched.cancel(9999), "unknown ids report false");
        sched.shutdown();
    }

    #[test]
    fn panicking_job_is_isolated_and_reported() {
        let sched = Scheduler::start(SchedulerConfig::default(), None).unwrap();
        let boom = JobSpec::Synth(SynthSpec {
            workload: "__panic".into(),
            qubits: 2,
            ..Default::default()
        });
        // validation runs the reference builder, which panics for __panic —
        // submit must therefore bypass validation to reach the worker; use
        // the panic-free path: queue it directly through the submit
        // transition.
        let id = {
            let mut st = sched.inner.state.lock().unwrap();
            let id = st.last_id + 1;
            let job = Job::queued(boom, "boom".into(), 0);
            st.transition(id, Event::Submit(Box::new(job)));
            drop(st);
            sched.inner.work_ready.notify_one();
            id
        };
        let view = sched.wait(id, WAIT).unwrap();
        match view.state {
            JobState::Failed(msg) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
        // the pool survives: a normal job still completes afterwards
        let ok = match sched.submit(tiny(7)).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        assert_eq!(sched.wait(ok, WAIT).unwrap().state, JobState::Done);
        sched.shutdown();
    }

    #[test]
    fn tight_timeout_suspends_the_job() {
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                job_timeout: Some(Duration::from_millis(0)),
                checkpoint_every: 1,
                ..Default::default()
            },
            Some(tmp_store("timeout")),
        )
        .unwrap();
        let id = match sched.submit(tiny(0)).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        let view = sched.wait(id, WAIT).unwrap();
        assert_eq!(view.state, JobState::TimedOut);
        sched.shutdown();
    }

    #[test]
    fn journaled_scheduler_restores_finished_jobs_across_restart() {
        let journal_dir = tmp_dir("journal", "restore");
        let store = tmp_store("journal-restore");
        let cfg = SchedulerConfig {
            workers: 1,
            journal_dir: Some(journal_dir.clone()),
            ..Default::default()
        };
        let (id, payload) = {
            let sched = Scheduler::start(cfg.clone(), Some(Arc::clone(&store))).unwrap();
            let id = match sched.submit(tiny(0)).unwrap() {
                Submitted::Accepted(id) => id,
                other => panic!("{other:?}"),
            };
            let view = sched.wait(id, WAIT).unwrap();
            assert_eq!(view.state, JobState::Done);
            sched.shutdown();
            (id, view.result.unwrap())
        };

        // restart on the same journal: the finished job is queryable again
        let sched = Scheduler::start(cfg, Some(store)).unwrap();
        let report = sched.recovery_report().expect("journal configured");
        assert_eq!(report.get_u64("jobs_seen"), Some(1));
        assert_eq!(report.get_u64("restored_terminal"), Some(1));
        assert_eq!(report.get_u64("skipped_lines"), Some(0));
        let view = sched.job(id).expect("job restored");
        assert_eq!(view.state, JobState::Done);
        assert_eq!(
            view.result.as_deref(),
            Some(&*payload),
            "restored payload is bit-identical"
        );
        // ids continue past the recovered ones
        match sched.submit(tiny(1)).unwrap() {
            Submitted::Accepted(new_id) => assert!(new_id > id),
            other => panic!("{other:?}"),
        }
        sched.shutdown();
    }

    #[test]
    fn expired_deadline_jobs_shed_before_dispatch() {
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                ..Default::default()
            },
            Some(tmp_store("shed")),
        )
        .unwrap();
        // occupy the worker so the deadlined job must wait in the queue;
        // a 0 ms TTL is expired the moment it could dispatch
        let _busy = sched.submit(tiny(100)).unwrap();
        let id = match sched.submit(tiny_with_deadline(101, 0)).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        let view = sched.wait(id, WAIT).unwrap();
        assert_eq!(view.state, JobState::Shed);
        assert!(view.result.is_none(), "shed jobs produce nothing");
        let stats = sched.stats();
        assert_eq!(stats.get_u64("shed"), Some(1));
        sched.shutdown();
    }

    #[test]
    fn admission_prices_jobs_against_class_budgets() {
        // a zero class budget turns every synth job away ...
        let sched = Scheduler::start(
            SchedulerConfig {
                admission: AdmissionConfig {
                    max_synth_cost: Some(0),
                    ..Default::default()
                },
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(
            sched.submit(tiny(0)).unwrap(),
            Submitted::Overloaded {
                retry_after_ms: 250
            }
        );
        assert_eq!(sched.stats().get_u64("overloaded"), Some(1));
        assert_eq!(sched.stats().get_u64("submitted"), Some(0));
        sched.shutdown();

        // ... while a generous one admits the same job
        let sched = Scheduler::start(
            SchedulerConfig {
                admission: AdmissionConfig {
                    max_synth_cost: Some(u64::MAX),
                    ..Default::default()
                },
                ..Default::default()
            },
            Some(tmp_store("admit")),
        )
        .unwrap();
        let id = match sched.submit(tiny(0)).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        assert_eq!(sched.wait(id, WAIT).unwrap().state, JobState::Done);
        sched.shutdown();
    }

    #[test]
    fn queued_cost_budget_applies_backpressure() {
        let sched = Scheduler::start(
            SchedulerConfig {
                admission: AdmissionConfig {
                    max_queued_cost: Some(0),
                    retry_after_ms: 7,
                    ..Default::default()
                },
                ..Default::default()
            },
            None,
        )
        .unwrap();
        // every synth job has positive predicted cost, so a zero queue
        // budget rejects the very first submission with the configured hint
        assert_eq!(
            sched.submit(tiny(0)).unwrap(),
            Submitted::Overloaded { retry_after_ms: 7 }
        );
        sched.shutdown();
    }

    #[test]
    fn oversized_arena_asks_quarantine_at_dispatch() {
        let sched = Scheduler::start(
            SchedulerConfig {
                watchdog: WatchdogConfig {
                    max_arena_bytes: Some(0),
                    ..Default::default()
                },
                ..Default::default()
            },
            Some(tmp_store("arena")),
        )
        .unwrap();
        let id = match sched.submit(tiny(0)).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        let view = sched.wait(id, WAIT).unwrap();
        match view.state {
            JobState::Quarantined(reason) => assert!(reason.contains("arena"), "{reason}"),
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(sched.stats().get_u64("quarantined"), Some(1));
        sched.shutdown();
    }

    #[test]
    fn quarantined_and_shed_jobs_restore_without_reenqueue() {
        let journal_dir = tmp_dir("journal", "quarantine");
        // hand-write a journal: job 1 was quarantined, job 2 shed, job 3
        // crashed mid-run (submit + start, no terminal record)
        {
            let j = Journal::open(&journal_dir).unwrap();
            j.append(&journal::submit_event(1, &tiny(3))).unwrap();
            j.append(&journal::event("start", 1)).unwrap();
            j.append(&journal::terminal_event(
                1,
                "quarantined",
                None,
                Some("stalled: test verdict"),
            ))
            .unwrap();
            j.append(&journal::submit_event(2, &tiny(4))).unwrap();
            j.append(&journal::terminal_event(2, "shed", None, None))
                .unwrap();
            j.append(&journal::submit_event(3, &tiny(5))).unwrap();
            j.append(&journal::event("start", 3)).unwrap();
        }
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                journal_dir: Some(journal_dir),
                ..Default::default()
            },
            Some(tmp_store("journal-quarantine")),
        )
        .unwrap();
        let report = sched.recovery_report().unwrap();
        assert_eq!(report.get_u64("restored_terminal"), Some(2));
        let reenqueued = report.get("reenqueued").and_then(Json::as_arr).unwrap();
        assert_eq!(reenqueued.len(), 1, "only the crashed job re-runs");
        assert_eq!(reenqueued[0].get_u64("id"), Some(3));

        // the quarantined job is queryable with its verdict, and stays put
        let view = sched.job(1).expect("quarantined job restored");
        assert_eq!(
            view.state,
            JobState::Quarantined("stalled: test verdict".into())
        );
        assert_eq!(sched.job(2).unwrap().state, JobState::Shed);
        // the re-enqueued job completes under its original id
        assert_eq!(sched.wait(3, WAIT).unwrap().state, JobState::Done);
        // the poison job was never re-run: still quarantined afterwards
        assert_eq!(
            sched.job(1).unwrap().state,
            JobState::Quarantined("stalled: test verdict".into())
        );
        // a fresh identical submission is NOT deduped onto the quarantined
        // job — terminal jobs hold no inflight slot
        match sched.submit(tiny(3)).unwrap() {
            Submitted::Accepted(id) => assert!(id > 3),
            other => panic!("{other:?}"),
        }
        sched.shutdown();
    }

    /// A job table as replay must restore it: state and payload text by id.
    fn table(st: &State) -> BTreeMap<u64, (JobState, Option<String>)> {
        let row = |j: &Job| (j.state.clone(), j.result.as_deref().map(str::to_string));
        st.jobs.iter().map(|(&id, j)| (id, row(j))).collect()
    }

    /// One random step of live execution over a few jobs: a submission, a
    /// dispatch, a queued cancel, a deadline shed, an arena quarantine, any
    /// running outcome (sometimes after a watchdog verdict) or the shutdown
    /// drain. Returns what the step journaled and whether the journaling
    /// rules say it should journal, or None when the drawn step does not
    /// apply.
    fn live_step(live: &mut State, rng: &mut SplitMix64) -> Option<(Option<Json>, bool)> {
        let pick = |ids: &[u64], rng: &mut SplitMix64| ids[rng.gen_range(0..ids.len())];
        let queued: Vec<u64> = live.queue.iter().copied().collect();
        let mut running: Vec<u64> = live.jobs.keys().copied().collect();
        running.retain(|id| live.jobs[id].state == JobState::Running);
        running.sort_unstable();
        let payload = |rng: &mut SplitMix64| {
            let draw = rng.gen_range(0..1000u64) as f64;
            Some(Json::obj(vec![("draw", Json::Num(draw))]))
        };
        let (id, event) = match rng.gen_range(0..40u64) {
            0..=9 if !live.stopping && live.jobs.len() < 8 => {
                let id = live.last_id + 1;
                let spec = tiny(id);
                let job = Job::queued(spec.clone(), spec.dedup_fingerprint(), 0);
                (id, Event::Submit(Box::new(job)))
            }
            10..=17 if !queued.is_empty() => (queued[0], Event::Dispatch),
            18..=20 if !queued.is_empty() => {
                let cancelled = Event::Finish(JobState::Cancelled, None);
                (pick(&queued, rng), cancelled)
            }
            21 | 22 if !queued.is_empty() => (queued[0], Event::Finish(JobState::Shed, None)),
            23 | 24 if !queued.is_empty() => {
                let verdict = JobState::Quarantined(format!("arena ask {}", queued[0]));
                (queued[0], Event::Finish(verdict, None))
            }
            25..=38 if !running.is_empty() => {
                let id = pick(&running, rng);
                if rng.gen_range(0..4u64) == 0 {
                    let job = live.jobs.get_mut(&id).unwrap();
                    job.quarantine_reason = Some(format!("stalled {id}"));
                }
                let event = match rng.gen_range(0..6u64) {
                    0 => Event::Finish(JobState::Done, payload(rng)),
                    1 => Event::Finish(JobState::Failed(format!("error {id}")), None),
                    2 => Event::Finish(JobState::Cancelled, None),
                    3 => Event::Finish(JobState::TimedOut, None),
                    4 => Event::Finish(JobState::Degraded, payload(rng)),
                    _ => Event::Crash(format!("job panicked: injected {id}")),
                };
                (id, event)
            }
            39 if !live.stopping => {
                live.drain();
                return Some((None, false));
            }
            _ => return None,
        };
        // an injected crash journals nothing, nor does any terminal
        // transition once shutdown began
        let journaled = match event {
            Event::Finish(..) => !live.stopping,
            Event::Crash(_) => false,
            _ => true,
        };
        Some((live.transition(id, event), journaled))
    }

    /// Replay after a crash matches an uninterrupted run. Seeded random
    /// sequences run through the live transitions; each is cut at a random
    /// journal record, and replaying that prefix must restore the live job
    /// table as it stood at the cut, projected onto what was journaled: a
    /// job whose last record is terminal comes back exactly as it ended,
    /// and every other journaled job comes back queued, in id order. The
    /// accounting identity holds after every step on both sides.
    #[test]
    fn replay_of_any_journal_prefix_matches_live_execution() {
        for seq in 0..256u64 {
            let mut rng = SplitMix64::seed_from_u64(0x7AB1_E000 + seq);
            let mut live = State::default();
            let mut records: Vec<Json> = Vec::new();
            // snapshots[k]: the live table just after the k-th record
            let mut snapshots = vec![table(&live)];
            for _ in 0..rng.gen_range(10..80u64) {
                let Some((record, journaled)) = live_step(&mut live, &mut rng) else {
                    continue;
                };
                assert!(live.balances(), "seq {seq}: live accounting");
                assert_eq!(record.is_some(), journaled, "seq {seq}: journaling rules");
                if let Some(record) = record {
                    records.push(record);
                    snapshots.push(table(&live));
                }
            }

            let cut = rng.gen_range(0..records.len() as u64 + 1) as usize;
            let log = ReplayedJournal {
                records: records[..cut].to_vec(),
                skipped_lines: 0,
            };
            let (replayed, report) =
                State::replay(Path::new("journal"), &log, &AdmissionConfig::default());
            assert!(replayed.balances(), "seq {seq}: replayed accounting");

            let last_event = |id: u64| {
                let mut mine = log.records.iter().rev();
                mine.find(|r| r.get_u64("job") == Some(id))?
                    .get_str("event")
            };
            let expected: BTreeMap<u64, (JobState, Option<String>)> = snapshots[cut]
                .iter()
                .map(|(&id, live_row)| match last_event(id) {
                    Some("submit" | "start") => (id, (JobState::Queued, None)),
                    Some(_) => (id, live_row.clone()),
                    None => panic!("seq {seq}: job {id} is live but was never journaled"),
                })
                .collect();
            assert_eq!(table(&replayed), expected, "seq {seq} cut at {cut}");
            let queued: Vec<u64> = expected
                .iter()
                .filter(|(_, (state, _))| *state == JobState::Queued)
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(Vec::from(replayed.queue.clone()), queued, "seq {seq}");
            assert_eq!(replayed.counters.submitted, queued.len() as u64);
            let reenqueued = report.get("reenqueued").and_then(Json::as_arr).unwrap();
            assert_eq!(reenqueued.len(), queued.len(), "seq {seq}");
            let last_id = expected.keys().last().copied().unwrap_or(0);
            assert_eq!(replayed.last_id, last_id, "seq {seq}");
        }
    }

    #[test]
    fn unfinished_journal_entries_reenqueue_and_complete() {
        let journal_dir = tmp_dir("journal", "reenqueue");
        // hand-write a journal whose job never reached a terminal state
        // (the classic crash: submit + start, then nothing)
        {
            let j = Journal::open(&journal_dir).unwrap();
            j.append(&journal::submit_event(1, &tiny(3))).unwrap();
            j.append(&journal::event("start", 1)).unwrap();
        }
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                journal_dir: Some(journal_dir),
                ..Default::default()
            },
            Some(tmp_store("journal-reenqueue")),
        )
        .unwrap();
        let report = sched.recovery_report().unwrap();
        let reenqueued = report.get("reenqueued").and_then(Json::as_arr).unwrap();
        assert_eq!(reenqueued.len(), 1);
        assert_eq!(reenqueued[0].get_u64("id"), Some(1));
        // the lost job runs to completion under its original id
        let view = sched.wait(1, WAIT).unwrap();
        assert_eq!(view.state, JobState::Done);
        assert_eq!(view.payload().unwrap().get_str("kind"), Some("synth"));
        sched.shutdown();
    }
}
