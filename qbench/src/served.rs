//! `serve_wide_tfim`: the `qaprox serve` workload.
//!
//! One closed-loop client and one worker against an in-process server on
//! `127.0.0.1:0` with a fresh store and journal. Three jobs in four are 16q
//! TFIM trajectory `run` jobs on toronto, each with its own job seed, so
//! each misses the store, runs the shot loop and files one result. The
//! fourth resubmits an earlier job exactly and is served from the store.
//! Job completion is timed with the benchmark's own 1 ms `Client::status`
//! poll; the first poll that no longer reads `queued` splits the wait into
//! queue wait and execution.

use crate::replay;
use crate::stats::{min_samples_for, Stream};
use crate::trace::Tracer;
use crate::workload::{Counters, Opts, Outcome, Pass};
use qaprox::prelude::*;
use qaprox_serve::{Client, JobSpec, RunSpec, SchedulerConfig, Server, ServerConfig, SynthSpec};
use qaprox_store::json::Json;
use qaprox_store::Store;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_millis(1);
const WIDE_QUBITS: usize = 16;
const WIDE_STEPS: usize = 4;
const WIDE_SHOTS: usize = 16;
/// Every fourth job is an exact resubmission of an earlier one.
const RESUBMIT_EVERY: usize = 4;
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
pub const TAIL_P: f64 = 0.7;

/// One served job as the client saw it.
#[derive(Debug, Clone)]
pub struct JobRec {
    pub spec: RunSpec,
    /// Index of the job a resubmission repeats.
    pub base: Option<usize>,
    pub ms: f64,
    pub state: String,
    pub payload: Option<Json>,
}

fn wide_spec(seed: u64, j: usize) -> RunSpec {
    RunSpec {
        synth: SynthSpec {
            workload: "tfim".into(),
            qubits: WIDE_QUBITS,
            steps: WIDE_STEPS,
            ..Default::default()
        },
        device: "toronto".into(),
        backend: Some("trajectory".into()),
        shots: Some(WIDE_SHOTS),
        job_seed: Stream::new(seed, 0x31DE_0000 + j as u64).wire_u64(),
        ..Default::default()
    }
}

/// The `j`-th job, fixed by the seed alone: its spec and, for a
/// resubmission, the earlier fresh job it repeats (picked by the seed).
fn job(seed: u64, j: usize) -> (RunSpec, Option<usize>) {
    if j % RESUBMIT_EVERY != RESUBMIT_EVERY - 1 {
        return (wide_spec(seed, j), None);
    }
    let fresh_before = j - j / RESUBMIT_EVERY;
    let k = Stream::new(seed, 0x4A11_0000 + j as u64).below(fresh_before);
    let base = k + k / (RESUBMIT_EVERY - 1);
    (wide_spec(seed, base), Some(base))
}

/// A running in-process server over its own store and journal.
struct Service {
    /// The process's thread count before the server started.
    threads_before: usize,
    dir: PathBuf,
    store: Arc<Store>,
    server: Server,
}

impl Service {
    fn start(dir: &Path) -> Result<Service, String> {
        let threads_before = thread_count();
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let store = Arc::new(Store::open(dir.join("store")).map_err(|e| e.to_string())?);
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig {
                workers: 1,
                journal_dir: Some(dir.join("journal")),
                ..Default::default()
            },
        };
        let server = Server::start(cfg, Some(store.clone())).map_err(|e| e.to_string())?;
        Ok(Service {
            threads_before,
            dir: dir.to_path_buf(),
            store,
            server,
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.server.local_addr().to_string())
    }

    /// Shuts the server down and waits (up to 5 s) for its worker and
    /// connection threads to exit, which they do on their own once clients
    /// disconnect. The next set-up then starts in a quiet process, which
    /// keeps peak memory from depending on teardown timing.
    fn stop(self) {
        self.server.shutdown();
        drop(self.store);
        let deadline = Instant::now() + Duration::from_secs(5);
        while thread_count() > self.threads_before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Threads in this process, from `/proc/self/status`.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Submits `spec`, polls until it leaves `queued`/`running`, then fetches
/// the payload. Returns the final state and the payload.
fn drive(
    client: &mut Client,
    spec: &RunSpec,
    tr: &Tracer,
    jid: u64,
    parent: Option<usize>,
) -> Result<(String, Option<Json>), String> {
    let job = JobSpec::Run(spec.clone());
    let (id, _, _) = tr
        .span("serve.submit", jid, parent, |_| client.submit(&job))
        .map_err(|e| e.to_string())?;
    let submitted = tr.now();
    let deadline = Instant::now() + JOB_TIMEOUT;
    let mut left_queue = None;
    let state = loop {
        let state = client.status(id)?;
        if state != "queued" && left_queue.is_none() {
            left_queue = Some(tr.now());
        }
        if state != "queued" && state != "running" {
            break state;
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} still {state} after {JOB_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL);
    };
    let finished = tr.now();
    let left_queue = left_queue.unwrap_or(finished);
    tr.record("serve.queue_wait", jid, parent, submitted, left_queue);
    tr.record("serve.exec", jid, parent, left_queue, finished);
    let payload = if state == "done" || state == "degraded" {
        Some(tr.span("serve.result", jid, parent, |_| client.result(id))?)
    } else {
        None
    };
    Ok((state, payload))
}

fn rows_of(payload: &Option<Json>) -> usize {
    payload
        .as_ref()
        .and_then(|p| p.get("rows"))
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len)
}

/// One closed-loop client against `svc`: runs until time is up (and the
/// tail-percentile sample minimum is reached), or exactly `count` jobs.
/// The pass and job frames are `client.*` spans: they time the wire, and
/// only the replay's `bench.*` frames count toward layer coverage.
fn served_pass(
    svc: &Service,
    opts: &Opts,
    tr: &Tracer,
    count: Option<usize>,
) -> Result<(Pass, Vec<JobRec>), String> {
    let mut client = svc.connect()?;
    let min_jobs = opts.min_jobs(min_samples_for(TAIL_P));
    let mut recs: Vec<JobRec> = Vec::new();
    let start = Instant::now();
    let root = tr.open("client.pass", 0, None);
    for j in 0.. {
        let done = match count {
            Some(n) => j >= n,
            None => start.elapsed().as_secs_f64() >= opts.window() && j >= min_jobs,
        };
        if done {
            break;
        }
        let (spec, base) = job(opts.seed, j);
        let t = Instant::now();
        let (state, payload) = tr.span("client.job", j as u64, root, |jp| {
            drive(&mut client, &spec, tr, j as u64, jp)
        })?;
        recs.push(JobRec {
            spec,
            base,
            ms: t.elapsed().as_secs_f64() * 1e3,
            state,
            payload,
        });
    }
    tr.close(root);
    let mut p = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        ..Default::default()
    };
    for r in &recs {
        p.attempted += 1;
        if r.state != "done" {
            p.failed += 1;
        }
        p.rows += rows_of(&r.payload);
        p.job_ms.push(r.ms);
    }
    Ok((p, recs))
}

fn rows_text(payload: &Option<Json>) -> String {
    payload
        .as_ref()
        .and_then(|p| p.get("rows"))
        .map_or_else(String::new, Json::to_string)
}

/// The correctness gate over one served pass.
fn check(recs: &[JobRec], out: &mut Outcome) {
    for (j, r) in recs.iter().enumerate() {
        let who = || format!("job {j}");
        if r.state != "done" {
            out.failures.push(format!("{} ended {}", who(), r.state));
            continue;
        }
        let Some(p) = &r.payload else {
            out.failures.push(format!("{} has no payload", who()));
            continue;
        };
        out.check(p.get_bool("degraded") != Some(true), || {
            format!("{} degraded", who())
        });
        out.check(p.get("health").is_none(), || {
            format!(
                "{} reports aborted shots: {}",
                who(),
                p.get("health").map(Json::to_string).unwrap_or_default()
            )
        });
        out.check(rows_of(&r.payload) == WIDE_STEPS - 1, || {
            format!("{} row count", who())
        });
        out.check(p.get_bool("cached") == Some(r.base.is_some()), || {
            format!(
                "{} was {} the store",
                who(),
                if r.base.is_some() {
                    "missed in"
                } else {
                    "served from"
                }
            )
        });
        if let Some(base) = r.base {
            out.check(
                rows_text(&r.payload) == rows_text(&recs[base].payload),
                || {
                    format!(
                        "{} rows differ from those of job {base}, which it resubmits",
                        who()
                    )
                },
            );
        }
    }
}

/// Wide rows must equal an in-process `TrajectoryBackend::probabilities_batch`
/// over the same ranked candidates, bit for bit.
fn check_in_process(rec: &JobRec, out: &mut Outcome) -> Result<(), String> {
    let spec = &rec.spec;
    let reference = spec.reference_circuit()?;
    let cal = spec.calibration()?;
    let candidates = spec.synth.wide_population_circuits()?;
    let ranked = qaprox_synth::rank_by_predicted(&candidates, &cal);
    let batch: Vec<Circuit> = ranked.iter().map(|(ap, _)| ap.circuit.clone()).collect();
    let Backend::Trajectory(tb) = spec.backend()? else {
        return Err("wide spec did not build a trajectory backend".into());
    };
    let ideal = qaprox_sim::statevector::probabilities(&reference);
    let rows = tb.probabilities_batch(&batch)?;
    let ref_score =
        qaprox_metrics::total_variation(&tb.probabilities(&reference, spec.job_seed), &ideal);
    let p = rec.payload.as_ref().ok_or("no payload")?;
    let served: Vec<f64> = p
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|row| row.as_arr().and_then(|c| c.get(3)).and_then(Json::as_f64))
        .collect();
    let mine: Vec<f64> = rows
        .iter()
        .map(|r| qaprox_metrics::total_variation(r, &ideal))
        .collect();
    let same = served.len() == mine.len()
        && served
            .iter()
            .zip(&mine)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && p.get_f64("ref_score").map(f64::to_bits) == Some(ref_score.to_bits());
    out.check(same, || {
        format!("wide job rows {served:?} differ from in-process TrajectoryBackend rows {mine:?}")
    });
    Ok(())
}

/// Server start, store open and one warm-up job the size of a measured
/// one. The warm-up job's store read and write fsync the index, whose
/// latency drifts from run to run; a full-size job keeps that share of
/// set-up time small.
fn set_up(opts: &Opts, dir: &Path, k: u64) -> Result<Service, String> {
    let svc = Service::start(dir)?;
    let mut client = svc.connect()?;
    let warm = wide_spec(opts.seed ^ 0xFACE, k as usize);
    let (state, _) = drive(&mut client, &warm, &Tracer::new(false), 0, None)?;
    if state != "done" {
        return Err(format!("warm-up job ended {state}"));
    }
    Ok(svc)
}

pub fn run(opts: &Opts, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome {
        tail_p: TAIL_P,
        ..Default::default()
    };
    let mut svc: Option<Service> = None;
    for k in 0..3 {
        if let Some(old) = svc.take() {
            old.stop();
        }
        let t = Instant::now();
        svc = Some(set_up(opts, &opts.tmp.join(format!("setup{k}")), k)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let svc = svc.expect("set-up ran");
    let (untraced, recs) = served_pass(&svc, opts, &Tracer::new(false), None)?;
    out.store = Some(svc.store.stats());
    svc.stop();
    check(&recs, &mut out);
    if recs[0].state == "done" {
        check_in_process(&recs[0], &mut out)?;
    }
    let fresh = recs.iter().filter(|r| r.base.is_none()).count();
    let shots = (WIDE_STEPS * WIDE_SHOTS) as f64;
    out.shots_per_s = Some(fresh as f64 * shots / untraced.wall_s);
    out.notes.push(format!(
        "jobs: fresh={fresh} resubmitted={}",
        recs.len() - fresh
    ));

    if opts.trace {
        let svc = set_up(opts, &opts.tmp.join("traced"), 3)?;
        let (traced, trecs) = served_pass(&svc, opts, tr, Some(untraced.attempted))?;
        out.store = Some(svc.store.stats());
        svc.stop();
        check(&trecs, &mut out);
        let mut counters = Counters::default();
        replay::replay_all(&trecs, opts, tr, &mut counters, &mut out)?;
        out.traced = Some(traced);
        out.counters = counters;
        out.spans = tr.spans();
    }
    out.untraced = untraced;
    Ok(out)
}
