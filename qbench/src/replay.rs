//! Server-side layer spans for `serve_wide_tfim`.
//!
//! The served pass only sees the wire. To split a job's execution into
//! layers, the traced run replays every served job, in submission order,
//! through the public calls `exec::obtain_run` and `exec::run_spec` make —
//! same calls, same order — plus the scheduler's journal appends, against a
//! fresh store and journal, with a span around each call. The replay's
//! payloads must equal the served ones, which shows it did the same work.
//!
//! Two deliberate differences: the replay compiles each circuit once more
//! on its own (`sim.compile`) so compile time can be separated from the shot
//! loop, and backend calls skip the circuit breaker, which passes calls
//! straight through while closed.

use crate::served::JobRec;
use crate::trace::Tracer;
use crate::workload::{Counters, Opts, Outcome};
use qaprox::prelude::*;
use qaprox_serve::journal::{self, Journal};
use qaprox_serve::{JobSpec, RunSpec};
use qaprox_sim::{FusedProgram, HealthReport};
use qaprox_store::json::{parse, Json};
use qaprox_store::key::Key;
use qaprox_store::{ResultArtifact, ResultRow, Store};
use std::cell::RefCell;

struct Ctx<'a> {
    store: &'a Store,
    journal: &'a Journal,
    tr: &'a Tracer,
    c: RefCell<&'a mut Counters>,
    jid: u64,
}

impl Ctx<'_> {
    fn span<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        self.tr.span(name, self.jid, parent, |_| f())
    }

    fn append(&self, record: &Json, parent: Option<usize>) -> Result<(), String> {
        self.c.borrow_mut().journal_records += 1;
        self.span("serve.journal", parent, || self.journal.append(record))
    }
}

struct Obtained {
    key: Key,
    result: ResultArtifact,
    cached: bool,
    health: Option<Json>,
}

fn store_err(e: qaprox_store::StoreError) -> String {
    e.to_string()
}

/// Mirrors `exec::obtain_run` for a wide run spec without ε, the only
/// kind `serve_wide_tfim` submits; the payload comparison catches any other.
fn obtain_run(cx: &Ctx, spec: &RunSpec, p: Option<usize>) -> Result<Obtained, String> {
    let key = cx.span("serve.key", p, || spec.result_key())?;
    if let Some(result) = cx
        .span("store.get", p, || cx.store.get_result(&key))
        .map_err(store_err)?
    {
        return Ok(Obtained {
            key,
            result,
            cached: true,
            health: None,
        });
    }
    obtain_run_wide(cx, spec, key, p)
}

/// Mirrors the private `exec::obtain_run_wide`.
fn obtain_run_wide(
    cx: &Ctx,
    spec: &RunSpec,
    key: Key,
    p: Option<usize>,
) -> Result<Obtained, String> {
    let (reference, backend, cal, candidates) = cx.span("serve.spec", p, || {
        Ok::<_, String>((
            spec.reference_circuit()?,
            spec.backend()?,
            spec.calibration()?,
            spec.synth.wide_population_circuits()?,
        ))
    })?;
    let ranked = cx.span("verify.analyze", p, || {
        qaprox_synth::rank_by_predicted(&candidates, &cal)
    });
    let batch: Vec<Circuit> = ranked.iter().map(|(ap, _)| ap.circuit.clone()).collect();
    let Backend::Trajectory(tb) = &backend else {
        return Err("wide spec did not build a trajectory backend".into());
    };
    for circuit in std::iter::once(&reference).chain(&batch) {
        let program = cx.span("sim.compile", p, || {
            FusedProgram::compile(circuit, tb.model())
        });
        let mut c = cx.c.borrow_mut();
        c.compiled_programs += 1;
        c.source_gates += circuit.len();
        c.fused_ops += program.len();
        c.bytes_per_shot_sum += program.len() as f64 * (1u64 << program.num_qubits()) as f64 * 16.0;
    }
    let ideal = cx.span("sim.statevector", p, || {
        qaprox_sim::statevector::probabilities(&reference)
    });
    let ref_probs = cx.span("sim.trajectory", p, || {
        backend.probabilities(&reference, spec.job_seed)
    });
    let (probs, healths) = cx.span("sim.trajectory", p, || {
        backend.probabilities_batch_health(&batch)
    })?;
    {
        let mut c = cx.c.borrow_mut();
        c.trajectory_shots += (tb.shots() * (1 + batch.len())) as u64;
        c.aborted_shots += healths.iter().map(|h| h.aborted_shots).sum::<u64>();
    }
    let ref_score = qaprox_metrics::total_variation(&ref_probs, &ideal);
    let rows: Vec<ResultRow> = ranked
        .iter()
        .zip(probs.iter().zip(&healths))
        .map(|((ap, predicted), (probs, h))| ResultRow {
            cnots: ap.cnots,
            hs_distance: ap.hs_distance,
            predicted: *predicted,
            score: if degraded_candidate(h) {
                1.0
            } else {
                qaprox_metrics::total_variation(probs, &ideal)
            },
            certified: false,
        })
        .collect();
    let result = ResultArtifact {
        ref_score,
        rows,
        reference_qasm: None,
    };
    cx.span("store.put", p, || {
        cx.store.put_result_tagged(&key, &result, None)
    })
    .map_err(store_err)?;
    Ok(Obtained {
        key,
        result,
        cached: false,
        health: health_summary(&healths),
    })
}

fn degraded_candidate(h: &HealthReport) -> bool {
    h.clean_shots == 0 && h.aborted_shots > 0
}

/// Mirrors the private `exec::health_summary`.
fn health_summary(healths: &[HealthReport]) -> Option<Json> {
    let mut total = HealthReport::default();
    for h in healths {
        total.merge(h);
    }
    if total.aborted_shots == 0 && !total.cancelled {
        return None;
    }
    let degraded = healths.iter().filter(|h| degraded_candidate(h)).count();
    Some(Json::obj(vec![
        ("clean_shots", Json::Num(total.clean_shots as f64)),
        ("aborted_shots", Json::Num(total.aborted_shots as f64)),
        ("nan_events", Json::Num(total.nan_events as f64)),
        (
            "norm_drift_events",
            Json::Num(total.norm_drift_events as f64),
        ),
        ("degraded_candidates", Json::Num(degraded as f64)),
    ]))
}

/// Mirrors the `run` arm of `exec::run_spec`: the response payload.
fn payload(cx: &Ctx, spec: &RunSpec, out: &Obtained, p: Option<usize>) -> Result<Json, String> {
    let result = &out.result;
    let rows: Vec<Json> = result
        .rows
        .iter()
        .map(|row| {
            let mut cells = vec![
                Json::Num(row.cnots as f64),
                Json::Num(row.hs_distance),
                Json::Num(row.predicted),
                Json::Num(row.score),
            ];
            if row.certified {
                cells.push(Json::Bool(true));
            }
            Json::Arr(cells)
        })
        .collect();
    let wins = result
        .rows
        .iter()
        .filter(|row| row.score < result.ref_score)
        .count();
    let report = cx.span("verify.analyze", p, || {
        Ok::<_, String>(qaprox_verify::analyze(
            &spec.reference_circuit()?,
            &spec.calibration()?,
            &Default::default(),
        ))
    })?;
    let analysis = cx
        .span("serve.payload", p, || parse(&report.to_json()))
        .map_err(|e| e.to_string())?;
    // a wide run never reads a stored population and is never certified
    let mut fields = vec![
        ("kind".to_string(), Json::Str("run".into())),
        ("key".to_string(), Json::Str(out.key.hex())),
        ("cached".to_string(), Json::Bool(out.cached)),
        ("population_cached".to_string(), Json::Bool(false)),
        ("certified".to_string(), Json::Bool(false)),
    ];
    if let Some(health) = &out.health {
        fields.push(("health".to_string(), health.clone()));
    }
    fields.extend([
        ("ref_score".to_string(), Json::Num(result.ref_score)),
        ("wins".to_string(), Json::Num(wins as f64)),
        ("analysis".to_string(), analysis),
        ("rows".to_string(), Json::Arr(rows)),
    ]);
    Ok(Json::Obj(fields))
}

/// One job through the scheduler's journal records and the exec calls.
fn replay_job(cx: &Ctx, spec: &RunSpec, id: u64, p: Option<usize>) -> Result<Json, String> {
    let job = JobSpec::Run(spec.clone());
    cx.span("serve.validate", p, || job.validate())?;
    cx.append(&journal::submit_event(id, &job), p)?;
    cx.append(&journal::event("start", id), p)?;
    let out = obtain_run(cx, spec, p)?;
    let payload = payload(cx, spec, &out, p)?;
    cx.append(
        &journal::terminal_event(id, "done", Some(&payload), None),
        p,
    )?;
    if cx.journal.needs_rotation() {
        cx.span("serve.journal", p, || cx.journal.rotate(&[]))?;
    }
    Ok(payload)
}

/// Replays every served job in submission order and checks the payloads.
pub fn replay_all(
    jobs: &[JobRec],
    opts: &Opts,
    tr: &Tracer,
    counters: &mut Counters,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = opts.tmp.join("replay");
    let store = Store::open(dir.join("store")).map_err(store_err)?;
    let journal = Journal::open(dir.join("journal"))?;
    let root = tr.open("bench.pass", 0, None);
    for (k, rec) in jobs.iter().enumerate() {
        let cx = Ctx {
            store: &store,
            journal: &journal,
            tr,
            c: RefCell::new(&mut *counters),
            jid: k as u64,
        };
        let replayed = tr.span("bench.job", k as u64, root, |jp| {
            replay_job(&cx, &rec.spec, k as u64 + 1, jp)
        })?;
        let served = rec
            .payload
            .as_ref()
            .map(Json::to_string)
            .unwrap_or_default();
        out.check(replayed.to_string() == served, || {
            format!("replayed job {k} payload differs from the served one")
        });
    }
    tr.close(root);
    drop(journal);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
