//! Cache-first job execution.
//!
//! The execution layer sits between a [`JobSpec`] and the store:
//!
//! * **synth** — look up the population by key; on miss, recover any partial
//!   checkpoint and resume with the remaining node budget, streaming fresh
//!   checkpoints as synthesis rounds complete; persist the finished
//!   population (which clears the partial).
//! * **run** — look up the result by key; on miss, obtain the population
//!   (cache-first, as above), execute it on the spec's backend via the
//!   order-preserving [`Backend::execute`] request, and persist the
//!   scored rows.
//!
//! Both paths honor an [`ExecCtl`]: cooperative cancellation, a deadline,
//! and a node budget (the scheduler's per-job timeout and the resume tests
//! both use the same suspension path). A suspended job leaves a checkpoint
//! behind and reports [`ExecResult::Suspended`].

use crate::breaker::BreakerRegistry;
use crate::spec::{JobSpec, RunSpec, SynthSpec};
use qaprox::prelude::*;
use qaprox::{GenerateControl, ResumeMode};
use qaprox_linalg::Matrix;
use qaprox_store::json::Json;
use qaprox_store::key::Key;
use qaprox_store::{
    PartialCheckpoint, PopulationArtifact, ResultArtifact, ResultRow, Store, StoreError,
};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Execution control: all fields optional; default = run to completion.
#[derive(Clone, Default)]
pub struct ExecCtl {
    /// Cooperative cancel flag (the scheduler's per-job flag).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Hard deadline; checked between synthesis rounds.
    pub deadline: Option<Instant>,
    /// Stop after this many *fresh* nodes (test seam for deterministic
    /// suspension; production jobs leave it `None`).
    pub node_budget: Option<usize>,
    /// Persist a partial checkpoint every this many fresh nodes (0 =
    /// only on suspension).
    pub checkpoint_every: usize,
    /// Called with the absolute node count whenever a partial checkpoint
    /// lands in the store (the scheduler journals it).
    pub on_checkpoint: Option<Arc<dyn Fn(usize) + Send + Sync>>,
    /// The circuit breakers backend execution runs through (the
    /// scheduler's registry; a default control gets a fresh one).
    pub breakers: Arc<BreakerRegistry>,
}

impl std::fmt::Debug for ExecCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtl")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("node_budget", &self.node_budget)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("on_checkpoint", &self.on_checkpoint.is_some())
            .field("breakers", &self.breakers.states_all())
            .finish()
    }
}

impl ExecCtl {
    fn interrupted(&self, fresh_nodes: usize) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.node_budget.is_some_and(|b| fresh_nodes >= b)
    }

    /// The backend gate: checked immediately before (and after) backend
    /// execution, so a job cancelled or past its deadline consumes zero
    /// backend evaluations and never persists partial rows.
    fn backend_gate(&self) -> Result<(), String> {
        if self.interrupted(0) {
            Err(SUSPENDED_SENTINEL.into())
        } else {
            Ok(())
        }
    }
}

/// How a population was obtained.
#[derive(Debug, Clone)]
pub struct PopulationOutcome {
    /// The population's store key.
    pub key: Key,
    /// The (possibly partial) population.
    pub population: Population,
    /// True when the finished artifact came straight from the store.
    pub cached: bool,
    /// Node credit recovered from a partial checkpoint (0 = fresh run).
    pub resumed_from: usize,
    /// True when the run stopped early; a checkpoint was persisted.
    pub suspended: bool,
}

/// What executing a spec produced.
#[derive(Debug, Clone)]
pub enum ExecResult {
    /// The finished response payload.
    Done(Json),
    /// Stopped early by cancel/deadline/budget; resumable via the store.
    Suspended,
}

/// How a run result was obtained.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The result's store key (this spec's own key).
    pub key: Key,
    /// The scored result.
    pub result: ResultArtifact,
    /// True when the artifact came straight from the store under this
    /// spec's own key.
    pub cached: bool,
    /// Set when the certified fast path answered: the *source* result key
    /// and the certified equivalence bound that justified the reuse. No
    /// synthesis and no backend call happened.
    pub certified: Option<(Key, f64)>,
    /// The population outcome (absent on cache/certified hits).
    pub population: Option<PopulationOutcome>,
    /// Trajectory health summary, present only when the backend aborted
    /// shots (NaN / norm drift). Fully-aborted candidates are degraded to
    /// the worst score instead of emitting corrupt rows.
    pub health: Option<Json>,
}

fn ignore_corruption<T>(r: Result<Option<T>, StoreError>) -> Result<Option<T>, String> {
    match r {
        Ok(v) => Ok(v),
        // the store already evicted the corrupt artifact; treat as a miss
        Err(StoreError::Corrupt(_)) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// Obtains the population for `spec`, cache-first, resuming any partial.
pub fn obtain_population(
    store: Option<&Store>,
    spec: &SynthSpec,
    ctl: &ExecCtl,
) -> Result<PopulationOutcome, String> {
    let reference = spec.reference_circuit()?;
    let target = Workflow::target_unitary(&reference);
    let key = qaprox_store::key::population_key(&target, &spec.fingerprint(), spec.seed);

    if let Some(store) = store {
        if let Some(art) = ignore_corruption(store.get_population(&key))? {
            return Ok(PopulationOutcome {
                key,
                population: Population {
                    circuits: art.circuits,
                    minimal_hs: art.minimal_hs,
                    explored: art.explored,
                    // artifacts predate memo counters; a cache hit ran no
                    // synthesis, so zeroed stats are also the truth
                    stats: Default::default(),
                },
                cached: true,
                resumed_from: 0,
                suspended: false,
            });
        }
    }

    let partial = match store {
        Some(store) => ignore_corruption(store.get_partial(&key))?,
        None => None,
    };
    let (prior, credit) = match partial {
        Some(p) => (p.circuits, p.nodes_done),
        None => (Vec::new(), 0),
    };

    // Replay resume: the run keeps its full budget and original seed, warms
    // the memo from the prior checkpoint, and streams FULL absolute
    // snapshots — so a resumed run is bit-identical to an uninterrupted one
    // and checkpoints never need prior-merging. `latest` tracks the newest
    // snapshot so suspension can persist rounds the throttle skipped.
    let latest: RefCell<Option<(usize, Vec<ApproxCircuit>)>> = RefCell::new(None);
    let last_persisted = RefCell::new(credit);
    let generation = {
        let checkpoint = |nodes: usize, stream: &[ApproxCircuit]| {
            *latest.borrow_mut() = Some((nodes, stream.to_vec()));
            if let Some(store) = store {
                // saturating: under replay the absolute count starts below
                // the recovered credit, and a shorter prefix must never
                // overwrite a longer checkpoint
                let due = ctl.checkpoint_every > 0
                    && nodes.saturating_sub(*last_persisted.borrow()) >= ctl.checkpoint_every;
                if due {
                    let part = PartialCheckpoint {
                        circuits: stream.to_vec(),
                        nodes_done: nodes,
                    };
                    if store.put_partial(&key, &part).is_ok() {
                        *last_persisted.borrow_mut() = nodes;
                        if let Some(hook) = &ctl.on_checkpoint {
                            hook(nodes);
                        }
                    }
                }
            }
        };
        let cancel = || {
            let fresh = latest
                .borrow()
                .as_ref()
                .map_or(0, |(n, _)| n.saturating_sub(credit));
            ctl.interrupted(fresh)
        };
        spec.workflow().generate_with(
            &target,
            GenerateControl {
                prior,
                nodes_credit: credit,
                resume: ResumeMode::Replay,
                cancel: Some(Box::new(cancel)),
                checkpoint: Some(Box::new(checkpoint)),
            },
        )
    };

    if generation.completed {
        if let Some(store) = store {
            let art = PopulationArtifact {
                circuits: generation.population.circuits.clone(),
                minimal_hs: generation.population.minimal_hs.clone(),
                explored: generation.population.explored,
            };
            // tagged by target so graceful degradation can find sibling
            // populations (other configs/seeds, same unitary)
            store
                .put_population_tagged(&key, &art, Some(&qaprox_store::key::target_tag(&target)))
                .map_err(|e| e.to_string())?;
        }
    } else if let Some(store) = store {
        // persist the final snapshot so the next attempt resumes from here
        if let Some((nodes, stream)) = latest.into_inner() {
            if nodes > *last_persisted.borrow() {
                let part = PartialCheckpoint {
                    circuits: stream,
                    nodes_done: nodes,
                };
                store.put_partial(&key, &part).map_err(|e| e.to_string())?;
            }
        }
    }

    Ok(PopulationOutcome {
        key,
        suspended: !generation.completed,
        cached: false,
        resumed_from: credit,
        population: generation.population,
    })
}

/// Scans the store for a result whose reference circuit is provably
/// ε-equivalent to this spec's under its calibration. Returns the source
/// key, the artifact, and the certified bound. Pure static analysis —
/// no synthesis, no simulation.
fn certified_lookup(
    store: &Store,
    spec: &RunSpec,
    epsilon: f64,
) -> Result<Option<(Key, ResultArtifact, f64)>, String> {
    let reference = spec.reference_circuit()?;
    let cal = spec.calibration()?;
    let opts = qaprox_verify::EquivOptions {
        epsilon,
        ..Default::default()
    };
    for source in store.results_tagged(&spec.equiv_tag()) {
        let Some(res) = ignore_corruption(store.get_result(&source))? else {
            continue;
        };
        let Some(qasm) = &res.reference_qasm else {
            continue;
        };
        let Ok(stored_ref) = qaprox_circuit::from_qasm(qasm) else {
            continue;
        };
        if stored_ref.num_qubits() != reference.num_qubits() {
            continue;
        }
        let report = qaprox_verify::check_equivalence(&reference, &stored_ref, &cal, &opts);
        if report.certified() {
            return Ok(Some((source, res, report.bound)));
        }
    }
    Ok(None)
}

/// Obtains the scored result for `spec`, cache-first.
///
/// With [`RunSpec::epsilon`] set, two QA5xx layers kick in before any
/// expensive work:
///
/// 1. **certified fast path** — on a key miss, any stored result in the
///    same [`RunSpec::equiv_tag`] class whose reference is *provably*
///    ε-equivalent under this calibration is returned as-is (and re-filed
///    under this spec's key), skipping synthesis and the backend entirely;
/// 2. **bound-first scoring** — when the run does execute, candidates the
///    checker certifies against the reference get a static upper-bound
///    score (`ref_score + bound`, rows marked `certified`) and only the
///    undecided band goes to the density-matrix backend.
pub fn obtain_run(
    store: Option<&Store>,
    spec: &RunSpec,
    ctl: &ExecCtl,
) -> Result<RunOutcome, String> {
    let key = spec.result_key()?;
    if let Some(store) = store {
        if let Some(res) = ignore_corruption(store.get_result(&key))? {
            return Ok(RunOutcome {
                key,
                result: res,
                cached: true,
                certified: None,
                population: None,
                health: None,
            });
        }
        // the certified fast path needs dense-unitary equivalence checking,
        // which wide widths cannot afford; wide runs rely on plain key hits
        if let Some(eps) = spec.epsilon.filter(|_| !spec.is_wide()) {
            if let Some((source, res, bound)) = certified_lookup(store, spec, eps)? {
                // re-file under this spec's key (keeping the source's
                // reference so future equivalence checks stay grounded in
                // the circuit the rows were actually scored against): the
                // next identical submission is a plain cache hit
                store
                    .put_result_tagged(&key, &res, Some(&spec.equiv_tag()))
                    .map_err(|e| e.to_string())?;
                return Ok(RunOutcome {
                    key,
                    result: res,
                    cached: false,
                    certified: Some((source, bound)),
                    population: None,
                    health: None,
                });
            }
        }
    }

    if spec.is_wide() {
        return obtain_run_wide(store, spec, key, ctl);
    }

    let pop = obtain_population(store, &spec.synth, ctl)?;
    if pop.suspended {
        return Err(SUSPENDED_SENTINEL.into());
    }
    if pop.population.circuits.is_empty() {
        return Err("selection kept no circuits; raise max_hs or max_cnots".into());
    }

    let reference = spec.reference_circuit()?;
    let mut backend = spec.backend()?;
    if let Some(flag) = &ctl.cancel {
        // the scheduler's cancel flag (and the watchdog's) reaches the
        // trajectory shot loop: a condemned job stops at the next shot
        backend = backend.with_cancel(Arc::clone(flag));
    }
    let cal = spec.calibration()?;

    // static pre-rank: order candidates by the O(gates) noise-budget score
    // (best first) before any O(4^n) density-matrix work, so rows come out
    // in the analyzer's preference order and consumers can truncate cheaply
    let ranked = qaprox_synth::rank_by_predicted(&pop.population.circuits, &cal);

    // ε-aware runs try to discharge each candidate statically first; the
    // bound (when it certifies) replaces the simulated score outright
    let bounds: Vec<Option<f64>> = match spec.epsilon {
        None => vec![None; ranked.len()],
        Some(eps) => {
            let opts = qaprox_verify::EquivOptions {
                epsilon: eps,
                ..Default::default()
            };
            ranked
                .iter()
                .map(|(ap, _)| {
                    let report =
                        qaprox_verify::check_equivalence(&ap.circuit, &reference, &cal, &opts);
                    report.certified().then_some(report.bound)
                })
                .collect()
        }
    };
    let undecided: Vec<Circuit> = ranked
        .iter()
        .zip(&bounds)
        .filter(|(_, b)| b.is_none())
        .map(|((ap, _), _)| ap.circuit.clone())
        .collect();

    // a cancelled or deadline-expired job must consume ZERO backend
    // evaluations — the gate sits before the failpoint that counts them
    ctl.backend_gate()?;
    // Failpoint `serve.backend`: evaluated once per job that reaches the
    // backend, so tests can count invocations (a certified answer must
    // leave the counter untouched); `error` injects a backend outage.
    qaprox_fault::fail_point!("serve.backend", |_action| {
        Err(qaprox_fault::injected_error("serve.backend"))
    });

    let ideal = qaprox_sim::statevector::probabilities(&reference);
    let ref_probs = backend.probabilities(&reference, spec.job_seed);
    let ref_score = qaprox_metrics::total_variation(&ref_probs, &ideal);
    // backend execution goes through the per-backend circuit breaker: a
    // backend that keeps failing rejects fast instead of absorbing every
    // worker's full retry budget
    let seeds: Vec<u64> = (0..undecided.len() as u64).collect();
    let run = ctl.breakers.call(&spec.backend_fingerprint(), || {
        backend.execute(&undecided, &seeds)
    })?;
    // interrupted mid-execution (watchdog cancel, deadline): suspend
    // without persisting rows averaged over a truncated shot loop
    ctl.backend_gate()?;
    let mut simulated = run.rows.iter().zip(&run.health);
    let rows: Vec<ResultRow> = ranked
        .iter()
        .zip(&bounds)
        .map(|((ap, predicted), bound)| {
            let (score, certified) = match bound {
                // `score` is TV-to-ideal, 1-Lipschitz in the output
                // distribution, so the certified bound caps how far the
                // candidate's score can sit above the reference's
                Some(b) => ((ref_score + b).min(1.0), true),
                None => {
                    let (p, h) = simulated.next().expect("one batch row per undecided");
                    if degraded_candidate(h) {
                        // every shot aborted (NaN / norm drift): degrade to
                        // the worst score instead of emitting a corrupt row
                        (1.0, false)
                    } else {
                        (qaprox_metrics::total_variation(p, &ideal), false)
                    }
                }
            };
            ResultRow {
                cnots: ap.cnots,
                hs_distance: ap.hs_distance,
                predicted: *predicted,
                score,
                certified,
            }
        })
        .collect();

    let result = ResultArtifact {
        ref_score,
        rows,
        // the reference rides along only on ε-aware runs: it is what makes
        // this artifact reusable by the certified fast path later
        reference_qasm: spec
            .epsilon
            .map(|_| qaprox_circuit::qasm::to_qasm(&reference)),
    };
    if let Some(store) = store {
        let tag = spec.epsilon.map(|_| spec.equiv_tag());
        store
            .put_result_tagged(&key, &result, tag.as_deref())
            .map_err(|e| e.to_string())?;
    }
    Ok(RunOutcome {
        key,
        result,
        cached: false,
        certified: None,
        population: Some(pop),
        health: health_summary(&run.health),
    })
}

/// The wide-run path (`qubits > MAX_SYNTH_QUBITS`, trajectory backend).
///
/// No synthesis happens here — QSearch needs the dense target unitary,
/// which does not fit at 27+ qubits. Instead the candidate set is the same
/// TFIM evolution Trotterized with every shallower step count (the paper's
/// depth/accuracy trade-off in its rawest form), pre-ranked by the same
/// O(gates) analyzer, and scored on the trajectory backend against the
/// ideal statevector. The reference and the candidates go to the backend
/// as one [`Backend::execute`] request — row 0 is the reference under the
/// spec's job seed, row `i + 1` candidate `i` under job seed `i` — whose
/// (candidate, chunk) work items share the cores
/// ([`qaprox_sim::TrajectoryBatch`]), bit-identical to scoring each row
/// alone. Results cache under the spec's own key exactly like narrow runs.
fn obtain_run_wide(
    store: Option<&Store>,
    spec: &RunSpec,
    key: Key,
    ctl: &ExecCtl,
) -> Result<RunOutcome, String> {
    let reference = spec.reference_circuit()?;
    let mut backend = spec.backend()?;
    if let Some(flag) = &ctl.cancel {
        backend = backend.with_cancel(Arc::clone(flag));
    }
    let cal = spec.calibration()?;
    let candidates = spec.synth.wide_population_circuits()?;
    let ranked = qaprox_synth::rank_by_predicted(&candidates, &cal);
    let mut batch = vec![reference];
    batch.extend(ranked.iter().map(|(ap, _)| ap.circuit.clone()));
    let mut seeds = vec![spec.job_seed];
    seeds.extend(0..ranked.len() as u64);

    // same gate, same placement as the narrow path: a cancelled or expired
    // job reaches neither the counting failpoint nor the backend
    ctl.backend_gate()?;
    // same failpoint, same placement as the narrow path: evaluated once per
    // job that reaches the backend, so chaos tests can count trajectory jobs
    qaprox_fault::fail_point!("serve.backend", |_action| {
        Err(qaprox_fault::injected_error("serve.backend"))
    });

    let run = ctl.breakers.call(&spec.backend_fingerprint(), || {
        backend.execute(&batch, &seeds)
    })?;
    ctl.backend_gate()?;
    // scored after the shot loop, so its 2^n row is not live at the loop's
    // peak
    let ideal = qaprox_sim::statevector::probabilities(&batch[0]);
    let ref_score = qaprox_metrics::total_variation(&run.rows[0], &ideal);
    let rows: Vec<ResultRow> = ranked
        .iter()
        .zip(run.rows[1..].iter().zip(&run.health[1..]))
        .map(|((ap, predicted), (p, h))| ResultRow {
            cnots: ap.cnots,
            hs_distance: ap.hs_distance,
            predicted: *predicted,
            score: if degraded_candidate(h) {
                1.0
            } else {
                qaprox_metrics::total_variation(p, &ideal)
            },
            certified: false,
        })
        .collect();

    let result = ResultArtifact {
        ref_score,
        rows,
        // no certified fast path at wide widths, so no reference rides along
        reference_qasm: None,
    };
    if let Some(store) = store {
        store
            .put_result_tagged(&key, &result, None)
            .map_err(|e| e.to_string())?;
    }
    Ok(RunOutcome {
        key,
        result,
        cached: false,
        certified: None,
        population: None,
        health: health_summary(&run.health[1..]),
    })
}

// An error-channel marker for "the synthesis stage suspended" inside
// obtain_run, folded back into ExecResult::Suspended by run_spec.
const SUSPENDED_SENTINEL: &str = "__qaprox_serve_suspended__";

/// A candidate whose every shot aborted has no usable probability row.
fn degraded_candidate(h: &qaprox_sim::HealthReport) -> bool {
    h.clean_shots == 0 && h.aborted_shots > 0
}

/// Folds per-candidate trajectory health into a payload-ready summary.
/// `None` when every shot was clean, so healthy runs' payloads stay
/// bit-identical to pre-sentinel builds.
fn health_summary(healths: &[qaprox_sim::HealthReport]) -> Option<Json> {
    let mut total = qaprox_sim::HealthReport::default();
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

fn population_payload(pop: &PopulationOutcome) -> Json {
    let circuits: Vec<Json> = pop
        .population
        .circuits
        .iter()
        .map(|ap| {
            Json::obj(vec![
                ("cnots", Json::Num(ap.cnots as f64)),
                ("hs_distance", Json::Num(ap.hs_distance)),
                ("gates", Json::Num(ap.circuit.len() as f64)),
                ("depth", Json::Num(ap.circuit.depth() as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("kind", Json::Str("synth".into())),
        ("key", Json::Str(pop.key.hex())),
        ("cached", Json::Bool(pop.cached)),
        ("resumed_from", Json::Num(pop.resumed_from as f64)),
        ("explored", Json::Num(pop.population.explored as f64)),
        (
            "minimal_hs",
            Json::Num(pop.population.minimal_hs.hs_distance),
        ),
        (
            "minimal_cnots",
            Json::Num(pop.population.minimal_hs.cnots as f64),
        ),
        ("circuits", Json::Arr(circuits)),
    ])
}

/// Executes one spec end to end, returning the response payload.
pub fn run_spec(
    store: Option<&Store>,
    spec: &JobSpec,
    ctl: &ExecCtl,
) -> Result<ExecResult, String> {
    match spec {
        JobSpec::Synth(s) => {
            let pop = obtain_population(store, s, ctl)?;
            if pop.suspended {
                return Ok(ExecResult::Suspended);
            }
            Ok(ExecResult::Done(population_payload(&pop)))
        }
        JobSpec::Run(r) => match obtain_run(store, r, ctl) {
            Ok(out) => {
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
                // the reference circuit's static analysis rides along with
                // every run result (cached ones included — it's O(gates))
                let analysis = qaprox_verify::analyze(
                    &r.reference_circuit()?,
                    &r.calibration()?,
                    &Default::default(),
                )
                .to_json_value();
                let mut fields = vec![
                    ("kind".to_string(), Json::Str("run".into())),
                    ("key".to_string(), Json::Str(out.key.hex())),
                    ("cached".to_string(), Json::Bool(out.cached)),
                    (
                        "population_cached".to_string(),
                        Json::Bool(out.population.as_ref().is_some_and(|p| p.cached)),
                    ),
                    ("certified".to_string(), Json::Bool(out.certified.is_some())),
                ];
                if let Some((source, bound)) = &out.certified {
                    fields.push(("certified_from".to_string(), Json::Str(source.hex())));
                    fields.push(("equiv_bound".to_string(), Json::Num(*bound)));
                }
                if let Some(health) = &out.health {
                    fields.push(("health".to_string(), health.clone()));
                }
                fields.extend([
                    ("ref_score".to_string(), Json::Num(result.ref_score)),
                    ("wins".to_string(), Json::Num(wins as f64)),
                    ("analysis".to_string(), analysis),
                    ("rows".to_string(), Json::Arr(rows)),
                ]);
                Ok(ExecResult::Done(Json::Obj(fields)))
            }
            Err(e) if e == SUSPENDED_SENTINEL => Ok(ExecResult::Suspended),
            Err(e) => Err(e),
        },
    }
}

/// The best (lowest minimal HS distance) decodable population stored for
/// this target under ANY synthesis config/seed (see `Store::populations_tagged`).
fn best_tagged_population(store: &Store, target: &Matrix) -> Option<(Key, PopulationArtifact)> {
    let tag = qaprox_store::key::target_tag(target);
    let mut best: Option<(Key, PopulationArtifact)> = None;
    for key in store.populations_tagged(&tag) {
        if let Ok(Some(art)) = ignore_corruption(store.get_population(&key)) {
            let better = best
                .as_ref()
                .is_none_or(|(_, b)| art.minimal_hs.hs_distance < b.minimal_hs.hs_distance);
            if better {
                best = Some((key, art));
            }
        }
    }
    best
}

fn push_degraded_fields(payload: Json, degraded_from: Option<String>, error: &str) -> Json {
    let Json::Obj(mut fields) = payload else {
        return payload;
    };
    fields.push(("degraded".to_string(), Json::Bool(true)));
    if let Some(key) = degraded_from {
        fields.push(("degraded_from".to_string(), Json::Str(key)));
    }
    fields.push(("error".to_string(), Json::Str(error.to_string())));
    Json::Obj(fields)
}

/// The graceful-degradation fallback, built when a job exhausts its retry
/// budget on transient faults. Best-effort, never an error:
///
/// * **synth** — the best store-cached population for the *same target*
///   under any config/seed (`degraded_from` names its key);
/// * **run** — the static `analyze` noise-budget prediction, plus
///   predicted-only rows when a fallback population exists.
///
/// `None` means nothing useful is available (no store, no sibling
/// population) and the job should fail outright.
pub fn degraded_payload(store: Option<&Store>, spec: &JobSpec, error: &str) -> Option<Json> {
    match spec {
        JobSpec::Synth(s) => {
            let store = store?;
            let reference = s.reference_circuit().ok()?;
            let target = Workflow::target_unitary(&reference);
            let (source, art) = best_tagged_population(store, &target)?;
            let pop = PopulationOutcome {
                key: source,
                population: Population {
                    circuits: art.circuits,
                    minimal_hs: art.minimal_hs,
                    explored: art.explored,
                    stats: Default::default(),
                },
                cached: true,
                resumed_from: 0,
                suspended: false,
            };
            Some(push_degraded_fields(
                population_payload(&pop),
                Some(source.hex()),
                error,
            ))
        }
        JobSpec::Run(r) => {
            let reference = r.reference_circuit().ok()?;
            let cal = r.calibration().ok()?;
            let analysis =
                qaprox_verify::analyze(&reference, &cal, &Default::default()).to_json_value();
            // never form the target unitary at wide widths: the degraded
            // answer there is the O(gates) prediction, standing alone
            let fallback = if r.is_wide() {
                None
            } else {
                let target = Workflow::target_unitary(&reference);
                store.and_then(|s| best_tagged_population(s, &target))
            };
            let mut degraded_from = None;
            let rows: Vec<Json> = match &fallback {
                Some((source, art)) => {
                    degraded_from = Some(source.hex());
                    qaprox_synth::rank_by_predicted(&art.circuits, &cal)
                        .iter()
                        .map(|(ap, predicted)| {
                            Json::Arr(vec![
                                Json::Num(ap.cnots as f64),
                                Json::Num(ap.hs_distance),
                                Json::Num(*predicted),
                            ])
                        })
                        .collect()
                }
                None => Vec::new(),
            };
            Some(push_degraded_fields(
                Json::obj(vec![
                    ("kind", Json::Str("run".into())),
                    ("predicted_only", Json::Bool(true)),
                    ("analysis", analysis),
                    ("rows", Json::Arr(rows)),
                ]),
                degraded_from,
                error,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_store(tag: &str) -> Store {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("qaprox-serve-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn tiny_synth(seed: u64) -> SynthSpec {
        SynthSpec {
            workload: "tfim".into(),
            qubits: 2,
            steps: 2,
            max_cnots: 3,
            max_nodes: 25,
            max_hs: 0.4,
            seed,
            deadline_ms: None,
        }
    }

    #[test]
    fn identical_resubmit_hits_the_store_with_no_new_synthesis() {
        let store = tmp_store("hit");
        let spec = tiny_synth(0);
        let first = obtain_population(Some(&store), &spec, &ExecCtl::default()).unwrap();
        assert!(!first.cached && !first.suspended);

        let second = obtain_population(Some(&store), &spec, &ExecCtl::default()).unwrap();
        assert!(second.cached, "resubmit must come from the store");
        // no new synthesis nodes: explored is identical, not incremented
        assert_eq!(second.population.explored, first.population.explored);
        assert_eq!(
            second.population.circuits.len(),
            first.population.circuits.len()
        );
        let stats = store.stats();
        assert!(stats.hits >= 1, "stats must record the hit: {stats:?}");
        assert!(stats.puts >= 1);
    }

    #[test]
    fn suspended_synthesis_resumes_from_the_checkpoint() {
        let store = tmp_store("resume");
        let spec = tiny_synth(1);

        // force suspension after a handful of fresh nodes
        let ctl = ExecCtl {
            node_budget: Some(4),
            checkpoint_every: 1,
            ..Default::default()
        };
        let first = obtain_population(Some(&store), &spec, &ctl).unwrap();
        assert!(first.suspended, "budget must suspend the run");
        assert!(!first.cached);
        let key = first.key;
        let part = store
            .get_partial(&key)
            .unwrap()
            .expect("checkpoint persisted");
        assert!(part.nodes_done >= 4);
        assert!(!part.circuits.is_empty());

        // the resumed run picks up the credit and completes
        let second = obtain_population(Some(&store), &spec, &ExecCtl::default()).unwrap();
        assert!(!second.suspended && !second.cached);
        assert_eq!(second.resumed_from, part.nodes_done);
        assert!(
            second.population.explored <= spec.max_nodes + 4,
            "credit bounds total work: {}",
            second.population.explored
        );
        // completion clears the checkpoint and persists the population
        assert!(store.get_partial(&key).unwrap().is_none());
        let third = obtain_population(Some(&store), &spec, &ExecCtl::default()).unwrap();
        assert!(third.cached);
    }

    #[test]
    fn run_results_cache_and_report_reference_score() {
        let store = tmp_store("run");
        let spec = RunSpec {
            synth: tiny_synth(2),
            device: "ourense".into(),
            cx_error: Some(0.1),
            ..Default::default()
        };
        let out = obtain_run(Some(&store), &spec, &ExecCtl::default()).unwrap();
        assert!(!out.cached);
        assert!(out.population.is_some());
        assert!(out.result.ref_score > 0.0, "noise must cost the reference");
        assert!(!out.result.rows.is_empty());
        // without epsilon nothing is certified and no reference is stored
        assert!(out.certified.is_none());
        assert!(out.result.reference_qasm.is_none());
        assert!(out.result.rows.iter().all(|r| !r.certified));

        let second = obtain_run(Some(&store), &spec, &ExecCtl::default()).unwrap();
        assert!(second.cached, "second run must hit the result cache");
        assert!(
            second.population.is_none(),
            "a result hit skips synthesis entirely"
        );
        assert_eq!(second.key, out.key);
        assert_eq!(second.result.rows, out.result.rows);
    }

    #[test]
    fn run_rows_come_out_pre_ranked_by_predicted_score() {
        let spec = RunSpec {
            synth: tiny_synth(5),
            device: "ourense".into(),
            cx_error: Some(0.08),
            ..Default::default()
        };
        let result = obtain_run(None, &spec, &ExecCtl::default()).unwrap().result;
        assert!(
            result
                .rows
                .windows(2)
                .all(|w| w[0].predicted >= w[1].predicted),
            "rows must be sorted by predicted score desc: {:?}",
            result.rows.iter().map(|r| r.predicted).collect::<Vec<_>>()
        );
        assert!(result
            .rows
            .iter()
            .all(|r| r.predicted > 0.0 && r.predicted <= 1.0));
    }

    #[test]
    fn wide_trajectory_run_skips_synthesis_and_scores_truncations() {
        let store = tmp_store("wide");
        let spec = RunSpec {
            synth: SynthSpec {
                workload: "tfim".into(),
                qubits: 8, // past MAX_SYNTH_QUBITS, still cheap to simulate
                steps: 3,
                ..Default::default()
            },
            device: "toronto".into(),
            backend: Some("trajectory".into()),
            shots: Some(32),
            ..Default::default()
        };
        let out = obtain_run(Some(&store), &spec, &ExecCtl::default()).unwrap();
        assert!(!out.cached);
        assert!(out.population.is_none(), "wide runs never synthesize");
        assert_eq!(out.result.rows.len(), 2, "steps 1 and 2 truncations");
        assert!(out
            .result
            .rows
            .iter()
            .all(|r| r.hs_distance == 0.0 && !r.certified));
        assert!(out.result.ref_score > 0.0, "noise must cost the reference");
        assert!(
            out.result
                .rows
                .windows(2)
                .all(|w| w[0].predicted >= w[1].predicted),
            "wide rows come out pre-ranked like narrow ones"
        );

        let second = obtain_run(Some(&store), &spec, &ExecCtl::default()).unwrap();
        assert!(second.cached, "wide results cache under the spec key");
        assert_eq!(second.result.rows, out.result.rows);

        // the same spec runs end to end through the service entry point
        match run_spec(None, &JobSpec::Run(spec), &ExecCtl::default()).unwrap() {
            ExecResult::Done(payload) => {
                assert_eq!(payload.get_str("kind"), Some("run"));
                assert!(payload.get("analysis").is_some());
            }
            ExecResult::Suspended => panic!("nothing suspends a wide run"),
        }
    }

    #[test]
    fn storeless_execution_still_works() {
        let spec = JobSpec::Synth(tiny_synth(3));
        match run_spec(None, &spec, &ExecCtl::default()).unwrap() {
            ExecResult::Done(payload) => {
                assert_eq!(payload.get_str("kind"), Some("synth"));
                assert_eq!(payload.get_bool("cached"), Some(false));
                assert!(payload.get("circuits").is_some());
            }
            ExecResult::Suspended => panic!("nothing to suspend a storeless run"),
        }
    }

    #[test]
    fn cancelled_job_reports_suspension() {
        let store = tmp_store("cancel");
        let flag = Arc::new(AtomicBool::new(true)); // cancelled before it starts
        let ctl = ExecCtl {
            cancel: Some(flag),
            ..Default::default()
        };
        let spec = JobSpec::Synth(tiny_synth(4));
        match run_spec(Some(&store), &spec, &ctl).unwrap() {
            ExecResult::Suspended => {}
            ExecResult::Done(_) => panic!("pre-cancelled job must suspend"),
        }
    }
}
