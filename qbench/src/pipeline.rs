//! `pipeline_paper`: the paper's Fig. 1 pipeline, in-process and serial.
//!
//! One job is one target. A round is the paper's 21 TFIM timesteps (3q,
//! QSearch, magnetization on the ourense density and hardware-emulation
//! backends) followed by the 4q Toffoli (QSearch+QFast, transpiled at L3
//! onto toronto, scored by hardware-emulated battery JS). Rounds repeat
//! with fresh instantiation seeds until the run's time is up. Store, serve
//! and the trajectory backend are never touched.
//!
//! The untraced pass, which gives the end-to-end figures, calls
//! `Workflow::generate` and then the core experiment functions themselves:
//! `tfim_study::evaluate` and `MappingStudy::evaluate_population` /
//! `reference_js`. The traced pass runs a copy of those scoring functions,
//! call for call, with a `core.*` span around each and a span around every
//! `Backend::probabilities` and `transpile` call inside, so their time
//! splits into `sim`, `transpile` and core's own. Its scored rows must match
//! the untraced pass's bit for bit.

use crate::stats::{min_samples_for, Digest, Stream};
use crate::trace::Tracer;
use crate::workload::{Counters, Opts, Outcome, Pass};
use qaprox::mapping::{MappingStudy, Placement};
use qaprox::prelude::*;
use qaprox::tfim_study::{self, TfimPopulations, TimestepResult};
use qaprox::toffoli_study::{ideal_battery_distribution, toffoli_target, with_input_prep};
use qaprox::workflow::verify_population;
use qaprox::{Population, Scored};
use qaprox_linalg::Matrix;
use qaprox_metrics::probabilities;
use qaprox_synth::InstantiateConfig;
use std::time::Instant;

pub const TAIL_P: f64 = 0.9;
const TFIM_STEPS: usize = TfimParams::PAPER_STEPS;
const ROUND: usize = TFIM_STEPS + 1;
const TOFFOLI_QUBITS: usize = 4;
const TOFFOLI_CAP: usize = 12;
const POPULATION_TOL: f64 = 1e-8;

/// Targets, references and backends, built during set-up.
struct Inputs {
    params: TfimParams,
    references: Vec<Circuit>,
    targets: Vec<Matrix>,
    density: Backend,
    hardware: Backend,
    study: MappingStudy,
    toffoli_target: Matrix,
    toffoli_reference: Circuit,
}

impl Inputs {
    fn build() -> Inputs {
        let params = TfimParams::paper_defaults(3);
        let references = tfim_series(&params, TFIM_STEPS);
        let targets = references.iter().map(Workflow::target_unitary).collect();
        let ourense = devices::ourense().induced(&[0, 1, 2]);
        Inputs {
            params,
            references,
            targets,
            density: Backend::Noisy(NoiseModel::from_calibration(ourense.clone())),
            hardware: Backend::Hardware(HardwareBackend::new(NoiseModel::from_calibration(
                ourense,
            ))),
            study: MappingStudy {
                device: devices::toronto(),
                placement: Placement::Auto,
                effects: HardwareEffects::heavy_2021(),
                shots: None,
            },
            toffoli_target: toffoli_target(TOFFOLI_QUBITS),
            toffoli_reference: mct_reference(TOFFOLI_QUBITS),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Job {
    Tfim { step: usize, seed: u64 },
    Toffoli { seed: u64 },
}

/// The `index`-th job of the run: fixed by the workload seed alone.
fn job(seed: u64, index: usize) -> Job {
    let (round, pos) = (index / ROUND, index % ROUND);
    let s = Stream::new(seed, (round * ROUND + pos) as u64).wire_u64();
    if pos < TFIM_STEPS {
        Job::Tfim {
            step: pos + 1,
            seed: s,
        }
    } else {
        Job::Toffoli { seed: s }
    }
}

fn tfim_workflow(seed: u64) -> Workflow {
    Workflow {
        topology: Topology::linear(3),
        engine: Engine::QSearch(QSearchConfig {
            max_cnots: 6,
            max_nodes: 150,
            beam_width: 4,
            instantiate: InstantiateConfig {
                starts: 2,
                seed,
                ..Default::default()
            },
            ..Default::default()
        }),
        max_hs: 0.12,
    }
}

fn toffoli_workflow(seed: u64) -> Workflow {
    let qs = QSearchConfig {
        max_cnots: 6,
        max_nodes: 60,
        beam_width: 2,
        instantiate: InstantiateConfig {
            starts: 1,
            seed,
            lbfgs: qaprox_opt::LbfgsParams {
                max_iters: 300,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let qf = QFastConfig {
        max_blocks: 4,
        seed: seed ^ 0x51F7,
        ..Default::default()
    };
    Workflow {
        topology: Topology::linear(TOFFOLI_QUBITS),
        engine: Engine::Both(qs, qf),
        max_hs: 0.5,
    }
}

struct TfimOut {
    step: usize,
    population: Population,
    density: TimestepResult,
    hardware: TimestepResult,
}

struct ToffoliOut {
    population: Population,
    circuits: Vec<ApproxCircuit>,
    scores: Vec<f64>,
    reference_js: f64,
}

enum JobOut {
    Tfim(TfimOut),
    Toffoli(ToffoliOut),
}

impl JobOut {
    fn rows(&self) -> usize {
        match self {
            JobOut::Tfim(t) => t.density.all.len() + t.hardware.all.len(),
            JobOut::Toffoli(t) => t.scores.len(),
        }
    }

    fn population(&self) -> &Population {
        match self {
            JobOut::Tfim(t) => &t.population,
            JobOut::Toffoli(t) => &t.population,
        }
    }

    fn digest(&self, d: &mut Digest) {
        match self {
            JobOut::Tfim(t) => {
                d.u64(t.step as u64);
                for r in [&t.density, &t.hardware] {
                    d.f64(r.noisy_ref);
                    d.f64(r.best_approx.score);
                    for s in r.all.iter().chain([&r.minimal_hs]) {
                        d.u64(s.cnots as u64);
                        d.f64(s.hs_distance);
                        d.f64(s.score);
                    }
                }
            }
            JobOut::Toffoli(t) => {
                d.f64(t.reference_js);
                for (c, s) in t.circuits.iter().zip(&t.scores) {
                    d.u64(c.cnots as u64);
                    d.f64(c.hs_distance);
                    d.f64(*s);
                }
            }
        }
    }
}

/// The traced copy of `tfim_study::evaluate` for a single-timestep
/// population (index 0): one span per `Backend::probabilities` call inside
/// a `core.evaluate` span.
fn score_tfim(
    reference: &Circuit,
    population: &Population,
    backend: &Backend,
    tr: &Tracer,
    jid: u64,
    parent: Option<usize>,
) -> TimestepResult {
    let name = match backend {
        Backend::Hardware(_) => "sim.hardware",
        _ => "sim.density",
    };
    tr.span("core.evaluate", jid, parent, |ep| {
        let probs =
            |c: &Circuit, seed: u64| tr.span(name, jid, ep, |_| backend.probabilities(c, seed));
        let noise_free_ref = tr.span("sim.statevector", jid, ep, |_| {
            magnetization(&probabilities(&reference.statevector()))
        });
        let noisy_ref = magnetization(&probs(reference, 1_000_000));
        let all: Vec<Scored> = population
            .circuits
            .iter()
            .enumerate()
            .map(|(j, ap)| Scored {
                cnots: ap.cnots,
                hs_distance: ap.hs_distance,
                score: magnetization(&probs(&ap.circuit, j as u64)),
            })
            .collect();
        let minimal_hs = Scored {
            cnots: population.minimal_hs.cnots,
            hs_distance: population.minimal_hs.hs_distance,
            score: magnetization(&probs(&population.minimal_hs.circuit, 0)),
        };
        let best_approx = all
            .iter()
            .chain(std::iter::once(&minimal_hs))
            .min_by(|a, b| {
                (a.score - noise_free_ref)
                    .abs()
                    .total_cmp(&(b.score - noise_free_ref).abs())
            })
            .cloned()
            .expect("candidate set is nonempty");
        TimestepResult {
            step: 1,
            noise_free_ref,
            noisy_ref,
            reference_cnots: reference.cx_count(),
            minimal_hs,
            best_approx,
            all,
        }
    })
}

/// The traced copy of `MappingStudy::battery_js` with `Placement::Auto`:
/// every battery input is transpiled at L3 onto toronto and run on the
/// hardware emulation of the induced calibration, inside a
/// `core.battery_js` span.
fn battery_js(
    study: &MappingStudy,
    circuit: &Circuit,
    seed: u64,
    tr: &Tracer,
    c: &mut Counters,
    jid: u64,
    parent: Option<usize>,
) -> f64 {
    tr.span("core.battery_js", jid, parent, |bp| {
        let n = circuit.num_qubits();
        let inputs = qaprox::toffoli_study::battery_inputs(n);
        let mut agg = vec![0.0; 1 << n];
        for (k, &input) in inputs.iter().enumerate() {
            let prepped = with_input_prep(circuit, input);
            let t = tr.span("transpile.l3", jid, bp, |_| {
                transpile(&prepped, &study.device, OptLevel::L3, None)
            });
            c.cx_logical += prepped.cx_count();
            c.cx_routed += t.circuit.cx_count();
            let model = NoiseModel::from_calibration(t.induced_calibration(&study.device));
            let backend =
                Backend::Hardware(HardwareBackend::with_effects(model, study.effects.clone()));
            let compact = tr.span("sim.hardware", jid, bp, |_| {
                backend.probabilities(&t.circuit, seed.wrapping_add(k as u64))
            });
            c.density_circuits += 1;
            let logical = t.logical_probabilities(&compact, n);
            for (a, p) in agg.iter_mut().zip(&logical) {
                *a += p / inputs.len() as f64;
            }
        }
        js_distance(&agg, &ideal_battery_distribution(n))
    })
}

fn generate(
    wf: &Workflow,
    target: &Matrix,
    tr: &Tracer,
    c: &mut Counters,
    jid: u64,
    parent: Option<usize>,
) -> Population {
    let population = tr.span("synth.generate", jid, parent, |_| wf.generate(target));
    c.synth_nodes += population.explored;
    c.memo_hits += population.stats.memo_hits;
    c.memo_misses += population.stats.memo_misses;
    population
}

/// One job. With tracing off it is scored by the core functions themselves;
/// with tracing on, by their traced copies.
fn run_job(
    inp: &Inputs,
    job: Job,
    tr: &Tracer,
    c: &mut Counters,
    jid: u64,
    parent: Option<usize>,
) -> JobOut {
    match job {
        Job::Tfim { step, seed } => {
            let reference = &inp.references[step - 1];
            let population = generate(
                &tfim_workflow(seed),
                &inp.targets[step - 1],
                tr,
                c,
                jid,
                parent,
            );
            if tr.is_on() {
                let density = score_tfim(reference, &population, &inp.density, tr, jid, parent);
                let hardware = score_tfim(reference, &population, &inp.hardware, tr, jid, parent);
                c.density_circuits += 2 * (population.circuits.len() + 2);
                return JobOut::Tfim(TfimOut {
                    step,
                    population,
                    density,
                    hardware,
                });
            }
            let mut pops = TfimPopulations {
                params: inp.params,
                references: vec![reference.clone()],
                populations: vec![population],
            };
            let density = tfim_study::evaluate(&pops, &inp.density).remove(0);
            let hardware = tfim_study::evaluate(&pops, &inp.hardware).remove(0);
            JobOut::Tfim(TfimOut {
                step,
                population: pops.populations.remove(0),
                density,
                hardware,
            })
        }
        Job::Toffoli { seed } => {
            let population = generate(
                &toffoli_workflow(seed),
                &inp.toffoli_target,
                tr,
                c,
                jid,
                parent,
            );
            let circuits: Vec<ApproxCircuit> = population
                .circuits
                .iter()
                .take(TOFFOLI_CAP)
                .cloned()
                .collect();
            let study = &inp.study;
            let (scores, reference_js) = if tr.is_on() {
                let scores = circuits
                    .iter()
                    .enumerate()
                    .map(|(i, ap)| {
                        battery_js(study, &ap.circuit, (i as u64) << 24, tr, c, jid, parent)
                    })
                    .collect();
                let reference_js =
                    battery_js(study, &inp.toffoli_reference, 0x0EF, tr, c, jid, parent);
                (scores, reference_js)
            } else {
                let scores = study
                    .evaluate_population(&circuits)
                    .iter()
                    .map(|s| s.score)
                    .collect();
                (scores, study.reference_js(&inp.toffoli_reference))
            };
            JobOut::Toffoli(ToffoliOut {
                population,
                circuits,
                scores,
                reference_js,
            })
        }
    }
}

/// Runs jobs until time is up (and at least one round and enough samples
/// for the tail percentile), or exactly `count` jobs when given. Every
/// population is checked as it comes, outside the job's timing; only the
/// first round's outputs are kept, so memory does not grow with the number
/// of jobs a run completes. The pass's wall time is the summed job time.
fn pass(
    inp: &Inputs,
    opts: &Opts,
    tr: &Tracer,
    c: &mut Counters,
    count: Option<usize>,
    out: &mut Outcome,
) -> (Pass, Vec<JobOut>) {
    let mut p = Pass::default();
    let mut outs = Vec::new();
    let start = Instant::now();
    let root = tr.open("bench.pass", 0, None);
    let min_jobs = opts.min_jobs(min_samples_for(TAIL_P)).max(ROUND);
    for i in 0.. {
        let done = match count {
            Some(n) => i >= n,
            None => start.elapsed().as_secs_f64() >= opts.window() && i >= min_jobs,
        };
        if done {
            break;
        }
        let t = Instant::now();
        let o = tr.span("bench.job", i as u64, root, |jp| {
            run_job(inp, job(opts.seed, i), tr, c, i as u64, jp)
        });
        let dt = t.elapsed().as_secs_f64();
        p.wall_s += dt;
        p.job_ms.push(dt * 1e3);
        p.rows += o.rows();
        p.attempted += 1;
        check_population(inp, i, &o, out);
        if i < ROUND {
            outs.push(o);
        }
    }
    tr.close(root);
    (p, outs)
}

/// Digest of the first round's scored rows: a fixed set of jobs whatever
/// the run length.
fn round_digest(outs: &[JobOut]) -> String {
    let mut d = Digest::default();
    for o in &outs[..ROUND] {
        o.digest(&mut d);
    }
    d.hex()
}

/// The per-job part of the correctness gate.
fn check_population(inp: &Inputs, i: usize, o: &JobOut, out: &mut Outcome) {
    let target = match o {
        JobOut::Tfim(t) => &inp.targets[t.step - 1],
        JobOut::Toffoli(_) => &inp.toffoli_target,
    };
    out.check(
        verify_population(o.population(), target, POPULATION_TOL),
        || format!("pipeline job {i}: population fails verify_population"),
    );
    out.check(!o.population().circuits.is_empty(), || {
        format!("pipeline job {i}: empty population")
    });
}

/// Determinism in-process: job 1 again from scratch must score the same.
fn check_rerun(inp: &Inputs, opts: &Opts, outs: &[JobOut], out: &mut Outcome) {
    let again = run_job(
        inp,
        job(opts.seed, 1),
        &Tracer::new(false),
        &mut Counters::default(),
        1,
        None,
    );
    let (mut a, mut b) = (Digest::default(), Digest::default());
    again.digest(&mut a);
    outs[1].digest(&mut b);
    out.check(a.hex() == b.hex(), || {
        "pipeline job 1 scored differently when rerun".into()
    });
}

fn precision_gain_pct(outs: &[JobOut]) -> f64 {
    let results: Vec<TimestepResult> = outs[..ROUND]
        .iter()
        .filter_map(|o| match o {
            JobOut::Tfim(t) => Some(t.density.clone()),
            JobOut::Toffoli(_) => None,
        })
        .collect();
    let ref_err = tfim_study::series_error(&results, |r| r.noisy_ref);
    let best_err = tfim_study::series_error(&results, |r| r.best_approx.score);
    (1.0 - best_err / ref_err) * 100.0
}

pub fn run(opts: &Opts, tr: &Tracer) -> Outcome {
    let mut out = Outcome {
        tail_p: TAIL_P,
        ..Default::default()
    };
    let mut inputs = None;
    for k in 0..3 {
        let t = Instant::now();
        let inp = Inputs::build();
        let warm = Job::Tfim {
            step: 2,
            seed: Stream::new(opts.seed, 0xFACE + k).wire_u64(),
        };
        run_job(
            &inp,
            warm,
            &Tracer::new(false),
            &mut Counters::default(),
            0,
            None,
        );
        out.setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some(inp);
    }
    let inp = inputs.expect("set-up ran");

    let (untraced, outs) = pass(
        &inp,
        opts,
        &Tracer::new(false),
        &mut Counters::default(),
        None,
        &mut out,
    );
    check_rerun(&inp, opts, &outs, &mut out);
    let digest = round_digest(&outs);
    out.precision_gain_pct = Some(precision_gain_pct(&outs));
    out.notes.push(format!("first-round row digest: {digest}"));
    crate::digest_file_check(&mut out, opts, "pipeline_paper", &digest);

    if opts.trace {
        let mut counters = Counters::default();
        let (traced, touts) = pass(
            &inp,
            opts,
            tr,
            &mut counters,
            Some(untraced.attempted),
            &mut out,
        );
        out.check(round_digest(&touts) == digest, || {
            "traced copies of the core scoring functions scored differently from the core functions"
                .into()
        });
        out.traced = Some(traced);
        out.counters = counters;
        out.spans = tr.spans();
    }
    out.untraced = untraced;
    out
}
