//! Subcommand implementations.

use crate::args::Args;
use qaprox::prelude::*;
use qaprox_serve::{Client, ExecCtl, JobSpec, RunSpec, SynthSpec};
use qaprox_serve::{SchedulerConfig, Server, ServerConfig};
use qaprox_store::json::Json;
use qaprox_store::Store;
use std::sync::Arc;
use std::time::Duration;

/// How a failed invocation should terminate. The static-analysis
/// subcommands (`lint`, `analyze`, `equiv`) distinguish "the tool found
/// deny-level defects" (exit 3) from "the tool itself failed" (exit 1) so CI
/// can gate on findings without swallowing operational errors; argument
/// parse errors exit 2 (handled in `main`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Operational failure: bad usage, unreadable file, unknown device,
    /// backend error. Exit code 1.
    Failure(String),
    /// The command ran to completion and produced deny-level findings.
    /// Exit code 3.
    Findings(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Failure(_) => 1,
            CliError::Findings(_) => 3,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failure(msg)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Failure(m) | CliError::Findings(m) => f.write_str(m),
        }
    }
}

/// Help text.
pub const USAGE: &str = "\
qaprox - approximate quantum circuits on noisy devices

USAGE:
  qaprox <subcommand> [--option value]...

EXIT CODES:
  0  success          1  operational failure
  2  bad arguments    3  deny-level findings (lint/analyze/equiv)

GLOBAL OPTIONS:
  --jobs N        cap worker threads
                  (precedence: --jobs, then QAPROX_JOBS env, then
                  QAPROX_THREADS env, then all cores)
  --store DIR     artifact-store root (default: QAPROX_STORE env, then .qaprox-store)
  --no-store      disable the artifact store (synth/run recompute from scratch)

SUBCOMMANDS:
  synth     synthesize an approximate-circuit population for a workload
              --workload tfim|tfim-r|grover|toffoli   (default tfim)
                             (tfim-r: tfim under a commuting reorder --
                              same physics, different cache keys)
              --qubits N                       (default 3)
              --steps K      TFIM timestep     (default 6)
              --max-cnots D                    (default 6)
              --max-hs T     selection cutoff  (default 0.12)
              --max-nodes N  search budget     (default 150)
              --seed S       instantiation seed (default 0)
              --stats        print synthesis perf counters (memo hits/misses)
  run       evaluate the population against the reference under noise
              (synth options plus:)
              --device NAME  ourense|rome|santiago|toronto|manhattan
              --cx-error E   override uniform CNOT error
              --hardware     use the hardware-emulation backend
              --backend B    trajectory: score on the Monte-Carlo trajectory
                             backend (2^n per shot instead of the 4^n density
                             matrix); required for --qubits above 6, which
                             unlocks the 27q/65q devices (docs/SIM.md)
                             (default: QAPROX_BACKEND env, then density)
              --shots N      trajectory shot count (default 512)
              --job-seed S   backend noise seed (default 0)
              --epsilon E    certify candidates at closeness E before
                             simulating; enables the store's certified
                             fast path (see docs/EQUIV.md, docs/SERVE.md)
  serve     start the TCP job service (blocks until a client sends shutdown)
              --addr HOST:PORT                 (default 127.0.0.1:7878)
              --workers N    worker threads    (default 2)
              --queue N      queue capacity    (default 64)
              --timeout-secs T  per-job wall-clock budget (default: none)
              --max-queued-cost N  admission control: reject submissions
                             once the queue's predicted cost exceeds N
                             (overloaded responses carry a retry hint)
              --stall-timeout-secs T  watchdog: quarantine a job that
                             holds a worker past T seconds
              --journal DIR  durable job journal: replayed on restart,
                             lost jobs re-enqueue and resume from their
                             last store checkpoint (see docs/FAULTS.md)
  submit    submit a job to a running service and print its result
              --addr HOST:PORT                 (default 127.0.0.1:7878)
              --op synth|run                   (default synth)
              (synth/run options as above)
              --no-wait      print the job id and return immediately
              --timeout-secs T  wait budget    (default 600)
              --deadline-ms T  job freshness TTL: the service sheds the
                             job instead of running it once T elapses
  store     inspect the artifact store
              qaprox store stats               cache counters and sizes
              qaprox store gc --max-bytes N    evict least-recently-used artifacts
  devices   list the built-in calibration snapshots
  report    print a device noise report (--device NAME)
  show      dump the reference circuit as QASM (workload options)
  lint      statically analyze QASM files for defects (exit 3 on errors)
              qaprox lint PATH... [--format text|json]
              (a directory PATH is scanned recursively for *.qasm files)
              --device NAME  check connectivity + calibration sanity;
                             implies --strict-connectivity unless QA106 is
                             explicitly re-leveled via --allow/--warn/--deny
              --strict-connectivity  treat coupling violations as errors
              --allow/--warn/--deny CODE[,CODE...]  adjust lint levels
              (includes the QA6xx commutation pass: QA601 commutation-enabled
               cancellation, QA602 commutation-enabled rotation merge,
               QA603 commuting reorder shortens the schedule)
  analyze   static noise-budget estimate for a circuit (no simulation)
              qaprox analyze [PATH...] [--format text|json]
              (no PATH: analyze the workload reference; workload options apply)
              --device NAME  calibration snapshot     (default ourense)
              --cx-error E   override uniform CNOT error
              --min-fidelity F        flag QA401 below this bound
              --min-qubit-fidelity F  flag QA402 below this per-qubit budget
              --check-shots N  cross-check the static prediction against an
                               N-shot trajectory simulation (prints the
                               simulated TVD and classical fidelity next to
                               the static bound, plus a per-file health
                               summary when numerical sentinels aborted
                               shots; --job-seed applies; multiple files of
                               one width share a shot-batched pass)
              --no-relaxation  ignore T1/T2 during idle+gate windows
              --no-readout     ignore measurement error
              --allow/--warn/--deny CODE[,CODE...]  adjust lint levels
  equiv     certified noisy equivalence check between two circuits
              qaprox equiv A.qasm B.qasm [--format text|json]
              --device NAME   calibration snapshot    (default ourense)
              --cx-error E    override uniform CNOT error
              --epsilon E     closeness target        (default 0.1)
              --no-relaxation ignore T1/T2 in the noise terms
              --ideal-max-qubits N  width cap for the exact ideal-TV pass
                                    (default 12; 0 disables)
              --allow/--warn/--deny CODE[,CODE...]  adjust lint levels
              (QA501 epsilon-equivalence violated [deny], QA502 undecidable
               [warn], QA503 noise dominates approximation [warn];
               commutation-equivalent reorders are discharged at the
               certified reorder noise charge, see docs/EQUIV.md)
  help      this text
";

/// Routes a parsed command line.
pub fn dispatch(args: &Args) -> Result<(), CliError> {
    apply_jobs(args)?;
    match args.command.as_str() {
        "synth" => cmd_synth(args).map_err(CliError::from),
        "run" => cmd_run(args).map_err(CliError::from),
        "serve" => cmd_serve(args).map_err(CliError::from),
        "submit" => cmd_submit(args).map_err(CliError::from),
        "store" => cmd_store(args).map_err(CliError::from),
        "devices" => cmd_devices().map_err(CliError::from),
        "report" => cmd_report(args).map_err(CliError::from),
        "show" => cmd_show(args).map_err(CliError::from),
        "lint" => cmd_lint(args),
        "analyze" => cmd_analyze(args),
        "equiv" => cmd_equiv(args),
        "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Failure(format!(
            "unknown subcommand '{other}'\n\n{USAGE}"
        ))),
    }
}

/// Applies the global `--jobs N` thread cap before any computation starts.
fn apply_jobs(args: &Args) -> Result<(), String> {
    if let Some(n) = args.get::<usize>("jobs")? {
        if n == 0 {
            return Err("--jobs must be at least 1".into());
        }
        qaprox_linalg::parallel::set_max_threads(n);
    }
    Ok(())
}

/// Resolves the artifact store: `--no-store` disables it; otherwise the root
/// comes from `--store DIR`, then `QAPROX_STORE`, then `.qaprox-store`.
fn store_from(args: &Args) -> Result<Option<Store>, String> {
    if args.flag("no-store") {
        return Ok(None);
    }
    let root = match args.options.get("store") {
        Some(dir) => dir.clone(),
        None => std::env::var("QAPROX_STORE").unwrap_or_else(|_| ".qaprox-store".into()),
    };
    Store::open(&root)
        .map(Some)
        .map_err(|e| format!("cannot open store '{root}': {e}"))
}

/// Builds a [`SynthSpec`] from the shared workload/synthesis options.
fn synth_spec_from(args: &Args) -> Result<SynthSpec, String> {
    let d = SynthSpec::default();
    Ok(SynthSpec {
        workload: args.str_or("workload", &d.workload),
        qubits: args.get_or("qubits", d.qubits)?,
        steps: args.get_or("steps", d.steps)?,
        max_cnots: args.get_or("max-cnots", d.max_cnots)?,
        max_nodes: args.get_or("max-nodes", d.max_nodes)?,
        max_hs: args.get_or("max-hs", d.max_hs)?,
        seed: args.get_or("seed", d.seed)?,
        // a client-side freshness TTL, honored by the service scheduler
        // (expired jobs are shed before dispatch); local runs ignore it
        deadline_ms: args.get("deadline-ms")?,
    })
}

/// Builds a [`RunSpec`] from the synth options plus the backend options.
fn run_spec_from(args: &Args) -> Result<RunSpec, String> {
    let d = RunSpec::default();
    let epsilon: Option<f64> = args.get("epsilon")?;
    if let Some(eps) = epsilon {
        if eps.is_nan() || eps < 0.0 {
            return Err(format!("--epsilon: must be non-negative, got {eps}"));
        }
    }
    // --backend wins over the QAPROX_BACKEND env (mirrors --store/QAPROX_STORE)
    let backend = match args.options.get("backend") {
        Some(b) => Some(b.clone()),
        None => std::env::var("QAPROX_BACKEND")
            .ok()
            .filter(|b| !b.is_empty()),
    };
    Ok(RunSpec {
        synth: synth_spec_from(args)?,
        device: args.str_or("device", &d.device),
        cx_error: args.get("cx-error")?,
        hardware: args.flag("hardware"),
        job_seed: args.get_or("job-seed", d.job_seed)?,
        backend,
        shots: args.get("shots")?,
        epsilon,
    })
}

/// Builds the reference circuit for the requested workload. Delegates to
/// the serve-side spec so the CLI and the service agree on every workload,
/// including the wide (> 6 qubit) TFIM references that only the trajectory
/// path can execute but `show`/`analyze` can still inspect statically.
fn reference_circuit(args: &Args) -> Result<Circuit, String> {
    let spec = synth_spec_from(args)?;
    if spec.qubits > qaprox_serve::MAX_SYNTH_QUBITS {
        spec.wide_reference_circuit()
    } else {
        spec.reference_circuit()
    }
}

fn cache_note(cached: bool, resumed_from: usize, key_hex: &str, store: Option<&Store>) -> String {
    match (store, cached, resumed_from) {
        (None, ..) => "# store: disabled".to_string(),
        (Some(_), true, _) => format!("# store: hit key={key_hex}"),
        (Some(_), false, 0) => format!("# store: miss key={key_hex}"),
        (Some(_), false, n) => format!("# store: miss key={key_hex} (resumed from {n} nodes)"),
    }
}

fn cmd_synth(args: &Args) -> Result<(), String> {
    let spec = synth_spec_from(args)?;
    let reference = spec.reference_circuit()?;
    let store = store_from(args)?;
    let pop = qaprox_serve::obtain_population(store.as_ref(), &spec, &ExecCtl::default())?;
    println!(
        "{}",
        cache_note(pop.cached, pop.resumed_from, &pop.key.hex(), store.as_ref())
    );
    println!(
        "# reference: {} gates, {} CNOTs; explored {} candidates, kept {}",
        reference.len(),
        reference.cx_count(),
        pop.population.explored,
        pop.population.circuits.len()
    );
    println!("cnots,hs_distance,gates,depth");
    for ap in &pop.population.circuits {
        println!(
            "{},{:.5},{},{}",
            ap.cnots,
            ap.hs_distance,
            ap.circuit.len(),
            ap.circuit.depth()
        );
    }
    println!(
        "# minimal-HS: {} CNOTs at {:.2e}",
        pop.population.minimal_hs.cnots, pop.population.minimal_hs.hs_distance
    );
    if args.flag("stats") {
        let s = &pop.population.stats;
        let total = s.memo_hits + s.memo_misses;
        let rate = if total > 0 {
            100.0 * s.memo_hits as f64 / total as f64
        } else {
            0.0
        };
        println!(
            "# stats: memo_hits={} memo_misses={} hit_rate={rate:.1}%",
            s.memo_hits, s.memo_misses
        );
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let spec = run_spec_from(args)?;
    let reference = spec.reference_circuit()?;
    spec.backend()?; // fail fast on a bad device before any synthesis
    let store = store_from(args)?;
    let out = qaprox_serve::obtain_run(store.as_ref(), &spec, &ExecCtl::default())?;
    let (key, result, cached, pop) = (out.key, out.result, out.cached, out.population);
    println!(
        "{}",
        cache_note(
            cached,
            pop.as_ref().map_or(0, |p| p.resumed_from),
            &key.hex(),
            store.as_ref()
        )
    );
    if let Some((source, bound)) = &out.certified {
        println!(
            "# certified: reused result {} (equivalence bound {:.3e}, no simulation)",
            source.hex(),
            bound
        );
    }
    println!(
        "# reference: {} CNOTs, TVD to ideal under noise = {:.4}",
        reference.cx_count(),
        result.ref_score
    );
    let analysis = qaprox_verify::analyze(&reference, &spec.calibration()?, &Default::default());
    println!(
        "# analysis: fidelity_bound={:.4} esp={:.4} cnot_critical_path={:.0} depth={}",
        analysis.fidelity_bound, analysis.esp, analysis.cnot_critical_path, analysis.depth
    );
    println!("cnots,hs_distance,predicted,tvd_to_ideal,beats_reference");
    let mut wins = 0usize;
    for row in &result.rows {
        let beats = row.score < result.ref_score;
        wins += beats as usize;
        println!(
            "{},{:.5},{:.4},{:.4},{}",
            row.cnots, row.hs_distance, row.predicted, row.score, beats
        );
    }
    println!(
        "# {wins}/{} approximate circuits beat the exact reference",
        result.rows.len()
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let store = store_from(args)?.map(Arc::new);
    let d = SchedulerConfig::default();
    let workers: usize = args.get_or("workers", d.workers)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let scheduler = SchedulerConfig {
        workers,
        queue_capacity: args.get_or("queue", d.queue_capacity)?,
        job_timeout: args.get("timeout-secs")?.map(Duration::from_secs),
        checkpoint_every: d.checkpoint_every,
        journal_dir: args.options.get("journal").map(std::path::PathBuf::from),
        retry: d.retry,
        breaker: d.breaker,
        admission: qaprox_serve::AdmissionConfig {
            max_queued_cost: args.get("max-queued-cost")?,
            ..Default::default()
        },
        watchdog: qaprox_serve::WatchdogConfig {
            stall_timeout: args.get("stall-timeout-secs")?.map(Duration::from_secs),
            ..Default::default()
        },
    };
    let journaled = scheduler.journal_dir.clone();
    let cfg = ServerConfig {
        addr: args.str_or("addr", "127.0.0.1:7878"),
        scheduler,
    };
    let server = Server::start(cfg, store).map_err(|e| format!("cannot start server: {e}"))?;
    println!(
        "# qaprox-serve listening on {} ({workers} workers)",
        server.local_addr()
    );
    if let Some(dir) = journaled {
        let report = server
            .scheduler()
            .recovery_report()
            .unwrap_or(Json::Bool(false));
        println!("# journal at {}: recovery {report}", dir.display());
    }
    server.wait_for_shutdown();
    Ok(())
}

/// Renders a service response payload in the same CSV-ish shape the local
/// `synth`/`run` subcommands print.
fn print_payload(payload: &Json) -> Result<(), String> {
    if payload.get_bool("degraded") == Some(true) {
        println!(
            "# DEGRADED result (fallback from {}): {}",
            payload
                .get_str("degraded_from")
                .unwrap_or("static analysis"),
            payload.get_str("error").unwrap_or("retries exhausted"),
        );
    }
    match payload.get_str("kind") {
        Some("synth") => {
            println!(
                "# key={} cached={} resumed_from={} explored={}",
                payload.get_str("key").unwrap_or("?"),
                payload.get_bool("cached").unwrap_or(false),
                payload.get_u64("resumed_from").unwrap_or(0),
                payload.get_u64("explored").unwrap_or(0),
            );
            println!("cnots,hs_distance,gates,depth");
            if let Some(Json::Arr(rows)) = payload.get("circuits") {
                for row in rows {
                    println!(
                        "{},{:.5},{},{}",
                        row.get_u64("cnots").unwrap_or(0),
                        row.get_f64("hs_distance").unwrap_or(f64::NAN),
                        row.get_u64("gates").unwrap_or(0),
                        row.get_u64("depth").unwrap_or(0),
                    );
                }
            }
            println!(
                "# minimal-HS: {} CNOTs at {:.2e}",
                payload.get_u64("minimal_cnots").unwrap_or(0),
                payload.get_f64("minimal_hs").unwrap_or(f64::NAN),
            );
            Ok(())
        }
        Some("run") => {
            let ref_score = payload.get_f64("ref_score").unwrap_or(f64::NAN);
            println!(
                "# key={} cached={} population_cached={}",
                payload.get_str("key").unwrap_or("?"),
                payload.get_bool("cached").unwrap_or(false),
                payload.get_bool("population_cached").unwrap_or(false),
            );
            println!("# reference TVD to ideal under noise = {ref_score:.4}");
            if let Some(analysis) = payload.get("analysis") {
                println!(
                    "# analysis: fidelity_bound={:.4} esp={:.4} cnot_critical_path={:.0} depth={}",
                    analysis.get_f64("fidelity_bound").unwrap_or(f64::NAN),
                    analysis.get_f64("esp").unwrap_or(f64::NAN),
                    analysis.get_f64("cnot_critical_path").unwrap_or(f64::NAN),
                    analysis.get_u64("depth").unwrap_or(0),
                );
            }
            println!("cnots,hs_distance,predicted,tvd_to_ideal,beats_reference");
            let mut total = 0usize;
            if let Some(Json::Arr(rows)) = payload.get("rows") {
                total = rows.len();
                for row in rows {
                    if let Json::Arr(cells) = row {
                        if let [Json::Num(cnots), Json::Num(hs), Json::Num(predicted), Json::Num(score)] =
                            &cells[..]
                        {
                            println!(
                                "{},{hs:.5},{predicted:.4},{score:.4},{}",
                                *cnots as usize,
                                *score < ref_score
                            );
                        }
                    }
                }
            }
            println!(
                "# {}/{total} approximate circuits beat the exact reference",
                payload.get_u64("wins").unwrap_or(0)
            );
            Ok(())
        }
        other => Err(format!("unexpected payload kind {other:?}: {payload}")),
    }
}

fn cmd_submit(args: &Args) -> Result<(), String> {
    let spec = match args.str_or("op", "synth").as_str() {
        "synth" => JobSpec::Synth(synth_spec_from(args)?),
        "run" => JobSpec::Run(run_spec_from(args)?),
        other => return Err(format!("--op: expected synth|run, got '{other}'")),
    };
    let addr = args.str_or("addr", "127.0.0.1:7878");
    let mut client = Client::connect(&addr)?;
    let (id, key, deduped) = client.submit(&spec).map_err(|e| e.to_string())?;
    println!("# job id={id} key={key} deduped={deduped}");
    if args.flag("no-wait") {
        return Ok(());
    }
    let timeout = Duration::from_secs(args.get_or("timeout-secs", 600u64)?);
    let payload = client.wait_for_result(id, timeout)?;
    print_payload(&payload)
}

fn cmd_store(args: &Args) -> Result<(), String> {
    let store = store_from(args)?
        .ok_or_else(|| "store commands need a store (drop --no-store)".to_string())?;
    match args.positional.first().map(String::as_str) {
        Some("stats") => {
            let s = store.stats();
            println!("hits,misses,puts,populations,partials,results,total_bytes");
            println!(
                "{},{},{},{},{},{},{}",
                s.hits, s.misses, s.puts, s.entries.0, s.entries.1, s.entries.2, s.total_bytes
            );
            Ok(())
        }
        Some("gc") => {
            let max_bytes: u64 = args
                .get("max-bytes")?
                .ok_or("store gc needs --max-bytes N")?;
            let report = store.gc(max_bytes).map_err(|e| e.to_string())?;
            println!("evicted,reclaimed_bytes,remaining_bytes");
            println!(
                "{},{},{}",
                report.evicted, report.reclaimed_bytes, report.remaining_bytes
            );
            Ok(())
        }
        Some(other) => Err(format!("store: expected stats|gc, got '{other}'")),
        None => Err("store: give a subcommand (stats|gc)".into()),
    }
}

fn cmd_devices() -> Result<(), String> {
    println!("machine,qubits,avg_cx_error,avg_readout_error");
    for cal in devices::all_devices() {
        println!(
            "{},{},{:.5},{:.5}",
            cal.machine,
            cal.topology.num_qubits(),
            cal.avg_cx_error(),
            cal.avg_readout_error()
        );
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let device = args.str_or("device", "toronto");
    let cal = devices::by_name(&device).ok_or_else(|| format!("unknown device '{device}'"))?;
    print!("{}", qaprox_device::render_report(&cal));
    Ok(())
}

fn cmd_show(args: &Args) -> Result<(), String> {
    let reference = reference_circuit(args)?;
    print!("{}", qaprox_circuit::qasm::to_qasm(&reference));
    Ok(())
}

/// Builds a [`LintConfig`](qaprox_verify::LintConfig) from
/// `--allow/--warn/--deny CODE[,CODE...]` and `--strict-connectivity`.
///
/// Giving `--device` implies strict connectivity (QA106 at deny): a lint run
/// against a concrete coupling map is a routing check, and an unrouted gate
/// can never execute there. An explicit QA106 entry in `--allow/--warn/--deny`
/// overrides the implication.
fn lint_config_from(args: &Args) -> Result<qaprox_verify::LintConfig, String> {
    use qaprox_verify::{LintCode, LintConfig, LintLevel};
    let mut cfg = if args.flag("strict-connectivity") {
        LintConfig::strict_connectivity()
    } else {
        LintConfig::new()
    };
    let mut qa106_explicit = false;
    for (key, level) in [
        ("allow", LintLevel::Allow),
        ("warn", LintLevel::Warn),
        ("deny", LintLevel::Deny),
    ] {
        if let Some(raw) = args.options.get(key) {
            for tok in raw.split(',') {
                let code = LintCode::parse(tok.trim())
                    .ok_or_else(|| format!("--{key}: unknown lint code '{}'", tok.trim()))?;
                qa106_explicit |= code == LintCode::ConnectivityViolation;
                cfg.set(code, level);
            }
        }
    }
    if args.options.contains_key("device") && !qa106_explicit {
        cfg.set(LintCode::ConnectivityViolation, LintLevel::Deny);
    }
    Ok(cfg)
}

/// Expands lint/analyze positionals: a directory is scanned recursively for
/// `*.qasm` files (sorted for stable output), anything else passes through.
fn expand_qasm_paths(positional: &[String]) -> Result<Vec<String>, String> {
    fn walk(dir: &std::path::Path, out: &mut Vec<String>) -> Result<(), String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read '{}': {e}", dir.display()))?;
        let mut paths: Vec<_> = entries
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot read '{}': {e}", dir.display()))?;
        paths.sort();
        for p in paths {
            if p.is_dir() {
                walk(&p, out)?;
            } else if p.extension().is_some_and(|x| x == "qasm") {
                out.push(p.to_string_lossy().into_owned());
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for path in positional {
        if std::path::Path::new(path).is_dir() {
            let before = files.len();
            walk(std::path::Path::new(path), &mut files)?;
            if files.len() == before {
                return Err(format!("no .qasm files under '{path}'"));
            }
        } else {
            files.push(path.clone());
        }
    }
    Ok(files)
}

/// Statically analyzes QASM files (and optionally a device calibration) and
/// reports diagnostics; returns `Err` — i.e. a non-zero exit — when any
/// deny-level finding is produced. Directory arguments are scanned
/// recursively for `*.qasm` files.
fn cmd_lint(args: &Args) -> Result<(), CliError> {
    if args.positional.is_empty() {
        return Err(CliError::Failure(
            "lint: give at least one QASM file or directory".into(),
        ));
    }
    let cfg = lint_config_from(args)?;
    let json = args.json_format()?;
    let calibration = match args.options.get("device") {
        Some(name) => {
            Some(devices::by_name(name).ok_or_else(|| format!("unknown device '{name}'"))?)
        }
        None => None,
    };

    let mut total_errors = 0usize;
    for path in &expand_qasm_paths(&args.positional)? {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        let raw = qaprox_circuit::from_qasm_lenient(&text)
            .map_err(|e| format!("{path}: parse error: {e}"))?;
        let mut report = qaprox_verify::lint_program(
            raw.num_qubits,
            raw.num_clbits,
            &raw.instructions,
            &raw.measures,
            calibration.as_ref().map(|cal| &cal.topology),
            &cfg,
        );
        if let Some(cal) = &calibration {
            report.extend(qaprox_verify::lint_calibration(cal, &cfg));
        }
        total_errors += report.error_count();
        if json {
            println!("{}", report.to_json());
        } else {
            println!("# {path}");
            print!("{}", report.to_text());
        }
    }
    if total_errors > 0 {
        Err(CliError::Findings(format!(
            "lint found {total_errors} error(s)"
        )))
    } else {
        Ok(())
    }
}

/// Builds [`AnalyzeOptions`](qaprox_verify::AnalyzeOptions) from the
/// `--no-relaxation/--no-readout/--min-fidelity/--min-qubit-fidelity` flags.
fn analyze_options_from(args: &Args) -> Result<qaprox_verify::AnalyzeOptions, String> {
    Ok(qaprox_verify::AnalyzeOptions {
        include_relaxation: !args.flag("no-relaxation"),
        include_readout: !args.flag("no-readout"),
        min_fidelity: args.get("min-fidelity")?,
        min_qubit_fidelity: args.get("min-qubit-fidelity")?,
    })
}

/// Static noise-budget estimate (`qaprox analyze`): no simulation, just the
/// dataflow analyses plus the abstract success-probability interpreter from
/// `qaprox-verify`. Analyzes QASM files when paths are given, the workload
/// reference circuit otherwise. Exits non-zero when any deny-level finding
/// fires (e.g. `--min-fidelity` with QA401 at deny).
fn cmd_analyze(args: &Args) -> Result<(), CliError> {
    let cfg = lint_config_from(args)?;
    let opts = analyze_options_from(args)?;
    let json = args.json_format()?;
    let (device, cal) = calibration_from(args)?;

    let circuits: Vec<(String, Circuit)> = if args.positional.is_empty() {
        vec![(
            format!("{} reference", args.str_or("workload", "tfim")),
            reference_circuit(args)?,
        )]
    } else {
        let mut v = Vec::new();
        for path in expand_qasm_paths(&args.positional)? {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read '{path}': {e}"))?;
            let circuit = qaprox_circuit::from_qasm(&text)
                .map_err(|e| format!("{path}: parse error: {e}"))?;
            v.push((path, circuit));
        }
        v
    };

    for (name, circuit) in &circuits {
        if circuit.num_qubits() > cal.topology.num_qubits() {
            return Err(CliError::Failure(format!(
                "{name}: {} qubits exceed device '{device}' ({} qubits)",
                circuit.num_qubits(),
                cal.topology.num_qubits()
            )));
        }
    }

    // the dynamic cross-check runs up front as one shot-batched trajectory
    // pass per circuit width (per-file results are looked up below), so an
    // analyze sweep over many QASM files pays one shot loop, not one each
    let check_shots: Option<usize> = args.get("check-shots")?;
    if check_shots == Some(0) {
        return Err(CliError::Failure("--check-shots must be at least 1".into()));
    }
    let checks = match check_shots {
        Some(shots) => Some(trajectory_check_all(&circuits, &cal, shots, args)?),
        None => None,
    };

    let mut total_errors = 0usize;
    for (i, (name, circuit)) in circuits.iter().enumerate() {
        let report = qaprox_verify::analyze_with_config(circuit, &cal, &opts, &cfg);
        total_errors += report.findings.error_count();
        if json {
            println!("{}", report.to_json());
        } else {
            println!("# {name}");
            print!("{}", report.to_text());
        }
        if let (Some(shots), Some(checks)) = (check_shots, &checks) {
            let (tvd, fidelity, health) = checks[i];
            if json {
                println!(
                    "{}",
                    Json::obj(vec![
                        ("trajectory_shots", Json::Num(shots as f64)),
                        ("tvd_to_ideal", Json::Num(tvd)),
                        ("classical_fidelity", Json::Num(fidelity)),
                        ("static_fidelity_bound", Json::Num(report.fidelity_bound)),
                        ("healthy", Json::Bool(health.is_healthy())),
                        ("clean_shots", Json::Num(health.clean_shots as f64)),
                        ("aborted_shots", Json::Num(health.aborted_shots as f64)),
                        ("nan_events", Json::Num(health.nan_events as f64)),
                        (
                            "norm_drift_events",
                            Json::Num(health.norm_drift_events as f64),
                        ),
                    ])
                );
            } else {
                println!(
                    "# trajectory check ({shots} shots): tvd_to_ideal={tvd:.4} \
                     classical_fidelity={fidelity:.4} vs static fidelity_bound={:.4}",
                    report.fidelity_bound
                );
                if !health.is_healthy() {
                    println!(
                        "# trajectory check DEGRADED: {}/{shots} shots aborted \
                         (nan={}, norm_drift={}) — the averages above use only \
                         the {} clean shots",
                        health.aborted_shots,
                        health.nan_events,
                        health.norm_drift_events,
                        health.clean_shots
                    );
                }
            }
        }
    }
    if total_errors > 0 {
        Err(CliError::Findings(format!(
            "analyze found {total_errors} error(s)"
        )))
    } else {
        Ok(())
    }
}

/// The `analyze --check-shots N` dynamic cross-check, batched: circuits are
/// grouped by width and every group is simulated as one trajectory request
/// ([`qaprox_sim::TrajectoryBackend::execute`]) in which every row carries
/// the same `--job-seed`, so each row is bit-identical to the solo
/// `probabilities(c, job_seed)` call it replaces. Returns
/// `(tvd_to_ideal, classical_fidelity, health)` per circuit, in input
/// order; the [`qaprox_sim::HealthReport`] says how many shots the
/// numerical sentinels aborted, so a file whose shots all failed is
/// surfaced instead of silently scored from an empty average. The
/// classical (Bhattacharyya) fidelity between the noisy and ideal
/// distributions is directly comparable to the analyzer's `fidelity_bound`
/// — the simulated value should sit at or above the sound static bound,
/// shot noise aside.
fn trajectory_check_all(
    circuits: &[(String, Circuit)],
    cal: &qaprox_device::Calibration,
    shots: usize,
    args: &Args,
) -> Result<Vec<(f64, f64, qaprox_sim::HealthReport)>, String> {
    let model = qaprox_sim::NoiseModel::from_calibration(cal.clone());
    let backend = qaprox_sim::TrajectoryBackend::with_shots(model, shots);
    let job_seed: u64 = args.get_or("job-seed", 0u64)?;
    let mut by_width: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, (_, c)) in circuits.iter().enumerate() {
        by_width.entry(c.num_qubits()).or_default().push(i);
    }
    let mut out = vec![(0.0, 0.0, qaprox_sim::HealthReport::default()); circuits.len()];
    for idxs in by_width.values() {
        let refs: Vec<&Circuit> = idxs.iter().map(|&i| &circuits[i].1).collect();
        let run = backend.execute(&refs, &vec![job_seed; refs.len()])?;
        for ((&i, noisy), health) in idxs.iter().zip(&run.rows).zip(run.health) {
            let ideal = qaprox_sim::statevector::probabilities(&circuits[i].1);
            let tvd = qaprox_metrics::total_variation(noisy, &ideal);
            let bhatt: f64 = noisy.iter().zip(&ideal).map(|(p, q)| (p * q).sqrt()).sum();
            out[i] = (tvd, bhatt * bhatt, health);
        }
    }
    Ok(out)
}

/// Resolves `--device` (default ourense) plus the optional `--cx-error`
/// override into a calibration snapshot.
fn calibration_from(args: &Args) -> Result<(String, qaprox_device::Calibration), String> {
    let device = args.str_or("device", "ourense");
    let mut cal = devices::by_name(&device).ok_or_else(|| format!("unknown device '{device}'"))?;
    if let Some(eps) = args.get("cx-error")? {
        cal = cal.with_uniform_cx_error(eps);
    }
    Ok((device, cal))
}

/// Certified noisy equivalence check (`qaprox equiv A.qasm B.qasm`): the
/// QA5xx abstract interpreter from `qaprox-verify`, no simulation. Exits 3
/// when any deny-level finding fires (QA501 by default).
fn cmd_equiv(args: &Args) -> Result<(), CliError> {
    if args.positional.len() != 2 {
        return Err(CliError::Failure(
            "equiv: give exactly two QASM files to compare".into(),
        ));
    }
    let cfg = lint_config_from(args)?;
    let json = args.json_format()?;
    let (device, cal) = calibration_from(args)?;
    let epsilon: f64 = args.get_or("epsilon", 0.1)?;
    // an infinite epsilon would certify every pair, and JSON cannot carry it
    if !epsilon.is_finite() || epsilon < 0.0 {
        return Err(CliError::Failure(format!(
            "--epsilon: must be finite and non-negative, got {epsilon}"
        )));
    }
    let ideal_max: usize = args.get_or("ideal-max-qubits", 12)?;

    let mut circuits = Vec::new();
    for path in &args.positional {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        let circuit =
            qaprox_circuit::from_qasm(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
        circuits.push(circuit);
    }
    let (a, b) = (&circuits[0], &circuits[1]);
    if a.num_qubits() != b.num_qubits() {
        return Err(CliError::Failure(format!(
            "equiv: width mismatch: '{}' has {} qubit(s), '{}' has {}",
            args.positional[0],
            a.num_qubits(),
            args.positional[1],
            b.num_qubits()
        )));
    }
    if a.num_qubits() > cal.topology.num_qubits() {
        return Err(CliError::Failure(format!(
            "{} qubits exceed device '{device}' ({} qubits)",
            a.num_qubits(),
            cal.topology.num_qubits()
        )));
    }

    let opts = qaprox_verify::EquivOptions {
        epsilon,
        include_relaxation: !args.flag("no-relaxation"),
        ideal_tv_max_qubits: ideal_max,
    };
    let report = qaprox_verify::check_equivalence_with_config(a, b, &cal, &opts, &cfg);
    if json {
        println!("{}", report.to_json());
    } else {
        println!("# {} vs {}", args.positional[0], args.positional[1]);
        print!("{}", report.to_text());
    }
    let errors = report.findings.error_count();
    if errors > 0 {
        Err(CliError::Findings(format!("equiv found {errors} error(s)")))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run(v: &[&str]) -> Result<(), CliError> {
        dispatch(&parse(v.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn devices_and_report_succeed() {
        assert!(run(&["devices"]).is_ok());
        assert!(run(&["report", "--device", "ourense"]).is_ok());
        assert!(run(&["report", "--device", "nope"]).is_err());
    }

    #[test]
    fn show_emits_qasm_for_all_workloads() {
        for w in ["tfim", "tfim-r", "grover", "toffoli"] {
            assert!(
                run(&["show", "--workload", w, "--qubits", "3"]).is_ok(),
                "{w}"
            );
        }
        assert!(run(&["show", "--workload", "unknown"]).is_err());
    }

    fn temp_store(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("qaprox-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    const TINY: &[&str] = &[
        "--workload",
        "tfim",
        "--qubits",
        "2",
        "--steps",
        "2",
        "--max-cnots",
        "3",
        "--max-nodes",
        "25",
        "--max-hs",
        "0.4",
    ];

    fn with_tiny(front: &[&str], back: &[&str]) -> Vec<&'static str> {
        // leak is fine in tests; keeps the call sites readable
        let mut v: Vec<&str> = front.to_vec();
        v.extend_from_slice(TINY);
        v.extend_from_slice(back);
        v.iter()
            .map(|s| &*Box::leak(s.to_string().into_boxed_str()))
            .collect()
    }

    #[test]
    fn synth_small_population_without_store() {
        assert!(run(&with_tiny(&["synth"], &["--no-store"])).is_ok());
    }

    #[test]
    fn synth_populates_and_then_hits_the_store() {
        let dir = temp_store("synth");
        assert!(run(&with_tiny(&["synth"], &["--store", &dir])).is_ok());
        assert!(run(&with_tiny(&["synth"], &["--store", &dir])).is_ok());
        let stats = qaprox_store::Store::open(&dir).unwrap().stats();
        assert!(stats.puts >= 1, "{stats:?}");
        assert!(stats.hits >= 1, "second invocation must hit: {stats:?}");
    }

    #[test]
    fn run_small_end_to_end() {
        let dir = temp_store("run");
        let tail = ["--device", "ourense", "--cx-error", "0.1", "--store"];
        let mut back: Vec<&str> = tail.to_vec();
        back.push(&dir);
        assert!(run(&with_tiny(&["run"], &back)).is_ok());
        // the result itself is now cached
        assert!(run(&with_tiny(&["run"], &back)).is_ok());
        let stats = qaprox_store::Store::open(&dir).unwrap().stats();
        assert!(stats.entries.2 >= 1, "a result artifact exists: {stats:?}");
        assert!(stats.hits >= 1, "{stats:?}");
    }

    #[test]
    fn store_stats_and_gc_commands() {
        let dir = temp_store("storecmd");
        assert!(run(&with_tiny(&["synth"], &["--store", &dir])).is_ok());
        assert!(run(&["store", "stats", "--store", &dir]).is_ok());
        assert!(run(&["store", "gc", "--max-bytes", "0", "--store", &dir]).is_ok());
        let stats = qaprox_store::Store::open(&dir).unwrap().stats();
        assert_eq!(stats.total_bytes, 0, "gc to zero empties the store");
        // usage errors
        assert!(run(&["store", "gc", "--store", &dir]).is_err());
        assert!(run(&["store", "frobnicate", "--store", &dir]).is_err());
        assert!(run(&["store", "stats", "--no-store"]).is_err());
    }

    #[test]
    fn submit_round_trips_through_a_live_server() {
        let store = std::sync::Arc::new(qaprox_store::Store::open(temp_store("submit")).unwrap());
        let server =
            qaprox_serve::Server::start(qaprox_serve::ServerConfig::default(), Some(store))
                .unwrap();
        let addr = server.local_addr().to_string();
        assert!(run(&with_tiny(&["submit"], &["--addr", &addr])).is_ok());
        // resubmit: served from the store this time
        assert!(run(&with_tiny(&["submit"], &["--addr", &addr])).is_ok());
        let mut back: Vec<&str> = vec!["--addr", &addr, "--op", "run", "--cx-error", "0.1"];
        back.push("--no-wait");
        assert!(run(&with_tiny(&["submit"], &back)).is_ok());
        assert!(run(&["submit", "--addr", &addr, "--op", "frobnicate"]).is_err());
        server.shutdown();
    }

    #[test]
    fn submit_reports_connection_failures() {
        // a port nothing listens on
        let e = run(&["submit", "--addr", "127.0.0.1:1", "--no-wait"]).unwrap_err();
        assert!(e.to_string().contains("connect"), "{e}");
    }

    #[test]
    fn jobs_flag_validates_and_applies() {
        assert!(run(&["devices", "--jobs", "0"]).is_err());
        assert!(run(&["devices", "--jobs", "abc"]).is_err());
        assert!(run(&["devices", "--jobs", "2"]).is_ok());
        assert_eq!(qaprox_linalg::parallel::max_threads(), 2);
        qaprox_linalg::parallel::set_max_threads(0); // restore the default
    }

    #[test]
    fn serve_rejects_bad_options() {
        assert!(run(&["serve", "--workers", "0", "--no-store"]).is_err());
        assert!(run(&["serve", "--timeout-secs", "abc", "--no-store"]).is_err());
        assert!(run(&["serve", "--max-queued-cost", "abc", "--no-store"]).is_err());
        assert!(run(&["serve", "--stall-timeout-secs", "abc", "--no-store"]).is_err());
        assert!(run(&["serve", "--addr", "256.0.0.1:99999", "--no-store"]).is_err());
    }

    fn temp_qasm(name: &str, body: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn lint_passes_clean_circuits() {
        let p = temp_qasm(
            "qaprox_lint_clean.qasm",
            "qreg q[2];\nh q[0];\ncx q[0],q[1];\n",
        );
        assert!(run(&["lint", &p]).is_ok());
        assert!(run(&["lint", &p, "--format", "json"]).is_ok());
        assert!(run(&["lint", &p, "--device", "ourense"]).is_ok());
    }

    #[test]
    fn lint_fails_on_defects_and_respects_levels() {
        let p = temp_qasm(
            "qaprox_lint_bad.qasm",
            "qreg q[2];\nh q[7];\ncx q[0],q[0];\n",
        );
        let e = run(&["lint", &p]).unwrap_err();
        assert!(e.to_string().contains("error"), "{e}");
        assert_eq!(e.exit_code(), 3, "findings map to the findings exit code");
        // demoting both codes to allow silences the failure
        assert!(run(&["lint", &p, "--allow", "QA101,QA102"]).is_ok());
        // an unknown code is rejected up front
        assert!(run(&["lint", &p, "--deny", "QA999"]).is_err());
    }

    #[test]
    fn lint_strict_connectivity_flags_unrouted_gates() {
        // ourense has no (0,4) edge: --device now implies strict connectivity,
        // so the unrouted gate errors unless QA106 is explicitly demoted
        let p = temp_qasm("qaprox_lint_conn.qasm", "qreg q[5];\ncx q[0],q[4];\n");
        assert!(run(&["lint", &p, "--device", "ourense"]).is_err());
        assert!(run(&["lint", &p, "--device", "ourense", "--warn", "QA106"]).is_ok());
        assert!(run(&["lint", &p, "--device", "ourense", "--strict-connectivity"]).is_err());
        // without a device there is no coupling map to violate
        assert!(run(&["lint", &p]).is_ok());
    }

    #[test]
    fn lint_recurses_directories_and_reports_dataflow_codes() {
        let dir = std::env::temp_dir().join(format!("qaprox-lint-dir-{}", std::process::id()));
        let sub = dir.join("nested");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(
            dir.join("clean.qasm"),
            "qreg q[2];\nh q[0];\ncx q[0],q[1];\n",
        )
        .unwrap();
        // h;h cancels: QA302 fires (warn by default, deniable)
        std::fs::write(sub.join("pair.qasm"), "qreg q[1];\nh q[0];\nh q[0];\n").unwrap();
        std::fs::write(sub.join("notes.txt"), "not qasm").unwrap();
        let d = dir.to_string_lossy().into_owned();
        assert!(run(&["lint", &d]).is_ok());
        assert!(run(&["lint", &d, "--deny", "QA302"]).is_err());
        // a directory without any .qasm files is a usage error
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let e = empty.to_string_lossy().into_owned();
        assert!(run(&["lint", &e]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lint_understands_measurement_programs() {
        // gate after final measurement (QA304) + unread clbit via out-of-range
        // measure target (QA306) both surface through the CLI
        let p = temp_qasm(
            "qaprox_lint_meas.qasm",
            "qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nx q[0];\n",
        );
        assert!(run(&["lint", &p]).is_ok());
        assert!(run(&["lint", &p, "--deny", "QA304"]).is_err());
    }

    #[test]
    fn analyze_reference_circuit_and_thresholds() {
        assert!(run(&["analyze", "--qubits", "3", "--steps", "2"]).is_ok());
        assert!(run(&["analyze", "--format", "json"]).is_ok());
        // an impossible fidelity floor at deny level fails the command
        assert!(run(&["analyze", "--min-fidelity", "1.5", "--deny", "QA401"]).is_err());
        // same floor at the default warn level merely reports
        assert!(run(&["analyze", "--min-fidelity", "1.5"]).is_ok());
        assert!(run(&["analyze", "--device", "nowhere"]).is_err());
        assert!(run(&["analyze", "--format", "yaml"]).is_err());
        assert!(run(&["analyze", "--cx-error", "abc"]).is_err());
    }

    #[test]
    fn analyze_qasm_files_and_relaxation_toggle() {
        let p = temp_qasm(
            "qaprox_analyze.qasm",
            "qreg q[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n",
        );
        assert!(run(&["analyze", &p]).is_ok());
        assert!(run(&["analyze", &p, "--no-relaxation", "--no-readout"]).is_ok());
        assert!(run(&["analyze", &p, "--cx-error", "0.2", "--format", "json"]).is_ok());
        // a 6-qubit circuit exceeds 5-qubit ourense but fits 27-qubit toronto
        let big = temp_qasm("qaprox_analyze_big.qasm", "qreg q[6];\nh q[0];\n");
        assert!(run(&["analyze", &big, "--device", "ourense"]).is_err());
        assert!(run(&["analyze", &big, "--device", "toronto"]).is_ok());
    }

    #[test]
    fn lint_rejects_bad_usage() {
        assert!(run(&["lint"]).is_err());
        assert!(run(&["lint", "/nonexistent/file.qasm"]).is_err());
        let p = temp_qasm("qaprox_lint_fmt.qasm", "qreg q[1];\nx q[0];\n");
        assert!(run(&["lint", &p, "--format", "yaml"]).is_err());
    }

    #[test]
    fn run_rejects_bad_inputs() {
        assert!(run(&["run", "--qubits", "9"]).is_err());
        assert!(run(&["run", "--device", "nowhere"]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        // trajectory-specific usage errors
        assert!(run(&["run", "--backend", "frobnicate", "--no-store"]).is_err());
        assert!(run(&["run", "--backend", "trajectory", "--hardware", "--no-store"]).is_err());
        assert!(run(&["run", "--shots", "abc", "--no-store"]).is_err());
        // wide widths still need the trajectory backend...
        assert!(run(&["run", "--qubits", "8", "--device", "toronto", "--no-store"]).is_err());
        // ...and a device wide enough to hold them
        assert!(run(&[
            "run",
            "--qubits",
            "8",
            "--backend",
            "trajectory",
            "--device",
            "ourense",
            "--no-store"
        ])
        .is_err());
    }

    #[test]
    fn run_command_on_trajectory_backend_narrow_and_wide() {
        // narrow: the trajectory backend scores a synthesized population
        assert!(run(&with_tiny(
            &["run"],
            &["--backend", "trajectory", "--shots", "16", "--no-store"]
        ))
        .is_ok());
        // wide: past the synthesis cap, straight to Trotter truncations on
        // the 27-qubit heavy-hex device (tiny shot count keeps it fast)
        assert!(run(&[
            "run",
            "--workload",
            "tfim",
            "--qubits",
            "8",
            "--steps",
            "2",
            "--backend",
            "trajectory",
            "--shots",
            "8",
            "--device",
            "toronto",
            "--no-store",
        ])
        .is_ok());
        // show/analyze inspect the wide reference statically
        assert!(run(&[
            "show",
            "--workload",
            "tfim",
            "--qubits",
            "27",
            "--steps",
            "2"
        ])
        .is_ok());
        assert!(run(&["analyze", "--qubits", "27", "--steps", "2", "--device", "toronto"]).is_ok());
    }

    #[test]
    fn backend_env_var_applies_when_flag_absent() {
        let args = parse(["run", "--qubits", "2"].iter().map(|s| s.to_string())).unwrap();
        std::env::set_var("QAPROX_BACKEND", "trajectory");
        let spec = run_spec_from(&args).unwrap();
        std::env::remove_var("QAPROX_BACKEND");
        assert_eq!(spec.backend.as_deref(), Some("trajectory"));
        // the explicit flag wins over the env
        let args = parse(["run", "--backend", "other"].iter().map(|s| s.to_string())).unwrap();
        std::env::set_var("QAPROX_BACKEND", "trajectory");
        let spec = run_spec_from(&args).unwrap();
        std::env::remove_var("QAPROX_BACKEND");
        assert_eq!(spec.backend.as_deref(), Some("other"));
        // and no flag, no env means the default density-matrix path
        let args = parse(["run"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(run_spec_from(&args).unwrap().backend, None);
    }

    #[test]
    fn analyze_check_shots_cross_checks_the_prediction() {
        assert!(run(&[
            "analyze",
            "--qubits",
            "3",
            "--steps",
            "2",
            "--check-shots",
            "64"
        ])
        .is_ok());
        assert!(run(&[
            "analyze",
            "--qubits",
            "3",
            "--steps",
            "2",
            "--check-shots",
            "32",
            "--format",
            "json"
        ])
        .is_ok());
        assert!(run(&["analyze", "--check-shots", "abc"]).is_err());
        assert!(run(&["analyze", "--check-shots", "0"]).is_err());
    }

    #[test]
    fn analyze_check_shots_batches_across_files() {
        // three files, two widths: the cross-check groups by width and runs
        // one shot-batched trajectory pass per group
        let a = temp_qasm("qaprox_ck_a.qasm", "qreg q[2];\nh q[0];\ncx q[0],q[1];\n");
        let b = temp_qasm("qaprox_ck_b.qasm", "qreg q[2];\nx q[0];\n");
        let c = temp_qasm(
            "qaprox_ck_c.qasm",
            "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n",
        );
        assert!(run(&["analyze", &a, &b, &c, "--check-shots", "16"]).is_ok());
    }

    #[test]
    fn check_shots_health_reports_count_every_clean_shot() {
        let args = parse(
            ["analyze", "--qubits", "2", "--steps", "2"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let (_, cal) = calibration_from(&args).unwrap();
        let circuit = reference_circuit(&args).unwrap();
        let checks = trajectory_check_all(&[("ref".to_string(), circuit)], &cal, 8, &args).unwrap();
        let (tvd, fidelity, health) = checks[0];
        // a healthy run surfaces a full-budget report, not a silent drop
        assert!(health.is_healthy());
        assert_eq!(health.clean_shots, 8);
        assert_eq!(health.aborted_shots, 0);
        assert!((0.0..=1.0).contains(&tvd));
        assert!(fidelity > 0.0);
    }

    #[test]
    fn equiv_certifies_identical_files_and_flags_distant_pairs() {
        let a = temp_qasm(
            "qaprox_equiv_a.qasm",
            "qreg q[2];\nh q[0];\ncx q[0],q[1];\n",
        );
        let b = temp_qasm("qaprox_equiv_b.qasm", "qreg q[2];\nx q[0];\nx q[1];\n");
        assert!(run(&["equiv", &a, &a]).is_ok());
        assert!(run(&["equiv", &a, &a, "--format", "json"]).is_ok());
        // a provable violation is deny-level by default (QA501)
        let e = run(&["equiv", &a, &b, "--epsilon", "0.01", "--cx-error", "0.0"]).unwrap_err();
        assert!(matches!(e, CliError::Findings(_)), "{e}");
        // demoting QA501 turns the same run into a warning-only pass
        assert!(run(&[
            "equiv",
            &a,
            &b,
            "--epsilon",
            "0.01",
            "--cx-error",
            "0.0",
            "--warn",
            "QA501"
        ])
        .is_ok());
    }

    #[test]
    fn equiv_rejects_bad_usage() {
        let a = temp_qasm("qaprox_equiv_usage.qasm", "qreg q[1];\nx q[0];\n");
        let wide = temp_qasm("qaprox_equiv_wide.qasm", "qreg q[2];\nx q[0];\n");
        assert!(matches!(
            run(&["equiv", &a]).unwrap_err(),
            CliError::Failure(_)
        ));
        assert!(matches!(
            run(&["equiv", &a, &wide]).unwrap_err(),
            CliError::Failure(_)
        ));
        assert!(run(&["equiv", &a, &a, "--format", "yaml"]).is_err());
        assert!(run(&["equiv", &a, &a, "--epsilon", "abc"]).is_err());
        assert!(run(&["equiv", &a, &a, "--epsilon", "-1"]).is_err());
        assert!(run(&["equiv", &a, &a, "--epsilon", "inf"]).is_err());
        assert!(run(&["equiv", &a, &a, "--epsilon", "1e999"]).is_err());
        assert!(run(&["equiv", &a, &a, "--device", "nowhere"]).is_err());
        assert!(run(&["equiv", &a, "/nonexistent/b.qasm"]).is_err());
    }

    /// The exit-code contract for every static-analysis subcommand: findings
    /// exit 3, operational failures exit 1 — consistently across
    /// lint/analyze/equiv.
    #[test]
    fn static_analysis_exit_codes_are_consistent() {
        let bad = temp_qasm("qaprox_exit_bad.qasm", "qreg q[2];\nh q[7];\n");
        let clean = temp_qasm("qaprox_exit_clean.qasm", "qreg q[1];\nx q[0];\n");
        let wide2 = temp_qasm("qaprox_exit_wide.qasm", "qreg q[1];\nh q[0];\n");

        // findings -> exit 3
        assert_eq!(run(&["lint", &bad]).unwrap_err().exit_code(), 3);
        assert_eq!(
            run(&[
                "analyze",
                &clean,
                "--min-fidelity",
                "1.5",
                "--deny",
                "QA401"
            ])
            .unwrap_err()
            .exit_code(),
            3
        );
        assert_eq!(
            run(&[
                "equiv",
                &clean,
                &wide2,
                "--epsilon",
                "0.0",
                "--cx-error",
                "0.0"
            ])
            .unwrap_err()
            .exit_code(),
            3
        );

        // operational failures -> exit 1
        assert_eq!(
            run(&["lint", "/nonexistent.qasm"]).unwrap_err().exit_code(),
            1
        );
        assert_eq!(
            run(&["analyze", "--device", "nowhere"])
                .unwrap_err()
                .exit_code(),
            1
        );
        assert_eq!(run(&["equiv", &clean]).unwrap_err().exit_code(), 1);
    }
}
