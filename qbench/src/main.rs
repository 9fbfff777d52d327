//! The qaprox benchmark: one command, two workloads, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --offline --manifest-path qbench/Cargo.toml -- \
//!     --workload pipeline_paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The report goes to stdout as `#` lines; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Every invocation runs the correctness gate and exits 1 if it fails.
//! Scratch files go under `.bench_tmp/`, traces and digests under
//! `.bench_out/`, both relative to the working directory.

mod pipeline;
mod replay;
mod served;
mod stats;
mod trace;
mod workload;

use stats::{median, percentile, Digest};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::{Analysis, Tracer, LAYERS};
use workload::{Opts, Outcome, Pass};

const WORKLOADS: [&str; 2] = ["pipeline_paper", "serve_wide_tfim"];
const PREDICTIONS: &str = include_str!("../predictions.json");
const USAGE: &str =
    "usage: qbench --workload <pipeline_paper|serve_wide_tfim> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median latency (ms) of one durable write the way the store makes it:
/// write a 4 KiB temp file, `sync_all`, rename it over the target.
fn fsync_ms(dir: &Path) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let (tmp, target) = (dir.join("fsync-probe.tmp"), dir.join("fsync-probe"));
    let mut samples = Vec::new();
    for _ in 0..11 {
        let t = std::time::Instant::now();
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&[0x5A; 4096])?;
        f.sync_all()?;
        std::fs::rename(&tmp, &target)?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    std::fs::remove_file(&target)?;
    Ok(median(&samples))
}

/// The commit the working directory is checked out at, when it is a git
/// checkout.
fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(name) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|r| r.trim().to_string()))
                .unwrap_or_else(|| format!("unresolved {name}"));
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown (not a git checkout)".into()
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A digest of the running executable's bytes: it names the build, where a
/// git revision is not available or does not cover uncommitted changes.
/// Read in small blocks, so it leaves no mark on the peak RSS.
fn build_id() -> String {
    let Ok(mut exe) = std::env::current_exe().and_then(std::fs::File::open) else {
        return "unknown".into();
    };
    let mut d = Digest::default();
    let mut block = [0u8; 1 << 16];
    loop {
        match exe.read(&mut block) {
            Ok(0) => return d.hex(),
            Ok(n) => block[..n].chunks(8).for_each(|c| {
                let mut word = [0u8; 8];
                word[..c.len()].copy_from_slice(c);
                d.u64(u64::from_le_bytes(word));
            }),
            Err(_) => return "unknown".into(),
        }
    }
}

/// Puts every thread on one glibc malloc arena. Each set-up starts and stops
/// a server whose short-lived threads otherwise take whichever arena is
/// free, and the memory an exited thread's arena keeps made the peak RSS of
/// `serve_wide_tfim` differ by a 16q simulation's buffers (about 7 MB) from
/// run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    const M_ARENA_MAX: std::ffi::c_int = -8;
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    // SAFETY: mallopt only changes allocator tuning, and it runs before the
    // process starts any other thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

/// Fails the run if this seed's digest differs from one an earlier run of
/// the same build recorded in the same directory; records it otherwise.
/// The check holds within one build: a changed program writes a new file.
pub fn digest_file_check(out: &mut Outcome, opts: &Opts, workload: &str, digest: &str) {
    let path = PathBuf::from(".bench_out").join(format!(
        "digest-{workload}-{}-{}.txt",
        opts.seed, opts.build
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) => out.check(prev.trim() == digest, || {
            format!(
                "row digest {digest} differs from an earlier run's {}",
                prev.trim()
            )
        }),
        Err(_) => {
            let _ = std::fs::create_dir_all(".bench_out");
            let _ = std::fs::write(&path, digest);
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(out: &Outcome, pass: &Pass) -> Vec<Metric> {
    let done = (pass.attempted - pass.failed) as f64;
    let (tail, _) = percentile(&pass.job_ms, out.tail_p);
    vec![
        metric("setup_s", median(&out.setup_s), "s"),
        metric("jobs_per_s", ratio(done, pass.wall_s), "1/s"),
        metric("job_p50_ms", median(&pass.job_ms), "ms"),
        metric("job_tail_ms", tail, "ms"),
        metric("rows_per_s", ratio(pass.rows as f64, pass.wall_s), "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn per_layer(out: &Outcome, a: &Analysis) -> Vec<Metric> {
    let c = &out.counters;
    let (hits, misses, puts, bytes) = out
        .store
        .as_ref()
        .map_or((0, 0, 0, 0), |s| (s.hits, s.misses, s.puts, s.total_bytes));
    let traced = out.traced.as_ref().expect("traced pass ran");
    let per_job = |p: &Pass| ratio(p.wall_s, p.attempted as f64);
    let shot_s = a.total_s("sim.trajectory") - a.total_s("sim.compile");
    let density_s = a.total_s("sim.density") + a.total_s("sim.hardware");
    let mut m = vec![
        metric("synth.generate_ms", a.mean_ms("synth.generate"), "ms"),
        metric("synth.nodes", c.synth_nodes as f64, "count"),
        metric(
            "synth.nodes_per_s",
            ratio(c.synth_nodes as f64, a.total_s("synth.generate")),
            "1/s",
        ),
        metric(
            "synth.memo_hit_ratio",
            ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
            "ratio",
        ),
        metric("transpile.ms", a.mean_ms("transpile.l3"), "ms"),
        metric(
            "transpile.cx_ratio",
            ratio(c.cx_routed as f64, c.cx_logical as f64),
            "ratio",
        ),
        metric("sim.compile_ms", a.mean_ms("sim.compile"), "ms"),
        metric(
            "sim.shot_us",
            ratio(shot_s * 1e6, c.trajectory_shots as f64),
            "us",
        ),
        metric(
            "sim.gates_per_op",
            ratio(c.source_gates as f64, c.fused_ops as f64),
            "ratio",
        ),
        metric(
            "sim.bytes_per_shot",
            ratio(c.bytes_per_shot_sum, c.compiled_programs as f64),
            "B",
        ),
        metric("sim.aborted_shots", c.aborted_shots as f64, "count"),
        metric(
            "sim.density_ms",
            ratio(density_s * 1e3, c.density_circuits as f64),
            "ms",
        ),
        metric("sim.shots_per_s", out.shots_per_s.unwrap_or(0.0), "1/s"),
        metric("verify.analyze_ms", a.mean_ms("verify.analyze"), "ms"),
        metric("store.get_ms", a.mean_ms("store.get"), "ms"),
        metric("store.put_ms", a.mean_ms("store.put"), "ms"),
        metric(
            "store.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        metric("store.puts", puts as f64, "count"),
        metric("store.bytes", bytes as f64, "B"),
        metric("serve.submit_ms", a.mean_ms("serve.submit"), "ms"),
        metric("serve.queue_wait_ms", a.mean_ms("serve.queue_wait"), "ms"),
        metric("serve.exec_ms", a.mean_ms("serve.exec"), "ms"),
        metric("serve.result_ms", a.mean_ms("serve.result"), "ms"),
        metric("serve.journal_append_ms", a.mean_ms("serve.journal"), "ms"),
        metric("serve.journal_records", c.journal_records as f64, "count"),
        metric(
            "core.precision_gain_pct",
            out.precision_gain_pct.unwrap_or(0.0),
            "%",
        ),
    ];
    for layer in LAYERS {
        m.push(metric(format!("{layer}.self_s"), a.layer_s(layer), "s"));
    }
    m.push(metric(
        "trace.uncovered_pct",
        a.uncovered_share() * 100.0,
        "%",
    ));
    let overhead = ratio(
        per_job(traced) - per_job(&out.untraced),
        per_job(&out.untraced),
    );
    m.push(metric("trace.overhead_pct", overhead * 100.0, "%"));
    m
}

fn report_trace(workload: &str, out: &Outcome, a: &Analysis) {
    println!(
        "# traced run: {} spans over {:.3} s of pass wall time",
        out.spans.len(),
        a.wall
    );
    println!("# span self time by name:");
    for (name, (n, s)) in &a.by_name {
        println!("#   {name:<22} calls={n:<7} self={s:.4} s");
    }
    println!(
        "# uncovered share of the bench.pass wall time: {:.2} %",
        a.uncovered_share() * 100.0
    );
    let traced = out.traced.as_ref().expect("traced pass ran");
    println!(
        "# tracing overhead: traced pass {:.4} s over {} jobs vs untraced {:.4} s over {} jobs",
        traced.wall_s, traced.attempted, out.untraced.wall_s, out.untraced.attempted
    );

    let predicted: Vec<String> = qaprox_store::json::parse(PREDICTIONS)
        .ok()
        .and_then(|p| {
            p.get("workloads")?
                .get(workload)?
                .get("dominant")?
                .as_arr()
                .map(|a| {
                    a.iter()
                        .filter_map(|x| x.as_str().map(str::to_string))
                        .collect()
                })
        })
        .unwrap_or_default();
    let layers: Vec<(&str, f64)> = LAYERS.iter().map(|&l| (l, a.layer_s(l))).collect();
    let total: f64 = layers.iter().map(|(_, s)| s).sum();
    let share: f64 = layers
        .iter()
        .filter(|(l, _)| predicted.iter().any(|p| p == l))
        .map(|(_, s)| s)
        .sum::<f64>()
        / total.max(f64::MIN_POSITIVE);
    let (top, top_s) = layers
        .iter()
        .copied()
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .unwrap_or(("none", 0.0));
    println!("# layer self time (serve.queue_wait and serve.exec left out: the replay splits that server-side time into layers):");
    for (l, s) in &layers {
        println!(
            "#   {l:<10} {s:>10.4} s  {:>6.2} % of layer time",
            ratio(*s, total) * 100.0
        );
    }
    let verdict = if share > 0.5 {
        "CONFIRMED"
    } else {
        "NOT CONFIRMED"
    };
    println!(
        "# predicted dominant layer(s) {predicted:?}: {verdict} — they take {:.1} % of layer time; the largest single layer is {top} at {:.1} %",
        share * 100.0,
        ratio(top_s, total) * 100.0
    );
}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp: tmp.clone(),
        build: build_id(),
    };
    let fsync = match fsync_ms(&tmp) {
        Ok(ms) => ms,
        Err(e) => {
            eprintln!(
                "qbench: cannot write scratch directory {}: {e}",
                tmp.display()
            );
            return ExitCode::from(1);
        }
    };
    let context = format!(
        "workload={} seed={} seconds={} trace={} host_cores={} kernel={} git_rev={} build={} fsync_ms={fsync:.4}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        qaprox_linalg::selected_kernel(),
        git_rev(),
        opts.build,
    );
    println!("# context: {context}");

    let tr = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "pipeline_paper" => Ok(pipeline::run(&opts, &tr)),
        _ => served::run(&opts, &tr),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("qbench: {} did not run: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let pass = &out.untraced;
    let (tail, beyond) = percentile(&pass.job_ms, out.tail_p);
    println!("# set-up times (s): {:?}", out.setup_s);
    println!(
        "# jobs: attempted={} failed={} failed_frac={:.4} wall={:.3} s rows={}",
        pass.attempted,
        pass.failed,
        ratio(pass.failed as f64, pass.attempted as f64),
        pass.wall_s,
        pass.rows
    );
    println!(
        "# job_tail_ms is p{:.0}: {tail:.3} ms over n={} samples, {beyond} beyond it",
        out.tail_p * 100.0,
        pass.job_ms.len()
    );
    if let Some(g) = out.precision_gain_pct {
        println!("# precision_gain_pct = {g:.4} % (first round, ourense density backend)");
    }
    if let Some(s) = out.shots_per_s {
        println!("# shots_per_s = {s:.3} 1/s (circuits x shots: 3 candidates and the reference per fresh job)");
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for m in end_to_end(&out, pass) {
        println!("# end-to-end {} = {} {}", m.name, m.value, m.unit);
    }
    let metrics = if args.trace {
        let a = Analysis::of(&out.spans);
        report_trace(&args.workload, &out, &a);
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
        let header = format!("{{\"context\":\"{context}\"}}");
        if let Err(e) = trace::write_spans(&path, &header, &out.spans) {
            eprintln!("qbench: cannot write {}: {e}", path.display());
        }
        let m = per_layer(&out, &a);
        for x in &m {
            println!("# per-layer {} = {} {}", x.name, x.value, x.unit);
        }
        m
    } else {
        end_to_end(&out, pass)
    };
    for f in &out.failures {
        println!("# CORRECTNESS FAILURE: {f}");
    }
    let correct = out.failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.attempted,
        pass.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
