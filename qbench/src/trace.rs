//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public functions; nothing inside the program is instrumented.
//! A span's layer is its name up to the first `.` (`synth.generate` belongs
//! to `synth`). Spans named `bench.*` are the benchmark's own frames (a
//! pass, a job) around the calls it times layer by layer: their self time is
//! the wall time no layer span covers. On `serve_wide_tfim` the served pass
//! has `client.*` frames instead: it times the wire, and its
//! `serve.queue_wait`/`serve.exec` spans cover the server-side work the
//! replay splits into layers, so they count toward no layer.
//!
//! With tracing off every method is a plain call with no clock reads and no
//! allocation, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Layers, named after the repository's crates, in report order.
pub const LAYERS: [&str; 7] = [
    "core",
    "synth",
    "transpile",
    "sim",
    "verify",
    "store",
    "serve",
];

/// Client-side spans over server-side work that the replay splits into
/// layers: reported by name, left out of every layer's self time.
pub const CLIENT_SPLIT: [&str; 2] = ["serve.queue_wait", "serve.exec"];

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder. Shared by reference between client threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Seconds since the origin (0.0 when tracing is off).
    pub fn now(&self) -> f64 {
        if self.on {
            self.origin.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }

    /// Opens a span and returns its id (`None` when tracing is off).
    pub fn open(&self, name: &'static str, job: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            job,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans.lock().expect("span buffer poisoned")[id].end = end;
        }
    }

    /// Runs `f` inside a span; `f` receives the span id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let id = self.open(name, job, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere (client-side poll splits).
    pub fn record(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(Span {
            name,
            start,
            end,
            parent,
            job,
        });
        Some(spans.len() - 1)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Self-time analysis of a finished trace.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Per span name: (calls, summed self seconds).
    pub by_name: BTreeMap<&'static str, (usize, f64)>,
    /// Per layer: summed self seconds (`bench` = uncovered).
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Summed duration of the `bench.pass` roots.
    pub wall: f64,
}

impl Analysis {
    pub fn of(spans: &[Span]) -> Analysis {
        let mut child_time = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur();
            }
        }
        let mut a = Analysis::default();
        for (s, children) in spans.iter().zip(&child_time) {
            let own = s.dur() - children;
            let e = a.by_name.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += own;
            if !CLIENT_SPLIT.contains(&s.name) {
                *a.by_layer.entry(s.layer()).or_insert(0.0) += own;
            }
            if s.parent.is_none() && s.name == "bench.pass" {
                a.wall += s.dur();
            }
        }
        a
    }

    /// Calls and mean self milliseconds of one span name (0 when absent).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(n, t)) if n > 0 => t * 1e3 / n as f64,
            _ => 0.0,
        }
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1)
    }

    pub fn layer_s(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0.0)
    }

    /// Share of the `bench.pass` wall time no layer span covers.
    pub fn uncovered_share(&self) -> f64 {
        if self.wall > 0.0 {
            self.layer_s("bench") / self.wall
        } else {
            0.0
        }
    }
}

/// Writes the spans as NDJSON, after a header line with the run context.
pub fn write_spans(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"job\":{}}}",
            s.name, s.start, s.end, s.job
        )?;
    }
    out.flush()
}
