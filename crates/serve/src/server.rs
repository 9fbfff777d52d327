//! The TCP job service.
//!
//! Wire protocol: newline-delimited JSON over TCP (one request object per
//! line, one response object per line, in order). Requests carry an `op`:
//!
//! | op         | fields                         | response                         |
//! |------------|--------------------------------|----------------------------------|
//! | `synth`    | [`SynthSpec`](crate::SynthSpec) fields | `{ok, id, key, deduped}` or backpressure |
//! | `run`      | [`RunSpec`](crate::RunSpec) fields | same                             |
//! | `status`   | `id`                           | `{ok, id, state}`                |
//! | `result`   | `id`                           | `{ok, id, state, result}`        |
//! | `cancel`   | `id`                           | `{ok, cancelled}`                |
//! | `stats`    | —                              | scheduler + store counters       |
//! | `recover`  | —                              | what startup replayed from the journal |
//! | `shutdown` | —                              | `{ok: true}` then the server stops |
//!
//! Errors are `{ok: false, error: "..."}`; a full queue additionally sets
//! `backpressure: true` so clients know to retry rather than give up, and
//! an admission-control rejection sets `overloaded: true` plus a
//! `retry_after_ms` backoff hint. A request line longer than
//! [`MAX_REQUEST_LINE_BYTES`] gets `too_long: true` and the server then
//! closes the connection; JSON nested deeper than
//! [`qaprox_store::json::MAX_DEPTH`] is a plain `bad request json` error.
//! See `docs/SERVE.md` for the full protocol description.

use crate::scheduler::{JobView, Scheduler, SchedulerConfig, Submitted};
use crate::spec::JobSpec;
use qaprox_store::json::{parse, Json};
use qaprox_store::Store;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Scheduler knobs.
    pub scheduler: SchedulerConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
        }
    }
}

/// A running job service.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    scheduler: Arc<Scheduler>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Server {
    /// Binds, starts the scheduler, and begins accepting connections.
    pub fn start(cfg: ServerConfig, store: Option<Arc<Store>>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let scheduler =
            Arc::new(Scheduler::start(cfg.scheduler, store).map_err(std::io::Error::other)?);
        let stop = Arc::new(AtomicBool::new(false));

        let accept_thread = {
            let scheduler = Arc::clone(&scheduler);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("qaprox-serve-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        // Failpoint `serve.server.accept` (panic/sleep): the
                        // accept loop hiccuping; connections are dropped,
                        // never half-served.
                        qaprox_fault::fail_point!("serve.server.accept");
                        let Ok(stream) = conn else { continue };
                        let scheduler = Arc::clone(&scheduler);
                        let stop = Arc::clone(&stop);
                        // one thread per connection: clients are few (CLI,
                        // CI, benches) and connections are short-lived
                        let _ = std::thread::Builder::new()
                            .name("qaprox-serve-conn".into())
                            .spawn(move || handle_connection(stream, &scheduler, &stop));
                    }
                })?
        };

        Ok(Server {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            scheduler,
        })
    }

    /// The bound address (real port even when configured with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Direct access to the scheduler (in-process submission, stats).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// True once a client issued `shutdown` (the accept loop has stopped).
    pub fn shutdown_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Blocks until a client issues `shutdown`.
    pub fn wait_for_shutdown(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops accepting, shuts the scheduler down, and joins the threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // wake the blocked accept() with a throwaway connection
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn err_response(msg: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(msg.into())),
    ])
}

/// Longest request line the server reads, in bytes. Job specs serialize to
/// well under a kilobyte; without a cap one endless line would grow the
/// connection's buffer until memory runs out.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// One request line off the wire.
enum WireLine {
    /// A complete line, without its `\n`.
    Line(String),
    /// A line longer than [`MAX_REQUEST_LINE_BYTES`], read and discarded
    /// through its `\n`.
    TooLong,
    /// The peer closed the connection, the read failed, or the line was
    /// not UTF-8.
    Closed,
}

/// Reads the next line while buffering at most [`MAX_REQUEST_LINE_BYTES`]
/// of it, however long it is.
fn read_line_capped(reader: &mut impl BufRead) -> WireLine {
    let mut line = Vec::new();
    let cap = MAX_REQUEST_LINE_BYTES as u64 + 1;
    match reader.by_ref().take(cap).read_until(b'\n', &mut line) {
        Ok(0) | Err(_) => return WireLine::Closed,
        Ok(_) => {}
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_REQUEST_LINE_BYTES {
        // consume the rest, so closing the socket does not reset it with
        // unread data before the client reads the reply
        let _ = reader.skip_until(b'\n');
        return WireLine::TooLong;
    }
    String::from_utf8(line).map_or(WireLine::Closed, WireLine::Line)
}

fn handle_connection(stream: TcpStream, scheduler: &Scheduler, stop: &Arc<AtomicBool>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match read_line_capped(&mut reader) {
            WireLine::Line(line) => line,
            WireLine::TooLong => {
                // answer, then drop the connection: a peer that sends such
                // lines is not speaking the protocol
                let mut text = too_long_response().to_string();
                text.push('\n');
                let _ = writer.write_all(text.as_bytes());
                let _ = writer.flush();
                break;
            }
            WireLine::Closed => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse(&line) {
            Ok(request) => handle_request(&request, scheduler, stop),
            Err(e) => err_response(&format!("bad request json: {e}")).to_string(),
        };
        // Failpoint `serve.server.reply` (panic/sleep): a connection dying
        // between the state change and the reply — the client must cope
        // with a dropped connection after a possibly-applied request.
        qaprox_fault::fail_point!("serve.server.reply");
        let mut text = response;
        text.push('\n');
        if writer.write_all(text.as_bytes()).is_err() || writer.flush().is_err() {
            break;
        }
        if stop.load(Ordering::Relaxed) {
            // wake the accept loop (blocked in accept()) so it observes the
            // stop flag; our local address IS the server's listening address
            if let Ok(addr) = writer.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            break;
        }
    }
}

fn too_long_response() -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "request line longer than {MAX_REQUEST_LINE_BYTES} bytes"
            )),
        ),
        ("too_long", Json::Bool(true)),
    ])
}

/// One request's reply line, without its newline.
fn handle_request(request: &Json, scheduler: &Scheduler, stop: &Arc<AtomicBool>) -> String {
    match request.get_str("op") {
        Some("result") => match request.get_u64("id").and_then(|id| scheduler.job(id)) {
            Some(view) => result_reply(&view),
            None => err_response("unknown job id").to_string(),
        },
        _ => handle_op(request, scheduler, stop).to_string(),
    }
}

/// The `result` reply: `{ok, id, state, result}` with the job's stored
/// payload text spliced in as it is, which is the bytes the payload tree
/// serializes to; `{ok: false, id, state, error}` when there is none.
fn result_reply(view: &JobView) -> String {
    let mut fields = vec![
        ("ok", Json::Bool(view.result.is_some())),
        ("id", Json::Num(view.id as f64)),
        ("state", Json::Str(view.state.name().into())),
    ];
    let Some(payload) = &view.result else {
        fields.push(("error", Json::Str(view.state.error_text())));
        return Json::obj(fields).to_string();
    };
    let mut text = Json::obj(fields).to_string();
    text.pop(); // the closing brace
    text.push_str(",\"result\":");
    text.push_str(payload);
    text.push('}');
    text
}

/// Every op but `result`, whose reply [`handle_request`] builds as text.
fn handle_op(request: &Json, scheduler: &Scheduler, stop: &Arc<AtomicBool>) -> Json {
    match request.get_str("op") {
        Some("synth") | Some("run") => {
            let spec = match JobSpec::from_json(request) {
                Ok(s) => s,
                Err(e) => return err_response(&e),
            };
            let key = match spec.key() {
                Ok(k) => k.hex(),
                Err(e) => return err_response(&e),
            };
            match scheduler.submit(spec) {
                Ok(Submitted::Accepted(id)) => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("id", Json::Num(id as f64)),
                    ("key", Json::Str(key)),
                    ("deduped", Json::Bool(false)),
                ]),
                Ok(Submitted::Deduped(id)) => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("id", Json::Num(id as f64)),
                    ("key", Json::Str(key)),
                    ("deduped", Json::Bool(true)),
                ]),
                Ok(Submitted::Rejected) => Json::obj(vec![
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str("queue full".into())),
                    ("backpressure", Json::Bool(true)),
                ]),
                Ok(Submitted::Overloaded { retry_after_ms }) => Json::obj(vec![
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str("overloaded".into())),
                    ("overloaded", Json::Bool(true)),
                    ("retry_after_ms", Json::Num(retry_after_ms as f64)),
                ]),
                Err(e) => err_response(&e),
            }
        }
        Some("status") => match request.get_u64("id").and_then(|id| scheduler.job(id)) {
            Some(view) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("id", Json::Num(view.id as f64)),
                ("state", Json::Str(view.state.name().into())),
            ]),
            None => err_response("unknown job id"),
        },
        Some("cancel") => match request.get_u64("id") {
            Some(id) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("cancelled", Json::Bool(scheduler.cancel(id))),
            ]),
            None => err_response("cancel needs an id"),
        },
        Some("stats") => {
            let mut fields = vec![("ok".to_string(), Json::Bool(true))];
            if let Json::Obj(rest) = scheduler.stats() {
                fields.extend(rest);
            }
            Json::Obj(fields)
        }
        Some("recover") => match scheduler.recovery_report() {
            Some(report) => {
                let mut fields = vec![("ok".to_string(), Json::Bool(true))];
                if let Json::Obj(rest) = report {
                    fields.extend(rest);
                }
                Json::Obj(fields)
            }
            None => err_response("server is running without a journal"),
        },
        Some("shutdown") => {
            stop.store(true, Ordering::Relaxed);
            Json::obj(vec![("ok", Json::Bool(true))])
        }
        Some(other) => err_response(&format!("unknown op '{other}'")),
        None => err_response("missing 'op' field"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::JobState;

    #[test]
    fn result_reply_is_the_bytes_of_the_payload_tree() {
        let payload = Json::obj(vec![
            ("kind", Json::Str("run".into())),
            ("note", Json::Str("a \"quoted\" line\nand a tab\t".into())),
            (
                "rows",
                Json::Arr(vec![Json::Num(0.1), Json::Num(1e-17), Json::Null]),
            ),
            ("nested", Json::obj(vec![("ok", Json::Bool(false))])),
        ]);
        let view = JobView {
            id: 42,
            state: JobState::Done,
            result: Some(Arc::from(payload.to_string())),
        };
        let tree = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("id", Json::Num(42.0)),
            ("state", Json::Str("done".into())),
            ("result", payload),
        ]);
        assert_eq!(result_reply(&view), tree.to_string());
        assert_eq!(parse(&result_reply(&view)).unwrap(), tree);

        let failed = JobView {
            id: 7,
            state: JobState::Failed("boom".into()),
            result: None,
        };
        let tree = Json::obj(vec![
            ("ok", Json::Bool(false)),
            ("id", Json::Num(7.0)),
            ("state", Json::Str("failed".into())),
            ("error", Json::Str("boom".into())),
        ]);
        assert_eq!(result_reply(&failed), tree.to_string());
    }
}
