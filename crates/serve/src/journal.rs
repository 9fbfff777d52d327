//! The durable job journal: an append-only NDJSON write-ahead log.
//!
//! Every job-lifecycle transition the scheduler wants to survive a process
//! death is appended as one line:
//!
//! ```text
//! {"crc":"<hash128 hex of payload>","payload":"<record JSON as a string>"}
//! ```
//!
//! Records are JSON objects with an `event` field — `submit` (carries the
//! full spec), `start`, `checkpoint` (synthesis progress marker), and the
//! seven terminal events: `done` and `degraded` (carry the payload),
//! `failed` and `quarantined` (carry the reason as `error`), `cancelled`,
//! `timed-out` and `shed`. The scheduler writes the terminal records from
//! its one transition table and decodes them on replay with the inverse of
//! the same table. On restart [`replay`] returns every intact record in
//! order; the scheduler rebuilds its job table from them and re-enqueues
//! whatever never reached a terminal state (see `Scheduler::start`).
//!
//! Durability properties:
//!
//! * **checksummed lines** — a record is only replayed when its payload
//!   hashes to the recorded `crc`, so a line torn by a crash mid-append is
//!   detected, not misparsed;
//! * **truncated-tail tolerance** — replay stops at the first damaged line
//!   and reports how many lines it skipped; everything before the tear is
//!   kept (append-only means damage can only be a tail);
//! * **atomic rotation** — segments are named `seg-NNNNNN.ndjson`; after
//!   every record the scheduler appends under its state lock (submits,
//!   dispatches and all terminal transitions, whoever makes them), once the
//!   active segment holds [`SEGMENT_CAP`] records it rewrites the live-job
//!   snapshot into the next segment via tmp + rename and deletes the older
//!   ones, so the journal's size is bounded by live state, not by history.
//!   Checkpoint records, appended from the running job, never rotate.

use qaprox_linalg::hashing::hash128_hex;
use qaprox_store::json::{parse, Json};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Records per segment before the scheduler compacts (see module docs).
pub const SEGMENT_CAP: usize = 512;

fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.ndjson")
}

/// Sorted indexes of the segments present in `dir`.
fn segment_indexes(dir: &Path) -> Result<Vec<u64>, String> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(format!("journal dir {}: {e}", dir.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".ndjson"))
        {
            if let Ok(index) = num.parse::<u64>() {
                found.push(index);
            }
        }
    }
    found.sort_unstable();
    Ok(found)
}

fn encode_line(record: &Json) -> String {
    let payload = record.to_string();
    let line = Json::obj(vec![
        ("crc", Json::Str(hash128_hex(payload.as_bytes()))),
        ("payload", Json::Str(payload)),
    ]);
    let mut text = line.to_string();
    text.push('\n');
    text
}

fn decode_line(line: &str) -> Option<Json> {
    let envelope = parse(line).ok()?;
    let crc = envelope.get_str("crc")?;
    let payload = envelope.get_str("payload")?;
    if crc != hash128_hex(payload.as_bytes()) {
        return None;
    }
    parse(payload).ok()
}

struct Active {
    seg: u64,
    file: std::fs::File,
    records: usize,
}

/// An open journal (the writing side; [`replay`] is a free function so
/// recovery can read a directory before any writer exists).
pub struct Journal {
    dir: PathBuf,
    active: Mutex<Active>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("dir", &self.dir).finish()
    }
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, continuing the
    /// highest existing segment.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Journal, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| format!("journal dir: {e}"))?;
        let seg = segment_indexes(&dir)?.last().copied().unwrap_or(0);
        let path = dir.join(segment_name(seg));
        // count intact records so the rotation cadence survives a reopen
        let records = match std::fs::read_to_string(&path) {
            Ok(text) => text.lines().filter(|l| decode_line(l).is_some()).count(),
            Err(_) => 0,
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("journal segment {}: {e}", path.display()))?;
        Ok(Journal {
            dir,
            active: Mutex::new(Active { seg, file, records }),
        })
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record (checksummed, flushed before returning).
    pub fn append(&self, record: &Json) -> Result<(), String> {
        // Failpoint `serve.journal.append`: a WAL write failing (disk full,
        // volume gone). Submissions surface this to the caller.
        qaprox_fault::fail_point!("serve.journal.append", |_action| {
            Err(qaprox_fault::injected_error("serve.journal.append"))
        });
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        let text = encode_line(record);
        active
            .file
            .write_all(text.as_bytes())
            .and_then(|()| active.file.flush())
            .map_err(|e| format!("journal append: {e}"))?;
        active.records += 1;
        Ok(())
    }

    /// True once the active segment passed [`SEGMENT_CAP`] records — the
    /// scheduler should [`Journal::rotate`] with a live-job snapshot.
    pub fn needs_rotation(&self) -> bool {
        self.active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            >= SEGMENT_CAP
    }

    /// Compacts: writes `live` (the caller's snapshot of still-relevant
    /// records) as the next segment via tmp + rename, switches appends to
    /// it, and deletes the older segments.
    pub fn rotate(&self, live: &[Json]) -> Result<(), String> {
        // Failpoint `serve.journal.rotate`: compaction failing mid-way. The
        // scheduler tolerates this (the old segment keeps growing).
        qaprox_fault::fail_point!("serve.journal.rotate", |_action| {
            Err(qaprox_fault::injected_error("serve.journal.rotate"))
        });
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        let next = active.seg + 1;
        let tmp = self.dir.join(format!(".seg-{next:06}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| format!("journal rotate: {e}"))?;
            for record in live {
                f.write_all(encode_line(record).as_bytes())
                    .map_err(|e| format!("journal rotate: {e}"))?;
            }
            f.sync_all().map_err(|e| format!("journal rotate: {e}"))?;
        }
        let path = self.dir.join(segment_name(next));
        std::fs::rename(&tmp, &path).map_err(|e| format!("journal rotate: {e}"))?;
        active.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("journal rotate: {e}"))?;
        let old = active.seg;
        active.seg = next;
        active.records = live.len();
        drop(active);
        for index in segment_indexes(&self.dir)? {
            if index <= old {
                let _ = std::fs::remove_file(self.dir.join(segment_name(index)));
            }
        }
        Ok(())
    }
}

/// What [`replay`] recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedJournal {
    /// Every intact record, in append order.
    pub records: Vec<Json>,
    /// Lines dropped at the damaged tail (0 for a clean journal).
    pub skipped_lines: usize,
}

/// Reads every intact record from the journal in `dir`. Stops at the first
/// damaged line (torn tail, CRC mismatch) and counts the remainder as
/// skipped. A missing directory replays empty.
pub fn replay(dir: &Path) -> Result<ReplayedJournal, String> {
    let mut out = ReplayedJournal {
        records: Vec::new(),
        skipped_lines: 0,
    };
    let mut damaged = false;
    for index in segment_indexes(dir)? {
        let path = dir.join(segment_name(index));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(format!("journal segment {}: {e}", path.display())),
        };
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if damaged {
                out.skipped_lines += 1;
                continue;
            }
            match decode_line(line) {
                Some(record) => out.records.push(record),
                None => {
                    damaged = true;
                    out.skipped_lines += 1;
                }
            }
        }
    }
    Ok(out)
}

// ---- record constructors (the scheduler's vocabulary) ----------------------

/// `{"event": <kind>, "job": <id>}`.
pub fn event(kind: &str, id: u64) -> Json {
    Json::obj(vec![
        ("event", Json::Str(kind.into())),
        ("job", Json::Num(id as f64)),
    ])
}

/// The submit record: carries the full op-tagged spec for re-enqueueing.
pub fn submit_event(id: u64, spec: &crate::spec::JobSpec) -> Json {
    Json::obj(vec![
        ("event", Json::Str("submit".into())),
        ("job", Json::Num(id as f64)),
        ("spec", spec.to_json()),
    ])
}

/// The checkpoint record: synthesis reached `nodes` persisted nodes.
pub fn checkpoint_event(id: u64, nodes: usize) -> Json {
    Json::obj(vec![
        ("event", Json::Str("checkpoint".into())),
        ("job", Json::Num(id as f64)),
        ("nodes", Json::Num(nodes as f64)),
    ])
}

/// A terminal record; `done` / `degraded` carry the payload, `failed` the
/// error message.
pub fn terminal_event(id: u64, state: &str, payload: Option<&Json>, error: Option<&str>) -> Json {
    let mut fields = vec![
        ("event".to_string(), Json::Str(state.into())),
        ("job".to_string(), Json::Num(id as f64)),
    ];
    if let Some(p) = payload {
        fields.push(("payload".to_string(), p.clone()));
    }
    if let Some(e) = error {
        fields.push(("error".to_string(), Json::Str(e.into())));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobSpec, SynthSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qaprox-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec::Synth(SynthSpec {
            qubits: 2,
            steps: 2,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn records_round_trip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let j = Journal::open(&dir).unwrap();
            j.append(&submit_event(1, &spec(0))).unwrap();
            j.append(&event("start", 1)).unwrap();
            j.append(&checkpoint_event(1, 40)).unwrap();
        }
        {
            // reopen appends to the same segment
            let j = Journal::open(&dir).unwrap();
            j.append(&terminal_event(1, "done", Some(&Json::Bool(true)), None))
                .unwrap();
        }
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.skipped_lines, 0);
        assert_eq!(replayed.records.len(), 4);
        assert_eq!(replayed.records[0].get_str("event"), Some("submit"));
        let spec_json = replayed.records[0].get("spec").unwrap();
        assert_eq!(JobSpec::from_json(spec_json).unwrap(), spec(0));
        assert_eq!(replayed.records[2].get_u64("nodes"), Some(40));
        assert_eq!(replayed.records[3].get("payload"), Some(&Json::Bool(true)));
    }

    #[test]
    fn torn_tail_is_tolerated_and_counted() {
        let dir = tmp_dir("torn");
        {
            let j = Journal::open(&dir).unwrap();
            j.append(&event("start", 1)).unwrap();
            j.append(&event("start", 2)).unwrap();
        }
        // a crash mid-append leaves half a line; later lines (from a buggy
        // writer) must not resurrect past the tear
        let seg = dir.join(segment_name(0));
        let mut text = std::fs::read_to_string(&seg).unwrap();
        let half = encode_line(&event("start", 3));
        text.push_str(&half[..half.len() / 2]);
        text.push('\n');
        text.push_str(&encode_line(&event("start", 4)));
        std::fs::write(&seg, text).unwrap();

        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.skipped_lines, 2, "torn line + everything after");

        // a crc mismatch (bit rot) is damage too
        let dir2 = tmp_dir("crc");
        let j = Journal::open(&dir2).unwrap();
        j.append(&event("start", 1)).unwrap();
        let seg = dir2.join(segment_name(0));
        let tampered = std::fs::read_to_string(&seg)
            .unwrap()
            .replace("start", "stop!");
        std::fs::write(&seg, tampered).unwrap();
        let replayed = replay(&dir2).unwrap();
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.skipped_lines, 1);
    }

    #[test]
    fn rotation_compacts_to_the_live_snapshot() {
        let dir = tmp_dir("rotate");
        let j = Journal::open(&dir).unwrap();
        for id in 1..=5 {
            j.append(&submit_event(id, &spec(id))).unwrap();
        }
        assert!(!j.needs_rotation(), "cap is {SEGMENT_CAP}");
        // compact down to two live jobs
        let live = vec![submit_event(4, &spec(4)), submit_event(5, &spec(5))];
        j.rotate(&live).unwrap();
        assert_eq!(segment_indexes(&dir).unwrap(), vec![1], "old segment gone");
        // appends continue into the rotated segment
        j.append(&event("start", 4)).unwrap();
        let replayed = replay(&dir).unwrap();
        let events: Vec<_> = replayed
            .records
            .iter()
            .map(|r| (r.get_str("event").unwrap().to_string(), r.get_u64("job")))
            .collect();
        assert_eq!(
            events,
            vec![
                ("submit".to_string(), Some(4)),
                ("submit".to_string(), Some(5)),
                ("start".to_string(), Some(4)),
            ]
        );
    }

    #[test]
    fn missing_directory_replays_empty() {
        let dir = tmp_dir("absent");
        let replayed = replay(&dir).unwrap();
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.skipped_lines, 0);
    }
}
