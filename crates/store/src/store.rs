//! The content-addressed on-disk store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/index.json          # entry table + LRU clock + hit/miss counters
//! <root>/objects/pop-<key>.json   # population manifest
//! <root>/objects/pop-<key>.qasm   # population QASM dump
//! <root>/objects/part-<key>.json  # partial-synthesis checkpoint manifest
//! <root>/objects/part-<key>.qasm  # partial-synthesis checkpoint dump
//! <root>/objects/res-<key>.json   # execution result
//! ```
//!
//! Every write is atomic (`tmp` file + rename), manifests carry checksums of
//! their QASM dumps (corruption detected on load), the index tracks a
//! logical LRU clock for [`Store::gc`], and hit/miss counters persist so
//! `qaprox store stats` reports cache effectiveness across processes.
//!
//! One process mutates a store at a time (the serve scheduler serializes
//! through a mutex); concurrent *processes* get last-writer-wins on the
//! index, which is safe for artifacts because they are content-addressed.

use crate::artifact::{PartialCheckpoint, PopulationArtifact, ResultArtifact};
use crate::json::{parse, Json};
use crate::key::Key;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Index format version.
const INDEX_VERSION: u64 = 1;

/// What kind of artifact an index entry points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A completed population (`pop-*`).
    Population,
    /// A partial synthesis checkpoint (`part-*`).
    Partial,
    /// An execution result (`res-*`).
    Result,
}

impl Kind {
    fn prefix(self) -> &'static str {
        match self {
            Kind::Population => "pop",
            Kind::Partial => "part",
            Kind::Result => "res",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        match s {
            "pop" => Some(Kind::Population),
            "part" => Some(Kind::Partial),
            "res" => Some(Kind::Result),
            _ => None,
        }
    }
}

/// One index entry.
#[derive(Debug, Clone)]
struct Entry {
    kind: Kind,
    bytes: u64,
    last_used: u64,
    /// Optional caller-supplied grouping label (e.g. a target fingerprint):
    /// lets degradation fall back to "any cached population for this target"
    /// when an exact content-addressed lookup misses.
    tag: Option<String>,
}

#[derive(Debug, Default)]
struct Index {
    seq: u64,
    hits: u64,
    misses: u64,
    puts: u64,
    entries: BTreeMap<(String, Key), Entry>,
}

/// A store failure.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// An artifact exists but failed checksum/format verification.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Aggregate store statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Cache hits recorded across the store's lifetime.
    pub hits: u64,
    /// Cache misses recorded across the store's lifetime.
    pub misses: u64,
    /// Artifacts written.
    pub puts: u64,
    /// Live entries by kind: (populations, partials, results).
    pub entries: (usize, usize, usize),
    /// Total bytes of live artifacts.
    pub total_bytes: u64,
}

/// What [`Store::gc`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Entries evicted.
    pub evicted: usize,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Bytes remaining after collection.
    pub remaining_bytes: u64,
}

/// The content-addressed artifact store.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    index: Mutex<Index>,
}

fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    // Failpoint `store.write`: `error` rejects the write, `torn` lands the
    // first half of the payload at the *final* path (bypassing the tmp +
    // rename discipline) — exactly the state a mid-write crash would leave
    // if writes were not atomic, which checksums must catch on read.
    qaprox_fault::fail_point!("store.write", |action| match action {
        qaprox_fault::FaultAction::Torn => {
            std::fs::write(path, &bytes[..bytes.len() / 2])?;
            Ok(())
        }
        _ => Err(StoreError::Io(std::io::Error::other(
            qaprox_fault::injected_error("store.write"),
        ))),
    });
    // unique tmp name: concurrent writers of the same key (same content,
    // since keys are content addresses) must not interleave on one tmp file
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp-{}-{seq}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        let index = match std::fs::read_to_string(root.join("index.json")) {
            Ok(text) => Self::parse_index(&text)
                .ok_or_else(|| StoreError::Corrupt("unreadable index.json".into()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Index::default(),
            Err(e) => return Err(e.into()),
        };
        Ok(Store {
            root,
            index: Mutex::new(index),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn parse_index(text: &str) -> Option<Index> {
        let v = parse(text).ok()?;
        if v.get_u64("version") != Some(INDEX_VERSION) {
            return None;
        }
        let mut idx = Index {
            seq: v.get_u64("seq")?,
            hits: v.get_u64("hits")?,
            misses: v.get_u64("misses")?,
            puts: v.get_u64("puts")?,
            entries: BTreeMap::new(),
        };
        for item in v.get("entries")?.as_arr()? {
            let kind = Kind::parse(item.get_str("kind")?)?;
            let key = Key::parse(item.get_str("key")?)?;
            idx.entries.insert(
                (kind.prefix().to_string(), key),
                Entry {
                    kind,
                    bytes: item.get_u64("bytes")?,
                    last_used: item.get_u64("last_used")?,
                    tag: item.get_str("tag").map(str::to_string),
                },
            );
        }
        Some(idx)
    }

    fn write_index(&self, idx: &Index) -> Result<(), StoreError> {
        let entries: Vec<Json> = idx
            .entries
            .iter()
            .map(|((_, key), e)| {
                let mut fields = vec![
                    ("kind", Json::Str(e.kind.prefix().into())),
                    ("key", Json::Str(key.hex())),
                    ("bytes", Json::Num(e.bytes as f64)),
                    ("last_used", Json::Num(e.last_used as f64)),
                ];
                if let Some(tag) = &e.tag {
                    fields.push(("tag", Json::Str(tag.clone())));
                }
                Json::obj(fields)
            })
            .collect();
        let v = Json::obj(vec![
            ("version", Json::Num(INDEX_VERSION as f64)),
            ("seq", Json::Num(idx.seq as f64)),
            ("hits", Json::Num(idx.hits as f64)),
            ("misses", Json::Num(idx.misses as f64)),
            ("puts", Json::Num(idx.puts as f64)),
            ("entries", Json::Arr(entries)),
        ]);
        atomic_write(&self.root.join("index.json"), v.to_string().as_bytes())
    }

    fn object_path(&self, kind: Kind, key: &Key, ext: &str) -> PathBuf {
        self.root
            .join("objects")
            .join(format!("{}-{}.{ext}", kind.prefix(), key.hex()))
    }

    fn files_for(&self, kind: Kind, key: &Key) -> Vec<PathBuf> {
        match kind {
            Kind::Result => vec![self.object_path(kind, key, "json")],
            _ => vec![
                self.object_path(kind, key, "json"),
                self.object_path(kind, key, "qasm"),
            ],
        }
    }

    /// Records an access (hit or miss) and bumps the LRU clock on hit.
    fn touch(&self, kind: Kind, key: &Key, hit: bool) -> Result<(), StoreError> {
        let mut idx = self.index.lock().expect("store index poisoned");
        if hit {
            idx.hits += 1;
            idx.seq += 1;
            let seq = idx.seq;
            if let Some(e) = idx.entries.get_mut(&(kind.prefix().to_string(), *key)) {
                e.last_used = seq;
            }
        } else {
            idx.misses += 1;
        }
        self.write_index(&idx)
    }

    fn record_put(
        &self,
        kind: Kind,
        key: &Key,
        bytes: u64,
        tag: Option<&str>,
    ) -> Result<(), StoreError> {
        let mut idx = self.index.lock().expect("store index poisoned");
        idx.puts += 1;
        idx.seq += 1;
        let seq = idx.seq;
        idx.entries.insert(
            (kind.prefix().to_string(), *key),
            Entry {
                kind,
                bytes,
                last_used: seq,
                tag: tag.map(str::to_string),
            },
        );
        self.write_index(&idx)
    }

    fn remove_entry(&self, kind: Kind, key: &Key) -> Result<(), StoreError> {
        // Failpoint `store.evict`: an eviction that fails mid-way.
        qaprox_fault::fail_point!("store.evict", |_action| {
            Err(StoreError::Io(std::io::Error::other(
                qaprox_fault::injected_error("store.evict"),
            )))
        });
        for path in self.files_for(kind, key) {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        let mut idx = self.index.lock().expect("store index poisoned");
        idx.entries.remove(&(kind.prefix().to_string(), *key));
        self.write_index(&idx)
    }

    /// Reads an entry's manifest and dump; `None` when there is no manifest.
    /// Counts nothing: callers decide whether a miss is a statistic.
    fn read_pair(&self, kind: Kind, key: &Key) -> Result<Option<(String, String)>, StoreError> {
        // Failpoint `store.read`: a transient read failure (flaky disk/NFS).
        qaprox_fault::fail_point!("store.read", |_action| {
            Err(StoreError::Io(std::io::Error::other(
                qaprox_fault::injected_error("store.read"),
            )))
        });
        let manifest_path = self.object_path(kind, key, "json");
        let manifest = match std::fs::read_to_string(&manifest_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let blob = match std::fs::read_to_string(self.object_path(kind, key, "qasm")) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e.into()),
        };
        Ok(Some((manifest, blob)))
    }

    fn put_pair(
        &self,
        kind: Kind,
        key: &Key,
        manifest: &str,
        blob: &str,
        tag: Option<&str>,
    ) -> Result<(), StoreError> {
        #[cfg(feature = "strict-invariants")]
        {
            // re-verify the checksum we just embedded before it hits disk
            let m = parse(manifest)
                .unwrap_or_else(|e| panic!("strict-invariants: manifest not json: {e}"));
            debug_assert_eq!(
                m.get_str("qasm_hash"),
                Some(qaprox_linalg::hashing::hash128_hex(blob.as_bytes()).as_str()),
                "strict-invariants: manifest checksum mismatch on put"
            );
        }
        // dump first, manifest last: a crash between the two leaves no
        // manifest, so the entry simply reads as absent
        atomic_write(&self.object_path(kind, key, "qasm"), blob.as_bytes())?;
        atomic_write(&self.object_path(kind, key, "json"), manifest.as_bytes())?;
        self.record_put(kind, key, (manifest.len() + blob.len()) as u64, tag)
    }

    /// Looks up a completed population. Counts a hit or miss; corrupt
    /// artifacts are evicted and surfaced as [`StoreError::Corrupt`].
    pub fn get_population(&self, key: &Key) -> Result<Option<PopulationArtifact>, StoreError> {
        let Some((manifest, blob)) = self.read_pair(Kind::Population, key)? else {
            self.touch(Kind::Population, key, false)?;
            return Ok(None);
        };
        match PopulationArtifact::decode(&manifest, &blob) {
            Ok(pop) => {
                self.touch(Kind::Population, key, true)?;
                Ok(Some(pop))
            }
            Err(e) => {
                self.remove_entry(Kind::Population, key)?;
                Err(StoreError::Corrupt(e.to_string()))
            }
        }
    }

    /// Persists a completed population and clears any partial checkpoint for
    /// the same key.
    pub fn put_population(&self, key: &Key, pop: &PopulationArtifact) -> Result<(), StoreError> {
        self.put_population_tagged(key, pop, None)
    }

    /// Like [`Store::put_population`] but attaches an optional tag (e.g. a
    /// target fingerprint) so [`Store::populations_tagged`] can later find
    /// every cached population for the same target, whatever config/seed
    /// produced it.
    pub fn put_population_tagged(
        &self,
        key: &Key,
        pop: &PopulationArtifact,
        tag: Option<&str>,
    ) -> Result<(), StoreError> {
        let (manifest, blob) = pop.encode();
        self.put_pair(Kind::Population, key, &manifest, &blob, tag)?;
        self.remove_entry(Kind::Partial, key)
    }

    /// Keys of every live population carrying `tag`, most recently used
    /// first. Does not touch hit/miss statistics — this is the degradation
    /// fallback's discovery scan, not a cache lookup.
    pub fn populations_tagged(&self, tag: &str) -> Vec<Key> {
        let idx = self.index.lock().expect("store index poisoned");
        let mut found: Vec<(u64, Key)> = idx
            .entries
            .iter()
            .filter(|((_, _), e)| e.kind == Kind::Population && e.tag.as_deref() == Some(tag))
            .map(|((_, key), e)| (e.last_used, *key))
            .collect();
        found.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.hex().cmp(&b.1.hex())));
        found.into_iter().map(|(_, key)| key).collect()
    }

    /// Looks up a partial synthesis checkpoint. Does **not** count toward
    /// hit/miss statistics (partials are an internal resume mechanism).
    /// A read error is [`StoreError::Io`] and leaves the checkpoint on disk.
    pub fn get_partial(&self, key: &Key) -> Result<Option<PartialCheckpoint>, StoreError> {
        let Some((manifest, blob)) = self.read_pair(Kind::Partial, key)? else {
            return Ok(None);
        };
        match PartialCheckpoint::decode(&manifest, &blob) {
            Ok(part) => Ok(Some(part)),
            Err(e) => {
                // a torn or corrupt checkpoint is dropped: resume restarts
                self.remove_entry(Kind::Partial, key)?;
                Err(StoreError::Corrupt(e.to_string()))
            }
        }
    }

    /// Persists a partial synthesis checkpoint.
    pub fn put_partial(&self, key: &Key, part: &PartialCheckpoint) -> Result<(), StoreError> {
        let (manifest, blob) = part.encode();
        self.put_pair(Kind::Partial, key, &manifest, &blob, None)
    }

    /// Removes a partial checkpoint (called when its population completes).
    pub fn clear_partial(&self, key: &Key) -> Result<(), StoreError> {
        self.remove_entry(Kind::Partial, key)
    }

    /// Looks up an execution result. Counts a hit or miss.
    pub fn get_result(&self, key: &Key) -> Result<Option<ResultArtifact>, StoreError> {
        let path = self.object_path(Kind::Result, key, "json");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.touch(Kind::Result, key, false)?;
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        match ResultArtifact::decode(&text) {
            Ok(res) => {
                self.touch(Kind::Result, key, true)?;
                Ok(Some(res))
            }
            Err(e) => {
                self.remove_entry(Kind::Result, key)?;
                Err(StoreError::Corrupt(e.to_string()))
            }
        }
    }

    /// Persists an execution result.
    pub fn put_result(&self, key: &Key, res: &ResultArtifact) -> Result<(), StoreError> {
        self.put_result_tagged(key, res, None)
    }

    /// Like [`Store::put_result`] but attaches an optional tag (e.g. an
    /// equivalence-class fingerprint) so [`Store::results_tagged`] can later
    /// find every stored result that is a candidate for certified reuse.
    pub fn put_result_tagged(
        &self,
        key: &Key,
        res: &ResultArtifact,
        tag: Option<&str>,
    ) -> Result<(), StoreError> {
        let text = res.encode();
        atomic_write(
            &self.object_path(Kind::Result, key, "json"),
            text.as_bytes(),
        )?;
        self.record_put(Kind::Result, key, text.len() as u64, tag)
    }

    /// Keys of every live result carrying `tag`, most recently used first.
    /// Does not touch hit/miss statistics — this is the certified fast
    /// path's discovery scan, not a cache lookup.
    pub fn results_tagged(&self, tag: &str) -> Vec<Key> {
        let idx = self.index.lock().expect("store index poisoned");
        let mut found: Vec<(u64, Key)> = idx
            .entries
            .iter()
            .filter(|((_, _), e)| e.kind == Kind::Result && e.tag.as_deref() == Some(tag))
            .map(|((_, key), e)| (e.last_used, *key))
            .collect();
        found.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.hex().cmp(&b.1.hex())));
        found.into_iter().map(|(_, key)| key).collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> Stats {
        let idx = self.index.lock().expect("store index poisoned");
        let mut by_kind = (0usize, 0usize, 0usize);
        let mut total = 0u64;
        for e in idx.entries.values() {
            total += e.bytes;
            match e.kind {
                Kind::Population => by_kind.0 += 1,
                Kind::Partial => by_kind.1 += 1,
                Kind::Result => by_kind.2 += 1,
            }
        }
        Stats {
            hits: idx.hits,
            misses: idx.misses,
            puts: idx.puts,
            entries: by_kind,
            total_bytes: total,
        }
    }

    /// Evicts least-recently-used entries until live bytes fit `max_bytes`.
    pub fn gc(&self, max_bytes: u64) -> Result<GcReport, StoreError> {
        let victims: Vec<(Kind, Key, u64)> = {
            let idx = self.index.lock().expect("store index poisoned");
            let mut total: u64 = idx.entries.values().map(|e| e.bytes).sum();
            let mut by_age: Vec<(&(String, Key), &Entry)> = idx.entries.iter().collect();
            by_age.sort_by_key(|(_, e)| e.last_used);
            let mut victims = Vec::new();
            for ((_, key), e) in by_age {
                if total <= max_bytes {
                    break;
                }
                victims.push((e.kind, *key, e.bytes));
                total -= e.bytes;
            }
            victims
        };
        let mut report = GcReport {
            evicted: 0,
            reclaimed_bytes: 0,
            remaining_bytes: 0,
        };
        for (kind, key, bytes) in victims {
            self.remove_entry(kind, &key)?;
            report.evicted += 1;
            report.reclaimed_bytes += bytes;
        }
        report.remaining_bytes = self.stats().total_bytes;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ResultRow;
    use qaprox_circuit::Circuit;
    use qaprox_synth::ApproxCircuit;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qaprox-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key_of(n: u64) -> Key {
        Key { hi: n, lo: !n }
    }

    fn some_pop(tag: f64) -> PopulationArtifact {
        let mk = |cnots: usize, dist: f64| {
            let mut c = Circuit::new(2);
            c.h(0);
            for _ in 0..cnots {
                c.cx(0, 1);
            }
            c.rz(tag, 0);
            ApproxCircuit::new(c, dist)
        };
        PopulationArtifact {
            circuits: vec![mk(1, 0.04), mk(2, 0.02)],
            minimal_hs: mk(3, 1e-11),
            explored: 50,
        }
    }

    #[test]
    fn put_get_population_counts_hits_and_misses() {
        let store = Store::open(tmp_root("popcount")).unwrap();
        let k = key_of(1);
        assert!(store.get_population(&k).unwrap().is_none());
        store.put_population(&k, &some_pop(0.5)).unwrap();
        let got = store.get_population(&k).unwrap().unwrap();
        assert_eq!(got.circuits.len(), 2);
        assert_eq!(got.explored, 50);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.puts), (1, 1, 1));
        assert_eq!(s.entries, (1, 0, 0));
        assert!(s.total_bytes > 0);
    }

    #[test]
    fn stats_persist_across_reopen() {
        let root = tmp_root("reopen");
        let k = key_of(2);
        {
            let store = Store::open(&root).unwrap();
            store.put_population(&k, &some_pop(0.1)).unwrap();
            store.get_population(&k).unwrap().unwrap();
        }
        let store = Store::open(&root).unwrap();
        let s = store.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.puts, 1);
        assert!(store.get_population(&k).unwrap().is_some());
        assert_eq!(store.stats().hits, 2);
    }

    #[test]
    fn corrupt_artifact_is_detected_and_evicted() {
        let store = Store::open(tmp_root("corrupt")).unwrap();
        let k = key_of(3);
        store.put_population(&k, &some_pop(0.2)).unwrap();
        // flip bytes in the qasm dump
        let path = store.object_path(Kind::Population, &k, "qasm");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.replace_range(0..2, "XX");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            store.get_population(&k),
            Err(StoreError::Corrupt(_))
        ));
        // evicted: a second read is a clean miss
        assert!(store.get_population(&k).unwrap().is_none());
        assert_eq!(store.stats().entries.0, 0);
    }

    #[test]
    fn partial_checkpoints_store_and_clear() {
        let store = Store::open(tmp_root("partial")).unwrap();
        let k = key_of(4);
        assert!(store.get_partial(&k).unwrap().is_none());
        let part = PartialCheckpoint {
            circuits: some_pop(0.3).circuits,
            nodes_done: 17,
        };
        store.put_partial(&k, &part).unwrap();
        let got = store.get_partial(&k).unwrap().unwrap();
        assert_eq!(got.nodes_done, 17);
        assert_eq!(got.circuits.len(), 2);
        // completing the population clears the partial
        store.put_population(&k, &some_pop(0.3)).unwrap();
        assert!(store.get_partial(&k).unwrap().is_none());
        // partials are not cache lookups
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn unreadable_partial_dump_is_an_io_error_and_keeps_the_checkpoint() {
        let store = Store::open(tmp_root("partial-io")).unwrap();
        let k = key_of(6);
        let part = PartialCheckpoint {
            circuits: some_pop(0.3).circuits,
            nodes_done: 9,
        };
        store.put_partial(&k, &part).unwrap();
        // a dump that exists but cannot be read as a file
        let dump = store.object_path(Kind::Partial, &k, "qasm");
        let aside = dump.with_extension("aside");
        std::fs::rename(&dump, &aside).unwrap();
        std::fs::create_dir(&dump).unwrap();
        match store.get_partial(&k) {
            Err(StoreError::Io(_)) => {}
            other => panic!("unreadable dump not an io error: {other:?}"),
        }
        assert!(store.object_path(Kind::Partial, &k, "json").exists());
        assert_eq!(store.stats().entries.1, 1);
        // once the dump reads again, the checkpoint is intact
        std::fs::remove_dir(&dump).unwrap();
        std::fs::rename(&aside, &dump).unwrap();
        assert_eq!(store.get_partial(&k).unwrap().unwrap().nodes_done, 9);
    }

    #[test]
    fn results_round_trip_through_store() {
        let store = Store::open(tmp_root("result")).unwrap();
        let k = key_of(5);
        assert!(store.get_result(&k).unwrap().is_none());
        let res = ResultArtifact {
            ref_score: 0.4,
            rows: vec![ResultRow {
                cnots: 2,
                hs_distance: 0.03,
                predicted: 0.9,
                score: 0.2,
                certified: false,
            }],
            reference_qasm: None,
        };
        store.put_result(&k, &res).unwrap();
        let got = store.get_result(&k).unwrap().unwrap();
        assert_eq!(got.rows, res.rows);
        assert_eq!(got.ref_score, 0.4);
    }

    #[test]
    fn tagged_results_are_discoverable_most_recent_first() {
        let store = Store::open(tmp_root("restags")).unwrap();
        let (a, b) = (key_of(50), key_of(51));
        let res = ResultArtifact {
            ref_score: 0.1,
            rows: Vec::new(),
            reference_qasm: Some("OPENQASM 2.0;\n".into()),
        };
        store.put_result_tagged(&a, &res, Some("equiv-x")).unwrap();
        store.put_result_tagged(&b, &res, Some("equiv-x")).unwrap();
        store.put_result(&key_of(52), &res).unwrap();
        assert_eq!(store.results_tagged("equiv-x"), vec![b, a]);
        // a read bumps the LRU clock, reordering the scan
        store.get_result(&a).unwrap().unwrap();
        assert_eq!(store.results_tagged("equiv-x"), vec![a, b]);
        assert!(store.results_tagged("equiv-y").is_empty());
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let store = Store::open(tmp_root("gc")).unwrap();
        for i in 0..4u64 {
            store
                .put_population(&key_of(10 + i), &some_pop(i as f64))
                .unwrap();
        }
        // touch key 10 so it becomes most recently used
        store.get_population(&key_of(10)).unwrap().unwrap();
        let before = store.stats().total_bytes;
        let per_entry = before / 4;
        // keep roughly two entries
        let report = store.gc(per_entry * 2).unwrap();
        assert!(report.evicted >= 2, "evicted {}", report.evicted);
        assert!(report.remaining_bytes <= per_entry * 2);
        // the touched entry must survive; the oldest untouched must not
        assert!(store.get_population(&key_of(10)).unwrap().is_some());
        assert!(store.get_population(&key_of(11)).unwrap().is_none());
        // gc to zero clears everything
        let report = store.gc(0).unwrap();
        assert_eq!(report.remaining_bytes, 0);
        assert_eq!(store.stats().entries, (0, 0, 0));
    }

    #[test]
    fn gc_is_a_noop_under_budget() {
        let store = Store::open(tmp_root("gcnoop")).unwrap();
        store.put_population(&key_of(20), &some_pop(0.7)).unwrap();
        let report = store.gc(u64::MAX).unwrap();
        assert_eq!(report.evicted, 0);
        assert_eq!(report.reclaimed_bytes, 0);
        assert!(store.get_population(&key_of(20)).unwrap().is_some());
    }

    #[test]
    fn tagged_populations_are_discoverable_most_recent_first() {
        let root = tmp_root("tags");
        let (a, b, c) = (key_of(30), key_of(31), key_of(32));
        {
            let store = Store::open(&root).unwrap();
            store
                .put_population_tagged(&a, &some_pop(0.1), Some("target-x"))
                .unwrap();
            store
                .put_population_tagged(&b, &some_pop(0.2), Some("target-x"))
                .unwrap();
            store
                .put_population_tagged(&c, &some_pop(0.3), Some("target-y"))
                .unwrap();
            store.put_population(&key_of(33), &some_pop(0.4)).unwrap();
            assert_eq!(store.populations_tagged("target-x"), vec![b, a]);
            // a read bumps the LRU clock, reordering the scan
            store.get_population(&a).unwrap().unwrap();
            assert_eq!(store.populations_tagged("target-x"), vec![a, b]);
            assert_eq!(store.populations_tagged("target-y"), vec![c]);
            assert!(store.populations_tagged("target-z").is_empty());
        }
        // tags survive an index round trip through disk
        let store = Store::open(&root).unwrap();
        assert_eq!(store.populations_tagged("target-x"), vec![a, b]);
        // eviction forgets the tag with the entry
        store.remove_entry(Kind::Population, &b).unwrap();
        assert_eq!(store.populations_tagged("target-x"), vec![a]);
    }
}
