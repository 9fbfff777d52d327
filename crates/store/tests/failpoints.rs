//! Fault-injection tests for the store's write, read and evict sites.
//!
//! The failpoint registry is process-global, so these tests live in their
//! own test binary: no unarmed store test can run beside them, write through
//! a point one of them armed, or use up an `after:N` firing meant for them.
//! Inside the binary every test holds a [`Scenario`] guard for its whole
//! body, unarmed stretches included (`rearm("")`), so the tests also
//! serialize among themselves.
//!
//! Run with `cargo test -p qaprox-store --features failpoints`; without the
//! feature this file compiles to nothing.

#![cfg(feature = "failpoints")]

use qaprox_circuit::Circuit;
use qaprox_fault::Scenario;
use qaprox_store::{Key, PartialCheckpoint, PopulationArtifact, Store, StoreError};
use qaprox_synth::ApproxCircuit;
use std::path::PathBuf;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qaprox-store-fault-test-{tag}-{}",
        std::process::id()
    ));
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

/// A torn write lands a half-payload at the final path, the checksum
/// catches it on read, the entry is evicted, and a recompute (fresh put)
/// fully recovers.
#[test]
fn torn_write_is_detected_evicted_and_recovered_by_recompute() {
    let scenario = Scenario::setup("");
    let store = Store::open(tmp_root("torn")).unwrap();
    let k = key_of(40);
    // fire exactly once, on the first write of the put (the qasm dump),
    // leaving an intact manifest whose checksum cannot match
    scenario.rearm("store.write=after:0->torn");
    store.put_population(&k, &some_pop(0.5)).unwrap();
    assert_eq!(qaprox_fault::fires("store.write"), 1);
    scenario.rearm("");
    match store.get_population(&k) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("torn artifact not flagged corrupt: {other:?}"),
    }
    // evicted: the follow-up read is a clean miss, the index is clean
    assert!(store.get_population(&k).unwrap().is_none());
    assert_eq!(store.stats().entries.0, 0);
    // recompute path: a fresh put round-trips again
    store.put_population(&k, &some_pop(0.5)).unwrap();
    let got = store.get_population(&k).unwrap().unwrap();
    assert_eq!(got.explored, 50);
}

#[test]
fn injected_write_and_read_errors_are_transient_io_errors() {
    let scenario = Scenario::setup("");
    let store = Store::open(tmp_root("injected")).unwrap();
    let k = key_of(41);
    scenario.rearm("store.write=always");
    let err = store.put_population(&k, &some_pop(0.6)).unwrap_err();
    assert!(matches!(err, StoreError::Io(_)));
    assert!(qaprox_fault::is_transient(&err.to_string()), "{err}");

    scenario.rearm("");
    store.put_population(&k, &some_pop(0.6)).unwrap();
    scenario.rearm("store.read=after:0");
    let err = store.get_population(&k).unwrap_err();
    assert!(qaprox_fault::is_transient(&err.to_string()), "{err}");
    // after:N disarms after firing: the retry goes through
    assert!(store.get_population(&k).unwrap().is_some());

    scenario.rearm("");
    let part = PartialCheckpoint {
        circuits: some_pop(0.6).circuits,
        nodes_done: 3,
    };
    store.put_partial(&k, &part).unwrap();
    scenario.rearm("store.read=after:0");
    let err = store.get_partial(&k).unwrap_err();
    assert!(matches!(err, StoreError::Io(_)));
    assert!(qaprox_fault::is_transient(&err.to_string()), "{err}");
    // the failed read destroyed nothing: the retry finds the checkpoint
    assert_eq!(store.get_partial(&k).unwrap().unwrap().nodes_done, 3);

    scenario.rearm("store.evict=always");
    let err = store.clear_partial(&k).unwrap_err();
    assert!(qaprox_fault::is_transient(&err.to_string()), "{err}");
}
