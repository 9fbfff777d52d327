//! Crash-recovery integration test (requires `--features failpoints`).
//!
//! The scenario the journal exists for: a worker dies mid-synthesis (here:
//! an injected panic, which the scheduler deliberately does NOT journal —
//! a dead process appends nothing), the process restarts on the same
//! journal + store directories, the lost job is re-enqueued under its
//! original id, resumes from the last store checkpoint, and — because
//! resume is replay-based — finishes with a payload bit-identical to a run
//! that never crashed.
#![cfg(feature = "failpoints")]

use qaprox_fault::Scenario;
use qaprox_serve::journal::{replay, SEGMENT_CAP};
use qaprox_serve::{JobSpec, JobState, Scheduler, SchedulerConfig, Submitted, SynthSpec};
use qaprox_store::json::Json;
use qaprox_store::Store;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qaprox-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> JobSpec {
    JobSpec::Synth(SynthSpec {
        workload: "tfim".into(),
        qubits: 2,
        steps: 2,
        max_cnots: 3,
        max_nodes: 25,
        max_hs: 0.4,
        seed: 11,
        deadline_ms: None,
    })
}

fn cfg(journal: PathBuf) -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        checkpoint_every: 1,
        journal_dir: Some(journal),
        ..Default::default()
    }
}

/// The synthesis content of a payload, with provenance fields (`cached`,
/// `resumed_from`) stripped: those legitimately differ between a crashed-
/// and-recovered run and an uninterrupted one.
fn essence(payload: &Json) -> String {
    let Json::Obj(fields) = payload else {
        panic!("payload is not an object: {payload}");
    };
    Json::Obj(
        fields
            .iter()
            .filter(|(k, _)| k != "cached" && k != "resumed_from")
            .cloned()
            .collect(),
    )
    .to_string()
}

#[test]
fn recovered_job_resumes_from_checkpoint_and_matches_the_no_crash_run() {
    let journal_dir = tmp_dir("journal");
    let store_dir = tmp_dir("store");

    // Life A: the worker panics mid-synthesis (this spec runs exactly two
    // expansion rounds; `after:1` lets round 1 checkpoint and kills round 2)
    // — an emulated process crash.
    {
        let scenario = Scenario::setup("synth.round=after:1->panic");
        let store = Arc::new(Store::open(&store_dir).unwrap());
        let sched = Scheduler::start(cfg(journal_dir.clone()), Some(store)).unwrap();
        let id = match sched.submit(spec()).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        assert_eq!(id, 1);
        let view = sched.wait(id, WAIT).unwrap();
        match view.state {
            JobState::Failed(msg) => {
                assert!(
                    msg.contains("injected"),
                    "expected the injected crash: {msg}"
                )
            }
            other => panic!("expected the injected crash, got {other:?}"),
        }
        drop(scenario); // disarm before the recovery run
        sched.shutdown();
    }

    // Life B: same journal + store. The crash was never journaled, so the
    // job replays as unfinished, re-enqueues under id 1, and resumes from
    // the persisted checkpoint.
    let recovered = {
        let store = Arc::new(Store::open(&store_dir).unwrap());
        let sched = Scheduler::start(cfg(journal_dir), Some(store)).unwrap();
        let report = sched.recovery_report().unwrap();
        let reenqueued = report.get("reenqueued").and_then(Json::as_arr).unwrap();
        assert_eq!(reenqueued.len(), 1, "{report}");
        assert_eq!(reenqueued[0].get_u64("id"), Some(1));
        assert!(
            reenqueued[0].get_u64("checkpoint").unwrap() > 0,
            "the crash left a journaled checkpoint: {report}"
        );
        let view = sched.wait(1, WAIT).unwrap();
        assert_eq!(view.state, JobState::Done);
        let payload = view.payload().unwrap();
        assert!(
            payload.get_u64("resumed_from").unwrap() > 0,
            "the recovered run resumed, not restarted: {payload}"
        );
        sched.shutdown();
        payload
    };

    // Life C: the same spec, fresh directories, no crash — the control run.
    let uninterrupted = {
        let store = Arc::new(Store::open(tmp_dir("control-store")).unwrap());
        let sched = Scheduler::start(cfg(tmp_dir("control-journal")), Some(store)).unwrap();
        let id = match sched.submit(spec()).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        let view = sched.wait(id, WAIT).unwrap();
        assert_eq!(view.state, JobState::Done);
        let payload = view.payload().unwrap();
        sched.shutdown();
        payload
    };

    assert_eq!(
        essence(&recovered),
        essence(&uninterrupted),
        "replay resume must be bit-identical to the uninterrupted run"
    );
}

/// The rotation rule holds for every journaled transition: with the only
/// worker held in `serve.worker.pre_exec`, a storm of queued cancels writes
/// more than `SEGMENT_CAP` records without a single worker terminal, and
/// the journal must still compact to one segment holding just the live
/// jobs.
#[test]
fn queued_cancels_alone_rotate_the_journal() {
    let journal_dir = tmp_dir("rotate-journal");
    let _scenario = Scenario::setup("serve.worker.pre_exec=after:0->sleep:3000");
    let sched = Scheduler::start(cfg(journal_dir.clone()), None).unwrap();
    let holder = match sched.submit(spec()).unwrap() {
        Submitted::Accepted(id) => id,
        other => panic!("{other:?}"),
    };
    let held_from = Instant::now();
    while sched.job(holder).unwrap().state != JobState::Running {
        assert!(held_from.elapsed() < WAIT, "the worker never took the job");
        std::thread::sleep(Duration::from_millis(1));
    }

    // a submit and a cancel record per job
    let storm = SEGMENT_CAP / 2 + 8;
    let JobSpec::Synth(base) = spec() else {
        unreachable!()
    };
    for seed in 0..storm as u64 {
        let job = JobSpec::Synth(SynthSpec {
            seed: 1000 + seed,
            ..base.clone()
        });
        let id = match sched.submit(job).unwrap() {
            Submitted::Accepted(id) => id,
            other => panic!("{other:?}"),
        };
        assert!(sched.cancel(id));
    }
    assert_eq!(
        sched.job(holder).unwrap().state,
        JobState::Running,
        "the storm outlasted the worker's hold, so a worker terminal may have rotated"
    );
    assert_eq!(sched.stats().get_u64("cancelled"), Some(storm as u64));

    let mut segments: Vec<String> = std::fs::read_dir(&journal_dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("seg-"))
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 1, "{segments:?}");
    assert_ne!(
        segments[0], "seg-000000.ndjson",
        "the journal never rotated"
    );
    let records = replay(&journal_dir).unwrap().records;
    assert!(
        records.len() < SEGMENT_CAP,
        "{} records after {} appends: not compacted",
        records.len(),
        2 + 2 * storm
    );
    sched.shutdown();
}
