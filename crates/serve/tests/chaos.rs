//! Chaos property test (requires `--features failpoints`).
//!
//! Many seeded random failpoint schedules against a mixed synth/run
//! workload. The property under test is *liveness plus accounting*, not any
//! particular outcome:
//!
//! * no deadlock — every `wait` returns within its bound and `shutdown`
//!   joins;
//! * no lost or duplicated job ids — every accepted id is unique and still
//!   queryable at the end;
//! * every job terminates — the final state is terminal
//!   (done / failed / degraded / cancelled / timed-out), never stuck in
//!   queued/running.
//!
//! `QAPROX_QUICK=1` trims the schedule count for smoke runs (CI).
#![cfg(feature = "failpoints")]

use qaprox_fault::Scenario;
use qaprox_serve::{
    JobSpec, JobState, RetryPolicy, RunSpec, Scheduler, SchedulerConfig, Submitted, SynthSpec,
    WatchdogConfig,
};
use qaprox_store::json::Json;
use qaprox_store::Store;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(180);

fn tiny(seed: u64) -> SynthSpec {
    SynthSpec {
        workload: "tfim".into(),
        qubits: 2,
        steps: 2,
        max_cnots: 3,
        max_nodes: 20,
        max_hs: 0.4,
        seed,
        deadline_ms: None,
    }
}

/// One seeded fault schedule: every instrumented layer misbehaves with some
/// probability, each from its own deterministic stream.
fn fault_spec(seed: u64) -> String {
    format!(
        "store.read=prob:0.25;seed={}->error,\
         store.write=prob:0.15;seed={}->torn,\
         hardware.shot=prob:0.3;seed={}->error,\
         serve.worker.pre_exec=prob:0.2;seed={}->error,\
         synth.round=prob:0.002;seed={}->panic",
        seed,
        seed.wrapping_add(1),
        seed.wrapping_add(2),
        seed.wrapping_add(3),
        seed.wrapping_add(4),
    )
}

#[test]
fn seeded_fault_schedules_never_lose_or_wedge_jobs() {
    let quick = std::env::var("QAPROX_QUICK").is_ok_and(|v| v != "0");
    let schedules: u64 = if quick { 12 } else { 100 };

    for chaos_seed in 0..schedules {
        let store_dir =
            std::env::temp_dir().join(format!("qaprox-chaos-{chaos_seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = Arc::new(Store::open(&store_dir).unwrap());
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 2,
                checkpoint_every: 5,
                // fast retries: chaos runs many schedules
                retry: RetryPolicy {
                    max_attempts: 4,
                    base_ms: 1,
                    cap_ms: 5,
                    ..Default::default()
                },
                ..Default::default()
            },
            Some(store),
        )
        .unwrap();

        // arm AFTER startup so setup itself is deterministic
        let _scenario = Scenario::setup(&fault_spec(chaos_seed * 101));

        // mixed workload: four synth jobs, two run jobs (distinct specs)
        let mut specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::Synth(tiny(chaos_seed * 10 + i)))
            .collect();
        for i in 0..2 {
            specs.push(JobSpec::Run(RunSpec {
                synth: tiny(chaos_seed * 10 + i),
                device: "ourense".into(),
                cx_error: Some(0.1),
                hardware: false,
                job_seed: chaos_seed,
                epsilon: None,
                ..Default::default()
            }));
        }

        let mut accepted = Vec::new();
        for spec in specs {
            match sched.submit(spec) {
                Ok(Submitted::Accepted(id)) => accepted.push(id),
                Ok(Submitted::Deduped(id)) => assert!(
                    accepted.contains(&id),
                    "schedule {chaos_seed}: dedup pointed at an unknown id {id}"
                ),
                Ok(Submitted::Rejected) => {} // backpressure is a legal outcome
                // admission control is not configured in this schedule
                Ok(Submitted::Overloaded { .. }) => {
                    panic!("schedule {chaos_seed}: overloaded with admission disabled")
                }
                // the enqueue failpoint is not armed, so submission errors
                // can only be validation — and these specs are valid
                Err(e) => panic!("schedule {chaos_seed}: submit failed: {e}"),
            }
        }

        let mut unique = accepted.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            accepted.len(),
            "schedule {chaos_seed}: duplicated job ids {accepted:?}"
        );

        for &id in &accepted {
            let view = sched
                .wait(id, WAIT)
                .unwrap_or_else(|| panic!("schedule {chaos_seed}: job {id} lost"));
            assert!(
                view.state.is_terminal(),
                "schedule {chaos_seed}: job {id} wedged in {:?}",
                view.state
            );
            match &view.state {
                JobState::Done | JobState::Degraded => assert!(
                    view.result.is_some(),
                    "schedule {chaos_seed}: job {id} finished without a payload"
                ),
                JobState::Failed(_) | JobState::Cancelled | JobState::TimedOut => {}
                other => panic!("schedule {chaos_seed}: job {id} non-terminal {other:?}"),
            }
        }

        // no deadlock: shutdown joins the pool
        sched.shutdown();
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}

/// Wide trajectory jobs ride the same `serve.backend` failpoint as narrow
/// runs: an injected backend outage is retried until the job completes, the
/// evaluation counter proves the trajectory path actually reached the
/// backend, and a resubmission answered from the result cache leaves the
/// counter untouched.
#[test]
fn trajectory_jobs_count_backend_invocations_and_survive_outages() {
    let store_dir = std::env::temp_dir().join(format!("qaprox-chaos-traj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Arc::new(Store::open(&store_dir).unwrap());
    let sched = Scheduler::start(
        SchedulerConfig {
            workers: 1,
            retry: RetryPolicy {
                max_attempts: 4,
                base_ms: 1,
                cap_ms: 5,
                ..Default::default()
            },
            ..Default::default()
        },
        Some(store),
    )
    .unwrap();

    // one injected outage on the first backend call, then clean passes that
    // keep the evaluation counter running
    let _scenario = Scenario::setup("serve.backend=after:0");
    let evals_start = qaprox_fault::evals("serve.backend");

    let spec = JobSpec::Run(RunSpec {
        synth: SynthSpec {
            workload: "tfim".into(),
            qubits: 8, // wide: past the synthesis cap, still cheap to simulate
            steps: 3,
            max_cnots: 3,
            max_nodes: 20,
            max_hs: 0.4,
            seed: 0,
            deadline_ms: None,
        },
        device: "toronto".into(),
        backend: Some("trajectory".into()),
        shots: Some(16),
        ..Default::default()
    });
    let id = match sched.submit(spec.clone()).unwrap() {
        Submitted::Accepted(id) => id,
        other => panic!("trajectory job not accepted: {other:?}"),
    };
    let view = sched.wait(id, WAIT).expect("trajectory job lost");
    assert!(
        matches!(view.state, JobState::Done),
        "outage must be retried to completion, got {:?}",
        view.state
    );
    let evals_done = qaprox_fault::evals("serve.backend");
    assert!(
        evals_done >= evals_start + 2,
        "outage + retry must both reach the backend failpoint \
         ({evals_start} -> {evals_done})"
    );

    // resubmit: the result cache answers without touching the backend
    let id2 = match sched.submit(spec).unwrap() {
        Submitted::Accepted(id) => id,
        Submitted::Deduped(id) => id,
        other => panic!("resubmit rejected: {other:?}"),
    };
    let view2 = sched.wait(id2, WAIT).expect("resubmitted job lost");
    assert!(matches!(view2.state, JobState::Done), "{:?}", view2.state);
    assert_eq!(
        qaprox_fault::evals("serve.backend"),
        evals_done,
        "a cached trajectory result must not re-invoke the backend"
    );

    sched.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// The seeded overload schedule from the robustness acceptance bar: one
/// trajectory job stalled by a `traj.shot` sleep (the watchdog must
/// quarantine it), one job submitted with an already-expired deadline (shed
/// before it consumes any backend evaluation), and a flood of healthy jobs
/// queued behind them. Afterwards the accounting must balance
/// (submitted = completed + shed + quarantined + degraded) and a restart on
/// the same journal must restore the casualties as terminal — NOT re-run
/// them — so a poison circuit cannot crash-loop recovery replay.
#[test]
fn overload_schedule_sheds_quarantines_and_balances_accounting() {
    let base = std::env::temp_dir().join(format!("qaprox-chaos-overload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let store = Arc::new(Store::open(base.join("store")).unwrap());
    let cfg = SchedulerConfig {
        workers: 1, // deterministic dispatch order: stall, then shed, then flood
        journal_dir: Some(base.join("journal")),
        // the budget must clear a legitimate wide trajectory job (tens of
        // milliseconds) by a wide margin, and the injected stall must clear
        // the budget by another
        watchdog: WatchdogConfig {
            stall_timeout: Some(Duration::from_millis(1000)),
            poll_interval: Duration::from_millis(10),
            ..Default::default()
        },
        ..Default::default()
    };
    let sched = Scheduler::start(cfg.clone(), Some(Arc::clone(&store))).unwrap();

    // the first trajectory shot anywhere sleeps far past the watchdog
    // budget, then the `after:0` trigger disarms so every later shot runs
    // clean; `serve.backend=never` fires nothing but keeps that failpoint's
    // evaluation counter live (unarmed points do not count)
    let _scenario = Scenario::setup("traj.shot=after:0->sleep:3000,serve.backend=never");
    let evals_start = qaprox_fault::evals("serve.backend");

    let wide = |seed: u64, deadline_ms: Option<u64>| {
        JobSpec::Run(RunSpec {
            synth: SynthSpec {
                workload: "tfim".into(),
                qubits: 8, // wide: past the synthesis cap, still cheap
                steps: 3,
                max_cnots: 3,
                max_nodes: 20,
                max_hs: 0.4,
                seed,
                deadline_ms,
            },
            device: "toronto".into(),
            backend: Some("trajectory".into()),
            shots: Some(16),
            ..Default::default()
        })
    };
    let submit = |spec: JobSpec| match sched.submit(spec).unwrap() {
        Submitted::Accepted(id) => id,
        other => panic!("overload-schedule job not accepted: {other:?}"),
    };

    let stalled = submit(wide(0, None));
    // expired on arrival: waits behind the stalled job, shed at dispatch
    let expired = submit(wide(1, Some(0)));
    let flood: Vec<u64> = (2..6).map(|seed| submit(wide(seed, None))).collect();

    // the stalled job lands quarantined with the watchdog's verdict
    let view = sched.wait(stalled, WAIT).expect("stalled job lost");
    match &view.state {
        JobState::Quarantined(reason) => assert!(
            reason.contains("stalled"),
            "quarantine verdict must name the stall: {reason}"
        ),
        other => panic!("stalled job must be quarantined, got {other:?}"),
    }
    // the expired job is shed without ever starting
    let view = sched.wait(expired, WAIT).expect("expired job lost");
    assert_eq!(view.state, JobState::Shed);
    // the flood drains to completion once the stalled job is condemned
    for &id in &flood {
        let view = sched.wait(id, WAIT).expect("flood job lost");
        assert_eq!(view.state, JobState::Done, "flood job {id} did not finish");
    }

    // exactly one backend evaluation for the stalled job (condemned in the
    // shot loop, after the counting failpoint) plus one per flood job — the
    // shed job consumed zero
    assert_eq!(
        qaprox_fault::evals("serve.backend") - evals_start,
        1 + flood.len() as u64,
        "the shed job must consume zero backend evaluations"
    );

    // accounting balances: submitted = completed + shed + quarantined
    let stats = sched.stats();
    assert_eq!(stats.get_u64("submitted"), Some(2 + flood.len() as u64));
    assert_eq!(stats.get_u64("completed"), Some(flood.len() as u64));
    assert_eq!(stats.get_u64("shed"), Some(1));
    assert_eq!(stats.get_u64("quarantined"), Some(1));
    assert_eq!(stats.get_u64("degraded"), Some(0));
    assert_eq!(stats.get_u64("queued_cost"), Some(0));

    sched.shutdown();

    // restart on the same journal: both casualties come back terminal and
    // queryable, nothing is re-enqueued, and the backend counter stays put
    let evals_before_restart = qaprox_fault::evals("serve.backend");
    let sched = Scheduler::start(cfg, Some(store)).unwrap();
    let report = sched.recovery_report().expect("journal configured");
    assert_eq!(
        report.get_u64("restored_terminal"),
        Some(2 + flood.len() as u64)
    );
    let reenqueued = report.get("reenqueued").and_then(Json::as_arr).unwrap();
    assert!(reenqueued.is_empty(), "nothing to re-run: {reenqueued:?}");
    match &sched.job(stalled).expect("quarantined job restored").state {
        JobState::Quarantined(reason) => assert!(
            reason.contains("stalled"),
            "restart must restore the quarantine verdict: {reason}"
        ),
        other => panic!("quarantined job restored as {other:?}"),
    }
    assert_eq!(
        sched.job(expired).expect("shed job restored").state,
        JobState::Shed
    );
    assert_eq!(
        qaprox_fault::evals("serve.backend"),
        evals_before_restart,
        "recovery replay must not re-run a quarantined job"
    );
    sched.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}
