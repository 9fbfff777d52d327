//! Fault-injection tests for the trajectory shot loop and the executor.
//!
//! The failpoint registry is process-global, so these tests live in their
//! own test binary: no unarmed test can run beside them and trip over a
//! point one of them armed. Inside the binary every test holds a
//! [`Scenario`] guard for its whole body — clean baselines included
//! (`Scenario::setup("")`) — so the tests also serialize among themselves.
//!
//! Run with `cargo test -p qaprox-sim --features failpoints`; without the
//! feature this file compiles to nothing.

#![cfg(feature = "failpoints")]

use qaprox_circuit::Circuit;
use qaprox_device::devices::ourense;
use qaprox_fault::Scenario;
use qaprox_linalg::parallel::with_thread_budget;
use qaprox_sim::{Backend, NoiseModel, TrajectoryBackend};

fn bell() -> Circuit {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1);
    c
}

fn backend_2q(shots: usize) -> TrajectoryBackend {
    let cal = ourense().induced(&[0, 1]);
    TrajectoryBackend::with_shots(NoiseModel::from_calibration(cal), shots)
}

fn some_circuits(n: usize) -> Vec<Circuit> {
    (0..n)
        .map(|i| {
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).rz(0.1 * i as f64, 1).cx(1, 2);
            c
        })
        .collect()
}

fn trajectory_3q(shots: usize) -> Backend {
    let cal = ourense().induced(&[0, 1, 2]);
    Backend::Trajectory(TrajectoryBackend::with_shots(
        NoiseModel::from_calibration(cal),
        shots,
    ))
}

#[test]
fn corrupt_shots_are_aborted_and_counted() {
    let scenario = Scenario::setup("");
    let tb = backend_2q(16);
    let c = bell();
    let clean = tb.probabilities(&c, 3);

    // torn -> NaN amplitude on the fourth shot: aborted, counted, and
    // the surviving 15 shots still average to a sane distribution
    scenario.rearm("traj.corrupt=after:3->torn");
    let run = tb.execute(&[&c], &[3]).unwrap();
    let (probs, health) = (&run.rows[0], run.health[0]);
    assert_eq!(health.aborted_shots, 1);
    assert_eq!(health.nan_events, 1);
    assert_eq!(health.clean_shots, 15);
    assert!(!health.is_healthy());
    assert!(probs.iter().all(|p| p.is_finite()));
    assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // error -> doubled amplitudes: norm drift, same abort accounting
    scenario.rearm("traj.corrupt=after:0");
    let health = tb.execute(&[&c], &[3]).unwrap().health[0];
    assert_eq!(health.norm_drift_events, 1);
    assert_eq!(health.aborted_shots, 1);

    // with the points disarmed, the run is bit-identical to the baseline
    scenario.rearm("");
    assert_eq!(tb.probabilities(&c, 3), clean);
}

#[test]
fn batch_health_isolates_the_corrupt_candidate() {
    let scenario = Scenario::setup("");
    let tb = backend_2q(8);
    let circuits: Vec<Circuit> = (0..3)
        .map(|i| {
            let mut c = Circuit::new(2);
            c.h(0).rz(0.1 * i as f64, 0).cx(0, 1);
            c
        })
        .collect();
    let refs: Vec<&Circuit> = circuits.iter().collect();
    let clean = tb.probabilities_batch(&circuits).unwrap();
    // one worker claims the (candidate, chunk) items in a fixed order, so
    // eval #1 is deterministic: exactly one candidate takes the NaN hit
    scenario.rearm("traj.corrupt=after:1->torn");
    let run = with_thread_budget(1, || tb.execute(&refs, &[0, 1, 2]).unwrap());
    assert_eq!(run.health.len(), 3);
    let hit: Vec<usize> = (0..3).filter(|&i| !run.health[i].is_healthy()).collect();
    assert_eq!(
        hit.len(),
        1,
        "one candidate takes the hit: {:?}",
        run.health
    );
    let hit = hit[0];
    assert_eq!(run.health[hit].nan_events, 1);
    assert_eq!(run.health[hit].clean_shots, 7);
    assert!(run.rows[hit].iter().all(|p| p.is_finite()));
    // untouched candidates stay bit-identical to the clean batch
    for i in (0..3).filter(|&i| i != hit) {
        assert_eq!(run.rows[i], clean[i], "sibling {i} moved");
    }
}

#[test]
fn traj_shot_failpoint_evaluates_per_shot() {
    let _scenario = Scenario::setup("traj.shot=never");
    let tb = backend_2q(8);
    let before = qaprox_fault::evals("traj.shot");
    tb.probabilities(&bell(), 0);
    assert_eq!(qaprox_fault::evals("traj.shot"), before + 8);
    // a batch evaluates it once per candidate-shot: every (candidate,
    // chunk) work item runs its own shots
    let backend = trajectory_3q(8);
    let before = qaprox_fault::evals("traj.shot");
    backend.execute(&some_circuits(3), &[0, 1, 2]).unwrap();
    assert_eq!(qaprox_fault::evals("traj.shot"), before + 24);
}

#[test]
fn injected_shot_fault_fails_the_batch_transiently() {
    let _scenario = Scenario::setup("hardware.shot=after:0");
    let backend = Backend::Ideal;
    let circuits = some_circuits(2);
    let err = backend.execute(&circuits, &[0, 1]).unwrap_err();
    assert!(qaprox_fault::is_transient(&err), "{err}");
    // after:N disarms once fired: the retry succeeds
    assert_eq!(backend.execute(&circuits, &[0, 1]).unwrap().rows.len(), 2);
}

#[test]
fn injected_batch_fault_degrades_to_per_candidate() {
    // a `traj.batch` fault kills the shot-batched request, but the executor
    // degrades to per-candidate requests: the job still succeeds and —
    // because both paths are bit-identical by contract — produces exactly
    // the rows and health the batched request would have
    let scenario = Scenario::setup("");
    let backend = trajectory_3q(16);
    let circuits = some_circuits(3);
    let clean = backend.execute(&circuits, &[0, 1, 2]).unwrap();
    scenario.rearm("traj.batch=always");
    let degraded = backend.execute(&circuits, &[0, 1, 2]).unwrap();
    assert_eq!(clean.rows, degraded.rows, "degraded rows must match");
    assert_eq!(clean.health, degraded.health);
}

#[test]
fn traj_batch_is_evaluated_only_by_the_batched_attempt() {
    let scenario = Scenario::setup("traj.batch=never");
    let backend = trajectory_3q(8);
    let circuits = some_circuits(3);
    // solo calls never reach the batched attempt
    backend.probabilities(&circuits[0], 0);
    assert_eq!(qaprox_fault::evals("traj.batch"), 0);
    backend.execute(&circuits, &[0, 1, 2]).unwrap();
    assert_eq!(qaprox_fault::evals("traj.batch"), 1);
    // a fired fault degrades to per-candidate requests, which do not
    // evaluate it again
    scenario.rearm("traj.batch=always");
    backend.execute(&circuits, &[0, 1, 2]).unwrap();
    assert_eq!(qaprox_fault::evals("traj.batch"), 1);
}
