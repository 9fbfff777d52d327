//! Wide-run batching: the serve wide path must score its trajectory
//! candidates in ONE shot-batched request — a single shared arena reset per
//! shot, however many candidates are in flight — instead of one full shot
//! loop per candidate. Pinned via the run's own counters
//! ([`qaprox_serve::RunOutcome::batch`]).

use qaprox_serve::{obtain_run, ExecCtl, RunSpec, SynthSpec};
use qaprox_sim::BatchStats;

#[test]
fn wide_run_shares_one_reset_per_shot_across_candidates() {
    let shots = 32usize;
    let spec = RunSpec {
        synth: SynthSpec {
            workload: "tfim".into(),
            qubits: 8, // past MAX_SYNTH_QUBITS: the wide trajectory path
            steps: 3,
            ..Default::default()
        },
        device: "toronto".into(),
        backend: Some("trajectory".into()),
        shots: Some(shots),
        ..Default::default()
    };
    let out = obtain_run(None, &spec, &ExecCtl::default()).unwrap();
    assert_eq!(out.result.rows.len(), 2, "steps 1 and 2 truncations");
    assert_eq!(
        out.batch,
        Some(BatchStats {
            resets: shots as u64,
            groups: 1
        }),
        "candidates must share one arena reset per shot over {} candidates",
        out.result.rows.len()
    );
}
