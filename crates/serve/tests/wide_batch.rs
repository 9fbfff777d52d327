//! Wide-run scoring: the serve wide path scores its reference and its
//! candidates in ONE trajectory request, and every served number must equal
//! the row's solo run bit for bit — the reference under the spec's job seed,
//! candidate `i` under job seed `i` — at any thread budget.

use qaprox_linalg::parallel::with_thread_budget;
use qaprox_serve::{obtain_run, ExecCtl, RunSpec, SynthSpec};
use qaprox_sim::Backend;

#[test]
fn wide_run_rows_equal_solo_runs() {
    let spec = RunSpec {
        synth: SynthSpec {
            workload: "tfim".into(),
            qubits: 8, // past MAX_SYNTH_QUBITS: the wide trajectory path
            steps: 4,
            ..Default::default()
        },
        device: "toronto".into(),
        backend: Some("trajectory".into()),
        shots: Some(40), // three chunks of 16 per row
        job_seed: 11,
        ..Default::default()
    };
    let Backend::Trajectory(tb) = spec.backend().unwrap() else {
        panic!("a wide spec builds a trajectory backend");
    };
    let reference = spec.reference_circuit().unwrap();
    let ideal = qaprox_sim::statevector::probabilities(&reference);
    let tv = |p: &[f64]| qaprox_metrics::total_variation(p, &ideal).to_bits();
    let ranked = qaprox_synth::rank_by_predicted(
        &spec.synth.wide_population_circuits().unwrap(),
        &spec.calibration().unwrap(),
    );
    let solo_ref = tv(&tb.probabilities(&reference, spec.job_seed));
    let solo_rows: Vec<u64> = ranked
        .iter()
        .enumerate()
        .map(|(i, (ap, _))| tv(&tb.probabilities(&ap.circuit, i as u64)))
        .collect();

    for threads in [1usize, 2] {
        let out = with_thread_budget(threads, || {
            obtain_run(None, &spec, &ExecCtl::default()).unwrap()
        });
        assert_eq!(out.result.rows.len(), 3, "steps 1-3 truncations");
        assert_eq!(
            out.result.ref_score.to_bits(),
            solo_ref,
            "ref_score at {threads} threads"
        );
        let served: Vec<u64> = out.result.rows.iter().map(|r| r.score.to_bits()).collect();
        assert_eq!(served, solo_rows, "rows at {threads} threads");
        assert!(out.health.is_none(), "a clean run reports no health");
    }
}
