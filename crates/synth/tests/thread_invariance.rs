//! Thread-count invariance of the synthesis engines.
//!
//! The parallel search waves (qsearch) and block trials (qfast) must be
//! *bit-for-bit deterministic* regardless of worker-thread count: serve's
//! resume-by-checkpoint keys hash the intermediate stream, so a thread-count
//! change on a redeployed host must not invalidate stored artifacts. Seeds
//! derive from structural positions (depth, node rank, placement index),
//! never from thread identity, and wave merges happen in task order — so
//! budgets of 1, 2 and 8 workers must produce identical intermediate
//! streams (fingerprints + distance bits) and the identical best circuit.
//!
//! Budgets are set with the thread-local `with_thread_budget`, so the cases
//! run side by side without touching the process-wide thread cap.

mod common;

use common::{
    stream_digest, tfim_step, toffoli_qfast, toffoli_qsearch, TFIM_STEP_DIGEST,
    TOFFOLI_QFAST_DIGEST,
};
use qaprox_device::Topology;
use qaprox_linalg::hashing::Hash128;
use qaprox_linalg::parallel::with_thread_budget;
use qaprox_linalg::random::{haar_unitary, SplitMix64};
use qaprox_synth::{qfast, qsearch, QFastConfig, QSearchConfig, SynthesisOutput};

/// Runs `synth` under budgets of 1, 2 and 8 workers, asserts the three
/// results are equal, and returns the result.
fn same_at_every_budget<T>(case: &str, synth: impl Fn() -> T) -> T
where
    T: PartialEq + std::fmt::Debug,
{
    let base = with_thread_budget(1, &synth);
    for budget in [2, 8] {
        let got = with_thread_budget(budget, &synth);
        assert_eq!(
            got, base,
            "{case}: stream changed between budgets 1 and {budget}"
        );
    }
    base
}

/// Exact fingerprint of a full synthesis output: every intermediate's
/// circuit (gates + parameter bits via the `Debug` round-trip repr) and
/// distance bits, in stream order, plus the best circuit and counters.
fn fingerprint(out: &SynthesisOutput) -> (u64, u64) {
    let mut h = Hash128::new();
    h.update_u64(out.nodes_evaluated as u64);
    h.update_u64(out.stats.memo_hits as u64);
    h.update_u64(out.stats.memo_misses as u64);
    h.update_f64(out.best.hs_distance);
    h.update(format!("{:?}", out.best.circuit).as_bytes());
    for ap in &out.intermediates {
        h.update_u64(ap.cnots as u64);
        h.update_f64(ap.hs_distance);
        h.update(format!("{:?}", ap.circuit).as_bytes());
    }
    h.finish()
}

/// Haar-random 2- and 3-qubit targets through both engines.
#[test]
fn streams_are_identical_at_1_2_and_8_threads() {
    let cases: Vec<(usize, u64)> = vec![(2, 11), (2, 12), (3, 21)];
    for &(n, seed) in &cases {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let target = haar_unitary(1 << n, &mut rng);
        let topo = Topology::linear(n);

        let qs_cfg = QSearchConfig {
            max_nodes: if n == 2 { 40 } else { 25 },
            ..Default::default()
        };
        let qf_cfg = QFastConfig {
            max_blocks: 3,
            ..Default::default()
        };
        same_at_every_budget(&format!("qsearch n={n} seed={seed}"), || {
            fingerprint(&qsearch(&target, &topo, &qs_cfg))
        });
        same_at_every_budget(&format!("qfast n={n} seed={seed}"), || {
            fingerprint(&qfast(&target, &topo, &qf_cfg))
        });
    }
}

/// The benchmark's TFIM search matches its golden digest at every budget.
#[test]
fn pipeline_tfim_step_is_golden_at_every_budget() {
    let digest = same_at_every_budget("tfim step", || stream_digest(&tfim_step()));
    assert_eq!(digest, TFIM_STEP_DIGEST);
}

/// The benchmark's Toffoli QFast matches its golden digest at every budget.
#[test]
fn pipeline_toffoli_qfast_is_golden_at_every_budget() {
    let digest = same_at_every_budget("toffoli qfast", || stream_digest(&toffoli_qfast()));
    assert_eq!(digest, TOFFOLI_QFAST_DIGEST);
}

/// The benchmark's Toffoli QSearch streams identically at every budget.
#[test]
fn pipeline_toffoli_qsearch_is_identical_at_every_budget() {
    same_at_every_budget("toffoli qsearch", || {
        let out = toffoli_qsearch();
        (stream_digest(&out), fingerprint(&out))
    });
}
