//! `Workflow::generate` has one engine path: it is `generate_with` under the
//! default control, which runs QSearch and then QFast, each with the whole
//! thread budget. Both functions must return the population the engines'
//! own streams define (the union of their intermediates, selected and
//! deduped, the best of their bests, the sum of their node counts), bit for
//! bit, for QSearch, QFast and Both, at thread budgets 1, 2 and 8.
//!
//! The targets are the paper's two synthesis cases, the 4q Toffoli and a 3q
//! TFIM step, with the engines' budgets cut so the suite stays short.

use qaprox::workflow::{Engine, GenerateControl, Population, Workflow};
use qaprox_algos::mct::mct_unitary;
use qaprox_algos::tfim::{tfim_circuit, TfimParams};
use qaprox_device::Topology;
use qaprox_linalg::parallel::with_thread_budget;
use qaprox_linalg::random::{haar_unitary, SplitMix64};
use qaprox_linalg::Matrix;
use qaprox_synth::{
    dedupe, qfast, qsearch, select_by_threshold, ApproxCircuit, InstantiateConfig, QFastConfig,
    QSearchConfig, SynthStats, SynthesisOutput,
};

fn qsearch_cfg(max_nodes: usize) -> QSearchConfig {
    let mut cfg = QSearchConfig {
        max_cnots: 6,
        max_nodes,
        beam_width: 2,
        instantiate: InstantiateConfig {
            starts: 1,
            seed: 0x0E1,
            ..Default::default()
        },
        ..Default::default()
    };
    cfg.instantiate.lbfgs.max_iters = 60;
    cfg
}

fn qfast_cfg() -> QFastConfig {
    let mut cfg = QFastConfig {
        max_blocks: 2,
        coarse_starts: 2,
        seed: 0x0E1 ^ 0x51F7,
        refine: InstantiateConfig {
            starts: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    cfg.coarse_lbfgs.max_iters = 12;
    cfg
}

/// The population the engine outputs define: what `generate` returned when
/// it ran the engines itself.
fn union_of(outputs: &[SynthesisOutput], max_hs: f64) -> Population {
    let mut stats = SynthStats::default();
    for o in outputs {
        stats.absorb(&o.stats);
    }
    let minimal_hs = outputs
        .iter()
        .map(|o| o.best.clone())
        .min_by(|a, b| a.hs_distance.total_cmp(&b.hs_distance))
        .expect("at least one engine ran");
    let all: Vec<ApproxCircuit> = outputs
        .iter()
        .flat_map(|o| o.intermediates.iter().cloned())
        .collect();
    Population {
        circuits: dedupe(&select_by_threshold(&all, max_hs)),
        minimal_hs,
        explored: outputs.iter().map(|o| o.nodes_evaluated).sum(),
        stats,
    }
}

/// One candidate, bit-exactly: `Debug` prints every parameter in its
/// shortest round-trip form (signed zeros included), and the distance goes
/// in as raw bits.
fn key(ap: &ApproxCircuit) -> (String, usize, u64) {
    (
        format!("{:?}", ap.circuit),
        ap.cnots,
        ap.hs_distance.to_bits(),
    )
}

fn assert_same(got: &Population, want: &Population, ctx: &str) {
    let keys = |p: &Population| p.circuits.iter().map(key).collect::<Vec<_>>();
    assert_eq!(keys(got), keys(want), "circuits differ: {ctx}");
    assert_eq!(
        key(&got.minimal_hs),
        key(&want.minimal_hs),
        "minimal_hs: {ctx}"
    );
    assert_eq!(got.explored, want.explored, "explored: {ctx}");
    assert_eq!(got.stats, want.stats, "stats: {ctx}");
}

fn check(case: &str, target: &Matrix, n: usize, qs: QSearchConfig, qf: QFastConfig) {
    let topology = Topology::linear(n);
    // keep every candidate admission passes, so a missing or extra one shows
    let max_hs = 1.0;
    let (qs_out, qf_out) = with_thread_budget(1, || {
        (
            qsearch(target, &topology, &qs),
            qfast(target, &topology, &qf),
        )
    });
    let engines = [
        ("qsearch", Engine::QSearch(qs.clone()), vec![qs_out.clone()]),
        ("qfast", Engine::QFast(qf.clone()), vec![qf_out.clone()]),
        ("both", Engine::Both(qs, qf), vec![qs_out, qf_out]),
    ];
    for (name, engine, outputs) in engines {
        let want = union_of(&outputs, max_hs);
        let wf = Workflow {
            topology: topology.clone(),
            engine,
            max_hs,
        };
        for budget in [1, 2, 8] {
            let ctx = format!("{case} {name} budget={budget}");
            let generated = with_thread_budget(budget, || wf.generate(target));
            assert_same(&generated, &want, &format!("generate, {ctx}"));
            let controlled = with_thread_budget(budget, || {
                wf.generate_with(target, GenerateControl::default())
                    .population
            });
            assert_same(&controlled, &want, &format!("generate_with, {ctx}"));
        }
    }
}

#[test]
fn generate_is_generate_with_on_the_toffoli() {
    check(
        "toffoli 4q",
        &mct_unitary(4),
        4,
        qsearch_cfg(8),
        qfast_cfg(),
    );
}

#[test]
fn generate_is_generate_with_on_a_tfim_step() {
    let target = tfim_circuit(&TfimParams::paper_defaults(3), 3).unitary();
    check("tfim 3q step 3", &target, 3, qsearch_cfg(16), qfast_cfg());
}

#[test]
fn both_with_no_qfast_blocks_keeps_the_depth_0_circuit() {
    // a Haar target puts the empty circuit at a distance no QSearch
    // candidate shares, so dropping QFast's stream would show
    let target = haar_unitary(4, &mut SplitMix64::seed_from_u64(0x0B0));
    let qf = QFastConfig {
        max_blocks: 0,
        ..qfast_cfg()
    };
    let topology = Topology::linear(2);
    let qs = qsearch_cfg(4);
    let want = union_of(
        &[
            qsearch(&target, &topology, &qs),
            qfast(&target, &topology, &qf),
        ],
        1.0,
    );
    assert!(want.circuits.iter().any(|c| c.circuit.is_empty()));
    let wf = Workflow {
        topology,
        engine: Engine::Both(qs, qf),
        max_hs: 1.0,
    };
    assert_same(&wf.generate(&target), &want, "generate, no qfast blocks");
}
