//! Golden digests for trajectory rows.
//!
//! Every other bit-identity test in this crate compares two paths of the
//! same build (batch vs solo, one thread count vs another). These cases pin
//! the rows themselves: each hashes the `to_bits` of every probability and
//! every health counter a fixed trajectory run produces, and compares the
//! digest with one recorded when the sweeps moved to fused multiply-adds
//! with the pending renormalization multiplied into their coefficients
//! (each fused op is one sweep with the shot's sampled noise branches
//! multiplied into its matrix). A change to
//! trajectory arithmetic, RNG streams, chunking or the reduction order that
//! moves a single bit fails here.
//!
//! Every case runs at thread budgets 1, 2 and 8 and uses 70 shots, so the
//! structural chunks of 16 split unevenly (4 full chunks and one of 6).
//!
//! The digests pin bits. `rows_stay_within_tolerance_of_the_fixture`
//! pins how far rows may move: every probability of every case stays
//! within 1e-12 of the rows recorded in `tests/fixtures/golden_rows.txt`,
//! and every health counter equal. A change that only rounds differently
//! (a different product order) re-records the digests, says why in the
//! change log, and leaves the fixture alone; a change that flips a branch
//! decision moves a row by at least 1/70 and fails there.

use qaprox_circuit::Circuit;
use qaprox_device::devices::ourense;
use qaprox_linalg::hashing::Hash128;
use qaprox_linalg::parallel::with_thread_budget;
use qaprox_sim::{
    Backend, FusedProgram, HealthReport, NoiseModel, TrajectoryBackend, TrajectoryBatch,
};

const SHOTS: usize = 70;

const SOLO_DIGEST: &str = "5bf9e3e500b1e79580b5c52a99f946d3";
const INDEX_BATCH_DIGEST: &str = "14a336714ebb542d73d7c68a9271fe60";
const SHARED_SEED_BATCH_DIGEST: &str = "31f2fba40873f032a7c43eeaf6f5ef69";
const RELAXATION_FUSION_DIGEST: &str = "a86959396728c6e56897cc025ffaf98c";
const SHORT_COHERENCE_DIGEST: &str = "ae0b5666f070b59e2d4148b767030d9f";

fn model() -> NoiseModel {
    NoiseModel::from_calibration(ourense().induced(&[0, 1, 2, 3]).with_uniform_cx_error(0.05))
}

/// Four same-width candidates that differ in their rotation angles.
fn candidates() -> Vec<Circuit> {
    (0..4)
        .map(|i| {
            let mut c = Circuit::new(4);
            c.h(0).cx(0, 1).rx(0.2 + 0.15 * i as f64, 1).cx(1, 2);
            c.rz(0.5 + 0.1 * i as f64, 2).cx(2, 3).ry(0.3, 3);
            c
        })
        .collect()
}

/// A circuit whose fused program carries promoted noise events: the 1q
/// runs folded into 2q runs turn relaxation into 4x4 Kraus sets and
/// depolarizing into mixed-unitary branches.
fn relaxation_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0).rz(0.3, 0).h(1);
    c.cx(0, 1).rx(0.4, 1).rz(0.2, 0).cx(0, 1);
    c.cx(1, 2).rx(0.7, 2).cx(1, 2);
    c.h(3).cx(2, 3).rz(0.9, 3);
    c.rx(0.2, 0).rx(0.2, 1).rx(0.2, 2);
    c
}

/// Every qubit with T1 = 2 us and T2 = 1.5 us, and no gate or readout
/// error: a CX-length relaxation event then keeps its likely Kraus branch
/// with probability about 0.6, so draws past that branch's acceptance
/// floor are common. With gate and readout errors off, relaxation is the
/// only noise, so a qubit driven to |1> and left alone reads 0 only after
/// a decay branch (a non-zero Kraus branch) fired on it.
fn short_coherence_model() -> NoiseModel {
    let mut cal = ourense().induced(&[0, 1, 2, 3]).with_uniform_cx_error(0.0);
    for q in &mut cal.qubits {
        q.t1_us = 2.0;
        q.t2_us = 1.5;
        q.sx_error = 0.0;
    }
    let mut model = NoiseModel::from_calibration(cal);
    model.include_readout = false;
    model
}

/// Qubit 0 goes to |1> and is then only a CX control; the rest carries
/// promoted `Kraus2` sets (the absorbed 1q runs) and trailing `Kraus1`
/// events inside 2q runs.
fn short_coherence_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    c.x(0).cx(0, 1);
    c.h(2).rz(0.3, 2).cx(1, 2).rx(0.4, 2).cx(1, 2);
    c.h(3).cx(2, 3).rz(0.9, 3);
    c.rx(0.2, 1).ry(0.3, 2);
    c
}

/// What one case produces: its rows in order, then its health reports.
#[derive(Default)]
struct Output {
    rows: Vec<Vec<f64>>,
    health: Vec<HealthReport>,
}

impl Output {
    fn push(&mut self, rows: Vec<Vec<f64>>, health: Vec<HealthReport>) {
        self.rows.extend(rows);
        self.health.extend(health);
    }

    /// The `to_bits` of every probability and every health counter, hashed.
    fn digest(&self) -> String {
        let mut h = Hash128::new();
        for row in &self.rows {
            h.update_u64(row.len() as u64);
            for p in row {
                h.update_u64(p.to_bits());
            }
        }
        for r in &self.health {
            for counter in counters(r) {
                h.update_u64(counter);
            }
        }
        h.finish_hex()
    }
}

fn counters(r: &HealthReport) -> [u64; 5] {
    [
        r.clean_shots,
        r.aborted_shots,
        r.nan_events,
        r.norm_drift_events,
        u64::from(r.cancelled),
    ]
}

/// Solo runs: `TrajectoryBackend::probabilities` at several job seeds, and
/// a one-circuit executor batch for the solo health report.
fn solo_case() -> Output {
    let tb = TrajectoryBackend::with_shots(model(), SHOTS);
    let circuits = candidates();
    let mut out = Output::default();
    for c in &circuits {
        for job_seed in [0u64, 5, 0xDEAD_BEEF] {
            out.push(vec![tb.probabilities(c, job_seed)], Vec::new());
        }
    }
    let (rows, health) = Backend::Trajectory(tb)
        .probabilities_batch_health(&circuits[..1])
        .unwrap();
    out.push(rows, health);
    out
}

/// An index-seeded 4-candidate batch: row `i` uses job seed `i`.
fn index_seeded_case() -> Output {
    let tb = TrajectoryBackend::with_shots(model(), SHOTS);
    let circuits = candidates();
    let mut out = Output::default();
    out.push(tb.probabilities_batch(&circuits).unwrap(), Vec::new());
    let (rows, health) = Backend::Trajectory(tb)
        .probabilities_batch_health(&circuits)
        .unwrap();
    out.push(rows, health);
    out
}

/// A batch whose candidates all share one seed, straight through the shot
/// loop (rows before readout confusion).
fn shared_seed_case() -> Output {
    let model = model();
    let programs: Vec<FusedProgram> = candidates()
        .iter()
        .map(|c| FusedProgram::compile(c, &model))
        .collect();
    let batch = TrajectoryBatch::new(programs.iter().collect(), vec![0x5EED; 4]).unwrap();
    let (rows, health) = batch.shot_average_health(SHOTS, None);
    let mut out = Output::default();
    out.push(rows, health);
    out
}

/// `circuit` solo at job seed 11, then in a batch next to a plain
/// candidate, under `model`.
fn solo_and_batch(model: NoiseModel, circuit: Circuit) -> Output {
    let tb = TrajectoryBackend::with_shots(model, SHOTS);
    let mut out = Output::default();
    out.push(vec![tb.probabilities(&circuit, 11)], Vec::new());
    let batch = vec![circuit, candidates().remove(3)];
    let (rows, health) = Backend::Trajectory(tb)
        .probabilities_batch_health(&batch)
        .unwrap();
    out.push(rows, health);
    out
}

fn relaxation_case() -> Output {
    solo_and_batch(model(), relaxation_circuit())
}

fn short_coherence_case() -> Output {
    solo_and_batch(short_coherence_model(), short_coherence_circuit())
}

/// A case as `(name, golden digest, run)`.
type Case = (&'static str, &'static str, fn() -> Output);

const CASES: [Case; 5] = [
    ("solo", SOLO_DIGEST, solo_case),
    ("index-seeded batch", INDEX_BATCH_DIGEST, index_seeded_case),
    (
        "shared-seed batch",
        SHARED_SEED_BATCH_DIGEST,
        shared_seed_case,
    ),
    (
        "relaxation fusion",
        RELAXATION_FUSION_DIGEST,
        relaxation_case,
    ),
    (
        "short coherence",
        SHORT_COHERENCE_DIGEST,
        short_coherence_case,
    ),
];

/// Runs case `index` of [`CASES`] at thread budgets 1, 2 and 8; the
/// digest must not depend on the budget, and must equal the golden one.
fn assert_pinned(index: usize) {
    let (name, golden, case) = CASES[index];
    let base = with_thread_budget(1, || case().digest());
    for threads in [2usize, 8] {
        let got = with_thread_budget(threads, || case().digest());
        assert_eq!(got, base, "{name}: digest drifted at {threads} threads");
    }
    assert_eq!(base, golden, "{name}: rows moved from the recorded digest");
}

#[test]
fn solo_rows_are_pinned() {
    assert_pinned(0);
}

#[test]
fn index_seeded_batch_is_pinned() {
    assert_pinned(1);
}

#[test]
fn shared_seed_batch_is_pinned() {
    assert_pinned(2);
}

/// Relaxation on, with promoted `Kraus2` and `MixedU2` events in the fused
/// program: solo rows and a batch next to a plain candidate.
#[test]
fn relaxation_fusion_rows_are_pinned() {
    let model = model();
    assert!(model.include_relaxation && model.include_readout);
    let compiled = format!("{:?}", FusedProgram::compile(&relaxation_circuit(), &model));
    assert!(compiled.contains("Kraus2"), "no promoted Kraus set");
    assert!(compiled.contains("MixedU2"), "no promoted depolarizing");
    assert_pinned(3);
}

/// Short coherence times, so relaxation events often take a branch other
/// than the likely one: solo rows and a batch next to a plain candidate.
#[test]
fn short_coherence_rows_are_pinned() {
    let model = short_coherence_model();
    let circuit = short_coherence_circuit();
    let compiled = format!("{:?}", FusedProgram::compile(&circuit, &model));
    assert!(compiled.contains("Kraus2"), "no promoted Kraus set");
    assert!(compiled.contains("Kraus1"), "no 1q Kraus set");
    let solo = TrajectoryBackend::with_shots(model, SHOTS).probabilities(&circuit, 11);
    let decayed: f64 = solo.iter().step_by(2).sum();
    assert!(decayed > 0.0, "no shot took a decay branch on qubit 0");
    assert_pinned(4);
}

// ---------------------------------------------------------------------------
// the recorded rows
// ---------------------------------------------------------------------------

/// How far a probability may move from the recorded fixture: a change
/// that only rounds differently (a different product order, a fused
/// matrix) moves rows by a few ulps; a changed branch decision moves them
/// by at least `1 / SHOTS`.
const FIXTURE_TOL: f64 = 1e-12;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_rows.txt")
}

/// Every case's rows and health counters as text, one line each:
/// `<case> row <i> <p...>` and `<case> health <i> <counters...>`, with
/// each probability in the shortest form that parses back to its bits.
fn fixture_text() -> String {
    let mut text = String::new();
    for (name, _, case) in CASES {
        let tag = name.replace(' ', "_");
        let out = with_thread_budget(1, case);
        for (i, row) in out.rows.iter().enumerate() {
            let probs: Vec<String> = row.iter().map(|p| format!("{p:?}")).collect();
            text.push_str(&format!("{tag} row {i} {}\n", probs.join(" ")));
        }
        for (i, r) in out.health.iter().enumerate() {
            let c: Vec<String> = counters(r).iter().map(u64::to_string).collect();
            text.push_str(&format!("{tag} health {i} {}\n", c.join(" ")));
        }
    }
    text
}

/// Every row within [`FIXTURE_TOL`] of the recorded one, every health
/// counter equal. The digests above pin the current bits; this pins how
/// far a change that is meant to round differently may take them.
#[test]
fn rows_stay_within_tolerance_of_the_fixture() {
    let recorded = std::fs::read_to_string(fixture_path()).expect("fixture is checked in");
    let current = fixture_text();
    let (recorded, current): (Vec<&str>, Vec<&str>) =
        (recorded.lines().collect(), current.lines().collect());
    assert_eq!(recorded.len(), current.len(), "row count changed");
    let mut worst = 0.0f64;
    for (want, got) in recorded.iter().zip(&current) {
        let want: Vec<&str> = want.split(' ').collect();
        let got: Vec<&str> = got.split(' ').collect();
        assert_eq!(want[..3], got[..3], "fixture lines out of order");
        assert_eq!(
            want.len(),
            got.len(),
            "{}: row width changed",
            want[..3].join(" ")
        );
        if want[1] == "health" {
            assert_eq!(want, got, "health counters changed");
            continue;
        }
        for (w, g) in want[3..].iter().zip(&got[3..]) {
            let (w, g): (f64, f64) = (w.parse().unwrap(), g.parse().unwrap());
            worst = worst.max((w - g).abs());
        }
        assert!(
            worst <= FIXTURE_TOL,
            "{}: a probability moved by {worst:e}",
            want[..3].join(" ")
        );
    }
}

/// Rewrites the fixture from the current build. Run it only when rows are
/// meant to move by more than rounding, and say so in the change log:
/// `cargo test -p qaprox-sim --test golden_rows -- --ignored record_fixture`.
#[test]
#[ignore = "rewrites tests/fixtures/golden_rows.txt"]
fn record_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, fixture_text()).unwrap();
}
