//! Golden digests for trajectory rows.
//!
//! Every other bit-identity test in this crate compares two paths of the
//! same build (batch vs solo, one thread count vs another). These cases pin
//! the rows themselves: each hashes the `to_bits` of every probability and
//! every health counter a fixed trajectory run produces, and compares the
//! digest with one recorded before the shot loops were merged (the
//! short-coherence case: before the shot loop stopped sweeping the state for
//! branch norms on likely relaxation branches). A change to trajectory
//! arithmetic, RNG streams, chunking or the reduction order that moves a
//! single bit fails here.
//!
//! Every case runs at thread budgets 1, 2 and 8 and uses 70 shots, so the
//! structural chunks of 16 split unevenly (4 full chunks and one of 6).
//!
//! If a change is *meant* to alter trajectory results, re-record the
//! digests below and say so in the change log.

use qaprox_circuit::Circuit;
use qaprox_device::devices::ourense;
use qaprox_linalg::hashing::Hash128;
use qaprox_linalg::parallel::with_thread_budget;
use qaprox_sim::{
    Backend, FusedProgram, HealthReport, NoiseModel, TrajectoryBackend, TrajectoryBatch,
};

const SHOTS: usize = 70;

const SOLO_DIGEST: &str = "5062246491cb5652a5df29b91517230f";
const INDEX_BATCH_DIGEST: &str = "767c434e805423ffdd4870f977a057bc";
const SHARED_SEED_BATCH_DIGEST: &str = "164a860e1b719aad33e94733cfa8c984";
const RELAXATION_FUSION_DIGEST: &str = "a03375396b42442a255e5fbbcdb6ff3c";
const SHORT_COHERENCE_DIGEST: &str = "782798a9293bcd66d80d09ae624fcee2";

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

fn hash_rows(h: &mut Hash128, rows: &[Vec<f64>]) {
    for row in rows {
        h.update_u64(row.len() as u64);
        for p in row {
            h.update_u64(p.to_bits());
        }
    }
}

fn hash_health(h: &mut Hash128, reports: &[HealthReport]) {
    for r in reports {
        h.update_u64(r.clean_shots);
        h.update_u64(r.aborted_shots);
        h.update_u64(r.nan_events);
        h.update_u64(r.norm_drift_events);
        h.update_u64(u64::from(r.cancelled));
    }
}

/// Runs `case` at thread budgets 1, 2 and 8; the digest must not depend on
/// the budget, and must equal `golden`.
fn assert_pinned(name: &str, golden: &str, case: impl Fn() -> String) {
    let base = with_thread_budget(1, &case);
    for threads in [2usize, 8] {
        let got = with_thread_budget(threads, &case);
        assert_eq!(got, base, "{name}: digest drifted at {threads} threads");
    }
    assert_eq!(base, golden, "{name}: rows moved from the recorded digest");
}

/// Solo runs: `TrajectoryBackend::probabilities` at several job seeds, and
/// a one-circuit executor batch for the solo health report.
#[test]
fn solo_rows_are_pinned() {
    let tb = TrajectoryBackend::with_shots(model(), SHOTS);
    let backend = Backend::Trajectory(tb.clone());
    let circuits = candidates();
    assert_pinned("solo", SOLO_DIGEST, || {
        let mut h = Hash128::new();
        for c in &circuits {
            for job_seed in [0u64, 5, 0xDEAD_BEEF] {
                hash_rows(&mut h, &[tb.probabilities(c, job_seed)]);
            }
        }
        let (rows, health) = backend.probabilities_batch_health(&circuits[..1]).unwrap();
        hash_rows(&mut h, &rows);
        hash_health(&mut h, &health);
        h.finish_hex()
    });
}

/// An index-seeded 4-candidate batch: row `i` uses job seed `i`.
#[test]
fn index_seeded_batch_is_pinned() {
    let tb = TrajectoryBackend::with_shots(model(), SHOTS);
    let backend = Backend::Trajectory(tb.clone());
    let circuits = candidates();
    assert_pinned("index-seeded batch", INDEX_BATCH_DIGEST, || {
        let mut h = Hash128::new();
        hash_rows(&mut h, &tb.probabilities_batch(&circuits).unwrap());
        let (rows, health) = backend.probabilities_batch_health(&circuits).unwrap();
        hash_rows(&mut h, &rows);
        hash_health(&mut h, &health);
        h.finish_hex()
    });
}

/// A batch whose candidates all share one seed, straight through the shot
/// loop (rows before readout confusion).
#[test]
fn shared_seed_batch_is_pinned() {
    let model = model();
    let circuits = candidates();
    let programs: Vec<FusedProgram> = circuits
        .iter()
        .map(|c| FusedProgram::compile(c, &model))
        .collect();
    assert_pinned("shared-seed batch", SHARED_SEED_BATCH_DIGEST, || {
        let batch = TrajectoryBatch::new(programs.iter().collect(), vec![0x5EED; 4]).unwrap();
        let (rows, health) = batch.shot_average_health(SHOTS, None);
        let mut h = Hash128::new();
        hash_rows(&mut h, &rows);
        hash_health(&mut h, &health);
        h.finish_hex()
    });
}

/// Relaxation on, with promoted `Kraus2` and `MixedU2` events in the fused
/// program: solo rows and a batch next to a plain candidate.
#[test]
fn relaxation_fusion_rows_are_pinned() {
    let model = model();
    assert!(model.include_relaxation && model.include_readout);
    let circuit = relaxation_circuit();
    let compiled = format!("{:?}", FusedProgram::compile(&circuit, &model));
    assert!(compiled.contains("Kraus2"), "no promoted Kraus set");
    assert!(compiled.contains("MixedU2"), "no promoted depolarizing");
    let tb = TrajectoryBackend::with_shots(model, SHOTS);
    let backend = Backend::Trajectory(tb.clone());
    let batch = vec![circuit.clone(), candidates().remove(3)];
    assert_pinned("relaxation fusion", RELAXATION_FUSION_DIGEST, || {
        let mut h = Hash128::new();
        hash_rows(&mut h, &[tb.probabilities(&circuit, 11)]);
        let (rows, health) = backend.probabilities_batch_health(&batch).unwrap();
        hash_rows(&mut h, &rows);
        hash_health(&mut h, &health);
        h.finish_hex()
    });
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
    let tb = TrajectoryBackend::with_shots(model, SHOTS);
    let backend = Backend::Trajectory(tb.clone());
    let batch = vec![circuit.clone(), candidates().remove(3)];
    let solo = tb.probabilities(&circuit, 11);
    let decayed: f64 = solo.iter().step_by(2).sum();
    assert!(decayed > 0.0, "no shot took a decay branch on qubit 0");
    assert_pinned("short coherence", SHORT_COHERENCE_DIGEST, || {
        let mut h = Hash128::new();
        hash_rows(&mut h, &[tb.probabilities(&circuit, 11)]);
        let (rows, health) = backend.probabilities_batch_health(&batch).unwrap();
        hash_rows(&mut h, &rows);
        hash_health(&mut h, &health);
        h.finish_hex()
    });
}
