//! Property-style tests for the simulators and noise machinery, driven by
//! the in-repo seeded RNG.

use qaprox_circuit::{Circuit, Gate};
use qaprox_device::channels::*;
use qaprox_linalg::random::{Rng, SplitMix64};
use qaprox_sim::readout::{apply_confusion, ReadoutError};
use qaprox_sim::{sample_counts, DensityMatrix};

const CASES: usize = 32;

fn random_circuit(n: usize, rng: &mut SplitMix64) -> Circuit {
    let len = rng.gen_range(0usize..15);
    let mut c = Circuit::new(n);
    for _ in 0..len {
        let kind = rng.gen_range(0usize..5);
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let t = rng.gen_range(-3.0..3.0);
        match kind {
            0 => {
                c.h(a);
            }
            1 => {
                c.rx(t, a);
            }
            2 => {
                c.rz(t, a);
            }
            3 if a != b => {
                c.cx(a, b);
            }
            4 if a != b => {
                c.push(Gate::CP(t), &[a, b]);
            }
            _ => {}
        }
    }
    c
}

#[test]
fn density_matrix_trace_is_preserved_by_unitaries() {
    let mut rng = SplitMix64::seed_from_u64(1);
    for _ in 0..CASES {
        let c = random_circuit(3, &mut rng);
        let mut dm = DensityMatrix::ground(3);
        dm.apply_circuit(&c);
        assert!((dm.trace() - 1.0).abs() < 1e-10);
        assert!(
            (dm.purity() - 1.0).abs() < 1e-9,
            "unitary evolution keeps purity"
        );
    }
}

#[test]
fn channels_are_trace_preserving() {
    let mut rng = SplitMix64::seed_from_u64(2);
    for _ in 0..CASES {
        let p = rng.gen_range(0.0..1.0);
        let t = rng.gen_range(0.0..2000.0);
        for kraus in [
            bit_flip(p),
            phase_flip(p),
            depolarizing_1q(p),
            amplitude_damping(p),
            phase_damping(p),
            thermal_relaxation(t, 80.0, 70.0),
        ] {
            assert!(is_trace_preserving(&kraus, 1e-10));
        }
    }
}

#[test]
fn channels_keep_density_matrices_physical() {
    let mut rng = SplitMix64::seed_from_u64(3);
    for _ in 0..CASES {
        let c = random_circuit(2, &mut rng);
        let p = rng.gen_range(0.0..1.0);
        let mut dm = DensityMatrix::ground(2);
        dm.apply_circuit(&c);
        dm.apply_kraus_1q(0, &depolarizing_1q(p));
        dm.apply_kraus_1q(1, &amplitude_damping(p * 0.5));
        assert!((dm.trace() - 1.0).abs() < 1e-9);
        let probs = dm.probabilities();
        assert!(probs.iter().all(|&x| x >= -1e-12));
        assert!(dm.purity() <= 1.0 + 1e-9);
    }
}

#[test]
fn depolarize_interpolates_purity() {
    let mut rng = SplitMix64::seed_from_u64(4);
    for _ in 0..CASES {
        let c = random_circuit(2, &mut rng);
        let lambda = rng.gen_range(0.0..1.0);
        let mut dm = DensityMatrix::ground(2);
        dm.apply_circuit(&c);
        let before = dm.purity();
        dm.depolarize(&[0, 1], lambda);
        let after = dm.purity();
        assert!(after <= before + 1e-9, "depolarizing cannot raise purity");
        assert!((dm.trace() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn readout_confusion_is_stochastic() {
    let mut rng = SplitMix64::seed_from_u64(5);
    for _ in 0..CASES {
        let p: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..1.0)).collect();
        let e = rng.gen_range(0.0..0.5);
        let sum: f64 = p.iter().sum();
        if sum <= 1e-6 {
            continue;
        }
        let mut probs: Vec<f64> = p.iter().map(|x| x / sum).collect();
        apply_confusion(&mut probs, &[ReadoutError::symmetric(e); 3]);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&x| x >= -1e-12));
    }
}

#[test]
fn sampling_conserves_shots() {
    let mut rng = SplitMix64::seed_from_u64(6);
    for seed in 0..CASES as u64 {
        let shots = rng.gen_range(1usize..4096);
        let probs = [0.4, 0.3, 0.2, 0.1];
        let counts = sample_counts(&probs, shots, seed);
        assert_eq!(counts.iter().sum::<u64>() as usize, shots);
    }
}

#[test]
fn partial_trace_keeps_unit_trace() {
    let mut rng = SplitMix64::seed_from_u64(7);
    for _ in 0..CASES {
        let c = random_circuit(3, &mut rng);
        let mut dm = DensityMatrix::ground(3);
        dm.apply_circuit(&c);
        for q in 0..3 {
            let reduced = dm.partial_trace(&[q]);
            assert!((reduced.trace().re - 1.0).abs() < 1e-9);
            assert!(reduced.trace().im.abs() < 1e-10);
        }
    }
}

#[test]
fn statevector_and_density_agree() {
    let mut rng = SplitMix64::seed_from_u64(8);
    for _ in 0..CASES {
        let c = random_circuit(3, &mut rng);
        let sv: Vec<f64> = qaprox_sim::statevector::probabilities(&c);
        let mut dm = DensityMatrix::ground(3);
        dm.apply_circuit(&c);
        let dp = dm.probabilities();
        for (a, b) in sv.iter().zip(&dp) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
