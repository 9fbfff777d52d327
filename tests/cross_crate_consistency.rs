//! Consistency checks across crate boundaries: the same quantum object must
//! look identical through every code path that can produce it.

use qaprox::prelude::*;
use qaprox_linalg::random::haar_unitary;
use qaprox_linalg::random::SplitMix64 as StdRng;
use qaprox_sim::{DensityMatrix, ReadoutError};

/// Random-ish test circuit touching most of the gate set.
fn mixed_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.rz(0.37, n - 1).ry(-0.8, 0).rx(1.1, 1);
    c.push(Gate::S, &[0]);
    c.push(Gate::CP(0.9), &[0, n - 1]);
    c.swap(0, 1);
    c.push(Gate::Tdg, &[1]);
    c
}

#[test]
fn statevector_and_density_matrix_agree_on_unitary_circuits() {
    for n in [2usize, 3, 4] {
        let c = mixed_circuit(n);
        let sv_probs = qaprox_sim::statevector::probabilities(&c);
        let mut dm = DensityMatrix::ground(n);
        dm.apply_circuit(&c);
        let dm_probs = dm.probabilities();
        for (a, b) in sv_probs.iter().zip(&dm_probs) {
            assert!((a - b).abs() < 1e-11, "n={n}: {a} vs {b}");
        }
    }
}

#[test]
fn circuit_unitary_matches_per_basis_statevectors() {
    let c = mixed_circuit(3);
    let u = c.unitary();
    for basis in 0..8 {
        let sv = qaprox_sim::statevector::run_from_basis(&c, basis);
        for (row, amp) in sv.iter().enumerate() {
            assert!((u[(row, basis)] - *amp).abs() < 1e-11);
        }
    }
}

#[test]
fn transpiled_circuit_has_same_unitary_up_to_layout() {
    // On a device whose topology already fits, trivial layout + L1 must
    // preserve the unitary exactly (up to global phase).
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2).rz(0.4, 1);
    let cal = devices::santiago();
    let t = transpile(&c, &cal, OptLevel::L1, None);
    assert_eq!(
        t.swaps_inserted, 0,
        "chain circuit on a chain needs no SWAPs"
    );
    assert!(
        hs_distance(&t.circuit.unitary(), &c.unitary()) < 1e-9,
        "L1 transpilation must preserve semantics"
    );
}

#[test]
fn synthesis_distance_agrees_with_metrics_crate() {
    let mut rng = StdRng::seed_from_u64(55);
    let target = haar_unitary(4, &mut rng);
    let out = qsearch(
        &target,
        &Topology::linear(2),
        &QSearchConfig {
            max_cnots: 3,
            max_nodes: 30,
            ..Default::default()
        },
    );
    for ap in &out.intermediates {
        let d = hs_distance(&ap.circuit.unitary(), &target);
        assert!(
            (d - ap.hs_distance).abs() < 1e-7,
            "synthesis-recorded {} vs metrics {}",
            ap.hs_distance,
            d
        );
    }
}

#[test]
fn qfast_and_qsearch_converge_to_same_target() {
    let mut rng = StdRng::seed_from_u64(77);
    let target = haar_unitary(4, &mut rng);
    let topo = Topology::linear(2);
    let qs = qsearch(
        &target,
        &topo,
        &QSearchConfig {
            max_cnots: 3,
            max_nodes: 40,
            ..Default::default()
        },
    );
    let qf = qfast(
        &target,
        &topo,
        &QFastConfig {
            max_blocks: 2,
            ..Default::default()
        },
    );
    assert!(
        qs.best.hs_distance < 1e-6,
        "QSearch should nail a 2q target"
    );
    assert!(qf.best.hs_distance < 1e-4, "QFast should nail a 2q target");
    // and both circuits implement (approximately) the same unitary
    let d = hs_distance(&qs.best.circuit.unitary(), &qf.best.circuit.unitary());
    assert!(d < 1e-3, "engines disagree: {d}");
}

#[test]
fn induced_calibration_and_noise_model_are_consistent() {
    let cal = devices::toronto();
    let sub = cal.induced(&[0, 1, 2]);
    assert_eq!(sub.topology.num_qubits(), 3);
    let model = NoiseModel::from_calibration(sub.clone());
    assert_eq!(model.num_qubits(), 3);
    // average CNOT error of the subset must match the parent edges
    let parent_edges = [(0usize, 1usize), (1, 2)];
    for (i, &(a, b)) in parent_edges.iter().enumerate() {
        let parent = cal.edge(a, b).unwrap().cx_error;
        let child = sub.edge(i, i + 1).unwrap().cx_error;
        assert!((parent - child).abs() < 1e-15);
    }
}

#[test]
fn qasm_dump_reflects_circuit_content() {
    let c = mixed_circuit(3);
    let text = qaprox_circuit::qasm::to_qasm(&c);
    assert!(text.contains("qreg q[3];"));
    // every instruction appears as a line
    let gate_lines = text
        .lines()
        .filter(|l| l.ends_with(';') && !l.starts_with("qreg"))
        .count();
    assert_eq!(gate_lines, c.len());
}

#[test]
fn backend_enum_matches_direct_calls() {
    let c = mixed_circuit(3);
    let cal = devices::ourense().induced(&[0, 1, 2]);
    let model = NoiseModel::from_calibration(cal);
    let via_enum = Backend::Noisy(model.clone()).probabilities(&c, 0);
    let direct = model.probabilities(&c);
    assert_eq!(via_enum, direct);
}

#[test]
fn trajectory_simulation_tracks_density_matrix_on_approximations() {
    // An approximate circuit from synthesis, executed under both noisy
    // simulation paths: trajectory averaging must agree with the density
    // matrix within Monte-Carlo error.
    let mut rng = StdRng::seed_from_u64(91);
    let target = haar_unitary(4, &mut rng);
    let out = qsearch(
        &target,
        &Topology::linear(2),
        &QSearchConfig {
            max_cnots: 2,
            max_nodes: 20,
            ..Default::default()
        },
    );
    let cal = devices::rome().induced(&[0, 1]);
    let model = NoiseModel::from_calibration(cal);
    let dm = model.probabilities(&out.best.circuit);
    // 3000 trajectories as a batch of one on the raw seed 5, then the same
    // readout confusion the density path folds in
    let program = qaprox_sim::FusedProgram::compile(&out.best.circuit, &model);
    let batch = qaprox_sim::TrajectoryBatch::new(vec![&program], vec![5]).unwrap();
    let mut tj = batch.shot_average_health(3000, None).0.remove(0);
    let readout: Vec<ReadoutError> = model
        .calibration()
        .qubits
        .iter()
        .map(|q| ReadoutError::symmetric(q.readout_error))
        .collect();
    qaprox_sim::readout::apply_confusion(&mut tj, &readout);
    let tvd: f64 = 0.5 * dm.iter().zip(&tj).map(|(a, b)| (a - b).abs()).sum::<f64>();
    assert!(tvd < 0.03, "trajectory vs density matrix TVD {tvd}");
}

#[test]
fn qasm_round_trip_preserves_synthesized_circuits() {
    let mut rng = StdRng::seed_from_u64(92);
    let target = haar_unitary(4, &mut rng);
    let out = qsearch(
        &target,
        &Topology::linear(2),
        &QSearchConfig {
            max_cnots: 3,
            max_nodes: 30,
            ..Default::default()
        },
    );
    for ap in out.intermediates.iter().take(5) {
        let text = qaprox_circuit::qasm::to_qasm(&ap.circuit);
        let back = qaprox_circuit::from_qasm(&text).expect("parse back");
        assert!(
            hs_distance(&back.unitary(), &ap.circuit.unitary()) < 1e-9,
            "QASM round trip changed a synthesized circuit"
        );
    }
}

#[test]
fn mitigation_recovers_noise_model_readout_exactly() {
    // NoiseModel applies readout confusion; mitigation with the same
    // calibration must undo exactly that factor.
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2);
    let cal = devices::toronto().induced(&[0, 1, 2]);
    let mut no_readout = NoiseModel::from_calibration(cal.clone());
    no_readout.include_readout = false;
    let with_readout = NoiseModel::from_calibration(cal.clone());

    let raw = with_readout.probabilities(&c);
    let errors = qaprox_sim::mitigation::errors_from_calibration(&cal);
    let mitigated = qaprox_sim::mitigate_readout(&raw, &errors);
    let expect = no_readout.probabilities(&c);
    for (a, b) in mitigated.iter().zip(&expect) {
        assert!(
            (a - b).abs() < 1e-9,
            "mitigation should undo modelled readout"
        );
    }
}

#[test]
fn spectral_and_pade_expm_agree_inside_qfast_blocks() {
    use qaprox_linalg::pauli::{hermitian_from_coeffs, su_basis};
    let basis = su_basis(2);
    let coeffs: Vec<f64> = (0..15).map(|i| ((i * 7 + 3) as f64 * 0.17).sin()).collect();
    let h = hermitian_from_coeffs(&basis, &coeffs);
    let a = qaprox_linalg::expm_i_hermitian(&h);
    let b = qaprox_linalg::expm_i_hermitian_spectral(&h);
    assert!(
        a.approx_eq(&b, 1e-8),
        "expm paths disagree by {}",
        a.max_diff(&b)
    );
}
