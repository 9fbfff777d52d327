//! Device noise models built from calibration snapshots.
//!
//! Mirrors Qiskit-Aer's `NoiseModel.from_backend`: each gate is followed by
//! the noise [`Calibration::gate_noise`] describes (depolarizing, then
//! thermal relaxation over the gate duration); measurement applies the
//! per-qubit readout confusion. The paper's error-sensitivity sweeps
//! (Figs. 8-11) are produced by rewriting the calibration's CNOT errors
//! before building the model.

use crate::density::DensityMatrix;
use crate::mitigation::errors_from_calibration;
use crate::readout::apply_confusion;
use qaprox_circuit::{Circuit, Instruction};
use qaprox_device::channels::thermal_relaxation;
use qaprox_device::Calibration;

/// A gate-level noise model for one device.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    cal: Calibration,
    /// Apply T1/T2 relaxation over gate durations.
    pub include_relaxation: bool,
    /// Apply readout confusion to the final distribution.
    pub include_readout: bool,
}

impl NoiseModel {
    /// Builds the standard model from a calibration snapshot.
    pub fn from_calibration(cal: Calibration) -> Self {
        NoiseModel {
            cal,
            include_relaxation: true,
            include_readout: true,
        }
    }

    /// The underlying calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// Number of physical qubits the model covers.
    pub fn num_qubits(&self) -> usize {
        self.cal.topology.num_qubits()
    }

    /// Applies the post-gate noise for one instruction to `dm`: the
    /// calibration's [`GateNoise`](qaprox_device::GateNoise) depolarizing
    /// channel, then thermal relaxation of each operand over the gate's
    /// duration.
    pub fn apply_gate_noise(&self, dm: &mut DensityMatrix, inst: &Instruction) {
        let noise = self.cal.gate_noise(&inst.qubits);
        if noise.lambda > 0.0 {
            dm.depolarize(&inst.qubits, noise.lambda);
        }
        if self.include_relaxation {
            for &q in &inst.qubits {
                let qc = &self.cal.qubits[q];
                let kraus = thermal_relaxation(noise.duration_ns, qc.t1_us, qc.t2_us);
                dm.apply_kraus_1q(q, &kraus);
            }
        }
    }

    /// Evolves the ground state through `circuit` under this noise model.
    pub fn run_density(&self, circuit: &Circuit) -> DensityMatrix {
        assert_eq!(
            circuit.num_qubits(),
            self.num_qubits(),
            "circuit width must match the device model (induce the calibration first)"
        );
        let mut dm = DensityMatrix::ground(circuit.num_qubits());
        for inst in circuit.iter() {
            dm.apply_gate(&inst.gate, &inst.qubits);
            self.apply_gate_noise(&mut dm, inst);
        }
        dm
    }

    /// Static analysis of `circuit` under this model's parameters, without
    /// simulating: delegates to [`qaprox_verify::analyze`] with this model's
    /// relaxation/readout switches. The returned `fidelity_bound` upper
    /// bounds what [`NoiseModel::run_density`] +
    /// `DensityMatrix::fidelity_pure` would measure.
    pub fn analyze(&self, circuit: &Circuit) -> qaprox_verify::AnalysisReport {
        let opts = qaprox_verify::AnalyzeOptions {
            include_relaxation: self.include_relaxation,
            include_readout: self.include_readout,
            ..Default::default()
        };
        qaprox_verify::analyze(circuit, &self.cal, &opts)
    }

    /// Full noisy output distribution, including readout confusion.
    pub fn probabilities(&self, circuit: &Circuit) -> Vec<f64> {
        let dm = self.run_density(circuit);
        let mut probs = dm.probabilities();
        if self.include_readout {
            apply_confusion(&mut probs, &errors_from_calibration(&self.cal));
        }
        probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_device::devices::ourense;
    use qaprox_device::{EdgeCal, QubitCal, Topology};
    use std::collections::BTreeMap;

    fn noiseless_cal(n: usize) -> Calibration {
        let topology = Topology::linear(n);
        let qubits = vec![
            QubitCal {
                readout_error: 0.0,
                t1_us: 1e9,
                t2_us: 1e9,
                sx_error: 0.0,
                sx_time_ns: 0.0,
            };
            n
        ];
        let mut edges = BTreeMap::new();
        for &e in topology.edges() {
            edges.insert(
                e,
                EdgeCal {
                    cx_error: 0.0,
                    cx_time_ns: 0.0,
                },
            );
        }
        Calibration {
            machine: "noiseless".into(),
            topology,
            qubits,
            edges,
        }
    }

    #[test]
    fn noiseless_model_matches_ideal() {
        let model = NoiseModel::from_calibration(noiseless_cal(3));
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(0.4, 2);
        let noisy = model.probabilities(&c);
        let ideal = crate::statevector::probabilities(&c);
        for (a, b) in noisy.iter().zip(&ideal) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn noise_reduces_fidelity_monotonically_in_depth() {
        let cal = ourense().induced(&[0, 1, 2]);
        let model = NoiseModel::from_calibration(cal);
        let mut fid_prev = 1.0;
        for depth in [1usize, 5, 15, 40] {
            let mut c = Circuit::new(3);
            for _ in 0..depth {
                c.cx(0, 1).cx(1, 2);
            }
            let ideal = c.statevector();
            let dm = model.run_density(&c);
            let fid = dm.fidelity_pure(&ideal);
            assert!(fid <= fid_prev + 1e-9, "fidelity should fall with depth");
            fid_prev = fid;
        }
        assert!(
            fid_prev < 0.7,
            "deep circuit should be visibly degraded: {fid_prev}"
        );
    }

    #[test]
    fn uniform_cx_error_override_controls_noise() {
        let base = ourense().induced(&[0, 1, 2]);
        let mut c = Circuit::new(3);
        for _ in 0..6 {
            c.cx(0, 1).cx(1, 2);
        }
        let ideal = c.statevector();
        let mut fids = Vec::new();
        for eps in [0.0, 0.06, 0.24] {
            let model = NoiseModel::from_calibration(base.with_uniform_cx_error(eps));
            let fid = model.run_density(&c).fidelity_pure(&ideal);
            fids.push(fid);
        }
        assert!(
            fids[0] > fids[1] && fids[1] > fids[2],
            "fidelity vs cx error: {fids:?}"
        );
    }

    #[test]
    fn probabilities_are_normalized_under_noise() {
        let cal = ourense().induced(&[0, 1, 2]);
        let model = NoiseModel::from_calibration(cal);
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).ry(1.0, 0);
        let p = model.probabilities(&c);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn readout_error_applies_even_to_empty_circuit() {
        let cal = ourense().induced(&[0, 1, 2]);
        let ro = cal.qubits[0].readout_error;
        let model = NoiseModel::from_calibration(cal);
        let c = Circuit::new(3);
        let p = model.probabilities(&c);
        // ground state should be misread with roughly the readout error rate
        assert!(p[0] < 1.0 - ro / 2.0);
        assert!(p[0] > 0.8);
    }

    #[test]
    fn static_bound_upper_bounds_measured_fidelity() {
        let cal = ourense().induced(&[0, 1, 2]);
        for eps in [0.0, 0.02, 0.1] {
            let model = NoiseModel::from_calibration(cal.with_uniform_cx_error(eps));
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).cx(1, 2).rz(0.4, 2).cx(0, 1);
            let measured = model.run_density(&c).fidelity_pure(&c.statevector());
            let report = model.analyze(&c);
            assert!(
                report.fidelity_bound >= measured - 1e-12,
                "bound {} undercuts measured {measured} at eps={eps}",
                report.fidelity_bound
            );
        }
    }

    #[test]
    fn relaxation_toggle_changes_output() {
        let cal = ourense().induced(&[0, 1, 2]);
        let mut with = NoiseModel::from_calibration(cal.clone());
        with.include_readout = false;
        let mut without = with.clone();
        without.include_relaxation = false;
        let mut c = Circuit::new(3);
        c.x(0);
        for _ in 0..20 {
            c.cx(0, 1).cx(1, 2);
        }
        let pw = with.probabilities(&c);
        let po = without.probabilities(&c);
        let diff: f64 = pw.iter().zip(&po).map(|(a, b)| (a - b).abs()).sum();
        assert!(
            diff > 1e-4,
            "relaxation should be visible on a deep circuit"
        );
    }
}
