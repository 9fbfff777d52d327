//! Qubit-mapping sensitivity on hardware — Figs. 16-19.
//!
//! The paper pins the 4-qubit Toffoli's approximate circuits onto four
//! manual qubit subsets of ibmq_toronto (the colored circles of Fig. 16)
//! plus Qiskit's automatic level-3 mapping, and compares the resulting JS
//! distances. Here each mapping transpiles the population onto the chosen
//! physical qubits, simulates on the induced calibration with the
//! hardware-emulation backend, and scores the battery aggregate.

use crate::toffoli_study::{battery_inputs, ideal_battery_distribution, with_input_prep};
use crate::workflow::Scored;
use qaprox_circuit::Circuit;
use qaprox_device::Calibration;
use qaprox_linalg::parallel::par_map_indexed;
use qaprox_metrics::js_distance;
use qaprox_sim::{Backend, HardwareBackend, HardwareEffects, NoiseModel, TrajectoryBackend};
use qaprox_synth::ApproxCircuit;
use qaprox_transpile::{transpile, OptLevel};

/// How circuits are placed on the device.
#[derive(Debug, Clone)]
pub enum Placement {
    /// Pin onto these physical qubits (one of Fig. 16's circles).
    Manual(Vec<usize>),
    /// Let the level-3 transpiler choose per circuit (Fig. 19).
    Auto,
}

/// One mapping study configuration.
#[derive(Debug, Clone)]
pub struct MappingStudy {
    /// Device calibration (the paper uses Toronto).
    pub device: Calibration,
    /// Placement policy.
    pub placement: Placement,
    /// Hardware-emulation effect strengths.
    pub effects: HardwareEffects,
    /// `None` scores on the density-matrix hardware emulation (the paper's
    /// setup, exact at the cost of `4^n` state); `Some(n)` scores on the
    /// quantum-trajectory backend with `n` shots per circuit, which is what
    /// lets the study run against the 27q/65q device calibrations.
    pub shots: Option<usize>,
}

impl MappingStudy {
    /// Runs one circuit through transpile + hardware emulation + battery,
    /// returning the JS distance against the ideal battery aggregate.
    pub fn battery_js(&self, circuit: &Circuit, seed: u64) -> f64 {
        let n = circuit.num_qubits();
        let inputs = battery_inputs(n);
        let dim = 1usize << n;
        let mut agg = vec![0.0; dim];
        for (k, &input) in inputs.iter().enumerate() {
            let prepped = with_input_prep(circuit, input);
            let (level, subset) = match &self.placement {
                Placement::Manual(qubits) => (OptLevel::L1, Some(qubits.as_slice())),
                Placement::Auto => (OptLevel::L3, None),
            };
            let t = transpile(&prepped, &self.device, level, subset);
            let induced = t.induced_calibration(&self.device);
            let model = NoiseModel::from_calibration(induced);
            let backend = match self.shots {
                Some(shots) => Backend::Trajectory(TrajectoryBackend::with_shots(model, shots)),
                None => {
                    Backend::Hardware(HardwareBackend::with_effects(model, self.effects.clone()))
                }
            };
            let compact_probs = backend.probabilities(&t.circuit, seed.wrapping_add(k as u64));
            let logical = t.logical_probabilities(&compact_probs, n);
            for (a, p) in agg.iter_mut().zip(&logical) {
                *a += p / inputs.len() as f64;
            }
        }
        js_distance(&agg, &ideal_battery_distribution(n))
    }

    /// Evaluates a whole approximate population under this mapping.
    pub fn evaluate_population(&self, population: &[ApproxCircuit]) -> Vec<Scored> {
        par_map_indexed(population, |i, ap| Scored {
            cnots: ap.cnots,
            hs_distance: ap.hs_distance,
            score: self.battery_js(&ap.circuit, (i as u64) << 24),
        })
    }

    /// Scores the reference circuit under this mapping.
    pub fn reference_js(&self, reference: &Circuit) -> f64 {
        self.battery_js(reference, 0x0EF)
    }
}

/// Convenience: evaluate the same population under several placements,
/// returning `(label, reference JS, population results)` per placement.
pub fn compare_mappings(
    device: &Calibration,
    placements: &[(String, Placement)],
    reference: &Circuit,
    population: &[ApproxCircuit],
    effects: &HardwareEffects,
) -> Vec<(String, f64, Vec<Scored>)> {
    placements
        .iter()
        .map(|(label, placement)| {
            let study = MappingStudy {
                device: device.clone(),
                placement: placement.clone(),
                effects: effects.clone(),
                shots: None,
            };
            let ref_js = study.reference_js(reference);
            let pop = study.evaluate_population(population);
            (label.clone(), ref_js, pop)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_algos::mct::mct_reference;
    use qaprox_device::devices::toronto;
    use qaprox_device::standard_mappings;

    fn mild_effects() -> HardwareEffects {
        HardwareEffects {
            shots: 2048,
            ..Default::default()
        }
    }

    #[test]
    fn manual_mapping_runs_and_scores() {
        let device = toronto();
        let maps = standard_mappings(&device, 3);
        let study = MappingStudy {
            device,
            placement: Placement::Manual(maps[0].qubits.clone()),
            effects: mild_effects(),
            shots: None,
        };
        let js = study.reference_js(&mct_reference(3));
        assert!(js.is_finite());
        assert!(js > 0.0 && js < 1.0, "JS out of range: {js}");
    }

    #[test]
    fn auto_mapping_runs() {
        let study = MappingStudy {
            device: toronto(),
            placement: Placement::Auto,
            effects: mild_effects(),
            shots: None,
        };
        let js = study.reference_js(&mct_reference(3));
        assert!(js.is_finite() && js > 0.0);
    }

    #[test]
    fn best_mapping_beats_worst_for_reference() {
        let device = toronto();
        let maps = standard_mappings(&device, 3);
        let best = MappingStudy {
            device: device.clone(),
            placement: Placement::Manual(maps[0].qubits.clone()),
            effects: mild_effects(),
            shots: None,
        };
        let worst = MappingStudy {
            device,
            placement: Placement::Manual(maps[1].qubits.clone()),
            effects: mild_effects(),
            shots: None,
        };
        let reference = mct_reference(3);
        let js_best = best.reference_js(&reference);
        let js_worst = worst.reference_js(&reference);
        assert!(
            js_best < js_worst + 0.05,
            "best mapping ({js_best}) should not lose clearly to worst ({js_worst})"
        );
    }

    #[test]
    fn trajectory_mapping_study_runs_on_the_27q_topology() {
        let device = toronto();
        assert_eq!(device.topology.num_qubits(), 27);
        let maps = standard_mappings(&device, 3);
        let study = MappingStudy {
            device,
            placement: Placement::Manual(maps[0].qubits.clone()),
            effects: mild_effects(),
            shots: Some(64),
        };
        let reference = mct_reference(3);
        let js = study.reference_js(&reference);
        assert!(
            js.is_finite() && js > 0.0 && js < 1.0,
            "JS out of range: {js}"
        );
        // seeded trajectory sampling: reruns are bit-identical
        assert_eq!(js.to_bits(), study.reference_js(&reference).to_bits());

        let pop = vec![ApproxCircuit::new(mct_reference(3), 0.0)];
        let scored = study.evaluate_population(&pop);
        assert_eq!(scored.len(), 1);
        assert!(scored[0].score.is_finite());
    }

    #[test]
    fn population_evaluation_shape() {
        let device = toronto();
        let maps = standard_mappings(&device, 3);
        let study = MappingStudy {
            device,
            placement: Placement::Manual(maps[0].qubits.clone()),
            effects: mild_effects(),
            shots: None,
        };
        let pop = vec![ApproxCircuit::new(mct_reference(3), 0.0)];
        let scored = study.evaluate_population(&pop);
        assert_eq!(scored.len(), 1);
        assert_eq!(scored[0].cnots, 6);
    }
}
