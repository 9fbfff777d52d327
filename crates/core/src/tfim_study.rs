//! The TFIM experiment driver — Figs. 2-4 and 8-13.
//!
//! For each of the 21 timesteps: synthesize an approximate-circuit
//! population for that timestep's whole-evolution unitary, execute the
//! population (and the exact reference) on a backend, and report
//! magnetization against the noise-free reference.

use crate::workflow::{Population, Scored, Workflow};
use qaprox_algos::tfim::{tfim_series, TfimParams};
use qaprox_circuit::Circuit;
use qaprox_linalg::parallel::par_map_indexed;
use qaprox_metrics::{magnetization, probabilities};
use qaprox_sim::Backend;

/// Populations for every timestep, generated once and reusable across
/// backends (noise sweeps re-evaluate the same circuits).
#[derive(Debug, Clone)]
pub struct TfimPopulations {
    /// Model parameters used.
    pub params: TfimParams,
    /// The exact Trotter reference circuit per timestep.
    pub references: Vec<Circuit>,
    /// Approximate-circuit population per timestep.
    pub populations: Vec<Population>,
}

/// One timestep's evaluated results.
#[derive(Debug, Clone)]
pub struct TimestepResult {
    /// 1-based timestep index.
    pub step: usize,
    /// Magnetization of the reference circuit under ideal simulation —
    /// the paper's "Noise free reference".
    pub noise_free_ref: f64,
    /// Magnetization of the reference circuit under the backend —
    /// the paper's "Noisy reference".
    pub noisy_ref: f64,
    /// CNOT count of the reference.
    pub reference_cnots: usize,
    /// The minimal-HS circuit's result — the paper's "Minimal HS" series.
    pub minimal_hs: Scored,
    /// The output-closest-to-ideal circuit — the paper's "Best approximate".
    pub best_approx: Scored,
    /// Every approximate circuit's result (the dots of Figs. 3-4).
    pub all: Vec<Scored>,
}

/// Generates approximate populations for the first `steps` timesteps.
pub fn generate_populations(
    params: &TfimParams,
    steps: usize,
    workflow: &Workflow,
) -> TfimPopulations {
    let references = tfim_series(params, steps);
    let targets: Vec<_> = references.iter().map(Workflow::target_unitary).collect();
    let populations = workflow.generate_series(&targets);
    TfimPopulations {
        params: *params,
        references,
        populations,
    }
}

/// Evaluates the populations (and references) on `backend`.
pub fn evaluate(pops: &TfimPopulations, backend: &Backend) -> Vec<TimestepResult> {
    par_map_indexed(&pops.references, |i, reference| {
        let population = &pops.populations[i];
        {
            let step = i + 1;
            let noise_free_ref = magnetization(&probabilities(&reference.statevector()));
            let noisy_ref = magnetization(&backend.probabilities(reference, 1_000_000 + i as u64));

            let all: Vec<Scored> = population
                .circuits
                .iter()
                .enumerate()
                .map(|(j, ap)| {
                    let probs = backend.probabilities(&ap.circuit, (i as u64) << 20 | j as u64);
                    Scored {
                        cnots: ap.cnots,
                        hs_distance: ap.hs_distance,
                        score: magnetization(&probs),
                    }
                })
                .collect();

            // Minimal-HS series: execute the synthesis optimum.
            let min_probs = backend.probabilities(&population.minimal_hs.circuit, (i as u64) << 21);
            let minimal_hs = Scored {
                cnots: population.minimal_hs.cnots,
                hs_distance: population.minimal_hs.hs_distance,
                score: magnetization(&min_probs),
            };

            // Best approximate: closest output to the noise-free reference
            // (the minimal-HS circuit is always a candidate too).
            let best_approx = all
                .iter()
                .chain(std::iter::once(&minimal_hs))
                .min_by(|a, b| {
                    (a.score - noise_free_ref)
                        .abs()
                        .total_cmp(&(b.score - noise_free_ref).abs())
                })
                .cloned()
                .expect("candidate set is nonempty");

            TimestepResult {
                step,
                noise_free_ref,
                noisy_ref,
                reference_cnots: reference.cx_count(),
                minimal_hs,
                best_approx,
                all,
            }
        }
    })
}

/// Mean absolute magnetization error of a series against the noise-free
/// reference — the scalar behind the paper's "up to 60% precision gain".
pub fn series_error<F: Fn(&TimestepResult) -> f64>(results: &[TimestepResult], pick: F) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results
        .iter()
        .map(|r| (pick(r) - r.noise_free_ref).abs())
        .sum::<f64>()
        / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::Engine;
    use qaprox_device::devices::ourense;
    use qaprox_device::Topology;
    use qaprox_linalg::parallel::with_thread_budget;
    use qaprox_sim::NoiseModel;
    use qaprox_synth::{InstantiateConfig, QSearchConfig};

    fn quick_populations(steps: usize) -> TfimPopulations {
        let params = TfimParams::paper_defaults(3);
        let workflow = Workflow {
            topology: Topology::linear(3),
            engine: Engine::QSearch(QSearchConfig {
                max_cnots: 4,
                max_nodes: 40,
                beam_width: 2,
                instantiate: InstantiateConfig {
                    starts: 1,
                    ..Default::default()
                },
                ..Default::default()
            }),
            max_hs: 0.5,
        };
        generate_populations(&params, steps, &workflow)
    }

    #[test]
    fn populations_cover_every_timestep() {
        let pops = quick_populations(3);
        assert_eq!(pops.references.len(), 3);
        assert_eq!(pops.populations.len(), 3);
        for p in &pops.populations {
            assert!(!p.circuits.is_empty());
        }
    }

    #[test]
    fn evaluation_produces_consistent_rows() {
        let pops = quick_populations(2);
        let cal = ourense().induced(&[0, 1, 2]);
        let backend = Backend::Noisy(NoiseModel::from_calibration(cal));
        let rows = evaluate(&pops, &backend);
        assert_eq!(rows.len(), 2);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.step, i + 1);
            assert!(r.noise_free_ref.abs() <= 1.0 + 1e-9);
            assert!(r.noisy_ref.abs() <= 1.0 + 1e-9);
            assert_eq!(r.all.len(), pops.populations[i].circuits.len());
            // best_approx is by construction at least as close as minimal_hs
            assert!(
                (r.best_approx.score - r.noise_free_ref).abs()
                    <= (r.minimal_hs.score - r.noise_free_ref).abs() + 1e-12
            );
        }
    }

    #[test]
    fn ideal_backend_reproduces_reference_for_exact_circuits() {
        let pops = quick_populations(1);
        let rows = evaluate(&pops, &Backend::Ideal);
        let r = &rows[0];
        // under ideal execution the noisy reference IS the noise-free one
        assert!((r.noisy_ref - r.noise_free_ref).abs() < 1e-9);
        // and a near-exact approximation lands on the reference too
        if r.minimal_hs.hs_distance < 1e-6 {
            assert!((r.minimal_hs.score - r.noise_free_ref).abs() < 1e-4);
        }
    }

    /// Every float of a row, as raw bits.
    fn row_bits(r: &TimestepResult) -> Vec<u64> {
        let mut bits = vec![r.step as u64, r.reference_cnots as u64];
        bits.extend([r.noise_free_ref, r.noisy_ref].map(f64::to_bits));
        for s in [&r.minimal_hs, &r.best_approx].into_iter().chain(&r.all) {
            bits.extend([s.cnots as u64, s.hs_distance.to_bits(), s.score.to_bits()]);
        }
        bits
    }

    /// The benchmark's scoring pass (density and hardware emulation on
    /// ourense) yields bit-identical rows whether its waves run on one
    /// thread or two.
    #[test]
    fn rows_are_bit_identical_at_budgets_1_and_2() {
        let cal = ourense().induced(&[0, 1, 2]);
        let density = Backend::Noisy(NoiseModel::from_calibration(cal.clone()));
        let hardware = Backend::Hardware(qaprox_sim::HardwareBackend::new(
            NoiseModel::from_calibration(cal),
        ));
        let rows_at = |budget: usize| {
            with_thread_budget(budget, || {
                let pops = quick_populations(3);
                let mut bits = Vec::new();
                for backend in [&density, &hardware] {
                    let rows = evaluate(&pops, backend);
                    assert_eq!(rows.len(), 3);
                    bits.extend(rows.iter().flat_map(row_bits));
                }
                bits
            })
        };
        assert_eq!(rows_at(1), rows_at(2));
    }

    #[test]
    fn series_error_is_zero_for_perfect_series() {
        let pops = quick_populations(2);
        let rows = evaluate(&pops, &Backend::Ideal);
        let err = series_error(&rows, |r| r.noisy_ref);
        assert!(err < 1e-9);
    }
}
