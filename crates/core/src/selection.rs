//! Approximate-circuit **selection strategies** — the paper's Observation 2:
//! "to capitalize on the potential of approximate circuits, a selection
//! method and an associated metric are required", left as an open problem.
//!
//! This module makes the problem concrete by implementing candidate
//! selectors and a harness that scores what each selector *would have
//! chosen* against the ground truth (the full noisy evaluation):
//!
//! * [`Selector::MinHs`] — the process-metric baseline (what synthesis
//!   alone suggests);
//! * [`Selector::CnotBudget`] — min-HS subject to a depth cap;
//! * [`Selector::DepthPenalized`] — trade distance against CNOTs with a
//!   noise-derived weight (each CNOT costs ~its error rate in fidelity);
//! * [`Selector::ProxyNoise`] — simulate candidates under a *cheap*
//!   depolarizing-only proxy model and pick the best predicted output;
//! * [`Selector::Oracle`] — pick using the true backend (the unattainable
//!   upper bound selectors are measured against).

use crate::workflow::Scored;
use qaprox_circuit::Circuit;
use qaprox_device::{Calibration, EdgeCal, QubitCal, Topology};
use qaprox_linalg::parallel::{par_map, par_map_indexed};
use qaprox_metrics::total_variation;
use qaprox_sim::{Backend, NoiseModel};
use qaprox_synth::ApproxCircuit;
use std::collections::BTreeMap;

/// A selection policy over an approximate-circuit population.
#[derive(Debug, Clone)]
pub enum Selector {
    /// Minimum Hilbert-Schmidt distance (process metric only).
    MinHs,
    /// Minimum HS among circuits with at most this many CNOTs.
    CnotBudget(usize),
    /// Minimize `hs_distance + weight * cnots`.
    DepthPenalized(f64),
    /// Simulate under a depolarizing-only proxy with this two-qubit error
    /// and pick the candidate whose output is closest (TVD) to the ideal.
    ProxyNoise {
        /// Uniform two-qubit error of the proxy model.
        cx_error: f64,
    },
    /// Pick using the true backend (upper bound; not realizable in practice
    /// without spending real device time per candidate).
    Oracle,
}

impl Selector {
    /// Human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            Selector::MinHs => "min-hs".into(),
            Selector::CnotBudget(k) => format!("cnot-budget({k})"),
            Selector::DepthPenalized(w) => format!("depth-penalized({w})"),
            Selector::ProxyNoise { cx_error } => format!("proxy-noise({cx_error})"),
            Selector::Oracle => "oracle".into(),
        }
    }
}

/// Builds the cheap proxy calibration used by [`Selector::ProxyNoise`]:
/// a linear chain with uniform CNOT error and *no* readout/relaxation terms.
fn proxy_calibration(num_qubits: usize, cx_error: f64) -> Calibration {
    let topology = Topology::linear(num_qubits);
    let qubits = vec![
        QubitCal {
            readout_error: 0.0,
            t1_us: 1e9,
            t2_us: 1e9,
            sx_error: 0.0,
            sx_time_ns: 0.0
        };
        num_qubits
    ];
    let mut edges = BTreeMap::new();
    for &e in topology.edges() {
        edges.insert(
            e,
            EdgeCal {
                cx_error,
                cx_time_ns: 0.0,
            },
        );
    }
    Calibration {
        machine: format!("proxy(cx={cx_error})"),
        topology,
        qubits,
        edges,
    }
}

/// Evaluation context: the ideal output to approach and the metric that
/// scores a candidate's output distribution against it (lower is better).
pub struct SelectionContext<'a> {
    /// Noise-free reference distribution.
    pub ideal: &'a [f64],
    /// The true backend (used by the oracle and by the final ground-truth
    /// scoring of whatever each selector picked).
    pub backend: &'a Backend,
}

/// Applies a selector to a population, returning the chosen circuit's index.
pub fn choose(
    selector: &Selector,
    population: &[ApproxCircuit],
    ctx: &SelectionContext<'_>,
) -> usize {
    assert!(
        !population.is_empty(),
        "cannot select from an empty population"
    );
    match selector {
        Selector::MinHs => argmin_by(population, |ap| ap.hs_distance),
        Selector::CnotBudget(k) => {
            // fall back to the global min-HS when nothing fits the budget
            let within: Vec<usize> = population
                .iter()
                .enumerate()
                .filter(|(_, ap)| ap.cnots <= *k)
                .map(|(i, _)| i)
                .collect();
            if within.is_empty() {
                argmin_by(population, |ap| ap.hs_distance)
            } else {
                *within
                    .iter()
                    .min_by(|&&a, &&b| {
                        population[a]
                            .hs_distance
                            .total_cmp(&population[b].hs_distance)
                    })
                    .unwrap()
            }
        }
        Selector::DepthPenalized(w) => {
            argmin_by(population, |ap| ap.hs_distance + w * ap.cnots as f64)
        }
        Selector::ProxyNoise { cx_error } => {
            let n = population[0].circuit.num_qubits();
            let proxy = NoiseModel::from_calibration(proxy_calibration(n, *cx_error));
            let scores: Vec<f64> = par_map(population, |ap| {
                let probs = proxy.probabilities(&ap.circuit);
                total_variation(&probs, ctx.ideal)
            });
            argmin_by_idx(&scores)
        }
        Selector::Oracle => {
            let scores: Vec<f64> = par_map_indexed(population, |i, ap| {
                let probs = ctx.backend.probabilities(&ap.circuit, i as u64);
                total_variation(&probs, ctx.ideal)
            });
            argmin_by_idx(&scores)
        }
    }
}

fn argmin_by<F: Fn(&ApproxCircuit) -> f64>(population: &[ApproxCircuit], f: F) -> usize {
    population
        .iter()
        .enumerate()
        .min_by(|a, b| f(a.1).total_cmp(&f(b.1)))
        .map(|(i, _)| i)
        .unwrap()
}

fn argmin_by_idx(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap()
}

/// One selector's outcome: what it chose and how that choice actually
/// performed on the true backend (TVD to ideal; lower is better).
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Selector name.
    pub selector: String,
    /// Chosen circuit summary + its *true* score.
    pub chosen: Scored,
}

/// Scores every selector's choice on the true backend.
pub fn compare_selectors(
    selectors: &[Selector],
    population: &[ApproxCircuit],
    ctx: &SelectionContext<'_>,
) -> Vec<SelectionOutcome> {
    selectors
        .iter()
        .map(|sel| {
            let idx = choose(sel, population, ctx);
            let ap = &population[idx];
            let probs = ctx.backend.probabilities(&ap.circuit, 0xCAFE + idx as u64);
            SelectionOutcome {
                selector: sel.name(),
                chosen: Scored {
                    cnots: ap.cnots,
                    hs_distance: ap.hs_distance,
                    score: total_variation(&probs, ctx.ideal),
                },
            }
        })
        .collect()
}

/// Ground-truth regret of a selector: its true score minus the oracle's.
pub fn regret(outcomes: &[SelectionOutcome]) -> Vec<(String, f64)> {
    let oracle = outcomes
        .iter()
        .find(|o| o.selector == "oracle")
        .map(|o| o.chosen.score)
        .unwrap_or(0.0);
    outcomes
        .iter()
        .map(|o| (o.selector.clone(), o.chosen.score - oracle))
        .collect()
}

/// Reference circuit's noisy score, for context in selection reports.
pub fn reference_score(reference: &Circuit, ctx: &SelectionContext<'_>) -> f64 {
    let probs = ctx.backend.probabilities(reference, 0x5EED);
    total_variation(&probs, ctx.ideal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_device::devices::ourense;

    fn fake_population() -> Vec<ApproxCircuit> {
        // three candidates: exact-deep, close-medium, loose-shallow
        let mk = |cnots: usize, dist: f64| {
            let mut c = Circuit::new(2);
            c.h(0);
            for _ in 0..cnots {
                c.cx(0, 1);
                c.rz(0.21, 1);
            }
            ApproxCircuit::new(c, dist)
        };
        vec![mk(8, 0.0), mk(3, 0.05), mk(1, 0.3)]
    }

    fn ctx_backend() -> Backend {
        let cal = ourense().induced(&[0, 1]).with_uniform_cx_error(0.15);
        Backend::Noisy(NoiseModel::from_calibration(cal))
    }

    #[test]
    fn min_hs_picks_lowest_distance() {
        let pop = fake_population();
        let backend = Backend::Ideal;
        let ideal = vec![0.5, 0.0, 0.0, 0.5];
        let ctx = SelectionContext {
            ideal: &ideal,
            backend: &backend,
        };
        assert_eq!(choose(&Selector::MinHs, &pop, &ctx), 0);
    }

    #[test]
    fn cnot_budget_respects_cap_with_fallback() {
        let pop = fake_population();
        let backend = Backend::Ideal;
        let ideal = vec![0.5, 0.0, 0.0, 0.5];
        let ctx = SelectionContext {
            ideal: &ideal,
            backend: &backend,
        };
        assert_eq!(choose(&Selector::CnotBudget(3), &pop, &ctx), 1);
        assert_eq!(choose(&Selector::CnotBudget(1), &pop, &ctx), 2);
        // nothing fits a 0-CNOT budget: falls back to global min-HS
        assert_eq!(choose(&Selector::CnotBudget(0), &pop, &ctx), 0);
    }

    #[test]
    fn depth_penalty_shifts_choice_shallower() {
        let pop = fake_population();
        let backend = Backend::Ideal;
        let ideal = vec![0.5, 0.0, 0.0, 0.5];
        let ctx = SelectionContext {
            ideal: &ideal,
            backend: &backend,
        };
        // tiny weight: distance dominates -> deep exact circuit
        assert_eq!(choose(&Selector::DepthPenalized(1e-6), &pop, &ctx), 0);
        // heavy weight: depth dominates -> shallow circuit
        assert_eq!(choose(&Selector::DepthPenalized(1.0), &pop, &ctx), 2);
    }

    #[test]
    fn oracle_never_loses_to_other_selectors() {
        let pop = fake_population();
        let backend = ctx_backend();
        // ideal = noise-free output of the *exact* candidate
        let ideal = qaprox_sim::statevector::probabilities(&pop[0].circuit);
        let ctx = SelectionContext {
            ideal: &ideal,
            backend: &backend,
        };
        let selectors = vec![
            Selector::MinHs,
            Selector::CnotBudget(3),
            Selector::DepthPenalized(0.02),
            Selector::ProxyNoise { cx_error: 0.15 },
            Selector::Oracle,
        ];
        let outcomes = compare_selectors(&selectors, &pop, &ctx);
        let oracle = outcomes
            .iter()
            .find(|o| o.selector == "oracle")
            .unwrap()
            .chosen
            .score;
        for o in &outcomes {
            assert!(
                oracle <= o.chosen.score + 1e-12,
                "oracle ({oracle:.4}) must not lose to {} ({:.4})",
                o.selector,
                o.chosen.score
            );
        }
        // regrets are nonnegative, oracle's regret is zero
        for (name, r) in regret(&outcomes) {
            assert!(r >= -1e-12, "{name} has negative regret {r}");
        }
    }

    #[test]
    fn proxy_noise_tracks_the_true_backend_better_than_min_hs_under_heavy_noise() {
        // With strong noise, min-HS picks the deep circuit while the proxy
        // predicts its degradation and picks a shallower one.
        let pop = fake_population();
        let backend = ctx_backend();
        let ideal = qaprox_sim::statevector::probabilities(&pop[0].circuit);
        let ctx = SelectionContext {
            ideal: &ideal,
            backend: &backend,
        };
        let outcomes = compare_selectors(
            &[Selector::MinHs, Selector::ProxyNoise { cx_error: 0.15 }],
            &pop,
            &ctx,
        );
        let min_hs = &outcomes[0].chosen;
        let proxy = &outcomes[1].chosen;
        assert!(
            proxy.score <= min_hs.score + 1e-9,
            "proxy selection ({:.4}) should beat blind min-HS ({:.4}) at 15% error",
            proxy.score,
            min_hs.score
        );
    }
}
