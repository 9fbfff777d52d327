//! Approximate-circuit records and selection.
//!
//! Both synthesis engines emit **every** circuit they evaluate through a
//! partial-solution stream — the paper's enhancement to QSearch ("instead of
//! saving only the final circuit, it also saves every intermediate circuit
//! during its search") and QFast's `partial_solution_callback`. Selection by
//! HS threshold (never below 0.1 in the paper) happens afterwards.

use qaprox_circuit::Circuit;

/// One candidate produced during synthesis.
#[derive(Debug, Clone)]
pub struct ApproxCircuit {
    /// The concrete circuit (U3/CX basis).
    pub circuit: Circuit,
    /// CNOT count (cached).
    pub cnots: usize,
    /// Hilbert-Schmidt distance to the synthesis target.
    pub hs_distance: f64,
}

impl ApproxCircuit {
    /// Builds a record, caching the CNOT count.
    pub fn new(circuit: Circuit, hs_distance: f64) -> Self {
        let cnots = circuit.cx_count();
        ApproxCircuit {
            circuit,
            cnots,
            hs_distance,
        }
    }
}

/// Performance counters from one synthesis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Structure-memo hits: instantiations served from cache because the
    /// search re-derived a commuting-equivalent structure.
    pub memo_hits: usize,
    /// Structure-memo misses: structures actually optimized (then cached).
    pub memo_misses: usize,
}

impl SynthStats {
    /// Element-wise accumulation (for population-level aggregation).
    pub fn absorb(&mut self, other: &SynthStats) {
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }
}

/// Output of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisOutput {
    /// The best (lowest-distance) circuit found.
    pub best: ApproxCircuit,
    /// Every circuit evaluated during the search, in evaluation order.
    pub intermediates: Vec<ApproxCircuit>,
    /// Search nodes evaluated.
    pub nodes_evaluated: usize,
    /// Memo-cache counters for the run.
    pub stats: SynthStats,
}

/// Admission check for one synthesized candidate: its recorded distance must
/// be a finite non-negative number and its circuit must pass the structural
/// lints of `qaprox-verify` (in-range operands, finite parameters, unitary
/// embedded gates). Optimizers that diverge produce exactly these defects —
/// NaN angles after a line-search blowup being the classic one — and a bad
/// candidate admitted here poisons every downstream noise evaluation.
pub fn admit(candidate: &ApproxCircuit) -> Result<(), String> {
    if !candidate.hs_distance.is_finite() || candidate.hs_distance < -1e-12 {
        return Err(format!(
            "candidate hs_distance {} is not a valid distance",
            candidate.hs_distance
        ));
    }
    let cfg = qaprox_verify::LintConfig::new();
    let report = qaprox_verify::lint_circuit(&candidate.circuit, None, &cfg);
    if report.has_errors() {
        Err(format!(
            "candidate failed admission lints:\n{}",
            report.to_text()
        ))
    } else {
        Ok(())
    }
}

/// Keeps circuits with `hs_distance <= max_hs` — the paper's selection rule
/// — after dropping any candidate that fails [`admit`].
pub fn select_by_threshold(circuits: &[ApproxCircuit], max_hs: f64) -> Vec<ApproxCircuit> {
    circuits
        .iter()
        .filter(|c| c.hs_distance <= max_hs && admit(c).is_ok())
        .cloned()
        .collect()
}

/// Deduplicates by (CNOT count, quantized distance), keeping the first of
/// each class — useful to thin very dense intermediate streams.
pub fn dedupe(circuits: &[ApproxCircuit]) -> Vec<ApproxCircuit> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for c in circuits {
        let key = (c.cnots, (c.hs_distance * 1e9) as i64);
        if seen.insert(key) {
            out.push(c.clone());
        }
    }
    out
}

/// Static pre-ranking score for one candidate under a device calibration:
/// the estimated success probability from `qaprox-verify`'s noise-budget
/// interpreter times the candidate's closeness to the synthesis target
/// (`1 - hs_distance`). This is the paper's trade-off in one number — a
/// shorter circuit pays less noise (higher ESP) but may sit further from
/// the target unitary — computed in O(gates) with no simulation.
pub fn predicted_score(candidate: &ApproxCircuit, cal: &qaprox_device::Calibration) -> f64 {
    let opts = qaprox_verify::AnalyzeOptions::default();
    let report = qaprox_verify::analyze(&candidate.circuit, cal, &opts);
    report.esp * (1.0 - candidate.hs_distance.clamp(0.0, 1.0))
}

/// Sorts candidates by [`predicted_score`] descending (best first), each
/// paired with its score. Serve uses this to pre-rank a population before
/// any density-matrix simulation; at high noise the ranking puts fewer-CNOT
/// approximations above the exact circuit — the paper's crossover —
/// without running the O(4^n) simulator.
pub fn rank_by_predicted(
    circuits: &[ApproxCircuit],
    cal: &qaprox_device::Calibration,
) -> Vec<(ApproxCircuit, f64)> {
    let mut ranked: Vec<(ApproxCircuit, f64)> = circuits
        .iter()
        .map(|c| (c.clone(), predicted_score(c, cal)))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    ranked
}

/// The minimum-HS circuit per CNOT count — the "best per depth" frontier
/// used by the paper's depth-vs-noise analysis (Fig. 11).
pub fn best_per_cnot_count(circuits: &[ApproxCircuit]) -> Vec<ApproxCircuit> {
    let mut best: std::collections::BTreeMap<usize, ApproxCircuit> =
        std::collections::BTreeMap::new();
    for c in circuits {
        match best.get(&c.cnots) {
            Some(b) if b.hs_distance <= c.hs_distance => {}
            _ => {
                best.insert(c.cnots, c.clone());
            }
        }
    }
    best.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(cnots: usize, dist: f64) -> ApproxCircuit {
        let mut c = Circuit::new(2);
        for _ in 0..cnots {
            c.cx(0, 1);
        }
        ApproxCircuit::new(c, dist)
    }

    #[test]
    fn new_caches_cnot_count() {
        let a = fake(3, 0.05);
        assert_eq!(a.cnots, 3);
    }

    #[test]
    fn threshold_selection_filters() {
        let pop = vec![fake(1, 0.5), fake(2, 0.09), fake(3, 0.1), fake(4, 0.0)];
        let sel = select_by_threshold(&pop, 0.1);
        assert_eq!(sel.len(), 3);
        assert!(sel.iter().all(|c| c.hs_distance <= 0.1));
    }

    #[test]
    fn admission_rejects_defective_candidates() {
        // NaN distance
        assert!(admit(&fake(1, f64::NAN)).is_err());
        // NaN rotation angle inside the circuit
        let mut c = Circuit::new(2);
        c.rz(f64::NAN, 0);
        let bad = ApproxCircuit::new(c, 0.01);
        assert!(admit(&bad).is_err());
        // both are also silently excluded from selection
        let pop = vec![fake(1, 0.05), bad, fake(2, f64::NAN)];
        assert_eq!(select_by_threshold(&pop, 0.1).len(), 1);
        // a clean candidate passes
        assert!(admit(&fake(2, 0.0)).is_ok());
    }

    #[test]
    fn dedupe_removes_identical_classes() {
        let pop = vec![fake(2, 0.05), fake(2, 0.05), fake(2, 0.06)];
        assert_eq!(dedupe(&pop).len(), 2);
    }

    #[test]
    fn predicted_ranking_prefers_fewer_cnots_at_high_noise() {
        let cal = qaprox_device::devices::ourense()
            .induced(&[0, 1])
            .with_uniform_cx_error(0.1);
        // exact but long vs slightly-off but short: under 10% CX error the
        // short approximation must win the static ranking
        let exact = fake(8, 0.0);
        let approx = fake(2, 0.05);
        let ranked = rank_by_predicted(&[exact, approx], &cal);
        assert_eq!(
            ranked[0].0.cnots, 2,
            "short approximation should rank first"
        );
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn predicted_ranking_prefers_exactness_at_low_noise() {
        let mut cal = qaprox_device::devices::ourense()
            .induced(&[0, 1])
            .with_uniform_cx_error(1e-5);
        for q in &mut cal.qubits {
            // long coherence times: the gate-error term dominates
            q.t1_us = 1e9;
            q.t2_us = 1e9;
        }
        let exact = fake(8, 0.0);
        let approx = fake(2, 0.05);
        let ranked = rank_by_predicted(&[exact, approx], &cal);
        assert_eq!(ranked[0].0.cnots, 8, "exact circuit should rank first");
    }

    #[test]
    fn best_per_cnot_count_keeps_minimum() {
        let pop = vec![fake(2, 0.3), fake(2, 0.1), fake(4, 0.05), fake(4, 0.2)];
        let best = best_per_cnot_count(&pop);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].cnots, 2);
        assert!((best[0].hs_distance - 0.1).abs() < 1e-12);
        assert!((best[1].hs_distance - 0.05).abs() < 1e-12);
    }
}
