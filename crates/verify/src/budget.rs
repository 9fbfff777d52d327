//! The static noise-budget estimator (the `QA4xx` family): an abstract
//! interpreter that predicts output fidelity from the gate DAG and a
//! calibration snapshot *without* simulating.
//!
//! Two numbers are propagated through the circuit (full math in
//! `docs/ANALYZE.md`):
//!
//! * **`fidelity_bound`** — a sound upper bound on the fidelity the
//!   density-matrix simulator can measure under the matching
//!   `NoiseModel` (readout excluded, as in `DensityMatrix::fidelity_pure`).
//!   Each depolarizing channel with strength `lambda` on a `d`-dimensional
//!   subsystem maps the fidelity `F` to at most `(1-lambda) F + lambda/d`;
//!   thermal relaxation can *raise* fidelity toward the ground state, so it
//!   can only add slack `2(1-s) + (1-s^2)` per qubit-application (with
//!   `s = sqrt((1-gamma)(1-lambda_pd))` the survival amplitude), clamped at
//!   one. The bound therefore never undercuts the simulator — the property
//!   the acceptance tests pin.
//! * **`esp`** — the estimated success probability, the standard NISQ
//!   ranking heuristic: the product of per-gate error survival factors
//!   `(1 - err)` times the relaxation survival `s^2` per qubit-application.
//!   This is what decreases monotonically with CNOT count and reproduces
//!   the paper's crossover (short approximate circuits beating long exact
//!   ones at high noise). It is an *estimate*, not a bound.
//!
//! Readout survival is reported separately (`readout_survival`) because the
//! simulator's pure-state fidelity excludes confusion.
//!
//! Each gate's error, depolarizing strength and duration are the ones the
//! simulator applies: [`qaprox_device::GateNoise`], read from the
//! calibration. Relaxation survival uses the simulator's parameters
//! ([`qaprox_device::channels::relaxation_params`]).

use crate::circuit_lints::emit;
use crate::config::{LintCode, LintConfig};
use crate::dag::CircuitDag;
use crate::diagnostics::{Location, Report, REPORT_SCHEMA_VERSION};
use qaprox_circuit::Circuit;
use qaprox_device::channels::relaxation_params;
use qaprox_device::Calibration;
use qaprox_linalg::json::Json;

/// Knobs for [`analyze`]. The defaults match `NoiseModel::from_calibration`
/// (relaxation and readout both on, no thresholds).
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Account for T1/T2 relaxation over gate durations.
    pub include_relaxation: bool,
    /// Report readout survival (the bound itself always excludes readout).
    pub include_readout: bool,
    /// When set, emit QA401 if the fidelity bound falls below this.
    pub min_fidelity: Option<f64>,
    /// When set, emit QA402 for each qubit whose survival falls below this.
    pub min_qubit_fidelity: Option<f64>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            include_relaxation: true,
            include_readout: true,
            min_fidelity: None,
            min_qubit_fidelity: None,
        }
    }
}

/// One qubit's share of the error budget.
#[derive(Debug, Clone, PartialEq)]
pub struct QubitBudget {
    /// The qubit index.
    pub qubit: usize,
    /// Number of gates touching this qubit.
    pub gates: usize,
    /// Product of `(1 - err)` over every touching gate (a two-qubit gate's
    /// error counts fully against *both* its qubits — a deliberately
    /// pessimistic attribution) times the relaxation survival when enabled.
    pub survival: f64,
    /// The qubit's readout error, reported for context (not folded into
    /// `survival`).
    pub readout_error: f64,
}

/// Everything the static estimator derives from one circuit + calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Device name from the calibration snapshot.
    pub machine: String,
    /// Circuit width.
    pub num_qubits: usize,
    /// Total gate count.
    pub gate_count: usize,
    /// Total CNOT cost (`Circuit::cnot_cost`: CX/CZ count 1, SWAP counts 3).
    pub cnot_cost: usize,
    /// ASAP layer count of the gate DAG.
    pub depth: usize,
    /// CNOT-weighted critical path: the minimum number of *serial* CNOTs
    /// any schedule must pay.
    pub cnot_critical_path: f64,
    /// Duration-weighted critical path in nanoseconds from calibration gate
    /// times.
    pub duration_ns: f64,
    /// Sound upper bound on the simulator-measured fidelity (readout
    /// excluded).
    pub fidelity_bound: f64,
    /// Estimated success probability (ranking heuristic, not a bound).
    pub esp: f64,
    /// Probability all qubits are read out correctly, `prod (1 - ro_q)`.
    pub readout_survival: f64,
    /// Per-qubit error budgets.
    pub qubit_budgets: Vec<QubitBudget>,
    /// QA4xx findings (empty unless thresholds were configured and missed).
    pub findings: Report,
}

impl AnalysisReport {
    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "analysis of {} qubit(s) on {}: {} gate(s), cnot cost {}, depth {}\n",
            self.num_qubits, self.machine, self.gate_count, self.cnot_cost, self.depth
        ));
        out.push_str(&format!(
            "  fidelity upper bound   {:.6}\n",
            self.fidelity_bound
        ));
        out.push_str(&format!("  est. success prob      {:.6}\n", self.esp));
        out.push_str(&format!(
            "  readout survival       {:.6}\n",
            self.readout_survival
        ));
        out.push_str(&format!(
            "  cnot critical path     {:.0}\n",
            self.cnot_critical_path
        ));
        out.push_str(&format!(
            "  duration critical path {:.1} ns\n",
            self.duration_ns
        ));
        out.push_str("  per-qubit budgets:\n");
        for b in &self.qubit_budgets {
            out.push_str(&format!(
                "    q{}: {} gate(s), survival {:.6}, readout error {:.4}\n",
                b.qubit, b.gates, b.survival, b.readout_error
            ));
        }
        if !self.findings.is_clean() {
            out.push_str(&self.findings.to_text());
        }
        out
    }

    /// The report as a JSON object, with the same `schema_version`
    /// convention as the lint reports and the findings as
    /// [`Report::to_json_value`].
    pub fn to_json_value(&self) -> Json {
        let budgets = self
            .qubit_budgets
            .iter()
            .map(|b| {
                Json::obj(vec![
                    ("qubit", Json::Num(b.qubit as f64)),
                    ("gates", Json::Num(b.gates as f64)),
                    ("survival", Json::Num(b.survival)),
                    ("readout_error", Json::Num(b.readout_error)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::Num(REPORT_SCHEMA_VERSION.into())),
            ("machine", Json::Str(self.machine.clone())),
            ("num_qubits", Json::Num(self.num_qubits as f64)),
            ("gate_count", Json::Num(self.gate_count as f64)),
            ("cnot_cost", Json::Num(self.cnot_cost as f64)),
            ("depth", Json::Num(self.depth as f64)),
            ("cnot_critical_path", Json::Num(self.cnot_critical_path)),
            ("duration_ns", Json::Num(self.duration_ns)),
            ("fidelity_bound", Json::Num(self.fidelity_bound)),
            ("esp", Json::Num(self.esp)),
            ("readout_survival", Json::Num(self.readout_survival)),
            ("qubit_budgets", Json::Arr(budgets)),
            ("findings", self.findings.to_json_value()),
        ])
    }

    /// [`AnalysisReport::to_json_value`] as one line of JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Canonical fingerprint for store keys: circuits whose predicted
    /// fidelity changes (new calibration, new estimator math) must not hit
    /// stale cached results.
    pub fn fingerprint(&self) -> String {
        format!(
            "analyze/v1;bound={:.17e};esp={:.17e};cnot_path={:.17e};depth={}",
            self.fidelity_bound, self.esp, self.cnot_critical_path, self.depth
        )
    }
}

/// Survival amplitude `s` of the thermal-relaxation channel over `t_ns`:
/// `s = sqrt((1 - gamma)(1 - lambda_pd))` with the simulator's parameters
/// ([`relaxation_params`]). Non-positive durations or coherence times mean
/// "no data" and yield 1 (no relaxation).
pub(crate) fn relaxation_survival(t_ns: f64, t1_us: f64, t2_us: f64) -> f64 {
    if t_ns <= 0.0 || t1_us <= 0.0 || t2_us <= 0.0 {
        return 1.0;
    }
    let (gamma, lambda_pd) = relaxation_params(t_ns, t1_us, t2_us);
    ((1.0 - gamma) * (1.0 - lambda_pd)).sqrt()
}

/// Runs the abstract interpreter with an explicit lint config for the QA4xx
/// findings (so `--deny QA401` works end to end).
pub fn analyze_with_config(
    circuit: &Circuit,
    cal: &Calibration,
    opts: &AnalyzeOptions,
    cfg: &LintConfig,
) -> AnalysisReport {
    assert!(
        circuit.num_qubits() <= cal.qubits.len(),
        "calibration covers {} qubit(s) but the circuit needs {} (induce it first)",
        cal.qubits.len(),
        circuit.num_qubits()
    );
    let n = circuit.num_qubits();
    let dag = CircuitDag::from_circuit(circuit);

    let mut bound = 1.0f64;
    let mut esp = 1.0f64;
    let mut qubit_survival = vec![1.0f64; n];
    let mut qubit_gates = vec![0usize; n];

    for inst in circuit.iter() {
        let noise = cal.gate_noise(&inst.qubits);
        // a depolarizing channel on a d-dimensional support maps F to at
        // most (1 - lambda) F + lambda / d
        let dim = (1usize << inst.qubits.len()) as f64;
        bound = (1.0 - noise.lambda) * bound + noise.lambda / dim;
        let err = noise.error.clamp(0.0, 1.0);
        esp *= 1.0 - err;
        for &q in &inst.qubits {
            // pessimistic attribution: a 2q gate's full error hits both
            qubit_survival[q] *= 1.0 - err;
            qubit_gates[q] += 1;
            if opts.include_relaxation {
                let qc = &cal.qubits[q];
                let s = relaxation_survival(noise.duration_ns, qc.t1_us, qc.t2_us);
                // relaxation can raise fidelity toward |0..0>, so the sound
                // bound only gains slack; the heuristic esp pays the survival
                // probability
                bound = (bound + 2.0 * (1.0 - s) + (1.0 - s * s)).min(1.0);
                esp *= s * s;
                qubit_survival[q] *= s * s;
            }
        }
    }

    let readout_survival = if opts.include_readout {
        (0..n)
            .map(|q| 1.0 - cal.qubits[q].readout_error.clamp(0.0, 1.0))
            .product()
    } else {
        1.0
    };

    let mut findings = Vec::new();
    if let Some(threshold) = opts.min_fidelity {
        if bound < threshold {
            emit(
                &mut findings,
                cfg,
                LintCode::LowFidelityBound,
                Location::Global,
                format!("static fidelity bound {bound:.6} is below the required {threshold:.6}"),
            );
        }
    }
    if let Some(threshold) = opts.min_qubit_fidelity {
        for (q, &s) in qubit_survival.iter().enumerate() {
            if s < threshold {
                emit(
                    &mut findings,
                    cfg,
                    LintCode::QubitBudgetExceeded,
                    Location::Qubit(q),
                    format!("qubit {q} survival {s:.6} is below the required {threshold:.6}"),
                );
            }
        }
    }

    AnalysisReport {
        machine: cal.machine.clone(),
        num_qubits: n,
        gate_count: circuit.len(),
        cnot_cost: circuit.cnot_cost(),
        depth: dag.depth(),
        cnot_critical_path: dag.cnot_critical_path().weight,
        duration_ns: dag.duration_critical_path(cal).weight,
        fidelity_bound: bound,
        esp,
        readout_survival,
        qubit_budgets: (0..n)
            .map(|q| QubitBudget {
                qubit: q,
                gates: qubit_gates[q],
                survival: qubit_survival[q],
                readout_error: cal.qubits[q].readout_error,
            })
            .collect(),
        findings: Report::from_diagnostics(findings),
    }
}

/// Runs the abstract interpreter with default lint levels. This is the
/// library entry point `qaprox analyze` and the serve/synth integration use.
pub fn analyze(circuit: &Circuit, cal: &Calibration, opts: &AnalyzeOptions) -> AnalysisReport {
    analyze_with_config(circuit, cal, opts, &LintConfig::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_device::devices::ourense;

    fn bell(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c
    }

    #[test]
    fn noisier_device_lowers_both_estimates() {
        let cal = ourense().induced(&[0, 1, 2]);
        let quiet = analyze(&bell(3), &cal, &AnalyzeOptions::default());
        let loud = analyze(
            &bell(3),
            &cal.with_uniform_cx_error(0.1),
            &AnalyzeOptions::default(),
        );
        assert!(loud.fidelity_bound < quiet.fidelity_bound);
        assert!(loud.esp < quiet.esp);
        assert!(quiet.fidelity_bound <= 1.0 && quiet.fidelity_bound > 0.0);
    }

    #[test]
    fn esp_decreases_with_every_gate_and_bound_never_exceeds_one() {
        let cal = ourense().induced(&[0, 1, 2]);
        let mut prev = f64::INFINITY;
        for depth in [1usize, 3, 9, 27] {
            let mut c = Circuit::new(3);
            for _ in 0..depth {
                c.cx(0, 1).cx(1, 2);
            }
            let r = analyze(&c, &cal, &AnalyzeOptions::default());
            assert!(r.esp < prev);
            assert!(r.fidelity_bound <= 1.0);
            prev = r.esp;
        }
    }

    #[test]
    fn noiseless_calibration_gives_unit_estimates() {
        let mut cal = ourense().induced(&[0, 1, 2]);
        for q in &mut cal.qubits {
            q.sx_error = 0.0;
            q.readout_error = 0.0;
            q.t1_us = 1e12;
            q.t2_us = 1e12;
        }
        for e in cal.edges.values_mut() {
            e.cx_error = 0.0;
        }
        let r = analyze(&bell(3), &cal, &AnalyzeOptions::default());
        assert!(
            (r.fidelity_bound - 1.0).abs() < 1e-9,
            "{}",
            r.fidelity_bound
        );
        assert!(r.esp > 0.999_999);
        assert!((r.readout_survival - 1.0).abs() < 1e-12);
    }

    #[test]
    fn thresholds_trigger_qa401_and_qa402() {
        let cal = ourense().induced(&[0, 1, 2]).with_uniform_cx_error(0.2);
        let mut c = Circuit::new(3);
        for _ in 0..10 {
            c.cx(0, 1).cx(1, 2);
        }
        let opts = AnalyzeOptions {
            min_fidelity: Some(0.99),
            min_qubit_fidelity: Some(0.99),
            ..AnalyzeOptions::default()
        };
        let r = analyze(&c, &cal, &opts);
        let codes: Vec<&str> = r.findings.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"QA401"));
        assert!(codes.contains(&"QA402"));
        // without thresholds, no findings at all
        let clean = analyze(&c, &cal, &AnalyzeOptions::default());
        assert!(clean.findings.is_clean());
    }

    #[test]
    fn report_renders_text_and_json() {
        let cal = ourense().induced(&[0, 1]);
        let r = analyze(&bell(2), &cal, &AnalyzeOptions::default());
        let text = r.to_text();
        assert!(text.contains("fidelity upper bound"));
        assert!(text.contains("q0:"));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("\"fidelity_bound\":"));
        assert!(json.contains("\"qubit_budgets\":["));
        assert!(r.fingerprint().starts_with("analyze/v1;"));
    }

    #[test]
    fn relaxation_toggle_only_tightens_the_bound() {
        let cal = ourense().induced(&[0, 1, 2]);
        let mut c = Circuit::new(3);
        for _ in 0..5 {
            c.cx(0, 1).cx(1, 2);
        }
        let with = analyze(&c, &cal, &AnalyzeOptions::default());
        let without = analyze(
            &c,
            &cal,
            &AnalyzeOptions {
                include_relaxation: false,
                ..AnalyzeOptions::default()
            },
        );
        // relaxation adds slack to the sound bound but lowers the heuristic
        assert!(with.fidelity_bound >= without.fidelity_bound);
        assert!(with.esp < without.esp);
    }
}
