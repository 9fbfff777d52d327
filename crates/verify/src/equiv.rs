//! The noisy equivalence checker (the `QA5xx` family): an abstract
//! interpreter over *pairs* of circuits that certifies an upper bound on the
//! total-variation distance between their output distributions under the
//! device's noise model — without simulating either circuit.
//!
//! Full math and the soundness argument live in `docs/EQUIV.md`; the short
//! version:
//!
//! * **Discharge.** Two passes over the pair peel off work that provably
//!   contributes nothing. Tier 1 (noise-inclusive) removes identical
//!   instructions that can bubble to the circuit boundary across
//!   *disjoint-support* neighbours only — channels on disjoint subsystems
//!   commute exactly, so the whole noisy block (gate + its noise) cancels
//!   between the two sides. Tier 2 (unitary-only) removes identical
//!   instructions that bubble via the algebraic [`commutes`] relation; noise
//!   does *not* commute through overlapping gates even when the unitaries
//!   do, so these discharge only from the unitary-distance term and their
//!   noise stays on the books. Both tiers run front-to-back and, mirrored,
//!   back-to-front (data processing lets a common trailing channel drop).
//! * **Unitary distance.** The residual gate sequences are aligned by an
//!   edit-distance DP; a matched same-support pair costs the phase-aligned
//!   Frobenius distance `min_phi ||U - e^{i phi} V||_F` (an upper bound on
//!   the operator-norm distance, hence on half the diamond distance of the
//!   induced channels), an unmatched gate costs its distance to identity.
//! * **Noise terms.** Every non-tier-1-discharged gate contributes its
//!   half-diamond distance to the identity channel, for the noise the
//!   simulator applies ([`qaprox_device::GateNoise`]): the depolarizing
//!   strength contributes `lambda`; thermal relaxation over the gate
//!   duration contributes `(1 - s) + (1 - s^2)/2` per qubit-application,
//!   with `s` the survival amplitude from [`crate::budget`].
//! * **Ideal cross-check.** For small widths the exact ideal-statevector TV
//!   distance is computed too; `tv_ideal + noise_A + noise_B` is a second
//!   sound upper bound (triangle inequality through the ideal circuits) and
//!   `tv_ideal - noise_A - noise_B` a sound *lower* bound, which is what
//!   lets QA501 prove a violation rather than merely fail to certify.
//!
//! Readout confusion is a stochastic map applied identically to both
//! distributions, and stochastic maps contract total variation — so the
//! bound is sound with or without readout and the checker ignores it.

use crate::budget::relaxation_survival;
use crate::circuit_lints::emit;
use crate::config::{LintCode, LintConfig};
use crate::diagnostics::{Location, Report, REPORT_SCHEMA_VERSION};
use qaprox_circuit::{commutes, Circuit, Instruction};
use qaprox_device::Calibration;
use qaprox_linalg::json::Json;
use qaprox_linalg::Matrix;

/// Knobs for [`check_equivalence`].
#[derive(Debug, Clone)]
pub struct EquivOptions {
    /// The closeness target: the pair is certified equivalent when the
    /// upper bound on the noisy output-distribution TV distance is at most
    /// this.
    pub epsilon: f64,
    /// Account for T1/T2 relaxation in the noise terms (matches
    /// `NoiseModel::include_relaxation`).
    pub include_relaxation: bool,
    /// Widths up to this many qubits also get the exact ideal-statevector
    /// TV distance (O(2^n) work), which tightens the upper bound and is the
    /// only source of a nontrivial lower bound. `0` disables the pass.
    pub ideal_tv_max_qubits: usize,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            epsilon: 0.1,
            include_relaxation: true,
            ideal_tv_max_qubits: 12,
        }
    }
}

/// What the checker could conclude about the pair at the requested epsilon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquivVerdict {
    /// `bound <= epsilon`: the circuits are certified ε-equivalent on the
    /// device. Sound — no simulation can contradict it.
    Equivalent,
    /// `lower_bound > epsilon`: the circuits are certified *not*
    /// ε-equivalent (QA501).
    Violated,
    /// Neither bound decides; a simulation (or a tighter epsilon) is needed
    /// (QA502).
    Undecidable,
}

impl EquivVerdict {
    /// Lowercase name used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            EquivVerdict::Equivalent => "equivalent",
            EquivVerdict::Violated => "violated",
            EquivVerdict::Undecidable => "undecidable",
        }
    }
}

/// Everything the equivalence checker derives from one circuit pair +
/// calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivReport {
    /// Device name from the calibration snapshot.
    pub machine: String,
    /// Circuit width (both circuits must agree).
    pub num_qubits: usize,
    /// The epsilon the verdict refers to.
    pub epsilon: f64,
    /// Gate count of the first circuit.
    pub gates_a: usize,
    /// Gate count of the second circuit.
    pub gates_b: usize,
    /// Instruction pairs discharged with their noise (tier 1: identical,
    /// bubble-able across disjoint-support neighbours on both sides).
    pub discharged_noisy: usize,
    /// Instruction pairs discharged from the unitary term only (tier 2:
    /// identical, bubble-able via `commutes`; their noise still counts).
    pub discharged_unitary: usize,
    /// Certified upper bound on `min_phi ||U_A - e^{i phi} U_B||_op` for the
    /// tier-1 residual circuits, from the aligned per-gate Frobenius sum.
    pub d_unitary: f64,
    /// Half-diamond noise mass of the first circuit's tier-1 residual.
    pub noise_residual_a: f64,
    /// Half-diamond noise mass of the second circuit's tier-1 residual.
    pub noise_residual_b: f64,
    /// Half-diamond noise mass of the *whole* first circuit.
    pub noise_full_a: f64,
    /// Half-diamond noise mass of the *whole* second circuit.
    pub noise_full_b: f64,
    /// Exact TV distance between the ideal output distributions, when the
    /// width allowed computing it.
    pub ideal_tv: Option<f64>,
    /// True when the pair normalized to the identical Foata word — a proof
    /// the circuits are commutation-equivalent (one unitary, exactly).
    pub commutation_equivalent: bool,
    /// The noise charge of reordering both sides into the shared normal
    /// form (route 3's bound), when the pair is commutation-equivalent.
    pub reorder_noise: Option<f64>,
    /// Certified upper bound on the TV distance between the noisy output
    /// distributions.
    pub bound: f64,
    /// Certified lower bound on the same distance (0 unless the ideal pass
    /// ran and the ideal gap exceeds the total noise mass).
    pub lower_bound: f64,
    /// The decision at `epsilon`.
    pub verdict: EquivVerdict,
    /// QA5xx findings.
    pub findings: Report,
}

impl EquivReport {
    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "equivalence of {} qubit(s) on {}: {} vs {} gate(s), epsilon {}\n",
            self.num_qubits, self.machine, self.gates_a, self.gates_b, self.epsilon
        ));
        out.push_str(&format!(
            "  verdict                {}\n",
            self.verdict.as_str()
        ));
        out.push_str(&format!("  distance upper bound   {:.6}\n", self.bound));
        out.push_str(&format!(
            "  distance lower bound   {:.6}\n",
            self.lower_bound
        ));
        out.push_str(&format!(
            "  discharged             {} noisy pair(s), {} unitary pair(s)\n",
            self.discharged_noisy, self.discharged_unitary
        ));
        out.push_str(&format!("  unitary distance       {:.6}\n", self.d_unitary));
        out.push_str(&format!(
            "  residual noise         {:.6} (A) + {:.6} (B)\n",
            self.noise_residual_a, self.noise_residual_b
        ));
        out.push_str(&format!(
            "  full-circuit noise     {:.6} (A) + {:.6} (B)\n",
            self.noise_full_a, self.noise_full_b
        ));
        match self.ideal_tv {
            Some(tv) => out.push_str(&format!("  ideal TV distance      {tv:.6}\n")),
            None => out.push_str("  ideal TV distance      (skipped: width over limit)\n"),
        }
        if let Some(charge) = self.reorder_noise {
            out.push_str(&format!(
                "  commutation reorder    certified, noise charge {charge:.6}\n"
            ));
        }
        if !self.findings.is_clean() {
            out.push_str(&self.findings.to_text());
        }
        out
    }

    /// The report as a JSON object, with the same `schema_version`
    /// convention as the lint reports; an absent `ideal_tv` or
    /// `reorder_noise` is `null`.
    pub fn to_json_value(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::obj(vec![
            ("schema_version", Json::Num(REPORT_SCHEMA_VERSION.into())),
            ("machine", Json::Str(self.machine.clone())),
            ("num_qubits", Json::Num(self.num_qubits as f64)),
            ("epsilon", Json::Num(self.epsilon)),
            ("gates_a", Json::Num(self.gates_a as f64)),
            ("gates_b", Json::Num(self.gates_b as f64)),
            ("discharged_noisy", Json::Num(self.discharged_noisy as f64)),
            (
                "discharged_unitary",
                Json::Num(self.discharged_unitary as f64),
            ),
            ("d_unitary", Json::Num(self.d_unitary)),
            ("noise_residual_a", Json::Num(self.noise_residual_a)),
            ("noise_residual_b", Json::Num(self.noise_residual_b)),
            ("noise_full_a", Json::Num(self.noise_full_a)),
            ("noise_full_b", Json::Num(self.noise_full_b)),
            ("ideal_tv", opt(self.ideal_tv)),
            (
                "commutation_equivalent",
                Json::Bool(self.commutation_equivalent),
            ),
            ("reorder_noise", opt(self.reorder_noise)),
            ("bound", Json::Num(self.bound)),
            ("lower_bound", Json::Num(self.lower_bound)),
            ("verdict", Json::Str(self.verdict.as_str().to_string())),
            ("findings", self.findings.to_json_value()),
        ])
    }

    /// [`EquivReport::to_json_value`] as one line of JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Canonical fingerprint for store keys and certified result payloads.
    pub fn fingerprint(&self) -> String {
        format!(
            "equiv/v1;bound={:.17e};lower={:.17e};eps={:.17e};verdict={}",
            self.bound,
            self.lower_bound,
            self.epsilon,
            self.verdict.as_str()
        )
    }

    /// True when the pair is certified ε-equivalent.
    pub fn certified(&self) -> bool {
        self.verdict == EquivVerdict::Equivalent
    }
}

/// True when two instructions touch no common qubit.
fn disjoint(a: &Instruction, b: &Instruction) -> bool {
    !a.qubits.iter().any(|q| b.qubits.contains(q))
}

/// One side of the discharge machinery: instructions plus liveness flags.
struct Side {
    insts: Vec<Instruction>,
    alive: Vec<bool>,
}

impl Side {
    fn new(circuit: &Circuit) -> Side {
        Side {
            insts: circuit.instructions().to_vec(),
            alive: vec![true; circuit.len()],
        }
    }

    /// Can instruction `i` bubble to the *front* past every live
    /// predecessor, under `ok` as the commutation relation?
    fn front_free(&self, i: usize, ok: &dyn Fn(&Instruction, &Instruction) -> bool) -> bool {
        (0..i).all(|j| !self.alive[j] || ok(&self.insts[j], &self.insts[i]))
    }

    /// Mirror: can `i` bubble to the *back* past every live successor?
    fn back_free(&self, i: usize, ok: &dyn Fn(&Instruction, &Instruction) -> bool) -> bool {
        (i + 1..self.insts.len()).all(|j| !self.alive[j] || ok(&self.insts[i], &self.insts[j]))
    }

    fn live(&self) -> Vec<Instruction> {
        self.insts
            .iter()
            .zip(&self.alive)
            .filter(|(_, &al)| al)
            .map(|(inst, _)| inst.clone())
            .collect()
    }
}

/// Greedy discharge: repeatedly find an identical instruction pair that can
/// bubble to the same boundary on both sides (front when `front` is true,
/// back otherwise) under the relation `ok`, and kill both. Kills happen in
/// the same order on both sides, which is what makes the peeled-off
/// prefix/suffix channels literally identical. Returns the number of pairs
/// discharged.
fn discharge(
    a: &mut Side,
    b: &mut Side,
    front: bool,
    ok: &dyn Fn(&Instruction, &Instruction) -> bool,
) -> usize {
    let mut pairs = 0;
    loop {
        let mut hit = None;
        'outer: for i in 0..a.insts.len() {
            let free_a = a.alive[i]
                && if front {
                    a.front_free(i, ok)
                } else {
                    a.back_free(i, ok)
                };
            if !free_a {
                continue;
            }
            for j in 0..b.insts.len() {
                let free_b = b.alive[j]
                    && b.insts[j] == a.insts[i]
                    && if front {
                        b.front_free(j, ok)
                    } else {
                        b.back_free(j, ok)
                    };
                if free_b {
                    hit = Some((i, j));
                    break 'outer;
                }
            }
        }
        match hit {
            Some((i, j)) => {
                a.alive[i] = false;
                b.alive[j] = false;
                pairs += 1;
            }
            None => return pairs,
        }
    }
}

/// Phase-aligned Frobenius distance `min_phi ||A - e^{i phi} B||_F`. For
/// unitaries this upper-bounds the operator-norm distance and hence half the
/// diamond distance of the induced channels.
fn frob_phase_aligned(a: &Matrix, b: &Matrix) -> f64 {
    let na = a.fro_norm();
    let nb = b.fro_norm();
    let ip = a.hs_inner(b).abs();
    (na * na + nb * nb - 2.0 * ip).max(0.0).sqrt()
}

/// The 4x4 SWAP matrix, used to re-express a gate on `[b, a]` over `[a, b]`.
fn swap_matrix() -> Matrix {
    use qaprox_linalg::c64;
    let o = c64(1.0, 0.0);
    let z = c64(0.0, 0.0);
    Matrix::from_rows(&[&[o, z, z, z], &[z, z, o, z], &[z, o, z, z], &[z, z, z, o]])
}

/// Cost of aligning instruction `x` against `y` in the DP, or `None` when
/// they act on different supports and must not be paired.
fn pair_cost(x: &Instruction, y: &Instruction) -> Option<f64> {
    if x.qubits == y.qubits {
        return Some(frob_phase_aligned(&x.gate.matrix(), &y.gate.matrix()));
    }
    if x.qubits.len() == 2
        && y.qubits.len() == 2
        && x.qubits[0] == y.qubits[1]
        && x.qubits[1] == y.qubits[0]
    {
        let s = swap_matrix();
        let yb = s.matmul(&y.gate.matrix()).matmul(&s);
        return Some(frob_phase_aligned(&x.gate.matrix(), &yb));
    }
    None
}

/// Cost of leaving `x` unmatched: its distance to the identity.
fn gap_cost(x: &Instruction) -> f64 {
    let m = x.gate.matrix();
    frob_phase_aligned(&m, &Matrix::identity(m.rows()))
}

/// Edit-distance alignment of the two residual gate sequences: monotone
/// pairings telescope into a sound operator-norm bound on the unitary gap.
fn align_unitary(a: &[Instruction], b: &[Instruction]) -> f64 {
    let m = a.len();
    let n = b.len();
    let mut d = vec![vec![f64::INFINITY; n + 1]; m + 1];
    d[0][0] = 0.0;
    for i in 1..=m {
        d[i][0] = d[i - 1][0] + gap_cost(&a[i - 1]);
    }
    for j in 1..=n {
        d[0][j] = d[0][j - 1] + gap_cost(&b[j - 1]);
    }
    for i in 1..=m {
        for j in 1..=n {
            let mut best = d[i - 1][j] + gap_cost(&a[i - 1]);
            let skip_b = d[i][j - 1] + gap_cost(&b[j - 1]);
            if skip_b < best {
                best = skip_b;
            }
            if let Some(c) = pair_cost(&a[i - 1], &b[j - 1]) {
                let paired = d[i - 1][j - 1] + c;
                if paired < best {
                    best = paired;
                }
            }
            d[i][j] = best;
        }
    }
    d[m][n]
}

/// Half-diamond distance of one gate's noise block to the identity channel:
/// its [`GateNoise`](qaprox_device::GateNoise) depolarizing strength plus
/// `(1 - s) + (1 - s^2)/2` per relaxing operand (see the module docs).
fn gate_noise(cal: &Calibration, inst: &Instruction, include_relaxation: bool) -> f64 {
    let noise = cal.gate_noise(&inst.qubits);
    let relax = |q: usize| -> f64 {
        if !include_relaxation {
            return 0.0;
        }
        let qc = &cal.qubits[q];
        let s = relaxation_survival(noise.duration_ns, qc.t1_us, qc.t2_us);
        (1.0 - s) + (1.0 - s * s) / 2.0
    };
    inst.qubits
        .iter()
        .fold(noise.lambda, |acc, &q| acc + relax(q))
}

/// Exact TV distance between the ideal output distributions.
fn ideal_tv(a: &Circuit, b: &Circuit) -> f64 {
    let pa = a.statevector();
    let pb = b.statevector();
    0.5 * pa
        .iter()
        .zip(&pb)
        .map(|(x, y)| (x.norm_sqr() - y.norm_sqr()).abs())
        .sum::<f64>()
}

/// Runs the equivalence checker with an explicit lint config for the QA5xx
/// findings (so `--deny QA502` works end to end).
pub fn check_equivalence_with_config(
    a: &Circuit,
    b: &Circuit,
    cal: &Calibration,
    opts: &EquivOptions,
    cfg: &LintConfig,
) -> EquivReport {
    assert_eq!(
        a.num_qubits(),
        b.num_qubits(),
        "equivalence checking requires equal widths ({} vs {})",
        a.num_qubits(),
        b.num_qubits()
    );
    assert!(
        a.num_qubits() <= cal.qubits.len(),
        "calibration covers {} qubit(s) but the circuits need {} (induce it first)",
        cal.qubits.len(),
        a.num_qubits()
    );
    let n = a.num_qubits();

    let noise_full_a: f64 = a
        .iter()
        .map(|i| gate_noise(cal, i, opts.include_relaxation))
        .sum();
    let noise_full_b: f64 = b
        .iter()
        .map(|i| gate_noise(cal, i, opts.include_relaxation))
        .sum();

    // Tier 1: identical instructions that reach the boundary across
    // disjoint-support neighbours cancel with their noise.
    let mut sa = Side::new(a);
    let mut sb = Side::new(b);
    let disjoint_ok: &dyn Fn(&Instruction, &Instruction) -> bool = &disjoint;
    let mut discharged_noisy = discharge(&mut sa, &mut sb, true, disjoint_ok);
    discharged_noisy += discharge(&mut sa, &mut sb, false, disjoint_ok);

    let noise_residual_a: f64 = sa
        .live()
        .iter()
        .map(|i| gate_noise(cal, i, opts.include_relaxation))
        .sum();
    let noise_residual_b: f64 = sb
        .live()
        .iter()
        .map(|i| gate_noise(cal, i, opts.include_relaxation))
        .sum();

    // Tier 2: commuting-but-overlapping discharge is only exact for the
    // unitaries, so it shrinks d_unitary but not the residual noise above.
    let commute_ok: &dyn Fn(&Instruction, &Instruction) -> bool = &|x, y| commutes(x, y);
    let mut discharged_unitary = discharge(&mut sa, &mut sb, true, commute_ok);
    discharged_unitary += discharge(&mut sa, &mut sb, false, commute_ok);

    let d_unitary = align_unitary(&sa.live(), &sb.live());

    let tv = if n <= opts.ideal_tv_max_qubits && opts.ideal_tv_max_qubits > 0 {
        Some(ideal_tv(a, b))
    } else {
        None
    };

    // Two independent sound routes to the upper bound; take the tighter.
    let via_residual = d_unitary + noise_residual_a + noise_residual_b;
    let via_ideal = tv
        .map(|t| t + noise_full_a + noise_full_b)
        .unwrap_or(f64::INFINITY);
    let mut bound = via_residual.min(via_ideal).min(1.0);

    // Route 3: when both circuits normalize to the identical Foata word they
    // are the *same* trace-monoid element — one unitary, exactly — and the
    // only cost left is the noise charge of sliding each side into the
    // shared normal form (zero per disjoint swap, a small Choi-trace-norm
    // residual per overlapping-commuting swap). This is what discharges the
    // noise that tier 2 had to keep on the books. Only attempted when the
    // cheaper routes have not already certified the pair.
    let mut commutation_equivalent = false;
    let mut reorder_noise = None;
    if bound > opts.epsilon {
        if let Some(charge) = crate::commute::equivalence_charge(a, b, cal, opts.include_relaxation)
        {
            commutation_equivalent = true;
            reorder_noise = Some(charge);
            bound = bound.min(charge).min(1.0);
        }
    }
    let lower_bound = tv
        .map(|t| (t - noise_full_a - noise_full_b).max(0.0))
        .unwrap_or(0.0);

    let verdict = if bound <= opts.epsilon {
        EquivVerdict::Equivalent
    } else if lower_bound > opts.epsilon {
        EquivVerdict::Violated
    } else {
        EquivVerdict::Undecidable
    };

    let mut findings = Vec::new();
    match verdict {
        EquivVerdict::Violated => emit(
            &mut findings,
            cfg,
            LintCode::EquivalenceViolated,
            Location::Global,
            format!(
                "distance lower bound {lower_bound:.6} exceeds epsilon {}: the pair is provably not equivalent on {}",
                opts.epsilon, cal.machine
            ),
        ),
        EquivVerdict::Undecidable => {
            emit(
                &mut findings,
                cfg,
                LintCode::EquivalenceUndecidable,
                Location::Global,
                format!(
                    "distance bound {bound:.6} exceeds epsilon {} but the lower bound {lower_bound:.6} does not: equivalence is undecidable statically",
                    opts.epsilon
                ),
            );
            // distinguish undecidable-by-width from undecidable-by-bound:
            // past the ideal-pass limit the checker has *no* lower bound at
            // all, so QA501 could never fire regardless of the pair
            if tv.is_none() {
                emit(
                    &mut findings,
                    cfg,
                    LintCode::EquivalenceUndecidable,
                    Location::Global,
                    format!(
                        "no lower bound available above {} qubit(s): the ideal pass was skipped at width {n}, so the pair is undecidable by width, not by bound",
                        opts.ideal_tv_max_qubits
                    ),
                );
            }
        }
        EquivVerdict::Equivalent => {}
    }
    // The paper's crossover, certified statically: the approximation gap is
    // real but smaller than what the device's own noise contributes.
    let approx_term = d_unitary.min(tv.unwrap_or(f64::INFINITY));
    let noise_floor = noise_full_a + noise_full_b;
    if approx_term > 1e-12 && approx_term <= noise_floor {
        emit(
            &mut findings,
            cfg,
            LintCode::NoiseDominatesApproximation,
            Location::Global,
            format!(
                "device noise mass {noise_floor:.6} dominates the approximation gap {approx_term:.6}: the cheaper circuit costs nothing extra on {}",
                cal.machine
            ),
        );
    }

    EquivReport {
        machine: cal.machine.clone(),
        num_qubits: n,
        epsilon: opts.epsilon,
        gates_a: a.len(),
        gates_b: b.len(),
        discharged_noisy,
        discharged_unitary,
        d_unitary,
        noise_residual_a,
        noise_residual_b,
        noise_full_a,
        noise_full_b,
        ideal_tv: tv,
        commutation_equivalent,
        reorder_noise,
        bound,
        lower_bound,
        verdict,
        findings: Report::from_diagnostics(findings),
    }
}

/// Runs the equivalence checker with default lint levels. This is the entry
/// point `qaprox equiv`, synthesis admission, and the serve certified fast
/// path use.
pub fn check_equivalence(
    a: &Circuit,
    b: &Circuit,
    cal: &Calibration,
    opts: &EquivOptions,
) -> EquivReport {
    check_equivalence_with_config(a, b, cal, opts, &LintConfig::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_device::devices::ourense;

    fn cal3() -> Calibration {
        ourense().induced(&[0, 1, 2])
    }

    fn opts(eps: f64) -> EquivOptions {
        EquivOptions {
            epsilon: eps,
            ..EquivOptions::default()
        }
    }

    #[test]
    fn identical_circuits_have_zero_bound() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(0.3, 1).cx(1, 2);
        let r = check_equivalence(&c, &c, &cal3(), &opts(0.01));
        assert_eq!(r.bound, 0.0, "{}", r.to_text());
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
        assert!(r.certified());
        assert_eq!(r.discharged_noisy, c.len());
        assert!(r.findings.is_clean());
    }

    #[test]
    fn disjoint_reorder_discharges_with_noise() {
        // same gates, adjacent disjoint-support pair swapped: the noisy
        // channels are literally equal, so tier 1 must discharge everything
        let mut a = Circuit::new(3);
        a.rz(0.5, 0).rx(0.25, 2).cx(0, 1);
        let mut b = Circuit::new(3);
        b.rx(0.25, 2).rz(0.5, 0).cx(0, 1);
        let r = check_equivalence(&a, &b, &cal3(), &opts(1e-9));
        assert_eq!(r.bound, 0.0, "{}", r.to_text());
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
        assert_eq!(r.discharged_noisy, 3);
    }

    #[test]
    fn commuting_overlap_reorder_keeps_noise_but_drops_unitary_gap() {
        // rz on the control commutes with cx as a unitary but its noise
        // does not move through: tier 2 discharges the pair from d_unitary
        // while both rz noise applications stay on the books.
        let mut a = Circuit::new(2);
        a.rz(0.7, 0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        b.rz(0.7, 0);
        let r = check_equivalence(&a, &b, &cal3(), &opts(1.0));
        assert_eq!(r.d_unitary, 0.0, "{}", r.to_text());
        assert_eq!(r.discharged_noisy, 0, "rz overlaps the cx on both sides");
        assert_eq!(r.discharged_unitary, 2);
        // the unitary gap is gone but every gate's noise stays charged
        assert!(r.noise_residual_a > 0.0 && r.noise_residual_b > 0.0);
        assert!((r.noise_residual_a - r.noise_full_a).abs() < 1e-15);
    }

    #[test]
    fn distant_pair_is_violated_when_noise_is_small() {
        let mut cal = cal3();
        for q in &mut cal.qubits {
            q.sx_error = 0.0;
            q.t1_us = 1e12;
            q.t2_us = 1e12;
        }
        for e in cal.edges.values_mut() {
            e.cx_error = 0.0;
        }
        let a = Circuit::new(1);
        let mut b = Circuit::new(1);
        b.x(0);
        let r = check_equivalence(&a, &b, &cal, &opts(0.5));
        assert_eq!(r.verdict, EquivVerdict::Violated, "{}", r.to_text());
        assert!(r.lower_bound > 0.9);
        assert_eq!(r.findings.diagnostics[0].code, "QA501");
    }

    #[test]
    fn small_perturbation_is_certified_and_noise_dominated() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).ry(0.4, 1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).ry(0.4 + 1e-4, 1);
        let cal = cal3().with_uniform_cx_error(0.05);
        let r = check_equivalence(&a, &b, &cal, &opts(0.1));
        assert_eq!(r.verdict, EquivVerdict::Equivalent, "{}", r.to_text());
        // tiny approximation gap under real noise -> QA503 crossover note
        let codes: Vec<&str> = r.findings.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"QA503"), "{codes:?}");
    }

    #[test]
    fn undecidable_band_emits_qa502() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).rz(0.5, 0).cx(0, 1).cx(0, 1);
        let cal = cal3().with_uniform_cx_error(0.08);
        let r = check_equivalence(&a, &b, &cal, &opts(1e-6));
        assert_eq!(r.verdict, EquivVerdict::Undecidable, "{}", r.to_text());
        assert_eq!(r.findings.diagnostics[0].code, "QA502");
        assert!(!r.findings.has_errors(), "QA502 defaults to warn");
    }

    #[test]
    fn swapped_operand_cx_pairs_align() {
        // cx(0,1) vs cx(1,0): different unitaries on the same support; the
        // DP must pair them (via SWAP conjugation) rather than treat both
        // as gaps, and the distance must match the direct matrix distance
        let mut a = Circuit::new(2);
        a.cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(1, 0);
        let direct = {
            let s = swap_matrix();
            let m = s.matmul(&qaprox_circuit::Gate::CX.matrix()).matmul(&s);
            frob_phase_aligned(&qaprox_circuit::Gate::CX.matrix(), &m)
        };
        let r = check_equivalence(&a, &b, &cal3(), &opts(0.01));
        assert!((r.d_unitary - direct).abs() < 1e-12, "{}", r.d_unitary);
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.h(0);
        let r = check_equivalence(&a, &b, &cal3(), &opts(0.05));
        let text = r.to_text();
        assert!(text.contains("distance upper bound"));
        assert!(text.contains("verdict"));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("\"bound\":"));
        assert!(json.contains("\"verdict\":"));
        assert!(r.fingerprint().starts_with("equiv/v1;"));
    }

    #[test]
    fn commutation_equivalent_reorder_certifies_at_the_reorder_charge() {
        // rz on the control past the cx: tier 2 drops the unitary gap but
        // keeps all noise charged; route 3 proves the pair is one
        // trace-monoid element and replaces the bound with the (much
        // smaller) reorder charge of the single overlapping swap.
        let mut a = Circuit::new(2);
        a.rz(0.7, 0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        b.rz(0.7, 0);
        let r = check_equivalence(&a, &b, &cal3(), &opts(1e-9));
        assert!(r.commutation_equivalent, "{}", r.to_text());
        let charge = r.reorder_noise.expect("route 3 ran");
        let via_residual = r.d_unitary + r.noise_residual_a + r.noise_residual_b;
        let via_ideal = r.ideal_tv.unwrap() + r.noise_full_a + r.noise_full_b;
        assert!(
            r.bound < via_residual.min(via_ideal),
            "route 3 must be strictly tighter: {} vs {}",
            r.bound,
            via_residual.min(via_ideal)
        );
        assert!((r.bound - charge.min(1.0)).abs() < 1e-15);
        assert!(r.to_text().contains("commutation reorder"));
        assert!(r.to_json().contains("\"commutation_equivalent\":true"));
    }

    #[test]
    fn route_3_does_not_fire_on_dependent_reorders() {
        // rz on the *target* does not commute with the cx: different words
        let mut a = Circuit::new(2);
        a.rz(0.7, 1).cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        b.rz(0.7, 1);
        let r = check_equivalence(&a, &b, &cal3(), &opts(1e-9));
        assert!(!r.commutation_equivalent);
        assert_eq!(r.reorder_noise, None);
        assert!(r.to_json().contains("\"reorder_noise\":null"));
    }

    #[test]
    fn wide_undecidable_pair_notes_the_missing_lower_bound() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).rz(0.5, 0).cx(0, 1).cx(0, 1);
        let o = EquivOptions {
            epsilon: 1e-6,
            ideal_tv_max_qubits: 1, // force the width skip
            ..EquivOptions::default()
        };
        let r = check_equivalence(&a, &b, &cal3().with_uniform_cx_error(0.08), &o);
        assert_eq!(r.verdict, EquivVerdict::Undecidable, "{}", r.to_text());
        let msgs: Vec<&str> = r
            .findings
            .diagnostics
            .iter()
            .filter(|d| d.code == "QA502")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(
            msgs[1].contains("no lower bound available above 1 qubit(s)"),
            "{msgs:?}"
        );
    }

    #[test]
    fn wide_circuits_skip_the_ideal_pass() {
        let mut a = Circuit::new(2);
        a.h(0);
        let o = EquivOptions {
            epsilon: 0.5,
            ideal_tv_max_qubits: 1,
            ..EquivOptions::default()
        };
        let r = check_equivalence(&a, &a, &cal3(), &o);
        assert!(r.ideal_tv.is_none());
        assert_eq!(r.bound, 0.0);
    }
}
