//! Noise-aware commutation analysis (the `QA6xx` family plus the shared
//! trace-monoid machinery behind equivalence tightening and trajectory
//! fusion).
//!
//! Three consumers share this one static pass:
//!
//! * **Canonical normal form.** Instructions form a trace monoid under the
//!   property-tested pairwise oracle [`qaprox_circuit::commutes`]: two
//!   programs are *commutation-equivalent* when one rewrites into the other
//!   by adjacent swaps of commuting instructions. The Foata normal form —
//!   ASAP layers modulo commutation, each layer sorted by a canonical
//!   letter — is invariant under such swaps, so commutation-equivalent
//!   programs normalize to the identical [`foata_word`]. The equivalence
//!   checker uses word equality as a *proof* that two circuits share one
//!   unitary, and [`charge_to_normal_form`] prices the reordering's noise.
//! * **Noise charging.** Swapping two adjacent *noisy* blocks whose
//!   unitaries commute is not free: the noise channels riding on the gates
//!   need not commute through an overlapping partner. [`swap_cost`] bounds
//!   the TV-distance cost of one such swap by half the trace norm of the
//!   unnormalized-Choi difference of the two orderings on the union support
//!   (`|Phi|_diamond <= |C(Phi)|_1`, and TV between outputs is at most half
//!   the diamond distance). Disjoint supports cost exactly zero — channels
//!   on disjoint subsystems commute as maps — and exactly-commuting
//!   overlapping pairs (two diagonals on one wire, say) cost zero up to
//!   rounding. The per-gate noise is the simulator's, built from the same
//!   description and constructors: [`qaprox_device::GateNoise`] and
//!   [`qaprox_device::channels`].
//! * **Fusion legality.** [`fusion_plan`] tells the trajectory compiler
//!   which gates may fuse across *nested* support: a 1q gate slides into
//!   the run that last touched its qubit because everything in between acts
//!   on disjoint qubits (a channel-exact move — no bound needed), and a 2q
//!   gate starting a run can fold trailing 1q runs on its operands in the
//!   same way. Only disjoint-support slides are used: overlapping
//!   commutation moves unitaries but not their noise, so it never enters
//!   the plan.
//!
//! The `QA6xx` lints surface what the analysis finds: QA601/QA602 are
//! cancellations and rotation merges that only become visible *after*
//! applying earlier rewrites (a fixpoint the one-round QA302/QA303 pass
//! cannot see), and QA603 reports when the ASAP schedule modulo commutation
//! is strictly shorter than the wire schedule.

use crate::circuit_lints::emit;
use crate::config::{LintCode, LintConfig};
use crate::dag::CircuitDag;
use crate::dataflow::{find_cancellations, CancellationKind};
use crate::diagnostics::{Location, Report};
use qaprox_circuit::{commutes, Circuit, Instruction, RawMeasure};
use qaprox_device::channels::{depolarizing_1q, depolarizing_2q, thermal_relaxation};
use qaprox_device::Calibration;
use qaprox_linalg::eigh::eigh;
use qaprox_linalg::kernels::{apply_1q_mat_left, apply_2q_mat_left, mat2_to_array, mat4_to_array};
use qaprox_linalg::matrix::Matrix;
use qaprox_linalg::Complex64;
use std::collections::BTreeMap;

/// Structural ceiling for the QA6xx lint passes: programs larger than this
/// skip the (quadratic) fixpoint and scheduling analyses so `lint` stays
/// fast on huge inputs. Documented in `docs/LINTS.md`.
pub const QA6XX_MAX_ITEMS: usize = 4096;

// ---------------------------------------------------------------------------
// Foata normal form
// ---------------------------------------------------------------------------

/// The canonical letter of one instruction: the gate (with exact parameter
/// bits — Debug's shortest-roundtrip float formatting is injective) plus the
/// operand list. Two instructions commute or not as a function of their
/// letters alone, which is what makes the trace-monoid construction valid.
pub fn letter(inst: &Instruction) -> String {
    format!("{:?}@{:?}", inst.gate, inst.qubits)
}

/// ASAP layer assignment modulo commutation: `layer[i]` is one more than
/// the deepest earlier instruction that does not commute with `i` (0 when
/// every earlier instruction commutes). Only same-support pairs can fail to
/// commute, so the scan walks per-qubit chains instead of all pairs.
pub fn foata_layers(insts: &[Instruction]) -> Vec<usize> {
    let mut layers = vec![0usize; insts.len()];
    let mut chains: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, inst) in insts.iter().enumerate() {
        let mut l = 0usize;
        for &q in &inst.qubits {
            if let Some(chain) = chains.get(&q) {
                for &j in chain.iter().rev() {
                    if layers[j] >= l && !commutes(&insts[j], inst) {
                        l = layers[j] + 1;
                    }
                }
            }
        }
        for &q in &inst.qubits {
            chains.entry(q).or_default().push(i);
        }
        layers[i] = l;
    }
    layers
}

/// The Foata normal form: instruction indices grouped by layer, each block
/// sorted by canonical [`letter`]. For commutation-equivalent programs the
/// flattened letter sequence is identical (the trace-monoid normal-form
/// theorem; property-tested over seeded commuting shuffles in
/// `tests/commute_soundness.rs`).
pub fn foata_blocks(insts: &[Instruction]) -> Vec<Vec<usize>> {
    let layers = foata_layers(insts);
    let depth = layers.iter().map(|&l| l + 1).max().unwrap_or(0);
    let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); depth];
    for (i, &l) in layers.iter().enumerate() {
        blocks[l].push(i);
    }
    for block in &mut blocks {
        block.sort_by(|&x, &y| letter(&insts[x]).cmp(&letter(&insts[y])));
    }
    blocks
}

/// The canonical word: letters in Foata order, blocks separated by `|`.
/// Equal words certify that the two programs are the same trace-monoid
/// element, hence share one unitary exactly.
pub fn foata_word(insts: &[Instruction]) -> String {
    foata_blocks(insts)
        .iter()
        .map(|block| {
            block
                .iter()
                .map(|&i| letter(&insts[i]))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Rebuilds the circuit in canonical Foata order: a commutation-equivalent
/// reordering with genuine *overlapping*-commuting swaps on workloads like
/// TFIM (an RX on a CX target trades places with the CX). This is what the
/// CI commute-smoke pair and the tier-2 acceptance test feed back to
/// [`crate::check_equivalence`].
pub fn canonical_reorder(circuit: &Circuit) -> Circuit {
    let insts = circuit.instructions();
    let mut out = Circuit::new(circuit.num_qubits());
    for block in foata_blocks(insts) {
        for i in block {
            out.push(insts[i].gate.clone(), &insts[i].qubits);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// noise-charged reordering
// ---------------------------------------------------------------------------

/// True when two instructions touch no common qubit.
fn disjoint(a: &Instruction, b: &Instruction) -> bool {
    !a.qubits.iter().any(|q| b.qubits.contains(q))
}

/// Entrywise complex conjugate (not the adjoint).
fn conj_matrix(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            out[(r, c)] = m[(r, c)].conj();
        }
    }
    out
}

/// Embeds a 1q operator on local qubit `q` of an `m`-qubit register, using
/// the same kernel convention as `Circuit::unitary` (works for non-unitary
/// Kraus operators too — the kernel is plain linear algebra).
fn embed_1q(op: &Matrix, q: usize, m: usize) -> Matrix {
    let mut out = Matrix::identity(1 << m);
    apply_1q_mat_left(&mut out, q, &mat2_to_array(op));
    out
}

/// Embeds a 2q operator on local qubits `(a, b)` (`a` the high bit, the IR
/// convention) of an `m`-qubit register.
fn embed_2q(op: &Matrix, a: usize, b: usize, m: usize) -> Matrix {
    let mut out = Matrix::identity(1 << m);
    apply_2q_mat_left(&mut out, a, b, &mat4_to_array(op));
    out
}

/// Superoperator (column-major vec convention) of a Kraus set already
/// embedded to the register dimension: `S = sum conj(K) (x) K`.
fn superop_from_kraus(kraus: &[Matrix]) -> Matrix {
    let d = kraus[0].rows();
    let mut s = Matrix::zeros(d * d, d * d);
    for k in kraus {
        s.axpy(Complex64::ONE, &conj_matrix(k).kron(k));
    }
    s
}

/// Superoperator of one *noisy block* — the instruction's unitary followed
/// by the calibration's [`GateNoise`](qaprox_device::GateNoise) channels
/// (depolarizing on the gate's support, then thermal relaxation of each
/// operand) — embedded on the union support `sup` (sorted qubit list).
/// Non-positive durations or coherence times mean "no data": that
/// relaxation is the identity, as in [`crate::budget`]'s survival.
fn block_superop(
    inst: &Instruction,
    sup: &[usize],
    cal: &Calibration,
    include_relaxation: bool,
) -> Matrix {
    let m = sup.len();
    let loc = |q: usize| sup.iter().position(|&x| x == q).expect("qubit in support");
    let embed = |op: &Matrix, qubits: &[usize]| match *qubits {
        [q] => embed_1q(op, loc(q), m),
        [a, b] => embed_2q(op, loc(a), loc(b), m),
        _ => unreachable!("IR only holds 1- and 2-qubit gates"),
    };
    let apply_channel = |kraus: Vec<Matrix>, qubits: &[usize], s: &Matrix| {
        let embedded: Vec<Matrix> = kraus.iter().map(|k| embed(k, qubits)).collect();
        superop_from_kraus(&embedded).matmul(s)
    };
    let u = embed(&inst.gate.matrix(), &inst.qubits);
    let mut s = conj_matrix(&u).kron(&u);
    let noise = cal.gate_noise(&inst.qubits);
    if noise.lambda > 0.0 {
        let kraus = match inst.qubits.len() {
            1 => depolarizing_1q(noise.lambda),
            _ => depolarizing_2q(noise.lambda),
        };
        s = apply_channel(kraus, &inst.qubits, &s);
    }
    if include_relaxation {
        for &q in &inst.qubits {
            let qc = &cal.qubits[q];
            if noise.duration_ns <= 0.0 || qc.t1_us <= 0.0 || qc.t2_us <= 0.0 {
                continue;
            }
            let kraus = thermal_relaxation(noise.duration_ns, qc.t1_us, qc.t2_us);
            s = apply_channel(kraus, &[q], &s);
        }
    }
    s
}

/// Reshuffles a superoperator into its unnormalized Choi matrix:
/// `J[(i d + r), (j d + c)] = S[(c d + r), (j d + i)]` under the
/// column-major vec convention. Linear, so it applies to differences of
/// channels too.
fn choi_of_superop(s: &Matrix, d: usize) -> Matrix {
    let mut j = Matrix::zeros(d * d, d * d);
    for i in 0..d {
        for r in 0..d {
            for jj in 0..d {
                for c in 0..d {
                    j[(i * d + r, jj * d + c)] = s[(c * d + r, jj * d + i)];
                }
            }
        }
    }
    j
}

/// Trace norm of a (numerically near-)Hermitian matrix: sum of the absolute
/// eigenvalues after symmetrizing away rounding.
fn trace_norm_hermitian(h: &Matrix) -> f64 {
    let mut sym = h.clone();
    sym.axpy(Complex64::ONE, &h.adjoint());
    let sym = sym.scale_re(0.5);
    eigh(&sym).values.iter().map(|v| v.abs()).sum()
}

/// Sound TV-distance charge for swapping two adjacent noisy blocks whose
/// unitaries provably commute: half the trace norm of the
/// unnormalized-Choi difference of the two orderings on the union support
/// (at most 3 qubits for an overlapping pair). Soundness chain:
/// `TV <= half-diamond <= half |C_un(diff)|_1`, and pre/post-composition
/// with the rest of the circuit only contracts the distance. Exactly zero
/// for disjoint supports.
pub fn swap_cost(
    x: &Instruction,
    y: &Instruction,
    cal: &Calibration,
    include_relaxation: bool,
) -> f64 {
    if disjoint(x, y) {
        return 0.0;
    }
    let mut sup: Vec<usize> = x.qubits.iter().chain(y.qubits.iter()).copied().collect();
    sup.sort_unstable();
    sup.dedup();
    let d = 1usize << sup.len();
    let sx = block_superop(x, &sup, cal, include_relaxation);
    let sy = block_superop(y, &sup, cal, include_relaxation);
    let mut diff = sy.matmul(&sx);
    diff.axpy(-Complex64::ONE, &sx.matmul(&sy));
    0.5 * trace_norm_hermitian(&choi_of_superop(&diff, d))
}

/// Total noise charge of reordering `insts` into its Foata normal form via
/// an explicit sequence of adjacent transpositions (selection-sort into
/// canonical order). Every transposition the path performs is between
/// provably commuting instructions — the next normal-form letter sits in
/// the first Foata block of the remaining suffix, so nothing it bubbles
/// past depends on it — and each is charged [`swap_cost`] (memoized by
/// letter pair; disjoint swaps are free).
pub fn charge_to_normal_form(
    insts: &[Instruction],
    cal: &Calibration,
    include_relaxation: bool,
) -> f64 {
    let target: Vec<usize> = foata_blocks(insts).into_iter().flatten().collect();
    let mut current: Vec<usize> = (0..insts.len()).collect();
    let mut memo: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut total = 0.0;
    for (pos, &want) in target.iter().enumerate() {
        let at = pos
            + current[pos..]
                .iter()
                .position(|&x| x == want)
                .expect("target is a permutation");
        for k in ((pos + 1)..=at).rev() {
            let (xi, yi) = (current[k - 1], current[k]);
            debug_assert!(
                commutes(&insts[xi], &insts[yi]),
                "normalization path swapped a dependent pair"
            );
            let (la, lb) = (letter(&insts[xi]), letter(&insts[yi]));
            let key = if la <= lb { (la, lb) } else { (lb, la) };
            let cost = *memo
                .entry(key)
                .or_insert_with(|| swap_cost(&insts[xi], &insts[yi], cal, include_relaxation));
            total += cost;
            current.swap(k - 1, k);
        }
    }
    total
}

/// When `a` and `b` normalize to the identical Foata word — a proof that
/// they are the same trace-monoid element and hence share one unitary —
/// returns the sound TV bound obtained by charging both sides' reordering
/// paths into the shared normal form. `None` when the words differ (the
/// engine proves nothing about the pair).
pub fn equivalence_charge(
    a: &Circuit,
    b: &Circuit,
    cal: &Calibration,
    include_relaxation: bool,
) -> Option<f64> {
    if a.num_qubits() != b.num_qubits() || a.len() != b.len() {
        return None;
    }
    // cheap multiset precheck before the quadratic layering
    let mut la: Vec<String> = a.instructions().iter().map(letter).collect();
    let mut lb: Vec<String> = b.instructions().iter().map(letter).collect();
    la.sort_unstable();
    lb.sort_unstable();
    if la != lb {
        return None;
    }
    if foata_word(a.instructions()) != foata_word(b.instructions()) {
        return None;
    }
    Some(
        charge_to_normal_form(a.instructions(), cal, include_relaxation)
            + charge_to_normal_form(b.instructions(), cal, include_relaxation),
    )
}

// ---------------------------------------------------------------------------
// fusion legality
// ---------------------------------------------------------------------------

/// One step of the cross-support fusion plan, per instruction in order.
/// Run indices count every opened run (`Start` and `StartAbsorbing` each
/// allocate the next index); absorbed runs are consumed by their absorber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionStep {
    /// Open a new fusion run at this instruction.
    Start,
    /// Append this instruction to run `r`. For a 1q instruction the target
    /// may be a 2q run that last touched its qubit (cross-support
    /// absorption); for a 2q instruction it is the same-pair run that last
    /// touched both operands (either orientation).
    Join(usize),
    /// Open a new two-qubit run, folding the listed still-open one-qubit
    /// runs (each the last toucher of one operand) into it.
    StartAbsorbing(Vec<usize>),
}

/// Computes the fusion legality plan for an instruction stream. Every step
/// is *channel-exact*: a gate joins, or a run is folded, only when each
/// instruction in between acts on disjoint qubits — channels on disjoint
/// subsystems commute exactly, so the slide moves the whole noisy block
/// (gate + depolarizing + relaxation), not just the unitary. Soundness is
/// property-tested against density-matrix simulation from the trajectory
/// side (`qaprox-sim`).
pub fn fusion_plan(num_qubits: usize, insts: &[Instruction]) -> Vec<FusionStep> {
    #[derive(Clone, Copy, PartialEq)]
    enum Support {
        One,
        Two,
    }
    let mut runs: Vec<Support> = Vec::new();
    let mut last_run: Vec<Option<usize>> = vec![None; num_qubits];
    let mut plan = Vec::with_capacity(insts.len());
    for inst in insts {
        match inst.qubits[..] {
            [q] if q < num_qubits => match last_run[q] {
                // everything since run `r` last touched `q` is disjoint
                // from `q`, so the gate slides back into the run exactly
                Some(r) => plan.push(FusionStep::Join(r)),
                None => {
                    last_run[q] = Some(runs.len());
                    runs.push(Support::One);
                    plan.push(FusionStep::Start);
                }
            },
            [a, b] if a < num_qubits && b < num_qubits => {
                if last_run[a].is_some() && last_run[a] == last_run[b] {
                    // the same run last touched both operands: it is a 2q
                    // run on exactly this pair (a 1q run cannot be the last
                    // toucher of two qubits)
                    plan.push(FusionStep::Join(last_run[a].expect("checked above")));
                } else {
                    let mut absorbed = Vec::new();
                    for q in [a, b] {
                        if let Some(r) = last_run[q] {
                            if runs[r] == Support::One {
                                absorbed.push(r);
                            }
                        }
                    }
                    let r = runs.len();
                    runs.push(Support::Two);
                    last_run[a] = Some(r);
                    last_run[b] = Some(r);
                    plan.push(if absorbed.is_empty() {
                        FusionStep::Start
                    } else {
                        FusionStep::StartAbsorbing(absorbed)
                    });
                }
            }
            // out-of-range operands are a lint error elsewhere; never fuse
            _ => plan.push(FusionStep::Start),
        }
    }
    plan
}

// ---------------------------------------------------------------------------
// QA6xx lints
// ---------------------------------------------------------------------------

/// One item of the merged gate + measurement stream.
enum Item<'a> {
    Gate(&'a Instruction),
    Measure { qubit: usize, clbit: usize },
}

/// Merges instructions and measures into one program-order stream
/// (`RawMeasure::after` fixes each measurement's slot).
fn merged_items<'a>(instructions: &'a [Instruction], measures: &'a [RawMeasure]) -> Vec<Item<'a>> {
    let mut items = Vec::with_capacity(instructions.len() + measures.len());
    for pos in 0..=instructions.len() {
        for m in measures.iter().filter(|m| m.after == pos) {
            items.push(Item::Measure {
                qubit: m.qubit,
                clbit: m.clbit,
            });
        }
        if pos < instructions.len() {
            items.push(Item::Gate(&instructions[pos]));
        }
    }
    items
}

/// True when two stream items contend for a wire (qubit, or clbit for a
/// measurement pair).
fn share_resource(x: &Item<'_>, y: &Item<'_>) -> bool {
    match (x, y) {
        (Item::Gate(a), Item::Gate(b)) => !disjoint(a, b),
        (Item::Gate(g), Item::Measure { qubit, .. })
        | (Item::Measure { qubit, .. }, Item::Gate(g)) => g.qubits.contains(qubit),
        (
            Item::Measure {
                qubit: qa,
                clbit: ca,
            },
            Item::Measure {
                qubit: qb,
                clbit: cb,
            },
        ) => qa == qb || ca == cb,
    }
}

/// True when item order must be preserved: gate pairs depend unless the
/// oracle proves commutation; anything involving a measurement depends
/// whenever it shares a resource.
fn dependent(x: &Item<'_>, y: &Item<'_>) -> bool {
    match (x, y) {
        (Item::Gate(a), Item::Gate(b)) => !commutes(a, b),
        _ => share_resource(x, y),
    }
}

/// ASAP layer count of the stream under an arbitrary dependence relation.
fn asap_depth(items: &[Item<'_>], dep: impl Fn(&Item<'_>, &Item<'_>) -> bool) -> usize {
    let mut layers = vec![0usize; items.len()];
    for i in 0..items.len() {
        let mut l = 0;
        for j in 0..i {
            if layers[j] >= l && dep(&items[j], &items[i]) {
                l = layers[j] + 1;
            }
        }
        layers[i] = l;
    }
    layers.iter().map(|&l| l + 1).max().unwrap_or(0)
}

/// Runs the QA6xx commutation lints over one parsed program: the
/// QA601/QA602 rewrite fixpoint (cancellations and merges only exposed by
/// applying earlier rounds' rewrites) and the QA603 schedule comparison.
/// Programs above [`QA6XX_MAX_ITEMS`] items are skipped.
pub fn lint_commute(
    num_qubits: usize,
    num_clbits: usize,
    instructions: &[Instruction],
    measures: &[RawMeasure],
    cfg: &LintConfig,
) -> Report {
    let mut out = Vec::new();
    let wants_fixpoint = cfg.severity(LintCode::CommutationCancellation).is_some()
        || cfg.severity(LintCode::CommutationMerge).is_some();
    let wants_depth = cfg.severity(LintCode::DepthReducibleSchedule).is_some();
    if (!wants_fixpoint && !wants_depth) || instructions.len() + measures.len() > QA6XX_MAX_ITEMS {
        return Report::from_diagnostics(out);
    }

    // QA601 / QA602: rewrite fixpoint. Round 1 findings are QA302/QA303's
    // business; a finding in round >= 2 only became visible because earlier
    // rewrites were applied — that is the commutation-enabled class.
    if wants_fixpoint {
        let mut insts = instructions.to_vec();
        let mut meas = measures.to_vec();
        for round in 1..=16usize {
            let Ok(dag) = CircuitDag::from_program(num_qubits, num_clbits, &insts, &meas) else {
                break;
            };
            let cancellations = find_cancellations(&dag);
            if cancellations.is_empty() {
                break;
            }
            // apply a maximal non-overlapping subset in one pass; each
            // rewrite is sound in isolation and removing/merging
            // instructions only shrinks the commuting interiors the other
            // rewrites rely on, so the batch is sound too (the property
            // tests apply the full fixpoint and check the unitary)
            let mut used = vec![false; insts.len()];
            let mut remove = vec![false; insts.len()];
            let mut replace: BTreeMap<usize, Instruction> = BTreeMap::new();
            for c in cancellations {
                if used[c.first] || used[c.second] {
                    continue;
                }
                used[c.first] = true;
                used[c.second] = true;
                remove[c.second] = true;
                match &c.kind {
                    CancellationKind::RemovePair => {
                        remove[c.first] = true;
                        if round >= 2 {
                            emit(
                                &mut out,
                                cfg,
                                LintCode::CommutationCancellation,
                                Location::Global,
                                format!(
                                    "{} on {:?} cancels with {} on {:?} once round-{} rewrites \
                                     are applied (commutation-enabled cancellation)",
                                    insts[c.first].gate.name(),
                                    insts[c.first].qubits,
                                    insts[c.second].gate.name(),
                                    insts[c.second].qubits,
                                    round - 1
                                ),
                            );
                        }
                    }
                    CancellationKind::Merge { merged } => {
                        replace.insert(c.first, merged.clone());
                        if round >= 2 {
                            emit(
                                &mut out,
                                cfg,
                                LintCode::CommutationMerge,
                                Location::Global,
                                format!(
                                    "{} on {:?} merges with {} on {:?} into a single {} once \
                                     round-{} rewrites are applied (commutation-enabled merge)",
                                    insts[c.first].gate.name(),
                                    insts[c.first].qubits,
                                    insts[c.second].gate.name(),
                                    insts[c.second].qubits,
                                    merged.gate.name(),
                                    round - 1
                                ),
                            );
                        }
                    }
                }
            }
            // rebuild the program and remap measurement slots
            let mut new_insts = Vec::with_capacity(insts.len());
            let mut new_index = vec![0usize; insts.len() + 1];
            for (i, inst) in insts.iter().enumerate() {
                new_index[i] = new_insts.len();
                if remove[i] {
                    continue;
                }
                match replace.remove(&i) {
                    Some(merged) => new_insts.push(merged),
                    None => new_insts.push(inst.clone()),
                }
            }
            new_index[insts.len()] = new_insts.len();
            for m in meas.iter_mut() {
                m.after = new_index[m.after];
            }
            insts = new_insts;
        }
    }

    // QA603: the ASAP schedule modulo commutation vs the wire schedule.
    // Dependence edges are a subset of wire edges (disjoint supports always
    // commute), so the commutation depth can only be shorter.
    if wants_depth {
        let items = merged_items(instructions, measures);
        let wire = asap_depth(&items, share_resource);
        let dep = asap_depth(&items, dependent);
        debug_assert!(dep <= wire, "commutation cannot deepen the schedule");
        if dep < wire {
            emit(
                &mut out,
                cfg,
                LintCode::DepthReducibleSchedule,
                Location::Global,
                format!(
                    "ASAP schedule modulo commutation completes in {dep} layer(s) vs {wire} \
                     wire layer(s); reordering commuting gates shortens the critical path by \
                     {} layer(s)",
                    wire - dep
                ),
            );
        }
    }

    Report::from_diagnostics(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_circuit::Gate;
    use qaprox_device::devices::ourense;

    fn inst(gate: Gate, qubits: &[usize]) -> Instruction {
        Instruction {
            gate,
            qubits: qubits.to_vec(),
        }
    }

    fn tfim_like(steps: usize) -> Circuit {
        let mut c = Circuit::new(3);
        for _ in 0..steps {
            c.cx(0, 1).rz(0.4, 1).cx(0, 1);
            c.cx(1, 2).rz(0.4, 2).cx(1, 2);
            c.rx(0.2, 0).rx(0.2, 1).rx(0.2, 2);
        }
        c
    }

    #[test]
    fn foata_word_is_invariant_under_a_commuting_swap() {
        let mut a = Circuit::new(2);
        a.rz(0.7, 0).cx(0, 1).rx(0.3, 1);
        // rz on the control commutes with the cx: swapping them preserves
        // the word; rx on the target commutes too
        let mut b = Circuit::new(2);
        b.cx(0, 1).rz(0.7, 0).rx(0.3, 1);
        let mut c = Circuit::new(2);
        c.rx(0.3, 1).rz(0.7, 0).cx(0, 1);
        assert_eq!(foata_word(a.instructions()), foata_word(b.instructions()));
        assert_eq!(foata_word(a.instructions()), foata_word(c.instructions()));
    }

    #[test]
    fn foata_word_separates_dependent_reorders() {
        let mut a = Circuit::new(2);
        a.rz(0.7, 1).cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(0, 1).rz(0.7, 1); // rz on the target does NOT commute
        assert_ne!(foata_word(a.instructions()), foata_word(b.instructions()));
    }

    #[test]
    fn canonical_reorder_of_tfim_is_a_genuine_overlapping_reorder() {
        let c = tfim_like(2);
        let r = canonical_reorder(&c);
        assert_eq!(foata_word(c.instructions()), foata_word(r.instructions()));
        assert_ne!(
            c.instructions(),
            r.instructions(),
            "the canonical order must differ from program order"
        );
        // same unitary exactly up to float reassociation
        let diff = c.unitary().max_diff(&r.unitary());
        assert!(diff < 1e-12, "reorder drifted by {diff}");
    }

    #[test]
    fn swap_cost_is_zero_for_disjoint_and_tiny_for_exact_overlaps() {
        let cal = ourense().induced(&[0, 1, 2]);
        let rz0 = inst(Gate::RZ(0.4), &[0]);
        let rx2 = inst(Gate::RX(0.9), &[2]);
        assert_eq!(swap_cost(&rz0, &rx2, &cal, true), 0.0);
        // two diagonals on one wire commute *with their noise*: depolarizing
        // is invariant under any same-support conjugation and relaxation
        // commutes with RZ-type unitaries
        let rz0b = inst(Gate::RZ(1.1), &[0]);
        let cost = swap_cost(&rz0, &rz0b, &cal, true);
        assert!(cost < 1e-12, "exactly-commuting overlap cost {cost}");
    }

    #[test]
    fn swap_cost_charges_overlapping_noise() {
        let cal = ourense().induced(&[0, 1]);
        let rz = inst(Gate::RZ(0.4), &[0]);
        let cx = inst(Gate::CX, &[0, 1]);
        let cost = swap_cost(&rz, &cx, &cal, true);
        assert!(cost > 0.0, "rz noise does not commute through the cx");
        assert!(cost < 0.1, "residual must stay small, got {cost}");
    }

    #[test]
    fn equivalence_charge_requires_equal_words() {
        let cal = ourense().induced(&[0, 1, 2]);
        let c = tfim_like(2);
        let r = canonical_reorder(&c);
        let charge = equivalence_charge(&c, &r, &cal, true).expect("same word");
        assert!((0.0..1.0).contains(&charge), "charge {charge}");
        let mut other = Circuit::new(3);
        other.h(0);
        assert_eq!(equivalence_charge(&c, &other, &cal, true), None);
    }

    #[test]
    fn fusion_plan_absorbs_tfim_layers() {
        let c = tfim_like(2);
        let plan = fusion_plan(3, c.instructions());
        let runs = plan
            .iter()
            .filter(|s| !matches!(s, FusionStep::Join(_)))
            .count();
        let absorbed: usize = plan
            .iter()
            .map(|s| match s {
                FusionStep::StartAbsorbing(v) => v.len(),
                _ => 0,
            })
            .sum();
        // 18 gates collapse into 4 runs (each bond run swallows its rz and
        // the rx layer that follows)
        assert_eq!(runs, 4, "plan: {plan:?}");
        assert_eq!(absorbed, 0, "tfim starts with a cx, nothing to fold");
        let ratio = c.len() as f64 / (runs - absorbed) as f64;
        assert!(ratio > 1.0, "cross-support fusion must beat 1.00 gates/op");
    }

    #[test]
    fn fusion_plan_folds_leading_one_qubit_runs() {
        let mut c = Circuit::new(2);
        c.h(0).rz(0.3, 0).h(1).cx(0, 1).rx(0.2, 1);
        let plan = fusion_plan(2, c.instructions());
        assert_eq!(
            plan,
            vec![
                FusionStep::Start,                      // h(0) opens run 0
                FusionStep::Join(0),                    // rz joins it
                FusionStep::Start,                      // h(1) opens run 1
                FusionStep::StartAbsorbing(vec![0, 1]), // cx folds both
                FusionStep::Join(2),                    // rx joins the 2q run
            ]
        );
    }

    #[test]
    fn lint_commute_finds_fixpoint_cancellation() {
        // cx(0,1) h(0) h(0) cx(0,1): the h pair is round-1 (QA302's
        // business); the cx pair only cancels after the h rewrite lands
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(0).h(0).cx(0, 1);
        let report = lint_commute(2, 0, c.instructions(), &[], &LintConfig::new());
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"QA601"), "{codes:?}");
    }

    #[test]
    fn lint_commute_finds_fixpoint_merge() {
        // rz rz rz on one wire: round 1 merges the first pair, round 2
        // merges the result with the third rotation
        let mut c = Circuit::new(1);
        c.rz(0.1, 0).rz(0.2, 0).rz(0.3, 0);
        let report = lint_commute(1, 0, c.instructions(), &[], &LintConfig::new());
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"QA602"), "{codes:?}");
    }

    #[test]
    fn lint_commute_reports_depth_reducible_schedule() {
        let c = tfim_like(2);
        let report = lint_commute(3, 0, c.instructions(), &[], &LintConfig::new());
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"QA603"), "{codes:?}");
    }

    #[test]
    fn lint_commute_is_quiet_on_already_tight_programs() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let report = lint_commute(2, 0, c.instructions(), &[], &LintConfig::new());
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn measurement_blocks_the_fixpoint() {
        // a measurement between the h pair stops round 1, so the cx pair
        // never becomes cancellable either
        let insts = vec![
            inst(Gate::CX, &[0, 1]),
            inst(Gate::H, &[0]),
            inst(Gate::H, &[0]),
            inst(Gate::CX, &[0, 1]),
        ];
        let measures = vec![RawMeasure {
            qubit: 0,
            clbit: 0,
            after: 2,
            line: 1,
        }];
        let report = lint_commute(2, 1, &insts, &measures, &LintConfig::new());
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(!codes.contains(&"QA601"), "{codes:?}");
    }
}
