//! Monte-Carlo quantum-trajectory simulation.
//!
//! An independent implementation of noisy execution: instead of evolving a
//! `4^n`-entry density matrix, each *shot* (trajectory) evolves a `2^n`
//! statevector and samples one Kraus branch per noise event. Averaging shots
//! converges to the density-matrix result (a strong cross-validation target
//! for the test suite) and scales to circuit widths where the density matrix
//! does not — this is what unlocks the 27q/65q heavy-hex devices.
//!
//! The engine works in two stages:
//!
//! 1. **Compile** ([`FusedProgram::compile`]): the commutation engine's
//!    fusion plan ([`qaprox_verify::fusion_plan`]) groups gates into runs —
//!    same-support gates as before, plus *cross-support* absorption of 1q
//!    gates into the 2q run that last touched their qubit (legal because
//!    every gate in between acts on disjoint qubits, so the whole noisy
//!    block slides — channels on disjoint subsystems commute exactly). Each
//!    run fuses into a single 1q/2q matrix, and the noise events that sat
//!    between its gates are conjugated by the suffix unitary so channel
//!    semantics are preserved exactly — `U ∘ N = (U N U†) ∘ U` for any
//!    channel `N`. Depolarizing channels are invariant under same-support
//!    conjugation (the uniform-Pauli unraveling implements the full twirl),
//!    so they stay cheap λ-draws; relaxation Kraus sets are conjugated at
//!    compile time (small 2x2/4x4 matmuls).
//! 2. **Run** ([`FusedProgram::run_shot`]): the per-shot loop touches only
//!    precompiled fixed-size matrices and samples Kraus branches
//!    allocation-free, in one in-place pass per fused op:
//!    - **folded branches**: each event of an op takes its draws in program
//!      order, and the branch it picks is multiplied into a per-shot copy of
//!      the op's 2x2/4x4 matrix — a depolarizing Pauli that fires, a
//!      mixed-unitary branch, or branch 0 of a relaxation event whose draw
//!      is below its acceptance floor. The op's matrix is then swept once.
//!      Compile forms each op's product for the case where every event
//!      takes its likely branch (no Pauli or mixed-unitary branch fires,
//!      every relaxation draw is below its floor); a shot sweeps that
//!      product as it is, and multiplies only from its first other branch
//!      on;
//!    - **acceptance floor**: each relaxation event carries the smallest
//!      eigenvalue of `K0†K0` less a 1e-9 margin (`acceptance_floor`).
//!      It bounds `||K0 ψ||² / ||ψ||²` for every state, so a draw below it
//!      is one the exact sequential rule would give to branch 0 as well,
//!      whatever the state is. A draw past it (under 1 % of events on
//!      device calibrations) flushes: the matrix built so far is swept in,
//!      the branches are priced in turn with norm-only sweeps, as the rule
//!      says, and the chosen branch starts a fresh matrix;
//!    - **fused apply and norm**: [`sweep_1q`]/[`sweep_2q`] apply a matrix
//!      in place and return the squared norm of the result, bit for bit
//!      the norm of a separate read-only sweep. They are the only kernels
//!      here built on fused multiply-adds, with the scalar table matching
//!      the AVX2 one through `f64::mul_add`, so their stores agree with the
//!      blocked gate kernels' to rounding, not bit for bit;
//!    - **pending renormalization**: an op that folded a relaxation branch
//!      keeps its `1/sqrt(norm)` pending (`ShotState`); the next sweep
//!      multiplies it into its matrix's coefficients once, so no pass is
//!      spent on it, and at most one [`scale`] runs, at the end of the
//!      shot;
//!    - **light cone**: a shot starts in `|0…0⟩`, so after ops that have
//!      touched qubits up to `q` only the first `2 << q` amplitudes can be
//!      nonzero. Every sweep of an op (its store, a flush, the norm-only
//!      pricing) runs on that live prefix only; the prefix is zeroed
//!      block by block as ops widen it, and the rest of the state when the
//!      shot ends. This is exact, not an approximation: every noise event
//!      acts inside its op's support, so the bound holds whatever branches
//!      a shot draws; the sweeps visit the amplitudes below `2^k` first
//!      and in the same order at any length, so those get the same bits;
//!      and each amplitude past the prefix would add an exact `+0` to the
//!      norm's lanes, so the norms and pending factors keep their bits.
//!      Rows are bit-identical to sweeping the whole state. Only programs
//!      whose early ops start at low qubits gain: the serve job's four
//!      16-qubit TFIM programs, chains laid out from qubit 0 up, sweep the
//!      amplitudes of 98 whole-state passes instead of 150 per shot set,
//!      while a program whose first op touches the top qubit sweeps
//!      everything from the start.
//!
//!    The branches a shot picks are those of sweeping every event in turn;
//!    the amplitudes differ from that only by the rounding of the 2x2/4x4
//!    products.
//!
//! Shot-level parallelism is **bit-for-bit thread-count invariant**: shots
//! are grouped into structural chunks (a function of circuit width only),
//! each (candidate, chunk) pair is one work item with its own state and
//! accumulator, each shot draws from its own [`SplitMix64`] stream derived
//! from `(seed, shot index)` — never from thread identity — and a
//! candidate's chunk partials are reduced sequentially in index order.
//!
//! [`SplitMix64`]: qaprox_linalg::random::SplitMix64

use crate::noise_model::NoiseModel;
use crate::readout::ReadoutError;
use qaprox_circuit::Circuit;
use qaprox_linalg::kernels::{mat2_to_array, mat4_to_array, scale, sweep_1q, sweep_2q, Sweep};
use qaprox_linalg::matrix::Matrix;
use qaprox_linalg::parallel::{par_map_range, thread_budget, with_thread_budget};
use qaprox_linalg::random::Rng;
use qaprox_linalg::random::SplitMix64 as StdRng;
use qaprox_linalg::Complex64;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default shot count when the caller does not specify one. Chosen so the
/// sampling error (~`sqrt(dim / shots)` in TV distance) sits below the noise
/// effects being measured for the paper's 2-6 qubit studies, while a 27-qubit
/// smoke run stays tractable.
pub const DEFAULT_TRAJECTORY_SHOTS: usize = 512;

/// Structural shot-chunk size: a deterministic function of circuit width
/// only (never of the thread count), so the floating-point reduction tree is
/// identical for any worker pool. Each chunk of each candidate is one work
/// item of [`TrajectoryBatch::shot_average_health`], so a batch of several
/// candidates spreads over the workers even when each fits in one chunk.
/// Wide states use one big chunk to bound the number of `2^n`-sized
/// accumulators alive at once: beyond 20 qubits each partial is ≥ 8 MiB and
/// memory, not parallelism, is the binding constraint (a 27q chunk needs
/// ~3 GiB of state + accumulator).
fn shot_chunk(num_qubits: usize) -> usize {
    if num_qubits <= 20 {
        16
    } else {
        1024
    }
}

/// Derives the independent RNG stream for one shot. Keyed by shot *index*
/// (never thread identity), so results do not depend on how shots are
/// scheduled across workers.
fn shot_rng(seed: u64, shot: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ shot.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

// ---------------------------------------------------------------------------
// small fixed-size matrix helpers (compile-time conjugation)
// ---------------------------------------------------------------------------

fn mul2(a: &[Complex64; 4], b: &[Complex64; 4]) -> [Complex64; 4] {
    let mut out = [Complex64::ZERO; 4];
    for r in 0..2 {
        for c in 0..2 {
            out[r * 2 + c] = a[r * 2] * b[c] + a[r * 2 + 1] * b[2 + c];
        }
    }
    out
}

fn mul4(a: &[Complex64; 16], b: &[Complex64; 16]) -> [Complex64; 16] {
    let mut out = [Complex64::ZERO; 16];
    for r in 0..4 {
        for c in 0..4 {
            let mut acc = Complex64::ZERO;
            for k in 0..4 {
                acc = acc.mul_add(a[r * 4 + k], b[k * 4 + c]);
            }
            out[r * 4 + c] = acc;
        }
    }
    out
}

/// `embed_high(k) · m` when `on_high`, else `embed_low(k) · m`, without
/// forming the embedding: each entry is `mul4`'s `mul_add` chain less the
/// terms whose coefficient is one of the embedding's zeros. Those terms
/// add exact zeros to an accumulator that is never `-0`, so the bits are
/// `mul4`'s.
fn mul_embedded(k: &[Complex64; 4], on_high: bool, m: &[Complex64; 16]) -> [Complex64; 16] {
    let mut out = [Complex64::ZERO; 16];
    for r in 0..4 {
        let (hi, lo) = (r >> 1, r & 1);
        // the two rows of `m` that row `r` of the embedding reaches, in
        // order, and their coefficients
        let (rows, coef) = if on_high {
            ([lo, 2 + lo], [k[hi * 2], k[hi * 2 + 1]])
        } else {
            ([2 * hi, 2 * hi + 1], [k[lo * 2], k[lo * 2 + 1]])
        };
        for c in 0..4 {
            out[r * 4 + c] = Complex64::ZERO
                .mul_add(coef[0], m[rows[0] * 4 + c])
                .mul_add(coef[1], m[rows[1] * 4 + c]);
        }
    }
    out
}

fn dag2(a: &[Complex64; 4]) -> [Complex64; 4] {
    [a[0].conj(), a[2].conj(), a[1].conj(), a[3].conj()]
}

fn dag4(a: &[Complex64; 16]) -> [Complex64; 16] {
    let mut out = [Complex64::ZERO; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[r * 4 + c] = a[c * 4 + r].conj();
        }
    }
    out
}

/// `V K V†` for 2x2 matrices.
fn conj2(v: &[Complex64; 4], k: &[Complex64; 4]) -> [Complex64; 4] {
    mul2(&mul2(v, k), &dag2(v))
}

/// `V K V†` for 4x4 matrices.
fn conj4(v: &[Complex64; 16], k: &[Complex64; 16]) -> [Complex64; 16] {
    mul4(&mul4(v, k), &dag4(v))
}

/// Reorients a 4x4 matrix written for qubit order `(a, b)` to order
/// `(b, a)`: swap the two bits of both indices (`p = [0, 2, 1, 3]`).
fn swap_qubit_order_4(u: &[Complex64; 16]) -> [Complex64; 16] {
    const P: [usize; 4] = [0, 2, 1, 3];
    let mut out = [Complex64::ZERO; 16];
    for i in 0..4 {
        for j in 0..4 {
            out[i * 4 + j] = u[P[i] * 4 + P[j]];
        }
    }
    out
}

/// Embeds a 2x2 operator on the *high* bit of a 4x4 (i.e. `K ⊗ I`).
fn embed_high(k: &[Complex64; 4]) -> [Complex64; 16] {
    let mut out = [Complex64::ZERO; 16];
    for i in 0..2 {
        for ip in 0..2 {
            for j in 0..2 {
                out[(2 * i + j) * 4 + (2 * ip + j)] = k[i * 2 + ip];
            }
        }
    }
    out
}

/// Embeds a 2x2 operator on the *low* bit of a 4x4 (i.e. `I ⊗ K`).
fn embed_low(k: &[Complex64; 4]) -> [Complex64; 16] {
    let mut out = [Complex64::ZERO; 16];
    for i in 0..2 {
        for j in 0..2 {
            for jp in 0..2 {
                out[(2 * i + j) * 4 + (2 * i + jp)] = k[j * 2 + jp];
            }
        }
    }
    out
}

/// The Paulis `X`, `Y`, `Z` as 2x2 matrices, indexed by `which - 1` of a
/// uniform draw `which` from `{I, X, Y, Z}`.
const PAULIS: [[Complex64; 4]; 3] = {
    let one = Complex64::ONE;
    let i = Complex64::new(0.0, 1.0);
    let z = Complex64::ZERO;
    // `-i` and `-1` as negation writes them, signed zeros included
    let (minus_i, minus_one) = (Complex64::new(-0.0, -1.0), Complex64::new(-1.0, -0.0));
    [[z, one, one, z], [z, minus_i, i, z], [one, z, z, minus_one]]
};

/// Margin below the smallest eigenvalue of `K0†K0` that an acceptance
/// floor keeps. A shot's state has norm 1 to within the rounding of its
/// last norm sum (typically about 1e-12 for the 2^27 terms of a 27-qubit
/// state), and compile-time conjugation moves `K0` by about 1e-15 per gate,
/// both far inside this margin.
const FLOOR_MARGIN: f64 = 1e-9;

/// The acceptance floor of branch 0 of a Kraus set: the smallest eigenvalue
/// of `K0†K0`, less [`FLOOR_MARGIN`]. For any normalized `ψ`,
/// `||K0 ψ||² ≥ λ_min(K0†K0)`, so a draw `u` below the floor is one the
/// exact sequential rule (`u < ||K0 ψ||²` picks branch 0) would also give
/// to branch 0: the shot loop takes it without sweeping for the norm.
/// Conjugation by a unitary and embedding in a 4x4 keep the spectrum, so
/// the floor of a compiled event is that of its unconjugated channel.
fn acceptance_floor(k0: &[Complex64; 4]) -> f64 {
    // G = K0†K0 = [[g00, g01], [conj(g01), g11]], Hermitian PSD
    let g00 = k0[0].norm_sqr() + k0[2].norm_sqr();
    let g11 = k0[1].norm_sqr() + k0[3].norm_sqr();
    let g01 = k0[0].conj() * k0[1] + k0[2].conj() * k0[3];
    let half_gap = 0.5 * (g00 - g11);
    let lambda_min = 0.5 * (g00 + g11) - (half_gap * half_gap + g01.norm_sqr()).sqrt();
    lambda_min - FLOOR_MARGIN
}

// ---------------------------------------------------------------------------
// compiled program
// ---------------------------------------------------------------------------

/// One precompiled noise event of the shot loop.
#[derive(Debug, Clone)]
enum NoiseEvent {
    /// Depolarizing on one qubit: with probability `lambda`, a uniformly
    /// random Pauli. Invariant under same-qubit unitary conjugation, so
    /// fusion leaves it untouched.
    Dep1 { q: usize, lambda: f64 },
    /// Two-qubit depolarizing: with probability `lambda`, an independent
    /// uniform Pauli on each qubit (uniform over the 16 two-qubit Paulis —
    /// the full twirl, hence invariant under same-pair conjugation).
    Dep2 { a: usize, b: usize, lambda: f64 },
    /// A general one-qubit Kraus channel (e.g. thermal relaxation), possibly
    /// conjugated by later same-qubit gates in its fusion run. `floor` is
    /// the acceptance floor of branch 0 ([`acceptance_floor`]).
    Kraus1 {
        q: usize,
        ops: Vec<[Complex64; 4]>,
        floor: f64,
    },
    /// A one-qubit Kraus channel promoted to the 4x4 support of a two-qubit
    /// fusion run by embedding + conjugation with the run's suffix unitary.
    /// Embedding and conjugation keep the spectrum of `K0†K0`, so `floor`
    /// carries over from the `Kraus1` unchanged.
    Kraus2 {
        a: usize,
        b: usize,
        ops: Vec<[Complex64; 16]>,
        floor: f64,
    },
    /// A mixed-unitary channel on a two-qubit run: branch `k` fires with the
    /// *fixed* probability `branches[k].0` (state-independent, because every
    /// branch is unitary), and the leftover mass is an implicit identity.
    /// This is what a `Dep1` becomes when a genuine 2q gate conjugates it:
    /// the Pauli unraveling stays unitary, so sampling needs no branch-norm
    /// sweeps and no renormalization — with probability `1 - 3λ/4` the event
    /// costs one RNG draw, exactly like the `Dep1` it came from. The
    /// matrices are written for the order of the run's pair.
    MixedU2 {
        branches: Vec<(f64, [Complex64; 16])>,
    },
}

impl NoiseEvent {
    /// A one-qubit Kraus event with its acceptance floor.
    fn kraus_1q(q: usize, kraus: &[Matrix]) -> Self {
        let ops: Vec<[Complex64; 4]> = kraus.iter().map(mat2_to_array).collect();
        let floor = acceptance_floor(&ops[0]);
        NoiseEvent::Kraus1 { q, ops, floor }
    }
}

/// One fused gate plus the noise events it carries (in program order).
///
/// `likely` is the op's matrix when every event takes its likely branch: a
/// depolarizing or mixed-unitary event that does not fire, branch 0 of a
/// relaxation event whose draw is below its floor. [`FusedOp::with_likely`]
/// forms it once the events are final; most shots sweep it as it is.
#[derive(Debug, Clone)]
enum FusedOp {
    One {
        q: usize,
        u: [Complex64; 4],
        events: Vec<NoiseEvent>,
        likely: Fold,
    },
    Two {
        a: usize,
        b: usize,
        u: [Complex64; 16],
        events: Vec<NoiseEvent>,
        likely: Fold,
    },
}

impl FusedOp {
    fn events(&self) -> &[NoiseEvent] {
        match self {
            FusedOp::One { events, .. } | FusedOp::Two { events, .. } => events,
        }
    }

    /// The highest qubit the op touches. Every event of the op acts inside
    /// its support, so this bounds what any branch of it can reach.
    fn top_qubit(&self) -> usize {
        match *self {
            FusedOp::One { q, .. } => q,
            FusedOp::Two { a, b, .. } => a.max(b),
        }
    }

    /// The op's matrix when every event takes its likely branch.
    fn likely(&self) -> &Fold {
        match self {
            FusedOp::One { likely, .. } | FusedOp::Two { likely, .. } => likely,
        }
    }

    /// The op's matrix before event `i` when every earlier event took its
    /// likely branch: the gate with their branches multiplied in, in
    /// program order, exactly as [`ShotState::run_op`] folds them.
    fn likely_before(&self, i: usize) -> Fold {
        let mut fold = Fold::of(self);
        for ev in &self.events()[..i] {
            match ev {
                NoiseEvent::Kraus1 { q, ops, .. } => fold.then_1q(*q, &ops[0]),
                NoiseEvent::Kraus2 { ops, .. } => fold.then_2q(&ops[0]),
                NoiseEvent::Dep1 { .. } | NoiseEvent::Dep2 { .. } | NoiseEvent::MixedU2 { .. } => {}
            }
        }
        fold
    }

    /// The op with [`likely`](Self::likely) formed from its final events.
    fn with_likely(mut self) -> Self {
        let whole = self.likely_before(self.events().len());
        match &mut self {
            FusedOp::One { likely, .. } | FusedOp::Two { likely, .. } => *likely = whole,
        }
        self
    }
}

/// Conjugates an event inside a 1q fusion run by the newly appended gate.
fn conjugate_event_1q(ev: &mut NoiseEvent, g: &[Complex64; 4]) {
    match ev {
        NoiseEvent::Dep1 { .. } => {} // depolarizing is conjugation-invariant
        NoiseEvent::Kraus1 { ops, .. } => {
            for k in ops.iter_mut() {
                *k = conj2(g, k);
            }
        }
        _ => unreachable!("1q runs only carry 1q events"),
    }
}

/// Conjugates an event inside a 2q fusion run by the newly appended gate
/// (already oriented to the run's `(ra, rb)`). Relaxation events from
/// earlier instructions become 4x4 Kraus sets.
fn conjugate_event_2q(ev: &mut NoiseEvent, ra: usize, rb: usize, g: &[Complex64; 16]) {
    match ev {
        NoiseEvent::Dep2 { .. } => {} // depolarizing is conjugation-invariant
        NoiseEvent::Kraus2 { ops, .. } => {
            for k in ops.iter_mut() {
                *k = conj4(g, k);
            }
        }
        NoiseEvent::Kraus1 { q, ops, floor } => {
            let on_high = *q == ra;
            debug_assert!(on_high || *q == rb);
            let promoted: Vec<[Complex64; 16]> = ops
                .iter()
                .map(|k| {
                    let e = if on_high { embed_high(k) } else { embed_low(k) };
                    conj4(g, &e)
                })
                .collect();
            *ev = NoiseEvent::Kraus2 {
                a: ra,
                b: rb,
                ops: promoted,
                floor: *floor,
            };
        }
        NoiseEvent::Dep1 { q, lambda } => {
            // a 1q depolarizing from an absorbed run, conjugated by a
            // genuine 2q gate: no longer a twirl, but still mixed-unitary —
            // each Pauli branch conjugates to a unitary with the *same*
            // fixed probability, so promote to `MixedU2` (state-independent
            // sampling, implicit identity branch) instead of a Kraus set
            let p = *lambda / 4.0;
            let on_high = *q == ra;
            debug_assert!(on_high || *q == rb);
            let branches: Vec<(f64, [Complex64; 16])> = PAULIS
                .iter()
                .map(|k| {
                    let e = if on_high { embed_high(k) } else { embed_low(k) };
                    (p, conj4(g, &e))
                })
                .collect();
            *ev = NoiseEvent::MixedU2 { branches };
        }
        NoiseEvent::MixedU2 { branches, .. } => {
            for (_, m) in branches.iter_mut() {
                *m = conj4(g, m);
            }
        }
    }
}

/// Conjugates an event inside a 2q fusion run by a newly absorbed *1q* gate
/// on qubit `q` (cross-support fusion). Exact and support-preserving:
/// depolarizing events are invariant (same-qubit or disjoint for `Dep1`,
/// any-unitary for the full-twirl `Dep2`), a same-qubit `Kraus1` conjugates
/// in 2x2, and only already-promoted `Kraus2` sets pay a 4x4 conjugation.
fn conjugate_event_by_1q(ev: &mut NoiseEvent, ra: usize, q: usize, g: &[Complex64; 4]) {
    match ev {
        NoiseEvent::Dep1 { .. } => {} // same-qubit or disjoint: invariant
        NoiseEvent::Dep2 { .. } => {} // full twirl: invariant under any unitary
        NoiseEvent::Kraus1 { q: kq, ops, .. } => {
            if *kq == q {
                for k in ops.iter_mut() {
                    *k = conj2(g, k);
                }
            } // other qubit of the pair: disjoint, invariant
        }
        NoiseEvent::Kraus2 { ops, .. } => {
            let g4 = if q == ra { embed_high(g) } else { embed_low(g) };
            for k in ops.iter_mut() {
                *k = conj4(&g4, k);
            }
        }
        NoiseEvent::MixedU2 { branches, .. } => {
            let g4 = if q == ra { embed_high(g) } else { embed_low(g) };
            for (_, m) in branches.iter_mut() {
                *m = conj4(&g4, m);
            }
        }
    }
}

/// A circuit + noise model compiled for the trajectory shot loop: fused
/// same-support gates, precompiled (and suffix-conjugated) noise events.
/// Compile once per circuit; every shot then runs over fixed-size arrays
/// with no per-shot allocation beyond the reusable state buffer.
#[derive(Debug, Clone)]
pub struct FusedProgram {
    num_qubits: usize,
    ops: Vec<FusedOp>,
    /// One readout error per qubit, when the model enables readout
    /// confusion.
    readout: Option<Vec<ReadoutError>>,
}

impl FusedProgram {
    /// Compiles `circuit` under `model`'s gate noise, executing the
    /// commutation engine's fusion plan ([`qaprox_verify::fusion_plan`]):
    /// same-support runs fuse as before (swapped pair order handled by an
    /// index permutation), and *cross-support* steps absorb 1q gates into
    /// the 2q run that last touched their qubit — legal because every gate
    /// in between acts on disjoint qubits, so the whole noisy block slides.
    /// Noise events crossed by a later gate of their run are conjugated by
    /// it at compile time, so the compiled program implements exactly the
    /// same channel as the gate-by-gate interleaving.
    pub fn compile(circuit: &Circuit, model: &NoiseModel) -> Self {
        let cal = model.calibration();
        assert!(
            circuit.num_qubits() <= cal.topology.num_qubits(),
            "circuit width {} exceeds the device model ({} qubits)",
            circuit.num_qubits(),
            cal.topology.num_qubits()
        );
        let plan = qaprox_verify::fusion_plan(circuit.num_qubits(), circuit.instructions());
        // `runs` stays index-aligned with the plan's run numbering; absorbed
        // runs are take()n out and their slot left as a tombstone
        let mut runs: Vec<Option<FusedOp>> = Vec::new();
        for (inst, step) in circuit.iter().zip(&plan) {
            match *inst.qubits.as_slice() {
                [q] => {
                    let g = mat2_to_array(&inst.gate.matrix());
                    let mut events = Vec::new();
                    let lambda = model.lambda_1q(q);
                    if lambda > 0.0 {
                        events.push(NoiseEvent::Dep1 { q, lambda });
                    }
                    if model.include_relaxation {
                        let qc = &cal.qubits[q];
                        events.push(NoiseEvent::kraus_1q(
                            q,
                            &crate::channels::thermal_relaxation(qc.sx_time_ns, qc.t1_us, qc.t2_us),
                        ));
                    }
                    match step {
                        qaprox_verify::FusionStep::Join(r) => {
                            match runs[*r].as_mut().expect("joined run is still open") {
                                FusedOp::One {
                                    u,
                                    events: run_events,
                                    ..
                                } => {
                                    for ev in run_events.iter_mut() {
                                        conjugate_event_1q(ev, &g);
                                    }
                                    *u = mul2(&g, u);
                                    run_events.extend(events);
                                }
                                FusedOp::Two {
                                    a: ra,
                                    b: rb,
                                    u,
                                    events: run_events,
                                    ..
                                } => {
                                    // cross-support absorption into a 2q run
                                    let (ra, rb) = (*ra, *rb);
                                    debug_assert!(q == ra || q == rb);
                                    for ev in run_events.iter_mut() {
                                        conjugate_event_by_1q(ev, ra, q, &g);
                                    }
                                    let g4 = if q == ra {
                                        embed_high(&g)
                                    } else {
                                        embed_low(&g)
                                    };
                                    *u = mul4(&g4, u);
                                    run_events.extend(events);
                                }
                            }
                        }
                        _ => runs.push(Some(FusedOp::One {
                            q,
                            u: g,
                            events,
                            likely: Fold::One { q, m: g },
                        })),
                    }
                }
                [a, b] => {
                    let mut g = mat4_to_array(&inst.gate.matrix());
                    let mut events = Vec::new();
                    let lambda = model.lambda_2q(a, b);
                    if lambda > 0.0 {
                        events.push(NoiseEvent::Dep2 { a, b, lambda });
                    }
                    if model.include_relaxation {
                        let t = model.edge_cal(a, b).cx_time_ns;
                        for &q in &[a, b] {
                            let qc = &cal.qubits[q];
                            events.push(NoiseEvent::kraus_1q(
                                q,
                                &crate::channels::thermal_relaxation(t, qc.t1_us, qc.t2_us),
                            ));
                        }
                    }
                    match step {
                        qaprox_verify::FusionStep::Join(r) => {
                            let Some(FusedOp::Two {
                                a: ra,
                                b: rb,
                                u,
                                events: run_events,
                                ..
                            }) = runs[*r].as_mut()
                            else {
                                unreachable!("a 2q gate only joins an open 2q run");
                            };
                            if *ra != a {
                                g = swap_qubit_order_4(&g);
                            }
                            let (ra, rb) = (*ra, *rb);
                            for ev in run_events.iter_mut() {
                                conjugate_event_2q(ev, ra, rb, &g);
                            }
                            *u = mul4(&g, u);
                            run_events.extend(events);
                        }
                        qaprox_verify::FusionStep::StartAbsorbing(absorbed) => {
                            // fold the still-open 1q runs (last touchers of
                            // `a` / `b`) into the new 2q run: the folded
                            // channel is  E_g ∘ (G E G†) ∘ (G · embed(U))
                            let mut u = g;
                            let mut run_events = Vec::new();
                            for &ri in absorbed {
                                let Some(FusedOp::One {
                                    q,
                                    u: one_u,
                                    events: one_events,
                                    ..
                                }) = runs[ri].take()
                                else {
                                    unreachable!("absorbed run is an open 1q run");
                                };
                                debug_assert!(q == a || q == b);
                                let e4 = if q == a {
                                    embed_high(&one_u)
                                } else {
                                    embed_low(&one_u)
                                };
                                u = mul4(&u, &e4);
                                for mut ev in one_events {
                                    conjugate_event_2q(&mut ev, a, b, &g);
                                    run_events.push(ev);
                                }
                            }
                            run_events.extend(events);
                            runs.push(Some(FusedOp::Two {
                                a,
                                b,
                                u,
                                events: run_events,
                                likely: Fold::Two { a, b, m: u },
                            }));
                        }
                        qaprox_verify::FusionStep::Start => {
                            runs.push(Some(FusedOp::Two {
                                a,
                                b,
                                u: g,
                                events,
                                likely: Fold::Two { a, b, m: g },
                            }));
                        }
                    }
                }
                _ => unreachable!("IR only holds 1- and 2-qubit gates"),
            }
        }
        // a run's `likely` is its gate until its events are final; form the
        // products now
        let ops: Vec<FusedOp> = runs
            .into_iter()
            .flatten()
            .map(FusedOp::with_likely)
            .collect();
        FusedProgram {
            num_qubits: circuit.num_qubits(),
            ops,
            readout: model.include_readout.then(|| {
                cal.qubits
                    .iter()
                    .take(circuit.num_qubits())
                    .map(|q| ReadoutError::symmetric(q.readout_error))
                    .collect()
            }),
        }
    }

    /// Number of fused operations (≤ the source circuit's gate count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Circuit width in qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Runs one trajectory in place: `state` is reset to the ground state,
    /// evolved through the fused program, sampling one branch per noise
    /// event from `rng`. `state.len()` must be `2^num_qubits`.
    ///
    /// Each fused op is one in-place sweep: the shot's sampled noise
    /// branches are multiplied into a copy of the op's matrix
    /// (`ShotState::run_op`), and only a relaxation draw at or past its
    /// event's acceptance floor sweeps the state in between. The branches
    /// are those of sweeping every event in turn with the exact sequential
    /// rule; the amplitudes differ from that only by rounding.
    ///
    /// Only the amplitudes the ops so far can have reached are swept: the
    /// shot's live prefix (`ShotState`) grows to `2 << q` when an op first
    /// touches qubit `q`, and the rest of `state` is zeroed when the shot
    /// ends. The result is bit for bit that of sweeping all of `state`.
    pub fn run_shot<R: Rng>(&self, state: &mut [Complex64], rng: &mut R) {
        self.run_shot_observed(state, rng, |_| {});
    }

    /// [`run_shot`](Self::run_shot), reporting each event's branch to
    /// `observe` in program order (see `ShotState::run_op`).
    fn run_shot_observed<R: Rng>(
        &self,
        state: &mut [Complex64],
        rng: &mut R,
        observe: impl FnMut(usize),
    ) {
        debug_assert_eq!(state.len(), 1usize << self.num_qubits);
        self.run_ops(ShotState::ground(state), rng, observe);
    }

    /// Runs every op on `shot`, widening its live prefix to each op's
    /// support first, and finishes it.
    fn run_ops<R: Rng>(&self, mut shot: ShotState, rng: &mut R, mut observe: impl FnMut(usize)) {
        for op in &self.ops {
            shot.widen(op.top_qubit());
            shot.run_op(op, rng, &mut observe);
        }
        shot.finish();
    }
}

/// Applies a program's readout confusion (`None` when its model has none)
/// to a distribution.
fn fold_readout(readout: Option<&[ReadoutError]>, probs: &mut [f64]) {
    if let Some(errors) = readout {
        crate::readout::apply_confusion(probs, errors);
    }
}

// ---------------------------------------------------------------------------
// numerical health sentinels
// ---------------------------------------------------------------------------

/// Norm-drift tolerance for the per-shot health sentinel. Every operation a
/// trajectory applies is norm-preserving (gates and mixed-unitary branches
/// are unitary, Kraus selections renormalize), so a finished shot's total
/// probability mass is `1 ± rounding` — drifting past this tolerance means
/// the state is numerically corrupt, not merely inexact.
pub const NORM_DRIFT_TOL: f64 = 1e-6;

/// Per-candidate numerical health from one shot-averaged run.
///
/// Recorded by [`TrajectoryBatch::shot_average_health`]: shots whose final
/// state carries a NaN/Inf amplitude or a norm drifted beyond
/// [`NORM_DRIFT_TOL`] are **aborted** — excluded from the averaged row —
/// instead of contaminating it, and the abort is counted here. A report
/// with `aborted_shots > 0` (or `cancelled`) marks the row as degraded: it
/// averages fewer trajectories than requested and callers should surface
/// that rather than treat the row as a full-budget estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Shots that finished cleanly and entered the average.
    pub clean_shots: u64,
    /// Shots aborted by a sentinel (excluded from the average).
    pub aborted_shots: u64,
    /// Aborts caused by a non-finite amplitude.
    pub nan_events: u64,
    /// Aborts caused by norm drift beyond [`NORM_DRIFT_TOL`].
    pub norm_drift_events: u64,
    /// True when a cooperative cancellation token stopped the run early;
    /// the partial row should be discarded.
    pub cancelled: bool,
}

impl HealthReport {
    /// True when every requested shot ran and entered the average.
    pub fn is_healthy(&self) -> bool {
        self.aborted_shots == 0 && !self.cancelled
    }

    /// Folds another report (e.g. a parallel chunk's partial) into this one.
    pub fn merge(&mut self, other: &HealthReport) {
        self.clean_shots += other.clean_shots;
        self.aborted_shots += other.aborted_shots;
        self.nan_events += other.nan_events;
        self.norm_drift_events += other.norm_drift_events;
        self.cancelled |= other.cancelled;
    }
}

/// What the sentinels concluded about one finished shot.
enum ShotVerdict {
    Clean,
    Nan,
    Drift,
}

/// Vets a finished trajectory: total probability mass must be finite and
/// within [`NORM_DRIFT_TOL`] of 1.
///
/// The mass is summed in four fixed lanes rather than one serial chain, so
/// the adds do not wait on each other. It feeds only these thresholds,
/// never a row.
fn shot_verdict(state: &[Complex64]) -> ShotVerdict {
    let mut lanes = [0.0f64; 4];
    let mut pairs = state.chunks_exact(2);
    for p in &mut pairs {
        lanes[0] += p[0].re * p[0].re;
        lanes[1] += p[0].im * p[0].im;
        lanes[2] += p[1].re * p[1].re;
        lanes[3] += p[1].im * p[1].im;
    }
    for z in pairs.remainder() {
        lanes[0] += z.norm_sqr();
    }
    let mass = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    if !mass.is_finite() {
        ShotVerdict::Nan
    } else if (mass - 1.0).abs() > NORM_DRIFT_TOL {
        ShotVerdict::Drift
    } else {
        ShotVerdict::Clean
    }
}

/// Failpoint `traj.corrupt`: deterministically corrupts the state of the
/// shot that fires it so the health sentinels can be exercised end to end —
/// `torn` plants a NaN amplitude, `error` doubles every amplitude (norm
/// drift). Compiled out entirely without the `failpoints` feature.
#[cfg(feature = "failpoints")]
fn inject_shot_corruption(state: &mut [Complex64]) {
    match qaprox_fault::eval("traj.corrupt") {
        Some(qaprox_fault::FaultAction::Torn) => state[0] = Complex64::new(f64::NAN, 0.0),
        Some(qaprox_fault::FaultAction::Error) => {
            for z in state.iter_mut() {
                *z = Complex64::new(z.re * 2.0, z.im * 2.0);
            }
        }
        _ => {}
    }
}

#[cfg(not(feature = "failpoints"))]
#[inline(always)]
fn inject_shot_corruption(_state: &mut [Complex64]) {}

/// The matrix one fused op sweeps in one shot: the op's gate with the
/// shot's sampled noise branches multiplied in from the left, in program
/// order.
#[derive(Debug, Clone, Copy)]
enum Fold {
    One {
        q: usize,
        m: [Complex64; 4],
    },
    Two {
        a: usize,
        b: usize,
        m: [Complex64; 16],
    },
}

impl Fold {
    /// The op's gate matrix, before any event.
    fn of(op: &FusedOp) -> Self {
        match *op {
            FusedOp::One { q, u, .. } => Fold::One { q, m: u },
            FusedOp::Two { a, b, u, .. } => Fold::Two { a, b, m: u },
        }
    }

    /// The identity on the same support.
    fn identity(&self) -> Self {
        match *self {
            Fold::One { q, .. } => Fold::One {
                q,
                m: [
                    Complex64::ONE,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ONE,
                ],
            },
            Fold::Two { a, b, .. } => {
                let mut m = [Complex64::ZERO; 16];
                for i in 0..4 {
                    m[i * 5] = Complex64::ONE;
                }
                Fold::Two { a, b, m }
            }
        }
    }

    /// Multiplies in a one-qubit operator on `q` (embedded on the high or
    /// low bit of a two-qubit support).
    fn then_1q(&mut self, q: usize, k: &[Complex64; 4]) {
        match self {
            Fold::One { m, .. } => *m = mul2(k, m),
            Fold::Two { a, m, .. } => *m = mul_embedded(k, q == *a, m),
        }
    }

    /// Multiplies in a two-qubit operator written for the support's order.
    fn then_2q(&mut self, k: &[Complex64; 16]) {
        match self {
            Fold::Two { m, .. } => *m = mul4(k, m),
            Fold::One { .. } => unreachable!("1q runs only carry 1q events"),
        }
    }

    /// Sweeps the matrix, scaled by `pre`, over `amps`.
    fn sweep(&self, amps: &mut [Complex64], pre: f64, mode: Sweep) -> f64 {
        match self {
            Fold::One { q, m } => sweep_1q(amps, *q, m, pre, mode),
            Fold::Two { a, b, m } => sweep_2q(amps, *a, *b, m, pre, mode),
        }
    }
}

/// Draws a uniform Pauli from `{I, X, Y, Z}` for qubit `q` and folds it
/// in; returns the draw (0 for `I`).
fn fold_random_pauli<R: Rng>(fold: &mut Fold, q: usize, rng: &mut R) -> usize {
    let which: u8 = rng.gen_range(0..4);
    if which > 0 {
        fold.then_1q(q, &PAULIS[which as usize - 1]);
    }
    which as usize
}

/// A shot's amplitudes with the last renormalization still pending: the
/// state is `pre * amps[..live]`, and every amplitude from `live` on is
/// zero.
///
/// An op that folded a relaxation branch leaves its `1/sqrt(norm)` in
/// `pre` instead of sweeping the state to scale it; the next sweep
/// multiplies `pre` into its matrix's coefficients, which equals a separate
/// scaling pass followed by the sweep up to rounding.
/// [`ShotState::finish`] applies what is left, at most one [`scale`] per
/// shot.
///
/// `live` is the light cone of a shot that starts in `|0…0⟩`: `2 << q` for
/// the highest qubit `q` any op so far has touched, so no amplitude from
/// `live` on can have left zero. Every sweep runs on `amps[..live]` only.
/// The amplitudes past `live` are left as they are until
/// [`finish`](Self::finish) zeroes them, and [`widen`](Self::widen) zeroes
/// each block the prefix takes in.
struct ShotState<'s> {
    amps: &'s mut [Complex64],
    live: usize,
    pre: f64,
}

impl<'s> ShotState<'s> {
    /// The state `amps` as given, all of it live.
    #[cfg(test)]
    fn new(amps: &'s mut [Complex64]) -> Self {
        let live = amps.len();
        ShotState {
            amps,
            live,
            pre: 1.0,
        }
    }

    /// `|0…0⟩` in `amps`, whatever it held: only `amps[0]` is written.
    fn ground(amps: &'s mut [Complex64]) -> Self {
        amps[0] = Complex64::ONE;
        ShotState {
            amps,
            live: 1,
            pre: 1.0,
        }
    }

    /// Grows the live prefix to cover qubit `q`, zeroing what it takes in.
    fn widen(&mut self, q: usize) {
        let live = 2 << q;
        if live > self.live {
            self.amps[self.live..live].fill(Complex64::ZERO);
            self.live = live;
        }
    }

    /// The live prefix, the only amplitudes a sweep needs to visit.
    fn live(&mut self) -> &mut [Complex64] {
        &mut self.amps[..self.live]
    }

    /// Sweeps `fold` in, consuming the pending factor. When `scaled` (the
    /// fold carries a relaxation branch, so it does not keep the norm),
    /// the renormalization of the result becomes the pending factor.
    fn sweep(&mut self, fold: &Fold, scaled: bool) {
        let pre = self.pre;
        let norm = fold.sweep(self.live(), pre, Sweep::Store);
        self.pre = if scaled { renormalization(norm) } else { 1.0 };
    }

    /// Runs one fused op: its gate and then its events, in one sweep.
    ///
    /// Every event takes its draws from `rng` in program order. While each
    /// takes its likely branch (a depolarizing or mixed-unitary event that
    /// does not fire, or the relaxation branch `K0` for a draw below the
    /// event's acceptance floor), nothing is multiplied, and a shot whose
    /// events all do sweeps the compiled product [`FusedOp::likely`]. The
    /// floor bounds `||K0 ψ||² / ||ψ||²` for every state, so that decision
    /// needs neither the state nor its norm. The first event off the path
    /// forms the product so far ([`FusedOp::likely_before`]) in `fold`, and
    /// from then on each branch is multiplied into it: a Pauli a
    /// depolarizing event fires, a mixed-unitary branch, or a relaxation
    /// branch. A draw at or past the floor flushes: the matrix built so far
    /// is swept in, the branches are priced in turn with norm-only sweeps,
    /// and the chosen branch starts a fresh matrix. The op ends with one
    /// sweep.
    ///
    /// `observe` hears each event's branch: 0 when a depolarizing or
    /// mixed-unitary event does not fire, else `1 + which` for a `Dep1`
    /// Pauli, `1 + 4 * which_a + which_b` for a `Dep2`, `1 + k` for
    /// mixed-unitary branch `k`; the Kraus index for a relaxation event.
    fn run_op<R: Rng>(&mut self, op: &FusedOp, rng: &mut R, observe: &mut impl FnMut(usize)) {
        // None while every event so far took its likely branch
        let mut fold: Option<Fold> = None;
        let mut scaled = false;
        for (i, ev) in op.events().iter().enumerate() {
            // the product so far, formed when event `i` first leaves the path
            let before = || op.likely_before(i);
            let branch = match ev {
                NoiseEvent::Dep1 { q, lambda } => {
                    if rng.gen::<f64>() < *lambda {
                        let f = fold.get_or_insert_with(before);
                        1 + fold_random_pauli(f, *q, rng)
                    } else {
                        0
                    }
                }
                NoiseEvent::Dep2 { a, b, lambda } => {
                    if rng.gen::<f64>() < *lambda {
                        let f = fold.get_or_insert_with(before);
                        let wa = fold_random_pauli(f, *a, rng);
                        1 + 4 * wa + fold_random_pauli(f, *b, rng)
                    } else {
                        0
                    }
                }
                NoiseEvent::MixedU2 { branches } => {
                    // every branch is unitary, so probabilities are fixed:
                    // one draw, and the identity branch owns the tail of
                    // the unit interval
                    let u: f64 = rng.gen();
                    let mut acc = 0.0f64;
                    let fired = branches.iter().position(|(w, _)| {
                        acc += w;
                        u < acc
                    });
                    if let Some(k) = fired {
                        fold.get_or_insert_with(before).then_2q(&branches[k].1);
                    }
                    fired.map_or(0, |k| k + 1)
                }
                NoiseEvent::Kraus1 { q, ops, floor } => {
                    let u: f64 = rng.gen();
                    let k = if u < *floor {
                        0
                    } else {
                        self.flush(&mut fold, before, scaled);
                        self.price(ops, u, |amps, k, pre| {
                            sweep_1q(amps, *q, k, pre, Sweep::NormOnly)
                        })
                    };
                    if let Some(f) = &mut fold {
                        f.then_1q(*q, &ops[k]);
                    }
                    scaled = true;
                    k
                }
                NoiseEvent::Kraus2 { a, b, ops, floor } => {
                    let u: f64 = rng.gen();
                    let k = if u < *floor {
                        0
                    } else {
                        self.flush(&mut fold, before, scaled);
                        self.price(ops, u, |amps, k, pre| {
                            sweep_2q(amps, *a, *b, k, pre, Sweep::NormOnly)
                        })
                    };
                    if let Some(f) = &mut fold {
                        f.then_2q(&ops[k]);
                    }
                    scaled = true;
                    k
                }
            };
            observe(branch);
        }
        self.sweep(fold.as_ref().unwrap_or(op.likely()), scaled);
    }

    /// Sweeps in the op so far, before a relaxation draw at or past its
    /// floor is priced: `fold`, or the likely-path product while `fold` is
    /// None. `fold` restarts from the identity.
    fn flush(&mut self, fold: &mut Option<Fold>, likely: impl FnOnce() -> Fold, scaled: bool) {
        let done = fold.take().unwrap_or_else(likely);
        self.sweep(&done, scaled);
        *fold = Some(done.identity());
    }

    /// The Kraus branch the exact sequential rule picks for draw `u`: the
    /// first `i` with `u < Σ_{j≤i} ||K_j ψ||²`, the last branch absorbing
    /// rounding. Each candidate's norm is one norm-only sweep, computed
    /// with the pending factor.
    fn price<K>(
        &mut self,
        ops: &[K],
        u: f64,
        norm_only: impl Fn(&mut [Complex64], &K, f64) -> f64,
    ) -> usize {
        let (pre, mut acc) = (self.pre, 0.0f64);
        for (i, k) in ops[..ops.len() - 1].iter().enumerate() {
            acc += norm_only(self.live(), k, pre);
            if u < acc {
                return i;
            }
        }
        ops.len() - 1
    }

    /// Zeroes the amplitudes past the live prefix and applies the pending
    /// factor, leaving `amps` the shot's final state.
    fn finish(self) {
        let (live, rest) = self.amps.split_at_mut(self.live);
        rest.fill(Complex64::ZERO);
        if self.pre != 1.0 {
            scale(live, self.pre);
        }
    }
}

/// The factor that renormalizes a state of squared norm `norm_sqr`.
fn renormalization(norm_sqr: f64) -> f64 {
    1.0 / norm_sqr.sqrt().max(1e-150)
}

/// The trajectory execution backend: a [`NoiseModel`] plus a shot budget.
///
/// Mirrors [`HardwareBackend`](crate::hardware::HardwareBackend)'s calling
/// convention — `probabilities(circuit, job_seed)` — so the executor can
/// treat it as one more place circuits run. Unlike the density-matrix path
/// it scales as `2^n` per shot, making the 27q/65q heavy-hex devices
/// reachable.
#[derive(Debug, Clone)]
pub struct TrajectoryBackend {
    model: NoiseModel,
    shots: usize,
    seed: u64,
    cancel: Option<Arc<AtomicBool>>,
}

impl TrajectoryBackend {
    /// Wraps a noise model with [`DEFAULT_TRAJECTORY_SHOTS`].
    pub fn new(model: NoiseModel) -> Self {
        TrajectoryBackend {
            model,
            shots: DEFAULT_TRAJECTORY_SHOTS,
            seed: 0x7261_6A00,
            cancel: None,
        }
    }

    /// Wraps with an explicit shot budget (minimum 1).
    pub fn with_shots(model: NoiseModel, shots: usize) -> Self {
        TrajectoryBackend {
            model,
            shots: shots.max(1),
            seed: 0x7261_6A00,
            cancel: None,
        }
    }

    /// Attaches a cooperative cancellation token, checked once per shot:
    /// when it reads `true` the run stops early, the partial rows carry
    /// [`HealthReport::cancelled`], and the caller should discard them.
    /// This is how an expired serve job stops a wide trajectory run mid-way
    /// instead of completing uselessly.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    fn cancel_flag(&self) -> Option<&AtomicBool> {
        self.cancel.as_deref()
    }

    /// The underlying noise model.
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// Shots per execution.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Runs `circuits` as one shot-batched request ([`TrajectoryBatch`]):
    /// `shots` trajectories per circuit, averaged, plus readout confusion.
    /// Row `i` draws from the seed `self.seed ^ job_seeds[i]`, so a batch
    /// of one is exactly a solo job and a row never depends on what else
    /// shares its batch.
    ///
    /// Errors on an empty batch, a seed-count mismatch or mixed circuit
    /// widths (the executor degrades to per-candidate requests).
    pub fn execute(&self, circuits: &[&Circuit], job_seeds: &[u64]) -> Result<BatchRun, String> {
        let programs: Vec<FusedProgram> = circuits
            .iter()
            .map(|c| FusedProgram::compile(c, &self.model))
            .collect();
        // the batch frees each program after its last chunk; the readout
        // errors it needs afterwards are kept apart
        let readouts: Vec<_> = programs.iter().map(|p| p.readout.clone()).collect();
        let seeds = job_seeds.iter().map(|s| self.seed ^ s).collect();
        let batch = TrajectoryBatch::from_programs(programs.into_iter().map(Cow::Owned), seeds)?;
        let (mut rows, health) = batch.shot_average_health(self.shots, self.cancel_flag());
        for (row, readout) in rows.iter_mut().zip(&readouts) {
            fold_readout(readout.as_deref(), row);
        }
        Ok(BatchRun { rows, health })
    }

    /// One full "job": [`execute`](Self::execute) on a batch of one.
    /// `job_seed` distinguishes repeated submissions.
    pub fn probabilities(&self, circuit: &Circuit, job_seed: u64) -> Vec<f64> {
        let run = self.execute(&[circuit], &[job_seed]);
        run.expect("a batch of one is always valid").rows.remove(0)
    }

    /// [`execute`](Self::execute) with job seed `i` for row `i` — the
    /// per-index seeds of the executor's batch entry points, so row `i` is
    /// bit-identical to `probabilities(&circuits[i], i)`.
    pub fn probabilities_batch(&self, circuits: &[Circuit]) -> Result<Vec<Vec<f64>>, String> {
        let refs: Vec<&Circuit> = circuits.iter().collect();
        let seeds: Vec<u64> = (0..circuits.len() as u64).collect();
        Ok(self.execute(&refs, &seeds)?.rows)
    }
}

// ---------------------------------------------------------------------------
// shot-batched multi-candidate evaluation
// ---------------------------------------------------------------------------

/// Default cap (bytes) on the shot states a batch keeps live at once: one
/// `2^n` state per worker, so the cap bounds the worker count. A 27q state
/// is 2 GiB, so wide batches run on one worker while the paper's 3-16q
/// candidate populations use every core. Override with
/// `QAPROX_BATCH_BYTES`.
const DEFAULT_BATCH_STATE_BYTES: usize = 256 << 20;

/// What one trajectory request ([`TrajectoryBackend::execute`] or the
/// executor's [`Backend::execute`](crate::Backend::execute)) returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchRun {
    /// One outcome distribution per circuit, in input order.
    pub rows: Vec<Vec<f64>>,
    /// One health report per row.
    pub health: Vec<HealthReport>,
}

/// Evaluates N candidate [`FusedProgram`]s in one parallel pass.
///
/// The shot range is split into structural chunks, and every (candidate,
/// chunk) pair is an independent work item with its own state and
/// accumulator, so a batch keeps every core busy even when each candidate
/// fits in one chunk (a 16-shot call at 16q). Workers claim items longest
/// program first, which keeps the last item to finish short.
///
/// This is the only shot loop: a solo run is a batch of one. Results are
/// **bit-for-bit identical** to N independent batches of one at any thread
/// count, because each (candidate, shot) pair draws from the same
/// [`SplitMix64`] stream it would solo (`shot_rng(seed_g, shot)`), each
/// accumulator sees its chunk's shots in index order, and a candidate's
/// chunk partials reduce in chunk order.
///
/// All candidates must share one circuit width; mixed widths are an error
/// (the executor degrades to per-candidate evaluation for those).
///
/// [`SplitMix64`]: qaprox_linalg::random::SplitMix64
#[derive(Debug)]
pub struct TrajectoryBatch<'a> {
    /// Each candidate's program until its last chunk is folded; the slot
    /// is emptied then, which frees a program the batch owns.
    programs: Vec<RwLock<Option<Cow<'a, FusedProgram>>>>,
    /// Each candidate's fused op count, for the claim order.
    lens: Vec<usize>,
    seeds: Vec<u64>,
    num_qubits: usize,
    budget_override: Option<usize>,
}

impl<'a> TrajectoryBatch<'a> {
    /// Builds a batch over `programs` with one RNG seed per candidate.
    /// Errors on an empty batch, a seed-count mismatch, or mixed widths.
    pub fn new(programs: Vec<&'a FusedProgram>, seeds: Vec<u64>) -> Result<Self, String> {
        Self::from_programs(programs.into_iter().map(Cow::Borrowed), seeds)
    }

    /// [`new`](Self::new) over borrowed or owned programs.
    fn from_programs(
        programs: impl IntoIterator<Item = Cow<'a, FusedProgram>>,
        seeds: Vec<u64>,
    ) -> Result<Self, String> {
        let programs: Vec<Cow<'a, FusedProgram>> = programs.into_iter().collect();
        if programs.is_empty() {
            return Err("trajectory batch needs at least one candidate".into());
        }
        if programs.len() != seeds.len() {
            return Err(format!(
                "trajectory batch got {} candidates but {} seeds",
                programs.len(),
                seeds.len()
            ));
        }
        let num_qubits = programs[0].num_qubits();
        if let Some(p) = programs.iter().find(|p| p.num_qubits() != num_qubits) {
            return Err(format!(
                "trajectory batch requires uniform width: got {} and {} qubits",
                num_qubits,
                p.num_qubits()
            ));
        }
        Ok(TrajectoryBatch {
            lens: programs.iter().map(|p| p.len()).collect(),
            programs: programs.into_iter().map(|p| RwLock::new(Some(p))).collect(),
            seeds,
            num_qubits,
            budget_override: None,
        })
    }

    /// Caps the live shot states at `bytes` instead of
    /// `QAPROX_BATCH_BYTES` / the default. A cap of one state forces a
    /// single worker; the worker count never changes results.
    pub fn with_arena_budget(mut self, bytes: usize) -> Self {
        self.budget_override = Some(bytes);
        self
    }

    /// Workers the shot loop may use: the thread budget, capped by how many
    /// `2^n` states fit the memory budget (minimum 1).
    fn workers(&self) -> usize {
        let state_bytes = (1usize << self.num_qubits) * std::mem::size_of::<Complex64>();
        let budget = self.budget_override.unwrap_or_else(|| {
            std::env::var("QAPROX_BATCH_BYTES")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(DEFAULT_BATCH_STATE_BYTES)
        });
        thread_budget().min(budget / state_bytes).max(1)
    }

    /// Averages `shots` trajectories per candidate into outcome
    /// distributions (before readout confusion), one row and one
    /// [`HealthReport`] per candidate in input order. See the type docs for
    /// the bit-identity contract.
    ///
    /// Every finished shot is vetted before it reaches the accumulator: a
    /// non-finite amplitude ([`HealthReport::nan_events`]) or a state norm
    /// drifted beyond [`NORM_DRIFT_TOL`] ([`HealthReport::norm_drift_events`])
    /// aborts that candidate's shot, so corrupt trajectories never
    /// contaminate its row. Rows are averaged over each candidate's
    /// clean-shot count, which equals `shots` on a healthy run.
    ///
    /// `cancel` is checked once per candidate-shot: once it reads `true` the
    /// remaining shots are skipped, [`HealthReport::cancelled`] is set, and
    /// the (partial) rows should be discarded by the caller.
    ///
    /// Failpoint `traj.shot` evaluates once per candidate-shot (sleep
    /// actions emulate a stalled kernel; the serve watchdog quarantines jobs
    /// stuck here).
    ///
    /// The batch is consumed: each candidate's program is released as soon
    /// as its last chunk is folded, so an owned program does not outlive
    /// the shots that need it.
    pub fn shot_average_health(
        self,
        shots: usize,
        cancel: Option<&AtomicBool>,
    ) -> (Vec<Vec<f64>>, Vec<HealthReport>) {
        self.run(shots, cancel)
    }

    /// [`shot_average_health`](Self::shot_average_health), emptying each
    /// program slot after its candidate's last chunk.
    fn run(&self, shots: usize, cancel: Option<&AtomicBool>) -> (Vec<Vec<f64>>, Vec<HealthReport>) {
        let n_cand = self.programs.len();
        let chunk = shot_chunk(self.num_qubits);
        let chunks = shots.div_ceil(chunk);
        // item `k` is candidate `k / chunks`, chunk `k % chunks`; claim the
        // longest programs first, ties in (candidate, chunk) order
        let mut order: Vec<usize> = (0..n_cand * chunks).collect();
        order.sort_by_key(|&k| (Reverse(self.lens[k / chunks]), k));
        let reducers: Vec<Mutex<RowReducer>> = (0..n_cand).map(|_| Mutex::default()).collect();
        with_thread_budget(self.workers(), || {
            par_map_range(order.len(), |i| {
                let (g, k) = (order[i] / chunks, order[i] % chunks);
                let lo = k * chunk;
                let partial = {
                    let slot = self.programs[g].read().expect("program slot poisoned");
                    let program = slot.as_deref().expect("released after its last chunk");
                    self.run_chunk(program, self.seeds[g], lo..(lo + chunk).min(shots), cancel)
                };
                let mut reducer = reducers[g].lock().expect("a chunk fold panicked");
                reducer.add(k, partial);
                if reducer.next == chunks {
                    // every chunk of `g` has run and dropped its read guard
                    *self.programs[g].write().expect("program slot poisoned") = None;
                }
            })
        });
        let dim = 1usize << self.num_qubits;
        reducers
            .into_iter()
            .map(|r| {
                let r = r.into_inner().expect("a chunk fold panicked");
                debug_assert_eq!(r.next, chunks, "every chunk folded");
                let mut probs = r.row.unwrap_or_else(|| vec![0.0; dim]);
                if r.health.clean_shots > 0 {
                    let inv = 1.0 / r.health.clean_shots as f64;
                    for x in probs.iter_mut() {
                        *x *= inv;
                    }
                }
                (probs, r.health)
            })
            .unzip()
    }

    /// One work item: `program`'s `shots`, in index order, drawn from
    /// `seed`'s streams in a state of their own and summed into a fresh
    /// accumulator. An item that starts after `cancel` is set allocates
    /// nothing and returns no accumulator.
    fn run_chunk(
        &self,
        program: &FusedProgram,
        seed: u64,
        shots: std::ops::Range<usize>,
        cancel: Option<&AtomicBool>,
    ) -> ChunkPartial {
        let cancelled = || cancel.is_some_and(|f| f.load(Ordering::Relaxed));
        let mut health = HealthReport::default();
        if cancelled() {
            health.cancelled = true;
            return (None, health);
        }
        let dim = 1usize << self.num_qubits;
        let mut state = vec![Complex64::ZERO; dim];
        let mut acc = vec![0.0f64; dim];
        for shot in shots {
            if cancelled() {
                health.cancelled = true;
                break;
            }
            qaprox_fault::fail_point!("traj.shot");
            program.run_shot(&mut state, &mut shot_rng(seed, shot as u64));
            inject_shot_corruption(&mut state);
            match shot_verdict(&state) {
                ShotVerdict::Clean => {
                    health.clean_shots += 1;
                    for (a, z) in acc.iter_mut().zip(&state) {
                        *a += z.norm_sqr();
                    }
                }
                ShotVerdict::Nan => {
                    health.aborted_shots += 1;
                    health.nan_events += 1;
                }
                ShotVerdict::Drift => {
                    health.aborted_shots += 1;
                    health.norm_drift_events += 1;
                }
            }
        }
        (Some(acc), health)
    }
}

/// One work item's accumulator (none when it started cancelled) and health.
type ChunkPartial = (Option<Vec<f64>>, HealthReport);

/// One candidate's row, reduced as its chunk partials complete. Partials
/// fold strictly in chunk order, so the row's bits do not depend on which
/// chunk finishes first; a partial that completes ahead of its turn waits
/// in `early`, and every other one is dropped as soon as it is folded.
#[derive(Default)]
struct RowReducer {
    /// The next chunk to fold.
    next: usize,
    /// The sum of the folded partials; the first one becomes the row
    /// itself (`0.0 + x == x` for the non-negative sums).
    row: Option<Vec<f64>>,
    health: HealthReport,
    early: Vec<(usize, ChunkPartial)>,
}

impl RowReducer {
    fn add(&mut self, chunk: usize, partial: ChunkPartial) {
        self.early.push((chunk, partial));
        while let Some(i) = self.early.iter().position(|&(c, _)| c == self.next) {
            let (_, (acc, health)) = self.early.swap_remove(i);
            match (&mut self.row, acc) {
                (Some(row), Some(acc)) => {
                    for (dst, x) in row.iter_mut().zip(&acc) {
                        *dst += x;
                    }
                }
                (row @ None, acc) => *row = acc,
                (Some(_), None) => {}
            }
            self.health.merge(&health);
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::amplitude_damping;
    use qaprox_device::devices::ourense;
    use qaprox_metrics_shim::total_variation;

    // a tiny local TVD to avoid a dev-dependency cycle
    mod qaprox_metrics_shim {
        pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
            0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
        }
    }

    /// `shots` trajectories of one compiled program as a batch of one,
    /// seeded with the raw `seed` (no backend seed mixed in), before
    /// readout confusion.
    fn solo_average(program: &FusedProgram, shots: usize, seed: u64) -> Vec<f64> {
        TrajectoryBatch::new(vec![program], vec![seed])
            .unwrap()
            .shot_average_health(shots, None)
            .0
            .remove(0)
    }

    /// [`solo_average`] of `circuit` compiled under `model`, plus the
    /// model's readout confusion.
    fn solo_probabilities(
        circuit: &Circuit,
        model: &NoiseModel,
        shots: usize,
        seed: u64,
    ) -> Vec<f64> {
        let program = FusedProgram::compile(circuit, model);
        let mut probs = solo_average(&program, shots, seed);
        fold_readout(program.readout.as_deref(), &mut probs);
        probs
    }

    fn noiseless_cal(n: usize) -> qaprox_device::Calibration {
        use qaprox_device::{Calibration, EdgeCal, QubitCal, Topology};
        use std::collections::BTreeMap;
        let topology = Topology::full(n);
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
    fn noiseless_trajectory_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(0.7, 2);
        let cal = ourense().induced(&[0, 1, 2]).with_uniform_cx_error(0.0);
        let mut model = NoiseModel::from_calibration(cal);
        model.include_relaxation = false;
        model.include_readout = false;
        // ourense sx errors are ~3e-4, so residual 1q depolarizing remains;
        // many trajectories and a loose bound absorb it.
        let probs = solo_probabilities(&c, &model, 200, 42);
        let ideal = crate::statevector::probabilities(&c);
        assert!(total_variation(&probs, &ideal) < 0.02);
    }

    #[test]
    fn fused_unitary_is_exact_on_noiseless_model() {
        // runs of same-support gates — including a swapped-order CX pair —
        // must reproduce the ideal statevector exactly when noise is off
        let mut model = NoiseModel::from_calibration(noiseless_cal(3));
        model.include_relaxation = false;
        model.include_readout = false;
        let mut c = Circuit::new(3);
        c.h(0).rz(0.3, 0).rx(0.2, 0); // 1q run on qubit 0
        c.cx(0, 1).cx(1, 0).cx(0, 1); // 2q run with swapped orientation (a SWAP)
        c.h(2).cx(1, 2).rz(0.9, 2).ry(0.4, 2); // trailing 1q run
        let probs = solo_probabilities(&c, &model, 1, 0);
        let ideal = crate::statevector::probabilities(&c);
        for (a, b) in probs.iter().zip(&ideal) {
            assert!((a - b).abs() < 1e-12, "fused unitary drifted: {a} vs {b}");
        }
    }

    #[test]
    fn fusion_merges_adjacent_same_support_gates() {
        let cal = ourense().induced(&[0, 1]);
        let model = NoiseModel::from_calibration(cal);
        let mut c = Circuit::new(2);
        c.h(0).rz(0.3, 0).rx(0.2, 0); // a 1q run on qubit 0...
        c.cx(0, 1).cx(1, 0); // ...absorbed into the 2q run (pair {0,1})
        c.h(1); // ...which the trailing 1q gate joins too
        let p = FusedProgram::compile(&c, &model);
        assert_eq!(p.len(), 1, "cross-support fusion collapses all 6 gates");
        assert!(!p.is_empty());
        assert_eq!(p.num_qubits(), 2);
    }

    #[test]
    fn cross_support_fusion_does_not_slide_across_blockers() {
        let cal = ourense().induced(&[0, 1, 2]);
        let model = NoiseModel::from_calibration(cal);
        // rz(0) cannot join the first run after cx(0,1) re-touches qubit 0
        // via a *different* pair: cx(0,1), cx(1,2), rz(0) -> run {0,1} then
        // run {1,2} (which cannot absorb anything) then rz joins run 1? No:
        // last toucher of qubit 0 is still run 0, so rz joins run 0, and
        // that is legal — everything between (cx(1,2)) is disjoint from 0.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2).rz(0.5, 0);
        let p = FusedProgram::compile(&c, &model);
        assert_eq!(p.len(), 2, "rz slides back into the first run");
        // but a gate on qubit 1 must NOT fuse anywhere after both runs
        // touched it in turn
        let mut d = Circuit::new(3);
        d.cx(0, 1).cx(1, 2).cx(0, 1);
        let pd = FusedProgram::compile(&d, &model);
        assert_eq!(pd.len(), 3, "pair {{0,1}} was re-touched by pair {{1,2}}");
    }

    #[test]
    fn tfim_layers_fuse_above_one_gate_per_op() {
        // the acceptance target: TFIM Trotter layers (cx rz cx bonds + rx
        // kicks) must compile to strictly fewer fused ops than gates
        let mut c = Circuit::new(3);
        for _ in 0..2 {
            c.cx(0, 1).rz(0.4, 1).cx(0, 1);
            c.cx(1, 2).rz(0.4, 2).cx(1, 2);
            c.rx(0.2, 0).rx(0.2, 1).rx(0.2, 2);
        }
        let cal = ourense().induced(&[0, 1, 2]);
        let model = NoiseModel::from_calibration(cal);
        let p = FusedProgram::compile(&c, &model);
        let ratio = c.len() as f64 / p.len() as f64;
        assert!(
            ratio > 1.0,
            "fusion ratio {ratio:.2} must exceed 1.00 gates/op ({} ops from {} gates)",
            p.len(),
            c.len()
        );
    }

    #[test]
    fn cross_support_fusion_matches_density_matrix() {
        // the fusion-legality soundness test: a circuit exercising every
        // absorption path (1q-joins-2q, StartAbsorbing folds, depolarizing
        // promotion, relaxation conjugation) must still converge to the
        // density-matrix distribution within the Hoeffding envelope
        let mut c = Circuit::new(3);
        c.h(0).rz(0.3, 0); // 1q run later folded by the cx
        c.h(1);
        c.cx(0, 1).rx(0.4, 1).rz(0.2, 0).cx(0, 1); // joins + absorptions
        c.cx(1, 2).rx(0.7, 2).cx(1, 2);
        c.rx(0.2, 0).rx(0.2, 1).rx(0.2, 2);
        let cal = ourense().induced(&[0, 1, 2]).with_uniform_cx_error(0.08);
        let mut model = NoiseModel::from_calibration(cal);
        model.include_readout = false;
        assert!(model.include_relaxation);
        let p = FusedProgram::compile(&c, &model);
        assert!(p.len() < c.len(), "fusion must actually trigger here");
        let dm_probs = model.probabilities(&c);
        let shots = 4000;
        let tj_probs = solo_average(&p, shots, 13);
        let tvd = total_variation(&dm_probs, &tj_probs);
        let envelope = 1.5 * (8.0f64 / shots as f64).sqrt();
        assert!(
            tvd < envelope.min(0.03),
            "cross-support fusion diverged from density matrix: TVD {tvd}"
        );
    }

    #[test]
    fn fused_relaxation_matches_density_through_a_run() {
        // two CX on the same pair with relaxation on: the first CX's Kraus
        // events are conjugated by the second CX at compile time. The
        // averaged trajectories must still converge to the density matrix.
        let mut c = Circuit::new(2);
        c.x(0);
        c.cx(0, 1).cx(0, 1).cx(1, 0);
        let cal = ourense().induced(&[0, 1]).with_uniform_cx_error(0.0);
        let mut model = NoiseModel::from_calibration(cal);
        model.include_readout = false;
        assert!(model.include_relaxation);
        let dm_probs = model.probabilities(&c);
        let tj_probs = solo_probabilities(&c, &model, 4000, 11);
        let tvd = total_variation(&dm_probs, &tj_probs);
        assert!(tvd < 0.02, "conjugated relaxation diverged: TVD {tvd}");
    }

    #[test]
    fn trajectories_converge_to_density_matrix() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rx(0.4, 1).cx(0, 1);
        let cal = ourense().induced(&[0, 1]).with_uniform_cx_error(0.15);
        let model = NoiseModel::from_calibration(cal);
        let dm_probs = model.probabilities(&c);
        let tj_probs = solo_probabilities(&c, &model, 4000, 7);
        let tvd = total_variation(&dm_probs, &tj_probs);
        assert!(
            tvd < 0.03,
            "trajectory average should match density matrix: TVD {tvd}"
        );
    }

    #[test]
    fn convergence_improves_with_shots_within_hoeffding_bounds() {
        // seeded ≤5-qubit circuits: TV distance to the exact density result
        // shrinks as shots grow, and sits within a Hoeffding-style envelope
        // `C * sqrt(dim / shots)`. QAPROX_QUICK trims the seed set for CI.
        let quick = std::env::var("QAPROX_QUICK").is_ok_and(|v| v != "0");
        let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };
        for &cseed in seeds {
            let mut rng = StdRng::seed_from_u64(cseed);
            let n = 3 + (cseed as usize % 3); // 3..=5 qubits
            let mut c = Circuit::new(n);
            for _ in 0..12 {
                let q: usize = rng.gen_range(0..n);
                match rng.gen_range(0..4u8) {
                    0 => {
                        c.h(q);
                    }
                    1 => {
                        c.rz(rng.gen::<f64>() * 3.0, q);
                    }
                    2 => {
                        c.rx(rng.gen::<f64>() * 3.0, q);
                    }
                    _ => {
                        let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                        c.cx(q, p);
                    }
                }
            }
            let cal = noiseless_cal(n).with_uniform_cx_error(0.06);
            let model = NoiseModel::from_calibration(cal);
            let exact = model.probabilities(&c);
            let dim = (1usize << n) as f64;
            let mut last = f64::INFINITY;
            for shots in [128usize, 1024] {
                let tj = solo_probabilities(&c, &model, shots, cseed ^ 0xABCD);
                let tvd = total_variation(&exact, &tj);
                let envelope = 1.5 * (dim / shots as f64).sqrt();
                assert!(
                    tvd < envelope,
                    "seed {cseed} shots {shots}: TVD {tvd} outside envelope {envelope}"
                );
                // more shots must not make things notably worse
                assert!(
                    tvd < last + 0.25 * envelope,
                    "seed {cseed}: TVD grew from {last} to {tvd} at {shots} shots"
                );
                last = tvd;
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // bit-for-bit: the shot chunking is structural and per-shot streams
        // are keyed by shot index, so 1, 2, and 8 worker threads must give
        // *identical* distributions (not merely statistically close).
        use qaprox_linalg::parallel::with_thread_budget;
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).rx(0.4, 2).cx(1, 2).cx(2, 3).rz(0.8, 3);
        let cal = ourense().induced(&[0, 1, 2, 3]);
        let model = NoiseModel::from_calibration(cal);
        // 70 shots -> 5 structural chunks of 16: uneven splits across pools
        let base = with_thread_budget(1, || solo_probabilities(&c, &model, 70, 99));
        for threads in [2usize, 8] {
            let got = with_thread_budget(threads, || solo_probabilities(&c, &model, 70, 99));
            assert_eq!(base, got, "results drifted at {threads} threads");
        }
    }

    /// `ev` as the only event of an identity op on its support.
    fn event_op(ev: &NoiseEvent) -> FusedOp {
        let u = mat4_to_array(&Matrix::identity(4));
        let events = vec![ev.clone()];
        let op = match *ev {
            NoiseEvent::Dep1 { q, .. } | NoiseEvent::Kraus1 { q, .. } => FusedOp::One {
                q,
                u: mat2_to_array(&Matrix::identity(2)),
                events,
                likely: Fold::One {
                    q,
                    m: mat2_to_array(&Matrix::identity(2)),
                },
            },
            NoiseEvent::Dep2 { a, b, .. } | NoiseEvent::Kraus2 { a, b, .. } => FusedOp::Two {
                a,
                b,
                u,
                events,
                likely: Fold::Two { a, b, m: u },
            },
            NoiseEvent::MixedU2 { .. } => unreachable!("a mixed-unitary event needs its run"),
        };
        op.with_likely()
    }

    /// Applies `ev` to `state` as a shot does, pending factor included.
    fn apply_one_event(state: &mut [Complex64], ev: &NoiseEvent, rng: &mut StdRng) {
        let mut shot = ShotState::new(state);
        shot.run_op(&event_op(ev), rng, &mut |_| {});
        shot.finish();
    }

    #[test]
    fn stochastic_kraus_preserves_norm() {
        let mut state = vec![Complex64::ZERO; 4];
        state[3] = Complex64::ONE;
        let mut rng = StdRng::seed_from_u64(1);
        let ev = NoiseEvent::kraus_1q(0, &amplitude_damping(0.3));
        for _ in 0..20 {
            apply_one_event(&mut state, &ev, &mut rng);
            let norm: f64 = state.iter().map(|z| z.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-10);
        }
    }

    /// Every branch norm of a Kraus event on the shot's current state, as
    /// the norm-only sweeps compute them (pending factor included).
    fn branch_norms(shot: &mut ShotState, ev: &NoiseEvent) -> (f64, Vec<f64>) {
        let pre = shot.pre;
        match ev {
            NoiseEvent::Kraus1 { q, ops, floor } => (
                *floor,
                ops.iter()
                    .map(|k| sweep_1q(shot.amps, *q, k, pre, Sweep::NormOnly))
                    .collect(),
            ),
            NoiseEvent::Kraus2 { a, b, ops, floor } => (
                *floor,
                ops.iter()
                    .map(|k| sweep_2q(shot.amps, *a, *b, k, pre, Sweep::NormOnly))
                    .collect(),
            ),
            _ => unreachable!("only Kraus events carry a floor"),
        }
    }

    /// The exact sequential rule on precomputed branch norms.
    fn exact_branch(norms: &[f64], u: f64) -> usize {
        let mut acc = 0.0;
        for (i, n) in norms[..norms.len() - 1].iter().enumerate() {
            acc += n;
            if u < acc {
                return i;
            }
        }
        norms.len() - 1
    }

    /// Holds `ev`'s floor to the shot's state: below the computed norm of
    /// branch 0, and the shot's branch choice equal to the exact rule for
    /// random draws, for draws below the floor and for draws at it.
    fn check_floor(shot: &mut ShotState, ev: &NoiseEvent, rng: &mut StdRng, ctx: &str) {
        let (floor, norms) = branch_norms(shot, ev);
        assert!(
            floor <= norms[0],
            "{ctx}: floor {floor} above ||K0 psi||^2 {}",
            norms[0]
        );
        let draws: Vec<f64> = (0..16)
            .map(|i| {
                let u: f64 = rng.gen();
                if i % 2 == 0 {
                    u
                } else {
                    u * floor.max(0.0)
                }
            })
            .chain([floor, floor - f64::EPSILON, norms[0]])
            .filter(|u| (0.0..1.0).contains(u))
            .collect();
        for u in draws {
            let fast = match ev {
                _ if u < floor => 0,
                NoiseEvent::Kraus1 { q, ops, .. } => shot.price(ops, u, |amps, k, pre| {
                    sweep_1q(amps, *q, k, pre, Sweep::NormOnly)
                }),
                NoiseEvent::Kraus2 { a, b, ops, .. } => shot.price(ops, u, |amps, k, pre| {
                    sweep_2q(amps, *a, *b, k, pre, Sweep::NormOnly)
                }),
                _ => unreachable!(),
            };
            assert_eq!(fast, exact_branch(&norms, u), "{ctx}: u = {u}");
        }
    }

    fn haar2(rng: &mut StdRng) -> [Complex64; 4] {
        mat2_to_array(&qaprox_linalg::random::haar_unitary(2, rng))
    }

    fn haar4(rng: &mut StdRng) -> [Complex64; 16] {
        mat4_to_array(&qaprox_linalg::random::haar_unitary(4, rng))
    }

    #[test]
    fn acceptance_floor_bounds_the_likely_branch() {
        // relaxation channels over random durations and coherence times,
        // conjugated by random unitaries in Kraus1 form, promoted to
        // Kraus2 by a random 2q unitary and conjugated further; states
        // random and normalized, then walked through many random gates and
        // relaxation events so the norm carries rounding and a pending factor
        use crate::channels::thermal_relaxation;
        let n = 6;
        let mut rng = StdRng::seed_from_u64(0xF100_0001);
        let mut high_floors = 0;
        for case in 0..48 {
            let t1: f64 = rng.gen_range(1.0..200.0);
            let t2 = t1 * rng.gen_range(0.1..2.0);
            let t_ns = rng.gen_range(20.0..1500.0);
            let q = rng.gen_range(0..n);
            let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
            let mut ev = NoiseEvent::kraus_1q(q, &thermal_relaxation(t_ns, t1, t2));
            for _ in 0..3 {
                conjugate_event_1q(&mut ev, &haar2(&mut rng));
            }
            let kraus1 = ev.clone();
            let (ra, rb) = if rng.gen::<f64>() < 0.5 {
                (q, p)
            } else {
                (p, q)
            };
            conjugate_event_2q(&mut ev, ra, rb, &haar4(&mut rng));
            conjugate_event_by_1q(&mut ev, ra, rb, &haar2(&mut rng));
            conjugate_event_2q(&mut ev, ra, rb, &haar4(&mut rng));
            let kraus2 = ev;
            assert!(matches!(kraus2, NoiseEvent::Kraus2 { .. }));
            let (NoiseEvent::Kraus1 { floor: f1, .. }, NoiseEvent::Kraus2 { floor: f2, .. }) =
                (&kraus1, &kraus2)
            else {
                unreachable!()
            };
            assert_eq!(f1.to_bits(), f2.to_bits(), "promotion keeps the floor");
            if *f1 > 0.5 {
                high_floors += 1;
            }

            let mut amps = qaprox_linalg::random::random_statevector(1 << n, &mut rng);
            let mut shot = ShotState::new(&mut amps);
            for step in 0..40 {
                let ctx = format!("case {case} step {step}");
                check_floor(&mut shot, &kraus1, &mut rng, &format!("{ctx} Kraus1"));
                check_floor(&mut shot, &kraus2, &mut rng, &format!("{ctx} Kraus2"));
                // advance the state: a random gate, then a relaxation event
                let a = rng.gen_range(0..n);
                let gate = if rng.gen::<f64>() < 0.5 {
                    Fold::One {
                        q: a,
                        m: haar2(&mut rng),
                    }
                } else {
                    let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                    Fold::Two {
                        a,
                        b,
                        m: haar4(&mut rng),
                    }
                };
                shot.sweep(&gate, false);
                let ev = if step % 2 == 0 { &kraus1 } else { &kraus2 };
                shot.run_op(&event_op(ev), &mut rng, &mut |_| {});
            }
            shot.finish();
            let norm: f64 = amps.iter().map(|z| z.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-12, "case {case}: norm {norm}");
        }
        assert!(
            high_floors > 12,
            "only {high_floors} of 48 floors above 0.5"
        );
    }

    /// The event-by-event reference shot loop: each op's gate, then each
    /// event as sweeps of its own, Kraus branches priced by the exact
    /// sequential rule (no acceptance floor) and every chosen branch
    /// renormalized by a separate pass. Draws come from `rng` in the same
    /// order as the fused loop's, and `branches` gets each event's branch
    /// in the fused loop's encoding. Returns how many relaxation draws
    /// fell at or past their event's acceptance floor (the fused loop's
    /// flushes).
    fn reference_shot(
        program: &FusedProgram,
        state: &mut [Complex64],
        rng: &mut StdRng,
        branches: &mut Vec<usize>,
    ) -> usize {
        fn pauli(state: &mut [Complex64], q: usize, rng: &mut StdRng) -> usize {
            let which: u8 = rng.gen_range(0..4);
            if which > 0 {
                sweep_1q(state, q, &PAULIS[which as usize - 1], 1.0, Sweep::Store);
            }
            which as usize
        }
        fn apply_kraus<K>(
            state: &mut [Complex64],
            ops: &[K],
            u: f64,
            sweep: impl Fn(&mut [Complex64], &K, Sweep) -> f64,
        ) -> usize {
            let norms: Vec<f64> = ops
                .iter()
                .map(|k| sweep(state, k, Sweep::NormOnly))
                .collect();
            let k = exact_branch(&norms, u);
            let norm = sweep(state, &ops[k], Sweep::Store);
            scale(state, renormalization(norm));
            k
        }
        state.fill(Complex64::ZERO);
        state[0] = Complex64::ONE;
        let mut past_floor = 0;
        for op in &program.ops {
            Fold::of(op).sweep(state, 1.0, Sweep::Store);
            for ev in op.events() {
                let branch = match ev {
                    NoiseEvent::Dep1 { q, lambda } => {
                        if rng.gen::<f64>() < *lambda {
                            1 + pauli(state, *q, rng)
                        } else {
                            0
                        }
                    }
                    NoiseEvent::Dep2 { a, b, lambda } => {
                        if rng.gen::<f64>() < *lambda {
                            let wa = pauli(state, *a, rng);
                            1 + 4 * wa + pauli(state, *b, rng)
                        } else {
                            0
                        }
                    }
                    NoiseEvent::MixedU2 { branches } => {
                        let FusedOp::Two { a, b, .. } = op else {
                            unreachable!("mixed-unitary events sit in 2q runs")
                        };
                        let u: f64 = rng.gen();
                        let mut acc = 0.0;
                        match branches.iter().position(|(w, _)| {
                            acc += w;
                            u < acc
                        }) {
                            Some(k) => {
                                sweep_2q(state, *a, *b, &branches[k].1, 1.0, Sweep::Store);
                                k + 1
                            }
                            None => 0,
                        }
                    }
                    NoiseEvent::Kraus1 { q, ops, floor } => {
                        let u: f64 = rng.gen();
                        past_floor += usize::from(u >= *floor);
                        apply_kraus(state, ops, u, |s, k, mode| sweep_1q(s, *q, k, 1.0, mode))
                    }
                    NoiseEvent::Kraus2 { a, b, ops, floor } => {
                        let u: f64 = rng.gen();
                        past_floor += usize::from(u >= *floor);
                        apply_kraus(state, ops, u, |s, k, mode| {
                            sweep_2q(s, *a, *b, k, 1.0, mode)
                        })
                    }
                };
                branches.push(branch);
            }
        }
        past_floor
    }

    /// A random `n`-qubit calibration on a full topology: gate errors up to
    /// a few percent and, in `short` cases, coherence times of a few
    /// microseconds, so relaxation draws past the acceptance floor are
    /// common.
    fn random_cal(n: usize, short: bool, rng: &mut StdRng) -> qaprox_device::Calibration {
        let mut cal = noiseless_cal(n);
        for q in &mut cal.qubits {
            q.t1_us = if short {
                rng.gen_range(1.0..6.0)
            } else {
                rng.gen_range(20.0..200.0)
            };
            q.t2_us = q.t1_us * rng.gen_range(0.2..2.0);
            q.sx_error = rng.gen_range(0.0..0.05);
            q.sx_time_ns = rng.gen_range(20.0..120.0);
        }
        for e in cal.edges.values_mut() {
            e.cx_error = rng.gen_range(0.0..0.15);
            e.cx_time_ns = rng.gen_range(100.0..1500.0);
        }
        cal
    }

    /// A random circuit of `len` gates over `n` qubits.
    fn random_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..len {
            let q = rng.gen_range(0..n);
            let theta = rng.gen::<f64>() * 6.0;
            match rng.gen_range(0..5u8) {
                0 => c.h(q),
                1 => c.rz(theta, q),
                2 => c.rx(theta, q),
                3 => c.ry(theta, q),
                _ => c.cx(q, (q + 1 + rng.gen_range(0..n - 1)) % n),
            };
        }
        c
    }

    /// [`FusedProgram::run_shot_observed`] with the whole state live from
    /// the first op: the shot loop without its light cone.
    fn full_width_shot(
        program: &FusedProgram,
        state: &mut [Complex64],
        rng: &mut StdRng,
        observe: impl FnMut(usize),
    ) {
        state.fill(Complex64::ZERO);
        state[0] = Complex64::ONE;
        program.run_ops(ShotState::new(state), rng, observe);
    }

    /// A circuit whose first gates widen the light cone in one of four
    /// ways (`shape`), then a random tail: 0 touches the top qubit first,
    /// 1 the middle qubits, 2 climbs a chain from qubit 0 as the TFIM
    /// programs do, 3 climbs with 1q gates only.
    fn light_cone_circuit(n: usize, shape: usize, rng: &mut StdRng) -> Circuit {
        let mut c = Circuit::new(n);
        let theta = |rng: &mut StdRng| rng.gen::<f64>() * 6.0;
        match shape {
            0 => {
                c.rx(theta(rng), n - 1).cx(n - 1, 0);
            }
            1 => {
                c.h(n / 2).cx(n / 2, n / 2 - 1).rz(theta(rng), n / 2 - 1);
            }
            2 => {
                c.h(0);
                for q in 0..n - 1 {
                    c.cx(q, q + 1).rz(theta(rng), q + 1).cx(q, q + 1);
                }
            }
            _ => {
                for q in 0..n {
                    c.rx(theta(rng), q).ry(theta(rng), q);
                }
            }
        }
        let tail_len = rng.gen_range(4..20);
        c.extend(&random_circuit(n, tail_len, rng));
        c
    }

    #[test]
    fn light_cone_shots_match_full_width_shots_bit_for_bit() {
        // random light-cone shapes and calibrations, short coherence times
        // in half the cases, so relaxation branches are priced and flushed
        // while the prefix is still narrow: every shot must pick the
        // branches the full-width loop picks, end with the same amplitudes
        // (exact zeros up to sign) and the same probabilities to the bit,
        // and a batch row must equal the full-width shots' row to the bit.
        // The shots reuse a buffer left dirty by NaNs and earlier shots,
        // which must not matter either.
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            // `+ 0.0` maps -0 to +0 and leaves every other value alone
            v.iter()
                .map(|z| ((z.re + 0.0).to_bits(), (z.im + 0.0).to_bits()))
                .collect()
        };
        let prob_bits =
            |v: &[Complex64]| -> Vec<u64> { v.iter().map(|z| z.norm_sqr().to_bits()).collect() };
        let exact = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let mut rng = StdRng::seed_from_u64(0x11C0_0001);
        let (mut narrow_ops, mut narrow_branches) = (0usize, 0usize);
        for case in 0..48u64 {
            let n = rng.gen_range(2..8);
            let shape = case as usize % 4;
            let short = case % 8 < 4;
            let mut model = NoiseModel::from_calibration(random_cal(n, short, &mut rng));
            model.include_readout = false;
            let circuit = light_cone_circuit(n, shape, &mut rng);
            let program = FusedProgram::compile(&circuit, &model);
            let dim = 1usize << n;
            let mut dirty = vec![Complex64::new(f64::NAN, f64::NAN); dim];
            let (mut fresh, mut full) = (vec![], vec![Complex64::ZERO; dim]);
            let mut row = vec![0.0f64; dim];
            let shots = 16u64;
            for shot in 0..shots {
                let mut got = Vec::new();
                program.run_shot_observed(&mut dirty, &mut shot_rng(case, shot), |b| got.push(b));
                let mut want = Vec::new();
                full_width_shot(&program, &mut full, &mut shot_rng(case, shot), |b| {
                    want.push(b)
                });
                let ctx = format!("case {case} (shape {shape}, {n}q) shot {shot}");
                assert_eq!(got, want, "{ctx}: branches differ");
                assert_eq!(bits(&dirty), bits(&full), "{ctx}: amplitudes differ");
                assert_eq!(prob_bits(&dirty), prob_bits(&full), "{ctx}: probabilities");
                fresh.clear();
                fresh.resize(dim, Complex64::ZERO);
                program.run_shot(&mut fresh, &mut shot_rng(case, shot));
                assert_eq!(exact(&dirty), exact(&fresh), "{ctx}: dirty buffer");
                for (a, z) in row.iter_mut().zip(&full) {
                    *a += z.norm_sqr();
                }
                // the relaxation branches past 0 taken by ops that ran on
                // a prefix narrower than the state: each one was priced
                let mut events = want.iter();
                for op in &program.ops {
                    let narrow = 2 << op.top_qubit() < dim;
                    narrow_ops += usize::from(narrow);
                    for ev in op.events() {
                        let branch = *events.next().expect("one branch per event");
                        let kraus =
                            matches!(ev, NoiseEvent::Kraus1 { .. } | NoiseEvent::Kraus2 { .. });
                        narrow_branches += usize::from(narrow && kraus && branch > 0);
                    }
                }
            }
            for x in row.iter_mut() {
                *x *= 1.0 / shots as f64;
            }
            let batch = solo_average(&program, shots as usize, case);
            let row_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(row_bits(&batch), row_bits(&row), "case {case}: row differs");
        }
        assert!(
            narrow_ops > 1000,
            "only {narrow_ops} ops ran inside the cone"
        );
        assert!(
            narrow_branches > 50,
            "only {narrow_branches} relaxation branches priced inside the cone"
        );
    }

    #[test]
    fn a_non_finite_coefficient_still_poisons_the_shot() {
        // a NaN or infinite matrix entry in an op that runs while the
        // prefix is narrow, and in the last op: the shot must still end
        // non-finite, so the sentinel aborts it
        let mut model = NoiseModel::from_calibration(noiseless_cal(4));
        model.include_readout = false;
        let mut c = Circuit::new(4);
        c.h(0)
            .cx(0, 1)
            .rz(0.3, 1)
            .cx(1, 2)
            .rx(0.2, 2)
            .cx(2, 3)
            .ry(0.4, 3);
        let program = FusedProgram::compile(&c, &model);
        assert!(program.len() >= 3 && 2 << program.ops[0].top_qubit() < 16);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (op, entry) in [(0, 1), (0, 3), (program.len() - 1, 2)] {
                let mut broken = program.clone();
                let poison = |m: &mut [Complex64]| m[entry] = Complex64::new(bad, 0.0);
                match &mut broken.ops[op] {
                    FusedOp::One { u, likely, .. } => {
                        poison(u);
                        let Fold::One { m, .. } = likely else {
                            unreachable!()
                        };
                        poison(m);
                    }
                    FusedOp::Two { u, likely, .. } => {
                        poison(u);
                        let Fold::Two { m, .. } = likely else {
                            unreachable!()
                        };
                        poison(m);
                    }
                }
                let mut state = vec![Complex64::ZERO; 16];
                broken.run_shot(&mut state, &mut shot_rng(1, 0));
                assert!(
                    matches!(shot_verdict(&state), ShotVerdict::Nan),
                    "{bad} at op {op} entry {entry} did not end in a NaN verdict"
                );
            }
        }
    }

    #[test]
    fn folded_ops_match_the_event_by_event_reference() {
        // random circuits and calibrations, short coherence times in half
        // the cases: every shot of the fused loop must pick the branches
        // the event-by-event reference picks from the same RNG stream, and
        // end in the same state to within rounding
        let mut rng = StdRng::seed_from_u64(0xF01D_0001);
        let (mut events, mut flushes) = (0usize, 0usize);
        for case in 0..40 {
            let n = rng.gen_range(2..6);
            let short = case % 2 == 0;
            let mut model = NoiseModel::from_calibration(random_cal(n, short, &mut rng));
            model.include_readout = false;
            let circuit = random_circuit(n, rng.gen_range(8..30), &mut rng);
            let program = FusedProgram::compile(&circuit, &model);
            let (mut fused, mut reference) = (vec![Complex64::ZERO; 1 << n], vec![]);
            reference.resize(1 << n, Complex64::ZERO);
            for shot in 0..24u64 {
                let mut got = Vec::new();
                program.run_shot_observed(&mut fused, &mut shot_rng(case, shot), |b| got.push(b));
                let mut want = Vec::new();
                flushes += reference_shot(
                    &program,
                    &mut reference,
                    &mut shot_rng(case, shot),
                    &mut want,
                );
                assert_eq!(got, want, "case {case} shot {shot}: branches differ");
                let drift = fused
                    .iter()
                    .zip(&reference)
                    .map(|(x, y)| (*x - *y).norm_sqr().sqrt())
                    .fold(0.0, f64::max);
                assert!(
                    drift < 1e-12,
                    "case {case} shot {shot}: states differ by {drift:e}"
                );
                events += want.len();
            }
        }
        assert!(events > 10_000, "only {events} events sampled");
        assert!(
            flushes > 500,
            "only {flushes} relaxation draws past the floor"
        );
    }

    #[test]
    fn amplitude_damping_statistics() {
        // |1> under repeated stochastic damping: excited population decays
        let gamma: f64 = 0.2;
        let trials = 3000;
        let mut stays = 0usize;
        for t in 0..trials {
            let mut state = vec![Complex64::ZERO, Complex64::ONE];
            let mut rng = StdRng::seed_from_u64(t as u64);
            let ev = NoiseEvent::kraus_1q(0, &amplitude_damping(gamma));
            apply_one_event(&mut state, &ev, &mut rng);
            if state[1].norm_sqr() > 0.5 {
                stays += 1;
            }
        }
        let p_stay = stays as f64 / trials as f64;
        assert!((p_stay - (1.0 - gamma)).abs() < 0.03, "P(stay) = {p_stay}");
    }

    #[test]
    fn seeded_trajectories_are_deterministic() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let cal = ourense().induced(&[0, 1]);
        let model = NoiseModel::from_calibration(cal);
        let a = solo_probabilities(&c, &model, 50, 9);
        let b = solo_probabilities(&c, &model, 50, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn backend_seeds_jobs_independently() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let cal = ourense().induced(&[0, 1]);
        let tb = TrajectoryBackend::with_shots(NoiseModel::from_calibration(cal), 64);
        assert_eq!(tb.shots(), 64);
        assert_eq!(tb.probabilities(&c, 5), tb.probabilities(&c, 5));
        assert_ne!(tb.probabilities(&c, 5), tb.probabilities(&c, 6));
        assert_eq!(tb.model().num_qubits(), 2);
    }

    #[test]
    fn scales_beyond_density_matrix_comfort_zone() {
        // 10 qubits: statevector trajectories are fine where rho would be 4^10.
        let n = 10;
        let mut c = Circuit::new(n);
        for q in 0..n - 1 {
            c.h(q);
            c.cx(q, q + 1);
        }
        let cal = {
            // synthetic linear device of 10 qubits
            use qaprox_device::{Calibration, EdgeCal, QubitCal, Topology};
            use std::collections::BTreeMap;
            let topology = Topology::linear(n);
            let qubits = vec![
                QubitCal {
                    readout_error: 0.02,
                    t1_us: 80.0,
                    t2_us: 70.0,
                    sx_error: 3e-4,
                    sx_time_ns: 35.0,
                };
                n
            ];
            let mut edges = BTreeMap::new();
            for &e in topology.edges() {
                edges.insert(
                    e,
                    EdgeCal {
                        cx_error: 0.01,
                        cx_time_ns: 300.0,
                    },
                );
            }
            Calibration {
                machine: "line10".into(),
                topology,
                qubits,
                edges,
            }
        };
        let model = NoiseModel::from_calibration(cal);
        let probs = solo_probabilities(&c, &model, 20, 3);
        assert_eq!(probs.len(), 1 << n);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    // -- shot-batched multi-candidate evaluation --------------------------

    fn candidate_circuits(n_cand: usize) -> Vec<Circuit> {
        (0..n_cand)
            .map(|i| {
                let mut c = Circuit::new(3);
                c.h(0).cx(0, 1).rx(0.2 + 0.15 * i as f64, 1).cx(1, 2);
                c.rz(0.5 + 0.1 * i as f64, 2);
                c
            })
            .collect()
    }

    #[test]
    fn batch_is_bit_identical_to_independent_runs() {
        let cal = ourense().induced(&[0, 1, 2]).with_uniform_cx_error(0.05);
        let model = NoiseModel::from_calibration(cal);
        let circuits = candidate_circuits(4);
        let programs: Vec<FusedProgram> = circuits
            .iter()
            .map(|c| FusedProgram::compile(c, &model))
            .collect();
        let seeds: Vec<u64> = (0..4u64).map(|i| 0xB00 ^ i).collect();
        let shots = 70; // uneven chunk split: 5 structural chunks of 16
        let batch = TrajectoryBatch::new(programs.iter().collect(), seeds.clone()).unwrap();
        let (rows, _health) = batch.shot_average_health(shots, None);
        for (g, prog) in programs.iter().enumerate() {
            let solo = solo_average(prog, shots, seeds[g]);
            assert_eq!(rows[g], solo, "candidate {g} drifted from its solo run");
        }
    }

    #[test]
    fn batch_work_items_match_solo_runs() {
        // candidates of unequal fused length, so the longest-first claim
        // order differs from input order, and 70 shots, so every candidate
        // spans 5 chunks: rows and health must equal batches of one at any
        // thread budget and under a one-state cap (a single worker)
        use qaprox_linalg::parallel::with_thread_budget;
        let cal = ourense().induced(&[0, 1, 2]).with_uniform_cx_error(0.05);
        let model = NoiseModel::from_calibration(cal);
        let mut circuits = candidate_circuits(3);
        circuits[1].cx(0, 1).rx(0.4, 0).cx(1, 2).ry(0.2, 2);
        circuits[2].cx(0, 1);
        let programs: Vec<FusedProgram> = circuits
            .iter()
            .map(|c| FusedProgram::compile(c, &model))
            .collect();
        let lens: Vec<usize> = programs.iter().map(FusedProgram::len).collect();
        assert!(lens[1] > lens[2] && lens[2] > lens[0], "lengths {lens:?}");
        let seeds = vec![7u64, 8, 9];
        let shots = 70;
        let solo: Vec<(Vec<f64>, HealthReport)> = programs
            .iter()
            .zip(&seeds)
            .map(|(p, &seed)| {
                let (mut rows, mut health) = TrajectoryBatch::new(vec![p], vec![seed])
                    .unwrap()
                    .shot_average_health(shots, None);
                (rows.remove(0), health.remove(0))
            })
            .collect();
        let one_state = (1 << 3) * std::mem::size_of::<Complex64>();
        for threads in [1usize, 2, 8] {
            for cap in [None, Some(one_state)] {
                let (rows, health) = with_thread_budget(threads, || {
                    let batch =
                        TrajectoryBatch::new(programs.iter().collect(), seeds.clone()).unwrap();
                    match cap {
                        Some(bytes) => batch.with_arena_budget(bytes),
                        None => batch,
                    }
                    .shot_average_health(shots, None)
                });
                for (g, (row, h)) in solo.iter().enumerate() {
                    assert_eq!(&rows[g], row, "row {g} at {threads} threads, cap {cap:?}");
                    assert_eq!(&health[g], h, "health {g} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn row_reducer_folds_in_chunk_order_whatever_the_arrival() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let partials: Vec<ChunkPartial> = (0..7u64)
            .map(|i| {
                let acc = (0..8).map(|_| rng.gen::<f64>()).collect();
                let health = HealthReport {
                    clean_shots: i + 1,
                    ..HealthReport::default()
                };
                (Some(acc), health)
            })
            .collect();
        let mut sequential = partials[0].0.clone().unwrap();
        for (acc, _) in &partials[1..] {
            for (dst, x) in sequential.iter_mut().zip(acc.as_ref().unwrap()) {
                *dst += x;
            }
        }
        for arrival in [
            [0, 1, 2, 3, 4, 5, 6],
            [3, 1, 0, 6, 2, 5, 4],
            [6, 5, 4, 3, 2, 1, 0],
        ] {
            let mut r = RowReducer::default();
            for c in arrival {
                r.add(c, partials[c].clone());
                assert!(r.early.iter().all(|&(e, _)| e > r.next), "folded late");
            }
            assert_eq!(r.next, 7);
            assert!(r.early.is_empty());
            assert_eq!(r.health.clean_shots, 28);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(r.row.as_ref().unwrap()),
                bits(&sequential),
                "{arrival:?}"
            );
        }
        // a chunk that started cancelled brings no accumulator
        let mut r = RowReducer::default();
        let cancelled = HealthReport {
            cancelled: true,
            ..HealthReport::default()
        };
        r.add(1, (None, cancelled));
        r.add(0, partials[0].clone());
        assert_eq!(r.row, partials[0].0);
        assert!(r.health.cancelled && r.early.is_empty());
        // no shots, no items: an all-zero row and an empty report
        let cal = ourense().induced(&[0, 1]);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let program = FusedProgram::compile(&c, &NoiseModel::from_calibration(cal));
        let (rows, health) = TrajectoryBatch::new(vec![&program], vec![1])
            .unwrap()
            .shot_average_health(0, None);
        assert_eq!(rows, vec![vec![0.0; 4]]);
        assert_eq!(health, vec![HealthReport::default()]);
    }

    #[test]
    fn batch_releases_each_program_after_its_last_chunk() {
        // owned programs of unequal length over several chunks each: every
        // slot is empty once the run returns, and the rows equal a batch
        // over borrowed programs
        let cal = ourense().induced(&[0, 1, 2]).with_uniform_cx_error(0.05);
        let model = NoiseModel::from_calibration(cal);
        let mut circuits = candidate_circuits(3);
        circuits[1].cx(0, 1).rx(0.4, 0).cx(1, 2);
        let programs: Vec<FusedProgram> = circuits
            .iter()
            .map(|c| FusedProgram::compile(c, &model))
            .collect();
        let seeds = vec![4u64, 5, 6];
        let borrowed = TrajectoryBatch::new(programs.iter().collect(), seeds.clone())
            .unwrap()
            .shot_average_health(70, None);
        let owned =
            TrajectoryBatch::from_programs(programs.into_iter().map(Cow::Owned), seeds).unwrap();
        assert!(owned.programs.iter().all(|p| p.read().unwrap().is_some()));
        assert_eq!(owned.run(70, None), borrowed);
        assert!(owned.programs.iter().all(|p| p.read().unwrap().is_none()));
    }

    #[test]
    fn batch_thread_count_does_not_change_results() {
        use qaprox_linalg::parallel::with_thread_budget;
        let cal = ourense().induced(&[0, 1, 2]).with_uniform_cx_error(0.05);
        let model = NoiseModel::from_calibration(cal);
        let circuits = candidate_circuits(3);
        let programs: Vec<FusedProgram> = circuits
            .iter()
            .map(|c| FusedProgram::compile(c, &model))
            .collect();
        let seeds = vec![1u64, 2, 3];
        let base = with_thread_budget(1, || {
            TrajectoryBatch::new(programs.iter().collect(), seeds.clone())
                .unwrap()
                .shot_average_health(70, None)
                .0
        });
        for threads in [2usize, 8] {
            let got = with_thread_budget(threads, || {
                TrajectoryBatch::new(programs.iter().collect(), seeds.clone())
                    .unwrap()
                    .shot_average_health(70, None)
                    .0
            });
            assert_eq!(base, got, "batch drifted at {threads} threads");
        }
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        let cal = ourense().induced(&[0, 1, 2]);
        let model = NoiseModel::from_calibration(cal);
        assert!(TrajectoryBatch::new(Vec::new(), Vec::new())
            .unwrap_err()
            .contains("at least one"));
        let c3 = candidate_circuits(1).remove(0);
        let p3 = FusedProgram::compile(&c3, &model);
        assert!(TrajectoryBatch::new(vec![&p3], vec![1, 2])
            .unwrap_err()
            .contains("seeds"));
        let mut c2 = Circuit::new(2);
        c2.h(0).cx(0, 1);
        let cal2 = ourense().induced(&[0, 1]);
        let model2 = NoiseModel::from_calibration(cal2);
        let p2 = FusedProgram::compile(&c2, &model2);
        assert!(TrajectoryBatch::new(vec![&p3, &p2], vec![1, 2])
            .unwrap_err()
            .contains("uniform width"));
    }

    #[test]
    fn backend_batch_matches_solo_probabilities() {
        // index-seeded entry point: row i == probabilities(c_i, i), bitwise
        let cal = ourense().induced(&[0, 1, 2]).with_uniform_cx_error(0.05);
        let tb = TrajectoryBackend::with_shots(NoiseModel::from_calibration(cal), 48);
        let circuits = candidate_circuits(3);
        let rows = tb.probabilities_batch(&circuits).unwrap();
        for (i, c) in circuits.iter().enumerate() {
            assert_eq!(rows[i], tb.probabilities(c, i as u64), "row {i}");
        }
        // shared-seed entry point: row i == probabilities(c_i, job_seed)
        let refs: Vec<&Circuit> = circuits.iter().collect();
        let seeded = tb.execute(&refs, &[77; 3]).unwrap().rows;
        for (i, c) in circuits.iter().enumerate() {
            assert_eq!(seeded[i], tb.probabilities(c, 77), "seeded row {i}");
        }
        // readout confusion is folded per row (totals stay normalized)
        for row in &rows {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn backend_batch_rejects_mixed_widths() {
        let cal = ourense().induced(&[0, 1, 2]);
        let tb = TrajectoryBackend::with_shots(NoiseModel::from_calibration(cal), 16);
        let mut narrow = Circuit::new(2);
        narrow.h(0).cx(0, 1);
        let wide = candidate_circuits(1).remove(0);
        let err = tb.probabilities_batch(&[wide, narrow]).unwrap_err();
        assert!(err.contains("uniform width"), "got: {err}");
        let err = tb.execute(&[], &[]).unwrap_err();
        assert!(err.contains("at least one"), "got: {err}");
    }

    #[test]
    fn health_report_is_clean_on_a_clean_run() {
        let cal = ourense().induced(&[0, 1]);
        let tb = TrajectoryBackend::with_shots(NoiseModel::from_calibration(cal), 32);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let run = tb.execute(&[&c], &[7]).unwrap();
        let health = run.health[0];
        assert_eq!(
            health,
            HealthReport {
                clean_shots: 32,
                ..HealthReport::default()
            }
        );
        assert!(health.is_healthy());
        // a solo job is exactly this batch of one
        assert_eq!(run.rows[0], tb.probabilities(&c, 7));
    }

    #[test]
    fn cancel_token_stops_a_run_at_shot_granularity() {
        let cal = ourense().induced(&[0, 1]);
        let flag = Arc::new(AtomicBool::new(true)); // cancelled before shot 0
        let tb = TrajectoryBackend::with_shots(NoiseModel::from_calibration(cal), 64)
            .with_cancel(Arc::clone(&flag));
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let health = tb.execute(&[&c], &[0]).unwrap().health[0];
        assert!(health.cancelled, "pre-set token must stop the run");
        assert_eq!(health.clean_shots, 0);
        // clearing the token restores a full clean run
        flag.store(false, Ordering::Relaxed);
        let health = tb.execute(&[&c], &[0]).unwrap().health[0];
        assert!(health.is_healthy());
        assert_eq!(health.clean_shots, 64);
    }
}
