//! Job specifications and their content-address fingerprints.
//!
//! A [`JobSpec`] is the wire-level description of one unit of work: either
//! synthesize a population ([`SynthSpec`]) or synthesize-and-execute it on a
//! backend ([`RunSpec`]). Specs deliberately mirror the `qaprox synth` /
//! `qaprox run` CLI options so a spec, a command line, and a cache key all
//! describe the same computation. Fingerprints are canonical `k=v;` strings
//! (floats printed `{:.17e}`) and feed the store's 128-bit keys.

use qaprox::prelude::*;
use qaprox_sim::{TrajectoryBackend, DEFAULT_TRAJECTORY_SHOTS};
use qaprox_store::json::Json;
use qaprox_store::key::{population_key, result_key, Key};
use qaprox_synth::InstantiateConfig;

/// Widest circuit synthesis (and the density-matrix backend) accepts: both
/// need the dense `2^n x 2^n` target unitary. Run jobs wider than this take
/// the trajectory-only wide path (TFIM workloads, no synthesis).
pub const MAX_SYNTH_QUBITS: usize = 6;

/// A synthesis job: workload + synthesis budget + seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Reference workload: `tfim`, `grover`, or `toffoli`.
    pub workload: String,
    /// Circuit width (2..=6 for synthesis; trajectory-backed run jobs may
    /// go wider, see [`RunSpec::reference_circuit`]).
    pub qubits: usize,
    /// TFIM timestep count (ignored by other workloads).
    pub steps: usize,
    /// QSearch CNOT cap.
    pub max_cnots: usize,
    /// QSearch node budget.
    pub max_nodes: usize,
    /// Selection threshold on HS distance.
    pub max_hs: f64,
    /// Instantiation seed.
    pub seed: u64,
    /// Optional client deadline: a wall-clock budget in milliseconds,
    /// measured from submission. The scheduler sheds the job (without
    /// dispatching it) once the budget lapses, and workers propagate the
    /// remaining budget as a cancellation deadline so expired work stops at
    /// shot/wave granularity. The deadline describes *when* the answer is
    /// still wanted, not *what* is computed — it is deliberately excluded
    /// from every fingerprint and store key.
    pub deadline_ms: Option<u64>,
}

impl Default for SynthSpec {
    fn default() -> Self {
        SynthSpec {
            workload: "tfim".into(),
            qubits: 3,
            steps: 6,
            max_cnots: 6,
            max_nodes: 150,
            max_hs: 0.12,
            seed: 0,
            deadline_ms: None,
        }
    }
}

/// An execution job: a synthesis spec plus the backend to score it on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// What to synthesize.
    pub synth: SynthSpec,
    /// Device calibration name (`ourense`, `rome`, ...).
    pub device: String,
    /// Optional uniform CNOT-error override.
    pub cx_error: Option<f64>,
    /// Use the hardware-emulation backend.
    pub hardware: bool,
    /// Seed for the backend's stochastic noise channels.
    pub job_seed: u64,
    /// Backend override: `Some("trajectory")` scores on the Monte-Carlo
    /// trajectory backend (`2^n` per shot) instead of the `4^n` density
    /// matrix. Required — and the only valid value — for wide runs
    /// (`qubits > MAX_SYNTH_QUBITS`). `None` keeps the pre-trajectory
    /// behaviour and cache keys.
    pub backend: Option<String>,
    /// Trajectory shot count (`None` = [`DEFAULT_TRAJECTORY_SHOTS`]).
    /// Ignored unless `backend` is set.
    pub shots: Option<usize>,
    /// ε-equivalence tolerance. `Some` opts the run into the QA5xx
    /// certified machinery: candidates proven within ε of the reference are
    /// scored statically (no backend), and a resubmission whose reference is
    /// provably equivalent to an already-stored run's is answered from the
    /// store without synthesizing or simulating at all. `None` (the
    /// default) keeps the exact pre-certification behaviour and cache keys.
    pub epsilon: Option<f64>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            synth: SynthSpec::default(),
            device: "ourense".into(),
            cx_error: None,
            hardware: false,
            job_seed: 0,
            backend: None,
            shots: None,
            epsilon: None,
        }
    }
}

/// One unit of work the service schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Synthesize a population.
    Synth(SynthSpec),
    /// Synthesize and execute on a backend.
    Run(RunSpec),
}

/// Swaps adjacent instruction pairs with disjoint qubit support in one
/// greedy left-to-right pass. The output implements the same noisy channel
/// as the input (channels on disjoint subsystems commute) but serializes to
/// different QASM, so it content-addresses differently everywhere.
pub fn commuting_reorder(c: &Circuit) -> Circuit {
    let mut insts: Vec<qaprox_circuit::Instruction> = c.instructions().to_vec();
    let mut i = 0;
    while i + 1 < insts.len() {
        let disjoint = insts[i]
            .qubits
            .iter()
            .all(|q| !insts[i + 1].qubits.contains(q));
        if disjoint {
            insts.swap(i, i + 1);
            i += 2;
        } else {
            i += 1;
        }
    }
    let mut out = Circuit::new(c.num_qubits());
    for inst in &insts {
        out.push(inst.gate.clone(), &inst.qubits);
    }
    out
}

impl SynthSpec {
    /// Builds the reference circuit (mirrors the CLI's workload options).
    /// Caps at [`MAX_SYNTH_QUBITS`]: synthesis jobs need the dense target
    /// unitary. Wide TFIM references exist for trajectory-backed run jobs —
    /// see [`SynthSpec::wide_reference_circuit`].
    pub fn reference_circuit(&self) -> Result<Circuit, String> {
        if !(2..=MAX_SYNTH_QUBITS).contains(&self.qubits) {
            return Err(format!("supported qubits range is 2..={MAX_SYNTH_QUBITS}"));
        }
        self.build_reference()
    }

    /// Builds a wide reference circuit for the trajectory path. Only the
    /// TFIM workloads scale: their circuits are `O(qubits * steps)` gates
    /// and nothing on the wide path ever forms the `2^n` unitary.
    pub fn wide_reference_circuit(&self) -> Result<Circuit, String> {
        if !(2..=65).contains(&self.qubits) {
            return Err("supported qubits range is 2..=65".into());
        }
        match self.workload.as_str() {
            "tfim" | "tfim-r" => self.build_reference(),
            other => Err(format!(
                "workload '{other}' caps at {MAX_SYNTH_QUBITS} qubits; only tfim/tfim-r scale wider"
            )),
        }
    }

    /// The wide-run candidate set: the same TFIM evolution Trotterized with
    /// every shallower step count `1..steps`. This replaces synthesis on the
    /// wide path (QSearch cannot target a `2^27` unitary) while keeping the
    /// paper's depth/accuracy trade-off: fewer Trotter steps pay less noise
    /// but approximate the evolution more coarsely. `hs_distance` is 0.0 on
    /// every candidate — there is no dense target to measure against.
    pub fn wide_population_circuits(&self) -> Result<Vec<ApproxCircuit>, String> {
        self.wide_reference_circuit()?;
        if self.steps < 2 {
            return Err("wide runs need steps >= 2 so truncation yields candidates".into());
        }
        let params = TfimParams::paper_defaults(self.qubits);
        Ok((1..self.steps)
            .map(|s| {
                let mut c = tfim_circuit(&params, s);
                if self.workload == "tfim-r" {
                    c = commuting_reorder(&c);
                }
                ApproxCircuit::new(c, 0.0)
            })
            .collect())
    }

    fn build_reference(&self) -> Result<Circuit, String> {
        match self.workload.as_str() {
            "tfim" => {
                let params = TfimParams::paper_defaults(self.qubits);
                Ok(tfim_circuit(&params, self.steps))
            }
            // `tfim` with a deterministic commuting reorder: a distinct
            // workload (different circuit text, different cache keys) whose
            // noisy channel is *provably identical* to `tfim`'s — the QA5xx
            // checker certifies the pair at bound 0, which is what exercises
            // the serve certified fast path end to end
            "tfim-r" => {
                let params = TfimParams::paper_defaults(self.qubits);
                Ok(commuting_reorder(&tfim_circuit(&params, self.steps)))
            }
            "grover" => {
                let target = (1usize << self.qubits) - 1;
                let iters = qaprox_algos::grover::optimal_iterations(self.qubits);
                Ok(grover_circuit(self.qubits, target, iters))
            }
            "toffoli" => Ok(mct_reference(self.qubits)),
            #[cfg(test)]
            "__panic" => panic!("injected panic for scheduler isolation tests"),
            other => Err(format!(
                "unknown workload '{other}' (tfim|tfim-r|grover|toffoli)"
            )),
        }
    }

    /// The workflow this spec describes (the CLI's defaults, seeded).
    pub fn workflow(&self) -> Workflow {
        Workflow {
            topology: Topology::linear(self.qubits),
            engine: Engine::QSearch(QSearchConfig {
                max_cnots: self.max_cnots,
                max_nodes: self.max_nodes,
                beam_width: 4,
                instantiate: InstantiateConfig {
                    starts: 2,
                    seed: self.seed,
                    ..Default::default()
                },
                ..Default::default()
            }),
            max_hs: self.max_hs,
        }
    }

    /// Canonical config fingerprint (everything but target and seed, which
    /// hash separately in [`population_key`]).
    pub fn fingerprint(&self) -> String {
        format!(
            "synth/v1;workload={};qubits={};steps={};max_cnots={};max_nodes={};max_hs={:.17e};beam=4;starts=2",
            self.workload, self.qubits, self.steps, self.max_cnots, self.max_nodes, self.max_hs
        )
    }

    /// The store key for this spec's population.
    pub fn population_key(&self) -> Result<Key, String> {
        let reference = self.reference_circuit()?;
        let target = Workflow::target_unitary(&reference);
        Ok(population_key(&target, &self.fingerprint(), self.seed))
    }

    /// JSON form (spec fields only; the `op` tag belongs to the envelope).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("qubits".to_string(), Json::Num(self.qubits as f64)),
            ("steps".to_string(), Json::Num(self.steps as f64)),
            ("max_cnots".to_string(), Json::Num(self.max_cnots as f64)),
            ("max_nodes".to_string(), Json::Num(self.max_nodes as f64)),
            ("max_hs".to_string(), Json::Num(self.max_hs)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
        ];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Json::Num(ms as f64)));
        }
        Json::Obj(fields)
    }

    /// Reads spec fields from a JSON object, defaulting absent ones.
    pub fn from_json(v: &Json) -> Result<SynthSpec, String> {
        let d = SynthSpec::default();
        Ok(SynthSpec {
            workload: v.get_str("workload").unwrap_or(&d.workload).to_string(),
            qubits: v.get_usize("qubits").unwrap_or(d.qubits),
            steps: v.get_usize("steps").unwrap_or(d.steps),
            max_cnots: v.get_usize("max_cnots").unwrap_or(d.max_cnots),
            max_nodes: v.get_usize("max_nodes").unwrap_or(d.max_nodes),
            max_hs: v.get_f64("max_hs").unwrap_or(d.max_hs),
            seed: v.get_u64("seed").unwrap_or(d.seed),
            deadline_ms: v.get_u64("deadline_ms"),
        })
    }
}

impl RunSpec {
    /// True when the spec is wider than the synthesis/density-matrix cap
    /// and takes the trajectory-only wide path.
    pub fn is_wide(&self) -> bool {
        self.synth.qubits > MAX_SYNTH_QUBITS
    }

    /// Effective trajectory shot count (only meaningful with `backend` set).
    pub fn effective_shots(&self) -> usize {
        self.shots.unwrap_or(DEFAULT_TRAJECTORY_SHOTS).max(1)
    }

    /// The reference circuit this run scores against: the synthesis-width
    /// reference normally, the wide TFIM reference on the trajectory path.
    /// A wide spec without `backend = trajectory` is an error — nothing
    /// else can execute it.
    pub fn reference_circuit(&self) -> Result<Circuit, String> {
        if self.is_wide() {
            if self.backend.as_deref() != Some("trajectory") {
                return Err(format!(
                    "qubits={} needs backend=trajectory (the density matrix caps at {MAX_SYNTH_QUBITS} qubits)",
                    self.synth.qubits
                ));
            }
            self.synth.wide_reference_circuit()
        } else {
            self.synth.reference_circuit()
        }
    }

    /// The induced (and possibly cx-error-overridden) calibration this spec
    /// runs on — shared by the backend and the static analyzer. Narrow specs
    /// induce the identity slice `0..qubits` (unchanged keys); wide specs
    /// induce along a connected path through the device topology when one
    /// exists, so chained TFIM interactions land on real coupled edges.
    pub fn calibration(&self) -> Result<qaprox_device::Calibration, String> {
        let cal = devices::by_name(&self.device)
            .ok_or_else(|| format!("unknown device '{}'", self.device))?;
        if self.synth.qubits > cal.topology.num_qubits() {
            return Err(format!(
                "device {} has too few qubits for qubits={}",
                self.device, self.synth.qubits
            ));
        }
        let sites: Vec<usize> = if self.is_wide() {
            // heavy-hex has no Hamiltonian path, so a full-device request
            // falls back to identity order; the noise model's avg-error
            // fallback covers any non-adjacent chain link
            cal.topology
                .connected_path(self.synth.qubits)
                .unwrap_or_else(|| (0..self.synth.qubits).collect())
        } else {
            (0..self.synth.qubits).collect()
        };
        let mut induced = cal.induced(&sites);
        if let Some(eps) = self.cx_error {
            induced = induced.with_uniform_cx_error(eps);
        }
        Ok(induced)
    }

    /// Builds the backend this spec scores on (mirrors the CLI).
    pub fn backend(&self) -> Result<Backend, String> {
        let model = NoiseModel::from_calibration(self.calibration()?);
        match self.backend.as_deref() {
            None => Ok(if self.hardware {
                Backend::Hardware(HardwareBackend::new(model))
            } else {
                Backend::Noisy(model)
            }),
            Some("trajectory") => {
                if self.hardware {
                    return Err("backend=trajectory conflicts with hardware=true".into());
                }
                Ok(Backend::Trajectory(TrajectoryBackend::with_shots(
                    model,
                    self.effective_shots(),
                )))
            }
            Some(other) => Err(format!("unknown backend '{other}' (trajectory)")),
        }
    }

    /// Fingerprint of the reference circuit's static analysis under this
    /// spec's calibration. Folded into [`RunSpec::result_key`] so cached
    /// results are keyed by the predicted fidelity too: a new estimator (or
    /// changed calibration math) makes old artifacts unreachable instead of
    /// silently stale.
    pub fn analysis_fingerprint(&self) -> Result<String, String> {
        let reference = self.reference_circuit()?;
        let cal = self.calibration()?;
        let report = qaprox_verify::analyze(&reference, &cal, &Default::default());
        Ok(report.fingerprint())
    }

    /// Canonical backend fingerprint. The trajectory override (and its
    /// effective shot count) folds in only when set, so every pre-trajectory
    /// artifact keeps its key.
    pub fn backend_fingerprint(&self) -> String {
        let cx = match self.cx_error {
            Some(e) => format!("{e:.17e}"),
            None => "none".into(),
        };
        let mut fp = format!(
            "backend/v1;device={};cx_error={cx};hardware={}",
            self.device, self.hardware
        );
        if let Some(b) = &self.backend {
            fp.push_str(&format!(";backend={b};shots={}", self.effective_shots()));
        }
        fp
    }

    /// Wide specs content-address their "population" from the reference
    /// circuit's QASM text: the `2^n x 2^n` target unitary that
    /// [`SynthSpec::population_key`] hashes cannot exist at 27+ qubits.
    /// Narrow specs never take this path, so pre-existing keys are stable.
    fn wide_population_key(&self) -> Result<Key, String> {
        let reference = self.reference_circuit()?;
        let qasm = qaprox_circuit::qasm::to_qasm(&reference);
        let mut h = qaprox_linalg::hashing::Hash128::new();
        h.update(b"qaprox-serve/wide-pop/v1\0");
        h.update(qasm.as_bytes());
        h.update(b"\0");
        h.update(self.synth.fingerprint().as_bytes());
        h.update(b"\0");
        h.update_u64(self.synth.seed);
        let (hi, lo) = h.finish();
        Ok(Key { hi, lo })
    }

    /// The store key for this spec's execution result. `epsilon` folds in
    /// only when set, so pre-certification artifacts keep their keys.
    pub fn result_key(&self) -> Result<Key, String> {
        let pop = if self.is_wide() {
            self.wide_population_key()?
        } else {
            self.synth.population_key()?
        };
        let mut fp = format!(
            "{};{}",
            self.backend_fingerprint(),
            self.analysis_fingerprint()?
        );
        if let Some(eps) = self.epsilon {
            fp.push_str(&format!(";epsilon={eps:.17e}"));
        }
        Ok(result_key(&pop, &fp, self.job_seed))
    }

    /// Grouping tag for the certified fast path: everything that must match
    /// *exactly* for a stored result to be reusable — synthesis knobs,
    /// backend, both seeds. The workload identity (`workload`, `steps`) is
    /// deliberately excluded: whether two references are interchangeable is
    /// exactly what the equivalence checker decides at lookup time.
    pub fn equiv_tag(&self) -> String {
        format!(
            "equiv/v1;qubits={};max_cnots={};max_nodes={};max_hs={:.17e};seed={};{};job_seed={}",
            self.synth.qubits,
            self.synth.max_cnots,
            self.synth.max_nodes,
            self.synth.max_hs,
            self.synth.seed,
            self.backend_fingerprint(),
            self.job_seed
        )
    }

    /// JSON form (spec fields only).
    pub fn to_json(&self) -> Json {
        let mut fields = match self.synth.to_json() {
            Json::Obj(f) => f,
            _ => unreachable!("synth spec serializes to an object"),
        };
        fields.push(("device".into(), Json::Str(self.device.clone())));
        if let Some(e) = self.cx_error {
            fields.push(("cx_error".into(), Json::Num(e)));
        }
        fields.push(("hardware".into(), Json::Bool(self.hardware)));
        fields.push(("job_seed".into(), Json::Num(self.job_seed as f64)));
        if let Some(b) = &self.backend {
            fields.push(("backend".into(), Json::Str(b.clone())));
        }
        if let Some(s) = self.shots {
            fields.push(("shots".into(), Json::Num(s as f64)));
        }
        if let Some(eps) = self.epsilon {
            fields.push(("epsilon".into(), Json::Num(eps)));
        }
        Json::Obj(fields)
    }

    /// Reads spec fields from a JSON object, defaulting absent ones.
    pub fn from_json(v: &Json) -> Result<RunSpec, String> {
        let d = RunSpec::default();
        Ok(RunSpec {
            synth: SynthSpec::from_json(v)?,
            device: v.get_str("device").unwrap_or(&d.device).to_string(),
            cx_error: v.get_f64("cx_error"),
            hardware: v.get_bool("hardware").unwrap_or(d.hardware),
            job_seed: v.get_u64("job_seed").unwrap_or(d.job_seed),
            backend: v.get_str("backend").map(str::to_string),
            shots: v.get_usize("shots"),
            epsilon: v.get_f64("epsilon"),
        })
    }
}

impl JobSpec {
    /// Validates the spec eagerly (so bad submissions fail at submit time,
    /// not inside a worker).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            JobSpec::Synth(s) => s.reference_circuit().map(|_| ()),
            JobSpec::Run(r) => {
                r.reference_circuit()?;
                r.backend().map(|_| ())
            }
        }
    }

    /// The spec's store key (population key for synth, result key for run).
    pub fn key(&self) -> Result<Key, String> {
        match self {
            JobSpec::Synth(s) => s.population_key(),
            JobSpec::Run(r) => r.result_key(),
        }
    }

    /// The client's wall-clock budget in milliseconds, when one was set
    /// (see [`SynthSpec::deadline_ms`]).
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            JobSpec::Synth(s) => s.deadline_ms,
            JobSpec::Run(r) => r.synth.deadline_ms,
        }
    }

    /// Admission class this job is priced under: `synth` (search-bound),
    /// `run` (narrow synth-and-score), or `wide` (trajectory-only, the
    /// expensive one).
    pub fn class(&self) -> &'static str {
        match self {
            JobSpec::Synth(_) => "synth",
            JobSpec::Run(r) if r.is_wide() => "wide",
            JobSpec::Run(_) => "run",
        }
    }

    /// Static admission price in abstract amplitude-op units — the same
    /// O(gates) quantities the QA4xx predictor reads, never a simulation:
    ///
    /// * trajectory runs: `gates × shots × 2^qubits × candidates` (the shot
    ///   loop's work; wide specs price all `steps-1` Trotter candidates);
    /// * density-matrix / hardware runs: `gates × 4^qubits`;
    /// * synthesis: `max_nodes × 4^qubits` (each search node instantiates
    ///   against the dense target).
    ///
    /// Saturating arithmetic: an absurd spec prices as `u64::MAX` and is
    /// rejected by any finite budget rather than wrapping into a cheap one.
    pub fn predicted_cost(&self) -> Result<u64, String> {
        match self {
            JobSpec::Synth(s) => {
                let dim = 1u64 << s.qubits.min(31);
                Ok((s.max_nodes.max(1) as u64).saturating_mul(dim.saturating_mul(dim)))
            }
            JobSpec::Run(r) => {
                let gates = r.reference_circuit()?.len().max(1) as u64;
                let dim = 1u64 << r.synth.qubits.min(62);
                if r.backend.as_deref() == Some("trajectory") {
                    let shots = r.effective_shots() as u64;
                    let candidates = if r.is_wide() {
                        r.synth.steps.saturating_sub(1).max(1) as u64
                    } else {
                        1
                    };
                    Ok(gates
                        .saturating_mul(shots)
                        .saturating_mul(dim)
                        .saturating_mul(candidates))
                } else {
                    Ok(gates.saturating_mul(dim).saturating_mul(dim))
                }
            }
        }
    }

    /// Peak state-arena bytes this job can pin at once — what the runaway
    /// watchdog's memory sentinel judges against its budget. Trajectory runs
    /// are priced at one `2^qubits` complex state per candidate (the shot
    /// loop holds one per worker, fewer when its `QAPROX_BATCH_BYTES` cap
    /// binds, but the sentinel prices the uncapped ask); exact paths pin
    /// the `4^qubits` density matrix / dense unitary.
    pub fn estimated_arena_bytes(&self) -> u64 {
        let per_amp = std::mem::size_of::<qaprox_linalg::Complex64>() as u64;
        match self {
            JobSpec::Synth(s) => {
                let dim = 1u64 << s.qubits.min(31);
                dim.saturating_mul(dim).saturating_mul(per_amp)
            }
            JobSpec::Run(r) => {
                let dim = 1u64 << r.synth.qubits.min(62);
                if r.backend.as_deref() == Some("trajectory") {
                    let candidates = if r.is_wide() {
                        r.synth.steps.saturating_sub(1).max(1) as u64
                    } else {
                        1
                    };
                    dim.saturating_mul(candidates).saturating_mul(per_amp)
                } else {
                    dim.saturating_mul(dim).saturating_mul(per_amp)
                }
            }
        }
    }

    /// A canonical fingerprint for in-flight deduplication.
    pub fn dedup_fingerprint(&self) -> String {
        match self {
            JobSpec::Synth(s) => format!("synth:{};seed={}", s.fingerprint(), s.seed),
            JobSpec::Run(r) => {
                let mut fp = format!(
                    "run:{};seed={};{};job_seed={}",
                    r.synth.fingerprint(),
                    r.synth.seed,
                    r.backend_fingerprint(),
                    r.job_seed
                );
                if let Some(eps) = r.epsilon {
                    fp.push_str(&format!(";epsilon={eps:.17e}"));
                }
                fp
            }
        }
    }

    /// JSON form including the `op` tag (the request-envelope shape).
    pub fn to_json(&self) -> Json {
        match self {
            JobSpec::Synth(s) => {
                let mut fields = vec![("op".to_string(), Json::Str("synth".into()))];
                if let Json::Obj(rest) = s.to_json() {
                    fields.extend(rest);
                }
                Json::Obj(fields)
            }
            JobSpec::Run(r) => {
                let mut fields = vec![("op".to_string(), Json::Str("run".into()))];
                if let Json::Obj(rest) = r.to_json() {
                    fields.extend(rest);
                }
                Json::Obj(fields)
            }
        }
    }

    /// Reads a spec from a request envelope (dispatching on `op`).
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        match v.get_str("op") {
            Some("synth") => Ok(JobSpec::Synth(SynthSpec::from_json(v)?)),
            Some("run") => Ok(JobSpec::Run(RunSpec::from_json(v)?)),
            Some(other) => Err(format!("'{other}' is not a job op (synth|run)")),
            None => Err("missing 'op' field".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_json() {
        let synth = JobSpec::Synth(SynthSpec {
            workload: "grover".into(),
            qubits: 2,
            max_hs: 0.25,
            seed: 9,
            ..Default::default()
        });
        let run = JobSpec::Run(RunSpec {
            synth: SynthSpec::default(),
            device: "rome".into(),
            cx_error: Some(0.05),
            hardware: true,
            job_seed: 3,
            backend: None,
            shots: None,
            epsilon: Some(0.1),
        });
        let wide = JobSpec::Run(RunSpec {
            synth: SynthSpec {
                qubits: 27,
                steps: 4,
                ..Default::default()
            },
            device: "toronto".into(),
            cx_error: None,
            hardware: false,
            job_seed: 1,
            backend: Some("trajectory".into()),
            shots: Some(64),
            epsilon: None,
        });
        for spec in [synth, run, wide] {
            let text = spec.to_json().to_string();
            let back = JobSpec::from_json(&qaprox_store::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let spec = SynthSpec {
            qubits: 2,
            steps: 2,
            ..Default::default()
        };
        let k1 = spec.population_key().unwrap();
        assert_eq!(spec.population_key().unwrap(), k1);
        let mut other = spec.clone();
        other.seed = 1;
        assert_ne!(other.population_key().unwrap(), k1);
        let mut other = spec.clone();
        other.max_nodes += 1;
        assert_ne!(other.population_key().unwrap(), k1);

        let run = RunSpec {
            synth: spec,
            ..Default::default()
        };
        let rk = run.result_key().unwrap();
        let mut other = run.clone();
        other.cx_error = Some(0.1);
        assert_ne!(other.result_key().unwrap(), rk);
        let mut other = run.clone();
        other.job_seed = 7;
        assert_ne!(other.result_key().unwrap(), rk);
    }

    #[test]
    fn result_keys_record_the_predicted_fidelity_fingerprint() {
        let run = RunSpec {
            synth: SynthSpec {
                qubits: 2,
                steps: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let fp = run.analysis_fingerprint().unwrap();
        assert!(fp.starts_with("analyze/v1;bound="), "{fp}");
        // a noisier device changes the predicted fidelity, hence the key,
        // even when the backend fingerprint would also differ
        let mut noisier = run.clone();
        noisier.cx_error = Some(0.2);
        assert_ne!(noisier.analysis_fingerprint().unwrap(), fp);
    }

    #[test]
    fn epsilon_changes_keys_only_when_set() {
        let run = RunSpec {
            synth: SynthSpec {
                qubits: 2,
                steps: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let base_key = run.result_key().unwrap();
        let base_dedup = JobSpec::Run(run.clone()).dedup_fingerprint();
        let mut eps = run.clone();
        eps.epsilon = Some(0.1);
        assert_ne!(eps.result_key().unwrap(), base_key);
        assert_ne!(JobSpec::Run(eps.clone()).dedup_fingerprint(), base_dedup);
        // but the equivalence tag ignores ε and the workload identity: the
        // reordered workload lands in the same reuse class
        let mut reordered = eps.clone();
        reordered.synth.workload = "tfim-r".into();
        assert_eq!(reordered.equiv_tag(), eps.equiv_tag());
        assert_ne!(
            reordered.result_key().unwrap(),
            eps.result_key().unwrap(),
            "distinct workloads must still content-address apart"
        );
    }

    #[test]
    fn trajectory_backend_changes_keys_only_when_set() {
        let run = RunSpec {
            synth: SynthSpec {
                qubits: 2,
                steps: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let base_key = run.result_key().unwrap();
        let base_dedup = JobSpec::Run(run.clone()).dedup_fingerprint();
        assert!(
            !run.backend_fingerprint().contains(";backend="),
            "an unset backend must leave the fingerprint untouched"
        );
        let mut traj = run.clone();
        traj.backend = Some("trajectory".into());
        assert_ne!(traj.result_key().unwrap(), base_key);
        assert_ne!(JobSpec::Run(traj.clone()).dedup_fingerprint(), base_dedup);
        // the shot count is part of the computation, so part of the key...
        let mut more = traj.clone();
        more.shots = Some(4096);
        assert_ne!(more.result_key().unwrap(), traj.result_key().unwrap());
        // ...but spelling out the default names the same job
        let mut explicit = traj.clone();
        explicit.shots = Some(DEFAULT_TRAJECTORY_SHOTS);
        assert_eq!(explicit.result_key().unwrap(), traj.result_key().unwrap());
    }

    #[test]
    fn wide_specs_require_trajectory_and_key_without_a_target() {
        let mut wide = RunSpec {
            synth: SynthSpec {
                qubits: 27,
                steps: 3,
                ..Default::default()
            },
            device: "toronto".into(),
            ..Default::default()
        };
        assert!(
            JobSpec::Run(wide.clone()).validate().is_err(),
            "wide runs without the trajectory backend must be rejected"
        );
        wide.backend = Some("trajectory".into());
        wide.shots = Some(8);
        JobSpec::Run(wide.clone()).validate().unwrap();

        // keys are stable and sensitive without ever forming a 2^27 target
        let k = JobSpec::Run(wide.clone()).key().unwrap();
        assert_eq!(JobSpec::Run(wide.clone()).key().unwrap(), k);
        let mut other = wide.clone();
        other.synth.steps = 4;
        assert_ne!(JobSpec::Run(other).key().unwrap(), k);

        // only the TFIM workloads scale wide
        let mut grover = wide.clone();
        grover.synth.workload = "grover".into();
        assert!(JobSpec::Run(grover).validate().is_err());
        // hardware emulation conflicts with the trajectory override
        let mut conflicted = wide.clone();
        conflicted.hardware = true;
        assert!(JobSpec::Run(conflicted).validate().is_err());
        // synthesis jobs never widen: there is no 2^27 target to search for
        assert!(JobSpec::Synth(wide.synth.clone()).validate().is_err());
    }

    #[test]
    fn wide_calibration_prefers_a_connected_path() {
        let wide = RunSpec {
            synth: SynthSpec {
                qubits: 20,
                steps: 2,
                ..Default::default()
            },
            device: "toronto".into(),
            backend: Some("trajectory".into()),
            ..Default::default()
        };
        let cal = wide.calibration().unwrap();
        assert_eq!(cal.qubits.len(), 20);
        // a 20-site path exists on heavy-hex 27, so every chain link is a
        // real coupled edge of the device
        for pair in (0..20).collect::<Vec<_>>().windows(2) {
            assert!(
                cal.edge(pair[0], pair[1]).is_some() || cal.edge(pair[1], pair[0]).is_some(),
                "induced chain link {pair:?} must be a coupled edge"
            );
        }
    }

    #[test]
    fn reordered_tfim_is_a_commuted_permutation_of_tfim() {
        for qubits in [2usize, 3] {
            let spec = SynthSpec {
                qubits,
                steps: 2,
                ..Default::default()
            };
            let mut reordered = spec.clone();
            reordered.workload = "tfim-r".into();
            let a = spec.reference_circuit().unwrap();
            let b = reordered.reference_circuit().unwrap();
            assert_eq!(a.len(), b.len());
            assert_ne!(
                a.instructions(),
                b.instructions(),
                "the reorder must actually move something"
            );
            // same unitary: only disjoint-support neighbours were swapped
            assert!(a.unitary().approx_eq(&b.unitary(), 1e-12));
        }
    }

    #[test]
    fn deadlines_round_trip_but_never_touch_keys() {
        let run = RunSpec {
            synth: SynthSpec {
                qubits: 2,
                steps: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut hurried = run.clone();
        hurried.synth.deadline_ms = Some(250);
        // the deadline travels the wire...
        let text = JobSpec::Run(hurried.clone()).to_json().to_string();
        let back = JobSpec::from_json(&qaprox_store::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.deadline_ms(), Some(250));
        // ...but is computation-irrelevant: identical keys, fingerprints,
        // and dedup class as the undeadlined job
        assert_eq!(hurried.result_key().unwrap(), run.result_key().unwrap());
        assert_eq!(hurried.synth.fingerprint(), run.synth.fingerprint());
        assert_eq!(
            JobSpec::Run(hurried.clone()).dedup_fingerprint(),
            JobSpec::Run(run.clone()).dedup_fingerprint()
        );
        assert_eq!(hurried.equiv_tag(), run.equiv_tag());
        // absent field stays absent through a round trip
        let text = JobSpec::Run(run.clone()).to_json().to_string();
        assert!(!text.contains("deadline_ms"), "{text}");
    }

    #[test]
    fn predicted_cost_prices_classes_sensibly() {
        let synth = JobSpec::Synth(SynthSpec {
            qubits: 2,
            steps: 2,
            ..Default::default()
        });
        assert_eq!(synth.class(), "synth");
        assert!(synth.predicted_cost().unwrap() > 0);

        let run = JobSpec::Run(RunSpec {
            synth: SynthSpec {
                qubits: 2,
                steps: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        assert_eq!(run.class(), "run");

        let wide = JobSpec::Run(RunSpec {
            synth: SynthSpec {
                qubits: 27,
                steps: 4,
                ..Default::default()
            },
            device: "toronto".into(),
            backend: Some("trajectory".into()),
            shots: Some(16),
            ..Default::default()
        });
        assert_eq!(wide.class(), "wide");
        let base = wide.predicted_cost().unwrap();
        // cost scales linearly with the shot budget...
        let mut pricier = match &wide {
            JobSpec::Run(r) => r.clone(),
            _ => unreachable!(),
        };
        pricier.shots = Some(32);
        assert_eq!(JobSpec::Run(pricier).predicted_cost().unwrap(), base * 2);
        // ...and the arena ask covers all Trotter candidates at 2^27 amps
        assert_eq!(wide.estimated_arena_bytes(), 3 * (1u64 << 27) * 16);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let bad = JobSpec::Synth(SynthSpec {
            workload: "frobnicate".into(),
            ..Default::default()
        });
        assert!(bad.validate().is_err());
        let bad = JobSpec::Synth(SynthSpec {
            qubits: 9,
            ..Default::default()
        });
        assert!(bad.validate().is_err());
        let bad = JobSpec::Run(RunSpec {
            device: "nowhere".into(),
            ..Default::default()
        });
        assert!(bad.validate().is_err());
        assert!(JobSpec::Synth(SynthSpec::default()).validate().is_ok());
    }
}
