//! Trajectory-backend throughput: per-shot cost, compile (gate-fusion)
//! cost, and whole-job cost across circuit widths on the Toronto 27q
//! heavy-hex calibration.
//!
//! Output is CSV; the checked-in snapshot lives at
//! `artifacts/trajectory_throughput.csv` (regenerate with
//! `cargo bench -p qaprox-bench --bench trajectory_throughput`), with a
//! machine-readable summary in `BENCH_trajectory.json`. `QAPROX_QUICK=1`
//! shrinks the run for CI smoke.
//!
//! What the rows mean:
//! * `compile_{n}q` — one `FusedProgram::compile` (gate fusion + Kraus
//!   table construction); paid once per circuit, not per shot;
//! * `shot_{n}q` — one trajectory through the fused program, including
//!   the `|0…0⟩` state reset (the per-shot marginal cost);
//! * `job_{n}q/shots=S` — a full `TrajectoryBackend::probabilities` call
//!   (compile + S shots + accumulation + readout confusion).
//!
//! * `batch_job_{n}q/cands=K` — K candidate circuits scored in ONE
//!   shot-batched pass (`TrajectoryBackend::probabilities_batch`), vs
//! * `solo_jobs_{n}q/cands=K` — the same K candidates scored one at a
//!   time; the ratio is the wide-run batching win.
//! * `wide_job_16q/shots=16` (full mode only) — the `qaprox serve` wide
//!   job: a 16q TFIM reference on toronto plus its 3 step-count
//!   truncations, 16 shots each, in ONE `TrajectoryBackend::execute`
//!   request seeded `[job_seed, 0, 1, 2]`, built from a serve `RunSpec`
//!   exactly as the server's wide path builds it.
//!
//! Commentary lines record the selected amplitude kernel (`simd` on AVX2
//! hosts, `scalar` under `QAPROX_SIMD=0` or on other ISAs), the fusion
//! ratio (source gates per fused op), and the shots/sec each width
//! sustains, so wide-device budgets (27q/65q runs) can be estimated from
//! the snapshot. Run the bench twice — default and `QAPROX_SIMD=0` — to
//! measure the SIMD speedup itself; both legs are recorded side by side in
//! `BENCH_trajectory.json`.

use qaprox_algos::tfim::{tfim_circuit, TfimParams};
use qaprox_bench::timing::{bench, header};
use qaprox_device::devices::toronto;
use qaprox_linalg::random::SplitMix64;
use qaprox_linalg::Complex64;
use qaprox_serve::{RunSpec, SynthSpec};
use qaprox_sim::{Backend, FusedProgram, NoiseModel, TrajectoryBackend};

fn main() {
    header("trajectory_throughput");
    let quick = std::env::var("QAPROX_QUICK").is_ok_and(|v| v == "1");

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# host_cores={host_cores} (shot-level scaling is bounded by this)");
    println!(
        "# kernel={} (runtime dispatch; QAPROX_SIMD=0 forces scalar)",
        qaprox_linalg::selected_kernel()
    );

    let sizes: &[usize] = if quick { &[3, 8] } else { &[3, 8, 14, 18, 20] };
    let trotter_steps = 4;
    let device = toronto();

    for &n in sizes {
        // a connected n-qubit chain out of the 27q heavy-hex, so every
        // nearest-neighbour TFIM coupling is a calibrated edge
        let path = device
            .topology
            .connected_path(n)
            .expect("toronto supports chains well past these widths");
        let cal = device.induced(&path);
        let model = NoiseModel::from_calibration(cal);
        let circuit = tfim_circuit(&TfimParams::paper_defaults(n), trotter_steps);

        let program = FusedProgram::compile(&circuit, &model);
        println!(
            "# tfim_{n}q: {} source gates -> {} fused ops ({:.2} gates/op)",
            circuit.len(),
            program.len(),
            circuit.len() as f64 / program.len().max(1) as f64
        );

        bench(&format!("compile_{n}q"), || {
            FusedProgram::compile(&circuit, &model)
        });

        // per-shot marginal cost: reuse one state buffer, reset each shot
        let mut state = vec![Complex64::ZERO; circuit.dim()];
        let mut rng = SplitMix64::seed_from_u64(0x7261_6A00 ^ n as u64);
        let m = bench(&format!("shot_{n}q"), || {
            program.run_shot(&mut state, &mut rng);
            state[0]
        });
        let shots_per_sec = 1e9 / m.median.as_nanos().max(1) as f64;
        println!("# shot_{n}q: {shots_per_sec:.1} shots/sec");

        // whole jobs only at the narrow widths — wide-job cost is
        // shots x shot_{n}q + compile_{n}q and is reported above
        if n <= 8 {
            let shots = if quick { 16 } else { 64 };
            let backend = TrajectoryBackend::with_shots(model.clone(), shots);
            bench(&format!("job_{n}q/shots={shots}"), || {
                backend.probabilities(&circuit, 7)
            });

            // multi-candidate scoring, the serve wide-run shape: the same
            // K step-count truncations batched vs evaluated one at a time
            let cands = 4usize;
            let circuits: Vec<_> = (1..=cands)
                .map(|s| tfim_circuit(&TfimParams::paper_defaults(n), s))
                .collect();
            bench(&format!("batch_job_{n}q/cands={cands}"), || {
                backend.probabilities_batch(&circuits).unwrap()
            });
            bench(&format!("solo_jobs_{n}q/cands={cands}"), || {
                circuits
                    .iter()
                    .enumerate()
                    .map(|(i, c)| backend.probabilities(c, i as u64))
                    .collect::<Vec<_>>()
            });
        }
    }

    if !quick {
        wide_job_16q();
    }
}

/// The serve wide path's request: reference plus ranked truncations, one
/// `execute`, row 0 seeded with the job seed and row `i + 1` with `i`.
fn wide_job_16q() {
    let spec = RunSpec {
        synth: SynthSpec {
            workload: "tfim".into(),
            qubits: 16,
            steps: 4,
            ..Default::default()
        },
        device: "toronto".into(),
        backend: Some("trajectory".into()),
        shots: Some(16),
        job_seed: 7,
        ..Default::default()
    };
    let reference = spec.reference_circuit().expect("16q tfim is a wide spec");
    let cal = spec.calibration().expect("toronto has 16 qubits");
    let candidates = spec.synth.wide_population_circuits().expect("steps >= 2");
    let ranked = qaprox_synth::rank_by_predicted(&candidates, &cal);
    let Ok(Backend::Trajectory(tb)) = spec.backend() else {
        panic!("a wide spec builds a trajectory backend");
    };
    let mut circuits = vec![&reference];
    circuits.extend(ranked.iter().map(|(ap, _)| &ap.circuit));
    let mut seeds = vec![spec.job_seed];
    seeds.extend(0..ranked.len() as u64);
    bench("wide_job_16q/shots=16", || {
        tb.execute(&circuits, &seeds).unwrap()
    });
}
