//! Synthesis throughput vs worker-thread count: full QSearch runs on random
//! 3q/4q targets at 1/2/4/8 threads, plus the structure-memo hit counters.
//! Each thread count is a `with_thread_budget` around the runs; the
//! 1-thread row is the serial path (every wave a plain loop).
//!
//! Output is CSV; the checked-in snapshot lives at
//! `artifacts/synth_throughput.csv` (regenerate with
//! `cargo bench -p qaprox-bench --bench synth_throughput`).
//! `QAPROX_QUICK=1` shrinks the run for CI smoke. Speedup is bounded by the
//! host's physical cores — the snapshot records the host core count in a
//! comment so flat curves on small machines read as what they are.
//!
//! The `hs_eval_{3,4}q/blocks={4,6}` rows time one `HsObjective::eval_into`
//! (objective plus analytic gradient, the call every L-BFGS step makes) on
//! a fixed ladder structure against a Haar target, in ns per evaluation.
//! They run in quick mode too and record the selected kernel table, since
//! the evaluation runs through it.
//!
//! The `qfast_4q/threads={1,2}` rows time one full QFast run on the 4q
//! Toffoli with the paper pipeline's Toffoli configuration (4 blocks on a
//! linear chain), and `generate_both_4q/threads=2` one
//! `Workflow::generate` of that job's QSearch+QFast population, in ns per
//! run (min, median, mean over the reps).

use qaprox::toffoli_study::toffoli_target;
use qaprox::workflow::{Engine, Workflow};
use qaprox_bench::timing::{bench, header};
use qaprox_device::Topology;
use qaprox_linalg::parallel::with_thread_budget;
use qaprox_linalg::random::{haar_unitary, Rng, SplitMix64};
use qaprox_opt::{GradObjective, LbfgsParams};
use qaprox_synth::{
    qfast, qsearch, HsObjective, InstantiateConfig, QFastConfig, QSearchConfig, Structure,
};
use std::time::Instant;

fn main() {
    header("synth_throughput");
    let quick = std::env::var("QAPROX_QUICK").is_ok_and(|v| v == "1");

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# host_cores={host_cores} (thread scaling is bounded by this)");
    println!(
        "# kernel={} (runtime dispatch; QAPROX_SIMD=0 forces scalar)",
        qaprox_linalg::selected_kernel()
    );

    for n in [3usize, 4] {
        for blocks in [4usize, 6] {
            hs_eval(n, blocks);
        }
    }

    let sizes: &[usize] = if quick { &[3] } else { &[3, 4] };
    let threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let reps = if quick { 1 } else { 3 };

    toffoli_rows(reps);

    for &n in sizes {
        let mut rng = SplitMix64::seed_from_u64(42 + n as u64);
        let target = haar_unitary(1 << n, &mut rng);
        let topo = Topology::linear(n);
        let cfg = QSearchConfig {
            max_nodes: if quick {
                20
            } else if n == 3 {
                60
            } else {
                40
            },
            ..Default::default()
        };

        let mut baseline_ns: u128 = 0;
        for &t in threads {
            let mut runs: Vec<u128> = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(with_thread_budget(t, || qsearch(&target, &topo, &cfg)));
                    t0.elapsed().as_nanos()
                })
                .collect();
            runs.sort_unstable();
            let min = runs[0];
            let median = runs[runs.len() / 2];
            let mean = runs.iter().sum::<u128>() / runs.len() as u128;
            println!("qsearch_{n}q/threads={t},{reps},{min},{median},{mean}");
            if t == 1 {
                baseline_ns = median;
            } else {
                let speedup = baseline_ns as f64 / median as f64;
                println!("# qsearch_{n}q threads={t}: speedup {speedup:.2}x vs 1 thread");
            }
        }

        // memo counters for one representative run (thread-count invariant)
        let out = with_thread_budget(1, || qsearch(&target, &topo, &cfg));
        println!(
            "# qsearch_{n}q memo: hits={} misses={}",
            out.stats.memo_hits, out.stats.memo_misses
        );
    }
}

/// ns per objective+gradient evaluation on an `n`-qubit ladder of `blocks`
/// CX blocks (`(0,1), (1,2), ...` wrapping along the chain).
fn hs_eval(n: usize, blocks: usize) {
    let mut rng = SplitMix64::seed_from_u64(0x45 + n as u64);
    let target = haar_unitary(1 << n, &mut rng);
    let mut s = Structure::root(n);
    for b in 0..blocks {
        let c = b % (n - 1);
        s = s.extended(c, c + 1);
    }
    let obj = HsObjective::new(&s, &target);
    let x: Vec<f64> = (0..s.num_params())
        .map(|_| rng.gen_range(-3.2..3.2))
        .collect();
    let mut g = vec![0.0; x.len()];
    bench(&format!("hs_eval_{n}q/blocks={blocks}"), || {
        obj.eval_into(&x, &mut g)
    });
}

/// The paper pipeline's Toffoli job: QSearch (60 nodes, beam 2, one start)
/// and QFast (4 blocks) on the 4q Toffoli over a linear chain, at a fixed
/// instantiation seed.
fn toffoli_workflow() -> Workflow {
    const SEED: u64 = 7919;
    let qs = QSearchConfig {
        max_cnots: 6,
        max_nodes: 60,
        beam_width: 2,
        instantiate: InstantiateConfig {
            starts: 1,
            seed: SEED,
            lbfgs: LbfgsParams {
                max_iters: 300,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let qf = QFastConfig {
        max_blocks: 4,
        seed: SEED ^ 0x51F7,
        ..Default::default()
    };
    Workflow {
        topology: Topology::linear(4),
        engine: Engine::Both(qs, qf),
        max_hs: 0.5,
    }
}

/// Prints one `label,reps,min,median,mean` row of ns per call of `run`.
fn time_row<R>(label: &str, reps: usize, mut run: impl FnMut() -> R) {
    let mut runs: Vec<u128> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(run());
            t0.elapsed().as_nanos()
        })
        .collect();
    runs.sort_unstable();
    let mean = runs.iter().sum::<u128>() / runs.len() as u128;
    println!("{label},{reps},{},{},{mean}", runs[0], runs[runs.len() / 2]);
}

/// QFast alone at budgets 1 and 2, then the whole QSearch+QFast generate at
/// budget 2, on the Toffoli job.
fn toffoli_rows(reps: usize) {
    let wf = toffoli_workflow();
    let target = toffoli_target(4);
    let Engine::Both(_, qf) = &wf.engine else {
        unreachable!("the Toffoli job runs both engines")
    };
    for t in [1usize, 2] {
        time_row(&format!("qfast_4q/threads={t}"), reps, || {
            with_thread_budget(t, || qfast(&target, &wf.topology, qf))
        });
    }
    time_row("generate_both_4q/threads=2", reps, || {
        with_thread_budget(2, || wf.generate(&target))
    });
}
