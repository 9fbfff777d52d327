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

use qaprox_bench::timing::{bench, header};
use qaprox_device::Topology;
use qaprox_linalg::parallel::with_thread_budget;
use qaprox_linalg::random::{haar_unitary, Rng, SplitMix64};
use qaprox_opt::GradObjective;
use qaprox_synth::{qsearch, HsObjective, QSearchConfig, Structure};
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
