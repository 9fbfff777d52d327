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
//! Satellite note (allocation behavior this PR changed):
//! * `DensityMatrix::apply_kraus_{1q,2q}` previously cloned the full `rho`
//!   once per Kraus operator (4 clones per depolarizing channel, 32x32
//!   complex each at 5 qubits); they now fill a single scratch accumulator
//!   via `accum_conj_{1q,2q}` — exactly one allocation per channel
//!   application.
//! * `HsObjective` evaluations now reuse a thread-local
//!   `InstantiateWorkspace` (prefix/suffix product chains) — zero heap
//!   allocation per objective evaluation after warmup.

use qaprox_bench::timing::header;
use qaprox_device::Topology;
use qaprox_linalg::parallel::with_thread_budget;
use qaprox_linalg::random::{haar_unitary, SplitMix64};
use qaprox_synth::{qsearch, QSearchConfig};
use std::time::Instant;

fn main() {
    header("synth_throughput");
    let quick = std::env::var("QAPROX_QUICK").is_ok_and(|v| v == "1");

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# host_cores={host_cores} (thread scaling is bounded by this)");

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
