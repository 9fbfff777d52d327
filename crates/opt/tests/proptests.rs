//! Property-style tests for the optimizers, driven by the in-repo seeded RNG.

use qaprox_linalg::random::{Rng, SplitMix64};
use qaprox_opt::{lbfgs, LbfgsParams};

const CASES: usize = 32;

fn vec_in(lo: f64, hi: f64, len: usize, rng: &mut SplitMix64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A positive-definite quadratic with a known minimizer.
fn quadratic(center: Vec<f64>, scales: Vec<f64>) -> impl Fn(&[f64]) -> (f64, Vec<f64>) {
    move |x: &[f64]| {
        let mut f = 0.0;
        let mut g = vec![0.0; x.len()];
        for i in 0..x.len() {
            let d = x[i] - center[i];
            f += scales[i] * d * d;
            g[i] = 2.0 * scales[i] * d;
        }
        (f, g)
    }
}

#[test]
fn lbfgs_finds_quadratic_minima() {
    let mut rng = SplitMix64::seed_from_u64(1);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..6);
        let center = vec_in(-5.0, 5.0, n, &mut rng);
        let scales = vec_in(0.1, 10.0, n, &mut rng);
        let start = vec_in(-5.0, 5.0, n, &mut rng);
        let obj = quadratic(center.clone(), scales);
        let r = lbfgs(&obj, &start, &LbfgsParams::default());
        for (xi, ci) in r.x.iter().zip(&center) {
            assert!((xi - ci).abs() < 1e-4, "x {xi} vs center {ci}");
        }
    }
}

#[test]
fn lbfgs_monotone_improvement() {
    let mut rng = SplitMix64::seed_from_u64(2);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..5);
        let start = vec_in(-3.0, 3.0, n, &mut rng);
        // smooth nonconvex objective: never end worse than the start
        let obj = |x: &[f64]| {
            let f: f64 = x.iter().map(|v| (v * 1.7).sin() + 0.1 * v * v).sum();
            let g: Vec<f64> = x.iter().map(|v| 1.7 * (v * 1.7).cos() + 0.2 * v).collect();
            (f, g)
        };
        let (f0, _) = obj(&start);
        let r = lbfgs(
            &obj,
            &start,
            &LbfgsParams {
                max_iters: 50,
                ..Default::default()
            },
        );
        assert!(r.f <= f0 + 1e-12);
    }
}

#[test]
fn central_difference_linear_functions_are_exact() {
    let mut rng = SplitMix64::seed_from_u64(5);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..5);
        let coeffs = vec_in(-3.0, 3.0, n, &mut rng);
        let at = vec_in(-2.0, 2.0, n, &mut rng);
        let c = coeffs.clone();
        let f = move |x: &[f64]| -> f64 { x.iter().zip(&c).map(|(a, b)| a * b).sum() };
        let g = qaprox_opt::gradient::central_difference(&f, &at, 1e-5);
        for (gi, ci) in g.iter().zip(&coeffs) {
            assert!((gi - ci).abs() < 1e-7);
        }
    }
}
