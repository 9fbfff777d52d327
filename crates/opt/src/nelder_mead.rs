//! Nelder-Mead simplex minimization (derivative-free).
//!
//! QSearch as published instantiates with COBYLA when gradients are
//! unavailable; this simplex method fills the same role here, as a
//! derivative-free baseline to analytic-gradient L-BFGS.

/// Tuning knobs for [`nelder_mead`].
#[derive(Debug, Clone)]
pub struct NelderMeadParams {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex's objective spread falls below this.
    pub f_tol: f64,
    /// Terminate when the simplex's geometric extent falls below this.
    pub x_tol: f64,
    /// Initial simplex edge length.
    pub initial_step: f64,
}

impl Default for NelderMeadParams {
    fn default() -> Self {
        NelderMeadParams {
            max_evals: 20_000,
            f_tol: 1e-12,
            x_tol: 1e-10,
            initial_step: 0.5,
        }
    }
}

/// Result of a [`nelder_mead`] run.
#[derive(Debug, Clone)]
pub struct NmResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective at `x`.
    pub f: f64,
    /// Objective evaluations used.
    pub evals: usize,
    /// True if tolerance (not the evaluation cap) stopped the search.
    pub converged: bool,
}

/// Minimizes `f` from `x0` with the Nelder-Mead simplex algorithm
/// (standard reflection/expansion/contraction/shrink coefficients).
pub fn nelder_mead<F: Fn(&[f64]) -> f64>(f: &F, x0: &[f64], params: &NelderMeadParams) -> NmResult {
    let n = x0.len();
    assert!(n > 0, "cannot optimize a zero-dimensional point");
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        v[i] += if v[i].abs() > 1e-8 {
            params.initial_step * v[i].signum()
        } else {
            params.initial_step
        };
        simplex.push(v);
    }
    let mut evals = 0usize;
    let mut values: Vec<f64> = simplex
        .iter()
        .map(|v| {
            evals += 1;
            f(v)
        })
        .collect();

    let mut converged = false;
    while evals < params.max_evals {
        // Order simplex by objective.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let reordered: Vec<Vec<f64>> = order.iter().map(|&i| simplex[i].clone()).collect();
        let revalues: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        simplex = reordered;
        values = revalues;

        let spread = values[n] - values[0];
        let extent = simplex[1..]
            .iter()
            .map(|v| {
                v.iter()
                    .zip(&simplex[0])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        if spread < params.f_tol && extent < params.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for v in &simplex[..n] {
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += x / n as f64;
            }
        }

        let point_along = |t: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(&simplex[n])
                .map(|(c, w)| c + t * (c - w))
                .collect()
        };

        // Reflection.
        let xr = point_along(alpha);
        evals += 1;
        let fr = f(&xr);
        if fr < values[0] {
            // Expansion.
            let xe = point_along(gamma);
            evals += 1;
            let fe = f(&xe);
            if fe < fr {
                simplex[n] = xe;
                values[n] = fe;
            } else {
                simplex[n] = xr;
                values[n] = fr;
            }
        } else if fr < values[n - 1] {
            simplex[n] = xr;
            values[n] = fr;
        } else {
            // Contraction (outside if reflection improved on worst, else inside).
            let (xc, fc) = if fr < values[n] {
                let xc = point_along(rho);
                evals += 1;
                let fc = f(&xc);
                (xc, fc)
            } else {
                let xc = point_along(-rho);
                evals += 1;
                let fc = f(&xc);
                (xc, fc)
            };
            if fc < values[n].min(fr) {
                simplex[n] = xc;
                values[n] = fc;
            } else {
                // Shrink toward the best vertex.
                let best = simplex[0].clone();
                for (v, val) in simplex.iter_mut().zip(values.iter_mut()).skip(1) {
                    for (x, b) in v.iter_mut().zip(&best) {
                        *x = b + sigma * (*x - b);
                    }
                    evals += 1;
                    *val = f(v);
                }
            }
        }
    }

    let mut best_i = 0;
    for i in 1..=n {
        if values[i] < values[best_i] {
            best_i = i;
        }
    }
    NmResult {
        x: simplex[best_i].clone(),
        f: values[best_i],
        evals,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_shifted_quadratic() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let r = nelder_mead(&f, &[0.0, 0.0], &NelderMeadParams::default());
        assert!((r.x[0] - 3.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] + 1.0).abs() < 1e-4);
        assert!(r.converged);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let f = |x: &[f64]| 100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2);
        let r = nelder_mead(&f, &[-1.2, 1.0], &NelderMeadParams::default());
        assert!(r.f < 1e-8, "residual {}", r.f);
    }

    #[test]
    fn periodic_objective() {
        let f = |x: &[f64]| 2.0 - x[0].cos() - x[1].cos();
        let r = nelder_mead(&f, &[0.5, -0.5], &NelderMeadParams::default());
        assert!(r.f < 1e-8);
    }

    #[test]
    fn respects_eval_cap() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum();
        let r = nelder_mead(
            &f,
            &[10.0; 5],
            &NelderMeadParams {
                max_evals: 50,
                ..Default::default()
            },
        );
        assert!(r.evals <= 60); // cap plus at most one shrink round
    }

    #[test]
    fn never_worse_than_start() {
        let f = |x: &[f64]| (x[0] * 3.1).sin() + x[0] * x[0] * 0.1;
        let f0 = f(&[2.0]);
        let r = nelder_mead(&f, &[2.0], &NelderMeadParams::default());
        assert!(r.f <= f0);
    }

    #[test]
    fn handles_zero_start_coordinates() {
        let f = |x: &[f64]| x.iter().map(|v| (v - 1.0).powi(2)).sum();
        let r = nelder_mead(&f, &[0.0, 0.0, 0.0], &NelderMeadParams::default());
        assert!(r.f < 1e-8);
    }
}
