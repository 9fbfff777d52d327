//! Limited-memory BFGS with a strong-Wolfe line search.
//!
//! Standard two-loop recursion (Nocedal & Wright, Alg. 7.4) with the
//! bracketing/zoom line search of Alg. 3.5-3.6. Instantiation objectives are
//! smooth trigonometric polynomials in the gate parameters, which is exactly
//! the regime where L-BFGS shines.

use crate::GradObjective;

/// Tuning knobs for [`lbfgs`].
#[derive(Debug, Clone)]
pub struct LbfgsParams {
    /// Number of curvature pairs to remember.
    pub memory: usize,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop when the gradient infinity-norm falls below this.
    pub grad_tol: f64,
    /// Stop when successive objective values differ by less than this.
    pub f_tol: f64,
    /// Armijo (sufficient decrease) constant.
    pub c1: f64,
    /// Curvature constant.
    pub c2: f64,
    /// Maximum line-search evaluations per iteration.
    pub max_ls: usize,
}

impl Default for LbfgsParams {
    fn default() -> Self {
        LbfgsParams {
            memory: 10,
            max_iters: 200,
            grad_tol: 1e-10,
            f_tol: 1e-14,
            c1: 1e-4,
            c2: 0.9,
            max_ls: 40,
        }
    }
}

/// Outcome of an [`lbfgs`] run.
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub f: f64,
    /// Gradient infinity-norm at `x`.
    pub grad_norm: f64,
    /// Outer iterations performed.
    pub iters: usize,
    /// Total objective/gradient evaluations.
    pub evals: usize,
    /// True if a convergence criterion (not the iteration cap) stopped us.
    pub converged: bool,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn inf_norm(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// The curvature pairs `(s_i, y_i, rho_i)`, oldest first, in a ring of
/// `memory` slots over two flat buffers: a full ring overwrites its oldest
/// pair in place instead of shifting the others down.
struct History {
    n: usize,
    memory: usize,
    s: Vec<f64>,
    y: Vec<f64>,
    rho: Vec<f64>,
    /// Slot of the oldest pair.
    head: usize,
    len: usize,
}

impl History {
    fn new(n: usize, memory: usize) -> Self {
        History {
            n,
            memory,
            s: vec![0.0; n * memory],
            y: vec![0.0; n * memory],
            rho: vec![0.0; memory],
            head: 0,
            len: 0,
        }
    }

    fn slot(&self, i: usize) -> usize {
        (self.head + i) % self.memory
    }

    /// `(s_i, y_i, rho_i)` of the `i`-th oldest pair.
    fn pair(&self, i: usize) -> (&[f64], &[f64], f64) {
        let k = self.slot(i);
        let r = k * self.n..(k + 1) * self.n;
        (&self.s[r.clone()], &self.y[r], self.rho[k])
    }

    /// Appends a pair, dropping the oldest when all `memory` slots are full.
    fn push(&mut self, s: &[f64], y: &[f64], rho: f64) {
        if self.memory == 0 {
            return;
        }
        let k = if self.len == self.memory {
            let k = self.head;
            self.head = (self.head + 1) % self.memory;
            k
        } else {
            self.len += 1;
            self.slot(self.len - 1)
        };
        let r = k * self.n..(k + 1) * self.n;
        self.s[r.clone()].copy_from_slice(s);
        self.y[r].copy_from_slice(y);
        self.rho[k] = rho;
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// The line search's trial point and the gradient there. After a successful
/// search `g` holds the gradient at the accepted step: every accepting path
/// returns right after the evaluation that produced it.
struct Trial {
    x: Vec<f64>,
    g: Vec<f64>,
}

impl Trial {
    /// Evaluates `obj` at `x + alpha * d`; returns `(f, g . d)`.
    fn eval<O: GradObjective>(
        &mut self,
        obj: &O,
        x: &[f64],
        d: &[f64],
        alpha: f64,
        evals: &mut usize,
    ) -> (f64, f64) {
        for ((xt, xi), di) in self.x.iter_mut().zip(x).zip(d) {
            *xt = xi + alpha * di;
        }
        *evals += 1;
        let f = obj.eval_into(&self.x, &mut self.g);
        (f, dot(&self.g, d))
    }
}

/// Minimizes `obj` starting from `x0`.
///
/// Every buffer an iteration touches (the two-loop vectors, the curvature
/// history and the line search's trial point and gradient) is allocated once
/// per run, so iterations allocate nothing.
pub fn lbfgs<O: GradObjective>(obj: &O, x0: &[f64], params: &LbfgsParams) -> LbfgsResult {
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut g = vec![0.0; n];
    let mut f = obj.eval_into(&x, &mut g);
    let mut evals = 1usize;

    let mut hist = History::new(n, params.memory);
    let mut q = vec![0.0; n];
    let mut alpha = vec![0.0; params.memory];
    let mut d = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut trial = Trial {
        x: vec![0.0; n],
        g: vec![0.0; n],
    };

    let mut converged = false;
    let mut iters = 0usize;

    for iter in 0..params.max_iters {
        iters = iter + 1;
        if inf_norm(&g) < params.grad_tol {
            converged = true;
            break;
        }

        // Two-loop recursion: d = -H g
        q.copy_from_slice(&g);
        let m = hist.len;
        for i in (0..m).rev() {
            let (si, yi, rho) = hist.pair(i);
            alpha[i] = rho * dot(si, &q);
            for (qj, yj) in q.iter_mut().zip(yi) {
                *qj -= alpha[i] * yj;
            }
        }
        // Initial Hessian scaling gamma = s.y / y.y from the newest pair.
        if m > 0 {
            let (sn, yn, _) = hist.pair(m - 1);
            let gamma = dot(sn, yn) / dot(yn, yn).max(1e-300);
            for qj in q.iter_mut() {
                *qj *= gamma;
            }
        }
        for (i, &ai) in alpha[..m].iter().enumerate() {
            let (si, yi, rho) = hist.pair(i);
            let beta = rho * dot(yi, &q);
            for (qj, sj) in q.iter_mut().zip(si) {
                *qj += (ai - beta) * sj;
            }
        }
        for (dj, &qj) in d.iter_mut().zip(&q) {
            *dj = -qj;
        }

        // Ensure a descent direction; fall back to steepest descent.
        let mut dg = dot(&d, &g);
        if !dg.is_finite() || dg >= 0.0 {
            for (dj, &gj) in d.iter_mut().zip(&g) {
                *dj = -gj;
            }
            dg = -dot(&g, &g);
            hist.clear();
        }

        // Strong-Wolfe line search; the accepted gradient lands in trial.g.
        let Some((step, f_new)) = wolfe_search(obj, &x, f, &d, dg, params, &mut trial, &mut evals)
        else {
            // Line search failed — gradient is numerically flat.
            converged = inf_norm(&g) < 1e-6;
            break;
        };

        for i in 0..n {
            s[i] = step * d[i];
            x[i] += s[i];
            y[i] = trial.g[i] - g[i];
        }
        let sy = dot(&s, &y);
        if sy > 1e-12 * dot(&y, &y).sqrt() * dot(&s, &s).sqrt() && sy > 0.0 {
            hist.push(&s, &y, 1.0 / sy);
        }

        let f_prev = f;
        f = f_new;
        std::mem::swap(&mut g, &mut trial.g);
        if (f_prev - f).abs() < params.f_tol * (1.0 + f.abs()) {
            converged = true;
            break;
        }
    }

    let grad_norm = inf_norm(&g);
    LbfgsResult {
        x,
        f,
        grad_norm,
        iters,
        evals,
        converged,
    }
}

/// Strong-Wolfe bracketing line search. Returns `(alpha, f(x+ad))`, with
/// the gradient at `x + alpha d` left in `trial.g`.
#[allow(clippy::too_many_arguments)]
fn wolfe_search<O: GradObjective>(
    obj: &O,
    x: &[f64],
    f0: f64,
    d: &[f64],
    dg0: f64,
    params: &LbfgsParams,
    trial: &mut Trial,
    evals: &mut usize,
) -> Option<(f64, f64)> {
    let mut alpha_prev = 0.0;
    let mut f_prev = f0;
    let mut dg_prev = dg0;
    let mut alpha = 1.0;
    let mut best: Option<(f64, f64)> = None;

    for i in 0..params.max_ls {
        let (f_a, dg_a) = trial.eval(obj, x, d, alpha, evals);
        if !f_a.is_finite() {
            alpha *= 0.5;
            continue;
        }
        if f_a > f0 + params.c1 * alpha * dg0 || (i > 0 && f_a >= f_prev) {
            best = zoom(
                obj, x, f0, d, dg0, alpha_prev, f_prev, dg_prev, alpha, f_a, params, trial, evals,
            );
            break;
        }
        if dg_a.abs() <= -params.c2 * dg0 {
            best = Some((alpha, f_a));
            break;
        }
        if dg_a >= 0.0 {
            best = zoom(
                obj, x, f0, d, dg0, alpha, f_a, dg_a, alpha_prev, f_prev, params, trial, evals,
            );
            break;
        }
        alpha_prev = alpha;
        f_prev = f_a;
        dg_prev = dg_a;
        alpha *= 2.0;
    }
    best.filter(|(_, f_a)| *f_a <= f0)
}

/// Zoom phase: bisection with sufficient-decrease/curvature checks on the
/// bracketed interval `[lo, hi]`.
#[allow(clippy::too_many_arguments)]
fn zoom<O: GradObjective>(
    obj: &O,
    x: &[f64],
    f0: f64,
    d: &[f64],
    dg0: f64,
    mut alpha_lo: f64,
    mut f_lo: f64,
    mut _dg_lo: f64,
    mut alpha_hi: f64,
    mut _f_hi: f64,
    params: &LbfgsParams,
    trial: &mut Trial,
    evals: &mut usize,
) -> Option<(f64, f64)> {
    for _ in 0..params.max_ls {
        let alpha = 0.5 * (alpha_lo + alpha_hi);
        if (alpha_hi - alpha_lo).abs() < 1e-16 {
            break;
        }
        let (f_a, dg_a) = trial.eval(obj, x, d, alpha, evals);
        if f_a > f0 + params.c1 * alpha * dg0 || f_a >= f_lo {
            alpha_hi = alpha;
            _f_hi = f_a;
        } else {
            if dg_a.abs() <= -params.c2 * dg0 {
                return Some((alpha, f_a));
            }
            if dg_a * (alpha_hi - alpha_lo) >= 0.0 {
                alpha_hi = alpha_lo;
                _f_hi = f_lo;
            }
            alpha_lo = alpha;
            f_lo = f_a;
            _dg_lo = dg_a;
        }
    }
    // Fall back to the best bracketed low point if it improves on f0.
    if f_lo < f0 && alpha_lo > 0.0 {
        let (f_a, _) = trial.eval(obj, x, d, alpha_lo, evals);
        return Some((alpha_lo, f_a));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(x: &[f64]) -> (f64, Vec<f64>) {
        // f = sum (x_i - i)^2, minimum at x_i = i
        let f = x
            .iter()
            .enumerate()
            .map(|(i, &v)| (v - i as f64).powi(2))
            .sum();
        let g = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 2.0 * (v - i as f64))
            .collect();
        (f, g)
    }

    fn rosenbrock(x: &[f64]) -> (f64, Vec<f64>) {
        let mut f = 0.0;
        let mut g = vec![0.0; x.len()];
        for i in 0..x.len() - 1 {
            let a = x[i + 1] - x[i] * x[i];
            let b = 1.0 - x[i];
            f += 100.0 * a * a + b * b;
            g[i] += -400.0 * x[i] * a - 2.0 * b;
            g[i + 1] += 200.0 * a;
        }
        (f, g)
    }

    #[test]
    fn minimizes_quadratic_exactly() {
        let r = lbfgs(&quadratic, &[5.0; 6], &LbfgsParams::default());
        assert!(r.converged, "did not converge: {r:?}");
        for (i, v) in r.x.iter().enumerate() {
            assert!((v - i as f64).abs() < 1e-6, "x[{i}] = {v}");
        }
        assert!(r.f < 1e-12);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let r = lbfgs(
            &rosenbrock,
            &[-1.2, 1.0],
            &LbfgsParams {
                max_iters: 500,
                ..Default::default()
            },
        );
        assert!(r.f < 1e-8, "rosenbrock residual {}", r.f);
        assert!((r.x[0] - 1.0).abs() < 1e-3 && (r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn higher_dim_rosenbrock() {
        let r = lbfgs(
            &rosenbrock,
            &[0.0; 10],
            &LbfgsParams {
                max_iters: 2000,
                ..Default::default()
            },
        );
        assert!(r.f < 1e-6, "10-d rosenbrock residual {}", r.f);
    }

    #[test]
    fn trigonometric_objective_like_instantiation() {
        // f(t) = 2 - cos(t0) - cos(t1 - 0.5): smooth periodic like HS distance
        let obj = |x: &[f64]| {
            let f = 2.0 - x[0].cos() - (x[1] - 0.5).cos();
            let g = vec![x[0].sin(), (x[1] - 0.5).sin()];
            (f, g)
        };
        let r = lbfgs(&obj, &[2.0, -2.0], &LbfgsParams::default());
        assert!(r.f < 1e-10, "residual {}", r.f);
    }

    #[test]
    fn starts_at_minimum_stays_there() {
        let r = lbfgs(&quadratic, &[0.0, 1.0, 2.0], &LbfgsParams::default());
        assert!(r.converged);
        assert!(r.f < 1e-20);
        assert!(r.iters <= 2);
    }

    #[test]
    fn respects_iteration_cap() {
        let r = lbfgs(
            &rosenbrock,
            &[-1.2, 1.0],
            &LbfgsParams {
                max_iters: 3,
                ..Default::default()
            },
        );
        assert!(r.iters <= 3);
    }

    #[test]
    fn result_never_worse_than_start() {
        let x0 = [3.0, -4.0, 0.5, 9.0];
        let (f0, _) = rosenbrock(&x0);
        let r = lbfgs(
            &rosenbrock,
            &x0,
            &LbfgsParams {
                max_iters: 50,
                ..Default::default()
            },
        );
        assert!(r.f <= f0);
    }
}
