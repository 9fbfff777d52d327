//! # qaprox-opt
//!
//! Numerical optimizers for circuit instantiation — the stand-in for the
//! SciPy BFGS optimizer the paper's synthesis tools call into:
//!
//! * [`lbfgs`](mod@lbfgs) — limited-memory BFGS with a strong-Wolfe line
//!   search, for objectives with analytic gradients (our Hilbert-Schmidt
//!   instantiation);
//! * [`multistart`] — seeded random restarts around the local optimizer;
//! * [`gradient`] — central-difference gradients and a gradient checker used
//!   by the test suites of downstream crates.

#![warn(missing_docs)]

pub mod gradient;
pub mod lbfgs;
pub mod multistart;

pub use lbfgs::{lbfgs, LbfgsParams, LbfgsResult};
pub use multistart::{multistart_minimize, multistart_minimize_par, MultistartParams};

/// An objective with an analytic gradient.
///
/// Implementors must override at least one of [`eval`](Self::eval) /
/// [`eval_into`](Self::eval_into) — each has a default in terms of the other.
/// Hot-path objectives override `eval_into` so a caller-provided gradient
/// buffer makes the evaluation allocation-free.
pub trait GradObjective {
    /// Evaluates the objective and its gradient at `x`.
    fn eval(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; x.len()];
        let f = self.eval_into(x, &mut grad);
        (f, grad)
    }

    /// Evaluates the objective, writing the gradient into `grad`
    /// (`grad.len() == x.len()`), and returns the objective value.
    fn eval_into(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let (f, g) = self.eval(x);
        grad.copy_from_slice(&g);
        f
    }

    /// Evaluates only the objective (default: discard the gradient).
    fn value(&self, x: &[f64]) -> f64 {
        self.eval(x).0
    }
}

impl<F> GradObjective for F
where
    F: Fn(&[f64]) -> (f64, Vec<f64>),
{
    fn eval(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self(x)
    }
}
