//! Gradient descent with momentum for objectives with an analytic (or
//! parameter-shift) gradient oracle.
//!
//! The variational fast path: when the engine can evaluate exact gradients
//! of a symbolic skeleton (`SweepPlan::grad_expectation_z`), the outer
//! loop converges in far fewer circuit evaluations than the
//! derivative-free optimizers — each iteration costs `2 * num_symbolic_ops`
//! shifted evaluations instead of a simplex reshuffle.

use crate::OptimOutcome;

/// Gradient-descent configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GradientDescentConfig {
    /// Maximum iterations (each costs one `(value, gradient)` evaluation).
    pub max_iters: usize,
    /// Step size.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)` (0 = plain steepest descent).
    pub momentum: f64,
    /// Stop when the gradient's infinity norm falls below this.
    pub g_tol: f64,
}

impl Default for GradientDescentConfig {
    fn default() -> Self {
        GradientDescentConfig {
            max_iters: 100,
            learning_rate: 0.1,
            momentum: 0.5,
            g_tol: 1e-5,
        }
    }
}

/// Minimizes `f` from `x0` given an oracle returning `(f(x), grad f(x))`.
///
/// Deterministic: no randomness anywhere, so fixed inputs replay the exact
/// trajectory. Returns the best iterate seen (not necessarily the last —
/// an overshooting step never degrades the reported optimum).
pub fn gradient_descent(
    mut eval: impl FnMut(&[f64]) -> (f64, Vec<f64>),
    x0: &[f64],
    config: GradientDescentConfig,
) -> OptimOutcome {
    let mut x = x0.to_vec();
    let mut velocity = vec![0.0f64; x.len()];
    let mut best_x = x.clone();
    let mut best_value = f64::INFINITY;
    let mut evals = 0;
    let mut iters = 0;
    for _ in 0..config.max_iters {
        let (value, grad) = eval(&x);
        evals += 1;
        iters += 1;
        if value < best_value {
            best_value = value;
            best_x.copy_from_slice(&x);
        }
        let g_norm = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        if g_norm < config.g_tol || !value.is_finite() {
            break;
        }
        for ((xi, vi), gi) in x.iter_mut().zip(&mut velocity).zip(&grad) {
            *vi = config.momentum * *vi - config.learning_rate * gi;
            *xi += *vi;
        }
    }
    OptimOutcome {
        x: best_x,
        value: best_value,
        evals,
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(x: &[f64]) -> (f64, Vec<f64>) {
        // f = sum (x_i - i)^2, minimum at x_i = i.
        let value = x
            .iter()
            .enumerate()
            .map(|(i, xi)| (xi - i as f64).powi(2))
            .sum();
        let grad = x
            .iter()
            .enumerate()
            .map(|(i, xi)| 2.0 * (xi - i as f64))
            .collect();
        (value, grad)
    }

    #[test]
    fn converges_on_quadratic() {
        let out = gradient_descent(quadratic, &[5.0, -3.0, 7.0], GradientDescentConfig::default());
        assert!(out.value < 1e-6, "value {}", out.value);
        for (i, xi) in out.x.iter().enumerate() {
            assert!((xi - i as f64).abs() < 1e-3, "x[{i}] = {xi}");
        }
    }

    #[test]
    fn stops_on_gradient_tolerance() {
        let out = gradient_descent(
            quadratic,
            &[0.0, 1.0, 2.0], // already at the minimum
            GradientDescentConfig::default(),
        );
        assert_eq!(out.iters, 1);
        assert_eq!(out.value, 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let cfg = GradientDescentConfig {
            max_iters: 17,
            ..GradientDescentConfig::default()
        };
        let a = gradient_descent(quadratic, &[3.0, 3.0, 3.0], cfg);
        let b = gradient_descent(quadratic, &[3.0, 3.0, 3.0], cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn reports_best_iterate_not_last() {
        // A huge step overshoots; the best value seen must still be the
        // initial one.
        let out = gradient_descent(
            |x| (x[0] * x[0], vec![2.0 * x[0]]),
            &[1.0],
            GradientDescentConfig {
                max_iters: 3,
                learning_rate: 10.0,
                momentum: 0.0,
                g_tol: 0.0,
            },
        );
        assert!(out.value <= 1.0);
    }
}
