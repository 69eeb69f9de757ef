//! The Adam optimiser with global-norm gradient clipping.

use crate::tensor::Tensor;

/// Adam optimiser state (β₁/β₂ schedules shared across all tensors).
///
/// The paper trains both the instruction generator and the predictor with a
/// learning rate of `1e-4` (§V-A); [`Adam::paper_default`] encodes that.
///
/// # Examples
///
/// ```
/// use hfl_nn::{Adam, Tensor};
///
/// let mut t = Tensor::zeros(2, 2);
/// t.grad = vec![1.0; 4];
/// let mut adam = Adam::new(0.1);
/// adam.step(&mut [&mut t]);
/// assert!(t.data.iter().all(|&w| w < 0.0), "moved against the gradient");
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
    /// Global-norm clip threshold (`None` disables clipping).
    pub clip_norm: Option<f32>,
    t: u64,
}

impl Adam {
    /// Creates an optimiser with standard β parameters.
    #[must_use]
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: Some(5.0),
            t: 0,
        }
    }

    /// The paper's configuration: learning rate `1e-4`.
    #[must_use]
    pub fn paper_default() -> Adam {
        Adam::new(1e-4)
    }

    /// Number of update steps taken.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Restores the step counter from a checkpoint so bias correction
    /// resumes on the exact same schedule.
    pub fn restore_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// Applies one update to every tensor and clears their gradients.
    pub fn step(&mut self, params: &mut [&mut Tensor]) {
        self.t += 1;
        // Global-norm clipping across all tensors.
        let scale = match self.clip_norm {
            Some(max) => {
                let norm: f32 = params.iter().map(|p| p.grad_norm_sq()).sum::<f32>().sqrt();
                if norm > max && norm > 0.0 {
                    max / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let (decay1, decay2) = (1.0 - beta1, 1.0 - beta2);
        // One pass over zipped slices with no loop-carried dependency, so
        // the loop vectorises without reassociating anything: every element
        // sees exactly the operations of the scalar update, true divisions
        // included, and its gradient is cleared in the same pass.
        for p in params.iter_mut() {
            let Tensor {
                data, grad, m, v, ..
            } = &mut **p;
            for (((w, g), m), v) in data.iter_mut().zip(grad.iter_mut()).zip(m).zip(v) {
                let gs = *g * scale;
                *g = 0.0;
                *m = beta1 * *m + decay1 * gs;
                *v = beta2 * *v + decay2 * gs * gs;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adam must minimise a simple quadratic.
    #[test]
    fn minimises_a_quadratic() {
        let mut t = Tensor::zeros(1, 2);
        t.data = vec![5.0, -3.0];
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            // L = 0.5 * ||x - [1, 2]||^2, grad = x - [1,2]
            t.grad[0] = t.data[0] - 1.0;
            t.grad[1] = t.data[1] - 2.0;
            adam.step(&mut [&mut t]);
        }
        assert!((t.data[0] - 1.0).abs() < 0.05, "{:?}", t.data);
        assert!((t.data[1] - 2.0).abs() < 0.05, "{:?}", t.data);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn step_clears_gradients() {
        let mut t = Tensor::zeros(1, 2);
        t.grad = vec![1.0, 1.0];
        let mut adam = Adam::new(0.01);
        adam.step(&mut [&mut t]);
        assert_eq!(t.grad, vec![0.0, 0.0]);
    }

    #[test]
    fn clipping_bounds_the_update() {
        let mut a = Tensor::zeros(1, 1);
        let mut b = Tensor::zeros(1, 1);
        a.grad = vec![1e6];
        b.grad = vec![1e6];
        let mut adam = Adam::new(0.1);
        adam.clip_norm = Some(1.0);
        adam.step(&mut [&mut a, &mut b]);
        // With clipping, the first-step Adam update is bounded by lr.
        assert!(a.data[0].abs() <= 0.11, "{}", a.data[0]);
    }

    #[test]
    fn unclipped_huge_gradient_still_bounded_by_adam() {
        // Adam's normalisation bounds the per-step move to ~lr regardless.
        let mut t = Tensor::zeros(1, 1);
        t.grad = vec![1e9];
        let mut adam = Adam::new(0.01);
        adam.clip_norm = None;
        adam.step(&mut [&mut t]);
        assert!(t.data[0].abs() <= 0.011);
    }

    #[test]
    fn paper_default_learning_rate() {
        let adam = Adam::paper_default();
        assert!((adam.lr - 1e-4).abs() < 1e-9);
    }
}
