//! Fully-connected layers.

use rand::Rng;

use crate::tensor::Tensor;

/// A fully-connected layer `y = W x + b`.
///
/// Used for the generator's seven output heads and the predictor's output
/// layer (§V-A of the paper: heads are hidden layers with 32 features).
///
/// # Examples
///
/// ```
/// use hfl_nn::Linear;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = Linear::new(4, 2, &mut rng);
/// let y = layer.forward(&[1.0, 0.0]);
/// assert_eq!(y.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `out x in`.
    pub w: Tensor,
    /// Bias vector, `out x 1`.
    pub b: Tensor,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    #[must_use]
    pub fn new<R: Rng>(out_dim: usize, in_dim: usize, rng: &mut R) -> Linear {
        Linear {
            w: Tensor::xavier(out_dim, in_dim, rng),
            b: Tensor::zeros(out_dim, 1),
        }
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.w.rows
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.w.cols
    }

    /// Computes `W x + b`.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the input dimension.
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = self.w.matvec(x);
        for (yv, bv) in y.iter_mut().zip(&self.b.data) {
            *yv += bv;
        }
        y
    }

    /// Batched forward: computes `W x + b` for every input in `xs` through
    /// one fused GEMM ([`Tensor::matvec_batch`]) instead of `B` sequential
    /// matvecs. Bit-identical to calling [`Linear::forward`] per input.
    ///
    /// # Panics
    /// Panics if any input's length differs from the input dimension.
    #[must_use]
    pub fn forward_batch(&self, xs: &[&[f32]]) -> Vec<Vec<f32>> {
        let in_dim = self.in_dim();
        assert!(
            xs.iter().all(|x| x.len() == in_dim),
            "forward_batch dimension mismatch"
        );
        let mut flat_out = Vec::new();
        self.w.matvec_batch(&xs.concat(), xs.len(), &mut flat_out);
        flat_out
            .chunks_exact(self.out_dim())
            .map(|y| {
                let mut y = y.to_vec();
                for (yv, bv) in y.iter_mut().zip(&self.b.data) {
                    *yv += bv;
                }
                y
            })
            .collect()
    }

    /// Accumulates gradients for an output gradient `dy` at input `x` and
    /// returns the input gradient.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    #[must_use]
    pub fn backward(&mut self, x: &[f32], dy: &[f32]) -> Vec<f32> {
        self.backward_batch(x, dy, 1)
    }

    /// Batched [`Linear::backward`] over `batch` pairs of inputs and output
    /// gradients, each a flat buffer with one chunk per pair: accumulates
    /// the weight and bias gradients of the pairs in batch order, the
    /// order `batch` separate `backward` calls would add them in, and
    /// returns the input gradients as one flat buffer.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    #[must_use]
    pub fn backward_batch(&mut self, xs_flat: &[f32], dys_flat: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(
            xs_flat.len(),
            batch * self.in_dim(),
            "backward_batch inputs"
        );
        assert_eq!(
            dys_flat.len(),
            batch * self.out_dim(),
            "backward_batch gradients"
        );
        self.w.grad_outer_batch(dys_flat, xs_flat, 0..batch);
        for dy in dys_flat.chunks_exact(self.out_dim().max(1)) {
            for (g, d) in self.b.grad.iter_mut().zip(dy) {
                *g += d;
            }
        }
        let mut dxs = Vec::new();
        self.w.matvec_t_batch(dys_flat, batch, &mut dxs);
        dxs
    }

    /// The layer's parameter tensors (for the optimiser).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual() {
        let mut l = Linear::new(2, 3, &mut StdRng::seed_from_u64(0));
        l.w.data = vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5];
        l.b.data = vec![0.1, -0.1];
        let y = l.forward(&[2.0, 4.0, 6.0]);
        assert!((y[0] - (2.0 - 6.0 + 0.1)).abs() < 1e-6);
        assert!((y[1] - (1.0 + 2.0 + 3.0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn numeric_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(3, 4, &mut rng);
        let x: Vec<f32> = (0..4).map(|i| 0.3 * i as f32 - 0.5).collect();
        // Loss: sum of squares of outputs.
        let loss = |l: &Linear, x: &[f32]| -> f32 {
            l.forward(x).iter().map(|y| y * y).sum::<f32>() * 0.5
        };
        let y = layer.forward(&x);
        let dx = layer.backward(&x, &y); // dL/dy = y for this loss
        let eps = 1e-2;
        // Check weight gradients.
        for idx in 0..layer.w.len() {
            let orig = layer.w.data[idx];
            layer.w.data[idx] = orig + eps;
            let lp = loss(&layer, &x);
            layer.w.data[idx] = orig - eps;
            let lm = loss(&layer, &x);
            layer.w.data[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - layer.w.grad[idx]).abs() < 1e-2,
                "w[{idx}]: analytic {} vs numeric {}",
                layer.w.grad[idx],
                numeric
            );
        }
        // Check input gradients.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            assert!(
                (numeric - dx[i]).abs() < 1e-2,
                "x[{i}]: analytic {} vs numeric {numeric}",
                dx[i]
            );
        }
        // Bias gradient equals dy.
        for (g, d) in layer.b.grad.iter().zip(&y) {
            assert!((g - d).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_accumulate_until_cleared() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(2, 2, &mut rng);
        let _ = layer.backward(&[1.0, 1.0], &[1.0, 1.0]);
        let g1 = layer.w.grad.clone();
        let _ = layer.backward(&[1.0, 1.0], &[1.0, 1.0]);
        for (a, b) in layer.w.grad.iter().zip(&g1) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
        layer.w.zero_grad();
        assert!(layer.w.grad.iter().all(|&g| g == 0.0));
    }
}
