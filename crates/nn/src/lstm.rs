//! LSTM layers with full backpropagation through time (BPTT).
//!
//! The paper's generator and predictor are both two-layer LSTMs with a
//! hidden size of 256 (§V-A); this module provides the recurrent core they
//! share. Gates are packed in `[input, forget, cell, output]` order.

use rand::Rng;

use crate::ops::{dsigmoid, dtanh, sigmoid};
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// One LSTM layer's parameters.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Input weights, `4H x In`.
    pub wx: Tensor,
    /// Recurrent weights, `4H x H`.
    pub wh: Tensor,
    /// Gate biases, `4H x 1`.
    pub b: Tensor,
    hidden: usize,
}

/// Saved activations for one `(timestep, layer)` forward step.
#[derive(Debug, Clone)]
struct CellCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    /// `tanh(c)` of the new cell state, reused by BPTT.
    tanh_c: Vec<f32>,
}

impl LstmCell {
    /// Creates a cell with Xavier weights and a forget-gate bias of 1
    /// (the standard trick for stable long-range training).
    #[must_use]
    pub fn new<R: Rng>(in_dim: usize, hidden: usize, rng: &mut R) -> LstmCell {
        let mut b = Tensor::zeros(4 * hidden, 1);
        for fbias in &mut b.data[hidden..2 * hidden] {
            *fbias = 1.0;
        }
        LstmCell {
            wx: Tensor::xavier(4 * hidden, in_dim, rng),
            wh: Tensor::xavier(4 * hidden, hidden, rng),
            b,
            hidden,
        }
    }

    /// Hidden dimension.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Rebuilds a cell from persisted tensors; `None` if the shapes are
    /// inconsistent.
    #[must_use]
    pub fn from_parts(wx: Tensor, wh: Tensor, b: Tensor, hidden: usize) -> Option<LstmCell> {
        let ok = wx.rows == 4 * hidden
            && wh.rows == 4 * hidden
            && wh.cols == hidden
            && b.rows == 4 * hidden
            && b.cols == 1;
        ok.then_some(LstmCell { wx, wh, b, hidden })
    }

    fn forward(
        &self,
        x: &[f32],
        h_prev: &[f32],
        c_prev: &[f32],
    ) -> (Vec<f32>, Vec<f32>, CellCache) {
        let h = self.hidden;
        let mut z = self.wx.matvec(x);
        let zh = self.wh.matvec(h_prev);
        for ((zv, zhv), bv) in z.iter_mut().zip(&zh).zip(&self.b.data) {
            *zv += zhv + bv;
        }
        let mut i = vec![0.0; h];
        let mut f = vec![0.0; h];
        let mut g = vec![0.0; h];
        let mut o = vec![0.0; h];
        for k in 0..h {
            i[k] = sigmoid(z[k]);
            f[k] = sigmoid(z[h + k]);
            g[k] = z[2 * h + k].tanh();
            o[k] = sigmoid(z[3 * h + k]);
        }
        let mut c = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        let mut hout = vec![0.0; h];
        for k in 0..h {
            c[k] = f[k] * c_prev[k] + i[k] * g[k];
            tanh_c[k] = c[k].tanh();
            hout[k] = o[k] * tanh_c[k];
        }
        let cache = CellCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (hout, c, cache)
    }

    /// Batched one-step forward of `batch` hypothetical continuations of a
    /// shared `(h_prev, c_prev)` state. The input-weight product runs as
    /// one fused GEMM over all inputs ([`Tensor::matvec_batch`]) and the
    /// recurrent term `Wh·h_prev + b` is computed once and shared, so the
    /// per-candidate cost drops to a single GEMM slice plus the gate
    /// non-linearities. Writes each continuation's hidden/cell vectors as
    /// consecutive chunks of `h_out`/`c_out` (cleared and resized).
    ///
    /// Bit-identical to `batch` separate `LstmCell::forward` calls: every
    /// output element accumulates in the same order.
    ///
    /// # Panics
    /// Panics on input/state dimension mismatches.
    // Hot-path signature: flat in/out buffers avoid per-call allocation,
    // which is the whole point of this function.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_batch(
        &self,
        xs_flat: &[f32],
        batch: usize,
        h_prev: &[f32],
        c_prev: &[f32],
        h_out: &mut Vec<f32>,
        c_out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) {
        let h = self.hidden;
        assert_eq!(h_prev.len(), h, "forward_batch state dimension");
        assert_eq!(c_prev.len(), h, "forward_batch state dimension");
        let mut z = scratch.take_zeroed(0);
        self.wx.matvec_batch(xs_flat, batch, &mut z);
        // Shared recurrent contribution: the scalar path adds `zh + b` to
        // each gate pre-activation, so precombining them is exact.
        let mut zhb = self.wh.matvec(h_prev);
        for (zhv, bv) in zhb.iter_mut().zip(&self.b.data) {
            *zhv += bv;
        }
        h_out.clear();
        h_out.resize(batch * h, 0.0);
        c_out.clear();
        c_out.resize(batch * h, 0.0);
        for ((zb, hb), cb) in z
            .chunks_exact_mut(4 * h)
            .zip(h_out.chunks_exact_mut(h))
            .zip(c_out.chunks_exact_mut(h))
        {
            for (zv, zhv) in zb.iter_mut().zip(&zhb) {
                *zv += zhv;
            }
            for k in 0..h {
                let i = sigmoid(zb[k]);
                let f = sigmoid(zb[h + k]);
                let g = zb[2 * h + k].tanh();
                let o = sigmoid(zb[3 * h + k]);
                let c = f * c_prev[k] + i * g;
                cb[k] = c;
                hb[k] = o * c.tanh();
            }
        }
        scratch.give(z);
    }

    /// Backward through one step. Returns `(dx, dh_prev, dc_prev)`.
    fn backward(
        &mut self,
        cache: &CellCache,
        dh: &[f32],
        dc_next: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let h = self.hidden;
        let mut dz = vec![0.0f32; 4 * h];
        let mut dc_prev = vec![0.0f32; h];
        for k in 0..h {
            let tc = cache.tanh_c[k];
            let do_ = dh[k] * tc;
            let dc = dc_next[k] + dh[k] * cache.o[k] * dtanh(tc);
            let di = dc * cache.g[k];
            let df = dc * cache.c_prev[k];
            let dg = dc * cache.i[k];
            dz[k] = di * dsigmoid(cache.i[k]);
            dz[h + k] = df * dsigmoid(cache.f[k]);
            dz[2 * h + k] = dg * dtanh(cache.g[k]);
            dz[3 * h + k] = do_ * dsigmoid(cache.o[k]);
            dc_prev[k] = dc * cache.f[k];
        }
        self.wx.grad_outer(&dz, &cache.x);
        self.wh.grad_outer(&dz, &cache.h_prev);
        for (gb, d) in self.b.grad.iter_mut().zip(&dz) {
            *gb += d;
        }
        let dx = self.wx.matvec_t(&dz);
        let dh_prev = self.wh.matvec_t(&dz);
        (dx, dh_prev, dc_prev)
    }

    /// The cell's parameter tensors (for the optimiser).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }
}

/// Running hidden/cell state for streaming generation.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden vectors, one per layer.
    pub h: Vec<Vec<f32>>,
    /// Cell vectors, one per layer.
    pub c: Vec<Vec<f32>>,
}

/// Saved forward activations for a whole sequence (consumed by
/// [`Lstm::backward_seq`]).
#[derive(Debug, Clone)]
pub struct LstmTrace {
    caches: Vec<Vec<CellCache>>, // [t][layer]
    /// Top-layer hidden vector at each timestep.
    pub outputs: Vec<Vec<f32>>,
}

/// A stack of LSTM layers.
///
/// # Examples
///
/// ```
/// use hfl_nn::Lstm;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let lstm = Lstm::new(8, 16, 2, &mut rng);
/// let xs = vec![vec![0.1; 8]; 5];
/// let trace = lstm.forward_seq(&xs);
/// assert_eq!(trace.outputs.len(), 5);
/// assert_eq!(trace.outputs[0].len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Lstm {
    /// The stacked cells, bottom first.
    pub cells: Vec<LstmCell>,
}

impl Lstm {
    /// Creates `layers` stacked cells mapping `in_dim` → `hidden`.
    ///
    /// # Panics
    /// Panics if `layers == 0`.
    #[must_use]
    pub fn new<R: Rng>(in_dim: usize, hidden: usize, layers: usize, rng: &mut R) -> Lstm {
        assert!(layers > 0, "at least one layer");
        let mut cells = Vec::with_capacity(layers);
        cells.push(LstmCell::new(in_dim, hidden, rng));
        for _ in 1..layers {
            cells.push(LstmCell::new(hidden, hidden, rng));
        }
        Lstm { cells }
    }

    /// Hidden dimension.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.cells[0].hidden()
    }

    /// Number of layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.cells.len()
    }

    /// A zeroed state for streaming.
    #[must_use]
    pub fn zero_state(&self) -> LstmState {
        LstmState {
            h: self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect(),
            c: self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect(),
        }
    }

    /// One streaming step: feeds `x`, updates `state`, returns the top
    /// hidden vector. Used during generation, where no gradients flow.
    #[must_use]
    pub fn step(&self, x: &[f32], state: &mut LstmState) -> Vec<f32> {
        let mut input = x.to_vec();
        for (l, cell) in self.cells.iter().enumerate() {
            let (h, c, _) = cell.forward(&input, &state.h[l], &state.c[l]);
            state.h[l] = h.clone();
            state.c[l] = c;
            input = h;
        }
        input
    }

    /// Batched streaming step: treats each `xs[b]` as a hypothetical
    /// one-step continuation of the shared `state` (which is left
    /// untouched) and returns each continuation's top-layer hidden vector.
    /// Bit-identical to cloning `state` and calling [`Lstm::step`] once per
    /// input — this is the candidate-screening primitive of the fuzzing
    /// loop, costing one fused GEMM per gate block per layer instead of
    /// `B` sequential matvecs.
    ///
    /// # Panics
    /// Panics if the inputs' lengths disagree with each other or the
    /// bottom cell's input dimension.
    #[must_use]
    pub fn step_batch(
        &self,
        xs: &[&[f32]],
        state: &LstmState,
        scratch: &mut Scratch,
    ) -> Vec<Vec<f32>> {
        if xs.is_empty() {
            return Vec::new();
        }
        let batch = xs.len();
        let in_dim = self.cells[0].wx.cols;
        let mut input = scratch.take_zeroed(batch * in_dim);
        for (chunk, x) in input.chunks_exact_mut(in_dim).zip(xs) {
            assert_eq!(x.len(), in_dim, "step_batch input dimension");
            chunk.copy_from_slice(x);
        }
        let mut h_out = scratch.take_zeroed(0);
        let mut c_out = scratch.take_zeroed(0);
        for (l, cell) in self.cells.iter().enumerate() {
            cell.forward_batch(
                &input,
                batch,
                &state.h[l],
                &state.c[l],
                &mut h_out,
                &mut c_out,
                scratch,
            );
            std::mem::swap(&mut input, &mut h_out);
        }
        let top = self.cells.last().expect("at least one layer").hidden();
        let outs = input.chunks_exact(top).map(<[f32]>::to_vec).collect();
        scratch.give(input);
        scratch.give(h_out);
        scratch.give(c_out);
        outs
    }

    /// Forward over a whole sequence, saving activations for BPTT.
    #[must_use]
    pub fn forward_seq(&self, xs: &[Vec<f32>]) -> LstmTrace {
        let mut state = self.zero_state();
        let mut caches = Vec::with_capacity(xs.len());
        let mut outputs = Vec::with_capacity(xs.len());
        for x in xs {
            let mut input = x.clone();
            let mut step_caches = Vec::with_capacity(self.cells.len());
            for (l, cell) in self.cells.iter().enumerate() {
                let (h, c, cache) = cell.forward(&input, &state.h[l], &state.c[l]);
                state.h[l] = h.clone();
                state.c[l] = c;
                step_caches.push(cache);
                input = h;
            }
            caches.push(step_caches);
            outputs.push(input);
        }
        LstmTrace { caches, outputs }
    }

    /// Backward through time. `d_outputs[t]` is the loss gradient w.r.t.
    /// the top-layer hidden vector at step `t` (zero vectors for unused
    /// steps). Returns the gradient w.r.t. each input vector.
    ///
    /// # Panics
    /// Panics if `d_outputs.len()` differs from the trace length.
    pub fn backward_seq(&mut self, trace: &LstmTrace, d_outputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(d_outputs.len(), trace.caches.len(), "gradient/trace length");
        let layers = self.cells.len();
        let mut dh_next: Vec<Vec<f32>> = self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect();
        let mut dc_next: Vec<Vec<f32>> = self.cells.iter().map(|c| vec![0.0; c.hidden()]).collect();
        let mut dxs = vec![Vec::new(); trace.caches.len()];
        for t in (0..trace.caches.len()).rev() {
            // Gradient flowing into the top layer's hidden output.
            let mut dh_from_above = d_outputs[t].clone();
            for l in (0..layers).rev() {
                let mut dh = dh_from_above;
                for (a, b) in dh.iter_mut().zip(&dh_next[l]) {
                    *a += b;
                }
                let (dx, dh_prev, dc_prev) =
                    self.cells[l].backward(&trace.caches[t][l], &dh, &dc_next[l]);
                dh_next[l] = dh_prev;
                dc_next[l] = dc_prev;
                dh_from_above = dx;
            }
            dxs[t] = dh_from_above;
        }
        dxs
    }

    /// All parameter tensors (for the optimiser).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.cells
            .iter_mut()
            .flat_map(LstmCell::params_mut)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_inputs(seq: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..seq)
            .map(|t| {
                (0..dim)
                    .map(|i| ((t * dim + i) as f32 * 0.37).sin() * 0.5)
                    .collect()
            })
            .collect()
    }

    /// Scalar test loss: half the sum of squares of every output.
    fn loss_of(lstm: &Lstm, xs: &[Vec<f32>]) -> f32 {
        lstm.forward_seq(xs)
            .outputs
            .iter()
            .flat_map(|h| h.iter())
            .map(|v| v * v)
            .sum::<f32>()
            * 0.5
    }

    #[test]
    fn shapes_and_determinism() {
        let lstm = Lstm::new(3, 5, 2, &mut StdRng::seed_from_u64(0));
        assert_eq!(lstm.hidden(), 5);
        assert_eq!(lstm.layers(), 2);
        let xs = toy_inputs(4, 3);
        let t1 = lstm.forward_seq(&xs);
        let t2 = lstm.forward_seq(&xs);
        assert_eq!(t1.outputs, t2.outputs);
        assert!(t1.outputs.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn streaming_step_matches_sequence_forward() {
        let lstm = Lstm::new(3, 4, 2, &mut StdRng::seed_from_u64(1));
        let xs = toy_inputs(6, 3);
        let trace = lstm.forward_seq(&xs);
        let mut state = lstm.zero_state();
        for (t, x) in xs.iter().enumerate() {
            let h = lstm.step(x, &mut state);
            for (a, b) in h.iter().zip(&trace.outputs[t]) {
                assert!((a - b).abs() < 1e-6, "t={t}");
            }
        }
    }

    #[test]
    fn outputs_depend_on_history() {
        let lstm = Lstm::new(2, 4, 1, &mut StdRng::seed_from_u64(2));
        let a = lstm.forward_seq(&[vec![1.0, 0.0], vec![0.0, 0.0]]);
        let b = lstm.forward_seq(&[vec![0.0, 1.0], vec![0.0, 0.0]]);
        // Same final input, different history: outputs must differ.
        assert_ne!(a.outputs[1], b.outputs[1]);
    }

    #[test]
    fn bptt_numeric_gradient_check() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lstm = Lstm::new(3, 4, 2, &mut rng);
        let xs = toy_inputs(3, 3);
        let trace = lstm.forward_seq(&xs);
        let d_out: Vec<Vec<f32>> = trace.outputs.clone(); // dL/dh = h
        let dxs = lstm.backward_seq(&trace, &d_out);
        let eps = 1e-2;

        // Weight gradients of both layers (sampled to keep the test fast).
        for l in 0..2 {
            let n = lstm.cells[l].wx.len();
            for idx in (0..n).step_by(7) {
                let orig = lstm.cells[l].wx.data[idx];
                lstm.cells[l].wx.data[idx] = orig + eps;
                let lp = loss_of(&lstm, &xs);
                lstm.cells[l].wx.data[idx] = orig - eps;
                let lm = loss_of(&lstm, &xs);
                lstm.cells[l].wx.data[idx] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = lstm.cells[l].wx.grad[idx];
                assert!(
                    (numeric - analytic).abs() < 3e-2,
                    "layer {l} wx[{idx}]: analytic {analytic} vs numeric {numeric}"
                );
            }
            let nh = lstm.cells[l].wh.len();
            for idx in (0..nh).step_by(5) {
                let orig = lstm.cells[l].wh.data[idx];
                lstm.cells[l].wh.data[idx] = orig + eps;
                let lp = loss_of(&lstm, &xs);
                lstm.cells[l].wh.data[idx] = orig - eps;
                let lm = loss_of(&lstm, &xs);
                lstm.cells[l].wh.data[idx] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = lstm.cells[l].wh.grad[idx];
                assert!(
                    (numeric - analytic).abs() < 3e-2,
                    "layer {l} wh[{idx}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
        // Bias gradients.
        for idx in 0..lstm.cells[0].b.len() {
            let orig = lstm.cells[0].b.data[idx];
            lstm.cells[0].b.data[idx] = orig + eps;
            let lp = loss_of(&lstm, &xs);
            lstm.cells[0].b.data[idx] = orig - eps;
            let lm = loss_of(&lstm, &xs);
            lstm.cells[0].b.data[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = lstm.cells[0].b.grad[idx];
            assert!(
                (numeric - analytic).abs() < 3e-2,
                "b[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
        // Input gradients.
        for t in 0..xs.len() {
            for i in 0..xs[t].len() {
                let mut xp = xs.clone();
                xp[t][i] += eps;
                let mut xm = xs.clone();
                xm[t][i] -= eps;
                let numeric = (loss_of(&lstm, &xp) - loss_of(&lstm, &xm)) / (2.0 * eps);
                assert!(
                    (numeric - dxs[t][i]).abs() < 3e-2,
                    "x[{t}][{i}]: analytic {} vs numeric {numeric}",
                    dxs[t][i]
                );
            }
        }
    }

    #[test]
    fn forget_bias_is_one() {
        let cell = LstmCell::new(3, 4, &mut StdRng::seed_from_u64(0));
        assert!(cell.b.data[4..8].iter().all(|&b| (b - 1.0).abs() < 1e-6));
        assert!(cell.b.data[..4].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn params_enumeration() {
        let mut lstm = Lstm::new(3, 4, 2, &mut StdRng::seed_from_u64(0));
        assert_eq!(lstm.params_mut().len(), 6, "3 tensors per layer");
    }
}
