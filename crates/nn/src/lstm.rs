//! LSTM layers with full backpropagation through time (BPTT).
//!
//! The paper's generator and predictor are both two-layer LSTMs with a
//! hidden size of 256 (§V-A); this module provides the recurrent core they
//! share. Gates are packed in `[input, forget, cell, output]` order.
//!
//! Every forward path (a streaming [`Lstm::step`], the screening
//! [`Lstm::step_batch`] and the training [`Lstm::forward_seq`]) runs the
//! same gate kernel and takes `&self`, allocating its temporaries and its
//! result locally. A sequence runs layer by layer: one
//! [`Tensor::matvec_batch`] projects every step's input, then the
//! recurrent sweep adds `W_h·h_{t-1} + b` step by step.

use rand::Rng;

use crate::ops::{dsigmoid, dtanh, sigmoid};
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

/// The gate kernel of every forward path. On entry `z` holds a step's
/// gate pre-activations and `c` the previous cell state; on exit `z`
/// holds the activations `[i, f, g, o]`, `c` the new cell state,
/// `tanh_c` its `tanh` and `h` the new hidden vector.
fn gates(z: &mut [f32], c: &mut [f32], tanh_c: &mut [f32], h: &mut [f32]) {
    let hidden = c.len();
    let (zi, rest) = z.split_at_mut(hidden);
    let (zf, rest) = rest.split_at_mut(hidden);
    let (zg, zo) = rest.split_at_mut(hidden);
    for k in 0..hidden {
        let i = sigmoid(zi[k]);
        let f = sigmoid(zf[k]);
        let g = zg[k].tanh();
        let o = sigmoid(zo[k]);
        (zi[k], zf[k], zg[k], zo[k]) = (i, f, g, o);
        c[k] = f * c[k] + i * g;
        tanh_c[k] = c[k].tanh();
        h[k] = o * tanh_c[k];
    }
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

    /// Adds the recurrent term `zh + b` to the input projection in `z`,
    /// where `zh` is `W_h·h_prev`.
    fn add_recurrent(&self, z: &mut [f32], zh: &[f32]) {
        for ((zv, zhv), bv) in z.iter_mut().zip(zh).zip(&self.b.data) {
            *zv += zhv + bv;
        }
    }

    /// Batched one-step forward of `batch` hypothetical continuations of a
    /// shared `(h_prev, c_prev)` state, the layer step of
    /// [`Lstm::step_batch`]. The input-weight product runs as one
    /// [`Tensor::matvec_batch`] over all inputs and the recurrent term
    /// `Wh·h_prev + b` is computed once and shared, so the per-candidate
    /// cost drops to a slice of that product plus the gate
    /// non-linearities. Returns each continuation's hidden vector as
    /// consecutive chunks of one buffer.
    ///
    /// Bit-identical to `batch` separate [`Lstm::step`]s of this layer:
    /// every output element accumulates in the same order.
    ///
    /// # Panics
    /// Panics on input/state dimension mismatches.
    fn forward_batch(
        &self,
        xs_flat: &[f32],
        batch: usize,
        h_prev: &[f32],
        c_prev: &[f32],
    ) -> Vec<f32> {
        let h = self.hidden;
        assert_eq!(h_prev.len(), h, "forward_batch state dimension");
        assert_eq!(c_prev.len(), h, "forward_batch state dimension");
        let mut z = Vec::new();
        self.wx.matvec_batch(xs_flat, batch, &mut z);
        // Shared recurrent contribution: the scalar path adds `zh + b` to
        // each gate pre-activation, so precombining them is exact.
        let mut zhb = vec![0.0f32; 4 * h];
        self.wh.matvec_into(h_prev, &mut zhb);
        for (zhv, bv) in zhb.iter_mut().zip(&self.b.data) {
            *zhv += bv;
        }
        let (mut c, mut tanh_c) = (vec![0.0f32; h], vec![0.0f32; h]);
        let mut h_out = vec![0.0f32; batch * h];
        for (zb, hb) in z.chunks_exact_mut(4 * h).zip(h_out.chunks_exact_mut(h)) {
            for (zv, zhv) in zb.iter_mut().zip(&zhb) {
                *zv += zhv;
            }
            c.copy_from_slice(c_prev);
            gates(zb, &mut c, &mut tanh_c, hb);
        }
        h_out
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

/// One layer's saved forward activations over a sequence of `T` steps,
/// each buffer flat with one chunk per step.
#[derive(Debug, Clone)]
struct LayerTrace {
    /// Gate activations `[i, f, g, o]`, `T x 4H`.
    gates: Vec<f32>,
    /// Cell states `c_t`, `T x H`.
    cs: Vec<f32>,
    /// `tanh(c_t)`, kept for BPTT, `T x H`.
    tanh_cs: Vec<f32>,
    /// Hidden outputs `h_t` (the next layer's inputs), `T x H`.
    hs: Vec<f32>,
}

/// Saved forward activations for a whole sequence (consumed by
/// [`Lstm::backward_seq`]).
#[derive(Debug, Clone)]
pub struct LstmTrace {
    /// The bottom layer's inputs, `T x In`.
    inputs: Vec<f32>,
    layers: Vec<LayerTrace>,
    /// Top-layer hidden vector at each timestep.
    pub outputs: Vec<Vec<f32>>,
}

impl LstmTrace {
    /// Layer `l`'s inputs: the sequence for the bottom layer, the hidden
    /// outputs of layer `l - 1` above it.
    fn layer_inputs(&self, l: usize) -> &[f32] {
        match l.checked_sub(1) {
            Some(below) => &self.layers[below].hs,
            None => &self.inputs,
        }
    }
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

    /// One streaming step: feeds `x`, updates `state` in place, returns
    /// the top hidden vector. Used during generation, where no gradients
    /// flow, so nothing is kept for BPTT.
    ///
    /// # Panics
    /// Panics if `x` does not match the bottom cell's input dimension or
    /// `state` does not hold one `h` and one `c` of each layer's hidden
    /// size per layer.
    #[must_use]
    pub fn step(&self, x: &[f32], state: &mut LstmState) -> Vec<f32> {
        assert_eq!(x.len(), self.cells[0].wx.cols, "step input dimension");
        assert!(
            state.h.len() == self.cells.len() && state.c.len() == self.cells.len(),
            "step state layers"
        );
        let (mut z, mut zh, mut tanh_c) = (Vec::new(), Vec::new(), Vec::new());
        for (l, cell) in self.cells.iter().enumerate() {
            let (below, here) = state.h.split_at_mut(l);
            let input = below.last().map_or(x, Vec::as_slice);
            assert!(
                here[0].len() == cell.hidden && state.c[l].len() == cell.hidden,
                "step state dimension"
            );
            z.resize(4 * cell.hidden, 0.0);
            zh.resize(4 * cell.hidden, 0.0);
            tanh_c.resize(cell.hidden, 0.0);
            cell.wx.matvec_into(input, &mut z);
            cell.wh.matvec_into(&here[0], &mut zh);
            cell.add_recurrent(&mut z, &zh);
            gates(&mut z, &mut state.c[l], &mut tanh_c, &mut here[0]);
        }
        state.h.last().expect("at least one layer").clone()
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
    pub fn step_batch(&self, xs: &[&[f32]], state: &LstmState) -> Vec<Vec<f32>> {
        if xs.is_empty() {
            return Vec::new();
        }
        let in_dim = self.cells[0].wx.cols;
        assert!(
            xs.iter().all(|x| x.len() == in_dim),
            "step_batch input dimension"
        );
        let mut input = xs.concat();
        for (l, cell) in self.cells.iter().enumerate() {
            input = cell.forward_batch(&input, xs.len(), &state.h[l], &state.c[l]);
        }
        let top = self.cells.last().expect("at least one layer").hidden();
        input.chunks_exact(top).map(<[f32]>::to_vec).collect()
    }

    /// Forward over a whole sequence, saving activations for BPTT.
    ///
    /// The layers run one after another. Each projects all of its inputs
    /// with one [`Tensor::matvec_batch`], then sweeps the steps in order,
    /// adding `W_h·h_{t-1} + b` and running the gate kernel. Every value
    /// is computed by the same operations as in a step-by-step
    /// [`Lstm::step`] over the sequence, so the outputs are bit-identical.
    ///
    /// # Panics
    /// Panics if an input does not match the bottom cell's input
    /// dimension.
    #[must_use]
    pub fn forward_seq(&self, xs: &[Vec<f32>]) -> LstmTrace {
        let steps = xs.len();
        let in_dim = self.cells[0].wx.cols;
        assert!(
            xs.iter().all(|x| x.len() == in_dim),
            "forward_seq input dimension"
        );
        let mut trace = LstmTrace {
            inputs: xs.concat(),
            layers: Vec::with_capacity(self.cells.len()),
            outputs: Vec::new(),
        };
        let mut zh = Vec::new();
        for (l, cell) in self.cells.iter().enumerate() {
            let h = cell.hidden;
            let mut z = Vec::new();
            cell.wx.matvec_batch(trace.layer_inputs(l), steps, &mut z);
            zh.resize(4 * h, 0.0);
            let mut cs = vec![0.0f32; steps * h];
            let mut tanh_cs = vec![0.0f32; steps * h];
            let mut hs = vec![0.0f32; steps * h];
            let zeros = vec![0.0f32; h];
            for t in 0..steps {
                let zt = &mut z[t * 4 * h..][..4 * h];
                let h_prev = if t == 0 {
                    &zeros
                } else {
                    &hs[(t - 1) * h..][..h]
                };
                cell.wh.matvec_into(h_prev, &mut zh);
                cell.add_recurrent(zt, &zh);
                if t > 0 {
                    cs.copy_within((t - 1) * h..t * h, t * h);
                }
                gates(
                    zt,
                    &mut cs[t * h..][..h],
                    &mut tanh_cs[t * h..][..h],
                    &mut hs[t * h..][..h],
                );
            }
            trace.layers.push(LayerTrace {
                gates: z,
                cs,
                tanh_cs,
                hs,
            });
        }
        let (top, h) = (&trace.layers[self.cells.len() - 1].hs, self.hidden());
        trace.outputs = (0..steps).map(|t| top[t * h..][..h].to_vec()).collect();
        trace
    }

    /// Backward through time. `d_outputs[t]` is the loss gradient w.r.t.
    /// the top-layer hidden vector at step `t` (zero vectors for unused
    /// steps). Returns the gradient w.r.t. each input vector.
    ///
    /// The layers run top down. Each sweeps the steps backwards through
    /// the recurrence, carrying only `dh` and `dc`; then, per tensor and
    /// element in descending-step order, it accumulates the `W_x`, `W_h`
    /// and bias gradients and computes every step's input gradient with
    /// one [`Tensor::matvec_t_batch`]. Each gradient adds the same terms
    /// in the same order as a step-by-step BPTT, so the results are
    /// bit-identical to it.
    ///
    /// # Panics
    /// Panics if `d_outputs.len()` differs from the trace length or a
    /// gradient does not match the hidden dimension.
    pub fn backward_seq(&mut self, trace: &LstmTrace, d_outputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let steps = trace.outputs.len();
        assert_eq!(d_outputs.len(), steps, "gradient/trace length");
        let top = self.hidden();
        assert!(
            d_outputs.iter().all(|d| d.len() == top),
            "gradient dimension"
        );
        // The gradient flowing into the current layer's outputs.
        let mut d_above = d_outputs.concat();
        let mut dz = Vec::new();
        let mut dh_prev = Vec::new();
        for l in (0..self.cells.len()).rev() {
            let cell = &mut self.cells[l];
            let layer = &trace.layers[l];
            let h = cell.hidden;
            dz.clear();
            dz.resize(steps * 4 * h, 0.0);
            let mut dh_next = vec![0.0f32; h];
            let mut dc_next = vec![0.0f32; h];
            dh_prev.resize(h, 0.0);
            let zeros = vec![0.0f32; h];
            for t in (0..steps).rev() {
                let acts = &layer.gates[t * 4 * h..][..4 * h];
                let (i, f, g, o) = (
                    &acts[..h],
                    &acts[h..2 * h],
                    &acts[2 * h..3 * h],
                    &acts[3 * h..],
                );
                let c_prev = if t == 0 {
                    &zeros
                } else {
                    &layer.cs[(t - 1) * h..][..h]
                };
                let tanh_c = &layer.tanh_cs[t * h..][..h];
                let d_out = &d_above[t * h..][..h];
                let dzt = &mut dz[t * 4 * h..][..4 * h];
                for k in 0..h {
                    let dh = d_out[k] + dh_next[k];
                    let tc = tanh_c[k];
                    let do_ = dh * tc;
                    let dc = dc_next[k] + dh * o[k] * dtanh(tc);
                    let di = dc * g[k];
                    let df = dc * c_prev[k];
                    let dg = dc * i[k];
                    dzt[k] = di * dsigmoid(i[k]);
                    dzt[h + k] = df * dsigmoid(f[k]);
                    dzt[2 * h + k] = dg * dtanh(g[k]);
                    dzt[3 * h + k] = do_ * dsigmoid(o[k]);
                    dc_next[k] = dc * f[k];
                }
                if t > 0 {
                    cell.wh.matvec_t_into(dzt, &mut dh_prev);
                    std::mem::swap(&mut dh_next, &mut dh_prev);
                }
            }
            // The step-by-step order: every gradient element adds its
            // steps' terms from the last step to the first.
            let h_prevs = [&zeros[..], &layer.hs[..steps.saturating_sub(1) * h]].concat();
            cell.wx
                .grad_outer_batch(&dz, trace.layer_inputs(l), (0..steps).rev());
            cell.wh.grad_outer_batch(&dz, &h_prevs, (0..steps).rev());
            for dzt in dz.chunks_exact(4 * h).rev() {
                for (gb, d) in cell.b.grad.iter_mut().zip(dzt) {
                    *gb += d;
                }
            }
            cell.wx.matvec_t_batch(&dz, steps, &mut d_above);
        }
        let in_dim = self.cells[0].wx.cols;
        (0..steps)
            .map(|t| d_above[t * in_dim..][..in_dim].to_vec())
            .collect()
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
    fn step_rejects_a_state_of_another_layer_count() {
        let lstm = Lstm::new(3, 4, 2, &mut StdRng::seed_from_u64(1));
        let x = vec![0.1f32; 3];
        for layers in [1, 3] {
            let mut state = Lstm::new(3, 4, layers, &mut StdRng::seed_from_u64(1)).zero_state();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                lstm.step(&x, &mut state)
            }))
            .expect_err("a state of another layer count must not step");
            assert_eq!(
                panic.downcast_ref::<&str>(),
                Some(&"step state layers"),
                "{layers} layers"
            );
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
