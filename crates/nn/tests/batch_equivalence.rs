//! Property tests for the batched hot-path: every batched forward
//! (`Linear::forward_batch`, `Lstm::step_batch`)
//! must be *bitwise* identical to the scalar path it replaces, across
//! random shapes and seeds, before and after optimiser steps. The kernels
//! underneath (`Tensor::matvec`, `Tensor::matvec_batch`, the transposed
//! products, the clip norm and `Adam::step`) and the layer-major LSTM
//! passes are pinned bit for bit to test-local copies of the plain scalar
//! loops and the per-step BPTT they replaced. A finite-difference gradient
//! check evaluates the loss *through* the batched forward, pinning the
//! analytic gradients to the batched computation.

use hfl_nn::adam::global_norm_sq;
use hfl_nn::ops::{dsigmoid, dtanh, sigmoid, softmax_log_norm};
use hfl_nn::{Adam, Linear, Lstm, LstmCell, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The serial dot-product matvec: one accumulator per row, starting at
/// `0.0`, adding in ascending column order.
fn scalar_matvec(t: &Tensor, x: &[f32]) -> Vec<f32> {
    (0..t.rows)
        .map(|r| {
            let mut acc = 0.0f32;
            for (w, xv) in t.row(r).iter().zip(x) {
                acc += w * xv;
            }
            acc
        })
        .collect()
}

/// The serial transposed product: every output starts at `0.0` and adds
/// the rows' terms in ascending row order, skipping rows whose `y` is
/// zero.
fn scalar_matvec_t(t: &Tensor, y: &[f32]) -> Vec<f32> {
    let mut x = vec![0.0f32; t.cols];
    for (r, &yr) in y.iter().enumerate() {
        if yr == 0.0 {
            continue;
        }
        for (xc, w) in x.iter_mut().zip(t.row(r)) {
            *xc += w * yr;
        }
    }
    x
}

/// The serial outer-product accumulation `grad += y xᵀ`, skipping rows
/// whose `y` is zero.
fn scalar_grad_outer(t: &mut Tensor, y: &[f32], x: &[f32]) {
    for (r, &yr) in y.iter().enumerate() {
        if yr == 0.0 {
            continue;
        }
        for (g, xv) in t.grad[r * t.cols..(r + 1) * t.cols].iter_mut().zip(x) {
            *g += yr * xv;
        }
    }
}

/// One tensor's serial squared gradient norm.
fn serial_norm_sq(t: &Tensor) -> f32 {
    t.grad.iter().map(|g| g * g).sum()
}

/// Saved activations of one `(timestep, layer)` step of the per-step
/// BPTT reference.
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// The per-step cell forward: `z = W_x x + (W_h h_prev + b)`, then the
/// gates. Returns `(h, c, cache)`.
fn reference_cell_forward(
    cell: &LstmCell,
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
) -> (Vec<f32>, Vec<f32>, StepCache) {
    let h = cell.hidden();
    let mut z = scalar_matvec(&cell.wx, x);
    let zh = scalar_matvec(&cell.wh, h_prev);
    for ((zv, zhv), bv) in z.iter_mut().zip(&zh).zip(&cell.b.data) {
        *zv += zhv + bv;
    }
    let (mut i, mut f, mut g, mut o) = (vec![0.0; h], vec![0.0; h], vec![0.0; h], vec![0.0; h]);
    for k in 0..h {
        i[k] = sigmoid(z[k]);
        f[k] = sigmoid(z[h + k]);
        g[k] = z[2 * h + k].tanh();
        o[k] = sigmoid(z[3 * h + k]);
    }
    let (mut c, mut tanh_c, mut hout) = (vec![0.0; h], vec![0.0; h], vec![0.0; h]);
    for k in 0..h {
        c[k] = f[k] * c_prev[k] + i[k] * g[k];
        tanh_c[k] = c[k].tanh();
        hout[k] = o[k] * tanh_c[k];
    }
    let cache = StepCache {
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

/// The per-step cell backward; returns `(dx, dh_prev, dc_prev)`.
fn reference_cell_backward(
    cell: &mut LstmCell,
    cache: &StepCache,
    dh: &[f32],
    dc_next: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let h = cell.hidden();
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
    scalar_grad_outer(&mut cell.wx, &dz, &cache.x);
    scalar_grad_outer(&mut cell.wh, &dz, &cache.h_prev);
    for (gb, d) in cell.b.grad.iter_mut().zip(&dz) {
        *gb += d;
    }
    let dx = scalar_matvec_t(&cell.wx, &dz);
    let dh_prev = scalar_matvec_t(&cell.wh, &dz);
    (dx, dh_prev, dc_prev)
}

/// The step-major forward over a sequence: per timestep, every layer.
/// Returns the caches (`[t][layer]`) and the top-layer outputs.
fn reference_forward_seq(lstm: &Lstm, xs: &[Vec<f32>]) -> (Vec<Vec<StepCache>>, Vec<Vec<f32>>) {
    let mut state = lstm.zero_state();
    let (mut caches, mut outputs) = (Vec::new(), Vec::new());
    for x in xs {
        let mut input = x.clone();
        let mut step = Vec::new();
        for (l, cell) in lstm.cells.iter().enumerate() {
            let (h, c, cache) = reference_cell_forward(cell, &input, &state.h[l], &state.c[l]);
            state.h[l] = h.clone();
            state.c[l] = c;
            step.push(cache);
            input = h;
        }
        caches.push(step);
        outputs.push(input);
    }
    (caches, outputs)
}

/// The step-major BPTT: timesteps last to first, layers top down.
fn reference_backward_seq(
    lstm: &mut Lstm,
    caches: &[Vec<StepCache>],
    d_outputs: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let layers = lstm.cells.len();
    let mut dh_next: Vec<Vec<f32>> = lstm.cells.iter().map(|c| vec![0.0; c.hidden()]).collect();
    let mut dc_next = dh_next.clone();
    let mut dxs = vec![Vec::new(); caches.len()];
    for t in (0..caches.len()).rev() {
        let mut dh_from_above = d_outputs[t].clone();
        for l in (0..layers).rev() {
            let mut dh = dh_from_above;
            for (a, b) in dh.iter_mut().zip(&dh_next[l]) {
                *a += b;
            }
            let (dx, dh_prev, dc_prev) =
                reference_cell_backward(&mut lstm.cells[l], &caches[t][l], &dh, &dc_next[l]);
            dh_next[l] = dh_prev;
            dc_next[l] = dc_prev;
            dh_from_above = dx;
        }
        dxs[t] = dh_from_above;
    }
    dxs
}

/// The two-pass softmax and log-probability the one-pass
/// `softmax_log_norm` replaces.
fn reference_softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

fn reference_log_prob(logits: &[f32], action: usize) -> f32 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|&l| (l - max).exp()).sum::<f32>().ln() + max;
    logits[action] - log_sum
}

/// The indexed scalar Adam update with global-norm clipping, as a
/// reference for the fused `Adam::step`.
struct ScalarAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip_norm: Option<f32>,
    t: u64,
}

impl ScalarAdam {
    fn mirroring(adam: &Adam) -> ScalarAdam {
        ScalarAdam {
            lr: adam.lr,
            beta1: adam.beta1,
            beta2: adam.beta2,
            eps: adam.eps,
            clip_norm: adam.clip_norm,
            t: adam.steps(),
        }
    }

    fn step(&mut self, params: &mut [&mut Tensor]) {
        self.t += 1;
        let scale = match self.clip_norm {
            Some(max) => {
                let norm: f32 = params.iter().map(|p| serial_norm_sq(p)).sum::<f32>().sqrt();
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
        for p in params.iter_mut() {
            for i in 0..p.data.len() {
                let g = p.grad[i] * scale;
                p.m[i] = self.beta1 * p.m[i] + (1.0 - self.beta1) * g;
                p.v[i] = self.beta2 * p.v[i] + (1.0 - self.beta2) * g * g;
                let mhat = p.m[i] / bc1;
                let vhat = p.v[i] / bc2;
                p.data[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            p.zero_grad();
        }
    }
}

/// Asserts `matvec` and `matvec_batch` on a `rows x cols` tensor agree
/// bit for bit with [`scalar_matvec`].
fn check_matvec_shape(rng: &mut StdRng, rows: usize, cols: usize, batch: usize) {
    let t = Tensor::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0));
    let xs: Vec<Vec<f32>> = (0..batch).map(|_| random_vec(rng, cols)).collect();
    let flat: Vec<f32> = xs.concat();
    let mut out = vec![f32::NAN; 3];
    t.matvec_batch(&flat, batch, &mut out);
    assert_eq!(out.len(), batch * rows, "{rows}x{cols} batch {batch}");
    for (b, x) in xs.iter().enumerate() {
        let want = bits(&scalar_matvec(&t, x));
        assert_eq!(bits(&t.matvec(x)), want, "matvec {rows}x{cols}");
        assert_eq!(
            bits(&out[b * rows..(b + 1) * rows]),
            want,
            "matvec_batch {rows}x{cols} input {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn linear_forward_batch_is_bitwise_identical(
        seed in any::<u64>(),
        in_dim in 1..24usize,
        out_dim in 1..24usize,
        batch in 1..9usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::new(out_dim, in_dim, &mut rng);
        let xs: Vec<Vec<f32>> = (0..batch).map(|_| random_vec(&mut rng, in_dim)).collect();
        let xrefs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let batched = layer.forward_batch(&xrefs);
        prop_assert_eq!(batched.len(), batch);
        for (x, b) in xs.iter().zip(&batched) {
            prop_assert_eq!(bits(&layer.forward(x)), bits(b));
        }
    }

    #[test]
    fn linear_forward_batch_survives_adam_steps(
        seed in any::<u64>(),
        in_dim in 1..16usize,
        out_dim in 1..16usize,
    ) {
        // Optimiser steps rewrite the weights in place; the batched path
        // must keep tracking the scalar one after every step.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Linear::new(out_dim, in_dim, &mut rng);
        let mut adam = Adam::new(1e-2);
        for _ in 0..3 {
            let x = random_vec(&mut rng, in_dim);
            let before = layer.forward_batch(&[&x]);
            prop_assert_eq!(bits(&layer.forward(&x)), bits(&before[0]));
            let dy = layer.forward(&x);
            let _ = layer.backward(&x, &dy);
            adam.step(&mut layer.params_mut());
            let after = layer.forward_batch(&[&x]);
            prop_assert_eq!(
                bits(&layer.forward(&x)),
                bits(&after[0]),
                "batched forward diverged after an Adam step"
            );
        }
    }

    #[test]
    fn lstm_step_batch_is_bitwise_identical(
        seed in any::<u64>(),
        in_dim in 1..12usize,
        hidden in 1..12usize,
        layers in 1..4usize,
        batch in 1..9usize,
        warmup in 0..4usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lstm = Lstm::new(in_dim, hidden, layers, &mut rng);
        // Advance a shared state so the recurrent term is non-trivial.
        let mut state = lstm.zero_state();
        for _ in 0..warmup {
            let x = random_vec(&mut rng, in_dim);
            let _ = lstm.step(&x, &mut state);
        }
        let xs: Vec<Vec<f32>> = (0..batch).map(|_| random_vec(&mut rng, in_dim)).collect();
        let xrefs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let batched = lstm.step_batch(&xrefs, &state);
        prop_assert_eq!(batched.len(), batch);
        for (x, b) in xs.iter().zip(&batched) {
            // The scalar reference: each candidate continues from a clone
            // of the shared state.
            let mut st = state.clone();
            prop_assert_eq!(bits(&lstm.step(x, &mut st)), bits(b));
        }
    }

    #[test]
    fn blocked_matvec_matches_the_serial_dot_product(
        seed in any::<u64>(),
        rows in 0..41usize,
        cols in 0..33usize,
        batch in 0..5usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_matvec_shape(&mut rng, rows, cols, batch);
    }

    #[test]
    fn fused_adam_step_matches_the_scalar_loop(
        seed in any::<u64>(),
        len_a in 1..40usize,
        len_b in 1..19usize,
        clip in any::<bool>(),
        steps in 1..6usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fused = [Tensor::xavier(len_a, 1, &mut rng), Tensor::xavier(1, len_b, &mut rng)];
        let mut scalar = fused.clone();
        let mut adam = Adam::new(3e-2);
        // A tight threshold makes clipping bite on most steps.
        adam.clip_norm = clip.then_some(0.5);
        let mut reference = ScalarAdam::mirroring(&adam);
        for _ in 0..steps {
            for (f, s) in fused.iter_mut().zip(&mut scalar) {
                let grad: Vec<f32> = random_vec(&mut rng, f.len()).iter().map(|g| g * 4.0).collect();
                f.grad.clone_from(&grad);
                s.grad = grad;
            }
            let [fa, fb] = &mut fused;
            adam.step(&mut [fa, fb]);
            let [sa, sb] = &mut scalar;
            reference.step(&mut [sa, sb]);
            for (f, s) in fused.iter().zip(&scalar) {
                prop_assert_eq!(bits(&f.data), bits(&s.data));
                prop_assert_eq!(bits(&f.m), bits(&s.m));
                prop_assert_eq!(bits(&f.v), bits(&s.v));
                prop_assert_eq!(bits(&f.grad), bits(&s.grad));
            }
        }
        prop_assert_eq!(adam.steps(), reference.t);
    }

    #[test]
    fn layer_major_lstm_matches_the_per_step_bptt(
        seed in any::<u64>(),
        in_dim in 1..9usize,
        hidden in 1..9usize,
        layers in 1..=3usize,
        steps in 1..=10usize,
        zero_step in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lstm = Lstm::new(in_dim, hidden, layers, &mut rng);
        let mut reference = lstm.clone();
        let xs: Vec<Vec<f32>> = (0..steps).map(|_| random_vec(&mut rng, in_dim)).collect();
        // Output gradients with a zero step (as for an unused timestep)
        // and exact zeros, which the transposed products skip.
        let d_out: Vec<Vec<f32>> = (0..steps)
            .map(|t| {
                let mut d = random_vec(&mut rng, hidden);
                if t as u64 == zero_step % steps as u64 {
                    d.fill(0.0);
                }
                d[0] = 0.0;
                d
            })
            .collect();
        let trace = lstm.forward_seq(&xs);
        let (caches, outputs) = reference_forward_seq(&reference, &xs);
        prop_assert_eq!(trace.outputs.len(), steps);
        for (a, b) in trace.outputs.iter().zip(&outputs) {
            prop_assert_eq!(bits(a), bits(b));
        }
        let dxs = lstm.backward_seq(&trace, &d_out);
        let ref_dxs = reference_backward_seq(&mut reference, &caches, &d_out);
        for (a, b) in dxs.iter().zip(&ref_dxs) {
            prop_assert_eq!(bits(a), bits(b));
        }
        for (a, b) in lstm.params_mut().into_iter().zip(reference.params_mut()) {
            prop_assert_eq!(bits(&a.grad), bits(&b.grad));
        }
        // The streaming step reaches forward_seq's last output bit for bit.
        let mut state = lstm.zero_state();
        let mut last = Vec::new();
        for x in &xs {
            last = lstm.step(x, &mut state);
        }
        prop_assert_eq!(bits(&last), bits(&trace.outputs[steps - 1]));
    }

    #[test]
    fn batched_transposed_products_match_the_per_input_loops(
        seed in any::<u64>(),
        rows in 0..41usize,
        cols in 0..70usize,
        batch in 0..12usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Tensor::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0));
        let mut reference = t.clone();
        let ys: Vec<f32> = (0..batch * rows)
            .map(|i| if i % 5 == 0 { 0.0 } else { rng.gen_range(-1.0f32..1.0) })
            .collect();
        let xs = random_vec(&mut rng, batch * cols);
        let mut out = vec![f32::NAN; 2];
        t.matvec_t_batch(&ys, batch, &mut out);
        prop_assert_eq!(out.len(), batch * cols);
        for b in 0..batch {
            let want = scalar_matvec_t(&t, &ys[b * rows..(b + 1) * rows]);
            prop_assert_eq!(bits(&out[b * cols..(b + 1) * cols]), bits(&want));
        }
        // Descending order, as BPTT adds its steps.
        t.grad_outer_batch(&ys, &xs, (0..batch).rev());
        for b in (0..batch).rev() {
            scalar_grad_outer(
                &mut reference,
                &ys[b * rows..(b + 1) * rows],
                &xs[b * cols..(b + 1) * cols],
            );
        }
        prop_assert_eq!(bits(&t.grad), bits(&reference.grad));
    }

    #[test]
    fn one_pass_softmax_matches_softmax_and_log_prob(
        seed in any::<u64>(),
        len in 1..200usize,
        scale in 1..400u32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = scale as f32 / 10.0;
        let logits: Vec<f32> = random_vec(&mut rng, len).iter().map(|l| l * scale).collect();
        let (probs, log_norm) = softmax_log_norm(&logits);
        prop_assert_eq!(bits(&probs), bits(&reference_softmax(&logits)));
        prop_assert_eq!(bits(&hfl_nn::ops::softmax(&logits)), bits(&probs));
        for action in 0..len {
            let want = reference_log_prob(&logits, action).to_bits();
            prop_assert_eq!((logits[action] - log_norm).to_bits(), want);
            prop_assert_eq!(hfl_nn::ops::log_prob(&logits, action).to_bits(), want);
        }
    }
}

/// The shapes the blocked kernel treats specially, exhaustively: fewer
/// rows than one block, exact multiples of the block, ragged tails, and
/// zero- and one-column matrices.
#[test]
fn blocked_matvec_edge_shapes_match_the_serial_dot_product() {
    let mut rng = StdRng::seed_from_u64(41);
    for rows in [0, 1, 3, 7, 8, 9, 15, 16, 17, 24, 63, 65] {
        for cols in [0, 1, 2, 7, 8, 9, 33] {
            for batch in [0, 1, 3] {
                check_matvec_shape(&mut rng, rows, cols, batch);
            }
        }
    }
}

/// The batched kernel's tile edges: one input (the row-blocked kernel),
/// a half tile, a whole tile of lanes and one past it, and two tiles and
/// one past, each at zero and one column and at the model's widths.
#[test]
fn matvec_batch_matches_matvec_at_the_lane_tile_edges() {
    let mut rng = StdRng::seed_from_u64(43);
    for batch in [1, 2, 4, 5, 7, 8, 9, 16, 17, 24] {
        for cols in [0, 1, 3, 8, 33, 64, 80] {
            for rows in [0, 1, 7, 9, 32, 65] {
                check_matvec_shape(&mut rng, rows, cols, batch);
            }
        }
    }
}

/// Tensors for the clip-norm tests: empty, all-zero, equal-length and
/// very unequal gradients.
fn norm_tensors(rng: &mut StdRng) -> Vec<Tensor> {
    let shapes = [
        (0, 3),
        (4, 0),
        (3, 5),
        (15, 1),
        (5, 3),
        (1, 1),
        (40, 41),
        (0, 0),
        (2, 2),
        (7, 1),
        (1, 3000),
        (3, 3),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(n, &(rows, cols))| {
            let mut t = Tensor::xavier(rows, cols, rng);
            if n == 4 {
                t.grad.fill(0.0);
            } else {
                t.grad = random_vec(rng, rows * cols)
                    .iter()
                    .map(|g| g * 3.0)
                    .collect();
            }
            t
        })
        .collect()
}

#[test]
fn lockstep_clip_norm_matches_the_serial_sum() {
    let mut rng = StdRng::seed_from_u64(44);
    let tensors = norm_tensors(&mut rng);
    // Every prefix and suffix of the line-up, so each lane count and
    // refill order occurs, down to a lone empty tensor and no tensor.
    for start in 0..=tensors.len() {
        for end in start..=tensors.len() {
            let mut slice = tensors[start..end].to_vec();
            let refs: Vec<&mut Tensor> = slice.iter_mut().collect();
            let serial: f32 = refs.iter().map(|t| serial_norm_sq(t)).sum();
            assert_eq!(
                global_norm_sq(&refs).to_bits(),
                serial.to_bits(),
                "tensors {start}..{end}"
            );
        }
    }
    // All-zero gradients and one very long tensor beside short ones.
    let mut zeros = [
        Tensor::zeros(3, 3),
        Tensor::zeros(0, 2),
        Tensor::zeros(9, 1),
    ];
    let refs: Vec<&mut Tensor> = zeros.iter_mut().collect();
    let serial: f32 = refs.iter().map(|t| serial_norm_sq(t)).sum();
    assert_eq!(global_norm_sq(&refs).to_bits(), serial.to_bits());
}

#[test]
fn adam_with_the_lockstep_norm_matches_the_scalar_loop() {
    for clip in [Some(0.5), Some(1e9), None] {
        let mut rng = StdRng::seed_from_u64(45);
        let mut fused = norm_tensors(&mut rng);
        let mut scalar = fused.clone();
        let mut adam = Adam::new(3e-2);
        adam.clip_norm = clip;
        let mut reference = ScalarAdam::mirroring(&adam);
        for step in 0..3 {
            for (f, s) in fused.iter_mut().zip(&mut scalar) {
                let grad: Vec<f32> = random_vec(&mut rng, f.len());
                f.grad.clone_from(&grad);
                s.grad = grad;
            }
            let mut fr: Vec<&mut Tensor> = fused.iter_mut().collect();
            adam.step(&mut fr);
            let mut sr: Vec<&mut Tensor> = scalar.iter_mut().collect();
            reference.step(&mut sr);
            for (f, s) in fused.iter().zip(&scalar) {
                assert_eq!(bits(&f.data), bits(&s.data), "clip {clip:?} step {step}");
                assert_eq!(bits(&f.m), bits(&s.m));
                assert_eq!(bits(&f.v), bits(&s.v));
                assert_eq!(bits(&f.grad), bits(&s.grad));
            }
        }
    }
}

/// Finite-difference gradient check where the loss is evaluated through the
/// *batched* forward: `L = ½ Σ_b ‖forward_batch(x)_b‖²`. The analytic
/// gradients come from the scalar backward — since the batched forward is
/// bitwise identical to the scalar one, they must agree with the numeric
/// derivative of the batched loss.
#[test]
fn gradcheck_through_the_batched_forward() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut layer = Linear::new(3, 5, &mut rng);
    let xs: Vec<Vec<f32>> = (0..4).map(|_| random_vec(&mut rng, 5)).collect();
    let batched_loss = |l: &Linear| -> f32 {
        let xrefs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        l.forward_batch(&xrefs)
            .iter()
            .flat_map(|y| y.iter().map(|v| v * v))
            .sum::<f32>()
            * 0.5
    };
    // Analytic gradients via the scalar backward (dL/dy = y).
    for x in &xs {
        let y = layer.forward(x);
        let _ = layer.backward(x, &y);
    }
    let eps = 1e-2;
    for idx in 0..layer.w.len() {
        let orig = layer.w.data[idx];
        layer.w.data[idx] = orig + eps;
        let lp = batched_loss(&layer);
        layer.w.data[idx] = orig - eps;
        let lm = batched_loss(&layer);
        layer.w.data[idx] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - layer.w.grad[idx]).abs() < 2e-2,
            "w[{idx}]: analytic {} vs numeric {numeric} through the batched path",
            layer.w.grad[idx]
        );
    }
}
