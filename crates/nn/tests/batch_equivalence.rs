//! Property tests for the batched hot-path: every batched forward
//! (`Linear::forward_batch`, `Embedding::lookup_batch`, `Lstm::step_batch`)
//! must be *bitwise* identical to the scalar path it replaces, across
//! random shapes and seeds, before and after optimiser steps. The kernels
//! underneath (`Tensor::matvec`, `Tensor::matvec_batch`, `Adam::step`) are
//! pinned bit for bit to test-local copies of the plain scalar loops they
//! replaced. A finite-difference gradient check evaluates the loss
//! *through* the batched forward, pinning the analytic gradients to the
//! batched computation.

use hfl_nn::{Adam, Linear, Lstm, Scratch, Tensor};
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
        let mut scratch = Scratch::default();
        let batched = layer.forward_batch(&xrefs, &mut scratch);
        prop_assert_eq!(batched.len(), batch);
        for (x, b) in xs.iter().zip(&batched) {
            prop_assert_eq!(bits(&layer.forward(x)), bits(b));
        }
        // Scratch reuse must be invisible: a second pass agrees too.
        let again = layer.forward_batch(&xrefs, &mut scratch);
        for (a, b) in again.iter().zip(&batched) {
            prop_assert_eq!(bits(a), bits(b));
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
        let mut scratch = Scratch::default();
        for _ in 0..3 {
            let x = random_vec(&mut rng, in_dim);
            let before = layer.forward_batch(&[&x], &mut scratch);
            prop_assert_eq!(bits(&layer.forward(&x)), bits(&before[0]));
            let dy = layer.forward(&x);
            let _ = layer.backward(&x, &dy);
            adam.step(&mut layer.params_mut());
            let after = layer.forward_batch(&[&x], &mut scratch);
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
        let mut scratch = Scratch::default();
        let batched = lstm.step_batch(&xrefs, &state, &mut scratch);
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

#[test]
fn embedding_lookup_batch_matches_forward() {
    let mut rng = StdRng::seed_from_u64(11);
    let emb = hfl_nn::Embedding::new(17, 6, &mut rng);
    let ids: Vec<usize> = (0..40).map(|_| rng.gen_range(0..64usize)).collect();
    let batched = emb.lookup_batch(&ids);
    for (&id, b) in ids.iter().zip(&batched) {
        assert_eq!(
            bits(&emb.forward(id)),
            bits(b),
            "id {id} (wrapping) diverged"
        );
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
    let mut scratch = Scratch::default();
    let batched_loss = |l: &Linear, scratch: &mut Scratch| -> f32 {
        let xrefs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        l.forward_batch(&xrefs, scratch)
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
        let lp = batched_loss(&layer, &mut scratch);
        layer.w.data[idx] = orig - eps;
        let lm = batched_loss(&layer, &mut scratch);
        layer.w.data[idx] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - layer.w.grad[idx]).abs() < 2e-2,
            "w[{idx}]: analytic {} vs numeric {numeric} through the batched path",
            layer.w.grad[idx]
        );
    }
}
