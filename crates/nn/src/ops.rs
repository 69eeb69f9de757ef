//! Activation functions, losses and sampling utilities.

use rand::Rng;

/// Numerically stable sigmoid.
#[must_use]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softmax over a logit slice.
#[must_use]
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// [`softmax`] and the log-normaliser `ln Σ exp(l)` from one pass of
/// exponentials: the probabilities equal `softmax(logits)` and
/// `logits[a] - log_norm` equals `log_prob(logits, a)`, bit for bit.
#[must_use]
pub fn softmax_log_norm(logits: &[f32]) -> (Vec<f32>, f32) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let log_norm = sum.ln() + max;
    (exps.into_iter().map(|e| e / sum).collect(), log_norm)
}

/// Softmax with a temperature; higher temperatures flatten the
/// distribution (exploration), lower ones sharpen it (exploitation).
///
/// # Panics
/// Panics if `temperature` is not strictly positive.
#[must_use]
pub fn softmax_with_temperature(logits: &[f32], temperature: f32) -> Vec<f32> {
    assert!(temperature > 0.0, "temperature must be positive");
    let scaled: Vec<f32> = logits.iter().map(|&l| l / temperature).collect();
    softmax(&scaled)
}

/// Cross-entropy loss of a softmax distribution against a target class,
/// returning `(loss, dlogits)`.
///
/// The gradient is the classic `softmax - onehot`.
#[must_use]
pub fn cross_entropy(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    let probs = softmax(logits);
    let loss = -probs[target].max(1e-12).ln();
    let mut dlogits = probs;
    dlogits[target] -= 1.0;
    (loss, dlogits)
}

/// Per-element binary cross-entropy with logits against 0/1 targets,
/// returning `(mean loss, dlogits)`.
///
/// This is the multi-label loss the hardware-coverage predictor trains
/// with (one sigmoid per coverage point).
///
/// # Panics
/// Panics if the slices differ in length or are empty.
#[must_use]
pub fn bce_with_logits(logits: &[f32], targets: &[f32]) -> (f32, Vec<f32>) {
    assert_eq!(logits.len(), targets.len());
    assert!(!logits.is_empty());
    let n = logits.len() as f32;
    let mut loss = 0.0f32;
    let mut dlogits = vec![0.0f32; logits.len()];
    for (i, (&z, &t)) in logits.iter().zip(targets).enumerate() {
        // Stable BCE-with-logits: max(z,0) - z*t + ln(1 + e^{-|z|}).
        loss += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
        dlogits[i] = (sigmoid(z) - t) / n;
    }
    (loss / n, dlogits)
}

/// The log-probability of `action` under `softmax(logits)`.
#[must_use]
pub fn log_prob(logits: &[f32], action: usize) -> f32 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|&l| (l - max).exp()).sum::<f32>().ln() + max;
    logits[action] - log_sum
}

/// Samples an index from a probability distribution.
///
/// # Panics
/// Panics if `probs` is empty.
pub fn sample_categorical<R: Rng>(probs: &[f32], rng: &mut R) -> usize {
    assert!(!probs.is_empty());
    let r: f32 = rng.gen();
    let mut acc = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    probs.len() - 1
}

/// Index of the maximum element (ties resolve to the first).
///
/// # Panics
/// Panics if `values` is empty.
#[must_use]
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty());
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Elementwise `tanh` derivative from the activated value.
#[must_use]
pub fn dtanh(tanh_value: f32) -> f32 {
    1.0 - tanh_value * tanh_value
}

/// Sigmoid derivative from the activated value.
#[must_use]
pub fn dsigmoid(sig_value: f32) -> f32 {
    sig_value * (1.0 - sig_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!((sigmoid(10.0) - 1.0).abs() < 1e-4);
        assert!(sigmoid(-10.0) < 1e-4);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        // Extreme inputs stay finite.
        assert!(sigmoid(1e9).is_finite());
        assert!(sigmoid(-1e9).is_finite());
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Huge logits must not overflow.
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn temperature_flattens_and_sharpens() {
        let logits = [0.0, 1.0];
        let hot = softmax_with_temperature(&logits, 10.0);
        let cold = softmax_with_temperature(&logits, 0.1);
        assert!(hot[1] - hot[0] < cold[1] - cold[0]);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let logits = [0.5, -0.5, 2.0];
        let (loss, grad) = cross_entropy(&logits, 2);
        let probs = softmax(&logits);
        assert!(loss > 0.0);
        assert!((grad[0] - probs[0]).abs() < 1e-6);
        assert!((grad[2] - (probs[2] - 1.0)).abs() < 1e-6);
        assert!(grad.iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_numeric_gradient_check() {
        let logits = vec![0.3f32, -1.2, 0.7, 0.1];
        let (_, grad) = cross_entropy(&logits, 1);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus[i] += eps;
            let mut minus = logits.clone();
            minus[i] -= eps;
            let numeric = (cross_entropy(&plus, 1).0 - cross_entropy(&minus, 1).0) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-2,
                "grad[{i}]: analytic {} vs numeric {}",
                grad[i],
                numeric
            );
        }
    }

    #[test]
    fn bce_numeric_gradient_check() {
        let logits = vec![0.5f32, -2.0, 3.0];
        let targets = vec![1.0f32, 0.0, 1.0];
        let (_, grad) = bce_with_logits(&logits, &targets);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus[i] += eps;
            let mut minus = logits.clone();
            minus[i] -= eps;
            let numeric = (bce_with_logits(&plus, &targets).0
                - bce_with_logits(&minus, &targets).0)
                / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-2,
                "grad[{i}]: analytic {} vs numeric {}",
                grad[i],
                numeric
            );
        }
    }

    #[test]
    fn log_prob_matches_softmax() {
        let logits = [0.1f32, 0.9, -0.4];
        let probs = softmax(&logits);
        for (i, p) in probs.iter().enumerate() {
            assert!((log_prob(&logits, i) - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(42);
        let probs = [0.05f32, 0.9, 0.05];
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[sample_categorical(&probs, &mut rng)] += 1;
        }
        assert!(counts[1] > 1500, "mode dominates: {counts:?}");
        assert!(counts[0] > 0 && counts[2] > 0, "tails appear: {counts:?}");
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 0.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn activation_derivatives() {
        let t: f32 = 0.5f32.tanh();
        assert!((dtanh(t) - (1.0 - t * t)).abs() < 1e-7);
        let s = sigmoid(0.7);
        assert!((dsigmoid(s) - s * (1.0 - s)).abs() < 1e-7);
    }
}
