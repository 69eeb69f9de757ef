//! Proximal policy optimisation: advantage (Eq. 2), value loss (Eq. 3) and
//! the clipped surrogate objective (Eq. 4).

use hfl_nn::ops::softmax_log_norm;

/// PPO hyper-parameters, defaulting to the paper's §V-B values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoConfig {
    /// Discount factor γ (paper: 0.1).
    pub gamma: f32,
    /// Clipping threshold ε (paper: 0.2).
    pub epsilon: f32,
}

impl PpoConfig {
    /// γ = 0.1, ε = 0.2 per §V-B.
    #[must_use]
    pub fn paper_default() -> PpoConfig {
        PpoConfig {
            gamma: 0.1,
            epsilon: 0.2,
        }
    }
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig::paper_default()
    }
}

/// Eq. (2): `Â_t = R_t + γ·V(S_{t+1}) − V(S_t)`.
#[must_use]
pub fn advantage(reward: f32, v_next: f32, v_current: f32, gamma: f32) -> f32 {
    reward + gamma * v_next - v_current
}

/// Eq. (3): the predictor's squared TD error and its gradient with respect
/// to `V(S_t)`.
///
/// Returns `(loss, dL/dV)` for `L = (V(S_t) − (R_t + γ·V(S_{t+1})))²`.
/// The target is treated as a constant (semi-gradient TD), the standard
/// actor–critic practice.
#[must_use]
pub fn value_loss(v_current: f32, reward: f32, v_next: f32, gamma: f32) -> (f32, f32) {
    let target = reward + gamma * v_next;
    let err = v_current - target;
    (err * err, 2.0 * err)
}

/// The low-variance KL(π_old ‖ π) estimator `r − 1 − ln r` for one
/// probability ratio `r = π(a)/π_old(a)`.
///
/// Summed over an update's head ratios it tracks how far the tuned policy
/// drifted from the sampling policy — the telemetry companion to PPO's
/// clipping: clipping *bounds* the drift, this estimator *reports* it.
/// Non-negative for every `r > 0` (zero exactly at `r = 1`); non-positive
/// ratios (numerically impossible from `exp`) clamp to 0.
#[must_use]
pub fn approx_kl(ratio: f32) -> f32 {
    if ratio <= 0.0 {
        return 0.0;
    }
    (ratio - 1.0 - ratio.ln()).max(0.0)
}

/// Eq. (4): gradient of the *negated* clipped surrogate objective with
/// respect to the policy logits for one categorical head.
///
/// Maximising `min(r·Â, clip(r, 1−ε, 1+ε)·Â)` is implemented as gradient
/// descent on its negation. When the ratio is outside the clip range in
/// the direction that would increase the objective, the gradient is zero
/// (the PPO trust-region behaviour that keeps the tuned generator near
/// `π_old`, §IV-B).
///
/// The log-probability and the softmax come from one pass of
/// exponentials ([`softmax_log_norm`]), bit-identical to
/// [`hfl_nn::ops::log_prob`] and [`hfl_nn::ops::softmax`].
///
/// Returns `(ratio, dlogits)`.
#[must_use]
pub fn ppo_logit_grad(
    logits: &[f32],
    action: usize,
    old_log_prob: f32,
    advantage: f32,
    epsilon: f32,
) -> (f32, Vec<f32>) {
    let (probs, log_norm) = softmax_log_norm(logits);
    let new_log_prob = logits[action] - log_norm;
    let ratio = (new_log_prob - old_log_prob).exp();
    // min(r·Â, clip(r)·Â): the unclipped branch is active (and carries
    // gradient) unless clipping binds against the objective's growth.
    let clipped_active = if advantage >= 0.0 {
        ratio > 1.0 + epsilon
    } else {
        ratio < 1.0 - epsilon
    };
    if clipped_active {
        return (ratio, vec![0.0; logits.len()]);
    }
    // d(-r·Â)/dlogit_j = -Â · r · (1[j==a] − p_j).
    let coef = -advantage * ratio;
    let dlogits = probs
        .iter()
        .enumerate()
        .map(|(j, &p)| coef * (f32::from(u8::from(j == action)) - p))
        .collect();
    (ratio, dlogits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = PpoConfig::paper_default();
        assert!((cfg.gamma - 0.1).abs() < 1e-9);
        assert!((cfg.epsilon - 0.2).abs() < 1e-9);
    }

    #[test]
    fn advantage_eq2() {
        // Â = R + γV' − V
        assert!((advantage(1.0, 0.5, 0.2, 0.1) - (1.0 + 0.05 - 0.2)).abs() < 1e-6);
        assert!(advantage(0.0, 0.0, 1.0, 0.1) < 0.0, "overvalued state");
    }

    #[test]
    fn value_loss_eq3() {
        let (loss, grad) = value_loss(0.5, 1.0, 0.0, 0.1);
        assert!((loss - 0.25).abs() < 1e-6);
        assert!((grad - (-1.0)).abs() < 1e-6, "push V up toward the target");
        let (loss, grad) = value_loss(1.0, 0.0, 0.0, 0.1);
        assert!((loss - 1.0).abs() < 1e-6);
        assert!(grad > 0.0, "push V down");
    }

    #[test]
    fn positive_advantage_increases_action_probability() {
        let logits = vec![0.0f32, 0.0, 0.0];
        let old_lp = hfl_nn::ops::log_prob(&logits, 1);
        let (ratio, dlogits) = ppo_logit_grad(&logits, 1, old_lp, 1.0, 0.2);
        assert!((ratio - 1.0).abs() < 1e-6, "fresh policy has ratio 1");
        // Descending this gradient raises logit 1 and lowers the others.
        assert!(dlogits[1] < 0.0);
        assert!(dlogits[0] > 0.0 && dlogits[2] > 0.0);
    }

    #[test]
    fn negative_advantage_decreases_action_probability() {
        let logits = vec![0.0f32, 0.0];
        let old_lp = hfl_nn::ops::log_prob(&logits, 0);
        let (_, dlogits) = ppo_logit_grad(&logits, 0, old_lp, -1.0, 0.2);
        assert!(
            dlogits[0] > 0.0,
            "descend: logit 0 falls? no — gradient positive means the update lowers it"
        );
        assert!(dlogits[1] < 0.0);
    }

    #[test]
    fn clipping_zeroes_the_gradient_beyond_the_trust_region() {
        // Ratio > 1+ε with positive advantage: no further push.
        let logits = vec![2.0f32, 0.0];
        let old_lp = hfl_nn::ops::log_prob(&[0.0f32, 0.0], 0);
        let (ratio, dlogits) = ppo_logit_grad(&logits, 0, old_lp, 1.0, 0.2);
        assert!(ratio > 1.2);
        assert!(dlogits.iter().all(|&d| d == 0.0));
        // Same ratio with a *negative* advantage still carries gradient
        // (clipping only binds against objective growth).
        let (_, dlogits) = ppo_logit_grad(&logits, 0, old_lp, -1.0, 0.2);
        assert!(dlogits.iter().any(|&d| d != 0.0));
    }

    #[test]
    fn clipping_also_binds_below_for_negative_advantage() {
        // Ratio < 1−ε with negative advantage: gradient is zero.
        let logits = vec![-2.0f32, 0.0];
        let old_lp = hfl_nn::ops::log_prob(&[0.0f32, 0.0], 0);
        let (ratio, dlogits) = ppo_logit_grad(&logits, 0, old_lp, -1.0, 0.2);
        assert!(ratio < 0.8);
        assert!(dlogits.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn approx_kl_estimator_properties() {
        // Zero at r = 1, positive elsewhere, symmetric in sign of drift.
        assert_eq!(approx_kl(1.0), 0.0);
        assert!(approx_kl(1.2) > 0.0);
        assert!(approx_kl(0.8) > 0.0);
        // Second-order accurate near 1: r−1−ln r ≈ (r−1)²/2.
        let d = 1e-2f32;
        assert!((approx_kl(1.0 + d) - d * d / 2.0).abs() < 1e-6);
        // Degenerate inputs clamp instead of returning NaN/−inf.
        assert_eq!(approx_kl(0.0), 0.0);
        assert_eq!(approx_kl(-3.0), 0.0);
        assert!(approx_kl(f32::MAX).is_finite());
    }

    #[test]
    fn surrogate_numeric_gradient_check() {
        // For ratio inside the clip range the objective is r·Â; check the
        // analytic logit gradient against finite differences.
        let logits = vec![0.3f32, -0.2, 0.1];
        let action = 2;
        let old_lp = hfl_nn::ops::log_prob(&logits, action) - 0.05; // ratio ≈ 1.05
        let adv = 0.7;
        let eps_clip = 0.2;
        let (_, dlogits) = ppo_logit_grad(&logits, action, old_lp, adv, eps_clip);
        let objective = |l: &[f32]| -> f32 {
            let lp = hfl_nn::ops::log_prob(l, action);
            -adv * (lp - old_lp).exp() // negated objective (we descend)
        };
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp[i] += eps;
            let mut lm = logits.clone();
            lm[i] -= eps;
            let numeric = (objective(&lp) - objective(&lm)) / (2.0 * eps);
            assert!(
                (numeric - dlogits[i]).abs() < 1e-3,
                "dlogits[{i}]: analytic {} vs numeric {numeric}",
                dlogits[i]
            );
        }
    }

    /// The two-pass gradient `ppo_logit_grad` replaced: `log_prob` for the
    /// ratio, then `softmax` for the gradient.
    fn two_pass_logit_grad(
        logits: &[f32],
        action: usize,
        old_log_prob: f32,
        advantage: f32,
        epsilon: f32,
    ) -> (f32, Vec<f32>) {
        let ratio = (hfl_nn::ops::log_prob(logits, action) - old_log_prob).exp();
        let clipped_active = if advantage >= 0.0 {
            ratio > 1.0 + epsilon
        } else {
            ratio < 1.0 - epsilon
        };
        if clipped_active {
            return (ratio, vec![0.0; logits.len()]);
        }
        let probs = hfl_nn::ops::softmax(logits);
        let coef = -advantage * ratio;
        let dlogits = probs
            .iter()
            .enumerate()
            .map(|(j, &p)| coef * (f32::from(u8::from(j == action)) - p))
            .collect();
        (ratio, dlogits)
    }

    #[test]
    fn one_pass_gradient_matches_log_prob_plus_softmax() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut clipped = 0;
        for n in 0..400u32 {
            let len = 2 + (n as usize * 7) % 90;
            let logits: Vec<f32> = (0..len)
                .map(|j| ((n * 31 + j as u32) as f32 * 0.37).sin() * (1.0 + (n % 9) as f32))
                .collect();
            let action = (n as usize * 13) % len;
            // Old log-probabilities around the current one, so the ratio
            // lands inside and outside the clip range on both sides.
            let drift = ((n % 11) as f32 - 5.0) * 0.08;
            let old = hfl_nn::ops::log_prob(&logits, action) + drift;
            let advantage = if n % 2 == 0 { 0.7 } else { -1.3 };
            let (ratio, grad) = ppo_logit_grad(&logits, action, old, advantage, 0.2);
            let (want_ratio, want_grad) = two_pass_logit_grad(&logits, action, old, advantage, 0.2);
            assert_eq!(ratio.to_bits(), want_ratio.to_bits(), "case {n}");
            assert_eq!(bits(&grad), bits(&want_grad), "case {n}");
            clipped += usize::from(grad.iter().all(|&d| d == 0.0));
        }
        assert!(clipped > 0 && clipped < 400, "both branches ran");
    }

    #[test]
    fn descending_the_gradient_raises_the_chosen_action() {
        // One manual gradient-descent step must increase π(action).
        let mut logits = vec![0.0f32, 0.0, 0.0];
        let action = 0;
        let old_lp = hfl_nn::ops::log_prob(&logits, action);
        let before = hfl_nn::ops::softmax(&logits)[action];
        let (_, dlogits) = ppo_logit_grad(&logits, action, old_lp, 1.0, 0.2);
        for (l, d) in logits.iter_mut().zip(&dlogits) {
            *l -= 0.1 * d;
        }
        let after = hfl_nn::ops::softmax(&logits)[action];
        assert!(after > before);
    }
}
