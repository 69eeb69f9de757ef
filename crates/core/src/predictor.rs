//! The LSTM predictors (§IV-C, §V-A).
//!
//! Two models share the generator's architecture (token encoder + two-layer
//! LSTM) with different output layers:
//!
//! - [`ValuePredictor`] — the RL critic `V(S_t)` of Eqs. (2)/(3), a scalar
//!   head trained on TD targets,
//! - [`CoveragePredictor`] — the §IV-C *hardware coverage predictor*: one
//!   sigmoid per coverage point, trained with binary cross-entropy on
//!   `(test case, coverage bit-string)` pairs. It is the fast stand-in for
//!   hardware simulation (contribution 3) and the subject of Fig. 3.

use hfl_nn::ops::{bce_with_logits, sigmoid};
use hfl_nn::{Adam, Linear, Lstm, LstmState, Tensor};
use hfl_rl::value_loss;
use rand::Rng;

use crate::encoder::{EncoderConfig, TokenEncoder};
use crate::tokens::Tokens;

/// Shared predictor hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// LSTM hidden size (paper: 256, shared with the generator).
    pub hidden: usize,
    /// LSTM depth (paper: 2).
    pub layers: usize,
    /// Embedding widths.
    pub encoder: EncoderConfig,
    /// Learning rate (paper: 1e-4).
    pub lr: f32,
}

impl PredictorConfig {
    /// The paper's §V-A configuration.
    #[must_use]
    pub fn paper_default() -> PredictorConfig {
        PredictorConfig {
            hidden: 256,
            layers: 2,
            encoder: EncoderConfig::default_dims(),
            lr: 1e-4,
        }
    }

    /// A smaller configuration for fast experiments and tests.
    #[must_use]
    pub fn small() -> PredictorConfig {
        PredictorConfig {
            hidden: 64,
            lr: 3e-4,
            ..PredictorConfig::paper_default()
        }
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig::paper_default()
    }
}

/// The RL critic: `V(S)` over instruction-sequence prefixes.
#[derive(Debug, Clone)]
pub struct ValuePredictor {
    cfg: PredictorConfig,
    encoder: TokenEncoder,
    lstm: Lstm,
    out: Linear,
}

/// Streaming evaluation state for the critic.
#[derive(Debug, Clone)]
pub struct ValueSession {
    state: LstmState,
    last_value: f32,
}

impl ValueSession {
    /// The critic's estimate after the most recent token.
    #[must_use]
    pub fn value(&self) -> f32 {
        self.last_value
    }

    /// The LSTM state (checkpointing).
    #[must_use]
    pub fn state(&self) -> &LstmState {
        &self.state
    }

    /// Rebuilds a session from checkpointed parts.
    #[must_use]
    pub fn from_parts(state: LstmState, last_value: f32) -> ValueSession {
        ValueSession { state, last_value }
    }
}

impl ValuePredictor {
    /// Creates a critic with fresh parameters.
    #[must_use]
    pub fn new<R: Rng>(cfg: PredictorConfig, rng: &mut R) -> ValuePredictor {
        let encoder = TokenEncoder::new(cfg.encoder, rng);
        let lstm = Lstm::new(encoder.dim(), cfg.hidden, cfg.layers, rng);
        let out = Linear::new(1, cfg.hidden, rng);
        ValuePredictor {
            cfg,
            encoder,
            lstm,
            out,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Re-initialises every parameter — the §IV-B reset module's predictor
    /// half ("the predictor reset ensures it rewards newly discovered
    /// instruction combinations").
    pub fn reset<R: Rng>(&mut self, rng: &mut R) {
        *self = ValuePredictor::new(self.cfg, rng);
    }

    /// Starts a streaming session at the empty sequence (value 0).
    #[must_use]
    pub fn start_session(&self) -> ValueSession {
        ValueSession {
            state: self.lstm.zero_state(),
            last_value: 0.0,
        }
    }

    /// Feeds one token, returning the updated `V(S)`.
    pub fn step(&self, session: &mut ValueSession, token: &Tokens) -> f32 {
        let x = self.encoder.encode(token);
        let h = self.lstm.step(&x, &mut session.state);
        let v = self.out.forward(&h)[0];
        session.last_value = v;
        v
    }

    /// `V(S)` of a complete token sequence.
    #[must_use]
    pub fn value_of(&self, sequence: &[Tokens]) -> f32 {
        let mut session = self.start_session();
        for t in sequence {
            self.step(&mut session, t);
        }
        session.value()
    }

    /// One TD training pass (Eq. 3) over an episode: `inputs[t]` is the
    /// token consumed at step `t`, `targets[t] = R_t + γ·V(S_{t+1})`.
    /// Returns the mean squared TD error.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn train_episode(&mut self, inputs: &[Tokens], targets: &[f32], adam: &mut Adam) -> f32 {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let xs = self.encoder.encode_batch(inputs);
        let trace = self.lstm.forward_seq(&xs);
        // One fused value-head pass over every timestep instead of T
        // sequential matvecs; bit-identical per step.
        let hrefs: Vec<&[f32]> = trace.outputs.iter().map(Vec::as_slice).collect();
        let values = self.out.forward_batch(&hrefs);
        let mut d_out: Vec<Vec<f32>> = trace.outputs.iter().map(|h| vec![0.0; h.len()]).collect();
        let mut total = 0.0f32;
        let n = inputs.len() as f32;
        for (t, &target) in targets.iter().enumerate() {
            let h = &trace.outputs[t];
            let v = values[t][0];
            // value_loss treats the TD target as constant.
            let (loss, dv) = value_loss(v, target, 0.0, 0.0);
            total += loss;
            let dh = self.out.backward(h, &[dv / n]);
            for (a, b) in d_out[t].iter_mut().zip(&dh) {
                *a += b;
            }
        }
        let dxs = self.lstm.backward_seq(&trace, &d_out);
        for (token, dx) in inputs.iter().zip(&dxs) {
            self.encoder.backward(token, dx);
        }
        adam.step(&mut self.params_mut());
        total / n
    }

    /// All trainable tensors.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.encoder.params_mut();
        v.extend(self.lstm.params_mut());
        v.extend(self.out.params_mut());
        v
    }

    /// The token encoder (checkpointing).
    #[must_use]
    pub fn encoder_ref(&self) -> &TokenEncoder {
        &self.encoder
    }

    /// The LSTM core (checkpointing).
    #[must_use]
    pub fn lstm_ref(&self) -> &Lstm {
        &self.lstm
    }

    /// The value head (checkpointing).
    #[must_use]
    pub fn out_ref(&self) -> &Linear {
        &self.out
    }

    /// Rebuilds a critic from persisted parts; `None` on shape mismatch.
    #[must_use]
    pub fn from_parts(
        cfg: PredictorConfig,
        encoder: TokenEncoder,
        lstm: Lstm,
        out: Linear,
    ) -> Option<ValuePredictor> {
        let ok = encoder.dim() == cfg.encoder.input_dim()
            && lstm.hidden() == cfg.hidden
            && lstm.layers() == cfg.layers
            && out.in_dim() == cfg.hidden
            && out.out_dim() == 1;
        ok.then_some(ValuePredictor {
            cfg,
            encoder,
            lstm,
            out,
        })
    }
}

/// Streaming state for [`CoveragePredictor`] screening.
#[derive(Debug, Clone)]
pub struct CoverageSession {
    state: LstmState,
}

impl CoverageSession {
    /// The LSTM state (checkpointing).
    #[must_use]
    pub fn state(&self) -> &LstmState {
        &self.state
    }

    /// Rebuilds a session from a checkpointed LSTM state.
    #[must_use]
    pub fn from_parts(state: LstmState) -> CoverageSession {
        CoverageSession { state }
    }
}

/// The §IV-C hardware coverage predictor: multi-label sigmoid over
/// coverage points.
#[derive(Debug, Clone)]
pub struct CoveragePredictor {
    cfg: PredictorConfig,
    encoder: TokenEncoder,
    lstm: Lstm,
    out: Linear,
}

impl CoveragePredictor {
    /// Creates a predictor for `n_points` coverage points.
    #[must_use]
    pub fn new<R: Rng>(cfg: PredictorConfig, n_points: usize, rng: &mut R) -> CoveragePredictor {
        let encoder = TokenEncoder::new(cfg.encoder, rng);
        let lstm = Lstm::new(encoder.dim(), cfg.hidden, cfg.layers, rng);
        let out = Linear::new(n_points, cfg.hidden, rng);
        CoveragePredictor {
            cfg,
            encoder,
            lstm,
            out,
        }
    }

    /// Number of predicted coverage points.
    #[must_use]
    pub fn n_points(&self) -> usize {
        self.out.out_dim()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Starts a streaming session (used by the fuzzing loop to screen
    /// candidate instructions without re-encoding the whole prefix).
    #[must_use]
    pub fn start_session(&self) -> CoverageSession {
        CoverageSession {
            state: self.lstm.zero_state(),
        }
    }

    /// Feeds one token into a streaming session.
    pub fn step(&self, session: &mut CoverageSession, token: &Tokens) {
        let x = self.encoder.encode(token);
        let _ = self.lstm.step(&x, &mut session.state);
    }

    /// Per-point hit probabilities after hypothetically feeding `token`
    /// into a *clone* of the session (the session itself is untouched) —
    /// the screening primitive: "the predictor evaluates the quality of
    /// these instructions" without hardware simulation.
    #[must_use]
    pub fn peek(&self, session: &CoverageSession, token: &Tokens) -> Vec<f32> {
        let mut state = session.state.clone();
        let x = self.encoder.encode(token);
        let h = self.lstm.step(&x, &mut state);
        self.out.forward(&h).into_iter().map(sigmoid).collect()
    }

    /// Batched [`CoveragePredictor::peek`]: per-point hit probabilities for
    /// every candidate token as a hypothetical continuation of the shared
    /// session state, computed through one fused GEMM per LSTM gate
    /// ([`Lstm::step_batch`]) instead of `k` sequential state clones and
    /// matvecs. Bit-identical to calling `peek` per token; neither the
    /// model nor the session changes.
    #[must_use]
    pub fn peek_batch(&self, session: &CoverageSession, tokens: &[Tokens]) -> Vec<Vec<f32>> {
        let xs = self.encoder.encode_batch(tokens);
        let xrefs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let hs = self.lstm.step_batch(&xrefs, &session.state);
        let hrefs: Vec<&[f32]> = hs.iter().map(Vec::as_slice).collect();
        self.out
            .forward_batch(&hrefs)
            .into_iter()
            .map(|logits| logits.into_iter().map(sigmoid).collect())
            .collect()
    }

    /// Per-point hit probabilities for a token sequence.
    #[must_use]
    pub fn predict(&self, sequence: &[Tokens]) -> Vec<f32> {
        let xs = self.encoder.encode_batch(sequence);
        let trace = self.lstm.forward_seq(&xs);
        let h = trace.outputs.last().expect("non-empty sequence");
        self.out.forward(h).into_iter().map(sigmoid).collect()
    }

    /// One BCE training step on a single `(sequence, labels)` pair;
    /// returns the loss. Labels are `0.0`/`1.0` per point — the coverage
    /// bit-string of §IV-C.
    ///
    /// # Panics
    /// Panics if `labels.len() != self.n_points()` or the sequence is
    /// empty.
    pub fn train_case(&mut self, sequence: &[Tokens], labels: &[f32], adam: &mut Adam) -> f32 {
        self.train_case_observed(sequence, labels, adam, |_| {})
    }

    /// [`CoveragePredictor::train_case`] that first hands the pre-update
    /// per-point logits to `observe` — the same values
    /// [`CoveragePredictor::predict`] would return before sigmoid, so a
    /// caller can score the predictor against `labels` without a second
    /// forward pass.
    ///
    /// # Panics
    /// Panics if `labels.len() != self.n_points()` or the sequence is
    /// empty.
    pub fn train_case_observed(
        &mut self,
        sequence: &[Tokens],
        labels: &[f32],
        adam: &mut Adam,
        observe: impl FnOnce(&[f32]),
    ) -> f32 {
        assert_eq!(labels.len(), self.n_points());
        assert!(!sequence.is_empty());
        let xs = self.encoder.encode_batch(sequence);
        let trace = self.lstm.forward_seq(&xs);
        let last = trace.outputs.len() - 1;
        let h = &trace.outputs[last];
        let logits = self.out.forward(h);
        observe(&logits);
        let (loss, dlogits) = bce_with_logits(&logits, labels);
        let dh = self.out.backward(h, &dlogits);
        let mut d_out: Vec<Vec<f32>> = trace.outputs.iter().map(|o| vec![0.0; o.len()]).collect();
        d_out[last] = dh;
        let dxs = self.lstm.backward_seq(&trace, &d_out);
        for (token, dx) in sequence.iter().zip(&dxs) {
            self.encoder.backward(token, dx);
        }
        adam.step(&mut self.params_mut());
        loss
    }

    /// All trainable tensors.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.encoder.params_mut();
        v.extend(self.lstm.params_mut());
        v.extend(self.out.params_mut());
        v
    }

    /// The token encoder (checkpointing).
    #[must_use]
    pub fn encoder_ref(&self) -> &TokenEncoder {
        &self.encoder
    }

    /// The LSTM core (checkpointing).
    #[must_use]
    pub fn lstm_ref(&self) -> &Lstm {
        &self.lstm
    }

    /// The per-point output head (checkpointing).
    #[must_use]
    pub fn out_ref(&self) -> &Linear {
        &self.out
    }

    /// Rebuilds a coverage predictor from persisted parts; `None` on shape
    /// mismatch.
    #[must_use]
    pub fn from_parts(
        cfg: PredictorConfig,
        encoder: TokenEncoder,
        lstm: Lstm,
        out: Linear,
    ) -> Option<CoveragePredictor> {
        let ok = encoder.dim() == cfg.encoder.input_dim()
            && lstm.hidden() == cfg.hidden
            && lstm.layers() == cfg.layers
            && out.in_dim() == cfg.hidden;
        ok.then_some(CoveragePredictor {
            cfg,
            encoder,
            lstm,
            out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_riscv::{Instruction, Opcode, Reg};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg() -> PredictorConfig {
        PredictorConfig {
            hidden: 16,
            ..PredictorConfig::small()
        }
    }

    #[test]
    fn paper_defaults() {
        let cfg = PredictorConfig::paper_default();
        assert_eq!(cfg.hidden, 256);
        assert_eq!(cfg.layers, 2);
        assert!((cfg.lr - 1e-4).abs() < 1e-9);
    }

    #[test]
    fn value_streaming_matches_batch() {
        let mut rng = StdRng::seed_from_u64(0);
        let vp = ValuePredictor::new(tiny_cfg(), &mut rng);
        let seq = Tokens::sequence_with_bos(&[
            Instruction::i(Opcode::Addi, Reg::X1, Reg::X0, 1),
            Instruction::r(Opcode::Add, Reg::X2, Reg::X1, Reg::X1),
        ]);
        let batch = vp.value_of(&seq);
        let mut session = vp.start_session();
        let mut last = 0.0;
        for t in &seq {
            last = vp.step(&mut session, t);
        }
        assert!((batch - last).abs() < 1e-6);
    }

    #[test]
    fn value_training_reduces_td_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut vp = ValuePredictor::new(tiny_cfg(), &mut rng);
        let mut adam = Adam::new(0.01);
        let inputs = vec![Tokens::bos(); 4];
        let targets = vec![0.5f32, 0.25, 0.75, 1.0];
        let first = vp.train_episode(&inputs, &targets, &mut adam);
        let mut last = first;
        for _ in 0..50 {
            last = vp.train_episode(&inputs, &targets, &mut adam);
        }
        assert!(
            last < first * 0.5,
            "TD error must shrink: {first} -> {last}"
        );
    }

    #[test]
    fn value_reset_changes_estimates() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut vp = ValuePredictor::new(tiny_cfg(), &mut rng);
        let seq = vec![Tokens::bos()];
        let before = vp.value_of(&seq);
        vp.reset(&mut rng);
        let after = vp.value_of(&seq);
        assert_ne!(before, after);
    }

    #[test]
    fn coverage_predictor_learns_a_simple_rule() {
        // Two sequence classes with opposite labels; the predictor must
        // separate them.
        let mut rng = StdRng::seed_from_u64(3);
        let mut cp = CoveragePredictor::new(tiny_cfg(), 4, &mut rng);
        let mut adam = Adam::new(0.02);
        let class_a =
            Tokens::sequence_with_bos(&[Instruction::r(Opcode::Mul, Reg::X1, Reg::X2, Reg::X3)]);
        let class_b = Tokens::sequence_with_bos(&[Instruction::i(Opcode::Lw, Reg::X1, Reg::X5, 0)]);
        let label_a = vec![1.0, 1.0, 0.0, 0.0];
        let label_b = vec![0.0, 0.0, 1.0, 1.0];
        for _ in 0..80 {
            cp.train_case(&class_a, &label_a, &mut adam);
            cp.train_case(&class_b, &label_b, &mut adam);
        }
        let pa = cp.predict(&class_a);
        let pb = cp.predict(&class_b);
        assert!(pa[0] > 0.8 && pa[2] < 0.2, "{pa:?}");
        assert!(pb[0] < 0.2 && pb[2] > 0.8, "{pb:?}");
    }

    #[test]
    fn peek_batch_is_bitwise_identical_to_sequential_peeks() {
        let mut rng = StdRng::seed_from_u64(7);
        let cp = CoveragePredictor::new(tiny_cfg(), 9, &mut rng);
        let mut session = cp.start_session();
        cp.step(&mut session, &Tokens::bos());
        cp.step(
            &mut session,
            &Tokens::from_instruction(&Instruction::i(Opcode::Addi, Reg::X1, Reg::X0, 5)),
        );
        let candidates = vec![
            Tokens::from_instruction(&Instruction::r(Opcode::Add, Reg::X2, Reg::X1, Reg::X1)),
            Tokens::from_instruction(&Instruction::r(Opcode::Mul, Reg::X3, Reg::X1, Reg::X2)),
            Tokens::from_instruction(&Instruction::i(Opcode::Lw, Reg::X4, Reg::X5, 8)),
            Tokens::bos(),
        ];
        let sequential: Vec<Vec<f32>> = candidates.iter().map(|t| cp.peek(&session, t)).collect();
        let batched = cp.peek_batch(&session, &candidates);
        assert_eq!(sequential.len(), batched.len());
        for (s, b) in sequential.iter().zip(&batched) {
            let sb: Vec<u32> = s.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, bb, "batched peek diverged from sequential");
        }
        // The session state is untouched: a repeated peek still agrees.
        let again = cp.peek(&session, &candidates[0]);
        assert_eq!(again, sequential[0]);
    }

    #[test]
    fn coverage_predictor_output_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let cp = CoveragePredictor::new(tiny_cfg(), 37, &mut rng);
        assert_eq!(cp.n_points(), 37);
        let probs = cp.predict(&[Tokens::bos()]);
        assert_eq!(probs.len(), 37);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }
}
