//! The Hardware Fuzzing Loop (§IV, Fig. 1): generator → correction → test
//! construction → DUT → reward → PPO update, with the instruction mask and
//! reset module keeping exploration alive.

use std::collections::VecDeque;
use std::sync::Arc;

use hfl_nn::ops::sigmoid;
use hfl_nn::persist::{
    read_bool, read_f32, read_f32_vec, read_f64, read_u32, read_u64, read_usize, write_bool,
    write_f32, write_f32_vec, write_f64, write_u32, write_u64, write_usize, Codec, PersistError,
};
use hfl_nn::{Adam, Lstm, LstmState};
use hfl_rl::{advantage, PpoConfig, RewardConfig, RewardNormalizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::baselines::{Feedback, Fuzzer, TestBody};
use crate::exec::Lane;
use crate::generator::{
    EpisodeStep, GenSession, GeneratorConfig, InstructionGenerator, UpdateStats,
};
use crate::obs::{Event, SinkHandle};
use crate::persist;
use crate::predictor::{
    CoveragePredictor, CoverageSession, PredictorConfig, ValuePredictor, ValueSession,
};
use crate::tokens::Tokens;
use hfl_riscv::Instruction;

/// Configuration of the full loop, §V defaults throughout. The boolean
/// switches exist for the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HflConfig {
    /// Generator hyper-parameters (§V-A).
    pub generator: GeneratorConfig,
    /// Predictor hyper-parameters (§V-A).
    pub predictor: PredictorConfig,
    /// Reward shape (Eq. 1; §V-B: α = 0.2, r_bonus = 0.4).
    pub reward: RewardConfig,
    /// PPO hyper-parameters (§V-B: γ = 0.1, ε = 0.2).
    pub ppo: PpoConfig,
    /// PPO window: the number of most-recent steps each update trains on
    /// (truncated-BPTT over the growing test sequence).
    pub test_len: usize,
    /// Maximum accumulated test-case length. §IV-A grows each test case
    /// from the previous one by a single instruction for as long as
    /// possible; the cap (bounded by the code region) restarts the
    /// sequence, like the reset module but keeping the learned policy.
    pub body_cap: usize,
    /// Iterations without cumulative-coverage growth before the reset
    /// module re-initialises both models (§IV-B).
    pub reset_patience: u64,
    /// Enable the §IV-B instruction mask (ablation switch).
    pub use_instruction_mask: bool,
    /// Enable the §IV-B reset module (ablation switch).
    pub use_reset: bool,
    /// Use the predictor's value estimate in the advantage (Eq. 2); off
    /// replaces `V` with zero (ablation switch).
    pub use_value_baseline: bool,
    /// Normalise rewards (§V-B; ablation switch).
    pub normalize_rewards: bool,
    /// Candidate instructions sampled per step and screened by the
    /// coverage predictor (contribution 3: "the predictor evaluates the
    /// quality of these instructions" so that not every candidate needs
    /// hardware simulation). `1` disables screening (ablation switch).
    pub screen_candidates: usize,
    /// Per-head ε-exploration floor: the probability that a head output is
    /// drawn uniformly instead of from the policy, so rare instructions
    /// never disappear from the stream (the §IV-B curse-of-exploitation
    /// guard alongside the mask and reset module).
    pub exploration_epsilon: f32,
    /// RNG seed for all stochastic components.
    pub seed: u64,
}

impl HflConfig {
    /// The paper's configuration.
    #[must_use]
    pub fn paper_default() -> HflConfig {
        HflConfig {
            generator: GeneratorConfig::paper_default(),
            predictor: PredictorConfig::paper_default(),
            reward: RewardConfig::paper_default(),
            ppo: PpoConfig::paper_default(),
            test_len: 24,
            body_cap: 256,
            reset_patience: 300,
            use_instruction_mask: true,
            use_reset: true,
            use_value_baseline: true,
            normalize_rewards: true,
            screen_candidates: 4,
            exploration_epsilon: 0.02,
            seed: 0,
        }
    }

    /// A smaller, faster configuration (same loop, narrower networks) for
    /// the default benchmark harnesses and tests.
    #[must_use]
    pub fn small() -> HflConfig {
        HflConfig {
            generator: GeneratorConfig::small(),
            predictor: PredictorConfig::small(),
            test_len: 24,
            body_cap: 192,
            reset_patience: 150,
            ..HflConfig::paper_default()
        }
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> HflConfig {
        self.seed = seed;
        self
    }
}

impl Default for HflConfig {
    fn default() -> Self {
        HflConfig::paper_default()
    }
}

/// A step awaiting its reward (emitted by `next_case`, completed by
/// `feedback`). Batched rounds speculatively chain several steps before
/// any feedback arrives, so these queue up in generation order.
#[derive(Debug, Clone)]
struct PendingStep {
    input: Tokens,
    action: crate::generator::SampledAction,
    mask: [bool; 7],
    v_t: f32,
    v_next: f32,
    /// Session snapshots from before this instruction was appended, so a
    /// non-terminating extension can be rolled back.
    undo_gen: GenSession,
    undo_value: ValueSession,
    undo_coverage: Option<CoverageSession>,
    /// Body length before this step's instruction was appended. Rolling a
    /// mid-round step back truncates to here, discarding the later steps
    /// of the speculative chain along with it.
    undo_body_len: usize,
}

/// A case queued for the coverage predictor's next training step
/// (§IV-C): the window of the executed body it learns from and the
/// coverage bits that body produced.
#[derive(Debug)]
struct CoverageCase {
    sequence: Vec<Tokens>,
    bits: Arc<Vec<u8>>,
    /// `stats.cases` when the feedback arrived, which the case's
    /// [`Event::PredictorEval`] reports.
    case: u64,
}

impl CoverageCase {
    /// One BCE step of `predictor` on this case. With `observe`, it also
    /// returns the [`Event::PredictorEval`] scoring the predictor's
    /// pre-update logits against the bits.
    fn train(
        &self,
        predictor: &mut CoveragePredictor,
        adam: &mut Adam,
        observe: bool,
    ) -> Option<Event> {
        let labels: Vec<f32> = self.bits.iter().map(|&b| f32::from(b)).collect();
        let mut eval = None;
        predictor.train_case_observed(&self.sequence, &labels, adam, |logits| {
            if observe {
                eval = Some(predictor_eval(self.case, logits, &self.bits));
            }
        });
        eval
    }
}

/// The half of a model update that the lane offers its helper: the
/// critic's TD pass over the PPO window (Eq. 3) and, when a case is
/// queued, the coverage predictor's step on it. The models travel with
/// their Adam states and come back in this struct.
struct HelperUpdate {
    critic: ValuePredictor,
    critic_adam: Adam,
    td_inputs: Vec<Tokens>,
    td_targets: Vec<f32>,
    coverage: Option<(CoveragePredictor, Adam, CoverageCase)>,
    observe: bool,
}

impl HelperUpdate {
    /// Trains both models, returning the mean TD error and the queued
    /// case's evaluation.
    fn run(&mut self) -> (f32, Option<Event>) {
        let eval = self
            .coverage
            .as_mut()
            .and_then(|(predictor, adam, case)| case.train(predictor, adam, self.observe));
        let td_error =
            self.critic
                .train_episode(&self.td_inputs, &self.td_targets, &mut self.critic_adam);
        (td_error, eval)
    }
}

/// Why [`HflFuzzer`]'s critic is always present outside a model update.
const CRITIC_HOME: &str = "the critic is back from the lane between model updates";

/// Counters the loop exposes for monitoring and the benches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HflStats {
    /// Completed PPO updates (episodes).
    pub episodes: u64,
    /// Test cases emitted.
    pub cases: u64,
    /// Reset-module activations.
    pub resets: u64,
    /// Best per-case coverage fraction observed.
    pub best_coverage: f32,
    /// Mean probability ratio of the last update.
    pub last_mean_ratio: f32,
    /// Mean TD error of the last predictor update.
    pub last_td_error: f32,
}

/// The hardware fuzzing loop.
///
/// Implements [`Fuzzer`], so it drops into the same campaign harness as
/// the baselines: `next_case` extends the incremental test case by one
/// generated instruction (§IV-A test construction) and `feedback` performs
/// reward assignment, the PPO update (episode end) and reset-module
/// bookkeeping.
///
/// # Examples
///
/// ```
/// use hfl::baselines::{Feedback, Fuzzer};
/// use hfl::fuzzer::{HflConfig, HflFuzzer};
///
/// let mut cfg = HflConfig::small();
/// cfg.generator.hidden = 16;
/// cfg.predictor.hidden = 16;
/// let mut hfl = HflFuzzer::new(cfg);
/// let case = hfl.next_case();
/// hfl.feedback(&case, Feedback::scalar(true, 0.3));
/// ```
#[derive(Debug)]
pub struct HflFuzzer {
    cfg: HflConfig,
    rng: StdRng,
    generator: InstructionGenerator,
    /// The critic; `None` only while a model update has handed it to the
    /// lane.
    predictor: Option<ValuePredictor>,
    gen_adam: Adam,
    pred_adam: Adam,
    normalizer: RewardNormalizer,
    session: GenSession,
    value_session: ValueSession,
    coverage_predictor: Option<CoveragePredictor>,
    coverage_session: Option<CoverageSession>,
    cov_adam: Adam,
    cumulative_bits: Vec<f32>,
    body: Vec<Instruction>,
    pending: VecDeque<PendingStep>,
    episode: Vec<EpisodeStep>,
    td_inputs: Vec<Tokens>,
    td_targets: Vec<f32>,
    stagnation: u64,
    consecutive_rollbacks: u32,
    stats: HflStats,
    sink: SinkHandle,
    /// Where the critic and the coverage predictor train while PPO runs
    /// on the caller.
    lane: Lane,
    /// Rewards of the current PPO window, parallel to `episode` (telemetry
    /// only: feeds `Event::PpoUpdate::reward_mean`).
    window_rewards: Vec<f32>,
}

impl HflFuzzer {
    /// Creates the loop with freshly initialised models.
    #[must_use]
    pub fn new(cfg: HflConfig) -> HflFuzzer {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let generator = InstructionGenerator::new(cfg.generator, &mut rng);
        let predictor = ValuePredictor::new(cfg.predictor, &mut rng);
        let session = generator.start_session();
        let value_session = predictor.start_session();
        HflFuzzer {
            gen_adam: Adam::new(cfg.generator.lr),
            pred_adam: Adam::new(cfg.predictor.lr),
            normalizer: RewardNormalizer::new(),
            cfg,
            rng,
            generator,
            predictor: Some(predictor),
            session,
            value_session,
            coverage_predictor: None,
            coverage_session: None,
            cov_adam: Adam::new(cfg.predictor.lr),
            cumulative_bits: Vec::new(),
            body: Vec::new(),
            pending: VecDeque::new(),
            episode: Vec::new(),
            td_inputs: Vec::new(),
            td_targets: Vec::new(),
            stagnation: 0,
            consecutive_rollbacks: 0,
            stats: HflStats::default(),
            sink: SinkHandle::null(),
            lane: Lane::default(),
            window_rewards: Vec::new(),
        }
    }

    fn critic(&self) -> &ValuePredictor {
        self.predictor.as_ref().expect(CRITIC_HOME)
    }

    /// Feeds `token` to the critic's streaming session and returns the
    /// updated `V(S)`.
    fn critic_step(&mut self, token: &Tokens) -> f32 {
        let critic = self.predictor.as_ref().expect(CRITIC_HOME);
        critic.step(&mut self.value_session, token)
    }

    /// Loop statistics.
    #[must_use]
    pub fn stats(&self) -> HflStats {
        self.stats
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HflConfig {
        &self.cfg
    }

    /// Read access to the generator (e.g. for persistence).
    #[must_use]
    pub fn generator(&self) -> &InstructionGenerator {
        &self.generator
    }

    /// Serialises the loop's complete learning state: RNG stream position,
    /// both models with their Adam moments, streaming LSTM sessions, the
    /// reward normaliser, the open PPO window and all counters. Only valid
    /// at a round boundary (no case awaiting feedback) — that is the
    /// invariant that makes a resumed campaign bit-identical.
    fn write_state<W: std::io::Write>(&self, w: &mut W) -> Result<(), PersistError> {
        if !self.pending.is_empty() {
            return Err(PersistError::Unsupported(
                "HFL checkpoint requires a round boundary",
            ));
        }
        self.cfg.save(w)?;
        persist::write_rng(w, &self.rng)?;
        self.generator.save(w)?;
        self.critic().save(w)?;
        self.gen_adam.save(w)?;
        self.pred_adam.save(w)?;
        let (count, mean, m2) = self.normalizer.state();
        write_u64(w, count)?;
        write_f64(w, mean)?;
        write_f64(w, m2)?;
        self.session.state().save(w)?;
        self.session.next_input.save(w)?;
        self.value_session.state().save(w)?;
        write_f32(w, self.value_session.value())?;
        match &self.coverage_predictor {
            Some(cp) => {
                write_bool(w, true)?;
                cp.save(w)?;
            }
            None => write_bool(w, false)?,
        }
        match &self.coverage_session {
            Some(cs) => {
                write_bool(w, true)?;
                cs.state().save(w)?;
            }
            None => write_bool(w, false)?,
        }
        self.cov_adam.save(w)?;
        write_f32_vec(w, &self.cumulative_bits)?;
        persist::write_program(w, &self.body)?;
        write_usize(w, self.episode.len())?;
        for step in &self.episode {
            step.save(w)?;
        }
        persist::write_tokens_seq(w, &self.td_inputs)?;
        write_f32_vec(w, &self.td_targets)?;
        write_u64(w, self.stagnation)?;
        write_u32(w, self.consecutive_rollbacks)?;
        self.stats.save(w)?;
        write_f32_vec(w, &self.window_rewards)
    }

    /// Restores state written by [`HflFuzzer::write_state`]. The attached
    /// telemetry sink and lane are kept; everything else is replaced.
    fn read_state<R: std::io::Read>(&mut self, r: &mut R) -> Result<(), PersistError> {
        use hfl_nn::persist::corrupt;
        self.cfg = HflConfig::load(r)?;
        self.rng = persist::read_rng(r)?;
        self.generator = InstructionGenerator::load(r)?;
        self.predictor = Some(ValuePredictor::load(r)?);
        self.gen_adam = Adam::load(r)?;
        self.pred_adam = Adam::load(r)?;
        let count = read_u64(r)?;
        let mean = read_f64(r)?;
        let m2 = read_f64(r)?;
        self.normalizer = RewardNormalizer::from_state(count, mean, m2);
        let gen_state = LstmState::load(r)?;
        check_session("generator", self.generator.lstm_ref(), &gen_state)?;
        let next_input = Tokens::load(r)?;
        self.session = GenSession::from_parts(gen_state, next_input);
        let value_state = LstmState::load(r)?;
        check_session("critic", self.critic().lstm_ref(), &value_state)?;
        let last_value = read_f32(r)?;
        self.value_session = ValueSession::from_parts(value_state, last_value);
        self.coverage_predictor = if read_bool(r)? {
            Some(CoveragePredictor::load(r)?)
        } else {
            None
        };
        self.coverage_session = match (&self.coverage_predictor, read_bool(r)?) {
            (Some(cp), true) => {
                let state = LstmState::load(r)?;
                check_session("coverage", cp.lstm_ref(), &state)?;
                Some(CoverageSession::from_parts(state))
            }
            (None, false) => None,
            _ => return Err(corrupt("coverage predictor and session must pair up")),
        };
        self.cov_adam = Adam::load(r)?;
        self.cumulative_bits = read_f32_vec(r)?;
        self.body = persist::read_program(r)?;
        let n = read_usize(r, 1 << 20, "episode length")?;
        self.episode = (0..n)
            .map(|_| EpisodeStep::load(r))
            .collect::<Result<_, _>>()?;
        self.td_inputs = persist::read_tokens_seq(r)?;
        self.td_targets = read_f32_vec(r)?;
        self.stagnation = read_u64(r)?;
        self.consecutive_rollbacks = read_u32(r)?;
        self.stats = HflStats::load(r)?;
        self.window_rewards = read_f32_vec(r)?;
        self.pending.clear();
        Ok(())
    }

    /// Samples up to `screen_candidates` instructions from the policy and
    /// commits the one the coverage predictor scores highest on *expected
    /// new coverage* — the paper's fast predictor-in-the-loop feedback.
    /// Falls back to plain sampling until the predictor has data.
    fn generate_screened(
        &mut self,
    ) -> (
        crate::correction::Corrected,
        crate::generator::SampledAction,
    ) {
        let hidden = self.generator.advance(&mut self.session);
        // Every candidate is drawn from the same hidden vector, so the
        // heads and their distributions are built once per step, not once
        // per candidate.
        let dists = self.generator.head_dists(&hidden, None);
        let k = self.cfg.screen_candidates.max(1);
        let screening_ready = k > 1 && self.coverage_predictor.is_some() && self.stats.cases >= 32;
        if !screening_ready {
            let (corrected, action) = self.generator.sample_from_dists(
                &dists,
                self.cfg.exploration_epsilon,
                &mut self.rng,
            );
            self.generator.commit(&mut self.session, &corrected);
            if let (Some(cp), Some(cs)) = (&self.coverage_predictor, &mut self.coverage_session) {
                cp.step(cs, &Tokens::from_instruction(&corrected.instruction));
            }
            return (corrected, action);
        }
        // Sample all k candidates up front. Screening itself consumes no
        // randomness (`peek_batch` is a pure forward pass), so the RNG
        // stream is identical to the historical sample-then-peek
        // interleaving — determinism survives both the batching and the
        // dedup below.
        let mut candidates = Vec::with_capacity(k);
        for _ in 0..k {
            candidates.push(self.generator.sample_from_dists(
                &dists,
                self.cfg.exploration_epsilon,
                &mut self.rng,
            ));
        }
        // De-duplicate by corrected token before scoring: repeated
        // candidates would produce identical probability maps, so each
        // distinct token goes through the predictor exactly once. `slot[c]`
        // maps candidate `c` to its score in `distinct` order.
        let mut distinct: Vec<Tokens> = Vec::with_capacity(k);
        let mut slot = Vec::with_capacity(k);
        for (corrected, _) in &candidates {
            let token = Tokens::from_instruction(&corrected.instruction);
            let idx = distinct
                .iter()
                .position(|t| *t == token)
                .unwrap_or_else(|| {
                    distinct.push(token);
                    distinct.len() - 1
                });
            slot.push(idx);
        }
        // One batched peek scores every distinct candidate as a
        // hypothetical continuation of the shared predictor session.
        let prob_batch = {
            let cp = self.coverage_predictor.as_ref().expect("checked above");
            let cs = self
                .coverage_session
                .as_ref()
                .expect("paired with predictor");
            cp.peek_batch(cs, &distinct)
        };
        let scores: Vec<f32> = prob_batch
            .iter()
            .map(|probs| Self::screening_score(probs, &self.cumulative_bits))
            .collect();
        // Argmax in sample order with strict `>`: ties keep the earliest
        // candidate, exactly like the sequential loop did (duplicates score
        // equal, so dedup cannot change the winner).
        let mut best = 0;
        for c in 1..candidates.len() {
            if scores[slot[c]] > scores[slot[best]] {
                best = c;
            }
        }
        let (corrected, action) = candidates.swap_remove(best);
        self.generator.commit(&mut self.session, &corrected);
        let token = Tokens::from_instruction(&corrected.instruction);
        let (cp, cs) = (
            self.coverage_predictor.as_ref().expect("checked"),
            self.coverage_session.as_mut().expect("checked"),
        );
        cp.step(cs, &token);
        (corrected, action)
    }

    /// Expected number of *new* coverage points a candidate unlocks:
    /// `Σ pᵢ · (1 − cumᵢ)`. The predictor's probability map and the
    /// cumulative-coverage map must line up point-for-point; a length
    /// disagreement (e.g. a checkpoint restored against a DUT with a
    /// different coverage map) used to be silently zip-truncated, quietly
    /// corrupting every screening decision, so it is now a hard error.
    fn screening_score(probs: &[f32], cumulative: &[f32]) -> f32 {
        assert!(
            probs.len() == cumulative.len(),
            "coverage predictor emitted {} points but cumulative coverage tracks {}; \
             refusing to screen on a truncated map",
            probs.len(),
            cumulative.len()
        );
        probs
            .iter()
            .zip(cumulative)
            .map(|(p, cum)| p * (1.0 - cum))
            .sum()
    }

    /// Queues the executed case for the coverage predictor's next
    /// training step (creating the predictor on the first labelled
    /// feedback) and marks its bits in the cumulative map that screening
    /// reads. `case_len` is the executed case's body length — during a
    /// batched round `self.body` already carries later speculative
    /// extensions.
    fn queue_coverage_case(&mut self, bits: &Arc<Vec<u8>>, case_len: usize) -> CoverageCase {
        if self.coverage_predictor.is_none() {
            self.coverage_predictor = Some(CoveragePredictor::new(
                self.cfg.predictor,
                bits.len(),
                &mut self.rng,
            ));
            self.coverage_session = Some(
                self.coverage_predictor
                    .as_ref()
                    .expect("just set")
                    .start_session(),
            );
            self.cumulative_bits = vec![0.0; bits.len()];
        }
        for (cum, &b) in self.cumulative_bits.iter_mut().zip(bits.iter()) {
            if b != 0 {
                *cum = 1.0;
            }
        }
        // Train on the recent suffix: the growing test sequence would make
        // whole-body training quadratic in campaign length.
        let window = self.cfg.test_len.max(8);
        let case = &self.body[..case_len.min(self.body.len())];
        let start = case.len().saturating_sub(window);
        CoverageCase {
            sequence: Tokens::sequence_with_bos(&case[start..]),
            bits: Arc::clone(bits),
            case: self.stats.cases,
        }
    }

    /// Trains the coverage predictor on `coverage` on this thread, for
    /// the paths that update no other model, and emits its evaluation.
    fn train_coverage_here(&mut self, coverage: Option<CoverageCase>) {
        if let (Some(case), Some(predictor)) = (coverage, &mut self.coverage_predictor) {
            if let Some(eval) = case.train(predictor, &mut self.cov_adam, self.sink.enabled()) {
                self.sink.emit(&eval);
            }
        }
    }

    /// One model update over the PPO window: PPO (Eq. 4) fine-tunes the
    /// generator on this thread while the lane's helper trains the critic
    /// (Eq. 3) and, on a queued case, the coverage predictor; this thread
    /// trains them itself if the helper has not woken by then. The three
    /// models share no state and draw no randomness, so the result is
    /// the same wherever each runs. The case's [`Event::PredictorEval`]
    /// is emitted after both sides finish, scored on the predictor's
    /// pre-update logits; telemetry only reads, so it never perturbs the
    /// loop's state or RNG.
    fn update_models(&mut self, coverage: Option<CoverageCase>) -> UpdateStats {
        let coverage = coverage.map(|case| {
            let predictor = self.coverage_predictor.take();
            let predictor = predictor.expect("queueing a case creates the predictor");
            (predictor, self.cov_adam.clone(), case)
        });
        let mut helper = HelperUpdate {
            critic: self.predictor.take().expect(CRITIC_HOME),
            critic_adam: self.pred_adam.clone(),
            td_inputs: std::mem::take(&mut self.td_inputs),
            td_targets: std::mem::take(&mut self.td_targets),
            coverage,
            observe: self.sink.enabled(),
        };
        let ((helper, (td_error, eval)), stats) = self.lane.join(
            move || {
                let out = helper.run();
                (helper, out)
            },
            || {
                self.generator
                    .ppo_update(&self.episode, self.cfg.ppo.epsilon, &mut self.gen_adam)
            },
        );
        self.predictor = Some(helper.critic);
        self.pred_adam = helper.critic_adam;
        self.td_inputs = helper.td_inputs;
        self.td_targets = helper.td_targets;
        if let Some((predictor, adam, _)) = helper.coverage {
            self.coverage_predictor = Some(predictor);
            self.cov_adam = adam;
        }
        if let Some(eval) = eval {
            self.sink.emit(&eval);
        }
        self.stats.last_mean_ratio = stats.mean_ratio;
        self.stats.last_td_error = td_error;
        stats
    }

    /// Emits one [`Event::PpoUpdate`] (sink-gated; pure observation).
    fn emit_ppo_update(&self, update: UpdateStats) {
        if !self.sink.enabled() {
            return;
        }
        let reward_mean = if self.window_rewards.is_empty() {
            0.0
        } else {
            self.window_rewards.iter().sum::<f32>() / self.window_rewards.len() as f32
        };
        self.sink.emit(&Event::PpoUpdate {
            case: self.stats.cases,
            episode: self.stats.episodes,
            mean_ratio: f64::from(update.mean_ratio),
            approx_kl: f64::from(update.approx_kl),
            td_loss: f64::from(self.stats.last_td_error),
            reward_mean: f64::from(reward_mean),
        });
    }

    fn finish_episode(&mut self, coverage: Option<CoverageCase>) {
        if self.episode.is_empty() {
            self.train_coverage_here(coverage);
        } else {
            let stats = self.update_models(coverage);
            self.stats.episodes += 1;
            self.emit_ppo_update(stats);
        }
        self.episode.clear();
        self.td_inputs.clear();
        self.td_targets.clear();
        self.window_rewards.clear();
        self.body.clear();
        self.session = self.generator.start_session();
        self.value_session = self.critic().start_session();
        self.coverage_session = self
            .coverage_predictor
            .as_ref()
            .map(CoveragePredictor::start_session);
        // Pending steps extended the body this call just cleared; their
        // feedbacks (if any are still in flight) must be ignored.
        self.pending.clear();
    }

    fn activate_reset_module(&mut self) {
        self.generator.reset(&mut self.rng);
        let critic = self.predictor.as_mut().expect(CRITIC_HOME);
        critic.reset(&mut self.rng);
        self.gen_adam = Adam::new(self.cfg.generator.lr);
        self.pred_adam = Adam::new(self.cfg.predictor.lr);
        self.normalizer.reset();
        self.stagnation = 0;
        self.stats.resets += 1;
        self.finish_only_state();
    }

    /// Clears episode state without a model update (post-reset). The
    /// coverage predictor is re-initialised with the rest of φ.
    fn finish_only_state(&mut self) {
        self.episode.clear();
        self.td_inputs.clear();
        self.td_targets.clear();
        self.window_rewards.clear();
        self.body.clear();
        self.session = self.generator.start_session();
        self.value_session = self.critic().start_session();
        self.coverage_predictor = None;
        self.coverage_session = None;
        self.cov_adam = Adam::new(self.cfg.predictor.lr);
        self.pending.clear();
    }
}

impl Fuzzer for HflFuzzer {
    fn name(&self) -> &'static str {
        "HFL"
    }

    fn next_case(&mut self) -> TestBody {
        // V(S_t): the critic's estimate before the new instruction.
        let v_t = if self.cfg.use_value_baseline {
            if self.body.is_empty() {
                // Prime the critic with the BOS token at episode start.
                self.critic_step(&Tokens::bos())
            } else {
                self.value_session.value()
            }
        } else {
            0.0
        };
        let input = self.session.next_input;
        let undo_gen = self.session.clone();
        let undo_value = self.value_session.clone();
        let undo_coverage = self.coverage_session.clone();
        let (corrected, action) = self.generate_screened();
        let v_next = if self.cfg.use_value_baseline {
            self.critic_step(&Tokens::from_instruction(&corrected.instruction))
        } else {
            0.0
        };
        let mask = if self.cfg.use_instruction_mask {
            corrected.mask.as_array()
        } else {
            [true; 7]
        };
        self.pending.push_back(PendingStep {
            input,
            action,
            mask,
            v_t,
            v_next,
            undo_gen,
            undo_value,
            undo_coverage,
            undo_body_len: self.body.len(),
        });
        self.body.push(corrected.instruction);
        self.stats.cases += 1;
        TestBody::Asm(self.body.clone())
    }

    /// Speculatively chains up to `n` incremental extensions for one
    /// execution round — case `i+1` assumes case `i` terminates. A
    /// rollback or episode boundary in the feedback phase invalidates the
    /// rest of the chain (their queued steps are dropped, and the
    /// campaign's remaining feedbacks for the round are ignored). The
    /// round stops early at the body cap, where feedback closes the
    /// episode. With `n = 1` this is exactly the sequential loop.
    fn next_round(&mut self, n: usize) -> Vec<TestBody> {
        let cap = self.cfg.body_cap.min(max_body());
        let mut round = Vec::with_capacity(n.max(1));
        for _ in 0..n.max(1) {
            round.push(self.next_case());
            if self.body.len() >= cap {
                break;
            }
        }
        round
    }

    fn feedback(&mut self, _body: &TestBody, feedback: Feedback) {
        let Some(pending) = self.pending.pop_front() else {
            return;
        };
        if !feedback.terminated {
            // §IV-A's constructor keeps every test case executable: a
            // non-terminating extension is rolled back, and the action that
            // caused it is penalised so the policy avoids runaway loops.
            // Later steps of a speculative chain extended the rolled-back
            // body, so they are discarded with it.
            self.body.truncate(pending.undo_body_len);
            self.pending.clear();
            self.session = pending.undo_gen;
            self.value_session = pending.undo_value;
            // The snapshot predates the predictor when an earlier feedback
            // of this very round lazily created it; restoring `None` next
            // to a live predictor would poison every later screening call,
            // so re-pair with a fresh session instead.
            self.coverage_session = pending.undo_coverage.or_else(|| {
                self.coverage_predictor
                    .as_ref()
                    .map(CoveragePredictor::start_session)
            });
            let penalty = if self.cfg.normalize_rewards {
                self.normalizer.normalize(0.0)
            } else {
                0.0
            };
            let adv = advantage(
                penalty - 0.5,
                pending.v_next,
                pending.v_t,
                self.cfg.ppo.gamma,
            );
            self.episode.push(EpisodeStep {
                input: pending.input,
                action: pending.action,
                mask: pending.mask,
                advantage: adv,
            });
            self.td_inputs.push(pending.input);
            self.td_targets.push(penalty - 0.5);
            self.window_rewards.push(penalty - 0.5);
            self.stagnation += 1;
            self.consecutive_rollbacks += 1;
            if self.consecutive_rollbacks >= 8 {
                // The sequence's runtime sits at the step budget: no
                // extension can terminate any more. Restart the test
                // sequence (policy intact) instead of stalling until the
                // reset module fires.
                self.consecutive_rollbacks = 0;
                self.finish_episode(None);
            }
            return;
        }
        self.consecutive_rollbacks = 0;
        let case_len = pending.undo_body_len + 1;
        let coverage = feedback
            .case_bits
            .as_ref()
            .map(|bits| self.queue_coverage_case(bits, case_len));
        // Eq. (1): reward assignment. The r_bonus is granted when the test
        // case "achieves the highest hardware coverage observed so far" —
        // read cumulatively: a case that grows cumulative coverage sets a
        // new high-water mark and earns the bonus. This is the discovery
        // signal that drives the generator toward untouched hardware
        // states.
        if feedback.coverage > self.stats.best_coverage {
            self.stats.best_coverage = feedback.coverage;
        }
        let raw = self
            .cfg
            .reward
            .reward(feedback.coverage, feedback.gained_coverage);
        let reward = if self.cfg.normalize_rewards {
            self.normalizer.normalize(raw)
        } else {
            raw
        };
        // Eq. (2): advantage against the critic baseline.
        let adv = advantage(reward, pending.v_next, pending.v_t, self.cfg.ppo.gamma);
        self.episode.push(EpisodeStep {
            input: pending.input,
            action: pending.action,
            mask: pending.mask,
            advantage: adv,
        });
        // Eq. (3) target for the critic.
        self.td_inputs.push(pending.input);
        self.td_targets
            .push(reward + self.cfg.ppo.gamma * pending.v_next);
        self.window_rewards.push(reward);

        // Reset-module bookkeeping (cumulative coverage stagnation).
        if feedback.gained_coverage {
            self.stagnation = 0;
        } else {
            self.stagnation += 1;
        }
        if self.cfg.use_reset && self.stagnation >= self.cfg.reset_patience {
            // The reset discards the coverage predictor, but the case
            // still trains it first and is scored, as in every other path.
            self.train_coverage_here(coverage);
            self.activate_reset_module();
            return;
        }
        // Keep the PPO window to the most recent steps (truncated BPTT
        // over the ever-growing test sequence).
        while self.episode.len() > self.cfg.test_len {
            self.episode.remove(0);
            self.td_inputs.remove(0);
            self.td_targets.remove(0);
            self.window_rewards.remove(0);
        }
        if case_len >= self.cfg.body_cap.min(max_body()) {
            // The code region is full: close the episode and start a fresh
            // test sequence with the learned policy intact. (`case_len`,
            // not `self.body.len()`: a batched round may already have
            // chained speculative extensions past this case.)
            self.finish_episode(coverage);
        } else {
            // Real-time fine-tuning (§IV-B: the framework "fine-tunes the
            // instruction generator in real time"): every iteration updates
            // the models over the recent window. Re-visited steps keep
            // their sampling-time log-probabilities, so the PPO
            // ratio/clipping provides the trust region exactly as Eq. (4)
            // intends.
            let stats = self.update_models(coverage);
            self.emit_ppo_update(stats);
        }
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    fn attach_lane(&mut self, lane: Lane) {
        self.lane = lane;
    }

    fn save_state(&self, mut w: &mut dyn std::io::Write) -> Result<(), PersistError> {
        self.write_state(&mut w)
    }

    fn load_state(&mut self, mut r: &mut dyn std::io::Read) -> Result<(), PersistError> {
        self.read_state(&mut r)
    }
}

/// Refuses a restored session state that does not fit its model's LSTM
/// (layer count and hidden width), which would otherwise panic in the
/// first `Lstm::step`.
fn check_session(name: &str, lstm: &Lstm, state: &LstmState) -> Result<(), PersistError> {
    let (layers, hidden) = (lstm.layers(), lstm.hidden());
    let fits = |vs: &[Vec<f32>]| vs.len() == layers && vs.iter().all(|v| v.len() == hidden);
    if fits(&state.h) && fits(&state.c) {
        Ok(())
    } else {
        Err(hfl_nn::persist::corrupt(format!(
            "{name} session does not fit its model's {layers} layers of {hidden}"
        )))
    }
}

/// The [`Event::PredictorEval`] scoring the coverage predictor's
/// pre-update `logits` against a case's realised coverage `bits`. A point
/// counts as predicted when its hit probability exceeds one half.
fn predictor_eval(case: u64, logits: &[f32], bits: &[u8]) -> Event {
    let mut predicted_hits = 0u64;
    let mut realized_hits = 0u64;
    let mut agree = 0u64;
    for (&logit, &b) in logits.iter().zip(bits) {
        let hit = sigmoid(logit) > 0.5;
        predicted_hits += u64::from(hit);
        realized_hits += u64::from(b != 0);
        agree += u64::from(hit == (b != 0));
    }
    // `train_case_observed` asserts one label per logit, so the zipped pair
    // count above is the whole map: the denominator cannot deflate (or
    // inflate) the reported accuracy.
    Event::PredictorEval {
        case,
        accuracy: agree as f64 / logits.len().max(1) as f64,
        predicted_hits,
        realized_hits,
    }
}

/// The largest body the code region can hold.
fn max_body() -> usize {
    use std::sync::OnceLock;
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(hfl_grm::Program::max_body_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HflConfig {
        let mut cfg = HflConfig::small();
        cfg.generator.hidden = 16;
        cfg.predictor.hidden = 16;
        cfg.test_len = 4;
        cfg.body_cap = 4;
        cfg.reset_patience = 10;
        cfg
    }

    fn bits_feedback(gained: bool, coverage: f32, bits: Vec<u8>) -> Feedback {
        Feedback {
            case_bits: Some(std::sync::Arc::new(bits)),
            ..Feedback::scalar(gained, coverage)
        }
    }

    /// Drives a fuzzer with labelled coverage until screening is armed
    /// (predictor initialised and ≥ 32 cases observed).
    fn armed_for_screening(seed: u64) -> HflFuzzer {
        let mut cfg = tiny();
        cfg.use_reset = false;
        cfg.body_cap = 8;
        let mut hfl = HflFuzzer::new(cfg.with_seed(seed));
        for i in 0..36u64 {
            let b = hfl.next_case();
            let bits: Vec<u8> = (0..16).map(|j| u8::from((i + j) % 3 == 0)).collect();
            hfl.feedback(&b, bits_feedback(i % 4 == 0, 0.3, bits));
        }
        assert!(hfl.stats.cases >= 32, "screening must be armed");
        assert!(hfl.coverage_predictor.is_some());
        hfl
    }

    fn drive(hfl: &mut HflFuzzer, n: usize, coverage: impl Fn(u64) -> f32) {
        for i in 0..n {
            let body = hfl.next_case();
            assert!(!body.is_empty());
            let c = coverage(i as u64);
            hfl.feedback(&body, Feedback::scalar(c > 0.5, c));
        }
    }

    #[test]
    fn paper_default_config() {
        let cfg = HflConfig::paper_default();
        assert_eq!(cfg.generator.hidden, 256);
        assert!((cfg.reward.alpha - 0.2).abs() < 1e-9);
        assert!((cfg.ppo.gamma - 0.1).abs() < 1e-9);
        assert!(cfg.use_instruction_mask && cfg.use_reset);
    }

    #[test]
    fn incremental_test_construction() {
        let mut hfl = HflFuzzer::new(tiny());
        let a = hfl.next_case();
        hfl.feedback(&a, Feedback::scalar(true, 0.1));
        let b = hfl.next_case();
        assert_eq!(a.len() + 1, b.len(), "each case adds one instruction");
        // The previous prefix is preserved.
        let (TestBody::Asm(a), TestBody::Asm(b)) = (&a, &b) else {
            unreachable!()
        };
        assert_eq!(&b[..a.len()], &a[..]);
    }

    #[test]
    fn episodes_trigger_ppo_updates() {
        let mut hfl = HflFuzzer::new(tiny());
        drive(&mut hfl, 12, |i| 0.6 + 0.01 * (i % 5) as f32);
        let stats = hfl.stats();
        assert_eq!(stats.cases, 12);
        assert_eq!(
            stats.episodes, 3,
            "body_cap=4 -> a sequence restart every 4 cases"
        );
        assert!(stats.best_coverage > 0.6);
    }

    #[test]
    fn reset_module_fires_on_stagnation() {
        let mut hfl = HflFuzzer::new(tiny());
        drive(&mut hfl, 30, |_| 0.1); // never gains coverage
        assert!(hfl.stats().resets >= 1, "stagnation must trigger a reset");
    }

    #[test]
    fn reset_module_can_be_disabled() {
        let mut cfg = tiny();
        cfg.use_reset = false;
        let mut hfl = HflFuzzer::new(cfg);
        drive(&mut hfl, 30, |_| 0.1);
        assert_eq!(hfl.stats().resets, 0);
    }

    #[test]
    fn new_episode_restarts_the_body() {
        let mut hfl = HflFuzzer::new(tiny());
        drive(&mut hfl, 4, |_| 0.9); // exactly one episode
        let body = hfl.next_case();
        assert_eq!(body.len(), 1, "fresh episode starts from scratch");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut hfl = HflFuzzer::new(tiny().with_seed(99));
            let mut cases = Vec::new();
            for i in 0..8 {
                let b = hfl.next_case();
                cases.push(b.clone());
                hfl.feedback(&b, Feedback::scalar(i % 2 == 0, 0.2));
            }
            cases
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn feedback_without_pending_case_is_ignored() {
        let mut hfl = HflFuzzer::new(tiny());
        hfl.feedback(&TestBody::Asm(vec![]), Feedback::scalar(false, 0.0));
        assert_eq!(hfl.stats().cases, 0);
    }

    #[test]
    fn round_of_one_matches_the_sequential_loop() {
        let mk = |batched: bool| {
            let mut hfl = HflFuzzer::new(tiny().with_seed(5));
            let mut cases = Vec::new();
            for i in 0..8 {
                let round = if batched {
                    hfl.next_round(1)
                } else {
                    vec![hfl.next_case()]
                };
                for b in round {
                    hfl.feedback(&b, Feedback::scalar(i % 2 == 0, 0.2));
                    cases.push(b);
                }
            }
            cases
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn batched_round_chains_incrementally_and_stops_at_the_cap() {
        let mut hfl = HflFuzzer::new(tiny()); // body_cap = 4
        let round = hfl.next_round(8);
        assert_eq!(round.len(), 4, "the cap bounds the chain");
        for (i, body) in round.iter().enumerate() {
            assert_eq!(body.len(), i + 1, "case {i} extends its predecessor by one");
        }
    }

    #[test]
    fn rollback_mid_round_invalidates_the_rest_of_the_chain() {
        let mut cfg = tiny();
        cfg.body_cap = 16;
        let mut hfl = HflFuzzer::new(cfg);
        let round = hfl.next_round(4);
        assert_eq!(round.len(), 4);
        // The first case terminates; the second does not and is rolled
        // back, which invalidates the speculative extensions behind it.
        hfl.feedback(&round[0], Feedback::scalar(true, 0.4));
        hfl.feedback(
            &round[1],
            Feedback {
                terminated: false,
                ..Feedback::scalar(false, 0.0)
            },
        );
        hfl.feedback(&round[2], Feedback::scalar(true, 0.9));
        hfl.feedback(&round[3], Feedback::scalar(true, 0.9));
        assert!(
            hfl.stats().best_coverage < 0.5,
            "stale feedbacks for the dropped chain must be ignored"
        );
        // The next case re-extends the surviving one-instruction prefix.
        let next = hfl.next_case();
        assert_eq!(
            next.len(),
            2,
            "body truncated back to the terminated prefix"
        );
        let (TestBody::Asm(prev), TestBody::Asm(next_b)) = (&round[0], &next) else {
            unreachable!()
        };
        assert_eq!(&next_b[..1], &prev[..]);
    }

    #[test]
    fn screened_generation_is_seed_deterministic() {
        let mk = || {
            let mut hfl = armed_for_screening(42);
            let mut cases = Vec::new();
            for i in 0..12u64 {
                let b = hfl.next_case();
                cases.push(b.clone());
                let bits: Vec<u8> = (0..16).map(|j| u8::from((i + j) % 2 == 0)).collect();
                hfl.feedback(&b, bits_feedback(i % 3 == 0, 0.4, bits));
            }
            cases
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn batched_screening_matches_the_sequential_reference() {
        // Two identically seeded and identically driven fuzzers hold
        // bit-identical state. One runs the batched screening path; on the
        // other we replay the historical sequential algorithm (one peek
        // per candidate, strict-greater argmax) by hand. The committed
        // instruction must agree — batching plus de-duplication is a pure
        // reassociation-safe refactor.
        let mut real = armed_for_screening(123);
        let mut reference = armed_for_screening(123);
        let body = real.next_case();
        let TestBody::Asm(insns) = &body else {
            unreachable!()
        };
        let chosen = *insns.last().expect("non-empty case");
        let hidden = reference.generator.advance(&mut reference.session);
        let k = reference.cfg.screen_candidates.max(1);
        assert!(k > 1, "screening must sample multiple candidates");
        let cp = reference.coverage_predictor.as_ref().expect("armed");
        let cs = reference.coverage_session.as_ref().expect("armed");
        let mut best: Option<(f32, Instruction)> = None;
        for _ in 0..k {
            let (corrected, _) = reference.generator.sample_with_exploration(
                &hidden,
                reference.cfg.exploration_epsilon,
                &mut reference.rng,
            );
            let token = Tokens::from_instruction(&corrected.instruction);
            let probs = cp.peek(cs, &token);
            let score: f32 = probs
                .iter()
                .zip(&reference.cumulative_bits)
                .map(|(p, cum)| p * (1.0 - cum))
                .sum();
            if best.as_ref().is_none_or(|(b, _)| score > *b) {
                best = Some((score, corrected.instruction));
            }
        }
        assert_eq!(chosen, best.expect("k >= 1").1);
    }

    #[test]
    fn a_session_that_does_not_fit_its_model_is_refused() {
        // One layer too few, then one hidden unit too few.
        let breaks: [fn(&mut LstmState); 2] = [
            |state| {
                state.h.pop();
                state.c.pop();
            },
            |state| {
                state.c[0].pop();
            },
        ];
        let reload = |hfl: &HflFuzzer| {
            let mut blob = Vec::new();
            hfl.save_state(&mut blob).expect("saves");
            HflFuzzer::new(tiny()).load_state(&mut blob.as_slice())
        };
        reload(&armed_for_screening(5)).expect("an intact snapshot loads");
        for name in ["generator", "critic", "coverage"] {
            for broken in breaks {
                let mut hfl = armed_for_screening(5);
                match name {
                    "generator" => {
                        let mut state = hfl.session.state().clone();
                        broken(&mut state);
                        let next = hfl.session.next_input;
                        hfl.session = GenSession::from_parts(state, next);
                    }
                    "critic" => {
                        let mut state = hfl.value_session.state().clone();
                        broken(&mut state);
                        let value = hfl.value_session.value();
                        hfl.value_session = ValueSession::from_parts(state, value);
                    }
                    _ => {
                        let session = hfl.coverage_session.as_ref().expect("armed");
                        let mut state = session.state().clone();
                        broken(&mut state);
                        hfl.coverage_session = Some(CoverageSession::from_parts(state));
                    }
                }
                let err = reload(&hfl).expect_err("a misfit session must be refused");
                assert!(err.to_string().contains(name), "{name}: {err}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "refusing to screen")]
    fn screening_panics_on_truncated_coverage_map() {
        let mut hfl = armed_for_screening(7);
        // Simulate a stale checkpoint whose cumulative map no longer
        // matches the predictor's output width.
        hfl.cumulative_bits.pop();
        let _ = hfl.next_case();
    }

    #[test]
    fn predictor_eval_uses_the_full_map_as_denominator() {
        use crate::obs::RingSink;
        let mut cfg = tiny();
        cfg.use_reset = false;
        let mut hfl = HflFuzzer::new(cfg.with_seed(9));
        let ring = std::sync::Arc::new(RingSink::new(4096));
        hfl.attach_sink(SinkHandle::new(ring.clone()));
        // All 32 points hit every case: realised hits pin the map size, so
        // the accuracy must equal predicted_hits / 32 exactly.
        for _ in 0..6 {
            let b = hfl.next_case();
            hfl.feedback(&b, bits_feedback(true, 0.5, vec![1u8; 32]));
        }
        let evals: Vec<(f64, u64, u64)> = ring
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::PredictorEval {
                    accuracy,
                    predicted_hits,
                    realized_hits,
                    ..
                } => Some((*accuracy, *predicted_hits, *realized_hits)),
                _ => None,
            })
            .collect();
        assert!(!evals.is_empty(), "labelled feedback must emit evals");
        for (accuracy, predicted_hits, realized_hits) in evals {
            assert_eq!(realized_hits, 32);
            assert!(
                (accuracy - predicted_hits as f64 / 32.0).abs() < 1e-12,
                "accuracy {accuracy} must be predicted agreement over the \
                 full 32-point map (predicted_hits {predicted_hits})"
            );
        }
    }
}
