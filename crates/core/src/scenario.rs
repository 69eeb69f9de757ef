//! The hierarchical scenario policy (ROADMAP item 4, HiFuzz-style).
//!
//! A two-level controller over the instruction generator: the high level
//! is a UCB bandit ([`hfl_rl::UcbBandit`]) whose arms are semantic
//! [`Scenario`]s — the deep coverage structures the DUT instruments — and
//! whose reward is the marginal-coverage indicator of the cases generated
//! under each scenario. The low level is the shared LSTM policy, steered
//! per scenario through an additive opcode-logit bias table
//! ([`InstructionGenerator::sample_with_scenario_bias`]); the tables start
//! from hand-seeded instruction-class priors and are refined online by a
//! REINFORCE-style update on the same marginal-coverage signal.
//!
//! # Determinism contract
//!
//! Scenario selection consumes **no randomness** — the bandit is a pure
//! function of its `(counts, means)` state — and all sampling randomness
//! comes from the fuzzer's single seeded RNG, consumed in case order. The
//! complete controller state (RNG, generator, bandit counts/means, bias
//! tables, counters) travels through [`Fuzzer::save_state`] in the PR 3
//! snapshot container, so a resumed campaign replays the exact scenario
//! and case sequence of an uninterrupted one, at any worker-thread count.

use std::collections::VecDeque;
use std::io::{Read, Write};

use hfl_nn::persist::{
    corrupt, read_f32, read_f32_vec, read_f64, read_u64, read_u64_vec, read_usize, write_f32,
    write_f32_vec, write_f64, write_u64, write_u64_vec, write_usize, Codec, PersistError,
};
use hfl_riscv::{Instruction, Opcode};
use hfl_rl::UcbBandit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::baselines::{Feedback, Fuzzer, TestBody};
use crate::generator::{GeneratorConfig, InstructionGenerator};
use crate::obs::{Event, SinkHandle};
use crate::persist::{read_rng, write_rng};
use crate::tokens::head_sizes;

/// A semantic fuzzing scenario: one of the deep coverage structures the
/// DUT instruments (DESIGN.md's point taxonomy), used as a bandit arm by
/// the hierarchical policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// PMP reconfiguration window: CSR writes and privilege transitions
    /// racing in-flight memory accesses.
    PmpReconfig,
    /// Cache write-back stress: dense loads/stores/AMOs over few lines.
    CacheWriteback,
    /// FP NaN propagation and rounding-mode corners.
    FpNan,
    /// Long dependent ALU chains exercising forwarding/hazard logic.
    HazardChain,
    /// Two-hart interleave stress: SPMD cases under varied schedules.
    InterleaveStress,
}

impl Scenario {
    /// Every scenario, in arm-index order.
    pub const ALL: [Scenario; 5] = [
        Scenario::PmpReconfig,
        Scenario::CacheWriteback,
        Scenario::FpNan,
        Scenario::HazardChain,
        Scenario::InterleaveStress,
    ];

    /// Number of scenarios.
    pub const COUNT: usize = Scenario::ALL.len();

    /// The canonical (JSONL/CLI) name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Scenario::PmpReconfig => "pmp_reconfig",
            Scenario::CacheWriteback => "cache_writeback",
            Scenario::FpNan => "fp_nan",
            Scenario::HazardChain => "hazard_chain",
            Scenario::InterleaveStress => "interleave_stress",
        }
    }

    /// Parses a canonical name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|sc| sc.as_str() == s)
    }

    /// The bandit arm index.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The scenario at arm `index` (modulo [`Scenario::COUNT`]).
    #[must_use]
    pub fn from_index(index: usize) -> Scenario {
        Scenario::ALL[index % Scenario::COUNT]
    }

    /// Whether `op` belongs to this scenario's instruction class — the
    /// prior that seeds the scenario's opcode-bias table.
    #[must_use]
    pub fn matches(self, op: Opcode) -> bool {
        match self {
            Scenario::PmpReconfig => {
                op.mnemonic().starts_with("csr") || matches!(op, Opcode::Mret | Opcode::Sret)
            }
            Scenario::CacheWriteback => op.is_memory_access(),
            Scenario::FpNan => op.is_fp(),
            Scenario::HazardChain => {
                !op.is_memory_access() && !op.is_control_flow() && !op.is_fp() && !op.is_pseudo()
            }
            // The schedule matters more than the opcode mix here, but
            // shared-memory ops are what races are made of.
            Scenario::InterleaveStress => op.is_memory_access(),
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of the [`ScenarioFuzzer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Low-level generator hyper-parameters.
    pub generator: GeneratorConfig,
    /// Instructions per emitted case.
    pub case_len: usize,
    /// Per-head ε-exploration floor for the low-level policy.
    pub exploration_epsilon: f32,
    /// UCB exploration constant of the scenario controller.
    pub ucb_c: f64,
    /// Learning rate of the online bias refinement.
    pub bias_lr: f32,
    /// Prior logit bonus on a scenario's instruction class.
    pub bias_bonus: f32,
    /// Emit one [`Event::ScenarioStats`] table every this many feedbacks
    /// (deterministic: counted in cases, never wall clock).
    pub stats_every: u64,
    /// RNG seed for all sampling randomness.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The default configuration (paper-scale generator).
    #[must_use]
    pub fn paper_default() -> ScenarioConfig {
        ScenarioConfig {
            generator: GeneratorConfig::paper_default(),
            case_len: 24,
            exploration_epsilon: 0.02,
            ucb_c: std::f64::consts::SQRT_2,
            bias_lr: 0.05,
            bias_bonus: 2.0,
            stats_every: 32,
            seed: 0,
        }
    }

    /// A smaller, faster configuration for benches and tests.
    #[must_use]
    pub fn small() -> ScenarioConfig {
        ScenarioConfig {
            generator: GeneratorConfig::small(),
            ..ScenarioConfig::paper_default()
        }
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ScenarioConfig {
        self.seed = seed;
        self
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig::paper_default()
    }
}

/// A case awaiting feedback: the arm it was generated under and the
/// opcode-head choices its bias refinement needs.
#[derive(Debug, Clone)]
struct PendingCase {
    arm: usize,
    opcode_choices: Vec<usize>,
}

/// Seeds one scenario's opcode-bias table from its instruction-class
/// prior.
fn seeded_bias(scenario: Scenario, bonus: f32) -> Vec<f32> {
    let vocab = head_sizes()[0];
    let mut table = vec![0.0f32; vocab];
    for (i, slot) in table.iter_mut().enumerate() {
        if scenario.matches(Opcode::from_index(i)) {
            *slot = bonus;
        }
    }
    table
}

/// The hierarchical scenario policy as a [`Fuzzer`]: a UCB bandit over
/// [`Scenario`] arms on top of the LSTM instruction generator, with
/// per-scenario opcode-bias tables refined online.
///
/// # Examples
///
/// ```
/// use hfl::baselines::{Feedback, Fuzzer};
/// use hfl::scenario::{ScenarioConfig, ScenarioFuzzer};
///
/// let mut cfg = ScenarioConfig::small();
/// cfg.generator.hidden = 16;
/// let mut fuzzer = ScenarioFuzzer::new(cfg);
/// let case = fuzzer.next_case();
/// fuzzer.feedback(&case, Feedback::scalar(true, 0.3));
/// ```
#[derive(Debug)]
pub struct ScenarioFuzzer {
    cfg: ScenarioConfig,
    rng: StdRng,
    generator: InstructionGenerator,
    bandit: UcbBandit,
    /// Per-scenario additive opcode-logit bias tables, arm-indexed.
    biases: Vec<Vec<f32>>,
    pending: VecDeque<PendingCase>,
    /// Cases emitted (drives the deterministic stats cadence).
    cases: u64,
    /// Feedbacks applied.
    fed: u64,
    sink: SinkHandle,
}

impl ScenarioFuzzer {
    /// Creates the fuzzer with a freshly initialised generator and
    /// prior-seeded bias tables.
    #[must_use]
    pub fn new(cfg: ScenarioConfig) -> ScenarioFuzzer {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let generator = InstructionGenerator::new(cfg.generator, &mut rng);
        let biases = Scenario::ALL
            .iter()
            .map(|&s| seeded_bias(s, cfg.bias_bonus))
            .collect();
        ScenarioFuzzer {
            bandit: UcbBandit::new(Scenario::COUNT, cfg.ucb_c),
            cfg,
            rng,
            generator,
            biases,
            pending: VecDeque::new(),
            cases: 0,
            fed: 0,
            sink: SinkHandle::null(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The scenario controller (pulls and mean rewards per arm).
    #[must_use]
    pub fn bandit(&self) -> &UcbBandit {
        &self.bandit
    }

    /// The scenario the controller would pick next (pure; no state moves).
    #[must_use]
    pub fn peek_scenario(&self) -> Scenario {
        Scenario::from_index(self.bandit.select())
    }

    /// Emits the per-scenario marginal-coverage table (one
    /// [`Event::ScenarioStats`] row per arm; sink-gated pure observation).
    fn emit_stats(&self) {
        if !self.sink.enabled() {
            return;
        }
        for (arm, scenario) in Scenario::ALL.iter().enumerate() {
            self.sink.emit(&Event::ScenarioStats {
                case: self.cases,
                scenario: scenario.as_str().to_owned(),
                pulls: self.bandit.counts()[arm],
                mean_reward: self.bandit.means()[arm],
            });
        }
    }
}

impl Fuzzer for ScenarioFuzzer {
    fn name(&self) -> &'static str {
        "Scenario"
    }

    fn next_case(&mut self) -> TestBody {
        // High level: pick the arm. Consumes no randomness.
        let arm = self.bandit.select();
        let scenario = Scenario::from_index(arm);
        // Low level: sample a case under the arm's opcode bias. A fresh
        // session per case keeps the LSTM state out of the checkpoint.
        let mut session = self.generator.start_session();
        let mut body: Vec<Instruction> = Vec::with_capacity(self.cfg.case_len);
        let mut opcode_choices = Vec::with_capacity(self.cfg.case_len);
        for _ in 0..self.cfg.case_len.max(1) {
            let hidden = self.generator.advance(&mut session);
            let (corrected, action) = self.generator.sample_with_scenario_bias(
                &hidden,
                self.cfg.exploration_epsilon,
                Some(&self.biases[arm]),
                &mut self.rng,
            );
            self.generator.commit(&mut session, &corrected);
            opcode_choices.push(action.outputs.indices[0]);
            body.push(corrected.instruction);
        }
        self.pending.push_back(PendingCase {
            arm,
            opcode_choices,
        });
        self.cases += 1;
        if scenario == Scenario::InterleaveStress {
            // The schedule is part of this scenario's search space.
            let sched_seed = self.rng.gen();
            TestBody::Mhart { body, sched_seed }
        } else {
            TestBody::Asm(body)
        }
    }

    fn feedback(&mut self, _body: &TestBody, feedback: Feedback) {
        let Some(pending) = self.pending.pop_front() else {
            return;
        };
        self.fed += 1;
        // Marginal-coverage reward: did this case grow the cumulative set?
        let reward = f64::from(u8::from(feedback.gained_coverage));
        // Centered REINFORCE-style refinement of the arm's opcode bias:
        // raise the logits of the opcodes this case chose in proportion to
        // how much better it did than the arm's running mean, and spread
        // the opposite mass uniformly so the table stays centred instead
        // of drifting. The baseline is read *before* the bandit update, so
        // the case's own reward never cancels part of its signal.
        let advantage = (reward - self.bandit.means()[pending.arm]) as f32;
        self.bandit.update(pending.arm, reward);
        if advantage != 0.0 {
            let table = &mut self.biases[pending.arm];
            let spread = self.cfg.bias_lr * advantage / table.len() as f32;
            for slot in table.iter_mut() {
                *slot -= spread;
            }
            for &choice in &pending.opcode_choices {
                table[choice] += self.cfg.bias_lr * advantage;
            }
        }
        if self.cfg.stats_every > 0 && self.fed.is_multiple_of(self.cfg.stats_every) {
            self.emit_stats();
        }
    }

    fn wants_case_bits(&self) -> bool {
        false
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    fn save_state(&self, mut w: &mut dyn Write) -> Result<(), PersistError> {
        if !self.pending.is_empty() {
            return Err(PersistError::Unsupported(
                "scenario checkpoint requires a round boundary",
            ));
        }
        let w = &mut w;
        write_rng(w, &self.rng)?;
        self.generator.save(w)?;
        write_usize(w, self.cfg.case_len)?;
        write_f32(w, self.cfg.exploration_epsilon)?;
        write_f32(w, self.cfg.bias_lr)?;
        write_f32(w, self.cfg.bias_bonus)?;
        write_u64(w, self.cfg.stats_every)?;
        write_u64(w, self.cfg.seed)?;
        // The bandit travels as raw (counts, means, c) — the pure state
        // its selection is a function of.
        write_f64(w, self.bandit.exploration())?;
        write_u64_vec(w, self.bandit.counts())?;
        let mean_bits: Vec<u64> = self.bandit.means().iter().map(|m| m.to_bits()).collect();
        write_u64_vec(w, &mean_bits)?;
        write_usize(w, self.biases.len())?;
        for table in &self.biases {
            write_f32_vec(w, table)?;
        }
        write_u64(w, self.cases)?;
        write_u64(w, self.fed)
    }

    fn load_state(&mut self, mut r: &mut dyn Read) -> Result<(), PersistError> {
        let r = &mut r;
        self.rng = read_rng(r)?;
        self.generator = InstructionGenerator::load(r)?;
        self.cfg.generator = *self.generator.config();
        self.cfg.case_len = read_usize(r, 1 << 20, "case length")?;
        self.cfg.exploration_epsilon = read_f32(r)?;
        self.cfg.bias_lr = read_f32(r)?;
        self.cfg.bias_bonus = read_f32(r)?;
        self.cfg.stats_every = read_u64(r)?;
        self.cfg.seed = read_u64(r)?;
        self.cfg.ucb_c = read_f64(r)?;
        let counts = read_u64_vec(r)?;
        let mean_bits = read_u64_vec(r)?;
        if counts.len() != Scenario::COUNT || mean_bits.len() != Scenario::COUNT {
            return Err(corrupt("bandit arm count mismatch"));
        }
        let means = mean_bits.into_iter().map(f64::from_bits).collect();
        self.bandit = UcbBandit::from_parts(counts, means, self.cfg.ucb_c);
        let n = read_usize(r, 64, "bias table count")?;
        if n != Scenario::COUNT {
            return Err(corrupt("bias table count mismatch"));
        }
        let vocab = head_sizes()[0];
        let mut biases = Vec::with_capacity(n);
        for _ in 0..n {
            let table = read_f32_vec(r)?;
            if table.len() != vocab {
                return Err(corrupt("bias table width mismatch"));
            }
            biases.push(table);
        }
        self.biases = biases;
        self.cases = read_u64(r)?;
        self.fed = read_u64(r)?;
        self.pending.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::RingSink;
    use std::sync::Arc;

    fn tiny() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::small();
        cfg.generator.hidden = 16;
        cfg.case_len = 6;
        cfg.stats_every = 4;
        cfg
    }

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::parse(s.as_str()), Some(s));
            assert_eq!(Scenario::from_index(s.index()), s);
            assert_eq!(s.to_string(), s.as_str());
        }
        assert_eq!(Scenario::parse("nonsense"), None);
    }

    #[test]
    fn class_priors_select_disjoint_enough_opcode_sets() {
        // Every scenario's prior must be non-empty, and the FP/memory
        // classes must actually differ.
        for s in Scenario::ALL {
            let hits = Opcode::ALL.iter().filter(|&&o| s.matches(o)).count();
            assert!(hits > 0, "{s} matches no opcode");
        }
        assert!(Scenario::FpNan.matches(Opcode::FaddD));
        assert!(!Scenario::CacheWriteback.matches(Opcode::FaddD));
        assert!(Scenario::CacheWriteback.matches(Opcode::Lw));
        assert!(Scenario::PmpReconfig.matches(Opcode::Csrrw));
        assert!(Scenario::HazardChain.matches(Opcode::Add));
    }

    #[test]
    fn unpulled_arms_are_probed_first_and_interleave_emits_mhart() {
        let mut f = ScenarioFuzzer::new(tiny());
        let mut kinds = Vec::new();
        for expected in 0..Scenario::COUNT {
            assert_eq!(f.peek_scenario(), Scenario::from_index(expected));
            let body = f.next_case();
            kinds.push(matches!(body, TestBody::Mhart { .. }));
            f.feedback(&body, Feedback::scalar(false, 0.1));
        }
        // Arm order is the declaration order; only the last arm
        // (InterleaveStress) emits multi-hart cases.
        assert_eq!(kinds, vec![false, false, false, false, true]);
    }

    #[test]
    fn controller_exploits_the_rewarding_scenario() {
        let mut f = ScenarioFuzzer::new(tiny());
        let paying = Scenario::FpNan.index();
        for _ in 0..60 {
            let arm = f.bandit.select();
            let body = f.next_case();
            f.feedback(&body, Feedback::scalar(arm == paying, 0.2));
        }
        let counts = f.bandit.counts();
        let max_arm = (0..Scenario::COUNT).max_by_key(|&a| counts[a]).unwrap();
        assert_eq!(max_arm, paying, "pulls: {counts:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut f = ScenarioFuzzer::new(tiny().with_seed(42));
            let mut cases = Vec::new();
            for i in 0..10 {
                let b = f.next_case();
                cases.push(b.clone());
                f.feedback(&b, Feedback::scalar(i % 3 == 0, 0.2));
            }
            cases
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn resumes_bit_identically_and_rejects_mid_round() {
        let mut live = ScenarioFuzzer::new(tiny().with_seed(7));
        for i in 0..8 {
            let b = live.next_case();
            live.feedback(&b, Feedback::scalar(i % 2 == 0, 0.3));
        }
        let mut blob = Vec::new();
        live.save_state(&mut (&mut blob as &mut dyn Write)).unwrap();
        let mut resumed = ScenarioFuzzer::new(tiny().with_seed(999));
        let mut cursor: &[u8] = &blob;
        resumed.load_state(&mut cursor).unwrap();
        assert_eq!(resumed.bandit, live.bandit);
        for i in 0..6 {
            assert_eq!(live.peek_scenario(), resumed.peek_scenario());
            let (a, b) = (live.next_case(), resumed.next_case());
            assert_eq!(a, b);
            live.feedback(&a, Feedback::scalar(i == 2, 0.2));
            resumed.feedback(&b, Feedback::scalar(i == 2, 0.2));
        }
        // Mid-round checkpoints are rejected like every learning fuzzer.
        let _ = live.next_case();
        let mut blob = Vec::new();
        assert!(matches!(
            live.save_state(&mut (&mut blob as &mut dyn Write)),
            Err(PersistError::Unsupported(_))
        ));
    }

    #[test]
    fn stats_cadence_is_case_counted_and_covers_every_scenario() {
        let mut f = ScenarioFuzzer::new(tiny()); // stats_every = 4
        let ring = Arc::new(RingSink::new(256));
        f.attach_sink(SinkHandle::new(ring.clone()));
        for _ in 0..8 {
            let b = f.next_case();
            f.feedback(&b, Feedback::scalar(true, 0.5));
        }
        let rows: Vec<(u64, String)> = ring
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::ScenarioStats { case, scenario, .. } => Some((*case, scenario.clone())),
                _ => None,
            })
            .collect();
        // Two tables (after feedbacks 4 and 8), each with one row per arm.
        assert_eq!(rows.len(), 2 * Scenario::COUNT, "{rows:?}");
        for s in Scenario::ALL {
            assert!(rows.iter().any(|(_, name)| name == s.as_str()), "{s}");
        }
        // The sink is pure observation: an unobserved twin stays
        // bit-identical.
        let mut twin = ScenarioFuzzer::new(tiny());
        for _ in 0..8 {
            let b = twin.next_case();
            twin.feedback(&b, Feedback::scalar(true, 0.5));
        }
        assert_eq!(twin.next_case(), f.next_case());
    }

    #[test]
    fn bias_refinement_moves_only_the_fed_arm() {
        let mut f = ScenarioFuzzer::new(tiny());
        let before = f.biases.clone();
        let b = f.next_case(); // arm 0 (first unpulled)
        f.feedback(&b, Feedback::scalar(true, 0.9));
        assert_ne!(f.biases[0], before[0], "rewarded arm must move");
        for (arm, table) in before.iter().enumerate().skip(1) {
            assert_eq!(&f.biases[arm], table, "arm {arm} must not move");
        }
    }
}
