//! Re-implementations of the baseline fuzzers HFL is benchmarked against
//! (§VI): DifuzzRTL, TheHuzz, Cascade and ChatFuzz.
//!
//! Each baseline reproduces the *generation strategy* of its namesake —
//! coverage-guided random mutation, binary-level mutation, feedback-free
//! long-program construction, and binary-level RL respectively — which is
//! what determines the saturation behaviour Fig. 4 and §VI compare.

use std::io::{Read, Write};

use hfl_nn::ops::{sample_categorical, softmax};
use hfl_nn::persist::{
    read_f32, read_f32_array, read_u32, read_u64, read_u64_vec, read_usize, write_f32,
    write_f32_array, write_u32, write_u64, write_u64_vec, write_usize, PersistError,
};
use hfl_riscv::{Instruction, Opcode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::correction::{correct, HeadOutputs};
use crate::persist::{read_program, read_rng, write_program, write_rng};
use crate::tokens::head_sizes;

/// A generated test-case body: assembly-level or raw words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestBody {
    /// Assembly-level instructions (DifuzzRTL/Cascade-style generators).
    Asm(Vec<Instruction>),
    /// Raw instruction words (TheHuzz/ChatFuzz binary-level generators).
    Words(Vec<u32>),
    /// A multi-hart SPMD case: one assembly body run on every hart of the
    /// two-hart system DUT, under the interleaving selected by
    /// `sched_seed`. The seed is part of the case identity (and thus of
    /// the derived `PartialEq`): two cases with the same body but
    /// different seeds exercise different schedules.
    Mhart {
        /// The SPMD body (every hart runs it; `x30` carries the hart id).
        body: Vec<Instruction>,
        /// Interleaving seed for the system scheduler.
        sched_seed: u64,
    },
}

impl TestBody {
    /// Number of body entries.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            TestBody::Asm(v) => v.len(),
            TestBody::Words(v) => v.len(),
            TestBody::Mhart { body, .. } => body.len(),
        }
    }

    /// Whether the body is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The interleaving seed, for multi-hart cases.
    #[must_use]
    pub fn sched_seed(&self) -> Option<u64> {
        match self {
            TestBody::Mhart { sched_seed, .. } => Some(*sched_seed),
            _ => None,
        }
    }
}

/// Coverage feedback handed back to a fuzzer after each case.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Feedback {
    /// Whether the case increased cumulative coverage.
    pub gained_coverage: bool,
    /// Coverage fraction (hit points / total points) of this case.
    pub coverage: f32,
    /// Per-point 0/1 coverage labels of this case, when the harness
    /// provides them (HFL trains its coverage predictor on these; the
    /// baseline fuzzers ignore them).
    pub case_bits: Option<std::sync::Arc<Vec<u8>>>,
    /// Whether the case ran to completion (false = the step budget was
    /// exhausted, e.g. an accidental infinite loop). HFL's incremental
    /// test constructor drops non-terminating extensions (§IV-A's scheme
    /// requires every test case to be executable to completion).
    pub terminated: bool,
}

impl Feedback {
    /// Feedback carrying only the scalar signals (terminated = true).
    #[must_use]
    pub fn scalar(gained_coverage: bool, coverage: f32) -> Feedback {
        Feedback {
            gained_coverage,
            coverage,
            case_bits: None,
            terminated: true,
        }
    }
}

/// A composition wrapper received a [`TestBody`] variant it cannot wrap
/// without losing information (e.g. re-wrapping a [`TestBody::Mhart`]
/// case would silently drop its interleaving seed).
///
/// Returned by [`Fuzzer::try_next_case`]/[`Fuzzer::try_next_round`]; the
/// campaign runner surfaces it as a typed run error instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposeError {
    /// The wrapper that refused the case.
    pub wrapper: &'static str,
    /// The inner fuzzer whose output could not be composed.
    pub inner: &'static str,
    /// What would have been lost.
    pub detail: String,
}

impl ComposeError {
    /// Creates a composition error. `wrapper` is the layer that refused
    /// (a composing fuzzer, or the round engine itself), `inner` the
    /// fuzzer whose output could not be used, `detail` what would have
    /// been lost or violated.
    pub fn new(
        wrapper: &'static str,
        inner: &'static str,
        detail: impl Into<String>,
    ) -> ComposeError {
        ComposeError {
            wrapper,
            inner,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cannot compose a case from {}: {}",
            self.wrapper, self.inner, self.detail
        )
    }
}

impl std::error::Error for ComposeError {}

/// A baseline fuzzing strategy.
pub trait Fuzzer {
    /// The fuzzer's display name (matching the paper's tables).
    fn name(&self) -> &'static str;

    /// Produces the next test case.
    fn next_case(&mut self) -> TestBody;

    /// Produces up to `n` cases for one execution round (the campaign
    /// runner evaluates a whole round on the pool before any feedback
    /// arrives, in generation order). The default simply draws `n`
    /// consecutive cases — correct for every generator whose sampling does
    /// not depend on the pending feedback. Implementations may return
    /// fewer than `n` cases (never zero) when a generation boundary, such
    /// as HFL's episode end, falls inside the round.
    fn next_round(&mut self, n: usize) -> Vec<TestBody> {
        (0..n.max(1)).map(|_| self.next_case()).collect()
    }

    /// Fallible form of [`Fuzzer::next_case`] for composition wrappers:
    /// where `next_case` must degrade leniently (pass an unwrappable case
    /// through unchanged), this surfaces the problem as a typed
    /// [`ComposeError`] instead. Plain generators never fail.
    ///
    /// # Errors
    /// [`ComposeError`] when a wrapper receives a [`TestBody`] variant it
    /// cannot compose without dropping information.
    fn try_next_case(&mut self) -> Result<TestBody, ComposeError> {
        Ok(self.next_case())
    }

    /// Fallible form of [`Fuzzer::next_round`]. The default routes through
    /// [`Fuzzer::next_round`] — not `n` repeated [`Fuzzer::try_next_case`]
    /// calls — so fuzzers with bespoke round semantics (HFL's episode
    /// chaining) keep them on the fallible path.
    ///
    /// # Errors
    /// [`ComposeError`] when a wrapper receives a [`TestBody`] variant it
    /// cannot compose without dropping information.
    fn try_next_round(&mut self, n: usize) -> Result<Vec<TestBody>, ComposeError> {
        Ok(self.next_round(n))
    }

    /// Receives coverage feedback for the oldest case that has not had
    /// feedback yet (the campaign runner applies feedback in generation
    /// order). Feedback-free fuzzers (Cascade) ignore it.
    fn feedback(&mut self, body: &TestBody, feedback: Feedback);

    /// Whether this fuzzer reads [`Feedback::case_bits`]. The round engine
    /// builds the per-point labels only when it does, so fuzzers that
    /// ignore them pay nothing for them. The default is `true`, which keeps
    /// a wrapper that does not forward this call feeding its inner fuzzer.
    fn wants_case_bits(&self) -> bool {
        true
    }

    /// Gives the fuzzer a telemetry sink for learner-side events
    /// ([`crate::obs::Event::PpoUpdate`], [`crate::obs::Event::PredictorEval`]).
    /// The campaign runner calls this once before the first round. The
    /// default ignores the sink — only learning fuzzers emit anything.
    fn attach_sink(&mut self, _sink: crate::obs::SinkHandle) {}

    /// Serialises the fuzzer's complete state (RNG position, corpus,
    /// learned parameters) so a resumed campaign continues bit-identically.
    ///
    /// Only valid at a round boundary: every emitted case must already
    /// have received its feedback. The default reports
    /// [`PersistError::Unsupported`].
    ///
    /// # Errors
    /// [`PersistError::Unsupported`] when the fuzzer cannot checkpoint or
    /// is mid-round; otherwise I/O errors from the writer.
    fn save_state(&self, w: &mut dyn Write) -> Result<(), PersistError> {
        let _ = w;
        Err(PersistError::Unsupported(
            "fuzzer has no checkpoint support",
        ))
    }

    /// Restores state written by [`Fuzzer::save_state`] into a fuzzer of
    /// the same type (construction configuration is overwritten).
    ///
    /// # Errors
    /// [`PersistError::Unsupported`] when the fuzzer cannot checkpoint;
    /// a precise [`PersistError`] on malformed input.
    fn load_state(&mut self, r: &mut dyn Read) -> Result<(), PersistError> {
        let _ = r;
        Err(PersistError::Unsupported(
            "fuzzer has no checkpoint support",
        ))
    }
}

/// A boxed fuzzer is a fuzzer, so a [`crate::spec::FuzzerKind::build`]
/// result composes like a concrete one (e.g. under [`InterleaveFuzzer`]).
impl<F: Fuzzer + ?Sized> Fuzzer for Box<F> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_case(&mut self) -> TestBody {
        (**self).next_case()
    }

    fn next_round(&mut self, n: usize) -> Vec<TestBody> {
        (**self).next_round(n)
    }

    fn try_next_case(&mut self) -> Result<TestBody, ComposeError> {
        (**self).try_next_case()
    }

    fn try_next_round(&mut self, n: usize) -> Result<Vec<TestBody>, ComposeError> {
        (**self).try_next_round(n)
    }

    fn feedback(&mut self, body: &TestBody, feedback: Feedback) {
        (**self).feedback(body, feedback);
    }

    fn wants_case_bits(&self) -> bool {
        (**self).wants_case_bits()
    }

    fn attach_sink(&mut self, sink: crate::obs::SinkHandle) {
        (**self).attach_sink(sink);
    }

    fn save_state(&self, w: &mut dyn Write) -> Result<(), PersistError> {
        (**self).save_state(w)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> Result<(), PersistError> {
        (**self).load_state(r)
    }
}

/// Draws one uniformly random (but valid) instruction by sampling raw head
/// outputs and funnelling them through the correction module.
pub fn random_instruction(rng: &mut StdRng) -> Instruction {
    let sizes = head_sizes();
    let mut indices = [0usize; 7];
    for (i, s) in sizes.iter().enumerate() {
        indices[i] = rng.gen_range(0..*s);
    }
    correct(&HeadOutputs { indices }).instruction
}

fn random_body(rng: &mut StdRng, len: usize) -> Vec<Instruction> {
    (0..len).map(|_| random_instruction(rng)).collect()
}

/// **DifuzzRTL-like**: coverage-guided random generation with corpus
/// mutation. Cases that grow register/control coverage seed later
/// mutations.
#[derive(Debug)]
pub struct DifuzzRtlFuzzer {
    rng: StdRng,
    corpus: Vec<Vec<Instruction>>,
    case_len: usize,
    max_corpus: usize,
}

impl DifuzzRtlFuzzer {
    /// Creates the fuzzer with a seed and a target case length.
    #[must_use]
    pub fn new(seed: u64, case_len: usize) -> DifuzzRtlFuzzer {
        DifuzzRtlFuzzer {
            rng: StdRng::seed_from_u64(seed),
            corpus: Vec::new(),
            case_len,
            max_corpus: 64,
        }
    }

    fn mutate(&mut self, seed_case: &[Instruction]) -> Vec<Instruction> {
        let mut out = seed_case.to_vec();
        let edits = self.rng.gen_range(1..=3);
        for _ in 0..edits {
            match self.rng.gen_range(0..3u8) {
                0 if !out.is_empty() => {
                    // Replace an instruction.
                    let i = self.rng.gen_range(0..out.len());
                    out[i] = random_instruction(&mut self.rng);
                }
                1 => {
                    // Insert an instruction.
                    let i = self.rng.gen_range(0..=out.len());
                    out.insert(i, random_instruction(&mut self.rng));
                }
                _ if out.len() > 1 => {
                    // Delete an instruction.
                    let i = self.rng.gen_range(0..out.len());
                    out.remove(i);
                }
                _ => {}
            }
        }
        out.truncate(self.case_len * 2);
        out
    }
}

impl Fuzzer for DifuzzRtlFuzzer {
    fn name(&self) -> &'static str {
        "DifuzzRTL"
    }

    fn next_case(&mut self) -> TestBody {
        if self.corpus.is_empty() || self.rng.gen_bool(0.5) {
            let len = self.rng.gen_range(self.case_len / 2..=self.case_len);
            TestBody::Asm(random_body(&mut self.rng, len))
        } else {
            let idx = self.rng.gen_range(0..self.corpus.len());
            let seed_case = self.corpus[idx].clone();
            TestBody::Asm(self.mutate(&seed_case))
        }
    }

    fn feedback(&mut self, body: &TestBody, feedback: Feedback) {
        if feedback.gained_coverage {
            if let TestBody::Asm(instructions) = body {
                if self.corpus.len() >= self.max_corpus {
                    self.corpus.remove(0);
                }
                self.corpus.push(instructions.clone());
            }
        }
    }

    fn wants_case_bits(&self) -> bool {
        false
    }

    fn save_state(&self, mut w: &mut dyn Write) -> Result<(), PersistError> {
        let w = &mut w;
        write_rng(w, &self.rng)?;
        write_usize(w, self.case_len)?;
        write_usize(w, self.max_corpus)?;
        write_usize(w, self.corpus.len())?;
        for body in &self.corpus {
            write_program(w, body)?;
        }
        Ok(())
    }

    fn load_state(&mut self, mut r: &mut dyn Read) -> Result<(), PersistError> {
        let r = &mut r;
        self.rng = read_rng(r)?;
        self.case_len = read_usize(r, 1 << 20, "case length")?;
        self.max_corpus = read_usize(r, 1 << 20, "corpus capacity")?;
        let n = read_usize(r, 1 << 16, "corpus size")?;
        self.corpus = (0..n).map(|_| read_program(r)).collect::<Result<_, _>>()?;
        Ok(())
    }
}

/// **TheHuzz-like**: binary-level mutation of encoded seeds with
/// coverage-guided seed scheduling (the paper's §III description: opcode
/// and operand mutation over instruction binaries).
#[derive(Debug)]
pub struct TheHuzzFuzzer {
    rng: StdRng,
    corpus: Vec<Vec<u32>>,
    case_len: usize,
    max_corpus: usize,
}

impl TheHuzzFuzzer {
    /// Creates the fuzzer with a seed and a target case length.
    #[must_use]
    pub fn new(seed: u64, case_len: usize) -> TheHuzzFuzzer {
        TheHuzzFuzzer {
            rng: StdRng::seed_from_u64(seed),
            corpus: Vec::new(),
            case_len,
            max_corpus: 64,
        }
    }

    fn fresh(&mut self) -> Vec<u32> {
        let len = self.rng.gen_range(self.case_len / 2..=self.case_len);
        (0..len)
            .map(|_| random_instruction(&mut self.rng).encode())
            .collect()
    }
}

impl Fuzzer for TheHuzzFuzzer {
    fn name(&self) -> &'static str {
        "TheHuzz"
    }

    fn next_case(&mut self) -> TestBody {
        if self.corpus.is_empty() || self.rng.gen_bool(0.4) {
            return TestBody::Words(self.fresh());
        }
        let idx = self.rng.gen_range(0..self.corpus.len());
        let mut words = self.corpus[idx].clone();
        // AFL-style bit flips on a few words.
        let flips = self.rng.gen_range(1..=4);
        for _ in 0..flips {
            if words.is_empty() {
                break;
            }
            let w = self.rng.gen_range(0..words.len());
            let bit = self.rng.gen_range(0..32u32);
            words[w] ^= 1 << bit;
        }
        TestBody::Words(words)
    }

    fn feedback(&mut self, body: &TestBody, feedback: Feedback) {
        if feedback.gained_coverage {
            if let TestBody::Words(words) = body {
                if self.corpus.len() >= self.max_corpus {
                    self.corpus.remove(0);
                }
                self.corpus.push(words.clone());
            }
        }
    }

    fn wants_case_bits(&self) -> bool {
        false
    }

    fn save_state(&self, mut w: &mut dyn Write) -> Result<(), PersistError> {
        let w = &mut w;
        write_rng(w, &self.rng)?;
        write_usize(w, self.case_len)?;
        write_usize(w, self.max_corpus)?;
        write_usize(w, self.corpus.len())?;
        for words in &self.corpus {
            write_usize(w, words.len())?;
            for word in words {
                write_u32(w, *word)?;
            }
        }
        Ok(())
    }

    fn load_state(&mut self, mut r: &mut dyn Read) -> Result<(), PersistError> {
        let r = &mut r;
        self.rng = read_rng(r)?;
        self.case_len = read_usize(r, 1 << 20, "case length")?;
        self.max_corpus = read_usize(r, 1 << 20, "corpus capacity")?;
        let n = read_usize(r, 1 << 16, "corpus size")?;
        let mut corpus = Vec::with_capacity(n);
        for _ in 0..n {
            let len = read_usize(r, 1 << 20, "seed length")?;
            let mut words = Vec::with_capacity(len);
            for _ in 0..len {
                words.push(read_u32(r)?);
            }
            corpus.push(words);
        }
        self.corpus = corpus;
        Ok(())
    }
}

/// **Cascade-like**: long, fully-valid programs with flattened control
/// flow and no feedback loop (§III: "conducts the fuzzing process at the
/// program level without relying on mutation strategies for guidance").
#[derive(Debug)]
pub struct CascadeFuzzer {
    rng: StdRng,
    program_len: usize,
}

impl CascadeFuzzer {
    /// Creates the fuzzer; Cascade's programs are long by design.
    #[must_use]
    pub fn new(seed: u64, program_len: usize) -> CascadeFuzzer {
        CascadeFuzzer {
            rng: StdRng::seed_from_u64(seed),
            program_len,
        }
    }
}

impl Fuzzer for CascadeFuzzer {
    fn name(&self) -> &'static str {
        "Cascade"
    }

    fn next_case(&mut self) -> TestBody {
        let mut body = Vec::with_capacity(self.program_len);
        while body.len() < self.program_len {
            let inst = random_instruction(&mut self.rng);
            // Flatten control flow: drop backward targets and long jumps so
            // execution sweeps the whole program once.
            if inst.opcode.is_control_flow() {
                if self.rng.gen_bool(0.85) {
                    continue; // mostly data-flow instructions
                }
                if matches!(
                    inst.opcode,
                    Opcode::Jalr
                        | Opcode::Jr
                        | Opcode::Ret
                        | Opcode::Mret
                        | Opcode::Sret
                        | Opcode::Ecall
                        | Opcode::Ebreak
                ) {
                    continue;
                }
                let mut fwd = inst;
                fwd.imm = i64::from(self.rng.gen_range(1..=4i32)) * 4;
                body.push(fwd);
                continue;
            }
            body.push(inst);
        }
        TestBody::Asm(body)
    }

    fn feedback(&mut self, _body: &TestBody, _feedback: Feedback) {
        // Cascade is feedback-free by design.
    }

    fn wants_case_bits(&self) -> bool {
        false
    }

    fn save_state(&self, mut w: &mut dyn Write) -> Result<(), PersistError> {
        let w = &mut w;
        write_rng(w, &self.rng)?;
        write_usize(w, self.program_len)
    }

    fn load_state(&mut self, mut r: &mut dyn Read) -> Result<(), PersistError> {
        let r = &mut r;
        self.rng = read_rng(r)?;
        self.program_len = read_usize(r, 1 << 20, "program length")?;
        Ok(())
    }
}

/// **ChatFuzz-like**: reinforcement learning over raw *bytes* — positional
/// byte-preference tables updated by REINFORCE. The binary representation
/// carries weaker inter-instruction semantics than assembly, the
/// limitation §III attributes to ChatFuzz.
#[derive(Debug)]
pub struct ChatFuzzFuzzer {
    rng: StdRng,
    /// Preference logits for each of the four byte positions in a word.
    prefs: [[f32; 256]; 4],
    case_len: usize,
    baseline: f32,
    /// REINFORCE learning rate (public so experiments can anneal it).
    pub lr: f32,
    /// Byte choices of emitted cases awaiting feedback, oldest first
    /// (batched rounds defer feedback by up to a whole round).
    pending_choices: std::collections::VecDeque<Vec<[usize; 4]>>,
}

impl ChatFuzzFuzzer {
    /// Creates the fuzzer with a seed and a target case length.
    #[must_use]
    pub fn new(seed: u64, case_len: usize) -> ChatFuzzFuzzer {
        ChatFuzzFuzzer {
            rng: StdRng::seed_from_u64(seed),
            prefs: [[0.0; 256]; 4],
            case_len,
            baseline: 0.0,
            lr: 0.05,
            pending_choices: std::collections::VecDeque::new(),
        }
    }
}

impl Fuzzer for ChatFuzzFuzzer {
    fn name(&self) -> &'static str {
        "ChatFuzz"
    }

    fn next_case(&mut self) -> TestBody {
        let mut choices = Vec::with_capacity(self.case_len);
        let mut words = Vec::with_capacity(self.case_len);
        for _ in 0..self.case_len {
            let mut choice = [0usize; 4];
            let mut word = 0u32;
            for (pos, c) in choice.iter_mut().enumerate() {
                let probs = softmax(&self.prefs[pos]);
                *c = sample_categorical(&probs, &mut self.rng);
                word |= (*c as u32) << (8 * pos);
            }
            choices.push(choice);
            words.push(word);
        }
        self.pending_choices.push_back(choices);
        TestBody::Words(words)
    }

    fn feedback(&mut self, _body: &TestBody, feedback: Feedback) {
        // REINFORCE with a running baseline, applied to the oldest case
        // still awaiting its reward.
        let Some(choices) = self.pending_choices.pop_front() else {
            return;
        };
        let advantage = feedback.coverage - self.baseline;
        self.baseline = 0.95 * self.baseline + 0.05 * feedback.coverage;
        for choice in &choices {
            for (pos, &byte) in choice.iter().enumerate() {
                let probs = softmax(&self.prefs[pos]);
                for (b, p) in probs.iter().enumerate() {
                    let indicator = f32::from(u8::from(b == byte));
                    self.prefs[pos][b] += self.lr * advantage * (indicator - p);
                }
            }
        }
    }

    fn wants_case_bits(&self) -> bool {
        false
    }

    fn save_state(&self, mut w: &mut dyn Write) -> Result<(), PersistError> {
        let w = &mut w;
        if !self.pending_choices.is_empty() {
            return Err(PersistError::Unsupported(
                "ChatFuzz checkpoint requires a round boundary",
            ));
        }
        write_rng(w, &self.rng)?;
        write_usize(w, self.case_len)?;
        write_f32(w, self.baseline)?;
        write_f32(w, self.lr)?;
        for table in &self.prefs {
            write_f32_array(w, table)?;
        }
        Ok(())
    }

    fn load_state(&mut self, mut r: &mut dyn Read) -> Result<(), PersistError> {
        let r = &mut r;
        self.rng = read_rng(r)?;
        self.case_len = read_usize(r, 1 << 20, "case length")?;
        self.baseline = read_f32(r)?;
        self.lr = read_f32(r)?;
        for table in &mut self.prefs {
            let values = read_f32_array(r, 256)?;
            table.copy_from_slice(&values);
        }
        self.pending_choices.clear();
        Ok(())
    }
}

/// Lifts any single-hart fuzzer into the two-hart system configuration:
/// each generated body is wrapped into a [`TestBody::Mhart`] case with an
/// interleaving seed, making the schedule part of the fuzzer's search
/// space. Seeds that produced coverage gains are pooled and re-drawn with
/// small mutations — the concurrency analogue of corpus scheduling, since
/// a near-miss interleaving is likelier to realise a race than a fresh
/// uniform draw.
#[derive(Debug)]
pub struct InterleaveFuzzer<F> {
    inner: F,
    rng: StdRng,
    /// Interleaving seeds whose cases grew cumulative coverage.
    seed_pool: Vec<u64>,
    max_pool: usize,
    /// Inner bodies of emitted cases awaiting feedback, oldest first (the
    /// campaign applies feedback in generation order; the inner fuzzer
    /// must see its *own* representation, not the wrapped one).
    pending: std::collections::VecDeque<TestBody>,
}

impl<F: Fuzzer> InterleaveFuzzer<F> {
    /// Wraps `inner`, drawing interleaving seeds from `seed`.
    #[must_use]
    pub fn new(seed: u64, inner: F) -> InterleaveFuzzer<F> {
        InterleaveFuzzer {
            inner,
            rng: StdRng::seed_from_u64(seed),
            seed_pool: Vec::new(),
            max_pool: 64,
            pending: std::collections::VecDeque::new(),
        }
    }

    /// Seeds currently pooled as interesting.
    #[must_use]
    pub fn pooled_seeds(&self) -> &[u64] {
        &self.seed_pool
    }

    fn draw_seed(&mut self) -> u64 {
        if !self.seed_pool.is_empty() && self.rng.gen_bool(0.5) {
            // Mutate a pooled seed: nearby seeds permute few tie-breaks,
            // so the schedule stays close to the one that paid off.
            let base = self.seed_pool[self.rng.gen_range(0..self.seed_pool.len())];
            base ^ (1u64 << self.rng.gen_range(0..8u32))
        } else {
            self.rng.gen()
        }
    }

    /// Wraps one single-hart inner body into a scheduled case, queueing
    /// the inner representation for feedback forwarding.
    fn wrap(&mut self, inner_body: TestBody) -> TestBody {
        let sched_seed = self.draw_seed();
        let body = crate::campaign::decodable_instructions(&inner_body);
        self.pending.push_back(inner_body);
        TestBody::Mhart { body, sched_seed }
    }

    /// Strict composition: an inner body that is already multi-hart cannot
    /// be re-wrapped — its interleaving seed is part of the case identity
    /// and re-seeding would silently discard the schedule the inner fuzzer
    /// chose — so it is reported as a [`ComposeError`].
    fn compose_strict(&mut self, inner_body: TestBody) -> Result<TestBody, ComposeError> {
        if matches!(inner_body, TestBody::Mhart { .. }) {
            return Err(ComposeError::new(
                "Interleave",
                self.inner.name(),
                "re-wrapping a multi-hart case would drop its interleaving seed",
            ));
        }
        Ok(self.wrap(inner_body))
    }
}

impl<F: Fuzzer> Fuzzer for InterleaveFuzzer<F> {
    fn name(&self) -> &'static str {
        "Interleave"
    }

    fn next_case(&mut self) -> TestBody {
        let inner_body = self.inner.next_case();
        if matches!(inner_body, TestBody::Mhart { .. }) {
            // Lenient path: the case already carries its own interleaving
            // seed, so pass it through unchanged rather than re-wrapping
            // (which would silently replace the schedule).
            self.pending.push_back(inner_body.clone());
            return inner_body;
        }
        self.wrap(inner_body)
    }

    fn try_next_case(&mut self) -> Result<TestBody, ComposeError> {
        let inner_body = self.inner.try_next_case()?;
        self.compose_strict(inner_body)
    }

    fn try_next_round(&mut self, n: usize) -> Result<Vec<TestBody>, ComposeError> {
        // Route the round through the inner fuzzer so its round semantics
        // (episode boundaries, batch shapes) survive the wrapping.
        let round = self.inner.try_next_round(n)?;
        round
            .into_iter()
            .map(|body| self.compose_strict(body))
            .collect()
    }

    fn feedback(&mut self, body: &TestBody, feedback: Feedback) {
        if feedback.gained_coverage {
            if let Some(seed) = body.sched_seed() {
                if self.seed_pool.len() >= self.max_pool {
                    self.seed_pool.remove(0);
                }
                self.seed_pool.push(seed);
            }
        }
        if let Some(inner_body) = self.pending.pop_front() {
            self.inner.feedback(&inner_body, feedback);
        }
    }

    fn wants_case_bits(&self) -> bool {
        self.inner.wants_case_bits()
    }

    fn attach_sink(&mut self, sink: crate::obs::SinkHandle) {
        self.inner.attach_sink(sink);
    }

    fn save_state(&self, mut w: &mut dyn Write) -> Result<(), PersistError> {
        if !self.pending.is_empty() {
            return Err(PersistError::Unsupported(
                "interleave checkpoint requires a round boundary",
            ));
        }
        {
            let w = &mut w;
            write_rng(w, &self.rng)?;
            write_usize(w, self.max_pool)?;
            write_usize(w, self.seed_pool.len())?;
            for seed in &self.seed_pool {
                write_u64(w, *seed)?;
            }
        }
        self.inner.save_state(w)
    }

    fn load_state(&mut self, mut r: &mut dyn Read) -> Result<(), PersistError> {
        {
            let r = &mut r;
            self.rng = read_rng(r)?;
            self.max_pool = read_usize(r, 1 << 20, "seed pool capacity")?;
            let n = read_usize(r, 1 << 20, "seed pool size")?;
            self.seed_pool = (0..n).map(|_| read_u64(r)).collect::<Result<_, _>>()?;
        }
        self.pending.clear();
        self.inner.load_state(r)
    }
}

/// Number of architectural-transition classes [`GoldenFuzzFuzzer`] tracks.
const GOLDEN_CLASSES: usize = 16;

/// Maps one retired instruction to its architectural-transition class:
/// trapping retirements are their own class, everything else is bucketed
/// by the base-ISA major opcode (load/store/AMO/ALU/CSR/FP/branch/...).
fn golden_class(word: u32, trapped: bool) -> usize {
    if trapped {
        return 0;
    }
    match word & 0x7f {
        0x03 => 1,         // integer loads
        0x23 => 2,         // integer stores
        0x07 => 3,         // FP loads
        0x27 => 4,         // FP stores
        0x33 => 5,         // OP (incl. M)
        0x3b => 6,         // OP-32
        0x13 => 7,         // OP-IMM
        0x1b => 8,         // OP-IMM-32
        0x37 | 0x17 => 9,  // LUI / AUIPC
        0x63 => 10,        // branches
        0x6f | 0x67 => 11, // JAL / JALR
        0x73 => 12,        // SYSTEM (CSR, ecall, xret)
        0x53 => 13,        // FP compute
        0x2f => 14,        // AMO
        _ => 15,           // compressed / custom / garbage
    }
}

/// **GoldenFuzz-like**: a generative golden-reference-guided baseline. No
/// coverage feedback at all — instead candidates are dry-run on the GRM
/// and scored by how *rare* the architectural state transitions they
/// retire are, against a register-class/CSR transition table learned
/// online from the GRM's own retire traces. The candidate retiring the
/// most under-visited transition chain wins each draw, steering generation
/// toward unusual architectural behaviour without touching the DUT.
#[derive(Debug)]
pub struct GoldenFuzzFuzzer {
    rng: StdRng,
    case_len: usize,
    /// Candidates dry-run per emitted case.
    candidates: usize,
    /// GRM step budget per dry run.
    max_steps: u64,
    /// Flattened `GOLDEN_CLASSES × GOLDEN_CLASSES` transition counts of
    /// retired instruction classes, learned from the winners' traces.
    transitions: Vec<u64>,
}

impl GoldenFuzzFuzzer {
    /// Creates the fuzzer with a seed and a target case length.
    #[must_use]
    pub fn new(seed: u64, case_len: usize) -> GoldenFuzzFuzzer {
        GoldenFuzzFuzzer {
            rng: StdRng::seed_from_u64(seed),
            case_len,
            candidates: 4,
            max_steps: 256,
            transitions: vec![0; GOLDEN_CLASSES * GOLDEN_CLASSES],
        }
    }

    /// The learned transition-count table (row-major, `from × to`).
    #[must_use]
    pub fn transition_table(&self) -> &[u64] {
        &self.transitions
    }

    /// Dry-runs a candidate on the GRM and returns the class sequence of
    /// its retired instructions.
    fn retire_classes(&self, body: &[Instruction]) -> Vec<usize> {
        let program = hfl_grm::Program::assemble(body);
        let image = hfl_grm::PredecodedProgram::new(&program);
        let mut cpu = hfl_grm::Cpu::new();
        cpu.load_program(&program);
        let _ = cpu.run_predecoded(&image, self.max_steps);
        cpu.trace
            .iter()
            .map(|e| golden_class(e.word, e.trap.is_some()))
            .collect()
    }

    /// Sum of inverse visit counts over the chain's consecutive
    /// transitions: rare transitions score high, saturated ones near zero.
    fn novelty(&self, classes: &[usize]) -> f64 {
        classes
            .windows(2)
            .map(|w| 1.0 / (1.0 + self.transitions[w[0] * GOLDEN_CLASSES + w[1]] as f64))
            .sum()
    }
}

impl Fuzzer for GoldenFuzzFuzzer {
    fn name(&self) -> &'static str {
        "GoldenFuzz"
    }

    fn next_case(&mut self) -> TestBody {
        let mut best: Option<(Vec<Instruction>, Vec<usize>)> = None;
        let mut best_score = f64::NEG_INFINITY;
        for _ in 0..self.candidates {
            let len = self.rng.gen_range(self.case_len / 2..=self.case_len);
            let body = random_body(&mut self.rng, len.max(1));
            let classes = self.retire_classes(&body);
            let score = self.novelty(&classes);
            // Strict `>`: ties keep the earliest candidate, so selection
            // is a pure function of the RNG stream and the table.
            if score > best_score {
                best_score = score;
                best = Some((body, classes));
            }
        }
        let (body, classes) = best.expect("at least one candidate is drawn");
        for w in classes.windows(2) {
            self.transitions[w[0] * GOLDEN_CLASSES + w[1]] += 1;
        }
        TestBody::Asm(body)
    }

    fn feedback(&mut self, _body: &TestBody, _feedback: Feedback) {
        // Golden-reference-guided by design: DUT coverage never reaches
        // the generator, only the GRM's own transition statistics do.
    }

    fn wants_case_bits(&self) -> bool {
        false
    }

    fn save_state(&self, mut w: &mut dyn Write) -> Result<(), PersistError> {
        let w = &mut w;
        write_rng(w, &self.rng)?;
        write_usize(w, self.case_len)?;
        write_usize(w, self.candidates)?;
        write_u64(w, self.max_steps)?;
        write_u64_vec(w, &self.transitions)
    }

    fn load_state(&mut self, mut r: &mut dyn Read) -> Result<(), PersistError> {
        let r = &mut r;
        self.rng = read_rng(r)?;
        self.case_len = read_usize(r, 1 << 20, "case length")?;
        self.candidates = read_usize(r, 1 << 10, "candidate count")?.max(1);
        self.max_steps = read_u64(r)?;
        let transitions = read_u64_vec(r)?;
        if transitions.len() != GOLDEN_CLASSES * GOLDEN_CLASSES {
            return Err(PersistError::Corrupt(
                "golden transition table size mismatch".to_owned(),
            ));
        }
        self.transitions = transitions;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<F: Fuzzer>(f: &mut F, n: usize) -> Vec<TestBody> {
        let mut out = Vec::new();
        for i in 0..n {
            let body = f.next_case();
            assert!(!body.is_empty(), "{} produced an empty case", f.name());
            f.feedback(&body, Feedback::scalar(i % 3 == 0, 0.1 + 0.01 * i as f32));
            out.push(body);
        }
        out
    }

    #[test]
    fn all_fuzzers_produce_cases_and_accept_feedback() {
        drive(&mut DifuzzRtlFuzzer::new(1, 20), 10);
        drive(&mut TheHuzzFuzzer::new(1, 20), 10);
        drive(&mut CascadeFuzzer::new(1, 100), 5);
        drive(&mut ChatFuzzFuzzer::new(1, 16), 10);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(DifuzzRtlFuzzer::new(0, 8).name(), "DifuzzRTL");
        assert_eq!(TheHuzzFuzzer::new(0, 8).name(), "TheHuzz");
        assert_eq!(CascadeFuzzer::new(0, 8).name(), "Cascade");
        assert_eq!(ChatFuzzFuzzer::new(0, 8).name(), "ChatFuzz");
    }

    #[test]
    fn random_instructions_are_valid_and_diverse() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut opcodes = std::collections::HashSet::new();
        for _ in 0..500 {
            let inst = random_instruction(&mut rng);
            let _ = inst.encode();
            opcodes.insert(inst.opcode);
        }
        assert!(opcodes.len() > 60, "{} opcodes", opcodes.len());
    }

    #[test]
    fn difuzz_mutation_uses_the_corpus() {
        let mut f = DifuzzRtlFuzzer::new(2, 10);
        for _ in 0..20 {
            let body = f.next_case();
            f.feedback(&body, Feedback::scalar(true, 0.5));
        }
        assert!(!f.corpus.is_empty());
        assert!(f.corpus.len() <= f.max_corpus);
    }

    #[test]
    fn cascade_programs_are_long_and_mostly_straight_line() {
        let mut f = CascadeFuzzer::new(3, 150);
        let TestBody::Asm(body) = f.next_case() else {
            unreachable!("cascade emits asm")
        };
        assert_eq!(body.len(), 150);
        let cf = body.iter().filter(|i| i.opcode.is_control_flow()).count();
        assert!(cf < body.len() / 4, "{cf} control-flow instructions");
        for inst in &body {
            if inst.opcode.is_control_flow() {
                assert!(inst.imm > 0, "forward targets only");
            }
        }
    }

    #[test]
    fn chatfuzz_learns_byte_preferences() {
        let mut f = ChatFuzzFuzzer::new(4, 32);
        f.lr = 0.5;
        // Reward cases by how many words carry 0x13 (the addi opcode byte)
        // in their low byte.
        for _ in 0..1500 {
            let body = f.next_case();
            let TestBody::Words(words) = &body else {
                unreachable!()
            };
            let hits = words.iter().filter(|w| *w & 0xFF == 0x13).count();
            let coverage = hits as f32 / words.len() as f32;
            f.feedback(&body, Feedback::scalar(false, coverage));
        }
        let probs = softmax(&f.prefs[0]);
        let p13 = probs[0x13];
        let uniform = 1.0 / 256.0;
        assert!(
            p13 > 2.0 * uniform,
            "byte 0x13 preference {p13} vs {uniform}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = DifuzzRtlFuzzer::new(42, 10);
        let mut b = DifuzzRtlFuzzer::new(42, 10);
        for _ in 0..5 {
            assert_eq!(a.next_case(), b.next_case());
        }
    }

    #[test]
    fn next_round_matches_consecutive_cases() {
        // The default round implementation is definitionally n consecutive
        // draws: a fuzzer that receives no feedback in between must emit
        // the identical stream either way.
        let mut rounds = TheHuzzFuzzer::new(8, 12);
        let mut singles = TheHuzzFuzzer::new(8, 12);
        let round = rounds.next_round(6);
        let expect: Vec<TestBody> = (0..6).map(|_| singles.next_case()).collect();
        assert_eq!(round, expect);
    }

    #[test]
    fn every_baseline_resumes_bit_identically() {
        fn round_trip<F: Fuzzer>(mut live: F, mut resumed: F) {
            drive(&mut live, 8);
            let mut blob = Vec::new();
            live.save_state(&mut (&mut blob as &mut dyn Write)).unwrap();
            let mut cursor: &[u8] = &blob;
            resumed.load_state(&mut cursor).unwrap();
            for _ in 0..5 {
                assert_eq!(live.next_case(), resumed.next_case());
            }
        }
        round_trip(DifuzzRtlFuzzer::new(7, 16), DifuzzRtlFuzzer::new(99, 4));
        round_trip(TheHuzzFuzzer::new(7, 16), TheHuzzFuzzer::new(99, 4));
        round_trip(CascadeFuzzer::new(7, 40), CascadeFuzzer::new(99, 4));
        round_trip(ChatFuzzFuzzer::new(7, 16), ChatFuzzFuzzer::new(99, 4));
    }

    #[test]
    fn interleave_wraps_any_inner_fuzzer_into_mhart_cases() {
        let mut f = InterleaveFuzzer::new(11, DifuzzRtlFuzzer::new(1, 12));
        let mut seeds = std::collections::HashSet::new();
        for i in 0..20 {
            let body = f.next_case();
            let TestBody::Mhart { sched_seed, .. } = &body else {
                unreachable!("interleave emits mhart cases, got {body:?}");
            };
            seeds.insert(*sched_seed);
            f.feedback(&body, Feedback::scalar(i % 4 == 0, 0.2));
        }
        assert!(seeds.len() > 10, "seeds should be diverse: {}", seeds.len());
        // Positive feedback pooled the case's interleaving seed.
        assert!(!f.pooled_seeds().is_empty());
        assert!(f.pending.is_empty(), "feedback drains the pending queue");
        // Word-level inner fuzzers wrap through their decodable instructions.
        let mut w = InterleaveFuzzer::new(11, TheHuzzFuzzer::new(1, 12));
        assert!(matches!(w.next_case(), TestBody::Mhart { .. }));
    }

    #[test]
    fn interleave_resumes_bit_identically_and_rejects_mid_round() {
        let mut live = InterleaveFuzzer::new(7, DifuzzRtlFuzzer::new(3, 10));
        drive(&mut live, 8);
        let mut blob = Vec::new();
        live.save_state(&mut (&mut blob as &mut dyn Write)).unwrap();
        let mut resumed = InterleaveFuzzer::new(99, DifuzzRtlFuzzer::new(99, 4));
        let mut cursor: &[u8] = &blob;
        resumed.load_state(&mut cursor).unwrap();
        for _ in 0..5 {
            assert_eq!(live.next_case(), resumed.next_case());
        }
        // A pending (un-fed) case blocks checkpointing, like ChatFuzz.
        let mut mid = InterleaveFuzzer::new(7, CascadeFuzzer::new(1, 10));
        let _ = mid.next_case();
        let mut blob = Vec::new();
        assert!(matches!(
            mid.save_state(&mut (&mut blob as &mut dyn Write)),
            Err(PersistError::Unsupported(_))
        ));
    }

    #[test]
    fn chatfuzz_rejects_mid_round_checkpoints() {
        let mut f = ChatFuzzFuzzer::new(5, 8);
        let _ = f.next_case(); // leaves an un-fed pending case
        let mut blob = Vec::new();
        assert!(matches!(
            f.save_state(&mut (&mut blob as &mut dyn Write)),
            Err(PersistError::Unsupported(_))
        ));
    }

    #[test]
    fn interleave_passes_an_inner_mhart_case_through_with_its_seed() {
        // Regression for the silent seed drop: an inner fuzzer that
        // already emits multi-hart cases must keep its own sched_seed on
        // the lenient path instead of being re-wrapped.
        let mut f = InterleaveFuzzer::new(5, InterleaveFuzzer::new(6, CascadeFuzzer::new(1, 10)));
        let body = f.next_case();
        let TestBody::Mhart { sched_seed, .. } = &body else {
            unreachable!("interleave emits mhart cases");
        };
        // The seed must come from the *inner* wrapper's RNG stream.
        let mut inner_twin = InterleaveFuzzer::new(6, CascadeFuzzer::new(1, 10));
        let expected = inner_twin.next_case();
        assert_eq!(expected.sched_seed(), Some(*sched_seed));
        // Feedback still drains both wrappers' pending queues.
        f.feedback(&body, Feedback::scalar(true, 0.3));
        assert!(f.pending.is_empty());
    }

    #[test]
    fn strict_composition_rejects_an_mhart_inner_case() {
        // Interleave(Interleave(x)): the outer wrapper would re-seed the
        // inner schedule.
        let mut outer_i =
            InterleaveFuzzer::new(5, InterleaveFuzzer::new(6, CascadeFuzzer::new(1, 10)));
        let err = outer_i.try_next_case().unwrap_err();
        assert_eq!(err.wrapper, "Interleave");
        assert_eq!(err.inner, "Interleave");
        assert!(err.detail.contains("interleaving seed"), "{err}");
        assert!(err.to_string().contains("Interleave"), "{err}");
    }

    #[test]
    fn plain_fuzzers_never_fail_the_fallible_paths() {
        let mut f = DifuzzRtlFuzzer::new(3, 10);
        let case = f.try_next_case().unwrap();
        assert!(!case.is_empty());
        let round = f.try_next_round(4).unwrap();
        assert_eq!(round.len(), 4);
    }

    #[test]
    fn goldenfuzz_emits_cases_and_learns_transitions_without_feedback() {
        let mut f = GoldenFuzzFuzzer::new(12, 16);
        assert_eq!(f.name(), "GoldenFuzz");
        for _ in 0..4 {
            let body = f.next_case();
            assert!(!body.is_empty());
            assert!(matches!(body, TestBody::Asm(_)));
        }
        // The table learned from the winners' retire traces.
        let visits: u64 = f.transition_table().iter().sum();
        assert!(visits > 0, "dry runs must populate the transition table");
        // Coverage feedback is ignored by design: the generator state is
        // identical whether or not the DUT reports gains.
        let mut fed = GoldenFuzzFuzzer::new(12, 16);
        for _ in 0..4 {
            let body = fed.next_case();
            fed.feedback(&body, Feedback::scalar(true, 0.9));
        }
        assert_eq!(fed.transition_table(), f.transition_table());
        assert_eq!(fed.next_case(), f.next_case());
    }

    #[test]
    fn goldenfuzz_resumes_bit_identically() {
        let mut live = GoldenFuzzFuzzer::new(7, 12);
        drive(&mut live, 4);
        let mut blob = Vec::new();
        live.save_state(&mut (&mut blob as &mut dyn Write)).unwrap();
        let mut resumed = GoldenFuzzFuzzer::new(99, 4);
        let mut cursor: &[u8] = &blob;
        resumed.load_state(&mut cursor).unwrap();
        for _ in 0..3 {
            assert_eq!(live.next_case(), resumed.next_case());
        }
    }

    #[test]
    fn golden_classes_bucket_major_opcodes_distinctly() {
        use hfl_riscv::Reg;
        let load = Instruction::i(Opcode::Lw, Reg::X1, Reg::X2, 0).encode();
        let store = Instruction::s(Opcode::Sw, Reg::X1, 0, Reg::X2).encode();
        let alu = Instruction::i(Opcode::Addi, Reg::X1, Reg::X0, 1).encode();
        let classes: Vec<usize> = [load, store, alu]
            .iter()
            .map(|&w| golden_class(w, false))
            .collect();
        assert_eq!(classes, vec![1, 2, 7]);
        // Trapping retirements are their own class regardless of opcode.
        assert_eq!(golden_class(load, true), 0);
        assert!(golden_class(0xFFFF_FFFF, false) < GOLDEN_CLASSES);
    }

    #[test]
    fn chatfuzz_applies_deferred_feedback_in_order() {
        // A batched round defers feedback by a whole round; the REINFORCE
        // update must still pair each reward with its own case's choices.
        let mut batched = ChatFuzzFuzzer::new(4, 8);
        let mut sequential = ChatFuzzFuzzer::new(4, 8);
        let round = batched.next_round(3);
        for (i, body) in round.iter().enumerate() {
            batched.feedback(body, Feedback::scalar(false, 0.1 * i as f32));
        }
        // The sequential twin sees the same bodies and rewards because the
        // generation round happened before any update in both schedules.
        for expected in &round {
            let body = sequential.next_case();
            assert_eq!(&body, expected);
        }
        for (i, body) in round.iter().enumerate() {
            sequential.feedback(body, Feedback::scalar(false, 0.1 * i as f32));
        }
        assert_eq!(batched.prefs[0], sequential.prefs[0]);
        assert!(batched.pending_choices.is_empty());
        // Feedback without a pending case is ignored.
        batched.feedback(&TestBody::Words(vec![0]), Feedback::scalar(true, 1.0));
        assert!(batched.pending_choices.is_empty());
    }
}
