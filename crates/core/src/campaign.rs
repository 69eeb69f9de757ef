//! The campaign runner: drives any [`Fuzzer`] against a core for a test
//! budget, tracking cumulative coverage curves and mismatch signatures.
//!
//! Every figure/table harness in `hfl-bench` is built on this runner, so
//! HFL and the baselines are always measured identically.
//!
//! # Parallel execution model
//!
//! The runner works in rounds: the fuzzer generates a batch of up to
//! [`CampaignConfig::batch`] candidate bodies, an [`ExecPool`] evaluates
//! them on `threads` cloned `(DUT, GRM)` workers, and coverage accounting
//! plus fuzzer feedback are applied to the results **in submission
//! order**. Because generation happens before execution and merging is
//! ordered, the campaign's outputs (curve, signatures, first-detection
//! indices) depend only on the batch size, never on the thread count:
//! `threads = 8` is bit-identical to `threads = 1`. With `batch = 1` the
//! round loop degenerates to the classic generate → run → feedback
//! sequential loop.
//!
//! # Crash safety
//!
//! Campaigns are validated up front ([`CampaignSpec::builder`] returns
//! `Result`), checkpointed, and fault tolerant:
//!
//! - With a [`CheckpointPolicy`], the runner writes a versioned,
//!   checksummed snapshot of the **entire** campaign state — progress
//!   counters, coverage, signatures, curve, corpora, metrics and the
//!   fuzzer's own state (RNG streams, LSTM weights, optimiser moments) —
//!   atomically every `every_rounds` rounds and at the end of the run.
//!   Checkpoints are taken only at round boundaries, where every fuzzer's
//!   pending queues are empty; resuming via
//!   [`CampaignSpecBuilder::resume_from`] therefore reproduces the
//!   uninterrupted run bit for bit (non-timing event stream and final
//!   coverage curve) at any thread count.
//! - Cases execute through `ExecPool::run_batch_contained`: a panicking
//!   worker is quarantined and replaced, a runaway case is cut off by the
//!   [`FaultPolicy`] fuel watchdog, and either costs the campaign at most
//!   the policy's bounded retries for that one case. Abandoned cases are
//!   reported as [`Event::CaseAborted`] and their bodies preserved in
//!   [`CampaignResult::quarantined`] as proofs of concept.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hfl_dut::{CoreKind, CoverageKind, CoverageSnapshot};
use hfl_nn::persist::{
    corrupt, read_f64, read_string, read_u32, read_u64, read_u64_vec, read_usize, write_f64,
    write_string, write_u32, write_u64, write_u64_vec, write_usize, Codec, SnapshotReader,
    SnapshotWriter,
};
use hfl_nn::PersistError;

use crate::baselines::{ComposeError, Feedback, Fuzzer, TestBody};
use crate::control::StopHandle;
use crate::corpus::Corpus;
use crate::difftest::{Signature, SignatureSet};
use crate::exec::{
    CaseOutcome, CoverageBatch, ExecPool, FaultPlan, FaultPolicy, Throughput, MAX_THREADS,
};
use crate::harness::Executor;
use crate::obs::{Event, Histogram, Metrics, MetricsSnapshot, SinkHandle, DURATION_BUCKETS};

/// Execution parameters shared by campaign and fleet runs: the per-case
/// step budget, the round batch size and the pool's worker-thread count.
/// Embedded in both [`CampaignConfig`] and
/// [`crate::fleet::FleetConfig`], so the two spec builders validate one
/// set of knobs through one code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Per-test-case step budget. Bounds the cost of accidental loops
    /// (backward branches in generated code); legitimate straight-line
    /// cases stay far below it.
    pub max_steps: u64,
    /// Cases generated per round and evaluated as one pool batch. The
    /// batch size is part of the campaign's semantics (feedback for a
    /// round arrives only after the whole round executed), so results are
    /// comparable only across equal batch sizes; the thread count never
    /// changes them.
    pub batch: usize,
    /// Worker threads in the execution pool (affects wall-clock only,
    /// never results); at most [`MAX_THREADS`].
    pub threads: usize,
}

impl RunConfig {
    /// The default execution parameters (tests and bench settings).
    #[must_use]
    pub fn quick() -> RunConfig {
        RunConfig {
            max_steps: 3_000,
            batch: 1,
            threads: 1,
        }
    }

    /// Sets the per-round batch size (builder style).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> RunConfig {
        self.batch = batch.max(1);
        self
    }

    /// Sets the per-case step budget (builder style).
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> RunConfig {
        self.max_steps = max_steps;
        self
    }

    /// Sets the pool's worker-thread count (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> RunConfig {
        self.threads = threads;
        self
    }

    /// Validates the shared knobs. [`CampaignConfig::validate`] and
    /// [`crate::fleet::FleetConfig::validate`] call this after their own
    /// checks.
    ///
    /// # Errors
    /// The first violated rule: zero step budget, zero batch, zero
    /// threads, or more than [`MAX_THREADS`] threads.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.max_steps == 0 {
            return Err(SpecError::ZeroMaxSteps);
        }
        if self.batch == 0 {
            return Err(SpecError::ZeroBatch);
        }
        if self.threads == 0 {
            return Err(SpecError::ZeroThreads);
        }
        if self.threads > MAX_THREADS {
            return Err(SpecError::TooManyThreads);
        }
        Ok(())
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::quick()
    }
}

/// Budget and sampling parameters of one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Number of test cases to run.
    pub cases: u64,
    /// Record a coverage-curve sample every this many cases.
    pub sample_every: u64,
    /// Shared execution parameters (step budget, batch, threads).
    pub run: RunConfig,
}

impl CampaignConfig {
    /// A quick campaign (used by tests and the default bench settings).
    #[must_use]
    pub fn quick(cases: u64) -> CampaignConfig {
        CampaignConfig {
            cases,
            sample_every: (cases / 50).max(1),
            run: RunConfig::quick(),
        }
    }

    /// Sets the per-round batch size (builder style).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> CampaignConfig {
        self.run = self.run.with_batch(batch);
        self
    }

    /// The per-case step budget.
    #[must_use]
    pub fn max_steps(&self) -> u64 {
        self.run.max_steps
    }

    /// The per-round batch size.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.run.batch
    }

    /// Validates the case budget, the sampling stride and then the
    /// shared knobs ([`RunConfig::validate`]). The spec builder and
    /// [`crate::spec::RunRequest::validate`] both call this.
    ///
    /// # Errors
    /// The first violated rule: zero cases, zero sampling stride, or a
    /// [`RunConfig`] error.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.cases == 0 {
            return Err(SpecError::ZeroCases);
        }
        if self.sample_every == 0 {
            return Err(SpecError::ZeroSampleEvery);
        }
        self.run.validate()
    }
}

/// A [`CampaignSpecBuilder`] rejected its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// `cases` was zero: the campaign would do nothing.
    ZeroCases,
    /// `sample_every` was zero: the curve sampler would divide by zero.
    ZeroSampleEvery,
    /// `max_steps` was zero: no test could retire an instruction.
    ZeroMaxSteps,
    /// `batch` was zero: rounds would never make progress.
    ZeroBatch,
    /// `threads` was zero: the pool needs at least one worker.
    ZeroThreads,
    /// `threads` was above [`MAX_THREADS`]: each pool thread beyond the
    /// caller's stays alive as long as the pool.
    TooManyThreads,
    /// A checkpoint policy asked for an interval of zero rounds.
    ZeroCheckpointInterval,
    /// A fleet asked for zero epochs: no member would ever run.
    ZeroEpochs,
    /// A fleet's per-epoch case budget was zero: the scheduler would have
    /// nothing to apportion.
    ZeroCasesPerEpoch,
    /// A fleet's shared-corpus capacity was zero: every harvested case
    /// would be evicted on arrival.
    ZeroCorpusCapacity,
    /// A fleet request named no members: nothing would run.
    EmptyMembers,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroCases => write!(f, "campaign case budget must be nonzero"),
            SpecError::ZeroSampleEvery => write!(f, "curve sampling interval must be nonzero"),
            SpecError::ZeroMaxSteps => write!(f, "per-case step budget must be nonzero"),
            SpecError::ZeroBatch => write!(f, "round batch size must be nonzero"),
            SpecError::ZeroThreads => write!(f, "the pool needs at least one worker thread"),
            SpecError::TooManyThreads => {
                write!(f, "threads must be at most {MAX_THREADS}")
            }
            SpecError::ZeroCheckpointInterval => {
                write!(f, "checkpoint interval must be at least one round")
            }
            SpecError::ZeroEpochs => write!(f, "fleet epoch count must be nonzero"),
            SpecError::ZeroCasesPerEpoch => {
                write!(f, "fleet per-epoch case budget must be nonzero")
            }
            SpecError::ZeroCorpusCapacity => {
                write!(f, "fleet shared-corpus capacity must be nonzero")
            }
            SpecError::EmptyMembers => write!(f, "fleet \"members\" list is empty"),
        }
    }
}

impl std::error::Error for SpecError {}

/// When and where the campaign writes its snapshots.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    dir: PathBuf,
    every_rounds: u64,
}

impl CheckpointPolicy {
    /// Checkpoints into `dir` every `every_rounds` rounds (validated by
    /// [`CampaignSpecBuilder::build`]); a final snapshot is always
    /// written when the campaign finishes or is stopped.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, every_rounds: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every_rounds,
        }
    }

    /// The snapshot directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rounds between snapshots.
    #[must_use]
    pub fn every_rounds(&self) -> u64 {
        self.every_rounds
    }

    /// Path of the campaign snapshot inside [`CheckpointPolicy::dir`].
    /// Snapshots are written atomically (temp file + rename), so this
    /// file is always the latest complete checkpoint; a stray
    /// `campaign.ckpt.tmp` from a crash mid-write is ignored.
    #[must_use]
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("campaign.ckpt")
    }

    /// Path of the human-readable quarantine corpus (bodies of poisoned
    /// cases, written alongside each snapshot once any exist).
    #[must_use]
    pub fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.corpus")
    }

    /// The latest complete snapshot under `dir`, if one exists (`.tmp`
    /// leftovers from an interrupted write are never returned).
    #[must_use]
    pub fn latest_snapshot(dir: &Path) -> Option<PathBuf> {
        let path = dir.join("campaign.ckpt");
        path.is_file().then_some(path)
    }

    /// Path of the fleet snapshot inside [`CheckpointPolicy::dir`] (the
    /// fleet orchestrator shares the policy type with single campaigns;
    /// the two snapshot kinds coexist under one directory).
    #[must_use]
    pub fn fleet_snapshot_path(&self) -> PathBuf {
        self.dir.join("fleet.ckpt")
    }

    /// The latest complete fleet snapshot under `dir`, if one exists
    /// (`.tmp` leftovers from an interrupted write are never returned).
    #[must_use]
    pub fn latest_fleet_snapshot(dir: &Path) -> Option<PathBuf> {
        let path = dir.join("fleet.ckpt");
        path.is_file().then_some(path)
    }
}

/// A campaign or fleet run failed outside the fuzzing loop itself: its
/// spec was invalid, or its checkpoint could not be written or read back.
/// One hierarchy covers both runners so callers (CLIs, the `hfl-serve`
/// daemon) map failures to exit codes / HTTP statuses in one place:
/// [`RunError::is_invalid_input`] distinguishes caller mistakes (400)
/// from environment failures (500).
#[derive(Debug)]
pub enum RunError {
    /// The spec's parameters were rejected (see [`SpecError`]).
    Spec(SpecError),
    /// Snapshot serialisation/deserialisation failed (I/O errors while
    /// writing or corrupt/mismatched data while resuming).
    Persist(PersistError),
    /// A fleet run was started with an empty member roster.
    NoMembers,
    /// A fleet's per-epoch case budget cannot give every member at least
    /// one case.
    BudgetTooSmall {
        /// Members in the roster.
        members: usize,
        /// The configured per-epoch case budget.
        cases_per_epoch: u64,
    },
    /// The fuzzer could not compose a round: a composing wrapper refused
    /// its inner fuzzer's output (see [`ComposeError`]), or a round came
    /// back empty. A caller-side pairing mistake, not an environment
    /// failure — the campaign state is untouched and resumable.
    Compose(ComposeError),
}

impl RunError {
    /// Whether the failure is the caller's input (invalid spec/roster)
    /// rather than the environment (I/O, corrupt snapshots).
    #[must_use]
    pub fn is_invalid_input(&self) -> bool {
        matches!(
            self,
            RunError::Spec(_)
                | RunError::NoMembers
                | RunError::BudgetTooSmall { .. }
                | RunError::Compose(_)
        )
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Spec(e) => write!(f, "invalid spec: {e}"),
            RunError::Persist(e) => write!(f, "checkpoint failed: {e}"),
            RunError::NoMembers => write!(f, "a fleet needs at least one member"),
            RunError::BudgetTooSmall {
                members,
                cases_per_epoch,
            } => write!(
                f,
                "per-epoch budget of {cases_per_epoch} cases cannot cover {members} members"
            ),
            RunError::Compose(e) => write!(f, "round composition failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Spec(e) => Some(e),
            RunError::Persist(e) => Some(e),
            RunError::Compose(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for RunError {
    fn from(e: SpecError) -> Self {
        RunError::Spec(e)
    }
}

impl From<PersistError> for RunError {
    fn from(e: PersistError) -> Self {
        RunError::Persist(e)
    }
}

impl From<ComposeError> for RunError {
    fn from(e: ComposeError) -> Self {
        RunError::Compose(e)
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Persist(PersistError::Io(e))
    }
}

/// Everything that defines one campaign run: the core, the budget and the
/// execution environment. Built (and validated) by
/// [`CampaignSpec::builder`].
///
/// # Examples
///
/// ```
/// use hfl::campaign::{CampaignConfig, CampaignSpec};
/// use hfl_dut::CoreKind;
///
/// let spec = CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(100))
///     .threads(4)
///     .build()
///     .expect("a valid spec");
/// assert_eq!(spec.threads(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    core: CoreKind,
    config: CampaignConfig,
    quirks: Option<hfl_grm::cpu::Quirks>,
    mhart: bool,
    sink: SinkHandle,
    checkpoint: Option<CheckpointPolicy>,
    resume_from: Option<PathBuf>,
    fault_policy: FaultPolicy,
    fault_plan: Option<Arc<FaultPlan>>,
    control: Option<StopHandle>,
}

impl CampaignSpec {
    /// Starts building a spec for one core and budget. The builder
    /// validates everything at [`CampaignSpecBuilder::build`].
    #[must_use]
    pub fn builder(core: CoreKind, config: CampaignConfig) -> CampaignSpecBuilder {
        CampaignSpecBuilder {
            core,
            config,
            quirks: None,
            mhart: false,
            sink: SinkHandle::null(),
            checkpoint: None,
            resume_from: None,
            fault_policy: FaultPolicy::default(),
            fault_plan: None,
            control: None,
        }
    }

    /// The core fuzzed.
    #[must_use]
    pub fn core(&self) -> CoreKind {
        self.core
    }

    /// Budget and sampling parameters.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Explicit defect configuration, if one was set.
    #[must_use]
    pub fn quirks(&self) -> Option<&hfl_grm::cpu::Quirks> {
        self.quirks.as_ref()
    }

    /// Whether the campaign runs the two-hart system configuration.
    #[must_use]
    pub fn is_mhart(&self) -> bool {
        self.mhart
    }

    /// Worker threads in the execution pool.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.config.run.threads
    }

    /// The telemetry sink handle.
    #[must_use]
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// The checkpoint policy, if checkpointing is enabled.
    #[must_use]
    pub fn checkpoint(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// The snapshot this campaign resumes from, if any.
    #[must_use]
    pub fn resume_from(&self) -> Option<&Path> {
        self.resume_from.as_deref()
    }

    /// The fault-containment bounds.
    #[must_use]
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// The armed fault-injection plan, if any (testing / CI).
    #[must_use]
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault_plan.clone()
    }

    /// The control handle attached to this spec, if any.
    #[must_use]
    pub fn control(&self) -> Option<&StopHandle> {
        self.control.as_ref()
    }

    /// Whether a graceful stop was requested through the spec's control
    /// handle. Checked at round boundaries: the campaign finishes the
    /// current round, checkpoints (if enabled) and returns with
    /// `completed = false`.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.control
            .as_ref()
            .is_some_and(StopHandle::stop_requested)
    }

    /// Claims a pending checkpoint-now request from the control handle
    /// (the runner calls this once per round boundary).
    pub(crate) fn take_checkpoint_request(&self) -> bool {
        self.control
            .as_ref()
            .is_some_and(StopHandle::take_checkpoint_request)
    }
}

/// Builds a validated [`CampaignSpec`].
#[derive(Debug, Clone)]
pub struct CampaignSpecBuilder {
    core: CoreKind,
    config: CampaignConfig,
    quirks: Option<hfl_grm::cpu::Quirks>,
    mhart: bool,
    sink: SinkHandle,
    checkpoint: Option<CheckpointPolicy>,
    resume_from: Option<PathBuf>,
    fault_policy: FaultPolicy,
    fault_plan: Option<Arc<FaultPlan>>,
    control: Option<StopHandle>,
}

impl CampaignSpecBuilder {
    /// Sets an explicit defect configuration.
    #[must_use]
    pub fn quirks(mut self, quirks: hfl_grm::cpu::Quirks) -> CampaignSpecBuilder {
        self.quirks = Some(quirks);
        self
    }

    /// Targets the two-hart system DUT instead of a single core: every
    /// case runs on the [`hfl_dut::MhartMachine`] (shared memory, timer
    /// device, interleaving selected by the body's `sched_seed`) and is
    /// difftested against a clean reference replaying the committed
    /// schedule. Concurrency defects (the `C*` catalogue entries) only
    /// manifest in this mode.
    #[must_use]
    pub fn mhart(mut self, mhart: bool) -> CampaignSpecBuilder {
        self.mhart = mhart;
        self
    }

    /// Sets the pool's worker-thread count (must be at least 1; affects
    /// wall-clock only, never results). Shorthand for setting
    /// [`RunConfig::threads`] on the config.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> CampaignSpecBuilder {
        self.config.run.threads = threads;
        self
    }

    /// Attaches a telemetry sink.
    #[must_use]
    pub fn sink(mut self, sink: SinkHandle) -> CampaignSpecBuilder {
        self.sink = sink;
        self
    }

    /// Enables periodic checkpointing.
    #[must_use]
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> CampaignSpecBuilder {
        self.checkpoint = Some(policy);
        self
    }

    /// Resumes the campaign from a snapshot written by a previous run of
    /// the **same** spec (core, budget and fuzzer must match; thread
    /// count may differ — it never affects results).
    #[must_use]
    pub fn resume_from(mut self, snapshot: impl Into<PathBuf>) -> CampaignSpecBuilder {
        self.resume_from = Some(snapshot.into());
        self
    }

    /// Overrides the fault-containment bounds (retry budget, fuel).
    #[must_use]
    pub fn fault_policy(mut self, policy: FaultPolicy) -> CampaignSpecBuilder {
        self.fault_policy = policy;
        self
    }

    /// Arms a deterministic fault-injection plan (testing / CI).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> CampaignSpecBuilder {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Installs a control handle: requesting a stop on it makes the
    /// campaign finish its current round, checkpoint and return;
    /// requesting a checkpoint snapshots at the next round boundary.
    #[must_use]
    pub fn control(mut self, control: StopHandle) -> CampaignSpecBuilder {
        self.control = Some(control);
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    /// Returns the first [`SpecError`] among: zero cases, zero sampling
    /// interval, zero step budget, zero batch, zero threads, or a
    /// checkpoint interval of zero rounds.
    pub fn build(self) -> Result<CampaignSpec, SpecError> {
        self.config.validate()?;
        if let Some(checkpoint) = &self.checkpoint {
            if checkpoint.every_rounds == 0 {
                return Err(SpecError::ZeroCheckpointInterval);
            }
        }
        Ok(CampaignSpec {
            core: self.core,
            config: self.config,
            quirks: self.quirks,
            mhart: self.mhart,
            sink: self.sink,
            checkpoint: self.checkpoint,
            resume_from: self.resume_from,
            fault_policy: self.fault_policy,
            fault_plan: self.fault_plan,
            control: self.control,
        })
    }
}

/// One sample of the cumulative coverage curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageSample {
    /// Test cases executed so far.
    pub cases: u64,
    /// Cumulative condition-coverage points hit.
    pub condition: usize,
    /// Cumulative line-coverage points hit.
    pub line: usize,
    /// Cumulative FSM-coverage points hit.
    pub fsm: usize,
}

/// The outcome of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The fuzzer's name.
    pub fuzzer: String,
    /// The core fuzzed.
    pub core: CoreKind,
    /// Coverage curve samples (always includes the final state).
    pub curve: Vec<CoverageSample>,
    /// Total registered points per metric `(condition, line, fsm)`.
    pub totals: (usize, usize, usize),
    /// Unique mismatch signatures found.
    pub unique_signatures: usize,
    /// Total mismatches observed (before dedup).
    pub total_mismatches: u64,
    /// The deduped signatures, sorted.
    pub signatures: Vec<Signature>,
    /// Cumulative coverage at the end of the run.
    pub cumulative: CoverageSnapshot,
    /// First case index at which each signature appeared.
    pub first_detection: Vec<(Signature, u64)>,
    /// Total instructions the DUT retired across the campaign — the cost
    /// axis behind the paper's "<1 % of the test cases" efficiency claim
    /// (test cases differ enormously in size across fuzzers).
    pub instructions_executed: u64,
    /// The test case that first triggered each signature, keyed by the
    /// signature's display form. Word-level cases are stored as their
    /// decodable instructions.
    pub trigger_corpus: Corpus,
    /// Wall-clock throughput counters (never part of determinism
    /// comparisons).
    pub throughput: Throughput,
    /// Counter/histogram snapshot from the campaign's [`Metrics`]
    /// registry: per-phase wall-clock (`phase.*.seconds`) and event
    /// counters. Like [`Throughput`], never part of determinism
    /// comparisons.
    pub metrics: MetricsSnapshot,
    /// Whether the full case budget ran (false when a stop flag ended
    /// the campaign early; the final checkpoint then allows resuming).
    pub completed: bool,
    /// Cases abandoned by fault containment (timeouts + poisonings).
    pub aborted_cases: u64,
    /// Bodies of poisoned cases, preserved as proofs of concept (named
    /// `case-<index>`). Word-level bodies are stored as their decodable
    /// instructions.
    pub quarantined: Corpus,
    /// The telemetry sink's sticky I/O error, if it hit one (telemetry
    /// never aborts a campaign; the failure is reported here instead).
    pub sink_error: Option<String>,
}

impl CampaignResult {
    /// Final cumulative counts per metric.
    #[must_use]
    pub fn final_counts(&self) -> (usize, usize, usize) {
        self.curve
            .last()
            .map_or((0, 0, 0), |s| (s.condition, s.line, s.fsm))
    }

    /// Final coverage fraction for one metric.
    #[must_use]
    pub fn final_fraction(&self, kind: CoverageKind) -> f64 {
        let (c, l, f) = self.final_counts();
        let (tc, tl, tf) = self.totals;
        match kind {
            CoverageKind::Condition => c as f64 / tc as f64,
            CoverageKind::Line => l as f64 / tl as f64,
            CoverageKind::Fsm => f as f64 / tf as f64,
        }
    }

    /// The earliest case index at which cumulative condition coverage
    /// reached `target` points, if it ever did.
    #[must_use]
    pub fn cases_to_reach_condition(&self, target: usize) -> Option<u64> {
        self.curve
            .iter()
            .find(|s| s.condition >= target)
            .map(|s| s.cases)
    }
}

/// Mutable state of a running campaign — exactly what a checkpoint
/// captures (plus the fuzzer, which serialises itself). The fleet
/// orchestrator (`crate::fleet`) drives one of these per member through
/// the same [`run_round`] the single-campaign runner uses, so member
/// accounting is identical to standalone-campaign accounting.
pub(crate) struct CampaignState {
    pub(crate) executed: u64,
    pub(crate) round_index: u64,
    pub(crate) instructions_executed: u64,
    pub(crate) aborted_cases: u64,
    pub(crate) cumulative: CoverageSnapshot,
    pub(crate) signatures: SignatureSet,
    pub(crate) first_detection: Vec<(Signature, u64)>,
    pub(crate) curve: Vec<CoverageSample>,
    pub(crate) trigger_corpus: Corpus,
    pub(crate) quarantined: Corpus,
}

impl CampaignState {
    pub(crate) fn fresh(map_len: usize) -> CampaignState {
        CampaignState {
            executed: 0,
            round_index: 0,
            instructions_executed: 0,
            aborted_cases: 0,
            cumulative: CoverageSnapshot::empty(map_len),
            signatures: SignatureSet::new(),
            first_detection: Vec::new(),
            curve: Vec::new(),
            trigger_corpus: Corpus::new(),
            quarantined: Corpus::new(),
        }
    }

    /// Serialises the whole state as one flat stream — the campaign
    /// checkpoint's `state` section, each fleet snapshot's `member<i>`
    /// section and each wire grant carry exactly these bytes.
    pub(crate) fn save<W: std::io::Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_u64(w, self.executed)?;
        write_u64(w, self.round_index)?;
        write_u64(w, self.instructions_executed)?;
        write_u64(w, self.aborted_cases)?;
        write_usize(w, self.cumulative.len())?;
        write_u64_vec(w, self.cumulative.words())?;
        self.signatures.save(w)?;
        write_usize(w, self.first_detection.len())?;
        for (signature, case) in &self.first_detection {
            write_u64(w, signature.0)?;
            write_u64(w, *case)?;
        }
        write_usize(w, self.curve.len())?;
        for sample in &self.curve {
            write_u64(w, sample.cases)?;
            write_u64(w, sample.condition as u64)?;
            write_u64(w, sample.line as u64)?;
            write_u64(w, sample.fsm as u64)?;
        }
        self.trigger_corpus.save(w)?;
        self.quarantined.save(w)
    }

    /// Reads a state written by [`CampaignState::save`]; `map_len` is the
    /// coverage-map length of the core the state belongs to.
    pub(crate) fn load<R: std::io::Read>(
        r: &mut R,
        map_len: usize,
    ) -> Result<CampaignState, PersistError> {
        let executed = read_u64(r)?;
        let round_index = read_u64(r)?;
        let instructions_executed = read_u64(r)?;
        let aborted_cases = read_u64(r)?;
        let len = read_usize(r, 1 << 28, "coverage map length")?;
        if len != map_len {
            return Err(corrupt("coverage map does not match the core"));
        }
        let words = read_u64_vec(r)?;
        let cumulative = CoverageSnapshot::from_words(len, words)
            .ok_or_else(|| corrupt("coverage words do not fit the map"))?;
        let signatures = SignatureSet::load(r)?;
        let detections = read_usize(r, 1 << 24, "detection count")?;
        let first_detection = (0..detections)
            .map(|_| Ok((Signature(read_u64(r)?), read_u64(r)?)))
            .collect::<Result<_, PersistError>>()?;
        let samples = read_usize(r, 1 << 24, "curve length")?;
        let curve = (0..samples)
            .map(|_| {
                Ok(CoverageSample {
                    cases: read_u64(r)?,
                    condition: read_u64(r)? as usize,
                    line: read_u64(r)? as usize,
                    fsm: read_u64(r)? as usize,
                })
            })
            .collect::<Result<_, PersistError>>()?;
        let trigger_corpus = Corpus::load(r)?;
        let quarantined = Corpus::load(r)?;
        Ok(CampaignState {
            executed,
            round_index,
            instructions_executed,
            aborted_cases,
            cumulative,
            signatures,
            first_detection,
            curve,
            trigger_corpus,
            quarantined,
        })
    }

    /// Pushes a curve sample if `executed` is a sampling point and was
    /// not already sampled (a resume replays the final-case sampling
    /// check against a restored curve).
    pub(crate) fn maybe_sample(&mut self, cfg: &CampaignConfig, map: &hfl_dut::CoverageMap) {
        if (self.executed.is_multiple_of(cfg.sample_every) || self.executed == cfg.cases)
            && self.curve.last().map(|s| s.cases) != Some(self.executed)
        {
            self.curve.push(CoverageSample {
                cases: self.executed,
                condition: self.cumulative.count_of(map, CoverageKind::Condition),
                line: self.cumulative.count_of(map, CoverageKind::Line),
                fsm: self.cumulative.count_of(map, CoverageKind::Fsm),
            });
        }
    }
}

const CHECKPOINT_KIND: &str = "campaign";

/// Metric names a checkpoint may restore (the registry is keyed by
/// `&'static str`); unknown names in a snapshot are skipped. The
/// `fleet.*` names belong to the `crate::fleet` orchestrator, which
/// shares this table so its snapshots restore through the same path.
pub(crate) const KNOWN_METRICS: &[&str] = &[
    "campaign.cases",
    "campaign.cases_aborted",
    "campaign.mismatches",
    "campaign.rounds",
    "fleet.cases",
    "fleet.distill.seconds",
    "fleet.epochs",
    "fleet.schedule.seconds",
    "fleet.sync.seconds",
    "phase.difftest.seconds",
    "phase.execute.seconds",
    "phase.generate.seconds",
    "phase.train.seconds",
];

pub(crate) fn intern_metric(name: &str) -> Option<&'static str> {
    KNOWN_METRICS.iter().copied().find(|k| *k == name)
}

pub(crate) fn core_index(core: CoreKind) -> u32 {
    CoreKind::ALL
        .iter()
        .position(|&c| c == core)
        .expect("every core is in ALL") as u32
}

/// Names a PoC corpus entry, appending the interleaving seed for
/// multi-hart bodies: the corpus text format stores only decodable
/// instructions, so the seed — without which a concurrency PoC does not
/// replay — must ride in the name (`<base>+seed<hex>`).
pub(crate) fn poc_name(base: impl Into<String>, body: &TestBody) -> String {
    let base = base.into();
    match body.sched_seed() {
        Some(seed) => format!("{base}+seed{seed:x}"),
        None => base,
    }
}

pub(crate) fn decodable_instructions(body: &TestBody) -> Vec<hfl_riscv::Instruction> {
    match body {
        TestBody::Asm(v) => v.clone(),
        TestBody::Mhart { body, .. } => body.clone(),
        TestBody::Words(words) => words
            .iter()
            .filter_map(|&w| hfl_riscv::decode(w).ok())
            .collect(),
    }
}

pub(crate) fn write_metrics(
    w: &mut Vec<u8>,
    snapshot: &MetricsSnapshot,
) -> Result<(), PersistError> {
    write_usize(w, snapshot.counters.len())?;
    for (name, value) in &snapshot.counters {
        write_string(w, name)?;
        write_u64(w, *value)?;
    }
    write_usize(w, snapshot.histograms.len())?;
    for (name, h) in &snapshot.histograms {
        write_string(w, name)?;
        write_u64(w, h.count)?;
        write_f64(w, h.sum)?;
        write_f64(w, h.min)?;
        write_f64(w, h.max)?;
        for bucket in h.buckets {
            write_u64(w, bucket)?;
        }
    }
    Ok(())
}

pub(crate) fn read_metrics(r: &mut &[u8]) -> Result<Metrics, PersistError> {
    let mut metrics = Metrics::new();
    let counters = read_usize(r, 4096, "metric counter count")?;
    for _ in 0..counters {
        let name = read_string(r)?;
        let value = read_u64(r)?;
        if let Some(name) = intern_metric(&name) {
            metrics.restore_counter(name, value);
        }
    }
    let histograms = read_usize(r, 4096, "metric histogram count")?;
    for _ in 0..histograms {
        let name = read_string(r)?;
        let mut histogram = Histogram {
            count: read_u64(r)?,
            sum: read_f64(r)?,
            min: read_f64(r)?,
            max: read_f64(r)?,
            buckets: [0; DURATION_BUCKETS.len() + 1],
        };
        for bucket in &mut histogram.buckets {
            *bucket = read_u64(r)?;
        }
        if let Some(name) = intern_metric(&name) {
            metrics.restore_histogram(name, histogram);
        }
    }
    Ok(metrics)
}

/// Writes one atomic campaign snapshot (see `DESIGN.md` for the layout).
fn write_checkpoint(
    policy: &CheckpointPolicy,
    spec: &CampaignSpec,
    fuzzer: &dyn Fuzzer,
    pool: &ExecPool,
    metrics: &Metrics,
    state: &CampaignState,
    sink: &SinkHandle,
) -> Result<(), RunError> {
    // Flush the telemetry log first so it never lags the snapshot: after
    // a hard kill the on-disk log is then always a clean prefix of the
    // uninterrupted stream that reaches at least the resume point.
    sink.flush();
    std::fs::create_dir_all(policy.dir()).map_err(PersistError::Io)?;
    let cfg = spec.config();
    let (pool_batches, pool_cases) = pool.counters();
    let mut snap = SnapshotWriter::new(CHECKPOINT_KIND);
    snap.section("spec", |w| {
        write_u32(w, core_index(spec.core()))?;
        write_u64(w, cfg.cases)?;
        write_u64(w, cfg.sample_every)?;
        write_u64(w, cfg.run.max_steps)?;
        write_u64(w, cfg.run.batch as u64)
    })?;
    snap.section("pool", |w| {
        write_u64(w, pool_batches)?;
        write_u64(w, pool_cases)
    })?;
    snap.section("state", |w| state.save(w))?;
    snap.section("metrics", |w| write_metrics(w, &metrics.snapshot()))?;
    snap.section("fuzzer", |w| {
        write_string(w, fuzzer.name())?;
        fuzzer.save_state(w)
    })?;
    snap.write_atomic(&policy.snapshot_path())?;
    if !state.quarantined.entries().is_empty() {
        std::fs::write(policy.quarantine_path(), state.quarantined.to_text())
            .map_err(PersistError::Io)?;
    }
    Ok(())
}

/// Restores a checkpoint into the campaign's state, pool counters,
/// metrics and fuzzer, after validating it matches the spec.
fn restore_checkpoint(
    path: &Path,
    spec: &CampaignSpec,
    fuzzer: &mut dyn Fuzzer,
    pool: &mut ExecPool,
    metrics: &mut Metrics,
    state: &mut CampaignState,
) -> Result<(), RunError> {
    let snap = SnapshotReader::read_path(path)?;
    snap.expect_kind(CHECKPOINT_KIND)?;
    let cfg = spec.config();

    let mut r = snap.section("spec")?;
    if read_u32(&mut r)? != core_index(spec.core())
        || read_u64(&mut r)? != cfg.cases
        || read_u64(&mut r)? != cfg.sample_every
        || read_u64(&mut r)? != cfg.run.max_steps
        || read_u64(&mut r)? != cfg.run.batch as u64
    {
        return Err(corrupt("checkpoint was taken under a different campaign spec").into());
    }

    let mut r = snap.section("pool")?;
    let pool_batches = read_u64(&mut r)?;
    let pool_cases = read_u64(&mut r)?;
    pool.restore_counters(pool_batches, pool_cases);

    let mut r = snap.section("state")?;
    *state = CampaignState::load(&mut r, state.cumulative.len())?;

    let mut r = snap.section("metrics")?;
    *metrics = read_metrics(&mut r)?;

    let mut r = snap.section("fuzzer")?;
    let name = read_string(&mut r)?;
    if name != fuzzer.name() {
        return Err(corrupt(format!(
            "checkpoint belongs to fuzzer {name:?}, not {:?}",
            fuzzer.name()
        ))
        .into());
    }
    fuzzer.load_state(&mut r)?;
    Ok(())
}

/// Runs one fuzzing campaign.
///
/// The same runner serves HFL (which implements [`Fuzzer`]) and the four
/// baselines, guaranteeing identical measurement: per-case coverage
/// fraction feeds Eq. (1), cumulative-growth feeds the fuzzers' corpus
/// scheduling and HFL's reset module, and every case is differentially
/// tested. See the module docs for the round/batch execution model and
/// the crash-safety contract (checkpoint/resume, fault containment).
///
/// # Errors
/// Returns [`RunError`] when a checkpoint cannot be written (I/O, or the
/// fuzzer does not support checkpointing), a resume snapshot is corrupt
/// or does not match the spec, or the fuzzer cannot compose a round
/// ([`RunError::Compose`] — a mis-paired fuzzer composition). Faulty
/// *cases* never error: they are contained and reported in the result.
pub fn run_campaign(
    fuzzer: &mut dyn Fuzzer,
    spec: &CampaignSpec,
) -> Result<CampaignResult, RunError> {
    let started = Instant::now();
    let cfg = spec.config();
    let sink = spec.sink();
    fuzzer.attach_sink(sink.clone());
    let mut metrics = Metrics::new();
    let mut builder = Executor::builder(spec.core())
        .max_steps(cfg.run.max_steps)
        .mhart(spec.is_mhart());
    if let Some(quirks) = spec.quirks() {
        builder = builder.quirks(quirks.clone());
    }
    let mut pool =
        ExecPool::new(builder.build(), spec.threads()).with_fault_policy(spec.fault_policy());
    if let Some(plan) = spec.fault_plan() {
        pool = pool.with_shared_fault_plan(plan);
    }
    let map_len = pool.coverage_map().len();
    let totals = {
        let map = pool.coverage_map();
        (
            map.len_of(CoverageKind::Condition),
            map.len_of(CoverageKind::Line),
            map.len_of(CoverageKind::Fsm),
        )
    };
    let mut state = CampaignState::fresh(map_len);
    if let Some(snapshot) = spec.resume_from() {
        restore_checkpoint(snapshot, spec, fuzzer, &mut pool, &mut metrics, &mut state)?;
    }

    while state.executed < cfg.cases {
        if spec.stop_requested() {
            break;
        }
        run_round(fuzzer, &mut pool, cfg, sink, &mut metrics, &mut state, None)?;
        // Periodic (and operator-requested) checkpoints land on round
        // boundaries, where every fuzzer's pending queues are empty — the
        // invariant that makes a resumed run bit-identical to an
        // uninterrupted one. The checkpoint-now request is claimed even
        // without a policy so a stale request cannot linger.
        let requested = spec.take_checkpoint_request();
        if let Some(policy) = spec.checkpoint() {
            let periodic = state.round_index.is_multiple_of(policy.every_rounds());
            if (periodic || requested) && state.executed < cfg.cases {
                write_checkpoint(policy, spec, fuzzer, &pool, &metrics, &state, sink)?;
            }
        }
    }
    // Final (or graceful-shutdown) snapshot.
    if let Some(policy) = spec.checkpoint() {
        write_checkpoint(policy, spec, fuzzer, &pool, &metrics, &state, sink)?;
    }

    let mut sigs: Vec<Signature> = state.first_detection.iter().map(|(s, _)| *s).collect();
    sigs.sort_unstable();
    let throughput = pool.throughput(started.elapsed(), state.instructions_executed);
    sink.flush();
    let sink_error = sink.take_error().map(|e| e.to_string());
    Ok(CampaignResult {
        fuzzer: fuzzer.name().to_owned(),
        core: spec.core(),
        curve: state.curve,
        totals,
        unique_signatures: state.signatures.unique(),
        total_mismatches: state.signatures.total_mismatches,
        signatures: sigs,
        cumulative: state.cumulative,
        first_detection: state.first_detection,
        instructions_executed: state.instructions_executed,
        trigger_corpus: state.trigger_corpus,
        throughput,
        metrics: metrics.snapshot(),
        completed: state.executed >= cfg.cases,
        aborted_cases: state.aborted_cases,
        quarantined: state.quarantined,
        sink_error,
    })
}

/// A case that grew its campaign's cumulative coverage, captured for the
/// fleet's shared corpus: the decodable body plus the case's own (not
/// cumulative) coverage snapshot, which is the dedup/distillation key.
/// Public because it travels over the distributed fleet's wire protocol
/// ([`crate::wire::Payload::EpochResult`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestedCase {
    /// 1-based case index within the harvesting member's campaign.
    pub case: u64,
    /// The decodable instructions of the test body.
    pub body: Vec<hfl_riscv::Instruction>,
    /// The case's own coverage snapshot.
    pub coverage: CoverageSnapshot,
}

/// Runs exactly one campaign round against `pool`, advancing `state`:
/// generate → execute → per-case accounting/feedback → round telemetry.
///
/// This is the shared engine behind [`run_campaign`] (which wraps it in
/// the stop/checkpoint loop) and the fleet orchestrator in
/// `crate::fleet` (which drives one state per member and passes
/// `harvest` to capture coverage-gaining cases for the shared corpus).
/// Stop checks and checkpoints live in the callers: a round is the
/// atomic unit of progress.
///
/// # Errors
/// Returns [`RunError::Compose`] when the fuzzer cannot compose the
/// round ([`Fuzzer::try_next_round`]) or composes an empty one. No case
/// has executed and no state has advanced when this happens, so the
/// campaign remains checkpointable/resumable.
pub(crate) fn run_round(
    fuzzer: &mut dyn Fuzzer,
    pool: &mut ExecPool,
    cfg: &CampaignConfig,
    sink: &SinkHandle,
    metrics: &mut Metrics,
    state: &mut CampaignState,
    mut harvest: Option<&mut Vec<HarvestedCase>>,
) -> Result<(), RunError> {
    let map_len = pool.coverage_map().len();
    let round_index = state.round_index;
    let want = (cfg.cases - state.executed).min(cfg.run.batch.max(1) as u64) as usize;
    if sink.enabled() {
        sink.emit(&Event::RoundStart {
            round: round_index,
            planned: want as u64,
        });
    }
    let generate_started = Instant::now();
    let composed = fuzzer.try_next_round(want);
    metrics.observe_duration("phase.generate.seconds", generate_started.elapsed());
    let mut round = composed?;
    if round.is_empty() {
        return Err(RunError::Compose(ComposeError::new(
            "round engine",
            fuzzer.name(),
            "next_round produced no cases",
        )));
    }
    round.truncate(want);
    let execute_started = Instant::now();
    let outcomes = pool.run_batch_contained(&round);
    metrics.observe_duration("phase.execute.seconds", execute_started.elapsed());
    let batch = pool.last_batch();
    // Pack the round's coverage bitmaps into one structure-of-arrays
    // buffer so the cumulative union below streams contiguous rows
    // instead of chasing per-case snapshots.
    let coverage_rows = CoverageBatch::from_outcomes(&outcomes);
    let train_started = Instant::now();
    let mut difftest_seconds = 0.0f64;
    for (slot, (body, outcome)) in round.iter().zip(outcomes).enumerate() {
        state.executed += 1;
        let result = match outcome {
            CaseOutcome::Completed(result) => result,
            CaseOutcome::TimedOut { attempts } => {
                abort_case(fuzzer, metrics, state, body);
                if sink.enabled() {
                    sink.emit(&Event::CaseAborted {
                        round: round_index,
                        case: state.executed,
                        reason: String::from("timeout"),
                        attempts: u64::from(attempts),
                    });
                }
                state.maybe_sample(cfg, pool.coverage_map());
                continue;
            }
            CaseOutcome::Poisoned { attempts, reason } => {
                // The offending body is a proof of concept: it crashed
                // the worker, which is itself a finding.
                state.quarantined.push(
                    poc_name(format!("case-{}", state.executed), body),
                    decodable_instructions(body),
                );
                abort_case(fuzzer, metrics, state, body);
                if sink.enabled() {
                    sink.emit(&Event::CaseAborted {
                        round: round_index,
                        case: state.executed,
                        reason,
                        attempts: u64::from(attempts),
                    });
                }
                state.maybe_sample(cfg, pool.coverage_map());
                continue;
            }
        };
        state.instructions_executed += result.dut.steps;
        difftest_seconds += result.timing.difftest_seconds;
        let newly = state.cumulative.union_counting(coverage_rows.row(slot));
        let gained = newly > 0;
        let gained_bits = newly as u64;
        let coverage = result.dut.coverage.count() as f32 / map_len as f32;
        if gained {
            if let Some(harvest) = harvest.as_deref_mut() {
                harvest.push(HarvestedCase {
                    case: state.executed,
                    body: decodable_instructions(body),
                    coverage: result.dut.coverage.clone(),
                });
            }
        }
        let mut new_signature = None;
        for mismatch in &result.mismatches {
            if state.signatures.insert(mismatch) {
                if new_signature.is_none() {
                    new_signature = Some(mismatch.signature().0);
                }
                state
                    .first_detection
                    .push((mismatch.signature(), state.executed));
                state.trigger_corpus.push(
                    poc_name(mismatch.signature().to_string(), body),
                    decodable_instructions(body),
                );
            }
        }
        metrics.inc("campaign.cases", 1);
        metrics.inc("campaign.mismatches", result.mismatches.len() as u64);
        if sink.enabled() {
            sink.emit(&Event::CaseExecuted {
                round: round_index,
                case: state.executed,
                body_len: body.len() as u64,
                gained_bits,
                retired: result.dut.steps,
                mismatches: result.mismatches.len() as u64,
                new_signature,
            });
        }
        let case_bits = fuzzer
            .wants_case_bits()
            .then(|| std::sync::Arc::new(result.dut.coverage.to_bit_labels()));
        let terminated = result.dut.halt != hfl_grm::HaltReason::StepBudget;
        fuzzer.feedback(
            body,
            Feedback {
                gained_coverage: gained,
                coverage,
                case_bits,
                terminated,
            },
        );
        state.maybe_sample(cfg, pool.coverage_map());
    }
    // Feedback drives the fuzzer's learning (PPO updates, predictor
    // fine-tuning); what is left after subtracting difftest is pure
    // training cost. Difftest itself runs inside the pool workers, so
    // its wall-clock is collected from the per-case timings.
    metrics.observe("phase.difftest.seconds", difftest_seconds);
    metrics.observe("phase.train.seconds", train_started.elapsed().as_secs_f64());
    metrics.inc("campaign.rounds", 1);
    if sink.enabled() {
        // Occupancy first: `RoundEnd` closes the round, so a replayer
        // can resolve the batch's utilisation when it sees it.
        sink.emit(&Event::PoolOccupancy {
            round: round_index,
            threads: pool.threads() as u64,
            occupancy: batch.occupancy,
            exec_seconds: batch.exec_seconds,
            busy_seconds: batch.busy_seconds,
        });
        let map = pool.coverage_map();
        sink.emit(&Event::RoundEnd {
            round: round_index,
            executed: state.executed,
            condition: state.cumulative.count_of(map, CoverageKind::Condition) as u64,
            line: state.cumulative.count_of(map, CoverageKind::Line) as u64,
            fsm: state.cumulative.count_of(map, CoverageKind::Fsm) as u64,
            unique_signatures: state.signatures.unique() as u64,
        });
    }
    state.round_index += 1;
    Ok(())
}

/// Shared bookkeeping for an abandoned case: counters plus the feedback
/// call every fuzzer needs to keep its pending queues consistent (an
/// abandoned case "did not terminate and gained nothing").
fn abort_case(
    fuzzer: &mut dyn Fuzzer,
    metrics: &mut Metrics,
    state: &mut CampaignState,
    body: &TestBody,
) {
    state.aborted_cases += 1;
    metrics.inc("campaign.cases", 1);
    metrics.inc("campaign.cases_aborted", 1);
    fuzzer.feedback(
        body,
        Feedback {
            gained_coverage: false,
            coverage: 0.0,
            case_bits: None,
            terminated: false,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{CascadeFuzzer, DifuzzRtlFuzzer};
    use crate::exec::FaultKind;
    use crate::fuzzer::{HflConfig, HflFuzzer};

    fn spec(core: CoreKind, config: CampaignConfig) -> CampaignSpec {
        CampaignSpec::builder(core, config)
            .build()
            .expect("valid spec")
    }

    /// A scratch directory under the system temp dir, unique per test,
    /// cleaned before use so reruns start fresh.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hfl-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn campaign_produces_monotone_curves() {
        let mut fuzzer = DifuzzRtlFuzzer::new(5, 12);
        let result = run_campaign(
            &mut fuzzer,
            &spec(
                CoreKind::Rocket,
                CampaignConfig {
                    cases: 40,
                    sample_every: 10,
                    run: RunConfig::quick().with_max_steps(20_000),
                },
            ),
        )
        .expect("campaign runs");
        assert_eq!(result.fuzzer, "DifuzzRTL");
        assert!(result.completed);
        assert_eq!(result.aborted_cases, 0);
        assert!(result.sink_error.is_none());
        assert_eq!(result.curve.len(), 4);
        for pair in result.curve.windows(2) {
            assert!(pair[1].condition >= pair[0].condition);
            assert!(pair[1].line >= pair[0].line);
            assert!(pair[1].fsm >= pair[0].fsm);
        }
        let (c, l, f) = result.final_counts();
        assert!(c > 0 && l > 0 && f > 0);
        assert!(result.final_fraction(CoverageKind::Line) > 0.0);
        assert!(result.final_fraction(CoverageKind::Line) <= 1.0);
    }

    #[test]
    fn campaign_finds_rocket_bugs_with_random_fuzzing() {
        // Rocket carries K2 (sc succeeds without reservation) and K3
        // (unimplemented CSR nop); random fuzzing over a few hundred cases
        // reliably trips at least one.
        let mut fuzzer = DifuzzRtlFuzzer::new(11, 16);
        let result = run_campaign(
            &mut fuzzer,
            &spec(CoreKind::Rocket, CampaignConfig::quick(150)),
        )
        .expect("campaign runs");
        assert!(
            result.unique_signatures > 0,
            "expected at least one injected-bug signature"
        );
        assert!(result.total_mismatches >= result.unique_signatures as u64);
        assert!(!result.first_detection.is_empty());
    }

    #[test]
    fn hfl_runs_through_the_same_campaign_harness() {
        let mut cfg = HflConfig::small();
        cfg.generator.hidden = 16;
        cfg.predictor.hidden = 16;
        cfg.test_len = 6;
        let mut hfl = HflFuzzer::new(cfg);
        let result = run_campaign(&mut hfl, &spec(CoreKind::Rocket, CampaignConfig::quick(30)))
            .expect("campaign runs");
        assert_eq!(result.fuzzer, "HFL");
        assert!(result.final_counts().0 > 0);
        assert_eq!(hfl.stats().cases, 30);
    }

    #[test]
    fn cascade_is_feedback_free_but_still_measured() {
        let mut fuzzer = CascadeFuzzer::new(2, 60);
        let result = run_campaign(
            &mut fuzzer,
            &spec(CoreKind::Boom, CampaignConfig::quick(10)),
        )
        .expect("campaign runs");
        assert!(result.final_counts().1 > 0);
        assert_eq!(result.core, CoreKind::Boom);
    }

    #[test]
    fn batch_one_equals_the_sequential_loop_and_throughput_is_reported() {
        // batch = 1 is the definitional sequential campaign; any thread
        // count must reproduce it bit for bit since every round holds a
        // single case.
        let run = |threads| {
            let mut fuzzer = DifuzzRtlFuzzer::new(7, 10);
            run_campaign(
                &mut fuzzer,
                &CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(25))
                    .threads(threads)
                    .build()
                    .expect("valid spec"),
            )
            .expect("campaign runs")
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.signatures, b.signatures);
        assert_eq!(a.first_detection, b.first_detection);
        assert_eq!(a.throughput.cases, 25);
        assert!(a.throughput.cases_per_second > 0.0);
        assert_eq!(b.throughput.threads, 4);
    }

    #[test]
    fn quirks_spec_restricts_the_defect_catalogue() {
        // An empty defect configuration means DUT == GRM: a campaign can
        // never observe a mismatch.
        let mut fuzzer = DifuzzRtlFuzzer::new(11, 16);
        let result = run_campaign(
            &mut fuzzer,
            &CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(60))
                .quirks(hfl_grm::cpu::Quirks::default())
                .build()
                .expect("valid spec"),
        )
        .expect("campaign runs");
        assert_eq!(result.unique_signatures, 0, "defect-free DUT");
    }

    #[test]
    fn builder_rejects_invalid_specs() {
        let ok = CampaignConfig::quick(10);
        let check =
            |config, expected: SpecError| match CampaignSpec::builder(CoreKind::Rocket, config)
                .build()
            {
                Err(err) => assert_eq!(err.to_string(), expected.to_string()),
                Ok(_) => panic!("expected {expected}"),
            };
        check(CampaignConfig { cases: 0, ..ok }, SpecError::ZeroCases);
        check(
            CampaignConfig {
                sample_every: 0,
                ..ok
            },
            SpecError::ZeroSampleEvery,
        );
        check(
            CampaignConfig {
                run: ok.run.with_max_steps(0),
                ..ok
            },
            SpecError::ZeroMaxSteps,
        );
        check(
            CampaignConfig {
                run: RunConfig { batch: 0, ..ok.run },
                ..ok
            },
            SpecError::ZeroBatch,
        );
        assert!(matches!(
            CampaignSpec::builder(CoreKind::Rocket, ok)
                .threads(0)
                .build(),
            Err(SpecError::ZeroThreads)
        ));
        // Building a spec starts no thread, so the cap is checked as is.
        assert!(matches!(
            CampaignSpec::builder(CoreKind::Rocket, ok)
                .threads(MAX_THREADS + 1)
                .build(),
            Err(SpecError::TooManyThreads)
        ));
        assert!(CampaignSpec::builder(CoreKind::Rocket, ok)
            .threads(MAX_THREADS)
            .build()
            .is_ok());
        assert!(matches!(
            CampaignSpec::builder(CoreKind::Rocket, ok)
                .checkpoint(CheckpointPolicy::new("/tmp/unused", 0))
                .build(),
            Err(SpecError::ZeroCheckpointInterval)
        ));
    }

    #[test]
    fn transient_faults_leave_the_measurement_unchanged() {
        // A transient worker panic costs one retry; the retried case
        // completes normally, so the campaign's science output must be
        // bit-identical to a fault-free run.
        let clean = {
            let mut fuzzer = DifuzzRtlFuzzer::new(9, 12);
            run_campaign(
                &mut fuzzer,
                &spec(CoreKind::Rocket, CampaignConfig::quick(20)),
            )
            .expect("campaign runs")
        };
        let faulted = {
            let mut fuzzer = DifuzzRtlFuzzer::new(9, 12);
            run_campaign(
                &mut fuzzer,
                &CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(20))
                    .fault_plan(
                        FaultPlan::new()
                            .fail_at(4, FaultKind::Panic)
                            .fail_at(11, FaultKind::IoError),
                    )
                    .build()
                    .expect("valid spec"),
            )
            .expect("campaign runs")
        };
        assert_eq!(faulted.aborted_cases, 0);
        assert_eq!(clean.curve, faulted.curve);
        assert_eq!(clean.signatures, faulted.signatures);
        assert_eq!(clean.first_detection, faulted.first_detection);
        assert_eq!(clean.cumulative, faulted.cumulative);
    }

    #[test]
    fn sticky_faults_are_quarantined_and_the_campaign_completes() {
        let mut fuzzer = DifuzzRtlFuzzer::new(9, 12);
        let result = run_campaign(
            &mut fuzzer,
            &CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(20))
                .fault_plan(FaultPlan::new().fail_at_persistent(5, FaultKind::Panic))
                .fault_policy(FaultPolicy {
                    max_retries: 1,
                    fuel: None,
                })
                .build()
                .expect("valid spec"),
        )
        .expect("campaign runs");
        assert!(result.completed, "faults must not abort the campaign");
        assert_eq!(result.aborted_cases, 1);
        let entries = result.quarantined.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "case-5");
        let cases = result
            .metrics
            .counters
            .iter()
            .find(|(name, _)| name == "campaign.cases")
            .map(|(_, v)| *v);
        assert_eq!(cases, Some(20), "aborted cases still count as cases");
        let aborted = result
            .metrics
            .counters
            .iter()
            .find(|(name, _)| name == "campaign.cases_aborted")
            .map(|(_, v)| *v);
        assert_eq!(aborted, Some(1));
    }

    /// Delegates to an inner fuzzer and requests a stop on the shared
    /// control handle after a fixed number of generation rounds — a
    /// deterministic stand-in for an operator interrupting the campaign.
    struct StopAfterRounds<F> {
        inner: F,
        rounds_left: u32,
        stop: StopHandle,
    }

    impl<F: Fuzzer> Fuzzer for StopAfterRounds<F> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn next_case(&mut self) -> TestBody {
            self.inner.next_case()
        }
        fn next_round(&mut self, n: usize) -> Vec<TestBody> {
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    self.stop.request_stop();
                }
            }
            self.inner.next_round(n)
        }
        fn feedback(&mut self, body: &TestBody, feedback: Feedback) {
            self.inner.feedback(body, feedback);
        }
        fn save_state(&self, w: &mut dyn std::io::Write) -> Result<(), PersistError> {
            self.inner.save_state(w)
        }
        fn load_state(&mut self, r: &mut dyn std::io::Read) -> Result<(), PersistError> {
            self.inner.load_state(r)
        }
    }

    #[test]
    fn graceful_stop_then_resume_matches_an_uninterrupted_run() {
        let dir = scratch_dir("resume-unit");
        let config = CampaignConfig::quick(40);
        let uninterrupted = {
            let mut fuzzer = DifuzzRtlFuzzer::new(21, 12);
            run_campaign(&mut fuzzer, &spec(CoreKind::Rocket, config)).expect("campaign runs")
        };

        let stop = StopHandle::new();
        let mut first = StopAfterRounds {
            inner: DifuzzRtlFuzzer::new(21, 12),
            rounds_left: 3,
            stop: stop.clone(),
        };
        let partial = run_campaign(
            &mut first,
            &CampaignSpec::builder(CoreKind::Rocket, config)
                .checkpoint(CheckpointPolicy::new(&dir, 1))
                .control(stop)
                .build()
                .expect("valid spec"),
        )
        .expect("partial campaign runs");
        assert!(!partial.completed, "the stop flag must interrupt the run");

        let snapshot = CheckpointPolicy::latest_snapshot(&dir).expect("snapshot written");
        let mut second = DifuzzRtlFuzzer::new(999, 12); // seed is overwritten by the restore
        let resumed = run_campaign(
            &mut second,
            &CampaignSpec::builder(CoreKind::Rocket, config)
                .resume_from(snapshot)
                .build()
                .expect("valid spec"),
        )
        .expect("resumed campaign runs");

        assert!(resumed.completed);
        assert_eq!(uninterrupted.curve, resumed.curve);
        assert_eq!(uninterrupted.signatures, resumed.signatures);
        assert_eq!(uninterrupted.first_detection, resumed.first_detection);
        assert_eq!(uninterrupted.cumulative, resumed.cumulative);
        assert_eq!(uninterrupted.trigger_corpus, resumed.trigger_corpus);
        assert_eq!(
            uninterrupted.instructions_executed,
            resumed.instructions_executed
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_mismatched_spec_or_fuzzer() {
        let dir = scratch_dir("resume-mismatch");
        let config = CampaignConfig::quick(20);
        let mut fuzzer = DifuzzRtlFuzzer::new(3, 12);
        run_campaign(
            &mut fuzzer,
            &CampaignSpec::builder(CoreKind::Rocket, config)
                .checkpoint(CheckpointPolicy::new(&dir, 1))
                .build()
                .expect("valid spec"),
        )
        .expect("campaign runs");
        let snapshot = CheckpointPolicy::latest_snapshot(&dir).expect("snapshot written");

        // Different case budget: the snapshot does not belong to this spec.
        let mut other = DifuzzRtlFuzzer::new(3, 12);
        let err = run_campaign(
            &mut other,
            &CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(25))
                .resume_from(&snapshot)
                .build()
                .expect("valid spec"),
        )
        .expect_err("spec mismatch must fail");
        assert!(err.to_string().contains("different campaign spec"), "{err}");

        // Different fuzzer: the embedded state is not interchangeable.
        let mut cascade = CascadeFuzzer::new(2, 60);
        let err = run_campaign(
            &mut cascade,
            &CampaignSpec::builder(CoreKind::Rocket, config)
                .resume_from(&snapshot)
                .build()
                .expect("valid spec"),
        )
        .expect_err("fuzzer mismatch must fail");
        assert!(err.to_string().contains("belongs to fuzzer"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_the_old_sectioned_checkpoint_layout() {
        let dir = scratch_dir("old-layout");
        let config = CampaignConfig::quick(20);
        let policy = CheckpointPolicy::new(&dir, 1);
        run_campaign(
            &mut DifuzzRtlFuzzer::new(3, 12),
            &CampaignSpec::builder(CoreKind::Rocket, config)
                .checkpoint(policy.clone())
                .build()
                .expect("valid spec"),
        )
        .expect("campaign runs");

        // Rewrite the snapshot in the layout checkpoints had before the
        // campaign state became one `state` section.
        let current = SnapshotReader::read_path(&policy.snapshot_path()).expect("snapshot");
        let section = |name| current.section(name).expect("section");
        let map_len = Executor::builder(CoreKind::Rocket)
            .build()
            .coverage_map()
            .len();
        let state = CampaignState::load(&mut section("state"), map_len).expect("state");
        let mut old = SnapshotWriter::new(CHECKPOINT_KIND);
        for name in [
            "spec",
            "progress",
            "coverage",
            "signatures",
            "detections",
            "curve",
            "corpus",
            "quarantine",
            "metrics",
            "fuzzer",
        ] {
            old.section(name, |w| match name {
                "progress" => {
                    write_u64(w, state.executed)?;
                    write_u64(w, state.round_index)?;
                    write_u64(w, state.instructions_executed)?;
                    write_u64(w, state.aborted_cases)?;
                    w.extend_from_slice(section("pool"));
                    Ok(())
                }
                "coverage" => {
                    write_usize(w, state.cumulative.len())?;
                    write_u64_vec(w, state.cumulative.words())
                }
                "signatures" => state.signatures.save(w),
                "detections" => {
                    write_usize(w, state.first_detection.len())?;
                    for (signature, case) in &state.first_detection {
                        write_u64(w, signature.0)?;
                        write_u64(w, *case)?;
                    }
                    Ok(())
                }
                "curve" => {
                    write_usize(w, state.curve.len())?;
                    for s in &state.curve {
                        for v in [s.cases, s.condition as u64, s.line as u64, s.fsm as u64] {
                            write_u64(w, v)?;
                        }
                    }
                    Ok(())
                }
                "corpus" => state.trigger_corpus.save(w),
                "quarantine" => state.quarantined.save(w),
                copied => {
                    w.extend_from_slice(section(copied));
                    Ok(())
                }
            })
            .expect("section");
        }
        let old_path = dir.join("old.ckpt");
        old.write_atomic(&old_path).expect("write the old layout");

        let err = run_campaign(
            &mut DifuzzRtlFuzzer::new(3, 12),
            &CampaignSpec::builder(CoreKind::Rocket, config)
                .resume_from(&old_path)
                .build()
                .expect("valid spec"),
        )
        .expect_err("the old layout must not resume");
        assert!(
            matches!(
                &err,
                RunError::Persist(PersistError::MissingSection { section }) if section == "pool"
            ),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod trigger_tests {
    use super::*;
    use crate::baselines::DifuzzRtlFuzzer;
    use crate::corpus::Corpus;

    #[test]
    fn trigger_corpus_replays_to_the_same_signatures() {
        // Run a campaign, then re-execute each saved trigger case: every
        // one must reproduce its signature — the corpus is a regression
        // suite for the injected defects.
        let mut fuzzer = DifuzzRtlFuzzer::new(12, 16);
        let result = run_campaign(
            &mut fuzzer,
            &CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(150))
                .build()
                .expect("valid spec"),
        )
        .expect("campaign runs");
        assert!(!result.trigger_corpus.entries().is_empty(), "need triggers");
        let mut executor = Executor::builder(CoreKind::Rocket).build();
        for entry in result.trigger_corpus.entries() {
            let replay = executor.run_case(&entry.body);
            let reproduced = replay
                .mismatches
                .iter()
                .any(|m| m.signature().to_string() == entry.name);
            assert!(reproduced, "{} did not reproduce", entry.name);
        }
        // And the corpus survives text round-tripping.
        let text = result.trigger_corpus.to_text();
        assert_eq!(Corpus::from_text(&text).unwrap(), result.trigger_corpus);
    }
}
