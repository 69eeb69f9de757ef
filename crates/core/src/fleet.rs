//! The fleet orchestrator: N member campaigns sharing one corpus, one
//! merged coverage view and one case budget.
//!
//! HFL's headline result is per-campaign sample efficiency; production
//! fuzzing runs *many* campaigns — different strategies, seeds and cores
//! — whose discoveries should compound instead of being recomputed. The
//! fleet layer turns the single-campaign runner into that multi-tenant
//! system:
//!
//! - [`run_fleet`] drives each [`FleetMember`] through **epochs**. Within
//!   an epoch every member runs its granted slice of the fleet's
//!   per-epoch case budget through the same round engine as
//!   [`crate::campaign::run_campaign`], so member accounting is identical
//!   to standalone-campaign accounting.
//! - Cases that grew a member's cumulative coverage are harvested into a
//!   shared [`GlobalCorpus`], deduplicated by coverage signature (full
//!   snapshot comparison on hash collision) and distilled to a minimal
//!   covering set between epochs — the INSTILLER-style pruning that keeps
//!   the store small and diverse.
//! - A budget scheduler reallocates the next epoch's cases toward members
//!   with the best marginal-coverage rate (largest-remainder
//!   apportionment over `rate + 1` weights with a per-member floor, so no
//!   member starves and every case is assigned).
//! - The merged coverage curve unions member bitmaps **per core** in
//!   member-index order — a commutative, associative bitmap union whose
//!   result depends only on the members' cumulative sets.
//!
//! # One runtime, two member transports
//!
//! [`run_fleet`] and [`crate::fleet_dist::run_fleet_dist`] share one
//! private driver and epoch loop in this module. They differ only in how
//! the driver reaches its members: in-process slots run slices inline on
//! the calling thread and record member `phase.*` metrics, while the
//! wire coordinator runs them on workers, which discard theirs.
//!
//! # Determinism contract
//!
//! Everything the fleet reports outside of wall-clock metrics is a
//! function of member indices and case counts, never of time or thread
//! interleaving: members run their epoch slices in member order against
//! per-member pools (which already guarantee thread-count-independent
//! results), corpus insertion happens in member order, distillation and
//! scheduling are deterministic algorithms with index tie-breaks. The
//! fleet's event stream ([`Event::EpochStart`], [`Event::MemberProgress`],
//! [`Event::CorpusSync`], [`Event::BudgetRealloc`], [`Event::EpochEnd`])
//! and merged curve are therefore bit-identical at any thread count.
//! Wall-clock lives only in the `fleet.sync.seconds`,
//! `fleet.distill.seconds` and `fleet.schedule.seconds` histograms.
//!
//! # Crash safety
//!
//! With a [`CheckpointPolicy`], the fleet writes one atomic snapshot
//! (`fleet.ckpt`, reusing the versioned checksummed container) covering
//! every member's campaign state and fuzzer, the shared corpus, the
//! merged curve, the budget vector and the metrics registry. Snapshots
//! hold epoch-boundary state only (a member round that fails mid-epoch
//! leaves the last epoch close as the latest snapshot); resuming via
//! [`FleetSpecBuilder::resume_from`] reproduces the uninterrupted fleet
//! bit for bit.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hfl_dut::{CoreKind, CoverageKind, CoverageMap, CoverageSnapshot};
use hfl_nn::persist::{
    corrupt, read_string, read_u32, read_u64, read_usize, write_string, write_u32, write_u64,
    write_usize, Codec, SnapshotReader, SnapshotWriter,
};
use hfl_nn::PersistError;

use crate::baselines::Fuzzer;
use crate::campaign::{
    core_index, read_metrics, run_round, write_metrics, CampaignConfig, CampaignState,
    CheckpointPolicy, CoverageSample, HarvestedCase, RunConfig, RunError, SpecError,
};
use crate::control::StopHandle;
use crate::corpus::GlobalCorpus;
use crate::difftest::Signature;
use crate::exec::ExecPool;
use crate::harness::Executor;
use crate::obs::{Event, Metrics, MetricsSnapshot, SinkHandle};

const FLEET_CHECKPOINT_KIND: &str = "fleet";
/// Default bound on the shared corpus.
const DEFAULT_CORPUS_CAPACITY: usize = 256;

/// Budget and batching parameters of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of epochs to run.
    pub epochs: u64,
    /// Total cases the scheduler apportions across members each epoch.
    pub cases_per_epoch: u64,
    /// Shared execution parameters, applied to every member's round
    /// engine (see [`RunConfig`]).
    pub run: RunConfig,
}

impl FleetConfig {
    /// A quick fleet (tests and default bench settings).
    #[must_use]
    pub fn quick(epochs: u64, cases_per_epoch: u64) -> FleetConfig {
        FleetConfig {
            epochs,
            cases_per_epoch,
            run: RunConfig::quick(),
        }
    }

    /// Sets the per-round batch size (builder style).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> FleetConfig {
        self.run = self.run.with_batch(batch);
        self
    }

    /// Validates the epoch count, the per-epoch budget and then the
    /// shared knobs ([`RunConfig::validate`]). The spec builder and
    /// [`crate::spec::RunRequest::validate`] both call this.
    ///
    /// # Errors
    /// The first violated rule: zero epochs, a zero per-epoch budget, or
    /// a [`RunConfig`] error.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.epochs == 0 {
            return Err(SpecError::ZeroEpochs);
        }
        if self.cases_per_epoch == 0 {
            return Err(SpecError::ZeroCasesPerEpoch);
        }
        self.run.validate()
    }
}

/// One member campaign of a fleet: a display name, the core it fuzzes
/// and its fuzzing strategy.
pub struct FleetMember {
    name: String,
    core: CoreKind,
    fuzzer: Box<dyn Fuzzer>,
}

impl FleetMember {
    /// Wraps a fuzzer as a fleet member. Names identify harvested corpus
    /// entries (`"<name>-case-<index>"`) and should be unique within the
    /// fleet.
    #[must_use]
    pub fn new(name: impl Into<String>, core: CoreKind, fuzzer: Box<dyn Fuzzer>) -> FleetMember {
        FleetMember {
            name: name.into(),
            core,
            fuzzer,
        }
    }

    /// The member's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The core this member fuzzes.
    #[must_use]
    pub fn core(&self) -> CoreKind {
        self.core
    }

    /// The member's fuzzer.
    #[must_use]
    pub fn fuzzer(&self) -> &dyn Fuzzer {
        self.fuzzer.as_ref()
    }
}

impl fmt::Debug for FleetMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetMember")
            .field("name", &self.name)
            .field("core", &self.core)
            .field("fuzzer", &self.fuzzer.name())
            .finish()
    }
}

/// Everything that defines one fleet run except the members themselves
/// (members carry non-cloneable fuzzer state and are passed to
/// [`run_fleet`] directly). Built and validated by [`FleetSpec::builder`].
///
/// # Examples
///
/// ```
/// use hfl::fleet::{FleetConfig, FleetSpec};
///
/// let spec = FleetSpec::builder(FleetConfig::quick(3, 30))
///     .corpus_capacity(64)
///     .build()
///     .expect("a valid spec");
/// assert_eq!(spec.config().epochs, 3);
/// ```
#[derive(Debug, Clone)]
pub struct FleetSpec {
    config: FleetConfig,
    sink: SinkHandle,
    checkpoint: Option<CheckpointPolicy>,
    resume_from: Option<PathBuf>,
    corpus_capacity: usize,
    control: Option<StopHandle>,
}

impl FleetSpec {
    /// Starts building a spec for one fleet budget.
    #[must_use]
    pub fn builder(config: FleetConfig) -> FleetSpecBuilder {
        FleetSpecBuilder {
            spec: FleetSpec {
                config,
                sink: SinkHandle::null(),
                checkpoint: None,
                resume_from: None,
                corpus_capacity: DEFAULT_CORPUS_CAPACITY,
                control: None,
            },
        }
    }

    /// Budget and batching parameters.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Worker threads in each member's execution pool.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.config.run.threads
    }

    /// The telemetry sink handle (receives fleet-level events only).
    #[must_use]
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// The checkpoint policy, if checkpointing is enabled
    /// (`every_rounds` counts epochs here).
    #[must_use]
    pub fn checkpoint(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// The snapshot this fleet resumes from, if any.
    #[must_use]
    pub fn resume_from(&self) -> Option<&Path> {
        self.resume_from.as_deref()
    }

    /// Capacity bound of the shared corpus.
    #[must_use]
    pub fn corpus_capacity(&self) -> usize {
        self.corpus_capacity
    }

    /// The control handle attached to this spec, if any.
    #[must_use]
    pub fn control(&self) -> Option<&StopHandle> {
        self.control.as_ref()
    }

    /// Whether a graceful stop was requested through the spec's control
    /// handle. Checked at epoch boundaries: the fleet finishes the
    /// current epoch, checkpoints (if enabled) and returns with
    /// `completed = false`.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.control
            .as_ref()
            .is_some_and(StopHandle::stop_requested)
    }

    /// Claims a pending checkpoint-now request from the control handle
    /// (the runner calls this once per epoch boundary).
    pub(crate) fn take_checkpoint_request(&self) -> bool {
        self.control
            .as_ref()
            .is_some_and(StopHandle::take_checkpoint_request)
    }
}

/// Builds a validated [`FleetSpec`]: holds the spec it builds and checks
/// it at [`FleetSpecBuilder::build`].
#[derive(Debug, Clone)]
pub struct FleetSpecBuilder {
    spec: FleetSpec,
}

impl FleetSpecBuilder {
    /// Sets each member pool's worker-thread count (must be at least 1;
    /// affects wall-clock only, never results). Shorthand for setting
    /// [`RunConfig::threads`] on the config.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> FleetSpecBuilder {
        self.spec.config.run.threads = threads;
        self
    }

    /// Attaches a telemetry sink for the fleet-level event stream.
    #[must_use]
    pub fn sink(mut self, sink: SinkHandle) -> FleetSpecBuilder {
        self.spec.sink = sink;
        self
    }

    /// Enables periodic checkpointing; the policy's `every_rounds`
    /// counts **epochs** for a fleet, and the snapshot file is
    /// `fleet.ckpt` inside the policy's directory.
    #[must_use]
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> FleetSpecBuilder {
        self.spec.checkpoint = Some(policy);
        self
    }

    /// Resumes the fleet from a snapshot written by a previous run of the
    /// **same** spec and member line-up (thread count may differ — it
    /// never affects results).
    #[must_use]
    pub fn resume_from(mut self, snapshot: impl Into<PathBuf>) -> FleetSpecBuilder {
        self.spec.resume_from = Some(snapshot.into());
        self
    }

    /// Bounds the shared corpus (entries beyond this are evicted
    /// smallest-coverage-first).
    #[must_use]
    pub fn corpus_capacity(mut self, capacity: usize) -> FleetSpecBuilder {
        self.spec.corpus_capacity = capacity;
        self
    }

    /// Installs a control handle: requesting a stop on it makes the
    /// fleet finish its current epoch, checkpoint and return; requesting
    /// a checkpoint snapshots at the next epoch boundary.
    #[must_use]
    pub fn control(mut self, control: StopHandle) -> FleetSpecBuilder {
        self.spec.control = Some(control);
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    /// Returns the first [`SpecError`] among: zero epochs, zero per-epoch
    /// budget, zero step budget, zero batch, zero threads, zero corpus
    /// capacity, or a checkpoint interval of zero epochs.
    pub fn build(self) -> Result<FleetSpec, SpecError> {
        self.spec.config.validate()?;
        if self.spec.corpus_capacity == 0 {
            return Err(SpecError::ZeroCorpusCapacity);
        }
        if let Some(checkpoint) = &self.spec.checkpoint {
            if checkpoint.every_rounds() == 0 {
                return Err(SpecError::ZeroCheckpointInterval);
            }
        }
        Ok(self.spec)
    }
}

/// One sample of the fleet's merged coverage curve (one per epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSample {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Total cases executed fleet-wide through this epoch.
    pub cases: u64,
    /// Merged condition-coverage points (per-core union, summed over
    /// cores).
    pub condition: usize,
    /// Merged line-coverage points.
    pub line: usize,
    /// Merged FSM-coverage points.
    pub fsm: usize,
    /// Unique mismatch signatures across all members.
    pub unique_signatures: usize,
}

/// One member's final accounting, identical in meaning to the matching
/// `CampaignResult` fields.
#[derive(Debug, Clone)]
pub struct MemberResult {
    /// The member's display name.
    pub name: String,
    /// The member's fuzzer name.
    pub fuzzer: String,
    /// The core the member fuzzed.
    pub core: CoreKind,
    /// Cases the member executed.
    pub cases: u64,
    /// The member's coverage curve (one sample per epoch).
    pub curve: Vec<CoverageSample>,
    /// The member's cumulative coverage at the end of the run.
    pub cumulative: CoverageSnapshot,
    /// Unique mismatch signatures the member found.
    pub unique_signatures: usize,
    /// The deduped signatures, sorted.
    pub signatures: Vec<Signature>,
    /// First member-local case index at which each signature appeared.
    pub first_detection: Vec<(Signature, u64)>,
    /// Instructions the member's DUT retired.
    pub instructions_executed: u64,
    /// Cases abandoned by fault containment.
    pub aborted_cases: u64,
}

/// The outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-member accounting, in member order.
    pub members: Vec<MemberResult>,
    /// The merged coverage curve (one sample per completed epoch).
    pub merged_curve: Vec<FleetSample>,
    /// The shared corpus as distilled at the last epoch boundary.
    pub corpus: GlobalCorpus,
    /// The budget vector the scheduler would apply to the next epoch.
    pub budgets: Vec<u64>,
    /// Counter/histogram snapshot (includes `fleet.sync.seconds`,
    /// `fleet.distill.seconds`, `fleet.schedule.seconds`). Never part of
    /// determinism comparisons.
    pub metrics: MetricsSnapshot,
    /// Whether the full epoch budget ran (false when a stop flag ended
    /// the fleet early; the final checkpoint then allows resuming).
    pub completed: bool,
    /// The telemetry sink's sticky I/O error, if it hit one.
    pub sink_error: Option<String>,
}

impl FleetResult {
    /// Final merged counts per metric `(condition, line, fsm)`.
    #[must_use]
    pub fn final_counts(&self) -> (usize, usize, usize) {
        self.merged_curve
            .last()
            .map_or((0, 0, 0), |s| (s.condition, s.line, s.fsm))
    }
}

/// Largest-remainder apportionment of `total` cases over members
/// weighted by `rate + 1` (the `+ 1` keeps zero-rate members schedulable
/// and makes the uniform-rate case an even split). Every member first
/// receives a floor of `(total / (4 n)).max(1)` cases so exploration
/// never starves; the remainder is split proportionally, ties broken
/// toward the lowest member index. The result always sums to `total`.
#[must_use]
fn reallocate(total: u64, rates_milli: &[u64]) -> Vec<u64> {
    let n = rates_milli.len() as u64;
    debug_assert!(n > 0 && total >= n, "validated by check_line_up");
    let min_each = (total / (4 * n)).max(1);
    let pool = total - min_each * n;
    let weights: Vec<u128> = rates_milli.iter().map(|&r| u128::from(r) + 1).collect();
    let weight_sum: u128 = weights.iter().sum();
    let mut budgets: Vec<u64> = weights
        .iter()
        .map(|w| min_each + (u128::from(pool) * w / weight_sum) as u64)
        .collect();
    let assigned: u64 = budgets.iter().sum::<u64>() - min_each * n;
    let leftover = (pool - assigned) as usize;
    let mut order: Vec<usize> = (0..rates_milli.len()).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(u128::from(pool) * weights[i] % weight_sum),
            i,
        )
    });
    for &i in order.iter().take(leftover) {
        budgets[i] += 1;
    }
    budgets
}

/// Computes the fleet's merged coverage sample: member cumulative
/// bitmaps are unioned per core in member-index order (union is
/// commutative and associative, so the grouping is only an
/// implementation convenience), counted against the first map of each
/// core, and signatures are deduplicated across all members.
/// `idents[i]` and `maps[i]` describe member `i`; the maps come from the
/// member transport (the in-process pools' maps or the coordinator's
/// reference maps) — the result only depends on the member states.
fn merged_sample(
    epoch: u64,
    idents: &[MemberIdent],
    states: &[CampaignState],
    maps: &[&CoverageMap],
) -> FleetSample {
    let mut groups: Vec<(CoreKind, usize, CoverageSnapshot)> = Vec::new();
    for (index, ident) in idents.iter().enumerate() {
        match groups.iter_mut().find(|(c, _, _)| *c == ident.core) {
            Some((_, _, union)) => union.union_with(&states[index].cumulative),
            None => groups.push((ident.core, index, states[index].cumulative.clone())),
        }
    }
    let (mut condition, mut line, mut fsm) = (0usize, 0usize, 0usize);
    for (_, map_index, union) in &groups {
        let map = maps[*map_index];
        condition += union.count_of(map, CoverageKind::Condition);
        line += union.count_of(map, CoverageKind::Line);
        fsm += union.count_of(map, CoverageKind::Fsm);
    }
    let mut signatures: BTreeSet<Signature> = BTreeSet::new();
    for state in states {
        signatures.extend(state.signatures.sorted_signatures());
    }
    FleetSample {
        epoch,
        cases: states.iter().map(|s| s.executed).sum(),
        condition,
        line,
        fsm,
        unique_signatures: signatures.len(),
    }
}

/// A fleet member's identity as the checkpoint (and the wire protocol)
/// sees it: core, display name and fuzzer name. The in-process fleet
/// derives these from live [`FleetMember`]s, the distributed
/// coordinator from `MemberSpec`s — both describe the same line-up, so
/// their checkpoints are interchangeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MemberIdent {
    pub(crate) core: CoreKind,
    pub(crate) name: String,
    pub(crate) fuzzer: String,
}

impl MemberIdent {
    fn of(member: &FleetMember) -> MemberIdent {
        MemberIdent {
            core: member.core,
            name: member.name.clone(),
            fuzzer: member.fuzzer.name().to_owned(),
        }
    }
}

/// Everything a fleet snapshot holds besides the members' fuzzer state:
/// the state the driver carries from one epoch boundary to the next.
struct FleetState {
    states: Vec<CampaignState>,
    corpus: GlobalCorpus,
    budgets: Vec<u64>,
    merged_curve: Vec<FleetSample>,
    epoch: u64,
    metrics: Metrics,
}

/// Writes one atomic fleet snapshot (see `DESIGN.md` for the layout).
/// `fuzzer_blobs[i]` is member `i`'s `Fuzzer::save_state` bytes — the
/// distributed coordinator holds members in exactly this form, and the
/// in-process fleet serialises its live fuzzers into it, so both
/// transports produce byte-identical snapshots for the same fleet state.
fn write_fleet_checkpoint(
    policy: &CheckpointPolicy,
    spec: &FleetSpec,
    idents: &[MemberIdent],
    fleet: &FleetState,
    fuzzer_blobs: &[Vec<u8>],
) -> Result<(), RunError> {
    std::fs::create_dir_all(policy.dir()).map_err(PersistError::Io)?;
    let cfg = spec.config();
    let mut snap = SnapshotWriter::new(FLEET_CHECKPOINT_KIND);
    snap.section("spec", |w| {
        write_u64(w, cfg.epochs)?;
        write_u64(w, cfg.cases_per_epoch)?;
        write_u64(w, cfg.run.max_steps)?;
        write_u64(w, cfg.run.batch as u64)?;
        write_usize(w, spec.corpus_capacity())?;
        write_usize(w, idents.len())?;
        for ident in idents {
            write_u32(w, core_index(ident.core))?;
            write_string(w, &ident.name)?;
            write_string(w, &ident.fuzzer)?;
        }
        Ok(())
    })?;
    snap.section("progress", |w| {
        write_u64(w, fleet.epoch)?;
        write_usize(w, fleet.budgets.len())?;
        for budget in &fleet.budgets {
            write_u64(w, *budget)?;
        }
        Ok(())
    })?;
    snap.section("corpus", |w| fleet.corpus.save(w))?;
    snap.section("merged", |w| {
        write_usize(w, fleet.merged_curve.len())?;
        for sample in &fleet.merged_curve {
            write_u64(w, sample.epoch)?;
            write_u64(w, sample.cases)?;
            write_u64(w, sample.condition as u64)?;
            write_u64(w, sample.line as u64)?;
            write_u64(w, sample.fsm as u64)?;
            write_u64(w, sample.unique_signatures as u64)?;
        }
        Ok(())
    })?;
    for (index, (state, blob)) in fleet.states.iter().zip(fuzzer_blobs).enumerate() {
        snap.section(&format!("member{index}"), |w| {
            state.save(w)?;
            w.extend_from_slice(blob);
            Ok(())
        })?;
    }
    snap.section("metrics", |w| write_metrics(w, &fleet.metrics.snapshot()))?;
    snap.write_atomic(&policy.fleet_snapshot_path())?;
    Ok(())
}

/// Reads a fleet checkpoint, validating it against the spec and the
/// expected member line-up. Fuzzer state comes back still serialised
/// (the distributed coordinator ships those blobs to workers as-is; the
/// in-process fleet feeds them to `Fuzzer::load_state`).
fn restore_fleet_checkpoint(
    path: &Path,
    spec: &FleetSpec,
    idents: &[MemberIdent],
    map_lens: &[usize],
) -> Result<(FleetState, Vec<Vec<u8>>), RunError> {
    let snap = SnapshotReader::read_path(path)?;
    snap.expect_kind(FLEET_CHECKPOINT_KIND)?;
    let cfg = spec.config();

    let mut r = snap.section("spec")?;
    if read_u64(&mut r)? != cfg.epochs
        || read_u64(&mut r)? != cfg.cases_per_epoch
        || read_u64(&mut r)? != cfg.run.max_steps
        || read_u64(&mut r)? != cfg.run.batch as u64
        || read_usize(&mut r, 1 << 24, "corpus capacity")? != spec.corpus_capacity()
        || read_usize(&mut r, 1 << 16, "member count")? != idents.len()
    {
        return Err(corrupt("checkpoint was taken under a different fleet spec").into());
    }
    for ident in idents {
        if read_u32(&mut r)? != core_index(ident.core)
            || read_string(&mut r)? != ident.name
            || read_string(&mut r)? != ident.fuzzer
        {
            return Err(corrupt(format!(
                "checkpoint member line-up does not include {:?} ({})",
                ident.name, ident.fuzzer
            ))
            .into());
        }
    }

    let mut r = snap.section("progress")?;
    let epoch = read_u64(&mut r)?;
    let n = read_usize(&mut r, 1 << 16, "budget count")?;
    if n != idents.len() {
        return Err(corrupt("checkpoint budget vector does not match the members").into());
    }
    let budgets = (0..n)
        .map(|_| read_u64(&mut r))
        .collect::<Result<_, PersistError>>()?;

    let mut r = snap.section("corpus")?;
    let corpus = GlobalCorpus::load(&mut r)?;

    let mut r = snap.section("merged")?;
    let samples = read_usize(&mut r, 1 << 24, "merged curve length")?;
    let merged_curve = (0..samples)
        .map(|_| {
            Ok(FleetSample {
                epoch: read_u64(&mut r)?,
                cases: read_u64(&mut r)?,
                condition: read_u64(&mut r)? as usize,
                line: read_u64(&mut r)? as usize,
                fsm: read_u64(&mut r)? as usize,
                unique_signatures: read_u64(&mut r)? as usize,
            })
        })
        .collect::<Result<_, PersistError>>()?;

    let mut states = Vec::with_capacity(idents.len());
    let mut fuzzer_blobs = Vec::with_capacity(idents.len());
    for (index, &map_len) in map_lens.iter().enumerate() {
        let mut r = snap.section(&format!("member{index}"))?;
        states.push(CampaignState::load(&mut r, map_len)?);
        // The rest of the section is the fuzzer's own state, kept
        // serialised until someone needs the live fuzzer.
        fuzzer_blobs.push(r.to_vec());
    }

    let mut r = snap.section("metrics")?;
    let metrics = read_metrics(&mut r)?;
    let fleet = FleetState {
        states,
        corpus,
        budgets,
        merged_curve,
        epoch,
        metrics,
    };
    Ok((fleet, fuzzer_blobs))
}

/// One member's finished epoch slice, as a transport hands it to the
/// driver.
pub(crate) struct Slice {
    /// Cases the slice was granted: the denominator of the member's
    /// marginal rate and its share of `fleet.cases`.
    pub(crate) granted: u64,
    /// Cases that grew the member's coverage, in execution order.
    pub(crate) harvest: Vec<HarvestedCase>,
}

/// How the fleet driver reaches its members: live fuzzers in this
/// process ([`run_fleet`]) or workers over the wire
/// ([`crate::fleet_dist::run_fleet_dist`]). The driver owns everything
/// the fleet reports; a transport only runs epoch slices and keeps the
/// members' fuzzers.
pub(crate) trait Members {
    /// Whether a failed [`Members::wait`] leaves every member state
    /// at the last epoch close, so a final snapshot of it is still sound.
    const FAILED_EPOCH_KEEPS_BOUNDARY: bool;

    /// The coverage map member `index` counts its coverage against.
    fn map(&self, index: usize) -> &CoverageMap;

    /// Brings the members' fuzzers to the driver's starting point. On
    /// resume, `fuzzer_blobs[i]` is member `i`'s `Fuzzer::save_state`
    /// bytes from the snapshot; on a fresh run it is `None`.
    fn start(&mut self, fuzzer_blobs: Option<Vec<Vec<u8>>>) -> Result<(), RunError>;

    /// Sends epoch `epoch`'s work out, granting member `i` `budgets[i]`
    /// cases from `states[i]`, its state at the last epoch close, without
    /// waiting for it. Nothing a snapshot reads (the driver's states,
    /// [`Members::fuzzer_blobs`]) changes before [`Members::wait`], so the
    /// driver snapshots the last epoch close in between, while the
    /// members run.
    fn grant(&mut self, epoch: u64, budgets: &[u64], states: &[CampaignState]);

    /// Waits for epoch `epoch` granted with `budgets`. Returns one entry
    /// per member: the slice that folds into this epoch's close (with
    /// `states[i]` advanced past it), or `None` if the member did not
    /// report. After an error, `states` holds what
    /// [`Members::FAILED_EPOCH_KEEPS_BOUNDARY`] says.
    fn wait(
        &mut self,
        epoch: u64,
        budgets: &[u64],
        states: &mut [CampaignState],
        metrics: &mut Metrics,
    ) -> Result<Vec<Option<Slice>>, RunError>;

    /// Every member's `Fuzzer::save_state` bytes, for a snapshot.
    fn fuzzer_blobs(&self) -> Result<Cow<'_, [Vec<u8>]>, RunError>;
}

/// Runs one member-campaign slice of both fleet runtimes: silent rounds
/// until `state` has executed `budget` more cases, returning the cases
/// they harvested. `cases = target` makes the round engine stop exactly
/// at the epoch boundary and sample the member's curve exactly once there.
pub(crate) fn run_slice(
    fuzzer: &mut dyn Fuzzer,
    pool: &mut ExecPool,
    run: RunConfig,
    budget: u64,
    metrics: &mut Metrics,
    state: &mut CampaignState,
) -> Result<Vec<HarvestedCase>, RunError> {
    let target = state.executed + budget;
    let member_cfg = CampaignConfig {
        cases: target,
        sample_every: target,
        run,
    };
    let silent = SinkHandle::null();
    let mut harvest = Vec::new();
    while state.executed < target {
        run_round(
            fuzzer,
            pool,
            &member_cfg,
            &silent,
            metrics,
            state,
            Some(&mut harvest),
        )?;
    }
    Ok(harvest)
}

/// The in-process transport: live [`FleetMember`]s with one execution
/// pool each, whose slices run inline on the calling thread in member
/// order.
struct InProcess<'a> {
    members: &'a mut [FleetMember],
    pools: Vec<ExecPool>,
    run: RunConfig,
}

impl Members for InProcess<'_> {
    // Slices advance live fuzzers and states in place, so a round that
    // fails leaves the epoch half run.
    const FAILED_EPOCH_KEEPS_BOUNDARY: bool = false;

    fn map(&self, index: usize) -> &CoverageMap {
        self.pools[index].coverage_map()
    }

    fn start(&mut self, fuzzer_blobs: Option<Vec<Vec<u8>>>) -> Result<(), RunError> {
        for (member, blob) in self.members.iter_mut().zip(fuzzer_blobs.iter().flatten()) {
            member.fuzzer.load_state(&mut blob.as_slice())?;
        }
        Ok(())
    }

    // Slices run inline in `wait`, so the epoch's work starts there.
    fn grant(&mut self, _epoch: u64, _budgets: &[u64], _states: &[CampaignState]) {}

    fn wait(
        &mut self,
        _epoch: u64,
        budgets: &[u64],
        states: &mut [CampaignState],
        metrics: &mut Metrics,
    ) -> Result<Vec<Option<Slice>>, RunError> {
        let members = self.members.iter_mut().zip(&mut self.pools);
        members
            .zip(states.iter_mut().zip(budgets))
            .map(|((member, pool), (state, &budget))| {
                let harvest = run_slice(
                    member.fuzzer.as_mut(),
                    pool,
                    self.run,
                    budget,
                    metrics,
                    state,
                )?;
                Ok(Some(Slice {
                    granted: budget,
                    harvest,
                }))
            })
            .collect()
    }

    fn fuzzer_blobs(&self) -> Result<Cow<'_, [Vec<u8>]>, RunError> {
        let blobs = self
            .members
            .iter()
            .map(|member| {
                let mut blob = Vec::new();
                member.fuzzer.save_state(&mut blob).map(|()| blob)
            })
            .collect::<Result<_, PersistError>>()?;
        Ok(Cow::Owned(blobs))
    }
}

/// Rejects an empty line-up and a per-epoch budget that cannot give
/// every member a case: the check both fleet runtimes make first, so a
/// caller can make it before it creates anything a refused run would
/// leave behind.
///
/// # Errors
/// [`RunError::NoMembers`] or [`RunError::BudgetTooSmall`].
pub fn check_line_up(members: usize, spec: &FleetSpec) -> Result<(), RunError> {
    if members == 0 {
        return Err(RunError::NoMembers);
    }
    let cases_per_epoch = spec.config().cases_per_epoch;
    if cases_per_epoch < members as u64 {
        return Err(RunError::BudgetTooSmall {
            members,
            cases_per_epoch,
        });
    }
    Ok(())
}

/// The fleet runtime: runs a checked line-up through its epochs over
/// either transport (see the module docs) and reports the result.
///
/// A snapshot only ever holds epoch-boundary state. The final one is
/// written when the epochs complete or stop, and after a failed epoch
/// only when the transport kept every member at the last epoch close.
pub(crate) fn drive<M: Members>(
    members: &mut M,
    idents: &[MemberIdent],
    spec: &FleetSpec,
) -> Result<FleetResult, RunError> {
    let cfg = *spec.config();
    let map_lens: Vec<usize> = (0..idents.len()).map(|i| members.map(i).len()).collect();
    let (mut fleet, fuzzer_blobs) = match spec.resume_from() {
        Some(snapshot) => {
            let (fleet, blobs) = restore_fleet_checkpoint(snapshot, spec, idents, &map_lens)?;
            (fleet, Some(blobs))
        }
        None => {
            let fleet = FleetState {
                states: map_lens
                    .iter()
                    .map(|&len| CampaignState::fresh(len))
                    .collect(),
                corpus: GlobalCorpus::new(spec.corpus_capacity()),
                // The first epoch has no rates to differentiate: every
                // member gets the even largest-remainder split.
                budgets: reallocate(cfg.cases_per_epoch, &vec![0; idents.len()]),
                merged_curve: Vec::new(),
                epoch: 0,
                metrics: Metrics::new(),
            };
            (fleet, None)
        }
    };
    members.start(fuzzer_blobs)?;

    let ran = run_epochs(members, idents, spec, &mut fleet);
    // Final (or graceful-shutdown) snapshot.
    let sink = spec.sink();
    let snapshot = match spec.checkpoint() {
        Some(policy) if ran.is_ok() || M::FAILED_EPOCH_KEEPS_BOUNDARY => {
            sink.flush();
            members
                .fuzzer_blobs()
                .and_then(|blobs| write_fleet_checkpoint(policy, spec, idents, &fleet, &blobs))
        }
        _ => Ok(()),
    };
    ran?;
    snapshot?;

    sink.flush();
    let sink_error = sink.take_error().map(|e| e.to_string());
    let member_results = idents
        .iter()
        .zip(&fleet.states)
        .map(|(ident, state)| MemberResult {
            name: ident.name.clone(),
            fuzzer: ident.fuzzer.clone(),
            core: ident.core,
            cases: state.executed,
            curve: state.curve.clone(),
            cumulative: state.cumulative.clone(),
            unique_signatures: state.signatures.unique(),
            signatures: state.signatures.sorted_signatures(),
            first_detection: state.first_detection.clone(),
            instructions_executed: state.instructions_executed,
            aborted_cases: state.aborted_cases,
        })
        .collect();
    Ok(FleetResult {
        members: member_results,
        merged_curve: fleet.merged_curve,
        corpus: fleet.corpus,
        budgets: fleet.budgets,
        metrics: fleet.metrics.snapshot(),
        completed: fleet.epoch >= cfg.epochs,
        sink_error,
    })
}

/// The epoch loop: grants, the checkpoint cadence, slices, fold, corpus
/// sync, scheduling and merged sample, until the budget runs out or a
/// stop lands.
fn run_epochs<M: Members>(
    members: &mut M,
    idents: &[MemberIdent],
    spec: &FleetSpec,
    fleet: &mut FleetState,
) -> Result<(), RunError> {
    let cfg = *spec.config();
    let sink = spec.sink();
    // The policy of a snapshot of the last epoch close, when one is due.
    let mut due: Option<&CheckpointPolicy> = None;
    while fleet.epoch < cfg.epochs {
        if spec.stop_requested() {
            break;
        }
        let epoch = fleet.epoch;
        if due.is_some() {
            // The log on disk reaches the snapshot's epoch close before
            // the snapshot exists, so a resume never skips events.
            sink.flush();
        }
        if sink.enabled() {
            sink.emit(&Event::EpochStart {
                epoch,
                members: idents.len() as u64,
                planned: fleet.budgets.iter().sum(),
            });
        }
        members.grant(epoch, &fleet.budgets, &fleet.states);
        // The members now run this epoch; the snapshot of the last close
        // is written meanwhile, since nothing it reads changes until
        // their slices fold.
        if let Some(policy) = due.take() {
            write_fleet_checkpoint(policy, spec, idents, fleet, &members.fuzzer_blobs()?)?;
        }
        let stats_before = fleet.corpus.stats();
        let covered_before: Vec<usize> = fleet
            .states
            .iter()
            .map(|state| state.cumulative.count())
            .collect();
        let slices = members.wait(epoch, &fleet.budgets, &mut fleet.states, &mut fleet.metrics)?;

        // Close the epoch: fold results in member index order, never in
        // arrival order, which keeps corpus insertion order (and thus the
        // whole downstream stream) independent of the transport.
        let mut rates = vec![0u64; idents.len()];
        let mut sync_seconds = 0.0f64;
        for (index, slice) in slices.into_iter().enumerate() {
            let Some(slice) = slice else {
                continue;
            };
            let sync_started = Instant::now();
            for case in slice.harvest {
                fleet.corpus.insert(
                    format!("{}-case-{}", idents[index].name, case.case),
                    case.body,
                    case.coverage,
                );
            }
            sync_seconds += sync_started.elapsed().as_secs_f64();
            let state = &fleet.states[index];
            let gained = (state.cumulative.count() - covered_before[index]) as u64;
            rates[index] = gained * 1000 / slice.granted.max(1);
            fleet.metrics.inc("fleet.cases", slice.granted);
            if sink.enabled() {
                let map = members.map(index);
                sink.emit(&Event::MemberProgress {
                    epoch,
                    member: index as u64,
                    executed: state.executed,
                    condition: state.cumulative.count_of(map, CoverageKind::Condition) as u64,
                    line: state.cumulative.count_of(map, CoverageKind::Line) as u64,
                    fsm: state.cumulative.count_of(map, CoverageKind::Fsm) as u64,
                    unique_signatures: state.signatures.unique() as u64,
                });
            }
        }
        fleet.metrics.observe("fleet.sync.seconds", sync_seconds);

        let distill_started = Instant::now();
        let (distilled_from, distilled_to) = fleet.corpus.distill();
        fleet
            .metrics
            .observe_duration("fleet.distill.seconds", distill_started.elapsed());
        let stats_after = fleet.corpus.stats();
        if sink.enabled() {
            sink.emit(&Event::CorpusSync {
                epoch,
                inserted: stats_after.inserted - stats_before.inserted,
                duplicates: stats_after.duplicates - stats_before.duplicates,
                evicted: stats_after.evicted - stats_before.evicted,
                distilled_from: distilled_from as u64,
                distilled_to: distilled_to as u64,
            });
        }

        let schedule_started = Instant::now();
        fleet.budgets = reallocate(cfg.cases_per_epoch, &rates);
        fleet
            .metrics
            .observe_duration("fleet.schedule.seconds", schedule_started.elapsed());
        if sink.enabled() {
            for (index, (&cases, &rate_milli)) in fleet.budgets.iter().zip(&rates).enumerate() {
                sink.emit(&Event::BudgetRealloc {
                    epoch,
                    member: index as u64,
                    cases,
                    rate_milli,
                });
            }
        }

        let maps: Vec<&CoverageMap> = (0..idents.len()).map(|i| members.map(i)).collect();
        let sample = merged_sample(epoch, idents, &fleet.states, &maps);
        fleet.merged_curve.push(sample);
        if sink.enabled() {
            sink.emit(&Event::EpochEnd {
                epoch,
                executed: sample.cases,
                condition: sample.condition as u64,
                line: sample.line as u64,
                fsm: sample.fsm as u64,
                unique_signatures: sample.unique_signatures as u64,
            });
        }
        fleet.metrics.inc("fleet.epochs", 1);
        fleet.epoch += 1;
        // Periodic (and operator-requested) checkpoints hold epoch
        // boundaries, where every member sits at a round boundary with
        // empty pending queues. The checkpoint-now request is claimed
        // even without a policy so a stale request cannot linger. The
        // final snapshot covers the last boundary.
        let requested = spec.take_checkpoint_request();
        due = spec.checkpoint().filter(|policy| {
            (requested || fleet.epoch.is_multiple_of(policy.every_rounds()))
                && fleet.epoch < cfg.epochs
        });
    }
    Ok(())
}

/// Runs one fleet: every member campaign advances through shared epochs
/// with corpus sync, deterministic coverage merging and marginal-rate
/// budget scheduling (see the module docs).
///
/// # Errors
/// Returns [`RunError`] when the member slice is empty, the per-epoch
/// budget cannot cover the members, a checkpoint cannot be written, a
/// resume snapshot is corrupt or does not match the spec/members, or a
/// member's fuzzer cannot compose a round ([`RunError::Compose`]; the
/// latest snapshot then stays the last epoch close). Faulty cases never
/// error: they are contained per member exactly as in a standalone
/// campaign.
pub fn run_fleet(members: &mut [FleetMember], spec: &FleetSpec) -> Result<FleetResult, RunError> {
    check_line_up(members.len(), spec)?;
    let idents: Vec<MemberIdent> = members.iter().map(MemberIdent::of).collect();
    let max_steps = spec.config().run.max_steps;
    let pools = members
        .iter_mut()
        .map(|member| {
            let executor = Executor::builder(member.core).max_steps(max_steps).build();
            let mut pool = ExecPool::new(executor, spec.threads());
            member.fuzzer.attach_lane(pool.lane());
            pool
        })
        .collect();
    let mut slots = InProcess {
        members,
        pools,
        run: spec.config().run,
    };
    drive(&mut slots, &idents, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::DifuzzRtlFuzzer;

    #[test]
    fn reallocate_assigns_the_whole_budget_deterministically() {
        for (total, rates) in [
            (30u64, vec![0u64, 0, 0]),
            (30, vec![1000, 0, 0]),
            (31, vec![7, 7, 7]),
            (100, vec![0, 1, 2, 3, 4]),
            (5, vec![9999, 0, 0, 0, 1]),
        ] {
            let budgets = reallocate(total, &rates);
            assert_eq!(budgets.len(), rates.len());
            assert_eq!(budgets.iter().sum::<u64>(), total, "{rates:?}");
            assert!(budgets.iter().all(|&b| b >= 1), "{budgets:?}");
            assert_eq!(budgets, reallocate(total, &rates), "must be a pure fn");
        }
    }

    #[test]
    fn reallocate_favours_higher_rates_and_floors_the_rest() {
        let budgets = reallocate(40, &[3000, 1000, 0, 0]);
        assert!(budgets[0] > budgets[1], "{budgets:?}");
        assert!(budgets[1] > budgets[2], "{budgets:?}");
        // Floor: total/(4·n) = 2 cases each minimum.
        assert!(budgets[2] >= 2 && budgets[3] >= 2, "{budgets:?}");
        // Equal rates tie toward the lowest index on odd remainders.
        let even = reallocate(31, &[5, 5, 5]);
        assert_eq!(even, vec![11, 10, 10]);
    }

    #[test]
    fn a_zero_rate_member_keeps_its_floor_forever() {
        // A member that finds nothing for many consecutive epochs must
        // still receive the per-member floor every epoch — the budget
        // accounting can slow a cold member down but never starve it,
        // because a zero next-epoch budget would divide by zero in the
        // rate computation and permanently freeze the member's rate.
        let total = 40u64;
        let floor = (total / (4 * 4)).max(1);
        let mut rates = vec![0u64, 0, 0, 0];
        for _ in 0..50 {
            let budgets = reallocate(total, &rates);
            assert!(budgets[3] >= floor, "{budgets:?}");
            assert_eq!(budgets.iter().sum::<u64>(), total);
            // Members 0–2 keep producing, member 3 never does: feed the
            // resulting rates back like run_fleet would.
            rates = vec![
                5000 * 1000 / budgets[0],
                3000 * 1000 / budgets[1],
                1000 * 1000 / budgets[2],
                0,
            ];
        }
    }

    #[test]
    fn the_floor_holds_even_when_budget_barely_covers_members() {
        // total == members: everyone gets exactly 1 (the .max(1) floor),
        // leaving no pool to apportion.
        assert_eq!(reallocate(3, &[0, 9999, 0]), vec![1, 1, 1]);
        // One member: the whole budget, whatever the rate.
        assert_eq!(reallocate(17, &[0]), vec![17]);
    }

    #[test]
    fn fleet_spec_builder_validates() {
        let ok = FleetConfig::quick(2, 10);
        assert!(FleetSpec::builder(ok).build().is_ok());
        let check =
            |config: FleetConfig, expected: SpecError| match FleetSpec::builder(config).build() {
                Err(err) => assert_eq!(err.to_string(), expected.to_string()),
                Ok(_) => panic!("expected {expected}"),
            };
        check(FleetConfig { epochs: 0, ..ok }, SpecError::ZeroEpochs);
        check(
            FleetConfig {
                cases_per_epoch: 0,
                ..ok
            },
            SpecError::ZeroCasesPerEpoch,
        );
        check(
            FleetConfig {
                run: ok.run.with_max_steps(0),
                ..ok
            },
            SpecError::ZeroMaxSteps,
        );
        check(
            FleetConfig {
                run: ok.run.with_batch(0),
                ..ok
            },
            SpecError::ZeroBatch,
        );
        assert!(matches!(
            FleetSpec::builder(ok).threads(0).build(),
            Err(SpecError::ZeroThreads)
        ));
        assert!(matches!(
            FleetSpec::builder(ok)
                .threads(crate::exec::MAX_THREADS + 1)
                .build(),
            Err(SpecError::TooManyThreads)
        ));
        assert!(matches!(
            FleetSpec::builder(ok).corpus_capacity(0).build(),
            Err(SpecError::ZeroCorpusCapacity)
        ));
        assert!(matches!(
            FleetSpec::builder(ok)
                .checkpoint(CheckpointPolicy::new("/tmp/unused", 0))
                .build(),
            Err(SpecError::ZeroCheckpointInterval)
        ));
    }

    #[test]
    fn run_fleet_rejects_empty_and_starved_fleets() {
        let spec = FleetSpec::builder(FleetConfig::quick(1, 10))
            .build()
            .unwrap();
        assert!(matches!(
            run_fleet(&mut [], &spec),
            Err(RunError::NoMembers)
        ));
        let tight = FleetSpec::builder(FleetConfig::quick(1, 1))
            .build()
            .unwrap();
        let mut members = vec![
            FleetMember::new("a", CoreKind::Rocket, Box::new(DifuzzRtlFuzzer::new(1, 8))),
            FleetMember::new("b", CoreKind::Rocket, Box::new(DifuzzRtlFuzzer::new(2, 8))),
        ];
        let err = run_fleet(&mut members, &tight).expect_err("budget too small");
        assert!(err.to_string().contains("cannot cover"), "{err}");
    }

    #[test]
    fn a_tiny_fleet_runs_and_merges() {
        let mut members = vec![
            FleetMember::new(
                "difuzz-a",
                CoreKind::Rocket,
                Box::new(DifuzzRtlFuzzer::new(5, 10)),
            ),
            FleetMember::new(
                "difuzz-b",
                CoreKind::Rocket,
                Box::new(DifuzzRtlFuzzer::new(11, 10)),
            ),
        ];
        let spec = FleetSpec::builder(FleetConfig::quick(3, 12))
            .build()
            .unwrap();
        let result = run_fleet(&mut members, &spec).expect("fleet runs");
        assert!(result.completed);
        assert_eq!(result.merged_curve.len(), 3);
        assert_eq!(result.members.len(), 2);
        assert_eq!(result.members[0].cases + result.members[1].cases, 36);
        assert_eq!(result.budgets.iter().sum::<u64>(), 12);
        // Merged coverage dominates every member's own coverage.
        let (mc, ml, mf) = result.final_counts();
        for member in &result.members {
            let last = member.curve.last().expect("one sample per epoch");
            assert!(mc >= last.condition && ml >= last.line && mf >= last.fsm);
            assert_eq!(member.curve.len(), 3, "one curve sample per epoch");
        }
        // The shared corpus collected coverage-gaining cases.
        assert!(!result.corpus.is_empty());
        assert!(result.corpus.stats().inserted > 0);
        // The merged curve is monotone.
        for pair in result.merged_curve.windows(2) {
            assert!(pair[1].condition >= pair[0].condition);
            assert!(pair[1].cases > pair[0].cases);
        }
    }
}
