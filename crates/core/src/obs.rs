//! Campaign observability: structured events, pluggable sinks and a
//! metrics registry.
//!
//! PR 1 made campaigns parallel and deterministic; this layer makes them
//! *legible*. Every phase of the fuzzing loop — generation, pooled
//! execution, differential testing, PPO training, triage — reports typed
//! [`Event`]s to an [`EventSink`] and per-phase wall-clock into a
//! [`Metrics`] registry, so a run can be replayed into Fig. 4-style
//! coverage/throughput curves after the fact (see the `campaign_report`
//! bench binary).
//!
//! # Determinism contract
//!
//! Events are emitted **only from the campaign's merge thread and the
//! fuzzer** (never from pool workers), in submission order, and carry
//! round/case *indices* — never timestamps — as identity. Every event
//! except [`Event::PoolOccupancy`] is therefore bit-identical across runs
//! of the same seed at any thread count. `PoolOccupancy` (flagged by
//! [`Event::is_timing`]) reports wall-clock utilisation and naturally
//! varies between runs; consumers comparing logs must filter it out.
//! Wall-clock aggregates live in [`Metrics`], which is never part of a
//! determinism comparison.
//!
//! # JSONL schema
//!
//! [`JsonlSink`] writes one flat JSON object per line with a `"type"`
//! discriminant, e.g.:
//!
//! ```text
//! {"type":"round_start","round":0,"planned":4}
//! {"type":"case_executed","round":0,"case":1,"body_len":3,"gained_bits":17,"retired":3,"mismatches":0,"new_signature":null}
//! {"type":"round_end","round":0,"executed":4,"condition":12,"line":30,"fsm":4,"unique_signatures":1}
//! ```
//!
//! Signatures are serialised as 16-digit hex strings (full 64-bit
//! precision survives any JSON reader); all other numbers fit in an f64
//! mantissa. [`read_jsonl`] and [`Event::from_json`] parse the format
//! back without external dependencies. One declaration of the schema
//! generates both [`Event::to_json`] and [`Event::from_json`], so the
//! writer and the reader cannot drift.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::{Fields, JsonValue, ObjectWriter};

/// How one event field type writes and reads its JSON value.
trait JsonField: Sized {
    fn encode(&self, w: &mut ObjectWriter, key: &str);
    /// `None` when `value` is not of this field's JSON type.
    fn decode(value: &JsonValue) -> Option<Self>;
}

impl JsonField for u64 {
    fn encode(&self, w: &mut ObjectWriter, key: &str) {
        w.num(key, *self);
    }
    fn decode(value: &JsonValue) -> Option<u64> {
        value.as_u64()
    }
}

impl JsonField for f64 {
    fn encode(&self, w: &mut ObjectWriter, key: &str) {
        w.float(key, *self);
    }
    fn decode(value: &JsonValue) -> Option<f64> {
        value.as_f64()
    }
}

impl JsonField for String {
    fn encode(&self, w: &mut ObjectWriter, key: &str) {
        w.str(key, self);
    }
    fn decode(value: &JsonValue) -> Option<String> {
        value.as_str().map(str::to_owned)
    }
}

/// Signatures and seeds: a 16-digit hex string or `null`.
impl JsonField for Option<u64> {
    fn encode(&self, w: &mut ObjectWriter, key: &str) {
        w.hex_opt(key, *self);
    }
    fn decode(value: &JsonValue) -> Option<Option<u64>> {
        match value {
            JsonValue::Null => Some(None),
            v => u64::from_str_radix(v.as_str()?, 16).ok().map(Some),
        }
    }
}

/// Declares [`Event`] once — each variant with its `"type"` tag and its
/// fields in JSON order — and generates the enum, [`Event::kind`],
/// [`Event::to_json`] and [`Event::from_json`] from that one list, so the
/// writer and the reader cannot drift. Every field is required on read
/// unless declared `name: T = default`, which reads as `default` when the
/// key is absent.
macro_rules! event_schema {
    (
        $(#[$enum_meta:meta])*
        pub enum Event {
            $(
                $(#[$meta:meta])*
                $variant:ident = $tag:literal {
                    $(
                        $(#[$field_meta:meta])*
                        $field:ident: $ty:ty $(= $absent:expr)?
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$enum_meta])*
        pub enum Event {
            $(
                $(#[$meta])*
                $variant {
                    $(
                        $(#[$field_meta])*
                        $field: $ty,
                    )*
                },
            )*
        }

        impl Event {
            /// The JSONL `"type"` discriminant.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)*
                }
            }

            /// Serialises the event as one flat JSON object (no trailing newline).
            #[must_use]
            pub fn to_json(&self) -> String {
                let mut w = ObjectWriter::with_type(self.kind());
                match self {
                    $(Event::$variant { $($field),* } => {
                        $(JsonField::encode($field, &mut w, stringify!($field));)*
                    })*
                }
                w.finish()
            }

            /// Parses one JSONL line back into an event; `None` if the line is
            /// not a well-formed event object of a known type.
            #[must_use]
            pub fn from_json(line: &str) -> Option<Event> {
                let fields = Fields::parse(line)?;
                match fields.str("type")? {
                    $($tag => Some(Event::$variant {
                        $($field: event_schema!(@read fields, $field, $ty $(, $absent)?),)*
                    }),)*
                    _ => None,
                }
            }
        }

        /// Every declared `"type"` tag.
        #[cfg(test)]
        const EVENT_KINDS: &[&str] = &[$($tag),*];
    };
    (@read $fields:ident, $field:ident, $ty:ty) => {
        <$ty as JsonField>::decode($fields.get(stringify!($field))?)?
    };
    (@read $fields:ident, $field:ident, $ty:ty, $absent:expr) => {
        match $fields.get(stringify!($field)) {
            Some(value) => <$ty as JsonField>::decode(value)?,
            None => $absent,
        }
    };
}

event_schema! {
/// One structured telemetry event.
///
/// Variants carry round/case indices as identity (see the module docs'
/// determinism contract); only [`Event::PoolOccupancy`] carries
/// wall-clock-derived values.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A campaign round began: the fuzzer is about to generate `planned`
    /// cases for one pool batch.
    RoundStart = "round_start" {
        /// Round index (0-based).
        round: u64,
        /// Cases requested from the fuzzer for this round.
        planned: u64,
    },
    /// A campaign round finished (all feedback applied).
    RoundEnd = "round_end" {
        /// Round index (0-based).
        round: u64,
        /// Total cases executed so far (cumulative).
        executed: u64,
        /// Cumulative condition-coverage points hit.
        condition: u64,
        /// Cumulative line-coverage points hit.
        line: u64,
        /// Cumulative FSM-coverage points hit.
        fsm: u64,
        /// Unique mismatch signatures found so far.
        unique_signatures: u64,
    },
    /// One test case ran on the DUT/GRM pair.
    CaseExecuted = "case_executed" {
        /// Round the case belonged to.
        round: u64,
        /// Case index (1-based, campaign-wide).
        case: u64,
        /// Body length in instructions/words.
        body_len: u64,
        /// Coverage points this case added to the cumulative set.
        gained_bits: u64,
        /// Instructions the DUT retired.
        retired: u64,
        /// Mismatches the differential test reported (before dedup).
        mismatches: u64,
        /// First *newly seen* signature this case triggered, if any.
        new_signature: Option<u64>,
    },
    /// The generator completed a PPO update.
    PpoUpdate = "ppo_update" {
        /// Case index at the time of the update.
        case: u64,
        /// Completed episodes so far.
        episode: u64,
        /// Mean probability ratio across updated heads.
        mean_ratio: f64,
        /// `E[r − 1 − ln r]` over the update's head ratios — the standard
        /// low-variance KL(π_old ‖ π) estimator.
        approx_kl: f64,
        /// Mean squared TD error of the paired critic update.
        td_loss: f64,
        /// Mean (normalised) reward over the update window.
        reward_mean: f64,
    },
    /// The coverage predictor was scored against realised coverage.
    PredictorEval = "predictor_eval" {
        /// Case index the evaluation used.
        case: u64,
        /// Fraction of coverage points where `p > 0.5` matched the
        /// realised bit.
        accuracy: f64,
        /// Points the predictor scored above 0.5.
        predicted_hits: u64,
        /// Points the case actually hit.
        realized_hits: u64,
    },
    /// One row of the scenario controller's marginal-coverage table: the
    /// bandit's pull count and mean reward for one scenario arm at a
    /// deterministic case-count checkpoint. The controller emits one row
    /// per scenario, so consecutive rows with the same `case` form the
    /// full per-scenario table.
    ScenarioStats = "scenario_stats" {
        /// Case index at the time of the snapshot.
        case: u64,
        /// The scenario arm's canonical name.
        scenario: String,
        /// Times the controller selected this scenario.
        pulls: u64,
        /// Running mean of the marginal-coverage reward for this scenario.
        mean_reward: f64,
    },
    /// Triage minimisation accepted one reduction.
    MinimizeStep = "minimize_step" {
        /// Differential-test executions spent so far.
        executions: u64,
        /// Body length before the reduction.
        from_len: u64,
        /// Body length after the reduction.
        to_len: u64,
        /// Interleaving seed held fixed during minimisation (multi-hart
        /// cases only): the minimised body reproduces only under this
        /// schedule, so the PoC record must carry it. Absent in logs
        /// written before multi-hart support, which read as `None`.
        sched_seed: Option<u64> = None,
    },
    /// A case was abandoned by fault containment: every attempt panicked
    /// (`reason` is the final panic message) or exceeded the fuel budget
    /// (`reason` is `"timeout"`). Deterministic: carries indices and the
    /// attempt count, never wall clock.
    CaseAborted = "case_aborted" {
        /// Round the case belonged to.
        round: u64,
        /// Case index (1-based, campaign-wide).
        case: u64,
        /// `"timeout"` or the final attempt's panic message.
        reason: String,
        /// Attempts made before the case was abandoned.
        attempts: u64,
    },
    /// Pool utilisation for one executed batch (wall-clock: excluded from
    /// determinism comparisons).
    PoolOccupancy = "pool_occupancy" {
        /// Round the batch belonged to.
        round: u64,
        /// Worker threads in the pool.
        threads: u64,
        /// `busy / (exec_wall × threads)`; 1.0 = no worker idled.
        occupancy: f64,
        /// Wall-clock seconds inside the batch.
        exec_seconds: f64,
        /// Summed per-case execution seconds across workers.
        busy_seconds: f64,
    },
    /// A fleet epoch began: every member is about to run its slice of the
    /// epoch's case budget.
    EpochStart = "epoch_start" {
        /// Epoch index (0-based).
        epoch: u64,
        /// Member campaigns in the fleet.
        members: u64,
        /// Total cases budgeted across members this epoch.
        planned: u64,
    },
    /// One member finished its slice of an epoch.
    MemberProgress = "member_progress" {
        /// Epoch index (0-based).
        epoch: u64,
        /// Member index (0-based, fleet-wide).
        member: u64,
        /// The member's total cases executed so far (cumulative).
        executed: u64,
        /// The member's cumulative condition-coverage points.
        condition: u64,
        /// The member's cumulative line-coverage points.
        line: u64,
        /// The member's cumulative FSM-coverage points.
        fsm: u64,
        /// The member's unique mismatch signatures so far.
        unique_signatures: u64,
    },
    /// The shared corpus absorbed an epoch's harvest and was distilled.
    /// All counts are this epoch's deltas except the distillation sizes,
    /// which are absolute entry counts.
    CorpusSync = "corpus_sync" {
        /// Epoch index (0-based).
        epoch: u64,
        /// Cases accepted into the shared corpus this epoch.
        inserted: u64,
        /// Cases rejected as coverage duplicates this epoch.
        duplicates: u64,
        /// Cases evicted by the capacity bound this epoch.
        evicted: u64,
        /// Corpus size before distillation.
        distilled_from: u64,
        /// Corpus size after distillation.
        distilled_to: u64,
    },
    /// The scheduler granted one member its next-epoch case budget.
    BudgetRealloc = "budget_realloc" {
        /// Epoch the decision was made in (0-based; the budget applies to
        /// `epoch + 1`).
        epoch: u64,
        /// Member index (0-based, fleet-wide).
        member: u64,
        /// Cases granted for the next epoch.
        cases: u64,
        /// The member's marginal-coverage rate this epoch, in
        /// milli-points per case (new coverage points × 1000 / cases).
        rate_milli: u64,
    },
    /// A fleet epoch finished: corpus synced, budgets reallocated, merged
    /// coverage sampled.
    EpochEnd = "epoch_end" {
        /// Epoch index (0-based).
        epoch: u64,
        /// Total cases executed fleet-wide so far (cumulative).
        executed: u64,
        /// Merged condition-coverage points across members (per-core
        /// union, summed over cores).
        condition: u64,
        /// Merged line-coverage points across members.
        line: u64,
        /// Merged FSM-coverage points across members.
        fsm: u64,
        /// Unique mismatch signatures across all members.
        unique_signatures: u64,
    },
}
}

impl Event {
    /// Whether the event carries wall-clock-derived values and must be
    /// excluded from determinism comparisons (see the module docs).
    #[must_use]
    pub fn is_timing(&self) -> bool {
        matches!(self, Event::PoolOccupancy { .. })
    }
}

/// Receives telemetry events. Implementations must be cheap and
/// thread-safe; the campaign emits from a single thread, but sinks may be
/// shared across campaigns.
pub trait EventSink: Send + Sync {
    /// Records one event.
    fn emit(&self, event: &Event);

    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush(&self) {}

    /// Takes the first I/O error the sink hit, if any (sticky: once a
    /// write fails the sink stops writing, and the error waits here
    /// until someone claims it). Telemetry must never abort a campaign,
    /// so errors are surfaced this way instead of propagating from
    /// [`EventSink::emit`]; the campaign runner reports them on
    /// `CampaignResult::sink_error`.
    fn take_error(&self) -> Option<io::Error> {
        None
    }
}

/// Discards every event — the default, so un-instrumented campaigns pay
/// one branch per would-be emission.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Keeps the most recent `capacity` events in memory (tests, live
/// dashboards).
///
/// # Examples
///
/// ```
/// use hfl::obs::{Event, EventSink, RingSink};
///
/// let sink = RingSink::new(2);
/// for round in 0..3 {
///     sink.emit(&Event::RoundStart { round, planned: 1 });
/// }
/// let kept = sink.events();
/// assert_eq!(kept.len(), 2);
/// assert_eq!(kept[0], Event::RoundStart { round: 1, planned: 1 });
/// ```
#[derive(Debug)]
pub struct RingSink {
    buf: Mutex<VecDeque<Event>>,
    capacity: usize,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            buf: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Snapshot of the retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.buf
            .lock()
            .expect("ring sink lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring sink lock").len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingSink {
    fn emit(&self, event: &Event) {
        let mut buf = self.buf.lock().expect("ring sink lock");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Streams events to a file as JSON Lines (see the module docs' schema).
///
/// Write and flush errors are **sticky**: the first failure stops all
/// further writing (so a full disk costs one failed syscall, not one per
/// event) and is held until [`EventSink::take_error`] claims it.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<JsonlState>,
}

#[derive(Debug)]
struct JsonlState {
    out: BufWriter<File>,
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the log file at `path`.
    ///
    /// # Errors
    /// Propagates the underlying file-creation error.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new(JsonlState {
                out: BufWriter::new(File::create(path)?),
                error: None,
            }),
        })
    }

    /// Opens the log file at `path` for appending (creating it if
    /// missing). A resumed campaign appends to the log of the interrupted
    /// run, so the concatenated stream reads as one uninterrupted run.
    ///
    /// # Errors
    /// Propagates the underlying file-open error.
    pub fn append<P: AsRef<Path>>(path: P) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new(JsonlState {
                out: BufWriter::new(File::options().create(true).append(true).open(path)?),
                error: None,
            }),
        })
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut state = self.out.lock().expect("jsonl sink lock");
        if state.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(state.out, "{}", event.to_json()) {
            state.error = Some(e);
        }
    }

    fn flush(&self) {
        let mut state = self.out.lock().expect("jsonl sink lock");
        if state.error.is_some() {
            return;
        }
        if let Err(e) = state.out.flush() {
            state.error = Some(e);
        }
    }

    fn take_error(&self) -> Option<io::Error> {
        self.out.lock().expect("jsonl sink lock").error.take()
    }
}

/// Reads a JSONL event log back (blank lines skipped).
///
/// # Errors
/// I/O errors are propagated; a line that fails to parse becomes
/// [`io::ErrorKind::InvalidData`] naming the line number.
pub fn read_jsonl<P: AsRef<Path>>(path: P) -> io::Result<Vec<Event>> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::from_json(line) {
            Some(e) => events.push(e),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: not a valid event: {line}", i + 1),
                ))
            }
        }
    }
    Ok(events)
}

/// A cloneable, always-valid handle to an event sink.
///
/// Campaign components hold this instead of a bare `&dyn EventSink` so
/// specs stay `Clone` and the disabled path costs exactly one branch:
/// [`SinkHandle::null`] marks itself disabled and [`SinkHandle::emit`]
/// short-circuits before any event is even constructed at instrumented
/// call sites that check [`SinkHandle::enabled`] first.
#[derive(Clone)]
pub struct SinkHandle {
    sink: Arc<dyn EventSink>,
    enabled: bool,
}

impl SinkHandle {
    /// A disabled handle around [`NullSink`].
    #[must_use]
    pub fn null() -> SinkHandle {
        SinkHandle {
            sink: Arc::new(NullSink),
            enabled: false,
        }
    }

    /// Wraps a live sink.
    #[must_use]
    pub fn new(sink: Arc<dyn EventSink>) -> SinkHandle {
        SinkHandle {
            sink,
            enabled: true,
        }
    }

    /// Whether events reach a real sink (hot paths skip event
    /// construction entirely when this is false).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Emits one event (no-op when disabled).
    pub fn emit(&self, event: &Event) {
        if self.enabled {
            self.sink.emit(event);
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        if self.enabled {
            self.sink.flush();
        }
    }

    /// Takes the sink's sticky I/O error, if it hit one (see
    /// [`EventSink::take_error`]).
    #[must_use]
    pub fn take_error(&self) -> Option<io::Error> {
        if self.enabled {
            self.sink.take_error()
        } else {
            None
        }
    }
}

impl Default for SinkHandle {
    fn default() -> Self {
        SinkHandle::null()
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkHandle")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// Upper bucket bounds (seconds) of duration histograms: nine log-decades
/// from a microsecond to 1000 s, plus an overflow bucket.
pub const DURATION_BUCKETS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// A streaming histogram: count/sum/min/max plus log-decade buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Counts per bucket; `buckets[i]` counts values `<=
    /// DURATION_BUCKETS[i]`, the last entry is the overflow bucket.
    pub buckets: [u64; DURATION_BUCKETS.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; DURATION_BUCKETS.len() + 1],
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let bucket = DURATION_BUCKETS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(DURATION_BUCKETS.len());
        self.buckets[bucket] += 1;
    }

    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A registry of monotonic counters and histograms, keyed by static
/// names. Phase wall-clock lives here (never in deterministic events):
/// the campaign runner observes `phase.generate.seconds`,
/// `phase.execute.seconds`, `phase.difftest.seconds` and
/// `phase.train.seconds` once per round.
///
/// # Examples
///
/// ```
/// use hfl::obs::Metrics;
///
/// let mut metrics = Metrics::new();
/// metrics.inc("campaign.cases", 4);
/// metrics.observe("phase.execute.seconds", 0.002);
/// let snap = metrics.snapshot();
/// assert_eq!(snap.counter("campaign.cases"), 4);
/// assert_eq!(snap.histogram("phase.execute.seconds").unwrap().count, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `by` to the named monotonic counter.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Records a duration in seconds into the named histogram.
    pub fn observe_duration(&mut self, name: &'static str, duration: Duration) {
        self.observe(name, duration.as_secs_f64());
    }

    /// Overwrites the named counter (campaign resume restores counters
    /// from a checkpointed [`MetricsSnapshot`]).
    pub fn restore_counter(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
    }

    /// Overwrites the named histogram (campaign resume).
    pub fn restore_histogram(&mut self, name: &'static str, histogram: Histogram) {
        self.histograms.insert(name, histogram);
    }

    /// A point-in-time copy of every counter and histogram.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
        }
    }
}

/// A frozen copy of a [`Metrics`] registry, carried on
/// `CampaignResult::metrics`. Wall-clock values live here and are never
/// part of a determinism comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// The named counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The named histogram, if it recorded anything.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

/// One row of the per-round table [`replay_rounds`] reconstructs from an
/// event log — the Fig. 4 coverage curve plus throughput columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRow {
    /// Round index.
    pub round: u64,
    /// Total cases executed through the end of this round.
    pub cases: u64,
    /// Cumulative condition-coverage points.
    pub condition: u64,
    /// Cumulative line-coverage points.
    pub line: u64,
    /// Cumulative FSM-coverage points.
    pub fsm: u64,
    /// Unique mismatch signatures so far.
    pub unique_signatures: u64,
    /// DUT instructions retired through the end of this round.
    pub retired: u64,
    /// Pool occupancy of this round's batch (0 when the log lacks
    /// `pool_occupancy` events).
    pub occupancy: f64,
    /// Wall-clock seconds this round's batch spent executing.
    pub exec_seconds: f64,
}

/// Replays an event log into a per-round coverage/throughput table.
///
/// Only `round_end`, `case_executed` and `pool_occupancy` events are
/// consulted, so partially filtered logs still replay.
#[must_use]
pub fn replay_rounds(events: &[Event]) -> Vec<RoundRow> {
    let mut rows: Vec<RoundRow> = Vec::new();
    let mut retired_total = 0u64;
    let mut occupancy: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for event in events {
        match event {
            Event::CaseExecuted { retired, .. } => retired_total += retired,
            Event::PoolOccupancy {
                round,
                occupancy: occ,
                exec_seconds,
                ..
            } => {
                let entry = occupancy.entry(*round).or_insert((0.0, 0.0));
                entry.0 = *occ;
                entry.1 += exec_seconds;
            }
            Event::RoundEnd {
                round,
                executed,
                condition,
                line,
                fsm,
                unique_signatures,
            } => {
                let (occ, exec) = occupancy.get(round).copied().unwrap_or((0.0, 0.0));
                rows.push(RoundRow {
                    round: *round,
                    cases: *executed,
                    condition: *condition,
                    line: *line,
                    fsm: *fsm,
                    unique_signatures: *unique_signatures,
                    retired: retired_total,
                    occupancy: occ,
                    exec_seconds: exec,
                });
            }
            _ => {}
        }
    }
    rows
}

/// One epoch row of the fleet table [`replay_fleet`] reconstructs: the
/// merged coverage curve plus the epoch's corpus-sync summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEpochRow {
    /// Epoch index.
    pub epoch: u64,
    /// Total cases executed fleet-wide through this epoch.
    pub cases: u64,
    /// Merged condition-coverage points.
    pub condition: u64,
    /// Merged line-coverage points.
    pub line: u64,
    /// Merged FSM-coverage points.
    pub fsm: u64,
    /// Unique signatures across all members.
    pub unique_signatures: u64,
    /// Cases the shared corpus accepted this epoch.
    pub inserted: u64,
    /// Coverage duplicates rejected this epoch.
    pub duplicates: u64,
    /// Entries evicted by the capacity bound this epoch.
    pub evicted: u64,
    /// Corpus size going into distillation.
    pub distilled_from: u64,
    /// Corpus size after distillation.
    pub distilled_to: u64,
}

/// One member row of the fleet table: the member's cumulative state at
/// an epoch boundary plus the budget the scheduler granted it for the
/// next epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetMemberRow {
    /// Epoch index.
    pub epoch: u64,
    /// Member index.
    pub member: u64,
    /// The member's cumulative cases executed.
    pub executed: u64,
    /// The member's cumulative condition-coverage points.
    pub condition: u64,
    /// The member's cumulative line-coverage points.
    pub line: u64,
    /// The member's cumulative FSM-coverage points.
    pub fsm: u64,
    /// The member's unique signatures.
    pub unique_signatures: u64,
    /// The member's marginal-coverage rate this epoch (milli-points per
    /// case), from the scheduler's `budget_realloc` event (0 when the
    /// log lacks one, e.g. the final epoch).
    pub rate_milli: u64,
    /// Cases granted for the next epoch (0 when the log lacks a
    /// `budget_realloc` event for this member/epoch).
    pub next_budget: u64,
}

/// A fleet event log replayed into per-epoch and per-member tables (the
/// `campaign_report --fleet` backing store).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetReplay {
    /// One row per `epoch_end`, in epoch order.
    pub epochs: Vec<FleetEpochRow>,
    /// One row per `member_progress`, in emission order.
    pub members: Vec<FleetMemberRow>,
}

/// Replays a fleet event log into per-epoch merged-coverage rows and
/// per-member budget rows.
///
/// Only `member_progress`, `corpus_sync`, `budget_realloc` and
/// `epoch_end` events are consulted, so mixed or filtered logs still
/// replay.
#[must_use]
pub fn replay_fleet(events: &[Event]) -> FleetReplay {
    let mut replay = FleetReplay::default();
    let mut sync: BTreeMap<u64, (u64, u64, u64, u64, u64)> = BTreeMap::new();
    for event in events {
        match event {
            Event::MemberProgress {
                epoch,
                member,
                executed,
                condition,
                line,
                fsm,
                unique_signatures,
            } => replay.members.push(FleetMemberRow {
                epoch: *epoch,
                member: *member,
                executed: *executed,
                condition: *condition,
                line: *line,
                fsm: *fsm,
                unique_signatures: *unique_signatures,
                rate_milli: 0,
                next_budget: 0,
            }),
            Event::CorpusSync {
                epoch,
                inserted,
                duplicates,
                evicted,
                distilled_from,
                distilled_to,
            } => {
                sync.insert(
                    *epoch,
                    (
                        *inserted,
                        *duplicates,
                        *evicted,
                        *distilled_from,
                        *distilled_to,
                    ),
                );
            }
            Event::BudgetRealloc {
                epoch,
                member,
                cases,
                rate_milli,
            } => {
                if let Some(row) = replay
                    .members
                    .iter_mut()
                    .find(|r| r.epoch == *epoch && r.member == *member)
                {
                    row.next_budget = *cases;
                    row.rate_milli = *rate_milli;
                }
            }
            Event::EpochEnd {
                epoch,
                executed,
                condition,
                line,
                fsm,
                unique_signatures,
            } => {
                let (inserted, duplicates, evicted, distilled_from, distilled_to) =
                    sync.get(epoch).copied().unwrap_or_default();
                replay.epochs.push(FleetEpochRow {
                    epoch: *epoch,
                    cases: *executed,
                    condition: *condition,
                    line: *line,
                    fsm: *fsm,
                    unique_signatures: *unique_signatures,
                    inserted,
                    duplicates,
                    evicted,
                    distilled_from,
                    distilled_to,
                });
            }
            _ => {}
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RoundStart {
                round: 0,
                planned: 2,
            },
            Event::CaseExecuted {
                round: 0,
                case: 1,
                body_len: 3,
                gained_bits: 17,
                retired: 3,
                mismatches: 1,
                new_signature: Some(0x0123_4567_89ab_cdef),
            },
            Event::CaseExecuted {
                round: 0,
                case: 2,
                body_len: 4,
                gained_bits: 0,
                retired: 4,
                mismatches: 0,
                new_signature: None,
            },
            Event::PoolOccupancy {
                round: 0,
                threads: 2,
                occupancy: 0.75,
                exec_seconds: 0.5,
                busy_seconds: 0.75,
            },
            Event::RoundEnd {
                round: 0,
                executed: 2,
                condition: 12,
                line: 30,
                fsm: 4,
                unique_signatures: 1,
            },
            Event::PpoUpdate {
                case: 2,
                episode: 1,
                mean_ratio: 1.01,
                approx_kl: 0.002,
                td_loss: 0.25,
                reward_mean: -0.125,
            },
            Event::PredictorEval {
                case: 2,
                accuracy: 0.9375,
                predicted_hits: 12,
                realized_hits: 14,
            },
            Event::ScenarioStats {
                case: 2,
                scenario: String::from("fp_nan"),
                pulls: 7,
                mean_reward: 0.25,
            },
            Event::MinimizeStep {
                executions: 5,
                from_len: 9,
                to_len: 5,
                sched_seed: Some(0xA5),
            },
            Event::CaseAborted {
                round: 1,
                case: 3,
                reason: String::from("injected worker panic at case 3"),
                attempts: 2,
            },
            Event::EpochStart {
                epoch: 0,
                members: 2,
                planned: 24,
            },
            Event::MemberProgress {
                epoch: 0,
                member: 0,
                executed: 12,
                condition: 10,
                line: 25,
                fsm: 3,
                unique_signatures: 1,
            },
            Event::MemberProgress {
                epoch: 0,
                member: 1,
                executed: 12,
                condition: 8,
                line: 22,
                fsm: 2,
                unique_signatures: 0,
            },
            Event::CorpusSync {
                epoch: 0,
                inserted: 5,
                duplicates: 2,
                evicted: 0,
                distilled_from: 5,
                distilled_to: 3,
            },
            Event::BudgetRealloc {
                epoch: 0,
                member: 0,
                cases: 14,
                rate_milli: 833,
            },
            Event::BudgetRealloc {
                epoch: 0,
                member: 1,
                cases: 10,
                rate_milli: 667,
            },
            Event::EpochEnd {
                epoch: 0,
                executed: 24,
                condition: 13,
                line: 31,
                fsm: 4,
                unique_signatures: 1,
            },
            // Boundary values; after the last round_end and epoch_end, so
            // the replay tables above do not change.
            Event::CaseExecuted {
                round: u64::MAX,
                case: u64::MAX,
                body_len: u64::MAX,
                gained_bits: u64::MAX,
                retired: 0,
                mismatches: u64::MAX,
                new_signature: Some(u64::MAX),
            },
            Event::PpoUpdate {
                case: u64::MAX,
                episode: 0,
                mean_ratio: f64::MIN_POSITIVE / 4.0,
                approx_kl: -f64::MIN_POSITIVE / 3.0,
                td_loss: f64::MAX,
                reward_mean: -1.5e-7,
            },
            Event::CaseAborted {
                round: u64::MAX,
                case: u64::MAX,
                reason: String::from("say \"hi\"\nthen \u{7} bell, \u{1f} unit, ünïcödé π"),
                attempts: u64::MAX,
            },
            Event::MinimizeStep {
                executions: u64::MAX,
                from_len: u64::MAX,
                to_len: 0,
                sched_seed: Some(u64::MAX),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let events = sample_events();
        for kind in EVENT_KINDS {
            assert!(
                events.iter().any(|e| e.kind() == *kind),
                "sample_events() has no {kind:?} event"
            );
        }
        for event in events {
            let line = event.to_json();
            let parsed = Event::from_json(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(parsed, event, "{line}");
        }
    }

    #[test]
    fn signatures_survive_with_full_64_bit_precision() {
        let event = Event::CaseExecuted {
            round: 0,
            case: 1,
            body_len: 1,
            gained_bits: 0,
            retired: 1,
            mismatches: 1,
            new_signature: Some(u64::MAX - 1),
        };
        let parsed = Event::from_json(&event.to_json()).unwrap();
        assert_eq!(parsed, event);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"type":"unknown_event","round":1}"#,
            r#"{"type":"round_start","round":1}"#, // missing field
            r#"{"type":"round_start","round":oops,"planned":1}"#,
        ] {
            assert!(Event::from_json(bad).is_none(), "{bad:?}");
        }
    }

    /// Re-encodes `line` without the field `key` (byte-identical to `line`
    /// when `key` is absent).
    fn without_key(line: &str, key: &str) -> String {
        let fields = Fields::parse(line).expect("well-formed line");
        let mut w = ObjectWriter::new();
        for (k, v) in fields.0.iter().filter(|(k, _)| k != key) {
            match v {
                JsonValue::Null => w.hex_opt(k, None),
                JsonValue::Bool(b) => w.bool(k, *b),
                JsonValue::Num(raw) => match raw.parse() {
                    Ok(int) => w.num(k, int),
                    Err(_) => w.float(k, raw.parse().expect("number token")),
                },
                JsonValue::Str(s) => w.str(k, s),
            }
        }
        w.finish()
    }

    #[test]
    fn reader_rejects_mistyped_and_incomplete_lines() {
        for bad in [
            // `new_signature` is required (only `sched_seed` may be absent).
            r#"{"type":"case_executed","round":0,"case":1,"body_len":3,"gained_bits":17,"retired":3,"mismatches":1}"#,
            r#"{"type":"case_executed","round":0,"case":1,"body_len":3,"gained_bits":17,"retired":3,"mismatches":1,"new_signature":"zz"}"#,
            r#"{"type":"case_executed","round":0,"case":1,"body_len":3,"gained_bits":17,"retired":3,"mismatches":1,"new_signature":5}"#,
            r#"{"type":"round_start","round":-1,"planned":1}"#,
            r#"{"type":"round_start","round":1.5,"planned":1}"#,
            r#"{"round":0,"planned":1}"#,
            r#"{"type":"scenario_stats","case":2,"scenario":7,"pulls":7,"mean_reward":0.25}"#,
            r#"{"type":"minimize_step","executions":5,"from_len":9,"to_len":5,"sched_seed":"xyz"}"#,
            r#"{"type":"minimize_step","executions":5,"from_len":9,"to_len":5,"sched_seed":165}"#,
        ] {
            assert!(Event::from_json(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn reader_tolerates_old_logs_extra_keys_and_integer_floats() {
        let cases = [
            (
                r#"{"type":"minimize_step","executions":5,"from_len":9,"to_len":5}"#,
                Event::MinimizeStep {
                    executions: 5,
                    from_len: 9,
                    to_len: 5,
                    sched_seed: None,
                },
            ),
            (
                r#"{"type":"round_start","round":1,"planned":2,"extra":"x","more":3}"#,
                Event::RoundStart {
                    round: 1,
                    planned: 2,
                },
            ),
            (
                r#"{"type":"predictor_eval","case":2,"accuracy":1,"predicted_hits":12,"realized_hits":14}"#,
                Event::PredictorEval {
                    case: 2,
                    accuracy: 1.0,
                    predicted_hits: 12,
                    realized_hits: 14,
                },
            ),
        ];
        for (line, event) in cases {
            assert_eq!(Event::from_json(line), Some(event), "{line}");
        }
    }

    #[test]
    fn dropping_any_required_key_is_rejected() {
        for event in sample_events() {
            let line = event.to_json();
            assert_eq!(without_key(&line, "no_such_key"), line);
            for (key, _) in &Fields::parse(&line).expect("well-formed line").0 {
                let cut = without_key(&line, key);
                match (key.as_str(), Event::from_json(&cut)) {
                    ("sched_seed", Some(Event::MinimizeStep { sched_seed, .. })) => {
                        assert_eq!(sched_seed, None, "{cut}");
                    }
                    (_, parsed) => assert_eq!(parsed, None, "{cut}"),
                }
            }
        }
    }

    #[test]
    fn only_pool_occupancy_is_timing() {
        for event in sample_events() {
            assert_eq!(
                event.is_timing(),
                matches!(event, Event::PoolOccupancy { .. })
            );
        }
    }

    #[test]
    fn ring_sink_keeps_the_most_recent_events() {
        let sink = RingSink::new(3);
        assert!(sink.is_empty());
        for round in 0..5 {
            sink.emit(&Event::RoundStart { round, planned: 1 });
        }
        let events = sink.events();
        assert_eq!(sink.len(), 3);
        assert_eq!(
            events,
            (2..5)
                .map(|round| Event::RoundStart { round, planned: 1 })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn jsonl_sink_round_trips_through_a_file() {
        let path = std::env::temp_dir().join(format!(
            "hfl-obs-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let events = sample_events();
        {
            let sink = JsonlSink::create(&path).expect("create log");
            for e in &events {
                sink.emit(e);
            }
            sink.flush();
        }
        let read = read_jsonl(&path).expect("parse log");
        std::fs::remove_file(&path).ok();
        assert_eq!(read, events);
    }

    #[test]
    fn read_jsonl_flags_the_bad_line() {
        let path =
            std::env::temp_dir().join(format!("hfl-obs-badline-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            format!(
                "{}\ngarbage\n",
                Event::RoundStart {
                    round: 0,
                    planned: 1
                }
                .to_json()
            ),
        )
        .unwrap();
        let err = read_jsonl(&path).expect_err("must reject");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn aborted_case_reasons_survive_json_escaping() {
        for reason in [
            "plain message",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand tab\tand\rcarriage",
            "control \u{1} char and unicode π",
            "",
        ] {
            let event = Event::CaseAborted {
                round: 0,
                case: 1,
                reason: reason.to_owned(),
                attempts: 2,
            };
            let line = event.to_json();
            let parsed = Event::from_json(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(parsed, event, "{line}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn jsonl_sink_errors_are_sticky_and_claimable() {
        // /dev/full accepts the open but fails every write with ENOSPC.
        let sink = match JsonlSink::create("/dev/full") {
            Ok(sink) => sink,
            Err(_) => return, // not available in this sandbox
        };
        for e in sample_events() {
            sink.emit(&e);
        }
        sink.flush();
        let handle = SinkHandle::new(Arc::new(sink));
        let err = handle
            .take_error()
            .expect("writing to /dev/full must surface an error");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
        assert!(handle.take_error().is_none(), "error is claimed once");
    }

    #[test]
    fn null_handle_is_disabled_and_live_handles_deliver() {
        let null = SinkHandle::null();
        assert!(!null.enabled());
        null.emit(&Event::RoundStart {
            round: 0,
            planned: 1,
        }); // must not panic
        let ring = Arc::new(RingSink::new(8));
        let live = SinkHandle::new(ring.clone());
        assert!(live.enabled());
        live.emit(&Event::RoundStart {
            round: 7,
            planned: 1,
        });
        live.flush();
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn metrics_counters_and_histograms_accumulate() {
        let mut metrics = Metrics::new();
        metrics.inc("campaign.cases", 3);
        metrics.inc("campaign.cases", 2);
        metrics.observe("phase.execute.seconds", 0.5e-3);
        metrics.observe("phase.execute.seconds", 2.0);
        metrics.observe_duration("phase.execute.seconds", Duration::from_millis(10));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("campaign.cases"), 5);
        assert_eq!(snap.counter("missing"), 0);
        let h = snap.histogram("phase.execute.seconds").unwrap();
        assert_eq!(h.count, 3);
        assert!((h.sum - 2.0105).abs() < 1e-9);
        assert!((h.min - 0.5e-3).abs() < 1e-12);
        assert!((h.max - 2.0).abs() < 1e-12);
        assert!((h.mean() - h.sum / 3.0).abs() < 1e-12);
        // 0.5 ms <= 1e-3, 10 ms <= 1e-2, 2.0 <= 10.0.
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[7], 1);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn histogram_overflow_bucket_catches_huge_values() {
        let mut h = Histogram::default();
        h.observe(1e6);
        assert_eq!(h.buckets[DURATION_BUCKETS.len()], 1);
        assert_eq!(h.mean(), 1e6);
    }

    #[test]
    fn replay_reconstructs_the_round_table() {
        let rows = replay_rounds(&sample_events());
        assert_eq!(rows.len(), 1);
        let row = rows[0];
        assert_eq!(row.round, 0);
        assert_eq!(row.cases, 2);
        assert_eq!((row.condition, row.line, row.fsm), (12, 30, 4));
        assert_eq!(row.unique_signatures, 1);
        assert_eq!(row.retired, 7);
        assert!((row.occupancy - 0.75).abs() < 1e-12);
        assert!((row.exec_seconds - 0.5).abs() < 1e-12);
    }

    #[test]
    fn replay_fleet_reconstructs_epoch_and_member_tables() {
        let replay = replay_fleet(&sample_events());
        assert_eq!(replay.epochs.len(), 1);
        let epoch = replay.epochs[0];
        assert_eq!(epoch.epoch, 0);
        assert_eq!(epoch.cases, 24);
        assert_eq!((epoch.condition, epoch.line, epoch.fsm), (13, 31, 4));
        assert_eq!(epoch.unique_signatures, 1);
        assert_eq!((epoch.inserted, epoch.duplicates, epoch.evicted), (5, 2, 0));
        assert_eq!((epoch.distilled_from, epoch.distilled_to), (5, 3));

        assert_eq!(replay.members.len(), 2);
        let m0 = replay.members[0];
        assert_eq!((m0.epoch, m0.member), (0, 0));
        assert_eq!(m0.executed, 12);
        assert_eq!((m0.next_budget, m0.rate_milli), (14, 833));
        let m1 = replay.members[1];
        assert_eq!((m1.next_budget, m1.rate_milli), (10, 667));

        // Campaign-only logs have no fleet rows; fleet replays tolerate
        // missing corpus_sync/budget_realloc events.
        let campaign_only: Vec<Event> = sample_events()
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    Event::EpochStart { .. }
                        | Event::MemberProgress { .. }
                        | Event::CorpusSync { .. }
                        | Event::BudgetRealloc { .. }
                        | Event::EpochEnd { .. }
                )
            })
            .collect();
        assert_eq!(replay_fleet(&campaign_only), FleetReplay::default());
        let sparse = [Event::EpochEnd {
            epoch: 3,
            executed: 9,
            condition: 1,
            line: 2,
            fsm: 0,
            unique_signatures: 0,
        }];
        let replay = replay_fleet(&sparse);
        assert_eq!(replay.epochs[0].distilled_to, 0);
        assert_eq!(replay.epochs[0].cases, 9);
    }

    #[test]
    fn replay_tolerates_filtered_logs() {
        let deterministic: Vec<Event> = sample_events()
            .into_iter()
            .filter(|e| !e.is_timing())
            .collect();
        let rows = replay_rounds(&deterministic);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].occupancy, 0.0);
        assert_eq!(rows[0].cases, 2);
    }
}
