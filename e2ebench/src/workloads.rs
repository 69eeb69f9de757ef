//! The four workloads, their set-up, and their untraced runs through the
//! public entry points (`run_campaign`, `run_fleet_dist`).
//!
//! Every workload is one closed loop: the runner generates a round (or
//! grants an epoch) only after the previous one finished. Each uses at
//! most two busy threads.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hfl::baselines::{CascadeFuzzer, InterleaveFuzzer};
use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec, CheckpointPolicy, RunConfig};
use hfl::difftest::Signature;
use hfl::exec::ExecPool;
use hfl::fleet::{FleetConfig, FleetResult, FleetSpec};
use hfl::fleet_dist::{run_fleet_dist, DistConfig, ThreadLauncher};
use hfl::harness::Executor;
use hfl::obs::{read_jsonl, replay_fleet, replay_rounds, Event, EventSink, JsonlSink, SinkHandle};
use hfl::spec::{FuzzerKind, MemberSpec};
use hfl::{CampaignResult, Fuzzer};
use hfl_dut::CoreKind;

use crate::clock::LoopClock;
use crate::sys::file_len;

/// Cases per round (campaigns) and per member round (fleet).
pub const BATCH: usize = 8;
/// Pool worker threads of the campaign workloads.
pub const POOL_THREADS: usize = 2;
/// Rounds between snapshots of the persisted campaign workload.
pub const CHECKPOINT_EVERY_ROUNDS: u64 = 16;
/// Seeds one measurement cycles through (see [`Plan::sub`]).
pub const SUB_SEEDS: u64 = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HFL on Rocket with a JSONL sink and checkpoints: learner-bound.
    Hfl,
    /// Feedback-free Cascade on CVA6: simulator- and pool-bound.
    Cascade,
    /// Interleaved Cascade on the two-hart Rocket system: scheduler-bound.
    Mhart,
    /// A distributed two-member fleet over thread workers.
    Fleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Hfl,
        Workload::Cascade,
        Workload::Mhart,
        Workload::Fleet,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hfl => "hfl",
            Workload::Cascade => "cascade",
            Workload::Mhart => "mhart",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?} (hfl, cascade, mhart, fleet, all)"))
    }
}

/// A campaign workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignShape {
    /// The core fuzzed.
    pub core: CoreKind,
    /// Whether cases run on the two-hart system.
    pub mhart: bool,
    /// Cases per run.
    pub cases: u64,
    /// Whether the run writes a JSONL sink and checkpoints, as an
    /// `hfl-serve` job does.
    pub persisted: bool,
}

/// The fleet workload's configuration.
#[derive(Debug, Clone)]
pub struct FleetShape {
    /// The members, each fuzzing Rocket.
    pub members: Vec<MemberSpec>,
    /// Epochs per run.
    pub epochs: u64,
    /// Cases apportioned across members per epoch.
    pub cases_per_epoch: u64,
}

/// One workload instantiated from a seed, with its case budgets scaled.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed every fuzzer's RNG derives from.
    pub seed: u64,
    /// Multiplier on the case budgets (1.0 for measurements; smaller for
    /// smoke runs).
    pub scale: f64,
}

/// A workload's kind-specific configuration.
pub enum Shape {
    /// A single campaign through `run_campaign`.
    Campaign(CampaignShape),
    /// A fleet through `run_fleet_dist`.
    Fleet(FleetShape),
}

impl Plan {
    /// The plan of a measurement's `i`-th run. Runs cycle through
    /// [`SUB_SEEDS`] seeds derived from this plan's, so a measurement's
    /// medians describe several campaigns rather than one seed's quirks;
    /// distinct measurement seeds never share a derived seed.
    pub fn sub(&self, i: u64) -> Plan {
        Plan {
            seed: self
                .seed
                .wrapping_mul(SUB_SEEDS)
                .wrapping_add(i % SUB_SEEDS),
            ..*self
        }
    }

    fn scaled(&self, count: u64, floor: u64) -> u64 {
        ((count as f64 * self.scale).round() as u64).max(floor)
    }

    /// The workload's configuration. Budgets put one run near a second
    /// on a 2-core x86-64 host, so every sub-seed runs well within a
    /// measurement even on a contended host.
    pub fn shape(&self) -> Shape {
        let campaign = |core, mhart, cases, persisted| {
            Shape::Campaign(CampaignShape {
                core,
                mhart,
                cases: self.scaled(cases, 2 * BATCH as u64),
                persisted,
            })
        };
        match self.workload {
            Workload::Hfl => campaign(CoreKind::Rocket, false, 1_000, true),
            Workload::Cascade => campaign(CoreKind::Cva6, false, 9_000, false),
            Workload::Mhart => campaign(CoreKind::Rocket, true, 6_000, false),
            Workload::Fleet => Shape::Fleet(FleetShape {
                // Two learners: with a fast feedback-free second member,
                // throughput would swing with whether the scheduler
                // skews an epoch's budget toward the slow learner.
                members: vec![
                    MemberSpec::new(FuzzerKind::Hfl, self.seed, CoreKind::Rocket),
                    MemberSpec::new(FuzzerKind::Hfl, self.seed.wrapping_add(1), CoreKind::Rocket),
                ],
                epochs: self.scaled(28, 2),
                cases_per_epoch: 64,
            }),
        }
    }

    /// Builds a campaign workload's fuzzer.
    ///
    /// # Panics
    /// Panics for the fleet, whose members are built from [`MemberSpec`]s
    /// by their workers.
    pub fn build_fuzzer(&self) -> Box<dyn Fuzzer> {
        match self.workload {
            Workload::Hfl => FuzzerKind::Hfl.build(self.seed),
            Workload::Cascade => FuzzerKind::Cascade.build(self.seed),
            Workload::Mhart => Box::new(InterleaveFuzzer::new(
                self.seed,
                CascadeFuzzer::new(self.seed, 60),
            )),
            Workload::Fleet => unreachable!("fleet members are built from their MemberSpecs"),
        }
    }
}

/// The campaign's step budget and batch, shared by every workload.
pub fn run_config(threads: usize) -> RunConfig {
    RunConfig::quick().with_batch(BATCH).with_threads(threads)
}

/// The executor a campaign workload's pool clones.
pub fn executor(shape: &CampaignShape) -> Executor {
    Executor::builder(shape.core)
        .max_steps(run_config(POOL_THREADS).max_steps)
        .mhart(shape.mhart)
        .build()
}

/// Seconds to construct what one run needs before its loop starts — the
/// fuzzer(s), the `Executor` and the `ExecPool` — timed `samples` times.
pub fn measure_setup(plan: &Plan, samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let started = Instant::now();
            let built = match plan.shape() {
                Shape::Campaign(shape) => {
                    vec![(
                        plan.build_fuzzer(),
                        ExecPool::new(executor(&shape), POOL_THREADS),
                    )]
                }
                Shape::Fleet(shape) => shape
                    .members
                    .iter()
                    .map(|m| {
                        let executor = Executor::builder(m.core)
                            .max_steps(run_config(1).max_steps)
                            .build();
                        (m.fuzzer.build(m.seed), ExecPool::new(executor, 1))
                    })
                    .collect(),
            };
            black_box(&built);
            let seconds = started.elapsed().as_secs_f64();
            drop(built);
            seconds
        })
        .collect()
}

/// The deterministic outputs of a run: what the traced replica and every
/// repetition must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Final cumulative condition + line + FSM points (merged across
    /// members for the fleet).
    pub cov_points: u64,
    /// Sorted unique mismatch signatures (union over members).
    pub signatures: Vec<Signature>,
    /// Mismatches before dedup (campaigns only: fleet results do not
    /// report it).
    pub mismatches: Option<u64>,
    /// DUT instructions retired.
    pub retired: u64,
}

impl Summary {
    fn of_campaign(result: &CampaignResult) -> Summary {
        let (c, l, f) = result.final_counts();
        Summary {
            cov_points: (c + l + f) as u64,
            signatures: result.signatures.clone(),
            mismatches: Some(result.total_mismatches),
            retired: result.instructions_executed,
        }
    }

    /// The summary of a fleet result.
    pub fn of_fleet(result: &FleetResult) -> Summary {
        let (c, l, f) = result.final_counts();
        let mut signatures: Vec<Signature> = result
            .members
            .iter()
            .flat_map(|m| m.signatures.iter().copied())
            .collect();
        signatures.sort_unstable();
        signatures.dedup();
        Summary {
            cov_points: (c + l + f) as u64,
            signatures,
            mismatches: None,
            retired: result.members.iter().map(|m| m.instructions_executed).sum(),
        }
    }
}

/// One untraced run of a workload.
pub struct RunOutcome {
    /// Wall seconds of the public call.
    pub wall_s: f64,
    /// Cases run.
    pub cases: u64,
    /// Cases abandoned by fault containment.
    pub aborted: u64,
    /// The deterministic outputs.
    pub summary: Summary,
    /// Wall seconds of each loop iteration (round or epoch).
    pub loops: Vec<f64>,
    /// The non-timing event stream.
    pub events: Vec<Event>,
    /// Size of the final snapshot (0 when the workload does not persist).
    pub checkpoint_bytes: u64,
    /// Size of the JSONL log (0 when the workload writes none).
    pub telemetry_bytes: u64,
    /// Fleet coordinator seconds in corpus sync, distillation and
    /// budget scheduling (0 for campaigns).
    pub fleet_coord_s: f64,
}

/// Fails a check with a message naming the workload.
pub fn check(ok: bool, plan: &Plan, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: check failed: {}",
            plan.workload.name(),
            what()
        ))
    }
}

/// Runs the workload once through its public entry point, with tracing
/// off, and checks the outputs. Sinks and snapshots go under `scratch`.
pub fn run_untraced(plan: &Plan, scratch: &Path) -> Result<RunOutcome, String> {
    match plan.shape() {
        Shape::Campaign(shape) => run_campaign_once(plan, &shape, scratch),
        Shape::Fleet(shape) => run_fleet_once(plan, &shape, scratch),
    }
}

/// Opens the workload's sink: a [`LoopClock`] over a JSONL log when the
/// workload persists, or over nothing.
pub fn open_sink(
    plan: &Plan,
    persisted: bool,
    log: &Path,
) -> Result<(Arc<LoopClock>, SinkHandle), String> {
    let inner: Option<Arc<dyn EventSink>> = if persisted {
        let jsonl = JsonlSink::create(log).map_err(|e| {
            format!(
                "{}: cannot create {}: {e}",
                plan.workload.name(),
                log.display()
            )
        })?;
        Some(Arc::new(jsonl))
    } else {
        None
    };
    let clock = LoopClock::new(inner);
    let handle = SinkHandle::new(clock.clone());
    Ok((clock, handle))
}

/// The non-timing events of a run: the JSONL log read back when the
/// workload persists, else what the clock kept.
pub fn read_events(
    plan: &Plan,
    persisted: bool,
    log: &Path,
    kept: Vec<Event>,
) -> Result<Vec<Event>, String> {
    if !persisted {
        return Ok(kept);
    }
    let events = read_jsonl(log).map_err(|e| {
        format!(
            "{}: cannot read {}: {e}",
            plan.workload.name(),
            log.display()
        )
    })?;
    Ok(events.into_iter().filter(|e| !e.is_timing()).collect())
}

fn run_campaign_once(
    plan: &Plan,
    shape: &CampaignShape,
    scratch: &Path,
) -> Result<RunOutcome, String> {
    let log = scratch.join("campaign.jsonl");
    let (clock, sink) = open_sink(plan, shape.persisted, &log)?;
    let config = CampaignConfig {
        run: run_config(POOL_THREADS),
        ..CampaignConfig::quick(shape.cases)
    };
    let mut builder = CampaignSpec::builder(shape.core, config)
        .mhart(shape.mhart)
        .sink(sink);
    let policy = CheckpointPolicy::new(scratch.join("ckpt"), CHECKPOINT_EVERY_ROUNDS);
    if shape.persisted {
        builder = builder.checkpoint(policy.clone());
    }
    let spec = builder
        .build()
        .map_err(|e| format!("{}: invalid spec: {e}", plan.workload.name()))?;
    let mut fuzzer = plan.build_fuzzer();

    let started = Instant::now();
    let result = run_campaign(fuzzer.as_mut(), &spec)
        .map_err(|e| format!("{}: run_campaign failed: {e}", plan.workload.name()))?;
    let wall_s = started.elapsed().as_secs_f64();

    let clocked = clock.take();
    check(result.completed, plan, || {
        "the campaign did not complete".into()
    })?;
    check(result.sink_error.is_none(), plan, || {
        format!("sink error: {:?}", result.sink_error)
    })?;
    let events = read_events(plan, shape.persisted, &log, clocked.kept)?;
    let summary = Summary::of_campaign(&result);
    let rows = replay_rounds(&events);
    let last = rows
        .last()
        .ok_or_else(|| format!("{}: the event stream holds no round", plan.workload.name()))?;
    check(
        last.condition + last.line + last.fsm == summary.cov_points
            && last.unique_signatures == summary.signatures.len() as u64
            && last.retired == summary.retired
            && last.cases == shape.cases,
        plan,
        || format!("replayed stream {last:?} disagrees with the result {summary:?}"),
    )?;
    check(clocked.loops.len() == rows.len(), plan, || {
        format!(
            "{} timed rounds, {} replayed",
            clocked.loops.len(),
            rows.len()
        )
    })?;
    Ok(RunOutcome {
        wall_s,
        cases: shape.cases,
        aborted: result.aborted_cases,
        summary,
        loops: clocked.loops,
        events,
        checkpoint_bytes: file_len(&policy.snapshot_path()),
        telemetry_bytes: file_len(&log),
        fleet_coord_s: 0.0,
    })
}

/// The fleet workload's spec (shared with the traced in-process replica).
pub fn fleet_spec(shape: &FleetShape, sink: SinkHandle, policy: CheckpointPolicy) -> FleetSpec {
    FleetSpec::builder(FleetConfig {
        epochs: shape.epochs,
        cases_per_epoch: shape.cases_per_epoch,
        run: run_config(1),
    })
    .sink(sink)
    .checkpoint(policy)
    .build()
    .expect("the fleet workload's spec is valid")
}

/// Seconds a fleet's coordinator spent in corpus sync, distillation and
/// budget scheduling, from the result's metrics.
pub fn fleet_coord_seconds(result: &FleetResult) -> f64 {
    [
        "fleet.sync.seconds",
        "fleet.distill.seconds",
        "fleet.schedule.seconds",
    ]
    .iter()
    .filter_map(|name| result.metrics.histogram(name))
    .map(|h| h.sum)
    .sum()
}

fn run_fleet_once(plan: &Plan, shape: &FleetShape, scratch: &Path) -> Result<RunOutcome, String> {
    let log = scratch.join("fleet.jsonl");
    let (clock, sink) = open_sink(plan, true, &log)?;
    let policy = CheckpointPolicy::new(scratch.join("ckpt"), 1);
    let spec = fleet_spec(shape, sink, policy.clone());
    let mut launcher = ThreadLauncher::new();

    let started = Instant::now();
    let result = run_fleet_dist(&shape.members, &spec, &DistConfig::default(), &mut launcher)
        .map_err(|e| format!("fleet: run_fleet_dist failed: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();

    let clocked = clock.take();
    check(result.completed, plan, || {
        "the fleet did not complete".into()
    })?;
    check(result.sink_error.is_none(), plan, || {
        format!("sink error: {:?}", result.sink_error)
    })?;
    let events = read_events(plan, true, &log, clocked.kept)?;
    let summary = Summary::of_fleet(&result);
    let cases: u64 = result.members.iter().map(|m| m.cases).sum();
    let replay = replay_fleet(&events);
    let last = replay
        .epochs
        .last()
        .ok_or_else(|| "fleet: the event stream holds no epoch".to_string())?;
    check(
        last.condition + last.line + last.fsm == summary.cov_points
            && last.unique_signatures == summary.signatures.len() as u64
            && last.cases == cases
            && cases == shape.epochs * shape.cases_per_epoch,
        plan,
        || format!("replayed stream {last:?} disagrees with the result {summary:?}"),
    )?;
    check(clocked.loops.len() as u64 == shape.epochs, plan, || {
        format!(
            "{} timed epochs, {} planned",
            clocked.loops.len(),
            shape.epochs
        )
    })?;
    Ok(RunOutcome {
        wall_s,
        cases,
        aborted: result.members.iter().map(|m| m.aborted_cases).sum(),
        summary,
        loops: clocked.loops,
        events,
        checkpoint_bytes: file_len(&policy.fleet_snapshot_path()),
        telemetry_bytes: file_len(&log),
        fleet_coord_s: fleet_coord_seconds(&result),
    })
}
