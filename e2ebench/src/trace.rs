//! The traced run: the workload's loop rebuilt from public calls, with a
//! span around every call into a layer.
//!
//! For the campaign workloads the replica re-runs `run_round`'s sequence
//! — `Fuzzer::try_next_round`, `ExecPool::run_batch_contained`,
//! `CoverageBatch::from_outcomes` + `CoverageSnapshot::union_counting` +
//! `SignatureSet::insert`, `to_bit_labels`, `Fuzzer::feedback`, the
//! events `run_round` emits, and `Fuzzer::save_state` on the checkpoint
//! cadence — so its outputs and non-timing event stream must equal the
//! untraced `run_campaign`'s exactly. The fleet's coordinator is not
//! public, so its replica is the in-process `run_fleet` (bit-identical to
//! `run_fleet_dist` by contract) with each member's fuzzer behind a
//! timing [`Spanned`] wrapper; pool and bookkeeping time then come from
//! the result's phase metrics.
//!
//! A single-thread side pass replays every fourth round's bodies layer
//! by layer — `PredecodeCache::prepare`, `Dut::run_predecoded`,
//! `Cpu::run_predecoded`, `difftest::compare` (or `MhartMachine::run` +
//! `compare` per hart) — and checks each case against the pool's result.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use hfl::baselines::{ComposeError, Feedback, TestBody};
use hfl::difftest::{compare, SignatureSet};
use hfl::exec::{CaseOutcome, CoverageBatch, ExecPool};
use hfl::fleet::{run_fleet, FleetMember};
use hfl::obs::{Event, SinkHandle};
use hfl::predecode::PredecodeCache;
use hfl::{CheckpointPolicy, Fuzzer};
use hfl_dut::{quirks_for, CoreKind, CoverageKind, CoverageSnapshot, Dut, MhartMachine};
use hfl_grm::{Cpu, HaltReason};
use hfl_nn::PersistError;

use crate::workloads::{
    check, executor, fleet_coord_seconds, fleet_spec, open_sink, read_events, run_config,
    CampaignShape, FleetShape, Plan, Summary, BATCH, CHECKPOINT_EVERY_ROUNDS, POOL_THREADS,
};

/// The side pass replays every this-many-th round.
const SIDE_PASS_EVERY: u64 = 4;

/// One recorded span.
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: f64,
    end: f64,
}

/// An open span, closed by [`Tracer::close`].
#[derive(Clone, Copy)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    started: Instant,
}

/// Span recorder with per-name totals and named counters.
pub struct Tracer {
    origin: Instant,
    keep: bool,
    next_id: u64,
    spans: Vec<SpanRecord>,
    seconds: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer; `keep` retains every span for [`Tracer::write_jsonl`],
    /// otherwise only per-name totals are kept.
    pub fn new(keep: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            keep,
            next_id: 0,
            spans: Vec::new(),
            seconds: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<Open>) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            parent: parent.map(|p| p.id),
            name,
            started: Instant::now(),
        }
    }

    /// Closes `span`, returning its duration in seconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let ended = Instant::now();
        let seconds = (ended - span.started).as_secs_f64();
        *self.seconds.entry(span.name).or_default() += seconds;
        if self.keep {
            self.spans.push(SpanRecord {
                id: span.id,
                parent: span.parent,
                name: span.name,
                start: (span.started - self.origin).as_secs_f64(),
                end: (ended - self.origin).as_secs_f64(),
            });
        }
        seconds
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: Open, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Adds `by` to the named counter.
    pub fn add(&mut self, counter: &'static str, by: f64) {
        *self.counts.entry(counter).or_default() += by;
    }

    /// Total seconds of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    /// The named counter.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Writes every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.name,
                s.start * 1e6,
                s.end * 1e6
            )?;
        }
        out.flush()
    }
}

/// Span names whose time the replica attributes to a layer.
pub const ROUND_CHILDREN: [&str; 7] = [
    "generate",
    "exec",
    "coverage",
    "labels",
    "learn",
    "telemetry",
    "persist",
];

/// What one traced replica run produced.
pub struct ReplicaOutcome {
    /// Wall seconds of the replicated loop (side pass excluded).
    pub wall_s: f64,
    /// The deterministic outputs, to compare with the untraced run.
    pub summary: Summary,
    /// The non-timing event stream, to compare with the untraced run.
    pub events: Vec<Event>,
}

/// Replays single cases layer by layer on one thread.
struct SidePass {
    cache: PredecodeCache,
    dut: Dut,
    mhart: Option<MhartMachine>,
    max_steps: u64,
}

impl SidePass {
    fn new(core: CoreKind, mhart: bool) -> SidePass {
        SidePass {
            cache: PredecodeCache::default(),
            dut: Dut::new(core),
            mhart: mhart.then(|| MhartMachine::new(quirks_for(core))),
            max_steps: run_config(1).max_steps,
        }
    }

    /// Runs one body; returns its coverage and mismatch count.
    fn run(
        &mut self,
        tracer: &mut Tracer,
        parent: Open,
        body: &TestBody,
    ) -> (CoverageSnapshot, usize) {
        let prepared = tracer.time("predecode", parent, || self.cache.prepare(body));
        let max_steps = self.max_steps;
        let (coverage, mismatches, steps) = match &mut self.mhart {
            Some(machine) => {
                let seed = body.sched_seed().unwrap_or(0);
                let run = tracer.time("sim.mhart", parent, || {
                    machine.run(&prepared.program, seed, max_steps)
                });
                let mismatches = tracer.time("difftest", parent, || {
                    run.harts
                        .iter()
                        .zip(&run.reference)
                        .map(|(d, r)| {
                            compare(&r.trace, r.halt, &r.arch, &d.trace, d.halt, &d.arch).len()
                        })
                        .sum()
                });
                (run.coverage, mismatches, run.scheduled_steps)
            }
            None => {
                let dut = tracer.time("sim.dut", parent, || {
                    self.dut
                        .run_predecoded(&prepared.program, &prepared.image, max_steps)
                });
                let (grm_halt, grm_arch, grm_trace) = tracer.time("sim.grm", parent, || {
                    let mut grm = Cpu::new();
                    grm.load_program(&prepared.program);
                    let run = grm.run_predecoded(&prepared.image, max_steps);
                    (
                        run.reason,
                        grm.arch_snapshot(),
                        std::mem::take(&mut grm.trace),
                    )
                });
                let mismatches = tracer.time("difftest", parent, || {
                    compare(
                        &grm_trace, grm_halt, &grm_arch, &dut.trace, dut.halt, &dut.arch,
                    )
                    .len()
                });
                (dut.coverage, mismatches, dut.steps)
            }
        };
        tracer.add("side.cases", 1.0);
        tracer.add("side.steps", steps as f64);
        tracer.add("side.mismatches", mismatches as f64);
        (coverage, mismatches)
    }
}

/// Writes a checkpoint the way the campaign does: flush the log, then
/// serialise the fuzzer and the coverage and replace the snapshot
/// atomically and durably.
fn write_checkpoint(
    tracer: &mut Tracer,
    round: Open,
    fuzzer: &dyn Fuzzer,
    cumulative: &CoverageSnapshot,
    dir: &Path,
    sink: &SinkHandle,
) -> Result<(), String> {
    tracer.time("telemetry", round, || sink.flush());
    tracer
        .time("persist", round, || -> io::Result<()> {
            let mut blob = Vec::new();
            fuzzer
                .save_state(&mut blob)
                .map_err(|e| io::Error::other(e.to_string()))?;
            for word in cumulative.words() {
                blob.extend_from_slice(&word.to_le_bytes());
            }
            let path = dir.join("replica.ckpt");
            let tmp = dir.join("replica.ckpt.tmp");
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&blob)?;
            file.sync_all()?;
            fs::rename(&tmp, &path)
        })
        .map_err(|e| format!("replica checkpoint failed: {e}"))
}

/// Runs the campaign replica once, accumulating spans into `tracer`.
pub fn trace_campaign(
    plan: &Plan,
    shape: &CampaignShape,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<ReplicaOutcome, String> {
    let log = scratch.join("replica.jsonl");
    let (clock, sink) = open_sink(plan, shape.persisted, &log)?;
    let ckpt = scratch.join("replica-ckpt");
    fs::create_dir_all(&ckpt).map_err(|e| format!("cannot create {}: {e}", ckpt.display()))?;
    let mut fuzzer = plan.build_fuzzer();
    let mut pool = ExecPool::new(executor(shape), POOL_THREADS);
    let map_len = pool.coverage_map().len();
    let mut side = SidePass::new(shape.core, shape.mhart);

    let mut cumulative = CoverageSnapshot::empty(map_len);
    let mut signatures = SignatureSet::new();
    let mut executed = 0u64;
    let mut round_index = 0u64;
    let mut retired = 0u64;
    let mut wall_s = 0.0f64;
    fuzzer.attach_sink(sink.clone());
    while executed < shape.cases {
        let round = tracer.open("round", None);
        let want = (shape.cases - executed).min(BATCH as u64) as usize;
        tracer.time("telemetry", round, || {
            sink.emit(&Event::RoundStart {
                round: round_index,
                planned: want as u64,
            });
        });
        let mut bodies = tracer
            .time("generate", round, || fuzzer.try_next_round(want))
            .map_err(|e| format!("{}: round composition failed: {e}", plan.workload.name()))?;
        check(!bodies.is_empty(), plan, || {
            "the fuzzer composed an empty round".into()
        })?;
        bodies.truncate(want);
        let outcomes = tracer.time("exec", round, || pool.run_batch_contained(&bodies));
        let batch = pool.last_batch();
        let rows = tracer.time("coverage", round, || {
            CoverageBatch::from_outcomes(&outcomes)
        });
        for (slot, (body, outcome)) in bodies.iter().zip(&outcomes).enumerate() {
            executed += 1;
            tracer.add("cases", 1.0);
            let Some(result) = outcome.completed() else {
                let (reason, attempts) = match outcome {
                    CaseOutcome::TimedOut { attempts } => ("timeout".to_string(), *attempts),
                    CaseOutcome::Poisoned { attempts, reason } => (reason.clone(), *attempts),
                    CaseOutcome::Completed(_) => unreachable!("completed cases carry a result"),
                };
                tracer.add("aborted", 1.0);
                tracer.time("learn", round, || {
                    fuzzer.feedback(
                        body,
                        Feedback {
                            gained_coverage: false,
                            coverage: 0.0,
                            case_bits: None,
                            terminated: false,
                        },
                    );
                });
                tracer.time("telemetry", round, || {
                    sink.emit(&Event::CaseAborted {
                        round: round_index,
                        case: executed,
                        reason,
                        attempts: u64::from(attempts),
                    });
                });
                continue;
            };
            retired += result.dut.steps;
            let (newly, new_signature) = tracer.time("coverage", round, || {
                let newly = cumulative.union_counting(rows.row(slot));
                let mut new_signature = None;
                for mismatch in &result.mismatches {
                    if signatures.insert(mismatch) && new_signature.is_none() {
                        new_signature = Some(mismatch.signature().0);
                    }
                }
                (newly, new_signature)
            });
            if newly > 0 {
                tracer.add("gained", 1.0);
            }
            tracer.time("telemetry", round, || {
                sink.emit(&Event::CaseExecuted {
                    round: round_index,
                    case: executed,
                    body_len: body.len() as u64,
                    gained_bits: newly as u64,
                    retired: result.dut.steps,
                    mismatches: result.mismatches.len() as u64,
                    new_signature,
                });
            });
            let case_bits = tracer.time("labels", round, || {
                Arc::new(result.dut.coverage.to_bit_labels())
            });
            let feedback = Feedback {
                gained_coverage: newly > 0,
                coverage: result.dut.coverage.count() as f32 / map_len as f32,
                case_bits: Some(case_bits),
                terminated: result.dut.halt != HaltReason::StepBudget,
            };
            tracer.time("learn", round, || fuzzer.feedback(body, feedback));
        }
        tracer.time("telemetry", round, || {
            let map = pool.coverage_map();
            sink.emit(&Event::PoolOccupancy {
                round: round_index,
                threads: POOL_THREADS as u64,
                occupancy: batch.occupancy,
                exec_seconds: batch.exec_seconds,
                busy_seconds: batch.busy_seconds,
            });
            sink.emit(&Event::RoundEnd {
                round: round_index,
                executed,
                condition: cumulative.count_of(map, CoverageKind::Condition) as u64,
                line: cumulative.count_of(map, CoverageKind::Line) as u64,
                fsm: cumulative.count_of(map, CoverageKind::Fsm) as u64,
                unique_signatures: signatures.unique() as u64,
            });
        });
        round_index += 1;
        let periodic = round_index.is_multiple_of(CHECKPOINT_EVERY_ROUNDS);
        if shape.persisted && (periodic || executed >= shape.cases) {
            write_checkpoint(tracer, round, fuzzer.as_ref(), &cumulative, &ckpt, &sink)?;
        }
        wall_s += tracer.close(round);

        if (round_index - 1).is_multiple_of(SIDE_PASS_EVERY) {
            let span = tracer.open("sidepass", None);
            for (body, outcome) in bodies.iter().zip(&outcomes) {
                let Some(result) = outcome.completed() else {
                    continue;
                };
                let (coverage, mismatches) = side.run(tracer, span, body);
                check(
                    coverage == result.dut.coverage && mismatches == result.mismatches.len(),
                    plan,
                    || "the side pass disagrees with the pool on a case".into(),
                )?;
            }
            tracer.close(span);
        }
    }
    sink.flush();
    if let Some(e) = sink.take_error() {
        return Err(format!("{}: replica sink error: {e}", plan.workload.name()));
    }
    let events = read_events(plan, shape.persisted, &log, clock.take().kept)?;
    let map = pool.coverage_map();
    let cov_points = [
        CoverageKind::Condition,
        CoverageKind::Line,
        CoverageKind::Fsm,
    ]
    .into_iter()
    .map(|kind| cumulative.count_of(map, kind) as u64)
    .sum();
    Ok(ReplicaOutcome {
        wall_s,
        summary: Summary {
            cov_points,
            signatures: signatures.sorted_signatures(),
            mismatches: Some(signatures.total_mismatches),
            retired,
        },
        events,
    })
}

/// What a [`Spanned`] fuzzer saw of its rounds.
#[derive(Default)]
struct Seen {
    rounds: u64,
    /// Bodies of every fourth round, awaiting their coverage labels.
    pending: VecDeque<TestBody>,
    /// Side-pass material: bodies with the labels the engine fed back.
    captured: Vec<(TestBody, Arc<Vec<u8>>)>,
}

/// A fuzzer wrapper that times the calls a fleet's round engine makes
/// into the fuzzer, and captures bodies for the side pass. Every call is
/// forwarded unchanged.
struct Spanned {
    inner: Box<dyn Fuzzer>,
    tracer: Rc<RefCell<Tracer>>,
    parent: Open,
    seen: Rc<RefCell<Seen>>,
}

/// Runs `f` inside a span named `name` under `parent`, on a shared tracer.
fn timed<T>(
    tracer: &RefCell<Tracer>,
    parent: Open,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let span = tracer.borrow_mut().open(name, Some(parent));
    let out = f();
    tracer.borrow_mut().close(span);
    out
}

impl Fuzzer for Spanned {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_case(&mut self) -> TestBody {
        self.inner.next_case()
    }

    fn next_round(&mut self, n: usize) -> Vec<TestBody> {
        self.inner.next_round(n)
    }

    fn try_next_case(&mut self) -> Result<TestBody, ComposeError> {
        self.inner.try_next_case()
    }

    fn try_next_round(&mut self, n: usize) -> Result<Vec<TestBody>, ComposeError> {
        let round = timed(&self.tracer, self.parent, "generate", || {
            self.inner.try_next_round(n)
        });
        let mut seen = self.seen.borrow_mut();
        if let Ok(bodies) = &round {
            if seen.rounds.is_multiple_of(SIDE_PASS_EVERY) {
                // The engine truncates a round to `n`; only those reach
                // feedback.
                seen.pending.extend(bodies.iter().take(n).cloned());
            }
            seen.rounds += 1;
        }
        round
    }

    fn feedback(&mut self, body: &TestBody, feedback: Feedback) {
        {
            let mut tracer = self.tracer.borrow_mut();
            tracer.add("cases", 1.0);
            if feedback.gained_coverage {
                tracer.add("gained", 1.0);
            }
        }
        {
            let mut seen = self.seen.borrow_mut();
            if seen.pending.front() == Some(body) {
                let body = seen.pending.pop_front().expect("front exists");
                if let Some(bits) = &feedback.case_bits {
                    seen.captured.push((body, Arc::clone(bits)));
                }
            }
        }
        timed(&self.tracer, self.parent, "learn", || {
            self.inner.feedback(body, feedback);
        });
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.inner.attach_sink(sink);
    }

    fn save_state(&self, w: &mut dyn Write) -> Result<(), PersistError> {
        timed(&self.tracer, self.parent, "persist", || {
            self.inner.save_state(w)
        })
    }

    fn load_state(&mut self, r: &mut dyn Read) -> Result<(), PersistError> {
        timed(&self.tracer, self.parent, "persist", || {
            self.inner.load_state(r)
        })
    }
}

/// Runs the in-process fleet replica once, accumulating spans into
/// `tracer`, plus the counters `fleet.exec` (pool seconds),
/// `fleet.engine` (round bookkeeping: `phase.train` less feedback) and
/// `fleet.coord` (corpus sync, distillation and scheduling seconds).
pub fn trace_fleet(
    plan: &Plan,
    shape: &FleetShape,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<ReplicaOutcome, String> {
    let log = scratch.join("replica.jsonl");
    let (clock, sink) = open_sink(plan, true, &log)?;
    let policy = CheckpointPolicy::new(scratch.join("replica-ckpt"), 1);
    let spec = fleet_spec(shape, sink, policy);

    let shared = Rc::new(RefCell::new(std::mem::replace(tracer, Tracer::new(false))));
    let fleet_span = shared.borrow_mut().open("fleet", None);
    let learn_before = shared.borrow().seconds("learn");
    let mut seen = Vec::new();
    let mut members: Vec<FleetMember> = shape
        .members
        .iter()
        .map(|m| {
            let member_seen = Rc::new(RefCell::new(Seen::default()));
            seen.push(Rc::clone(&member_seen));
            let spanned = Spanned {
                inner: m.fuzzer.build(m.seed),
                tracer: Rc::clone(&shared),
                parent: fleet_span,
                seen: member_seen,
            };
            FleetMember::new(m.display_name(), m.core, Box::new(spanned))
        })
        .collect();
    let result = run_fleet(&mut members, &spec);
    drop(members);
    *tracer = Rc::try_unwrap(shared)
        .ok()
        .expect("members released the tracer")
        .into_inner();
    let wall_s = tracer.close(fleet_span);
    let result = result.map_err(|e| format!("fleet: replica run_fleet failed: {e}"))?;
    check(
        result.completed && result.sink_error.is_none(),
        plan,
        || {
            format!(
                "the replica fleet did not complete cleanly: {:?}",
                result.sink_error
            )
        },
    )?;

    let phase = |name: &str| result.metrics.histogram(name).map_or(0.0, |h| h.sum);
    let learn = tracer.seconds("learn") - learn_before;
    tracer.add("fleet.exec", phase("phase.execute.seconds"));
    tracer.add("fleet.engine", phase("phase.train.seconds") - learn);
    tracer.add("fleet.coord", fleet_coord_seconds(&result));

    let mut side = SidePass::new(shape.members[0].core, false);
    let span = tracer.open("sidepass", None);
    for member in &seen {
        for (body, bits) in &member.borrow().captured {
            let (coverage, _) = side.run(tracer, span, body);
            check(coverage.to_bit_labels() == **bits, plan, || {
                "the side pass disagrees with the fed-back coverage of a case".into()
            })?;
        }
    }
    tracer.close(span);
    let events = read_events(plan, true, &log, clock.take().kept)?;
    Ok(ReplicaOutcome {
        wall_s,
        summary: Summary::of_fleet(&result),
        events,
    })
}
