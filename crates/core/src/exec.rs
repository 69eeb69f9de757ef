//! Batched parallel execution: a pool of `(DUT, GRM)` worker pairs that
//! evaluates a round of test bodies and returns results **in submission
//! order**, with per-case fault containment.
//!
//! Ordered merging is what keeps campaigns deterministic: coverage curves,
//! mismatch signatures and first-detection indices depend only on the
//! sequence of submitted bodies, never on which worker ran a case or how
//! the OS scheduled the threads. A pool with one worker degenerates to a
//! plain sequential loop over the same code path, so `threads = 1`
//! reproduces the single-threaded harness bit for bit.
//!
//! Fault containment (the crash-safety half of the campaign API): each
//! case runs inside `catch_unwind`, so a panicking worker poisons only its
//! own `(DUT, GRM)` pair — the pair is replaced from the prototype, the
//! case is retried up to [`FaultPolicy::max_retries`] times, and a case
//! that still fails is reported as [`CaseOutcome::Poisoned`] instead of
//! tearing the campaign down. A fuel watchdog classifies runaway
//! executions as [`CaseOutcome::TimedOut`]. [`FaultPlan`] injects
//! deterministic faults at chosen global case indices so all of this is
//! testable without a real defect.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfl_grm::cpu::HaltReason;

use crate::baselines::TestBody;
use crate::harness::{CaseResult, Executor};

/// Runs `f` over `items` on the given workers, merging the outputs back
/// into item order.
///
/// Work is distributed by an atomic cursor (work stealing), so slow items
/// don't serialise behind a static partition; the index travelling with
/// each output makes the merge deterministic regardless of which worker
/// picked up which item. With one worker (or one item) no threads are
/// spawned at all.
///
/// # Panics
///
/// Panics if `workers` is empty, and propagates the original payload if a
/// worker panics while processing an item.
pub fn run_ordered<W, I, T, F>(workers: &mut [W], items: &[I], f: F) -> Vec<T>
where
    W: Send,
    I: Sync,
    T: Send,
    F: Fn(&mut W, &I) -> T + Sync,
{
    assert!(!workers.is_empty(), "run_ordered needs at least one worker");
    if workers.len() <= 1 || items.len() <= 1 {
        let worker = &mut workers[0];
        return items.iter().map(|item| f(worker, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|worker| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(worker, item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
    for (i, result) in indexed {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item was processed exactly once"))
        .collect()
}

/// The kind of fault [`FaultPlan`] injects into a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker panics mid-case (caught by `catch_unwind`; the
    /// `(DUT, GRM)` pair is replaced from the prototype).
    Panic,
    /// The case never halts; the watchdog reports it as timed out.
    Hang,
    /// The worker hits an I/O error and panics with an I/O message
    /// (contained exactly like [`FaultKind::Panic`]).
    IoError,
}

#[derive(Debug)]
struct PlannedFault {
    kind: FaultKind,
    sticky: bool,
    attempts: AtomicU32,
}

/// Deterministic fault injection: maps **global 1-based case indices**
/// (the pool's lifetime case counter, not the offset within one batch)
/// to faults, so tests and the CI crash-resume job can provoke panics,
/// hangs and I/O errors at exact, reproducible points regardless of
/// thread count.
///
/// Transient faults ([`FaultPlan::fail_at`]) fire on the first attempt
/// only — the bounded retry then succeeds. Persistent faults
/// ([`FaultPlan::fail_at_persistent`]) fire on every attempt, exhausting
/// the retry budget and surfacing as [`CaseOutcome::Poisoned`] or
/// [`CaseOutcome::TimedOut`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: HashMap<u64, PlannedFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Injects `kind` on the **first attempt** of global case
    /// `case_index` (1-based); retries of that case run clean.
    #[must_use]
    pub fn fail_at(mut self, case_index: u64, kind: FaultKind) -> FaultPlan {
        self.faults.insert(
            case_index,
            PlannedFault {
                kind,
                sticky: false,
                attempts: AtomicU32::new(0),
            },
        );
        self
    }

    /// Injects `kind` on **every attempt** of global case `case_index`
    /// (1-based), so the case exhausts its retry budget.
    #[must_use]
    pub fn fail_at_persistent(mut self, case_index: u64, kind: FaultKind) -> FaultPlan {
        self.faults.insert(
            case_index,
            PlannedFault {
                kind,
                sticky: true,
                attempts: AtomicU32::new(0),
            },
        );
        self
    }

    /// True if the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Called once per attempt; returns the fault to inject, if any.
    fn arm(&self, case_index: u64) -> Option<FaultKind> {
        let fault = self.faults.get(&case_index)?;
        let prior = fault.attempts.fetch_add(1, Ordering::Relaxed);
        if fault.sticky || prior == 0 {
            Some(fault.kind)
        } else {
            None
        }
    }
}

/// Bounds on how much a single faulty case may cost the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Retries granted to a case whose attempt panicked or hung; the
    /// case runs at most `max_retries + 1` times before it is reported
    /// as [`CaseOutcome::Poisoned`] / [`CaseOutcome::TimedOut`].
    pub max_retries: u32,
    /// Step budget above which a case that exhausted the DUT's step
    /// limit is classified as a hang ([`CaseOutcome::TimedOut`]) instead
    /// of a legitimate long run. `None` (the default) disables the
    /// watchdog: step-budget exhaustion stays an ordinary completed
    /// case, exactly as before this policy existed.
    pub fuel: Option<u64>,
}

impl Default for FaultPolicy {
    fn default() -> FaultPolicy {
        FaultPolicy {
            max_retries: 1,
            fuel: None,
        }
    }
}

/// What became of one submitted case under fault containment.
//
// `Completed` dwarfs the abort variants, but it is also the variant
// every healthy case takes — boxing it would buy smaller `Vec`
// elements at the price of one heap allocation per executed case on
// the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// The case ran to an ordinary halt.
    Completed(CaseResult),
    /// Every attempt exceeded the fuel budget; the case was abandoned.
    TimedOut {
        /// Attempts made (`max_retries + 1` of the governing policy).
        attempts: u32,
    },
    /// Every attempt panicked; the worker pair was replaced each time
    /// and the case was abandoned. The campaign quarantines the
    /// offending body as a proof-of-concept.
    Poisoned {
        /// Attempts made (`max_retries + 1` of the governing policy).
        attempts: u32,
        /// The panic message of the final attempt.
        reason: String,
    },
}

impl CaseOutcome {
    /// The completed result, if the case ran to a halt.
    #[must_use]
    pub fn completed(&self) -> Option<&CaseResult> {
        match self {
            CaseOutcome::Completed(result) => Some(result),
            _ => None,
        }
    }

    /// True for [`CaseOutcome::TimedOut`] and [`CaseOutcome::Poisoned`].
    #[must_use]
    pub fn is_aborted(&self) -> bool {
        !matches!(self, CaseOutcome::Completed(_))
    }
}

std::thread_local! {
    /// Set while a worker runs inside `catch_unwind`, so the panic hook
    /// stays quiet for contained panics (they are expected and reported
    /// through [`CaseOutcome::Poisoned`], not stderr).
    static CONTAINED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once) a panic hook that suppresses output for contained
/// worker panics and delegates everything else to the previous hook.
fn install_contained_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CONTAINED.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("worker panicked with a non-string payload")
    }
}

enum Abort {
    Hang,
    Poisoned(String),
}

/// Runs one case with containment: injected faults fire first, panics
/// are caught and the worker replaced from `prototype`, fuel exhaustion
/// counts as a hang, and the whole thing retries up to the policy's
/// budget. Deterministic for a fixed `(plan, policy, case_index, body)`
/// no matter which worker thread executes it.
fn run_case_contained(
    worker: &mut Executor,
    prototype: &Executor,
    body: &TestBody,
    case_index: u64,
    plan: Option<&FaultPlan>,
    policy: FaultPolicy,
) -> CaseOutcome {
    let max_attempts = policy.max_retries.saturating_add(1);
    let mut attempts = 0u32;
    let mut last_abort = Abort::Hang;
    while attempts < max_attempts {
        attempts += 1;
        let injected = plan.and_then(|p| p.arm(case_index));
        if injected == Some(FaultKind::Hang) {
            // A real hang is cut short by the DUT's step budget and lands
            // in the fuel check below; the injected form skips execution
            // so tests stay instant.
            last_abort = Abort::Hang;
            continue;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            CONTAINED.with(|c| c.set(true));
            let result = match injected {
                Some(FaultKind::Panic) => panic!("injected worker panic at case {case_index}"),
                Some(FaultKind::IoError) => {
                    panic!("injected i/o error at case {case_index}: broken pipe")
                }
                _ => worker.run(body),
            };
            CONTAINED.with(|c| c.set(false));
            result
        }));
        CONTAINED.with(|c| c.set(false));
        match outcome {
            Ok(result) => {
                if let Some(fuel) = policy.fuel {
                    if matches!(result.dut.halt, HaltReason::StepBudget) && result.dut.steps >= fuel
                    {
                        last_abort = Abort::Hang;
                        continue;
                    }
                }
                return CaseOutcome::Completed(result);
            }
            Err(payload) => {
                // The pair's invariants may be broken mid-case; quarantine
                // it and continue on a fresh clone of the prototype.
                *worker = prototype.clone();
                last_abort = Abort::Poisoned(panic_message(payload.as_ref()));
            }
        }
    }
    match last_abort {
        Abort::Hang => CaseOutcome::TimedOut { attempts },
        Abort::Poisoned(reason) => CaseOutcome::Poisoned { attempts, reason },
    }
}

/// Throughput counters of a pooled run (filled in per batch).
///
/// Timing fields are wall-clock measurements and naturally vary between
/// runs; they are excluded from any determinism comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Throughput {
    /// Worker threads the pool was created with.
    pub threads: usize,
    /// Batches executed.
    pub batches: u64,
    /// Cases executed.
    pub cases: u64,
    /// Wall-clock seconds spent inside batch execution.
    pub exec_seconds: f64,
    /// Summed per-case execution seconds across all workers.
    pub busy_seconds: f64,
    /// Wall-clock seconds of the whole campaign (set by the campaign
    /// runner; includes generation and feedback).
    pub wall_seconds: f64,
    /// Cases per wall-clock second.
    pub cases_per_second: f64,
    /// DUT instructions retired per wall-clock second.
    pub instructions_per_second: f64,
    /// Fraction of the pool's thread-seconds spent executing cases
    /// (`busy / (exec_wall * threads)`); 1.0 means no worker ever idled
    /// during a batch.
    pub pool_occupancy: f64,
}

/// Utilisation counters of the most recent batch (telemetry: the
/// campaign runner turns these into `Event::PoolOccupancy`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchStats {
    /// Cases the batch held.
    pub cases: u64,
    /// Wall-clock seconds inside the batch.
    pub exec_seconds: f64,
    /// Summed per-case execution seconds across workers.
    pub busy_seconds: f64,
    /// `busy / (exec_wall × threads)`; 1.0 means no worker idled.
    pub occupancy: f64,
}

/// A round's per-case coverage bitmaps packed into one contiguous
/// structure-of-arrays buffer: row `i` holds the coverage words of
/// outcome `i`, and aborted cases contribute an all-zero row so indices
/// line up with the outcome vector.
///
/// The campaign accumulates cumulative coverage by streaming these rows
/// through [`CoverageSnapshot::union_counting`], which turns the old
/// per-case `would_grow` + `union_with` + two `count` passes into one
/// fused pass over a cache-friendly layout.
///
/// [`CoverageSnapshot::union_counting`]: hfl_dut::CoverageSnapshot::union_counting
///
/// # Examples
///
/// ```
/// use hfl::baselines::TestBody;
/// use hfl::exec::{CoverageBatch, ExecPool};
/// use hfl::harness::Executor;
/// use hfl_dut::CoreKind;
/// use hfl_riscv::{Instruction, Opcode, Reg};
///
/// let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 1);
/// let batch = vec![TestBody::Asm(vec![
///     Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
/// ])];
/// let outcomes = pool.run_batch_contained(&batch);
/// let rows = CoverageBatch::from_outcomes(&outcomes);
/// assert_eq!(rows.rows(), 1);
/// assert!(rows.row(0).iter().any(|w| *w != 0));
/// ```
#[derive(Debug, Clone)]
pub struct CoverageBatch {
    words_per_row: usize,
    rows: usize,
    bits: Vec<u64>,
}

impl CoverageBatch {
    /// Packs the coverage bitmap of every completed outcome into one
    /// buffer; aborted outcomes get an all-zero row. All snapshots of a
    /// batch come from clones of one executor, so their widths agree.
    #[must_use]
    pub fn from_outcomes(outcomes: &[CaseOutcome]) -> CoverageBatch {
        let words_per_row = outcomes
            .iter()
            .find_map(|o| o.completed())
            .map_or(0, |r| r.dut.coverage.words().len());
        let mut bits = vec![0u64; outcomes.len() * words_per_row];
        for (i, outcome) in outcomes.iter().enumerate() {
            if let Some(result) = outcome.completed() {
                let row = result.dut.coverage.words();
                assert_eq!(row.len(), words_per_row, "snapshot width mismatch");
                bits[i * words_per_row..(i + 1) * words_per_row].copy_from_slice(row);
            }
        }
        CoverageBatch {
            words_per_row,
            rows: outcomes.len(),
            bits,
        }
    }

    /// Number of rows (one per submitted case, aborted included).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Coverage words of case `i` (all zero if it aborted).
    #[must_use]
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.rows, "row {i} out of {} rows", self.rows);
        &self.bits[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Words per row (the snapshot width, or 0 if every case aborted).
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }
}

/// A pool of cloned [`Executor`]s evaluating batches of test bodies.
///
/// # Examples
///
/// ```
/// use hfl::baselines::TestBody;
/// use hfl::exec::ExecPool;
/// use hfl::harness::Executor;
/// use hfl_dut::CoreKind;
/// use hfl_riscv::{Instruction, Opcode, Reg};
///
/// let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2);
/// let batch = vec![
///     TestBody::Asm(vec![Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1)]),
///     TestBody::Asm(vec![Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 2)]),
/// ];
/// let results = pool.run_batch(&batch);
/// assert_eq!(results[0].grm_arch.x[10], 1);
/// assert_eq!(results[1].grm_arch.x[10], 2);
/// ```
#[derive(Debug)]
pub struct ExecPool {
    workers: Vec<Executor>,
    /// Pristine executor used to replace poisoned workers (every run
    /// starts the DUT from reset, so clones behave identically).
    prototype: Executor,
    policy: FaultPolicy,
    plan: Option<Arc<FaultPlan>>,
    batches: u64,
    cases: u64,
    exec_time: Duration,
    busy_time: Duration,
    last_batch: BatchStats,
}

impl ExecPool {
    /// Creates a pool of `threads` workers cloned from one prototype
    /// (`threads` is clamped to at least 1).
    #[must_use]
    pub fn new(prototype: Executor, threads: usize) -> ExecPool {
        let threads = threads.max(1);
        let workers = (0..threads).map(|_| prototype.clone()).collect();
        ExecPool {
            workers,
            prototype,
            policy: FaultPolicy::default(),
            plan: None,
            batches: 0,
            cases: 0,
            exec_time: Duration::ZERO,
            busy_time: Duration::ZERO,
            last_batch: BatchStats::default(),
        }
    }

    /// Sets the containment bounds used by
    /// [`ExecPool::run_batch_contained`].
    #[must_use]
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> ExecPool {
        self.policy = policy;
        self
    }

    /// Arms a deterministic fault-injection plan (testing / CI only).
    #[must_use]
    pub fn with_fault_plan(self, plan: FaultPlan) -> ExecPool {
        self.with_shared_fault_plan(Arc::new(plan))
    }

    /// Arms an already-shared fault-injection plan (campaign specs hold
    /// plans behind an `Arc` to stay `Clone`).
    #[must_use]
    pub fn with_shared_fault_plan(mut self, plan: Arc<FaultPlan>) -> ExecPool {
        self.plan = Some(plan);
        self
    }

    /// The active containment bounds.
    #[must_use]
    pub fn fault_policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The core under test.
    #[must_use]
    pub fn core(&self) -> hfl_dut::CoreKind {
        self.workers[0].core()
    }

    /// The coverage-point database (identical across workers).
    #[must_use]
    pub fn coverage_map(&self) -> &hfl_dut::CoverageMap {
        self.workers[0].coverage_map()
    }

    /// Executes one batch, returning results in submission order.
    ///
    /// This is the uncontained path: worker panics propagate to the
    /// caller. Campaigns use [`ExecPool::run_batch_contained`].
    pub fn run_batch(&mut self, bodies: &[TestBody]) -> Vec<CaseResult> {
        let started = Instant::now();
        let timed = run_ordered(&mut self.workers, bodies, |worker, body| {
            let case_started = Instant::now();
            let result = worker.run(body);
            (result, case_started.elapsed())
        });
        self.account_batch(started, bodies.len());
        let mut batch_busy = Duration::ZERO;
        let results: Vec<CaseResult> = timed
            .into_iter()
            .map(|(result, spent)| {
                batch_busy += spent;
                result
            })
            .collect();
        self.account_busy(batch_busy);
        results
    }

    /// Executes one batch with fault containment, returning a
    /// [`CaseOutcome`] per body in submission order.
    ///
    /// Panicking attempts are caught, the poisoned worker pair is
    /// replaced from the prototype, and each faulty case is retried up
    /// to the policy's budget before being reported as
    /// [`CaseOutcome::Poisoned`] or [`CaseOutcome::TimedOut`]; the rest
    /// of the batch is unaffected. Fault injection points are keyed by
    /// the pool's **global** case counter (1-based), which
    /// [`ExecPool::restore_counters`] re-establishes after a resume.
    pub fn run_batch_contained(&mut self, bodies: &[TestBody]) -> Vec<CaseOutcome> {
        install_contained_panic_hook();
        let started = Instant::now();
        let base = self.cases;
        let indexed: Vec<(u64, &TestBody)> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| (base + 1 + i as u64, body))
            .collect();
        let prototype = &self.prototype;
        let plan = self.plan.as_deref();
        let policy = self.policy;
        let timed = run_ordered(
            &mut self.workers,
            &indexed,
            |worker, &(case_index, body)| {
                let case_started = Instant::now();
                let outcome = run_case_contained(worker, prototype, body, case_index, plan, policy);
                (outcome, case_started.elapsed())
            },
        );
        self.account_batch(started, bodies.len());
        let mut batch_busy = Duration::ZERO;
        let outcomes: Vec<CaseOutcome> = timed
            .into_iter()
            .map(|(outcome, spent)| {
                batch_busy += spent;
                outcome
            })
            .collect();
        self.account_busy(batch_busy);
        outcomes
    }

    fn account_batch(&mut self, started: Instant, cases: usize) {
        let batch_wall = started.elapsed();
        self.exec_time += batch_wall;
        self.batches += 1;
        self.cases += cases as u64;
        self.last_batch = BatchStats {
            cases: cases as u64,
            exec_seconds: batch_wall.as_secs_f64(),
            busy_seconds: 0.0,
            occupancy: 0.0,
        };
    }

    fn account_busy(&mut self, batch_busy: Duration) {
        self.busy_time += batch_busy;
        let exec_seconds = self.last_batch.exec_seconds;
        self.last_batch.busy_seconds = batch_busy.as_secs_f64();
        self.last_batch.occupancy = if exec_seconds > 0.0 {
            batch_busy.as_secs_f64() / (exec_seconds * self.workers.len() as f64)
        } else {
            0.0
        };
    }

    /// Lifetime case/batch counters (`(batches, cases)`), used by
    /// campaign checkpoints.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.batches, self.cases)
    }

    /// Restores lifetime counters after a campaign resume so the global
    /// case numbering (and any armed [`FaultPlan`]) continues from where
    /// the interrupted run stopped. Timing accumulators are left at
    /// zero; they are wall-clock telemetry, not campaign state.
    pub fn restore_counters(&mut self, batches: u64, cases: u64) {
        self.batches = batches;
        self.cases = cases;
    }

    /// Utilisation counters of the most recent [`ExecPool::run_batch`]
    /// call (zeroed until the first batch runs).
    #[must_use]
    pub fn last_batch(&self) -> BatchStats {
        self.last_batch
    }

    /// Summed predecode-cache `(hits, misses)` across all workers (the
    /// campaign surfaces them as `sim.predecode.*` metrics). Which
    /// worker serves which case is schedule-dependent above one thread,
    /// but the totals are not: each body is prepared exactly once per
    /// batch slot, so `hits + misses` equals cases run.
    #[must_use]
    pub fn predecode_stats(&self) -> (u64, u64) {
        self.workers
            .iter()
            .map(Executor::predecode_stats)
            .fold((0, 0), |(h, m), (wh, wm)| (h + wh, m + wm))
    }

    /// Throughput counters so far. `wall_seconds` is taken from the
    /// caller's clock (the campaign measures generation + feedback too);
    /// `instructions` is the total the DUT retired.
    #[must_use]
    pub fn throughput(&self, wall: Duration, instructions: u64) -> Throughput {
        let wall_seconds = wall.as_secs_f64();
        let exec_seconds = self.exec_time.as_secs_f64();
        let threads = self.workers.len();
        Throughput {
            threads,
            batches: self.batches,
            cases: self.cases,
            exec_seconds,
            busy_seconds: self.busy_time.as_secs_f64(),
            wall_seconds,
            cases_per_second: if wall_seconds > 0.0 {
                self.cases as f64 / wall_seconds
            } else {
                0.0
            },
            instructions_per_second: if wall_seconds > 0.0 {
                instructions as f64 / wall_seconds
            } else {
                0.0
            },
            pool_occupancy: if exec_seconds > 0.0 {
                self.busy_time.as_secs_f64() / (exec_seconds * threads as f64)
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_dut::CoreKind;
    use hfl_riscv::{Instruction, Opcode, Reg};

    fn addi_body(imm: i64) -> TestBody {
        TestBody::Asm(vec![Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, imm)])
    }

    #[test]
    fn run_ordered_merges_in_submission_order() {
        // Workers carry distinct identities; results must follow item
        // order regardless of which worker processed what.
        let mut workers = vec![10usize, 20, 30];
        let items: Vec<usize> = (0..40).collect();
        let results = run_ordered(&mut workers, &items, |_, &i| i * 2);
        assert_eq!(results, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_ordered_single_worker_stays_on_the_calling_thread() {
        let calling = std::thread::current().id();
        let mut workers = vec![()];
        let items = [1, 2, 3];
        let results = run_ordered(&mut workers, &items, |(), &i| {
            assert_eq!(std::thread::current().id(), calling);
            i + 1
        });
        assert_eq!(results, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "worker exploded on item 3")]
    fn run_ordered_propagates_worker_panics() {
        let mut workers = vec![0u8, 0];
        let items: Vec<usize> = (0..8).collect();
        run_ordered(&mut workers, &items, |_, &i| {
            assert!(i != 3, "worker exploded on item {i}");
            i
        });
    }

    #[test]
    fn pool_results_match_sequential_execution_for_any_thread_count() {
        let batch: Vec<TestBody> = (0..12).map(|i| addi_body(i + 1)).collect();
        let mut sequential = Executor::builder(CoreKind::Rocket).build();
        let expected: Vec<_> = batch.iter().map(|b| sequential.run(b)).collect();
        for threads in [1, 2, 8] {
            let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), threads);
            let results = pool.run_batch(&batch);
            assert_eq!(results.len(), expected.len());
            for (got, want) in results.iter().zip(&expected) {
                assert_eq!(got.dut.coverage, want.dut.coverage, "threads={threads}");
                assert_eq!(got.dut.arch, want.dut.arch, "threads={threads}");
                assert_eq!(got.mismatches.len(), want.mismatches.len());
            }
        }
    }

    #[test]
    fn last_batch_reports_utilisation() {
        let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2);
        assert_eq!(pool.last_batch(), BatchStats::default());
        let batch: Vec<TestBody> = (0..6).map(|i| addi_body(i + 1)).collect();
        pool.run_batch(&batch);
        let stats = pool.last_batch();
        assert_eq!(stats.cases, 6);
        assert!(stats.exec_seconds > 0.0);
        assert!(stats.busy_seconds > 0.0);
        assert!(
            stats.occupancy > 0.0 && stats.occupancy <= 1.05,
            "{stats:?}"
        );
    }

    fn spin_body() -> TestBody {
        // Jump-to-self: never halts, so the DUT's step budget cuts it off.
        TestBody::Asm(vec![Instruction::j(Opcode::Jal, Reg::X0, 0)])
    }

    #[test]
    fn contained_batch_without_faults_matches_the_plain_path() {
        let batch: Vec<TestBody> = (0..6).map(|i| addi_body(i + 1)).collect();
        let mut plain = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2);
        let expected = plain.run_batch(&batch);
        let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2);
        let outcomes = pool.run_batch_contained(&batch);
        assert_eq!(outcomes.len(), expected.len());
        for (outcome, want) in outcomes.iter().zip(&expected) {
            let got = outcome.completed().expect("no faults injected");
            assert_eq!(got.dut.coverage, want.dut.coverage);
            assert_eq!(got.dut.arch, want.dut.arch);
        }
        assert_eq!(pool.counters(), (1, 6));
    }

    #[test]
    fn transient_panic_is_retried_and_the_batch_matches_a_clean_run() {
        let batch: Vec<TestBody> = (0..5).map(|i| addi_body(i + 1)).collect();
        let mut clean = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2);
        let expected = clean.run_batch(&batch);
        for kind in [FaultKind::Panic, FaultKind::IoError, FaultKind::Hang] {
            let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2)
                .with_fault_plan(FaultPlan::new().fail_at(3, kind));
            let outcomes = pool.run_batch_contained(&batch);
            for (i, (outcome, want)) in outcomes.iter().zip(&expected).enumerate() {
                let got = outcome
                    .completed()
                    .unwrap_or_else(|| panic!("case {i} should recover from a transient {kind:?}"));
                assert_eq!(got.dut.arch, want.dut.arch);
            }
        }
    }

    #[test]
    fn persistent_panic_poisons_only_the_faulty_case() {
        let batch: Vec<TestBody> = (0..5).map(|i| addi_body(i + 1)).collect();
        let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2)
            .with_fault_policy(FaultPolicy {
                max_retries: 2,
                fuel: None,
            })
            .with_fault_plan(FaultPlan::new().fail_at_persistent(3, FaultKind::Panic));
        let outcomes = pool.run_batch_contained(&batch);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                match outcome {
                    CaseOutcome::Poisoned { attempts, reason } => {
                        assert_eq!(*attempts, 3, "max_retries bounds the attempts");
                        assert!(
                            reason.contains("injected worker panic at case 3"),
                            "{reason}"
                        );
                    }
                    other => panic!("case 3 should be poisoned, got {other:?}"),
                }
            } else {
                assert!(outcome.completed().is_some(), "case {i} must be unaffected");
            }
        }
        // The poisoned worker was replaced: the pool keeps executing.
        let next = pool.run_batch_contained(&batch);
        assert!(next.iter().all(|o| o.completed().is_some()));
        assert_eq!(pool.counters(), (2, 10));
    }

    #[test]
    fn persistent_hang_times_out_within_the_retry_budget() {
        let batch: Vec<TestBody> = (0..3).map(|i| addi_body(i + 1)).collect();
        let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 1)
            .with_fault_plan(FaultPlan::new().fail_at_persistent(2, FaultKind::Hang));
        let outcomes = pool.run_batch_contained(&batch);
        match &outcomes[1] {
            CaseOutcome::TimedOut { attempts } => assert_eq!(*attempts, 2),
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(outcomes[0].completed().is_some());
        assert!(outcomes[2].completed().is_some());
    }

    #[test]
    fn fuel_watchdog_reclassifies_runaway_cases() {
        let batch = vec![addi_body(1), spin_body(), addi_body(2)];
        // Without fuel, step-budget exhaustion is an ordinary completion
        // (the legacy semantics campaigns rely on).
        let executor = Executor::builder(CoreKind::Rocket).max_steps(64).build();
        let mut lenient = ExecPool::new(executor.clone(), 1);
        let outcomes = lenient.run_batch_contained(&batch);
        let spun = outcomes[1].completed().expect("no fuel: completes");
        assert_eq!(spun.dut.halt, hfl_grm::HaltReason::StepBudget);
        // With fuel, the same case is abandoned as a hang.
        let mut strict = ExecPool::new(executor, 1).with_fault_policy(FaultPolicy {
            max_retries: 0,
            fuel: Some(64),
        });
        let outcomes = strict.run_batch_contained(&batch);
        match &outcomes[1] {
            CaseOutcome::TimedOut { attempts } => assert_eq!(*attempts, 1),
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(outcomes[0].completed().is_some());
        assert!(outcomes[2].completed().is_some());
    }

    #[test]
    fn fault_outcomes_are_identical_across_thread_counts() {
        let batch: Vec<TestBody> = (0..10).map(|i| addi_body(i + 1)).collect();
        let classify = |outcomes: &[CaseOutcome]| -> Vec<String> {
            outcomes
                .iter()
                .map(|o| match o {
                    CaseOutcome::Completed(r) => format!("ok:{}", r.dut.arch.x[10]),
                    CaseOutcome::TimedOut { attempts } => format!("timeout:{attempts}"),
                    CaseOutcome::Poisoned { attempts, reason } => {
                        format!("poisoned:{attempts}:{reason}")
                    }
                })
                .collect()
        };
        let mut reference: Option<Vec<String>> = None;
        for threads in [1, 2, 8] {
            let plan = FaultPlan::new()
                .fail_at(2, FaultKind::Panic)
                .fail_at_persistent(5, FaultKind::Hang)
                .fail_at_persistent(7, FaultKind::IoError);
            let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), threads)
                .with_fault_plan(plan);
            let got = classify(&pool.run_batch_contained(&batch));
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "threads={threads}"),
            }
        }
    }

    #[test]
    fn restored_counters_continue_the_global_case_numbering() {
        // A plan keyed on case 5 must fire in the second batch of a pool
        // whose counters say 3 cases already ran (resume scenario).
        let batch: Vec<TestBody> = (0..3).map(|i| addi_body(i + 1)).collect();
        let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 1)
            .with_fault_plan(FaultPlan::new().fail_at_persistent(5, FaultKind::Hang));
        pool.restore_counters(1, 3);
        let outcomes = pool.run_batch_contained(&batch);
        assert!(outcomes[0].completed().is_some());
        assert!(outcomes[1].is_aborted(), "global case 5 is local case 2");
        assert!(outcomes[2].completed().is_some());
        assert_eq!(pool.counters(), (2, 6));
    }

    #[test]
    fn throughput_counters_accumulate() {
        let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2);
        let batch: Vec<TestBody> = (0..4).map(|i| addi_body(i + 1)).collect();
        pool.run_batch(&batch);
        pool.run_batch(&batch);
        let t = pool.throughput(Duration::from_secs(1), 1_000);
        assert_eq!(t.threads, 2);
        assert_eq!(t.batches, 2);
        assert_eq!(t.cases, 8);
        assert!(t.busy_seconds > 0.0);
        assert!((t.cases_per_second - 8.0).abs() < 1e-9);
        assert!((t.instructions_per_second - 1_000.0).abs() < 1e-9);
        // Busy time is a subset of exec wall-time per worker, so occupancy
        // sits in (0, 1] up to timer granularity.
        assert!(t.pool_occupancy > 0.0 && t.pool_occupancy <= 1.05);
    }

    #[test]
    fn coverage_batch_mirrors_per_case_snapshots() {
        let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2);
        let batch: Vec<TestBody> = (0..6).map(|i| addi_body(i + 1)).collect();
        let outcomes = pool.run_batch_contained(&batch);
        let rows = CoverageBatch::from_outcomes(&outcomes);
        assert_eq!(rows.rows(), outcomes.len());
        for (i, outcome) in outcomes.iter().enumerate() {
            let result = outcome.completed().expect("plain addi completes");
            assert_eq!(rows.row(i), result.dut.coverage.words());
            assert_eq!(rows.words_per_row(), result.dut.coverage.words().len());
        }
    }

    #[test]
    fn coverage_batch_zeroes_aborted_rows() {
        let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 1)
            .with_fault_plan(FaultPlan::new().fail_at_persistent(2, FaultKind::Hang));
        let batch: Vec<TestBody> = (0..3).map(|i| addi_body(i + 1)).collect();
        let outcomes = pool.run_batch_contained(&batch);
        assert!(outcomes[1].is_aborted());
        let rows = CoverageBatch::from_outcomes(&outcomes);
        assert!(rows.row(0).iter().any(|w| *w != 0));
        assert!(rows.row(1).iter().all(|w| *w == 0), "aborted row is zero");
        assert!(rows.row(2).iter().any(|w| *w != 0));
    }

    #[test]
    fn coverage_batch_of_all_aborted_outcomes_is_empty_width() {
        let outcomes = vec![
            CaseOutcome::TimedOut { attempts: 1 },
            CaseOutcome::Poisoned {
                attempts: 2,
                reason: String::from("x"),
            },
        ];
        let rows = CoverageBatch::from_outcomes(&outcomes);
        assert_eq!(rows.rows(), 2);
        assert_eq!(rows.words_per_row(), 0);
        assert!(rows.row(0).is_empty() && rows.row(1).is_empty());
    }

    #[test]
    fn pool_predecode_stats_sum_hits_and_misses_across_workers() {
        let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), 2);
        // Two distinct bodies, each submitted twice per batch, twice.
        let batch = vec![addi_body(1), addi_body(2), addi_body(1), addi_body(2)];
        pool.run_batch(&batch);
        pool.run_batch(&batch);
        let (hits, misses) = pool.predecode_stats();
        assert_eq!(hits + misses, 8, "one prepare per case run");
        // Each worker lowers a body it has not seen at most once, so
        // misses never exceed workers × distinct bodies.
        assert!(misses <= 4);
        assert!(hits >= 4);
    }
}
