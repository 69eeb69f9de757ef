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
//! Threads: the calling thread is worker 0. The other workers are helper
//! threads that live as long as the pool and park on a channel between
//! batches; a helper is spawned the first time a batch needs it, and
//! dropping the pool joins them. Nothing spawns per batch.
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
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hfl_grm::cpu::HaltReason;

use crate::baselines::TestBody;
use crate::harness::{CaseResult, Executor};

/// The most worker threads a pool may have. Every spec, JobSpec and
/// wire `Assign` is checked against it, and [`ExecPool::new`] clamps to
/// it, so no input can make a process start more threads than this per
/// pool.
pub const MAX_THREADS: usize = 64;

/// One batch as every worker sees it: the items, the cursor the workers
/// pull indices from (work stealing, so a slow item does not hold up a
/// static share), and the function they apply.
struct Batch<I, F> {
    items: Vec<I>,
    cursor: AtomicUsize,
    f: F,
}

/// A [`Batch`] with its item and function types erased, so one channel
/// per helper carries every batch.
trait Job<W, T>: Send + Sync {
    /// Runs items until the cursor passes the end, tagging each output
    /// with its item index.
    fn drain(&self, worker: &mut W) -> Vec<(usize, T)>;
}

impl<W, T, I, F> Job<W, T> for Batch<I, F>
where
    I: Send + Sync,
    F: Fn(&mut W, usize, &I) -> T + Send + Sync,
{
    fn drain(&self, worker: &mut W) -> Vec<(usize, T)> {
        let mut out = Vec::new();
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(i) else {
                return out;
            };
            out.push((i, (self.f)(worker, i, item)));
        }
    }
}

/// A helper's answer to one batch: its tagged outputs, or the payload
/// of a panic that escaped the function.
type Reply<T> = thread::Result<Vec<(usize, T)>>;

/// What wakes a parked helper: the batch, and where to send its reply.
type Order<W, T> = (Arc<dyn Job<W, T>>, Sender<Reply<T>>);

struct Helper<W, T> {
    orders: Sender<Order<W, T>>,
    thread: JoinHandle<()>,
}

/// The threads a pool runs its batches on. Worker 0 is the calling
/// thread with its own worker state `W`; each helper thread holds a
/// clone of the prototype for as long as the pool lives and parks on its
/// order channel between batches. `T` is the output per item.
struct Workers<W, T> {
    prototype: Arc<W>,
    local: W,
    threads: usize,
    helpers: Vec<Helper<W, T>>,
}

impl<W, T> Workers<W, T>
where
    W: Clone + Send + Sync + 'static,
    T: Send + 'static,
{
    /// `threads` workers (at least one) cloned from `prototype`. Spawns
    /// nothing: helpers start with the first batch that needs them.
    fn new(prototype: W, threads: usize) -> Self {
        Workers {
            local: prototype.clone(),
            prototype: Arc::new(prototype),
            threads: threads.max(1),
            helpers: Vec::new(),
        }
    }

    /// Applies `f` to every item on `min(threads, items.len())` workers
    /// and returns the outputs in item order. With one worker the items
    /// run on the calling thread and nothing is cloned or woken.
    ///
    /// # Panics
    ///
    /// If `f` panics on any worker, the panic reaches the caller with its
    /// original payload, after every helper has replied.
    fn run<I, F>(&mut self, items: &[I], f: F) -> Vec<T>
    where
        I: Clone + Send + Sync + 'static,
        F: Fn(&mut W, usize, &I) -> T + Send + Sync + 'static,
    {
        let woken = self.threads.min(items.len()).saturating_sub(1);
        if woken == 0 {
            let local = &mut self.local;
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(local, i, item))
                .collect();
        }
        self.spawn_helpers(woken);
        let batch = Arc::new(Batch {
            items: items.to_vec(),
            cursor: AtomicUsize::new(0),
            f,
        });
        // A reply channel per batch: no batch can read another's replies.
        let (replies, inbox) = mpsc::channel();
        for helper in &self.helpers[..woken] {
            let job: Arc<dyn Job<W, T>> = batch.clone();
            helper
                .orders
                .send((job, replies.clone()))
                .expect("a pool helper lives as long as its pool");
        }
        drop(replies);
        let local = catch_unwind(AssertUnwindSafe(|| batch.drain(&mut self.local)));
        // Every helper replies before anything unwinds, so none is still
        // working on this batch once the caller regains control.
        let mut slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
        let mut place = |outputs: Vec<(usize, T)>| {
            for (i, output) in outputs {
                slots[i] = Some(output);
            }
        };
        let mut escaped = None;
        for _ in 0..woken {
            match inbox.recv().expect("a pool helper exited without replying") {
                Ok(outputs) => place(outputs),
                Err(payload) => {
                    escaped.get_or_insert(payload);
                }
            }
        }
        place(local.unwrap_or_else(|payload| resume_unwind(payload)));
        if let Some(payload) = escaped {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every item was processed exactly once"))
            .collect()
    }

    /// Spawns helpers until there are `count`.
    fn spawn_helpers(&mut self, count: usize) {
        while self.helpers.len() < count {
            let mut worker = W::clone(&self.prototype);
            let (orders, parked) = mpsc::channel::<Order<W, T>>();
            let thread = thread::Builder::new()
                .name(format!("exec-pool-{}", self.helpers.len() + 1))
                .spawn(move || {
                    for (job, replies) in parked {
                        let reply = catch_unwind(AssertUnwindSafe(|| job.drain(&mut worker)));
                        drop(job);
                        // The caller waits for this reply, so the send
                        // only fails if the caller is gone.
                        let _ = replies.send(reply);
                    }
                })
                .expect("failed to spawn an execution-pool helper thread");
            self.helpers.push(Helper { orders, thread });
        }
    }
}

impl<W, T> Drop for Workers<W, T> {
    /// Closes every order channel, which ends each helper's loop, then
    /// joins the helpers.
    fn drop(&mut self) {
        let (orders, threads): (Vec<_>, Vec<_>) = self
            .helpers
            .drain(..)
            .map(|helper| (helper.orders, helper.thread))
            .unzip();
        drop(orders);
        for thread in threads {
            // Helpers catch every panic, so a join never reports one.
            let _ = thread.join();
        }
    }
}

impl<W, T> fmt::Debug for Workers<W, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workers")
            .field("threads", &self.threads)
            .field("helpers", &self.helpers.len())
            .finish_non_exhaustive()
    }
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
/// The calling thread runs worker 0; the others run on helper threads
/// that the pool keeps, parked between batches, until it drops.
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
/// let outcomes = pool.run_batch_contained(&batch);
/// assert_eq!(outcomes[0].completed().unwrap().dut.arch.x[10], 1);
/// assert_eq!(outcomes[1].completed().unwrap().dut.arch.x[10], 2);
/// ```
#[derive(Debug)]
pub struct ExecPool {
    /// The calling thread's executor, the helpers, and the pristine
    /// prototype that replaces poisoned workers (every run starts the
    /// DUT from reset, so clones behave identically).
    workers: Workers<Executor, (CaseOutcome, Duration)>,
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
    /// (`threads` is clamped to `1..=`[`MAX_THREADS`]). The calling
    /// thread is worker 0; the others are helper threads, spawned the
    /// first time a batch needs them and joined when the pool drops.
    #[must_use]
    pub fn new(prototype: Executor, threads: usize) -> ExecPool {
        ExecPool {
            workers: Workers::new(prototype, threads.min(MAX_THREADS)),
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
        self.workers.threads
    }

    /// The core under test.
    #[must_use]
    pub fn core(&self) -> hfl_dut::CoreKind {
        self.workers.prototype.core()
    }

    /// The coverage-point database (identical across workers).
    #[must_use]
    pub fn coverage_map(&self) -> &hfl_dut::CoverageMap {
        self.workers.prototype.coverage_map()
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
        let prototype = Arc::clone(&self.workers.prototype);
        let plan = self.plan.clone();
        let policy = self.policy;
        let timed = self.workers.run(bodies, move |worker, i, body| {
            let case_started = Instant::now();
            let (case_index, plan) = (base + 1 + i as u64, plan.as_deref());
            let outcome = run_case_contained(worker, &prototype, body, case_index, plan, policy);
            (outcome, case_started.elapsed())
        });
        let batch_wall = started.elapsed();
        let mut batch_busy = Duration::ZERO;
        let outcomes: Vec<CaseOutcome> = timed
            .into_iter()
            .map(|(outcome, spent)| {
                batch_busy += spent;
                outcome
            })
            .collect();
        self.exec_time += batch_wall;
        self.busy_time += batch_busy;
        self.batches += 1;
        self.cases += bodies.len() as u64;
        let exec_seconds = batch_wall.as_secs_f64();
        self.last_batch = BatchStats {
            cases: bodies.len() as u64,
            exec_seconds,
            busy_seconds: batch_busy.as_secs_f64(),
            occupancy: if exec_seconds > 0.0 {
                batch_busy.as_secs_f64() / (exec_seconds * self.threads() as f64)
            } else {
                0.0
            },
        };
        outcomes
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

    /// Utilisation counters of the most recent
    /// [`ExecPool::run_batch_contained`] call (zeroed until the first
    /// batch runs).
    #[must_use]
    pub fn last_batch(&self) -> BatchStats {
        self.last_batch
    }

    /// Throughput counters so far. `wall_seconds` is taken from the
    /// caller's clock (the campaign measures generation + feedback too);
    /// `instructions` is the total the DUT retired.
    #[must_use]
    pub fn throughput(&self, wall: Duration, instructions: u64) -> Throughput {
        let wall_seconds = wall.as_secs_f64();
        let exec_seconds = self.exec_time.as_secs_f64();
        let threads = self.threads();
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
    use std::sync::atomic::AtomicBool;

    fn addi_body(imm: i64) -> TestBody {
        TestBody::Asm(vec![Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, imm)])
    }

    /// Workers whose state is nothing: the tests below drive the thread
    /// machinery with plain closures.
    fn bare(threads: usize) -> Workers<(), std::thread::ThreadId> {
        Workers::new((), threads)
    }

    #[test]
    fn workers_merge_in_submission_order_with_more_items_than_workers() {
        let mut workers: Workers<usize, usize> = Workers::new(10, 3);
        let items: Vec<usize> = (0..40).collect();
        let results = workers.run(&items, |_, i, &item| {
            // Uneven costs shuffle which worker finishes what.
            std::thread::sleep(Duration::from_micros(50 * (item % 3) as u64));
            assert_eq!(i, item, "each output keeps its item's index");
            item * 2
        });
        assert_eq!(results, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn helpers_persist_across_batches() {
        let caller = std::thread::current().id();
        let mut workers = bare(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            // Each side waits until the other has taken an item, so both
            // threads run a case in every batch.
            let flags = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
            seen.extend(workers.run(&[(); 8], move |(), _, ()| {
                let me = std::thread::current().id();
                let side = usize::from(me != caller);
                flags[side].store(true, Ordering::SeqCst);
                wait_for(&flags[1 - side]);
                me
            }));
        }
        assert_eq!(seen.len(), 2, "50 batches ran on the caller and one helper");
        assert!(seen.contains(&caller), "the caller is worker 0");
        assert_eq!(workers.helpers.len(), 1);
    }

    #[test]
    fn one_worker_or_one_item_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = move |(): &mut (), _: usize, (): &()| {
            assert_eq!(std::thread::current().id(), caller);
            caller
        };
        let mut one_thread = bare(1);
        assert_eq!(one_thread.run(&[(); 3], on_caller), vec![caller; 3]);
        assert!(
            one_thread.helpers.is_empty(),
            "a 1-thread pool spawns nothing"
        );
        let mut wide = bare(4);
        assert_eq!(wide.run(&[()], on_caller), vec![caller]);
        assert!(wide.helpers.is_empty(), "a 1-item batch spawns nothing");
        assert!(wide.run::<(), _>(&[], on_caller).is_empty());
        assert!(wide.helpers.is_empty(), "an empty batch spawns nothing");
    }

    #[test]
    fn a_batch_wakes_only_the_helpers_it_needs() {
        let mut workers = bare(8);
        workers.run(&[(); 3], |(), _, ()| std::thread::current().id());
        assert_eq!(workers.helpers.len(), 2, "three items need two helpers");
        workers.run(&[(); 5], |(), _, ()| std::thread::current().id());
        assert_eq!(workers.helpers.len(), 4, "helpers are spawned on demand");
    }

    /// Worker state that counts its drops. Away from the thread that
    /// made it, a drop is slow, so a pool that did not wait for its
    /// helpers' threads to exit would miss their counts.
    #[derive(Clone)]
    struct SlowDrop {
        dropped: Arc<AtomicUsize>,
        owner: std::thread::ThreadId,
    }

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            if std::thread::current().id() != self.owner {
                std::thread::sleep(Duration::from_millis(50));
            }
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn dropping_the_workers_joins_the_helpers() {
        let dropped = Arc::new(AtomicUsize::new(0));
        let prototype = SlowDrop {
            dropped: Arc::clone(&dropped),
            owner: std::thread::current().id(),
        };
        let mut workers: Workers<SlowDrop, usize> = Workers::new(prototype, 3);
        workers.run(&[(); 6], |_, i, ()| i);
        assert_eq!(workers.helpers.len(), 2);
        drop(workers);
        // Prototype, the caller's state and both helpers' states: the
        // helpers' are dropped on their own threads as those exit.
        assert_eq!(dropped.load(Ordering::SeqCst), 4);
    }

    /// Blocks until `flag` is set (or ten seconds pass).
    fn wait_for(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs eight items on a two-worker set. The first item the helper
    /// (or, with `on_caller`, the calling thread) takes panics; the other
    /// side waits for that panic, then runs the remaining seven and
    /// counts them in `completed`.
    fn run_until_a_panic(
        workers: &mut Workers<(), usize>,
        on_caller: bool,
        completed: &Arc<AtomicUsize>,
    ) -> Vec<usize> {
        assert_eq!(workers.threads, 2);
        let caller = std::thread::current().id();
        let exploded = Arc::new(AtomicBool::new(false));
        let completed = Arc::clone(completed);
        workers.run(&[(); 8], move |(), i, ()| {
            if (std::thread::current().id() == caller) == on_caller {
                exploded.store(true, Ordering::SeqCst);
                let side = if on_caller { "caller" } else { "helper" };
                panic!("{side} exploded on item {i}");
            }
            wait_for(&exploded);
            std::thread::sleep(Duration::from_millis(1));
            completed.fetch_add(1, Ordering::SeqCst);
            i
        })
    }

    #[test]
    #[should_panic(expected = "helper exploded on item")]
    fn a_helper_panic_reaches_the_caller_with_its_payload() {
        let mut workers = Workers::new((), 2);
        run_until_a_panic(&mut workers, false, &Arc::new(AtomicUsize::new(0)));
    }

    #[test]
    fn a_panic_waits_for_the_batch_and_leaves_the_next_one_clean() {
        let mut workers = Workers::new((), 2);
        for on_caller in [false, true] {
            let completed = Arc::new(AtomicUsize::new(0));
            let payload = catch_unwind(AssertUnwindSafe(|| {
                run_until_a_panic(&mut workers, on_caller, &completed)
            }))
            .expect_err("the panic propagates");
            let side = if on_caller { "caller" } else { "helper" };
            let message = panic_message(payload.as_ref());
            assert!(
                message.starts_with(&format!("{side} exploded")),
                "{message}"
            );
            // Even a panicking caller collects the helper's reply first,
            // so no worker is still running the batch.
            assert_eq!(completed.load(Ordering::SeqCst), 7, "{side} panicked");
            let items: Vec<usize> = (0..12).collect();
            let outputs = workers.run(&items, |(), _, &item| item + 100);
            assert_eq!(outputs, items.iter().map(|i| i + 100).collect::<Vec<_>>());
        }
    }

    /// Runs `batch` through the pool, none of whose cases may abort.
    fn completed(pool: &mut ExecPool, batch: &[TestBody]) -> Vec<CaseResult> {
        pool.run_batch_contained(batch)
            .into_iter()
            .map(|outcome| match outcome {
                CaseOutcome::Completed(result) => result,
                other => panic!("no faults injected, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn pool_results_match_sequential_execution_for_any_thread_count() {
        let batch: Vec<TestBody> = (0..12).map(|i| addi_body(i + 1)).collect();
        let mut sequential = Executor::builder(CoreKind::Rocket).build();
        let expected: Vec<_> = batch.iter().map(|b| sequential.run(b)).collect();
        for threads in [1, 2, 8] {
            let mut pool = ExecPool::new(Executor::builder(CoreKind::Rocket).build(), threads);
            let results = completed(&mut pool, &batch);
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
        completed(&mut pool, &batch);
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
    fn contained_batch_without_faults_matches_sequential_runs() {
        let batch: Vec<TestBody> = (0..6).map(|i| addi_body(i + 1)).collect();
        let mut sequential = Executor::builder(CoreKind::Rocket).build();
        let expected: Vec<_> = batch.iter().map(|b| sequential.run(b)).collect();
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
        let expected = completed(&mut clean, &batch);
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
        completed(&mut pool, &batch);
        completed(&mut pool, &batch);
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
}
