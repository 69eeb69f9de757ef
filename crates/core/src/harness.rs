//! The execution harness: runs a test case on the DUT and checks it
//! against the GRM (differential testing).

use hfl_dut::{CoreKind, Dut, DutResult, MhartMachine, MhartResult};
use hfl_riscv::Instruction;

use crate::baselines::TestBody;
use crate::difftest::{check, compare, Mismatch};
use crate::predecode::PreparedCase;

/// Default per-test step budget (generated tests are short; the budget
/// exists to bound accidental loops).
pub const DEFAULT_MAX_STEPS: u64 = 20_000;

/// The outcome of running one test case through the harness.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The DUT execution (trace, coverage, cycles, crash state). The
    /// GRM leaves no record: it only checks this trace.
    pub dut: DutResult,
    /// Differential-testing mismatches (at most one trace divergence plus
    /// final-state differences).
    pub mismatches: Vec<Mismatch>,
    /// Per-phase wall-clock of this case (telemetry only: never part of a
    /// determinism comparison).
    pub timing: CaseTiming,
}

/// Wall-clock split of one case across the harness's two phases. The
/// campaign runner aggregates these into its `Metrics` registry
/// (`phase.difftest.seconds` in particular is unobservable from outside
/// the harness, since difftest runs inside the pool workers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CaseTiming {
    /// Seconds the DUT simulation took. On a two-hart executor this
    /// includes the GRM harts' replay of the committed schedule, which
    /// the machine runs in the same call.
    pub dut_seconds: f64,
    /// Seconds the whole check against the GRM took: the GRM run and its
    /// comparison on a single-hart executor, the per-hart trace
    /// comparison on a two-hart one.
    pub difftest_seconds: f64,
}

/// Configures and builds an [`Executor`].
///
/// # Examples
///
/// ```
/// use hfl::harness::Executor;
/// use hfl_dut::CoreKind;
///
/// let executor = Executor::builder(CoreKind::Rocket)
///     .max_steps(5_000)
///     .build();
/// assert_eq!(executor.core(), CoreKind::Rocket);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutorBuilder {
    kind: CoreKind,
    max_steps: u64,
    quirks: Option<hfl_grm::cpu::Quirks>,
    mhart: bool,
}

impl ExecutorBuilder {
    /// Overrides the per-test step budget (default
    /// [`DEFAULT_MAX_STEPS`]).
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> ExecutorBuilder {
        self.max_steps = max_steps;
        self
    }

    /// Gives the DUT an explicit defect configuration instead of the
    /// core's full catalogue (used by the per-bug detection experiments).
    #[must_use]
    pub fn quirks(mut self, quirks: hfl_grm::cpu::Quirks) -> ExecutorBuilder {
        self.quirks = Some(quirks);
        self
    }

    /// Switches the executor to the two-hart system configuration
    /// ([`hfl_dut::mhart`]): every case runs SPMD on both harts under the
    /// interleaving its `sched_seed` selects (single-hart bodies run with
    /// seed 0), and coverage comes from the system-level point database.
    #[must_use]
    pub fn mhart(mut self, mhart: bool) -> ExecutorBuilder {
        self.mhart = mhart;
        self
    }

    /// Builds the executor.
    #[must_use]
    pub fn build(self) -> Executor {
        let quirks = self
            .quirks
            .unwrap_or_else(|| hfl_dut::quirks_for(self.kind));
        let sim = if self.mhart {
            Sim::Mhart(self.kind, MhartMachine::new(quirks))
        } else {
            Sim::Single(Dut::with_quirks(self.kind, quirks))
        };
        Executor {
            sim,
            max_steps: self.max_steps,
        }
    }
}

/// The one simulator an executor runs its cases on.
//
// An executor holds exactly one `Sim` and never a collection of them, so
// the variants' size difference costs nothing worth a `Box`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Sim {
    /// A single instrumented core.
    Single(Dut),
    /// The two-hart system; the kind is what [`Executor::core`] reports.
    Mhart(CoreKind, MhartMachine),
}

/// Runs programs on a `(DUT, GRM)` pair for one core.
///
/// Executors are `Clone`: `hfl::exec::ExecPool` clones one prototype per
/// worker thread. Every run starts the DUT from reset, so clones are
/// behaviourally identical to the prototype.
///
/// # Examples
///
/// ```
/// use hfl::harness::Executor;
/// use hfl_dut::CoreKind;
/// use hfl_riscv::{Instruction, Opcode, Reg};
///
/// let mut executor = Executor::builder(CoreKind::Rocket).build();
/// let result = executor.run_case(&[
///     Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
/// ]);
/// assert_eq!(result.dut.arch.x[10], 1);
/// assert!(result.mismatches.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    sim: Sim,
    max_steps: u64,
}

impl Executor {
    /// Starts building an executor for one core.
    #[must_use]
    pub fn builder(kind: CoreKind) -> ExecutorBuilder {
        ExecutorBuilder {
            kind,
            max_steps: DEFAULT_MAX_STEPS,
            quirks: None,
            mhart: false,
        }
    }

    /// The core under test.
    #[must_use]
    pub fn core(&self) -> CoreKind {
        match &self.sim {
            Sim::Single(dut) => dut.kind(),
            Sim::Mhart(kind, _) => *kind,
        }
    }

    /// Whether the executor runs the two-hart system configuration.
    #[must_use]
    pub fn is_mhart(&self) -> bool {
        matches!(self.sim, Sim::Mhart(..))
    }

    /// The coverage-point database (the system-level one in mhart mode).
    #[must_use]
    pub fn coverage_map(&self) -> &hfl_dut::CoverageMap {
        match &self.sim {
            Sim::Single(dut) => dut.coverage_map(),
            Sim::Mhart(_, machine) => machine.coverage_map(),
        }
    }

    /// Runs one test body — the single execution path every campaign and
    /// pool worker goes through, whichever representation the fuzzer
    /// emitted. The body is lowered ([`PreparedCase::lower`]) once, and
    /// both the DUT and the GRM step over that image.
    pub fn run(&mut self, body: &TestBody) -> CaseResult {
        let case = PreparedCase::lower(body);
        match &mut self.sim {
            Sim::Single(dut) => run_single(dut, &case, self.max_steps),
            Sim::Mhart(_, machine) => run_mhart(
                machine,
                &case,
                body.sched_seed().unwrap_or(0),
                self.max_steps,
            ),
        }
    }

    /// Runs a test-case body given as instructions.
    pub fn run_case(&mut self, body: &[Instruction]) -> CaseResult {
        self.run(&TestBody::Asm(body.to_vec()))
    }
}

/// Runs one case on the two-hart system machine and folds the per-hart
/// outcomes into the single-hart [`CaseResult`] shape the rest of the
/// pipeline (pools, campaigns, coverage batching) consumes: hart 0 fills
/// the scalar trace/state fields, coverage is the system-level snapshot,
/// and `mismatches` merges the per-hart difftests. The machine replays
/// both reference harts in full, because each one's stores reach the
/// other, so their traces are compared whole.
fn run_mhart(
    machine: &mut MhartMachine,
    case: &PreparedCase,
    sched_seed: u64,
    max_steps: u64,
) -> CaseResult {
    let dut_started = std::time::Instant::now();
    let result = machine.run_predecoded(&case.program, &case.image, sched_seed, max_steps);
    let diff_started = std::time::Instant::now();
    let mut mismatches = Vec::new();
    for (hart, (d, r)) in result.harts.iter().zip(&result.reference).enumerate() {
        let mut found = compare(&r.trace, r.halt, &r.arch, &d.trace, d.halt, &d.arch);
        for m in &mut found {
            m.detail = format!("hart {hart}: {}", m.detail);
        }
        mismatches.extend(found);
    }
    let done = std::time::Instant::now();
    let MhartResult {
        harts: [dut0, dut1],
        coverage,
        scheduled_steps,
        ..
    } = result;
    CaseResult {
        dut: DutResult {
            halt: dut0.halt,
            steps: dut0.steps + dut1.steps,
            cycles: scheduled_steps,
            trace: dut0.trace,
            arch: dut0.arch,
            coverage,
        },
        mismatches,
        timing: CaseTiming {
            dut_seconds: (diff_started - dut_started).as_secs_f64(),
            difftest_seconds: (done - diff_started).as_secs_f64(),
        },
    }
}

/// Runs a lowered case on the single-hart DUT, then checks the GRM
/// against the DUT's trace ([`check`]).
fn run_single(dut: &mut Dut, case: &PreparedCase, max_steps: u64) -> CaseResult {
    let (program, image) = (&case.program, &case.image);
    let dut_started = std::time::Instant::now();
    let dut = dut.run_predecoded(program, image, max_steps);
    let check_started = std::time::Instant::now();
    let mismatches = check(program, image, max_steps, &dut.trace, dut.halt, &dut.arch);
    let done = std::time::Instant::now();
    CaseResult {
        dut,
        mismatches,
        timing: CaseTiming {
            dut_seconds: (check_started - dut_started).as_secs_f64(),
            difftest_seconds: (done - check_started).as_secs_f64(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_grm::{Cpu, PredecodedProgram, Program};
    use hfl_riscv::vocab::mem_map;
    use hfl_riscv::{Csr, Opcode, Reg};

    /// The GRM's own run of `program`, straight from the golden model.
    fn golden(program: &Program) -> Cpu {
        let mut grm = Cpu::new();
        grm.load_program(program);
        grm.run_predecoded(&PredecodedProgram::new(program), DEFAULT_MAX_STEPS);
        grm
    }

    #[test]
    fn clean_program_produces_no_mismatch_on_rocket() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let body = [
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 7),
            Instruction::r(Opcode::Add, Reg::X11, Reg::X10, Reg::X10),
            Instruction::s(Opcode::Sd, Reg::X11, 0, Reg::X5),
        ];
        let result = ex.run_case(&body);
        assert!(result.mismatches.is_empty(), "{:?}", result.mismatches);
        assert_eq!(result.dut.arch.x[11], 14);
        assert_eq!(golden(&Program::assemble(&body)).x[11], 14);
    }

    #[test]
    fn rocket_k2_sc_bug_is_detected() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let result = ex.run_case(&[Instruction::new(Opcode::ScW, 11, 5, 10, 0, 0, Csr::FFLAGS)]);
        assert!(!result.mismatches.is_empty(), "sc divergence must surface");
    }

    #[test]
    fn cva6_v1_crash_is_detected_as_crash_mismatch() {
        let mut ex = Executor::builder(CoreKind::Cva6).build();
        let program = Program::assemble(&[Instruction::NOP]);
        let body_off = (program.body_pc() - mem_map::CODE_BASE) as i64;
        let result = ex.run_case(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 0x13),
            Instruction::s(Opcode::Sw, Reg::X10, body_off, Reg::X6),
        ]);
        assert!(result
            .mismatches
            .iter()
            .any(|m| m.kind == crate::difftest::MismatchKind::Crash));
    }

    #[test]
    fn raw_words_run_and_illegal_words_trap_identically() {
        let mut ex = Executor::builder(CoreKind::Boom).build();
        // A valid addi plus garbage; both sides trap on the garbage the
        // same way, so no mismatch arises from it.
        let addi = Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 3).encode();
        let words = vec![addi, 0xFFFF_FFFF];
        let result = ex.run(&TestBody::Words(words.clone()));
        let grm = golden(&Program::assemble_raw(&words));
        assert_eq!(grm.x[10], 3);
        assert!(grm
            .trace
            .iter()
            .any(|e| e.trap.is_some_and(|t| t.cause == 2)));
        assert!(result.mismatches.is_empty(), "{:?}", result.mismatches);
    }

    #[test]
    fn coverage_accumulates_across_cases() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let a = ex.run_case(&[Instruction::NOP]);
        let b = ex.run_case(&[Instruction::r(Opcode::Div, Reg::X1, Reg::X2, Reg::X3)]);
        let mut cumulative = a.dut.coverage.clone();
        assert!(cumulative.would_grow(&b.dut.coverage));
        cumulative.union_with(&b.dut.coverage);
        assert!(cumulative.count() > a.dut.coverage.count());
    }

    #[test]
    fn run_dispatches_on_the_body_representation() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let inst = Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 9);
        let asm = ex.run(&TestBody::Asm(vec![inst]));
        let words = ex.run(&TestBody::Words(vec![inst.encode()]));
        let grm_asm = golden(&Program::assemble(&[inst])).arch_snapshot();
        let grm_words = golden(&Program::assemble_raw(&[inst.encode()])).arch_snapshot();
        assert_eq!(grm_asm.x[10], 9);
        assert_eq!(grm_asm, grm_words);
        assert_eq!(asm.dut.coverage, words.dut.coverage);
    }

    #[test]
    fn cloned_executor_behaves_identically() {
        let mut a = Executor::builder(CoreKind::Rocket).max_steps(5_000).build();
        a.run_case(&[Instruction::r(Opcode::Div, Reg::X1, Reg::X2, Reg::X3)]);
        let mut b = a.clone();
        let body = TestBody::Asm(vec![Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 4)]);
        let ra = a.run(&body);
        let rb = b.run(&body);
        assert_eq!(ra.dut.coverage, rb.dut.coverage);
        assert_eq!(ra.dut.arch, rb.dut.arch);
        assert_eq!(ra.mismatches.len(), rb.mismatches.len());
    }

    #[test]
    fn case_timing_is_populated_and_finite() {
        let mut ex = Executor::builder(CoreKind::Rocket).build();
        let result = ex.run_case(&[Instruction::r(Opcode::Div, Reg::X1, Reg::X2, Reg::X3)]);
        let t = result.timing;
        for v in [t.dut_seconds, t.difftest_seconds] {
            assert!(v.is_finite() && v >= 0.0, "{t:?}");
        }
        assert!(t.dut_seconds > 0.0, "the DUT phase cannot be free: {t:?}");
        assert!(t.difftest_seconds > 0.0, "the check runs the GRM: {t:?}");
    }
}
