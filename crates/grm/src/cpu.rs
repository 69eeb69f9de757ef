//! The functional RV64 CPU model.

use hfl_riscv::vocab::mem_map;
use hfl_riscv::{decode, Instruction, Opcode};

use crate::cause;
use crate::csrfile::{CounterWrite, CsrFile};
use crate::fpu;
use crate::mem::Memory;
use crate::pmp::AccessKind;
use crate::predecode::PredecodedProgram;
use crate::program::Program;
use crate::trace::{MemOp, Trace, TraceEntry, Trap};

/// One dirty bit per word of the executable window (1024 words).
const DIRTY_WORDS: usize = crate::predecode::WINDOW_WORDS / 64;

/// Architectural behaviour deviations, used by the DUT to inject the
/// paper's vulnerabilities (V1–V4) and the previously-known bug catalogue.
///
/// The golden reference model always runs with [`Quirks::default`] (all
/// off, i.e. spec behaviour).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quirks {
    /// **V1** (CVA6, CWE-1281): a store into the cache line currently being
    /// executed crashes the processor. The value is the cache-line size.
    pub crash_on_store_to_fetch_line: Option<u64>,
    /// **V2** (CVA6, CWE-1220): PMP enforcement is delayed — the first 16
    /// bytes (128 bits) of a locked region remain accessible.
    pub pmp_grace_window: bool,
    /// **V3** (CVA6, CWE-1281): jumps/branches to misaligned addresses do
    /// not raise the misaligned-fetch exception; the target is truncated.
    pub skip_misaligned_jump_check: bool,
    /// **V4** (CVA6, CWE-1281): `feq.s` with an improperly NaN-boxed input
    /// fails to update the NV flag.
    pub feq_nv_flag_missing_on_unboxed: bool,
    /// Known bug: `fdiv` fails to raise the divide-by-zero flag.
    pub fdiv_dz_flag_missing: bool,
    /// Known bug: `fmin`/`fmax` return canonical NaN when exactly one input
    /// is NaN (instead of the non-NaN operand).
    pub fmin_nan_propagation_wrong: bool,
    /// Known bug: `mulhsu` treats the second operand as signed.
    pub mulhsu_sign_bug: bool,
    /// Known bug: `sc` succeeds even without a matching reservation.
    pub sc_ignores_reservation: bool,
    /// Known bug: `mtval` reads zero after a misaligned-store trap.
    pub mtval_zero_on_misaligned_store: bool,
    /// Known bug: writes to read-only CSRs are silently ignored instead of
    /// raising an illegal-instruction exception.
    pub readonly_csr_write_ignored: bool,
    /// Known bug: accesses to unimplemented CSRs act as no-ops instead of
    /// raising an illegal-instruction exception.
    pub unimplemented_csr_nop: bool,
    /// Known bug: `ecall` from M-mode reports the U-mode cause (8).
    pub ecall_reports_user_cause: bool,
    /// Known bug: `minstret` double-counts integer divides.
    pub minstret_double_counts_div: bool,
    /// Known bug: `addiw` fails to sign-extend its 32-bit result.
    pub addiw_no_sign_extend: bool,
    /// **C1** (multi-hart, CWE-1281): an `lr` reservation survives a
    /// remote hart's store to the reserved address, so a racing `sc`
    /// succeeds when it must fail. Inert in single-hart execution — it is
    /// consulted only by [`Cpu::apply_remote_store`].
    pub lr_reservation_survives_remote_store: bool,
    /// **C2** (multi-hart, CWE-1281): remote stores propagate to this
    /// hart's view of shared memory only after a long delay (a stale
    /// shared cache line). Inert in single-hart execution — it is
    /// consulted by the multi-hart machine's bus, never by `Cpu` itself.
    pub stale_shared_line: bool,
    /// **C3** (multi-hart, CWE-1281): an asynchronous interrupt saves
    /// `mepc = pc + 4` instead of `pc`, silently skipping the interrupted
    /// instruction on return (interrupt-window CSR corruption). Inert in
    /// single-hart execution — only [`Cpu::take_interrupt`] consults it,
    /// and nothing delivers interrupts outside the multi-hart machine.
    pub interrupt_mepc_off_by_four: bool,
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HaltReason {
    /// The pc reached the program's halt address (normal completion).
    ReachedHaltPc,
    /// The pc left the executable region (code + handler).
    OutOfCode(u64),
    /// The step budget was exhausted (e.g. an infinite loop).
    StepBudget,
    /// The core crashed (bug injection, e.g. V1).
    Crash(&'static str),
}

/// Outcome of a single [`Cpu::step_predecoded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired normally.
    Retired,
    /// The instruction trapped (execution continues at `mtvec`).
    Trapped(Trap),
    /// The core halted; no instruction was executed.
    Halted(HaltReason),
}

/// Detailed record of one step, consumed by the DUT's micro-architectural
/// overlay for coverage extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// Program counter of the step.
    pub pc: u64,
    /// Fetched word (zero when the fetch itself failed).
    pub word: u32,
    /// Decoded instruction, if decoding succeeded.
    pub inst: Option<Instruction>,
    /// What happened.
    pub outcome: StepOutcome,
    /// Control-flow result: `(taken, target)` for branches/jumps.
    pub branch: Option<(bool, u64)>,
    /// Data-memory operation performed.
    pub mem: Option<MemOp>,
    /// Destination write `(is_fp, index, value)`.
    pub rd_write: Option<(bool, u8, u64)>,
    /// Floating-point flags raised by this step.
    pub fp_flags: u64,
    /// Whether a single-precision FP operation consumed an improperly
    /// NaN-boxed source operand (the micro-architectural path behind V4).
    pub fp_unboxed_input: bool,
}

impl StepInfo {
    /// A retiring step at `pc` that has fetched and executed nothing yet.
    fn at(pc: u64) -> StepInfo {
        StepInfo {
            pc,
            word: 0,
            inst: None,
            outcome: StepOutcome::Retired,
            branch: None,
            mem: None,
            rd_write: None,
            fp_flags: 0,
            fp_unboxed_input: false,
        }
    }
}

/// Result of [`Cpu::run_predecoded`] and [`Cpu::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Why the run stopped.
    pub reason: HaltReason,
    /// Instructions retired (including trapped ones).
    pub steps: u64,
}

/// The RV64 functional model.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Integer register file (`x0` is hardwired to zero).
    pub x: [u64; 32],
    /// Floating-point register file (raw 64-bit values, NaN-boxed for f32).
    pub f: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// CSR state.
    pub csrs: CsrFile,
    /// Physical memory.
    pub mem: Memory,
    /// Cycle counter.
    pub cycle: u64,
    /// Retired-instruction counter.
    pub instret: u64,
    /// Behaviour deviations (all off for the golden model).
    pub quirks: Quirks,
    /// Architectural trace (filled when `trace_enabled`).
    pub trace: Trace,
    /// Whether to record the trace.
    pub trace_enabled: bool,
    halt_pc: u64,
    reservation: Option<u64>,
    /// Dirty bits over the executable window: words overwritten by stores
    /// since [`Cpu::load_program`] (self-modifying code). The predecoded
    /// dispatch falls back to live fetch+decode for dirty words, since the
    /// predecoded image no longer matches memory there.
    dirty_code: [u64; DIRTY_WORDS],
    dirty_code_any: bool,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

enum Exec {
    /// Advance to pc + 4.
    Next,
    /// Jump to an absolute target.
    Jump(u64),
    /// Raise a trap.
    Trap(Trap),
    /// Halt the core.
    Halt(HaltReason),
}

impl Cpu {
    /// Creates a CPU in the reset state with empty memory.
    #[must_use]
    pub fn new() -> Cpu {
        Cpu {
            x: [0; 32],
            f: [0; 32],
            pc: mem_map::CODE_BASE,
            csrs: CsrFile::new(),
            mem: Memory::new(),
            cycle: 0,
            instret: 0,
            quirks: Quirks::default(),
            trace: Trace::new(),
            trace_enabled: true,
            halt_pc: mem_map::CODE_BASE,
            reservation: None,
            dirty_code: [0; DIRTY_WORDS],
            dirty_code_any: false,
        }
    }

    /// Creates a CPU with the given behaviour deviations (used by the DUT).
    #[must_use]
    pub fn with_quirks(quirks: Quirks) -> Cpu {
        Cpu {
            quirks,
            ..Cpu::new()
        }
    }

    /// Loads a program image: code at [`mem_map::CODE_BASE`], the trap
    /// handler at [`mem_map::HANDLER_BASE`], and sets pc/halt state.
    pub fn load_program(&mut self, program: &Program) {
        for (i, word) in program.words.iter().enumerate() {
            self.mem
                .write_u32(mem_map::CODE_BASE + (i as u64) * 4, *word)
                .expect("code region is in RAM");
        }
        for (i, word) in program.handler_words.iter().enumerate() {
            self.mem
                .write_u32(mem_map::HANDLER_BASE + (i as u64) * 4, *word)
                .expect("handler region is in RAM");
        }
        self.pc = mem_map::CODE_BASE;
        self.halt_pc = program.halt_pc;
        self.dirty_code = [0; DIRTY_WORDS];
        self.dirty_code_any = false;
    }

    /// The configured halt pc.
    #[must_use]
    pub fn halt_pc(&self) -> u64 {
        self.halt_pc
    }

    fn write_x(&mut self, rd: u8, value: u64) {
        if rd != 0 {
            self.x[rd as usize] = value;
        }
    }

    fn check_pmp(&self, addr: u64, kind: AccessKind) -> bool {
        if self.csrs.pmp.allows(addr, kind) {
            return true;
        }
        // V2: delayed enforcement leaves the first 16 bytes of a locked
        // region accessible.
        if self.quirks.pmp_grace_window {
            if let Some((idx, _)) = self.csrs.pmp.matching_entry(addr) {
                if let Some((start, _)) = self.csrs.pmp.entry_range(idx) {
                    if addr < start + 16 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The checks before every fetch, shared by both step paths: the halt
    /// pc, the executable window, alignment and fetch PMP. `Ok` carries
    /// the step's record and the pc's window word index; `Err` is the
    /// finished record of a step that halted or trapped before fetching.
    ///
    /// Always inlined: it runs before every predecoded step, and the
    /// compiler otherwise makes it a call.
    #[inline(always)]
    fn fetch_index(&mut self) -> Result<(StepInfo, usize), StepInfo> {
        let pc = self.pc;
        let mut info = StepInfo::at(pc);
        if pc == self.halt_pc {
            info.outcome = StepOutcome::Halted(HaltReason::ReachedHaltPc);
            return Err(info);
        }
        if !(mem_map::CODE_BASE..mem_map::DATA_BASE).contains(&pc) {
            info.outcome = StepOutcome::Halted(HaltReason::OutOfCode(pc));
            return Err(info);
        }
        let cause = if !pc.is_multiple_of(4) {
            cause::MISALIGNED_FETCH
        } else if !self.check_pmp(pc, AccessKind::Fetch) {
            cause::FETCH_ACCESS
        } else {
            return Ok((info, ((pc - mem_map::CODE_BASE) / 4) as usize));
        };
        self.take_trap(&mut info, Trap { cause, tval: pc });
        Err(info)
    }

    /// Executes one instruction, fetching and decoding it from memory.
    /// Only [`Cpu::run`], the reference loop, steps this way.
    fn step(&mut self) -> StepInfo {
        match self.fetch_index() {
            Ok((info, _)) => self.dispatch_live(info),
            Err(done) => done,
        }
    }

    /// Executes one instruction, fetching and decoding from a predecoded
    /// image instead of memory.
    ///
    /// Behaviour is bit-identical to a step of the reference loop
    /// [`Cpu::run`] provided `image` was built from the program loaded
    /// into this (then-fresh) CPU: window words overwritten by stores
    /// since [`Cpu::load_program`] are tracked and re-fetched from live
    /// memory, and the checks before the fetch and everything after it
    /// are the same code in both.
    pub fn step_predecoded(&mut self, image: &PredecodedProgram) -> StepInfo {
        let (mut info, index) = match self.fetch_index() {
            Ok(fetch) => fetch,
            Err(done) => return done,
        };
        if self.is_code_dirty(index) {
            // Self-modified word: the image is stale here, fetch live.
            return self.dispatch_live(info);
        }
        let op = image.op(index);
        info.word = op.word;
        self.dispatch(op.inst, info)
    }

    /// Fetches the word at `info.pc` from memory, decodes it and executes
    /// it. The executable window is RAM page 0, so the read cannot fault.
    fn dispatch_live(&mut self, mut info: StepInfo) -> StepInfo {
        info.word = self.mem.read_u32(info.pc).expect("window is in RAM");
        self.dispatch(decode(info.word).ok(), info)
    }

    /// Shared tail of the step paths: execute the (possibly illegal)
    /// decoded instruction, then retire, trap or halt.
    fn dispatch(&mut self, inst: Option<Instruction>, mut info: StepInfo) -> StepInfo {
        let Some(inst) = inst else {
            let tval = u64::from(info.word);
            self.take_trap(
                &mut info,
                Trap {
                    cause: cause::ILLEGAL_INSTRUCTION,
                    tval,
                },
            );
            return info;
        };
        info.inst = Some(inst);
        let exec = self.execute(inst, &mut info);
        match exec {
            Exec::Next | Exec::Jump(_) => {
                self.retire(inst.opcode);
                self.pc = match exec {
                    Exec::Jump(target) => target,
                    _ => info.pc + 4,
                };
            }
            Exec::Trap(trap) => {
                self.take_trap(&mut info, trap);
                return info;
            }
            Exec::Halt(reason) => {
                info.outcome = StepOutcome::Halted(reason);
                self.record(&info);
                return info;
            }
        }
        self.record(&info);
        info
    }

    /// Advances the counters for a retiring instruction. Trapped
    /// instructions do not retire, so they only cost a cycle (inside
    /// `take_trap`).
    fn retire(&mut self, opcode: Opcode) {
        self.cycle = self.cycle.wrapping_add(1);
        self.instret = self.instret.wrapping_add(1);
        if self.quirks.minstret_double_counts_div
            && matches!(
                opcode,
                Opcode::Div
                    | Opcode::Divu
                    | Opcode::Rem
                    | Opcode::Remu
                    | Opcode::Divw
                    | Opcode::Divuw
                    | Opcode::Remw
                    | Opcode::Remuw
            )
        {
            self.instret = self.instret.wrapping_add(1);
        }
    }

    fn is_code_dirty(&self, index: usize) -> bool {
        self.dirty_code_any && self.dirty_code[index / 64] & (1 << (index % 64)) != 0
    }

    /// Marks executable-window words overlapped by a store as dirty.
    fn mark_code_dirty(&mut self, addr: u64, size: u8) {
        let end = addr + u64::from(size);
        if end <= mem_map::CODE_BASE || addr >= mem_map::DATA_BASE {
            return;
        }
        let first = (addr.max(mem_map::CODE_BASE) - mem_map::CODE_BASE) / 4;
        let last = (end.min(mem_map::DATA_BASE) - 1 - mem_map::CODE_BASE) / 4;
        for word in first..=last {
            self.dirty_code[(word / 64) as usize] |= 1 << (word % 64);
        }
        self.dirty_code_any = true;
    }

    fn record(&mut self, info: &StepInfo) {
        if !self.trace_enabled {
            return;
        }
        if matches!(info.outcome, StepOutcome::Halted(_)) && info.inst.is_none() {
            return;
        }
        let trap = match info.outcome {
            StepOutcome::Trapped(t) => Some(t),
            _ => None,
        };
        self.trace.entries.push(TraceEntry {
            pc: info.pc,
            word: info.word,
            rd_write: info.rd_write,
            mem: info.mem,
            trap,
        });
    }

    fn take_trap(&mut self, info: &mut StepInfo, trap: Trap) {
        let mut tval = trap.tval;
        if self.quirks.mtval_zero_on_misaligned_store && trap.cause == cause::MISALIGNED_STORE {
            tval = 0;
        }
        info.outcome = StepOutcome::Trapped(Trap {
            cause: trap.cause,
            tval,
        });
        self.csrs.mepc = self.pc & !0b11;
        self.csrs.mcause = trap.cause;
        self.csrs.mtval = tval;
        // mstatus: MPIE <- MIE, MIE <- 0, MPP <- M.
        let mie = (self.csrs.mstatus >> 3) & 1;
        self.csrs.mstatus &= !(1 << 3 | 1 << 7);
        self.csrs.mstatus |= mie << 7 | 0b11 << 11;
        self.pc = self.csrs.mtvec;
        self.cycle = self.cycle.wrapping_add(1);
        self.record(info);
    }

    /// Current LR reservation address, if any. The multi-hart machine's
    /// bus snoops this to model reservation invalidation.
    #[must_use]
    pub fn reservation(&self) -> Option<u64> {
        self.reservation
    }

    /// Whether a machine timer interrupt is deliverable right now:
    /// `mstatus.MIE` and `mie.MTIE` are both set.
    #[must_use]
    pub fn timer_interrupt_enabled(&self) -> bool {
        (self.csrs.mstatus >> 3) & 1 == 1 && (self.csrs.mie >> 7) & 1 == 1
    }

    /// Delivers an asynchronous interrupt between instructions: saves the
    /// resume pc in `mepc`, sets `mcause`/`mtval`, pushes the interrupt
    /// enable stack (MPIE <- MIE, MIE <- 0, MPP <- M) and redirects to
    /// `mtvec`. No trace entry is recorded — the interrupt is not an
    /// instruction; its effects surface through the handler's own trace.
    ///
    /// Under [`Quirks::interrupt_mepc_off_by_four`] the saved `mepc`
    /// points one instruction past the interrupted one (C3), so the
    /// skip-and-resume handler skips an extra instruction on return.
    pub fn take_interrupt(&mut self, cause: u64) {
        let epc = self.pc & !0b11;
        self.csrs.mepc = if self.quirks.interrupt_mepc_off_by_four {
            epc.wrapping_add(4)
        } else {
            epc
        };
        self.csrs.mcause = cause;
        self.csrs.mtval = 0;
        // mstatus: MPIE <- MIE, MIE <- 0, MPP <- M (as take_trap).
        let mie = (self.csrs.mstatus >> 3) & 1;
        self.csrs.mstatus &= !(1 << 3 | 1 << 7);
        self.csrs.mstatus |= mie << 7 | 0b11 << 11;
        self.pc = self.csrs.mtvec;
        self.cycle = self.cycle.wrapping_add(1);
    }

    /// Applies a store committed by a *remote* hart to this hart's view
    /// of memory (the multi-hart machine's shared-memory bus calls this
    /// at store-propagation time). Overwritten executable-window words
    /// are marked dirty, and a reservation on the stored-to address is
    /// invalidated — unless [`Quirks::lr_reservation_survives_remote_store`]
    /// (C1) incorrectly keeps it alive. Stores outside RAM are dropped:
    /// the remote hart already took its own access fault for them.
    pub fn apply_remote_store(&mut self, addr: u64, size: u8, value: u64) {
        let written = match size {
            1 => self.mem.write_u8(addr, value as u8),
            2 => self.mem.write_u16(addr, value as u16),
            4 => self.mem.write_u32(addr, value as u32),
            _ => self.mem.write_u64(addr, value),
        };
        if written.is_err() {
            return;
        }
        self.mark_code_dirty(addr, size);
        if !self.quirks.lr_reservation_survives_remote_store && self.reservation == Some(addr) {
            self.reservation = None;
        }
    }

    /// Runs until halt or until `max_steps` instructions retire, fetching
    /// and decoding every step from memory.
    ///
    /// This is the reference interpreter. Simulators run
    /// [`Cpu::run_predecoded`] or [`Cpu::step_predecoded`]; the
    /// equivalence tests and the `bench_sim` benchmark compare them with
    /// this loop.
    pub fn run(&mut self, max_steps: u64) -> RunResult {
        let mut steps = 0u64;
        loop {
            if steps >= max_steps {
                return RunResult {
                    reason: HaltReason::StepBudget,
                    steps,
                };
            }
            let info = self.step();
            match info.outcome {
                StepOutcome::Halted(reason) => return RunResult { reason, steps },
                _ => steps += 1,
            }
        }
    }

    /// Runs until halt or until `max_steps` instructions retire,
    /// dispatching over `image` instead of per-step fetch+decode, with a
    /// superinstruction fast path for straight-line blocks.
    ///
    /// Bit-identical to [`Cpu::run`] on the same freshly-loaded program
    /// (see [`Cpu::step_predecoded`] for the conditions). The block fast
    /// path only engages while no code word has been self-modified and no
    /// PMP entry is armed — straight-line ops can change neither, so the
    /// gate cannot go stale mid-block.
    pub fn run_predecoded(&mut self, image: &PredecodedProgram, max_steps: u64) -> RunResult {
        debug_assert_eq!(
            image.halt_pc(),
            self.halt_pc,
            "image was built for a different program"
        );
        let mut steps = 0u64;
        loop {
            if steps >= max_steps {
                return RunResult {
                    reason: HaltReason::StepBudget,
                    steps,
                };
            }
            if !self.dirty_code_any && !self.csrs.pmp.any_active() {
                let pc = self.pc;
                if pc != self.halt_pc
                    && (mem_map::CODE_BASE..mem_map::DATA_BASE).contains(&pc)
                    && pc.is_multiple_of(4)
                {
                    let index = ((pc - mem_map::CODE_BASE) / 4) as usize;
                    let run = u64::from(image.straight_len(index)).min(max_steps - steps);
                    if run >= 2 {
                        steps += self.run_straight(image, index, run);
                        continue;
                    }
                }
            }
            let info = self.step_predecoded(image);
            match info.outcome {
                StepOutcome::Halted(reason) => return RunResult { reason, steps },
                _ => steps += 1,
            }
        }
    }

    /// Retires `count` straight-line ops starting at window word `index`
    /// without re-checking halt/fetch conditions between them. The caller
    /// guarantees the run is within a straight-line block ([`
    /// PredecodedProgram::straight_len`]), so every op decodes, executes
    /// to a plain fall-through, and stays short of the halt pc.
    fn run_straight(&mut self, image: &PredecodedProgram, index: usize, count: u64) -> u64 {
        for i in 0..count as usize {
            let op = image.op(index + i);
            let inst = op.inst.expect("straight-line slots decode");
            let mut info = StepInfo {
                word: op.word,
                inst: Some(inst),
                ..StepInfo::at(self.pc)
            };
            let exec = self.execute(inst, &mut info);
            debug_assert!(matches!(exec, Exec::Next), "straight-line ops fall through");
            self.retire(inst.opcode);
            self.pc += 4;
            self.record(&info);
        }
        count
    }

    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, inst: Instruction, info: &mut StepInfo) -> Exec {
        use Opcode::*;
        let pc = self.pc;
        let rd = inst.rd;
        let rs1v = self.x[inst.rs1 as usize];
        let rs2v = self.x[inst.rs2 as usize];
        let fa = self.f[inst.rs1 as usize];
        let fb = self.f[inst.rs2 as usize];
        let fc = self.f[inst.rs3 as usize];
        let imm = inst.imm;
        // Single-precision ops funnel improperly boxed inputs through the
        // NaN-boxing unit; the DUT instruments this path.
        if single_precision_reads_fp(inst.opcode) {
            let spec = inst.opcode.spec();
            let mut unboxed = false;
            if spec.rs1 == Some(hfl_riscv::RegClass::Fp) {
                unboxed |= !fpu::is_boxed_f32(fa);
            }
            if spec.rs2 == Some(hfl_riscv::RegClass::Fp) {
                unboxed |= !fpu::is_boxed_f32(fb);
            }
            if spec.rs3 == Some(hfl_riscv::RegClass::Fp) {
                unboxed |= !fpu::is_boxed_f32(fc);
            }
            info.fp_unboxed_input = unboxed;
        }

        macro_rules! wx {
            ($value:expr) => {{
                let v: u64 = $value;
                self.write_x(rd, v);
                info.rd_write = Some((false, rd, v));
                Exec::Next
            }};
        }
        macro_rules! wf {
            ($value:expr) => {{
                let v: u64 = $value;
                self.f[rd as usize] = v;
                info.rd_write = Some((true, rd, v));
                Exec::Next
            }};
        }
        macro_rules! fpop {
            ($result:expr) => {{
                let r: fpu::FpResult = $result;
                info.fp_flags = r.flags;
                self.csrs.raise_fflags(r.flags);
                wf!(r.bits)
            }};
        }
        macro_rules! fpx {
            ($result:expr) => {{
                let r: fpu::FpResult = $result;
                info.fp_flags = r.flags;
                self.csrs.raise_fflags(r.flags);
                wx!(r.bits)
            }};
        }

        match inst.opcode {
            // ---- Upper immediates ----
            Lui => wx!((imm << 12) as i32 as i64 as u64),
            Auipc => wx!(pc.wrapping_add(((imm << 12) as i32 as i64) as u64)),
            // ---- Control flow ----
            Jal => {
                let target = pc.wrapping_add(imm as u64);
                match self.jump_target(target) {
                    Ok(t) => {
                        self.write_x(rd, pc + 4);
                        info.rd_write = Some((false, rd, pc + 4));
                        info.branch = Some((true, t));
                        Exec::Jump(t)
                    }
                    Err(trap) => Exec::Trap(trap),
                }
            }
            Jalr => {
                let target = rs1v.wrapping_add(imm as u64) & !1;
                match self.jump_target(target) {
                    Ok(t) => {
                        self.write_x(rd, pc + 4);
                        info.rd_write = Some((false, rd, pc + 4));
                        info.branch = Some((true, t));
                        Exec::Jump(t)
                    }
                    Err(trap) => Exec::Trap(trap),
                }
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let taken = match inst.opcode {
                    Beq => rs1v == rs2v,
                    Bne => rs1v != rs2v,
                    Blt => (rs1v as i64) < (rs2v as i64),
                    Bge => (rs1v as i64) >= (rs2v as i64),
                    Bltu => rs1v < rs2v,
                    _ => rs1v >= rs2v,
                };
                if taken {
                    let target = pc.wrapping_add(imm as u64);
                    match self.jump_target(target) {
                        Ok(t) => {
                            info.branch = Some((true, t));
                            Exec::Jump(t)
                        }
                        Err(trap) => Exec::Trap(trap),
                    }
                } else {
                    info.branch = Some((false, pc + 4));
                    Exec::Next
                }
            }
            // ---- Loads ----
            Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu => {
                let addr = rs1v.wrapping_add(imm as u64);
                let size = match inst.opcode {
                    Lb | Lbu => 1,
                    Lh | Lhu => 2,
                    Lw | Lwu => 4,
                    _ => 8,
                };
                match self.load(addr, size, info) {
                    Ok(raw) => {
                        let v = match inst.opcode {
                            Lb => raw as u8 as i8 as i64 as u64,
                            Lbu => u64::from(raw as u8),
                            Lh => raw as u16 as i16 as i64 as u64,
                            Lhu => u64::from(raw as u16),
                            Lw => raw as u32 as i32 as i64 as u64,
                            Lwu => u64::from(raw as u32),
                            _ => raw,
                        };
                        wx!(v)
                    }
                    Err(e) => e,
                }
            }
            // ---- Stores ----
            Sb | Sh | Sw | Sd => {
                let addr = rs1v.wrapping_add(imm as u64);
                let size = match inst.opcode {
                    Sb => 1,
                    Sh => 2,
                    Sw => 4,
                    _ => 8,
                };
                self.store(addr, size, rs2v, info)
            }
            // ---- Register-immediate ALU ----
            Addi => wx!(rs1v.wrapping_add(imm as u64)),
            Slti => wx!(u64::from((rs1v as i64) < imm)),
            Sltiu => wx!(u64::from(rs1v < imm as u64)),
            Xori => wx!(rs1v ^ imm as u64),
            Ori => wx!(rs1v | imm as u64),
            Andi => wx!(rs1v & imm as u64),
            Slli => wx!(rs1v << (imm & 0x3F)),
            Srli => wx!(rs1v >> (imm & 0x3F)),
            Srai => wx!(((rs1v as i64) >> (imm & 0x3F)) as u64),
            Addiw => {
                let v32 = (rs1v as u32).wrapping_add(imm as u32);
                if self.quirks.addiw_no_sign_extend {
                    wx!(u64::from(v32))
                } else {
                    wx!(v32 as i32 as i64 as u64)
                }
            }
            Slliw => wx!(((rs1v as u32) << (imm & 0x1F)) as i32 as i64 as u64),
            Srliw => wx!(((rs1v as u32) >> (imm & 0x1F)) as i32 as i64 as u64),
            Sraiw => wx!(((rs1v as i32) >> (imm & 0x1F)) as i64 as u64),
            // ---- Register-register ALU ----
            Add => wx!(rs1v.wrapping_add(rs2v)),
            Sub => wx!(rs1v.wrapping_sub(rs2v)),
            Sll => wx!(rs1v << (rs2v & 0x3F)),
            Slt => wx!(u64::from((rs1v as i64) < (rs2v as i64))),
            Sltu => wx!(u64::from(rs1v < rs2v)),
            Xor => wx!(rs1v ^ rs2v),
            Srl => wx!(rs1v >> (rs2v & 0x3F)),
            Sra => wx!(((rs1v as i64) >> (rs2v & 0x3F)) as u64),
            Or => wx!(rs1v | rs2v),
            And => wx!(rs1v & rs2v),
            Addw => wx!((rs1v as u32).wrapping_add(rs2v as u32) as i32 as i64 as u64),
            Subw => wx!((rs1v as u32).wrapping_sub(rs2v as u32) as i32 as i64 as u64),
            Sllw => wx!(((rs1v as u32) << (rs2v & 0x1F)) as i32 as i64 as u64),
            Srlw => wx!(((rs1v as u32) >> (rs2v & 0x1F)) as i32 as i64 as u64),
            Sraw => wx!(((rs1v as i32) >> (rs2v & 0x1F)) as i64 as u64),
            // ---- M extension ----
            Mul => wx!(rs1v.wrapping_mul(rs2v)),
            Mulh => wx!(((i128::from(rs1v as i64) * i128::from(rs2v as i64)) >> 64) as u64),
            Mulhsu => {
                let b = if self.quirks.mulhsu_sign_bug {
                    i128::from(rs2v as i64)
                } else {
                    i128::from(rs2v)
                };
                wx!(((i128::from(rs1v as i64) * b) >> 64) as u64)
            }
            Mulhu => wx!(((u128::from(rs1v) * u128::from(rs2v)) >> 64) as u64),
            Div => wx!(div_signed(rs1v as i64, rs2v as i64) as u64),
            Divu => wx!(rs1v.checked_div(rs2v).unwrap_or(u64::MAX)),
            Rem => wx!(rem_signed(rs1v as i64, rs2v as i64) as u64),
            Remu => wx!(if rs2v == 0 { rs1v } else { rs1v % rs2v }),
            Mulw => wx!((rs1v as i32).wrapping_mul(rs2v as i32) as i64 as u64),
            Divw => wx!(div_signed_32(rs1v as i32, rs2v as i32) as i64 as u64),
            Divuw => {
                let (a, b) = (rs1v as u32, rs2v as u32);
                wx!(a
                    .checked_div(b)
                    .map_or(u64::MAX, |q| q as i32 as i64 as u64))
            }
            Remw => wx!(rem_signed_32(rs1v as i32, rs2v as i32) as i64 as u64),
            Remuw => {
                let (a, b) = (rs1v as u32, rs2v as u32);
                wx!((if b == 0 { a as i32 } else { (a % b) as i32 }) as i64 as u64)
            }
            // ---- Zba: address generation ----
            Sh1add => wx!(rs2v.wrapping_add(rs1v << 1)),
            Sh2add => wx!(rs2v.wrapping_add(rs1v << 2)),
            Sh3add => wx!(rs2v.wrapping_add(rs1v << 3)),
            AddUw => wx!(rs2v.wrapping_add(u64::from(rs1v as u32))),
            Sh1addUw => wx!(rs2v.wrapping_add(u64::from(rs1v as u32) << 1)),
            Sh2addUw => wx!(rs2v.wrapping_add(u64::from(rs1v as u32) << 2)),
            Sh3addUw => wx!(rs2v.wrapping_add(u64::from(rs1v as u32) << 3)),
            SlliUw => wx!(u64::from(rs1v as u32) << (imm & 0x3F)),
            // ---- Zbb: basic bit manipulation ----
            Andn => wx!(rs1v & !rs2v),
            Orn => wx!(rs1v | !rs2v),
            Xnor => wx!(!(rs1v ^ rs2v)),
            Clz => wx!(u64::from(rs1v.leading_zeros())),
            Ctz => wx!(u64::from(rs1v.trailing_zeros())),
            Cpop => wx!(u64::from(rs1v.count_ones())),
            Clzw => wx!(u64::from((rs1v as u32).leading_zeros())),
            Ctzw => wx!(u64::from((rs1v as u32).trailing_zeros())),
            Cpopw => wx!(u64::from((rs1v as u32).count_ones())),
            Max => wx!((rs1v as i64).max(rs2v as i64) as u64),
            Maxu => wx!(rs1v.max(rs2v)),
            Min => wx!((rs1v as i64).min(rs2v as i64) as u64),
            Minu => wx!(rs1v.min(rs2v)),
            SextB => wx!(rs1v as u8 as i8 as i64 as u64),
            SextH => wx!(rs1v as u16 as i16 as i64 as u64),
            ZextH => wx!(u64::from(rs1v as u16)),
            Rol => wx!(rs1v.rotate_left((rs2v & 0x3F) as u32)),
            Ror => wx!(rs1v.rotate_right((rs2v & 0x3F) as u32)),
            Rori => wx!(rs1v.rotate_right((imm & 0x3F) as u32)),
            Rolw => wx!((rs1v as u32).rotate_left((rs2v & 0x1F) as u32) as i32 as i64 as u64),
            Rorw => wx!((rs1v as u32).rotate_right((rs2v & 0x1F) as u32) as i32 as i64 as u64),
            Roriw => wx!((rs1v as u32).rotate_right((imm & 0x1F) as u32) as i32 as i64 as u64),
            OrcB => {
                let mut out = 0u64;
                for byte in 0..8 {
                    if rs1v >> (8 * byte) & 0xFF != 0 {
                        out |= 0xFFu64 << (8 * byte);
                    }
                }
                wx!(out)
            }
            Rev8 => wx!(rs1v.swap_bytes()),
            // ---- Fences and environment ----
            Fence | FenceI | Wfi => Exec::Next,
            Ecall => {
                let c = if self.quirks.ecall_reports_user_cause {
                    8
                } else {
                    cause::ECALL_M
                };
                Exec::Trap(Trap { cause: c, tval: 0 })
            }
            Ebreak => Exec::Trap(Trap {
                cause: cause::BREAKPOINT,
                tval: pc,
            }),
            Mret => {
                // Restore MIE from MPIE; MPIE <- 1; stay in M.
                let mpie = (self.csrs.mstatus >> 7) & 1;
                self.csrs.mstatus &= !(1 << 3);
                self.csrs.mstatus |= mpie << 3 | 1 << 7;
                info.branch = Some((true, self.csrs.mepc));
                Exec::Jump(self.csrs.mepc)
            }
            Sret => Exec::Trap(Trap {
                cause: cause::ILLEGAL_INSTRUCTION,
                tval: u64::from(inst.encode()),
            }),
            // ---- Zicsr ----
            Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci => self.exec_csr(inst, rs1v, info),
            // ---- A extension ----
            LrW | LrD => {
                let size = if inst.opcode == LrW { 4 } else { 8 };
                let addr = rs1v;
                match self.load(addr, size, info) {
                    Ok(raw) => {
                        self.reservation = Some(addr);
                        let v = if size == 4 {
                            raw as u32 as i32 as i64 as u64
                        } else {
                            raw
                        };
                        wx!(v)
                    }
                    Err(e) => e,
                }
            }
            ScW | ScD => {
                let size = if inst.opcode == ScW { 4 } else { 8 };
                let addr = rs1v;
                let ok = self.quirks.sc_ignores_reservation || self.reservation == Some(addr);
                self.reservation = None;
                if ok {
                    match self.store(addr, size, rs2v, info) {
                        Exec::Next => wx!(0),
                        other => other,
                    }
                } else {
                    wx!(1)
                }
            }
            AmoswapW | AmoaddW | AmoxorW | AmoandW | AmoorW | AmominW | AmomaxW | AmominuW
            | AmomaxuW => self.exec_amo(inst, rs1v, rs2v, 4, info),
            AmoswapD | AmoaddD | AmoxorD | AmoandD | AmoorD | AmominD | AmomaxD | AmominuD
            | AmomaxuD => self.exec_amo(inst, rs1v, rs2v, 8, info),
            // ---- F/D loads and stores ----
            Flw | Fld => {
                let size = if inst.opcode == Flw { 4 } else { 8 };
                let addr = rs1v.wrapping_add(imm as u64);
                match self.load(addr, size, info) {
                    Ok(raw) => {
                        let v = if size == 4 {
                            fpu::box_f32(raw as u32)
                        } else {
                            raw
                        };
                        wf!(v)
                    }
                    Err(e) => e,
                }
            }
            Fsw | Fsd => {
                let size = if inst.opcode == Fsw { 4 } else { 8 };
                let addr = rs1v.wrapping_add(imm as u64);
                let value = if size == 4 { u64::from(fb as u32) } else { fb };
                self.store(addr, size, value, info)
            }
            // ---- F/D arithmetic ----
            FaddS => fpop!(fpu::arith_s(fpu::Arith::Add, fa, fb)),
            FsubS => fpop!(fpu::arith_s(fpu::Arith::Sub, fa, fb)),
            FmulS => fpop!(fpu::arith_s(fpu::Arith::Mul, fa, fb)),
            FdivS => fpop!(self.quirk_dz(fpu::arith_s(fpu::Arith::Div, fa, fb))),
            FsqrtS => fpop!(fpu::sqrt_s(fa)),
            FaddD => fpop!(fpu::arith_d(fpu::Arith::Add, fa, fb)),
            FsubD => fpop!(fpu::arith_d(fpu::Arith::Sub, fa, fb)),
            FmulD => fpop!(fpu::arith_d(fpu::Arith::Mul, fa, fb)),
            FdivD => fpop!(self.quirk_dz(fpu::arith_d(fpu::Arith::Div, fa, fb))),
            FsqrtD => fpop!(fpu::sqrt_d(fa)),
            FsgnjS => fpop!(fpu::sgnj_s(fpu::SignOp::Inject, fa, fb)),
            FsgnjnS => fpop!(fpu::sgnj_s(fpu::SignOp::Negate, fa, fb)),
            FsgnjxS => fpop!(fpu::sgnj_s(fpu::SignOp::Xor, fa, fb)),
            FsgnjD => fpop!(fpu::sgnj_d(fpu::SignOp::Inject, fa, fb)),
            FsgnjnD => fpop!(fpu::sgnj_d(fpu::SignOp::Negate, fa, fb)),
            FsgnjxD => fpop!(fpu::sgnj_d(fpu::SignOp::Xor, fa, fb)),
            FminS => fpop!(self.quirk_minmax_s(fpu::minmax_s(false, fa, fb), fa, fb)),
            FmaxS => fpop!(self.quirk_minmax_s(fpu::minmax_s(true, fa, fb), fa, fb)),
            FminD => fpop!(self.quirk_minmax_d(fpu::minmax_d(false, fa, fb), fa, fb)),
            FmaxD => fpop!(self.quirk_minmax_d(fpu::minmax_d(true, fa, fb), fa, fb)),
            // ---- F/D compares (note V4) ----
            FeqS => {
                let mut r = fpu::cmp_s(fpu::Cmp::Eq, fa, fb);
                if self.quirks.feq_nv_flag_missing_on_unboxed
                    && (!fpu::is_boxed_f32(fa) || !fpu::is_boxed_f32(fb))
                {
                    r.flags = 0;
                }
                fpx!(r)
            }
            FltS => fpx!(fpu::cmp_s(fpu::Cmp::Lt, fa, fb)),
            FleS => fpx!(fpu::cmp_s(fpu::Cmp::Le, fa, fb)),
            FeqD => fpx!(fpu::cmp_d(fpu::Cmp::Eq, fa, fb)),
            FltD => fpx!(fpu::cmp_d(fpu::Cmp::Lt, fa, fb)),
            FleD => fpx!(fpu::cmp_d(fpu::Cmp::Le, fa, fb)),
            FclassS => wx!(fpu::class_s(fa)),
            FclassD => wx!(fpu::class_d(fa)),
            // ---- F/D conversions and moves ----
            FcvtWS => fpx!(fpu::cvt_s_to_int(fpu::IntKind::W, fa)),
            FcvtWuS => fpx!(fpu::cvt_s_to_int(fpu::IntKind::Wu, fa)),
            FcvtLS => fpx!(fpu::cvt_s_to_int(fpu::IntKind::L, fa)),
            FcvtLuS => fpx!(fpu::cvt_s_to_int(fpu::IntKind::Lu, fa)),
            FcvtWD => fpx!(fpu::cvt_d_to_int(fpu::IntKind::W, fa)),
            FcvtWuD => fpx!(fpu::cvt_d_to_int(fpu::IntKind::Wu, fa)),
            FcvtLD => fpx!(fpu::cvt_d_to_int(fpu::IntKind::L, fa)),
            FcvtLuD => fpx!(fpu::cvt_d_to_int(fpu::IntKind::Lu, fa)),
            FcvtSW => fpop!(fpu::cvt_int_to_s(fpu::IntKind::W, rs1v)),
            FcvtSWu => fpop!(fpu::cvt_int_to_s(fpu::IntKind::Wu, rs1v)),
            FcvtSL => fpop!(fpu::cvt_int_to_s(fpu::IntKind::L, rs1v)),
            FcvtSLu => fpop!(fpu::cvt_int_to_s(fpu::IntKind::Lu, rs1v)),
            FcvtDW => fpop!(fpu::cvt_int_to_d(fpu::IntKind::W, rs1v)),
            FcvtDWu => fpop!(fpu::cvt_int_to_d(fpu::IntKind::Wu, rs1v)),
            FcvtDL => fpop!(fpu::cvt_int_to_d(fpu::IntKind::L, rs1v)),
            FcvtDLu => fpop!(fpu::cvt_int_to_d(fpu::IntKind::Lu, rs1v)),
            FcvtSD => fpop!(fpu::cvt_d_to_s(fa)),
            FcvtDS => fpop!(fpu::cvt_s_to_d(fa)),
            FmvXW => wx!(fa as u32 as i32 as i64 as u64),
            FmvWX => wf!(fpu::box_f32(rs1v as u32)),
            FmvXD => wx!(fa),
            FmvDX => wf!(rs1v),
            // ---- Fused multiply-add ----
            FmaddS => fpop!(fpu::fma_s(fpu::FmaKind::Madd, fa, fb, fc)),
            FmsubS => fpop!(fpu::fma_s(fpu::FmaKind::Msub, fa, fb, fc)),
            FnmsubS => fpop!(fpu::fma_s(fpu::FmaKind::Nmsub, fa, fb, fc)),
            FnmaddS => fpop!(fpu::fma_s(fpu::FmaKind::Nmadd, fa, fb, fc)),
            FmaddD => fpop!(fpu::fma_d(fpu::FmaKind::Madd, fa, fb, fc)),
            FmsubD => fpop!(fpu::fma_d(fpu::FmaKind::Msub, fa, fb, fc)),
            FnmsubD => fpop!(fpu::fma_d(fpu::FmaKind::Nmsub, fa, fb, fc)),
            FnmaddD => fpop!(fpu::fma_d(fpu::FmaKind::Nmadd, fa, fb, fc)),
            // Pseudo-instructions never reach execution (decode is real-only).
            other => {
                debug_assert!(other.is_pseudo());
                Exec::Trap(Trap {
                    cause: cause::ILLEGAL_INSTRUCTION,
                    tval: u64::from(info.word),
                })
            }
        }
    }

    fn quirk_dz(&self, mut r: fpu::FpResult) -> fpu::FpResult {
        if self.quirks.fdiv_dz_flag_missing {
            r.flags &= !fpu::DZ;
        }
        r
    }

    fn quirk_minmax_s(&self, r: fpu::FpResult, fa: u64, fb: u64) -> fpu::FpResult {
        if self.quirks.fmin_nan_propagation_wrong {
            let a_nan = f32::from_bits(fpu::unbox_f32(fa)).is_nan();
            let b_nan = f32::from_bits(fpu::unbox_f32(fb)).is_nan();
            if a_nan != b_nan {
                return fpu::FpResult {
                    bits: fpu::box_f32(fpu::CANONICAL_NAN_F32),
                    flags: r.flags,
                };
            }
        }
        r
    }

    fn quirk_minmax_d(&self, r: fpu::FpResult, fa: u64, fb: u64) -> fpu::FpResult {
        if self.quirks.fmin_nan_propagation_wrong {
            let a_nan = f64::from_bits(fa).is_nan();
            let b_nan = f64::from_bits(fb).is_nan();
            if a_nan != b_nan {
                return fpu::FpResult {
                    bits: fpu::CANONICAL_NAN_F64,
                    flags: r.flags,
                };
            }
        }
        r
    }

    fn jump_target(&self, target: u64) -> Result<u64, Trap> {
        if target.is_multiple_of(4) {
            Ok(target)
        } else if self.quirks.skip_misaligned_jump_check {
            // V3: the misaligned-fetch exception is never raised; the core
            // silently truncates the target.
            Ok(target & !0b11)
        } else {
            Err(Trap {
                cause: cause::MISALIGNED_FETCH,
                tval: target,
            })
        }
    }

    fn load(&mut self, addr: u64, size: u8, info: &mut StepInfo) -> Result<u64, Exec> {
        if !addr.is_multiple_of(u64::from(size)) {
            return Err(Exec::Trap(Trap {
                cause: cause::MISALIGNED_LOAD,
                tval: addr,
            }));
        }
        if !self.check_pmp(addr, AccessKind::Load) {
            return Err(Exec::Trap(Trap {
                cause: cause::LOAD_ACCESS,
                tval: addr,
            }));
        }
        let raw = match size {
            1 => self.mem.read_u8(addr).map(u64::from),
            2 => self.mem.read_u16(addr).map(u64::from),
            4 => self.mem.read_u32(addr).map(u64::from),
            _ => self.mem.read_u64(addr),
        };
        match raw {
            Ok(v) => {
                info.mem = Some(MemOp {
                    addr,
                    size,
                    is_store: false,
                    value: 0,
                });
                Ok(v)
            }
            Err(_) => Err(Exec::Trap(Trap {
                cause: cause::LOAD_ACCESS,
                tval: addr,
            })),
        }
    }

    fn store(&mut self, addr: u64, size: u8, value: u64, info: &mut StepInfo) -> Exec {
        if !addr.is_multiple_of(u64::from(size)) {
            return Exec::Trap(Trap {
                cause: cause::MISALIGNED_STORE,
                tval: addr,
            });
        }
        if !self.check_pmp(addr, AccessKind::Store) {
            return Exec::Trap(Trap {
                cause: cause::STORE_ACCESS,
                tval: addr,
            });
        }
        // V1: a store into the currently-executing cache line crashes the
        // core (cache-coherency violation during write-back).
        if let Some(line) = self.quirks.crash_on_store_to_fetch_line {
            if addr / line == self.pc / line {
                info.mem = Some(MemOp {
                    addr,
                    size,
                    is_store: true,
                    value,
                });
                return Exec::Halt(HaltReason::Crash("store to executing cache line"));
            }
        }
        let res = match size {
            1 => self.mem.write_u8(addr, value as u8),
            2 => self.mem.write_u16(addr, value as u16),
            4 => self.mem.write_u32(addr, value as u32),
            _ => self.mem.write_u64(addr, value),
        };
        match res {
            Ok(()) => {
                self.mark_code_dirty(addr, size);
                info.mem = Some(MemOp {
                    addr,
                    size,
                    is_store: true,
                    value,
                });
                // A store invalidates any reservation on the same address.
                if self.reservation == Some(addr) {
                    self.reservation = None;
                }
                Exec::Next
            }
            Err(_) => Exec::Trap(Trap {
                cause: cause::STORE_ACCESS,
                tval: addr,
            }),
        }
    }

    fn exec_amo(
        &mut self,
        inst: Instruction,
        addr: u64,
        rs2v: u64,
        size: u8,
        info: &mut StepInfo,
    ) -> Exec {
        use Opcode::*;
        if !addr.is_multiple_of(u64::from(size)) {
            return Exec::Trap(Trap {
                cause: cause::MISALIGNED_STORE,
                tval: addr,
            });
        }
        let old = match self.load(addr, size, info) {
            Ok(raw) => {
                if size == 4 {
                    raw as u32 as i32 as i64 as u64
                } else {
                    raw
                }
            }
            Err(_) => {
                // AMOs report store/AMO faults, not load faults.
                return Exec::Trap(Trap {
                    cause: cause::STORE_ACCESS,
                    tval: addr,
                });
            }
        };
        let new = match inst.opcode {
            AmoswapW | AmoswapD => rs2v,
            AmoaddW => (old as u32).wrapping_add(rs2v as u32) as u64,
            AmoaddD => old.wrapping_add(rs2v),
            AmoxorW | AmoxorD => old ^ rs2v,
            AmoandW | AmoandD => old & rs2v,
            AmoorW | AmoorD => old | rs2v,
            AmominW => (old as i32).min(rs2v as i32) as u32 as u64,
            AmominD => ((old as i64).min(rs2v as i64)) as u64,
            AmomaxW => (old as i32).max(rs2v as i32) as u32 as u64,
            AmomaxD => ((old as i64).max(rs2v as i64)) as u64,
            AmominuW => (old as u32).min(rs2v as u32) as u64,
            AmominuD => old.min(rs2v),
            AmomaxuW => (old as u32).max(rs2v as u32) as u64,
            _ => old.max(rs2v), // AmomaxuD
        };
        match self.store(addr, size, new, info) {
            Exec::Next => {
                self.write_x(inst.rd, old);
                info.rd_write = Some((false, inst.rd, old));
                Exec::Next
            }
            other => other,
        }
    }

    fn exec_csr(&mut self, inst: Instruction, rs1v: u64, info: &mut StepInfo) -> Exec {
        use Opcode::*;
        let csr = inst.csr;
        let is_imm = matches!(inst.opcode, Csrrwi | Csrrsi | Csrrci);
        let src = if is_imm { inst.imm as u64 } else { rs1v };
        let writes = match inst.opcode {
            Csrrw | Csrrwi => true,
            Csrrs | Csrrc => inst.rs1 != 0,
            _ => src != 0, // csrrsi/csrrci with zimm 0 do not write
        };
        let reads = !(matches!(inst.opcode, Csrrw | Csrrwi) && inst.rd == 0);
        let illegal = Exec::Trap(Trap {
            cause: cause::ILLEGAL_INSTRUCTION,
            tval: u64::from(info.word),
        });
        let old = if reads || writes {
            match self.csrs.read(csr, self.cycle, self.instret) {
                Ok(v) => v,
                Err(_) => {
                    if self.quirks.unimplemented_csr_nop {
                        // Known bug: unknown CSRs act as harmless zeros.
                        self.write_x(inst.rd, 0);
                        info.rd_write = Some((false, inst.rd, 0));
                        return Exec::Next;
                    }
                    return illegal;
                }
            }
        } else {
            0
        };
        if writes {
            let new = match inst.opcode {
                Csrrw | Csrrwi => src,
                Csrrs | Csrrsi => old | src,
                _ => old & !src,
            };
            match self.csrs.write(csr, new) {
                Ok(Some(CounterWrite::Cycle(v))) => self.cycle = v,
                Ok(Some(CounterWrite::Instret(v))) => self.instret = v,
                Ok(None) => {}
                Err(_) => {
                    if !self.quirks.readonly_csr_write_ignored {
                        return illegal;
                    }
                    // Known bug: the write is silently dropped.
                }
            }
        }
        self.write_x(inst.rd, old);
        info.rd_write = Some((false, inst.rd, old));
        Exec::Next
    }
}

fn div_signed(a: i64, b: i64) -> i64 {
    if b == 0 {
        -1
    } else if a == i64::MIN && b == -1 {
        i64::MIN
    } else {
        a / b
    }
}

fn rem_signed(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else if a == i64::MIN && b == -1 {
        0
    } else {
        a % b
    }
}

fn div_signed_32(a: i32, b: i32) -> i32 {
    if b == 0 {
        -1
    } else if a == i32::MIN && b == -1 {
        i32::MIN
    } else {
        a / b
    }
}

fn rem_signed_32(a: i32, b: i32) -> i32 {
    if b == 0 {
        a
    } else if a == i32::MIN && b == -1 {
        0
    } else {
        a % b
    }
}

/// Whether an opcode reads f-registers as single-precision values (and so
/// exercises the NaN-unboxing path).
fn single_precision_reads_fp(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        FaddS
            | FsubS
            | FmulS
            | FdivS
            | FsqrtS
            | FsgnjS
            | FsgnjnS
            | FsgnjxS
            | FminS
            | FmaxS
            | FcvtWS
            | FcvtWuS
            | FcvtLS
            | FcvtLuS
            | FeqS
            | FltS
            | FleS
            | FclassS
            | FcvtDS
            | FmaddS
            | FmsubS
            | FnmsubS
            | FnmaddS
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::emit_li64;
    use hfl_riscv::{Csr, Reg};

    fn run_body(body: &[Instruction]) -> Cpu {
        run_body_with(body, Quirks::default())
    }

    fn run_body_with(body: &[Instruction], quirks: Quirks) -> Cpu {
        let program = Program::assemble(body);
        let mut cpu = Cpu::with_quirks(quirks);
        cpu.load_program(&program);
        let result = cpu.run(100_000);
        assert_ne!(result.reason, HaltReason::StepBudget, "test must terminate");
        cpu
    }

    #[test]
    fn arithmetic_program_computes() {
        let cpu = run_body(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 7),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 5),
            Instruction::r(Opcode::Mul, Reg::X12, Reg::X10, Reg::X11),
            Instruction::r(Opcode::Sub, Reg::X13, Reg::X12, Reg::X10),
        ]);
        assert_eq!(cpu.x[12], 35);
        assert_eq!(cpu.x[13], 28);
        assert_eq!(cpu.x[0], 0, "x0 stays zero");
    }

    #[test]
    fn x0_writes_are_discarded() {
        let cpu = run_body(&[Instruction::i(Opcode::Addi, Reg::X0, Reg::X0, 99)]);
        assert_eq!(cpu.x[0], 0);
    }

    #[test]
    fn li64_materialises_constants() {
        for value in [
            0u64,
            42,
            (-84i64) as u64,
            0x1234_5678,
            0x8000_0000,
            0x8000_11FF,
            0xDEAD_BEEF_CAFE_F00D,
            u64::MAX,
            i64::MIN as u64,
        ] {
            let mut body = emit_li64(Reg::X10, value);
            assert!(body.len() <= 8, "li64 expansion too long for {value:#x}");
            body.push(Instruction::NOP);
            let cpu = run_body(&body);
            assert_eq!(cpu.x[10], value, "li64 failed for {value:#x}");
        }
    }

    #[test]
    fn loads_and_stores_round_trip() {
        // t0 (x5) is pre-pointed at DATA_BASE by the prologue.
        let cpu = run_body(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, -1),
            Instruction::s(Opcode::Sd, Reg::X10, 8, Reg::X5),
            Instruction::i(Opcode::Ld, Reg::X11, Reg::X5, 8),
            Instruction::i(Opcode::Lw, Reg::X12, Reg::X5, 8),
            Instruction::i(Opcode::Lwu, Reg::X13, Reg::X5, 8),
            Instruction::i(Opcode::Lbu, Reg::X14, Reg::X5, 8),
        ]);
        assert_eq!(cpu.x[11], u64::MAX);
        assert_eq!(cpu.x[12], u64::MAX, "lw sign-extends");
        assert_eq!(cpu.x[13], 0xFFFF_FFFF, "lwu zero-extends");
        assert_eq!(cpu.x[14], 0xFF);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let cpu = run_body(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
            // Taken branch skips the poison write.
            Instruction::b(Opcode::Bne, Reg::X10, Reg::X0, 8),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 111),
            // Not-taken branch falls through to the good write.
            Instruction::b(Opcode::Beq, Reg::X10, Reg::X0, 8),
            Instruction::i(Opcode::Addi, Reg::X12, Reg::X0, 222),
        ]);
        assert_eq!(cpu.x[11], 0, "taken branch skipped the write");
        assert_eq!(cpu.x[12], 222, "not-taken branch fell through");
    }

    #[test]
    fn jal_links_and_jumps() {
        let cpu = run_body(&[
            Instruction::j(Opcode::Jal, Reg::X1, 8),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 111), // skipped
            Instruction::i(Opcode::Addi, Reg::X12, Reg::X0, 222),
        ]);
        assert_eq!(cpu.x[11], 0);
        assert_eq!(cpu.x[12], 222);
        let program = Program::assemble(&[]);
        assert_eq!(cpu.x[1], program.body_pc() + 4, "link register");
    }

    #[test]
    fn ecall_traps_and_handler_resumes() {
        let cpu = run_body(&[
            Instruction::nullary(Opcode::Ecall),
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 5),
        ]);
        assert_eq!(cpu.x[10], 5, "execution resumed after trap");
        assert_eq!(cpu.csrs.mcause, cause::ECALL_M);
        let trapped: Vec<_> = cpu.trace.iter().filter(|e| e.trap.is_some()).collect();
        assert_eq!(trapped.len(), 1);
    }

    #[test]
    fn illegal_instruction_traps_with_word_in_mtval() {
        // `sret` is illegal on this machine-only model.
        let cpu = run_body(&[
            Instruction::nullary(Opcode::Sret),
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
        ]);
        assert_eq!(cpu.x[10], 1);
        assert_eq!(cpu.csrs.mcause, cause::ILLEGAL_INSTRUCTION);
        assert_eq!(
            cpu.csrs.mtval,
            u64::from(Instruction::nullary(Opcode::Sret).encode())
        );
    }

    #[test]
    fn misaligned_load_traps() {
        let cpu = run_body(&[
            Instruction::i(Opcode::Lw, Reg::X10, Reg::X5, 1),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 1),
        ]);
        assert_eq!(cpu.csrs.mcause, cause::MISALIGNED_LOAD);
        assert_eq!(cpu.x[11], 1);
    }

    #[test]
    fn access_fault_outside_ram() {
        let cpu = run_body(&[
            // x0-based load targets address 0: not RAM.
            Instruction::i(Opcode::Ld, Reg::X10, Reg::X0, 0),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 3),
        ]);
        assert_eq!(cpu.csrs.mcause, cause::LOAD_ACCESS);
        assert_eq!(cpu.x[11], 3);
    }

    #[test]
    fn misaligned_jump_traps_by_default() {
        let cpu = run_body(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X6, 0x102),
            Instruction::i(Opcode::Jalr, Reg::X1, Reg::X10, 0),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 7),
        ]);
        assert_eq!(cpu.csrs.mcause, cause::MISALIGNED_FETCH, "V3 baseline");
        assert_eq!(cpu.x[11], 7, "handler resumed past the jump");
    }

    #[test]
    fn quirk_v3_misaligned_jump_does_not_trap() {
        let quirks = Quirks {
            skip_misaligned_jump_check: true,
            ..Quirks::default()
        };
        // Jump to body_pc + 2 (misaligned): with the quirk the target is
        // truncated to body_pc, re-running the first instruction; use a
        // self-correcting body.
        let body = vec![
            // addi x10, x10, 1 — runs twice under the quirk
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X10, 1),
            // first pass jumps back misaligned; second pass skips via bne
            Instruction::b(Opcode::Bne, Reg::X10, Reg::X11, 8),
            Instruction::j(Opcode::Jal, Reg::X0, 8), // skip the jalr
            Instruction::i(Opcode::Jalr, Reg::X0, Reg::X12, 0),
        ];
        // Set x11 = 2 (loop limit) and x12 = body_pc + 2 via registers:
        // simpler: just check no trap occurs for a direct misaligned jalr.
        let _ = body;
        let cpu = run_body_with(
            &[
                Instruction::i(Opcode::Addi, Reg::X10, Reg::X6, 0xE02 - 0x1000),
                // x10 = CODE_BASE + 0xE02 - 0x1000 is misaligned but after
                // truncation lands outside code -> halt, no trap.
                Instruction::i(Opcode::Jalr, Reg::X1, Reg::X6, 0x7F6),
            ],
            quirks,
        );
        assert_ne!(cpu.csrs.mcause, cause::MISALIGNED_FETCH, "no trap under V3");
    }

    #[test]
    fn csr_read_write_cycle() {
        let cpu = run_body(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 0x5A),
            Instruction::csr_reg(Opcode::Csrrw, Reg::X11, Csr::MSCRATCH, Reg::X10),
            Instruction::csr_reg(Opcode::Csrrs, Reg::X12, Csr::MSCRATCH, Reg::X0),
            Instruction::csr_imm(Opcode::Csrrsi, Reg::X13, Csr::MSCRATCH, 0x5),
            Instruction::csr_reg(Opcode::Csrrc, Reg::X14, Csr::MSCRATCH, Reg::X10),
        ]);
        assert_eq!(cpu.x[11], 0, "initial mscratch");
        assert_eq!(cpu.x[12], 0x5A);
        assert_eq!(cpu.x[13], 0x5A);
        assert_eq!(cpu.x[14], 0x5F);
        assert_eq!(cpu.csrs.mscratch, 0x05);
    }

    #[test]
    fn unknown_csr_is_illegal_but_quirk_makes_it_a_nop() {
        let body = [
            Instruction::csr_reg(Opcode::Csrrw, Reg::X0, Csr::new(0x453), Reg::X1),
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 9),
        ];
        let cpu = run_body(&body);
        assert_eq!(cpu.csrs.mcause, cause::ILLEGAL_INSTRUCTION);
        let quirks = Quirks {
            unimplemented_csr_nop: true,
            ..Quirks::default()
        };
        let cpu = run_body_with(&body, quirks);
        assert_eq!(cpu.csrs.mcause, 0, "no trap under the quirk");
        assert_eq!(cpu.x[10], 9);
    }

    #[test]
    fn amo_read_modify_write() {
        let cpu = run_body(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 100),
            Instruction::s(Opcode::Sw, Reg::X10, 0, Reg::X5),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 7),
            Instruction::new(Opcode::AmoaddW, 12, 5, 11, 0, 0, Csr::FFLAGS),
            Instruction::i(Opcode::Lw, Reg::X13, Reg::X5, 0),
        ]);
        assert_eq!(cpu.x[12], 100, "amo returns the old value");
        assert_eq!(cpu.x[13], 107, "memory holds the sum");
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let cpu = run_body(&[
            Instruction::new(Opcode::LrW, 10, 5, 0, 0, 0, Csr::FFLAGS),
            Instruction::new(Opcode::ScW, 11, 5, 10, 0, 0, Csr::FFLAGS),
            // Second sc without a reservation must fail.
            Instruction::new(Opcode::ScW, 12, 5, 10, 0, 0, Csr::FFLAGS),
        ]);
        assert_eq!(cpu.x[11], 0, "sc after lr succeeds");
        assert_eq!(cpu.x[12], 1, "sc without reservation fails");
    }

    #[test]
    fn quirk_sc_ignores_reservation() {
        let quirks = Quirks {
            sc_ignores_reservation: true,
            ..Quirks::default()
        };
        let cpu = run_body_with(
            &[Instruction::new(Opcode::ScW, 12, 5, 10, 0, 0, Csr::FFLAGS)],
            quirks,
        );
        assert_eq!(cpu.x[12], 0, "buggy sc always succeeds");
    }

    #[test]
    fn fp_add_via_loads() {
        let cpu = run_body(&[
            // Build 1.5f32 and 2.25f32 via integer moves.
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 0x3FC),
            Instruction::i(Opcode::Slli, Reg::X10, Reg::X10, 20),
            Instruction::new(Opcode::FmvWX, 1, 10, 0, 0, 0, Csr::FFLAGS),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 0x401),
            Instruction::i(Opcode::Slli, Reg::X11, Reg::X11, 20),
            Instruction::new(Opcode::FmvWX, 2, 11, 0, 0, 0, Csr::FFLAGS),
            Instruction::new(Opcode::FaddS, 3, 1, 2, 0, 0, Csr::FFLAGS),
            Instruction::new(Opcode::FmvXW, 12, 3, 0, 0, 0, Csr::FFLAGS),
        ]);
        // 1.5 + 2.25 = 3.75 -> 0x40700000
        assert_eq!(cpu.x[12] as u32, 0x4070_0000);
    }

    #[test]
    fn quirk_v4_feq_nv_flag() {
        // fa0 holds a properly boxed sNaN, fa1 an improperly boxed value.
        let body = [
            // x10 = 0x7F800001 (sNaN bits)
            Instruction::u(Opcode::Lui, Reg::X10, 0x7F800),
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X10, 1),
            Instruction::new(Opcode::FmvWX, 10, 10, 0, 0, 0, Csr::FFLAGS), // boxed
            Instruction::new(Opcode::FmvDX, 11, 10, 0, 0, 0, Csr::FFLAGS), // raw: unboxed
            Instruction::new(Opcode::FeqS, 12, 10, 11, 0, 0, Csr::FFLAGS),
            Instruction::csr_reg(Opcode::Csrrs, Reg::X13, Csr::FFLAGS, Reg::X0),
        ];
        let cpu = run_body(&body);
        assert_eq!(cpu.x[13] & 0x10, 0x10, "GRM raises NV for the boxed sNaN");
        let quirks = Quirks {
            feq_nv_flag_missing_on_unboxed: true,
            ..Quirks::default()
        };
        let cpu = run_body_with(&body, quirks);
        assert_eq!(cpu.x[13] & 0x10, 0, "V4: flag missing on the DUT");
    }

    #[test]
    fn quirk_v1_store_to_fetch_line_crashes() {
        let quirks = Quirks {
            crash_on_store_to_fetch_line: Some(64),
            ..Quirks::default()
        };
        // Store through t1 (CODE_BASE) at an offset inside the running
        // code: compute the store's own pc line. The store instruction
        // sits a few words into the body; offset 0 targets CODE_BASE,
        // a different line. Use an offset near the body instead.
        let program = Program::assemble(&[Instruction::NOP]);
        let body_off = (program.body_pc() - 0x8000_0000) as i64;
        let body = [
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 0x13),
            Instruction::s(Opcode::Sw, Reg::X10, body_off, Reg::X6),
        ];
        let program = Program::assemble(&body);
        let mut cpu = Cpu::with_quirks(quirks.clone());
        cpu.load_program(&program);
        let result = cpu.run(10_000);
        assert_eq!(
            result.reason,
            HaltReason::Crash("store to executing cache line"),
            "V1 crash triggered"
        );
        // The golden model performs the same store without crashing.
        let mut cpu = Cpu::new();
        cpu.load_program(&program);
        let result = cpu.run(10_000);
        assert_eq!(result.reason, HaltReason::ReachedHaltPc);
    }

    #[test]
    fn quirk_v2_pmp_grace_window() {
        use hfl_riscv::vocab::mem_map;
        // Lock a NAPOT no-access region over PROTECTED_BASE..+0x1000, then
        // load from its first bytes.
        let napot = (mem_map::PROTECTED_BASE >> 2) | ((0x1000 >> 3) - 1);
        let mut body = emit_li64(Reg::X10, napot);
        body.push(Instruction::csr_reg(
            Opcode::Csrrw,
            Reg::X0,
            Csr::PMPADDR0,
            Reg::X10,
        ));
        body.extend(emit_li64(Reg::X11, 0x98)); // L | NAPOT, no perms
        body.push(Instruction::csr_reg(
            Opcode::Csrrw,
            Reg::X0,
            Csr::PMPCFG0,
            Reg::X11,
        ));
        body.push(Instruction::i(Opcode::Ld, Reg::X12, Reg::X7, 8)); // within 16B
        body.push(Instruction::csr_reg(
            Opcode::Csrrs,
            Reg::X13,
            Csr::MCAUSE,
            Reg::X0,
        ));
        let cpu = run_body(&body);
        assert_eq!(cpu.x[13], cause::LOAD_ACCESS, "GRM blocks the access");
        let quirks = Quirks {
            pmp_grace_window: true,
            ..Quirks::default()
        };
        let cpu = run_body_with(&body, quirks);
        assert_eq!(cpu.x[13], 0, "V2: access inside the grace window allowed");
        assert_ne!(cpu.x[12], 0, "the protected data leaked");
    }

    #[test]
    fn quirk_fdiv_dz_flag_missing() {
        let body = [
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
            Instruction::new(Opcode::FcvtSW, 1, 10, 0, 0, 0, Csr::FFLAGS),
            Instruction::new(Opcode::FmvWX, 2, 0, 0, 0, 0, Csr::FFLAGS), // +0.0
            Instruction::new(Opcode::FdivS, 3, 1, 2, 0, 0, Csr::FFLAGS),
            Instruction::csr_reg(Opcode::Csrrs, Reg::X13, Csr::FFLAGS, Reg::X0),
        ];
        let cpu = run_body(&body);
        assert_eq!(cpu.x[13] & 0x8, 0x8, "GRM raises DZ");
        let quirks = Quirks {
            fdiv_dz_flag_missing: true,
            ..Quirks::default()
        };
        let cpu = run_body_with(&body, quirks);
        assert_eq!(cpu.x[13] & 0x8, 0, "quirk drops DZ");
    }

    #[test]
    fn quirk_mulhsu_sign_bug() {
        let body = [
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, -1), // rs1 = -1
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, -1), // rs2 = u64::MAX
            Instruction::r(Opcode::Mulhsu, Reg::X12, Reg::X10, Reg::X11),
        ];
        let cpu = run_body(&body);
        // -1 * (2^64-1) as (signed x unsigned) high word = -1 high = ~0... spec:
        // mulhsu(-1, u64::MAX) = high 64 bits of -(2^64-1) = -1.
        assert_eq!(cpu.x[12], u64::MAX);
        let quirks = Quirks {
            mulhsu_sign_bug: true,
            ..Quirks::default()
        };
        let cpu = run_body_with(&body, quirks);
        // Buggy: treats rs2 as signed -1: (-1 * -1) >> 64 = 0.
        assert_eq!(cpu.x[12], 0);
    }

    #[test]
    fn quirk_addiw_no_sign_extend() {
        let body = [
            Instruction::u(Opcode::Lui, Reg::X10, 0x80000), // 0xFFFFFFFF80000000
            Instruction::i(Opcode::Addiw, Reg::X11, Reg::X10, 0),
        ];
        let cpu = run_body(&body);
        assert_eq!(cpu.x[11], 0xFFFF_FFFF_8000_0000);
        let quirks = Quirks {
            addiw_no_sign_extend: true,
            ..Quirks::default()
        };
        let cpu = run_body_with(&body, quirks);
        assert_eq!(cpu.x[11], 0x8000_0000, "missing sign extension");
    }

    #[test]
    fn quirk_ecall_reports_user_cause() {
        let quirks = Quirks {
            ecall_reports_user_cause: true,
            ..Quirks::default()
        };
        let cpu = run_body_with(&[Instruction::nullary(Opcode::Ecall)], quirks);
        assert_eq!(cpu.csrs.mcause, 8);
    }

    #[test]
    fn quirk_minstret_double_counts_div() {
        let body = [
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 10),
            Instruction::r(Opcode::Div, Reg::X11, Reg::X10, Reg::X10),
            Instruction::csr_reg(Opcode::Csrrs, Reg::X12, Csr::MINSTRET, Reg::X0),
        ];
        let base = run_body(&body).x[12];
        let quirks = Quirks {
            minstret_double_counts_div: true,
            ..Quirks::default()
        };
        let bugged = run_body_with(&body, quirks).x[12];
        assert_eq!(bugged, base + 1);
    }

    #[test]
    fn quirk_readonly_csr_write_ignored() {
        let body = [
            Instruction::csr_reg(Opcode::Csrrw, Reg::X10, Csr::MHARTID, Reg::X5),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 2),
        ];
        let cpu = run_body(&body);
        assert_eq!(cpu.csrs.mcause, cause::ILLEGAL_INSTRUCTION);
        let quirks = Quirks {
            readonly_csr_write_ignored: true,
            ..Quirks::default()
        };
        let cpu = run_body_with(&body, quirks);
        assert_eq!(cpu.csrs.mcause, 0);
        assert_eq!(cpu.x[10], 0, "read still returns the old value");
    }

    #[test]
    fn division_edge_cases() {
        let cpu = run_body(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 7),
            Instruction::r(Opcode::Div, Reg::X11, Reg::X10, Reg::X0), // 7 / 0
            Instruction::r(Opcode::Rem, Reg::X12, Reg::X10, Reg::X0), // 7 % 0
            Instruction::r(Opcode::Divu, Reg::X13, Reg::X10, Reg::X0),
        ]);
        assert_eq!(cpu.x[11], u64::MAX, "div by zero yields -1");
        assert_eq!(cpu.x[12], 7, "rem by zero yields dividend");
        assert_eq!(cpu.x[13], u64::MAX);
    }

    #[test]
    fn division_overflow() {
        let mut body = emit_li64(Reg::X10, i64::MIN as u64);
        body.push(Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, -1));
        body.push(Instruction::r(Opcode::Div, Reg::X12, Reg::X10, Reg::X11));
        body.push(Instruction::r(Opcode::Rem, Reg::X13, Reg::X10, Reg::X11));
        let cpu = run_body(&body);
        assert_eq!(cpu.x[12], i64::MIN as u64);
        assert_eq!(cpu.x[13], 0);
    }

    #[test]
    fn word_ops_sign_extend() {
        let cpu = run_body(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, -1),
            Instruction::i(Opcode::Srli, Reg::X10, Reg::X10, 32), // 0xFFFFFFFF
            Instruction::r(Opcode::Addw, Reg::X11, Reg::X10, Reg::X0),
            Instruction::i(Opcode::Slliw, Reg::X12, Reg::X10, 0),
        ]);
        assert_eq!(cpu.x[11], u64::MAX, "addw sign-extends 0xFFFFFFFF");
        assert_eq!(cpu.x[12], u64::MAX);
    }

    #[test]
    fn trace_records_writes_and_mem_ops() {
        let cpu = run_body(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
            Instruction::s(Opcode::Sd, Reg::X10, 0, Reg::X5),
        ]);
        let stores: Vec<_> = cpu
            .trace
            .iter()
            .filter(|e| e.mem.is_some_and(|m| m.is_store))
            .collect();
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].mem.unwrap().value, 1);
        assert!(cpu.trace.iter().any(|e| e.rd_write == Some((false, 10, 1))));
    }

    #[test]
    fn counters_advance() {
        let cpu = run_body(&[
            Instruction::NOP,
            Instruction::NOP,
            Instruction::csr_reg(Opcode::Csrrs, Reg::X10, Csr::MCYCLE, Reg::X0),
            Instruction::csr_reg(Opcode::Csrrs, Reg::X11, Csr::MINSTRET, Reg::X0),
        ]);
        assert!(cpu.x[10] > 0);
        assert!(cpu.x[11] > 0);
        assert!(cpu.instret >= cpu.x[11]);
    }

    #[test]
    fn every_real_opcode_executes_without_illegal_trap() {
        // With benign operands, nothing except `sret` (and CSR accesses to
        // whatever the default csr field names) may raise an illegal trap.
        for op in Opcode::ALL {
            if op.is_pseudo() || op == Opcode::Sret {
                continue;
            }
            let inst = Instruction::new(op, 10, 5, 5, 5, 0, Csr::MSCRATCH);
            let program = Program::assemble(&[inst]);
            let mut cpu = Cpu::new();
            cpu.load_program(&program);
            let _ = cpu.run(1_000);
            if cpu.csrs.mcause == cause::ILLEGAL_INSTRUCTION {
                panic!("{op} raised an illegal-instruction trap");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let body = [
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 123),
            Instruction::s(Opcode::Sd, Reg::X10, 16, Reg::X5),
            Instruction::i(Opcode::Ld, Reg::X11, Reg::X5, 24), // uninitialised
            Instruction::r(Opcode::Xor, Reg::X12, Reg::X10, Reg::X11),
        ];
        let a = run_body(&body);
        let b = run_body(&body);
        assert_eq!(a.x, b.x);
        assert_eq!(a.trace, b.trace);
    }
}

impl Cpu {
    /// Captures the final architectural state for differential comparison.
    #[must_use]
    pub fn arch_snapshot(&self) -> crate::trace::ArchSnapshot {
        crate::trace::ArchSnapshot {
            x: self.x,
            f: self.f,
            fcsr: self.csrs.fcsr,
            mcause: self.csrs.mcause,
            mtval: self.csrs.mtval,
            mepc: self.csrs.mepc,
            instret: self.instret,
        }
    }
}

#[cfg(test)]
mod bitmanip_tests {
    use super::*;
    use crate::program::emit_li64;
    use hfl_riscv::{Csr, Reg};

    fn run_body(body: &[Instruction]) -> Cpu {
        let program = Program::assemble(body);
        let mut cpu = Cpu::new();
        cpu.load_program(&program);
        let result = cpu.run(100_000);
        assert_ne!(result.reason, HaltReason::StepBudget);
        cpu
    }

    #[test]
    fn zba_shift_adds() {
        let mut body = emit_li64(Reg::X10, 5);
        body.extend(emit_li64(Reg::X11, 100));
        body.push(Instruction::r(Opcode::Sh1add, Reg::X12, Reg::X10, Reg::X11));
        body.push(Instruction::r(Opcode::Sh2add, Reg::X13, Reg::X10, Reg::X11));
        body.push(Instruction::r(Opcode::Sh3add, Reg::X14, Reg::X10, Reg::X11));
        let cpu = run_body(&body);
        assert_eq!(cpu.x[12], 110);
        assert_eq!(cpu.x[13], 120);
        assert_eq!(cpu.x[14], 140);
    }

    #[test]
    fn zba_uw_variants_zero_extend() {
        let mut body = emit_li64(Reg::X10, 0xFFFF_FFFF_0000_0002);
        body.extend(emit_li64(Reg::X11, 8));
        body.push(Instruction::r(Opcode::AddUw, Reg::X12, Reg::X10, Reg::X11));
        body.push(Instruction::r(
            Opcode::Sh1addUw,
            Reg::X13,
            Reg::X10,
            Reg::X11,
        ));
        body.push(Instruction::i(Opcode::SlliUw, Reg::X14, Reg::X10, 4));
        let cpu = run_body(&body);
        assert_eq!(cpu.x[12], 10, "add.uw zero-extends rs1");
        assert_eq!(cpu.x[13], 12);
        assert_eq!(cpu.x[14], 0x20, "slli.uw zero-extends before shifting");
    }

    #[test]
    fn zbb_logic_and_counts() {
        let mut body = emit_li64(Reg::X10, 0b1100);
        body.extend(emit_li64(Reg::X11, 0b1010));
        body.push(Instruction::r(Opcode::Andn, Reg::X12, Reg::X10, Reg::X11));
        body.push(Instruction::r(Opcode::Orn, Reg::X13, Reg::X10, Reg::X11));
        body.push(Instruction::r(Opcode::Xnor, Reg::X14, Reg::X10, Reg::X11));
        body.push(Instruction::new(Opcode::Clz, 15, 10, 0, 0, 0, Csr::FFLAGS));
        body.push(Instruction::new(Opcode::Ctz, 16, 10, 0, 0, 0, Csr::FFLAGS));
        body.push(Instruction::new(Opcode::Cpop, 17, 10, 0, 0, 0, Csr::FFLAGS));
        let cpu = run_body(&body);
        assert_eq!(cpu.x[12], 0b0100);
        assert_eq!(cpu.x[13], !0b1010 | 0b1100);
        assert_eq!(cpu.x[14], !(0b1100u64 ^ 0b1010));
        assert_eq!(cpu.x[15], 60);
        assert_eq!(cpu.x[16], 2);
        assert_eq!(cpu.x[17], 2);
    }

    #[test]
    fn zbb_minmax_and_extensions() {
        let mut body = emit_li64(Reg::X10, (-5i64) as u64);
        body.extend(emit_li64(Reg::X11, 3));
        body.push(Instruction::r(Opcode::Max, Reg::X12, Reg::X10, Reg::X11));
        body.push(Instruction::r(Opcode::Maxu, Reg::X13, Reg::X10, Reg::X11));
        body.push(Instruction::r(Opcode::Min, Reg::X14, Reg::X10, Reg::X11));
        body.push(Instruction::new(
            Opcode::SextB,
            15,
            10,
            0,
            0,
            0,
            Csr::FFLAGS,
        ));
        body.push(Instruction::new(
            Opcode::ZextH,
            16,
            10,
            0,
            0,
            0,
            Csr::FFLAGS,
        ));
        let cpu = run_body(&body);
        assert_eq!(cpu.x[12], 3, "signed max");
        assert_eq!(cpu.x[13], (-5i64) as u64, "unsigned max");
        assert_eq!(cpu.x[14], (-5i64) as u64, "signed min");
        assert_eq!(cpu.x[15], (-5i64) as u64, "sext.b of 0xFB");
        assert_eq!(cpu.x[16], 0xFFFB, "zext.h");
    }

    #[test]
    fn zbb_rotates_and_byte_ops() {
        let mut body = emit_li64(Reg::X10, 0x0123_4567_89AB_CDEF);
        body.extend(emit_li64(Reg::X11, 8));
        body.push(Instruction::r(Opcode::Rol, Reg::X12, Reg::X10, Reg::X11));
        body.push(Instruction::r(Opcode::Ror, Reg::X13, Reg::X10, Reg::X11));
        body.push(Instruction::i(Opcode::Rori, Reg::X14, Reg::X10, 4));
        body.push(Instruction::new(Opcode::Rev8, 15, 10, 0, 0, 0, Csr::FFLAGS));
        body.push(Instruction::new(Opcode::OrcB, 16, 10, 0, 0, 0, Csr::FFLAGS));
        body.push(Instruction::r(Opcode::Rolw, Reg::X17, Reg::X10, Reg::X11));
        let cpu = run_body(&body);
        assert_eq!(cpu.x[12], 0x2345_6789_ABCD_EF01);
        assert_eq!(cpu.x[13], 0xEF01_2345_6789_ABCD);
        assert_eq!(cpu.x[14], 0xF012_3456_789A_BCDE);
        assert_eq!(cpu.x[15], 0xEFCD_AB89_6745_2301);
        assert_eq!(cpu.x[16], u64::MAX, "every byte nonzero");
        // rolw rotates the low word: 0x89ABCDEF rol 8 = 0xABCDEF89,
        // sign-extended.
        assert_eq!(cpu.x[17], 0xFFFF_FFFF_ABCD_EF89);
    }

    #[test]
    fn zbb_word_counts_sign_extension_free() {
        let mut body = emit_li64(Reg::X10, 0xFFFF_FFFF_0000_0F00);
        body.push(Instruction::new(Opcode::Clzw, 11, 10, 0, 0, 0, Csr::FFLAGS));
        body.push(Instruction::new(Opcode::Ctzw, 12, 10, 0, 0, 0, Csr::FFLAGS));
        body.push(Instruction::new(
            Opcode::Cpopw,
            13,
            10,
            0,
            0,
            0,
            Csr::FFLAGS,
        ));
        let cpu = run_body(&body);
        assert_eq!(cpu.x[11], 20);
        assert_eq!(cpu.x[12], 8);
        assert_eq!(cpu.x[13], 4);
    }

    /// Runs `body` through both dispatch paths under `quirks` and asserts
    /// bit-identical results: halt reason, step count, registers, pc,
    /// counters, CSRs and the full trace.
    fn assert_predecoded_matches(body: &[Instruction], quirks: Quirks, max_steps: u64) {
        let program = Program::assemble(body);
        let image = PredecodedProgram::new(&program);

        let mut legacy = Cpu::with_quirks(quirks.clone());
        legacy.load_program(&program);
        let legacy_result = legacy.run(max_steps);

        let mut fast = Cpu::with_quirks(quirks);
        fast.load_program(&program);
        let fast_result = fast.run_predecoded(&image, max_steps);

        assert_eq!(legacy_result, fast_result, "run result diverged");
        assert_eq!(legacy.x, fast.x, "integer registers diverged");
        assert_eq!(legacy.f, fast.f, "fp registers diverged");
        assert_eq!(legacy.pc, fast.pc, "pc diverged");
        assert_eq!(legacy.cycle, fast.cycle, "cycle diverged");
        assert_eq!(legacy.instret, fast.instret, "instret diverged");
        assert_eq!(legacy.csrs, fast.csrs, "CSR state diverged");
        assert_eq!(legacy.trace.entries, fast.trace.entries, "trace diverged");
    }

    #[test]
    fn predecoded_run_matches_legacy_on_straight_line_code() {
        let mut body = emit_li64(Reg::X10, 0xDEAD_BEEF_CAFE_F00D);
        body.push(Instruction::r(Opcode::Mul, Reg::X11, Reg::X10, Reg::X10));
        body.push(Instruction::r(Opcode::Div, Reg::X12, Reg::X11, Reg::X10));
        body.push(Instruction::i(Opcode::Addiw, Reg::X13, Reg::X12, -9));
        assert_predecoded_matches(&body, Quirks::default(), 100_000);
    }

    #[test]
    fn predecoded_run_matches_legacy_on_branches_and_traps() {
        let body = [
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 3),
            Instruction::b(Opcode::Bne, Reg::X10, Reg::X0, 8),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 111),
            Instruction::nullary(Opcode::Ecall),
            Instruction::nullary(Opcode::Sret), // illegal → trap
            Instruction::i(Opcode::Lw, Reg::X12, Reg::X5, 1), // misaligned
            Instruction::s(Opcode::Sd, Reg::X10, 16, Reg::X5),
            Instruction::i(Opcode::Ld, Reg::X13, Reg::X5, 16),
        ];
        assert_predecoded_matches(&body, Quirks::default(), 100_000);
    }

    #[test]
    fn predecoded_run_matches_legacy_under_quirks() {
        let quirks = Quirks {
            minstret_double_counts_div: true,
            addiw_no_sign_extend: true,
            mulhsu_sign_bug: true,
            ecall_reports_user_cause: true,
            ..Quirks::default()
        };
        let mut body = emit_li64(Reg::X10, (-7i64) as u64);
        body.push(Instruction::r(Opcode::Div, Reg::X11, Reg::X10, Reg::X10));
        body.push(Instruction::r(Opcode::Mulhsu, Reg::X12, Reg::X10, Reg::X10));
        body.push(Instruction::i(Opcode::Addiw, Reg::X13, Reg::X10, -1));
        body.push(Instruction::nullary(Opcode::Ecall));
        assert_predecoded_matches(&body, quirks, 100_000);
    }

    #[test]
    fn predecoded_run_matches_legacy_on_infinite_loop_budget() {
        // A tight self-loop exhausts the budget identically in both paths.
        let body = [Instruction::j(Opcode::Jal, Reg::X0, 0)];
        assert_predecoded_matches(&body, Quirks::default(), 500);
        // And a straight-line body longer than the budget stops mid-block.
        let long: Vec<Instruction> = (0..64)
            .map(|i| Instruction::i(Opcode::Addi, Reg::X10, Reg::X10, i))
            .collect();
        assert_predecoded_matches(&long, Quirks::default(), 20);
    }

    #[test]
    fn predecoded_run_refetches_self_modified_code() {
        // Overwrite a later code word (originally `addi x10, x0, 99`) with
        // `addi x10, x0, 7` at runtime; both paths must execute the new
        // word. 0x0070_0513 == addi x10, x0, 7.
        let patch = Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 7).encode();
        assert_eq!(patch, 0x0070_0513);
        let body = [
            Instruction::u(Opcode::Auipc, Reg::X6, 0), // x6 = this pc
            Instruction::u(Opcode::Lui, Reg::X7, 0x700),
            Instruction::i(Opcode::Addi, Reg::X7, Reg::X7, 0x513),
            Instruction::s(Opcode::Sw, Reg::X7, 16, Reg::X6), // patch slot 4
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 99), // patched
        ];
        assert_predecoded_matches(&body, Quirks::default(), 100_000);
        // And confirm the patch actually took effect.
        let program = Program::assemble(&body);
        let image = PredecodedProgram::new(&program);
        let mut cpu = Cpu::new();
        cpu.load_program(&program);
        cpu.run_predecoded(&image, 100_000);
        assert_eq!(cpu.x[10], 7, "self-modified word must be refetched");
    }

    #[test]
    fn predecoded_run_matches_legacy_with_armed_pmp() {
        // Arm a locked NAPOT entry over a data region, then touch it: the
        // PMP fetch/load checks must behave identically (and the armed PMP
        // must disable the block fast path without changing results).
        let mut body = emit_li64(Reg::X10, (0x8000_4000u64 >> 2) | ((0x1000 >> 3) - 1));
        body.push(Instruction::csr_reg(
            Opcode::Csrrw,
            Reg::X0,
            Csr::PMPADDR0,
            Reg::X10,
        ));
        body.extend(emit_li64(Reg::X11, 0x98)); // L | NAPOT, no perms
        body.push(Instruction::csr_reg(
            Opcode::Csrrw,
            Reg::X0,
            Csr::PMPCFG0,
            Reg::X11,
        ));
        body.extend(emit_li64(Reg::X12, 0x8000_4008));
        body.push(Instruction::i(Opcode::Ld, Reg::X13, Reg::X12, 0)); // denied
        body.push(Instruction::i(Opcode::Addi, Reg::X14, Reg::X0, 1));
        assert_predecoded_matches(&body, Quirks::default(), 100_000);
    }

    #[test]
    fn predecoded_run_matches_legacy_on_illegal_and_raw_words() {
        // Raw garbage words trap as illegal instructions identically.
        let program = Program::assemble_raw(&[0xFFFF_FFFF, 0x0000_0000, 0x0070_0513]);
        let image = PredecodedProgram::new(&program);
        let mut legacy = Cpu::new();
        legacy.load_program(&program);
        let legacy_result = legacy.run(1_000);
        let mut fast = Cpu::new();
        fast.load_program(&program);
        let fast_result = fast.run_predecoded(&image, 1_000);
        assert_eq!(legacy_result, fast_result);
        assert_eq!(legacy.x, fast.x);
        assert_eq!(legacy.trace.entries, fast.trace.entries);
        assert_eq!(legacy.csrs, fast.csrs);
    }

    #[test]
    fn predecoded_run_matches_legacy_on_v1_crash() {
        // V1: a store into the executing cache line crashes the core. The
        // crash happens before the write, so no dirty marking occurs.
        let quirks = Quirks {
            crash_on_store_to_fetch_line: Some(64),
            ..Quirks::default()
        };
        let body = [
            Instruction::u(Opcode::Auipc, Reg::X6, 0),
            Instruction::s(Opcode::Sw, Reg::X0, 8, Reg::X6),
        ];
        assert_predecoded_matches(&body, quirks, 100_000);
    }

    #[test]
    fn take_interrupt_mirrors_trap_entry() {
        let mut cpu = Cpu::new();
        cpu.load_program(&Program::assemble(&[Instruction::NOP]));
        cpu.csrs.mstatus = 1 << 3; // MIE set
        cpu.csrs.mie = 1 << 7; // MTIE set
        assert!(cpu.timer_interrupt_enabled());
        let pc_before = cpu.pc;
        cpu.take_interrupt(crate::cause::MACHINE_TIMER_INTERRUPT);
        assert_eq!(cpu.csrs.mepc, pc_before);
        assert_eq!(cpu.csrs.mcause, crate::cause::MACHINE_TIMER_INTERRUPT);
        assert_eq!(cpu.pc, cpu.csrs.mtvec);
        // MPIE <- 1, MIE <- 0, MPP <- M.
        assert_eq!((cpu.csrs.mstatus >> 7) & 1, 1);
        assert_eq!((cpu.csrs.mstatus >> 3) & 1, 0);
        assert_eq!((cpu.csrs.mstatus >> 11) & 0b11, 0b11);
        assert!(!cpu.timer_interrupt_enabled(), "MIE cleared on entry");
    }

    #[test]
    fn take_interrupt_mepc_quirk_saves_pc_plus_four() {
        let mut cpu = Cpu::with_quirks(Quirks {
            interrupt_mepc_off_by_four: true,
            ..Quirks::default()
        });
        cpu.load_program(&Program::assemble(&[Instruction::NOP]));
        let pc_before = cpu.pc;
        cpu.take_interrupt(crate::cause::MACHINE_TIMER_INTERRUPT);
        assert_eq!(cpu.csrs.mepc, pc_before.wrapping_add(4));
    }

    #[test]
    fn remote_store_clears_matching_reservation() {
        let addr = mem_map::DATA_BASE + 0x40;
        let body = vec![
            Instruction::i(Opcode::Addi, Reg::X5, Reg::X5, 0x40),
            Instruction::r(Opcode::LrD, Reg::X10, Reg::X5, Reg::X0),
        ];
        let mut cpu = Cpu::new();
        cpu.load_program(&Program::assemble(&body));
        cpu.run(100);
        assert_eq!(cpu.reservation(), Some(addr));

        // A remote store elsewhere leaves the reservation alone.
        cpu.apply_remote_store(addr + 8, 8, 0xAA);
        assert_eq!(cpu.reservation(), Some(addr));
        // A remote store to the reserved address clears it.
        cpu.apply_remote_store(addr, 8, 0xBB);
        assert_eq!(cpu.reservation(), None);
        assert_eq!(cpu.mem.read_u64(addr), Ok(0xBB));
    }

    #[test]
    fn remote_store_reservation_survives_under_c1_quirk() {
        let addr = mem_map::DATA_BASE + 0x40;
        let body = vec![
            Instruction::i(Opcode::Addi, Reg::X5, Reg::X5, 0x40),
            Instruction::r(Opcode::LrD, Reg::X10, Reg::X5, Reg::X0),
        ];
        let mut cpu = Cpu::with_quirks(Quirks {
            lr_reservation_survives_remote_store: true,
            ..Quirks::default()
        });
        cpu.load_program(&Program::assemble(&body));
        cpu.run(100);
        assert_eq!(cpu.reservation(), Some(addr));
        cpu.apply_remote_store(addr, 8, 0xBB);
        assert_eq!(cpu.reservation(), Some(addr), "C1: stale reservation kept");
        assert_eq!(cpu.mem.read_u64(addr), Ok(0xBB), "data still propagates");
    }

    #[test]
    fn remote_store_to_unmapped_memory_is_dropped() {
        let mut cpu = Cpu::new();
        cpu.load_program(&Program::assemble(&[Instruction::NOP]));
        cpu.apply_remote_store(0x10, 8, 0xDEAD); // below RAM: no-op
        assert!(cpu.mem.read_u64(0x10).is_err());
    }

    #[test]
    fn remote_store_into_code_window_marks_dirty() {
        let mut cpu = Cpu::new();
        cpu.load_program(&Program::assemble(&[Instruction::NOP, Instruction::NOP]));
        let target = cpu.pc + 4;
        // Overwrite the second instruction with an addi via the bus; a
        // predecoded run must notice the dirty word and re-fetch it.
        let program = Program::assemble(&[Instruction::NOP, Instruction::NOP]);
        let image = PredecodedProgram::new(&program);
        let patch = Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 77).encode();
        cpu.apply_remote_store(target, 4, u64::from(patch));
        cpu.run_predecoded(&image, 100);
        assert_eq!(cpu.x[10], 77, "remote code write visible to fetch");
    }
}
