//! Golden reference model (GRM) for the HFL reproduction.
//!
//! This crate is the stand-in for Spike (`riscv-isa-sim`) in the paper's
//! differential-testing setup: a from-scratch functional RV64 simulator
//! covering the integer base ISA, M, A, the F/D subset the opcode vocabulary
//! exposes (with correct NaN boxing and exception flags), Zicsr,
//! machine-mode traps and physical memory protection.
//!
//! The model is purely architectural — no pipelines, no caches — which is
//! exactly what makes it a *golden* reference: the device under test
//! (`hfl-dut`) implements the same ISA through a micro-architecture with
//! injected defects, and mismatching traces signal bugs.
//!
//! # Examples
//!
//! A program is assembled, lowered once into a predecoded image of the
//! executable window, and run over that image:
//!
//! ```
//! use hfl_grm::{Cpu, HaltReason, PredecodedProgram, Program};
//! use hfl_riscv::{Instruction, Opcode, Reg};
//!
//! let body = vec![
//!     Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 40),
//!     Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 2),
//!     Instruction::r(Opcode::Add, Reg::X10, Reg::X10, Reg::X11),
//! ];
//! let program = Program::assemble(&body);
//! let image = PredecodedProgram::new(&program);
//! let mut cpu = Cpu::new();
//! cpu.load_program(&program);
//! let result = cpu.run_predecoded(&image, 10_000);
//! assert_eq!(result.reason, HaltReason::ReachedHaltPc);
//! assert_eq!(cpu.x[10], 42);
//! ```

pub mod cpu;
pub mod csrfile;
pub mod fpu;
pub mod mem;
pub mod pmp;
pub mod predecode;
pub mod program;
pub mod trace;

pub use cpu::{Cpu, HaltReason, RunResult};
pub use csrfile::CsrFile;
pub use mem::Memory;
pub use pmp::Pmp;
pub use predecode::PredecodedProgram;
pub use program::Program;
pub use trace::{ArchSnapshot, MemOp, Trace, TraceEntry, Trap};

/// Exception causes (`mcause` values) raised by the model.
pub mod cause {
    /// Instruction address misaligned.
    pub const MISALIGNED_FETCH: u64 = 0;
    /// Instruction access fault.
    pub const FETCH_ACCESS: u64 = 1;
    /// Illegal instruction.
    pub const ILLEGAL_INSTRUCTION: u64 = 2;
    /// Breakpoint (`ebreak`).
    pub const BREAKPOINT: u64 = 3;
    /// Load address misaligned.
    pub const MISALIGNED_LOAD: u64 = 4;
    /// Load access fault.
    pub const LOAD_ACCESS: u64 = 5;
    /// Store/AMO address misaligned.
    pub const MISALIGNED_STORE: u64 = 6;
    /// Store/AMO access fault.
    pub const STORE_ACCESS: u64 = 7;
    /// Environment call from M-mode.
    pub const ECALL_M: u64 = 11;
    /// Machine timer interrupt (interrupt bit set in `mcause`).
    pub const MACHINE_TIMER_INTERRUPT: u64 = (1 << 63) | 7;
}
