//! Device-under-test (DUT) models for the HFL reproduction.
//!
//! The paper fuzzes RTL simulations of three RISC-V cores — RocketChip,
//! BOOM and CVA6 — collecting condition/line/FSM coverage and comparing
//! execution against a golden reference model. This crate is the stand-in
//! for those RTL simulations:
//!
//! - [`Dut`] wraps the architectural executor from `hfl-grm` with a
//!   micro-architectural overlay (caches with write-back FSMs, branch
//!   prediction, hazard scoreboard, multi-cycle units),
//! - [`coverage`] provides the line/condition/FSM coverage database an RTL
//!   coverage tool would,
//! - [`bugs`] injects the paper's four novel CVA6 vulnerabilities and the
//!   previously-known defects on all three cores,
//! - [`mhart`] lifts the DUT to a two-hart system configuration driven by
//!   a seeded event table, with a shared-memory bus and a timer device,
//!   for concurrency-defect fuzzing.
//!
//! # Examples
//!
//! ```
//! use hfl_dut::{CoreKind, Dut};
//! use hfl_grm::Program;
//! use hfl_riscv::{Instruction, Opcode, Reg};
//!
//! let mut dut = Dut::new(CoreKind::Cva6);
//! let program = Program::assemble(&[
//!     Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 7),
//! ]);
//! let result = dut.run_program(&program, 10_000);
//! assert_eq!(result.arch.x[10], 7);
//! println!("hit {} coverage points", result.coverage.count());
//! ```

pub mod bugs;
pub mod cache;
pub mod core;
pub mod coverage;
pub mod mhart;
pub mod pipeline;

pub use crate::core::{CoreConfig, Dut, DutResult};
pub use bugs::{bugs_for, quirks_for, InjectedBug, CATALOG};
pub use coverage::{CoverageKind, CoverageMap, CoverageSnapshot, PointId};
pub use mhart::{CommitEvent, HartResult, MhartMachine, MhartResult};

/// The three RISC-V cores the paper evaluates (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// RocketChip: in-order five-stage core.
    Rocket,
    /// SonicBOOM: superscalar out-of-order core.
    Boom,
    /// CVA6 (Ariane): in-order application-class core.
    Cva6,
}

impl CoreKind {
    /// All evaluated cores, in the paper's order.
    pub const ALL: [CoreKind; 3] = [CoreKind::Rocket, CoreKind::Boom, CoreKind::Cva6];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CoreKind::Rocket => "RocketChip",
            CoreKind::Boom => "Boom",
            CoreKind::Cva6 => "CVA6",
        }
    }
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
