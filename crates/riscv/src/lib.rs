//! RISC-V ISA substrate for the HFL hardware-fuzzing reproduction.
//!
//! This crate provides everything the fuzzer, the golden reference model and
//! the device-under-test simulator need to speak RISC-V:
//!
//! - [`Reg`]/[`FReg`]: integer and floating-point architectural registers,
//! - [`Csr`]: control-and-status register addresses,
//! - [`Opcode`]: a ~240-entry opcode vocabulary covering RV64IMAFD, the A
//!   extension, Zicsr, privileged instructions and common pseudo-instructions
//!   (the paper's generator head predicts over this vocabulary),
//! - [`Instruction`]: a decoded/constructed instruction with operands,
//! - binary [`Instruction::encode`]/[`decode()`] round-tripping,
//! - assembly-text formatting ([`core::fmt::Display`] on [`Instruction`]),
//! - immediate legalisation and the generator-facing vocabularies used by the
//!   multi-head LSTM ([`vocab`]).
//!
//! # Examples
//!
//! ```
//! use hfl_riscv::{Instruction, Opcode, Reg};
//!
//! let add = Instruction::r(Opcode::Add, Reg::X1, Reg::X2, Reg::X3);
//! let word = add.encode();
//! let back = hfl_riscv::decode(word).expect("valid word");
//! assert_eq!(add, back);
//! assert_eq!(add.to_string(), "add ra, sp, gp");
//! ```

pub mod asm;
pub mod csr;
pub mod decode;
pub mod format;
pub mod imm;
pub mod instruction;
pub mod opcode;
pub mod predecode;
pub mod reg;
pub mod vocab;

pub use csr::Csr;
pub use decode::{decode, DecodeError};
pub use format::{AddrKind, Format, ImmKind, OperandMask, OperandSpec, RegClass};
pub use imm::legalize_imm;
pub use instruction::Instruction;
pub use opcode::{Extension, Opcode};
pub use predecode::PredecodedOp;
pub use reg::{FReg, Reg};
