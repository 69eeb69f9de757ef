//! Program-level predecoding: the whole executable window lowered once.
//!
//! The executable window ([`mem_map::CODE_BASE`]`..`[`mem_map::DATA_BASE`],
//! 4 KiB = 1024 words) holds everything the pc can legally reach: the
//! assembled program at its base, the trap handler at
//! [`mem_map::HANDLER_BASE`], and — between and after them — the memory's
//! deterministic background pattern. [`PredecodedProgram`] materialises
//! that exact window as a dense table of predecoded ops, so
//! [`crate::Cpu::step_predecoded`] replaces the per-step page-table fetch
//! and table-driven decode with one array index.
//!
//! Only the program and handler words differ between images: the
//! background between and after them is lowered once per process and
//! copied into every image.
//!
//! The table is immutable and independent of CPU state, so one image is
//! shared (behind an `Arc`, clone-cheap) across the GRM, the DUT and
//! every re-execution of the same case in minimisation/triage/difftest.
//! Stores that overwrite window bytes at runtime (self-modifying code)
//! are handled by the CPU's dirty-word overlay, not here: a dirtied word
//! permanently falls back to the fetch+decode path, which is always
//! architecturally correct.

use std::sync::OnceLock;

use hfl_riscv::predecode::{straight_runs, PredecodedOp};
use hfl_riscv::vocab::mem_map;

use crate::mem::{background, PAGE_SIZE};
use crate::program::Program;

/// Words in the executable window.
pub const WINDOW_WORDS: usize = ((mem_map::DATA_BASE - mem_map::CODE_BASE) / 4) as usize;

// The executable window is exactly RAM page 0.
const _: () = assert!(
    mem_map::CODE_BASE == mem_map::RAM_BASE && WINDOW_WORDS as u64 * 4 == PAGE_SIZE,
    "the executable window must be RAM page 0"
);

/// The executable window's background pattern, predecoded once per
/// process from page 0 of the memory's background image.
fn background_ops() -> &'static [PredecodedOp] {
    static OPS: OnceLock<Box<[PredecodedOp]>> = OnceLock::new();
    OPS.get_or_init(|| {
        background()[0]
            .chunks_exact(4)
            .map(|b| PredecodedOp::new(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect()
    })
}

/// A program lowered into a dense predecoded image of the executable
/// window, plus per-index straight-line run lengths for the
/// superinstruction fast path.
///
/// # Examples
///
/// ```
/// use hfl_grm::predecode::PredecodedProgram;
/// use hfl_grm::{Cpu, Program};
/// use hfl_riscv::{Instruction, Opcode, Reg};
///
/// let program = Program::assemble(&[Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 7)]);
/// let image = PredecodedProgram::new(&program);
/// let mut cpu = Cpu::new();
/// cpu.load_program(&program);
/// let result = cpu.run_predecoded(&image, 10_000);
/// assert_eq!(cpu.x[10], 7);
/// assert_eq!(result.reason, hfl_grm::HaltReason::ReachedHaltPc);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PredecodedProgram {
    ops: Box<[PredecodedOp]>,
    straight: Box<[u16]>,
    halt_pc: u64,
}

impl PredecodedProgram {
    /// Lowers `program` exactly as [`crate::Cpu::load_program`] lays it
    /// out in memory: code words at the window base, handler words at
    /// their offset, the background pattern everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if the program overflows its region (the assembler already
    /// rejects such programs).
    #[must_use]
    pub fn new(program: &Program) -> PredecodedProgram {
        let mut ops = background_ops().to_vec();
        for (i, &word) in program.words.iter().enumerate() {
            ops[i] = PredecodedOp::new(word);
        }
        let handler_base = ((mem_map::HANDLER_BASE - mem_map::CODE_BASE) / 4) as usize;
        for (i, &word) in program.handler_words.iter().enumerate() {
            ops[handler_base + i] = PredecodedOp::new(word);
        }
        let halt_index = ((program.halt_pc - mem_map::CODE_BASE) / 4) as usize;
        let straight = straight_runs(&ops, halt_index.min(WINDOW_WORDS));
        PredecodedProgram {
            ops: ops.into_boxed_slice(),
            straight: straight.into_boxed_slice(),
            halt_pc: program.halt_pc,
        }
    }

    /// The halt pc the image was lowered for (must match the loaded
    /// program's).
    #[must_use]
    pub fn halt_pc(&self) -> u64 {
        self.halt_pc
    }

    /// The predecoded op at window word `index`.
    ///
    /// # Panics
    /// Panics if `index >= WINDOW_WORDS`.
    #[must_use]
    pub fn op(&self, index: usize) -> &PredecodedOp {
        &self.ops[index]
    }

    /// Length of the straight-line (superinstruction) run starting at
    /// window word `index`: that many consecutive ops retire with plain
    /// fall-throughs and cannot trap, branch, touch memory/CSRs, or
    /// reach the halt pc mid-run.
    ///
    /// # Panics
    /// Panics if `index >= WINDOW_WORDS`.
    #[must_use]
    pub fn straight_len(&self, index: usize) -> u16 {
        self.straight[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Memory;
    use hfl_riscv::predecode::predecode;
    use hfl_riscv::{Instruction, Opcode, Reg};
    use proptest::prelude::*;

    /// Expands a seed into `len` body words: encoded fusible and
    /// non-fusible instructions mixed with raw garbage, so the image holds
    /// straight runs, run breakers and illegal slots.
    fn word_soup(seed: u64, len: usize) -> Vec<u32> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E);
                let draw = (state >> 32) as u32;
                match state % 5 {
                    0 => Instruction::i(Opcode::Addi, Reg::X10, Reg::X10, 1).encode(),
                    1 => Instruction::r(Opcode::Mul, Reg::X11, Reg::X10, Reg::X12).encode(),
                    2 => Instruction::b(Opcode::Beq, Reg::X0, Reg::X0, 8).encode(),
                    _ => draw,
                }
            })
            .collect()
    }

    proptest! {
        /// The image equals the direct lowering of loaded memory: every
        /// window word read back from a CPU that loaded the program,
        /// predecoded, with straight runs stopped at the halt index.
        #[test]
        fn image_mirrors_loaded_memory_across_the_whole_window(
            seed in any::<u64>(),
            len in 0usize..=Program::max_body_len(),
            edge in 0u8..8,
        ) {
            // Pin both ends of the body-length range in every run.
            let len = match edge {
                0 => 0,
                1 => Program::max_body_len(),
                _ => len,
            };
            let program = Program::assemble_raw(&word_soup(seed, len));
            if len == Program::max_body_len() {
                prop_assert_eq!(program.halt_pc, mem_map::HANDLER_BASE);
            }
            let image = PredecodedProgram::new(&program);
            let mut cpu = crate::Cpu::new();
            cpu.load_program(&program);
            let words: Vec<u32> = (0..WINDOW_WORDS)
                .map(|i| {
                    let addr = mem_map::CODE_BASE + (i as u64) * 4;
                    cpu.mem.read_u32(addr).expect("window is in RAM")
                })
                .collect();
            let ops = predecode(&words);
            let halt_index = ((program.halt_pc - mem_map::CODE_BASE) / 4) as usize;
            let straight = straight_runs(&ops, halt_index);
            prop_assert_eq!(image.halt_pc(), program.halt_pc);
            for i in 0..WINDOW_WORDS {
                prop_assert_eq!(image.op(i), &ops[i], "op at word {}", i);
                prop_assert_eq!(image.straight_len(i), straight[i], "run at word {}", i);
            }
        }
    }

    #[test]
    fn background_gap_is_lowered_too() {
        let program = Program::assemble(&[]);
        let image = PredecodedProgram::new(&program);
        // The word just past the code region but before the handler is
        // pure background pattern; a fresh memory agrees with the image.
        let gap = program.words.len() + 1;
        let addr = mem_map::CODE_BASE + (gap as u64) * 4;
        let mem = Memory::new();
        assert_eq!(image.op(gap).word, mem.read_u32(addr).unwrap());
    }

    #[test]
    fn straight_runs_never_cross_the_halt_pc() {
        let program = Program::assemble(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 2),
        ]);
        let image = PredecodedProgram::new(&program);
        let halt_index = ((program.halt_pc - mem_map::CODE_BASE) / 4) as usize;
        for i in 0..WINDOW_WORDS {
            let run = image.straight_len(i) as usize;
            assert!(
                i + run <= halt_index || run == 0,
                "run at {i} ({run}) crosses halt index {halt_index}"
            );
        }
        // The two body instructions fuse, and the run ends at the halt.
        assert_eq!(image.straight_len(halt_index - 2), 2);
        assert_eq!(image.straight_len(halt_index - 1), 1);
    }
}
