//! Predecoding: lowering instruction words into a dense vec of decoded
//! ops, paid once per program instead of once per executed step.
//!
//! The per-step interpreter loop decodes the word at the pc on every
//! step, so a short test case re-executed across screening, minimisation,
//! triage and difftest pays the table-driven [`decode`] many times over —
//! and a loop body pays it once per iteration. Predecoding flattens a
//! word slice into [`PredecodedOp`]s (word + decoded instruction) that an
//! executor indexes by `(pc - base) / 4`, reducing fetch+decode to one
//! array load.
//!
//! Predecoding is *total*: words that decode to no vocabulary opcode
//! become entries with `inst == None`, which the executor turns into the
//! same illegal-instruction trap the per-step path raises. Nothing about
//! a program's behaviour changes — only where the decode work happens.
//!
//! [`straight_runs`] additionally computes, for every index, the length
//! of the superinstruction (basic-block) run starting there: consecutive
//! [`is_straight_line`] ops that provably retire with a fall-through.
//! Executors use it to retire whole straight-line blocks without
//! re-checking halt/fetch conditions between ops.

use crate::decode::decode;
use crate::instruction::Instruction;
use crate::opcode::Opcode;

/// One predecoded instruction slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredecodedOp {
    /// The raw instruction word (kept for traps and trace entries).
    pub word: u32,
    /// The decoded instruction, or `None` when the word decodes to no
    /// vocabulary opcode (executes as an illegal-instruction trap).
    pub inst: Option<Instruction>,
}

impl PredecodedOp {
    /// Predecodes a single word (total: never panics).
    #[must_use]
    pub fn new(word: u32) -> PredecodedOp {
        PredecodedOp {
            word,
            inst: decode(word).ok(),
        }
    }
}

/// Lowers a word slice into predecoded ops. Total on any input: illegal
/// words become `inst == None` entries.
///
/// # Examples
///
/// ```
/// use hfl_riscv::predecode::predecode;
///
/// let ops = predecode(&[0x0031_0093, 0xFFFF_FFFF]);
/// assert!(ops[0].inst.is_some(), "addi decodes");
/// assert!(ops[1].inst.is_none(), "garbage stays a trap");
/// ```
#[must_use]
pub fn predecode(words: &[u32]) -> Vec<PredecodedOp> {
    words.iter().map(|&w| PredecodedOp::new(w)).collect()
}

/// Whether `op` is a straight-line (superinstruction-fusible) operation:
/// it always retires with a fall-through to `pc + 4` and can neither
/// trap, branch, touch memory or CSRs, raise FP flags, nor halt the
/// core. Integer ALU ops (base, M, Zba, Zbb), `lui`/`auipc`, and the
/// no-op fences satisfy this for every operand and quirk configuration.
#[must_use]
pub fn is_straight_line(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        Lui | Auipc
            | Addi
            | Slti
            | Sltiu
            | Xori
            | Ori
            | Andi
            | Slli
            | Srli
            | Srai
            | Addiw
            | Slliw
            | Srliw
            | Sraiw
            | Add
            | Sub
            | Sll
            | Slt
            | Sltu
            | Xor
            | Srl
            | Sra
            | Or
            | And
            | Addw
            | Subw
            | Sllw
            | Srlw
            | Sraw
            | Mul
            | Mulh
            | Mulhsu
            | Mulhu
            | Div
            | Divu
            | Rem
            | Remu
            | Mulw
            | Divw
            | Divuw
            | Remw
            | Remuw
            | Sh1add
            | Sh2add
            | Sh3add
            | AddUw
            | Sh1addUw
            | Sh2addUw
            | Sh3addUw
            | SlliUw
            | Andn
            | Orn
            | Xnor
            | Clz
            | Ctz
            | Cpop
            | Clzw
            | Ctzw
            | Cpopw
            | Max
            | Maxu
            | Min
            | Minu
            | SextB
            | SextH
            | ZextH
            | Rol
            | Ror
            | Rori
            | Rolw
            | Rorw
            | Roriw
            | OrcB
            | Rev8
            | Fence
            | FenceI
            | Wfi
    )
}

/// For every index, the length of the straight-line run starting there:
/// the count of consecutive fusible ops before the first non-fusible
/// slot or `stop_at` (exclusive — typically the executor's halt index,
/// so fused blocks never run past the halt pc). Saturates at
/// `u16::MAX`.
#[must_use]
pub fn straight_runs(ops: &[PredecodedOp], stop_at: usize) -> Vec<u16> {
    let mut runs = vec![0u16; ops.len()];
    for i in (0..ops.len()).rev() {
        if i >= stop_at {
            continue;
        }
        let fusible = ops[i]
            .inst
            .is_some_and(|inst| is_straight_line(inst.opcode));
        if fusible {
            let next = runs.get(i + 1).copied().unwrap_or(0);
            // A run may not extend past stop_at.
            let next = if i + 1 >= stop_at { 0 } else { next };
            runs[i] = next.saturating_add(1);
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;
    use proptest::prelude::*;

    fn addi() -> u32 {
        Instruction::i(Opcode::Addi, Reg::X1, Reg::X2, 3).encode()
    }

    fn beq() -> u32 {
        Instruction::b(Opcode::Beq, Reg::X1, Reg::X2, 8).encode()
    }

    #[test]
    fn predecode_matches_decode_per_word() {
        let words = [addi(), 0, 0xFFFF_FFFF, beq()];
        let ops = predecode(&words);
        assert_eq!(ops.len(), words.len());
        for (op, &w) in ops.iter().zip(&words) {
            assert_eq!(op.word, w);
            assert_eq!(op.inst, decode(w).ok());
        }
    }

    #[test]
    fn straight_runs_count_fusible_prefixes() {
        let ops = predecode(&[addi(), addi(), beq(), addi()]);
        assert_eq!(straight_runs(&ops, ops.len()), vec![2, 1, 0, 1]);
    }

    #[test]
    fn straight_runs_stop_at_the_halt_index() {
        let ops = predecode(&[addi(), addi(), addi(), addi()]);
        assert_eq!(straight_runs(&ops, 2), vec![2, 1, 0, 0]);
        assert_eq!(straight_runs(&ops, 0), vec![0, 0, 0, 0]);
    }

    #[test]
    fn control_flow_memory_and_csr_ops_are_not_fusible() {
        use Opcode::*;
        for op in [
            Jal, Jalr, Beq, Bne, Lb, Ld, Sb, Sd, Ecall, Ebreak, Mret, Sret, Csrrw, Csrrs, LrW, ScW,
            AmoaddW, Flw, Fsd, FaddS, FaddD, FeqS, FcvtWS, FmaddD,
        ] {
            assert!(!is_straight_line(op), "{op} must not fuse");
        }
    }

    /// Expands a seed into `len` pseudo-random words: a mix of raw garbage
    /// and encoded vocabulary instructions, so runs contain both fusible
    /// and non-fusible slots.
    fn seeded_words(seed: u64, len: usize) -> Vec<u32> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E);
                let draw = (state >> 32) as u32;
                match state % 4 {
                    0 => addi(),
                    1 => beq(),
                    _ => draw,
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn predecode_is_total_on_any_words(seed in any::<u64>(), len in 0usize..64) {
            let words = seeded_words(seed, len);
            let ops = predecode(&words);
            prop_assert_eq!(ops.len(), words.len());
            for (op, &w) in ops.iter().zip(&words) {
                prop_assert_eq!(op.word, w);
                prop_assert_eq!(op.inst, decode(w).ok());
            }
        }

        #[test]
        fn straight_runs_never_cross_a_nonfusible_slot(
            seed in any::<u64>(),
            len in 0usize..64,
            stop in 0usize..64,
        ) {
            let ops = predecode(&seeded_words(seed, len));
            let runs = straight_runs(&ops, stop);
            for (i, &run) in runs.iter().enumerate() {
                for (j, op) in ops.iter().enumerate().skip(i).take(run as usize) {
                    prop_assert!(j < stop, "run from {i} crossed stop_at {stop}");
                    let inst = op.inst.expect("fused slots decode");
                    prop_assert!(is_straight_line(inst.opcode));
                }
            }
        }
    }
}
