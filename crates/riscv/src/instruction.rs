//! Constructed/decoded instructions: operands, encoding and assembly text.

use core::fmt;

use crate::csr::Csr;
use crate::format::{Format, RegClass};
use crate::opcode::Opcode;
use crate::reg::{FReg, Reg};

/// A single RISC-V instruction with resolved operands.
///
/// Register operands are stored as raw 5-bit indices; whether an index names
/// an integer or floating-point register is determined by the opcode's
/// [`OperandSpec`](crate::OperandSpec). Unused fields are zero.
///
/// # Examples
///
/// ```
/// use hfl_riscv::{Instruction, Opcode, Reg};
///
/// let li = Instruction::i(Opcode::Addi, Reg::X30, Reg::X0, -84);
/// assert_eq!(li.to_string(), "addi t5, zero, -84");
/// assert_eq!(hfl_riscv::decode(li.encode())?, li);
/// # Ok::<(), hfl_riscv::DecodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The opcode mnemonic.
    pub opcode: Opcode,
    /// Destination register index (0–31).
    pub rd: u8,
    /// First source register index (0–31).
    pub rs1: u8,
    /// Second source register index (0–31).
    pub rs2: u8,
    /// Third source register index (0–31, fused multiply-add only).
    pub rs3: u8,
    /// Immediate value (interpretation depends on the opcode's `ImmKind`).
    pub imm: i64,
    /// CSR address (CSR accesses only).
    pub csr: Csr,
}

impl Instruction {
    /// A canonical `nop` (`addi x0, x0, 0`).
    pub const NOP: Instruction = Instruction {
        opcode: Opcode::Addi,
        rd: 0,
        rs1: 0,
        rs2: 0,
        rs3: 0,
        imm: 0,
        csr: Csr::FFLAGS, // placeholder; unused by non-CSR opcodes
    };

    /// Creates an instruction with every operand field given explicitly.
    #[must_use]
    pub fn new(opcode: Opcode, rd: u8, rs1: u8, rs2: u8, rs3: u8, imm: i64, csr: Csr) -> Self {
        Instruction {
            opcode,
            rd: rd % 32,
            rs1: rs1 % 32,
            rs2: rs2 % 32,
            rs3: rs3 % 32,
            imm,
            csr,
        }
    }

    /// R-format constructor: `op rd, rs1, rs2` (integer registers).
    #[must_use]
    pub fn r(opcode: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(
            opcode,
            rd.index(),
            rs1.index(),
            rs2.index(),
            0,
            0,
            Csr::FFLAGS,
        )
    }

    /// I-format constructor: `op rd, rs1, imm` (also loads and `jalr`).
    #[must_use]
    pub fn i(opcode: Opcode, rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(opcode, rd.index(), rs1.index(), 0, 0, imm, Csr::FFLAGS)
    }

    /// Store constructor: `op rs2, imm(rs1)`.
    #[must_use]
    pub fn s(opcode: Opcode, rs2: Reg, imm: i64, rs1: Reg) -> Self {
        Self::new(opcode, 0, rs1.index(), rs2.index(), 0, imm, Csr::FFLAGS)
    }

    /// Branch constructor: `op rs1, rs2, offset`.
    #[must_use]
    pub fn b(opcode: Opcode, rs1: Reg, rs2: Reg, offset: i64) -> Self {
        Self::new(opcode, 0, rs1.index(), rs2.index(), 0, offset, Csr::FFLAGS)
    }

    /// Upper-immediate constructor: `op rd, imm20`.
    #[must_use]
    pub fn u(opcode: Opcode, rd: Reg, imm20: i64) -> Self {
        Self::new(opcode, rd.index(), 0, 0, 0, imm20, Csr::FFLAGS)
    }

    /// Jump constructor: `jal rd, offset`.
    #[must_use]
    pub fn j(opcode: Opcode, rd: Reg, offset: i64) -> Self {
        Self::new(opcode, rd.index(), 0, 0, 0, offset, Csr::FFLAGS)
    }

    /// CSR register-form constructor: `op rd, csr, rs1`.
    #[must_use]
    pub fn csr_reg(opcode: Opcode, rd: Reg, csr: Csr, rs1: Reg) -> Self {
        Self::new(opcode, rd.index(), rs1.index(), 0, 0, 0, csr)
    }

    /// CSR immediate-form constructor: `op rd, csr, zimm`.
    #[must_use]
    pub fn csr_imm(opcode: Opcode, rd: Reg, csr: Csr, zimm: u8) -> Self {
        Self::new(opcode, rd.index(), 0, 0, 0, i64::from(zimm & 0x1F), csr)
    }

    /// Opcode-only constructor for operand-less instructions
    /// (`ecall`, `mret`, `fence`, …).
    #[must_use]
    pub fn nullary(opcode: Opcode) -> Self {
        Self::new(opcode, 0, 0, 0, 0, 0, Csr::FFLAGS)
    }

    /// Expands a pseudo-instruction into its real form; identity for real
    /// instructions.
    #[must_use]
    pub fn expand_pseudo(&self) -> Instruction {
        use Opcode::*;
        let i = *self;
        match self.opcode {
            Nop => Instruction::new(Addi, 0, 0, 0, 0, 0, i.csr),
            Li => Instruction::new(Addi, i.rd, 0, 0, 0, i.imm, i.csr),
            Mv => Instruction::new(Addi, i.rd, i.rs1, 0, 0, 0, i.csr),
            Not => Instruction::new(Xori, i.rd, i.rs1, 0, 0, -1, i.csr),
            Neg => Instruction::new(Sub, i.rd, 0, i.rs1, 0, 0, i.csr),
            Negw => Instruction::new(Subw, i.rd, 0, i.rs1, 0, 0, i.csr),
            SextW => Instruction::new(Addiw, i.rd, i.rs1, 0, 0, 0, i.csr),
            Seqz => Instruction::new(Sltiu, i.rd, i.rs1, 0, 0, 1, i.csr),
            Snez => Instruction::new(Sltu, i.rd, 0, i.rs1, 0, 0, i.csr),
            Sltz => Instruction::new(Slt, i.rd, i.rs1, 0, 0, 0, i.csr),
            Sgtz => Instruction::new(Slt, i.rd, 0, i.rs1, 0, 0, i.csr),
            Beqz => Instruction::new(Beq, 0, i.rs1, 0, 0, i.imm, i.csr),
            Bnez => Instruction::new(Bne, 0, i.rs1, 0, 0, i.imm, i.csr),
            Blez => Instruction::new(Bge, 0, 0, i.rs1, 0, i.imm, i.csr),
            Bgez => Instruction::new(Bge, 0, i.rs1, 0, 0, i.imm, i.csr),
            Bltz => Instruction::new(Blt, 0, i.rs1, 0, 0, i.imm, i.csr),
            Bgtz => Instruction::new(Blt, 0, 0, i.rs1, 0, i.imm, i.csr),
            J => Instruction::new(Jal, 0, 0, 0, 0, i.imm, i.csr),
            Jr => Instruction::new(Jalr, 0, i.rs1, 0, 0, 0, i.csr),
            Ret => Instruction::new(Jalr, 0, 1, 0, 0, 0, i.csr),
            Csrr => Instruction::new(Csrrs, i.rd, 0, 0, 0, 0, i.csr),
            Csrw => Instruction::new(Csrrw, 0, i.rs1, 0, 0, 0, i.csr),
            Csrs => Instruction::new(Csrrs, 0, i.rs1, 0, 0, 0, i.csr),
            Csrc => Instruction::new(Csrrc, 0, i.rs1, 0, 0, 0, i.csr),
            Rdcycle => Instruction::new(Csrrs, i.rd, 0, 0, 0, 0, Csr::CYCLE),
            Rdinstret => Instruction::new(Csrrs, i.rd, 0, 0, 0, 0, Csr::INSTRET),
            FmvS => Instruction::new(FsgnjS, i.rd, i.rs1, i.rs1, 0, 0, i.csr),
            FabsS => Instruction::new(FsgnjxS, i.rd, i.rs1, i.rs1, 0, 0, i.csr),
            FnegS => Instruction::new(FsgnjnS, i.rd, i.rs1, i.rs1, 0, 0, i.csr),
            FmvD => Instruction::new(FsgnjD, i.rd, i.rs1, i.rs1, 0, 0, i.csr),
            FabsD => Instruction::new(FsgnjxD, i.rd, i.rs1, i.rs1, 0, 0, i.csr),
            FnegD => Instruction::new(FsgnjnD, i.rd, i.rs1, i.rs1, 0, 0, i.csr),
            _ => i,
        }
    }

    /// Encodes to a 32-bit machine word.
    ///
    /// Pseudo-instructions are expanded first, so every vocabulary opcode
    /// encodes. Immediates are masked to their field width (callers should
    /// legalise with [`crate::legalize_imm`] beforehand).
    #[must_use]
    pub fn encode(&self) -> u32 {
        let real = self.expand_pseudo();
        let op = real.opcode;
        let base = op.base_word();
        let rd = u32::from(real.rd & 0x1F) << 7;
        let rs1 = u32::from(real.rs1 & 0x1F) << 15;
        let rs2 = u32::from(real.rs2 & 0x1F) << 20;
        let rs3 = u32::from(real.rs3 & 0x1F) << 27;
        let imm = real.imm;
        match op.format() {
            Format::R | Format::RFrm | Format::Amo => base | rd | rs1 | rs2,
            Format::R2 | Format::R2Frm | Format::AmoLr => base | rd | rs1,
            Format::R4 => base | rd | rs1 | rs2 | rs3,
            Format::I => base | rd | rs1 | ((imm as u32 & 0xFFF) << 20),
            Format::IShift64 => base | rd | rs1 | ((imm as u32 & 0x3F) << 20),
            Format::IShift32 => base | rd | rs1 | ((imm as u32 & 0x1F) << 20),
            Format::S => {
                let imm = imm as u32;
                base | rs1
                    | (u32::from(real.rs2 & 0x1F) << 20)
                    | ((imm & 0xFE0) << 20)
                    | ((imm & 0x1F) << 7)
            }
            Format::B => {
                let imm = imm as u32;
                base | rs1
                    | (u32::from(real.rs2 & 0x1F) << 20)
                    | (((imm >> 12) & 1) << 31)
                    | (((imm >> 5) & 0x3F) << 25)
                    | (((imm >> 1) & 0xF) << 8)
                    | (((imm >> 11) & 1) << 7)
            }
            Format::U => base | rd | ((imm as u32 & 0xFFFFF) << 12),
            Format::J => {
                let imm = imm as u32;
                base | rd
                    | (((imm >> 20) & 1) << 31)
                    | (((imm >> 1) & 0x3FF) << 21)
                    | (((imm >> 11) & 1) << 20)
                    | (((imm >> 12) & 0xFF) << 12)
            }
            Format::Csr => base | rd | rs1 | (u32::from(real.csr.addr()) << 20),
            Format::CsrImm => {
                base | rd | ((imm as u32 & 0x1F) << 15) | (u32::from(real.csr.addr()) << 20)
            }
            Format::None => base,
        }
    }
}

impl Default for Instruction {
    fn default() -> Self {
        Instruction::NOP
    }
}

/// Formats a register index according to its class.
fn fmt_reg(index: u8, class: RegClass) -> &'static str {
    match class {
        RegClass::Int => Reg::from_index(index).abi_name(),
        RegClass::Fp => FReg::from_index(index).abi_name(),
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        let m = self.opcode.mnemonic();
        let spec = self.opcode.spec();
        let rd = spec.rd.map(|c| fmt_reg(self.rd, c));
        let rs1 = spec.rs1.map(|c| fmt_reg(self.rs1, c));
        let rs2 = spec.rs2.map(|c| fmt_reg(self.rs2, c));
        let rs3 = spec.rs3.map(|c| fmt_reg(self.rs3, c));
        // Pseudo-instructions have bespoke operand orders.
        if self.opcode.is_pseudo() {
            return match self.opcode {
                Nop | Ret => f.write_str(m),
                Li => write!(f, "{m} {}, {}", rd.unwrap_or("?"), self.imm),
                J => write!(f, "{m} {}", self.imm),
                Jr => write!(f, "{m} {}", rs1.unwrap_or("?")),
                Beqz | Bnez | Blez | Bgez | Bltz | Bgtz => {
                    write!(f, "{m} {}, {}", rs1.unwrap_or("?"), self.imm)
                }
                Csrr => write!(f, "{m} {}, {}", rd.unwrap_or("?"), self.csr),
                Csrw | Csrs | Csrc => {
                    write!(f, "{m} {}, {}", self.csr, rs1.unwrap_or("?"))
                }
                Rdcycle | Rdinstret => write!(f, "{m} {}", rd.unwrap_or("?")),
                _ => match (rd, rs1) {
                    (Some(rd), Some(rs1)) => write!(f, "{m} {rd}, {rs1}"),
                    (Some(rd), None) => write!(f, "{m} {rd}"),
                    _ => f.write_str(m),
                },
            };
        }
        match self.opcode.format() {
            Format::R | Format::RFrm => write!(
                f,
                "{m} {}, {}, {}",
                rd.unwrap_or("?"),
                rs1.unwrap_or("?"),
                rs2.unwrap_or("?")
            ),
            Format::R2 | Format::R2Frm => {
                write!(f, "{m} {}, {}", rd.unwrap_or("?"), rs1.unwrap_or("?"))
            }
            Format::R4 => write!(
                f,
                "{m} {}, {}, {}, {}",
                rd.unwrap_or("?"),
                rs1.unwrap_or("?"),
                rs2.unwrap_or("?"),
                rs3.unwrap_or("?")
            ),
            Format::I => {
                if self.opcode.is_memory_access() || self.opcode == Jalr {
                    write!(
                        f,
                        "{m} {}, {}({})",
                        rd.unwrap_or("?"),
                        self.imm,
                        rs1.unwrap_or("?")
                    )
                } else {
                    write!(
                        f,
                        "{m} {}, {}, {}",
                        rd.unwrap_or("?"),
                        rs1.unwrap_or("?"),
                        self.imm
                    )
                }
            }
            Format::IShift64 | Format::IShift32 => {
                write!(
                    f,
                    "{m} {}, {}, {}",
                    rd.unwrap_or("?"),
                    rs1.unwrap_or("?"),
                    self.imm
                )
            }
            Format::S => {
                write!(
                    f,
                    "{m} {}, {}({})",
                    rs2.unwrap_or("?"),
                    self.imm,
                    rs1.unwrap_or("?")
                )
            }
            Format::B => write!(
                f,
                "{m} {}, {}, {}",
                rs1.unwrap_or("?"),
                rs2.unwrap_or("?"),
                self.imm
            ),
            Format::U => write!(f, "{m} {}, {:#x}", rd.unwrap_or("?"), self.imm),
            Format::J => write!(f, "{m} {}, {}", rd.unwrap_or("?"), self.imm),
            Format::Csr => write!(
                f,
                "{m} {}, {}, {}",
                rd.unwrap_or("?"),
                self.csr,
                rs1.unwrap_or("?")
            ),
            Format::CsrImm => {
                write!(f, "{m} {}, {}, {}", rd.unwrap_or("?"), self.csr, self.imm)
            }
            Format::Amo => write!(
                f,
                "{m} {}, {}, ({})",
                rd.unwrap_or("?"),
                rs2.unwrap_or("?"),
                rs1.unwrap_or("?")
            ),
            Format::AmoLr => {
                write!(f, "{m} {}, ({})", rd.unwrap_or("?"), rs1.unwrap_or("?"))
            }
            Format::None => f.write_str(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        // addi x1, x2, 3 == 0x00310093
        let i = Instruction::i(Opcode::Addi, Reg::X1, Reg::X2, 3);
        assert_eq!(i.encode(), 0x0031_0093);
        // add x3, x4, x5 == 0x005201B3
        let a = Instruction::r(Opcode::Add, Reg::X3, Reg::X4, Reg::X5);
        assert_eq!(a.encode(), 0x0052_01B3);
        // sw x5, 8(x2) == imm 8 -> imm[11:5]=0, imm[4:0]=8
        let s = Instruction::s(Opcode::Sw, Reg::X5, 8, Reg::X2);
        assert_eq!(s.encode(), 0x0051_2423);
        // ecall
        assert_eq!(Instruction::nullary(Opcode::Ecall).encode(), 0x73);
        // csrrw x1, mstatus, x2
        let c = Instruction::csr_reg(Opcode::Csrrw, Reg::X1, Csr::MSTATUS, Reg::X2);
        assert_eq!(c.encode(), 0x3001_10F3);
    }

    #[test]
    fn branch_offset_encoding() {
        // beq x0, x0, 8 -> imm[12|10:5]=0, imm[4:1]=4 (bit 3 of offset),
        // word = 0x00000463
        let b = Instruction::b(Opcode::Beq, Reg::X0, Reg::X0, 8);
        assert_eq!(b.encode(), 0x0000_0463);
        // negative offset -4: beq x0,x0,-4 == 0xFE000EE3
        let b = Instruction::b(Opcode::Beq, Reg::X0, Reg::X0, -4);
        assert_eq!(b.encode(), 0xFE00_0EE3);
    }

    #[test]
    fn jal_offset_encoding() {
        // jal x1, 2048: imm[20]=0 imm[10:1]=0 imm[11]=1 imm[19:12]=0
        let j = Instruction::j(Opcode::Jal, Reg::X1, 2048);
        assert_eq!(j.encode(), 0x0010_00EF);
        // jal x0, -4
        let j = Instruction::j(Opcode::Jal, Reg::X0, -4);
        assert_eq!(j.encode(), 0xFFDF_F06F);
    }

    #[test]
    fn pseudo_expansion() {
        let li = Instruction::new(Opcode::Li, 30, 0, 0, 0, -84, Csr::FFLAGS);
        let real = li.expand_pseudo();
        assert_eq!(real.opcode, Opcode::Addi);
        assert_eq!(real.rd, 30);
        assert_eq!(real.rs1, 0);
        assert_eq!(real.imm, -84);

        let ret = Instruction::nullary(Opcode::Ret).expand_pseudo();
        assert_eq!(ret.opcode, Opcode::Jalr);
        assert_eq!(ret.rs1, 1);

        let csrw = Instruction::new(Opcode::Csrw, 0, 1, 0, 0, 0, Csr::new(0x453));
        let real = csrw.expand_pseudo();
        assert_eq!(real.opcode, Opcode::Csrrw);
        assert_eq!(real.rd, 0);
        assert_eq!(real.rs1, 1);
        assert_eq!(real.csr, Csr::new(0x453));
    }

    #[test]
    fn real_instruction_expansion_is_identity() {
        let add = Instruction::r(Opcode::Add, Reg::X1, Reg::X2, Reg::X3);
        assert_eq!(add.expand_pseudo(), add);
    }

    #[test]
    fn display_matches_paper_examples() {
        // `li t5, -84` from §IV-A.
        let li = Instruction::new(Opcode::Li, 30, 0, 0, 0, -84, Csr::FFLAGS);
        assert_eq!(li.to_string(), "li t5, -84");
        // `csrw 0x453, ra` from §IV-A.
        let csrw = Instruction::new(Opcode::Csrw, 0, 1, 0, 0, 0, Csr::new(0x453));
        assert_eq!(csrw.to_string(), "csrw 0x453, ra");
        // `fnmsub.d fs4, fs9, ft5, fs9` from §IV-A.
        let fn4 = Instruction::new(Opcode::FnmsubD, 20, 25, 5, 25, 0, Csr::FFLAGS);
        assert_eq!(fn4.to_string(), "fnmsub.d fs4, fs9, ft5, fs9");
    }

    #[test]
    fn display_memory_and_amo_forms() {
        let lw = Instruction::i(Opcode::Lw, Reg::X10, Reg::X2, 16);
        assert_eq!(lw.to_string(), "lw a0, 16(sp)");
        let sd = Instruction::s(Opcode::Sd, Reg::X10, -8, Reg::X2);
        assert_eq!(sd.to_string(), "sd a0, -8(sp)");
        let amo = Instruction::new(Opcode::AmoaddW, 10, 11, 12, 0, 0, Csr::FFLAGS);
        assert_eq!(amo.to_string(), "amoadd.w a0, a2, (a1)");
        let lr = Instruction::new(Opcode::LrW, 10, 11, 0, 0, 0, Csr::FFLAGS);
        assert_eq!(lr.to_string(), "lr.w a0, (a1)");
    }

    #[test]
    fn new_wraps_register_indices() {
        let i = Instruction::new(Opcode::Add, 33, 64, 95, 0, 0, Csr::FFLAGS);
        assert_eq!(i.rd, 1);
        assert_eq!(i.rs1, 0);
        assert_eq!(i.rs2, 31);
    }
}
