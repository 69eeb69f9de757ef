//! The control-and-status register file.

use hfl_riscv::Csr;

use crate::pmp::Pmp;

/// Error raised when a CSR access is architecturally illegal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalCsr;

/// Machine-mode CSR state.
///
/// The model implements the machine-level CSRs the opcode vocabulary can
/// reach, plus the floating-point CSRs. Accessing anything else (including
/// supervisor CSRs — the cores are modelled machine-only — and raw
/// addresses like the paper's `0x453`) raises an illegal-instruction trap,
/// as the privileged spec requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrFile {
    /// `mstatus` (implemented bits only).
    pub mstatus: u64,
    /// `mtvec` (direct mode; low two bits forced clear).
    pub mtvec: u64,
    /// `mscratch`.
    pub mscratch: u64,
    /// `mepc` (low two bits forced clear).
    pub mepc: u64,
    /// `mcause`.
    pub mcause: u64,
    /// `mtval`.
    pub mtval: u64,
    /// `mie`.
    pub mie: u64,
    /// `mip`.
    pub mip: u64,
    /// `mcounteren`.
    pub mcounteren: u64,
    /// `fcsr` (fflags in `[4:0]`, frm in `[7:5]`).
    pub fcsr: u64,
    /// Physical memory protection state.
    pub pmp: Pmp,
}

/// `mstatus` writable-bit mask: MIE(3), MPIE(7), MPP(12:11), FS(14:13).
const MSTATUS_MASK: u64 = (1 << 3) | (1 << 7) | (0b11 << 11) | (0b11 << 13);

/// `misa`: RV64 with I, M, A, F, D.
const MISA: u64 = (2 << 62) | 0x1129;

impl Default for CsrFile {
    fn default() -> Self {
        CsrFile {
            // Boot state: M-mode, interrupts off, FP unit on (FS = dirty).
            mstatus: 0b11 << 11 | 0b11 << 13,
            mtvec: 0,
            mscratch: 0,
            mepc: 0,
            mcause: 0,
            mtval: 0,
            mie: 0,
            mip: 0,
            mcounteren: 0,
            fcsr: 0,
            pmp: Pmp::new(),
        }
    }
}

impl CsrFile {
    /// Creates the reset-state CSR file.
    #[must_use]
    pub fn new() -> CsrFile {
        CsrFile::default()
    }

    /// Current `fflags` (low five bits of `fcsr`).
    #[must_use]
    pub fn fflags(&self) -> u64 {
        self.fcsr & 0x1F
    }

    /// ORs exception flags into `fflags`.
    pub fn raise_fflags(&mut self, flags: u64) {
        self.fcsr |= flags & 0x1F;
    }

    /// Reads a CSR. `cycle`/`instret` values are supplied by the caller
    /// since the counters live on the CPU.
    ///
    /// # Errors
    ///
    /// Returns [`IllegalCsr`] for unimplemented CSRs.
    pub fn read(&self, csr: Csr, cycle: u64, instret: u64) -> Result<u64, IllegalCsr> {
        Ok(match csr {
            Csr::FFLAGS => self.fcsr & 0x1F,
            Csr::FRM => (self.fcsr >> 5) & 0b111,
            Csr::FCSR => self.fcsr & 0xFF,
            Csr::CYCLE | Csr::MCYCLE => cycle,
            Csr::INSTRET | Csr::MINSTRET => instret,
            Csr::TIME => cycle, // no separate timer; deterministic
            Csr::MVENDORID | Csr::MARCHID | Csr::MIMPID | Csr::MHARTID => 0,
            Csr::MSTATUS => self.mstatus,
            Csr::MISA => MISA,
            Csr::MIE => self.mie,
            Csr::MTVEC => self.mtvec,
            Csr::MCOUNTEREN => self.mcounteren,
            Csr::MSCRATCH => self.mscratch,
            Csr::MEPC => self.mepc,
            Csr::MCAUSE => self.mcause,
            Csr::MTVAL => self.mtval,
            Csr::MIP => self.mip,
            Csr::PMPCFG0 => self.pmp.cfg0(),
            Csr::PMPCFG2 => 0,
            _ => {
                let addr = csr.addr();
                if (0x3B0..0x3B8).contains(&addr) {
                    self.pmp.addr(usize::from(addr - 0x3B0))
                } else {
                    return Err(IllegalCsr);
                }
            }
        })
    }

    /// Writes a CSR. Returns the counter value to adopt when the target is
    /// `mcycle`/`minstret` (the CPU owns those counters).
    ///
    /// # Errors
    ///
    /// Returns [`IllegalCsr`] for unimplemented or read-only CSRs.
    pub fn write(&mut self, csr: Csr, value: u64) -> Result<Option<CounterWrite>, IllegalCsr> {
        if csr.is_read_only() {
            return Err(IllegalCsr);
        }
        match csr {
            Csr::FFLAGS => self.fcsr = (self.fcsr & !0x1F) | (value & 0x1F),
            Csr::FRM => self.fcsr = (self.fcsr & !0xE0) | ((value & 0b111) << 5),
            Csr::FCSR => self.fcsr = value & 0xFF,
            Csr::MSTATUS => {
                self.mstatus = (self.mstatus & !MSTATUS_MASK) | (value & MSTATUS_MASK);
                // MPP supports only machine mode on this core.
                self.mstatus |= 0b11 << 11;
            }
            Csr::MISA => {} // writable in principle; writes ignored
            Csr::MIE => self.mie = value & 0xAAA,
            Csr::MTVEC => self.mtvec = value & !0b11,
            Csr::MCOUNTEREN => self.mcounteren = value & 0b111,
            Csr::MSCRATCH => self.mscratch = value,
            Csr::MEPC => self.mepc = value & !0b11,
            Csr::MCAUSE => self.mcause = value,
            Csr::MTVAL => self.mtval = value,
            Csr::MIP => self.mip = value & 0xAAA,
            Csr::MCYCLE => return Ok(Some(CounterWrite::Cycle(value))),
            Csr::MINSTRET => return Ok(Some(CounterWrite::Instret(value))),
            Csr::PMPCFG0 => self.pmp.write_cfg0(value),
            Csr::PMPCFG2 => {}
            _ => {
                let addr = csr.addr();
                if (0x3B0..0x3B8).contains(&addr) {
                    self.pmp.write_addr(usize::from(addr - 0x3B0), value);
                } else {
                    return Err(IllegalCsr);
                }
            }
        }
        Ok(None)
    }
}

/// A write that targets a CPU-owned counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterWrite {
    /// `mcycle` was written.
    Cycle(u64),
    /// `minstret` was written.
    Instret(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state_is_machine_mode_with_fp_on() {
        let c = CsrFile::new();
        assert_eq!((c.mstatus >> 11) & 0b11, 0b11, "MPP = M");
        assert_ne!((c.mstatus >> 13) & 0b11, 0, "FS enabled");
    }

    #[test]
    fn fflags_and_frm_alias_fcsr() {
        let mut c = CsrFile::new();
        c.write(Csr::FCSR, 0xFF).unwrap();
        assert_eq!(c.read(Csr::FFLAGS, 0, 0).unwrap(), 0x1F);
        assert_eq!(c.read(Csr::FRM, 0, 0).unwrap(), 0b111);
        c.write(Csr::FFLAGS, 0).unwrap();
        assert_eq!(c.read(Csr::FCSR, 0, 0).unwrap(), 0xE0);
        c.raise_fflags(0x10);
        assert_eq!(c.fflags(), 0x10);
    }

    #[test]
    fn read_only_csrs_reject_writes() {
        let mut c = CsrFile::new();
        assert!(c.write(Csr::MVENDORID, 1).is_err());
        assert!(c.write(Csr::CYCLE, 1).is_err());
        assert!(c.read(Csr::MVENDORID, 0, 0).is_ok());
    }

    #[test]
    fn unknown_csrs_are_illegal() {
        let mut c = CsrFile::new();
        assert!(c.read(Csr::new(0x453), 0, 0).is_err());
        assert!(c.write(Csr::new(0x453), 1).is_err());
        // Supervisor CSRs are not implemented on this machine-only model.
        assert!(c.read(Csr::SSTATUS, 0, 0).is_err());
        assert!(c.read(Csr::SATP, 0, 0).is_err());
    }

    #[test]
    fn mtvec_and_mepc_alignment_masking() {
        let mut c = CsrFile::new();
        c.write(Csr::MTVEC, 0x8000_0E03).unwrap();
        assert_eq!(c.read(Csr::MTVEC, 0, 0).unwrap(), 0x8000_0E00);
        c.write(Csr::MEPC, 0x8000_0013).unwrap();
        assert_eq!(c.read(Csr::MEPC, 0, 0).unwrap(), 0x8000_0010);
    }

    #[test]
    fn counter_writes_are_forwarded() {
        let mut c = CsrFile::new();
        assert_eq!(
            c.write(Csr::MCYCLE, 99).unwrap(),
            Some(CounterWrite::Cycle(99))
        );
        assert_eq!(
            c.write(Csr::MINSTRET, 5).unwrap(),
            Some(CounterWrite::Instret(5))
        );
        assert_eq!(c.read(Csr::CYCLE, 123, 45).unwrap(), 123);
        assert_eq!(c.read(Csr::INSTRET, 123, 45).unwrap(), 45);
    }

    #[test]
    fn mstatus_only_exposes_implemented_bits() {
        let mut c = CsrFile::new();
        c.write(Csr::MSTATUS, u64::MAX).unwrap();
        let v = c.read(Csr::MSTATUS, 0, 0).unwrap();
        assert_eq!(v & !(MSTATUS_MASK), 0, "no stray bits: {v:#x}");
        // MPP cannot leave machine mode.
        c.write(Csr::MSTATUS, 0).unwrap();
        assert_eq!((c.read(Csr::MSTATUS, 0, 0).unwrap() >> 11) & 0b11, 0b11);
    }

    #[test]
    fn pmp_csrs_route_to_the_pmp_unit() {
        let mut c = CsrFile::new();
        c.write(Csr::PMPADDR0, 0x2000_1000).unwrap();
        assert_eq!(c.read(Csr::PMPADDR0, 0, 0).unwrap(), 0x2000_1000);
        c.write(Csr::PMPCFG0, 0x18).unwrap();
        assert_eq!(c.read(Csr::PMPCFG0, 0, 0).unwrap(), 0x18);
    }
}
