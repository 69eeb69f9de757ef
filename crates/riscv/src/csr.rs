//! Control-and-status register (CSR) addresses.

use core::fmt;

/// A CSR address (12 bits).
///
/// Only the CSRs the HFL fuzzing loop and the simulators actually model are
/// named; arbitrary addresses can still be represented (the paper's address
/// head emits raw CSR numbers like `csrw 0x453, ra`).
///
/// # Examples
///
/// ```
/// use hfl_riscv::Csr;
/// assert_eq!(Csr::MSTATUS.addr(), 0x300);
/// assert_eq!(Csr::MSTATUS.to_string(), "mstatus");
/// assert_eq!(Csr::new(0x453).to_string(), "0x453");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Csr(u16);

#[allow(missing_docs)]
impl Csr {
    // Unprivileged floating-point CSRs.
    pub const FFLAGS: Csr = Csr(0x001);
    pub const FRM: Csr = Csr(0x002);
    pub const FCSR: Csr = Csr(0x003);
    // Unprivileged counters.
    pub const CYCLE: Csr = Csr(0xC00);
    pub const TIME: Csr = Csr(0xC01);
    pub const INSTRET: Csr = Csr(0xC02);
    // Machine information.
    pub const MVENDORID: Csr = Csr(0xF11);
    pub const MARCHID: Csr = Csr(0xF12);
    pub const MIMPID: Csr = Csr(0xF13);
    pub const MHARTID: Csr = Csr(0xF14);
    // Machine trap setup / handling.
    pub const MSTATUS: Csr = Csr(0x300);
    pub const MISA: Csr = Csr(0x301);
    pub const MEDELEG: Csr = Csr(0x302);
    pub const MIDELEG: Csr = Csr(0x303);
    pub const MIE: Csr = Csr(0x304);
    pub const MTVEC: Csr = Csr(0x305);
    pub const MCOUNTEREN: Csr = Csr(0x306);
    pub const MSCRATCH: Csr = Csr(0x340);
    pub const MEPC: Csr = Csr(0x341);
    pub const MCAUSE: Csr = Csr(0x342);
    pub const MTVAL: Csr = Csr(0x343);
    pub const MIP: Csr = Csr(0x344);
    pub const MCYCLE: Csr = Csr(0xB00);
    pub const MINSTRET: Csr = Csr(0xB02);
    // Supervisor trap setup / handling (modelled as readable-zero on
    // machine-only cores).
    pub const SSTATUS: Csr = Csr(0x100);
    pub const SIE: Csr = Csr(0x104);
    pub const STVEC: Csr = Csr(0x105);
    pub const SSCRATCH: Csr = Csr(0x140);
    pub const SEPC: Csr = Csr(0x141);
    pub const SCAUSE: Csr = Csr(0x142);
    pub const STVAL: Csr = Csr(0x143);
    pub const SATP: Csr = Csr(0x180);
    // Physical memory protection.
    pub const PMPCFG0: Csr = Csr(0x3A0);
    pub const PMPCFG2: Csr = Csr(0x3A2);
    pub const PMPADDR0: Csr = Csr(0x3B0);
    pub const PMPADDR1: Csr = Csr(0x3B1);
    pub const PMPADDR2: Csr = Csr(0x3B2);
    pub const PMPADDR3: Csr = Csr(0x3B3);
    pub const PMPADDR4: Csr = Csr(0x3B4);
    pub const PMPADDR5: Csr = Csr(0x3B5);
    pub const PMPADDR6: Csr = Csr(0x3B6);
    pub const PMPADDR7: Csr = Csr(0x3B7);

    /// The CSRs exposed to the generator's address head.
    ///
    /// This is the vocabulary the correction module maps an address-head
    /// output onto when the opcode is a CSR access.
    pub const GENERATOR_VOCAB: [Csr; 28] = [
        Csr::FFLAGS,
        Csr::FRM,
        Csr::FCSR,
        Csr::CYCLE,
        Csr::INSTRET,
        Csr::MVENDORID,
        Csr::MARCHID,
        Csr::MHARTID,
        Csr::MSTATUS,
        Csr::MISA,
        Csr::MIE,
        Csr::MTVEC,
        Csr::MCOUNTEREN,
        Csr::MSCRATCH,
        Csr::MEPC,
        Csr::MCAUSE,
        Csr::MTVAL,
        Csr::MIP,
        Csr::MCYCLE,
        Csr::MINSTRET,
        Csr::PMPCFG0,
        Csr::PMPADDR0,
        Csr::PMPADDR1,
        Csr::PMPADDR2,
        Csr::PMPADDR3,
        Csr::PMPADDR4,
        Csr::PMPADDR5,
        Csr(0x453),
    ];

    /// Creates a CSR address; the value is masked to 12 bits.
    #[must_use]
    pub fn new(addr: u16) -> Csr {
        Csr(addr & 0xFFF)
    }

    /// The 12-bit CSR address.
    #[must_use]
    pub fn addr(self) -> u16 {
        self.0
    }

    /// Whether writes to this CSR are architecturally permitted.
    ///
    /// Read-only CSRs occupy addresses whose top two bits are `0b11`.
    #[must_use]
    pub fn is_read_only(self) -> bool {
        self.0 >> 10 == 0b11
    }

    /// The minimum privilege level (0 = U, 1 = S, 3 = M) needed to access
    /// this CSR, from address bits `[9:8]`.
    #[must_use]
    pub fn min_privilege(self) -> u8 {
        ((self.0 >> 8) & 0b11) as u8
    }

    /// The conventional name, if this is a CSR we model by name.
    #[must_use]
    pub fn name(self) -> Option<&'static str> {
        Some(match self {
            Csr::FFLAGS => "fflags",
            Csr::FRM => "frm",
            Csr::FCSR => "fcsr",
            Csr::CYCLE => "cycle",
            Csr::TIME => "time",
            Csr::INSTRET => "instret",
            Csr::MVENDORID => "mvendorid",
            Csr::MARCHID => "marchid",
            Csr::MIMPID => "mimpid",
            Csr::MHARTID => "mhartid",
            Csr::MSTATUS => "mstatus",
            Csr::MISA => "misa",
            Csr::MEDELEG => "medeleg",
            Csr::MIDELEG => "mideleg",
            Csr::MIE => "mie",
            Csr::MTVEC => "mtvec",
            Csr::MCOUNTEREN => "mcounteren",
            Csr::MSCRATCH => "mscratch",
            Csr::MEPC => "mepc",
            Csr::MCAUSE => "mcause",
            Csr::MTVAL => "mtval",
            Csr::MIP => "mip",
            Csr::MCYCLE => "mcycle",
            Csr::MINSTRET => "minstret",
            Csr::SSTATUS => "sstatus",
            Csr::SIE => "sie",
            Csr::STVEC => "stvec",
            Csr::SSCRATCH => "sscratch",
            Csr::SEPC => "sepc",
            Csr::SCAUSE => "scause",
            Csr::STVAL => "stval",
            Csr::SATP => "satp",
            Csr::PMPCFG0 => "pmpcfg0",
            Csr::PMPCFG2 => "pmpcfg2",
            Csr::PMPADDR0 => "pmpaddr0",
            Csr::PMPADDR1 => "pmpaddr1",
            Csr::PMPADDR2 => "pmpaddr2",
            Csr::PMPADDR3 => "pmpaddr3",
            Csr::PMPADDR4 => "pmpaddr4",
            Csr::PMPADDR5 => "pmpaddr5",
            Csr::PMPADDR6 => "pmpaddr6",
            Csr::PMPADDR7 => "pmpaddr7",
            _ => return None,
        })
    }
}

impl fmt::Display for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(name) => f.write_str(name),
            None => write!(f, "{:#x}", self.0),
        }
    }
}

impl fmt::LowerHex for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<Csr> for u16 {
    fn from(csr: Csr) -> u16 {
        csr.addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_match_the_privileged_spec() {
        assert_eq!(Csr::MSTATUS.addr(), 0x300);
        assert_eq!(Csr::MTVEC.addr(), 0x305);
        assert_eq!(Csr::MEPC.addr(), 0x341);
        assert_eq!(Csr::PMPCFG0.addr(), 0x3A0);
        assert_eq!(Csr::PMPADDR0.addr(), 0x3B0);
        assert_eq!(Csr::FCSR.addr(), 0x003);
    }

    #[test]
    fn read_only_detection() {
        assert!(Csr::MVENDORID.is_read_only());
        assert!(Csr::CYCLE.is_read_only());
        assert!(!Csr::MSTATUS.is_read_only());
        assert!(!Csr::FCSR.is_read_only());
    }

    #[test]
    fn privilege_levels() {
        assert_eq!(Csr::MSTATUS.min_privilege(), 3);
        assert_eq!(Csr::SSTATUS.min_privilege(), 1);
        assert_eq!(Csr::FCSR.min_privilege(), 0);
        assert_eq!(Csr::CYCLE.min_privilege(), 0);
    }

    #[test]
    fn unnamed_csr_displays_as_hex() {
        assert_eq!(Csr::new(0x453).to_string(), "0x453");
        assert_eq!(format!("{:x}", Csr::new(0x453)), "453");
    }

    #[test]
    fn new_masks_to_twelve_bits() {
        assert_eq!(Csr::new(0xF453).addr(), 0x453);
    }
}
