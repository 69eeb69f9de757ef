//! Generator-facing vocabularies and the canonical test-bench memory map.
//!
//! The multi-head LSTM generator emits *indices*; this module defines what
//! those indices mean. The opcode head indexes [`crate::Opcode::ALL`], the
//! register heads index the 32 registers directly, the immediate head
//! indexes [`crate::imm::IMM_VOCAB`], and the address head indexes the
//! [`ADDR_VOCAB_LEN`] entries of [`addr_from_index`] (CSR addresses and
//! control-flow offsets, per the paper's examples `csrw 0x453, ra`).

use crate::csr::Csr;

/// The memory layout every test case runs under (shared by the GRM, the DUT
/// and the test constructor).
pub mod mem_map {
    /// Start of simulated RAM (RISC-V convention: DRAM at `0x8000_0000`).
    pub const RAM_BASE: u64 = 0x8000_0000;
    /// Size of simulated RAM.
    pub const RAM_SIZE: u64 = 0x2_0000;
    /// Test-case code is placed here; execution starts at this address.
    pub const CODE_BASE: u64 = 0x8000_0000;
    /// Maximum test-case code size.
    pub const CODE_SIZE: u64 = 0xE00;
    /// The trap handler (skip-and-resume) lives here, inside the code page.
    pub const HANDLER_BASE: u64 = 0x8000_0E00;
    /// Primary data region. Note `0x8000_11FF` — the address from the
    /// paper's V1 proof of concept — falls inside this region.
    pub const DATA_BASE: u64 = 0x8000_1000;
    /// Size of the primary data region.
    pub const DATA_SIZE: u64 = 0x1000;
    /// Initial stack pointer.
    pub const STACK_TOP: u64 = 0x8000_3000;
    /// PMP-protected region used by the V2 experiments.
    pub const PROTECTED_BASE: u64 = 0x8000_4000;
    /// Size of the PMP-protected region.
    pub const PROTECTED_SIZE: u64 = 0x1000;
    /// Scratch region for spills.
    pub const SCRATCH_BASE: u64 = 0x8000_8000;
    /// End of simulated RAM (exclusive).
    pub const RAM_END: u64 = RAM_BASE + RAM_SIZE;
}

/// One entry of the address-head vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrEntry {
    /// A CSR address (used when the opcode is a CSR access).
    Csr(Csr),
    /// A control-flow offset in bytes (used for branches and jumps).
    Offset(i64),
}

/// Control-flow offsets the address head can select.
pub const OFFSET_VOCAB: [i64; 20] = [
    4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 128, 192, -4, -8, -12, -16,
];

/// The address-head output size.
pub const ADDR_VOCAB_LEN: usize = Csr::GENERATOR_VOCAB.len() + OFFSET_VOCAB.len();

/// Maps an address-head output index onto a vocabulary entry.
///
/// Indices wrap modulo [`ADDR_VOCAB_LEN`], so any head output is valid. The
/// correction module re-maps entries of the wrong flavour (an offset for a
/// CSR access, say) with [`addr_csr_for_index`]/[`addr_offset_for_index`].
#[must_use]
pub fn addr_from_index(index: usize) -> AddrEntry {
    let i = index % ADDR_VOCAB_LEN;
    if i < Csr::GENERATOR_VOCAB.len() {
        AddrEntry::Csr(Csr::GENERATOR_VOCAB[i])
    } else {
        AddrEntry::Offset(OFFSET_VOCAB[i - Csr::GENERATOR_VOCAB.len()])
    }
}

/// Maps an address-head output onto a CSR address, regardless of which
/// flavour of entry the index names.
#[must_use]
pub fn addr_csr_for_index(index: usize) -> Csr {
    Csr::GENERATOR_VOCAB[index % Csr::GENERATOR_VOCAB.len()]
}

/// Maps an address-head output onto a control-flow offset, regardless of
/// which flavour of entry the index names.
#[must_use]
pub fn addr_offset_for_index(index: usize) -> i64 {
    OFFSET_VOCAB[index % OFFSET_VOCAB.len()]
}

/// Registers the test-constructor prologue pins to memory-region bases, as
/// `(register index, address)` pairs. Generated code can (and will) clobber
/// them; the prologue only provides useful starting points.
pub const BASE_REG_SETUP: [(u8, u64); 6] = [
    (5, mem_map::DATA_BASE),          // t0
    (6, mem_map::CODE_BASE),          // t1
    (7, mem_map::PROTECTED_BASE),     // t2
    (28, mem_map::SCRATCH_BASE),      // t3
    (29, mem_map::DATA_BASE + 0x800), // t4
    (2, mem_map::STACK_TOP),          // sp
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_regions_do_not_overlap() {
        use mem_map::*;
        const {
            assert!(CODE_BASE + CODE_SIZE <= HANDLER_BASE);
            assert!(HANDLER_BASE < DATA_BASE);
            assert!(DATA_BASE + DATA_SIZE <= STACK_TOP);
            assert!(STACK_TOP <= PROTECTED_BASE);
            assert!(PROTECTED_BASE + PROTECTED_SIZE <= SCRATCH_BASE);
            assert!(SCRATCH_BASE < RAM_END);
        }
    }

    #[test]
    fn paper_v1_address_is_in_the_data_region() {
        use mem_map::*;
        let v1 = 0x8000_11FFu64;
        assert!((DATA_BASE..DATA_BASE + DATA_SIZE).contains(&v1));
    }

    #[test]
    fn addr_vocab_wraps_and_splits() {
        assert_eq!(ADDR_VOCAB_LEN, 48);
        assert!(matches!(addr_from_index(0), AddrEntry::Csr(_)));
        assert!(matches!(addr_from_index(30), AddrEntry::Offset(_)));
        assert_eq!(addr_from_index(0), addr_from_index(ADDR_VOCAB_LEN));
    }

    #[test]
    fn forced_flavour_lookups_always_succeed() {
        for i in 0..2 * ADDR_VOCAB_LEN {
            let _ = addr_csr_for_index(i);
            let off = addr_offset_for_index(i);
            assert_ne!(off, 0, "offsets must move the pc");
            assert_eq!(off % 4, 0, "offsets must stay word-aligned");
        }
    }

    #[test]
    fn base_reg_setup_targets_valid_ram() {
        for (reg, addr) in BASE_REG_SETUP {
            assert!(reg < 32);
            assert!((mem_map::RAM_BASE..mem_map::RAM_END).contains(&addr));
        }
    }
}
