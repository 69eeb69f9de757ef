//! Paged physical memory over the RAM window.

use std::sync::OnceLock;

use hfl_riscv::vocab::mem_map;

const PAGE_SHIFT: u64 = 12;
pub(crate) const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_SIZE as usize - 1;
/// Pages in the RAM window.
const PAGES: usize = (mem_map::RAM_SIZE / PAGE_SIZE) as usize;

type Page = [u8; PAGE_SIZE as usize];

/// Byte-addressable RAM backed by 4 KiB pages, indexed from
/// [`mem_map::RAM_BASE`].
///
/// Accesses outside the simulated RAM window
/// ([`mem_map::RAM_BASE`]`..`[`mem_map::RAM_END`]) are rejected; the CPU
/// turns the rejection into an access fault. Untouched bytes read as a
/// deterministic address-derived pattern so that loads from uninitialised
/// data are reproducible across the GRM and the DUT. Untouched pages are
/// read from a background image of the whole RAM, built once per
/// process; a page is copied out of it on its first write.
///
/// # Examples
///
/// ```
/// use hfl_grm::Memory;
/// use hfl_riscv::vocab::mem_map;
///
/// let mut mem = Memory::new();
/// mem.write_u32(mem_map::DATA_BASE, 0xDEAD_BEEF).expect("in RAM");
/// assert_eq!(mem.read_u32(mem_map::DATA_BASE), Ok(0xDEAD_BEEF));
/// assert!(mem.read_u8(0x0).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Written pages; `None` still reads as the background.
    pages: [Option<Box<Page>>; PAGES],
}

/// Error for an access outside the simulated RAM window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFault {
    /// The faulting physical address.
    pub addr: u64,
}

impl core::fmt::Display for AccessFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "access fault at {:#x}", self.addr)
    }
}

impl std::error::Error for AccessFault {}

/// Deterministic background pattern for untouched bytes: the one
/// definition behind [`background`].
fn background_byte(addr: u64) -> u8 {
    // A cheap address hash: distinct per byte, stable across runs.
    let x = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((x >> 56) ^ (x >> 32) ^ x) as u8
}

/// The background pattern of every RAM page, built once per process
/// (shared with the predecoder, which lowers the executable window's
/// background ahead of execution).
pub(crate) fn background() -> &'static [Page; PAGES] {
    static IMAGE: OnceLock<Box<[Page; PAGES]>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut image = Box::new([[0u8; PAGE_SIZE as usize]; PAGES]);
        for (addr, byte) in (mem_map::RAM_BASE..).zip(image.as_flattened_mut()) {
            *byte = background_byte(addr);
        }
        image
    })
}

impl Memory {
    /// Creates empty (background-patterned) RAM.
    #[must_use]
    pub fn new() -> Memory {
        Memory::default()
    }

    /// The offset of an `N`-byte access into the RAM window.
    fn offset<const N: usize>(addr: u64) -> Result<usize, AccessFault> {
        match addr.checked_sub(mem_map::RAM_BASE) {
            Some(off) if off + N as u64 <= mem_map::RAM_SIZE => Ok(off as usize),
            _ => Err(AccessFault { addr }),
        }
    }

    fn page(&self, index: usize) -> &Page {
        match &self.pages[index] {
            Some(page) => page,
            None => &background()[index],
        }
    }

    fn page_mut(&mut self, index: usize) -> &mut Page {
        self.pages[index].get_or_insert_with(|| Box::new(background()[index]))
    }

    fn read<const N: usize>(&self, addr: u64) -> Result<[u8; N], AccessFault> {
        let off = Self::offset::<N>(addr)?;
        let mut bytes = [0u8; N];
        for (o, byte) in (off..).zip(&mut bytes) {
            *byte = self.page(o >> PAGE_SHIFT)[o & PAGE_MASK];
        }
        Ok(bytes)
    }

    fn write<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) -> Result<(), AccessFault> {
        let off = Self::offset::<N>(addr)?;
        for (o, byte) in (off..).zip(bytes) {
            self.page_mut(o >> PAGE_SHIFT)[o & PAGE_MASK] = byte;
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`AccessFault`] outside the RAM window.
    pub fn read_u8(&self, addr: u64) -> Result<u8, AccessFault> {
        self.read(addr).map(u8::from_le_bytes)
    }

    /// Reads a little-endian halfword.
    ///
    /// # Errors
    /// Returns [`AccessFault`] outside the RAM window.
    pub fn read_u16(&self, addr: u64) -> Result<u16, AccessFault> {
        self.read(addr).map(u16::from_le_bytes)
    }

    /// Reads a little-endian word.
    ///
    /// # Errors
    /// Returns [`AccessFault`] outside the RAM window.
    pub fn read_u32(&self, addr: u64) -> Result<u32, AccessFault> {
        self.read(addr).map(u32::from_le_bytes)
    }

    /// Reads a little-endian doubleword.
    ///
    /// # Errors
    /// Returns [`AccessFault`] outside the RAM window.
    pub fn read_u64(&self, addr: u64) -> Result<u64, AccessFault> {
        self.read(addr).map(u64::from_le_bytes)
    }

    /// Writes one byte.
    ///
    /// # Errors
    /// Returns [`AccessFault`] outside the RAM window.
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), AccessFault> {
        self.write(addr, value.to_le_bytes())
    }

    /// Writes a little-endian halfword.
    ///
    /// # Errors
    /// Returns [`AccessFault`] outside the RAM window.
    pub fn write_u16(&mut self, addr: u64, value: u16) -> Result<(), AccessFault> {
        self.write(addr, value.to_le_bytes())
    }

    /// Writes a little-endian word.
    ///
    /// # Errors
    /// Returns [`AccessFault`] outside the RAM window.
    pub fn write_u32(&mut self, addr: u64, value: u32) -> Result<(), AccessFault> {
        self.write(addr, value.to_le_bytes())
    }

    /// Writes a little-endian doubleword.
    ///
    /// # Errors
    /// Returns [`AccessFault`] outside the RAM window.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), AccessFault> {
        self.write(addr, value.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn round_trips_all_widths() {
        let mut m = Memory::new();
        let base = mem_map::DATA_BASE;
        m.write_u8(base, 0xAB).unwrap();
        m.write_u16(base + 2, 0xBEEF).unwrap();
        m.write_u32(base + 4, 0xDEAD_BEEF).unwrap();
        m.write_u64(base + 8, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(m.read_u8(base).unwrap(), 0xAB);
        assert_eq!(m.read_u16(base + 2).unwrap(), 0xBEEF);
        assert_eq!(m.read_u32(base + 4).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(base + 8).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn out_of_window_faults() {
        let mut m = Memory::new();
        assert!(m.read_u8(0).is_err());
        assert!(m.write_u32(mem_map::RAM_END, 1).is_err());
        assert!(m.read_u64(mem_map::RAM_END - 4).is_err(), "straddles end");
        assert!(m.read_u8(mem_map::RAM_END - 1).is_ok());
    }

    #[test]
    fn background_pattern_is_deterministic_and_nonuniform() {
        let m1 = Memory::new();
        let m2 = Memory::new();
        let mut distinct = std::collections::HashSet::new();
        for i in 0..256 {
            let a = mem_map::DATA_BASE + i;
            assert_eq!(m1.read_u8(a).unwrap(), m2.read_u8(a).unwrap());
            distinct.insert(m1.read_u8(a).unwrap());
        }
        assert!(distinct.len() > 32, "pattern should vary across bytes");
    }

    #[test]
    fn writes_touch_only_their_bytes() {
        let mut m = Memory::new();
        let base = mem_map::DATA_BASE + 64;
        let before = m.read_u8(base + 4).unwrap();
        m.write_u32(base, 0xFFFF_FFFF).unwrap();
        assert_eq!(m.read_u8(base + 4).unwrap(), before);
    }

    #[test]
    fn cross_page_access_round_trips() {
        let mut m = Memory::new();
        let addr = mem_map::DATA_BASE + 0xFFC; // straddles a page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn clones_are_independent() {
        let mut original = Memory::new();
        let addr = mem_map::DATA_BASE + 8;
        original.write_u32(addr, 0x1234_5678).unwrap();
        let mut clone = original.clone();
        clone.write_u32(addr, 0xCAFE_F00D).unwrap();
        clone.write_u8(mem_map::SCRATCH_BASE, 0x5A).unwrap();
        assert_eq!(original.read_u32(addr), Ok(0x1234_5678));
        assert_eq!(
            original.read_u8(mem_map::SCRATCH_BASE),
            Ok(background_byte(mem_map::SCRATCH_BASE))
        );
        original.write_u32(addr, 0).unwrap();
        assert_eq!(clone.read_u32(addr), Ok(0xCAFE_F00D));
    }

    /// Reference model: RAM is the background pattern overlaid with every
    /// byte written so far; an access faults unless all of it is in RAM.
    #[derive(Default)]
    struct Model {
        written: BTreeMap<u64, u8>,
    }

    impl Model {
        fn check(addr: u64, width: u64) -> Result<(), AccessFault> {
            match addr.checked_add(width) {
                Some(end) if addr >= mem_map::RAM_BASE && end <= mem_map::RAM_END => Ok(()),
                _ => Err(AccessFault { addr }),
            }
        }

        fn read(&self, addr: u64, width: u64) -> Result<u64, AccessFault> {
            Self::check(addr, width)?;
            Ok((0..width).rev().fold(0, |acc, i| {
                let a = addr + i;
                let byte = self.written.get(&a).copied().unwrap_or(background_byte(a));
                (acc << 8) | u64::from(byte)
            }))
        }

        fn write(&mut self, addr: u64, width: u64, value: u64) -> Result<(), AccessFault> {
            Self::check(addr, width)?;
            for i in 0..width {
                self.written.insert(addr + i, (value >> (8 * i)) as u8);
            }
            Ok(())
        }
    }

    fn read(mem: &Memory, addr: u64, width: u64) -> Result<u64, AccessFault> {
        match width {
            1 => mem.read_u8(addr).map(u64::from),
            2 => mem.read_u16(addr).map(u64::from),
            4 => mem.read_u32(addr).map(u64::from),
            _ => mem.read_u64(addr),
        }
    }

    fn write(mem: &mut Memory, addr: u64, width: u64, value: u64) -> Result<(), AccessFault> {
        match width {
            1 => mem.write_u8(addr, value as u8),
            2 => mem.write_u16(addr, value as u16),
            4 => mem.write_u32(addr, value as u32),
            _ => mem.write_u64(addr, value),
        }
    }

    /// Draws an address near an edge: a page boundary inside RAM, the
    /// first or last RAM byte, just outside the window on either side
    /// (including accesses that straddle `RAM_END`), or the top of the
    /// address space.
    fn clustered_addr(draw: u64) -> u64 {
        let pages = mem_map::RAM_SIZE / PAGE_SIZE;
        let offset = (draw >> 8) % 24;
        let anchor = match draw % 6 {
            0 | 1 => mem_map::RAM_BASE + ((draw >> 16) % (pages + 1)) * PAGE_SIZE,
            2 => mem_map::RAM_BASE,
            3 => mem_map::RAM_END,
            4 => mem_map::DATA_BASE + (draw >> 16) % mem_map::DATA_SIZE,
            _ => u64::MAX - 4,
        };
        anchor.wrapping_add(offset).wrapping_sub(12)
    }

    proptest! {
        #[test]
        fn memory_matches_a_byte_overlay_on_the_background(seed in any::<u64>(), ops in 1usize..256) {
            let mut mem = Memory::new();
            let mut model = Model::default();
            let mut state = seed | 1;
            let mut next = || {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E);
                state ^ (state >> 29)
            };
            for _ in 0..ops {
                let (kind, addr, value) = (next(), clustered_addr(next()), next());
                let width = 1u64 << (kind % 4);
                if kind & 0x10 == 0 {
                    let got = read(&mem, addr, width);
                    prop_assert_eq!(got, model.read(addr, width), "read{} at {:#x}", width * 8, addr);
                } else {
                    let got = write(&mut mem, addr, width, value);
                    prop_assert_eq!(got, model.write(addr, width, value), "write{} at {:#x}", width * 8, addr);
                }
            }
            for &addr in model.written.keys() {
                for a in [addr - 1, addr, addr + 1] {
                    prop_assert_eq!(read(&mem, a, 1), model.read(a, 1), "final byte at {:#x}", a);
                }
            }
        }
    }
}
