//! Physical memory protection (PMP) checking.
//!
//! Eight PMP entries are modelled (`pmpcfg0` + `pmpaddr0..7`), with the
//! standard OFF/TOR/NA4/NAPOT address-matching modes and the lock bit. Since
//! generated tests run in machine mode, only *locked* entries constrain
//! accesses — exactly the setup the paper's V2 vulnerability (delayed PMP
//! enforcement in CVA6) is about.

/// Type of access being checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store (including AMO).
    Store,
}

/// Address-matching mode of a PMP entry (cfg bits `[4:3]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmpMode {
    /// Entry disabled.
    Off,
    /// Top-of-range: matches `[pmpaddr[i-1], pmpaddr[i])`.
    Tor,
    /// Naturally aligned four-byte region.
    Na4,
    /// Naturally aligned power-of-two region.
    Napot,
}

/// The PMP register state: eight entries.
///
/// # Examples
///
/// ```
/// use hfl_grm::pmp::{AccessKind, Pmp};
///
/// let mut pmp = Pmp::new();
/// // Lock entry 0 as a NAPOT region over 0x8000_4000..0x8000_5000 with no
/// // permissions: cfg = L | NAPOT (R=W=X=0). The address must be written
/// // before the lock takes effect.
/// pmp.write_addr(0, (0x8000_4000u64 >> 2) | ((0x1000 >> 3) - 1));
/// pmp.write_cfg0(0x98);
/// assert!(!pmp.allows(0x8000_4008, AccessKind::Load));
/// assert!(pmp.allows(0x8000_3FF8, AccessKind::Load));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pmp {
    cfg: [u8; 8],
    addr: [u64; 8],
}

const CFG_R: u8 = 1 << 0;
const CFG_W: u8 = 1 << 1;
const CFG_X: u8 = 1 << 2;
const CFG_L: u8 = 1 << 7;

impl Pmp {
    /// Creates a PMP with all entries off.
    #[must_use]
    pub fn new() -> Pmp {
        Pmp::default()
    }

    /// The packed `pmpcfg0` value (entries 0–7).
    #[must_use]
    pub fn cfg0(&self) -> u64 {
        self.cfg
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &c)| acc | (u64::from(c) << (8 * i)))
    }

    /// Writes `pmpcfg0`. Locked entry bytes are write-protected, per spec.
    pub fn write_cfg0(&mut self, value: u64) {
        for i in 0..8 {
            if self.cfg[i] & CFG_L != 0 {
                continue;
            }
            let mut byte = (value >> (8 * i)) as u8;
            // W without R is reserved; treat as no access (spec-permitted).
            if byte & CFG_W != 0 && byte & CFG_R == 0 {
                byte &= !(CFG_R | CFG_W);
            }
            self.cfg[i] = byte & (CFG_L | 0x18 | CFG_X | CFG_W | CFG_R);
        }
    }

    /// Reads `pmpaddr[i]`.
    ///
    /// # Panics
    /// Panics if `i >= 8`.
    #[must_use]
    pub fn addr(&self, i: usize) -> u64 {
        self.addr[i]
    }

    /// Writes `pmpaddr[i]`. Ignored when the entry is locked, or when the
    /// next entry is a locked TOR entry (which uses this register as its
    /// base), per spec.
    ///
    /// # Panics
    /// Panics if `i >= 8`.
    pub fn write_addr(&mut self, i: usize, value: u64) {
        if self.cfg[i] & CFG_L != 0 {
            return;
        }
        if i + 1 < 8 && self.cfg[i + 1] & CFG_L != 0 && self.mode(i + 1) == PmpMode::Tor {
            return;
        }
        // pmpaddr holds bits [55:2] of the address.
        self.addr[i] = value & ((1u64 << 54) - 1);
    }

    /// The matching mode of entry `i`.
    ///
    /// # Panics
    /// Panics if `i >= 8`.
    #[must_use]
    pub fn mode(&self, i: usize) -> PmpMode {
        match (self.cfg[i] >> 3) & 0b11 {
            0 => PmpMode::Off,
            1 => PmpMode::Tor,
            2 => PmpMode::Na4,
            _ => PmpMode::Napot,
        }
    }

    /// Whether entry `i` is locked.
    ///
    /// # Panics
    /// Panics if `i >= 8`.
    #[must_use]
    pub fn is_locked(&self, i: usize) -> bool {
        self.cfg[i] & CFG_L != 0
    }

    /// The byte range `[start, end)` matched by entry `i`, if enabled.
    #[must_use]
    pub fn entry_range(&self, i: usize) -> Option<(u64, u64)> {
        match self.mode(i) {
            PmpMode::Off => None,
            PmpMode::Tor => {
                let lo = if i == 0 { 0 } else { self.addr[i - 1] << 2 };
                let hi = self.addr[i] << 2;
                (lo < hi).then_some((lo, hi))
            }
            PmpMode::Na4 => {
                let base = self.addr[i] << 2;
                Some((base, base + 4))
            }
            PmpMode::Napot => {
                // Trailing ones in pmpaddr encode the region size.
                let ones = self.addr[i].trailing_ones() as u64;
                let size = 8u64 << ones;
                let base = (self.addr[i] & !((1u64 << ones) - 1)) << 2;
                Some((base, base.saturating_add(size)))
            }
        }
    }

    /// Whether any entry is enabled (mode other than OFF). In the reset
    /// state this is `false`, and [`Pmp::allows`] then holds for every
    /// address and access kind — the fast path the predecoded dispatch
    /// uses to skip per-fetch PMP checks until a `pmpcfg` write arms an
    /// entry.
    #[must_use]
    pub fn any_active(&self) -> bool {
        (0..8).any(|i| self.mode(i) != PmpMode::Off)
    }

    /// Finds the lowest-numbered entry matching `addr`, returning
    /// `(index, cfg byte)`.
    #[must_use]
    pub fn matching_entry(&self, addr: u64) -> Option<(usize, u8)> {
        (0..8).find_map(|i| {
            let (lo, hi) = self.entry_range(i)?;
            (addr >= lo && addr < hi).then_some((i, self.cfg[i]))
        })
    }

    /// Whether a machine-mode access to `addr` is permitted.
    ///
    /// M-mode accesses are only constrained by locked entries; an unmatched
    /// address is always allowed in M-mode.
    #[must_use]
    pub fn allows(&self, addr: u64, kind: AccessKind) -> bool {
        match self.matching_entry(addr) {
            None => true,
            Some((_, cfg)) => {
                if cfg & CFG_L == 0 {
                    return true; // unlocked entries do not bind M-mode
                }
                match kind {
                    AccessKind::Fetch => cfg & CFG_X != 0,
                    AccessKind::Load => cfg & CFG_R != 0,
                    AccessKind::Store => cfg & CFG_W != 0,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the NAPOT `pmpaddr` encoding for `base..base+size`.
    fn napot(base: u64, size: u64) -> u64 {
        assert!(size.is_power_of_two() && size >= 8);
        (base >> 2) | ((size >> 3) - 1)
    }

    #[test]
    fn any_active_tracks_enabled_entries() {
        let mut p = Pmp::new();
        assert!(!p.any_active(), "reset state has every entry off");
        for addr in [0, 0x8000_0000, u64::MAX] {
            for kind in [AccessKind::Fetch, AccessKind::Load, AccessKind::Store] {
                assert!(p.allows(addr, kind), "inactive PMP allows everything");
            }
        }
        p.write_cfg0(0x18); // NAPOT, unlocked
        assert!(p.any_active());
    }

    #[test]
    fn napot_range_decoding() {
        let mut p = Pmp::new();
        p.write_cfg0(0x18); // NAPOT, no perms, unlocked
        p.write_addr(0, napot(0x8000_4000, 0x1000));
        assert_eq!(p.entry_range(0), Some((0x8000_4000, 0x8000_5000)));
    }

    #[test]
    fn na4_and_tor_ranges() {
        let mut p = Pmp::new();
        // Entry 0: NA4 at 0x8000_1000.
        // Entry 1: TOR over [pmpaddr0<<2, pmpaddr1<<2).
        p.write_addr(0, 0x8000_1000 >> 2);
        p.write_addr(1, 0x8000_2000 >> 2);
        p.write_cfg0(0x10 | (0x08 << 8)); // NA4, TOR
        assert_eq!(p.entry_range(0), Some((0x8000_1000, 0x8000_1004)));
        assert_eq!(p.entry_range(1), Some((0x8000_1000, 0x8000_2000)));
    }

    #[test]
    fn unlocked_entries_do_not_bind_machine_mode() {
        let mut p = Pmp::new();
        p.write_cfg0(0x18); // NAPOT, no perms, unlocked
        p.write_addr(0, napot(0x8000_4000, 0x1000));
        assert!(p.allows(0x8000_4000, AccessKind::Load));
        assert!(p.allows(0x8000_4000, AccessKind::Store));
    }

    #[test]
    fn locked_entry_denies_by_permission() {
        let mut p = Pmp::new();
        p.write_addr(0, napot(0x8000_4000, 0x1000));
        p.write_cfg0(0x98 | 0x01); // L | NAPOT | R
        assert!(p.allows(0x8000_4100, AccessKind::Load));
        assert!(!p.allows(0x8000_4100, AccessKind::Store));
        assert!(!p.allows(0x8000_4100, AccessKind::Fetch));
        assert!(p.allows(0x8000_5000, AccessKind::Store), "outside region");
    }

    #[test]
    fn locked_cfg_byte_is_write_protected() {
        let mut p = Pmp::new();
        p.write_cfg0(0x98);
        p.write_cfg0(0x1F); // attempt to grant RWX and unlock
        assert!(p.is_locked(0));
        assert!(!p.allows(0, AccessKind::Load) || p.entry_range(0).is_none());
        assert_eq!(p.cfg0() & 0xFF, 0x98);
    }

    #[test]
    fn locked_addr_is_write_protected() {
        let mut p = Pmp::new();
        p.write_addr(0, napot(0x8000_4000, 0x1000));
        p.write_cfg0(0x98);
        let before = p.addr(0);
        p.write_addr(0, 0);
        assert_eq!(p.addr(0), before);
    }

    #[test]
    fn tor_base_register_locked_via_next_entry() {
        let mut p = Pmp::new();
        p.write_addr(0, 0x8000_1000 >> 2);
        p.write_addr(1, 0x8000_2000 >> 2);
        p.write_cfg0(0x88 << 8); // entry 1: L | TOR
        let before = p.addr(0);
        p.write_addr(0, 0);
        assert_eq!(p.addr(0), before, "TOR base is protected by the lock");
    }

    #[test]
    fn write_without_read_is_squashed() {
        let mut p = Pmp::new();
        p.write_addr(0, napot(0x8000_4000, 0x1000));
        p.write_cfg0(0x9A); // L | NAPOT | W (no R) — reserved combination
                            // Degrades to no-access rather than a write-only region.
        assert!(!p.allows(0x8000_4000, AccessKind::Store));
        assert!(!p.allows(0x8000_4000, AccessKind::Load));
    }

    #[test]
    fn lowest_numbered_entry_wins() {
        let mut p = Pmp::new();
        // Entry 0 locked R-only over the region, entry 1 locked RWX over a
        // superset: entry 0 must take priority.
        p.write_addr(0, napot(0x8000_4000, 0x1000));
        p.write_addr(1, napot(0x8000_0000, 0x10000));
        p.write_cfg0(0x99 | (0x9F << 8));
        assert!(!p.allows(0x8000_4000, AccessKind::Store));
        assert!(p.allows(0x8000_3000, AccessKind::Store));
    }
}
