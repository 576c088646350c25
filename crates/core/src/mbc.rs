//! The Memory Bypass Cache (MBC) used by redundant load elimination and
//! store forwarding (§3.2 of the paper).
//!
//! A small direct-mapped cache keyed by the 8-byte-aligned address, the
//! offset within the aligned word, and the access size — all three must
//! match for a hit. The line data is *precisely the RAT's symbolic value*
//! for the memory word: the physical register (or known constant) that
//! produced or last loaded it.
//!
//! Entries hold reference-counted claims on their base physical registers,
//! which implements the paper's requirement that forwarding only happens
//! while "the physical destination of the first load still contains its
//! value".
//!
//! As in the RAT ([`crate::SymRat`]), the cache keeps the exact number of
//! entries based on each physical register, so a value-feedback sweep for
//! a register no entry references is skipped.

use crate::preg::{PhysReg, PregFile};
use crate::symval::SymValue;
use contopt_isa::MemSize;

#[derive(Debug, Clone, Copy)]
struct MbcEntry {
    aligned: u64,
    offset: u8,
    size: u8,
    data: SymValue,
}

/// MBC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MbcStats {
    /// Load lookups performed.
    pub lookups: u64,
    /// Lookups that matched (before value verification).
    pub hits: u64,
    /// Entries written (loads filling, stores forwarding).
    pub inserts: u64,
    /// Whole-cache flushes (conservative unknown-address-store policy).
    pub flushes: u64,
}

impl MbcStats {
    /// Percentage of lookups that matched, before value verification —
    /// `0.0` (never `NaN`) when no lookups occurred. Shares the guarded
    /// [`crate::pct`] helper with every other derived percentage.
    pub fn pct_hits(&self) -> f64 {
        crate::stats::pct(self.hits, self.lookups)
    }
}

/// The Memory Bypass Cache.
///
/// # Examples
///
/// ```
/// use contopt::{Mbc, PregFile, SymValue, PhysReg};
/// use contopt_isa::MemSize;
///
/// let mut pregs = PregFile::new(8);
/// let p = pregs.alloc().unwrap();
/// let mut mbc = Mbc::new(4, pregs.capacity());
/// mbc.insert(0x1000, MemSize::Quad, SymValue::reg(p), &mut pregs);
/// assert_eq!(mbc.lookup(0x1000, MemSize::Quad), Some(SymValue::reg(p)));
/// assert_eq!(mbc.lookup(0x1000, MemSize::Long), None, "size must match");
/// ```
#[derive(Debug, Clone)]
pub struct Mbc {
    entries: Vec<Option<MbcEntry>>,
    /// Per physical register: how many entries have it as base.
    base_uses: Vec<u32>,
    stats: MbcStats,
}

impl Mbc {
    /// Creates an empty MBC with `entries` slots (must be a power of two)
    /// whose data may be based on any of `preg_count` physical registers.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, preg_count: usize) -> Mbc {
        assert!(entries.is_power_of_two(), "MBC size must be a power of two");
        Mbc {
            entries: vec![None; entries],
            base_uses: vec![0; preg_count],
            stats: MbcStats::default(),
        }
    }

    /// Drops `data`'s base claim and its base use.
    #[inline]
    fn drop_data(&mut self, data: SymValue, pregs: &mut PregFile) {
        if let Some(b) = data.base() {
            pregs.release(b);
            self.base_uses[b.index()] -= 1;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MbcStats {
        self.stats
    }

    /// Number of valid entries (for tests/reporting).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    #[inline]
    fn index(&self, aligned: u64) -> usize {
        ((aligned >> 3) as usize) & (self.entries.len() - 1)
    }

    fn split(addr: u64) -> (u64, u8) {
        (addr & !7, (addr & 7) as u8)
    }

    /// Looks up a load at `addr`/`size`; returns the forwarded symbolic data
    /// on a full tag+offset+size match. Counts a lookup.
    pub fn lookup(&mut self, addr: u64, size: MemSize) -> Option<SymValue> {
        self.stats.lookups += 1;
        let (aligned, offset) = Self::split(addr);
        let e = self.entries[self.index(aligned)].as_ref()?;
        if e.aligned == aligned && e.offset == offset && e.size == size.bytes() as u8 {
            self.stats.hits += 1;
            Some(e.data)
        } else {
            None
        }
    }

    /// Checks whether a matching entry exists without counting a lookup
    /// (used by the bundle logic to detect intra-bundle chained accesses).
    pub fn probe(&self, addr: u64, size: MemSize) -> Option<SymValue> {
        let (aligned, offset) = Self::split(addr);
        let e = self.entries[self.index(aligned)].as_ref()?;
        (e.aligned == aligned && e.offset == offset && e.size == size.bytes() as u8)
            .then_some(e.data)
    }

    /// Installs (or replaces) the entry for `addr`/`size` with `data`,
    /// acquiring a reference on `data`'s base register and releasing the
    /// victim's.
    pub fn insert(&mut self, addr: u64, size: MemSize, data: SymValue, pregs: &mut PregFile) {
        self.stats.inserts += 1;
        let (aligned, offset) = Self::split(addr);
        if let Some(b) = data.base() {
            pregs.add_ref(b);
            self.base_uses[b.index()] += 1;
        }
        let slot = self.index(aligned);
        if let Some(old) = self.entries[slot].take() {
            self.drop_data(old.data, pregs);
        }
        self.entries[slot] = Some(MbcEntry {
            aligned,
            offset,
            size: size.bytes() as u8,
            data,
        });
    }

    /// Removes the entry matching `addr` exactly (any offset/size in the
    /// same aligned word), releasing its base reference. Used when strict
    /// value checking rejects a forward (stale speculative entry).
    pub fn invalidate(&mut self, addr: u64, pregs: &mut PregFile) {
        let (aligned, _) = Self::split(addr);
        let slot = self.index(aligned);
        if let Some(e) = self.entries[slot] {
            if e.aligned == aligned {
                self.drop_data(e.data, pregs);
                self.entries[slot] = None;
            }
        }
    }

    /// Invalidates everything (the conservative unknown-address-store
    /// policy), releasing all base references.
    pub fn flush(&mut self, pregs: &mut PregFile) {
        self.stats.flushes += 1;
        for slot in 0..self.entries.len() {
            if let Some(e) = self.entries[slot].take() {
                self.drop_data(e.data, pregs);
            }
        }
    }

    /// CAM-style value feedback: every entry whose base is `p` becomes a
    /// known constant. Returns the number of entries converted.
    ///
    /// Skips the sweep when no entry is based on `p`, and stops it once
    /// the last such entry is converted; entries are converted in slot
    /// order either way.
    pub fn feed_back(&mut self, p: PhysReg, v: u64, pregs: &mut PregFile) -> u64 {
        let uses = std::mem::take(&mut self.base_uses[p.index()]);
        let mut left = uses;
        for slot in self.entries.iter_mut().flatten() {
            if left == 0 {
                break;
            }
            if let Some(k) = slot.data.feed_back(p, v) {
                slot.data = k;
                pregs.release(p);
                left -= 1;
            }
        }
        debug_assert_eq!(left, 0, "base-use count out of step with the cache");
        uses as u64
    }

    /// The unfiltered CAM sweep `feed_back` must agree with.
    #[cfg(test)]
    fn feed_back_unfiltered(&mut self, p: PhysReg, v: u64, pregs: &mut PregFile) -> u64 {
        let mut converted = 0;
        for slot in self.entries.iter_mut().flatten() {
            if let Some(k) = slot.data.feed_back(p, v) {
                slot.data = k;
                pregs.release(p);
                converted += 1;
            }
        }
        converted
    }

    /// The per-register base uses, recounted from the entries.
    #[cfg(test)]
    fn recount_base_uses(&self) -> Vec<u32> {
        let mut uses = vec![0; self.base_uses.len()];
        for b in self.entries.iter().flatten().filter_map(|e| e.data.base()) {
            uses[b.index()] += 1;
        }
        uses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Mbc, PregFile, PhysReg) {
        let mut pregs = PregFile::new(16);
        let p = pregs.alloc().unwrap();
        (Mbc::new(8, pregs.capacity()), pregs, p)
    }

    #[test]
    fn exact_match_required() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x1004, MemSize::Long, SymValue::reg(p), &mut pregs);
        assert!(mbc.lookup(0x1004, MemSize::Long).is_some());
        assert!(
            mbc.lookup(0x1000, MemSize::Long).is_none(),
            "offset differs"
        );
        assert!(mbc.lookup(0x1004, MemSize::Word).is_none(), "size differs");
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let (mut mbc, mut pregs, p) = setup();
        // 8 entries: addresses 0x0 and 0x8*8=0x40 collide.
        mbc.insert(0x0, MemSize::Quad, SymValue::reg(p), &mut pregs);
        let before = pregs.ref_count(p);
        mbc.insert(0x40, MemSize::Quad, SymValue::Known(1), &mut pregs);
        assert!(mbc.lookup(0x0, MemSize::Quad).is_none());
        assert_eq!(pregs.ref_count(p), before - 1, "victim's ref released");
    }

    #[test]
    fn refcounts_pin_base_registers() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x20, MemSize::Quad, SymValue::reg(p), &mut pregs);
        assert_eq!(pregs.ref_count(p), 2);
        pregs.release(p); // producer drops its claim
        assert!(pregs.is_live(p), "MBC keeps the register alive");
        mbc.invalidate(0x20, &mut pregs);
        assert!(!pregs.is_live(p));
    }

    #[test]
    fn flush_releases_everything() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x10, MemSize::Quad, SymValue::reg(p), &mut pregs);
        mbc.insert(0x18, MemSize::Quad, SymValue::reg(p), &mut pregs);
        assert_eq!(pregs.ref_count(p), 3);
        mbc.flush(&mut pregs);
        assert_eq!(pregs.ref_count(p), 1);
        assert_eq!(mbc.occupancy(), 0);
        assert_eq!(mbc.stats().flushes, 1);
    }

    #[test]
    fn feedback_converts_to_known() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x30, MemSize::Quad, SymValue::reg(p), &mut pregs);
        let n = mbc.feed_back(p, 99, &mut pregs);
        assert_eq!(n, 1);
        assert_eq!(mbc.lookup(0x30, MemSize::Quad), Some(SymValue::Known(99)));
        assert_eq!(pregs.ref_count(p), 1, "base ref released on conversion");
    }

    #[test]
    fn known_data_needs_no_refs() {
        let (mut mbc, mut pregs, _) = setup();
        mbc.insert(0x8, MemSize::Byte, SymValue::Known(0xab), &mut pregs);
        assert_eq!(mbc.lookup(0x8, MemSize::Byte), Some(SymValue::Known(0xab)));
        mbc.flush(&mut pregs); // must not underflow any count
    }

    #[test]
    fn base_use_counts_track_random_operations() {
        use crate::testutil::{random_sym, ref_state, Rng};
        const SIZES: [MemSize; 4] = [MemSize::Byte, MemSize::Word, MemSize::Long, MemSize::Quad];
        for seed in 1..=8u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut pregs = PregFile::new(64);
            let mut mbc = Mbc::new(16, pregs.capacity());
            // Registers the test holds a producer claim on; entries may
            // only be based on live registers.
            let mut held: Vec<PhysReg> = Vec::new();
            for step in 0..3000 {
                // 32 aligned words over 16 slots: inserts both hit and evict.
                let addr = (rng.below(32) as u64) * 8 + rng.below(8) as u64;
                match rng.below(7) {
                    0 | 1 => {
                        if let Some(p) = pregs.alloc() {
                            held.push(p);
                        }
                    }
                    2 if !held.is_empty() => {
                        let p = held.swap_remove(rng.below(held.len()));
                        pregs.release(p);
                    }
                    3 => {
                        let size = SIZES[rng.below(SIZES.len())];
                        let data = random_sym(&mut rng, &held);
                        mbc.insert(addr, size, data, &mut pregs);
                    }
                    4 => mbc.invalidate(addr, &mut pregs),
                    5 if rng.below(20) == 0 => mbc.flush(&mut pregs),
                    _ => {
                        // Feed back a held register, or any register at all
                        // (most have no entry based on them).
                        let p = if !held.is_empty() && rng.below(2) == 0 {
                            held[rng.below(held.len())]
                        } else {
                            PhysReg::from_index(rng.below(pregs.capacity()))
                        };
                        let v = rng.next();
                        let (mut ref_mbc, mut ref_pregs) = (mbc.clone(), pregs.clone());
                        let want = ref_mbc.feed_back_unfiltered(p, v, &mut ref_pregs);
                        let got = mbc.feed_back(p, v, &mut pregs);
                        assert_eq!(got, want, "seed {seed} step {step}: converted");
                        assert_eq!(ref_state(&pregs), ref_state(&ref_pregs));
                        for a in 0..32 * 8 {
                            for size in SIZES {
                                assert_eq!(mbc.probe(a, size), ref_mbc.probe(a, size));
                            }
                        }
                    }
                }
                assert_eq!(
                    mbc.base_uses,
                    mbc.recount_base_uses(),
                    "seed {seed} step {step}: base-use counts"
                );
            }
        }
    }

    #[test]
    fn stats_track_hit_rate() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x100, MemSize::Quad, SymValue::reg(p), &mut pregs);
        mbc.lookup(0x100, MemSize::Quad);
        mbc.lookup(0x108, MemSize::Quad);
        let s = mbc.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.inserts, 1);
    }
}
