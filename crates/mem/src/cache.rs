//! A generic set-associative cache timing model.
//!
//! This models *timing state only* (tags, LRU, dirty bits): the simulator's
//! data values come from the functional emulator's oracle stream, so the
//! cache never stores data.

use std::fmt;

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Line size in bytes (a power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Creates a config and validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or the capacity is not
    /// an integer number of sets.
    pub fn new(size_bytes: u64, ways: u64, line_bytes: u64) -> CacheConfig {
        let cfg = CacheConfig {
            size_bytes,
            ways,
            line_bytes,
        };
        cfg.assert_geometry();
        cfg
    }

    /// Asserts the geometry [`new`](Self::new) promises: power-of-two
    /// lines and sets, and a capacity that divides evenly into sets.
    fn assert_geometry(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways >= 1, "need at least one way");
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(
            lines % self.ways,
            0,
            "capacity must divide evenly into sets"
        );
        assert!(
            (lines / self.ways).is_power_of_two(),
            "number of sets must be a power of two"
        );
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.ways
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB, {}-way, {}B lines",
            self.size_bytes / 1024,
            self.ways,
            self.line_bytes
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Dirty lines evicted (write-backs).
    pub writebacks: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, write-allocate, LRU cache (timing state only).
///
/// # Examples
///
/// ```
/// use contopt_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64));
/// assert!(!c.access(0x0, false)); // cold miss
/// assert!(c.access(0x8, false));  // same line: hit
/// assert_eq!(c.stats().misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
    // Indexing without division: an address's line number is
    // `addr >> line_shift`, its set `line & set_mask`, its tag
    // `line >> set_shift`.
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`CacheConfig::new`] would refuse (its
    /// fields are public, so a config can be built without it).
    pub fn new(cfg: CacheConfig) -> Cache {
        cfg.assert_geometry();
        let sets = cfg.sets();
        Cache {
            cfg,
            lines: vec![Line::default(); (sets * cfg.ways) as usize],
            clock: 0,
            stats: CacheStats::default(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The first line slot of `addr`'s set, and its tag.
    #[inline]
    fn set_range(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        (set * self.cfg.ways as usize, line >> self.set_shift)
    }

    /// Accesses `addr`; allocates on miss; returns `true` on hit.
    ///
    /// Write misses allocate (write-allocate); a dirty eviction bumps the
    /// write-back counter.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let (base, tag) = self.set_range(addr);
        let ways = self.cfg.ways as usize;

        // Probe.
        for i in base..base + ways {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return true;
            }
        }

        // Miss: pick the LRU (or first invalid) victim.
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + ways {
            let line = &self.lines[i];
            if !line.valid {
                victim = i;
                break;
            }
            if line.lru < best {
                best = line.lru;
                victim = i;
            }
        }
        let line = &mut self.lines[victim];
        if line.valid && line.dirty {
            self.stats.writebacks += 1;
        }
        *line = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.clock,
        };
        false
    }

    /// Whether `addr` currently resides in the cache (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.set_range(addr);
        self.lines[base..base + self.cfg.ways as usize]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates everything (keeps statistics).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets, 2 ways, 16B lines = 128B
        Cache::new(CacheConfig::new(128, 2, 16))
    }

    #[test]
    fn geometry() {
        let cfg = CacheConfig::new(32 * 1024, 2, 32);
        assert_eq!(cfg.sets(), 512);
        assert_eq!(cfg.to_string(), "32KB, 2-way, 32B lines");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size() {
        let _ = CacheConfig::new(128, 2, 12);
    }

    #[test]
    #[should_panic(expected = "number of sets must be a power of two")]
    fn hand_built_geometry_is_checked_too() {
        // 12 sets of one 16-byte line: shift-and-mask indexing would
        // silently alias sets, so `Cache::new` refuses it like
        // `CacheConfig::new` does.
        let _ = Cache::new(CacheConfig {
            size_bytes: 192,
            ways: 1,
            line_bytes: 16,
        });
    }

    #[test]
    fn shift_indexing_matches_division() {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for cfg in [
            CacheConfig::new(128, 2, 16),
            CacheConfig::new(64 * 1024, 4, 64),
            CacheConfig::new(32 * 1024, 2, 32),
            CacheConfig::new(1024 * 1024, 2, 128),
            CacheConfig::new(256, 4, 64),
        ] {
            let c = Cache::new(cfg);
            for _ in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = x / cfg.line_bytes;
                let want = (
                    (line % cfg.sets()) as usize * cfg.ways as usize,
                    line / cfg.sets(),
                );
                assert_eq!(c.set_range(x), want, "{cfg} at {x:#x}");
            }
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert!(c.access(0x10f, false), "same line");
        assert!(!c.access(0x110, false), "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 sets * 16B = 64B).
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x000, false); // refresh first
        c.access(0x080, false); // evicts 0x040
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
        assert!(c.probe(0x080));
    }

    #[test]
    fn writeback_counting() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x040, false);
        c.access(0x080, false); // evicts dirty 0x000
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x0, false);
        c.flush();
        assert!(!c.probe(0x0));
        assert!(!c.access(0x0, false));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        for i in 0..8 {
            c.access(i * 16, false);
        }
        for i in 0..8 {
            c.access(i * 16, false);
        }
        assert_eq!(c.stats().accesses, 16);
        assert_eq!(c.stats().hits, 8);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
