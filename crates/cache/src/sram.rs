//! A functional set-associative cache with LRU replacement.
//!
//! The model tracks tags, valid/dirty bits, and recency only; data payloads
//! are never simulated. Writes allocate and mark dirty; evicted dirty lines
//! are reported to the caller so it can generate write-back traffic. Each
//! line is 16 bytes of host memory (see `Line`).

use h2_sim_core::units::Cycles;

/// Static configuration of one cache instance.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Display name ("cpu0.l1d", "llc", ...).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access latency in cycles (hit latency; misses pay it on probe too).
    pub latency: Cycles,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines / self.ways as u64;
        assert!(sets > 0, "cache too small for its associativity");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (got {sets})"
        );
        sets
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was filled; a victim may have been evicted.
    Miss {
        /// Evicted line address and dirtiness, if a valid line was displaced.
        victim: Option<(u64, bool)>,
    },
}

/// One line's state in 16 bytes: `key` packs the tag with the valid and
/// dirty flags (`tag << 2 | dirty << 1 | valid`), so the hit test is one
/// compare, and `stamp` is the LRU recency. Aligned to 16 bytes, a line
/// never straddles two 64-byte host cache lines, and a 16-way set spans
/// four or five of them.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(16))]
struct Line {
    key: u64,
    stamp: u64,
}

const VALID: u64 = 1;
const DIRTY: u64 = 2;

impl Line {
    /// The `key` of a valid, clean line holding `tag`; a resident line
    /// matches it once its dirty bit is masked off.
    #[inline]
    fn valid_key(tag: u64) -> u64 {
        tag << 2 | VALID
    }

    #[inline]
    fn holds(&self, key: u64) -> bool {
        self.key & !DIRTY == key
    }

    #[inline]
    fn valid(&self) -> bool {
        self.key & VALID != 0
    }

    #[inline]
    fn dirty(&self) -> bool {
        self.key & DIRTY != 0
    }
}

/// Running hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Dirty evictions (write-back traffic generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 if no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative, write-back, write-allocate, LRU cache.
#[derive(Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: u64,
    /// `log2(line_bytes)` / `log2(sets)` — the geometry is power-of-two, so
    /// the per-access index math is shifts and masks, not `div`/`rem` (this
    /// runs for every L1/L2/LLC reference the front-ends generate).
    line_shift: u32,
    set_shift: u32,
    lines: Vec<Line>,
    /// Per-set most-recently-hit way. Checked before the associative scan:
    /// tags are unique within a set, so a verified hint hit is the same
    /// line the scan would find, and a stale hint merely falls through.
    mru: Vec<u32>,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build a cache from its configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two (got {})",
            cfg.line_bytes
        );
        let (line_shift, set_shift) = (cfg.line_bytes.trailing_zeros(), sets.trailing_zeros());
        // A tag has `64 - line_shift - set_shift` bits; `Line::key` needs
        // two spare ones for the flags.
        assert!(
            line_shift + set_shift >= 2,
            "line size x sets must be at least 4 to leave room for the line flags"
        );
        let lines = vec![Line::default(); (sets * cfg.ways as u64) as usize];
        Self {
            line_shift,
            set_shift,
            cfg,
            sets,
            lines,
            mru: vec![0; sets as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access latency (applies to hits and to the probe part of misses).
    pub fn latency(&self) -> Cycles {
        self.cfg.latency
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn index(&self, addr: u64) -> (u64, u64) {
        let line = addr >> self.line_shift;
        (line & (self.sets - 1), line >> self.set_shift)
    }

    #[inline]
    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let base = (set * self.cfg.ways as u64) as usize;
        base..base + self.cfg.ways
    }

    /// Access `addr`; allocates on miss. Returns hit/miss plus any victim.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        let range = self.set_range(set);
        let key = Line::valid_key(tag);
        let dirty = if is_write { DIRTY } else { 0 };

        // MRU short-circuit: re-references of the last-hit way (the common
        // case on streaming and tight loops) skip the associative scan.
        let hinted = range.start + self.mru[set as usize] as usize;
        {
            let l = &mut self.lines[hinted];
            if l.holds(key) {
                l.stamp = self.tick;
                l.key |= dirty;
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
        }

        // Hit path.
        for i in range.clone() {
            let l = &mut self.lines[i];
            if l.holds(key) {
                l.stamp = self.tick;
                l.key |= dirty;
                self.stats.hits += 1;
                self.mru[set as usize] = (i - range.start) as u32;
                return AccessOutcome::Hit;
            }
        }

        // Miss: pick invalid way or LRU victim.
        self.stats.misses += 1;
        let mut victim_idx = range.start;
        let mut victim_stamp = u64::MAX;
        let mut found_invalid = false;
        for i in range.clone() {
            let l = &self.lines[i];
            if !l.valid() {
                victim_idx = i;
                found_invalid = true;
                break;
            }
            if l.stamp < victim_stamp {
                victim_stamp = l.stamp;
                victim_idx = i;
            }
        }

        let victim = if found_invalid {
            None
        } else {
            let l = self.lines[victim_idx];
            let victim_line = (l.key >> 2) * self.sets + set;
            if l.dirty() {
                self.stats.writebacks += 1;
            }
            Some((victim_line * self.cfg.line_bytes, l.dirty()))
        };

        self.lines[victim_idx] = Line {
            key: key | dirty,
            stamp: self.tick,
        };
        self.mru[set as usize] = (victim_idx - range.start) as u32;
        AccessOutcome::Miss { victim }
    }

    /// Number of valid lines (occupancy) — used by tests and warm-up checks.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(ways: usize) -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            name: "t".into(),
            size_bytes: 4 * 64 * ways as u64, // 4 sets
            ways,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small(2);
        assert!(matches!(c.access(0, false), AccessOutcome::Miss { .. }));
        assert_eq!(c.access(0, false), AccessOutcome::Hit);
        assert_eq!(c.access(63, false), AccessOutcome::Hit, "same line");
        assert!(matches!(c.access(64, false), AccessOutcome::Miss { .. }));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(2);
        // Set 0 holds lines with line_index % 4 == 0: lines 0, 4, 8 -> addrs 0, 256, 512.
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // touch 0 again; 256 is now LRU
        match c.access(512, false) {
            AccessOutcome::Miss { victim: Some((addr, dirty)) } => {
                assert_eq!(addr, 256);
                assert!(!dirty);
            }
            o => panic!("expected eviction of 256, got {o:?}"),
        }
        // 0 stayed resident and 256 left: 512 is now the LRU line.
        assert_eq!(c.access(0, false), AccessOutcome::Hit);
        assert_eq!(
            c.access(256, false),
            AccessOutcome::Miss { victim: Some((512, false)) }
        );
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small(2);
        c.access(0, true);
        c.access(256, false);
        c.access(256, false);
        // 0 is LRU and dirty.
        match c.access(512, false) {
            AccessOutcome::Miss { victim: Some((addr, dirty)) } => {
                assert_eq!(addr, 0);
                assert!(dirty);
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small(2);
        c.access(0, false);
        c.access(0, true); // dirty via hit
        c.access(256, false);
        c.access(256, false);
        match c.access(512, false) {
            AccessOutcome::Miss { victim: Some((_, dirty)) } => assert!(dirty),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn victim_address_reconstruction() {
        let mut c = small(1);
        // 4 sets, direct mapped: line 5 -> set 1; line 9 -> set 1.
        c.access(5 * 64, true);
        match c.access(9 * 64, false) {
            AccessOutcome::Miss { victim: Some((addr, dirty)) } => {
                assert_eq!(addr, 5 * 64);
                assert!(dirty);
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut c = small(4); // 16 lines
        for i in 0..100 {
            c.access(i * 64, false);
        }
        assert_eq!(c.occupancy(), 16);
    }

    #[test]
    fn table1_llc_geometry() {
        let llc = CacheConfig {
            name: "llc".into(),
            size_bytes: 16 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
            latency: 38,
        };
        assert_eq!(llc.num_sets(), 16384);
    }

    /// The plain LRU `SetAssocCache` must reproduce: per way a `(tag,
    /// valid, dirty, stamp)` tuple, filled into the first invalid way or
    /// else the least recently used one.
    struct RefCache {
        sets: u64,
        ways: usize,
        line_bytes: u64,
        lines: Vec<(u64, bool, bool, u64)>,
        tick: u64,
        stats: CacheStats,
    }

    impl RefCache {
        fn new(sets: u64, ways: usize, line_bytes: u64) -> Self {
            Self {
                sets,
                ways,
                line_bytes,
                lines: vec![(0, false, false, 0); sets as usize * ways],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        /// `(set, tag, way range)` of `addr`.
        fn locate(&self, addr: u64) -> (u64, u64, std::ops::Range<usize>) {
            let line = addr / self.line_bytes;
            let set = line % self.sets;
            let base = set as usize * self.ways;
            (set, line / self.sets, base..base + self.ways)
        }

        fn find(&self, addr: u64) -> Option<usize> {
            let (_, tag, r) = self.locate(addr);
            r.into_iter()
                .find(|&i| self.lines[i].1 && self.lines[i].0 == tag)
        }

        fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
            self.tick += 1;
            if let Some(i) = self.find(addr) {
                let l = &mut self.lines[i];
                l.2 |= is_write;
                l.3 = self.tick;
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
            self.stats.misses += 1;
            let (set, tag, r) = self.locate(addr);
            let i = match r.clone().find(|&i| !self.lines[i].1) {
                Some(i) => i,
                None => r.min_by_key(|&i| self.lines[i].3).unwrap(),
            };
            let (old_tag, valid, dirty, _) = self.lines[i];
            let victim = valid.then(|| ((old_tag * self.sets + set) * self.line_bytes, dirty));
            if valid && dirty {
                self.stats.writebacks += 1;
            }
            self.lines[i] = (tag, true, is_write, self.tick);
            AccessOutcome::Miss { victim }
        }

        fn occupancy(&self) -> usize {
            self.lines.iter().filter(|l| l.1).count()
        }
    }

    /// Seeded churn against the reference LRU at 1, 2, 8 and 16 ways:
    /// reads and writes over a footprint three
    /// times the capacity plus addresses within 4 KiB of `u64::MAX` (the
    /// largest tags), comparing every outcome (victim address and
    /// dirtiness included), the stats and the occupancy after each
    /// operation. The 1-set, 4-byte-line geometry leaves tags exactly the
    /// two spare bits the packed key needs, so any wider packing loses
    /// tag bits there.
    #[test]
    fn packed_lines_match_reference_lru_under_churn() {
        for (sets, line_bytes) in [(4u64, 64u64), (1, 4)] {
            for ways in [1usize, 2, 8, 16] {
                for seed in 0..3u64 {
                    let mut c = SetAssocCache::new(CacheConfig {
                        name: "t".into(),
                        size_bytes: sets * line_bytes * ways as u64,
                        ways,
                        line_bytes,
                        latency: 1,
                    });
                    let mut r = RefCache::new(sets, ways, line_bytes);
                    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ways as u64;
                    let footprint = 3 * sets * ways as u64;
                    for step in 0..4000 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let x = state >> 11;
                        let addr = if x & 3 == 0 {
                            u64::MAX - (x >> 2) % 4096
                        } else {
                            ((x >> 2) % footprint) * line_bytes + (x >> 20) % line_bytes
                        };
                        let at = format!(
                            "{sets} sets of {ways} {line_bytes}-byte lines, seed {seed}, \
                             step {step}, addr {addr:#x}"
                        );
                        let is_write = (x >> 40) & 3 == 0;
                        assert_eq!(c.access(addr, is_write), r.access(addr, is_write), "{at}");
                        assert_eq!(c.stats(), r.stats, "{at}");
                        assert_eq!(c.occupancy(), r.occupancy(), "{at}");
                    }
                    assert!(
                        r.stats.writebacks > 0 && r.occupancy() > 0,
                        "{sets} sets of {ways} ways: churn too mild"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "room for the line flags")]
    fn geometry_without_room_for_flags_rejected() {
        SetAssocCache::new(CacheConfig {
            name: "bad".into(),
            size_bytes: 2,
            ways: 1,
            line_bytes: 1,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        SetAssocCache::new(CacheConfig {
            name: "bad".into(),
            size_bytes: 3 * 64 * 2,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        });
    }
}
