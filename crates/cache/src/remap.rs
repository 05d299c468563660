//! The on-chip SRAM remap cache.
//!
//! State-of-the-art hybrid memories keep the physical→device remap table in
//! the fast memory and cache recently used entries in a small on-chip SRAM
//! (§III-A). We model it as a set-associative cache keyed by *hybrid-memory
//! set id*: one entry covers one set's worth of remap metadata. A miss costs
//! a real 64 B metadata read from the fast memory (issued by the hybrid
//! layer), and evicting a dirty entry costs a metadata write-back.

use crate::sram::{AccessOutcome, CacheConfig, SetAssocCache};
use h2_sim_core::prof;
use h2_sim_core::units::Cycles;

/// Result of a remap-cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapLookup {
    /// Entry on chip; metadata available after the SRAM latency.
    Hit,
    /// Entry must be fetched from the remap table in fast memory. If a dirty
    /// entry was displaced, its set id is reported for write-back.
    Miss {
        /// Displaced dirty entry (set id) needing write-back, if any.
        dirty_victim: Option<u64>,
    },
}

/// On-chip cache of remap-table entries, default 256 kB (§V).
#[derive(Debug)]
pub struct RemapCache {
    inner: SetAssocCache,
}

/// Bytes of remap metadata per hybrid-memory set that the cache manages.
/// One 64 B line comfortably holds 4-16 way entries (tag + flags each).
pub const ENTRY_BYTES: u64 = 64;

impl RemapCache {
    /// Build a remap cache of `size_bytes` capacity (8-way, 2-cycle SRAM).
    pub fn new(size_bytes: u64) -> Self {
        Self {
            inner: SetAssocCache::new(CacheConfig {
                name: "remap$".into(),
                size_bytes,
                ways: 8,
                line_bytes: ENTRY_BYTES,
                latency: 2,
            }),
        }
    }

    /// SRAM probe latency.
    pub fn latency(&self) -> Cycles {
        self.inner.latency()
    }

    /// Look up the metadata entry for hybrid-memory set `set_id`, updating
    /// recency and filling on miss. `dirty` marks the entry as modified
    /// (metadata will change, e.g. a fill or LRU update that must persist).
    pub fn lookup(&mut self, set_id: u64, dirty: bool) -> RemapLookup {
        // Host-time attribution: the SRAM walk proper, distinct from the
        // miss handling the hybrid layer performs around this call.
        let _prof = prof::scope("cache.remap_probe");
        match self.inner.access(set_id * ENTRY_BYTES, dirty) {
            AccessOutcome::Hit => RemapLookup::Hit,
            AccessOutcome::Miss { victim } => RemapLookup::Miss {
                dirty_victim: victim
                    .filter(|(_, d)| *d)
                    .map(|(addr, _)| addr / ENTRY_BYTES),
            },
        }
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        self.inner.stats().hit_rate()
    }

    /// (hits, misses, writebacks).
    pub fn counts(&self) -> (u64, u64, u64) {
        let s = self.inner.stats();
        (s.hits, s.misses, s.writebacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_sim_core::units::KIB;

    #[test]
    fn default_geometry_is_4096_entries() {
        let r = RemapCache::new(256 * KIB);
        assert_eq!(r.inner.config().num_sets() * 8, 4096);
    }

    #[test]
    fn repeated_set_hits() {
        let mut r = RemapCache::new(4 * KIB);
        assert!(matches!(r.lookup(7, false), RemapLookup::Miss { .. }));
        assert_eq!(r.lookup(7, false), RemapLookup::Hit);
        assert_eq!(r.lookup(7, true), RemapLookup::Hit);
    }

    #[test]
    fn dirty_victims_reported_by_set_id() {
        // 4 kB, 8-way, 64 B entries -> 64 entries, 8 sets.
        let mut r = RemapCache::new(4 * KIB);
        let inner_sets = 8u64;
        // Fill one inner set with dirty entries: set ids congruent mod 8.
        for i in 0..8u64 {
            r.lookup(i * inner_sets, true);
        }
        // Ninth conflicting entry evicts the LRU (set id 0).
        match r.lookup(8 * inner_sets, false) {
            RemapLookup::Miss { dirty_victim: Some(v) } => assert_eq!(v, 0),
            o => panic!("expected dirty victim, got {o:?}"),
        }
    }

    #[test]
    fn clean_victims_are_silent() {
        let mut r = RemapCache::new(4 * KIB);
        let inner_sets = 8u64;
        for i in 0..9u64 {
            match r.lookup(i * inner_sets, false) {
                RemapLookup::Miss { dirty_victim } => assert_eq!(dirty_victim, None),
                RemapLookup::Hit => panic!("unexpected hit"),
            }
        }
    }

    #[test]
    fn locality_gives_high_hit_rate() {
        let mut r = RemapCache::new(256 * KIB);
        for round in 0..10 {
            for set in 0..1000u64 {
                r.lookup(set, round % 2 == 0);
            }
        }
        assert!(r.hit_rate() > 0.85, "hit rate {}", r.hit_rate());
    }
}
