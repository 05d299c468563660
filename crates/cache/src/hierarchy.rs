//! The Table I on-chip cache hierarchy configuration.
//!
//! CPU: per-core L1D (64 kB, 8-way) and L2 (1 MB, 8-way, 9 cycles).
//! GPU: one 128 kB L1 per 16 execution units.
//! Shared: 16 MB 16-way LLC at 38 cycles, shared by CPU and GPU.

use crate::sram::CacheConfig;
use h2_sim_core::units::{KIB, MIB};

/// Configuration of the whole on-chip hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Per-core CPU L1 data cache.
    pub cpu_l1: CacheConfig,
    /// Per-core CPU L2.
    pub cpu_l2: CacheConfig,
    /// Per-16-EU GPU L1.
    pub gpu_l1: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Execution units covered by one GPU L1.
    pub eus_per_gpu_l1: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::table1()
    }
}

impl HierarchyConfig {
    /// The exact hierarchy of the paper's Table I.
    pub fn table1() -> Self {
        Self {
            cpu_l1: CacheConfig {
                name: "cpu.l1".into(),
                size_bytes: 64 * KIB,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            cpu_l2: CacheConfig {
                name: "cpu.l2".into(),
                size_bytes: MIB,
                ways: 8,
                line_bytes: 64,
                latency: 9,
            },
            gpu_l1: CacheConfig {
                name: "gpu.l1".into(),
                size_bytes: 128 * KIB,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            llc: CacheConfig {
                name: "llc".into(),
                size_bytes: 16 * MIB,
                ways: 16,
                line_bytes: 64,
                latency: 38,
            },
            eus_per_gpu_l1: 16,
        }
    }

    /// A proportionally shrunken hierarchy for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            cpu_l1: CacheConfig {
                name: "cpu.l1".into(),
                size_bytes: 4 * KIB,
                ways: 4,
                line_bytes: 64,
                latency: 2,
            },
            cpu_l2: CacheConfig {
                name: "cpu.l2".into(),
                size_bytes: 16 * KIB,
                ways: 4,
                line_bytes: 64,
                latency: 6,
            },
            gpu_l1: CacheConfig {
                name: "gpu.l1".into(),
                size_bytes: 8 * KIB,
                ways: 4,
                line_bytes: 64,
                latency: 2,
            },
            llc: CacheConfig {
                name: "llc".into(),
                size_bytes: 256 * KIB,
                ways: 8,
                line_bytes: 64,
                latency: 20,
            },
            eus_per_gpu_l1: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let h = HierarchyConfig::table1();
        assert_eq!(h.cpu_l1.size_bytes, 64 * KIB);
        assert_eq!(h.cpu_l1.ways, 8);
        assert_eq!(h.cpu_l2.size_bytes, MIB);
        assert_eq!(h.cpu_l2.latency, 9);
        assert_eq!(h.llc.size_bytes, 16 * MIB);
        assert_eq!(h.llc.ways, 16);
        assert_eq!(h.llc.latency, 38);
        assert_eq!(h.gpu_l1.size_bytes, 128 * KIB);
        assert_eq!(h.eus_per_gpu_l1, 16);
    }

    #[test]
    fn geometries_are_valid() {
        for h in [HierarchyConfig::table1(), HierarchyConfig::tiny()] {
            // num_sets() panics on invalid geometry.
            h.cpu_l1.num_sets();
            h.cpu_l2.num_sets();
            h.gpu_l1.num_sets();
            h.llc.num_sets();
        }
    }
}
