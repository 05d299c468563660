//! Common types and geometry for the hybrid memory layer.

use h2_sim_core::units::{Cycles, KIB, MIB};

/// Who issued a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqClass {
    /// A CPU core (latency-sensitive).
    Cpu,
    /// The GPU (bandwidth-sensitive, latency-tolerant).
    Gpu,
}

impl ReqClass {
    /// Index 0 (CPU) / 1 (GPU) for array-backed per-class stats.
    pub fn idx(self) -> usize {
        match self {
            ReqClass::Cpu => 0,
            ReqClass::Gpu => 1,
        }
    }
}

/// Memory tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// HBM (the DRAM cache / first tier).
    Fast,
    /// DDR (capacity tier).
    Slow,
}

/// Hybrid memory organisation mode (§II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Fast memory is a hardware-managed cache; slow memory always holds a
    /// home copy of every block.
    Cache,
    /// Both tiers form one flat address space; a block's only copy lives in
    /// exactly one tier and migrations are swaps.
    Flat,
}

/// Static configuration of the hybrid memory system.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Migration block size in bytes (paper default 256).
    pub block_bytes: u64,
    /// Fast ways per set (paper default 4).
    pub assoc: usize,
    /// Number of fast-memory superchannels (paper default 4).
    pub fast_channels: usize,
    /// Number of slow-memory channels (paper default 4).
    pub slow_channels: usize,
    /// Fast-memory capacity in bytes (typically footprint / 8).
    pub fast_capacity: u64,
    /// Cache or flat mode.
    pub mode: Mode,
    /// On-chip remap cache capacity in bytes (paper default 256 kB).
    pub remap_cache_bytes: u64,
    /// HAShCache-style chaining: on a primary-set miss, probe one chained
    /// set (pseudo-associativity for direct-mapped organisations).
    pub chaining: bool,
    /// Extra tag-probe latency in cycles added to every fast access
    /// (used when scaling HAShCache to higher associativities, Fig 11).
    pub extra_tag_latency: Cycles,
    /// Suppress the DRAM traffic of fast-memory swaps (the `Ideal` swap
    /// variant of Fig 7a); metadata still moves.
    pub free_swaps: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            block_bytes: 256,
            assoc: 4,
            fast_channels: 4,
            slow_channels: 4,
            fast_capacity: 32 * MIB,
            mode: Mode::Cache,
            remap_cache_bytes: 256 * KIB,
            chaining: false,
            extra_tag_latency: 0,
            free_swaps: false,
        }
    }
}

/// `x / d` strength-reduced to a shift when `d` is a power of two.
///
/// The divisor is almost never a compile-time constant here (geometry lives
/// in config fields), but every paper configuration uses power-of-two block
/// sizes, set counts and channel counts, and a hardware divider costs an
/// order of magnitude more than `tzcnt + shr`. These helpers sit on the
/// per-transaction hot path (several calls per memory access); the fallback
/// keeps non-power-of-two sweeps exact.
#[inline(always)]
fn fast_div(x: u64, d: u64) -> u64 {
    if d.is_power_of_two() {
        x >> d.trailing_zeros()
    } else {
        x / d
    }
}

/// `x % d` strength-reduced to a mask when `d` is a power of two.
#[inline(always)]
fn fast_rem(x: u64, d: u64) -> u64 {
    if d.is_power_of_two() {
        x & (d - 1)
    } else {
        x % d
    }
}

impl HybridConfig {
    /// Number of sets implied by capacity, block size and associativity.
    pub fn num_sets(&self) -> u64 {
        let sets = fast_div(self.fast_capacity, self.block_bytes * self.assoc as u64);
        assert!(sets > 0, "fast capacity too small");
        sets
    }

    /// Block id of a byte address.
    pub fn block_of(&self, addr: u64) -> u64 {
        fast_div(addr, self.block_bytes)
    }

    /// Slow-memory channel of a block (address-interleaved).
    pub fn slow_channel_of(&self, block: u64) -> usize {
        fast_rem(block, self.slow_channels as u64) as usize
    }

    /// Chained set for HAShCache pseudo-associativity.
    pub fn chain_set(&self, set: u64) -> u64 {
        let n = self.num_sets();
        fast_rem(set ^ (n / 2).max(1), n)
    }

    /// Device byte address of a block in the slow tier (its home).
    pub fn slow_addr_of_block(&self, block: u64) -> u64 {
        block * self.block_bytes
    }

    /// Device byte address of a fast way. Ways of the same set are spread
    /// across rows so that way→channel mappings control banks cleanly.
    pub fn fast_addr_of(&self, set: u64, way: usize) -> u64 {
        (set * self.assoc as u64 + way as u64) * self.block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_roundtrip() {
        let cfg = HybridConfig::default();
        let sets = cfg.num_sets();
        assert_eq!(sets, 32 * MIB / (256 * 4));
        for &addr in &[0u64, 256, 1 << 20, (13 << 20) + 512] {
            assert_eq!(cfg.block_of(addr), addr / 256);
        }
    }

    #[test]
    fn block_sizes_scale_sets() {
        let mut cfg = HybridConfig::default();
        let s256 = cfg.num_sets();
        cfg.block_bytes = 2048;
        assert_eq!(cfg.num_sets(), s256 / 8);
        cfg.block_bytes = 64;
        assert_eq!(cfg.num_sets(), s256 * 4);
    }

    #[test]
    fn chain_set_differs_and_is_involution() {
        let cfg = HybridConfig::default();
        for set in [0u64, 1, 999, cfg.num_sets() - 1] {
            let c = cfg.chain_set(set);
            assert_ne!(c, set);
            assert!(c < cfg.num_sets());
            assert_eq!(cfg.chain_set(c), set);
        }
    }

    #[test]
    fn slow_channels_interleave() {
        let cfg = HybridConfig::default();
        let chans: Vec<usize> = (0..8).map(|b| cfg.slow_channel_of(b)).collect();
        assert_eq!(chans, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn class_indices() {
        assert_eq!(ReqClass::Cpu.idx(), 0);
        assert_eq!(ReqClass::Gpu.idx(), 1);
    }
}
