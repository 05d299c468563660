//! HAShCache (Patil & Govindarajan, TACO 2017) — heterogeneity-aware shared
//! DRAM cache, reimplemented from its description in the Hydrogen paper
//! (§III-C, §V, §VI):
//!
//! * direct-mapped organisation with *chaining* for pseudo-associativity —
//!   realised by running the hybrid layer with
//!   `HybridConfig { assoc: 1, chaining: true, .. }` (the harness pairs this
//!   policy with that geometry; at higher associativities chaining is
//!   disabled and an extra tag latency added, as the paper does in Fig 11);
//! * CPU requests prioritised in the memory-controller queue;
//! * slow-memory bypass: a fraction of GPU fills skip migration so
//!   streaming GPU data does not monopolise the cache and the slow-memory
//!   bandwidth.

use h2_hybrid::policy::{PartitionPolicy, PolicyParams};
use h2_hybrid::types::ReqClass;
use h2_sim_core::SeededRng;

/// Probability a GPU miss is allowed to migrate (bypass = 1 − p), the
/// published-style default.
const GPU_FILL_PROB: f64 = 0.7;

/// The HAShCache policy.
#[derive(Debug, Clone)]
pub struct HashCachePolicy {
    assoc: usize,
    channels: usize,
}

impl HashCachePolicy {
    /// Build over `assoc` ways striped across `channels` fast channels.
    pub fn new(assoc: usize, channels: usize) -> Self {
        Self { assoc, channels }
    }
}

impl PartitionPolicy for HashCachePolicy {
    fn name(&self) -> &str {
        "HAShCache"
    }

    fn alloc_mask(&self, _set: u64, _class: ReqClass) -> u16 {
        ((1u32 << self.assoc) - 1) as u16
    }

    fn way_channel(&self, set: u64, way: usize) -> usize {
        (set as usize + way) % self.channels
    }

    fn migration_allowed(&mut self, class: ReqClass, _cost: u32, _is_write: bool, _slow_channel: usize, rng: &mut SeededRng) -> bool {
        match class {
            ReqClass::Cpu => true,
            ReqClass::Gpu => rng.chance(GPU_FILL_PROB),
        }
    }

    fn priority(&self, class: ReqClass) -> u8 {
        match class {
            ReqClass::Cpu => 1, // CPU requests jump the queue
            ReqClass::Gpu => 0,
        }
    }

    fn params(&self) -> PolicyParams {
        PolicyParams {
            bw: 0,
            cap: self.assoc,
            tok: usize::MAX,
            label: format!("HAShCache gpu_fill={GPU_FILL_PROB:.2}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_has_priority() {
        let p = HashCachePolicy::new(1, 4);
        assert!(p.priority(ReqClass::Cpu) > p.priority(ReqClass::Gpu));
    }

    #[test]
    fn gpu_fills_are_probabilistic() {
        let mut p = HashCachePolicy::new(1, 4);
        let mut rng = SeededRng::derive(5, "hc");
        let n = 10_000;
        let allowed = (0..n)
            .filter(|_| p.migration_allowed(ReqClass::Gpu, 1, false, 0, &mut rng))
            .count();
        let frac = allowed as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.03, "frac {frac}");
        assert_eq!(p.params().label, "HAShCache gpu_fill=0.70");
        // CPU always migrates.
        assert!((0..100).all(|_| p.migration_allowed(ReqClass::Cpu, 2, false, 0, &mut rng)));
    }

    #[test]
    fn shared_capacity_no_partitioning() {
        let p = HashCachePolicy::new(4, 4);
        assert_eq!(
            p.alloc_mask(3, ReqClass::Cpu),
            p.alloc_mask(3, ReqClass::Gpu)
        );
    }

    #[test]
    fn channels_interleave_by_set() {
        let p = HashCachePolicy::new(1, 4);
        let mut seen: Vec<usize> = (0..8u64).map(|s| p.way_channel(s, 0)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
