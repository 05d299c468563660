//! The partition-policy interface.
//!
//! Every memory-management design the paper evaluates — Hydrogen and the
//! baselines (no partitioning, WayPart, HAShCache, ProFess) — implements
//! [`PartitionPolicy`]. The hybrid memory controller consults the policy at
//! each decision point: where a block may be placed (`alloc_mask`), which
//! channel serves a way (`way_channel`), whether a miss may migrate
//! (`migration_allowed`), request priorities, fast-memory swaps, and the
//! per-epoch adaptation hook.

use crate::remap::WayMeta;
use crate::types::ReqClass;
use h2_sim_core::SeededRng;

/// Snapshot of a policy's partitioning parameters (Hydrogen's `(bw, cap,
/// tok)` triple; baselines report fixed equivalents). Used for logging and
/// the Fig 8 search-landscape experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyParams {
    /// Fast channels dedicated to the CPU (`bw`).
    pub bw: usize,
    /// Fast ways per set allocated to the CPU (`cap`).
    pub cap: usize,
    /// Token-faucet level index (slow-bandwidth share for GPU migrations).
    pub tok: usize,
    /// Free-form description.
    pub label: String,
}

/// Per-epoch performance sample handed to `on_epoch`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochSample {
    /// Cycles in the epoch.
    pub cycles: u64,
    /// CPU instructions retired (all cores).
    pub cpu_instr: u64,
    /// GPU instructions retired (all EUs).
    pub gpu_instr: u64,
    /// The optimisation objective: user-weighted IPC (§IV).
    pub weighted_ipc: f64,
    /// CPU fast-memory hits / misses in the epoch.
    pub cpu_hits: u64,
    /// CPU fast-memory misses in the epoch.
    pub cpu_misses: u64,
    /// GPU fast-memory hits in the epoch.
    pub gpu_hits: u64,
    /// GPU fast-memory misses in the epoch.
    pub gpu_misses: u64,
    /// Block migrations performed.
    pub migrations: u64,
    /// Misses served without migration.
    pub bypasses: u64,
}

/// Aggregate token-bucket flow counters exposed for invariant monitoring.
/// Sums across every bucket a policy owns (global + per-channel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenFlows {
    /// Tokens ever granted by the faucet (after banking caps).
    pub granted: u64,
    /// Tokens spent on admitted migrations.
    pub spent: u64,
    /// Tokens discarded by the banking cap at refill.
    pub discarded: u64,
    /// Requests denied for lack of tokens.
    pub denied: u64,
    /// Tokens currently available across all buckets.
    pub available: u64,
}

impl TokenFlows {
    /// The conservation law every faucet design must uphold: every granted
    /// token is either spent, discarded, or still available.
    pub fn conserved(&self) -> bool {
        self.granted == self.spent + self.discarded + self.available
    }
}

/// A hybrid-memory partitioning design.
pub trait PartitionPolicy {
    /// Short display name ("Hydrogen", "ProFess", ...).
    fn name(&self) -> &str;

    /// Bitmask of ways in `set` where blocks of `class` may be placed.
    fn alloc_mask(&self, set: u64, class: ReqClass) -> u16;

    /// Fast-memory channel serving `(set, way)`.
    fn way_channel(&self, set: u64, way: usize) -> usize;

    /// May a miss of `class` migrate a block right now? `cost` is the token
    /// cost (1 = refill only, 2 = refill + dirty write-back or flat swap);
    /// `is_write` is the demand type and `slow_channel` the missing block's
    /// home channel (for write-filtered and per-channel token designs).
    /// Called once per miss; policies with budgets decrement them here.
    fn migration_allowed(
        &mut self,
        class: ReqClass,
        cost: u32,
        is_write: bool,
        slow_channel: usize,
        rng: &mut SeededRng,
    ) -> bool;

    /// Memory-controller priority for demand requests of `class`
    /// (higher wins; HAShCache prioritises the CPU).
    fn priority(&self, class: ReqClass) -> u8 {
        let _ = class;
        0
    }

    /// On a fast hit by `class` in `way`, return a way to swap the block
    /// with (Hydrogen's fast-memory swap into CPU-dedicated channels).
    fn swap_target(
        &self,
        set: u64,
        way: usize,
        class: ReqClass,
        ways: &[WayMeta],
        rng: &mut SeededRng,
    ) -> Option<usize> {
        let _ = (set, way, class, ways, rng);
        None
    }

    /// Epoch boundary: observe the sample, possibly adapt. Return `true`
    /// when the mapping (`alloc_mask`/`way_channel` outputs) changed, so the
    /// controller can account a reconfiguration.
    fn on_epoch(&mut self, sample: &EpochSample) -> bool {
        let _ = sample;
        false
    }

    /// Token-faucet tick (finer-grained than epochs).
    fn on_faucet(&mut self) {}

    /// Current parameter snapshot.
    fn params(&self) -> PolicyParams;

    /// When `true`, reconfigurations teleport misplaced blocks instantly
    /// and for free (the `Ideal` variant of Fig 7b) instead of lazily.
    fn ideal_reconfig(&self) -> bool {
        false
    }

    /// The set a block of `class` lives in. The default is plain modulo
    /// interleaving; set-partitioning designs (§IV-F) override this to
    /// colour each class's blocks into its own sets (the hardware analogue
    /// of OS page colouring).
    fn home_set(&self, block: u64, class: ReqClass, num_sets: u64) -> u64 {
        let _ = class;
        // Power-of-two set counts (every paper config) take the mask path;
        // this runs per transaction.
        if num_sets.is_power_of_two() {
            block & (num_sets - 1)
        } else {
            block % num_sets
        }
    }

    /// Emit policy-internal telemetry (token accounting, search state,
    /// reconfiguration counts) into the scoped registry. Policies without
    /// internal state emit nothing.
    fn collect_metrics(&self, m: &mut h2_sim_core::ScopedMetrics<'_>) {
        let _ = m;
    }

    /// Aggregate token-flow counters for invariant monitoring, or `None`
    /// for designs without a token faucet.
    fn token_flows(&self) -> Option<TokenFlows> {
        None
    }

    /// Policy-internal consistency check, called from monitor hook points.
    /// Returns `Err` with a description when internal state is corrupt
    /// (e.g. a token bucket violating conservation).
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The trivial fully-shared policy: every way open to every class, every
/// miss migrates, no priorities. This is the paper's non-partitioned
/// baseline; it also serves as the neutral policy in unit tests.
#[derive(Debug, Clone)]
pub struct SharedPolicy {
    assoc: usize,
    channels: usize,
}

impl SharedPolicy {
    /// Build for a geometry of `assoc` ways and `channels` fast channels.
    pub fn new(assoc: usize, channels: usize) -> Self {
        assert!((1..=16).contains(&assoc));
        assert!(channels >= 1);
        Self { assoc, channels }
    }
}

impl PartitionPolicy for SharedPolicy {
    fn name(&self) -> &str {
        "Baseline"
    }

    fn alloc_mask(&self, _set: u64, _class: ReqClass) -> u16 {
        ((1u32 << self.assoc) - 1) as u16
    }

    fn way_channel(&self, set: u64, way: usize) -> usize {
        // Rotate ways across channels per set so no channel is special.
        if self.channels.is_power_of_two() {
            (way + set as usize) & (self.channels - 1)
        } else {
            (way + set as usize) % self.channels
        }
    }

    fn migration_allowed(
        &mut self,
        _class: ReqClass,
        _cost: u32,
        _is_write: bool,
        _slow_channel: usize,
        _rng: &mut SeededRng,
    ) -> bool {
        true
    }

    fn params(&self) -> PolicyParams {
        PolicyParams {
            bw: 0,
            cap: self.assoc,
            tok: usize::MAX,
            label: "shared".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_policy_opens_everything() {
        let mut p = SharedPolicy::new(4, 4);
        let mut rng = SeededRng::derive(1, "t");
        assert_eq!(p.alloc_mask(0, ReqClass::Cpu), 0b1111);
        assert_eq!(p.alloc_mask(7, ReqClass::Gpu), 0b1111);
        assert!(p.migration_allowed(ReqClass::Gpu, 2, false, 0, &mut rng));
        assert_eq!(p.priority(ReqClass::Cpu), 0);
    }

    #[test]
    fn shared_policy_rotates_channels() {
        let p = SharedPolicy::new(4, 4);
        // Different sets place way 0 on different channels.
        let chans: Vec<usize> = (0..4).map(|s| p.way_channel(s, 0)).collect();
        assert_eq!(chans, vec![0, 1, 2, 3]);
        // All ways of one set cover all channels.
        let mut ways: Vec<usize> = (0..4).map(|w| p.way_channel(9, w)).collect();
        ways.sort_unstable();
        assert_eq!(ways, vec![0, 1, 2, 3]);
    }

    #[test]
    fn direct_mapped_masks() {
        let p = SharedPolicy::new(1, 4);
        assert_eq!(p.alloc_mask(0, ReqClass::Cpu), 0b1);
    }
}
