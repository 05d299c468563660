//! The Hydrogen partitioning policy (§IV), implementing
//! [`h2_hybrid::PartitionPolicy`].
//!
//! Variants used in the evaluation:
//! * **DP** — decoupled partitioning only, fixed at the paper's heuristic
//!   `(bw=1, cap=3)` (75% fast bandwidth to the GPU, 75% capacity to the
//!   CPU); tokens and search disabled.
//! * **DP+Token** — adds token-based migration at the fixed 15% level.
//! * **Full** — adds epoch-based hill climbing over `(bw, cap, tok)` with
//!   phase resets.
//!
//! Geometry note: the decoupled way→channel scheme needs at least one way
//! per channel, i.e. `assoc ≥ channels` with `assoc % channels == 0` (the
//! paper's default is 4 ways over 4 superchannels). For smaller
//! associativities (Fig 11's A1/A2) the policy falls back to set-interleaved
//! channels with capacity-only partitioning, which is what a real
//! implementation would do when there are fewer ways than channels.

use crate::climb::{ClimbConfig, HillClimber};
use crate::hashing::top_k_mask;
use crate::partition::PartitionMap;
use crate::tokens::{TokenBucket, DEFAULT_TOKEN_LEVEL, TOKEN_LEVELS};
use h2_hybrid::policy::{EpochSample, PartitionPolicy, PolicyParams, TokenFlows};
use h2_hybrid::remap::WayMeta;
use h2_hybrid::types::ReqClass;
use h2_sim_core::SeededRng;

/// Relative weighted-IPC improvement the climber needs to accept a move.
const CLIMB_EPS: f64 = 0.02;

/// Fast-memory swap variants (Fig 7a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapMode {
    /// Hotness-guided swaps into CPU-dedicated channels (the design).
    Ours,
    /// Like `Ours` but half the swaps are randomly skipped.
    Prob50,
    /// Never swap.
    NoSwap,
}

/// Static configuration of a Hydrogen policy instance.
#[derive(Debug, Clone)]
pub struct HydrogenConfig {
    /// Fast ways per set (hybrid `assoc`).
    pub assoc: usize,
    /// Fast-memory channels.
    pub channels: usize,
    /// Initial `bw` (dedicated CPU channels). Paper heuristic: 1.
    pub init_bw: usize,
    /// Initial `cap` (CPU ways per set). Paper heuristic: 3 (75%).
    pub init_cap: usize,
    /// Initial `tok` level index into [`TOKEN_LEVELS`].
    pub init_tok: usize,
    /// Enable token-based migration throttling (§IV-B).
    pub enable_tokens: bool,
    /// Enable epoch-based hill climbing (§IV-C).
    pub enable_climb: bool,
    /// Fast-memory swap variant (§IV-A).
    pub swap: SwapMode,
    /// Migrations per faucet period the slow tier could serve at 100%.
    pub token_budget_per_period: u64,
    /// Epochs per exploration phase (climber reset cadence).
    pub epochs_per_phase: u64,
    /// Teleporting (free) reconfiguration — Fig 7b `Ideal`.
    pub ideal_reconfig: bool,
    /// Use one token counter per slow channel instead of a single global
    /// counter (the variant §IV-B reports as making a negligible
    /// difference); the per-period budget is split evenly.
    pub per_channel_tokens: Option<usize>,
}

impl HydrogenConfig {
    /// The paper's default full design for a 4-way, 4-channel system.
    pub fn full(assoc: usize, channels: usize, token_budget_per_period: u64) -> Self {
        Self {
            assoc,
            channels,
            init_bw: 1.min(channels),
            init_cap: (assoc * 3).div_ceil(4).min(assoc),
            init_tok: DEFAULT_TOKEN_LEVEL,
            enable_tokens: true,
            enable_climb: true,
            swap: SwapMode::Ours,
            token_budget_per_period,
            epochs_per_phase: 50,
            ideal_reconfig: false,
            per_channel_tokens: None,
        }
    }

    /// Decoupled partitioning only (fixed heuristic, no tokens, no search).
    pub fn dp_only(assoc: usize, channels: usize) -> Self {
        Self {
            enable_tokens: false,
            enable_climb: false,
            ..Self::full(assoc, channels, 1)
        }
    }

    /// DP + fixed 15% token throttling, no search.
    pub fn dp_token(assoc: usize, channels: usize, token_budget_per_period: u64) -> Self {
        Self {
            enable_climb: false,
            ..Self::full(assoc, channels, token_budget_per_period)
        }
    }
}

/// Whether the decoupled way→channel scheme applies to this geometry.
fn grouped(assoc: usize, channels: usize) -> bool {
    assoc >= channels && assoc.is_multiple_of(channels)
}

/// The Hydrogen policy.
pub struct HydrogenPolicy {
    cfg: HydrogenConfig,
    /// Ways per channel in grouped mode.
    group: usize,
    bw: usize,
    cap: usize,
    map: Option<PartitionMap>,
    tokens: TokenBucket,
    channel_tokens: Option<Vec<TokenBucket>>,
    climber: Option<HillClimber>,
    epoch_count: u64,
    reconfigs: u64,
    /// One-epoch settle window after a remapping change: the next sample
    /// measures the lazy-reconfiguration transient, not the configuration,
    /// so it is not fed to the climber.
    settling: bool,
}

impl HydrogenPolicy {
    /// Build the policy.
    pub fn new(cfg: HydrogenConfig) -> Self {
        let grouped_mode = grouped(cfg.assoc, cfg.channels);
        let group = if grouped_mode { cfg.assoc / cfg.channels } else { 1 };
        let bw = if grouped_mode { cfg.init_bw.min(cfg.channels) } else { 0 };
        let cap = cfg.init_cap.min(cfg.assoc).max(bw * group);
        let map = grouped_mode.then(|| PartitionMap::new(cfg.assoc, bw * group, cap));
        let tokens = TokenBucket::new(cfg.token_budget_per_period, cfg.init_tok);
        let channel_tokens = cfg.per_channel_tokens.map(|n| {
            let share = (cfg.token_budget_per_period / n.max(1) as u64).max(1);
            (0..n.max(1))
                .map(|_| TokenBucket::new(share, cfg.init_tok))
                .collect::<Vec<_>>()
        });

        let climber = cfg.enable_climb.then(|| {
            let bw_dim = if grouped_mode { cfg.channels + 1 } else { 1 };
            let cap_dim = cfg.assoc + 1;
            let tok_dim = if cfg.enable_tokens { TOKEN_LEVELS.len() } else { 1 };
            let g = group;
            let climb_cfg = ClimbConfig {
                dims: vec![bw_dim, cap_dim, tok_dim],
                eps: CLIMB_EPS,
                valid: Box::new(move |v| v[1] >= v[0] * g),
            };
            let tok0 = if cfg.enable_tokens { cfg.init_tok } else { 0 };
            HillClimber::new(climb_cfg, vec![bw, cap, tok0])
        });

        Self {
            cfg,
            group,
            bw,
            cap,
            map,
            tokens,
            channel_tokens,
            climber,
            epoch_count: 0,
            reconfigs: 0,
            settling: false,
        }
    }

    /// Reconfigurations performed so far.
    pub fn reconfigs(&self) -> u64 {
        self.reconfigs
    }

    /// Current `(bw, cap, tok)` triple.
    pub fn current_config(&self) -> (usize, usize, usize) {
        (self.bw, self.cap, self.tokens.level())
    }

    /// Force a configuration (used by the exhaustive-search harness, Fig 8).
    pub fn force_config(&mut self, bw: usize, cap: usize, tok: usize) {
        self.apply(bw, cap, tok);
    }

    fn apply(&mut self, bw: usize, cap: usize, tok: usize) -> bool {
        let mapping_changed = bw != self.bw || cap != self.cap;
        self.bw = bw;
        self.cap = cap;
        if self.map.is_some() {
            self.map = Some(PartitionMap::new(self.cfg.assoc, bw * self.group, cap));
        }
        if self.cfg.enable_tokens {
            self.tokens.set_level(tok);
            if let Some(per) = self.channel_tokens.as_mut() {
                for b in per {
                    b.set_level(tok);
                }
            }
        }
        if mapping_changed {
            self.reconfigs += 1;
        }
        mapping_changed
    }

    /// Dedicated ways (always ways `0..bw*group` in grouped mode).
    fn dedicated_ways(&self) -> usize {
        self.bw * self.group
    }

    /// The global token bucket (conservation checks).
    pub fn tokens(&self) -> &TokenBucket {
        &self.tokens
    }
}

impl PartitionPolicy for HydrogenPolicy {
    fn name(&self) -> &str {
        match (self.cfg.enable_tokens, self.cfg.enable_climb) {
            (false, false) => "Hydrogen(DP)",
            (true, false) => "Hydrogen(DP+Token)",
            _ => "Hydrogen",
        }
    }

    fn alloc_mask(&self, set: u64, class: ReqClass) -> u16 {
        match &self.map {
            Some(m) => match class {
                ReqClass::Cpu => m.cpu_mask(set),
                ReqClass::Gpu => m.gpu_mask(set),
            },
            None => {
                // Fallback (assoc < channels): capacity-only partitioning by
                // rendezvous selection of CPU ways, computed on the stack —
                // this runs per access.
                let mut ways = [0usize; 16];
                for (i, w) in ways.iter_mut().take(self.cfg.assoc).enumerate() {
                    *w = i;
                }
                let cpu = top_k_mask(set, &ways[..self.cfg.assoc], self.cap);
                let all = ((1u32 << self.cfg.assoc) - 1) as u16;
                match class {
                    ReqClass::Cpu => cpu,
                    ReqClass::Gpu => all & !cpu,
                }
            }
        }
    }

    fn way_channel(&self, set: u64, way: usize) -> usize {
        match &self.map {
            Some(m) => m.way_channel(set, way) / self.group,
            None => (set as usize + way) % self.cfg.channels,
        }
    }

    fn migration_allowed(
        &mut self,
        class: ReqClass,
        cost: u32,
        _is_write: bool,
        slow_channel: usize,
        _rng: &mut SeededRng,
    ) -> bool {
        match class {
            ReqClass::Cpu => true,
            ReqClass::Gpu => {
                if !self.cfg.enable_tokens {
                    true
                } else if let Some(per) = self.channel_tokens.as_mut() {
                    let n = per.len();
                    per[slow_channel % n].try_spend(cost)
                } else {
                    self.tokens.try_spend(cost)
                }
            }
        }
    }

    fn swap_target(
        &self,
        _set: u64,
        way: usize,
        class: ReqClass,
        ways: &[WayMeta],
        rng: &mut SeededRng,
    ) -> Option<usize> {
        if class != ReqClass::Cpu || self.cfg.swap == SwapMode::NoSwap {
            return None;
        }
        let ded = self.dedicated_ways();
        if ded == 0 || way < ded {
            return None; // already on a dedicated channel (or none exist)
        }
        if ways[way].owner != ReqClass::Cpu {
            return None; // only CPU-owned blocks belong in dedicated channels
        }
        // Coldest dedicated way.
        let (target, victim) = (0..ded)
            .map(|w| (w, &ways[w]))
            .min_by_key(|(_, m)| if m.valid { m.hotness as u16 + 1 } else { 0 })?;
        let hot_enough =
            !victim.valid || ways[way].hotness >= victim.hotness && ways[way].hotness > 0;
        if !hot_enough {
            return None;
        }
        if self.cfg.swap == SwapMode::Prob50 && rng.chance(0.5) {
            return None;
        }
        Some(target)
    }

    fn on_epoch(&mut self, sample: &EpochSample) -> bool {
        self.epoch_count += 1;
        if self.climber.is_none() {
            return false;
        }
        if self.cfg.epochs_per_phase > 0 && self.epoch_count.is_multiple_of(self.cfg.epochs_per_phase) {
            self.climber.as_mut().unwrap().reset();
            self.settling = false;
        }
        if self.settling {
            // Discard the transition epoch; measure the clean one next.
            self.settling = false;
            return false;
        }
        match self
            .climber
            .as_mut()
            .unwrap()
            .observe(sample.weighted_ipc)
        {
            Some(next) => {
                let (bw, cap, tok) = (next[0], next[1], next[2]);
                let changed = self.apply(bw, cap, tok);
                self.settling = changed;
                changed
            }
            None => false,
        }
    }

    fn on_faucet(&mut self) {
        if self.cfg.enable_tokens {
            self.tokens.refill();
            if let Some(per) = self.channel_tokens.as_mut() {
                for b in per {
                    b.refill();
                }
            }
        }
    }

    fn params(&self) -> PolicyParams {
        PolicyParams {
            bw: self.bw,
            cap: self.cap,
            tok: self.tokens.level(),
            label: format!(
                "{} bw={} cap={} tok={:.3}",
                self.name(),
                self.bw,
                self.cap,
                TOKEN_LEVELS[self.tokens.level()]
            ),
        }
    }

    fn ideal_reconfig(&self) -> bool {
        self.cfg.ideal_reconfig
    }

    fn token_flows(&self) -> Option<TokenFlows> {
        if !self.cfg.enable_tokens {
            return None;
        }
        // Sum across every bucket this policy owns. migration_allowed spends
        // from the per-channel buckets when they exist, but on_faucet refills
        // the global bucket too, so all buckets are included either way.
        let mut f = TokenFlows::default();
        let buckets = std::iter::once(&self.tokens).chain(self.channel_tokens.iter().flatten());
        for b in buckets {
            f.granted += b.granted_total();
            f.spent += b.spent_total();
            f.discarded += b.discarded_total();
            f.denied += b.denied_total();
            f.available += b.available();
        }
        Some(f)
    }

    fn check_invariants(&self) -> Result<(), String> {
        if !self.cfg.enable_tokens {
            return Ok(());
        }
        let buckets =
            std::iter::once((&self.tokens, None)).chain(
                self.channel_tokens.iter().flatten().enumerate().map(|(i, b)| (b, Some(i))),
            );
        for (b, ch) in buckets {
            if !b.check_conservation() {
                let which = match ch {
                    Some(i) => format!("per-channel token bucket {i}"),
                    None => "global token bucket".to_string(),
                };
                return Err(format!(
                    "{which} violates conservation: granted {} != spent {} + discarded {} + available {}",
                    b.granted_total(),
                    b.spent_total(),
                    b.discarded_total(),
                    b.available()
                ));
            }
        }
        Ok(())
    }

    fn collect_metrics(&self, m: &mut h2_sim_core::ScopedMetrics<'_>) {
        m.inc("reconfigs", self.reconfigs);
        m.inc("epochs", self.epoch_count);
        let mut t = m.scoped("tokens");
        t.inc("granted", self.tokens.granted_total());
        t.inc("spent", self.tokens.spent_total());
        t.inc("discarded", self.tokens.discarded_total());
        t.inc("denied", self.tokens.denied_total());
        t.set_gauge("available", self.tokens.available() as f64);
        t.set_gauge("level", self.tokens.level() as f64);
        if let Some(per) = &self.channel_tokens {
            for (i, b) in per.iter().enumerate() {
                let mut c = t.scoped(&format!("ch{i}"));
                c.inc("granted", b.granted_total());
                c.inc("spent", b.spent_total());
                c.inc("denied", b.denied_total());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> HydrogenPolicy {
        HydrogenPolicy::new(HydrogenConfig::full(4, 4, 100))
    }

    #[test]
    fn default_heuristic_matches_fig3b() {
        let p = full();
        assert_eq!(p.current_config().0, 1, "bw=1");
        assert_eq!(p.current_config().1, 3, "cap=3");
        for set in 0..100u64 {
            let cpu = p.alloc_mask(set, ReqClass::Cpu);
            let gpu = p.alloc_mask(set, ReqClass::Gpu);
            assert_eq!(cpu.count_ones(), 3);
            assert_eq!(gpu.count_ones(), 1);
            assert_eq!(cpu & gpu, 0);
            // Way 0 is dedicated to the CPU and sits on channel 0.
            assert!(cpu & 1 != 0);
            assert_eq!(p.way_channel(set, 0), 0);
        }
    }

    #[test]
    fn gpu_spreads_over_shared_channels() {
        let p = full();
        let mut chans = [0u32; 4];
        for set in 0..400u64 {
            let gpu = p.alloc_mask(set, ReqClass::Gpu);
            for w in 0..4 {
                if gpu & (1 << w) != 0 {
                    chans[p.way_channel(set, w)] += 1;
                }
            }
        }
        assert_eq!(chans[0], 0);
        for c in 1..4 {
            assert!(chans[c] > 80, "{chans:?}");
        }
    }

    #[test]
    fn tokens_throttle_gpu_only() {
        let mut p = HydrogenPolicy::new(HydrogenConfig {
            token_budget_per_period: 10,
            init_tok: 7, // 100% -> grant 10
            enable_climb: false,
            ..HydrogenConfig::full(4, 4, 10)
        });
        let mut rng = SeededRng::derive(1, "t");
        let mut gpu_ok = 0;
        for _ in 0..50 {
            if p.migration_allowed(ReqClass::Gpu, 1, false, 0, &mut rng) {
                gpu_ok += 1;
            }
        }
        assert_eq!(gpu_ok, 10, "initial grant only");
        // CPU unaffected.
        assert!(p.migration_allowed(ReqClass::Cpu, 2, false, 0, &mut rng));
        // Faucet refills.
        p.on_faucet();
        assert!(p.migration_allowed(ReqClass::Gpu, 1, false, 0, &mut rng));
    }

    #[test]
    fn dp_variant_never_throttles() {
        let mut p = HydrogenPolicy::new(HydrogenConfig::dp_only(4, 4));
        let mut rng = SeededRng::derive(1, "t");
        for _ in 0..1000 {
            assert!(p.migration_allowed(ReqClass::Gpu, 2, false, 0, &mut rng));
        }
        assert_eq!(p.name(), "Hydrogen(DP)");
    }

    #[test]
    fn swap_targets_dedicated_ways_for_hot_shared_blocks() {
        let p = full();
        let mut rng = SeededRng::derive(1, "t");
        let mk = |valid, hotness, owner| WayMeta {
            tag: 0,
            valid,
            dirty: false,
            owner,
            stamp: 0,
            hotness,
        };
        // Way 0 dedicated (cold CPU block), way 2 shared and hot.
        let ways = vec![
            mk(true, 1, ReqClass::Cpu),
            mk(true, 5, ReqClass::Cpu),
            mk(true, 9, ReqClass::Cpu),
            mk(true, 3, ReqClass::Gpu),
        ];
        assert_eq!(p.swap_target(0, 2, ReqClass::Cpu, &ways, &mut rng), Some(0));
        // Cold shared block: no swap.
        let mut cold = ways.clone();
        cold[2].hotness = 0;
        assert_eq!(p.swap_target(0, 2, ReqClass::Cpu, &cold, &mut rng), None);
        // GPU hits never swap.
        assert_eq!(p.swap_target(0, 3, ReqClass::Gpu, &ways, &mut rng), None);
        // Dedicated-way hits never swap.
        assert_eq!(p.swap_target(0, 0, ReqClass::Cpu, &ways, &mut rng), None);
    }

    #[test]
    fn noswap_mode_disables_swaps() {
        let p = HydrogenPolicy::new(HydrogenConfig {
            swap: SwapMode::NoSwap,
            ..HydrogenConfig::full(4, 4, 100)
        });
        let mut rng = SeededRng::derive(1, "t");
        let ways = vec![WayMeta { valid: false, ..Default::default() }; 4];
        assert_eq!(p.swap_target(0, 3, ReqClass::Cpu, &ways, &mut rng), None);
    }

    #[test]
    fn climbing_adapts_configuration() {
        let mut p = full();
        // Feed an objective that rewards larger cap: the climber should
        // push cap toward 4.
        for _ in 0..40 {
            let (_, cap, _) = p.current_config();
            let sample = EpochSample {
                weighted_ipc: cap as f64,
                ..Default::default()
            };
            p.on_epoch(&sample);
        }
        assert_eq!(p.current_config().1, 4, "cap should climb to max");
        assert!(p.reconfigs() > 0);
    }

    #[test]
    fn constraint_cap_ge_bw_held_during_climb() {
        let mut p = full();
        for i in 0..200 {
            let (bw, cap, _) = p.current_config();
            assert!(cap >= bw, "violated at step {i}: bw={bw} cap={cap}");
            let sample = EpochSample {
                weighted_ipc: 1.0 + (i % 7) as f64 * 0.001,
                ..Default::default()
            };
            p.on_epoch(&sample);
        }
    }

    #[test]
    fn fallback_geometry_small_assoc() {
        // A=1, channels=4: capacity-only partitioning.
        let p = HydrogenPolicy::new(HydrogenConfig {
            init_cap: 1,
            ..HydrogenConfig::full(1, 4, 100)
        });
        for set in 0..50u64 {
            let cpu = p.alloc_mask(set, ReqClass::Cpu);
            let gpu = p.alloc_mask(set, ReqClass::Gpu);
            assert_eq!(cpu | gpu, 0b1);
            assert_eq!(cpu & gpu, 0);
            assert!(p.way_channel(set, 0) < 4);
        }
        // Channels still spread by set.
        let distinct: std::collections::HashSet<usize> =
            (0..16u64).map(|s| p.way_channel(s, 0)).collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn assoc8_over_4_channels_groups_ways() {
        let p = HydrogenPolicy::new(HydrogenConfig::full(8, 4, 100));
        // bw=1 -> ways 0,1 dedicated to channel 0.
        assert_eq!(p.way_channel(3, 0), 0);
        assert_eq!(p.way_channel(3, 1), 0);
        for set in 0..50u64 {
            for w in 2..8 {
                assert!(p.way_channel(set, w) >= 1, "shared ways off channel 0");
            }
        }
    }

    #[test]
    fn token_flows_conserve_under_traffic() {
        let mut p = HydrogenPolicy::new(HydrogenConfig {
            per_channel_tokens: Some(3),
            enable_climb: false,
            ..HydrogenConfig::full(4, 4, 30)
        });
        let mut rng = SeededRng::derive(1, "t");
        for i in 0..500u64 {
            let _ = p.migration_allowed(ReqClass::Gpu, 1 + (i % 2) as u32, false, i as usize, &mut rng);
            if i % 40 == 0 {
                p.on_faucet();
            }
            let f = p.token_flows().expect("tokens enabled");
            assert!(f.conserved(), "step {i}: {f:?}");
            p.check_invariants().expect("buckets conserve");
        }
        // Designs without a faucet expose no flows and always pass.
        let dp = HydrogenPolicy::new(HydrogenConfig::dp_only(4, 4));
        assert_eq!(dp.token_flows(), None);
        assert!(dp.check_invariants().is_ok());
    }

    #[test]
    fn force_config_applies() {
        let mut p = full();
        p.force_config(2, 3, 5);
        assert_eq!(p.current_config(), (2, 3, 5));
        let params = p.params();
        assert_eq!(params.bw, 2);
        assert_eq!(params.cap, 3);
    }
}
