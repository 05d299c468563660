//! System configuration (Table I, plus simulation scaling knobs).
//!
//! The paper simulates 5-billion-instruction windows on a machine with a
//! multi-GB hybrid memory; a single-core laptop reproduction cannot. All
//! structure sizes and time constants therefore carry a uniform scale: the
//! default [`SystemConfig`] shrinks footprints and caches by 8× and the
//! epoch/phase lengths by 40× while preserving every *ratio* the paper's
//! phenomena depend on (fast:slow capacity = 1:8, fast:slow bandwidth =
//! 4:1, LLC ≪ fast capacity ≪ footprint). `SystemConfig::paper()` holds the
//! verbatim Table I values for reference and for the Table I dump.

use h2_cache::{CacheConfig, HierarchyConfig};
use h2_hybrid::types::Mode;
use h2_mem::TimingPreset;
use h2_sim_core::units::{Cycles, KIB, MIB};
use h2_sim_core::Json;
use h2_trace::Mix;

/// Which sides of the processor run (solo runs feed Fig 2a / Fig 10a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Participants {
    /// CPU and GPU together (the default contended system).
    Both,
    /// CPU workloads only.
    CpuOnly,
    /// GPU workload only.
    GpuOnly,
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// CPU cores (Table I: 8).
    pub cpu_cores: usize,
    /// GPU execution units (Table I: 96).
    pub gpu_eus: usize,
    /// Outstanding memory requests per EU context (latency tolerance).
    pub gpu_ctx_slots: u32,
    /// Non-blocking store-buffer entries per CPU core.
    pub store_buffer: u32,
    /// Independent demand loads a core may overlap (OoO MLP); dependent
    /// (pointer-chase) loads always serialise.
    pub cpu_mlp: u32,
    /// IPC weights `(cpu, gpu)` for the optimisation goal (§IV: 12:1).
    pub weights: (f64, f64),
    /// On-chip cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Hybrid memory block size in bytes (256).
    pub block_bytes: u64,
    /// Fast ways per set (4).
    pub assoc: usize,
    /// Fast-memory timing preset (HBM2E / HBM3 for Fig 5b).
    pub fast_preset: TimingPreset,
    /// Fast superchannels (4).
    pub fast_channels: usize,
    /// Slow-memory channels (4 × DDR4).
    pub slow_channels: usize,
    /// Cache or flat organisation.
    pub mode: Mode,
    /// Fast capacity override; default = scaled footprint / 8 (§V).
    pub fast_capacity_override: Option<u64>,
    /// Divide paper-scale footprints by this (default 8).
    pub footprint_scale: u64,
    /// On-chip remap cache bytes (256 kB scaled to 32 kB by default).
    pub remap_cache_bytes: u64,
    /// Sampling epoch length in cycles (§IV-C; paper 10 M, scaled 250 k).
    pub epoch_cycles: Cycles,
    /// Token-faucet period (§IV-B; paper 1 M, scaled 25 k).
    pub faucet_cycles: Cycles,
    /// Epochs per exploration phase (paper: 500 M / 10 M = 50).
    pub epochs_per_phase: u64,
    /// Warm-up cycles before measurement.
    pub warmup_cycles: Cycles,
    /// Measured window in cycles.
    pub measure_cycles: Cycles,
    /// Experiment seed (trace generators, stochastic policies).
    pub seed: u64,
    /// Collect epoch-resolved telemetry (metrics registry snapshots and
    /// per-class latency histograms) into [`crate::report::RunTelemetry`].
    /// Telemetry is an *observation* of the simulation — it never perturbs
    /// timing — so it is not part of the run-cache key.
    pub telemetry: bool,
    /// Request-span tracing with blame attribution
    /// (`h2_sim_core::trace_span`). `None` disables tracing entirely (the
    /// default); `Some(n)` traces every `n`-th demand read (`Some(0)`
    /// enables the machinery but samples nothing — the zero-perturbation
    /// guard). Like `telemetry`, tracing is pure observation and is not
    /// part of the run-cache key; the cache re-executes an entry cached
    /// without spans when a traced replay asks for them.
    pub trace_sample: Option<u64>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::scaled()
    }
}

impl SystemConfig {
    /// The verbatim Table I configuration (for reference / config dumps;
    /// running it end-to-end needs paper-scale time budgets).
    pub fn paper() -> Self {
        Self {
            cpu_cores: 8,
            gpu_eus: 96,
            gpu_ctx_slots: 2,
            store_buffer: 8,
            cpu_mlp: 3,
            weights: (12.0, 1.0),
            hierarchy: HierarchyConfig::table1(),
            block_bytes: 256,
            assoc: 4,
            fast_preset: TimingPreset::Hbm2eSuper,
            fast_channels: 4,
            slow_channels: 4,
            mode: Mode::Cache,
            fast_capacity_override: None,
            footprint_scale: 1,
            remap_cache_bytes: 256 * KIB,
            epoch_cycles: 10_000_000,
            faucet_cycles: 1_000_000,
            epochs_per_phase: 50,
            warmup_cycles: 50_000_000,
            measure_cycles: 500_000_000,
            seed: 42,
            telemetry: true,
            trace_sample: None,
        }
    }

    /// The default laptop-scale configuration: every capacity and time
    /// constant shrunk uniformly (see module docs), all ratios preserved.
    pub fn scaled() -> Self {
        let mut h = HierarchyConfig::table1();
        // Shrink the hierarchy 8x alongside the footprints.
        h.cpu_l1.size_bytes = 8 * KIB;
        h.cpu_l2.size_bytes = 128 * KIB;
        h.gpu_l1.size_bytes = 16 * KIB;
        h.llc.size_bytes = 2 * MIB;
        Self {
            footprint_scale: 8,
            hierarchy: h,
            remap_cache_bytes: 32 * KIB,
            epoch_cycles: 125_000,
            faucet_cycles: 25_000,
            epochs_per_phase: 40,
            warmup_cycles: 3_000_000,
            measure_cycles: 2_000_000,
            ..Self::paper()
        }
    }

    /// An even smaller configuration for unit/integration tests.
    pub fn tiny() -> Self {
        let mut c = Self::scaled();
        c.cpu_cores = 2;
        c.gpu_eus = 16;
        c.footprint_scale = 64;
        c.hierarchy = HierarchyConfig::tiny();
        c.remap_cache_bytes = 8 * KIB;
        c.epoch_cycles = 50_000;
        c.faucet_cycles = 10_000;
        c.warmup_cycles = 100_000;
        c.measure_cycles = 300_000;
        c
    }

    /// Normalised weight pair (sums to 1).
    pub fn norm_weights(&self) -> (f64, f64) {
        let s = self.weights.0 + self.weights.1;
        (self.weights.0 / s, self.weights.1 / s)
    }

    /// Fast-memory capacity for a mix: override, or scaled footprint / 8
    /// rounded up so every set exists (min 1 MiB).
    pub fn fast_capacity_for(&self, mix: &Mix) -> u64 {
        if let Some(c) = self.fast_capacity_override {
            return c;
        }
        let scaled: u64 = mix.total_footprint_bytes() / self.footprint_scale;
        (scaled / 8).max(MIB)
    }

    /// Migrations per faucet period the slow tier can serve at 100 %
    /// bandwidth (the token budget for level 1.0).
    pub fn token_budget_per_period(&self) -> u64 {
        let t = TimingPreset::Ddr4.timing();
        let bytes_per_cycle = self.slow_channels as u64 * 64 / t.burst_64b;
        (bytes_per_cycle * self.faucet_cycles / self.block_bytes).max(1)
    }

    /// Total simulated cycles (warm-up + measurement).
    pub fn total_cycles(&self) -> Cycles {
        self.warmup_cycles + self.measure_cycles
    }

    /// Reject configurations that cannot run: zero-length periodic events
    /// would self-reschedule at the current time forever, a processor-less
    /// system retires nothing, and degenerate geometry trips controller
    /// assertions. Returns the first problem found, phrased for CLI users.
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch_cycles == 0 {
            return Err("epoch_cycles must be > 0 (a zero-length epoch never advances time)".into());
        }
        if self.faucet_cycles == 0 {
            return Err(
                "faucet_cycles must be > 0 (a zero-length faucet period never advances time)"
                    .into(),
            );
        }
        if self.measure_cycles == 0 {
            return Err("measure_cycles must be > 0 (nothing would be measured)".into());
        }
        if self.cpu_cores == 0 && self.gpu_eus == 0 {
            return Err("need at least one CPU core or GPU EU".into());
        }
        if self.block_bytes == 0 || !self.block_bytes.is_power_of_two() {
            return Err(format!(
                "block_bytes must be a power of two, got {}",
                self.block_bytes
            ));
        }
        if !(1..=16).contains(&self.assoc) {
            return Err(format!("assoc must be in 1..=16, got {}", self.assoc));
        }
        if self.fast_channels == 0 || self.slow_channels == 0 {
            return Err("fast_channels and slow_channels must be > 0".into());
        }
        if self.footprint_scale == 0 {
            return Err("footprint_scale must be > 0".into());
        }
        if let Some(cap) = self.fast_capacity_override {
            let min = self.block_bytes * self.assoc as u64;
            if cap < min {
                return Err(format!(
                    "fast capacity {cap} B holds no complete set (need at least {min} B = block_bytes x assoc)"
                ));
            }
        }
        Ok(())
    }

    /// Canonical JSON encoding of the full configuration. Used by trace
    /// capture (`.h2trace` headers embed the config so `--replay` can
    /// rebuild the exact run) and byte-stable: encode→decode→encode is
    /// identical.
    pub fn to_json(&self) -> Json {
        fn cache(c: &CacheConfig) -> Json {
            Json::obj()
                .field("name", c.name.as_str())
                .field("size_bytes", c.size_bytes)
                .field("ways", c.ways as u64)
                .field("line_bytes", c.line_bytes)
                .field("latency", c.latency)
        }
        Json::obj()
            .field("cpu_cores", self.cpu_cores as u64)
            .field("gpu_eus", self.gpu_eus as u64)
            .field("gpu_ctx_slots", self.gpu_ctx_slots as u64)
            .field("store_buffer", self.store_buffer as u64)
            .field("cpu_mlp", self.cpu_mlp as u64)
            .field("weight_cpu", self.weights.0)
            .field("weight_gpu", self.weights.1)
            .field(
                "hierarchy",
                Json::obj()
                    .field("cpu_l1", cache(&self.hierarchy.cpu_l1))
                    .field("cpu_l2", cache(&self.hierarchy.cpu_l2))
                    .field("gpu_l1", cache(&self.hierarchy.gpu_l1))
                    .field("llc", cache(&self.hierarchy.llc))
                    .field("eus_per_gpu_l1", self.hierarchy.eus_per_gpu_l1 as u64),
            )
            .field("block_bytes", self.block_bytes)
            .field("assoc", self.assoc as u64)
            .field(
                "fast_preset",
                match self.fast_preset {
                    TimingPreset::Hbm2eSuper => "hbm2e",
                    TimingPreset::Hbm3Super => "hbm3",
                    TimingPreset::Ddr4 => "ddr4",
                },
            )
            .field("fast_channels", self.fast_channels as u64)
            .field("slow_channels", self.slow_channels as u64)
            .field("mode", match self.mode {
                Mode::Cache => "cache",
                Mode::Flat => "flat",
            })
            .field(
                "fast_capacity_override",
                match self.fast_capacity_override {
                    Some(c) => Json::from(c),
                    None => Json::Null,
                },
            )
            .field("footprint_scale", self.footprint_scale)
            .field("remap_cache_bytes", self.remap_cache_bytes)
            .field("epoch_cycles", self.epoch_cycles)
            .field("faucet_cycles", self.faucet_cycles)
            .field("epochs_per_phase", self.epochs_per_phase)
            .field("warmup_cycles", self.warmup_cycles)
            .field("measure_cycles", self.measure_cycles)
            .field("seed", self.seed)
    }

    /// Decode a configuration from [`SystemConfig::to_json`] output.
    /// Observation-only knobs (`telemetry`, `trace_sample`) are deliberately
    /// *not* part of the encoding — they never change simulation results,
    /// so a replayed run starts from their defaults and the caller sets
    /// whatever it wants.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        fn u64f(j: &Json, name: &str) -> Result<u64, String> {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("config missing u64 field '{name}'"))
        }
        fn f64f(j: &Json, name: &str) -> Result<f64, String> {
            j.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("config missing number field '{name}'"))
        }
        fn strf<'a>(j: &'a Json, name: &str) -> Result<&'a str, String> {
            j.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("config missing string field '{name}'"))
        }
        fn cache(j: &Json, name: &str) -> Result<CacheConfig, String> {
            let c = j.get(name).ok_or_else(|| format!("config missing cache level '{name}'"))?;
            Ok(CacheConfig {
                name: strf(c, "name")?.to_string(),
                size_bytes: u64f(c, "size_bytes")?,
                ways: u64f(c, "ways")? as usize,
                line_bytes: u64f(c, "line_bytes")?,
                latency: u64f(c, "latency")?,
            })
        }
        let h = j.get("hierarchy").ok_or("config missing field 'hierarchy'")?;
        let cfg = SystemConfig {
            cpu_cores: u64f(j, "cpu_cores")? as usize,
            gpu_eus: u64f(j, "gpu_eus")? as usize,
            gpu_ctx_slots: u64f(j, "gpu_ctx_slots")? as u32,
            store_buffer: u64f(j, "store_buffer")? as u32,
            cpu_mlp: u64f(j, "cpu_mlp")? as u32,
            weights: (f64f(j, "weight_cpu")?, f64f(j, "weight_gpu")?),
            hierarchy: HierarchyConfig {
                cpu_l1: cache(h, "cpu_l1")?,
                cpu_l2: cache(h, "cpu_l2")?,
                gpu_l1: cache(h, "gpu_l1")?,
                llc: cache(h, "llc")?,
                eus_per_gpu_l1: u64f(h, "eus_per_gpu_l1")? as usize,
            },
            block_bytes: u64f(j, "block_bytes")?,
            assoc: u64f(j, "assoc")? as usize,
            fast_preset: match strf(j, "fast_preset")? {
                "hbm2e" => TimingPreset::Hbm2eSuper,
                "hbm3" => TimingPreset::Hbm3Super,
                "ddr4" => TimingPreset::Ddr4,
                other => return Err(format!("unknown fast_preset '{other}'")),
            },
            fast_channels: u64f(j, "fast_channels")? as usize,
            slow_channels: u64f(j, "slow_channels")? as usize,
            mode: match strf(j, "mode")? {
                "cache" => Mode::Cache,
                "flat" => Mode::Flat,
                other => return Err(format!("unknown mode '{other}'")),
            },
            fast_capacity_override: match j.get("fast_capacity_override") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("config 'fast_capacity_override' must be u64 or null")?,
                ),
            },
            footprint_scale: u64f(j, "footprint_scale")?,
            remap_cache_bytes: u64f(j, "remap_cache_bytes")?,
            epoch_cycles: u64f(j, "epoch_cycles")?,
            faucet_cycles: u64f(j, "faucet_cycles")?,
            epochs_per_phase: u64f(j, "epochs_per_phase")?,
            warmup_cycles: u64f(j, "warmup_cycles")?,
            measure_cycles: u64f(j, "measure_cycles")?,
            seed: u64f(j, "seed")?,
            telemetry: true,
            trace_sample: None,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_table1() {
        let c = SystemConfig::paper();
        assert_eq!(c.cpu_cores, 8);
        assert_eq!(c.gpu_eus, 96);
        assert_eq!(c.weights, (12.0, 1.0));
        assert_eq!(c.block_bytes, 256);
        assert_eq!(c.assoc, 4);
        assert_eq!(c.epoch_cycles, 10_000_000);
        assert_eq!(c.epochs_per_phase * c.epoch_cycles, 500_000_000);
    }

    #[test]
    fn scaled_preserves_ratios() {
        let c = SystemConfig::scaled();
        let mix = Mix::by_name("C1").unwrap();
        let cap = c.fast_capacity_for(&mix);
        let fp = mix.total_footprint_bytes() / c.footprint_scale;
        // 1:8 fast:total ratio.
        assert!((fp as f64 / cap as f64 - 8.0).abs() < 0.2);
        // LLC well below fast capacity.
        assert!(c.hierarchy.llc.size_bytes * 4 < cap);
        // Epoch:phase ratio smaller than paper's but same order.
        assert_eq!(c.epochs_per_phase, 40);
    }

    #[test]
    fn token_budget_is_positive_and_sane() {
        let c = SystemConfig::scaled();
        let b = c.token_budget_per_period();
        // 32 B/cycle x 25k cycles / 256 B = 3125.
        assert_eq!(b, 3125);
    }

    #[test]
    fn weights_normalise() {
        let c = SystemConfig::paper();
        let (wc, wg) = c.norm_weights();
        assert!((wc + wg - 1.0).abs() < 1e-12);
        assert!((wc / wg - 12.0).abs() < 1e-9);
    }

    #[test]
    fn validate_accepts_shipped_configs() {
        for c in [SystemConfig::paper(), SystemConfig::scaled(), SystemConfig::tiny()] {
            c.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut c = SystemConfig::tiny();
        c.epoch_cycles = 0;
        assert!(c.validate().unwrap_err().contains("epoch_cycles"));

        let mut c = SystemConfig::tiny();
        c.faucet_cycles = 0;
        assert!(c.validate().unwrap_err().contains("faucet_cycles"));

        let mut c = SystemConfig::tiny();
        c.measure_cycles = 0;
        assert!(c.validate().unwrap_err().contains("measure_cycles"));

        let mut c = SystemConfig::tiny();
        c.cpu_cores = 0;
        c.gpu_eus = 0;
        assert!(c.validate().unwrap_err().contains("at least one"));

        let mut c = SystemConfig::tiny();
        c.block_bytes = 100;
        assert!(c.validate().unwrap_err().contains("power of two"));

        let mut c = SystemConfig::tiny();
        c.assoc = 17;
        assert!(c.validate().unwrap_err().contains("assoc"));

        let mut c = SystemConfig::tiny();
        c.fast_capacity_override = Some(64);
        assert!(c.validate().unwrap_err().contains("complete set"));
    }

    #[test]
    fn json_codec_roundtrips_shipped_configs() {
        for mut c in [SystemConfig::paper(), SystemConfig::scaled(), SystemConfig::tiny()] {
            c.fast_capacity_override = Some(8 * MIB);
            let j1 = c.to_json().to_string_compact();
            let back = SystemConfig::from_json(&Json::parse(&j1).unwrap()).unwrap();
            assert_eq!(j1, back.to_json().to_string_compact());
            assert_eq!(back.cpu_cores, c.cpu_cores);
            assert_eq!(back.seed, c.seed);
            assert_eq!(back.fast_capacity_override, c.fast_capacity_override);
        }
    }

    #[test]
    fn json_codec_rejects_malformed() {
        assert!(SystemConfig::from_json(&Json::parse("{}").unwrap()).is_err());
        let mut c = SystemConfig::tiny();
        c.epoch_cycles = 0; // invalid per validate()
        assert!(SystemConfig::from_json(&c.to_json()).is_err());
    }

    #[test]
    fn capacity_override_wins() {
        let mut c = SystemConfig::scaled();
        c.fast_capacity_override = Some(7 * MIB);
        let mix = Mix::by_name("C3").unwrap();
        assert_eq!(c.fast_capacity_for(&mix), 7 * MIB);
    }
}
