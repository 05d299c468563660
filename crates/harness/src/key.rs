//! Canonical, collision-resistant cache keys for simulation jobs.
//!
//! A [`Job`](crate::cache::Job) used to be keyed by a ~25-field `format!`
//! string — slow to build, allocation-heavy, and silently incomplete (it
//! omitted the store buffer and the whole cache hierarchy). The structured
//! encoder below serialises every field that influences a run into a
//! canonical little-endian byte stream and hashes it with FNV-1a/128,
//! giving a fixed-width `u128` key that is cheap to compare, to use as a
//! `HashMap` key, and to name on-disk cache entries with.
//!
//! The config encoder destructures [`SystemConfig`] and its cache hierarchy
//! exhaustively, so a new config field does not compile until it is either
//! keyed or named as an omission. The deliberate omissions:
//! [`SystemConfig::telemetry`] and [`SystemConfig::trace_sample`] (pure
//! observations that never perturb timing — runs differing only in them
//! are the same run; a traced replay of an untraced cache entry is handled
//! by the cache's upgrade-on-miss rule, not by the key) and each cache
//! level's display `name`.

use h2_cache::{CacheConfig, HierarchyConfig};
use h2_system::{Participants, PolicyKind, SystemConfig};
use h2_trace::{Mix, TenantScenario};

/// Bump whenever the key encoding below changes shape, so persisted cache
/// entries keyed under the old scheme can never alias new ones.
pub const KEY_SCHEMA_VERSION: u32 = 1;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a over the byte stream, 128-bit variant.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// Canonical byte-stream builder for key material.
#[derive(Debug, Default)]
pub struct KeyEncoder {
    buf: Vec<u8>,
}

impl KeyEncoder {
    /// Fresh encoder, pre-tagged with the key schema version.
    pub fn new() -> Self {
        let mut e = Self { buf: Vec::with_capacity(256) };
        e.u32(KEY_SCHEMA_VERSION);
        e
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Finish: hash the accumulated stream.
    pub fn finish(&self) -> u128 {
        fnv1a_128(&self.buf)
    }
}

fn participants_tag(p: Participants) -> u8 {
    match p {
        Participants::Both => 0,
        Participants::CpuOnly => 1,
        Participants::GpuOnly => 2,
    }
}

fn encode_mix(e: &mut KeyEncoder, mix: &Mix) {
    e.str(mix.name);
    for name in mix.cpu {
        e.str(name);
    }
    e.str(mix.gpu);
}

/// Encode every field that influences a run. The patterns are exhaustive,
/// so adding a field breaks the build here until it is keyed or listed
/// with the omissions (`field: _`, see module docs).
fn encode_config(e: &mut KeyEncoder, c: &SystemConfig) {
    let SystemConfig {
        cpu_cores,
        gpu_eus,
        gpu_ctx_slots,
        store_buffer,
        cpu_mlp,
        weights,
        hierarchy,
        block_bytes,
        assoc,
        fast_preset,
        fast_channels,
        slow_channels,
        mode,
        fast_capacity_override,
        footprint_scale,
        remap_cache_bytes,
        epoch_cycles,
        faucet_cycles,
        epochs_per_phase,
        warmup_cycles,
        measure_cycles,
        seed,
        telemetry: _,
        trace_sample: _,
    } = c;
    let HierarchyConfig { cpu_l1, cpu_l2, gpu_l1, llc, eus_per_gpu_l1 } = hierarchy;
    e.u64(*cpu_cores as u64);
    e.u64(*gpu_eus as u64);
    e.u64(*gpu_ctx_slots as u64);
    e.u64(*store_buffer as u64);
    e.u64(*cpu_mlp as u64);
    e.f64(weights.0);
    e.f64(weights.1);
    for level in [cpu_l1, cpu_l2, gpu_l1, llc] {
        let CacheConfig { name: _, size_bytes, ways, line_bytes, latency } = level;
        e.u64(*size_bytes);
        e.u64(*ways as u64);
        e.u64(*line_bytes);
        e.u64(*latency);
    }
    e.u64(*eus_per_gpu_l1 as u64);
    e.u64(*block_bytes);
    e.u64(*assoc as u64);
    // Debug strings are a stable, exhaustive discriminant for these small
    // config enums (a new variant automatically gets a distinct tag).
    e.str(&format!("{fast_preset:?}"));
    e.u64(*fast_channels as u64);
    e.u64(*slow_channels as u64);
    e.str(&format!("{mode:?}"));
    e.opt_u64(*fast_capacity_override);
    e.u64(*footprint_scale);
    e.u64(*remap_cache_bytes);
    e.u64(*epoch_cycles);
    e.u64(*faucet_cycles);
    e.u64(*epochs_per_phase);
    e.u64(*warmup_cycles);
    e.u64(*measure_cycles);
    e.u64(*seed);
}

/// The canonical key of one (config, mix, policy, participants, scenario)
/// job. A scenario job keeps its mix as key material too (the harness uses
/// a fixed placeholder mix for scenarios, so the scenario JSON is the
/// distinguishing part): the scenario's canonical compact JSON covers
/// every arrival/priority/churn knob in one stable byte stream.
pub fn job_key(
    cfg: &SystemConfig,
    mix: &Mix,
    kind: PolicyKind,
    parts: Participants,
    scenario: Option<&TenantScenario>,
) -> u128 {
    let mut e = KeyEncoder::new();
    encode_mix(&mut e, mix);
    // Labels are unique per policy variant, including the parameterised
    // ones (swap variants, static (bw, cap, tok) points).
    e.str(&kind.label());
    e.u8(participants_tag(parts));
    encode_config(&mut e, cfg);
    match scenario {
        Some(sc) => {
            e.u8(1);
            e.str(&sc.to_json().to_string_compact());
        }
        None => e.u8(0),
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        let a = fnv1a_128(b"hello");
        let b = fnv1a_128(b"hello");
        let c = fnv1a_128(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(fnv1a_128(b""), 0);
    }

    #[test]
    fn every_config_field_changes_the_key() {
        let mix = Mix::by_name("C1").unwrap();
        let base = SystemConfig::tiny();
        let key = |c: &SystemConfig| job_key(c, &mix, PolicyKind::NoPart, Participants::Both, None);
        let k0 = key(&base);

        let mut c = base.clone();
        c.seed += 1;
        assert_ne!(key(&c), k0, "seed");
        let mut c = base.clone();
        c.store_buffer += 1;
        assert_ne!(key(&c), k0, "store_buffer (missing from the old string key)");
        let mut c = base.clone();
        c.hierarchy.llc.size_bytes *= 2;
        assert_ne!(key(&c), k0, "hierarchy (missing from the old string key)");
        let mut c = base.clone();
        c.fast_capacity_override = Some(123);
        assert_ne!(key(&c), k0, "capacity override");
        let mut c = base.clone();
        c.measure_cycles += 1;
        assert_ne!(key(&c), k0, "measure window");
    }

    #[test]
    fn telemetry_flag_does_not_change_the_key() {
        let mix = Mix::by_name("C1").unwrap();
        let mut c = SystemConfig::tiny();
        let k0 = job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, None);
        c.telemetry = !c.telemetry;
        assert_eq!(job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, None), k0);
    }

    #[test]
    fn trace_sample_does_not_change_the_key() {
        let mix = Mix::by_name("C1").unwrap();
        let mut c = SystemConfig::tiny();
        let k0 = job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, None);
        c.trace_sample = Some(64);
        assert_eq!(job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, None), k0);
    }

    #[test]
    fn scenario_changes_the_key() {
        let mix = Mix::by_name("C1").unwrap();
        let c = SystemConfig::tiny();
        let sc = TenantScenario {
            name: "s".into(),
            seed: 1,
            tenants: vec![h2_trace::TenantSpec {
                name: "a".into(),
                priority: 0,
                cores: 1,
                ctxs: 0,
                cpu: vec!["gcc".into()],
                gpu: vec![],
                arrival: h2_trace::Arrival::Steady,
                start: 0,
                stop: None,
                phase_cycles: None,
            }],
        };
        let k0 = job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, None);
        let k1 = job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, Some(&sc));
        assert_ne!(k0, k1);
        let mut sc2 = sc.clone();
        sc2.seed = 2;
        let k2 = job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, Some(&sc2));
        assert_ne!(k1, k2);
    }

    /// Literal keys of a tiny C1 job and a two-tenant scenario job. Every
    /// persisted run store is addressed by these values, so a change that
    /// moves them orphans each stored run; such a change must bump
    /// [`KEY_SCHEMA_VERSION`] and re-pin.
    #[test]
    fn keys_are_pinned() {
        let mix = Mix::by_name("C1").unwrap();
        let c = SystemConfig::tiny();
        let tenant = |name: &str, priority, cores, ctxs, cpu: &[&str], gpu: &[&str]| {
            h2_trace::TenantSpec {
                name: name.into(),
                priority,
                cores,
                ctxs,
                cpu: cpu.iter().map(|s| s.to_string()).collect(),
                gpu: gpu.iter().map(|s| s.to_string()).collect(),
                arrival: h2_trace::Arrival::Steady,
                start: 0,
                stop: None,
                phase_cycles: None,
            }
        };
        let mut ml = tenant("ml", 0, 0, 2, &[], &["bfs"]);
        ml.arrival = h2_trace::Arrival::Bursty { on: 4_000, off: 2_000 };
        ml.start = 5_000;
        ml.stop = Some(90_000);
        let sc = TenantScenario {
            name: "pinned".into(),
            seed: 3,
            tenants: vec![tenant("web", 1, 1, 0, &["gcc"], &[]), ml],
        };
        assert_eq!(
            job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, None),
            0x8bf4_7a9b_8ae7_d5fb_4001_189a_f8fc_0108
        );
        assert_eq!(
            job_key(&c, &mix, PolicyKind::HydrogenFull, Participants::Both, Some(&sc)),
            0xe121_81df_f04f_5919_be43_b920_72ba_4c36
        );
    }

    #[test]
    fn static_policy_points_get_distinct_keys() {
        let mix = Mix::by_name("C1").unwrap();
        let c = SystemConfig::tiny();
        let a = job_key(&c, &mix, PolicyKind::HydrogenStatic { bw: 1, cap: 2, tok: 3 }, Participants::Both, None);
        let b = job_key(&c, &mix, PolicyKind::HydrogenStatic { bw: 1, cap: 3, tok: 2 }, Participants::Both, None);
        assert_ne!(a, b);
    }
}
