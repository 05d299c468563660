//! Cross-crate accounting invariants checked on real end-to-end runs, over
//! every policy and both hybrid modes.

use hydrogen_repro::hybrid::types::{Mode, ReqClass};
use hydrogen_repro::prelude::*;

fn tiny() -> SystemConfig {
    SystemConfig::tiny()
}

fn all_policies() -> Vec<PolicyKind> {
    let mut v = PolicyKind::fig5_designs();
    v.push(PolicyKind::NoPart);
    v.push(PolicyKind::HydrogenStatic { bw: 2, cap: 3, tok: 3 });
    v
}

#[test]
fn hits_plus_misses_equal_accesses() {
    let cfg = tiny();
    let mix = Mix::by_name("C4").unwrap();
    for kind in all_policies() {
        let r = run_sim(&cfg, &mix, kind);
        for class in [ReqClass::Cpu, ReqClass::Gpu] {
            let i = class.idx();
            assert_eq!(
                r.hmc.fast_hits[i] + r.hmc.fast_misses[i],
                r.hmc.accesses[i],
                "{} {:?}",
                r.policy,
                class
            );
        }
    }
}

#[test]
fn misses_split_into_migrations_bypasses_denials() {
    let cfg = tiny();
    let mix = Mix::by_name("C5").unwrap();
    for kind in all_policies() {
        let r = run_sim(&cfg, &mix, kind);
        for i in 0..2 {
            assert_eq!(
                r.hmc.migrations[i] + r.hmc.bypasses[i],
                r.hmc.fast_misses[i],
                "{} class {}",
                r.policy,
                i
            );
            // Every denial becomes a bypass.
            assert!(
                r.hmc.bypasses[i] >= r.hmc.migrations_denied[i] + r.hmc.buffer_denied[i],
                "{} class {}",
                r.policy,
                i
            );
        }
    }
}

#[test]
fn traffic_and_energy_are_positive_and_consistent() {
    let cfg = tiny();
    let mix = Mix::by_name("C7").unwrap();
    for kind in [PolicyKind::NoPart, PolicyKind::HydrogenFull] {
        let r = run_sim(&cfg, &mix, kind);
        assert!(r.fast.bytes > 0 && r.slow.bytes > 0, "{}", r.policy);
        assert!(r.energy_j() > 0.0);
        // Bus busy time is consistent with bytes moved (64 B per >=1 cycle).
        assert!(r.fast.busy_cycles as u64 * 64 >= r.fast.bytes, "{}", r.policy);
        // Row hits + activations cover all commands.
        assert_eq!(
            r.fast.row_hits + r.fast.activations,
            r.fast.reads + r.fast.writes,
            "{}",
            r.policy
        );
    }
}

#[test]
fn flat_mode_every_migration_writes_back() {
    let mut cfg = tiny();
    cfg.mode = Mode::Flat;
    let mix = Mix::by_name("C1").unwrap();
    let r = run_sim(&cfg, &mix, PolicyKind::NoPart);
    let migrations = r.hmc.migrations[0] + r.hmc.migrations[1];
    assert!(migrations > 0);
    // In flat mode every migration displaces the only copy: the write-back
    // count must track migrations plus lazy fixups (cold fills into invalid
    // ways are the exception, hence >= a substantial fraction).
    assert!(
        r.hmc.victim_writebacks * 2 >= migrations,
        "flat-mode writebacks too rare: {} vs {migrations}",
        r.hmc.victim_writebacks
    );
}

#[test]
fn full_isolation_config_keeps_gpu_out_of_fast() {
    let cfg = tiny();
    let mix = Mix::by_name("C6").unwrap();
    // bw=4, cap=4: every way belongs to the CPU.
    let r = run_sim(
        &cfg,
        &mix,
        PolicyKind::HydrogenStatic { bw: 4, cap: 4, tok: 7 },
    );
    assert_eq!(r.hmc.migrations[1], 0, "GPU must never migrate");
    assert_eq!(r.hmc.bypasses[1], r.hmc.fast_misses[1]);
    // GPU still makes progress through the slow tier.
    assert!(r.gpu_instr > 0);
}

#[test]
fn remap_cache_hit_rate_is_sane() {
    let cfg = tiny();
    let mix = Mix::by_name("C2").unwrap();
    let r = run_sim(&cfg, &mix, PolicyKind::NoPart);
    assert!(r.remap_hit_rate >= 0.0 && r.remap_hit_rate <= 1.0);
    assert!(r.hmc.meta_reads > 0, "tiny remap cache must miss sometimes");
}

/// Transaction conservation, asserted from the metrics registry: at every
/// observation point `txns_started == txns_retired + inflight`, and a
/// synchronously drained controller ends with nothing in flight.
#[test]
fn transactions_conserve_through_registry() {
    use hydrogen_repro::hybrid::types::HybridConfig;
    use hydrogen_repro::hybrid::{Hmc, HmcOutput};
    use hydrogen_repro::hydrogen::{HydrogenConfig, HydrogenPolicy};
    use hydrogen_repro::sim::{MetricsRegistry, SeededRng};

    let cfg = HybridConfig {
        fast_capacity: 64 * 1024, // 64 sets x 4 ways x 256 B
        ..HybridConfig::default()
    };
    let policy = HydrogenPolicy::new(HydrogenConfig::full(4, 4, 25));
    let mut hmc = Hmc::new(cfg, Box::new(policy), 7);
    let mut rng = SeededRng::derive(11, "acct.txns");

    let snapshot = |hmc: &Hmc| -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let mut s = reg.scoped("hmc");
        hmc.collect_metrics(&mut s);
        reg
    };

    for i in 0..400u64 {
        let class = if rng.chance(0.5) { ReqClass::Cpu } else { ReqClass::Gpu };
        let addr = rng.below(4096) * 256;
        let is_write = rng.chance(0.3);
        let mut queue = Vec::new();
        hmc.access(i, class, addr, is_write, true, None, &mut queue);
        // Synchronous pump: complete every command immediately.
        while let Some(o) = queue.pop() {
            match o {
                HmcOutput::Mem { cmd, .. } => {
                    let mut nxt = Vec::new();
                    hmc.handle(cmd.token, &mut nxt);
                    queue.extend(nxt);
                }
                HmcOutput::After { token, .. } => {
                    let mut nxt = Vec::new();
                    hmc.handle(token, &mut nxt);
                    queue.extend(nxt);
                }
                HmcOutput::DemandReady { .. } => {}
            }
        }
        if i % 7 == 0 {
            hmc.policy_mut().on_faucet();
        }
        let reg = snapshot(&hmc);
        let started = reg.counter("hmc.txns_started");
        let retired = reg.counter("hmc.txns_retired");
        let inflight = reg.gauge("hmc.inflight").unwrap() as u64;
        assert_eq!(started, retired + inflight, "conservation broke at access {i}");
        assert_eq!(inflight, 0, "synchronous drive must drain access {i}");
    }
    let reg = snapshot(&hmc);
    assert!(reg.counter("hmc.txns_started") >= 400);
    assert_eq!(reg.counter("hmc.cpu.accesses") + reg.counter("hmc.gpu.accesses"), 400);
}

/// Token-faucet conservation from a full run's telemetry: every granted
/// token is spent, discarded by the banking cap, or still banked — and the
/// bank itself is bounded by two periods' grant, so the lifetime flows can
/// never drift apart by more than that.
#[test]
fn token_flows_conserve_in_telemetry_totals() {
    let cfg = tiny();
    let mix = Mix::by_name("C5").unwrap();
    let r = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
    let t = r.telemetry.as_ref().expect("every run records telemetry");

    let granted = t.totals.counter("hmc.policy.tokens.granted");
    let spent = t.totals.counter("hmc.policy.tokens.spent");
    let discarded = t.totals.counter("hmc.policy.tokens.discarded");
    assert!(granted > 0, "the faucet must have run");

    // granted - spent - discarded == available(end) - available(warm-up),
    // and the bank never holds more than 2 x grant <= 2 x budget tokens.
    let bound = 2 * cfg.token_budget_per_period();
    assert!(
        spent + discarded <= granted + bound,
        "token flows out of balance: {spent} + {discarded} vs {granted} (+{bound})"
    );
    assert!(
        granted <= spent + discarded + bound,
        "granted tokens vanished: {granted} vs {spent} + {discarded} (+{bound})"
    );
    let avail = t.totals.gauge("hmc.policy.tokens.available").unwrap();
    assert!(avail >= 0.0 && avail <= bound as f64, "bank out of range: {avail}");

    // Epoch frames are deltas over sub-windows of the measured window, so
    // their sums can never exceed the window totals, for any counter.
    for name in ["hmc.policy.tokens.granted", "hmc.cpu.accesses", "sys.cpu_instr"] {
        let summed: u64 = t.epochs.iter().map(|f| f.metrics.counter(name)).sum();
        assert!(
            summed <= t.totals.counter(name),
            "{name}: epoch sum {summed} exceeds total {}",
            t.totals.counter(name)
        );
    }
}

/// Per-epoch way-allocation sanity from the telemetry timeline: the
/// `(bw, cap)` in force after each epoch respects `bw <= cap <= assoc`,
/// the frame gauges agree with the adaptation record exactly, and the two
/// classes' fast-way occupancies never exceed the fast tier's way count.
#[test]
fn epoch_way_allocations_stay_within_fast_ways() {
    let cfg = tiny();
    let mix = Mix::by_name("C1").unwrap();
    let r = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
    let t = r.telemetry.as_ref().expect("every run records telemetry");
    assert!(!t.epochs.is_empty());

    let total_ways = (cfg.fast_capacity_for(&mix) / cfg.block_bytes) as f64;
    for f in &t.epochs {
        assert!(
            f.record.bw <= f.record.cap && f.record.cap <= cfg.assoc,
            "epoch {}: illegal allocation ({}, {})",
            f.record.epoch,
            f.record.bw,
            f.record.cap
        );
        // Gauges are sampled at the same post-adaptation point the record is
        // built, so they must agree exactly.
        assert_eq!(f.metrics.gauge("hmc.policy.bw"), Some(f.record.bw as f64));
        assert_eq!(f.metrics.gauge("hmc.policy.cap"), Some(f.record.cap as f64));
        let occ_cpu = f.metrics.gauge("hmc.occ_ways.cpu").unwrap();
        let occ_gpu = f.metrics.gauge("hmc.occ_ways.gpu").unwrap();
        assert!(occ_cpu >= 0.0 && occ_gpu >= 0.0);
        assert!(
            occ_cpu + occ_gpu <= total_ways,
            "epoch {}: occupancy {} + {} exceeds {} ways",
            f.record.epoch,
            occ_cpu,
            occ_gpu,
            total_ways
        );
    }
}

/// Two instruments of one run agree: every counter the telemetry totals
/// share with the report equals the report's field exactly — the
/// instruction counts, the controller's statistics, the devices'
/// statistics summed over channels, and the queue peak. Checked untraced
/// and traced at 1/64, since spans must not move either instrument.
#[test]
fn telemetry_totals_equal_the_report_fields_they_mirror() {
    let mut traced = tiny();
    traced.trace_sample = Some(64);
    for (cfg, mix, kind) in [
        (tiny(), "C1", PolicyKind::NoPart),
        (traced, "C5", PolicyKind::HydrogenFull),
    ] {
        let r = run_sim(&cfg, &Mix::by_name(mix).unwrap(), kind);
        let t = &r.telemetry.as_ref().expect("every run records telemetry").totals;
        let run = format!("{mix} {}", r.policy);
        assert_eq!(t.counter("sys.cpu_instr"), r.cpu_instr, "{run}");
        assert_eq!(t.counter("sys.gpu_instr"), r.gpu_instr, "{run}");

        let h = &r.hmc;
        for (i, class) in ["cpu", "gpu"].iter().enumerate() {
            for (name, v) in [
                ("accesses", h.accesses[i]),
                ("fast_hits", h.fast_hits[i]),
                ("fast_misses", h.fast_misses[i]),
                ("migrations", h.migrations[i]),
                ("bypasses", h.bypasses[i]),
                ("migrations_denied", h.migrations_denied[i]),
                ("buffer_denied", h.buffer_denied[i]),
            ] {
                assert_eq!(t.counter(&format!("hmc.{class}.{name}")), v, "{run}: {class}.{name}");
            }
        }
        for (name, v) in [
            ("victim_writebacks", h.victim_writebacks),
            ("swaps", h.swaps),
            ("lazy_fixups", h.lazy_fixups),
            ("meta_reads", h.meta_reads),
            ("meta_writebacks", h.meta_writebacks),
        ] {
            assert_eq!(t.counter(&format!("hmc.{name}")), v, "{run}: {name}");
        }

        // `mem.<tier>.ch<N>.<name>`, one per channel (the per-bank rows,
        // `ch<N>.bank<B>.<name>`, do not match).
        let of_channels = |tier: &str, name: &str, n: &str| {
            n.strip_prefix(&format!("mem.{tier}.ch"))
                .and_then(|rest| rest.split_once('.'))
                .is_some_and(|(ch, field)| ch.parse::<usize>().is_ok() && field == name)
        };
        for (tier, s, channels) in [
            ("fast", &r.fast, cfg.fast_channels),
            ("slow", &r.slow, cfg.slow_channels),
        ] {
            for (name, v) in [
                ("reads", s.reads),
                ("writes", s.writes),
                ("bytes", s.bytes),
                ("activations", s.activations),
                ("row_hits", s.row_hits),
                ("row_conflicts", s.row_conflicts),
                ("busy_cycles", s.busy_cycles),
                ("enqueued", s.enqueued),
            ] {
                let per_channel: Vec<u64> = t
                    .counters()
                    .filter(|(n, _)| of_channels(tier, name, n))
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(per_channel.len(), channels, "{run}: {tier} channels of {name}");
                assert_eq!(per_channel.iter().sum::<u64>(), v, "{run}: {tier}.{name}");
            }
            let peak = t
                .gauges()
                .filter(|(n, _)| of_channels(tier, "queue_peak", n))
                .map(|(_, v)| v)
                .fold(0.0, f64::max);
            assert_eq!(peak, s.max_queue as f64, "{run}: {tier} queue peak");
        }
        if cfg.trace_sample.is_some() {
            assert!(t.counter("trace.spans") > 0, "{run}: the traced run closed no span");
        }
    }
}
