//! Behavioural tests of the paper's mechanisms at system level: token
//! throttling really reduces slow-tier pressure from GPU migrations, the
//! swap engine runs, static partitions never lazily fix up, capacity
//! scaling behaves monotonically, and the climbing variant adapts.

use hydrogen_repro::prelude::*;

fn tiny() -> SystemConfig {
    SystemConfig::tiny()
}

#[test]
fn tokens_throttle_gpu_migrations() {
    let cfg = tiny();
    let mix = Mix::by_name("C5").unwrap(); // streamcluster: migration-heavy
    let open = run_sim(&cfg, &mix, PolicyKind::HydrogenStatic { bw: 1, cap: 3, tok: 7 });
    let tight = run_sim(&cfg, &mix, PolicyKind::HydrogenStatic { bw: 1, cap: 3, tok: 0 });
    assert!(
        tight.hmc.migrations[1] < open.hmc.migrations[1],
        "tok=2.5% must migrate less than tok=100%: {} vs {}",
        tight.hmc.migrations[1],
        open.hmc.migrations[1]
    );
    assert!(tight.hmc.migrations_denied[1] > open.hmc.migrations_denied[1]);
}

#[test]
fn swap_engine_moves_hot_cpu_blocks() {
    let cfg = tiny();
    let mix = Mix::by_name("C1").unwrap();
    // Static DP with one dedicated channel: swaps should occur.
    let r = run_sim(&cfg, &mix, PolicyKind::HydrogenStatic { bw: 1, cap: 3, tok: 7 });
    assert!(r.hmc.swaps > 0, "expected fast-memory swaps");
    // Without dedicated channels there is nowhere to swap to.
    let r0 = run_sim(&cfg, &mix, PolicyKind::HydrogenStatic { bw: 0, cap: 3, tok: 7 });
    assert_eq!(r0.hmc.swaps, 0);
}

/// A lazy fix-up (§IV-D) happens only when a hit finds its block in a way
/// its class no longer owns, and only a reconfiguration moves ways between
/// classes. Static partitions therefore never fix up, while the climbing
/// design, which reconfigures, does. Both depend on the HMC asking for the
/// right class's alloc-mask on every hit and miss.
#[test]
fn static_partitions_never_lazily_fix_up() {
    let cfg = tiny();
    for name in ["C1", "C5"] {
        let mix = Mix::by_name(name).unwrap();
        for kind in [
            PolicyKind::HydrogenStatic { bw: 1, cap: 3, tok: 7 },
            PolicyKind::HydrogenStatic { bw: 0, cap: 2, tok: 3 },
            PolicyKind::WayPart,
            PolicyKind::NoPart,
        ] {
            let r = run_sim(&cfg, &mix, kind);
            assert_eq!(r.hmc.lazy_fixups, 0, "{name} {kind:?} lazily fixed up");
        }
        let full = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
        assert!(full.hmc.lazy_fixups > 0, "{name} HydrogenFull never fixed up");
    }
}

#[test]
fn more_fast_capacity_helps_cpu_hit_rate() {
    let mix = Mix::by_name("C1").unwrap();
    let mut small = tiny();
    small.fast_capacity_override = Some(small.fast_capacity_for(&mix) / 4);
    let mut big = tiny();
    big.fast_capacity_override = Some(big.fast_capacity_for(&mix) * 2);
    let rs = run_sim(&small, &mix, PolicyKind::NoPart);
    let rb = run_sim(&big, &mix, PolicyKind::NoPart);
    let hr = |r: &hydrogen_repro::prelude::RunReport| {
        r.hmc.fast_hits[0] as f64 / (r.hmc.fast_hits[0] + r.hmc.fast_misses[0]).max(1) as f64
    };
    assert!(
        hr(&rb) > hr(&rs),
        "hit rate should grow with capacity: {:.3} vs {:.3}",
        hr(&rb),
        hr(&rs)
    );
}

#[test]
fn hbm3_is_never_slower_than_hbm2e_for_baseline() {
    let mix = Mix::by_name("C5").unwrap();
    let cfg2 = tiny();
    let mut cfg3 = tiny();
    cfg3.fast_preset = hydrogen_repro::mem::TimingPreset::Hbm3Super;
    let r2 = run_sim(&cfg2, &mix, PolicyKind::NoPart);
    let r3 = run_sim(&cfg3, &mix, PolicyKind::NoPart);
    assert!(
        r3.weighted_ipc() >= r2.weighted_ipc() * 0.98,
        "doubling fast bandwidth should not hurt: {:.4} vs {:.4}",
        r3.weighted_ipc(),
        r2.weighted_ipc()
    );
}

#[test]
fn climbing_reconfigures_and_records_a_trace() {
    let mut cfg = tiny();
    // More epochs so the climber gets to move.
    cfg.measure_cycles = 500_000;
    let mix = Mix::by_name("C5").unwrap();
    let r = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
    assert!(!r.epoch_trace.is_empty());
    // The trace carries the applied configurations and the search moved at
    // least once from the initial (1, 3, 3).
    let moved = r
        .epoch_trace
        .iter()
        .any(|e| e.reconfigured || (e.bw, e.cap) != (1, 3));
    assert!(moved, "climber never moved: {:?}", &r.epoch_trace[..4.min(r.epoch_trace.len())]);
}

#[test]
fn hashcache_geometry_is_direct_mapped_with_chaining() {
    let mut cfg = tiny();
    cfg.assoc = 1;
    let mix = Mix::by_name("C8").unwrap();
    let r = run_sim(&cfg, &mix, PolicyKind::HashCache);
    assert!(r.cpu_instr > 0 && r.gpu_instr > 0);
    // Direct-mapped: still a functioning cache.
    assert!(r.hmc.fast_hits[0] > 0);
}

#[test]
fn weights_shift_the_optimisation_target() {
    let mut cpu_heavy = tiny();
    cpu_heavy.weights = (32.0, 1.0);
    cpu_heavy.measure_cycles = 500_000;
    let mut gpu_heavy = cpu_heavy.clone();
    gpu_heavy.weights = (1.0, 4.0);
    let mix = Mix::by_name("C6").unwrap();
    let rc = run_sim(&cpu_heavy, &mix, PolicyKind::HydrogenFull);
    let rg = run_sim(&gpu_heavy, &mix, PolicyKind::HydrogenFull);
    // Not a strict theorem at tiny scale, but the CPU-weighted run should
    // not give the CPU *less* IPC than the GPU-weighted run.
    assert!(
        rc.cpu_ipc() >= rg.cpu_ipc() * 0.9,
        "cpu-heavy {:.4} vs gpu-heavy {:.4}",
        rc.cpu_ipc(),
        rg.cpu_ipc()
    );
}
