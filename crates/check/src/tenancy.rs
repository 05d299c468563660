//! Multi-tenant scenario checks for the fuzz battery.
//!
//! The datacenter scenario pack adds a second front-end family (tenant
//! streams) and a per-tenant SLO accounting layer. Its core conservation
//! law: the `tenant.*` latency histograms must *exactly partition* the
//! aggregate demand-latency histograms — every recorded latency sample
//! belongs to exactly one tenant, so summing the per-tenant histograms
//! bucket-by-bucket reproduces `lat.cpu_read` / `lat.gpu_demand`.
//!
//! [`scenario_battery`] runs a seeded sample scenario and checks:
//! partition, engine differential (calendar vs heap bit-identical, tenant
//! section included), blame tiling on traced scenario requests, and the
//! tenant-permutation metamorphic relation: rotating tenant *declaration
//! order* relays out the address space (so absolute numbers may change),
//! but the run must still satisfy partition and preserve the tenant table
//! as a set.

use crate::diff::diff_reports;
use h2_sim_core::trace_span::tiles_exactly;
use h2_sim_core::LogHistogram;
use h2_system::{
    run_plan_on_heap, run_scenario, scenario_config, scenario_plan, PolicyKind, RunReport,
    SystemConfig,
};
use h2_trace::{Arrival, TenantScenario, TenantSpec};

/// Deterministically generate a small scenario from a seed: 1–3 tenants,
/// varied arrival processes, priorities, phase mixes, and start/stop
/// churn. Always has at least one CPU core (tenant 0).
pub fn sample_scenario(seed: u64) -> TenantScenario {
    const CPU: [&str; 5] = ["gcc", "mcf", "lbm", "xz", "omnetpp"];
    const GPU: [&str; 4] = ["backprop", "bfs", "hotspot", "srad"];
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed | 1);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let n = 1 + (next() % 3) as usize;
    let mut tenants = Vec::with_capacity(n);
    for i in 0..n {
        let cores = if i == 0 { 1 + (next() % 2) as usize } else { (next() % 2) as usize };
        let ctxs = (next() % 2) as usize;
        let n_phases = 1 + (next() % 2) as usize;
        let cpu: Vec<String> = (0..n_phases.max(1))
            .map(|_| CPU[(next() % CPU.len() as u64) as usize].to_string())
            .collect();
        let gpu: Vec<String> = (0..n_phases.max(1))
            .map(|_| GPU[(next() % GPU.len() as u64) as usize].to_string())
            .collect();
        let arrival = match next() % 3 {
            0 => Arrival::Steady,
            1 => Arrival::Diurnal {
                period: 40_000 + (next() % 4) * 20_000,
                amp: 0.25 + (next() % 3) as f64 * 0.25,
                phase: (next() % 4) as f64 * 0.25,
            },
            _ => Arrival::Bursty { on: 2_000 + next() % 4_000, off: 1_000 + next() % 2_000 },
        };
        let start = if next() % 4 == 0 { next() % 20_000 } else { 0 };
        let stop = if next() % 5 == 0 { Some(start + 60_000 + next() % 40_000) } else { None };
        let phase_cycles = if n_phases > 1 { Some(25_000 + next() % 25_000) } else { None };
        tenants.push(TenantSpec {
            name: format!("t{i}"),
            priority: (next() % 3) as u8,
            cores,
            ctxs,
            cpu: if cores > 0 { cpu } else { Vec::new() },
            gpu: if ctxs > 0 { gpu } else { Vec::new() },
            arrival,
            start,
            stop,
            phase_cycles,
        });
    }
    TenantScenario { name: format!("fuzz-sc-{seed}"), seed, tenants }
}

/// [`h2_system::run_scenario`] on the legacy binary-heap event queue: the
/// reference run of the scenario engine differential.
pub fn run_scenario_on_heap(cfg: &SystemConfig, sc: &TenantScenario, kind: PolicyKind) -> RunReport {
    let cfg = scenario_config(cfg, sc);
    let (plan, fast_capacity) = scenario_plan(&cfg, sc);
    run_plan_on_heap(&cfg, &sc.name, kind, fast_capacity, plan)
}

/// Rotate tenant declaration order by `rot` positions. Unit counts and
/// per-tenant specs are untouched; only the layout order changes.
pub fn permute_tenants(sc: &TenantScenario, rot: usize) -> TenantScenario {
    let mut p = sc.clone();
    if !p.tenants.is_empty() {
        let k = rot % p.tenants.len();
        p.tenants.rotate_left(k);
    }
    p
}

fn hist_parts(h: &LogHistogram) -> (u64, u64, Vec<(usize, u64)>) {
    (h.count(), h.sum(), h.nonzero_buckets().collect())
}

/// The partition law: per-tenant histograms merged bucket-by-bucket must
/// equal the aggregate latency histograms (and therefore the aggregate
/// request counts). No-op for untagged runs; tagged runs must carry
/// telemetry for the aggregate side to exist.
pub fn check_partition(report: &RunReport) -> Result<(), String> {
    if report.tenants.is_empty() {
        return Ok(());
    }
    let t = report
        .telemetry
        .as_ref()
        .ok_or("partition check needs telemetry on the tagged run")?;
    let empty = LogHistogram::new();
    for (agg_name, side) in [("lat.cpu_read", "cpu"), ("lat.gpu_demand", "gpu")] {
        let mut merged = LogHistogram::new();
        for ten in &report.tenants {
            merged.merge(if side == "cpu" { &ten.cpu_lat } else { &ten.gpu_lat });
        }
        let agg = t.totals.hist(agg_name).unwrap_or(&empty);
        if hist_parts(&merged) != hist_parts(agg) {
            return Err(format!(
                "tenant {side} histograms do not partition {agg_name}: \
                 merged (count {}, sum {}) vs aggregate (count {}, sum {})",
                merged.count(),
                merged.sum(),
                agg.count(),
                agg.sum()
            ));
        }
    }
    Ok(())
}

/// Sorted `(name, priority, cpu count, gpu count present)` fingerprint of
/// the tenant table, for set-level comparison across permutations.
fn tenant_set(r: &RunReport) -> Vec<(String, u8)> {
    let mut v: Vec<_> = r.tenants.iter().map(|t| (t.name.clone(), t.priority)).collect();
    v.sort();
    v
}

/// The full scenario battery for one fuzz case: partition + engine
/// differential + blame tiling + the tenant-permutation relation.
pub fn scenario_battery(case_seed: u64, sim_seed: u64) -> Result<(), String> {
    let sc = sample_scenario(case_seed);
    let mut cfg = SystemConfig::tiny();
    cfg.seed = sim_seed;
    cfg.epoch_cycles = 20_000;
    cfg.faucet_cycles = 5_000;
    cfg.warmup_cycles = 40_000;
    cfg.measure_cycles = 60_000;
    cfg.trace_sample = Some(16);
    let kind = if case_seed.is_multiple_of(2) { PolicyKind::NoPart } else { PolicyKind::HydrogenFull };

    let a = run_scenario(&cfg, &sc, kind);
    check_partition(&a)?;
    if let Some(trace) = &a.trace {
        for span in &trace.spans {
            if !tiles_exactly(&span.intervals, span.start, span.end) {
                return Err(format!(
                    "scenario span {} [{}, {}) not tiled by {} blame intervals",
                    span.id,
                    span.start,
                    span.end,
                    span.intervals.len()
                ));
            }
        }
    }

    let b = run_scenario_on_heap(&cfg, &sc, kind);
    if let Some(d) = diff_reports(&a, &b) {
        return Err(format!("scenario calendar vs heap diverged: {d}"));
    }

    // Permutation relation: a reordered declaration relays out addresses,
    // so absolute metrics may shift — but the partition law and the
    // tenant table (as a set) must survive.
    let p = permute_tenants(&sc, 1);
    let c = run_scenario(&cfg, &p, kind);
    check_partition(&c)?;
    if tenant_set(&a) != tenant_set(&c) {
        return Err(format!(
            "tenant permutation changed the tenant set: {:?} vs {:?}",
            tenant_set(&a),
            tenant_set(&c)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_scenarios_are_valid_and_deterministic() {
        for seed in 0..12 {
            let a = sample_scenario(seed);
            let b = sample_scenario(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(a.total_cores() >= 1);
            // The JSON codec accepts every generated scenario.
            let j = a.to_json();
            let back = TenantScenario::from_json(&j).unwrap();
            assert_eq!(a, back);
        }
    }

    #[test]
    fn permutation_preserves_unit_totals() {
        let sc = sample_scenario(5);
        let p = permute_tenants(&sc, 1);
        assert_eq!(sc.total_cores(), p.total_cores());
        assert_eq!(sc.total_ctxs(), p.total_ctxs());
    }

    #[test]
    fn battery_is_clean_on_small_seeds() {
        for seed in [0, 1, 2] {
            scenario_battery(seed, seed + 7)
                .unwrap_or_else(|e| panic!("scenario battery seed {seed}: {e}"));
        }
    }

    #[test]
    fn partition_rejects_a_tampered_report() {
        let sc = sample_scenario(0);
        let mut cfg = SystemConfig::tiny();
        cfg.epoch_cycles = 20_000;
        cfg.faucet_cycles = 5_000;
        cfg.warmup_cycles = 40_000;
        cfg.measure_cycles = 60_000;
        let mut r = run_scenario(&cfg, &sc, PolicyKind::NoPart);
        assert!(check_partition(&r).is_ok());
        r.tenants[0].cpu_lat.record(42);
        assert!(check_partition(&r).is_err(), "extra sample must break the partition");
    }
}
