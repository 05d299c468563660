//! Per-layer ledger: the host profiler's exclusive times and call counts
//! per simulated event, plus the simulated statistics of every layer,
//! aggregated over the runs a pass executed. Also the simulation digest
//! two commits (or a traced and an untraced run) are compared by.

use h2_harness::key::fnv1a_128;
use h2_sim_core::prof::{ProfNode, ProfReport};
use h2_system::RunReport;
use std::collections::HashMap;

/// `fnv1a_128` over every simulated field of the reports, in order. Host
/// measurements (`wall_s`, `events_per_sec`, `events_processed`) and
/// observation payloads (telemetry, spans) are left out, so the digest
/// changes only when simulated behaviour does.
pub fn sim_digest(runs: &[RunReport]) -> u128 {
    let mut text = String::new();
    for r in runs {
        let tenants: Vec<_> = r
            .tenants
            .iter()
            .map(|t| {
                let hist = |h: &h2_sim_core::LogHistogram| {
                    (h.count(), h.sum(), h.nonzero_buckets().collect::<Vec<_>>())
                };
                (&t.name, t.priority, hist(&t.cpu_lat), hist(&t.gpu_lat))
            })
            .collect();
        text.push_str(&format!(
            "{}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}\n",
            r.policy,
            r.mix,
            r.measured_cycles,
            r.cpu_instr,
            r.gpu_instr,
            r.weights,
            r.hmc,
            r.fast,
            r.slow,
            r.fast_energy,
            r.slow_energy,
            r.remap_hit_rate,
            r.final_params,
            r.epoch_trace,
            r.clamped_events,
            r.avg_cpu_read_latency,
            r.avg_gpu_read_latency,
            r.fast_channel_bytes,
            r.slow_channel_bytes,
            tenants,
        ));
    }
    fnv1a_128(text.as_bytes())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated statistics per layer, summed over `runs` before dividing.
/// `cycles_per_run` is warm-up plus measured cycles.
pub fn sim_stats(runs: &[RunReport], cycles_per_run: u64) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&RunReport) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let hit_rate = |c: usize| {
        ratio(
            sum(&|r| r.hmc.fast_hits[c]),
            sum(&|r| r.hmc.fast_hits[c] + r.hmc.fast_misses[c]),
        )
    };
    let migrations = sum(&|r| r.hmc.migrations.iter().sum());
    let denied = sum(&|r| {
        r.hmc.migrations_denied.iter().sum::<u64>() + r.hmc.buffer_denied.iter().sum::<u64>()
    });
    let epochs = runs.iter().map(|r| r.epoch_trace.len()).sum::<usize>() as f64;
    let reconfigs = runs
        .iter()
        .map(|r| r.epoch_trace.iter().filter(|e| e.reconfigured).count())
        .sum::<usize>() as f64;
    let row_hit = |fast: bool| {
        let dev = move |r: &RunReport| if fast { r.fast } else { r.slow };
        ratio(
            sum(&|r| dev(r).row_hits),
            sum(&|r| dev(r).row_hits + dev(r).activations),
        )
    };
    let bus_util = |fast: bool| {
        ratio(
            sum(&|r| {
                if fast {
                    r.fast.busy_cycles
                } else {
                    r.slow.busy_cycles
                }
            }),
            sum(&|r| {
                let ch = if fast {
                    r.fast_channel_bytes.len()
                } else {
                    r.slow_channel_bytes.len()
                };
                ch as u64 * r.measured_cycles
            }),
        )
    };
    let kcycles = (runs.len() as u64 * cycles_per_run) as f64 / 1e3;
    vec![
        (
            "queue.events_per_kcycle",
            ratio(sum(&|r| r.events_processed), kcycles),
        ),
        (
            "queue.events_per_s",
            ratio(
                sum(&|r| r.events_processed),
                runs.iter().map(|r| r.wall_s).sum(),
            ),
        ),
        ("hmc.fast_hit_rate.cpu", hit_rate(0)),
        ("hmc.fast_hit_rate.gpu", hit_rate(1)),
        (
            "hmc.remap_cache_hit_rate",
            ratio(
                runs.iter().map(|r| r.remap_hit_rate).sum(),
                runs.len() as f64,
            ),
        ),
        (
            "hmc.migration_grant_rate",
            ratio(migrations, migrations + denied),
        ),
        ("policy.reconfig_share", ratio(reconfigs, epochs)),
        ("mem.fast.row_hit_rate", row_hit(true)),
        ("mem.slow.row_hit_rate", row_hit(false)),
        ("mem.fast.bus_util", bus_util(true)),
        ("mem.slow.bus_util", bus_util(false)),
        (
            "mem.max_queue",
            runs.iter()
                .map(|r| r.fast.max_queue.max(r.slow.max_queue))
                .max()
                .unwrap_or(0) as f64,
        ),
    ]
}

/// Profiler scopes reported as exclusive ns per simulated event.
const TIMED_SCOPES: &[(&str, &str)] = &[
    ("queue.pop", "queue.pop.ns_per_ev"),
    ("dispatch.core_wake", "dispatch.core_wake.ns_per_ev"),
    ("dispatch.ctx_wake", "dispatch.ctx_wake.ns_per_ev"),
    ("dispatch.hmc_start", "dispatch.hmc_start.ns_per_ev"),
    ("dispatch.hmc_sram", "dispatch.hmc_sram.ns_per_ev"),
    ("dispatch.mem_done", "dispatch.mem_done.ns_per_ev"),
    ("dispatch.epoch", "dispatch.epoch.ns_per_ev"),
    ("dispatch.faucet", "dispatch.faucet.ns_per_ev"),
    ("cache.walk", "cache.walk.ns_per_ev"),
    ("cache.remap_probe", "cache.remap_probe.ns_per_ev"),
    ("hmc.access", "hmc.access.ns_per_ev"),
    ("hmc.remap", "hmc.remap.ns_per_ev"),
    ("hmc.meta", "hmc.meta.ns_per_ev"),
    ("hmc.hit", "hmc.hit.ns_per_ev"),
    ("hmc.miss", "hmc.miss.ns_per_ev"),
    ("hmc.handle", "hmc.handle.ns_per_ev"),
    ("hmc.policy", "hmc.policy.ns_per_ev"),
    ("mem.schedule", "mem.schedule.ns_per_ev"),
];

/// Profiler scopes reported as entries per thousand simulated cycles.
const COUNTED_SCOPES: &[(&str, &str)] = &[
    ("dispatch.core_wake", "dispatch.core_wake.calls_per_kcycle"),
    ("dispatch.ctx_wake", "dispatch.ctx_wake.calls_per_kcycle"),
    ("dispatch.mem_done", "dispatch.mem_done.calls_per_kcycle"),
];

/// Exclusive ns and entry count per scope name, summed over every path
/// the scope appears on (`hmc.policy` sits under both `hmc.hit` and
/// `hmc.miss`, for instance).
fn by_name(report: &ProfReport) -> HashMap<String, (u64, u64)> {
    fn walk(n: &ProfNode, acc: &mut HashMap<String, (u64, u64)>) {
        let e = acc.entry(n.name.clone()).or_default();
        e.0 += n.excl_ns;
        e.1 += n.count;
        for c in &n.children {
            walk(c, acc);
        }
    }
    let mut acc = HashMap::new();
    for r in &report.roots {
        walk(r, &mut acc);
    }
    acc
}

/// Host-time ledger of a traced pass that simulated `events` events over
/// `kcycles` thousand cycles. The event loop's own time is the exclusive
/// time of every `run.*` root, whatever dispatch kernel named it.
pub fn host_times(report: &ProfReport, events: u64, kcycles: f64) -> Vec<(&'static str, f64)> {
    let scopes = by_name(report);
    let get = |name: &str| scopes.get(name).copied().unwrap_or((0, 0));
    let per_ev = |ns: u64| ratio(ns as f64, events as f64);
    let mut out: Vec<(&'static str, f64)> = TIMED_SCOPES
        .iter()
        .map(|&(scope, metric)| (metric, per_ev(get(scope).0)))
        .collect();
    let run_loop = scopes
        .iter()
        .filter(|(name, _)| name.starts_with("run."))
        .map(|(_, &(ns, _))| ns)
        .sum();
    out.push(("run.loop.ns_per_ev", per_ev(run_loop)));
    for &(scope, metric) in COUNTED_SCOPES {
        out.push((metric, ratio(get(scope).1 as f64, kcycles)));
    }
    out
}
