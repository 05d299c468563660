//! The metric catalogue (mirrored in `BENCHMARK.json`, pinned by a test)
//! and the order statistics every timing is reported with.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric: name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of each workload waits for or pays, measured untraced.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", Lower, 0.25),
    e2e("sim_mcycles_per_s", "Mcycles/s", Higher, 0.25),
    e2e("hit_jobs_per_s", "jobs/s", Higher, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer numbers from the traced run. `*.ns_per_ev` is exclusive
/// profiler time per simulated event; rates and shares are simulated
/// statistics that a speed-only change must leave bit-identical.
pub const PER_LAYER: &[Metric] = &[
    // h2-sim-core event queue
    layer("queue.pop.ns_per_ev", "ns", Lower),
    layer("queue.events_per_kcycle", "ev/kcycle", Lower),
    layer("queue.events_per_s", "ev/s", Higher),
    // h2-system runner
    layer("dispatch.core_wake.ns_per_ev", "ns", Lower),
    layer("dispatch.ctx_wake.ns_per_ev", "ns", Lower),
    layer("dispatch.hmc_start.ns_per_ev", "ns", Lower),
    layer("dispatch.hmc_sram.ns_per_ev", "ns", Lower),
    layer("dispatch.mem_done.ns_per_ev", "ns", Lower),
    layer("dispatch.epoch.ns_per_ev", "ns", Lower),
    layer("dispatch.faucet.ns_per_ev", "ns", Lower),
    layer("run.loop.ns_per_ev", "ns", Lower),
    layer("dispatch.core_wake.calls_per_kcycle", "calls/kcycle", Lower),
    layer("dispatch.ctx_wake.calls_per_kcycle", "calls/kcycle", Lower),
    layer("dispatch.mem_done.calls_per_kcycle", "calls/kcycle", Lower),
    // h2-cache
    layer("cache.walk.ns_per_ev", "ns", Lower),
    layer("cache.remap_probe.ns_per_ev", "ns", Lower),
    // h2-hybrid
    layer("hmc.access.ns_per_ev", "ns", Lower),
    layer("hmc.remap.ns_per_ev", "ns", Lower),
    layer("hmc.meta.ns_per_ev", "ns", Lower),
    layer("hmc.hit.ns_per_ev", "ns", Lower),
    layer("hmc.miss.ns_per_ev", "ns", Lower),
    layer("hmc.handle.ns_per_ev", "ns", Lower),
    layer("hmc.fast_hit_rate.cpu", "fraction", Higher),
    layer("hmc.fast_hit_rate.gpu", "fraction", Higher),
    layer("hmc.remap_cache_hit_rate", "fraction", Higher),
    layer("hmc.migration_grant_rate", "fraction", Higher),
    // h2-hydrogen / h2-baselines
    layer("hmc.policy.ns_per_ev", "ns", Lower),
    layer("policy.reconfig_share", "fraction", Lower),
    // h2-mem
    layer("mem.schedule.ns_per_ev", "ns", Lower),
    layer("mem.fast.row_hit_rate", "fraction", Higher),
    layer("mem.slow.row_hit_rate", "fraction", Higher),
    layer("mem.fast.bus_util", "fraction", Higher),
    layer("mem.slow.bus_util", "fraction", Lower),
    layer("mem.max_queue", "count", Lower),
    // h2-trace
    layer("trace.encode.ns_per_record", "ns", Lower),
    layer("trace.decode.ns_per_record", "ns", Lower),
    layer("trace.bytes_per_record", "B", Lower),
    layer("frontend.plan_us", "us", Lower),
    // observability
    layer("telemetry.json_ms", "ms", Lower),
    layer("telemetry.bytes", "B", Lower),
    layer("trace_export.ms", "ms", Lower),
    layer("spans.kept", "count", Higher),
    layer("spans.dropped_share", "fraction", Lower),
    layer("prof.overhead", "fraction", Lower),
    // h2-harness
    layer("store.commit.us", "us", Lower),
    layer("store.load.us", "us", Lower),
    layer("store.bytes_per_entry", "B", Lower),
    layer("codec.roundtrip.us", "us", Lower),
    layer("key.ns", "ns", Lower),
    layer("sweep.worker_busy", "fraction", Higher),
    layer("sweep.nonsim_share", "fraction", Lower),
    layer("job_s.p50", "s", Lower),
    // allocator and model fidelity
    layer("alloc.per_event", "allocs/ev", Lower),
    layer("paper_rel_err", "fraction", Lower),
];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts). `xs` must be
/// non-empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median, third quartile, with the interpolation of
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method), so
/// spreads computed here match the ones checked against the bounds. A
/// single sample is its own quartiles. `xs` must be non-empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// A percentile is labelled only when at least ten samples lie beyond
/// its nearest rank.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= 10
}

/// Nearest-rank percentile, or `None` when [`percentile_supported`]
/// refuses the label.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if !percentile_supported(xs.len(), q) {
        return None;
    }
    let v = sorted(xs);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    Some(v[rank - 1])
}

/// The outcome of comparing a metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge set `b` (the change) against set `a` (the parent) under a
/// metric's bound:
///
/// - either side's quartile spread wider than the bound → `Unresolved`,
///   unless every `b` run reads better than every `a` run;
/// - `b`'s median worse than `a`'s by more than the bound → `Worse`;
/// - `b` wins at least nine tenths of the index-paired runs (ties count
///   for neither) and its median beats `a`'s by more than `a`'s own
///   spread → `Better`;
/// - otherwise `Same`.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if spread(a).max(spread(b)) > bound {
        return if all_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && -worse_by > spread(a) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_labelled_only_with_ten_samples_beyond() {
        assert!(percentile_supported(200, 0.95));
        assert!(!percentile_supported(199, 0.95));
        assert!(!percentile_supported(8, 0.95));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        assert_eq!(percentile(&xs, 0.5), Some(100.0));
        assert_eq!(percentile(&xs[..100], 0.95), None);
    }

    #[test]
    fn catalogue_names_and_units_are_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
    }

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0)))
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let parent = around(10.0, 10);
        // Identical sets: same.
        assert_eq!(verdict(Lower, 0.10, &parent, &parent), Verdict::Same);
        // 20% slower on a lower-is-better metric with a 10% bound: worse.
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(Lower, 0.10, &parent, &slower), Verdict::Worse);
        // 5% slower stays within the bound: same.
        let bit_slower: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(Lower, 0.10, &parent, &bit_slower), Verdict::Same);
        // 20% faster, winning every pair: better.
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(Lower, 0.10, &parent, &faster), Verdict::Better);
        // Direction flips for higher-is-better metrics.
        assert_eq!(verdict(Higher, 0.10, &parent, &faster), Verdict::Worse);
        assert_eq!(verdict(Higher, 0.10, &parent, &slower), Verdict::Better);
        // A noisy side (spread over the bound) is unresolved...
        let noisy = vec![5.0, 8.0, 10.0, 12.0, 15.0, 9.0, 11.0, 7.0, 13.0, 10.0];
        assert_eq!(verdict(Lower, 0.10, &parent, &noisy), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let noisy_fast: Vec<f64> = noisy.iter().map(|x| x * 0.1).collect();
        assert_eq!(verdict(Lower, 0.10, &noisy, &noisy_fast), Verdict::Better);
        // Winning fewer than nine tenths of the pairs is not a gain.
        let mut mixed = faster.clone();
        mixed[0] = 10.5;
        mixed[1] = 10.5;
        assert_eq!(verdict(Lower, 0.10, &parent, &mixed), Verdict::Same);
    }
}
