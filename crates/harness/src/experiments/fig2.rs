//! Fig 2: motivation.
//!
//! (a) Slowdown of CPU and GPU workloads when co-running vs running alone,
//!     per mix, under the non-partitioned baseline.
//! (b) CPU/GPU performance sensitivity to fast-memory bandwidth (channels).
//! (c) ... to fast-memory capacity.
//! (d) ... to slow-memory bandwidth (channels).
//!
//! Sensitivities use C1 (as in the paper) and report performance relative
//! to the full configuration.

use crate::cache::{Job, RunCache};
use crate::experiments::telemetry;
use crate::profile::Profile;
use crate::table::{f2, f3, Table};
use h2_system::{Participants, PolicyKind};
use h2_trace::Mix;

/// Run the Fig 2 experiment set.
pub fn run(profile: &Profile, cache: &mut RunCache) -> Vec<Table> {
    let cfg = profile.config();
    let mut out = Vec::new();

    // (a) co-run slowdowns.
    let mut ta = Table::new(
        "fig2a_slowdown",
        "Fig 2(a): co-run slowdown vs running alone (baseline, no partitioning)",
        &["mix", "CPU slowdown", "GPU slowdown"],
    );
    for mix in profile.headline_mixes() {
        let both = cache.run(&Job::new(&cfg, &mix, PolicyKind::NoPart));
        let cpu = cache.run(&Job {
            parts: Participants::CpuOnly,
            ..Job::new(&cfg, &mix, PolicyKind::NoPart)
        });
        let gpu = cache.run(&Job {
            parts: Participants::GpuOnly,
            ..Job::new(&cfg, &mix, PolicyKind::NoPart)
        });
        ta.row(vec![
            mix.name.to_string(),
            f2(both.cpu_slowdown(&cpu)),
            f2(both.gpu_slowdown(&gpu)),
        ]);
    }
    ta.note("paper: CPU typically degrades more than GPU (e.g. C1: 1.94x vs 1.33x)");
    out.push(ta);

    // Sensitivities on C1.
    let c1 = Mix::by_name("C1").unwrap();
    let full = cache.run(&Job::new(&cfg, &c1, PolicyKind::NoPart));
    let base_cap = cfg.fast_capacity_for(&c1);

    // (b) fast-memory bandwidth: reduce superchannels.
    let mut tb = Table::new(
        "fig2b_fast_bw",
        "Fig 2(b): sensitivity to fast memory bandwidth (C1, channels scaled)",
        &["fast channels", "CPU perf", "GPU perf"],
    );
    for ch in [4usize, 3, 2, 1] {
        let mut c = cfg.clone();
        c.fast_channels = ch;
        let r = if ch == 4 {
            full.clone()
        } else {
            cache.run(&Job::new(&c, &c1, PolicyKind::NoPart))
        };
        tb.row(vec![
            ch.to_string(),
            f3(r.cpu_ipc() / full.cpu_ipc()),
            f3(r.gpu_ipc() / full.gpu_ipc()),
        ]);
    }
    tb.note("paper: GPU loses up to 30% with reduced fast bandwidth, CPU barely moves");
    out.push(tb);

    // (c) fast-memory capacity.
    let mut tc = Table::new(
        "fig2c_fast_cap",
        "Fig 2(c): sensitivity to fast memory capacity (C1)",
        &["capacity fraction", "CPU perf", "GPU perf"],
    );
    for div in [1u64, 2, 4, 8] {
        let mut c = cfg.clone();
        c.fast_capacity_override = Some((base_cap / div).max(1 << 20));
        let r = if div == 1 {
            full.clone()
        } else {
            cache.run(&Job::new(&c, &c1, PolicyKind::NoPart))
        };
        tc.row(vec![
            format!("1/{div}"),
            f3(r.cpu_ipc() / full.cpu_ipc()),
            f3(r.gpu_ipc() / full.gpu_ipc()),
        ]);
    }
    tc.note("paper: CPU perf halves at small capacity while GPU keeps ~92%");
    out.push(tc);

    // (d) slow-memory bandwidth.
    let mut td = Table::new(
        "fig2d_slow_bw",
        "Fig 2(d): sensitivity to slow memory bandwidth (C1, channels scaled)",
        &["slow channels", "CPU perf", "GPU perf"],
    );
    for ch in [4usize, 3, 2, 1] {
        let mut c = cfg.clone();
        c.slow_channels = ch;
        let r = if ch == 4 {
            full.clone()
        } else {
            cache.run(&Job::new(&c, &c1, PolicyKind::NoPart))
        };
        td.row(vec![
            ch.to_string(),
            f3(r.cpu_ipc() / full.cpu_ipc()),
            f3(r.gpu_ipc() / full.gpu_ipc()),
        ]);
    }
    td.note("paper: both sides slow notably; GPU slightly more sensitive");
    out.push(td);

    // (e) demand-latency distributions under contention, from the telemetry
    // histograms (log2 buckets; quantiles are bucket lower bounds).
    let mut te = Table::new(
        "fig2e_latency",
        "Fig 2(e): demand latency distribution per mix (baseline, co-run)",
        &[
            "mix", "CPU mean", "CPU p50", "CPU p99", "GPU mean", "GPU p50", "GPU p99",
        ],
    );
    for mix in profile.headline_mixes() {
        let r = cache.run(&Job::new(&cfg, &mix, PolicyKind::NoPart));
        let Some(t) = telemetry(cache, &r, "fig2e", mix.name) else { continue };
        let hist = |name: &str| {
            t.totals.hist(name).unwrap_or_else(|| {
                panic!("fig2e: the telemetry for mix {} has no {name} histogram", mix.name)
            })
        };
        let (hc, hg) = (hist("lat.cpu_read"), hist("lat.gpu_demand"));
        te.row(vec![
            mix.name.to_string(),
            f2(hc.mean()),
            hc.quantile(0.5).to_string(),
            hc.quantile(0.99).to_string(),
            f2(hg.mean()),
            hg.quantile(0.5).to_string(),
            hg.quantile(0.99).to_string(),
        ]);
    }
    te.note("cycles from LLC miss to data; tails show queueing under contention");
    out.push(te);

    out
}

#[cfg(test)]
mod tests {
    /// The sweep axes must start from the full configuration so the first
    /// row is the normalisation point.
    #[test]
    fn sweeps_lead_with_full_config() {
        let chans = [4usize, 3, 2, 1];
        let caps = [1u64, 2, 4, 8];
        assert_eq!(chans[0], 4);
        assert_eq!(caps[0], 1);
        assert!(chans.windows(2).all(|w| w[0] > w[1]));
        assert!(caps.windows(2).all(|w| w[0] < w[1]));
    }
}
