//! Fig 9: sensitivity to sampling-epoch and phase lengths.
//!
//! Geomean weighted speedup of Hydrogen(Full) over the baseline across the
//! panel mixes, sweeping (a) the phase length (via epochs-per-phase) and
//! (b) the epoch length. Values are scaled ~40x down from the paper's
//! (10 M-cycle epochs, 500 M-cycle phases) alongside the rest of the system.

use crate::cache::{Job, RunCache};
use crate::experiments::{gm, telemetry};
use crate::profile::Profile;
use crate::table::{f3, Table};
use h2_system::{PolicyKind, SystemConfig};
use h2_trace::Mix;

fn geomean_speedup(cfg: &SystemConfig, mixes: &[Mix], cache: &mut RunCache) -> f64 {
    let xs: Vec<f64> = mixes
        .iter()
        .map(|m| {
            let base = cache.run(&Job::new(cfg, m, PolicyKind::NoPart));
            let h2 = cache.run(&Job::new(cfg, m, PolicyKind::HydrogenFull));
            h2.weighted_speedup(&base)
        })
        .collect();
    gm(&xs)
}

/// Run the Fig 9 sweeps.
pub fn run(profile: &Profile, cache: &mut RunCache) -> Vec<Table> {
    let base_cfg = profile.config();
    let mixes = profile.panel_mixes();

    // (a) phase length (fixed epoch, varying epochs-per-phase).
    let mut ta = Table::new(
        "fig9a_phase",
        "Fig 9(a): phase length sensitivity (geomean Hydrogen speedup vs baseline)",
        &["phase (cycles)", "epochs/phase", "speedup"],
    );
    for epp in [10u64, 20, 40, 80] {
        let mut c = base_cfg.clone();
        c.epochs_per_phase = epp;
        let s = geomean_speedup(&c, &mixes, cache);
        ta.row(vec![
            (c.epoch_cycles * epp).to_string(),
            epp.to_string(),
            f3(s),
        ]);
    }
    ta.note("paper: short phases cause needless reconfiguration; 500M cycles is the default");

    // (b) epoch length.
    let mut tb = Table::new(
        "fig9b_epoch",
        "Fig 9(b): sampling epoch length sensitivity (geomean Hydrogen speedup vs baseline)",
        &["epoch (cycles)", "speedup"],
    );
    for ep in [50_000u64, 125_000, 250_000, 500_000] {
        let mut c = base_cfg.clone();
        c.epoch_cycles = ep;
        // Keep phase duration roughly constant across epoch sizes.
        c.epochs_per_phase = (base_cfg.epoch_cycles * base_cfg.epochs_per_phase / ep).max(4);
        let s = geomean_speedup(&c, &mixes, cache);
        tb.row(vec![ep.to_string(), f3(s)]);
    }
    tb.note("paper: too-short epochs pay reconfiguration overheads, too-long epochs adapt slowly");

    // (c) the hill climber's search path, from the telemetry timeline: how
    // often it actually moved the configuration and what the token faucet
    // did while it searched.
    let mut tc = Table::new(
        "fig9c_search",
        "Fig 9(c): adaptation search path per mix (Hydrogen full, default epochs)",
        &[
            "mix",
            "epochs",
            "reconfigs",
            "tok spent",
            "tok denied",
            "final (bw,cap,tok)",
        ],
    );
    for m in &mixes {
        let r = cache.run(&Job::new(&base_cfg, m, PolicyKind::HydrogenFull));
        let Some(t) = telemetry(cache, &r, "fig9c", m.name) else { continue };
        let reconfigs = t
            .epochs
            .iter()
            .filter(|f| f.record.reconfigured)
            .count();
        // Sum the global faucet and any per-channel buckets.
        let tok_sum = |which: &str| -> u64 {
            t.totals
                .counters()
                .filter(|(n, _)| {
                    n.starts_with("hmc.policy.tokens") && n.ends_with(which)
                })
                .map(|(_, v)| v)
                .sum()
        };
        tc.row(vec![
            m.name.to_string(),
            t.epochs.len().to_string(),
            reconfigs.to_string(),
            tok_sum("spent").to_string(),
            tok_sum("denied").to_string(),
            format!(
                "({},{},{})",
                r.final_params.bw, r.final_params.cap, r.final_params.tok
            ),
        ]);
    }
    tc.note("epoch-resolved telemetry: reconfig cadence and token-faucet pressure during search");
    vec![ta, tb, tc]
}
