//! Fig 6: memory energy comparison, normalised to HAShCache.
//!
//! The paper simulates a fixed amount of work, so faster designs also save
//! static energy. Our simulations run fixed windows, so we compare *energy
//! per unit of weighted work* (joules per weighted instruction), which
//! preserves exactly that property: a 30% speedup shows up as ~23% static
//! energy-per-work reduction.

use crate::cache::{Job, RunCache};
use crate::experiments::gm;
use crate::profile::Profile;
use crate::table::{f3, Table};
use h2_system::{PolicyKind, RunReport};

fn energy_per_work(r: &RunReport) -> f64 {
    let work = r.weights.0 * r.cpu_instr as f64 + r.weights.1 * r.gpu_instr as f64;
    r.energy_j() / work.max(1.0)
}

/// Run the Fig 6 energy comparison (reuses Fig 5's simulations).
pub fn run(profile: &Profile, cache: &mut RunCache) -> Vec<Table> {
    let cfg = profile.config();
    let mut t = Table::new(
        "fig6_energy",
        "Fig 6: memory energy per unit work, normalised to HAShCache (lower is better)",
        &["mix", "HAShCache", "ProFess", "Hydrogen(Full)"],
    );
    let mut profess_r = Vec::new();
    let mut hydrogen_r = Vec::new();
    for mix in profile.headline_mixes() {
        let hc = cache.run(&Job::new(&cfg, &mix, PolicyKind::HashCache));
        let pf = cache.run(&Job::new(&cfg, &mix, PolicyKind::Profess));
        let h2 = cache.run(&Job::new(&cfg, &mix, PolicyKind::HydrogenFull));
        let base = energy_per_work(&hc).max(1e-18);
        let pr = energy_per_work(&pf) / base;
        let hr = energy_per_work(&h2) / base;
        profess_r.push(pr);
        hydrogen_r.push(hr);
        t.row(vec![
            mix.name.to_string(),
            "1.000".to_string(),
            f3(pr),
            f3(hr),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        "1.000".into(),
        f3(gm(&profess_r)),
        f3(gm(&hydrogen_r)),
    ]);
    t.note("paper: Hydrogen averages ~31% energy reduction vs HAShCache, up to 50% on C11");
    t.note("energy = dynamic RD/WR + ACT/PRE + background static, divided by weighted instructions");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_mem::EnergyBreakdown;

    #[test]
    fn energy_per_work_scales_inversely_with_work() {
        let mk = |instr: u64| RunReport {
            measured_cycles: 1000,
            cpu_instr: instr,
            weights: (1.0, 0.0),
            fast_energy: EnergyBreakdown {
                dynamic_rw_j: 1.0,
                act_pre_j: 0.0,
                static_j: 1.0,
            },
            ..RunReport::default()
        };
        let slow = mk(100);
        let fast = mk(200);
        assert!(energy_per_work(&fast) < energy_per_work(&slow));
        assert!((energy_per_work(&slow) / energy_per_work(&fast) - 2.0).abs() < 1e-9);
    }
}
