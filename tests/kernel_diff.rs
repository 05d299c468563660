//! Differential test of the event loop's engines at full-system scale.
//!
//! For every policy in the fuzzer's catalogue, one oracle run on the
//! legacy heap engine is compared against a run on the production
//! calendar engine, traced at 1/64; one more HydrogenFull pass runs
//! untraced. Every deterministic report field, the telemetry JSON and the
//! sampled request trace included, must be bit-identical. The oracle runs
//! alone process more than one million events.

use h2_check::{diff_reports, run_workloads_on_heap};
use hydrogen_repro::prelude::*;

/// Run `kind` on `mix` on both engines and assert the reports match;
/// returns the oracle's event count.
fn assert_engines_match(cfg: &SystemConfig, mix: &Mix, kind: PolicyKind, name: &str) -> u64 {
    let want = run_workloads_on_heap(
        cfg,
        mix.name,
        &mix.cpu_specs(),
        Some(&mix.gpu_spec()),
        kind,
        cfg.fast_capacity_for(mix),
    );
    let got = run_sim(cfg, mix, kind);
    assert!(want.telemetry.is_some(), "{name}: every run records telemetry");
    assert_eq!(diff_reports(&want, &got), None, "{name}");
    want.events_processed
}

#[test]
fn kernels_match_heap_oracle_across_all_policies() {
    let mix = Mix::by_name("C1").unwrap();
    let mut cfg = SystemConfig::tiny();
    cfg.trace_sample = Some(64);
    let mut oracle_events = 0u64;
    for &(name, kind) in h2_check::POLICIES {
        oracle_events += assert_engines_match(&cfg, &mix, kind, name);
    }
    assert!(
        oracle_events > 1_000_000,
        "oracle workload too small to be meaningful: {oracle_events} events"
    );

    cfg.trace_sample = None;
    assert_engines_match(&cfg, &mix, PolicyKind::HydrogenFull, "HydrogenFull untraced");
}
