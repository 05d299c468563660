//! Per-tenant SLO accounting (tier 2).
//!
//! The conservation law of the datacenter scenario pack: `tenant.*`
//! latency histograms must **exactly partition** the aggregate demand
//! latency histograms (`lat.cpu_read` / `lat.gpu_demand`) — every sample
//! belongs to exactly one tenant, bucket by bucket, count and sum. On top
//! of that: blame intervals on traced scenario requests must tile each
//! span exactly, permuting tenant declaration order must preserve both the
//! partition law and the tenant table as a set, and the committed example
//! scenario (`examples/scenarios/inference_hpc_analytics.json`) must
//! validate and satisfy all of it.

use h2_check::{
    check_partition, diff_reports, permute_tenants, run_scenario_on_heap, sample_scenario,
};
use h2_sim_core::trace_span::tiles_exactly;
use h2_sim_core::{Json, LogHistogram};
use h2_system::report::METRICS;
use h2_system::{run_scenario, PolicyKind, RunReport, SystemConfig};
use h2_trace::{Arrival, TenantScenario, TenantSpec};
use std::fs;
use std::path::PathBuf;

fn short_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.seed = seed;
    cfg.epoch_cycles = 20_000;
    cfg.faucet_cycles = 5_000;
    cfg.warmup_cycles = 40_000;
    cfg.measure_cycles = 60_000;
    cfg
}

/// Three tenants, all bursty with different duty cycles and priorities —
/// the acceptance scenario shape.
fn bursty_triad() -> TenantScenario {
    let tenant = |name: &str, priority, cores, ctxs, cpu: &[&str], gpu: &[&str], on, off| {
        TenantSpec {
            name: name.into(),
            priority,
            cores,
            ctxs,
            cpu: cpu.iter().map(|s| s.to_string()).collect(),
            gpu: gpu.iter().map(|s| s.to_string()).collect(),
            arrival: Arrival::Bursty { on, off },
            start: 0,
            stop: None,
            phase_cycles: None,
        }
    };
    TenantScenario {
        name: "bursty-triad".into(),
        seed: 31,
        tenants: vec![
            tenant("gold", 0, 1, 1, &["gcc"], &["bert"], 4_000, 1_000),
            tenant("silver", 1, 1, 1, &["mcf"], &["bfs"], 2_000, 2_000),
            tenant("bronze", 2, 1, 0, &["lbm"], &[], 1_000, 4_000),
        ],
    }
}

/// Hand-rolled partition check (independent of `h2_check`): merged tenant
/// histograms must equal the aggregates bucket-for-bucket, so per-tenant
/// p50/p99 are quantiles over an exact partition of the aggregate counts.
fn assert_exact_partition(r: &RunReport) {
    let telemetry = r.telemetry.as_ref().expect("SLO runs carry telemetry");
    let empty = LogHistogram::new();
    for (agg_name, cpu_side) in [("lat.cpu_read", true), ("lat.gpu_demand", false)] {
        let agg = telemetry.totals.hist(agg_name).unwrap_or(&empty);
        let mut merged = LogHistogram::new();
        for t in &r.tenants {
            merged.merge(if cpu_side { &t.cpu_lat } else { &t.gpu_lat });
        }
        assert_eq!(merged.count(), agg.count(), "{agg_name}: counts must partition");
        assert_eq!(merged.sum(), agg.sum(), "{agg_name}: sums must partition");
        assert!(
            merged.nonzero_buckets().eq(agg.nonzero_buckets()),
            "{agg_name}: bucket-level partition violated"
        );
    }
}

#[test]
fn three_tenant_bursty_partition_holds_under_both_policies() {
    let sc = bursty_triad();
    for (kind, seed) in [(PolicyKind::NoPart, 3), (PolicyKind::HydrogenFull, 4)] {
        let r = run_scenario(&short_cfg(seed), &sc, kind);
        assert_eq!(r.tenants.len(), 3, "{kind:?}: all three tenants must report");
        assert!(r.tenants.iter().any(|t| t.cpu_lat.count() > 0), "{kind:?}: no CPU samples");
        assert!(r.tenants.iter().any(|t| t.gpu_lat.count() > 0), "{kind:?}: no GPU samples");
        check_partition(&r).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_exact_partition(&r);
    }
}

#[test]
fn tenant_quantile_metrics_resolve_and_are_consistent() {
    let r = run_scenario(&short_cfg(9), &bursty_triad(), PolicyKind::NoPart);
    for name in ["tenant_p50_demand_latency", "tenant_p99_demand_latency"] {
        assert!(METRICS.iter().any(|(n, _)| *n == name), "{name} must be a stable sweep metric");
        assert!(r.metric(name).expect("metric resolves") > 0.0, "{name} must be positive");
    }
    let p50 = r.metric("tenant_p50_demand_latency").unwrap();
    let p99 = r.metric("tenant_p99_demand_latency").unwrap();
    assert!(p50 <= p99, "worst-tenant p50 {p50} cannot exceed worst-tenant p99 {p99}");

    // The tenant metric schema lands in the telemetry timeline too.
    let json = r.telemetry_json_string().expect("telemetry on");
    for t in &r.tenants {
        assert!(json.contains(&format!("tenant.{}.priority", t.name)), "{}", t.name);
        assert!(json.contains(&format!("tenant.{}.lat.cpu", t.name)), "{}", t.name);
        assert!(json.contains(&format!("tenant.{}.lat.gpu", t.name)), "{}", t.name);
    }
}

#[test]
fn blame_intervals_tile_traced_scenario_requests_exactly() {
    let mut cfg = short_cfg(5);
    cfg.trace_sample = Some(8);
    let r = run_scenario(&cfg, &bursty_triad(), PolicyKind::HydrogenFull);
    let trace = r.trace.as_ref().expect("trace_sample arms request tracing");
    assert!(!trace.spans.is_empty(), "sampled scenario run must trace some requests");
    for span in &trace.spans {
        assert!(
            tiles_exactly(&span.intervals, span.start, span.end),
            "span {} [{}, {}) not tiled by {} blame intervals",
            span.id,
            span.start,
            span.end,
            span.intervals.len()
        );
    }
}

/// Rotating tenant declaration order relays out the address space, so
/// absolute metrics may legitimately move — but the partition law must
/// still hold and the tenant table must survive as a set.
#[test]
fn tenant_permutation_preserves_partition_and_tenant_set() {
    let sc = bursty_triad();
    let cfg = short_cfg(13);
    let base = run_scenario(&cfg, &sc, PolicyKind::NoPart);
    let names = |r: &RunReport| {
        let mut v: Vec<_> = r.tenants.iter().map(|t| (t.name.clone(), t.priority)).collect();
        v.sort();
        v
    };
    for rot in 1..sc.tenants.len() {
        let p = run_scenario(&cfg, &permute_tenants(&sc, rot), PolicyKind::NoPart);
        check_partition(&p).unwrap_or_else(|e| panic!("rotation {rot}: {e}"));
        assert_exact_partition(&p);
        assert_eq!(names(&base), names(&p), "rotation {rot} changed the tenant set");
    }
    // Identity rotation is the full differential: bit-identical report.
    let same = run_scenario(&cfg, &permute_tenants(&sc, sc.tenants.len()), PolicyKind::NoPart);
    assert_eq!(diff_reports(&base, &same), None, "full rotation must be the identity");
}

#[test]
fn partition_holds_for_sampled_scenarios_on_both_engines() {
    for seed in 0..6 {
        let sc = sample_scenario(seed);
        let cfg = short_cfg(seed + 100);
        let a = run_scenario(&cfg, &sc, PolicyKind::NoPart);
        check_partition(&a).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let b = run_scenario_on_heap(&cfg, &sc, PolicyKind::NoPart);
        assert_eq!(
            diff_reports(&a, &b),
            None,
            "seed {seed}: engines diverged on a tagged run"
        );
    }
}

/// The committed example spec must stay valid, canonical, and clean under
/// the SLO checks — it is what the CI smoke and the docs point at.
#[test]
fn committed_example_scenario_validates_and_partitions() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios/inference_hpc_analytics.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let sc = TenantScenario::from_json(&Json::parse(&text).expect("example must be valid JSON"))
        .expect("example scenario must validate");
    assert_eq!(sc.tenants.len(), 3);
    assert_eq!(
        sc.to_json().to_string_compact(),
        TenantScenario::from_json(&sc.to_json()).unwrap().to_json().to_string_compact(),
        "example must round-trip canonically"
    );
    let r = run_scenario(&short_cfg(1), &sc, PolicyKind::NoPart);
    assert_eq!(r.tenants.len(), 3);
    for (slo, spec) in r.tenants.iter().zip(&sc.tenants) {
        assert_eq!(slo.name, spec.name);
        assert_eq!(slo.priority, spec.priority);
    }
    check_partition(&r).expect("example scenario must satisfy the partition law");
    assert_exact_partition(&r);
}
