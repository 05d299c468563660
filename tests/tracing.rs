//! End-to-end properties of the request-level causal tracer
//! (`h2_sim_core::trace_span` threaded through the full system runner).
//!
//! Three invariants pin the tracer's contract:
//!
//! 1. **Blame conservation** — for every sampled request, the blamed
//!    intervals exactly tile its `[start, end)` lifetime: no gap, no
//!    overlap, no cycle charged twice or not at all.
//! 2. **Deterministic sampling** — the sampled span set (ids, lifetimes,
//!    blame decompositions) is identical across repeat runs and across
//!    both event-queue engines for a given seed and rate.
//! 3. **Zero perturbation** — running traced changes nothing observable:
//!    instruction counts, cycle counts, and the telemetry timeline are
//!    byte-identical to an untraced run.
//!
//! A fourth ties the tracer to the latency histograms: a span's lifetime is
//! its request's latency.

use h2_check::run_workloads_on_heap;
use hydrogen_repro::prelude::*;
use hydrogen_repro::sim::trace_span::{BlameCause, Span};
use hydrogen_repro::sim::LogHistogram;

fn traced_cfg(sample: u64) -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.trace_sample = Some(sample);
    cfg
}

fn traced_run(sample: u64, mix: &str, kind: PolicyKind) -> RunReport {
    run_sim(&traced_cfg(sample), &Mix::by_name(mix).unwrap(), kind)
}

/// Intervals sorted, non-overlapping, gap-free, covering the span exactly.
fn assert_tiles(s: &Span) {
    assert!(s.end > s.start, "span {} has no extent", s.id);
    assert!(!s.intervals.is_empty(), "span {} has no intervals", s.id);
    let mut at = s.start;
    for iv in &s.intervals {
        assert_eq!(iv.start, at, "span {}: gap or overlap at {at}", s.id);
        assert!(iv.end > iv.start, "span {}: empty interval", s.id);
        at = iv.end;
    }
    assert_eq!(at, s.end, "span {}: intervals stop short of the end", s.id);
}

#[test]
fn blame_intervals_tile_every_request_exactly() {
    for kind in [PolicyKind::NoPart, PolicyKind::HydrogenFull] {
        let r = traced_run(4, "C1", kind);
        let t = r.trace.expect("tracing on");
        assert!(!t.spans.is_empty(), "{kind:?}: rate 4 must sample spans");
        for s in &t.spans {
            assert_tiles(s);
        }
    }
}

#[test]
fn sampled_spans_cover_both_sides_and_real_causes() {
    let r = traced_run(2, "C1", PolicyKind::HydrogenFull);
    let t = r.trace.expect("tracing on");
    let classes: std::collections::HashSet<u8> = t.spans.iter().map(|s| s.class).collect();
    assert!(classes.contains(&0), "no CPU demand spans sampled");
    assert!(classes.contains(&1), "no GPU demand spans sampled");
    // Service time is the one cause every request must incur.
    let causes: std::collections::HashSet<u8> = t
        .spans
        .iter()
        .flat_map(|s| s.intervals.iter().map(|iv| iv.cause.as_u8()))
        .collect();
    assert!(causes.contains(&BlameCause::Service.as_u8()), "no service intervals");
    assert!(causes.len() > 1, "only one blame cause ever assigned");
}

#[test]
fn sampling_is_deterministic_across_engines() {
    let cfg = traced_cfg(4);
    let mix = Mix::by_name("C5").unwrap();
    let cal = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
    let cap = cfg.fast_capacity_for(&mix);
    let heap = run_workloads_on_heap(
        &cfg,
        mix.name,
        &mix.cpu_specs(),
        Some(&mix.gpu_spec()),
        PolicyKind::HydrogenFull,
        cap,
    );
    let (ct, ht) = (cal.trace.unwrap(), heap.trace.unwrap());
    assert!(!ct.spans.is_empty());
    assert_eq!(ct, ht, "engines must sample the identical span set");

    // And across repeat runs of the same engine.
    let again = traced_run(4, "C5", PolicyKind::HydrogenFull);
    assert_eq!(ct, again.trace.unwrap());
}

#[test]
fn tracing_never_perturbs_the_simulation() {
    let mut cfg = SystemConfig::tiny();
    let mix = Mix::by_name("C1").unwrap();
    let off = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
    cfg.trace_sample = Some(2);
    let on = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);

    assert_eq!(off.cpu_instr, on.cpu_instr);
    assert_eq!(off.gpu_instr, on.gpu_instr);
    assert_eq!(off.measured_cycles, on.measured_cycles);
    assert_eq!(off.events_processed, on.events_processed);
    assert_eq!(off.hmc, on.hmc);
    assert_eq!(off.fast, on.fast);
    assert_eq!(off.slow, on.slow);
    assert_eq!(off.epoch_trace, on.epoch_trace);
}

/// With every demand traced, the measured window's latency histograms
/// hold exactly the lifetimes of the spans that closed in it: each
/// response is measured from its own request's issue cycle.
#[test]
fn demand_latency_histograms_equal_span_lifetimes() {
    let cfg = traced_cfg(1);
    for (mix, kind) in [("C1", PolicyKind::NoPart), ("C5", PolicyKind::HydrogenFull)] {
        let r = run_sim(&cfg, &Mix::by_name(mix).unwrap(), kind);
        let t = r.trace.as_ref().expect("tracing on");
        assert_eq!(t.dropped, 0, "{mix} {kind:?}: every demand must be traced");
        let totals = &r.telemetry.as_ref().expect("telemetry on").totals;
        for (class, name) in [(0, "lat.cpu_read"), (1, "lat.gpu_demand")] {
            let mut want = LogHistogram::new();
            for s in &t.spans {
                if s.class == class && s.end >= cfg.warmup_cycles {
                    want.record(s.end - s.start);
                }
            }
            assert!(want.count() > 0, "{mix} {kind:?}: no {name} spans");
            assert_eq!(totals.hist(name), Some(&want), "{mix} {kind:?}: {name}");
        }
    }
}

#[test]
fn interference_matrix_totals_match_the_spans() {
    let r = traced_run(4, "C1", PolicyKind::HydrogenFull);
    let t = r.trace.as_ref().expect("tracing on");
    // Rebuild the blame matrix from the raw spans.
    let mut want = [[0u64; 8]; 2];
    for s in &t.spans {
        for iv in &s.intervals {
            want[s.class.min(1) as usize][iv.cause.as_u8() as usize] += iv.end - iv.start;
        }
    }
    // The telemetry totals' trace scope must agree. Totals cover the
    // measured window only (deltas from the WarmupEnd snapshot) while the
    // report's spans include any closed during warm-up, so each counter is
    // bounded above by its span-derived value.
    let telem = r.telemetry.as_ref().expect("telemetry on");
    let mut seen = 0;
    for (ci, cname) in ["cpu", "gpu"].iter().enumerate() {
        for cause in BlameCause::ALL {
            let counter = format!("trace.blame.{cname}.{}", cause.name());
            let Some((_, got)) = telem.totals.counters().find(|(n, _)| *n == counter)
            else {
                continue;
            };
            seen += 1;
            let want_v = want[ci][cause.as_u8() as usize];
            assert!(
                got <= want_v,
                "{counter}: window total {got} exceeds span-derived {want_v}"
            );
        }
    }
    assert!(seen > 0, "no trace.blame.* counters in telemetry totals");
}

/// Perfetto export: structurally valid Chrome Trace Event JSON with one
/// complete event per span plus one per blamed interval.
#[test]
fn chrome_trace_export_is_consistent_with_the_spans() {
    let r = traced_run(8, "C1", PolicyKind::NoPart);
    let t = r.trace.as_ref().unwrap();
    let json = r.chrome_trace_json_string().expect("traced run exports");
    let n_intervals: usize = t.spans.iter().map(|s| s.intervals.len()).sum();
    // 2 process_name metadata events + 1 parent + intervals.
    let n_events = json.matches(r#"{"ph":"#).count();
    assert_eq!(n_events, 2 + t.spans.len() + n_intervals);
    assert!(json.contains(r#""cat":"blame""#));
}
