//! Differential test of the event loop's engines at full-system scale.
//!
//! For every policy in the fuzzer's catalogue, one oracle run on the
//! legacy heap engine is compared against a run on the production
//! calendar engine. Every counter, the telemetry JSON, and the sampled
//! request trace must be bit-identical. The oracle runs alone process
//! more than one million events.

use hydrogen_repro::prelude::*;
use hydrogen_repro::sim::EngineKind;

#[test]
fn kernels_match_heap_oracle_across_all_policies() {
    let mix = Mix::by_name("C1").unwrap();
    let mut cfg = SystemConfig::tiny();
    cfg.telemetry = true;
    cfg.trace_sample = Some(64);

    let mut oracle_events = 0u64;
    for &(name, kind) in h2_check::POLICIES {
        cfg.engine = EngineKind::Heap;
        let want = run_sim(&cfg, &mix, kind);
        oracle_events += want.events_processed;
        cfg.engine = EngineKind::Calendar;
        let got = run_sim(&cfg, &mix, kind);
        assert_eq!(want.cpu_instr, got.cpu_instr, "{name}");
        assert_eq!(want.gpu_instr, got.gpu_instr, "{name}");
        assert_eq!(want.hmc, got.hmc, "{name}");
        assert_eq!(want.fast, got.fast, "{name}");
        assert_eq!(want.slow, got.slow, "{name}");
        assert_eq!(want.epoch_trace, got.epoch_trace, "{name}");
        assert_eq!(want.events_processed, got.events_processed, "{name}");
        assert_eq!(want.clamped_events, got.clamped_events, "{name}");
        assert_eq!(want.fast_channel_bytes, got.fast_channel_bytes, "{name}");
        assert_eq!(want.slow_channel_bytes, got.slow_channel_bytes, "{name}");
        assert_eq!(
            want.telemetry_json_string().unwrap(),
            got.telemetry_json_string().unwrap(),
            "telemetry must match: {name}"
        );
        assert_eq!(want.trace, got.trace, "trace must match: {name}");
    }
    assert!(
        oracle_events > 1_000_000,
        "oracle workload too small to be meaningful: {oracle_events} events"
    );
}
