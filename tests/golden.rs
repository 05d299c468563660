//! Golden-snapshot regression tests over the telemetry JSON.
//!
//! Each case runs a small end-to-end simulation under *both* event-queue
//! engines, asserts their telemetry timelines are byte-identical, and then
//! compares the JSON against a checked-in snapshot in `tests/golden/`. The
//! snapshots pin the simulator's observable behaviour — instruction counts,
//! hit rates, queue depths, latency histograms, the hill climber's search
//! path — so any unintended behavioural change shows up as a diff.
//!
//! When a change is *intended*, regenerate the snapshots:
//!
//! ```text
//! H2_BLESS=1 cargo test --test golden
//! ```
//!
//! and commit the updated files alongside the change that caused them.

use h2_check::{run_scenario_on_heap, run_workloads_on_heap};
use hydrogen_repro::prelude::*;
use hydrogen_repro::sim::Json;
use hydrogen_repro::system::run_scenario;
use hydrogen_repro::trace::TenantScenario;
use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Run `kind` on `mix` under both engines; check the timeline snapshot.
fn check(name: &str, cfg: &SystemConfig, mix_name: &str, kind: PolicyKind) {
    let mix = Mix::by_name(mix_name).unwrap();

    let got = run_sim(cfg, &mix, kind)
        .telemetry_json_string()
        .expect("telemetry must be enabled for golden runs");
    let cap = cfg.fast_capacity_for(&mix);
    let via_heap =
        run_workloads_on_heap(cfg, mix.name, &mix.cpu_specs(), Some(&mix.gpu_spec()), kind, cap)
            .telemetry_json_string()
            .expect("telemetry must be enabled for golden runs");
    assert_eq!(got, via_heap, "{name}: engines must produce identical telemetry");

    let path = golden_path(name);
    if std::env::var_os("H2_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             `H2_BLESS=1 cargo test --test golden` and commit the file",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: telemetry diverged from {}; if the change is intended, \
         regenerate with `H2_BLESS=1 cargo test --test golden`",
        path.display()
    );
}

/// Run a multi-tenant scenario under both engines; check the telemetry
/// timeline (which carries the `tenant.*`
/// metric schema) against a checked-in snapshot, exactly like [`check`].
fn check_scenario(name: &str, cfg: &SystemConfig, sc: &TenantScenario, kind: PolicyKind) {
    let got = run_scenario(cfg, sc, kind)
        .telemetry_json_string()
        .expect("telemetry must be enabled for golden runs");
    let via_heap = run_scenario_on_heap(cfg, sc, kind)
        .telemetry_json_string()
        .expect("telemetry must be enabled for golden runs");
    assert_eq!(got, via_heap, "{name}: engines must produce identical telemetry");

    let path = golden_path(name);
    if std::env::var_os("H2_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             `H2_BLESS=1 cargo test --test golden` and commit the file",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: telemetry diverged from {}; if the change is intended, \
         regenerate with `H2_BLESS=1 cargo test --test golden`",
        path.display()
    );
}

/// The Fig 2 motivation setting: the non-partitioned baseline under
/// CPU-GPU contention.
#[test]
fn golden_fig2_baseline_c1() {
    check("fig2_nopart_c1", &SystemConfig::tiny(), "C1", PolicyKind::NoPart);
}

/// The Fig 9 adaptation setting: full Hydrogen (tokens + hill climbing),
/// exercising the epoch-resolved policy telemetry.
#[test]
fn golden_fig9_hydrogen_c5() {
    check(
        "fig9_hydrogen_c5",
        &SystemConfig::tiny(),
        "C5",
        PolicyKind::HydrogenFull,
    );
}

/// Traced frames: full Hydrogen on C1 with 1-in-64 span sampling, so every
/// frame from the first closed span on carries the `trace.*` scope (span
/// and drop counts and the CPU/GPU blame matrix) beside the rest.
#[test]
fn golden_fig2_traced_c1() {
    let mut cfg = SystemConfig::tiny();
    cfg.trace_sample = Some(64);
    check("fig2_hydrogen_c1_traced", &cfg, "C1", PolicyKind::HydrogenFull);
}

/// Zero-perturbation guard: enabling the tracing machinery at sample
/// rate 0 (all hooks armed, nothing ever sampled) must leave the telemetry
/// timeline byte-identical to the committed golden — i.e. tracing is pure
/// observation and can never shift simulated time.
#[test]
fn golden_fig2_with_tracing_armed_is_byte_identical() {
    let mut cfg = SystemConfig::tiny();
    cfg.trace_sample = Some(0);
    check("fig2_nopart_c1", &cfg, "C1", PolicyKind::NoPart);
}

/// Zero-perturbation guard for the host-side self-profiler: running the
/// same golden case with every probe armed must reproduce the committed
/// snapshot byte-for-byte — the profiler reads the monotonic clock and the
/// allocation counter, never simulator state, so arming it can never move
/// simulated time (DESIGN.md §17).
#[test]
fn golden_fig2_with_profiler_armed_is_byte_identical() {
    use hydrogen_repro::sim::prof;
    let _lock = prof::test_lock();
    prof::reset();
    prof::arm();
    check("fig2_nopart_c1", &SystemConfig::tiny(), "C1", PolicyKind::NoPart);
    prof::disarm();
    // The profile must have seen the event loop, proving the probes were
    // really live during the runs.
    let report = prof::take_report();
    assert!(report.root("run.loop").is_some(), "armed profile lacks run.loop");
}

/// The datacenter scenario setting: the committed 3-tenant example
/// (bursty inference + steady HPC + diurnal analytics) under the
/// non-partitioned baseline, over short windows. Pins the per-tenant SLO
/// schema (`tenant.<name>.priority` / `.lat.cpu` / `.lat.gpu`) alongside
/// the aggregate timeline.
#[test]
fn golden_scenario_inference_hpc_analytics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios/inference_hpc_analytics.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let sc = TenantScenario::from_json(&Json::parse(&text).unwrap()).unwrap();
    let mut cfg = SystemConfig::tiny();
    cfg.epoch_cycles = 20_000;
    cfg.faucet_cycles = 5_000;
    cfg.warmup_cycles = 40_000;
    cfg.measure_cycles = 60_000;
    check_scenario("scenario_inference_hpc_analytics", &cfg, &sc, PolicyKind::NoPart);
}

/// Blessing must be able to round-trip: the written snapshot re-reads as
/// exactly what the comparison path would produce (guards against e.g. a
/// missing trailing newline in the writer).
#[test]
fn golden_format_round_trips() {
    let mix = Mix::by_name("C1").unwrap();
    let r = run_sim(&SystemConfig::tiny(), &mix, PolicyKind::NoPart);
    let s = r.telemetry_json_string().unwrap();
    assert!(s.ends_with('\n'), "pretty JSON must end with a newline");
    assert!(s.starts_with('{'), "timeline must be a JSON object");
    // Host-dependent fields must never leak into the snapshot.
    assert!(!s.contains("wall_s"));
    assert!(!s.contains("events_per_sec"));
}
