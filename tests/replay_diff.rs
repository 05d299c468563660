//! Trace capture/replay differential (tier 2).
//!
//! The `.h2trace` contract (DESIGN.md §18): a captured run, replayed from
//! its own file, must be **bit-identical** to the original — report and
//! telemetry — under both event-queue engines,
//! and a replayed run re-captured must produce the identical byte stream
//! (capture→replay→capture is a fixpoint). A small fixture trace is
//! committed under `tests/golden/` and pinned the same way the telemetry
//! goldens are; regenerate it with `H2_BLESS=1 cargo test --test
//! replay_diff` when the capture format or the simulator's demand streams
//! intentionally change.

use h2_check::{diff_reports, sample_scenario};
use h2_harness::trace_cli::{replay_trace, run_mix_capture, run_scenario_capture};
use h2_sim_core::Json;
use h2_system::{
    replay_config, replay_plan, run_plan_monitored, run_plan_on_heap, PolicyKind, RunReport,
    SystemConfig,
};
use h2_trace::{Arrival, Mix, TenantScenario, TenantSpec, TraceFile};
use std::fs;
use std::path::PathBuf;

/// Short-window config so the replay matrix stays fast.
fn short_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.seed = seed;
    cfg.telemetry = true;
    cfg.epoch_cycles = 20_000;
    cfg.faucet_cycles = 5_000;
    cfg.warmup_cycles = 40_000;
    cfg.measure_cycles = 60_000;
    cfg
}

/// Replay `file` purely from its embedded header on the production queue
/// and on the heap oracle, with telemetry armed so the comparison covers
/// the timeline.
fn replay_on_both_engines(file: &TraceFile) -> [RunReport; 2] {
    let meta_cfg = SystemConfig::from_json(file.meta.get("config").expect("capture embeds config"))
        .expect("embedded config must decode");
    let policy = file.meta.get("policy").and_then(Json::as_str).expect("capture embeds policy");
    let kind = h2_check::policy_by_name(policy).expect("embedded policy resolves");
    let fast = file
        .meta
        .get("fast_capacity")
        .and_then(Json::as_u64)
        .expect("capture embeds fast_capacity");
    let mut rcfg = replay_config(&meta_cfg, file);
    rcfg.telemetry = true;
    [
        run_plan_monitored(&rcfg, &file.label, kind, fast, replay_plan(file), None, None),
        run_plan_on_heap(&rcfg, &file.label, kind, fast, replay_plan(file)),
    ]
}

/// Capture → decode from bytes → replay on both engines; every replayed
/// report (telemetry included) must be bit-identical to the original.
fn assert_replay_matrix(orig: &RunReport, bytes: &[u8], what: &str) {
    let decoded = TraceFile::decode(bytes).expect("capture must decode");
    for (engine, rep) in ["calendar", "heap"].iter().zip(replay_on_both_engines(&decoded)) {
        assert_eq!(
            diff_reports(orig, &rep),
            None,
            "{what}: {engine} replay diverged from the original"
        );
    }
}

#[test]
fn scenario_capture_replays_bit_identically_across_engines() {
    let sc = sample_scenario(3);
    let cfg = short_cfg(11);
    let (orig, file) =
        run_scenario_capture(&cfg, &sc, "HydrogenFull", PolicyKind::HydrogenFull, true);
    let bytes = file.expect("capture requested").encode();
    assert!(!orig.tenants.is_empty(), "scenario runs must report tenants");
    assert_replay_matrix(&orig, &bytes, "scenario");
}

#[test]
fn mix_capture_replays_bit_identically_across_engines() {
    let mix = Mix::by_name("C1").unwrap();
    let cfg = short_cfg(7);
    let (orig, file) =
        run_mix_capture(&cfg, &mix, "WayPart", h2_check::policy_by_name("WayPart").unwrap());
    assert!(orig.tenants.is_empty(), "classic mix runs are untagged");
    assert_replay_matrix(&orig, &file.encode(), "mix C1");
}

#[test]
fn capture_replay_capture_is_a_byte_fixpoint() {
    let sc = sample_scenario(5);
    let cfg = short_cfg(23);
    let (_, file) = run_scenario_capture(&cfg, &sc, "NoPart", PolicyKind::NoPart, true);
    let bytes = file.expect("capture requested").encode();

    let decoded = TraceFile::decode(&bytes).unwrap();
    let (_, _, refile) = replay_trace(&decoded, None, true).expect("replay from header");
    let rebytes = refile.expect("re-capture requested").encode();
    assert_eq!(bytes, rebytes, "capture→replay→capture must be byte-identical");

    // And the fixpoint is stable: replaying the re-capture captures the
    // same bytes again.
    let (_, _, refile2) =
        replay_trace(&TraceFile::decode(&rebytes).unwrap(), None, true).unwrap();
    assert_eq!(refile2.unwrap().encode(), rebytes, "fixpoint must be stable");
}

// --- committed fixture ----------------------------------------------------

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scenario_capture.h2trace")
}

/// The fixture's scenario: two tenants (one bursty CPU+GPU service, one
/// steady CPU batch job) over very short windows, so the committed file
/// stays small while still exercising tenant tags on both unit classes.
fn fixture_scenario() -> TenantScenario {
    TenantScenario {
        name: "fixture".into(),
        seed: 9,
        tenants: vec![
            TenantSpec {
                name: "svc".into(),
                priority: 0,
                cores: 1,
                ctxs: 1,
                cpu: vec!["gcc".into()],
                gpu: vec!["bfs".into()],
                arrival: Arrival::Bursty { on: 2_000, off: 2_000 },
                start: 0,
                stop: None,
                phase_cycles: None,
            },
            TenantSpec {
                name: "batch".into(),
                priority: 1,
                cores: 1,
                ctxs: 0,
                cpu: vec!["mcf".into()],
                gpu: vec![],
                arrival: Arrival::Steady,
                start: 0,
                stop: None,
                phase_cycles: None,
            },
        ],
    }
}

fn fixture_bytes() -> Vec<u8> {
    let mut cfg = SystemConfig::tiny();
    cfg.seed = 42;
    cfg.telemetry = false;
    cfg.epoch_cycles = 10_000;
    cfg.faucet_cycles = 2_500;
    cfg.warmup_cycles = 10_000;
    cfg.measure_cycles = 20_000;
    let (_, file) =
        run_scenario_capture(&cfg, &fixture_scenario(), "NoPart", PolicyKind::NoPart, true);
    file.expect("capture requested").encode()
}

/// The committed `.h2trace` fixture decodes, is canonical (re-encodes to
/// the identical bytes), replays purely from its header, and re-captures
/// byte-identically — pinning the on-disk format against drift the same
/// way the telemetry goldens pin the simulator.
#[test]
fn committed_trace_fixture_is_canonical_and_replays_clean() {
    let path = fixture_path();
    if std::env::var_os("H2_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, fixture_bytes()).unwrap();
        return;
    }
    let bytes = fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing trace fixture {} ({e}); generate it with \
             `H2_BLESS=1 cargo test --test replay_diff` and commit the file",
            path.display()
        )
    });
    assert_eq!(
        bytes,
        fixture_bytes(),
        "committed fixture diverged from a fresh capture; if the change is \
         intended, regenerate with `H2_BLESS=1 cargo test --test replay_diff`"
    );
    let file = TraceFile::decode(&bytes).expect("fixture must decode");
    assert_eq!(file.encode(), bytes, "fixture must be canonical");
    assert_eq!(file.tenants.len(), 2);

    let (rep, policy, refile) = replay_trace(&file, None, true).expect("fixture replays");
    assert_eq!(policy, "NoPart");
    assert!(rep.cpu_instr > 0);
    assert_eq!(rep.tenants.len(), 2, "tagged fixture must report both tenants");
    assert_eq!(
        refile.unwrap().encode(),
        bytes,
        "replaying the committed fixture must re-capture the identical bytes"
    );
}
