//! End-to-end tests for the host-side self-profiler (DESIGN.md §17) on
//! real simulations: the event loop's tree shape and artifact export.
//!
//! The profiler is process-global, so every test holds `prof::test_lock()`
//! for its whole body.

use hydrogen_repro::prelude::*;
use hydrogen_repro::sim::prof;

fn profiled_run(mix: &str, kind: PolicyKind) -> prof::ProfReport {
    prof::reset();
    prof::arm();
    let _ = run_sim(&SystemConfig::tiny(), &Mix::by_name(mix).unwrap(), kind);
    prof::disarm();
    prof::take_report()
}

/// The event loop's profile exposes the dispatch/HMC/cache/scheduling
/// split the acceptance criteria name, with bounded unattributed time.
#[test]
fn loop_profile_has_the_full_phase_split() {
    let _lock = prof::test_lock();
    let report = profiled_run("C1", PolicyKind::HydrogenFull);
    let root = report.root("run.loop").expect("event loop root");
    for phase in ["dispatch.core_wake", "dispatch.mem_done", "dispatch.epoch"] {
        assert!(root.child(phase).is_some(), "missing {phase}");
    }
    let mem = root
        .children
        .iter()
        .find_map(|c| c.child("mem.schedule"))
        .expect("mem.schedule under a dispatch arm");
    assert!(mem.count > 0);
    // HMC phases nest under the hmc_start dispatch arm.
    let hmc = root.child("dispatch.hmc_start").expect("hmc dispatch arm");
    assert!(hmc.child("hmc.access").is_some(), "hmc.access under hmc_start");

    // Attribution quality: time not claimed by any child of the run root
    // ("other") stays a small slice of the whole run. The loop hands off
    // between `queue.pop` and the dispatch arms on shared clock readings,
    // so in practice this is ~0% — 5% is the acceptance bound.
    let children: u64 = root.children.iter().map(|c| c.incl_ns).sum();
    assert!(children <= root.incl_ns, "children must tile under the root");
    let other = root.incl_ns - children;
    assert!(
        other * 100 <= root.incl_ns * 5,
        "unattributed time {other}ns of {}ns root exceeds 5%",
        root.incl_ns
    );
}

/// Disarmed runs leave no trace at all: the report is empty, so the probes
/// compiled into the hot paths are pure branches when profiling is off.
#[test]
fn disarmed_simulation_records_nothing() {
    let _lock = prof::test_lock();
    prof::reset();
    let _ = run_sim(&SystemConfig::tiny(), &Mix::by_name("C1").unwrap(), PolicyKind::NoPart);
    let report = prof::take_report();
    assert!(report.is_empty(), "disarmed run produced {} roots", report.roots.len());
}

/// The folded export of a real run is flamegraph-ready: semicolon-joined
/// frame paths, one space, integer weight — and every line's leading frame
/// is a known root scope.
#[test]
fn folded_export_of_a_real_run_is_well_formed() {
    let _lock = prof::test_lock();
    let report = profiled_run("C1", PolicyKind::NoPart);
    let folded = report.to_folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (path, weight) = line.rsplit_once(' ').expect("weight after last space");
        assert!(weight.parse::<u64>().is_ok(), "non-integer weight in {line:?}");
        let first = path.split(';').next().unwrap();
        assert!(
            report.roots.iter().any(|r| r.name == first),
            "folded frame {first:?} is not a root"
        );
    }
}
