//! Fuzzer smoke + committed-reproducer regression suite (tier 2).
//!
//! `tests/repros/` holds shrunk `repro.json` reproducers from past fuzz
//! findings (and from the injected-bug acceptance test). Each one pins a
//! bug that is now fixed: replaying it through the full battery — with
//! the real harness oracles wired — must come back clean, and stay
//! byte-deterministic across both event-queue engines (the battery's
//! engine-differential check proves that on every replay). A reproducer
//! pinned for a metamorphic relation also runs that relation by name, since
//! the battery picks its relation by rotating through the catalogue.

use h2_check::{
    applicable, check_relation, parse_repro, repro_json, run_battery, FuzzCase, FUZZ_LABEL,
};
use h2_harness::fuzz_cli::oracle_hooks;
use h2_system::run_workloads;
use std::fs;
use std::path::PathBuf;

fn repro_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {dir:?}: {e}"))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "tests/repros/ must hold at least one reproducer");
    files
}

#[test]
fn committed_repros_replay_clean_and_bit_identical_across_engines() {
    let hooks = oracle_hooks();
    for file in repro_files() {
        let text = fs::read_to_string(&file).unwrap();
        let (case, recorded) = parse_repro(&text)
            .unwrap_or_else(|e| panic!("{file:?} is not a valid repro: {e}"));
        // The battery includes the calendar-vs-heap engine differential,
        // so a clean pass certifies cross-engine byte determinism too.
        run_battery(&case, &hooks).unwrap_or_else(|f| {
            panic!(
                "{file:?} regressed: {} ({}) — originally pinned for {}",
                f.check, f.message, recorded.check
            )
        });
        if let Some(name) = recorded.check.strip_prefix("relation:") {
            let rels = applicable(&case);
            let rel = rels.iter().find(|r| r.name() == name).unwrap_or_else(|| {
                let names: Vec<_> = rels.iter().map(|r| r.name()).collect();
                panic!(
                    "{file:?} pins relation {name}, which does not apply to its case \
                     (applicable: {names:?})"
                )
            });
            let (cfg, cpu, gpu, kind, cap) = case.build().unwrap();
            let base = run_workloads(&cfg, FUZZ_LABEL, &cpu, gpu.as_ref(), kind, cap);
            check_relation(*rel, &case, FUZZ_LABEL, &base)
                .unwrap_or_else(|e| panic!("{file:?} regressed on relation {name}: {e}"));
        }
    }
}

#[test]
fn committed_repros_are_in_canonical_format() {
    // Re-serialising the parsed case must reproduce the committed bytes,
    // so `h2 fuzz` output can be committed verbatim and diffs stay clean.
    for file in repro_files() {
        let text = fs::read_to_string(&file).unwrap();
        let (case, failure) = parse_repro(&text).unwrap();
        assert_eq!(
            repro_json(&case, &failure),
            text,
            "{file:?} is not in canonical repro_json format"
        );
    }
}

#[test]
fn short_campaign_with_harness_oracles_is_clean() {
    // A fresh mini-campaign through the *full* oracle set (persistence
    // codec + run-cache replay), complementing the CLI's 50-seed CI gate.
    let hooks = oracle_hooks();
    let outcome = h2_check::fuzz(0, 3, None, &hooks, &mut |_, _| {});
    assert_eq!(outcome.cases_run, 3);
    if let Some((case, failure, _)) = outcome.failure {
        panic!("seed {} failed {}: {}", case.case_seed, failure.check, failure.message);
    }
}

#[test]
fn replay_of_a_freshly_generated_case_is_deterministic() {
    // generate → serialise → parse → battery: the full `h2 fuzz --replay`
    // path in-process, for a case that never touched disk.
    let case = FuzzCase::generate(1234);
    let text = repro_json(&case, &h2_check::Failure {
        check: "none".into(),
        message: String::new(),
    });
    let (parsed, _) = parse_repro(&text).unwrap();
    assert_eq!(parsed, case);
    run_battery(&parsed, &oracle_hooks()).unwrap();
}
