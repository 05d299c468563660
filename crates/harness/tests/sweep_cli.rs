//! End-to-end `h2 sweep` / `h2 cache` CLI tests.
//!
//! These run the real binary (cargo builds it for this package's
//! integration tests and exposes it as `CARGO_BIN_EXE_h2`), so they cover
//! the full path: spec file → engine → work-stealing pool → sharded store
//! → JSONL progress → summary table — including the acceptance scenario:
//! a cold sweep followed by a warm rerun that executes nothing and prints
//! a byte-identical table, and two processes racing one store.

use h2_harness::sweep::store::ShardedStore;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const H2: &str = env!("CARGO_BIN_EXE_h2");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h2-sweep-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

const SPEC_JSON: &str = r#"{
  "name": "cli",
  "scale": "tiny",
  "mixes": ["C1"],
  "policies": ["NoPart", "WayPart"],
  "base": {"warmup_cycles": 50000, "measure_cycles": 100000},
  "search": {"kind": "grid", "params": {"seed": [1, 2, 3]}}
}"#;

/// Run `h2` with args in `work`, store at `cache_dir`; assert success.
fn h2(work: &Path, cache_dir: &Path, args: &[&str]) -> Output {
    let out = Command::new(H2)
        .args(args)
        .current_dir(work)
        .env("H2_RUNCACHE", cache_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn h2");
    assert!(
        out.status.success(),
        "h2 {args:?} failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Files with extension `ext` anywhere under `dir` (shard dirs included).
fn files_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == ext) {
                found.push(p);
            }
        }
    }
    found
}

/// The deterministic part of `h2 sweep` stdout: everything before the
/// output-path lines.
fn table_text(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    stdout.split("csv:").next().unwrap().to_string()
}

#[test]
fn cold_then_warm_sweep_hits_the_cache_completely() {
    let work = scratch("warm");
    let cache_dir = work.join("cache");
    fs::write(work.join("spec.json"), SPEC_JSON).unwrap();

    let cold = h2(&work, &cache_dir, &["sweep", "spec.json", "--jobs", "2"]);
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("6 executed"), "cold run executes all jobs: {cold_err}");

    // Warm rerun: zero executions, everything replayed from the store,
    // and the summary table is byte-identical.
    let warm = h2(&work, &cache_dir, &["sweep", "spec.json", "--jobs", "2"]);
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm_err.contains("0 executed"), "warm rerun must be fully cached: {warm_err}");
    assert!(warm_err.contains("6 disk hits"), "{warm_err}");
    assert_eq!(table_text(&cold), table_text(&warm), "summary must be byte-identical");

    // Outputs landed where documented.
    assert!(work.join("results/sweeps/cli.jsonl").is_file());
    let csv = work.join("results/sweeps/sweep_cli.csv");
    let cold_csv = fs::read(&csv).unwrap();
    // JSONL progress is one valid JSON object per line, spec first,
    // summary last.
    let jsonl = fs::read_to_string(work.join("results/sweeps/cli.jsonl")).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 8, "spec + 6 jobs + summary: {jsonl}");
    assert!(lines[0].contains("\"event\":\"spec\""));
    assert!(lines.last().unwrap().contains("\"event\":\"summary\""));
    assert!(lines.last().unwrap().contains("\"executed\":0"), "warm jsonl: {jsonl}");

    // A third run with a different worker count still matches the CSV.
    h2(&work, &cache_dir, &["sweep", "spec.json", "--jobs", "1"]);
    assert_eq!(fs::read(&csv).unwrap(), cold_csv, "worker count must not change the CSV");
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn concurrent_sweeps_share_the_store_without_damage() {
    let work = scratch("race");
    let cache_dir = work.join("cache");
    fs::write(work.join("spec.json"), SPEC_JSON).unwrap();

    let children: Vec<_> = (0..2)
        .map(|i| {
            Command::new(H2)
                .args(["sweep", "spec.json", "--jobs", "2", "--out"])
                .arg(format!("p{i}.jsonl"))
                .current_dir(&work)
                .env("H2_RUNCACHE", &cache_dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap()
        })
        .collect();
    let outputs: Vec<Output> = children.into_iter().map(|c| c.wait_with_output().unwrap()).collect();
    for out in &outputs {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    assert_eq!(table_text(&outputs[0]), table_text(&outputs[1]));

    // Between them the children executed each job at least once (6 unique
    // jobs; benign same-key races may duplicate work but never lose it):
    // the store holds exactly those 6 entries, with no abandoned temp
    // file or quarantined entry left, and a warm rerun proves all 6
    // results are intact.
    let store = ShardedStore::open(&cache_dir).unwrap();
    assert_eq!(store.entries(), 6);
    assert!(files_with_ext(&cache_dir, "tmp").is_empty(), "no abandoned temps");
    assert!(files_with_ext(&cache_dir, "bad").is_empty(), "no quarantined files");
    let warm = h2(&work, &cache_dir, &["sweep", "spec.json"]);
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm_err.contains("0 executed"), "{warm_err}");
    assert_eq!(table_text(&warm), table_text(&outputs[0]));
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn cache_stats_and_gc_manage_the_store() {
    let work = scratch("gc");
    let cache_dir = work.join("cache");
    fs::write(work.join("spec.json"), SPEC_JSON).unwrap();
    h2(&work, &cache_dir, &["sweep", "spec.json"]);

    let stats = h2(&work, &cache_dir, &["cache", "stats"]);
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("entries:     6"), "{text}");
    assert!(text.contains("quarantined: 0"), "{text}");

    // A tiny byte budget evicts everything (LRU down to under budget).
    let gc = h2(&work, &cache_dir, &["cache", "gc", "--max-bytes", "1"]);
    let text = String::from_utf8_lossy(&gc.stdout);
    assert!(text.contains("evicted 6 of 6"), "{text}");

    let stats = h2(&work, &cache_dir, &["cache", "stats"]);
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("entries:     0"), "{text}");

    // The next sweep rebuilds the store from scratch.
    let rerun = h2(&work, &cache_dir, &["sweep", "spec.json"]);
    assert!(String::from_utf8_lossy(&rerun.stderr).contains("6 executed"));
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn bad_specs_fail_fast_with_a_diagnostic() {
    let work = scratch("bad");
    let cache_dir = work.join("cache");
    let run = |name: &str, body: &str| -> String {
        fs::write(work.join(name), body).unwrap();
        let out = Command::new(H2)
            .args(["sweep", name])
            .current_dir(&work)
            .env("H2_RUNCACHE", &cache_dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "bad spec must exit 2");
        String::from_utf8_lossy(&out.stderr).to_string()
    };
    assert!(run("notjson.json", "{").contains("notjson.json"));
    let err = run(
        "badmix.json",
        r#"{"name":"x","mixes":["C99"],"policies":["NoPart"],
            "search":{"kind":"grid","params":{"seed":[1]}}}"#,
    );
    assert!(err.contains("unknown mix"), "{err}");
    let _ = fs::remove_dir_all(&work);
}
