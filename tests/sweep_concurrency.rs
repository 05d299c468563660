//! Sweep/store concurrency suite (tier 2).
//!
//! The sharded run store is shared mutable state: sweep workers in one
//! process and multiple `h2` processes may all read, publish, and
//! garbage-collect the same directory at once. These tests hammer one
//! store from many threads and assert the safety contract: no torn
//! entries ever become visible, no results are lost, and sweep output is
//! identical to a sequential run. Two `h2` processes racing one store are
//! covered by the harness package's CLI suite
//! (`crates/harness/tests/sweep_cli.rs`), which runs the freshly built
//! binary.

use h2_harness::cache::{Job, RunCache};
use h2_harness::sweep::store::ShardedStore;
use h2_harness::sweep::{run_sweep, spec::SweepSpec};
use h2_harness::persist::DiskTier;
use h2_system::{PolicyKind, RunReport, SystemConfig};
use h2_trace::Mix;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h2-sweep-conc-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One cheap real report to publish under many keys.
fn sample_report() -> RunReport {
    let mut cfg = SystemConfig::tiny();
    cfg.warmup_cycles = 50_000;
    cfg.measure_cycles = 100_000;
    let mut cache = RunCache::new();
    cache.run(&Job::new(&cfg, &Mix::by_name("C1").unwrap(), PolicyKind::NoPart))
}

/// Files with extension `ext` anywhere in the store (shard dirs included).
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

const SPEC_JSON: &str = r#"{
  "name": "conc",
  "scale": "tiny",
  "mixes": ["C1"],
  "policies": ["NoPart", "WayPart"],
  "base": {"warmup_cycles": 50000, "measure_cycles": 100000},
  "search": {"kind": "grid", "params": {"seed": [1, 2]}}
}"#;

#[test]
fn threads_hammering_one_store_lose_nothing() {
    // 8 threads × (store + load) over 32 keys, all racing, including
    // same-key collisions. Every key must end up loadable and intact,
    // with no temp files or quarantined entries left behind.
    let dir = scratch("hammer");
    let store = Arc::new(ShardedStore::open(&dir).unwrap());
    let report = sample_report();
    let keys: Vec<u128> = (0..32u128).map(|i| (i << 120) | (i + 1)).collect();
    std::thread::scope(|s| {
        for t in 0..8 {
            let store = Arc::clone(&store);
            let report = report.clone();
            let keys = keys.clone();
            s.spawn(move || {
                for round in 0..6 {
                    for (i, &key) in keys.iter().enumerate() {
                        if (i + t + round) % 3 == 0 {
                            store.store(key, &report).unwrap();
                        } else if let Some(r) = store.load(key) {
                            // Torn reads would decode garbage or quarantine.
                            assert_eq!(r.cpu_instr, report.cpu_instr);
                        }
                    }
                }
            });
        }
    });
    // Make every key visible, then verify all 32 survive intact.
    for &key in &keys {
        store.store(key, &report).unwrap();
    }
    assert_eq!(store.entries(), keys.len());
    for &key in &keys {
        let r = store.load(key).expect("entry lost");
        assert_eq!(r.cpu_instr, report.cpu_instr);
    }
    assert_eq!(store.quarantined(), 0, "no torn entry was ever served");
    assert!(files_with_ext(&dir, "tmp").is_empty(), "no abandoned temps");
    assert!(files_with_ext(&dir, "bad").is_empty(), "no quarantined files");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_racing_writers_never_breaks_readers() {
    // One thread runs gc in a loop (tight byte budget, zero tmp TTL)
    // while others publish and read. Loads must only ever see intact
    // entries or misses — never a decode failure (quarantine) — and the
    // store must stay structurally clean afterwards.
    let dir = scratch("gc-race");
    let store = Arc::new(ShardedStore::open(&dir).unwrap());
    let report = sample_report();
    std::thread::scope(|s| {
        for t in 0..4u128 {
            let store = Arc::clone(&store);
            let report = report.clone();
            s.spawn(move || {
                for i in 0..40u128 {
                    let key = (t * 40 + i) << 96 | 0xbeef;
                    store.store(key, &report).unwrap();
                    if let Some(r) = store.load(key) {
                        assert_eq!(r.cpu_instr, report.cpu_instr);
                    }
                }
            });
        }
        let gc_store = Arc::clone(&store);
        s.spawn(move || {
            for _ in 0..10 {
                let r = gc_store.gc(4096, std::time::Duration::ZERO).unwrap();
                assert_eq!(r.bad_removed, 0, "gc found quarantined entries");
            }
        });
    });
    assert_eq!(store.quarantined(), 0, "a load hit a torn entry during gc");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_results_identical_sequential_vs_concurrent() {
    // The same spec, run sequentially cold, concurrently cold (fresh
    // store), and concurrently warm (shared store), must render the same
    // summary bytes — worker count, completion order, and cache warmth are
    // invisible in the output.
    let spec = SweepSpec::parse(SPEC_JSON).unwrap();
    let dir_seq = scratch("seq");
    let dir_par = scratch("par");
    let seq_tier = DiskTier::open(&dir_seq).unwrap();
    let par_tier = DiskTier::open(&dir_par).unwrap();

    let seq = run_sweep(&spec, Some(&seq_tier), 1, &mut Vec::new()).unwrap();
    assert_eq!(seq.stats.executed, 4);
    let par_cold = run_sweep(&spec, Some(&par_tier), 4, &mut Vec::new()).unwrap();
    assert_eq!(par_cold.stats.executed, 4);
    let par_warm = run_sweep(&spec, Some(&par_tier), 4, &mut Vec::new()).unwrap();
    assert_eq!(par_warm.stats.executed, 0, "warm rerun fully cached");
    assert_eq!(par_warm.stats.disk_hits, 4);

    assert_eq!(seq.table.render(), par_cold.table.render());
    assert_eq!(seq.table.render(), par_warm.table.render());
    assert_eq!(seq.table.to_csv(), par_warm.table.to_csv());
    let _ = fs::remove_dir_all(&dir_seq);
    let _ = fs::remove_dir_all(&dir_par);
}
