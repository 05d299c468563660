//! The `h2 fuzz` subcommand: argument parsing, the harness-side oracle
//! hooks (persistence codec + run-cache replay), the campaign driver, and
//! `--replay` for committed `repro.json` reproducers.
//!
//! Argument parsing is separated from `main` so the error messages are
//! unit-testable; everything here returns exit codes instead of calling
//! `process::exit` directly.

use crate::cache::{Job, RunCache};
use crate::persist::{self, LoadMode};
use h2_check::{diff_reports, parse_repro, repro_json, run_battery, FuzzCase, OracleHooks};
use h2_system::{Participants, RunReport, SystemConfig};
use h2_trace::Mix;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Parsed `h2 fuzz` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArgs {
    /// Number of seeded cases to run.
    pub seeds: u64,
    /// First seed (campaigns are resumable by seed range).
    pub start_seed: u64,
    /// Wall-clock budget; the campaign stops cleanly when it runs out.
    pub time_budget: Option<Duration>,
    /// Where to write `repro.json` on failure.
    pub out: PathBuf,
    /// Replay a committed reproducer instead of fuzzing.
    pub replay: Option<PathBuf>,
}

impl Default for FuzzArgs {
    fn default() -> Self {
        FuzzArgs {
            seeds: 50,
            start_seed: 0,
            time_budget: None,
            out: PathBuf::from("repro.json"),
            replay: None,
        }
    }
}

impl FuzzArgs {
    /// Parse the arguments after `h2 fuzz`. Errors are complete messages
    /// ready for stderr.
    pub fn parse(args: &[String]) -> Result<FuzzArgs, String> {
        let mut out = FuzzArgs::default();
        let mut saw_seeds = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .map(|s| s.to_string())
                    .ok_or_else(|| format!("{flag} needs an argument"))
            };
            match arg.as_str() {
                "--seeds" => {
                    let v = value("--seeds")?;
                    out.seeds = v
                        .parse()
                        .map_err(|_| format!("--seeds needs an unsigned integer, got '{v}'"))?;
                    if out.seeds == 0 {
                        return Err("--seeds must be > 0 (an empty campaign checks nothing)".into());
                    }
                    saw_seeds = true;
                }
                "--start-seed" => {
                    let v = value("--start-seed")?;
                    out.start_seed = v.parse().map_err(|_| {
                        format!("--start-seed needs an unsigned integer, got '{v}'")
                    })?;
                }
                "--time-budget" => {
                    let v = value("--time-budget")?;
                    let secs: u64 = v.parse().map_err(|_| {
                        format!("--time-budget needs a whole number of seconds, got '{v}'")
                    })?;
                    if secs == 0 {
                        return Err("--time-budget must be > 0 seconds".into());
                    }
                    out.time_budget = Some(Duration::from_secs(secs));
                }
                "--out" => out.out = PathBuf::from(value("--out")?),
                "--replay" => out.replay = Some(PathBuf::from(value("--replay")?)),
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (usage: h2 fuzz [--seeds N] [--start-seed N] [--time-budget SECS] [--out FILE] | h2 fuzz --replay FILE)"
                    ))
                }
            }
        }
        if out.replay.is_some() && saw_seeds {
            return Err("--replay and --seeds are mutually exclusive (a replay runs exactly one case)".into());
        }
        Ok(out)
    }
}

/// The harness-side differential oracles, wired as plain function
/// pointers so `h2_check::run_battery` stays unwind-safe.
pub fn oracle_hooks() -> OracleHooks {
    OracleHooks {
        codec_roundtrip: Some(persist::codec_roundtrip),
        cached_replay: Some(cached_replay),
    }
}

/// Distinguishes scratch cache directories when tests run concurrently in
/// one process.
static SCRATCH_ID: AtomicU64 = AtomicU64::new(0);

/// Request-trace sampling rate of the cached-replay oracle's traced jobs.
const REPLAY_TRACE_SAMPLE: u64 = 16;

/// The run-cache oracle: execute a small job through a fresh persistent
/// cache (execute + store), then replay it from a second cache sharing
/// the same directory. The replay must come from the disk tier and must
/// be byte-identical to the fresh run.
///
/// The job is a Table II mix selected by the case seed with a short tiny
/// window, not the case's own workload list — `Job`s are mix-shaped — so
/// this oracle sweeps the real CLI cache path (job keys, the atomic
/// store, tag validation, decode) across seeds and policies.
///
/// Two case seeds in five trace the job (5 is coprime to the 12 mixes, so
/// every mix is traced within 60 seeds) and replay it twice more: through
/// caches without a trace dir, where both reports must hold no spans, and
/// through caches that dump traces, where both must hold the run's spans.
/// Each stored entry is also loaded core-only, as the sweep engine loads
/// it, which must give the fresh report without telemetry and spans.
fn cached_replay(case: &FuzzCase) -> Result<Option<String>, String> {
    let mixes = Mix::all();
    let mix = mixes[(case.case_seed % mixes.len() as u64) as usize].clone();
    let mut cfg = SystemConfig::tiny();
    cfg.seed = case.sim_seed;
    cfg.epoch_cycles = 20_000;
    cfg.faucet_cycles = 5_000;
    cfg.warmup_cycles = 40_000;
    cfg.measure_cycles = 60_000;
    let traced = case.case_seed % 5 < 2;
    if traced {
        cfg.trace_sample = Some(REPLAY_TRACE_SAMPLE);
    }
    let job = Job {
        cfg,
        mix,
        kind: case.policy_kind()?,
        parts: Participants::Both,
        scenario: None,
    };

    let dir = std::env::temp_dir().join(format!(
        "h2-fuzz-replay-{}-{}",
        std::process::id(),
        SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let dumps = dir.join("traces");
    let trace_dirs: &[Option<&Path>] = if traced { &[None, Some(&dumps)] } else { &[None] };
    let result = (|| {
        for (i, trace_dir) in trace_dirs.iter().enumerate() {
            let store = dir.join(format!("store-{i}"));
            let open = || -> Result<RunCache, String> {
                let mut cache = RunCache::with_disk_dir(&store).map_err(|e| e.to_string())?;
                if let Some(d) = trace_dir {
                    cache.set_trace_dir(d, REPLAY_TRACE_SAMPLE).map_err(|e| e.to_string())?;
                }
                Ok(cache)
            };
            let fresh = open()?.run(&job);
            let mut cache = open()?;
            let replayed = cache.run(&job);
            if cache.disk_hits != 1 {
                return Ok(Some(format!(
                    "replay missed the persistent tier (disk_hits {}, executed {})",
                    cache.disk_hits, cache.executed
                )));
            }
            // Without a trace dir a traced run keeps its trace but no
            // spans; a cache that dumps serves them. The diff below holds
            // the replay to the same.
            let spans = fresh.trace.as_ref().map(|t| t.spans.len());
            let served_right = match trace_dir {
                None => spans == traced.then_some(0),
                Some(_) => spans.is_some_and(|n| n > 0),
            };
            if !served_right {
                return Ok(Some(format!(
                    "a cache with{} a trace dir served a fresh report holding {spans:?} spans",
                    if trace_dir.is_some() { "" } else { "out" }
                )));
            }
            if let Some(diff) = diff_reports(&fresh, &replayed) {
                return Ok(Some(diff));
            }
            let Some(core) = cache.disk_store().and_then(|s| s.load_with(job.key(), LoadMode::Core))
            else {
                return Ok(Some("a core-only load missed the entry the replay hit".into()));
            };
            let mut want = RunReport { telemetry: None, ..fresh };
            if let Some(trace) = &mut want.trace {
                trace.spans.clear();
            }
            if let Some(diff) = diff_reports(&want, &core) {
                return Ok(Some(format!("core-only load: {diff}")));
            }
        }
        Ok(None)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Run `h2 fuzz` end to end; returns the process exit code.
pub fn cmd_fuzz(args: &[String]) -> i32 {
    let parsed = match FuzzArgs::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let hooks = oracle_hooks();

    if let Some(path) = &parsed.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return 2;
            }
        };
        let (case, recorded) = match parse_repro(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("invalid repro {}: {e}", path.display());
                return 2;
            }
        };
        eprintln!(
            "[h2 fuzz] replaying {} (recorded failure: {})",
            case.label(),
            recorded.check
        );
        return match run_battery(&case, &hooks) {
            Ok(()) => {
                println!("replay clean: every check passed ({})", case.label());
                0
            }
            Err(f) => {
                eprintln!("replay FAILED {}: {}", f.check, f.message);
                1
            }
        };
    }

    let verbose = std::env::var("H2_VERBOSE").is_ok();
    let t0 = std::time::Instant::now();
    let outcome = h2_check::fuzz(
        parsed.start_seed,
        parsed.seeds,
        parsed.time_budget,
        &hooks,
        &mut |seed, case| {
            if verbose {
                eprintln!("[h2 fuzz] seed {seed}: {}", case.label());
            }
        },
    );
    eprintln!(
        "[h2 fuzz] {} cases in {:.1}s{}",
        outcome.cases_run,
        t0.elapsed().as_secs_f64(),
        if outcome.budget_exhausted { " (time budget exhausted)" } else { "" }
    );
    match outcome.failure {
        None => {
            println!("fuzz clean: {} cases, zero violations", outcome.cases_run);
            0
        }
        Some((original, failure, shrunk)) => {
            eprintln!("[h2 fuzz] FAILED {}: {}", failure.check, failure.message);
            eprintln!("[h2 fuzz] original case: {}", original.label());
            eprintln!("[h2 fuzz] shrunk case:   {}", shrunk.label());
            let doc = repro_json(&shrunk, &failure);
            match std::fs::write(&parsed.out, &doc) {
                Ok(()) => eprintln!(
                    "[h2 fuzz] wrote {} — replay with: h2 fuzz --replay {}",
                    parsed.out.display(),
                    parsed.out.display()
                ),
                Err(e) => eprintln!("[h2 fuzz] cannot write {}: {e}", parsed.out.display()),
            }
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FuzzArgs, String> {
        FuzzArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_full_flag_set() {
        assert_eq!(parse(&[]).unwrap(), FuzzArgs::default());
        let a = parse(&[
            "--seeds", "500", "--start-seed", "100", "--time-budget", "300", "--out",
            "results/repro.json",
        ])
        .unwrap();
        assert_eq!(a.seeds, 500);
        assert_eq!(a.start_seed, 100);
        assert_eq!(a.time_budget, Some(Duration::from_secs(300)));
        assert_eq!(a.out, PathBuf::from("results/repro.json"));
    }

    #[test]
    fn rejects_zero_and_malformed_counts() {
        assert_eq!(
            parse(&["--seeds", "0"]).unwrap_err(),
            "--seeds must be > 0 (an empty campaign checks nothing)"
        );
        assert_eq!(
            parse(&["--seeds", "many"]).unwrap_err(),
            "--seeds needs an unsigned integer, got 'many'"
        );
        assert_eq!(
            parse(&["--time-budget", "0"]).unwrap_err(),
            "--time-budget must be > 0 seconds"
        );
        assert_eq!(
            parse(&["--time-budget", "5m"]).unwrap_err(),
            "--time-budget needs a whole number of seconds, got '5m'"
        );
        assert_eq!(parse(&["--seeds"]).unwrap_err(), "--seeds needs an argument");
    }

    #[test]
    fn rejects_unknown_and_conflicting_arguments() {
        assert!(parse(&["--sedes", "50"]).unwrap_err().starts_with("unknown argument '--sedes'"));
        assert_eq!(
            parse(&["--replay", "r.json", "--seeds", "5"]).unwrap_err(),
            "--replay and --seeds are mutually exclusive (a replay runs exactly one case)"
        );
    }

    #[test]
    fn replay_parses_alone() {
        let a = parse(&["--replay", "tests/repros/x.json"]).unwrap();
        assert_eq!(a.replay, Some(PathBuf::from("tests/repros/x.json")));
    }

    #[test]
    fn cached_replay_oracle_is_clean_on_a_generated_case() {
        // Case 0 runs untraced, case 1 traced.
        for seed in [0, 1] {
            assert_eq!(cached_replay(&FuzzCase::generate(seed)).unwrap(), None, "seed {seed}");
        }
    }
}
