//! `h2` — the experiment CLI.
//!
//! ```text
//! h2 list                           # show available experiments
//! h2 run fig5 [fig6 ...]            # run selected experiments
//! h2 run --telemetry <dir> fig9     # also dump per-run telemetry JSON
//! h2 run --trace <dir> fig9         # also dump Perfetto request traces
//! h2 run --profile <dir> fig9       # also dump a host-time self-profile
//! h2 run --scenario spec.json       # multi-tenant scenario run (DESIGN.md §18)
//! h2 run --mix C1 --capture t.h2trace  # capture a mix run's demand stream
//! h2 run --replay t.h2trace         # bit-identical replay from the capture
//! h2 all                            # run everything (Tables I-II, Figs 2, 5-11)
//! h2 fuzz --seeds 500               # deterministic simulation fuzzer (h2-check)
//! h2 fuzz --replay repro.json       # replay a committed reproducer
//! h2 sweep spec.json [--jobs 4]     # run a sweep campaign (see DESIGN.md §16)
//! h2 cache stats                    # inspect the persistent run store
//! h2 cache gc --max-bytes 512M      # LRU-evict the store down to a budget
//! ```
//!
//! `--jobs N` sizes the one worker pool (default: every CPU). `h2 run` and
//! `h2 all` plan every requested experiment together and run their
//! distinct jobs on the pool as one batch; `h2 sweep` runs its points on
//! it. Tables and CSVs do not depend on `N`.
//!
//! The global flags apply to these subcommands only, and any other
//! subcommand exits with status 2 when given one: `--jobs` to `run
//! <experiment>..`, `all` and `sweep`; `--trace` and `--trace-sample` to
//! `run <experiment>..` and `all`; `--telemetry` and `--profile` to `run`
//! and `all`.
//!
//! Scale with `H2_PROFILE=quick|default|full`; `H2_VERBOSE=1` for progress.
//! `h2 run` and `h2 all` exit with status 1 when any paper claim checked by
//! an experiment (the `verify` table's `result` column) reads FAIL.
//! CSVs are written to `results/`. Completed simulations persist in
//! `results/.runcache/` and are replayed on re-runs; set `H2_RUNCACHE=off`
//! to disable, or point it at an alternate directory.
//!
//! `--telemetry <dir>` writes one machine-readable epoch-resolved timeline
//! per simulation run (`<mix>_<policy>_<key>.json`, schema documented in
//! `h2_system::telemetry`) — including runs replayed from the cache.
//!
//! `--trace <dir>` enables request-level causal tracing and writes one
//! Chrome Trace Event file per run (`<mix>_<policy>_<key>.trace.json`),
//! loadable at <https://ui.perfetto.dev>. `--trace-sample N` sets the
//! sampling rate (every `N`-th demand read; default 64). Cached runs that
//! were executed without tracing are transparently re-executed with it.
//!
//! `--profile <dir>` arms the host-side self-profiler (`h2_sim_core::prof`)
//! for the whole invocation and writes `profile.txt` / `profile.json` /
//! `profile.folded` into the directory (see DESIGN.md §17). The profile
//! covers *executed* simulations only — cache replays spend no simulator
//! time, so a fully warm run produces a near-empty profile. Simulations on
//! every worker are profiled. The profile's allocation columns read 0: `h2`
//! has no counting allocator.

use h2_harness::{run_experiments, validate_run_ids, Profile, RunCache, Table, ALL_EXPERIMENTS};
use h2_sim_core::prof;
use std::path::{Path, PathBuf};

/// Default request-trace sampling rate: every 64th demand read.
const DEFAULT_TRACE_SAMPLE: u64 = 64;

/// Whether the subcommand in `args` takes the global `flag`. Every other
/// subcommand rejects the flag rather than run as if it were absent.
fn takes_flag(args: &[String], flag: &str) -> bool {
    let trace_mode = h2_harness::trace_cli::is_trace_mode(args.get(1..).unwrap_or_default());
    match (args.first().map(String::as_str), flag) {
        (Some("all"), _) | (Some("run"), "--telemetry" | "--profile") => true,
        (Some("run"), _) => !trace_mode,
        (Some("sweep"), "--jobs") => true,
        _ => false,
    }
}

/// Extract `--flag <value>` from anywhere in `args`, removing both tokens.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs an argument");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let profile = Profile::from_env();

    let telemetry_dir = take_flag(&mut args, "--telemetry").map(PathBuf::from);
    let trace_dir = take_flag(&mut args, "--trace").map(PathBuf::from);
    let profile_dir = take_flag(&mut args, "--profile").map(PathBuf::from);
    let trace_sample = match take_flag(&mut args, "--trace-sample") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("--trace-sample needs an unsigned integer, got '{v}'");
                std::process::exit(2);
            }
        },
        None => None,
    };
    if trace_sample.is_some() && trace_dir.is_none() {
        eprintln!("--trace-sample requires --trace <dir>");
        std::process::exit(2);
    }
    let jobs = match take_flag(&mut args, "--jobs") {
        Some(v) => match v.parse::<usize>() {
            Ok(0) => {
                eprintln!("--jobs must be > 0 (zero workers run nothing)");
                std::process::exit(2);
            }
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("--jobs needs an unsigned integer, got '{v}'");
                std::process::exit(2);
            }
        },
        None => None,
    };
    for (flag, given) in [
        ("--telemetry", telemetry_dir.is_some()),
        ("--trace", trace_dir.is_some()),
        ("--trace-sample", trace_sample.is_some()),
        ("--profile", profile_dir.is_some()),
        ("--jobs", jobs.is_some()),
    ] {
        if given && !takes_flag(&args, flag) {
            let on = match args.first().map(String::as_str) {
                None => "no subcommand".to_string(),
                // `run <experiment>..` takes every flag; only trace mode
                // rejects one.
                Some("run") => "`h2 run --scenario/--capture/--replay`".to_string(),
                Some(cmd) => format!("`h2 {cmd}`"),
            };
            eprintln!("{flag} does not apply to {on}");
            std::process::exit(2);
        }
    }
    let trace = trace_dir.map(|d| (d, trace_sample.unwrap_or(DEFAULT_TRACE_SAMPLE)));

    match args.first().map(|s| s.as_str()) {
        Some("list") => {
            println!("experiments: {}", ALL_EXPERIMENTS.join(" "));
            println!("profile: {profile:?} (H2_PROFILE=quick|default|full)");
        }
        Some("all") => {
            run_ids(
                &ALL_EXPERIMENTS,
                &profile,
                telemetry_dir.as_deref(),
                trace.as_ref(),
                profile_dir.as_deref(),
                jobs,
            );
        }
        // Trace mode: `h2 run --scenario/--capture/--replay` (DESIGN.md
        // §18). Gated on the `run` subcommand so `h2 fuzz --replay` keeps
        // its repro flag.
        Some("run") if h2_harness::trace_cli::is_trace_mode(&args[1..]) => {
            std::process::exit(h2_harness::trace_cli::cmd_run_trace(
                &args[1..],
                telemetry_dir.as_deref(),
                profile_dir.as_deref(),
            ));
        }
        Some("run") if args.len() > 1 => {
            let ids: Vec<&str> = args[1..].iter().map(|s| s.as_str()).collect();
            if let Err(e) = validate_run_ids(&ids) {
                eprintln!("{e}");
                std::process::exit(2);
            }
            run_ids(
                &ids,
                &profile,
                telemetry_dir.as_deref(),
                trace.as_ref(),
                profile_dir.as_deref(),
                jobs,
            );
        }
        Some("fuzz") => {
            std::process::exit(h2_harness::fuzz_cli::cmd_fuzz(&args[1..]));
        }
        Some("sweep") => {
            std::process::exit(h2_harness::sweep::cmd_sweep(&args[1..], jobs));
        }
        Some("cache") => {
            std::process::exit(h2_harness::sweep::cmd_cache(&args[1..]));
        }
        _ => {
            eprintln!(
                "usage: h2 list | h2 [--telemetry <dir>] [--trace <dir> [--trace-sample N]] [--profile <dir>] [--jobs N] run <experiment>.. | h2 all | h2 fuzz [--seeds N] [--time-budget SECS] [--replay FILE] | h2 sweep <spec.json> [--out FILE] [--jobs N] | h2 cache stats|gc [--max-bytes N[K|M|G]] [--dir D]"
            );
            eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
            std::process::exit(2);
        }
    }
}

/// The claims that read FAIL in an experiment's tables: the first cell of
/// every row whose `result` column holds `FAIL`. Tables without a `result`
/// column carry no claims.
fn failed_claims(tables: &[Table]) -> Vec<String> {
    let mut failed = Vec::new();
    for t in tables {
        let Some(col) = t.header.iter().position(|h| h == "result") else { continue };
        for row in &t.rows {
            if row[col] == "FAIL" {
                failed.push(row[0].clone());
            }
        }
    }
    failed
}

fn run_ids(
    ids: &[&str],
    profile: &Profile,
    telemetry_dir: Option<&Path>,
    trace: Option<&(PathBuf, u64)>,
    profile_dir: Option<&Path>,
    jobs: Option<usize>,
) {
    if profile_dir.is_some() {
        prof::reset();
        prof::arm();
    }
    let mut cache = RunCache::persistent();
    if let Some(n) = jobs {
        cache.set_jobs(n);
    }
    if let Some(dir) = telemetry_dir {
        if let Err(e) = cache.set_telemetry_dir(dir) {
            eprintln!("cannot create telemetry dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    if let Some((dir, sample)) = trace {
        if let Err(e) = cache.set_trace_dir(dir, *sample) {
            eprintln!("cannot create trace dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let t0 = std::time::Instant::now();
    let results_dir = Path::new("results");
    let announce = |jobs: usize| {
        eprintln!("[h2] plan: {} experiments request {jobs} distinct jobs", ids.len());
    };
    let experiments = run_experiments(ids, profile, &mut cache, announce)
        .expect("experiment ids are validated before they run");
    let mut failed = Vec::new();
    for tables in experiments {
        failed.extend(failed_claims(&tables));
        for t in tables {
            println!("{}", t.render());
            match t.write_csv(results_dir) {
                Ok(p) => println!("csv: {}\n", p.display()),
                Err(e) => eprintln!("csv write failed: {e}"),
            }
        }
    }
    eprintln!(
        "[h2] {} experiments in {:.0}s: {}",
        ids.len(),
        t0.elapsed().as_secs_f64(),
        cache.summary()
    );
    if let Some(dir) = profile_dir {
        prof::disarm();
        let report = prof::take_report();
        match h2_harness::profout::write_profile(dir, &report) {
            Ok(paths) => {
                print!("{}", report.render_text());
                for p in &paths {
                    eprintln!("profile: {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("cannot write profile to {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("[h2] {} claim(s) FAIL: {}", failed.len(), failed.join("; "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claims(results: &[&str]) -> Table {
        let mut t = Table::new("verify_claims", "claims", &["claim", "paper source", "result", "measured"]);
        for (i, r) in results.iter().enumerate() {
            t.row(vec![format!("claim {i}"), "§V".into(), r.to_string(), "1.0".into()]);
        }
        t
    }

    #[test]
    fn failed_claims_reads_the_result_column() {
        assert!(failed_claims(&[claims(&["PASS", "PASS"])]).is_empty());
        assert_eq!(
            failed_claims(&[claims(&["PASS", "FAIL", "FAIL"])]),
            vec!["claim 1".to_string(), "claim 2".to_string()]
        );
        // A FAIL cell outside a `result` column is data, not a verdict.
        let mut other = Table::new("fig5a", "speedups", &["mix", "note"]);
        other.row(vec!["FAIL".into(), "FAIL".into()]);
        assert!(failed_claims(&[other, claims(&["PASS"])]).is_empty());
    }
}
