//! `h2 bench` — the hot-path performance gate.
//!
//! Times the fully-observed simulator configuration (telemetry on, request
//! tracing at the default 1/64 sample) end to end and writes the results
//! as `BENCH_hotpath.json` at the repo root. This is the configuration the
//! zero-allocation and batching work targets: interned metric handles, the
//! transaction and span slabs, pooled trace buffers, calendar-queue idle
//! fast-forward, and the event loop's same-timestamp frontier batching all
//! sit on this path.
//!
//! ```text
//! h2 bench                      # measure, write BENCH_hotpath.json
//! h2 bench --gate               # also compare against the committed
//!                               # baseline; exit 1 on regression
//! h2 bench --baseline           # re-baseline: overwrite the committed file
//! h2 bench --iters 40           # more samples (default 20)
//! h2 bench --profile-out prof/  # write the profile JSON document
//! h2 bench --profile-snapshot   # re-record the committed profile share
//! ```
//!
//! The committed baseline lives at `tests/bench/hotpath_baseline.json`
//! (relative to the repo root). The gate skips cleanly when the baseline
//! is missing, so fresh clones and machines without a recorded baseline
//! never fail.
//!
//! Allocation accounting needs the counting global allocator, which is
//! compiled in only with `--features alloc-count` (off by default so
//! ordinary builds pay nothing; its overhead on a zero-allocation hot
//! path is one relaxed atomic per — rare — allocation, so CI builds the
//! gate with it on). Without the feature, `allocs_per_event` is reported
//! as `null` and not gated. When it *is* measured, the gate holds the
//! event loop to the zero-allocation bar.
//!
//! With `--profile`, one further run has the self-profiler armed (after
//! the timed iterations, so recorded numbers are undistorted). The armed
//! run feeds two further outputs: `--profile-out <dir>` writes the full
//! attribution tree as `profile.json`, and the `hmc.access` self-time
//! share is checked against the committed snapshot at
//! `tests/bench/profile_snapshot.json` — growing more than 10% relative
//! fails the command. `--profile-snapshot` rewrites that snapshot from
//! the current run (the profile analogue of `--baseline`).

use crate::alloc_count;
use h2_sim_core::{prof, Json};
use h2_system::{run_sim, PolicyKind, SystemConfig};
use h2_trace::Mix;
use std::path::PathBuf;

/// Machine-readable results file, written at the repo root.
pub const RESULTS_FILE: &str = "BENCH_hotpath.json";

/// Committed baseline path, relative to the repo root.
pub const BASELINE_FILE: &str = "tests/bench/hotpath_baseline.json";

/// The stable bench identifier recorded in the results document.
pub const BENCH_NAME: &str = "full_system_tiny_c1_150k_traced";

/// Version of the results and baseline documents. Version 3 holds one
/// results section at the top level.
pub const RESULTS_SCHEMA: u64 = 3;

/// A regression worse than this fraction of the baseline fails `--gate`.
pub const GATE_TOLERANCE: f64 = 0.10;

/// The event loop must stay at (effectively) zero steady-state
/// allocations per event when the counting allocator is compiled in.
/// The budget is not exactly zero because the differential measurement
/// cannot cancel *output-proportional* growth: the telemetry timeline
/// appends one epoch record per telemetry epoch and the tracer retains
/// one span per sampled request, so their amortized `Vec` doublings
/// scale with the measure window, not with warm-up. That residual is
/// ~0.017 allocations/event on the traced bench; the per-event simulation
/// path itself (transaction slabs, pending-command SoA, trace scratch
/// buffers) allocates nothing in steady state.
pub const ALLOC_GATE: f64 = 0.02;

/// Committed profile-share snapshot, relative to the repo root. Records
/// the `hmc.access` exclusive-time share on the bench; `--profile` runs
/// fail when the live share grows more than [`PROFILE_SHARE_TOLERANCE`]
/// relative against it.
pub const PROFILE_SNAPSHOT_FILE: &str = "tests/bench/profile_snapshot.json";

/// The profiled phase whose self-time share the profile gate tracks.
pub const PROFILE_GATE_LABEL: &str = "hmc.access";

/// Relative growth of the gated phase's self-time share that fails a
/// profiled run: `share > snapshot * (1 + tolerance)`.
pub const PROFILE_SHARE_TOLERANCE: f64 = 0.10;

/// Parsed `h2 bench` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Compare against the committed baseline, exit non-zero on regression.
    pub gate: bool,
    /// Overwrite the committed baseline with this run's numbers.
    pub baseline: bool,
    /// Timed iterations (p50/p99 resolution improves with more).
    pub iters: u64,
    /// After the timed iterations, run once with the self-profiler armed
    /// and print the host-time attribution tree (the timed iterations stay
    /// unprofiled so the recorded numbers are undistorted).
    pub profile: bool,
    /// Directory for the `profile.json` document from the armed run
    /// (implies `profile`).
    pub profile_out: Option<String>,
    /// Rewrite the committed profile-share snapshot from this run's armed
    /// profile (implies `profile`; the profile analogue of `baseline`).
    pub profile_snapshot: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            gate: false,
            baseline: false,
            iters: 20,
            profile: false,
            profile_out: None,
            profile_snapshot: false,
        }
    }
}

impl BenchArgs {
    /// Parse the arguments after `h2 bench`. Errors are complete messages
    /// ready for stderr.
    pub fn parse(args: &[String]) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--gate" => out.gate = true,
                "--baseline" => out.baseline = true,
                "--iters" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--iters needs an argument".to_string())?;
                    out.iters = v
                        .parse()
                        .map_err(|_| format!("--iters needs an unsigned integer, got '{v}'"))?;
                    if out.iters == 0 {
                        return Err("--iters must be > 0 (zero samples measure nothing)".into());
                    }
                }
                "--profile" => out.profile = true,
                "--profile-out" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--profile-out needs a directory argument".to_string())?;
                    out.profile_out = Some(v.clone());
                    out.profile = true;
                }
                "--profile-snapshot" => {
                    out.profile_snapshot = true;
                    out.profile = true;
                }
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (usage: h2 bench [--gate] [--baseline] [--iters N] [--profile] [--profile-out DIR] [--profile-snapshot])"
                    ))
                }
            }
        }
        if out.gate && out.baseline {
            return Err(
                "--gate and --baseline are mutually exclusive (a gate compares, a baseline overwrites)"
                    .into(),
            );
        }
        if out.gate && out.profile_snapshot {
            return Err(
                "--gate and --profile-snapshot are mutually exclusive (a gate compares, a snapshot overwrites)"
                    .into(),
            );
        }
        Ok(out)
    }
}

/// The benchmark configuration: the tiny preset system, fully observed.
/// It matches the `full_system_tiny_c1_150k_traced` microbench.
fn bench_cfg(measure_cycles: u64) -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.warmup_cycles = 50_000;
    cfg.measure_cycles = measure_cycles;
    cfg.telemetry = true;
    cfg.trace_sample = Some(64);
    cfg
}

/// One timed measurement of the traced full-system run.
struct Measured {
    ns: Vec<u64>,
    events_per_iter: u64,
}

fn measure(iters: u64) -> Measured {
    let cfg = bench_cfg(100_000);
    let mix = Mix::by_name("C1").unwrap();
    // Warm the page cache, branch predictors, and the lazy workload tables.
    let warm = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
    let events_per_iter = warm.events_processed;
    let mut ns = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = std::time::Instant::now();
        let r = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
        let dt = t.elapsed().as_nanos() as u64;
        assert_eq!(
            r.events_processed, events_per_iter,
            "the benchmark run is deterministic"
        );
        ns.push(dt);
    }
    ns.sort_unstable();
    Measured { ns, events_per_iter }
}

/// Steady-state allocations per event, measured differentially: two runs
/// that differ only in measure-window length, so constructor and warm-up
/// allocations cancel and only the per-event steady state remains.
/// `None` when the counting allocator is not compiled in.
fn allocs_per_event() -> Option<f64> {
    if !alloc_count::enabled() {
        return None;
    }
    let mix = Mix::by_name("C1").unwrap();
    let short = bench_cfg(100_000);
    let long = bench_cfg(300_000);
    let a0 = alloc_count::allocs();
    let r_short = run_sim(&short, &mix, PolicyKind::HydrogenFull);
    let a1 = alloc_count::allocs();
    let r_long = run_sim(&long, &mix, PolicyKind::HydrogenFull);
    let a2 = alloc_count::allocs();
    let d_allocs = (a2 - a1).saturating_sub(a1 - a0);
    let d_events = r_long.events_processed.saturating_sub(r_short.events_processed);
    Some(d_allocs as f64 / d_events.max(1) as f64)
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

/// Whether `len` sorted samples can honestly carry a `p` label. The
/// median needs at least two samples; a tail percentile additionally
/// needs its rank to land above the median's — otherwise the "tail" is
/// the median re-printed under a different name (two iterations used to
/// report `ns_p99 == ns_p50` this way). Unsupported labels are omitted
/// from both the console line and the results document rather than
/// emitted with misleading values.
fn percentile_supported(len: usize, p: f64) -> bool {
    if len < 2 {
        return false;
    }
    let rank = |q: f64| ((len - 1) as f64 * q).round() as usize;
    p <= 0.5 || rank(p) > rank(0.5)
}

fn events_per_sec(m: &Measured) -> f64 {
    m.events_per_iter as f64 * 1e9 / m.ns[0].max(1) as f64
}

/// The results document: one section of timings and allocation rate.
fn results_json(iters: u64, m: &Measured, allocs: Option<f64>) -> Json {
    let mut j = Json::obj()
        .field("schema", RESULTS_SCHEMA)
        .field("bench", BENCH_NAME)
        .field("iters", iters)
        .field("events_per_iter", m.events_per_iter)
        .field("ns_best", m.ns[0]);
    if percentile_supported(m.ns.len(), 0.50) {
        j = j.field("ns_p50", percentile(&m.ns, 0.50));
    }
    if percentile_supported(m.ns.len(), 0.99) {
        j = j.field("ns_p99", percentile(&m.ns, 0.99));
    }
    j.field("events_per_sec", events_per_sec(m))
        .field("allocs_per_event", allocs.map_or(Json::Null, Json::F64))
}

/// The nearest ancestor directory holding `.git` (the repo root); falls
/// back to the CWD so runs outside a checkout still land somewhere.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut at = cwd.as_path();
    loop {
        if at.join(".git").is_dir() {
            return at.to_path_buf();
        }
        match at.parent() {
            Some(p) => at = p,
            None => return cwd,
        }
    }
}

fn f64_of(j: &Json) -> Option<f64> {
    match j {
        Json::F64(v) => Some(*v),
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// Gate verdict of a results document against a baseline document of the
/// same schema. `Ok(lines)` passes, `Err(message)` is a regression or an
/// unusable baseline.
pub fn gate_verdict(current: &Json, baseline: &Json) -> Result<Vec<String>, String> {
    let schema = baseline.get("schema").and_then(Json::as_u64);
    if schema != Some(RESULTS_SCHEMA) {
        return Err(format!(
            "baseline schema {schema:?} is not {RESULTS_SCHEMA}; re-record it with `h2 bench --baseline`"
        ));
    }
    let eps = |doc: &Json| doc.get("events_per_sec").and_then(f64_of);
    let cur = eps(current).ok_or("current results carry no events_per_sec")?;
    let base = eps(baseline).ok_or("baseline carries no events_per_sec")?;
    let ratio = cur / base.max(1e-9);
    let line = format!(
        "{:.2} Mev/s vs baseline {:.2} Mev/s ({:+.1}%)",
        cur / 1e6,
        base / 1e6,
        (ratio - 1.0) * 100.0
    );
    if ratio < 1.0 - GATE_TOLERANCE {
        return Err(format!(
            "hot-path regression: {line}, worse than the {:.0}% tolerance",
            GATE_TOLERANCE * 100.0
        ));
    }
    if let Some(a) = current.get("allocs_per_event").and_then(f64_of) {
        if a > ALLOC_GATE {
            return Err(format!(
                "hot-path regression: the event loop allocates {a:.4}/event (budget {ALLOC_GATE})"
            ));
        }
    }
    Ok(vec![line])
}

/// Exclusive-time share of every node labelled `label` in a profile tree,
/// as a fraction of the profiled total. Summed across occurrences (the
/// event loop enters `hmc.access` from several dispatch scopes) so the
/// share is position-independent.
pub fn profile_share(report: &prof::ProfReport, label: &str) -> f64 {
    fn walk(n: &prof::ProfNode, label: &str, acc: &mut u64) {
        if n.name == label {
            *acc += n.excl_ns;
        }
        for c in &n.children {
            walk(c, label, acc);
        }
    }
    let mut acc = 0u64;
    for r in &report.roots {
        walk(r, label, &mut acc);
    }
    acc as f64 / report.total_ns().max(1) as f64
}

/// Compare the live profile share against the committed snapshot.
/// `Ok(None)` when the snapshot does not cover this bench (the gate
/// skips, like a missing bench baseline); `Ok(Some(line))` on a pass;
/// `Err(message)` when the share grew beyond the tolerance.
pub fn share_verdict(share: f64, snapshot: &Json) -> Result<Option<String>, String> {
    if snapshot.get("bench").and_then(Json::as_str) != Some(BENCH_NAME) {
        return Ok(None);
    }
    let Some(base) = snapshot.get("share").and_then(f64_of) else {
        return Ok(None);
    };
    let label = snapshot
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or(PROFILE_GATE_LABEL)
        .to_string();
    let rel = share / base.max(1e-12) - 1.0;
    let line = format!(
        "{label} self-time {:.2}% vs snapshot {:.2}% ({rel:+.1}% rel)",
        share * 100.0,
        base * 100.0,
        rel = rel * 100.0
    );
    if share > base * (1.0 + PROFILE_SHARE_TOLERANCE) {
        return Err(format!(
            "profile regression: {line}, beyond the {:.0}% relative tolerance",
            PROFILE_SHARE_TOLERANCE * 100.0
        ));
    }
    Ok(Some(line))
}

/// The committed profile-share snapshot document.
fn snapshot_json(share: f64) -> Json {
    Json::obj()
        .field("schema", 2u64)
        .field("kind", "h2-profile-snapshot")
        .field("bench", BENCH_NAME)
        .field("label", PROFILE_GATE_LABEL)
        .field("share", Json::F64(share))
}

/// Write `doc` to `path`, creating its directory; the error is a complete
/// message for stderr.
fn write_json(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Run `h2 bench` end to end; returns the process exit code.
pub fn cmd_bench(args: &[String]) -> i32 {
    let parsed = match BenchArgs::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    match bench(&parsed) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("[h2 bench] {e}");
            2
        }
    }
}

fn bench(parsed: &BenchArgs) -> Result<i32, String> {
    let root = repo_root();
    eprintln!(
        "[h2 bench] timing the traced full-system run ({} iters, telemetry on, trace 1/64)...",
        parsed.iters
    );
    let m = measure(parsed.iters);
    let allocs = allocs_per_event();
    let mut line = format!("{BENCH_NAME}  best {} ns/iter", m.ns[0]);
    if percentile_supported(m.ns.len(), 0.50) {
        line.push_str(&format!("  p50 {} ns", percentile(&m.ns, 0.50)));
    }
    if percentile_supported(m.ns.len(), 0.99) {
        line.push_str(&format!("  p99 {} ns", percentile(&m.ns, 0.99)));
    } else {
        line.push_str(&format!("  (p99 needs more than {} iters)", m.ns.len()));
    }
    println!("{line}  ({:.2} Mev/s)", events_per_sec(&m) / 1e6);
    match allocs {
        Some(a) => println!("  steady-state allocations: {a:.4} per event"),
        None => println!("  steady-state allocations: not measured (build with --features alloc-count)"),
    }

    let mut profile_gate_failed = false;
    if parsed.profile {
        // One extra run with the profiler armed, after the timed
        // iterations — armed probes cost real time, so they never touch
        // the recorded numbers.
        prof::set_alloc_probe(alloc_count::allocs);
        prof::reset();
        prof::arm();
        let _ = run_sim(&bench_cfg(100_000), &Mix::by_name("C1").unwrap(), PolicyKind::HydrogenFull);
        prof::disarm();
        let report = prof::take_report();
        println!("\nhost-time profile (one armed run, not the timed iterations):");
        print!("{}", report.render_text());
        println!();
        if let Some(dir) = &parsed.profile_out {
            let path = root.join(dir).join("profile.json");
            write_json(&path, &report.to_json())?;
            println!("profile: {}", path.display());
        }
        let share = profile_share(&report, PROFILE_GATE_LABEL);
        let snap_path = root.join(PROFILE_SNAPSHOT_FILE);
        if parsed.profile_snapshot {
            write_json(&snap_path, &snapshot_json(share))?;
            println!("profile snapshot: {}", snap_path.display());
        } else if let Some(snap) = std::fs::read_to_string(&snap_path)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
        {
            match share_verdict(share, &snap) {
                Ok(Some(ok_line)) => println!("profile gate OK: {ok_line}"),
                Ok(None) => {}
                Err(msg) => {
                    eprintln!("[h2 bench] {msg}");
                    profile_gate_failed = true;
                }
            }
        }
    }

    let doc = results_json(parsed.iters, &m, allocs);
    let out = root.join(RESULTS_FILE);
    write_json(&out, &doc)?;
    println!("results: {}", out.display());

    let baseline_path = root.join(BASELINE_FILE);
    if parsed.baseline {
        write_json(&baseline_path, &doc)?;
        println!("baseline: {}", baseline_path.display());
        return Ok(0);
    }
    if parsed.gate {
        let Ok(text) = std::fs::read_to_string(&baseline_path) else {
            eprintln!(
                "[h2 bench] no baseline at {} — gate skipped (run `h2 bench --baseline` to record one)",
                baseline_path.display()
            );
            return Ok(0);
        };
        let base = Json::parse(&text)
            .map_err(|e| format!("unreadable baseline {}: {e}", baseline_path.display()))?;
        return match gate_verdict(&doc, &base) {
            Ok(lines) => {
                for line in lines {
                    println!("gate OK: {line}");
                }
                Ok(i32::from(profile_gate_failed))
            }
            Err(msg) => {
                eprintln!("[h2 bench] {msg}");
                Ok(1)
            }
        };
    }
    Ok(i32::from(profile_gate_failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn doc(eps: f64, allocs: Option<f64>) -> Json {
        Json::obj()
            .field("schema", RESULTS_SCHEMA)
            .field("events_per_sec", eps)
            .field("allocs_per_event", allocs.map_or(Json::Null, Json::F64))
    }

    #[test]
    fn defaults_and_flags() {
        assert_eq!(parse(&[]).unwrap(), BenchArgs::default());
        let a = parse(&["--gate", "--iters", "40"]).unwrap();
        assert!(a.gate);
        assert_eq!(a.iters, 40);
        let a = parse(&["--profile-out", "profiles"]).unwrap();
        assert_eq!(a.profile_out.as_deref(), Some("profiles"));
        assert!(a.profile, "--profile-out implies --profile");
        let a = parse(&["--profile-snapshot"]).unwrap();
        assert!(a.profile_snapshot && a.profile);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert_eq!(
            parse(&["--iters", "0"]).unwrap_err(),
            "--iters must be > 0 (zero samples measure nothing)"
        );
        assert_eq!(
            parse(&["--iters", "lots"]).unwrap_err(),
            "--iters needs an unsigned integer, got 'lots'"
        );
        assert_eq!(parse(&["--iters"]).unwrap_err(), "--iters needs an argument");
        assert!(parse(&["--fast"]).unwrap_err().starts_with("unknown argument '--fast'"));
        assert!(parse(&["--kernel", "batched"])
            .unwrap_err()
            .starts_with("unknown argument '--kernel'"));
        assert_eq!(
            parse(&["--gate", "--baseline"]).unwrap_err(),
            "--gate and --baseline are mutually exclusive (a gate compares, a baseline overwrites)"
        );
        assert!(parse(&["--gate", "--profile-snapshot"])
            .unwrap_err()
            .contains("mutually exclusive"));
        assert_eq!(
            parse(&["--profile-out"]).unwrap_err(),
            "--profile-out needs a directory argument"
        );
    }

    #[test]
    fn gate_holds_throughput_within_tolerance() {
        let base = doc(100e6, None);
        assert!(gate_verdict(&doc(95e6, None), &base).is_ok());
        assert!(gate_verdict(&doc(120e6, None), &base).is_ok());
        let msg = gate_verdict(&doc(85e6, None), &base).unwrap_err();
        assert!(msg.contains("regression"), "{msg}");
    }

    #[test]
    fn gate_enforces_zero_allocation() {
        let base = doc(100e6, None);
        assert!(gate_verdict(&doc(100e6, Some(0.017)), &base).is_ok());
        let msg = gate_verdict(&doc(100e6, Some(0.5)), &base).unwrap_err();
        assert!(msg.contains("allocates"), "{msg}");
    }

    #[test]
    fn gate_rejects_other_baseline_schemas() {
        // A per-kernel (schema 2) baseline is not read as a pass or a fail.
        let old = Json::obj().field("schema", 2u64).field("events_per_sec", 100e6);
        let msg = gate_verdict(&doc(100e6, None), &old).unwrap_err();
        assert!(msg.contains("--baseline"), "{msg}");
    }

    /// The committed baseline is a schema-3 document the gate can read.
    #[test]
    fn committed_baseline_is_readable() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(BASELINE_FILE);
        let base = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let eps = base.get("events_per_sec").and_then(f64_of).unwrap();
        assert!(gate_verdict(&doc(eps, None), &base).is_ok());
    }

    #[test]
    fn percentiles_pick_sorted_ranks() {
        let ns = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&ns, 0.0), 10);
        assert_eq!(percentile(&ns, 0.5), 60);
        assert_eq!(percentile(&ns, 0.99), 100);
        assert_eq!(percentile(&ns, 1.0), 100);
    }

    #[test]
    fn percentile_labels_follow_iteration_support() {
        // One sample supports no percentile label at all.
        assert!(!percentile_supported(1, 0.50));
        assert!(!percentile_supported(1, 0.99));
        // Two samples give a median, but their p99 rank *is* the median
        // rank — the `iters: 2` artifact that reported ns_p99 == ns_p50.
        assert!(percentile_supported(2, 0.50));
        assert!(!percentile_supported(2, 0.99));
        // From three samples up, the p99 rank separates from the median.
        assert!(percentile_supported(3, 0.99));
        assert!(percentile_supported(5, 0.99));
        assert!(percentile_supported(20, 0.99));
    }

    #[test]
    fn results_json_shape() {
        let m = Measured { ns: vec![100, 200, 300], events_per_iter: 1000 };
        let s = results_json(3, &m, Some(0.25)).to_string_compact();
        assert!(s.contains(r#""schema":3"#), "{s}");
        assert!(s.contains(r#""ns_best":100"#), "{s}");
        assert!(s.contains(r#""allocs_per_event":0.25"#), "{s}");
        let j = results_json(3, &m, None);
        assert_eq!(j.get("events_per_sec").and_then(f64_of), Some(1000.0 * 1e9 / 100.0));
        assert!(j.to_string_compact().contains(r#""allocs_per_event":null"#));
    }

    #[test]
    fn results_json_refuses_unsupported_percentile_labels() {
        let two = Measured { ns: vec![100, 200], events_per_iter: 1000 };
        let s = results_json(2, &two, None).to_string_compact();
        assert!(s.contains(r#""ns_p50":"#), "{s}");
        assert!(!s.contains("ns_p99"), "2 iters cannot support a p99 label: {s}");
        let one = Measured { ns: vec![100], events_per_iter: 1000 };
        let s = results_json(1, &one, None).to_string_compact();
        assert!(!s.contains("ns_p50") && !s.contains("ns_p99"), "{s}");
        assert!(s.contains(r#""ns_best":100"#), "{s}");
    }

    fn leaf(name: &str, excl: u64) -> prof::ProfNode {
        prof::ProfNode {
            name: name.into(),
            count: 1,
            incl_ns: excl,
            excl_ns: excl,
            allocs: 0,
            children: Vec::new(),
        }
    }

    #[test]
    fn profile_share_sums_label_occurrences_across_the_tree() {
        let root = prof::ProfNode {
            name: "run.loop".into(),
            count: 1,
            incl_ns: 1000,
            excl_ns: 100,
            allocs: 0,
            children: vec![
                leaf("hmc.access", 300),
                prof::ProfNode {
                    name: "dispatch.mem_done".into(),
                    count: 1,
                    incl_ns: 600,
                    excl_ns: 500,
                    allocs: 0,
                    children: vec![leaf("hmc.access", 100)],
                },
            ],
        };
        let report = prof::ProfReport { threads: 1, roots: vec![root], counters: Vec::new() };
        let share = profile_share(&report, "hmc.access");
        assert!((share - 0.4).abs() < 1e-12, "{share}");
        assert_eq!(profile_share(&report, "absent.phase"), 0.0);
    }

    #[test]
    fn share_verdict_gates_relative_growth() {
        let snap = snapshot_json(0.08);
        // Within tolerance (and shrinking) passes with a report line.
        assert!(share_verdict(0.06, &snap).unwrap().is_some());
        assert!(share_verdict(0.085, &snap).unwrap().is_some());
        // >10% relative growth fails.
        let msg = share_verdict(0.09, &snap).unwrap_err();
        assert!(msg.contains("profile regression"), "{msg}");
        // A snapshot for a different bench, or without a share: skip.
        let other = Json::obj()
            .field("bench", "other_bench")
            .field("share", 0.08);
        assert!(share_verdict(0.5, &other).unwrap().is_none());
        let bare = Json::obj().field("bench", BENCH_NAME);
        assert!(share_verdict(0.5, &bare).unwrap().is_none());
    }

    /// The committed snapshot is one the profile gate reads.
    #[test]
    fn committed_snapshot_is_readable() {
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(PROFILE_SNAPSHOT_FILE);
        let snap = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let share = snap.get("share").and_then(f64_of).unwrap();
        assert!(share_verdict(share, &snap).unwrap().is_some());
    }
}
