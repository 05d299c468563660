//! `h2 sweep` — the experiment campaign engine.
//!
//! Takes a first-class JSON sweep spec ([`spec::SweepSpec`]): parameter
//! grids, seeded random search, or a hill-climb over a named report
//! metric. Expands it into jobs, deduplicates them by their u128 cache
//! keys, runs the misses across a worker pool ([`scheduler`]) backed by
//! the sharded crash-safe run store ([`store::ShardedStore`]), streams
//! JSONL progress as jobs finish, and ends with a summary table (stdout +
//! `results/sweeps/<name>.csv`).
//!
//! The summary table contains only deterministic fields (parameters, mix,
//! policy, key, metrics) in expansion order, so a warm re-run — any worker
//! count, any completion order, any cache state — renders
//! byte-identically.
//! Wall-clock and hit/miss provenance live only in the JSONL progress
//! stream and the *timing* table (`sweep_<name>_timing.csv`, completion
//! order), both of which are allowed to differ between runs.

pub mod scheduler;
pub mod spec;
pub mod store;

use crate::cache::Job;
use crate::persist::{DiskTier, LoadMode};
use crate::table::Table;
use h2_system::RunReport;
use scheduler::{PoolStats, Source};
use spec::{Search, SweepPoint, SweepSpec};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Everything one sweep run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The summary table (deterministic; see module docs).
    pub table: Table,
    /// Per-job wall-clock and cache provenance, in completion order
    /// (non-deterministic by design; never compare bytes across runs).
    pub timing: Table,
    /// Points visited, in expansion order.
    pub points: usize,
    /// Total jobs implied by the spec (points × mixes × policies).
    pub jobs: usize,
    /// Distinct job keys among them.
    pub unique: usize,
    /// Duplicate jobs collapsed before dispatch.
    pub deduped: usize,
    /// Worker-pool counters summed over all batches.
    pub stats: PoolStats,
}

impl SweepOutcome {
    /// The one-line stderr summary (`grep`-able: "0 executed" on a fully
    /// warm re-run).
    pub fn summary_line(&self) -> String {
        format!(
            "{} points, {} jobs ({} unique, {} deduped): {} executed, {} disk hits",
            self.points,
            self.jobs,
            self.unique,
            self.deduped,
            self.stats.executed,
            self.stats.disk_hits
        )
    }
}

/// Shared state threaded through expansion: accumulated reports by key,
/// each evaluated point's job keys, pool counters, and the JSONL progress
/// sink.
struct Engine<'a> {
    spec: &'a SweepSpec,
    tier: Option<&'a DiskTier>,
    workers: usize,
    metric: String,
    results: HashMap<u128, RunReport>,
    /// The job keys of every point evaluated so far, in evaluation order,
    /// which is the order `SweepSpec::expand` returns the points in.
    point_keys: Vec<Vec<u128>>,
    stats: PoolStats,
    jobs: usize,
    deduped: usize,
    progress: &'a mut dyn Write,
    /// Rows for the timing table, appended in completion order.
    timing_rows: Vec<Vec<String>>,
    /// Worker-side wall seconds summed over executed jobs.
    exec_wall_s: f64,
}

impl Engine<'_> {
    /// JSONL progress events are best-effort: a full disk must not kill a
    /// half-finished campaign whose results are safely in the store.
    fn emit(&mut self, line: &str) {
        let _ = writeln!(self.progress, "{line}");
    }

    fn emit_done(
        &mut self,
        source: Source,
        wall_s: f64,
        report: &RunReport,
        key: u128,
        point: &SweepPoint,
    ) {
        let source = match source {
            Source::Executed => "executed",
            Source::DiskHit => "disk",
        };
        let mut params = h2_sim_core::Json::obj();
        for (n, v) in &point.params {
            params = params.field(n, *v);
        }
        let event = h2_sim_core::Json::obj()
            .field("event", "job")
            .field("key", format!("{key:032x}").as_str())
            .field("mix", report.mix.as_str())
            .field("policy", report.policy.as_str())
            .field("params", params)
            .field("source", source)
            .field("weighted_ipc", report.weighted_ipc())
            .field("wall_s", wall_s)
            .field("events", report.events_processed)
            .field("events_per_sec", report.events_per_sec);
        self.emit(&event.to_string_compact());
        self.exec_wall_s += wall_s;
        self.timing_rows.push(vec![
            format!("{key:032x}"),
            report.mix.clone(),
            report.policy.clone(),
            source.to_string(),
            format!("{:.6}", wall_s),
            report.events_processed.to_string(),
            format!("{:.0}", report.events_per_sec),
        ]);
    }

    /// Run every job of `points` that is not already in `results` as one
    /// pool batch, record each point's keys, and return the
    /// per-point mean of the target metric (the hill-climb objective;
    /// ignored for grid/random).
    fn run_points(&mut self, points: &[SweepPoint]) -> Result<Vec<f64>, String> {
        // Per-point job lists, then one deduplicated dispatch batch.
        let first = self.point_keys.len();
        let mut batch: Vec<(u128, Job)> = Vec::new();
        let mut batch_point: Vec<usize> = Vec::new(); // batch idx → point idx
        let mut pending: std::collections::HashSet<u128> = std::collections::HashSet::new();
        for (pi, point) in points.iter().enumerate() {
            let jobs = self.spec.jobs_for_point(point)?;
            let mut keys = Vec::with_capacity(jobs.len());
            for job in jobs {
                let key = job.key();
                keys.push(key);
                self.jobs += 1;
                if self.results.contains_key(&key) || !pending.insert(key) {
                    self.deduped += 1;
                } else {
                    batch.push((key, job));
                    batch_point.push(pi);
                }
            }
            self.point_keys.push(keys);
        }

        let mut dones: Vec<(usize, Source, f64)> = Vec::with_capacity(batch.len());
        // A sweep reads only a report's scalars and tenants, so its store
        // hits read the core of each entry.
        let (tier, workers) = (self.tier, self.workers);
        let (reports, stats) = scheduler::run_batch(&batch, tier, workers, LoadMode::Core, |done| {
            // Emitting from inside the callback would need &mut self while
            // `batch` is borrowed; stash completion order and stream the
            // events from the returned reports once the pool drains.
            dones.push((done.idx, done.source, done.wall_s));
        });
        for (idx, source, wall_s) in dones {
            let key = batch[idx].0;
            let point = &points[batch_point[idx]];
            self.emit_done(source, wall_s, &reports[idx], key, point);
        }
        self.stats.executed += stats.executed;
        self.stats.disk_hits += stats.disk_hits;
        for ((key, _), report) in batch.iter().zip(reports) {
            self.results.insert(*key, report);
        }

        // Per-point objective: mean of the metric over its mix×policy jobs.
        self.point_keys[first..]
            .iter()
            .map(|keys| {
                let mut sum = 0.0;
                for key in keys {
                    let r = &self.results[key];
                    sum += r
                        .metric(&self.metric)
                        .ok_or_else(|| format!("unknown metric '{}'", self.metric))?;
                }
                Ok(sum / keys.len().max(1) as f64)
            })
            .collect()
    }
}

/// Run a sweep: expand, execute, stream progress, summarise.
///
/// `tier` is the persistent store (None = execute everything in memory);
/// `workers` caps the pool; `progress` receives one JSON object per line
/// (a `spec` header, a `job` event per unique job, a `summary` trailer).
pub fn run_sweep(
    spec: &SweepSpec,
    tier: Option<&DiskTier>,
    workers: usize,
    progress: &mut dyn Write,
) -> Result<SweepOutcome, String> {
    spec.validate()?;
    let metric = match &spec.search {
        Search::HillClimb { metric, .. } => metric.clone(),
        _ => "weighted_ipc".to_string(),
    };
    let mut engine = Engine {
        spec,
        tier,
        workers,
        metric: metric.clone(),
        results: HashMap::new(),
        point_keys: Vec::new(),
        stats: PoolStats::default(),
        jobs: 0,
        deduped: 0,
        progress,
        timing_rows: Vec::new(),
        exec_wall_s: 0.0,
    };
    let t0 = std::time::Instant::now();
    let header = h2_sim_core::Json::obj()
        .field("event", "spec")
        .field("name", spec.name.as_str())
        .field("kind", spec.kind())
        .field("mixes", spec.mixes.len() as u64)
        .field("policies", spec.policies.len() as u64);
    engine.emit(&header.to_string_compact());

    // Hill-climb drives execution through the evaluator; grid/random
    // expand statically and then run as one big pool batch.
    let points = if matches!(spec.search, Search::HillClimb { .. }) {
        spec.expand(&mut |ps| engine.run_points(ps))?
    } else {
        let points = spec.expand(&mut |_| Err("static searches never evaluate".into()))?;
        engine.run_points(&points)?;
        points
    };

    // Deterministic summary table, in expansion order, from the keys the
    // evaluation computed.
    assert_eq!(engine.point_keys.len(), points.len(), "expand returns the points it evaluated");
    let axes: Vec<&str> = spec.search.params().iter().map(|a| a.name.as_str()).collect();
    let mut header: Vec<&str> = axes.clone();
    header.extend(["mix", "policy", "key", "weighted_ipc"]);
    if metric != "weighted_ipc" {
        header.push(metric.as_str());
    }
    let mut table = Table::new(
        &format!("sweep_{}", spec.name),
        &format!("Sweep '{}' ({})", spec.name, spec.kind()),
        &header,
    );
    let mut unique: std::collections::HashSet<u128> = std::collections::HashSet::new();
    for (point, keys) in points.iter().zip(&engine.point_keys) {
        for &key in keys {
            unique.insert(key);
            let r = &engine.results[&key];
            let mut row: Vec<String> =
                point.params.iter().map(|(_, v)| v.to_string()).collect();
            row.push(r.mix.clone());
            row.push(r.policy.clone());
            row.push(format!("{key:032x}"));
            row.push(r.weighted_ipc().to_string());
            if metric != "weighted_ipc" {
                row.push(
                    r.metric(&metric)
                        .ok_or_else(|| format!("unknown metric '{metric}'"))?
                        .to_string(),
                );
            }
            table.row(row);
        }
    }

    // Per-job provenance table: completion order, never deterministic.
    let mut timing = Table::new(
        &format!("sweep_{}_timing", spec.name),
        &format!("Sweep '{}' per-job timing and provenance", spec.name),
        &["key", "mix", "policy", "source", "wall_s", "events", "events_per_sec"],
    );
    for row in std::mem::take(&mut engine.timing_rows) {
        timing.row(row);
    }

    let outcome = SweepOutcome {
        table,
        timing,
        points: points.len(),
        jobs: engine.jobs,
        unique: unique.len(),
        deduped: engine.deduped,
        stats: engine.stats,
    };
    let trailer = h2_sim_core::Json::obj()
        .field("event", "summary")
        .field("points", outcome.points as u64)
        .field("jobs", outcome.jobs as u64)
        .field("unique", outcome.unique as u64)
        .field("deduped", outcome.deduped as u64)
        .field("executed", outcome.stats.executed as u64)
        .field("disk_hits", outcome.stats.disk_hits as u64)
        .field("wall_s", t0.elapsed().as_secs_f64())
        .field("exec_wall_s", engine.exec_wall_s);
    engine.emit(&trailer.to_string_compact());
    Ok(outcome)
}

/// Parse a byte budget: plain bytes or a `K`/`M`/`G` suffix (powers of
/// 1024).
pub fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map_err(|_| format!("bad byte count '{s}' (use N, NK, NM or NG)"))
        .map(|n| n.saturating_mul(mult))
}

/// `h2 sweep <spec.json> [--out FILE]` — run a sweep campaign.
///
/// Progress streams as JSONL to `--out` (default
/// `results/sweeps/<name>.jsonl`); the summary table prints to stdout and
/// lands in `results/sweeps/sweep_<name>.csv`, with per-job wall-clock and
/// cache provenance beside it in `results/sweeps/sweep_<name>_timing.csv`.
pub fn cmd_sweep(args: &[String], jobs: Option<usize>) -> i32 {
    let mut args: Vec<String> = args.to_vec();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| {
            if i + 1 >= args.len() {
                eprintln!("--out needs a file argument");
                std::process::exit(2);
            }
            let v = args.remove(i + 1);
            args.remove(i);
            PathBuf::from(v)
        });
    let [spec_path] = args.as_slice() else {
        eprintln!("usage: h2 sweep <spec.json> [--out FILE] [--jobs N]");
        return 2;
    };
    let text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {spec_path}: {e}");
            return 2;
        }
    };
    let spec = match SweepSpec::parse(&text).and_then(|s| s.validate().map(|()| s)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return 2;
        }
    };

    let tier = crate::cache::resolve_cache_dir().and_then(|dir| match DiskTier::open(&dir) {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("[h2 sweep] run cache disabled ({}: {e})", dir.display());
            None
        }
    });
    let workers = jobs.unwrap_or_else(scheduler::default_workers);

    let sweeps_dir = Path::new("results/sweeps");
    let out = out.unwrap_or_else(|| sweeps_dir.join(format!("{}.jsonl", spec.name)));
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let mut progress: Box<dyn Write> = match std::fs::File::create(&out) {
        Ok(f) => Box::new(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!("cannot create {}: {e}", out.display());
            return 2;
        }
    };

    let t0 = std::time::Instant::now();
    let outcome = match run_sweep(&spec, tier.as_ref(), workers, &mut progress) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep '{}' failed: {e}", spec.name);
            return 1;
        }
    };
    if let Err(e) = progress.flush() {
        eprintln!("[h2 sweep] progress flush failed: {e}");
    }
    println!("{}", outcome.table.render());
    match outcome.table.write_csv(sweeps_dir) {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    match outcome.timing.write_csv(sweeps_dir) {
        Ok(p) => println!("timing: {}", p.display()),
        Err(e) => eprintln!("timing csv write failed: {e}"),
    }
    println!("progress: {}", out.display());
    eprintln!(
        "[h2 sweep] {} in {:.1}s ({} workers)",
        outcome.summary_line(),
        t0.elapsed().as_secs_f64(),
        workers
    );
    0
}

/// `h2 cache stats|gc` — inspect and size-bound the persistent run store.
pub fn cmd_cache(args: &[String]) -> i32 {
    let mut args: Vec<String> = args.to_vec();
    let take = |args: &mut Vec<String>, flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        if i + 1 >= args.len() {
            eprintln!("{flag} needs an argument");
            std::process::exit(2);
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Some(v)
    };
    let dir = take(&mut args, "--dir").map(PathBuf::from).or_else(|| {
        crate::cache::resolve_cache_dir()
    });
    let Some(dir) = dir else {
        eprintln!("run cache is disabled (H2_RUNCACHE=off); pass --dir to target one");
        return 2;
    };
    let max_bytes = take(&mut args, "--max-bytes");
    let usage = || {
        eprintln!("usage: h2 cache stats [--dir D] | h2 cache gc --max-bytes N[K|M|G] [--dir D]");
        2
    };
    match args.first().map(|s| s.as_str()) {
        Some("stats") if args.len() == 1 => {
            let store = match store::ShardedStore::open(&dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open {}: {e}", dir.display());
                    return 1;
                }
            };
            let s = store.stats();
            println!("dir:         {}", dir.display());
            println!("entries:     {}", s.entries);
            println!("bytes:       {}", s.bytes);
            println!("quarantined: {}", s.quarantined);
            println!("tmp files:   {}", s.tmp_files);
            0
        }
        Some("gc") if args.len() == 1 => {
            let Some(max_bytes) = max_bytes else {
                eprintln!("h2 cache gc needs --max-bytes N[K|M|G]");
                return 2;
            };
            let budget = match parse_bytes(&max_bytes) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            };
            let store = match store::ShardedStore::open(&dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open {}: {e}", dir.display());
                    return 1;
                }
            };
            match store.gc(budget, store::STALE_TMP) {
                Ok(r) => {
                    println!(
                        "evicted {} of {} entries ({} -> {} bytes); removed {} quarantined, {} stale tmp",
                        r.evicted, r.examined, r.bytes_before, r.bytes_after,
                        r.bad_removed, r.tmp_removed
                    );
                    0
                }
                Err(e) => {
                    eprintln!("gc failed: {e}");
                    1
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_spec(name: &str) -> SweepSpec {
        SweepSpec::parse(&format!(
            r#"{{
              "name": "{name}",
              "scale": "tiny",
              "mixes": ["C1"],
              "policies": ["NoPart", "WayPart"],
              "search": {{"kind": "grid", "params": {{"seed": [1, 2, 3]}}}}
            }}"#,
        ))
        .unwrap()
    }

    #[test]
    fn grid_sweep_runs_and_summarises() {
        let spec = grid_spec("unit");
        let mut jsonl = Vec::new();
        let out = run_sweep(&spec, None, 2, &mut jsonl).unwrap();
        assert_eq!(out.points, 3);
        assert_eq!(out.jobs, 6);
        assert_eq!(out.unique, 6);
        assert_eq!(out.stats.executed, 6);
        assert_eq!(out.table.rows.len(), 6);
        let text = String::from_utf8(jsonl).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8, "spec + 6 jobs + summary");
        assert!(lines[0].contains("\"event\":\"spec\""));
        assert!(lines.last().unwrap().contains("\"executed\":6"));
        for line in &lines {
            h2_sim_core::Json::parse(line).expect("every progress line is valid JSON");
        }
    }

    #[test]
    fn timing_table_carries_wall_clock_and_provenance() {
        let spec = grid_spec("timing");
        let mut jsonl = Vec::new();
        let out = run_sweep(&spec, None, 2, &mut jsonl).unwrap();
        assert_eq!(out.timing.rows.len(), 6, "one timing row per unique job");
        assert_eq!(
            out.timing.header,
            ["key", "mix", "policy", "source", "wall_s", "events", "events_per_sec"]
        );
        for row in &out.timing.rows {
            assert_eq!(row[3], "executed", "no cache tier in this run");
            assert!(row[4].parse::<f64>().unwrap() >= 0.0);
            assert!(row[5].parse::<u64>().unwrap() > 0, "events: {row:?}");
        }
        // Job events and the trailer carry the same provenance fields.
        let text = String::from_utf8(jsonl).unwrap();
        let job = text.lines().nth(1).unwrap();
        assert!(job.contains("\"events\":"), "job event: {job}");
        assert!(job.contains("\"events_per_sec\":"), "job event: {job}");
        let trailer = text.lines().last().unwrap();
        assert!(trailer.contains("\"wall_s\":"), "trailer: {trailer}");
        assert!(trailer.contains("\"exec_wall_s\":"), "trailer: {trailer}");
    }

    #[test]
    fn warm_rerun_is_fully_cached_and_byte_identical() {
        let dir = std::env::temp_dir().join(format!("h2-sweep-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = DiskTier::open(&dir).unwrap();
        let spec = grid_spec("warm");
        let cold = run_sweep(&spec, Some(&tier), 2, &mut Vec::new()).unwrap();
        assert_eq!(cold.stats.executed, 6);
        for workers in [1, 3] {
            let warm = run_sweep(&spec, Some(&tier), workers, &mut Vec::new()).unwrap();
            assert_eq!(warm.stats.executed, 0, "workers={workers}");
            assert_eq!(warm.stats.disk_hits, 6);
            assert!(
                warm.timing.rows.iter().all(|r| r[3] == "disk"),
                "warm timing rows carry disk provenance"
            );
            assert_eq!(warm.table.render(), cold.table.render(), "byte-identical summary");
            assert_eq!(warm.table.to_csv(), cold.table.to_csv());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hillclimb_sweep_executes_through_the_evaluator() {
        let mut spec = grid_spec("climb");
        spec.search = spec::Search::HillClimb {
            metric: "measured_cycles".into(),
            goal: spec::Goal::Max,
            seed: 3,
            max_steps: 4,
            params: vec![spec::Axis { name: "seed".into(), values: vec![1, 2, 3, 4] }],
        };
        let mut jsonl = Vec::new();
        let out = run_sweep(&spec, None, 2, &mut jsonl).unwrap();
        assert!(out.points >= 2, "start plus at least one neighbour batch");
        assert_eq!(out.stats.executed, out.unique);
        // measured_cycles is a fixed window: every point scores the same,
        // so the climb stops after its first neighbour batch.
        let text = String::from_utf8(jsonl).unwrap();
        assert!(text.lines().last().unwrap().contains("\"event\":\"summary\""));
        // The metric column is present alongside weighted_ipc.
        assert!(out.table.header.iter().any(|h| h == "measured_cycles"));
    }

    #[test]
    fn scenario_sweep_runs_each_scenario() {
        let dir = std::env::temp_dir().join(format!("h2-sweep-scenario-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = DiskTier::open(&dir).unwrap();
        let mut spec = spec::tests::scenario_spec();
        spec.search = Search::Grid {
            params: vec![spec::Axis { name: spec::SCENARIO_SEED_PARAM.into(), values: vec![1, 2] }],
        };
        let name = spec.scenario.as_ref().unwrap().name.clone();
        let out = run_sweep(&spec, Some(&tier), 2, &mut Vec::new()).unwrap();
        // Rows: seed, mix, policy, key, weighted_ipc; two policies a point.
        assert_eq!(out.table.rows.len(), 4);
        assert!(out.table.rows.iter().all(|r| r[1] == name), "{:?}", out.table.rows);
        assert_ne!(out.table.rows[0][4], out.table.rows[2][4], "the seed moves the result");
        for point in spec.expand(&mut |_| unreachable!()).unwrap() {
            for job in spec.jobs_for_point(&point).unwrap() {
                let sc = job.scenario.as_ref().unwrap();
                let stored = tier.load(job.key()).unwrap();
                let direct = h2_system::run_scenario(&job.cfg, sc, job.kind);
                assert_eq!(h2_check::diff_reports(&stored, &direct), None);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("2K").unwrap(), 2048);
        assert_eq!(parse_bytes("3m").unwrap(), 3 << 20);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert!(parse_bytes("x").is_err());
        assert!(parse_bytes("12Q").is_err());
    }
}
