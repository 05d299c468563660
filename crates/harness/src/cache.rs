//! Two-level memoisation of simulation runs.
//!
//! Several experiments need the same runs (every figure needs per-mix
//! baselines; Fig 6 reuses Fig 5's runs). Jobs are keyed by a structured
//! `u128` hash of the full configuration ([`crate::key::job_key`]); lookups
//! go memory → disk ([`crate::persist::DiskTier`]) → simulate. Batches are
//! deduplicated before dispatch and fanned out over a `std::thread` worker
//! pool when more than one CPU is available.
//!
//! The disk tier (default `results/.runcache/`) survives process restarts:
//! re-running an experiment after a crash or `^C` replays completed
//! simulations from disk and only executes the remainder. Control it with
//! `H2_RUNCACHE`: unset → default directory, a path → that directory,
//! `off`/`0` → memory-only.

use crate::key::job_key;
use crate::persist::DiskTier;
use h2_system::{run_scenario, run_sim_parts, Participants, PolicyKind, RunReport, SystemConfig};
use h2_trace::{Mix, TenantScenario};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One simulation job.
#[derive(Debug, Clone)]
pub struct Job {
    /// System configuration.
    pub cfg: SystemConfig,
    /// Workload mix (a placeholder for scenario jobs — see `scenario`).
    pub mix: Mix,
    /// Policy to run.
    pub kind: PolicyKind,
    /// Which sides run.
    pub parts: Participants,
    /// When set, the job runs this multi-tenant scenario instead of the
    /// mix; the scenario JSON is part of the cache key.
    pub scenario: Option<TenantScenario>,
}

impl Job {
    /// Convenience constructor for a Both-sides run.
    pub fn new(cfg: &SystemConfig, mix: &Mix, kind: PolicyKind) -> Self {
        Self {
            cfg: cfg.clone(),
            mix: mix.clone(),
            kind,
            parts: Participants::Both,
            scenario: None,
        }
    }

    /// A multi-tenant scenario job. The mix slot is filled with a fixed
    /// placeholder (C1) so report plumbing that expects a mix keeps
    /// working; the key distinguishes scenario jobs by their JSON.
    pub fn scenario(cfg: &SystemConfig, sc: &TenantScenario, kind: PolicyKind) -> Self {
        Self {
            cfg: cfg.clone(),
            mix: Mix::by_name("C1").expect("placeholder mix"),
            kind,
            parts: Participants::Both,
            scenario: Some(sc.clone()),
        }
    }

    /// Canonical cache key (stable across processes).
    pub fn key(&self) -> u128 {
        job_key(&self.cfg, &self.mix, self.kind, self.parts, self.scenario.as_ref())
    }
}

/// Execute one job (scenario or mix) with the given effective config.
fn execute(cfg: &SystemConfig, job: &Job) -> RunReport {
    match &job.scenario {
        Some(sc) => run_scenario(cfg, sc, job.kind),
        None => run_sim_parts(cfg, &job.mix, job.kind, job.parts),
    }
}

/// The default persistent-cache directory: `results/.runcache` under the
/// nearest ancestor that already has a `results/` dir or is a repo root —
/// so `cargo bench` targets (whose CWD is the package dir) share one cache
/// with the `h2` CLI (run from the workspace root).
pub(crate) fn default_cache_dir() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let mut at = cwd.as_path();
    loop {
        if at.join("results").is_dir() || at.join(".git").is_dir() {
            return at.join("results/.runcache");
        }
        match at.parent() {
            Some(p) => at = p,
            None => return cwd.join("results/.runcache"),
        }
    }
}

/// Resolve the persistent-cache directory the way [`RunCache::persistent`]
/// does: `H2_RUNCACHE` set to `off`/`0` disables the tier (`None`), any
/// other value overrides the directory, unset falls back to the default
/// workspace-root `results/.runcache`. The `h2 sweep` / `h2 cache`
/// subcommands use this so they always target the same store the
/// experiment harness populates.
pub fn resolve_cache_dir() -> Option<PathBuf> {
    match std::env::var("H2_RUNCACHE") {
        Ok(v) if v == "off" || v == "0" => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => Some(default_cache_dir()),
    }
}

/// Filesystem-safe dump name for a run: `<mix>_<policy>_<key>.<ext>`.
fn dump_name(report: &RunReport, key: u128, ext: &str) -> String {
    let slug = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect()
    };
    format!("{}_{}_{:032x}.{ext}", slug(&report.mix), slug(&report.policy), key)
}

/// Memoising simulation runner with an optional persistent tier.
#[derive(Default)]
pub struct RunCache {
    map: HashMap<u128, RunReport>,
    disk: Option<DiskTier>,
    /// Runs actually executed (missed both tiers).
    pub executed: usize,
    /// In-memory cache hits.
    pub hits: usize,
    /// Runs replayed from the persistent tier.
    pub disk_hits: usize,
    /// Duplicate jobs collapsed within `run_batch` calls.
    pub deduped: usize,
    /// Total simulator events across executed runs.
    pub sim_events: u64,
    /// Total wall-clock seconds spent inside executed simulations (summed
    /// across workers, so it can exceed elapsed time).
    pub sim_wall_s: f64,
    /// Print progress lines to stderr.
    pub verbose: bool,
    /// When set, every run entering the cache dumps its telemetry timeline
    /// as `<mix>_<policy>_<key>.json` into this directory.
    telemetry_dir: Option<PathBuf>,
    /// When set, every traced run entering the cache dumps its sampled
    /// spans as `<mix>_<policy>_<key>.trace.json` (Chrome Trace Event
    /// format) into this directory.
    trace_dir: Option<PathBuf>,
    /// When set, jobs execute with request tracing at this sample rate,
    /// and cached entries *without* spans count as misses (upgrade-on-miss:
    /// the run is re-executed traced and overwrites the untraced entry).
    /// Tracing never changes job keys — see `crate::key`.
    trace_sample: Option<u64>,
    /// Worker-pool size override for `run_batch`. `None` falls back to
    /// the CPU count.
    jobs: Option<usize>,
}

impl RunCache {
    /// Memory-only cache (tests, throwaway runs).
    pub fn new() -> Self {
        Self {
            verbose: std::env::var("H2_VERBOSE").is_ok(),
            ..Self::default()
        }
    }

    /// Cache backed by the persistent tier. Honours `H2_RUNCACHE`:
    /// `off`/`0` disables the disk tier, any other value overrides the
    /// directory (default `results/.runcache` at the workspace root).
    /// Falls back to memory-only if the directory cannot be created.
    pub fn persistent() -> Self {
        let mut c = Self::new();
        let Some(dir) = resolve_cache_dir() else { return c };
        match DiskTier::open(&dir) {
            Ok(t) => c.disk = Some(t),
            Err(e) => eprintln!("[h2] run cache disabled ({}: {e})", dir.display()),
        }
        c
    }

    /// Cache backed by an explicit directory (tests).
    pub fn with_disk_dir(dir: &Path) -> std::io::Result<Self> {
        let mut c = Self::new();
        c.disk = Some(DiskTier::open(dir)?);
        Ok(c)
    }

    /// Whether a persistent tier is attached.
    pub fn is_persistent(&self) -> bool {
        self.disk.is_some()
    }

    /// The sharded store behind the persistent tier, if any. The
    /// crash-consistency suite uses this to inject commit faults and read
    /// quarantine counters on the exact handle the cache writes through.
    pub fn disk_store(&self) -> Option<&crate::sweep::store::ShardedStore> {
        self.disk.as_ref().map(DiskTier::sharded)
    }

    /// Cap the `run_batch` worker pool at `n` threads (`n = 1` forces
    /// sequential execution).
    pub fn set_jobs(&mut self, n: usize) {
        self.jobs = Some(n.max(1));
    }

    /// Dump every run's telemetry timeline into `dir` (created if needed)
    /// as it enters the cache — including runs replayed from disk.
    pub fn set_telemetry_dir(&mut self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        self.telemetry_dir = Some(dir.to_path_buf());
        Ok(())
    }

    /// Dump every traced run's spans into `dir` (created if needed) as
    /// Chrome Trace Event JSON — including runs replayed from disk.
    /// `sample` is the rate applied to runs that miss the cache.
    pub fn set_trace_dir(&mut self, dir: &Path, sample: u64) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        self.trace_dir = Some(dir.to_path_buf());
        self.trace_sample = Some(sample);
        Ok(())
    }

    /// Write one run's telemetry JSON (no-op when no dir is set or the run
    /// was executed with telemetry off).
    fn dump_telemetry(&self, key: u128, report: &RunReport) {
        // Check the dir before rendering: a hit with no dump dir set must
        // not pay for JSON nobody writes.
        let Some(dir) = &self.telemetry_dir else { return };
        let Some(json) = report.telemetry_json_string() else { return };
        let path = dir.join(dump_name(report, key, "json"));
        if let Err(e) = fs::write(&path, json) {
            eprintln!("[h2] telemetry write failed ({}): {e}", path.display());
        }
    }

    /// Write one run's Perfetto trace (no-op when no dir is set or the run
    /// carries no spans).
    fn dump_trace(&self, key: u128, report: &RunReport) {
        let Some(dir) = &self.trace_dir else { return };
        let Some(json) = report.chrome_trace_json_string() else { return };
        let path = dir.join(dump_name(report, key, "trace.json"));
        if let Err(e) = fs::write(&path, json) {
            eprintln!("[h2] trace write failed ({}): {e}", path.display());
        }
    }

    fn dump_all(&self, key: u128, report: &RunReport) {
        self.dump_telemetry(key, report);
        self.dump_trace(key, report);
    }

    /// Upgrade-on-miss rule: a cached report satisfies the request unless
    /// tracing is wanted and the entry was executed without it.
    fn satisfies_trace(&self, r: &RunReport) -> bool {
        self.trace_sample.is_none() || r.trace.is_some()
    }

    /// A job's effective config: the requested one, plus the cache-level
    /// trace-sample override (which never changes the key).
    fn effective_cfg(&self, job: &Job) -> SystemConfig {
        let mut cfg = job.cfg.clone();
        if self.trace_sample.is_some() {
            cfg.trace_sample = self.trace_sample;
        }
        cfg
    }

    /// Look a key up in both tiers, promoting disk hits into memory.
    fn fetch(&mut self, key: u128) -> Option<RunReport> {
        if let Some(r) = self.map.get(&key) {
            if self.satisfies_trace(r) {
                self.hits += 1;
                return Some(r.clone());
            }
        }
        if let Some(disk) = &self.disk {
            if let Some(r) = disk.load(key) {
                if self.satisfies_trace(&r) {
                    self.disk_hits += 1;
                    self.dump_all(key, &r);
                    self.map.insert(key, r.clone());
                    return Some(r);
                }
            }
        }
        None
    }

    /// Record a finished run in both tiers.
    fn admit(&mut self, key: u128, report: &RunReport) {
        self.executed += 1;
        self.sim_events += report.events_processed;
        self.sim_wall_s += report.wall_s;
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.store(key, report) {
                eprintln!("[h2] run cache write failed: {e}");
            }
        }
        self.dump_all(key, report);
        self.map.insert(key, report.clone());
    }

    /// Run (or fetch) a single job.
    pub fn run(&mut self, job: &Job) -> RunReport {
        let key = job.key();
        if let Some(r) = self.fetch(key) {
            return r;
        }
        if self.verbose {
            eprintln!("[h2] running {} / {:?} / {:?}", job.mix.name, job.kind, job.parts);
        }
        let cfg = self.effective_cfg(job);
        let report = execute(&cfg, job);
        if self.verbose {
            eprintln!(
                "[h2]   done in {:.1}s ({} events, {:.2} Mev/s)",
                report.wall_s,
                report.events_processed,
                report.events_per_sec / 1e6
            );
        }
        self.admit(key, &report);
        report
    }

    /// Run a batch of jobs, deduplicating identical jobs and using a worker
    /// pool when multiple CPUs exist. Results come back in job order.
    pub fn run_batch(&mut self, jobs: &[Job]) -> Vec<RunReport> {
        // Partition into cached and to-run, collapsing duplicates so each
        // distinct key is simulated at most once per batch.
        let mut pending = HashSet::new();
        let mut misses: Vec<(u128, Job)> = Vec::new();
        for job in jobs {
            let key = job.key();
            if self.map.get(&key).is_some_and(|r| self.satisfies_trace(r)) {
                self.hits += 1;
                continue;
            }
            if !pending.insert(key) {
                self.deduped += 1;
                continue;
            }
            if let Some(r) = self
                .disk
                .as_ref()
                .and_then(|d| d.load(key))
                .filter(|r| self.satisfies_trace(r))
            {
                self.disk_hits += 1;
                self.dump_all(key, &r);
                self.map.insert(key, r);
                continue;
            }
            misses.push((key, job.clone()));
        }

        let workers = self
            .jobs
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
            .min(misses.len().max(1));

        if workers <= 1 || misses.len() <= 1 {
            for (key, job) in &misses {
                if self.verbose {
                    eprintln!("[h2] running {} / {:?} / {:?}", job.mix.name, job.kind, job.parts);
                }
                let cfg = self.effective_cfg(job);
                let r = execute(&cfg, job);
                self.admit(*key, &r);
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, RunReport)>();
            let misses_ref = &misses;
            let trace_sample = self.trace_sample;
            std::thread::scope(|s| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((_, job)) = misses_ref.get(i) else { break };
                        let mut cfg = job.cfg.clone();
                        if trace_sample.is_some() {
                            cfg.trace_sample = trace_sample;
                        }
                        let r = execute(&cfg, job);
                        if tx.send((i, r)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (i, r) in rx {
                    self.admit(misses_ref[i].0, &r);
                }
            });
        }
        jobs.iter().map(|j| self.map[&j.key()].clone()).collect()
    }

    /// Number of distinct cached runs in memory.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been run yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// One-line summary of cache activity for CLI output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} executed, {} memory hits, {} disk hits, {} deduped",
            self.executed, self.hits, self.disk_hits, self.deduped
        );
        if self.sim_wall_s > 0.0 {
            s.push_str(&format!(
                "; {:.2}M events at {:.2} Mev/s aggregate",
                self.sim_events as f64 / 1e6,
                self.sim_events as f64 / self.sim_wall_s / 1e6
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job(kind: PolicyKind) -> Job {
        Job::new(&SystemConfig::tiny(), &Mix::by_name("C1").unwrap(), kind)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("h2-cache-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn caches_identical_jobs() {
        let mut c = RunCache::new();
        let j = tiny_job(PolicyKind::NoPart);
        let a = c.run(&j);
        let executed_after_first = c.executed;
        let b = c.run(&j);
        assert_eq!(c.executed, executed_after_first, "second call cached");
        assert_eq!(c.hits, 1);
        assert_eq!(a.cpu_instr, b.cpu_instr);
    }

    #[test]
    fn distinct_policies_distinct_keys() {
        let a = tiny_job(PolicyKind::NoPart).key();
        let b = tiny_job(PolicyKind::HydrogenFull).key();
        assert_ne!(a, b);
    }

    #[test]
    fn batch_returns_in_order() {
        let mut c = RunCache::new();
        let jobs = vec![tiny_job(PolicyKind::NoPart), tiny_job(PolicyKind::WayPart)];
        let rs = c.run_batch(&jobs);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].policy, "Baseline");
        assert_eq!(rs[1].policy, "WayPart");
    }

    #[test]
    fn batch_dedups_identical_jobs() {
        let mut c = RunCache::new();
        let j = tiny_job(PolicyKind::NoPart);
        let rs = c.run_batch(&[j.clone(), j.clone(), j.clone(), tiny_job(PolicyKind::WayPart)]);
        assert_eq!(rs.len(), 4);
        assert_eq!(c.executed, 2, "duplicates collapsed before dispatch");
        assert_eq!(c.deduped, 2);
        assert_eq!(rs[0].cpu_instr, rs[1].cpu_instr);
        assert_eq!(rs[0].cpu_instr, rs[2].cpu_instr);
    }

    #[test]
    fn jobs_one_forces_sequential_batches() {
        let mut c = RunCache::new();
        c.set_jobs(1);
        let jobs = vec![tiny_job(PolicyKind::NoPart), tiny_job(PolicyKind::WayPart)];
        let rs = c.run_batch(&jobs);
        assert_eq!(rs.len(), 2);
        assert_eq!(c.executed, 2);
        assert_eq!(rs[0].policy, "Baseline");
        assert_eq!(rs[1].policy, "WayPart");
    }

    #[test]
    fn set_jobs_clamps_zero_to_one() {
        let mut c = RunCache::new();
        c.set_jobs(0);
        assert_eq!(c.jobs, Some(1));
    }

    #[test]
    fn participants_in_key() {
        let mut j = tiny_job(PolicyKind::NoPart);
        let k1 = j.key();
        j.parts = Participants::CpuOnly;
        assert_ne!(k1, j.key());
    }

    #[test]
    fn persistent_tier_survives_restart() {
        let dir = tmp_dir("restart");
        let j = tiny_job(PolicyKind::NoPart);
        let first = {
            let mut c = RunCache::with_disk_dir(&dir).unwrap();
            let r = c.run(&j);
            assert_eq!(c.executed, 1);
            r
        };
        // "New process": fresh in-memory map, same directory.
        let mut c2 = RunCache::with_disk_dir(&dir).unwrap();
        let again = c2.run(&j);
        assert_eq!(c2.executed, 0, "replayed from disk, not re-simulated");
        assert_eq!(c2.disk_hits, 1);
        assert_eq!(again.cpu_instr, first.cpu_instr);
        assert_eq!(again.epoch_trace, first.epoch_trace);

        // A batch over the same job also comes from disk.
        let mut c3 = RunCache::with_disk_dir(&dir).unwrap();
        let rs = c3.run_batch(&[j.clone(), j.clone()]);
        assert_eq!(c3.executed, 0);
        assert_eq!(c3.disk_hits, 1);
        // The duplicate lands after the disk promotion, so it counts as a
        // memory hit rather than a dedup.
        assert_eq!(c3.deduped, 0);
        assert_eq!(c3.hits, 1);
        assert_eq!(rs[0].cpu_instr, first.cpu_instr);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_replay_upgrades_untraced_entries() {
        let dir = tmp_dir("trace-upgrade");
        let trace_dir = tmp_dir("trace-out");
        let j = tiny_job(PolicyKind::NoPart);
        {
            let mut c = RunCache::with_disk_dir(&dir).unwrap();
            let r = c.run(&j);
            assert_eq!(c.executed, 1);
            assert!(r.trace.is_none());
        }
        // Traced replay: the untraced disk entry is a miss, so the run is
        // re-executed with spans and dumped as a Perfetto trace.
        let mut c2 = RunCache::with_disk_dir(&dir).unwrap();
        c2.set_trace_dir(&trace_dir, 4).unwrap();
        let r = c2.run(&j);
        assert_eq!(c2.executed, 1, "untraced entry upgraded");
        assert!(r.trace.as_ref().is_some_and(|t| !t.spans.is_empty()));
        assert_eq!(std::fs::read_dir(&trace_dir).unwrap().count(), 1);
        // The traced entry now serves both traced requests (replaying the
        // trace and telemetry dumps from disk)...
        let _ = std::fs::remove_dir_all(&trace_dir);
        let telemetry_dir = tmp_dir("trace-upgrade-telemetry");
        let mut c3 = RunCache::with_disk_dir(&dir).unwrap();
        c3.set_trace_dir(&trace_dir, 4).unwrap();
        c3.set_telemetry_dir(&telemetry_dir).unwrap();
        c3.run(&j);
        assert_eq!(c3.executed, 0);
        assert_eq!(c3.disk_hits, 1);
        assert_eq!(std::fs::read_dir(&trace_dir).unwrap().count(), 1);
        assert_eq!(std::fs::read_dir(&telemetry_dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&telemetry_dir);
        // ...and plain untraced requests.
        let mut c4 = RunCache::with_disk_dir(&dir).unwrap();
        let r = c4.run(&j);
        assert_eq!(c4.executed, 0);
        assert_eq!(c4.disk_hits, 1);
        assert!(r.trace.is_some(), "cached spans ride along harmlessly");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&trace_dir);
    }

    #[test]
    fn batch_upgrades_untraced_entries_too() {
        let dir = tmp_dir("trace-batch");
        let j = tiny_job(PolicyKind::NoPart);
        {
            let mut c = RunCache::with_disk_dir(&dir).unwrap();
            c.run_batch(std::slice::from_ref(&j));
            assert_eq!(c.executed, 1);
        }
        let trace_dir = tmp_dir("trace-batch-out");
        let mut c2 = RunCache::with_disk_dir(&dir).unwrap();
        c2.set_trace_dir(&trace_dir, 4).unwrap();
        let rs = c2.run_batch(&[j.clone(), j.clone()]);
        assert_eq!(c2.executed, 1, "batch re-executes the untraced entry");
        assert!(rs.iter().all(|r| r.trace.is_some()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&trace_dir);
    }

    #[test]
    fn version_bump_invalidates_persisted_runs() {
        let dir = tmp_dir("inval");
        let j = tiny_job(PolicyKind::NoPart);
        {
            let mut c = RunCache::with_disk_dir(&dir).unwrap();
            c.run(&j);
        }
        std::fs::write(dir.join("VERSION"), "schema0+v0.0.0").unwrap();
        let mut c2 = RunCache::with_disk_dir(&dir).unwrap();
        c2.run(&j);
        assert_eq!(c2.executed, 1, "stale cache wiped; run re-executed");
        assert_eq!(c2.disk_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
