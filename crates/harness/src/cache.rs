//! Two-level memoisation of simulation runs.
//!
//! Several experiments need the same runs (every figure needs per-mix
//! baselines; Fig 6 reuses Fig 5's runs). Jobs are keyed by a structured
//! `u128` hash of the full configuration ([`crate::key::job_key`]); lookups
//! go memory → disk ([`crate::persist::DiskTier`]) → simulate. Everything
//! past memory runs on the sweep scheduler
//! ([`crate::sweep::scheduler::run_batch`]): [`RunCache::run`] is a batch
//! of one, and [`RunCache::run_planned`] records every job an experiment
//! requests, then runs the distinct misses as one batch across the
//! [`RunCache::set_jobs`] workers (default: every CPU).
//!
//! The disk tier (default `results/.runcache/`) survives process restarts:
//! re-running an experiment after a crash or `^C` replays completed
//! simulations from disk and only executes the remainder. Control it with
//! `H2_RUNCACHE`: unset → default directory, a path → that directory,
//! `off`/`0` → memory-only.

use crate::key::job_key;
use crate::persist::{DiskTier, LoadMode};
use crate::sweep::scheduler::{self, Source};
use h2_system::{run_scenario, run_sim_parts, Participants, PolicyKind, RunReport, SystemConfig};
use h2_trace::{Mix, TenantScenario};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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

    /// Simulate the job: its scenario when it has one, else its mix. The
    /// scheduler's workers call this for every store miss.
    pub(crate) fn execute(&self) -> RunReport {
        match &self.scenario {
            Some(sc) => run_scenario(&self.cfg, sc, self.kind),
            None => run_sim_parts(&self.cfg, &self.mix, self.kind, self.parts),
        }
    }
}

/// The default persistent-cache directory: `results/.runcache` under the
/// nearest ancestor that already has a `results/` dir or is a repo root —
/// so `h2` started from a subdirectory of the workspace shares one cache
/// with `h2` run from the workspace root.
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
    /// Requests served from memory. The render pass of
    /// [`RunCache::run_planned`] is not counted: it repeats the requests
    /// its plan already counted.
    pub hits: usize,
    /// Distinct runs replayed from the persistent tier.
    pub disk_hits: usize,
    /// Repeated requests for a job a plan had already recorded. When
    /// several experiments share one plan ([`crate::run_experiments`]), a
    /// job they share counts here, not as a memory hit.
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
    /// format) into this directory. When unset, runs enter without their
    /// spans (see `run_misses`).
    trace_dir: Option<PathBuf>,
    /// When set, jobs execute with request tracing at this sample rate,
    /// and cached entries *without* spans count as misses (upgrade-on-miss:
    /// the run is re-executed traced and overwrites the untraced entry).
    /// Tracing never changes job keys — see `crate::key`.
    trace_sample: Option<u64>,
    /// Worker-pool size override. `None` falls back to the CPU count.
    jobs: Option<usize>,
    /// While `plan` records: the distinct jobs that missed memory, in
    /// first-request order.
    planned: Option<Vec<(u128, Job)>>,
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

    /// The sharded store behind the persistent tier, if any. The
    /// crash-consistency suite uses this to inject commit faults and read
    /// quarantine counters on the exact handle the cache writes through.
    pub fn disk_store(&self) -> Option<&crate::sweep::store::ShardedStore> {
        self.disk.as_ref().map(DiskTier::sharded)
    }

    /// Cap the worker pool at `n` threads (`n = 1` runs every batch on the
    /// calling thread).
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
        if self.trace_dir.is_none() {
            // Memory holds no spans yet (see `run_misses`): forget it, so
            // a traced request reloads or re-runs its job instead of
            // dumping a report whose spans were dropped.
            self.map.clear();
        }
        self.trace_dir = Some(dir.to_path_buf());
        self.trace_sample = Some(sample);
        Ok(())
    }

    /// Write one run's telemetry JSON (no-op when no dir is set or the
    /// report carries no telemetry).
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

    /// Run (or fetch) a single job: a memory hit, or else a batch of one
    /// on the sweep scheduler (a store hit or a simulation). While
    /// [`RunCache::run_planned`] plans, a miss is recorded instead and
    /// answered with `RunReport::default()`.
    pub fn run(&mut self, job: &Job) -> RunReport {
        let key = job.key();
        if let Some(r) = self
            .map
            .get(&key)
            .filter(|r| scheduler::satisfies(self.trace_sample, r))
        {
            self.hits += 1;
            return r.clone();
        }
        // The cache-level sample rate rides on the job's config (which the
        // key ignores), so the worker runs it traced and applies the same
        // upgrade rule to store entries.
        let mut job = job.clone();
        if self.trace_sample.is_some() {
            job.cfg.trace_sample = self.trace_sample;
        }
        match &mut self.planned {
            Some(plan) if plan.iter().any(|(k, _)| *k == key) => self.deduped += 1,
            Some(plan) => plan.push((key, job)),
            None => {
                self.run_misses(&[(key, job)]);
                return self.map[&key].clone();
            }
        }
        RunReport::default()
    }

    /// Whether a plan is being recorded: requests that miss memory are
    /// then answered with placeholder reports ([`RunCache::run_planned`]).
    pub(crate) fn planning(&self) -> bool {
        self.planned.is_some()
    }

    /// Record the jobs `experiment` requests without running any: every
    /// request that misses memory is answered with `RunReport::default()`,
    /// and the distinct misses come back in first-request order.
    pub(crate) fn plan(&mut self, experiment: impl FnOnce(&mut Self)) -> Vec<(u128, Job)> {
        self.planned = Some(Vec::new());
        experiment(self);
        self.planned.take().unwrap_or_default()
    }

    /// Plan, run, render: record `experiment`'s jobs, tell `on_plan` how
    /// many distinct misses the plan holds, run them as one batch, then run
    /// `experiment` again from memory and return what that pass produced.
    /// Panics if the render pass requests a job its plan did not record (a
    /// job set that depends on results).
    pub fn run_planned<T>(
        &mut self,
        mut experiment: impl FnMut(&mut Self) -> T,
        on_plan: impl FnOnce(usize),
    ) -> T {
        let batch = self.plan(|c| {
            experiment(c);
        });
        on_plan(batch.len());
        self.run_misses(&batch);
        let (misses, hits) = (self.executed + self.disk_hits, self.hits);
        let out = experiment(self);
        assert_eq!(
            self.executed + self.disk_hits,
            misses,
            "the render pass requested a job its plan did not record"
        );
        self.hits = hits;
        out
    }

    /// Run `batch` (distinct keys that missed memory) on the sweep
    /// scheduler. Its workers serve store hits, or simulate and publish to
    /// the store; here each report is dumped and admitted to memory.
    /// Request spans are read only by the trace dump: without a trace dir
    /// store hits skip the span section, and executed reports drop their
    /// spans on admission (their store entries keep them), so a hit equals
    /// a fresh run. Telemetry is always read, since experiments read it
    /// from the reports they request.
    fn run_misses(&mut self, batch: &[(u128, Job)]) {
        let workers = self.jobs.unwrap_or_else(scheduler::default_workers);
        let mode = match self.trace_dir {
            Some(_) => LoadMode::Full,
            None => LoadMode::Spanless,
        };
        let (reports, stats) = scheduler::run_batch(batch, self.disk.as_ref(), workers, mode, |done| {
            if done.source != Source::Executed {
                return;
            }
            let r = &done.report;
            self.sim_events += r.events_processed;
            self.sim_wall_s += r.wall_s;
            if self.verbose {
                eprintln!(
                    "[h2] ran {} / {} / {:?} in {:.1}s ({} events, {:.2} Mev/s)",
                    r.mix,
                    r.policy,
                    batch[done.idx].1.parts,
                    r.wall_s,
                    r.events_processed,
                    r.events_per_sec / 1e6
                );
            }
        });
        self.executed += stats.executed;
        self.disk_hits += stats.disk_hits;
        for ((key, _), mut report) in batch.iter().zip(reports) {
            self.dump_telemetry(*key, &report);
            self.dump_trace(*key, &report);
            if let (LoadMode::Spanless, Some(trace)) = (mode, &mut report.trace) {
                trace.spans = Vec::new();
            }
            self.map.insert(*key, report);
        }
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
    use crate::profile::Profile;
    use h2_check::{diff_reports, sample_scenario};

    fn tiny_job(kind: PolicyKind) -> Job {
        Job::new(&SystemConfig::tiny(), &Mix::by_name("C1").unwrap(), kind)
    }

    /// A tiny job with short windows, distinguished by its seed.
    fn short_job(seed: u64, kind: PolicyKind) -> Job {
        let mut cfg = SystemConfig::tiny();
        cfg.seed = seed;
        cfg.epoch_cycles = 20_000;
        cfg.faucet_cycles = 5_000;
        cfg.warmup_cycles = 40_000;
        cfg.measure_cycles = 60_000;
        Job::new(&cfg, &Mix::by_name("C1").unwrap(), kind)
    }

    /// The job run directly, traced at `sample`.
    fn direct(job: &Job, sample: u64) -> RunReport {
        let mut cfg = job.cfg.clone();
        cfg.trace_sample = Some(sample);
        match &job.scenario {
            Some(sc) => run_scenario(&cfg, sc, job.kind),
            None => run_sim_parts(&cfg, &job.mix, job.kind, job.parts),
        }
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
        assert!(
            r.trace.is_some_and(|t| t.spans.is_empty()),
            "the trace rides along without its spans"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&trace_dir);
    }

    #[test]
    fn spans_are_served_only_to_caches_that_dump_them() {
        let dir = tmp_dir("spanless");
        let trace_dir = tmp_dir("spanless-trace");
        let mut job = short_job(4, PolicyKind::HydrogenFull);
        job.cfg.trace_sample = Some(4);
        let direct = direct(&job, 4);
        let spans = &direct.trace.as_ref().expect("traced").spans;
        assert!(!spans.is_empty());

        // Without a trace dir the executed report and the loaded one are
        // the same span-less report; the store keeps the spans.
        let mut cold = RunCache::with_disk_dir(&dir).unwrap();
        let executed = cold.run(&job);
        assert_eq!(cold.executed, 1);
        let mut c = RunCache::with_disk_dir(&dir).unwrap();
        let loaded = c.run(&job);
        assert_eq!((c.executed, c.disk_hits), (0, 1));
        assert_eq!(diff_reports(&executed, &loaded), None);
        let trace = loaded.trace.as_ref().expect("the trace stays");
        let want = direct.trace.as_ref().unwrap();
        assert_eq!((trace.sample, trace.dropped), (want.sample, want.dropped));
        assert!(trace.spans.is_empty(), "no spans without a trace dir");
        let stored = DiskTier::open(&dir).unwrap().load(job.key()).unwrap();
        assert_eq!(stored.trace.as_ref().map(|t| &t.spans), Some(spans));

        // A late trace dir: memory holds no spans, so the store serves
        // the job again, this time with them.
        for c in [&mut cold, &mut c] {
            c.set_trace_dir(&trace_dir, 4).unwrap();
            let dumped = c.run(&job);
            assert_eq!(c.hits, 0, "a span-less report never serves a dumping cache");
            assert_eq!(diff_reports(&dumped, &direct), None);
        }
        assert_eq!((cold.executed, cold.disk_hits), (1, 1));
        assert_eq!((c.executed, c.disk_hits), (0, 2));
        assert_eq!(std::fs::read_dir(&trace_dir).unwrap().count(), 1);
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

    #[test]
    fn planned_runs_match_direct_runs_at_any_worker_count() {
        let a = short_job(1, PolicyKind::NoPart);
        let cpu_only = Job { parts: Participants::CpuOnly, ..a.clone() };
        let sc = sample_scenario(1);
        let scenario = Job::scenario(&a.cfg, &sc, PolicyKind::NoPart);
        let untraced = short_job(1, PolicyKind::WayPart);
        let traced = short_job(2, PolicyKind::NoPart);
        let warm = short_job(3, PolicyKind::NoPart);
        let requests = [
            &a, &cpu_only, &a, &scenario, &untraced, &traced, &cpu_only, &warm,
        ];
        for workers in [1, 3] {
            let dir = tmp_dir(&format!("planned-{workers}"));
            let trace_dir = tmp_dir(&format!("planned-trace-{workers}"));
            {
                let mut c = RunCache::with_disk_dir(&dir).unwrap();
                assert!(c.run(&untraced).trace.is_none());
                c.set_trace_dir(&trace_dir, 4).unwrap();
                assert!(c.run(&traced).trace.is_some());
            }
            let _ = std::fs::remove_dir_all(&trace_dir);

            let mut c = RunCache::with_disk_dir(&dir).unwrap();
            c.set_jobs(workers);
            c.set_trace_dir(&trace_dir, 4).unwrap();
            c.run(&warm);
            let reports = c.run_planned(|c| requests.map(|j| c.run(j)), |_| {});
            // `warm` executed before the plan and is its one memory hit;
            // the two repeats are deduped; `traced` is served by the
            // store; `untraced` is re-executed with spans, like `a`,
            // `cpu_only` and `scenario`.
            assert_eq!(
                (c.executed, c.disk_hits, c.deduped, c.hits),
                (5, 1, 2, 1),
                "workers={workers}"
            );
            for (job, r) in requests.iter().zip(&reports) {
                assert_eq!(diff_reports(r, &direct(job, 4)), None, "workers={workers}");
            }
            assert_eq!(reports[3].mix, sc.name, "the scenario job ran its scenario");
            let upgraded = DiskTier::open(&dir).unwrap().load(untraced.key()).unwrap();
            assert!(upgraded.trace.is_some_and(|t| !t.spans.is_empty()));
            assert_eq!(std::fs::read_dir(&trace_dir).unwrap().count(), 6);
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&trace_dir);
        }
    }

    #[test]
    fn one_plan_over_two_experiments_records_their_shared_jobs_once() {
        // (distinct jobs, deduped requests) of one plan over `ids`.
        let plan = |ids: &[&str]| {
            let mut c = RunCache::new();
            let plan = c.plan(|c| {
                for id in ids {
                    crate::experiment(id).unwrap()(&Profile::Quick, c);
                }
            });
            assert_eq!((c.executed, c.disk_hits, c.hits), (0, 0, 0));
            assert!(c.map.is_empty(), "planning admits nothing");
            (plan.len(), c.deduped)
        };
        assert_eq!(plan(&["fig2"]), (18, 4));
        assert_eq!(plan(&["verify"]), (13, 2));
        // Four jobs are in both: recorded once, their repeats deduped.
        assert_eq!(plan(&["fig2", "verify"]), (18 + 13 - 4, 4 + 2 + 4));
    }

    #[test]
    fn quick_verify_plan_is_thirteen_jobs_and_simulates_nothing() {
        let mut c = RunCache::new();
        let plan = c.plan(|c| {
            crate::experiments::verify::run(&Profile::Quick, c);
        });
        assert_eq!(plan.len(), 13);
        assert_eq!((c.executed, c.disk_hits, c.deduped, c.hits), (0, 0, 2, 0));
        assert!(c.map.is_empty(), "planning admits nothing");
    }
}
