//! The three workloads, each a closed-loop batch of jobs this process
//! generates from `--seed`:
//!
//! - `verify_quick` — `h2 run verify` at the quick profile on an empty run
//!   store: 13 sequential scaled-config simulations. The event loop does
//!   nearly all the work.
//! - `sweep_grid` — the 200-job acceptance grid, cold into a fresh store,
//!   then served warm from it. Jobs are short, so job keys, the store and
//!   scheduling carry real weight.
//! - `scenario_replay` — capture → replay pairs of the 3-tenant scenario
//!   with telemetry and 1/64 request tracing on: the only workload where
//!   trace encode/decode and tenant front-ends are a large share.
//!
//! Every workload also has a hit path: the jobs it ran, re-requested from
//! the persistent run store the way a second `h2 run` or `h2 sweep` is.

use crate::ledger::sim_digest;
use crate::metrics::median;
use crate::speed::{Clock, Timed};
use h2_harness::cache::Job;
use h2_harness::persist::{codec_roundtrip, DiskTier};
use h2_harness::sweep::run_sweep;
use h2_harness::sweep::spec::{Axis, Search, SweepSpec};
use h2_harness::trace_cli::{replay_trace, run_mix_capture, run_scenario_capture};
use h2_harness::{run_experiment, Profile, RunCache, Table};
use h2_sim_core::stats::geomean;
use h2_sim_core::Json;
use h2_system::{
    plan_from_workloads, run_sim, scenario_config, scenario_plan, Participants, PolicyKind,
    RunReport, SystemConfig,
};
use h2_trace::{Mix, TenantScenario, TraceFile};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::slice::from_ref;
use std::time::Instant;

/// Copies of `examples/sweeps/grid.json` and
/// `examples/scenarios/inference_hpc_analytics.json`, so edits to the
/// examples cannot change the workloads.
const GRID: &str = include_str!("../inputs/grid.json");
const SCENARIO: &str = include_str!("../inputs/inference_hpc_analytics.json");

/// Warm re-requests of every workload's jobs per pass.
const WARM_PASSES: usize = 10;
/// Capture → replay pairs per `scenario_replay` pass.
const PAIRS: u64 = 10;
/// The policy the scenario is captured and replayed under.
const SCENARIO_POLICY: (&str, PolicyKind) = ("HydrogenFull", PolicyKind::HydrogenFull);
/// Request-trace sampling of the capture side (`h2 run --trace` default).
const TRACE_SAMPLE: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VerifyQuick,
    SweepGrid,
    ScenarioReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::VerifyQuick,
        Workload::SweepGrid,
        Workload::ScenarioReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifyQuick => "verify_quick",
            Workload::SweepGrid => "sweep_grid",
            Workload::ScenarioReplay => "scenario_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Per-invocation inputs plus the scratch directory stores go into.
pub struct Ctx {
    pub seed: u64,
    /// Seconds-scale stand-ins: tiny-config verify, an 8-job grid, one
    /// tiny scenario pair.
    pub smoke: bool,
    /// Measuring floor of a pass (`--seconds`).
    pub seconds: f64,
    work: PathBuf,
    dirs: usize,
}

impl Ctx {
    pub fn new(seed: u64, smoke: bool, seconds: f64, work: &Path) -> Ctx {
        Ctx {
            seed,
            smoke,
            seconds,
            work: work.to_path_buf(),
            dirs: 0,
        }
    }

    /// A fresh, not yet existing directory under the scratch root.
    fn fresh_dir(&mut self, what: &str) -> PathBuf {
        self.dirs += 1;
        self.work.join(format!("{what}-{}", self.dirs))
    }
}

/// Correctness checks, each counted as one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// What one pass of a workload produced.
pub struct Pass {
    /// Seconds of the timed part: the verify jobs and experiment, the cold
    /// sweep, or all capture → replay pairs.
    pub wall: Timed,
    /// Every simulation the pass executed, in a fixed order.
    pub runs: Vec<RunReport>,
    /// Normalised ÷ raw seconds of the timed unit each run executed in.
    pub scale: Vec<f64>,
    /// The jobs the hit path re-requests, each with its report's index in
    /// `runs`.
    pub stored: Vec<(Job, usize)>,
    /// Jobs served and seconds taken by each warm re-request.
    pub hits: Vec<(usize, Timed)>,
    /// Layer values only the pass itself can see.
    pub extra: Vec<(&'static str, f64)>,
    /// The pass's timed units and the reference samples between them.
    pub clock: Clock,
}

/// Warm re-requests go on until there are [`WARM_PASSES`] of them and the
/// pass has measured for the `--seconds` floor.
fn more_warm(ctx: &Ctx, started: Instant, done: usize) -> bool {
    done < WARM_PASSES || started.elapsed().as_secs_f64() < ctx.seconds
}

fn open_tier(dir: &Path) -> Result<DiskTier, String> {
    DiskTier::open(dir).map_err(|e| format!("cannot open run store {}: {e}", dir.display()))
}

fn open_cache(dir: &Path) -> Result<RunCache, String> {
    let mut cache = RunCache::with_disk_dir(dir)
        .map_err(|e| format!("cannot open run store {}: {e}", dir.display()))?;
    cache.set_jobs(1);
    Ok(cache)
}

fn mix(name: &str) -> Mix {
    Mix::by_name(name).expect("Table II mix")
}

fn one_cycle(mut cfg: SystemConfig) -> SystemConfig {
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 1;
    cfg
}

fn verify_cfg(smoke: bool) -> SystemConfig {
    if smoke {
        SystemConfig::tiny()
    } else {
        Profile::Quick.config()
    }
}

/// The distinct simulations `h2 run verify` requests, in its order: the
/// quick panel (C1, C5) under NoPart, HydrogenFull, ProFess and HAShCache;
/// C1's CPU-only and GPU-only runs; C5 with open and tight token levels;
/// C1 with per-channel tokens. If the experiment's job set drifts from
/// this list, the experiment executes jobs the list lacks and a check
/// fails.
fn verify_jobs(cfg: &SystemConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for m in ["C1", "C5"] {
        for kind in [
            PolicyKind::NoPart,
            PolicyKind::HydrogenFull,
            PolicyKind::Profess,
            PolicyKind::HashCache,
        ] {
            jobs.push(Job::new(cfg, &mix(m), kind));
        }
    }
    for parts in [Participants::CpuOnly, Participants::GpuOnly] {
        jobs.push(Job {
            parts,
            ..Job::new(cfg, &mix("C1"), PolicyKind::NoPart)
        });
    }
    for tok in [7, 1] {
        jobs.push(Job::new(
            cfg,
            &mix("C5"),
            PolicyKind::HydrogenStatic { bw: 1, cap: 3, tok },
        ));
    }
    jobs.push(Job::new(
        cfg,
        &mix("C1"),
        PolicyKind::HydrogenPerChannelTokens,
    ));
    jobs
}

/// The paper's values for the six numbers `verify` measures: Hydrogen's
/// speedup over NoPart, ProFess and HAShCache (Fig 5, 12-mix averages),
/// C1's CPU and GPU co-run slowdowns (Fig 2a), and Hydrogen's memory
/// energy per work relative to HAShCache (Fig 6).
const PAPER: [f64; 6] = [1.24, 1.16, 1.47, 1.94, 1.33, 0.69];

/// Mean |measured − paper| ÷ paper over [`PAPER`], from reports in
/// [`verify_jobs`] order.
fn paper_rel_err(runs: &[RunReport]) -> f64 {
    let panel: Vec<&[RunReport]> = runs[..8].chunks(4).collect();
    let speedup = |p: usize| {
        geomean(
            &panel
                .iter()
                .map(|m| m[p].weighted_speedup(&m[0]))
                .collect::<Vec<_>>(),
        )
    };
    let (h2, profess, hashcache) = (speedup(1), speedup(2), speedup(3));
    let per_work = |r: &RunReport| {
        let work = r.weights.0 * r.cpu_instr as f64 + r.weights.1 * r.gpu_instr as f64;
        r.energy_j() / work.max(1.0)
    };
    let energy = geomean(
        &panel
            .iter()
            .map(|m| per_work(&m[1]) / per_work(&m[3]).max(1e-18))
            .collect::<Vec<_>>(),
    );
    let c1 = &runs[0];
    let measured = [
        h2,
        h2 / profess,
        h2 / hashcache,
        c1.cpu_slowdown(&runs[8]),
        c1.gpu_slowdown(&runs[9]),
        energy,
    ];
    measured
        .iter()
        .zip(PAPER)
        .map(|(m, p)| (m - p).abs() / p)
        .sum::<f64>()
        / PAPER.len() as f64
}

/// The sweep grid: the acceptance grid with its seed axis moved to
/// `seed..seed+24` (a single seed — 8 jobs — in smoke mode).
pub fn sweep_spec(seed: u64, smoke: bool) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::parse(GRID)?;
    let axis = seed_axis(&mut spec)?;
    let n = if smoke { 1 } else { axis.values.len() as u64 };
    axis.values = (seed..seed + n).collect();
    spec.validate()?;
    Ok(spec)
}

fn seed_axis(spec: &mut SweepSpec) -> Result<&mut Axis, String> {
    let Search::Grid { params } = &mut spec.search else {
        return Err("the embedded sweep is not a grid".into());
    };
    params
        .iter_mut()
        .find(|a| a.name == "seed")
        .ok_or_else(|| "the embedded grid has no seed axis".into())
}

/// The grid cut into one spec per value of its seed axis.
fn seed_slices(spec: &SweepSpec) -> Result<Vec<SweepSpec>, String> {
    let seeds = spec.search.params().iter().find(|a| a.name == "seed");
    let seeds = seeds
        .ok_or("the embedded grid has no seed axis")?
        .values
        .clone();
    seeds
        .into_iter()
        .map(|s| {
            let mut slice = spec.clone();
            seed_axis(&mut slice)?.values = vec![s];
            Ok(slice)
        })
        .collect()
}

/// Every job of a grid, in expansion order (the summary table's order).
pub fn grid_jobs(spec: &SweepSpec) -> Result<Vec<Job>, String> {
    let points = spec.expand(&mut |_| Err("grid searches never evaluate".into()))?;
    let mut jobs = Vec::new();
    for p in &points {
        jobs.extend(spec.jobs_for_point(p)?);
    }
    Ok(jobs)
}

/// One sweep worker. On the shared 2-vCPU Xeon VM the benchmark was
/// defined on, two simulations side by side slowed each other by 25–70%,
/// varying minute to minute with the co-tenants; one worker keeps the
/// pass repeatable to a few percent.
const SWEEP_WORKERS: usize = 1;

pub fn scenario() -> Result<TenantScenario, String> {
    TenantScenario::from_json(&Json::parse(SCENARIO)?)
}

/// The scenario pass's inputs: seeds `11+S ..= 20+S` (the committed
/// scenario's own seed is 11).
fn scenarios(seed: u64, smoke: bool) -> Result<Vec<TenantScenario>, String> {
    let base = scenario()?;
    let pairs = if smoke { 1 } else { PAIRS };
    Ok((0..pairs)
        .map(|i| TenantScenario {
            seed: base.seed + seed + i,
            ..base.clone()
        })
        .collect())
}

fn replay_cfg(smoke: bool) -> SystemConfig {
    let mut cfg = if smoke {
        SystemConfig::tiny()
    } else {
        SystemConfig::scaled()
    };
    cfg.trace_sample = Some(TRACE_SAMPLE);
    cfg
}

impl Workload {
    /// Simulated cycles (warm-up + measured) of every run the workload
    /// executes; the grid's axes (assoc, seed) leave the window alone.
    pub fn cycles_per_run(self, ctx: &Ctx) -> Result<u64, String> {
        Ok(match self {
            Workload::VerifyQuick => verify_cfg(ctx.smoke).total_cycles(),
            Workload::SweepGrid => sweep_spec(ctx.seed, ctx.smoke)?
                .base_config()?
                .total_cycles(),
            Workload::ScenarioReplay => replay_cfg(ctx.smoke).total_cycles(),
        })
    }

    /// Host seconds to build the workload's machine and drain a 1-cycle
    /// window with no warm-up; inputs are prepared before the clock starts.
    pub fn setup_probe(self, ctx: &Ctx) -> Result<f64, String> {
        let c1 = mix("C1");
        let t0;
        match self {
            Workload::VerifyQuick => {
                let cfg = one_cycle(verify_cfg(ctx.smoke));
                t0 = Instant::now();
                black_box(run_sim(&cfg, &c1, PolicyKind::HydrogenFull));
            }
            Workload::SweepGrid => {
                let cfg = one_cycle(sweep_spec(ctx.seed, ctx.smoke)?.base_config()?);
                t0 = Instant::now();
                black_box(run_sim(&cfg, &c1, PolicyKind::HydrogenFull));
            }
            Workload::ScenarioReplay => {
                let cfg = one_cycle(replay_cfg(ctx.smoke));
                let sc = &scenarios(ctx.seed, ctx.smoke)?[0];
                let (name, kind) = SCENARIO_POLICY;
                t0 = Instant::now();
                black_box(run_scenario_capture(&cfg, sc, name, kind, false));
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// One timed pass plus its warm hit path and correctness checks.
    pub fn pass(self, ctx: &mut Ctx, checks: &mut Checks) -> Result<Pass, String> {
        let pass = match self {
            Workload::VerifyQuick => verify_pass(ctx, checks)?,
            Workload::SweepGrid => sweep_pass(ctx, checks)?,
            Workload::ScenarioReplay => replay_pass(ctx, checks)?,
        };
        for r in &pass.runs {
            checks.check(r.clamped_events == 0, || {
                format!(
                    "{} / {}: {} events clamped to the past",
                    r.mix, r.policy, r.clamped_events
                )
            });
        }
        Ok(pass)
    }

    /// Layer probes timed from outside the program, run once after the
    /// pass: the workload's jobs' keys, its reports through a fresh run
    /// store and the codec, and one traced capture of a job shaped like
    /// the workload's (front-end plan, trace codec, telemetry and span
    /// exports).
    pub fn layer_probe(
        self,
        ctx: &mut Ctx,
        checks: &mut Checks,
        pass: &Pass,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let mut out = store_probe(ctx, checks, pass)?;
        out.extend(capture_probe(self, ctx)?);
        Ok(out)
    }
}

fn verify_pass(ctx: &mut Ctx, checks: &mut Checks) -> Result<Pass, String> {
    let started = Instant::now();
    let smoke = ctx.smoke;
    let jobs = verify_jobs(&verify_cfg(smoke));
    // What `h2 run verify` requests. The experiment has no tiny profile,
    // so the smoke stand-in requests the same jobs at the tiny config.
    let request = |cache: &mut RunCache| -> Vec<Table> {
        if smoke {
            for j in &jobs {
                cache.run(j);
            }
            Vec::new()
        } else {
            run_experiment("verify", &Profile::Quick, cache).expect("verify is a known experiment")
        }
    };
    let render = |tables: &[Table]| tables.iter().map(Table::render).collect::<String>();
    let dir = ctx.fresh_dir("verify");

    // The cold pass runs the experiment's jobs one by one through the
    // cache, in its order (so each is timed and normalised on its own),
    // then the experiment itself, which finds every job in memory.
    let mut clock = Clock::start();
    let (cache, mut wall) = clock.time(|| open_cache(&dir));
    let mut cache = cache?;
    let (mut runs, mut scale) = (Vec::new(), Vec::new());
    for job in &jobs {
        let (report, t) = clock.time(|| cache.run(job));
        runs.push(report);
        scale.push(t.norm / t.raw);
        wall += t;
    }
    let (tables, t) = clock.time(|| request(&mut cache));
    wall += t;

    for row in tables.iter().flat_map(|t| &t.rows) {
        checks.check(row[2] == "PASS", || {
            format!("verify claim failed: {} ({})", row[0], row[3])
        });
    }
    checks.check(cache.executed == jobs.len(), || {
        format!(
            "verify executed {} runs; expected exactly the {} it names",
            cache.executed,
            jobs.len()
        )
    });

    let cold = render(&tables);
    let mut hits = Vec::new();
    while more_warm(ctx, started, hits.len()) {
        let (warm, t) = clock.time(|| -> Result<_, String> {
            let mut warm = open_cache(&dir)?;
            let tables = request(&mut warm);
            Ok((warm, tables))
        });
        let (warm, again) = warm?;
        checks.check(warm.executed == 0 && warm.disk_hits == jobs.len(), || {
            format!(
                "warm verify executed {} and hit {} runs",
                warm.executed, warm.disk_hits
            )
        });
        checks.check(render(&again) == cold, || {
            "warm verify tables differ from the cold pass".into()
        });
        hits.push((warm.disk_hits, t));
    }
    let extra = vec![("paper_rel_err", paper_rel_err(&runs))];
    let stored = jobs.into_iter().enumerate().map(|(i, j)| (j, i)).collect();
    Ok(Pass {
        wall,
        runs,
        scale,
        stored,
        hits,
        extra,
        clock,
    })
}

fn sweep_pass(ctx: &mut Ctx, checks: &mut Checks) -> Result<Pass, String> {
    let started = Instant::now();
    let spec = sweep_spec(ctx.seed, ctx.smoke)?;
    let jobs = grid_jobs(&spec)?;
    let dir = ctx.fresh_dir("sweep");
    // The key and weighted-IPC columns follow the axis columns, mix and
    // policy.
    let key_col = spec.search.params().len() + 2;

    // The cold pass runs the grid one seed at a time (a `run_sweep` per
    // seed, all into the same fresh store), so that each slice is timed
    // and normalised on its own; the warm passes run the whole grid.
    let mut progress = Vec::new();
    let mut clock = Clock::start();
    let mut wall = Timed::default();
    let mut executed = 0;
    // Key (hex) → (summary row, normalised ÷ raw seconds of its slice).
    let mut cold: HashMap<String, (Vec<String>, f64)> = HashMap::new();
    for slice in seed_slices(&spec)? {
        let (out, t) = clock.time(|| -> Result<_, String> {
            run_sweep(
                &slice,
                Some(&open_tier(&dir)?),
                SWEEP_WORKERS,
                &mut progress,
            )
        });
        let out = out?;
        executed += out.stats.executed;
        for row in out.table.rows {
            cold.insert(row[key_col].clone(), (row, t.norm / t.raw));
        }
        wall += t;
    }
    checks.check(executed == jobs.len() && cold.len() == jobs.len(), || {
        format!("the cold sweep executed {executed} of {} jobs", jobs.len())
    });

    // The cold summary in grid order, and each job's report from the store.
    let tier = open_tier(&dir)?;
    let mut cold_rows = Vec::new();
    let (mut runs, mut scale, mut stored) = (Vec::new(), Vec::new(), Vec::new());
    for job in &jobs {
        let key = job.key();
        let Some((row, s)) = cold.get(&format!("{key:032x}")) else {
            checks.check(false, || format!("no cold summary row for {key:032x}"));
            continue;
        };
        cold_rows.push(row.clone());
        let loaded = tier
            .load(key)
            .filter(|r| row[key_col + 1] == r.weighted_ipc().to_string());
        checks.check(loaded.is_some(), || {
            format!("the store does not return the summary's report for {key:032x}")
        });
        if let Some(r) = loaded {
            stored.push((job.clone(), runs.len()));
            runs.push(r);
            scale.push(*s);
        }
    }

    let mut hits = Vec::new();
    while more_warm(ctx, started, hits.len()) {
        let (warm, t) = clock.time(|| -> Result<_, String> {
            run_sweep(
                &spec,
                Some(&open_tier(&dir)?),
                SWEEP_WORKERS,
                &mut std::io::sink(),
            )
        });
        let warm = warm?;
        checks.check(
            warm.stats.executed == 0 && warm.stats.disk_hits == jobs.len(),
            || {
                format!(
                    "warm sweep executed {} and hit {} jobs",
                    warm.stats.executed, warm.stats.disk_hits
                )
            },
        );
        checks.check(warm.table.rows == cold_rows, || {
            "a warm sweep summary differs from the cold pass's".into()
        });
        hits.push((warm.stats.disk_hits, t));
    }

    // Worker-measured job seconds (simulation plus store commit) from the
    // JSONL progress stream.
    let mut job_s = Vec::new();
    for line in String::from_utf8_lossy(&progress).lines() {
        let event = Json::parse(line)?;
        if event.get("event").and_then(Json::as_str) == Some("job") {
            job_s.push(
                event
                    .get("wall_s")
                    .and_then(Json::as_f64)
                    .ok_or("job event without wall_s")?,
            );
        }
    }
    let busy: f64 = job_s.iter().sum();
    let loop_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    let extra = vec![
        (
            "sweep.worker_busy",
            busy / (wall.raw * SWEEP_WORKERS as f64),
        ),
        ("sweep.nonsim_share", (busy - loop_s) / busy),
    ];
    Ok(Pass {
        wall,
        scale,
        runs,
        stored,
        hits,
        extra,
        clock,
    })
}

fn replay_pass(ctx: &mut Ctx, checks: &mut Checks) -> Result<Pass, String> {
    let started = Instant::now();
    let cfg = replay_cfg(ctx.smoke);
    let scenarios = scenarios(ctx.seed, ctx.smoke)?;
    let (name, kind) = SCENARIO_POLICY;

    let mut clock = Clock::start();
    let mut wall = Timed::default();
    let (mut runs, mut scale) = (Vec::new(), Vec::new());
    for sc in &scenarios {
        // Capture, encode, decode, replay and re-encode the re-capture:
        // `h2 run --scenario --capture` then `h2 run --replay --capture`.
        let (pair, t) = clock.time(|| -> Result<_, String> {
            let (capture, file) = run_scenario_capture(&cfg, sc, name, kind, true);
            let bytes = file.ok_or("a capture run returned no trace")?.encode();
            let (replay, _, recapture) = replay_trace(&TraceFile::decode(&bytes)?, None, true)?;
            Ok((capture, bytes, replay, recapture.map(|f| f.encode())))
        });
        let (capture, bytes, replay, rebytes) = pair?;
        checks.check(
            sim_digest(from_ref(&replay)) == sim_digest(from_ref(&capture)),
            || {
                format!(
                    "replay of scenario seed {} diverged from its capture",
                    sc.seed
                )
            },
        );
        checks.check(rebytes.is_some_and(|b| b == bytes), || {
            format!(
                "re-capture of scenario seed {} differs from the capture bytes",
                sc.seed
            )
        });
        runs.push(capture);
        runs.push(replay);
        scale.extend([t.norm / t.raw; 2]);
        wall += t;
    }

    // Hit path: the scenario jobs a sweep over this scenario re-requests,
    // served from a store holding the captures' reports.
    let dir = ctx.fresh_dir("scenario");
    let stored: Vec<(Job, usize)> = scenarios
        .iter()
        .enumerate()
        .map(|(i, sc)| (Job::scenario(&cfg, sc, kind), 2 * i))
        .collect();
    let tier = open_tier(&dir)?;
    for (job, i) in &stored {
        tier.store(job.key(), &runs[*i])
            .map_err(|e| format!("run store write failed: {e}"))?;
    }
    let mut hits = Vec::new();
    while more_warm(ctx, started, hits.len()) {
        let (warm, t) = clock.time(|| -> Result<_, String> {
            let mut warm = open_cache(&dir)?;
            for (job, _) in &stored {
                black_box(warm.run(job));
            }
            Ok(warm)
        });
        let warm = warm?;
        checks.check(warm.executed == 0 && warm.disk_hits == stored.len(), || {
            format!(
                "warm scenario jobs executed {} and hit {}",
                warm.executed, warm.disk_hits
            )
        });
        hits.push((warm.disk_hits, t));
    }
    Ok(Pass {
        wall,
        runs,
        scale,
        stored,
        hits,
        extra: Vec::new(),
        clock,
    })
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Commit and load each stored report through a fresh run store (the
/// loaded report must carry the committed digest), round-trip it through
/// the codec, and hash each job key.
fn store_probe(
    ctx: &mut Ctx,
    checks: &mut Checks,
    pass: &Pass,
) -> Result<Vec<(&'static str, f64)>, String> {
    if pass.stored.is_empty() {
        return Err("the pass stored no reports to probe".into());
    }
    let tier = open_tier(&ctx.fresh_dir("store"))?;
    let (mut commit, mut load, mut codec) = (Vec::new(), Vec::new(), Vec::new());
    for (job, i) in &pass.stored {
        let (key, report) = (job.key(), &pass.runs[*i]);
        let t = Instant::now();
        tier.store(key, report)
            .map_err(|e| format!("run store write failed: {e}"))?;
        commit.push(micros(t));
        let t = Instant::now();
        let back = tier.load(key);
        load.push(micros(t));
        let want = sim_digest(from_ref(report));
        checks.check(
            back.is_some_and(|b| sim_digest(from_ref(&b)) == want),
            || format!("the run store returned a different report for {key:032x}"),
        );
        let t = Instant::now();
        black_box(codec_roundtrip(report)?);
        codec.push(micros(t));
    }
    let t = Instant::now();
    for (job, _) in &pass.stored {
        black_box(job.key());
    }
    let key_ns = t.elapsed().as_secs_f64() * 1e9 / pass.stored.len() as f64;
    Ok(vec![
        ("store.commit.us", median(&commit)),
        ("store.load.us", median(&load)),
        (
            "store.bytes_per_entry",
            tier.sharded().stats().bytes as f64 / pass.stored.len() as f64,
        ),
        ("codec.roundtrip.us", median(&codec)),
        ("key.ns", key_ns),
    ])
}

/// Plan, capture (telemetry on, 1/64 request tracing) and export one job
/// shaped like the workload's: C1 under HydrogenFull at the workload's
/// config, or the first scenario.
fn capture_probe(w: Workload, ctx: &Ctx) -> Result<Vec<(&'static str, f64)>, String> {
    const PLANS: usize = 10;
    let (name, kind) = SCENARIO_POLICY;
    let c1 = mix("C1");
    let mut plan_us = Vec::new();
    let (report, file) = match w {
        Workload::VerifyQuick | Workload::SweepGrid => {
            let mut cfg = match w {
                Workload::VerifyQuick => verify_cfg(ctx.smoke),
                _ => sweep_spec(ctx.seed, ctx.smoke)?.base_config()?,
            };
            cfg.trace_sample = Some(TRACE_SAMPLE);
            let (cpu, gpu) = (c1.cpu_specs(), c1.gpu_spec());
            for _ in 0..PLANS {
                let t = Instant::now();
                black_box(plan_from_workloads(&cfg, &cpu, Some(&gpu)));
                plan_us.push(micros(t));
            }
            run_mix_capture(&cfg, &c1, name, kind)
        }
        Workload::ScenarioReplay => {
            let cfg = replay_cfg(ctx.smoke);
            let sc = &scenarios(ctx.seed, ctx.smoke)?[0];
            let rcfg = scenario_config(&cfg, sc);
            for _ in 0..PLANS {
                let t = Instant::now();
                black_box(scenario_plan(&rcfg, sc));
                plan_us.push(micros(t));
            }
            let (report, file) = run_scenario_capture(&cfg, sc, name, kind, true);
            (report, file.ok_or("a capture run returned no trace")?)
        }
    };
    let records = file
        .units
        .iter()
        .map(|u| u.records.len())
        .sum::<usize>()
        .max(1) as f64;
    let t = Instant::now();
    let bytes = file.encode();
    let encode_ns = t.elapsed().as_secs_f64() * 1e9;
    let t = Instant::now();
    black_box(TraceFile::decode(&bytes)?);
    let decode_ns = t.elapsed().as_secs_f64() * 1e9;
    let t = Instant::now();
    let telemetry = report
        .telemetry_json_string()
        .ok_or("the capture run carries no telemetry")?;
    let telemetry_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    black_box(
        report
            .chrome_trace_json_string()
            .ok_or("the capture run carries no spans")?,
    );
    let export_ms = t.elapsed().as_secs_f64() * 1e3;
    let trace = report
        .trace
        .as_ref()
        .ok_or("the capture run carries no spans")?;
    let kept = trace.spans.len() as f64;
    Ok(vec![
        ("trace.encode.ns_per_record", encode_ns / records),
        ("trace.decode.ns_per_record", decode_ns / records),
        ("trace.bytes_per_record", bytes.len() as f64 / records),
        ("frontend.plan_us", median(&plan_us)),
        ("telemetry.json_ms", telemetry_ms),
        ("telemetry.bytes", telemetry.len() as f64),
        ("trace_export.ms", export_ms),
        ("spans.kept", kept),
        (
            "spans.dropped_share",
            trace.dropped as f64 / (kept + trace.dropped as f64).max(1.0),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_grid_at_seed_zero_is_the_example_grid() {
        let example =
            SweepSpec::parse(include_str!("../../../../examples/sweeps/grid.json")).unwrap();
        let keys = |spec: &SweepSpec| {
            grid_jobs(spec)
                .unwrap()
                .iter()
                .map(Job::key)
                .collect::<Vec<_>>()
        };
        let embedded = keys(&sweep_spec(0, false).unwrap());
        assert_eq!(embedded.len(), 200);
        assert_eq!(embedded, keys(&example));
        assert_ne!(
            keys(&sweep_spec(1, false).unwrap()),
            embedded,
            "the seed moves the grid"
        );
        assert_eq!(keys(&sweep_spec(0, true).unwrap()).len(), 8);
    }

    #[test]
    fn embedded_scenario_parses_and_validates() {
        let sc = scenario().unwrap();
        let example = include_str!("../../../../examples/scenarios/inference_hpc_analytics.json");
        assert_eq!(
            sc,
            TenantScenario::from_json(&Json::parse(example).unwrap()).unwrap()
        );
        scenario_config(&replay_cfg(false), &sc).validate().unwrap();
        let seeds: Vec<u64> = scenarios(3, false)
            .unwrap()
            .iter()
            .map(|s| s.seed)
            .collect();
        assert_eq!(seeds, (14..=23).collect::<Vec<_>>());
    }
}
