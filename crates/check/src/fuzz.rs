//! The fuzz driver: battery execution, failing-case minimisation, and the
//! self-contained `repro.json` format.
//!
//! Each case runs a battery of checks (invariant monitors on a calendar
//! run, an engine-differential heap run, harness-supplied persistence
//! oracles, blame tiling, and one metamorphic relation). On the first
//! failing case the driver shrinks it — dropping workload components,
//! halving windows, simplifying the seed — accepting a candidate only if
//! the *same named check* still fails, then reports the minimal case.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::case::FuzzCase;
use crate::diff::diff_reports;
use crate::monitors::standard_monitors;
use crate::relations;
use h2_sim_core::trace_span::tiles_exactly;
use h2_sim_core::Json;
use h2_system::{
    plan_from_workloads, run_plan_on_heap, run_workloads_monitored, PolicyKind, RunReport,
    SystemConfig,
};
use h2_trace::WorkloadSpec;

/// [`h2_system::run_workloads`] on the legacy binary-heap event queue: the
/// reference run of the engine-differential oracle.
pub fn run_workloads_on_heap(
    cfg: &SystemConfig,
    label: &str,
    cpu_specs: &[WorkloadSpec],
    gpu_spec: Option<&WorkloadSpec>,
    kind: PolicyKind,
    fast_capacity: u64,
) -> RunReport {
    let plan = plan_from_workloads(cfg, cpu_specs, gpu_spec);
    run_plan_on_heap(cfg, label, kind, fast_capacity, plan)
}

/// Run label used for every battery run. Constant so that re-runs of the
/// same case (engine oracle, relations, replay) compare equal on
/// `RunReport::mix`.
pub const FUZZ_LABEL: &str = "fuzz";

/// The persistence-codec oracle: encode the report and decode it back.
pub type CodecOracle = fn(&RunReport) -> Result<RunReport, String>;

/// The run-cache oracle: store/replay the case through the persistent
/// cache and diff against the fresh run (`Some(mismatch)` on divergence).
pub type CachedReplayOracle = fn(&FuzzCase) -> Result<Option<String>, String>;

/// Differential oracles supplied by the harness layer (which owns the
/// persistence codec and the run cache); `None` hooks are skipped. Plain
/// function pointers keep the battery `UnwindSafe`.
#[derive(Clone, Copy, Default)]
pub struct OracleHooks {
    /// Encode the report with the persistence codec and decode it back;
    /// the battery diffs the result against the original.
    pub codec_roundtrip: Option<CodecOracle>,
    /// Run the case through the on-disk run cache twice (store, then
    /// replay) and compare. Returns `Some(mismatch)` on divergence.
    pub cached_replay: Option<CachedReplayOracle>,
}

/// One named check failure. `check` is stable across re-runs of the same
/// underlying bug — it is what the shrinker matches on.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// `invariant:<monitor>`, `oracle:<name>`, `relation:<name>`,
    /// `build`, or `panic`.
    pub check: String,
    /// Human-readable details.
    pub message: String,
}

impl Failure {
    fn new(check: impl Into<String>, message: impl Into<String>) -> Failure {
        Failure { check: check.into(), message: message.into() }
    }
}

/// Execute the full check battery for one case.
pub fn run_battery(case: &FuzzCase, hooks: &OracleHooks) -> Result<(), Failure> {
    let case = case.clone();
    let hooks = *hooks;
    match panic::catch_unwind(AssertUnwindSafe(move || battery_inner(&case, &hooks))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(Failure::new("panic", msg))
        }
    }
}

fn battery_inner(case: &FuzzCase, hooks: &OracleHooks) -> Result<(), Failure> {
    let (cfg, cpu, gpu, kind, cap) = case
        .build()
        .map_err(|e| Failure::new("build", e))?;

    // 1. Monitored run on the default (calendar) engine.
    let mut monitors = standard_monitors();
    let report = run_workloads_monitored(
        &cfg,
        FUZZ_LABEL,
        &cpu,
        gpu.as_ref(),
        kind,
        cap,
        Some(&mut monitors),
    );
    if let Some(v) = monitors.violations().first() {
        return Err(Failure::new(format!("invariant:{}", v.monitor), v.to_string()));
    }

    // 2. Blame tiling: every sampled span's blamed intervals must exactly
    //    tile its lifetime.
    if let Some(trace) = &report.trace {
        for span in &trace.spans {
            if !tiles_exactly(&span.intervals, span.start, span.end) {
                return Err(Failure::new(
                    "invariant:blame-tiling",
                    format!(
                        "span {} [{}, {}) not tiled by {} intervals",
                        span.id,
                        span.start,
                        span.end,
                        span.intervals.len()
                    ),
                ));
            }
        }
    }

    // 3. Engine differential: an *unmonitored* heap-engine run must match
    //    byte-for-byte — proving both engine equivalence and that the
    //    monitors perturbed nothing.
    let heap = run_workloads_on_heap(&cfg, FUZZ_LABEL, &cpu, gpu.as_ref(), kind, cap);
    if let Some(d) = diff_reports(&report, &heap) {
        return Err(Failure::new(
            "oracle:engine-diff",
            format!("calendar vs heap diverged: {d}"),
        ));
    }

    // 4. Persistence codec round-trip (harness hook).
    if let Some(roundtrip) = hooks.codec_roundtrip {
        let decoded = roundtrip(&report)
            .map_err(|e| Failure::new("oracle:codec", e))?;
        if let Some(d) = diff_reports(&report, &decoded) {
            return Err(Failure::new(
                "oracle:codec",
                format!("decode(encode(report)) diverged: {d}"),
            ));
        }
    }

    // 5. Run-cache store/replay (harness hook).
    if let Some(replay) = hooks.cached_replay {
        match replay(case) {
            Ok(None) => {}
            Ok(Some(d)) => {
                return Err(Failure::new(
                    "oracle:cached-replay",
                    format!("cached replay diverged from fresh run: {d}"),
                ))
            }
            Err(e) => return Err(Failure::new("oracle:cached-replay", e)),
        }
    }

    // 6. One metamorphic relation, rotated by seed so a fuzz run spreads
    //    cases across the catalogue.
    let rels = relations::applicable(case);
    let rel = rels[case.case_seed as usize % rels.len()];
    relations::check(rel, case, FUZZ_LABEL, &report)
        .map_err(|e| Failure::new(format!("relation:{}", rel.name()), e))?;

    // 7. Multi-tenant scenario battery (partition law, engine diff, blame
    //    tiling, tenant-permutation relation). Scenarios are a separate
    //    front-end family with their own sampled generator, so one case
    //    in eight suffices to keep campaign throughput.
    if case.case_seed.is_multiple_of(8) {
        crate::tenancy::scenario_battery(case.case_seed, case.sim_seed)
            .map_err(|e| Failure::new("relation:tenant-scenario", e))?;
    }

    Ok(())
}

/// Shrink candidates for `case`, most aggressive first. Every candidate
/// is strictly "smaller" by a well-founded measure (fewer workload
/// components, shorter windows, fewer processors, simpler seed), so
/// greedy iteration terminates.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    // Drop whole workload components first: the biggest simplification.
    for i in 0..case.cpu.len() {
        let mut c = case.clone();
        c.cpu.remove(i);
        if !c.cpu.is_empty() || c.gpu.is_some() {
            out.push(c);
        }
    }
    if case.gpu.is_some() && !case.cpu.is_empty() {
        let mut c = case.clone();
        c.gpu = None;
        out.push(c);
    }
    // Shorter windows shrink the trace a debugger has to wade through.
    if case.measure_cycles / 2 >= case.epoch_cycles {
        let mut c = case.clone();
        c.measure_cycles /= 2;
        out.push(c);
    }
    if case.warmup_cycles >= 20_000 {
        let mut c = case.clone();
        c.warmup_cycles /= 2;
        out.push(c);
    }
    if case.epoch_cycles >= 2_000 {
        let mut c = case.clone();
        c.epoch_cycles /= 2;
        out.push(c);
    }
    if case.faucet_cycles >= 2_000 {
        let mut c = case.clone();
        c.faucet_cycles /= 2;
        out.push(c);
    }
    // Fewer processors mean fewer interleavings in the reproducer.
    if case.cpu_cores > 1 {
        let mut c = case.clone();
        c.cpu_cores /= 2;
        out.push(c);
    }
    if case.gpu_eus > 1 {
        let mut c = case.clone();
        c.gpu_eus /= 2;
        out.push(c);
    }
    // Observation layers off, unless the bug lives there.
    if case.trace_sample.is_some() {
        let mut c = case.clone();
        c.trace_sample = None;
        out.push(c);
    }
    // A canonical seed reads better in a committed reproducer.
    for s in [0, 1] {
        if case.sim_seed > s {
            let mut c = case.clone();
            c.sim_seed = s;
            out.push(c);
        }
    }
    out
}

/// Greedily minimise `case` while the same named check keeps failing.
/// `max_attempts` bounds total battery executions (each one is a handful
/// of tiny simulations).
pub fn shrink(
    case: &FuzzCase,
    failure: &Failure,
    hooks: &OracleHooks,
    max_attempts: usize,
) -> FuzzCase {
    let mut current = case.clone();
    let mut attempts = 0;
    loop {
        let mut improved = false;
        for cand in candidates(&current) {
            if attempts >= max_attempts {
                return current;
            }
            attempts += 1;
            if let Err(f) = run_battery(&cand, hooks) {
                if f.check == failure.check {
                    current = cand;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Outcome of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Cases fully executed (including the failing one, if any).
    pub cases_run: u64,
    /// Whether the campaign stopped on the time budget.
    pub budget_exhausted: bool,
    /// `(original, failure, shrunk)` for the first failing case.
    pub failure: Option<(FuzzCase, Failure, FuzzCase)>,
}

/// Fuzz `seeds` cases starting at `start_seed`, stopping early on the
/// first failure (which is then shrunk) or when `time_budget` runs out.
/// `progress` is called before each case with `(seed, case)`.
pub fn fuzz(
    start_seed: u64,
    seeds: u64,
    time_budget: Option<Duration>,
    hooks: &OracleHooks,
    progress: &mut dyn FnMut(u64, &FuzzCase),
) -> FuzzOutcome {
    let t0 = Instant::now();
    let mut cases_run = 0;
    for seed in start_seed..start_seed.saturating_add(seeds) {
        if let Some(budget) = time_budget {
            if t0.elapsed() >= budget {
                return FuzzOutcome { cases_run, budget_exhausted: true, failure: None };
            }
        }
        let case = FuzzCase::generate(seed);
        progress(seed, &case);
        cases_run += 1;
        if let Err(failure) = run_battery(&case, hooks) {
            let shrunk = shrink(&case, &failure, hooks, 64);
            return FuzzOutcome {
                cases_run,
                budget_exhausted: false,
                failure: Some((case, failure, shrunk)),
            };
        }
    }
    FuzzOutcome { cases_run, budget_exhausted: false, failure: None }
}

/// Serialise a shrunk failing case as a self-contained `repro.json`
/// document (pretty-printed, trailing newline).
pub fn repro_json(case: &FuzzCase, failure: &Failure) -> String {
    Json::obj()
        .field("version", 1u64)
        .field("case", case.to_json())
        .field(
            "failure",
            Json::obj()
                .field("check", failure.check.as_str())
                .field("message", failure.message.as_str()),
        )
        .to_string_pretty()
}

/// Parse a `repro.json` document back into its case and recorded failure.
pub fn parse_repro(text: &str) -> Result<(FuzzCase, Failure), String> {
    let j = Json::parse(text)?;
    match j.get("version") {
        Some(Json::U64(1)) => {}
        Some(v) => return Err(format!("unsupported repro version {v:?}")),
        None => return Err("repro is missing 'version'".into()),
    }
    let case = FuzzCase::from_json(
        j.get("case").ok_or("repro is missing 'case'")?,
    )?;
    let failure = match j.get("failure") {
        Some(f) => Failure {
            check: match f.get("check") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err("repro failure is missing 'check'".into()),
            },
            message: match f.get("message") {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            },
        },
        None => return Err("repro is missing 'failure'".into()),
    };
    Ok((case, failure))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_case(seed: u64) -> FuzzCase {
        let mut c = FuzzCase::generate(seed);
        c.warmup_cycles = 60_000;
        c.measure_cycles = 2 * c.epoch_cycles.min(40_000);
        c.epoch_cycles = c.epoch_cycles.min(40_000);
        c
    }

    #[test]
    fn battery_passes_on_small_seeds() {
        let hooks = OracleHooks::default();
        for seed in 0..4 {
            let c = quick_case(seed);
            run_battery(&c, &hooks).unwrap_or_else(|f| {
                panic!("seed {seed} failed {}: {}", f.check, f.message)
            });
        }
    }

    #[test]
    fn battery_reports_panics_as_failures() {
        let hooks = OracleHooks {
            codec_roundtrip: Some(|_| panic!("codec exploded")),
            cached_replay: None,
        };
        let f = run_battery(&quick_case(0), &hooks).unwrap_err();
        assert_eq!(f.check, "panic");
        assert!(f.message.contains("codec exploded"));
    }

    #[test]
    fn failing_oracle_is_named_and_shrunk() {
        // A hook that always reports divergence stands in for a real bug;
        // it keeps failing no matter how the case shrinks, so the shrinker
        // should drive the case to a single workload component.
        let hooks = OracleHooks {
            codec_roundtrip: None,
            cached_replay: Some(|_| Ok(Some("always diverges".into()))),
        };
        let mut case = quick_case(1);
        case.cpu = vec!["gcc".into(), "mcf".into(), "lbm".into()];
        case.gpu = Some("bfs".into());
        let failure = run_battery(&case, &hooks).unwrap_err();
        assert_eq!(failure.check, "oracle:cached-replay");
        let shrunk = shrink(&case, &failure, &hooks, 64);
        let components = shrunk.cpu.len() + usize::from(shrunk.gpu.is_some());
        assert!(components <= 1, "shrunk to {} components", components);
        assert!(shrunk.measure_cycles <= case.measure_cycles);
        // The shrunk case still fails the same check.
        assert_eq!(run_battery(&shrunk, &hooks).unwrap_err().check, failure.check);
    }

    #[test]
    fn repro_json_roundtrip() {
        let case = FuzzCase::generate(9);
        let failure = Failure::new("invariant:token-conservation", "granted 10 != ...");
        let text = repro_json(&case, &failure);
        let (c2, f2) = parse_repro(&text).unwrap();
        assert_eq!(c2, case);
        assert_eq!(f2, failure);
    }

    #[test]
    fn parse_repro_rejects_malformed_documents() {
        assert!(parse_repro("not json").is_err());
        assert!(parse_repro("{}").is_err());
        let no_case = Json::obj().field("version", 1u64).to_string_pretty();
        assert!(parse_repro(&no_case).unwrap_err().contains("case"));
    }

    #[test]
    fn fuzz_driver_reports_clean_campaigns() {
        let hooks = OracleHooks::default();
        let mut seen = 0;
        let outcome = fuzz(0, 2, None, &hooks, &mut |_, _| seen += 1);
        assert_eq!(outcome.cases_run, 2);
        assert_eq!(seen, 2);
        assert!(outcome.failure.is_none());
        assert!(!outcome.budget_exhausted);
    }

    #[test]
    fn fuzz_driver_respects_time_budget() {
        let hooks = OracleHooks::default();
        let outcome = fuzz(0, 1_000_000, Some(Duration::ZERO), &hooks, &mut |_, _| {});
        assert!(outcome.budget_exhausted);
        assert_eq!(outcome.cases_run, 0);
    }
}
