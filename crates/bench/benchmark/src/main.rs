//! `h2-benchmark` — the repository benchmark (see `README.md` beside this
//! package).
//!
//! ```text
//! h2-benchmark [--workload W|all] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
//! h2-benchmark compare A.jsonl... -- B.jsonl...
//! ```
//!
//! A run measures one pass of each workload untraced for its end-to-end
//! metrics, normalised to a reference host speed (see `speed`); with
//! `--trace 1` it then repeats the pass under the host profiler and the
//! counting allocator for the per-layer ledger. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). `--out`
//! appends a fuller record — manifest, digest, raw samples — as one JSON
//! line, the input of `compare`.

mod heap;
mod ledger;
mod metrics;
mod speed;
mod workloads;

use h2_sim_core::{prof, Json};
use h2_system::{run_sim, PolicyKind, RunReport, SystemConfig};
use h2_trace::Mix;
use ledger::{host_times, sim_digest, sim_stats};
use metrics::{median, percentile, quartiles, verdict, Metric, Verdict, END_TO_END, PER_LAYER};
use speed::Clock;
use std::fs;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use workloads::{Checks, Ctx, Workload};

#[global_allocator]
static GLOBAL: heap::Counting = heap::Counting;

/// Set-up probes run in timed batches, each normalised on its own like
/// any other timed unit; `setup_s` is the median over every probe.
const SETUP_BATCHES: usize = 10;
const SETUP_PER_BATCH: usize = 25;

const USAGE: &str = "usage: h2-benchmark [--workload verify_quick|sweep_grid|scenario_replay|all] \
[--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]\n       \
h2-benchmark compare A.jsonl... -- B.jsonl...";

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    /// Measuring floor of a pass: warm re-requests go on until it is met.
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
        };
        let unsigned = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg} needs an unsigned integer, got '{v}'"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?],
                };
            }
            "--seed" => o.seed = unsigned(value()?)?,
            "--seconds" => o.seconds = unsigned(value()?)? as f64,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument '{arg}'\n{USAGE}")),
        }
    }
    Ok(o)
}

/// Everything one workload run measured.
struct Outcome {
    workload: Workload,
    /// Every measured metric, by catalogue name.
    values: Vec<(&'static str, f64)>,
    /// Un-normalised values of the timed end-to-end metrics.
    raw: Vec<(&'static str, f64)>,
    /// The raw timing samples behind the medians.
    samples: Vec<(&'static str, Vec<f64>)>,
    checks: Checks,
    digest: u128,
}

impl Outcome {
    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// `{name: {value, unit}}` for every metric of `list`. Layer values a
    /// workload has no use for (`paper_rel_err` off `verify_quick`, the
    /// sweep pool off `sweep_grid`) read 0.
    fn metrics_json(&self, list: &[Metric]) -> Json {
        list.iter().fold(Json::obj(), |m, spec| {
            let v = self.value(spec.name).unwrap_or(0.0);
            m.field(
                spec.name,
                Json::obj().field("value", v).field("unit", spec.unit),
            )
        })
    }
}

/// Simulated Mcycles per second of simulation loop, each run's loop time
/// multiplied by its `scale` (1 for raw seconds).
fn mcycles_per_s(runs: &[RunReport], scale: &[f64], cycles_per_run: u64) -> f64 {
    let loop_s: f64 = runs.iter().zip(scale).map(|(r, s)| r.wall_s * s).sum();
    runs.len() as f64 * cycles_per_run as f64 / loop_s / 1e6
}

/// Normalised and raw seconds of every set-up probe, in order (fewer in
/// smoke mode).
fn setup_probes(w: Workload, ctx: &Ctx) -> Result<(Vec<f64>, Vec<f64>), String> {
    let batches = if ctx.smoke { 2 } else { SETUP_BATCHES };
    let (mut norm, mut raw) = (Vec::new(), Vec::new());
    let mut clock = Clock::start();
    for _ in 0..batches {
        let (probes, t) = clock.time(|| {
            (0..SETUP_PER_BATCH)
                .map(|_| w.setup_probe(ctx))
                .collect::<Result<Vec<_>, _>>()
        });
        let probes = probes?;
        norm.extend(probes.iter().map(|s| s * t.norm / t.raw));
        raw.extend(probes);
    }
    Ok((norm, raw))
}

fn run_workload(w: Workload, o: &Opts, work: &Path) -> Result<Outcome, String> {
    let mut ctx = Ctx::new(o.seed, o.smoke, o.seconds, work);
    let mut checks = Checks::default();
    heap::reset_peak();
    // Lazily built process state is paid here, untimed. Every simulated
    // run still starts with empty caches and simulates its own warm-up.
    let c1 = Mix::by_name("C1").expect("Table II mix");
    black_box(run_sim(&SystemConfig::tiny(), &c1, PolicyKind::NoPart));
    let (setup, setup_raw) = setup_probes(w, &ctx)?;

    let pass = w.pass(&mut ctx, &mut checks)?;
    let peak_mb = heap::peak_bytes() as f64 / (1u64 << 20) as f64;
    let cycles = w.cycles_per_run(&ctx)?;
    let digest = sim_digest(&pass.runs);
    let ones = vec![1.0; pass.runs.len()];
    let hit_rates = |norm: bool| -> Vec<f64> {
        pass.hits
            .iter()
            .map(|&(n, t)| n as f64 / if norm { t.norm } else { t.raw })
            .collect()
    };
    let (hits, hits_raw) = (hit_rates(true), hit_rates(false));
    let job_s: Vec<f64> = pass.runs.iter().map(|r| r.wall_s).collect();
    let mut values = vec![
        ("wall_s", pass.wall.norm),
        (
            "sim_mcycles_per_s",
            mcycles_per_s(&pass.runs, &pass.scale, cycles),
        ),
        ("hit_jobs_per_s", median(&hits)),
        ("peak_heap_mb", peak_mb),
        ("setup_s", median(&setup)),
        ("job_s.p50", median(&job_s)),
    ];
    let raw = vec![
        ("wall_s", pass.wall.raw),
        (
            "sim_mcycles_per_s",
            mcycles_per_s(&pass.runs, &ones, cycles),
        ),
        ("hit_jobs_per_s", median(&hits_raw)),
        ("setup_s", median(&setup_raw)),
    ];
    values.extend(pass.extra.iter().copied());
    values.extend(sim_stats(&pass.runs, cycles));

    if o.trace {
        prof::set_alloc_probe(heap::allocs);
        prof::reset();
        let allocs0 = heap::allocs();
        prof::arm();
        let traced = w.pass(&mut ctx, &mut checks);
        prof::disarm();
        let allocs = heap::allocs() - allocs0;
        let profile = prof::take_report();
        let traced = traced?;
        checks.check(sim_digest(&traced.runs) == digest, || {
            "the traced pass simulated different results".into()
        });
        let events: u64 = traced.runs.iter().map(|r| r.events_processed).sum();
        let kcycles = traced.runs.len() as f64 * cycles as f64 / 1e3;
        values.extend(host_times(&profile, events, kcycles));
        values.push(("prof.overhead", traced.wall.norm / pass.wall.norm - 1.0));
        values.push(("alloc.per_event", allocs as f64 / events.max(1) as f64));
        values.extend(w.layer_probe(&mut ctx, &mut checks, &pass)?);
    }
    let samples = vec![
        ("setup_s", setup),
        ("hit_jobs_per_s", hits),
        ("job_s", job_s),
        ("unit_s", pass.clock.units.clone()),
        ("reference_s", pass.clock.samples.clone()),
    ];
    Ok(Outcome {
        workload: w,
        values,
        raw,
        samples,
        checks,
        digest,
    })
}

/// Human-readable report of one workload (everything but the last line).
fn print_outcome(out: &Outcome, trace: bool) {
    println!("== {} ==", out.workload.name());
    println!("sim_digest {} {:032x}", out.workload.name(), out.digest);
    let lists: &[&[Metric]] = if trace {
        &[END_TO_END, PER_LAYER]
    } else {
        &[END_TO_END]
    };
    for m in lists.iter().flat_map(|l| l.iter()) {
        if let Some(v) = out.value(m.name) {
            let raw = out.raw.iter().find(|(n, _)| *n == m.name);
            let raw = raw.map_or(String::new(), |(_, r)| format!(" (raw {r:.6})"));
            println!("  {:<36} {:>16.6} {}{raw}", m.name, v, m.unit);
        }
    }
    for (name, xs) in &out.samples {
        let tail = percentile(xs, 0.95).map_or(String::new(), |p| format!(", p95 {p:.6}"));
        println!(
            "  samples {name}: n={}, median {:.6}{tail}",
            xs.len(),
            median(xs)
        );
    }
    println!(
        "  checks: {} attempted, {} failed",
        out.checks.attempted, out.checks.failed
    );
    for f in &out.checks.failures {
        eprintln!("[h2-benchmark] {}: check failed: {f}", out.workload.name());
    }
}

/// Where this run was made: code revision, host, inputs.
fn manifest(args: &[String]) -> Json {
    // Only ask git inside a checkout's root, never a parent repository.
    let git = |argv: &[&str]| -> Option<String> {
        if !Path::new(".git").exists() {
            return None;
        }
        let out = std::process::Command::new("git").args(argv).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    let cpu = fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut argv = Json::arr();
    for a in args {
        argv.push(a.as_str());
    }
    Json::obj()
        .field("git_rev", rev.map_or(Json::Null, Json::from))
        .field("git_dirty", dirty.map_or(Json::Null, Json::from))
        .field("nproc", nproc)
        .field("cpu_model", cpu.map_or(Json::Null, Json::from))
        .field("args", argv)
}

fn record(out: &Outcome, o: &Opts, args: &[String]) -> Json {
    let mut failures = Json::arr();
    for f in &out.checks.failures {
        failures.push(f.as_str());
    }
    let all: Vec<Metric> = END_TO_END
        .iter()
        .chain(if o.trace { PER_LAYER } else { &[] })
        .copied()
        .collect();
    let samples = out.samples.iter().fold(Json::obj(), |j, (name, xs)| {
        let mut a = Json::arr();
        for &x in xs {
            a.push(x);
        }
        j.field(name, a)
    });
    let raw = out
        .raw
        .iter()
        .fold(Json::obj(), |j, &(name, v)| j.field(name, v));
    Json::obj()
        .field("manifest", manifest(args))
        .field("workload", out.workload.name())
        .field("seed", o.seed)
        .field("trace", o.trace)
        .field("smoke", o.smoke)
        .field("correct", out.checks.failed == 0)
        .field("attempted", out.checks.attempted)
        .field("failed", out.checks.failed)
        .field("failures", failures)
        .field("sim_digest", format!("{:032x}", out.digest))
        .field("metrics", out.metrics_json(&all))
        .field("raw", raw)
        .field("samples", samples)
}

/// Removes the run's scratch directory (stores it wrote) when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let o = parse_opts(args)?;
    // Stores go under the build directory of the checkout, never /tmp.
    let root =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let work = WorkDir(
        root.join("h2-benchmark-work")
            .join(std::process::id().to_string()),
    );
    let mut outcomes = Vec::new();
    for &w in &o.workloads {
        let out = run_workload(w, &o, &work.0)?;
        print_outcome(&out, o.trace);
        if let Some(path) = &o.out {
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            writeln!(f, "{}", record(&out, &o, args).to_string_compact())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        outcomes.push(out);
    }
    let list = if o.trace { PER_LAYER } else { END_TO_END };
    let metrics = match outcomes.as_slice() {
        [one] => one.metrics_json(list),
        many => many.iter().fold(Json::obj(), |j, out| {
            let fields = out.metrics_json(list);
            fields
                .as_object()
                .unwrap_or_default()
                .iter()
                .fold(j, |j, (name, v)| {
                    j.field(&format!("{}/{name}", out.workload.name()), v.clone())
                })
        }),
    };
    let attempted: u64 = outcomes.iter().map(|out| out.checks.attempted).sum();
    let failed: u64 = outcomes.iter().map(|out| out.checks.failed).sum();
    let line = Json::obj()
        .field("correct", failed == 0)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics);
    println!("{}", line.to_string_compact());
    Ok(failed == 0)
}

/// Per-workload values of a metric across records, in file order (so
/// interleaved runs pair up by index).
fn series(docs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter(|d| d.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|d| d.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load_records(files: &[String]) -> Result<Vec<Json>, String> {
    let mut docs = Vec::new();
    for f in files {
        let text = fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            docs.push(Json::parse(line).map_err(|e| format!("{f}:{}: {e}", i + 1))?);
        }
    }
    Ok(docs)
}

/// `compare A… -- B…`: one row per workload × end-to-end metric, each
/// side's median and quartiles, and the verdict under the metric's bound.
/// Returns false when any row is worse.
fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let split = args.iter().position(|a| a == "--").ok_or(USAGE)?;
    let (a_files, b_files) = (&args[..split], &args[split + 1..]);
    if a_files.is_empty() || b_files.is_empty() {
        return Err(USAGE.into());
    }
    let (a, b) = (load_records(a_files)?, load_records(b_files)?);
    let mut names: Vec<&str> = Vec::new();
    for d in a.iter().chain(&b) {
        let w = d
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a record has no workload")?;
        if !names.contains(&w) {
            names.push(w);
        }
    }
    let side = |xs: &[f64]| {
        let (q1, med, q3) = quartiles(xs);
        format!("{med:.6} [{q1:.6}, {q3:.6}] n={}", xs.len())
    };
    println!(
        "{:<16} {:<18} {:<10} {:<44} {:<44} verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]"
    );
    let mut ok = true;
    for w in names {
        for m in END_TO_END {
            let (xs, ys) = (series(&a, w, m.name), series(&b, w, m.name));
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let v = verdict(
                m.better,
                m.bound.expect("end-to-end metrics carry a bound"),
                &xs,
                &ys,
            );
            ok &= v != Verdict::Worse;
            println!(
                "{w:<16} {:<18} {:<10} {:<44} {:<44} {}",
                m.name,
                m.unit,
                side(&xs),
                side(&ys),
                v.as_str()
            );
        }
    }
    for d in a.iter().chain(&b) {
        if d.get("correct").and_then(Json::as_bool) == Some(false) {
            println!(
                "note: a {} record failed its correctness checks",
                d.get("workload").and_then(Json::as_str).unwrap_or("?")
            );
            ok = false;
        }
    }
    Ok(ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        _ => cmd_run(&args),
    };
    let code = match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("h2-benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        Json::parse(&fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(entries.len(), list.len(), "{key}");
            for (e, m) in entries.iter().zip(list) {
                assert_eq!(e.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(
                    e.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                let better = match m.better {
                    metrics::Better::Lower => "lower",
                    metrics::Better::Higher => "higher",
                };
                assert_eq!(
                    e.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    m.name
                );
                assert_eq!(e.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn smoke_runs_pass_every_check_and_emit_every_metric() {
        let work =
            WorkDir(std::env::temp_dir().join(format!("h2-benchmark-test-{}", std::process::id())));
        let o = Opts {
            workloads: Workload::ALL.to_vec(),
            seed: 1,
            seconds: 0.0,
            trace: true,
            smoke: true,
            out: None,
        };
        for w in Workload::ALL {
            let out = run_workload(w, &o, &work.0).unwrap();
            assert!(out.checks.attempted > 0, "{}", w.name());
            assert_eq!(out.checks.failures, Vec::<String>::new(), "{}", w.name());
            for (list, json) in [
                (END_TO_END, out.metrics_json(END_TO_END)),
                (PER_LAYER, out.metrics_json(PER_LAYER)),
            ] {
                for m in list {
                    let entry = json
                        .get(m.name)
                        .unwrap_or_else(|| panic!("{} lacks {}", w.name(), m.name));
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                    assert!(
                        entry
                            .get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{}",
                        m.name
                    );
                }
            }
            for m in END_TO_END {
                assert!(
                    out.value(m.name).is_some_and(|v| v > 0.0),
                    "{} {} must be measured",
                    w.name(),
                    m.name
                );
            }
            // Every timed layer is exercised by every workload.
            for m in PER_LAYER
                .iter()
                .filter(|m| ["ns", "us", "ms", "s"].contains(&m.unit))
            {
                assert!(
                    out.value(m.name).is_some_and(|v| v > 0.0),
                    "{} {} is not exercised",
                    w.name(),
                    m.name
                );
            }
        }
    }
}
