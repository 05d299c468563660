//! `h2 run --scenario/--capture/--replay` — the datacenter scenario pack
//! CLI (DESIGN.md §18).
//!
//! Three trace-mode invocations, all mutually deterministic:
//!
//! ```text
//! h2 run --scenario spec.json [--policy P] [--scale S] [--capture out.h2trace]
//! h2 run --mix C1 --capture out.h2trace [--policy P] [--scale S]
//! h2 run --replay in.h2trace [--policy P] [--capture out.h2trace]
//! ```
//!
//! A capture embeds the *exact* resolved [`SystemConfig`] (canonical
//! JSON), the policy name, and the fast-tier capacity in the `.h2trace`
//! header, so `--replay` rebuilds the identical run with no further
//! flags: the replayed report is bit-identical to the original, and
//! `--replay --capture` re-captures the identical byte stream (the
//! capture→replay→capture fixpoint the CI smoke job pins with `cmp`).

use crate::sweep::spec::Scale;
use h2_check::policy_by_name;
use h2_sim_core::{Json, LogHistogram};
use h2_system::{
    plan_from_workloads, replay_config, replay_plan, run_plan_monitored, scenario_config,
    scenario_plan, PolicyKind, RunReport, SystemConfig,
};
use h2_trace::{Mix, TenantScenario, TraceFile, UnitClass};
use std::path::{Path, PathBuf};

/// Parsed trace-mode arguments of `h2 run`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceRunArgs {
    /// Run a multi-tenant scenario from this JSON spec.
    pub scenario: Option<PathBuf>,
    /// Write the captured `.h2trace` here.
    pub capture: Option<PathBuf>,
    /// Replay a previously captured `.h2trace`.
    pub replay: Option<PathBuf>,
    /// Classic Table II mix to capture (`--capture` without `--scenario`).
    pub mix: Option<String>,
    /// Policy name (fuzz-catalog stable names); replay defaults to the
    /// captured policy, everything else to `NoPart`.
    pub policy: Option<String>,
    /// Base config scale (default: tiny).
    pub scale: Option<Scale>,
    /// Simulation seed override.
    pub seed: Option<u64>,
}

const USAGE: &str = "usage: h2 run --scenario <spec.json> [--policy P] [--scale tiny|scaled|paper] [--seed N] [--capture out.h2trace] | h2 run --mix <name> --capture <out.h2trace> [--policy P] [--scale S] [--seed N] | h2 run --replay <in.h2trace> [--policy P] [--capture out.h2trace]";

impl TraceRunArgs {
    /// Parse the arguments after `h2 run` (trace mode). Errors are
    /// complete messages ready for stderr.
    pub fn parse(args: &[String]) -> Result<TraceRunArgs, String> {
        let mut out = TraceRunArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .map(|s| s.to_string())
                    .ok_or_else(|| format!("{flag} needs an argument"))
            };
            match arg.as_str() {
                "--scenario" => out.scenario = Some(PathBuf::from(value("--scenario")?)),
                "--capture" => out.capture = Some(PathBuf::from(value("--capture")?)),
                "--replay" => out.replay = Some(PathBuf::from(value("--replay")?)),
                "--mix" => out.mix = Some(value("--mix")?),
                "--policy" => out.policy = Some(value("--policy")?),
                "--scale" => out.scale = Some(Scale::parse(&value("--scale")?)?),
                "--seed" => {
                    let v = value("--seed")?;
                    out.seed = Some(
                        v.parse()
                            .map_err(|_| format!("--seed needs an unsigned integer, got '{v}'"))?,
                    );
                }
                other => return Err(format!("unknown argument '{other}' ({USAGE})")),
            }
        }
        if out.replay.is_some() && (out.scenario.is_some() || out.mix.is_some()) {
            return Err("--replay is exclusive with --scenario/--mix (the trace header pins the workload)".into());
        }
        if out.scenario.is_some() && out.mix.is_some() {
            return Err("--scenario and --mix are mutually exclusive".into());
        }
        if out.replay.is_none() && out.scenario.is_none() {
            if out.mix.is_none() {
                return Err(format!("trace mode needs --scenario, --mix or --replay ({USAGE})"));
            }
            if out.capture.is_none() {
                return Err("--mix without --capture: use `h2 run <experiment>` for plain mix runs".into());
            }
        }
        Ok(out)
    }

    fn base_config(&self) -> SystemConfig {
        let mut cfg = self.scale.unwrap_or(Scale::Tiny).config();
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        cfg
    }

    fn policy(&self, default: &str) -> Result<(String, PolicyKind), String> {
        let name = self.policy.as_deref().unwrap_or(default);
        let kind = policy_by_name(name).ok_or_else(|| {
            format!("unknown policy '{name}' (see h2_check::POLICIES for stable names)")
        })?;
        Ok((name.to_string(), kind))
    }
}

/// The `.h2trace` header metadata a capture embeds: the resolved config,
/// the policy name, and the fast-tier capacity — everything `--replay`
/// needs to rebuild the run.
fn capture_meta(cfg: &SystemConfig, policy: &str, fast_capacity: u64) -> Json {
    Json::obj()
        .field("config", cfg.to_json())
        .field("policy", policy)
        .field("fast_capacity", fast_capacity)
}

/// Run a scenario, optionally capturing; returns the report and (when
/// capturing) the assembled trace file.
pub fn run_scenario_capture(
    cfg: &SystemConfig,
    sc: &TenantScenario,
    policy: &str,
    kind: PolicyKind,
    capture: bool,
) -> (RunReport, Option<TraceFile>) {
    let rcfg = scenario_config(cfg, sc);
    let (plan, fast_capacity) = scenario_plan(&rcfg, sc);
    let gpu_base = plan.gpu_base;
    let cpu_tenant = plan.cpu_tenant.clone();
    let gpu_tenant = plan.gpu_tenant.clone();
    let mut cap = None;
    let report = run_plan_monitored(
        &rcfg,
        &sc.name,
        kind,
        fast_capacity,
        plan,
        capture.then_some(&mut cap),
        None,
    );
    let file = cap.map(|c| {
        c.into_file(
            &sc.name,
            gpu_base,
            capture_meta(&rcfg, policy, fast_capacity),
            sc.tenant_infos(),
            &cpu_tenant,
            &gpu_tenant,
        )
    });
    (report, file)
}

/// Run a classic Table II mix with capture on; returns the report and the
/// assembled (untagged) trace file.
pub fn run_mix_capture(
    cfg: &SystemConfig,
    mix: &Mix,
    policy: &str,
    kind: PolicyKind,
) -> (RunReport, TraceFile) {
    let cpu_specs = mix.cpu_specs();
    let gpu_spec = mix.gpu_spec();
    let fast_capacity = cfg.fast_capacity_for(mix);
    let plan = plan_from_workloads(cfg, &cpu_specs, Some(&gpu_spec));
    let gpu_base = plan.gpu_base;
    let mut cap = None;
    let report =
        run_plan_monitored(cfg, mix.name, kind, fast_capacity, plan, Some(&mut cap), None);
    let file = cap.expect("capture slot requested").into_file(
        mix.name,
        gpu_base,
        capture_meta(cfg, policy, fast_capacity),
        Vec::new(),
        &[],
        &[],
    );
    (report, file)
}

/// Replay a decoded trace file using its embedded header (config, policy,
/// fast capacity). `policy_override` substitutes the policy; `recapture`
/// re-captures the replayed pull stream for the fixpoint check.
pub fn replay_trace(
    file: &TraceFile,
    policy_override: Option<&str>,
    recapture: bool,
) -> Result<(RunReport, String, Option<TraceFile>), String> {
    let meta_cfg = SystemConfig::from_json(
        file.meta
            .get("config")
            .ok_or("trace header has no 'config' (not captured by h2 run --capture?)")?,
    )
    .map_err(|e| format!("trace header config: {e}"))?;
    let policy = match policy_override {
        Some(p) => p.to_string(),
        None => file
            .meta
            .get("policy")
            .and_then(Json::as_str)
            .ok_or("trace header has no 'policy' (pass --policy to choose one)")?
            .to_string(),
    };
    let kind = policy_by_name(&policy).ok_or_else(|| {
        format!("unknown policy '{policy}' (see h2_check::POLICIES for stable names)")
    })?;
    let fast_capacity = file
        .meta
        .get("fast_capacity")
        .and_then(Json::as_u64)
        .ok_or("trace header has no 'fast_capacity'")?;
    let cfg = replay_config(&meta_cfg, file);
    let mut cap = None;
    let report = run_plan_monitored(
        &cfg,
        &file.label,
        kind,
        fast_capacity,
        replay_plan(file),
        recapture.then_some(&mut cap),
        None,
    );
    let refile = cap.map(|c| {
        let cpu_tenants: Vec<usize> = file
            .units
            .iter()
            .filter(|u| u.class == UnitClass::Cpu)
            .map(|u| u.tenant)
            .collect();
        let gpu_tenants: Vec<usize> = file
            .units
            .iter()
            .filter(|u| u.class == UnitClass::Gpu)
            .map(|u| u.tenant)
            .collect();
        c.into_file(
            &file.label,
            file.gpu_base,
            file.meta.clone(),
            file.tenants.clone(),
            &cpu_tenants,
            &gpu_tenants,
        )
    });
    Ok((report, policy, refile))
}

/// Total records across a trace file's units.
fn trace_records(file: &TraceFile) -> usize {
    file.units.iter().map(|u| u.records.len()).sum()
}

fn pct(h: &LogHistogram, q: f64) -> u64 {
    h.quantile(q)
}

/// Human summary of a trace-mode run: headline metrics plus the
/// per-tenant SLO table when the run carried tenant tags.
pub fn render_report(r: &RunReport, policy: &str) -> String {
    let mut out = format!(
        "run '{}' policy {}: {} cycles, cpu_instr {}, gpu_instr {}, weighted IPC {:.4}\n",
        r.mix,
        policy,
        r.measured_cycles,
        r.cpu_instr,
        r.gpu_instr,
        r.weighted_ipc()
    );
    if !r.tenants.is_empty() {
        out.push_str("tenant            prio  cpu_reqs  cpu_p50  cpu_p99  gpu_reqs  gpu_p50  gpu_p99\n");
        for t in &r.tenants {
            out.push_str(&format!(
                "{:<16}  {:>4}  {:>8}  {:>7}  {:>7}  {:>8}  {:>7}  {:>7}\n",
                t.name,
                t.priority,
                t.cpu_lat.count(),
                pct(&t.cpu_lat, 0.5),
                pct(&t.cpu_lat, 0.99),
                t.gpu_lat.count(),
                pct(&t.gpu_lat, 0.5),
                pct(&t.gpu_lat, 0.99),
            ));
        }
    }
    out
}

fn write_telemetry(r: &RunReport, policy: &str, dir: &Path) -> Result<Option<PathBuf>, String> {
    let Some(json) = r.telemetry_json_string() else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let name: String = r
        .mix
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    let path = dir.join(format!("{name}_{policy}.json"));
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Some(path))
}

/// Run `h2 run` in trace mode end to end; returns the process exit code.
/// `profile_dir` arms the host-side self-profiler (DESIGN.md §17) around
/// the run and writes the profile artifacts there.
pub fn cmd_run_trace(
    args: &[String],
    telemetry_dir: Option<&Path>,
    profile_dir: Option<&Path>,
) -> i32 {
    match crate::profout::profiled(profile_dir, || run_trace_inner(args, telemetry_dir)) {
        Ok(Ok(())) => 0,
        Ok(Err(e)) | Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

fn run_trace_inner(args: &[String], telemetry_dir: Option<&Path>) -> Result<(), String> {
    let parsed = TraceRunArgs::parse(args)?;

    if let Some(path) = &parsed.replay {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let file = TraceFile::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        let (report, policy, refile) =
            replay_trace(&file, parsed.policy.as_deref(), parsed.capture.is_some())?;
        print!("{}", render_report(&report, &policy));
        if let (Some(out), Some(refile)) = (&parsed.capture, refile) {
            std::fs::write(out, refile.encode())
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            eprintln!(
                "[h2 run] re-captured {} ({} records)",
                out.display(),
                trace_records(&refile)
            );
        }
        if let Some(dir) = telemetry_dir {
            if let Some(p) = write_telemetry(&report, &policy, dir)? {
                eprintln!("[h2 run] telemetry: {}", p.display());
            }
        }
        return Ok(());
    }

    let cfg = parsed.base_config();

    let (report, policy, file) = if let Some(spec) = &parsed.scenario {
        let text = std::fs::read_to_string(spec)
            .map_err(|e| format!("cannot read {}: {e}", spec.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
        let sc = TenantScenario::from_json(&j).map_err(|e| format!("{}: {e}", spec.display()))?;
        let (policy, kind) = parsed.policy("NoPart")?;
        let (report, file) =
            run_scenario_capture(&cfg, &sc, &policy, kind, parsed.capture.is_some());
        (report, policy, file)
    } else {
        let name = parsed.mix.as_deref().expect("parse() guarantees --mix here");
        let mix = Mix::by_name(name)
            .ok_or_else(|| format!("unknown mix '{name}' (Table II: C1..C12)"))?;
        let (policy, kind) = parsed.policy("NoPart")?;
        let (report, file) = run_mix_capture(&cfg, &mix, &policy, kind);
        (report, policy, Some(file))
    };

    print!("{}", render_report(&report, &policy));
    if let (Some(out), Some(file)) = (&parsed.capture, &file) {
        std::fs::write(out, file.encode())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        eprintln!("[h2 run] captured {} ({} records)", out.display(), trace_records(file));
    }
    if let Some(dir) = telemetry_dir {
        if let Some(p) = write_telemetry(&report, &policy, dir)? {
            eprintln!("[h2 run] telemetry: {}", p.display());
        }
    }
    Ok(())
}

/// True when `h2 run`'s arguments select trace mode.
pub fn is_trace_mode(args: &[String]) -> bool {
    args.iter().any(|a| a == "--scenario" || a == "--capture" || a == "--replay")
}

#[cfg(test)]
mod tests {
    use super::*;
    

    fn parse(args: &[&str]) -> Result<TraceRunArgs, String> {
        TraceRunArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn sample_scenario() -> TenantScenario {
        h2_check::sample_scenario(1)
    }

    #[test]
    fn parse_accepts_the_three_modes_and_rejects_conflicts() {
        let a = parse(&["--scenario", "s.json", "--capture", "t.h2trace"]).unwrap();
        assert_eq!(a.scenario, Some(PathBuf::from("s.json")));
        assert_eq!(a.capture, Some(PathBuf::from("t.h2trace")));
        parse(&["--mix", "C1", "--capture", "t.h2trace", "--policy", "WayPart"]).unwrap();
        parse(&["--replay", "t.h2trace"]).unwrap();
        parse(&["--replay", "t.h2trace", "--capture", "again.h2trace"]).unwrap();

        assert!(parse(&["--replay", "t", "--scenario", "s"]).unwrap_err().contains("exclusive"));
        assert!(parse(&["--scenario", "s", "--mix", "C1"]).unwrap_err().contains("exclusive"));
        assert!(parse(&["--mix", "C1"]).unwrap_err().contains("--capture"));
        assert!(parse(&["--capture", "t"]).unwrap_err().contains("needs --scenario"));
        assert!(parse(&["--seed", "x", "--replay", "t"]).unwrap_err().contains("--seed"));
        let scaled = parse(&["--replay", "t", "--scale", "paper"]).unwrap();
        assert_eq!(scaled.scale, Some(Scale::Paper));
        assert!(parse(&["--replay", "t", "--scale", "x"]).unwrap_err().contains("unknown scale"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn scenario_capture_replays_bit_identically_via_the_header() {
        let sc = sample_scenario();
        let cfg = SystemConfig::tiny();
        let (orig, file) =
            run_scenario_capture(&cfg, &sc, "NoPart", PolicyKind::NoPart, true);
        let file = file.unwrap();
        // Decode from bytes, replay purely from the header.
        let decoded = TraceFile::decode(&file.encode()).unwrap();
        let (rep, policy, refile) = replay_trace(&decoded, None, true).unwrap();
        assert_eq!(policy, "NoPart");
        assert_eq!(h2_check::diff_reports(&orig, &rep), None);
        // Fixpoint: re-captured bytes are identical.
        assert_eq!(refile.unwrap().encode(), file.encode());
    }

    #[test]
    fn mix_capture_is_untagged_and_replays_clean() {
        let mix = Mix::by_name("C1").unwrap();
        let cfg = SystemConfig::tiny();
        let (orig, file) = run_mix_capture(&cfg, &mix, "WayPart", policy_by_name("WayPart").unwrap());
        assert!(orig.tenants.is_empty());
        assert_eq!(file.tenants.len(), 1, "untagged captures carry the default tenant");
        let (rep, policy, _) = replay_trace(&file, None, false).unwrap();
        assert_eq!(policy, "WayPart");
        assert_eq!(h2_check::diff_reports(&orig, &rep), None);
        assert!(rep.tenants.is_empty(), "untagged replay reports no tenants");
    }

    #[test]
    fn replay_rejects_headers_without_capture_metadata() {
        let file = TraceFile {
            label: "x".into(),
            gpu_base: u64::MAX,
            meta: Json::obj(),
            tenants: vec![],
            units: vec![],
        };
        let err = replay_trace(&file, None, false).unwrap_err();
        assert!(err.contains("config"), "{err}");
    }

    #[test]
    fn report_rendering_includes_tenants() {
        let sc = sample_scenario();
        let cfg = SystemConfig::tiny();
        let (rep, _) = run_scenario_capture(&cfg, &sc, "NoPart", PolicyKind::NoPart, false);
        let text = render_report(&rep, "NoPart");
        assert!(text.contains("weighted IPC"));
        for t in &rep.tenants {
            assert!(text.contains(&t.name), "tenant {} missing from:\n{text}", t.name);
        }
    }
}
