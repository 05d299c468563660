//! Glue between the datacenter scenario pack (DESIGN.md §18) and the
//! runner: build [`FrontendPlan`]s from a [`TenantScenario`] or a decoded
//! `.h2trace` file, size the system to match, and run.
//!
//! All three front-end kinds (synthetic presets, tenant streams, replay
//! cursors) funnel through [`crate::runner::run_plan_monitored`], so a
//! captured run replays bit-identically regardless of engine.

use crate::config::SystemConfig;
use crate::policies::PolicyKind;
use crate::report::RunReport;
use crate::runner::{run_plan_monitored, FrontendPlan, SimProbe};
use h2_sim_core::units::MIB;
use h2_sim_core::MonitorSet;
use h2_trace::{TenantInfo, TenantScenario, TraceCapture, TraceFile, UnitClass};

/// A copy of `cfg` resized to the scenario's unit counts. Scenarios own
/// their core/ctx topology (it is part of the spec), so the base config
/// only contributes timing, hierarchy, and observation knobs.
pub fn scenario_config(cfg: &SystemConfig, sc: &TenantScenario) -> SystemConfig {
    let mut c = cfg.clone();
    c.cpu_cores = sc.total_cores();
    c.gpu_eus = sc.total_ctxs().max(1); // validate() rejects 0 EUs
    c
}

/// Instantiate the scenario into a runner plan plus the fast-tier capacity
/// to use: the configured override, else 1/8 of the laid-out footprint
/// (mirroring [`SystemConfig::fast_capacity_for`]), floored at 1 MiB.
pub fn scenario_plan(cfg: &SystemConfig, sc: &TenantScenario) -> (FrontendPlan, u64) {
    let units = sc.instantiate(cfg.seed, cfg.footprint_scale);
    let fast_capacity = cfg
        .fast_capacity_override
        .unwrap_or_else(|| (units.total_footprint / 8).max(MIB));
    let plan = FrontendPlan {
        cpu: units.cpu.into_iter().map(Into::into).collect(),
        gpu: units.gpu.into_iter().map(Into::into).collect(),
        gpu_base: units.gpu_base,
        tenants: units.tenants,
        cpu_tenant: units.cpu_tenant,
        gpu_tenant: units.gpu_tenant,
    };
    (plan, fast_capacity)
}

/// Run a multi-tenant scenario (resizing the config via
/// [`scenario_config`]), optionally capturing the pulled reference stream.
pub fn run_scenario_monitored(
    cfg: &SystemConfig,
    sc: &TenantScenario,
    kind: PolicyKind,
    capture: Option<&mut Option<TraceCapture>>,
    monitors: Option<&mut MonitorSet<SimProbe>>,
) -> RunReport {
    let cfg = scenario_config(cfg, sc);
    let (plan, fast_capacity) = scenario_plan(&cfg, sc);
    run_plan_monitored(&cfg, &sc.name, kind, fast_capacity, plan, capture, monitors)
}

/// [`run_scenario_monitored`] without capture or monitors.
pub fn run_scenario(cfg: &SystemConfig, sc: &TenantScenario, kind: PolicyKind) -> RunReport {
    run_scenario_monitored(cfg, sc, kind, None, None)
}

/// True when the trace's tenant table is the placeholder a plain
/// (scenario-less) capture gets, i.e. the capture carried no real tenant
/// tags. The name `default` at priority 0 is reserved for this.
fn untagged(tenants: &[TenantInfo]) -> bool {
    tenants.len() == 1 && tenants[0].name == "default" && tenants[0].priority == 0
}

/// Build a runner plan that replays a decoded trace file verbatim. Unit
/// order in the file (CPU units first) maps 1:1 onto core/ctx indices.
/// Untagged captures replay without tenant metrics so the replayed report
/// stays bit-identical to the original run's.
pub fn replay_plan(file: &TraceFile) -> FrontendPlan {
    let mut cpu = Vec::new();
    let mut gpu = Vec::new();
    let mut cpu_tenant = Vec::new();
    let mut gpu_tenant = Vec::new();
    for u in &file.units {
        let cursor = h2_trace::ReplayCursor::new(u.records.clone());
        match u.class {
            UnitClass::Cpu => {
                cpu.push(cursor.into());
                cpu_tenant.push(u.tenant);
            }
            UnitClass::Gpu => {
                gpu.push(cursor.into());
                gpu_tenant.push(u.tenant);
            }
        }
    }
    if untagged(&file.tenants) {
        FrontendPlan {
            cpu,
            gpu,
            gpu_base: file.gpu_base,
            tenants: Vec::new(),
            cpu_tenant: Vec::new(),
            gpu_tenant: Vec::new(),
        }
    } else {
        FrontendPlan {
            cpu,
            gpu,
            gpu_base: file.gpu_base,
            tenants: file.tenants.clone(),
            cpu_tenant,
            gpu_tenant,
        }
    }
}

/// A copy of `cfg` resized to the trace's unit counts, mirroring
/// [`scenario_config`].
pub fn replay_config(cfg: &SystemConfig, file: &TraceFile) -> SystemConfig {
    let mut c = cfg.clone();
    c.cpu_cores = file
        .units
        .iter()
        .filter(|u| u.class == UnitClass::Cpu)
        .count();
    c.gpu_eus = file
        .units
        .iter()
        .filter(|u| u.class == UnitClass::Gpu)
        .count()
        .max(1);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_sim_core::Json;
    use h2_trace::{Arrival, TenantSpec};

    fn tiny_scenario() -> TenantScenario {
        TenantScenario {
            name: "t2".into(),
            seed: 7,
            tenants: vec![
                TenantSpec {
                    name: "svc".into(),
                    priority: 0,
                    cores: 2,
                    ctxs: 0,
                    cpu: vec!["gcc".into(), "mcf".into()],
                    gpu: vec![],
                    arrival: Arrival::Steady,
                    start: 0,
                    stop: None,
                    phase_cycles: None,
                },
                TenantSpec {
                    name: "ml".into(),
                    priority: 1,
                    cores: 0,
                    ctxs: 2,
                    cpu: vec![],
                    gpu: vec!["backprop".into()],
                    arrival: Arrival::Bursty { on: 2000, off: 1000 },
                    start: 0,
                    stop: None,
                    phase_cycles: None,
                },
            ],
        }
    }

    #[test]
    fn scenario_run_reports_tenant_slos() {
        let cfg = SystemConfig::tiny();
        let sc = tiny_scenario();
        let rep = run_scenario(&cfg, &sc, PolicyKind::NoPart);
        assert_eq!(rep.tenants.len(), 2);
        assert_eq!(rep.tenants[0].name, "svc");
        assert_eq!(rep.tenants[1].priority, 1);
        // CPU demand latency all belongs to the CPU-only tenant.
        assert!(rep.tenants[0].cpu_lat.count() > 0);
        assert_eq!(rep.tenants[1].cpu_lat.count(), 0);
    }

    #[test]
    fn scenario_capture_replays_with_tags() {
        let cfg = SystemConfig::tiny();
        let sc = tiny_scenario();
        let mut cap = None;
        let orig = run_scenario_monitored(&cfg, &sc, PolicyKind::NoPart, Some(&mut cap), None);
        let scfg = scenario_config(&cfg, &sc);
        let (plan, fast) = scenario_plan(&scfg, &sc);
        let file = cap.unwrap().into_file(
            &sc.name,
            plan.gpu_base,
            Json::obj(),
            sc.tenant_infos(),
            &plan.cpu_tenant,
            &plan.gpu_tenant,
        );
        let rcfg = replay_config(&cfg, &file);
        let rep = run_plan_monitored(
            &rcfg,
            &sc.name,
            PolicyKind::NoPart,
            fast,
            replay_plan(&file),
            None,
            None,
        );
        assert_eq!(rep.tenants, orig.tenants);
        assert_eq!(rep.cpu_instr, orig.cpu_instr);
        assert_eq!(rep.gpu_instr, orig.gpu_instr);
    }

    #[test]
    fn untagged_capture_replays_without_tenants() {
        let file = TraceFile {
            label: "x".into(),
            gpu_base: u64::MAX,
            meta: Json::obj(),
            tenants: vec![TenantInfo { name: "default".into(), priority: 0 }],
            units: vec![],
        };
        assert!(replay_plan(&file).tenants.is_empty());
    }
}
