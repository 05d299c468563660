//! Metamorphic relations on paper semantics.
//!
//! Where an invariant monitor checks one run against itself, a metamorphic
//! relation checks a run against a *transformed* re-run whose outcome the
//! paper's semantics pin down: observation layers never perturb timing,
//! absent processors generate no traffic, a static policy is indifferent
//! to the sampling-epoch length, and a policy that denies every migration
//! leaves the fast tier untouched.

use crate::case::FuzzCase;
use crate::diff::diff_reports_except;
use h2_system::{run_workloads, RunReport};

/// The relation catalogue. The fuzz battery rotates through whichever
/// relations apply to a case (selected by its seed), so across a fuzz run
/// every relation sees a spread of cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Disabling telemetry changes nothing but the telemetry itself.
    TelemetryOff,
    /// Flipping request-span tracing (on→off, off→armed-but-empty)
    /// changes nothing but the trace: zero-perturbation observation.
    TraceFlip,
    /// A side with no workloads retires no instructions and produces no
    /// hybrid-memory accesses.
    SoloSideZero,
    /// Doubling the sampling-epoch length leaves every demand-path
    /// statistic of the static shared baseline (`NoPart`) unchanged —
    /// epochs only matter to adaptive policies.
    EpochDouble,
    /// `NoMigrate` (cache mode) performs no migrations, so the fast tier
    /// stays empty: no hits, no swaps, no victim write-backs.
    NoMigrateZero,
}

impl Relation {
    /// Stable name used in failure reports (`relation:<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            Relation::TelemetryOff => "telemetry-off",
            Relation::TraceFlip => "trace-flip",
            Relation::SoloSideZero => "solo-side-zero",
            Relation::EpochDouble => "epoch-double",
            Relation::NoMigrateZero => "no-migrate-zero",
        }
    }
}

/// The relations that apply to `case`, in catalogue order.
pub fn applicable(case: &FuzzCase) -> Vec<Relation> {
    let mut rels = vec![Relation::TelemetryOff, Relation::TraceFlip];
    if case.cpu.is_empty() || case.gpu.is_none() {
        rels.push(Relation::SoloSideZero);
    }
    if case.policy == "NoPart" {
        rels.push(Relation::EpochDouble);
    }
    if case.policy == "NoMigrate" && !case.flat {
        rels.push(Relation::NoMigrateZero);
    }
    rels
}

/// Check one relation for `case`, given the already-computed base run.
/// `label` must match the label the base run was produced under (it lands
/// in `RunReport::mix`, which the diffs compare).
pub fn check(
    rel: Relation,
    case: &FuzzCase,
    label: &str,
    base: &RunReport,
) -> Result<(), String> {
    match rel {
        Relation::TelemetryOff => {
            let variant = rerun(case, label, |cfg| cfg.telemetry = false)?;
            if variant.telemetry.is_some() {
                return Err("telemetry present despite telemetry=false".into());
            }
            match diff_reports_except(base, &variant, &["telemetry"]) {
                None => Ok(()),
                Some(d) => Err(format!("telemetry flip perturbed the run: {d}")),
            }
        }
        Relation::TraceFlip => {
            // On→off, or off→Some(0): armed but sampling nothing, the
            // zero-perturbation guard for the tracing machinery itself.
            let flipped = match case.trace_sample {
                Some(_) => None,
                None => Some(0),
            };
            let variant = rerun(case, label, |cfg| cfg.trace_sample = flipped)?;
            // Telemetry is also excluded: its v2 schema embeds a `trace.*`
            // interference scope, so flipping the sampler legitimately
            // changes the telemetry *document* without touching timing.
            match diff_reports_except(base, &variant, &["trace", "telemetry"]) {
                None => Ok(()),
                Some(d) => Err(format!("trace flip perturbed the run: {d}")),
            }
        }
        Relation::SoloSideZero => {
            if case.cpu.is_empty() && (base.cpu_instr != 0 || base.hmc.accesses[0] != 0) {
                return Err(format!(
                    "no CPU workloads, yet cpu_instr={} cpu_accesses={}",
                    base.cpu_instr, base.hmc.accesses[0]
                ));
            }
            if case.gpu.is_none() && (base.gpu_instr != 0 || base.hmc.accesses[1] != 0) {
                return Err(format!(
                    "no GPU kernel, yet gpu_instr={} gpu_accesses={}",
                    base.gpu_instr, base.hmc.accesses[1]
                ));
            }
            Ok(())
        }
        Relation::EpochDouble => {
            let variant = rerun(case, label, |cfg| cfg.epoch_cycles *= 2)?;
            match diff_reports_except(base, &variant, &["epochs", "telemetry"]) {
                None => Ok(()),
                Some(d) => Err(format!(
                    "NoPart demand path depends on epoch length: {d}"
                )),
            }
        }
        Relation::NoMigrateZero => {
            let h = &base.hmc;
            if h.migrations != [0, 0]
                || h.swaps != 0
                || h.victim_writebacks != 0
                || h.fast_hits != [0, 0]
            {
                return Err(format!(
                    "NoMigrate moved data: migrations {:?}, swaps {}, victim_writebacks {}, fast_hits {:?}",
                    h.migrations, h.swaps, h.victim_writebacks, h.fast_hits
                ));
            }
            Ok(())
        }
    }
}

fn rerun(
    case: &FuzzCase,
    label: &str,
    tweak: impl FnOnce(&mut h2_system::SystemConfig),
) -> Result<RunReport, String> {
    let (mut cfg, cpu, gpu, kind, cap) = case.build()?;
    tweak(&mut cfg);
    cfg.validate()?;
    Ok(run_workloads(&cfg, label, &cpu, gpu.as_ref(), kind, cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_for(case: &FuzzCase) -> RunReport {
        let (cfg, cpu, gpu, kind, cap) = case.build().unwrap();
        run_workloads(&cfg, "rel-test", &cpu, gpu.as_ref(), kind, cap)
    }

    #[test]
    fn applicability_follows_case_shape() {
        let mut c = FuzzCase::generate(0);
        c.cpu = vec!["gcc".into()];
        c.gpu = Some("bfs".into());
        c.policy = "NoPart".into();
        c.flat = false;
        let rels = applicable(&c);
        assert!(rels.contains(&Relation::TelemetryOff));
        assert!(rels.contains(&Relation::TraceFlip));
        assert!(rels.contains(&Relation::EpochDouble));
        assert!(!rels.contains(&Relation::SoloSideZero));
        assert!(!rels.contains(&Relation::NoMigrateZero));

        c.gpu = None;
        c.policy = "NoMigrate".into();
        let rels = applicable(&c);
        assert!(rels.contains(&Relation::SoloSideZero));
        assert!(rels.contains(&Relation::NoMigrateZero));
    }

    #[test]
    fn relations_hold_on_a_known_case() {
        let mut c = FuzzCase::generate(11);
        c.cpu = vec!["mcf".into()];
        c.gpu = None;
        c.policy = "NoMigrate".into();
        c.flat = false;
        // Small windows keep this test quick.
        c.warmup_cycles = 60_000;
        c.measure_cycles = 120_000;
        c.epoch_cycles = 30_000;
        let base = base_for(&c);
        for rel in applicable(&c) {
            check(rel, &c, "rel-test", &base).unwrap_or_else(|e| {
                panic!("relation {} violated: {e}", rel.name());
            });
        }
    }
}
