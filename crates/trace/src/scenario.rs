//! Seeded multi-tenant datacenter scenarios.
//!
//! A [`TenantScenario`] describes N co-located tenants, each owning a set
//! of CPU cores and GPU contexts, a priority class, a *phase-shifting*
//! workload mix drawn from the existing catalog, and an arrival process
//! that modulates when demand is issued:
//!
//! * **Steady** — back-to-back execution, exactly like the classic presets.
//! * **Diurnal** — a sinusoid-modulated Poisson process. At virtual cycle
//!   `v` the instantaneous rate is `λ(v) = 1 + amp·sin(2π(v/period +
//!   phase))`. Each reference's service demand `s = gap + 1` is stretched
//!   to an exponential inter-arrival `s·E/λ(v)` with `E ~ Exp(1)` drawn
//!   from the tenant's own ChaCha8 stream; the excess over `s` becomes
//!   idle time.
//! * **Bursty** — a deterministic on/off process: `on` cycles of full-rate
//!   issue, then `off` cycles of silence (the unit idles to the next
//!   on-window edge).
//!
//! Tenants can also churn: `start` delays a tenant's arrival and `stop`
//! retires it (after which its units idle forever). `phase_cycles` rotates
//! the unit through its workload list, modelling applications that change
//! behaviour mid-run. Everything is derived from `cfg.seed ^ scenario.seed`
//! via labelled [`SeededRng`] streams, so scenario runs are exactly as
//! deterministic and engine-independent as preset runs.
//!
//! Scenario specs have a strict canonical JSON codec
//! ([`TenantScenario::to_json`] / [`TenantScenario::from_json`]): every
//! field is always emitted, unknown workloads or nonsense parameters are
//! rejected with diagnostics, and encode→decode→encode is byte-identical.

use crate::pattern::MemRef;
use crate::source::Pull;
use crate::spec::{TraceGen, WorkloadClass};
use crate::tracefile::TenantInfo;
use crate::workloads;
use h2_sim_core::{Json, SeededRng};

/// Guard gap between per-unit address windows (mirrors the runner's).
const GUARD: u64 = 1 << 20;

/// When a tenant's demand is issued relative to virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Back-to-back issue, no idle time.
    Steady,
    /// Sinusoid-modulated Poisson: rate `1 + amp·sin(2π(v/period + phase))`.
    Diurnal {
        /// Cycles per full sinusoid period (> 0).
        period: u64,
        /// Modulation depth in `[0, 1)`.
        amp: f64,
        /// Phase offset in periods (e.g. `0.5` = half a period).
        phase: f64,
    },
    /// Deterministic on/off bursts: `on` cycles issuing, `off` silent.
    Bursty {
        /// Length of the issuing window in cycles (> 0).
        on: u64,
        /// Length of the silent window in cycles (> 0).
        off: u64,
    },
}

impl Arrival {
    fn to_json(self) -> Json {
        match self {
            Arrival::Steady => Json::obj().field("kind", "steady"),
            Arrival::Diurnal { period, amp, phase } => Json::obj()
                .field("kind", "diurnal")
                .field("period", period)
                .field("amp", amp)
                .field("phase", phase),
            Arrival::Bursty { on, off } => {
                Json::obj().field("kind", "bursty").field("on", on).field("off", off)
            }
        }
    }

    fn from_json(j: &Json, at: &str) -> Result<Self, String> {
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{at}: arrival missing string field 'kind'"))?;
        match kind {
            "steady" => Ok(Arrival::Steady),
            "diurnal" => {
                let period = j
                    .get("period")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{at}: diurnal arrival needs u64 'period'"))?;
                if period == 0 {
                    return Err(format!("{at}: diurnal period must be > 0"));
                }
                let amp = j
                    .get("amp")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{at}: diurnal arrival needs number 'amp'"))?;
                if !(0.0..1.0).contains(&amp) {
                    return Err(format!("{at}: diurnal amp {amp} outside [0, 1)"));
                }
                let phase = j
                    .get("phase")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{at}: diurnal arrival needs number 'phase'"))?;
                if !phase.is_finite() {
                    return Err(format!("{at}: diurnal phase must be finite"));
                }
                Ok(Arrival::Diurnal { period, amp, phase })
            }
            "bursty" => {
                let on = j
                    .get("on")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{at}: bursty arrival needs u64 'on'"))?;
                let off = j
                    .get("off")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{at}: bursty arrival needs u64 'off'"))?;
                if on == 0 || off == 0 {
                    return Err(format!("{at}: bursty on/off must both be > 0"));
                }
                Ok(Arrival::Bursty { on, off })
            }
            other => Err(format!("{at}: unknown arrival kind '{other}' (steady|diurnal|bursty)")),
        }
    }
}

/// One tenant: identity, resources, workload phases, and arrival behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Unique tenant name.
    pub name: String,
    /// Priority class (0 = highest; reported, not scheduled — yet).
    pub priority: u8,
    /// CPU cores owned by this tenant.
    pub cores: usize,
    /// GPU contexts owned by this tenant.
    pub ctxs: usize,
    /// CPU workload phase list (catalog names, class `Cpu`).
    pub cpu: Vec<String>,
    /// GPU workload phase list (catalog names, class `Gpu`).
    pub gpu: Vec<String>,
    /// Arrival process.
    pub arrival: Arrival,
    /// Virtual cycle at which the tenant arrives (units idle until then).
    pub start: u64,
    /// Virtual cycle at which the tenant departs (`None` = never).
    pub stop: Option<u64>,
    /// Cycles per workload phase; `None` pins each unit to its first phase.
    pub phase_cycles: Option<u64>,
}

/// A named, seeded multi-tenant scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantScenario {
    /// Scenario name (used as the run label).
    pub name: String,
    /// Scenario seed, XORed with the system seed at instantiation.
    pub seed: u64,
    /// The tenants, in declaration order.
    pub tenants: Vec<TenantSpec>,
}

impl TenantScenario {
    /// Canonical JSON encoding. Every field is always emitted, so
    /// encode→decode→encode is byte-identical.
    pub fn to_json(&self) -> Json {
        let mut tenants = Json::arr();
        for t in &self.tenants {
            let mut cpu = Json::arr();
            for w in &t.cpu {
                cpu.push(w.as_str());
            }
            let mut gpu = Json::arr();
            for w in &t.gpu {
                gpu.push(w.as_str());
            }
            tenants.push(
                Json::obj()
                    .field("name", t.name.as_str())
                    .field("priority", t.priority as u64)
                    .field("cores", t.cores as u64)
                    .field("ctxs", t.ctxs as u64)
                    .field("cpu", cpu)
                    .field("gpu", gpu)
                    .field("arrival", t.arrival.to_json())
                    .field("start", t.start)
                    .field(
                        "stop",
                        match t.stop {
                            Some(s) => Json::from(s),
                            None => Json::Null,
                        },
                    )
                    .field(
                        "phase_cycles",
                        match t.phase_cycles {
                            Some(p) => Json::from(p),
                            None => Json::Null,
                        },
                    ),
            );
        }
        Json::obj()
            .field("name", self.name.as_str())
            .field("seed", self.seed)
            .field("tenants", tenants)
    }

    /// Strict decode + validation. Rejects unknown workloads, wrong-class
    /// workloads, duplicate tenant names, zero-unit scenarios, and
    /// out-of-range arrival parameters — with a diagnostic, never a panic.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("scenario missing string field 'name'")?
            .to_string();
        if name.is_empty() {
            return Err("scenario name must be non-empty".into());
        }
        let seed = j.get("seed").and_then(Json::as_u64).ok_or("scenario missing u64 field 'seed'")?;
        let mut tenants = Vec::new();
        for (i, t) in j
            .get("tenants")
            .and_then(Json::as_array)
            .ok_or("scenario missing array field 'tenants'")?
            .iter()
            .enumerate()
        {
            let at = format!("tenant {i}");
            let tname = t
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{at}: missing string field 'name'"))?
                .to_string();
            if tname.is_empty() {
                return Err(format!("{at}: name must be non-empty"));
            }
            if tenants.iter().any(|x: &TenantSpec| x.name == tname) {
                return Err(format!("{at}: duplicate tenant name '{tname}'"));
            }
            let at = format!("tenant '{tname}'");
            let priority = t
                .get("priority")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{at}: missing u64 field 'priority'"))?;
            if priority > u8::MAX as u64 {
                return Err(format!("{at}: priority {priority} exceeds 255"));
            }
            let cores = t
                .get("cores")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{at}: missing u64 field 'cores'"))?
                as usize;
            let ctxs = t
                .get("ctxs")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{at}: missing u64 field 'ctxs'"))?
                as usize;
            let parse_phases = |field: &str, class: WorkloadClass| -> Result<Vec<String>, String> {
                let mut out = Vec::new();
                for w in t
                    .get(field)
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("{at}: missing array field '{field}'"))?
                {
                    let wname = w
                        .as_str()
                        .ok_or_else(|| format!("{at}: '{field}' entries must be strings"))?;
                    let spec = workloads::by_name(wname)
                        .ok_or_else(|| format!("{at}: unknown workload '{wname}' in '{field}'"))?;
                    if spec.class != class {
                        return Err(format!(
                            "{at}: workload '{wname}' is not a {field} workload"
                        ));
                    }
                    out.push(wname.to_string());
                }
                Ok(out)
            };
            let cpu = parse_phases("cpu", WorkloadClass::Cpu)?;
            let gpu = parse_phases("gpu", WorkloadClass::Gpu)?;
            if cores > 0 && cpu.is_empty() {
                return Err(format!("{at}: {cores} cores but empty 'cpu' workload list"));
            }
            if ctxs > 0 && gpu.is_empty() {
                return Err(format!("{at}: {ctxs} ctxs but empty 'gpu' workload list"));
            }
            let arrival = Arrival::from_json(
                t.get("arrival").ok_or_else(|| format!("{at}: missing field 'arrival'"))?,
                &at,
            )?;
            let start =
                t.get("start").and_then(Json::as_u64).ok_or_else(|| format!("{at}: missing u64 field 'start'"))?;
            let stop = match t.get("stop") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    let s = v.as_u64().ok_or_else(|| format!("{at}: 'stop' must be u64 or null"))?;
                    if s <= start {
                        return Err(format!("{at}: stop {s} must be after start {start}"));
                    }
                    Some(s)
                }
            };
            let phase_cycles = match t.get("phase_cycles") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    let p = v
                        .as_u64()
                        .ok_or_else(|| format!("{at}: 'phase_cycles' must be u64 or null"))?;
                    if p == 0 {
                        return Err(format!("{at}: phase_cycles must be > 0"));
                    }
                    Some(p)
                }
            };
            tenants.push(TenantSpec {
                name: tname,
                priority: priority as u8,
                cores,
                ctxs,
                cpu,
                gpu,
                arrival,
                start,
                stop,
                phase_cycles,
            });
        }
        if tenants.is_empty() {
            return Err("scenario has no tenants".into());
        }
        if tenants.iter().map(|t| t.cores + t.ctxs).sum::<usize>() == 0 {
            return Err("scenario has no units (every tenant has 0 cores and 0 ctxs)".into());
        }
        Ok(TenantScenario { name, seed, tenants })
    }

    /// Total CPU cores across tenants.
    pub fn total_cores(&self) -> usize {
        self.tenants.iter().map(|t| t.cores).sum()
    }

    /// Total GPU contexts across tenants.
    pub fn total_ctxs(&self) -> usize {
        self.tenants.iter().map(|t| t.ctxs).sum()
    }

    /// The tenant table in declaration order (for trace headers / reports).
    pub fn tenant_infos(&self) -> Vec<TenantInfo> {
        self.tenants
            .iter()
            .map(|t| TenantInfo { name: t.name.clone(), priority: t.priority })
            .collect()
    }

    /// Lay out address windows and build one [`TenantStream`] per unit.
    ///
    /// Layout mirrors the classic runner: all CPU unit windows first
    /// (window = max phase footprint + guard), then `gpu_base`, then all
    /// GPU unit windows — so the runner's single-threshold address
    /// classifier keeps working. The effective seed is
    /// `seed ^ self.seed`; each unit's RNG stream is labelled
    /// `tenant:<name>:<cpu|gpu>:<unit index>`.
    pub fn instantiate(&self, seed: u64, footprint_scale: u64) -> ScenarioUnits {
        let eff = seed ^ self.seed;
        let mut base = 0u64;
        let mut cpu = Vec::new();
        let mut cpu_tenant = Vec::new();
        let mut cpu_idx = 0u32;
        for (ti, t) in self.tenants.iter().enumerate() {
            for _ in 0..t.cores {
                let stream = TenantStream::new(
                    t,
                    &t.cpu,
                    eff,
                    &format!("tenant:{}:cpu:{cpu_idx}", t.name),
                    |phase| 10_000u32.wrapping_mul(phase as u32 + 1).wrapping_add(cpu_idx),
                    base,
                    footprint_scale,
                );
                base += stream.window() + GUARD;
                cpu.push(stream);
                cpu_tenant.push(ti);
                cpu_idx += 1;
            }
        }
        let gpu_base = base;
        let mut gpu = Vec::new();
        let mut gpu_tenant = Vec::new();
        let mut gpu_idx = 0u32;
        for (ti, t) in self.tenants.iter().enumerate() {
            for _ in 0..t.ctxs {
                let stream = TenantStream::new(
                    t,
                    &t.gpu,
                    eff,
                    &format!("tenant:{}:gpu:{gpu_idx}", t.name),
                    |phase| {
                        1000u32
                            .wrapping_add(10_000u32.wrapping_mul(phase as u32 + 1))
                            .wrapping_add(gpu_idx)
                    },
                    base,
                    footprint_scale,
                );
                base += stream.window() + GUARD;
                gpu.push(stream);
                gpu_tenant.push(ti);
                gpu_idx += 1;
            }
        }
        ScenarioUnits {
            cpu,
            gpu,
            cpu_tenant,
            gpu_tenant,
            tenants: self.tenant_infos(),
            gpu_base,
            total_footprint: base,
        }
    }
}

/// The instantiated scenario: one stream per unit plus layout facts the
/// runner needs.
#[derive(Debug)]
pub struct ScenarioUnits {
    /// CPU core streams, in global core order.
    pub cpu: Vec<TenantStream>,
    /// GPU context streams, in global context order.
    pub gpu: Vec<TenantStream>,
    /// Tenant index of each CPU core.
    pub cpu_tenant: Vec<usize>,
    /// Tenant index of each GPU context.
    pub gpu_tenant: Vec<usize>,
    /// Tenant table in declaration order.
    pub tenants: Vec<TenantInfo>,
    /// First byte of the GPU address region.
    pub gpu_base: u64,
    /// Total laid-out address span (for fast-tier capacity sizing).
    pub total_footprint: u64,
}

/// One unit's phase-shifting, arrival-modulated reference stream.
#[derive(Debug)]
pub struct TenantStream {
    gens: Vec<TraceGen>,
    arrival: Arrival,
    start: u64,
    stop: Option<u64>,
    phase_cycles: Option<u64>,
    vclock: u64,
    rng: SeededRng,
    window: u64,
}

impl TenantStream {
    fn new(
        t: &TenantSpec,
        phases: &[String],
        seed: u64,
        label: &str,
        instance: impl Fn(usize) -> u32,
        base_addr: u64,
        footprint_scale: u64,
    ) -> Self {
        let gens: Vec<TraceGen> = phases
            .iter()
            .enumerate()
            .map(|(p, w)| {
                workloads::by_name(w)
                    .expect("validated at decode")
                    .instantiate(seed, instance(p), base_addr, footprint_scale)
            })
            .collect();
        let window = gens.iter().map(TraceGen::footprint).max().unwrap_or(4096);
        TenantStream {
            gens,
            arrival: t.arrival,
            start: t.start,
            stop: t.stop,
            phase_cycles: t.phase_cycles,
            vclock: 0,
            rng: SeededRng::derive(seed, label),
            window,
        }
    }

    /// Address-window span of this unit (max phase footprint).
    pub fn window(&self) -> u64 {
        self.window
    }

    fn active_phase(&self) -> usize {
        match self.phase_cycles {
            Some(pc) if self.gens.len() > 1 => {
                ((self.vclock.saturating_sub(self.start) / pc) as usize) % self.gens.len()
            }
            _ => 0,
        }
    }

    /// Produce the next pull: pick the active phase's reference, then
    /// translate the arrival process into idle cycles (see module docs).
    pub fn next_pull(&mut self) -> Pull {
        let phase = self.active_phase();
        if let Some(stop) = self.stop {
            if self.vclock >= stop {
                // Departed: idle forever at the window base (an L1-hot,
                // traffic-free address).
                self.vclock = self.vclock.saturating_add(u32::MAX as u64);
                return Pull {
                    r: MemRef {
                        gap: 0,
                        addr: self.gens[phase].base_addr(),
                        write: false,
                        dependent: false,
                    },
                    idle: u32::MAX,
                };
            }
        }
        let mut idle = 0u64;
        if self.vclock < self.start {
            idle += self.start - self.vclock;
        }
        let r = self.gens[phase].next_ref();
        let service = r.gap as u64 + 1;
        match self.arrival {
            Arrival::Steady => {}
            Arrival::Diurnal { period, amp, phase } => {
                let v = self.vclock.saturating_add(idle);
                let pos = (v % period) as f64 / period as f64;
                let rate = 1.0 + amp * (std::f64::consts::TAU * (pos + phase)).sin();
                let e = -(1.0 - self.rng.unit()).ln();
                let spacing = service as f64 * e / rate;
                if spacing > service as f64 {
                    idle += (spacing - service as f64) as u64;
                }
            }
            Arrival::Bursty { on, off } => {
                let v = self.vclock.saturating_add(idle);
                let p = v % (on + off);
                if p >= on {
                    idle += (on + off) - p;
                }
            }
        }
        let idle = idle.min(u32::MAX as u64) as u32;
        self.vclock = self.vclock.saturating_add(idle as u64 + service);
        Pull { r, idle }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TenantScenario {
        TenantScenario {
            name: "demo".into(),
            seed: 7,
            tenants: vec![
                TenantSpec {
                    name: "inference".into(),
                    priority: 0,
                    cores: 1,
                    ctxs: 1,
                    cpu: vec!["gcc".into()],
                    gpu: vec!["bert".into()],
                    arrival: Arrival::Bursty { on: 2000, off: 3000 },
                    start: 0,
                    stop: None,
                    phase_cycles: None,
                },
                TenantSpec {
                    name: "hpc".into(),
                    priority: 1,
                    cores: 1,
                    ctxs: 0,
                    cpu: vec!["lbm".into(), "mcf".into()],
                    gpu: vec![],
                    arrival: Arrival::Diurnal { period: 10_000, amp: 0.5, phase: 0.25 },
                    start: 500,
                    stop: Some(1_000_000),
                    phase_cycles: Some(5_000),
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_byte_identical() {
        let s = sample();
        let j1 = s.to_json().to_string_compact();
        let back = TenantScenario::from_json(&Json::parse(&j1).unwrap()).unwrap();
        assert_eq!(s, back);
        assert_eq!(j1, back.to_json().to_string_compact());
    }

    type SpecMutation = (&'static str, fn(&mut TenantScenario));

    #[test]
    fn rejects_bad_specs() {
        let cases: &[SpecMutation] = &[
            ("unknown workload", |s| s.tenants[0].cpu = vec!["nope".into()]),
            ("wrong class", |s| s.tenants[0].cpu = vec!["bert".into()]),
            ("dup name", |s| s.tenants[1].name = "inference".into()),
            ("cores w/o cpu list", |s| s.tenants[0].cpu = vec![]),
        ];
        for (what, mutate) in cases {
            let mut s = sample();
            mutate(&mut s);
            let j = s.to_json();
            assert!(
                TenantScenario::from_json(&j).is_err(),
                "{what}: invalid spec accepted"
            );
        }
        assert!(TenantScenario::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn instantiation_is_deterministic_and_laid_out() {
        let s = sample();
        let mut a = s.instantiate(42, 64);
        let mut b = s.instantiate(42, 64);
        assert_eq!(a.cpu.len(), 2);
        assert_eq!(a.gpu.len(), 1);
        assert_eq!(a.cpu_tenant, vec![0, 1]);
        assert_eq!(a.gpu_tenant, vec![0]);
        assert!(a.gpu_base > 0 && a.total_footprint > a.gpu_base);
        for (x, y) in a.cpu.iter_mut().zip(b.cpu.iter_mut()) {
            for _ in 0..512 {
                assert_eq!(x.next_pull(), y.next_pull());
            }
        }
        // A different system seed changes the stream.
        let mut c = s.instantiate(43, 64);
        let mut a2 = s.instantiate(42, 64);
        let same = (0..512).all(|_| a2.cpu[0].next_pull() == c.cpu[0].next_pull());
        assert!(!same);
    }

    #[test]
    fn bursty_tenant_idles_in_off_windows() {
        let s = sample();
        let mut u = s.instantiate(42, 64);
        let mut idled = false;
        for _ in 0..4096 {
            let p = u.cpu[0].next_pull();
            if p.idle > 0 {
                idled = true;
            }
        }
        assert!(idled, "bursty arrival never produced idle time");
    }

    #[test]
    fn stopped_tenant_idles_forever() {
        let mut s = sample();
        s.tenants[1].stop = Some(600);
        let mut u = s.instantiate(42, 64);
        // Drain past the stop point.
        for _ in 0..4096 {
            u.cpu[1].next_pull();
        }
        let p = u.cpu[1].next_pull();
        assert_eq!(p.idle, u32::MAX);
        assert_eq!(p.r.gap, 0);
    }
}
