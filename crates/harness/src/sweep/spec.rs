//! First-class sweep specifications.
//!
//! A sweep spec is a JSON document describing a *campaign* of simulation
//! jobs: a base configuration scale, a set of workload mixes and policies,
//! and a search strategy over named numeric parameters — an exhaustive
//! grid, seeded random sampling, or a seeded hill-climb that follows a
//! named [`RunReport`](h2_system::RunReport) metric
//! ([`h2_system::report::METRICS`]). Expansion is fully deterministic
//! given the spec (including its seeds): the same document always yields
//! the same ordered sequence of [`SweepPoint`]s and therefore the same
//! u128 job keys, which is what lets repeated sweeps share the persistent
//! run cache byte-for-byte.
//!
//! Schema (canonical JSON, round-trips through [`SweepSpec::to_json`] /
//! [`SweepSpec::from_json`]):
//!
//! ```json
//! {
//!   "name": "assoc-seeds",
//!   "scale": "tiny",
//!   "mixes": ["C1"],
//!   "policies": ["NoPart", "HydrogenFull"],
//!   "base": {"measure_cycles": 300000},
//!   "search": {
//!     "kind": "grid",
//!     "params": {"assoc": [1, 2, 4, 8], "seed": {"min": 0, "max": 4, "step": 1}}
//!   }
//! }
//! ```
//!
//! `"kind": "random"` adds `"samples"` and `"seed"`; `"kind": "hillclimb"`
//! adds `"metric"`, optional `"goal"` (`"max"`/`"min"`), `"seed"` and
//! `"max_steps"`. Axis values are either an explicit array or a
//! `{"min", "max", "step"}` range (inclusive), normalised to the explicit
//! list at parse time.

use crate::cache::Job;
use h2_check::policy_by_name;
use h2_sim_core::{Json, SeededRng};
use h2_system::report::METRICS;
use h2_system::SystemConfig;
use h2_trace::{Mix, TenantScenario};

/// Every sweepable [`SystemConfig`] parameter, by stable name.
pub const PARAM_NAMES: &[&str] = &[
    "seed",
    "cpu_cores",
    "gpu_eus",
    "gpu_ctx_slots",
    "store_buffer",
    "cpu_mlp",
    "block_bytes",
    "assoc",
    "fast_channels",
    "slow_channels",
    "epoch_cycles",
    "faucet_cycles",
    "epochs_per_phase",
    "warmup_cycles",
    "measure_cycles",
    "footprint_scale",
    "remap_cache_bytes",
    "fast_capacity_override",
    "flat",
];

/// The one axis name that does *not* set a [`SystemConfig`] field: it
/// overrides the scenario seed of a scenario sweep (a spec with a
/// `"scenario"` object), re-instantiating the tenant streams per point.
pub const SCENARIO_SEED_PARAM: &str = "scenario_seed";

/// Apply one named parameter to a config. `flat` is 0/1 and selects the
/// hybrid organisation; everything else sets the field of the same name.
pub fn apply_param(cfg: &mut SystemConfig, name: &str, value: u64) -> Result<(), String> {
    let as_u32 = |v: u64| -> Result<u32, String> {
        u32::try_from(v).map_err(|_| format!("parameter '{name}' = {v} exceeds u32"))
    };
    match name {
        "seed" => cfg.seed = value,
        "cpu_cores" => cfg.cpu_cores = value as usize,
        "gpu_eus" => cfg.gpu_eus = value as usize,
        "gpu_ctx_slots" => cfg.gpu_ctx_slots = as_u32(value)?,
        "store_buffer" => cfg.store_buffer = as_u32(value)?,
        "cpu_mlp" => cfg.cpu_mlp = as_u32(value)?,
        "block_bytes" => cfg.block_bytes = value,
        "assoc" => cfg.assoc = value as usize,
        "fast_channels" => cfg.fast_channels = value as usize,
        "slow_channels" => cfg.slow_channels = value as usize,
        "epoch_cycles" => cfg.epoch_cycles = value,
        "faucet_cycles" => cfg.faucet_cycles = value,
        "epochs_per_phase" => cfg.epochs_per_phase = value,
        "warmup_cycles" => cfg.warmup_cycles = value,
        "measure_cycles" => cfg.measure_cycles = value,
        "footprint_scale" => cfg.footprint_scale = value,
        "remap_cache_bytes" => cfg.remap_cache_bytes = value,
        "fast_capacity_override" => cfg.fast_capacity_override = Some(value),
        "flat" => {
            cfg.mode = match value {
                0 => h2_hybrid::types::Mode::Cache,
                1 => h2_hybrid::types::Mode::Flat,
                _ => return Err(format!("parameter 'flat' must be 0 or 1, got {value}")),
            }
        }
        _ => {
            return Err(format!(
                "unknown sweep parameter '{name}' (known: {})",
                PARAM_NAMES.join(", ")
            ))
        }
    }
    Ok(())
}

/// The base configuration a sweep starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// [`SystemConfig::tiny`] — test scale, sub-second jobs.
    Tiny,
    /// [`SystemConfig::scaled`] — the default laptop scale.
    Scaled,
    /// [`SystemConfig::paper`] — verbatim Table I (long jobs).
    Paper,
}

impl Scale {
    fn as_str(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Scaled => "scaled",
            Scale::Paper => "paper",
        }
    }

    pub(crate) fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "scaled" => Ok(Scale::Scaled),
            "paper" => Ok(Scale::Paper),
            _ => Err(format!("unknown scale '{s}' (tiny | scaled | paper)")),
        }
    }

    pub(crate) fn config(self) -> SystemConfig {
        match self {
            Scale::Tiny => SystemConfig::tiny(),
            Scale::Scaled => SystemConfig::scaled(),
            Scale::Paper => SystemConfig::paper(),
        }
    }
}

/// One search axis: a parameter name and its ordered candidate values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Parameter name (see [`PARAM_NAMES`]).
    pub name: String,
    /// Candidate values, in spec order (ranges expand low to high).
    pub values: Vec<u64>,
}

/// Hill-climb objective direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Goal {
    /// Higher metric is better (the default).
    #[default]
    Max,
    /// Lower metric is better (latencies, energy).
    Min,
}

/// The search strategy over the axes.
#[derive(Debug, Clone, PartialEq)]
pub enum Search {
    /// Exhaustive cartesian product, row-major in axis order.
    Grid {
        /// The axes.
        params: Vec<Axis>,
    },
    /// Seeded uniform sampling of the grid (duplicates collapse).
    Random {
        /// Points to draw.
        samples: u64,
        /// Sampling seed.
        seed: u64,
        /// The axes.
        params: Vec<Axis>,
    },
    /// Seeded greedy hill-climb following a report metric.
    HillClimb {
        /// Metric name (see [`METRICS`]).
        metric: String,
        /// Objective direction.
        goal: Goal,
        /// Start-point seed.
        seed: u64,
        /// Maximum climb steps (each step evaluates all axis neighbours).
        max_steps: u64,
        /// The axes.
        params: Vec<Axis>,
    },
}

impl Search {
    /// The axes of any variant.
    pub fn params(&self) -> &[Axis] {
        match self {
            Search::Grid { params }
            | Search::Random { params, .. }
            | Search::HillClimb { params, .. } => params,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Search::Grid { .. } => "grid",
            Search::Random { .. } => "random",
            Search::HillClimb { .. } => "hillclimb",
        }
    }
}

/// One point of the search space: ordered `(param, value)` assignments,
/// one per axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// The assignments, in axis order.
    pub params: Vec<(String, u64)>,
}

impl SweepPoint {
    /// `name=value,...` label for logs and progress lines.
    pub fn label(&self) -> String {
        self.params
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// A full sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Campaign name: the JSONL/CSV file stem (`[a-zA-Z0-9_-]+`).
    pub name: String,
    /// Base configuration scale.
    pub scale: Scale,
    /// Workload mixes, by Table II name.
    pub mixes: Vec<String>,
    /// Policies, by stable fuzz-catalog name (see [`h2_check::POLICIES`]).
    pub policies: Vec<String>,
    /// Fixed parameter overrides applied before every point.
    pub base: Vec<(String, u64)>,
    /// Multi-tenant scenario (DESIGN.md §18). When present, jobs come from
    /// scenario × policies (the `mixes` list is ignored and may be empty),
    /// and the [`SCENARIO_SEED_PARAM`] axis becomes available.
    pub scenario: Option<TenantScenario>,
    /// The search strategy.
    pub search: Search,
}

/// Parse an axis value set: an explicit array or an inclusive
/// `{"min","max","step"}` range.
fn parse_values(name: &str, j: &Json) -> Result<Vec<u64>, String> {
    if let Some(xs) = j.as_array() {
        let values: Vec<u64> = xs
            .iter()
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| format!("axis '{name}': values must be unsigned integers"))
            })
            .collect::<Result<_, _>>()?;
        return Ok(values);
    }
    if j.as_object().is_some() {
        let field = |f: &str| {
            j.get(f)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("axis '{name}': range needs unsigned '{f}'"))
        };
        let (min, max) = (field("min")?, field("max")?);
        let step = match j.get("step") {
            Some(v) => v.as_u64().ok_or_else(|| format!("axis '{name}': bad 'step'"))?,
            None => 1,
        };
        if step == 0 {
            return Err(format!("axis '{name}': step must be > 0"));
        }
        if max < min {
            return Err(format!("axis '{name}': max {max} < min {min}"));
        }
        if (max - min) / step >= 10_000 {
            return Err(format!("axis '{name}': range expands to over 10000 values"));
        }
        return Ok((min..=max).step_by(step as usize).collect());
    }
    Err(format!("axis '{name}': expected an array of values or a min/max/step range"))
}

fn parse_axes(j: &Json) -> Result<Vec<Axis>, String> {
    let fields = j
        .get("params")
        .and_then(Json::as_object)
        .ok_or("search needs a 'params' object")?;
    if fields.is_empty() {
        return Err("search 'params' must name at least one axis".into());
    }
    fields
        .iter()
        .map(|(name, v)| Ok(Axis { name: name.clone(), values: parse_values(name, v)? }))
        .collect()
}

fn str_list(j: &Json, field: &str) -> Result<Vec<String>, String> {
    j.get(field)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("spec needs a '{field}' array"))?
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{field}' entries must be strings"))
        })
        .collect()
}

impl SweepSpec {
    /// Parse a spec from JSON text.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Parse a spec from a JSON value (syntactic checks only; call
    /// [`SweepSpec::validate`] before running it).
    pub fn from_json(j: &Json) -> Result<SweepSpec, String> {
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("spec needs a 'name' string")?
            .to_string();
        let scale = match j.get("scale") {
            Some(v) => Scale::parse(v.as_str().ok_or("'scale' must be a string")?)?,
            None => Scale::Tiny,
        };
        let scenario = match j.get("scenario") {
            None => None,
            Some(s) => Some(TenantScenario::from_json(s).map_err(|e| format!("scenario: {e}"))?),
        };
        // A scenario spec draws its workloads from the scenario, so the
        // mixes list is optional there (and ignored when present).
        let mixes = if scenario.is_some() && j.get("mixes").is_none() {
            Vec::new()
        } else {
            str_list(j, "mixes")?
        };
        let policies = str_list(j, "policies")?;
        let base = match j.get("base") {
            None => Vec::new(),
            Some(b) => b
                .as_object()
                .ok_or("'base' must be an object")?
                .iter()
                .map(|(n, v)| {
                    v.as_u64()
                        .map(|v| (n.clone(), v))
                        .ok_or_else(|| format!("base override '{n}' must be an unsigned integer"))
                })
                .collect::<Result<_, _>>()?,
        };
        let search_json = j.get("search").ok_or("spec needs a 'search' object")?;
        let kind = search_json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("search needs a 'kind' string")?;
        let params = parse_axes(search_json)?;
        let u64_field = |f: &str| {
            search_json
                .get(f)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("search kind '{kind}' needs unsigned '{f}'"))
        };
        let search = match kind {
            "grid" => Search::Grid { params },
            "random" => Search::Random { samples: u64_field("samples")?, seed: u64_field("seed")?, params },
            "hillclimb" => Search::HillClimb {
                metric: search_json
                    .get("metric")
                    .and_then(Json::as_str)
                    .ok_or("search kind 'hillclimb' needs a 'metric' string")?
                    .to_string(),
                goal: match search_json.get("goal") {
                    None => Goal::Max,
                    Some(g) => match g.as_str() {
                        Some("max") => Goal::Max,
                        Some("min") => Goal::Min,
                        _ => return Err("'goal' must be \"max\" or \"min\"".into()),
                    },
                },
                seed: u64_field("seed")?,
                max_steps: u64_field("max_steps")?,
                params,
            },
            _ => return Err(format!("unknown search kind '{kind}' (grid | random | hillclimb)")),
        };
        Ok(SweepSpec { name, scale, mixes, policies, base, scenario, search })
    }

    /// Serialise canonically (axis ranges come back as explicit lists).
    pub fn to_json(&self) -> Json {
        let strs = |xs: &[String]| {
            let mut a = Json::arr();
            for s in xs {
                a.push(s.as_str());
            }
            a
        };
        let axes = |params: &[Axis]| {
            let mut o = Json::obj();
            for ax in params {
                let mut vs = Json::arr();
                for &v in &ax.values {
                    vs.push(v);
                }
                o = o.field(&ax.name, vs);
            }
            o
        };
        let mut base = Json::obj();
        for (n, v) in &self.base {
            base = base.field(n, *v);
        }
        let search = match &self.search {
            Search::Grid { params } => {
                Json::obj().field("kind", "grid").field("params", axes(params))
            }
            Search::Random { samples, seed, params } => Json::obj()
                .field("kind", "random")
                .field("samples", *samples)
                .field("seed", *seed)
                .field("params", axes(params)),
            Search::HillClimb { metric, goal, seed, max_steps, params } => Json::obj()
                .field("kind", "hillclimb")
                .field("metric", metric.as_str())
                .field("goal", if *goal == Goal::Max { "max" } else { "min" })
                .field("seed", *seed)
                .field("max_steps", *max_steps)
                .field("params", axes(params)),
        };
        let mut out = Json::obj()
            .field("name", self.name.as_str())
            .field("scale", self.scale.as_str())
            .field("mixes", strs(&self.mixes))
            .field("policies", strs(&self.policies))
            .field("base", base);
        if let Some(sc) = &self.scenario {
            out = out.field("scenario", sc.to_json());
        }
        out.field("search", search)
    }

    /// Semantic validation: resolvable mixes/policies/metric, known
    /// parameter names, non-degenerate axes, a buildable base config.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self.name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!(
                "sweep name '{}' must be non-empty [a-zA-Z0-9_-] (it names output files)",
                self.name
            ));
        }
        if self.mixes.is_empty() && self.scenario.is_none() {
            return Err("spec needs at least one mix (or a 'scenario' object)".into());
        }
        for m in &self.mixes {
            Mix::by_name(m).ok_or_else(|| format!("unknown mix '{m}' (Table II: C1..C12)"))?;
        }
        if self.policies.is_empty() {
            return Err("spec needs at least one policy".into());
        }
        for p in &self.policies {
            policy_by_name(p).ok_or_else(|| {
                format!("unknown policy '{p}' (see h2_check::POLICIES for stable names)")
            })?;
        }
        let mut probe = self.scale.config();
        for (n, v) in &self.base {
            apply_param(&mut probe, n, *v)?;
        }
        for ax in self.search.params() {
            if ax.values.is_empty() {
                return Err(format!("axis '{}' has no values", ax.name));
            }
            let mut sorted = ax.values.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != ax.values.len() {
                return Err(format!("axis '{}' has duplicate values", ax.name));
            }
            if ax.name == SCENARIO_SEED_PARAM {
                if self.scenario.is_none() {
                    return Err(format!(
                        "axis '{SCENARIO_SEED_PARAM}' needs a 'scenario' object in the spec"
                    ));
                }
            } else {
                apply_param(&mut probe.clone(), &ax.name, ax.values[0])?;
            }
        }
        match &self.search {
            Search::Grid { .. } => {}
            Search::Random { samples, .. } => {
                if *samples == 0 {
                    return Err("random search needs samples > 0".into());
                }
            }
            Search::HillClimb { metric, max_steps, .. } => {
                if !METRICS.iter().any(|(n, _)| n == metric) {
                    let known: Vec<&str> = METRICS.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown metric '{metric}' (known: {})",
                        known.join(", ")
                    ));
                }
                if *max_steps == 0 {
                    return Err("hillclimb needs max_steps > 0".into());
                }
            }
        }
        Ok(())
    }

    /// The base config: scale preset plus the fixed overrides.
    pub fn base_config(&self) -> Result<SystemConfig, String> {
        let mut cfg = self.scale.config();
        for (n, v) in &self.base {
            apply_param(&mut cfg, n, *v)?;
        }
        Ok(cfg)
    }

    /// The jobs of one point: its config crossed with every mix × policy,
    /// in spec order. The config is validated so a bad point fails with
    /// its label rather than tripping simulator assertions.
    pub fn jobs_for_point(&self, point: &SweepPoint) -> Result<Vec<Job>, String> {
        let mut cfg = self.base_config()?;
        let mut scenario_seed = None;
        for (n, v) in &point.params {
            if n == SCENARIO_SEED_PARAM {
                scenario_seed = Some(*v);
                continue;
            }
            apply_param(&mut cfg, n, *v)?;
        }
        cfg.validate().map_err(|e| format!("point [{}]: {e}", point.label()))?;
        if let Some(sc) = &self.scenario {
            let mut sc = sc.clone();
            if let Some(s) = scenario_seed {
                sc.seed = s;
            }
            let mut jobs = Vec::with_capacity(self.policies.len());
            for policy in &self.policies {
                let kind = policy_by_name(policy)
                    .ok_or_else(|| format!("unknown policy '{policy}'"))?;
                jobs.push(Job::scenario(&cfg, &sc, kind));
            }
            return Ok(jobs);
        }
        if scenario_seed.is_some() {
            return Err(format!(
                "point [{}]: '{SCENARIO_SEED_PARAM}' needs a 'scenario' object in the spec",
                point.label()
            ));
        }
        let mut jobs = Vec::with_capacity(self.mixes.len() * self.policies.len());
        for mix_name in &self.mixes {
            let mix = Mix::by_name(mix_name).ok_or_else(|| format!("unknown mix '{mix_name}'"))?;
            for policy in &self.policies {
                let kind = policy_by_name(policy)
                    .ok_or_else(|| format!("unknown policy '{policy}'"))?;
                jobs.push(Job::new(&cfg, &mix, kind));
            }
        }
        Ok(jobs)
    }

    /// Expand the search into its ordered sequence of points.
    ///
    /// `eval` scores a batch of points (the engine runs their jobs and
    /// aggregates the target metric); it is only called for hill-climb
    /// searches, so grid and random expansion is purely static. The
    /// sequence is deterministic for a fixed spec and a deterministic
    /// `eval`: grids enumerate row-major in axis order, random sampling
    /// derives from the spec seed, and the climb visits its start point
    /// followed by each step's unvisited neighbours in axis order.
    pub fn expand<E>(&self, eval: &mut E) -> Result<Vec<SweepPoint>, String>
    where
        E: FnMut(&[SweepPoint]) -> Result<Vec<f64>, String>,
    {
        let axes = self.search.params();
        let point = |indices: &[usize]| SweepPoint {
            params: axes
                .iter()
                .zip(indices)
                .map(|(ax, &i)| (ax.name.clone(), ax.values[i]))
                .collect(),
        };
        match &self.search {
            Search::Grid { params } => {
                let total: usize = params.iter().map(|a| a.values.len()).product();
                let mut points = Vec::with_capacity(total);
                let mut indices = vec![0usize; params.len()];
                loop {
                    points.push(point(&indices));
                    // Row-major odometer: last axis fastest.
                    let mut i = params.len();
                    loop {
                        if i == 0 {
                            return Ok(points);
                        }
                        i -= 1;
                        indices[i] += 1;
                        if indices[i] < params[i].values.len() {
                            break;
                        }
                        indices[i] = 0;
                    }
                }
            }
            Search::Random { samples, seed, params } => {
                let mut rng = SeededRng::derive(*seed, "h2-sweep/random");
                let mut points: Vec<SweepPoint> = Vec::new();
                for _ in 0..*samples {
                    let indices: Vec<usize> = params
                        .iter()
                        .map(|a| rng.below(a.values.len() as u64) as usize)
                        .collect();
                    let p = point(&indices);
                    if !points.contains(&p) {
                        points.push(p);
                    }
                }
                Ok(points)
            }
            Search::HillClimb { goal, seed, max_steps, params, .. } => {
                let better = |a: f64, b: f64| match goal {
                    Goal::Max => a > b,
                    Goal::Min => a < b,
                };
                let mut rng = SeededRng::derive(*seed, "h2-sweep/hillclimb");
                let mut current: Vec<usize> = params
                    .iter()
                    .map(|a| rng.below(a.values.len() as u64) as usize)
                    .collect();
                let mut visited: Vec<Vec<usize>> = vec![current.clone()];
                let mut points = vec![point(&current)];
                let mut best = eval(std::slice::from_ref(&points[0]))?
                    .first()
                    .copied()
                    .ok_or("hillclimb evaluator returned no score")?;
                for _ in 0..*max_steps {
                    // Unvisited ±1 neighbours, in axis order then -,+.
                    let mut neighbours: Vec<Vec<usize>> = Vec::new();
                    for (i, ax) in params.iter().enumerate() {
                        for delta in [-1i64, 1] {
                            let moved = current[i] as i64 + delta;
                            if moved < 0 || moved as usize >= ax.values.len() {
                                continue;
                            }
                            let mut n = current.clone();
                            n[i] = moved as usize;
                            if !visited.contains(&n) && !neighbours.contains(&n) {
                                neighbours.push(n);
                            }
                        }
                    }
                    if neighbours.is_empty() {
                        break;
                    }
                    let batch: Vec<SweepPoint> =
                        neighbours.iter().map(|n| point(n)).collect();
                    let scores = eval(&batch)?;
                    if scores.len() != batch.len() {
                        return Err("hillclimb evaluator returned a short batch".into());
                    }
                    visited.extend(neighbours.iter().cloned());
                    points.extend(batch.iter().cloned());
                    // Best neighbour; earlier wins ties for determinism.
                    let mut best_i = 0;
                    for (i, &s) in scores.iter().enumerate() {
                        if better(s, scores[best_i]) {
                            best_i = i;
                        }
                    }
                    if better(scores[best_i], best) {
                        best = scores[best_i];
                        current = neighbours[best_i].clone();
                    } else {
                        break; // local optimum
                    }
                }
                Ok(points)
            }
        }
    }

    /// The search kind as a stable string (progress stream header).
    pub fn kind(&self) -> &'static str {
        self.search.kind()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn grid_spec() -> SweepSpec {
        SweepSpec::parse(
            r#"{
              "name": "t",
              "scale": "tiny",
              "mixes": ["C1"],
              "policies": ["NoPart"],
              "base": {"measure_cycles": 200000},
              "search": {"kind": "grid",
                         "params": {"assoc": [2, 4], "seed": {"min": 1, "max": 3, "step": 1}}}
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn grid_expands_row_major_with_ranges() {
        let spec = grid_spec();
        spec.validate().unwrap();
        let points = spec.expand(&mut |_| Err("grid must not evaluate".into())).unwrap();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].label(), "assoc=2,seed=1");
        assert_eq!(points[1].label(), "assoc=2,seed=2");
        assert_eq!(points[3].label(), "assoc=4,seed=1");
        assert_eq!(points[5].label(), "assoc=4,seed=3");
    }

    #[test]
    fn jobs_cross_mixes_and_policies() {
        let mut spec = grid_spec();
        spec.mixes = vec!["C1".into(), "C2".into()];
        spec.policies = vec!["NoPart".into(), "HydrogenFull".into()];
        let points = spec.expand(&mut |_| unreachable!()).unwrap();
        let jobs = spec.jobs_for_point(&points[0]).unwrap();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].cfg.assoc, 2);
        assert_eq!(jobs[0].cfg.seed, 1);
        assert_eq!(jobs[0].cfg.measure_cycles, 200_000, "base override applied");
        let keys: std::collections::HashSet<u128> = jobs.iter().map(Job::key).collect();
        assert_eq!(keys.len(), 4, "distinct mixes/policies get distinct keys");
    }

    #[test]
    fn random_sampling_is_seeded_and_deduped() {
        let mut spec = grid_spec();
        spec.search = Search::Random {
            samples: 50,
            seed: 9,
            params: vec![Axis { name: "seed".into(), values: (0..8).collect() }],
        };
        let a = spec.expand(&mut |_| unreachable!()).unwrap();
        let b = spec.expand(&mut |_| unreachable!()).unwrap();
        assert_eq!(a, b, "same spec, same points");
        assert!(a.len() <= 8, "duplicates collapse");
        assert!(a.len() > 1);
        spec.search = Search::Random {
            samples: 50,
            seed: 10,
            params: vec![Axis { name: "seed".into(), values: (0..8).collect() }],
        };
        assert_ne!(spec.expand(&mut |_| unreachable!()).unwrap(), a, "seed changes the draw");
    }

    #[test]
    fn hillclimb_follows_the_metric() {
        let mut spec = grid_spec();
        spec.search = Search::HillClimb {
            metric: "weighted_ipc".into(),
            goal: Goal::Max,
            seed: 1,
            max_steps: 20,
            params: vec![Axis { name: "seed".into(), values: (0..10).collect() }],
        };
        spec.validate().unwrap();
        // Synthetic unimodal objective peaking at seed=7.
        let score = |p: &SweepPoint| -(p.params[0].1 as f64 - 7.0).abs();
        let mut eval = |ps: &[SweepPoint]| Ok(ps.iter().map(score).collect());
        let points = spec.expand(&mut eval).unwrap();
        let best = points
            .iter()
            .map(|p| p.params[0].1)
            .max_by(|a, b| score(&points[0]).total_cmp(&score(&points[0])).then(a.cmp(b)));
        // The climb must have visited the optimum.
        assert!(points.iter().any(|p| p.params[0].1 == 7), "reached the peak: {points:?}");
        assert_eq!(points, spec.expand(&mut eval).unwrap(), "climb is deterministic");
        let _ = best;
        // No point visited twice.
        for (i, p) in points.iter().enumerate() {
            assert!(!points[..i].contains(p), "revisited {p:?}");
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let spec = grid_spec();
        let j = spec.to_json();
        let back = SweepSpec::parse(&j.to_string_compact()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json().to_string_pretty(), j.to_string_pretty());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = grid_spec();
        s.mixes = vec!["C99".into()];
        assert!(s.validate().unwrap_err().contains("unknown mix"));

        let mut s = grid_spec();
        s.policies = vec!["Nonsense".into()];
        assert!(s.validate().unwrap_err().contains("unknown policy"));

        let mut s = grid_spec();
        s.name = "a/b".into();
        assert!(s.validate().unwrap_err().contains("name"));

        let mut s = grid_spec();
        s.base = vec![("not_a_param".into(), 1)];
        assert!(s.validate().unwrap_err().contains("unknown sweep parameter"));

        let mut s = grid_spec();
        s.search = Search::HillClimb {
            metric: "nope".into(),
            goal: Goal::Max,
            seed: 0,
            max_steps: 5,
            params: s.search.params().to_vec(),
        };
        assert!(s.validate().unwrap_err().contains("unknown metric"));

        assert!(SweepSpec::parse("{}").unwrap_err().contains("name"));
        assert!(SweepSpec::parse(
            r#"{"name":"x","mixes":["C1"],"policies":["NoPart"],
                "search":{"kind":"warp","params":{"seed":[1]}}}"#
        )
        .unwrap_err()
        .contains("unknown search kind"));
    }

    pub(crate) fn scenario_spec() -> SweepSpec {
        SweepSpec::parse(
            r#"{
              "name": "sc",
              "scale": "tiny",
              "policies": ["NoPart", "HydrogenFull"],
              "scenario": {
                "name": "pair",
                "seed": 3,
                "tenants": [
                  {"name": "svc", "priority": 0, "cores": 1, "ctxs": 0,
                   "cpu": ["gcc"], "gpu": [],
                   "arrival": {"kind": "steady"}, "start": 0,
                   "stop": null, "phase_cycles": null},
                  {"name": "ml", "priority": 1, "cores": 0, "ctxs": 1,
                   "cpu": [], "gpu": ["backprop"],
                   "arrival": {"kind": "bursty", "on": 2000, "off": 1000},
                   "start": 0, "stop": null, "phase_cycles": null}
                ]
              },
              "search": {"kind": "grid", "params": {"scenario_seed": [1, 2, 3]}}
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn scenario_specs_validate_roundtrip_and_build_scenario_jobs() {
        let spec = scenario_spec();
        spec.validate().unwrap();
        let j = spec.to_json();
        let back = SweepSpec::parse(&j.to_string_compact()).unwrap();
        assert_eq!(back, spec);

        let points = spec.expand(&mut |_| unreachable!()).unwrap();
        assert_eq!(points.len(), 3);
        let jobs = spec.jobs_for_point(&points[1]).unwrap();
        assert_eq!(jobs.len(), 2, "one job per policy");
        let sc = jobs[0].scenario.as_ref().expect("scenario job");
        assert_eq!(sc.seed, 2, "scenario_seed axis overrides the seed");
        assert_eq!(sc.tenants.len(), 2);
        // Distinct seeds and policies hash to distinct cache keys.
        let mut keys = std::collections::HashSet::new();
        for p in &points {
            for job in spec.jobs_for_point(p).unwrap() {
                keys.insert(job.key());
            }
        }
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn scenario_seed_axis_requires_a_scenario() {
        let mut s = grid_spec();
        s.search = Search::Grid {
            params: vec![Axis { name: SCENARIO_SEED_PARAM.into(), values: vec![1, 2] }],
        };
        assert!(s.validate().unwrap_err().contains("needs a 'scenario' object"));

        let mut s = grid_spec();
        s.mixes.clear();
        assert!(s.validate().unwrap_err().contains("at least one mix"));

        // Bad scenarios fail at parse time with the codec's diagnostic.
        let err = SweepSpec::parse(
            r#"{"name":"x","policies":["NoPart"],
                "scenario":{"name":"b","seed":1,"tenants":[]},
                "search":{"kind":"grid","params":{"seed":[1]}}}"#,
        )
        .unwrap_err();
        assert!(err.contains("scenario"), "{err}");
    }

    #[test]
    fn apply_param_covers_every_listed_name() {
        for name in PARAM_NAMES {
            let mut cfg = SystemConfig::tiny();
            apply_param(&mut cfg, name, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let mut cfg = SystemConfig::tiny();
        assert!(apply_param(&mut cfg, "flat", 2).is_err());
        assert!(apply_param(&mut cfg, "warp_factor", 1).unwrap_err().contains("unknown"));
    }
}
