//! The deterministic event-driven system runner.
//!
//! One event queue drives CPU cores, GPU contexts, the cache hierarchy,
//! the hybrid memory controller, and both DRAM devices. Cores and contexts
//! batch their private cache hits locally (no events) and interact with the
//! event queue only at LLC misses, which keeps whole-system runs at a few
//! million events even for memory-intensive mixes.
//!
//! The event loop is generic over the engine ([`Queue`]). Every production
//! entry point runs on [`EventQueue`], the calendar engine;
//! [`run_plan_on_heap`] runs the same plan on the legacy binary heap for the
//! engine-differential oracles.

use crate::config::{Participants, SystemConfig};
use crate::frontend::{CoreBlock, CpuCore, GpuCtx};
use crate::policies::PolicyKind;
use crate::report::{EpochFrame, EpochRecord, RunReport, RunTelemetry, RunTrace, TenantSlo};
use h2_cache::sram::{AccessOutcome, SetAssocCache};
use h2_hybrid::hmc::{Hmc, HmcOutput};
use h2_hybrid::types::{HybridConfig, ReqClass, Tier};
use h2_hybrid::HmcStats;
use h2_mem::device::{MemStats, StartedCmd};
use h2_mem::{EnergyBreakdown, MemDevice, TimingPreset};
use h2_hybrid::TokenFlows;
use h2_sim_core::prof;
use h2_sim_core::trace_span::{BlameCause, BlameClass, SpanCollector, SpanId, TraceTag};
use h2_sim_core::units::{Cycles, MIB};
use h2_sim_core::{EventQueue, HeapQueue, LogHistogram, MetricsRegistry, MonitorSet, Queue};
use h2_trace::{Mix, RefSource, TenantInfo, TraceCapture, TraceRecord, WorkloadSpec};

/// Local batching horizon: a front-end processes private-cache hits for at
/// most this many cycles before yielding an event.
const MAX_BATCH: Cycles = 10_000;

/// Guard gap between workload address windows.
const GUARD: u64 = MIB;

const KIND_CPU_READ: u64 = 1;
const KIND_CPU_STORE: u64 = 2;
const KIND_GPU: u64 = 3;
const KIND_LLC_WB: u64 = 4;

/// Bits of a request id that hold its issue cycle, and its core or
/// context index: an id is `kind:4 | issued:40 | unit:20`.
/// [`SystemConfig::validate`] keeps every run's window below `2^40` cycles.
pub(crate) const ISSUED_BITS: u32 = 40;
const UNIT_BITS: u32 = 20;

fn req_id(kind: u64, unit: usize, issued: Cycles) -> u64 {
    debug_assert!(issued >> ISSUED_BITS == 0 && unit >> UNIT_BITS == 0);
    (kind << (ISSUED_BITS + UNIT_BITS)) | (issued << UNIT_BITS) | unit as u64
}

#[derive(Debug, Clone)]
enum Ev {
    CoreWake(usize),
    CtxWake(usize),
    HmcStart {
        id: u64,
        class: ReqClass,
        addr: u64,
        is_write: bool,
        needs_response: bool,
        /// Tracing span for sampled demand reads (never affects timing).
        span: Option<SpanId>,
    },
    HmcSram(u64),
    MemDone {
        tier: Tier,
        channel: usize,
        token: u64,
    },
    Epoch,
    Faucet,
    WarmupEnd,
}

/// Owned snapshot of simulator state handed to invariant monitors
/// (`h2_sim_core::monitor`) at hook points: every epoch boundary, every
/// faucet tick, and once after the event loop drains. Building a probe
/// reads state only — it never perturbs the simulation.
#[derive(Debug, Clone)]
pub struct SimProbe {
    /// Simulation time of the hook point.
    pub now: Cycles,
    /// Whether warm-up has ended.
    pub in_measurement: bool,
    /// Cumulative CPU instructions retired.
    pub cpu_instr: u64,
    /// Cumulative GPU instructions retired.
    pub gpu_instr: u64,
    /// Cumulative controller statistics.
    pub hmc: HmcStats,
    /// Transactions ever begun (`started == retired + inflight`).
    pub txns_started: u64,
    /// Transactions fully drained.
    pub txns_retired: u64,
    /// Transactions currently in flight in the controller.
    pub inflight: usize,
    /// Fast-way occupancy by class `(cpu, gpu)`.
    pub occ_cpu: u64,
    /// See `occ_cpu`.
    pub occ_gpu: u64,
    /// Total fast ways (`num_sets x assoc`): the occupancy capacity bound.
    pub total_ways: u64,
    /// Remap-table coherence: no set holds two ways with the same tag.
    pub remap_tags_unique: bool,
    /// Aggregate policy token flows (`None` for designs without a faucet).
    pub token_flows: Option<TokenFlows>,
    /// Policy-internal consistency (token-bucket conservation).
    pub policy_invariants: Result<(), String>,
    /// Device-level consistency (pipeline occupancy, command rings,
    /// row-hit bits), fast then slow.
    pub mem_invariants: Result<(), String>,
    /// Cumulative fast-device statistics.
    pub fast: MemStats,
    /// Cumulative slow-device statistics.
    pub slow: MemStats,
    /// Request spans closed so far (when tracing).
    pub spans_closed: u64,
}

struct Sim<Q: Queue<Ev>> {
    cfg: SystemConfig,
    q: Q,
    cores: Vec<CpuCore>,
    l1s: Vec<SetAssocCache>,
    l2s: Vec<SetAssocCache>,
    ctxs: Vec<GpuCtx>,
    gpu_l1s: Vec<SetAssocCache>,
    llc: SetAssocCache,
    hmc: Hmc,
    fast: MemDevice,
    slow: MemDevice,
    end: Cycles,
    /// Start of the GPU's address window (u64::MAX when no GPU side).
    gpu_base: u64,
    // Measurement snapshots (taken at WarmupEnd).
    warm_cpu_instr: u64,
    warm_gpu_instr: u64,
    warm_hmc: HmcStats,
    warm_fast: MemStats,
    warm_slow: MemStats,
    // Epoch bookkeeping.
    last_cpu_instr: u64,
    last_gpu_instr: u64,
    epoch_idx: u64,
    epoch_trace: Vec<EpochRecord>,
    in_measurement: bool,
    // Telemetry: per-class demand-latency histograms (whose means are the
    // report's average latencies) and epoch-resolved registry snapshots.
    // Pure observation — never perturbs event timing.
    cpu_lat_hist: LogHistogram,
    gpu_lat_hist: LogHistogram,
    frames: Vec<EpochFrame>,
    /// Every component's cumulative metrics, collected again at each
    /// boundary (see [`Sim::recollect`]).
    cum_reg: MetricsRegistry,
    /// `cum_reg` as the previous boundary left it: frames are
    /// `cum_reg - prev_reg`.
    prev_reg: MetricsRegistry,
    /// Registry snapshot at WarmupEnd (measured-window totals).
    warm_reg: MetricsRegistry,
    /// Request-span tracer (config.trace_sample). Like telemetry, pure
    /// observation: sampling decisions ride along with events but never
    /// influence what is scheduled when.
    tracer: SpanCollector,
    /// Recycled buffers for the event hot path: controller outputs and
    /// started-command completions. Each is taken at use, drained, and put
    /// back — steady state allocates nothing.
    out_buf: Vec<HmcOutput>,
    started_buf: Vec<StartedCmd>,
    /// Trace capture (`h2 run --capture`): every fresh front-end pull is
    /// recorded at its generation point. Pure observation — recording
    /// never touches event timing, so captured runs are bit-identical to
    /// uncaptured ones.
    capture: Option<TraceCapture>,
    /// Tenant table for tagged runs (empty on classic preset runs).
    tenants: Vec<TenantInfo>,
    /// Tenant index of each CPU core (empty when untagged).
    cpu_tenant: Vec<usize>,
    /// Tenant index of each GPU context.
    gpu_tenant: Vec<usize>,
    /// Per-tenant demand-latency histograms, recorded beside the aggregate
    /// histograms on the same samples, so they partition them exactly.
    tenant_cpu_hists: Vec<LogHistogram>,
    tenant_gpu_hists: Vec<LogHistogram>,
}

impl<Q: Queue<Ev>> Sim<Q> {
    fn cpu_instr_total(&self) -> u64 {
        self.cores.iter().map(|c| c.retired).sum()
    }

    fn gpu_instr_total(&self) -> u64 {
        self.ctxs.iter().map(|c| c.retired).sum()
    }

    /// Collect every component's cumulative metrics into `reg`, adding to
    /// the values it holds.
    ///
    /// The collection order is fixed (system, latency, caches, devices,
    /// controller, tenants, trace), which fixes the registry's insertion
    /// order and therefore the serialised field order — the golden files
    /// depend on it. A name, once emitted, is emitted by every later
    /// collection of the run, which [`Self::recollect`] relies on: tenants
    /// and the policy's channel scopes are fixed at build, and the `trace`
    /// scope, last, stays once a span has closed. `per_bank` adds per-bank
    /// device rows (totals only; too wide for per-epoch frames).
    fn collect(&self, reg: &mut MetricsRegistry, per_bank: bool) {
        reg.inc("sys.cpu_instr", self.cpu_instr_total());
        reg.inc("sys.gpu_instr", self.gpu_instr_total());
        reg.merge_hist("lat.cpu_read", &self.cpu_lat_hist);
        reg.merge_hist("lat.gpu_demand", &self.gpu_lat_hist);
        {
            let mut cache = reg.scoped("cache");
            collect_cache_level(&mut cache, "cpu_l1", &self.l1s);
            collect_cache_level(&mut cache, "cpu_l2", &self.l2s);
            collect_cache_level(&mut cache, "gpu_l1", &self.gpu_l1s);
            collect_cache_level(&mut cache, "llc", std::slice::from_ref(&self.llc));
            cache.set_gauge("llc.occupancy", self.llc.occupancy() as f64);
        }
        self.fast.collect_metrics(&mut reg.scoped("mem.fast"), per_bank);
        self.slow.collect_metrics(&mut reg.scoped("mem.slow"), per_bank);
        self.hmc.collect_metrics(&mut reg.scoped("hmc"));
        // Per-tenant SLO scope — emitted only on tenant-tagged runs, so
        // classic preset runs (and their golden snapshots) serialise
        // byte-identically to before tenants existed.
        if !self.tenants.is_empty() {
            let mut tn = reg.scoped("tenant");
            for (ti, t) in self.tenants.iter().enumerate() {
                let mut s = tn.scoped(&t.name);
                s.set_gauge("priority", t.priority as f64);
                s.merge_hist("lat.cpu", &self.tenant_cpu_hists[ti]);
                s.merge_hist("lat.gpu", &self.tenant_gpu_hists[ti]);
            }
        }
        // The per-epoch CPU↔GPU interference matrix: cumulative cycles each
        // victim class spent blamed on each cause, over all closed spans.
        // Emitted only once at least one span has closed so that runs with
        // tracing off — or enabled at sample rate 0 — serialise
        // byte-identically (the schema-v2 zero-perturbation guarantee).
        if self.tracer.spans_closed() > 0 {
            let mut tr = reg.scoped("trace");
            tr.inc("spans", self.tracer.spans_closed());
            tr.inc("dropped", self.tracer.dropped());
            for (ci, vscope) in ["blame.cpu", "blame.gpu"].iter().enumerate() {
                let mut victim = tr.scoped(vscope);
                for cause in BlameCause::ALL {
                    victim.inc(cause.name(), self.tracer.blame_cycles(ci as u8, cause));
                }
            }
        }
    }

    /// A fresh collection with per-bank rows: the measured window's totals
    /// are the difference of two.
    fn collect_totals(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.collect(&mut reg, true);
        reg
    }

    /// Collect `cum_reg` again at a boundary: zero its values, keep its
    /// names and collect into it. It then equals a fresh collection, and
    /// it keeps the layout that `prev_reg` and the frames cut so far
    /// share until the run emits a name for the first time.
    fn recollect(&mut self) {
        let mut reg = std::mem::take(&mut self.cum_reg);
        reg.clear_values();
        self.collect(&mut reg, false);
        self.cum_reg = reg;
    }

    fn dev(&mut self, tier: Tier) -> &mut MemDevice {
        match tier {
            Tier::Fast => &mut self.fast,
            Tier::Slow => &mut self.slow,
        }
    }

    /// The requester class of the command carrying `token` and, for the
    /// demand command of a traced transaction, its span tag. Without a
    /// tracer every command is background traffic without a tag.
    fn trace_ctx(&self, token: u64) -> (BlameClass, Option<TraceTag>) {
        if self.tracer.enabled() {
            self.hmc.cmd_trace_ctx(token)
        } else {
            (BlameClass::Background, None)
        }
    }

    /// Enqueue a command on a device channel and pump it.
    fn issue_mem(&mut self, tier: Tier, channel: usize, cmd: h2_mem::MemCmd) {
        let _prof = prof::scope("mem.schedule");
        let (class, tag) = self.trace_ctx(cmd.token);
        let now = self.q.now();
        self.dev(tier).enqueue(channel, cmd, now, class, tag);
        self.pump(tier, channel);
    }

    /// Start what a device channel's scheduler allows, recording traced
    /// commands' blame into the tracer, and schedule their completions.
    fn pump(&mut self, tier: Tier, channel: usize) {
        let now = self.q.now();
        let mut started = std::mem::take(&mut self.started_buf);
        let dev = match tier {
            Tier::Fast => &mut self.fast,
            Tier::Slow => &mut self.slow,
        };
        dev.pump(channel, now, &mut started, &mut self.tracer);
        for s in started.drain(..) {
            self.q.schedule_at(s.done_at, Ev::MemDone { tier, channel, token: s.token });
        }
        self.started_buf = started;
    }

    fn process_outputs(&mut self, outputs: &mut Vec<HmcOutput>) {
        for o in outputs.drain(..) {
            match o {
                HmcOutput::Mem { tier, channel, cmd } => self.issue_mem(tier, channel, cmd),
                HmcOutput::After { delay, token } => {
                    // Blame the on-chip metadata step of traced
                    // transactions: intrinsic service on a remap-cache hit,
                    // RemapMiss when the probe had to speculate past a miss.
                    if self.tracer.enabled() {
                        if let Some((sid, missed)) = self.hmc.meta_span(token) {
                            let now = self.q.now();
                            let cause = if missed {
                                BlameCause::RemapMiss
                            } else {
                                BlameCause::Service
                            };
                            self.tracer.record(sid, cause, now, now + delay);
                        }
                    }
                    self.q.schedule_in(delay, Ev::HmcSram(token));
                }
                HmcOutput::DemandReady { req_id } => self.route_response(req_id),
            }
        }
    }

    /// Deliver the response to request `id`: record its latency, measured
    /// from the issue cycle the id carries, and wake its core or context.
    fn route_response(&mut self, id: u64) {
        let kind = id >> (ISSUED_BITS + UNIT_BITS);
        let unit = (id & ((1 << UNIT_BITS) - 1)) as usize;
        let now = self.q.now();
        let lat = now - ((id >> UNIT_BITS) & ((1 << ISSUED_BITS) - 1));
        match kind {
            KIND_CPU_READ => {
                self.cpu_lat_hist.record(lat);
                if !self.tenant_cpu_hists.is_empty() {
                    self.tenant_cpu_hists[self.cpu_tenant[unit]].record(lat);
                }
                let c = &mut self.cores[unit];
                c.reads_outstanding = c.reads_outstanding.saturating_sub(1);
                let resume = match c.blocked {
                    CoreBlock::ReadDependent => c.reads_outstanding == 0,
                    CoreBlock::ReadMlp => c.reads_outstanding < self.cfg.cpu_mlp,
                    _ => false,
                };
                if resume {
                    c.blocked = CoreBlock::None;
                    self.core_step(unit, now);
                }
            }
            KIND_CPU_STORE => {
                let c = &mut self.cores[unit];
                c.stores_outstanding = c.stores_outstanding.saturating_sub(1);
                if c.blocked == CoreBlock::Store {
                    c.blocked = CoreBlock::None;
                    self.core_step(unit, now);
                }
            }
            KIND_GPU => {
                self.gpu_lat_hist.record(lat);
                if !self.tenant_gpu_hists.is_empty() {
                    self.tenant_gpu_hists[self.gpu_tenant[unit]].record(lat);
                }
                let c = &mut self.ctxs[unit];
                c.inflight = c.inflight.saturating_sub(1);
                if c.blocked {
                    c.blocked = false;
                    self.ctx_step(unit, now);
                }
            }
            _ => {}
        }
    }

    /// Owner class of an address (CPU and GPU windows are disjoint).
    fn class_of_addr(&self, addr: u64) -> ReqClass {
        if addr >= self.gpu_base {
            ReqClass::Gpu
        } else {
            ReqClass::Cpu
        }
    }

    /// Send request `kind` of core or context `unit` to the controller at
    /// cycle `t` (no earlier than now): the one path of LLC write-backs,
    /// CPU stores, CPU reads and GPU accesses. The id carries the issue
    /// cycle, which its response measures its latency from. Only demand
    /// reads (CPU reads and GPU accesses) are sampled for tracing.
    fn issue(&mut self, kind: u64, unit: usize, t: Cycles, addr: u64, is_write: bool) {
        let issued = t.max(self.q.now());
        let (class, span) = match kind {
            // A dirty LLC victim is attributed to the *owner* of the line
            // (not the evicting requester), so ownership metadata in the
            // remap table stays truthful.
            KIND_LLC_WB => (self.class_of_addr(addr), None),
            KIND_CPU_STORE => (ReqClass::Cpu, None),
            KIND_CPU_READ => (ReqClass::Cpu, self.tracer.try_sample()),
            _ => (ReqClass::Gpu, self.tracer.try_sample()), // KIND_GPU
        };
        self.q.schedule_at(
            issued,
            Ev::HmcStart {
                id: req_id(kind, unit, issued),
                class,
                addr,
                is_write,
                needs_response: kind != KIND_LLC_WB,
                span,
            },
        );
    }

    /// Insert a victim line into the LLC (write-back path), chaining any
    /// dirty LLC victim to memory.
    fn wb_into_llc(&mut self, addr: u64, t: Cycles) {
        if let AccessOutcome::Miss {
            victim: Some((vaddr, true)),
        } = self.llc.access(addr, true)
        {
            self.issue(KIND_LLC_WB, 0, t, vaddr, true);
        }
    }

    /// Insert an L1 victim into a core's L2, chaining further victims.
    fn wb_into_l2(&mut self, core: usize, addr: u64, t: Cycles) {
        if let AccessOutcome::Miss {
            victim: Some((vaddr, true)),
        } = self.l2s[core].access(addr, true)
        {
            self.wb_into_llc(vaddr, t);
        }
    }

    /// Run core `i` from time `t0` until it blocks or exceeds the batch
    /// horizon.
    fn core_step(&mut self, i: usize, t0: Cycles) {
        debug_assert_eq!(self.cores[i].blocked, CoreBlock::None);
        let mut t = t0;
        let deadline = t0 + MAX_BATCH;
        loop {
            if t >= self.end {
                return; // run over; stop generating work
            }
            let r = match self.cores[i].stash.take() {
                Some(r) => r,
                None => {
                    let p = self.cores[i].src.next_pull();
                    // Idle cycles (bursty tenants, replay gaps) advance the
                    // core's clock but retire nothing; only fresh pulls are
                    // captured, so stash re-issues never duplicate records.
                    t += p.idle as Cycles + p.r.gap as Cycles;
                    self.cores[i].retired += p.r.gap as u64 + 1;
                    if let Some(cap) = self.capture.as_mut() {
                        cap.record_cpu(
                            i,
                            TraceRecord {
                                ts: t,
                                addr: p.r.addr,
                                gap: p.r.gap,
                                idle: p.idle,
                                write: p.r.write,
                                dependent: p.r.dependent,
                            },
                        );
                    }
                    p.r
                }
            };

            // L1.
            match self.l1s[i].access(r.addr, r.write) {
                AccessOutcome::Hit => {}
                AccessOutcome::Miss { victim } => {
                    // Host-time attribution for the L2→LLC walk. Scoped to
                    // the miss path so the (hit-dominated) L1 probe above
                    // stays probe-free.
                    let _prof = prof::scope("cache.walk");
                    if let Some((vaddr, true)) = victim {
                        self.wb_into_l2(i, vaddr, t);
                    }
                    // L2.
                    t += self.cfg.hierarchy.cpu_l2.latency;
                    match self.l2s[i].access(r.addr, r.write) {
                        AccessOutcome::Hit => {}
                        AccessOutcome::Miss { victim } => {
                            if let Some((vaddr, true)) = victim {
                                self.wb_into_llc(vaddr, t);
                            }
                            // LLC.
                            t += self.cfg.hierarchy.llc.latency;
                            match self.llc.access(r.addr, r.write) {
                                AccessOutcome::Hit => {}
                                AccessOutcome::Miss { victim } => {
                                    if let Some((vaddr, true)) = victim {
                                        self.issue(KIND_LLC_WB, 0, t, vaddr, true);
                                    }
                                    // Memory access.
                                    if r.write {
                                        if self.cores[i].stores_outstanding
                                            >= self.cfg.store_buffer
                                        {
                                            // Buffer full: stall until a
                                            // store drains.
                                            self.cores[i].stash =
                                                Some(h2_trace::MemRef { gap: 0, ..r });
                                            self.cores[i].blocked = CoreBlock::Store;
                                            return;
                                        }
                                        self.cores[i].stores_outstanding += 1;
                                        self.issue(KIND_CPU_STORE, i, t, r.addr, true);
                                    } else {
                                        self.cores[i].reads_outstanding += 1;
                                        self.issue(KIND_CPU_READ, i, t, r.addr, false);
                                        // Dependent loads serialise; other
                                        // loads overlap up to the MLP bound.
                                        if r.dependent {
                                            self.cores[i].blocked = CoreBlock::ReadDependent;
                                            return;
                                        }
                                        if self.cores[i].reads_outstanding >= self.cfg.cpu_mlp {
                                            self.cores[i].blocked = CoreBlock::ReadMlp;
                                            return;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }

            if t >= deadline {
                self.q.schedule_at(t, Ev::CoreWake(i));
                return;
            }
        }
    }

    /// Run GPU context `j` from time `t0` until its slots fill or the batch
    /// horizon passes.
    fn ctx_step(&mut self, j: usize, t0: Cycles) {
        let mut t = t0;
        let deadline = t0 + MAX_BATCH;
        let l1_idx = j / self.cfg.hierarchy.eus_per_gpu_l1;
        loop {
            if t >= self.end {
                return;
            }
            if self.ctxs[j].inflight >= self.cfg.gpu_ctx_slots {
                self.ctxs[j].blocked = true;
                return;
            }
            let r = match self.ctxs[j].stash.take() {
                Some(r) => r,
                None => {
                    let p = self.ctxs[j].src.next_pull();
                    t += p.idle as Cycles + p.r.gap as Cycles;
                    self.ctxs[j].retired += p.r.gap as u64 + 1;
                    if let Some(cap) = self.capture.as_mut() {
                        cap.record_gpu(
                            j,
                            TraceRecord {
                                ts: t,
                                addr: p.r.addr,
                                gap: p.r.gap,
                                idle: p.idle,
                                write: p.r.write,
                                dependent: p.r.dependent,
                            },
                        );
                    }
                    p.r
                }
            };

            match self.gpu_l1s[l1_idx].access(r.addr, r.write) {
                AccessOutcome::Hit => {}
                AccessOutcome::Miss { victim } => {
                    let _prof = prof::scope("cache.walk");
                    if let Some((vaddr, true)) = victim {
                        self.wb_into_llc(vaddr, t);
                    }
                    t += self.cfg.hierarchy.llc.latency;
                    match self.llc.access(r.addr, r.write) {
                        AccessOutcome::Hit => {}
                        AccessOutcome::Miss { victim } => {
                            if let Some((vaddr, true)) = victim {
                                self.issue(KIND_LLC_WB, 0, t, vaddr, true);
                            }
                            self.ctxs[j].inflight += 1;
                            self.issue(KIND_GPU, j, t, r.addr, r.write);
                        }
                    }
                }
            }

            if t >= deadline {
                self.q.schedule_at(t, Ev::CtxWake(j));
                return;
            }
        }
    }

    fn on_epoch(&mut self) {
        let cpu_now = self.cpu_instr_total();
        let gpu_now = self.gpu_instr_total();
        let d_cpu = cpu_now - self.last_cpu_instr;
        let d_gpu = gpu_now - self.last_gpu_instr;
        self.last_cpu_instr = cpu_now;
        self.last_gpu_instr = gpu_now;

        let (wc, wg) = self.cfg.norm_weights();
        let ep = self.cfg.epoch_cycles.max(1) as f64;
        let weighted_ipc = wc * d_cpu as f64 / ep + wg * d_gpu as f64 / ep;

        let d = self.hmc.epoch_delta();
        let sample = h2_hybrid::policy::EpochSample {
            cycles: self.cfg.epoch_cycles,
            cpu_instr: d_cpu,
            gpu_instr: d_gpu,
            weighted_ipc,
            cpu_hits: d.fast_hits[0],
            cpu_misses: d.fast_misses[0],
            gpu_hits: d.fast_hits[1],
            gpu_misses: d.fast_misses[1],
            migrations: d.migrations[0] + d.migrations[1],
            bypasses: d.bypasses[0] + d.bypasses[1],
        };
        let reconfigured = self.hmc.on_epoch(&sample);
        self.epoch_idx += 1;

        if self.in_measurement {
            let p = self.hmc.policy().params();
            let record = EpochRecord {
                epoch: self.epoch_idx,
                weighted_ipc,
                bw: p.bw,
                cap: p.cap,
                tok: p.tok,
                reconfigured,
            };
            // Per-epoch frame: counter/histogram deltas since the last
            // boundary, gauges as sampled now (after adaptation).
            self.recollect();
            self.frames.push(EpochFrame {
                record: record.clone(),
                metrics: self.cum_reg.delta_from(&self.prev_reg),
            });
            self.prev_reg.clone_from(&self.cum_reg);
            self.epoch_trace.push(record);
        }
    }

    fn snapshot_warm(&mut self) {
        self.warm_cpu_instr = self.cpu_instr_total();
        self.warm_gpu_instr = self.gpu_instr_total();
        self.warm_hmc = self.hmc.stats();
        self.warm_fast = self.fast.stats();
        self.warm_slow = self.slow.stats();
        // The measured window starts here: the baseline of its totals and
        // the boundary its first frame deltas from.
        self.warm_reg = self.collect_totals();
        self.recollect();
        self.prev_reg.clone_from(&self.cum_reg);
        self.in_measurement = true;
    }

    /// Snapshot the state invariant monitors inspect.
    fn probe(&self) -> SimProbe {
        let (occ_cpu, occ_gpu) = self.hmc.occupancy_by_class();
        let hc = self.hmc.config();
        let mem_invariants = self
            .fast
            .check_invariants()
            .map_err(|e| format!("fast: {e}"))
            .and_then(|()| self.slow.check_invariants().map_err(|e| format!("slow: {e}")));
        SimProbe {
            now: self.q.now(),
            in_measurement: self.in_measurement,
            cpu_instr: self.cpu_instr_total(),
            gpu_instr: self.gpu_instr_total(),
            hmc: self.hmc.stats(),
            txns_started: self.hmc.txns_started(),
            txns_retired: self.hmc.txns_retired(),
            inflight: self.hmc.inflight(),
            occ_cpu,
            occ_gpu,
            total_ways: hc.num_sets() * hc.assoc as u64,
            remap_tags_unique: self.hmc.table().check_no_duplicate_tags(),
            token_flows: self.hmc.policy().token_flows(),
            policy_invariants: self.hmc.policy().check_invariants(),
            mem_invariants,
            fast: self.fast.stats(),
            slow: self.slow.stats(),
            spans_closed: self.tracer.spans_closed(),
        }
    }

    /// The event loop. Each same-timestamp frontier is drained from the
    /// engine in one [`Queue::pop_batch`] call, amortising find-min
    /// and bucket bookkeeping across the frontier. Events an in-flight
    /// frontier *schedules* at the same timestamp land in the next batch,
    /// since their sequence numbers are larger than the whole current
    /// frontier's — so the dispatch order is exactly `(time, seq)`.
    ///
    /// The `queue.pop` scope covers the whole next-event machinery — the
    /// pops plus the drained/horizon checks — and the loop *hands off*
    /// between it and the `dispatch.*` arm scopes on a single clock
    /// reading per boundary, so the `run.loop` root's exclusive bucket
    /// stays empty: every instant of the loop belongs to some child.
    fn run(&mut self, mut monitors: Option<&mut MonitorSet<SimProbe>>) {
        let _prof = prof::scope("run.loop");
        // One frontier buffer for the whole run, recycled across batches.
        let mut frontier: Vec<h2_sim_core::Scheduled<Ev>> = Vec::with_capacity(64);
        let mut cur = prof::scope("queue.pop");
        while let Some(t) = self.q.peek_time() {
            if t > self.end {
                // Pop the first beyond-horizon event and stop; it counts
                // in `events_processed`.
                self.q.pop();
                break;
            }
            self.q.pop_batch(&mut frontier);
            for ev in frontier.drain(..) {
                cur = prof::handoff(cur, arm_name(&ev.payload));
                self.dispatch(ev.time, ev.payload, &mut monitors);
                cur = prof::handoff(cur, "queue.pop");
            }
        }
        drop(cur);
        // Final check once the queue drains (or the horizon passes): the
        // end-of-run state must satisfy every invariant too.
        self.check_monitors(&mut monitors);
    }

    /// Check the registered monitors, if any, against the current state.
    fn check_monitors(&self, monitors: &mut Option<&mut MonitorSet<SimProbe>>) {
        if let Some(m) = monitors.as_deref_mut() {
            m.check_all(self.q.now(), &self.probe());
        }
    }

    /// Process one event. Host-time attribution (one `dispatch.*` node per
    /// arm, see [`arm_name`]) is the *caller's* job: [`Self::run`] hands
    /// off from its `queue.pop` scope into the arm scope with a single
    /// clock reading so no instant between phases goes unattributed.
    fn dispatch(
        &mut self,
        time: Cycles,
        payload: Ev,
        monitors: &mut Option<&mut MonitorSet<SimProbe>>,
    ) {
        {
            let ev_time = time;
            match payload {
                Ev::CoreWake(i) => {
                    if self.cores[i].blocked == CoreBlock::None {
                        self.core_step(i, ev_time);
                    }
                }
                Ev::CtxWake(j) => {
                    if !self.ctxs[j].blocked {
                        self.ctx_step(j, ev_time);
                    }
                }
                Ev::HmcStart {
                    id,
                    class,
                    addr,
                    is_write,
                    needs_response,
                    span,
                } => {
                    if let Some(sid) = span {
                        self.tracer.open(sid, class.idx() as u8, ev_time);
                    }
                    let mut out = std::mem::take(&mut self.out_buf);
                    self.hmc
                        .access(id, class, addr, is_write, needs_response, span, &mut out);
                    self.process_outputs(&mut out);
                    self.out_buf = out;
                }
                Ev::HmcSram(token) => {
                    let mut out = std::mem::take(&mut self.out_buf);
                    self.hmc.handle(token, &mut out);
                    self.process_outputs(&mut out);
                    self.out_buf = out;
                }
                Ev::MemDone {
                    tier,
                    channel,
                    token,
                } => {
                    // Read before `handle` can retire the transaction: the
                    // class the command was enqueued with, and the span (if
                    // any) this demand completion closes.
                    let (class, tag) = self.trace_ctx(token);
                    self.dev(tier).on_complete(channel, class);
                    let mut out = std::mem::take(&mut self.out_buf);
                    self.hmc.handle(token, &mut out);
                    self.process_outputs(&mut out);
                    self.out_buf = out;
                    // Start queued successors.
                    let _prof = prof::scope("mem.schedule");
                    self.pump(tier, channel);
                    if let Some(tag) = tag {
                        self.tracer.close(tag.span, self.q.now());
                    }
                }
                Ev::Epoch => {
                    self.on_epoch();
                    self.q.schedule_in(self.cfg.epoch_cycles, Ev::Epoch);
                    self.check_monitors(monitors);
                }
                Ev::Faucet => {
                    self.hmc.on_faucet();
                    self.q.schedule_in(self.cfg.faucet_cycles, Ev::Faucet);
                    self.check_monitors(monitors);
                }
                Ev::WarmupEnd => self.snapshot_warm(),
            }
        }
    }
}

/// Profiler label for the dispatch arm that will handle `payload` — one
/// `dispatch.*` node per event variant, nested under the `run.loop` root.
fn arm_name(payload: &Ev) -> &'static str {
    match payload {
        Ev::CoreWake(_) => "dispatch.core_wake",
        Ev::CtxWake(_) => "dispatch.ctx_wake",
        Ev::HmcStart { .. } => "dispatch.hmc_start",
        Ev::HmcSram(_) => "dispatch.hmc_sram",
        Ev::MemDone { .. } => "dispatch.mem_done",
        Ev::Epoch => "dispatch.epoch",
        Ev::Faucet => "dispatch.faucet",
        Ev::WarmupEnd => "dispatch.warmup_end",
    }
}

/// Sum one cache level's hit/miss/writeback counters into `cache.<name>.*`.
fn collect_cache_level(
    m: &mut h2_sim_core::ScopedMetrics<'_>,
    name: &str,
    caches: &[SetAssocCache],
) {
    let mut s = m.scoped(name);
    let (mut hits, mut misses, mut wbs) = (0u64, 0u64, 0u64);
    for c in caches {
        let st = c.stats();
        hits += st.hits;
        misses += st.misses;
        wbs += st.writebacks;
    }
    s.inc("hits", hits);
    s.inc("misses", misses);
    s.inc("writebacks", wbs);
}

/// Run an arbitrary set of workloads under a policy.
///
/// * `cpu_specs` — one entry per core slot (cycled if shorter than
///   `cfg.cpu_cores`); empty = no CPU side.
/// * `gpu_spec` — the GPU kernel; `None` = no GPU side.
/// * `fast_capacity` — fast-tier bytes (callers usually take
///   [`SystemConfig::fast_capacity_for`] so solo and shared runs see the
///   same machine).
pub fn run_workloads(
    cfg: &SystemConfig,
    label: &str,
    cpu_specs: &[WorkloadSpec],
    gpu_spec: Option<&WorkloadSpec>,
    kind: PolicyKind,
    fast_capacity: u64,
) -> RunReport {
    run_workloads_monitored(cfg, label, cpu_specs, gpu_spec, kind, fast_capacity, None)
}

/// [`run_workloads`] with an optional set of invariant monitors checked at
/// every epoch boundary, faucet tick, and end of run. Monitoring is pure
/// observation: a monitored run is bit-identical to an unmonitored one
/// (monitors read [`SimProbe`] snapshots; they cannot touch the simulator).
#[allow(clippy::too_many_arguments)]
pub fn run_workloads_monitored(
    cfg: &SystemConfig,
    label: &str,
    cpu_specs: &[WorkloadSpec],
    gpu_spec: Option<&WorkloadSpec>,
    kind: PolicyKind,
    fast_capacity: u64,
    monitors: Option<&mut MonitorSet<SimProbe>>,
) -> RunReport {
    let plan = plan_from_workloads(cfg, cpu_specs, gpu_spec);
    run_plan_monitored(cfg, label, kind, fast_capacity, plan, None, monitors)
}

/// A fully laid-out set of front-end reference sources, ready to simulate.
///
/// Produced by [`plan_from_workloads`] (classic synthetic presets), by
/// [`crate::scenario`] (multi-tenant scenarios), or from a `.h2trace`
/// replay file. Unit order is load-bearing: core/ctx indices map 1:1 onto
/// trace-capture units and `cpu_tenant`/`gpu_tenant` entries.
pub struct FrontendPlan {
    /// One reference source per CPU core (may be empty).
    pub cpu: Vec<RefSource>,
    /// One reference source per GPU EU context (may be empty).
    pub gpu: Vec<RefSource>,
    /// First GPU-owned address (`u64::MAX` when no GPU side).
    pub gpu_base: u64,
    /// Tenant table; empty for classic untagged runs.
    pub tenants: Vec<TenantInfo>,
    /// Per-core tenant index into `tenants` (empty iff `tenants` is).
    pub cpu_tenant: Vec<usize>,
    /// Per-ctx tenant index into `tenants` (empty iff `tenants` is).
    pub gpu_tenant: Vec<usize>,
}

/// Lay out the classic (untagged) synthetic workloads: CPU copies first,
/// then GPU contexts (all GPU contexts share one window — EUs partition one
/// kernel's data).
pub fn plan_from_workloads(
    cfg: &SystemConfig,
    cpu_specs: &[WorkloadSpec],
    gpu_spec: Option<&WorkloadSpec>,
) -> FrontendPlan {
    let mut base = 0u64;
    let mut cpu: Vec<RefSource> = Vec::new();
    if !cpu_specs.is_empty() {
        for i in 0..cfg.cpu_cores {
            let spec = &cpu_specs[i % cpu_specs.len()];
            let gen = spec.instantiate(cfg.seed, i as u32, base, cfg.footprint_scale);
            base += gen.footprint() + GUARD;
            cpu.push(gen.into());
        }
    }
    let mut gpu: Vec<RefSource> = Vec::new();
    let mut gpu_window_base = u64::MAX;
    if let Some(spec) = gpu_spec {
        gpu_window_base = base;
        for j in 0..cfg.gpu_eus {
            let gen = spec.instantiate(cfg.seed, 1000 + j as u32, base, cfg.footprint_scale);
            gpu.push(gen.into());
        }
    }
    FrontendPlan {
        cpu,
        gpu,
        gpu_base: gpu_window_base,
        tenants: Vec::new(),
        cpu_tenant: Vec::new(),
        gpu_tenant: Vec::new(),
    }
}

/// Run a pre-built [`FrontendPlan`] under a policy. This is the single
/// simulation entry point: classic runs, scenario runs, and trace replays
/// all funnel through here so they share one code path bit-for-bit.
///
/// When `capture` is `Some`, every front-end pull is recorded and the
/// resulting [`TraceCapture`] is stored into the slot after the run.
#[allow(clippy::too_many_arguments)]
pub fn run_plan_monitored(
    cfg: &SystemConfig,
    label: &str,
    kind: PolicyKind,
    fast_capacity: u64,
    plan: FrontendPlan,
    capture: Option<&mut Option<TraceCapture>>,
    monitors: Option<&mut MonitorSet<SimProbe>>,
) -> RunReport {
    simulate::<EventQueue<Ev>>(cfg, label, kind, fast_capacity, plan, capture, monitors)
}

/// [`run_plan_monitored`] on the legacy binary-heap event queue, without
/// capture or monitors: the reference run of the engine-differential
/// oracles. It must be bit-identical to the production run of the same
/// plan.
pub fn run_plan_on_heap(
    cfg: &SystemConfig,
    label: &str,
    kind: PolicyKind,
    fast_capacity: u64,
    plan: FrontendPlan,
) -> RunReport {
    simulate::<HeapQueue<Ev>>(cfg, label, kind, fast_capacity, plan, None, None)
}

/// Build the system for `plan`, run it on a fresh `Q`, and report.
fn simulate<Q: Queue<Ev> + Default>(
    cfg: &SystemConfig,
    label: &str,
    kind: PolicyKind,
    fast_capacity: u64,
    plan: FrontendPlan,
    capture: Option<&mut Option<TraceCapture>>,
    monitors: Option<&mut MonitorSet<SimProbe>>,
) -> RunReport {
    let mut hybrid = HybridConfig {
        block_bytes: cfg.block_bytes,
        assoc: cfg.assoc,
        fast_channels: cfg.fast_channels,
        slow_channels: cfg.slow_channels,
        fast_capacity,
        mode: cfg.mode,
        remap_cache_bytes: cfg.remap_cache_bytes,
        chaining: false,
        extra_tag_latency: 0,
        free_swaps: false,
    };
    let policy = kind.build(cfg, &mut hybrid);
    let hmc = Hmc::new(hybrid, policy, cfg.seed);

    let mut cores = Vec::new();
    let mut l1s = Vec::new();
    let mut l2s = Vec::new();
    for src in plan.cpu {
        cores.push(CpuCore::new(src));
        l1s.push(SetAssocCache::new(cfg.hierarchy.cpu_l1.clone()));
        l2s.push(SetAssocCache::new(cfg.hierarchy.cpu_l2.clone()));
    }
    let ctxs: Vec<GpuCtx> = plan.gpu.into_iter().map(GpuCtx::new).collect();
    let mut gpu_l1s = Vec::new();
    if !ctxs.is_empty() {
        let n_l1 = ctxs.len().div_ceil(cfg.hierarchy.eus_per_gpu_l1);
        for _ in 0..n_l1 {
            gpu_l1s.push(SetAssocCache::new(cfg.hierarchy.gpu_l1.clone()));
        }
    }
    let gpu_window_base = plan.gpu_base;
    let n_tenants = plan.tenants.len();

    let t_start = std::time::Instant::now();
    let n_ctx = ctxs.len();
    let n_core = cores.len();
    let fast = MemDevice::new(cfg.fast_preset.timing(), cfg.fast_channels, true);
    let slow = MemDevice::new(TimingPreset::Ddr4.timing(), cfg.slow_channels, false);
    let mut sim = Sim {
        cfg: cfg.clone(),
        q: Q::default(),
        cores,
        l1s,
        l2s,
        ctxs,
        gpu_l1s,
        llc: SetAssocCache::new(cfg.hierarchy.llc.clone()),
        hmc,
        fast,
        slow,
        end: cfg.total_cycles(),
        gpu_base: gpu_window_base,
        warm_cpu_instr: 0,
        warm_gpu_instr: 0,
        warm_hmc: HmcStats::default(),
        warm_fast: MemStats::default(),
        warm_slow: MemStats::default(),
        last_cpu_instr: 0,
        last_gpu_instr: 0,
        epoch_idx: 0,
        epoch_trace: Vec::new(),
        in_measurement: false,
        cpu_lat_hist: LogHistogram::new(),
        gpu_lat_hist: LogHistogram::new(),
        frames: Vec::new(),
        cum_reg: MetricsRegistry::new(),
        prev_reg: MetricsRegistry::new(),
        warm_reg: MetricsRegistry::new(),
        tracer: SpanCollector::new(cfg.trace_sample),
        out_buf: Vec::new(),
        started_buf: Vec::new(),
        capture: if capture.is_some() {
            Some(TraceCapture::new(n_core, n_ctx))
        } else {
            None
        },
        tenants: plan.tenants,
        cpu_tenant: plan.cpu_tenant,
        gpu_tenant: plan.gpu_tenant,
        tenant_cpu_hists: vec![LogHistogram::new(); n_tenants],
        tenant_gpu_hists: vec![LogHistogram::new(); n_tenants],
    };
    // Stagger initial wake-ups so front-ends do not move in lockstep.
    for i in 0..sim.cores.len() {
        sim.q.schedule_at(1 + i as u64 * 7, Ev::CoreWake(i));
    }
    for j in 0..sim.ctxs.len() {
        sim.q.schedule_at(3 + j as u64 * 5, Ev::CtxWake(j));
    }
    sim.q.schedule_at(cfg.epoch_cycles, Ev::Epoch);
    sim.q.schedule_at(cfg.faucet_cycles, Ev::Faucet);
    sim.q.schedule_at(cfg.warmup_cycles, Ev::WarmupEnd);

    sim.run(monitors);
    let wall_s = t_start.elapsed().as_secs_f64();
    if let Some(slot) = capture {
        *slot = sim.capture.take();
    }
    // Fold this thread's profiler tree into the global report now, so runs
    // executed on short-lived pool workers are visible without waiting for
    // thread exit. No-op when the profiler never recorded anything.
    prof::flush_thread();

    let telemetry = RunTelemetry {
        totals: sim.collect_totals().delta_from(&sim.warm_reg),
        epochs: std::mem::take(&mut sim.frames),
    };
    let window_hist = |name: &str| telemetry.totals.hist(name).cloned().unwrap_or_default();
    let avg_cpu_read_latency = window_hist("lat.cpu_read").mean();
    let avg_gpu_read_latency = window_hist("lat.gpu_demand").mean();
    let tenants = sim
        .tenants
        .iter()
        .map(|t| TenantSlo {
            name: t.name.clone(),
            priority: t.priority,
            cpu_lat: window_hist(&format!("tenant.{}.lat.cpu", t.name)),
            gpu_lat: window_hist(&format!("tenant.{}.lat.gpu", t.name)),
        })
        .collect();
    let trace = if sim.tracer.enabled() {
        Some(RunTrace {
            sample: sim.tracer.sample_rate(),
            dropped: sim.tracer.dropped(),
            spans: sim.tracer.take_spans(),
        })
    } else {
        None
    };

    let (rc_hits, rc_misses, _) = sim.hmc.remap_cache_counts();
    let rc_total = rc_hits + rc_misses;
    let fast_d = sim.fast.stats().delta_from(&sim.warm_fast);
    let slow_d = sim.slow.stats().delta_from(&sim.warm_slow);
    let fast_t = cfg.fast_preset.timing();
    let slow_t = TimingPreset::Ddr4.timing();

    RunReport {
        policy: kind.label(),
        mix: label.to_string(),
        measured_cycles: cfg.measure_cycles,
        cpu_instr: sim.cpu_instr_total() - sim.warm_cpu_instr,
        gpu_instr: sim.gpu_instr_total() - sim.warm_gpu_instr,
        weights: cfg.norm_weights(),
        hmc: sim.hmc.stats().delta_from(&sim.warm_hmc),
        fast: fast_d,
        slow: slow_d,
        fast_energy: EnergyBreakdown::from_counts(
            &fast_t.energy,
            fast_d.bytes,
            fast_d.activations,
            cfg.fast_channels,
            cfg.measure_cycles,
        ),
        slow_energy: EnergyBreakdown::from_counts(
            &slow_t.energy,
            slow_d.bytes,
            slow_d.activations,
            cfg.slow_channels,
            cfg.measure_cycles,
        ),
        remap_hit_rate: if rc_total == 0 {
            0.0
        } else {
            rc_hits as f64 / rc_total as f64
        },
        final_params: sim.hmc.policy().params(),
        epoch_trace: sim.epoch_trace,
        events_processed: sim.q.events_processed(),
        wall_s,
        events_per_sec: sim.q.events_processed() as f64 / wall_s.max(1e-9),
        clamped_events: sim.q.clamped_events(),
        avg_cpu_read_latency,
        avg_gpu_read_latency,
        fast_channel_bytes: sim.fast.channel_bytes(),
        slow_channel_bytes: sim.slow.channel_bytes(),
        telemetry: Some(telemetry),
        trace,
        tenants,
    }
}

/// Run a Table II mix with selectable participants.
pub fn run_sim_parts(
    cfg: &SystemConfig,
    mix: &Mix,
    kind: PolicyKind,
    parts: Participants,
) -> RunReport {
    let cpu_specs = mix.cpu_specs();
    let gpu_spec = mix.gpu_spec();
    // The machine (fast capacity) is sized for the full mix even in solo
    // runs, exactly like "running them alone" on the same system.
    let cap = cfg.fast_capacity_for(mix);
    match parts {
        Participants::Both => {
            run_workloads(cfg, mix.name, &cpu_specs, Some(&gpu_spec), kind, cap)
        }
        Participants::CpuOnly => run_workloads(cfg, mix.name, &cpu_specs, None, kind, cap),
        Participants::GpuOnly => run_workloads(cfg, mix.name, &[], Some(&gpu_spec), kind, cap),
    }
}

/// Run a Table II mix (CPU + GPU together) under `kind`.
pub fn run_sim(cfg: &SystemConfig, mix: &Mix, kind: PolicyKind) -> RunReport {
    run_sim_parts(cfg, mix, kind, Participants::Both)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SystemConfig {
        SystemConfig::tiny()
    }

    #[test]
    fn baseline_run_produces_progress() {
        let cfg = tiny();
        let mix = Mix::by_name("C1").unwrap();
        let r = run_sim(&cfg, &mix, PolicyKind::NoPart);
        assert!(r.cpu_instr > 0, "CPU made progress");
        assert!(r.gpu_instr > 0, "GPU made progress");
        assert!(r.weighted_ipc() > 0.0);
        assert!(r.hmc.accesses[0] > 0 && r.hmc.accesses[1] > 0);
        assert!(r.slow.bytes > 0 && r.fast.bytes > 0);
        assert!(r.energy_j() > 0.0);
    }

    #[test]
    fn determinism_bit_identical() {
        let cfg = tiny();
        let mix = Mix::by_name("C2").unwrap();
        let a = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
        let b = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
        assert_eq!(a.cpu_instr, b.cpu_instr);
        assert_eq!(a.gpu_instr, b.gpu_instr);
        assert_eq!(a.hmc, b.hmc);
        assert_eq!(a.fast, b.fast);
        assert_eq!(a.slow, b.slow);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn run_reports_throughput() {
        let cfg = tiny();
        let mix = Mix::by_name("C1").unwrap();
        let r = run_sim(&cfg, &mix, PolicyKind::NoPart);
        assert!(r.wall_s > 0.0);
        assert!(r.events_per_sec > 0.0);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = tiny();
        let mix = Mix::by_name("C1").unwrap();
        let a = run_sim(&cfg, &mix, PolicyKind::NoPart);
        cfg.seed = 7;
        let b = run_sim(&cfg, &mix, PolicyKind::NoPart);
        assert_ne!(a.cpu_instr, b.cpu_instr);
    }

    #[test]
    fn solo_runs_have_one_side_only() {
        let cfg = tiny();
        let mix = Mix::by_name("C1").unwrap();
        let cpu = run_sim_parts(&cfg, &mix, PolicyKind::NoPart, Participants::CpuOnly);
        assert!(cpu.cpu_instr > 0);
        assert_eq!(cpu.gpu_instr, 0);
        let gpu = run_sim_parts(&cfg, &mix, PolicyKind::NoPart, Participants::GpuOnly);
        assert_eq!(gpu.cpu_instr, 0);
        assert!(gpu.gpu_instr > 0);
    }

    #[test]
    fn contention_slows_both_sides() {
        let cfg = tiny();
        let mix = Mix::by_name("C5").unwrap();
        let both = run_sim(&cfg, &mix, PolicyKind::NoPart);
        let cpu_solo = run_sim_parts(&cfg, &mix, PolicyKind::NoPart, Participants::CpuOnly);
        let gpu_solo = run_sim_parts(&cfg, &mix, PolicyKind::NoPart, Participants::GpuOnly);
        assert!(
            both.cpu_slowdown(&cpu_solo) > 1.02,
            "CPU should suffer from sharing: {}",
            both.cpu_slowdown(&cpu_solo)
        );
        assert!(
            both.gpu_slowdown(&gpu_solo) > 1.0,
            "GPU should suffer at least slightly: {}",
            both.gpu_slowdown(&gpu_solo)
        );
    }

    #[test]
    fn all_policies_complete() {
        let cfg = tiny();
        let mix = Mix::by_name("C3").unwrap();
        for kind in PolicyKind::fig5_designs() {
            let r = run_sim(&cfg, &mix, kind);
            assert!(r.cpu_instr > 0, "{}", kind.label());
            assert!(r.gpu_instr > 0, "{}", kind.label());
        }
    }

    #[test]
    fn epoch_trace_recorded_in_measurement() {
        let cfg = tiny();
        let mix = Mix::by_name("C1").unwrap();
        let r = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
        let expected = cfg.measure_cycles / cfg.epoch_cycles;
        assert!(
            (r.epoch_trace.len() as u64) >= expected.saturating_sub(2),
            "trace len {} vs expected ~{}",
            r.epoch_trace.len(),
            expected
        );
    }

    #[test]
    fn hashcache_uses_direct_mapped_geometry() {
        let mut cfg = tiny();
        cfg.assoc = 1;
        let mix = Mix::by_name("C1").unwrap();
        let r = run_sim(&cfg, &mix, PolicyKind::HashCache);
        assert!(r.cpu_instr > 0);
    }

    #[test]
    fn telemetry_frames_cover_measured_epochs() {
        let cfg = tiny();
        let mix = Mix::by_name("C1").unwrap();
        let r = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
        let t = r.telemetry.as_ref().expect("every run records telemetry");
        assert_eq!(t.epochs.len(), r.epoch_trace.len());
        for (f, rec) in t.epochs.iter().zip(r.epoch_trace.iter()) {
            assert_eq!(&f.record, rec);
        }
        // Frame counter deltas sum to the measured-window totals (the
        // totals registry covers WarmupEnd..end; frames tile the same
        // window except the post-final-epoch tail).
        let summed: u64 = t
            .epochs
            .iter()
            .map(|f| f.metrics.counter("sys.cpu_instr"))
            .sum();
        assert!(summed > 0);
        assert!(summed <= t.totals.counter("sys.cpu_instr"));
        // The scalar latencies are the means of the window's histograms.
        let h = t.totals.hist("lat.cpu_read").expect("cpu latency hist");
        assert!(h.count() > 0);
        assert_eq!(h.mean(), r.avg_cpu_read_latency);
        let h = t.totals.hist("lat.gpu_demand").expect("gpu latency hist");
        assert!(h.count() > 0);
        assert_eq!(h.mean(), r.avg_gpu_read_latency);
        // Per-bank rows only in totals, not in per-epoch frames.
        assert!(t.totals.counter("mem.fast.ch0.bank0.row_hits") > 0);
        assert_eq!(
            t.epochs[0].metrics.counter("mem.fast.ch0.bank0.row_hits"),
            0
        );
    }

    #[test]
    fn monitored_run_is_bit_identical_and_clean() {
        use h2_sim_core::InvariantMonitor;

        /// Token conservation + transaction accounting, straight off the probe.
        struct Basic;
        impl InvariantMonitor<SimProbe> for Basic {
            fn name(&self) -> &'static str {
                "basic"
            }
            fn check(&mut self, p: &SimProbe) -> Result<(), String> {
                if let Some(f) = p.token_flows {
                    if !f.conserved() {
                        return Err(format!("token flows not conserved: {f:?}"));
                    }
                }
                if p.txns_started != p.txns_retired + p.inflight as u64 {
                    return Err(format!(
                        "txns {} != {} retired + {} inflight",
                        p.txns_started, p.txns_retired, p.inflight
                    ));
                }
                p.policy_invariants.as_ref().map_err(String::clone).copied()
            }
        }

        let cfg = tiny();
        let mix = Mix::by_name("C1").unwrap();
        let cap = cfg.fast_capacity_for(&mix);
        let mut monitors = MonitorSet::new();
        monitors.register(Box::new(Basic));
        let a = run_workloads_monitored(
            &cfg,
            mix.name,
            &mix.cpu_specs(),
            Some(&mix.gpu_spec()),
            PolicyKind::HydrogenFull,
            cap,
            Some(&mut monitors),
        );
        assert!(monitors.ok(), "violations: {:?}", monitors.violations());
        let b = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
        assert_eq!(a.cpu_instr, b.cpu_instr);
        assert_eq!(a.gpu_instr, b.gpu_instr);
        assert_eq!(a.hmc, b.hmc);
        assert_eq!(a.fast, b.fast);
        assert_eq!(a.slow, b.slow);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.epoch_trace, b.epoch_trace);
    }

    #[test]
    fn flat_mode_runs() {
        let mut cfg = tiny();
        cfg.mode = h2_hybrid::types::Mode::Flat;
        let mix = Mix::by_name("C4").unwrap();
        let r = run_sim(&cfg, &mix, PolicyKind::HydrogenFull);
        assert!(r.cpu_instr > 0 && r.gpu_instr > 0);
        // Flat mode: every migration writes the victim back.
        assert!(r.hmc.victim_writebacks > 0);
    }
}
