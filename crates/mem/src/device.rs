//! The DRAM device model: channels, banks, open rows, a shared data bus per
//! channel, and an FR-FCFS-like command scheduler with request priorities.
//!
//! # Model
//!
//! Each channel serves one data burst at a time on its bus, but up to
//! [`PIPELINE_DEPTH`] commands may be "started" concurrently so that bank
//! preparation (precharge/activate) of the next command overlaps the current
//! burst — a lightweight approximation of bank-level parallelism that
//! preserves the two first-order effects the paper depends on: bus bandwidth
//! saturation under streaming (GPU) traffic and row-miss latency under
//! random (CPU) traffic.
//!
//! The device never touches the event queue. `enqueue` + `pump` return
//! started commands with their completion times; the caller schedules those
//! and calls [`MemDevice::on_complete`] when they fire, then pumps again.
//!
//! # Pending-command layout
//!
//! Queued commands live in a per-channel structure-of-arrays slab
//! ([`CmdSlab`]): the fields the FR-FCFS scan reads every [`MemDevice::pump`]
//! (priority, arrival time, arrival sequence) sit in their own dense arrays,
//! while decode-only fields (bank/row — precomputed once at enqueue — bytes,
//! token, tracing context) are touched only when a command actually starts.
//! Slot occupancy is a two-level bitmap (per-slot words plus a summary word
//! per 64 slot-words, the calendar queue's template), and freed slots are
//! reused lowest-index-first, so steady state never allocates and never
//! moves a pending command. A per-slot row-hit bitmap is maintained
//! incrementally through per-bank slot bitmaps: the scan itself is a
//! conditional-move max over packed `(priority, row_hit, age)` keys with no
//! per-candidate address math. Selection is key-based — slot order never
//! influences which command wins.

use crate::energy::EnergyBreakdown;
use crate::timing::DramTiming;
use h2_sim_core::trace_span::{
    coalesce, split_queue_wait, BlameCause, BlameClass, CmdTrace, SpanInterval, TraceTag,
};
use h2_sim_core::units::Cycles;
use h2_sim_core::{CounterId, GaugeId, MetricsRegistry};

/// Waiting time after which a queued command is escalated past all
/// priorities (starvation guard for priority schedulers).
pub const AGE_CAP: Cycles = 250;

/// How many commands a channel may have in flight at once. This must cover
/// the CAS latency / burst-time ratio (~6 for both presets) so that a
/// streaming bank keeps the data bus saturated; bank prep of later commands
/// overlaps earlier bursts.
pub const PIPELINE_DEPTH: usize = 48;

/// A command presented to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCmd {
    /// Device byte address (bank/row are derived from it).
    pub addr: u64,
    /// Transfer size in bytes (rounded up to 64 B beats internally).
    pub bytes: u32,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Scheduling priority; higher wins (HAShCache prioritises CPU = 1).
    pub priority: u8,
    /// Opaque caller token, returned on completion.
    pub token: u64,
}

/// A command the scheduler has started, with its completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedCmd {
    /// Absolute cycle at which the data transfer finishes.
    pub done_at: Cycles,
    /// The caller's token.
    pub token: u64,
    /// Channel that served it (for the caller's bookkeeping).
    pub channel: usize,
}

/// Address → (bank, row) decomposition, strength-reduced to shifts and
/// masks when the geometry is a power of two (both Table I presets are).
#[derive(Debug, Clone, Copy)]
struct AddrMap {
    row_bytes: u64,
    banks: u64,
    /// `log2(row_bytes)`, valid when `pow2`.
    row_shift: u32,
    /// `banks - 1`, valid when `pow2`.
    bank_mask: u64,
    /// `log2(banks)`, valid when `pow2`.
    bank_shift: u32,
    pow2: bool,
}

impl AddrMap {
    fn new(row_bytes: u64, banks: u64) -> Self {
        let pow2 = row_bytes.is_power_of_two() && banks.is_power_of_two();
        Self {
            row_bytes,
            banks,
            row_shift: row_bytes.trailing_zeros(),
            bank_mask: banks.wrapping_sub(1),
            bank_shift: banks.trailing_zeros(),
            pow2,
        }
    }

    /// Map a device address to (bank index, row id). Value-identical to
    /// `row_global = addr / row_bytes; (row_global % banks, row_global /
    /// banks)` — the shift path is exact for power-of-two geometry.
    #[inline]
    fn map(&self, addr: u64) -> (u32, u64) {
        if self.pow2 {
            let row_global = addr >> self.row_shift;
            ((row_global & self.bank_mask) as u32, row_global >> self.bank_shift)
        } else {
            let row_global = addr / self.row_bytes;
            ((row_global % self.banks) as u32, row_global / self.banks)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_at: Cycles,
    // Per-bank locality stats (telemetry).
    row_hits: u64,
    row_conflicts: u64,
    /// Class of the last command started on this bank (tracing only):
    /// blames bank-busy waits on whoever occupied the bank.
    last_class: BlameClass,
}

/// Tracing context attached to the demand command of a sampled
/// transaction: its span tag plus the channel's queue composition (by
/// [`BlameClass`]) snapshotted at enqueue.
#[derive(Debug, Clone, Copy)]
struct TracedInfo {
    tag: TraceTag,
    ahead: [u64; 3],
}

/// Structure-of-arrays slab of one channel's pending commands.
///
/// Capacity is always a multiple of 64; a slot is queued iff its `occ` bit
/// is set. `summary` has one bit per `occ` word (so the scan skips runs of
/// empty slots the way the calendar queue skips empty wheel slots), `hit`
/// mirrors `occ` with the slot's current row-hit status, and `bank_slots`
/// holds one slot-bitmap per bank so `hit` can be refreshed incrementally
/// whenever a bank's open row changes.
#[derive(Debug, Default)]
struct CmdSlab {
    // Hot scan arrays (read for every queued candidate every pick).
    prio: Vec<u8>,
    arrival_time: Vec<Cycles>,
    arrival_seq: Vec<u64>,
    // Decode arrays (read once, when a command starts).
    bank: Vec<u32>,
    row: Vec<u64>,
    bytes: Vec<u32>,
    write: Vec<bool>,
    token: Vec<u64>,
    class: Vec<BlameClass>,
    trace: Vec<Option<TracedInfo>>,
    /// Slot occupancy, one bit per slot.
    occ: Vec<u64>,
    /// One bit per `occ` word: word has at least one queued slot.
    summary: Vec<u64>,
    /// Row-hit status per slot (`hit ⊆ occ`).
    hit: Vec<u64>,
    /// Per-bank slot bitmaps (`bank_slots[b] ⊆ occ`).
    bank_slots: Vec<Vec<u64>>,
    /// Queued commands (population count of `occ`).
    len: usize,
}

impl CmdSlab {
    fn new(banks: usize) -> Self {
        let mut s = Self {
            bank_slots: vec![Vec::new(); banks],
            ..Self::default()
        };
        s.grow();
        s
    }

    /// Add one 64-slot word to every array. Called at construction and on
    /// overflow; steady state never grows.
    fn grow(&mut self) {
        let add = 64;
        self.prio.resize(self.prio.len() + add, 0);
        self.arrival_time.resize(self.arrival_time.len() + add, 0);
        self.arrival_seq.resize(self.arrival_seq.len() + add, 0);
        self.bank.resize(self.bank.len() + add, 0);
        self.row.resize(self.row.len() + add, 0);
        self.bytes.resize(self.bytes.len() + add, 0);
        self.write.resize(self.write.len() + add, false);
        self.token.resize(self.token.len() + add, 0);
        self.class.resize(self.class.len() + add, BlameClass::Background);
        self.trace.resize(self.trace.len() + add, None);
        self.occ.push(0);
        self.hit.push(0);
        for b in &mut self.bank_slots {
            b.push(0);
        }
        if self.occ.len().div_ceil(64) > self.summary.len() {
            self.summary.push(0);
        }
    }

    /// Lowest free slot index, growing the slab when full.
    fn alloc_slot(&mut self) -> usize {
        for (w, &word) in self.occ.iter().enumerate() {
            if word != u64::MAX {
                return w * 64 + (!word).trailing_zeros() as usize;
            }
        }
        let slot = self.occ.len() * 64;
        self.grow();
        slot
    }

    #[inline]
    fn set_occupied(&mut self, slot: usize, hit: bool) {
        let (w, b) = (slot / 64, slot % 64);
        self.occ[w] |= 1 << b;
        self.summary[w / 64] |= 1 << (w % 64);
        self.hit[w] = (self.hit[w] & !(1 << b)) | ((hit as u64) << b);
        self.bank_slots[self.bank[slot] as usize][w] |= 1 << b;
        self.len += 1;
    }

    #[inline]
    fn clear_slot(&mut self, slot: usize) {
        let (w, b) = (slot / 64, slot % 64);
        self.occ[w] &= !(1 << b);
        if self.occ[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.hit[w] &= !(1 << b);
        self.bank_slots[self.bank[slot] as usize][w] &= !(1 << b);
        self.trace[slot] = None;
        self.len -= 1;
    }

    /// Refresh the row-hit bits of every slot queued on `bank` after its
    /// open row changed to `row`.
    #[inline]
    fn rehit_bank(&mut self, bank: usize, row: u64) {
        for (w, &word) in self.bank_slots[bank].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = w * 64 + b;
                let hit = (self.row[slot] == row) as u64;
                self.hit[w] = (self.hit[w] & !(1 << b)) | (hit << b);
            }
        }
    }

    /// FR-FCFS-lite candidate scan: the queued slot with the maximal
    /// `(priority, row_hit, u64::MAX - arrival_seq)` key, commands older
    /// than [`AGE_CAP`] escalated to the top priority. Keys are packed into
    /// one integer so the inner loop is a single compare-and-select per
    /// candidate; keys are unique (arrival sequence numbers are), so scan
    /// order cannot influence the winner.
    #[inline]
    fn pick(&self, now: Cycles) -> Option<usize> {
        let mut best_key: u128 = 0;
        let mut best_slot = 0usize;
        for (sw, &sword) in self.summary.iter().enumerate() {
            let mut swbits = sword;
            while swbits != 0 {
                let w = sw * 64 + swbits.trailing_zeros() as usize;
                swbits &= swbits - 1;
                let mut bits = self.occ[w];
                let hits = self.hit[w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let slot = w * 64 + b;
                    let aged = now.saturating_sub(self.arrival_time[slot]) > AGE_CAP;
                    let prio = if aged { u8::MAX } else { self.prio[slot] };
                    let key = (((prio as u128) << 65)
                        | (((hits >> b) & 1) as u128) << 64
                        | (u64::MAX - self.arrival_seq[slot]) as u128)
                        + 1;
                    if key > best_key {
                        best_key = key;
                        best_slot = slot;
                    }
                }
            }
        }
        (best_key != 0).then_some(best_slot)
    }
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: Cycles,
    slab: CmdSlab,
    in_flight: usize,
    // Stats.
    reads: u64,
    writes: u64,
    bytes: u64,
    activations: u64,
    row_hits: u64,
    row_conflicts: u64,
    busy_cycles: Cycles,
    queued_total: u64,
    max_queue: u64,
    /// Sum of queue depths sampled at each enqueue (for average depth).
    depth_sum: u64,
    /// Queued commands per [`BlameClass`] (kept in lockstep with the slab
    /// so traced enqueues snapshot queue composition in O(1)).
    queued_by_class: [u64; 3],
    // Tracing-only state (empty when tracing is off).
    /// `(token, class)` of every in-flight command, for queue-composition
    /// snapshots. Completions remove the first matching token.
    live: Vec<(u64, BlameClass)>,
    /// In-flight commands per class (mirrors `live`).
    live_by_class: [u64; 3],
    /// Blame decompositions of traced commands started since the last
    /// [`MemDevice::take_cmd_traces`] drain.
    records: Vec<CmdTrace>,
}

impl Channel {
    fn new(banks: usize) -> Self {
        Self {
            banks: vec![
                Bank {
                    open_row: None,
                    ready_at: 0,
                    row_hits: 0,
                    row_conflicts: 0,
                    last_class: BlameClass::Background,
                };
                banks
            ],
            bus_free_at: 0,
            slab: CmdSlab::new(banks),
            in_flight: 0,
            reads: 0,
            writes: 0,
            bytes: 0,
            activations: 0,
            row_hits: 0,
            row_conflicts: 0,
            busy_cycles: 0,
            queued_total: 0,
            max_queue: 0,
            depth_sum: 0,
            queued_by_class: [0; 3],
            live: Vec::new(),
            live_by_class: [0; 3],
            records: Vec::new(),
        }
    }

    /// Queue a command. `seq` is the device-wide arrival sequence number
    /// assigned by [`MemDevice::enqueue_traced`].
    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &mut self,
        amap: &AddrMap,
        demand_first: bool,
        tracing: bool,
        cmd: MemCmd,
        now: Cycles,
        class: BlameClass,
        tag: Option<TraceTag>,
        seq: u64,
    ) {
        let (bank, row) = amap.map(cmd.addr);
        let trace = if tracing {
            tag.map(|tag| {
                let mut ahead = [0u64; 3];
                for (i, a) in ahead.iter_mut().enumerate() {
                    *a = self.queued_by_class[i] + self.live_by_class[i];
                }
                TracedInfo { tag, ahead }
            })
        } else {
            None
        };
        let slot = self.slab.alloc_slot();
        let s = &mut self.slab;
        s.prio[slot] = if demand_first { cmd.priority } else { 0 };
        s.arrival_time[slot] = now;
        s.arrival_seq[slot] = seq;
        s.bank[slot] = bank;
        s.row[slot] = row;
        s.bytes[slot] = cmd.bytes;
        s.write[slot] = cmd.is_write;
        s.token[slot] = cmd.token;
        s.class[slot] = class;
        s.trace[slot] = trace;
        let hit = self.banks[bank as usize].open_row == Some(row);
        s.set_occupied(slot, hit);
        self.queued_by_class[class.idx()] += 1;
        self.queued_total += 1;
        self.max_queue = self.max_queue.max(self.slab.len as u64);
        self.depth_sum += self.slab.len as u64;
    }

    /// Start as many queued commands as pipelining allows, appending each
    /// (with its completion time) to `out`. `ch` is this channel's index,
    /// echoed into [`StartedCmd::channel`].
    fn pump(
        &mut self,
        timing: &DramTiming,
        tracing: bool,
        iv_pool: &mut Vec<Vec<SpanInterval>>,
        ch: usize,
        now: Cycles,
        out: &mut Vec<StartedCmd>,
    ) {
        while self.in_flight < PIPELINE_DEPTH {
            let Some(slot) = self.slab.pick(now) else { break };
            let (done_at, token) = self.start_slot(timing, tracing, iv_pool, now, slot);
            self.in_flight += 1;
            out.push(StartedCmd {
                done_at,
                token,
                channel: ch,
            });
        }
    }

    /// Retire one in-flight command (with its token when tracing, so the
    /// queue-composition bookkeeping can drop its live entry).
    fn complete(&mut self, tracing: bool, token: u64) {
        debug_assert!(self.in_flight > 0, "completion without in-flight command");
        self.in_flight -= 1;
        if tracing {
            if let Some(i) = self.live.iter().position(|&(t, _)| t == token) {
                let (_, class) = self.live.swap_remove(i);
                self.live_by_class[class.idx()] -= 1;
            }
        }
    }

    /// Compute timing for the picked slot, free it, mutate bank/bus state,
    /// return `(completion, token)`. When tracing, also records the
    /// command's blame decomposition: queue wait split across the classes
    /// ahead of it, bank-busy wait charged to the bank's previous occupant,
    /// row-conflict penalty, bus wait, and intrinsic service time — tiling
    /// `[arrival, data_end)` exactly.
    fn start_slot(
        &mut self,
        timing: &DramTiming,
        tracing: bool,
        iv_pool: &mut Vec<Vec<SpanInterval>>,
        now: Cycles,
        slot: usize,
    ) -> (Cycles, u64) {
        let s = &self.slab;
        let bank_idx = s.bank[slot] as usize;
        let row = s.row[slot];
        let cmd_bytes = s.bytes[slot];
        let is_write = s.write[slot];
        let token = s.token[slot];
        let class = s.class[slot];
        let trace = s.trace[slot];
        let arrival_time = s.arrival_time[slot];
        let burst = timing.burst_cycles(cmd_bytes);
        let bank = self.banks[bank_idx];

        // `bank.ready_at` is the earliest cycle the bank accepts its next
        // column command; CAS is pure latency so row hits pipeline at burst
        // (tCCD) granularity and a streaming bank saturates the bus.
        let t0 = now.max(bank.ready_at);
        let (prep, activated, row_hit, conflict) = match bank.open_row {
            Some(r) if r == row => (0, false, true, false),
            Some(_) => (timing.t_rp + timing.t_rcd, true, false, true),
            None => (timing.t_rcd, true, false, false),
        };
        let col_time = t0 + prep;
        let data_start = (col_time + timing.t_cas).max(self.bus_free_at);
        let data_end = data_start + burst;

        if tracing {
            if let Some(info) = trace {
                let mut iv: Vec<SpanInterval> =
                    iv_pool.pop().unwrap_or_else(|| Vec::with_capacity(6));
                if now > arrival_time {
                    if info.tag.token_stalled {
                        iv.push(SpanInterval {
                            cause: BlameCause::TokenStall,
                            start: arrival_time,
                            end: now,
                        });
                    } else {
                        iv.extend(split_queue_wait(arrival_time, now, info.ahead));
                    }
                }
                if t0 > now {
                    iv.push(SpanInterval {
                        cause: bank.last_class.queue_cause(),
                        start: now,
                        end: t0,
                    });
                }
                if prep > 0 {
                    iv.push(SpanInterval {
                        cause: if conflict { BlameCause::RowConflict } else { BlameCause::Service },
                        start: t0,
                        end: col_time,
                    });
                }
                iv.push(SpanInterval {
                    cause: BlameCause::Service,
                    start: col_time,
                    end: col_time + timing.t_cas,
                });
                if data_start > col_time + timing.t_cas {
                    iv.push(SpanInterval {
                        cause: BlameCause::BusBusy,
                        start: col_time + timing.t_cas,
                        end: data_start,
                    });
                }
                iv.push(SpanInterval {
                    cause: BlameCause::Service,
                    start: data_start,
                    end: data_end,
                });
                coalesce(&mut iv);
                self.records.push(CmdTrace { span: info.tag.span, intervals: iv });
            }
            self.banks[bank_idx].last_class = class;
            self.live.push((token, class));
            self.live_by_class[class.idx()] += 1;
        }

        self.slab.clear_slot(slot);
        self.queued_by_class[class.idx()] -= 1;
        self.banks[bank_idx].open_row = Some(row);
        self.banks[bank_idx].ready_at = col_time + burst;
        self.bus_free_at = data_end;
        // The open row changed (or was confirmed): refresh row-hit bits of
        // everything still queued on this bank.
        self.slab.rehit_bank(bank_idx, row);

        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.bytes += (cmd_bytes as u64).div_ceil(64) * 64;
        if activated {
            self.activations += 1;
        }
        if row_hit {
            self.row_hits += 1;
            self.banks[bank_idx].row_hits += 1;
        }
        if conflict {
            self.row_conflicts += 1;
            self.banks[bank_idx].row_conflicts += 1;
        }
        self.busy_cycles += burst;

        (data_end, token)
    }
}

/// Aggregate device statistics (summed over channels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Read commands served.
    pub reads: u64,
    /// Write commands served.
    pub writes: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Row activations (closed-bank or row-conflict accesses).
    pub activations: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that found a different row open (precharge + activate).
    pub row_conflicts: u64,
    /// Cycles any bus spent transferring data (sum over channels).
    pub busy_cycles: Cycles,
    /// Commands ever enqueued.
    pub enqueued: u64,
    /// Peak pending-queue length observed on any channel.
    pub max_queue: u64,
}

/// Dense metric handles for one channel, interned once at system build
/// (see [`MemDevice::intern_metrics`]).
#[derive(Debug, Clone, Copy)]
struct ChannelMetricHandles {
    reads: CounterId,
    writes: CounterId,
    bytes: CounterId,
    activations: CounterId,
    row_hits: CounterId,
    row_conflicts: CounterId,
    busy_cycles: CounterId,
    enqueued: CounterId,
    queue_peak: GaugeId,
    queue_avg: GaugeId,
}

/// Interned metric handles for a whole device: one
/// [`ChannelMetricHandles`] per channel, in channel order. Produced by
/// [`MemDevice::intern_metrics`], consumed by [`MemDevice::record_metrics`].
#[derive(Debug, Clone)]
pub struct MemMetricHandles {
    channels: Vec<ChannelMetricHandles>,
}

/// A multi-channel DRAM device.
#[derive(Debug)]
pub struct MemDevice {
    timing: DramTiming,
    amap: AddrMap,
    channels: Vec<Channel>,
    seq: u64,
    /// Latency-optimised scheduling: honour command priorities (demand
    /// first). Bandwidth-optimised devices (the slow tier behind the cache)
    /// ignore priorities and run FR-FCFS.
    demand_first: bool,
    /// Request-span tracing (see `h2_sim_core::trace_span`). Off by
    /// default; when off, no tracing state is touched and timing is
    /// byte-identical to a device that never heard of tracing.
    tracing: bool,
    /// Recycled interval buffers for traced-command blame decompositions:
    /// [`Self::start_slot`] pops one per traced command instead of
    /// allocating, and [`Self::reclaim_traces`] returns drained buffers
    /// here. Steady state allocates nothing.
    iv_pool: Vec<Vec<SpanInterval>>,
}

impl MemDevice {
    /// Create a latency-optimised device (honours priorities).
    pub fn new(timing: DramTiming, channels: usize) -> Self {
        Self::with_scheduling(timing, channels, true)
    }

    /// Create a device with an explicit scheduling flavour.
    pub fn with_scheduling(timing: DramTiming, channels: usize, demand_first: bool) -> Self {
        assert!(channels > 0, "device needs at least one channel");
        let banks = timing.banks_per_channel;
        let amap = AddrMap::new(timing.row_bytes, banks as u64);
        Self {
            timing,
            amap,
            channels: (0..channels).map(|_| Channel::new(banks)).collect(),
            seq: 0,
            demand_first,
            tracing: false,
            iv_pool: Vec::new(),
        }
    }

    /// Enable or disable span tracing. Tracing never alters command
    /// timing — it only records a blame decomposition for traced commands.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The device's timing parameters.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Total pending (queued, unstarted) commands on `ch`.
    pub fn queue_len(&self, ch: usize) -> usize {
        self.channels[ch].slab.len
    }

    /// Device-level consistency check for invariant monitors: per-channel
    /// in-flight occupancy must respect the pipeline depth (release-build
    /// counterpart of the `debug_assert` in [`Self::on_complete`]), and the
    /// pending-slab bitmaps must agree with each other.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (ch, c) in self.channels.iter().enumerate() {
            if c.in_flight > PIPELINE_DEPTH {
                return Err(format!(
                    "channel {ch}: {} commands in flight exceeds pipeline depth {PIPELINE_DEPTH}",
                    c.in_flight
                ));
            }
            let s = &c.slab;
            let pop: usize = s.occ.iter().map(|w| w.count_ones() as usize).sum();
            if pop != s.len {
                return Err(format!(
                    "channel {ch}: slab occupancy {pop} disagrees with len {}",
                    s.len
                ));
            }
            for (w, &word) in s.occ.iter().enumerate() {
                if s.hit[w] & !word != 0 {
                    return Err(format!("channel {ch}: hit bit set on free slot (word {w})"));
                }
                let sbit = s.summary[w / 64] >> (w % 64) & 1;
                if (word != 0) != (sbit == 1) {
                    return Err(format!("channel {ch}: summary bit stale for word {w}"));
                }
                let mut union = 0u64;
                for b in &s.bank_slots {
                    union |= b[w];
                }
                if union != word {
                    return Err(format!(
                        "channel {ch}: bank slot bitmaps disagree with occupancy (word {w})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Enqueue a command on channel `ch` at time `now`. Call [`Self::pump`]
    /// afterwards to start whatever the scheduler allows.
    pub fn enqueue(&mut self, ch: usize, cmd: MemCmd, now: Cycles) {
        self.enqueue_traced(ch, cmd, now, BlameClass::Background, None);
    }

    /// [`Self::enqueue`] with tracing context: the requester `class` (used
    /// for queue-composition snapshots and bank blame when tracing is on)
    /// and, for the demand command of a sampled transaction, its span tag.
    pub fn enqueue_traced(
        &mut self,
        ch: usize,
        cmd: MemCmd,
        now: Cycles,
        class: BlameClass,
        tag: Option<TraceTag>,
    ) {
        let seq = self.seq;
        self.seq += 1;
        self.channels[ch].enqueue(
            &self.amap,
            self.demand_first,
            self.tracing,
            cmd,
            now,
            class,
            tag,
            seq,
        );
    }

    /// Start as many commands as pipelining allows on channel `ch`,
    /// appending each started command (with completion time) to `out`.
    pub fn pump(&mut self, ch: usize, now: Cycles, out: &mut Vec<StartedCmd>) {
        self.channels[ch].pump(&self.timing, self.tracing, &mut self.iv_pool, ch, now, out);
    }

    /// Notify the device that a previously started command on `ch` finished.
    /// Follow with [`Self::pump`] to start successors.
    pub fn on_complete(&mut self, ch: usize) {
        self.channels[ch].complete(false, 0);
    }

    /// [`Self::on_complete`] with the finished command's token, so the
    /// tracing queue-composition bookkeeping can retire it.
    pub fn on_complete_traced(&mut self, ch: usize, token: u64) {
        let tracing = self.tracing;
        self.channels[ch].complete(tracing, token);
    }

    /// Drain the blame decompositions of traced commands started on `ch`
    /// since the last drain.
    pub fn take_cmd_traces(&mut self, ch: usize) -> Vec<CmdTrace> {
        std::mem::take(&mut self.channels[ch].records)
    }

    /// Allocation-free variant of [`Self::take_cmd_traces`]: swap the
    /// channel's record buffer with a caller-provided empty one (typically
    /// the one handed back by the last [`Self::reclaim_traces`]), so the
    /// channel keeps its capacity. Pair with `reclaim_traces` after the
    /// records are absorbed.
    pub fn take_traces_into(&mut self, ch: usize, mut swap: Vec<CmdTrace>) -> Vec<CmdTrace> {
        debug_assert!(swap.is_empty(), "swap-in buffer must be empty");
        std::mem::swap(&mut self.channels[ch].records, &mut swap);
        swap
    }

    /// Return drained trace records: their interval buffers go back to the
    /// pool for reuse by later traced commands, and the emptied outer
    /// vector is handed back for the next [`Self::take_traces_into`].
    pub fn reclaim_traces(&mut self, mut recs: Vec<CmdTrace>) -> Vec<CmdTrace> {
        for rec in recs.drain(..) {
            let mut iv = rec.intervals;
            iv.clear();
            self.iv_pool.push(iv);
        }
        recs
    }

    /// Whether channel `ch` has undrained trace records. Lets callers skip
    /// the [`Self::take_traces_into`]/[`Self::reclaim_traces`] round trip
    /// on the common no-records path (only sampled commands produce
    /// records, so with 1-in-N span sampling most drains would be empty).
    #[inline]
    pub fn has_traces(&self, ch: usize) -> bool {
        !self.channels[ch].records.is_empty()
    }

    /// Aggregate statistics over all channels.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::default();
        for c in &self.channels {
            s.reads += c.reads;
            s.writes += c.writes;
            s.bytes += c.bytes;
            s.activations += c.activations;
            s.row_hits += c.row_hits;
            s.row_conflicts += c.row_conflicts;
            s.busy_cycles += c.busy_cycles;
            s.enqueued += c.queued_total;
            s.max_queue = s.max_queue.max(c.max_queue);
        }
        s
    }

    /// Emit per-channel (and optionally per-bank) telemetry into `m`.
    ///
    /// Counter names are relative (`ch0.reads`, `ch0.bank3.row_hits`);
    /// callers choose the absolute scope (`mem.fast`, `mem.slow`). Queue
    /// depth gauges report the arrival-averaged and peak pending-queue
    /// lengths per channel. `per_bank` adds one hit/conflict counter pair
    /// per bank — useful in end-of-run totals, too wide for epoch frames.
    pub fn collect_metrics(&self, m: &mut h2_sim_core::ScopedMetrics<'_>, per_bank: bool) {
        for (i, c) in self.channels.iter().enumerate() {
            let mut ch = m.scoped(&format!("ch{i}"));
            ch.inc("reads", c.reads);
            ch.inc("writes", c.writes);
            ch.inc("bytes", c.bytes);
            ch.inc("activations", c.activations);
            ch.inc("row_hits", c.row_hits);
            ch.inc("row_conflicts", c.row_conflicts);
            ch.inc("busy_cycles", c.busy_cycles);
            ch.inc("enqueued", c.queued_total);
            ch.set_gauge("queue_peak", c.max_queue as f64);
            ch.set_gauge(
                "queue_avg",
                if c.queued_total > 0 {
                    c.depth_sum as f64 / c.queued_total as f64
                } else {
                    0.0
                },
            );
            if per_bank {
                for (b, bank) in c.banks.iter().enumerate() {
                    let mut bk = ch.scoped(&format!("bank{b}"));
                    bk.inc("row_hits", bank.row_hits);
                    bk.inc("row_conflicts", bank.row_conflicts);
                }
            }
        }
    }

    /// Intern this device's per-channel metric names (the `per_bank =
    /// false` subset of [`Self::collect_metrics`], same names, same order)
    /// under `prefix`, returning dense handles for
    /// [`Self::record_metrics`]. Called once at system build; every
    /// subsequent collection is an indexed store with no hashing or
    /// formatting.
    pub fn intern_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) -> MemMetricHandles {
        MemMetricHandles {
            channels: (0..self.channels.len())
                .map(|i| {
                    let p = format!("{prefix}.ch{i}");
                    ChannelMetricHandles {
                        reads: reg.intern_counter(&format!("{p}.reads")),
                        writes: reg.intern_counter(&format!("{p}.writes")),
                        bytes: reg.intern_counter(&format!("{p}.bytes")),
                        activations: reg.intern_counter(&format!("{p}.activations")),
                        row_hits: reg.intern_counter(&format!("{p}.row_hits")),
                        row_conflicts: reg.intern_counter(&format!("{p}.row_conflicts")),
                        busy_cycles: reg.intern_counter(&format!("{p}.busy_cycles")),
                        enqueued: reg.intern_counter(&format!("{p}.enqueued")),
                        queue_peak: reg.intern_gauge(&format!("{p}.queue_peak")),
                        queue_avg: reg.intern_gauge(&format!("{p}.queue_avg")),
                    }
                })
                .collect(),
        }
    }

    /// Store the current cumulative channel statistics through handles
    /// interned by [`Self::intern_metrics`]. Value-identical to a fresh
    /// `collect_metrics(_, false)` pass.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, h: &MemMetricHandles) {
        for (c, hc) in self.channels.iter().zip(h.channels.iter()) {
            reg.set_counter(hc.reads, c.reads);
            reg.set_counter(hc.writes, c.writes);
            reg.set_counter(hc.bytes, c.bytes);
            reg.set_counter(hc.activations, c.activations);
            reg.set_counter(hc.row_hits, c.row_hits);
            reg.set_counter(hc.row_conflicts, c.row_conflicts);
            reg.set_counter(hc.busy_cycles, c.busy_cycles);
            reg.set_counter(hc.enqueued, c.queued_total);
            reg.set_gauge_id(hc.queue_peak, c.max_queue as f64);
            reg.set_gauge_id(
                hc.queue_avg,
                if c.queued_total > 0 {
                    c.depth_sum as f64 / c.queued_total as f64
                } else {
                    0.0
                },
            );
        }
    }

    /// Per-channel bytes transferred (for partitioning/balance checks).
    pub fn channel_bytes(&self) -> Vec<u64> {
        self.channels.iter().map(|c| c.bytes).collect()
    }

    /// Energy consumed so far, given the elapsed simulated window.
    pub fn energy(&self, elapsed: Cycles) -> EnergyBreakdown {
        let s = self.stats();
        EnergyBreakdown::from_counts(
            &self.timing.energy,
            s.bytes,
            s.activations,
            self.channels.len(),
            elapsed,
        )
    }

    /// Average achieved bandwidth in GB/s over `elapsed` cycles.
    pub fn achieved_gbs(&self, elapsed: Cycles) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        h2_sim_core::units::bandwidth_gbs(self.stats().bytes, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingPreset;

    fn dev(preset: TimingPreset, ch: usize) -> MemDevice {
        MemDevice::new(preset.timing(), ch)
    }

    fn run_one(dev: &mut MemDevice, ch: usize, now: Cycles, cmd: MemCmd) -> Cycles {
        dev.enqueue(ch, cmd, now);
        let mut out = Vec::new();
        dev.pump(ch, now, &mut out);
        assert_eq!(out.len(), 1);
        dev.on_complete(ch);
        out[0].done_at
    }

    fn rd(addr: u64, bytes: u32) -> MemCmd {
        MemCmd {
            addr,
            bytes,
            is_write: false,
            priority: 0,
            token: 0,
        }
    }

    #[test]
    fn closed_bank_read_latency() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        let t = TimingPreset::Ddr4.timing();
        let done = run_one(&mut d, 0, 100, rd(0, 64));
        assert_eq!(done, 100 + t.t_rcd + t.t_cas + t.burst_64b);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        let first = run_one(&mut d, 0, 0, rd(0, 64));
        // Same row: only CAS + burst after bank ready.
        let hit = run_one(&mut d, 0, first, rd(64, 64));
        assert_eq!(hit - first, t.t_cas + t.burst_64b);
        // Different row, same bank: full conflict penalty.
        let conflict_addr = t.row_bytes * t.banks_per_channel as u64; // same bank, next row
        let miss = run_one(&mut d, 0, hit, rd(conflict_addr, 64));
        assert_eq!(miss - hit, t.t_rp + t.t_rcd + t.t_cas + t.burst_64b);
    }

    #[test]
    fn bus_serialises_bursts() {
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        // Two reads to different banks, same instant: second's burst must
        // start after the first's burst ends.
        d.enqueue(0, rd(0, 64), 0);
        d.enqueue(0, rd(t.row_bytes, 64), 0); // different bank
        let mut out = Vec::new();
        d.pump(0, 0, &mut out);
        assert_eq!(out.len(), 2);
        let a = out[0].done_at;
        let b = out[1].done_at;
        assert!(b >= a + t.burst_64b, "bursts overlap: {a} {b}");
        // But bank prep overlapped: total < 2 sequential closed accesses.
        assert!(b < 2 * (t.t_rcd + t.t_cas + t.burst_64b));
    }

    #[test]
    fn priority_wins_over_age() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        // Fill the pipeline so later enqueues stay queued.
        for i in 0..PIPELINE_DEPTH as u64 {
            d.enqueue(
                0,
                MemCmd {
                    token: i,
                    ..rd(i << 20, 64)
                },
                0,
            );
        }
        let mut out = Vec::new();
        d.pump(0, 0, &mut out);
        assert_eq!(out.len(), PIPELINE_DEPTH);
        out.clear();
        // Now queue a low-priority old command and a high-priority young one.
        d.enqueue(
            0,
            MemCmd {
                token: 100,
                priority: 0,
                ..rd(0, 64)
            },
            50,
        );
        d.enqueue(
            0,
            MemCmd {
                token: 200,
                priority: 3,
                ..rd(64, 64)
            },
            50,
        );
        d.on_complete(0);
        d.pump(0, 50, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 200, "high priority must be served first");
    }

    #[test]
    fn fcfs_among_equal_priority() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        for i in 0..PIPELINE_DEPTH as u64 {
            d.enqueue(0, MemCmd { token: i, ..rd(0, 64) }, 0);
        }
        let mut out = Vec::new();
        d.pump(0, 0, &mut out);
        out.clear();
        // Two equal-priority commands to closed banks: older first.
        let t = TimingPreset::Ddr4.timing();
        d.enqueue(0, MemCmd { token: 10, ..rd(3 * t.row_bytes, 64) }, 10);
        d.enqueue(0, MemCmd { token: 11, ..rd(5 * t.row_bytes, 64) }, 10);
        d.on_complete(0);
        d.pump(0, 10, &mut out);
        assert_eq!(out[0].token, 10);
    }

    #[test]
    fn streaming_saturates_bus_bandwidth() {
        // Issue a long run of sequential 256 B reads; achieved bandwidth
        // should approach the peak.
        let t = TimingPreset::Hbm2eSuper.timing();
        let mut d = dev(TimingPreset::Hbm2eSuper, 1);
        let mut now = 0;
        let n = 2000u64;
        let mut done_times = Vec::new();
        let mut out = Vec::new();
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut inflight: Vec<Cycles> = Vec::new();
        while completed < n {
            while issued < n && inflight.len() < 32 {
                d.enqueue(0, rd(issued * 256, 256), now);
                issued += 1;
                d.pump(0, now, &mut out);
                for s in out.drain(..) {
                    inflight.push(s.done_at);
                }
            }
            inflight.sort_unstable();
            let t0 = inflight.remove(0);
            now = t0;
            d.on_complete(0);
            d.pump(0, now, &mut out);
            for s in out.drain(..) {
                inflight.push(s.done_at);
            }
            completed += 1;
            done_times.push(t0);
        }
        let elapsed = *done_times.last().unwrap();
        let gbs = d.achieved_gbs(elapsed);
        assert!(
            gbs > 0.8 * t.peak_gbs(),
            "streaming should near-saturate: {gbs:.1} vs peak {:.1}",
            t.peak_gbs()
        );
    }

    #[test]
    fn stats_count_reads_writes_bytes() {
        let mut d = dev(TimingPreset::Ddr4, 2);
        run_one(&mut d, 0, 0, rd(0, 64));
        run_one(
            &mut d,
            1,
            0,
            MemCmd {
                is_write: true,
                ..rd(128, 256)
            },
        );
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes, 64 + 256);
        assert_eq!(s.enqueued, 2);
        assert_eq!(d.channel_bytes(), vec![64, 256]);
    }

    #[test]
    fn completion_never_before_arrival() {
        let mut d = dev(TimingPreset::Hbm2eSuper, 1);
        let done = run_one(&mut d, 0, 12345, rd(0, 64));
        assert!(done > 12345);
    }

    #[test]
    fn telemetry_counts_hits_and_conflicts_per_bank() {
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        let first = run_one(&mut d, 0, 0, rd(0, 64));
        let hit = run_one(&mut d, 0, first, rd(64, 64)); // same row: hit
        let conflict_addr = t.row_bytes * t.banks_per_channel as u64; // same bank, next row
        run_one(&mut d, 0, hit, rd(conflict_addr, 64));
        let s = d.stats();
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_conflicts, 1);
        let mut reg = h2_sim_core::MetricsRegistry::new(true);
        d.collect_metrics(&mut reg.scoped("mem"), true);
        assert_eq!(reg.counter("mem.ch0.reads"), 3);
        assert_eq!(reg.counter("mem.ch0.row_hits"), 1);
        assert_eq!(reg.counter("mem.ch0.bank0.row_hits"), 1);
        assert_eq!(reg.counter("mem.ch0.bank0.row_conflicts"), 1);
        assert!(reg.gauge("mem.ch0.queue_avg").is_some());
    }

    #[test]
    fn tracing_decomposition_tiles_lifetime() {
        use h2_sim_core::trace_span::{tiles_exactly, SpanId, TraceTag};
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        d.set_tracing(true);
        // Occupy the bank+bus first so the traced command really waits.
        let mut out = Vec::new();
        d.enqueue_traced(0, rd(0, 256), 0, BlameClass::GpuDemand, None);
        d.pump(0, 0, &mut out);
        let tag = TraceTag { span: SpanId(7), token_stalled: false };
        d.enqueue_traced(
            0,
            MemCmd { token: 9, ..rd(64, 64) },
            5,
            BlameClass::CpuDemand,
            Some(tag),
        );
        d.pump(0, 5, &mut out);
        assert_eq!(out.len(), 2);
        let done = out[1].done_at;
        let recs = d.take_cmd_traces(0);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].span, SpanId(7));
        assert!(
            tiles_exactly(&recs[0].intervals, 5, done),
            "decomposition must tile [5, {done}): {:?}",
            recs[0].intervals
        );
        // Second drain is empty; completions retire live entries.
        assert!(d.take_cmd_traces(0).is_empty());
        d.on_complete_traced(0, 0);
        d.on_complete_traced(0, 9);
        // Cycle-identical to the untraced path.
        let mut plain = dev(TimingPreset::Ddr4, 1);
        plain.enqueue(0, rd(0, 256), 0);
        let mut pout = Vec::new();
        plain.pump(0, 0, &mut pout);
        plain.enqueue(0, MemCmd { token: 9, ..rd(64, 64) }, 5);
        plain.pump(0, 5, &mut pout);
        assert_eq!(pout[1].done_at, done);
        let _ = t;
    }

    #[test]
    fn energy_accumulates() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        run_one(&mut d, 0, 0, rd(0, 256));
        let e = d.energy(1000);
        assert!(e.dynamic_rw_j > 0.0);
        assert!(e.act_pre_j > 0.0);
        assert!(e.static_j > 0.0);
    }

    #[test]
    fn addr_map_shift_path_matches_division() {
        for (row_bytes, banks) in [(4096u64, 64u64), (8192, 32), (4096, 16)] {
            let m = AddrMap::new(row_bytes, banks);
            assert!(m.pow2);
            for addr in [0u64, 63, 64, 4095, 4096, 1 << 20, 0xDEAD_BEEF, u64::MAX / 2] {
                let rg = addr / row_bytes;
                assert_eq!(m.map(addr), ((rg % banks) as u32, rg / banks), "addr {addr:#x}");
            }
        }
        // Non-power-of-two fallback stays exact too.
        let m = AddrMap::new(3000, 12);
        assert!(!m.pow2);
        let rg = 123_456_789u64 / 3000;
        assert_eq!(m.map(123_456_789), ((rg % 12) as u32, rg / 12));
    }

    /// Slab slots are reused lowest-index-first and never shift queued
    /// commands around; draining and refilling must not grow the slab.
    #[test]
    fn slab_reuses_slots_without_growth() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        let mut out = Vec::new();
        for round in 0..100u64 {
            for i in 0..8 {
                d.enqueue(0, MemCmd { token: round * 8 + i, ..rd(i * 64, 64) }, round);
            }
            d.pump(0, round, &mut out);
            for _ in 0..out.len() {
                d.on_complete(0);
            }
            out.clear();
        }
        assert_eq!(d.channels[0].slab.occ.len(), 1, "slab must stay at one word");
        d.check_invariants().unwrap();
    }

    /// The bitmap scan must agree with a straight reference scan of the
    /// original `(prio, row_hit, oldest)` key on randomised deep queues.
    #[test]
    fn pick_matches_reference_scan() {
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        // Fill the pipeline so everything stays queued; then check pick
        // against the reference at several probe times.
        for i in 0..PIPELINE_DEPTH as u64 {
            d.enqueue(0, MemCmd { token: i, ..rd(i << 20, 64) }, 0);
        }
        let mut out = Vec::new();
        d.pump(0, 0, &mut out);
        for i in 0..200u64 {
            let r = rng();
            d.enqueue(
                0,
                MemCmd {
                    addr: (r % 4096) * t.row_bytes / 4,
                    bytes: 64,
                    is_write: r & 1 == 0,
                    priority: (r % 3) as u8,
                    token: 1000 + i,
                },
                i / 4,
            );
        }
        for now in [0u64, 50, 100, 260, 400] {
            let c = &d.channels[0];
            let s = &c.slab;
            // Reference: linear scan over occupied slots with tuple keys.
            let mut best: Option<(u8, bool, u64, usize)> = None;
            for (w, &word) in s.occ.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let slot = w * 64 + b;
                    let hit = c.banks[s.bank[slot] as usize].open_row == Some(s.row[slot]);
                    let prio = if now.saturating_sub(s.arrival_time[slot]) > AGE_CAP {
                        u8::MAX
                    } else {
                        s.prio[slot]
                    };
                    let key = (prio, hit, u64::MAX - s.arrival_seq[slot]);
                    if best.is_none()
                        || (key.0, key.1, key.2)
                            > (best.unwrap().0, best.unwrap().1, best.unwrap().2)
                    {
                        best = Some((key.0, key.1, key.2, slot));
                    }
                }
            }
            assert_eq!(s.pick(now), best.map(|(.., slot)| slot), "now={now}");
        }
        d.check_invariants().unwrap();
    }

    /// Deep alternating enqueue/drain traffic across banks keeps every
    /// bitmap invariant intact.
    #[test]
    fn slab_invariants_under_churn() {
        let t = TimingPreset::Hbm2eSuper.timing();
        let mut d = dev(TimingPreset::Hbm2eSuper, 2);
        let mut out = Vec::new();
        let mut inflight = [0usize; 2];
        for i in 0..500u64 {
            let ch = (i % 2) as usize;
            d.enqueue(
                ch,
                MemCmd {
                    addr: (i * 37) % (t.row_bytes * 256),
                    bytes: 64,
                    is_write: i % 3 == 0,
                    priority: (i % 2) as u8,
                    token: i,
                },
                i,
            );
            d.pump(ch, i, &mut out);
            inflight[ch] += out.len();
            out.clear();
            if inflight[ch] > 4 {
                d.on_complete(ch);
                inflight[ch] -= 1;
            }
            if i % 61 == 0 {
                d.check_invariants().unwrap();
            }
        }
        d.check_invariants().unwrap();
    }
}
