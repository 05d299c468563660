//! Request-lifecycle tracing with latency blame attribution.
//!
//! A *span* follows one sampled memory transaction from frontend issue to
//! completion. Its lifetime is partitioned into contiguous intervals, each
//! tagged with a [`BlameCause`] naming *why* the request spent that time —
//! queued behind CPU or GPU traffic, waiting out a DRAM row conflict,
//! blocked on a busy data bus, delayed by migration traffic, and so on.
//!
//! The core invariant is **blame conservation**: the blamed intervals of a
//! closed span exactly tile `[span.start, span.end)` — no gaps, no
//! overlaps — so summing interval lengths per cause decomposes the
//! request's end-to-end latency without double counting. Aggregating that
//! decomposition per requester class yields the CPU↔GPU interference
//! matrix the Hydrogen paper's Insights 1–3 are built on.
//!
//! Tracing is an *observation*: producers consult [`SpanCollector`] but
//! never let its decisions influence event timing, so a run with tracing
//! enabled is cycle-identical to one without. With tracing off (the
//! default) the collector is a no-op and producers skip all bookkeeping.

use crate::units::Cycles;

/// Spans retained per run; beyond this, sampled candidates are counted in
/// [`SpanCollector::dropped`] instead of being recorded.
pub const MAX_SPANS: usize = 1 << 18;

/// Identifier carried by a sampled transaction through the memory system.
///
/// Ids are assigned in event-processing order, which both event-queue
/// engines execute identically, so the sampled span *set* is deterministic
/// for a given seed and sample rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// Why a traced request spent an interval of its lifetime waiting (or
/// being served). See `DESIGN.md` for the full taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlameCause {
    /// Queued in a DRAM channel behind CPU demand commands.
    QueueBehindCpu,
    /// Queued in a DRAM channel behind GPU demand commands.
    QueueBehindGpu,
    /// Bank held a different open row: precharge + activate penalty.
    RowConflict,
    /// Column data ready but the channel's data bus was mid-burst.
    BusBusy,
    /// Queued behind migration / metadata (background) traffic, or a bank
    /// kept busy by it.
    MigrationInterference,
    /// Demand served from the slow tier because the token faucet denied
    /// the migration that would have promoted its block; the slow-queue
    /// wait is charged to the token decision.
    TokenStall,
    /// Metadata lookup missed the on-chip remap cache (SRAM probe had to
    /// wait for in-DRAM metadata).
    RemapMiss,
    /// Intrinsic service time: SRAM probe hit, bank activate on a closed
    /// bank, CAS latency, and the data burst itself.
    Service,
}

impl BlameCause {
    /// All causes, in canonical (serialisation) order.
    pub const ALL: [BlameCause; 8] = [
        BlameCause::QueueBehindCpu,
        BlameCause::QueueBehindGpu,
        BlameCause::RowConflict,
        BlameCause::BusBusy,
        BlameCause::MigrationInterference,
        BlameCause::TokenStall,
        BlameCause::RemapMiss,
        BlameCause::Service,
    ];

    /// Stable numeric tag (persist codec, indexing).
    pub fn as_u8(self) -> u8 {
        match self {
            BlameCause::QueueBehindCpu => 0,
            BlameCause::QueueBehindGpu => 1,
            BlameCause::RowConflict => 2,
            BlameCause::BusBusy => 3,
            BlameCause::MigrationInterference => 4,
            BlameCause::TokenStall => 5,
            BlameCause::RemapMiss => 6,
            BlameCause::Service => 7,
        }
    }

    /// Inverse of [`Self::as_u8`].
    pub fn from_u8(v: u8) -> Option<BlameCause> {
        BlameCause::ALL.get(v as usize).copied()
    }

    /// `snake_case` name used in metric paths and trace exports.
    pub fn name(self) -> &'static str {
        match self {
            BlameCause::QueueBehindCpu => "queue_behind_cpu",
            BlameCause::QueueBehindGpu => "queue_behind_gpu",
            BlameCause::RowConflict => "row_conflict",
            BlameCause::BusBusy => "bus_busy",
            BlameCause::MigrationInterference => "migration_interference",
            BlameCause::TokenStall => "token_stall",
            BlameCause::RemapMiss => "remap_miss",
            BlameCause::Service => "service",
        }
    }
}

/// Requester class of a DRAM command, used both to snapshot queue
/// composition (who is ahead of a traced command) and to blame bank
/// occupancy on the class that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlameClass {
    /// CPU demand (meta probe or data access of a CPU transaction).
    CpuDemand,
    /// GPU demand.
    GpuDemand,
    /// Migration / metadata background traffic.
    #[default]
    Background,
}

impl BlameClass {
    /// Dense index (queue-composition arrays).
    pub fn idx(self) -> usize {
        match self {
            BlameClass::CpuDemand => 0,
            BlameClass::GpuDemand => 1,
            BlameClass::Background => 2,
        }
    }

    /// The cause a wait *behind* this class is charged to.
    pub fn queue_cause(self) -> BlameCause {
        match self {
            BlameClass::CpuDemand => BlameCause::QueueBehindCpu,
            BlameClass::GpuDemand => BlameCause::QueueBehindGpu,
            BlameClass::Background => BlameCause::MigrationInterference,
        }
    }
}

/// Tag attached to the demand DRAM command of a traced transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTag {
    /// The owning span.
    pub span: SpanId,
    /// The token faucet denied this transaction's migration, leaving its
    /// demand on the slow tier: charge the queue wait to [`BlameCause::TokenStall`].
    pub token_stalled: bool,
}

/// One blamed interval `[start, end)` of a span's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanInterval {
    /// Why this time passed.
    pub cause: BlameCause,
    /// Inclusive start cycle.
    pub start: Cycles,
    /// Exclusive end cycle.
    pub end: Cycles,
}

/// A completed request span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Sampled-span identifier (unique within a run).
    pub id: u64,
    /// Requester class: 0 = CPU, 1 = GPU.
    pub class: u8,
    /// Issue cycle (LLC miss handed to the hybrid memory controller).
    pub start: Cycles,
    /// Completion cycle (demand data returned).
    pub end: Cycles,
    /// Blamed intervals, sorted, exactly tiling `[start, end)`.
    pub intervals: Vec<SpanInterval>,
}

/// Split a queue-wait interval `[start, end)` across the classes that were
/// ahead of the command when it arrived, proportionally to their counts
/// (`ahead` is indexed by [`BlameClass::idx`]). Integer shares use
/// largest-remainder rounding with leftover cycles assigned to the most
/// numerous class (ties break in `cpu, gpu, background` order) so the
/// pieces always sum to exactly `end - start`.
pub fn split_queue_wait(start: Cycles, end: Cycles, ahead: [u64; 3]) -> Vec<SpanInterval> {
    let wait = end.saturating_sub(start);
    if wait == 0 {
        return Vec::new();
    }
    let total: u64 = ahead.iter().sum();
    if total == 0 {
        // A wait with nothing ahead means the pipeline itself was full;
        // charge the bus.
        return vec![SpanInterval { cause: BlameCause::BusBusy, start, end }];
    }
    let mut shares = [0u64; 3];
    for i in 0..3 {
        shares[i] = wait * ahead[i] / total;
    }
    let leftover = wait - shares.iter().sum::<u64>();
    let biggest = (0..3).max_by_key(|&i| (ahead[i], 2 - i)).unwrap();
    shares[biggest] += leftover;

    let causes = [
        BlameCause::QueueBehindCpu,
        BlameCause::QueueBehindGpu,
        BlameCause::MigrationInterference,
    ];
    let mut out = Vec::new();
    let mut t = start;
    for i in 0..3 {
        if shares[i] > 0 {
            out.push(SpanInterval { cause: causes[i], start: t, end: t + shares[i] });
            t += shares[i];
        }
    }
    debug_assert_eq!(t, end);
    out
}

/// Merge adjacent intervals with the same cause (in place, assumes the
/// input is already sorted and contiguous).
pub fn coalesce(intervals: &mut Vec<SpanInterval>) {
    intervals.retain(|iv| iv.end > iv.start);
    let mut w = 0usize;
    for r in 0..intervals.len() {
        if w > 0 && intervals[w - 1].cause == intervals[r].cause && intervals[w - 1].end == intervals[r].start {
            intervals[w - 1].end = intervals[r].end;
        } else {
            intervals[w] = intervals[r];
            w += 1;
        }
    }
    intervals.truncate(w);
}

/// One slab slot of the collector. A slot cycles through
/// `reserved → open → free`; `gen` is bumped on every release so stale
/// [`SpanId`]s (which embed the generation) are detected and ignored.
struct SpanSlot {
    gen: u32,
    /// Dense public identifier, assigned in sampling order (what
    /// [`Span::id`] reports — slab geometry never leaks into output).
    public_id: u64,
    /// `true` between [`SpanCollector::open`] and [`SpanCollector::close`].
    live: bool,
    class: u8,
    start: Cycles,
    intervals: Vec<SpanInterval>,
}

/// Runner-side sampler, span assembler, and blame aggregator.
///
/// Sampling is counter-based — every `sample`-th *candidate* (demand read
/// reaching the hybrid memory controller) gets a span — which is
/// deterministic because candidates are examined in event-processing
/// order. `sample = None` disables tracing entirely; `Some(0)` enables the
/// machinery but samples nothing (the zero-perturbation guard used by the
/// golden tests).
///
/// Open spans live in a generation-checked slab: a [`SpanId`] is
/// `(generation << 32) | slot`, so record/close are array index +
/// generation compare instead of a `HashMap` probe, and interval buffers
/// are reused across the spans that pass through a slot.
pub struct SpanCollector {
    sample: Option<u64>,
    seq: u64,
    next_id: u64,
    slots: Vec<SpanSlot>,
    free: Vec<u32>,
    /// Spans currently open (reserved-but-unopened slots excluded),
    /// mirroring the `open.len()` of the old `HashMap` representation so
    /// the `MAX_SPANS` drop accounting is unchanged.
    open_live: usize,
    closed: Vec<Span>,
    dropped: u64,
    /// Cumulative blamed cycles: `[victim class][cause]`.
    blame: [[u64; 8]; 2],
}

impl SpanCollector {
    /// Create a collector; `sample` as in [`SpanCollector`] docs.
    pub fn new(sample: Option<u64>) -> Self {
        Self {
            sample,
            seq: 0,
            next_id: 0,
            slots: Vec::new(),
            free: Vec::new(),
            open_live: 0,
            closed: Vec::new(),
            dropped: 0,
            blame: [[0; 8]; 2],
        }
    }

    fn decode(id: SpanId) -> (u32, usize) {
        ((id.0 >> 32) as u32, (id.0 & 0xffff_ffff) as usize)
    }

    /// The live slot for `id`, or `None` if the id is stale (generation
    /// mismatch) or was never opened.
    fn slot_mut(&mut self, id: SpanId) -> Option<&mut SpanSlot> {
        let (gen, idx) = Self::decode(id);
        self.slots.get_mut(idx).filter(|s| s.gen == gen && s.live)
    }

    /// Whether tracing machinery is active at all.
    pub fn enabled(&self) -> bool {
        self.sample.is_some()
    }

    /// The configured sample rate (0 when constructed with `Some(0)`).
    pub fn sample_rate(&self) -> u64 {
        self.sample.unwrap_or(0)
    }

    /// Present the next sampling candidate; returns a fresh [`SpanId`] if
    /// it is selected. Callers must invoke this for every candidate (in
    /// deterministic order) so the counter advances identically across
    /// engines.
    pub fn try_sample(&mut self) -> Option<SpanId> {
        let n = self.sample?;
        if n == 0 {
            return None;
        }
        let pick = self.seq.is_multiple_of(n);
        self.seq += 1;
        if !pick {
            return None;
        }
        if self.open_live + self.closed.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let public_id = self.next_id;
        self.next_id += 1;
        let idx = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                self.slots.push(SpanSlot {
                    gen: 0,
                    public_id: 0,
                    live: false,
                    class: 0,
                    start: 0,
                    intervals: Vec::new(),
                });
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[idx];
        slot.public_id = public_id;
        Some(SpanId(((slot.gen as u64) << 32) | idx as u64))
    }

    /// Begin a span at its issue time. `class`: 0 = CPU, 1 = GPU.
    pub fn open(&mut self, id: SpanId, class: u8, start: Cycles) {
        let (gen, idx) = Self::decode(id);
        let Some(slot) = self.slots.get_mut(idx) else { return };
        if slot.gen != gen || slot.live {
            return;
        }
        slot.live = true;
        slot.class = class;
        slot.start = start;
        slot.intervals.clear();
        self.open_live += 1;
    }

    /// Record one blamed interval for an open span (no-op on `start == end`
    /// or unknown spans). An interval that continues the span's last one
    /// with the same cause extends it instead of adding another.
    #[inline]
    pub fn record(&mut self, id: SpanId, cause: BlameCause, start: Cycles, end: Cycles) {
        if end <= start {
            return;
        }
        if let Some(s) = self.slot_mut(id) {
            match s.intervals.last_mut() {
                Some(last) if last.cause == cause && last.end == start => last.end = end,
                _ => s.intervals.push(SpanInterval { cause, start, end }),
            }
        }
    }

    /// Close a span at its completion time: sort and coalesce intervals,
    /// verify the tiling, and fold the decomposition into the blame matrix.
    pub fn close(&mut self, id: SpanId, end: Cycles) {
        let Some(s) = self.slot_mut(id) else { return };
        // Stable sort: equal (start, end) keys must keep insertion order so
        // the coalesced decomposition is reproducible across runs.
        s.intervals.sort_by_key(|iv| (iv.start, iv.end));
        coalesce(&mut s.intervals);
        debug_assert!(
            tiles_exactly(&s.intervals, s.start, end),
            "span {id:?} intervals do not tile [{}, {end}): {:?}",
            s.start,
            s.intervals
        );
        let (class, start, public_id) = (s.class, s.start, s.public_id);
        let intervals = std::mem::take(&mut s.intervals);
        for iv in &intervals {
            self.blame[class.min(1) as usize][iv.cause.as_u8() as usize] += iv.end - iv.start;
        }
        self.closed.push(Span { id: public_id, class, start, end, intervals });
        // Release the slot for reuse under a fresh generation.
        let (_, idx) = Self::decode(id);
        let slot = &mut self.slots[idx];
        slot.live = false;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx as u32);
        self.open_live -= 1;
    }

    /// Number of completed spans so far.
    pub fn spans_closed(&self) -> u64 {
        self.closed.len() as u64
    }

    /// Candidates sampled but not recorded (span cap reached).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cumulative cycles blamed on `cause` for victim `class` (0 = CPU,
    /// 1 = GPU) across all closed spans.
    pub fn blame_cycles(&self, class: u8, cause: BlameCause) -> u64 {
        self.blame[class.min(1) as usize][cause.as_u8() as usize]
    }

    /// Take the completed spans, sorted by id (spans still open — e.g.
    /// in flight at simulation end — are discarded).
    pub fn take_spans(&mut self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut self.closed);
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Whether `intervals` (sorted) exactly tile `[start, end)`.
pub fn tiles_exactly(intervals: &[SpanInterval], start: Cycles, end: Cycles) -> bool {
    let mut t = start;
    for iv in intervals {
        if iv.start != t || iv.end <= iv.start {
            return false;
        }
        t = iv.end;
    }
    t == end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_tags_round_trip() {
        for c in BlameCause::ALL {
            assert_eq!(BlameCause::from_u8(c.as_u8()), Some(c));
        }
        assert_eq!(BlameCause::from_u8(8), None);
    }

    #[test]
    fn split_conserves_and_orders() {
        let ivs = split_queue_wait(100, 110, [3, 5, 1]);
        let sum: u64 = ivs.iter().map(|iv| iv.end - iv.start).sum();
        assert_eq!(sum, 10);
        assert!(tiles_exactly(&ivs, 100, 110));
        // GPU had the most commands ahead: it gets the leftover cycle.
        let gpu: u64 = ivs
            .iter()
            .filter(|iv| iv.cause == BlameCause::QueueBehindGpu)
            .map(|iv| iv.end - iv.start)
            .sum();
        assert_eq!(gpu, 6); // floor(10*5/9)=5 plus the remainder cycle
    }

    #[test]
    fn split_empty_queue_blames_bus() {
        let ivs = split_queue_wait(0, 7, [0, 0, 0]);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].cause, BlameCause::BusBusy);
        assert!(tiles_exactly(&ivs, 0, 7));
    }

    #[test]
    fn split_zero_wait_is_empty() {
        assert!(split_queue_wait(5, 5, [1, 2, 3]).is_empty());
    }

    #[test]
    fn coalesce_merges_adjacent_same_cause() {
        let mut ivs = vec![
            SpanInterval { cause: BlameCause::Service, start: 0, end: 4 },
            SpanInterval { cause: BlameCause::Service, start: 4, end: 9 },
            SpanInterval { cause: BlameCause::BusBusy, start: 9, end: 12 },
            SpanInterval { cause: BlameCause::Service, start: 12, end: 12 },
            SpanInterval { cause: BlameCause::Service, start: 12, end: 20 },
        ];
        coalesce(&mut ivs);
        assert_eq!(
            ivs,
            vec![
                SpanInterval { cause: BlameCause::Service, start: 0, end: 9 },
                SpanInterval { cause: BlameCause::BusBusy, start: 9, end: 12 },
                SpanInterval { cause: BlameCause::Service, start: 12, end: 20 },
            ]
        );
    }

    #[test]
    fn sampling_every_nth_candidate() {
        let mut c = SpanCollector::new(Some(3));
        let picks: Vec<bool> = (0..9).map(|_| c.try_sample().is_some()).collect();
        assert_eq!(picks, vec![true, false, false, true, false, false, true, false, false]);
    }

    #[test]
    fn sample_zero_enables_but_never_samples() {
        let mut c = SpanCollector::new(Some(0));
        assert!(c.enabled());
        assert_eq!(c.sample_rate(), 0);
        for _ in 0..100 {
            assert!(c.try_sample().is_none());
        }
        assert_eq!(c.spans_closed(), 0);
    }

    #[test]
    fn disabled_collector_is_inert() {
        let mut c = SpanCollector::new(None);
        assert!(!c.enabled());
        assert!(c.try_sample().is_none());
    }

    #[test]
    fn close_accumulates_blame_matrix() {
        let mut c = SpanCollector::new(Some(1));
        let id = c.try_sample().unwrap();
        c.open(id, 1, 10);
        c.record(id, BlameCause::RowConflict, 10, 25);
        c.record(id, BlameCause::Service, 25, 40);
        c.close(id, 40);
        assert_eq!(c.spans_closed(), 1);
        assert_eq!(c.blame_cycles(1, BlameCause::RowConflict), 15);
        assert_eq!(c.blame_cycles(1, BlameCause::Service), 15);
        assert_eq!(c.blame_cycles(0, BlameCause::RowConflict), 0);
        let spans = c.take_spans();
        assert_eq!(spans.len(), 1);
        assert!(tiles_exactly(&spans[0].intervals, spans[0].start, spans[0].end));
    }

    #[test]
    fn slab_reuses_slots_and_keeps_public_ids_dense() {
        let mut c = SpanCollector::new(Some(1));
        for i in 0..10u64 {
            let id = c.try_sample().unwrap();
            c.open(id, 0, i * 100);
            c.record(id, BlameCause::Service, i * 100, i * 100 + 10);
            c.close(id, i * 100 + 10);
        }
        // Every span passed through the same slot; public ids stay dense.
        assert_eq!(c.slots.len(), 1);
        let spans = c.take_spans();
        assert_eq!(spans.iter().map(|s| s.id).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stale_ids_are_ignored_after_slot_reuse() {
        let mut c = SpanCollector::new(Some(1));
        let a = c.try_sample().unwrap();
        c.open(a, 0, 0);
        c.record(a, BlameCause::Service, 0, 10);
        c.close(a, 10);
        // Slot 0 is reused under a new generation for `b`.
        let b = c.try_sample().unwrap();
        c.open(b, 1, 100);
        assert_ne!(a, b);
        // Operations through the stale handle must not touch `b`'s span.
        c.record(a, BlameCause::BusBusy, 100, 200);
        c.close(a, 999);
        c.record(b, BlameCause::Service, 100, 150);
        c.close(b, 150);
        let spans = c.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].end, 150);
        assert_eq!(spans[1].intervals, vec![SpanInterval { cause: BlameCause::Service, start: 100, end: 150 }]);
    }

    #[test]
    fn record_extends_a_continuing_interval_of_the_same_cause() {
        let mut c = SpanCollector::new(Some(1));
        let id = c.try_sample().unwrap();
        c.open(id, 0, 0);
        c.record(id, BlameCause::BusBusy, 0, 5);
        c.record(id, BlameCause::Service, 5, 9);
        c.record(id, BlameCause::Service, 9, 12);
        c.record(id, BlameCause::Service, 12, 12);
        c.record(id, BlameCause::BusBusy, 12, 20);
        let (_, idx) = SpanCollector::decode(id);
        assert_eq!(c.slots[idx].intervals.len(), 3, "the second Service extends the first");
        c.close(id, 20);
        let spans = c.take_spans();
        assert_eq!(
            spans[0].intervals,
            vec![
                SpanInterval { cause: BlameCause::BusBusy, start: 0, end: 5 },
                SpanInterval { cause: BlameCause::Service, start: 5, end: 12 },
                SpanInterval { cause: BlameCause::BusBusy, start: 12, end: 20 },
            ]
        );
    }

    #[test]
    fn open_spans_are_discarded_on_take() {
        let mut c = SpanCollector::new(Some(1));
        let a = c.try_sample().unwrap();
        let b = c.try_sample().unwrap();
        c.open(a, 0, 0);
        c.open(b, 0, 5);
        c.record(a, BlameCause::Service, 0, 30);
        c.close(a, 30);
        assert_eq!(c.take_spans().len(), 1);
    }
}
