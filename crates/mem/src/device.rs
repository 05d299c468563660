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
//! A command enqueued with a span tag has its blame decomposition recorded
//! straight into the caller's [`SpanCollector`] when it starts; an untagged
//! command records nothing, so a run without spans keeps no per-command
//! tracing state.
//!
//! # Pending-command layout
//!
//! Queued commands live in a per-channel arrival-ordered ring
//! (`CmdRing`): a command's slot is its per-channel arrival position
//! modulo a power-of-two capacity, so bit order starting from `head` (the
//! oldest queued position) is age order. The one per-slot field the pick
//! reads, the arrival time, has its own dense array. Everything else a
//! command carries (bank and row, precomputed once at enqueue; token,
//! bytes, priority, direction, requester class) is one 32-byte record per
//! slot, so queueing, dequeueing and starting a command each read one host
//! cache line of it. The tracing context of the few tagged commands sits
//! in a per-channel list keyed by arrival position. Slot bitmaps record
//! occupancy, the current row-hit status and membership of each distinct
//! priority level (found through a priority-indexed table). The row-hit
//! bits are refreshed through flat, bank-major per-bank slot bitmaps, and
//! only when a start changes a bank's open row while that bank still has
//! queued commands: a row hit leaves every bit as it was.
//!
//! Enqueue times never decrease along a channel, so the commands older
//! than [`AGE_CAP`] form a prefix of the ring; its end is cached as a
//! frontier that only moves forward while the clock does. Every question
//! FR-FCFS asks then becomes a first-set-bit search over 64-slot words
//! that stops at the first hit, not a compare per queued command. The
//! winner is exactly the maximal `(priority, row_hit, oldest first)` key,
//! with aged commands escalated to `u8::MAX`; debug builds check every
//! pick against a linear scan of that key. The ring doubles (laying
//! `[head, tail)` out again, holes included) only when the span from the
//! oldest to the newest queued command fills it, so steady state never
//! allocates and never moves a pending command.

use crate::timing::DramTiming;
use h2_sim_core::trace_span::{split_queue_wait, BlameCause, BlameClass, SpanCollector, TraceTag};
use h2_sim_core::units::Cycles;

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
    /// Class of the last command started on this bank: blames bank-busy
    /// waits on whoever occupied the bank.
    last_class: BlameClass,
}

/// Tracing context of a tagged command (the demand command of a sampled
/// transaction): its span tag plus the channel's queue composition (by
/// [`BlameClass`]) snapshotted at enqueue.
#[derive(Debug, Clone, Copy)]
struct TracedInfo {
    tag: TraceTag,
    ahead: [u64; 3],
}

/// What a queued command needs when it starts (and what the scheduler's
/// bookkeeping needs when it is queued or dequeued), packed into one
/// 32-byte record: starting a command reads one host cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(32))]
struct CmdRec {
    row: u64,
    token: u64,
    bank: u32,
    bytes: u32,
    prio: u8,
    write: bool,
    class: BlameClass,
}

/// The queued commands of one priority level: a slot bitmap over the ring
/// and its population count.
#[derive(Debug)]
struct PrioLevel {
    prio: u8,
    bits: Vec<u64>,
    len: usize,
}

/// Arrival-ordered ring of one channel's pending commands.
///
/// Positions count a channel's enqueues; position `p` lives in slot
/// `p & (capacity - 1)`, and capacity is a power of two of at least 64.
/// `[head, tail)` spans every queued command (with holes where a command
/// started ahead of an older one): `head` is the oldest queued position and
/// `tail` the next one to assign. A slot is queued iff its `occ` bit is
/// set; `hit` mirrors `occ` with the slot's current row-hit status,
/// `bank_bits` holds one slot bitmap per bank so `hit` can be refreshed
/// incrementally whenever a bank's open row changes, and `levels` holds
/// one slot bitmap per priority present, highest priority first.
#[derive(Debug)]
struct CmdRing {
    /// Arrival cycle per slot: the only per-slot field the pick reads.
    arrival_time: Vec<Cycles>,
    /// Per-slot decode record, read when a command is queued, dequeued
    /// or started.
    cmds: Vec<CmdRec>,
    /// Slot occupancy, one bit per slot.
    occ: Vec<u64>,
    /// Row-hit status per slot (`hit ⊆ occ`).
    hit: Vec<u64>,
    /// Per-bank slot bitmaps, bank-major: bank `b`'s words are
    /// `bank_bits[b * w..(b + 1) * w]` with `w = occ.len()`. They
    /// partition `occ`.
    bank_bits: Vec<u64>,
    /// Queued commands per bank (population count of its bitmap).
    bank_len: Vec<u32>,
    /// Per-priority slot bitmaps, in descending priority; they partition
    /// `occ`.
    levels: Vec<PrioLevel>,
    /// `level_at[p]` is the index into `levels` of priority `p` whenever
    /// that priority has a level; other entries are stale.
    level_at: [u8; 256],
    /// Oldest queued position (`== tail` when empty).
    head: u64,
    /// Next position to assign.
    tail: u64,
    /// End of the aged prefix as of `frontier_at`: every queued position
    /// before it is older than [`AGE_CAP`].
    frontier: u64,
    frontier_at: Cycles,
    /// Queued commands (population count of `occ`).
    len: usize,
}

impl CmdRing {
    fn new(banks: usize) -> Self {
        let words = 1;
        let slots = words * 64;
        Self {
            arrival_time: vec![0; slots],
            cmds: vec![CmdRec::default(); slots],
            occ: vec![0; words],
            hit: vec![0; words],
            bank_bits: vec![0; banks * words],
            bank_len: vec![0; banks],
            levels: Vec::new(),
            level_at: [0; 256],
            head: 0,
            tail: 0,
            frontier: 0,
            frontier_at: 0,
            len: 0,
        }
    }

    #[inline]
    fn capacity(&self) -> u64 {
        self.cmds.len() as u64
    }

    #[inline]
    fn slot(&self, pos: u64) -> usize {
        (pos & (self.capacity() - 1)) as usize
    }

    /// First position in `[from, to)` whose bit is set in the bitmap whose
    /// 64-slot words `word` returns, searched in ring (= age) order a word
    /// at a time. `[from, to)` must lie within one capacity.
    #[inline]
    fn first_set(&self, from: u64, to: u64, word: impl Fn(usize) -> u64) -> Option<u64> {
        let mut pos = from;
        while pos < to {
            let s = self.slot(pos);
            let bits = word(s / 64) >> (s % 64);
            if bits != 0 {
                let p = pos + bits.trailing_zeros() as u64;
                return (p < to).then_some(p);
            }
            pos += 64 - (s % 64) as u64;
        }
        None
    }

    /// Double the capacity, laying `[head, tail)` out again at the new
    /// slot positions (holes included). Called only when the span fills
    /// the ring; steady state never grows.
    fn grow(&mut self) {
        let (head, tail) = (self.head, self.tail);
        spread(&mut self.arrival_time, 0, head, tail);
        spread(&mut self.cmds, CmdRec::default(), head, tail);
        let words = self.occ.len();
        let mut bank_bits = vec![0; self.bank_bits.len() * 2];
        for (old, new) in self
            .bank_bits
            .chunks_exact(words)
            .zip(bank_bits.chunks_exact_mut(2 * words))
        {
            spread_bits_into(old, new, head, tail);
        }
        self.bank_bits = bank_bits;
        spread_bits(&mut self.occ, head, tail);
        spread_bits(&mut self.hit, head, tail);
        for l in &mut self.levels {
            spread_bits(&mut l.bits, head, tail);
        }
    }

    /// Assign the next arrival position, growing the ring when full, and
    /// return its slot; the caller fills the slot's arrays, then marks it
    /// with [`Self::set_occupied`].
    #[inline]
    fn push(&mut self) -> usize {
        if self.tail - self.head == self.capacity() {
            self.grow();
        }
        let pos = self.tail;
        self.tail += 1;
        self.slot(pos)
    }

    /// Index into `levels` of priority `prio`, adding an empty level in
    /// descending order when it is new.
    #[inline]
    fn level_of(&mut self, prio: u8) -> usize {
        let i = self.level_at[prio as usize] as usize;
        if self.levels.get(i).is_some_and(|l| l.prio == prio) {
            i
        } else {
            self.add_level(prio)
        }
    }

    /// [`Self::level_of`] for a priority without a level yet.
    #[cold]
    fn add_level(&mut self, prio: u8) -> usize {
        let i = self.levels.partition_point(|l| l.prio > prio);
        let words = self.occ.len();
        self.levels.insert(
            i,
            PrioLevel {
                prio,
                bits: vec![0; words],
                len: 0,
            },
        );
        for (j, l) in self.levels.iter().enumerate() {
            self.level_at[l.prio as usize] = j as u8;
        }
        i
    }

    #[inline]
    fn set_occupied(&mut self, slot: usize, hit: bool) {
        let (w, b) = (slot / 64, slot % 64);
        let CmdRec { bank, prio, .. } = self.cmds[slot];
        self.occ[w] |= 1 << b;
        self.hit[w] = (self.hit[w] & !(1 << b)) | ((hit as u64) << b);
        self.bank_bits[bank as usize * self.occ.len() + w] |= 1 << b;
        self.bank_len[bank as usize] += 1;
        let l = self.level_of(prio);
        self.levels[l].bits[w] |= 1 << b;
        self.levels[l].len += 1;
        self.len += 1;
    }

    /// Dequeue the command at `pos`; when it was the oldest, `head` moves
    /// on to the next queued position.
    #[inline]
    fn clear(&mut self, pos: u64) {
        let slot = self.slot(pos);
        let (w, b) = (slot / 64, slot % 64);
        let CmdRec { bank, prio, .. } = self.cmds[slot];
        self.occ[w] &= !(1 << b);
        self.hit[w] &= !(1 << b);
        self.bank_bits[bank as usize * self.occ.len() + w] &= !(1 << b);
        self.bank_len[bank as usize] -= 1;
        let l = self.level_of(prio);
        self.levels[l].bits[w] &= !(1 << b);
        self.levels[l].len -= 1;
        self.len -= 1;
        if pos == self.head {
            self.head = self
                .first_set(pos + 1, self.tail, |w| self.occ[w])
                .unwrap_or(self.tail);
        }
    }

    /// Refresh the row-hit bits of every slot queued on `bank` after its
    /// open row changed to `row`.
    #[inline]
    fn rehit_bank(&mut self, bank: usize, row: u64) {
        let words = self.occ.len();
        for w in 0..words {
            let mut bits = self.bank_bits[bank * words + w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let hit = (self.cmds[w * 64 + b].row == row) as u64;
                self.hit[w] = (self.hit[w] & !(1 << b)) | (hit << b);
            }
        }
    }

    /// End of the aged prefix at `now`: the first queued position not
    /// older than [`AGE_CAP`] (or `tail`). Arrival times never decrease
    /// along the ring, so the prefix only grows while `now` does; the
    /// cached frontier resumes from where it stopped, and restarts from
    /// `head` if `now` ever goes backwards.
    #[inline]
    fn aged_frontier(&mut self, now: Cycles) -> u64 {
        if now < self.frontier_at {
            self.frontier = self.head;
        }
        self.frontier_at = now;
        let mut f = self.frontier.max(self.head);
        loop {
            match self.first_set(f, self.tail, |w| self.occ[w]) {
                Some(p) if now.saturating_sub(self.arrival_time[self.slot(p)]) > AGE_CAP => {
                    f = p + 1
                }
                Some(p) => {
                    f = p;
                    break;
                }
                None => {
                    f = self.tail;
                    break;
                }
            }
        }
        self.frontier = f;
        f
    }

    /// FR-FCFS-lite pick: the queued position with the maximal
    /// `(priority, row_hit, oldest first)` key, commands older than
    /// [`AGE_CAP`] escalated to `u8::MAX`. Each step is a first-set-bit
    /// search in age order, so the first hit found is the oldest one.
    #[inline]
    fn pick(&mut self, now: Cycles) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let aged_end = self.aged_frontier(now);
        if aged_end > self.head {
            // Aged commands tie at `u8::MAX` with the native `u8::MAX`
            // commands after the prefix, which are all younger: an aged hit
            // wins, then such a native hit, then the oldest command.
            let p = self
                .first_set(self.head, aged_end, |w| self.hit[w])
                .or_else(|| {
                    let top = self
                        .levels
                        .first()
                        .filter(|l| l.prio == u8::MAX && l.len > 0)?;
                    self.first_set(aged_end, self.tail, |w| top.bits[w] & self.hit[w])
                });
            return Some(p.unwrap_or(self.head));
        }
        let l = self.levels.iter().find(|l| l.len > 0)?;
        self.first_set(self.head, self.tail, |w| l.bits[w] & self.hit[w])
            .or_else(|| self.first_set(self.head, self.tail, |w| l.bits[w]))
    }

    /// The definition [`Self::pick`] must reproduce: a linear scan over
    /// every queued slot for the maximal packed `(priority, row_hit,
    /// u64::MAX - position)` key, aged commands escalated to `u8::MAX`.
    /// Debug builds check every pick against it; the unit tests use it as
    /// their oracle.
    #[cfg(any(test, debug_assertions))]
    fn pick_reference(&self, now: Cycles) -> Option<u64> {
        let mask = self.capacity() - 1;
        let mut best_key: u128 = 0;
        let mut best_pos = 0u64;
        for (w, &word) in self.occ.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = w * 64 + b;
                let pos = self.head + ((slot as u64).wrapping_sub(self.head) & mask);
                let aged = now.saturating_sub(self.arrival_time[slot]) > AGE_CAP;
                let prio = if aged { u8::MAX } else { self.cmds[slot].prio };
                let key = (((prio as u128) << 65)
                    | (((self.hit[w] >> b) & 1) as u128) << 64
                    | (u64::MAX - pos) as u128)
                    + 1;
                if key > best_key {
                    best_key = key;
                    best_pos = pos;
                }
            }
        }
        (best_key != 0).then_some(best_pos)
    }

    /// The ring's bookkeeping invariants: the bitmaps agree with each
    /// other and with `len`, and each bank's count with its bitmap;
    /// `[head, tail)` fits the capacity, starts at a queued command and
    /// holds every queued command; the priority levels partition the queue
    /// in descending order with exact counts, each found where the level
    /// table says; and arrival times never decrease in ring order (the
    /// aged prefix relies on it).
    fn check(&self) -> Result<(), String> {
        let pop: usize = self.occ.iter().map(|w| w.count_ones() as usize).sum();
        if pop != self.len {
            return Err(format!(
                "ring occupancy {pop} disagrees with len {}",
                self.len
            ));
        }
        for (w, &word) in self.occ.iter().enumerate() {
            if self.hit[w] & !word != 0 {
                return Err(format!("hit bit set on free slot (word {w})"));
            }
            let banks = self.bank_bits.chunks_exact(self.occ.len());
            if banks.fold(0, |u, b| u | b[w]) != word {
                return Err(format!(
                    "bank slot bitmaps disagree with occupancy (word {w})"
                ));
            }
        }
        let banks = self.bank_bits.chunks_exact(self.occ.len());
        for (b, (bits, &n)) in banks.zip(&self.bank_len).enumerate() {
            let pop: u32 = bits.iter().map(|w| w.count_ones()).sum();
            if pop != n {
                return Err(format!(
                    "bank {b} counts {n} queued commands but its bitmap holds {pop}"
                ));
            }
        }
        let (head, tail, cap) = (self.head, self.tail, self.capacity());
        if tail.checked_sub(head).is_none_or(|span| span > cap) {
            return Err(format!(
                "ring span [{head}, {tail}) does not fit capacity {cap}"
            ));
        }
        let queued = |pos: u64| {
            let slot = self.slot(pos);
            self.occ[slot / 64] >> (slot % 64) & 1 == 1
        };
        if self.len > 0 && !queued(head) {
            return Err(format!("ring head {head} is not occupied"));
        }
        for (w, &word) in self.occ.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = (w * 64) as u64 + bits.trailing_zeros() as u64;
                bits &= bits - 1;
                let pos = head + (slot.wrapping_sub(head) & (cap - 1));
                if pos >= tail {
                    return Err(format!(
                        "occupied position {pos} lies outside [{head}, {tail})"
                    ));
                }
            }
        }
        if self.levels.windows(2).any(|p| p[0].prio <= p[1].prio) {
            return Err("priority levels are not in descending order".to_string());
        }
        for (w, &word) in self.occ.iter().enumerate() {
            let mut union = 0u64;
            for l in &self.levels {
                if union & l.bits[w] != 0 {
                    return Err(format!("priority levels overlap (word {w})"));
                }
                union |= l.bits[w];
            }
            if union != word {
                return Err(format!(
                    "priority levels disagree with occupancy (word {w})"
                ));
            }
        }
        for l in &self.levels {
            let pop: usize = l.bits.iter().map(|w| w.count_ones() as usize).sum();
            if pop != l.len {
                return Err(format!(
                    "priority {} counts {} commands but holds {pop}",
                    l.prio, l.len
                ));
            }
        }
        for (i, l) in self.levels.iter().enumerate() {
            let at = self.level_at[l.prio as usize];
            if at as usize != i {
                return Err(format!(
                    "level table sends priority {} to level {at}, not {i}",
                    l.prio
                ));
            }
        }
        let mut prev: Option<Cycles> = None;
        for pos in (head..tail).filter(|&p| queued(p)) {
            let t = self.arrival_time[self.slot(pos)];
            if let Some(before) = prev.filter(|&b| t < b) {
                return Err(format!(
                    "arrival time decreases at position {pos} ({t} after {before})"
                ));
            }
            prev = Some(t);
        }
        Ok(())
    }
}

/// Lay the ring positions `[head, tail)` of `v` out again in an array of
/// twice the length (see [`CmdRing::grow`]).
fn spread<T: Copy>(v: &mut Vec<T>, fill: T, head: u64, tail: u64) {
    let old_mask = v.len() as u64 - 1;
    let mut out = vec![fill; v.len() * 2];
    let new_mask = out.len() as u64 - 1;
    for pos in head..tail {
        out[(pos & new_mask) as usize] = v[(pos & old_mask) as usize];
    }
    *v = out;
}

/// [`spread`] for a slot bitmap.
fn spread_bits(words: &mut Vec<u64>, head: u64, tail: u64) {
    let mut out = vec![0u64; words.len() * 2];
    spread_bits_into(words, &mut out, head, tail);
    *words = out;
}

/// Copy the bits of ring positions `[head, tail)` of the slot bitmap `old`
/// to their positions in `new`, a zeroed bitmap twice as long.
fn spread_bits_into(old: &[u64], new: &mut [u64], head: u64, tail: u64) {
    let old_mask = old.len() as u64 * 64 - 1;
    let new_mask = new.len() as u64 * 64 - 1;
    for pos in head..tail {
        let o = (pos & old_mask) as usize;
        if old[o / 64] >> (o % 64) & 1 == 1 {
            let n = (pos & new_mask) as usize;
            new[n / 64] |= 1 << (n % 64);
        }
    }
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: Cycles,
    ring: CmdRing,
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
    /// Queued commands per [`BlameClass`] (kept in lockstep with the ring
    /// so tagged enqueues snapshot queue composition in O(1)).
    queued_by_class: [u64; 3],
    /// In-flight commands per class, for queue-composition snapshots.
    live_by_class: [u64; 3],
    /// Tracing context of the queued tagged commands, keyed by arrival
    /// position; empty in a run without spans.
    traced: Vec<(u64, TracedInfo)>,
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
            ring: CmdRing::new(banks),
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
            live_by_class: [0; 3],
            traced: Vec::new(),
        }
    }

    /// Queue a command at the ring's tail. `now` must not precede the
    /// channel's previous enqueue: the aged prefix relies on it.
    fn enqueue(
        &mut self,
        amap: &AddrMap,
        demand_first: bool,
        cmd: MemCmd,
        now: Cycles,
        class: BlameClass,
        tag: Option<TraceTag>,
    ) {
        let r = &self.ring;
        debug_assert!(
            r.tail == 0 || now >= r.arrival_time[r.slot(r.tail - 1)],
            "channel enqueue times must never decrease (enqueue at {now})"
        );
        if let Some(tag) = tag {
            let mut ahead = [0u64; 3];
            for (i, a) in ahead.iter_mut().enumerate() {
                *a = self.queued_by_class[i] + self.live_by_class[i];
            }
            self.traced.push((r.tail, TracedInfo { tag, ahead }));
        }
        let (bank, row) = amap.map(cmd.addr);
        let slot = self.ring.push();
        let s = &mut self.ring;
        s.arrival_time[slot] = now;
        s.cmds[slot] = CmdRec {
            row,
            token: cmd.token,
            bank,
            bytes: cmd.bytes,
            prio: if demand_first { cmd.priority } else { 0 },
            write: cmd.is_write,
            class,
        };
        let hit = self.banks[bank as usize].open_row == Some(row);
        s.set_occupied(slot, hit);
        self.queued_by_class[class.idx()] += 1;
        self.queued_total += 1;
        self.max_queue = self.max_queue.max(self.ring.len as u64);
        self.depth_sum += self.ring.len as u64;
    }

    /// Start as many queued commands as pipelining allows, appending each
    /// (with its completion time) to `out`.
    fn pump(
        &mut self,
        timing: &DramTiming,
        now: Cycles,
        out: &mut Vec<StartedCmd>,
        tracer: &mut SpanCollector,
    ) {
        while self.in_flight < PIPELINE_DEPTH {
            let picked = self.ring.pick(now);
            // The reference scan is compiled only where it is checked.
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                picked,
                self.ring.pick_reference(now),
                "ring pick diverged from the reference scan at cycle {now}"
            );
            let Some(pos) = picked else { break };
            let (done_at, token) = self.start(timing, now, pos, tracer);
            self.in_flight += 1;
            out.push(StartedCmd { done_at, token });
        }
    }

    /// Retire one in-flight command of requester `class`.
    fn complete(&mut self, class: BlameClass) {
        debug_assert!(self.in_flight > 0, "completion without in-flight command");
        self.in_flight -= 1;
        self.live_by_class[class.idx()] -= 1;
    }

    /// The channel's invariants beyond its ring's own: every queued
    /// command's row-hit bit says whether its bank has its row open (the
    /// pick trusts the bits, and `start` refreshes them only when an open
    /// row changes).
    fn check(&self) -> Result<(), String> {
        self.ring.check()?;
        let r = &self.ring;
        for (w, &word) in r.occ.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = w * 64 + b;
                let CmdRec { bank, row, .. } = r.cmds[slot];
                let open = self.banks[bank as usize].open_row;
                let hit = r.hit[w] >> b & 1 == 1;
                if hit != (open == Some(row)) {
                    let pos = r.head + ((slot as u64).wrapping_sub(r.head) & (r.capacity() - 1));
                    return Err(format!(
                        "hit bit {} at position {pos} disagrees with bank {bank} \
                         (open row {open:?}, command row {row})",
                        hit as u8
                    ));
                }
            }
        }
        Ok(())
    }

    /// Compute timing for the picked ring position, dequeue it, mutate
    /// bank/bus state, return `(completion, token)`. A tagged command also
    /// records its blame decomposition into `tracer`: queue wait split
    /// across the classes ahead of it, bank-busy wait charged to the
    /// bank's previous occupant, row-conflict penalty, bus wait, and
    /// intrinsic service time — tiling `[arrival, data_end)` exactly.
    fn start(
        &mut self,
        timing: &DramTiming,
        now: Cycles,
        pos: u64,
        tracer: &mut SpanCollector,
    ) -> (Cycles, u64) {
        let s = &self.ring;
        let slot = s.slot(pos);
        let CmdRec {
            row,
            token,
            bank,
            bytes: cmd_bytes,
            write: is_write,
            class,
            ..
        } = s.cmds[slot];
        let bank_idx = bank as usize;
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

        if let Some(i) = self.traced.iter().position(|&(p, _)| p == pos) {
            let (_, TracedInfo { tag, ahead }) = self.traced.swap_remove(i);
            let mut record = |cause, start, end| tracer.record(tag.span, cause, start, end);
            if tag.token_stalled {
                record(BlameCause::TokenStall, arrival_time, now);
            } else {
                for iv in split_queue_wait(arrival_time, now, ahead) {
                    record(iv.cause, iv.start, iv.end);
                }
            }
            record(bank.last_class.queue_cause(), now, t0);
            let prep_cause = if conflict { BlameCause::RowConflict } else { BlameCause::Service };
            record(prep_cause, t0, col_time);
            record(BlameCause::Service, col_time, col_time + timing.t_cas);
            record(BlameCause::BusBusy, col_time + timing.t_cas, data_start);
            record(BlameCause::Service, data_start, data_end);
        }
        self.banks[bank_idx].last_class = class;
        self.live_by_class[class.idx()] += 1;

        self.ring.clear(pos);
        self.queued_by_class[class.idx()] -= 1;
        self.banks[bank_idx].open_row = Some(row);
        self.banks[bank_idx].ready_at = col_time + burst;
        self.bus_free_at = data_end;
        // A new open row flips the row-hit bits of the commands still
        // queued on this bank; a row hit confirmed the old one, which
        // leaves every bit as it was.
        if !row_hit && self.ring.bank_len[bank_idx] > 0 {
            self.ring.rehit_bank(bank_idx, row);
        }

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

impl MemStats {
    /// The statistics accumulated since `base`, an earlier snapshot of the
    /// same device. `max_queue` stays the cumulative peak.
    pub fn delta_from(&self, base: &MemStats) -> MemStats {
        MemStats {
            reads: self.reads - base.reads,
            writes: self.writes - base.writes,
            bytes: self.bytes - base.bytes,
            activations: self.activations - base.activations,
            row_hits: self.row_hits - base.row_hits,
            row_conflicts: self.row_conflicts - base.row_conflicts,
            busy_cycles: self.busy_cycles - base.busy_cycles,
            enqueued: self.enqueued - base.enqueued,
            max_queue: self.max_queue,
        }
    }
}

/// A multi-channel DRAM device.
#[derive(Debug)]
pub struct MemDevice {
    timing: DramTiming,
    amap: AddrMap,
    channels: Vec<Channel>,
    /// Latency-optimised scheduling: honour command priorities (demand
    /// first). Bandwidth-optimised devices (the slow tier behind the cache)
    /// ignore priorities and run FR-FCFS.
    demand_first: bool,
}

impl MemDevice {
    /// Create a device: latency-optimised (`demand_first`, honouring
    /// command priorities) or bandwidth-optimised (plain FR-FCFS).
    pub fn new(timing: DramTiming, channels: usize, demand_first: bool) -> Self {
        assert!(channels > 0, "device needs at least one channel");
        let banks = timing.banks_per_channel;
        let amap = AddrMap::new(timing.row_bytes, banks as u64);
        Self {
            timing,
            amap,
            channels: (0..channels).map(|_| Channel::new(banks)).collect(),
            demand_first,
        }
    }

    /// Device-level consistency check for invariant monitors: per-channel
    /// in-flight occupancy must respect the pipeline depth (release-build
    /// counterpart of the `debug_assert` in [`Self::on_complete`]), each
    /// channel's pending-command ring must be consistent (see
    /// `CmdRing::check`), and every queued command's row-hit bit must match
    /// its bank's open row (see `Channel::check`).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (ch, c) in self.channels.iter().enumerate() {
            if c.in_flight > PIPELINE_DEPTH {
                return Err(format!(
                    "channel {ch}: {} commands in flight exceeds pipeline depth {PIPELINE_DEPTH}",
                    c.in_flight
                ));
            }
            c.check().map_err(|e| format!("channel {ch}: {e}"))?;
        }
        Ok(())
    }

    /// Enqueue a command on channel `ch` at time `now`, from requester
    /// `class` (queue-composition snapshots and bank blame). `tag` is the
    /// span tag of a sampled transaction's demand command, whose blame
    /// decomposition [`Self::pump`] records when it starts. Call
    /// [`Self::pump`] afterwards to start whatever the scheduler allows.
    pub fn enqueue(
        &mut self,
        ch: usize,
        cmd: MemCmd,
        now: Cycles,
        class: BlameClass,
        tag: Option<TraceTag>,
    ) {
        self.channels[ch].enqueue(&self.amap, self.demand_first, cmd, now, class, tag);
    }

    /// Start as many commands as pipelining allows on channel `ch`,
    /// appending each started command (with completion time) to `out` and
    /// recording the blame of each tagged one into `tracer`. Tracing never
    /// alters command timing.
    pub fn pump(
        &mut self,
        ch: usize,
        now: Cycles,
        out: &mut Vec<StartedCmd>,
        tracer: &mut SpanCollector,
    ) {
        self.channels[ch].pump(&self.timing, now, out, tracer);
    }

    /// Notify the device that a previously started command on `ch`, of the
    /// requester `class` it was enqueued with, finished. Follow with
    /// [`Self::pump`] to start successors.
    pub fn on_complete(&mut self, ch: usize, class: BlameClass) {
        self.channels[ch].complete(class);
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

    /// Per-channel bytes transferred (for partitioning/balance checks).
    pub fn channel_bytes(&self) -> Vec<u64> {
        self.channels.iter().map(|c| c.bytes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingPreset;

    fn dev(preset: TimingPreset, ch: usize) -> MemDevice {
        MemDevice::new(preset.timing(), ch, true)
    }

    /// Untraced shorthands: every command is background traffic without a
    /// span tag, so nothing is recorded.
    impl MemDevice {
        fn enqueue_bg(&mut self, ch: usize, cmd: MemCmd, now: Cycles) {
            self.enqueue(ch, cmd, now, BlameClass::Background, None);
        }

        fn pump_bg(&mut self, ch: usize, now: Cycles, out: &mut Vec<StartedCmd>) {
            self.pump(ch, now, out, &mut SpanCollector::new(None));
        }

        fn complete_bg(&mut self, ch: usize) {
            self.on_complete(ch, BlameClass::Background);
        }
    }

    fn run_one(dev: &mut MemDevice, ch: usize, now: Cycles, cmd: MemCmd) -> Cycles {
        dev.enqueue_bg(ch, cmd, now);
        let mut out = Vec::new();
        dev.pump_bg(ch, now, &mut out);
        assert_eq!(out.len(), 1);
        dev.complete_bg(ch);
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
        d.enqueue_bg(0, rd(0, 64), 0);
        d.enqueue_bg(0, rd(t.row_bytes, 64), 0); // different bank
        let mut out = Vec::new();
        d.pump_bg(0, 0, &mut out);
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
            d.enqueue_bg(
                0,
                MemCmd {
                    token: i,
                    ..rd(i << 20, 64)
                },
                0,
            );
        }
        let mut out = Vec::new();
        d.pump_bg(0, 0, &mut out);
        assert_eq!(out.len(), PIPELINE_DEPTH);
        out.clear();
        // Now queue a low-priority old command and a high-priority young one.
        d.enqueue_bg(
            0,
            MemCmd {
                token: 100,
                priority: 0,
                ..rd(0, 64)
            },
            50,
        );
        d.enqueue_bg(
            0,
            MemCmd {
                token: 200,
                priority: 3,
                ..rd(64, 64)
            },
            50,
        );
        d.complete_bg(0);
        d.pump_bg(0, 50, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 200, "high priority must be served first");
    }

    #[test]
    fn fcfs_among_equal_priority() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        for i in 0..PIPELINE_DEPTH as u64 {
            d.enqueue_bg(0, MemCmd { token: i, ..rd(0, 64) }, 0);
        }
        let mut out = Vec::new();
        d.pump_bg(0, 0, &mut out);
        out.clear();
        // Two equal-priority commands to closed banks: older first.
        let t = TimingPreset::Ddr4.timing();
        d.enqueue_bg(0, MemCmd { token: 10, ..rd(3 * t.row_bytes, 64) }, 10);
        d.enqueue_bg(0, MemCmd { token: 11, ..rd(5 * t.row_bytes, 64) }, 10);
        d.complete_bg(0);
        d.pump_bg(0, 10, &mut out);
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
                d.enqueue_bg(0, rd(issued * 256, 256), now);
                issued += 1;
                d.pump_bg(0, now, &mut out);
                for s in out.drain(..) {
                    inflight.push(s.done_at);
                }
            }
            inflight.sort_unstable();
            let t0 = inflight.remove(0);
            now = t0;
            d.complete_bg(0);
            d.pump_bg(0, now, &mut out);
            for s in out.drain(..) {
                inflight.push(s.done_at);
            }
            completed += 1;
            done_times.push(t0);
        }
        let elapsed = *done_times.last().unwrap();
        let gbs = h2_sim_core::units::bandwidth_gbs(d.stats().bytes, elapsed);
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
        let mut reg = h2_sim_core::MetricsRegistry::new();
        d.collect_metrics(&mut reg.scoped("mem"), true);
        assert_eq!(reg.counter("mem.ch0.reads"), 3);
        assert_eq!(reg.counter("mem.ch0.row_hits"), 1);
        assert_eq!(reg.counter("mem.ch0.bank0.row_hits"), 1);
        assert_eq!(reg.counter("mem.ch0.bank0.row_conflicts"), 1);
        assert!(reg.gauge("mem.ch0.queue_avg").is_some());
    }

    #[test]
    fn tracing_decomposition_tiles_lifetime() {
        use h2_sim_core::trace_span::tiles_exactly;
        let mut d = dev(TimingPreset::Ddr4, 1);
        let mut tracer = SpanCollector::new(Some(1));
        let span = tracer.try_sample().unwrap();
        tracer.open(span, 0, 5);
        // Occupy the bank+bus first so the traced command really waits.
        let mut out = Vec::new();
        d.enqueue(0, rd(0, 256), 0, BlameClass::GpuDemand, None);
        d.pump(0, 0, &mut out, &mut tracer);
        let tag = TraceTag { span, token_stalled: false };
        let cmd = MemCmd { token: 9, ..rd(64, 64) };
        d.enqueue(0, cmd, 5, BlameClass::CpuDemand, Some(tag));
        d.pump(0, 5, &mut out, &mut tracer);
        assert_eq!(out.len(), 2);
        let done = out[1].done_at;
        assert!(d.channels[0].traced.is_empty(), "a started command leaves the list");
        // Completions retire the classes the commands were enqueued with.
        assert_eq!(d.channels[0].live_by_class, [1, 1, 0]);
        d.on_complete(0, BlameClass::GpuDemand);
        d.on_complete(0, BlameClass::CpuDemand);
        assert_eq!(d.channels[0].live_by_class, [0; 3]);
        tracer.close(span, done);
        let ivs = &tracer.take_spans()[0].intervals;
        assert!(tiles_exactly(ivs, 5, done), "decomposition must tile [5, {done}): {ivs:?}");
        // The bank was busy with the GPU command: that wait is the GPU's.
        assert!(ivs.iter().any(|iv| iv.cause == BlameCause::QueueBehindGpu), "{ivs:?}");
        // Cycle-identical to the untraced path.
        let mut plain = dev(TimingPreset::Ddr4, 1);
        plain.enqueue_bg(0, rd(0, 256), 0);
        let mut pout = Vec::new();
        plain.pump_bg(0, 0, &mut pout);
        plain.enqueue_bg(0, cmd, 5);
        plain.pump_bg(0, 5, &mut pout);
        assert_eq!(pout[1].done_at, done);
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

    /// Ring slots are reused as the arrival position wraps and never move
    /// a queued command; draining and refilling a shallow queue must not
    /// grow the ring.
    #[test]
    fn ring_reuses_slots_without_growth() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        let mut out = Vec::new();
        for round in 0..100u64 {
            for i in 0..8 {
                d.enqueue_bg(0, MemCmd { token: round * 8 + i, ..rd(i * 64, 64) }, round);
            }
            d.pump_bg(0, round, &mut out);
            for _ in 0..out.len() {
                d.complete_bg(0);
            }
            out.clear();
        }
        let ring = &d.channels[0].ring;
        assert_eq!(ring.occ.len(), 1, "ring must stay at one word");
        assert_eq!(ring.tail, 800, "arrival positions wrapped the ring");
        d.check_invariants().unwrap();
    }

    /// Deterministic LCG for the randomised tests.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 11
    }

    /// The ring pick must agree with a straight reference scan of the
    /// original `(prio, row_hit, oldest)` key — oldest by ring position —
    /// on a randomised deep queue, including a probe that steps the clock
    /// back behind the cached aged frontier.
    #[test]
    fn pick_matches_reference_scan() {
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        let mut state = 0x243F_6A88_85A3_08D3u64;
        // Fill the pipeline so everything stays queued; then check pick
        // against the reference at several probe times.
        for i in 0..PIPELINE_DEPTH as u64 {
            d.enqueue_bg(0, MemCmd { token: i, ..rd(i << 20, 64) }, 0);
        }
        let mut out = Vec::new();
        d.pump_bg(0, 0, &mut out);
        for i in 0..200u64 {
            let r = lcg(&mut state);
            d.enqueue_bg(
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
        for now in [0u64, 50, 100, 260, 400, 120] {
            let c = &mut d.channels[0];
            let s = &c.ring;
            // Reference: linear scan over queued positions with tuple keys.
            let mut best: Option<((u8, bool, u64), u64)> = None;
            for pos in s.head..s.tail {
                let slot = s.slot(pos);
                if s.occ[slot / 64] >> (slot % 64) & 1 == 0 {
                    continue;
                }
                let CmdRec { bank, row, prio, .. } = s.cmds[slot];
                let hit = c.banks[bank as usize].open_row == Some(row);
                let prio = if now.saturating_sub(s.arrival_time[slot]) > AGE_CAP {
                    u8::MAX
                } else {
                    prio
                };
                let key = (prio, hit, u64::MAX - pos);
                if best.is_none_or(|(b, _)| key > b) {
                    best = Some((key, pos));
                }
            }
            assert_eq!(c.ring.pick(now), best.map(|(_, pos)| pos), "now={now}");
        }
        d.check_invariants().unwrap();
    }

    /// Seeded differential churn: bursts that push the queue past 200
    /// commands, random completions, priorities {0, 1, 2, 255}, frequent
    /// row hits and a clock that outruns [`AGE_CAP`]. Every pick must equal
    /// the reference scan across ring wrap-around and growth, under both
    /// scheduling flavours.
    #[test]
    fn pick_matches_reference_under_churn() {
        let t = TimingPreset::Hbm2eSuper.timing();
        let banks = t.banks_per_channel as u64;
        let mut tracer = SpanCollector::new(None);
        for demand_first in [true, false] {
            for seed in 0..12u64 {
                let mut d = MemDevice::new(t.clone(), 1, demand_first);
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ demand_first as u64;
                let (mut now, mut token, mut deepest) = (0u64, 0u64, 0usize);
                for step in 0..4000u64 {
                    let r = lcg(&mut state);
                    let burst = if r.is_multiple_of(128) {
                        100 + (r >> 8) % 200
                    } else {
                        (r >> 8) % 3
                    };
                    for _ in 0..burst {
                        let r = lcg(&mut state);
                        let (bank, row, col) = ((r >> 2) % 8, (r >> 5) % 4, (r >> 7) % 16);
                        let cmd = MemCmd {
                            addr: (row * banks + bank) * t.row_bytes + col * 64,
                            bytes: 64,
                            is_write: r >> 11 & 1 == 1,
                            priority: [0, 1, 2, u8::MAX][(r % 4) as usize],
                            token,
                        };
                        d.enqueue_bg(0, cmd, now);
                        token += 1;
                    }
                    deepest = deepest.max(d.channels[0].ring.len);
                    let c = &mut d.channels[0];
                    for _ in 0..(lcg(&mut state) % 8).min(c.in_flight as u64) {
                        c.complete(BlameClass::Background);
                    }
                    while c.in_flight < PIPELINE_DEPTH {
                        let picked = c.ring.pick(now);
                        assert_eq!(
                            picked,
                            c.ring.pick_reference(now),
                            "seed {seed}, demand_first {demand_first}, step {step}, cycle {now}"
                        );
                        let Some(pos) = picked else { break };
                        c.start(&t, now, pos, &mut tracer);
                        c.in_flight += 1;
                    }
                    now += lcg(&mut state) % 24;
                    if step % 1000 == 999 {
                        d.check_invariants().unwrap();
                    }
                }
                let ring = &d.channels[0].ring;
                assert!(deepest > 200, "seed {seed}: queue peaked at {deepest}");
                assert!(
                    ring.capacity() >= 256 && ring.tail > 2 * ring.capacity(),
                    "seed {seed}: ring must grow and wrap (capacity {}, tail {})",
                    ring.capacity(),
                    ring.tail
                );
            }
        }
    }

    /// The aged prefix needs per-channel enqueue times that never
    /// decrease; debug builds reject a clock that goes backwards.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "channel enqueue times must never decrease")]
    fn enqueue_rejects_a_clock_going_backwards() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        d.enqueue_bg(0, rd(0, 64), 10);
        d.enqueue_bg(0, rd(64, 64), 9);
    }

    /// Deep alternating enqueue/drain traffic across banks keeps every
    /// ring invariant intact.
    #[test]
    fn ring_invariants_under_churn() {
        let t = TimingPreset::Hbm2eSuper.timing();
        let mut d = dev(TimingPreset::Hbm2eSuper, 2);
        let mut out = Vec::new();
        let mut inflight = [0usize; 2];
        for i in 0..500u64 {
            let ch = (i % 2) as usize;
            d.enqueue_bg(
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
            d.pump_bg(ch, i, &mut out);
            inflight[ch] += out.len();
            out.clear();
            if inflight[ch] > 4 {
                d.complete_bg(ch);
                inflight[ch] -= 1;
            }
            if i % 61 == 0 {
                d.check_invariants().unwrap();
            }
        }
        d.check_invariants().unwrap();
    }

    /// `check_invariants` after `corrupt` mutates the ring of a channel
    /// whose pipeline holds 48 started commands (positions 0..48, now
    /// holes) and whose queue holds four: positions 48..52, priorities
    /// 0, 1, 2, 0, enqueued at cycles 10..14.
    fn corrupted(corrupt: impl FnOnce(&mut CmdRing)) -> String {
        let mut d = dev(TimingPreset::Ddr4, 1);
        for i in 0..PIPELINE_DEPTH as u64 {
            d.enqueue_bg(0, MemCmd { token: i, ..rd(i << 20, 64) }, 0);
        }
        d.pump_bg(0, 0, &mut Vec::new());
        for i in 0..4u64 {
            let cmd = MemCmd {
                priority: (i % 3) as u8,
                token: 100 + i,
                ..rd(i * 64, 64)
            };
            d.enqueue_bg(0, cmd, 10 + i);
        }
        d.check_invariants().unwrap();
        corrupt(&mut d.channels[0].ring);
        d.check_invariants().unwrap_err()
    }

    #[test]
    fn check_flags_ring_head_and_stray_positions() {
        assert_eq!(
            corrupted(|r| r.head -= 1),
            "channel 0: ring head 47 is not occupied"
        );
        assert_eq!(
            corrupted(|r| r.tail -= 1),
            "channel 0: occupied position 51 lies outside [48, 51)"
        );
    }

    #[test]
    fn check_flags_ring_span_over_capacity() {
        assert_eq!(
            corrupted(|r| r.tail = r.head + 65),
            "channel 0: ring span [48, 113) does not fit capacity 64"
        );
        assert_eq!(
            corrupted(|r| r.head = r.tail + 1),
            "channel 0: ring span [53, 52) does not fit capacity 64"
        );
    }

    #[test]
    fn check_flags_priority_levels() {
        // Levels in descending order: 2 = {50}, 1 = {49}, 0 = {48, 51}.
        assert_eq!(
            corrupted(|r| r.levels[0].bits[0] |= 1 << 49),
            "channel 0: priority levels overlap (word 0)"
        );
        assert_eq!(
            corrupted(|r| r.levels[2].bits[0] &= !(1 << 51)),
            "channel 0: priority levels disagree with occupancy (word 0)"
        );
        assert_eq!(
            corrupted(|r| r.levels[1].len += 1),
            "channel 0: priority 1 counts 2 commands but holds 1"
        );
        assert_eq!(
            corrupted(|r| r.levels.swap(0, 1)),
            "channel 0: priority levels are not in descending order"
        );
    }

    #[test]
    fn check_flags_level_table() {
        assert_eq!(
            corrupted(|r| r.level_at[1] = 0),
            "channel 0: level table sends priority 1 to level 0, not 1"
        );
    }

    /// The state `start` relies on to skip refreshing the hit bits: the
    /// bits match the open rows, and the per-bank counts match the bank
    /// bitmaps. All four queued commands sit in row 0 of bank 0, where
    /// the pipeline left row 188 open.
    #[test]
    fn check_flags_stale_hit_bits_and_bank_counts() {
        assert_eq!(
            corrupted(|r| r.hit[0] ^= 1 << 49),
            "channel 0: hit bit 1 at position 49 disagrees with bank 0 \
             (open row Some(188), command row 0)"
        );
        assert_eq!(
            corrupted(|r| r.bank_len[0] += 1),
            "channel 0: bank 0 counts 5 queued commands but its bitmap holds 4"
        );
    }

    #[test]
    fn check_flags_decreasing_arrival_times() {
        assert_eq!(
            corrupted(|r| {
                let slot = r.slot(50);
                r.arrival_time[slot] = 5;
            }),
            "channel 0: arrival time decreases at position 50 (5 after 11)"
        );
    }
}
