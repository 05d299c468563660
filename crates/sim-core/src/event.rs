//! A deterministic discrete-event queue.
//!
//! Two engines implement the [`Queue`] trait with the same `(time, seq)`
//! total order — two events scheduled for the same cycle pop in insertion
//! order, which keeps whole-system runs bit-reproducible regardless of
//! payload type:
//!
//! * [`calendar`] — the production engine ([`EventQueue`]): a calendar
//!   queue (timing wheel). Events within [`calendar::WHEEL_SLOTS`] cycles
//!   of now go into per-cycle ring buckets with O(1) schedule and pop
//!   (each bucket is a list through one node slab whose freed nodes are
//!   reused, so the steady state allocates nothing and memory follows the
//!   pending events); the rare far-future events (epoch boundaries,
//!   faucet refills, warm-up end) spill to a small overflow binary heap
//!   and migrate into the wheel as the window advances. This is the
//!   classic DES optimisation for memory-system simulators, where almost
//!   every event is a DRAM/bus/cache latency of at most a few hundred
//!   cycles.
//! * [`legacy`] — the original binary min-heap with O(log n) operations.
//!   Kept as a differential oracle (tests assert the two engines produce
//!   identical event streams, and whole simulations are replayed on it)
//!   and as the baseline for the `micro` criterion-style benchmarks.
//!
//! The system runner's event loop is generic over [`Queue`], so the engine
//! a run uses is fixed at compile time: production entry points
//! instantiate only [`EventQueue`], and the heap engine is reached through
//! one dedicated oracle entry point.

use crate::units::Cycles;
use std::cmp::Ordering;

/// An event payload scheduled at a point in simulated time.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// Cycle at which the event fires.
    pub time: Cycles,
    /// Insertion sequence number; breaks ties deterministically.
    pub seq: u64,
    /// The payload.
    pub payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The operations the event loop needs from an engine. Both engines pop
/// the identical `(time, seq)` order.
pub trait Queue<E> {
    /// Current simulated time: the fire time of the last popped event.
    fn now(&self) -> Cycles;

    /// Total number of events popped so far (simulator throughput metric).
    fn events_processed(&self) -> u64;

    /// Events that were scheduled in the past and silently clamped to `now`
    /// (release builds only; debug builds panic instead). A non-zero count
    /// flags scheduling bugs that debug assertions would have caught.
    fn clamped_events(&self) -> u64;

    /// Schedule `payload` to fire at absolute cycle `time`.
    ///
    /// Scheduling in the past is a logic error and panics in debug builds;
    /// in release builds the event is clamped to `now` and counted in
    /// [`Self::clamped_events`].
    fn schedule_at(&mut self, time: Cycles, payload: E);

    /// Schedule `payload` to fire `delta` cycles from now.
    fn schedule_in(&mut self, delta: Cycles, payload: E) {
        self.schedule_at(self.now() + delta, payload);
    }

    /// Pop the earliest event, advancing `now` to its fire time.
    fn pop(&mut self) -> Option<Scheduled<E>>;

    /// Pop every event scheduled for the earliest pending cycle, appending
    /// them to `out` in `(time, seq)` order; returns how many were popped.
    /// Equivalent to repeated [`Self::pop`] while the head time is
    /// unchanged (0 when the queue is empty). `now` advances to the
    /// frontier's time; the popped count increases by the batch size.
    fn pop_batch(&mut self, out: &mut Vec<Scheduled<E>>) -> usize;

    /// Fire time of the earliest pending event, if any.
    fn peek_time(&self) -> Option<Cycles>;
}

pub mod legacy {
    //! The original binary-heap engine, kept as a differential oracle.

    use super::{Cycles, Queue, Scheduled};
    use std::collections::BinaryHeap;

    /// Deterministic binary-heap event queue (O(log n) schedule/pop).
    #[derive(Debug)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        now: Cycles,
        popped: u64,
        clamped: u64,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// Create an empty queue at time zero.
        pub fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: 0,
                popped: 0,
                clamped: 0,
            }
        }
    }

    impl<E> Queue<E> for HeapQueue<E> {
        fn now(&self) -> Cycles {
            self.now
        }

        fn events_processed(&self) -> u64 {
            self.popped
        }

        fn clamped_events(&self) -> u64 {
            self.clamped
        }

        fn schedule_at(&mut self, time: Cycles, payload: E) {
            debug_assert!(
                time >= self.now,
                "event scheduled in the past: {} < {}",
                time,
                self.now
            );
            if time < self.now {
                self.clamped += 1;
            }
            let time = time.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { time, seq, payload });
        }

        fn pop(&mut self) -> Option<Scheduled<E>> {
            let ev = self.heap.pop()?;
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            self.popped += 1;
            Some(ev)
        }

        fn pop_batch(&mut self, out: &mut Vec<Scheduled<E>>) -> usize {
            let Some(first) = self.heap.pop() else { return 0 };
            debug_assert!(first.time >= self.now, "time went backwards");
            let t = first.time;
            let start = out.len();
            out.push(first);
            while let Some(top) = self.heap.peek() {
                if top.time != t {
                    break;
                }
                out.push(self.heap.pop().unwrap());
            }
            let k = out.len() - start;
            self.now = t;
            self.popped += k as u64;
            k
        }

        fn peek_time(&self) -> Option<Cycles> {
            self.heap.peek().map(|e| e.time)
        }
    }
}

pub mod calendar {
    //! The calendar-queue (timing-wheel) engine.
    //!
    //! Every event pending in the wheel lives in a node of one slab. Each
    //! wheel slot (one per cycle residue) keeps the `(head, tail)` node
    //! indices of an intrusive singly linked list threaded through that
    //! slab. Freed nodes go onto a LIFO free list, so a schedule reuses the
    //! node the last pop released, which is still in cache, and the slab
    //! holds no more nodes than the peak number of events pending in the
    //! wheel at once — queue memory follows the pending events, not the
    //! wheel size.
    //!
    //! Invariants, maintained by every operation:
    //!
    //! 1. Every wheel event has `time` in `[now, now + WHEEL_SLOTS)`, so a
    //!    slot's list only ever holds events of a single absolute time.
    //! 2. Every overflow event has `time >= now + WHEEL_SLOTS`: each time
    //!    `now` advances, the overflow events that entered the horizon move
    //!    into the wheel before anything else can be scheduled. Whenever
    //!    the wheel is non-empty its earliest slot therefore holds the
    //!    global `(time, seq)` minimum.
    //! 3. Each list is in append order, which is seq order. Direct inserts
    //!    arrive in seq order. The overflow events of one time all migrate
    //!    in one drain, in seq order, and by invariant 2 before any event
    //!    of that time can be inserted directly; having been scheduled
    //!    earlier, they also have the lower seqs. So `pop` takes a list
    //!    head and `pop_batch` takes a whole list, with no sort.

    use super::{Cycles, Queue, Scheduled};
    use std::collections::BinaryHeap;

    /// Wheel span in cycles (one bucket per cycle). Must be a power of two
    /// and exceed the front-end batching horizon (10k cycles) so that all
    /// hot-path events — DRAM timings, bus bursts, cache latencies, batch
    /// wake-ups — schedule in O(1).
    pub const WHEEL_SLOTS: usize = 1 << 14;
    const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
    const WORDS: usize = WHEEL_SLOTS / 64;
    const SUMMARY_WORDS: usize = WORDS / 64;
    /// Null node index: end of a list, empty bucket, empty free list.
    const NIL: u32 = u32::MAX;

    /// A slab entry: the pending event (`None` while the node is free) and
    /// the next node of its bucket list or of the free list.
    #[derive(Debug)]
    struct Node<E> {
        ev: Option<Scheduled<E>>,
        next: u32,
    }

    /// One wheel slot's list: its first and last node, `head == NIL` when
    /// empty.
    #[derive(Debug, Clone, Copy)]
    struct Bucket {
        head: u32,
        tail: u32,
    }

    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };

    /// Calendar-queue event engine (O(1) schedule/pop in the common case).
    #[derive(Debug)]
    pub struct CalendarQueue<E> {
        /// One event list per cycle in the horizon.
        buckets: Box<[Bucket]>,
        /// Node storage for every wheel event. Grows only when the free
        /// list is empty, so its length is the peak wheel occupancy.
        nodes: Vec<Node<E>>,
        /// Most recently freed node (LIFO free list through `next`).
        free: u32,
        /// One bit per bucket: set iff the bucket is non-empty.
        occupancy: Box<[u64; WORDS]>,
        /// Idle fast-forward index: one bit per *occupancy word*, set iff
        /// that word has any bucket bit set. Lets the slot search jump
        /// straight over long empty stretches of the wheel (an idle system
        /// waiting on an epoch boundary or faucet refill) instead of
        /// scanning hundreds of zero words.
        summary: [u64; SUMMARY_WORDS],
        wheel_len: usize,
        /// Far-future events (`time >= now + WHEEL_SLOTS`), earliest first.
        overflow: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        now: Cycles,
        popped: u64,
        clamped: u64,
    }

    impl<E> Default for CalendarQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> CalendarQueue<E> {
        /// Create an empty queue at time zero.
        pub fn new() -> Self {
            Self {
                buckets: vec![EMPTY; WHEEL_SLOTS].into_boxed_slice(),
                nodes: Vec::new(),
                free: NIL,
                occupancy: Box::new([0u64; WORDS]),
                summary: [0u64; SUMMARY_WORDS],
                wheel_len: 0,
                overflow: BinaryHeap::new(),
                next_seq: 0,
                now: 0,
                popped: 0,
                clamped: 0,
            }
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.wheel_len + self.overflow.len()
        }

        /// True when no events are pending.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Slab nodes allocated so far, live and free.
        #[cfg(test)]
        pub(super) fn slab_nodes(&self) -> usize {
            self.nodes.len()
        }

        #[inline]
        fn slot_of(time: Cycles) -> usize {
            (time & WHEEL_MASK) as usize
        }

        /// The event in live node `i`.
        fn event(&self, i: u32) -> &Scheduled<E> {
            self.nodes[i as usize].ev.as_ref().expect("live node")
        }

        /// Store `ev` in the most recently freed node, or in a new one when
        /// every node is live; returns the node's index.
        #[inline]
        fn alloc_node(&mut self, ev: Scheduled<E>) -> u32 {
            let i = self.free;
            if i != NIL {
                let node = &mut self.nodes[i as usize];
                self.free = node.next;
                node.next = NIL;
                node.ev = Some(ev);
                return i;
            }
            let i = self.nodes.len();
            assert!(i < NIL as usize, "event slab exceeds u32 node indices");
            self.nodes.push(Node {
                ev: Some(ev),
                next: NIL,
            });
            i as u32
        }

        /// Append `ev` to its slot's list.
        #[inline]
        fn wheel_insert(&mut self, ev: Scheduled<E>) {
            let s = Self::slot_of(ev.time);
            let b = self.buckets[s];
            debug_assert!(
                b.head == NIL || {
                    let last = self.event(b.tail);
                    last.time == ev.time && last.seq < ev.seq
                },
                "bucket list holds two times or is out of seq order"
            );
            let i = self.alloc_node(ev);
            if b.head == NIL {
                self.buckets[s] = Bucket { head: i, tail: i };
                let w = s / 64;
                self.occupancy[w] |= 1u64 << (s % 64);
                self.summary[w / 64] |= 1u64 << (w % 64);
            } else {
                self.nodes[b.tail as usize].next = i;
                self.buckets[s].tail = i;
            }
            self.wheel_len += 1;
        }

        /// Mark slot `s` empty: reset its list, clear its occupancy bits.
        #[inline]
        fn mark_empty(&mut self, s: usize) {
            self.buckets[s] = EMPTY;
            let w = s / 64;
            self.occupancy[w] &= !(1u64 << (s % 64));
            if self.occupancy[w] == 0 {
                self.summary[w / 64] &= !(1u64 << (w % 64));
            }
        }

        /// Move overflow events whose time entered `[now, now + horizon)`
        /// into the wheel (invariant 2). Called whenever `now` advances.
        #[inline]
        fn drain_overflow(&mut self) {
            let limit = self.now.saturating_add(WHEEL_SLOTS as u64);
            while let Some(top) = self.overflow.peek() {
                if top.time >= limit {
                    break;
                }
                let ev = self.overflow.pop().expect("peeked");
                self.wheel_insert(ev);
            }
        }

        /// Slot holding the earliest pending event. An empty wheel first
        /// jumps `now` to the overflow minimum and drains it in.
        #[inline]
        fn front_slot(&mut self) -> Option<usize> {
            if self.wheel_len == 0 {
                self.now = self.overflow.peek()?.time;
                self.drain_overflow();
            }
            let s = self.next_occupied_slot(Self::slot_of(self.now));
            Some(s.expect("wheel non-empty after drain"))
        }

        /// Advance `now` to the fire time `t` of the events just popped.
        #[inline]
        fn advance(&mut self, t: Cycles) {
            debug_assert!(t >= self.now, "time went backwards");
            if t != self.now {
                self.now = t;
                self.drain_overflow();
            }
        }

        /// First occupied slot at or (cyclically) after `from`. The wheel
        /// window starts at `from`, so wrap order equals time order.
        ///
        /// Two-level search: the summary bitmap names the next occupancy
        /// word with any event, so a fully idle stretch of the wheel (e.g.
        /// everything blocked until a far faucet tick) is skipped in at
        /// most [`SUMMARY_WORDS`] word reads — the idle fast-forward.
        fn next_occupied_slot(&self, from: usize) -> Option<usize> {
            if self.wheel_len == 0 {
                return None;
            }
            let w0 = from / 64;
            let masked = self.occupancy[w0] & (!0u64 << (from % 64));
            if masked != 0 {
                return Some(w0 * 64 + masked.trailing_zeros() as usize);
            }
            // Words strictly after `w0` within its summary word.
            let s0 = w0 / 64;
            let tail = self.summary[s0] & (!0u64 << (w0 % 64)) & !(1u64 << (w0 % 64));
            if tail != 0 {
                let w = s0 * 64 + tail.trailing_zeros() as usize;
                return Some(w * 64 + self.occupancy[w].trailing_zeros() as usize);
            }
            // Remaining summary words in cyclic order; `s0` is revisited
            // last for the wrap-around (words at or before `w0`, whose
            // remaining slots precede `from` and therefore come last in
            // wheel-time order).
            for step in 1..=SUMMARY_WORDS {
                let s = (s0 + step) % SUMMARY_WORDS;
                let word = self.summary[s];
                if word != 0 {
                    let w = s * 64 + word.trailing_zeros() as usize;
                    return Some(w * 64 + self.occupancy[w].trailing_zeros() as usize);
                }
            }
            None
        }

    }

    impl<E> Queue<E> for CalendarQueue<E> {
        fn now(&self) -> Cycles {
            self.now
        }

        fn events_processed(&self) -> u64 {
            self.popped
        }

        fn clamped_events(&self) -> u64 {
            self.clamped
        }

        fn schedule_at(&mut self, time: Cycles, payload: E) {
            debug_assert!(
                time >= self.now,
                "event scheduled in the past: {} < {}",
                time,
                self.now
            );
            if time < self.now {
                self.clamped += 1;
            }
            let time = time.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            let ev = Scheduled { time, seq, payload };
            if time - self.now < WHEEL_SLOTS as u64 {
                self.wheel_insert(ev);
            } else {
                self.overflow.push(ev);
            }
        }

        fn pop(&mut self) -> Option<Scheduled<E>> {
            let s = self.front_slot()?;
            let i = self.buckets[s].head;
            let node = &mut self.nodes[i as usize];
            let ev = node.ev.take().expect("live node");
            let next = node.next;
            node.next = self.free;
            self.free = i;
            if next == NIL {
                self.mark_empty(s);
            } else {
                self.buckets[s].head = next;
            }
            self.wheel_len -= 1;
            self.popped += 1;
            self.advance(ev.time);
            Some(ev)
        }

        /// The frontier is exactly the earliest slot's list (invariants 1
        /// and 2), already in seq order (invariant 3): one walk unlinks it
        /// and returns its nodes to the free list. Reuses the caller's
        /// buffer; steady state allocates nothing.
        fn pop_batch(&mut self, out: &mut Vec<Scheduled<E>>) -> usize {
            let Some(s) = self.front_slot() else { return 0 };
            let mut i = self.buckets[s].head;
            self.mark_empty(s);
            let start = out.len();
            while i != NIL {
                let node = &mut self.nodes[i as usize];
                out.push(node.ev.take().expect("live node"));
                let next = node.next;
                node.next = self.free;
                self.free = i;
                i = next;
            }
            let k = out.len() - start;
            self.wheel_len -= k;
            self.popped += k as u64;
            self.advance(out[start].time);
            k
        }

        fn peek_time(&self) -> Option<Cycles> {
            // By invariant 2 a non-empty wheel holds the minimum.
            match self.next_occupied_slot(Self::slot_of(self.now)) {
                Some(s) => Some(self.event(self.buckets[s].head).time),
                None => self.overflow.peek().map(|e| e.time),
            }
        }
    }
}

use calendar::CalendarQueue;

/// The production event queue: the calendar engine. Production code names
/// the queue through this alias only.
pub type EventQueue<E> = CalendarQueue<E>;

#[cfg(test)]
mod tests {
    use super::legacy::HeapQueue;
    use super::*;

    // Most test bodies below are generic over the engine and run once per
    // engine.

    /// A popped event as `(time, seq, payload)`.
    type Popped = (u64, u64, u64);

    #[test]
    fn pops_in_time_order() {
        fn body<Q: Queue<u64> + Default>() {
            let mut q = Q::default();
            q.schedule_at(30, 2);
            q.schedule_at(10, 0);
            q.schedule_at(20, 1);
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
            assert_eq!(order, vec![0, 1, 2]);
            assert_eq!(q.now(), 30);
            assert_eq!(q.events_processed(), 3);
        }
        body::<CalendarQueue<u64>>();
        body::<HeapQueue<u64>>();
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        fn body<Q: Queue<u64> + Default>() {
            let mut q = Q::default();
            for i in 0..100 {
                q.schedule_at(5, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
            let expected: Vec<u64> = (0..100).collect();
            assert_eq!(order, expected);
        }
        body::<CalendarQueue<u64>>();
        body::<HeapQueue<u64>>();
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        fn body<Q: Queue<u64> + Default>() {
            let mut q = Q::default();
            q.schedule_at(100, 1);
            q.pop();
            q.schedule_in(5, 2);
            assert_eq!(q.peek_time(), Some(105));
        }
        body::<CalendarQueue<u64>>();
        body::<HeapQueue<u64>>();
    }

    #[test]
    fn interleaved_schedule_and_pop_never_goes_backwards() {
        fn body<Q: Queue<u64> + Default>() {
            let mut q = Q::default();
            q.schedule_at(1, 0);
            let mut last = 0;
            for i in 0..1000u64 {
                let ev = q.pop().unwrap();
                assert!(ev.time >= last);
                last = ev.time;
                if i < 500 {
                    q.schedule_in((i % 7) + 1, i);
                    q.schedule_in((i % 3) + 1, i);
                }
            }
        }
        body::<CalendarQueue<u64>>();
        body::<HeapQueue<u64>>();
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        fn body<Q: Queue<u64> + Default>() {
            let horizon = calendar::WHEEL_SLOTS as u64;
            let mut q = Q::default();
            // A mix far beyond the wheel horizon plus near events.
            q.schedule_at(3 * horizon + 17, 100);
            q.schedule_at(5, 0);
            q.schedule_at(horizon + 2, 50);
            q.schedule_at(10 * horizon, 200);
            q.schedule_at(horizon - 1, 25);
            let times: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.time, e.payload)))
                .collect();
            assert_eq!(
                times,
                vec![
                    (5, 0),
                    (horizon - 1, 25),
                    (horizon + 2, 50),
                    (3 * horizon + 17, 100),
                    (10 * horizon, 200),
                ]
            );
        }
        body::<CalendarQueue<u64>>();
        body::<HeapQueue<u64>>();
    }

    /// Schedules five events for one cycle `t`, returned: three while `t`
    /// is beyond the wheel horizon (overflow, over two rounds), then two
    /// direct wheel inserts once `step` has popped the stepping stones —
    /// the first reached by jumping to the overflow minimum, the second
    /// from the wheel — and brought `t` into the horizon. Neighbours at
    /// `t - 1` and `t + 1` come one from each tier.
    fn schedule_split_frontier<Q: Queue<u64>>(q: &mut Q, step: impl Fn(&mut Q)) -> u64 {
        let horizon = calendar::WHEEL_SLOTS as u64;
        let t = 2 * horizon + 3;
        q.schedule_at(t, 1); // overflow, seq 0
        q.schedule_at(t + 1, 90); // overflow, seq 1
        q.schedule_at(horizon, 0); // stepping stone (overflow), seq 2
        q.schedule_at(t, 2); // overflow, seq 3
        step(q); // now = horizon: t is still far
        q.schedule_at(t, 3); // overflow, seq 4
        q.schedule_at(horizon + 10, 0); // stepping stone (wheel), seq 5
        step(q); // now = horizon + 10: t is near
        q.schedule_at(t, 4); // wheel, seq 6
        q.schedule_at(t - 1, 80); // wheel, seq 7
        q.schedule_at(t, 5); // wheel, seq 8
        t
    }

    #[test]
    fn same_time_split_across_wheel_and_overflow_preserves_seq() {
        // The events that reach cycle t via the overflow heap have the
        // lower seqs and must pop before the ones inserted directly.
        fn body<Q: Queue<u64> + Default>() -> (u64, Vec<Popped>) {
            let mut q = Q::default();
            let t = schedule_split_frontier(&mut q, |q| {
                q.pop();
            });
            let rest: Vec<_> =
                std::iter::from_fn(|| q.pop().map(|e| (e.time, e.seq, e.payload))).collect();
            (t, rest)
        }
        let cal = body::<CalendarQueue<u64>>();
        assert_eq!(cal, body::<HeapQueue<u64>>());
        let (t, rest) = cal;
        let order: Vec<_> = rest.iter().map(|&(time, _, p)| (time, p)).collect();
        assert_eq!(
            order,
            vec![
                (t - 1, 80),
                (t, 1),
                (t, 2),
                (t, 3),
                (t, 4),
                (t, 5),
                (t + 1, 90)
            ]
        );
    }

    #[test]
    fn peek_time_sees_overflow_minimum() {
        let horizon = calendar::WHEEL_SLOTS as u64;
        let mut q = CalendarQueue::new();
        q.schedule_at(4 * horizon, 1u8);
        assert_eq!(q.peek_time(), Some(4 * horizon));
        q.schedule_at(9, 2);
        assert_eq!(q.peek_time(), Some(9));
    }

    #[test]
    fn len_counts_both_tiers() {
        let horizon = calendar::WHEEL_SLOTS as u64;
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1, 0u8);
        q.schedule_at(2 * horizon, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn past_scheduling_panics_in_debug() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(100, ());
        q.pop();
        q.schedule_at(50, ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_clamps_and_counts_in_release() {
        fn body<Q: Queue<u64> + Default>() {
            let mut q = Q::default();
            q.schedule_at(100, 0);
            q.pop();
            q.schedule_at(50, 1);
            assert_eq!(q.clamped_events(), 1);
            let ev = q.pop().unwrap();
            assert_eq!((ev.time, ev.payload), (100, 1));
        }
        body::<CalendarQueue<u64>>();
        body::<HeapQueue<u64>>();
    }

    #[test]
    fn pop_batch_takes_whole_frontier_in_seq_order() {
        fn body<Q: Queue<u64> + Default>() {
            let mut q = Q::default();
            q.schedule_at(10, 0);
            q.schedule_at(20, 10);
            q.schedule_at(10, 1);
            q.schedule_at(10, 2);
            let mut out = Vec::new();
            assert_eq!(q.pop_batch(&mut out), 3);
            assert_eq!(
                out.iter().map(|e| (e.time, e.payload)).collect::<Vec<_>>(),
                vec![(10, 0), (10, 1), (10, 2)]
            );
            assert_eq!(q.now(), 10);
            assert_eq!(q.events_processed(), 3);
            out.clear();
            assert_eq!(q.pop_batch(&mut out), 1);
            assert_eq!(out[0].payload, 10);
            out.clear();
            assert_eq!(q.pop_batch(&mut out), 0, "empty queue pops nothing");
        }
        body::<CalendarQueue<u64>>();
        body::<HeapQueue<u64>>();
    }

    #[test]
    fn pop_batch_matches_repeated_pop_exactly() {
        // Differential: one queue drained with pop_batch, its twin with
        // pop, over a randomized schedule with heavy same-cycle ties and
        // overflow spills — on both engines.
        fn body<Q: Queue<u64> + Default>() {
            let mut batched = Q::default();
            let mut single = Q::default();
            let mut x = 0x243f6a8885a308d3u64;
            for i in 0..20_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let delta = match x % 4 {
                    0 => 0,
                    1 => x % 8,
                    2 => x % 900,
                    _ => 15_000 + x % 60_000,
                };
                batched.schedule_in(delta, i);
                single.schedule_in(delta, i);
            }
            let mut out = Vec::new();
            loop {
                out.clear();
                let k = batched.pop_batch(&mut out);
                if k == 0 {
                    assert!(single.pop().is_none());
                    break;
                }
                for ev in &out {
                    let s = single.pop().expect("single drained early");
                    assert_eq!((s.time, s.seq, s.payload), (ev.time, ev.seq, ev.payload));
                }
                assert_eq!(batched.now(), single.now());
            }
            assert_eq!(batched.events_processed(), single.events_processed());
        }
        body::<CalendarQueue<u64>>();
        body::<HeapQueue<u64>>();
    }

    #[test]
    fn pop_batch_sorts_overflow_migrants_into_seq_order() {
        // The same split frontier, stepped and drained with pop_batch: the
        // batch at t holds all five events, overflow migrants first.
        fn body<Q: Queue<u64> + Default>() -> (u64, Vec<Vec<Popped>>) {
            let mut q = Q::default();
            let t = schedule_split_frontier(&mut q, |q| {
                q.pop_batch(&mut Vec::new());
            });
            let mut batches = Vec::new();
            let mut out = Vec::new();
            while q.pop_batch(&mut out) > 0 {
                batches.push(
                    out.drain(..)
                        .map(|e| (e.time, e.seq, e.payload))
                        .collect::<Vec<_>>(),
                );
            }
            (t, batches)
        }
        let cal = body::<CalendarQueue<u64>>();
        assert_eq!(cal, body::<HeapQueue<u64>>());
        let (t, batches) = cal;
        assert_eq!(batches.len(), 3);
        assert_eq!(
            batches[1],
            vec![(t, 0, 1), (t, 3, 2), (t, 4, 3), (t, 6, 4), (t, 8, 5)]
        );
    }

    /// The property the calendar's node slab rests on: queue memory tracks
    /// the pending events. A hold-model stream of a million events at a
    /// steady depth of a few hundred — pop a frontier, schedule one or two
    /// successors per popped event at simulator-like deltas (bus and cache
    /// latencies, DRAM service, now and then past the wheel horizon) —
    /// never grows the slab past the peak number of pending events.
    #[test]
    fn calendar_slab_never_outgrows_peak_pending() {
        const DEPTH: usize = 300;
        let mut q = CalendarQueue::new();
        let mut x = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..DEPTH as u64 {
            q.schedule_in(40 + next() % 1_561, i);
        }
        let mut peak = q.len();
        let mut out = Vec::new();
        let mut popped = 0;
        while popped < 1_000_000 {
            out.clear();
            popped += q.pop_batch(&mut out);
            for ev in &out {
                let successors = if q.len() < DEPTH { 2 } else { 1 };
                for _ in 0..successors {
                    let r = next();
                    let delta = match r % 64 {
                        0..=35 => 2 + r % 5,
                        36..=62 => 40 + r % 1_561,
                        _ => 16_385 + r % 20_000,
                    };
                    q.schedule_in(delta, ev.payload);
                    peak = peak.max(q.len());
                }
            }
            assert!(
                q.slab_nodes() <= peak,
                "slab holds {} nodes, peak pending {peak}",
                q.slab_nodes()
            );
        }
        assert!(peak < 2 * DEPTH, "depth not steady: peak {peak}");
    }

    /// Differential check on a deliberately nasty interleaving: bursts of
    /// same-cycle ties, far-future spills, and jumps across empty regions.
    #[test]
    fn engines_agree_on_mixed_horizons() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        fn step(q: &mut impl Queue<u64>, x: u64, i: u64) {
            let delta = match x % 5 {
                0 => x % 64,                  // hot path: near events
                1 => x % 800,                 // DRAM-latency scale
                2 => 0,                       // same-cycle tie
                3 => 9_000 + x % 2_000,       // batching horizon
                _ => 20_000 + x % 300_000,    // far: overflow territory
            };
            q.schedule_in(delta, i);
        }
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            step(&mut cal, x, i);
            step(&mut heap, x, i);
            if x.is_multiple_of(3) {
                let a = cal.pop().map(|e| (e.time, e.seq, e.payload));
                let b = heap.pop().map(|e| (e.time, e.seq, e.payload));
                assert_eq!(a, b);
            }
        }
        loop {
            let a = cal.pop().map(|e| (e.time, e.seq, e.payload));
            let b = heap.pop().map(|e| (e.time, e.seq, e.payload));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.events_processed(), heap.events_processed());
    }

    /// The idle-fast-forward acceptance differential: one million events
    /// through both engines, with schedule patterns chosen to stress the
    /// summary bitmap — dense bursts, long idle gaps that leave the wheel
    /// almost empty (the fast-forward path), gaps that land exactly on
    /// occupancy-word and summary-word boundaries, and overflow spills.
    #[test]
    fn engines_agree_over_a_million_events() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut x = 0x243f6a8885a308d3u64;
        let mut scheduled = 0u64;
        let mut idle_restarts = 0u64;
        const TOTAL: u64 = 1_000_000;
        loop {
            if cal.is_empty() {
                if scheduled >= TOTAL {
                    break;
                }
                // The whole system went idle: restart with a single event a
                // long, word-aligned-ish gap away. The calendar engine must
                // jump over the empty stretch, not rotate through it.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let delta = 6_000 + (x % 3) * 4_096 + (x % 130);
                cal.schedule_in(delta, scheduled);
                heap.schedule_in(delta, scheduled);
                scheduled += 1;
                idle_restarts += 1;
            }
            let a = cal.pop().map(|e| (e.time, e.seq, e.payload));
            let b = heap.pop().map(|e| (e.time, e.seq, e.payload));
            assert_eq!(a, b);
            // Refill with a mix of horizons. The burst size averages one
            // child per event (a critical branching process), so the queue
            // repeatedly drains to empty and re-enters through the idle
            // restart above — exercising the fast-forward path constantly.
            let burst = if scheduled < TOTAL { x % 3 } else { 0 };
            for _ in 0..burst {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let delta = match x % 8 {
                    0 => x % 4,                    // same-word churn
                    1 => 64,                       // exactly one word ahead
                    2 => 63 + (x % 3),             // word-boundary straddle
                    3 => 4096,                     // summary-word boundary
                    4 => x % 700,                  // DRAM-latency scale
                    5 => 8_191 + (x % 16),         // near the wheel horizon
                    6 => 13_000 + (x % 1_300),     // deep idle gap in-wheel
                    _ => 16_500 + (x % 90_000),    // overflow territory
                };
                cal.schedule_in(delta, scheduled);
                heap.schedule_in(delta, scheduled);
                scheduled += 1;
            }
        }
        assert!(scheduled >= TOTAL);
        assert_eq!(cal.events_processed(), scheduled);
        assert_eq!(heap.events_processed(), scheduled);
        assert!(idle_restarts > 0, "the idle fast-forward path was never exercised");
        assert!(cal.is_empty() && heap.peek_time().is_none());
    }
}
