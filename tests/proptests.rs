//! Randomised property tests over the core data structures, exercised
//! through the public crate APIs.
//!
//! The case generator is the simulator's own [`SeededRng`] rather than an
//! external property-testing crate, so the suite builds with no registry
//! access; every case is deterministic and a failure message names the
//! case seed.

use hydrogen_repro::hybrid::types::{HybridConfig, ReqClass};
use hydrogen_repro::hybrid::RemapTable;
use hydrogen_repro::hydrogen::partition::PartitionMap;
use hydrogen_repro::hydrogen::TokenBucket;
use hydrogen_repro::sim::{CalendarQueue, HeapQueue, Queue, SeededRng};

const CASES: u64 = 64;

/// Run `f` against `CASES` independent deterministic RNG streams.
fn cases(label: &str, f: impl Fn(u64, &mut SeededRng)) {
    for case in 0..CASES {
        let mut rng = SeededRng::derive(case, label);
        f(case, &mut rng);
    }
}

/// The partition masks always split the ways exactly between classes, for
/// every legal (n, bw, cap) and any set.
#[test]
fn partition_masks_are_exact_partitions() {
    cases("prop.partition", |case, rng| {
        let n = 1 + rng.below(16) as usize;
        let bw = (rng.unit() * n as f64) as usize;
        let cap = bw + (rng.unit() * (n - bw) as f64) as usize;
        let set = rng.below(100_000);
        let m = PartitionMap::new(n, bw.min(n), cap.min(n));
        let cpu = m.cpu_mask(set);
        let gpu = m.gpu_mask(set);
        assert_eq!(cpu & gpu, 0, "case {case}: overlapping masks");
        assert_eq!((cpu | gpu) as u32, (1u32 << n) - 1, "case {case}: not a partition");
        assert_eq!(cpu.count_ones() as usize, cap.min(n), "case {case}: wrong CPU share");
    });
}

/// way_channel and channel_way are inverse bijections per set.
#[test]
fn way_channel_bijective() {
    cases("prop.bijective", |case, rng| {
        let bw = rng.below(5) as usize;
        let set = rng.below(10_000);
        let m = PartitionMap::new(4, bw, 4);
        let mut seen = [false; 4];
        for w in 0..4 {
            let c = m.way_channel(set, w);
            assert!(c < 4, "case {case}");
            assert!(!seen[c], "case {case}: channel used twice");
            seen[c] = true;
            assert_eq!(m.channel_way(set, c), w, "case {case}: not inverse");
        }
    });
}

/// A single-step cap change relocates exactly one way per set.
#[test]
fn consistent_hashing_minimal_remap() {
    cases("prop.minremap", |case, rng| {
        let set = rng.below(50_000);
        let cap = 1 + rng.below(3) as usize;
        let a = PartitionMap::new(4, 1, cap);
        let b = PartitionMap::new(4, 1, cap + 1);
        assert_eq!(a.changed_ways(&b, set).count_ones(), 1, "case {case}");
    });
}

/// The token bucket never goes negative and never grants more than its
/// cap, for arbitrary spend/refill interleavings.
#[test]
fn token_bucket_bounded() {
    cases("prop.tokens", |case, rng| {
        let mut b = TokenBucket::new(50, 3);
        let ops = 1 + rng.below(200);
        for _ in 0..ops {
            match rng.below(3) {
                0 => {
                    let _ = b.try_spend(1);
                }
                1 => {
                    let _ = b.try_spend(2);
                }
                _ => b.refill(),
            }
            assert!(
                b.available() <= 2 * b.grant().max(1) + 100,
                "case {case}: bucket overfilled"
            );
        }
    });
}

/// The remap table never stores duplicate tags in a set and never reports
/// dirty on invalid ways, under random fill/touch/invalidate.
#[test]
fn remap_table_invariants() {
    cases("prop.remap", |case, rng| {
        let cfg = HybridConfig {
            fast_capacity: 64 * 1024,
            ..HybridConfig::default()
        };
        let mut t = RemapTable::new(&cfg);
        let ops = 1 + rng.below(300);
        for _ in 0..ops {
            let set = rng.below(64);
            let tag = rng.below(32);
            match rng.below(4) {
                0 | 1 => {
                    let dirty = rng.chance(0.5);
                    if t.lookup(set, tag).is_none() {
                        if let Some(w) = t.pick_victim(set, 0b1111) {
                            t.fill(set, w, tag, ReqClass::Cpu, dirty);
                        }
                    }
                }
                2 => {
                    if let Some(w) = t.lookup(set, tag) {
                        t.touch(set, w, true);
                    }
                }
                _ => {
                    if let Some(w) = t.lookup(set, tag) {
                        t.invalidate(set, w);
                    }
                }
            }
            assert!(t.check_no_duplicate_tags(), "case {case}: duplicate tags");
            for w in t.set_view(set) {
                assert!(w.valid || !w.dirty, "case {case}: dirty invalid way");
            }
        }
    });
}

/// Random way-allocation transitions move only the ways `changed_ways`
/// reports: the mask is *sound* (every flagged way really changed channel
/// or class) and *complete* (every unflagged way kept both). This is the
/// consistent-hashing contract lazy reconfiguration relies on — blocks
/// outside the mask never need relocating.
#[test]
fn partition_transitions_move_only_changed_ways() {
    cases("prop.transitions", |case, rng| {
        let n = 1 + rng.below(16) as usize;
        let pick = |rng: &mut SeededRng| {
            let bw = rng.below(n as u64 + 1) as usize;
            let cap = bw + rng.below((n - bw) as u64 + 1) as usize;
            PartitionMap::new(n, bw, cap)
        };
        let a = pick(rng);
        let b = pick(rng);
        for _ in 0..8 {
            let set = rng.below(100_000);
            let changed = a.changed_ways(&b, set);
            let (a_cpu, b_cpu) = (a.cpu_mask(set), b.cpu_mask(set));
            for w in 0..n {
                let class_same = (a_cpu ^ b_cpu) & (1 << w) == 0;
                let chan_same = a.way_channel(set, w) == b.way_channel(set, w);
                if changed & (1 << w) != 0 {
                    assert!(
                        !(class_same && chan_same),
                        "case {case}: way {w} flagged but unchanged"
                    );
                } else {
                    assert!(class_same && chan_same, "case {case}: way {w} moved silently");
                }
            }
            // Symmetry: the relocation work is the same in both directions.
            assert_eq!(changed, b.changed_ways(&a, set), "case {case}: asymmetric");
            // Same bandwidth split => channels never move, so the mask is
            // exactly the capacity flips.
            if a.bw() == b.bw() {
                assert_eq!(changed, a_cpu ^ b_cpu, "case {case}: phantom channel change");
            }
        }
    });
}

/// Trace generators stay inside their window for every preset.
#[test]
fn traces_stay_in_window() {
    let all: Vec<_> = hydrogen_repro::trace::workloads::cpu_workloads()
        .into_iter()
        .chain(hydrogen_repro::trace::workloads::gpu_workloads())
        .collect();
    cases("prop.traces", |case, rng| {
        let seed = rng.below(1000);
        let spec = &all[rng.below(all.len() as u64) as usize];
        let base = 1u64 << 32;
        let mut g = spec.instantiate(seed, 0, base, 16);
        for _ in 0..500 {
            let r = g.next_ref();
            assert!(r.addr >= base, "case {case} ({}): below window", spec.name);
            assert!(
                r.addr < base + g.footprint(),
                "case {case} ({}): past window",
                spec.name
            );
            assert_eq!(r.addr % 64, 0, "case {case}: unaligned");
        }
    });
}

/// After arbitrary `(bw, cap, tok)` reconfigurations, the controller never
/// leaves a just-accessed block resident in a way the current allocation
/// forbids: a hit on a misplaced block must lazily fix it up (relocate or
/// evict), so remap lookups never serve a stale tier assignment. The remap
/// table also never accumulates duplicate tags across reconfigurations.
#[test]
fn remap_never_serves_stale_ways_after_reconfig() {
    use hydrogen_repro::hybrid::hmc::{HmcEvent, HmcOutput};
    use hydrogen_repro::hybrid::{Hmc, PartitionPolicy, PolicyParams, WayMeta};
    use hydrogen_repro::hydrogen::{HydrogenConfig, HydrogenPolicy};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Adapter that lets the test hold a handle to the policy the HMC owns,
    /// so it can force reconfigurations mid-stream through the public API.
    struct SharedHydrogen(Rc<RefCell<HydrogenPolicy>>);
    impl PartitionPolicy for SharedHydrogen {
        fn name(&self) -> &str {
            "Hydrogen(shared)"
        }
        fn alloc_mask(&self, set: u64, class: ReqClass) -> u16 {
            self.0.borrow().alloc_mask(set, class)
        }
        fn way_channel(&self, set: u64, way: usize) -> usize {
            self.0.borrow().way_channel(set, way)
        }
        fn migration_allowed(
            &mut self,
            class: ReqClass,
            cost: u32,
            is_write: bool,
            slow_channel: usize,
            rng: &mut SeededRng,
        ) -> bool {
            self.0
                .borrow_mut()
                .migration_allowed(class, cost, is_write, slow_channel, rng)
        }
        fn swap_target(
            &self,
            set: u64,
            way: usize,
            class: ReqClass,
            ways: &[WayMeta],
            rng: &mut SeededRng,
        ) -> Option<usize> {
            self.0.borrow().swap_target(set, way, class, ways, rng)
        }
        fn on_faucet(&mut self) {
            self.0.borrow_mut().on_faucet()
        }
        fn params(&self) -> PolicyParams {
            self.0.borrow().params()
        }
    }

    cases("prop.stale", |case, rng| {
        let cfg = HybridConfig {
            fast_capacity: 64 * 1024, // 64 sets x 4 ways x 256 B
            ..HybridConfig::default()
        };
        let handle = Rc::new(RefCell::new(HydrogenPolicy::new(HydrogenConfig::dp_only(
            4, 4,
        ))));
        let block_bytes = cfg.block_bytes;
        let mut hmc = Hmc::new(cfg, Box::new(SharedHydrogen(handle.clone())), case);

        let ops = 100 + rng.below(200);
        for i in 0..ops {
            if rng.chance(0.15) {
                // Random legal (bw, cap, tok) — exactly what the hill
                // climber's `apply` would do, at adversarial cadence.
                let bw = rng.below(5) as usize;
                let cap = bw + rng.below((4 - bw) as u64 + 1) as usize;
                handle.borrow_mut().force_config(bw, cap, rng.below(8) as usize);
            }
            let class = if rng.chance(0.5) { ReqClass::Cpu } else { ReqClass::Gpu };
            let block = rng.below(512);
            let mut queue = Vec::new();
            hmc.access(i, class, block * block_bytes, rng.chance(0.3), true, None, &mut queue);
            while let Some(o) = queue.pop() {
                let mut nxt = Vec::new();
                match o {
                    HmcOutput::Mem { cmd, .. } => hmc.handle(HmcEvent::MemDone(cmd.token), &mut nxt),
                    HmcOutput::After { token, .. } => {
                        hmc.handle(HmcEvent::SramDone(token), &mut nxt)
                    }
                    HmcOutput::DemandReady { .. } => {}
                }
                queue.extend(nxt);
            }

            // The block we just touched must now sit in an allowed way (or
            // have been evicted by the lazy fixup) — never a stale one.
            let set = block % hmc.config().num_sets();
            if let Some(way) = hmc.table().lookup(set, block) {
                let owner = hmc.table().set_view(set)[way].owner;
                let mask = hmc.policy().alloc_mask(set, owner);
                assert!(
                    mask & (1 << way) != 0,
                    "case {case} op {i}: block {block} ({owner:?}) left in \
                     forbidden way {way} of set {set} (mask {mask:#06b})"
                );
            }
            assert!(hmc.table().check_no_duplicate_tags(), "case {case} op {i}");
        }
    });
}

/// Seeded RNG streams with equal labels agree; zipf/below stay in range.
#[test]
fn rng_stream_properties() {
    cases("prop.rng", |case, rng| {
        let seed = rng.below(10_000);
        let n = 1 + rng.below(10_000);
        let mut a = SeededRng::derive(seed, "x");
        let mut b = SeededRng::derive(seed, "x");
        assert_eq!(a.next_u64(), b.next_u64(), "case {case}: streams diverge");
        assert!(a.zipf(n, 0.9) < n, "case {case}: zipf out of range");
        assert!(a.below(n) < n, "case {case}: below out of range");
    });
}

/// For arbitrary schedule/pop interleavings, both event-queue engines emit
/// the same `(time, seq, payload)` stream, time never runs backwards, and
/// same-time events pop in schedule (FIFO) order.
#[test]
fn event_queue_interleavings_agree() {
    cases("prop.queue", |case, rng| {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut payload = 0u64;
        let mut last: Option<(u64, u64)> = None;
        let steps = 50 + rng.below(400);
        for _ in 0..steps {
            if rng.chance(0.6) {
                // Schedule: mostly near-horizon, sometimes far (overflow),
                // sometimes an exact tie with `now`.
                let now = cal.now();
                let delta = match rng.below(10) {
                    0 => 0,
                    1..=2 => rng.below(1 << 20), // far: overflow path
                    _ => rng.below(5000),        // near: wheel path
                };
                cal.schedule_at(now + delta, payload);
                heap.schedule_at(now + delta, payload);
                payload += 1;
            } else {
                let a = cal.pop();
                let b = heap.pop();
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(
                            (x.time, x.seq, x.payload),
                            (y.time, y.seq, y.payload),
                            "case {case}: engines diverge"
                        );
                        if let Some((t, s)) = last {
                            assert!(x.time >= t, "case {case}: time ran backwards");
                            if x.time == t {
                                assert!(x.seq > s, "case {case}: FIFO tie order broken");
                            }
                        }
                        last = Some((x.time, x.seq));
                    }
                    _ => panic!("case {case}: one engine empty, the other not"),
                }
            }
        }
        // Drain what's left; the streams must stay identical to the end.
        loop {
            match (cal.pop(), heap.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.time, x.seq, x.payload),
                        (y.time, y.seq, y.payload),
                        "case {case}: engines diverge in drain"
                    );
                }
                _ => panic!("case {case}: drain length mismatch"),
            }
        }
    });
}
