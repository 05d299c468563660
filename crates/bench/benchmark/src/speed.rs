//! Host-speed normalisation.
//!
//! The VMs this benchmark runs on share their cores with other
//! tenants, and their speed drifts by 10–20% over tens of seconds: more
//! than any bound worth gating on. So every timed unit of work (a job, a
//! pass, a warm re-request) is bracketed by runs of a frozen reference
//! kernel, and its time is scaled by `REF_NOMINAL_S ÷ mean(reference
//! before, reference after)`: seconds on a host running the kernel at its
//! nominal speed. The kernel is code of this benchmark only, so no change
//! to the repository moves it, while a slower host slows both alike.
//! Raw seconds are recorded beside every normalised value.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// A typical [`reference_s`] on the shared 2-vCPU Intel Xeon VM the
/// benchmark was defined on; normalised seconds are seconds there.
pub const REF_NOMINAL_S: f64 = 0.009;

/// A frozen miniature event-driven cache simulation: a binary-heap event
/// queue over 1024 requesters, an 8-way set-associative tag array of
/// 1 MiB with LRU rotation, and a hash-map side table for misses — the
/// same kinds of host work as the simulator.
fn kernel(events: usize) -> u64 {
    const SETS: usize = 1 << 14;
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> =
        (0..1024u32).map(|u| Reverse((u as u64, u))).collect();
    let mut sets = vec![[0u64; 8]; SETS];
    // A fixed-key hasher keeps every run of the kernel identical.
    let mut misses: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(4096, Default::default());
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut hits = 0u64;
    for _ in 0..events {
        let Reverse((t, u)) = queue.pop().expect("the queue never drains");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = x >> 6;
        let set = &mut sets[addr as usize & (SETS - 1)];
        let tag = addr >> 14;
        let latency = match set.iter().position(|&s| s == tag) {
            Some(way) => {
                hits += 1;
                set[..=way].rotate_right(1);
                4
            }
            None => {
                set.rotate_right(1);
                set[0] = tag;
                *misses.entry(addr & 4095).or_insert(0) += 1;
                40 + (x & 31)
            }
        };
        queue.push(Reverse((t + latency, u)));
    }
    hits + misses.len() as u64
}

/// Seconds of the fastest of three short runs of the reference kernel:
/// the minimum drops the millisecond bursts of co-tenant work a single run
/// can catch, and keeps the host's speed of the moment.
pub fn reference_s() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(black_box(130_000)));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Raw and normalised seconds of some work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub raw: f64,
    pub norm: f64,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, o: Timed) {
        self.raw += o.raw;
        self.norm += o.norm;
    }
}

/// Times consecutive units of work, sharing each reference sample between
/// the unit before it and the unit after it.
pub struct Clock {
    before: f64,
    /// Every reference sample taken, in seconds.
    pub samples: Vec<f64>,
    /// Raw seconds of every timed unit, in order (between samples).
    pub units: Vec<f64>,
}

impl Clock {
    pub fn start() -> Clock {
        let before = reference_s();
        Clock {
            before,
            samples: vec![before],
            units: Vec::new(),
        }
    }

    /// Run `f` as one timed unit.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        let after = reference_s();
        self.samples.push(after);
        self.units.push(raw);
        let norm = raw * REF_NOMINAL_S / ((self.before + after) / 2.0);
        self.before = after;
        (out, Timed { raw, norm })
    }
}
