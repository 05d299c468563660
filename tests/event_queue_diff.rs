//! Differential test of the two event-queue engines: the calendar queue
//! (production) against the legacy binary heap (oracle). One million mixed-
//! horizon events are pushed through both with an identical workload; the
//! popped `(time, seq, payload)` streams must be bit-identical, proving the
//! calendar engine preserves the exact `(time, seq)` total order.

use hydrogen_repro::sim::{CalendarQueue, HeapQueue, Queue, SeededRng};

const TOTAL_EVENTS: u64 = 1_000_000;

/// A delta distribution resembling the real simulator: dense near-future
/// wake-ups, occasional same-cycle ties, and sparse far-future timers
/// (epoch boundaries, faucets, warm-up ends) that exercise the overflow
/// heap and its migration back into the wheel.
fn next_delta(rng: &mut SeededRng) -> u64 {
    match rng.below(100) {
        0..=4 => 0,                              // same-cycle tie
        5..=69 => rng.below(200),                // core/cache latencies
        70..=89 => rng.below(8_000),             // DRAM latencies
        90..=96 => 16_384 + rng.below(100_000),  // just past the wheel
        _ => 1_000_000 + rng.below(4_000_000),   // epoch/warm-up scale
    }
}

#[test]
fn one_million_mixed_horizon_events_are_bit_identical() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    let mut rng = SeededRng::derive(2024, "diff.schedule");
    let mut pop_rng = SeededRng::derive(2024, "diff.pop");

    let mut scheduled = 0u64;
    let mut popped = 0u64;
    // Interleave bursts of schedules with bursts of pops so the queues
    // breathe (depth rises and falls) instead of one monotone fill+drain.
    while scheduled < TOTAL_EVENTS || popped < scheduled {
        if scheduled < TOTAL_EVENTS {
            let burst = 1 + rng.below(64);
            for _ in 0..burst.min(TOTAL_EVENTS - scheduled) {
                let t = cal.now() + next_delta(&mut rng);
                cal.schedule_at(t, scheduled);
                heap.schedule_at(t, scheduled);
                scheduled += 1;
            }
        }
        let burst = 1 + pop_rng.below(48);
        for _ in 0..burst {
            let a = cal.pop();
            let b = heap.pop();
            match (a, b) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(
                        (x.time, x.seq, x.payload),
                        (y.time, y.seq, y.payload),
                        "engines diverged after {popped} pops"
                    );
                    popped += 1;
                }
                (a, b) => panic!("emptiness mismatch after {popped} pops: {a:?} vs {b:?}"),
            }
        }
    }

    assert_eq!(popped, TOTAL_EVENTS);
    assert_eq!(cal.events_processed(), heap.events_processed());
    assert_eq!(cal.clamped_events(), 0);
    assert_eq!(heap.clamped_events(), 0);
    assert!(cal.pop().is_none());
    assert!(heap.pop().is_none());
}
