//! The event loop's steady-state allocation budget.
//!
//! Once warm, the per-event simulation path (transaction slabs,
//! pending-command rings, trace scratch buffers) allocates nothing. A
//! counting global allocator counts the allocations and reallocations made
//! on the calling thread, and two runs that differ only in their measure
//! window cancel the constructor and warm-up allocations, leaving the
//! per-event rate.
//!
//! The budget is not exactly zero because the difference cannot cancel
//! work that grows with the window. Every run records telemetry: each
//! epoch boundary collects the registry again, which builds names in one
//! buffer per scope rather than one string per metric, and cuts a frame,
//! and the timeline appends one frame per epoch. The tracer keeps one span
//! per sampled request. The traced run reads 0.0041/event and the untraced
//! one 0.0005; a collection that allocated one string per metric name read
//! 0.0071/event traced in a scratch build, and the budget fails it.

use hydrogen_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per simulated event above which a run fails.
const BUDGET: f64 = 0.006;

struct CountAllocs;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its caller's arguments on to `System`
// unchanged, so `System`'s guarantees are this allocator's; `count` only
// touches a `const`-initialised thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountAllocs {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountAllocs = CountAllocs;

/// The tiny system on mix C1 under full Hydrogen, which records
/// telemetry; `traced` turns on request tracing at the default 1/64
/// sample.
fn cfg(measure_cycles: u64, traced: bool) -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.warmup_cycles = 50_000;
    cfg.measure_cycles = measure_cycles;
    cfg.trace_sample = traced.then_some(64);
    cfg
}

/// Fails unless the allocations per event between a 100k- and a
/// 300k-cycle measure window stay within [`BUDGET`].
fn assert_within_budget(traced: bool) {
    let mix = Mix::by_name("C1").unwrap();
    // A run's report, and the allocations it made on this thread.
    let run = |cycles| {
        let before = ALLOCS.with(Cell::get);
        let report = run_sim(&cfg(cycles, traced), &mix, PolicyKind::HydrogenFull);
        (report, ALLOCS.with(Cell::get) - before)
    };
    let (short, short_allocs) = run(100_000);
    let (long, long_allocs) = run(300_000);
    assert!(long.events_processed > short.events_processed);
    let events = long.events_processed - short.events_processed;
    let per_event = long_allocs.saturating_sub(short_allocs) as f64 / events as f64;
    eprintln!(
        "traced={traced}: {long_allocs} - {short_allocs} allocations over {} - {} events = {per_event:.5}/event",
        long.events_processed, short.events_processed
    );
    assert!(
        per_event <= BUDGET,
        "the event loop allocates {per_event:.4}/event (budget {BUDGET})"
    );
}

#[test]
fn traced_run_stays_within_the_allocation_budget() {
    assert_within_budget(true);
}

#[test]
fn unobserved_run_stays_within_the_allocation_budget() {
    assert_within_budget(false);
}
