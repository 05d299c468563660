//! Host-side hierarchical self-profiler: where does *wall-clock* time go?
//!
//! The telemetry ([`crate::metrics`]) and tracing ([`crate::trace_span`])
//! layers attribute *simulated* time. This module attributes *host* time —
//! the thing you need when asking "which layer of the event loop is slow?"
//! — without perturbing simulation results in any way: probes
//! only read the monotonic clock and a process-global allocation counter,
//! never simulator state.
//!
//! Design:
//!
//! - **Zero-cost when disarmed.** Every probe starts with one relaxed
//!   atomic load and a branch; nothing else happens until [`arm`] is
//!   called. The repository benchmark times every production path with
//!   the probes compiled in and disarmed, so their cost is part of what
//!   it measures.
//! - **Thread-local scope stacks.** [`scope`] returns an RAII guard that
//!   pushes a frame onto the calling thread's stack and pops it on drop,
//!   accumulating inclusive nanoseconds, entry counts, and allocation
//!   deltas into a per-thread tree keyed by name path. No locks
//!   on the hot path.
//! - **Graveyard merge.** When a thread exits (or calls [`flush_thread`])
//!   its tree is folded into a global merged tree under a mutex.
//!   [`take_report`] flushes the calling thread, drains the graveyard,
//!   and returns a [`ProfReport`] with exclusive times computed by
//!   tiling: `excl = incl - Σ children incl` (clamped at zero).
//! - **Allocation attribution.** A program with a counting global
//!   allocator (the repository benchmark) registers it via
//!   [`set_alloc_probe`]; each frame records the delta. The counter is
//!   process-wide, so under concurrency the attribution is approximate
//!   (documented, not hidden). Without a probe the columns read 0.
//!
//! Reports render three ways: a text tree with exclusive-time
//! percentages ([`ProfReport::render_text`]), a canonical-JSON document
//! ([`ProfReport::to_json`], stable key order via [`crate::json::Json`]),
//! and folded stacks ([`ProfReport::to_folded`]) consumable by standard
//! flamegraph tooling (`flamegraph.pl`, speedscope, inferno).
//!
//! Recursive scopes (the same name re-entered while already on the
//! stack) accumulate into distinct tree nodes per path, so inclusive
//! times never double-count an ancestor.

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Global arm switch. Relaxed is enough: probes only need to observe the
/// flag eventually, and arming happens strictly before the measured
/// region in every caller.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide allocation probe (set once by a program that counts its
/// allocations; unset, the profiler works with empty alloc columns).
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Timestamp source. On x86_64 probes read the raw TSC (~10 ns versus
/// ~25-40 ns for `clock_gettime`, and — just as important for attribution
/// — a narrower window of the probe's own cost leaking into the *parent*
/// scope's exclusive bucket). Tick counts are converted to nanoseconds
/// only once, when a report is built, using a ratio calibrated against
/// the monotonic clock over the whole profiled interval. Elsewhere the
/// raw unit simply *is* nanoseconds from a monotonic epoch.
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Shared epoch: a monotonic instant paired with the TSC value read
    /// at the same moment, so ticks are comparable across threads (the
    /// TSC is invariant and socket-synchronised on every x86_64 part of
    /// the last decade; on exotic hardware where it drifts, attribution
    /// degrades gracefully — ratios skew, nothing breaks).
    struct Anchor {
        t0: Instant,
        #[cfg(target_arch = "x86_64")]
        tsc0: u64,
    }

    static ANCHOR: OnceLock<Anchor> = OnceLock::new();

    fn anchor() -> &'static Anchor {
        ANCHOR.get_or_init(|| Anchor {
            t0: Instant::now(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: RDTSC has no preconditions; it only reads the
            // timestamp counter.
            tsc0: unsafe { core::arch::x86_64::_rdtsc() },
        })
    }

    /// Raw timestamp: TSC ticks since the anchor (x86_64) or monotonic
    /// nanoseconds since the anchor (elsewhere).
    #[inline]
    pub fn now_raw() -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            let a = anchor();
            // SAFETY: as above — RDTSC is a plain counter read.
            unsafe { core::arch::x86_64::_rdtsc() }.saturating_sub(a.tsc0)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            anchor().t0.elapsed().as_nanos() as u64
        }
    }

    /// Nanoseconds per raw unit, calibrated over the elapsed interval
    /// since the anchor (report time, so the baseline is long and the
    /// ratio precise).
    pub fn ns_per_raw() -> f64 {
        #[cfg(target_arch = "x86_64")]
        {
            let ns = anchor().t0.elapsed().as_nanos() as f64;
            let ticks = now_raw() as f64;
            if ticks < 1.0 {
                1.0
            } else {
                ns / ticks
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            1.0
        }
    }
}

use clock::now_raw;

fn probe_allocs() -> u64 {
    match ALLOC_PROBE.get() {
        Some(f) => f(),
        None => 0,
    }
}

/// Register the allocation counter the profiler samples at scope entry and
/// exit. Called once by the program that owns the counting global
/// allocator (the repository benchmark); later calls are ignored. The
/// function must be cheap — it runs twice per armed scope.
pub fn set_alloc_probe(f: fn() -> u64) {
    let _ = ALLOC_PROBE.set(f);
}

/// Arm the profiler process-wide. Probes start recording on every thread.
pub fn arm() {
    // Initialise the clock anchor before any probe can race to do it.
    let _ = now_raw();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarm the profiler. Already-open scopes still pop cleanly; new probes
/// go back to the one-load fast path.
pub fn disarm() {
    ENABLED.store(false, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Thread-local tree
// ---------------------------------------------------------------------------

/// One node in a thread's scope tree. Children are found by linear scan —
/// fanout is small (a handful of phases per level).
struct Node {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    incl_ns: u64,
    allocs: u64,
}

struct Frame {
    node: usize,
    start_ns: u64,
    start_allocs: u64,
}

struct CounterCell {
    name: &'static str,
    sum: u64,
    samples: u64,
    max: u64,
}

/// Per-thread profiler state. Node 0 is a synthetic root whose children
/// are this thread's top-level scopes.
struct ThreadProf {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    counters: Vec<CounterCell>,
}

impl ThreadProf {
    fn new() -> Self {
        ThreadProf {
            nodes: vec![Node {
                name: "",
                children: Vec::new(),
                count: 0,
                incl_ns: 0,
                allocs: 0,
            }],
            stack: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn child_of(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&c) = self.nodes[parent].children.iter().find(|&&c| {
            let n = &self.nodes[c];
            std::ptr::eq(n.name, name) || n.name == name
        }) {
            return c;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            count: 0,
            incl_ns: 0,
            allocs: 0,
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// `start_ns` is sampled by the caller *before* the thread-local is
    /// even touched, and `exit` reads the clock *after* its bookkeeping:
    /// the probe's own cost is thereby charged to the scope being
    /// measured, not smeared into the parent's exclusive ("other")
    /// bucket — which keeps the unattributed slice of a run honest.
    fn enter(&mut self, name: &'static str, start_ns: u64) {
        let parent = self.stack.last().map_or(0, |f| f.node);
        let node = self.child_of(parent, name);
        self.stack.push(Frame {
            node,
            start_ns,
            start_allocs: probe_allocs(),
        });
    }

    /// Close the current scope and open a sibling in one step, both
    /// boundaries pinned to the single timestamp `t` the caller already
    /// read. No instant falls between the two windows, so a loop that
    /// hands off from phase to phase leaves its parent with a truly
    /// empty exclusive bucket — and pays one clock read per boundary
    /// instead of two.
    fn transition(&mut self, name: &'static str, t: u64) {
        let allocs = probe_allocs();
        if let Some(f) = self.stack.pop() {
            let n = &mut self.nodes[f.node];
            n.count += 1;
            n.allocs += allocs.saturating_sub(f.start_allocs);
            n.incl_ns += t.saturating_sub(f.start_ns);
        }
        let parent = self.stack.last().map_or(0, |f| f.node);
        let node = self.child_of(parent, name);
        self.stack.push(Frame {
            node,
            start_ns: t,
            start_allocs: allocs,
        });
    }

    fn exit(&mut self) {
        let Some(f) = self.stack.pop() else { return };
        let da = probe_allocs().saturating_sub(f.start_allocs);
        let n = &mut self.nodes[f.node];
        n.count += 1;
        n.allocs += da;
        // The clock read stays last so all bookkeeping above lands inside
        // the measured window (self-attribution); only this one add-and-
        // store leaks into the parent's exclusive bucket.
        n.incl_ns += now_raw().saturating_sub(f.start_ns);
    }

    fn count_sample(&mut self, name: &'static str, value: u64) {
        if let Some(c) = self
            .counters
            .iter_mut()
            .find(|c| std::ptr::eq(c.name, name) || c.name == name)
        {
            c.sum += value;
            c.samples += 1;
            c.max = c.max.max(value);
            return;
        }
        self.counters.push(CounterCell {
            name,
            sum: value,
            samples: 1,
            max: value,
        });
    }

    fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.counters.is_empty()
    }

    /// Reset in place. (Replacing the whole value would run `Drop` on the
    /// old one and merge it into the graveyard a second time.)
    fn clear(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0].children.clear();
        self.stack.clear();
        self.counters.clear();
    }
}

impl Drop for ThreadProf {
    fn drop(&mut self) {
        merge_into_graveyard(self);
    }
}

thread_local! {
    static PROF: RefCell<ThreadProf> = RefCell::new(ThreadProf::new());
}

/// RAII guard returned by [`scope`]. Popping happens on
/// drop; an inactive guard (created while disarmed) is a no-op.
#[must_use = "a profiler scope ends when its guard drops"]
pub struct ScopeGuard {
    active: bool,
}

impl Drop for ScopeGuard {
    /// Inlined so a disarmed guard's drop is one branch on `active`; the
    /// armed path lives out of line in `exit_armed`.
    #[inline]
    fn drop(&mut self) {
        if self.active {
            exit_armed();
        }
    }
}

#[cold]
#[inline(never)]
fn exit_armed() {
    // try_with: a guard may drop during thread teardown after the
    // thread-local has been destroyed.
    let _ = PROF.try_with(|p| p.borrow_mut().exit());
}

/// Open a named scope on the calling thread. Nanoseconds, entry counts,
/// and allocation deltas accumulate under the current scope path.
#[inline]
pub fn scope(name: &'static str) -> ScopeGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return ScopeGuard { active: false };
    }
    let t0 = now_raw();
    let _ = PROF.try_with(|p| p.borrow_mut().enter(name, t0));
    ScopeGuard { active: true }
}

/// Close `from` and open the sibling scope `name`, both pinned to a
/// single clock reading. In a hot loop that alternates between phases
/// (`queue.pop` → `dispatch.*` → `queue.pop` → …) this leaves *no*
/// instant unattributed between the two windows and halves the clock
/// reads per boundary — the residue that would otherwise accumulate in
/// the parent's exclusive ("other") bucket at tens of nanoseconds per
/// event. The consumed guard's scope is exited here; its destructor is
/// forgotten (the guard holds no resources beyond the bookkeeping).
#[inline]
pub fn handoff(from: ScopeGuard, name: &'static str) -> ScopeGuard {
    if !from.active {
        return from;
    }
    let t = now_raw();
    let _ = PROF.try_with(|p| p.borrow_mut().transition(name, t));
    std::mem::forget(from);
    ScopeGuard { active: true }
}

/// Sample a magnitude (e.g. a queue depth). The report shows sum, sample
/// count, mean, and max per counter name.
#[inline]
pub fn count(name: &'static str, value: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = PROF.try_with(|p| p.borrow_mut().count_sample(name, value));
}

// ---------------------------------------------------------------------------
// Graveyard: merged trees from exited/flushed threads
// ---------------------------------------------------------------------------

struct MergedNode {
    name: String,
    children: Vec<usize>,
    count: u64,
    incl_ns: u64,
    allocs: u64,
}

struct MergedCounter {
    name: String,
    sum: u64,
    samples: u64,
    max: u64,
}

struct Graveyard {
    nodes: Vec<MergedNode>,
    counters: Vec<MergedCounter>,
    threads: usize,
}

impl Graveyard {
    fn new() -> Self {
        Graveyard {
            nodes: vec![MergedNode {
                name: String::new(),
                children: Vec::new(),
                count: 0,
                incl_ns: 0,
                allocs: 0,
            }],
            counters: Vec::new(),
            threads: 0,
        }
    }

    fn child_of(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let id = self.nodes.len();
        self.nodes.push(MergedNode {
            name: name.to_string(),
            children: Vec::new(),
            count: 0,
            incl_ns: 0,
            allocs: 0,
        });
        self.nodes[parent].children.push(id);
        id
    }

    fn merge_tree(&mut self, t: &ThreadProf, t_node: usize, g_parent: usize) {
        let src = &t.nodes[t_node];
        let dst = self.child_of(g_parent, src.name);
        {
            let d = &mut self.nodes[dst];
            d.count += src.count;
            d.incl_ns += src.incl_ns;
            d.allocs += src.allocs;
        }
        let children = t.nodes[t_node].children.clone();
        for c in children {
            self.merge_tree(t, c, dst);
        }
    }

    fn merge(&mut self, t: &ThreadProf) {
        if t.is_empty() {
            return;
        }
        self.threads += 1;
        let roots = t.nodes[0].children.clone();
        for r in roots {
            self.merge_tree(t, r, 0);
        }
        for c in &t.counters {
            if let Some(m) = self
                .counters
                .iter_mut()
                .find(|m| m.name == c.name)
            {
                m.sum += c.sum;
                m.samples += c.samples;
                m.max = m.max.max(c.max);
            } else {
                self.counters.push(MergedCounter {
                    name: c.name.to_string(),
                    sum: c.sum,
                    samples: c.samples,
                    max: c.max,
                });
            }
        }
    }
}

fn graveyard() -> &'static Mutex<Graveyard> {
    static G: OnceLock<Mutex<Graveyard>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(Graveyard::new()))
}

fn merge_into_graveyard(t: &ThreadProf) {
    if t.is_empty() {
        return;
    }
    if let Ok(mut g) = graveyard().lock() {
        g.merge(t);
    }
}

/// Fold the calling thread's accumulated tree into the global report and
/// reset the thread-local state. Threads that exit flush automatically;
/// long-lived threads (the main thread, pool workers between jobs) call
/// this before [`take_report`] so their data is visible.
pub fn flush_thread() {
    let _ = PROF.try_with(|p| {
        let mut p = p.borrow_mut();
        merge_into_graveyard(&p);
        p.clear();
    });
}

/// Drop all accumulated data (graveyard + calling thread). Other live
/// threads' unflushed data is untouched — flush or join them first when
/// that matters.
pub fn reset() {
    let _ = PROF.try_with(|p| p.borrow_mut().clear());
    if let Ok(mut g) = graveyard().lock() {
        *g = Graveyard::new();
    }
}

/// Serialize tests that arm the profiler. The profiler is process-global
/// state, so any `#[test]` (in this crate or downstream) that calls
/// [`arm`]/[`take_report`] must hold this lock for its whole body or a
/// concurrently running test will pollute its report.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Flush the calling thread, drain the graveyard, and build a report.
pub fn take_report() -> ProfReport {
    flush_thread();
    let drained = {
        let mut g = graveyard().lock().expect("profiler graveyard poisoned");
        std::mem::replace(&mut *g, Graveyard::new())
    };
    ProfReport::from_graveyard(drained)
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// One phase in the merged profile tree.
#[derive(Debug, Clone)]
pub struct ProfNode {
    /// Scope name.
    pub name: String,
    /// Times the scope was entered.
    pub count: u64,
    /// Inclusive wall nanoseconds (self + children).
    pub incl_ns: u64,
    /// Exclusive nanoseconds: `incl - Σ children incl`, clamped at 0.
    pub excl_ns: u64,
    /// Allocations attributed to this scope (inclusive; process-global
    /// counter, approximate under concurrency).
    pub allocs: u64,
    /// Child phases, in first-entry order.
    pub children: Vec<ProfNode>,
}

impl ProfNode {
    /// Find a direct child by name (tests, assertions).
    pub fn child(&self, name: &str) -> Option<&ProfNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// A sampled-magnitude counter (e.g. a queue depth).
#[derive(Debug, Clone)]
pub struct ProfCounter {
    /// Counter name.
    pub name: String,
    /// Sum of all sampled values.
    pub sum: u64,
    /// Number of samples.
    pub samples: u64,
    /// Largest sampled value.
    pub max: u64,
}

impl ProfCounter {
    /// Mean sampled value.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// Merged profile across all flushed threads.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Number of thread flushes merged in.
    pub threads: usize,
    /// Top-level phases (each thread's outermost scopes, merged by path).
    pub roots: Vec<ProfNode>,
    /// Sampled counters.
    pub counters: Vec<ProfCounter>,
}

impl ProfReport {
    fn from_graveyard(g: Graveyard) -> ProfReport {
        // Raw clock units → nanoseconds, once per report. Truncating the
        // scaled values keeps the tiling invariant exact: floors are
        // superadditive, so Σ floor(scale·child) ≤ floor(scale·parent)
        // whenever the raw values nest.
        let scale = clock::ns_per_raw();
        let to_ns = |raw: u64| (raw as f64 * scale) as u64;
        fn build(g: &Graveyard, id: usize, to_ns: &dyn Fn(u64) -> u64) -> ProfNode {
            let n = &g.nodes[id];
            let children: Vec<ProfNode> =
                n.children.iter().map(|&c| build(g, c, to_ns)).collect();
            let child_incl: u64 = children.iter().map(|c| c.incl_ns).sum();
            let incl_ns = to_ns(n.incl_ns);
            ProfNode {
                name: n.name.clone(),
                count: n.count,
                incl_ns,
                excl_ns: incl_ns.saturating_sub(child_incl),
                allocs: n.allocs,
                children,
            }
        }
        let roots = g.nodes[0].children.iter().map(|&c| build(&g, c, &to_ns)).collect();
        let counters = g
            .counters
            .iter()
            .map(|c| ProfCounter {
                name: c.name.clone(),
                sum: c.sum,
                samples: c.samples,
                max: c.max,
            })
            .collect();
        ProfReport {
            threads: g.threads,
            roots,
            counters,
        }
    }

    /// Total profiled wall nanoseconds: sum of root inclusive times.
    /// (Roots from concurrent threads sum, so this can exceed elapsed
    /// time — it is the denominator for the percentage columns.)
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.incl_ns).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty() && self.counters.is_empty()
    }

    /// Look up a root phase by name.
    pub fn root(&self, name: &str) -> Option<&ProfNode> {
        self.roots.iter().find(|r| r.name == name)
    }

    /// Human-readable tree: inclusive/exclusive milliseconds, exclusive
    /// percentage of the profiled total, entry counts, allocations.
    pub fn render_text(&self) -> String {
        let total = self.total_ns().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>10} {:>10} {:>6} {:>12} {:>12}\n",
            "phase", "incl ms", "excl ms", "excl%", "count", "allocs"
        ));
        fn walk(out: &mut String, n: &ProfNode, depth: usize, total: u64) {
            let label = format!("{}{}", "  ".repeat(depth), n.name);
            out.push_str(&format!(
                "{:<44} {:>10.3} {:>10.3} {:>5.1}% {:>12} {:>12}\n",
                label,
                n.incl_ns as f64 / 1e6,
                n.excl_ns as f64 / 1e6,
                n.excl_ns as f64 * 100.0 / total as f64,
                n.count,
                n.allocs,
            ));
            for c in &n.children {
                walk(out, c, depth + 1, total);
            }
        }
        for r in &self.roots {
            walk(&mut out, r, 0, total);
        }
        if !self.counters.is_empty() {
            out.push_str(&format!(
                "\n{:<44} {:>12} {:>12} {:>10} {:>10}\n",
                "counter", "sum", "samples", "mean", "max"
            ));
            for c in &self.counters {
                out.push_str(&format!(
                    "{:<44} {:>12} {:>12} {:>10.2} {:>10}\n",
                    c.name, c.sum, c.samples, c.mean(), c.max
                ));
            }
        }
        out
    }

    /// Canonical-JSON profile document (schema 1, stable key order).
    pub fn to_json(&self) -> Json {
        fn node_json(n: &ProfNode) -> Json {
            let mut children = Json::arr();
            for c in &n.children {
                children.push(node_json(c));
            }
            Json::obj()
                .field("name", n.name.clone())
                .field("count", n.count)
                .field("incl_ns", n.incl_ns)
                .field("excl_ns", n.excl_ns)
                .field("allocs", n.allocs)
                .field("children", children)
        }
        let mut tree = Json::arr();
        for r in &self.roots {
            tree.push(node_json(r));
        }
        let mut counters = Json::arr();
        for c in &self.counters {
            counters.push(
                Json::obj()
                    .field("name", c.name.clone())
                    .field("sum", c.sum)
                    .field("samples", c.samples)
                    .field("mean", c.mean())
                    .field("max", c.max),
            );
        }
        Json::obj()
            .field("schema", 1u64)
            .field("kind", "h2-profile")
            .field("threads", self.threads as u64)
            .field("total_ns", self.total_ns())
            .field("tree", tree)
            .field("counters", counters)
    }

    /// Folded-stack lines (`root;child;leaf <excl_ns>`), the input format
    /// of standard flamegraph tooling. Weights are exclusive nanoseconds,
    /// so stack weights sum to each subtree's inclusive time (up to
    /// clamping) and the flame widths read as wall time.
    pub fn to_folded(&self) -> String {
        fn walk(out: &mut String, stack: &mut Vec<String>, n: &ProfNode) {
            stack.push(n.name.clone());
            if n.excl_ns > 0 {
                out.push_str(&stack.join(";"));
                out.push(' ');
                out.push_str(&n.excl_ns.to_string());
                out.push('\n');
            }
            for c in &n.children {
                walk(out, stack, c);
            }
            stack.pop();
        }
        let mut out = String::new();
        let mut stack = Vec::new();
        for r in &self.roots {
            walk(&mut out, &mut stack, r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global state; tests that arm it must not
    /// run concurrently with each other.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    /// Busy-wait for `units` raw clock units (ticks on x86_64, ns
    /// elsewhere) — the tests only rely on relative magnitudes.
    fn spin(units: u64) {
        let t0 = now_raw();
        while now_raw() - t0 < units {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn disarmed_probes_record_nothing() {
        let _l = serial();
        disarm();
        reset();
        {
            let _a = scope("outer");
            let _b = scope("inner");
            count("depth", 5);
        }
        let r = take_report();
        assert!(r.is_empty(), "disarmed probes must not record");
    }

    #[test]
    fn nesting_builds_a_path_keyed_tree() {
        let _l = serial();
        reset();
        arm();
        {
            let _a = scope("outer");
            {
                let _b = scope("inner");
                spin(40_000);
            }
            {
                let _b = scope("inner"); // same path: same node
                spin(40_000);
            }
            let _c = scope("leaf");
        }
        {
            let _d = scope("inner"); // different path: top-level node
        }
        disarm();
        let r = take_report();
        let outer = r.root("outer").expect("outer root");
        assert_eq!(outer.count, 1);
        let inner = outer.child("inner").expect("inner child");
        assert_eq!(inner.count, 2, "same-path scopes merge into one node");
        assert!(outer.child("leaf").is_some());
        let top_inner = r.root("inner").expect("path-distinct top-level inner");
        assert_eq!(top_inner.count, 1);
    }

    #[test]
    fn exclusive_time_tiles_children_under_parent() {
        let _l = serial();
        reset();
        arm();
        {
            let _a = scope("parent");
            spin(30_000);
            {
                let _b = scope("child1");
                spin(30_000);
            }
            {
                let _c = scope("child2");
                spin(30_000);
            }
        }
        disarm();
        let r = take_report();
        let p = r.root("parent").unwrap();
        let child_sum: u64 = p.children.iter().map(|c| c.incl_ns).sum();
        assert!(
            child_sum <= p.incl_ns,
            "children inclusive ({child_sum}) must tile within parent inclusive ({})",
            p.incl_ns
        );
        assert_eq!(p.excl_ns, p.incl_ns - child_sum);
        assert!(p.excl_ns > 0, "parent did measurable work outside children");
        for c in &p.children {
            assert!(c.incl_ns > 0);
            assert_eq!(c.excl_ns, c.incl_ns, "leaves are fully exclusive");
        }
    }

    #[test]
    fn folded_output_matches_tree_paths() {
        let _l = serial();
        reset();
        arm();
        {
            let _a = scope("root");
            spin(20_000);
            {
                let _b = scope("leaf");
                spin(20_000);
            }
        }
        disarm();
        let r = take_report();
        let folded = r.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "two stacks with exclusive time: {folded:?}");
        assert!(lines[0].starts_with("root "), "got {:?}", lines[0]);
        assert!(lines[1].starts_with("root;leaf "), "got {:?}", lines[1]);
        for l in &lines {
            let (_, w) = l.rsplit_once(' ').unwrap();
            assert!(w.parse::<u64>().unwrap() > 0, "weights are positive integers");
        }
        // Folded weights for the subtree sum to the root's inclusive time.
        let sum: u64 = lines
            .iter()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, r.root("root").unwrap().incl_ns);
    }

    #[test]
    fn handoff_chains_siblings_and_leaves_no_gap() {
        let _l = serial();
        reset();
        arm();
        {
            let _root = scope("loop");
            let mut cur = scope("pop");
            for _ in 0..3 {
                spin(100_000);
                cur = handoff(cur, "work");
                spin(100_000);
                cur = handoff(cur, "pop");
            }
            drop(cur);
        }
        disarm();
        let r = take_report();
        let root = r.root("loop").unwrap();
        let pop = root.child("pop").unwrap();
        let work = root.child("work").unwrap();
        // Each handoff exits the consumed scope exactly once: 3 loop
        // rounds give 4 pop exits (initial + re-entries) and 3 work exits.
        assert_eq!((pop.count, work.count), (4, 3));
        assert!(pop.incl_ns > 0 && work.incl_ns > 0);
        // Siblings tile under the root; the handoff boundaries share one
        // clock reading so the children account for (almost) everything —
        // only the root's own entry/exit edges may remain.
        let children = pop.incl_ns + work.incl_ns;
        assert!(children <= root.incl_ns);
        assert!(
            (root.incl_ns - children) * 10 <= root.incl_ns,
            "gap {} of {} exceeds 10%",
            root.incl_ns - children,
            root.incl_ns
        );

        // Disarmed, a handoff passes the inactive guard through untouched.
        reset();
        let g = scope("dead");
        let g = handoff(g, "alive");
        drop(g);
        assert!(take_report().roots.is_empty());
    }

    #[test]
    fn counters_aggregate() {
        let _l = serial();
        reset();
        arm();
        {
            let _a = scope("loop");
            count("queue_depth", 4);
            count("queue_depth", 8);
            count("other", 10);
        }
        disarm();
        let r = take_report();
        let qd = r.counters.iter().find(|c| c.name == "queue_depth").unwrap();
        assert_eq!((qd.sum, qd.samples, qd.max), (12, 2, 8));
        assert!((qd.mean() - 6.0).abs() < 1e-9);
        let other = r.counters.iter().find(|c| c.name == "other").unwrap();
        assert_eq!((other.sum, other.samples, other.max), (10, 1, 10));
    }

    #[test]
    fn threads_merge_by_path_into_one_report() {
        let _l = serial();
        reset();
        arm();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _a = scope("worker");
                    let _b = scope("busy");
                    spin(10_000);
                    // Thread exit flushes via the thread-local destructor.
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        {
            let _m = scope("main");
            spin(10_000);
        }
        disarm();
        let r = take_report();
        assert_eq!(r.threads, 4, "three workers + main");
        let w = r.root("worker").expect("worker root");
        assert_eq!(w.count, 3, "the three workers merge into one path");
        assert!(w.child("busy").is_some());
        assert!(r.root("main").is_some());
    }

    #[test]
    fn json_document_is_schemad_and_canonical() {
        let _l = serial();
        reset();
        arm();
        {
            let _a = scope("phase");
            count("c", 1);
        }
        disarm();
        let r = take_report();
        let j = r.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_u64), Some(1));
        assert_eq!(
            j.get("kind").and_then(Json::as_str),
            Some("h2-profile")
        );
        let s = j.to_string_pretty();
        let reparsed = Json::parse(&s).expect("profile JSON round-trips");
        assert_eq!(reparsed.get("total_ns").and_then(Json::as_u64), Some(r.total_ns()));
    }

    #[test]
    fn reset_discards_armed_data() {
        let _l = serial();
        reset();
        arm();
        {
            let _a = scope("gone");
        }
        reset();
        disarm();
        let r = take_report();
        assert!(r.is_empty());
    }
}
