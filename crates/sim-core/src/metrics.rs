//! Hierarchical metrics registry: named counters, gauges, and log₂-bucketed
//! histograms with stable insertion order.
//!
//! Components expose a `collect_metrics(&self, m: &mut ScopedMetrics)` hook
//! and the runner snapshots them into a [`MetricsRegistry`] at epoch
//! boundaries, so hot simulation paths never touch string keys — they bump
//! plain integer fields and the registry is populated from those at
//! collection points.
//!
//! Determinism: iteration order is insertion order, which is fixed by the
//! (deterministic) collection code path, so serialising a registry yields
//! byte-identical output across runs and event-queue engines.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// Number of log₂ buckets in a [`LogHistogram`]. Bucket 0 holds values in
/// `[0, 2)`; bucket `b >= 1` holds `[2^b, 2^(b+1))`. Covers the full `u64`
/// range.
pub const HIST_BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (latencies, queue depths).
///
/// Stores only `count`, `sum`, and the bucket array, so two snapshots can be
/// subtracted bucket-wise to produce an exact per-window histogram. Quantile
/// queries return the *lower bound* of the bucket containing the requested
/// rank — coarse, but deterministic and monotone.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    count: u64,
    sum: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, buckets: [0; HIST_BUCKETS] }
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v < 2 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `b`.
    pub fn bucket_lo(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << b
        }
    }

    /// Reconstruct a histogram from serialised parts (persistence codecs).
    /// Out-of-range bucket indices are ignored.
    pub fn from_parts(count: u64, sum: u64, buckets: &[(usize, u64)]) -> Self {
        let mut h = Self { count, sum, ..Self::default() };
        for &(b, n) in buckets {
            if b < HIST_BUCKETS {
                h.buckets[b] = n;
            }
        }
        h
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Lower bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_lo(b);
            }
        }
        Self::bucket_lo(HIST_BUCKETS - 1)
    }

    /// Non-empty `(bucket_index, count)` pairs in ascending bucket order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (b, n))
    }

    /// Accumulate another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Bucket-wise difference `self - prev`, for per-window views of a
    /// monotonically growing histogram. Saturates at zero per field.
    pub fn delta_from(&self, prev: &LogHistogram) -> LogHistogram {
        let mut out = LogHistogram::new();
        out.count = self.count.saturating_sub(prev.count);
        out.sum = self.sum.saturating_sub(prev.sum);
        for (i, o) in out.buckets.iter_mut().enumerate() {
            *o = self.buckets[i].saturating_sub(prev.buckets[i]);
        }
        out
    }
}

/// Index of each metric kind in [`MetricLayout`].
const COUNTER: usize = 0;
const GAUGE: usize = 1;
const HIST: usize = 2;

/// One kind's names, packed: name `i` is `text[ends[i - 1]..ends[i]]`
/// (from 0 for the first). The name → position map is an open-addressed
/// table of `position + 1` (0 = empty slot), built on the first lookup and
/// kept current as names are appended. Names can come from run-cache
/// files, so they are hashed with the standard library's keyed hasher.
#[derive(Debug, Clone, Default)]
struct Names {
    text: String,
    ends: Vec<u32>,
    map: OnceLock<Vec<u32>>,
    hasher: RandomState,
}

impl Names {
    /// Names packed from a list, or `None` when one repeats.
    fn from_unique(given: &[&str]) -> Option<Self> {
        let mut names = Names {
            text: String::with_capacity(given.iter().map(|n| n.len()).sum()),
            ends: Vec::with_capacity(given.len()),
            ..Self::default()
        };
        for n in given {
            names.append(n);
        }
        let map = names.build_map()?;
        names.map = OnceLock::from(map);
        Some(names)
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn name(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.name(i))
    }

    /// Append `name` at the tail, leaving the map to the caller.
    fn append(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(u32::try_from(self.text.len()).expect("metric names fit in 4 GiB"));
    }

    /// The map slot where probing for `name` starts.
    fn home(&self, name: &str, map: &[u32]) -> usize {
        self.hasher.hash_one(name) as usize & (map.len() - 1)
    }

    /// Enter position `i` into `map`; `false` when an equal name is
    /// already there.
    fn enter(&self, map: &mut [u32], i: usize) -> bool {
        let name = self.name(i);
        let mut slot = self.home(name, map);
        while map[slot] != 0 {
            if self.name(map[slot] as usize - 1) == name {
                return false;
            }
            slot = (slot + 1) & (map.len() - 1);
        }
        map[slot] = i as u32 + 1;
        true
    }

    /// A map of every position, at most half full, or `None` when a name
    /// repeats.
    fn build_map(&self) -> Option<Vec<u32>> {
        let mut map = vec![0; (2 * self.len()).next_power_of_two().max(8)];
        (0..self.len()).all(|i| self.enter(&mut map, i)).then_some(map)
    }

    fn find(&self, name: &str) -> Option<usize> {
        let map = self.map.get_or_init(|| self.build_map().expect("metric names are unique"));
        let mut slot = self.home(name, map);
        loop {
            match map[slot] {
                0 => return None,
                p if self.name(p as usize - 1) == name => return Some(p as usize - 1),
                _ => slot = (slot + 1) & (map.len() - 1),
            }
        }
    }

    /// Append `name`, absent until now, at the tail; returns its position.
    fn push(&mut self, name: &str) -> usize {
        let i = self.len();
        self.append(name);
        // A map that would pass half full is dropped and rebuilt, twice
        // the size, by the next lookup.
        if let Some(mut map) = self.map.take() {
            if 2 * self.len() <= map.len() {
                self.enter(&mut map, i);
                self.map = OnceLock::from(map);
            }
        }
        i
    }
}

/// The names of a [`MetricsRegistry`]'s counters, gauges and histograms,
/// in insertion order. Registries hold it behind an [`Arc`] and share it:
/// a clone, an epoch delta and every frame decoded from one run point at
/// the same layout and own only their values. A registry that gains a name
/// while sharing its layout copies the layout first
/// ([`Arc::make_mut`]), so the others keep theirs.
#[derive(Debug, Clone, Default)]
pub struct MetricLayout {
    names: [Names; 3],
}

impl MetricLayout {
    /// A layout holding `counters`, `gauges` and `hists` in that order, or
    /// `None` when a name repeats within one kind (persistence codecs: a
    /// registry never writes a name twice, so a repeat is damage).
    pub fn from_names(counters: &[&str], gauges: &[&str], hists: &[&str]) -> Option<Self> {
        Some(Self {
            names: [
                Names::from_unique(counters)?,
                Names::from_unique(gauges)?,
                Names::from_unique(hists)?,
            ],
        })
    }

    /// How many counters, gauges and histograms the layout names, in that
    /// order (persistence codecs: a registry over it holds that many
    /// values of each kind).
    pub fn lens(&self) -> [usize; 3] {
        self.names.each_ref().map(Names::len)
    }
}

/// The layout every registry starts from: empty, shared, so building a
/// registry (or `mem::take`-ing one) allocates nothing.
fn empty_layout() -> Arc<MetricLayout> {
    static EMPTY: OnceLock<Arc<MetricLayout>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(Default::default))
}

/// The value of `name` among one kind's `values`, appending the name
/// (with a zero value) when absent. Copies a shared layout before
/// appending.
fn slot<'v, V: Default>(
    layout: &mut Arc<MetricLayout>,
    kind: usize,
    values: &'v mut Vec<V>,
    name: &str,
) -> &'v mut V {
    let i = match layout.names[kind].find(name) {
        Some(i) => i,
        None => {
            values.push(V::default());
            Arc::make_mut(layout).names[kind].push(name)
        }
    };
    &mut values[i]
}

/// Hierarchical registry of named counters (`u64`), gauges (`f64`), and
/// [`LogHistogram`]s. Names are dot-separated paths (`mem.fast.ch0.reads`);
/// the [`scoped`](MetricsRegistry::scoped) helper prepends a prefix so
/// components stay ignorant of where they sit in the hierarchy.
///
/// The registry is one value vector per kind over a shared, copy-on-write
/// [`MetricLayout`] of names. Iteration order is insertion order, so a
/// registry built by a deterministic collection pass serialises
/// identically every run. Cloning copies values only.
///
/// A registry can be collected into again:
/// [`clear_values`](MetricsRegistry::clear_values) zeroes it and keeps its
/// names, and a collection that re-emits every name the registry holds,
/// ahead of any name new to it, rebuilds exactly the registry a fresh
/// collection would, without growing its layout.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    layout: Arc<MetricLayout>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hists: Vec<LogHistogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// New empty registry; it allocates nothing until a name is emitted.
    pub fn new() -> Self {
        Self {
            layout: empty_layout(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// A registry over a shared `layout`, with one value per name in each
    /// kind (persistence codecs). Panics when a count does not match.
    pub fn from_parts(
        layout: Arc<MetricLayout>,
        counters: Vec<u64>,
        gauges: Vec<f64>,
        hists: Vec<LogHistogram>,
    ) -> Self {
        let lens = [counters.len(), gauges.len(), hists.len()];
        assert!(
            layout.names.iter().zip(lens).all(|(n, len)| n.len() == len),
            "metric values do not match their layout"
        );
        Self { layout, counters, gauges, hists }
    }

    /// The shared name layout (persistence codecs hand it to the next
    /// registry with the same names).
    pub fn layout(&self) -> &Arc<MetricLayout> {
        &self.layout
    }

    /// Add `v` to counter `name`, creating it at the current tail position
    /// on first use.
    pub fn inc(&mut self, name: &str, v: u64) {
        *slot(&mut self.layout, COUNTER, &mut self.counters, name) += v;
    }

    /// Set gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        *slot(&mut self.layout, GAUGE, &mut self.gauges, name) = v;
    }

    /// Record one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        slot(&mut self.layout, HIST, &mut self.hists, name).record(v);
    }

    /// Merge a whole pre-built histogram into histogram `name`.
    pub fn merge_hist(&mut self, name: &str, h: &LogHistogram) {
        slot(&mut self.layout, HIST, &mut self.hists, name).merge(h);
    }

    /// Read a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.layout.names[COUNTER].find(name).map_or(0, |i| self.counters[i])
    }

    /// Read a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.layout.names[GAUGE].find(name).map(|i| self.gauges[i])
    }

    /// Read a histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.layout.names[HIST].find(name).map(|i| &self.hists[i])
    }

    /// Counters in insertion order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.layout.names[COUNTER].iter().zip(self.counters.iter().copied())
    }

    /// Gauges in insertion order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.layout.names[GAUGE].iter().zip(self.gauges.iter().copied())
    }

    /// Histograms in insertion order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.layout.names[HIST].iter().zip(self.hists.iter())
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Borrow the registry with every name prefixed by `prefix` + `.`.
    pub fn scoped<'a>(&'a mut self, prefix: &str) -> ScopedMetrics<'a> {
        // Room for the longest names collected today, so building them
        // does not regrow the buffer.
        let mut name = String::with_capacity(64);
        push_scope(&mut name, prefix);
        ScopedMetrics { reg: self, prefix: name.len(), name: NameBuf::Owned(name) }
    }

    /// Zero every value and keep every name, so that the registry can be
    /// collected into again (see the type's docs).
    pub fn clear_values(&mut self) {
        self.counters.fill(0);
        self.gauges.fill(0.0);
        self.hists.fill(LogHistogram::default());
    }

    /// Per-window view: counters and histograms become `self - prev`
    /// (saturating); gauges keep their current (instantaneous) value.
    /// Names absent from `prev` are treated as zero there. The result
    /// shares `self`'s layout. When `prev` shares it too (an earlier
    /// collection into the same registry, cloned), values subtract
    /// position by position with no name lookup.
    pub fn delta_from(&self, prev: &MetricsRegistry) -> MetricsRegistry {
        let same = Arc::ptr_eq(&self.layout, &prev.layout);
        let at = |kind: usize, i: usize, name: &str| {
            if same {
                Some(i)
            } else {
                prev.layout.names[kind].find(name)
            }
        };
        let mut out = self.clone();
        for (i, (n, o)) in self.layout.names[COUNTER].iter().zip(&mut out.counters).enumerate() {
            if let Some(p) = at(COUNTER, i, n) {
                *o = o.saturating_sub(prev.counters[p]);
            }
        }
        for (i, (n, o)) in self.layout.names[HIST].iter().zip(&mut out.hists).enumerate() {
            if let Some(p) = at(HIST, i, n) {
                *o = o.delta_from(&prev.hists[p]);
            }
        }
        out
    }
}

/// Where a [`ScopedMetrics`] builds full names: the outermost scope owns
/// the buffer, and every scope nested in it borrows the same one.
enum NameBuf<'a> {
    Owned(String),
    Shared(&'a mut String),
}

/// Append scope `sub` and its dot to a prefix; an empty prefix stays empty
/// under an empty `sub`, so `scoped("")` emits names as given.
fn push_scope(buf: &mut String, sub: &str) {
    buf.push_str(sub);
    if !buf.is_empty() {
        buf.push('.');
    }
}

/// A mutable view of a [`MetricsRegistry`] that prepends `prefix.` to every
/// name, so components can emit relative paths.
///
/// A scope and the scopes nested in it build every full name in one
/// buffer. Each scope knows only the length of its own prefix there, and
/// an emission writes the metric's name after it, so a collection formats
/// no string per metric.
pub struct ScopedMetrics<'a> {
    reg: &'a mut MetricsRegistry,
    name: NameBuf<'a>,
    /// Length of this scope's prefix in `name`, its trailing dot included.
    prefix: usize,
}

impl ScopedMetrics<'_> {
    /// The registry, and the name buffer cut back to this scope's prefix.
    fn parts(&mut self) -> (&mut MetricsRegistry, &mut String) {
        let buf = match &mut self.name {
            NameBuf::Owned(s) => s,
            NameBuf::Shared(s) => &mut **s,
        };
        buf.truncate(self.prefix);
        (&mut *self.reg, buf)
    }

    /// Hand the registry and the full name of `name` to `f`.
    fn emit(&mut self, name: &str, f: impl FnOnce(&mut MetricsRegistry, &str)) {
        let (reg, full) = self.parts();
        full.push_str(name);
        f(reg, full);
    }

    /// Add `v` to counter `prefix.name`.
    pub fn inc(&mut self, name: &str, v: u64) {
        self.emit(name, |reg, full| reg.inc(full, v));
    }

    /// Set gauge `prefix.name`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.emit(name, |reg, full| reg.set_gauge(full, v));
    }

    /// Record a sample into histogram `prefix.name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.emit(name, |reg, full| reg.observe(full, v));
    }

    /// Merge a pre-built histogram into `prefix.name`.
    pub fn merge_hist(&mut self, name: &str, h: &LogHistogram) {
        self.emit(name, |reg, full| reg.merge_hist(full, h));
    }

    /// Narrow the scope another level, in the same name buffer.
    pub fn scoped(&mut self, sub: &str) -> ScopedMetrics<'_> {
        let (reg, buf) = self.parts();
        push_scope(buf, sub);
        ScopedMetrics { reg, prefix: buf.len(), name: NameBuf::Shared(buf) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 4, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 115);
        assert_eq!(h.quantile(0.0), 0); // first sample's bucket lo
        assert_eq!(h.quantile(1.0), 64); // 100 lives in [64, 128)
        assert!((h.mean() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_delta_is_exact() {
        let mut a = LogHistogram::new();
        a.record(5);
        let snap = a.clone();
        a.record(9);
        a.record(1000);
        let d = a.delta_from(&snap);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 1009);
        let bs: Vec<_> = d.nonzero_buckets().collect();
        assert_eq!(bs, vec![(3, 1), (9, 1)]);
    }

    #[test]
    fn registry_insertion_order_and_scoping() {
        let mut m = MetricsRegistry::new();
        {
            let mut s = m.scoped("mem.fast");
            s.inc("reads", 3);
            let mut b = s.scoped("ch0");
            b.inc("row_hits", 7);
            b.scoped("bank12").inc("row_hits", 2);
            b.inc("row_conflicts", 1);
            drop(b);
            // A scope writes after its own prefix however long the names
            // its nested scopes left in the shared buffer were.
            s.scoped("ch1").inc("row_hits", 4);
            s.inc("writes", 5);
        }
        m.inc("mem.fast.reads", 1);
        m.scoped("").inc("top", 6);
        m.set_gauge("occ", 0.5);
        m.observe("lat", 12);
        assert_eq!(m.counter("mem.fast.reads"), 4);
        assert_eq!(m.counter("mem.fast.ch0.row_hits"), 7);
        assert_eq!(m.gauge("occ"), Some(0.5));
        assert_eq!(m.hist("lat").unwrap().count(), 1);
        let names: Vec<_> = m.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "mem.fast.reads",
                "mem.fast.ch0.row_hits",
                "mem.fast.ch0.bank12.row_hits",
                "mem.fast.ch0.row_conflicts",
                "mem.fast.ch1.row_hits",
                "mem.fast.writes",
                "top",
            ]
        );
    }

    #[test]
    fn registry_delta_subtracts_counters_keeps_gauges() {
        let mut prev = MetricsRegistry::new();
        prev.inc("n", 10);
        prev.set_gauge("g", 1.0);
        prev.observe("h", 4);
        let mut cur = prev.clone();
        cur.inc("n", 5);
        cur.inc("fresh", 2);
        cur.set_gauge("g", 9.0);
        cur.observe("h", 4);
        let d = cur.delta_from(&prev);
        assert_eq!(d.counter("n"), 5);
        assert_eq!(d.counter("fresh"), 2);
        assert_eq!(d.gauge("g"), Some(9.0));
        assert_eq!(d.hist("h").unwrap().count(), 1);

        // Over a layout the two share, values subtract by position and
        // the delta shares it too.
        let prev = cur.clone();
        cur.inc("fresh", 3);
        cur.observe("h", 1 << 20);
        let d = cur.delta_from(&prev);
        assert!(Arc::ptr_eq(d.layout(), cur.layout()));
        assert_eq!(d.counter("n"), 0);
        assert_eq!(d.counter("fresh"), 3);
        assert_eq!(d.hist("h").unwrap().count(), 1);
        assert_eq!(d.hist("h").unwrap().sum(), 1 << 20);
        // A `prev` with the same names in another order subtracts by name.
        let mut reordered = MetricsRegistry::new();
        reordered.inc("fresh", 2);
        reordered.inc("n", 15);
        let d = cur.delta_from(&reordered);
        assert_eq!((d.counter("n"), d.counter("fresh")), (0, 3));
    }

    /// A registry's values: every name with its value, kind by kind, in
    /// insertion order (gauges by their bits).
    type Entries = (Vec<(String, u64)>, Vec<(String, u64)>, Vec<(String, LogHistogram)>);

    fn entries(r: &MetricsRegistry) -> Entries {
        (
            r.counters().map(|(n, v)| (n.to_string(), v)).collect(),
            r.gauges().map(|(n, v)| (n.to_string(), v.to_bits())).collect(),
            r.hists().map(|(n, h)| (n.to_string(), h.clone())).collect(),
        )
    }

    /// One collection of a component whose statistics grow with `round`
    /// and that emits its `late.*` names only from round 2 on, after the
    /// rest (as the runner's `trace` scope does once a span has closed).
    fn collect(reg: &mut MetricsRegistry, round: u64) {
        let mut hist = LogHistogram::new();
        for v in 0..round {
            hist.record(v * 100);
        }
        let mut s = reg.scoped("sys");
        s.inc("instr", 10 * round);
        s.set_gauge("occ", round as f64 / 4.0);
        s.merge_hist("lat", &hist);
        for ch in ["ch0", "ch1"] {
            let mut c = s.scoped(ch);
            c.inc("reads", round);
            c.set_gauge("depth", -(round as f64));
        }
        drop(s);
        if round >= 2 {
            reg.scoped("late").inc("spans", round);
        }
    }

    #[test]
    fn recollection_rebuilds_a_fresh_collection_in_place() {
        let fresh = |round| {
            let mut r = MetricsRegistry::new();
            collect(&mut r, round);
            r
        };
        let mut cum = fresh(1);
        let frame1 = cum.delta_from(&MetricsRegistry::new());
        for round in 2..5 {
            let prev = cum.clone();
            cum.clear_values();
            collect(&mut cum, round);
            assert_eq!(entries(&cum), entries(&fresh(round)), "round {round}");
            let frame = cum.delta_from(&prev);
            assert_eq!(frame.counter("sys.instr"), 10);
            assert_eq!(frame.hist("sys.lat").unwrap().count(), 1);
            assert_eq!(frame.gauge("sys.ch1.depth"), Some(-(round as f64)));
            assert_eq!(frame.counter("late.spans"), if round == 2 { 2 } else { 1 });
            // Only the round that adds `late.spans` copies the layout the
            // earlier collections, and frames cut from them, share.
            assert_eq!(Arc::ptr_eq(cum.layout(), prev.layout()), round > 2, "round {round}");
        }
        assert_eq!(frame1.counters().count(), 3);
        assert_eq!(cum.counters().count(), 4);
    }
}
