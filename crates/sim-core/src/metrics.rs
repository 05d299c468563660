//! Hierarchical metrics registry: named counters, gauges, and log₂-bucketed
//! histograms with stable insertion order.
//!
//! Components expose a `collect_metrics(&self, m: &mut ScopedMetrics)` hook
//! and the runner snapshots them into a [`MetricsRegistry`] at epoch
//! boundaries, so hot simulation paths never touch string keys — they bump
//! plain integer fields and the registry is populated from those at
//! collection points. The registry itself is also cheap to bypass: when
//! constructed disabled, every mutation short-circuits on a single branch
//! and allocates nothing.
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

/// Dense handle to a counter interned with
/// [`MetricsRegistry::intern_counter`]. Valid only for the registry that
/// issued it (and for same-layout clones of that registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Dense handle to a gauge interned with [`MetricsRegistry::intern_gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Dense handle to a histogram interned with
/// [`MetricsRegistry::intern_hist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// Index of each metric kind in [`MetricLayout`].
const COUNTER: usize = 0;
const GAUGE: usize = 1;
const HIST: usize = 2;
const KIND_NAMES: [&str; 3] = ["counter", "gauge", "histogram"];

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

impl PartialEq for Names {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text && self.ends == other.ends
    }
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

/// Position of `name` among one kind's names, appending it (with a zero
/// value) when absent. Copies a shared layout before appending.
fn position<V: Default>(
    layout: &mut Arc<MetricLayout>,
    kind: usize,
    values: &mut Vec<V>,
    name: &str,
) -> usize {
    match layout.names[kind].find(name) {
        Some(i) => i,
        None => {
            values.push(V::default());
            Arc::make_mut(layout).names[kind].push(name)
        }
    }
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
/// Besides the name-keyed API there is an *interned* API: resolve a name
/// once with [`intern_counter`](MetricsRegistry::intern_counter) (and
/// friends) and then read/write through the dense integer handle with no
/// lookup or string formatting. Interning a name that already exists
/// returns its existing position, so a registry populated by a string-keyed
/// collection pass and one populated through handles interned in the same
/// order are byte-identical when serialised.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    enabled: bool,
    layout: Arc<MetricLayout>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hists: Vec<LogHistogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new(false)
    }
}

impl MetricsRegistry {
    /// New registry; when `enabled` is false every mutation is a no-op that
    /// allocates nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
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
        Self { enabled: true, layout, counters, gauges, hists }
    }

    /// The shared name layout (persistence codecs hand it to the next
    /// registry with the same names).
    pub fn layout(&self) -> &Arc<MetricLayout> {
        &self.layout
    }

    /// Whether mutations are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn counter_pos(&mut self, name: &str) -> usize {
        position(&mut self.layout, COUNTER, &mut self.counters, name)
    }

    fn gauge_pos(&mut self, name: &str) -> usize {
        position(&mut self.layout, GAUGE, &mut self.gauges, name)
    }

    fn hist_pos(&mut self, name: &str) -> usize {
        position(&mut self.layout, HIST, &mut self.hists, name)
    }

    /// Add `v` to counter `name`, creating it at the current tail position
    /// on first use.
    pub fn inc(&mut self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        let i = self.counter_pos(name);
        self.counters[i] += v;
    }

    /// Set gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        let i = self.gauge_pos(name);
        self.gauges[i] = v;
    }

    /// Record one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        let i = self.hist_pos(name);
        self.hists[i].record(v);
    }

    /// Merge a whole pre-built histogram into histogram `name`.
    pub fn merge_hist(&mut self, name: &str, h: &LogHistogram) {
        if !self.enabled {
            return;
        }
        let i = self.hist_pos(name);
        self.hists[i].merge(h);
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
        ScopedMetrics { reg: self, prefix: prefix.to_string(), set_mode: false }
    }

    /// Like [`Self::scoped`], but `inc` *sets* the counter and `merge_hist`
    /// *replaces* the histogram instead of accumulating. Components that
    /// emit cumulative values through the ordinary add-semantics hook can
    /// then write directly into a persistent registry without
    /// double-counting across epochs.
    pub fn scoped_set<'a>(&'a mut self, prefix: &str) -> ScopedMetrics<'a> {
        ScopedMetrics { reg: self, prefix: prefix.to_string(), set_mode: true }
    }

    /// Set counter `name` to an absolute value (name-keyed; creates the
    /// counter at the tail on first use).
    pub fn set_counter_named(&mut self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        let i = self.counter_pos(name);
        self.counters[i] = v;
    }

    /// Replace histogram `name` with a copy of `h` (name-keyed).
    pub fn set_hist_named(&mut self, name: &str, h: &LogHistogram) {
        if !self.enabled {
            return;
        }
        let i = self.hist_pos(name);
        self.hists[i].clone_from(h);
    }

    /// Per-window view: counters and histograms become `self - prev`
    /// (saturating); gauges keep their current (instantaneous) value.
    /// Names absent from `prev` are treated as zero there. The result
    /// shares `self`'s layout.
    pub fn delta_from(&self, prev: &MetricsRegistry) -> MetricsRegistry {
        let mut out = self.clone();
        out.enabled = true;
        for ((n, v), o) in self.counters().zip(out.counters.iter_mut()) {
            *o = v.saturating_sub(prev.counter(n));
        }
        for ((n, h), o) in self.hists().zip(out.hists.iter_mut()) {
            if let Some(p) = prev.hist(n) {
                *o = h.delta_from(p);
            }
        }
        out
    }

    // ---- interned-handle API (the allocation-free hot path) ----

    /// Resolve `name` to a dense counter handle, creating the counter (at
    /// the current tail position, value 0) if it does not exist yet.
    /// Interning ignores the `enabled` flag: it is a build-time operation,
    /// and callers only build handle layouts for registries they collect.
    pub fn intern_counter(&mut self, name: &str) -> CounterId {
        CounterId(self.counter_pos(name) as u32)
    }

    /// Resolve `name` to a dense gauge handle (creating it at 0.0).
    pub fn intern_gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(self.gauge_pos(name) as u32)
    }

    /// Resolve `name` to a dense histogram handle (creating it empty).
    pub fn intern_hist(&mut self, name: &str) -> HistId {
        HistId(self.hist_pos(name) as u32)
    }

    /// Set an interned counter to an absolute (cumulative) value.
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0 as usize] = v;
    }

    /// Add to an interned counter.
    #[inline]
    pub fn add_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0 as usize] += v;
    }

    /// Set an interned gauge.
    #[inline]
    pub fn set_gauge_id(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize] = v;
    }

    /// Overwrite an interned histogram with a copy of `h` (set semantics:
    /// the registry slot mirrors the component's cumulative histogram).
    #[inline]
    pub fn set_hist(&mut self, id: HistId, h: &LogHistogram) {
        self.hists[id.0 as usize].clone_from(h);
    }

    /// Debug-build check that `other` has the same names at the same
    /// positions. Pointer-equal layouts skip the name walk.
    fn debug_assert_same_layout(&self, other: &MetricsRegistry) {
        if cfg!(debug_assertions) && !Arc::ptr_eq(&self.layout, &other.layout) {
            for (k, kind) in KIND_NAMES.iter().enumerate() {
                assert!(self.layout.names[k] == other.layout.names[k], "{kind} layouts diverged");
            }
        }
    }

    /// Index-wise [`Self::delta_from`] for two same-layout registries (a
    /// persistent cumulative registry and its previous-epoch snapshot):
    /// no name lookups, positions are trusted to match. The layouts must
    /// be identical — same names at the same indices — which holds by
    /// construction when `prev` started as a clone of `self` and every
    /// later interning touched both. The result shares `self`'s layout,
    /// so cutting a frame copies values only.
    pub fn delta_from_indexed(&self, prev: &MetricsRegistry) -> MetricsRegistry {
        self.debug_assert_same_layout(prev);
        MetricsRegistry {
            enabled: true,
            layout: Arc::clone(&self.layout),
            counters: self
                .counters
                .iter()
                .zip(&prev.counters)
                .map(|(v, p)| v.saturating_sub(*p))
                .collect(),
            gauges: self.gauges.clone(),
            hists: self.hists.iter().zip(&prev.hists).map(|(h, p)| h.delta_from(p)).collect(),
        }
    }

    /// Copy every value from a same-layout registry, allocating nothing
    /// (histograms are fixed arrays). Used to refresh the previous-epoch
    /// snapshot from the cumulative registry after a frame is cut.
    pub fn copy_values_from(&mut self, other: &MetricsRegistry) {
        self.debug_assert_same_layout(other);
        self.counters.copy_from_slice(&other.counters);
        self.gauges.copy_from_slice(&other.gauges);
        self.hists.clone_from_slice(&other.hists);
    }

    /// Compare with `other` kind by kind: the same names in the same
    /// insertion order, with equal values (gauges bit for bit). `Ok`
    /// carries the number of names compared; `Err` describes the first
    /// difference.
    pub fn compare(&self, other: &MetricsRegistry) -> Result<usize, String> {
        Ok(same_entries("counter", self.counters(), other.counters(), |a, b| a == b)?
            + same_entries("gauge", self.gauges(), other.gauges(), |a, b| {
                a.to_bits() == b.to_bits()
            })?
            + same_entries("histogram", self.hists(), other.hists(), |a, b| a == b)?)
    }
}

/// Walk two `(name, value)` sequences of one kind in step. `Ok` carries
/// the number of entries when they match; `Err` names the first position
/// where they differ.
fn same_entries<'a, V: std::fmt::Debug>(
    kind: &str,
    mut a: impl Iterator<Item = (&'a str, V)>,
    mut b: impl Iterator<Item = (&'a str, V)>,
    eq: impl Fn(&V, &V) -> bool,
) -> Result<usize, String> {
    let show = |e: Option<(&str, V)>| e.map_or("nothing".into(), |(n, v)| format!("{n} = {v:?}"));
    let mut i = 0;
    loop {
        match (a.next(), b.next()) {
            (None, None) => return Ok(i),
            (Some((na, va)), Some((nb, vb))) if na == nb && eq(&va, &vb) => i += 1,
            (x, y) => return Err(format!("{kind} {i}: {} vs {}", show(x), show(y))),
        }
    }
}

/// A mutable view of a [`MetricsRegistry`] that prepends `prefix.` to every
/// name, so components can emit relative paths.
///
/// In *set mode* ([`MetricsRegistry::scoped_set`]) `inc` assigns instead of
/// adding and `merge_hist` replaces instead of merging, so the same
/// cumulative-value emission code can target either a fresh snapshot
/// registry (add into zero) or a persistent one (overwrite last epoch).
pub struct ScopedMetrics<'a> {
    reg: &'a mut MetricsRegistry,
    prefix: String,
    set_mode: bool,
}

impl ScopedMetrics<'_> {
    fn full(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.prefix, name)
        }
    }

    /// Add `v` to counter `prefix.name` (set mode: assign `v`).
    pub fn inc(&mut self, name: &str, v: u64) {
        if !self.reg.enabled {
            return;
        }
        let full = self.full(name);
        if self.set_mode {
            self.reg.set_counter_named(&full, v);
        } else {
            self.reg.inc(&full, v);
        }
    }

    /// Set gauge `prefix.name`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if !self.reg.enabled {
            return;
        }
        let full = self.full(name);
        self.reg.set_gauge(&full, v);
    }

    /// Record a sample into histogram `prefix.name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        if !self.reg.enabled {
            return;
        }
        let full = self.full(name);
        self.reg.observe(&full, v);
    }

    /// Merge a pre-built histogram into `prefix.name` (set mode: replace).
    pub fn merge_hist(&mut self, name: &str, h: &LogHistogram) {
        if !self.reg.enabled {
            return;
        }
        let full = self.full(name);
        if self.set_mode {
            self.reg.set_hist_named(&full, h);
        } else {
            self.reg.merge_hist(&full, h);
        }
    }

    /// Narrow the scope another level (inherits set mode).
    pub fn scoped(&mut self, sub: &str) -> ScopedMetrics<'_> {
        let prefix = self.full(sub);
        ScopedMetrics { reg: self.reg, prefix, set_mode: self.set_mode }
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
        let mut m = MetricsRegistry::new(true);
        {
            let mut s = m.scoped("mem.fast");
            s.inc("reads", 3);
            let mut b = s.scoped("ch0");
            b.inc("row_hits", 7);
        }
        m.inc("mem.fast.reads", 1);
        m.set_gauge("occ", 0.5);
        m.observe("lat", 12);
        assert_eq!(m.counter("mem.fast.reads"), 4);
        assert_eq!(m.counter("mem.fast.ch0.row_hits"), 7);
        assert_eq!(m.gauge("occ"), Some(0.5));
        assert_eq!(m.hist("lat").unwrap().count(), 1);
        let names: Vec<_> = m.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["mem.fast.reads", "mem.fast.ch0.row_hits"]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::new(false);
        m.inc("a", 1);
        m.set_gauge("b", 2.0);
        m.observe("c", 3);
        m.scoped("x").inc("y", 4);
        assert!(m.is_empty());
        assert_eq!(m.counter("a"), 0);
    }

    #[test]
    fn interned_handles_alias_named_metrics() {
        let mut m = MetricsRegistry::new(true);
        m.inc("a.n", 3);
        let c = m.intern_counter("a.n");
        let fresh = m.intern_counter("a.fresh");
        let g = m.intern_gauge("a.g");
        let h = m.intern_hist("a.h");
        m.set_counter(c, 10);
        m.add_counter(fresh, 2);
        m.set_gauge_id(g, 1.5);
        let mut src = LogHistogram::new();
        src.record(7);
        m.set_hist(h, &src);
        assert_eq!(m.counter("a.n"), 10);
        assert_eq!(m.counter("a.fresh"), 2);
        assert_eq!(m.gauge("a.g"), Some(1.5));
        assert_eq!(m.hist("a.h").unwrap().count(), 1);
        // Re-interning resolves to the same position.
        assert_eq!(m.intern_counter("a.n"), c);
        let names: Vec<_> = m.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a.n", "a.fresh"]);
    }

    #[test]
    fn indexed_delta_matches_named_delta() {
        let mut cum = MetricsRegistry::new(true);
        let c = cum.intern_counter("x.n");
        let g = cum.intern_gauge("x.g");
        let h = cum.intern_hist("x.h");
        cum.set_counter(c, 4);
        cum.set_gauge_id(g, 2.0);
        let mut hist = LogHistogram::new();
        hist.record(3);
        cum.set_hist(h, &hist);
        let mut prev = cum.clone();
        cum.set_counter(c, 9);
        cum.set_gauge_id(g, 5.0);
        hist.record(100);
        cum.set_hist(h, &hist);

        let by_index = cum.delta_from_indexed(&prev);
        let by_name = cum.delta_from(&prev);
        assert_eq!(by_index.counter("x.n"), by_name.counter("x.n"));
        assert_eq!(by_index.counter("x.n"), 5);
        assert_eq!(by_index.gauge("x.g"), Some(5.0));
        assert_eq!(by_index.hist("x.h").unwrap().count(), 1);

        prev.copy_values_from(&cum);
        let zero = cum.delta_from_indexed(&prev);
        assert_eq!(zero.counter("x.n"), 0);
        assert_eq!(zero.hist("x.h").unwrap().count(), 0);
        // Layout (names + order) survives every operation.
        let names = |r: &MetricsRegistry| -> Vec<String> {
            r.counters().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names(&cum), names(&zero));

        // Copy-on-write: a cut frame shares the cumulative layout until a
        // name is interned; then the registry that gains it copies first.
        assert!(Arc::ptr_eq(by_index.layout(), cum.layout()));
        let fresh = cum.intern_counter("x.new");
        assert_eq!(prev.intern_counter("x.new"), fresh);
        cum.set_counter(fresh, 3);
        assert!(!Arc::ptr_eq(by_index.layout(), cum.layout()));
        assert!(!Arc::ptr_eq(prev.layout(), cum.layout()));
        assert_eq!(names(&by_index), ["x.n"]);
        assert_eq!(by_index.counter("x.n"), 5);
        assert_eq!(names(&cum), ["x.n", "x.new"]);
        // Equal names behind distinct layouts pass the layout checks...
        assert_eq!(cum.delta_from_indexed(&prev).counter("x.new"), 3);
        prev.copy_values_from(&cum);
        assert_eq!(prev.counter("x.new"), 3);
        // ...which debug builds still run: a different name at the same
        // position is caught by both.
        #[cfg(debug_assertions)]
        {
            let mut odd = by_index.clone();
            odd.intern_counter("x.odd");
            let diverged = |f: &dyn Fn()| {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                    .expect_err("diverged layouts must fail the debug check");
                err.downcast_ref::<String>().is_some_and(|m| m == "counter layouts diverged")
            };
            assert!(diverged(&|| drop(cum.delta_from_indexed(&odd))));
            assert!(diverged(&|| prev.clone().copy_values_from(&odd)));
        }
    }

    #[test]
    fn compare_checks_names_order_and_values() {
        let mut a = MetricsRegistry::new(true);
        a.inc("x.n", 3);
        a.inc("x.m", 1);
        a.set_gauge("x.g", 0.5);
        a.observe("x.h", 7);
        assert_eq!(a.compare(&a.clone()), Ok(4));
        // The handle API builds an equal registry.
        let mut b = MetricsRegistry::new(true);
        let (n, m) = (b.intern_counter("x.n"), b.intern_counter("x.m"));
        let (g, h) = (b.intern_gauge("x.g"), b.intern_hist("x.h"));
        b.set_counter(n, 3);
        b.set_counter(m, 1);
        b.set_gauge_id(g, 0.5);
        b.set_hist(h, a.hist("x.h").unwrap());
        assert_eq!(a.compare(&b), Ok(4));

        let mut value = b.clone();
        value.set_counter(m, 2);
        assert_eq!(a.compare(&value).unwrap_err(), "counter 1: x.m = 1 vs x.m = 2");
        let mut gauge = b.clone();
        gauge.set_gauge_id(g, -0.5);
        assert!(a.compare(&gauge).unwrap_err().starts_with("gauge 0: x.g = 0.5"));
        let mut hist = b.clone();
        hist.set_hist(h, &LogHistogram::new());
        assert!(a.compare(&hist).unwrap_err().starts_with("histogram 0: x.h"));
        let mut order = MetricsRegistry::new(true);
        order.inc("x.m", 1);
        order.inc("x.n", 3);
        assert!(a.compare(&order).unwrap_err().starts_with("counter 0: x.n = 3 vs x.m = 1"));
        let mut extra = b.clone();
        extra.intern_gauge("x.more");
        assert_eq!(a.compare(&extra).unwrap_err(), "gauge 1: nothing vs x.more = 0.0");
    }

    #[test]
    fn set_mode_scope_assigns_instead_of_adding() {
        let mut m = MetricsRegistry::new(true);
        {
            let mut s = m.scoped_set("pol");
            s.inc("reconfigs", 5);
            let mut t = s.scoped("tokens");
            t.inc("granted", 10);
        }
        {
            let mut s = m.scoped_set("pol");
            s.inc("reconfigs", 7);
            let mut t = s.scoped("tokens");
            t.inc("granted", 12);
        }
        assert_eq!(m.counter("pol.reconfigs"), 7);
        assert_eq!(m.counter("pol.tokens.granted"), 12);
        let mut h = LogHistogram::new();
        h.record(1);
        m.scoped_set("pol").merge_hist("lat", &h);
        m.scoped_set("pol").merge_hist("lat", &h);
        assert_eq!(m.hist("pol.lat").unwrap().count(), 1);
    }

    #[test]
    fn registry_delta_subtracts_counters_keeps_gauges() {
        let mut prev = MetricsRegistry::new(true);
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
    }
}
