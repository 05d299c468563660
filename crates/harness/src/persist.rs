//! The persistent on-disk tier of the run cache.
//!
//! Layout: one file per cached run under the cache directory (default
//! `results/.runcache/`), named `<shard>/<032x-key>.h2r` where `<shard>`
//! is the top byte of the key in hex (256 shards; see
//! [`crate::sweep::store`] for the concurrency and crash-safety design),
//! plus a `VERSION` file holding the cache tag. Entries are a small
//! hand-rolled little-endian binary encoding of [`RunReport`] behind a
//! header (no serde — the workspace builds with zero external
//! dependencies).
//!
//! An entry has three sections. The header (the `H2RC` magic, the
//! schema, the tag) ends with the byte lengths of the first two, which
//! must fit in the rest of the file; the third takes what is left:
//!
//! 1. the *core*: every scalar, the epoch records, the channel bytes, the
//!    tenants, whether the run has telemetry, and the trace's `sample`,
//!    `dropped`, span count and each span's interval count;
//! 2. the *telemetry* registries;
//! 3. the *span* bodies.
//!
//! A load reads the header and then the prefix of the sections its caller
//! serves ([`LoadMode`]): the sweep engine the core, `RunCache` the core
//! and the telemetry, plus the spans when it dumps traces. Every load
//! decodes the core whole, and checks the span section's length against
//! the core's interval counts: a head of 25 bytes per span and 17 bytes
//! per interval. A section a load skips is checked by its length only, so
//! damage inside it is found by the next load that reads it.
//!
//! Telemetry is the largest part of most entries, and its metric names
//! repeat: a run's registries hold one of a few layouts (the counter, gauge
//! and histogram names), and the entries of one configuration and policy
//! hold the same ones. So each layout is written once, as one
//! length-prefixed *name block*. Every registry, the totals and then each
//! epoch frame, starts with one byte: its layout is the previous
//! registry's, or a new block follows. After that byte come its values
//! only. A store's loads share decoded layouts through its memo of blocks,
//! keyed by a block's exact bytes (`LayoutMemo` in
//! [`crate::sweep::store`]).
//!
//! Every count the decoder reserves memory for is bounded by the bytes left
//! in its section, at the smallest encoding of one element, so a damaged
//! count fails before it allocates more than the entry could hold.
//!
//! Invalidation rule: the tag couples a hand-bumped schema number with the
//! crate version. When the directory's `VERSION` (or an entry's header)
//! does not match the running binary's tag, the stale entries are removed
//! wholesale and the cache restarts cold. Bump [`SCHEMA_VERSION`] whenever
//! simulator behaviour or this encoding changes.

use crate::sweep::store::{LayoutMemo, ShardedStore};
use h2_sim_core::metrics::HIST_BUCKETS;
use h2_sim_core::trace_span::{BlameCause, Span, SpanInterval, MAX_SPANS};
use h2_sim_core::{LogHistogram, MetricLayout, MetricsRegistry};
use h2_system::report::{EpochFrame, EpochRecord, RunReport, RunTelemetry, RunTrace, TenantSlo};
use std::fs::{File, Metadata};
use std::io::{self, Read};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Entry-file magic.
const MAGIC: [u8; 4] = *b"H2RC";

/// Bump on any change to simulator results or to the encoding below.
/// v3: the optional request-span trace section (`RunTrace`).
/// v4: the per-tenant SLO section (`RunReport::tenants`).
/// v5: metric names move into name blocks, written once per layout and
/// referenced by a one-byte layout tag per registry; the tenant count
/// widens to a u64.
/// v6: three sections (the core, the telemetry, the span bodies), the
/// first two behind their byte lengths in the header; the spans' interval
/// counts move into the core.
/// v7: `avg_{cpu,gpu}_read_latency` cover the measured window, not the
/// whole run; the encoding is unchanged.
/// v8: each demand latency is measured from its own request's issue cycle,
/// which moves the latency histograms, the tenant SLOs and the average
/// latencies; the encoding is unchanged.
pub const SCHEMA_VERSION: u32 = 8;

/// The full cache tag: schema + code revision (crate version).
pub fn cache_tag() -> String {
    format!("schema{}+v{}", SCHEMA_VERSION, env!("CARGO_PKG_VERSION"))
}

// --- minimal binary codec -------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// A length-prefixed byte string that `write` appends; returns where
    /// its bytes lie in the buffer.
    fn bytes_with(&mut self, write: impl FnOnce(&mut Self)) -> Range<usize> {
        let at = self.buf.len();
        self.u64(0);
        write(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        at + 8..self.buf.len()
    }
    /// How many bytes `write` appends.
    fn len_of(&mut self, write: impl FnOnce(&mut Self)) -> u64 {
        let at = self.buf.len();
        write(self);
        (self.buf.len() - at) as u64
    }
    fn arr2(&mut self, v: [u64; 2]) {
        self.u64(v[0]);
        self.u64(v[1]);
    }
    fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    /// A length-prefixed byte string, borrowed from the entry bytes.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }
    /// A length-prefixed UTF-8 string, borrowed from the entry bytes.
    fn str_ref(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }
    fn str(&mut self) -> Option<String> {
        self.str_ref().map(str::to_owned)
    }
    /// Whether `n` elements of at least `min_bytes` each fit in the bytes
    /// left.
    fn fits(&self, n: usize, min_bytes: usize) -> bool {
        n <= (self.b.len() - self.pos) / min_bytes
    }
    /// An element count, rejected when that many elements of at least
    /// `min_bytes` each cannot fit in the bytes left.
    fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = self.u64()? as usize;
        self.fits(n, min_bytes).then_some(n)
    }
    /// `n` consecutive u64 words, read as one slice.
    fn words(&mut self, n: usize) -> Option<impl Iterator<Item = u64> + 'a> {
        let raw = self.take(n.checked_mul(8)?)?;
        Some(raw.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk"))))
    }
    fn arr2(&mut self) -> Option<[u64; 2]> {
        Some([self.u64()?, self.u64()?])
    }
    fn vec_u64(&mut self) -> Option<Vec<u64>> {
        let n = self.count(8)?;
        Some(self.words(n)?.collect())
    }
    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

/// Bytes of an encoded epoch record: epoch, IPC, bw, cap, tok and the
/// reconfigured flag.
const EPOCH_RECORD: usize = 5 * 8 + 1;

/// Bytes of the smallest encoded registry histogram: count, sum and a
/// bucket count.
const HIST_VALUES: usize = 3 * 8;

/// Bytes of the smallest encoded tenant: an empty name, the priority and
/// two empty histograms (count, sum and a u32 bucket count each).
const TENANT: usize = 8 + 1 + 2 * (8 + 8 + 4);

/// A registry's leading byte: it has the previous registry's layout...
const SAME_LAYOUT: u8 = 0;

/// ...or a name block follows, holding its own.
const NEW_LAYOUT: u8 = 1;

fn encode_epoch_record(e: &mut Enc, ep: &EpochRecord) {
    e.u64(ep.epoch);
    e.f64(ep.weighted_ipc);
    e.u64(ep.bw as u64);
    e.u64(ep.cap as u64);
    e.u64(ep.tok as u64);
    e.u8(ep.reconfigured as u8);
}

fn decode_epoch_record(d: &mut Dec) -> Option<EpochRecord> {
    Some(EpochRecord {
        epoch: d.u64()?,
        weighted_ipc: d.f64()?,
        bw: d.u64()? as usize,
        cap: d.u64()? as usize,
        tok: d.u64()? as usize,
        reconfigured: d.u8()? != 0,
    })
}

/// Write a registry's names as a name block's contents: for counters,
/// gauges and histograms in turn, a count and that many length-prefixed
/// names.
fn encode_names(e: &mut Enc, reg: &MetricsRegistry) {
    let [nc, ng, nh] = reg.layout().lens();
    e.u64(nc as u64);
    reg.counters().for_each(|(n, _)| e.str(n));
    e.u64(ng as u64);
    reg.gauges().for_each(|(n, _)| e.str(n));
    e.u64(nh as u64);
    reg.hists().for_each(|(n, _)| e.str(n));
}

/// The layout a name block holds, or `None` when the block is damaged: it
/// is not exactly three counted lists of names, or a name repeats within
/// one kind (the encoder never writes one).
fn parse_name_block(block: &[u8]) -> Option<MetricLayout> {
    let mut d = Dec::new(block);
    let mut kinds: [Vec<&str>; 3] = Default::default();
    for names in &mut kinds {
        // The smallest name is its length prefix.
        let n = d.count(8)?;
        names.reserve_exact(n);
        for _ in 0..n {
            names.push(d.str_ref()?);
        }
    }
    let [c, g, h] = &kinds;
    d.done().then(|| MetricLayout::from_names(c, g, h))?
}

/// What [`encode_registry`] remembers of the registry before: its layout,
/// and where in the entry the last name block lies (empty before the
/// first; a block never is).
#[derive(Default)]
struct LastLayout<'r> {
    layout: Option<&'r Arc<MetricLayout>>,
    block: Range<usize>,
}

/// Encode one registry: the layout byte, a name block when its names
/// differ from the last block's, then its values in layout order.
fn encode_registry<'r>(e: &mut Enc, reg: &'r MetricsRegistry, last: &mut LastLayout<'r>) {
    if last.layout.is_some_and(|l| Arc::ptr_eq(l, reg.layout())) {
        e.u8(SAME_LAYOUT);
    } else {
        // Equal names can sit behind two layouts: write the block, and take
        // it back when it repeats the last one.
        let at = e.buf.len();
        e.u8(NEW_LAYOUT);
        let block = e.bytes_with(|e| encode_names(e, reg));
        if e.buf[block.clone()] == e.buf[last.block.clone()] {
            e.buf.truncate(at);
            e.u8(SAME_LAYOUT);
        } else {
            last.block = block;
        }
    }
    last.layout = Some(reg.layout());
    reg.counters().for_each(|(_, v)| e.u64(v));
    reg.gauges().for_each(|(_, v)| e.f64(v));
    for (_, h) in reg.hists() {
        e.u64(h.count());
        e.u64(h.sum());
        e.u64(h.nonzero_buckets().count() as u64);
        for (b, c) in h.nonzero_buckets() {
            e.u8(b as u8);
            e.u64(c);
        }
    }
}

/// Decode one registry. Its layout is the previous registry's (`layout`,
/// `None` before the first), or a name block follows: `layouts` shares
/// the layout of a block with the same bytes that it has already
/// validated, and parses the others. Then come its values, as many of
/// each kind as the layout names.
fn decode_registry(
    d: &mut Dec,
    layouts: &LayoutMemo,
    layout: &mut Option<Arc<MetricLayout>>,
) -> Option<MetricsRegistry> {
    match d.u8()? {
        SAME_LAYOUT => {}
        NEW_LAYOUT => *layout = Some(layouts.layout(d.bytes()?, parse_name_block)?),
        _ => return None,
    }
    let layout = layout.as_ref()?;
    let [nc, ng, nh] = layout.lens();
    let counters = d.words(nc)?.collect();
    let gauges = d.words(ng)?.map(f64::from_bits).collect();
    if !d.fits(nh, HIST_VALUES) {
        return None;
    }
    let mut hists = Vec::with_capacity(nh);
    for _ in 0..nh {
        let count = d.u64()?;
        let sum = d.u64()?;
        let nb = d.u64()? as usize;
        hists.push(decode_buckets(d, count, sum, nb)?);
    }
    Some(MetricsRegistry::from_parts(Arc::clone(layout), counters, gauges, hists))
}

/// A histogram's `nb` encoded `(bucket, count)` pairs, read through a
/// stack buffer.
fn decode_buckets(d: &mut Dec, count: u64, sum: u64, nb: usize) -> Option<LogHistogram> {
    if nb > HIST_BUCKETS {
        return None;
    }
    let mut buckets = [(0, 0); HIST_BUCKETS];
    for b in &mut buckets[..nb] {
        *b = (d.u8()? as usize, d.u64()?);
    }
    Some(LogHistogram::from_parts(count, sum, &buckets[..nb]))
}

/// How much of an entry a load reads and decodes. An entry's sections
/// follow its header in this order (the core, the telemetry, the spans),
/// so every mode reads the header and then a prefix of the sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LoadMode {
    /// The core only. The report comes back without its telemetry, and a
    /// traced report with its trace's `sample` and `dropped` but no spans.
    Core,
    /// The core and the telemetry. A traced report comes back without its
    /// spans.
    Spanless,
    /// Every section.
    Full,
}

impl LoadMode {
    /// How many sections, from the first, this mode reads.
    fn sections(self) -> usize {
        self as usize + 1
    }
}

/// Encode `report` with the persistence codec and decode it straight back.
/// This is the fuzzer's codec oracle: for every randomly generated run,
/// `decode(encode(r))` must reproduce `r` exactly (the caller diffs the
/// result). Errors mean the decoder rejected bytes the encoder just wrote.
pub fn codec_roundtrip(report: &RunReport) -> Result<RunReport, String> {
    let tag = cache_tag();
    let bytes = encode_report(report, &tag);
    decode_report(&bytes, &tag, LoadMode::Full).ok_or_else(|| {
        format!(
            "decoder rejected a freshly encoded {}-byte entry (tag {tag})",
            bytes.len()
        )
    })
}

/// Bytes of an entry's header for `tag`: the magic, the schema, the
/// length-prefixed tag and the core's and the telemetry's lengths.
fn header_len(tag: &str) -> usize {
    MAGIC.len() + 4 + 8 + tag.len() + 2 * 8
}

pub(crate) fn encode_report(r: &RunReport, tag: &str) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.extend_from_slice(&MAGIC);
    e.u32(SCHEMA_VERSION);
    e.str(tag);
    let lens_at = e.buf.len();
    e.buf.resize(lens_at + 2 * 8, 0);
    let lens = [
        e.len_of(|e| encode_core(e, r)),
        e.len_of(|e| {
            if let Some(t) = &r.telemetry {
                encode_telemetry(e, t);
            }
        }),
    ];
    for (i, len) in lens.into_iter().enumerate() {
        let at = lens_at + 8 * i;
        e.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
    if let Some(t) = &r.trace {
        encode_spans(&mut e, &t.spans);
    }
    e.buf
}

/// Write the core section: every scalar, the epoch records, the channel
/// bytes, whether the run has telemetry, the trace's header with each
/// span's interval count, and the tenants.
fn encode_core(e: &mut Enc, r: &RunReport) {
    e.str(&r.policy);
    e.str(&r.mix);
    e.u64(r.measured_cycles);
    e.u64(r.cpu_instr);
    e.u64(r.gpu_instr);
    e.f64(r.weights.0);
    e.f64(r.weights.1);

    let h = &r.hmc;
    e.arr2(h.accesses);
    e.arr2(h.fast_hits);
    e.arr2(h.fast_misses);
    e.arr2(h.migrations);
    e.arr2(h.bypasses);
    e.u64(h.victim_writebacks);
    e.u64(h.swaps);
    e.u64(h.lazy_fixups);
    e.u64(h.meta_reads);
    e.u64(h.meta_writebacks);
    e.arr2(h.migrations_denied);
    e.arr2(h.buffer_denied);

    for m in [&r.fast, &r.slow] {
        e.u64(m.reads);
        e.u64(m.writes);
        e.u64(m.bytes);
        e.u64(m.activations);
        e.u64(m.row_hits);
        e.u64(m.row_conflicts);
        e.u64(m.busy_cycles);
        e.u64(m.enqueued);
        e.u64(m.max_queue);
    }
    for en in [&r.fast_energy, &r.slow_energy] {
        e.f64(en.dynamic_rw_j);
        e.f64(en.act_pre_j);
        e.f64(en.static_j);
    }
    e.f64(r.remap_hit_rate);
    e.u64(r.final_params.bw as u64);
    e.u64(r.final_params.cap as u64);
    e.u64(r.final_params.tok as u64);
    e.str(&r.final_params.label);

    e.u64(r.epoch_trace.len() as u64);
    for ep in &r.epoch_trace {
        encode_epoch_record(e, ep);
    }

    e.u64(r.events_processed);
    e.f64(r.wall_s);
    e.f64(r.events_per_sec);
    e.u64(r.clamped_events);
    e.f64(r.avg_cpu_read_latency);
    e.f64(r.avg_gpu_read_latency);
    e.vec_u64(&r.fast_channel_bytes);
    e.vec_u64(&r.slow_channel_bytes);

    e.u8(r.telemetry.is_some() as u8);
    match &r.trace {
        None => e.u8(0),
        Some(t) => {
            e.u8(1);
            e.u64(t.sample);
            e.u64(t.dropped);
            e.u64(t.spans.len() as u64);
            for s in &t.spans {
                e.u64(s.intervals.len() as u64);
            }
        }
    }

    e.u64(r.tenants.len() as u64);
    for t in &r.tenants {
        e.str(&t.name);
        e.u8(t.priority);
        for h in [&t.cpu_lat, &t.gpu_lat] {
            e.u64(h.count());
            e.u64(h.sum());
            let nz: Vec<_> = h.nonzero_buckets().collect();
            e.u32(nz.len() as u32);
            for (b, c) in nz {
                e.u8(b as u8);
                e.u64(c);
            }
        }
    }
}

/// Write the telemetry section: the totals registry, then a record and a
/// registry per epoch frame.
fn encode_telemetry(e: &mut Enc, t: &RunTelemetry) {
    let mut last = LastLayout::default();
    encode_registry(e, &t.totals, &mut last);
    e.u64(t.epochs.len() as u64);
    for f in &t.epochs {
        encode_epoch_record(e, &f.record);
        encode_registry(e, &f.metrics, &mut last);
    }
}

/// Write the span section: each span's head and its intervals. Their
/// counts are in the core.
fn encode_spans(e: &mut Enc, spans: &[Span]) {
    for s in spans {
        e.u64(s.id);
        e.u8(s.class);
        e.u64(s.start);
        e.u64(s.end);
        for iv in &s.intervals {
            e.u8(iv.cause.as_u8());
            e.u64(iv.start);
            e.u64(iv.end);
        }
    }
}

fn decode_hist(d: &mut Dec) -> Option<LogHistogram> {
    let count = d.u64()?;
    let sum = d.u64()?;
    let nb = d.u32()? as usize;
    decode_buckets(d, count, sum, nb)
}

/// Bytes of an encoded span head: id, class, start and end.
const SPAN_HEAD: usize = 8 + 1 + 8 + 8;

/// Bytes of one encoded interval: cause, start and end.
const INTERVAL: usize = 1 + 8 + 8;

/// The three section lengths of an entry whose first [`header_len`]
/// bytes are `header` and whose `body` bytes follow it, when its magic,
/// schema and tag are this build's and the core and the telemetry fit in
/// the body. The span section is the rest of the body.
fn parse_header(header: &[u8], tag: &str, body: u64) -> Option<[usize; 3]> {
    let mut d = Dec::new(header);
    if d.take(4)? != MAGIC || d.u32()? != SCHEMA_VERSION || d.str_ref()? != tag {
        return None;
    }
    let (core, telemetry) = (d.u64()?, d.u64()?);
    let spans = body.checked_sub(core.checked_add(telemetry)?)?;
    let [core, telemetry, spans] = [core, telemetry, spans].map(usize::try_from);
    Some([core.ok()?, telemetry.ok()?, spans.ok()?])
}

/// Decode a core section, which must end where the section does: the
/// report without telemetry and without spans, whether the run has
/// telemetry, and for a traced run its spans' interval counts (one u64
/// per span, borrowed from the section).
fn decode_core(core: &[u8]) -> Option<(RunReport, bool, Option<&[u8]>)> {
    let mut d = Dec::new(core);
    let policy = d.str()?;
    let mix = d.str()?;
    let measured_cycles = d.u64()?;
    let cpu_instr = d.u64()?;
    let gpu_instr = d.u64()?;
    let weights = (d.f64()?, d.f64()?);

    let hmc = h2_hybrid::HmcStats {
        accesses: d.arr2()?,
        fast_hits: d.arr2()?,
        fast_misses: d.arr2()?,
        migrations: d.arr2()?,
        bypasses: d.arr2()?,
        victim_writebacks: d.u64()?,
        swaps: d.u64()?,
        lazy_fixups: d.u64()?,
        meta_reads: d.u64()?,
        meta_writebacks: d.u64()?,
        migrations_denied: d.arr2()?,
        buffer_denied: d.arr2()?,
    };

    let mut mems = Vec::with_capacity(2);
    for _ in 0..2 {
        mems.push(h2_mem::device::MemStats {
            reads: d.u64()?,
            writes: d.u64()?,
            bytes: d.u64()?,
            activations: d.u64()?,
            row_hits: d.u64()?,
            row_conflicts: d.u64()?,
            busy_cycles: d.u64()?,
            enqueued: d.u64()?,
            max_queue: d.u64()?,
        });
    }
    let slow = mems.pop()?;
    let fast = mems.pop()?;

    let mut energies = Vec::with_capacity(2);
    for _ in 0..2 {
        energies.push(h2_mem::EnergyBreakdown {
            dynamic_rw_j: d.f64()?,
            act_pre_j: d.f64()?,
            static_j: d.f64()?,
        });
    }
    let slow_energy = energies.pop()?;
    let fast_energy = energies.pop()?;

    let remap_hit_rate = d.f64()?;
    let final_params = h2_hybrid::policy::PolicyParams {
        bw: d.u64()? as usize,
        cap: d.u64()? as usize,
        tok: d.u64()? as usize,
        label: d.str()?,
    };

    let n_epochs = d.count(EPOCH_RECORD)?;
    let mut epoch_trace = Vec::with_capacity(n_epochs);
    for _ in 0..n_epochs {
        epoch_trace.push(decode_epoch_record(&mut d)?);
    }

    let events_processed = d.u64()?;
    let wall_s = d.f64()?;
    let events_per_sec = d.f64()?;
    let clamped_events = d.u64()?;
    let avg_cpu_read_latency = d.f64()?;
    let avg_gpu_read_latency = d.f64()?;
    let fast_channel_bytes = d.vec_u64()?;
    let slow_channel_bytes = d.vec_u64()?;

    let has_telemetry = match d.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let (trace, interval_counts) = match d.u8()? {
        0 => (None, None),
        1 => {
            let sample = d.u64()?;
            let dropped = d.u64()?;
            let n = d.count(8)?;
            if n > MAX_SPANS {
                return None;
            }
            (Some(RunTrace { sample, dropped, spans: Vec::new() }), Some(d.take(n * 8)?))
        }
        _ => return None,
    };

    let nt = d.count(TENANT)?;
    let mut tenants = Vec::with_capacity(nt);
    for _ in 0..nt {
        let name = d.str()?;
        let priority = d.u8()?;
        let cpu_lat = decode_hist(&mut d)?;
        let gpu_lat = decode_hist(&mut d)?;
        tenants.push(TenantSlo { name, priority, cpu_lat, gpu_lat });
    }
    if !d.done() {
        return None;
    }

    let report = RunReport {
        policy,
        mix,
        measured_cycles,
        cpu_instr,
        gpu_instr,
        weights,
        hmc,
        fast,
        slow,
        fast_energy,
        slow_energy,
        remap_hit_rate,
        final_params,
        epoch_trace,
        events_processed,
        wall_s,
        events_per_sec,
        clamped_events,
        avg_cpu_read_latency,
        avg_gpu_read_latency,
        fast_channel_bytes,
        slow_channel_bytes,
        telemetry: None,
        trace,
        tenants,
    };
    Some((report, has_telemetry, interval_counts))
}

/// The bytes a span section holds for spans with these interval counts:
/// a head per span and every interval; `None` when that overflows.
fn span_section_len(interval_counts: &[u8]) -> Option<u64> {
    let n = interval_counts.len() / 8;
    let mut intervals = 0u64;
    for c in Dec::new(interval_counts).words(n)? {
        intervals = intervals.checked_add(c)?;
    }
    intervals.checked_mul(INTERVAL as u64)?.checked_add((n * SPAN_HEAD) as u64)
}

/// Decode a telemetry section, which must end where the section does.
fn decode_telemetry(section: &[u8], layouts: &LayoutMemo) -> Option<RunTelemetry> {
    let mut d = Dec::new(section);
    let mut layout = None;
    let totals = decode_registry(&mut d, layouts, &mut layout)?;
    // The smallest frame is its record and a layout byte.
    let n = d.count(EPOCH_RECORD + 1)?;
    let mut epochs = Vec::with_capacity(n);
    for _ in 0..n {
        let record = decode_epoch_record(&mut d)?;
        let metrics = decode_registry(&mut d, layouts, &mut layout)?;
        epochs.push(EpochFrame { record, metrics });
    }
    d.done().then_some(RunTelemetry { totals, epochs })
}

/// Decode a span section whose length [`span_section_len`] has checked
/// against `interval_counts`, so no count reserves more than it holds.
fn decode_spans(section: &[u8], interval_counts: &[u8]) -> Option<Vec<Span>> {
    let mut d = Dec::new(section);
    let n = interval_counts.len() / 8;
    let mut spans = Vec::with_capacity(n);
    for ni in Dec::new(interval_counts).words(n)? {
        let id = d.u64()?;
        let class = d.u8()?;
        let start = d.u64()?;
        let end = d.u64()?;
        let mut intervals = Vec::with_capacity(ni as usize);
        for _ in 0..ni {
            let cause = BlameCause::from_u8(d.u8()?)?;
            intervals.push(SpanInterval { cause, start: d.u64()?, end: d.u64()? });
        }
        spans.push(Span { id, class, start, end, intervals });
    }
    d.done().then_some(spans)
}

/// Decode the sections `mode` reads. `body` is the entry behind its
/// header, at least through those sections, and `lens` are the three
/// section lengths [`parse_header`] found. Every mode decodes the core
/// whole and checks that the telemetry section is empty exactly when the
/// run has none, and that the span section holds exactly what the core's
/// interval counts say; a section the mode skips is checked by that
/// length only. Name blocks go through `layouts`: the entry shares the
/// layout of every block the memo has validated before, and a new block
/// that parses joins the memo.
fn decode_sections(
    body: &[u8],
    lens: [usize; 3],
    mode: LoadMode,
    layouts: &LayoutMemo,
) -> Option<RunReport> {
    let [core, telemetry, spans] = lens;
    let (mut report, has_telemetry, interval_counts) = decode_core(body.get(..core)?)?;
    let span_bytes = match interval_counts {
        Some(counts) => span_section_len(counts)?,
        None => 0,
    };
    if has_telemetry != (telemetry > 0) || span_bytes != spans as u64 {
        return None;
    }
    if mode >= LoadMode::Spanless && has_telemetry {
        let section = body.get(core..core + telemetry)?;
        report.telemetry = Some(decode_telemetry(section, layouts)?);
    }
    if let (LoadMode::Full, Some(trace), Some(counts)) = (mode, &mut report.trace, interval_counts)
    {
        let at = core + telemetry;
        trace.spans = decode_spans(body.get(at..at + spans)?, counts)?;
    }
    Some(report)
}

/// Decode one entry held in memory, reading the sections `mode` asks for;
/// `None` when any of what it reads is damaged. Name blocks go through a
/// memo that starts empty, so every block is parsed.
pub(crate) fn decode_report(bytes: &[u8], tag: &str, mode: LoadMode) -> Option<RunReport> {
    let (header, body) = bytes.split_at_checked(header_len(tag))?;
    let lens = parse_header(header, tag, body.len() as u64)?;
    decode_sections(body, lens, mode, &LayoutMemo::default())
}

/// Read the entry open in `file` and decode the sections `mode` asks for,
/// sharing name blocks through `layouts`. Returns the report and the
/// file's metadata (its mtime is the store's last-used stamp),
/// `Ok(None)` when the entry is damaged, or the error that stopped the
/// read. The metadata comes from the open handle, not from the path, so
/// it is this entry's even while a writer publishes another over the
/// path. After the open this reads the metadata, the header and the
/// sections the mode needs: no more system calls than reading the whole
/// file. Nothing is allocated for the sections before the header's
/// lengths have been checked against the file's.
pub(crate) fn read_report(
    file: &mut File,
    tag: &str,
    mode: LoadMode,
    layouts: &LayoutMemo,
) -> io::Result<Option<(RunReport, Metadata)>> {
    let meta = file.metadata()?;
    let len = meta.len();
    let header_len = header_len(tag);
    let Some(body) = len.checked_sub(header_len as u64) else {
        return Ok(None);
    };
    let mut header = vec![0; header_len];
    file.read_exact(&mut header)?;
    let Some(lens) = parse_header(&header, tag, body) else {
        return Ok(None);
    };
    let mut sections = vec![0; lens[..mode.sections()].iter().sum()];
    file.read_exact(&mut sections)?;
    Ok(decode_sections(&sections, lens, mode, layouts).map(|r| (r, meta)))
}

/// Where each section of an intact entry lies: the core, the telemetry
/// and the spans.
#[cfg(test)]
pub(crate) fn sections(bytes: &[u8], tag: &str) -> [Range<usize>; 3] {
    let at = header_len(tag);
    let body = (bytes.len() - at) as u64;
    let lens = parse_header(&bytes[..at], tag, body).expect("an intact header");
    let mut end = at;
    lens.map(|len| {
        end += len;
        end - len..end
    })
}

// --- the disk tier --------------------------------------------------------

/// A directory of persisted runs, validated against [`cache_tag`].
///
/// Since the sweep-service work this is a thin wrapper over the sharded,
/// concurrent-safe store ([`crate::sweep::store::ShardedStore`]): entries
/// live in 256 key-prefix shard directories, publishes are atomic with
/// thread-unique temp names, damaged entries are quarantined as `*.bad`,
/// and entry mtimes order the LRU evictor (`h2 cache gc`). Entries of
/// the flat single-directory layout older revisions wrote carry an older
/// `VERSION`, so opening such a directory wipes them.
#[derive(Debug)]
pub struct DiskTier {
    inner: ShardedStore,
}

impl DiskTier {
    /// Open (creating if needed) the tier at `dir`. A tag mismatch wipes
    /// stale entries so the cache restarts cold instead of serving results
    /// from an older simulator revision.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Ok(Self { inner: ShardedStore::open(dir)? })
    }

    /// The directory this tier lives in.
    pub fn dir(&self) -> &Path {
        self.inner.dir()
    }

    /// Load a persisted run, if present and valid. Damaged entries are
    /// quarantined and read as misses.
    pub fn load(&self, key: u128) -> Option<RunReport> {
        self.inner.load(key)
    }

    /// Persist a run (atomically: write a uniquely named temp file, then
    /// rename, so a concurrent reader or a crash never sees a
    /// half-written entry).
    pub fn store(&self, key: u128, report: &RunReport) -> io::Result<()> {
        self.inner.store(key, report)
    }

    /// Number of entries currently on disk.
    pub fn entries(&self) -> usize {
        self.inner.entries()
    }

    /// The underlying sharded store (stats, gc, fault injection).
    pub fn sharded(&self) -> &ShardedStore {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_system::{run_sim, PolicyKind, SystemConfig};
    use h2_trace::Mix;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::fs;
    use std::path::PathBuf;

    /// This test binary's allocator: the system's, noting the largest
    /// request each thread makes, so a test can bound what a decode
    /// reserves.
    struct NoteLargest;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: every method passes its caller's arguments on to `System`
    // unchanged, so `System`'s guarantees are this allocator's; `note` only
    // touches a `const`-initialised thread-local cell and never allocates.
    unsafe impl GlobalAlloc for NoteLargest {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: NoteLargest = NoteLargest;

    /// What `f` returns, and the largest allocation it made.
    fn largest_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
        LARGEST.with(|l| l.set(0));
        let r = f();
        (r, LARGEST.with(Cell::get))
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "h2-persist-{}-{}",
            name,
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_report() -> RunReport {
        let mut cfg = SystemConfig::tiny();
        cfg.warmup_cycles = 50_000;
        cfg.measure_cycles = 100_000;
        run_sim(&cfg, &Mix::by_name("C1").unwrap(), PolicyKind::HydrogenFull)
    }

    fn assert_reports_equal(a: &RunReport, b: &RunReport) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.mix, b.mix);
        assert_eq!(a.cpu_instr, b.cpu_instr);
        assert_eq!(a.gpu_instr, b.gpu_instr);
        assert_eq!(a.hmc, b.hmc);
        assert_eq!(a.fast, b.fast);
        assert_eq!(a.slow, b.slow);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.remap_hit_rate.to_bits(), b.remap_hit_rate.to_bits());
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.epoch_trace, b.epoch_trace);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.wall_s.to_bits(), b.wall_s.to_bits());
        assert_eq!(a.clamped_events, b.clamped_events);
        assert_eq!(a.fast_channel_bytes, b.fast_channel_bytes);
        assert_eq!(a.slow_channel_bytes, b.slow_channel_bytes);
        // Telemetry roundtrips byte-exactly (canonical JSON as the witness).
        assert_eq!(a.telemetry.is_some(), b.telemetry.is_some());
        assert_eq!(a.telemetry_json_string(), b.telemetry_json_string());
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.tenants, b.tenants);
    }

    #[test]
    fn tenant_section_roundtrips() {
        let mut r = sample_report();
        let mut h = LogHistogram::new();
        for v in [3, 90, 4000] {
            h.record(v);
        }
        r.tenants = vec![
            TenantSlo {
                name: "inference".into(),
                priority: 0,
                cpu_lat: h.clone(),
                gpu_lat: LogHistogram::new(),
            },
            TenantSlo {
                name: "batch".into(),
                priority: 2,
                cpu_lat: LogHistogram::new(),
                gpu_lat: h,
            },
        ];
        let bytes = encode_report(&r, "tagX");
        let back = decode_report(&bytes, "tagX", LoadMode::Full).expect("decodes");
        assert_reports_equal(&r, &back);
    }

    /// Whether two registries point at one shared layout.
    fn shares_layout(a: &MetricsRegistry, b: &MetricsRegistry) -> bool {
        Arc::ptr_eq(a.layout(), b.layout())
    }

    #[test]
    fn roundtrip_is_lossless() {
        let r = sample_report();
        let bytes = encode_report(&r, "tagX");
        let back = decode_report(&bytes, "tagX", LoadMode::Full).expect("decodes");
        assert_reports_equal(&r, &back);
        // Every decoded frame shares one layout.
        let frames = &back.telemetry.as_ref().expect("telemetry on").epochs;
        assert!(frames.len() > 1, "need several frames, got {}", frames.len());
        assert!(frames.windows(2).all(|w| shares_layout(&w[0].metrics, &w[1].metrics)));
    }

    #[test]
    fn duplicate_metric_names_reject() {
        let mut r = sample_report();
        let totals = &mut r.telemetry.as_mut().expect("telemetry on").totals;
        totals.inc("dup.a", 1);
        totals.inc("dup.b", 2);
        let mut bytes = encode_report(&r, "tagX");
        assert!(decode_report(&bytes, "tagX", LoadMode::Full).is_some());
        let at = bytes.windows(5).position(|w| w == b"dup.b").expect("name encoded");
        bytes[at + 4] = b'a';
        assert!(decode_report(&bytes, "tagX", LoadMode::Full).is_none(), "a repeated name is damage");
    }

    /// `bytes` with the one occurrence of `from` replaced by `to`, a name
    /// of the same length.
    fn renamed(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let mut at = bytes.windows(from.len()).enumerate().filter(|(_, w)| *w == from);
        let (i, _) = at.next().expect("name encoded");
        assert!(at.next().is_none(), "name encoded once");
        let mut out = bytes.to_vec();
        out[i..i + to.len()].copy_from_slice(to);
        out
    }

    /// Write `bytes` as the entry of `key` (a key below 2^120, so shard 00).
    fn plant(tier: &DiskTier, key: u128, bytes: &[u8]) {
        let shard = tier.dir().join("00");
        fs::create_dir_all(&shard).unwrap();
        fs::write(shard.join(format!("{key:032x}.h2r")), bytes).unwrap();
    }

    /// `sample_report` with two extra totals counters, `probe.a` and
    /// `probe.b`, for tests that edit one name in place.
    fn probed_report() -> RunReport {
        let mut r = sample_report();
        let totals = &mut r.telemetry.as_mut().expect("telemetry on").totals;
        totals.inc("probe.a", 1);
        totals.inc("probe.b", 2);
        r
    }

    #[test]
    fn loads_from_one_store_share_each_layout() {
        let dir = tmp_dir("shared-layouts");
        let tier = DiskTier::open(&dir).unwrap();
        let mut cfg = SystemConfig::tiny();
        cfg.warmup_cycles = 50_000;
        cfg.measure_cycles = 100_000;
        cfg.seed = 7;
        let other_seed = run_sim(&cfg, &Mix::by_name("C1").unwrap(), PolicyKind::HydrogenFull);
        tier.store(1, &sample_report()).unwrap();
        tier.store(2, &other_seed).unwrap();
        let telemetry = |key| tier.load(key).expect("hit").telemetry.expect("telemetry on");
        let (a, b) = (telemetry(1), telemetry(2));
        assert!(shares_layout(&a.totals, &b.totals));
        let frame = &a.epochs[0].metrics;
        assert!(!shares_layout(&a.totals, frame), "totals and frames have layouts of their own");
        assert!(a.epochs.iter().chain(&b.epochs).all(|f| shares_layout(&f.metrics, frame)));
        // The layouts belong to the store handle: a second one parses its own.
        let apart = DiskTier::open(&dir).unwrap().load(1).unwrap().telemetry.unwrap();
        assert!(!shares_layout(&apart.totals, &a.totals));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_block_with_a_duplicate_name_is_quarantined_and_never_memoised() {
        let dir = tmp_dir("dup-block");
        let tier = DiskTier::open(&dir).unwrap();
        let r = probed_report();
        let intact = encode_report(&r, &cache_tag());
        let damaged = renamed(&intact, b"probe.b", b"probe.a");
        // The second entry carries the same block: a memo that had admitted
        // it would serve this one.
        for key in [1, 2] {
            plant(&tier, key, &damaged);
            assert!(tier.load(key).is_none(), "entry {key} is damaged");
            assert_eq!(tier.sharded().quarantined(), key as u64);
        }
        plant(&tier, 3, &intact);
        assert_reports_equal(&r, &tier.load(3).expect("the intact entry loads"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_block_one_byte_off_misses_the_memo() {
        let dir = tmp_dir("near-block");
        let tier = DiskTier::open(&dir).unwrap();
        let r = probed_report();
        let known = encode_report(&r, &cache_tag());
        let near = renamed(&known, b"probe.b", b"probe.c");
        assert_eq!(known.len(), near.len());
        plant(&tier, 1, &known);
        plant(&tier, 2, &near);
        assert_reports_equal(&r, &tier.load(1).expect("hit"));
        let back = tier.load(2).expect("hit");
        let totals = &back.telemetry.as_ref().expect("telemetry on").totals;
        assert_eq!((totals.counter("probe.b"), totals.counter("probe.c")), (0, 2));
        let alone = decode_report(&near, &cache_tag(), LoadMode::Full).expect("decodes");
        assert_eq!(back.telemetry_json_string(), alone.telemetry_json_string());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_that_change_layout_mid_run_round_trip() {
        let mut r = sample_report();
        let t = r.telemetry.as_mut().expect("telemetry on");
        let first = t.epochs[0].clone();
        // Two frames gain a name, each copying the layout for itself, then
        // the last frame goes back to the first one's names.
        let mut late = [first.clone(), first.clone()];
        for (f, v) in late.iter_mut().zip(1..) {
            f.metrics.inc("late.metric", v);
        }
        assert!(!shares_layout(&late[0].metrics, &late[1].metrics));
        t.epochs = [first.clone()].into_iter().chain(late).chain([first]).collect();
        let bytes = encode_report(&r, "t");
        let blocks = bytes.windows(11).filter(|w| *w == b"late.metric").count();
        assert_eq!(blocks, 1, "equal names behind two layouts are written once");
        let back = decode_report(&bytes, "t", LoadMode::Full).expect("decodes");
        assert_reports_equal(&r, &back);
        let frames = &back.telemetry.as_ref().expect("telemetry on").epochs;
        let share = |i: usize, j: usize| shares_layout(&frames[i].metrics, &frames[j].metrics);
        assert!(share(1, 2) && share(0, 3) && !share(0, 1));
    }

    /// `sample_report` traced at rate `sample`, with its telemetry kept or
    /// cleared (as a core-only load leaves it).
    fn traced_report(sample: u64, telemetry: bool) -> RunReport {
        let mut cfg = SystemConfig::tiny();
        cfg.warmup_cycles = 50_000;
        cfg.measure_cycles = 100_000;
        cfg.trace_sample = Some(sample);
        let mut r = run_sim(&cfg, &Mix::by_name("C1").unwrap(), PolicyKind::HydrogenFull);
        assert!(
            r.trace.as_ref().is_some_and(|t| !t.spans.is_empty()),
            "tracing at rate {sample} should sample spans"
        );
        if !telemetry {
            r.telemetry = None;
        }
        r
    }

    #[test]
    fn traced_roundtrip_is_lossless() {
        let r = traced_report(8, true);
        let bytes = encode_report(&r, "tagX");
        let back = decode_report(&bytes, "tagX", LoadMode::Full).expect("decodes");
        assert_reports_equal(&r, &back);
    }

    /// Every load mode, from the least read to the most.
    const MODES: [LoadMode; 3] = [LoadMode::Core, LoadMode::Spanless, LoadMode::Full];

    #[test]
    fn spanless_decode_is_the_full_decode_without_spans() {
        let bytes = encode_report(&traced_report(8, true), "tagX");
        let full = decode_report(&bytes, "tagX", LoadMode::Full).expect("decodes");
        assert!(full.telemetry.is_some());
        assert!(full.trace.as_ref().is_some_and(|t| !t.spans.is_empty()));
        // What each mode leaves out of the full decode, in `MODES` order.
        let mut spanless = full.clone();
        spanless.trace.as_mut().unwrap().spans.clear();
        let core = RunReport { telemetry: None, ..spanless.clone() };
        for (mode, want) in MODES.into_iter().zip([core, spanless, full]) {
            let got = decode_report(&bytes, "tagX", mode).expect("decodes");
            assert_reports_equal(&want, &got);
            // The encoder writes every field, so equal encodings are equal
            // reports field for field.
            assert_eq!(encode_report(&want, "tagX"), encode_report(&got, "tagX"), "{mode:?}");
        }
    }

    /// Where the first interval's cause byte sits in `r`'s entry: behind
    /// the first span's head, at the start of the span section.
    fn first_cause_at(r: &RunReport, tag: &str) -> usize {
        let [_, _, spans] = sections(&encode_report(r, tag), tag);
        spans.start + SPAN_HEAD
    }

    #[test]
    fn more_than_max_spans_reject_in_both_modes() {
        let mut r = traced_report(256, false);
        let trace = r.trace.as_mut().unwrap();
        let span = Span { intervals: Vec::new(), ..trace.spans[0].clone() };
        trace.spans = vec![span; MAX_SPANS + 1];
        let bytes = encode_report(&r, "t");
        for mode in MODES {
            assert!(decode_report(&bytes, "t", mode).is_none(), "{mode:?}");
        }
    }

    #[test]
    fn spanless_load_passes_a_bad_cause_and_the_full_load_quarantines_it() {
        let dir = tmp_dir("bad-cause");
        let tier = DiskTier::open(&dir).unwrap();
        let r = traced_report(8, true);
        let cause = r.trace.as_ref().unwrap().spans[0].intervals[0].cause;
        let mut bytes = encode_report(&r, &cache_tag());
        let at = first_cause_at(&r, &cache_tag());
        assert_eq!(bytes[at], cause.as_u8());
        bytes[at] = u8::MAX;
        tier.store(3, &r).unwrap();
        let entry = dir.join("00").join(format!("{:032x}.h2r", 3u128));
        fs::write(&entry, &bytes).unwrap();
        let lean = tier.sharded().load_with(3, LoadMode::Spanless).expect("a span-less load serves it");
        assert!(lean.trace.is_some_and(|t| t.spans.is_empty()));
        assert_eq!(tier.sharded().quarantined(), 0);
        assert!(tier.load(3).is_none(), "the full load rejects the cause byte");
        assert_eq!(tier.sharded().quarantined(), 1);
        assert!(entry.with_extension("bad").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tag_mismatch_rejects() {
        let r = sample_report();
        let bytes = encode_report(&r, "tagX");
        assert!(decode_report(&bytes, "tagY", LoadMode::Full).is_none());
    }

    #[test]
    fn truncated_entry_rejects() {
        // No telemetry keeps the entry small enough to cut at every byte.
        let bytes = encode_report(&traced_report(256, false), "t");
        for cut in 0..bytes.len() {
            for mode in MODES {
                let decoded = decode_report(&bytes[..cut], "t", mode);
                assert!(decoded.is_none(), "cut={cut} {mode:?}");
            }
        }
    }

    #[test]
    fn extended_entry_rejects() {
        let bytes = encode_report(&traced_report(8, true), "t");
        for byte in [0, 0xA5] {
            let mut longer = bytes.clone();
            longer.push(byte);
            for mode in MODES {
                assert!(decode_report(&bytes, "t", mode).is_some(), "{mode:?}");
                assert!(decode_report(&longer, "t", mode).is_none(), "{mode:?}");
            }
        }
    }

    #[test]
    fn entry_cut_inside_its_telemetry_rejects() {
        // The telemetry section: the totals registry, then one record and
        // registry per epoch frame.
        let bytes = encode_report(&traced_report(8, true), "t");
        let [_, telemetry, _] = sections(&bytes, "t");
        let (start, end) = (telemetry.start, telemetry.end);
        assert!(end - start > 10_000, "telemetry section is {} B", end - start);
        for mode in MODES {
            assert!(decode_report(&bytes, "t", mode).is_some(), "{mode:?}");
            // A stride prime to 8 cuts the section's u64 fields at every
            // byte offset.
            for cut in (start..=end).step_by(7).chain(end - 16..=end) {
                let decoded = decode_report(&bytes[..cut], "t", mode);
                assert!(decoded.is_none(), "cut={cut} {mode:?}");
            }
        }
    }

    #[test]
    fn damaged_counts_reserve_less_than_the_entry() {
        let r = traced_report(64, true);
        assert!(r.tenants.is_empty() && !r.epoch_trace.is_empty());
        let bytes = encode_report(&r, "t");
        let [core, ..] = sections(&bytes, "t");
        // Where `bytes` first differs from `other`'s entry behind the
        // header: the low byte of the count of what `other` left out.
        let count_at = |other: RunReport| {
            let other = encode_report(&other, "t");
            let at = core.start;
            bytes[at..].iter().zip(&other[at..]).position(|(a, b)| a != b).expect("entries differ")
                + at
        };
        let mut no_frames = r.clone();
        no_frames.telemetry.as_mut().unwrap().epochs.clear();
        let mut no_spans = r.clone();
        no_spans.trace.as_mut().unwrap().spans.clear();
        let spans_at = count_at(no_spans);
        let counts = [
            ("epoch records", count_at(RunReport { epoch_trace: Vec::new(), ..r.clone() })),
            ("telemetry frames", count_at(no_frames)),
            ("spans", spans_at),
            // The first span's interval count follows the span count.
            ("intervals", spans_at + 8),
            // The tenant count closes the core of an entry without tenants.
            ("tenants", core.end - 8),
        ];
        // The largest count that bounds by the entry's length or by
        // `MAX_SPANS` alone let through.
        let lie = bytes.len().min(MAX_SPANS) as u64;
        for (what, at) in counts {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            for mode in MODES {
                let (decoded, largest) = largest_alloc(|| decode_report(&bad, "t", mode));
                // A core-only load checks the telemetry section by its
                // length alone.
                let skipped = what == "telemetry frames" && mode == LoadMode::Core;
                assert_eq!(decoded.is_none(), !skipped, "{what}, {mode:?}");
                assert!(
                    largest < bytes.len(),
                    "{what}, {mode:?}: reserved {largest} B for a {} B entry",
                    bytes.len()
                );
            }
        }
    }

    /// `bytes` with its core's and telemetry's lengths replaced by `lens`.
    fn with_lens(bytes: &[u8], tag: &str, lens: [u64; 2]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let at = header_len(tag) - 2 * 8;
        for (i, len) in lens.into_iter().enumerate() {
            out[at + 8 * i..at + 8 * (i + 1)].copy_from_slice(&len.to_le_bytes());
        }
        out
    }

    #[test]
    fn bad_section_lengths_reject_without_reserving_more_than_the_file() {
        let tag = cache_tag();
        let bytes = encode_report(&traced_report(64, true), &tag);
        let [core, telemetry, spans] = sections(&bytes, &tag).map(|s| s.len() as u64);
        let body = core + telemetry + spans;
        let lies = [
            ("a core length that overflows the sum", [u64::MAX, telemetry]),
            ("a telemetry length that overflows the sum", [core, u64::MAX - core + 1]),
            ("a sum one past the file", [core, telemetry + spans + 1]),
            ("every length the file's", [body; 2]),
            ("a boundary moved into the telemetry", [core + 1, telemetry - 1]),
            ("a boundary moved into the spans", [core, telemetry + 1]),
            ("no span section", [core, telemetry + spans]),
            ("a core holding the whole body", [body, 0]),
        ];
        let dir = tmp_dir("bad-lens");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.h2r");
        for (what, lens) in lies {
            let bad = with_lens(&bytes, &tag, lens);
            fs::write(&path, &bad).unwrap();
            for mode in MODES {
                let (decoded, largest) = largest_alloc(|| decode_report(&bad, &tag, mode));
                assert!(decoded.is_none(), "{what}, {mode:?}");
                assert!(largest < bytes.len(), "{what}, {mode:?}: reserved {largest} B");
                let memo = LayoutMemo::default();
                let mut file = File::open(&path).unwrap();
                let (read, largest) = largest_alloc(|| read_report(&mut file, &tag, mode, &memo));
                assert!(read.expect("the file reads").is_none(), "{what}, {mode:?}");
                assert!(largest < bytes.len(), "{what}, {mode:?}: reserved {largest} B");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_stores_and_loads() {
        let dir = tmp_dir("roundtrip");
        let tier = DiskTier::open(&dir).unwrap();
        let r = sample_report();
        assert!(tier.load(7).is_none());
        tier.store(7, &r).unwrap();
        assert_eq!(tier.entries(), 1);
        let back = tier.load(7).expect("hit");
        assert_reports_equal(&r, &back);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_wipes_entries() {
        let dir = tmp_dir("wipe");
        let tier = DiskTier::open(&dir).unwrap();
        tier.store(1, &sample_report()).unwrap();
        assert_eq!(tier.entries(), 1);
        // Simulate an older binary's cache.
        fs::write(dir.join("VERSION"), "schema0+v0.0.0").unwrap();
        let tier2 = DiskTier::open(&dir).unwrap();
        assert_eq!(tier2.entries(), 0, "stale entries removed");
        assert!(tier2.load(1).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
