//! Processor front-ends: trace-driven CPU cores and GPU execution-unit
//! contexts.
//!
//! The CPU core is in-order and latency-sensitive: it retires one
//! instruction per cycle between memory references, overlaps up to
//! `cpu_mlp` independent loads that leave the core, stalls on a dependent
//! load until every outstanding read returns, and absorbs stores in a
//! small store buffer. The GPU context mimics SIMT latency tolerance: each
//! of the 96 EU contexts may keep several independent requests in flight,
//! so GPU throughput is bandwidth-bound rather than latency-bound — the
//! asymmetry at the heart of the paper's Insights 1–3.
//!
//! A unit's references come from a [`RefSource`]: the classic synthetic
//! generator, a `.h2trace` replay cursor, or a multi-tenant scenario
//! stream (see `h2_trace::source`). The stepping logic lives in
//! [`crate::runner`]; these structs hold state.

use h2_trace::{MemRef, RefSource};

/// Why a CPU core is not currently scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreBlock {
    /// Running (a wake event is pending).
    None,
    /// Stalled on a dependent load: resumes when all reads drain.
    ReadDependent,
    /// Stalled on a full load queue: resumes when any read returns.
    ReadMlp,
    /// Stalled on a full store buffer.
    Store,
}

/// One CPU core.
#[derive(Debug)]
pub struct CpuCore {
    /// The core's reference source.
    pub src: RefSource,
    /// Instructions retired (cumulative).
    pub retired: u64,
    /// Outstanding stores in the buffer.
    pub stores_outstanding: u32,
    /// Outstanding demand loads (bounded by `SystemConfig::cpu_mlp`).
    pub reads_outstanding: u32,
    /// Block reason.
    pub blocked: CoreBlock,
    /// A reference that could not issue (gap already consumed).
    pub stash: Option<MemRef>,
}

impl CpuCore {
    /// Wrap a reference source (a bare `TraceGen` converts implicitly).
    pub fn new(src: impl Into<RefSource>) -> Self {
        Self {
            src: src.into(),
            retired: 0,
            stores_outstanding: 0,
            reads_outstanding: 0,
            blocked: CoreBlock::None,
            stash: None,
        }
    }
}

/// One GPU execution-unit context.
#[derive(Debug)]
pub struct GpuCtx {
    /// The context's reference source.
    pub src: RefSource,
    /// Instructions retired (cumulative, counted at issue).
    pub retired: u64,
    /// Memory requests currently in flight.
    pub inflight: u32,
    /// Waiting for a free request slot.
    pub blocked: bool,
    /// A reference that could not issue (gap already consumed).
    pub stash: Option<MemRef>,
}

impl GpuCtx {
    /// Wrap a reference source (a bare `TraceGen` converts implicitly).
    pub fn new(src: impl Into<RefSource>) -> Self {
        Self {
            src: src.into(),
            retired: 0,
            inflight: 0,
            blocked: false,
            stash: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_trace::workloads;

    #[test]
    fn core_starts_unblocked() {
        let spec = workloads::by_name("gcc").unwrap();
        let core = CpuCore::new(spec.instantiate(1, 0, 0, 8));
        assert_eq!(core.blocked, CoreBlock::None);
        assert_eq!(core.stores_outstanding, 0);
        assert!(core.stash.is_none());
    }

    #[test]
    fn ctx_starts_idle() {
        let spec = workloads::by_name("backprop").unwrap();
        let ctx = GpuCtx::new(spec.instantiate(1, 0, 0, 8));
        assert_eq!(ctx.inflight, 0);
        assert!(!ctx.blocked);
    }
}
