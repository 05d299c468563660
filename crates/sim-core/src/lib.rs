//! Core infrastructure for the Hydrogen reproduction: a deterministic
//! discrete-event queue, seeded random-number streams, unit helpers, and
//! small statistics utilities shared by every other crate in the workspace.
//!
//! Nothing in this crate knows about memories, caches, or processors; it is
//! the substrate the simulator is built on.

pub mod event;
pub mod hint;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod prof;
pub mod rng;
pub mod stats;
pub mod trace_span;
pub mod units;

pub use event::{calendar::CalendarQueue, legacy::HeapQueue, EventQueue, Queue, Scheduled};
pub use json::Json;
pub use metrics::{LogHistogram, MetricLayout, MetricsRegistry, ScopedMetrics};
pub use monitor::{InvariantMonitor, MonitorSet, Violation};
pub use trace_span::{BlameCause, BlameClass, Span, SpanCollector, SpanId, SpanInterval};
pub use rng::{SeededRng, ZipfDraw};
pub use units::{Cycles, KIB, MIB};
