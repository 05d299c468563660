//! The two-tier hybrid memory layer (§III-A, §IV of the paper).
//!
//! The whole memory space is organised set-associatively: fast and slow
//! memory are divided into the same number of sets; each set has `assoc`
//! fast blocks (ways). A hardware remap table — stored in fast memory and
//! front-ended by an on-chip remap cache — translates physical block
//! addresses to their current tier. Misses trigger block-granularity
//! migrations whose traffic amplification (Fig 4) is the central cost the
//! partitioning policies manage.
//!
//! * [`types`] — request classes, tiers, modes, geometry.
//! * [`remap`] — the remap table (tags, dirty/owner/alloc metadata, LRU).
//! * [`policy`] — the [`policy::PartitionPolicy`] trait every design
//!   (Hydrogen and all baselines) implements.
//! * [`hmc`] — the hybrid memory controller: a transaction state machine
//!   that turns LLC misses into DRAM command sequences.

pub mod hmc;
pub mod policy;
pub mod remap;
pub mod types;

pub use hmc::{Hmc, HmcOutput, HmcStats};
pub use policy::{EpochSample, PartitionPolicy, PolicyParams, TokenFlows};
pub use remap::{RemapTable, WayMeta};
pub use types::{HybridConfig, Mode, ReqClass, Tier};
