//! DRAM device models for the Hydrogen reproduction.
//!
//! A [`device::MemDevice`] is a set of channels, each with banks, an open-row
//! register per bank, a shared data bus, and a bounded command queue drained
//! by an FR-FCFS-like scheduler (priority, then row-hit, then age). Timing
//! presets for HBM2E / HBM3 superchannels and DDR4 channels live in
//! [`timing`], energy accounting in [`energy`].
//!
//! The device is event-agnostic: callers enqueue commands and receive back
//! `(completion_time, token)` pairs to schedule on their own event queue,
//! then call [`device::MemDevice::on_complete`] when those events fire.

pub mod device;
pub mod energy;
pub mod timing;

pub use device::{MemCmd, MemDevice, MemStats, StartedCmd};
pub use energy::{EnergyBreakdown, EnergyParams};
pub use timing::{DramTiming, TimingPreset};
