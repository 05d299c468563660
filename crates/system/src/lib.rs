//! Full-system simulation for the Hydrogen reproduction.
//!
//! Ties every substrate together: trace-driven CPU cores and GPU execution
//! units ([`frontend`]), the Table I cache hierarchy, the hybrid memory
//! controller with a pluggable partitioning policy ([`policies`]), DRAM
//! devices, the epoch/faucet controllers, and the measurement window —
//! driven by one deterministic event loop ([`runner`]).
//!
//! The main entry point is [`run_sim`]; examples and the experiment harness
//! build on it.

pub mod config;
pub mod frontend;
pub mod policies;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod telemetry;
pub mod trace_export;

pub use config::{Participants, SystemConfig};
pub use policies::PolicyKind;
pub use report::{RunReport, RunTelemetry, RunTrace, TenantSlo};
pub use runner::{
    plan_from_workloads, run_plan_monitored, run_plan_on_heap, run_sim, run_sim_parts,
    run_workloads, run_workloads_monitored, FrontendPlan, SimProbe,
};
pub use scenario::{replay_config, replay_plan, run_scenario, scenario_config, scenario_plan};
