//! `h2-check`: the deterministic simulation fuzzer.
//!
//! Because every Hydrogen simulation is a pure function of its
//! [`h2_system::SystemConfig`] and workload mix, randomised testing gets
//! the strongest possible oracle set for free: any two runs of the same
//! case must agree byte-for-byte, regardless of event-queue engine,
//! observation layers, or persistence round-trips. This crate exploits
//! that with three layers of checking over seeded random cases
//! ([`FuzzCase`]):
//!
//! * **Invariant monitors** ([`monitors`]) — registered on the runner's
//!   probe hook, checked at every epoch/faucet boundary: token
//!   conservation, fast-way occupancy bounds, remap-table coherence,
//!   transaction accounting, counter monotonicity, and device pipeline
//!   limits.
//! * **Differential oracles** ([`fuzz::OracleHooks`]) — calendar vs heap
//!   engines ([`run_workloads_on_heap`], [`run_scenario_on_heap`]),
//!   persistence-codec round-trips, and run-cache store/replay must all
//!   reproduce the report exactly ([`diff::diff_reports`]).
//! * **Metamorphic relations** ([`relations`]) — transformed re-runs with
//!   semantics the paper pins down (observation layers never perturb
//!   timing, absent processors generate no traffic, ...).
//!
//! On failure, [`fuzz::shrink`] minimises the case while the same named
//! check keeps failing, and the result is committed as a self-contained
//! `repro.json` ([`fuzz::repro_json`]) replayable with `h2 fuzz --replay`.

pub mod case;
pub mod diff;
pub mod fuzz;
pub mod monitors;
pub mod relations;
pub mod tenancy;

pub use case::{policy_by_name, FuzzCase, POLICIES};
pub use diff::{diff_reports, diff_reports_except};
pub use fuzz::{
    fuzz, parse_repro, repro_json, run_battery, run_workloads_on_heap, shrink, Failure,
    FuzzOutcome, OracleHooks, FUZZ_LABEL,
};
pub use monitors::standard_monitors;
pub use relations::{applicable, check as check_relation, Relation};
pub use tenancy::{
    check_partition, permute_tenants, run_scenario_on_heap, sample_scenario, scenario_battery,
};
