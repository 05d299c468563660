//! The standard invariant-monitor battery.
//!
//! Each monitor inspects the [`SimProbe`] snapshot the runner publishes at
//! every epoch and faucet boundary (and once at end-of-run). Monitors are
//! pure observers: registering them must not change a single cycle of the
//! simulation, a property the engine-differential oracle proves on every
//! fuzz case by comparing a monitored calendar run against an unmonitored
//! heap run.

use h2_sim_core::{InvariantMonitor, MonitorSet};
use h2_system::SimProbe;

/// Token conservation (§IV-B): every token the faucet ever granted is
/// spent, discarded at a period boundary, or still available —
/// `granted == spent + discarded + available` — plus whatever internal
/// consistency the active policy reports via `check_invariants`.
pub struct TokenConservation;

impl InvariantMonitor<SimProbe> for TokenConservation {
    fn name(&self) -> &'static str {
        "token-conservation"
    }

    fn check(&mut self, p: &SimProbe) -> Result<(), String> {
        if let Some(f) = p.token_flows {
            if !f.conserved() {
                return Err(format!(
                    "granted {} != spent {} + discarded {} + available {}",
                    f.granted, f.spent, f.discarded, f.available
                ));
            }
        }
        // Borrow the probe's verdict; allocate only on the (error) slow path.
        p.policy_invariants.as_ref().map_err(String::clone).copied()
    }
}

/// HBM way-occupancy bound: the per-class occupancy counters the policy
/// steers on can never exceed the number of fast ways that exist.
pub struct OccupancyBound;

impl InvariantMonitor<SimProbe> for OccupancyBound {
    fn name(&self) -> &'static str {
        "occupancy-bound"
    }

    fn check(&mut self, p: &SimProbe) -> Result<(), String> {
        let occ = p.occ_cpu + p.occ_gpu;
        if occ > p.total_ways {
            return Err(format!(
                "occupancy {} (cpu {} + gpu {}) exceeds {} fast ways",
                occ, p.occ_cpu, p.occ_gpu, p.total_ways
            ));
        }
        Ok(())
    }
}

/// Remap-table coherence: no set may hold two ways claiming the same tag
/// (a duplicate would make a block's location ambiguous).
pub struct RemapCoherence;

impl InvariantMonitor<SimProbe> for RemapCoherence {
    fn name(&self) -> &'static str {
        "remap-coherence"
    }

    fn check(&mut self, p: &SimProbe) -> Result<(), String> {
        if !p.remap_tags_unique {
            return Err("remap table holds duplicate tags within a set".into());
        }
        Ok(())
    }
}

/// Transaction accounting: every transaction ever started is either fully
/// retired or still in flight in the controller.
pub struct TxnAccounting;

impl InvariantMonitor<SimProbe> for TxnAccounting {
    fn name(&self) -> &'static str {
        "txn-accounting"
    }

    fn check(&mut self, p: &SimProbe) -> Result<(), String> {
        if p.txns_started != p.txns_retired + p.inflight as u64 {
            return Err(format!(
                "started {} != retired {} + inflight {}",
                p.txns_started, p.txns_retired, p.inflight
            ));
        }
        Ok(())
    }
}

/// Monotone registries: cumulative counters never decrease between probes
/// (the "non-negative delta" check on every statistics registry).
#[derive(Default)]
pub struct MonotoneCounters {
    prev: Option<Vec<(&'static str, u64)>>,
}

fn counter_vector(p: &SimProbe) -> Vec<(&'static str, u64)> {
    vec![
        ("cpu_instr", p.cpu_instr),
        ("gpu_instr", p.gpu_instr),
        ("txns_started", p.txns_started),
        ("txns_retired", p.txns_retired),
        ("spans_closed", p.spans_closed),
        ("hmc.accesses[cpu]", p.hmc.accesses[0]),
        ("hmc.accesses[gpu]", p.hmc.accesses[1]),
        ("hmc.fast_hits[cpu]", p.hmc.fast_hits[0]),
        ("hmc.fast_hits[gpu]", p.hmc.fast_hits[1]),
        ("hmc.fast_misses[cpu]", p.hmc.fast_misses[0]),
        ("hmc.fast_misses[gpu]", p.hmc.fast_misses[1]),
        ("hmc.migrations[cpu]", p.hmc.migrations[0]),
        ("hmc.migrations[gpu]", p.hmc.migrations[1]),
        ("hmc.bypasses[cpu]", p.hmc.bypasses[0]),
        ("hmc.bypasses[gpu]", p.hmc.bypasses[1]),
        ("hmc.victim_writebacks", p.hmc.victim_writebacks),
        ("hmc.swaps", p.hmc.swaps),
        ("hmc.lazy_fixups", p.hmc.lazy_fixups),
        ("hmc.meta_reads", p.hmc.meta_reads),
        ("hmc.meta_writebacks", p.hmc.meta_writebacks),
        ("fast.reads", p.fast.reads),
        ("fast.writes", p.fast.writes),
        ("fast.bytes", p.fast.bytes),
        ("fast.busy_cycles", p.fast.busy_cycles),
        ("slow.reads", p.slow.reads),
        ("slow.writes", p.slow.writes),
        ("slow.bytes", p.slow.bytes),
        ("slow.busy_cycles", p.slow.busy_cycles),
    ]
}

impl InvariantMonitor<SimProbe> for MonotoneCounters {
    fn name(&self) -> &'static str {
        "monotone-counters"
    }

    fn check(&mut self, p: &SimProbe) -> Result<(), String> {
        let cur = counter_vector(p);
        let result = match &self.prev {
            Some(prev) => {
                match prev.iter().zip(cur.iter()).find(|(old, new)| new.1 < old.1) {
                    Some((old, new)) => Err(format!(
                        "counter {} decreased: {} -> {}",
                        old.0, old.1, new.1
                    )),
                    None => Ok(()),
                }
            }
            None => Ok(()),
        };
        self.prev = Some(cur);
        result
    }
}

/// Device-level consistency on both tiers: per-channel in-flight command
/// counts stay within the DRAM pipeline depth, and each channel's
/// pending-command ring is consistent (`MemDevice::check_invariants`).
pub struct MemDeviceInvariants;

impl InvariantMonitor<SimProbe> for MemDeviceInvariants {
    fn name(&self) -> &'static str {
        "mem-device"
    }

    fn check(&mut self, p: &SimProbe) -> Result<(), String> {
        p.mem_invariants.as_ref().map_err(String::clone).copied()
    }
}

/// Memoised alloc-mask coherence: the HMC's per-set mask memo (invalidated
/// only at epoch/faucet/reconfig boundaries) must agree with direct
/// `policy.alloc_mask` calls at every probe point — the boundary contract
/// the memoisation relies on. Epoch and faucet probes check the memo just
/// before their boundary invalidates it (see `SimProbe::mask_memo`).
pub struct MaskMemoCoherence;

impl InvariantMonitor<SimProbe> for MaskMemoCoherence {
    fn name(&self) -> &'static str {
        "mask-memo"
    }

    fn check(&mut self, p: &SimProbe) -> Result<(), String> {
        p.mask_memo.as_ref().map(|_| ()).map_err(String::clone)
    }
}

/// Interned-metric fidelity: at every epoch boundary of a run with
/// telemetry on, the registry the handle path wrote — the one epoch frames
/// are cut from — equals a fresh collection on the string path of record
/// (see `SimProbe::interned_metrics`).
pub struct InternedMetrics;

impl InvariantMonitor<SimProbe> for InternedMetrics {
    fn name(&self) -> &'static str {
        "interned-metrics"
    }

    fn check(&mut self, p: &SimProbe) -> Result<(), String> {
        p.interned_metrics.as_ref().map(|_| ()).map_err(String::clone)
    }
}

/// The full standard battery, in a fixed order (order shows up in
/// violation reports, so keep it stable).
pub fn standard_monitors() -> MonitorSet<SimProbe> {
    let mut set = MonitorSet::new();
    set.register(Box::new(TokenConservation));
    set.register(Box::new(OccupancyBound));
    set.register(Box::new(RemapCoherence));
    set.register(Box::new(TxnAccounting));
    set.register(Box::new(MonotoneCounters::default()));
    set.register(Box::new(MemDeviceInvariants));
    set.register(Box::new(MaskMemoCoherence));
    set.register(Box::new(InternedMetrics));
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_hybrid::{HmcStats, TokenFlows};
    use h2_mem::MemStats;

    fn clean_probe() -> SimProbe {
        SimProbe {
            now: 0,
            in_measurement: false,
            cpu_instr: 0,
            gpu_instr: 0,
            hmc: HmcStats::default(),
            txns_started: 0,
            txns_retired: 0,
            inflight: 0,
            occ_cpu: 0,
            occ_gpu: 0,
            total_ways: 64,
            remap_tags_unique: true,
            token_flows: None,
            policy_invariants: Ok(()),
            mem_invariants: Ok(()),
            mask_memo: Ok(0),
            interned_metrics: Ok(0),
            fast: MemStats::default(),
            slow: MemStats::default(),
            spans_closed: 0,
        }
    }

    #[test]
    fn clean_probe_passes_all_monitors() {
        let mut set = standard_monitors();
        assert_eq!(set.check_all(0, &clean_probe()), 0);
        assert!(set.ok());
    }

    #[test]
    fn violations_are_detected_and_named() {
        let mut p = clean_probe();
        p.token_flows = Some(TokenFlows {
            granted: 10,
            spent: 3,
            discarded: 2,
            denied: 0,
            available: 1, // 3 + 2 + 1 != 10: a leak
        });
        p.occ_cpu = 60;
        p.occ_gpu = 10; // 70 > 64
        p.remap_tags_unique = false;
        p.txns_started = 5;
        p.txns_retired = 3;
        p.inflight = 1; // 3 + 1 != 5
        p.mem_invariants = Err("channel 0: stuck".into());
        p.mask_memo = Err("set 3: memo 0b0011 != policy 0b1100".into());
        p.interned_metrics = Err("counter 9: cache.llc.hits = 5 vs cache.llc.hits = 4".into());

        let mut set = standard_monitors();
        let fresh = set.check_all(123, &p);
        assert_eq!(fresh, 7);
        let names: Vec<&str> = set.violations().iter().map(|v| v.monitor).collect();
        assert_eq!(
            names,
            vec![
                "token-conservation",
                "occupancy-bound",
                "remap-coherence",
                "txn-accounting",
                "mem-device",
                "mask-memo",
                "interned-metrics"
            ]
        );
        assert!(set.violations().iter().all(|v| v.at == 123));
    }

    #[test]
    fn monotone_monitor_tracks_deltas() {
        let mut m = MonotoneCounters::default();
        let mut p = clean_probe();
        p.cpu_instr = 100;
        assert!(m.check(&p).is_ok()); // first observation seeds the baseline
        p.cpu_instr = 150;
        assert!(m.check(&p).is_ok());
        p.cpu_instr = 120; // went backwards
        let err = m.check(&p).unwrap_err();
        assert!(err.contains("cpu_instr"), "{err}");
        assert!(err.contains("150 -> 120"), "{err}");
    }
}
