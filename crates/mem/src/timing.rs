//! DRAM timing parameters and the presets used by the paper (Table I).
//!
//! All times are in CPU cycles at 3.2 GHz (see `h2_sim_core::units`). The
//! fast memory is HBM2E with 16 physical channels grouped into 4
//! *superchannels* of 4 channels each, so one superchannel access supplies a
//! 64 B cacheline in 2 cycles (102.4 GB/s) and a 256 B block in 8 cycles
//! (§IV-A of the paper). The slow memory is DDR4-3200 (25.6 GB/s/channel).

use crate::energy::EnergyParams;
use h2_sim_core::units::{mem_cycles_to_cpu, Cycles};

/// Timing and geometry of one DRAM device class.
#[derive(Debug, Clone)]
pub struct DramTiming {
    /// Human-readable name ("HBM2E", "DDR4-3200", ...).
    pub name: &'static str,
    /// Row-to-column delay (ACT to READ/WRITE), CPU cycles.
    pub t_rcd: Cycles,
    /// Column access strobe latency, CPU cycles.
    pub t_cas: Cycles,
    /// Row precharge, CPU cycles.
    pub t_rp: Cycles,
    /// Data-bus occupancy for one 64 B beat, CPU cycles.
    pub burst_64b: Cycles,
    /// Banks per channel (rank x bank flattened).
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes (per channel).
    pub row_bytes: u64,
    /// Energy model parameters.
    pub energy: EnergyParams,
}

impl DramTiming {
    /// Bus cycles to move `bytes` (rounded up to 64 B beats).
    pub fn burst_cycles(&self, bytes: u32) -> Cycles {
        let beats = (bytes as u64).div_ceil(64);
        beats.max(1) * self.burst_64b
    }

    /// Peak per-channel bandwidth in GB/s.
    pub fn peak_gbs(&self) -> f64 {
        64.0 * h2_sim_core::units::CPU_FREQ_GHZ / self.burst_64b as f64
    }
}

/// Named timing presets used across the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingPreset {
    /// One HBM2E superchannel (4 ganged physical channels), Table I.
    Hbm2eSuper,
    /// One HBM3 superchannel: doubled bandwidth, same latencies (Fig 5b).
    Hbm3Super,
    /// One DDR4-3200 channel, Table I.
    Ddr4,
}

impl TimingPreset {
    /// Materialise the preset.
    pub fn timing(self) -> DramTiming {
        match self {
            // HBM2E @1600 MHz, RCD-CAS-RP 23-23-23 memory cycles (Table I).
            // Superchannel = 4 channels x 25.6 GB/s = 102.4 GB/s.
            TimingPreset::Hbm2eSuper => DramTiming {
                name: "HBM2E",
                t_rcd: mem_cycles_to_cpu(23, 1600.0),
                t_cas: mem_cycles_to_cpu(23, 1600.0),
                t_rp: mem_cycles_to_cpu(23, 1600.0),
                burst_64b: 2,
                banks_per_channel: 64, // 4 channels x 16 banks
                row_bytes: 4096,       // 4 x 1 kB row buffers ganged
                energy: EnergyParams {
                    rw_pj_per_bit: 6.4,
                    act_pre_nj: 15.0,
                    background_mw_per_channel: 250.0,
                },
            },
            // HBM3: "doubled bandwidth and scaled timing parameters".
            TimingPreset::Hbm3Super => DramTiming {
                name: "HBM3",
                t_rcd: mem_cycles_to_cpu(23, 1600.0),
                t_cas: mem_cycles_to_cpu(23, 1600.0),
                t_rp: mem_cycles_to_cpu(23, 1600.0),
                burst_64b: 1,
                banks_per_channel: 64,
                row_bytes: 4096,
                energy: EnergyParams {
                    rw_pj_per_bit: 5.0,
                    act_pre_nj: 15.0,
                    background_mw_per_channel: 300.0,
                },
            },
            // DDR4-3200 @1600 MHz, RCD-CAS-RP 22-22-22 (Table I),
            // 64-bit channel = 25.6 GB/s, 2 ranks x 16 banks.
            TimingPreset::Ddr4 => DramTiming {
                name: "DDR4-3200",
                t_rcd: mem_cycles_to_cpu(22, 1600.0),
                t_cas: mem_cycles_to_cpu(22, 1600.0),
                t_rp: mem_cycles_to_cpu(22, 1600.0),
                burst_64b: 8,
                banks_per_channel: 32,
                row_bytes: 8192,
                energy: EnergyParams {
                    rw_pj_per_bit: 33.0,
                    act_pre_nj: 15.0,
                    background_mw_per_channel: 150.0,
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_latencies() {
        let h = TimingPreset::Hbm2eSuper.timing();
        assert_eq!(h.t_rcd, 46);
        assert_eq!(h.t_cas, 46);
        assert_eq!(h.t_rp, 46);
        let d = TimingPreset::Ddr4.timing();
        assert_eq!(d.t_rcd, 44);
    }

    #[test]
    fn bandwidth_ratio_fast_to_slow_is_4x() {
        let h = TimingPreset::Hbm2eSuper.timing();
        let d = TimingPreset::Ddr4.timing();
        // 4 superchannels vs 4 DDR channels -> per-channel ratio is the
        // system ratio.
        let ratio = h.peak_gbs() / d.peak_gbs();
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn hbm3_doubles_bandwidth() {
        let h2e = TimingPreset::Hbm2eSuper.timing();
        let h3 = TimingPreset::Hbm3Super.timing();
        assert!((h3.peak_gbs() / h2e.peak_gbs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn burst_rounding() {
        let d = TimingPreset::Ddr4.timing();
        assert_eq!(d.burst_cycles(64), 8);
        assert_eq!(d.burst_cycles(256), 32);
        assert_eq!(d.burst_cycles(65), 16); // rounds up to 2 beats
        assert_eq!(d.burst_cycles(1), 8);
    }
}
