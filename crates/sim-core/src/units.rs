//! Unit helpers: the global clock and size constants.
//!
//! The entire simulator runs on a single global clock at the CPU frequency
//! (3.2 GHz). Memory-device timing parameters are expressed in these CPU
//! cycles; conversion helpers live here so the presets in `h2-mem` stay
//! readable.

/// Simulation time, measured in CPU cycles at [`CPU_FREQ_GHZ`].
pub type Cycles = u64;

/// Global clock frequency in GHz. All `Cycles` values are at this rate.
pub const CPU_FREQ_GHZ: f64 = 3.2;

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * 1024;

/// Convert CPU cycles to nanoseconds.
pub fn cycles_to_ns(c: Cycles) -> f64 {
    c as f64 / CPU_FREQ_GHZ
}

/// Convert memory-clock cycles at `mem_freq_mhz` to CPU cycles (rounded up).
pub fn mem_cycles_to_cpu(mem_cycles: u64, mem_freq_mhz: f64) -> Cycles {
    let ratio = CPU_FREQ_GHZ * 1000.0 / mem_freq_mhz;
    ((mem_cycles as f64 * ratio).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_convert_to_ns_at_the_cpu_clock() {
        assert!((cycles_to_ns(32) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mem_clock_conversion() {
        // 23 cycles at 1600 MHz = 14.375 ns = 46 CPU cycles at 3.2 GHz.
        assert_eq!(mem_cycles_to_cpu(23, 1600.0), 46);
        // 22 cycles at 1600 MHz = 13.75 ns = 44 CPU cycles.
        assert_eq!(mem_cycles_to_cpu(22, 1600.0), 44);
        // Rounded up to at least one cycle.
        assert_eq!(mem_cycles_to_cpu(0, 1600.0), 1);
    }
}
