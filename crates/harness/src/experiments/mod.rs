//! One module per paper element.
//!
//! | module | paper element | what it reproduces |
//! |--------|---------------|---------------------|
//! | [`table1`] | Table I | system configuration dump (paper + scaled) |
//! | [`table2`] | Table II | workload combinations and footprints |
//! | [`fig2`] | Fig 2 | co-run slowdowns + bandwidth/capacity sensitivity |
//! | [`fig5`] | Fig 5 | weighted speedups vs baselines (HBM2E + HBM3) |
//! | [`fig6`] | Fig 6 | memory energy vs HAShCache |
//! | [`fig7`] | Fig 7 | swap-variant and reconfiguration overheads |
//! | [`fig8`] | Fig 8 | exhaustive (bw, cap, tok) landscape on C5 |
//! | [`fig9`] | Fig 9 | epoch/phase length sensitivity |
//! | [`fig10`] | Fig 10 | IPC-weight and core-count sensitivity |
//! | [`fig11`] | Fig 11 | associativity and block-size sensitivity |

pub mod extensions;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod verify;

use crate::cache::RunCache;
use h2_sim_core::stats::geomean;
use h2_system::{RunReport, RunTelemetry};

/// Geomean helper shared by the figure modules.
pub(crate) fn gm(xs: &[f64]) -> f64 {
    geomean(xs)
}

/// The telemetry of `r`, which `table` reads for `mix`. Every job the cache
/// runs records telemetry, so a report without it lost it in the run store
/// or its codec: panic, naming the table and the mix, rather than print
/// the table without that row. While `cache` plans, its answers are
/// placeholders without telemetry, and this is `None`.
pub(crate) fn telemetry<'r>(
    cache: &RunCache,
    r: &'r RunReport,
    table: &str,
    mix: &str,
) -> Option<&'r RunTelemetry> {
    if cache.planning() {
        return None;
    }
    let lost = || panic!("{table}: the report for mix {mix} has no telemetry");
    Some(r.telemetry.as_ref().unwrap_or_else(lost))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "fig2e: the report for mix C1 has no telemetry")]
    fn a_report_without_telemetry_fails_its_table() {
        let mut cache = RunCache::new();
        // Plan-pass answers are placeholders: they pass without a row.
        cache.plan(|c| assert!(telemetry(c, &RunReport::default(), "fig2e", "C1").is_none()));
        telemetry(&cache, &RunReport::default(), "fig2e", "C1");
    }
}
