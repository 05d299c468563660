//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Tables I-II, Figures 2 and 5-11).
//!
//! Each experiment in [`experiments`] produces one or more [`table::Table`]s
//! — the same rows/series the paper plots — prints them, and writes CSVs to
//! `results/`. [`run_experiment`] plans an experiment before running it,
//! and [`run_experiments`] plans several together: one pass records the
//! jobs they request, the distinct misses run as one batch on the sweep
//! scheduler's worker pool ([`sweep::scheduler`]), and a second pass
//! renders the tables from memory. Runs are cached per process
//! ([`cache::RunCache`]) so experiments sharing the same simulations (e.g.
//! Fig 5 and Fig 6) pay once.
//!
//! Scale profiles ([`profile::Profile`]) select how much work to do:
//! `quick` (sanity, a few mixes), `default` (all headline mixes, scaled
//! windows), `full` (longer windows). Select with `H2_PROFILE=quick|full`.

pub mod cache;
pub mod experiments;
pub mod fuzz_cli;
pub mod key;
pub mod persist;
pub mod profile;
pub mod profout;
pub mod sweep;
pub mod table;
pub mod trace_cli;

pub use cache::RunCache;
pub use profile::Profile;
pub use table::Table;

/// One experiment: it requests its runs from the cache and renders its
/// tables.
type Experiment = fn(&Profile, &mut RunCache) -> Vec<Table>;

/// The experiment behind an id ("table1", "fig5", ...).
pub(crate) fn experiment(id: &str) -> Option<Experiment> {
    let experiment: Experiment = match id {
        "table1" => |p, _| experiments::table1::run(p),
        "table2" => |p, _| experiments::table2::run(p),
        "fig2" => experiments::fig2::run,
        "fig5" => experiments::fig5::run,
        "fig6" => experiments::fig6::run,
        "fig7" => experiments::fig7::run,
        "fig8" => experiments::fig8::run,
        "fig9" => experiments::fig9::run,
        "fig10" => experiments::fig10::run,
        "fig11" => experiments::fig11::run,
        "extensions" => experiments::extensions::run,
        "verify" => experiments::verify::run,
        _ => return None,
    };
    Some(experiment)
}

/// Run one experiment by id ("table1", "fig5", ...), returning its tables
/// ([`run_experiments`] with one id).
pub fn run_experiment(id: &str, profile: &Profile, cache: &mut RunCache) -> Option<Vec<Table>> {
    run_experiments(&[id], profile, cache, |_| {})?.pop()
}

/// Run several experiments as one plan, returning each one's tables in
/// `ids` order (`None` for an unknown id). Every job they request is
/// recorded first, `on_plan` learns how many distinct jobs that is, and
/// those jobs run as one batch ([`RunCache::run_planned`]). A job
/// that two experiments share therefore runs once and counts as deduped.
pub fn run_experiments(
    ids: &[&str],
    profile: &Profile,
    cache: &mut RunCache,
    on_plan: impl FnOnce(usize),
) -> Option<Vec<Vec<Table>>> {
    let experiments = ids.iter().map(|id| experiment(id)).collect::<Option<Vec<_>>>()?;
    Some(cache.run_planned(|c| experiments.iter().map(|e| e(profile, c)).collect(), on_plan))
}

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: [&str; 12] = [
    "table1", "table2", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "extensions", "verify",
];

/// Check every requested experiment id up front, so a typo in the last id
/// fails fast instead of surfacing after the earlier experiments ran.
pub fn validate_run_ids(ids: &[&str]) -> Result<(), String> {
    if ids.is_empty() {
        return Err("h2 run needs at least one experiment (see `h2 list`)".into());
    }
    match ids.iter().find(|id| !ALL_EXPERIMENTS.contains(id)) {
        Some(bad) => Err(format!("unknown experiment '{bad}' (see `h2 list`)")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ids_are_validated_up_front() {
        validate_run_ids(&["fig5", "fig6"]).unwrap();
        assert_eq!(
            validate_run_ids(&[]).unwrap_err(),
            "h2 run needs at least one experiment (see `h2 list`)"
        );
        assert_eq!(
            validate_run_ids(&["fig5", "fig99"]).unwrap_err(),
            "unknown experiment 'fig99' (see `h2 list`)"
        );
    }
}
