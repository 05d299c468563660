//! The worker pool for job batches.
//!
//! Workers share one atomic cursor into the batch: each claims the next
//! unclaimed job, so jobs start in batch order and no worker idles while
//! one is left. A job is a whole simulation or a run-store hit of tens of
//! microseconds, so one shared counter costs nothing beside it.
//!
//! Results flow over an mpsc channel to the caller's thread, which is the
//! only place results are aggregated — worker count and completion order
//! can therefore never change *what* is computed, only when, which the
//! sweep determinism suite pins down.
//!
//! This is the only job runner: sweeps batch their points here, and
//! [`crate::cache::RunCache`] sends every memory miss here, from a single
//! `RunCache::run` to an experiment's whole planned job set.

use crate::cache::Job;
use crate::persist::{DiskTier, LoadMode};
use h2_system::RunReport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Where one finished job's report came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Simulated in this batch.
    Executed,
    /// Replayed from the persistent store.
    DiskHit,
}

/// One finished job, streamed to the caller as it completes.
#[derive(Debug)]
pub struct Done {
    /// Index into the batch slice passed to [`run_batch`].
    pub idx: usize,
    /// Cache hit or fresh execution.
    pub source: Source,
    /// Wall-clock seconds this job took on its worker.
    pub wall_s: f64,
    /// The report (also stored to the persistent tier by the worker
    /// *before* this message is sent, so completion implies durability).
    pub report: RunReport,
}

/// Pool counters for the end-of-sweep summary line.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolStats {
    /// Jobs simulated.
    pub executed: usize,
    /// Jobs replayed from the persistent store.
    pub disk_hits: usize,
}

/// The default pool size: one worker per available CPU.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Upgrade-on-miss: a cached report serves a request unless the request
/// is traced (`trace_sample` set) and the report was run without spans.
pub(crate) fn satisfies(trace_sample: Option<u64>, report: &RunReport) -> bool {
    trace_sample.is_none() || report.trace.is_some()
}

/// Run `jobs` (pre-deduplicated, keyed) across `workers` threads, each
/// claiming the next unclaimed job in batch order. Each worker checks the
/// persistent tier first, executes on miss (`Job::execute`), and
/// publishes the result back to the tier before reporting completion. A
/// job whose config sets `trace_sample` treats an entry stored without
/// spans as a miss, so the traced run replaces it (upgrade-on-miss). Tier
/// hits read only the entry sections `mode` names
/// ([`ShardedStore::load_with`]); an executed report keeps its telemetry
/// and spans, and so does the entry it publishes. `on_done` runs on the
/// calling thread once per job, in completion order. Returns the reports
/// in batch order plus counters.
///
/// [`ShardedStore::load_with`]: crate::sweep::store::ShardedStore::load_with
pub fn run_batch(
    jobs: &[(u128, Job)],
    tier: Option<&DiskTier>,
    workers: usize,
    mode: LoadMode,
    mut on_done: impl FnMut(&Done),
) -> (Vec<RunReport>, PoolStats) {
    let mut stats = PoolStats::default();
    if jobs.is_empty() {
        return (Vec::new(), stats);
    }
    let workers = workers.max(1).min(jobs.len());

    let run_one = |idx: usize| -> Done {
        let (key, job) = &jobs[idx];
        if let Some(r) = tier
            .and_then(|t| t.sharded().load_with(*key, mode))
            .filter(|r| satisfies(job.cfg.trace_sample, r))
        {
            return Done { idx, source: Source::DiskHit, wall_s: 0.0, report: r };
        }
        let t0 = Instant::now();
        let report = job.execute();
        if let Some(t) = tier {
            if let Err(e) = t.store(*key, &report) {
                eprintln!("[h2] run store write failed for {key:032x}: {e}");
            }
        }
        Done { idx, source: Source::Executed, wall_s: t0.elapsed().as_secs_f64(), report }
    };

    let mut results: Vec<Option<RunReport>> = (0..jobs.len()).map(|_| None).collect();
    let mut record = |done: Done, stats: &mut PoolStats, results: &mut Vec<Option<RunReport>>| {
        match done.source {
            Source::Executed => stats.executed += 1,
            Source::DiskHit => stats.disk_hits += 1,
        }
        on_done(&done);
        results[done.idx] = Some(done.report);
    };

    if workers == 1 {
        for idx in 0..jobs.len() {
            record(run_one(idx), &mut stats, &mut results);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Done>();
        let (cursor, run_one) = (&cursor, &run_one);
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                s.spawn(move || loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= jobs.len() || tx.send(run_one(idx)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for done in rx {
                record(done, &mut stats, &mut results);
            }
        });
    }

    let reports = results
        .into_iter()
        .map(|r| r.expect("every job completes exactly once"))
        .collect();
    (reports, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_system::{PolicyKind, SystemConfig};
    use h2_trace::Mix;

    fn jobs(n: u64) -> Vec<(u128, Job)> {
        (0..n)
            .map(|i| {
                let mut cfg = SystemConfig::tiny();
                cfg.seed = i;
                let j = Job::new(&cfg, &Mix::by_name("C1").unwrap(), PolicyKind::NoPart);
                (j.key(), j)
            })
            .collect()
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (rs, stats) = run_batch(&[], None, 4, LoadMode::Full, |_| {});
        assert!(rs.is_empty());
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn results_come_back_in_batch_order_regardless_of_workers() {
        let batch = jobs(6);
        let (seq, s1) = run_batch(&batch, None, 1, LoadMode::Full, |_| {});
        assert_eq!(s1.executed, 6);
        for workers in [2, 4, 6] {
            let mut seen = 0;
            let (par, sp) = run_batch(&batch, None, workers, LoadMode::Full, |_| seen += 1);
            assert_eq!(seen, 6, "on_done fires once per job");
            assert_eq!(sp.executed, 6);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.cpu_instr, b.cpu_instr, "workers={workers}");
                assert_eq!(a.epoch_trace, b.epoch_trace, "workers={workers}");
            }
        }
    }

    #[test]
    fn tier_hits_skip_execution_and_publish_before_completion() {
        let dir = std::env::temp_dir()
            .join(format!("h2-sched-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = DiskTier::open(&dir).unwrap();
        let batch = jobs(3);
        let (_, cold) = run_batch(&batch, Some(&tier), 2, LoadMode::Full, |d| {
            // Durability invariant: a completed executed job is already
            // loadable from the tier by anyone else.
            assert!(tier.load(batch[d.idx].0).is_some());
        });
        assert_eq!(cold.executed, 3);
        assert_eq!(cold.disk_hits, 0);
        let (warm_reports, warm) = run_batch(&batch, Some(&tier), 2, LoadMode::Full, |d| {
            assert_eq!(d.source, Source::DiskHit);
            assert_eq!(d.wall_s, 0.0);
        });
        assert_eq!(warm.executed, 0);
        assert_eq!(warm.disk_hits, 3);
        assert_eq!(warm_reports.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
