//! The worker pool every sweep runs its grid on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `point` once per cell on up to `jobs` workers and returns the
/// results in cell order.
///
/// Each worker builds its own state with `worker` and passes it to every
/// `point` call it makes: the figure sweep keeps one rewinding database
/// fork per worker, while the audited sweeps keep none and clone the base
/// per point, because their audit reads the database the point left
/// behind. With one worker the cells run inline; otherwise scoped threads
/// pull cells off a shared cursor. Every sweep seeds a point from its cell
/// alone, so results never depend on `jobs`.
///
/// # Panics
///
/// A panicking cell panics the sweep with its own payload once the other
/// workers run out of cells, so an audit violation fails the sweep.
pub(crate) fn run_grid<C: Sync, W, P: Send>(
    cells: &[C],
    jobs: usize,
    worker: impl Fn() -> W + Sync,
    point: impl Fn(&mut W, &C) -> P + Sync,
) -> Vec<P> {
    let workers = jobs.min(cells.len()).max(1);
    if workers == 1 {
        let mut state = worker();
        return cells.iter().map(|cell| point(&mut state, cell)).collect();
    }
    // The cursor only hands out indices; each result travels back through
    // its thread's join, which orders it before the merge below.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, P)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = worker();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break done };
                        done.push((i, point(&mut state, cell)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::sweep_csv;
    use crate::{
        availability_csv, cache_csv, failover_csv, find_figure, overload_csv, run_availability,
        run_cache_sweep, run_failover, run_figure, run_overload_configs, CacheWorkload,
        HarnessConfig, DEFAULT_CACHE_TTLS, OVERLOAD_CONFIGS,
    };
    use dynamid_core::StandardConfig;
    use std::fmt::Debug;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<usize> = (0..10).collect();
        for jobs in [1, 2, 4, 16] {
            let out = run_grid(&cells, jobs, || (), |(), &c| c * 10);
            assert_eq!(out, (0..10).map(|c| c * 10).collect::<Vec<_>>(), "jobs={jobs}");
        }
        let few = [7, 8, 9];
        assert_eq!(run_grid(&few, 8, || (), |(), &c| c), few, "more workers than cells");
    }

    #[test]
    fn workers_do_not_share_state() {
        const JOBS: usize = 4;
        let cells: Vec<usize> = (0..12).collect();
        // The first JOBS cells wait for each other, so each lands on a
        // different worker: every worker takes part.
        let start = Barrier::new(JOBS);
        let histories = run_grid(&cells, JOBS, Vec::new, |seen: &mut Vec<usize>, &c| {
            if c < JOBS {
                start.wait();
            }
            seen.push(c);
            seen.clone()
        });
        for (c, history) in histories.iter().enumerate().take(JOBS) {
            assert_eq!(history, &[c], "a fresh worker's state holds only its first cell");
        }
        // A worker's final history lists exactly the cells it ran, so the
        // final histories partition the grid.
        let mut ran: Vec<usize> = (0..JOBS)
            .flat_map(|first| histories.iter().rfind(|h| h[0] == first).expect("ran"))
            .copied()
            .collect();
        ran.sort_unstable();
        assert_eq!(ran, cells);
    }

    #[test]
    fn a_panicking_cell_panics_the_sweep() {
        let cells: Vec<usize> = (0..8).collect();
        for jobs in [1, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_grid(
                    &cells,
                    jobs,
                    || (),
                    |(), &c| {
                        assert!(c != 5, "cell {c} failed its audit");
                        c
                    },
                )
            }));
            let payload = caught.expect_err("the sweep must not survive a failed cell");
            let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
            assert!(msg.contains("cell 5 failed its audit"), "jobs={jobs}: got {msg:?}");
        }
    }

    /// Runs one sweep at `--jobs 1` and `--jobs 4` and requires equal data
    /// and byte-identical CSV.
    fn assert_jobs_invariant<D: PartialEq + Debug>(
        name: &str,
        cfg: HarnessConfig,
        run: impl Fn(&HarnessConfig) -> D,
        csv: impl Fn(&D) -> String,
    ) {
        let serial = run(&HarnessConfig { jobs: 1, ..cfg.clone() });
        let parallel = run(&HarnessConfig { jobs: 4, ..cfg });
        assert_eq!(serial, parallel, "{name}: --jobs changed the sweep's data");
        assert_eq!(csv(&serial), csv(&parallel), "{name}: --jobs changed the sweep's CSV");
    }

    /// Every sweep is bit-identical for any worker count: each point is
    /// seeded from its cell alone, and a worker's state never leaks from
    /// one point into the next.
    #[test]
    fn every_sweep_is_identical_at_jobs_1_and_4() {
        let smoke = HarnessConfig::smoke;
        let pair = find_figure("fig05").expect("fig05 is in the catalog");
        assert_jobs_invariant("figure", smoke(), |cfg| run_figure(pair, cfg), sweep_csv);

        let one_client = HarnessConfig { clients: vec![15], seed: 42, ..smoke() };
        assert_jobs_invariant(
            "availability",
            one_client.clone(),
            |cfg| run_availability(cfg, &[0.0, 0.5, 1.0]),
            availability_csv,
        );
        assert_jobs_invariant(
            "failover",
            one_client,
            |cfg| run_failover(cfg, &[0, 1], &[0.0, 0.5]),
            failover_csv,
        );
        assert_jobs_invariant(
            "overload",
            HarnessConfig { seed: 42, ..smoke() },
            |cfg| run_overload_configs(cfg, &OVERLOAD_CONFIGS, &[6.0]),
            overload_csv,
        );
        let cache = HarnessConfig {
            configs: vec![StandardConfig::PhpColocated, StandardConfig::EjbFourTier],
            clients: vec![10],
            ..smoke()
        };
        let workloads = [CacheWorkload::BookstoreBrowsing, CacheWorkload::AuctionBidding];
        assert_jobs_invariant(
            "cache",
            cache,
            |cfg| run_cache_sweep(cfg, &workloads, &[256], &DEFAULT_CACHE_TTLS),
            cache_csv,
        );
    }
}
