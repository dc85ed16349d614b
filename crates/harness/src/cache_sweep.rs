//! The cache-ablation sweep: throughput versus caching policy across the
//! deployment configurations and benchmark mixes.
//!
//! The paper's headline is that the EJB configurations lose to PHP and
//! servlets largely on per-interaction middleware cost — exactly the cost
//! a transaction-consistent cache amortizes away (Pfeifer & Lockemann's
//! transactional method caching). This sweep quantifies that: every
//! configuration × workload mix × {cache off, TTL, transactional} × cache
//! capacity × TTL duration. The bookstore browsing mix is where the
//! recipe has the most to gain; the auction mixes (browsing and the
//! ~15 %-write bidding mix) price how fast write traffic erodes the
//! benefit.
//!
//! Every point ends with the post-run consistency audit. Points running
//! with the cache **off** or under **transactional** invalidation must be
//! audit-clean — commit-driven invalidation guarantees coherent hits, so a
//! violation means the caching tier corrupted a run and the sweep panics.
//! **TTL** points are allowed to be stale by construction; their violation
//! counts are *recorded* in the CSV instead, making the auditor the
//! pricing oracle for TTL staleness: sweeping the TTL duration turns the
//! `audit_violations` column into a staleness-versus-hit-rate curve.

use crate::audit::{audit_auction, audit_bookstore};
use crate::figures::{default_clients, make_app, point_spec, populate, sweep_workload, Benchmark};
use crate::grid::run_grid;
use crate::report::{csv, table_head, table_row, Column};
use crate::HarnessConfig;
use dynamid_core::{CacheInvalidation, CachePolicy, CacheScope, StandardConfig};
use dynamid_sqldb::Database;
use dynamid_workload::{CacheStats, Mix};

/// The caching policies the sweep ablates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No caching tier installed: the baseline every figure golden uses.
    Off,
    /// Both layers with time-to-live expiry (the arm's `ttl_us`); commits
    /// do not invalidate, so hits may be stale.
    Ttl,
    /// Both layers with commit-driven (transactional) invalidation; hits
    /// are always coherent with committed state.
    Transactional,
}

/// Sweep order: baseline first, then the two cached policies.
pub const CACHE_MODES: [CacheMode; 3] = [CacheMode::Off, CacheMode::Ttl, CacheMode::Transactional];

/// Default TTL for [`CacheMode::Ttl`] points, in simulated microseconds
/// (2 s — long enough to serve stale reads across commits, short enough
/// that the working set keeps turning over).
pub const CACHE_TTL_MICROS: u64 = 2_000_000;

/// TTL durations the TTL mode sweeps over: a short expiry that bounds
/// staleness tightly, and the long default that maximizes hit rate. The
/// audit-violation column prices the difference.
pub const DEFAULT_CACHE_TTLS: [u64; 2] = [250_000, CACHE_TTL_MICROS];

/// Cache capacities the cached modes sweep over: a constrained cache that
/// churns under the browsing working set, and an ample one.
pub const DEFAULT_CACHE_CAPACITIES: [usize; 2] = [256, 4096];

/// The benchmark mixes the ablation runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheWorkload {
    /// Bookstore browsing: read-only, the cache's best case.
    BookstoreBrowsing,
    /// Auction browsing: read-only on the auction schema.
    AuctionBrowsing,
    /// Auction bidding: ~15 % read-write — commits churn the cache and
    /// widen the TTL staleness window.
    AuctionBidding,
}

/// Sweep order for the workload axis.
pub const CACHE_WORKLOADS: [CacheWorkload; 3] = [
    CacheWorkload::BookstoreBrowsing,
    CacheWorkload::AuctionBrowsing,
    CacheWorkload::AuctionBidding,
];

impl CacheWorkload {
    /// CSV / display label.
    pub fn label(self) -> &'static str {
        match self {
            CacheWorkload::BookstoreBrowsing => "bookstore-browsing",
            CacheWorkload::AuctionBrowsing => "auction-browsing",
            CacheWorkload::AuctionBidding => "auction-bidding",
        }
    }

    /// The transition matrix for this workload.
    pub fn mix(self) -> Mix {
        match self {
            CacheWorkload::BookstoreBrowsing => dynamid_bookstore::mixes::browsing(),
            CacheWorkload::AuctionBrowsing => dynamid_auction::mixes::browsing(),
            CacheWorkload::AuctionBidding => dynamid_auction::mixes::bidding(),
        }
    }

    fn benchmark(self) -> Benchmark {
        match self {
            CacheWorkload::BookstoreBrowsing => Benchmark::Bookstore,
            CacheWorkload::AuctionBrowsing | CacheWorkload::AuctionBidding => Benchmark::Auction,
        }
    }
}

impl CacheMode {
    /// CSV / display label.
    pub fn label(self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::Ttl => "ttl",
            CacheMode::Transactional => "txn",
        }
    }

    /// The experiment policy for this mode at `capacity` with expiry
    /// `ttl_us` (ignored except by [`CacheMode::Ttl`]); `None` for
    /// [`CacheMode::Off`].
    pub fn policy(self, capacity: usize, ttl_us: u64) -> Option<CachePolicy> {
        let invalidation = match self {
            CacheMode::Off => return None,
            CacheMode::Ttl => CacheInvalidation::Ttl(ttl_us),
            CacheMode::Transactional => CacheInvalidation::Transactional,
        };
        Some(CachePolicy { capacity, scope: CacheScope::Both, invalidation })
    }

    /// Whether the consistency auditor must be clean at this mode's points.
    /// TTL trades coherence for hit rate on purpose; everything else has no
    /// excuse.
    pub fn must_audit_clean(self) -> bool {
        !matches!(self, CacheMode::Ttl)
    }
}

/// One (workload, configuration, mode, capacity, ttl, client count)
/// measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePoint {
    /// The benchmark mix measured.
    pub workload: CacheWorkload,
    /// The deployment measured.
    pub config: StandardConfig,
    /// Caching policy.
    pub mode: CacheMode,
    /// Cache capacity per layer (0 for [`CacheMode::Off`]).
    pub capacity: usize,
    /// TTL expiry in simulated microseconds (0 for non-TTL modes).
    pub ttl_us: u64,
    /// Offered clients.
    pub clients: usize,
    /// Measured throughput (interactions per minute).
    pub throughput_ipm: f64,
    /// 90th-percentile response time (ms) of window completions.
    pub latency_p90_ms: f64,
    /// Cache counters for the run (all zero for [`CacheMode::Off`]).
    pub cache: CacheStats,
    /// Invariant checks the post-run consistency audit performed.
    pub audit_checks: u64,
    /// Invariants the audit found violated. Always 0 for off/transactional
    /// points (the sweep panics otherwise); TTL points record their
    /// staleness damage here.
    pub audit_violations: u64,
}

/// A complete cache-ablation sweep, points in grid order: workloads in
/// [`CACHE_WORKLOADS`] order, then configurations in `cfg.configs` order,
/// then (mode, capacity, ttl) arms, then client counts ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSweepData {
    /// The workloads each configuration ran.
    pub workloads: Vec<CacheWorkload>,
    /// The (mode, capacity, ttl_us) arms each (workload, configuration)
    /// ran (capacity 0 = off; ttl 0 = no expiry).
    pub arms: Vec<(CacheMode, usize, u64)>,
    /// The client ladder.
    pub clients: Vec<usize>,
    /// All measured points.
    pub points: Vec<CachePoint>,
}

impl CacheSweepData {
    /// The point for an exact (workload, config, mode, capacity, ttl,
    /// clients) tuple.
    #[allow(clippy::too_many_arguments)]
    pub fn point(
        &self,
        workload: CacheWorkload,
        config: StandardConfig,
        mode: CacheMode,
        capacity: usize,
        ttl_us: u64,
        clients: usize,
    ) -> Option<&CachePoint> {
        self.points.iter().find(|p| {
            p.workload == workload
                && p.config == config
                && p.mode == mode
                && p.capacity == capacity
                && p.ttl_us == ttl_us
                && p.clients == clients
        })
    }

    /// Best throughput any arm of `mode` reaches for (workload, config) at
    /// the largest client count.
    pub fn best_at_peak_clients(
        &self,
        workload: CacheWorkload,
        config: StandardConfig,
        mode: CacheMode,
    ) -> Option<f64> {
        let &peak = self.clients.last()?;
        self.points
            .iter()
            .filter(|p| {
                p.workload == workload && p.config == config && p.mode == mode && p.clients == peak
            })
            .map(|p| p.throughput_ipm)
            .max_by(f64::total_cmp)
    }
}

/// One cache-sweep cell: (workload, configuration, (mode, capacity,
/// ttl_us) arm, client count).
type CacheCell = (CacheWorkload, StandardConfig, (CacheMode, usize, u64), usize);

/// Runs one sweep point: fresh database fork, one experiment under the
/// arm's cache policy, then the consistency audit. Self-contained and
/// deterministically seeded, so points can run in any order or in parallel
/// without changing results.
fn run_cache_point(
    cfg: &HarnessConfig,
    base_db: &Database,
    (workload, config, (mode, capacity, ttl_us), clients): CacheCell,
) -> CachePoint {
    let mut db = base_db.clone();
    let mix = workload.mix();
    let mut spec = point_spec(cfg, config, &mix, sweep_workload(cfg, clients));
    if let Some(policy) = mode.policy(capacity, ttl_us) {
        spec = spec.caching(policy);
    }
    let r = spec.run(&mut db, make_app(workload.benchmark(), cfg.scale).as_ref());
    let report = match workload.benchmark() {
        Benchmark::Bookstore => audit_bookstore(base_db, &db, &r.ledger),
        Benchmark::Auction => audit_auction(base_db, &db, &r.ledger),
    };
    if mode.must_audit_clean() {
        report.assert_clean(&format!(
            "{} workload={} cache={} capacity={capacity} clients={clients}",
            config.paper_name(),
            workload.label(),
            mode.label()
        ));
    }
    let cache = r.cache_stats.unwrap_or_default();
    if cfg.verbose {
        eprintln!(
            "  {:<22} {:<19} cache={:<4} cap={:<5} ttl={:<8} clients={:<5} ipm={:>9.0} \
             q-hit={:.2} m-hit={:.2} audit {}/{}",
            config.paper_name(),
            workload.label(),
            mode.label(),
            capacity,
            ttl_us,
            clients,
            r.throughput_ipm,
            cache.query_hit_rate(),
            cache.method_hit_rate(),
            report.violations.len(),
            report.checks,
        );
    }
    CachePoint {
        workload,
        config,
        mode,
        capacity,
        ttl_us,
        clients,
        throughput_ipm: r.throughput_ipm,
        latency_p90_ms: r.metrics.latency.quantile(0.9).as_micros() as f64 / 1_000.0,
        cache,
        audit_checks: report.checks,
        audit_violations: report.violations.len() as u64,
    }
}

/// Builds the (mode, capacity, ttl) arm list: the off baseline, then TTL
/// arms over `capacities` × `ttls`, then transactional arms over
/// `capacities`.
pub fn cache_arms(capacities: &[usize], ttls: &[u64]) -> Vec<(CacheMode, usize, u64)> {
    let mut arms: Vec<(CacheMode, usize, u64)> = vec![(CacheMode::Off, 0, 0)];
    for &c in capacities {
        arms.extend(ttls.iter().map(|&t| (CacheMode::Ttl, c, t)));
    }
    arms.extend(capacities.iter().map(|&c| (CacheMode::Transactional, c, 0)));
    arms
}

/// Runs the full cache-ablation sweep over `workloads` × `cfg.configs` ×
/// ([`CacheMode::Off`] + cached modes × `capacities` × `ttls`) × the
/// client ladder on the shared sweep runner (`run_grid`), each point on a
/// fresh fork of the populated database (results are bit-identical for any
/// `--jobs` value).
///
/// # Panics
///
/// Panics when the consistency audit finds a violation at a point whose
/// mode demands coherence (off or transactional) — see the module docs.
pub fn run_cache_sweep(
    cfg: &HarnessConfig,
    workloads: &[CacheWorkload],
    capacities: &[usize],
    ttls: &[u64],
) -> CacheSweepData {
    let clients = if cfg.clients.is_empty() {
        default_clients(Benchmark::Bookstore)
    } else {
        cfg.clients.clone()
    };
    let arms = cache_arms(capacities, ttls);
    let populated = |b: Benchmark| {
        workloads.iter().any(|w| w.benchmark() == b).then(|| populate(b, cfg.scale, cfg.seed))
    };
    let (bookstore_db, auction_db) =
        (populated(Benchmark::Bookstore), populated(Benchmark::Auction));
    let base_of = |w: CacheWorkload| match w.benchmark() {
        Benchmark::Bookstore => bookstore_db.as_ref(),
        Benchmark::Auction => auction_db.as_ref(),
    };
    let cells: Vec<CacheCell> = workloads
        .iter()
        .flat_map(|&w| cfg.configs.iter().map(move |&c| (w, c)))
        .flat_map(|(w, c)| arms.iter().map(move |&a| (w, c, a)))
        .flat_map(|(w, c, a)| clients.iter().map(move |&n| (w, c, a, n)))
        .collect();
    let points = run_grid(
        &cells,
        cfg.effective_jobs(),
        || (),
        |(), &cell| {
            run_cache_point(cfg, base_of(cell.0).expect("every swept benchmark is populated"), cell)
        },
    );
    CacheSweepData { workloads: workloads.to_vec(), arms, clients, points }
}

/// Renders the sweep as CSV (stable column order; used by `repro cache`
/// and byte-compared against `results/golden/cache.csv` by check.sh).
pub fn cache_csv(data: &CacheSweepData) -> String {
    const COLUMNS: &[Column<CachePoint>] = &[
        ("config", |p| p.config.paper_name().to_string()),
        ("workload", |p| p.workload.label().to_string()),
        ("mode", |p| p.mode.label().to_string()),
        ("capacity", |p| p.capacity.to_string()),
        ("ttl_us", |p| p.ttl_us.to_string()),
        ("clients", |p| p.clients.to_string()),
        ("throughput_ipm", |p| format!("{:.1}", p.throughput_ipm)),
        ("latency_p90_ms", |p| format!("{:.3}", p.latency_p90_ms)),
        ("query_hits", |p| p.cache.query_hits.to_string()),
        ("query_misses", |p| p.cache.query_misses.to_string()),
        ("query_invalidations", |p| p.cache.query_invalidations.to_string()),
        ("query_bypasses", |p| p.cache.query_bypasses.to_string()),
        ("method_hits", |p| p.cache.method.hits.to_string()),
        ("method_misses", |p| p.cache.method.misses.to_string()),
        ("method_invalidations", |p| p.cache.method.invalidations.to_string()),
        ("method_bypasses", |p| p.cache.method.bypasses.to_string()),
        ("audit_checks", |p| p.audit_checks.to_string()),
        ("audit_violations", |p| p.audit_violations.to_string()),
    ];
    csv(COLUMNS, &data.points)
}

/// Renders the headline comparison as markdown: per workload and
/// configuration, the throughput at the largest client count for each arm,
/// the uplift of the best transactional arm over cache-off, and (on the
/// bookstore browsing mix) the EJB+cache versus best-servlet gap the sweep
/// exists to quantify.
pub fn cache_markdown(data: &CacheSweepData) -> String {
    let mut out =
        String::from("# Cache ablation: throughput (ipm) at the largest client count\n\n");
    let Some(&peak) = data.clients.last() else { return out };
    // The configurations swept on one workload, in grid order.
    let configs_of = |workload: CacheWorkload| {
        let mut configs: Vec<StandardConfig> = Vec::new();
        for p in data.points.iter().filter(|p| p.workload == workload) {
            if !configs.contains(&p.config) {
                configs.push(p.config);
            }
        }
        configs
    };
    for &workload in &data.workloads {
        out.push_str(&format!("## {} at {peak} clients\n\n", workload.label()));
        let arms = data.arms.iter().map(|&(mode, cap, ttl)| match mode {
            CacheMode::Off => "off".to_string(),
            CacheMode::Ttl => format!("ttl@{cap}/{:.2}s", ttl as f64 / 1e6),
            CacheMode::Transactional => format!("txn@{cap}"),
        });
        let head = std::iter::once("config".to_string()).chain(arms);
        out.push_str(&table_head(head.chain(["txn uplift".to_string()])));
        for config in configs_of(workload) {
            let ipm = data.arms.iter().map(|&(mode, cap, ttl)| {
                let p = data.point(workload, config, mode, cap, ttl, peak);
                p.map_or("-".to_string(), |p| format!("{:.0}", p.throughput_ipm))
            });
            let off = data.best_at_peak_clients(workload, config, CacheMode::Off).unwrap_or(0.0);
            let txn = data
                .best_at_peak_clients(workload, config, CacheMode::Transactional)
                .unwrap_or(0.0);
            let uplift =
                if off > 0.0 { format!("{:+.0}%", (txn / off - 1.0) * 100.0) } else { "-".into() };
            let row = std::iter::once(config.paper_name().to_string()).chain(ipm);
            out.push_str(&table_row(row.chain([uplift])));
        }
        out.push('\n');
    }
    // The headline: does transactional caching close the EJB-vs-servlet
    // gap the paper measured? (Bookstore browsing, the paper's Figure 7
    // territory.)
    let wl = CacheWorkload::BookstoreBrowsing;
    let ejb = StandardConfig::EjbFourTier;
    let servlet_best = configs_of(wl)
        .into_iter()
        .filter(|&c| c != ejb)
        .filter_map(|c| data.best_at_peak_clients(wl, c, CacheMode::Off).map(|t| (c, t)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let (Some(off), Some(txn), Some((sc, st))) = (
        data.best_at_peak_clients(wl, ejb, CacheMode::Off),
        data.best_at_peak_clients(wl, ejb, CacheMode::Transactional),
        servlet_best,
    ) {
        out.push_str(&format!(
            "EJB four-tier at {peak} clients (bookstore browsing): {off:.0} ipm uncached vs \
             {txn:.0} ipm with transactional caching ({:+.0}%); best non-EJB config uncached \
             ({}) reaches {st:.0} ipm — the cached EJB stack runs at {:.0}% of it \
             (uncached: {:.0}%).\n",
            (txn / off - 1.0) * 100.0,
            sc.paper_name(),
            txn / st * 100.0,
            off / st * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_grid_and_caches_actually_hit() {
        let cfg = HarnessConfig {
            configs: vec![StandardConfig::PhpColocated, StandardConfig::EjbFourTier],
            clients: vec![10],
            ..HarnessConfig::smoke()
        };
        let data = run_cache_sweep(&cfg, &CACHE_WORKLOADS, &[1024], &[CACHE_TTL_MICROS]);
        // 3 workloads × 2 configs × (off + ttl×1 + txn×1) × 1 client count.
        assert_eq!(data.points.len(), 3 * 2 * 3);
        for p in &data.points {
            assert!(p.throughput_ipm > 0.0, "{} produced no throughput", p.config);
            match p.mode {
                CacheMode::Off => assert_eq!(p.cache, CacheStats::default()),
                _ => assert!(
                    p.cache.query_hits > 0,
                    "{} {} {}: query cache never hit",
                    p.config,
                    p.workload.label(),
                    p.mode.label()
                ),
            }
            // Off and transactional points reached us, so they audited
            // clean (assert_clean panics otherwise) — the recorded count
            // must agree.
            if p.mode.must_audit_clean() {
                assert_eq!(p.audit_violations, 0);
            }
            assert!(p.audit_checks > 0, "audit ran no checks");
        }
        // The EJB configuration's method cache participates.
        let ejb_txn = data
            .point(
                CacheWorkload::BookstoreBrowsing,
                StandardConfig::EjbFourTier,
                CacheMode::Transactional,
                1024,
                0,
                10,
            )
            .expect("grid point");
        assert!(ejb_txn.cache.method.hits > 0, "method cache never hit on the EJB config");
        let csv = cache_csv(&data);
        assert_eq!(csv.lines().count(), 1 + data.points.len());
        assert!(csv.starts_with("config,workload,mode,capacity,ttl_us,clients,"));
        let md = cache_markdown(&data);
        assert!(md.contains("EJB four-tier"));
        assert!(md.contains("auction-bidding"));
    }

    #[test]
    fn ttl_axis_changes_expiry_and_arms_enumerate_in_order() {
        let arms = cache_arms(&[64, 128], &[100, 200]);
        assert_eq!(
            arms,
            vec![
                (CacheMode::Off, 0, 0),
                (CacheMode::Ttl, 64, 100),
                (CacheMode::Ttl, 64, 200),
                (CacheMode::Ttl, 128, 100),
                (CacheMode::Ttl, 128, 200),
                (CacheMode::Transactional, 64, 0),
                (CacheMode::Transactional, 128, 0),
            ]
        );
        assert_eq!(
            CacheMode::Ttl.policy(64, 100).expect("ttl arm").invalidation,
            CacheInvalidation::Ttl(100)
        );
        assert_eq!(CacheMode::Off.policy(64, 100), None);
    }
}
