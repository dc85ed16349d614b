//! The failover sweep: goodput under a primary DB crash, with and without
//! the replicated tier.
//!
//! The availability sweep asks how each architecture degrades under a
//! *storm* of random faults; this family pins the scariest single fault —
//! the primary database machine dying mid-measurement — and asks what the
//! replicated DB tier buys back. Every grid point crashes the initial
//! primary at the same sim time (a quarter into the measurement window, for
//! half the window), optionally layers a deterministic fault storm on top,
//! and measures goodput, tail latency, the failure taxonomy, and the
//! detection-to-promotion failover latency versus replica count.
//!
//! `replicas == 0` is the single-DB baseline: the raw outage the failover
//! is supposed to beat. With replicas, reads keep flowing to the surviving
//! replicas throughout the outage, and after one lease the caught-up-most
//! replica is promoted and takes the writes. Every point ends with the
//! consistency audit — whatever the crash interrupted must have unwound.

use crate::availability::{sweep_admission, sweep_resilience, sweep_storm};
use crate::figures::{point_spec, populate, sweep_workload, Benchmark};
use crate::grid::run_grid;
use crate::report::{csv, table_head, table_row, Column};
use crate::HarnessConfig;
use dynamid_bookstore::{Bookstore, BookstoreScale};
use dynamid_core::{ReplicaPolicy, StandardConfig};
use dynamid_sim::SimDuration;
use dynamid_sqldb::Database;
use dynamid_workload::WorkloadConfig;

/// The architectures the sweep compares (same family as the availability
/// sweep): C1 `WsPhp-DB`, C4 `Ws-Servlet-DB`, C6 `Ws-Servlet-EJB-DB`.
pub const FAILOVER_CONFIGS: [StandardConfig; 3] =
    [StandardConfig::PhpColocated, StandardConfig::ServletDedicated, StandardConfig::EjbFourTier];

/// The default replica-count ladder. `0` is the single-DB baseline every
/// replicated point is gated against.
pub const DEFAULT_REPLICAS: [usize; 4] = [0, 1, 2, 4];

/// The default storm-intensity ladder layered on top of the pinned kill.
pub const DEFAULT_STORM_INTENSITIES: [f64; 3] = [0.0, 0.25, 0.5];

/// The replication knobs every sweep point runs under: 5 ms ship lag,
/// 100 ms heartbeat, 400 ms lease — fast enough that a failover completes
/// well inside the smoke-scale measurement window.
pub fn sweep_policy(replicas: usize) -> ReplicaPolicy {
    ReplicaPolicy { replicas, lag_us: 5_000, heartbeat_us: 100_000, lease_us: 400_000 }
}

/// When the pinned kill drops the primary: a quarter into the measurement
/// window.
pub fn kill_at(cfg: &HarnessConfig) -> SimDuration {
    SimDuration::from_micros(cfg.ramp_up.as_micros() + cfg.measure.as_micros() / 4)
}

/// How long the killed primary stays down: half the measurement window —
/// long enough that the no-replica baseline visibly bleeds goodput.
pub fn kill_outage(cfg: &HarnessConfig) -> SimDuration {
    SimDuration::from_micros((cfg.measure.as_micros() / 2).max(1))
}

/// One (configuration, replica count, storm intensity) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverPoint {
    /// The deployment measured.
    pub config: StandardConfig,
    /// Read replicas behind the primary (0 = single-DB baseline).
    pub replicas: usize,
    /// Storm intensity in `[0, 1]` layered on the pinned kill.
    pub intensity: f64,
    /// Attempts per minute offered inside the window.
    pub offered_ipm: f64,
    /// Completions per minute inside the window.
    pub throughput_ipm: f64,
    /// Good completions per minute inside the window.
    pub goodput_ipm: f64,
    /// 99th-percentile response time (ms) of window completions.
    pub latency_p99_ms: f64,
    /// Successful primary promotions inside the window.
    pub failovers: u64,
    /// Detection-to-promotion latency (ms) of the first failover (0 when
    /// none happened — the baseline rows).
    pub failover_latency_ms: f64,
    /// Election rounds that found no eligible replica (whole run).
    pub elections_failed: u64,
    /// Replica fencings over the run (missed frames, crashes, rejoins).
    pub fences: u64,
    /// Completed catch-up replays over the run.
    pub catchups: u64,
    /// Deadline expirations inside the window.
    pub timeouts: u64,
    /// Admission rejections inside the window.
    pub rejects: u64,
    /// Fault-killed attempts inside the window.
    pub aborts: u64,
    /// Retries issued inside the window.
    pub retries: u64,
    /// Interactions abandoned after the retry budget inside the window.
    pub abandoned: u64,
    /// Attempts aborted as deadlock victims inside the window.
    pub deadlocks: u64,
}

/// A complete failover sweep: configurations × replica counts × storm
/// intensities, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverData {
    /// The replica-count ladder used.
    pub replicas: Vec<usize>,
    /// The storm-intensity ladder used.
    pub intensities: Vec<f64>,
    /// Points in grid order: config-major, then replicas, then intensity.
    pub points: Vec<FailoverPoint>,
}

impl FailoverData {
    /// The point at `(config, replicas, intensity)`, if present.
    pub fn point(
        &self,
        config: StandardConfig,
        replicas: usize,
        intensity: f64,
    ) -> Option<&FailoverPoint> {
        self.points
            .iter()
            .find(|p| p.config == config && p.replicas == replicas && p.intensity == intensity)
    }

    /// Grid points where a replicated tier (≥ 2 replicas) failed to beat
    /// the single-DB baseline's goodput at the same storm intensity — the
    /// sweep's headline guarantee. Empty means the guarantee holds.
    pub fn baseline_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for p in self.points.iter().filter(|p| p.replicas >= 2) {
            let Some(base) = self.point(p.config, 0, p.intensity) else { continue };
            if p.goodput_ipm <= base.goodput_ipm {
                violations.push(format!(
                    "{} @ intensity {}: {} replicas goodput {:.1} <= baseline {:.1}",
                    p.config.paper_name(),
                    p.intensity,
                    p.replicas,
                    p.goodput_ipm,
                    base.goodput_ipm
                ));
            }
        }
        violations
    }
}

/// Runs one sweep point. Self-contained and deterministically seeded, so
/// points can run in any order or in parallel without changing results.
fn run_failover_point(
    cfg: &HarnessConfig,
    base_db: &Database,
    (config, replicas, intensity): (StandardConfig, usize, f64),
) -> FailoverPoint {
    let mut db = base_db.clone();
    let app = Bookstore::new(BookstoreScale::scaled(cfg.scale));
    let mix = dynamid_bookstore::mixes::shopping();
    let clients = cfg.clients.first().copied().unwrap_or(100);
    let workload =
        WorkloadConfig { resilience: sweep_resilience(), ..sweep_workload(cfg, clients) };
    let mut spec = point_spec(cfg, config, &mix, workload)
        .admission(sweep_admission())
        .kill_primary(kill_at(cfg), kill_outage(cfg));
    if intensity > 0.0 {
        // The same intensity rank draws the same storm whatever the
        // architecture or replica count: per-machine forked streams mean
        // adding replicas never perturbs the other machines' schedules.
        spec = spec.faults(sweep_storm(cfg, intensity));
    }
    if replicas > 0 {
        spec = spec.replication(sweep_policy(replicas));
    }
    let r = spec.run(&mut db, &app);
    // The sweep's oracle: after the crash, the failover, and the driver's
    // unwind, the surviving database must be exactly "baseline + committed
    // transactions" — stale promotion or fencing bugs would surface here.
    crate::audit::audit_bookstore(base_db, &db, &r.ledger).assert_clean(&format!(
        "{} with {replicas} replicas at intensity {intensity}",
        config.paper_name()
    ));
    let rep = r.replication.unwrap_or_default();
    let failover_latency_ms =
        rep.first_failover_latency().map_or(0.0, |d| d.as_micros() as f64 / 1_000.0);
    if cfg.verbose {
        eprintln!(
            "  {:<22} replicas={} intensity={:<5} goodput={:>8.0} ipm \
             failover={:>6.1} ms fences={} catchups={}",
            config.paper_name(),
            replicas,
            intensity,
            r.goodput_ipm,
            failover_latency_ms,
            rep.stats.fences,
            rep.stats.catchups,
        );
    }
    FailoverPoint {
        config,
        replicas,
        intensity,
        offered_ipm: r.offered_ipm,
        throughput_ipm: r.throughput_ipm,
        goodput_ipm: r.goodput_ipm,
        latency_p99_ms: r.latency_p99.as_micros() as f64 / 1_000.0,
        failovers: r.errors.failovers,
        failover_latency_ms,
        elections_failed: rep.stats.failed_elections,
        fences: rep.stats.fences,
        catchups: rep.stats.catchups,
        timeouts: r.errors.timeouts,
        rejects: r.errors.rejects,
        aborts: r.errors.aborts,
        retries: r.errors.retries,
        abandoned: r.errors.abandoned,
        deadlocks: r.errors.deadlocks,
    }
}

/// Runs the full failover sweep over [`FAILOVER_CONFIGS`] × `replicas` ×
/// `intensities` on the shared sweep runner (`run_grid`), each point on a
/// fresh fork of the populated database (results are bit-identical for any
/// `--jobs` value).
pub fn run_failover(cfg: &HarnessConfig, replicas: &[usize], intensities: &[f64]) -> FailoverData {
    let base_db = populate(Benchmark::Bookstore, cfg.scale, cfg.seed);
    let cells: Vec<(StandardConfig, usize, f64)> = FAILOVER_CONFIGS
        .iter()
        .flat_map(|&c| {
            replicas.iter().flat_map(move |&r| intensities.iter().map(move |&i| (c, r, i)))
        })
        .collect();
    let points = run_grid(
        &cells,
        cfg.effective_jobs(),
        || (),
        |(), &cell| run_failover_point(cfg, &base_db, cell),
    );
    FailoverData { replicas: replicas.to_vec(), intensities: intensities.to_vec(), points }
}

/// Renders the sweep as CSV (stable column order; used by `repro failover`
/// and the check gate's golden comparison).
pub fn failover_csv(data: &FailoverData) -> String {
    const COLUMNS: &[Column<FailoverPoint>] = &[
        ("config", |p| p.config.paper_name().to_string()),
        ("replicas", |p| p.replicas.to_string()),
        ("intensity", |p| p.intensity.to_string()),
        ("offered_ipm", |p| format!("{:.1}", p.offered_ipm)),
        ("throughput_ipm", |p| format!("{:.1}", p.throughput_ipm)),
        ("goodput_ipm", |p| format!("{:.1}", p.goodput_ipm)),
        ("latency_p99_ms", |p| format!("{:.3}", p.latency_p99_ms)),
        ("failovers", |p| p.failovers.to_string()),
        ("failover_latency_ms", |p| format!("{:.3}", p.failover_latency_ms)),
        ("elections_failed", |p| p.elections_failed.to_string()),
        ("fences", |p| p.fences.to_string()),
        ("catchups", |p| p.catchups.to_string()),
        ("timeouts", |p| p.timeouts.to_string()),
        ("rejects", |p| p.rejects.to_string()),
        ("aborts", |p| p.aborts.to_string()),
        ("retries", |p| p.retries.to_string()),
        ("abandoned", |p| p.abandoned.to_string()),
        ("deadlocks", |p| p.deadlocks.to_string()),
    ];
    csv(COLUMNS, &data.points)
}

/// Renders a compact markdown table: goodput per configuration per replica
/// count at the calmest and stormiest intensities.
pub fn failover_markdown(data: &FailoverData) -> String {
    let mut out =
        String::from("# Failover sweep: goodput (ipm) under a mid-measurement primary kill\n\n");
    let storms = data.intensities.iter().map(|i| format!("storm={i}"));
    out.push_str(&table_head(
        ["config".to_string(), "replicas".to_string()].into_iter().chain(storms),
    ));
    for config in FAILOVER_CONFIGS {
        for &n in &data.replicas {
            let goodput = data.intensities.iter().map(|&i| {
                data.point(config, n, i)
                    .map_or("-".to_string(), |p| format!("{:.0}", p.goodput_ipm))
            });
            let row = [config.paper_name().to_string(), n.to_string()].into_iter().chain(goodput);
            out.push_str(&table_row(row));
        }
    }
    let violations = data.baseline_violations();
    if violations.is_empty() {
        out.push_str("\nEvery ≥2-replica point beats its single-DB baseline.\n");
    } else {
        out.push_str("\n**Baseline violations:**\n");
        for v in &violations {
            out.push_str(&format!("- {v}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_kill_fails_over_and_beats_the_baseline() {
        let cfg = HarnessConfig { clients: vec![15], ..HarnessConfig::smoke() };
        let data = run_failover(&cfg, &[0, 2], &[0.0]);
        assert_eq!(data.points.len(), FAILOVER_CONFIGS.len() * 2);
        for config in FAILOVER_CONFIGS {
            let base = data.point(config, 0, 0.0).expect("baseline point");
            let repl = data.point(config, 2, 0.0).expect("replicated point");
            // The baseline has no tier to fail over to.
            assert_eq!(base.failovers, 0, "{config}: baseline cannot fail over");
            assert_eq!(base.failover_latency_ms, 0.0);
            // The replicated tier promoted exactly once, inside the window.
            assert_eq!(repl.failovers, 1, "{config}: expected one failover");
            assert!(repl.failover_latency_ms > 0.0, "{config}: no latency recorded");
            // The ex-primary rejoined fenced and replayed the stream.
            assert!(repl.fences > 0, "{config}: rejoin never fenced");
        }
        assert!(
            data.baseline_violations().is_empty(),
            "replicated goodput lost to the raw outage: {:?}",
            data.baseline_violations()
        );
    }

    #[test]
    fn csv_and_markdown_have_stable_shape() {
        let data = FailoverData {
            replicas: vec![0, 2],
            intensities: vec![0.0],
            points: vec![FailoverPoint {
                config: StandardConfig::PhpColocated,
                replicas: 2,
                intensity: 0.0,
                offered_ipm: 100.0,
                throughput_ipm: 99.0,
                goodput_ipm: 98.0,
                latency_p99_ms: 12.5,
                failovers: 1,
                failover_latency_ms: 450.5,
                elections_failed: 0,
                fences: 1,
                catchups: 1,
                timeouts: 1,
                rejects: 2,
                aborts: 3,
                retries: 4,
                abandoned: 5,
                deadlocks: 6,
            }],
        };
        let csv = failover_csv(&data);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("config,replicas,intensity,offered_ipm"));
        assert_eq!(
            lines.next().unwrap(),
            "WsPhp-DB,2,0,100.0,99.0,98.0,12.500,1,450.500,0,1,1,1,2,3,4,5,6"
        );
        let md = failover_markdown(&data);
        assert!(md.contains("WsPhp-DB"));
    }
}
