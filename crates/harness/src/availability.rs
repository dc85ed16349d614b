//! The availability sweep: goodput, tail latency, and failure taxonomy
//! versus fault intensity.
//!
//! The paper's figures ask "how fast is each architecture when everything
//! works"; this family asks the complementary robustness question: as the
//! environment degrades — transient faults, machine crash/restart cycles,
//! CPU/NIC brownouts — how gracefully does each architecture shed load?
//! More tiers mean more machines that can fail (the four-tier EJB
//! deployment exposes twice the crash surface of co-located PHP), but also
//! more places to reject early before work is wasted.
//!
//! Every point runs with the same client-side resilience policy (deadline,
//! two retries with capped exponential backoff) and the same server-side
//! admission limits, so the curves isolate the architecture, not the
//! policy. Fault schedules compile deterministically from the sweep seed:
//! the whole sweep is bit-reproducible.

use crate::figures::{point_spec, populate, sweep_workload, Benchmark};
use crate::grid::run_grid;
use crate::report::{csv, table_head, table_row, Column};
use crate::HarnessConfig;
use dynamid_bookstore::{Bookstore, BookstoreScale};
use dynamid_core::{AdmissionControl, StandardConfig};
use dynamid_sim::SimDuration;
use dynamid_sqldb::Database;
use dynamid_workload::{ChaosOptions, FaultSpec, ResilienceConfig, WorkloadConfig};

/// The three architectures the sweep compares, one per paper family:
/// C1 `WsPhp-DB` (2 machines), C4 `Ws-Servlet-DB` (3 machines), and
/// C6 `Ws-Servlet-EJB-DB` (4 machines).
pub const AVAILABILITY_CONFIGS: [StandardConfig; 3] =
    [StandardConfig::PhpColocated, StandardConfig::ServletDedicated, StandardConfig::EjbFourTier];

/// The default fault-intensity ladder (see [`FaultSpec::at_intensity`]).
pub const DEFAULT_INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The client-side policy every sweep point runs under.
pub fn sweep_resilience() -> ResilienceConfig {
    ResilienceConfig {
        request_timeout: Some(SimDuration::from_secs(5)),
        max_retries: 2,
        backoff_base: SimDuration::from_millis(250),
        backoff_cap: SimDuration::from_secs(2),
        retry_budget: None,
    }
}

/// The server-side admission limits every sweep point runs under.
pub fn sweep_admission() -> AdmissionControl {
    AdmissionControl {
        web_accept_queue: Some(128),
        db_connections: Some(48),
        db_accept_queue: Some(64),
    }
}

/// The fault storm of one intensity under the sweep's admission limits.
/// The fault seed folds in the intensity rank so ladder points draw
/// independent schedules, but nothing about the configuration: the same
/// storm hits every architecture.
pub(crate) fn sweep_storm(cfg: &HarnessConfig, intensity: f64) -> ChaosOptions {
    let fault_seed = cfg.seed ^ ((intensity * 1_000.0).round() as u64).wrapping_mul(0x9E37);
    ChaosOptions {
        faults: Some(FaultSpec::at_intensity(fault_seed, intensity)),
        admission: sweep_admission(),
    }
}

/// One (configuration, fault intensity) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityPoint {
    /// The deployment measured.
    pub config: StandardConfig,
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// Attempts per minute the clients offered inside the window.
    pub offered_ipm: f64,
    /// Completions per minute inside the window.
    pub throughput_ipm: f64,
    /// Good (error-free) completions per minute inside the window.
    pub goodput_ipm: f64,
    /// 99th-percentile response time (ms) of window completions.
    pub latency_p99_ms: f64,
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
    /// Attempts shed by deadline-aware queue management inside the window
    /// (zero unless an [`OverloadControl`] shed target is installed).
    ///
    /// [`OverloadControl`]: dynamid_core::OverloadControl
    pub shed: u64,
    /// Attempts denied client-side by an open circuit breaker inside the
    /// window (zero unless a breaker is installed).
    pub breaker_open: u64,
}

impl AvailabilityPoint {
    /// Total failed attempts inside the window.
    pub fn failed(&self) -> u64 {
        self.timeouts + self.rejects + self.aborts + self.deadlocks + self.shed + self.breaker_open
    }
}

/// A complete availability sweep: configurations × intensities, in grid
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityData {
    /// The intensity ladder used.
    pub intensities: Vec<f64>,
    /// Points grouped by configuration (outer order =
    /// [`AVAILABILITY_CONFIGS`] order), intensities ascending within.
    pub points: Vec<AvailabilityPoint>,
}

/// Runs one sweep point. Self-contained and deterministically seeded, so
/// points can run in any order or in parallel without changing results.
fn run_avail_point(
    cfg: &HarnessConfig,
    base_db: &Database,
    (config, intensity): (StandardConfig, f64),
) -> AvailabilityPoint {
    let mut db = base_db.clone();
    let app = Bookstore::new(BookstoreScale::scaled(cfg.scale));
    let mix = dynamid_bookstore::mixes::shopping();
    let clients = cfg.clients.first().copied().unwrap_or(100);
    let workload =
        WorkloadConfig { resilience: sweep_resilience(), ..sweep_workload(cfg, clients) };
    let r = point_spec(cfg, config, &mix, workload)
        .chaos(sweep_storm(cfg, intensity))
        .run(&mut db, &app);
    // Every sweep point ends with a consistency audit: after the driver's
    // crash-consistent unwind the surviving database must be exactly
    // "baseline + committed transactions", whatever the faults did.
    crate::audit::audit_bookstore(base_db, &db, &r.ledger)
        .assert_clean(&format!("{} at intensity {intensity}", config.paper_name()));
    if cfg.verbose {
        eprintln!(
            "  {:<22} intensity={:<5} goodput={:>8.0} ipm p99={:>7.1} ms \
             t/o={} rej={} abort={}",
            config.paper_name(),
            intensity,
            r.goodput_ipm,
            r.latency_p99.as_micros() as f64 / 1_000.0,
            r.errors.timeouts,
            r.errors.rejects,
            r.errors.aborts,
        );
    }
    AvailabilityPoint {
        config,
        intensity,
        offered_ipm: r.offered_ipm,
        throughput_ipm: r.throughput_ipm,
        goodput_ipm: r.goodput_ipm,
        latency_p99_ms: r.latency_p99.as_micros() as f64 / 1_000.0,
        timeouts: r.errors.timeouts,
        rejects: r.errors.rejects,
        aborts: r.errors.aborts,
        retries: r.errors.retries,
        abandoned: r.errors.abandoned,
        deadlocks: r.errors.deadlocks,
        shed: r.errors.shed,
        breaker_open: r.errors.breaker_open,
    }
}

/// Runs the full availability sweep over [`AVAILABILITY_CONFIGS`] ×
/// `intensities` on the shared sweep runner (`run_grid`), each point on a
/// fresh fork of the populated database (results are bit-identical for any
/// `--jobs` value).
pub fn run_availability(cfg: &HarnessConfig, intensities: &[f64]) -> AvailabilityData {
    let base_db = populate(Benchmark::Bookstore, cfg.scale, cfg.seed);
    let cells: Vec<(StandardConfig, f64)> = AVAILABILITY_CONFIGS
        .iter()
        .flat_map(|&c| intensities.iter().map(move |&i| (c, i)))
        .collect();
    let points = run_grid(
        &cells,
        cfg.effective_jobs(),
        || (),
        |(), &cell| run_avail_point(cfg, &base_db, cell),
    );
    AvailabilityData { intensities: intensities.to_vec(), points }
}

/// Renders the sweep as CSV (stable column order; used by `repro avail`
/// and the chaos smoke probe).
pub fn availability_csv(data: &AvailabilityData) -> String {
    const COLUMNS: &[Column<AvailabilityPoint>] = &[
        ("config", |p| p.config.paper_name().to_string()),
        ("intensity", |p| p.intensity.to_string()),
        ("offered_ipm", |p| format!("{:.1}", p.offered_ipm)),
        ("throughput_ipm", |p| format!("{:.1}", p.throughput_ipm)),
        ("goodput_ipm", |p| format!("{:.1}", p.goodput_ipm)),
        ("latency_p99_ms", |p| format!("{:.3}", p.latency_p99_ms)),
        ("timeouts", |p| p.timeouts.to_string()),
        ("rejects", |p| p.rejects.to_string()),
        ("aborts", |p| p.aborts.to_string()),
        ("retries", |p| p.retries.to_string()),
        ("abandoned", |p| p.abandoned.to_string()),
        ("deadlocks", |p| p.deadlocks.to_string()),
        ("shed", |p| p.shed.to_string()),
        ("breaker_open", |p| p.breaker_open.to_string()),
    ];
    csv(COLUMNS, &data.points)
}

/// Renders a compact markdown table: goodput (and failure counts) per
/// configuration per intensity.
pub fn availability_markdown(data: &AvailabilityData) -> String {
    let mut out = String::from("# Availability sweep: goodput (ipm) vs fault intensity\n\n");
    let intensities = data.intensities.iter().map(|i| format!("i={i}"));
    out.push_str(&table_head(std::iter::once("config".to_string()).chain(intensities)));
    for config in AVAILABILITY_CONFIGS {
        let points = data.points.iter().filter(|p| p.config == config);
        let goodput = points.map(|p| format!("{:.0}", p.goodput_ipm));
        out.push_str(&table_row(std::iter::once(config.paper_name().to_string()).chain(goodput)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_grid_and_zero_intensity_is_clean() {
        let cfg = HarnessConfig { clients: vec![15], ..HarnessConfig::smoke() };
        let data = run_availability(&cfg, &[0.0, 1.0]);
        assert_eq!(data.points.len(), AVAILABILITY_CONFIGS.len() * 2);
        for config in AVAILABILITY_CONFIGS {
            let clean = data
                .points
                .iter()
                .find(|p| p.config == config && p.intensity == 0.0)
                .expect("zero point");
            assert!(clean.goodput_ipm > 0.0, "{config}: no goodput");
            // No fault state is installed at intensity 0: nothing can be
            // fault-aborted, and this light load cannot fill the admission
            // queues. (Client timeouts can still fire on a slow-but-healthy
            // deployment — that is the resilience policy, not a fault.)
            assert_eq!(clean.aborts, 0, "{config}: fault aborts at intensity 0");
            assert_eq!(clean.rejects, 0, "{config}: admission rejects at intensity 0");
        }
        // Full intensity hurts someone: at least one failure recorded
        // somewhere in the hostile column.
        let hostile: u64 = data
            .points
            .iter()
            .filter(|p| p.intensity == 1.0)
            .map(|p| p.timeouts + p.rejects + p.aborts)
            .sum();
        assert!(hostile > 0, "full intensity produced zero failures");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let data = AvailabilityData {
            intensities: vec![0.0],
            points: vec![AvailabilityPoint {
                config: StandardConfig::PhpColocated,
                intensity: 0.0,
                offered_ipm: 100.0,
                throughput_ipm: 99.0,
                goodput_ipm: 98.0,
                latency_p99_ms: 12.5,
                timeouts: 1,
                rejects: 2,
                aborts: 3,
                retries: 4,
                abandoned: 5,
                deadlocks: 6,
                shed: 7,
                breaker_open: 8,
            }],
        };
        let csv = availability_csv(&data);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("config,intensity,offered_ipm"));
        assert_eq!(lines.next().unwrap(), "WsPhp-DB,0,100.0,99.0,98.0,12.500,1,2,3,4,5,6,7,8");
        let md = availability_markdown(&data);
        assert!(md.contains("WsPhp-DB"));
    }
}
