//! The flash-crowd sweep: open-loop overload, metastable collapse, and the
//! controls that prevent it.
//!
//! The paper's closed-loop methodology cannot produce a flash crowd: each
//! emulated browser waits for its response before thinking, so offered
//! load is throttled by the very congestion it causes. This sweep switches
//! the driver to an open [`ArrivalProcess::FlashCrowd`] — arrivals fire on
//! their own schedule regardless of completions — and rides every
//! architecture through the same spike three times:
//!
//! * **naive** — no overload control. Queued requests age past their
//!   deadline, admitted work dies mid-service, and unbudgeted retries keep
//!   the queues full after the spike ends: the metastable retry storm.
//! * **shed** — deadline-aware queue shedding only. Stale waiters are
//!   dropped at dequeue so every granted request still has budget to
//!   finish; the server stops doing doomed work.
//! * **full** — shedding plus a client-side circuit breaker (brownout:
//!   fast-fail while the backend is melting) plus a retry token budget
//!   (caps the amplification that sustains the storm).
//!
//! Each point runs with a per-second [`TimelineBucket`] tape, so goodput
//! is reported separately for the pre-spike, spike, and recovery phases;
//! the headline metric is *retention* — recovery-phase goodput over
//! pre-spike goodput. Base rates are calibrated per architecture (75% of
//! the sustainable open-loop rate, found by a deterministic probe ladder)
//! so the same relative spike hits every configuration, and every point
//! ends with the PR 4 consistency audit.
//!
//! [`ArrivalProcess::FlashCrowd`]: dynamid_workload::ArrivalProcess
//! [`TimelineBucket`]: dynamid_workload::TimelineBucket

use crate::figures::{point_spec, populate, sweep_workload, Benchmark};
use crate::grid::run_grid;
use crate::report::{csv, table_head, table_row, Column};
use crate::HarnessConfig;
use dynamid_bookstore::{Bookstore, BookstoreScale};
use dynamid_core::{AdmissionControl, BreakerPolicy, OverloadControl, StandardConfig};
use dynamid_sim::SimDuration;
use dynamid_sqldb::Database;
use dynamid_workload::{
    ArrivalProcess, ResilienceConfig, RetryBudget, TimelineBucket, WorkloadConfig,
};

/// The architectures the default sweep compares (same trio as the
/// availability sweep): C1 `WsPhp-DB`, C4 `Ws-Servlet-DB`, C6
/// `Ws-Servlet-EJB-DB`.
pub const OVERLOAD_CONFIGS: [StandardConfig; 3] =
    [StandardConfig::PhpColocated, StandardConfig::ServletDedicated, StandardConfig::EjbFourTier];

/// The front-ended deployments (C7 `Px-WsPhp-DB`, C8 `Lb-WsPhp-DB`, C9
/// `Lb-Ws-Servlet-DB`) ridden through the same flash crowd by
/// `repro overload`, gated against `results/golden/overload_c789.csv`.
pub const FRONT_ENDED_OVERLOAD_CONFIGS: [StandardConfig; 3] = StandardConfig::FRONT_ENDED;

/// Default spike intensities (arrival-rate multipliers during the spike).
pub const DEFAULT_SPIKE_MULTS: [f64; 2] = [4.0, 8.0];

/// Fraction of the calibrated sustainable open-loop rate offered as the
/// base (pre-spike) arrival rate.
pub const BASE_RATE_FRACTION: f64 = 0.75;

/// One overload-control arm of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadMode {
    /// No control: queues grow, deadlines expire, retries amplify.
    Naive,
    /// Deadline-aware queue shedding on the web/DB pools only.
    Shed,
    /// Shedding + circuit breaker (brownout) + retry token budget.
    Full,
}

impl OverloadMode {
    /// Stable lower-case label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            OverloadMode::Naive => "naive",
            OverloadMode::Shed => "shed",
            OverloadMode::Full => "full",
        }
    }
}

/// All arms, in sweep order.
pub const OVERLOAD_MODES: [OverloadMode; 3] =
    [OverloadMode::Naive, OverloadMode::Shed, OverloadMode::Full];

// The pinned run shape (seconds). The spike sits strictly inside the
// measurement window with a pre-spike baseline before it and a recovery
// phase after its ramp-down; per-second timeline buckets slice the phases.
const RAMP_UP_SECS: u64 = 2;
const PRE_SECS: u64 = 6;
const SPIKE_SECS: u64 = 6;
const SPIKE_RAMP_SECS: u64 = 2;
const RECOVERY_SECS: u64 = 8;
const RAMP_DOWN_SECS: u64 = 1;
const MEASURE_SECS: u64 = PRE_SECS + SPIKE_SECS + SPIKE_RAMP_SECS + RECOVERY_SECS;

/// The client-side policy per arm: a 2 s deadline with two retries; only
/// the `full` arm budgets them.
pub fn overload_resilience(mode: OverloadMode) -> ResilienceConfig {
    ResilienceConfig {
        request_timeout: Some(SimDuration::from_secs(2)),
        max_retries: 2,
        backoff_base: SimDuration::from_millis(250),
        backoff_cap: SimDuration::from_secs(1),
        retry_budget: matches!(mode, OverloadMode::Full)
            .then_some(RetryBudget { per_fresh: 0.1, burst: 10.0 }),
    }
}

/// The server-side limits every arm runs under: a bounded DB connection
/// pool with an unbounded wait queue, so overload manifests as queueing
/// delay (timeouts, shedding) rather than admission rejects.
pub fn overload_admission() -> AdmissionControl {
    AdmissionControl { web_accept_queue: None, db_connections: Some(16), db_accept_queue: None }
}

/// The overload controls installed per arm.
pub fn overload_control(mode: OverloadMode) -> OverloadControl {
    let shed = Some(SimDuration::from_millis(500));
    match mode {
        OverloadMode::Naive => OverloadControl::default(),
        OverloadMode::Shed => {
            OverloadControl { web_shed_target: shed, db_shed_target: shed, breaker: None }
        }
        OverloadMode::Full => OverloadControl {
            web_shed_target: shed,
            db_shed_target: shed,
            breaker: Some(BreakerPolicy {
                failure_threshold: 8,
                cooldown: SimDuration::from_secs(1),
            }),
        },
    }
}

/// One (configuration, mode, spike intensity) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadPoint {
    /// The deployment measured.
    pub config: StandardConfig,
    /// The overload-control arm.
    pub mode: OverloadMode,
    /// Arrival-rate multiplier during the spike.
    pub spike_mult: f64,
    /// Calibrated base arrival rate (requests per second).
    pub base_rps: f64,
    /// Goodput (ipm) over the pre-spike phase.
    pub pre_goodput_ipm: f64,
    /// Goodput (ipm) over the spike + its ramp-down.
    pub spike_goodput_ipm: f64,
    /// Goodput (ipm) over the recovery phase (after the spike's
    /// ramp-down) — did the system come back?
    pub recovery_goodput_ipm: f64,
    /// `recovery / pre` — the headline metastability metric.
    pub retention: f64,
    /// 99th-percentile latency (ms) of window completions.
    pub latency_p99_ms: f64,
    /// Deadline expirations inside the window.
    pub timeouts: u64,
    /// Attempts shed at dequeue inside the window.
    pub shed: u64,
    /// Attempts fast-failed by the open breaker inside the window.
    pub breaker_open: u64,
    /// Interactions abandoned (retries or budget exhausted) inside the
    /// window.
    pub abandoned: u64,
    /// Retries issued inside the window.
    pub retries: u64,
}

/// A complete flash-crowd sweep: configurations × modes × intensities, in
/// grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadData {
    /// The deployments swept, in grid order.
    pub configs: Vec<StandardConfig>,
    /// The spike-intensity ladder used.
    pub spike_mults: Vec<f64>,
    /// Points in grid order (config-major, then mode, then intensity).
    pub points: Vec<OverloadPoint>,
}

impl OverloadData {
    /// The point for one cell of the grid.
    pub fn point(
        &self,
        config: StandardConfig,
        mode: OverloadMode,
        spike_mult: f64,
    ) -> Option<&OverloadPoint> {
        self.points
            .iter()
            .find(|p| p.config == config && p.mode == mode && p.spike_mult == spike_mult)
    }

    /// Checks the headline claim at the *highest* spike intensity: naive
    /// must collapse (retention < 30%) and full control must survive
    /// (retention ≥ 70%) on every architecture. Returns human-readable
    /// violations (empty = claim holds).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let Some(&top) = self.spike_mults.last() else { return out };
        for &config in &self.configs {
            if let Some(p) = self.point(config, OverloadMode::Naive, top) {
                if p.retention >= 0.30 {
                    out.push(format!(
                        "{} naive at {top}x: retention {:.2} — expected metastable collapse < 0.30",
                        config.paper_name(),
                        p.retention
                    ));
                }
            }
            if let Some(p) = self.point(config, OverloadMode::Full, top) {
                if p.retention < 0.70 {
                    out.push(format!(
                        "{} full at {top}x: retention {:.2} — overload control failed to \
                         recover >= 0.70",
                        config.paper_name(),
                        p.retention
                    ));
                }
            }
        }
        out
    }
}

/// Goodput in interactions per minute over a bucket range of the
/// per-second timeline (missing trailing buckets count as zero).
fn phase_goodput_ipm(timeline: &[TimelineBucket], from_sec: u64, to_sec: u64) -> f64 {
    debug_assert!(to_sec > from_sec);
    let good: u64 =
        (from_sec..to_sec).map(|i| timeline.get(i as usize).map_or(0, |b| b.good)).sum();
    good as f64 / (to_sec - from_sec) as f64 * 60.0
}

/// One calibration probe: an open-loop Poisson run at `rate` under the
/// sweep's admission limits, with the sweep's deadline but no retries and
/// no overload controls. "Sustainable" means ≥ 90% of offered attempts
/// completed without error — the slack absorbs the intrinsic failure rate
/// (deadlock victims in write-heavy mixes) that exists at any load.
fn probe_sustains(
    cfg: &HarnessConfig,
    base_db: &Database,
    config: StandardConfig,
    rate: f64,
) -> bool {
    let mut db = base_db.clone();
    let app = Bookstore::new(BookstoreScale::scaled(cfg.scale));
    let mix = dynamid_bookstore::mixes::shopping();
    let workload = WorkloadConfig {
        ramp_up: SimDuration::from_secs(2),
        measure: SimDuration::from_secs(8),
        ramp_down: SimDuration::from_secs(1),
        seed: cfg.seed ^ 0xCA11_B8A7E,
        resilience: ResilienceConfig { max_retries: 0, ..overload_resilience(OverloadMode::Naive) },
        arrivals: ArrivalProcess::Poisson { rate_per_sec: rate },
        ..sweep_workload(cfg, 0)
    };
    let r = point_spec(cfg, config, &mix, workload)
        .admission(overload_admission())
        .defer_unwind(true)
        .run(&mut db, &app);
    if cfg.verbose {
        eprintln!(
            "  {:<22} probe rate={rate:>7.1}/s offered={:>7.0} goodput={:>7.0} ipm p99={:.0} ms",
            config.paper_name(),
            r.offered_ipm,
            r.goodput_ipm,
            r.latency_p99.as_micros() as f64 / 1_000.0,
        );
    }
    r.metrics.offered > 0 && r.goodput_ipm >= 0.90 * r.offered_ipm
}

/// Finds one architecture's sustainable open-loop arrival rate (requests
/// per second) by climbing a geometric rate ladder until probes start
/// failing. The closed-loop figures cannot provide this number: lock
/// contention under a large closed population inflates latency and
/// understates how much open-loop traffic the deployment absorbs.
/// Deterministic, so the calibrated base rates are reproducible.
fn calibrate_capacity_ips(cfg: &HarnessConfig, base_db: &Database, config: StandardConfig) -> f64 {
    let mut last_ok = 4.0;
    let mut rate = 8.0;
    while rate <= 2048.0 && probe_sustains(cfg, base_db, config, rate) {
        last_ok = rate;
        rate *= 1.5;
    }
    last_ok
}

/// Runs one sweep point. Self-contained and deterministically seeded, so
/// points can run in any order or in parallel without changing results.
fn run_overload_point(
    cfg: &HarnessConfig,
    base_db: &Database,
    (config, capacity_ips, mode, spike_mult): (StandardConfig, f64, OverloadMode, f64),
) -> OverloadPoint {
    let mut db = base_db.clone();
    let app = Bookstore::new(BookstoreScale::scaled(cfg.scale));
    let mix = dynamid_bookstore::mixes::shopping();
    let base_rps = BASE_RATE_FRACTION * capacity_ips;
    let workload = WorkloadConfig {
        ramp_up: SimDuration::from_secs(RAMP_UP_SECS),
        measure: SimDuration::from_secs(MEASURE_SECS),
        ramp_down: SimDuration::from_secs(RAMP_DOWN_SECS),
        // The intensity rank folds into the seed so ladder points draw
        // independent arrival streams; the mode does NOT, so all three
        // arms face the bit-identical flash crowd.
        seed: cfg.seed ^ ((spike_mult * 1_000.0).round() as u64).wrapping_mul(0xF1A5),
        resilience: overload_resilience(mode),
        arrivals: ArrivalProcess::FlashCrowd {
            base_rate: base_rps,
            spike_mult,
            spike_start: SimDuration::from_secs(RAMP_UP_SECS + PRE_SECS),
            spike_len: SimDuration::from_secs(SPIKE_SECS),
            ramp_down: SimDuration::from_secs(SPIKE_RAMP_SECS),
        },
        timeline_bucket: Some(SimDuration::from_secs(1)),
        ..sweep_workload(cfg, 0) // open loop: client slots grow on demand
    };
    let r = point_spec(cfg, config, &mix, workload)
        .admission(overload_admission())
        .overload(overload_control(mode))
        .run(&mut db, &app);
    // The PR 4 consistency audit runs at every point: overload shedding,
    // breaker denials, and abandoned retries must never leak a partial
    // transaction into the surviving database.
    crate::audit::audit_bookstore(base_db, &db, &r.ledger).assert_clean(&format!(
        "{} {} at {spike_mult}x spike",
        config.paper_name(),
        mode.label()
    ));
    let spike_start = RAMP_UP_SECS + PRE_SECS;
    let spike_end = spike_start + SPIKE_SECS + SPIKE_RAMP_SECS;
    let horizon = RAMP_UP_SECS + MEASURE_SECS;
    let pre = phase_goodput_ipm(&r.metrics.timeline, RAMP_UP_SECS, spike_start);
    let spike = phase_goodput_ipm(&r.metrics.timeline, spike_start, spike_end);
    let recovery = phase_goodput_ipm(&r.metrics.timeline, spike_end, horizon);
    let retention = if pre > 0.0 { recovery / pre } else { 0.0 };
    if cfg.verbose {
        eprintln!(
            "  {:<22} {:<5} spike={spike_mult}x base={base_rps:>6.1}/s \
             pre={pre:>7.0} spike={spike:>7.0} rec={recovery:>7.0} ipm \
             retention={retention:.2} shed={} brk={} abandoned={}",
            config.paper_name(),
            mode.label(),
            r.errors.shed,
            r.errors.breaker_open,
            r.errors.abandoned,
        );
    }
    OverloadPoint {
        config,
        mode,
        spike_mult,
        base_rps,
        pre_goodput_ipm: pre,
        spike_goodput_ipm: spike,
        recovery_goodput_ipm: recovery,
        retention,
        latency_p99_ms: r.latency_p99.as_micros() as f64 / 1_000.0,
        timeouts: r.errors.timeouts,
        shed: r.errors.shed,
        breaker_open: r.errors.breaker_open,
        abandoned: r.errors.abandoned,
        retries: r.errors.retries,
    }
}

/// Runs the flash-crowd sweep over an explicit configuration list ×
/// [`OVERLOAD_MODES`] × `spike_mults` on the shared sweep runner
/// (`run_grid`), each point on a fresh fork of the populated database
/// (results are bit-identical for any `--jobs` value). Capacities are calibrated once
/// per configuration up front.
pub fn run_overload_configs(
    cfg: &HarnessConfig,
    configs: &[StandardConfig],
    spike_mults: &[f64],
) -> OverloadData {
    let base_db = populate(Benchmark::Bookstore, cfg.scale, cfg.seed);
    let capacities: Vec<f64> = configs
        .iter()
        .map(|&c| {
            let ips = calibrate_capacity_ips(cfg, &base_db, c);
            if cfg.verbose {
                eprintln!("  {:<22} capacity ~{ips:.1} req/s", c.paper_name());
            }
            ips
        })
        .collect();
    let cells: Vec<(StandardConfig, f64, OverloadMode, f64)> = configs
        .iter()
        .zip(&capacities)
        .flat_map(|(&c, &ips)| {
            OVERLOAD_MODES
                .iter()
                .flat_map(move |&m| spike_mults.iter().map(move |&s| (c, ips, m, s)))
        })
        .collect();
    let points = run_grid(
        &cells,
        cfg.effective_jobs(),
        || (),
        |(), &cell| run_overload_point(cfg, &base_db, cell),
    );
    OverloadData { configs: configs.to_vec(), spike_mults: spike_mults.to_vec(), points }
}

/// Renders the sweep as CSV (stable column order; used by `repro overload`
/// and the smoke gate).
pub fn overload_csv(data: &OverloadData) -> String {
    const COLUMNS: &[Column<OverloadPoint>] = &[
        ("config", |p| p.config.paper_name().to_string()),
        ("mode", |p| p.mode.label().to_string()),
        ("spike_mult", |p| p.spike_mult.to_string()),
        ("base_rps", |p| format!("{:.1}", p.base_rps)),
        ("pre_goodput_ipm", |p| format!("{:.1}", p.pre_goodput_ipm)),
        ("spike_goodput_ipm", |p| format!("{:.1}", p.spike_goodput_ipm)),
        ("recovery_goodput_ipm", |p| format!("{:.1}", p.recovery_goodput_ipm)),
        ("retention", |p| format!("{:.3}", p.retention)),
        ("latency_p99_ms", |p| format!("{:.3}", p.latency_p99_ms)),
        ("timeouts", |p| p.timeouts.to_string()),
        ("shed", |p| p.shed.to_string()),
        ("breaker_open", |p| p.breaker_open.to_string()),
        ("abandoned", |p| p.abandoned.to_string()),
        ("retries", |p| p.retries.to_string()),
    ];
    csv(COLUMNS, &data.points)
}

/// Renders a compact markdown table: retention per configuration per
/// (mode, intensity) column.
pub fn overload_markdown(data: &OverloadData) -> String {
    let mut out = String::from("# Flash-crowd sweep: goodput retention (recovery / pre-spike)\n\n");
    let arms = OVERLOAD_MODES
        .iter()
        .flat_map(|mode| data.spike_mults.iter().map(move |m| format!("{} {m}x", mode.label())));
    out.push_str(&table_head(std::iter::once("config".to_string()).chain(arms)));
    for &config in &data.configs {
        let retention = OVERLOAD_MODES.iter().flat_map(|&mode| {
            data.spike_mults.iter().map(move |&m| {
                data.point(config, mode, m)
                    .map_or("-".to_string(), |p| format!("{:.2}", p.retention))
            })
        });
        out.push_str(&table_row(std::iter::once(config.paper_name().to_string()).chain(retention)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_collapses_and_full_control_recovers() {
        let data = run_overload_configs(&HarnessConfig::smoke(), &OVERLOAD_CONFIGS, &[6.0]);
        assert_eq!(data.points.len(), OVERLOAD_CONFIGS.len() * OVERLOAD_MODES.len());
        for p in &data.points {
            assert!(p.pre_goodput_ipm > 0.0, "{:?}: no pre-spike goodput", (p.config, p.mode));
        }
        let violations = data.violations();
        assert!(violations.is_empty(), "headline claim failed:\n{}", violations.join("\n"));
        // The controls actually engaged: shedding and breaker denials are
        // visible in the taxonomy, and the budget capped retries below the
        // naive arm's storm.
        for config in OVERLOAD_CONFIGS {
            let naive = data.point(config, OverloadMode::Naive, 6.0).unwrap();
            let full = data.point(config, OverloadMode::Full, 6.0).unwrap();
            assert!(full.shed + full.breaker_open > 0, "{config}: controls never engaged");
            assert!(
                full.retries <= naive.retries,
                "{config}: budgeted retries ({}) exceed the naive storm ({})",
                full.retries,
                naive.retries
            );
        }
    }

    #[test]
    fn front_ended_sweep_recovers() {
        let cfg = HarnessConfig::smoke();
        let data = run_overload_configs(&cfg, &FRONT_ENDED_OVERLOAD_CONFIGS, &[6.0]);
        assert_eq!(data.points.len(), FRONT_ENDED_OVERLOAD_CONFIGS.len() * OVERLOAD_MODES.len());
        for p in &data.points {
            assert!(p.pre_goodput_ipm > 0.0, "{:?}: no pre-spike goodput", (p.config, p.mode));
        }
        let violations = data.violations();
        assert!(
            violations.is_empty(),
            "flash-crowd claim failed behind a front end:\n{}",
            violations.join("\n")
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let data = OverloadData {
            configs: vec![StandardConfig::PhpColocated],
            spike_mults: vec![6.0],
            points: vec![OverloadPoint {
                config: StandardConfig::PhpColocated,
                mode: OverloadMode::Full,
                spike_mult: 6.0,
                base_rps: 80.0,
                pre_goodput_ipm: 4800.0,
                spike_goodput_ipm: 1200.0,
                recovery_goodput_ipm: 4600.0,
                retention: 0.958,
                latency_p99_ms: 42.5,
                timeouts: 1,
                shed: 2,
                breaker_open: 3,
                abandoned: 4,
                retries: 5,
            }],
        };
        let csv = overload_csv(&data);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("config,mode,spike_mult,base_rps"));
        assert_eq!(
            lines.next().unwrap(),
            "WsPhp-DB,full,6,80.0,4800.0,1200.0,4600.0,0.958,42.500,1,2,3,4,5"
        );
        let md = overload_markdown(&data);
        assert!(md.contains("WsPhp-DB"));
        assert!(md.contains("full 6x"));
    }
}
