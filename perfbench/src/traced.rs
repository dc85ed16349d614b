//! The traced run: the benchmark's own copy of the sweep loops, with a
//! host timer around every call into a layer.
//!
//! `run_figure` and `run_overload_configs` keep their per-point helpers
//! private, so this module replays the same per-point calls through public
//! items only: `build_db`, `Database::clone`/`begin_rewind`/`rewind` and
//! `ExperimentSpec::run(..)`. The application handed to `run` is wrapped in
//! [`Timed`], which times each `handle` call. The caller compares every
//! point with the untraced sweep's, which proves the timers only observe
//! and that this copy has not drifted from the harness.

use dynamid_auction::{Auction, AuctionScale};
use dynamid_bookstore::{Bookstore, BookstoreScale};
use dynamid_core::{
    AppLockSpec, AppResult, Application, CostModel, InteractionSpec, LogicStyle, RequestCtx,
    SessionData, StandardConfig,
};
use dynamid_harness::overload::{overload_admission, overload_control, overload_resilience};
use dynamid_harness::{
    audit_bookstore, Benchmark, ConfigCurve, CurvePoint, FigureData, FigurePair, HarnessConfig,
    OverloadData, OverloadMode, OverloadPoint, BASE_RATE_FRACTION, OVERLOAD_MODES,
};
use dynamid_sim::{ErrorCounters, SimDuration, SimRng};
use dynamid_sqldb::Database;
use dynamid_workload::{
    ArrivalProcess, ExperimentResult, ExperimentSpec, Mix, ResilienceConfig, TimelineBucket,
    WorkloadConfig,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Populates the database of `benchmark` with the app crate's `build_db`.
pub fn populate(benchmark: Benchmark, scale: f64, seed: u64) -> Database {
    match benchmark {
        Benchmark::Bookstore => dynamid_bookstore::build_db(&BookstoreScale::scaled(scale), seed),
        Benchmark::Auction => dynamid_auction::build_db(&AuctionScale::scaled(scale), seed),
    }
    .expect("population")
}

/// Host nanoseconds of every `handle` call, keyed by interaction name and
/// logic style.
#[derive(Debug, Default)]
pub struct HandleTimes {
    calls: BTreeMap<(&'static str, &'static str), Vec<u64>>,
    errors: u64,
}

impl HandleTimes {
    fn merge(&mut self, other: HandleTimes) {
        for (key, ns) in other.calls {
            self.calls.entry(key).or_default().extend(ns);
        }
        self.errors += other.errors;
    }

    #[cfg(test)]
    fn count(&self) -> usize {
        self.calls.values().map(Vec::len).sum()
    }

    fn total_ns(&self) -> u64 {
        self.calls.values().flatten().sum()
    }

    /// Mean microseconds per call over the styles `keep` selects.
    fn mean_us(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let picked: Vec<u64> = self
            .calls
            .iter()
            .filter(|((_, s), _)| keep(s))
            .flat_map(|(_, ns)| ns)
            .copied()
            .collect();
        ratio(picked.iter().sum::<u64>() as f64 / 1_000.0, picked.len() as f64)
    }
}

fn style_label(style: LogicStyle) -> &'static str {
    match style {
        LogicStyle::ExplicitSql { sync: false } => "sql",
        LogicStyle::ExplicitSql { sync: true } => "sql-sync",
        LogicStyle::EntityBean => "ejb",
    }
}

/// Timing decorator: forwards every call to the wrapped application and
/// records the host time of each `handle` call. It never touches simulated
/// state, so a run with it is bit-identical to a run without it.
pub struct Timed<'a> {
    inner: &'a dyn Application,
    times: RefCell<HandleTimes>,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Application) -> Self {
        Timed { inner, times: RefCell::new(HandleTimes::default()) }
    }

    /// The calls recorded so far.
    pub fn into_times(self) -> HandleTimes {
        self.times.into_inner()
    }
}

impl Application for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interactions(&self) -> &[InteractionSpec] {
        self.inner.interactions()
    }

    fn app_locks(&self) -> Vec<AppLockSpec> {
        self.inner.app_locks()
    }

    fn handle(
        &self,
        id: usize,
        ctx: &mut RequestCtx<'_>,
        session: &mut SessionData,
        rng: &mut SimRng,
    ) -> AppResult<()> {
        let style = style_label(ctx.style());
        let t = Instant::now();
        let result = self.inner.handle(id, ctx, session, rng);
        let ns = t.elapsed().as_nanos() as u64;
        let mut times = self.times.borrow_mut();
        times.calls.entry((self.inner.interactions()[id].name, style)).or_default().push(ns);
        times.errors += u64::from(result.is_err());
        result
    }
}

/// Per-layer host time and counters summed over every traced sweep.
#[derive(Debug, Default)]
pub struct Layers {
    populate_s: f64,
    populate_rows: u64,
    clone_us: Vec<f64>,
    rewind_us: Vec<f64>,
    rewinds_ok: u64,
    run_s: f64,
    handle: HandleTimes,
    statements: u64,
    plan_hits: u64,
    plan_misses: u64,
    sql_errors: u64,
    events: u64,
    stale_events: u64,
    peak_calendar: u64,
    aborted: u64,
    rejected: u64,
    overload: ErrorCounters,
    /// Seconds spent rendering sweep CSVs.
    pub report_s: f64,
}

impl Layers {
    fn populate(&mut self, benchmark: Benchmark, scale: f64, seed: u64) -> Database {
        let t = Instant::now();
        let db = populate(benchmark, scale, seed);
        self.populate_s += t.elapsed().as_secs_f64();
        self.populate_rows += db
            .table_names()
            .iter()
            .map(|name| db.table(name).expect("listed table").row_count() as u64)
            .sum::<u64>();
        db
    }

    /// A copy-on-write fork of `base`, journaling for rewind when asked.
    fn fork(&mut self, base: &Database, rewind: bool) -> Database {
        let t = Instant::now();
        let mut db = base.clone();
        if rewind {
            db.begin_rewind();
        }
        self.clone_us.push(t.elapsed().as_secs_f64() * 1e6);
        db
    }

    fn rewind(&mut self, db: &mut Database) -> bool {
        let t = Instant::now();
        let ok = db.rewind();
        self.rewind_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.rewinds_ok += u64::from(ok);
        ok
    }

    fn run(
        &mut self,
        spec: &ExperimentSpec<'_>,
        db: &mut Database,
        app: &dyn Application,
    ) -> ExperimentResult {
        let timed = Timed::new(app);
        let before = db.stats();
        let t = Instant::now();
        let r = spec.run(db, &timed);
        self.run_s += t.elapsed().as_secs_f64();
        let after = db.stats();
        self.statements += after.statements - before.statements;
        self.plan_hits += after.plan_cache_hits - before.plan_cache_hits;
        self.plan_misses += after.plan_cache_misses - before.plan_cache_misses;
        self.sql_errors += after.errors - before.errors;
        self.events += r.engine.events;
        self.stale_events += r.engine.stale_events;
        self.peak_calendar = self.peak_calendar.max(r.engine.peak_calendar);
        self.aborted += r.engine.aborted;
        self.rejected += r.engine.rejected;
        self.handle.merge(timed.into_times());
        r
    }

    /// Adds one sweep point's overload-control counters.
    fn count_overload(&mut self, e: &ErrorCounters) {
        self.overload.retries += e.retries;
        self.overload.shed += e.shed;
        self.overload.breaker_open += e.breaker_open;
        self.overload.abandoned += e.abandoned;
        self.overload.timeouts += e.timeouts;
    }

    fn merge(&mut self, o: Layers) {
        self.populate_s += o.populate_s;
        self.populate_rows += o.populate_rows;
        self.clone_us.extend(o.clone_us);
        self.rewind_us.extend(o.rewind_us);
        self.rewinds_ok += o.rewinds_ok;
        self.run_s += o.run_s;
        self.handle.merge(o.handle);
        self.statements += o.statements;
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.sql_errors += o.sql_errors;
        self.events += o.events;
        self.stale_events += o.stale_events;
        self.peak_calendar = self.peak_calendar.max(o.peak_calendar);
        self.aborted += o.aborted;
        self.rejected += o.rejected;
        self.count_overload(&o.overload);
        self.report_s += o.report_s;
    }

    /// Every per-layer metric as `(name, value, unit)`. Counts and times
    /// are per sweep, averaged over the `sweeps` traced sweeps;
    /// `overhead_ratio` is traced-loop wall time over untraced sweep time.
    pub fn metrics(
        &self,
        sweeps: usize,
        overhead_ratio: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let n = sweeps.max(1) as f64;
        let mut per_call: Vec<u64> = self.handle.calls.values().flatten().copied().collect();
        per_call.sort_unstable();
        let calls = per_call.len() as f64;
        let app_s = self.handle.total_ns() as f64 / 1e9;
        let engine_s = self.run_s - app_s;
        let rewinds = self.rewind_us.len() as f64;
        let plan_total = (self.plan_hits + self.plan_misses) as f64;
        let o = &self.overload;
        vec![
            ("populate.s", self.populate_s / n, "s"),
            ("populate.rows", self.populate_rows as f64 / n, "count"),
            ("populate.us_per_row", ratio(self.populate_s * 1e6, self.populate_rows as f64), "us"),
            ("fork.clone_us", median(&self.clone_us), "us"),
            ("fork.rewind_us", median(&self.rewind_us), "us"),
            ("fork.rewinds", rewinds / n, "count"),
            // No rewind attempted means none failed: vacuously 1.
            (
                "fork.rewind_ok_ratio",
                if rewinds == 0.0 { 1.0 } else { self.rewinds_ok as f64 / rewinds },
                "ratio",
            ),
            ("app.calls", calls / n, "count"),
            ("app.s", app_s / n, "s"),
            ("app.share", ratio(app_s, self.run_s), "ratio"),
            ("app.us_per_call_p50", quantile_ns(&per_call, 0.50) / 1e3, "us"),
            ("app.us_per_call_p99", quantile_ns(&per_call, 0.99) / 1e3, "us"),
            ("app.error_ratio", ratio(self.handle.errors as f64, calls), "ratio"),
            ("app.ejb_us_per_call", self.handle.mean_us(|s| s == "ejb"), "us"),
            ("app.sql_us_per_call", self.handle.mean_us(|s| s != "ejb"), "us"),
            ("sqldb.statements", self.statements as f64 / n, "count"),
            ("sqldb.statements_per_call", ratio(self.statements as f64, calls), "count"),
            ("sqldb.plan_hit_ratio", ratio(self.plan_hits as f64, plan_total), "ratio"),
            ("sqldb.errors", self.sql_errors as f64 / n, "count"),
            ("sqldb.app_ns_per_statement", ratio(app_s * 1e9, self.statements as f64), "ns"),
            ("engine.s", engine_s / n, "s"),
            ("engine.events", self.events as f64 / n, "count"),
            ("engine.ns_per_event", ratio(engine_s * 1e9, self.events as f64), "ns"),
            ("engine.stale_ratio", ratio(self.stale_events as f64, self.events as f64), "ratio"),
            ("engine.peak_calendar", self.peak_calendar as f64, "count"),
            ("engine.aborted", self.aborted as f64 / n, "count"),
            ("engine.rejected", self.rejected as f64 / n, "count"),
            ("overload.retries", o.retries as f64 / n, "count"),
            ("overload.shed", o.shed as f64 / n, "count"),
            ("overload.breaker_open", o.breaker_open as f64 / n, "count"),
            ("overload.abandoned", o.abandoned as f64 / n, "count"),
            ("overload.timeouts", o.timeouts as f64 / n, "count"),
            ("report.ms", self.report_s * 1e3 / n, "ms"),
            ("trace.overhead_ratio", overhead_ratio, "ratio"),
        ]
    }

    /// Per-interaction host-time table (CSV), largest share first.
    pub fn interaction_table(&self) -> String {
        let total = self.handle.total_ns() as f64;
        let mut rows: Vec<_> = self.handle.calls.iter().collect();
        rows.sort_by_key(|(_, ns)| std::cmp::Reverse(ns.iter().sum::<u64>()));
        let mut out = String::from("interaction,style,calls,share,p50_us,p99_us\n");
        for ((name, style), ns) in rows {
            let mut sorted = ns.clone();
            sorted.sort_unstable();
            let _ = writeln!(
                out,
                "{name},{style},{},{:.4},{:.1},{:.1}",
                ns.len(),
                ratio(ns.iter().sum::<u64>() as f64, total),
                quantile_ns(&sorted, 0.50) / 1e3,
                quantile_ns(&sorted, 0.99) / 1e3,
            );
        }
        out
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
fn quantile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of the values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn figure_mix(pair: &FigurePair) -> Mix {
    match (pair.benchmark, pair.mix) {
        (Benchmark::Bookstore, "browsing") => dynamid_bookstore::mixes::browsing(),
        (Benchmark::Bookstore, "shopping") => dynamid_bookstore::mixes::shopping(),
        (Benchmark::Bookstore, "ordering") => dynamid_bookstore::mixes::ordering(),
        (Benchmark::Auction, "bidding") => dynamid_auction::mixes::bidding(),
        (Benchmark::Auction, "browsing") => dynamid_auction::mixes::browsing(),
        other => panic!("unknown benchmark/mix {other:?}"),
    }
}

fn make_app(benchmark: Benchmark, scale: f64) -> Box<dyn Application> {
    match benchmark {
        Benchmark::Bookstore => Box::new(Bookstore::new(BookstoreScale::scaled(scale))),
        Benchmark::Auction => Box::new(Auction::new(AuctionScale::scaled(scale))),
    }
}

fn curve_point(r: &ExperimentResult) -> CurvePoint {
    let lock_wait_ms = if r.metrics.completed > 0 {
        r.lock_stats.wait_micros as f64 / 1_000.0 / r.metrics.completed as f64
    } else {
        0.0
    };
    CurvePoint {
        clients: r.clients,
        ipm: r.throughput_ipm,
        error_rate: r.metrics.error_rate(),
        cpu: r.resources.cpu_util.clone(),
        nic: r.resources.nic_mbps.clone(),
        lock_wait_ms_per_interaction: lock_wait_ms,
        latency_p50_ms: r.metrics.latency.quantile(0.5).as_micros() as f64 / 1000.0,
        latency_p90_ms: r.metrics.latency.quantile(0.9).as_micros() as f64 / 1000.0,
        engine: r.engine,
    }
}

/// The traced copy of `run_figure` with one worker: one rewinding fork of
/// the populated base, re-cloned when a rewind fails.
pub fn figure(pair: FigurePair, cfg: &HarnessConfig, layers: &mut Layers) -> FigureData {
    let mix = figure_mix(&pair);
    let base = layers.populate(pair.benchmark, cfg.scale, cfg.seed);
    let mut db = layers.fork(&base, true);
    let mut curves = Vec::new();
    for &config in &cfg.configs {
        let mut points = Vec::new();
        for &clients in &cfg.clients {
            let app = make_app(pair.benchmark, cfg.scale);
            let workload = WorkloadConfig {
                clients,
                think_time: cfg.think_time,
                session_time: cfg.session_time,
                ramp_up: cfg.ramp_up,
                measure: cfg.measure,
                ramp_down: cfg.ramp_down,
                seed: cfg.seed ^ clients as u64,
                resilience: Default::default(),
                arrivals: ArrivalProcess::Closed,
                timeline_bucket: None,
            };
            let spec = ExperimentSpec::for_config(config)
                .mix(&mix)
                .costs(CostModel::default())
                .workload(workload)
                .policy(cfg.policy)
                .defer_unwind(true);
            let r = layers.run(&spec, &mut db, app.as_ref());
            layers.count_overload(&r.errors);
            if !layers.rewind(&mut db) {
                db = layers.fork(&base, true);
            }
            points.push(curve_point(&r));
        }
        curves.push(ConfigCurve { config, points });
    }
    FigureData { pair, curves }
}

// The flash-crowd phase shape (seconds), as pinned by the harness sweep.
const RAMP_UP_SECS: u64 = 2;
const PRE_SECS: u64 = 6;
const SPIKE_SECS: u64 = 6;
const SPIKE_RAMP_SECS: u64 = 2;
const RECOVERY_SECS: u64 = 8;
const RAMP_DOWN_SECS: u64 = 1;
const MEASURE_SECS: u64 = PRE_SECS + SPIKE_SECS + SPIKE_RAMP_SECS + RECOVERY_SECS;

fn probe_sustains(
    cfg: &HarnessConfig,
    base: &Database,
    config: StandardConfig,
    rate: f64,
    layers: &mut Layers,
) -> bool {
    let mut db = layers.fork(base, false);
    let app = Bookstore::new(BookstoreScale::scaled(cfg.scale));
    let mix = dynamid_bookstore::mixes::shopping();
    let workload = WorkloadConfig {
        clients: 0,
        think_time: cfg.think_time,
        session_time: cfg.session_time,
        ramp_up: SimDuration::from_secs(2),
        measure: SimDuration::from_secs(8),
        ramp_down: SimDuration::from_secs(1),
        seed: cfg.seed ^ 0xCA11_B8A7E,
        resilience: ResilienceConfig {
            request_timeout: Some(SimDuration::from_secs(2)),
            max_retries: 0,
            backoff_base: SimDuration::from_millis(250),
            backoff_cap: SimDuration::from_secs(1),
            retry_budget: None,
        },
        arrivals: ArrivalProcess::Poisson { rate_per_sec: rate },
        timeline_bucket: None,
    };
    let spec = ExperimentSpec::for_config(config)
        .mix(&mix)
        .costs(CostModel::default())
        .workload(workload)
        .policy(cfg.policy)
        .admission(overload_admission())
        .defer_unwind(true);
    let r = layers.run(&spec, &mut db, &app);
    r.metrics.offered > 0 && r.goodput_ipm >= 0.90 * r.offered_ipm
}

fn calibrate(
    cfg: &HarnessConfig,
    base: &Database,
    config: StandardConfig,
    layers: &mut Layers,
) -> f64 {
    let mut last_ok = 4.0;
    let mut rate = 8.0;
    while rate <= 2048.0 && probe_sustains(cfg, base, config, rate, layers) {
        last_ok = rate;
        rate *= 1.5;
    }
    last_ok
}

fn phase_goodput_ipm(timeline: &[TimelineBucket], from_sec: u64, to_sec: u64) -> f64 {
    let good: u64 =
        (from_sec..to_sec).map(|i| timeline.get(i as usize).map_or(0, |b| b.good)).sum();
    good as f64 / (to_sec - from_sec) as f64 * 60.0
}

/// One flash-crowd point; the flag is `false` when the consistency audit
/// found a violation.
fn overload_point(
    cfg: &HarnessConfig,
    base: &Database,
    config: StandardConfig,
    capacity_ips: f64,
    mode: OverloadMode,
    spike_mult: f64,
    layers: &mut Layers,
) -> (OverloadPoint, bool) {
    let mut db = layers.fork(base, false);
    let app = Bookstore::new(BookstoreScale::scaled(cfg.scale));
    let mix = dynamid_bookstore::mixes::shopping();
    let base_rps = BASE_RATE_FRACTION * capacity_ips;
    let workload = WorkloadConfig {
        clients: 0,
        think_time: cfg.think_time,
        session_time: cfg.session_time,
        ramp_up: SimDuration::from_secs(RAMP_UP_SECS),
        measure: SimDuration::from_secs(MEASURE_SECS),
        ramp_down: SimDuration::from_secs(RAMP_DOWN_SECS),
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
    };
    let spec = ExperimentSpec::for_config(config)
        .mix(&mix)
        .costs(CostModel::default())
        .workload(workload)
        .policy(cfg.policy)
        .admission(overload_admission())
        .overload(overload_control(mode));
    let r = layers.run(&spec, &mut db, &app);
    let audit_clean = audit_bookstore(base, &db, &r.ledger).is_clean();
    layers.count_overload(&r.errors);
    let spike_start = RAMP_UP_SECS + PRE_SECS;
    let spike_end = spike_start + SPIKE_SECS + SPIKE_RAMP_SECS;
    let horizon = RAMP_UP_SECS + MEASURE_SECS;
    let pre = phase_goodput_ipm(&r.metrics.timeline, RAMP_UP_SECS, spike_start);
    let spike = phase_goodput_ipm(&r.metrics.timeline, spike_start, spike_end);
    let recovery = phase_goodput_ipm(&r.metrics.timeline, spike_end, horizon);
    let point = OverloadPoint {
        config,
        mode,
        spike_mult,
        base_rps,
        pre_goodput_ipm: pre,
        spike_goodput_ipm: spike,
        recovery_goodput_ipm: recovery,
        retention: if pre > 0.0 { recovery / pre } else { 0.0 },
        latency_p99_ms: r.latency_p99.as_micros() as f64 / 1_000.0,
        timeouts: r.errors.timeouts,
        shed: r.errors.shed,
        breaker_open: r.errors.breaker_open,
        abandoned: r.errors.abandoned,
        retries: r.errors.retries,
    };
    (point, audit_clean)
}

/// The traced copy of `run_overload_configs`: sequential calibration, then
/// the grid on `cfg.jobs` workers, each with its own [`Layers`]. Returns
/// the sweep and the number of points whose audit failed.
pub fn flash_crowd(
    cfg: &HarnessConfig,
    configs: &[StandardConfig],
    spike_mults: &[f64],
    layers: &mut Layers,
) -> (OverloadData, usize) {
    let base = layers.populate(Benchmark::Bookstore, cfg.scale, cfg.seed);
    let capacities: Vec<f64> = configs.iter().map(|&c| calibrate(cfg, &base, c, layers)).collect();
    let grid: Vec<(usize, usize, usize)> = (0..configs.len())
        .flat_map(|ci| {
            (0..OVERLOAD_MODES.len())
                .flat_map(move |mi| (0..spike_mults.len()).map(move |si| (ci, mi, si)))
        })
        .collect();
    let workers = cfg.effective_jobs().min(grid.len()).max(1);
    let next = AtomicUsize::new(0);
    let mut indexed = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Layers::default();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(ci, mi, si)) = grid.get(i) else { break };
                        let (p, clean) = overload_point(
                            cfg,
                            &base,
                            configs[ci],
                            capacities[ci],
                            OVERLOAD_MODES[mi],
                            spike_mults[si],
                            &mut local,
                        );
                        done.push((i, p, clean));
                    }
                    (done, local)
                })
            })
            .collect();
        for h in handles {
            let (done, local) = h.join().expect("flash-crowd worker panicked");
            indexed.extend(done);
            layers.merge(local);
        }
    });
    indexed.sort_by_key(|(i, _, _)| *i);
    let audit_failures = indexed.iter().filter(|(_, _, clean)| !clean).count();
    let points = indexed.into_iter().map(|(_, p, _)| p).collect();
    let data =
        OverloadData { configs: configs.to_vec(), spike_mults: spike_mults.to_vec(), points };
    (data, audit_failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamid_harness::{find_figure, run_figure};

    /// The timing decorator only observes: a smoke-sized run with and
    /// without it produces the same simulated output.
    #[test]
    fn timed_app_does_not_perturb_the_run() {
        let cfg = HarnessConfig::smoke();
        let base = populate(Benchmark::Bookstore, cfg.scale, cfg.seed);
        let mix = dynamid_bookstore::mixes::shopping();
        for config in [StandardConfig::PhpColocated, StandardConfig::EjbFourTier] {
            let spec = ExperimentSpec::for_config(config)
                .mix(&mix)
                .workload(WorkloadConfig {
                    think_time: cfg.think_time,
                    ramp_up: cfg.ramp_up,
                    measure: cfg.measure,
                    ramp_down: cfg.ramp_down,
                    seed: cfg.seed,
                    ..WorkloadConfig::new(20)
                })
                .defer_unwind(true);
            let app = Bookstore::new(BookstoreScale::scaled(cfg.scale));
            let plain = spec.run(&mut base.clone(), &app);
            let timed = Timed::new(&app);
            let wrapped = spec.run(&mut base.clone(), &timed);
            assert_eq!(plain.events, wrapped.events, "{config}");
            assert_eq!(plain.engine, wrapped.engine, "{config}");
            assert_eq!(plain.metrics.completed, wrapped.metrics.completed, "{config}");
            assert_eq!(plain.metrics.latency, wrapped.metrics.latency, "{config}");
            assert_eq!(plain.throughput_ipm.to_bits(), wrapped.throughput_ipm.to_bits());
            let times = timed.into_times();
            assert!(times.count() as u64 >= plain.metrics.completed, "{config}: calls not timed");
        }
    }

    /// The traced copy of the figure loop reproduces `run_figure` exactly.
    #[test]
    fn traced_figure_matches_run_figure() {
        let cfg = HarnessConfig::smoke();
        let pair = find_figure("fig09").expect("fig09 exists");
        let mut layers = Layers::default();
        assert_eq!(figure(pair, &cfg, &mut layers), run_figure(pair, &cfg));
        assert!(layers.handle.count() > 0 && layers.events > 0 && layers.populate_rows > 0);
    }
}
