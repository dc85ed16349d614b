//! Host-time benchmark of the dynamid sweeps.
//!
//! ```text
//! dynamid-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dynamid-perfbench --workload <name> --write-reference
//! ```
//!
//! Each run executes one workload in a fresh process. With `--trace 0` it
//! populates the workload's database at least three times and for at least
//! 2 s (`setup_s`), then calls the public sweep entry point (`run_figure`
//! or `run_overload_configs`) until `--seconds` have passed (`sweep_s`,
//! `peak_rss_mib`). With
//! `--trace 1` it alternates that untraced sweep with the traced copy of
//! its loop in [`traced`] and reports the per-layer split. Simulated
//! results are the correctness output, never metrics: every sweep is
//! checked point by point (against `reference/<workload>.csv` at the
//! pinned seed, against the run's first sweep otherwise, and against the
//! traced copy in a traced run), and a mismatching point is a failed
//! operation. The last line on stdout is one JSON object.

mod traced;

use dynamid_core::StandardConfig;
use dynamid_harness::{
    find_figure, overload_csv, report::sweep_csv, run_figure, run_overload_configs, Benchmark,
    CurvePoint, FigureData, FigurePair, HarnessConfig, OverloadData, OVERLOAD_CONFIGS,
    OVERLOAD_MODES,
};
use dynamid_sim::SimDuration;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use traced::{median, populate, Layers};

/// The seed the stored reference outputs were produced with.
const PINNED_SEED: u64 = 42;
/// An end-to-end run populates at least `SETUP_REPS` times and for at
/// least `SETUP_SECS`; `setup_s` is the median population.
const SETUP_REPS: usize = 3;
const SETUP_SECS: f64 = 2.0;
/// `peak_rss_mib` is read after this many sweeps, whatever number fits in
/// the run: further sweeps in one process keep raising the high-water mark
/// for a while (by 20-30 MiB each on the bookstore at scale 0.3). With two
/// workers the peak also depends on how the threads' allocations
/// interleave, which a second sweep evens out only in part.
const RSS_SWEEPS: usize = 2;
/// The flash-crowd spike intensity.
const SPIKE_MULTS: [f64; 1] = [6.0];
/// Where the traced run writes its per-interaction table.
const ARTIFACT_DIR: &str = "perfbench/out";

/// One benchmark workload: a sweep and the settings it runs with.
struct Workload {
    name: &'static str,
    /// Figure id of a closed-loop sweep; `None` is the flash-crowd sweep.
    figure: Option<&'static str>,
    scale: f64,
    clients: &'static [usize],
    jobs: usize,
    reference: &'static str,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bookstore-shopping",
        figure: Some("fig05"),
        scale: 0.3,
        clients: &[25, 50, 100],
        jobs: 1,
        reference: include_str!("../reference/bookstore-shopping.csv"),
    },
    Workload {
        name: "bookstore-ordering",
        figure: Some("fig09"),
        scale: 0.3,
        clients: &[100, 200, 400],
        jobs: 1,
        reference: include_str!("../reference/bookstore-ordering.csv"),
    },
    Workload {
        name: "auction-bidding",
        figure: Some("fig11"),
        scale: 0.1,
        clients: &[250, 500, 1000, 2000],
        jobs: 1,
        reference: include_str!("../reference/auction-bidding.csv"),
    },
    Workload {
        name: "bookstore-flashcrowd",
        figure: None,
        scale: 0.05,
        clients: &[],
        jobs: 2,
        reference: include_str!("../reference/bookstore-flashcrowd.csv"),
    },
];

/// The output of one sweep.
#[derive(Debug, PartialEq)]
enum Sweep {
    Figure(FigureData),
    Overload(OverloadData),
}

impl Workload {
    /// Closed-loop sweeps use `repro --fast` phases with a 4 s window; the
    /// flash crowd uses the smoke's pinned phases (500 ms think time).
    fn config(&self, seed: u64) -> HarnessConfig {
        let mut cfg = HarnessConfig::fast();
        cfg.scale = self.scale;
        cfg.clients = self.clients.to_vec();
        cfg.seed = seed;
        cfg.jobs = self.jobs;
        cfg.measure = SimDuration::from_secs(4);
        if self.figure.is_none() {
            cfg.think_time = SimDuration::from_millis(500);
            cfg.measure = SimDuration::from_secs(6);
            cfg.ramp_up = SimDuration::from_secs(2);
            cfg.ramp_down = SimDuration::from_secs(1);
        }
        cfg
    }

    fn pair(&self) -> Option<FigurePair> {
        self.figure.map(|id| find_figure(id).expect("workload names a catalog figure"))
    }

    fn benchmark(&self) -> Benchmark {
        self.pair().map_or(Benchmark::Bookstore, |pair| pair.benchmark)
    }

    fn points(&self) -> usize {
        match self.figure {
            Some(_) => StandardConfig::ALL.len() * self.clients.len(),
            None => OVERLOAD_CONFIGS.len() * OVERLOAD_MODES.len() * SPIKE_MULTS.len(),
        }
    }

    /// The public sweep entry point, untraced.
    fn sweep(&self, cfg: &HarnessConfig) -> Sweep {
        match self.pair() {
            Some(pair) => Sweep::Figure(run_figure(pair, cfg)),
            None => Sweep::Overload(run_overload_configs(cfg, &OVERLOAD_CONFIGS, &SPIKE_MULTS)),
        }
    }

    /// The traced copy of [`sweep`](Self::sweep) and its audit failures.
    fn traced(&self, cfg: &HarnessConfig, layers: &mut Layers) -> (Sweep, usize) {
        match self.pair() {
            Some(pair) => (Sweep::Figure(traced::figure(pair, cfg, layers)), 0),
            None => {
                let (data, audit) =
                    traced::flash_crowd(cfg, &OVERLOAD_CONFIGS, &SPIKE_MULTS, layers);
                (Sweep::Overload(data), audit)
            }
        }
    }
}

impl Sweep {
    fn csv(&self) -> String {
        match self {
            Sweep::Figure(d) => sweep_csv(d),
            Sweep::Overload(d) => overload_csv(d),
        }
    }

    /// Points that break a property every sweep has at any seed, plus the
    /// flash-crowd headline violations.
    fn broken_points(&self) -> usize {
        match self {
            Sweep::Figure(d) => d
                .curves
                .iter()
                .flat_map(|c| &c.points)
                .filter(|p| {
                    let e = &p.engine;
                    !(p.ipm > 0.0
                        && (0.0..=1.0).contains(&p.error_rate)
                        && e.completed + e.aborted + e.rejected <= e.submitted)
                })
                .count(),
            Sweep::Overload(d) => d.violations().len(),
        }
    }

    /// Points that differ between two sweeps of the same grid.
    fn differing_points(&self, other: &Sweep) -> usize {
        fn count<T: PartialEq>(a: &[T], b: &[T]) -> usize {
            a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
        }
        match (self, other) {
            (Sweep::Figure(a), Sweep::Figure(b)) => {
                fn flat(d: &FigureData) -> Vec<(StandardConfig, &CurvePoint)> {
                    d.curves
                        .iter()
                        .flat_map(|c| c.points.iter().map(move |p| (c.config, p)))
                        .collect()
                }
                count(&flat(a), &flat(b))
            }
            (Sweep::Overload(a), Sweep::Overload(b)) => count(&a.points, &b.points),
            _ => usize::MAX,
        }
    }
}

/// CSV data rows of `actual` that differ from `expected`'s (all of them
/// when the headers differ).
fn differing_rows(actual: &str, expected: &str) -> usize {
    let (mut a, mut e) = (actual.lines(), expected.lines());
    let rows = |s: &str| s.lines().count().saturating_sub(1);
    if a.next() != e.next() {
        return rows(actual).max(rows(expected));
    }
    let (a, e): (Vec<_>, Vec<_>) = (a.collect(), e.collect());
    a.iter().zip(&e).filter(|(x, y)| x != y).count() + a.len().abs_diff(e.len())
}

/// Counts attempted and failed sweep points.
struct Checker {
    points: usize,
    /// The CSV every sweep must reproduce: the stored reference at the
    /// pinned seed, otherwise the run's first sweep.
    expected: Option<String>,
    attempted: usize,
    failed: usize,
}

impl Checker {
    fn new(w: &Workload, seed: u64) -> Self {
        let expected = (seed == PINNED_SEED).then(|| w.reference.to_string());
        Checker { points: w.points(), expected, attempted: 0, failed: 0 }
    }

    /// Checks one sweep; `None` is a sweep that panicked.
    fn check(&mut self, sweep: Option<&Sweep>) {
        self.attempted += self.points;
        self.failed += match sweep {
            None => self.points,
            Some(s) => {
                let csv = s.csv();
                let expected = self.expected.get_or_insert_with(|| csv.clone());
                (differing_rows(&csv, expected) + s.broken_points()).min(self.points)
            }
        };
    }
}

/// Seconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let failed = self.failed.min(self.attempted);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.attempted,
            metrics.join(", ")
        )
    }
}

/// Tracing off: populations, then public sweeps until `seconds` have
/// passed.
fn end_to_end(w: &Workload, cfg: &HarnessConfig, seconds: f64) -> Outcome {
    let mut setup = Vec::new();
    while setup.len() < SETUP_REPS || setup.iter().sum::<f64>() < SETUP_SECS {
        let (s, db) = timed(|| populate(w.benchmark(), cfg.scale, cfg.seed));
        drop(db);
        setup.push(s);
    }
    let mut checker = Checker::new(w, cfg.seed);
    let (mut sweeps, mut rss) = (Vec::new(), 0.0);
    let start = Instant::now();
    loop {
        let (s, out) = timed(|| catch_unwind(AssertUnwindSafe(|| w.sweep(cfg))).ok());
        eprintln!("{} sweep {}: {s:.3} s", w.name, sweeps.len() + 1);
        sweeps.push(s);
        checker.check(out.as_ref());
        if sweeps.len() <= RSS_SWEEPS {
            rss = peak_rss_mib();
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let ok = 1.0 - checker.failed.min(checker.attempted) as f64 / checker.attempted as f64;
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            ("setup_s", median(&setup), "s"),
            ("sweep_s", median(&sweeps), "s"),
            ("peak_rss_mib", rss, "MiB"),
            ("point_ok_ratio", ok, "ratio"),
        ],
    }
}

/// Tracing on: alternates the untraced sweep with its traced copy until
/// `seconds` have passed; every traced point must equal its untraced twin.
fn traced_run(w: &Workload, cfg: &HarnessConfig, seconds: f64) -> Outcome {
    let mut layers = Layers::default();
    let mut checker = Checker::new(w, cfg.seed);
    let (mut untraced_s, mut traced_s, mut reps) = (0.0, 0.0, 0);
    let start = Instant::now();
    loop {
        let (s, plain) = timed(|| catch_unwind(AssertUnwindSafe(|| w.sweep(cfg))).ok());
        untraced_s += s;
        let (s, traced) =
            timed(|| catch_unwind(AssertUnwindSafe(|| w.traced(cfg, &mut layers))).ok());
        traced_s += s;
        reps += 1;
        if let Some(p) = &plain {
            let (s, _) = timed(|| p.csv());
            layers.report_s += s;
        }
        checker.check(plain.as_ref());
        checker.failed += match (&plain, &traced) {
            (Some(p), Some((t, audit_failures))) => {
                p.differing_points(t).min(w.points()) + audit_failures
            }
            _ => w.points(),
        };
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let table = layers.interaction_table();
    let path = format!("{ARTIFACT_DIR}/{}-interactions.csv", w.name);
    match std::fs::create_dir_all(ARTIFACT_DIR).and_then(|()| std::fs::write(&path, &table)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: layers.metrics(reps, traced_s / untraced_s),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--write-reference" => out.write_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("error: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let cfg = w.config(args.seed);
    if args.write_reference {
        let path = format!("perfbench/reference/{}.csv", w.name);
        return match std::fs::write(&path, w.sweep(&cfg).csv()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.trace {
        traced_run(w, &cfg, args.seconds)
    } else {
        end_to_end(w, &cfg, args.seconds)
    };
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
