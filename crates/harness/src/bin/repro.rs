//! Command-line experiment runner: regenerates the paper's figures.
//!
//! ```text
//! repro fig05                     one figure pair
//! repro bookstore-shopping        same, by benchmark-mix name
//! repro all                       every figure, CSVs into results/
//! repro summary                   peak table across all figures
//! repro trace <figure>            one traced point: span capture,
//!                                 Chrome-trace JSON + bottleneck-report
//!                                 CSV into results/, cross-checked
//!                                 against the PS CPU counters (pick the
//!                                 deployment with --config C1..C9)
//! repro avail|cache|failover|overload
//!                                 the robustness sweeps of [`SWEEPS`];
//!                                 with --smoke, a sweep's pinned grid
//! repro --smoke                   perf smoke -> BENCH_repro.json in the
//!                                 working directory, or in --out <dir>
//! ```
//!
//! Flags are listed in [`FLAGS`]; unknown flags and unknown subcommands
//! exit nonzero with a usage message. The whole command line is parsed by
//! [`parse_args`], which is pure and unit-tested.

use dynamid_core::StandardConfig;
use dynamid_harness::figures::sweep_workload;
use dynamid_harness::report::{cpu_markdown, peak_summary_line, sweep_csv, throughput_markdown};
use dynamid_harness::{
    availability_csv, availability_markdown, cache_csv, cache_markdown, failover_csv,
    failover_markdown, find_figure, overload_csv, overload_markdown, run_availability,
    run_cache_sweep, run_failover, run_figure, run_overload_configs, run_traced, CacheMode,
    CacheSweepData, CacheWorkload, FailoverData, FigureData, HarnessConfig, OverloadMode,
    CACHE_WORKLOADS, DEFAULT_CACHE_CAPACITIES, DEFAULT_CACHE_TTLS, DEFAULT_INTENSITIES,
    DEFAULT_REPLICAS, DEFAULT_SPIKE_MULTS, DEFAULT_STORM_INTENSITIES, FIGURES,
    FRONT_ENDED_OVERLOAD_CONFIGS, OVERLOAD_CONFIGS,
};
use dynamid_sim::{EventCounts, SimDuration};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// One command-line flag: name, value placeholder (`None` for boolean
/// switches), and help text. The parser and the usage message are both
/// driven by this table, so they cannot drift apart.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

/// Every flag `repro` accepts.
const FLAGS: &[Flag] = &[
    Flag {
        name: "--smoke",
        value: None,
        help: "with a sweep: its pinned grid; otherwise the perf smoke: mini sweeps (min-of-3 \
               timing) + snapshot-fork, plan-cache, cache, failover, flash-crowd and web-farm \
               probes -> BENCH_repro.json",
    },
    Flag {
        name: "--chaos",
        value: None,
        help: "with --smoke: also run a miniature availability sweep",
    },
    Flag { name: "--fast", value: None, help: "scaled-down populations and short windows" },
    Flag { name: "--quiet", value: None, help: "suppress progress" },
    Flag { name: "--scale", value: Some("<f>"), help: "population scale factor (default 1.0)" },
    Flag { name: "--clients", value: Some("a,b,c"), help: "explicit client sweep" },
    Flag { name: "--measure", value: Some("<secs>"), help: "measurement window length" },
    Flag { name: "--seed", value: Some("<n>"), help: "master seed" },
    Flag {
        name: "--jobs",
        value: Some("<n>"),
        help: "sweep worker threads (0 = all cores; results identical for any value)",
    },
    Flag {
        name: "--out",
        value: Some("<dir>"),
        help: "output directory (default results/; the perf smoke's default is the working \
               directory)",
    },
    Flag {
        name: "--policy",
        value: Some("fifo|writer"),
        help: "lock grant policy (MyISAM default: writer priority)",
    },
    Flag {
        name: "--config",
        value: Some("C1..C9"),
        help: "restrict to one or more deployment configurations (comma-separated codes)",
    },
];

/// The figure subcommands, for the usage message; the sweeps come from
/// [`SWEEPS`].
const COMMANDS: &[(&str, &str)] = &[
    ("<figure>", "one figure pair, by id (fig05..fig14) or <benchmark>-<mix> name"),
    ("all", "every figure pair, CSVs into the output directory"),
    ("summary", "peak-throughput table across all figures"),
    ("trace <figure>", "one traced point: Chrome-trace JSON + bottleneck CSV"),
];

/// One finished grid of a sweep: the markdown table for stdout, the CSV for
/// the grid's file, and every post-run check the grid failed.
struct Output {
    markdown: String,
    csv: String,
    failures: Vec<String>,
}

impl Output {
    /// Renders `data` with a sweep's markdown and CSV renderers.
    fn of<D>(
        data: &D,
        markdown: fn(&D) -> String,
        csv: fn(&D) -> String,
        failures: Vec<String>,
    ) -> Output {
        Output { markdown: markdown(data), csv: csv(data), failures }
    }
}

/// A sweep `repro` runs by name. This table drives `repro <sweep>`,
/// `repro <sweep> --smoke`, the `--clients` check and the usage text.
struct Sweep {
    name: &'static str,
    help: &'static str,
    /// The CSV file of each grid, in the order the calls return grids.
    files: &'static [&'static str],
    /// How many `--clients` values the sweep reads; more are rejected.
    max_clients: usize,
    /// The grid configured from the command line, with its post-run checks.
    full: fn(&HarnessConfig) -> Vec<Output>,
    /// The pinned grid check.sh byte-compares against its golden, with its
    /// post-run checks. Only `--jobs`, which never changes results, comes
    /// from the command line: a golden is meaningful for one exact grid.
    smoke: Option<fn(usize) -> Vec<Output>>,
}

/// Every sweep, in usage order. A zero exit of an audited sweep also
/// certifies a clean consistency audit at every point: the sweep panics
/// otherwise.
const SWEEPS: [Sweep; 4] = [
    Sweep {
        name: "avail",
        help: "availability sweep (goodput vs fault intensity)",
        files: &["avail.csv"],
        max_clients: 1,
        full: |cfg| {
            let data = run_availability(cfg, &DEFAULT_INTENSITIES);
            vec![Output::of(&data, availability_markdown, availability_csv, Vec::new())]
        },
        smoke: None,
    },
    Sweep {
        name: "cache",
        help: "cache-ablation sweep (off/TTL/transactional on bookstore + auction mixes, TTL \
               duration swept)",
        files: &["cache.csv"],
        max_clients: usize::MAX,
        full: |cfg| {
            let data = run_cache_sweep(
                cfg,
                &CACHE_WORKLOADS,
                &DEFAULT_CACHE_CAPACITIES,
                &DEFAULT_CACHE_TTLS,
            );
            vec![Output::of(&data, cache_markdown, cache_csv, Vec::new())]
        },
        // A 500 ms think time saturates the EJB four-tier configuration at
        // the top client count, the regime where caching moves throughput,
        // not just latency.
        smoke: Some(|jobs| {
            use StandardConfig::{EjbFourTier, PhpColocated, ServletDedicated};
            let cfg = HarnessConfig {
                configs: vec![PhpColocated, ServletDedicated, EjbFourTier],
                ..pinned_smoke_cfg(jobs, 0.1, &[20, 100], 8)
            };
            let data = run_cache_sweep(&cfg, &CACHE_WORKLOADS, &[1024], &DEFAULT_CACHE_TTLS);
            vec![Output::of(&data, cache_markdown, cache_csv, cache_uplift_failures(&data))]
        }),
    },
    Sweep {
        name: "failover",
        help: "replicated-DB failover sweep (goodput under a pinned primary kill vs replica count \
               x storm intensity)",
        files: &["failover.csv"],
        max_clients: 1,
        // Every ≥2-replica point must beat the single-DB baseline; on the
        // pinned grid every replicated point must also promote a replica.
        full: |cfg| {
            let data = run_failover(cfg, &DEFAULT_REPLICAS, &DEFAULT_STORM_INTENSITIES);
            vec![Output::of(&data, failover_markdown, failover_csv, data.baseline_violations())]
        },
        smoke: Some(|jobs| {
            let data = run_failover(&pinned_smoke_cfg(jobs, 0.1, &[50], 8), &[0, 2], &[0.0, 0.5]);
            let failures = [unpromoted(&data), data.baseline_violations()].concat();
            vec![Output::of(&data, failover_markdown, failover_csv, failures)]
        }),
    },
    Sweep {
        name: "overload",
        help: "flash-crowd sweep (open-loop arrivals through a spike, naive vs shed vs \
               shed+breaker+budget, per-phase goodput) on C1/C4/C6 and the front-ended C7/C8/C9",
        files: &["overload.csv", "overload_c789.csv"],
        max_clients: 0,
        full: |cfg| overload_output(cfg, &DEFAULT_SPIKE_MULTS),
        smoke: Some(|jobs| overload_output(&pinned_smoke_cfg(jobs, 0.1, &[], 8), &[6.0])),
    },
];

fn find_sweep(name: &str) -> Option<&'static Sweep> {
    SWEEPS.iter().find(|s| s.name == name)
}

/// The pinned configuration every golden smoke grid and BENCH probe
/// shares: seed 42, fast phases, a saturating 500 ms think time, and
/// 2 s / 1 s ramps. `scale`, `clients`, and the measurement window are the
/// per-grid knobs.
fn pinned_smoke_cfg(
    jobs: usize,
    scale: f64,
    clients: &[usize],
    measure_secs: u64,
) -> HarnessConfig {
    HarnessConfig {
        jobs,
        seed: 42,
        scale,
        clients: clients.to_vec(),
        think_time: SimDuration::from_millis(500),
        measure: SimDuration::from_secs(measure_secs),
        ramp_up: SimDuration::from_secs(2),
        ramp_down: SimDuration::from_secs(1),
        ..HarnessConfig::fast()
    }
}

/// The cache smoke's headline: transactional caching lifts EJB
/// bookstore-browsing throughput at the top client count by at least 30%.
fn cache_uplift_failures(data: &CacheSweepData) -> Vec<String> {
    let (wl, ejb) = (CacheWorkload::BookstoreBrowsing, StandardConfig::EjbFourTier);
    let off = data.best_at_peak_clients(wl, ejb, CacheMode::Off).unwrap_or(0.0);
    let txn = data.best_at_peak_clients(wl, ejb, CacheMode::Transactional).unwrap_or(0.0);
    let uplift = if off > 0.0 { txn / off - 1.0 } else { 0.0 };
    if uplift >= 0.30 {
        return Vec::new();
    }
    vec![format!(
        "transactional caching lifted EJB browsing throughput by only {:.1}% (< 30%) at the top \
         client count",
        uplift * 100.0
    )]
}

/// The failover smoke's replicated points that never promoted a replica.
fn unpromoted(data: &FailoverData) -> Vec<String> {
    data.points
        .iter()
        .filter(|p| p.replicas > 0 && p.failovers == 0)
        .map(|p| format!("{} replicas={} never promoted at {}", p.config, p.replicas, p.intensity))
        .collect()
}

/// Both flash-crowd grids: the naive arm must collapse and the fully
/// controlled arm recover on every architecture.
fn overload_output(cfg: &HarnessConfig, spike_mults: &[f64]) -> Vec<Output> {
    [&OVERLOAD_CONFIGS, &FRONT_ENDED_OVERLOAD_CONFIGS]
        .into_iter()
        .map(|configs| {
            let data = run_overload_configs(cfg, configs, spike_mults);
            Output::of(&data, overload_markdown, overload_csv, data.violations())
        })
        .collect()
}

/// Prints each grid's markdown, writes its CSV into `out_dir`, and reports
/// its failed post-run checks. `false` at the first grid that failed a
/// check or could not be written.
fn emit(sweep: &Sweep, outputs: Vec<Output>, out_dir: &Path) -> bool {
    for (output, file) in outputs.into_iter().zip(sweep.files) {
        println!("{}", output.markdown);
        let path = out_dir.join(file);
        if let Err(e) = fs::write(&path, &output.csv) {
            eprintln!("could not write {}: {e}", path.display());
            return false;
        }
        eprintln!("wrote {}", path.display());
        if !output.failures.is_empty() {
            eprintln!("{} sweep FAILED:\n  {}", sweep.name, output.failures.join("\n  "));
            return false;
        }
    }
    true
}

/// Parses a comma-separated list, one `parse` call per trimmed element.
/// `None` when the list is empty or any element fails to parse — the
/// shared rejection path for every list-valued flag.
fn parse_list<T>(list: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    list.split(',').map(|s| parse(s.trim())).collect::<Option<Vec<T>>>().filter(|v| !v.is_empty())
}

/// Parses the argument after `args[*i]` and moves `i` onto it; `err` when
/// it is missing or malformed.
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize, err: &str) -> Result<T, String> {
    *i += 1;
    args.get(*i).and_then(|v| v.parse().ok()).ok_or_else(|| err.to_string())
}

/// Everything a `repro` command line resolves to.
struct Cli {
    cfg: HarnessConfig,
    targets: Vec<String>,
    /// `--out`, if given: each command has its own default.
    out_dir: Option<PathBuf>,
    smoke: bool,
    chaos: bool,
}

/// Parses the command line against the [`FLAGS`] table. Pure — no I/O, no
/// process exit — so the rejection behavior is unit-testable; `main` turns
/// an `Err` into the usage message and a nonzero exit.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cfg = HarnessConfig { verbose: true, ..HarnessConfig::default() };
    let mut targets: Vec<String> = Vec::new();
    let mut out_dir = None;
    let mut smoke = false;
    let mut chaos = false;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with("--") {
            let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
                return Err(format!("unknown option {arg}"));
            };
            match flag.name {
                "--smoke" => smoke = true,
                "--chaos" => chaos = true,
                "--fast" => {
                    let verbose = cfg.verbose;
                    cfg = HarnessConfig::fast();
                    cfg.verbose = verbose;
                }
                "--quiet" => cfg.verbose = false,
                "--scale" => cfg.scale = value(args, &mut i, "--scale needs a number")?,
                "--seed" => cfg.seed = value(args, &mut i, "--seed needs an integer")?,
                "--jobs" => {
                    cfg.jobs = value(args, &mut i, "--jobs needs an integer (0 = all cores)")?
                }
                "--measure" => {
                    cfg.measure =
                        SimDuration::from_secs(value(args, &mut i, "--measure needs seconds")?);
                }
                "--clients" => {
                    let list: String = value(args, &mut i, "--clients needs a list")?;
                    cfg.clients = parse_list(&list, |s| s.parse().ok())
                        .ok_or("--clients needs comma-separated integers")?;
                }
                "--out" => out_dir = Some(value(args, &mut i, "--out needs a directory")?),
                "--policy" => {
                    // Ablation: MyISAM grants writers priority; FIFO shows
                    // how much of the bookstore contention collapse that
                    // policy choice causes.
                    let err = "--policy needs 'fifo' or 'writer'";
                    cfg.policy = match value::<String>(args, &mut i, err)?.as_str() {
                        "fifo" => dynamid_sim::GrantPolicy::Fifo,
                        "writer" => dynamid_sim::GrantPolicy::WriterPriority,
                        _ => return Err(err.into()),
                    };
                }
                "--config" => {
                    let list: String = value(args, &mut i, "--config needs C1..C9 codes")?;
                    cfg.configs = parse_list(&list, StandardConfig::parse)
                        .ok_or("--config needs comma-separated C1..C9 codes")?;
                }
                other => unreachable!("flag {other} listed but not handled"),
            }
        } else {
            targets.push(arg.to_string());
        }
        i += 1;
    }
    if !smoke && targets.is_empty() {
        return Err("no target given".into());
    }
    for sweep in targets.iter().filter_map(|t| find_sweep(t)) {
        if cfg.clients.len() > sweep.max_clients {
            return Err(format!(
                "{} takes at most {} --clients value(s), got {}",
                sweep.name,
                sweep.max_clients,
                cfg.clients.len()
            ));
        }
    }
    Ok(Cli { cfg, targets, out_dir, smoke, chaos })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli { cfg, targets, out_dir, smoke, chaos } = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    // `repro <sweep> --smoke` runs that sweep's pinned grid; any other
    // command line with --smoke runs the perf smoke.
    let pinned: Vec<_> = targets
        .iter()
        .filter_map(|t| find_sweep(t).and_then(|sweep| Some((sweep, sweep.smoke?))))
        .collect();
    if smoke && pinned.is_empty() {
        return run_smoke(cfg.verbose, chaos, &out_dir.unwrap_or_else(|| PathBuf::from(".")));
    }

    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("results"));
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    if smoke {
        for (sweep, grid) in pinned {
            if !emit(sweep, grid(cfg.jobs), &out_dir) {
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    if targets[0] == "trace" {
        let [_, figure] = targets.as_slice() else {
            return usage("trace needs exactly one figure, e.g. 'trace fig05 --config C1'");
        };
        if find_figure(figure).is_none() {
            return usage(&format!("unknown figure '{figure}'"));
        }
        return run_trace(figure, &cfg, &out_dir);
    }

    for target in &targets {
        match target.as_str() {
            "all" => {
                for pair in FIGURES {
                    run_and_emit(pair.throughput_id, &cfg, &out_dir);
                }
            }
            "summary" => {
                println!("# Peak throughput summary (all figures)\n");
                for pair in FIGURES {
                    eprintln!("== {}", pair.title);
                    let data = run_figure(pair, &cfg);
                    println!("## {}", pair.title);
                    for curve in &data.curves {
                        println!("{}", peak_summary_line(curve));
                    }
                    println!();
                }
            }
            key => {
                if let Some(sweep) = find_sweep(key) {
                    eprintln!("== {}", sweep.help);
                    if !emit(sweep, (sweep.full)(&cfg), &out_dir) {
                        return ExitCode::FAILURE;
                    }
                } else if find_figure(key).is_some() {
                    run_and_emit(key, &cfg, &out_dir);
                } else {
                    return usage(&format!("unknown figure '{key}'"));
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_and_emit(key: &str, cfg: &HarnessConfig, out_dir: &Path) {
    let pair = find_figure(key).expect("validated by caller");
    eprintln!("== {} ({} / {})", pair.title, pair.throughput_id, pair.cpu_id);
    let data: FigureData = run_figure(pair, cfg);
    println!("{}", throughput_markdown(&data));
    println!("{}", cpu_markdown(&data));
    let csv_path = out_dir.join(format!("{}.csv", pair.throughput_id));
    if let Err(e) = fs::write(&csv_path, sweep_csv(&data)) {
        eprintln!("could not write {}: {e}", csv_path.display());
    } else {
        eprintln!("wrote {}", csv_path.display());
    }
}

/// `repro trace <figure>`: one traced point per selected configuration.
/// Writes `trace_<fig>_<code>.json` (Chrome trace) and
/// `bottleneck_<fig>_<code>.csv` per configuration, prints the report
/// summary, and fails if the span trees are malformed or the
/// trace-derived CPU utilizations drift more than 1% from the PS
/// counters.
fn run_trace(figure: &str, cfg: &HarnessConfig, out_dir: &Path) -> ExitCode {
    let pair = find_figure(figure).expect("validated by caller");
    for &config in &cfg.configs {
        eprintln!("== trace {} {} ({})", pair.throughput_id, config.code(), config.paper_name());
        let traced = run_traced(pair, config, cfg);
        if let Err(e) = traced.cross_check() {
            eprintln!("trace cross-check failed for {}: {e}", config.paper_name());
            return ExitCode::FAILURE;
        }
        println!(
            "## {} {} at {} clients\n\n{}",
            pair.throughput_id,
            config.code(),
            traced.clients,
            traced.report.to_markdown()
        );
        let stem = format!("{}_{}", pair.throughput_id, config.code());
        let json_path = out_dir.join(format!("trace_{stem}.json"));
        let csv_path = out_dir.join(format!("bottleneck_{stem}.csv"));
        for (path, contents) in
            [(&json_path, traced.chrome_json()), (&csv_path, traced.bottleneck_csv())]
        {
            if let Err(e) = fs::write(path, contents) {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

/// How many times each smoke sweep is repeated; the minimum wall time is
/// recorded. One-shot timing was noisy enough that check.sh's perf gate
/// had to re-run the whole smoke on a miss — taking min-of-3 inside the
/// smoke makes `total_wall_secs` itself the low-noise regression signal,
/// the same statistic the gate compares.
const SMOKE_TIMING_REPS: u32 = 3;

/// The perf smoke harness behind `repro --smoke`: three miniature figure
/// sweeps timed end-to-end (min of [`SMOKE_TIMING_REPS`] runs each), a
/// snapshot-fork probe (copy-on-write clone vs deep clone of the populated
/// bookstore database), a plan-cache probe (hit rate over one experiment
/// point), and the [`PROBES`] (with `--chaos`, also [`CHAOS_PROBE`]).
/// Everything lands in `BENCH_repro.json` in `out_dir` so CI can diff
/// wall-clock regressions; the modeled results themselves are covered by
/// tests.
fn run_smoke(verbose: bool, chaos: bool, out_dir: &Path) -> ExitCode {
    use dynamid_bookstore::{Bookstore, BookstoreScale};
    use dynamid_workload::ExperimentSpec;

    // Deterministic miniature sweeps, each reproducible on any build as
    // `repro --fast --quiet --jobs 1 --seed 42 --scale <s> --clients <c>
    // --measure <m> <fig>`. The first two are dense low-client grids over
    // both benchmarks; the third raises the population scale so per-point
    // setup (snapshot forking) dominates the way it does in full-scale
    // `repro all` runs.
    let sweeps: [(&str, f64, &[usize], u64); 3] = [
        ("fig05", 0.1, &[5, 10, 15, 20, 25, 30], 4),
        ("fig11", 0.1, &[10, 20, 30, 40, 50, 60], 4),
        ("fig05", 0.3, &[5, 10, 15], 2),
    ];
    let mut fig_json = Vec::new();
    let mut profile_json = Vec::new();
    let mut total_secs = 0.0f64;
    let (mut all_events, mut all_stale, mut all_peak) = (0u64, 0u64, 0u64);
    for (key, scale, clients, measure) in sweeps {
        let cfg = HarnessConfig {
            jobs: 1,
            seed: 42,
            scale,
            clients: clients.to_vec(),
            measure: SimDuration::from_secs(measure),
            ..HarnessConfig::fast()
        };
        let pair = find_figure(key).expect("smoke figure exists");
        // Runs are deterministic, so every rep computes identical data;
        // only the wall clock differs, and the minimum is the signal.
        let mut secs = f64::INFINITY;
        let mut data = None;
        for _ in 0..SMOKE_TIMING_REPS {
            let t0 = Instant::now();
            data = Some(run_figure(pair, &cfg));
            secs = secs.min(t0.elapsed().as_secs_f64());
        }
        let data = data.expect("at least one timing rep ran");
        total_secs += secs;
        let points: usize = data.curves.iter().map(|c| c.points.len()).sum();
        // Host-cost accounting: calendar traffic across every point of the
        // sweep, and the largest calendar any single point ever held.
        let pts = || data.curves.iter().flat_map(|c| c.points.iter());
        let events: u64 = pts().map(|p| p.engine.events).sum();
        let stale: u64 = pts().map(|p| p.engine.stale_events).sum();
        let peak: u64 = pts().map(|p| p.engine.peak_calendar).max().unwrap_or(0);
        let mut kinds = EventCounts::default();
        for p in pts() {
            kinds += p.engine.by_kind;
        }
        all_events += events;
        all_stale += stale;
        all_peak = all_peak.max(peak);
        if verbose {
            eprintln!(
                "smoke {key}@{scale}: {points} points in {secs:.3}s (min of {SMOKE_TIMING_REPS}) \
                 ({events} events, {stale} stale, peak calendar {peak})"
            );
        }
        let client_list = clients.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        fig_json.push(format!(
            "    {{\"id\": \"{key}\", \"scale\": {scale}, \"points\": {points}, \
             \"wall_secs\": {secs:.3}, \"equivalent_flags\": \"--fast --quiet --jobs 1 \
             --seed 42 --scale {scale} --clients {client_list} --measure {measure} {key}\"}}"
        ));
        profile_json.push(format!(
            "      {{\"id\": \"{key}\", \"scale\": {scale}, \"wall_secs\": {secs:.3}, \
             \"events\": {events}, \"stale_events\": {stale}, \
             \"stale_ratio\": {:.4}, \"peak_calendar\": {peak}, \"events_by_kind\": \
             {{\"ps_cpu\": {}, \"ps_nic\": {}, \"delay\": {}, \"job_start\": {}, \
             \"timer\": {}, \"other\": {}}}}}",
            stale as f64 / events.max(1) as f64,
            kinds.ps_cpu,
            kinds.ps_nic,
            kinds.delay,
            kinds.job_start,
            kinds.timer,
            kinds.other,
        ));
    }

    // Database lifecycle: what every sweep pays to populate its base and,
    // at the end, to free it. The last base built serves the probes below
    // and is dropped (timed) after the plan-cache probe; the others are
    // dropped at once. Not part of `total_wall_secs`.
    let build_base = || {
        let t0 = Instant::now();
        let base =
            dynamid_bookstore::build_db(&BookstoreScale::scaled(0.1), 42).expect("population");
        (t0.elapsed().as_secs_f64(), base)
    };
    let timed_drop = |base: dynamid_sqldb::Database| {
        let t0 = Instant::now();
        drop(base);
        t0.elapsed().as_secs_f64()
    };
    let (mut build_secs, mut drop_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 1..SMOKE_TIMING_REPS {
        let (secs, base) = build_base();
        build_secs = build_secs.min(secs);
        drop_secs = drop_secs.min(timed_drop(base));
    }
    let (secs, base) = build_base();
    build_secs = build_secs.min(secs);
    let rows: usize =
        base.table_names().iter().map(|t| base.table(t).expect("listed table").row_count()).sum();

    // Snapshot forks: what every sweep point pays to get its private
    // database. Copy-on-write makes this O(tables); the deep clone is the
    // pre-CoW cost, kept as the comparison baseline.
    let t0 = Instant::now();
    const FORKS: u32 = 200;
    for _ in 0..FORKS {
        std::hint::black_box(base.clone());
    }
    let cow_micros = t0.elapsed().as_micros() as f64 / f64::from(FORKS);
    let t0 = Instant::now();
    const DEEPS: u32 = 20;
    for _ in 0..DEEPS {
        std::hint::black_box(base.deep_clone());
    }
    let deep_micros = t0.elapsed().as_micros() as f64 / f64::from(DEEPS);

    // What a fork's first writes cost: un-sharing every table of a fresh
    // fork through `table_mut` copies each one, as the first write to it
    // in a sweep point does; then freeing that fork. Min of
    // SMOKE_TIMING_REPS each.
    let (mut first_write_micros, mut fork_drop_micros) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SMOKE_TIMING_REPS {
        let mut fork = base.clone();
        let t0 = Instant::now();
        for name in base.table_names() {
            fork.table_mut(name).expect("listed table");
        }
        first_write_micros = first_write_micros.min(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        drop(fork);
        fork_drop_micros = fork_drop_micros.min(t0.elapsed().as_secs_f64() * 1e6);
    }

    // Plan-cache temperature over one experiment point, run against a fork
    // whose counters are read back afterwards.
    let cfg =
        HarnessConfig { seed: 42, measure: SimDuration::from_secs(10), ..HarnessConfig::fast() };
    let mut db = base.clone();
    let before = db.stats();
    ExperimentSpec::for_config(StandardConfig::PhpColocated)
        .mix(&dynamid_bookstore::mixes::browsing())
        .workload(sweep_workload(&cfg, 25))
        .policy(cfg.policy)
        .run(&mut db, &Bookstore::new(BookstoreScale::scaled(cfg.scale)));
    let after = db.stats();
    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let misses = after.plan_cache_misses - before.plan_cache_misses;
    let rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
    // The fork shares the base's unwritten tables; free it first so the
    // timed drop releases the whole base.
    drop(db);
    drop_secs = drop_secs.min(timed_drop(base));

    // The probes, each recorded under its key after the fixed sections.
    let mut records = String::new();
    for (key, probe) in PROBES.iter().chain(chaos.then_some(&CHAOS_PROBE)) {
        let record = match probe() {
            Ok(record) => record,
            Err(e) => {
                eprintln!("smoke {key} FAILED: {e}");
                return ExitCode::FAILURE;
            }
        };
        if verbose {
            eprintln!("smoke {key}: {record}");
        }
        records.push_str(&format!(",\n  \"{key}\": {record}"));
    }

    // Host execution profile: what the simulator costs the *host*, as
    // opposed to the modeled results above (which tests pin down). The
    // recorded per-PR history lives in results/bench_history.json; when it
    // is readable, the current run is compared against the first
    // (baseline) and latest recorded entries — check.sh turns the latter
    // comparison into a regression gate. Looked up relative to the
    // current directory first (how check.sh runs), then relative to the
    // source tree so a smoke run from any directory still gets the
    // comparison.
    let history = fs::read_to_string("results/bench_history.json")
        .or_else(|_| {
            fs::read_to_string(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../results/bench_history.json"
            ))
        })
        .ok();
    let history_totals: Vec<f64> = history
        .as_deref()
        .map(|h| {
            h.split("\"total_wall_secs\":")
                .skip(1)
                .filter_map(|rest| {
                    rest.trim_start()
                        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
                        .next()?
                        .parse()
                        .ok()
                })
                .collect()
        })
        .unwrap_or_default();
    let num_or_null = |v: Option<f64>| match v {
        Some(v) => format!("{v:.3}"),
        None => "null".to_string(),
    };
    let baseline = history_totals.first().copied();
    let latest = history_totals.last().copied();
    let profile = format!(
        "  \"host_profile\": {{\n    \"events\": {all_events}, \"stale_events\": {all_stale}, \
         \"stale_ratio\": {:.4}, \"peak_calendar\": {all_peak},\n    \"figures\": [\n{}\n    ],\n    \
         \"baseline_total_wall_secs\": {}, \"speedup_vs_baseline\": {},\n    \
         \"latest_recorded_total_wall_secs\": {}, \"speedup_vs_latest_recorded\": {},\n    \
         \"history\": {}\n  }}",
        all_stale as f64 / all_events.max(1) as f64,
        profile_json.join(",\n"),
        num_or_null(baseline),
        num_or_null(baseline.map(|b| b / total_secs)),
        num_or_null(latest),
        num_or_null(latest.map(|l| l / total_secs)),
        history.as_deref().map(str::trim).unwrap_or("[]"),
    );

    let json = format!(
        "{{\n  \"generated_by\": \"repro --smoke\",\n  \
         \"timing\": \"min-of-{SMOKE_TIMING_REPS}\",\n  \"figures\": [\n{}\n  ],\n  \
         \"total_wall_secs\": {total_secs:.3},\n{profile},\n  \
         \"plan_cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {rate:.4}}},\n  \
         \"snapshot_fork\": {{\"cow_micros\": {cow_micros:.1}, \
         \"deep_clone_micros\": {deep_micros:.1}, \
         \"first_write_micros\": {first_write_micros:.1}, \
         \"fork_drop_micros\": {fork_drop_micros:.1}, \"build_secs\": {build_secs:.3}, \
         \"drop_secs\": {drop_secs:.3}, \"rows\": {rows}}}{records}\n}}\n",
        fig_json.join(",\n"),
    );
    // Written atomically (temp file + rename) so an interrupted run can
    // never leave a torn or half-stale BENCH_repro.json behind — the perf
    // gate's speedup baseline either updates completely or not at all.
    let (path, tmp) = (out_dir.join("BENCH_repro.json"), out_dir.join("BENCH_repro.json.tmp"));
    let written = fs::create_dir_all(out_dir)
        .and_then(|()| fs::write(&tmp, &json))
        .and_then(|()| fs::rename(&tmp, &path));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
        let _ = fs::remove_file(&tmp);
        return ExitCode::FAILURE;
    }
    if verbose {
        eprintln!(
            "smoke total {total_secs:.3}s (min-of-{SMOKE_TIMING_REPS} per sweep), \
             plan-cache hit rate {rate:.4}, \
             fork {cow_micros:.1}us vs deep clone {deep_micros:.1}us, \
             first writes {first_write_micros:.1}us, fork drop {fork_drop_micros:.1}us"
        );
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// One perf-smoke probe: the key of its `BENCH_repro.json` record and the
/// call that runs it and renders the record, or names the check it failed.
/// Every probe that runs an audited sweep also certifies a clean
/// consistency audit: the sweep panics otherwise.
type Probe = (&'static str, fn() -> Result<String, String>);

/// The probes every perf smoke runs, in record order.
const PROBES: [Probe; 4] = [
    ("cache", cache_probe),
    ("failover", failover_probe),
    ("flash_crowd", flash_crowd_probe),
    ("web_farm", web_farm_probe),
];

/// The miniature availability sweep `--chaos` adds after [`PROBES`].
const CHAOS_PROBE: Probe = ("chaos", chaos_probe);

/// Cache probe: the EJB four-tier configuration on the browsing mix, cache
/// off versus the transactional two-layer cache, under the same saturating
/// 500 ms think time the `repro cache --smoke` golden uses. Records
/// hit/miss/invalidation counters and the throughput uplift so the perf
/// history tracks the caching tier alongside raw wall clock.
fn cache_probe() -> Result<String, String> {
    let cfg = HarnessConfig {
        configs: vec![StandardConfig::EjbFourTier],
        ..pinned_smoke_cfg(1, 0.1, &[40], 6)
    };
    let t0 = Instant::now();
    let wl = CacheWorkload::BookstoreBrowsing;
    let data = run_cache_sweep(&cfg, &[wl], &[1024], &[]);
    let secs = t0.elapsed().as_secs_f64();
    let ejb = StandardConfig::EjbFourTier;
    let off = data.point(wl, ejb, CacheMode::Off, 0, 0, 40).expect("off point");
    let txn = data.point(wl, ejb, CacheMode::Transactional, 1024, 0, 40).expect("txn point");
    let uplift =
        if off.throughput_ipm > 0.0 { txn.throughput_ipm / off.throughput_ipm - 1.0 } else { 0.0 };
    Ok(format!(
        "{{\"wall_secs\": {secs:.3}, \
         \"off_ipm\": {:.1}, \"txn_ipm\": {:.1}, \"uplift\": {uplift:.4},\n    \
         \"query\": {{\"hits\": {}, \"misses\": {}, \"invalidations\": {}, \
         \"bypasses\": {}, \"hit_rate\": {:.4}}},\n    \
         \"method\": {{\"hits\": {}, \"misses\": {}, \"invalidations\": {}, \
         \"bypasses\": {}, \"hit_rate\": {:.4}}},\n    \
         \"consistency_audit\": \"clean\", \
         \"equivalent_flags\": \"cache --smoke restricted to C6, clients 40\"}}",
        off.throughput_ipm,
        txn.throughput_ipm,
        txn.cache.query.hits,
        txn.cache.query.misses,
        txn.cache.query.invalidations,
        txn.cache.query.bypasses,
        txn.cache.query.hit_rate(),
        txn.cache.method.hits,
        txn.cache.method.misses,
        txn.cache.method.invalidations,
        txn.cache.method.bypasses,
        txn.cache.method.hit_rate(),
    ))
}

/// Failover probe: the replicated DB tier versus a pinned primary kill on
/// all three failover architectures, no storm. Records the
/// detection-to-promotion latency, election failures, and the goodput the
/// 2-replica tier keeps over the single-DB baseline, so the perf history
/// tracks failover health release over release.
fn failover_probe() -> Result<String, String> {
    let t0 = Instant::now();
    let data = run_failover(&pinned_smoke_cfg(1, 0.05, &[40], 6), &[0, 2], &[0.0]);
    let secs = t0.elapsed().as_secs_f64();
    let promoted: u64 = data.points.iter().map(|p| p.failovers).sum();
    let elections_failed: u64 = data.points.iter().map(|p| p.elections_failed).sum();
    let repl_points: Vec<_> = data.points.iter().filter(|p| p.replicas > 0).collect();
    let mean_latency_ms = if repl_points.is_empty() {
        0.0
    } else {
        repl_points.iter().map(|p| p.failover_latency_ms).sum::<f64>() / repl_points.len() as f64
    };
    let violations = data.baseline_violations();
    if !violations.is_empty() {
        return Err(format!("replicated goodput lost to the baseline: {}", violations.join("; ")));
    }
    Ok(format!(
        "{{\"points\": {}, \"wall_secs\": {secs:.3}, \
         \"promotions\": {promoted}, \"mean_failover_latency_ms\": {mean_latency_ms:.3}, \
         \"failed_elections\": {elections_failed}, \"baseline_violations\": {}, \
         \"consistency_audit\": \"clean\", \
         \"equivalent_flags\": \"failover with seed 42, scale 0.05, clients 40, \
         replicas 0,2, intensity 0\"}}",
        data.points.len(),
        violations.len()
    ))
}

/// Flash-crowd probe: a reduced overload grid (one spike intensity, smaller
/// population scale than the golden smoke) demonstrating the metastable
/// collapse and its fix. Records per-arm goodput retention averaged over
/// the three architectures plus the control-engagement counters, so the
/// perf history tracks overload health release over release.
fn flash_crowd_probe() -> Result<String, String> {
    let t0 = Instant::now();
    let data = run_overload_configs(&pinned_smoke_cfg(1, 0.05, &[], 6), &OVERLOAD_CONFIGS, &[6.0]);
    let secs = t0.elapsed().as_secs_f64();
    let mean_retention = |mode: OverloadMode| -> f64 {
        let pts: Vec<_> = data.points.iter().filter(|p| p.mode == mode).collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().map(|p| p.retention).sum::<f64>() / pts.len() as f64
        }
    };
    let naive = mean_retention(OverloadMode::Naive);
    let full = mean_retention(OverloadMode::Full);
    let shed: u64 = data.points.iter().map(|p| p.shed).sum();
    let breaker_open: u64 = data.points.iter().map(|p| p.breaker_open).sum();
    let abandoned: u64 = data.points.iter().map(|p| p.abandoned).sum();
    Ok(format!(
        "{{\"points\": {}, \"wall_secs\": {secs:.3}, \
         \"mean_retention_naive\": {naive:.4}, \"mean_retention_full\": {full:.4}, \
         \"shed\": {shed}, \"breaker_denied\": {breaker_open}, \"abandoned\": {abandoned}, \
         \"consistency_audit\": \"clean\", \
         \"equivalent_flags\": \"overload with seed 42, scale 0.05, spike 6x, \
         configs {}\"}}",
        data.points.len(),
        OVERLOAD_CONFIGS.len()
    ))
}

/// Web-farm probe: the round-robin balancer farm (C8 `Lb-WsPhp-DB`) versus
/// the single web server (C1 `WsPhp-DB`) at a web-tier-saturating point of
/// the auction browsing mix — the paper's fig13 regime, where the web
/// server (CPU and its 100 Mb/s NIC), not the database, is the bottleneck.
/// Direct server return keeps the balancer out of the response path, so
/// the two-member farm roughly doubles web-tier capacity; the farm's
/// throughput gain over C1 is the probe's headline number, and the smoke
/// fails if it ever regresses to zero.
fn web_farm_probe() -> Result<String, String> {
    use StandardConfig::{PhpColocated, WebFarm};
    let scale = 0.05;
    let clients = 3200;
    let cfg = HarnessConfig {
        jobs: 1,
        seed: 42,
        scale,
        clients: vec![clients],
        configs: vec![PhpColocated, WebFarm],
        ramp_up: SimDuration::from_secs(2),
        measure: SimDuration::from_secs(8),
        ramp_down: SimDuration::from_secs(1),
        ..HarnessConfig::fast()
    };
    let t0 = Instant::now();
    let data = run_figure(find_figure("fig13").expect("fig13 is in the catalog"), &cfg);
    let secs = t0.elapsed().as_secs_f64();
    let [c1, c8] = [PhpColocated, WebFarm].map(|c| &data.curve(c).expect("swept").points[0]);
    let gain = if c1.ipm > 0.0 { c8.ipm / c1.ipm - 1.0 } else { 0.0 };
    if gain <= 0.0 {
        return Err(format!(
            "C8 auction browsing ({:.0} ipm) shows no gain over C1 ({:.0} ipm)",
            c8.ipm, c1.ipm
        ));
    }
    Ok(format!(
        "{{\"wall_secs\": {secs:.3}, \"clients\": {clients}, \
         \"c1_ipm\": {:.1}, \"c8_ipm\": {:.1}, \"gain\": {gain:.4}, \
         \"c1_web_nic_mbps\": {:.1}, \"c8_web_nic_mbps\": [{:.1}, {:.1}], \
         \"equivalent_flags\": \"auction-browsing at scale {scale}, seed 42, \
         clients {clients}, configs C1,C8\"}}",
        c1.ipm,
        c8.ipm,
        c1.nic_of("web").unwrap_or(0.0),
        c8.nic_of("web-1").unwrap_or(0.0),
        c8.nic_of("web-2").unwrap_or(0.0),
    ))
}

/// Chaos probe: a miniature availability sweep exercising the fault plan,
/// client retries/timeouts, and admission control end to end.
fn chaos_probe() -> Result<String, String> {
    let cfg = HarnessConfig {
        jobs: 1,
        seed: 42,
        scale: 0.05,
        clients: vec![25],
        measure: SimDuration::from_secs(6),
        ramp_up: SimDuration::from_secs(2),
        ramp_down: SimDuration::from_secs(1),
        ..HarnessConfig::fast()
    };
    let t0 = Instant::now();
    let data = run_availability(&cfg, &[0.0, 0.5, 1.0]);
    let secs = t0.elapsed().as_secs_f64();
    let goodput_clean: f64 =
        data.points.iter().filter(|p| p.intensity == 0.0).map(|p| p.goodput_ipm).sum();
    let failed_hostile: u64 =
        data.points.iter().filter(|p| p.intensity == 1.0).map(|p| p.failed()).sum();
    let retries: u64 = data.points.iter().map(|p| p.retries).sum();
    let deadlocks: u64 = data.points.iter().map(|p| p.deadlocks).sum();
    Ok(format!(
        "{{\"points\": {}, \"wall_secs\": {secs:.3}, \
         \"clean_goodput_ipm\": {goodput_clean:.1}, \
         \"hostile_failed_attempts\": {failed_hostile}, \"retries\": {retries}, \
         \"deadlocks\": {deadlocks}, \"consistency_audit\": \"clean\", \
         \"audited_points\": {}, \
         \"equivalent_flags\": \"avail with seed 42, scale 0.05, clients 25, \
         intensities 0,0.5,1\"}}",
        data.points.len(),
        data.points.len()
    ))
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n");
    eprintln!("usage: repro [options] <command>\n\ncommands:");
    for (cmd, help) in COMMANDS {
        eprintln!("  {cmd:<16} {help}");
    }
    for s in &SWEEPS {
        let clients = match s.max_clients {
            0 => "; takes no --clients",
            1 => "; takes one --clients value",
            _ => "",
        };
        let smoke = if s.smoke.is_some() { "; --smoke: the pinned golden grid" } else { "" };
        eprintln!("  {:<16} {} -> {}{clients}{smoke}", s.name, s.help, s.files.join(", "));
    }
    eprintln!("\noptions:");
    for f in FLAGS {
        let head = match f.value {
            Some(v) => format!("{} {v}", f.name),
            None => f.name.to_string(),
        };
        eprintln!("  {head:<20} {}", f.help);
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn failover_rejects_unknown_flags() {
        let err = parse_args(&argv(&["failover", "--replicas", "3"]))
            .err()
            .expect("unknown flag must be rejected");
        assert!(err.contains("unknown option --replicas"), "got: {err}");
        // `main` turns every parse error into usage() -> ExitCode::FAILURE,
        // so Err here is the nonzero-exit path.
    }

    #[test]
    fn cache_rejects_unknown_flags() {
        let err = parse_args(&argv(&["cache", "--ttl", "100"]))
            .err()
            .expect("unknown flag must be rejected");
        assert!(err.contains("unknown option --ttl"), "got: {err}");
    }

    #[test]
    fn overload_rejects_unknown_flags() {
        let err = parse_args(&argv(&["overload", "--spike", "6"]))
            .err()
            .expect("unknown flag must be rejected");
        assert!(err.contains("unknown option --spike"), "got: {err}");
        let err = parse_args(&argv(&["--retention", "0.7", "overload", "--smoke"]))
            .err()
            .expect("unknown flag before the target must be rejected too");
        assert!(err.contains("unknown option --retention"), "got: {err}");
    }

    #[test]
    fn overload_smoke_parses_like_the_other_golden_grids() {
        let cli =
            parse_args(&argv(&["--quiet", "--jobs", "4", "--out", "tmp", "overload", "--smoke"]))
                .expect("valid command line");
        assert!(cli.smoke);
        assert_eq!(cli.targets, vec!["overload".to_string()]);
        assert_eq!(cli.out_dir, Some(PathBuf::from("tmp")));
    }

    #[test]
    fn list_flags_share_one_parser() {
        // The comma-list helper trims, rejects empties, and rejects any
        // unparsable element — for both list-valued flags.
        let cli = parse_args(&argv(&["--clients", " 5, 10 ,15", "--config", "C1 ,C4", "cache"]))
            .expect("valid lists");
        assert_eq!(cli.cfg.clients, vec![5, 10, 15]);
        assert_eq!(
            cli.cfg.configs,
            vec![StandardConfig::PhpColocated, StandardConfig::ServletDedicated]
        );
        assert!(parse_args(&argv(&["--clients", "", "cache"])).is_err());
        assert!(parse_args(&argv(&["--clients", "5,,10", "cache"])).is_err());
        assert!(parse_args(&argv(&["--config", "C1,C99", "cache"])).is_err());
    }

    #[test]
    fn front_ended_configs_parse_everywhere() {
        // C7..C9 are first-class: any subcommand's --config accepts them,
        // by code (case-insensitive) or paper name.
        let cli = parse_args(&argv(&["--config", "C7,c8,Lb-Ws-Servlet-DB", "overload"]))
            .expect("front-ended codes parse");
        assert_eq!(
            cli.cfg.configs,
            vec![StandardConfig::ProxyCached, StandardConfig::WebFarm, StandardConfig::TieredFarm]
        );
        assert!(parse_args(&argv(&["--config", "C10", "overload"])).is_err());
    }

    #[test]
    fn known_flags_and_targets_parse() {
        let cli = parse_args(&argv(&[
            "--quiet", "--jobs", "4", "--seed", "9", "--out", "tmp", "failover", "--smoke",
        ]))
        .expect("valid command line");
        assert!(cli.smoke);
        assert_eq!(cli.cfg.jobs, 4);
        assert_eq!(cli.cfg.seed, 9);
        assert!(!cli.cfg.verbose);
        assert_eq!(cli.out_dir, Some(PathBuf::from("tmp")));
        assert_eq!(cli.targets, vec!["failover".to_string()]);
    }

    #[test]
    fn sweeps_reject_client_lists_they_would_ignore() {
        // avail and failover read one client count, overload none; the
        // rejection happens while parsing, before any sweep runs.
        let err = parse_args(&argv(&["--clients", "10,20", "avail"])).err().expect("two counts");
        assert!(err.contains("avail takes at most 1 --clients value"), "got: {err}");
        assert!(parse_args(&argv(&["--fast", "--clients", "10,20", "failover"])).is_err());
        let err = parse_args(&argv(&["--clients", "15", "overload"])).err().expect("any count");
        assert!(err.contains("overload takes at most 0 --clients value"), "got: {err}");
        assert!(parse_args(&argv(&["fig05", "--clients", "5,10", "overload", "--smoke"])).is_err());
        // One value stays valid where one is read, and cache takes a list.
        assert!(parse_args(&argv(&["--clients", "15", "--fast", "avail", "failover"])).is_ok());
        assert!(parse_args(&argv(&["--clients", "20,100", "cache", "fig05"])).is_ok());
        assert!(parse_args(&argv(&["overload", "--smoke", "--jobs", "4"])).is_ok());
    }

    #[test]
    fn missing_or_malformed_values_are_rejected() {
        assert!(parse_args(&argv(&["--jobs"])).is_err());
        assert!(parse_args(&argv(&["--jobs", "many", "cache"])).is_err());
        assert!(parse_args(&argv(&["--config", "C99", "cache"])).is_err());
        assert!(parse_args(&argv(&[])).is_err(), "no target given must error");
        // --smoke alone is a complete command line (targets optional),
        // and takes --out for its BENCH_repro.json.
        assert_eq!(parse_args(&argv(&["--smoke"])).expect("smoke alone").out_dir, None);
        let cli = parse_args(&argv(&["--smoke", "--out", "tmp"])).expect("smoke with --out");
        assert_eq!(cli.out_dir, Some(PathBuf::from("tmp")));
    }
}
