//! Pins the engine's event stream, not only the figures it produces.
//!
//! The golden CSVs hold throughput and utilization, which a changed event
//! order could still reproduce by luck. These tests assert every point's
//! engine counters — events dispatched, stale events, calendar high-water
//! mark, completions, aborts, rejections and deadlocks — so any change to
//! the engine's internals that reorders, adds or drops an event fails here
//! even when every CSV survives.
//!
//! Two runs cover both halves of the engine: the fig11 grid under
//! [`HarnessConfig::smoke`] (closed loop, healthy path), and one open-loop
//! point that exercises request timeouts, deadline-aware shedding, a bounded
//! connection pool and a crash window on the database machine.

use dynamid_bookstore::{Bookstore, BookstoreScale};
use dynamid_core::{AdmissionControl, OverloadControl, StandardConfig};
use dynamid_harness::{find_figure, run_figure, HarnessConfig};
use dynamid_sim::{EngineStats, SimDuration};
use dynamid_workload::{ArrivalProcess, ExperimentSpec, ResilienceConfig, WorkloadConfig};

/// The pinned counters of one run:
/// `(submitted, completed, aborted, rejected, deadlocks, events, stale, peak)`.
type Pin = (u64, u64, u64, u64, u64, u64, u64, u64);

fn pin(e: &EngineStats) -> Pin {
    (
        e.submitted,
        e.completed,
        e.aborted,
        e.rejected,
        e.deadlocks,
        e.events,
        e.stale_events,
        e.peak_calendar,
    )
}

#[test]
fn fig11_smoke_grid_event_stream_is_pinned() {
    let cfg = HarnessConfig::smoke();
    let data = run_figure(find_figure("fig11").expect("fig11 exists"), &cfg);
    let got: Vec<(String, usize, Pin)> = data
        .curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| (c.config.to_string(), p.clients, pin(&p.engine))))
        .collect();
    let want: Vec<(String, usize, Pin)> = [
        ("WsPhp-DB", 5, (107, 107, 0, 0, 0, 5_477, 0, 7)),
        ("WsPhp-DB", 20, (393, 393, 0, 0, 0, 20_239, 0, 22)),
        ("Ws-Servlet-DB", 5, (107, 107, 0, 0, 0, 6_440, 0, 7)),
        ("Ws-Servlet-DB", 20, (392, 391, 0, 0, 0, 23_673, 4, 22)),
    ]
    .into_iter()
    .map(|(c, n, p)| (c.to_string(), n, p))
    .collect();
    assert_eq!(got, want, "fig11 smoke event stream moved");
}

#[test]
fn open_loop_overload_point_event_stream_is_pinned() {
    let scale = 0.01;
    let mut db =
        dynamid_bookstore::build_db(&BookstoreScale::scaled(scale), 5).expect("population");
    let mix = dynamid_bookstore::mixes::ordering();
    let workload = WorkloadConfig {
        ramp_up: SimDuration::from_secs(1),
        measure: SimDuration::from_secs(6),
        ramp_down: SimDuration::from_secs(1),
        seed: 23,
        arrivals: ArrivalProcess::Poisson { rate_per_sec: 300.0 },
        resilience: ResilienceConfig {
            request_timeout: Some(SimDuration::from_secs(1)),
            max_retries: 1,
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_millis(400),
            retry_budget: None,
        },
        ..WorkloadConfig::new(0)
    };
    let shed = Some(SimDuration::from_millis(300));
    let r = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
        .mix(&mix)
        .workload(workload)
        .admission(AdmissionControl {
            web_accept_queue: Some(8),
            db_connections: Some(4),
            db_accept_queue: Some(2),
        })
        .overload(OverloadControl { web_shed_target: shed, db_shed_target: shed, breaker: None })
        .kill_primary(SimDuration::from_secs(3), SimDuration::from_millis(700))
        .run(&mut db, &Bookstore::new(BookstoreScale::scaled(scale)));
    // Timeouts, sheds and the crash abort jobs; the full accept queues
    // reject them. The bookstore takes its table locks in one global order,
    // so no wait-for cycle forms and `deadlocks` stays zero.
    assert_eq!(
        pin(&r.engine),
        (2_856, 2_035, 470, 331, 0, 265_077, 5_136, 46),
        "open-loop event stream moved"
    );
}
