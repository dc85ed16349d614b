//! # dynamid — dynamic-web-content middleware architectures, reproduced
//!
//! An executable reproduction of *"Performance Comparison of Middleware
//! Architectures for Generating Dynamic Web Content"* (Cecchet, Chanda,
//! Elnikety, Marguerite, Zwaenepoel — MIDDLEWARE 2003): the three
//! middleware architectures (PHP scripts in the web server, out-of-process
//! Java servlets, EJB session façades over entity beans), the two
//! application benchmarks (a TPC-W online bookstore and an eBay-style
//! auction site), the paper's six deployment configurations plus three
//! front-ended ones (reverse proxy, web farms), and the measurement
//! methodology — all running against a from-scratch in-memory SQL engine
//! over a deterministic discrete-event cluster simulation.
//!
//! This crate re-exports the workspace members:
//!
//! * [`sim`] — discrete-event kernel (machines, processor-sharing CPUs and
//!   NICs, queued locks, semaphores, deterministic RNG).
//! * [`sqldb`] — the relational engine (SQL subset, B-tree indexes,
//!   MyISAM-style locking metadata, per-statement work counters).
//! * [`core`] — the middleware tiers under test, the nine deployments and
//!   the calibrated cost model of every tier (web server, AJP/RMI
//!   connectors, generators, EJB container, database, front end).
//! * [`trace`] — span-level request tracing: Chrome-trace export and the
//!   aggregated bottleneck report.
//! * [`workload`] — the client emulator and experiment runner
//!   ([`ExperimentSpec`](workload::ExperimentSpec)).
//! * [`bookstore`] / [`auction`] — the two benchmark applications.
//! * [`bboard`] — the bulletin-board benchmark the paper's §7 predicts
//!   results for but does not measure (extension).
//! * [`harness`] — the figure-by-figure reproduction harness (also the
//!   `repro` binary).
//!
//! ## Quick start
//!
//! ```
//! use dynamid::bookstore::{build_db, Bookstore, BookstoreScale};
//! use dynamid::core::StandardConfig;
//! use dynamid::workload::{ExperimentSpec, WorkloadConfig};
//!
//! let scale = BookstoreScale::small();
//! let mut db = build_db(&scale, 42)?;
//! let app = Bookstore::new(scale);
//! let mix = dynamid::bookstore::mixes::shopping();
//! let result = ExperimentSpec::for_config(StandardConfig::PhpColocated)
//!     .mix(&mix)
//!     .workload(WorkloadConfig {
//!         clients: 10,
//!         ramp_up: dynamid::sim::SimDuration::from_secs(2),
//!         measure: dynamid::sim::SimDuration::from_secs(10),
//!         ramp_down: dynamid::sim::SimDuration::from_secs(1),
//!         think_time: dynamid::sim::SimDuration::from_millis(500),
//!         ..WorkloadConfig::new(10)
//!     })
//!     .run(&mut db, &app);
//! assert!(result.throughput_ipm > 0.0);
//! # Ok::<(), dynamid::sqldb::SqlError>(())
//! ```

#![warn(missing_docs)]

pub use dynamid_auction as auction;
pub use dynamid_bboard as bboard;
pub use dynamid_bookstore as bookstore;
pub use dynamid_core as core;
pub use dynamid_harness as harness;
pub use dynamid_sim as sim;
pub use dynamid_sqldb as sqldb;
pub use dynamid_trace as trace;
pub use dynamid_workload as workload;
