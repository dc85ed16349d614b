//! # dynamid-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the `dynamid` reproduction of *"Performance
//! Comparison of Middleware Architectures for Generating Dynamic Web
//! Content"* (Cecchet et al., MIDDLEWARE 2003). The paper's findings are all
//! capacity and contention phenomena — CPU saturation, database table-lock
//! queueing, NIC saturation — measured on a small cluster. This crate
//! replaces the cluster with a simulated one:
//!
//! * [`Simulation`] — the event calendar plus machines; every machine has a
//!   processor-sharing CPU and NIC ([`PsResource`]).
//! * [`Trace`]/[`Op`] — the linear resource program one request executes.
//! * [`LockManager`] — queued read/write locks (MyISAM table locks,
//!   container-level application locks) and counting semaphores (the Apache
//!   process pool).
//! * [`Driver`] — the callback interface the client emulator implements.
//! * [`SimRng`] and the metric types keep runs reproducible and measurable.
//!
//! ## Example
//!
//! ```
//! use dynamid_sim::*;
//! use dynamid_sim::engine::NullDriver;
//!
//! let mut sim = Simulation::new(SimDuration::from_micros(100));
//! let web = sim.add_machine("web", 1.0, 100.0);
//! let db = sim.add_machine("db", 1.0, 100.0);
//! let trace: Trace = [
//!     Op::Cpu { machine: web, micros: 300 },
//!     Op::Net { from: web, to: db, bytes: 256 },
//!     Op::Cpu { machine: db, micros: 1_200 },
//!     Op::Net { from: db, to: web, bytes: 2_048 },
//! ].into_iter().collect();
//! sim.submit(trace, 0);
//! sim.run(SimTime::from_micros(1_000_000), &mut NullDriver).unwrap();
//! assert_eq!(sim.stats().completed, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calendar;
pub mod engine;
pub mod fault;
mod hash;
pub mod lock;
pub mod metrics;
pub mod op;
pub mod ps;
pub mod rng;
pub mod time;
pub mod trace;

pub use engine::{
    AbortReason, Driver, EngineStats, EventCounts, JobAborted, JobDone, JobId, MachineId, SimError,
    SimErrorKind, Simulation,
};
pub use fault::{CrashWindow, Degradation, FaultPlan};
pub use lock::{
    GrantPolicy, LockId, LockManager, LockMode, LockStats, SemGrant, SemRelease, SemaphoreId,
};
pub use metrics::{ErrorCounters, LatencyHistogram, WindowSnapshot};
pub use op::{Op, Trace};
pub use ps::{PsResource, PsStats};
pub use rng::{SimRng, Zipf};
pub use time::{SimDuration, SimTime};
pub use trace::{Activity, IntervalColumns, OpInterval, TraceRecorder};
