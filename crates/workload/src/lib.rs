//! # dynamid-workload — client emulation and experiment execution
//!
//! Implements the paper's measurement methodology (§4.1, §4.5): a
//! population of emulated browsers, each running sessions of interactions
//! drawn from a per-mix Markov transition matrix, with exponential think
//! times (mean 7 s) and session lengths (mean 15 min); a ramp-up /
//! measurement / ramp-down phase structure; and throughput reported in
//! interactions per minute with per-machine CPU utilization over the
//! measurement window.
//!
//! [`ExperimentSpec`] is the one-call entry point the figure harness and
//! the examples build on: a builder covering configuration, cost model,
//! workload phases, lock policy, fault injection, admission control, and
//! span tracing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod driver;
pub mod experiment;
pub mod fault;
pub mod mix;

pub use arrivals::ArrivalProcess;
pub use driver::{
    CommitLedger, ReplicationReport, ResourceWindow, TimelineBucket, WorkloadConfig,
    WorkloadDriver, WorkloadMetrics,
};
pub use experiment::{ExperimentResult, ExperimentSpec, LAN_LATENCY};
pub use fault::{FaultSpec, ResilienceConfig, RetryBudget, RetryTokens};
pub use mix::{Mix, TransitionMatrix};
