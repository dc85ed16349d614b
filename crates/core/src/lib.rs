//! # dynamid-core — the three middleware architectures under test
//!
//! The subject of the reproduced paper (*"Performance Comparison of
//! Middleware Architectures for Generating Dynamic Web Content"*, Cecchet
//! et al., MIDDLEWARE 2003): three ways of generating dynamic web content,
//! deployable in the paper's six configurations plus three front-ended
//! ones (C7–C9, via the composable [`Topology`] API), measurable over the
//! `dynamid-sim` cluster against the `dynamid-sqldb` database.
//!
//! * **PHP** ([`Architecture::Php`]) — scripts in the web-server process:
//!   no IPC, a cheap native database driver, but pinned to the web machine.
//! * **Java servlets** ([`Architecture::Servlet`]) — an out-of-process
//!   container reached over AJP: per-request and per-byte marshalling and a
//!   dearer JDBC driver, but free to run on its own machine, and able to
//!   replace SQL `LOCK TABLES` with container-level locks (the paper's
//!   *(sync)* configurations).
//! * **EJB** ([`Architecture::Ejb`]) — session façades over RMI and entity
//!   beans with container-managed persistence, which turn business
//!   operations into floods of single-row SQL statements.
//!
//! Applications implement [`Application`] once and branch on
//! [`LogicStyle`]; [`Middleware::run_interaction`] compiles each
//! interaction into a resource [`Trace`](dynamid_sim::Trace) while
//! executing its queries for real.
//!
//! ## Example
//!
//! See `examples/quickstart.rs` in the repository root, or the
//! `middleware` module tests for a complete toy application.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod cache;
pub mod cost;
pub mod ctx;
pub mod deploy;
pub mod ejb;
pub mod middleware;
pub mod overload;
pub mod replication;
pub mod session;

pub use app::{AppError, AppLockSpec, AppResult, Application, InteractionSpec, LogicStyle};
pub use cache::{CacheInvalidation, CachePolicy, CacheScope, MethodCacheConfig, MethodCacheStats};
pub use cost::{CostModel, EjbCosts, FrontEndCosts, GeneratorCosts};
pub use ctx::{RequestCtx, RequestStats};
pub use deploy::{
    AdmissionControl, Architecture, Deployment, FrontEnd, LogicPlacement, RoutingPolicy,
    StandardConfig, Topology, TopologyBuilder,
};
pub use ejb::{BeanHandle, EntityManager};
pub use middleware::{InstallOptions, Middleware, PreparedRequest};
pub use overload::{BreakerPolicy, BreakerState, BreakerStats, CircuitBreaker, OverloadControl};
pub use replication::{
    ElectionOutcome, ReplicaPolicy, ReplicaState, ReplicationState, ReplicationStats,
};
pub use session::SessionData;
