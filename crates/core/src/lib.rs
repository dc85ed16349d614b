//! # dynamid-core — the three middleware architectures under test
//!
//! The subject of the reproduced paper (*"Performance Comparison of
//! Middleware Architectures for Generating Dynamic Web Content"*, Cecchet
//! et al., MIDDLEWARE 2003): three ways of generating dynamic web content,
//! deployable in the paper's six configurations plus the extensions C1s
//! and C7–C9 (the [`StandardConfig`] presets), measurable over the
//! `dynamid-sim` cluster against the `dynamid-sqldb` database.
//!
//! * **PHP** ([`LogicPlacement::WebProcess`]) — scripts in the web-server
//!   process: no IPC, a cheap native database driver, but pinned to the
//!   web machine.
//! * **Java servlets** ([`LogicPlacement::ColocatedContainer`],
//!   [`LogicPlacement::DedicatedContainer`]) — an out-of-process container
//!   reached over AJP: per-request and per-byte marshalling and a dearer
//!   JDBC driver, but free to run on its own machine, and able to replace
//!   SQL `LOCK TABLES` with container-level locks (the paper's *(sync)*
//!   configurations).
//! * **EJB** ([`LogicPlacement::EntityBeans`]) — session façades over RMI
//!   and entity beans with container-managed persistence, which turn
//!   business operations into floods of single-row SQL statements.
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
pub mod cost;
pub mod ctx;
pub mod deploy;
pub mod ejb;
mod hop;
pub mod middleware;
pub mod overload;
pub mod replication;
pub mod session;

pub use app::{AppError, AppLockSpec, AppResult, Application, InteractionSpec, LogicStyle};
pub use cost::{
    ConnectorCosts, CostModel, DbCostModel, EjbCosts, FrontEndCosts, GeneratorCosts, StaticAsset,
    WebServerCosts,
};
pub use ctx::{RequestCtx, RequestStats};
pub use deploy::{
    AdmissionControl, Deployment, FrontEnd, LogicPlacement, RoutingPolicy, StandardConfig,
};
pub use ejb::{BeanHandle, EntityManager};
pub use middleware::{InstallOptions, Middleware, PreparedRequest};
pub use overload::{BreakerPolicy, BreakerState, BreakerStats, CircuitBreaker, OverloadControl};
pub use replication::{
    ElectionOutcome, Failover, ReplicaPolicy, ReplicationState, ReplicationStats, Ship,
};
pub use session::SessionData;
