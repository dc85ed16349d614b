//! # dynamid-http — HTTP and web-server front-end model
//!
//! Models the pieces of the paper's front end that sit in front of the
//! dynamic-content generator: HTTP responses, the Apache 1.3
//! process-pool web server (`MaxClients 512` in the paper's configuration),
//! static-content service, and the connectors joining the web server to a
//! content generator (in-process module for PHP, AJP12 for Tomcat, RMI for
//! the EJB server).
//!
//! The types here are *specifications*: `dynamid-core` compiles them into
//! CPU/NIC/semaphore operations on the simulated machines.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod connector;
pub mod message;
pub mod server;

pub use connector::{Connector, ConnectorCosts};
pub use message::{Response, Status};
pub use server::{HttpCosts, StaticAsset, WebServerSpec};
