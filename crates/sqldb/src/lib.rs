//! # dynamid-sqldb — in-memory relational engine with MyISAM-style costs
//!
//! The database substrate for the `dynamid` reproduction of *"Performance
//! Comparison of Middleware Architectures for Generating Dynamic Web
//! Content"* (Cecchet et al., MIDDLEWARE 2003). The paper's benchmarks run
//! against MySQL 3.23 with MyISAM tables; this crate provides the pieces of
//! that system the benchmarks exercise:
//!
//! * a SQL subset ([`parse`]) covering the TPC-W bookstore's and the RUBiS
//!   auction site's query shapes: filtered/joined SELECTs with GROUP BY,
//!   ORDER BY, LIMIT and aggregates, INSERT / UPDATE / DELETE, and
//!   MyISAM's `LOCK TABLES` / `UNLOCK TABLES`;
//! * real storage with primary-key and secondary B-tree indexes
//!   ([`Table`]), so queries return real, data-dependent results;
//! * a compile-once executor ([`CompiledStmt`]) that picks an access path
//!   (index equality / range / full scan) and counts the work it does;
//! * an analytic [`DbCostModel`] converting those counters into the CPU
//!   microseconds the simulated database machine is charged.
//!
//! Locking is deliberately *not* enforced here: each [`QueryResult`] reports
//! which tables it read and wrote, and the middleware layer
//! (`dynamid-core`) turns that into queued table locks on the simulated
//! database — mirroring how MyISAM serializes statements. The engine itself
//! is single-threaded, exactly like the simulation that drives it.
//!
//! ## Example
//!
//! ```
//! use dynamid_sqldb::{Database, TableSchema, ColumnType, Value};
//! let mut db = Database::new();
//! db.create_table(
//!     TableSchema::builder("items")
//!         .column("id", ColumnType::Int)
//!         .column("name", ColumnType::Str)
//!         .column("price", ColumnType::Float)
//!         .primary_key("id")
//!         .auto_increment()
//!         .build()?,
//! )?;
//! db.execute("INSERT INTO items (id, name, price) VALUES (NULL, 'book', 12.5)", &[])?;
//! let hits = db.execute(
//!     "SELECT name FROM items WHERE price BETWEEN ? AND ?",
//!     &[Value::Float(10.0), Value::Float(20.0)],
//! )?;
//! assert_eq!(hits.rows.len(), 1);
//! # Ok::<(), dynamid_sqldb::SqlError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod cache;
pub mod compile;
pub mod cost;
pub mod db;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod replication;
pub mod schema;
pub mod table;
pub mod txn;
pub mod value;

pub use cache::{
    CacheCounters, CacheInvalidation, CacheKey, CachePolicy, CacheStats, Lookup, TableWrites,
};
pub use compile::CompiledStmt;
pub use cost::{DbCostModel, QueryCounters};
pub use db::{BulkLoad, Database, DbStats};
pub use error::{SqlError, SqlResult};
pub use exec::{QueryResult, StatementKind};
pub use parser::{count_params, parse};
pub use replication::{CatchupPlan, ReplicationStream, WriteSetFrame};
pub use schema::{Column, ColumnType, TableSchema};
pub use table::{RowId, Table};
pub use txn::TxnLog;
pub use value::Value;
