//! # dynamid-sqldb — in-memory relational engine that counts its work
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
//!   (index equality / range / full scan) and reports the work it does as
//!   [`QueryCounters`] (rows examined, returned and written, index probes,
//!   rows sorted, bytes returned).
//!
//! The engine only counts: `dynamid-core`'s cost model prices those
//! counters into the CPU microseconds the simulated database machine is
//! charged.
//!
//! MyISAM's `LOCK TABLES` rules are enforced here: the [`Database`] holds
//! the session's lock set and refuses, before it runs, any statement the
//! set does not admit. Waiting for locks is not: each [`QueryResult`]
//! reports the tables it read and wrote (`LOCK TABLES` and `UNLOCK TABLES`
//! the set they took or released), and `dynamid-core` turns that into
//! queued table locks on the simulated database, mirroring how MyISAM
//! serializes statements. The engine itself is single-threaded, exactly
//! like the simulation that drives it.
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
pub mod db;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod schema;
pub mod table;
pub mod txn;
pub mod value;

pub use cache::{CacheCounters, CacheInvalidation, CacheKey, CachePolicy, CacheStats, Lookup};
pub use compile::CompiledStmt;
pub use db::{BulkLoad, Database, DbStats};
pub use error::{SqlError, SqlResult};
pub use exec::{QueryCounters, QueryResult, StatementKind};
pub use parser::{count_params, parse};
pub use schema::{Column, ColumnType, TableSchema};
pub use table::{RowId, Table};
pub use txn::TxnLog;
pub use value::Value;
