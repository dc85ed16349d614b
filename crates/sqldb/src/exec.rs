//! Statement results: the rows, counters and lock sets one executed
//! statement reports.

use crate::ast::TableLockKind;
use crate::value::Value;

/// Work the executor did for one statement: what `dynamid-core`'s
/// database cost model prices into CPU microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCounters {
    /// Rows visited (scans, index probes, join lookups).
    pub rows_examined: u64,
    /// Rows in the result set.
    pub rows_returned: u64,
    /// Rows inserted, updated, or deleted.
    pub rows_written: u64,
    /// Index probes performed.
    pub index_lookups: u64,
    /// Rows that went through a sort.
    pub sort_rows: u64,
    /// Result-set payload bytes.
    pub bytes_returned: u64,
}

/// What kind of statement a [`QueryResult`] came from; the middleware layer
/// turns it into the table locks the statement takes or drops.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementKind {
    /// A SELECT.
    Read,
    /// An INSERT/UPDATE/DELETE.
    Write,
    /// `LOCK TABLES` — no data effect; the session now holds the listed
    /// locks. Tables are catalog ids, each listed once.
    LockTables(Vec<(usize, TableLockKind)>),
    /// `UNLOCK TABLES` — no data effect; the session released the listed
    /// locks (none when it held none).
    UnlockTables(Vec<(usize, TableLockKind)>),
    /// `BEGIN` / `START TRANSACTION` — no data effect; opens a transaction.
    Begin,
    /// `COMMIT` — no data effect; keeps the open transaction's writes.
    Commit,
    /// `ROLLBACK` — undoes the open transaction's writes.
    Rollback,
}

/// The outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for writes).
    pub columns: Vec<String>,
    /// Result rows (empty for writes).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted.
    pub affected: u64,
    /// Key assigned by the last auto-increment insert.
    pub last_insert_id: Option<i64>,
    /// Execution counters (drives the cost model).
    pub counters: QueryCounters,
    /// Catalog ids of the tables read (shared locks under MyISAM statement
    /// locking), each once.
    pub read_tables: Vec<usize>,
    /// Catalog ids of the tables written (exclusive locks).
    pub write_tables: Vec<usize>,
    /// Statement classification.
    pub kind: StatementKind,
}

impl QueryResult {
    pub(crate) fn empty(kind: StatementKind) -> Self {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            affected: 0,
            last_insert_id: None,
            counters: QueryCounters::default(),
            read_tables: Vec::new(),
            write_tables: Vec::new(),
            kind,
        }
    }

    /// Position of an output column by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Value at `(row, column-name)`, if present.
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let c = self.col_index(column)?;
        self.rows.get(row)?.get(c)
    }

    /// The first row's first cell: the single value of a one-row,
    /// one-column result (aggregates).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first()?.first()
    }

    /// `true` if the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}
