//! Statement results: the rows, counters and lock sets one executed
//! statement reports.

use crate::ast::TableLockKind;
use crate::cost::QueryCounters;
use crate::value::Value;

/// What kind of statement a [`QueryResult`] came from; the middleware layer
/// uses this to drive implicit table locking.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementKind {
    /// A SELECT.
    Read,
    /// An INSERT/UPDATE/DELETE.
    Write,
    /// `LOCK TABLES` — no data effect; the listed locks must be taken.
    LockTables(Vec<(String, TableLockKind)>),
    /// `UNLOCK TABLES` — no data effect; session locks must be dropped.
    UnlockTables,
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
    /// Tables read (shared locks under MyISAM statement locking).
    pub read_tables: Vec<String>,
    /// Tables written (exclusive locks).
    pub write_tables: Vec<String>,
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

    /// The single value of a one-row, one-column result (aggregates).
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => Some(&self.rows[0][0]),
            _ => self.rows.first()?.first(),
        }
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
