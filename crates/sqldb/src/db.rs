//! The database facade: catalog, statement cache, execution entry point.

use crate::ast::Stmt;
use crate::cache::{CacheKey, CachePolicy, CacheStats, Lookup, TableWrites, TxnCache};
use crate::compile::{compile, exec_compiled, CompiledStmt};
use crate::cost::{DbCostModel, QueryCounters};
use crate::error::{SqlError, SqlResult};
use crate::exec::{QueryResult, StatementKind};
use crate::parser::parse;
use crate::schema::TableSchema;
use crate::table::{RowId, Table};
use crate::txn::{TxnLog, UndoOp};
use crate::value::Value;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Cumulative engine statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DbStats {
    /// Statements executed.
    pub statements: u64,
    /// Statement-cache hits.
    pub cache_hits: u64,
    /// Statements that returned an error.
    pub errors: u64,
    /// Executions served by a cached compiled plan.
    pub plan_cache_hits: u64,
    /// Executions that had to compile (or recompile) a plan.
    pub plan_cache_misses: u64,
    /// Cached plans discarded because DDL changed the schema version.
    pub plan_invalidations: u64,
}

impl DbStats {
    /// Classifies the plan-cache outcome of the statements executed between
    /// the `before` snapshot and this one: `Some(true)` when every execution
    /// hit a cached plan, `Some(false)` when at least one compiled, and
    /// `None` when nothing touched the plan cache (e.g. transaction-control
    /// statements, which bypass it).
    pub fn plan_outcome_since(&self, before: &DbStats) -> Option<bool> {
        let hits = self.plan_cache_hits - before.plan_cache_hits;
        let misses = self.plan_cache_misses - before.plan_cache_misses;
        if misses > 0 {
            Some(false)
        } else if hits > 0 {
            Some(true)
        } else {
            None
        }
    }
}

/// An in-memory relational database: tables, a parsed-statement cache, and
/// a cost model.
///
/// Modeled on MySQL 3.23 with MyISAM tables, as used in the paper:
/// table-level locking (enforced by the middleware layer via the lock
/// metadata each [`QueryResult`] carries), `LOCK TABLES` / `UNLOCK TABLES`
/// statements, and auto-increment keys. On top of that base the engine
/// supports undo-logged transactions (`BEGIN` / `COMMIT` / `ROLLBACK`, or
/// the host-side [`begin_txn`](Self::begin_txn) family): bare statements
/// auto-commit exactly as before, while statements inside a transaction
/// record per-row undo entries so rollback restores the pre-transaction
/// state byte-for-byte.
///
/// ```
/// use dynamid_sqldb::{Database, TableSchema, ColumnType, Value};
/// let mut db = Database::new();
/// db.create_table(
///     TableSchema::builder("users")
///         .column("id", ColumnType::Int)
///         .column("name", ColumnType::Str)
///         .primary_key("id")
///         .auto_increment()
///         .build()?,
/// )?;
/// db.execute("INSERT INTO users (id, name) VALUES (NULL, ?)", &[Value::str("ann")])?;
/// let r = db.execute("SELECT name FROM users WHERE id = ?", &[Value::Int(1)])?;
/// assert_eq!(r.rows[0][0], Value::str("ann"));
/// # Ok::<(), dynamid_sqldb::SqlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    /// Tables are `Arc`-shared between clones: `Database::clone` is an
    /// O(tables) copy-on-write snapshot fork, and the first write to a table
    /// in either copy un-shares just that table (`Arc::make_mut`). The
    /// harness leans on this to fork a populated database per sweep point.
    tables: Vec<Arc<Table>>,
    by_name: HashMap<String, usize>,
    cost: DbCostModel,
    stmt_cache: HashMap<String, Arc<Stmt>>,
    plan_cache: HashMap<String, Arc<CompiledStmt>>,
    schema_version: u64,
    stats: DbStats,
    /// Undo log of the open transaction, if any. `None` = auto-commit mode.
    txn: Option<TxnLog>,
    /// Rewind journal: when armed (see [`begin_rewind`](Self::begin_rewind)),
    /// every surviving row mutation — auto-commit writes directly, committed
    /// transactions at commit — is appended in host execution order, so
    /// [`rewind`](Self::rewind) can restore the armed-at state byte-exactly
    /// by applying the journal in reverse.
    journal: Option<TxnLog>,
    /// Set when a mutation the journal cannot exactly reverse happened (an
    /// [`apply_rollback`](Self::apply_rollback) of an already-journaled
    /// receipt). `rewind` then refuses and the caller must re-fork.
    journal_dirty: bool,
    /// Opt-in transactional caches (see [`crate::cache`]).
    caches: Option<Caches>,
    /// Id source for plans entering the plan cache; `(plan id, parameters)`
    /// keys the query cache.
    next_plan_id: u64,
}

/// The two transactional cache instances, enabled together under one
/// [`CachePolicy`], and the simulated-time clock their TTL reads.
#[derive(Debug, Clone)]
struct Caches {
    /// SELECT results keyed by `(plan id, parameters)`.
    query: TxnCache<(u64, CacheKey), QueryResult>,
    /// Session-façade return values keyed by `(façade name, arguments)`.
    method: TxnCache<(String, CacheKey), Arc<dyn Any + Send + Sync>>,
    /// Micros fed by [`Database::set_cache_clock`].
    clock: u64,
}

impl Database {
    /// Creates an empty database with the default cost model.
    pub fn new() -> Self {
        Self::with_cost_model(DbCostModel::default())
    }

    /// Creates an empty database with an explicit cost model.
    pub fn with_cost_model(cost: DbCostModel) -> Self {
        Database {
            tables: Vec::new(),
            by_name: HashMap::new(),
            cost,
            stmt_cache: HashMap::new(),
            plan_cache: HashMap::new(),
            schema_version: 0,
            stats: DbStats::default(),
            txn: None,
            journal: None,
            journal_dirty: false,
            caches: None,
            next_plan_id: 0,
        }
    }

    /// The cost model used by [`statement_cost`](Self::statement_cost).
    pub fn cost_model(&self) -> &DbCostModel {
        &self.cost
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Registers a new table.
    ///
    /// # Errors
    ///
    /// Fails if a table with the same name exists.
    pub fn create_table(&mut self, schema: TableSchema) -> SqlResult<()> {
        let name = schema.name().to_string();
        if self.by_name.contains_key(&name) {
            return Err(SqlError::TableExists(name));
        }
        self.by_name.insert(name, self.tables.len());
        self.tables.push(Arc::new(Table::new(schema)));
        // DDL invalidates every compiled plan: column positions, table
        // ids, and name resolution may all have changed.
        self.schema_version += 1;
        Ok(())
    }

    /// Drops the parsed-statement cache, the compiled-plan cache, and every
    /// cached query result and façade return value.
    ///
    /// Every subsequent statement pays the full parse + compile cost once
    /// again; useful for cold-cache benchmarking and cache-equivalence
    /// tests. Table data, cumulative statistics and cache counters are
    /// untouched.
    pub fn clear_caches(&mut self) {
        self.stmt_cache.clear();
        self.plan_cache.clear();
        if let Some(caches) = self.caches.as_mut() {
            caches.query.clear();
            caches.method.clear();
        }
    }

    /// Enables both transactional cache instances — query results and
    /// façade return values — under `policy`, replacing (and emptying) any
    /// previous ones and zeroing their counters and clock. See
    /// [`crate::cache`] for the coherence protocol.
    pub fn enable_caching(&mut self, policy: CachePolicy) {
        self.caches =
            Some(Caches { query: TxnCache::new(policy), method: TxnCache::new(policy), clock: 0 });
    }

    /// Disables and drops both cache instances with their counters.
    pub fn disable_caching(&mut self) {
        self.caches = None;
    }

    /// `true` while caching is enabled.
    pub fn caching_enabled(&self) -> bool {
        self.caches.is_some()
    }

    /// Counters of both cache instances since caching was enabled (all zero
    /// while it is off).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.as_ref().map_or_else(CacheStats::default, |c| CacheStats {
            query: c.query.counters(),
            method: c.method.counters(),
        })
    }

    /// Number of query results currently cached (diagnostics).
    pub fn query_cache_len(&self) -> usize {
        self.caches.as_ref().map_or(0, |c| c.query.len())
    }

    /// Number of façade return values currently cached (diagnostics).
    pub fn method_cache_len(&self) -> usize {
        self.caches.as_ref().map_or(0, |c| c.method.len())
    }

    /// Feeds the simulated-time clock both instances judge TTL freshness
    /// by. A no-op while caching is off.
    pub fn set_cache_clock(&mut self, micros: u64) {
        if let Some(caches) = self.caches.as_mut() {
            caches.clock = micros;
        }
    }

    /// Looks up a memoized session-façade invocation, `(name, key)`,
    /// counting the outcome. The lookup is bypassed when the open
    /// transaction wrote one of the stored entry's tables. Returns
    /// [`Lookup::Miss`] uncounted while caching is off.
    pub fn lookup_method(
        &mut self,
        name: &str,
        key: &CacheKey,
    ) -> Lookup<Arc<dyn Any + Send + Sync>> {
        let Some(caches) = self.caches.as_mut() else { return Lookup::Miss };
        let txn = &self.txn;
        caches.method.lookup(&(name.to_string(), key.clone()), caches.clock, |tables| {
            txn.as_ref().is_some_and(|t| t.touches(tables))
        })
    }

    /// Memoizes a session-façade return value computed from `tables` (by
    /// catalog id). Not stored while caching is off, or when the open
    /// transaction wrote one of `tables`: the value may reflect its
    /// uncommitted writes.
    pub fn store_method(
        &mut self,
        name: &str,
        key: CacheKey,
        value: Arc<dyn Any + Send + Sync>,
        tables: Vec<usize>,
    ) {
        if self.txn.as_ref().is_some_and(|t| t.touches(&tables)) {
            return;
        }
        if let Some(caches) = self.caches.as_mut() {
            caches.method.store((name.to_string(), key), value, tables, None, caches.clock);
        }
    }

    /// Commit-driven invalidation of both instances.
    fn invalidate(&mut self, writes: &[TableWrites]) {
        if let Some(caches) = self.caches.as_mut() {
            caches.query.invalidate(writes);
            caches.method.invalidate(writes);
        }
    }

    /// Current schema version (bumped by every DDL statement).
    pub(crate) fn schema_version(&self) -> u64 {
        self.schema_version
    }

    /// Catalog id of a table, for compiled plans.
    pub(crate) fn table_id(&self, name: &str) -> SqlResult<usize> {
        self.by_name.get(name).copied().ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Table by catalog id (ids come from [`table_id`](Self::table_id) and
    /// stay valid for one schema version).
    pub(crate) fn table_at(&self, id: usize) -> &Table {
        &self.tables[id]
    }

    /// Catalog id of a table by name, if it exists. Ids stay valid for one
    /// schema version; cached façade values use them as dependency keys.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Extracts the per-table invalidation write-set from a transaction's
    /// undo log, against the *current* (post-commit) table state.
    ///
    /// Each written table maps to the primary-key values of its touched
    /// rows when they are attributable — update and delete ops carry their
    /// pre-image (and post-image), and an insert's key is read from the
    /// live row, with any later same-transaction mutation of that row
    /// contributing the key through its own op. A table without a primary
    /// key yields a wildcard (`rows: None`) that invalidates every
    /// dependent entry.
    pub fn write_set(&self, log: &TxnLog) -> Vec<TableWrites> {
        let mut per: std::collections::BTreeMap<usize, Option<Vec<Value>>> =
            std::collections::BTreeMap::new();
        let mut add = |table: usize, keys: &mut dyn Iterator<Item = Value>| {
            let entry = per.entry(table).or_insert_with(|| Some(Vec::new()));
            match (self.tables[table].schema().primary_key(), entry.as_mut()) {
                (Some(_), Some(rows)) => rows.extend(keys),
                (None, _) => *entry = None,
                (Some(_), None) => {}
            }
        };
        for op in log.ops() {
            match op {
                UndoOp::Insert { table, rid, .. } => {
                    let pk = self.tables[*table].schema().primary_key();
                    let key =
                        pk.and_then(|pk| self.tables[*table].get(*rid).map(|row| row[pk].clone()));
                    add(*table, &mut key.into_iter());
                }
                UndoOp::Update { table, old_row, new_row, .. } => {
                    let pk = self.tables[*table].schema().primary_key();
                    let keys = pk.map(|pk| {
                        let old = old_row[pk].clone();
                        let renamed = (old_row[pk] != new_row[pk]).then(|| new_row[pk].clone());
                        (old, renamed)
                    });
                    match keys {
                        Some((old, renamed)) => {
                            add(*table, &mut std::iter::once(old).chain(renamed))
                        }
                        None => add(*table, &mut std::iter::empty()),
                    }
                }
                UndoOp::Delete { table, old_row, .. } => {
                    let pk = self.tables[*table].schema().primary_key();
                    let key = pk.map(|pk| old_row[pk].clone());
                    add(*table, &mut key.into_iter());
                }
            }
        }
        per.into_iter().map(|(table, rows)| TableWrites { table, rows }).collect()
    }

    /// Names of all tables, in creation order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.schema().name()).collect()
    }

    /// Immutable access to a table.
    ///
    /// # Errors
    ///
    /// Fails when the table does not exist.
    pub fn table(&self, name: &str) -> SqlResult<&Table> {
        self.by_name
            .get(name)
            .map(|i| self.tables[*i].as_ref())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Mutable access to a table (used by the executor and by bulk loaders).
    ///
    /// # Errors
    ///
    /// Fails when the table does not exist.
    pub fn table_mut(&mut self, name: &str) -> SqlResult<&mut Table> {
        match self.by_name.get(name) {
            Some(i) => Ok(Arc::make_mut(&mut self.tables[*i])),
            None => Err(SqlError::UnknownTable(name.to_string())),
        }
    }

    /// Loads rows in bulk: `load` inserts them through [`BulkLoad::insert`],
    /// which does all of [`Table::insert`]'s work except the
    /// secondary-index pushes. When the scope ends — returning `Ok` or
    /// `Err`, or unwinding — each index it touched is built once from a
    /// stable sort of its deferred `(key, row id)` pairs, so every table
    /// ends exactly as per-row inserts would have left it: same slots,
    /// free list, keys, auto-increment counter and posting order, and
    /// complete indexes for every row that was stored before an error.
    ///
    /// The loader borrows the database mutably, so nothing can read the
    /// half-indexed tables while the scope is open. Like inserts through
    /// [`table_mut`](Self::table_mut), bulk-loaded rows bypass the undo
    /// log, the rewind journal and the caches; benchmark population is
    /// the intended caller.
    ///
    /// # Errors
    ///
    /// Returns whatever `load` returns.
    ///
    /// ```
    /// use dynamid_sqldb::{Database, TableSchema, ColumnType, Value};
    /// let mut db = Database::new();
    /// db.create_table(
    ///     TableSchema::builder("users")
    ///         .column("id", ColumnType::Int)
    ///         .column("name", ColumnType::Str)
    ///         .primary_key("id")
    ///         .auto_increment()
    ///         .index("name")
    ///         .build()?,
    /// )?;
    /// db.bulk_load(|load| {
    ///     for name in ["bob", "ann", "bob"] {
    ///         load.insert("users", vec![Value::Null, Value::str(name)])?;
    ///     }
    ///     Ok(())
    /// })?;
    /// assert_eq!(db.table("users")?.index_lookup(1, &Value::str("bob")), vec![0, 2]);
    /// # Ok::<(), dynamid_sqldb::SqlError>(())
    /// ```
    pub fn bulk_load<T>(
        &mut self,
        load: impl FnOnce(&mut BulkLoad<'_>) -> SqlResult<T>,
    ) -> SqlResult<T> {
        let pending =
            self.tables.iter().map(|t| vec![Vec::new(); t.schema().indexes().len()]).collect();
        load(&mut BulkLoad { db: self, pending })
    }

    /// Opens a transaction. Subsequent statements record undo entries until
    /// [`commit_txn`](Self::commit_txn) or [`rollback_txn`](Self::rollback_txn).
    ///
    /// # Errors
    ///
    /// Fails with [`SqlError::Transaction`] when a transaction is already
    /// open — the engine does not nest transactions.
    pub fn begin_txn(&mut self) -> SqlResult<()> {
        if self.txn.is_some() {
            return Err(SqlError::Transaction("BEGIN while a transaction is open".into()));
        }
        self.txn = Some(TxnLog::default());
        Ok(())
    }

    /// `true` while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Commits the open transaction, keeping its writes, and returns the
    /// undo log as the transaction's write receipt (`None` when no
    /// transaction was open — a bare `COMMIT` is a no-op, as in MySQL).
    ///
    /// With the rewind journal armed, the committed ops are also absorbed
    /// into the journal. Host-side mutation is strictly sequential (one
    /// transaction open at a time, executed eagerly), so absorbing at
    /// commit keeps the journal in exact execution order.
    pub fn commit_txn(&mut self) -> Option<TxnLog> {
        let log = self.txn.take()?;
        if let Some(journal) = self.journal.as_mut() {
            journal.extend_cloned(&log);
        }
        // The commit publishes the transaction's writes: drop every cache
        // entry its write-set invalidates.
        if self.caches.is_some() && !log.is_empty() {
            let writes = self.write_set(&log);
            self.invalidate(&writes);
        }
        Some(log)
    }

    /// Rolls back the open transaction, restoring the exact pre-`BEGIN`
    /// state. A bare `ROLLBACK` with no open transaction is a no-op.
    ///
    /// Journal-neutral: an open transaction's ops were never absorbed into
    /// the rewind journal, so undoing them here nets out to zero.
    pub fn rollback_txn(&mut self) {
        if let Some(log) = self.txn.take() {
            self.apply_undo_log(log);
        }
    }

    /// Applies an undo log in reverse against the current tables. Used by
    /// [`rollback_txn`](Self::rollback_txn) and by hosts that unwind a
    /// transaction whose log was already taken (e.g. an aborted in-flight
    /// request whose receipt travelled with the request).
    ///
    /// When the rewind journal is armed, the receipt being unwound here was
    /// already absorbed at commit, and undo application is not exactly
    /// invertible out of order (free-list and slot-vector layout can
    /// diverge), so this poisons the journal: the next
    /// [`rewind`](Self::rewind) reports the database unrecoverable and the
    /// caller re-forks.
    pub fn apply_rollback(&mut self, log: TxnLog) {
        if self.journal.is_some() {
            self.journal_dirty = true;
        }
        // Unwinding reverts the data the dependent cache entries were
        // computed from: purge them. A coherence flush, not an
        // invalidation — aborts are deliberately not counted (and, unlike
        // commits, flush even under TTL invalidation: the receipt's writes
        // are disappearing, not being published).
        if let Some(caches) = self.caches.as_mut() {
            let writes: Vec<TableWrites> = log
                .touched_tables()
                .into_iter()
                .map(|table| TableWrites { table, rows: None })
                .collect();
            caches.query.purge(&writes);
            caches.method.purge(&writes);
        }
        self.apply_undo_log(log);
    }

    /// Arms the rewind journal: from this point on, every surviving row
    /// mutation is recorded so [`rewind`](Self::rewind) can restore the
    /// current table state byte-exactly. Re-arming resets the journal.
    ///
    /// The harness uses this to reuse one database fork across many sweep
    /// points instead of paying a full copy-on-write table clone (and drop)
    /// per point.
    pub fn begin_rewind(&mut self) {
        self.journal = Some(TxnLog::default());
        self.journal_dirty = false;
    }

    /// Disarms the rewind journal without restoring anything.
    pub fn end_rewind(&mut self) {
        self.journal = None;
        self.journal_dirty = false;
    }

    /// Restores the table state captured by the last
    /// [`begin_rewind`](Self::begin_rewind) by applying the journal in
    /// reverse, then re-arms the journal. Returns `false` (leaving the
    /// database untouched) when an un-journalable mutation poisoned the
    /// journal — the caller must discard this instance and re-fork.
    ///
    /// The statement and plan caches and all statistics are deliberately
    /// left alone: statement cost is a pure function of per-query counters,
    /// never of plan-cache warmth, so a rewound database drives
    /// byte-identical experiments while keeping its warm plan cache. Cached
    /// query results and façade values are dropped, since the data they
    /// were computed from reverts.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is still open.
    pub fn rewind(&mut self) -> bool {
        assert!(self.txn.is_none(), "rewind with a transaction open");
        if self.journal_dirty {
            return false;
        }
        if let Some(log) = self.journal.take() {
            self.apply_undo_log(log);
            self.journal = Some(TxnLog::default());
        }
        // Rewinding reverts the data wholesale; values cached since the
        // journal was armed would be stale against it.
        if let Some(caches) = self.caches.as_mut() {
            caches.query.clear();
            caches.method.clear();
        }
        true
    }

    /// Number of row mutations currently recorded in the rewind journal
    /// (diagnostics).
    pub fn rewind_journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, TxnLog::len)
    }

    fn apply_undo_log(&mut self, log: TxnLog) {
        for op in log.into_ops().into_iter().rev() {
            match op {
                UndoOp::Insert { table, rid, new_slot, prev_next_auto, post_next_auto } => {
                    Arc::make_mut(&mut self.tables[table]).undo_insert(
                        rid,
                        new_slot,
                        prev_next_auto,
                        post_next_auto,
                    );
                }
                UndoOp::Update { table, rid, old_row, new_row, sec_pos } => {
                    Arc::make_mut(&mut self.tables[table])
                        .undo_update(rid, old_row, new_row, &sec_pos);
                }
                UndoOp::Delete { table, rid, old_row, sec_pos } => {
                    Arc::make_mut(&mut self.tables[table]).undo_delete(rid, old_row, &sec_pos);
                }
            }
        }
    }

    /// `true` when both databases hold byte-identical table data (schemas,
    /// rows, slot layout, free lists, indexes, and auto-increment counters).
    /// Caches and statistics are ignored — this is the rollback oracle:
    /// after `BEGIN … ROLLBACK` the database must compare equal to a
    /// [`deep_clone`](Self::deep_clone) taken at `BEGIN`.
    pub fn same_data(&self, other: &Database) -> bool {
        self.by_name == other.by_name
            && self.tables.len() == other.tables.len()
            && self.tables.iter().zip(&other.tables).all(|(a, b)| **a == **b)
    }

    /// Inserts a row into table `id`, recording undo information when a
    /// transaction is open. All executor insert paths go through here.
    pub(crate) fn insert_into(
        &mut self,
        id: usize,
        row: Vec<Value>,
    ) -> SqlResult<(RowId, Option<i64>)> {
        let recording = self.txn.is_some() || self.journal.is_some();
        let table = Arc::make_mut(&mut self.tables[id]);
        if !recording {
            return table.insert(row);
        }
        let prev_next_auto = table.next_auto();
        let len_before = table.slot_count();
        let (rid, assigned) = table.insert(row)?;
        let post_next_auto = table.next_auto();
        self.record_undo(UndoOp::Insert {
            table: id,
            rid,
            new_slot: rid == len_before,
            prev_next_auto,
            post_next_auto,
        });
        Ok((rid, assigned))
    }

    /// Routes one undo record to the open transaction's log, or — for
    /// auto-commit writes — straight into the armed rewind journal.
    fn record_undo(&mut self, op: UndoOp) {
        match self.txn.as_mut() {
            Some(txn) => txn.record(op),
            None => {
                if let Some(journal) = self.journal.as_mut() {
                    journal.record(op);
                }
            }
        }
    }

    /// Replaces the row at `rid` in table `id`, recording the pre-image
    /// when a transaction is open. All executor update paths go through
    /// here.
    pub(crate) fn update_row(
        &mut self,
        id: usize,
        rid: RowId,
        new_row: Vec<Value>,
    ) -> SqlResult<()> {
        let recording = self.txn.is_some() || self.journal.is_some();
        let table = Arc::make_mut(&mut self.tables[id]);
        if !recording {
            return table.update(rid, new_row);
        }
        let old_row = table.get(rid).map(<[Value]>::to_vec);
        let sec_pos = if old_row.is_some() { table.sec_positions(rid) } else { Vec::new() };
        let post_image = new_row.clone();
        table.update(rid, new_row)?;
        if let Some(old_row) = old_row {
            self.record_undo(UndoOp::Update {
                table: id,
                rid,
                old_row,
                new_row: post_image,
                sec_pos,
            });
        }
        Ok(())
    }

    /// Deletes the row at `rid` in table `id`, recording the pre-image when
    /// a transaction is open. All executor delete paths go through here.
    pub(crate) fn delete_row(&mut self, id: usize, rid: RowId) -> SqlResult<Vec<Value>> {
        let recording = self.txn.is_some() || self.journal.is_some();
        let table = Arc::make_mut(&mut self.tables[id]);
        if !recording {
            return table.delete(rid);
        }
        let sec_pos = if table.get(rid).is_some() { table.sec_positions(rid) } else { Vec::new() };
        let old_row = table.delete(rid)?;
        self.record_undo(UndoOp::Delete { table: id, rid, old_row: old_row.clone(), sec_pos });
        Ok(old_row)
    }

    /// A fully materialized copy: every table's rows and indexes are
    /// duplicated up front instead of shared copy-on-write. Only useful as
    /// the baseline in snapshot benchmarks; `Database::clone` is the cheap
    /// O(tables) fork every caller should prefer.
    pub fn deep_clone(&self) -> Database {
        let mut copy = self.clone();
        for t in &mut copy.tables {
            *t = Arc::new((**t).clone());
        }
        copy
    }

    /// Executes one SQL statement with positional `?` parameters.
    ///
    /// Statements are compiled once per SQL text and schema version: the
    /// first execution parses, resolves names, and selects an access-path
    /// shape; repeat executions bind parameters into the cached
    /// [`CompiledStmt`] and run directly. DDL bumps the schema version,
    /// which lazily invalidates stale plans. The parsed-statement (AST)
    /// cache survives plan invalidation, so recompilation after DDL skips
    /// the parser.
    ///
    /// # Errors
    ///
    /// Any parse, resolution, type, or constraint error. Failed parses and
    /// failed compilations are never cached.
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> SqlResult<QueryResult> {
        // Transaction control is free: it neither touches the caches nor
        // counts against any [`DbStats`] counter, so wrapping a statement
        // sequence in BEGIN/COMMIT leaves the statistics byte-identical to
        // running it in auto-commit mode.
        if let Some(kind) = txn_control(sql) {
            return self.exec_txn_control(kind);
        }
        self.stats.statements += 1;

        match self.plan_cache.get(sql) {
            Some(plan) if plan.version == self.schema_version => {
                self.stats.cache_hits += 1;
                self.stats.plan_cache_hits += 1;
                let plan = Arc::clone(plan);
                return self.run_plan(&plan, params);
            }
            Some(_) => {
                self.plan_cache.remove(sql);
                self.stats.plan_invalidations += 1;
            }
            None => {}
        }
        self.stats.plan_cache_misses += 1;

        let stmt = match self.stmt_cache.get(sql) {
            Some(s) => {
                self.stats.cache_hits += 1;
                Arc::clone(s)
            }
            None => {
                let parsed = match parse(sql) {
                    Ok(p) => Arc::new(p),
                    Err(e) => {
                        self.stats.errors += 1;
                        return Err(e);
                    }
                };
                self.stmt_cache.insert(sql.to_string(), Arc::clone(&parsed));
                parsed
            }
        };
        let mut plan = match compile(self, &stmt) {
            Ok(p) => p,
            Err(e) => {
                self.stats.errors += 1;
                return Err(e);
            }
        };
        // Mint the plan's query-cache id as it enters the plan cache; a
        // recompiled (DDL-invalidated) plan gets a fresh id, orphaning any
        // entries of the old one until LRU ages them out.
        self.next_plan_id += 1;
        plan.id = self.next_plan_id;
        let plan = Arc::new(plan);
        self.plan_cache.insert(sql.to_string(), Arc::clone(&plan));
        self.run_plan(&plan, params)
    }

    /// Executes a cached plan, consulting the query cache for SELECTs.
    ///
    /// The cache sits *after* all statement/plan-cache bookkeeping and
    /// stores the complete [`QueryResult`] (rows and modeled
    /// [`QueryCounters`] alike), so with transactional invalidation every
    /// counter visible to the cost model and every [`DbStats`] field stays
    /// byte-identical to running with the cache off.
    fn run_plan(&mut self, plan: &Arc<CompiledStmt>, params: &[Value]) -> SqlResult<QueryResult> {
        let mut store: Option<(CacheKey, Vec<usize>)> = None;
        if let Some(caches) = self.caches.as_mut() {
            if let Some(ids) = plan.read_table_ids() {
                if self.txn.as_ref().is_some_and(|t| t.touches(&ids)) {
                    // The open transaction wrote one of the read tables: a
                    // cached (committed-state) result would hide its own
                    // uncommitted writes. Skip both lookup and store.
                    caches.query.count_bypass();
                } else {
                    let key = CacheKey::from_values(params);
                    // The read tables were checked above: never a bypass.
                    match caches.query.lookup(&(plan.id, key.clone()), caches.clock, |_| false) {
                        Lookup::Hit(hit) => return Ok(hit),
                        Lookup::Miss | Lookup::Bypass => store = Some((key, ids)),
                    }
                }
            }
        }
        let result = match exec_compiled(self, plan, params) {
            Ok(r) => r,
            Err(e) => {
                self.stats.errors += 1;
                return Err(e);
            }
        };
        if let Some((key, ids)) = store {
            let pk = plan.pk_point(self, params);
            if let Some(caches) = self.caches.as_mut() {
                caches.query.store((plan.id, key), result.clone(), ids, pk, caches.clock);
            }
        } else if result.kind == StatementKind::Write && self.txn.is_none() && self.caches.is_some()
        {
            // An auto-commit write is an immediate commit. There is no undo
            // log to attribute rows from, so invalidate coarsely by table.
            let writes: Vec<TableWrites> = result
                .write_tables
                .iter()
                .filter_map(|n| self.by_name.get(n).copied())
                .map(|table| TableWrites { table, rows: None })
                .collect();
            self.invalidate(&writes);
        }
        Ok(result)
    }

    /// CPU microseconds the database machine should be charged for a
    /// statement with the given counters.
    pub fn statement_cost(&self, counters: &QueryCounters) -> u64 {
        self.cost.cost_micros(counters)
    }

    pub(crate) fn exec_txn_control(&mut self, kind: StatementKind) -> SqlResult<QueryResult> {
        match kind {
            StatementKind::Begin => self.begin_txn()?,
            StatementKind::Commit => {
                self.commit_txn();
            }
            StatementKind::Rollback => self.rollback_txn(),
            _ => unreachable!("not a transaction-control kind"),
        }
        Ok(QueryResult::empty(kind))
    }
}

/// Recognizes `BEGIN` / `START TRANSACTION` / `COMMIT` / `ROLLBACK` without
/// going through the parser, so `execute` can dispatch transaction control
/// before any statistics or cache accounting.
fn txn_control(sql: &str) -> Option<StatementKind> {
    let t = sql.trim().trim_end_matches(';').trim_end();
    if t.eq_ignore_ascii_case("begin") {
        return Some(StatementKind::Begin);
    }
    if t.eq_ignore_ascii_case("commit") {
        return Some(StatementKind::Commit);
    }
    if t.eq_ignore_ascii_case("rollback") {
        return Some(StatementKind::Rollback);
    }
    let mut words = t.split_whitespace();
    if words.next().is_some_and(|w| w.eq_ignore_ascii_case("start"))
        && words.next().is_some_and(|w| w.eq_ignore_ascii_case("transaction"))
        && words.next().is_none()
    {
        return Some(StatementKind::Begin);
    }
    None
}

/// The open scope of a [`Database::bulk_load`].
#[derive(Debug)]
pub struct BulkLoad<'a> {
    db: &'a mut Database,
    /// Per table, per secondary index: the deferred `(key, row id)` pushes
    /// in insertion order.
    pending: Vec<Vec<Vec<(Value, RowId)>>>,
}

impl BulkLoad<'_> {
    /// Inserts a row into `table`, exactly as [`Table::insert`] does
    /// except that the secondary-index pushes wait for the end of the
    /// scope. Returns the row id and the auto-assigned key, if any.
    ///
    /// # Errors
    ///
    /// Fails when the table does not exist, and otherwise exactly when
    /// [`Table::insert`] would, leaving the table as that failure would.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> SqlResult<(RowId, Option<i64>)> {
        let id = self.db.table_id(table)?;
        Arc::make_mut(&mut self.db.tables[id]).insert_deferred(row, &mut self.pending[id])
    }
}

/// The end of the scope: builds every index the scope deferred pushes to.
impl Drop for BulkLoad<'_> {
    fn drop(&mut self) {
        for (table, pending) in self.db.tables.iter_mut().zip(std::mem::take(&mut self.pending)) {
            if pending.iter().any(|run| !run.is_empty()) {
                Arc::make_mut(table).build_deferred(pending);
            }
        }
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheInvalidation;
    use crate::exec::StatementKind;
    use crate::schema::ColumnType;

    fn db_with_users() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("users")
                .column("id", ColumnType::Int)
                .column("nickname", ColumnType::Str)
                .column("region", ColumnType::Int)
                .column("rating", ColumnType::Int)
                .primary_key("id")
                .auto_increment()
                .index("region")
                .build()
                .unwrap(),
        )
        .unwrap();
        for (nick, region, rating) in [("ann", 1, 5), ("bob", 1, 3), ("cat", 2, 9), ("dee", 3, 1)] {
            db.execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, ?, ?, ?)",
                &[Value::str(nick), Value::Int(region), Value::Int(rating)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut db = db_with_users();
        let r =
            db.execute("SELECT nickname FROM users WHERE region = ?", &[Value::Int(1)]).unwrap();
        let mut names: Vec<&str> = r.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["ann", "bob"]);
        assert_eq!(r.kind, StatementKind::Read);
        assert_eq!(r.read_tables, vec!["users"]);
        // Used the secondary index: 2 rows examined, not 4.
        assert_eq!(r.counters.rows_examined, 2);
        assert_eq!(r.counters.index_lookups, 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_users();
        let err = db
            .create_table(
                TableSchema::builder("users").column("id", ColumnType::Int).build().unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, SqlError::TableExists(_)));
    }

    #[test]
    fn update_and_delete_affect_counts() {
        let mut db = db_with_users();
        let r = db.execute("UPDATE users SET rating = rating + 1 WHERE region = 1", &[]).unwrap();
        assert_eq!(r.affected, 2);
        assert_eq!(r.write_tables, vec!["users"]);
        let r = db.execute("SELECT rating FROM users WHERE nickname = 'ann'", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(6));
        // Ratings now: ann=6, bob=4, cat=9, dee=1.
        let r = db.execute("DELETE FROM users WHERE rating < 4", &[]).unwrap();
        assert_eq!(r.affected, 1);
        let r = db.execute("SELECT COUNT(*) FROM users", &[]).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn last_insert_id_flows_through() {
        let mut db = db_with_users();
        let r = db
            .execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'eve', 2, 2)",
                &[],
            )
            .unwrap();
        assert_eq!(r.last_insert_id, Some(5));
    }

    #[test]
    fn statement_cache_hits() {
        let mut db = db_with_users();
        let before = db.stats();
        for i in 0..5 {
            db.execute("SELECT * FROM users WHERE id = ?", &[Value::Int(i + 1)]).unwrap();
        }
        let after = db.stats();
        assert_eq!(after.statements - before.statements, 5);
        assert_eq!(after.cache_hits - before.cache_hits, 4);
    }

    #[test]
    fn lock_statements_classified() {
        let mut db = db_with_users();
        let r = db.execute("LOCK TABLES users WRITE", &[]).unwrap();
        match r.kind {
            StatementKind::LockTables(l) => {
                assert_eq!(l, vec![("users".to_string(), crate::ast::TableLockKind::Write)]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let r = db.execute("UNLOCK TABLES", &[]).unwrap();
        assert_eq!(r.kind, StatementKind::UnlockTables);
        // Locking a missing table errors.
        assert!(db.execute("LOCK TABLES nope WRITE", &[]).is_err());
    }

    #[test]
    fn errors_are_counted_and_reported() {
        let mut db = db_with_users();
        assert!(db.execute("SELEKT * FROM users", &[]).is_err());
        assert!(db.execute("SELECT * FROM missing", &[]).is_err());
        assert!(db.execute("SELECT * FROM users WHERE id = ?", &[]).is_err());
        assert_eq!(db.stats().errors, 3);
    }

    #[test]
    fn table_names_in_order() {
        let db = db_with_users();
        assert_eq!(db.table_names(), vec!["users"]);
    }

    #[test]
    fn cow_snapshots_isolate_writes() {
        let base = db_with_users();
        let mut fork_a = base.clone();
        let mut fork_b = base.clone();
        fork_a.execute("UPDATE users SET rating = 100 WHERE nickname = 'ann'", &[]).unwrap();
        fork_b.execute("DELETE FROM users WHERE nickname = 'bob'", &[]).unwrap();
        // Each fork sees only its own write; the shared base sees neither.
        let rating = |db: &mut Database| {
            db.execute("SELECT rating FROM users WHERE nickname = 'ann'", &[])
                .unwrap()
                .scalar()
                .cloned()
        };
        assert_eq!(rating(&mut fork_a), Some(Value::Int(100)));
        assert_eq!(rating(&mut fork_b), Some(Value::Int(5)));
        assert_eq!(rating(&mut base.clone()), Some(Value::Int(5)));
        assert_eq!(fork_a.table("users").unwrap().row_count(), 4);
        assert_eq!(fork_b.table("users").unwrap().row_count(), 3);
        assert_eq!(base.table("users").unwrap().row_count(), 4);
    }

    #[test]
    fn deep_clone_matches_cow_fork() {
        let base = db_with_users();
        let mut deep = base.deep_clone();
        let mut cow = base.clone();
        let q = "SELECT id, nickname, region, rating FROM users ORDER BY id";
        assert_eq!(deep.execute(q, &[]).unwrap(), cow.execute(q, &[]).unwrap());
    }

    #[test]
    fn rollback_restores_exact_pre_begin_state() {
        let mut db = db_with_users();
        let baseline = db.deep_clone();
        db.execute("BEGIN", &[]).unwrap();
        assert!(db.in_txn());
        db.execute(
            "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'eve', 2, 2)",
            &[],
        )
        .unwrap();
        db.execute("UPDATE users SET rating = rating + 10 WHERE region = 1", &[]).unwrap();
        db.execute("DELETE FROM users WHERE nickname = 'cat'", &[]).unwrap();
        assert!(!db.same_data(&baseline));
        db.execute("ROLLBACK", &[]).unwrap();
        assert!(!db.in_txn());
        assert!(db.same_data(&baseline));
        // The next auto-increment id is also restored.
        let r = db
            .execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'fay', 3, 1)",
                &[],
            )
            .unwrap();
        assert_eq!(r.last_insert_id, Some(5));
    }

    #[test]
    fn txn_control_is_stats_and_cache_neutral() {
        let mut db = db_with_users();
        let before = db.stats();
        db.execute("BEGIN", &[]).unwrap();
        db.execute("COMMIT", &[]).unwrap();
        db.execute("start transaction", &[]).unwrap();
        db.execute("ROLLBACK;", &[]).unwrap();
        db.execute("rollback", &[]).unwrap(); // bare ROLLBACK is a no-op
        db.execute("commit", &[]).unwrap(); // bare COMMIT too
        assert_eq!(db.stats(), before);
    }

    #[test]
    fn nested_begin_is_rejected() {
        let mut db = db_with_users();
        db.execute("BEGIN", &[]).unwrap();
        let err = db.execute("BEGIN", &[]).unwrap_err();
        assert!(matches!(err, SqlError::Transaction(_)));
        db.execute("ROLLBACK", &[]).unwrap();
    }

    #[test]
    fn commit_keeps_writes_and_returns_receipt() {
        let mut db = db_with_users();
        db.begin_txn().unwrap();
        db.execute(
            "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'eve', 2, 2)",
            &[],
        )
        .unwrap();
        let log = db.commit_txn().expect("open transaction");
        assert_eq!(log.len(), 1);
        let users = db.table_id("users").unwrap();
        assert_eq!(log.row_deltas(), vec![(users, 1)]);
        let r = db.execute("SELECT COUNT(*) FROM users", &[]).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(5)));
    }

    #[test]
    fn deferred_rollback_never_reuses_observed_auto_ids() {
        let mut db = db_with_users();
        db.begin_txn().unwrap();
        db.execute(
            "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'eve', 2, 2)",
            &[],
        )
        .unwrap();
        let log = db.commit_txn().expect("open transaction");
        // Another client inserts (auto-commit) before the first transaction
        // is unwound — its id must not be reissued after the rollback.
        let r = db
            .execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'fay', 3, 1)",
                &[],
            )
            .unwrap();
        assert_eq!(r.last_insert_id, Some(6));
        db.apply_rollback(log);
        assert_eq!(db.table("users").unwrap().row_count(), 5);
        let r = db
            .execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'gil', 1, 4)",
                &[],
            )
            .unwrap();
        assert_eq!(r.last_insert_id, Some(7));
    }

    fn txn_cache() -> CachePolicy {
        CachePolicy { capacity: 64, invalidation: CacheInvalidation::Transactional }
    }

    /// Two-table fixture: `users` (as in [`db_with_users`]) plus a `tags`
    /// table, both populated before any plan is compiled so DDL does not
    /// invalidate cached plans mid-test.
    fn db_with_users_and_tags() -> Database {
        let mut db = db_with_users();
        db.create_table(
            TableSchema::builder("tags")
                .column("id", ColumnType::Int)
                .column("label", ColumnType::Str)
                .primary_key("id")
                .auto_increment()
                .build()
                .unwrap(),
        )
        .unwrap();
        for label in ["new", "used"] {
            db.execute("INSERT INTO tags (id, label) VALUES (NULL, ?)", &[Value::str(label)])
                .unwrap();
        }
        db
    }

    #[test]
    fn result_cache_hit_returns_identical_result() {
        let mut db = db_with_users();
        db.enable_caching(txn_cache());
        let sql = "SELECT nickname FROM users WHERE region = ?";
        let first = db.execute(sql, &[Value::Int(1)]).unwrap();
        let second = db.execute(sql, &[Value::Int(1)]).unwrap();
        // The hit is the complete stored result — rows AND counters.
        assert_eq!(first, second);
        let s = db.cache_stats().query;
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(db.query_cache_len(), 1);
        // Different parameters are a different key.
        let other = db.execute(sql, &[Value::Int(2)]).unwrap();
        assert_eq!(other.rows.len(), 1);
        assert_eq!(db.cache_stats().query.misses, 2);
    }

    #[test]
    fn result_cache_bypassed_only_for_touched_tables() {
        let mut db = db_with_users_and_tags();
        db.enable_caching(txn_cache());
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 0 WHERE id = 1", &[]).unwrap();
        // Read of the table this transaction wrote: bypassed, not cached.
        db.execute("SELECT rating FROM users WHERE id = 1", &[]).unwrap();
        assert_eq!(db.cache_stats().query.bypasses, 1);
        assert_eq!(db.query_cache_len(), 0);
        // Read of an untouched table: served from / stored into the cache.
        db.execute("SELECT label FROM tags WHERE id = 1", &[]).unwrap();
        db.execute("SELECT label FROM tags WHERE id = 1", &[]).unwrap();
        let s = db.cache_stats().query;
        assert_eq!((s.hits, s.misses), (1, 1));
        db.commit_txn();
    }

    #[test]
    fn method_cache_bypass_follows_the_stored_entry_tables() {
        let mut db = db_with_users_and_tags();
        db.enable_caching(txn_cache());
        let (users, tags) = (db.table_index("users").unwrap(), db.table_index("tags").unwrap());
        let key = CacheKey::from_values(&[Value::Int(1)]);
        db.store_method("Users.view", key.clone(), Arc::new(5i64), vec![users]);
        db.store_method("Tags.view", key.clone(), Arc::new(7i64), vec![tags]);
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 0 WHERE id = 1", &[]).unwrap();
        // The stored entry's tables decide: `users` was written, `tags` not.
        assert!(matches!(db.lookup_method("Users.view", &key), Lookup::Bypass));
        match db.lookup_method("Tags.view", &key) {
            Lookup::Hit(v) => assert_eq!(v.downcast_ref::<i64>(), Some(&7)),
            _ => panic!("untouched dependency must hit"),
        }
        // Without an entry there are no tables to check: a plain miss, and
        // a value computed from a written table is not stored.
        assert!(matches!(db.lookup_method("Users.list", &key), Lookup::Miss));
        db.store_method("Users.list", key.clone(), Arc::new(1i64), vec![users]);
        assert_eq!(db.method_cache_len(), 2);
        let s = db.cache_stats().method;
        assert_eq!((s.hits, s.misses, s.bypasses), (1, 1, 1));
        // The commit drops the `users` entry (per table) and counts it.
        db.commit_txn().unwrap();
        assert_eq!(db.cache_stats().method.invalidations, 1);
        assert_eq!(db.method_cache_len(), 1);
    }

    #[test]
    fn commit_invalidates_dependent_entries() {
        let mut db = db_with_users();
        db.enable_caching(txn_cache());
        let sql = "SELECT rating FROM users WHERE region = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.query_cache_len(), 1);
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 99 WHERE id = 1", &[]).unwrap();
        // Uncommitted writes invalidate nothing.
        assert_eq!(db.cache_stats().query.invalidations, 0);
        db.commit_txn().unwrap();
        assert_eq!(db.cache_stats().query.invalidations, 1);
        let fresh = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert!(fresh.rows.iter().any(|r| r[0] == Value::Int(99)));
        assert_eq!(db.cache_stats().query.hits, 0);
    }

    #[test]
    fn pk_point_entries_survive_writes_to_other_rows() {
        let mut db = db_with_users();
        db.enable_caching(txn_cache());
        let sql = "SELECT nickname FROM users WHERE id = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        db.execute(sql, &[Value::Int(2)]).unwrap();
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET nickname = 'rob' WHERE id = 2", &[]).unwrap();
        db.commit_txn().unwrap();
        // Only the row-2 entry is invalidated; row 1 still hits.
        assert_eq!(db.cache_stats().query.invalidations, 1);
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.cache_stats().query.hits, 1);
        let r = db.execute(sql, &[Value::Int(2)]).unwrap();
        assert_eq!(r.rows[0][0], Value::str("rob"));
        assert_eq!(db.cache_stats().query.hits, 1);
    }

    #[test]
    fn renamed_primary_key_invalidates_old_and_new_key() {
        let mut db = db_with_users();
        db.enable_caching(txn_cache());
        let sql = "SELECT nickname FROM users WHERE id = ?";
        // Point reads of rows 1 and 2, and of the empty id 7.
        for id in [1, 2, 7] {
            db.execute(sql, &[Value::Int(id)]).unwrap();
        }
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET id = 7 WHERE id = 1", &[]).unwrap();
        db.commit_txn().unwrap();
        // The write-set names both the old key and the new one.
        assert_eq!(db.cache_stats().query.invalidations, 2);
        db.execute(sql, &[Value::Int(2)]).unwrap();
        assert_eq!(db.cache_stats().query.hits, 1);
        let moved = db.execute(sql, &[Value::Int(7)]).unwrap();
        assert_eq!(moved.rows, vec![vec![Value::str("ann")]]);
        assert!(db.execute(sql, &[Value::Int(1)]).unwrap().rows.is_empty());
        assert_eq!(db.cache_stats().query.hits, 1);
    }

    #[test]
    fn rollback_leaves_cache_coherent_and_uncounted() {
        let mut db = db_with_users();
        db.enable_caching(txn_cache());
        let sql = "SELECT rating FROM users WHERE id = ?";
        let before = db.execute(sql, &[Value::Int(1)]).unwrap();
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 99 WHERE id = 1", &[]).unwrap();
        db.rollback_txn();
        // The write never committed: no invalidation, and the cached entry
        // still matches the (restored) table state.
        assert_eq!(db.cache_stats().query.invalidations, 0);
        let after = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(before, after);
        assert_eq!(db.cache_stats().query.hits, 1);
    }

    #[test]
    fn apply_rollback_purges_without_counting() {
        let mut db = db_with_users();
        db.enable_caching(txn_cache());
        let sql = "SELECT rating FROM users WHERE id = ?";
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 99 WHERE id = 1", &[]).unwrap();
        let receipt = db.commit_txn().unwrap();
        // Cached against the committed (rating = 99) state.
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.query_cache_len(), 1);
        let counted = db.cache_stats().query.invalidations;
        db.apply_rollback(receipt);
        // The entry is purged (its data reverted) but the abort is not an
        // invalidation event.
        assert_eq!(db.query_cache_len(), 0);
        assert_eq!(db.cache_stats().query.invalidations, counted);
        let r = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(5));
    }

    #[test]
    fn ttl_expires_by_cache_clock_and_ignores_commits() {
        let mut db = db_with_users();
        db.enable_caching(CachePolicy {
            capacity: 64,
            invalidation: CacheInvalidation::Ttl(1_000),
        });
        let sql = "SELECT rating FROM users WHERE id = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        // Within the TTL a commit does NOT invalidate: the hit is stale.
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 99 WHERE id = 1", &[]).unwrap();
        db.commit_txn().unwrap();
        db.set_cache_clock(500);
        let stale = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(stale.rows[0][0], Value::Int(5));
        assert_eq!(db.cache_stats().query.invalidations, 0);
        // Past the TTL the entry expires and the fresh value is read.
        db.set_cache_clock(2_000);
        let fresh = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(fresh.rows[0][0], Value::Int(99));
    }

    #[test]
    fn ttl_zero_is_equivalent_to_cache_off() {
        let mut db = db_with_users();
        db.enable_caching(CachePolicy { capacity: 64, invalidation: CacheInvalidation::Ttl(0) });
        let sql = "SELECT rating FROM users WHERE id = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.cache_stats().query.hits, 0);
        assert_eq!(db.cache_stats().query.misses, 2);
    }

    #[test]
    fn auto_commit_write_invalidates_immediately() {
        let mut db = db_with_users();
        db.enable_caching(txn_cache());
        let sql = "SELECT rating FROM users WHERE region = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.query_cache_len(), 1);
        // A bare write is its own commit: coarse per-table invalidation.
        db.execute("UPDATE users SET rating = 7 WHERE id = 3", &[]).unwrap();
        assert_eq!(db.cache_stats().query.invalidations, 1);
        assert_eq!(db.query_cache_len(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut db = db_with_users();
        db.enable_caching(CachePolicy {
            capacity: 2,
            invalidation: CacheInvalidation::Transactional,
        });
        let sql = "SELECT nickname FROM users WHERE id = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        db.execute(sql, &[Value::Int(2)]).unwrap();
        // Refresh entry 1, then insert a third: entry 2 is the LRU victim.
        db.execute(sql, &[Value::Int(1)]).unwrap();
        db.execute(sql, &[Value::Int(3)]).unwrap();
        assert_eq!(db.query_cache_len(), 2);
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.cache_stats().query.hits, 2);
        db.execute(sql, &[Value::Int(2)]).unwrap();
        assert_eq!(db.cache_stats().query.hits, 2); // evicted → miss
    }

    #[test]
    fn rewind_clears_result_cache() {
        let mut db = db_with_users();
        db.enable_caching(txn_cache());
        db.begin_rewind();
        db.execute("SELECT nickname FROM users WHERE id = 1", &[]).unwrap();
        assert_eq!(db.query_cache_len(), 1);
        assert!(db.rewind());
        assert_eq!(db.query_cache_len(), 0);
    }

    #[test]
    fn statement_cost_scales_with_counters() {
        let db = db_with_users();
        let small = QueryCounters { rows_examined: 1, ..Default::default() };
        let big = QueryCounters { rows_examined: 100_000, ..Default::default() };
        assert!(db.statement_cost(&big) > db.statement_cost(&small) * 100);
    }
}
