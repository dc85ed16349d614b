//! The request context: the API interaction handlers program against.
//!
//! A [`RequestCtx`] does two things at once:
//!
//! 1. it executes the handler's SQL **for real** against the in-memory
//!    database, so the application sees real data and the database really
//!    changes; and
//! 2. it compiles everything the request *would cost* on the paper's
//!    hardware — driver CPU, wire transfers, MyISAM table locks, database
//!    CPU, HTML generation — into a [`Trace`] that the simulation then
//!    plays against contended resources.
//!
//! Table-locking semantics follow MyISAM: every statement implicitly locks
//! the tables it touches (read or write) for its own duration; an explicit
//! `LOCK TABLES` spans statements until `UNLOCK TABLES`. The database owns
//! that session and refuses, before it runs, any statement the held set
//! does not cover; the context only queues the simulated locks each
//! statement reports.

use crate::app::{AppError, AppResult, LogicStyle};
use crate::cost::{CostModel, GeneratorCosts, StaticAsset};
use crate::deploy::Deployment;
use dynamid_sim::{LockId, LockMode, MachineId, Op, Trace};
use dynamid_sqldb::ast::TableLockKind;
use dynamid_sqldb::{Database, QueryResult, StatementKind, Value};
use dynamid_trace::{SpanDef, SpanKind, SpanRecorder};

/// Per-request accounting, reported alongside the compiled trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestStats {
    /// SQL statements issued (including container-generated ones).
    pub queries: u64,
    /// Total database CPU microseconds charged.
    pub db_micros: u64,
    /// Result rows received.
    pub rows_returned: u64,
    /// Generated HTML bytes.
    pub output_bytes: u64,
    /// Session-façade invocations (EJB style only).
    pub facade_calls: u64,
    /// Entity-bean activations/stores (EJB style only).
    pub bean_accesses: u64,
    /// Locks the context had to force-release at request end (handler bug
    /// or error path).
    pub forced_unlocks: u64,
}

/// Where code is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The dynamic-content generator (PHP in the web server, or the
    /// servlet container).
    Generator,
    /// Inside a session-façade call on the EJB server.
    EjbServer,
}

/// The context handed to interaction handlers.
pub struct RequestCtx<'a> {
    pub(crate) db: &'a mut Database,
    pub(crate) deployment: &'a Deployment,
    pub(crate) costs: &'a CostModel,
    /// The machine this request's SQL costs land on. Defaults to the
    /// deployment's `db` machine; the replication router redirects
    /// read-only interactions to a replica (and every interaction to the
    /// promoted primary after a failover).
    pub(crate) db_machine: MachineId,
    /// The machine the dynamic-content generator runs on for this request.
    /// Defaults to the deployment's route-0 generator; a load-balancer
    /// front end re-points it at the routed web machine for in-process
    /// (PHP) farms before any op is pushed.
    pub(crate) generator_machine: MachineId,
    style: LogicStyle,
    pub(crate) trace: Trace,
    pub(crate) tier: Tier,
    /// Application-level locks held, with a re-entrancy count.
    held_app: Vec<(LockId, u32)>,
    output_bytes: u64,
    capture: Option<String>,
    assets: Vec<StaticAsset>,
    pub(crate) stats: RequestStats,
    /// Span recorder, present only when the middleware was installed with
    /// tracing enabled; every recording helper is a no-op when `None`.
    pub(crate) spans: Option<SpanRecorder>,
    /// Armed by `facade_cached` around a missing façade run: collects the
    /// catalog ids of every table its statements read (the cache entry's
    /// dependency set) and whether anything was written (never cached).
    pub(crate) read_log: Option<ReadLog>,
}

/// Table-dependency log of one façade invocation (see
/// [`RequestCtx::facade_cached`]).
#[derive(Debug, Default)]
pub(crate) struct ReadLog {
    /// Catalog ids of tables read, deduplicated, in first-read order.
    pub(crate) tables: Vec<usize>,
    /// `true` when any statement wrote a table.
    pub(crate) wrote: bool,
}

impl std::fmt::Debug for RequestCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestCtx")
            .field("style", &self.style)
            .field("tier", &self.tier)
            .field("ops", &self.trace.len())
            .field("output_bytes", &self.output_bytes)
            .finish()
    }
}

impl<'a> RequestCtx<'a> {
    /// Creates a context; used by the middleware layer, not applications.
    pub(crate) fn new(
        db: &'a mut Database,
        deployment: &'a Deployment,
        costs: &'a CostModel,
        style: LogicStyle,
        capture_html: bool,
    ) -> Self {
        RequestCtx {
            db,
            deployment,
            costs,
            db_machine: deployment.db_machine(),
            generator_machine: deployment.generator(0),
            style,
            trace: Trace::with_capacity(32),
            tier: Tier::Generator,
            held_app: Vec::new(),
            output_bytes: 0,
            capture: capture_html.then(String::new),
            assets: Vec::new(),
            stats: RequestStats::default(),
            spans: None,
            read_log: None,
        }
    }

    /// Opens a span covering the trace ops pushed from here until the
    /// matching [`span_close`](Self::span_close). Returns the span index
    /// for later annotation, or `None` when tracing is off.
    pub(crate) fn span_open(&mut self, kind: SpanKind, label: &str) -> Option<usize> {
        let at = self.trace.len();
        self.spans.as_mut().map(|s| s.open(kind, label, at))
    }

    /// Closes the innermost open span at the current op position.
    pub(crate) fn span_close(&mut self) {
        let at = self.trace.len();
        if let Some(s) = &mut self.spans {
            s.close(at);
        }
    }

    /// Attaches a plan-cache outcome and/or a modeled cost to `span`.
    pub(crate) fn span_annotate(
        &mut self,
        span: Option<usize>,
        cache_hit: Option<bool>,
        cost_micros: Option<u64>,
    ) {
        if let (Some(s), Some(idx)) = (&mut self.spans, span) {
            s.annotate(idx, cache_hit, cost_micros);
        }
    }

    /// Consumes the recorder, returning the finished span list (empty when
    /// tracing is off).
    ///
    /// # Panics
    ///
    /// Panics when a span is still open — span brackets are a middleware
    /// invariant, so an unbalanced pair is a bug.
    pub(crate) fn take_spans(&mut self) -> Vec<SpanDef> {
        self.spans.take().map(SpanRecorder::finish).unwrap_or_default()
    }

    /// The implementation style the handler must use.
    pub fn style(&self) -> LogicStyle {
        self.style
    }

    /// `true` in the `(sync)` configurations: replace `LOCK TABLES` with
    /// [`app_lock`](Self::app_lock).
    pub fn sync_mode(&self) -> bool {
        self.style.is_sync()
    }

    /// The machine the current tier's code runs on.
    pub(crate) fn current_machine(&self) -> MachineId {
        match self.tier {
            Tier::Generator => self.generator_machine,
            Tier::EjbServer => self.deployment.ejb_machine().expect("EJB tier without EJB machine"),
        }
    }

    /// The generator cost profile for the current architecture/tier: PHP's
    /// native driver in the web-server process; the interpreted JDBC
    /// driver in the servlet container and the EJB server.
    pub(crate) fn gen_costs(&self) -> &GeneratorCosts {
        if self.deployment.config().logic().in_web_process() {
            &self.costs.php
        } else {
            &self.costs.servlet
        }
    }

    /// Executes one SQL statement and charges its full simulated cost:
    /// driver CPU, wire transfer to the database machine, MyISAM table
    /// locks, database CPU, and the reply.
    ///
    /// # Errors
    ///
    /// Database errors, including the constraint error for a statement a
    /// held `LOCK TABLES` set does not cover (MySQL semantics).
    pub fn query(&mut self, sql: &str, params: &[Value]) -> AppResult<QueryResult> {
        // Snapshot the plan-cache counters only when tracing: the diff
        // around `execute` yields this statement's hit/miss outcome. The
        // query-cache hit counter is diffed the same way — a hit switches
        // the modeled cost to the cache-probe path.
        let plan_before = self.spans.is_some().then(|| self.db.stats());
        let rc_before = self.db.caching_enabled().then(|| self.db.cache_stats().query.hits);
        let result = self.db.execute(sql, params).map_err(AppError::Sql)?;
        let rc_hit = rc_before.is_some_and(|before| self.db.cache_stats().query.hits > before);

        self.stats.queries += 1;
        if let Some(log) = self.read_log.as_mut() {
            if !result.write_tables.is_empty() {
                log.wrote = true;
            }
            for &id in &result.read_tables {
                if !log.tables.contains(&id) {
                    log.tables.push(id);
                }
            }
        }

        let span = if rc_hit {
            self.span_open(SpanKind::Cache, "result-cache")
        } else {
            self.span_open(SpanKind::SqlStatement, statement_label(&result.kind))
        };
        let db_before = self.stats.db_micros;
        self.emit_statement(&result, sql, params, rc_hit);
        if let Some(before) = plan_before {
            let outcome =
                if rc_hit { Some(true) } else { self.db.stats().plan_outcome_since(&before) };
            let cost = self.stats.db_micros - db_before;
            self.span_annotate(span, outcome, Some(cost));
            self.span_close();
        }
        Ok(result)
    }

    /// Compiles one executed statement's round trip, passing in only what
    /// its kind changes: the locks it takes or drops, the database cost,
    /// and whether a result set comes back.
    ///
    /// `result_cache_hit` switches a read to the cache-probe cost path:
    /// like MySQL's query cache, the answer is produced before the lock
    /// manager or the executor is consulted, so the statement charges only
    /// the driver round trip plus a flat probe cost — no table locks, no
    /// per-counter execution cost.
    fn emit_statement(
        &mut self,
        result: &QueryResult,
        sql: &str,
        params: &[Value],
        result_cache_hit: bool,
    ) {
        let param_bytes: u64 = params.iter().map(Value::wire_size).sum();
        let req_bytes = CostModel::query_wire_bytes(sql.len(), param_bytes);
        if result_cache_hit {
            debug_assert_eq!(result.kind, StatementKind::Read, "only reads are cached");
            let cost = self.costs.db.result_cache_hit_micros.max(1.0).round() as u64;
            self.round_trip(req_bytes, [], cost, [], Some(&result.counters));
            return;
        }
        let cost = self.costs.db.cost_micros(&result.counters);
        match &result.kind {
            StatementKind::LockTables(list) => {
                let order = self.lock_order(list.iter().copied());
                let locks = order.into_iter().map(|(lock, mode)| Op::Lock { lock, mode });
                self.round_trip(req_bytes, locks, cost, [], None);
            }
            StatementKind::UnlockTables(list) => {
                let order = self.lock_order(list.iter().copied());
                let unlocks = order.into_iter().rev().map(|(lock, _)| Op::Unlock { lock });
                self.round_trip(req_bytes, unlocks, cost, [], None);
            }
            StatementKind::Begin | StatementKind::Commit | StatementKind::Rollback => {
                // Transaction control round-trip: driver CPU and the wire
                // exchange, no locks and (by construction) zero database
                // counters. The paper apps never issue these over SQL — the
                // middleware brackets every interaction host-side, which
                // costs nothing — but a handler that does gets the plain
                // statement cost.
                self.round_trip(req_bytes, [], cost, [], None);
            }
            StatementKind::Read | StatementKind::Write => {
                // Implicit per-statement locks, unless the session holds a
                // LOCK TABLES set (the database admitted the statement
                // only if that set covers it).
                let implicit = self.db.table_locks().is_empty();
                let reads = result.read_tables.iter().map(|&t| (t, TableLockKind::Read));
                let writes = result.write_tables.iter().map(|&t| (t, TableLockKind::Write));
                let needed = self.lock_order(reads.chain(writes).filter(|_| implicit));
                let locks = needed.iter().map(|&(lock, mode)| Op::Lock { lock, mode });
                let unlocks = needed.iter().rev().map(|&(lock, _)| Op::Unlock { lock });
                self.round_trip(req_bytes, locks, cost, unlocks, Some(&result.counters));
            }
        }
    }

    /// The simulated locks of a table lock list (catalog ids), in `LockId`
    /// order, each once: acquiring in one global order keeps the lock
    /// graph deadlock-free.
    fn lock_order(
        &self,
        list: impl IntoIterator<Item = (usize, TableLockKind)>,
    ) -> Vec<(LockId, LockMode)> {
        let mode = |kind| match kind {
            TableLockKind::Read => LockMode::Shared,
            TableLockKind::Write => LockMode::Exclusive,
        };
        let mut locks: Vec<_> =
            list.into_iter().map(|(t, kind)| (self.deployment.table_lock(t), mode(kind))).collect();
        locks.sort_by_key(|&(id, _)| id);
        locks.dedup_by_key(|&mut (id, _)| id);
        locks
    }

    /// Charges business-logic CPU on the current tier's machine.
    pub fn cpu(&mut self, micros: u64) {
        if micros > 0 {
            let machine = self.current_machine();
            self.push(Op::Cpu { machine, micros });
        }
    }

    /// Appends generated HTML. The byte count drives per-byte generation
    /// CPU and the response's network cost; the text itself is kept only
    /// when capture was requested (examples, tests).
    pub fn emit(&mut self, html: &str) {
        self.output_bytes += html.len() as u64;
        if let Some(buf) = &mut self.capture {
            buf.push_str(html);
        }
    }

    /// Accounts `bytes` of generated output without materializing text
    /// (bulk table rows).
    pub fn emit_bytes(&mut self, bytes: u64) {
        self.output_bytes += bytes;
        if let Some(buf) = &mut self.capture {
            buf.extend(std::iter::repeat_n('.', bytes.min(4_096) as usize));
        }
    }

    /// Declares an embedded static asset (item thumbnail, button) the
    /// client will fetch as part of this interaction.
    pub fn embed_asset(&mut self, asset: StaticAsset) {
        self.assets.push(asset);
    }

    /// Acquires a container-level lock (sync configurations). Striped by
    /// `key`; re-entrant acquisition of the same stripe is counted, not
    /// re-locked.
    ///
    /// # Panics
    ///
    /// Panics when the group was not declared in
    /// [`Application::app_locks`](crate::Application::app_locks).
    pub fn app_lock(&mut self, group: &str, key: u64) {
        let id = self.deployment.app_lock(group, key);
        if let Some((_, n)) = self.held_app.iter_mut().find(|(l, _)| *l == id) {
            *n += 1;
            return;
        }
        self.held_app.push((id, 1));
        self.push(Op::Lock { lock: id, mode: LockMode::Exclusive });
    }

    /// Releases a container-level lock taken with
    /// [`app_lock`](Self::app_lock).
    ///
    /// # Panics
    ///
    /// Panics when the stripe is not currently held.
    pub fn app_unlock(&mut self, group: &str, key: u64) {
        let id = self.deployment.app_lock(group, key);
        let pos = self
            .held_app
            .iter()
            .position(|(l, _)| *l == id)
            .expect("app_unlock of a stripe that is not held");
        self.held_app[pos].1 -= 1;
        if self.held_app[pos].1 == 0 {
            self.held_app.remove(pos);
            self.push(Op::Unlock { lock: id });
        }
    }

    /// Generated output bytes so far.
    pub fn output_bytes(&self) -> u64 {
        self.output_bytes
    }

    /// Captured HTML, when capture was requested.
    pub fn captured_html(&self) -> Option<&str> {
        self.capture.as_deref()
    }

    /// Takes the embedded assets declared so far.
    pub(crate) fn take_assets(&mut self) -> Vec<StaticAsset> {
        std::mem::take(&mut self.assets)
    }

    pub(crate) fn push(&mut self, op: Op) {
        self.trace.push(op);
    }

    /// Releases anything still held (error paths, handler bugs) so the
    /// trace stays balanced: the database session's `LOCK TABLES` set,
    /// then the app locks. Returns how many locks had to be forced.
    pub(crate) fn force_release(&mut self) -> u64 {
        let tables = self.db.release_table_locks();
        let tables = self.lock_order(tables).into_iter().rev().map(|(lock, _)| lock);
        let unlocks: Vec<LockId> =
            tables.chain(self.held_app.drain(..).rev().map(|(id, _)| id)).collect();
        for &lock in &unlocks {
            self.trace.push(Op::Unlock { lock });
        }
        self.stats.forced_unlocks += unlocks.len() as u64;
        unlocks.len() as u64
    }
}

/// Kebab-case span label for a statement kind.
fn statement_label(kind: &StatementKind) -> &'static str {
    match kind {
        StatementKind::LockTables(_) => "lock-tables",
        StatementKind::UnlockTables(_) => "unlock-tables",
        StatementKind::Begin => "begin",
        StatementKind::Commit => "commit",
        StatementKind::Rollback => "rollback",
        StatementKind::Read => "read",
        StatementKind::Write => "write",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppLockSpec, AppResult, Application, InteractionSpec};
    use crate::session::SessionData;
    use dynamid_sim::{SimDuration, SimRng, Simulation};
    use dynamid_sqldb::{ColumnType, TableSchema};

    struct NoApp;
    impl Application for NoApp {
        fn name(&self) -> &str {
            "none"
        }
        fn interactions(&self) -> &[InteractionSpec] {
            &[]
        }
        fn app_locks(&self) -> Vec<AppLockSpec> {
            vec![AppLockSpec::new("g", 2)]
        }
        fn handle(
            &self,
            _id: usize,
            _ctx: &mut RequestCtx<'_>,
            _s: &mut SessionData,
            _r: &mut SimRng,
        ) -> AppResult<()> {
            Ok(())
        }
    }

    fn setup(
        config: crate::deploy::StandardConfig,
    ) -> (Simulation, Database, Deployment, CostModel) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("items")
                .column("id", ColumnType::Int)
                .column("stock", ColumnType::Int)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("orders")
                .column("id", ColumnType::Int)
                .column("item", ColumnType::Int)
                .primary_key("id")
                .auto_increment()
                .build()
                .unwrap(),
        )
        .unwrap();
        db.execute("INSERT INTO items (id, stock) VALUES (1, 10)", &[]).unwrap();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let admission = crate::deploy::AdmissionControl::default();
        let dep = Deployment::install_replicated(&mut sim, config, &db, &NoApp, 512, admission, 0);
        (sim, db, dep, CostModel::default())
    }

    use crate::deploy::StandardConfig::*;

    #[test]
    fn query_builds_locked_db_roundtrip() {
        let (_sim, mut db, dep, costs) = setup(PhpColocated);
        let mut ctx =
            RequestCtx::new(&mut db, &dep, &costs, LogicStyle::ExplicitSql { sync: false }, false);
        let r = ctx.query("SELECT stock FROM items WHERE id = ?", &[Value::Int(1)]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(10));
        let ops = ctx.trace.ops();
        // Driver CPU, request transfer, lock, DB CPU, unlock, reply
        // transfer, decode CPU.
        assert!(matches!(ops[0], Op::Cpu { .. }));
        assert!(matches!(ops[1], Op::Net { .. }));
        assert!(matches!(ops[2], Op::Lock { mode: LockMode::Shared, .. }));
        assert!(matches!(ops[3], Op::Cpu { .. }));
        assert!(matches!(ops[4], Op::Unlock { .. }));
        assert!(matches!(ops[5], Op::Net { .. }));
        assert!(ctx.trace.check_balanced().is_ok());
        assert_eq!(ctx.stats.queries, 1);
        assert!(ctx.stats.db_micros > 0);
    }

    #[test]
    fn write_takes_exclusive_lock() {
        let (_sim, mut db, dep, costs) = setup(PhpColocated);
        let mut ctx =
            RequestCtx::new(&mut db, &dep, &costs, LogicStyle::ExplicitSql { sync: false }, false);
        ctx.query("UPDATE items SET stock = stock - 1 WHERE id = 1", &[]).unwrap();
        assert!(ctx
            .trace
            .ops()
            .iter()
            .any(|op| matches!(op, Op::Lock { mode: LockMode::Exclusive, .. })));
    }

    #[test]
    fn explicit_lock_tables_span_statements() {
        let (_sim, mut db, dep, costs) = setup(PhpColocated);
        let items_lock = dep.table_lock(db.table_index("items").unwrap());
        let mut ctx =
            RequestCtx::new(&mut db, &dep, &costs, LogicStyle::ExplicitSql { sync: false }, false);
        ctx.query("LOCK TABLES items WRITE", &[]).unwrap();
        ctx.query("UPDATE items SET stock = stock - 1 WHERE id = 1", &[]).unwrap();
        ctx.query("SELECT stock FROM items WHERE id = 1", &[]).unwrap();
        ctx.query("UNLOCK TABLES", &[]).unwrap();
        let locks: Vec<&Op> = ctx
            .trace
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Lock { .. } | Op::Unlock { .. }))
            .collect();
        // Exactly one lock/unlock pair for the whole span.
        assert_eq!(locks.len(), 2);
        assert!(matches!(
            locks[0],
            Op::Lock { lock, mode: LockMode::Exclusive } if *lock == items_lock
        ));
        assert!(ctx.trace.check_balanced().is_ok());
    }

    #[test]
    fn statement_outside_lock_set_is_rejected() {
        let (_sim, mut db, dep, costs) = setup(PhpColocated);
        let mut ctx =
            RequestCtx::new(&mut db, &dep, &costs, LogicStyle::ExplicitSql { sync: false }, false);
        ctx.query("LOCK TABLES items WRITE", &[]).unwrap();
        let err = ctx.query("INSERT INTO orders (id, item) VALUES (NULL, 1)", &[]).unwrap_err();
        assert!(err.to_string().contains("not mentioned in LOCK TABLES"));
        // Writing a READ-locked table is also rejected.
        ctx.query("UNLOCK TABLES", &[]).unwrap();
        ctx.query("LOCK TABLES items READ", &[]).unwrap();
        let err = ctx.query("UPDATE items SET stock = 0 WHERE id = 1", &[]).unwrap_err();
        assert!(err.to_string().contains("locked READ"));
        // Both were refused before they ran: no data changed, and neither
        // counts as a query.
        assert_eq!(ctx.stats.queries, 3);
        let stock = ctx.query("SELECT stock FROM items WHERE id = 1", &[]).unwrap();
        assert_eq!(stock.scalar(), Some(&Value::Int(10)));
        ctx.query("UNLOCK TABLES", &[]).unwrap();
        let orders = ctx.query("SELECT COUNT(*) FROM orders", &[]).unwrap();
        assert_eq!(orders.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn app_locks_are_reentrant_and_balanced() {
        let (_sim, mut db, dep, costs) = setup(ServletColocatedSync);
        let mut ctx =
            RequestCtx::new(&mut db, &dep, &costs, LogicStyle::ExplicitSql { sync: true }, false);
        assert!(ctx.sync_mode());
        ctx.app_lock("g", 0);
        ctx.app_lock("g", 2); // same stripe (2 % 2 == 0): re-entrant
        ctx.app_unlock("g", 2);
        ctx.app_unlock("g", 0);
        let lock_ops = ctx.trace.ops().iter().filter(|op| matches!(op, Op::Lock { .. })).count();
        assert_eq!(lock_ops, 1);
        assert!(ctx.trace.check_balanced().is_ok());
    }

    #[test]
    fn force_release_balances_dangling_locks() {
        let (_sim, mut db, dep, costs) = setup(PhpColocated);
        let mut ctx =
            RequestCtx::new(&mut db, &dep, &costs, LogicStyle::ExplicitSql { sync: false }, false);
        ctx.query("LOCK TABLES items WRITE, orders WRITE", &[]).unwrap();
        assert!(ctx.trace.check_balanced().is_err());
        assert_eq!(ctx.force_release(), 2);
        assert!(ctx.trace.check_balanced().is_ok());
        assert_eq!(ctx.stats.forced_unlocks, 2);
        assert!(ctx.db.table_locks().is_empty(), "the session's set was released");
    }

    #[test]
    fn emit_accumulates_and_captures() {
        let (_sim, mut db, dep, costs) = setup(PhpColocated);
        let mut ctx =
            RequestCtx::new(&mut db, &dep, &costs, LogicStyle::ExplicitSql { sync: false }, true);
        ctx.emit("<html>");
        ctx.emit_bytes(100);
        assert_eq!(ctx.output_bytes(), 106);
        assert!(ctx.captured_html().unwrap().starts_with("<html>"));
    }

    #[test]
    fn ejb_tier_charges_ejb_machine() {
        let (_sim, mut db, dep, costs) = setup(EjbFourTier);
        let mut ctx = RequestCtx::new(&mut db, &dep, &costs, LogicStyle::EntityBean, false);
        let servlet = ctx.current_machine();
        ctx.tier = Tier::EjbServer;
        let ejb = ctx.current_machine();
        assert_ne!(servlet, ejb);
        ctx.query("SELECT stock FROM items WHERE id = 1", &[]).unwrap();
        assert!(ctx.trace.cpu_demand(ejb) > 0);
        assert_eq!(ctx.trace.cpu_demand(servlet), 0);
    }

    #[test]
    fn asset_tracking() {
        let (_sim, mut db, dep, costs) = setup(PhpColocated);
        let mut ctx =
            RequestCtx::new(&mut db, &dep, &costs, LogicStyle::ExplicitSql { sync: false }, false);
        ctx.embed_asset(StaticAsset::thumbnail());
        ctx.embed_asset(StaticAsset::button());
        assert_eq!(ctx.take_assets().len(), 2);
    }
}
