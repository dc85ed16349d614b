//! The EJB tier: session façades and entity beans with container-managed
//! persistence.
//!
//! This is a faithful *mechanism* model of the paper's JOnAS 2.5 setup
//! (session-façade pattern, entity beans with CMP, local interfaces):
//!
//! * a **façade call** crosses RMI from the servlet to the EJB server and
//!   back, with per-call and per-byte serialization costs;
//! * **finding** an entity bean activates it with a container-generated
//!   single-row `SELECT * FROM t WHERE pk = ?`;
//! * **finder methods** return primary keys only; each returned entity is
//!   then activated individually — the classic N+1 query pattern;
//! * **dirty beans** are stored at façade commit with one single-row
//!   `UPDATE` each.
//!
//! This is exactly the "many short queries to maintain the state of the
//! beans" behaviour the paper blames for EJB's low throughput (§5.1, §6.1:
//! ~2,000 small packets/second between EJB server and database).

use crate::app::{AppError, AppResult, LogicStyle};
use crate::ctx::{ReadLog, RequestCtx, Tier};
use crate::deploy::TableEntry;
use dynamid_sqldb::{CacheKey, Lookup, SqlError, Value};
use dynamid_trace::SpanKind;
use std::sync::Arc;

/// Handle to an entity bean activated within the current façade call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeanHandle(usize);

/// An activated entity: its row and which fields the façade changed. Its
/// table's name and columns are the deployment's, found by catalog id.
#[derive(Debug)]
struct Bean {
    /// Catalog id of the bean's table.
    table: usize,
    pk: Value,
    values: Vec<Value>,
    dirty: Vec<bool>,
}

/// The container-managed persistence interface available inside a session
/// façade. Obtained via [`RequestCtx::facade`].
pub struct EntityManager<'c, 'a> {
    ctx: &'c mut RequestCtx<'a>,
    beans: Vec<Bean>,
    /// Bytes of bean state read by the façade (approximates the RMI reply
    /// payload back to the servlet tier).
    transferred: u64,
}

impl std::fmt::Debug for EntityManager<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntityManager")
            .field("beans", &self.beans.len())
            .field("transferred", &self.transferred)
            .finish()
    }
}

impl<'c, 'a> EntityManager<'c, 'a> {
    fn new(ctx: &'c mut RequestCtx<'a>) -> Self {
        EntityManager { ctx, beans: Vec::new(), transferred: 0 }
    }

    /// One container-managed persistence access in its own `CmpAccess`
    /// span: the container's per-bean bookkeeping on the EJB machine, then
    /// `body`, which issues the container-generated statement.
    fn access<T>(
        &mut self,
        label: &str,
        body: impl FnOnce(&mut Self) -> AppResult<T>,
    ) -> AppResult<T> {
        self.ctx.span_open(SpanKind::CmpAccess, label);
        let micros = self.ctx.costs.ejb.per_bean_access.round() as u64;
        self.ctx.stats.bean_accesses += 1;
        self.ctx.cpu(micros);
        let out = body(self);
        self.ctx.span_close();
        out
    }

    /// The catalog id, install-time entry and primary-key column of entity
    /// table `table`.
    ///
    /// # Errors
    ///
    /// An unknown table; a table without a primary key.
    fn entity(&self, table: &str) -> AppResult<(usize, &'a TableEntry, &'a str)> {
        let id = self
            .ctx
            .db
            .table_index(table)
            .ok_or_else(|| SqlError::UnknownTable(table.to_string()))?;
        let entry = self.ctx.deployment.table(id);
        let pk = entry.pk.ok_or_else(|| {
            SqlError::Unsupported(format!("entity table '{table}' has no primary key"))
        })?;
        Ok((id, entry, &entry.columns[pk]))
    }

    /// Position of column `col` in the rows of table `table` (a catalog
    /// id).
    fn column(&self, table: usize, col: &str) -> AppResult<usize> {
        let columns = &self.ctx.deployment.table(table).columns;
        columns
            .iter()
            .position(|c| c == col)
            .ok_or_else(|| AppError::Sql(SqlError::UnknownColumn(col.to_string())))
    }

    /// Activates the entity with primary key `pk`, issuing the
    /// container-generated single-row SELECT. Returns `None` when the row
    /// does not exist.
    ///
    /// # Errors
    ///
    /// Database errors; missing primary key on the entity table.
    pub fn find(&mut self, table: &str, pk: Value) -> AppResult<Option<BeanHandle>> {
        self.access("find", |em| {
            let (id, entry, _) = em.entity(table)?;
            let r = em.ctx.query(&entry.find_sql, std::slice::from_ref(&pk))?;
            let Some(row) = r.rows.into_iter().next() else {
                return Ok(None);
            };
            let n = row.len();
            em.beans.push(Bean { table: id, pk, values: row, dirty: vec![false; n] });
            Ok(Some(BeanHandle(em.beans.len() - 1)))
        })
    }

    /// Container-generated finder: primary keys of rows where
    /// `col = value`. The caller activates each entity individually with
    /// [`find`](Self::find) (CMP's N+1 pattern).
    pub fn find_pks_where(
        &mut self,
        table: &str,
        col: &str,
        value: Value,
    ) -> AppResult<Vec<Value>> {
        self.find_pks_query_tail(table, &format!("WHERE {col} = ?"), &[value])
    }

    /// Finder with ordering and a row cap (for listing pages).
    pub fn find_pks_ordered(
        &mut self,
        table: &str,
        col: &str,
        value: Value,
        order_col: &str,
        desc: bool,
        limit: u64,
    ) -> AppResult<Vec<Value>> {
        let dir = if desc { "DESC" } else { "ASC" };
        self.find_pks_query_tail(
            table,
            &format!("WHERE {col} = ? ORDER BY {order_col} {dir} LIMIT {limit}"),
            &[value],
        )
    }

    /// A custom finder declared in the deployment descriptor: arbitrary
    /// WHERE/ORDER BY/LIMIT tail, still returning only primary keys (CMP
    /// 1.1 `ejbFind` semantics — entities must be activated individually).
    pub fn find_pks_query_tail(
        &mut self,
        table: &str,
        tail: &str,
        params: &[Value],
    ) -> AppResult<Vec<Value>> {
        self.access("finder", |em| {
            let (_, _, pk_col) = em.entity(table)?;
            let sql = format!("SELECT {pk_col} FROM {table} {tail}");
            let r = em.ctx.query(&sql, params)?;
            Ok(r.rows.into_iter().map(|mut row| row.remove(0)).collect())
        })
    }

    /// Reads a field of an activated bean.
    ///
    /// # Errors
    ///
    /// Unknown column name.
    ///
    /// # Panics
    ///
    /// Panics on a stale handle (handles never outlive the façade call).
    pub fn get(&mut self, h: BeanHandle, col: &str) -> AppResult<Value> {
        let bean = &self.beans[h.0];
        let v = bean.values[self.column(bean.table, col)?].clone();
        self.transferred += v.wire_size();
        Ok(v)
    }

    /// Writes a field of an activated bean; the container stores it (one
    /// single-row UPDATE per dirty bean) when the façade commits.
    ///
    /// # Errors
    ///
    /// Unknown column name.
    pub fn set(&mut self, h: BeanHandle, col: &str, value: Value) -> AppResult<()> {
        let idx = self.column(self.beans[h.0].table, col)?;
        let bean = &mut self.beans[h.0];
        bean.values[idx] = value;
        bean.dirty[idx] = true;
        Ok(())
    }

    /// The primary key of an activated bean.
    pub fn pk(&self, h: BeanHandle) -> &Value {
        &self.beans[h.0].pk
    }

    /// Creates a new entity (container-generated INSERT). Pass
    /// `Value::Null` for an auto-increment key; returns the stored key.
    ///
    /// # Errors
    ///
    /// Database errors (duplicate key, constraint violations).
    pub fn create(&mut self, table: &str, fields: &[(&str, Value)]) -> AppResult<Value> {
        self.access("create", |em| {
            let cols: Vec<&str> = fields.iter().map(|(c, _)| *c).collect();
            let marks = vec!["?"; fields.len()].join(", ");
            let sql = format!("INSERT INTO {table} ({}) VALUES ({marks})", cols.join(", "));
            let params: Vec<Value> = fields.iter().map(|(_, v)| v.clone()).collect();
            let r = em.ctx.query(&sql, &params)?;
            if let Some(id) = r.last_insert_id {
                return Ok(Value::Int(id));
            }
            let (_, _, pk_col) = em.entity(table)?;
            fields.iter().find(|(c, _)| *c == pk_col).map(|(_, v)| v.clone()).ok_or_else(|| {
                AppError::Sql(SqlError::Constraint(format!(
                    "create on '{table}' without a primary key value"
                )))
            })
        })
    }

    /// Removes an entity (container-generated DELETE).
    ///
    /// # Errors
    ///
    /// Database errors; missing primary key on the entity table.
    pub fn remove(&mut self, table: &str, pk: Value) -> AppResult<u64> {
        self.access("remove", |em| {
            let (_, _, pk_col) = em.entity(table)?;
            let sql = format!("DELETE FROM {table} WHERE {pk_col} = ?");
            let r = em.ctx.query(&sql, &[pk])?;
            Ok(r.affected)
        })
    }

    /// Stores every dirty bean: one single-row UPDATE per bean, the CMP
    /// commit behaviour.
    fn flush(&mut self) -> AppResult<()> {
        let dirty: Vec<usize> = self
            .beans
            .iter()
            .enumerate()
            .filter(|(_, b)| b.dirty.iter().any(|d| *d))
            .map(|(i, _)| i)
            .collect();
        for i in dirty {
            self.access("store", |em| {
                let bean = &em.beans[i];
                let entry = em.ctx.deployment.table(bean.table);
                let sets: Vec<String> = entry
                    .columns
                    .iter()
                    .zip(&bean.dirty)
                    .filter(|(_, d)| **d)
                    .map(|(c, _)| format!("{c} = ?"))
                    .collect();
                let pk_col = &entry.columns[entry.pk.expect("an activated bean's table has a key")];
                let sql =
                    format!("UPDATE {} SET {} WHERE {pk_col} = ?", entry.name, sets.join(", "));
                let mut params: Vec<Value> = bean
                    .values
                    .iter()
                    .zip(&bean.dirty)
                    .filter(|(_, d)| **d)
                    .map(|(v, _)| v.clone())
                    .collect();
                params.push(bean.pk.clone());
                em.ctx.query(&sql, &params)?;
                em.beans[i].dirty.iter_mut().for_each(|d| *d = false);
                Ok(())
            })?;
        }
        Ok(())
    }
}

impl RequestCtx<'_> {
    /// Invokes a session façade: crosses RMI to the EJB server, runs `f`
    /// with an [`EntityManager`], commits dirty beans, and crosses back.
    /// Only meaningful under [`LogicStyle::EntityBean`].
    ///
    /// # Errors
    ///
    /// Whatever `f` returns, or a commit (flush) failure.
    ///
    /// # Panics
    ///
    /// Panics when the deployment has no EJB machine (i.e., the handler
    /// called `facade` under a non-EJB configuration).
    pub fn facade<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut EntityManager<'_, '_>) -> AppResult<R>,
    ) -> AppResult<R> {
        debug_assert_eq!(self.style(), LogicStyle::EntityBean, "facade outside EJB style");
        self.span_open(SpanKind::FacadeCall, name);
        let servlet = self.generator_machine;
        let ejb = self.deployment.ejb_machine().expect("facade call without an EJB machine");
        let rmi = self.costs.rmi;
        let call_bytes = 256u64;

        // RMI request: servlet -> EJB server, inside the façade's span.
        self.cross(rmi, servlet, ejb, call_bytes, None);
        self.tier = Tier::EjbServer;
        self.stats.facade_calls += 1;
        let facade_cpu = self.costs.ejb.per_facade_call.round() as u64;
        self.cpu(facade_cpu);

        let mut em = EntityManager::new(self);
        let out = f(&mut em);
        // Commit only on success (a thrown exception rolls back the CMP
        // store; MyISAM gives no data rollback, matching the paper's
        // setup).
        let out = match out {
            Ok(v) => em.flush().map(|()| v),
            Err(e) => Err(e),
        };
        let reply_bytes = em.transferred.max(128);
        drop(em);

        // RMI reply: EJB server -> servlet.
        self.cross(rmi, ejb, servlet, reply_bytes, None);
        self.tier = Tier::Generator;
        self.span_close();
        out
    }

    /// Invokes a session façade through the database's method cache (when
    /// caching is enabled; otherwise identical to [`facade`](Self::facade)).
    ///
    /// `key` identifies the invocation: `(name, key)` is the cache key, so
    /// it must capture every argument the façade's result depends on. A
    /// hit skips the RMI crossing, the container interception, and every
    /// CMP access, charging a single probe cost on the EJB client side. A
    /// miss runs the façade with a read log armed and memoizes the result
    /// with its table dependencies — unless the façade wrote something or
    /// the open transaction had already written one of the read tables.
    /// See `dynamid_sqldb::cache` for the coherence protocol.
    ///
    /// Only read-only façades should be invoked through this; a façade
    /// that writes is never cached (each invocation runs), but its writes
    /// then invalidate at commit like any other.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns, or a commit (flush) failure.
    ///
    /// # Panics
    ///
    /// As [`facade`](Self::facade); additionally if two call sites reuse
    /// one façade name with different result types (the memoized value is
    /// downcast by name).
    pub fn facade_cached<R>(
        &mut self,
        name: &str,
        key: &[Value],
        f: impl FnOnce(&mut EntityManager<'_, '_>) -> AppResult<R>,
    ) -> AppResult<R>
    where
        R: Clone + Send + Sync + 'static,
    {
        if !self.db.caching_enabled() {
            return self.facade(name, f);
        }
        let ck = CacheKey::from_values(key);
        match self.db.lookup_method(name, &ck) {
            Lookup::Hit(value) => {
                let micros = self.costs.ejb.per_cache_hit.max(1.0).round() as u64;
                let span = self.span_open(SpanKind::Cache, name);
                self.cpu(micros);
                self.span_annotate(span, Some(true), Some(micros));
                self.span_close();
                let value = value.downcast_ref::<R>().expect("method cache result type mismatch");
                Ok(value.clone())
            }
            Lookup::Bypass => self.facade(name, f),
            Lookup::Miss => {
                let prev = self.read_log.replace(ReadLog::default());
                let out = self.facade(name, f);
                let log = std::mem::replace(&mut self.read_log, prev).unwrap_or_default();
                if let Ok(v) = &out {
                    if !log.wrote {
                        self.db.store_method(name, ck, Arc::new(v.clone()), log.tables);
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppLockSpec, Application, InteractionSpec};
    use crate::cost::CostModel;
    use crate::deploy::{AdmissionControl, Deployment, StandardConfig};
    use crate::session::SessionData;
    use dynamid_sim::{SimDuration, SimRng, Simulation};
    use dynamid_sqldb::{ColumnType, Database, TableSchema};

    struct NoApp;
    impl Application for NoApp {
        fn name(&self) -> &str {
            "none"
        }
        fn interactions(&self) -> &[InteractionSpec] {
            &[]
        }
        fn app_locks(&self) -> Vec<AppLockSpec> {
            vec![]
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

    fn setup() -> (Simulation, Database, Deployment, CostModel) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("items")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Str)
                .column("qty", ColumnType::Int)
                .column("seller", ColumnType::Int)
                .primary_key("id")
                .auto_increment()
                .index("seller")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("notes").column("id", ColumnType::Int).build().unwrap(),
        )
        .unwrap();
        for (name, qty, seller) in [("lamp", 5, 1), ("desk", 2, 1), ("vase", 9, 2)] {
            db.execute(
                "INSERT INTO items (id, name, qty, seller) VALUES (NULL, ?, ?, ?)",
                &[Value::str(name), Value::Int(qty), Value::Int(seller)],
            )
            .unwrap();
        }
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let config = StandardConfig::EjbFourTier;
        let admission = AdmissionControl::default();
        let dep = Deployment::install_replicated(&mut sim, config, &db, &NoApp, 512, admission, 0);
        (sim, db, dep, CostModel::default())
    }

    fn ctx<'a>(db: &'a mut Database, dep: &'a Deployment, costs: &'a CostModel) -> RequestCtx<'a> {
        RequestCtx::new(db, dep, costs, LogicStyle::EntityBean, false)
    }

    #[test]
    fn facade_find_get_set_commits_update() {
        let (_sim, mut db, dep, costs) = setup();
        let mut c = ctx(&mut db, &dep, &costs);
        let qty = c
            .facade("ItemFacade.buy", |em| {
                let h = em.find("items", Value::Int(1))?.expect("item exists");
                let qty = em.get(h, "qty")?.as_int().unwrap();
                em.set(h, "qty", Value::Int(qty - 1))?;
                Ok(qty)
            })
            .unwrap();
        assert_eq!(qty, 5);
        // The flush really updated the database.
        let r = c.query("SELECT qty FROM items WHERE id = 1", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(c.stats.facade_calls, 1);
        // find + flush = 2 bean accesses.
        assert!(c.stats.bean_accesses >= 2);
        // 1 SELECT + 1 UPDATE inside the facade + the check SELECT.
        assert_eq!(c.stats.queries, 3);
        assert!(c.trace.check_balanced().is_ok());
    }

    #[test]
    fn finder_then_activate_is_n_plus_one() {
        let (_sim, mut db, dep, costs) = setup();
        let mut c = ctx(&mut db, &dep, &costs);
        c.facade("ItemFacade.bySeller", |em| {
            let pks = em.find_pks_where("items", "seller", Value::Int(1))?;
            assert_eq!(pks.len(), 2);
            for pk in pks {
                let h = em.find("items", pk)?.unwrap();
                em.get(h, "name")?;
            }
            Ok(())
        })
        .unwrap();
        // 1 finder + 2 activations = 3 statements: the N+1 pattern.
        assert_eq!(c.stats.queries, 3);
    }

    #[test]
    fn create_and_remove() {
        let (_sim, mut db, dep, costs) = setup();
        let mut c = ctx(&mut db, &dep, &costs);
        let pk = c
            .facade("ItemFacade.create", |em| {
                em.create(
                    "items",
                    &[
                        ("id", Value::Null),
                        ("name", Value::str("sofa")),
                        ("qty", Value::Int(1)),
                        ("seller", Value::Int(2)),
                    ],
                )
            })
            .unwrap();
        assert_eq!(pk, Value::Int(4));
        let removed = c.facade("ItemFacade.remove", |em| em.remove("items", pk.clone())).unwrap();
        assert_eq!(removed, 1);
    }

    #[test]
    fn error_skips_commit() {
        let (_sim, mut db, dep, costs) = setup();
        let mut c = ctx(&mut db, &dep, &costs);
        let r: AppResult<()> = c.facade("ItemFacade.fail", |em| {
            let h = em.find("items", Value::Int(1))?.unwrap();
            em.set(h, "qty", Value::Int(0))?;
            Err(AppError::Logic("boom".into()))
        });
        assert!(r.is_err());
        // The dirty bean was not stored.
        let check = c.query("SELECT qty FROM items WHERE id = 1", &[]).unwrap();
        assert_eq!(check.rows[0][0], Value::Int(5));
        // The trace is still balanced despite the error.
        assert!(c.trace.check_balanced().is_ok());
    }

    #[test]
    fn find_missing_returns_none() {
        let (_sim, mut db, dep, costs) = setup();
        let mut c = ctx(&mut db, &dep, &costs);
        c.facade("f", |em| {
            assert!(em.find("items", Value::Int(999))?.is_none());
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn unknown_column_is_an_error() {
        let (_sim, mut db, dep, costs) = setup();
        let mut c = ctx(&mut db, &dep, &costs);
        let r: AppResult<()> = c.facade("f", |em| {
            let h = em.find("items", Value::Int(1))?.unwrap();
            em.get(h, "nope")?;
            Ok(())
        });
        assert!(matches!(r, Err(AppError::Sql(SqlError::UnknownColumn(_)))));
    }

    /// An unknown table and an entity table without a primary key are
    /// errors on `find`, on a finder and on `remove`. Each call is charged
    /// its bean overhead first, and none reaches the database.
    #[test]
    fn unknown_and_keyless_tables_fail_after_the_bean_overhead() {
        let (_sim, mut db, dep, costs) = setup();
        let mut c = ctx(&mut db, &dep, &costs);
        let unknown = AppError::Sql(SqlError::UnknownTable("nope".into()));
        let keyless =
            AppError::Sql(SqlError::Unsupported("entity table 'notes' has no primary key".into()));
        c.facade("f", |em| {
            for (table, want) in [("nope", &unknown), ("notes", &keyless)] {
                let before = em.ctx.stats;
                assert_eq!(&em.find(table, Value::Int(1)).unwrap_err(), want);
                assert_eq!(&em.find_pks_where(table, "id", Value::Int(1)).unwrap_err(), want);
                assert_eq!(&em.remove(table, Value::Int(1)).unwrap_err(), want);
                assert_eq!(em.ctx.stats.bean_accesses, before.bean_accesses + 3, "{table}");
                assert_eq!(em.ctx.stats.queries, before.queries, "{table}");
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn facade_charges_both_machines() {
        let (_sim, mut db, dep, costs) = setup();
        let servlet = dep.generator(0);
        let ejb = dep.ejb_machine().unwrap();
        let mut c = ctx(&mut db, &dep, &costs);
        c.facade("f", |em| {
            em.find("items", Value::Int(1))?;
            Ok(())
        })
        .unwrap();
        assert!(c.trace.cpu_demand(servlet) > 0, "RMI cost on servlet side");
        assert!(c.trace.cpu_demand(ejb) > 0, "container cost on EJB side");
        // Bytes crossed the servlet<->EJB link both ways.
        assert!(c.trace.bytes_sent(servlet) > 0);
        assert!(c.trace.bytes_sent(ejb) > 0);
    }

    #[test]
    fn ordered_finder_limits() {
        let (_sim, mut db, dep, costs) = setup();
        let mut c = ctx(&mut db, &dep, &costs);
        c.facade("f", |em| {
            let pks = em.find_pks_ordered("items", "seller", Value::Int(1), "qty", true, 1)?;
            assert_eq!(pks, vec![Value::Int(1)]); // lamp qty=5 > desk qty=2
            Ok(())
        })
        .unwrap();
    }
}
