//! Compile-once query plans.
//!
//! Parsing a statement once and re-running its AST still pays name
//! resolution, access-path selection, and projection planning on *every*
//! call — and the benchmark applications execute the same handful of
//! parameterized statements millions of times per simulated run. This
//! module moves all of that to a one-time compilation step:
//!
//! * column references are resolved to positions in the concatenated
//!   FROM + JOIN row ([`CExpr::Col`] holds a `usize`, not a name);
//! * the access-path *shape* (primary-key equality, secondary-index
//!   equality, index range, or full scan) is chosen from the WHERE
//!   conjuncts with the parameter slots left open ([`CPath`]); binding a
//!   concrete [`AccessPath`] at execute time is a constant-expression
//!   evaluation;
//! * the projection list, GROUP BY column, ORDER BY keys, join columns
//!   (and whether the inner side is indexed), output column names, and the
//!   read/write table sets are all precomputed;
//! * execution is **late-materializing**: the working set is a stream of
//!   [`RowId`] tuples (one id per FROM/JOIN table), values are fetched from
//!   the base tables through a [`RowView`], and rows are cloned only at
//!   projection time. Equality joins run as hash joins when the probe side
//!   is large enough to amortize the build, `ORDER BY … LIMIT` keeps a
//!   bounded top-K heap instead of sorting everything, and GROUP BY folds
//!   aggregate accumulators in a single hash pass.
//!
//! [`Database::execute`](crate::Database::execute) caches one
//! [`CompiledStmt`] per SQL text; a plan records the schema version it was
//! compiled against and is invalidated (recompiled) when DDL bumps the
//! version. The executor here mirrors the AST interpreter in `exec`
//! operation for operation, so [`QueryCounters`] — and therefore the cost
//! model — are byte-identical between the two paths: counters keep the
//! paper's MyISAM nested-index-loop charging no matter which physical
//! strategy runs, so only host wall-clock changes. The unit tests below
//! and `tests/proptests.rs` enforce that equivalence.

use crate::ast::{
    BinOp, ColRef, Expr, InsertStmt, Join, SelectItem, SelectStmt, Stmt, TableLockKind, UpdateStmt,
};
use crate::cost::QueryCounters;
use crate::db::Database;
use crate::error::{SqlError, SqlResult};
use crate::exec::{apply_limit, candidate_rows, compare, expr_name, QueryResult, StatementKind};
use crate::plan::{col_on_table, conjuncts, flip, is_const, AccessPath, OwnedBound};
use crate::table::{RowId, Table};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A statement compiled against one schema version: names resolved,
/// access-path shape selected, projection planned. Produced and cached by
/// [`Database::execute`](crate::Database::execute); parameter slots stay
/// open, so one plan serves every binding of a parameterized statement.
#[derive(Debug)]
pub struct CompiledStmt {
    /// Schema version the plan was compiled against; a mismatch with the
    /// database's current version invalidates the plan.
    pub(crate) version: u64,
    /// Unique id minted by the database when the plan enters the plan
    /// cache; `(id, parameter values)` keys the query cache. `compile`
    /// leaves it 0 (uncached plans never reach the query cache).
    pub(crate) id: u64,
    kind: CStmt,
}

impl CompiledStmt {
    /// Catalog ids of every table a SELECT plan reads (base first, then
    /// joins, deduplicated); `None` for non-SELECT statements.
    pub(crate) fn read_table_ids(&self) -> Option<Vec<usize>> {
        let CStmt::Select(s) = &self.kind else { return None };
        let mut ids = vec![s.base];
        for j in &s.joins {
            if !ids.contains(&j.table) {
                ids.push(j.table);
            }
        }
        Some(ids)
    }

    /// `Some((table, key))` when the plan is a join-free SELECT whose access
    /// path is an index-equality probe on the base table's primary key —
    /// the shape the query cache invalidates per row instead of per table.
    pub(crate) fn pk_point(&self, db: &Database, params: &[Value]) -> Option<(usize, Value)> {
        let CStmt::Select(s) = &self.kind else { return None };
        if !s.joins.is_empty() {
            return None;
        }
        let CPath::IndexEq { col, key } = &s.path else { return None };
        if db.table_at(s.base).schema().primary_key() != Some(*col) {
            return None;
        }
        ceval(key, None, params).ok().map(|v| (s.base, v))
    }
}

#[derive(Debug)]
enum CStmt {
    Select(CSelect),
    Insert(CInsert),
    Update(CUpdate),
    Delete(CDelete),
    LockTables(Vec<(String, TableLockKind)>),
    UnlockTables,
    Begin,
    Commit,
    Rollback,
}

/// An expression with column references resolved to positions in the
/// concatenated FROM + JOIN row.
#[derive(Debug)]
enum CExpr {
    Col(usize),
    Lit(Value),
    Param(usize),
    Neg(Box<CExpr>),
    Not(Box<CExpr>),
    Binary { op: BinOp, lhs: Box<CExpr>, rhs: Box<CExpr> },
    Like { expr: Box<CExpr>, pattern: Box<CExpr>, negated: bool },
    Between { expr: Box<CExpr>, lo: Box<CExpr>, hi: Box<CExpr> },
    InList { expr: Box<CExpr>, list: Vec<CExpr> },
    IsNull { expr: Box<CExpr>, negated: bool },
}

/// An access-path shape with its key expressions left unbound (they may
/// contain parameters); [`CPath::bind`] produces the concrete
/// [`AccessPath`] for one parameter set.
#[derive(Debug)]
enum CPath {
    FullScan,
    IndexEq { col: usize, key: CExpr },
    IndexRange { col: usize, lo: CBound, hi: CBound },
}

#[derive(Debug)]
enum CBound {
    Included(CExpr),
    Excluded(CExpr),
    Unbounded,
}

impl CBound {
    fn bind(&self, params: &[Value]) -> SqlResult<OwnedBound> {
        Ok(match self {
            CBound::Included(e) => OwnedBound::Included(ceval(e, None, params)?),
            CBound::Excluded(e) => OwnedBound::Excluded(ceval(e, None, params)?),
            CBound::Unbounded => OwnedBound::Unbounded,
        })
    }
}

impl CPath {
    fn bind(&self, params: &[Value]) -> SqlResult<AccessPath> {
        Ok(match self {
            CPath::FullScan => AccessPath::FullScan,
            CPath::IndexEq { col, key } => {
                AccessPath::IndexEq { col: *col, key: ceval(key, None, params)? }
            }
            CPath::IndexRange { col, lo, hi } => {
                AccessPath::IndexRange { col: *col, lo: lo.bind(params)?, hi: hi.bind(params)? }
            }
        })
    }
}

#[derive(Debug)]
struct CJoin {
    /// Catalog id of the joined table.
    table: usize,
    /// Join-key position in the combined row built so far.
    outer_col: usize,
    /// Join-key position within the joined table.
    inner_col: usize,
    /// Whether the inner column has an index. This decides the *modeled*
    /// counter charging (an index probe per outer row vs a scan); the
    /// physical executor is free to build a hash table either way.
    inner_indexed: bool,
}

#[derive(Debug)]
enum CProj {
    /// Copy these combined-row positions (a `*` or `table.*` expansion).
    Cols(Vec<usize>),
    /// Evaluate an expression.
    Expr(CExpr),
}

#[derive(Debug)]
enum CAggItem {
    Agg { func: crate::ast::AggFunc, col: Option<usize> },
    Scalar(CExpr),
}

#[derive(Debug)]
enum CProjKind {
    Plain(Vec<CProj>),
    Agg { items: Vec<CAggItem>, group_by: Option<usize> },
}

#[derive(Debug)]
struct CSelect {
    base: usize,
    path: CPath,
    joins: Vec<CJoin>,
    filter: Option<CExpr>,
    proj: CProjKind,
    /// Pre-projection sort keys (non-aggregate SELECTs).
    order_source: Vec<(CExpr, bool)>,
    /// Output-column sort keys (aggregate SELECTs).
    order_output: Vec<(usize, bool)>,
    limit: Option<(u64, u64)>,
    read_tables: Vec<String>,
    columns: Vec<String>,
    /// Combined-row position → (table slot, column within that table), so
    /// the executor can resolve any column from a tuple of row ids without
    /// materializing the concatenated row.
    col_map: Vec<(u32, u32)>,
}

#[derive(Debug)]
enum CInsertShape {
    /// Values for every column, in schema order.
    Full(Vec<CExpr>),
    /// `(column position, value)` pairs; unlisted columns get NULL.
    Sparse(Vec<(usize, CExpr)>),
}

#[derive(Debug)]
struct CInsert {
    table: usize,
    table_name: String,
    n_columns: usize,
    shape: CInsertShape,
}

#[derive(Debug)]
struct CUpdate {
    table: usize,
    table_name: String,
    path: CPath,
    filter: Option<CExpr>,
    sets: Vec<(usize, CExpr)>,
}

#[derive(Debug)]
struct CDelete {
    table: usize,
    table_name: String,
    path: CPath,
    filter: Option<CExpr>,
}

/// Name resolution at compile time: aliases to (table, offset) over the
/// concatenated row, mirroring the interpreter's `Scope`.
struct CScope<'a> {
    entries: Vec<(String, &'a Table, usize)>,
    width: usize,
}

impl<'a> CScope<'a> {
    fn new() -> Self {
        CScope { entries: Vec::new(), width: 0 }
    }

    fn add(&mut self, alias: &str, table: &'a Table) {
        let offset = self.width;
        self.width += table.schema().columns().len();
        self.entries.push((alias.to_string(), table, offset));
    }

    fn resolve(&self, col: &ColRef) -> SqlResult<usize> {
        match &col.table {
            Some(t) => {
                let (_, table, offset) = self
                    .entries
                    .iter()
                    .find(|(a, _, _)| a == t)
                    .ok_or_else(|| SqlError::UnknownTable(t.clone()))?;
                let idx = table
                    .schema()
                    .column_index(&col.column)
                    .ok_or_else(|| SqlError::UnknownColumn(format!("{t}.{}", col.column)))?;
                Ok(offset + idx)
            }
            None => {
                let mut found = None;
                for (_, table, offset) in &self.entries {
                    if let Some(idx) = table.schema().column_index(&col.column) {
                        if found.is_some() {
                            return Err(SqlError::AmbiguousColumn(col.column.clone()));
                        }
                        found = Some(offset + idx);
                    }
                }
                found.ok_or_else(|| SqlError::UnknownColumn(col.column.clone()))
            }
        }
    }

    fn star_columns(&self, alias: Option<&str>) -> SqlResult<(Vec<usize>, Vec<String>)> {
        let mut idxs = Vec::new();
        let mut names = Vec::new();
        let mut matched = false;
        for (a, table, offset) in &self.entries {
            if alias.is_none() || alias == Some(a.as_str()) {
                matched = true;
                for (i, c) in table.schema().columns().iter().enumerate() {
                    idxs.push(offset + i);
                    names.push(c.name().to_string());
                }
            }
        }
        if !matched {
            return Err(SqlError::UnknownTable(alias.unwrap_or("*").to_string()));
        }
        Ok((idxs, names))
    }
}

fn compile_expr(e: &Expr, scope: Option<&CScope<'_>>) -> SqlResult<CExpr> {
    Ok(match e {
        Expr::Lit(v) => CExpr::Lit(v.clone()),
        Expr::Param(i) => CExpr::Param(*i),
        Expr::Col(c) => {
            let scope = scope.ok_or_else(|| {
                SqlError::Unsupported(format!("column '{}' in row-free context", c.column))
            })?;
            CExpr::Col(scope.resolve(c)?)
        }
        Expr::Neg(e) => CExpr::Neg(Box::new(compile_expr(e, scope)?)),
        Expr::Not(e) => CExpr::Not(Box::new(compile_expr(e, scope)?)),
        Expr::Binary { op, lhs, rhs } => CExpr::Binary {
            op: *op,
            lhs: Box::new(compile_expr(lhs, scope)?),
            rhs: Box::new(compile_expr(rhs, scope)?),
        },
        Expr::Like { expr, pattern, negated } => CExpr::Like {
            expr: Box::new(compile_expr(expr, scope)?),
            pattern: Box::new(compile_expr(pattern, scope)?),
            negated: *negated,
        },
        Expr::Between { expr, lo, hi } => CExpr::Between {
            expr: Box::new(compile_expr(expr, scope)?),
            lo: Box::new(compile_expr(lo, scope)?),
            hi: Box::new(compile_expr(hi, scope)?),
        },
        Expr::InList { expr, list } => CExpr::InList {
            expr: Box::new(compile_expr(expr, scope)?),
            list: list.iter().map(|i| compile_expr(i, scope)).collect::<SqlResult<_>>()?,
        },
        Expr::IsNull { expr, negated } => {
            CExpr::IsNull { expr: Box::new(compile_expr(expr, scope)?), negated: *negated }
        }
        Expr::Agg { .. } => {
            return Err(SqlError::Unsupported("aggregate outside of SELECT output".into()))
        }
    })
}

/// A combined row the executor can read without materializing it: either a
/// contiguous slice (single-table paths, UPDATE/DELETE) or a tuple of row
/// ids resolved through the plan's column map (join paths). Copyable, so
/// expression evaluation passes it around like the old `&[Value]`.
#[derive(Clone, Copy)]
enum RowView<'a> {
    /// One table's row, columns addressed directly.
    Slice(&'a [Value]),
    /// A join tuple: one live row id per table slot; column `i` resolves
    /// via `col_map[i]` to (slot, column-in-table).
    Tuple { tables: &'a [&'a Table], col_map: &'a [(u32, u32)], rids: &'a [RowId] },
}

impl RowView<'_> {
    fn get(&self, i: usize) -> &Value {
        match self {
            RowView::Slice(row) => &row[i],
            RowView::Tuple { tables, col_map, rids } => {
                let (slot, col) = col_map[i];
                let slot = slot as usize;
                &tables[slot].get(rids[slot]).expect("live row")[col as usize]
            }
        }
    }
}

/// Evaluates a compiled expression; mirrors the interpreter's `eval`
/// (including SQL NULL short-circuit semantics) with column access reduced
/// to an index into the combined row view.
fn ceval(expr: &CExpr, row: Option<RowView<'_>>, params: &[Value]) -> SqlResult<Value> {
    match expr {
        CExpr::Lit(v) => Ok(v.clone()),
        CExpr::Param(i) => params.get(*i).cloned().ok_or(SqlError::MissingParam(*i)),
        CExpr::Col(i) => {
            let row = row
                .ok_or_else(|| SqlError::Unsupported(format!("column #{i} in row-free context")))?;
            Ok(row.get(*i).clone())
        }
        CExpr::Neg(e) => {
            let v = ceval(e, row, params)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                other => Err(SqlError::TypeMismatch {
                    expected: "number",
                    found: other.type_name().to_string(),
                }),
            }
        }
        CExpr::Not(e) => {
            let v = ceval(e, row, params)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Int(!v.is_truthy() as i64))
            }
        }
        CExpr::Binary { op, lhs, rhs } => match op {
            BinOp::And => {
                let l = ceval(lhs, row, params)?;
                if !l.is_null() && !l.is_truthy() {
                    return Ok(Value::Int(0));
                }
                let r = ceval(rhs, row, params)?;
                if !r.is_null() && !r.is_truthy() {
                    return Ok(Value::Int(0));
                }
                if l.is_null() || r.is_null() {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(1))
                }
            }
            BinOp::Or => {
                let l = ceval(lhs, row, params)?;
                if l.is_truthy() {
                    return Ok(Value::Int(1));
                }
                let r = ceval(rhs, row, params)?;
                if r.is_truthy() {
                    return Ok(Value::Int(1));
                }
                if l.is_null() || r.is_null() {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(0))
                }
            }
            BinOp::Add => ceval(lhs, row, params)?.add(&ceval(rhs, row, params)?),
            BinOp::Sub => ceval(lhs, row, params)?.sub(&ceval(rhs, row, params)?),
            BinOp::Mul => ceval(lhs, row, params)?.mul(&ceval(rhs, row, params)?),
            BinOp::Div => ceval(lhs, row, params)?.div(&ceval(rhs, row, params)?),
            cmp => {
                let l = ceval(lhs, row, params)?;
                let r = ceval(rhs, row, params)?;
                Ok(compare(*cmp, &l, &r))
            }
        },
        CExpr::Like { expr, pattern, negated } => {
            let v = ceval(expr, row, params)?;
            let p = ceval(pattern, row, params)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let m = v.like(&p)?;
            Ok(Value::Int((m != *negated) as i64))
        }
        CExpr::Between { expr, lo, hi } => {
            let v = ceval(expr, row, params)?;
            let l = ceval(lo, row, params)?;
            let h = ceval(hi, row, params)?;
            if v.is_null() || l.is_null() || h.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Int((v >= l && v <= h) as i64))
        }
        CExpr::InList { expr, list } => {
            let v = ceval(expr, row, params)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            for item in list {
                let c = ceval(item, row, params)?;
                if !c.is_null() && c == v {
                    return Ok(Value::Int(1));
                }
            }
            Ok(Value::Int(0))
        }
        CExpr::IsNull { expr, negated } => {
            let v = ceval(expr, row, params)?;
            Ok(Value::Int((v.is_null() != *negated) as i64))
        }
    }
}

/// Chooses the access-path shape from WHERE conjuncts; same preference
/// order as the interpreter's `choose_path` (primary-key equality,
/// secondary equality, indexed range, full scan), but key expressions stay
/// unevaluated so parameters bind at execute time. The shape depends only
/// on column positions and the schema, never on parameter values, so
/// choosing it once is exact.
fn compile_path(table: &Table, alias: &str, conj: &[&Expr]) -> SqlResult<CPath> {
    let pk = table.schema().primary_key();
    let mut best_eq: Option<(usize, CExpr)> = None;
    let mut best_range: Option<(usize, CBound, CBound)> = None;

    for e in conj {
        match e {
            Expr::Binary { op, lhs, rhs } if op.is_comparison() => {
                let (col, op, konst) = match (&**lhs, &**rhs) {
                    (Expr::Col(c), k) if is_const(k) => (c, *op, k),
                    (k, Expr::Col(c)) if is_const(k) => (c, flip(*op), k),
                    _ => continue,
                };
                let Some(pos) = col_on_table(col, alias, table) else {
                    continue;
                };
                if !table.has_index_on(pos) {
                    continue;
                }
                let key = compile_expr(konst, None)?;
                match op {
                    BinOp::Eq => {
                        let better = match &best_eq {
                            None => true,
                            Some((cur, _)) => pk == Some(pos) && pk != Some(*cur),
                        };
                        if better {
                            best_eq = Some((pos, key));
                        }
                    }
                    BinOp::Lt => {
                        merge_range(&mut best_range, pos, CBound::Unbounded, CBound::Excluded(key));
                    }
                    BinOp::Le => {
                        merge_range(&mut best_range, pos, CBound::Unbounded, CBound::Included(key));
                    }
                    BinOp::Gt => {
                        merge_range(&mut best_range, pos, CBound::Excluded(key), CBound::Unbounded);
                    }
                    BinOp::Ge => {
                        merge_range(&mut best_range, pos, CBound::Included(key), CBound::Unbounded);
                    }
                    _ => {}
                }
            }
            Expr::Between { expr, lo, hi } => {
                let Expr::Col(col) = &**expr else { continue };
                if !is_const(lo) || !is_const(hi) {
                    continue;
                }
                let Some(pos) = col_on_table(col, alias, table) else {
                    continue;
                };
                if !table.has_index_on(pos) {
                    continue;
                }
                let lov = compile_expr(lo, None)?;
                let hiv = compile_expr(hi, None)?;
                merge_range(&mut best_range, pos, CBound::Included(lov), CBound::Included(hiv));
            }
            _ => {}
        }
    }

    if let Some((col, key)) = best_eq {
        return Ok(CPath::IndexEq { col, key });
    }
    if let Some((col, lo, hi)) = best_range {
        return Ok(CPath::IndexRange { col, lo, hi });
    }
    Ok(CPath::FullScan)
}

fn merge_range(best: &mut Option<(usize, CBound, CBound)>, col: usize, lo: CBound, hi: CBound) {
    match best {
        Some((cur, cur_lo, cur_hi)) if *cur == col => {
            if !matches!(lo, CBound::Unbounded) {
                *cur_lo = lo;
            }
            if !matches!(hi, CBound::Unbounded) {
                *cur_hi = hi;
            }
        }
        Some(_) => {} // keep the first ranged column
        None => *best = Some((col, lo, hi)),
    }
}

/// Compiles a parsed statement against the current catalog.
pub(crate) fn compile(db: &Database, stmt: &Stmt) -> SqlResult<CompiledStmt> {
    let kind = match stmt {
        Stmt::Select(s) => CStmt::Select(compile_select(db, s)?),
        Stmt::Insert(i) => CStmt::Insert(compile_insert(db, i)?),
        Stmt::Update(u) => CStmt::Update(compile_update(db, u)?),
        Stmt::Delete(d) => CStmt::Delete(CDelete {
            table: db.table_id(&d.table)?,
            table_name: d.table.clone(),
            path: {
                let t = db.table(&d.table)?;
                let conj: Vec<&Expr> =
                    d.where_clause.as_ref().map(|w| conjuncts(w)).unwrap_or_default();
                compile_path(t, &d.table, &conj)?
            },
            filter: {
                let t = db.table(&d.table)?;
                let mut scope = CScope::new();
                scope.add(&d.table, t);
                d.where_clause.as_ref().map(|w| compile_expr(w, Some(&scope))).transpose()?
            },
        }),
        Stmt::LockTables(locks) => {
            for (t, _) in locks {
                db.table(t)?; // validate the tables exist
            }
            CStmt::LockTables(locks.clone())
        }
        Stmt::UnlockTables => CStmt::UnlockTables,
        Stmt::Begin => CStmt::Begin,
        Stmt::Commit => CStmt::Commit,
        Stmt::Rollback => CStmt::Rollback,
    };
    Ok(CompiledStmt { version: db.schema_version(), id: 0, kind })
}

fn compile_select(db: &Database, s: &SelectStmt) -> SqlResult<CSelect> {
    let mut read_tables = vec![s.from.name.clone()];
    for j in &s.joins {
        if !read_tables.contains(&j.table.name) {
            read_tables.push(j.table.name.clone());
        }
    }

    let base = db.table_id(&s.from.name)?;
    let base_table = db.table_at(base);
    let mut scope = CScope::new();
    scope.add(s.from.effective_alias(), base_table);
    let join_ids: Vec<usize> =
        s.joins.iter().map(|j| db.table_id(&j.table.name)).collect::<SqlResult<_>>()?;
    for (j, id) in s.joins.iter().zip(&join_ids) {
        scope.add(j.table.effective_alias(), db.table_at(*id));
    }

    let mut joins = Vec::new();
    for (jidx, (j, id)) in s.joins.iter().zip(&join_ids).enumerate() {
        let jt = db.table_at(*id);
        let mut partial = CScope::new();
        partial.add(s.from.effective_alias(), base_table);
        for (k, kid) in s.joins.iter().zip(&join_ids).take(jidx) {
            partial.add(k.table.effective_alias(), db.table_at(*kid));
        }
        let j_alias = j.table.effective_alias();
        let (outer_col, inner_col) = classify_join_cols(j, j_alias, jt, &partial)?;
        joins.push(CJoin {
            table: *id,
            outer_col,
            inner_col,
            inner_indexed: jt.has_index_on(inner_col),
        });
    }

    let conj: Vec<&Expr> = s.where_clause.as_ref().map(|w| conjuncts(w)).unwrap_or_default();
    let path = compile_path(base_table, s.from.effective_alias(), &conj)?;
    let filter = s.where_clause.as_ref().map(|w| compile_expr(w, Some(&scope))).transpose()?;

    let has_agg = s.group_by.is_some()
        || s.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_agg(),
            _ => false,
        });

    let mut columns = Vec::new();
    let proj = if has_agg {
        let mut items = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| expr_name(expr)));
                    items.push(match expr {
                        Expr::Agg { func, col } => CAggItem::Agg {
                            func: *func,
                            col: col.as_ref().map(|c| scope.resolve(c)).transpose()?,
                        },
                        other => CAggItem::Scalar(compile_expr(other, Some(&scope))?),
                    });
                }
                _ => return Err(SqlError::Unsupported("'*' in an aggregate SELECT".into())),
            }
        }
        let group_by = match &s.group_by {
            Some(c) => Some(scope.resolve(c)?),
            None => None,
        };
        CProjKind::Agg { items, group_by }
    } else {
        let mut plan = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Star => {
                    let (idxs, names) = scope.star_columns(None)?;
                    columns.extend(names);
                    plan.push(CProj::Cols(idxs));
                }
                SelectItem::TableStar(t) => {
                    let (idxs, names) = scope.star_columns(Some(t))?;
                    columns.extend(names);
                    plan.push(CProj::Cols(idxs));
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| expr_name(expr)));
                    plan.push(CProj::Expr(compile_expr(expr, Some(&scope))?));
                }
            }
        }
        CProjKind::Plain(plan)
    };

    // ORDER BY: over source rows for plain SELECTs (keys may reference
    // non-projected columns and select aliases), over output columns for
    // aggregates.
    let mut order_source = Vec::new();
    let mut order_output = Vec::new();
    if has_agg {
        for k in &s.order_by {
            let idx = match &k.expr {
                Expr::Col(c) if c.table.is_none() => columns.iter().position(|n| *n == c.column),
                Expr::Agg { .. } => s.items.iter().enumerate().find_map(|(i, item)| match item {
                    SelectItem::Expr { expr, .. } if *expr == k.expr => Some(i),
                    _ => None,
                }),
                _ => None,
            };
            let idx = idx.ok_or_else(|| {
                SqlError::Unsupported(
                    "ORDER BY in aggregate SELECT must name an output column".into(),
                )
            })?;
            order_output.push((idx, k.desc));
        }
    } else {
        for k in &s.order_by {
            let expr = match &k.expr {
                Expr::Col(c) if c.table.is_none() => {
                    let aliased = s.items.iter().find_map(|i| match i {
                        SelectItem::Expr { expr, alias: Some(a) } if *a == c.column => {
                            Some(expr.clone())
                        }
                        _ => None,
                    });
                    aliased.unwrap_or_else(|| k.expr.clone())
                }
                _ => k.expr.clone(),
            };
            order_source.push((compile_expr(&expr, Some(&scope))?, k.desc));
        }
    }

    let mut col_map = Vec::with_capacity(scope.width);
    for (slot, (_, table, _)) in scope.entries.iter().enumerate() {
        for ci in 0..table.schema().columns().len() {
            col_map.push((slot as u32, ci as u32));
        }
    }

    Ok(CSelect {
        base,
        path,
        joins,
        filter,
        proj,
        order_source,
        order_output,
        limit: s.limit,
        read_tables,
        columns,
        col_map,
    })
}

/// Resolves the ON clause exactly as the interpreter does: returns (column
/// position in the combined row so far, column position in the joined
/// table).
fn classify_join_cols(
    j: &Join,
    j_alias: &str,
    jt: &Table,
    outer_scope: &CScope<'_>,
) -> SqlResult<(usize, usize)> {
    let on_joined = |c: &ColRef| -> Option<usize> {
        match &c.table {
            Some(t) if t == j_alias => jt.schema().column_index(&c.column),
            Some(_) => None,
            None => jt.schema().column_index(&c.column),
        }
    };
    if let Some(inner) = on_joined(&j.right) {
        if let Ok(outer) = outer_scope.resolve(&j.left) {
            return Ok((outer, inner));
        }
    }
    if let Some(inner) = on_joined(&j.left) {
        if let Ok(outer) = outer_scope.resolve(&j.right) {
            return Ok((outer, inner));
        }
    }
    Err(SqlError::Unsupported(format!(
        "JOIN ON must equate an earlier table's column with {j_alias}'s column"
    )))
}

fn compile_insert(db: &Database, i: &InsertStmt) -> SqlResult<CInsert> {
    let table_id = db.table_id(&i.table)?;
    let table = db.table_at(table_id);
    let n_columns = table.schema().columns().len();
    let values: Vec<CExpr> =
        i.values.iter().map(|e| compile_expr(e, None)).collect::<SqlResult<_>>()?;
    let shape = match &i.columns {
        None => {
            if values.len() != n_columns {
                return Err(SqlError::Constraint(format!(
                    "INSERT supplies {} values for {} columns",
                    values.len(),
                    n_columns
                )));
            }
            CInsertShape::Full(values)
        }
        Some(cols) => {
            if cols.len() != values.len() {
                return Err(SqlError::Constraint("INSERT column/value count mismatch".into()));
            }
            let mut pairs = Vec::with_capacity(cols.len());
            for (c, v) in cols.iter().zip(values) {
                let idx = table
                    .schema()
                    .column_index(c)
                    .ok_or_else(|| SqlError::UnknownColumn(c.clone()))?;
                pairs.push((idx, v));
            }
            CInsertShape::Sparse(pairs)
        }
    };
    Ok(CInsert { table: table_id, table_name: i.table.clone(), n_columns, shape })
}

fn compile_update(db: &Database, u: &UpdateStmt) -> SqlResult<CUpdate> {
    let table_id = db.table_id(&u.table)?;
    let table = db.table_at(table_id);
    let conj: Vec<&Expr> = u.where_clause.as_ref().map(|w| conjuncts(w)).unwrap_or_default();
    let path = compile_path(table, &u.table, &conj)?;
    let mut scope = CScope::new();
    scope.add(&u.table, table);
    let filter = u.where_clause.as_ref().map(|w| compile_expr(w, Some(&scope))).transpose()?;
    let sets = u
        .sets
        .iter()
        .map(|(c, e)| {
            let idx =
                table.schema().column_index(c).ok_or_else(|| SqlError::UnknownColumn(c.clone()))?;
            Ok((idx, compile_expr(e, Some(&scope))?))
        })
        .collect::<SqlResult<_>>()?;
    Ok(CUpdate { table: table_id, table_name: u.table.clone(), path, filter, sets })
}

/// Executes a compiled statement; the entry point `Database::execute` uses
/// after a plan-cache hit or a fresh compilation.
pub(crate) fn exec_compiled(
    db: &mut Database,
    c: &CompiledStmt,
    params: &[Value],
) -> SqlResult<QueryResult> {
    match &c.kind {
        CStmt::Select(s) => exec_cselect(db, s, params),
        CStmt::Insert(i) => exec_cinsert(db, i, params),
        CStmt::Update(u) => exec_cupdate(db, u, params),
        CStmt::Delete(d) => exec_cdelete(db, d, params),
        CStmt::LockTables(locks) => {
            Ok(QueryResult::empty(StatementKind::LockTables(locks.clone())))
        }
        CStmt::UnlockTables => Ok(QueryResult::empty(StatementKind::UnlockTables)),
        CStmt::Begin => db.exec_txn_control(StatementKind::Begin),
        CStmt::Commit => db.exec_txn_control(StatementKind::Commit),
        CStmt::Rollback => db.exec_txn_control(StatementKind::Rollback),
    }
}

/// The executor's late-materialized working set: row ids only, values stay
/// in the base tables until projection. Join results are flat tuples of one
/// `RowId` per table (`stride` ids per logical row), so filtering, sorting,
/// and limiting shuffle machine words instead of cloned `Value` rows.
enum RowSet<'a> {
    /// No-join fast path: a stream of row ids over one table.
    Single { table: &'a Table, ids: Vec<RowId> },
    /// Join result: `tuples.len() / stride` logical rows, each `stride`
    /// consecutive row ids (one per table slot, in scope order).
    Joined { tables: Vec<&'a Table>, col_map: &'a [(u32, u32)], stride: usize, tuples: Vec<RowId> },
}

impl RowSet<'_> {
    fn len(&self) -> usize {
        match self {
            RowSet::Single { ids, .. } => ids.len(),
            RowSet::Joined { stride, tuples, .. } => tuples.len() / stride,
        }
    }

    fn view(&self, i: usize) -> RowView<'_> {
        match self {
            RowSet::Single { table, ids } => RowView::Slice(table.get(ids[i]).expect("live row")),
            RowSet::Joined { tables, col_map, stride, tuples } => {
                RowView::Tuple { tables, col_map, rids: &tuples[i * stride..(i + 1) * stride] }
            }
        }
    }

    /// Keeps only the positions in `keep` (ascending).
    fn select(&mut self, keep: &[usize]) {
        match self {
            RowSet::Single { ids, .. } => {
                let mut i = 0;
                let mut k = 0;
                ids.retain(|_| {
                    let keep_this = k < keep.len() && keep[k] == i;
                    if keep_this {
                        k += 1;
                    }
                    i += 1;
                    keep_this
                });
            }
            RowSet::Joined { stride, tuples, .. } => {
                let mut out = Vec::with_capacity(keep.len() * *stride);
                for &i in keep {
                    out.extend_from_slice(&tuples[i * *stride..(i + 1) * *stride]);
                }
                *tuples = out;
            }
        }
    }

    /// Reorders to `order` (positions into the current set; may be a strict
    /// subset when a top-K sort already discarded rows past the window).
    fn reorder(&mut self, order: &[usize]) {
        match self {
            RowSet::Single { ids, .. } => {
                *ids = order.iter().map(|i| ids[*i]).collect();
            }
            RowSet::Joined { stride, tuples, .. } => {
                let mut out = Vec::with_capacity(order.len() * *stride);
                for &i in order {
                    out.extend_from_slice(&tuples[i * *stride..(i + 1) * *stride]);
                }
                *tuples = out;
            }
        }
    }

    fn limit(&mut self, limit: Option<(u64, u64)>) {
        match self {
            RowSet::Single { ids, .. } => apply_limit(ids, limit),
            RowSet::Joined { stride, tuples, .. } => {
                if let Some((offset, count)) = limit {
                    let n = tuples.len() / *stride;
                    let offset = usize::try_from(offset).unwrap_or(usize::MAX);
                    let count = usize::try_from(count).unwrap_or(usize::MAX);
                    if offset >= n {
                        tuples.clear();
                        return;
                    }
                    tuples.truncate(offset.saturating_add(count).min(n) * *stride);
                    if offset > 0 {
                        *tuples = tuples.split_off(offset * *stride);
                    }
                }
            }
        }
    }
}

/// The physical inner side of one equality join. All variants produce the
/// same matches in the same order, and the caller charges the modeled
/// counters identically for each — the variants differ only in host cost.
enum JoinProbe<'a> {
    /// B-tree probe per outer row; cheapest when the outer side is tiny.
    Index { jt: &'a Table, col: usize },
    /// Hash table snapshotted from the index in one pass (preserves the
    /// index's per-key row-id order, so results match `Index` exactly).
    HashIdx(HashMap<&'a Value, &'a [RowId]>),
    /// Hash table built from a scan of an unindexed inner (per-key ids in
    /// scan order, matching what a scan per outer row would find).
    HashScan(HashMap<&'a Value, Vec<RowId>>),
    /// Single scan of an unindexed inner; only worth it for one outer row.
    Scan { jt: &'a Table, col: usize },
}

impl<'a> JoinProbe<'a> {
    fn build(
        jt: &'a Table,
        inner_col: usize,
        inner_indexed: bool,
        n_outer: usize,
    ) -> JoinProbe<'a> {
        if inner_indexed {
            // Building costs one pass over the index's keys; probing the
            // B-tree costs O(log keys) per outer row. Build only when the
            // probe side is large enough to amortize it.
            if n_outer >= 32 && n_outer.saturating_mul(8) >= jt.index_cardinality(inner_col) {
                JoinProbe::HashIdx(jt.index_groups(inner_col).collect())
            } else {
                JoinProbe::Index { jt, col: inner_col }
            }
        } else if n_outer > 1 {
            let mut map: HashMap<&'a Value, Vec<RowId>> = HashMap::new();
            for (rid, row) in jt.scan() {
                map.entry(&row[inner_col]).or_default().push(rid);
            }
            JoinProbe::HashScan(map)
        } else {
            JoinProbe::Scan { jt, col: inner_col }
        }
    }
}

/// Pushes into a bounded binary max-heap (array form, `heap[0]` largest)
/// keeping the `k` smallest items under `cmp`, which must be a total order.
/// After feeding all n items and sorting the survivors, the result is
/// exactly the first `k` rows a full stable sort would produce, in
/// O(n log k) with only `k` decorated rows alive.
fn heap_push<T>(heap: &mut Vec<T>, item: T, k: usize, cmp: &impl Fn(&T, &T) -> Ordering) {
    if k == 0 {
        return;
    }
    if heap.len() < k {
        heap.push(item);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp(&heap[i], &heap[parent]) == Ordering::Greater {
                heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    } else if cmp(&item, &heap[0]) == Ordering::Less {
        heap[0] = item;
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < heap.len() && cmp(&heap[l], &heap[m]) == Ordering::Greater {
                m = l;
            }
            if r < heap.len() && cmp(&heap[r], &heap[m]) == Ordering::Greater {
                m = r;
            }
            if m == i {
                break;
            }
            heap.swap(i, m);
            i = m;
        }
    }
}

/// The number of leading sorted rows the LIMIT window can expose:
/// `offset + count` saturating, capped at `n`. `None` means all rows.
fn limit_window(limit: Option<(u64, u64)>, n: usize) -> usize {
    match limit {
        Some((offset, count)) => {
            let offset = usize::try_from(offset).unwrap_or(usize::MAX);
            let count = usize::try_from(count).unwrap_or(usize::MAX);
            offset.saturating_add(count).min(n)
        }
        None => n,
    }
}

fn exec_cselect(db: &Database, c: &CSelect, params: &[Value]) -> SqlResult<QueryResult> {
    let mut counters = QueryCounters::default();
    let base_table = db.table_at(c.base);
    let path = c.path.bind(params)?;
    let base_ids = candidate_rows(base_table, &path, &mut counters);

    let mut rows = if c.joins.is_empty() {
        RowSet::Single { table: base_table, ids: base_ids }
    } else {
        // Late-materialized joins: grow flat RowId tuples one table at a
        // time. The counters are charged per outer row with the modeled
        // nested-index-loop formula regardless of the probe strategy.
        let mut tables: Vec<&Table> = Vec::with_capacity(1 + c.joins.len());
        tables.push(base_table);
        let mut tuples: Vec<RowId> = base_ids;
        let mut stride = 1usize;
        for cj in &c.joins {
            let jt = db.table_at(cj.table);
            let (oslot, ocol) = c.col_map[cj.outer_col];
            let (oslot, ocol) = (oslot as usize, ocol as usize);
            let n_outer = tuples.len() / stride;
            let probe = JoinProbe::build(jt, cj.inner_col, cj.inner_indexed, n_outer);
            let mut next: Vec<RowId> = Vec::with_capacity(tuples.len() + n_outer);
            for tuple in tuples.chunks_exact(stride) {
                let key = &tables[oslot].get(tuple[oslot]).expect("live row")[ocol];
                let scratch: Vec<RowId>;
                let matches: &[RowId] = match &probe {
                    JoinProbe::Index { jt, col } => {
                        scratch = jt.index_lookup(*col, key);
                        &scratch
                    }
                    JoinProbe::HashIdx(map) => map.get(key).copied().unwrap_or(&[]),
                    JoinProbe::HashScan(map) => map.get(key).map(Vec::as_slice).unwrap_or(&[]),
                    JoinProbe::Scan { jt, col } => {
                        scratch = jt
                            .scan()
                            .filter(|(_, r)| &r[*col] == key)
                            .map(|(rid, _)| rid)
                            .collect();
                        &scratch
                    }
                };
                if cj.inner_indexed {
                    counters.index_lookups += 1;
                }
                counters.rows_examined += matches.len().max(1) as u64;
                for &rid in matches {
                    next.extend_from_slice(tuple);
                    next.push(rid);
                }
            }
            tables.push(jt);
            tuples = next;
            stride += 1;
        }
        RowSet::Joined { tables, col_map: &c.col_map, stride, tuples }
    };

    // Residual filter.
    if let Some(f) = &c.filter {
        let mut keep = Vec::with_capacity(rows.len());
        for i in 0..rows.len() {
            if ceval(f, Some(rows.view(i)), params)?.is_truthy() {
                keep.push(i);
            }
        }
        rows.select(&keep);
    }

    let out_rows = match &c.proj {
        CProjKind::Agg { items, group_by } => {
            // Single-pass hash aggregation: one walk over the source rows
            // folds every accumulator; groups are then emitted in ascending
            // key order, matching the interpreter's BTreeMap grouping.
            // Every source row lands in exactly one group, so the total
            // charged to rows_examined is unchanged.
            counters.rows_examined += rows.len() as u64;
            let mut out: Vec<Vec<Value>>;
            match group_by {
                Some(gc) => {
                    let mut groups: HashMap<Value, GroupAcc> = HashMap::new();
                    for i in 0..rows.len() {
                        let row = rows.view(i);
                        let key = row.get(*gc).clone();
                        groups
                            .entry(key)
                            .or_insert_with(|| GroupAcc::new(items, i))
                            .fold(items, row);
                    }
                    let mut entries: Vec<(Value, GroupAcc)> = groups.into_iter().collect();
                    // Keys are unique, so the unstable sort is deterministic.
                    entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
                    out = Vec::with_capacity(entries.len());
                    for (_, g) in &entries {
                        out.push(g.finalize(items, &rows, params)?);
                    }
                }
                None => {
                    // A global aggregate always yields one row, even over
                    // zero input rows (COUNT(*) = 0).
                    let mut g = GroupAcc::new(items, 0);
                    for i in 0..rows.len() {
                        g.fold(items, rows.view(i));
                    }
                    out = vec![g.finalize(items, &rows, params)?];
                }
            }
            if !c.order_output.is_empty() {
                counters.sort_rows += out.len() as u64;
                let n = out.len();
                let k = limit_window(c.limit, n);
                let cmp = |a: &(Vec<Value>, usize), b: &(Vec<Value>, usize)| {
                    for (idx, desc) in &c.order_output {
                        let ord = a.0[*idx].cmp(&b.0[*idx]);
                        let ord = if *desc { ord.reverse() } else { ord };
                        if ord != Ordering::Equal {
                            return ord;
                        }
                    }
                    // Position tie-break = the stable sort the interpreter
                    // runs, preserving ascending-group-key order among ties.
                    a.1.cmp(&b.1)
                };
                let mut decorated: Vec<(Vec<Value>, usize)> =
                    Vec::with_capacity(k.min(n).saturating_add(1));
                for (i, row) in out.into_iter().enumerate() {
                    if k >= n {
                        decorated.push((row, i));
                    } else {
                        heap_push(&mut decorated, (row, i), k, &cmp);
                    }
                }
                decorated.sort_by(|a, b| cmp(a, b));
                out = decorated.into_iter().map(|(row, _)| row).collect();
            }
            apply_limit(&mut out, c.limit);
            out
        }
        CProjKind::Plain(plan) => {
            if !c.order_source.is_empty() {
                // The full input is charged to the sort counter — the model
                // sorts everything — but physically only the LIMIT window's
                // rows are kept in the top-K heap.
                counters.sort_rows += rows.len() as u64;
                let n = rows.len();
                let k = limit_window(c.limit, n);
                let cmp = |a: &(Vec<Value>, usize), b: &(Vec<Value>, usize)| {
                    for ((av, bv), (_, desc)) in a.0.iter().zip(&b.0).zip(&c.order_source) {
                        let ord = av.cmp(bv);
                        let ord = if *desc { ord.reverse() } else { ord };
                        if ord != Ordering::Equal {
                            return ord;
                        }
                    }
                    a.1.cmp(&b.1) // stable tie-break on position
                };
                let mut decorated: Vec<(Vec<Value>, usize)> =
                    Vec::with_capacity(k.min(n).saturating_add(1));
                for i in 0..n {
                    let row = rows.view(i);
                    let kv: Vec<Value> = c
                        .order_source
                        .iter()
                        .map(|(e, _)| ceval(e, Some(row), params))
                        .collect::<SqlResult<_>>()?;
                    if k >= n {
                        decorated.push((kv, i));
                    } else {
                        heap_push(&mut decorated, (kv, i), k, &cmp);
                    }
                }
                decorated.sort_by(|a, b| cmp(a, b));
                let order: Vec<usize> = decorated.into_iter().map(|(_, i)| i).collect();
                rows.reorder(&order);
            }
            rows.limit(c.limit);
            // Projection: the only point values are cloned.
            let mut out = Vec::with_capacity(rows.len());
            for i in 0..rows.len() {
                let row = rows.view(i);
                let mut o = Vec::with_capacity(c.columns.len());
                for p in plan {
                    match p {
                        CProj::Cols(cols) => o.extend(cols.iter().map(|ci| row.get(*ci).clone())),
                        CProj::Expr(e) => o.push(ceval(e, Some(row), params)?),
                    }
                }
                out.push(o);
            }
            out
        }
    };

    counters.rows_returned += out_rows.len() as u64;
    counters.bytes_returned += out_rows
        .iter()
        .map(|r| r.iter().map(Value::wire_size).sum::<u64>() + 4 * r.len() as u64)
        .sum::<u64>();

    Ok(QueryResult {
        columns: c.columns.clone(),
        rows: out_rows,
        affected: 0,
        last_insert_id: None,
        counters,
        read_tables: c.read_tables.clone(),
        write_tables: Vec::new(),
        kind: StatementKind::Read,
    })
}

/// One aggregate accumulator, folded in a single pass over a group's rows.
/// Tie-breaking and overflow semantics replicate the interpreter's
/// collect-then-fold implementation exactly: MAX keeps the *last* of equal
/// maxima and MIN the *first* of equal minima (observable when an Int and a
/// Float compare equal), and SUM raises the integer-overflow error only
/// when every input value is an Int.
enum Acc {
    /// COUNT(*) — answered from the group's row count.
    CountStar,
    /// COUNT(col): non-null values seen.
    Count(i64),
    Max(Option<Value>),
    Min(Option<Value>),
    /// SUM/AVG: non-null count, all-int flag, checked integer total (None
    /// after overflow), and the float total over numeric values.
    Sum {
        n: u64,
        all_int: bool,
        int: Option<i64>,
        float: f64,
    },
    /// Non-aggregate item — evaluated on the group's first row at the end.
    Scalar,
}

impl Acc {
    fn new(item: &CAggItem) -> Acc {
        use crate::ast::AggFunc;
        match item {
            CAggItem::Scalar(_) => Acc::Scalar,
            // Any aggregate over `*` counts the group's rows.
            CAggItem::Agg { col: None, .. } => Acc::CountStar,
            CAggItem::Agg { func: AggFunc::Count, .. } => Acc::Count(0),
            CAggItem::Agg { func: AggFunc::Max, .. } => Acc::Max(None),
            CAggItem::Agg { func: AggFunc::Min, .. } => Acc::Min(None),
            CAggItem::Agg { func: AggFunc::Sum | AggFunc::Avg, .. } => {
                Acc::Sum { n: 0, all_int: true, int: Some(0), float: 0.0 }
            }
        }
    }
}

/// All accumulators for one group, plus the first row (for scalar items).
struct GroupAcc {
    first: usize,
    rows: u64,
    accs: Vec<Acc>,
}

impl GroupAcc {
    fn new(items: &[CAggItem], first: usize) -> GroupAcc {
        GroupAcc { first, rows: 0, accs: items.iter().map(Acc::new).collect() }
    }

    fn fold(&mut self, items: &[CAggItem], row: RowView<'_>) {
        self.rows += 1;
        for (acc, item) in self.accs.iter_mut().zip(items) {
            let CAggItem::Agg { col: Some(cidx), .. } = item else { continue };
            let v = row.get(*cidx);
            if v.is_null() {
                continue;
            }
            match acc {
                Acc::Count(n) => *n += 1,
                Acc::Max(cur) => {
                    let better = match cur {
                        None => true,
                        Some(c) => v >= c,
                    };
                    if better {
                        *cur = Some(v.clone());
                    }
                }
                Acc::Min(cur) => {
                    let better = match cur {
                        None => true,
                        Some(c) => v < c,
                    };
                    if better {
                        *cur = Some(v.clone());
                    }
                }
                Acc::Sum { n, all_int, int, float } => {
                    *n += 1;
                    if let Some(f) = v.as_float() {
                        *float += f;
                    }
                    match v {
                        Value::Int(i) => *int = int.and_then(|acc| acc.checked_add(*i)),
                        _ => *all_int = false,
                    }
                }
                Acc::CountStar | Acc::Scalar => {}
            }
        }
    }

    fn finalize(
        &self,
        items: &[CAggItem],
        rows: &RowSet<'_>,
        params: &[Value],
    ) -> SqlResult<Vec<Value>> {
        use crate::ast::AggFunc;
        let mut orow = Vec::with_capacity(items.len());
        for (acc, item) in self.accs.iter().zip(items) {
            orow.push(match acc {
                Acc::CountStar => Value::Int(self.rows as i64),
                Acc::Count(n) => Value::Int(*n),
                Acc::Max(cur) | Acc::Min(cur) => cur.clone().unwrap_or(Value::Null),
                Acc::Sum { n, all_int, int, float } => {
                    if *n == 0 {
                        Value::Null
                    } else {
                        let CAggItem::Agg { func, .. } = item else {
                            unreachable!("sum acc comes from an agg item")
                        };
                        if *all_int && *func == AggFunc::Sum {
                            match int {
                                Some(total) => Value::Int(*total),
                                None => {
                                    return Err(SqlError::Arithmetic("SUM overflow".into()));
                                }
                            }
                        } else if *func == AggFunc::Sum {
                            Value::Float(*float)
                        } else {
                            Value::Float(*float / *n as f64)
                        }
                    }
                }
                Acc::Scalar => {
                    let CAggItem::Scalar(e) = item else {
                        unreachable!("scalar acc comes from a scalar item")
                    };
                    if self.rows == 0 {
                        Value::Null
                    } else {
                        ceval(e, Some(rows.view(self.first)), params)?
                    }
                }
            });
        }
        Ok(orow)
    }
}

fn exec_cinsert(db: &mut Database, i: &CInsert, params: &[Value]) -> SqlResult<QueryResult> {
    let mut counters = QueryCounters::default();
    let row = match &i.shape {
        CInsertShape::Full(values) => {
            values.iter().map(|e| ceval(e, None, params)).collect::<SqlResult<Vec<Value>>>()?
        }
        CInsertShape::Sparse(pairs) => {
            let mut row = vec![Value::Null; i.n_columns];
            for (idx, e) in pairs {
                row[*idx] = ceval(e, None, params)?;
            }
            row
        }
    };
    let n_indexes = db.table_at(i.table).schema().indexes().len() as u64;
    let (_, assigned) = db.insert_into(i.table, row)?;
    counters.rows_written += 1;
    counters.index_lookups += 1 + n_indexes;
    Ok(QueryResult {
        columns: Vec::new(),
        rows: Vec::new(),
        affected: 1,
        last_insert_id: assigned,
        counters,
        read_tables: Vec::new(),
        write_tables: vec![i.table_name.clone()],
        kind: StatementKind::Write,
    })
}

fn exec_cupdate(db: &mut Database, u: &CUpdate, params: &[Value]) -> SqlResult<QueryResult> {
    let mut counters = QueryCounters::default();
    let table = db.table_at(u.table);
    let path = u.path.bind(params)?;
    let candidates = candidate_rows(table, &path, &mut counters);

    // Filter and compute new rows immutably, then apply; SET expressions
    // see the old row.
    let mut updates: Vec<(RowId, Vec<Value>)> = Vec::new();
    for rid in candidates {
        let Some(row) = table.get(rid) else { continue };
        if let Some(f) = &u.filter {
            if !ceval(f, Some(RowView::Slice(row)), params)?.is_truthy() {
                continue;
            }
        }
        let mut new_row = row.to_vec();
        for (idx, e) in &u.sets {
            new_row[*idx] = ceval(e, Some(RowView::Slice(row)), params)?;
        }
        updates.push((rid, new_row));
    }
    let affected = updates.len() as u64;
    for (rid, new_row) in updates {
        db.update_row(u.table, rid, new_row)?;
        counters.rows_written += 1;
    }
    Ok(QueryResult {
        columns: Vec::new(),
        rows: Vec::new(),
        affected,
        last_insert_id: None,
        counters,
        read_tables: Vec::new(),
        write_tables: vec![u.table_name.clone()],
        kind: StatementKind::Write,
    })
}

fn exec_cdelete(db: &mut Database, d: &CDelete, params: &[Value]) -> SqlResult<QueryResult> {
    let mut counters = QueryCounters::default();
    let table = db.table_at(d.table);
    let path = d.path.bind(params)?;
    let candidates = candidate_rows(table, &path, &mut counters);

    let mut doomed: Vec<RowId> = Vec::new();
    for rid in candidates {
        let Some(row) = table.get(rid) else { continue };
        if let Some(f) = &d.filter {
            if !ceval(f, Some(RowView::Slice(row)), params)?.is_truthy() {
                continue;
            }
        }
        doomed.push(rid);
    }
    let affected = doomed.len() as u64;
    for rid in doomed {
        db.delete_row(d.table, rid)?;
        counters.rows_written += 1;
    }
    Ok(QueryResult {
        columns: Vec::new(),
        rows: Vec::new(),
        affected,
        last_insert_id: None,
        counters,
        read_tables: Vec::new(),
        write_tables: vec![d.table_name.clone()],
        kind: StatementKind::Write,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_stmt;
    use crate::parser::parse;
    use crate::schema::{ColumnType, TableSchema};

    /// A small auction-shaped catalog matching the executor fixtures.
    fn auction_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("users")
                .column("id", ColumnType::Int)
                .column("nickname", ColumnType::Str)
                .column("region", ColumnType::Int)
                .primary_key("id")
                .auto_increment()
                .index("region")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("items")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Str)
                .column("seller", ColumnType::Int)
                .column("category", ColumnType::Int)
                .column("max_bid", ColumnType::Float)
                .column("nb_of_bids", ColumnType::Int)
                .primary_key("id")
                .auto_increment()
                .index("seller")
                .index("category")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("bids")
                .column("id", ColumnType::Int)
                .column("item_id", ColumnType::Int)
                .column("user_id", ColumnType::Int)
                .column("bid", ColumnType::Float)
                .column("qty", ColumnType::Int)
                .primary_key("id")
                .auto_increment()
                .index("item_id")
                .index("user_id")
                .build()
                .unwrap(),
        )
        .unwrap();
        for (nick, region) in [("ann", 1), ("bob", 1), ("cat", 2)] {
            db.execute(
                "INSERT INTO users (id, nickname, region) VALUES (NULL, ?, ?)",
                &[Value::str(nick), Value::Int(region)],
            )
            .unwrap();
        }
        for (name, seller, cat, max_bid, nb) in [
            ("lamp", 1, 10, 25.0, 3),
            ("desk", 1, 20, 80.0, 1),
            ("book", 2, 10, 5.0, 0),
            ("vase", 3, 10, 12.0, 2),
        ] {
            db.execute(
                "INSERT INTO items (id, name, seller, category, max_bid, nb_of_bids) \
                 VALUES (NULL, ?, ?, ?, ?, ?)",
                &[
                    Value::str(name),
                    Value::Int(seller),
                    Value::Int(cat),
                    Value::Float(max_bid),
                    Value::Int(nb),
                ],
            )
            .unwrap();
        }
        for (item, user, bid, qty) in [
            (1, 2, 20.0, 1),
            (1, 3, 22.5, 1),
            (1, 2, 25.0, 2),
            (2, 3, 80.0, 1),
            (4, 1, 12.0, 1),
            (4, 2, 11.0, 3),
        ] {
            db.execute(
                "INSERT INTO bids (id, item_id, user_id, bid, qty) VALUES (NULL, ?, ?, ?, ?)",
                &[Value::Int(item), Value::Int(user), Value::Float(bid), Value::Int(qty)],
            )
            .unwrap();
        }
        db
    }

    /// Queries covering every plan shape: point/secondary/range access,
    /// joins, aggregates, sorting, limits, expressions, writes.
    fn battery() -> Vec<(&'static str, Vec<Value>)> {
        vec![
            ("SELECT * FROM items WHERE id = ?", vec![Value::Int(2)]),
            ("SELECT * FROM items WHERE category = 10 ORDER BY id", vec![]),
            ("SELECT name FROM items WHERE id > 1 AND id <= 3", vec![]),
            ("SELECT name FROM items WHERE id BETWEEN ? AND ?", vec![Value::Int(1), Value::Int(3)]),
            ("SELECT * FROM items WHERE name = 'desk'", vec![]),
            (
                "SELECT i.name, u.nickname FROM items i \
                 INNER JOIN users u ON i.seller = u.id WHERE i.category = 10",
                vec![],
            ),
            (
                "SELECT u.nickname, i.name, b.bid FROM bids b \
                 JOIN items i ON b.item_id = i.id \
                 JOIN users u ON b.user_id = u.id \
                 WHERE b.qty > 0 ORDER BY b.bid DESC LIMIT 2",
                vec![],
            ),
            (
                "SELECT item_id, SUM(qty) AS total, COUNT(*) AS n, MAX(bid) AS top \
                 FROM bids GROUP BY item_id ORDER BY total DESC",
                vec![],
            ),
            ("SELECT COUNT(*), MAX(bid), SUM(qty) FROM bids WHERE bid > 1000", vec![]),
            ("SELECT AVG(qty), MIN(bid) FROM bids WHERE item_id = 1", vec![]),
            ("SELECT name, category AS cat FROM items ORDER BY cat, name DESC", vec![]),
            ("SELECT id FROM items ORDER BY id LIMIT 1, 2", vec![]),
            ("SELECT u.* FROM items i JOIN users u ON i.seller = u.id WHERE i.id = 1", vec![]),
            (
                "SELECT name, max_bid * 2 AS doubled FROM items \
                 WHERE max_bid + 1 > 13 ORDER BY doubled",
                vec![],
            ),
            ("SELECT name FROM items WHERE name LIKE '%a%' ORDER BY name", vec![]),
            ("SELECT name FROM items WHERE category IN (20, 30)", vec![]),
            ("SELECT name FROM items WHERE NULL = NULL", vec![]),
            (
                "SELECT i.name, b.bid FROM items i JOIN bids b ON i.id = b.item_id \
                 ORDER BY b.bid LIMIT 2, 3",
                vec![],
            ),
            ("SELECT id FROM items ORDER BY id LIMIT 2, 0", vec![]),
            ("SELECT id FROM items ORDER BY id LIMIT 9, 4", vec![]),
            (
                "SELECT item_id, COUNT(*) AS n FROM bids GROUP BY item_id \
                 ORDER BY n DESC LIMIT 1, 1",
                vec![],
            ),
            (
                "SELECT user_id, MIN(bid), AVG(qty) FROM bids GROUP BY user_id \
                 ORDER BY user_id LIMIT 2",
                vec![],
            ),
            (
                "SELECT i.name, b.qty FROM items i JOIN bids b ON i.nb_of_bids = b.qty \
                 ORDER BY i.id, b.id",
                vec![],
            ),
            (
                "SELECT i.name, b.qty FROM items i JOIN bids b ON i.nb_of_bids = b.qty \
                 WHERE i.id = 1",
                vec![],
            ),
            (
                "UPDATE items SET nb_of_bids = nb_of_bids + 1, max_bid = ? WHERE id = ?",
                vec![Value::Float(30.0), Value::Int(1)],
            ),
            ("DELETE FROM bids WHERE item_id = ?", vec![Value::Int(4)]),
            ("INSERT INTO users (id, nickname, region) VALUES (NULL, 'zed', 7)", vec![]),
            ("INSERT INTO users VALUES (99, 'yak', 8)", vec![]),
            ("SELECT COUNT(*) FROM bids", vec![]),
            ("LOCK TABLES users WRITE, items READ", vec![]),
            ("UNLOCK TABLES", vec![]),
        ]
    }

    /// The compiled path must produce byte-identical results — rows,
    /// columns, lock sets, and every counter — to the AST interpreter, on
    /// reads and writes alike.
    #[test]
    fn compiled_matches_interpreter_on_battery() {
        let mut compiled_db = auction_db();
        let mut interp_db = auction_db();
        for (sql, params) in battery() {
            let got = compiled_db.execute(sql, &params).expect(sql);
            let stmt = parse(sql).unwrap();
            let want = execute_stmt(&mut interp_db, &stmt, &params).expect(sql);
            assert_eq!(got, want, "divergence on {sql}");
        }
    }

    /// Warm plan-cache executions are identical to cold ones.
    #[test]
    fn warm_plan_equals_cold_plan() {
        let mut warm = auction_db();
        for (sql, params) in battery() {
            // Prime the cache (skip writes: they mutate state).
            if sql.starts_with("SELECT") {
                warm.execute(sql, &params).unwrap();
            }
        }
        let mut cold = warm.clone();
        cold.clear_caches();
        for (sql, params) in battery() {
            if !sql.starts_with("SELECT") {
                continue;
            }
            let w = warm.execute(sql, &params).unwrap();
            let c = cold.execute(sql, &params).unwrap();
            assert_eq!(w, c, "warm/cold divergence on {sql}");
        }
    }

    /// DDL bumps the schema version and invalidates cached plans; the
    /// recompiled plan still answers correctly and the stats record the
    /// invalidation.
    #[test]
    fn ddl_invalidates_plans() {
        let mut db = auction_db();
        let sql = "SELECT nickname FROM users WHERE id = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        db.execute(sql, &[Value::Int(2)]).unwrap();
        let before = db.stats();
        assert!(before.plan_cache_hits >= 1);

        db.create_table(
            TableSchema::builder("regions")
                .column("id", ColumnType::Int)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();

        let r = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(r.rows[0][0], Value::str("ann"));
        let after = db.stats();
        assert_eq!(after.plan_invalidations - before.plan_invalidations, 1);
        // And the freshly compiled plan is hit again afterwards.
        db.execute(sql, &[Value::Int(3)]).unwrap();
        assert_eq!(db.stats().plan_cache_hits, after.plan_cache_hits + 1);
    }

    /// One plan serves all parameter bindings.
    #[test]
    fn parameters_bind_into_cached_plan() {
        let mut db = auction_db();
        let before = db.stats().plan_cache_hits;
        let sql = "SELECT name FROM items WHERE id = ?";
        let names: Vec<String> = (1..=4)
            .map(|i| {
                db.execute(sql, &[Value::Int(i)]).unwrap().rows[0][0].as_str().unwrap().to_string()
            })
            .collect();
        assert_eq!(names, vec!["lamp", "desk", "book", "vase"]);
        // 3 of the 4 executions reused the plan.
        assert_eq!(db.stats().plan_cache_hits - before, 3);
    }

    /// Compile errors are not cached: each call recompiles and reports.
    #[test]
    fn compile_errors_surface_every_call() {
        let mut db = auction_db();
        let before = db.stats().errors;
        assert!(db.execute("SELECT zz FROM users", &[]).is_err());
        assert!(db.execute("SELECT zz FROM users", &[]).is_err());
        assert_eq!(db.stats().errors, before + 2);
        // A bind-time error on a cached plan also reports per call.
        db.execute("SELECT * FROM users WHERE id = ?", &[Value::Int(1)]).unwrap();
        assert!(db.execute("SELECT * FROM users WHERE id = ?", &[]).is_err());
        assert!(matches!(
            db.execute("SELECT * FROM users WHERE id = ?", &[]).unwrap_err(),
            SqlError::MissingParam(0)
        ));
    }
}
