//! # The reference executor: the specification of `QueryCounters`
//!
//! A deliberately naive executor for the SQL subset, written against
//! `dynamid_sqldb`'s public API only. It is the oracle that the compiled
//! executor behind `Database::execute` is compared with, statement by
//! statement: the same rows in the same order (cell by cell, `Int` and
//! `Float` told apart), the same column names, lock sets and statement
//! kind, and the same `QueryCounters`, hence the same modeled cost. Every
//! row is materialized, joins are nested loops, WHERE is evaluated row by
//! row, groups live in a `BTreeMap`, ORDER BY is one stable sort and LIMIT
//! is `skip`/`take`. There is no plan cache, hash join or top-K heap, and
//! nothing here touches `DbStats` or the caches.
//!
//! ## Access path
//!
//! A statement reads its base table (a SELECT's FROM table, an UPDATE's or
//! DELETE's target) the way MySQL 3.23 with MyISAM reads it. The choice
//! comes from the top-level AND conjuncts of WHERE that compare an indexed
//! column of that table with a constant (literals and `?` parameters under
//! arithmetic), either way round:
//!
//! 1. an equality `col = c`: on the primary key if there is one, else the
//!    first;
//! 2. otherwise a range (`<`, `<=`, `>`, `>=`, `col BETWEEN c1 AND c2`) on
//!    the first column that has one; a later bound on that column replaces
//!    an earlier one on the same side;
//! 3. otherwise a full scan.
//!
//! An index read returns row ids in index order: ascending key, and within
//! one secondary key, the order the rows entered it. A scan returns slot
//! order. Either order is part of the result wherever ORDER BY leaves it
//! open, and slot reuse and re-keyed rows change it. Index reads come from
//! `Table::index_lookup` and `Table::index_range`, and each is asserted
//! equal, as a set, to a scan for the same predicate.
//!
//! A `JOIN t ON a = b` equates a column of an earlier table with one of
//! `t` (`b` is tried as `t`'s column first). It is a nested index loop: per
//! outer row, one probe of `t`'s index on that column, or a scan of `t`
//! when the column has none; matches come in index or slot order.
//!
//! ## Counters
//!
//! | counter | charged |
//! |---|---|
//! | `index_lookups` | 1 per index read of the access path; 1 per outer row of each join whose inner column is indexed; 1 + the number of secondary indexes per INSERT |
//! | `rows_examined` | each row id the access path returns; per outer row of each join, its number of matches, or 1 when there are none; in an aggregate SELECT, each row that reaches grouping |
//! | `sort_rows` | under ORDER BY, every row sorted: the rows that pass WHERE, or an aggregate's groups, whatever the LIMIT |
//! | `rows_returned` | each row left after LIMIT |
//! | `bytes_returned` | per returned row, the `Value::wire_size` of its cells plus 4 per column |
//! | `rows_written` | each row inserted, updated or deleted |
//!
//! Statements without data (`LOCK TABLES`, `UNLOCK TABLES`) charge nothing.
//!
//! ## Results
//!
//! - WHERE keeps a row when it evaluates to a true value; NULL is not true.
//! - Groups come out in ascending key order. A SELECT with aggregates and
//!   no GROUP BY returns one row, even over no rows. A non-aggregate item
//!   takes its value from the group's first row, or NULL for no rows.
//! - COUNT counts non-NULL values, `COUNT(*)` rows. MIN returns the first
//!   of equal minima and MAX the last of equal maxima, which shows when an
//!   `Int` and a `Float` compare equal. SUM is an `Int` when every value is
//!   one, and an overflow is then an error; otherwise SUM, like AVG, is a
//!   `Float`. Over no non-NULL values, all but COUNT are NULL.
//! - A plain SELECT orders its source rows, so ORDER BY may name a column
//!   that is not projected or a select alias. An aggregate SELECT orders
//!   its output rows by an output name or a repeated aggregate. Ties keep
//!   their earlier order.
//! - UPDATE computes every new row from the old rows before it writes any.
//!   Writes run in autocommit only.

use dynamid_sqldb::ast::{
    AggFunc, BinOp, ColRef, Expr, InsertStmt, Join, SelectItem, SelectStmt, Stmt,
};
use dynamid_sqldb::{
    parse, Database, QueryCounters, QueryResult, RowId, SqlError, SqlResult, StatementKind, Table,
    Value,
};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

/// Parses `sql`, binds `params` and executes the statement as the module
/// docs specify.
pub fn run(db: &mut Database, sql: &str, params: &[Value]) -> SqlResult<QueryResult> {
    let stmt = parse(sql)?;
    assert!(!(stmt.is_write() && db.in_txn()), "the reference writes in autocommit only");
    match stmt {
        Stmt::Select(s) => select(db, &s, params),
        Stmt::Insert(i) => insert(db, &i, params),
        Stmt::Update(u) => modify(db, &u.table, Some(&u.sets), u.where_clause.as_ref(), params),
        Stmt::Delete(d) => modify(db, &d.table, None, d.where_clause.as_ref(), params),
        Stmt::LockTables(locks) => {
            for (t, _) in &locks {
                db.table(t)?;
            }
            Ok(outcome(StatementKind::LockTables(locks), QueryCounters::default()))
        }
        Stmt::UnlockTables => Ok(outcome(StatementKind::UnlockTables, QueryCounters::default())),
        other => Err(SqlError::Unsupported(format!("{other:?} outside autocommit"))),
    }
}

fn outcome(kind: StatementKind, counters: QueryCounters) -> QueryResult {
    QueryResult {
        columns: Vec::new(),
        rows: Vec::new(),
        affected: 0,
        last_insert_id: None,
        counters,
        read_tables: Vec::new(),
        write_tables: Vec::new(),
        kind,
    }
}

/// The tables of a statement in FROM, JOIN order: alias, table and the
/// position of its first column in the concatenated row.
struct Scope<'a>(Vec<(&'a str, &'a Table, usize)>);

impl<'a> Scope<'a> {
    fn push(&mut self, alias: &'a str, table: &'a Table) {
        let width = self.0.last().map_or(0, |(_, t, at)| at + t.schema().columns().len());
        self.0.push((alias, table, width));
    }

    /// A qualified name must match an alias; a bare one exactly one table.
    fn resolve(&self, c: &ColRef) -> SqlResult<usize> {
        if let Some(alias) = &c.table {
            let (_, t, at) = self
                .0
                .iter()
                .find(|(a, ..)| a == alias)
                .ok_or_else(|| SqlError::UnknownTable(alias.clone()))?;
            let col = t.schema().column_index(&c.column);
            return col
                .map(|i| at + i)
                .ok_or_else(|| SqlError::UnknownColumn(format!("{alias}.{}", c.column)));
        }
        let mut hits = self
            .0
            .iter()
            .filter_map(|(_, t, at)| t.schema().column_index(&c.column).map(|i| at + i));
        match (hits.next(), hits.next()) {
            (Some(i), None) => Ok(i),
            (Some(_), Some(_)) => Err(SqlError::AmbiguousColumn(c.column.clone())),
            (None, _) => Err(SqlError::UnknownColumn(c.column.clone())),
        }
    }

    /// The `(name, position)` of every column of `alias`, or of every
    /// table for `*`.
    fn star(&self, alias: Option<&str>) -> SqlResult<Vec<(String, Output)>> {
        let cols: Vec<(String, Output)> = self
            .0
            .iter()
            .filter(|(a, ..)| alias.is_none_or(|x| x == *a))
            .flat_map(|(_, t, at)| {
                let names = t.schema().columns().iter().map(|c| c.name().to_string());
                names.enumerate().map(move |(i, name)| (name, Output::Cell(at + i)))
            })
            .collect();
        if cols.is_empty() {
            return Err(SqlError::UnknownTable(alias.unwrap_or("*").to_string()));
        }
        Ok(cols)
    }
}

/// One output column of a plain SELECT.
enum Output {
    Cell(usize),
    Expr(Expr),
}

fn truth(b: bool) -> Value {
    Value::Int(b as i64)
}

/// Evaluates `e` over one concatenated row, or over none for a constant.
fn eval(e: &Expr, row: Option<(&Scope, &[Value])>, params: &[Value]) -> SqlResult<Value> {
    let ev = |x: &Expr| eval(x, row, params);
    let is_false = |v: &Value| !v.is_null() && !v.is_truthy();
    Ok(match e {
        Expr::Lit(v) => v.clone(),
        Expr::Param(i) => params.get(*i).cloned().ok_or(SqlError::MissingParam(*i))?,
        Expr::Col(c) => match row {
            Some((scope, row)) => row[scope.resolve(c)?].clone(),
            None => {
                let msg = format!("column '{}' in row-free context", c.column);
                return Err(SqlError::Unsupported(msg));
            }
        },
        Expr::Neg(x) => match ev(x)? {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            other => {
                let found = other.type_name().to_string();
                return Err(SqlError::TypeMismatch { expected: "number", found });
            }
        },
        Expr::Not(x) => match ev(x)? {
            Value::Null => Value::Null,
            v => truth(!v.is_truthy()),
        },
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            let l = ev(lhs)?;
            if is_false(&l) {
                return Ok(truth(false));
            }
            let r = ev(rhs)?;
            if is_false(&r) {
                truth(false)
            } else if l.is_null() || r.is_null() {
                Value::Null
            } else {
                truth(true)
            }
        }
        Expr::Binary { op: BinOp::Or, lhs, rhs } => {
            let l = ev(lhs)?;
            if l.is_truthy() {
                return Ok(truth(true));
            }
            let r = ev(rhs)?;
            if r.is_truthy() {
                truth(true)
            } else if l.is_null() || r.is_null() {
                Value::Null
            } else {
                truth(false)
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (ev(lhs)?, ev(rhs)?);
            match op {
                BinOp::Add => l.add(&r)?,
                BinOp::Sub => l.sub(&r)?,
                BinOp::Mul => l.mul(&r)?,
                BinOp::Div => l.div(&r)?,
                _ if l.is_null() || r.is_null() => Value::Null,
                BinOp::Eq => truth(l == r),
                BinOp::Ne => truth(l != r),
                BinOp::Lt => truth(l < r),
                BinOp::Le => truth(l <= r),
                BinOp::Gt => truth(l > r),
                BinOp::Ge => truth(l >= r),
                BinOp::And | BinOp::Or => unreachable!("matched above"),
            }
        }
        Expr::Like { expr, pattern, negated } => {
            let (v, p) = (ev(expr)?, ev(pattern)?);
            if v.is_null() || p.is_null() {
                Value::Null
            } else {
                truth(v.like(&p)? != *negated)
            }
        }
        Expr::Between { expr, lo, hi } => {
            let (v, lo, hi) = (ev(expr)?, ev(lo)?, ev(hi)?);
            if v.is_null() || lo.is_null() || hi.is_null() {
                Value::Null
            } else {
                truth(lo <= v && v <= hi)
            }
        }
        Expr::InList { expr, list } => {
            let v = ev(expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            for item in list {
                let c = ev(item)?;
                if !c.is_null() && c == v {
                    return Ok(truth(true));
                }
            }
            truth(false)
        }
        Expr::IsNull { expr, negated } => truth(ev(expr)?.is_null() != *negated),
        Expr::Agg { .. } => {
            return Err(SqlError::Unsupported("aggregate outside of SELECT output".into()));
        }
    })
}

fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            conjuncts(lhs, out);
            conjuncts(rhs, out);
        }
        other => out.push(other),
    }
}

/// Literals and parameters under arithmetic.
fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Neg(x) => is_const(x),
        Expr::Binary { op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, lhs, rhs } => {
            is_const(lhs) && is_const(rhs)
        }
        _ => false,
    }
}

/// The WHERE conjuncts that can drive an index read of `t`, in order, as
/// `(column, operator, constant)` with the column on the left.
fn index_predicates(
    t: &Table,
    alias: &str,
    w: Option<&Expr>,
    params: &[Value],
) -> SqlResult<Vec<(usize, BinOp, Value)>> {
    let mut conj = Vec::new();
    if let Some(w) = w {
        conjuncts(w, &mut conj);
    }
    let mut out = Vec::new();
    for e in conj {
        let preds = match e {
            Expr::Binary { op, lhs, rhs } if op.is_comparison() => match (&**lhs, &**rhs) {
                (Expr::Col(c), k) if is_const(k) => vec![(c, *op, k)],
                (k, Expr::Col(c)) if is_const(k) => {
                    let flipped = match op {
                        BinOp::Lt => BinOp::Gt,
                        BinOp::Le => BinOp::Ge,
                        BinOp::Gt => BinOp::Lt,
                        BinOp::Ge => BinOp::Le,
                        other => *other,
                    };
                    vec![(c, flipped, k)]
                }
                _ => vec![],
            },
            Expr::Between { expr, lo, hi } => match &**expr {
                Expr::Col(c) if is_const(lo) && is_const(hi) => {
                    vec![(c, BinOp::Ge, &**lo), (c, BinOp::Le, &**hi)]
                }
                _ => vec![],
            },
            _ => vec![],
        };
        for (c, op, k) in preds {
            let col = match c.table.as_deref() {
                Some(a) if a != alias => None,
                _ => t.schema().column_index(&c.column),
            };
            if let Some(col) = col.filter(|col| t.has_index_on(*col)) {
                out.push((col, op, eval(k, None, params)?));
            }
        }
    }
    Ok(out)
}

/// An index read of `t`, asserted equal as a set to a scan for the rows
/// whose `col` satisfies `keep`, and returned in index order.
fn checked(t: &Table, col: usize, ids: Vec<RowId>, keep: impl Fn(&Value) -> bool) -> Vec<RowId> {
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    let scanned: Vec<RowId> = t.scan().filter(|(_, r)| keep(&r[col])).map(|(rid, _)| rid).collect();
    assert_eq!(
        sorted,
        scanned,
        "index on column {col} of {} disagrees with a scan",
        t.schema().name()
    );
    ids
}

/// The base table's candidate row ids through the access path, charged.
fn candidates(
    t: &Table,
    alias: &str,
    w: Option<&Expr>,
    params: &[Value],
    c: &mut QueryCounters,
) -> SqlResult<Vec<RowId>> {
    let pk = t.schema().primary_key();
    let mut eq: Option<(usize, Value)> = None;
    let mut range: Option<(usize, Bound<Value>, Bound<Value>)> = None;
    for (col, op, key) in index_predicates(t, alias, w, params)? {
        let (lo, hi) = match op {
            BinOp::Eq => {
                if eq.as_ref().is_none_or(|(cur, _)| pk == Some(col) && pk != Some(*cur)) {
                    eq = Some((col, key));
                }
                continue;
            }
            BinOp::Lt => (Bound::Unbounded, Bound::Excluded(key)),
            BinOp::Le => (Bound::Unbounded, Bound::Included(key)),
            BinOp::Gt => (Bound::Excluded(key), Bound::Unbounded),
            BinOp::Ge => (Bound::Included(key), Bound::Unbounded),
            _ => continue,
        };
        match &mut range {
            None => range = Some((col, lo, hi)),
            Some((cur, cur_lo, cur_hi)) if *cur == col => {
                if lo != Bound::Unbounded {
                    *cur_lo = lo;
                }
                if hi != Bound::Unbounded {
                    *cur_hi = hi;
                }
            }
            Some(_) => {}
        }
    }
    let ids = if let Some((col, key)) = eq {
        c.index_lookups += 1;
        checked(t, col, t.index_lookup(col, &key), |v| *v == key)
    } else if let Some((col, lo, hi)) = &range {
        c.index_lookups += 1;
        let bounds = (lo.as_ref(), hi.as_ref());
        checked(t, *col, t.index_range(*col, bounds.0, bounds.1), |v| bounds.contains(v))
    } else {
        t.scan().map(|(rid, _)| rid).collect()
    };
    c.rows_examined += ids.len() as u64;
    Ok(ids)
}

/// The ON clause as (position in the rows joined so far, column of `t`).
fn join_columns(outer: &Scope, j: &Join, t: &Table) -> SqlResult<(usize, usize)> {
    let alias = j.table.effective_alias();
    let on_t = |c: &ColRef| match c.table.as_deref() {
        Some(a) if a != alias => None,
        _ => t.schema().column_index(&c.column),
    };
    for (mine, theirs) in [(&j.right, &j.left), (&j.left, &j.right)] {
        if let (Some(inner), Ok(outer)) = (on_t(mine), outer.resolve(theirs)) {
            return Ok((outer, inner));
        }
    }
    Err(SqlError::Unsupported(format!(
        "JOIN ON must equate an earlier table's column with {alias}'s column"
    )))
}

fn select(db: &Database, s: &SelectStmt, params: &[Value]) -> SqlResult<QueryResult> {
    let mut c = QueryCounters::default();
    let base = db.table(&s.from.name)?;
    let mut scope = Scope(Vec::new());
    scope.push(s.from.effective_alias(), base);
    let w = s.where_clause.as_ref();
    let ids = candidates(base, s.from.effective_alias(), w, params, &mut c)?;
    let mut rows: Vec<Vec<Value>> =
        ids.into_iter().map(|rid| base.get(rid).expect("live row").to_vec()).collect();
    let mut read_tables = vec![s.from.name.clone()];
    for j in &s.joins {
        let t = db.table(&j.table.name)?;
        let (outer, inner) = join_columns(&scope, j, t)?;
        let mut joined = Vec::new();
        for row in rows {
            let key = &row[outer];
            let matches: Vec<RowId> = if t.has_index_on(inner) {
                c.index_lookups += 1;
                checked(t, inner, t.index_lookup(inner, key), |v| v == key)
            } else {
                t.scan().filter(|(_, r)| r[inner] == *key).map(|(rid, _)| rid).collect()
            };
            c.rows_examined += matches.len().max(1) as u64;
            for rid in matches {
                joined.push([&row[..], t.get(rid).expect("live row")].concat());
            }
        }
        rows = joined;
        scope.push(j.table.effective_alias(), t);
        if !read_tables.contains(&j.table.name) {
            read_tables.push(j.table.name.clone());
        }
    }
    if let Some(w) = w {
        let mut kept = Vec::new();
        for row in rows {
            if eval(w, Some((&scope, &row)), params)?.is_truthy() {
                kept.push(row);
            }
        }
        rows = kept;
    }
    let aggregate = s.group_by.is_some()
        || s.items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_agg()));
    let (columns, rows) = if aggregate {
        grouped(s, &scope, rows, params, &mut c)?
    } else {
        plain(s, &scope, rows, params, &mut c)?
    };
    c.rows_returned = rows.len() as u64;
    c.bytes_returned =
        rows.iter().map(|r| r.iter().map(Value::wire_size).sum::<u64>() + 4 * r.len() as u64).sum();
    Ok(QueryResult { columns, rows, read_tables, ..outcome(StatementKind::Read, c) })
}

/// The one sort: stable, by `keys` under each ORDER BY key's direction,
/// then the LIMIT window. Charges every input row to `sort_rows`.
fn sort_window<T>(
    s: &SelectStmt,
    mut keyed: Vec<(Vec<Value>, T)>,
    c: &mut QueryCounters,
) -> Vec<T> {
    if !s.order_by.is_empty() {
        c.sort_rows += keyed.len() as u64;
    }
    keyed.sort_by(|(a, _), (b, _)| {
        let ords = a.iter().zip(b).zip(&s.order_by);
        ords.map(|((x, y), k)| if k.desc { y.cmp(x) } else { x.cmp(y) })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    let (offset, count) = s.limit.unwrap_or((0, u64::MAX));
    keyed.into_iter().skip(offset as usize).take(count as usize).map(|(_, row)| row).collect()
}

fn item_name(expr: &Expr, alias: &Option<String>) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Col(c) => c.column.clone(),
        Expr::Agg { func, col } => {
            let f = match func {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Max => "max",
                AggFunc::Min => "min",
                AggFunc::Avg => "avg",
            };
            format!("{f}({})", col.as_ref().map_or("*", |c| c.column.as_str()))
        }
        _ => "expr".to_string(),
    }
}

/// A SELECT without aggregates: sort the source rows, window, project.
fn plain(
    s: &SelectStmt,
    scope: &Scope,
    rows: Vec<Vec<Value>>,
    params: &[Value],
    c: &mut QueryCounters,
) -> SqlResult<(Vec<String>, Vec<Vec<Value>>)> {
    let mut outputs = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Star => outputs.extend(scope.star(None)?),
            SelectItem::TableStar(t) => outputs.extend(scope.star(Some(t))?),
            SelectItem::Expr { expr, alias } => {
                outputs.push((item_name(expr, alias), Output::Expr(expr.clone())));
            }
        }
    }
    // A bare ORDER BY name that is a select alias sorts by that item.
    let keys: Vec<&Expr> = s
        .order_by
        .iter()
        .map(|k| {
            let aliased = s.items.iter().find_map(|i| match (i, &k.expr) {
                (
                    SelectItem::Expr { expr, alias: Some(a) },
                    Expr::Col(ColRef { table: None, column }),
                ) if a == column => Some(expr),
                _ => None,
            });
            aliased.unwrap_or(&k.expr)
        })
        .collect();
    let mut keyed = Vec::with_capacity(rows.len());
    for row in rows {
        let key: Vec<Value> =
            keys.iter().map(|k| eval(k, Some((scope, &row)), params)).collect::<SqlResult<_>>()?;
        keyed.push((key, row));
    }
    let mut out = Vec::new();
    for row in sort_window(s, keyed, c) {
        let cell = |o: &Output| match o {
            Output::Cell(i) => Ok(row[*i].clone()),
            Output::Expr(e) => eval(e, Some((scope, &row)), params),
        };
        out.push(outputs.iter().map(|(_, o)| cell(o)).collect::<SqlResult<_>>()?);
    }
    Ok((outputs.into_iter().map(|(name, _)| name).collect(), out))
}

/// An aggregate SELECT: group, fold each item per group, then sort and
/// window the groups by output columns.
fn grouped(
    s: &SelectStmt,
    scope: &Scope,
    rows: Vec<Vec<Value>>,
    params: &[Value],
    c: &mut QueryCounters,
) -> SqlResult<(Vec<String>, Vec<Vec<Value>>)> {
    let mut items = Vec::new();
    let mut columns = Vec::new();
    for item in &s.items {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(SqlError::Unsupported("'*' in an aggregate SELECT".into()));
        };
        items.push(expr);
        columns.push(item_name(expr, alias));
    }
    let order: Vec<usize> = s
        .order_by
        .iter()
        .map(|k| {
            let found = match &k.expr {
                Expr::Col(ColRef { table: None, column }) => {
                    columns.iter().position(|n| n == column)
                }
                agg @ Expr::Agg { .. } => items.iter().position(|e| *e == agg),
                _ => None,
            };
            found.ok_or_else(|| {
                SqlError::Unsupported(
                    "ORDER BY in aggregate SELECT must name an output column".into(),
                )
            })
        })
        .collect::<SqlResult<_>>()?;
    let key = s.group_by.as_ref().map(|g| scope.resolve(g)).transpose()?;
    c.rows_examined += rows.len() as u64;
    let mut groups: BTreeMap<Value, Vec<Vec<Value>>> = BTreeMap::new();
    if key.is_none() {
        groups.insert(Value::Null, Vec::new());
    }
    for row in rows {
        groups.entry(key.map_or(Value::Null, |k| row[k].clone())).or_default().push(row);
    }
    let mut keyed = Vec::new();
    for group in groups.values() {
        let out: Vec<Value> =
            items.iter().map(|e| fold(e, scope, group, params)).collect::<SqlResult<_>>()?;
        keyed.push((order.iter().map(|i| out[*i].clone()).collect(), out));
    }
    Ok((columns, sort_window(s, keyed, c)))
}

/// One select item over one group's rows.
fn fold(e: &Expr, scope: &Scope, group: &[Vec<Value>], params: &[Value]) -> SqlResult<Value> {
    let Expr::Agg { func, col } = e else {
        return group.first().map_or(Ok(Value::Null), |row| eval(e, Some((scope, row)), params));
    };
    let Some(col) = col else {
        return Ok(Value::Int(group.len() as i64));
    };
    let at = scope.resolve(col)?;
    let values: Vec<Value> = group.iter().map(|r| r[at].clone()).filter(|v| !v.is_null()).collect();
    let n = values.len();
    Ok(match func {
        AggFunc::Count => Value::Int(n as i64),
        // `Iterator::min` returns the first of equal minima, `max` the last
        // of equal maxima.
        AggFunc::Min => values.into_iter().min().unwrap_or(Value::Null),
        AggFunc::Max => values.into_iter().max().unwrap_or(Value::Null),
        _ if n == 0 => Value::Null,
        AggFunc::Sum if values.iter().all(|v| matches!(v, Value::Int(_))) => {
            let total = values.iter().try_fold(0i64, |acc, v| acc.checked_add(v.as_int()?));
            Value::Int(total.ok_or_else(|| SqlError::Arithmetic("SUM overflow".into()))?)
        }
        AggFunc::Sum | AggFunc::Avg => {
            let total = values.iter().filter_map(Value::as_float).fold(0.0, |a, b| a + b);
            Value::Float(if *func == AggFunc::Sum { total } else { total / n as f64 })
        }
    })
}

fn insert(db: &mut Database, i: &InsertStmt, params: &[Value]) -> SqlResult<QueryResult> {
    let values = i.values.iter().map(|e| eval(e, None, params)).collect::<SqlResult<Vec<_>>>()?;
    let t = db.table_mut(&i.table)?;
    let width = t.schema().columns().len();
    let row = match &i.columns {
        None if values.len() == width => values,
        None => {
            let msg = format!("INSERT supplies {} values for {width} columns", values.len());
            return Err(SqlError::Constraint(msg));
        }
        Some(cols) if cols.len() != values.len() => {
            return Err(SqlError::Constraint("INSERT column/value count mismatch".into()));
        }
        Some(cols) => {
            let mut row = vec![Value::Null; width];
            for (name, v) in cols.iter().zip(values) {
                let at = t.schema().column_index(name);
                row[at.ok_or_else(|| SqlError::UnknownColumn(name.clone()))?] = v;
            }
            row
        }
    };
    let secondary = t.schema().indexes().len() as u64;
    let (_, last_insert_id) = t.insert(row)?;
    let c = QueryCounters { rows_written: 1, index_lookups: 1 + secondary, ..Default::default() };
    Ok(QueryResult {
        affected: 1,
        last_insert_id,
        write_tables: vec![i.table.clone()],
        ..outcome(StatementKind::Write, c)
    })
}

/// UPDATE (with `sets`) or DELETE (without): every row the access path
/// and WHERE select is decided, and every new row computed, before the
/// first write.
fn modify(
    db: &mut Database,
    table: &str,
    sets: Option<&[(String, Expr)]>,
    w: Option<&Expr>,
    params: &[Value],
) -> SqlResult<QueryResult> {
    let mut c = QueryCounters::default();
    let t = db.table(table)?;
    let scope = Scope(vec![(table, t, 0)]);
    let mut chosen = Vec::new();
    for rid in candidates(t, table, w, params, &mut c)? {
        let row = t.get(rid).expect("live row");
        if let Some(w) = w {
            if !eval(w, Some((&scope, row)), params)?.is_truthy() {
                continue;
            }
        }
        let Some(sets) = sets else {
            chosen.push((rid, None));
            continue;
        };
        let mut new_row = row.to_vec();
        for (name, e) in sets {
            let at = t.schema().column_index(name);
            new_row[at.ok_or_else(|| SqlError::UnknownColumn(name.clone()))?] =
                eval(e, Some((&scope, row)), params)?;
        }
        chosen.push((rid, Some(new_row)));
    }
    let t = db.table_mut(table)?;
    let affected = chosen.len() as u64;
    for (rid, new_row) in chosen {
        match new_row {
            Some(row) => t.update(rid, row)?,
            None => {
                t.delete(rid)?;
            }
        }
        c.rows_written += 1;
    }
    Ok(QueryResult {
        affected,
        write_tables: vec![table.to_string()],
        ..outcome(StatementKind::Write, c)
    })
}
