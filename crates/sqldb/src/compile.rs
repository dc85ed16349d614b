//! Compile-once query plans.
//!
//! Parsing a statement once and re-running its AST still pays name
//! resolution, access-path selection, and projection planning on *every*
//! call — and the benchmark applications execute the same handful of
//! parameterized statements millions of times per simulated run. This
//! module moves all of that to a one-time compilation step, and keeps each
//! decision it takes in one form, the one the executor uses:
//!
//! * column references are resolved to positions in the concatenated
//!   FROM + JOIN row (`CExpr::Col` holds a `usize`, not a name);
//! * the access-path *shape* (primary-key equality, secondary-index
//!   equality, index range, or full scan) is chosen from the WHERE
//!   conjuncts (`CPath`); its keys stay expressions, which may hold
//!   parameters, and are evaluated where the index is walked;
//! * the projection list, GROUP BY column, ORDER BY keys, join columns,
//!   output column names, and the read/write table sets (catalog ids) are
//!   all precomputed;
//! * each join's probe is fixed from the schema alone (`JoinProbe`): the
//!   inner table's primary key is probed in place with
//!   [`Table::pk_lookup`], a secondary index with one B-tree probe per
//!   outer row, and an unindexed inner column through a hash table built
//!   from one scan;
//! * execution is **late-materializing**: the working set is a stream of
//!   [`RowId`] tuples (one id per FROM/JOIN table), values are fetched from
//!   the base tables through a `RowView`, and rows are cloned only at
//!   projection time. `ORDER BY … LIMIT` keeps a bounded top-K heap instead
//!   of sorting everything, and GROUP BY folds aggregate accumulators in a
//!   single hash pass;
//! * WHERE is compiled into its top-level AND conjuncts (`CFilter`), run in
//!   source order. A comparison of two columns, parameters or literals and
//!   `column LIKE ?` (or a literal pattern) are kernels that compare
//!   borrowed cells, read through `(slot, column)` positions resolved at
//!   compile time; a LIKE pattern is classified once per execution. Every
//!   other conjunct goes through `ceval`, which also borrows its leaves.
//!   Which physical path runs is decided by the plan's shape, never by a
//!   setting.
//!
//! [`Database::execute`](crate::Database::execute) caches one
//! [`CompiledStmt`] per SQL text; a plan records the schema version it was
//! compiled against and is invalidated (recompiled) when DDL bumps the
//! version. This is the crate's only executor. [`QueryCounters`] — and
//! therefore the cost model — keep the paper's MyISAM nested-index-loop
//! charging no matter which physical strategy runs, so the strategies
//! change only host wall-clock. The charging rules are specified by the
//! naive reference executor in `tests/reference/mod.rs`, which
//! `tests/executor.rs` and `tests/proptests.rs` compare this executor
//! against: rows, order, columns, lock sets and every counter.

use crate::ast::{
    BinOp, ColRef, Expr, InsertStmt, Join, SelectItem, SelectStmt, Stmt, TableLockKind,
};
use crate::db::Database;
use crate::error::{SqlError, SqlResult};
use crate::exec::{QueryCounters, QueryResult, StatementKind};
use crate::table::{RowId, Table};
use crate::value::{LikePattern, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;

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
    pub(crate) fn read_tables(&self) -> Option<&[usize]> {
        let CStmt::Select(s) = &self.kind else { return None };
        Some(&s.read_tables)
    }

    /// Catalog ids of the tables the plan reads and writes, as its result
    /// reports them: what a held `LOCK TABLES` set must cover before it
    /// runs. `None` for `LOCK TABLES` itself, which may not nest.
    pub(crate) fn lock_needs(&self) -> Option<(&[usize], &[usize])> {
        match &self.kind {
            CStmt::Select(s) => Some((&s.read_tables, &[])),
            CStmt::Insert(CInsert { table, .. }) | CStmt::Modify(CModify { table, .. }) => {
                Some((&[], std::slice::from_ref(table)))
            }
            CStmt::LockTables(_) => None,
            CStmt::UnlockTables => Some((&[], &[])),
        }
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
    /// An UPDATE or a DELETE.
    Modify(CModify),
    /// Catalog ids, each at most once.
    LockTables(Vec<(usize, TableLockKind)>),
    UnlockTables,
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

/// How the executor locates one table's candidate rows. The keys stay
/// expressions (they may hold parameters) and are evaluated where the
/// index is walked.
#[derive(Debug)]
enum CPath {
    /// Visit every live row.
    FullScan,
    /// Probe the index on `col` with an equality key.
    IndexEq { col: usize, key: CExpr },
    /// Walk the index on `col` over a key range.
    IndexRange { col: usize, lo: Bound<CExpr>, hi: Bound<CExpr> },
}

#[derive(Debug)]
struct CJoin {
    /// Catalog id of the joined table.
    table: usize,
    /// Join-key position in the combined row built so far.
    outer_col: usize,
    /// Join-key position within the joined table.
    inner_col: usize,
    probe: JoinProbe,
}

/// How a join finds the inner rows matching one outer key, chosen at
/// compile time from the inner column's index alone. Every variant yields
/// the matches in the order the modeled nested index loop finds them
/// (index order, or slot order without an index), and the counters charge
/// that loop whichever variant runs: one index probe per outer row when
/// the column is indexed. A NULL outer key matches nothing on any variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinProbe {
    /// The inner column is the primary key: [`Table::pk_lookup`] in place,
    /// one array read on the dense index.
    Pk,
    /// A secondary index: one B-tree probe per outer row.
    Index,
    /// No index: a hash table built from one scan of the inner table per
    /// execution, each key's row ids in slot order.
    Hash,
}

impl JoinProbe {
    fn for_column(table: &Table, col: usize) -> JoinProbe {
        if table.schema().primary_key() == Some(col) {
            JoinProbe::Pk
        } else if table.has_index_on(col) {
            JoinProbe::Index
        } else {
            JoinProbe::Hash
        }
    }
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
    filter: CFilter,
    proj: CProjKind,
    /// Pre-projection sort keys (non-aggregate SELECTs).
    order_source: Vec<(CExpr, bool)>,
    /// Output-column sort keys (aggregate SELECTs).
    order_output: Vec<(usize, bool)>,
    limit: Option<(u64, u64)>,
    /// Catalog ids: the base table, then each joined table not yet listed.
    read_tables: Vec<usize>,
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
    n_columns: usize,
    shape: CInsertShape,
}

/// An UPDATE (`sets` present) or a DELETE: the rows the access path and
/// the filter choose in one table.
#[derive(Debug)]
struct CModify {
    table: usize,
    path: CPath,
    filter: CFilter,
    sets: Option<Vec<(usize, CExpr)>>,
}

/// Name resolution at compile time: aliases to (table, offset) over the
/// concatenated row. A qualified name must match an alias; an unqualified
/// one must exist in exactly one table.
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

    /// Combined-row position → (table slot, column within that table).
    fn col_map(&self) -> Vec<(u32, u32)> {
        let mut map = Vec::with_capacity(self.width);
        for (slot, (_, table, _)) in self.entries.iter().enumerate() {
            for ci in 0..table.schema().columns().len() {
                map.push((slot as u32, ci as u32));
            }
        }
        map
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

impl<'a> RowView<'a> {
    /// The cell at combined-row position `i`.
    fn get(self, i: usize) -> &'a Value {
        match self {
            RowView::Slice(row) => &row[i],
            RowView::Tuple { col_map, .. } => {
                let (slot, col) = col_map[i];
                self.cell(slot as usize, col as usize)
            }
        }
    }

    /// The cell at column `col` of table slot `slot` (always 0 for a
    /// slice).
    fn cell(self, slot: usize, col: usize) -> &'a Value {
        match self {
            RowView::Slice(row) => &row[col],
            RowView::Tuple { tables, rids, .. } => {
                &tables[slot].get(rids[slot]).expect("live row")[col]
            }
        }
    }
}

/// SQL comparison: `None` (NULL) when either operand is NULL.
fn compare(op: BinOp, l: &Value, r: &Value) -> Option<bool> {
    if l.is_null() || r.is_null() {
        return None;
    }
    let ord = l.cmp(r);
    Some(match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    })
}

fn truth(b: bool) -> Value {
    Value::Int(b as i64)
}

/// The cell at combined-row position `i`; an error without a row.
fn column(row: Option<RowView<'_>>, i: usize) -> SqlResult<&Value> {
    let row =
        row.ok_or_else(|| SqlError::Unsupported(format!("column #{i} in row-free context")))?;
    Ok(row.get(i))
}

/// An operand of `ceval`: a column, parameter or literal by reference,
/// anything else evaluated.
fn operand<'a>(
    expr: &'a CExpr,
    row: Option<RowView<'a>>,
    params: &'a [Value],
) -> SqlResult<Cow<'a, Value>> {
    Ok(match expr {
        CExpr::Lit(v) => Cow::Borrowed(v),
        CExpr::Param(i) => Cow::Borrowed(params.get(*i).ok_or(SqlError::MissingParam(*i))?),
        CExpr::Col(i) => Cow::Borrowed(column(row, *i)?),
        other => Cow::Owned(ceval(other, row, params)?),
    })
}

/// Evaluates a compiled expression with SQL's three-valued logic: AND and
/// OR short-circuit on a definite operand, and comparisons, NOT, LIKE,
/// BETWEEN and IN yield NULL on a NULL operand. Column access is an index
/// into the combined row view; columns, parameters and literals are read
/// by reference and cloned only when they are the result.
fn ceval(expr: &CExpr, row: Option<RowView<'_>>, params: &[Value]) -> SqlResult<Value> {
    let is_false = |v: &Value| !v.is_null() && !v.is_truthy();
    match expr {
        CExpr::Lit(v) => Ok(v.clone()),
        CExpr::Param(i) => params.get(*i).cloned().ok_or(SqlError::MissingParam(*i)),
        CExpr::Col(i) => column(row, *i).cloned(),
        CExpr::Neg(e) => match *operand(e, row, params)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            ref other => Err(SqlError::TypeMismatch {
                expected: "number",
                found: other.type_name().to_string(),
            }),
        },
        CExpr::Not(e) => {
            let v = operand(e, row, params)?;
            Ok(if v.is_null() { Value::Null } else { truth(!v.is_truthy()) })
        }
        CExpr::Binary { op, lhs, rhs } => {
            let l = operand(lhs, row, params)?;
            match op {
                BinOp::And if is_false(&l) => return Ok(truth(false)),
                BinOp::Or if l.is_truthy() => return Ok(truth(true)),
                _ => {}
            }
            let r = operand(rhs, row, params)?;
            match op {
                BinOp::And if is_false(&r) => Ok(truth(false)),
                BinOp::Or if r.is_truthy() => Ok(truth(true)),
                BinOp::And | BinOp::Or if l.is_null() || r.is_null() => Ok(Value::Null),
                BinOp::And => Ok(truth(true)),
                BinOp::Or => Ok(truth(false)),
                BinOp::Add => l.add(&r),
                BinOp::Sub => l.sub(&r),
                BinOp::Mul => l.mul(&r),
                BinOp::Div => l.div(&r),
                cmp => Ok(compare(*cmp, &l, &r).map_or(Value::Null, truth)),
            }
        }
        CExpr::Like { expr, pattern, negated } => {
            let v = operand(expr, row, params)?;
            let p = operand(pattern, row, params)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            Ok(truth(v.like(&p)? != *negated))
        }
        CExpr::Between { expr, lo, hi } => {
            let v = operand(expr, row, params)?;
            let l = operand(lo, row, params)?;
            let h = operand(hi, row, params)?;
            if v.is_null() || l.is_null() || h.is_null() {
                return Ok(Value::Null);
            }
            Ok(truth(v >= l && v <= h))
        }
        CExpr::InList { expr, list } => {
            let v = operand(expr, row, params)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            for item in list {
                let c = operand(item, row, params)?;
                if !c.is_null() && c == v {
                    return Ok(truth(true));
                }
            }
            Ok(truth(false))
        }
        CExpr::IsNull { expr, negated } => {
            Ok(truth(operand(expr, row, params)?.is_null() != *negated))
        }
    }
}

/// A WHERE clause compiled into its top-level AND conjuncts, in source
/// order; no WHERE is no conjunct.
#[derive(Debug, Default)]
struct CFilter(Vec<Conjunct>);

/// One conjunct. Two shapes are kernels that read their operands by
/// reference, columns through a `(slot, column)` position resolved at
/// compile time; every other conjunct runs through [`ceval`].
#[derive(Debug)]
enum Conjunct {
    /// A comparison of two leaves, either way round.
    Cmp {
        op: BinOp,
        lhs: Leaf,
        rhs: Leaf,
    },
    /// `column [NOT] LIKE pattern`, the pattern a parameter or literal.
    Like {
        slot: usize,
        col: usize,
        pattern: Leaf,
        negated: bool,
    },
    Expr(CExpr),
}

/// A kernel operand: a column at (table slot, column within that table),
/// a parameter or a literal.
#[derive(Debug)]
enum Leaf {
    Col { slot: usize, col: usize },
    Param(usize),
    Lit(Value),
}

impl Leaf {
    /// `Some` when `e` is a column, parameter or literal.
    fn compile(e: &Expr, scope: &CScope<'_>, col_map: &[(u32, u32)]) -> SqlResult<Option<Leaf>> {
        Ok(Some(match e {
            Expr::Col(c) => {
                let (slot, col) = col_map[scope.resolve(c)?];
                Leaf::Col { slot: slot as usize, col: col as usize }
            }
            Expr::Param(i) => Leaf::Param(*i),
            Expr::Lit(v) => Leaf::Lit(v.clone()),
            _ => return Ok(None),
        }))
    }

    fn get<'a>(&'a self, row: RowView<'a>, params: &'a [Value]) -> SqlResult<&'a Value> {
        match self {
            Leaf::Col { slot, col } => Ok(row.cell(*slot, *col)),
            Leaf::Param(i) => params.get(*i).ok_or(SqlError::MissingParam(*i)),
            Leaf::Lit(v) => Ok(v),
        }
    }
}

impl CFilter {
    fn compile(w: Option<&Expr>, scope: &CScope<'_>) -> SqlResult<CFilter> {
        let Some(w) = w else { return Ok(CFilter::default()) };
        let col_map = scope.col_map();
        let leaf = |e: &Expr| Leaf::compile(e, scope, &col_map);
        let mut out = Vec::new();
        for e in conjuncts(w) {
            // Leaves are resolved left to right, and a shape that is not a
            // kernel recompiles whole, so errors come in `compile_expr`'s
            // order.
            let kernel = match e {
                Expr::Binary { op, lhs, rhs } if op.is_comparison() => match leaf(lhs)? {
                    Some(l) => leaf(rhs)?.map(|r| Conjunct::Cmp { op: *op, lhs: l, rhs: r }),
                    None => None,
                },
                Expr::Like { expr, pattern, negated } => match leaf(expr)? {
                    Some(Leaf::Col { slot, col }) => match leaf(pattern)? {
                        Some(p @ (Leaf::Param(_) | Leaf::Lit(_))) => {
                            Some(Conjunct::Like { slot, col, pattern: p, negated: *negated })
                        }
                        _ => None,
                    },
                    _ => None,
                },
                _ => None,
            };
            out.push(match kernel {
                Some(k) => k,
                None => Conjunct::Expr(compile_expr(e, Some(scope))?),
            });
        }
        Ok(CFilter(out))
    }

    /// Binds the filter to one execution's parameters: each LIKE kernel's
    /// pattern is classified here, once.
    fn bind<'a>(&'a self, params: &'a [Value]) -> Filter<'a> {
        let conjuncts = self
            .0
            .iter()
            .map(|c| {
                let like = match c {
                    Conjunct::Like { pattern: Leaf::Param(i), .. } => params.get(*i),
                    Conjunct::Like { pattern: Leaf::Lit(v), .. } => Some(v),
                    _ => None,
                };
                (c, like.and_then(Value::as_str).map(LikePattern::new))
            })
            .collect();
        Filter { conjuncts, params }
    }
}

/// A [`CFilter`] bound for one execution.
struct Filter<'a> {
    conjuncts: Vec<(&'a Conjunct, Option<LikePattern<'a>>)>,
    params: &'a [Value],
}

impl Filter<'_> {
    fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// Whether WHERE keeps `row`. Conjuncts run in source order; the first
    /// definite FALSE rejects the row without evaluating the rest, a NULL
    /// rejects it only after the rest ran, and errors propagate. That is
    /// the walk `ceval` makes over the AND tree, so the same rows are kept
    /// and the same errors raised.
    fn keeps(&self, row: RowView<'_>) -> SqlResult<bool> {
        let params = self.params;
        let mut null = false;
        for &(conjunct, like) in &self.conjuncts {
            let truth = match conjunct {
                Conjunct::Cmp { op, lhs, rhs } => {
                    compare(*op, lhs.get(row, params)?, rhs.get(row, params)?)
                }
                Conjunct::Like { slot, col, pattern, negated } => {
                    let v = row.cell(*slot, *col);
                    let p = pattern.get(row, params)?;
                    if v.is_null() || p.is_null() {
                        None
                    } else {
                        let m = match (v, like) {
                            (Value::Str(s), Some(like)) => like.matches(s.as_str()),
                            // A non-string operand: the error `Value::like` raises.
                            _ => v.like(p)?,
                        };
                        Some(m != *negated)
                    }
                }
                Conjunct::Expr(e) => {
                    let v = ceval(e, Some(row), params)?;
                    (!v.is_null()).then(|| v.is_truthy())
                }
            };
            match truth {
                Some(false) => return Ok(false),
                None => null = true,
                Some(true) => {}
            }
        }
        Ok(!null)
    }
}

/// Splits an expression tree into its top-level AND conjuncts.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::Binary { op: BinOp::And, lhs, rhs } => {
                walk(lhs, out);
                walk(rhs, out);
            }
            other => out.push(other),
        }
    }
    walk(expr, &mut out);
    out
}

/// `true` when the expression can be evaluated without a row (only
/// literals, parameters, and arithmetic over them).
fn is_const(expr: &Expr) -> bool {
    match expr {
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Neg(e) => is_const(e),
        Expr::Binary { op, lhs, rhs } => {
            matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
                && is_const(lhs)
                && is_const(rhs)
        }
        _ => false,
    }
}

/// `true` when `col` refers to `alias` (or is unqualified) and names an
/// existing column of `table`; returns the column position.
fn col_on_table(col: &ColRef, alias: &str, table: &Table) -> Option<usize> {
    if let Some(t) = &col.table {
        if t != alias {
            return None;
        }
    }
    table.schema().column_index(&col.column)
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Chooses the access-path shape from WHERE conjuncts, in MySQL 3.23's
/// preference order: primary-key equality, the first secondary-index
/// equality, a range on the first indexed column with one (later bounds on
/// that column replace earlier ones), full scan. Key expressions stay
/// unevaluated so parameters bind at execute time. The shape depends only
/// on column positions and the schema, never on parameter values, so
/// choosing it once is exact.
fn compile_path(table: &Table, alias: &str, conj: &[&Expr]) -> SqlResult<CPath> {
    let pk = table.schema().primary_key();
    let mut best_eq: Option<(usize, CExpr)> = None;
    let mut best_range: Option<(usize, Bound<CExpr>, Bound<CExpr>)> = None;

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
                        merge_range(&mut best_range, pos, Bound::Unbounded, Bound::Excluded(key));
                    }
                    BinOp::Le => {
                        merge_range(&mut best_range, pos, Bound::Unbounded, Bound::Included(key));
                    }
                    BinOp::Gt => {
                        merge_range(&mut best_range, pos, Bound::Excluded(key), Bound::Unbounded);
                    }
                    BinOp::Ge => {
                        merge_range(&mut best_range, pos, Bound::Included(key), Bound::Unbounded);
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
                merge_range(&mut best_range, pos, Bound::Included(lov), Bound::Included(hiv));
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

fn merge_range(
    best: &mut Option<(usize, Bound<CExpr>, Bound<CExpr>)>,
    col: usize,
    lo: Bound<CExpr>,
    hi: Bound<CExpr>,
) {
    match best {
        Some((cur, cur_lo, cur_hi)) if *cur == col => {
            if !matches!(lo, Bound::Unbounded) {
                *cur_lo = lo;
            }
            if !matches!(hi, Bound::Unbounded) {
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
        Stmt::Update(u) => {
            CStmt::Modify(compile_modify(db, &u.table, Some(&u.sets), u.where_clause.as_ref())?)
        }
        Stmt::Delete(d) => {
            CStmt::Modify(compile_modify(db, &d.table, None, d.where_clause.as_ref())?)
        }
        Stmt::LockTables(locks) => {
            // MySQL refuses a table named twice ("Not unique table/alias"):
            // each entry would take the same lock again.
            let mut ids: Vec<(usize, TableLockKind)> = Vec::with_capacity(locks.len());
            for (name, kind) in locks {
                let id = db.table_id(name)?;
                if ids.iter().any(|(seen, _)| *seen == id) {
                    return Err(SqlError::Constraint(format!("Not unique table/alias: '{name}'")));
                }
                ids.push((id, *kind));
            }
            CStmt::LockTables(ids)
        }
        Stmt::UnlockTables => CStmt::UnlockTables,
    };
    Ok(CompiledStmt { version: db.schema_version(), id: 0, kind })
}

/// Output name for an expression select item without an alias.
fn expr_name(expr: &Expr) -> String {
    use crate::ast::AggFunc;
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
            match col {
                Some(c) => format!("{f}({})", c.column),
                None => format!("{f}(*)"),
            }
        }
        _ => "expr".to_string(),
    }
}

fn compile_select(db: &Database, s: &SelectStmt) -> SqlResult<CSelect> {
    let base = db.table_id(&s.from.name)?;
    let base_table = db.table_at(base);
    let mut scope = CScope::new();
    scope.add(s.from.effective_alias(), base_table);
    let join_ids: Vec<usize> =
        s.joins.iter().map(|j| db.table_id(&j.table.name)).collect::<SqlResult<_>>()?;
    let mut read_tables = vec![base];
    for (j, id) in s.joins.iter().zip(&join_ids) {
        scope.add(j.table.effective_alias(), db.table_at(*id));
        if !read_tables.contains(id) {
            read_tables.push(*id);
        }
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
            probe: JoinProbe::for_column(jt, inner_col),
        });
    }

    let conj: Vec<&Expr> = s.where_clause.as_ref().map(|w| conjuncts(w)).unwrap_or_default();
    let path = compile_path(base_table, s.from.effective_alias(), &conj)?;
    let filter = CFilter::compile(s.where_clause.as_ref(), &scope)?;

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
        col_map: scope.col_map(),
    })
}

/// Resolves the ON clause: returns (column position in the combined row so
/// far, column position in the joined table). `right` is tried as the
/// joined table's side first (the common `JOIN t ON outer.x = t.y` shape),
/// then `left`.
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
    Ok(CInsert { table: table_id, n_columns, shape })
}

/// Compiles an UPDATE (`sets` present) or a DELETE of table `name`.
fn compile_modify(
    db: &Database,
    name: &str,
    sets: Option<&[(String, Expr)]>,
    w: Option<&Expr>,
) -> SqlResult<CModify> {
    let table = db.table_id(name)?;
    let t = db.table_at(table);
    let conj: Vec<&Expr> = w.map(conjuncts).unwrap_or_default();
    let path = compile_path(t, name, &conj)?;
    let mut scope = CScope::new();
    scope.add(name, t);
    let filter = CFilter::compile(w, &scope)?;
    let sets = sets
        .map(|sets| {
            sets.iter()
                .map(|(c, e)| {
                    let idx = t
                        .schema()
                        .column_index(c)
                        .ok_or_else(|| SqlError::UnknownColumn(c.clone()))?;
                    Ok((idx, compile_expr(e, Some(&scope))?))
                })
                .collect::<SqlResult<_>>()
        })
        .transpose()?;
    Ok(CModify { table, path, filter, sets })
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
        CStmt::Modify(m) => exec_cmodify(db, m, params),
        CStmt::LockTables(locks) => {
            db.table_locks.clone_from(locks);
            Ok(QueryResult::empty(StatementKind::LockTables(locks.clone())))
        }
        CStmt::UnlockTables => {
            Ok(QueryResult::empty(StatementKind::UnlockTables(db.release_table_locks())))
        }
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
                let window = limit_window(limit, tuples.len() / *stride);
                tuples.truncate(window.end * *stride);
                if window.start > 0 {
                    *tuples = tuples.split_off(window.start * *stride);
                }
            }
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

/// The rows `LIMIT offset, count` keeps of `n`: `offset..offset + count`,
/// saturating rather than overflowing and capped at `n`, so an offset past
/// the end keeps none. `None` keeps all rows.
fn limit_window(limit: Option<(u64, u64)>, n: usize) -> std::ops::Range<usize> {
    let Some((offset, count)) = limit else { return 0..n };
    let offset = usize::try_from(offset).unwrap_or(usize::MAX);
    let count = usize::try_from(count).unwrap_or(usize::MAX);
    let end = offset.saturating_add(count).min(n);
    offset.min(end)..end
}

/// Applies `LIMIT offset, count` in place. Truncating to the window's end
/// first means `split_off` moves only the kept rows (at most `count`),
/// instead of `drain(..offset)` shifting the entire tail across the gap.
fn apply_limit<T>(rows: &mut Vec<T>, limit: Option<(u64, u64)>) {
    let window = limit_window(limit, rows.len());
    rows.truncate(window.end);
    if window.start > 0 {
        *rows = rows.split_off(window.start);
    }
}

/// The sort both ORDER BY branches share: of the `n` items fed, the first
/// `limit_window(limit, n).end` under `cmp` with ties in feed order, which
/// is the head of a stable sort, each with its feed position. A window
/// smaller than the input is kept in a bounded heap, so at most that many
/// items stay alive. All `n` are charged to `sort_rows`: the model sorts
/// everything.
fn top_k<T>(
    items: impl Iterator<Item = SqlResult<T>>,
    n: usize,
    limit: Option<(u64, u64)>,
    counters: &mut QueryCounters,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> SqlResult<Vec<(T, usize)>> {
    counters.sort_rows += n as u64;
    let k = limit_window(limit, n).end;
    let cmp = |a: &(T, usize), b: &(T, usize)| cmp(&a.0, &b.0).then_with(|| a.1.cmp(&b.1));
    let mut kept = Vec::with_capacity(k.saturating_add(1));
    for (i, item) in items.enumerate() {
        if k >= n {
            kept.push((item?, i));
        } else {
            heap_push(&mut kept, (item?, i), k, &cmp);
        }
    }
    kept.sort_by(&cmp);
    Ok(kept)
}

/// `a` against `b` under a sort key's direction.
fn directed(a: &Value, b: &Value, desc: bool) -> Ordering {
    let ord = a.cmp(b);
    if desc {
        ord.reverse()
    } else {
        ord
    }
}

/// Collects candidate row ids for one table along its access path,
/// evaluating the path's keys against `params`.
fn candidate_rows(
    table: &Table,
    path: &CPath,
    params: &[Value],
    counters: &mut QueryCounters,
) -> SqlResult<Vec<RowId>> {
    let bound = |b: &Bound<CExpr>| -> SqlResult<Bound<Value>> {
        Ok(match b {
            Bound::Included(e) => Bound::Included(ceval(e, None, params)?),
            Bound::Excluded(e) => Bound::Excluded(ceval(e, None, params)?),
            Bound::Unbounded => Bound::Unbounded,
        })
    };
    let ids = match path {
        CPath::FullScan => table.scan().map(|(rid, _)| rid).collect(),
        CPath::IndexEq { col, key } => {
            counters.index_lookups += 1;
            table.index_lookup(*col, &*operand(key, None, params)?)
        }
        CPath::IndexRange { col, lo, hi } => {
            counters.index_lookups += 1;
            let (lo, hi) = (bound(lo)?, bound(hi)?);
            table.index_range(*col, lo.as_ref(), hi.as_ref())
        }
    };
    counters.rows_examined += ids.len() as u64;
    Ok(ids)
}

fn exec_cselect(db: &Database, c: &CSelect, params: &[Value]) -> SqlResult<QueryResult> {
    let mut counters = QueryCounters::default();
    let base_table = db.table_at(c.base);
    let base_ids = candidate_rows(base_table, &c.path, params, &mut counters)?;

    let mut rows = if c.joins.is_empty() {
        RowSet::Single { table: base_table, ids: base_ids }
    } else {
        // Late-materialized joins: grow flat RowId tuples one table at a
        // time. The counters are charged per outer row with the modeled
        // nested-index-loop formula whichever probe runs.
        let mut tables: Vec<&Table> = Vec::with_capacity(1 + c.joins.len());
        tables.push(base_table);
        let mut tuples: Vec<RowId> = base_ids;
        let mut stride = 1usize;
        for cj in &c.joins {
            let jt = db.table_at(cj.table);
            let (oslot, ocol) = c.col_map[cj.outer_col];
            let (oslot, ocol) = (oslot as usize, ocol as usize);
            // A NULL key equals nothing in SQL, so NULL inner keys never
            // enter the hash table and a NULL outer key probes nothing.
            let mut hash: HashMap<&Value, Vec<RowId>> = HashMap::new();
            if cj.probe == JoinProbe::Hash && !tuples.is_empty() {
                for (rid, row) in jt.scan() {
                    let key = &row[cj.inner_col];
                    if !key.is_null() {
                        hash.entry(key).or_default().push(rid);
                    }
                }
            }
            let mut next: Vec<RowId> = Vec::with_capacity(tuples.len() + tuples.len() / stride);
            for tuple in tuples.chunks_exact(stride) {
                let key = &tables[oslot].get(tuple[oslot]).expect("live row")[ocol];
                let found: Option<RowId>;
                let scratch: Vec<RowId>;
                let matches: &[RowId] = match cj.probe {
                    _ if key.is_null() => &[],
                    JoinProbe::Pk => {
                        found = jt.pk_lookup(key);
                        found.as_slice()
                    }
                    JoinProbe::Index => {
                        scratch = jt.index_lookup(cj.inner_col, key);
                        &scratch
                    }
                    JoinProbe::Hash => hash.get(key).map_or(&[], Vec::as_slice),
                };
                if cj.probe != JoinProbe::Hash {
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
    let filter = c.filter.bind(params);
    if !filter.is_empty() {
        let mut keep = Vec::with_capacity(rows.len());
        for i in 0..rows.len() {
            if filter.keeps(rows.view(i))? {
                keep.push(i);
            }
        }
        rows.select(&keep);
    }

    let out_rows = match &c.proj {
        CProjKind::Agg { items, group_by } => {
            // Single-pass hash aggregation: one walk over the source rows
            // folds every accumulator; groups are then emitted in ascending
            // key order. Every source row lands in exactly one group, so
            // each is charged to rows_examined once.
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
                            .fold(items, &rows, i);
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
                        g.fold(items, &rows, i);
                    }
                    out = vec![g.finalize(items, &rows, params)?];
                }
            }
            if !c.order_output.is_empty() {
                // Ties keep ascending group-key order.
                let n = out.len();
                let by_output = |a: &Vec<Value>, b: &Vec<Value>| {
                    let mut ords =
                        c.order_output.iter().map(|&(i, desc)| directed(&a[i], &b[i], desc));
                    ords.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
                };
                let sorted = top_k(out.into_iter().map(Ok), n, c.limit, &mut counters, by_output)?;
                out = sorted.into_iter().map(|(row, _)| row).collect();
            }
            apply_limit(&mut out, c.limit);
            out
        }
        CProjKind::Plain(plan) => {
            if !c.order_source.is_empty() {
                // Sort keys are evaluated per source row; the sort returns
                // the window's row positions in order.
                let keys = (0..rows.len()).map(|i| {
                    let row = rows.view(i);
                    c.order_source.iter().map(|(e, _)| ceval(e, Some(row), params)).collect()
                });
                let by_keys = |a: &Vec<Value>, b: &Vec<Value>| {
                    let pairs = a.iter().zip(b).zip(&c.order_source);
                    let mut ords = pairs.map(|((x, y), (_, desc))| directed(x, y, *desc));
                    ords.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
                };
                let sorted = top_k(keys, rows.len(), c.limit, &mut counters, by_keys)?;
                rows.reorder(&sorted.into_iter().map(|(_, i)| i).collect::<Vec<_>>());
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
        counters,
        read_tables: c.read_tables.clone(),
        ..QueryResult::empty(StatementKind::Read)
    })
}

/// One aggregate accumulator, folded in a single pass over a group's rows.
/// MAX keeps the *last* of equal maxima and MIN the *first* of equal minima
/// (observable when an Int and a Float compare equal), and SUM raises the
/// integer-overflow error only when every input value is an Int — the
/// rules the reference executor's spec (`tests/reference/mod.rs`) states.
enum Acc {
    /// COUNT(*) — answered from the group's row count.
    CountStar,
    /// COUNT(col): non-null values seen.
    Count(i64),
    /// MAX/MIN: the position in the row set of the extreme so far, read
    /// back when compared and when finalized, so that a scan whose
    /// extreme moves on every row copies no value.
    Max(Option<usize>),
    Min(Option<usize>),
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

    /// Folds row `i` of `rows` into every accumulator.
    fn fold(&mut self, items: &[CAggItem], rows: &RowSet<'_>, i: usize) {
        self.rows += 1;
        let row = rows.view(i);
        for (acc, item) in self.accs.iter_mut().zip(items) {
            let CAggItem::Agg { col: Some(cidx), .. } = item else { continue };
            let v = row.get(*cidx);
            if v.is_null() {
                continue;
            }
            match acc {
                Acc::Count(n) => *n += 1,
                Acc::Max(best) => {
                    if best.is_none_or(|b| v >= rows.view(b).get(*cidx)) {
                        *best = Some(i);
                    }
                }
                Acc::Min(best) => {
                    if best.is_none_or(|b| v < rows.view(b).get(*cidx)) {
                        *best = Some(i);
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
                Acc::Max(best) | Acc::Min(best) => {
                    let CAggItem::Agg { col: Some(cidx), .. } = item else {
                        unreachable!("max/min acc comes from an agg item over a column")
                    };
                    best.map_or(Value::Null, |b| rows.view(b).get(*cidx).clone())
                }
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
        affected: 1,
        last_insert_id: assigned,
        counters,
        write_tables: vec![i.table],
        ..QueryResult::empty(StatementKind::Write)
    })
}

fn exec_cmodify(db: &mut Database, m: &CModify, params: &[Value]) -> SqlResult<QueryResult> {
    let mut counters = QueryCounters::default();
    let table = db.table_at(m.table);
    let candidates = candidate_rows(table, &m.path, params, &mut counters)?;

    // Choose every row, and compute every new row, before the first write:
    // SET expressions see the old row.
    let filter = m.filter.bind(params);
    let mut chosen: Vec<(RowId, Option<Vec<Value>>)> = Vec::new();
    for rid in candidates {
        let Some(row) = table.get(rid) else { continue };
        if !filter.keeps(RowView::Slice(row))? {
            continue;
        }
        let new_row = match &m.sets {
            Some(sets) => {
                let mut new_row = row.to_vec();
                for (idx, e) in sets {
                    new_row[*idx] = ceval(e, Some(RowView::Slice(row)), params)?;
                }
                Some(new_row)
            }
            None => None,
        };
        chosen.push((rid, new_row));
    }
    let affected = chosen.len() as u64;
    for (rid, new_row) in chosen {
        match new_row {
            Some(new_row) => db.update_row(m.table, rid, new_row)?,
            None => {
                db.delete_row(m.table, rid)?;
            }
        }
        counters.rows_written += 1;
    }
    Ok(QueryResult {
        affected,
        counters,
        write_tables: vec![m.table],
        ..QueryResult::empty(StatementKind::Write)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::{ColumnType, TableSchema};

    fn table() -> Table {
        let schema = TableSchema::builder("items")
            .column("id", ColumnType::Int)
            .column("category", ColumnType::Int)
            .column("name", ColumnType::Str)
            .column("price", ColumnType::Float)
            .primary_key("id")
            .index("category")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..10 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 3),
                Value::str(format!("item{i}")),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        t
    }

    fn where_of(sql: &str) -> Expr {
        match parse(sql).unwrap() {
            Stmt::Select(s) => s.where_clause.unwrap(),
            _ => panic!(),
        }
    }

    /// The access path `compile_path` picks for `alias`, with its keys
    /// evaluated against `params` in order (lower bound before upper).
    fn path_as(sql: &str, alias: &str, params: &[Value]) -> (CPath, Vec<Value>) {
        let w = where_of(sql);
        let path = compile_path(&table(), alias, &conjuncts(&w)).unwrap();
        let exprs = match &path {
            CPath::FullScan => vec![],
            CPath::IndexEq { key, .. } => vec![key],
            CPath::IndexRange { lo, hi, .. } => [lo, hi]
                .into_iter()
                .filter_map(|b| match b {
                    Bound::Included(e) | Bound::Excluded(e) => Some(e),
                    Bound::Unbounded => None,
                })
                .collect(),
        };
        let keys = exprs.into_iter().map(|e| ceval(e, None, params).unwrap()).collect();
        (path, keys)
    }

    fn path(sql: &str, params: &[Value]) -> (CPath, Vec<Value>) {
        path_as(sql, "items", params)
    }

    #[test]
    fn pk_equality_wins() {
        let (p, keys) = path("SELECT * FROM items WHERE category = 1 AND id = ?", &[Value::Int(5)]);
        assert!(matches!(p, CPath::IndexEq { col: 0, .. }));
        assert_eq!(keys, [Value::Int(5)]);
    }

    #[test]
    fn secondary_equality_used() {
        let (p, keys) = path("SELECT * FROM items WHERE category = 2", &[]);
        assert!(matches!(p, CPath::IndexEq { col: 1, .. }));
        assert_eq!(keys, [Value::Int(2)]);
    }

    #[test]
    fn reversed_operands_normalized() {
        let (p, keys) = path("SELECT * FROM items WHERE 5 = id", &[]);
        assert!(matches!(p, CPath::IndexEq { col: 0, .. }));
        assert_eq!(keys, [Value::Int(5)]);
    }

    #[test]
    fn range_predicates_merge() {
        let (p, keys) = path("SELECT * FROM items WHERE id > 2 AND id <= 7", &[]);
        assert!(matches!(
            p,
            CPath::IndexRange { col: 0, lo: Bound::Excluded(_), hi: Bound::Included(_) }
        ));
        assert_eq!(keys, [Value::Int(2), Value::Int(7)]);
    }

    #[test]
    fn between_becomes_range() {
        let (p, keys) =
            path("SELECT * FROM items WHERE id BETWEEN ? AND ?", &[Value::Int(1), Value::Int(3)]);
        assert!(matches!(
            p,
            CPath::IndexRange { col: 0, lo: Bound::Included(_), hi: Bound::Included(_) }
        ));
        assert_eq!(keys, [Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn unindexed_column_scans() {
        let (p, _) = path("SELECT * FROM items WHERE name = 'item3'", &[]);
        assert!(matches!(p, CPath::FullScan));
        let (p, _) = path("SELECT * FROM items WHERE price < 3.0", &[]);
        assert!(matches!(p, CPath::FullScan));
    }

    #[test]
    fn eq_beats_range() {
        let (p, keys) = path("SELECT * FROM items WHERE id > 2 AND category = 1", &[]);
        assert!(matches!(p, CPath::IndexEq { col: 1, .. }));
        assert_eq!(keys, [Value::Int(1)]);
    }

    #[test]
    fn qualified_alias_respected() {
        let sql = "SELECT * FROM items i WHERE i.id = 4";
        let (p, keys) = path_as(sql, "i", &[]);
        assert!(matches!(p, CPath::IndexEq { col: 0, .. }));
        assert_eq!(keys, [Value::Int(4)]);
        // Wrong alias: predicate is about another table.
        assert!(matches!(path_as(sql, "other", &[]).0, CPath::FullScan));
    }

    #[test]
    fn or_disables_indexing() {
        let (p, _) = path("SELECT * FROM items WHERE id = 1 OR category = 2", &[]);
        assert!(matches!(p, CPath::FullScan));
    }

    #[test]
    fn conjunct_split() {
        let w = where_of("SELECT * FROM items WHERE id = 1 AND category = 2 AND name LIKE 'a%'");
        assert_eq!(conjuncts(&w).len(), 3);
        let w = where_of("SELECT * FROM items WHERE id = 1 OR category = 2");
        assert_eq!(conjuncts(&w).len(), 1);
    }

    /// Which WHERE conjuncts compile to kernels and which go to `ceval`.
    #[test]
    fn filter_kernels_are_chosen_by_shape() {
        let t = table();
        let mut scope = CScope::new();
        scope.add("items", &t);
        let shapes = |sql: &str| -> Vec<&str> {
            let filter = CFilter::compile(Some(&where_of(sql)), &scope).unwrap();
            let shape = |c: &Conjunct| match c {
                Conjunct::Cmp { .. } => "cmp",
                Conjunct::Like { .. } => "like",
                Conjunct::Expr(_) => "expr",
            };
            filter.0.iter().map(shape).collect()
        };
        assert_eq!(
            shapes(
                "SELECT * FROM items WHERE ? < id AND name NOT LIKE 'x%' AND price + 1 > 2 \
                 AND 'a' LIKE name AND name LIKE name AND 1 = ?"
            ),
            ["cmp", "like", "expr", "expr", "expr", "cmp"]
        );
        assert_eq!(shapes("SELECT * FROM items WHERE id = 1 OR id = 2"), ["expr"]);
    }

    /// Each join's probe is fixed when the statement compiles, by the
    /// inner column's index alone: the primary key, a secondary index, or
    /// none.
    #[test]
    fn join_probe_is_fixed_by_the_inner_column_index() {
        let mut db = Database::new();
        db.create_table(table().schema().clone()).unwrap();
        let Stmt::Select(s) = parse(
            "SELECT * FROM items a JOIN items b ON a.category = b.id \
             JOIN items c ON a.id = c.category JOIN items d ON d.price = a.id",
        )
        .unwrap() else {
            panic!("not a SELECT")
        };
        let probes: Vec<JoinProbe> =
            compile_select(&db, &s).unwrap().joins.iter().map(|j| j.probe).collect();
        assert_eq!(probes, [JoinProbe::Pk, JoinProbe::Index, JoinProbe::Hash]);
    }

    #[test]
    fn apply_limit_window_edges() {
        // Offset past the end clears.
        let mut v: Vec<i32> = (0..5).collect();
        apply_limit(&mut v, Some((5, 3)));
        assert!(v.is_empty());
        let mut v: Vec<i32> = (0..5).collect();
        apply_limit(&mut v, Some((100, 3)));
        assert!(v.is_empty());
        // offset + count saturates instead of overflowing.
        let mut v: Vec<i32> = (0..5).collect();
        apply_limit(&mut v, Some((2, u64::MAX)));
        assert_eq!(v, vec![2, 3, 4]);
        let mut v: Vec<i32> = (0..5).collect();
        apply_limit(&mut v, Some((u64::MAX, u64::MAX)));
        assert!(v.is_empty());
        // Zero-count window is empty even with a valid offset.
        let mut v: Vec<i32> = (0..5).collect();
        apply_limit(&mut v, Some((2, 0)));
        assert!(v.is_empty());
        // Interior window.
        let mut v: Vec<i32> = (0..10).collect();
        apply_limit(&mut v, Some((3, 4)));
        assert_eq!(v, vec![3, 4, 5, 6]);
        // No limit leaves rows alone.
        let mut v: Vec<i32> = (0..3).collect();
        apply_limit(&mut v, None);
        assert_eq!(v, vec![0, 1, 2]);
    }
}
