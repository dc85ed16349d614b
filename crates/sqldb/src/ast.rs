//! Abstract syntax for the supported SQL subset.
//!
//! The subset is what the two benchmark applications (TPC-W bookstore,
//! RUBiS auction) need, matching the queries the paper's PHP and servlet
//! implementations issue against MySQL 3.23: single-table and
//! nested-loop-join SELECTs with WHERE / GROUP BY / ORDER BY / LIMIT and the
//! COUNT/SUM/MAX/MIN/AVG aggregates, INSERT, UPDATE, DELETE, and the
//! MyISAM `LOCK TABLES` / `UNLOCK TABLES` statements.

use crate::value::Value;

/// A column reference, optionally qualified by table name or alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    /// Qualifier (`items.id` -> `Some("items")`).
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// Unqualified reference.
    pub fn new(column: impl Into<String>) -> Self {
        ColRef { table: None, column: column.into() }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef { table: Some(table.into()), column: column.into() }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// `true` for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(col)`
    Count,
    /// `SUM(col)`
    Sum,
    /// `MAX(col)`
    Max,
    /// `MIN(col)`
    Min,
    /// `AVG(col)`
    Avg,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Col(ColRef),
    /// Literal value.
    Lit(Value),
    /// Positional `?` placeholder (0-based).
    Param(usize),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr LIKE pattern` (negated when `negated`).
    Like {
        /// Text operand.
        expr: Box<Expr>,
        /// Pattern operand.
        pattern: Box<Expr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Tested operand.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
    },
    /// `expr IN (a, b, ...)`.
    InList {
        /// Tested operand.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
    },
    /// `expr IS NULL` / `IS NOT NULL`.
    IsNull {
        /// Tested operand.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// Aggregate call; `None` column means `COUNT(*)`.
    Agg {
        /// Function.
        func: AggFunc,
        /// Aggregated column (`None` only for COUNT).
        col: Option<ColRef>,
    },
}

impl Expr {
    /// Convenience constructor for binary expressions.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// `true` when the expression (transitively) contains an aggregate.
    pub fn contains_agg(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Col(_) | Expr::Lit(_) | Expr::Param(_) => false,
            Expr::Neg(e) | Expr::Not(e) => e.contains_agg(),
            Expr::Binary { lhs, rhs, .. } => lhs.contains_agg() || rhs.contains_agg(),
            Expr::Like { expr, pattern, .. } => expr.contains_agg() || pattern.contains_agg(),
            Expr::Between { expr, lo, hi } => {
                expr.contains_agg() || lo.contains_agg() || hi.contains_agg()
            }
            Expr::InList { expr, list } => {
                expr.contains_agg() || list.iter().any(Expr::contains_agg)
            }
            Expr::IsNull { expr, .. } => expr.contains_agg(),
        }
    }
}

/// One output of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `table.*`
    TableStar(String),
    /// An expression with an optional `AS` alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Output name override.
        alias: Option<String>,
    },
}

/// A table in FROM, with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name in the catalog.
    pub name: String,
    /// Alias (defaults to the table name).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in the query.
    pub fn effective_alias(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// An `INNER JOIN ... ON left = right` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Join {
    /// Joined table.
    pub table: TableRef,
    /// Column from an earlier table.
    pub left: ColRef,
    /// Column of the joined table.
    pub right: ColRef,
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression (a column or select-item alias).
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// First FROM table.
    pub from: TableRef,
    /// INNER JOINs, applied left to right.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY column.
    pub group_by: Option<ColRef>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT as `(offset, count)`.
    pub limit: Option<(u64, u64)>,
}

/// An INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Explicit column list, if given.
    pub columns: Option<Vec<String>>,
    /// Value expressions (literals, params, arithmetic).
    pub values: Vec<Expr>,
}

/// An UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET col = expr` pairs.
    pub sets: Vec<(String, Expr)>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
}

/// A DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
}

/// Lock kind in a `LOCK TABLES` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableLockKind {
    /// `READ`
    Read,
    /// `WRITE`
    Write,
}

/// Any parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// SELECT.
    Select(SelectStmt),
    /// INSERT.
    Insert(InsertStmt),
    /// UPDATE.
    Update(UpdateStmt),
    /// DELETE.
    Delete(DeleteStmt),
    /// `LOCK TABLES t1 READ, t2 WRITE, ...`.
    LockTables(Vec<(String, TableLockKind)>),
    /// `UNLOCK TABLES`.
    UnlockTables,
}

impl Stmt {
    /// `true` for statements that modify data.
    pub fn is_write(&self) -> bool {
        matches!(self, Stmt::Insert(_) | Stmt::Update(_) | Stmt::Delete(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colref_constructors() {
        assert_eq!(ColRef::new("id").table, None);
        let q = ColRef::qualified("items", "id");
        assert_eq!(q.table.as_deref(), Some("items"));
        assert_eq!(q.column, "id");
    }

    #[test]
    fn effective_alias_defaults_to_name() {
        let t = TableRef { name: "items".into(), alias: None };
        assert_eq!(t.effective_alias(), "items");
        let t = TableRef { name: "items".into(), alias: Some("i".into()) };
        assert_eq!(t.effective_alias(), "i");
    }

    #[test]
    fn agg_detection_recurses() {
        let agg = Expr::Agg { func: AggFunc::Sum, col: Some(ColRef::new("qty")) };
        let nested = Expr::binary(BinOp::Mul, agg, Expr::Lit(Value::Int(2)));
        assert!(nested.contains_agg());
        assert!(!Expr::Col(ColRef::new("x")).contains_agg());
        let inlist = Expr::InList {
            expr: Box::new(Expr::Col(ColRef::new("x"))),
            list: vec![Expr::Agg { func: AggFunc::Max, col: Some(ColRef::new("y")) }],
        };
        assert!(inlist.contains_agg());
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Ge.is_comparison());
        assert!(!BinOp::And.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn write_classification() {
        let del = Stmt::Delete(DeleteStmt { table: "t".into(), where_clause: None });
        assert!(del.is_write());
        assert!(!Stmt::UnlockTables.is_write());
    }
}
