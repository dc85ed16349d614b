//! Recursive-descent parser for the SQL subset.

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::value::Value;

/// Words that terminate an implicit table/column alias.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "order", "limit", "offset", "inner", "join", "on", "and",
    "or", "not", "like", "between", "in", "is", "null", "as", "insert", "into", "values", "update",
    "set", "delete", "lock", "unlock", "tables", "read", "write", "asc", "desc", "by",
];

/// Parses one SQL statement (an optional trailing `;` is allowed).
/// Transaction control is not part of the subset: `Database::execute`
/// recognizes it before parsing.
///
/// # Errors
///
/// Returns [`SqlError::Parse`] with a byte offset on any syntax error.
///
/// ```
/// use dynamid_sqldb::parse;
/// let stmt = parse("SELECT id FROM items WHERE price < ? ORDER BY price DESC LIMIT 10").unwrap();
/// assert!(matches!(stmt, dynamid_sqldb::ast::Stmt::Select(_)));
/// ```
pub fn parse(sql: &str) -> SqlResult<Stmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, params: 0 };
    let stmt = p.statement()?;
    p.eat_if(|k| matches!(k, TokenKind::Semicolon));
    p.expect_eof()?;
    Ok(stmt)
}

/// Number of `?` placeholders in a statement (parses the text).
pub fn count_params(sql: &str) -> SqlResult<usize> {
    let tokens = tokenize(sql)?;
    Ok(tokens.iter().filter(|t| t.kind == TokenKind::Param).count())
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        k
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse { message: message.into(), offset: self.offset() }
    }

    fn eat_kw(&mut self, word: &str) -> bool {
        if self.peek().is_kw(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, word: &str) -> SqlResult<()> {
        if self.eat_kw(word) {
            Ok(())
        } else {
            Err(self.err(format!("expected {}", word.to_uppercase())))
        }
    }

    fn eat_if(&mut self, pred: impl Fn(&TokenKind) -> bool) -> bool {
        if pred(self.peek()) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> SqlResult<()> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_eof(&self) -> SqlResult<()> {
        if *self.peek() == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.err("trailing input after statement"))
        }
    }

    fn ident(&mut self, what: &str) -> SqlResult<String> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn is_reserved(word: &str) -> bool {
        RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r))
    }

    /// A table or column name: an identifier that is not a reserved word.
    fn name(&mut self, what: &str) -> SqlResult<String> {
        let name = self.ident(what)?;
        if Self::is_reserved(&name) {
            return Err(self.err(format!("'{name}' is reserved")));
        }
        Ok(name)
    }

    fn statement(&mut self) -> SqlResult<Stmt> {
        if self.peek().is_kw("select") {
            self.select().map(Stmt::Select)
        } else if self.peek().is_kw("insert") {
            self.insert().map(Stmt::Insert)
        } else if self.peek().is_kw("update") {
            self.update().map(Stmt::Update)
        } else if self.peek().is_kw("delete") {
            self.delete().map(Stmt::Delete)
        } else if self.peek().is_kw("lock") {
            self.lock_tables()
        } else if self.peek().is_kw("unlock") {
            self.bump();
            self.expect_kw("tables")?;
            Ok(Stmt::UnlockTables)
        } else {
            Err(self.err("expected SELECT, INSERT, UPDATE, DELETE, LOCK or UNLOCK"))
        }
    }

    fn select(&mut self) -> SqlResult<SelectStmt> {
        self.expect_kw("select")?;
        let mut items = vec![self.select_item()?];
        while self.eat_if(|k| matches!(k, TokenKind::Comma)) {
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let inner = self.peek().is_kw("inner");
            if inner || self.peek().is_kw("join") {
                if inner {
                    self.bump();
                }
                self.expect_kw("join")?;
                let table = self.table_ref()?;
                self.expect_kw("on")?;
                let left = self.col_ref()?;
                self.expect(TokenKind::Eq, "'=' in JOIN condition")?;
                let right = self.col_ref()?;
                joins.push(Join { table, left, right });
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            Some(self.col_ref()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_if(|k| matches!(k, TokenKind::Comma)) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            let first = self.limit_number()?;
            if self.eat_if(|k| matches!(k, TokenKind::Comma)) {
                // MySQL style: LIMIT offset, count.
                let count = self.limit_number()?;
                Some((first, count))
            } else if self.eat_kw("offset") {
                let off = self.limit_number()?;
                Some((off, first))
            } else {
                Some((0, first))
            }
        } else {
            None
        };
        Ok(SelectStmt { items, from, joins, where_clause, group_by, order_by, limit })
    }

    fn limit_number(&mut self) -> SqlResult<u64> {
        match self.peek() {
            TokenKind::Int(n) if *n >= 0 => {
                let n = *n as u64;
                self.bump();
                Ok(n)
            }
            _ => Err(self.err("expected non-negative integer in LIMIT")),
        }
    }

    fn select_item(&mut self) -> SqlResult<SelectItem> {
        if matches!(self.peek(), TokenKind::Star) {
            self.bump();
            return Ok(SelectItem::Star);
        }
        // `table.*`
        if let TokenKind::Ident(name) = self.peek() {
            if !Self::is_reserved(name)
                && *self.peek2() == TokenKind::Dot
                && self.tokens[(self.pos + 2).min(self.tokens.len() - 1)].kind == TokenKind::Star
            {
                let name = name.clone();
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::TableStar(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident("alias after AS")?)
        } else if let TokenKind::Ident(a) = self.peek() {
            if Self::is_reserved(a) {
                None
            } else {
                let a = a.clone();
                self.bump();
                Some(a)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> SqlResult<TableRef> {
        let name = self.name("table name")?;
        let alias = if self.eat_kw("as") {
            Some(self.ident("alias after AS")?)
        } else if let TokenKind::Ident(a) = self.peek() {
            if Self::is_reserved(a) {
                None
            } else {
                let a = a.clone();
                self.bump();
                Some(a)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn col_ref(&mut self) -> SqlResult<ColRef> {
        let first = self.ident("column name")?;
        if *self.peek() == TokenKind::Dot {
            self.bump();
            let column = self.ident("column after '.'")?;
            Ok(ColRef { table: Some(first), column })
        } else {
            Ok(ColRef { table: None, column: first })
        }
    }

    // Expression grammar: or -> and -> not -> predicate -> additive ->
    // multiplicative -> unary -> primary.
    fn expr(&mut self) -> SqlResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> SqlResult<Expr> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> SqlResult<Expr> {
        let lhs = self.additive()?;
        let cmp = match self.peek() {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::Ne => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = cmp {
            self.bump();
            let rhs = self.additive()?;
            return Ok(Expr::binary(op, lhs, rhs));
        }
        let negated = if self.peek().is_kw("not")
            && (self.peek2().is_kw("like")
                || self.peek2().is_kw("between")
                || self.peek2().is_kw("in"))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like { expr: Box::new(lhs), pattern: Box::new(pattern), negated });
        }
        if self.eat_kw("between") {
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            let between = Expr::Between { expr: Box::new(lhs), lo: Box::new(lo), hi: Box::new(hi) };
            return Ok(if negated { Expr::Not(Box::new(between)) } else { between });
        }
        if self.eat_kw("in") {
            self.expect(TokenKind::LParen, "'(' after IN")?;
            let mut list = vec![self.additive()?];
            while self.eat_if(|k| matches!(k, TokenKind::Comma)) {
                list.push(self.additive()?);
            }
            self.expect(TokenKind::RParen, "')' after IN list")?;
            let inlist = Expr::InList { expr: Box::new(lhs), list };
            return Ok(if negated { Expr::Not(Box::new(inlist)) } else { inlist });
        }
        if negated {
            return Err(self.err("expected LIKE, BETWEEN or IN after NOT"));
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> SqlResult<Expr> {
        if self.eat_if(|k| matches!(k, TokenKind::Minus)) {
            Ok(Expr::Neg(Box::new(self.unary()?)))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> SqlResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::Lit(Value::Int(n)))
            }
            TokenKind::Float(f) => {
                self.bump();
                Ok(Expr::Lit(Value::Float(f)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Lit(Value::str(s)))
            }
            TokenKind::Param => {
                self.bump();
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen, "')'")?;
                Ok(e)
            }
            TokenKind::Ident(word) => {
                if word.eq_ignore_ascii_case("null") {
                    self.bump();
                    return Ok(Expr::Lit(Value::Null));
                }
                let agg = match word.to_ascii_lowercase().as_str() {
                    "count" => Some(AggFunc::Count),
                    "sum" => Some(AggFunc::Sum),
                    "max" => Some(AggFunc::Max),
                    "min" => Some(AggFunc::Min),
                    "avg" => Some(AggFunc::Avg),
                    _ => None,
                };
                if let Some(func) = agg {
                    if *self.peek2() == TokenKind::LParen {
                        self.bump();
                        self.bump();
                        let col =
                            if func == AggFunc::Count && matches!(self.peek(), TokenKind::Star) {
                                self.bump();
                                None
                            } else {
                                Some(self.col_ref()?)
                            };
                        self.expect(TokenKind::RParen, "')' after aggregate")?;
                        return Ok(Expr::Agg { func, col });
                    }
                }
                if Self::is_reserved(&word) {
                    return Err(self.err(format!("unexpected keyword '{word}'")));
                }
                self.col_ref().map(Expr::Col)
            }
            _ => Err(self.err("expected expression")),
        }
    }

    fn insert(&mut self) -> SqlResult<InsertStmt> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.name("table name")?;
        let columns = if *self.peek() == TokenKind::LParen {
            self.bump();
            let mut cols = vec![self.name("column name")?];
            while self.eat_if(|k| matches!(k, TokenKind::Comma)) {
                cols.push(self.name("column name")?);
            }
            self.expect(TokenKind::RParen, "')' after column list")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        self.expect(TokenKind::LParen, "'(' before values")?;
        let mut values = vec![self.additive()?];
        while self.eat_if(|k| matches!(k, TokenKind::Comma)) {
            values.push(self.additive()?);
        }
        self.expect(TokenKind::RParen, "')' after values")?;
        Ok(InsertStmt { table, columns, values })
    }

    fn update(&mut self) -> SqlResult<UpdateStmt> {
        self.expect_kw("update")?;
        let table = self.name("table name")?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.name("column name")?;
            self.expect(TokenKind::Eq, "'=' in SET")?;
            let value = self.additive()?;
            sets.push((col, value));
            if !self.eat_if(|k| matches!(k, TokenKind::Comma)) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        Ok(UpdateStmt { table, sets, where_clause })
    }

    fn delete(&mut self) -> SqlResult<DeleteStmt> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.name("table name")?;
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        Ok(DeleteStmt { table, where_clause })
    }

    fn lock_tables(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("lock")?;
        self.expect_kw("tables")?;
        let mut locks = Vec::new();
        loop {
            let table = self.name("table name")?;
            let kind = if self.eat_kw("read") {
                TableLockKind::Read
            } else if self.eat_kw("write") {
                TableLockKind::Write
            } else {
                return Err(self.err("expected READ or WRITE"));
            };
            locks.push((table, kind));
            if !self.eat_if(|k| matches!(k, TokenKind::Comma)) {
                break;
            }
        }
        Ok(Stmt::LockTables(locks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Stmt::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn minimal_select() {
        let s = sel("SELECT * FROM items");
        assert_eq!(s.items, vec![SelectItem::Star]);
        assert_eq!(s.from.name, "items");
        assert!(s.where_clause.is_none());
        assert!(s.joins.is_empty());
    }

    #[test]
    fn select_with_everything() {
        let s = sel("SELECT i.id, i.name, SUM(ol.qty) AS total \
             FROM items i \
             INNER JOIN order_line ol ON ol.item_id = i.id \
             WHERE i.subject = ? AND ol.qty > 0 \
             GROUP BY i.id \
             ORDER BY total DESC, i.name \
             LIMIT 50");
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.from.effective_alias(), "i");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table.name, "order_line");
        assert!(s.group_by.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some((0, 50)));
    }

    #[test]
    fn limit_forms() {
        assert_eq!(sel("SELECT * FROM t LIMIT 10").limit, Some((0, 10)));
        assert_eq!(sel("SELECT * FROM t LIMIT 5, 10").limit, Some((5, 10)));
        assert_eq!(sel("SELECT * FROM t LIMIT 10 OFFSET 5").limit, Some((5, 10)));
    }

    #[test]
    fn params_numbered_in_order() {
        let s = sel("SELECT * FROM t WHERE a = ? AND b = ? AND c BETWEEN ? AND ?");
        let w = s.where_clause.unwrap();
        // Flatten and find params.
        fn params(e: &Expr, out: &mut Vec<usize>) {
            match e {
                Expr::Param(i) => out.push(*i),
                Expr::Binary { lhs, rhs, .. } => {
                    params(lhs, out);
                    params(rhs, out);
                }
                Expr::Between { expr, lo, hi } => {
                    params(expr, out);
                    params(lo, out);
                    params(hi, out);
                }
                _ => {}
            }
        }
        let mut got = Vec::new();
        params(&w, &mut got);
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(count_params("SELECT * FROM t WHERE a=? AND b=?").unwrap(), 2);
    }

    #[test]
    fn aggregates() {
        let s = sel("SELECT COUNT(*), MAX(bid), AVG(qty) FROM bids");
        assert_eq!(s.items.len(), 3);
        assert!(matches!(
            s.items[0],
            SelectItem::Expr { expr: Expr::Agg { func: AggFunc::Count, col: None }, .. }
        ));
        assert!(matches!(
            s.items[1],
            SelectItem::Expr { expr: Expr::Agg { func: AggFunc::Max, .. }, .. }
        ));
    }

    #[test]
    fn table_star_and_aliases() {
        let s = sel("SELECT i.*, u.nickname seller FROM items i JOIN users u ON i.seller = u.id");
        assert!(matches!(&s.items[0], SelectItem::TableStar(t) if t == "i"));
        assert!(matches!(&s.items[1], SelectItem::Expr { alias: Some(a), .. } if a == "seller"));
    }

    #[test]
    fn predicates() {
        let s = sel("SELECT * FROM t WHERE a LIKE '%x%' AND b NOT LIKE 'y%' AND c IN (1,2,3) AND d IS NOT NULL AND NOT e = 1 AND f BETWEEN 1 AND 5");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT a + b * 2 FROM t");
        let SelectItem::Expr { expr, .. } = &s.items[0] else { panic!() };
        // a + (b * 2)
        let Expr::Binary { op: BinOp::Add, rhs, .. } = expr else {
            panic!("expected Add at top: {expr:?}")
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn insert_forms() {
        let Stmt::Insert(i) = parse("INSERT INTO users (id, nick) VALUES (NULL, 'bob')").unwrap()
        else {
            panic!()
        };
        assert_eq!(i.table, "users");
        assert_eq!(i.columns.as_ref().unwrap().len(), 2);
        assert_eq!(i.values.len(), 2);
        assert!(matches!(i.values[0], Expr::Lit(Value::Null)));

        let Stmt::Insert(i) = parse("INSERT INTO t VALUES (?, ?, 3.5)").unwrap() else { panic!() };
        assert!(i.columns.is_none());
        assert_eq!(i.values.len(), 3);
    }

    #[test]
    fn update_and_delete() {
        let Stmt::Update(u) =
            parse("UPDATE items SET qty = qty - 1, price = ? WHERE id = ?").unwrap()
        else {
            panic!()
        };
        assert_eq!(u.sets.len(), 2);
        assert_eq!(u.sets[0].0, "qty");
        assert!(u.where_clause.is_some());

        let Stmt::Delete(d) = parse("DELETE FROM cart WHERE session = ?").unwrap() else {
            panic!()
        };
        assert_eq!(d.table, "cart");
    }

    #[test]
    fn lock_unlock() {
        let Stmt::LockTables(l) = parse("LOCK TABLES items WRITE, users READ").unwrap() else {
            panic!()
        };
        assert_eq!(
            l,
            vec![
                ("items".to_string(), TableLockKind::Write),
                ("users".to_string(), TableLockKind::Read)
            ]
        );
        assert_eq!(parse("UNLOCK TABLES").unwrap(), Stmt::UnlockTables);
    }

    #[test]
    fn negative_numbers_and_parens() {
        let s = sel("SELECT * FROM t WHERE a > -5 AND (b = 1 OR c = 2)");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn trailing_semicolon_ok_trailing_garbage_not() {
        assert!(parse("SELECT * FROM t;").is_ok());
        assert!(parse("SELECT * FROM t garbage garbage").is_err());
        assert!(parse("SELECT * FROM t; SELECT * FROM u").is_err());
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let err = parse("SELECT FROM t").unwrap_err();
        let SqlError::Parse { offset, .. } = err else { panic!() };
        assert_eq!(offset, 7);
    }

    #[test]
    fn keyword_cannot_be_table() {
        assert!(parse("SELECT * FROM select").is_err());
    }

    /// Every statement that names a table or a column to write reads the
    /// name through one reserved-word check.
    #[test]
    fn reserved_words_are_not_write_targets() {
        for sql in [
            "SELECT * FROM SET",
            "DELETE FROM SET",
            "DELETE FROM BY",
            "UPDATE BY SET x = 1",
            "UPDATE t SET order = 1",
            "UPDATE t SET x = 1, limit = 2",
            "INSERT INTO ORDER VALUES (1)",
            "INSERT INTO t (id, from) VALUES (1, 2)",
            "LOCK TABLES READ READ",
            "LOCK TABLES items WRITE, tables READ",
        ] {
            let err = parse(sql).expect_err(sql);
            assert!(err.to_string().contains("is reserved"), "{sql}: {err}");
        }
        // Case does not matter, and a reserved word may still prefix a name.
        assert!(parse("delete from Order").is_err());
        assert!(parse("UPDATE orders SET order_id = 1, bystander = 2").is_ok());
        assert!(parse("LOCK TABLES reads READ").is_ok());
    }

    #[test]
    fn count_params_counts() {
        assert_eq!(count_params("UPDATE t SET a=? WHERE b=?").unwrap(), 2);
        assert_eq!(count_params("SELECT 1 FROM t").unwrap(), 0);
    }
}
