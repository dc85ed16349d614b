//! Mutated SQL never panics: the bookstore's and the auction site's own
//! statements, cut, spliced and seeded with stray tokens and string
//! literals of 13–16 bytes (either side of the 14-byte inline string
//! limit), and random streams of SQL tokens, go through `parse` and then
//! `Database::execute` on a small populated database. Every case must
//! return `Ok` or `Err`.
//!
//! The same statements, unmutated, also check MyISAM's `LOCK TABLES`
//! discipline: under a random lock set, a statement runs exactly as
//! without one, or is refused before it changes anything.

use dynamid::auction::AuctionScale;
use dynamid::bookstore::BookstoreScale;
use dynamid::sqldb::ast::Stmt;
use dynamid::sqldb::{count_params, parse, Database, SqlError, Value};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Every string literal of a Rust source file that starts a SQL
/// statement, with `\`-newline continuations folded the way the compiler
/// folds them and each `{…}` argument of a `format!` template (a page
/// size or offset) replaced by `3`. Line comments are skipped, so quotes
/// in docs do not count.
fn statements(source: &str) -> Vec<String> {
    const VERBS: [&str; 4] = ["SELECT ", "INSERT ", "UPDATE ", "DELETE "];
    let mut found = Vec::new();
    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '/' if chars.peek() == Some(&'/') => {
                chars.by_ref().find(|&c| c == '\n');
            }
            '"' => {
                let mut literal = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '"' => break,
                        '\\' => match chars.next() {
                            Some('\n') => while chars.next_if(|c| c.is_whitespace()).is_some() {},
                            Some('n') => literal.push('\n'),
                            Some(other) => literal.push(other),
                            None => break,
                        },
                        c => literal.push(c),
                    }
                }
                if VERBS.iter().any(|verb| literal.starts_with(verb)) {
                    while let Some(open) = literal.find('{') {
                        let close =
                            literal[open..].find('}').map_or(literal.len(), |c| open + c + 1);
                        literal.replace_range(open..close, "3");
                    }
                    found.push(literal);
                }
            }
            _ => {}
        }
    }
    found
}

/// The corpus: each benchmark's statements with the database they run on,
/// and every table and column name of both schemas.
struct Corpus {
    bookstore: (Vec<String>, Database),
    auction: (Vec<String>, Database),
    names: Vec<String>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let tiny_store = BookstoreScale { items: 20, customers: 20, orders: 20 };
        let tiny_auction = AuctionScale {
            users: 20,
            live_items: 20,
            old_items: 20,
            bids_per_item: 3,
            comments: 20,
            buy_nows: 5,
        };
        let bookstore = dynamid::bookstore::build_db(&tiny_store, 5).expect("bookstore population");
        let auction = dynamid::auction::build_db(&tiny_auction, 5).expect("auction population");
        let mut names = Vec::new();
        for db in [&bookstore, &auction] {
            for table in db.table_names() {
                names.push(table.to_string());
                let columns = db.table(table).expect("listed table").schema().columns();
                names.extend(columns.iter().map(|c| c.name().to_string()));
            }
        }
        names.sort();
        names.dedup();
        Corpus {
            bookstore: (
                statements(include_str!("../crates/bookstore/src/sql_logic.rs")),
                bookstore,
            ),
            auction: (statements(include_str!("../crates/auction/src/sql_logic.rs")), auction),
            names,
        }
    })
}

/// Tokens spliced into statements: keywords, operators, literals at the
/// numeric edges, placeholders, and names from both schemas.
const TOKENS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "IN",
    "LIKE",
    "BETWEEN",
    "JOIN",
    "ON",
    "GROUP BY",
    "ORDER BY",
    "DESC",
    "LIMIT",
    "COUNT(*)",
    "SUM(",
    "MAX(",
    "MIN(",
    "AVG(",
    "DISTINCT",
    "NULL",
    "IS",
    "=",
    "<>",
    "<",
    ">=",
    "+",
    "-",
    "*",
    "/",
    "(",
    ")",
    ",",
    "?",
    "0",
    "-1",
    "9223372036854775807",
    "1e308",
    "''",
    "%",
    ".",
    ";",
    "id",
    "items",
    "orders",
    "order_line",
    "customers",
    "users",
    "bids",
    "title",
    "i.id",
    "nb_of_bids",
    "SET",
    "VALUES",
];

/// A quoted string literal of 13–16 bytes, drawn from ASCII, a 2-byte and
/// a 3-byte character, so its length can land on either side of the
/// inline limit.
fn literal(seed: u64) -> String {
    const CHARS: [char; 5] = ['a', 'Z', '7', 'é', '中'];
    let target = 13 + (seed % 4) as usize;
    let mut s = String::new();
    let mut bits = seed >> 2;
    while s.len() < target {
        let c = CHARS[(bits % 5) as usize];
        bits = (bits / 5) ^ bits.rotate_left(17);
        if s.len() + c.len_utf8() <= target {
            s.push(c);
        } else {
            s.push('x');
        }
    }
    format!("'{s}'")
}

/// Every word the parser treats as a keyword, the transaction-control
/// words `Database::execute` recognizes before parsing, and the aggregate
/// names.
const KEYWORDS: &str = "SELECT FROM WHERE GROUP ORDER BY LIMIT OFFSET INNER JOIN ON AND OR NOT \
    LIKE BETWEEN IN IS NULL AS INSERT INTO VALUES UPDATE SET DELETE LOCK UNLOCK TABLES READ \
    WRITE ASC DESC BEGIN START TRANSACTION COMMIT ROLLBACK COUNT SUM AVG MIN MAX";

/// One token of a random stream, drawn by `class` from keywords, schema
/// names, `?`, integer and float literals (edges included), string
/// literals of 13–16 bytes, operators, and parentheses and commas.
fn token(class: u8, pick: u64, names: &[String]) -> String {
    const INTS: [&str; 6] = ["0", "1", "42", "-7", "9223372036854775807", "99999999999999999999"];
    const FLOATS: [&str; 5] = ["1.5", "0.0", "-2.25", "1e308", "3.0e-5"];
    const OPERATORS: [&str; 13] =
        ["=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", ".", ";"];
    const PUNCTUATION: [&str; 3] = ["(", ")", ","];
    let at = |n: usize| (pick % n as u64) as usize;
    match class {
        0 => {
            let words = KEYWORDS.split_whitespace();
            words.clone().nth(at(words.count())).expect("index below the count").to_string()
        }
        1 => names[at(names.len())].clone(),
        2 => "?".to_string(),
        3 => INTS[at(INTS.len())].to_string(),
        4 => FLOATS[at(FLOATS.len())].to_string(),
        5 => literal(pick),
        6 => OPERATORS[at(OPERATORS.len())].to_string(),
        _ => PUNCTUATION[at(PUNCTUATION.len())].to_string(),
    }
}

/// Applies one mutation to `sql` (as characters, so UTF-8 stays whole):
/// a cut, an inserted or substituted token, a repeated span, a truncation,
/// or a placeholder replaced in place, which keeps the statement's shape
/// so that it often still runs.
fn mutate(sql: &mut Vec<char>, (kind, at, span, pick): (u8, usize, usize, u64)) {
    let at = at % (sql.len() + 1);
    let end = (at + span).min(sql.len());
    let token: Vec<char> = match pick % 3 {
        0 => literal(pick / 3).chars().collect(),
        _ => format!(" {} ", TOKENS[(pick / 3) as usize % TOKENS.len()]).chars().collect(),
    };
    match kind {
        0 | 1 => {
            let placeholders: Vec<usize> = (0..sql.len()).filter(|&i| sql[i] == '?').collect();
            if !placeholders.is_empty() {
                let i = placeholders[at % placeholders.len()];
                sql.splice(i..=i, token);
            }
        }
        2 => {
            sql.drain(at..end);
        }
        3 => {
            sql.splice(at..at, token);
        }
        4 => {
            sql.splice(at..end, token);
        }
        5 => {
            let copy: Vec<char> = sql[at..end].to_vec();
            sql.splice(end..end, copy);
        }
        _ => sql.truncate(at),
    }
}

/// Parameters for `sql`: integers, floats, NULLs and strings around the
/// inline limit, as many as it has placeholders (none if it does not
/// tokenize).
fn params(sql: &str, seed: u64) -> Vec<Value> {
    let n = count_params(sql).unwrap_or(0);
    (0..n as u64)
        .map(|i| match (seed >> (i % 16 * 4)) % 5 {
            0 => Value::Int(seed.rotate_left(i as u32) as i64 % 50),
            1 => Value::Float(1.5),
            2 => Value::Null,
            3 => Value::str(literal(seed ^ i).trim_matches('\'')),
            _ => Value::str(""),
        })
        .collect()
}

#[test]
fn corpus_statements_parse_unmutated() {
    let corpus = corpus();
    for (sqls, min) in [(&corpus.bookstore.0, 25), (&corpus.auction.0, 30)] {
        assert!(sqls.len() >= min, "only {} statements extracted", sqls.len());
        for sql in sqls {
            parse(sql).unwrap_or_else(|e| panic!("{sql:?} does not parse: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Any mutation of a real statement parses to `Ok` or `Err` and
    /// executes to `Ok` or `Err`, never a panic.
    #[test]
    fn mutated_statements_never_panic(
        auction in any::<bool>(),
        which in 0usize..1000,
        edits in prop::collection::vec((0u8..7, 0usize..400, 1usize..12, any::<u64>()), 0..3),
        seed in any::<u64>(),
    ) {
        let corpus = corpus();
        let (sqls, base) = if auction { &corpus.auction } else { &corpus.bookstore };
        let mut sql: Vec<char> = sqls[which % sqls.len()].chars().collect();
        for edit in edits {
            mutate(&mut sql, edit);
        }
        let sql: String = sql.into_iter().collect();
        let _ = parse(&sql);
        let mut db = base.clone();
        let _ = db.execute(&sql, &params(&sql, seed));
    }

    /// A random stream of 1–40 tokens parses to `Ok` or `Err` and
    /// executes to `Ok` or `Err`, never a panic. Half the streams open
    /// with a statement's leading words, so the parser gets past its first
    /// token.
    #[test]
    fn random_token_streams_never_panic(
        auction in any::<bool>(),
        lead in 0usize..10,
        tokens in prop::collection::vec((0u8..8, any::<u64>()), 1..41),
        seed in any::<u64>(),
    ) {
        const LEADS: [&str; 5] = ["SELECT", "INSERT INTO", "UPDATE", "DELETE FROM", "LOCK TABLES"];
        let corpus = corpus();
        let base = if auction { &corpus.auction.1 } else { &corpus.bookstore.1 };
        let mut words: Vec<String> = LEADS.get(lead).map(|w| w.to_string()).into_iter().collect();
        words.extend(tokens.iter().map(|&(class, pick)| token(class, pick, &corpus.names)));
        let sql = words.join(" ");
        let _ = parse(&sql);
        let mut db = base.clone();
        let _ = db.execute(&sql, &params(&sql, seed));
    }
}

/// The catalog ids a corpus statement's lock sets name, read from its
/// parse alone: a SELECT reads its FROM table and each joined table, a
/// write writes its target.
fn lock_sets(db: &Database, sql: &str) -> (Vec<usize>, Vec<usize>) {
    let id = |name: &str| db.table_index(name).expect("corpus statements name real tables");
    match parse(sql).expect("corpus statements parse") {
        Stmt::Select(s) => {
            let tables = std::iter::once(&s.from).chain(s.joins.iter().map(|j| &j.table));
            (tables.map(|t| id(&t.name)).collect(), Vec::new())
        }
        Stmt::Insert(i) => (Vec::new(), vec![id(&i.table)]),
        Stmt::Update(u) => (Vec::new(), vec![id(&u.table)]),
        Stmt::Delete(d) => (Vec::new(), vec![id(&d.table)]),
        other => unreachable!("the corpus holds only reads and writes, not {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// A corpus statement under a random `LOCK TABLES` set (each table of
    /// the schema left out, READ or WRITE, by one base-3 digit of `modes`)
    /// is refused exactly when the set leaves out one of its tables or
    /// holds a table it writes READ. A refused statement fails with a
    /// constraint error, counts one more `DbStats::errors` and leaves the
    /// data as it was; an admitted one returns what it returns, and leaves
    /// what it leaves, on a fork that holds no table locks.
    #[test]
    fn lock_tables_admits_or_refuses_before_running(
        auction in any::<bool>(),
        which in 0usize..1000,
        modes in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let corpus = corpus();
        let (sqls, base) = if auction { &corpus.auction } else { &corpus.bookstore };
        let sql = &sqls[which % sqls.len()];
        let params = params(sql, seed);
        let held: Vec<(usize, bool)> = (0..base.table_names().len())
            .filter_map(|t| match modes / 3u64.pow(t as u32) % 3 {
                0 => None,
                mode => Some((t, mode == 2)),
            })
            .collect();
        let mut locked = base.clone();
        if !held.is_empty() {
            let names = base.table_names();
            let list: Vec<String> = held
                .iter()
                .map(|&(t, write)| format!("{} {}", names[t], if write { "WRITE" } else { "READ" }))
                .collect();
            locked.execute(&format!("LOCK TABLES {}", list.join(", ")), &[]).expect("a lock set");
        }
        let (before, errors) = (locked.deep_clone(), locked.stats().errors);
        let got = locked.execute(sql, &params);

        let covers = |t: usize, write: bool| held.iter().any(|&(h, w)| h == t && (w || !write));
        let (reads, writes) = lock_sets(base, sql);
        let admitted = held.is_empty()
            || (reads.iter().all(|&t| covers(t, false)) && writes.iter().all(|&t| covers(t, true)));
        if admitted {
            let mut free = base.clone();
            let want = free.execute(sql, &params);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", sql);
            prop_assert!(locked.same_data(&free), "{sql}: data differs from the unlocked fork");
        } else {
            prop_assert!(matches!(got, Err(SqlError::Constraint(_))), "{sql}: {got:?}");
            prop_assert_eq!(locked.stats().errors, errors + 1, "{}", sql);
            prop_assert!(locked.same_data(&before), "{sql}: a refused statement changed data");
        }
    }
}
