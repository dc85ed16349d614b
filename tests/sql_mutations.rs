//! Mutated SQL never panics: the bookstore's and the auction site's own
//! statements, cut, spliced and seeded with stray tokens and string
//! literals of 13–16 bytes (either side of the 14-byte inline string
//! limit), go through `parse` and then `Database::execute` on a small
//! populated database. Every case must return `Ok` or `Err`.

use dynamid::auction::AuctionScale;
use dynamid::bookstore::BookstoreScale;
use dynamid::sqldb::{count_params, parse, Database, Value};
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

/// The corpus: each benchmark's statements with the database they run on.
struct Corpus {
    bookstore: (Vec<String>, Database),
    auction: (Vec<String>, Database),
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
        Corpus {
            bookstore: (
                statements(include_str!("../crates/bookstore/src/sql_logic.rs")),
                dynamid::bookstore::build_db(&tiny_store, 5).expect("bookstore population"),
            ),
            auction: (
                statements(include_str!("../crates/auction/src/sql_logic.rs")),
                dynamid::auction::build_db(&tiny_auction, 5).expect("auction population"),
            ),
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
}
