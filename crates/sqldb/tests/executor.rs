//! Executor behaviour through the public API, with the compiled executor
//! checked statement by statement against the naive reference executor
//! in `reference/mod.rs`.

mod reference;

use dynamid_sqldb::{ColumnType, Database, SqlError, TableSchema, Value};

/// A small auction-shaped catalog: users, items, bids.
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

/// Statements covering every plan shape: point/secondary/range access,
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
        // Ints in the Float column, each equal to a Float bid already on
        // item 1 (they reuse the slots the DELETE freed): MIN must keep
        // the first of equal minima and MAX the last of equal maxima.
        ("INSERT INTO bids VALUES (NULL, 1, 3, 20, 1)", vec![]),
        ("INSERT INTO bids VALUES (NULL, 1, 1, ?, 2)", vec![Value::Int(25)]),
        (
            "SELECT item_id, MIN(bid), MAX(bid), SUM(qty) FROM bids \
             GROUP BY item_id ORDER BY item_id",
            vec![],
        ),
        ("SELECT MIN(bid), MAX(bid) FROM bids WHERE item_id = 1", vec![]),
        ("LOCK TABLES users WRITE, items READ", vec![]),
        ("UNLOCK TABLES", vec![]),
    ]
}

/// The compiled executor returns exactly what the reference returns —
/// rows cell by cell with each value's variant, columns, lock sets and
/// every counter — and leaves exactly the same data, after every
/// statement of the battery, reads and writes alike.
#[test]
fn compiled_matches_reference_on_battery() {
    let mut compiled = auction_db();
    let mut reference = auction_db();
    for (sql, params) in battery() {
        let got = compiled.execute(sql, &params).expect(sql);
        let want = reference::run(&mut reference, sql, &params).expect(sql);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "divergence on {sql}");
        assert!(compiled.same_data(&reference), "data diverged after {sql}");
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

#[test]
fn join_with_index_lookup() {
    let mut db = auction_db();
    let r = db
        .execute(
            "SELECT i.name, u.nickname FROM items i \
             INNER JOIN users u ON i.seller = u.id WHERE i.category = 10",
            &[],
        )
        .unwrap();
    let mut pairs: Vec<(String, String)> = r
        .rows
        .iter()
        .map(|row| (row[0].as_str().unwrap().to_string(), row[1].as_str().unwrap().to_string()))
        .collect();
    pairs.sort();
    assert_eq!(
        pairs,
        vec![
            ("book".into(), "bob".into()),
            ("lamp".into(), "ann".into()),
            ("vase".into(), "cat".into()),
        ]
    );
    assert_eq!(r.columns, vec!["name", "nickname"]);
    // Both tables appear in the lock set.
    assert_eq!(r.read_tables, vec!["items", "users"]);
}

#[test]
fn join_reversed_on_clause() {
    let mut db = auction_db();
    let r = db
        .execute("SELECT b.bid FROM items i JOIN bids b ON i.id = b.item_id WHERE i.id = 1", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn two_joins_chain() {
    let mut db = auction_db();
    let r = db
        .execute(
            "SELECT u.nickname, i.name, b.bid FROM bids b \
             JOIN items i ON b.item_id = i.id \
             JOIN users u ON b.user_id = u.id \
             WHERE b.qty > 0 ORDER BY b.bid DESC LIMIT 2",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][2], Value::Float(80.0));
    assert_eq!(r.rows[1][2], Value::Float(25.0));
}

#[test]
fn group_by_with_aggregates_and_order() {
    let mut db = auction_db();
    // Total quantity bid per item, best sellers style.
    let r = db
        .execute(
            "SELECT item_id, SUM(qty) AS total, COUNT(*) AS n, MAX(bid) AS top \
             FROM bids GROUP BY item_id ORDER BY total DESC",
            &[],
        )
        .unwrap();
    assert_eq!(r.columns, vec!["item_id", "total", "n", "top"]);
    assert_eq!(r.rows.len(), 3);
    // item 1 and item 4 both have qty total 4; groups come in key order and
    // the stable sort by total desc keeps item 1 first.
    assert_eq!(r.rows[0][1], Value::Int(4));
    assert_eq!(r.rows[2][1], Value::Int(1));
    let top_of_first = r.rows[0][3].as_float().unwrap();
    assert!(top_of_first > 0.0);
}

#[test]
fn global_aggregates_over_empty_set() {
    let mut db = auction_db();
    let r =
        db.execute("SELECT COUNT(*), MAX(bid), SUM(qty) FROM bids WHERE bid > 1000", &[]).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert_eq!(r.rows[0][1], Value::Null);
    assert_eq!(r.rows[0][2], Value::Null);
}

#[test]
fn group_by_over_empty_set_returns_no_rows() {
    let mut db = auction_db();
    let r = db
        .execute("SELECT item_id, COUNT(*) FROM bids WHERE bid > 1000 GROUP BY item_id", &[])
        .unwrap();
    assert!(r.is_empty());
}

#[test]
fn avg_and_min() {
    let mut db = auction_db();
    let r = db.execute("SELECT AVG(qty), MIN(bid) FROM bids WHERE item_id = 1", &[]).unwrap();
    let avg = r.rows[0][0].as_float().unwrap();
    assert!((avg - 4.0 / 3.0).abs() < 1e-9);
    assert_eq!(r.rows[0][1], Value::Float(20.0));
}

#[test]
fn order_by_alias_and_multiple_keys() {
    let mut db = auction_db();
    let r =
        db.execute("SELECT name, category AS cat FROM items ORDER BY cat, name DESC", &[]).unwrap();
    let names: Vec<&str> = r.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(names, vec!["vase", "lamp", "book", "desk"]);
}

#[test]
fn limit_and_offset() {
    let mut db = auction_db();
    let all = db.execute("SELECT id FROM items ORDER BY id", &[]).unwrap();
    assert_eq!(all.rows.len(), 4);
    let page = db.execute("SELECT id FROM items ORDER BY id LIMIT 1, 2", &[]).unwrap();
    assert_eq!(page.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
    let beyond = db.execute("SELECT id FROM items ORDER BY id LIMIT 100, 5", &[]).unwrap();
    assert!(beyond.is_empty());
}

#[test]
fn select_star_and_table_star() {
    let mut db = auction_db();
    let r = db.execute("SELECT * FROM users WHERE id = 1", &[]).unwrap();
    assert_eq!(r.columns, vec!["id", "nickname", "region"]);
    let r = db
        .execute("SELECT u.* FROM items i JOIN users u ON i.seller = u.id WHERE i.id = 1", &[])
        .unwrap();
    assert_eq!(r.columns, vec!["id", "nickname", "region"]);
    assert_eq!(r.rows[0][1], Value::str("ann"));
}

#[test]
fn expression_projection_and_where_arithmetic() {
    let mut db = auction_db();
    let r = db
        .execute(
            "SELECT name, max_bid * 2 AS doubled FROM items WHERE max_bid + 1 > 13 ORDER BY doubled",
            &[],
        )
        .unwrap();
    let names: Vec<&str> = r.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(names, vec!["lamp", "desk"]);
    assert_eq!(r.rows[0][1], Value::Float(50.0));
}

#[test]
fn like_and_in_and_null_semantics() {
    let mut db = auction_db();
    let r = db.execute("SELECT name FROM items WHERE name LIKE '%a%' ORDER BY name", &[]).unwrap();
    let names: Vec<&str> = r.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(names, vec!["lamp", "vase"]);
    let r = db.execute("SELECT name FROM items WHERE category IN (20, 30)", &[]).unwrap();
    assert_eq!(r.rows.len(), 1);
    // NULL never matches a comparison.
    let r = db.execute("SELECT name FROM items WHERE NULL = NULL", &[]).unwrap();
    assert!(r.is_empty());
}

#[test]
fn ambiguous_column_is_an_error() {
    let mut db = auction_db();
    let err =
        db.execute("SELECT id FROM items i JOIN users u ON i.seller = u.id", &[]).unwrap_err();
    assert!(matches!(err, SqlError::AmbiguousColumn(_)));
}

#[test]
fn unknown_references_error() {
    let mut db = auction_db();
    assert!(matches!(
        db.execute("SELECT zz FROM users", &[]).unwrap_err(),
        SqlError::UnknownColumn(_)
    ));
    assert!(matches!(
        db.execute("SELECT u.id FROM users x", &[]).unwrap_err(),
        SqlError::UnknownTable(_)
    ));
}

#[test]
fn update_with_expression_and_index_path() {
    let mut db = auction_db();
    let r = db
        .execute(
            "UPDATE items SET nb_of_bids = nb_of_bids + 1, max_bid = ? WHERE id = ?",
            &[Value::Float(30.0), Value::Int(1)],
        )
        .unwrap();
    assert_eq!(r.affected, 1);
    // Point update examined only the one row.
    assert_eq!(r.counters.rows_examined, 1);
    let r = db.execute("SELECT nb_of_bids, max_bid FROM items WHERE id = 1", &[]).unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(4), Value::Float(30.0)]);
}

#[test]
fn delete_via_secondary_index() {
    let mut db = auction_db();
    let r = db.execute("DELETE FROM bids WHERE item_id = ?", &[Value::Int(1)]).unwrap();
    assert_eq!(r.affected, 3);
    let left = db.execute("SELECT COUNT(*) FROM bids", &[]).unwrap();
    assert_eq!(left.scalar(), Some(&Value::Int(3)));
}

#[test]
fn insert_without_column_list() {
    let mut db = auction_db();
    db.execute("INSERT INTO users VALUES (99, 'zed', 7)", &[]).unwrap();
    let r = db.execute("SELECT nickname FROM users WHERE id = 99", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::str("zed"));
    // Arity mismatch is caught.
    assert!(db.execute("INSERT INTO users VALUES (1, 'x')", &[]).is_err());
}

#[test]
fn insert_missing_not_null_column_fails() {
    let mut db = auction_db();
    let err = db.execute("INSERT INTO users (id) VALUES (NULL)", &[]).unwrap_err();
    assert!(matches!(err, SqlError::Constraint(_)));
}

/// INSERT values are row-free expressions: parameters and arithmetic
/// evaluate, and a column reference is an error.
#[test]
fn insert_values_are_row_free_expressions() {
    let mut db = auction_db();
    db.execute(
        "INSERT INTO users (id, nickname, region) VALUES (NULL, 'dee', 2 + ?)",
        &[Value::Int(5)],
    )
    .unwrap();
    let r = db.execute("SELECT region FROM users WHERE nickname = 'dee'", &[]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(7)]]);
    let err = db
        .execute("INSERT INTO users (id, nickname, region) VALUES (NULL, 'eve', region)", &[])
        .unwrap_err();
    assert!(matches!(err, SqlError::Unsupported(_)));
}

#[test]
fn counters_distinguish_scan_from_lookup() {
    let mut db = auction_db();
    let by_pk = db.execute("SELECT * FROM items WHERE id = 2", &[]).unwrap();
    assert_eq!(by_pk.counters.rows_examined, 1);
    let scan = db.execute("SELECT * FROM items WHERE name = 'desk'", &[]).unwrap();
    assert_eq!(scan.counters.rows_examined, 4);
    assert!(scan.counters.bytes_returned > 0);
}

#[test]
fn sort_counters_accumulate() {
    let mut db = auction_db();
    let r = db.execute("SELECT * FROM items ORDER BY max_bid DESC", &[]).unwrap();
    assert_eq!(r.counters.sort_rows, 4);
}

#[test]
fn query_result_helpers() {
    let mut db = auction_db();
    let r = db.execute("SELECT nickname, region FROM users WHERE id = 1", &[]).unwrap();
    assert_eq!(r.col_index("region"), Some(1));
    assert_eq!(r.get(0, "nickname"), Some(&Value::str("ann")));
    assert_eq!(r.get(0, "missing"), None);
    assert_eq!(r.len(), 1);
    assert!(!r.is_empty());
}
