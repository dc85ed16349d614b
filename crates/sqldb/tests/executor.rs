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
        // An integral Float finds its Int key; a fractional one finds none.
        ("SELECT name FROM items WHERE id = ?", vec![Value::Float(2.0)]),
        ("SELECT name FROM items WHERE id = ?", vec![Value::Float(2.5)]),
        // Range bounds that cross hold no key, on a secondary index as on
        // the primary key.
        ("SELECT name FROM items WHERE category > 20 AND category < 10", vec![]),
        ("SELECT name FROM items WHERE category > 10 AND category < 10", vec![]),
        ("SELECT name FROM items WHERE category BETWEEN 20 AND 10", vec![]),
        ("SELECT name FROM items WHERE id > 3 AND id < 2", vec![]),
        ("SELECT * FROM items WHERE name = 'desk'", vec![]),
        // Multi-conjunct filters: reversed operands, a Float parameter
        // against an Int column, LIKE kernels and a conjunct for `ceval`.
        (
            "SELECT name FROM items WHERE ? < nb_of_bids AND name NOT LIKE ? \
             AND max_bid * 1 >= ?",
            vec![Value::Float(0.5), Value::str("%es%"), Value::Int(10)],
        ),
        (
            "SELECT i.name, u.nickname FROM items i JOIN users u ON i.seller = u.id \
             WHERE u.nickname LIKE 'a%' AND i.max_bid > u.region",
            vec![],
        ),
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
        ("SELECT i.name, u.nickname FROM items i JOIN users u ON i.seller = u.id", vec![]),
        ("UPDATE users SET region = 3 WHERE id = ?", vec![Value::Int(2)]),
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
    let (mut reference, mut session) = (auction_db(), reference::Session::default());
    for (sql, params) in battery() {
        let got = compiled.execute(sql, &params).expect(sql);
        let want = session.run(&mut reference, sql, &params).expect(sql);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "divergence on {sql}");
        assert!(compiled.same_data(&reference), "data diverged after {sql}");
    }
}

/// Under `LOCK TABLES`, the compiled executor refuses exactly the
/// statements the reference's session rules refuse, with the same error,
/// and neither changes any data for them; `UNLOCK TABLES` then names the
/// same released set and ends the refusals.
#[test]
fn lock_tables_session_matches_reference() {
    let mut compiled = auction_db();
    let (mut reference, mut session) = (auction_db(), reference::Session::default());
    for (sql, refused) in [
        ("LOCK TABLES items READ, users WRITE", false),
        ("SELECT i.name, u.nickname FROM items i JOIN users u ON i.seller = u.id", false),
        ("SELECT COUNT(*) FROM items i JOIN bids b ON b.item_id = i.id", true),
        ("DELETE FROM users WHERE id = 3", false),
        ("UPDATE items SET nb_of_bids = 0 WHERE id = 1", true),
        ("INSERT INTO bids (id, item_id, user_id, bid, qty) VALUES (NULL, 1, 1, 9.5, 1)", true),
        ("LOCK TABLES bids WRITE", true),
        ("UNLOCK TABLES", false),
        ("UPDATE items SET nb_of_bids = 0 WHERE id = 1", false),
        ("UNLOCK TABLES", false),
    ] {
        let got = compiled.execute(sql, &[]);
        let want = session.run(&mut reference, sql, &[]);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "divergence on {sql}");
        assert_eq!(matches!(got, Err(SqlError::Constraint(_))), refused, "{sql}");
        assert!(compiled.same_data(&reference), "data diverged after {sql}");
    }
}

/// A join whose outer keys are Floats equal to the inner primary key's
/// Ints finds those rows whatever the outer cardinality (5 or 50 outer
/// rows, each probing the key in place), and the reference agrees. `-0.0`
/// and fractional keys match nothing, as `Value` equality says.
#[test]
fn float_keys_join_a_dense_primary_key_at_any_outer_size() {
    let build = || {
        let mut db = Database::new();
        for (name, ty) in [("p", ColumnType::Str), ("f", ColumnType::Float)] {
            let schema = TableSchema::builder(name)
                .column("id", ColumnType::Int)
                .column("v", ty)
                .primary_key("id")
                .build()
                .unwrap();
            db.create_table(schema).unwrap();
        }
        for id in 0..60 {
            let sql = "INSERT INTO p (id, v) VALUES (?, ?)";
            db.execute(sql, &[Value::Int(id), Value::str(format!("p{id}"))]).unwrap();
        }
        for id in 1..=55 {
            let key = match id % 11 {
                0 => -0.0,
                5 => id as f64 + 0.5,
                _ => id as f64,
            };
            let sql = "INSERT INTO f (id, v) VALUES (?, ?)";
            db.execute(sql, &[Value::Int(id), Value::Float(key)]).unwrap();
        }
        db
    };
    let (mut compiled, mut reference) = (build(), build());
    let sql = "SELECT f.id, p.v FROM f JOIN p ON f.v = p.id WHERE f.id <= ?";
    for (outer, matched) in [(5, 4), (50, 50 - 4 - 5)] {
        let params = [Value::Int(outer)];
        let got = compiled.execute(sql, &params).unwrap();
        let want = reference::run(&mut reference, sql, &params).unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{outer} outer rows");
        assert_eq!(got.rows.len(), matched, "{outer} outer rows");
        assert_eq!(got.counters.index_lookups, 1 + outer as u64);
    }
}

/// `o` joins `t` on `o.k = t.k`; both key columns hold duplicates and
/// NULLs, and `t.k` has a secondary index when `indexed`. A NULL key joins
/// nothing, as in SQL.
fn keyed_pair(indexed: bool) -> Database {
    let mut db = Database::new();
    let o = TableSchema::builder("o")
        .column("id", ColumnType::Int)
        .nullable_column("k", ColumnType::Int)
        .primary_key("id");
    let mut t = TableSchema::builder("t")
        .column("id", ColumnType::Int)
        .nullable_column("k", ColumnType::Int)
        .column("v", ColumnType::Str)
        .primary_key("id");
    if indexed {
        t = t.index("k");
    }
    db.create_table(o.build().unwrap()).unwrap();
    db.create_table(t.build().unwrap()).unwrap();
    for id in 1..=40 {
        let k = if id % 5 == 0 { Value::Null } else { Value::Int(id % 7) };
        db.execute("INSERT INTO o (id, k) VALUES (?, ?)", &[Value::Int(id), k]).unwrap();
    }
    for id in 1..=30 {
        let k = if id % 6 == 0 { Value::Null } else { Value::Int(id % 5) };
        let v = Value::str(format!("t{id}"));
        db.execute("INSERT INTO t (id, k, v) VALUES (?, ?, ?)", &[Value::Int(id), k, v]).unwrap();
    }
    db
}

/// Runs the `keyed_pair` join over the outer rows with ids in `lo..=hi`
/// on the compiled executor and on the reference: the same rows in the
/// same (probe) order, columns, lock sets, counters and data. Each window
/// also pins its outer row count through the counters: one index read for
/// the outer range, plus one probe per outer row when `t.k` is indexed.
fn keyed_join_parity(indexed: bool, windows: &[(i64, i64, u64)]) {
    let (mut compiled, mut reference) = (keyed_pair(indexed), keyed_pair(indexed));
    let sql = "SELECT o.id, o.k, t.id, t.v FROM o JOIN t ON o.k = t.k WHERE o.id BETWEEN ? AND ?";
    for &(lo, hi, outer) in windows {
        let params = [Value::Int(lo), Value::Int(hi)];
        let got = compiled.execute(sql, &params).unwrap();
        let want = reference::run(&mut reference, sql, &params).unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "outer ids {lo}..={hi}");
        let probes = if indexed { outer } else { 0 };
        assert_eq!(got.counters.index_lookups, 1 + probes, "outer ids {lo}..={hi}");
        assert!(compiled.same_data(&reference), "data diverged, outer ids {lo}..={hi}");
    }
}

/// An unindexed inner column is probed through a hash table built from
/// one scan, at no outer row, at one (with a NULL key and without), and
/// at many.
#[test]
fn unindexed_inner_join_matches_reference_at_any_outer_size() {
    keyed_join_parity(false, &[(1, 0, 0), (5, 5, 1), (3, 3, 1), (1, 4, 4), (1, 40, 40)]);
}

/// A secondary-indexed inner column is probed once per outer row, also
/// when the outer side is wide against few distinct inner keys.
#[test]
fn secondary_index_join_matches_reference_with_wide_outer_side() {
    keyed_join_parity(true, &[(1, 40, 40), (3, 36, 34)]);
}

/// A NULL join key matches nothing, as SQL's `NULL = NULL` is unknown:
/// outer row 5 (`k` NULL) joins no row of `t`, though `t` holds NULL keys
/// too, and its probe is still charged. Over every outer row the join
/// returns exactly the pairs of equal non-NULL keys, and the reference
/// agrees.
fn null_keys_join_nothing(indexed: bool) {
    let key =
        |id: i64, null_every: i64, modulus: i64| (id % null_every != 0).then_some(id % modulus);
    let pairs = (1..=40).flat_map(|o| (1..=30).map(move |t| (o, t)));
    let equal = pairs.filter(|&(o, t)| key(o, 5, 7).is_some() && key(o, 5, 7) == key(t, 6, 5));
    let want = equal.count();
    let sql = "SELECT o.id, t.id FROM o JOIN t ON o.k = t.k WHERE o.id BETWEEN ? AND ?";
    let (mut compiled, mut reference) = (keyed_pair(indexed), keyed_pair(indexed));
    for (lo, hi, rows) in [(5, 5, 0), (1, 40, want)] {
        let params = [Value::Int(lo), Value::Int(hi)];
        let got = compiled.execute(sql, &params).unwrap();
        assert_eq!(got.rows.len(), rows, "outer ids {lo}..={hi}");
        let spec = reference::run(&mut reference, sql, &params).unwrap();
        assert_eq!(format!("{got:?}"), format!("{spec:?}"), "outer ids {lo}..={hi}");
    }
    let one = compiled.execute(sql, &[Value::Int(5), Value::Int(5)]).unwrap();
    assert_eq!(one.counters.index_lookups, 1 + u64::from(indexed));
    assert_eq!(one.counters.rows_examined, 1 + 1);
}

#[test]
fn null_keys_join_nothing_through_the_hash_probe() {
    null_keys_join_nothing(false);
}

#[test]
fn null_keys_join_nothing_through_the_index_probe() {
    null_keys_join_nothing(true);
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
    // Both tables appear in the lock set, by catalog id.
    let ids = ["items", "users"].map(|t| db.table_index(t).unwrap());
    assert_eq!(r.read_tables, ids);
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
