//! Property-based tests for the SQL engine.
//!
//! Core invariants: inserted data is faithfully returned, indexed and
//! unindexed access paths agree, ORDER BY/LIMIT behave like the obvious
//! reference implementation, the compiled executor matches the naive
//! reference executor in `reference/mod.rs`, the LIKE matcher agrees
//! with a naive backtracking oracle, and string values behave as their
//! bytes on both sides of the 14-byte inline limit.

mod reference;

use dynamid_sqldb::{
    CacheInvalidation, CacheKey, CachePolicy, ColumnType, Database, Lookup, TableSchema, Value,
};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Builds two tables with identical content; `fast` has a secondary index
/// on `k`, `slow` does not.
fn twin_tables(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    for (name, indexed) in [("fast", true), ("slow", false)] {
        let mut b = TableSchema::builder(name)
            .column("id", ColumnType::Int)
            .column("k", ColumnType::Int)
            .primary_key("id")
            .auto_increment();
        if indexed {
            b = b.index("k");
        }
        db.create_table(b.build().unwrap()).unwrap();
    }
    for (id, k) in rows {
        for t in ["fast", "slow"] {
            db.execute(
                &format!("INSERT INTO {t} (id, k) VALUES (?, ?)"),
                &[Value::Int(*id), Value::Int(*k)],
            )
            .unwrap();
        }
    }
    db
}

fn ids_of(r: &dynamid_sqldb::QueryResult) -> Vec<i64> {
    let c = r.col_index("id").unwrap();
    let mut ids: Vec<i64> = r.rows.iter().map(|row| row[c].as_int().unwrap()).collect();
    ids.sort_unstable();
    ids
}

/// SQL `LIKE` by its definition: `%` matches any run of characters, `_`
/// exactly one character, anything else itself. `m[i][j]` says whether
/// the text from character `i` on matches the pattern from character `j`
/// on, filled from the ends back.
fn like_oracle(text: &str, pattern: &str) -> bool {
    let (t, p): (Vec<char>, Vec<char>) = (text.chars().collect(), pattern.chars().collect());
    let mut m = vec![vec![false; p.len() + 1]; t.len() + 1];
    m[t.len()][p.len()] = true;
    for j in (0..p.len()).rev() {
        for i in (0..=t.len()).rev() {
            let next = i < t.len() && m[i + 1][j + 1];
            m[i][j] = match p[j] {
                '%' => m[i][j + 1] || (i < t.len() && m[i + 1][j]),
                '_' => next,
                c => next && t[i] == c,
            };
        }
    }
    m[0][0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever we insert comes back unchanged.
    #[test]
    fn insert_select_roundtrip(
        vals in prop::collection::vec((0i64..1000, -1000i64..1000, ".{0,12}"), 0..40)
    ) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", ColumnType::Int)
                .column("n", ColumnType::Int)
                .column("s", ColumnType::Str)
                .primary_key("id")
                .auto_increment()
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut expected = Vec::new();
        for (i, (_, n, s)) in vals.iter().enumerate() {
            db.execute(
                "INSERT INTO t (id, n, s) VALUES (?, ?, ?)",
                &[Value::Int(i as i64 + 1), Value::Int(*n), Value::str(s)],
            )
            .unwrap();
            expected.push((i as i64 + 1, *n, s.clone()));
        }
        let r = db.execute("SELECT id, n, s FROM t ORDER BY id", &[]).unwrap();
        prop_assert_eq!(r.rows.len(), expected.len());
        for (row, (id, n, s)) in r.rows.iter().zip(&expected) {
            prop_assert_eq!(row[0].as_int().unwrap(), *id);
            prop_assert_eq!(row[1].as_int().unwrap(), *n);
            prop_assert_eq!(row[2].as_str().unwrap(), s.as_str());
        }
    }

    /// Index-equality and full-scan paths return the same rows.
    #[test]
    fn index_eq_matches_scan(
        rows in prop::collection::vec((1i64..500, 0i64..10), 1..60),
        probe in 0i64..10,
    ) {
        // De-duplicate primary keys.
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> = rows
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .collect();
        let mut db = twin_tables(&rows);
        let f = db.execute("SELECT id FROM fast WHERE k = ?", &[Value::Int(probe)]).unwrap();
        let s = db.execute("SELECT id FROM slow WHERE k = ?", &[Value::Int(probe)]).unwrap();
        prop_assert_eq!(ids_of(&f), ids_of(&s));
        // The indexed path examined no more rows than the scan.
        prop_assert!(f.counters.rows_examined <= s.counters.rows_examined);
    }

    /// Index-range and full-scan paths agree on BETWEEN.
    #[test]
    fn index_range_matches_scan(
        rows in prop::collection::vec((1i64..500, -50i64..50), 1..60),
        lo in -50i64..50,
        width in 0i64..40,
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> = rows
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .collect();
        let mut db = twin_tables(&rows);
        let hi = lo + width;
        let q = "SELECT id FROM fast WHERE k BETWEEN ? AND ?";
        let f = db.execute(q, &[Value::Int(lo), Value::Int(hi)]).unwrap();
        let s = db
            .execute(
                "SELECT id FROM slow WHERE k BETWEEN ? AND ?",
                &[Value::Int(lo), Value::Int(hi)],
            )
            .unwrap();
        prop_assert_eq!(ids_of(&f), ids_of(&s));
    }

    /// ORDER BY k produces a non-decreasing (or non-increasing) column, and
    /// LIMIT yields exactly the prefix of the full ordering.
    #[test]
    fn order_and_limit_are_consistent(
        rows in prop::collection::vec((1i64..500, -100i64..100), 1..60),
        limit in 1u64..20,
        desc in any::<bool>(),
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> = rows
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .collect();
        let mut db = twin_tables(&rows);
        let dir = if desc { "DESC" } else { "ASC" };
        let full = db
            .execute(&format!("SELECT id, k FROM fast ORDER BY k {dir}, id"), &[])
            .unwrap();
        let ks: Vec<i64> = full.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        for w in ks.windows(2) {
            if desc {
                prop_assert!(w[0] >= w[1]);
            } else {
                prop_assert!(w[0] <= w[1]);
            }
        }
        let page = db
            .execute(
                &format!("SELECT id, k FROM fast ORDER BY k {dir}, id LIMIT {limit}"),
                &[],
            )
            .unwrap();
        prop_assert_eq!(&page.rows[..], &full.rows[..page.rows.len()]);
        prop_assert!(page.rows.len() as u64 <= limit);
    }

    /// COUNT(*) equals the number of matching rows; SUM matches a fold.
    #[test]
    fn aggregates_match_reference(
        rows in prop::collection::vec((1i64..500, -20i64..20), 0..60),
        probe in -20i64..20,
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> = rows
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .collect();
        let mut db = twin_tables(&rows);
        let r = db
            .execute(
                "SELECT COUNT(*), SUM(k) FROM fast WHERE k >= ?",
                &[Value::Int(probe)],
            )
            .unwrap();
        let matching: Vec<i64> = rows.iter().filter(|(_, k)| *k >= probe).map(|(_, k)| *k).collect();
        prop_assert_eq!(r.rows[0][0].as_int().unwrap(), matching.len() as i64);
        if matching.is_empty() {
            prop_assert!(r.rows[0][1].is_null());
        } else {
            prop_assert_eq!(r.rows[0][1].as_int().unwrap(), matching.iter().sum::<i64>());
        }
    }

    /// DELETE removes exactly the matching rows; survivors unchanged.
    #[test]
    fn delete_complements_select(
        rows in prop::collection::vec((1i64..500, 0i64..10), 0..60),
        probe in 0i64..10,
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> = rows
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .collect();
        let mut db = twin_tables(&rows);
        let before = db.execute("SELECT id FROM fast", &[]).unwrap();
        let hit = db
            .execute("SELECT id FROM fast WHERE k = ?", &[Value::Int(probe)])
            .unwrap();
        let del = db
            .execute("DELETE FROM fast WHERE k = ?", &[Value::Int(probe)])
            .unwrap();
        prop_assert_eq!(del.affected as usize, hit.rows.len());
        let after = db.execute("SELECT id FROM fast", &[]).unwrap();
        prop_assert_eq!(after.rows.len(), before.rows.len() - hit.rows.len());
        // None of the survivors match the probe.
        let rematch = db
            .execute("SELECT id FROM fast WHERE k = ?", &[Value::Int(probe)])
            .unwrap();
        prop_assert!(rematch.is_empty());
    }

    /// The LIKE matcher agrees with a naive recursive oracle, over text
    /// with a multi-byte character and over patterns of every shape: a
    /// general one, a prefix, suffix or substring form, and the text itself
    /// with the characters `mask` picks turned into `_`.
    #[test]
    fn like_matches_oracle(
        text in "[abé_%]{0,10}",
        general in "[abé_%]{0,8}",
        lit in "[abé]{0,3}",
        shape in 0usize..3,
        mask in any::<u64>(),
    ) {
        let shaped = match shape {
            0 => format!("%{lit}%"),
            1 => format!("{lit}%"),
            _ => format!("%{lit}"),
        };
        let masked: String = text
            .chars()
            .enumerate()
            .map(|(i, c)| if mask >> i & 1 == 1 { '_' } else { c })
            .collect();
        for pattern in [general, shaped, masked] {
            let expect = like_oracle(&text, &pattern);
            let got = Value::str(&text).like(&Value::str(&pattern)).unwrap();
            prop_assert_eq!(got, expect, "text={:?} pattern={:?}", text, pattern);
        }
    }

    /// UPDATE arithmetic matches the reference computation.
    #[test]
    fn update_arithmetic_reference(
        rows in prop::collection::vec((1i64..200, -100i64..100), 1..40),
        delta in -10i64..10,
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> = rows
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .collect();
        let mut db = twin_tables(&rows);
        db.execute("UPDATE fast SET k = k + ?", &[Value::Int(delta)]).unwrap();
        let r = db.execute("SELECT id, k FROM fast ORDER BY id", &[]).unwrap();
        let mut expected: Vec<(i64, i64)> =
            rows.iter().map(|(id, k)| (*id, *k + delta)).collect();
        expected.sort_unstable();
        let got: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(got, expected);
    }
}

/// Read-only query templates exercising every plan shape; the pair is
/// (SQL, how many `?` parameters it binds).
const READ_TEMPLATES: [(&str, usize); 6] = [
    ("SELECT id, k FROM fast WHERE id = ?", 1),
    ("SELECT id, k FROM fast WHERE k = ?", 1),
    ("SELECT id FROM fast WHERE k BETWEEN ? AND ? ORDER BY id", 2),
    ("SELECT COUNT(*), SUM(k) FROM fast WHERE k >= ?", 1),
    ("SELECT k, COUNT(*) AS n FROM fast GROUP BY k ORDER BY n DESC, k", 0),
    ("SELECT id FROM slow WHERE k = ? ORDER BY id LIMIT 5", 1),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A statement served from the plan cache returns exactly what the
    /// fresh compilation returned: same rows, same columns, same counters.
    /// Cost accounting must not depend on cache temperature.
    #[test]
    fn warm_plan_equals_cold_plan(
        rows in prop::collection::vec((1i64..300, -20i64..20), 0..50),
        queries in prop::collection::vec((0usize..6, -25i64..25, 0i64..30), 1..12),
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> = rows
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .collect();
        // `kept` reuses cached plans; `cleared` recompiles every statement.
        // (Population itself hits the plan cache, hence the baselines.)
        let mut kept = twin_tables(&rows);
        let mut cleared = twin_tables(&rows);
        let kept_base = kept.stats().plan_cache_hits;
        let cleared_base = cleared.stats().plan_cache_hits;
        for (tpl, a, w) in queries {
            let (sql, nparams) = READ_TEMPLATES[tpl];
            let params = [Value::Int(a), Value::Int(a + w)];
            let params = &params[..nparams];
            // Execute twice on `kept`: the second run is a guaranteed
            // plan-cache hit and must match the first exactly.
            let cold = kept.execute(sql, params).unwrap();
            let warm = kept.execute(sql, params).unwrap();
            prop_assert_eq!(&cold, &warm, "cache hit diverged on {}", sql);
            cleared.clear_caches();
            let fresh = cleared.execute(sql, params).unwrap();
            prop_assert_eq!(&cold, &fresh, "cleared-cache run diverged on {}", sql);
        }
        // The kept database really did serve from the plan cache: one hit
        // per repeated execution. The cleared one never did.
        prop_assert!(kept.stats().plan_cache_hits > kept_base);
        prop_assert_eq!(cleared.stats().plan_cache_hits, cleared_base);
    }

    /// DDL invalidates cached plans lazily; the recompiled plan answers
    /// identically and the invalidation is visible in the stats.
    #[test]
    fn ddl_invalidation_preserves_results(
        rows in prop::collection::vec((1i64..300, -20i64..20), 0..50),
        tpl in 0usize..6,
        a in -25i64..25,
        w in 0i64..30,
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> = rows
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .collect();
        let mut db = twin_tables(&rows);
        let (sql, nparams) = READ_TEMPLATES[tpl];
        let params = [Value::Int(a), Value::Int(a + w)];
        let params = &params[..nparams];
        let before = db.execute(sql, params).unwrap();

        let inv0 = db.stats().plan_invalidations;
        db.create_table(
            TableSchema::builder("unrelated")
                .column("id", ColumnType::Int)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();

        // The stale plan is recompiled transparently and agrees with the
        // pre-DDL execution (the new table cannot affect these queries).
        let after = db.execute(sql, params).unwrap();
        prop_assert_eq!(&before, &after, "post-DDL recompile diverged on {}", sql);
        prop_assert_eq!(db.stats().plan_invalidations, inv0 + 1);
        // And the recompiled plan is cached again.
        let hits = db.stats().plan_cache_hits;
        let again = db.execute(sql, params).unwrap();
        prop_assert_eq!(&after, &again);
        prop_assert_eq!(db.stats().plan_cache_hits, hits + 1);
    }
}

/// Builds a parent/child pair with randomized index coverage. `parent.grp`
/// and `child.pid` are secondary-indexed only when the flags say so, which
/// steers the compiled executor between primary-key, hash-of-index,
/// hash-of-scan, B-tree probe, and scan join strategies. `child.w` is
/// NULL where the generated value is negative.
fn parent_child(
    parents: &[(i64, String, i64)],
    children: &[(i64, i64, i64, i64)],
    grp_indexed: bool,
    pid_indexed: bool,
) -> Database {
    let mut db = Database::new();
    let mut pb = TableSchema::builder("parent")
        .column("id", ColumnType::Int)
        .column("name", ColumnType::Str)
        .column("grp", ColumnType::Int)
        .primary_key("id");
    if grp_indexed {
        pb = pb.index("grp");
    }
    db.create_table(pb.build().unwrap()).unwrap();
    let mut cb = TableSchema::builder("child")
        .column("id", ColumnType::Int)
        .column("pid", ColumnType::Int)
        .column("v", ColumnType::Int)
        .nullable_column("w", ColumnType::Int)
        .primary_key("id");
    if pid_indexed {
        cb = cb.index("pid");
    }
    db.create_table(cb.build().unwrap()).unwrap();
    for (id, name, grp) in parents {
        db.execute(
            "INSERT INTO parent (id, name, grp) VALUES (?, ?, ?)",
            &[Value::Int(*id), Value::str(name), Value::Int(*grp)],
        )
        .unwrap();
    }
    for (id, pid, v, w) in children {
        let w = if *w < 0 { Value::Null } else { Value::Int(*w) };
        db.execute(
            "INSERT INTO child (id, pid, v, w) VALUES (?, ?, ?, ?)",
            &[Value::Int(*id), Value::Int(*pid), Value::Int(*v), w],
        )
        .unwrap();
    }
    db
}

fn dedup_by_id<T: Clone>(rows: Vec<(i64, T)>) -> Vec<(i64, T)> {
    let mut seen = std::collections::HashSet::new();
    rows.into_iter().filter(|(id, _)| seen.insert(*id)).collect()
}

/// Runs `sql` on the compiled executor (`db`) and on the reference
/// (`twin`): both succeed with equal `Debug` renderings, which tell
/// `Int(20)` from `Float(20.0)`, or both fail. The data must then agree.
fn parity(db: &mut Database, twin: &mut Database, sql: &str, params: &[Value]) {
    match (db.execute(sql, params), reference::run(twin, sql, params)) {
        (Ok(g), Ok(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "divergence on {sql}"),
        (Err(_), Err(_)) => {}
        (g, w) => panic!("status divergence on {sql}: {g:?} vs {w:?}"),
    }
    assert!(db.same_data(twin), "data diverged after {sql}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The late-materializing executor (hash joins, top-K ORDER BY+LIMIT,
    /// hash aggregation) matches the naive reference executor — rows cell
    /// by cell, columns, and every modeled counter — over randomized
    /// schemas, data and LIMIT/OFFSET windows, before and after a random
    /// run of writes, each of which must also match and leave the same
    /// data. The reads without ORDER BY return slot or posting order, which
    /// the writes disturb through slot reuse and re-keyed index entries.
    #[test]
    fn compiled_executor_matches_reference(
        parents in prop::collection::vec((1i64..80, "[a-e]{1,4}", 0i64..6), 1..60),
        children in prop::collection::vec((1i64..200, 0i64..90, -8i64..8, -3i64..8), 0..150),
        grp_indexed in any::<bool>(),
        pid_indexed in any::<bool>(),
        offset in 0u64..12,
        count in 0u64..15,
        probe in -8i64..8,
        like in ("[ae_%]{0,2}", 0usize..4),
        writes in prop::collection::vec((0usize..5, 0i64..90, -8i64..8, 0i64..12), 0..16),
    ) {
        let parents: Vec<(i64, (String, i64))> =
            dedup_by_id(parents.into_iter().map(|(id, n, g)| (id, (n, g))).collect());
        let parents: Vec<(i64, String, i64)> =
            parents.into_iter().map(|(id, (n, g))| (id, n, g)).collect();
        let children: Vec<(i64, (i64, i64, i64))> =
            dedup_by_id(children.into_iter().map(|(id, p, v, w)| (id, (p, v, w))).collect());
        let children: Vec<(i64, i64, i64, i64)> =
            children.into_iter().map(|(id, (p, v, w))| (id, p, v, w)).collect();
        let pattern = match like {
            (lit, 0) => format!("%{lit}%"),
            (lit, 1) => format!("{lit}%"),
            (lit, 2) => format!("%{lit}"),
            (lit, _) => lit,
        };
        let mut db = parent_child(&parents, &children, grp_indexed, pid_indexed);
        let mut twin = parent_child(&parents, &children, grp_indexed, pid_indexed);

        let pid = probe.rem_euclid(90);
        let queries: Vec<(String, Vec<Value>)> = vec![
            (format!(
                "SELECT p.name, c.v FROM child c JOIN parent p ON c.pid = p.id \
                 ORDER BY c.v, c.id LIMIT {offset}, {count}"
            ), vec![]),
            (format!(
                "SELECT pid, COUNT(*) AS n, SUM(v) AS s, MAX(v) AS m FROM child \
                 GROUP BY pid ORDER BY s DESC, pid LIMIT {offset}, {count}"
            ), vec![]),
            ("SELECT grp, MIN(name), AVG(grp) FROM parent GROUP BY grp ORDER BY grp"
                .to_string(), vec![]),
            (format!(
                "SELECT c.id FROM child c JOIN parent p ON c.pid = p.id \
                 WHERE p.grp = ? ORDER BY c.id LIMIT {count}"
            ), vec![Value::Int(probe.rem_euclid(6))]),
            ("SELECT AVG(v), COUNT(*), MIN(v) FROM child WHERE v > ?".to_string(),
                vec![Value::Int(probe)]),
            (format!("SELECT v, id FROM child ORDER BY v DESC LIMIT {offset}, {count}"), vec![]),
            // Unindexed inner side: parent.grp = child.v has no index on
            // either column's inner role, exercising the hash-of-scan path.
            (format!(
                "SELECT p.name, c.id FROM parent p JOIN child c ON p.grp = c.v \
                 ORDER BY p.id, c.id LIMIT {count}"
            ), vec![]),
            // No ORDER BY: posting or slot order is the result order.
            ("SELECT id, v FROM child WHERE pid = ?".to_string(), vec![Value::Int(pid)]),
            ("SELECT id, name FROM parent WHERE grp = ?".to_string(),
                vec![Value::Int(probe.rem_euclid(6))]),
            ("SELECT p.id, c.id, c.v FROM parent p JOIN child c ON p.id = c.pid".to_string(),
                vec![]),
            ("SELECT id, pid FROM child WHERE pid BETWEEN ? AND ?".to_string(),
                vec![Value::Int(pid), Value::Int(pid + 20)]),
            // Multi-conjunct filters over both tables: reversed operands,
            // Float parameters against Int columns and LIKE on
            // `parent.name` (filter kernels) beside conjuncts `ceval` runs.
            (format!(
                "SELECT c.id, p.name FROM child c JOIN parent p ON c.pid = p.id \
                 WHERE c.v >= ? AND ? < p.grp AND p.name LIKE ? ORDER BY c.id LIMIT {count}"
            ), vec![
                Value::Float(probe as f64 / 2.0),
                Value::Int(probe.rem_euclid(6) - 1),
                Value::str(&pattern),
            ]),
            ("SELECT c.id, c.w, p.name FROM parent p JOIN child c ON p.id = c.pid \
              WHERE p.name NOT LIKE ? AND c.v + 0 <> ? AND ? >= c.w".to_string(),
                vec![Value::str(&pattern), Value::Int(probe), Value::Float(probe as f64 / 2.0)]),
            ("SELECT id, v FROM child WHERE id = ? AND v >= ?".to_string(),
                vec![Value::Float(pid as f64), Value::Int(probe)]),
            // A NULL conjunct does not stop the walk, so a later one that
            // errors (LIKE on an integer, division by zero) still raises;
            // a FALSE one does stop it.
            ("SELECT c.id FROM child c JOIN parent p ON c.pid = p.id \
              WHERE c.w < ? AND p.name LIKE ?".to_string(),
                vec![Value::Int(probe), Value::Int(1)]),
            ("SELECT id FROM child WHERE w = ? AND v / ? > 0".to_string(),
                vec![Value::Int(probe.rem_euclid(8)), Value::Int(0)]),
        ];
        for (sql, params) in &queries {
            parity(&mut db, &mut twin, sql, params);
        }
        for (kind, a, b, w) in writes {
            let (sql, params) = match kind {
                // Ids past the generated ones, some repeated: duplicate
                // keys fail on both sides, the rest reuse freed slots.
                0 => ("INSERT INTO child (id, pid, v) VALUES (?, ?, ?)",
                    vec![Value::Int(200 + a % 40), Value::Int(a), Value::Int(b)]),
                1 => ("UPDATE child SET pid = ?, v = v + 1 WHERE pid = ?",
                    vec![Value::Int(a), Value::Int((a + w) % 90)]),
                2 => ("DELETE FROM child WHERE v < ?", vec![Value::Int(b - 4)]),
                3 => ("UPDATE child SET w = ? WHERE w IS NULL AND ? <= v",
                    vec![Value::Int(w), Value::Float(b as f64 / 2.0)]),
                _ => ("UPDATE parent SET grp = grp + ? WHERE id BETWEEN ? AND ?",
                    vec![Value::Int(b), Value::Int(a), Value::Int(a + w)]),
            };
            parity(&mut db, &mut twin, sql, &params);
        }
        for (sql, params) in &queries {
            parity(&mut db, &mut twin, sql, params);
        }
    }
}

/// Runs one randomized write statement against `db` (errors are fine —
/// both sides of a comparison fail identically).
fn txn_write(db: &mut Database, kind: usize, a: i64, b: i64) {
    let _ = match kind {
        0 => db.execute("INSERT INTO fast (id, k) VALUES (NULL, ?)", &[Value::Int(a)]),
        1 => db.execute("UPDATE fast SET k = k + ? WHERE k = ?", &[Value::Int(a), Value::Int(b)]),
        2 => db.execute("DELETE FROM fast WHERE k = ?", &[Value::Int(a)]),
        _ => db.execute("SELECT COUNT(*) FROM fast WHERE k >= ?", &[Value::Int(a)]),
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BEGIN … writes … ROLLBACK leaves the database exactly as if the
    /// transaction never ran: rows, tombstoned slots, free-list order,
    /// secondary-index entry positions, and the auto-increment counter all
    /// match a snapshot taken at BEGIN.
    #[test]
    fn rollback_equals_never_ran(
        rows in prop::collection::vec((1i64..200, -20i64..20), 0..40),
        ops in prop::collection::vec((0usize..4, -20i64..20, -20i64..20), 0..25),
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> =
            rows.into_iter().filter(|(id, _)| seen.insert(*id)).collect();
        let mut db = twin_tables(&rows);
        let oracle = db.deep_clone();
        db.execute("BEGIN", &[]).unwrap();
        for (kind, a, b) in &ops {
            txn_write(&mut db, *kind, *a, *b);
        }
        db.execute("ROLLBACK", &[]).unwrap();
        prop_assert!(db.same_data(&oracle), "rollback diverged from the pre-BEGIN snapshot");
        // And the rolled-back database keeps working like the snapshot.
        let a = db.execute("SELECT id, k FROM fast ORDER BY k, id", &[]).unwrap();
        let mut oracle = oracle;
        let b = oracle.execute("SELECT id, k FROM fast ORDER BY k, id", &[]).unwrap();
        prop_assert_eq!(a.rows, b.rows);
    }

    /// A committed transaction is indistinguishable from the same
    /// statements run in auto-commit: same data AND same cumulative engine
    /// statistics — transaction control is free in the modeled cost, so
    /// wrapping every interaction in BEGIN/COMMIT cannot move any figure.
    #[test]
    fn commit_equals_autocommit(
        rows in prop::collection::vec((1i64..200, -20i64..20), 0..40),
        ops in prop::collection::vec((0usize..4, -20i64..20, -20i64..20), 0..25),
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> =
            rows.into_iter().filter(|(id, _)| seen.insert(*id)).collect();
        let mut tx = twin_tables(&rows);
        let mut auto = twin_tables(&rows);
        tx.execute("BEGIN", &[]).unwrap();
        for (kind, a, b) in &ops {
            txn_write(&mut tx, *kind, *a, *b);
            txn_write(&mut auto, *kind, *a, *b);
        }
        tx.execute("COMMIT", &[]).unwrap();
        prop_assert!(tx.same_data(&auto), "committed writes diverged from auto-commit");
        prop_assert_eq!(tx.stats(), auto.stats());
    }
}

/// The façade-style value the cached-schedule property memoizes through
/// the method cache, and the arguments it is memoized for.
const TALLY_SQL: &str = "SELECT COUNT(*), SUM(k) FROM fast WHERE k >= ?";
const TALLY_ARGS: [i64; 4] = [-10, -5, 0, 5];

/// Runs every read template on both twins and compares rows and counters.
fn read_pass(cached: &mut Database, plain: &mut Database, a: i64, b: i64) {
    let params = [Value::Int(a), Value::Int(b)];
    for (sql, nparams) in READ_TEMPLATES {
        let c = cached.execute(sql, &params[..nparams]).unwrap();
        let p = plain.execute(sql, &params[..nparams]).unwrap();
        assert_eq!(c, p, "read diverged on {sql}");
    }
}

/// Serves the tally for `arg` through `cached`'s method cache, checking a
/// hit against `plain`'s fresh value and memoizing a miss. Both twins
/// compute through the reference executor, which touches neither the
/// statistics nor the query cache.
fn memo_tally(cached: &mut Database, plain: &mut Database, arg: i64) {
    let arg = [Value::Int(arg)];
    let fresh = reference::run(plain, TALLY_SQL, &arg).unwrap().rows;
    let key = CacheKey::from_values(&arg);
    match cached.lookup_method("fast.tally", &key) {
        Lookup::Hit(v) => {
            assert_eq!(v.downcast_ref::<Vec<Vec<Value>>>(), Some(&fresh), "stale method hit");
        }
        outcome => {
            let rows = reference::run(cached, TALLY_SQL, &arg).unwrap().rows;
            assert_eq!(rows, fresh);
            if matches!(outcome, Lookup::Miss) {
                let fast = cached.table_index("fast").unwrap();
                cached.store_method("fast.tally", key, Arc::new(rows), vec![fast]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The transactional caches are *invisible*: over random interleaved
    /// schedules of reads, writes, memoized façade-style values, transaction
    /// boundaries (COMMIT and ROLLBACK alike) and unwinds of committed
    /// receipts, a cached database returns exactly the rows and counters of
    /// a cache-off twin, every method-cache hit equals the twin's fresh
    /// value, and both end with the same data and identical statistics. The
    /// same must hold for `Ttl(0)`, where every entry expires before it can
    /// be served.
    #[test]
    fn cached_schedule_equals_cache_off(
        rows in prop::collection::vec((1i64..200, -20i64..20), 0..40),
        script in prop::collection::vec((0usize..12, -25i64..25, 0i64..30), 1..40),
        ttl_zero in any::<bool>(),
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(i64, i64)> =
            rows.into_iter().filter(|(id, _)| seen.insert(*id)).collect();
        let mut plain = twin_tables(&rows);
        let mut cached = twin_tables(&rows);
        cached.enable_caching(CachePolicy {
            capacity: 32,
            invalidation: if ttl_zero {
                CacheInvalidation::Ttl(0)
            } else {
                CacheInvalidation::Transactional
            },
        });
        let mut in_txn = false;
        // Committed receipts of both twins, newest last.
        let mut receipts = Vec::new();
        for (op, a, w) in &script {
            match op {
                0..=5 => {
                    let (sql, nparams) = READ_TEMPLATES[*op];
                    let params = [Value::Int(*a), Value::Int(*a + *w)];
                    let params = &params[..nparams];
                    let c = cached.execute(sql, params).unwrap();
                    let p = plain.execute(sql, params).unwrap();
                    prop_assert_eq!(c, p, "read diverged on {} (txn={})", sql, in_txn);
                }
                6 | 7 => {
                    let kind = a.rem_euclid(3) as usize;
                    txn_write(&mut cached, kind, *a, *w);
                    txn_write(&mut plain, kind, *a, *w);
                }
                8 | 9 if !in_txn => {
                    cached.execute("BEGIN", &[]).unwrap();
                    plain.execute("BEGIN", &[]).unwrap();
                    in_txn = true;
                }
                8 | 9 => {
                    // Odd offsets roll back, even ones commit — the cache
                    // must stay coherent through both.
                    if *a % 2 == 0 {
                        receipts.extend(cached.commit_txn().zip(plain.commit_txn()));
                    } else {
                        cached.execute("ROLLBACK", &[]).unwrap();
                        plain.execute("ROLLBACK", &[]).unwrap();
                    }
                    in_txn = false;
                }
                10 => {
                    let arg = TALLY_ARGS[a.rem_euclid(4) as usize];
                    memo_tally(&mut cached, &mut plain, arg);
                }
                11 if !in_txn => {
                    // Unwind the newest committed receipt, as an aborted
                    // request is unwound, with reads and tallies cached
                    // before and checked after.
                    if let Some((c, p)) = receipts.pop() {
                        let probe = |cached: &mut Database, plain: &mut Database| {
                            read_pass(cached, plain, *a, *a + *w);
                            for arg in TALLY_ARGS {
                                memo_tally(cached, plain, arg);
                            }
                        };
                        probe(&mut cached, &mut plain);
                        cached.apply_rollback(c);
                        plain.apply_rollback(p);
                        probe(&mut cached, &mut plain);
                    }
                }
                _ => {}
            }
        }
        if in_txn {
            cached.execute("COMMIT", &[]).unwrap();
            plain.execute("COMMIT", &[]).unwrap();
        }
        // Same final data and identical statistics — the caches keep their
        // counters apart, in `cache_stats`.
        prop_assert!(cached.same_data(&plain), "cached schedule diverged from cache-off twin");
        prop_assert_eq!(cached.stats(), plain.stats());
        if ttl_zero {
            // A zero TTL can never serve: strict equivalence includes the
            // hit counters themselves.
            prop_assert_eq!(cached.cache_stats().query.hits, 0);
            prop_assert_eq!(cached.cache_stats().method.hits, 0);
        }
        // One final read pass compares every template end-state to be sure
        // surviving cache entries (if any) are coherent.
        read_pass(&mut cached, &mut plain, 3, 9);
    }
}

/// A table with an auto-increment key and two nullable secondary indexes,
/// one on strings and one on integers: the target of the bulk-load
/// comparison.
/// At most 40 bytes of `chars`, cut at a character boundary.
fn clip40(chars: &str) -> String {
    let end = chars.char_indices().map(|(i, c)| i + c.len_utf8()).take_while(|&end| end <= 40);
    chars[..end.last().unwrap_or(0)].to_string()
}

/// `DefaultHasher` of one value.
fn default_hash(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// The hash every string value must feed a hasher: `2u8`, then the
/// 64-bit FNV-1a of its bytes.
fn expected_str_hash(s: &str) -> u64 {
    let fnv = s.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut h = DefaultHasher::new();
    h.write_u8(2);
    h.write_u64(fnv);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Strings of 0–40 bytes over ASCII, NUL, 2- and 3-byte characters,
    /// whose lengths and character boundaries straddle the 14/15-byte
    /// inline limit, compare, hash, measure, print and match `LIKE` as
    /// their bytes do, whichever form each side takes. `relation` makes
    /// `b` equal to `a`, a short extension of it (NUL bytes only, in one
    /// case), or a prefix of it often enough to reach the ties and
    /// prefixes ordering has to break.
    #[test]
    fn strings_behave_as_bytes_across_the_inline_limit(
        a in "[ab~\u{0}é中]{0,24}",
        b in "[ab~\u{0}é中]{0,24}",
        relation in 0usize..5,
        mask in any::<u64>(),
    ) {
        let a = clip40(&a);
        let extra = 1 + (mask % 2) as usize;
        let b = match relation {
            0 => clip40(&b),
            1 => a.clone(),
            2 => clip40(&format!("{a}{}", b.chars().take(extra).collect::<String>())),
            3 => clip40(&format!("{a}{}", "\0".repeat(extra))),
            _ => a.chars().take(b.chars().count()).collect(),
        };
        let (va, vb) = (Value::str(&a), Value::str(&b));
        for (text, v) in [(&a, &va), (&b, &vb)] {
            let owned = Value::from(text.clone());
            prop_assert_eq!(v, &owned);
            prop_assert_eq!(v.cmp(&owned), std::cmp::Ordering::Equal);
            prop_assert_eq!(v.as_str(), Some(text.as_str()));
            prop_assert_eq!(v.wire_size(), text.len() as u64);
            prop_assert_eq!(&v.to_string(), text);
            prop_assert_eq!(default_hash(v), expected_str_hash(text));
            prop_assert_eq!(default_hash(&owned), expected_str_hash(text));
        }
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b), "a={:?} b={:?}", a, b);
        prop_assert_eq!(va == vb, a == b, "a={:?} b={:?}", a, b);
        prop_assert_eq!(
            CacheKey::from_values(std::slice::from_ref(&va))
                == CacheKey::from_values(std::slice::from_ref(&vb)),
            a == b
        );
        // `b` with the characters `mask` picks turned into wildcards, as a
        // pattern over `a`.
        let pattern: String = b
            .chars()
            .enumerate()
            .map(|(i, c)| match mask >> (2 * (i % 32)) & 3 {
                0 => '_',
                1 => '%',
                _ => c,
            })
            .collect();
        for (text, value) in [(&a, &va), (&b, &vb)] {
            prop_assert_eq!(
                value.like(&Value::str(&pattern)).unwrap(),
                like_oracle(text, &pattern),
                "text={:?} pattern={:?}", text, pattern
            );
        }
    }
}

fn load_target() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .nullable_column("s", ColumnType::Str)
            .nullable_column("n", ColumnType::Int)
            .primary_key("id")
            .auto_increment()
            .index("s")
            .index("n")
            .build()
            .unwrap(),
    )
    .unwrap();
    db
}

/// One generated row. Most rows ask for an auto key; the rest carry an
/// explicit key that collides with an earlier one once the counter has
/// passed it, so many loads stop at a duplicate midway. The small string
/// and integer alphabets repeat index keys, `long` pads a string key to
/// 13–15 bytes so that keys repeat in both string forms, and the two bits
/// of `nulls` null the indexed cells.
fn load_row(&(key, ref s, n, nulls, long): &(i64, String, i64, u8, bool)) -> Vec<Value> {
    let s = if long { format!("{s}-------------") } else { s.clone() };
    vec![
        if key < 380 { Value::Null } else { Value::Int((key - 380) * 7 + 1) },
        if nulls & 1 == 1 { Value::Null } else { Value::str(s) },
        if nulls & 2 == 2 { Value::Null } else { Value::Int(n) },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A bulk load ends exactly where per-row `Table::insert`s end: equal
    /// tables, posting order included, and the same error at the same row.
    /// The target starts non-empty with free slots, and after a failed
    /// scope every stored row is still in every index.
    #[test]
    fn bulk_load_equals_per_row_inserts(
        prefill in prop::collection::vec(
            (0i64..400, "[abc]{0,2}", -3i64..3, 0u8..4, any::<bool>()),
            0..20,
        ),
        deletes in prop::collection::vec(0usize..20, 0..8),
        rows in prop::collection::vec(
            (0i64..400, "[abc]{0,2}", -3i64..3, 0u8..4, any::<bool>()),
            0..120,
        ),
    ) {
        let mut base = load_target();
        let t = base.table_mut("t").unwrap();
        for row in &prefill {
            let _ = t.insert(load_row(row));
        }
        for rid in deletes {
            let _ = t.delete(rid);
        }
        let rows: Vec<Vec<Value>> = rows.iter().map(load_row).collect();

        let mut per_row = base.deep_clone();
        let t = per_row.table_mut("t").unwrap();
        let per_row_err = rows
            .iter()
            .enumerate()
            .find_map(|(i, row)| t.insert(row.clone()).err().map(|e| (i, e)));

        let mut bulk = base.deep_clone();
        let mut stored = 0;
        let bulk_err = bulk
            .bulk_load(|load| {
                for row in &rows {
                    load.insert("t", row.clone())?;
                    stored += 1;
                }
                Ok(())
            })
            .err()
            .map(|e| (stored, e));

        prop_assert_eq!(&bulk_err, &per_row_err);
        prop_assert!(bulk.same_data(&per_row), "bulk load diverged from per-row inserts");
        let t = bulk.table("t").unwrap();
        for (rid, row) in t.scan() {
            for col in [1, 2] {
                prop_assert!(t.index_lookup(col, &row[col]).contains(&rid));
            }
        }
    }
}
