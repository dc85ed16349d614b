//! Synthetic data population for the auction site.
//!
//! Cardinalities follow §3.2 of the paper: ~33,000 live items across 40
//! categories and 62 regions, 500,000 finished auctions, ~10 bids per live
//! item, a small `buy_now` table (<10% of sales), 1,000,000 users, and
//! ~500,000 comments (feedback on 95% of transactions). Total ≈1.4 GB in
//! the paper; our in-memory rows are leaner but the cardinalities — which
//! set the scan/index cost ratios — are the same.

use crate::schema::{create_schema, CATEGORY_COUNT, REGION_COUNT};
use dynamid_sim::{SimRng, Zipf};
use dynamid_sqldb::{BulkLoad, Database, SqlResult, Value};

/// Reference epoch for synthetic dates (2001-09-09, epoch seconds).
pub const BASE_DATE: i64 = 1_000_000_000;
/// One day in epoch seconds.
pub const DAY: i64 = 86_400;

/// Population cardinalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuctionScale {
    /// Registered users.
    pub users: usize,
    /// Items currently on sale.
    pub live_items: usize,
    /// Finished auctions in `old_items`.
    pub old_items: usize,
    /// Average bids per live item.
    pub bids_per_item: usize,
    /// Comments on past transactions.
    pub comments: usize,
    /// Direct purchases recorded in `buy_now`.
    pub buy_nows: usize,
}

impl AuctionScale {
    /// The paper's sizing (§3.2).
    pub fn paper() -> Self {
        AuctionScale {
            users: 1_000_000,
            live_items: 33_000,
            old_items: 500_000,
            bids_per_item: 10,
            comments: 500_000,
            buy_nows: 3_000,
        }
    }

    /// A small configuration for tests and examples.
    pub fn small() -> Self {
        AuctionScale {
            users: 1_500,
            live_items: 600,
            old_items: 800,
            bids_per_item: 5,
            comments: 900,
            buy_nows: 60,
        }
    }

    /// The paper's configuration scaled by `factor`.
    pub fn scaled(factor: f64) -> Self {
        let p = Self::paper();
        let s = |n: usize| ((n as f64 * factor).round() as usize).max(20);
        AuctionScale {
            users: s(p.users),
            live_items: s(p.live_items),
            old_items: s(p.old_items),
            bids_per_item: p.bids_per_item,
            comments: s(p.comments),
            buy_nows: s(p.buy_nows),
        }
    }
}

/// Builds and populates an auction database.
///
/// # Errors
///
/// Propagates schema or insertion failures.
pub fn build_db(scale: &AuctionScale, seed: u64) -> SqlResult<Database> {
    let mut db = Database::new();
    create_schema(&mut db)?;
    populate(&mut db, scale, seed)?;
    Ok(db)
}

fn item_row(load: &mut BulkLoad<'_>, rng: &mut SimRng, users: i64, live: bool) -> Vec<Value> {
    let initial = rng.uniform_i64(100, 50_000) as f64 / 100.0;
    let nb_bids = rng.uniform_i64(0, 20);
    let max_bid =
        if nb_bids > 0 { initial + rng.uniform_i64(0, 10_000) as f64 / 100.0 } else { 0.0 };
    let (start, end) = if live {
        // Live auctions end within the next week.
        let start = BASE_DATE - rng.uniform_i64(0, 6) * DAY;
        (start, BASE_DATE + rng.uniform_i64(1, 7) * DAY)
    } else {
        let end = BASE_DATE - rng.uniform_i64(1, 300) * DAY;
        (end - 7 * DAY, end)
    };
    vec![
        Value::Null,
        load.text(format_args!("ITEM {}", rng.ascii_string(14))),
        Value::from(rng.ascii_string(60)),
        Value::Float(initial),
        Value::Int(rng.uniform_i64(1, 10)),
        Value::Float(initial * 1.1),
        Value::Float(initial * 1.5),
        Value::Int(nb_bids),
        Value::Float(max_bid),
        Value::Int(start),
        Value::Int(end),
        Value::Int(rng.uniform_i64(1, users)),
        Value::Int(rng.uniform_i64(1, CATEGORY_COUNT as i64)),
    ]
}

/// Populates an empty auction schema (direct storage inserts). Rows
/// stream through one [`Database::bulk_load`] scope, formatted strings go
/// through [`BulkLoad::text`]'s reused buffer, and the repeated password
/// is one value cloned per row.
///
/// # Errors
///
/// Propagates insertion failures.
pub fn populate(db: &mut Database, scale: &AuctionScale, seed: u64) -> SqlResult<()> {
    let mut rng = SimRng::new(seed);
    let users = scale.users as i64;
    let total_bids = scale.live_items * scale.bids_per_item;
    for (table, rows) in [
        ("users", scale.users),
        ("items", scale.live_items),
        ("old_items", scale.old_items),
        ("bids", total_bids),
        ("buy_now", scale.buy_nows),
        ("comments", scale.comments),
    ] {
        db.table_mut(table)?.reserve(rows);
    }
    db.bulk_load(|load| {
        for i in 0..CATEGORY_COUNT {
            let row = vec![Value::Null, load.text(format_args!("CATEGORY{i:02}"))];
            load.insert("categories", row)?;
        }
        for i in 0..REGION_COUNT {
            let row = vec![Value::Null, load.text(format_args!("REGION{i:02}"))];
            load.insert("regions", row)?;
        }
        let mut urng = rng.fork(1);
        let password = Value::str("pw");
        for i in 0..scale.users {
            let row = vec![
                Value::Null,
                load.text(format_args!("FN{}", urng.uniform_u64(0, 9_999))),
                load.text(format_args!("LN{}", urng.uniform_u64(0, 9_999))),
                load.text(format_args!("U{i}")),
                password.clone(),
                load.text(format_args!("u{i}@example.com")),
                Value::Int(urng.uniform_i64(-5, 100)),
                Value::Float(urng.uniform_i64(0, 100_000) as f64 / 100.0),
                Value::Int(BASE_DATE - urng.uniform_i64(0, 900) * DAY),
                Value::Int(urng.uniform_i64(1, REGION_COUNT as i64)),
            ];
            load.insert("users", row)?;
        }
        let mut irng = rng.fork(2);
        for _ in 0..scale.live_items {
            let row = item_row(load, &mut irng, users, true);
            load.insert("items", row)?;
        }
        let mut org = rng.fork(3);
        for _ in 0..scale.old_items {
            let row = item_row(load, &mut org, users, false);
            load.insert("old_items", row)?;
        }
        let mut brng = rng.fork(4);
        // Zipf-skew bids toward popular items.
        let popularity = Zipf::new(scale.live_items, 0.6);
        for _ in 0..total_bids {
            let item = popularity.sample(&mut brng) as i64 + 1;
            let bid = brng.uniform_i64(100, 60_000) as f64 / 100.0;
            load.insert(
                "bids",
                vec![
                    Value::Null,
                    Value::Int(brng.uniform_i64(1, users)),
                    Value::Int(item),
                    Value::Int(brng.uniform_i64(1, 3)),
                    Value::Float(bid),
                    Value::Float(bid * 1.2),
                    Value::Int(BASE_DATE - brng.uniform_i64(0, 6) * DAY),
                ],
            )?;
        }
        let mut bnr = rng.fork(5);
        for _ in 0..scale.buy_nows {
            load.insert(
                "buy_now",
                vec![
                    Value::Null,
                    Value::Int(bnr.uniform_i64(1, users)),
                    Value::Int(bnr.uniform_i64(1, scale.old_items.max(1) as i64)),
                    Value::Int(bnr.uniform_i64(1, 3)),
                    Value::Int(BASE_DATE - bnr.uniform_i64(0, 200) * DAY),
                ],
            )?;
        }
        let mut crng = rng.fork(6);
        for _ in 0..scale.comments {
            load.insert(
                "comments",
                vec![
                    Value::Null,
                    Value::Int(crng.uniform_i64(1, users)),
                    Value::Int(crng.uniform_i64(1, users)),
                    Value::Int(crng.uniform_i64(1, scale.old_items.max(1) as i64)),
                    Value::Int(crng.uniform_i64(-5, 5)),
                    Value::Int(BASE_DATE - crng.uniform_i64(0, 300) * DAY),
                    Value::from(crng.ascii_string(40)),
                ],
            )?;
        }
        // Next-id bookkeeping rows, one per user-visible table (RUBiS keeps
        // this even with auto-increment keys).
        for (i, name) in ["users", "items", "bids", "buy_now", "comments"].iter().enumerate() {
            let value = match *name {
                "users" => scale.users,
                "items" => scale.live_items,
                "bids" => total_bids,
                "buy_now" => scale.buy_nows,
                _ => scale.comments,
            };
            load.insert(
                "ids",
                vec![Value::Int(i as i64 + 1), Value::str(*name), Value::Int(value as i64)],
            )?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rebuilds every table by replaying its live rows, in slot order,
    /// through `Table::insert` into a fresh table of the same schema.
    fn replayed(db: &Database) -> Database {
        let mut copy = Database::new();
        for name in db.table_names() {
            let table = db.table(name).unwrap();
            copy.create_table(table.schema().clone()).unwrap();
            let fresh = copy.table_mut(name).unwrap();
            for (_, row) in table.scan() {
                fresh.insert(row.to_vec()).unwrap();
            }
        }
        copy
    }

    #[test]
    fn population_equals_a_per_row_replay() {
        for scale in
            [AuctionScale::small(), AuctionScale::scaled(0.001), AuctionScale::scaled(0.005)]
        {
            let db = build_db(&scale, 11).unwrap();
            let replay = replayed(&db);
            for name in db.table_names() {
                let (built, replayed) = (db.table(name).unwrap(), replay.table(name).unwrap());
                assert!(built == replayed, "{name} differs from its replay at {scale:?}");
            }
            assert!(db.same_data(&replay));
        }
    }

    #[test]
    fn small_population_cardinalities() {
        let scale = AuctionScale::small();
        let db = build_db(&scale, 1).unwrap();
        assert_eq!(db.table("users").unwrap().row_count(), scale.users);
        assert_eq!(db.table("items").unwrap().row_count(), scale.live_items);
        assert_eq!(db.table("old_items").unwrap().row_count(), scale.old_items);
        assert_eq!(db.table("bids").unwrap().row_count(), scale.live_items * scale.bids_per_item);
        assert_eq!(db.table("comments").unwrap().row_count(), scale.comments);
        assert_eq!(db.table("buy_now").unwrap().row_count(), scale.buy_nows);
        assert_eq!(db.table("categories").unwrap().row_count(), CATEGORY_COUNT);
        assert_eq!(db.table("regions").unwrap().row_count(), REGION_COUNT);
        assert_eq!(db.table("ids").unwrap().row_count(), 5);
    }

    #[test]
    fn live_items_end_in_the_future() {
        let mut db = build_db(&AuctionScale::small(), 2).unwrap();
        let r = db
            .execute("SELECT COUNT(*) FROM items WHERE end_date <= ?", &[Value::Int(BASE_DATE)])
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
        let r = db
            .execute("SELECT COUNT(*) FROM old_items WHERE end_date > ?", &[Value::Int(BASE_DATE)])
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn category_browse_is_indexed() {
        let mut db = build_db(&AuctionScale::small(), 3).unwrap();
        let r = db
            .execute("SELECT id FROM items WHERE category = ? LIMIT 25", &[Value::Int(1)])
            .unwrap();
        assert!(r.counters.index_lookups > 0);
        assert!(r.counters.rows_examined < 600, "category probe scanned all");
    }

    #[test]
    fn scaled_clamps() {
        let s = AuctionScale::scaled(0.01);
        assert_eq!(s.users, 10_000);
        assert_eq!(s.live_items, 330);
        let tiny = AuctionScale::scaled(1e-9);
        assert!(tiny.users >= 20);
    }
}
