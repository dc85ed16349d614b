//! Synthetic data population for the bookstore.
//!
//! Cardinalities follow TPC-W as the paper configured it: 10,000 items and
//! 288,000 customers (≈350 MB database). Everything scales down uniformly
//! for tests via [`BookstoreScale::small`] or an explicit factor.

use crate::schema::{create_schema, subjects};
use dynamid_sim::{SimRng, Zipf};
use dynamid_sqldb::{Database, SqlResult, Value};

/// Reference epoch for synthetic dates (2001-09-09, epoch seconds).
pub const BASE_DATE: i64 = 1_000_000_000;
/// One day in epoch seconds.
pub const DAY: i64 = 86_400;

/// Population cardinalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BookstoreScale {
    /// Books in the catalog.
    pub items: usize,
    /// Registered customers.
    pub customers: usize,
    /// Pre-existing orders (TPC-W: 0.9 × customers).
    pub orders: usize,
}

impl BookstoreScale {
    /// The paper's configuration: 10,000 items, 288,000 customers.
    pub fn paper() -> Self {
        BookstoreScale { items: 10_000, customers: 288_000, orders: 259_200 }
    }

    /// A small configuration for tests and examples.
    pub fn small() -> Self {
        BookstoreScale { items: 400, customers: 800, orders: 720 }
    }

    /// The paper's configuration scaled by `factor` (clamped to at least a
    /// handful of rows per table).
    pub fn scaled(factor: f64) -> Self {
        let p = Self::paper();
        let s = |n: usize| ((n as f64 * factor).round() as usize).max(20);
        BookstoreScale { items: s(p.items), customers: s(p.customers), orders: s(p.orders) }
    }

    /// Authors (TPC-W: items / 4).
    pub fn authors(&self) -> usize {
        (self.items / 4).max(4)
    }
}

/// Builds and populates a bookstore database.
///
/// # Errors
///
/// Propagates schema or insertion failures (none occur for valid scales).
pub fn build_db(scale: &BookstoreScale, seed: u64) -> SqlResult<Database> {
    let mut db = Database::new();
    create_schema(&mut db)?;
    populate(&mut db, scale, seed)?;
    Ok(db)
}

/// Populates an empty bookstore schema (direct storage inserts, bypassing
/// SQL for speed). Rows stream through one [`Database::bulk_load`] scope,
/// formatted strings go through [`BulkLoad::text`]'s reused buffer (most
/// are short enough to be stored inline), and each repeated literal is one
/// value cloned per row.
///
/// [`BulkLoad::text`]: dynamid_sqldb::BulkLoad::text
///
/// # Errors
///
/// Propagates insertion failures.
pub fn populate(db: &mut Database, scale: &BookstoreScale, seed: u64) -> SqlResult<()> {
    let mut rng = SimRng::new(seed);
    let subjects: Vec<Value> = subjects().into_iter().map(Value::from).collect();
    let n_authors = scale.authors();
    for (table, rows) in [
        ("authors", n_authors),
        ("items", scale.items),
        ("address", scale.customers),
        ("customers", scale.customers),
        ("orders", scale.orders),
        ("order_line", scale.orders * 3),
        ("credit_info", scale.orders),
    ] {
        db.table_mut(table)?.reserve(rows);
    }
    db.bulk_load(|load| {
        // Countries: the 92 of TPC-W.
        for i in 0..92 {
            let row = vec![
                Value::Null,
                load.text(format_args!("COUNTRY{i:02}")),
                Value::Float(1.0 + i as f64 / 10.0),
            ];
            load.insert("countries", row)?;
        }

        // Authors.
        let mut arng = rng.fork(1);
        for i in 0..n_authors {
            let row = vec![
                Value::Null,
                load.text(format_args!("AF{i}")),
                load.text(format_args!("AUTHOR{i}")),
                Value::from(arng.ascii_string(120)),
            ];
            load.insert("authors", row)?;
        }

        // Items.
        let mut irng = rng.fork(2);
        let items = scale.items as i64;
        for i in 0..scale.items {
            let related: Vec<Value> =
                (0..5).map(|_| Value::Int(irng.uniform_i64(1, items))).collect();
            let mut row = vec![
                Value::Null,
                load.text(format_args!("TITLE {} {}", i, irng.ascii_string(18))),
                Value::Int(irng.uniform_i64(1, n_authors as i64)),
                Value::Int(BASE_DATE - irng.uniform_i64(0, 3 * 365) * DAY),
                load.text(format_args!("PUBLISHER{}", irng.uniform_u64(0, 99))),
                subjects[irng.index(subjects.len())].clone(),
                Value::from(irng.ascii_string(100)),
                Value::Float(irng.uniform_i64(100, 9999) as f64 / 100.0),
                Value::Int(irng.uniform_i64(10, 30)),
                load.text(format_args!("ISBN{i:09}")),
            ];
            row.extend(related);
            load.insert("items", row)?;
        }

        // Addresses + customers (one address each).
        let mut crng = rng.fork(3);
        for i in 0..scale.customers {
            let row = vec![
                Value::Null,
                load.text(format_args!("{} MAIN ST", i + 1)),
                load.text(format_args!("CITY{}", crng.uniform_u64(0, 999))),
                load.text(format_args!("{:05}", crng.uniform_u64(10_000, 99_999))),
                Value::Int(crng.uniform_i64(1, 92)),
            ];
            let (_, addr) = load.insert("address", row)?;
            let row = vec![
                Value::Null,
                load.text(format_args!("C{i}")),
                load.text(format_args!("PW{i}")),
                load.text(format_args!("FN{}", crng.uniform_u64(0, 999))),
                load.text(format_args!("LN{}", crng.uniform_u64(0, 999))),
                Value::Int(addr.expect("auto id")),
                load.text(format_args!("555{:07}", crng.uniform_u64(0, 9_999_999))),
                load.text(format_args!("c{i}@example.com")),
                Value::Int(BASE_DATE - crng.uniform_i64(0, 2 * 365) * DAY),
                Value::Float(crng.uniform_i64(0, 50) as f64 / 100.0),
            ];
            load.insert("customers", row)?;
        }

        // Orders with 1–5 lines plus credit-card info.
        let mut orng = rng.fork(4);
        let customers = scale.customers as i64;
        // Zipf-skewed item popularity so best-seller lists are meaningful.
        let popularity = Zipf::new(scale.items, 0.8);
        let (air, shipped, ok) = (Value::str("AIR"), Value::str("SHIPPED"), Value::str("OK"));
        let (visa, holder) = (Value::str("VISA"), Value::str("CARD HOLDER"));
        for _ in 0..scale.orders {
            let lines = orng.uniform_u64(1, 5);
            let subtotal = orng.uniform_i64(100, 50_000) as f64 / 100.0;
            let date = BASE_DATE - orng.uniform_i64(0, 60) * DAY;
            let (_, order_id) = load.insert(
                "orders",
                vec![
                    Value::Null,
                    Value::Int(orng.uniform_i64(1, customers)),
                    Value::Int(date),
                    Value::Float(subtotal),
                    Value::Float(subtotal * 0.0825),
                    Value::Float(subtotal * 1.0825 + 3.0),
                    air.clone(),
                    Value::Int(date + orng.uniform_i64(1, 7) * DAY),
                    shipped.clone(),
                ],
            )?;
            let order_id = order_id.expect("auto id");
            for _ in 0..lines {
                let item = popularity.sample(&mut orng) as i64 + 1;
                load.insert(
                    "order_line",
                    vec![
                        Value::Null,
                        Value::Int(order_id),
                        Value::Int(item),
                        Value::Int(orng.uniform_i64(1, 5)),
                        Value::Float(orng.uniform_i64(0, 30) as f64 / 100.0),
                        ok.clone(),
                    ],
                )?;
            }
            let row = vec![
                Value::Null,
                Value::Int(order_id),
                visa.clone(),
                load.text(format_args!("4{:015}", orng.uniform_u64(0, 999_999_999))),
                holder.clone(),
                Value::Int(date + 365 * DAY),
                load.text(format_args!("AUTH{}", orng.uniform_u64(0, 999_999))),
                Value::Float(subtotal),
                Value::Int(date),
            ];
            load.insert("credit_info", row)?;
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
            [BookstoreScale::small(), BookstoreScale::scaled(0.003), BookstoreScale::scaled(0.02)]
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
    fn small_population_has_expected_cardinalities() {
        let scale = BookstoreScale::small();
        let db = build_db(&scale, 1).unwrap();
        assert_eq!(db.table("items").unwrap().row_count(), scale.items);
        assert_eq!(db.table("customers").unwrap().row_count(), scale.customers);
        assert_eq!(db.table("address").unwrap().row_count(), scale.customers);
        assert_eq!(db.table("orders").unwrap().row_count(), scale.orders);
        assert_eq!(db.table("countries").unwrap().row_count(), 92);
        assert_eq!(db.table("authors").unwrap().row_count(), scale.authors());
        let ol = db.table("order_line").unwrap().row_count();
        assert!(ol >= scale.orders && ol <= scale.orders * 5);
        assert_eq!(db.table("credit_info").unwrap().row_count(), scale.orders);
    }

    #[test]
    fn queries_work_after_population() {
        let mut db = build_db(&BookstoreScale::small(), 2).unwrap();
        let r = db
            .execute("SELECT COUNT(*) FROM items WHERE subject = ?", &[Value::str("SUBJECT00")])
            .unwrap();
        assert!(r.scalar().unwrap().as_int().unwrap() > 0);
        let r = db.execute("SELECT uname FROM customers WHERE id = 1", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::str("C0"));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build_db(&BookstoreScale::small(), 7).unwrap();
        let mut a = a;
        let b = build_db(&BookstoreScale::small(), 7).unwrap();
        let mut b = b;
        let qa = a.execute("SELECT title FROM items WHERE id = 5", &[]).unwrap();
        let qb = b.execute("SELECT title FROM items WHERE id = 5", &[]).unwrap();
        assert_eq!(qa.rows, qb.rows);
    }

    #[test]
    fn scaled_factors() {
        let s = BookstoreScale::scaled(0.01);
        assert_eq!(s.items, 100);
        assert_eq!(s.customers, 2_880);
        let tiny = BookstoreScale::scaled(0.000001);
        assert!(tiny.items >= 20);
    }
}
