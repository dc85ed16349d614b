//! Post-run consistency auditor: replays the commit ledger against the
//! final database and asserts application-level invariants.
//!
//! Every chaos/availability run ends with the driver's crash-consistent
//! unwind: aborted and in-flight transactions are rolled back, committed
//! ones keep their writes and leave a receipt in the
//! [`CommitLedger`]. The auditor then
//! checks that the surviving database is exactly "baseline + committed
//! transactions":
//!
//! - per-table live row counts match the baseline plus the ledger's net
//!   committed deltas;
//! - no item's stock is negative, and total stock equals baseline stock
//!   minus the quantities on committed (surviving) order lines — a
//!   cross-table conservation law that fails if an abort ever tears a
//!   half-written purchase;
//! - every order placed during the run satisfies the application's pricing
//!   arithmetic bit-exactly (`tax = subtotal * 0.0825`,
//!   `total = subtotal * (1 - discount) * 1.0825 + 3.0`), owns at least one
//!   order line, and has exactly one credit-card record whose amount equals
//!   the order total;
//! - (auction) bids placed on the same item strictly increase in commit
//!   order, as the store-bid interaction always bids above the current
//!   maximum.
//!
//! A violation means the rollback machinery lost or invented a write;
//! [`AuditReport::assert_clean`] fails loudly with every violation listed.

use dynamid_sqldb::{Database, Value};
use dynamid_workload::CommitLedger;

/// Outcome of one audit pass: how many invariants were checked and which
/// ones failed.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Number of individual invariant checks performed.
    pub checks: u64,
    /// Human-readable description of every violated invariant.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation listed when the audit found any.
    ///
    /// # Panics
    ///
    /// Panics if the report contains violations.
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "consistency audit FAILED ({context}): {}/{} checks violated:\n  {}",
            self.violations.len(),
            self.checks,
            self.violations.join("\n  "),
        );
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push(msg());
        }
    }
}

/// Runs a query expected to produce a single integer scalar (`COUNT`,
/// `SUM`, `MAX`); `NULL` (empty aggregate) maps to 0.
fn scalar_i64(db: &mut Database, sql: &str, params: &[Value]) -> i64 {
    db.execute(sql, params)
        .unwrap_or_else(|e| panic!("audit query failed: {sql}: {e}"))
        .scalar()
        .and_then(|v| v.as_int())
        .unwrap_or(0)
}

/// Per-table live row counts must equal the baseline plus the ledger's net
/// committed insert/delete deltas.
fn audit_row_counts(
    baseline: &Database,
    fin: &Database,
    ledger: &CommitLedger,
    report: &mut AuditReport,
) {
    for (id, name) in baseline.table_names().into_iter().enumerate() {
        let before = baseline.table(name).expect("baseline table").row_count() as i64;
        let after = fin.table(name).expect("final table").row_count() as i64;
        let delta = ledger.delta(id);
        report.check(after == before + delta, || {
            format!(
                "{name}: {after} live rows, expected {before} baseline + {delta} committed = {}",
                before + delta
            )
        });
    }
}

/// Audits a bookstore database after a run against the run's commit
/// ledger. `baseline` is the freshly populated database the run started
/// from.
pub fn audit_bookstore(
    baseline: &Database,
    final_db: &Database,
    ledger: &CommitLedger,
) -> AuditReport {
    let mut report = AuditReport::default();
    audit_row_counts(baseline, final_db, ledger, &mut report);

    // Queries bump statement counters, so audit clones (cheap: tables are
    // copy-on-write) rather than the run databases themselves.
    let mut base = baseline.clone();
    let mut db = final_db.clone();

    let negative = scalar_i64(&mut db, "SELECT COUNT(*) FROM items WHERE stock < 0", &[]);
    report.check(negative == 0, || format!("{negative} item(s) with negative stock"));

    // Conservation: every committed purchase decremented stock by exactly
    // the quantities on its surviving order lines; every rolled-back one
    // restored them.
    let base_stock = scalar_i64(&mut base, "SELECT SUM(stock) FROM items", &[]);
    let final_stock = scalar_i64(&mut db, "SELECT SUM(stock) FROM items", &[]);
    let base_max_line = scalar_i64(&mut base, "SELECT MAX(id) FROM order_line", &[]);
    let sold = scalar_i64(
        &mut db,
        "SELECT SUM(qty) FROM order_line WHERE id > ?",
        &[Value::Int(base_max_line)],
    );
    report.check(final_stock == base_stock - sold, || {
        format!(
            "stock not conserved: baseline {base_stock} - {sold} committed units \
             = {}, but final stock is {final_stock}",
            base_stock - sold
        )
    });

    // Every order placed during the run (baseline orders predate the
    // pricing code) satisfies the buy-confirm arithmetic bit-exactly.
    let base_max_order = scalar_i64(&mut base, "SELECT MAX(id) FROM orders", &[]);
    let orders = db
        .execute(
            "SELECT id, subtotal, tax, total FROM orders WHERE id > ? ORDER BY id",
            &[Value::Int(base_max_order)],
        )
        .expect("orders query");
    for row in &orders.rows {
        let id = row[0].as_int().unwrap_or(0);
        let subtotal = row[1].as_float().unwrap_or(f64::NAN);
        let tax = row[2].as_float().unwrap_or(f64::NAN);
        let total = row[3].as_float().unwrap_or(f64::NAN);
        report.check(tax == subtotal * 0.0825, || {
            format!("order {id}: tax {tax} != subtotal {subtotal} * 0.0825")
        });
        let lines = db
            .execute("SELECT discount, qty FROM order_line WHERE order_id = ?", &[Value::Int(id)])
            .expect("order_line query");
        report.check(!lines.rows.is_empty(), || format!("order {id}: no order lines"));
        if let Some(line) = lines.rows.first() {
            let disc = line[0].as_float().unwrap_or(f64::NAN);
            let expect = subtotal * (1.0 - disc) * 1.0825 + 3.0;
            report.check(total == expect, || {
                format!(
                    "order {id}: total {total} != subtotal {subtotal} \
                     * (1 - {disc}) * 1.0825 + 3.0 = {expect}"
                )
            });
        }
        let credit = db
            .execute("SELECT amount FROM credit_info WHERE order_id = ?", &[Value::Int(id)])
            .expect("credit_info query");
        report.check(credit.rows.len() == 1, || {
            format!("order {id}: {} credit records, expected exactly 1", credit.rows.len())
        });
        if let Some(c) = credit.rows.first() {
            let amount = c[0].as_float().unwrap_or(f64::NAN);
            report.check(amount == total, || {
                format!("order {id}: charged {amount} != order total {total}")
            });
        }
    }
    report
}

/// Audits an auction database after a run: ledger row-count replay plus
/// bid monotonicity — bids committed on the same item strictly increase,
/// because store-bid always bids above the item's current maximum.
pub fn audit_auction(
    baseline: &Database,
    final_db: &Database,
    ledger: &CommitLedger,
) -> AuditReport {
    let mut report = AuditReport::default();
    audit_row_counts(baseline, final_db, ledger, &mut report);

    let mut base = baseline.clone();
    let mut db = final_db.clone();
    let base_max_bid = scalar_i64(&mut base, "SELECT MAX(id) FROM bids", &[]);
    let bids = db
        .execute(
            "SELECT id, item_id, bid FROM bids WHERE id > ? ORDER BY id",
            &[Value::Int(base_max_bid)],
        )
        .expect("bids query");
    let mut high: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
    for row in &bids.rows {
        let bid_id = row[0].as_int().unwrap_or(0);
        let item = row[1].as_int().unwrap_or(0);
        let bid = row[2].as_float().unwrap_or(f64::NAN);
        if let Some(prev) = high.get(&item) {
            report.check(bid > *prev, || {
                format!("bid {bid_id} on item {item}: {bid} does not beat earlier bid {prev}")
            });
        }
        high.insert(item, bid);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamid_workload::CommitLedger;

    fn two_table_db() -> Database {
        use dynamid_sqldb::{ColumnType, TableSchema};
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("a")
                .column("id", ColumnType::Int)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("b")
                .column("id", ColumnType::Int)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.execute("INSERT INTO a (id) VALUES (1)", &[]).unwrap();
        db
    }

    #[test]
    fn row_count_replay_catches_lost_and_invented_rows() {
        let baseline = two_table_db();
        let mut fin = baseline.clone();
        fin.execute("INSERT INTO a (id) VALUES (2)", &[]).unwrap();

        // Ledger that accounts for the insert: clean.
        let mut ledger = CommitLedger::default();
        ledger.row_deltas.insert(0, 1);
        let mut report = AuditReport::default();
        audit_row_counts(&baseline, &fin, &ledger, &mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.checks, 2);

        // Ledger that claims nothing was committed: the extra row is an
        // invented write.
        let mut report = AuditReport::default();
        audit_row_counts(&baseline, &fin, &CommitLedger::default(), &mut report);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("a:"), "{:?}", report.violations);
    }

    #[test]
    #[should_panic(expected = "consistency audit FAILED")]
    fn assert_clean_panics_loudly() {
        let mut report = AuditReport::default();
        report.check(false, || "broken invariant".to_string());
        report.assert_clean("unit test");
    }

    #[test]
    fn auction_bidding_run_passes_bid_monotonicity_audit() {
        use dynamid_auction::{Auction, AuctionScale};
        use dynamid_core::StandardConfig;
        use dynamid_sim::SimDuration;
        use dynamid_workload::{ExperimentSpec, ResilienceConfig, WorkloadConfig};

        let scale = AuctionScale::scaled(0.002);
        let baseline = dynamid_auction::build_db(&scale, 7).expect("population");
        let app = Auction::new(scale);
        let mix = dynamid_auction::mixes::bidding();
        let workload = WorkloadConfig {
            clients: 20,
            think_time: SimDuration::from_millis(300),
            session_time: SimDuration::from_secs(60),
            ramp_up: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(8),
            ramp_down: SimDuration::from_secs(1),
            seed: 7,
            resilience: ResilienceConfig::disabled(),
            arrivals: dynamid_workload::ArrivalProcess::Closed,
            timeline_bucket: None,
        };
        let mut db = baseline.clone();
        let r = ExperimentSpec::for_config(StandardConfig::PhpColocated)
            .mix(&mix)
            .workload(workload)
            .run(&mut db, &app);
        assert!(r.ledger.committed > 0, "no commits — the audit would be vacuous");
        let report = audit_auction(&baseline, &db, &r.ledger);
        report.assert_clean("auction bidding unit run");
        // Bids were actually placed, so monotonicity was really checked.
        assert!(
            db.table("bids").unwrap().row_count() > baseline.table("bids").unwrap().row_count(),
            "bidding mix placed no bids"
        );
    }
}
