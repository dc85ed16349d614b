//! Integration tests: every bookstore interaction runs under every
//! deployment configuration, produces a balanced trace, and really touches
//! the database.

use dynamid_bookstore::{build_db, Bookstore, BookstoreScale, INTERACTIONS};
use dynamid_core::{CostModel, Middleware, SessionData, StandardConfig};
use dynamid_sim::engine::NullDriver;
use dynamid_sim::{SimDuration, SimRng, SimTime, Simulation};

#[test]
fn every_interaction_in_every_config() {
    let scale = BookstoreScale::small();
    let app = Bookstore::new(scale);
    for config in StandardConfig::ALL {
        let mut db = build_db(&scale, 11).unwrap();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &app, CostModel::default());
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(99);
        for (id, spec) in INTERACTIONS.iter().enumerate() {
            // Run each interaction a few times to hit different branches.
            for round in 0..3 {
                let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
                assert!(prep.is_ok(), "{config} {} round {round}: {:?}", spec.name, prep.error);
                assert!(
                    prep.trace.check_balanced().is_ok(),
                    "{config} {}: unbalanced trace",
                    spec.name
                );
                assert!(prep.stats.queries > 0, "{config} {}: no database access", spec.name);
                assert!(
                    prep.stats.output_bytes > 500,
                    "{config} {}: implausibly small page ({} bytes)",
                    spec.name,
                    prep.stats.output_bytes
                );
                sim.submit(prep.trace, id as u64);
            }
        }
        let completed_target = INTERACTIONS.len() as u64 * 3;
        sim.run(SimTime::from_micros(600_000_000), &mut NullDriver).unwrap();
        assert_eq!(sim.stats().completed, completed_target, "{config}: traces did not drain");
    }
}

#[test]
fn buy_confirm_really_places_orders() {
    let scale = BookstoreScale::small();
    let app = Bookstore::new(scale);
    for config in [
        StandardConfig::PhpColocated,
        StandardConfig::ServletColocatedSync,
        StandardConfig::EjbFourTier,
    ] {
        let mut db = build_db(&scale, 5).unwrap();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &app, CostModel::default());
        let before = db.table("orders").unwrap().row_count();
        let mut session = SessionData::new(1);
        let mut rng = SimRng::new(17);
        // ProductDetail (sets last_item) then ShoppingCart then BuyConfirm.
        for id in [3usize, 6, 9] {
            let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
            assert!(prep.is_ok(), "{config}: {:?}", prep.error);
        }
        let after = db.table("orders").unwrap().row_count();
        assert_eq!(after, before + 1, "{config}: order not created");
        assert!(db.table("credit_info").unwrap().row_count() > 0, "{config}: no payment row");
        assert!(session.int("last_order").is_some());
        // The cart was emptied.
        assert_eq!(session.int("cart_len"), Some(0));
    }
}

#[test]
fn registration_grows_customers() {
    let scale = BookstoreScale::small();
    let app = Bookstore::new(scale);
    let mut db = build_db(&scale, 6).unwrap();
    let mut sim = Simulation::new(SimDuration::from_micros(100));
    let mw = Middleware::install(
        &mut sim,
        StandardConfig::ServletDedicated,
        &db,
        &app,
        CostModel::default(),
    );
    let before = db.table("customers").unwrap().row_count();
    let mut grew = false;
    for client in 0..10 {
        let mut session = SessionData::new(client);
        let mut rng = SimRng::new(1000 + client);
        let prep = mw.run_interaction(&mut db, &app, 7, &mut session, &mut rng, false);
        assert!(prep.is_ok(), "{:?}", prep.error);
        if db.table("customers").unwrap().row_count() > before {
            grew = true;
        }
    }
    assert!(grew, "no registration inserted a customer in 10 tries");
}

#[test]
fn ejb_issues_many_more_queries_than_sql() {
    let scale = BookstoreScale::small();
    let app = Bookstore::new(scale);

    let count_queries = |config: StandardConfig| -> u64 {
        let mut db = build_db(&scale, 21).unwrap();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &app, CostModel::default());
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(4);
        let mut total = 0;
        for id in 0..INTERACTIONS.len() {
            let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
            assert!(prep.is_ok(), "{config} i{id}: {:?}", prep.error);
            total += prep.stats.queries;
        }
        total
    };

    let sql = count_queries(StandardConfig::PhpColocated);
    let ejb = count_queries(StandardConfig::EjbFourTier);
    assert!(ejb > sql * 3, "EJB should flood the DB with short queries: sql={sql} ejb={ejb}");
}

#[test]
fn sync_and_nonsync_issue_same_data_queries() {
    // §4.2: identical queries except LOCK/UNLOCK TABLES removed.
    let scale = BookstoreScale::small();
    let app = Bookstore::new(scale);
    let run = |config: StandardConfig| -> (u64, usize) {
        let mut db = build_db(&scale, 33).unwrap();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &app, CostModel::default());
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(8);
        let mut queries = 0;
        for id in 0..INTERACTIONS.len() {
            let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
            assert!(prep.is_ok());
            queries += prep.stats.queries;
        }
        (queries, db.table("orders").unwrap().row_count())
    };
    let (plain_q, plain_orders) = run(StandardConfig::ServletColocated);
    let (sync_q, sync_orders) = run(StandardConfig::ServletColocatedSync);
    // Sync removes exactly the LOCK/UNLOCK statements (2 per locked span;
    // BuyConfirm and AdminConfirm each have one span here).
    assert!(plain_q > sync_q, "plain={plain_q} sync={sync_q}");
    assert!(plain_q - sync_q <= 6);
    assert_eq!(plain_orders, sync_orders);
}
