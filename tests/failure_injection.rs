//! Failure-injection integration tests: the stack must stay consistent —
//! balanced traces, preserved invariants, accurate accounting — when
//! application logic fails mid-request.

use dynamid::core::{
    AppError, AppLockSpec, AppResult, Application, CostModel, InteractionSpec, Middleware,
    RequestCtx, SessionData, StandardConfig,
};
use dynamid::sim::engine::NullDriver;
use dynamid::sim::{SimDuration, SimRng, SimTime, Simulation};
use dynamid::sqldb::{ColumnType, Database, TableSchema, Value};

/// An application whose interactions fail in assorted nasty ways.
struct Saboteur;

impl Application for Saboteur {
    fn name(&self) -> &str {
        "saboteur"
    }
    fn interactions(&self) -> &[InteractionSpec] {
        &[
            InteractionSpec { name: "BadSql", read_only: true, secure: false },
            InteractionSpec { name: "MissingTable", read_only: true, secure: false },
            InteractionSpec { name: "FailHoldingLocks", read_only: false, secure: false },
            InteractionSpec { name: "FailInFacade", read_only: false, secure: false },
            InteractionSpec { name: "DuplicateKey", read_only: false, secure: false },
            InteractionSpec { name: "LockDiscipline", read_only: false, secure: false },
        ]
    }
    fn app_locks(&self) -> Vec<AppLockSpec> {
        vec![AppLockSpec::new("g", 2)]
    }
    fn handle(
        &self,
        id: usize,
        ctx: &mut RequestCtx<'_>,
        _session: &mut SessionData,
        _rng: &mut SimRng,
    ) -> AppResult<()> {
        match id {
            0 => {
                ctx.query("SELEKT broken FROM", &[])?;
                unreachable!("parse error must propagate")
            }
            1 => {
                ctx.query("SELECT * FROM no_such_table", &[])?;
                unreachable!("unknown table must propagate")
            }
            2 => {
                // Die while holding a table lock and an app lock.
                ctx.app_lock("g", 0);
                ctx.query("LOCK TABLES t WRITE", &[])?;
                Err(AppError::Logic("crash with locks held".into()))
            }
            3 => ctx.facade("F.fail", |em| {
                let h = em.find("t", Value::Int(1))?.expect("row exists");
                em.set(h, "v", Value::Int(999))?;
                Err(AppError::Logic("facade abort".into()))
            }),
            4 => {
                ctx.query("INSERT INTO t (id, v) VALUES (1, 0)", &[])?;
                unreachable!("duplicate key must propagate")
            }
            _ => {
                // MyISAM discipline: writing a READ-locked table under LOCK
                // TABLES is an error, must not run and must not wedge the
                // session.
                ctx.query("LOCK TABLES t READ", &[])?;
                ctx.query("UPDATE t SET v = 1 WHERE id = 1", &[])?;
                unreachable!("write under READ lock must propagate")
            }
        }
    }
}

fn db_with_t() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("t")
            .column("id", ColumnType::Int)
            .column("v", ColumnType::Int)
            .primary_key("id")
            .build()
            .unwrap(),
    )
    .unwrap();
    db.execute("INSERT INTO t (id, v) VALUES (1, 7)", &[]).unwrap();
    db
}

#[test]
fn failed_requests_produce_balanced_runnable_traces() {
    for config in StandardConfig::ALL {
        let mut db = db_with_t();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &Saboteur, CostModel::default());
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(9);
        let ids: &[usize] = match config {
            StandardConfig::EjbFourTier => &[3],
            _ => &[0, 1, 2, 4, 5],
        };
        for &id in ids {
            let v_before = db.execute("SELECT v FROM t WHERE id = 1", &[]).unwrap().rows;
            let prep = mw.run_interaction(&mut db, &Saboteur, id, &mut session, &mut rng, false);
            assert!(!prep.is_ok(), "{config} interaction {id} should fail");
            let v_after = db.execute("SELECT v FROM t WHERE id = 1", &[]).unwrap().rows;
            assert_eq!(v_after, v_before, "{config} interaction {id}: a failed write stood");
            assert!(
                prep.trace.check_balanced().is_ok(),
                "{config} interaction {id}: unbalanced trace after failure"
            );
            sim.submit(prep.trace, id as u64);
        }
        sim.run(SimTime::from_micros(120_000_000), &mut NullDriver).unwrap();
        assert_eq!(
            sim.stats().completed,
            ids.len() as u64,
            "{config}: failed-request traces must still drain"
        );
        assert!(
            sim.leak_report().is_none(),
            "{config}: leaked state after failures: {:?}",
            sim.leak_report()
        );
    }
}

#[test]
fn facade_failure_rolls_back_bean_stores() {
    let mut db = db_with_t();
    let mut sim = Simulation::new(SimDuration::from_micros(100));
    let mw = Middleware::install(
        &mut sim,
        StandardConfig::EjbFourTier,
        &db,
        &Saboteur,
        CostModel::default(),
    );
    let mut session = SessionData::new(0);
    let mut rng = SimRng::new(9);
    let prep = mw.run_interaction(&mut db, &Saboteur, 3, &mut session, &mut rng, false);
    assert!(!prep.is_ok());
    // The dirty bean (v = 999) was not flushed.
    let v = db.execute("SELECT v FROM t WHERE id = 1", &[]).unwrap();
    assert_eq!(v.rows[0][0], Value::Int(7));
}

#[test]
fn session_survives_a_string_of_failures() {
    // After any failure the same session must be able to run a healthy
    // request (no stuck lock state in the context layer).
    struct Mixed;
    impl Application for Mixed {
        fn name(&self) -> &str {
            "mixed"
        }
        fn interactions(&self) -> &[InteractionSpec] {
            &[
                InteractionSpec { name: "Bad", read_only: false, secure: false },
                InteractionSpec { name: "Good", read_only: false, secure: false },
            ]
        }
        fn handle(
            &self,
            id: usize,
            ctx: &mut RequestCtx<'_>,
            _s: &mut SessionData,
            _r: &mut SimRng,
        ) -> AppResult<()> {
            match id {
                0 => {
                    ctx.query("LOCK TABLES t WRITE", &[])?;
                    Err(AppError::Logic("boom".into()))
                }
                _ => {
                    ctx.query("UPDATE t SET v = v + 1 WHERE id = 1", &[])?;
                    ctx.emit("<html>ok</html>");
                    Ok(())
                }
            }
        }
    }
    let mut db = db_with_t();
    let mut sim = Simulation::new(SimDuration::from_micros(100));
    let mw = Middleware::install(
        &mut sim,
        StandardConfig::PhpColocated,
        &db,
        &Mixed,
        CostModel::default(),
    );
    let mut session = SessionData::new(0);
    let mut rng = SimRng::new(2);
    for round in 0..5 {
        let bad = mw.run_interaction(&mut db, &Mixed, 0, &mut session, &mut rng, false);
        assert!(!bad.is_ok(), "round {round}");
        assert_eq!(bad.stats.forced_unlocks, 1, "round {round}");
        let good = mw.run_interaction(&mut db, &Mixed, 1, &mut session, &mut rng, false);
        assert!(good.is_ok(), "round {round}: {:?}", good.error);
        sim.submit(bad.trace, 0);
        sim.submit(good.trace, 1);
    }
    sim.run(SimTime::from_micros(120_000_000), &mut NullDriver).unwrap();
    assert_eq!(sim.stats().completed, 10);
    let v = db.execute("SELECT v FROM t WHERE id = 1", &[]).unwrap();
    assert_eq!(v.rows[0][0], Value::Int(12)); // 7 + 5 successful updates
}
