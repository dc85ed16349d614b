//! Pins the compiled resource trace and span list of every request kind in
//! every preset, op for op and span for span.
//!
//! One stack per [`StandardConfig::EXTENDED`] preset runs the same
//! sequence of toy interactions against a fresh database with the query
//! and method caches on, tracing on and a database connection pool. The
//! sequence covers every hop the middleware models: the front-end relay of
//! a page and of its assets (the C7 proxy's cache hits and misses, the
//! balancers' two routes), the AJP and RMI connector crossings, and the
//! statement round trip of an indexed read, an ORDER BY read, a
//! result-cache hit, a method-cache hit and bypass, `LOCK TABLES` and
//! `UNLOCK TABLES` writes, sync app-lock writes, transaction control over
//! SQL, a statement refused by the lock discipline, the CMP finder, create,
//! store and remove accesses, a failing façade, and a failing handler
//! whose locks are force-released.
//!
//! The rendering is compared line by line with `compiled_traces.txt`, so a
//! change to any op, span, route, error or request counter fails here
//! with the first line that moved.

use dynamid_core::{
    AdmissionControl, AppError, AppLockSpec, AppResult, Application, CostModel, InstallOptions,
    InteractionSpec, LogicStyle, Middleware, RequestCtx, SessionData, StandardConfig, StaticAsset,
};
use dynamid_sim::{LockMode, Op, SimDuration, SimRng, Simulation};
use dynamid_sqldb::{CacheInvalidation, CachePolicy, ColumnType, Database, TableSchema, Value};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("compiled_traces.txt");

/// Interaction ids, in catalog order.
const VIEW: usize = 0;
const BUY: usize = 1;
const BROWSE: usize = 2;
const MANAGE: usize = 3;
const SUMMARY: usize = 4;
const FAIL: usize = 5;

/// The request sequence each preset runs.
const SEQUENCE: [usize; 10] =
    [VIEW, VIEW, BUY, BROWSE, SUMMARY, SUMMARY, MANAGE, FAIL, VIEW, BROWSE];

struct PinApp;

impl PinApp {
    /// The read-only façade every EJB page shares; memoized when caching
    /// is on.
    fn summary(ctx: &mut RequestCtx<'_>) -> AppResult<i64> {
        ctx.facade_cached("Stock.summary", &[Value::Int(2)], |em| {
            let pks =
                em.find_pks_query_tail("stock", "WHERE qty > ? ORDER BY id", &[Value::Int(2)])?;
            let mut total = 0;
            for pk in pks {
                let h = em.find("stock", pk)?.expect("finder returned a live key");
                total += em.get(h, "qty")?.as_int().unwrap_or(0);
            }
            Ok(total)
        })
    }
}

impl Application for PinApp {
    fn name(&self) -> &str {
        "pin"
    }

    fn interactions(&self) -> &[InteractionSpec] {
        &[
            InteractionSpec { name: "View", read_only: true, secure: false },
            InteractionSpec { name: "Buy", read_only: false, secure: true },
            InteractionSpec { name: "Browse", read_only: true, secure: false },
            InteractionSpec { name: "Manage", read_only: false, secure: false },
            InteractionSpec { name: "Summary", read_only: true, secure: false },
            InteractionSpec { name: "Fail", read_only: false, secure: false },
        ]
    }

    fn app_locks(&self) -> Vec<AppLockSpec> {
        vec![AppLockSpec::new("stock", 4)]
    }

    fn handle(
        &self,
        id: usize,
        ctx: &mut RequestCtx<'_>,
        session: &mut SessionData,
        _rng: &mut SimRng,
    ) -> AppResult<()> {
        let style = ctx.style();
        match id {
            VIEW => {
                let r = ctx.query("SELECT qty FROM stock WHERE id = ?", &[Value::Int(1)])?;
                let qty = r.rows[0][0].as_int().unwrap_or(0);
                ctx.emit(&format!("<html>qty={qty}</html>"));
                ctx.embed_asset(StaticAsset::thumbnail());
                ctx.embed_asset(StaticAsset::button());
                session.set_int("seen", qty);
            }
            BUY => {
                match style {
                    LogicStyle::ExplicitSql { sync: false } => {
                        ctx.query("LOCK TABLES stock WRITE, audit WRITE", &[])?;
                        ctx.query("UPDATE stock SET qty = qty - 1 WHERE id = ?", &[Value::Int(1)])?;
                        ctx.query(
                            "INSERT INTO audit (id, item) VALUES (NULL, ?)",
                            &[Value::Int(1)],
                        )?;
                        ctx.query("UNLOCK TABLES", &[])?;
                    }
                    LogicStyle::ExplicitSql { sync: true } => {
                        ctx.app_lock("stock", 1);
                        ctx.app_lock("stock", 5);
                        ctx.query("UPDATE stock SET qty = qty - 1 WHERE id = ?", &[Value::Int(1)])?;
                        ctx.query(
                            "INSERT INTO audit (id, item) VALUES (NULL, ?)",
                            &[Value::Int(1)],
                        )?;
                        ctx.app_unlock("stock", 5);
                        ctx.app_unlock("stock", 1);
                    }
                    LogicStyle::EntityBean => {
                        ctx.facade("Stock.buy", |em| {
                            let h = em.find("stock", Value::Int(1))?.expect("item 1 exists");
                            let qty = em.get(h, "qty")?.as_int().unwrap_or(0);
                            em.set(h, "qty", Value::Int(qty - 1))?;
                            em.create("audit", &[("id", Value::Null), ("item", Value::Int(1))])?;
                            Ok(())
                        })?;
                        // The transaction wrote `stock`: the cache is bypassed.
                        Self::summary(ctx)?;
                    }
                }
                ctx.cpu(40);
                ctx.emit("<html>bought</html>");
            }
            BROWSE => {
                if style == LogicStyle::EntityBean {
                    let total = ctx.facade("Stock.browse", |em| {
                        let pks =
                            em.find_pks_ordered("stock", "qty", Value::Int(7), "id", true, 3)?;
                        let mut total = 0;
                        for pk in pks {
                            let h = em.find("stock", pk)?.expect("finder returned a live key");
                            total += em.get(h, "qty")?.as_int().unwrap_or(0);
                        }
                        Ok(total)
                    })?;
                    ctx.emit(&format!("<html>{total}</html>"));
                } else {
                    let r =
                        ctx.query("SELECT id, qty FROM stock ORDER BY qty DESC LIMIT 3", &[])?;
                    ctx.emit(&format!("<html>{} items</html>", r.rows.len()));
                }
                ctx.emit_bytes(300);
                ctx.embed_asset(StaticAsset::button());
            }
            MANAGE => {
                if style == LogicStyle::EntityBean {
                    let removed = ctx.facade("Audit.purge", |em| {
                        let mut removed = 0;
                        for pk in em.find_pks_where("audit", "item", Value::Int(1))? {
                            removed += em.remove("audit", pk)?;
                        }
                        Ok(removed)
                    })?;
                    let failed: AppResult<()> = ctx.facade("Stock.fail", |em| {
                        let h = em.find("stock", Value::Int(2))?.expect("item 2 exists");
                        em.set(h, "qty", Value::Int(0))?;
                        Err(AppError::Logic("rolled back".into()))
                    });
                    assert!(failed.is_err());
                    ctx.emit(&format!("<html>removed {removed}</html>"));
                } else {
                    ctx.query("COMMIT", &[])?;
                    ctx.query("BEGIN", &[])?;
                    ctx.query("LOCK TABLES stock READ", &[])?;
                    ctx.query("SELECT qty FROM stock WHERE id = ?", &[Value::Int(3)])?;
                    let refused = ctx.query("SELECT COUNT(*) FROM audit", &[]);
                    assert!(refused.is_err(), "audit is outside the lock set");
                    ctx.query("UNLOCK TABLES", &[])?;
                    ctx.query("DELETE FROM audit WHERE item = ?", &[Value::Int(1)])?;
                    ctx.emit("<html>managed</html>");
                }
            }
            SUMMARY => {
                let total = if style == LogicStyle::EntityBean {
                    Self::summary(ctx)?
                } else {
                    let r =
                        ctx.query("SELECT SUM(qty) FROM stock WHERE qty > ?", &[Value::Int(2)])?;
                    r.rows[0][0].as_int().unwrap_or(0)
                };
                ctx.emit(&format!("<html>total={total}</html>"));
            }
            FAIL => {
                ctx.query("LOCK TABLES stock WRITE", &[])?;
                return Err(AppError::Logic("boom".into()));
            }
            _ => unreachable!("no interaction {id}"),
        }
        Ok(())
    }
}

fn pin_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("stock")
            .column("id", ColumnType::Int)
            .column("qty", ColumnType::Int)
            .primary_key("id")
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("audit")
            .column("id", ColumnType::Int)
            .column("item", ColumnType::Int)
            .primary_key("id")
            .auto_increment()
            .index("item")
            .build()
            .unwrap(),
    )
    .unwrap();
    for (id, qty) in [(1, 40), (2, 7), (3, 12), (4, 7), (5, 1), (6, 30)] {
        db.execute("INSERT INTO stock (id, qty) VALUES (?, ?)", &[Value::Int(id), Value::Int(qty)])
            .unwrap();
    }
    db.enable_caching(CachePolicy { capacity: 16, invalidation: CacheInvalidation::Transactional });
    db
}

fn render_op(out: &mut String, op: &Op) {
    let mode = |m: &LockMode| match m {
        LockMode::Shared => "S",
        LockMode::Exclusive => "X",
    };
    let _ = match op {
        Op::Cpu { machine, micros } => writeln!(out, "  cpu m{} {micros}", machine.0),
        Op::Net { from, to, bytes } => writeln!(out, "  net m{}>m{} {bytes}", from.0, to.0),
        Op::Delay { micros } => writeln!(out, "  delay {micros}"),
        Op::Lock { lock, mode: m } => writeln!(out, "  lock l{} {}", lock.0, mode(m)),
        Op::Unlock { lock } => writeln!(out, "  unlock l{}", lock.0),
        Op::SemAcquire { sem } => writeln!(out, "  acquire s{}", sem.0),
        Op::SemRelease { sem } => writeln!(out, "  release s{}", sem.0),
    };
}

/// Runs [`SEQUENCE`] on a fresh `config` stack and renders every request.
fn render_preset(out: &mut String, config: StandardConfig) {
    let _ = writeln!(out, "== {} {}", config.code(), config.paper_name());
    let mut db = pin_db();
    let mut sim = Simulation::new(SimDuration::from_micros(100));
    let opts = InstallOptions {
        tracing: true,
        admission: AdmissionControl { db_connections: Some(8), ..AdmissionControl::default() },
        ..InstallOptions::default()
    };
    let mw = Middleware::install_opts(&mut sim, config, &db, &PinApp, CostModel::default(), opts);
    let mut session = SessionData::new(0);
    let mut rng = SimRng::new(7);
    for (step, &id) in SEQUENCE.iter().enumerate() {
        let prep = mw.run_interaction(&mut db, &PinApp, id, &mut session, &mut rng, false);
        assert!(prep.trace.check_balanced().is_ok(), "{config} step {step}");
        let name = PinApp.interactions()[id].name;
        let _ = writeln!(out, "-- {step} {name} route={:?} error={:?}", prep.route, prep.error);
        let _ = writeln!(out, "  {:?}", prep.stats);
        for op in prep.trace.ops() {
            render_op(out, op);
        }
        for (i, s) in prep.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "  span {i} {:?} {} {}..{} parent={:?} hit={:?} cost={:?}",
                s.kind, s.label, s.start_op, s.end_op, s.parent, s.cache_hit, s.cost_micros
            );
        }
    }
    let _ = writeln!(out, "frontend {:?}", mw.frontend_stats());
}

#[test]
fn compiled_traces_match_the_pinned_fixture() {
    let mut got = String::new();
    for config in StandardConfig::EXTENDED {
        render_preset(&mut got, config);
    }
    let (got_lines, want_lines): (Vec<_>, Vec<_>) =
        (got.lines().collect(), FIXTURE.lines().collect());
    if let Some(at) =
        (0..got_lines.len().max(want_lines.len())).find(|&i| got_lines.get(i) != want_lines.get(i))
    {
        // The preset and the request the first differing line belongs to.
        let last = |prefix: &str| {
            want_lines[..at.min(want_lines.len())].iter().rev().find(|l| l.starts_with(prefix))
        };
        panic!(
            "compiled trace drifted at fixture line {} ({:?}, {:?}):\n  want: {:?}\n  got:  {:?}",
            at + 1,
            last("=="),
            last("--"),
            want_lines.get(at),
            got_lines.get(at),
        );
    }
}
