//! Microbenchmarks for the substrates: SQL parsing and execution, the plan
//! cache, one figure sweep, the processor-sharing kernel and the lock
//! manager.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dynamid_harness::{find_figure, run_figure, HarnessConfig};
use dynamid_sim::engine::NullDriver;
use dynamid_sim::{
    Driver, GrantPolicy, JobDone, LockManager, LockMode, Op, PsResource, SimDuration, SimTime,
    Simulation, Trace,
};
use dynamid_sqldb::{parse, ColumnType, Database, Table, TableSchema, Value};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

fn small_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("items")
            .column("id", ColumnType::Int)
            .column("category", ColumnType::Int)
            .column("name", ColumnType::Str)
            .column("price", ColumnType::Float)
            .primary_key("id")
            .auto_increment()
            .index("category")
            .build()
            .unwrap(),
    )
    .unwrap();
    for i in 0..rows {
        db.execute(
            "INSERT INTO items (id, category, name, price) VALUES (NULL, ?, ?, ?)",
            &[Value::Int(i % 40), Value::str(format!("item {i}")), Value::Float(i as f64)],
        )
        .unwrap();
    }
    db
}

fn bench_sql(c: &mut Criterion) {
    let mut g = c.benchmark_group("sqldb");
    g.measurement_time(Duration::from_secs(2)).sample_size(30);

    g.bench_function("parse_select_join", |b| {
        b.iter(|| {
            parse(black_box(
                "SELECT i.id, i.name, SUM(ol.qty) AS total FROM items i \
                 JOIN order_line ol ON ol.item_id = i.id \
                 WHERE ol.order_id > ? AND i.subject = ? \
                 GROUP BY i.id ORDER BY total DESC LIMIT 50",
            ))
            .unwrap()
        })
    });

    let mut db = small_db(2_000);
    g.bench_function("point_select_by_pk", |b| {
        b.iter(|| {
            db.execute(black_box("SELECT name, price FROM items WHERE id = ?"), &[Value::Int(997)])
                .unwrap()
        })
    });

    g.bench_function("indexed_range_with_sort", |b| {
        b.iter(|| {
            db.execute(
                "SELECT id, name FROM items WHERE category = ? ORDER BY price DESC LIMIT 25",
                &[Value::Int(7)],
            )
            .unwrap()
        })
    });

    g.bench_function("like_scan", |b| {
        b.iter(|| {
            db.execute(
                "SELECT id FROM items WHERE name LIKE ? LIMIT 10",
                &[Value::str("%item 199%")],
            )
            .unwrap()
        })
    });

    g.bench_function("update_by_pk", |b| {
        b.iter(|| {
            db.execute("UPDATE items SET price = price + 1.0 WHERE id = ?", &[Value::Int(512)])
                .unwrap()
        })
    });
    g.finish();
}

/// A two-table catalog for join/aggregate benchmarks: `lines` points at
/// `items` through an indexed `item_id` column.
fn join_db(items: i64, lines: i64) -> Database {
    let mut db = small_db(items);
    db.create_table(
        TableSchema::builder("lines")
            .column("id", ColumnType::Int)
            .column("item_id", ColumnType::Int)
            .column("qty", ColumnType::Int)
            .primary_key("id")
            .auto_increment()
            .index("item_id")
            .build()
            .unwrap(),
    )
    .unwrap();
    for i in 0..lines {
        db.execute(
            "INSERT INTO lines (id, item_id, qty) VALUES (NULL, ?, ?)",
            &[Value::Int(i % items + 1), Value::Int(i % 7 + 1)],
        )
        .unwrap();
    }
    db
}

/// A TPC-W-shaped catalog at scale 0.3 for the bookstore's heaviest reads:
/// 3,000 items in 24 subjects, 750 authors, and 20,000 order lines over
/// 6,667 orders, `order_line.order_id` indexed.
fn bookstore_db() -> Database {
    let mut db = Database::new();
    let tables = [
        TableSchema::builder("authors")
            .column("id", ColumnType::Int)
            .column("lname", ColumnType::Str)
            .primary_key("id")
            .auto_increment(),
        TableSchema::builder("items")
            .column("id", ColumnType::Int)
            .column("title", ColumnType::Str)
            .column("subject", ColumnType::Str)
            .column("author_id", ColumnType::Int)
            .column("cost", ColumnType::Float)
            .primary_key("id")
            .auto_increment()
            .index("subject"),
        TableSchema::builder("order_line")
            .column("id", ColumnType::Int)
            .column("order_id", ColumnType::Int)
            .column("item_id", ColumnType::Int)
            .column("qty", ColumnType::Int)
            .primary_key("id")
            .auto_increment()
            .index("order_id"),
    ];
    for t in tables {
        db.create_table(t.build().unwrap()).unwrap();
    }
    for i in 0..750 {
        db.execute(
            "INSERT INTO authors (id, lname) VALUES (NULL, ?)",
            &[Value::from(format!("AUTHOR{i}"))],
        )
        .unwrap();
    }
    for i in 0..3_000i64 {
        db.execute(
            "INSERT INTO items (id, title, subject, author_id, cost) VALUES (NULL, ?, ?, ?, ?)",
            &[
                Value::from(format!("TITLE {i} OF THE CATALOG")),
                Value::from(format!("SUBJECT{}", i % 24)),
                Value::Int(i % 750 + 1),
                Value::Float(i as f64 * 0.25),
            ],
        )
        .unwrap();
    }
    for l in 0..20_000i64 {
        db.execute(
            "INSERT INTO order_line (id, order_id, item_id, qty) VALUES (NULL, ?, ?, ?)",
            &[Value::Int(l / 3 + 1), Value::Int(l * 7 % 3_000 + 1), Value::Int(l % 5 + 1)],
        )
        .unwrap();
    }
    db
}

/// The late-materialization executor's physical operators: primary-key
/// probes in place, B-tree probes of a secondary index from a wide and a
/// point outer side, bounded top-K vs a full sort,
/// single-pass hash aggregation, the filter and LIKE kernels on the
/// bookstore's two heaviest reads, and copy-on-write snapshot forks vs
/// deep clones. Modeled counters are identical across paths; these measure
/// the host-cost side only.
fn bench_exec(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec");
    g.measurement_time(Duration::from_secs(2)).sample_size(30);

    // Wide probe of a primary key: each of 4k line rows probes the items
    // key in place, one array read per row.
    let mut db = join_db(500, 4_000);
    g.bench_function("join_wide_probe_pk", |b| {
        b.iter(|| {
            db.execute(
                black_box(
                    "SELECT i.name, l.qty FROM lines l JOIN items i ON l.item_id = i.id \
                     WHERE l.qty > 5 LIMIT 50",
                ),
                &[],
            )
            .unwrap()
        })
    });

    // Wide probe of a secondary index: each of 500 items probes the B-tree
    // on `lines.item_id` once, the probe a plan fixes for a secondary index.
    g.bench_function("join_wide_probe_btree_secondary", |b| {
        b.iter(|| {
            db.execute(
                black_box(
                    "SELECT i.name, l.qty FROM items i JOIN lines l ON i.id = l.item_id \
                     WHERE l.qty > 5 LIMIT 50",
                ),
                &[],
            )
            .unwrap()
        })
    });

    // Point outer: one item probes the secondary index on `lines.item_id`
    // once.
    g.bench_function("join_point_outer_btree", |b| {
        b.iter(|| {
            db.execute(
                "SELECT i.name, l.qty FROM items i JOIN lines l ON i.id = l.item_id \
                 WHERE i.id = ?",
                &[Value::Int(123)],
            )
            .unwrap()
        })
    });

    // ORDER BY + LIMIT keeps a 10-row bounded heap instead of sorting all
    // 4k rows; ORDER BY alone still pays the full sort.
    g.bench_function("order_by_topk_limit10", |b| {
        b.iter(|| db.execute("SELECT id FROM lines ORDER BY qty DESC, id LIMIT 10", &[]).unwrap())
    });
    g.bench_function("order_by_full_sort", |b| {
        b.iter(|| db.execute("SELECT id FROM lines ORDER BY qty DESC, id", &[]).unwrap())
    });

    // BestSellers: an index range over ~10k order lines, two primary-key
    // joins, a two-conjunct filter, GROUP BY and a top-50.
    let mut store = bookstore_db();
    g.bench_function("best_sellers_shape", |b| {
        b.iter(|| {
            store
                .execute(
                    black_box(
                        "SELECT i.id, i.title, i.cost, a.lname, SUM(ol.qty) AS total \
                         FROM order_line ol \
                         JOIN items i ON ol.item_id = i.id \
                         JOIN authors a ON i.author_id = a.id \
                         WHERE ol.order_id > ? AND i.subject = ? \
                         GROUP BY i.id ORDER BY total DESC LIMIT 50",
                    ),
                    &[Value::Int(3_334), Value::str("SUBJECT7")],
                )
                .unwrap()
        })
    });

    // SearchResults by title: a `%lit%` LIKE over every item, then the
    // top 50 by title.
    g.bench_function("like_contains_scan", |b| {
        b.iter(|| {
            store
                .execute(
                    black_box(
                        "SELECT i.id, i.title, i.cost FROM items i \
                         WHERE i.title LIKE ? ORDER BY i.title LIMIT 50",
                    ),
                    &[Value::str("%TITLE 120%")],
                )
                .unwrap()
        })
    });

    g.bench_function("group_by_hash_agg", |b| {
        b.iter(|| {
            db.execute(
                "SELECT item_id, COUNT(*) AS n, SUM(qty) AS total FROM lines \
                 GROUP BY item_id ORDER BY total DESC LIMIT 20",
                &[],
            )
            .unwrap()
        })
    });

    // Sweep-point setup: forking the base database is O(tables) under
    // copy-on-write; the deep clone is what every point used to pay.
    let base = join_db(500, 4_000);
    g.bench_function("snapshot_fork_cow", |b| b.iter(|| black_box(base.clone())));
    g.bench_function("snapshot_deep_clone", |b| b.iter(|| black_box(base.deep_clone())));
    g.finish();
}

/// The sim-core overhaul's two row-level host-cost wins, each measured
/// against the path it replaced. Join probes keyed on long string values
/// hit the FNV hash [`Value::str`] caches at construction for strings
/// longer than the 14-byte inline limit — one `u64` through the hasher —
/// where the old path re-scanned every byte of the key on every probe. Projections read rows as slices borrowed straight
/// from the table's cell arena and clone only the projected cells, where
/// the old executor materialized a full `Vec<Value>` per row first.
fn bench_hot_row_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_row_paths");
    g.measurement_time(Duration::from_secs(2)).sample_size(30);

    // Keys shaped like the TPC-W join columns that dominate the book
    // searches: longish titles (53 bytes, so heap strings with a cached
    // hash), unique tails.
    let keys: Vec<String> =
        (0..512).map(|i| format!("the remarkably verbose catalog title of item {i:08}")).collect();

    let build: HashMap<Value, usize> =
        keys.iter().enumerate().map(|(i, k)| (Value::str(k), i)).collect();
    let probes: Vec<Value> = keys.iter().map(Value::str).collect();
    g.bench_function("join_probe_cached_hash", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &probes {
                hits += build.get(black_box(p)).copied().unwrap_or(0);
            }
            black_box(hits)
        })
    });

    // The pre-overhaul probe: the hasher walks the full key bytes on
    // every lookup (a `String`-keyed map makes std do exactly that).
    let build_raw: HashMap<String, usize> =
        keys.iter().enumerate().map(|(i, k)| (k.clone(), i)).collect();
    g.bench_function("join_probe_string_rehash", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &keys {
                hits += build_raw.get(black_box(p.as_str())).copied().unwrap_or(0);
            }
            black_box(hits)
        })
    });

    // A 6-column table, project 2 columns from every live row.
    let mut t = Table::new(
        TableSchema::builder("wide")
            .column("id", ColumnType::Int)
            .column("a", ColumnType::Int)
            .column("b", ColumnType::Float)
            .column("title", ColumnType::Str)
            .column("c", ColumnType::Int)
            .column("d", ColumnType::Float)
            .primary_key("id")
            .build()
            .unwrap(),
    );
    for i in 0..2_000i64 {
        t.insert(vec![
            Value::Int(i),
            Value::Int(i % 97),
            Value::Float(i as f64 * 0.5),
            Value::str(format!("row title {i}")),
            Value::Int(i % 7),
            Value::Float(i as f64),
        ])
        .unwrap();
    }
    g.bench_function("projection_arena_slice", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(2_000);
            for (_, row) in t.scan() {
                out.push((row[0].clone(), row[3].clone()));
            }
            black_box(out)
        })
    });
    g.bench_function("projection_row_clone", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(2_000);
            for (_, row) in t.scan() {
                let owned: Vec<Value> = row.to_vec();
                out.push((owned[0].clone(), owned[3].clone()));
            }
            black_box(out)
        })
    });
    g.finish();
}

/// What compile-once buys on the hot path: the same indexed point SELECT
/// served from a cached plan vs recompiled from scratch (parse + name
/// resolution + access-path selection) on every call. The warm path is the
/// one the benchmark applications live on.
fn bench_plan_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_cache");
    g.measurement_time(Duration::from_secs(2)).sample_size(30);

    let sql = "SELECT name, price FROM items WHERE id = ?";
    let mut db = small_db(2_000);
    g.bench_function("point_select_warm_plan", |b| {
        b.iter(|| db.execute(black_box(sql), &[Value::Int(997)]).unwrap())
    });

    let mut db = small_db(2_000);
    g.bench_function("point_select_cold_compile", |b| {
        b.iter(|| {
            db.clear_caches();
            db.execute(black_box(sql), &[Value::Int(997)]).unwrap()
        })
    });
    g.finish();
}

/// Sweep-level scaling: the same smoke-sized figure executed by one worker
/// and by four. The outputs are bit-identical; only wall-clock differs.
fn bench_figure_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("harness");
    g.measurement_time(Duration::from_secs(8)).sample_size(10);
    let pair = find_figure("fig11").unwrap();
    for jobs in [1usize, 4] {
        let mut cfg = HarnessConfig::smoke();
        cfg.jobs = jobs;
        g.bench_function(format!("run_figure_smoke_jobs{jobs}"), |b| {
            b.iter(|| black_box(run_figure(pair, &cfg)))
        });
    }
    g.finish();
}

fn bench_sim_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.measurement_time(Duration::from_secs(2)).sample_size(30);

    g.bench_function("ps_resource_churn_1k", |b| {
        b.iter_batched(
            || PsResource::new("cpu", 1.0),
            |mut r| {
                let mut now = SimTime::ZERO;
                let mut done = Vec::new();
                for i in 0..1_000u64 {
                    r.enqueue(now, dynamid_sim::JobId(i), 100.0);
                    if i % 4 == 3 {
                        now = r.next_completion(now).unwrap();
                        black_box(r.pop_completed(now, &mut done));
                    }
                }
                while let Some(t) = r.next_completion(now) {
                    now = t;
                    if r.pop_completed(now, &mut done) == 0 {
                        break;
                    }
                }
                black_box(done.len());
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("lock_manager_contended_1k", |b| {
        b.iter_batched(
            || {
                let mut lm = LockManager::new(GrantPolicy::WriterPriority);
                let l = lm.register_lock("t");
                (lm, l)
            },
            |(mut lm, l)| {
                let mut held: Vec<dynamid_sim::JobId> = Vec::new();
                for i in 0..1_000u64 {
                    let job = dynamid_sim::JobId(i);
                    let mode = if i % 5 == 0 { LockMode::Exclusive } else { LockMode::Shared };
                    if lm.acquire(SimTime::from_micros(i), l, mode, job) {
                        held.push(job);
                    }
                    if held.len() > 8 {
                        let j = held.remove(0);
                        black_box(lm.release(SimTime::from_micros(i), l, j));
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("engine_10k_cpu_jobs", |b| {
        b.iter_batched(
            || {
                let mut sim = Simulation::new(SimDuration::from_micros(100));
                let m = sim.add_machine("m", 1.0, 100.0);
                for i in 0..10_000 {
                    let t: Trace =
                        [Op::Cpu { machine: m, micros: 50 + (i % 17) }].into_iter().collect();
                    sim.submit(t, i);
                }
                sim
            },
            |mut sim| {
                sim.run(SimTime::from_micros(u64::MAX / 2), &mut NullDriver).unwrap();
                black_box(sim.stats().completed)
            },
            BatchSize::SmallInput,
        )
    });

    // The sweeps' shape: a few jobs per resource. 200 closed-loop clients
    // share a 16-process pool in front of a web -> app -> db chain; every
    // completion resubmits its client's request at once.
    g.bench_function("engine_closed_loop_3tier", |b| {
        b.iter_batched(
            || {
                let mut sim = Simulation::new(SimDuration::from_micros(100));
                let web = sim.add_machine("web", 1.0, 100.0);
                let app = sim.add_machine("app", 1.0, 100.0);
                let db = sim.add_machine("db", 1.0, 100.0);
                let pool = sim.register_semaphore("pool", 16);
                let traces: Vec<Trace> = (0..200u64)
                    .map(|client| {
                        [
                            Op::SemAcquire { sem: pool },
                            Op::Cpu { machine: web, micros: 150 + client % 13 },
                            Op::Net { from: web, to: app, bytes: 600 },
                            Op::Cpu { machine: app, micros: 300 + client % 29 },
                            Op::Net { from: app, to: db, bytes: 400 },
                            Op::Cpu { machine: db, micros: 120 + client % 7 },
                            Op::SemRelease { sem: pool },
                        ]
                        .into_iter()
                        .collect()
                    })
                    .collect();
                for (client, trace) in traces.iter().enumerate() {
                    sim.submit(trace.clone(), client as u64);
                }
                (sim, Resubmit { traces })
            },
            |(mut sim, mut driver)| {
                sim.run(SimTime::from_micros(1_000_000), &mut driver).unwrap();
                black_box(sim.stats().events)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Closed-loop clients with no think time: each completion resubmits the
/// same client's trace.
struct Resubmit {
    traces: Vec<Trace>,
}

impl Driver for Resubmit {
    fn on_job_complete(&mut self, sim: &mut Simulation, done: JobDone) {
        sim.submit(self.traces[done.tag as usize].clone(), done.tag);
    }
    fn on_timer(&mut self, _sim: &mut Simulation, _token: u64) {}
}

criterion_group!(
    benches,
    bench_sql,
    bench_exec,
    bench_hot_row_paths,
    bench_plan_cache,
    bench_figure_sweep,
    bench_sim_kernel
);
criterion_main!(benches);
