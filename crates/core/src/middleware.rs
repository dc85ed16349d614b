//! End-to-end request assembly: client → web server → connector →
//! generator (→ EJB) → database and back, plus embedded static content.

use crate::app::{AppError, Application};
use crate::cost::{CostModel, REQUEST_OVERHEAD_BYTES, RESPONSE_OVERHEAD_BYTES};
use crate::ctx::{RequestCtx, RequestStats};
use crate::deploy::{
    AdmissionControl, Deployment, FrontEnd, RoutingPolicy, StandardConfig, PROXY_STATIC_HIT_RATIO,
};
use crate::overload::OverloadControl;
use crate::replication::{ReplicaPolicy, ReplicationState};
use dynamid_sim::{Op, SimRng, Simulation, Trace};
use dynamid_sqldb::Database;
use dynamid_trace::{SpanDef, SpanKind, SpanRecorder};
use std::cell::RefCell;

/// A fully compiled interaction: the resource trace to submit to the
/// simulation plus the application-level outcome.
#[derive(Debug)]
pub struct PreparedRequest {
    /// The resource program for the simulator.
    pub trace: Trace,
    /// Per-request accounting.
    pub stats: RequestStats,
    /// Captured HTML (when capture was requested).
    pub html: Option<String>,
    /// The application error, when the handler failed (the trace still
    /// models the failed request's resource usage).
    pub error: Option<AppError>,
    /// The interaction id that was executed.
    pub interaction: usize,
    /// Undo log of the interaction's transaction: every request executes
    /// its database work inside `BEGIN … COMMIT`, and this is the commit
    /// receipt. The driver keeps it while the simulated job is in flight so
    /// an abort (deadline, crash, fault, deadlock) can roll the writes back
    /// via `Database::apply_rollback`; a completion drops it (commit).
    pub txn: dynamid_sqldb::TxnLog,
    /// The request's hierarchical span tree over the trace's op indices.
    /// Empty unless the middleware was installed with tracing enabled.
    pub spans: Vec<SpanDef>,
    /// The web-server index a load-balancer front end routed this request
    /// to (`None` without a balancer). The driver must hand it back via
    /// [`Middleware::route_done`] when the simulated job finishes, so the
    /// least-connections scheduler sees accurate in-flight counts.
    pub route: Option<usize>,
}

impl PreparedRequest {
    /// `true` when the handler completed without error.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Cumulative front-end counters (C7–C9 deployments only).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Requests routed to each web server, in route order. A reverse
    /// proxy reports a single slot.
    pub routed: Vec<u64>,
    /// Static-asset requests the proxy served from its cache.
    pub static_hits: u64,
    /// Static-asset requests the proxy had to relay to a web server.
    pub static_misses: u64,
}

/// Live state of the front-end tier: the balancer's scheduler and the
/// reverse proxy's static-cache accounting. Deterministic: the scheduler
/// sees only routing decisions and job completions, both of which arrive
/// in simulation order, and the cache hit pattern is a pure function of
/// the asset sequence number.
#[derive(Debug)]
struct FrontEndState {
    /// Balancer routing policy; `None` for a reverse proxy (single web).
    routing: Option<RoutingPolicy>,
    /// Round-robin rotation position.
    cursor: usize,
    /// In-flight requests per web server (balancer only; updated by
    /// `route` / `route_done`).
    inflight: Vec<u64>,
    /// Static-asset requests seen so far (drives the exact hit pattern).
    asset_seq: u64,
    routed: Vec<u64>,
    static_hits: u64,
    static_misses: u64,
}

impl FrontEndState {
    fn new(front: FrontEnd, webs: usize) -> Option<FrontEndState> {
        let routing = match front {
            FrontEnd::None => return None,
            FrontEnd::ReverseProxy => None,
            FrontEnd::LoadBalancer { routing } => Some(routing),
        };
        Some(FrontEndState {
            routing,
            cursor: 0,
            inflight: vec![0; webs],
            asset_seq: 0,
            routed: vec![0; webs],
            static_hits: 0,
            static_misses: 0,
        })
    }

    /// Picks the web server for the next request and counts it. Returns
    /// the balancer's route, counted in flight until `route_done`; `None`
    /// for a proxy, whose single web server needs no balancing.
    fn route(&mut self) -> Option<usize> {
        let r = match self.routing {
            None => {
                self.routed[0] += 1;
                return None;
            }
            Some(RoutingPolicy::RoundRobin) => {
                let r = self.cursor;
                self.cursor = (self.cursor + 1) % self.inflight.len();
                r
            }
            Some(RoutingPolicy::LeastConnections) => {
                let mut best = 0;
                for (i, &n) in self.inflight.iter().enumerate() {
                    if n < self.inflight[best] {
                        best = i;
                    }
                }
                best
            }
        };
        self.inflight[r] += 1;
        self.routed[r] += 1;
        Some(r)
    }

    fn route_done(&mut self, r: usize) {
        if self.routing.is_some() {
            self.inflight[r] = self.inflight[r].saturating_sub(1);
        }
    }

    /// Whether the next static-asset request hits the proxy cache; always
    /// `false`, and not counted, behind a balancer, which caches nothing.
    /// The pattern is the exact Bresenham spread of the hit ratio
    /// `h` = [`PROXY_STATIC_HIT_RATIO`] over the asset sequence —
    /// `floor((n+1)·h) > floor(n·h)` — so cumulative hits always equal
    /// `floor(seen · h)`: exact accounting, no RNG draws, and the client
    /// random streams stay untouched.
    fn asset_hit(&mut self) -> bool {
        if self.routing.is_some() {
            return false;
        }
        let n = self.asset_seq as f64;
        let h = PROXY_STATIC_HIT_RATIO;
        self.asset_seq += 1;
        let hit = ((n + 1.0) * h).floor() > (n * h).floor();
        if hit {
            self.static_hits += 1;
        } else {
            self.static_misses += 1;
        }
        hit
    }

    fn stats(&self) -> FrontEndStats {
        FrontEndStats {
            routed: self.routed.clone(),
            static_hits: self.static_hits,
            static_misses: self.static_misses,
        }
    }
}

/// One installed middleware stack: a deployment plus its cost model.
///
/// Created once per experiment run; [`run_interaction`] is then called for
/// every client interaction.
///
/// [`run_interaction`]: Middleware::run_interaction
#[derive(Debug)]
pub struct Middleware {
    deployment: Deployment,
    costs: CostModel,
    tracing: bool,
    /// The replicated DB tier (router, stream, fencing, election),
    /// present only when installed with `replication.replicas > 0`.
    /// `RefCell` because `run_interaction` takes `&self` (one middleware is
    /// driven single-threaded per experiment worker).
    replication: Option<RefCell<ReplicationState>>,
    /// Front-end tier state (balancer scheduler, proxy static cache),
    /// present only for deployments with a front end (C7–C9). Same
    /// `RefCell` rationale as the replication state.
    frontend: Option<RefCell<FrontEndState>>,
}

/// Options controlling how a middleware stack is installed.
///
/// The default reproduces the paper's setup exactly: no admission control
/// and no tracing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstallOptions {
    /// Admission-control limits (all disabled by default).
    pub admission: AdmissionControl,
    /// Record a hierarchical span tree for every interaction. Off by
    /// default; recording is purely observational, so the compiled traces
    /// and everything downstream are bit-identical either way.
    pub tracing: bool,
    /// The replicated DB tier (see [`crate::replication`]). The default has
    /// `replicas == 0`: no replica machines are created, no router state is
    /// constructed, and runs are bit-identical to the single-DB path.
    pub replication: ReplicaPolicy,
    /// Overload control (see [`crate::overload`]): install applies the
    /// deadline-aware shed targets to the process/connection pools; the
    /// circuit breaker is client-side, so its policy is for the client
    /// emulator to apply. All off by default, leaving runs bit-identical.
    pub overload: OverloadControl,
}

impl Middleware {
    /// Installs `config` into the simulation and wires the cost model, with
    /// admission control disabled (the paper's setup).
    pub fn install(
        sim: &mut Simulation,
        config: StandardConfig,
        db: &Database,
        app: &dyn Application,
        costs: CostModel,
    ) -> Middleware {
        Self::install_opts(sim, config, db, app, costs, InstallOptions::default())
    }

    /// Installs `config` with explicit [`InstallOptions`]: admission
    /// control (a bounded web accept queue sheds overload at the front
    /// door, a database connection pool caps handler concurrency at the
    /// database tier) and span tracing.
    pub fn install_opts(
        sim: &mut Simulation,
        config: StandardConfig,
        db: &Database,
        app: &dyn Application,
        costs: CostModel,
        opts: InstallOptions,
    ) -> Middleware {
        let web_processes = costs.web.max_processes;
        let deployment = Deployment::install_replicated(
            sim,
            config,
            db,
            app,
            web_processes,
            opts.admission,
            opts.replication.replicas,
        );
        if let Some(target) = opts.overload.web_shed_target {
            for &pool in deployment.web_pools() {
                sim.set_semaphore_shed_target(pool, Some(target));
            }
        }
        if let Some(target) = opts.overload.db_shed_target {
            if let Some(db_pool) = deployment.db_pool() {
                sim.set_semaphore_shed_target(db_pool, Some(target));
            }
        }
        let replication = opts.replication.is_enabled().then(|| {
            RefCell::new(ReplicationState::new(
                opts.replication,
                deployment.db_machine(),
                deployment.replicas(),
            ))
        });
        let frontend =
            FrontEndState::new(config.front(), deployment.web_machines().len()).map(RefCell::new);
        Middleware { deployment, costs, tracing: opts.tracing, replication, frontend }
    }

    /// Whether span tracing was enabled at install time.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The installed deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The cost model in effect.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The replicated DB tier, or `None` when installed without replicas.
    /// The workload driver borrows it mutably to forward commits, heartbeat
    /// ticks and the end of ship jobs; `run_interaction` borrows it to
    /// route each request.
    pub fn replication(&self) -> Option<&RefCell<ReplicationState>> {
        self.replication.as_ref()
    }

    /// Cumulative front-end counters (per-web routing, proxy static-cache
    /// hits), or `None` for front-end-less deployments (C1–C6).
    pub fn frontend_stats(&self) -> Option<FrontEndStats> {
        self.frontend.as_ref().map(|fe| fe.borrow().stats())
    }

    /// Tells the balancer a routed request left the system (completed or
    /// aborted). The driver calls this with [`PreparedRequest::route`]
    /// exactly once per routed request; a no-op for `None` routes or
    /// front-end-less deployments.
    pub fn route_done(&self, route: Option<usize>) {
        if let (Some(fe), Some(r)) = (&self.frontend, route) {
            fe.borrow_mut().route_done(r);
        }
    }

    /// Executes interaction `id` of `app` against `db` and compiles the
    /// complete resource trace: network hops, web-server front end,
    /// connector crossings, the handler's queries and locks, response
    /// generation and delivery, and embedded static assets.
    ///
    /// Handler failures do not abort compilation — the failed request's
    /// trace is still produced (it consumed resources in the real system
    /// too) and the error is reported in [`PreparedRequest::error`].
    pub fn run_interaction(
        &self,
        db: &mut Database,
        app: &dyn Application,
        id: usize,
        session: &mut crate::session::SessionData,
        rng: &mut SimRng,
        capture_html: bool,
    ) -> PreparedRequest {
        let spec = app.interactions()[id];
        let config = self.deployment.config();
        let style = config.logic_style();
        let in_web_process = config.logic().in_web_process();
        let web_costs = self.costs.web;
        let fe_costs = self.costs.frontend;

        // Route before compiling: the balancer pins the whole request —
        // dynamic page and trailing assets — to one web server, as a
        // keep-alive connection through an L4 balancer would.
        let routed = self.frontend.as_ref().and_then(|fe| fe.borrow_mut().route());
        let route = routed.unwrap_or(0);
        let web = self.deployment.web_machines()[route];
        let web_pool = self.deployment.web_pool_for(route);

        let mut ctx = RequestCtx::new(db, &self.deployment, &self.costs, style, capture_html);
        ctx.generator_machine = self.deployment.generator(route);
        if let Some(repl) = &self.replication {
            // Route before any op is pushed: reads rotate over readable
            // replicas, writes (and reads with nobody readable) go to the
            // current primary — which may be a promoted replica.
            ctx.db_machine = repl.borrow_mut().route(spec.read_only);
        }
        if self.tracing {
            ctx.spans = Some(SpanRecorder::new());
        }
        ctx.span_open(SpanKind::Request, spec.name);

        // --- Request path ---------------------------------------------
        // A proxy relays the page through user space, per request and per
        // byte.
        let req_bytes = REQUEST_OVERHEAD_BYTES + 64;
        let page_relay = fe_costs.proxy_per_request + fe_costs.proxy_per_byte * req_bytes as f64;
        ctx.front_in(web, req_bytes, page_relay, true);
        ctx.span_open(SpanKind::WebServe, "web-front");
        ctx.push(Op::SemAcquire { sem: web_pool });
        let mut front = web_costs.per_request;
        if spec.secure {
            front += web_costs.ssl_per_request;
        }
        ctx.push(Op::Cpu { machine: web, micros: front.round() as u64 });

        // Connector crossing: web server -> generator. PHP enters its
        // module in-process, inside `web-front`.
        let generator = ctx.generator_machine;
        if in_web_process {
            ctx.push(Op::Cpu { machine: web, micros: self.costs.php_invoke.round() as u64 });
        }
        ctx.span_close(); // web-front
        if !in_web_process {
            ctx.cross(self.costs.ajp, web, generator, req_bytes, Some("ajp-request"));
        }
        ctx.span_open(SpanKind::Invoke, "handler");
        let gen_dispatch = ctx.gen_costs().per_request.round() as u64;
        ctx.push(Op::Cpu { machine: generator, micros: gen_dispatch });

        // --- Handler ---------------------------------------------------
        // With a connection pool installed, the handler's database work is
        // bracketed by a pool checkout: a full pool queues (or rejects) the
        // request before any query executes.
        if let Some(pool) = self.deployment.db_pool() {
            ctx.push(Op::SemAcquire { sem: pool });
        }
        // Every interaction runs inside a transaction. The handler executes
        // eagerly here, so the undo log is complete by the time the trace is
        // handed to the simulator; transaction control itself is free (no
        // trace ops, no DbStats), keeping healthy-path figures unchanged.
        ctx.db.begin_txn().expect("request started with a transaction already open");
        let result = app.handle(id, &mut ctx, session, rng);
        let error = result.err();
        if error.is_some() && ctx.output_bytes() == 0 {
            ctx.emit("<html><body>error</body></html>");
        }
        // Handler errors are page-level failures, not database rollbacks
        // (MyISAM has no statement atomicity either): take the receipt
        // regardless and let the driver decide commit vs. unwind.
        // The commit also invalidates the database's caches.
        let txn = ctx.db.commit_txn().unwrap_or_default();
        ctx.force_release();
        if let Some(pool) = self.deployment.db_pool() {
            ctx.push(Op::SemRelease { sem: pool });
        }
        ctx.span_close(); // handler

        // --- Response path ---------------------------------------------
        ctx.span_open(SpanKind::Response, "response");
        let body = ctx.output_bytes();
        let render = (ctx.gen_costs().per_output_byte * body as f64).round() as u64;
        ctx.push(Op::Cpu { machine: generator, micros: render });
        if !in_web_process {
            ctx.cross(self.costs.ajp, generator, web, body, Some("ajp-reply"));
        }
        let wire = body + RESPONSE_OVERHEAD_BYTES;
        ctx.push(Op::Cpu {
            machine: web,
            micros: (web_costs.per_response_byte * wire as f64).round() as u64,
        });
        ctx.front_out(web, wire, true);
        ctx.span_close(); // response

        // --- Embedded static assets over the same connection ------------
        let assets = ctx.take_assets();
        if !assets.is_empty() {
            ctx.span_open(SpanKind::StaticAssets, "assets");
        }
        for &asset in &assets {
            let asset_wire = asset.bytes + RESPONSE_OVERHEAD_BYTES;
            let service = web_costs.static_service_micros(asset);
            if self.frontend.as_ref().is_some_and(|fe| fe.borrow_mut().asset_hit()) {
                // Served from the proxy's static cache: the web server
                // never sees the request.
                let client = self.deployment.client();
                let proxy = self.deployment.front_machine().expect("proxy deployment");
                ctx.push(Op::Net { from: client, to: proxy, bytes: REQUEST_OVERHEAD_BYTES });
                ctx.span_open(SpanKind::FrontEnd, "proxy-cache");
                let serve = fe_costs.proxy_cache_probe + service as f64;
                ctx.push(Op::Cpu { machine: proxy, micros: serve.round() as u64 });
                ctx.push(Op::Net { from: proxy, to: client, bytes: asset_wire });
                ctx.span_close(); // proxy-cache
            } else {
                // A proxy miss probes the cache, then relays the asset
                // through the web server like a page.
                let miss_relay = fe_costs.proxy_cache_probe + fe_costs.proxy_per_request;
                ctx.front_in(web, REQUEST_OVERHEAD_BYTES, miss_relay, false);
                ctx.push(Op::Cpu { machine: web, micros: service });
                ctx.front_out(web, asset_wire, false);
            }
        }
        if !assets.is_empty() {
            ctx.span_close(); // assets
        }
        ctx.push(Op::SemRelease { sem: web_pool });
        ctx.span_close(); // request root

        let html = ctx.captured_html().map(str::to_string);
        let mut stats = ctx.stats;
        stats.output_bytes = body;
        let spans = ctx.take_spans();
        let trace = ctx.trace;
        debug_assert!(trace.check_balanced().is_ok(), "unbalanced request trace");

        PreparedRequest { trace, stats, html, error, interaction: id, txn, spans, route: routed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppLockSpec, AppResult, InteractionSpec, LogicStyle};
    use crate::cost::{
        ConnectorCosts, DbCostModel, EjbCosts, FrontEndCosts, GeneratorCosts, StaticAsset,
        WebServerCosts,
    };
    use crate::session::SessionData;
    use dynamid_sim::engine::NullDriver;
    use dynamid_sim::{SimDuration, SimTime};
    use dynamid_sqldb::{CacheInvalidation, CachePolicy, ColumnType, TableSchema, Value};

    /// A toy two-interaction application used to exercise the full stack.
    struct ToyApp;

    impl Application for ToyApp {
        fn name(&self) -> &str {
            "toy"
        }
        fn interactions(&self) -> &[InteractionSpec] {
            &[
                InteractionSpec { name: "View", read_only: true, secure: false },
                InteractionSpec { name: "Buy", read_only: false, secure: true },
                InteractionSpec { name: "Browse", read_only: true, secure: false },
            ]
        }
        fn app_locks(&self) -> Vec<AppLockSpec> {
            vec![AppLockSpec::new("stock", 8)]
        }
        fn handle(
            &self,
            id: usize,
            ctx: &mut RequestCtx<'_>,
            session: &mut SessionData,
            _rng: &mut SimRng,
        ) -> AppResult<()> {
            match id {
                0 => {
                    let r = ctx.query("SELECT qty FROM stock WHERE id = ?", &[Value::Int(1)])?;
                    let qty = r.rows[0][0].as_int().unwrap();
                    ctx.emit(&format!("<html>qty={qty}</html>"));
                    ctx.embed_asset(StaticAsset::thumbnail());
                    session.set_int("seen", 1);
                    Ok(())
                }
                1 => {
                    match ctx.style() {
                        LogicStyle::ExplicitSql { sync: false } => {
                            ctx.query("LOCK TABLES stock WRITE", &[])?;
                            ctx.query(
                                "UPDATE stock SET qty = qty - 1 WHERE id = ?",
                                &[Value::Int(1)],
                            )?;
                            ctx.query("UNLOCK TABLES", &[])?;
                        }
                        LogicStyle::ExplicitSql { sync: true } => {
                            ctx.app_lock("stock", 1);
                            ctx.query(
                                "UPDATE stock SET qty = qty - 1 WHERE id = ?",
                                &[Value::Int(1)],
                            )?;
                            ctx.app_unlock("stock", 1);
                        }
                        LogicStyle::EntityBean => {
                            ctx.facade("StockFacade.buy", |em| {
                                let h = em.find("stock", Value::Int(1))?.unwrap();
                                let qty = em.get(h, "qty")?.as_int().unwrap();
                                em.set(h, "qty", Value::Int(qty - 1))?;
                                Ok(())
                            })?;
                        }
                    }
                    ctx.emit("<html>bought</html>");
                    Ok(())
                }
                2 => {
                    let r = ctx.query("SELECT id, qty FROM stock ORDER BY qty", &[])?;
                    ctx.emit(&format!("<html>{} items</html>", r.rows.len()));
                    Ok(())
                }
                _ => unreachable!(),
            }
        }
    }

    fn toy_db() -> Database {
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
        db.execute("INSERT INTO stock (id, qty) VALUES (1, 100)", &[]).unwrap();
        db
    }

    fn run_config(config: StandardConfig) -> (Simulation, Database, Middleware) {
        let db = toy_db();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &ToyApp, CostModel::default());
        (sim, db, mw)
    }

    #[test]
    fn full_request_runs_in_every_configuration() {
        for config in StandardConfig::ALL.into_iter().chain(StandardConfig::FRONT_ENDED) {
            let (mut sim, mut db, mw) = run_config(config);
            let mut session = SessionData::new(0);
            let mut rng = SimRng::new(1);
            for id in [0usize, 1] {
                let prep = mw.run_interaction(&mut db, &ToyApp, id, &mut session, &mut rng, true);
                assert!(prep.is_ok(), "{config}: {:?}", prep.error);
                assert!(prep.trace.check_balanced().is_ok(), "{config}");
                sim.submit(prep.trace, id as u64);
            }
            sim.run(SimTime::from_micros(60_000_000), &mut NullDriver).unwrap();
            assert_eq!(sim.stats().completed, 2, "{config}");
            // Both interactions really hit the database.
            let qty = db.execute("SELECT qty FROM stock WHERE id = 1", &[]).unwrap();
            assert_eq!(qty.rows[0][0], Value::Int(99), "{config}");
        }
    }

    #[test]
    fn php_keeps_generator_on_web_machine() {
        let (_sim, mut db, mw) = run_config(StandardConfig::PhpColocated);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let prep = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        let web = mw.deployment().web_machines()[0];
        assert!(prep.trace.cpu_demand(web) > 0);
        // Only web, client and db machines exist; no servlet CPU anywhere.
        assert!(mw.deployment().servlet_machine().is_none());
        assert!(prep.route.is_none());
    }

    #[test]
    fn dedicated_servlet_moves_generator_load() {
        let (_sim, mut db, mw) = run_config(StandardConfig::ServletDedicated);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let prep = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        let web = mw.deployment().web_machines()[0];
        let servlet = mw.deployment().servlet_machine().unwrap();
        assert_ne!(servlet, web);
        let web_cpu = prep.trace.cpu_demand(web);
        let servlet_cpu = prep.trace.cpu_demand(servlet);
        assert!(servlet_cpu > 0);
        assert!(web_cpu > 0);
        // The handler's query work landed on the servlet machine, so the
        // generator share exceeds the web front-end share for this page.
        assert!(servlet_cpu > web_cpu, "servlet {servlet_cpu} vs web {web_cpu}");
        // Response bytes crossed servlet -> web.
        assert!(prep.trace.bytes_sent(servlet) > 0);
    }

    #[test]
    fn colocated_servlet_charges_one_machine_but_more_cpu_than_php() {
        let (_s1, mut db1, php) = run_config(StandardConfig::PhpColocated);
        let (_s2, mut db2, srv) = run_config(StandardConfig::ServletColocated);
        let mut rng = SimRng::new(1);
        let mut session = SessionData::new(0);
        let p1 = php.run_interaction(&mut db1, &ToyApp, 0, &mut session, &mut rng, false);
        let p2 = srv.run_interaction(&mut db2, &ToyApp, 0, &mut session, &mut rng, false);
        let php_cpu = p1.trace.cpu_demand(php.deployment().web_machines()[0]);
        let srv_cpu = p2.trace.cpu_demand(srv.deployment().web_machines()[0]);
        assert!(
            srv_cpu > php_cpu,
            "co-located servlets must cost more front-end CPU ({srv_cpu} vs {php_cpu})"
        );
    }

    #[test]
    fn sync_style_uses_app_locks_not_table_locks() {
        let (_sim, mut db, mw) = run_config(StandardConfig::ServletColocatedSync);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let prep = mw.run_interaction(&mut db, &ToyApp, 1, &mut session, &mut rng, false);
        assert!(prep.is_ok());
        // Trace contains a lock on an app stripe; the UPDATE still takes
        // its implicit statement lock, but no LOCK TABLES span exists.
        // (Count lock ops: app lock + statement lock = 2.)
        let locks =
            prep.trace.ops().iter().filter(|op| matches!(op, dynamid_sim::Op::Lock { .. })).count();
        assert_eq!(locks, 2);
    }

    #[test]
    fn ejb_style_touches_four_machines() {
        let (_sim, mut db, mw) = run_config(StandardConfig::EjbFourTier);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let prep = mw.run_interaction(&mut db, &ToyApp, 1, &mut session, &mut rng, false);
        assert!(prep.is_ok());
        let d = mw.deployment();
        for (name, machine) in [
            ("web", d.web_machines()[0]),
            ("servlet", d.servlet_machine().unwrap()),
            ("ejb", d.ejb_machine().unwrap()),
            ("db", d.db_machine()),
        ] {
            assert!(prep.trace.cpu_demand(machine) > 0, "no CPU charged on {name}");
        }
        assert!(prep.stats.facade_calls == 1);
        assert!(prep.stats.bean_accesses >= 2);
    }

    #[test]
    fn secure_interactions_cost_more_web_cpu() {
        let (_sim, mut db, mw) = run_config(StandardConfig::PhpColocated);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let view = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        let buy = mw.run_interaction(&mut db, &ToyApp, 1, &mut session, &mut rng, false);
        // Interaction 1 is secure; strip the query cost difference by
        // comparing only front-end shapes: buy has SSL but no asset, view
        // has an asset. Just assert both produced sane traces and buy paid
        // the SSL bump in total web CPU beyond the static service delta.
        assert!(view.is_ok() && buy.is_ok());
        assert!(buy.trace.cpu_demand(mw.deployment().web_machines()[0]) > 0);
    }

    #[test]
    fn handler_error_still_produces_balanced_trace() {
        struct FailApp;
        impl Application for FailApp {
            fn name(&self) -> &str {
                "fail"
            }
            fn interactions(&self) -> &[InteractionSpec] {
                &[InteractionSpec { name: "Boom", read_only: false, secure: false }]
            }
            fn handle(
                &self,
                _id: usize,
                ctx: &mut RequestCtx<'_>,
                _s: &mut SessionData,
                _r: &mut SimRng,
            ) -> AppResult<()> {
                // Take a lock and fail before releasing it.
                ctx.query("LOCK TABLES stock WRITE", &[])?;
                Err(AppError::Logic("boom".into()))
            }
        }
        let db = toy_db();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(
            &mut sim,
            StandardConfig::PhpColocated,
            &db,
            &FailApp,
            CostModel::default(),
        );
        let mut db = db;
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let prep = mw.run_interaction(&mut db, &FailApp, 0, &mut session, &mut rng, false);
        assert!(matches!(prep.error, Some(AppError::Logic(_))));
        // The handler wrote nothing, so the client gets the error page.
        assert_eq!(prep.stats.output_bytes, "<html><body>error</body></html>".len() as u64);
        assert!(prep.trace.check_balanced().is_ok());
        assert_eq!(prep.stats.forced_unlocks, 1);
        // The trace still runs to completion in the simulator.
        sim.submit(prep.trace, 0);
        sim.run(SimTime::from_micros(10_000_000), &mut NullDriver).unwrap();
        assert_eq!(sim.stats().completed, 1);
    }

    #[test]
    fn db_pool_brackets_handler_and_sheds_overload() {
        use dynamid_sim::AbortReason;

        let db = toy_db();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        // One DB connection, no waiting allowed: with two concurrent
        // requests, the second must be rejected at the pool.
        let mw = Middleware::install_opts(
            &mut sim,
            StandardConfig::PhpColocated,
            &db,
            &ToyApp,
            CostModel::default(),
            InstallOptions {
                admission: crate::deploy::AdmissionControl {
                    web_accept_queue: None,
                    db_connections: Some(1),
                    db_accept_queue: Some(0),
                },
                ..InstallOptions::default()
            },
        );
        let mut db = db;
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let pool = mw.deployment().db_pool().unwrap();
        for tag in 0..2u64 {
            let prep = mw.run_interaction(&mut db, &ToyApp, 1, &mut session, &mut rng, false);
            assert!(prep.is_ok());
            // The trace checks out: acquire and release of the pool bracket
            // the handler's ops.
            let acq = prep
                .trace
                .ops()
                .iter()
                .position(|op| matches!(op, Op::SemAcquire { sem } if *sem == pool));
            let rel = prep
                .trace
                .ops()
                .iter()
                .position(|op| matches!(op, Op::SemRelease { sem } if *sem == pool));
            assert!(acq.unwrap() < rel.unwrap());
            sim.submit(prep.trace, tag);
        }
        struct Recorder(Vec<(u64, AbortReason)>);
        impl dynamid_sim::Driver for Recorder {
            fn on_job_complete(&mut self, _s: &mut Simulation, _d: dynamid_sim::JobDone) {}
            fn on_timer(&mut self, _s: &mut Simulation, _t: u64) {}
            fn on_job_aborted(&mut self, _s: &mut Simulation, info: dynamid_sim::JobAborted) {
                self.0.push((info.tag, info.reason));
            }
        }
        let mut rec = Recorder(Vec::new());
        sim.run(SimTime::from_micros(60_000_000), &mut rec).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(rec.0, vec![(1, AbortReason::Rejected)]);
        // The rejected request released nothing it did not hold.
        assert!(sim.leak_report().is_none());
    }

    #[test]
    fn tracing_records_balanced_span_trees() {
        for config in [StandardConfig::PhpColocated, StandardConfig::EjbFourTier] {
            let db = toy_db();
            let mut sim = Simulation::new(SimDuration::from_micros(100));
            let mw = Middleware::install_opts(
                &mut sim,
                config,
                &db,
                &ToyApp,
                CostModel::default(),
                InstallOptions { tracing: true, ..InstallOptions::default() },
            );
            assert!(mw.tracing());
            let mut db = db;
            let mut session = SessionData::new(0);
            let mut rng = SimRng::new(1);
            for id in 0..2 {
                let prep = mw.run_interaction(&mut db, &ToyApp, id, &mut session, &mut rng, false);
                let root = &prep.spans[0];
                assert_eq!(root.kind, SpanKind::Request);
                assert_eq!((root.start_op, root.end_op), (0, prep.trace.len()));
                for (i, s) in prep.spans.iter().enumerate() {
                    assert!(s.start_op <= s.end_op && s.end_op <= prep.trace.len());
                    if let Some(p) = s.parent {
                        assert!(p < i, "parents precede children");
                        let parent = &prep.spans[p];
                        assert!(parent.start_op <= s.start_op && s.end_op <= parent.end_op);
                    }
                }
                // Every SQL statement span carries a modeled cost.
                let sql: Vec<_> =
                    prep.spans.iter().filter(|s| s.kind == SpanKind::SqlStatement).collect();
                assert!(!sql.is_empty());
                assert!(sql.iter().all(|s| s.cost_micros.is_some()));
            }
            // The EJB config exercises facade + CMP spans on the write path.
            if config == StandardConfig::EjbFourTier {
                let prep = mw.run_interaction(&mut db, &ToyApp, 1, &mut session, &mut rng, false);
                assert!(prep.spans.iter().any(|s| s.kind == SpanKind::FacadeCall));
                assert!(prep.spans.iter().any(|s| s.kind == SpanKind::CmpAccess));
            }
        }
    }

    #[test]
    fn tracing_off_records_no_spans() {
        let (_sim, mut db, mw) = run_config(StandardConfig::ServletDedicated);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let prep = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        assert!(prep.spans.is_empty());
    }

    /// An EJB-style app whose read interaction goes through the method
    /// cache and whose write interaction invalidates it.
    struct CachedApp;

    impl Application for CachedApp {
        fn name(&self) -> &str {
            "cached"
        }
        fn interactions(&self) -> &[InteractionSpec] {
            &[
                InteractionSpec { name: "View", read_only: true, secure: false },
                InteractionSpec { name: "Buy", read_only: false, secure: false },
                InteractionSpec { name: "BuyThenView", read_only: false, secure: false },
            ]
        }
        fn handle(
            &self,
            id: usize,
            ctx: &mut RequestCtx<'_>,
            _session: &mut SessionData,
            _rng: &mut SimRng,
        ) -> crate::app::AppResult<()> {
            let view = |ctx: &mut RequestCtx<'_>| {
                ctx.facade_cached("Stock.view", &[Value::Int(1)], |em| {
                    let h = em.find("stock", Value::Int(1))?.unwrap();
                    em.get(h, "qty")
                })
            };
            let buy = |ctx: &mut RequestCtx<'_>| {
                ctx.facade("Stock.buy", |em| {
                    let h = em.find("stock", Value::Int(1))?.unwrap();
                    let qty = em.get(h, "qty")?.as_int().unwrap();
                    em.set(h, "qty", Value::Int(qty - 1))?;
                    Ok(())
                })
            };
            match id {
                0 => {
                    let qty = view(ctx)?;
                    ctx.emit(&format!("<html>qty={}</html>", qty.as_int().unwrap()));
                }
                1 => {
                    buy(ctx)?;
                    ctx.emit("<html>bought</html>");
                }
                2 => {
                    // Write first, then read the same table inside the same
                    // transaction: the cached (committed-state) value must
                    // not be served, and the uncommitted read must not be
                    // stored either.
                    buy(ctx)?;
                    let qty = view(ctx)?;
                    ctx.emit(&format!("<html>qty={}</html>", qty.as_int().unwrap()));
                }
                _ => unreachable!(),
            }
            Ok(())
        }
    }

    fn cached_mw(invalidation: CacheInvalidation) -> (Database, Middleware) {
        let mut db = toy_db();
        db.enable_caching(CachePolicy { capacity: 16, invalidation });
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(
            &mut sim,
            StandardConfig::EjbFourTier,
            &db,
            &CachedApp,
            CostModel::default(),
        );
        (db, mw)
    }

    #[test]
    fn method_cache_hit_skips_facade_and_cmp_chain() {
        let (mut db, mw) = cached_mw(CacheInvalidation::Transactional);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let miss = mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, true);
        let hit = mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, true);
        assert!(miss.is_ok() && hit.is_ok());
        assert_eq!(miss.html, hit.html);
        let stats = db.cache_stats().method;
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(db.method_cache_len(), 1);
        // The hit never crossed RMI: no façade, no beans, no EJB-machine
        // CPU, no SQL — a strictly shorter trace.
        assert_eq!(hit.stats.facade_calls, 0);
        assert_eq!(hit.stats.bean_accesses, 0);
        assert_eq!(hit.stats.queries, 0);
        let ejb = mw.deployment().ejb_machine().unwrap();
        assert!(miss.trace.cpu_demand(ejb) > 0);
        assert_eq!(hit.trace.cpu_demand(ejb), 0);
        assert!(hit.trace.len() < miss.trace.len());
    }

    #[test]
    fn method_cache_invalidated_by_committed_write() {
        let (mut db, mw) = cached_mw(CacheInvalidation::Transactional);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, false);
        let buy = mw.run_interaction(&mut db, &CachedApp, 1, &mut session, &mut rng, false);
        assert!(buy.is_ok());
        let stats = db.cache_stats().method;
        assert_eq!(stats.invalidations, 1);
        assert_eq!(db.method_cache_len(), 0);
        // The next view misses and sees the committed write.
        let after = mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, true);
        assert_eq!(after.html.as_deref(), Some("<html>qty=99</html>"));
        let stats = db.cache_stats().method;
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }

    #[test]
    fn method_cache_bypassed_inside_writing_transaction() {
        let (mut db, mw) = cached_mw(CacheInvalidation::Transactional);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        // Warm the cache with the committed value.
        mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, false);
        // Buy-then-view inside one transaction: the view must bypass the
        // warm entry and read its own uncommitted write.
        let combo = mw.run_interaction(&mut db, &CachedApp, 2, &mut session, &mut rng, true);
        assert!(combo.is_ok());
        assert_eq!(combo.html.as_deref(), Some("<html>qty=99</html>"));
        let stats = db.cache_stats().method;
        assert_eq!(stats.bypasses, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn method_cache_ttl_expires_by_clock_and_ignores_commits() {
        let (mut db, mw) = cached_mw(CacheInvalidation::Ttl(1_000));
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        db.set_cache_clock(0);
        mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, true);
        // A committed write does NOT invalidate under TTL…
        mw.run_interaction(&mut db, &CachedApp, 1, &mut session, &mut rng, false);
        assert_eq!(db.cache_stats().method.invalidations, 0);
        // …so the next view within the TTL serves the stale value.
        let stale = mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, true);
        assert_eq!(stale.html.as_deref(), Some("<html>qty=100</html>"));
        assert_eq!(db.cache_stats().method.hits, 1);
        // Past the TTL the entry expires and the fresh value is read.
        db.set_cache_clock(1_000);
        let fresh = mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, true);
        assert_eq!(fresh.html.as_deref(), Some("<html>qty=99</html>"));
        assert_eq!(db.cache_stats().method.misses, 2);
    }

    #[test]
    fn apply_rollback_flushes_method_cache_without_counting() {
        let (mut db, mw) = cached_mw(CacheInvalidation::Transactional);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        // A committed receipt that wrote `stock`, taken while nothing was
        // cached yet.
        let buy = mw.run_interaction(&mut db, &CachedApp, 1, &mut session, &mut rng, false);
        mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, false);
        assert_eq!(db.method_cache_len(), 1);
        // Unwinding it, as an aborted request is unwound, flushes the
        // dependent entry without counting an invalidation.
        db.apply_rollback(buy.txn);
        assert_eq!(db.method_cache_len(), 0);
        assert_eq!(db.cache_stats().method.invalidations, 0);
    }

    #[test]
    fn facade_cached_without_cache_behaves_like_facade() {
        let db = toy_db();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(
            &mut sim,
            StandardConfig::EjbFourTier,
            &db,
            &CachedApp,
            CostModel::default(),
        );
        assert!(!db.caching_enabled());
        let mut db = db;
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let a = mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, true);
        let b = mw.run_interaction(&mut db, &CachedApp, 0, &mut session, &mut rng, true);
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(a.stats.facade_calls, 1);
        assert_eq!(b.stats.facade_calls, 1);
        assert_eq!(a.trace.len(), b.trace.len());
    }

    /// What one price-liveness case compiles on a fresh stack.
    #[derive(Debug, Clone, Copy)]
    enum Probe {
        /// One `ToyApp` interaction.
        Toy(usize),
        /// `ToyApp`'s View twice with the query cache on: the repeat read
        /// is a result-cache hit.
        CachedRead,
        /// `CachedApp`'s View twice: the repeat façade is a method-cache
        /// hit.
        CachedFacade,
    }

    /// The sum of `Op::Cpu` micros of the last interaction `probe`
    /// compiles in `config` under `costs`, on a ten-row `stock` table.
    fn probe_cpu(config: StandardConfig, costs: &CostModel, probe: Probe) -> u64 {
        let mut db = toy_db();
        for id in 2..=10 {
            db.execute(
                "INSERT INTO stock (id, qty) VALUES (?, ?)",
                &[Value::Int(id), Value::Int(id)],
            )
            .unwrap();
        }
        let (app, id, runs): (&dyn Application, usize, u64) = match probe {
            Probe::Toy(id) => (&ToyApp, id, 1),
            Probe::CachedRead => (&ToyApp, 0, 2),
            Probe::CachedFacade => (&CachedApp, 0, 2),
        };
        if runs > 1 {
            let invalidation = CacheInvalidation::Transactional;
            db.enable_caching(CachePolicy { capacity: 16, invalidation });
        }
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, app, costs.clone());
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let mut prep = mw.run_interaction(&mut db, app, id, &mut session, &mut rng, false);
        for _ in 1..runs {
            prep = mw.run_interaction(&mut db, app, id, &mut session, &mut rng, false);
        }
        assert!(prep.is_ok(), "{config} {probe:?}: {:?}", prep.error);
        let cache = db.cache_stats();
        match probe {
            Probe::Toy(_) => {}
            Probe::CachedRead => assert_eq!(cache.query.hits, 1, "{config}"),
            Probe::CachedFacade => assert_eq!(cache.method.hits, 1, "{config}"),
        }
        prep.trace
            .ops()
            .iter()
            .map(|op| match op {
                Op::Cpu { micros, .. } => *micros,
                _ => 0,
            })
            .sum()
    }

    /// Requests the installed web pool admits at once: 1,100 arrive
    /// together and hold a process for a whole second.
    fn web_pool_admits(costs: &CostModel) -> u64 {
        let db = toy_db();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(
            &mut sim,
            StandardConfig::PhpColocated,
            &db,
            &ToyApp,
            costs.clone(),
        );
        let pool = mw.deployment().web_pools()[0];
        for tag in 0..1_100 {
            let mut hold = Trace::new();
            hold.push(Op::SemAcquire { sem: pool });
            hold.push(Op::Delay { micros: 1_000_000 });
            hold.push(Op::SemRelease { sem: pool });
            sim.submit(hold, tag);
        }
        sim.run(SimTime::from_micros(1_000), &mut NullDriver).unwrap();
        sim.semaphore_stats(pool).immediate_grants
    }

    /// Every field of `CostModel` reaches a compiled trace: doubling one
    /// price changes the CPU micros of an interaction where it applies,
    /// and doubling `max_processes` doubles the web pool.
    #[test]
    fn every_price_moves_a_modeled_number() {
        use StandardConfig::*;
        // Exhaustive: a new field fails to compile here, and a binding the
        // table below does not use fails the lint, until a case covers it.
        let CostModel { web, php, servlet, ejb, db, ajp, rmi, php_invoke, frontend } =
            CostModel::default();
        let WebServerCosts {
            max_processes,
            per_request: web_request,
            per_response_byte,
            static_per_request,
            static_per_byte,
            ssl_per_request,
        } = web;
        let GeneratorCosts {
            per_request: php_request,
            per_output_byte: php_output_byte,
            per_query: php_query,
            per_result_byte: php_result_byte,
        } = php;
        let GeneratorCosts {
            per_request: servlet_request,
            per_output_byte: servlet_output_byte,
            per_query: servlet_query,
            per_result_byte: servlet_result_byte,
        } = servlet;
        let EjbCosts { per_facade_call, per_bean_access, per_cache_hit } = ejb;
        let DbCostModel {
            per_statement,
            per_row_examined,
            per_row_returned,
            per_byte_returned,
            per_index_lookup,
            per_row_written,
            sort_factor,
            result_cache_hit_micros,
        } = db;
        let ConnectorCosts { per_message: ajp_message, per_byte: ajp_byte } = ajp;
        let ConnectorCosts { per_message: rmi_message, per_byte: rmi_byte } = rmi;
        let FrontEndCosts {
            proxy_per_request,
            proxy_per_byte,
            proxy_cache_probe,
            balancer_per_request,
        } = frontend;

        // Each case: the destructured default, where the price lives, and
        // a preset and interaction that charge it.
        type Price = fn(&mut CostModel) -> &mut f64;
        macro_rules! case {
            ($default:ident, $($field:ident).+, $config:expr, $probe:expr) => {
                (stringify!($($field).+), $default, |m| &mut m.$($field).+, $config, $probe)
            };
        }
        let (view, buy, browse) = (Probe::Toy(0), Probe::Toy(1), Probe::Toy(2));
        let (cached_read, cached_facade) = (Probe::CachedRead, Probe::CachedFacade);
        let cases: &[(&str, f64, Price, StandardConfig, Probe)] = &[
            case!(web_request, web.per_request, PhpColocated, view),
            case!(per_response_byte, web.per_response_byte, PhpColocated, view),
            case!(static_per_request, web.static_per_request, PhpColocated, view),
            case!(static_per_byte, web.static_per_byte, PhpColocated, view),
            case!(ssl_per_request, web.ssl_per_request, PhpColocated, buy),
            case!(php_request, php.per_request, PhpColocated, view),
            case!(php_output_byte, php.per_output_byte, PhpColocated, view),
            case!(php_query, php.per_query, PhpColocated, view),
            case!(php_result_byte, php.per_result_byte, PhpColocated, view),
            case!(php_invoke, php_invoke, PhpColocated, view),
            case!(servlet_request, servlet.per_request, ServletColocated, view),
            case!(servlet_output_byte, servlet.per_output_byte, ServletColocated, view),
            case!(servlet_query, servlet.per_query, ServletColocated, view),
            case!(servlet_result_byte, servlet.per_result_byte, ServletColocated, view),
            case!(ajp_message, ajp.per_message, ServletColocated, view),
            case!(ajp_byte, ajp.per_byte, ServletColocated, view),
            case!(per_facade_call, ejb.per_facade_call, EjbFourTier, buy),
            case!(per_bean_access, ejb.per_bean_access, EjbFourTier, buy),
            case!(per_cache_hit, ejb.per_cache_hit, EjbFourTier, cached_facade),
            case!(rmi_message, rmi.per_message, EjbFourTier, buy),
            case!(rmi_byte, rmi.per_byte, EjbFourTier, buy),
            case!(per_statement, db.per_statement, PhpColocated, view),
            case!(per_row_examined, db.per_row_examined, PhpColocated, view),
            case!(per_row_returned, db.per_row_returned, PhpColocated, view),
            case!(per_byte_returned, db.per_byte_returned, PhpColocated, browse),
            case!(per_index_lookup, db.per_index_lookup, PhpColocated, view),
            case!(per_row_written, db.per_row_written, PhpColocated, buy),
            case!(sort_factor, db.sort_factor, PhpColocated, browse),
            case!(result_cache_hit_micros, db.result_cache_hit_micros, PhpColocated, cached_read),
            case!(proxy_per_request, frontend.proxy_per_request, ProxyCached, view),
            case!(proxy_per_byte, frontend.proxy_per_byte, ProxyCached, view),
            case!(proxy_cache_probe, frontend.proxy_cache_probe, ProxyCached, view),
            case!(balancer_per_request, frontend.balancer_per_request, WebFarm, view),
        ];
        let base = CostModel::default();
        for &(name, default, price, config, probe) in cases {
            assert!(default > 0.0, "{name}: doubling a zero price moves nothing");
            let mut doubled = base.clone();
            assert_eq!(*price(&mut doubled), default, "{name}: the case reads another field");
            *price(&mut doubled) *= 2.0;
            assert_ne!(
                probe_cpu(config, &doubled, probe),
                probe_cpu(config, &base, probe),
                "{name} moved no CPU micros in {config} ({probe:?})"
            );
        }
        let mut doubled = base.clone();
        doubled.web.max_processes *= 2;
        assert_eq!(web_pool_admits(&base), u64::from(max_processes));
        assert_eq!(web_pool_admits(&doubled), u64::from(2 * max_processes));
    }

    #[test]
    fn embedded_assets_add_web_and_network_load() {
        let (_sim, mut db, mw) = run_config(StandardConfig::PhpColocated);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let prep = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        // Web sent page + thumbnail to the client.
        let sent = prep.trace.bytes_sent(mw.deployment().web_machines()[0]);
        assert!(sent > StaticAsset::thumbnail().bytes);
    }

    #[test]
    fn proxy_relays_both_directions_and_caches_assets_exactly() {
        let (_sim, mut db, mw) = run_config(StandardConfig::ProxyCached);
        let proxy = mw.deployment().front_machine().unwrap();
        let web = mw.deployment().web_machines()[0];
        let client = mw.deployment().client();
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        // Interaction 0 embeds exactly one asset per run; drive 40 runs so
        // the hit counter's Bresenham pattern is exercised across the
        // ratio's period.
        let runs = 40u64;
        for _ in 0..runs {
            let prep = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
            assert!(prep.is_ok());
            assert!(prep.route.is_none(), "a proxy does not balance routes");
            // Every byte to the client leaves from the proxy, never the
            // web machine directly.
            let to_client: u64 = prep
                .trace
                .ops()
                .iter()
                .filter_map(|op| match op {
                    Op::Net { from, to, bytes } if *to == client => Some((*from, *bytes)),
                    _ => None,
                })
                .map(|(from, bytes)| {
                    assert_eq!(from, proxy, "responses must relay through the proxy");
                    bytes
                })
                .sum();
            assert!(to_client > 0);
            assert!(prep.trace.cpu_demand(proxy) > 0);
            assert!(prep.trace.cpu_demand(web) > 0);
        }
        // Exact accounting: cumulative hits == floor(seen * ratio).
        let stats = mw.frontend_stats().unwrap();
        assert_eq!(stats.static_hits + stats.static_misses, runs);
        let expected = (runs as f64 * PROXY_STATIC_HIT_RATIO).floor() as u64;
        assert_eq!(stats.static_hits, expected);
        assert_eq!(stats.routed, vec![runs]);
    }

    #[test]
    fn proxy_cache_hit_keeps_asset_off_the_web_server() {
        // At the preset ratio the first asset misses (floor(1*0.85) = 0)
        // and the second hits (floor(2*0.85) = 1): the miss relays through
        // the web machine, the hit never touches it.
        let (_sim, mut db, mw) = run_config(StandardConfig::ProxyCached);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let web = mw.deployment().web_machines()[0];
        let first = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        let s1 = mw.frontend_stats().unwrap();
        let second = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        let s2 = mw.frontend_stats().unwrap();
        // floor(1*0.85)=0 -> miss; floor(2*0.85)=1 -> hit.
        assert_eq!((s1.static_hits, s1.static_misses), (0, 1));
        assert_eq!((s2.static_hits, s2.static_misses), (1, 1));
        // The miss relayed the asset through the web machine, so the first
        // request's web machine sent more bytes than the second's.
        assert!(first.trace.bytes_sent(web) > second.trace.bytes_sent(web));
    }

    #[test]
    fn balancer_round_robin_routes_deterministically() {
        let (_sim, mut db, mw) = run_config(StandardConfig::WebFarm);
        let webs: Vec<_> = mw.deployment().web_machines().to_vec();
        assert_eq!(webs.len(), 2);
        let client = mw.deployment().client();
        let lb = mw.deployment().front_machine().unwrap();
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        for i in 0..6 {
            let prep = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
            let route = prep.route.expect("balancer assigns a route");
            assert_eq!(route, i % 2, "strict rotation");
            let routed_web = webs[route];
            let other_web = webs[1 - route];
            // All generator CPU lands on the routed web machine; the
            // other machine is untouched.
            assert!(prep.trace.cpu_demand(routed_web) > 0);
            assert_eq!(prep.trace.cpu_demand(other_web), 0);
            // Direct server return: responses leave the routed web for the
            // client without revisiting the balancer.
            assert!(prep.trace.ops().iter().any(|op| matches!(op, Op::Net { from, to, .. }
                    if *from == routed_web && *to == client)));
            assert!(!prep.trace.ops().iter().any(|op| matches!(op, Op::Net { from, to, .. }
                    if *from == routed_web && *to == lb)));
            // The balancer only schedules: tiny CPU, no response bytes.
            assert!(prep.trace.cpu_demand(lb) > 0);
            mw.route_done(prep.route);
        }
        let stats = mw.frontend_stats().unwrap();
        assert_eq!(stats.routed, vec![3, 3]);
    }

    #[test]
    fn least_connections_prefers_the_idle_web_server() {
        let (_sim, mut db, mw) = run_config(StandardConfig::TieredFarm);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        // Three requests with none completing: 0, 1, then tie -> 0.
        let a = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        let b = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        let c = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        assert_eq!((a.route, b.route, c.route), (Some(0), Some(1), Some(0)));
        // Complete the two requests on web 0: the next request goes there.
        mw.route_done(a.route);
        mw.route_done(c.route);
        let d = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
        assert_eq!(d.route, Some(0));
        // Web farm with a dedicated container: the generator is the shared
        // servlet machine on every route.
        let servlet = mw.deployment().servlet_machine().unwrap();
        assert!(d.trace.cpu_demand(servlet) > 0);
    }

    #[test]
    fn front_end_spans_appear_when_tracing() {
        for (config, label) in
            [(StandardConfig::ProxyCached, "proxy-front"), (StandardConfig::WebFarm, "lb-front")]
        {
            let db = toy_db();
            let mut sim = Simulation::new(SimDuration::from_micros(100));
            let mw = Middleware::install_opts(
                &mut sim,
                config,
                &db,
                &ToyApp,
                CostModel::default(),
                InstallOptions { tracing: true, ..InstallOptions::default() },
            );
            let mut db = db;
            let mut session = SessionData::new(0);
            let mut rng = SimRng::new(1);
            let prep = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, false);
            let fe: Vec<_> = prep.spans.iter().filter(|s| s.kind == SpanKind::FrontEnd).collect();
            assert!(!fe.is_empty(), "{config}");
            assert!(fe.iter().any(|s| s.label == label), "{config}: {fe:?}");
        }
    }

    #[test]
    fn captured_html_reflects_database_state() {
        let (_sim, mut db, mw) = run_config(StandardConfig::PhpColocated);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        let prep = mw.run_interaction(&mut db, &ToyApp, 0, &mut session, &mut rng, true);
        assert_eq!(prep.html.as_deref(), Some("<html>qty=100</html>"));
        assert_eq!(session.int("seen"), Some(1));
    }
}
