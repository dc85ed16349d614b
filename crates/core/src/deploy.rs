//! Deployments: the paper's six configurations plus the extensions C1s
//! and C7–C9, and their installation into a simulation.
//!
//! A [`StandardConfig`] preset answers three axes: the front end
//! ([`StandardConfig::front`]), the number of web servers
//! ([`StandardConfig::web_servers`]) and where the logic runs
//! ([`StandardConfig::logic`]). [`Deployment`] is the only code that turns
//! them into a layout: machine ids, lock and semaphore identities, and the
//! server machines faults target. Machines are created in one fixed order,
//! so each preset's layout, and every result that depends on it, is stable.

use crate::app::{AppLockSpec, Application, LogicStyle};
use dynamid_sim::{LockId, MachineId, SemaphoreId, Simulation};
use dynamid_sqldb::Database;
use std::collections::HashMap;
use std::fmt;

/// One reference machine: one 1.33 GHz Athlon core.
pub const MACHINE_CORES: f64 = 1.0;
/// Switched 100 Mb/s Ethernet, as in the paper.
pub const MACHINE_NIC_MBPS: f64 = 100.0;
/// The client farm is "enough machines that clients are never the
/// bottleneck" (§4.4): model it as one very wide machine.
pub const CLIENT_CORES: f64 = 4096.0;
/// Aggregate client-side NIC capacity (never limiting).
pub const CLIENT_NIC_MBPS: f64 = 100_000.0;

/// How a load-balancing front end picks the web server for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Strict rotation over the web servers in machine order.
    RoundRobin,
    /// The web server with the fewest in-flight requests (ties broken by
    /// lowest index), as in LVS `lc` scheduling.
    LeastConnections,
}

/// The machine in front of the web tier, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// Clients talk to the web server directly (C1–C6).
    None,
    /// A reverse proxy relays every request and response and serves
    /// [`PROXY_STATIC_HIT_RATIO`] of static-asset requests from its own
    /// cache.
    ReverseProxy,
    /// A layer-4 load balancer spreads requests over the web farm.
    /// Responses use direct server return: only request bytes cross the
    /// balancer, so its NIC carries a small fraction of the traffic.
    LoadBalancer {
        /// How the balancer picks a web server.
        routing: RoutingPolicy,
    },
}

impl FrontEnd {
    /// Machine name the front end installs under, when present.
    pub fn machine_name(&self) -> Option<&'static str> {
        match self {
            FrontEnd::None => None,
            FrontEnd::ReverseProxy => Some("proxy"),
            FrontEnd::LoadBalancer { .. } => Some("lb"),
        }
    }
}

/// Where the dynamic-content logic runs relative to the web tier: the
/// paper's architectural variable together with the machine it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicPlacement {
    /// PHP: scripts in the web-server process itself. `sync` enables
    /// application-level locking via System V semaphores.
    WebProcess {
        /// Application-level locking replaces SQL `LOCK TABLES`.
        sync: bool,
    },
    /// A servlet container sharing the web server's machine.
    ColocatedContainer {
        /// Container-level locking replaces SQL `LOCK TABLES`.
        sync: bool,
    },
    /// A servlet container on its own machine.
    DedicatedContainer {
        /// Container-level locking replaces SQL `LOCK TABLES`.
        sync: bool,
    },
    /// Servlet presentation plus an EJB server with entity beans, each on
    /// a dedicated machine.
    EntityBeans,
}

impl LogicPlacement {
    /// `true` when the logic runs inside the web-server process (PHP): no
    /// connector crossing, and the native driver's cost profile. Servlet
    /// containers and the EJB server are reached over AJP and use the JDBC
    /// profile.
    pub(crate) fn in_web_process(self) -> bool {
        matches!(self, LogicPlacement::WebProcess { .. })
    }
}

/// Static-cache hit ratio of the C7 reverse-proxy preset. Apache's
/// `mod_proxy` in front of a mostly-static asset set typically serves the
/// vast majority of asset requests from cache.
pub const PROXY_STATIC_HIT_RATIO: f64 = 0.85;

/// The paper's six configurations (Figure 4) plus the sync-PHP extension
/// C1s and the front-ended extensions C7–C9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StandardConfig {
    /// `WsPhp-DB`: PHP module in the web server; DB on its own machine.
    PhpColocated,
    /// `WsServlet-DB`: servlet container co-located with the web server.
    ServletColocated,
    /// `WsServlet-DB(sync)`: co-located, container-level locking.
    ServletColocatedSync,
    /// `Ws-Servlet-DB`: servlet container on a dedicated machine.
    ServletDedicated,
    /// `Ws-Servlet-DB(sync)`: dedicated machine, container-level locking.
    ServletDedicatedSync,
    /// `Ws-Servlet-EJB-DB`: four machines (web, servlet, EJB, DB).
    EjbFourTier,
    /// `WsPhp-DB(sync)` — **extension, not in the paper's six**: PHP with
    /// application-level locking via System V semaphores, the possibility
    /// the paper's §2.2 footnote mentions but declines to evaluate
    /// ("because this feature is not available on all platforms").
    PhpColocatedSync,
    /// `Px-WsPhp-DB` (C7) — **extension**: a reverse proxy with a static
    /// cache in front of the C1 deployment.
    ProxyCached,
    /// `Lb-WsPhp-DB` (C8) — **extension**: a layer-4 load balancer in
    /// front of a two-machine PHP web farm.
    WebFarm,
    /// `Lb-Ws-Servlet-DB` (C9) — **extension**: fully separated tiers — a
    /// balanced two-machine presentation farm, one dedicated business-logic
    /// container, one data machine.
    TieredFarm,
}

impl StandardConfig {
    /// The six configurations the paper evaluates, in figure order (the
    /// [`PhpColocatedSync`](StandardConfig::PhpColocatedSync) extension and
    /// the front-ended C7–C9 extensions are deliberately excluded; the
    /// figures reproduce the paper).
    pub const ALL: [StandardConfig; 6] = [
        StandardConfig::PhpColocated,
        StandardConfig::ServletColocated,
        StandardConfig::ServletColocatedSync,
        StandardConfig::ServletDedicated,
        StandardConfig::ServletDedicatedSync,
        StandardConfig::EjbFourTier,
    ];

    /// The front-ended extension configurations, in code order.
    pub const FRONT_ENDED: [StandardConfig; 3] =
        [StandardConfig::ProxyCached, StandardConfig::WebFarm, StandardConfig::TieredFarm];

    /// Every parseable configuration: the paper's six, the sync-PHP
    /// extension, and the front-ended extensions.
    pub const EXTENDED: [StandardConfig; 10] = [
        StandardConfig::PhpColocated,
        StandardConfig::ServletColocated,
        StandardConfig::ServletColocatedSync,
        StandardConfig::ServletDedicated,
        StandardConfig::ServletDedicatedSync,
        StandardConfig::EjbFourTier,
        StandardConfig::PhpColocatedSync,
        StandardConfig::ProxyCached,
        StandardConfig::WebFarm,
        StandardConfig::TieredFarm,
    ];

    /// The paper-style label for this configuration.
    pub fn paper_name(self) -> &'static str {
        match self {
            StandardConfig::PhpColocated => "WsPhp-DB",
            StandardConfig::ServletColocated => "WsServlet-DB",
            StandardConfig::ServletColocatedSync => "WsServlet-DB(sync)",
            StandardConfig::ServletDedicated => "Ws-Servlet-DB",
            StandardConfig::ServletDedicatedSync => "Ws-Servlet-DB(sync)",
            StandardConfig::EjbFourTier => "Ws-Servlet-EJB-DB",
            StandardConfig::PhpColocatedSync => "WsPhp-DB(sync)",
            StandardConfig::ProxyCached => "Px-WsPhp-DB",
            StandardConfig::WebFarm => "Lb-WsPhp-DB",
            StandardConfig::TieredFarm => "Lb-Ws-Servlet-DB",
        }
    }

    /// The short paper code: `C1`–`C6` in [`ALL`](Self::ALL) order, the
    /// sync-PHP extension is `C1s`, the front-ended extensions are
    /// `C7`–`C9`.
    pub fn code(self) -> &'static str {
        match self {
            StandardConfig::PhpColocated => "C1",
            StandardConfig::ServletColocated => "C2",
            StandardConfig::ServletColocatedSync => "C3",
            StandardConfig::ServletDedicated => "C4",
            StandardConfig::ServletDedicatedSync => "C5",
            StandardConfig::EjbFourTier => "C6",
            StandardConfig::PhpColocatedSync => "C1s",
            StandardConfig::ProxyCached => "C7",
            StandardConfig::WebFarm => "C8",
            StandardConfig::TieredFarm => "C9",
        }
    }

    /// Parses a configuration from its short code (`C1`–`C9`, `C1s`,
    /// case-insensitive) or its exact paper-style label
    /// (`Ws-Servlet-EJB-DB`).
    pub fn parse(key: &str) -> Option<StandardConfig> {
        StandardConfig::EXTENDED
            .iter()
            .copied()
            .find(|c| c.code().eq_ignore_ascii_case(key) || c.paper_name() == key)
    }

    /// The machine in front of the web tier: a reverse proxy for C7, a
    /// load balancer for the farms C8 and C9, none otherwise.
    pub fn front(self) -> FrontEnd {
        use StandardConfig::*;
        match self {
            PhpColocated | ServletColocated | ServletColocatedSync | ServletDedicated
            | ServletDedicatedSync | EjbFourTier | PhpColocatedSync => FrontEnd::None,
            ProxyCached => FrontEnd::ReverseProxy,
            WebFarm => FrontEnd::LoadBalancer { routing: RoutingPolicy::RoundRobin },
            TieredFarm => FrontEnd::LoadBalancer { routing: RoutingPolicy::LeastConnections },
        }
    }

    /// Number of web-server machines: two behind the farms' balancer, one
    /// otherwise.
    pub fn web_servers(self) -> usize {
        use StandardConfig::*;
        match self {
            WebFarm | TieredFarm => 2,
            PhpColocated | ServletColocated | ServletColocatedSync | ServletDedicated
            | ServletDedicatedSync | EjbFourTier | PhpColocatedSync | ProxyCached => 1,
        }
    }

    /// Where the dynamic-content logic runs.
    pub fn logic(self) -> LogicPlacement {
        use LogicPlacement::*;
        use StandardConfig::*;
        match self {
            PhpColocated | ProxyCached | WebFarm => WebProcess { sync: false },
            PhpColocatedSync => WebProcess { sync: true },
            ServletColocated => ColocatedContainer { sync: false },
            ServletColocatedSync => ColocatedContainer { sync: true },
            ServletDedicated | TieredFarm => DedicatedContainer { sync: false },
            ServletDedicatedSync => DedicatedContainer { sync: true },
            EjbFourTier => EntityBeans,
        }
    }

    /// The implementation style handlers run under.
    pub fn logic_style(self) -> LogicStyle {
        match self.logic() {
            LogicPlacement::WebProcess { sync }
            | LogicPlacement::ColocatedContainer { sync }
            | LogicPlacement::DedicatedContainer { sync } => LogicStyle::ExplicitSql { sync },
            LogicPlacement::EntityBeans => LogicStyle::EntityBean,
        }
    }
}

impl fmt::Display for StandardConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.paper_name())
    }
}

/// Optional admission-control limits for one deployment.
///
/// All limits default to `None` (disabled), which reproduces the paper's
/// setup exactly: the web process pool queues arrivals without bound and no
/// connection pool sits in front of the database. Enabling a limit turns the
/// corresponding semaphore into a bounded-queue one: an arrival that finds
/// the queue full is *rejected* (fast failure) instead of waiting, which is
/// the overload-shedding behaviour the resilience layer measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Maximum number of requests allowed to wait for a web-server process.
    /// `None` = unbounded accept queue (paper behaviour).
    pub web_accept_queue: Option<u32>,
    /// Size of the database connection pool. `None` = no pool (every
    /// request reaches the database directly, as in the paper).
    pub db_connections: Option<u32>,
    /// Maximum number of requests allowed to wait for a pooled database
    /// connection. Only meaningful when [`db_connections`] is set; `None` =
    /// wait without bound.
    ///
    /// [`db_connections`]: AdmissionControl::db_connections
    pub db_accept_queue: Option<u32>,
}

impl AdmissionControl {
    /// `true` when every limit is disabled (the paper's configuration).
    pub fn is_disabled(&self) -> bool {
        self.web_accept_queue.is_none() && self.db_connections.is_none()
    }
}

/// One database table as the installer saw it: its lock, and what the
/// entity-bean container needs to activate its rows.
#[derive(Debug)]
pub(crate) struct TableEntry {
    /// The lock that stands for the table's MyISAM table lock.
    pub(crate) lock: LockId,
    /// The table's catalog name.
    pub(crate) name: String,
    /// Column names in schema order (the columns of `SELECT *`).
    pub(crate) columns: Vec<String>,
    /// Position of the primary-key column, when the table has one.
    pub(crate) pk: Option<usize>,
    /// The container's activation statement,
    /// `SELECT * FROM {name} WHERE {pk column} = ?` (empty without a
    /// primary key).
    pub(crate) find_sql: String,
}

/// An installed deployment: machines plus the lock/semaphore identities the
/// request context needs when compiling traces.
#[derive(Debug)]
pub struct Deployment {
    config: StandardConfig,
    client: MachineId,
    /// Every server machine (all but the client farm), in creation order.
    servers: Vec<MachineId>,
    /// Front-end machine (proxy or balancer), when the preset has one.
    front: Option<MachineId>,
    /// Web-server machines in route order.
    webs: Vec<MachineId>,
    /// Dedicated or co-located servlet container machine.
    servlet: Option<MachineId>,
    ejb: Option<MachineId>,
    db: MachineId,
    /// Read-replica machines of the replicated DB tier, in replica-id
    /// order (`db-r1`, `db-r2`, …). Empty unless replication is enabled.
    replicas: Vec<MachineId>,
    /// One entry per database table, indexed by catalog id.
    tables: Vec<TableEntry>,
    app_locks: HashMap<String, Vec<LockId>>,
    /// One process-pool semaphore per web machine, in route order.
    web_pools: Vec<SemaphoreId>,
    db_pool: Option<SemaphoreId>,
}

impl Deployment {
    /// Installs `config` into `sim`: creates the machines, one lock per
    /// database table, the application lock groups, the web-server
    /// process-pool semaphore(s), (when `admission` enables them) the
    /// bounded accept queue and database connection pool, and
    /// `replica_count` read replicas of the database machine. Admission
    /// control, replicas and tracing are chosen through
    /// [`Middleware::install_opts`](crate::middleware::Middleware::install_opts).
    ///
    /// Machine-creation order (which fixes machine ids) is: clients, the
    /// front end (C7–C9 only), the web servers, the dedicated servlet
    /// container, the EJB server, the database, the replicas. The replicas
    /// come after every other machine, so with `replica_count == 0` the
    /// machine ids (and therefore every downstream result) are exactly
    /// those of the single-DB deployment.
    pub(crate) fn install_replicated(
        sim: &mut Simulation,
        config: StandardConfig,
        db: &Database,
        app: &dyn Application,
        web_processes: u32,
        admission: AdmissionControl,
        replica_count: usize,
    ) -> Deployment {
        let client = sim.add_machine("clients", CLIENT_CORES, CLIENT_NIC_MBPS);
        let mut servers = Vec::new();
        let mut server = |sim: &mut Simulation, name: String| {
            let id = sim.add_machine(name, MACHINE_CORES, MACHINE_NIC_MBPS);
            servers.push(id);
            id
        };
        let front = config.front().machine_name().map(|name| server(sim, name.to_string()));
        let webs: Vec<MachineId> = match config.web_servers() {
            1 => vec![server(sim, "web".to_string())],
            n => (1..=n).map(|i| server(sim, format!("web-{i}"))).collect(),
        };
        let servlet = match config.logic() {
            LogicPlacement::WebProcess { .. } => None,
            LogicPlacement::ColocatedContainer { .. } => Some(webs[0]),
            LogicPlacement::DedicatedContainer { .. } | LogicPlacement::EntityBeans => {
                Some(server(sim, "servlet".to_string()))
            }
        };
        let ejb =
            (config.logic() == LogicPlacement::EntityBeans).then(|| server(sim, "ejb".to_string()));
        let db_machine = server(sim, "db".to_string());
        let replicas: Vec<MachineId> =
            (1..=replica_count).map(|i| server(sim, format!("db-r{i}"))).collect();

        let tables: Vec<TableEntry> = db
            .table_names()
            .into_iter()
            .map(|name| {
                let schema = db.table(name).expect("a catalog name names a table").schema();
                let columns: Vec<String> =
                    schema.columns().iter().map(|c| c.name().to_string()).collect();
                let pk = schema.primary_key();
                let find_sql = pk.map_or_else(String::new, |pk| {
                    format!("SELECT * FROM {name} WHERE {} = ?", columns[pk])
                });
                TableEntry {
                    lock: sim.register_lock(format!("table:{name}")),
                    name: name.to_string(),
                    columns,
                    pk,
                    find_sql,
                }
            })
            .collect();
        let mut app_locks = HashMap::new();
        for AppLockSpec { group, stripes } in app.app_locks() {
            let ids: Vec<LockId> =
                (0..stripes).map(|i| sim.register_lock(format!("app:{group}#{i}"))).collect();
            app_locks.insert(group, ids);
        }
        let pool_name = |i: usize| -> String {
            if webs.len() == 1 {
                "web-pool".to_string()
            } else {
                format!("web-pool-{}", i + 1)
            }
        };
        let web_pools: Vec<SemaphoreId> = (0..webs.len())
            .map(|i| match admission.web_accept_queue {
                Some(q) => sim.register_semaphore_bounded(pool_name(i), web_processes, q),
                None => sim.register_semaphore(pool_name(i), web_processes),
            })
            .collect();
        let db_pool = admission.db_connections.map(|cap| match admission.db_accept_queue {
            Some(q) => sim.register_semaphore_bounded("db-pool", cap, q),
            None => sim.register_semaphore("db-pool", cap),
        });

        Deployment {
            config,
            client,
            servers,
            front,
            webs,
            servlet,
            ejb,
            db: db_machine,
            replicas,
            tables,
            app_locks,
            web_pools,
            db_pool,
        }
    }

    /// The configuration installed.
    pub fn config(&self) -> StandardConfig {
        self.config
    }

    /// The client-farm machine.
    pub fn client(&self) -> MachineId {
        self.client
    }

    /// Every server machine (everything but the client farm) in creation
    /// order: front end, web servers, dedicated servlet container, EJB
    /// server, database, replicas. A co-located container shares the web
    /// machine and is listed once. Fault storms target these machines.
    pub fn servers(&self) -> &[MachineId] {
        &self.servers
    }

    /// The front-end machine (reverse proxy or load balancer), when the
    /// preset has one.
    pub fn front_machine(&self) -> Option<MachineId> {
        self.front
    }

    /// The web-server machines, in route order.
    pub fn web_machines(&self) -> &[MachineId] {
        &self.webs
    }

    /// The servlet container's machine (equals the web machine when
    /// co-located; `None` for PHP deployments).
    pub fn servlet_machine(&self) -> Option<MachineId> {
        self.servlet
    }

    /// The EJB server's machine (entity-bean deployments only).
    pub fn ejb_machine(&self) -> Option<MachineId> {
        self.ejb
    }

    /// The (primary) database machine.
    pub fn db_machine(&self) -> MachineId {
        self.db
    }

    /// The machine the dynamic-content generator runs on for a request
    /// routed to web server `route`: the servlet container's machine, or
    /// the routed web machine for in-process logic.
    pub fn generator(&self, route: usize) -> MachineId {
        self.servlet.unwrap_or(self.webs[route])
    }

    /// Read-replica machines of the replicated DB tier, in replica-id
    /// order. Empty unless replication was enabled at install time.
    pub fn replicas(&self) -> &[MachineId] {
        &self.replicas
    }

    /// Lock protecting the database table with catalog id `table`.
    ///
    /// # Panics
    ///
    /// Panics when the table does not exist (tables are registered at
    /// install time from the live catalog).
    pub fn table_lock(&self, table: usize) -> LockId {
        self.tables[table].lock
    }

    /// The install-time entry of the table with catalog id `table`.
    ///
    /// # Panics
    ///
    /// As [`table_lock`](Self::table_lock).
    pub(crate) fn table(&self, table: usize) -> &TableEntry {
        &self.tables[table]
    }

    /// Container-level lock for `group`, striped by `key`.
    ///
    /// # Panics
    ///
    /// Panics when the group was not declared by the application.
    pub fn app_lock(&self, group: &str, key: u64) -> LockId {
        let stripes = self
            .app_locks
            .get(group)
            .unwrap_or_else(|| panic!("undeclared app lock group '{group}'"));
        stripes[(key % stripes.len() as u64) as usize]
    }

    /// The process-pool semaphores, one per web machine in route order.
    pub fn web_pools(&self) -> &[SemaphoreId] {
        &self.web_pools
    }

    /// The process-pool semaphore of the web machine a request was routed
    /// to.
    pub fn web_pool_for(&self, route: usize) -> SemaphoreId {
        self.web_pools[route]
    }

    /// The database connection-pool semaphore, when admission control
    /// enabled one.
    pub fn db_pool(&self) -> Option<SemaphoreId> {
        self.db_pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppResult, InteractionSpec};
    use crate::ctx::RequestCtx;
    use crate::session::SessionData;
    use dynamid_sim::{SimDuration, SimRng};
    use dynamid_sqldb::{ColumnType, TableSchema};

    struct NoApp;
    impl Application for NoApp {
        fn name(&self) -> &str {
            "none"
        }
        fn interactions(&self) -> &[InteractionSpec] {
            &[]
        }
        fn app_locks(&self) -> Vec<AppLockSpec> {
            vec![AppLockSpec::new("items", 4)]
        }
        fn handle(
            &self,
            _id: usize,
            _ctx: &mut RequestCtx<'_>,
            _s: &mut SessionData,
            _r: &mut SimRng,
        ) -> AppResult<()> {
            Ok(())
        }
    }

    fn small_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("items")
                .column("id", ColumnType::Int)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    /// Installs `config` the paper's way: no admission control, no
    /// replicas.
    fn install(sim: &mut Simulation, config: StandardConfig, db: &Database) -> Deployment {
        let admission = AdmissionControl::default();
        Deployment::install_replicated(sim, config, db, &NoApp, 512, admission, 0)
    }

    #[test]
    fn paper_names_match() {
        assert_eq!(StandardConfig::PhpColocated.paper_name(), "WsPhp-DB");
        assert_eq!(StandardConfig::ServletDedicatedSync.to_string(), "Ws-Servlet-DB(sync)");
        assert_eq!(StandardConfig::EjbFourTier.paper_name(), "Ws-Servlet-EJB-DB");
        assert_eq!(StandardConfig::ProxyCached.paper_name(), "Px-WsPhp-DB");
        assert_eq!(StandardConfig::WebFarm.paper_name(), "Lb-WsPhp-DB");
        assert_eq!(StandardConfig::TieredFarm.paper_name(), "Lb-Ws-Servlet-DB");
    }

    #[test]
    fn codes_parse_round_trip() {
        for c in StandardConfig::EXTENDED {
            assert_eq!(StandardConfig::parse(c.code()), Some(c), "{c}");
            assert_eq!(StandardConfig::parse(c.paper_name()), Some(c), "{c}");
        }
        assert_eq!(StandardConfig::parse("c7"), Some(StandardConfig::ProxyCached));
        assert_eq!(StandardConfig::parse("C9"), Some(StandardConfig::TieredFarm));
        assert_eq!(StandardConfig::parse("C99"), None);
        assert_eq!(StandardConfig::parse("C0"), None);
    }

    #[test]
    fn presets_answer_the_three_axes() {
        use LogicPlacement::*;
        use StandardConfig::*;
        let lb = |routing| FrontEnd::LoadBalancer { routing };
        let axes = [
            (PhpColocated, FrontEnd::None, 1, WebProcess { sync: false }),
            (ServletColocated, FrontEnd::None, 1, ColocatedContainer { sync: false }),
            (ServletColocatedSync, FrontEnd::None, 1, ColocatedContainer { sync: true }),
            (ServletDedicated, FrontEnd::None, 1, DedicatedContainer { sync: false }),
            (ServletDedicatedSync, FrontEnd::None, 1, DedicatedContainer { sync: true }),
            (EjbFourTier, FrontEnd::None, 1, EntityBeans),
            (PhpColocatedSync, FrontEnd::None, 1, WebProcess { sync: true }),
            (ProxyCached, FrontEnd::ReverseProxy, 1, WebProcess { sync: false }),
            (WebFarm, lb(RoutingPolicy::RoundRobin), 2, WebProcess { sync: false }),
            (
                TieredFarm,
                lb(RoutingPolicy::LeastConnections),
                2,
                DedicatedContainer { sync: false },
            ),
        ];
        assert_eq!(axes.map(|(config, ..)| config), StandardConfig::EXTENDED);
        for (config, front, webs, logic) in axes {
            let got = (config.front(), config.web_servers(), config.logic());
            assert_eq!(got, (front, webs, logic), "{config}");
        }
        assert!(ServletDedicatedSync.logic_style().is_sync());
        assert_eq!(PhpColocatedSync.logic_style(), LogicStyle::ExplicitSql { sync: true });
        assert_eq!(TieredFarm.logic_style(), LogicStyle::ExplicitSql { sync: false });
        assert_eq!(EjbFourTier.logic_style(), LogicStyle::EntityBean);
    }

    #[test]
    fn install_colocated_shares_machine() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = install(&mut sim, StandardConfig::ServletColocated, &db);
        assert_eq!(d.servlet_machine(), Some(d.web_machines()[0]));
        assert_eq!(d.generator(0), d.web_machines()[0]);
        assert!(d.ejb_machine().is_none());
        assert!(d.front_machine().is_none());
        // client + web + db
        assert_eq!(sim.machine_count(), 3);
    }

    #[test]
    fn install_four_tier_has_four_servers() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = install(&mut sim, StandardConfig::EjbFourTier, &db);
        assert_eq!(sim.machine_count(), 5); // clients + 4 servers
        assert_ne!(d.servlet_machine(), Some(d.web_machines()[0]));
        assert!(d.ejb_machine().is_some());
    }

    #[test]
    fn farm_generator_follows_the_route_for_php() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = install(&mut sim, StandardConfig::WebFarm, &db);
        assert_eq!(d.generator(0), d.web_machines()[0]);
        assert_eq!(d.generator(1), d.web_machines()[1]);
        assert_ne!(d.generator(0), d.generator(1));
        // The tiered farm's generator is the shared container regardless
        // of route.
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let d = install(&mut sim, StandardConfig::TieredFarm, &db);
        assert_eq!(d.generator(0), d.generator(1));
        assert_eq!(Some(d.generator(0)), d.servlet_machine());
    }

    /// Preset-equivalence oracle: the install must produce, for every
    /// configuration of the paper plus C1s, exactly the machine names (in
    /// id order), machine ids, lock registry size, and pool identities the
    /// historical per-config match arms produced. This is what keeps every
    /// golden CSV byte-identical across the API redesign.
    #[test]
    fn presets_install_the_legacy_layout_for_c1_to_c6() {
        use StandardConfig::*;
        for config in StandardConfig::ALL.into_iter().chain([PhpColocatedSync]) {
            let mut sim = Simulation::new(SimDuration::from_micros(100));
            let db = small_db();
            let d = install(&mut sim, config, &db);

            // Machine names in creation (id) order, per the legacy arms.
            let mut expect = vec!["clients", "web"];
            let dedicated = matches!(config, ServletDedicated | ServletDedicatedSync | EjbFourTier);
            if dedicated {
                expect.push("servlet");
            }
            if config == EjbFourTier {
                expect.push("ejb");
            }
            expect.push("db");
            let names: Vec<&str> =
                (0..sim.machine_count() as u32).map(|i| sim.machine_name(MachineId(i))).collect();
            assert_eq!(names, expect, "{config}");

            // The deployment's ids point where the legacy layout put them.
            assert_eq!(d.client(), MachineId(0), "{config}");
            assert_eq!(d.web_machines(), &[MachineId(1)], "{config}");
            let legacy_servlet = match config {
                PhpColocated | PhpColocatedSync => None,
                ServletColocated | ServletColocatedSync => Some(MachineId(1)),
                _ => Some(MachineId(2)),
            };
            assert_eq!(d.servlet_machine(), legacy_servlet, "{config}");
            assert_eq!(
                d.ejb_machine(),
                (config == EjbFourTier).then_some(MachineId(3)),
                "{config}"
            );
            assert_eq!(d.db_machine(), MachineId(sim.machine_count() as u32 - 1), "{config}");
            assert!(d.front_machine().is_none(), "{config}");

            // Lock registry: one table lock + 4 app stripes, ids in the
            // legacy registration order (tables before stripes).
            assert_eq!(sim.lock_count(), 1 + 4, "{config}");
            assert_eq!(d.table_lock(0), LockId(0), "{config}");
            assert_eq!(d.app_lock("items", 0), LockId(1), "{config}");

            // One web pool, registered before any db pool, id 0.
            assert_eq!(d.web_pools(), &[SemaphoreId(0)], "{config}");
            assert_eq!(d.web_pool_for(0), SemaphoreId(0), "{config}");
            assert!(d.db_pool().is_none(), "{config}");
        }
    }

    /// Layout pin for all ten presets, each with 0 and 2 replicas and
    /// with admission control off and at the availability sweep's limits:
    /// machine names in id order, the web machines and their pools, each
    /// route's generator, the front machine, the database pool, every lock
    /// name in id order and the fault-target list (whose order fixes the
    /// order of the compiled crash windows). Every constant was captured
    /// from the installer before `StandardConfig` answered the layout axes
    /// itself; golden CSVs depend on each of them.
    #[test]
    fn every_preset_installs_its_pinned_layout() {
        use StandardConfig::*;
        // (preset, server machine names in id order, fault targets,
        // generator machine per route), all without replicas.
        type Pin = (StandardConfig, &'static [&'static str], &'static [u32], &'static [u32]);
        let pins: [Pin; 10] = [
            (PhpColocated, &["web", "db"], &[1, 2], &[1]),
            (ServletColocated, &["web", "db"], &[1, 2], &[1]),
            (ServletColocatedSync, &["web", "db"], &[1, 2], &[1]),
            (ServletDedicated, &["web", "servlet", "db"], &[1, 2, 3], &[2]),
            (ServletDedicatedSync, &["web", "servlet", "db"], &[1, 2, 3], &[2]),
            (EjbFourTier, &["web", "servlet", "ejb", "db"], &[1, 2, 3, 4], &[2]),
            (PhpColocatedSync, &["web", "db"], &[1, 2], &[1]),
            (ProxyCached, &["proxy", "web", "db"], &[1, 2, 3], &[2]),
            (WebFarm, &["lb", "web-1", "web-2", "db"], &[1, 2, 3, 4], &[2, 3]),
            (TieredFarm, &["lb", "web-1", "web-2", "servlet", "db"], &[1, 2, 3, 4, 5], &[4, 4]),
        ];
        let sweep_limits = AdmissionControl {
            web_accept_queue: Some(128),
            db_connections: Some(48),
            db_accept_queue: Some(64),
        };
        let db = small_db();
        for (config, servers, targets, generators) in pins {
            for replicas in [0, 2] {
                for admission in [AdmissionControl::default(), sweep_limits] {
                    let mut sim = Simulation::new(SimDuration::from_micros(100));
                    let d = Deployment::install_replicated(
                        &mut sim, config, &db, &NoApp, 512, admission, replicas,
                    );
                    let at = format!("{config}, {replicas} replicas, {admission:?}");
                    let n = servers.len() as u32;
                    let ids = |ids: &[u32]| -> Vec<MachineId> {
                        ids.iter().copied().map(MachineId).collect()
                    };
                    let replica_ids: Vec<u32> = (n + 1..=n + replicas as u32).collect();

                    let mut names = vec!["clients"];
                    names.extend_from_slice(servers);
                    names.extend_from_slice(&["db-r1", "db-r2"][..replicas]);
                    let got: Vec<&str> = (0..sim.machine_count() as u32)
                        .map(|i| sim.machine_name(MachineId(i)))
                        .collect();
                    assert_eq!(got, names, "{at}");

                    let all_targets: Vec<u32> =
                        targets.iter().copied().chain(replica_ids.iter().copied()).collect();
                    assert_eq!(d.servers(), ids(&all_targets), "{at}");
                    assert_eq!(d.replicas(), ids(&replica_ids), "{at}");
                    assert_eq!(d.db_machine(), MachineId(n), "{at}");

                    let front = matches!(config, ProxyCached | WebFarm | TieredFarm);
                    assert_eq!(d.front_machine(), front.then_some(MachineId(1)), "{at}");
                    let webs = generators.len();
                    let first_web = 1 + u32::from(front);
                    let web_ids: Vec<u32> = (first_web..first_web + webs as u32).collect();
                    assert_eq!(d.web_machines(), ids(&web_ids), "{at}");
                    let routed: Vec<MachineId> = (0..webs).map(|r| d.generator(r)).collect();
                    assert_eq!(routed, ids(generators), "{at}");

                    let pools: Vec<SemaphoreId> = (0..webs as u32).map(SemaphoreId).collect();
                    assert_eq!(d.web_pools(), pools, "{at}");
                    let by_route: Vec<SemaphoreId> = (0..webs).map(|r| d.web_pool_for(r)).collect();
                    assert_eq!(by_route, pools, "{at}");
                    let pool_names: Vec<&str> =
                        d.web_pools().iter().map(|&s| sim.semaphore_name(s)).collect();
                    let want_pools: &[&str] =
                        if webs == 1 { &["web-pool"] } else { &["web-pool-1", "web-pool-2"] };
                    assert_eq!(pool_names, want_pools, "{at}");
                    let db_pool = admission.db_connections.map(|_| SemaphoreId(webs as u32));
                    assert_eq!(d.db_pool(), db_pool, "{at}");
                    assert_eq!(
                        sim.semaphore_count(),
                        webs + usize::from(db_pool.is_some()),
                        "{at}"
                    );
                    if let Some(pool) = db_pool {
                        assert_eq!(sim.semaphore_name(pool), "db-pool", "{at}");
                    }

                    let locks: Vec<&str> =
                        (0..sim.lock_count() as u32).map(|i| sim.lock_name(LockId(i))).collect();
                    let want_locks =
                        ["table:items", "app:items#0", "app:items#1", "app:items#2", "app:items#3"];
                    assert_eq!(locks, want_locks, "{at}");
                    assert_eq!(d.table_lock(0), LockId(0), "{at}");
                }
            }
        }
    }

    #[test]
    fn locks_registered_per_table_and_group() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = install(&mut sim, StandardConfig::PhpColocated, &db);
        let l = d.table_lock(db.table_index("items").unwrap());
        // Striped app locks map keys deterministically.
        let a = d.app_lock("items", 1);
        let b = d.app_lock("items", 5); // 5 % 4 == 1
        assert_eq!(a, b);
        assert_ne!(d.app_lock("items", 0), d.app_lock("items", 1));
        assert_ne!(l, a);
    }

    #[test]
    #[should_panic(expected = "undeclared app lock group")]
    fn unknown_app_lock_group_panics() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = install(&mut sim, StandardConfig::PhpColocated, &db);
        d.app_lock("nope", 0);
    }

    #[test]
    fn admission_control_defaults_to_disabled() {
        let ac = AdmissionControl::default();
        assert!(ac.is_disabled());
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = install(&mut sim, StandardConfig::PhpColocated, &db);
        assert!(d.db_pool().is_none());
    }

    #[test]
    fn admission_control_installs_bounded_pools() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let ac = AdmissionControl {
            web_accept_queue: Some(16),
            db_connections: Some(8),
            db_accept_queue: Some(4),
        };
        assert!(!ac.is_disabled());
        let d = Deployment::install_replicated(
            &mut sim,
            StandardConfig::PhpColocated,
            &db,
            &NoApp,
            32,
            ac,
            0,
        );
        let pool = d.db_pool().expect("db pool registered");
        assert_ne!(pool, d.web_pools()[0]);
        let stats = sim.semaphore_stats(pool);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn generator_machine_for_php_is_web() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = install(&mut sim, StandardConfig::PhpColocated, &db);
        assert_eq!(d.generator(0), d.web_machines()[0]);
        assert!(d.servlet_machine().is_none());
    }
}
