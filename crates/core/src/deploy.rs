//! Deployment topologies: the paper's six configurations plus the
//! front-ended extensions (C7–C9), described declaratively and installed
//! into a simulation.
//!
//! A [`Topology`] says *what* a deployment looks like — front-end role,
//! web-server count, logic placement — independent of the machine ids and
//! lock/semaphore identities a concrete installation produces. The
//! [`StandardConfig`] enum is now a set of canned presets over this model:
//! [`StandardConfig::topology`] returns the declarative description and
//! [`Deployment::install`] consumes it. The preset path installs a
//! machine/lock/semaphore layout bit-identical to the historical
//! per-config match arms, so every golden result is preserved.

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

/// The dynamic-content architecture a deployment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Scripts in the web-server process (PHP).
    Php,
    /// Out-of-process servlet container; `sync` moves table locking into
    /// the container.
    Servlet {
        /// Container-level locking replaces SQL `LOCK TABLES`.
        sync: bool,
    },
    /// Servlet presentation + EJB session façades + entity beans.
    Ejb,
}

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrontEnd {
    /// Clients talk to the web server directly (C1–C6).
    None,
    /// A reverse proxy relays every request and response and serves a
    /// fraction of static-asset requests from its own cache.
    ReverseProxy {
        /// Fraction of static-asset requests served from the proxy cache
        /// without touching a web server, in `[0, 1]`.
        static_hit_ratio: f64,
    },
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
            FrontEnd::ReverseProxy { .. } => Some("proxy"),
            FrontEnd::LoadBalancer { .. } => Some("lb"),
        }
    }
}

/// Where the dynamic-content logic runs relative to the web tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicPlacement {
    /// In the web-server process itself (PHP). `sync` enables
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

/// A declarative deployment description: what tiers exist and how many
/// machines each gets. Build one with [`TopologyBuilder`] or take a canned
/// preset from [`StandardConfig::topology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    front: FrontEnd,
    web_servers: usize,
    logic: LogicPlacement,
}

impl Topology {
    /// Starts a builder with the C1 shape: no front end, one web server,
    /// PHP in-process logic.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::new()
    }

    /// The front-end role.
    pub fn front(&self) -> FrontEnd {
        self.front
    }

    /// Number of web-server machines.
    pub fn web_servers(&self) -> usize {
        self.web_servers
    }

    /// Where the dynamic-content logic runs.
    pub fn logic(&self) -> LogicPlacement {
        self.logic
    }

    /// The architecture implied by the logic placement.
    pub fn architecture(&self) -> Architecture {
        match self.logic {
            LogicPlacement::WebProcess { .. } => Architecture::Php,
            LogicPlacement::ColocatedContainer { sync }
            | LogicPlacement::DedicatedContainer { sync } => Architecture::Servlet { sync },
            LogicPlacement::EntityBeans => Architecture::Ejb,
        }
    }

    /// The implementation style handlers run under.
    pub fn logic_style(&self) -> LogicStyle {
        match self.logic {
            LogicPlacement::WebProcess { sync }
            | LogicPlacement::ColocatedContainer { sync }
            | LogicPlacement::DedicatedContainer { sync } => LogicStyle::ExplicitSql { sync },
            LogicPlacement::EntityBeans => LogicStyle::EntityBean,
        }
    }

    /// `true` when a front-end machine sits before the web tier.
    pub fn has_front(&self) -> bool {
        !matches!(self.front, FrontEnd::None)
    }

    /// `true` when the servlet container runs on its own machine.
    pub fn has_dedicated_container(&self) -> bool {
        matches!(
            self.logic,
            LogicPlacement::DedicatedContainer { .. } | LogicPlacement::EntityBeans
        )
    }

    /// `true` when an EJB tier exists.
    pub fn has_ejb_tier(&self) -> bool {
        matches!(self.logic, LogicPlacement::EntityBeans)
    }

    /// Number of server machines (everything except the client farm).
    pub fn server_machines(&self) -> usize {
        let front = usize::from(self.has_front());
        let container = usize::from(self.has_dedicated_container());
        let ejb = usize::from(self.has_ejb_tier());
        front + self.web_servers + container + ejb + 1 // + db
    }

    /// ASCII tier diagram, front to back (`lb -> web x2 -> db`).
    pub fn diagram(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(name) = self.front.machine_name() {
            parts.push(name.to_string());
        }
        if self.web_servers == 1 {
            parts.push("web".to_string());
        } else {
            parts.push(format!("web x{}", self.web_servers));
        }
        if self.has_dedicated_container() {
            parts.push("servlet".to_string());
        }
        if self.has_ejb_tier() {
            parts.push("ejb".to_string());
        }
        parts.push("db".to_string());
        parts.join(" -> ")
    }
}

/// Builder for [`Topology`] with shape validation at
/// [`build`](TopologyBuilder::build) time.
///
/// ```
/// use dynamid_core::{FrontEnd, LogicPlacement, RoutingPolicy, Topology};
///
/// let farm = Topology::builder()
///     .front(FrontEnd::LoadBalancer { routing: RoutingPolicy::RoundRobin })
///     .web_servers(2)
///     .logic(LogicPlacement::WebProcess { sync: false })
///     .build()
///     .unwrap();
/// assert_eq!(farm.server_machines(), 4); // lb + 2 web + db
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    front: FrontEnd,
    web_servers: usize,
    logic: LogicPlacement,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// A C1-shaped starting point: no front end, one web server, PHP.
    pub fn new() -> TopologyBuilder {
        TopologyBuilder {
            front: FrontEnd::None,
            web_servers: 1,
            logic: LogicPlacement::WebProcess { sync: false },
        }
    }

    /// Sets the front-end role.
    pub fn front(mut self, front: FrontEnd) -> Self {
        self.front = front;
        self
    }

    /// Sets the number of web-server machines.
    pub fn web_servers(mut self, n: usize) -> Self {
        self.web_servers = n;
        self
    }

    /// Sets the logic placement.
    pub fn logic(mut self, logic: LogicPlacement) -> Self {
        self.logic = logic;
        self
    }

    /// Validates the shape and produces the topology.
    ///
    /// Rejected shapes: zero web servers; more than one web server without
    /// a load balancer to spread requests over them; a colocated container
    /// or entity beans behind a web farm (the container shares or fronts
    /// exactly one web machine); a static-cache hit ratio outside `[0, 1]`.
    pub fn build(self) -> Result<Topology, String> {
        if self.web_servers == 0 {
            return Err("topology needs at least one web server".to_string());
        }
        if self.web_servers > 1 && !matches!(self.front, FrontEnd::LoadBalancer { .. }) {
            return Err(format!(
                "{} web servers need a load-balancer front end to route requests",
                self.web_servers
            ));
        }
        if self.web_servers > 1
            && matches!(
                self.logic,
                LogicPlacement::ColocatedContainer { .. } | LogicPlacement::EntityBeans
            )
        {
            return Err(
                "a web farm requires in-process logic or one dedicated container".to_string()
            );
        }
        if let FrontEnd::ReverseProxy { static_hit_ratio } = self.front {
            if !(0.0..=1.0).contains(&static_hit_ratio) {
                return Err(format!("static_hit_ratio {static_hit_ratio} outside [0, 1]"));
            }
        }
        Ok(Topology { front: self.front, web_servers: self.web_servers, logic: self.logic })
    }
}

/// Static-cache hit ratio of the C7 reverse-proxy preset. Apache's
/// `mod_proxy` in front of a mostly-static asset set typically serves the
/// vast majority of asset requests from cache.
pub const PROXY_STATIC_HIT_RATIO: f64 = 0.85;

/// The paper's six configurations (Figure 4) plus the front-ended
/// extensions C7–C9.
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

    /// The declarative topology this configuration is a preset of.
    pub fn topology(self) -> Topology {
        let b = Topology::builder();
        let b = match self {
            StandardConfig::PhpColocated => b.logic(LogicPlacement::WebProcess { sync: false }),
            StandardConfig::PhpColocatedSync => b.logic(LogicPlacement::WebProcess { sync: true }),
            StandardConfig::ServletColocated => {
                b.logic(LogicPlacement::ColocatedContainer { sync: false })
            }
            StandardConfig::ServletColocatedSync => {
                b.logic(LogicPlacement::ColocatedContainer { sync: true })
            }
            StandardConfig::ServletDedicated => {
                b.logic(LogicPlacement::DedicatedContainer { sync: false })
            }
            StandardConfig::ServletDedicatedSync => {
                b.logic(LogicPlacement::DedicatedContainer { sync: true })
            }
            StandardConfig::EjbFourTier => b.logic(LogicPlacement::EntityBeans),
            StandardConfig::ProxyCached => b
                .front(FrontEnd::ReverseProxy { static_hit_ratio: PROXY_STATIC_HIT_RATIO })
                .logic(LogicPlacement::WebProcess { sync: false }),
            StandardConfig::WebFarm => b
                .front(FrontEnd::LoadBalancer { routing: RoutingPolicy::RoundRobin })
                .web_servers(2)
                .logic(LogicPlacement::WebProcess { sync: false }),
            StandardConfig::TieredFarm => b
                .front(FrontEnd::LoadBalancer { routing: RoutingPolicy::LeastConnections })
                .web_servers(2)
                .logic(LogicPlacement::DedicatedContainer { sync: false }),
        };
        b.build().expect("standard presets are valid topologies")
    }

    /// The architecture this configuration runs.
    pub fn architecture(self) -> Architecture {
        self.topology().architecture()
    }

    /// The implementation style handlers run under.
    pub fn logic_style(self) -> LogicStyle {
        self.topology().logic_style()
    }

    /// Number of server machines (excluding clients).
    pub fn server_machines(self) -> usize {
        self.topology().server_machines()
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

/// An installed deployment: machines plus the lock/semaphore identities the
/// request context needs when compiling traces.
#[derive(Debug)]
pub struct Deployment {
    config: StandardConfig,
    topology: Topology,
    client: MachineId,
    /// Front-end machine (proxy or balancer), when the topology has one.
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
    table_locks: HashMap<String, LockId>,
    app_locks: HashMap<String, Vec<LockId>>,
    /// One process-pool semaphore per web machine, in route order.
    web_pools: Vec<SemaphoreId>,
    db_pool: Option<SemaphoreId>,
}

impl Deployment {
    /// Installs `config` into `sim` with admission control disabled — the
    /// paper's setup. Admission control and tracing are configured through
    /// [`Middleware::install_opts`](crate::middleware::Middleware::install_opts).
    pub fn install(
        sim: &mut Simulation,
        config: StandardConfig,
        db: &Database,
        app: &dyn Application,
        web_processes: u32,
    ) -> Deployment {
        let admission = AdmissionControl::default();
        Self::install_replicated(sim, config, db, app, web_processes, admission, 0)
    }

    /// Installs `config` into `sim`: creates the machines, one lock per
    /// database table, the application lock groups, the web-server
    /// process-pool semaphore(s), (when `admission` enables them) the
    /// bounded accept queue and database connection pool, and
    /// `replica_count` read replicas of the database machine. The replicas
    /// are created *after* every standard machine, so with
    /// `replica_count == 0` the machine ids (and therefore every downstream
    /// result) are exactly those of the single-DB deployment.
    ///
    /// Machine-creation order (which fixes machine ids) is: clients, the
    /// front end (C7–C9 only), the web servers, the dedicated servlet
    /// container, the EJB server, the database, the replicas. For the
    /// front-end-less single-web presets this is exactly the historical
    /// per-config order, so C1–C6 installs are bit-identical to the
    /// pre-topology code path.
    pub(crate) fn install_replicated(
        sim: &mut Simulation,
        config: StandardConfig,
        db: &Database,
        app: &dyn Application,
        web_processes: u32,
        admission: AdmissionControl,
        replica_count: usize,
    ) -> Deployment {
        let topology = config.topology();
        let client = sim.add_machine("clients", CLIENT_CORES, CLIENT_NIC_MBPS);
        let front = topology
            .front()
            .machine_name()
            .map(|name| sim.add_machine(name, MACHINE_CORES, MACHINE_NIC_MBPS));
        let webs: Vec<MachineId> = if topology.web_servers() == 1 {
            vec![sim.add_machine("web", MACHINE_CORES, MACHINE_NIC_MBPS)]
        } else {
            (1..=topology.web_servers())
                .map(|i| sim.add_machine(format!("web-{i}"), MACHINE_CORES, MACHINE_NIC_MBPS))
                .collect()
        };
        let servlet = match topology.logic() {
            LogicPlacement::WebProcess { .. } => None,
            LogicPlacement::ColocatedContainer { .. } => Some(webs[0]),
            LogicPlacement::DedicatedContainer { .. } | LogicPlacement::EntityBeans => {
                Some(sim.add_machine("servlet", MACHINE_CORES, MACHINE_NIC_MBPS))
            }
        };
        let ejb = topology
            .has_ejb_tier()
            .then(|| sim.add_machine("ejb", MACHINE_CORES, MACHINE_NIC_MBPS));
        let db_machine = sim.add_machine("db", MACHINE_CORES, MACHINE_NIC_MBPS);
        let replicas: Vec<MachineId> = (1..=replica_count)
            .map(|i| sim.add_machine(format!("db-r{i}"), MACHINE_CORES, MACHINE_NIC_MBPS))
            .collect();

        let mut table_locks = HashMap::new();
        for name in db.table_names() {
            let id = sim.register_lock(format!("table:{name}"));
            table_locks.insert(name.to_string(), id);
        }
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
            topology,
            client,
            front,
            webs,
            servlet,
            ejb,
            db: db_machine,
            replicas,
            table_locks,
            app_locks,
            web_pools,
            db_pool,
        }
    }

    /// The configuration installed.
    pub fn config(&self) -> StandardConfig {
        self.config
    }

    /// The declarative topology this deployment instantiates.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The client-farm machine.
    pub fn client(&self) -> MachineId {
        self.client
    }

    /// The front-end machine (reverse proxy or load balancer), when the
    /// topology has one.
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

    /// Lock protecting a database table.
    ///
    /// # Panics
    ///
    /// Panics when the table does not exist (tables are registered at
    /// install time from the live catalog).
    pub fn table_lock(&self, table: &str) -> LockId {
        *self.table_locks.get(table).unwrap_or_else(|| panic!("no lock for table '{table}'"))
    }

    /// Whether the table exists in the lock registry.
    pub fn has_table(&self, table: &str) -> bool {
        self.table_locks.contains_key(table)
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

    /// The web-server process-pool semaphore (of the first web machine in
    /// a farm).
    pub fn web_pool(&self) -> SemaphoreId {
        self.web_pools[0]
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
    fn architectures_and_styles() {
        assert_eq!(StandardConfig::PhpColocated.architecture(), Architecture::Php);
        assert_eq!(
            StandardConfig::ServletColocatedSync.architecture(),
            Architecture::Servlet { sync: true }
        );
        assert!(StandardConfig::ServletDedicatedSync.logic_style().is_sync());
        assert_eq!(StandardConfig::EjbFourTier.logic_style(), LogicStyle::EntityBean);
        assert_eq!(StandardConfig::ProxyCached.architecture(), Architecture::Php);
        assert_eq!(StandardConfig::WebFarm.architecture(), Architecture::Php);
        assert_eq!(
            StandardConfig::TieredFarm.architecture(),
            Architecture::Servlet { sync: false }
        );
    }

    #[test]
    fn machine_counts() {
        assert_eq!(StandardConfig::PhpColocated.server_machines(), 2);
        assert_eq!(StandardConfig::ServletDedicated.server_machines(), 3);
        assert_eq!(StandardConfig::EjbFourTier.server_machines(), 4);
        assert_eq!(StandardConfig::ProxyCached.server_machines(), 3);
        assert_eq!(StandardConfig::WebFarm.server_machines(), 4);
        assert_eq!(StandardConfig::TieredFarm.server_machines(), 5);
        assert!(!StandardConfig::ServletColocated.topology().has_dedicated_container());
        assert!(StandardConfig::ServletDedicated.topology().has_dedicated_container());
    }

    #[test]
    fn topology_presets_describe_the_paper_shapes() {
        let c1 = StandardConfig::PhpColocated.topology();
        assert_eq!(c1.front(), FrontEnd::None);
        assert_eq!(c1.web_servers(), 1);
        assert_eq!(c1.logic(), LogicPlacement::WebProcess { sync: false });
        assert_eq!(c1.diagram(), "web -> db");

        let c6 = StandardConfig::EjbFourTier.topology();
        assert!(c6.has_ejb_tier() && c6.has_dedicated_container());
        assert_eq!(c6.diagram(), "web -> servlet -> ejb -> db");

        let c7 = StandardConfig::ProxyCached.topology();
        assert_eq!(c7.front(), FrontEnd::ReverseProxy { static_hit_ratio: PROXY_STATIC_HIT_RATIO });
        assert_eq!(c7.diagram(), "proxy -> web -> db");

        let c8 = StandardConfig::WebFarm.topology();
        assert_eq!(c8.front(), FrontEnd::LoadBalancer { routing: RoutingPolicy::RoundRobin });
        assert_eq!(c8.web_servers(), 2);
        assert_eq!(c8.diagram(), "lb -> web x2 -> db");

        let c9 = StandardConfig::TieredFarm.topology();
        assert_eq!(c9.front(), FrontEnd::LoadBalancer { routing: RoutingPolicy::LeastConnections });
        assert_eq!(c9.diagram(), "lb -> web x2 -> servlet -> db");
    }

    #[test]
    fn builder_rejects_invalid_shapes() {
        assert!(Topology::builder().web_servers(0).build().is_err());
        // A farm without a balancer has no way to route requests.
        assert!(Topology::builder().web_servers(2).build().is_err());
        assert!(Topology::builder()
            .web_servers(3)
            .front(FrontEnd::ReverseProxy { static_hit_ratio: 0.5 })
            .build()
            .is_err());
        // A colocated container or entity beans cannot sit behind a farm.
        assert!(Topology::builder()
            .front(FrontEnd::LoadBalancer { routing: RoutingPolicy::RoundRobin })
            .web_servers(2)
            .logic(LogicPlacement::ColocatedContainer { sync: false })
            .build()
            .is_err());
        assert!(Topology::builder()
            .front(FrontEnd::LoadBalancer { routing: RoutingPolicy::RoundRobin })
            .web_servers(2)
            .logic(LogicPlacement::EntityBeans)
            .build()
            .is_err());
        // Hit ratio outside [0, 1].
        assert!(Topology::builder()
            .front(FrontEnd::ReverseProxy { static_hit_ratio: 1.5 })
            .build()
            .is_err());
        // The valid farm shapes build.
        assert!(Topology::builder()
            .front(FrontEnd::LoadBalancer { routing: RoutingPolicy::LeastConnections })
            .web_servers(4)
            .logic(LogicPlacement::DedicatedContainer { sync: true })
            .build()
            .is_ok());
    }

    #[test]
    fn install_colocated_shares_machine() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = Deployment::install(&mut sim, StandardConfig::ServletColocated, &db, &NoApp, 512);
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
        let d = Deployment::install(&mut sim, StandardConfig::EjbFourTier, &db, &NoApp, 512);
        assert_eq!(sim.machine_count(), 5); // clients + 4 servers
        assert_ne!(d.servlet_machine(), Some(d.web_machines()[0]));
        assert!(d.ejb_machine().is_some());
    }

    #[test]
    fn install_front_ended_configs() {
        for (config, machines, webs, pools) in [
            (StandardConfig::ProxyCached, 4, 1, 1), // clients + proxy + web + db
            (StandardConfig::WebFarm, 5, 2, 2),     // clients + lb + 2 web + db
            (StandardConfig::TieredFarm, 6, 2, 2),  // … + servlet
        ] {
            let mut sim = Simulation::new(SimDuration::from_micros(100));
            let db = small_db();
            let d = Deployment::install(&mut sim, config, &db, &NoApp, 512);
            assert_eq!(sim.machine_count(), machines, "{config}");
            assert!(d.front_machine().is_some(), "{config}");
            assert_eq!(d.web_machines().len(), webs, "{config}");
            assert_eq!(d.web_pools().len(), pools, "{config}");
            // Every web machine has a distinct pool and generator route.
            for r in 0..webs {
                assert_eq!(d.web_pool_for(r), d.web_pools()[r], "{config}");
            }
        }
    }

    #[test]
    fn farm_generator_follows_the_route_for_php() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = Deployment::install(&mut sim, StandardConfig::WebFarm, &db, &NoApp, 512);
        assert_eq!(d.generator(0), d.web_machines()[0]);
        assert_eq!(d.generator(1), d.web_machines()[1]);
        assert_ne!(d.generator(0), d.generator(1));
        // The tiered farm's generator is the shared container regardless
        // of route.
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let d = Deployment::install(&mut sim, StandardConfig::TieredFarm, &db, &NoApp, 512);
        assert_eq!(d.generator(0), d.generator(1));
        assert_eq!(Some(d.generator(0)), d.servlet_machine());
    }

    /// Preset-equivalence oracle: the topology-driven install must produce,
    /// for every pre-existing configuration, exactly the machine names (in
    /// id order), machine ids, lock registry size, and pool identities the
    /// historical per-config match arms produced. This is what keeps every
    /// golden CSV byte-identical across the API redesign.
    #[test]
    fn presets_install_the_legacy_layout_for_c1_to_c6() {
        use StandardConfig::*;
        for config in StandardConfig::ALL.into_iter().chain([PhpColocatedSync]) {
            let mut sim = Simulation::new(SimDuration::from_micros(100));
            let db = small_db();
            let d = Deployment::install(&mut sim, config, &db, &NoApp, 512);

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
            assert_eq!(d.table_lock("items"), LockId(0), "{config}");
            assert_eq!(d.app_lock("items", 0), LockId(1), "{config}");

            // One web pool, registered before any db pool, id 0.
            assert_eq!(d.web_pools(), &[SemaphoreId(0)], "{config}");
            assert_eq!(d.web_pool(), SemaphoreId(0), "{config}");
            assert!(d.db_pool().is_none(), "{config}");
        }
    }

    #[test]
    fn locks_registered_per_table_and_group() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = Deployment::install(&mut sim, StandardConfig::PhpColocated, &db, &NoApp, 512);
        let l = d.table_lock("items");
        assert!(d.has_table("items"));
        assert!(!d.has_table("users"));
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
        let d = Deployment::install(&mut sim, StandardConfig::PhpColocated, &db, &NoApp, 512);
        d.app_lock("nope", 0);
    }

    #[test]
    fn admission_control_defaults_to_disabled() {
        let ac = AdmissionControl::default();
        assert!(ac.is_disabled());
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = Deployment::install(&mut sim, StandardConfig::PhpColocated, &db, &NoApp, 512);
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
        assert_ne!(pool, d.web_pool());
        let stats = sim.semaphore_stats(pool);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn generator_machine_for_php_is_web() {
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let db = small_db();
        let d = Deployment::install(&mut sim, StandardConfig::PhpColocated, &db, &NoApp, 512);
        assert_eq!(d.generator(0), d.web_machines()[0]);
        assert!(d.servlet_machine().is_none());
    }
}
