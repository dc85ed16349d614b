//! The calibrated cost model for every tier, in one place.
//!
//! All constants are CPU microseconds on the paper's reference machine (one
//! 1.33 GHz AMD Athlon core). They were calibrated so the *shapes* of the
//! paper's ten figures reproduce: see EXPERIMENTS.md for the procedure and
//! the sensitivity discussion. The three generator-cost profiles encode the
//! paper's qualitative claims:
//!
//! * **PHP (mod_php)** — no IPC, a native-code database driver, but an
//!   interpreted scripting language: cheap per query, moderate per byte of
//!   generated output.
//! * **Servlets (Tomcat over AJP12)** — compiled (JIT) logic but an
//!   interpreted type-4 JDBC driver and per-request/per-byte AJP
//!   marshalling; the paper attributes the PHP advantage to exactly these
//!   two overheads (§6.1).
//! * **EJB (JOnAS, CMP entity beans)** — everything servlets pay, plus RMI
//!   crossings and per-bean container bookkeeping, plus the flood of short
//!   auto-generated queries modeled by the entity-bean container itself.
//!
//! The connectors are where the three architectures differ: PHP runs inside
//! the Apache process (one interpreter entry, no second side), the servlet
//! engine is a separate JVM reached over AJP12, and the EJB server is
//! reached from the servlets over RMI. §6.1 of the paper measures the AJP12
//! path at ~191 µs per character of dynamic content on their profiling run;
//! the per-byte constants here are calibrated so the *relative* overhead of
//! servlets vs PHP lands where the paper's throughput ratios put it (PHP ≈
//! +33% over co-located servlets on the auction bidding mix).
//!
//! The database is priced from what `dynamid-sqldb`'s executor actually
//! did — rows examined, index probes, rows sorted, bytes marshalled — so a
//! `BestSellers` scan over 10,000 items is organically ~three orders of
//! magnitude dearer than a primary-key point read, the asymmetry that makes
//! the bookstore database-bound in the paper.
//!
//! [`Middleware`](crate::Middleware) and [`RequestCtx`](crate::RequestCtx)
//! read every price from the [`CostModel`] they were installed with, so a
//! model set through `ExperimentSpec::costs` is the one that is charged.

use dynamid_sqldb::QueryCounters;

/// Approximate bytes of HTTP request-line + headers on the wire.
pub const REQUEST_OVERHEAD_BYTES: u64 = 350;
/// Approximate bytes of HTTP status-line + headers on the wire.
pub const RESPONSE_OVERHEAD_BYTES: u64 = 250;

/// The Apache-like web server: its process pool and its per-operation CPU
/// charges, in microseconds.
///
/// Calibrated to an Apache 1.3 on a 1.33 GHz Athlon (the paper's front-end
/// machine): parsing and dispatching a dynamic request costs a few hundred
/// microseconds; shipping response bytes costs per-kilobyte copy time;
/// `mod_ssl` adds per-request overhead on secure interactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebServerCosts {
    /// Process-pool size (`MaxClients`); one request occupies one process
    /// for its full duration. The paper raised this to 512 so the pool is
    /// never the bottleneck.
    pub max_processes: u32,
    /// Accept + parse + route one request.
    pub per_request: f64,
    /// Copy/checksum cost per response byte.
    pub per_response_byte: f64,
    /// Serving a static file: fixed part (open/stat/sendfile setup).
    pub static_per_request: f64,
    /// Serving a static file: per byte.
    pub static_per_byte: f64,
    /// Extra CPU for an SSL request (symmetric crypto on a resumed
    /// session; full handshakes are amortized across a persistent
    /// connection).
    pub ssl_per_request: f64,
}

impl Default for WebServerCosts {
    /// The paper's configuration: Apache 1.3.22, `MaxClients 512`.
    fn default() -> Self {
        WebServerCosts {
            max_processes: 512,
            per_request: 150.0,
            per_response_byte: 0.035,
            static_per_request: 60.0,
            static_per_byte: 0.035,
            ssl_per_request: 900.0,
        }
    }
}

impl WebServerCosts {
    /// CPU microseconds to serve one static asset (excluding network).
    pub fn static_service_micros(&self, asset: StaticAsset) -> u64 {
        (self.static_per_request + self.static_per_byte * asset.bytes as f64).round() as u64
    }
}

/// A static asset fetched as part of an interaction (item thumbnails,
/// navigation buttons, logos); handlers declare them with
/// [`RequestCtx::embed_asset`](crate::RequestCtx::embed_asset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticAsset {
    /// Payload size in bytes.
    pub bytes: u64,
}

impl StaticAsset {
    /// A small navigation button / logo (~2 KB).
    pub fn button() -> Self {
        StaticAsset { bytes: 2_048 }
    }

    /// An item thumbnail (~5 KB, per TPC-W's image population).
    pub fn thumbnail() -> Self {
        StaticAsset { bytes: 5_120 }
    }

    /// A full item image (~25 KB).
    pub fn full_image() -> Self {
        StaticAsset { bytes: 25_600 }
    }
}

/// CPU cost of crossing an out-of-process connector (AJP12 or RMI), charged
/// the same on the sending and on the receiving side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectorCosts {
    /// Per crossing (request or reply), each side.
    pub per_message: f64,
    /// Per payload byte, each side.
    pub per_byte: f64,
}

impl ConnectorCosts {
    /// CPU microseconds one side pays for a crossing with `bytes` of
    /// payload.
    pub fn micros(&self, bytes: u64) -> u64 {
        (self.per_message + self.per_byte * bytes as f64).round() as u64
    }
}

/// CPU costs of one dynamic-content generator tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorCosts {
    /// Fixed dispatch cost per request (interpreter entry / servlet
    /// service() / container routing).
    pub per_request: f64,
    /// Generating one byte of HTML output (template evaluation, string
    /// assembly).
    pub per_output_byte: f64,
    /// Database driver overhead per statement (marshalling parameters,
    /// decoding results), on the generator side.
    pub per_query: f64,
    /// Driver cost per byte of result set decoded.
    pub per_result_byte: f64,
}

/// Extra costs specific to the EJB container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EjbCosts {
    /// One session-façade method invocation (container interception,
    /// transaction demarcation).
    pub per_facade_call: f64,
    /// Activating / reading / writing one entity-bean instance (pool
    /// lookup, state synchronization bookkeeping).
    pub per_bean_access: f64,
    /// Answering a façade invocation from the method cache: key hash and
    /// map probe on the EJB client (servlet) side, skipping the RMI round
    /// trip, container interception, and every CMP access.
    pub per_cache_hit: f64,
}

/// Per-operation database CPU charges, in microseconds, applied to the
/// [`QueryCounters`] each executed statement reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbCostModel {
    /// Fixed cost per statement (parse, dispatch, plan).
    pub per_statement: f64,
    /// Per row visited.
    pub per_row_examined: f64,
    /// Per row placed in the result set.
    pub per_row_returned: f64,
    /// Per result byte marshalled.
    pub per_byte_returned: f64,
    /// Per index probe.
    pub per_index_lookup: f64,
    /// Per row written (includes index maintenance).
    pub per_row_written: f64,
    /// Multiplier for `n * log2(n)` sorting work.
    pub sort_factor: f64,
    /// Flat charge for a read answered from the query cache: key hash and
    /// lookup only — no parse, no lock manager, no row access. Modeled on
    /// the MySQL query cache, which answers before the lock manager is
    /// consulted.
    pub result_cache_hit_micros: f64,
}

impl Default for DbCostModel {
    /// Values calibrated for a ~1.33 GHz single-core database server running
    /// an early-2000s MySQL 3.23/MyISAM: point reads land around 200–300 µs,
    /// full scans cost ~1.5 µs per row, writes ~500 µs.
    fn default() -> Self {
        DbCostModel {
            per_statement: 250.0,
            per_row_examined: 2.0,
            per_row_returned: 5.0,
            per_byte_returned: 0.02,
            per_index_lookup: 6.0,
            per_row_written: 300.0,
            sort_factor: 0.4,
            result_cache_hit_micros: 20.0,
        }
    }
}

impl DbCostModel {
    /// CPU microseconds for a statement with the given counters.
    pub fn cost_micros(&self, c: &QueryCounters) -> u64 {
        let sort = if c.sort_rows > 1 {
            self.sort_factor * c.sort_rows as f64 * (c.sort_rows as f64).log2()
        } else {
            0.0
        };
        let total = self.per_statement
            + self.per_row_examined * c.rows_examined as f64
            + self.per_row_returned * c.rows_returned as f64
            + self.per_byte_returned * c.bytes_returned as f64
            + self.per_index_lookup * c.index_lookups as f64
            + self.per_row_written * c.rows_written as f64
            + sort;
        total.max(1.0).round() as u64
    }
}

/// CPU costs of the optional front-end tier (C7–C9).
///
/// The reverse proxy is an application-level relay: it parses the request,
/// copies every byte of both directions through user space, and probes its
/// static cache per asset. The load balancer is a layer-4 forwarder with
/// direct server return: it touches only the inbound request packets and
/// never sees response bytes, so it has no per-byte term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndCosts {
    /// Reverse proxy: accept + parse + connection handling per relayed
    /// request (dynamic or asset miss).
    pub proxy_per_request: f64,
    /// Reverse proxy: copying one byte through user space (both
    /// directions pay it).
    pub proxy_per_byte: f64,
    /// Reverse proxy: one static-cache lookup (hash + freshness check),
    /// paid on hit and miss alike.
    pub proxy_cache_probe: f64,
    /// Load balancer: scheduling + rewriting one inbound request
    /// (responses bypass it via direct server return).
    pub balancer_per_request: f64,
}

impl Default for FrontEndCosts {
    fn default() -> Self {
        FrontEndCosts {
            proxy_per_request: 150.0,
            proxy_per_byte: 0.012,
            proxy_cache_probe: 25.0,
            balancer_per_request: 40.0,
        }
    }
}

/// The full cost model shared by every deployment in one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Web-server front end.
    pub web: WebServerCosts,
    /// PHP script engine.
    pub php: GeneratorCosts,
    /// Servlet container.
    pub servlet: GeneratorCosts,
    /// Servlet presentation tier when used in front of EJB (same engine).
    pub ejb: EjbCosts,
    /// Database executor.
    pub db: DbCostModel,
    /// Web-server <-> servlet connector (AJP12).
    pub ajp: ConnectorCosts,
    /// Servlet <-> EJB connector (RMI, Java serialization circa JDK 1.3).
    pub rmi: ConnectorCosts,
    /// Entering the PHP module in the web-server process (mod_php): the
    /// whole in-process crossing, charged once per request.
    pub php_invoke: f64,
    /// Optional front-end tier (reverse proxy / load balancer).
    pub frontend: FrontEndCosts,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            web: WebServerCosts::default(),
            php: GeneratorCosts {
                per_request: 600.0,
                per_output_byte: 0.45,
                per_query: 90.0,
                per_result_byte: 0.05,
            },
            servlet: GeneratorCosts {
                per_request: 600.0,
                per_output_byte: 0.62,
                per_query: 150.0,
                per_result_byte: 0.08,
            },
            ejb: EjbCosts { per_facade_call: 480.0, per_bean_access: 200.0, per_cache_hit: 35.0 },
            db: DbCostModel::default(),
            ajp: ConnectorCosts { per_message: 120.0, per_byte: 0.025 },
            rmi: ConnectorCosts { per_message: 360.0, per_byte: 0.20 },
            php_invoke: 150.0,
            frontend: FrontEndCosts::default(),
        }
    }
}

impl CostModel {
    /// Bytes a SQL statement occupies on the wire (text + bound params).
    pub fn query_wire_bytes(sql_len: usize, param_bytes: u64) -> u64 {
        64 + sql_len as u64 + param_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn servlet_driver_dearer_than_php_driver() {
        let m = CostModel::default();
        assert!(m.servlet.per_query > m.php.per_query);
        assert!(m.servlet.per_result_byte > m.php.per_result_byte);
    }

    #[test]
    fn php_output_generation_cheaper_than_servlet() {
        // Paper §6: PHP consumes less CPU per interaction than servlets
        // when co-located; part is the driver, part the AJP copy. Output
        // generation itself is similar; we keep servlet slightly higher for
        // the extra buffering.
        let m = CostModel::default();
        assert!(m.php.per_output_byte <= m.servlet.per_output_byte);
    }

    #[test]
    fn balancer_is_cheaper_than_proxy() {
        // A layer-4 forwarder does far less work per request than an
        // application-level relay, and never touches response bytes.
        let f = FrontEndCosts::default();
        assert!(f.balancer_per_request < f.proxy_per_request);
        assert!(f.proxy_per_byte > 0.0);
        assert!(f.proxy_cache_probe < f.proxy_per_request);
    }

    #[test]
    fn query_wire_bytes_include_overhead() {
        assert!(CostModel::query_wire_bytes(0, 0) > 0);
        assert_eq!(CostModel::query_wire_bytes(100, 50) - CostModel::query_wire_bytes(0, 0), 150);
    }

    #[test]
    fn ajp_scales_with_bytes() {
        let ajp = CostModel::default().ajp;
        assert!(ajp.micros(50_000) > ajp.micros(100) * 5);
    }

    #[test]
    fn rmi_is_heavier_than_ajp() {
        let m = CostModel::default();
        assert!(m.rmi.micros(1_000) > m.ajp.micros(1_000));
    }

    /// E11 (§6.1): moving a page across AJP12, paid on both sides, costs
    /// more than the single in-process PHP module entry at any payload.
    #[test]
    fn php_cheaper_than_ajp_for_any_payload() {
        let m = CostModel::default();
        for bytes in [0u64, 100, 1_000, 100_000] {
            let php = m.php_invoke.round() as u64;
            let ajp = 2 * m.ajp.micros(bytes);
            assert!(php < ajp, "bytes={bytes}");
        }
    }

    #[test]
    fn apache_defaults_to_512_processes() {
        assert_eq!(CostModel::default().web.max_processes, 512);
    }

    #[test]
    fn static_costs_scale_with_size() {
        let web = WebServerCosts::default();
        let small = web.static_service_micros(StaticAsset::button());
        let big = web.static_service_micros(StaticAsset::full_image());
        assert!(big > small);
        assert_eq!(StaticAsset::thumbnail().bytes, 5_120);
    }

    #[test]
    fn static_fixed_cost_dominates_tiny_assets() {
        let web = WebServerCosts::default();
        let cost = web.static_service_micros(StaticAsset { bytes: 1 });
        assert!(cost as f64 >= web.static_per_request);
    }

    #[test]
    fn asset_sizes_are_ordered() {
        assert!(StaticAsset::button().bytes < StaticAsset::thumbnail().bytes);
        assert!(StaticAsset::thumbnail().bytes < StaticAsset::full_image().bytes);
    }

    #[test]
    fn point_read_is_cheap_scan_is_expensive() {
        let m = DbCostModel::default();
        let point = QueryCounters {
            rows_examined: 1,
            rows_returned: 1,
            index_lookups: 1,
            bytes_returned: 100,
            ..Default::default()
        };
        let scan = QueryCounters {
            rows_examined: 10_000,
            rows_returned: 50,
            sort_rows: 10_000,
            bytes_returned: 5_000,
            ..Default::default()
        };
        let cp = m.cost_micros(&point);
        let cs = m.cost_micros(&scan);
        assert!(cp < 500, "point read too dear: {cp}");
        assert!(cs > 20 * cp, "scan not dear enough: {cs} vs {cp}");
    }

    #[test]
    fn write_costs_more_than_point_read() {
        let m = DbCostModel::default();
        let read = QueryCounters {
            rows_examined: 1,
            rows_returned: 1,
            index_lookups: 1,
            ..Default::default()
        };
        let write = QueryCounters {
            rows_examined: 1,
            rows_written: 1,
            index_lookups: 1,
            ..Default::default()
        };
        assert!(m.cost_micros(&write) > m.cost_micros(&read));
    }

    #[test]
    fn cost_is_at_least_one_microsecond() {
        let m = DbCostModel {
            per_statement: 0.0,
            per_row_examined: 0.0,
            per_row_returned: 0.0,
            per_byte_returned: 0.0,
            per_index_lookup: 0.0,
            per_row_written: 0.0,
            sort_factor: 0.0,
            result_cache_hit_micros: 0.0,
        };
        assert_eq!(m.cost_micros(&QueryCounters::default()), 1);
    }

    #[test]
    fn single_sort_row_is_free() {
        let m = DbCostModel::default();
        let one = QueryCounters { sort_rows: 1, ..Default::default() };
        let none = QueryCounters::default();
        assert_eq!(m.cost_micros(&one), m.cost_micros(&none));
    }

    #[test]
    fn statement_cost_scales_with_counters() {
        let m = DbCostModel::default();
        let small = QueryCounters { rows_examined: 1, ..Default::default() };
        let big = QueryCounters { rows_examined: 100_000, ..Default::default() };
        assert!(m.cost_micros(&big) > m.cost_micros(&small) * 100);
    }
}
