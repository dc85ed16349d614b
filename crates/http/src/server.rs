//! The Apache-like web server model: process pool, per-request and
//! per-byte CPU costs, static content service.

/// Per-operation CPU charges for the web server, in microseconds.
///
/// Calibrated to an Apache 1.3 on a 1.33 GHz Athlon (the paper's front-end
/// machine): parsing and dispatching a dynamic request costs a few hundred
/// microseconds; shipping response bytes costs per-kilobyte copy time;
/// `mod_ssl` adds per-request overhead on secure interactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HttpCosts {
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

impl Default for HttpCosts {
    fn default() -> Self {
        HttpCosts {
            per_request: 150.0,
            per_response_byte: 0.035,
            static_per_request: 60.0,
            static_per_byte: 0.035,
            ssl_per_request: 900.0,
        }
    }
}

/// A static asset fetched as part of an interaction (item thumbnails,
/// navigation buttons, logos).
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

/// Configuration of one web-server instance.
///
/// ```
/// use dynamid_http::WebServerSpec;
/// let spec = WebServerSpec::apache_like();
/// assert_eq!(spec.max_processes, 512);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WebServerSpec {
    /// Process-pool size (`MaxClients`); one request occupies one process
    /// for its full duration. The paper raised this to 512 so the pool is
    /// never the bottleneck.
    pub max_processes: u32,
    /// CPU cost parameters.
    pub costs: HttpCosts,
}

impl WebServerSpec {
    /// The paper's configuration: Apache 1.3.22, `MaxClients 512`.
    pub fn apache_like() -> Self {
        WebServerSpec { max_processes: 512, costs: HttpCosts::default() }
    }

    /// CPU microseconds to serve one static asset (excluding network).
    pub fn static_service_micros(&self, asset: StaticAsset) -> u64 {
        (self.costs.static_per_request + self.costs.static_per_byte * asset.bytes as f64).round()
            as u64
    }
}

impl Default for WebServerSpec {
    fn default() -> Self {
        Self::apache_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apache_defaults() {
        let s = WebServerSpec::apache_like();
        assert_eq!(s.max_processes, 512);
        assert_eq!(s, WebServerSpec::default());
    }

    #[test]
    fn static_costs_scale_with_size() {
        let s = WebServerSpec::apache_like();
        let small = s.static_service_micros(StaticAsset::button());
        let big = s.static_service_micros(StaticAsset::full_image());
        assert!(big > small);
        assert_eq!(StaticAsset::thumbnail().bytes, 5_120);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn static_fixed_cost_dominates_tiny_assets() {
        let s = WebServerSpec::apache_like();
        let tiny = StaticAsset { bytes: 1 };
        let cost = s.static_service_micros(tiny);
        assert!(cost as f64 >= s.costs.static_per_request);
    }

    #[test]
    fn asset_sizes_are_ordered() {
        assert!(StaticAsset::button().bytes < StaticAsset::thumbnail().bytes);
        assert!(StaticAsset::thumbnail().bytes < StaticAsset::full_image().bytes);
    }
}
