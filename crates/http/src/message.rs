//! HTTP messages on the wire.
//!
//! The middleware tiers produce [`Response`]s whose body size drives NIC
//! and per-byte CPU charges; requests are charged a fixed
//! [`REQUEST_OVERHEAD_BYTES`].

/// Approximate bytes of HTTP request-line + headers on the wire.
pub const REQUEST_OVERHEAD_BYTES: u64 = 350;
/// Approximate bytes of HTTP status-line + headers on the wire.
pub const RESPONSE_OVERHEAD_BYTES: u64 = 250;

/// HTTP response status (only what the benchmarks produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Status {
    /// 200.
    #[default]
    Ok,
    /// 4xx — e.g. failed authentication in the auction site.
    ClientError,
    /// 5xx — an application or database error.
    ServerError,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::ClientError => 400,
            Status::ServerError => 500,
        }
    }
}

/// An HTTP response produced by a middleware tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    status: Status,
    body_bytes: u64,
}

impl Response {
    /// Creates a response carrying `body_bytes` of generated content.
    pub fn new(status: Status, body_bytes: u64) -> Self {
        Response { status, body_bytes }
    }

    /// An empty 200.
    pub fn ok() -> Self {
        Response::new(Status::Ok, 0)
    }

    /// The status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Generated body size in bytes.
    pub fn body_bytes(&self) -> u64 {
        self.body_bytes
    }
}

impl Default for Response {
    fn default() -> Self {
        Response::ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::ClientError.code(), 400);
        assert_eq!(Status::ServerError.code(), 500);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn response_default_is_empty_ok() {
        let r = Response::default();
        assert_eq!(r.status(), Status::Ok);
        assert_eq!(r.body_bytes(), 0);
    }
}
