//! The modeled hops. The architectures differ only in which hops a request
//! crosses and what each crossing costs (§5–6 of the paper), so each hop
//! is compiled here by one emitter, which also records the hop's span:
//!
//! * the front-end pair, `front_in` and `front_out`: client → web server
//!   and back, directly or through a reverse proxy or a load balancer, for
//!   the page and for every embedded asset;
//! * the connector crossing, `cross`: AJP12 between the web server and the
//!   servlet container, RMI between the servlets and the EJB server;
//! * the statement round trip, `round_trip`: the current tier to the
//!   database machine and back.
//!
//! Every price is read from the installed [`CostModel`](crate::CostModel).

use crate::cost::ConnectorCosts;
use crate::ctx::RequestCtx;
use crate::deploy::FrontEnd;
use dynamid_sim::{MachineId, Op};
use dynamid_sqldb::QueryCounters;
use dynamid_trace::SpanKind;

impl RequestCtx<'_> {
    /// The inbound front-end hop: client → web server, or client → proxy or
    /// balancer → web server. The proxy relays through user space for
    /// `proxy_relay` CPU micros, which a page and an asset miss price
    /// differently; the balancer only schedules. A `page` records the relay
    /// in a `FrontEnd` span; an asset's stays inside the `assets` span.
    pub(crate) fn front_in(&mut self, web: MachineId, bytes: u64, proxy_relay: f64, page: bool) {
        let relay = match self.deployment.config().front() {
            FrontEnd::None => None,
            FrontEnd::ReverseProxy => Some((proxy_relay, "proxy-front")),
            FrontEnd::LoadBalancer { .. } => {
                Some((self.costs.frontend.balancer_per_request, "lb-front"))
            }
        };
        self.front_leg(self.deployment.client(), web, bytes, relay, page);
    }

    /// The outbound front-end hop: web server → client, or web server →
    /// proxy → client with the proxy copying every byte. A balancer's
    /// responses return directly (direct server return). `page` as in
    /// [`front_in`](Self::front_in).
    pub(crate) fn front_out(&mut self, web: MachineId, bytes: u64, page: bool) {
        let relay = match self.deployment.config().front() {
            FrontEnd::None | FrontEnd::LoadBalancer { .. } => None,
            FrontEnd::ReverseProxy => {
                Some((self.costs.frontend.proxy_per_byte * bytes as f64, "proxy-relay"))
            }
        };
        self.front_leg(web, self.deployment.client(), bytes, relay, page);
    }

    /// One leg of the front-end pair: `from` → `to` directly, or through
    /// the front machine, which spends the relay's CPU micros between its
    /// receive and its send, inside the relay's span when `spanned`.
    fn front_leg(
        &mut self,
        from: MachineId,
        to: MachineId,
        bytes: u64,
        relay: Option<(f64, &str)>,
        spanned: bool,
    ) {
        let Some((micros, label)) = relay else {
            self.push(Op::Net { from, to, bytes });
            return;
        };
        let front = self.deployment.front_machine().expect("front-ended deployment");
        self.push(Op::Net { from, to: front, bytes });
        if spanned {
            self.span_open(SpanKind::FrontEnd, label);
        }
        self.push(Op::Cpu { machine: front, micros: micros.round() as u64 });
        self.push(Op::Net { from: front, to, bytes });
        if spanned {
            self.span_close();
        }
    }

    /// One out-of-process connector crossing with `bytes` of payload:
    /// marshalling CPU on `from`, the transfer, unmarshalling CPU on `to`,
    /// all priced by `connector`. Co-located ends make the transfer
    /// loopback, which is free; the CPU on both sides models the local
    /// IPC. A `span` label records the crossing in an `IpcHop` span; an RMI
    /// crossing has none, its façade's span covering it.
    pub(crate) fn cross(
        &mut self,
        connector: ConnectorCosts,
        from: MachineId,
        to: MachineId,
        bytes: u64,
        span: Option<&str>,
    ) {
        if let Some(label) = span {
            self.span_open(SpanKind::IpcHop, label);
        }
        self.push(Op::Cpu { machine: from, micros: connector.micros(bytes) });
        self.push(Op::Net { from, to, bytes });
        self.push(Op::Cpu { machine: to, micros: connector.micros(bytes) });
        if span.is_some() {
            self.span_close();
        }
    }

    /// One SQL statement's round trip from the current tier to the
    /// database machine: driver CPU, the `req_bytes` request, the `lock`
    /// ops, the database's `cost` micros, the `unlock` ops, the reply and,
    /// when the statement returned a `result` set, the driver's decode
    /// CPU. Charges `cost` and the result's rows to the request's counters.
    pub(crate) fn round_trip(
        &mut self,
        req_bytes: u64,
        lock: impl IntoIterator<Item = Op>,
        cost: u64,
        unlock: impl IntoIterator<Item = Op>,
        result: Option<&QueryCounters>,
    ) {
        let gen = self.current_machine();
        let db = self.db_machine;
        let driver = *self.gen_costs();
        self.stats.db_micros += cost;
        self.push(Op::Cpu { machine: gen, micros: driver.per_query.round() as u64 });
        self.push(Op::Net { from: gen, to: db, bytes: req_bytes });
        lock.into_iter().for_each(|op| self.push(op));
        self.push(Op::Cpu { machine: db, micros: cost });
        unlock.into_iter().for_each(|op| self.push(op));
        let reply = 64 + result.map_or(0, |c| c.bytes_returned);
        self.push(Op::Net { from: db, to: gen, bytes: reply });
        if let Some(c) = result {
            self.stats.rows_returned += c.rows_returned;
            let decode = (driver.per_result_byte * reply as f64).round() as u64;
            if decode > 0 {
                self.push(Op::Cpu { machine: gen, micros: decode });
            }
        }
    }
}
