//! # dynamid-trace — span-level tracing and bottleneck attribution
//!
//! The paper's central explanatory device (Figures 12/14, §5–6) is *where
//! the time goes*: which tier's CPU saturates under each of the six
//! middleware configurations. This crate turns every simulated interaction
//! into an attributable span tree — web serve → IPC hop → servlet/EJB
//! invoke → per-statement database work, with lock/queue waits attached —
//! and aggregates a whole run into a [`BottleneckReport`] whose per-tier
//! CPU-share table can be cross-checked against the processor-sharing
//! counters the figures are derived from.
//!
//! Two layers cooperate:
//!
//! * the middleware records **spans** over op-index ranges of each request's
//!   trace while it assembles the trace ([`SpanRecorder`], [`SpanDef`]) —
//!   no timestamps exist yet at that point;
//! * the simulation records **op intervals** with sim-timestamps as the
//!   trace executes (`dynamid_sim::TraceRecorder`). The capture keeps the
//!   engine's columnar [`IntervalColumns`] as they were drained, plus the
//!   engine's lock and semaphore name tables, so a wait interval's
//!   [`Activity`] names its lock by id and every name is stored once. The
//!   renderers and the bottleneck aggregator below scan those column
//!   buffers directly.
//!
//! Joining the two on (job, op index) yields wall-clock span trees
//! ([`TraceCapture`]) that can be exported as Chrome-trace JSON
//! ([`chrome_trace_json`], viewable in `chrome://tracing` or Perfetto) or
//! folded into a [`BottleneckReport`].
//!
//! Determinism: every structure here is populated in engine event order and
//! every renderer iterates in a fixed order (machines by id, spans in open
//! order, waits by name), so for a fixed seed the JSON and CSV outputs are
//! byte-identical regardless of worker-thread count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dynamid_sim::{Activity, IntervalColumns, LatencyHistogram, LockId, SemaphoreId, SimDuration};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The span taxonomy: one variant per architectural stage the middleware
/// distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// The whole interaction, client NIC to client NIC.
    Request,
    /// The front-end tier's work on a request (C7–C9 only): reverse-proxy
    /// relay and cache probes (label `proxy-front`) or load-balancer
    /// scheduling (label `lb-front`).
    FrontEnd,
    /// Web-server stage: process-pool admission, HTTP parse, SSL, connector
    /// send.
    WebServe,
    /// The IPC/AJP hop from the web server to a dedicated generator tier.
    IpcHop,
    /// Generator-side dispatch and handler execution (servlet or EJB
    /// client code), including DB-pool admission.
    Invoke,
    /// One session-facade RMI round trip into the EJB container.
    FacadeCall,
    /// One container-managed-persistence entity operation (find, create,
    /// remove, flush-per-bean).
    CmpAccess,
    /// One SQL statement: generator marshalling, table locks, database
    /// execution, reply.
    SqlStatement,
    /// Embedded static assets fetched after the generated page.
    StaticAssets,
    /// Response rendering and delivery back through the web tier.
    Response,
    /// A result- or method-cache hit replacing the stage it short-circuits
    /// (the SQL execution chain or the facade/CMP chain). Only emitted when
    /// the caching tier is enabled and hits.
    Cache,
    /// One committed write-set shipped from the primary to a read replica:
    /// the replication-lag NIC/delay leg plus the replica-side apply. Only
    /// emitted when the replicated DB tier is enabled.
    ReplicaShip,
    /// A primary-failover election: the promotion decision after the lease
    /// expired, annotated with the winning replica and its applied LSN.
    /// Only emitted when the replicated DB tier is enabled.
    Election,
}

impl SpanKind {
    /// Stable lower-case name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::FrontEnd => "front-end",
            SpanKind::WebServe => "web-serve",
            SpanKind::IpcHop => "ipc-hop",
            SpanKind::Invoke => "invoke",
            SpanKind::FacadeCall => "facade-call",
            SpanKind::CmpAccess => "cmp-access",
            SpanKind::SqlStatement => "sql-statement",
            SpanKind::StaticAssets => "static-assets",
            SpanKind::Response => "response",
            SpanKind::Cache => "cache",
            SpanKind::ReplicaShip => "replica-ship",
            SpanKind::Election => "election",
        }
    }
}

/// One span over a half-open op-index range `[start_op, end_op)` of a
/// request's trace. Spans form a tree via `parent` (an index into the same
/// span list; parents always precede children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDef {
    /// Which architectural stage this span covers.
    pub kind: SpanKind,
    /// Human-readable label (interaction name, statement kind, bean op).
    pub label: String,
    /// First op index covered.
    pub start_op: usize,
    /// One past the last op index covered.
    pub end_op: usize,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// For SQL statements: whether the plan cache served the statement.
    pub cache_hit: Option<bool>,
    /// For SQL statements: the modeled query cost in microseconds.
    pub cost_micros: Option<u64>,
}

/// Builds a span tree with strict stack discipline while a request trace is
/// being assembled: `open` pushes, `close` pops and seals the op range.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<SpanDef>,
    stack: Vec<usize>,
}

impl SpanRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span starting at op index `at_op`, nested under the span
    /// currently on top of the stack. Returns its index for
    /// [`annotate`](Self::annotate).
    pub fn open(&mut self, kind: SpanKind, label: impl Into<String>, at_op: usize) -> usize {
        let parent = self.stack.last().copied();
        let idx = self.spans.len();
        self.spans.push(SpanDef {
            kind,
            label: label.into(),
            start_op: at_op,
            end_op: at_op,
            parent,
            cache_hit: None,
            cost_micros: None,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost open span at op index `at_op`.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn close(&mut self, at_op: usize) {
        let idx = self.stack.pop().expect("close with no open span");
        self.spans[idx].end_op = at_op;
    }

    /// Attaches plan-cache and cost annotations to span `idx`.
    pub fn annotate(&mut self, idx: usize, cache_hit: Option<bool>, cost_micros: Option<u64>) {
        let s = &mut self.spans[idx];
        if cache_hit.is_some() {
            s.cache_hit = cache_hit;
        }
        if cost_micros.is_some() {
            s.cost_micros = cost_micros;
        }
    }

    /// Finishes recording and returns the span tree.
    ///
    /// # Panics
    ///
    /// Panics if any span is still open: every `open` must have a matching
    /// `close` before the request is submitted.
    pub fn finish(self) -> Vec<SpanDef> {
        assert!(self.stack.is_empty(), "{} spans left open", self.stack.len());
        self.spans
    }
}

/// One completed request: identity, timing, and its span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Engine job id (joins against [`IntervalColumns::job`]).
    pub job: u64,
    /// Emulated-client index that issued the request.
    pub client: u64,
    /// Interaction index (into [`TraceCapture::interactions`]).
    pub interaction: usize,
    /// Submission time, sim microseconds.
    pub submitted_us: u64,
    /// Completion time, sim microseconds.
    pub completed_us: u64,
    /// The span tree recorded while the trace was assembled.
    pub spans: Vec<SpanDef>,
}

/// A full traced run: machine/interaction/lock/semaphore name tables, the
/// measurement window, every completed request, and every timed op
/// interval.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceCapture {
    /// Machine names, indexed by machine id.
    pub machines: Vec<String>,
    /// Interaction names, indexed by interaction id.
    pub interactions: Vec<String>,
    /// Lock names (e.g. `table:items`), indexed by [`LockId`].
    pub lock_names: Vec<String>,
    /// Semaphore names (e.g. `web-pool`), indexed by [`SemaphoreId`].
    pub semaphore_names: Vec<String>,
    /// Measurement-window start, sim microseconds.
    pub window_start_us: u64,
    /// Measurement-window end, sim microseconds.
    pub window_end_us: u64,
    /// Completed requests, in completion order.
    pub jobs: Vec<JobRecord>,
    /// Timed intervals as the engine recorded them, in engine end order.
    pub intervals: IntervalColumns,
}

impl TraceCapture {
    /// Wall-clock `(start_us, end_us)` for each span of `job`, derived by
    /// joining the span's op range against the job's interval rows (indices
    /// into [`TraceCapture::intervals`]). The root span is pinned to
    /// `[submitted, completed]`; a span whose ops all recorded nothing
    /// (immediate grants, loopback transfers) collapses to a zero-length
    /// span at its parent's start.
    pub fn span_times(&self, job: &JobRecord, rows: &[u32]) -> Vec<(u64, u64)> {
        let tab = &self.intervals;
        let mut times: Vec<Option<(u64, u64)>> = vec![None; job.spans.len()];
        for (i, s) in job.spans.iter().enumerate() {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for &r in rows {
                let r = r as usize;
                let op = tab.op_index[r] as usize;
                if op >= s.start_op && op < s.end_op {
                    lo = lo.min(tab.start[r].as_micros());
                    hi = hi.max(tab.end[r].as_micros());
                }
            }
            if lo <= hi && lo != u64::MAX {
                times[i] = Some((lo, hi));
            }
        }
        job.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if s.parent.is_none() {
                    return (job.submitted_us, job.completed_us);
                }
                times[i].unwrap_or_else(|| {
                    let p = s.parent.expect("non-root span");
                    let (ps, _) = times[p].unwrap_or((job.submitted_us, job.completed_us));
                    (ps, ps)
                })
            })
            .collect()
    }

    /// Groups interval row indices by job id (jobs in id order, rows in end
    /// order).
    fn intervals_by_job(&self) -> BTreeMap<u64, Vec<u32>> {
        let mut by_job: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (r, job) in self.intervals.job.iter().enumerate() {
            by_job.entry(job.0).or_default().push(r as u32);
        }
        by_job
    }

    /// The registered name of a lock.
    fn lock_name(&self, lock: LockId) -> &str {
        &self.lock_names[lock.0 as usize]
    }

    /// The registered name of a semaphore.
    fn semaphore_name(&self, sem: SemaphoreId) -> &str {
        &self.semaphore_names[sem.0 as usize]
    }

    /// Length of row `r` of the intervals, sim microseconds.
    fn interval_us(&self, r: usize) -> u64 {
        (self.intervals.end[r] - self.intervals.start[r]).as_micros()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a capture as Chrome-trace-format JSON (the `traceEvents` array
/// form), viewable in `chrome://tracing` or Perfetto.
///
/// Layout: pid 1 (`requests`) holds one track per emulated client with the
/// span tree and lock/semaphore waits of every request that client issued;
/// pid 2 (`machines`) holds one track per machine with its CPU service and
/// outbound-transfer intervals. All timestamps are integer sim-microseconds,
/// and events are emitted in a fixed order, so the output is byte-stable.
pub fn chrome_trace_json(cap: &TraceCapture) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    push(
        &mut out,
        &mut first,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"requests\"}}"
            .to_string(),
    );
    push(
        &mut out,
        &mut first,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
         \"args\":{\"name\":\"machines\"}}"
            .to_string(),
    );
    for (id, name) in cap.machines.iter().enumerate() {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{id},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ),
        );
    }
    let tab = &cap.intervals;
    let by_job = cap.intervals_by_job();
    let empty: Vec<u32> = Vec::new();
    for job in &cap.jobs {
        let rows = by_job.get(&job.job).unwrap_or(&empty);
        let times = cap.span_times(job, rows);
        let interaction = cap.interactions.get(job.interaction).map(String::as_str).unwrap_or("?");
        for (s, (start, end)) in job.spans.iter().zip(&times) {
            let mut args =
                format!("\"job\":{},\"interaction\":\"{}\"", job.job, json_escape(interaction));
            if let Some(hit) = s.cache_hit {
                let _ = write!(args, ",\"plan_cache\":\"{}\"", if hit { "hit" } else { "miss" });
            }
            if let Some(cost) = s.cost_micros {
                let _ = write!(args, ",\"cost_us\":{cost}");
            }
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
                    json_escape(&s.label),
                    s.kind.as_str(),
                    start,
                    end.saturating_sub(*start),
                    job.client,
                ),
            );
        }
        for &r in rows {
            let r = r as usize;
            let (name, cat) = match tab.activity[r] {
                Activity::LockWait { lock } => (cap.lock_name(lock), "lock-wait"),
                Activity::SemWait { sem } => (cap.semaphore_name(sem), "sem-wait"),
                _ => continue,
            };
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"job\":{}}}}}",
                    json_escape(name),
                    tab.start[r].as_micros(),
                    cap.interval_us(r),
                    job.client,
                    job.job,
                ),
            );
        }
    }
    for (r, activity) in tab.activity.iter().enumerate() {
        match *activity {
            Activity::Cpu { machine, demand_micros } => push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"cpu\",\"cat\":\"cpu\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":2,\"tid\":{},\"args\":{{\"job\":{},\"demand_us\":{}}}}}",
                    tab.start[r].as_micros(),
                    cap.interval_us(r),
                    machine.0,
                    tab.job[r].0,
                    demand_micros,
                ),
            ),
            Activity::Net { from, to, bytes } => push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"net\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":2,\"tid\":{},\"args\":{{\"job\":{},\"to\":{},\
                     \"bytes\":{}}}}}",
                    tab.start[r].as_micros(),
                    cap.interval_us(r),
                    from.0,
                    tab.job[r].0,
                    to.0,
                    bytes,
                ),
            ),
            _ => {}
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Per-machine CPU/NIC totals over the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRow {
    /// Machine name.
    pub name: String,
    /// Estimated CPU busy microseconds inside the window (demand of each
    /// CPU interval, pro-rated by its overlap with the window).
    pub cpu_busy_us: f64,
    /// This machine's share of all CPU busy time (0–1).
    pub cpu_share: f64,
    /// CPU busy time divided by window length (0–1).
    pub cpu_util: f64,
    /// Bytes received by this machine's NIC inside the window (pro-rated).
    pub nic_bytes: f64,
}

/// Per-interaction latency and per-tier time breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionRow {
    /// Interaction name.
    pub name: String,
    /// Requests completed inside the window.
    pub count: u64,
    /// Median response time, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile response time, milliseconds.
    pub p99_ms: f64,
    /// Mean CPU demand per request on each machine, milliseconds
    /// (machine-id order).
    pub tier_cpu_ms: Vec<f64>,
    /// Mean time parked on read/write locks per request, milliseconds.
    pub lock_wait_ms: f64,
    /// Mean time queued on semaphores (pools) per request, milliseconds.
    pub sem_wait_ms: f64,
    /// Mean wall time in network transfers per request, milliseconds.
    pub net_ms: f64,
}

/// Total wait attributed to one lock or semaphore over the window.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitRow {
    /// Lock or semaphore name.
    pub name: String,
    /// `lock` or `semaphore`.
    pub category: &'static str,
    /// Number of waits overlapping the window.
    pub count: u64,
    /// Total wait inside the window, milliseconds.
    pub total_ms: f64,
}

/// Cache-hit attribution for one cache site (label of its [`SpanKind::Cache`]
/// spans), over the jobs counted by the latency rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRow {
    /// Cache span label (e.g. `result-cache`, or the cached facade method).
    pub name: String,
    /// Hits inside the window.
    pub hits: u64,
    /// Total modeled cost charged by the hit path, milliseconds.
    pub cost_ms: f64,
}

/// The aggregated bottleneck report: per-tier CPU shares (the trace-side
/// analogue of the paper's Figures 12/14), interactions ranked by p99 with
/// per-tier breakdowns, and lock/queue wait attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Per-machine totals, machine-id order.
    pub machines: Vec<MachineRow>,
    /// Interactions ranked by p99 descending (ties by interaction id).
    pub interactions: Vec<InteractionRow>,
    /// Lock/semaphore waits, sorted by name.
    pub waits: Vec<WaitRow>,
    /// Cache-hit counts per cache site; empty when the caching tier is off,
    /// so reports (and their CSVs) are unchanged for uncached runs.
    pub cache: Vec<CacheRow>,
    /// Window length, microseconds.
    pub window_us: u64,
}

/// Fraction of `[start, end]` overlapping `[w0, w1]`, as a 0–1 factor.
fn window_fraction(start: u64, end: u64, w0: u64, w1: u64) -> f64 {
    let lo = start.max(w0);
    let hi = end.min(w1);
    if hi <= lo {
        return 0.0;
    }
    if end <= start {
        return 1.0;
    }
    (hi - lo) as f64 / (end - start) as f64
}

impl BottleneckReport {
    /// Aggregates a capture into the report. Latency rows cover requests
    /// submitted and completed inside the window (the figures' steady-state
    /// convention); resource rows pro-rate every interval by its overlap
    /// with the window.
    pub fn from_capture(cap: &TraceCapture) -> Self {
        let (w0, w1) = (cap.window_start_us, cap.window_end_us);
        let window_us = w1.saturating_sub(w0);
        let n_mach = cap.machines.len();
        let tab = &cap.intervals;
        let mut cpu_busy = vec![0.0f64; n_mach];
        let mut nic_bytes = vec![0.0f64; n_mach];
        let mut waits: BTreeMap<(&str, &'static str), (u64, f64)> = BTreeMap::new();
        for (r, activity) in tab.activity.iter().enumerate() {
            let (start, end) = (tab.start[r].as_micros(), tab.end[r].as_micros());
            let f = window_fraction(start, end, w0, w1);
            if f <= 0.0 {
                continue;
            }
            let wait = match *activity {
                Activity::Cpu { machine, demand_micros } => {
                    cpu_busy[machine.0 as usize] += demand_micros as f64 * f;
                    continue;
                }
                Activity::Net { to, bytes, .. } => {
                    nic_bytes[to.0 as usize] += bytes as f64 * f;
                    continue;
                }
                Activity::Delay => continue,
                Activity::LockWait { lock } => (cap.lock_name(lock), "lock"),
                Activity::SemWait { sem } => (cap.semaphore_name(sem), "semaphore"),
            };
            let e = waits.entry(wait).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += (end - start) as f64 * f;
        }
        let total_busy: f64 = cpu_busy.iter().sum();
        let machines = cap
            .machines
            .iter()
            .enumerate()
            .map(|(i, name)| MachineRow {
                name: name.clone(),
                cpu_busy_us: cpu_busy[i],
                cpu_share: if total_busy > 0.0 { cpu_busy[i] / total_busy } else { 0.0 },
                cpu_util: if window_us > 0 { cpu_busy[i] / window_us as f64 } else { 0.0 },
                nic_bytes: nic_bytes[i],
            })
            .collect();

        let by_job = cap.intervals_by_job();
        let empty: Vec<u32> = Vec::new();
        struct Acc {
            hist: LatencyHistogram,
            tier_cpu_us: Vec<f64>,
            lock_us: f64,
            sem_us: f64,
            net_us: f64,
        }
        let mut per_int: BTreeMap<usize, Acc> = BTreeMap::new();
        let mut cache_sites: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        for job in &cap.jobs {
            if job.submitted_us < w0 || job.completed_us > w1 {
                continue;
            }
            for s in &job.spans {
                if s.kind == SpanKind::Cache {
                    let e = cache_sites.entry(s.label.clone()).or_insert((0, 0.0));
                    e.0 += 1;
                    e.1 += s.cost_micros.unwrap_or(0) as f64 / 1_000.0;
                }
            }
            let acc = per_int.entry(job.interaction).or_insert_with(|| Acc {
                hist: LatencyHistogram::new(),
                tier_cpu_us: vec![0.0; n_mach],
                lock_us: 0.0,
                sem_us: 0.0,
                net_us: 0.0,
            });
            acc.hist.record(SimDuration::from_micros(job.completed_us - job.submitted_us));
            for &r in by_job.get(&job.job).unwrap_or(&empty) {
                let r = r as usize;
                let len = cap.interval_us(r) as f64;
                match tab.activity[r] {
                    Activity::Cpu { machine, demand_micros } => {
                        acc.tier_cpu_us[machine.0 as usize] += demand_micros as f64;
                    }
                    Activity::Net { .. } => acc.net_us += len,
                    Activity::LockWait { .. } => acc.lock_us += len,
                    Activity::SemWait { .. } => acc.sem_us += len,
                    Activity::Delay => {}
                }
            }
        }
        let mut interactions: Vec<InteractionRow> = per_int
            .into_iter()
            .map(|(id, acc)| {
                let n = acc.hist.count().max(1) as f64;
                InteractionRow {
                    name: cap
                        .interactions
                        .get(id)
                        .cloned()
                        .unwrap_or_else(|| format!("interaction-{id}")),
                    count: acc.hist.count(),
                    p50_ms: acc.hist.quantile(0.5).as_micros() as f64 / 1_000.0,
                    p99_ms: acc.hist.quantile(0.99).as_micros() as f64 / 1_000.0,
                    tier_cpu_ms: acc.tier_cpu_us.iter().map(|us| us / n / 1_000.0).collect(),
                    lock_wait_ms: acc.lock_us / n / 1_000.0,
                    sem_wait_ms: acc.sem_us / n / 1_000.0,
                    net_ms: acc.net_us / n / 1_000.0,
                }
            })
            .collect();
        interactions.sort_by(|a, b| {
            b.p99_ms
                .partial_cmp(&a.p99_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        let waits = waits
            .into_iter()
            .map(|((name, category), (count, us))| WaitRow {
                name: name.to_string(),
                category,
                count,
                total_ms: us / 1_000.0,
            })
            .collect();
        let cache = cache_sites
            .into_iter()
            .map(|(name, (hits, cost_ms))| CacheRow { name, hits, cost_ms })
            .collect();
        BottleneckReport { machines, interactions, waits, cache, window_us }
    }

    /// Renders the report as a `section,name,metric,value` CSV with fixed
    /// decimal formatting (byte-stable for a fixed seed).
    pub fn to_csv(&self, machine_names: &[String]) -> String {
        let mut out = String::from("section,name,metric,value\n");
        for m in &self.machines {
            let _ = writeln!(out, "tier,{},cpu_busy_us,{:.0}", m.name, m.cpu_busy_us);
            let _ = writeln!(out, "tier,{},cpu_share,{:.4}", m.name, m.cpu_share);
            let _ = writeln!(out, "tier,{},cpu_util,{:.4}", m.name, m.cpu_util);
            let _ = writeln!(out, "tier,{},nic_bytes,{:.0}", m.name, m.nic_bytes);
        }
        for i in &self.interactions {
            let _ = writeln!(out, "interaction,{},count,{}", i.name, i.count);
            let _ = writeln!(out, "interaction,{},p50_ms,{:.3}", i.name, i.p50_ms);
            let _ = writeln!(out, "interaction,{},p99_ms,{:.3}", i.name, i.p99_ms);
            for (m, ms) in machine_names.iter().zip(&i.tier_cpu_ms) {
                let _ = writeln!(out, "interaction,{},cpu_ms:{m},{:.3}", i.name, ms);
            }
            let _ = writeln!(out, "interaction,{},lock_wait_ms,{:.3}", i.name, i.lock_wait_ms);
            let _ = writeln!(out, "interaction,{},sem_wait_ms,{:.3}", i.name, i.sem_wait_ms);
            let _ = writeln!(out, "interaction,{},net_ms,{:.3}", i.name, i.net_ms);
        }
        for w in &self.waits {
            let _ = writeln!(out, "wait,{},category,{}", w.name, w.category);
            let _ = writeln!(out, "wait,{},count,{}", w.name, w.count);
            let _ = writeln!(out, "wait,{},total_ms,{:.3}", w.name, w.total_ms);
        }
        // Cache rows only exist when the caching tier was enabled, keeping
        // uncached CSVs byte-identical to pre-cache builds.
        for c in &self.cache {
            let _ = writeln!(out, "cache,{},hits,{}", c.name, c.hits);
            let _ = writeln!(out, "cache,{},cost_ms,{:.3}", c.name, c.cost_ms);
        }
        out
    }

    /// A short human-readable summary (top tiers and interactions).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("| tier | CPU share | CPU util |\n|---|---|---|\n");
        for m in &self.machines {
            let _ = writeln!(
                out,
                "| {} | {:.1}% | {:.1}% |",
                m.name,
                m.cpu_share * 100.0,
                m.cpu_util * 100.0
            );
        }
        out.push_str("\n| interaction | n | p50 ms | p99 ms | lock ms | pool ms |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for i in &self.interactions {
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} | {:.1} | {:.2} | {:.2} |",
                i.name, i.count, i.p50_ms, i.p99_ms, i.lock_wait_ms, i.sem_wait_ms
            );
        }
        if !self.waits.is_empty() {
            out.push_str("\n| wait | kind | n | total ms |\n|---|---|---|---|\n");
            for w in &self.waits {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {:.1} |",
                    w.name, w.category, w.count, w.total_ms
                );
            }
        }
        out
    }

    /// Cross-checks the trace-derived per-machine CPU utilizations against
    /// utilizations measured from the processor-sharing counters (the
    /// numbers behind Figures 12/14). `ps_util` pairs machine names with
    /// window utilizations.
    ///
    /// # Errors
    ///
    /// Returns the first machine whose two estimates differ by more than
    /// `tolerance` (absolute, e.g. `0.01` for the 1% gate).
    pub fn check_cpu_shares(
        &self,
        ps_util: &[(String, f64)],
        tolerance: f64,
    ) -> Result<(), String> {
        for (name, ps) in ps_util {
            let Some(row) = self.machines.iter().find(|m| &m.name == name) else {
                return Err(format!("machine {name} missing from trace report"));
            };
            let diff = (row.cpu_util - ps).abs();
            if diff > tolerance {
                return Err(format!(
                    "{name}: trace CPU util {:.4} vs PS {:.4} (diff {:.4} > {:.4})",
                    row.cpu_util, ps, diff, tolerance
                ));
            }
        }
        Ok(())
    }
}

/// Verifies span-tree well-formedness over a whole capture:
///
/// * every span closed at or after it opened, inside its parent's op range;
/// * children's wall-clock intervals nest inside their parents';
/// * the CPU demand inside any span never exceeds its wall time (each op
///   may round up to a whole microsecond, hence the per-interval slack).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn verify_capture(cap: &TraceCapture) -> Result<(), String> {
    let tab = &cap.intervals;
    let by_job = cap.intervals_by_job();
    let empty: Vec<u32> = Vec::new();
    for job in &cap.jobs {
        let rows = by_job.get(&job.job).unwrap_or(&empty);
        let times = cap.span_times(job, rows);
        for (i, s) in job.spans.iter().enumerate() {
            if s.end_op < s.start_op {
                return Err(format!("job {}: span {i} has end_op < start_op", job.job));
            }
            if let Some(p) = s.parent {
                if p >= i {
                    return Err(format!("job {}: span {i} parent {p} not earlier", job.job));
                }
                let ps = &job.spans[p];
                if s.start_op < ps.start_op || s.end_op > ps.end_op {
                    return Err(format!(
                        "job {}: span {i} ops [{},{}) outside parent [{},{})",
                        job.job, s.start_op, s.end_op, ps.start_op, ps.end_op
                    ));
                }
                let (cs, ce) = times[i];
                let (pstart, pend) = times[p];
                if cs < pstart || ce > pend {
                    return Err(format!(
                        "job {}: span {i} time [{cs},{ce}] outside parent [{pstart},{pend}]",
                        job.job
                    ));
                }
            }
            let (ss, se) = times[i];
            let mut demand = 0u64;
            let mut n = 0u64;
            for &r in rows {
                let r = r as usize;
                let op = tab.op_index[r] as usize;
                if op >= s.start_op && op < s.end_op {
                    if let Activity::Cpu { demand_micros, .. } = tab.activity[r] {
                        demand += demand_micros;
                        n += 1;
                    }
                }
            }
            if demand > (se - ss) + n {
                return Err(format!(
                    "job {}: span {i} CPU demand {demand}us exceeds wall {}us",
                    job.job,
                    se - ss
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamid_sim::{JobId, MachineId, OpInterval, SimTime};

    fn sample_capture() -> TraceCapture {
        let mut rec = SpanRecorder::new();
        let root = rec.open(SpanKind::Request, "buy", 0);
        rec.open(SpanKind::WebServe, "web", 0);
        rec.close(2);
        rec.open(SpanKind::Invoke, "handler", 2);
        let sql = rec.open(SpanKind::SqlStatement, "read", 2);
        rec.annotate(sql, Some(true), Some(950));
        rec.close(4);
        rec.close(4);
        rec.close(5);
        let _ = root;
        let spans = rec.finish();
        let (client, web, db) = (MachineId(0), MachineId(1), MachineId(2));
        let mut intervals = IntervalColumns::default();
        for (op_index, activity, start, end) in [
            (0, Activity::Cpu { machine: web, demand_micros: 400 }, 100, 500),
            (1, Activity::SemWait { sem: SemaphoreId(0) }, 500, 900),
            (2, Activity::LockWait { lock: LockId(0) }, 900, 1_900),
            (3, Activity::Cpu { machine: db, demand_micros: 950 }, 1_900, 3_000),
            (4, Activity::Net { from: db, to: client, bytes: 2_048 }, 3_000, 4_100),
        ] {
            let (start, end) = (SimTime::from_micros(start), SimTime::from_micros(end));
            intervals.push(OpInterval { job: JobId(0), op_index, activity, start, end });
        }
        TraceCapture {
            machines: vec!["client".into(), "web".into(), "db".into()],
            interactions: vec!["buy".into()],
            lock_names: vec!["table:items".into()],
            semaphore_names: vec!["web-pool".into()],
            window_start_us: 0,
            window_end_us: 10_000,
            jobs: vec![JobRecord {
                job: 0,
                client: 3,
                interaction: 0,
                submitted_us: 100,
                completed_us: 4_100,
                spans,
            }],
            intervals,
        }
    }

    #[test]
    fn recorder_enforces_stack_discipline() {
        let mut rec = SpanRecorder::new();
        rec.open(SpanKind::Request, "r", 0);
        let c = rec.open(SpanKind::WebServe, "w", 1);
        rec.close(3);
        rec.close(4);
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[c].parent, Some(0));
        assert_eq!(spans[0].end_op, 4);
    }

    #[test]
    #[should_panic(expected = "left open")]
    fn unclosed_span_panics_on_finish() {
        let mut rec = SpanRecorder::new();
        rec.open(SpanKind::Request, "r", 0);
        let _ = rec.finish();
    }

    #[test]
    fn sample_capture_is_well_formed() {
        verify_capture(&sample_capture()).unwrap();
    }

    #[test]
    fn nesting_violation_is_caught() {
        let mut cap = sample_capture();
        cap.jobs[0].spans[1].end_op = 99; // web-serve escapes request
                                          // Parent op range still contains it? Request covers [0,5): 99 > 5.
        assert!(verify_capture(&cap).is_err());
    }

    #[test]
    fn cpu_over_wall_is_caught() {
        let mut cap = sample_capture();
        cap.intervals.activity[3] = Activity::Cpu { machine: MachineId(2), demand_micros: 5_000 };
        assert!(verify_capture(&cap).is_err());
    }

    #[test]
    fn report_attributes_cpu_waits_and_latency() {
        let cap = sample_capture();
        let rep = BottleneckReport::from_capture(&cap);
        assert_eq!(rep.machines.len(), 3);
        assert_eq!(rep.machines[1].cpu_busy_us, 400.0);
        assert_eq!(rep.machines[2].cpu_busy_us, 950.0);
        assert!((rep.machines[2].cpu_share - 950.0 / 1_350.0).abs() < 1e-9);
        assert_eq!(rep.interactions.len(), 1);
        assert_eq!(rep.interactions[0].count, 1);
        assert_eq!(rep.waits.len(), 2);
        assert_eq!(rep.waits[0].name, "table:items");
        assert_eq!(rep.waits[1].name, "web-pool");
        let csv = rep.to_csv(&cap.machines);
        assert!(csv.starts_with("section,name,metric,value\n"));
        assert!(csv.contains("tier,db,cpu_busy_us,950"));
        assert!(csv.contains("wait,web-pool,total_ms,0.400"));
    }

    #[test]
    fn window_clipping_pro_rates_edge_intervals() {
        let mut cap = sample_capture();
        cap.window_start_us = 300; // half of the first 400us-demand interval
        let rep = BottleneckReport::from_capture(&cap);
        assert!((rep.machines[1].cpu_busy_us - 200.0).abs() < 1e-9);
        // The job no longer falls fully inside the window -> no latency row.
        assert!(rep.interactions.is_empty());
    }

    #[test]
    fn chrome_json_is_valid_shape_and_deterministic() {
        let cap = sample_capture();
        let a = chrome_trace_json(&cap);
        let b = chrome_trace_json(&cap);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.trim_end().ends_with("]}"));
        assert!(a.contains("\"plan_cache\":\"hit\""));
        assert!(a.contains("\"cost_us\":950"));
        assert!(a.contains("\"name\":\"table:items\""));
        // Balanced braces as a cheap structural check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn cross_check_flags_mismatch() {
        let cap = sample_capture();
        let rep = BottleneckReport::from_capture(&cap);
        let ok = vec![("db".to_string(), rep.machines[2].cpu_util)];
        assert!(rep.check_cpu_shares(&ok, 0.01).is_ok());
        let bad = vec![("db".to_string(), rep.machines[2].cpu_util + 0.05)];
        assert!(rep.check_cpu_shares(&bad, 0.01).is_err());
    }
}
