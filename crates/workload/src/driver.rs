//! The client-browser emulator: sessions, think times, and measurement.
//!
//! Implements §4.1 and §4.5 of the paper: each emulated client holds a
//! persistent connection, waits an exponentially distributed think time
//! (mean 7 s) between interactions, and abandons its session after an
//! exponentially distributed session length (mean 15 min), immediately
//! starting a fresh one so the offered client population stays constant.
//! Measurements are taken only inside the measurement window, bracketed by
//! ramp-up and ramp-down phases.

use crate::arrivals::ArrivalProcess;
use crate::fault::{ResilienceConfig, RetryTokens};
use crate::mix::Mix;
use dynamid_core::{
    Application, BreakerPolicy, CircuitBreaker, Middleware, ReplicationState, ReplicationStats,
    SessionData,
};
use dynamid_sim::{
    AbortReason, Driver, ErrorCounters, JobAborted, JobDone, LatencyHistogram, LockId, MachineId,
    SemaphoreId, SimDuration, SimRng, SimTime, Simulation, WindowSnapshot,
};
use dynamid_sqldb::{Database, TxnLog};
use dynamid_trace::{JobRecord, SpanDef, TraceCapture};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Timer token marking the start of the measurement window.
const TOKEN_WINDOW_START: u64 = u64::MAX;
/// Timer token marking the end of the measurement window.
const TOKEN_WINDOW_END: u64 = u64::MAX - 1;
/// Timer token of the replication failure detector's heartbeat (armed only
/// when the replicated DB tier is installed).
const TOKEN_HEARTBEAT: u64 = u64::MAX - 2;
/// Timer token of the open-loop arrival process (armed only for open
/// arrival processes).
const TOKEN_ARRIVAL: u64 = u64::MAX - 3;
/// Sentinel interaction index for replication trace records, remapped to a
/// real `"[replication]"` name-table entry in `take_trace`.
const REPLICATION_INTERACTION: usize = usize::MAX;
/// Salt for the open-loop arrival-gap RNG root. Closed-loop runs never
/// construct this stream, so they stay bit-identical to pre-open-loop
/// builds.
const ARRIVAL_RNG_SALT: u64 = 0xA441_11A7_0000_0001;
/// Salt for the open-loop client-slot RNG root (forked once per slot).
const SLOT_RNG_SALT: u64 = 0xA441_11A7_0000_0002;

/// Emulator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of concurrent emulated clients.
    pub clients: usize,
    /// Mean think time between interactions (exponential).
    pub think_time: SimDuration,
    /// Mean session length (exponential).
    pub session_time: SimDuration,
    /// Ramp-up phase length.
    pub ramp_up: SimDuration,
    /// Measurement phase length.
    pub measure: SimDuration,
    /// Ramp-down phase length.
    pub ramp_down: SimDuration,
    /// Master seed; every client derives an independent stream.
    pub seed: u64,
    /// Client-side timeout/retry policy (disabled by default, matching the
    /// paper's patient clients).
    pub resilience: ResilienceConfig,
    /// How arrivals are generated. The default ([`ArrivalProcess::Closed`])
    /// is the paper's closed loop: `clients` emulated browsers with think
    /// times. Open processes generate arrivals independently of
    /// completions; `clients` then only names client-slot RNG streams
    /// (slots grow on demand and are recycled), and think/session times are
    /// unused — each arrival runs one interaction to completion or
    /// abandonment.
    pub arrivals: ArrivalProcess,
    /// When `Some(w)`, the driver additionally records a whole-run timeline
    /// of per-`w` bucket counters ([`WorkloadMetrics::timeline`]) so
    /// overload sweeps can chart goodput through a spike and its recovery.
    /// Purely observational: `None` (the default) records nothing and
    /// changes nothing.
    pub timeline_bucket: Option<SimDuration>,
}

impl WorkloadConfig {
    /// The paper's client model with shortened phases suitable for
    /// simulation.
    pub fn new(clients: usize) -> Self {
        WorkloadConfig {
            clients,
            think_time: SimDuration::from_secs(7),
            session_time: SimDuration::from_mins(15),
            ramp_up: SimDuration::from_secs(30),
            measure: SimDuration::from_secs(120),
            ramp_down: SimDuration::from_secs(10),
            seed: 42,
            resilience: ResilienceConfig::disabled(),
            arrivals: ArrivalProcess::Closed,
            timeline_bucket: None,
        }
    }

    /// Total run length.
    pub fn total(&self) -> SimDuration {
        self.ramp_up + self.measure + self.ramp_down
    }

    /// The measurement window `[start, end)`.
    pub fn window(&self) -> (SimTime, SimTime) {
        (SimTime::ZERO + self.ramp_up, SimTime::ZERO + self.ramp_up + self.measure)
    }
}

/// Counters for one timeline bucket (see
/// [`WorkloadConfig::timeline_bucket`]). Timeline counters cover the whole
/// run, not just the measurement window — the timeline exists to chart
/// behaviour through an overload spike and its recovery, which the window
/// aggregate would hide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineBucket {
    /// Attempts submitted in this bucket (retries and breaker-denied
    /// attempts included).
    pub offered: u64,
    /// Interactions completed in this bucket.
    pub completed: u64,
    /// Completions without an application error (the goodput numerator).
    pub good: u64,
    /// Attempts aborted in flight for non-shed reasons (timeouts, admission
    /// rejects, crashes, deadlocks).
    pub failed: u64,
    /// Attempts shed at dequeue by an overloaded pool.
    pub shed: u64,
    /// Attempts fast-failed client-side by an open circuit breaker.
    pub breaker_denied: u64,
    /// Interactions given up after exhausting retries or the retry budget.
    pub abandoned: u64,
}

/// Counters and distributions collected during the measurement window.
#[derive(Debug, Clone)]
pub struct WorkloadMetrics {
    /// Interactions completed inside the window.
    pub completed: u64,
    /// Interactions completed inside the window that ended in an
    /// application error.
    pub errors: u64,
    /// Per-interaction completion counts (index = interaction id).
    pub per_interaction: Vec<u64>,
    /// Latency distribution of window completions.
    pub latency: LatencyHistogram,
    /// All interactions submitted over the whole run (any phase).
    pub submitted_total: u64,
    /// Sessions started over the whole run.
    pub sessions: u64,
    /// Attempts submitted inside the window (offered load, including
    /// retries).
    pub offered: u64,
    /// Failure taxonomy over the window: timeouts, admission rejects,
    /// fault aborts, retries, abandons — each attempt counted exactly once.
    pub errors_detail: ErrorCounters,
    /// Whole-run per-bucket timeline, empty unless
    /// [`WorkloadConfig::timeline_bucket`] was set. Bucket `i` covers
    /// `[i*w, (i+1)*w)`; trailing all-zero buckets are not materialized.
    pub timeline: Vec<TimelineBucket>,
}

impl WorkloadMetrics {
    fn new(interactions: usize) -> Self {
        WorkloadMetrics {
            completed: 0,
            errors: 0,
            per_interaction: vec![0; interactions],
            latency: LatencyHistogram::new(),
            submitted_total: 0,
            sessions: 0,
            offered: 0,
            errors_detail: ErrorCounters::default(),
            timeline: Vec::new(),
        }
    }

    /// Throughput in interactions per minute over a window of `measure`.
    pub fn throughput_ipm(&self, measure: SimDuration) -> f64 {
        if measure.is_zero() {
            return 0.0;
        }
        self.completed as f64 * 60.0 / measure.as_secs_f64()
    }

    /// Fraction of window completions that errored.
    pub fn error_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.errors as f64 / self.completed as f64
        }
    }

    /// Goodput in interactions per minute: window completions that neither
    /// errored at the application level nor failed in transit.
    pub fn goodput_ipm(&self, measure: SimDuration) -> f64 {
        if measure.is_zero() {
            return 0.0;
        }
        self.completed.saturating_sub(self.errors) as f64 * 60.0 / measure.as_secs_f64()
    }

    /// Offered load in attempts per minute over the window.
    pub fn offered_ipm(&self, measure: SimDuration) -> f64 {
        if measure.is_zero() {
            return 0.0;
        }
        self.offered as f64 * 60.0 / measure.as_secs_f64()
    }
}

/// The committed-transaction ledger: one entry of bookkeeping per
/// interaction whose simulated job ran to completion (= commit). Aborted
/// jobs roll their transaction back instead and count under
/// [`rolled_back`](Self::rolled_back), so at end of run the database equals
/// "initial state + exactly the committed transactions" — the invariant the
/// harness's consistency auditor replays this ledger to check.
#[derive(Debug, Clone, Default)]
pub struct CommitLedger {
    /// Transactions committed (simulated job completed).
    pub committed: u64,
    /// Transactions rolled back (aborted in flight, or still in flight when
    /// the run ended).
    pub rolled_back: u64,
    /// Committed transactions per interaction id.
    pub per_interaction: Vec<u64>,
    /// Net committed live-row delta per table catalog id.
    pub row_deltas: BTreeMap<usize, i64>,
}

impl CommitLedger {
    fn record_commit(&mut self, interaction: Option<usize>, log: &TxnLog) {
        self.committed += 1;
        if let Some(id) = interaction {
            if id >= self.per_interaction.len() {
                self.per_interaction.resize(id + 1, 0);
            }
            self.per_interaction[id] += 1;
        }
        for (table, delta) in log.row_deltas() {
            *self.row_deltas.entry(table).or_default() += delta;
        }
    }

    /// Net committed row delta for table catalog id `table`.
    pub fn delta(&self, table: usize) -> i64 {
        self.row_deltas.get(&table).copied().unwrap_or(0)
    }
}

/// Replication activity over one run, present in the result only when the
/// replicated DB tier was installed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Control-plane counters (routing, ships, fences, elections).
    pub stats: ReplicationStats,
    /// Detection-to-promotion latency of every successful failover, in
    /// occurrence order (empty when the primary never failed over).
    pub failover_latencies: Vec<SimDuration>,
}

impl ReplicationReport {
    /// Latency of the first failover, if any happened.
    pub fn first_failover_latency(&self) -> Option<SimDuration> {
        self.failover_latencies.first().copied()
    }
}

/// Per-machine resource usage over the measurement window.
#[derive(Debug, Clone, Default)]
pub struct ResourceWindow {
    /// `(machine name, cpu utilization 0..1)` per distinct machine.
    pub cpu_util: Vec<(String, f64)>,
    /// `(machine name, NIC throughput in Mb/s)` per distinct machine.
    pub nic_mbps: Vec<(String, f64)>,
}

struct ClientState {
    session: SessionData,
    rng: SimRng,
    /// Last completed interaction (None right after a session reset).
    current: Option<usize>,
    session_end: SimTime,
    /// Outcome of the interaction currently in flight.
    pending_error: bool,
    /// Which attempt the in-flight interaction is on (0 = first send).
    attempt: u32,
    /// Set while a backoff timer is pending; the next wake re-sends the
    /// current interaction instead of advancing the session.
    retry_pending: bool,
    /// Undo log of the in-flight interaction's transaction, tagged with a
    /// global begin-sequence number. Completion commits (drops) it; an
    /// abort applies it back; end-of-run unwinds survivors newest-first.
    pending_txn: Option<(u64, TxnLog)>,
    /// Web server the front-end balancer routed the in-flight interaction
    /// to (None without a balancer). Handed back to the middleware when the
    /// job completes or aborts so least-connections counts stay honest.
    pending_route: Option<usize>,
    /// Span tree of the in-flight interaction (empty unless traced). A slot
    /// has at most one job in flight, so the tree waits here for its
    /// completion record.
    spans: Vec<SpanDef>,
}

impl ClientState {
    /// A fresh slot for client `id`; its session starts at first wake.
    fn new(id: usize, rng: SimRng) -> Self {
        ClientState {
            session: SessionData::new(id as u64),
            rng,
            current: None,
            session_end: SimTime::ZERO,
            pending_error: false,
            attempt: 0,
            retry_pending: false,
            pending_txn: None,
            pending_route: None,
            spans: Vec::new(),
        }
    }
}

/// Open-loop driver machinery, present only for open arrival processes.
struct OpenLoopState {
    /// The arrival process generating the load.
    process: ArrivalProcess,
    /// Dedicated stream for inter-arrival gaps.
    arrival_rng: SimRng,
    /// Root for per-slot client streams, forked once per slot index so a
    /// slot's behaviour never depends on which arrival claimed it.
    slot_root: SimRng,
    /// Recycled client slots (LIFO, deterministic).
    free_slots: Vec<usize>,
}

/// The [`Driver`] implementation that emulates the client population.
pub struct WorkloadDriver<'a> {
    app: &'a dyn Application,
    mix: &'a Mix,
    middleware: &'a Middleware,
    db: &'a mut Database,
    cfg: WorkloadConfig,
    clients: Vec<ClientState>,
    metrics: WorkloadMetrics,
    window: (SimTime, SimTime),
    /// `(cpu, nic)` snapshots of every machine at the window start.
    window_start: Vec<(WindowSnapshot, WindowSnapshot)>,
    resources: ResourceWindow,
    /// Global transaction begin-sequence counter (orders end-of-run unwind).
    txn_seq: u64,
    ledger: CommitLedger,
    /// Completed-job records in completion order (engine event order, hence
    /// deterministic); present only when the middleware was installed with
    /// tracing on.
    trace: Option<Vec<JobRecord>>,
    /// The middleware's replicated DB tier, when installed: the driver
    /// forwards it commits, heartbeat ticks and the end of its ship jobs.
    repl: Option<&'a RefCell<ReplicationState>>,
    /// Present only for open arrival processes.
    open: Option<OpenLoopState>,
    /// Population-wide retry-budget token bucket (inert without a budget).
    retry_tokens: RetryTokens,
    /// Client-side circuit breaker on the DB tier, when the overload
    /// control sets one.
    breaker: Option<CircuitBreaker>,
}

impl std::fmt::Debug for WorkloadDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadDriver")
            .field("clients", &self.clients.len())
            .field("completed", &self.metrics.completed)
            .finish()
    }
}

impl<'a> WorkloadDriver<'a> {
    /// Creates the driver and schedules every client's first arrival
    /// (staggered across the ramp-up phase) plus the window-boundary
    /// timers. `breaker` is the overload control's client-side circuit
    /// breaker policy, if any.
    pub fn start(
        sim: &mut Simulation,
        app: &'a dyn Application,
        mix: &'a Mix,
        middleware: &'a Middleware,
        db: &'a mut Database,
        cfg: WorkloadConfig,
        breaker: Option<BreakerPolicy>,
    ) -> WorkloadDriver<'a> {
        assert_eq!(
            mix.interaction_count(),
            app.interactions().len(),
            "mix does not match the application's interaction catalog"
        );
        let mut open = cfg.arrivals.is_open().then(|| OpenLoopState {
            process: cfg.arrivals,
            arrival_rng: SimRng::new(cfg.seed ^ ARRIVAL_RNG_SALT),
            slot_root: SimRng::new(cfg.seed ^ SLOT_RNG_SALT),
            free_slots: Vec::new(),
        });
        let mut clients = Vec::new();
        if let Some(o) = open.as_mut() {
            // Open loop: slots are created on demand by arrivals; only the
            // first arrival timer is armed here.
            let first = SimTime::ZERO + o.process.next_gap(SimTime::ZERO, &mut o.arrival_rng);
            if first < SimTime::ZERO + cfg.total() {
                sim.set_timer(first, TOKEN_ARRIVAL);
            }
        } else {
            assert!(cfg.clients > 0, "at least one client required");
            let mut root = SimRng::new(cfg.seed);
            clients.extend((0..cfg.clients).map(|i| ClientState::new(i, root.fork(i as u64))));
            // Stagger client starts uniformly over the ramp-up phase.
            let ramp = cfg.ramp_up.as_micros().max(1);
            for i in 0..cfg.clients {
                let offset = ramp * i as u64 / cfg.clients as u64;
                sim.set_timer(SimTime::from_micros(offset), i as u64);
            }
        }
        let (w0, w1) = cfg.window();
        sim.set_timer(w0, TOKEN_WINDOW_START);
        sim.set_timer(w1, TOKEN_WINDOW_END);
        let repl = middleware.replication();
        if let Some(rs) = repl {
            sim.set_timer(SimTime::ZERO + rs.borrow().heartbeat_period(), TOKEN_HEARTBEAT);
        }
        let metrics = WorkloadMetrics::new(mix.interaction_count());
        let retry_tokens = RetryTokens::new(cfg.resilience.retry_budget);
        WorkloadDriver {
            app,
            mix,
            middleware,
            db,
            cfg,
            clients,
            metrics,
            window: (w0, w1),
            window_start: Vec::new(),
            resources: ResourceWindow::default(),
            txn_seq: 0,
            ledger: CommitLedger::default(),
            trace: middleware.tracing().then(Vec::new),
            repl,
            open,
            retry_tokens,
            breaker: breaker.map(CircuitBreaker::new),
        }
    }

    /// Collected workload metrics.
    pub fn metrics(&self) -> &WorkloadMetrics {
        &self.metrics
    }

    /// Per-machine resource usage over the window (valid after the run
    /// passed the window end).
    pub fn resources(&self) -> &ResourceWindow {
        &self.resources
    }

    /// The measurement window.
    pub fn window(&self) -> (SimTime, SimTime) {
        self.window
    }

    /// The committed-transaction ledger (valid after the run; in-flight
    /// transactions should be unwound first via
    /// [`rollback_in_flight`](Self::rollback_in_flight)).
    pub fn ledger(&self) -> &CommitLedger {
        &self.ledger
    }

    /// Assembles the run's [`TraceCapture`] (traced runs only, else
    /// `None`): takes the engine's op intervals, resolves machine,
    /// interaction, lock and semaphore names so the capture is
    /// self-contained, and pairs the intervals with the completed requests'
    /// span trees.
    pub fn take_trace(&mut self, sim: &mut Simulation) -> Option<TraceCapture> {
        let mut jobs = self.trace.take()?;
        let machines: Vec<String> = (0..sim.machine_count() as u32)
            .map(|i| sim.machine_name(MachineId(i)).to_string())
            .collect();
        let mut interactions: Vec<String> =
            self.app.interactions().iter().map(|s| s.name.to_string()).collect();
        // Replication ship/election records carry a sentinel interaction
        // index; give them a real name-table entry so the capture stays
        // self-contained.
        if jobs.iter().any(|j| j.interaction == REPLICATION_INTERACTION) {
            let idx = interactions.len();
            interactions.push("[replication]".to_string());
            for j in &mut jobs {
                if j.interaction == REPLICATION_INTERACTION {
                    j.interaction = idx;
                }
            }
        }
        let lock_names =
            (0..sim.lock_count() as u32).map(|i| sim.lock_name(LockId(i)).to_string()).collect();
        let semaphore_names = (0..sim.semaphore_count() as u32)
            .map(|i| sim.semaphore_name(SemaphoreId(i)).to_string())
            .collect();
        let (w0, w1) = self.window;
        Some(TraceCapture {
            machines,
            interactions,
            lock_names,
            semaphore_names,
            window_start_us: w0.as_micros(),
            window_end_us: w1.as_micros(),
            jobs,
            intervals: sim.take_op_intervals(),
        })
    }

    /// Rolls back every transaction still in flight when the simulation
    /// stopped (crash-consistent unwind), newest-first so interleaved
    /// writes peel off in reverse begin order. Returns how many were
    /// unwound.
    pub fn rollback_in_flight(&mut self) -> u64 {
        let mut pending: Vec<(u64, TxnLog)> =
            self.clients.iter_mut().filter_map(|c| c.pending_txn.take()).collect();
        pending.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
        let n = pending.len() as u64;
        for (_, log) in pending {
            // `apply_rollback` also flushes the dependent cache entries.
            self.db.apply_rollback(log);
            self.ledger.rolled_back += 1;
        }
        n
    }

    /// Like [`rollback_in_flight`](Self::rollback_in_flight) for ledger
    /// accounting — every surviving in-flight transaction counts as rolled
    /// back — but the undo logs are dropped without touching the database.
    /// Only valid when the caller restores the database wholesale afterwards
    /// (the sweep harness rewinds to the pristine base between points, which
    /// erases in-flight writes along with everything else).
    pub fn discard_in_flight(&mut self) -> u64 {
        let mut n = 0;
        for c in &mut self.clients {
            if c.pending_txn.take().is_some() {
                self.ledger.rolled_back += 1;
                n += 1;
            }
        }
        n
    }

    fn begin_interaction(&mut self, sim: &mut Simulation, client_id: usize) {
        let now = sim.now();
        let client = &mut self.clients[client_id];
        // Session bookkeeping.
        if client.current.is_none() || now >= client.session_end {
            client.session.reset();
            client.current = None;
            client.session_end = now + client.rng.exponential(self.cfg.session_time);
            self.metrics.sessions += 1;
        }
        let client = &mut self.clients[client_id];
        let next = match client.current {
            None => self.mix.entry(&mut client.rng),
            Some(cur) => self.mix.next(cur, &mut client.rng),
        };
        client.current = Some(next);
        client.attempt = 0;
        self.retry_tokens.deposit(self.cfg.resilience.retry_budget);
        self.submit_attempt(sim, client_id, next);
    }

    /// One open-loop arrival: schedules its successor, claims a client slot
    /// (recycled LIFO, grown on demand), and starts a one-interaction
    /// session on it.
    fn on_arrival(&mut self, sim: &mut Simulation) {
        let now = sim.now();
        let horizon = SimTime::ZERO + self.cfg.total();
        let recycled = {
            let o = self.open.as_mut().expect("arrival timer without open-loop state");
            // Schedule the successor before doing anything with this
            // arrival: the process is independent of what the system does
            // with the request — that independence is what "open loop"
            // means.
            let next = now + o.process.next_gap(now, &mut o.arrival_rng);
            if next < horizon {
                sim.set_timer(next, TOKEN_ARRIVAL);
            }
            o.free_slots.pop()
        };
        let slot = match recycled {
            Some(s) => s,
            None => {
                let idx = self.clients.len();
                let o = self.open.as_mut().expect("arrival without open-loop state");
                self.clients.push(ClientState::new(idx, o.slot_root.fork(idx as u64)));
                idx
            }
        };
        let next = {
            let client = &mut self.clients[slot];
            client.session.reset();
            client.session_end = horizon; // one interaction per arrival
            client.attempt = 0;
            client.retry_pending = false;
            let ix = self.mix.entry(&mut client.rng);
            client.current = Some(ix);
            ix
        };
        self.metrics.sessions += 1;
        self.retry_tokens.deposit(self.cfg.resilience.retry_budget);
        self.submit_attempt(sim, slot, next);
    }

    /// Returns an open-loop client slot to the free list (no-op closed
    /// loop).
    fn release_slot(&mut self, slot: usize) {
        if let Some(o) = self.open.as_mut() {
            o.free_slots.push(slot);
        }
    }

    /// Applies `f` to the timeline bucket covering `at`. No-op unless
    /// [`WorkloadConfig::timeline_bucket`] is set.
    fn record_timeline(&mut self, at: SimTime, f: impl FnOnce(&mut TimelineBucket)) {
        let Some(bucket) = self.cfg.timeline_bucket else { return };
        let w = bucket.as_micros().max(1);
        let idx = (at.as_micros() / w) as usize;
        if idx >= self.metrics.timeline.len() {
            self.metrics.timeline.resize(idx + 1, TimelineBucket::default());
        }
        f(&mut self.metrics.timeline[idx]);
    }

    /// The shared attempt-failure tail (engine aborts and breaker
    /// denials): retry with capped jittered backoff while the attempt count
    /// and the retry budget allow, otherwise abandon the interaction —
    /// counted under `abandoned`, never dropped silently.
    fn after_attempt_failure(
        &mut self,
        sim: &mut Simulation,
        client_id: usize,
        in_window: bool,
        now: SimTime,
    ) {
        let resilience = self.cfg.resilience;
        let wants_retry = self.clients[client_id].attempt < resilience.max_retries;
        if wants_retry && self.retry_tokens.try_withdraw(resilience.retry_budget) {
            if in_window {
                self.metrics.errors_detail.retries += 1;
            }
            let client = &mut self.clients[client_id];
            client.attempt += 1;
            client.retry_pending = true;
            // Capped exponential backoff with deterministic jitter in
            // [0.5, 1.0) of the nominal delay, drawn from the client's own
            // stream so runs replay bit-identically.
            let nominal = resilience.backoff_for(client.attempt).as_micros();
            let jittered = (nominal as f64 * (0.5 + 0.5 * client.rng.unit())).round() as u64;
            sim.set_timer_after(SimDuration::from_micros(jittered.max(1)), client_id as u64);
        } else {
            // Retries (or the retry budget) exhausted: give up on this
            // interaction.
            if in_window {
                self.metrics.errors_detail.abandoned += 1;
            }
            self.record_timeline(now, |b| b.abandoned += 1);
            let client = &mut self.clients[client_id];
            client.attempt = 0;
            client.retry_pending = false;
            if self.open.is_some() {
                self.clients[client_id].current = None;
                self.release_slot(client_id);
            } else {
                let think = client.rng.exponential(self.cfg.think_time);
                sim.set_timer_after(think, client_id as u64);
            }
        }
    }

    /// Compiles and submits one attempt of interaction `id` for the client,
    /// with a deadline when the resilience policy sets one.
    fn submit_attempt(&mut self, sim: &mut Simulation, client_id: usize, id: usize) {
        let now = sim.now();
        // Brownout gate: an open circuit breaker fails the attempt
        // client-side before the eager host execution runs — no transaction
        // begins, nothing queues on the saturated pool. Denied attempts
        // still count as offered load and feed the retry machinery.
        if let Some(b) = &mut self.breaker {
            if !b.admit(now) {
                let (w0, w1) = self.window;
                let in_window = now >= w0 && now < w1;
                if in_window {
                    self.metrics.offered += 1;
                    self.metrics.errors_detail.breaker_open += 1;
                }
                self.record_timeline(now, |b| {
                    b.offered += 1;
                    b.breaker_denied += 1;
                });
                self.after_attempt_failure(sim, client_id, in_window, now);
                return;
            }
        }
        // Advance the cache clock to simulated time before the eager
        // host-side execution, so TTL freshness is judged at submit time
        // (a no-op when caching is off, and under transactional
        // invalidation the clock is never consulted).
        self.db.set_cache_clock(now.as_micros());
        let seq = self.txn_seq;
        self.txn_seq += 1;
        let client = &mut self.clients[client_id];
        let prep = self.middleware.run_interaction(
            self.db,
            self.app,
            id,
            &mut client.session,
            &mut client.rng,
            false,
        );
        client.pending_error = !prep.is_ok();
        client.retry_pending = false;
        client.pending_txn = Some((seq, prep.txn));
        client.pending_route = prep.route;
        client.spans = prep.spans;
        self.metrics.submitted_total += 1;
        let (w0, w1) = self.window;
        if now >= w0 && now < w1 {
            self.metrics.offered += 1;
        }
        self.record_timeline(now, |b| b.offered += 1);
        match self.cfg.resilience.request_timeout {
            Some(deadline) => sim.submit_with_deadline(prep.trace, client_id as u64, deadline),
            None => sim.submit(prep.trace, client_id as u64),
        };
    }

    /// Appends one completed job's record to the trace (traced runs only).
    fn record_job(
        &mut self,
        job: u64,
        client: u64,
        interaction: usize,
        (submitted, completed): (SimTime, SimTime),
        spans: Vec<SpanDef>,
    ) {
        if let Some(jobs) = &mut self.trace {
            jobs.push(JobRecord {
                job,
                client,
                interaction,
                submitted_us: submitted.as_micros(),
                completed_us: completed.as_micros(),
                spans,
            });
        }
    }

    /// Records a replication job (a ship, or a fabricated election job) as
    /// a one-span request of the `[replication]` pseudo-interaction; `span`
    /// runs only in traced runs.
    fn record_replication(
        &mut self,
        job: u64,
        times: (SimTime, SimTime),
        span: impl FnOnce() -> SpanDef,
    ) {
        if self.trace.is_some() {
            self.record_job(job, u64::MAX, REPLICATION_INTERACTION, times, vec![span()]);
        }
    }

    /// Replication activity over the run, or `None` when the replicated DB
    /// tier was not installed.
    pub fn replication_report(&self) -> Option<ReplicationReport> {
        let rs = self.repl?.borrow();
        let failover_latencies = rs.failover_latencies().to_vec();
        Some(ReplicationReport { stats: rs.stats, failover_latencies })
    }

    /// Forwards one heartbeat tick to the replicated tier, counts and
    /// traces the failover it carried out, if any, and re-arms the timer.
    fn heartbeat(&mut self, sim: &mut Simulation) {
        let Some(repl) = self.repl else { return };
        let mut rs = repl.borrow_mut();
        if let Some(failover) = rs.heartbeat(sim) {
            let now = sim.now();
            let (w0, w1) = self.window;
            if now >= w0 && now < w1 {
                self.metrics.errors_detail.failovers += 1;
            }
            // Elections are control-plane decisions, not engine jobs: record
            // a fabricated job spanning detection→promotion so the capture
            // shows the failover window.
            let job = u64::MAX - (rs.stats.elections - 1);
            self.record_replication(job, (failover.detected, now), || failover.span());
        }
        sim.set_timer_after(rs.heartbeat_period(), TOKEN_HEARTBEAT);
    }

    /// Snapshots every machine's CPU and NIC counters at the window start;
    /// at the window end, turns the deltas into [`ResourceWindow`].
    fn snapshot(&mut self, sim: &mut Simulation, end: bool) {
        let at = sim.now();
        let capture = |sim: &mut Simulation, m| {
            let cpu = WindowSnapshot::capture(at, sim.cpu_stats(m));
            (cpu, WindowSnapshot::capture(at, sim.nic_stats(m)))
        };
        if !end {
            let machines = 0..sim.machine_count() as u32;
            self.window_start = machines.map(|i| capture(sim, MachineId(i))).collect();
            return;
        }
        let mut resources = ResourceWindow::default();
        for (i, (cpu0, nic0)) in self.window_start.iter().enumerate() {
            let m = MachineId(i as u32);
            let (cpu1, nic1) = capture(sim, m);
            let name = sim.machine_name(m);
            resources.cpu_util.push((name.to_string(), cpu0.utilization_until(&cpu1)));
            resources.nic_mbps.push((name.to_string(), nic0.throughput_until(&nic1) * 8.0 / 1e6));
        }
        self.resources = resources;
    }
}

impl Driver for WorkloadDriver<'_> {
    fn on_job_complete(&mut self, sim: &mut Simulation, done: JobDone) {
        if let Some(ship) = self.repl.and_then(|r| r.borrow_mut().ship_done(done.id)) {
            self.record_replication(done.id.0, (done.submitted, done.completed), || ship.span());
            return;
        }
        let client_id = done.tag as usize;
        // The front-end balancer (if any) sees the connection close here.
        self.middleware.route_done(self.clients[client_id].pending_route.take());
        // Job completion is the commit point: record the receipt in the
        // ledger and drop the undo log — and, with a replicated tier, the
        // committed write-set becomes the next stream frame, shipped to
        // every readable replica.
        if let Some((_, log)) = self.clients[client_id].pending_txn.take() {
            self.ledger.record_commit(self.clients[client_id].current, &log);
            if let Some(repl) = self.repl {
                repl.borrow_mut().commit(sim, &log);
            }
        }
        if let Some(interaction) = self.clients[client_id].current {
            let spans = std::mem::take(&mut self.clients[client_id].spans);
            let times = (done.submitted, done.completed);
            self.record_job(done.id.0, client_id as u64, interaction, times, spans);
        }
        // A completed interaction is the breaker's recovery signal.
        if let Some(b) = &mut self.breaker {
            b.record_success();
        }
        let (w0, w1) = self.window;
        if done.completed >= w0 && done.completed < w1 {
            self.metrics.completed += 1;
            if self.clients[client_id].pending_error {
                self.metrics.errors += 1;
            }
            if let Some(cur) = self.clients[client_id].current {
                self.metrics.per_interaction[cur] += 1;
            }
            self.metrics.latency.record(done.latency());
        }
        let good = !self.clients[client_id].pending_error;
        self.record_timeline(done.completed, |b| {
            b.completed += 1;
            if good {
                b.good += 1;
            }
        });
        if self.open.is_some() {
            // Open loop: this arrival is done — recycle its slot. The next
            // request comes from the arrival process, not from this client.
            let client = &mut self.clients[client_id];
            client.attempt = 0;
            client.retry_pending = false;
            client.current = None;
            self.release_slot(client_id);
        } else {
            // Think, then next interaction.
            let think = {
                let client = &mut self.clients[client_id];
                client.attempt = 0;
                client.retry_pending = false;
                client.rng.exponential(self.cfg.think_time)
            };
            sim.set_timer_after(think, client_id as u64);
        }
    }

    fn on_timer(&mut self, sim: &mut Simulation, token: u64) {
        match token {
            TOKEN_WINDOW_START => self.snapshot(sim, false),
            TOKEN_WINDOW_END => self.snapshot(sim, true),
            TOKEN_HEARTBEAT => self.heartbeat(sim),
            TOKEN_ARRIVAL => self.on_arrival(sim),
            client_id => {
                let client_id = client_id as usize;
                let retry = self.clients[client_id].retry_pending;
                match (retry, self.clients[client_id].current) {
                    (true, Some(id)) => self.submit_attempt(sim, client_id, id),
                    // Open-loop slots wake only for retry backoff; anything
                    // else is a stale timer against a recycled slot.
                    _ if self.open.is_some() => {}
                    _ => self.begin_interaction(sim, client_id),
                }
            }
        }
    }

    fn on_job_aborted(&mut self, sim: &mut Simulation, info: JobAborted) {
        if self.repl.is_some_and(|r| r.borrow_mut().ship_aborted(info.id)) {
            return;
        }
        let client_id = info.tag as usize;
        // The balancer's connection drops with the aborted job; a retry
        // will route afresh.
        self.middleware.route_done(self.clients[client_id].pending_route.take());
        // An aborted job never completed, so its eagerly-executed writes
        // must not survive: roll the transaction back before anything else
        // (in particular before a retry re-executes the interaction).
        if let Some((_, log)) = self.clients[client_id].pending_txn.take() {
            // Aborted writes never published: unwinding also flushes the
            // dependent cache entries (uncounted — this is coherence, not
            // invalidation).
            self.db.apply_rollback(log);
            self.ledger.rolled_back += 1;
        }
        // An aborted request never completed: its span tree is dropped (the
        // engine likewise discards its half-open interval), though its
        // finished intervals still count toward machine load.
        self.clients[client_id].spans.clear();
        let (w0, w1) = self.window;
        let in_window = info.aborted >= w0 && info.aborted < w1;
        if in_window {
            match info.reason {
                AbortReason::DeadlineExpired => self.metrics.errors_detail.timeouts += 1,
                AbortReason::Rejected => self.metrics.errors_detail.rejects += 1,
                AbortReason::Deadlock => self.metrics.errors_detail.deadlocks += 1,
                AbortReason::Shed => self.metrics.errors_detail.shed += 1,
                AbortReason::MachineCrash
                | AbortReason::TransientFault
                | AbortReason::Cancelled => self.metrics.errors_detail.aborts += 1,
            }
        }
        // Deadline expiries and sheds are the overload signals the breaker
        // trips on; crashes, deadlocks and admission rejects are not its
        // business.
        if matches!(info.reason, AbortReason::DeadlineExpired | AbortReason::Shed) {
            if let Some(b) = &mut self.breaker {
                b.record_failure(info.aborted);
            }
        }
        let was_shed = matches!(info.reason, AbortReason::Shed);
        self.record_timeline(info.aborted, |b| {
            if was_shed {
                b.shed += 1;
            } else {
                b.failed += 1;
            }
        });
        self.after_attempt_failure(sim, client_id, in_window, info.aborted);
    }
}
