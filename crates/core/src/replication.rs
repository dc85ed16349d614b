//! The replicated DB tier: read routing, the replication stream, replica
//! fencing and catch-up, and deterministic primary failover.
//!
//! One primary accepts every write and transactional statement; N read
//! replicas serve read-only interactions round-robin. Because host-side SQL
//! executes eagerly against the one shared database at trace-compile time,
//! replicas carry no separate host state — what this module decides is
//! *which simulated machine* each interaction's DB work lands on, what
//! keeping the replicas current costs, and who the primary is after a
//! crash:
//!
//! * **Routing** — read-only interactions rotate over the replicas that are
//!   up and unfenced; everything else (and reads with no readable replica)
//!   goes to the primary.
//! * **Stream** — every commit with a non-empty [`TxnLog`] becomes a frame
//!   with an LSN (its place in the commit order), a wire size and a
//!   replica-side apply cost, shipped to every readable replica as a
//!   `Net → Delay(lag) → Cpu(apply)` job. The stream is the single source
//!   of truth for both the head LSN and the catch-up cost, so the fencing
//!   rule and the modeled replay can never disagree.
//! * **Fencing** — a replica that misses a committed frame (it was down
//!   when the frame shipped, or its ship job died with it) is *fenced*: it
//!   serves no reads and cannot win an election until a catch-up job
//!   replays the frames it missed, priced as their sum.
//! * **Election** — when the heartbeat observes the primary down past its
//!   lease, the tier promotes the *caught-up-most* eligible replica:
//!   highest applied LSN, ties broken by highest replica id — the same
//!   "most complete log wins" rule a Raft candidate enforces via
//!   `RequestVote`, collapsed to a deterministic single step because the
//!   simulation serializes the world. No eligible replica means the
//!   election fails (counted) and is retried on the next heartbeat. The
//!   deposed primary rejoins as a fenced replica once it restarts.
//!
//! The workload driver forwards four events and nothing else: each commit
//! ([`ReplicationState::commit`]), the heartbeat timer
//! ([`ReplicationState::heartbeat`]), and the end of a ship job
//! ([`ReplicationState::ship_done`], [`ReplicationState::ship_aborted`]).
//! With [`ReplicaPolicy::replicas`]` == 0` no state is constructed at all
//! and runs are bit-identical to the single-DB path.

use dynamid_sim::{JobId, MachineId, Op, SimDuration, SimTime, Simulation, Trace};
use dynamid_sqldb::TxnLog;
use dynamid_trace::{SpanDef, SpanKind};
use std::collections::BTreeMap;

/// Fixed per-frame overhead on the wire: LSN, txn id, table bitmap,
/// checksums — the bytes a frame costs even for a one-row write-set.
const SHIP_HEADER_BYTES: u64 = 96;

/// Wire bytes per undo-log entry in the write-set (row image + key).
const SHIP_ENTRY_BYTES: u64 = 72;

/// Replica-side CPU to ingest a frame (parse, fsync the relay log).
const APPLY_BASE_MICROS: u64 = 40;

/// Replica-side CPU per write-set entry applied (index maintenance).
const APPLY_ENTRY_MICROS: u64 = 12;

/// Job tag of ship and catch-up jobs. Never used for dispatch (the tier
/// tracks its jobs by [`JobId`]); it only keeps them visibly distinct from
/// the driver's client tags in debug output.
const SHIP_TAG: u64 = u64::MAX;

/// Ops of every ship job: the NIC transfer, the lag delay, the apply.
const SHIP_OPS: usize = 3;

/// Knobs of the replicated DB tier, surfaced as
/// `ExperimentSpec::replication` in `dynamid-workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPolicy {
    /// Read replicas behind the primary. `0` disables the tier entirely
    /// (no extra machines, no timers — bit-identical to the single-DB
    /// path).
    pub replicas: usize,
    /// Modeled replication lag: the delay leg of every shipped write-set
    /// frame, on top of its NIC cost (microseconds).
    pub lag_us: u64,
    /// Heartbeat period of the failure detector (microseconds).
    pub heartbeat_us: u64,
    /// Lease: how long the primary must be observed down before an
    /// election may promote a replica (microseconds). The expected
    /// detection-to-promotion latency is therefore in
    /// `[lease_us, lease_us + heartbeat_us)`.
    pub lease_us: u64,
}

impl Default for ReplicaPolicy {
    /// Disabled tier with production-shaped timing defaults: 5 ms lag,
    /// 250 ms heartbeat, 1 s lease.
    fn default() -> Self {
        ReplicaPolicy { replicas: 0, lag_us: 5_000, heartbeat_us: 250_000, lease_us: 1_000_000 }
    }
}

impl ReplicaPolicy {
    /// `true` when the tier actually installs replicas.
    pub fn is_enabled(&self) -> bool {
        self.replicas > 0
    }
}

/// Router-visible state of one read replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReplicaState {
    /// Stable replica id (election tie-break: highest wins). Replicas
    /// created at install time get ids `1..=N`; each deposed primary that
    /// restarts rejoins under the next unused id, `N + 1` first, so ids
    /// are never reused.
    id: usize,
    /// The simulated machine serving this replica.
    machine: MachineId,
    /// Newest replication-stream LSN this replica has applied.
    applied_lsn: u64,
    /// Fenced: missed at least one frame; unreadable and unelectable until
    /// it replays the stream.
    fenced: bool,
    /// Machine health as of the last heartbeat sync.
    up: bool,
}

impl ReplicaState {
    /// `true` when the router may send reads here (and an election may
    /// promote it).
    fn readable(&self) -> bool {
        self.up && !self.fenced
    }
}

/// The winner of a successful election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionOutcome {
    /// Stable id of the promoted replica.
    pub winner_id: usize,
    /// Its machine — the new primary.
    pub machine: MachineId,
    /// The LSN it had applied at promotion.
    pub applied_lsn: u64,
}

/// Counters the sweeps and BENCH probes report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Read-only interactions routed to a replica.
    pub reads_to_replicas: u64,
    /// Read-only interactions that fell back to the primary (no readable
    /// replica).
    pub reads_to_primary: u64,
    /// Write/transactional interactions routed to the primary.
    pub writes_to_primary: u64,
    /// Write-set frames shipped (one per committed write-set per replica).
    pub frames_shipped: u64,
    /// Write-set entries fanned out to replicas, which carry the
    /// commit-driven cache invalidation keys: each shipped frame adds its
    /// undo-log entry count once per replica it ships to.
    pub invalidations_fanned: u64,
    /// Replica fencings (missed-frame events).
    pub fences: u64,
    /// Completed catch-up replays (fenced replica became readable again).
    pub catchups: u64,
    /// Successful elections (primary promotions).
    pub elections: u64,
    /// Election rounds that found no eligible replica.
    pub failed_elections: u64,
}

/// A failover one heartbeat carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failover {
    /// When the deposed primary was first observed down.
    pub detected: SimTime,
    /// The election that promoted its successor.
    pub election: ElectionOutcome,
}

impl Failover {
    /// The span a traced run records for this failover. It covers no ops:
    /// an election is a control-plane decision, not an engine job.
    pub fn span(&self) -> SpanDef {
        let e = self.election;
        replication_span(
            SpanKind::Election,
            format!("promote r{} @ lsn {}", e.winner_id, e.applied_lsn),
            0,
        )
    }
}

/// What one in-flight ship job is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ship {
    /// A live write-set frame shipping to one replica; completion means the
    /// replica has applied `lsn`.
    Frame {
        /// Stable replica id.
        replica: usize,
        /// The frame's LSN.
        lsn: u64,
    },
    /// A catch-up replay to a fenced replica, targeting the stream head
    /// `lsn` observed at submit time; completion unfences it if the head
    /// has not moved since.
    Catchup {
        /// Stable replica id.
        replica: usize,
        /// Stream head LSN at submit time.
        lsn: u64,
    },
}

impl Ship {
    /// The span a traced run records for this job, over its three ops.
    pub fn span(&self) -> SpanDef {
        let label = match *self {
            Ship::Frame { replica, lsn } => format!("ship lsn {lsn} -> r{replica}"),
            Ship::Catchup { replica, lsn } => format!("catch-up r{replica} -> lsn {lsn}"),
        };
        replication_span(SpanKind::ReplicaShip, label, SHIP_OPS)
    }
}

/// A replication job's one-span tree: a root over its first `ops` ops.
fn replication_span(kind: SpanKind, label: String, ops: usize) -> SpanDef {
    SpanDef {
        kind,
        label,
        start_op: 0,
        end_op: ops,
        parent: None,
        cache_hit: None,
        cost_micros: None,
    }
}

/// One committed write-set as it travels the replication stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteSetFrame {
    /// Log sequence number: position in the commit order, starting at 1.
    lsn: u64,
    /// Undo-log entries in the committed transaction.
    entries: u64,
}

impl WriteSetFrame {
    /// Bytes this frame occupies on the wire (NIC cost per replica).
    fn ship_bytes(&self) -> u64 {
        SHIP_HEADER_BYTES + SHIP_ENTRY_BYTES * self.entries
    }

    /// Replica CPU microseconds to apply this frame.
    fn apply_micros(&self) -> u64 {
        APPLY_BASE_MICROS + APPLY_ENTRY_MICROS * self.entries
    }
}

/// The cost of replaying a contiguous suffix of the retained log: what a
/// fenced replica owes before it is readable (and electable) again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CatchupPlan {
    /// Frames to replay.
    frames: u64,
    /// Total wire bytes to stream.
    bytes: u64,
    /// Total replica CPU microseconds to apply.
    apply_micros: u64,
}

/// The primary's retained replication log: every committed non-empty
/// write-set, in commit (LSN) order. Frames are appended in the single
/// simulated commit order, so two runs with the same seed produce the
/// identical stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ReplicationStream {
    frames: Vec<WriteSetFrame>,
}

impl ReplicationStream {
    /// The newest committed LSN (0 when nothing has committed).
    fn head_lsn(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Appends the write-set of a committed transaction and returns its
    /// frame. Read-only commits (empty log) produce no frame — they ship
    /// nothing and advance no LSN.
    fn commit(&mut self, log: &TxnLog) -> Option<WriteSetFrame> {
        if log.is_empty() {
            return None;
        }
        let frame = WriteSetFrame { lsn: self.head_lsn() + 1, entries: log.len() as u64 };
        self.frames.push(frame);
        Some(frame)
    }

    /// The replay a replica owes to advance from `applied_lsn` to the
    /// current head: the frames in `(applied_lsn, head_lsn]`.
    ///
    /// # Panics
    ///
    /// Panics if `applied_lsn` exceeds the head — a replica can never have
    /// applied a frame the primary has not committed.
    fn catchup_from(&self, applied_lsn: u64) -> CatchupPlan {
        assert!(
            applied_lsn <= self.head_lsn(),
            "replica applied LSN {applied_lsn} beyond head {}",
            self.head_lsn()
        );
        let mut plan = CatchupPlan::default();
        for frame in &self.frames[applied_lsn as usize..] {
            plan.frames += 1;
            plan.bytes += frame.ship_bytes();
            plan.apply_micros += frame.apply_micros();
        }
        plan
    }
}

/// One installed replicated DB tier: the router, the replication stream,
/// the in-flight ship jobs and the failure detector. Owned by the
/// middleware (behind a `RefCell`, like its other per-run state); the
/// router runs on every interaction, the rest on the four events the
/// workload driver forwards.
#[derive(Debug)]
pub struct ReplicationState {
    policy: ReplicaPolicy,
    primary: MachineId,
    replicas: Vec<ReplicaState>,
    rr: usize,
    /// The primary's committed write-set stream.
    stream: ReplicationStream,
    /// In-flight ship and catch-up jobs. A replica has a catch-up in
    /// flight exactly when it has a [`Ship::Catchup`] entry here.
    ships: BTreeMap<JobId, Ship>,
    /// When the current primary was first observed down (heartbeat time);
    /// cleared on recovery or promotion.
    primary_down_since: Option<SimTime>,
    /// Detection-to-promotion latency of each successful failover.
    failover_latencies: Vec<SimDuration>,
    /// Deposed primaries awaiting restart, with the replica id each will
    /// rejoin under.
    ex_primaries: Vec<(usize, MachineId)>,
    /// The id the next deposed primary rejoins under: starts past the
    /// installed ids and only grows, so ids never collide however many
    /// failovers happen.
    next_rejoin_id: usize,
    /// Counters the sweeps report.
    pub stats: ReplicationStats,
}

impl ReplicationState {
    /// Builds the tier: `primary` is the installed `db` machine,
    /// `replica_machines` the replica machines in id order (ids `1..=N`).
    pub fn new(policy: ReplicaPolicy, primary: MachineId, replica_machines: &[MachineId]) -> Self {
        let replicas = replica_machines
            .iter()
            .enumerate()
            .map(|(i, &machine)| ReplicaState {
                id: i + 1,
                machine,
                applied_lsn: 0,
                fenced: false,
                up: true,
            })
            .collect();
        ReplicationState {
            policy,
            primary,
            replicas,
            rr: 0,
            stream: ReplicationStream::default(),
            ships: BTreeMap::new(),
            primary_down_since: None,
            failover_latencies: Vec::new(),
            ex_primaries: Vec::new(),
            next_rejoin_id: replica_machines.len() + 1,
            stats: ReplicationStats::default(),
        }
    }

    /// The failure detector's heartbeat period (at least 1 µs).
    pub fn heartbeat_period(&self) -> SimDuration {
        SimDuration::from_micros(self.policy.heartbeat_us.max(1))
    }

    /// Detection-to-promotion latency of every successful failover, in
    /// occurrence order.
    pub fn failover_latencies(&self) -> &[SimDuration] {
        &self.failover_latencies
    }

    /// Routes one interaction: read-only rotates over readable replicas,
    /// everything else — and reads with no readable replica — goes to the
    /// primary.
    pub(crate) fn route(&mut self, read_only: bool) -> MachineId {
        if !read_only {
            self.stats.writes_to_primary += 1;
            return self.primary;
        }
        let readable: Vec<MachineId> =
            self.replicas.iter().filter(|r| r.readable()).map(|r| r.machine).collect();
        if readable.is_empty() {
            self.stats.reads_to_primary += 1;
            return self.primary;
        }
        let pick = readable[self.rr % readable.len()];
        self.rr += 1;
        self.stats.reads_to_replicas += 1;
        pick
    }

    /// Appends a committed transaction's write-set to the stream and ships
    /// the frame to every readable replica as a `Net → Delay(lag) →
    /// Cpu(apply)` job; commit-driven cache invalidation keys ride the same
    /// frame. A read-only commit (empty log) ships nothing.
    pub fn commit(&mut self, sim: &mut Simulation, log: &TxnLog) {
        let Some(frame) = self.stream.commit(log) else { return };
        for i in 0..self.replicas.len() {
            let r = self.replicas[i];
            if !r.readable() {
                continue;
            }
            let ship = Ship::Frame { replica: r.id, lsn: frame.lsn };
            self.ship(sim, r.machine, frame.ship_bytes(), frame.apply_micros(), ship);
            self.stats.frames_shipped += 1;
            self.stats.invalidations_fanned += frame.entries;
        }
    }

    /// One tick of the failure detector, in this order: sync replica health
    /// from the engine, re-admit restarted ex-primaries, run the
    /// lease-expiry election, and launch catch-up replays for fenced
    /// replicas. Returns the failover this tick carried out, if any. The
    /// caller re-arms the timer after [`heartbeat_period`](Self::heartbeat_period).
    pub fn heartbeat(&mut self, sim: &mut Simulation) -> Option<Failover> {
        let now = sim.now();

        // 1. Health sync: a replica observed down is fenced by `set_up` (it
        //    will miss every frame shipped while it is gone).
        for i in 0..self.replicas.len() {
            let r = self.replicas[i];
            let up = !sim.machine_is_down(r.machine);
            if up != r.up {
                self.set_up(r.id, up);
            }
        }

        // 2. Restarted ex-primaries rejoin as fenced replicas with an empty
        //    log: whatever they knew as primary is treated as lost with the
        //    crash, so they owe a full stream replay before serving reads.
        let mut waiting = std::mem::take(&mut self.ex_primaries);
        waiting.retain(|&(id, machine)| {
            let down = sim.machine_is_down(machine);
            if !down {
                self.rejoin(id, machine);
            }
            down
        });
        self.ex_primaries = waiting;

        // 3. Lease-based failure detection: the primary must be observed
        //    down for a full lease before a replica may be promoted, so a
        //    short blip never produces two machines acting as primary. A
        //    failed round (nobody eligible) is counted inside `elect` and
        //    retried on the next heartbeat.
        let mut failover = None;
        if sim.machine_is_down(self.primary) {
            let detected = *self.primary_down_since.get_or_insert(now);
            if now - detected >= SimDuration::from_micros(self.policy.lease_us) {
                if let Some(election) = self.elect() {
                    self.failover_latencies.push(now - detected);
                    self.primary_down_since = None;
                    failover = Some(Failover { detected, election });
                }
            }
        } else {
            self.primary_down_since = None;
        }

        // 4. Catch-up replays: a fenced-but-up replica replays the stream
        //    span it missed, sourced from the primary — so only while the
        //    primary is serving.
        if !sim.machine_is_down(self.primary) {
            for i in 0..self.replicas.len() {
                let r = self.replicas[i];
                if !r.up || !r.fenced || self.catchup_in_flight(r.id) {
                    continue;
                }
                let head = self.stream.head_lsn();
                let plan = self.stream.catchup_from(r.applied_lsn);
                if plan.frames == 0 {
                    self.unfence(r.id, head);
                    continue;
                }
                let ship = Ship::Catchup { replica: r.id, lsn: head };
                self.ship(sim, r.machine, plan.bytes, plan.apply_micros, ship);
            }
        }
        failover
    }

    /// Settles a finished job if it is one of the tier's ships, and returns
    /// it (`None` for any other job). A finished frame ship advances the
    /// replica's applied LSN; a finished catch-up also unfences the replica
    /// unless the stream head moved while the replay ran (the next
    /// heartbeat ships the remainder).
    pub fn ship_done(&mut self, job: JobId) -> Option<Ship> {
        let ship = self.ships.remove(&job)?;
        match ship {
            Ship::Frame { replica, lsn } => self.applied(replica, lsn),
            Ship::Catchup { replica, lsn } => {
                self.applied(replica, lsn);
                if self.stream.head_lsn() == lsn {
                    self.unfence(replica, lsn);
                }
            }
        }
        Some(ship)
    }

    /// Settles an aborted job if it is one of the tier's ships (`false` for
    /// any other job). A dead frame ship means the replica missed a
    /// committed write-set: fence it until it replays. A dead catch-up is
    /// retried by a later heartbeat (the replica is already fenced).
    pub fn ship_aborted(&mut self, job: JobId) -> bool {
        match self.ships.remove(&job) {
            Some(Ship::Frame { replica, .. }) => self.fence(replica),
            Some(Ship::Catchup { .. }) => {}
            None => return false,
        }
        true
    }

    /// Submits one ship job from the primary to `to` and tracks it.
    fn ship(&mut self, sim: &mut Simulation, to: MachineId, bytes: u64, apply: u64, ship: Ship) {
        let mut t = Trace::with_capacity(SHIP_OPS);
        t.push(Op::Net { from: self.primary, to, bytes });
        t.push(Op::Delay { micros: self.policy.lag_us });
        t.push(Op::Cpu { machine: to, micros: apply });
        let job = sim.submit(t, SHIP_TAG);
        self.ships.insert(job, ship);
    }

    fn catchup_in_flight(&self, id: usize) -> bool {
        self.ships.values().any(|s| matches!(s, Ship::Catchup { replica, .. } if *replica == id))
    }

    /// The replica with stable id `id`, or `None` once it has been
    /// promoted: a frame ship can outlive the election that promotes its
    /// target (when the lag exceeds the lease), and such a frame settles
    /// nothing when it lands or dies.
    fn replica_mut(&mut self, id: usize) -> Option<&mut ReplicaState> {
        self.replicas.iter_mut().find(|r| r.id == id)
    }

    /// Heartbeat sync: records machine health. A replica observed *down*
    /// is fenced on the spot — it will miss every frame committed while it
    /// is gone, so it owes a replay before serving reads again.
    fn set_up(&mut self, id: usize, up: bool) {
        let fence = {
            let r = self.replica_mut(id).expect("health sync visits current replicas");
            let was_up = r.up;
            r.up = up;
            was_up && !up && !r.fenced
        };
        if fence {
            self.fence(id);
        }
    }

    /// Fences a replica (missed a frame). Idempotent; a no-op for a
    /// replica promoted since.
    fn fence(&mut self, id: usize) {
        if let Some(r) = self.replica_mut(id) {
            if !r.fenced {
                r.fenced = true;
                self.stats.fences += 1;
            }
        }
    }

    /// Records a successfully applied frame; a no-op for a replica
    /// promoted since.
    fn applied(&mut self, id: usize, lsn: u64) {
        if let Some(r) = self.replica_mut(id) {
            r.applied_lsn = r.applied_lsn.max(lsn);
        }
    }

    /// Completes a catch-up replay: the replica has applied the stream up
    /// to `lsn` and is readable (and electable) again.
    fn unfence(&mut self, id: usize, lsn: u64) {
        // A replica under catch-up is fenced, hence never elected.
        let r = self.replica_mut(id).expect("a fenced replica is never promoted");
        r.fenced = false;
        r.applied_lsn = r.applied_lsn.max(lsn);
        self.stats.catchups += 1;
    }

    /// Runs one election round: promotes the eligible (up, unfenced)
    /// replica with the highest applied LSN, ties broken by highest id, and
    /// queues the deposed primary to rejoin under the next unused id.
    /// Deterministic — the same replica states always elect the same
    /// winner. Returns `None` (counted) when no replica is eligible.
    fn elect(&mut self) -> Option<ElectionOutcome> {
        let winner = self
            .replicas
            .iter()
            .filter(|r| r.readable())
            .max_by_key(|r| (r.applied_lsn, r.id))
            .copied();
        let Some(w) = winner else {
            self.stats.failed_elections += 1;
            return None;
        };
        self.replicas.retain(|r| r.id != w.id);
        self.ex_primaries.push((self.next_rejoin_id, self.primary));
        self.next_rejoin_id += 1;
        self.primary = w.machine;
        self.rr = 0;
        self.stats.elections += 1;
        Some(ElectionOutcome { winner_id: w.id, machine: w.machine, applied_lsn: w.applied_lsn })
    }

    /// Re-admits a restarted ex-primary as a *fenced* replica with id `id`
    /// and an empty log — it must replay the whole stream before serving
    /// reads.
    fn rejoin(&mut self, id: usize, machine: MachineId) {
        debug_assert!(self.replicas.iter().all(|r| r.id != id), "replica id {id} already joined");
        let r = ReplicaState { id, machine, applied_lsn: 0, fenced: true, up: true };
        self.replicas.push(r);
        self.stats.fences += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamid_sqldb::{ColumnType, Database, TableSchema, Value};

    fn m(n: u32) -> MachineId {
        MachineId(n)
    }

    fn state(n: u32) -> ReplicationState {
        let machines: Vec<MachineId> = (10..10 + n).map(m).collect();
        ReplicationState::new(ReplicaPolicy::default(), m(1), &machines)
    }

    #[test]
    fn writes_go_to_primary_reads_round_robin() {
        let mut s = state(2);
        assert_eq!(s.route(false), m(1));
        assert_eq!(s.route(true), m(10));
        assert_eq!(s.route(true), m(11));
        assert_eq!(s.route(true), m(10));
        assert_eq!(s.stats.writes_to_primary, 1);
        assert_eq!(s.stats.reads_to_replicas, 3);
    }

    #[test]
    fn fenced_and_down_replicas_get_no_reads() {
        let mut s = state(2);
        s.fence(1);
        assert_eq!(s.route(true), m(11));
        s.set_up(2, false);
        // Nobody readable: reads fall back to the primary.
        assert_eq!(s.route(true), m(1));
        assert_eq!(s.stats.reads_to_primary, 1);
        // Going down fences: recovery alone does not make it readable.
        s.set_up(2, true);
        assert_eq!(s.route(true), m(1));
        s.unfence(2, 7);
        assert_eq!(s.route(true), m(11));
        assert_eq!(s.replicas[1].applied_lsn, 7);
    }

    #[test]
    fn election_prefers_highest_lsn_then_highest_id() {
        let mut s = state(3);
        s.applied(1, 5);
        s.applied(2, 9);
        s.applied(3, 9);
        let won = s.elect().expect("eligible replicas");
        // LSN tie between 2 and 3: highest id wins.
        assert_eq!(won.winner_id, 3);
        assert_eq!(s.primary, m(12));
        assert_eq!(s.replicas.len(), 2);
        assert_eq!(s.stats.elections, 1);
    }

    #[test]
    fn election_is_deterministic_for_identical_state() {
        let build = || {
            let mut s = state(4);
            s.applied(1, 3);
            s.applied(2, 8);
            s.applied(3, 8);
            s.fence(3); // best LSN but fenced: ineligible
            s.set_up(4, false); // down: ineligible
            s
        };
        let a = build().elect();
        let b = build().elect();
        assert_eq!(a, b);
        assert_eq!(a.unwrap().winner_id, 2);
    }

    #[test]
    fn election_with_no_eligible_replica_fails_and_counts() {
        let mut s = state(1);
        s.set_up(1, false);
        assert_eq!(s.elect(), None);
        assert_eq!(s.stats.failed_elections, 1);
        // The replica restarts fenced; catch-up makes it electable.
        s.set_up(1, true);
        assert_eq!(s.elect(), None);
        s.unfence(1, 4);
        let won = s.elect().expect("caught-up replica is electable");
        assert_eq!((won.winner_id, won.applied_lsn), (1, 4));
    }

    #[test]
    fn deposed_primary_rejoins_fenced_under_the_next_unused_id() {
        let mut s = state(1);
        s.elect().expect("promote the only replica");
        // Id 1 was installed, so the deposed primary waits to rejoin as 2.
        assert_eq!(s.ex_primaries, [(2, m(1))]);
        s.rejoin(2, m(1));
        assert_eq!(s.replicas.len(), 1);
        assert!(s.replicas[0].fenced);
        assert_eq!(s.replicas[0].id, 2);
        // Fenced rejoiner is not electable until it replays the stream.
        assert_eq!(s.elect(), None);
    }

    fn log_with_entries(n: usize) -> TxnLog {
        // Drive a real transaction so the undo log has `n` entries.
        let mut db = Database::new();
        let schema =
            TableSchema::builder("t").column("id", ColumnType::Int).primary_key("id").build();
        db.create_table(schema.unwrap()).unwrap();
        db.begin_txn().unwrap();
        for i in 0..n {
            db.execute("INSERT INTO t (id) VALUES (?)", &[Value::Int(i as i64)]).unwrap();
        }
        db.commit_txn().unwrap_or_default()
    }

    #[test]
    fn read_only_commits_ship_nothing() {
        let mut stream = ReplicationStream::default();
        assert_eq!(stream.commit(&TxnLog::default()), None);
        assert_eq!(stream.head_lsn(), 0);
    }

    #[test]
    fn lsns_are_dense_and_costs_monotone() {
        let mut stream = ReplicationStream::default();
        let a = stream.commit(&log_with_entries(1)).unwrap();
        let b = stream.commit(&log_with_entries(3)).unwrap();
        assert_eq!((a.lsn, b.lsn), (1, 2));
        assert!(b.ship_bytes() > a.ship_bytes());
        assert!(b.apply_micros() > a.apply_micros());
        assert_eq!(stream.head_lsn(), 2);
    }

    #[test]
    fn catchup_sums_exactly_the_missed_frames() {
        let mut stream = ReplicationStream::default();
        let frames: Vec<WriteSetFrame> =
            (1..=4).map(|n| stream.commit(&log_with_entries(n)).unwrap()).collect();
        let plan = stream.catchup_from(2);
        assert_eq!(plan.frames, 2);
        assert_eq!(plan.bytes, frames[2].ship_bytes() + frames[3].ship_bytes());
        assert_eq!(plan.apply_micros, frames[2].apply_micros() + frames[3].apply_micros());
        // A caught-up replica owes nothing.
        assert_eq!(stream.catchup_from(4), CatchupPlan::default());
    }

    #[test]
    #[should_panic(expected = "beyond head")]
    fn catchup_beyond_head_panics() {
        ReplicationStream::default().catchup_from(1);
    }
}
