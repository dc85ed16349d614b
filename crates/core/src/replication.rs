//! The replicated DB tier's control plane: read routing, replica fencing,
//! and deterministic primary failover.
//!
//! One primary accepts every write and transactional statement; N read
//! replicas serve read-only interactions round-robin. Because host-side SQL
//! executes eagerly against the one shared database at trace-compile time,
//! replicas carry no separate host state — what this module decides is
//! *which simulated machine* each interaction's DB work lands on, and who
//! the primary is after a crash:
//!
//! * **Routing** — read-only interactions rotate over the replicas that are
//!   up and unfenced; everything else (and reads with no readable replica)
//!   goes to the primary.
//! * **Fencing** — a replica that misses a committed write-set frame (it
//!   was down when the frame shipped, or its ship job died with it) is
//!   *fenced*: it serves no reads and cannot win an election until it
//!   replays the replication stream it missed
//!   ([`ReplicationStream::catchup_from`](dynamid_sqldb::ReplicationStream::catchup_from)
//!   prices the replay).
//! * **Election** — when the workload driver observes the primary down past
//!   its lease, [`ReplicationState::elect`] promotes the *caught-up-most*
//!   eligible replica: highest applied LSN, ties broken by highest replica
//!   id — the same "most complete log wins" rule a Raft candidate enforces
//!   via `RequestVote`, collapsed to a deterministic single step because
//!   the simulation serializes the world. No eligible replica means the
//!   election fails (counted) and is retried on the next heartbeat.
//!
//! Everything here is pure bookkeeping driven by the workload driver's
//! heartbeat timer; with [`ReplicaPolicy::replicas`]` == 0` no state is
//! constructed at all and runs are bit-identical to the single-DB path.

use dynamid_sim::MachineId;

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
pub struct ReplicaState {
    /// Stable replica id (election tie-break: highest wins). Replicas
    /// created at install time get ids `1..=N`; a crashed-and-restarted
    /// old primary rejoins with id `0`.
    pub id: usize,
    /// The simulated machine serving this replica.
    pub machine: MachineId,
    /// Newest replication-stream LSN this replica has applied.
    pub applied_lsn: u64,
    /// Fenced: missed at least one frame; unreadable and unelectable until
    /// it replays the stream.
    pub fenced: bool,
    /// Machine health as of the last heartbeat sync.
    pub up: bool,
}

impl ReplicaState {
    /// `true` when the router may send reads here (and an election may
    /// promote it).
    pub fn readable(&self) -> bool {
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
    /// Commit-driven cache invalidations fanned out to replicas (one per
    /// shipped frame that carried invalidation keys).
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

/// The control plane of one installed replicated DB tier. Owned by the
/// middleware (behind a `RefCell`, like its other per-run state); mutated by the
/// router on every interaction and by the workload driver's heartbeat.
#[derive(Debug)]
pub struct ReplicationState {
    policy: ReplicaPolicy,
    primary: MachineId,
    replicas: Vec<ReplicaState>,
    rr: usize,
    /// Counters the sweeps report.
    pub stats: ReplicationStats,
}

impl ReplicationState {
    /// Builds the control plane: `primary` is the installed `db` machine,
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
        ReplicationState { policy, primary, replicas, rr: 0, stats: ReplicationStats::default() }
    }

    /// The policy the tier was installed with.
    pub fn policy(&self) -> ReplicaPolicy {
        self.policy
    }

    /// The current primary's machine.
    pub fn primary(&self) -> MachineId {
        self.primary
    }

    /// Router-visible replica states, in stable iteration order.
    pub fn replicas(&self) -> &[ReplicaState] {
        &self.replicas
    }

    /// Routes one interaction: read-only rotates over readable replicas,
    /// everything else — and reads with no readable replica — goes to the
    /// primary.
    pub fn route(&mut self, read_only: bool) -> MachineId {
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

    fn replica_mut(&mut self, id: usize) -> &mut ReplicaState {
        self.replicas.iter_mut().find(|r| r.id == id).expect("known replica id")
    }

    /// Heartbeat sync: records machine health. A replica observed *down*
    /// is fenced on the spot — it will miss every frame committed while it
    /// is gone, so it owes a replay before serving reads again.
    pub fn set_up(&mut self, id: usize, up: bool) {
        let fence = {
            let r = self.replica_mut(id);
            let was_up = r.up;
            r.up = up;
            was_up && !up && !r.fenced
        };
        if fence {
            self.fence(id);
        }
    }

    /// Fences a replica (missed a frame). Idempotent.
    pub fn fence(&mut self, id: usize) {
        let r = self.replica_mut(id);
        if !r.fenced {
            r.fenced = true;
            self.stats.fences += 1;
        }
    }

    /// Records a successfully applied frame.
    pub fn applied(&mut self, id: usize, lsn: u64) {
        let r = self.replica_mut(id);
        r.applied_lsn = r.applied_lsn.max(lsn);
    }

    /// Completes a catch-up replay: the replica has applied the stream up
    /// to `lsn` and is readable (and electable) again.
    pub fn unfence(&mut self, id: usize, lsn: u64) {
        let r = self.replica_mut(id);
        r.fenced = false;
        r.applied_lsn = r.applied_lsn.max(lsn);
        self.stats.catchups += 1;
    }

    /// Runs one election round: promotes the eligible (up, unfenced)
    /// replica with the highest applied LSN, ties broken by highest id.
    /// Deterministic — the same replica states always elect the same
    /// winner. Returns `None` (counted) when no replica is eligible.
    pub fn elect(&mut self) -> Option<ElectionOutcome> {
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
        self.primary = w.machine;
        self.rr = 0;
        self.stats.elections += 1;
        Some(ElectionOutcome { winner_id: w.id, machine: w.machine, applied_lsn: w.applied_lsn })
    }

    /// Re-admits a restarted ex-primary as a *fenced* replica with id
    /// `id` — it must replay the stream it missed before serving reads.
    pub fn rejoin(&mut self, id: usize, machine: MachineId, applied_lsn: u64) {
        debug_assert!(self.replicas.iter().all(|r| r.id != id), "replica id {id} already joined");
        self.replicas.push(ReplicaState { id, machine, applied_lsn, fenced: true, up: true });
        self.stats.fences += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamid_sim::MachineId;

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
        assert_eq!(s.replicas()[1].applied_lsn, 7);
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
        assert_eq!(s.primary(), m(12));
        assert_eq!(s.replicas().len(), 2);
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
    fn ex_primary_rejoins_fenced() {
        let mut s = state(1);
        s.elect().expect("promote the only replica");
        s.rejoin(0, m(1), 0);
        assert_eq!(s.replicas().len(), 1);
        assert!(s.replicas()[0].fenced);
        // Fenced rejoiner is not electable until it replays the stream.
        assert_eq!(s.elect(), None);
    }
}
