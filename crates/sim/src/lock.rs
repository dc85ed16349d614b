//! Queued read/write locks and counting semaphores.
//!
//! The database's MyISAM-style **table locks** and the servlet container's
//! **application-level locks** (the paper's "sync" configurations) are both
//! instances of the read/write lock implemented here; the Apache process
//! pool is a counting semaphore. Jobs that cannot be granted a lock are
//! parked by the engine and resumed when the release path grants them, so
//! lock *queueing delay* is a first-class part of simulated response time —
//! this is what produces the paper's lock-contention plateaus and dips.

use crate::engine::JobId;
use crate::hash::IdMap;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// Identifies a lock registered with a [`LockManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

/// Identifies a semaphore registered with a [`LockManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SemaphoreId(pub u32);

/// Lock compatibility mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) access: compatible with other shared holders.
    Shared,
    /// Exclusive (write) access: compatible with nothing.
    Exclusive,
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Shared => write!(f, "READ"),
            LockMode::Exclusive => write!(f, "WRITE"),
        }
    }
}

/// How waiting requests are granted on release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GrantPolicy {
    /// Strict arrival order; a shared request queues behind an earlier
    /// exclusive request.
    Fifo,
    /// MySQL/MyISAM semantics: waiting writers are preferred over waiting
    /// and newly arriving readers.
    #[default]
    WriterPriority,
}

/// Outcome of a semaphore acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemGrant {
    /// A unit was granted immediately.
    Granted,
    /// No unit was free; the job is queued and will be handed one by a
    /// later [`LockManager::sem_release`].
    Queued,
    /// The semaphore is bounded and its wait queue is full: the request is
    /// refused outright (admission control sheds the job instead of letting
    /// the queue grow without bound).
    Rejected,
}

/// Cumulative per-lock statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LockStats {
    /// Requests granted immediately.
    pub immediate_grants: u64,
    /// Requests that had to wait.
    pub contended: u64,
    /// Requests refused because a bounded wait queue was full (semaphores
    /// with an admission bound only).
    pub rejected: u64,
    /// Waiters dropped at dequeue because they had already waited longer
    /// than the semaphore's shed target (deadline-aware shedding only).
    pub shed: u64,
    /// Total microseconds spent waiting, summed over jobs.
    pub wait_micros: u64,
    /// Total microseconds locks were held, summed over holders.
    pub hold_micros: u64,
    /// Largest observed wait-queue length.
    pub max_queue: usize,
}

#[derive(Debug)]
struct LockState {
    name: String,
    readers: Vec<JobId>,
    writer: Option<JobId>,
    queue: VecDeque<(JobId, LockMode, SimTime)>,
    granted_at: IdMap<JobId, SimTime>,
    stats: LockStats,
}

impl LockState {
    fn is_free(&self) -> bool {
        self.readers.is_empty() && self.writer.is_none()
    }

    fn writer_waiting(&self) -> bool {
        self.queue.iter().any(|(_, m, _)| *m == LockMode::Exclusive)
    }

    fn record_grant(&mut self, now: SimTime, job: JobId) {
        self.granted_at.insert(job, now);
    }
}

#[derive(Debug)]
struct Semaphore {
    name: String,
    capacity: u32,
    in_use: u32,
    /// Admission bound: when `Some(n)`, at most `n` jobs may wait; further
    /// acquisitions are rejected instead of queued.
    max_waiters: Option<u32>,
    /// Deadline-aware shed target in microseconds: when `Some(t)`, a
    /// release drops (returns as shed) every queued waiter that has already
    /// waited longer than `t` before handing the unit to the first live one.
    shed_target: Option<u64>,
    queue: VecDeque<(JobId, SimTime)>,
    stats: LockStats,
}

/// Outcome of [`LockManager::sem_release`]: the waiter granted the unit, if
/// any, plus every stale waiter shed at dequeue by the semaphore's shed
/// target. Shed jobs no longer wait on the semaphore and hold no unit; the
/// engine is responsible for tearing them down.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SemRelease {
    /// The job handed the released unit, if a live waiter existed.
    pub granted: Option<JobId>,
    /// Waiters dropped because their queueing delay exceeded the shed
    /// target, in arrival order.
    pub shed: Vec<JobId>,
}

/// Registry and grant engine for all locks and semaphores in a simulation.
///
/// ```
/// use dynamid_sim::{LockManager, LockMode, SimTime};
/// use dynamid_sim::engine::JobId;
/// let mut lm = LockManager::default();
/// let l = lm.register_lock("items");
/// assert!(lm.acquire(SimTime::ZERO, l, LockMode::Exclusive, JobId(1)));
/// assert!(!lm.acquire(SimTime::ZERO, l, LockMode::Shared, JobId(2)));
/// let granted = lm.release(SimTime::from_micros(10), l, JobId(1));
/// assert_eq!(granted, vec![JobId(2)]);
/// ```
#[derive(Debug, Default)]
pub struct LockManager {
    locks: Vec<LockState>,
    sems: Vec<Semaphore>,
    policy: GrantPolicy,
}

impl LockManager {
    /// Creates a manager with the given grant policy.
    pub fn new(policy: GrantPolicy) -> Self {
        LockManager { locks: Vec::new(), sems: Vec::new(), policy }
    }

    /// The grant policy in effect.
    pub fn policy(&self) -> GrantPolicy {
        self.policy
    }

    /// Registers a named read/write lock and returns its id.
    pub fn register_lock(&mut self, name: impl Into<String>) -> LockId {
        let id = LockId(self.locks.len() as u32);
        self.locks.push(LockState {
            name: name.into(),
            readers: Vec::new(),
            writer: None,
            queue: VecDeque::new(),
            granted_at: IdMap::default(),
            stats: LockStats::default(),
        });
        id
    }

    /// Registers a counting semaphore with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn register_semaphore(&mut self, name: impl Into<String>, capacity: u32) -> SemaphoreId {
        self.register_sem_inner(name.into(), capacity, None)
    }

    /// Registers a counting semaphore whose wait queue is bounded: when
    /// `max_waiters` jobs are already queued, further acquisitions are
    /// [`SemGrant::Rejected`] instead of queued. This is the admission-control
    /// primitive behind per-tier accept queues.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn register_semaphore_bounded(
        &mut self,
        name: impl Into<String>,
        capacity: u32,
        max_waiters: u32,
    ) -> SemaphoreId {
        self.register_sem_inner(name.into(), capacity, Some(max_waiters))
    }

    fn register_sem_inner(
        &mut self,
        name: String,
        capacity: u32,
        max_waiters: Option<u32>,
    ) -> SemaphoreId {
        assert!(capacity > 0, "semaphore capacity must be positive");
        let id = SemaphoreId(self.sems.len() as u32);
        self.sems.push(Semaphore {
            name,
            capacity,
            in_use: 0,
            max_waiters,
            shed_target: None,
            queue: VecDeque::new(),
            stats: LockStats::default(),
        });
        id
    }

    /// Sets (or clears) the deadline-aware shed target of a semaphore.
    /// While `Some(t)`, each release first drops every queued waiter whose
    /// queueing delay already exceeds `t` micros — serving such a request
    /// would only burn capacity on work its client has given up on
    /// (CoDel-style shedding at dequeue). `None` (the default) disables
    /// shedding; behavior is then identical to a plain semaphore.
    pub fn set_sem_shed_target(&mut self, sem: SemaphoreId, target_micros: Option<u64>) {
        self.sems[sem.0 as usize].shed_target = target_micros;
    }

    /// Number of registered locks.
    pub fn lock_count(&self) -> usize {
        self.locks.len()
    }

    /// The display name of a lock.
    pub fn lock_name(&self, lock: LockId) -> &str {
        &self.locks[lock.0 as usize].name
    }

    /// Statistics for a lock.
    pub fn lock_stats(&self, lock: LockId) -> LockStats {
        self.locks[lock.0 as usize].stats
    }

    /// Number of registered semaphores.
    pub fn semaphore_count(&self) -> usize {
        self.sems.len()
    }

    /// The display name of a semaphore.
    pub fn semaphore_name(&self, sem: SemaphoreId) -> &str {
        &self.sems[sem.0 as usize].name
    }

    /// Statistics for a semaphore.
    pub fn semaphore_stats(&self, sem: SemaphoreId) -> LockStats {
        self.sems[sem.0 as usize].stats
    }

    /// Aggregate statistics over all locks (not semaphores).
    pub fn total_lock_stats(&self) -> LockStats {
        let mut agg = LockStats::default();
        for l in &self.locks {
            agg.immediate_grants += l.stats.immediate_grants;
            agg.contended += l.stats.contended;
            agg.wait_micros += l.stats.wait_micros;
            agg.hold_micros += l.stats.hold_micros;
            agg.max_queue = agg.max_queue.max(l.stats.max_queue);
        }
        agg
    }

    /// Requests `lock` in `mode` for `job`. Returns `true` when granted
    /// immediately; otherwise the job is queued and will be returned by a
    /// later [`release`](LockManager::release).
    ///
    /// # Panics
    ///
    /// Panics if the job already holds or is already waiting for this lock
    /// (the middleware layer never issues re-entrant table locks).
    pub fn acquire(&mut self, now: SimTime, lock: LockId, mode: LockMode, job: JobId) -> bool {
        let policy = self.policy;
        let st = &mut self.locks[lock.0 as usize];
        assert!(
            st.writer != Some(job)
                && !st.readers.contains(&job)
                && !st.queue.iter().any(|(j, _, _)| *j == job),
            "job {job:?} re-requested lock {}",
            st.name
        );
        let grantable = match mode {
            LockMode::Shared => {
                st.writer.is_none()
                    && match policy {
                        GrantPolicy::Fifo => st.queue.is_empty(),
                        GrantPolicy::WriterPriority => !st.writer_waiting(),
                    }
            }
            LockMode::Exclusive => st.is_free() && st.queue.is_empty(),
        };
        if grantable {
            match mode {
                LockMode::Shared => st.readers.push(job),
                LockMode::Exclusive => st.writer = Some(job),
            }
            st.record_grant(now, job);
            st.stats.immediate_grants += 1;
            true
        } else {
            st.queue.push_back((job, mode, now));
            st.stats.contended += 1;
            st.stats.max_queue = st.stats.max_queue.max(st.queue.len());
            false
        }
    }

    /// Releases `lock` held by `job` and grants waiting requests according
    /// to the policy. Returns the jobs granted by this release, in grant
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the job does not hold the lock.
    pub fn release(&mut self, now: SimTime, lock: LockId, job: JobId) -> Vec<JobId> {
        let policy = self.policy;
        let st = &mut self.locks[lock.0 as usize];
        if st.writer == Some(job) {
            st.writer = None;
        } else if let Some(pos) = st.readers.iter().position(|j| *j == job) {
            st.readers.swap_remove(pos);
        } else {
            panic!("job {job:?} released lock {} it does not hold", st.name);
        }
        if let Some(granted) = st.granted_at.remove(&job) {
            st.stats.hold_micros += now.duration_since(granted).as_micros();
        }
        Self::grant_waiters(st, policy, now)
    }

    fn grant_waiters(st: &mut LockState, policy: GrantPolicy, now: SimTime) -> Vec<JobId> {
        let mut granted = Vec::new();
        loop {
            // Pick the next candidate position according to the policy.
            let candidate = match policy {
                GrantPolicy::Fifo => {
                    if st.queue.is_empty() {
                        None
                    } else {
                        Some(0)
                    }
                }
                GrantPolicy::WriterPriority => {
                    let writer_pos =
                        st.queue.iter().position(|(_, m, _)| *m == LockMode::Exclusive);
                    match writer_pos {
                        Some(p) if st.is_free() => Some(p),
                        // A writer waits but the lock is not free: nothing
                        // can be granted (readers would starve the writer).
                        Some(_) => None,
                        // No writer waiting: grant readers from the front.
                        None => {
                            if st.queue.is_empty() {
                                None
                            } else {
                                Some(0)
                            }
                        }
                    }
                }
            };
            let Some(pos) = candidate else { break };
            let (job, mode, since) = st.queue[pos];
            let ok = match mode {
                LockMode::Shared => st.writer.is_none(),
                LockMode::Exclusive => st.is_free(),
            };
            if !ok {
                break;
            }
            st.queue.remove(pos);
            match mode {
                LockMode::Shared => st.readers.push(job),
                LockMode::Exclusive => st.writer = Some(job),
            }
            st.stats.wait_micros += now.duration_since(since).as_micros();
            st.record_grant(now, job);
            granted.push(job);
            if mode == LockMode::Exclusive {
                break;
            }
        }
        granted
    }

    /// `true` if the lock currently has any holder.
    pub fn is_held(&self, lock: LockId) -> bool {
        !self.locks[lock.0 as usize].is_free()
    }

    /// Requests one unit of `sem` for `job`. The job queues when no unit is
    /// free, unless the semaphore is bounded and its queue is full, in which
    /// case the request is rejected outright.
    pub fn sem_acquire(&mut self, now: SimTime, sem: SemaphoreId, job: JobId) -> SemGrant {
        let s = &mut self.sems[sem.0 as usize];
        if s.in_use < s.capacity {
            s.in_use += 1;
            s.stats.immediate_grants += 1;
            SemGrant::Granted
        } else if s.max_waiters.is_some_and(|max| s.queue.len() >= max as usize) {
            s.stats.rejected += 1;
            SemGrant::Rejected
        } else {
            s.queue.push_back((job, now));
            s.stats.contended += 1;
            s.stats.max_queue = s.stats.max_queue.max(s.queue.len());
            SemGrant::Queued
        }
    }

    /// Releases one unit of `sem`; returns the job granted by this release
    /// (if any) plus any stale waiters shed at dequeue by the semaphore's
    /// shed target. Shed waiters never receive the unit — the queue is FIFO,
    /// so the scan stops at the first waiter fresh enough to serve.
    ///
    /// # Panics
    ///
    /// Panics if the semaphore has no units in use.
    pub fn sem_release(&mut self, now: SimTime, sem: SemaphoreId) -> SemRelease {
        let s = &mut self.sems[sem.0 as usize];
        assert!(s.in_use > 0, "semaphore {} over-released", s.name);
        let mut out = SemRelease::default();
        if let Some(target) = s.shed_target {
            while let Some(&(job, since)) = s.queue.front() {
                if now.duration_since(since).as_micros() <= target {
                    break;
                }
                s.queue.pop_front();
                s.stats.shed += 1;
                out.shed.push(job);
            }
        }
        if let Some((job, since)) = s.queue.pop_front() {
            // Hand the unit directly to the waiter.
            s.stats.wait_micros += now.duration_since(since).as_micros();
            out.granted = Some(job);
        } else {
            s.in_use -= 1;
        }
        out
    }

    /// Units of the semaphore currently in use.
    pub fn sem_in_use(&self, sem: SemaphoreId) -> u32 {
        self.sems[sem.0 as usize].in_use
    }

    /// `true` if `job` currently holds `lock` (as reader or writer).
    pub fn holds(&self, lock: LockId, job: JobId) -> bool {
        let st = &self.locks[lock.0 as usize];
        st.writer == Some(job) || st.readers.contains(&job)
    }

    /// Every current holder of `lock`: the writer, or the readers in
    /// acquisition order. Deterministic — deadlock detection walks these
    /// edges and its victim choice must not depend on hash order.
    pub fn holders(&self, lock: LockId) -> Vec<JobId> {
        let st = &self.locks[lock.0 as usize];
        st.writer.into_iter().chain(st.readers.iter().copied()).collect()
    }

    /// The lock `job` is currently queued on, if any. A job waits on at
    /// most one lock at a time (traces are linear).
    pub fn waiting_on(&self, job: JobId) -> Option<LockId> {
        self.locks.iter().enumerate().find_map(|(i, st)| {
            st.queue.iter().any(|(j, _, _)| *j == job).then_some(LockId(i as u32))
        })
    }

    /// `true` if `job` holds `lock` or is queued waiting for it.
    pub fn is_holder_or_waiter(&self, lock: LockId, job: JobId) -> bool {
        self.holds(lock, job) || self.locks[lock.0 as usize].queue.iter().any(|(j, _, _)| *j == job)
    }

    /// Removes `job` from `lock`'s wait queue (abort path). Removing a
    /// waiter can make the lock grantable to jobs queued behind it (e.g., a
    /// cancelled writer was blocking readers), so this runs the grant pass
    /// and returns any jobs granted as a result. Returns an empty vec when
    /// the job was not waiting.
    pub fn cancel_waiting(&mut self, now: SimTime, lock: LockId, job: JobId) -> Vec<JobId> {
        let policy = self.policy;
        let st = &mut self.locks[lock.0 as usize];
        let Some(pos) = st.queue.iter().position(|(j, _, _)| *j == job) else {
            return Vec::new();
        };
        st.queue.remove(pos);
        Self::grant_waiters(st, policy, now)
    }

    /// Removes `job` from `sem`'s wait queue (abort path). Returns `true`
    /// if the job was waiting. Removing a waiter never grants anyone (units
    /// are handed out on release only).
    pub fn sem_cancel_waiting(&mut self, sem: SemaphoreId, job: JobId) -> bool {
        let s = &mut self.sems[sem.0 as usize];
        if let Some(pos) = s.queue.iter().position(|(j, _)| *j == job) {
            s.queue.remove(pos);
            true
        } else {
            false
        }
    }

    /// `true` if releasing one unit of `sem` is currently legal (at least
    /// one unit is in use). Used by the engine to surface a structured error
    /// instead of panicking on a malformed trace.
    pub fn sem_can_release(&self, sem: SemaphoreId) -> bool {
        self.sems[sem.0 as usize].in_use > 0
    }

    /// Describes any lock or semaphore state that should not survive a
    /// drained simulation — a held lock, a queued waiter, or a semaphore
    /// unit still in use. Returns `None` when everything is quiescent.
    /// Aborted jobs must leave no trace here.
    pub fn leak_report(&self) -> Option<String> {
        for st in &self.locks {
            if !st.is_free() {
                return Some(format!(
                    "lock {} still held (writer {:?}, {} readers)",
                    st.name,
                    st.writer,
                    st.readers.len()
                ));
            }
            if !st.queue.is_empty() {
                return Some(format!("lock {} has {} stranded waiters", st.name, st.queue.len()));
            }
        }
        for s in &self.sems {
            if s.in_use > 0 {
                return Some(format!("semaphore {} has {} leaked units", s.name, s.in_use));
            }
            if !s.queue.is_empty() {
                return Some(format!(
                    "semaphore {} has {} stranded waiters",
                    s.name,
                    s.queue.len()
                ));
            }
        }
        None
    }

    /// `true` when no lock is held or waited on and no semaphore unit is in
    /// use — the expected state after a drained run with aborts.
    pub fn is_quiescent(&self) -> bool {
        self.leak_report().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::default();
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Shared, JobId(1)));
        assert!(lm.acquire(t(0), l, LockMode::Shared, JobId(2)));
        assert!(lm.is_held(l));
        assert!(lm.release(t(5), l, JobId(1)).is_empty());
        assert!(lm.release(t(9), l, JobId(2)).is_empty());
        assert!(!lm.is_held(l));
        let s = lm.lock_stats(l);
        assert_eq!(s.immediate_grants, 2);
        assert_eq!(s.hold_micros, 5 + 9);
    }

    #[test]
    fn exclusive_excludes_everyone() {
        let mut lm = LockManager::default();
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Exclusive, JobId(1)));
        assert!(!lm.acquire(t(1), l, LockMode::Shared, JobId(2)));
        assert!(!lm.acquire(t(2), l, LockMode::Exclusive, JobId(3)));
        assert_eq!(lm.waiting_on(JobId(2)), Some(l));
        assert_eq!(lm.waiting_on(JobId(3)), Some(l));
    }

    #[test]
    fn fifo_grants_in_arrival_order() {
        let mut lm = LockManager::new(GrantPolicy::Fifo);
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Exclusive, JobId(1)));
        assert!(!lm.acquire(t(1), l, LockMode::Shared, JobId(2)));
        assert!(!lm.acquire(t(2), l, LockMode::Exclusive, JobId(3)));
        assert!(!lm.acquire(t(3), l, LockMode::Shared, JobId(4)));
        // Release grants the head (shared J2) only, because J3 (exclusive)
        // is next and blocks J4.
        assert_eq!(lm.release(t(10), l, JobId(1)), vec![JobId(2)]);
        assert_eq!(lm.release(t(20), l, JobId(2)), vec![JobId(3)]);
        assert_eq!(lm.release(t(30), l, JobId(3)), vec![JobId(4)]);
    }

    #[test]
    fn writer_priority_prefers_writers() {
        let mut lm = LockManager::new(GrantPolicy::WriterPriority);
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Exclusive, JobId(1)));
        assert!(!lm.acquire(t(1), l, LockMode::Shared, JobId(2)));
        assert!(!lm.acquire(t(2), l, LockMode::Exclusive, JobId(3)));
        // The waiting writer J3 jumps ahead of the earlier reader J2.
        assert_eq!(lm.release(t(10), l, JobId(1)), vec![JobId(3)]);
        assert_eq!(lm.release(t(20), l, JobId(3)), vec![JobId(2)]);
    }

    #[test]
    fn writer_priority_blocks_new_readers_when_writer_waits() {
        let mut lm = LockManager::new(GrantPolicy::WriterPriority);
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Shared, JobId(1)));
        assert!(!lm.acquire(t(1), l, LockMode::Exclusive, JobId(2)));
        // A new reader must queue behind the waiting writer.
        assert!(!lm.acquire(t(2), l, LockMode::Shared, JobId(3)));
        assert_eq!(lm.release(t(10), l, JobId(1)), vec![JobId(2)]);
        assert_eq!(lm.release(t(20), l, JobId(2)), vec![JobId(3)]);
    }

    #[test]
    fn release_grants_batch_of_readers() {
        let mut lm = LockManager::new(GrantPolicy::Fifo);
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Exclusive, JobId(1)));
        for j in 2..=4 {
            assert!(!lm.acquire(t(j), l, LockMode::Shared, JobId(j)));
        }
        let granted = lm.release(t(10), l, JobId(1));
        assert_eq!(granted, vec![JobId(2), JobId(3), JobId(4)]);
    }

    #[test]
    fn wait_time_is_accounted() {
        let mut lm = LockManager::default();
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Exclusive, JobId(1)));
        assert!(!lm.acquire(t(100), l, LockMode::Exclusive, JobId(2)));
        lm.release(t(400), l, JobId(1));
        assert_eq!(lm.lock_stats(l).wait_micros, 300);
        assert_eq!(lm.lock_stats(l).contended, 1);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn release_without_hold_panics() {
        let mut lm = LockManager::default();
        let l = lm.register_lock("t");
        lm.release(t(0), l, JobId(1));
    }

    #[test]
    #[should_panic(expected = "re-requested")]
    fn reentrant_acquire_panics() {
        let mut lm = LockManager::default();
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Shared, JobId(1)));
        lm.acquire(t(1), l, LockMode::Shared, JobId(1));
    }

    #[test]
    fn semaphore_caps_concurrency() {
        let mut lm = LockManager::default();
        let s = lm.register_semaphore("httpd", 2);
        assert_eq!(lm.sem_acquire(t(0), s, JobId(1)), SemGrant::Granted);
        assert_eq!(lm.sem_acquire(t(0), s, JobId(2)), SemGrant::Granted);
        assert_eq!(lm.sem_acquire(t(1), s, JobId(3)), SemGrant::Queued);
        assert_eq!(lm.sem_in_use(s), 2);
        // Releasing hands the unit to the waiter directly.
        assert_eq!(lm.sem_release(t(5), s).granted, Some(JobId(3)));
        assert_eq!(lm.sem_in_use(s), 2);
        assert_eq!(lm.sem_release(t(6), s).granted, None);
        assert_eq!(lm.sem_release(t(7), s).granted, None);
        assert_eq!(lm.sem_in_use(s), 0);
        assert_eq!(lm.semaphore_stats(s).wait_micros, 4);
    }

    #[test]
    fn bounded_semaphore_rejects_when_queue_full() {
        let mut lm = LockManager::default();
        let s = lm.register_semaphore_bounded("accept", 1, 1);
        assert_eq!(lm.sem_acquire(t(0), s, JobId(1)), SemGrant::Granted);
        assert_eq!(lm.sem_acquire(t(0), s, JobId(2)), SemGrant::Queued);
        // Queue bound of 1 is reached: the third request is shed.
        assert_eq!(lm.sem_acquire(t(1), s, JobId(3)), SemGrant::Rejected);
        assert_eq!(lm.semaphore_stats(s).rejected, 1);
        // A rejection leaves no state behind: release hands the unit to the
        // one legitimate waiter, then the pool drains clean.
        assert_eq!(lm.sem_release(t(5), s).granted, Some(JobId(2)));
        assert_eq!(lm.sem_release(t(6), s).granted, None);
        assert!(lm.is_quiescent());
    }

    #[test]
    fn shed_target_drops_stale_waiters_at_dequeue() {
        let mut lm = LockManager::default();
        let s = lm.register_semaphore("pool", 1);
        lm.set_sem_shed_target(s, Some(100));
        assert_eq!(lm.sem_acquire(t(0), s, JobId(1)), SemGrant::Granted);
        assert_eq!(lm.sem_acquire(t(10), s, JobId(2)), SemGrant::Queued);
        assert_eq!(lm.sem_acquire(t(20), s, JobId(3)), SemGrant::Queued);
        assert_eq!(lm.sem_acquire(t(150), s, JobId(4)), SemGrant::Queued);
        // At t=200, J2 waited 190 and J3 waited 180 — both past the target.
        // J4 waited 50 and gets the unit.
        let r = lm.sem_release(t(200), s);
        assert_eq!(r.shed, vec![JobId(2), JobId(3)]);
        assert_eq!(r.granted, Some(JobId(4)));
        assert_eq!(lm.sem_in_use(s), 1);
        assert_eq!(lm.semaphore_stats(s).shed, 2);
        // Shed jobs hold nothing: one more release drains clean.
        let r = lm.sem_release(t(210), s);
        assert_eq!(r, SemRelease::default());
        assert!(lm.is_quiescent());
    }

    #[test]
    fn shed_release_with_all_waiters_stale_frees_the_unit() {
        let mut lm = LockManager::default();
        let s = lm.register_semaphore("pool", 1);
        lm.set_sem_shed_target(s, Some(5));
        assert_eq!(lm.sem_acquire(t(0), s, JobId(1)), SemGrant::Granted);
        assert_eq!(lm.sem_acquire(t(1), s, JobId(2)), SemGrant::Queued);
        let r = lm.sem_release(t(100), s);
        assert_eq!(r.shed, vec![JobId(2)]);
        assert_eq!(r.granted, None);
        assert_eq!(lm.sem_in_use(s), 0);
        assert!(lm.is_quiescent());
    }

    #[test]
    fn shed_target_none_is_a_plain_semaphore() {
        let mut lm = LockManager::default();
        let s = lm.register_semaphore("pool", 1);
        lm.set_sem_shed_target(s, Some(1));
        lm.set_sem_shed_target(s, None);
        assert_eq!(lm.sem_acquire(t(0), s, JobId(1)), SemGrant::Granted);
        assert_eq!(lm.sem_acquire(t(1), s, JobId(2)), SemGrant::Queued);
        // An hour-long wait is still granted when shedding is off.
        let r = lm.sem_release(t(3_600_000_000), s);
        assert_eq!(r.granted, Some(JobId(2)));
        assert!(r.shed.is_empty());
    }

    #[test]
    fn zero_queue_bound_rejects_any_overflow() {
        let mut lm = LockManager::default();
        let s = lm.register_semaphore_bounded("accept", 1, 0);
        assert_eq!(lm.sem_acquire(t(0), s, JobId(1)), SemGrant::Granted);
        assert_eq!(lm.sem_acquire(t(0), s, JobId(2)), SemGrant::Rejected);
    }

    #[test]
    fn cancel_waiting_writer_unblocks_readers() {
        let mut lm = LockManager::new(GrantPolicy::WriterPriority);
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Shared, JobId(1)));
        // A waiting writer blocks new readers under writer priority.
        assert!(!lm.acquire(t(1), l, LockMode::Exclusive, JobId(2)));
        assert!(!lm.acquire(t(2), l, LockMode::Shared, JobId(3)));
        // Aborting the writer must re-run the grant pass so the stranded
        // reader joins the current read crowd immediately.
        assert_eq!(lm.cancel_waiting(t(3), l, JobId(2)), vec![JobId(3)]);
        assert!(lm.holds(l, JobId(3)));
        lm.release(t(4), l, JobId(1));
        lm.release(t(5), l, JobId(3));
        assert!(lm.is_quiescent());
    }

    #[test]
    fn cancel_waiting_absent_job_is_noop() {
        let mut lm = LockManager::default();
        let l = lm.register_lock("t");
        assert!(lm.cancel_waiting(t(0), l, JobId(9)).is_empty());
        let s = lm.register_semaphore("p", 1);
        assert!(!lm.sem_cancel_waiting(s, JobId(9)));
    }

    #[test]
    fn holder_and_waiter_queries() {
        let mut lm = LockManager::default();
        let l = lm.register_lock("t");
        assert!(lm.acquire(t(0), l, LockMode::Exclusive, JobId(1)));
        assert!(!lm.acquire(t(1), l, LockMode::Shared, JobId(2)));
        assert!(lm.holds(l, JobId(1)));
        assert!(!lm.holds(l, JobId(2)));
        assert!(lm.is_holder_or_waiter(l, JobId(2)));
        assert!(!lm.is_holder_or_waiter(l, JobId(3)));
    }

    #[test]
    fn leak_report_flags_held_state() {
        let mut lm = LockManager::default();
        let l = lm.register_lock("t");
        assert!(lm.is_quiescent());
        assert!(lm.acquire(t(0), l, LockMode::Exclusive, JobId(1)));
        assert!(lm.leak_report().unwrap().contains("still held"));
        lm.release(t(1), l, JobId(1));
        let s = lm.register_semaphore("p", 1);
        assert_eq!(lm.sem_acquire(t(2), s, JobId(1)), SemGrant::Granted);
        assert!(lm.leak_report().unwrap().contains("leaked units"));
        lm.sem_release(t(3), s);
        assert!(lm.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn semaphore_over_release_panics() {
        let mut lm = LockManager::default();
        let s = lm.register_semaphore("x", 1);
        lm.sem_release(t(0), s);
    }

    #[test]
    fn aggregate_stats_roll_up() {
        let mut lm = LockManager::default();
        let a = lm.register_lock("a");
        let b = lm.register_lock("b");
        assert!(lm.acquire(t(0), a, LockMode::Exclusive, JobId(1)));
        assert!(lm.acquire(t(0), b, LockMode::Exclusive, JobId(2)));
        assert!(!lm.acquire(t(1), a, LockMode::Shared, JobId(3)));
        lm.release(t(10), a, JobId(1));
        lm.release(t(10), b, JobId(2));
        let s = lm.total_lock_stats();
        assert_eq!(s.immediate_grants, 2);
        assert_eq!(s.contended, 1);
        assert_eq!(s.hold_micros, 20);
    }
}
