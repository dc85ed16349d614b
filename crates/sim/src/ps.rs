//! Processor-sharing service resource.
//!
//! CPUs and network interfaces are modeled as *processor-sharing* (PS)
//! queues: all jobs in service receive an equal share of the resource's
//! capacity. PS is the standard approximation for time-sliced CPUs and for
//! packet-interleaved links, and it is what makes the paper's saturation
//! phenomena (response times ballooning past the knee, throughput plateaus at
//! capacity) emerge naturally.
//!
//! The implementation uses the classic *virtual-time* formulation so every
//! operation is `O(log n)` in the number of jobs in service: a virtual clock
//! `V` advances at rate `capacity / n`, a job arriving with service demand
//! `d` is assigned virtual finish time `V + d`, and jobs complete in virtual
//! finish order.
//!
//! The jobs in service sit in one binary min-heap keyed on
//! `(finish, seq)`. The arrival sequence number makes that key a total
//! order, so the heap pops in exactly the order an ordered set would; a
//! resource rarely holds more than a few jobs, and the heap keeps them in
//! one contiguous buffer. Only the abort path needs to find a job by id,
//! and it removes it with a linear `retain`.

use crate::engine::JobId;
use crate::hash::IdSet;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tolerance (in service units) when popping completed jobs, to absorb
/// floating-point rounding from the virtual-time bookkeeping.
const COMPLETION_EPS: f64 = 1e-3;

/// Key ordering jobs by virtual finish time, with an arrival sequence number
/// breaking ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VirtKey {
    finish: f64,
    seq: u64,
}

impl Eq for VirtKey {}

impl PartialOrd for VirtKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VirtKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish.total_cmp(&other.finish).then(self.seq.cmp(&other.seq))
    }
}

/// Cumulative statistics for a [`PsResource`], exposed for utilization and
/// throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PsStats {
    /// Microseconds during which at least one job was in service.
    pub busy_micros: f64,
    /// Total service units delivered (for a CPU, CPU-microseconds).
    pub work_done: f64,
    /// Number of jobs that entered service.
    pub arrivals: u64,
    /// Number of jobs that completed service.
    pub completions: u64,
}

/// A processor-sharing resource with fixed capacity.
///
/// `capacity` is in *service units per microsecond*: a 1-core CPU has
/// capacity `1.0` with demands expressed in CPU-microseconds; a 100 Mb/s NIC
/// has capacity `12.5` with demands expressed in bytes.
///
/// ```
/// use dynamid_sim::{PsResource, SimTime};
/// use dynamid_sim::engine::JobId;
/// let mut cpu = PsResource::new("cpu", 1.0);
/// cpu.enqueue(SimTime::ZERO, JobId(1), 100.0);
/// let done = cpu.next_completion(SimTime::ZERO).unwrap();
/// assert_eq!(done.as_micros(), 100);
/// ```
#[derive(Debug)]
pub struct PsResource {
    name: String,
    capacity: f64,
    /// Fastest rate a single job may be served at (1.0 for a CPU core;
    /// equal to `capacity` for a NIC, where one transfer can use the full
    /// link).
    per_job_cap: f64,
    /// Virtual clock: service units accrued per job since the last idle
    /// period.
    virt: f64,
    last_update: SimTime,
    /// Jobs in service, earliest virtual finish on top.
    active: BinaryHeap<Reverse<(VirtKey, JobId)>>,
    /// The ids in `active`, for the duplicate-enqueue check and `cancel`.
    members: IdSet<JobId>,
    seq: u64,
    /// Epoch counter used by the engine to invalidate stale completion
    /// events after the active set changes.
    epoch: u64,
    stats: PsStats,
}

impl PsResource {
    /// Creates a resource with the given display name and capacity in
    /// service units per microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive.
    pub fn new(name: impl Into<String>, capacity: f64) -> Self {
        Self::with_job_cap(name, capacity, capacity)
    }

    /// Creates a resource where a single job is served at no more than
    /// `per_job_cap` units per microsecond even when the resource is
    /// otherwise idle. A `cores`-core CPU is
    /// `with_job_cap(name, cores, 1.0)`: one request cannot run faster than
    /// one core.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `per_job_cap` is not finite and positive.
    pub fn with_job_cap(name: impl Into<String>, capacity: f64, per_job_cap: f64) -> Self {
        assert!(capacity.is_finite() && capacity > 0.0, "PsResource capacity must be positive");
        assert!(
            per_job_cap.is_finite() && per_job_cap > 0.0,
            "PsResource per-job cap must be positive"
        );
        PsResource {
            name: name.into(),
            capacity,
            per_job_cap,
            virt: 0.0,
            last_update: SimTime::ZERO,
            active: BinaryHeap::new(),
            members: IdSet::default(),
            seq: 0,
            epoch: 0,
            stats: PsStats::default(),
        }
    }

    /// The resource's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resource's capacity in service units per microsecond.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of jobs currently in service.
    pub fn in_service(&self) -> usize {
        self.active.len()
    }

    /// The jobs currently in service, in virtual-finish order. The order is
    /// deterministic, which matters when a machine crash aborts all of them:
    /// the abort sequence must be identical across runs.
    pub fn active_jobs(&self) -> Vec<JobId> {
        let mut keyed: Vec<(VirtKey, JobId)> = self.active.iter().map(|Reverse(e)| *e).collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, job)| job).collect()
    }

    /// Current epoch; bumped whenever the completion schedule may change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative statistics as of the last update; call [`advance`] first
    /// for up-to-the-instant figures.
    ///
    /// [`advance`]: PsResource::advance
    pub fn stats(&self) -> PsStats {
        self.stats
    }

    /// Advances the internal clocks to `now`, accruing virtual time and busy
    /// time. Idempotent for equal `now`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` is before the last update.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "PsResource clock went backwards");
        if now == self.last_update {
            return;
        }
        let elapsed = now.duration_since(self.last_update).as_micros() as f64;
        let n = self.active.len();
        if n > 0 {
            let per_job = self.per_job_rate(n);
            self.virt += elapsed * per_job;
            let delivered = per_job * n as f64;
            // Busy time is the fraction of total capacity in use, so a
            // single job on a 4-core machine counts as 25% busy.
            self.stats.busy_micros += elapsed * (delivered / self.capacity).min(1.0);
            self.stats.work_done += elapsed * delivered;
        }
        self.last_update = now;
    }

    /// Places `job` in service with the given demand (in service units). A
    /// zero or negative demand completes on the next `pop_completed`.
    ///
    /// # Panics
    ///
    /// Panics if the job is already in service here.
    pub fn enqueue(&mut self, now: SimTime, job: JobId, demand: f64) {
        self.advance(now);
        let fresh = self.members.insert(job);
        assert!(fresh, "job {job:?} already in service on {}", self.name);
        let key = VirtKey { finish: self.virt + demand.max(0.0), seq: self.seq };
        self.seq += 1;
        self.active.push(Reverse((key, job)));
        self.epoch += 1;
        self.stats.arrivals += 1;
    }

    /// Removes a job from service without completing it (e.g., on abort).
    /// Returns `true` if the job was present.
    pub fn cancel(&mut self, now: SimTime, job: JobId) -> bool {
        self.advance(now);
        if !self.members.remove(&job) {
            return false;
        }
        self.active.retain(|Reverse((_, j))| *j != job);
        self.epoch += 1;
        self.reset_if_idle();
        true
    }

    /// The absolute time of the next completion, or `None` when idle.
    /// `now` must be current (the caller advances first or passes the
    /// engine's clock).
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let Reverse((first, _)) = self.active.peek()?;
        let remaining = (first.finish - self.virt).max(0.0);
        let micros = (remaining / self.per_job_rate(self.active.len())).ceil() as u64;
        Some(now + crate::time::SimDuration::from_micros(micros))
    }

    /// Service units each of `n` active jobs receives per microsecond.
    fn per_job_rate(&self, n: usize) -> f64 {
        debug_assert!(n > 0);
        (self.capacity / n as f64).min(self.per_job_cap)
    }

    /// Pops every job whose service is complete as of `now`, appending
    /// them to `done` in virtual finish order, and returns how many it
    /// popped. The caller owns the buffer so the hot path never allocates.
    pub fn pop_completed(&mut self, now: SimTime, done: &mut Vec<JobId>) -> usize {
        self.advance(now);
        // Completions are scheduled by `next_completion`, which rounds the
        // remaining service up to a whole microsecond — so by the time a
        // valid completion event fires, the virtual clock can have run past
        // the job's finish tag by less than one microsecond's worth of
        // service. The rate during that window is at most `per_job_cap`
        // (arrivals inside the window can shrink the sharing rate at pop
        // time below the rate the overshoot accrued at, so the cap — the
        // fastest any single job is ever served — is the sound bound).
        // Anything larger means a completion event was dispatched late (a
        // stale prediction leaked through), which would silently inflate
        // the busy/work integrals.
        let overshoot_bound = self.per_job_cap * 1.0 + COMPLETION_EPS;
        let before = done.len();
        while let Some(&Reverse((first, job))) = self.active.peek() {
            if first.finish > self.virt + COMPLETION_EPS {
                break;
            }
            debug_assert!(
                self.virt - first.finish <= overshoot_bound,
                "{}: completion overshoot {} exceeds one microsecond of service ({})",
                self.name,
                self.virt - first.finish,
                overshoot_bound,
            );
            self.active.pop();
            self.members.remove(&job);
            self.stats.completions += 1;
            done.push(job);
        }
        let popped = done.len() - before;
        if popped > 0 {
            self.epoch += 1;
            self.reset_if_idle();
        }
        popped
    }

    /// Re-anchors the virtual clock at zero when the resource idles, keeping
    /// `virt` small so floating-point error cannot accumulate across a long
    /// run.
    fn reset_if_idle(&mut self) {
        if self.active.is_empty() {
            self.virt = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    fn pop(r: &mut PsResource, now: SimTime) -> Vec<JobId> {
        let mut done = Vec::new();
        let n = r.pop_completed(now, &mut done);
        assert_eq!(n, done.len());
        done
    }

    #[test]
    fn single_job_runs_at_full_capacity() {
        let mut r = PsResource::new("cpu", 1.0);
        r.enqueue(t(0), JobId(1), 1_000.0);
        assert_eq!(r.next_completion(t(0)), Some(t(1_000)));
        assert!(pop(&mut r, t(999)).is_empty());
        assert_eq!(pop(&mut r, t(1_000)), vec![JobId(1)]);
        assert_eq!(r.in_service(), 0);
    }

    #[test]
    fn two_equal_jobs_share_capacity() {
        let mut r = PsResource::new("cpu", 1.0);
        r.enqueue(t(0), JobId(1), 1_000.0);
        r.enqueue(t(0), JobId(2), 1_000.0);
        // Each gets half the CPU, so both finish at 2000.
        assert_eq!(r.next_completion(t(0)), Some(t(2_000)));
        let done = pop(&mut r, t(2_000));
        assert_eq!(done, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn late_arrival_slows_the_first_job() {
        let mut r = PsResource::new("cpu", 1.0);
        r.enqueue(t(0), JobId(1), 1_000.0);
        // At 500us the first job has 500 units left; a second job arrives.
        r.enqueue(t(500), JobId(2), 1_000.0);
        // First finishes after another 500*2 = 1000us -> at 1500.
        assert_eq!(r.next_completion(t(500)), Some(t(1_500)));
        assert_eq!(pop(&mut r, t(1_500)), vec![JobId(1)]);
        // Second has 500 units left, now alone -> finishes at 2000.
        assert_eq!(r.next_completion(t(1_500)), Some(t(2_000)));
        assert_eq!(pop(&mut r, t(2_000)), vec![JobId(2)]);
    }

    #[test]
    fn capacity_scales_service_rate() {
        let mut r = PsResource::new("dual", 2.0);
        r.enqueue(t(0), JobId(1), 1_000.0);
        assert_eq!(r.next_completion(t(0)), Some(t(500)));
    }

    #[test]
    fn busy_time_counts_only_nonidle_periods() {
        let mut r = PsResource::new("cpu", 1.0);
        r.advance(t(1_000)); // idle
        r.enqueue(t(1_000), JobId(1), 500.0);
        pop(&mut r, t(1_500));
        r.advance(t(3_000)); // idle again
        let s = r.stats();
        assert!((s.busy_micros - 500.0).abs() < 1e-9, "{s:?}");
        assert!((s.work_done - 500.0).abs() < 1e-9);
        assert_eq!(s.arrivals, 1);
        assert_eq!(s.completions, 1);
    }

    #[test]
    fn cancel_removes_without_completion() {
        let mut r = PsResource::new("cpu", 1.0);
        r.enqueue(t(0), JobId(1), 1_000.0);
        r.enqueue(t(0), JobId(2), 1_000.0);
        assert!(r.cancel(t(100), JobId(1)));
        assert!(!r.cancel(t(100), JobId(1)));
        // Job 2 had 900 units left at t=100 (100us at half speed = 50 done...
        // each job got 50 units by t=100), then runs alone.
        let done_at = r.next_completion(t(100)).unwrap();
        assert_eq!(done_at, t(100 + 950));
        assert_eq!(pop(&mut r, done_at), vec![JobId(2)]);
        assert_eq!(r.stats().completions, 1);
    }

    #[test]
    fn zero_demand_completes_immediately() {
        let mut r = PsResource::new("cpu", 1.0);
        r.enqueue(t(0), JobId(7), 0.0);
        assert_eq!(r.next_completion(t(0)), Some(t(0)));
        assert_eq!(pop(&mut r, t(0)), vec![JobId(7)]);
    }

    #[test]
    fn epoch_bumps_on_changes() {
        let mut r = PsResource::new("cpu", 1.0);
        let e0 = r.epoch();
        r.enqueue(t(0), JobId(1), 10.0);
        assert!(r.epoch() > e0);
        let e1 = r.epoch();
        pop(&mut r, t(10));
        assert!(r.epoch() > e1);
    }

    #[test]
    fn work_conservation_under_churn() {
        // Total work completed must equal total demand once drained,
        // regardless of the arrival pattern.
        let mut r = PsResource::new("cpu", 1.0);
        let demands = [100.0, 250.0, 75.0, 400.0, 10.0];
        let mut now = t(0);
        for (i, d) in demands.iter().enumerate() {
            r.enqueue(now, JobId(i as u64), *d);
            now += SimDuration::from_micros(40);
        }
        let mut completed = 0;
        let mut guard = 0;
        while completed < demands.len() {
            guard += 1;
            assert!(guard < 100, "did not drain");
            let nc = r.next_completion(now).expect("still busy");
            now = nc;
            completed += pop(&mut r, now).len();
        }
        let s = r.stats();
        let total: f64 = demands.iter().sum();
        // Completion events are rounded up to integer microseconds, so the
        // busy/work integrals may overshoot by up to 1us per completion —
        // `pop_completed` debug-asserts exactly that per-completion bound,
        // and this end-to-end check covers the accumulated total.
        assert!(
            (s.work_done - total).abs() < demands.len() as f64,
            "work {} != demand {total}",
            s.work_done
        );
    }

    #[test]
    fn per_job_cap_limits_single_job_rate() {
        // A 4-core CPU serving one job delivers at most 1 core.
        let mut r = PsResource::with_job_cap("cpu4", 4.0, 1.0);
        r.enqueue(t(0), JobId(1), 1_000.0);
        assert_eq!(r.next_completion(t(0)), Some(t(1_000)));
        assert_eq!(pop(&mut r, t(1_000)), vec![JobId(1)]);
        // Utilization over the kilo-microsecond: 1 of 4 cores -> 250us busy.
        assert!((r.stats().busy_micros - 250.0).abs() < 1e-9);
    }

    #[test]
    fn per_job_cap_irrelevant_when_saturated() {
        // 4 cores, 8 jobs: each runs at 0.5 cores; all finish at 2000.
        let mut r = PsResource::with_job_cap("cpu4", 4.0, 1.0);
        for j in 0..8 {
            r.enqueue(t(0), JobId(j), 1_000.0);
        }
        assert_eq!(r.next_completion(t(0)), Some(t(2_000)));
        assert_eq!(pop(&mut r, t(2_000)).len(), 8);
        assert!((r.stats().busy_micros - 2_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_bad_capacity() {
        let _ = PsResource::new("x", 0.0);
    }

    #[test]
    #[should_panic(expected = "already in service")]
    fn rejects_duplicate_job() {
        let mut r = PsResource::new("cpu", 1.0);
        r.enqueue(t(0), JobId(1), 10.0);
        r.enqueue(t(0), JobId(1), 10.0);
    }
}
