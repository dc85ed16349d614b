//! Oracle test for the heap-ordered processor-sharing resource.
//!
//! [`PsResource`] keeps its jobs in a binary heap keyed on virtual finish
//! time and arrival sequence. `SetPs` below is the ordered-set formulation
//! it replaced — a `BTreeSet` of keys plus two id maps — kept verbatim as a
//! reference. Both are driven through the same random interleavings of
//! arrivals (zero demands included), completions, cancels, completion
//! predictions, crash-order snapshots and idle clock advances, on
//! resources with and without a per-job rate cap. Pop order, predicted
//! completion times, epochs and `PsStats` must agree bit for bit.

use dynamid_sim::engine::JobId;
use dynamid_sim::{PsResource, PsStats, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

const COMPLETION_EPS: f64 = 1e-3;

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

/// The ordered-set PS resource, as the engine ran it before the heap.
struct SetPs {
    capacity: f64,
    per_job_cap: f64,
    virt: f64,
    last_update: SimTime,
    active: BTreeSet<VirtKey>,
    by_job: HashMap<JobId, VirtKey>,
    jobs: HashMap<u64, JobId>,
    seq: u64,
    epoch: u64,
    stats: PsStats,
}

impl SetPs {
    fn with_job_cap(capacity: f64, per_job_cap: f64) -> Self {
        SetPs {
            capacity,
            per_job_cap,
            virt: 0.0,
            last_update: SimTime::ZERO,
            active: BTreeSet::new(),
            by_job: HashMap::new(),
            jobs: HashMap::new(),
            seq: 0,
            epoch: 0,
            stats: PsStats::default(),
        }
    }

    fn active_jobs(&self) -> Vec<JobId> {
        self.active.iter().map(|k| self.jobs[&k.seq]).collect()
    }

    fn advance(&mut self, now: SimTime) {
        if now == self.last_update {
            return;
        }
        let elapsed = now.duration_since(self.last_update).as_micros() as f64;
        let n = self.active.len();
        if n > 0 {
            let per_job = self.per_job_rate(n);
            self.virt += elapsed * per_job;
            let delivered = per_job * n as f64;
            self.stats.busy_micros += elapsed * (delivered / self.capacity).min(1.0);
            self.stats.work_done += elapsed * delivered;
        }
        self.last_update = now;
    }

    fn enqueue(&mut self, now: SimTime, job: JobId, demand: f64) {
        self.advance(now);
        assert!(!self.by_job.contains_key(&job));
        let key = VirtKey { finish: self.virt + demand.max(0.0), seq: self.seq };
        self.seq += 1;
        self.active.insert(key);
        self.by_job.insert(job, key);
        self.jobs.insert(key.seq, job);
        self.epoch += 1;
        self.stats.arrivals += 1;
    }

    fn cancel(&mut self, now: SimTime, job: JobId) -> bool {
        self.advance(now);
        if let Some(key) = self.by_job.remove(&job) {
            self.active.remove(&key);
            self.jobs.remove(&key.seq);
            self.epoch += 1;
            self.reset_if_idle();
            true
        } else {
            false
        }
    }

    fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let first = self.active.iter().next()?;
        let remaining = (first.finish - self.virt).max(0.0);
        let micros = (remaining / self.per_job_rate(self.active.len())).ceil() as u64;
        Some(now + SimDuration::from_micros(micros))
    }

    fn per_job_rate(&self, n: usize) -> f64 {
        (self.capacity / n as f64).min(self.per_job_cap)
    }

    fn pop_completed(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        let mut done = Vec::new();
        while let Some(first) = self.active.iter().next().copied() {
            if first.finish <= self.virt + COMPLETION_EPS {
                self.active.remove(&first);
                let job = self.jobs.remove(&first.seq).expect("active key without job");
                self.by_job.remove(&job);
                self.stats.completions += 1;
                done.push(job);
            } else {
                break;
            }
        }
        if !done.is_empty() {
            self.epoch += 1;
            self.reset_if_idle();
        }
        done
    }

    fn reset_if_idle(&mut self) {
        if self.active.is_empty() {
            self.virt = 0.0;
        }
    }
}

/// Compares everything observable, with floats compared by bit pattern.
fn same(heap: &PsResource, set: &SetPs) -> Result<(), TestCaseError> {
    let (a, b) = (heap.stats(), set.stats);
    prop_assert_eq!(a.busy_micros.to_bits(), b.busy_micros.to_bits(), "busy_micros");
    prop_assert_eq!(a.work_done.to_bits(), b.work_done.to_bits(), "work_done");
    prop_assert_eq!(a.arrivals, b.arrivals);
    prop_assert_eq!(a.completions, b.completions);
    prop_assert_eq!(heap.epoch(), set.epoch, "epoch");
    prop_assert_eq!(heap.in_service(), set.active.len());
    Ok(())
}

/// `(capacity, per-job cap)`: a 1-core CPU, a 4-core CPU capped at one
/// core per job, an uncapped 100 Mb/s NIC, and a cap below the fair share.
const SHAPES: [(f64, f64); 4] = [(1.0, 1.0), (4.0, 1.0), (12.5, 12.5), (2.0, 0.5)];

fn demand(raw: u64) -> f64 {
    match raw % 6 {
        0 => 0.0,
        1 => (raw % 7) as f64 * 0.25,
        2 => (raw % 300) as f64,
        _ => (raw % 5_000) as f64 + 0.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each step is `(action, raw, pick)`. Time only moves the way the
    /// engine moves it: completions are popped at their predicted instant
    /// before the clock passes them.
    #[test]
    fn heap_matches_ordered_set_oracle(
        shape in 0usize..4,
        steps in prop::collection::vec((0u8..8, any::<u64>(), 0u16..u16::MAX), 1..250)
    ) {
        let (capacity, cap) = SHAPES[shape];
        let mut heap = PsResource::with_job_cap("ps", capacity, cap);
        let mut set = SetPs::with_job_cap(capacity, cap);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut issued: Vec<JobId> = Vec::new();
        let mut popped = Vec::new();

        for (action, raw, pick) in steps {
            match action {
                // Arrivals twice as often as anything else.
                0 | 1 => {
                    let job = JobId(next_id);
                    next_id += 1;
                    heap.enqueue(now, job, demand(raw));
                    set.enqueue(now, job, demand(raw));
                    issued.push(job);
                }
                // The next predicted completion fires.
                2 => {
                    let at = heap.next_completion(now);
                    prop_assert_eq!(at, set.next_completion(now), "prediction");
                    if let Some(at) = at {
                        now = at;
                        popped.clear();
                        let n = heap.pop_completed(now, &mut popped);
                        prop_assert_eq!(n, popped.len());
                        prop_assert_eq!(&popped, &set.pop_completed(now), "pop order");
                    }
                }
                // Time passes: everything due on the way completes first.
                3 => {
                    let target = now + SimDuration::from_micros(raw % 3_000);
                    while let Some(at) = heap.next_completion(now).filter(|&at| at <= target) {
                        prop_assert_eq!(Some(at), set.next_completion(now));
                        now = at;
                        popped.clear();
                        heap.pop_completed(now, &mut popped);
                        prop_assert_eq!(&popped, &set.pop_completed(now), "pop order");
                    }
                    prop_assert_eq!(heap.next_completion(now), set.next_completion(now));
                    now = target;
                    heap.advance(now);
                    set.advance(now);
                }
                // Abort path: cancel a job that may be in service, done,
                // or already cancelled.
                4 => {
                    if let Some(&job) = issued.get(pick as usize % issued.len().max(1)) {
                        prop_assert_eq!(heap.cancel(now, job), set.cancel(now, job), "cancel");
                    }
                }
                // A pop at the current instant, due or not (zero demands
                // complete here).
                5 => {
                    popped.clear();
                    heap.pop_completed(now, &mut popped);
                    prop_assert_eq!(&popped, &set.pop_completed(now), "pop order");
                }
                // Crash order: every job in service, in virtual-finish order.
                6 => prop_assert_eq!(heap.active_jobs(), set.active_jobs(), "active order"),
                _ => prop_assert_eq!(heap.next_completion(now), set.next_completion(now)),
            }
            same(&heap, &set)?;
        }

        // Drain both to idle.
        while let Some(at) = heap.next_completion(now) {
            prop_assert_eq!(Some(at), set.next_completion(now));
            now = at;
            popped.clear();
            heap.pop_completed(now, &mut popped);
            prop_assert_eq!(&popped, &set.pop_completed(now), "pop order");
        }
        prop_assert_eq!(set.next_completion(now), None);
        prop_assert!(heap.active_jobs().is_empty());
        same(&heap, &set)?;
    }
}
