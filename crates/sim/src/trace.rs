//! Observational op-interval recording for the simulation engine.
//!
//! When a [`TraceRecorder`] is armed (see `Simulation::enable_tracing`), the
//! engine notes, for every job, when its current op started consuming a
//! resource and when it finished: CPU service, a whole NIC transfer
//! (sender NIC through link latency through receiver NIC), a pure delay, a
//! lock wait, or a semaphore (pool/admission) wait. Recording is strictly
//! observational — it never schedules events, consumes randomness, or touches
//! resource state — so the event stream with tracing on is bit-identical to
//! the stream with tracing off, and a run without a recorder pays nothing.
//!
//! Zero-duration acquisitions (a lock or semaphore granted immediately) and
//! no-op transfers (loopback or zero bytes) record nothing: there is no wait
//! to attribute. Each job executes its ops sequentially, so at most one
//! interval per job is open at a time; intervals land in [`TraceRecorder`]'s
//! finished store in *end order*, which is the engine's deterministic event
//! order — draining it yields a byte-stable sequence for a fixed seed.
//!
//! Finished intervals are stored column-wise ([`IntervalColumns`]): one
//! buffer per field instead of a `Vec` of structs. A traced run at 60
//! clients closes hundreds of thousands of intervals, and every consumer
//! (the Chrome-trace renderer, the bottleneck aggregator) scans one or two
//! fields of every interval — columnar layout keeps those scans dense and
//! lets the engine reserve all buffers up front (see
//! [`TraceRecorder::reserve`]) so the record path never reallocates
//! mid-run. [`OpInterval`] is one row, as the recorder appends it.

use crate::engine::{JobId, MachineId};
use crate::lock::{LockId, SemaphoreId};
use crate::time::SimTime;
use std::collections::HashMap;

/// What a job was doing during one recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// CPU service on a machine. `demand_micros` is the op's *base* demand
    /// (before any fault-plan degradation factor), so healthy-run intervals
    /// can be cross-checked against processor-sharing busy counters.
    Cpu {
        /// Machine whose CPU served the op.
        machine: MachineId,
        /// Base service demand of the op, in microseconds.
        demand_micros: u64,
    },
    /// A network transfer: sender NIC, link latency, and receiver NIC.
    Net {
        /// Sending machine.
        from: MachineId,
        /// Receiving machine.
        to: MachineId,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A pure think/processing delay.
    Delay,
    /// Parked waiting for a read/write lock.
    LockWait {
        /// The contended lock.
        lock: LockId,
    },
    /// Queued waiting for a semaphore unit (process pool, connection pool).
    SemWait {
        /// The contended semaphore.
        sem: SemaphoreId,
    },
}

/// One closed interval: job `job` spent `[start, end]` on `activity` while
/// executing the op at `op_index` of its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInterval {
    /// The job the interval belongs to.
    pub job: JobId,
    /// Index of the op within the job's trace.
    pub op_index: usize,
    /// What the job was doing.
    pub activity: Activity,
    /// When the op entered the resource (or wait queue).
    pub start: SimTime,
    /// When service (or the wait) completed.
    pub end: SimTime,
}

/// Finished intervals in struct-of-arrays layout: five parallel column
/// buffers, row `i` of each describing the same interval. Rows are in end
/// order (the engine's deterministic event order). Consumers iterate the
/// columns they need directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalColumns {
    /// Owning job of each interval.
    pub job: Vec<JobId>,
    /// Op index within the owning job's trace (traces are short; `u32`).
    pub op_index: Vec<u32>,
    /// What the job was doing.
    pub activity: Vec<Activity>,
    /// Interval start times.
    pub start: Vec<SimTime>,
    /// Interval end times.
    pub end: Vec<SimTime>,
}

impl IntervalColumns {
    /// Number of finished intervals.
    pub fn len(&self) -> usize {
        self.job.len()
    }

    /// `true` when no interval has been recorded.
    pub fn is_empty(&self) -> bool {
        self.job.is_empty()
    }

    /// Grows every column so at least `additional` more rows fit without
    /// reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.job.reserve(additional);
        self.op_index.reserve(additional);
        self.activity.reserve(additional);
        self.start.reserve(additional);
        self.end.reserve(additional);
    }

    /// Appends one row.
    pub fn push(&mut self, iv: OpInterval) {
        self.job.push(iv.job);
        self.op_index.push(iv.op_index as u32);
        self.activity.push(iv.activity);
        self.start.push(iv.start);
        self.end.push(iv.end);
    }
}

/// Collects intervals column-wise as the engine executes. At most one
/// interval per job is open at any time because a job's ops run
/// sequentially.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    open: HashMap<JobId, (usize, Activity, SimTime)>,
    finished: IntervalColumns,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the finished store for `additional` more intervals. The
    /// engine calls this on job submission with the job's op count (an
    /// upper bound — each op closes at most one interval), so the hot
    /// record path appends into reserved capacity instead of spilling into
    /// a reallocation mid-run.
    pub fn reserve(&mut self, additional: usize) {
        self.finished.reserve(additional);
    }

    /// Marks the start of an interval for `job`.
    pub fn begin(&mut self, job: JobId, op_index: usize, activity: Activity, at: SimTime) {
        let prev = self.open.insert(job, (op_index, activity, at));
        debug_assert!(prev.is_none(), "job {job:?} opened an interval over an open one");
    }

    /// Closes the open interval for `job`, if any. Jobs whose current op
    /// recorded nothing (immediate grants, loopback transfers) have no open
    /// interval, so a spurious `end` is a silent no-op.
    pub fn end(&mut self, job: JobId, at: SimTime) {
        if let Some((op_index, activity, start)) = self.open.remove(&job) {
            self.finished.push(OpInterval { job, op_index, activity, start, end: at });
        }
    }

    /// Drops the open interval for `job` (the job aborted mid-op).
    pub fn discard(&mut self, job: JobId) {
        self.open.remove(&job);
    }

    /// Takes every finished interval recorded so far, in end order.
    pub fn drain(&mut self) -> IntervalColumns {
        std::mem::take(&mut self.finished)
    }

    /// Number of intervals currently open (jobs mid-op).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_end_produces_interval_in_end_order() {
        let mut r = TraceRecorder::new();
        let a = JobId(1);
        let b = JobId(2);
        r.begin(a, 0, Activity::Delay, SimTime::from_micros(10));
        r.begin(b, 3, Activity::Delay, SimTime::from_micros(11));
        r.end(b, SimTime::from_micros(20));
        r.end(a, SimTime::from_micros(30));
        let got = r.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got.job, [b, a]);
        assert_eq!(got.op_index, [3, 0]);
        assert_eq!(got.end[1], SimTime::from_micros(30));
        assert!(r.drain().is_empty());
    }

    #[test]
    fn end_without_begin_is_a_no_op_and_discard_drops_open() {
        let mut r = TraceRecorder::new();
        let j = JobId(7);
        r.end(j, SimTime::from_micros(5));
        assert!(r.drain().is_empty());
        r.begin(j, 2, Activity::Delay, SimTime::from_micros(6));
        assert_eq!(r.open_count(), 1);
        r.discard(j);
        assert_eq!(r.open_count(), 0);
        r.end(j, SimTime::from_micros(9));
        assert!(r.drain().is_empty());
    }

    #[test]
    fn columns_stay_parallel() {
        let mut r = TraceRecorder::new();
        r.reserve(3);
        let j = JobId(9);
        for (i, t) in [(0usize, 100u64), (1, 200), (2, 300)] {
            r.begin(j, i, Activity::Delay, SimTime::from_micros(t));
            r.end(j, SimTime::from_micros(t + 50));
        }
        let cols = r.drain();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.job.len(), 3);
        assert_eq!(cols.op_index, vec![0, 1, 2]);
        assert_eq!(cols.start.len(), 3);
        assert_eq!(cols.end.len(), 3);
        assert_eq!(cols.activity.len(), 3);
        assert_eq!(cols.start[2], SimTime::from_micros(300));
        assert_eq!(cols.end[2], SimTime::from_micros(350));
    }
}
