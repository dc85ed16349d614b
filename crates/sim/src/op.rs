//! The primitive operations a simulated request executes.
//!
//! A request (one dynamic-content interaction, including its embedded static
//! fetches) is compiled by the middleware layer into a linear [`Trace`] of
//! [`Op`]s. The engine plays traces against contended resources: CPU and NIC
//! demands go through processor-sharing queues, lock operations through the
//! queued lock manager, delays through the calendar.

use crate::engine::MachineId;
use crate::lock::{LockId, LockMode, SemaphoreId};

/// One step of a simulated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Consume `micros` CPU-microseconds on a machine's CPU (processor
    /// sharing with everything else running there).
    Cpu {
        /// The machine whose CPU is charged.
        machine: MachineId,
        /// Service demand in CPU-microseconds.
        micros: u64,
    },
    /// Transfer `bytes` from one machine to another: charges the sender NIC,
    /// then the configured link latency, then the receiver NIC. A transfer
    /// where `from == to` is loopback and free (in-process / local IPC costs
    /// are modeled explicitly as [`Op::Cpu`] by the middleware layer).
    Net {
        /// Sending machine.
        from: MachineId,
        /// Receiving machine.
        to: MachineId,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Wait for a fixed duration (disk service, protocol pauses).
    Delay {
        /// Wait length in microseconds.
        micros: u64,
    },
    /// Acquire a read/write lock; parks the job until granted.
    Lock {
        /// The lock to acquire.
        lock: LockId,
        /// Requested mode.
        mode: LockMode,
    },
    /// Release a previously acquired lock.
    Unlock {
        /// The lock to release.
        lock: LockId,
    },
    /// Acquire one unit of a counting semaphore; parks until granted.
    SemAcquire {
        /// The semaphore.
        sem: SemaphoreId,
    },
    /// Release one unit of a counting semaphore.
    SemRelease {
        /// The semaphore.
        sem: SemaphoreId,
    },
}

/// A linear program of [`Op`]s executed by one job.
///
/// ```
/// use dynamid_sim::{Trace, Op, MachineId};
/// let mut t = Trace::new();
/// t.push(Op::Cpu { machine: MachineId(0), micros: 150 });
/// t.push(Op::Net { from: MachineId(0), to: MachineId(1), bytes: 512 });
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    ops: Vec<Op>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with room for `cap` ops.
    pub fn with_capacity(cap: usize) -> Self {
        Trace { ops: Vec::with_capacity(cap) }
    }

    /// Appends an op.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the trace has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Total CPU demand placed on `machine` by this trace, in microseconds.
    /// Useful for tests and for service-demand reporting.
    pub fn cpu_demand(&self, machine: MachineId) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Cpu { machine: m, micros } if *m == machine => *micros,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes sent from `machine` by this trace.
    pub fn bytes_sent(&self, machine: MachineId) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Net { from, to, bytes } if *from == machine && from != to => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Checks that every `Lock`/`SemAcquire` has a matching later release and
    /// vice versa, returning a description of the first violation. The
    /// middleware layer runs this in debug builds before submitting a trace.
    pub fn check_balanced(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut held: HashMap<LockId, usize> = HashMap::new();
        let mut sems: HashMap<SemaphoreId, i64> = HashMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::Lock { lock, .. } => {
                    let n = held.entry(*lock).or_insert(0);
                    if *n > 0 {
                        return Err(format!("op {i}: re-entrant lock {lock:?}"));
                    }
                    *n += 1;
                }
                Op::Unlock { lock } => {
                    let n = held.entry(*lock).or_insert(0);
                    if *n == 0 {
                        return Err(format!("op {i}: unlock of unheld {lock:?}"));
                    }
                    *n -= 1;
                }
                Op::SemAcquire { sem } => *sems.entry(*sem).or_insert(0) += 1,
                Op::SemRelease { sem } => {
                    let n = sems.entry(*sem).or_insert(0);
                    if *n <= 0 {
                        return Err(format!("op {i}: release of unheld {sem:?}"));
                    }
                    *n -= 1;
                }
                _ => {}
            }
        }
        if let Some((l, _)) = held.iter().find(|(_, n)| **n > 0) {
            return Err(format!("trace ends holding lock {l:?}"));
        }
        if let Some((s, _)) = sems.iter().find(|(_, n)| **n > 0) {
            return Err(format!("trace ends holding semaphore {s:?}"));
        }
        Ok(())
    }
}

impl FromIterator<Op> for Trace {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Trace { ops: iter.into_iter().collect() }
    }
}

impl Extend<Op> for Trace {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_accounting() {
        let m0 = MachineId(0);
        let m1 = MachineId(1);
        let t: Trace = [
            Op::Cpu { machine: m0, micros: 100 },
            Op::Cpu { machine: m1, micros: 40 },
            Op::Cpu { machine: m0, micros: 60 },
            Op::Net { from: m0, to: m1, bytes: 512 },
            Op::Net { from: m0, to: m0, bytes: 999 }, // loopback: not sent
        ]
        .into_iter()
        .collect();
        assert_eq!(t.cpu_demand(m0), 160);
        assert_eq!(t.cpu_demand(m1), 40);
        assert_eq!(t.bytes_sent(m0), 512);
        assert_eq!(t.bytes_sent(m1), 0);
    }

    #[test]
    fn balanced_trace_passes() {
        let l = LockId(0);
        let s = SemaphoreId(0);
        let t: Trace = [
            Op::SemAcquire { sem: s },
            Op::Lock { lock: l, mode: LockMode::Exclusive },
            Op::Cpu { machine: MachineId(0), micros: 10 },
            Op::Unlock { lock: l },
            Op::SemRelease { sem: s },
        ]
        .into_iter()
        .collect();
        assert!(t.check_balanced().is_ok());
    }

    #[test]
    fn unbalanced_traces_fail() {
        let l = LockId(3);
        let dangling: Trace = [Op::Lock { lock: l, mode: LockMode::Shared }].into_iter().collect();
        assert!(dangling.check_balanced().unwrap_err().contains("ends holding"));

        let unheld: Trace = [Op::Unlock { lock: l }].into_iter().collect();
        assert!(unheld.check_balanced().unwrap_err().contains("unheld"));

        let reentrant: Trace = [
            Op::Lock { lock: l, mode: LockMode::Shared },
            Op::Lock { lock: l, mode: LockMode::Shared },
        ]
        .into_iter()
        .collect();
        assert!(reentrant.check_balanced().unwrap_err().contains("re-entrant"));
    }

    #[test]
    fn push_and_collect() {
        let mut t = Trace::with_capacity(2);
        t.push(Op::Delay { micros: 5 });
        t.push(Op::Delay { micros: 6 });
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.ops(), &[Op::Delay { micros: 5 }, Op::Delay { micros: 6 }]);
        let u: Trace = t.ops().iter().cloned().collect();
        assert_eq!(u.ops(), t.ops());
    }
}
