//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a set of machines (each a CPU and a NIC, both
//! processor-sharing), a [`LockManager`], and a calendar of events. Work
//! enters as jobs — linear [`Trace`]s of [`Op`]s — submitted by a
//! [`Driver`] (the client emulator). The engine plays each trace against the
//! contended resources and calls the driver back when a job finishes or a
//! timer fires.
//!
//! Determinism: given the same machines, traces, timers, and seeds, two runs
//! produce identical event orders (ties are broken by a monotone sequence
//! number).

use crate::calendar::{CalendarQueue, EventId};
use crate::fault::FaultPlan;
use crate::hash::IdSet;
use crate::lock::{GrantPolicy, LockId, LockManager, LockStats, SemGrant, SemaphoreId};
use crate::op::{Op, Trace};
use crate::ps::{PsResource, PsStats};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Activity, IntervalColumns, TraceRecorder};
use std::collections::VecDeque;
use std::fmt;

/// Identifies a simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

/// Identifies a job (one submitted trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Details handed to [`Driver::on_job_complete`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobDone {
    /// The completed job.
    pub id: JobId,
    /// The caller-supplied tag from [`Simulation::submit`].
    pub tag: u64,
    /// When the job was submitted.
    pub submitted: SimTime,
    /// When the job finished its last op.
    pub completed: SimTime,
}

impl JobDone {
    /// End-to-end simulated latency of the job.
    pub fn latency(&self) -> SimDuration {
        self.completed.duration_since(self.submitted)
    }
}

/// Why a job was torn down before finishing its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// [`Simulation::cancel`] was called.
    Cancelled,
    /// The deadline from [`Simulation::submit_with_deadline`] expired.
    DeadlineExpired,
    /// A machine the job was using (or about to use) is down.
    MachineCrash,
    /// A transient per-op fault from the installed [`FaultPlan`] tripped.
    TransientFault,
    /// Admission control refused the job (a bounded semaphore's wait queue
    /// was full). Counted under [`EngineStats::rejected`], not `aborted`.
    Rejected,
    /// The job was chosen as the victim of a lock wait-for cycle. The
    /// engine detects cycles when a lock request parks and deterministically
    /// aborts the youngest (highest [`JobId`]) job in the cycle.
    Deadlock,
    /// Deadline-aware queue shedding dropped the job at dequeue: a semaphore
    /// unit freed up but the job had already waited past the semaphore's
    /// shed target ([`Simulation::set_semaphore_shed_target`]), so serving
    /// it would only burn capacity on a request its client has abandoned.
    Shed,
}

/// Details handed to [`Driver::on_job_aborted`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobAborted {
    /// The torn-down job.
    pub id: JobId,
    /// The caller-supplied tag from [`Simulation::submit`].
    pub tag: u64,
    /// When the job was submitted.
    pub submitted: SimTime,
    /// When the job was torn down.
    pub aborted: SimTime,
    /// Why.
    pub reason: AbortReason,
}

/// A malformed trace detected during execution: the offending job, the
/// index of the offending op within its trace, and what went wrong. The
/// engine surfaces this instead of panicking so chaos runs fail diagnosably.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimError {
    /// The job whose trace misbehaved.
    pub job: JobId,
    /// Index of the offending op within the job's trace.
    pub op_index: usize,
    /// What went wrong.
    pub kind: SimErrorKind,
}

/// The ways a trace can be malformed at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimErrorKind {
    /// An `Unlock` op named a lock the job does not hold.
    UnlockNotHeld(LockId),
    /// A `Lock` op re-requested a lock the job already holds or waits on.
    LockReacquired(LockId),
    /// A `SemRelease` op fired with no unit of the semaphore in use.
    SemOverRelease(SemaphoreId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {:?} op {}: ", self.job, self.op_index)?;
        match self.kind {
            SimErrorKind::UnlockNotHeld(l) => write!(f, "unlock of {l:?} not held"),
            SimErrorKind::LockReacquired(l) => write!(f, "re-acquisition of {l:?}"),
            SimErrorKind::SemOverRelease(s) => write!(f, "over-release of semaphore {s:?}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Callbacks through which the simulation hands control to the workload
/// layer. The driver is external to the [`Simulation`], so callbacks receive
/// `&mut Simulation` and may submit jobs or set timers re-entrantly.
pub trait Driver {
    /// A job finished its trace.
    fn on_job_complete(&mut self, sim: &mut Simulation, done: JobDone);
    /// A timer set with [`Simulation::set_timer`] fired.
    fn on_timer(&mut self, sim: &mut Simulation, token: u64);
    /// A job was torn down by the engine before completing (deadline,
    /// fault, or admission rejection). Not called for
    /// [`Simulation::cancel`], whose caller already knows. Default: ignore.
    fn on_job_aborted(&mut self, _sim: &mut Simulation, _info: JobAborted) {}
}

/// A no-op driver, useful for tests that only exercise resources.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullDriver;

impl Driver for NullDriver {
    fn on_job_complete(&mut self, _sim: &mut Simulation, _done: JobDone) {}
    fn on_timer(&mut self, _sim: &mut Simulation, _token: u64) {}
}

/// Which processor-sharing resource of a machine an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResKey {
    Cpu(u32),
    Nic(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A predicted processor-sharing completion; stale if the epoch moved.
    Ps { res: ResKey, epoch: u64 },
    /// A `Delay` op (or the latency leg of a `Net` op) finished.
    DelayDone { job: JobId },
    /// Deferred start of a freshly submitted job, or deferred resumption of
    /// a job granted a lock/semaphore by an aborting holder.
    JobStart { job: JobId },
    /// A driver timer.
    Timer { token: u64 },
    /// A per-job deadline; stale if the job already finished or aborted.
    Deadline { job: JobId },
    /// Deferred teardown of a waiter dropped by deadline-aware queue
    /// shedding. Deferral keeps the shed path uniform between the in-step
    /// release (driver at hand) and the abort-path release (no driver
    /// borrow); stale if the job ended some other way first.
    ShedJob { job: JobId },
    /// A planned machine crash from the installed [`FaultPlan`].
    Crash { machine: u32 },
    /// A planned machine restart from the installed [`FaultPlan`].
    Restart { machine: u32 },
}

/// Progress of a `Net` op within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetPhase {
    Idle,
    SenderNic,
    Latency,
    ReceiverNic,
}

#[derive(Debug)]
struct Job {
    trace: Trace,
    pc: usize,
    net_phase: NetPhase,
    tag: u64,
    submitted: SimTime,
    /// Pending deadline event, cancelled eagerly when the job ends so the
    /// calendar never carries deadlines for finished jobs.
    deadline_ev: Option<EventId>,
}

/// The jobs in flight, indexed by id. Ids are issued in ascending order, so
/// the table is a window of slots starting at the oldest live id: lookups
/// are one subtraction, and finished jobs at the front are trimmed as they
/// go. A long-lived job only holds the window open; it never slows a lookup.
#[derive(Debug, Default)]
struct JobTable {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<Job>>,
    live: usize,
}

impl JobTable {
    /// Adds the job with the next id, which must be `base + slots.len()`.
    fn push(&mut self, id: JobId, job: Job) {
        debug_assert_eq!(id.0, self.base + self.slots.len() as u64, "job ids must be dense");
        self.slots.push_back(Some(job));
        self.live += 1;
    }

    fn index(&self, id: JobId) -> Option<usize> {
        usize::try_from(id.0.checked_sub(self.base)?).ok()
    }

    fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        let i = self.index(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    fn remove(&mut self, id: JobId) -> Option<Job> {
        let i = self.index(id)?;
        let job = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(job)
    }

    fn len(&self) -> usize {
        self.live
    }
}

#[derive(Debug)]
struct Machine {
    name: String,
    cpu: PsResource,
    nic: PsResource,
    /// Set while the machine is inside a [`FaultPlan`] crash window.
    down: bool,
    /// Live completion predictions; superseded ones are cancelled on the
    /// calendar instead of lingering as stale events.
    cpu_ev: Option<EventId>,
    nic_ev: Option<EventId>,
}

/// Counters maintained by the engine itself. Always balanced:
/// `submitted == completed + aborted + rejected + jobs_in_flight()`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Jobs submitted so far.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs torn down before completion (cancelled, deadline expired,
    /// machine crash, transient fault).
    pub aborted: u64,
    /// Jobs refused by admission control (bounded semaphore queue full).
    pub rejected: u64,
    /// Lock wait-for cycles broken by aborting a victim. Victims are also
    /// counted under `aborted`.
    pub deadlocks: u64,
    /// Calendar events dispatched.
    pub events: u64,
    /// Events that were dead on arrival: cancelled calendar entries
    /// (superseded PS predictions, retired deadlines) plus lazily detected
    /// stale dispatches (epoch mismatches, delays/deadlines of jobs that
    /// already ended). High values mean the calendar is mostly garbage.
    pub stale_events: u64,
    /// High-water mark of pending events on the calendar.
    pub peak_calendar: u64,
    /// `events` split by kind. Observational only.
    pub by_kind: EventCounts,
}

/// Dispatched calendar events by kind; the fields sum to
/// [`EngineStats::events`]. Stale events count under their own kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// Processor-sharing completions on a CPU.
    pub ps_cpu: u64,
    /// Processor-sharing completions on a NIC.
    pub ps_nic: u64,
    /// Finished `Delay` ops and latency legs of `Net` ops.
    pub delay: u64,
    /// Deferred starts of submitted jobs and resumptions of granted ones.
    pub job_start: u64,
    /// Driver timers.
    pub timer: u64,
    /// Deadlines, shed teardowns, crashes and restarts.
    pub other: u64,
}

impl EventCounts {
    /// Sum over every kind.
    pub fn total(&self) -> u64 {
        self.ps_cpu + self.ps_nic + self.delay + self.job_start + self.timer + self.other
    }

    fn count(&mut self, kind: &EventKind) {
        let n = match kind {
            EventKind::Ps { res: ResKey::Cpu(_), .. } => &mut self.ps_cpu,
            EventKind::Ps { res: ResKey::Nic(_), .. } => &mut self.ps_nic,
            EventKind::DelayDone { .. } => &mut self.delay,
            EventKind::JobStart { .. } => &mut self.job_start,
            EventKind::Timer { .. } => &mut self.timer,
            EventKind::Deadline { .. }
            | EventKind::ShedJob { .. }
            | EventKind::Crash { .. }
            | EventKind::Restart { .. } => &mut self.other,
        };
        *n += 1;
    }
}

impl std::ops::AddAssign for EventCounts {
    fn add_assign(&mut self, o: EventCounts) {
        self.ps_cpu += o.ps_cpu;
        self.ps_nic += o.ps_nic;
        self.delay += o.delay;
        self.job_start += o.job_start;
        self.timer += o.timer;
        self.other += o.other;
    }
}

/// Fault-injection state: the plan plus its private random stream, present
/// only when a non-trivial plan is installed so the healthy path costs
/// nothing.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
}

/// The simulation world: machines, locks, jobs, and the event calendar.
///
/// ```
/// use dynamid_sim::*;
/// use dynamid_sim::engine::NullDriver;
/// let mut sim = Simulation::new(SimDuration::from_micros(100));
/// let m = sim.add_machine("web", 1.0, 100.0);
/// let trace: Trace = [Op::Cpu { machine: m, micros: 500 }].into_iter().collect();
/// sim.submit(trace, 0);
/// sim.run(SimTime::from_micros(10_000), &mut NullDriver).unwrap();
/// assert_eq!(sim.stats().completed, 1);
/// ```
#[derive(Debug)]
pub struct Simulation {
    now: SimTime,
    queue: CalendarQueue<EventKind>,
    machines: Vec<Machine>,
    locks: LockManager,
    jobs: JobTable,
    next_job: u64,
    link_latency: SimDuration,
    stats: EngineStats,
    faults: Option<FaultState>,
    trace: Option<TraceRecorder>,
    /// Scratch buffers reused by every dispatch: jobs a PS completion
    /// finished, and the queue of jobs to step. `run` is not re-entrant
    /// (callbacks only submit, set timers and cancel), so one pair
    /// suffices; each is taken out while in use and put back empty.
    done_buf: Vec<JobId>,
    work_buf: Vec<JobId>,
}

impl Simulation {
    /// Creates a simulation whose machine-to-machine transfers incur the
    /// given one-way link latency, with the default (writer-priority) lock
    /// grant policy.
    pub fn new(link_latency: SimDuration) -> Self {
        Self::with_policy(link_latency, GrantPolicy::default())
    }

    /// Creates a simulation with an explicit lock grant policy.
    pub fn with_policy(link_latency: SimDuration, policy: GrantPolicy) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            machines: Vec::new(),
            locks: LockManager::new(policy),
            jobs: JobTable::default(),
            next_job: 0,
            link_latency,
            stats: EngineStats::default(),
            faults: None,
            trace: None,
            done_buf: Vec::new(),
            work_buf: Vec::new(),
        }
    }

    /// Arms the op-interval recorder: from now on every CPU service, NIC
    /// transfer, delay, lock wait, and semaphore wait is captured as an
    /// [`OpInterval`](crate::trace::OpInterval) row in the recorder's column
    /// store. Recording is purely observational — it never schedules
    /// events or consumes randomness — so the event stream is bit-identical
    /// to an untraced run.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(TraceRecorder::new());
    }

    /// Takes every finished op interval recorded so far as column buffers,
    /// in the engine's deterministic end order. Empty when tracing is off.
    pub fn take_op_intervals(&mut self) -> IntervalColumns {
        self.trace.as_mut().map(TraceRecorder::drain).unwrap_or_default()
    }

    /// A lock's registered name (e.g. `table:items`).
    pub fn lock_name(&self, lock: LockId) -> &str {
        self.locks.lock_name(lock)
    }

    /// Number of registered locks.
    pub fn lock_count(&self) -> usize {
        self.locks.lock_count()
    }

    /// A semaphore's registered name (e.g. `web-pool`).
    pub fn semaphore_name(&self, sem: SemaphoreId) -> &str {
        self.locks.semaphore_name(sem)
    }

    /// Number of registered semaphores.
    pub fn semaphore_count(&self) -> usize {
        self.locks.semaphore_count()
    }

    /// Installs a [`FaultPlan`]: schedules its crash/restart windows on the
    /// calendar and arms transient-failure draws and degradation factors.
    /// Installing a trivial plan is a no-op, so a zero-fault run is
    /// bit-identical to one that never called this.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] or names an unknown
    /// machine.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        plan.validate().expect("invalid fault plan");
        if plan.is_trivial() {
            return;
        }
        for w in &plan.crashes {
            assert!(
                (w.machine.0 as usize) < self.machines.len(),
                "fault plan names unknown machine {:?}",
                w.machine
            );
            self.schedule(w.at.max(self.now), EventKind::Crash { machine: w.machine.0 });
            self.schedule(w.restart.max(self.now), EventKind::Restart { machine: w.machine.0 });
        }
        for d in &plan.degradations {
            assert!(
                (d.machine.0 as usize) < self.machines.len(),
                "fault plan names unknown machine {:?}",
                d.machine
            );
        }
        // A salted fork keeps the fault stream disjoint from client streams
        // even when callers reuse the same master seed everywhere.
        let mut root = SimRng::new(plan.seed);
        let rng = root.fork(0xFA17);
        self.faults = Some(FaultState { plan, rng });
    }

    /// `true` while `m` is inside an installed crash window.
    pub fn machine_is_down(&self, m: MachineId) -> bool {
        self.machines[m.0 as usize].down
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine-level counters, folding in the calendar's tombstone count
    /// and high-water mark.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.stale_events += self.queue.stale_popped();
        s.peak_calendar = self.queue.peak_len() as u64;
        s
    }

    /// Jobs currently in flight (submitted but not completed).
    pub fn jobs_in_flight(&self) -> usize {
        self.jobs.len()
    }

    /// Adds a machine with `cores` CPU cores and a NIC of `nic_mbps`
    /// megabits per second, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `nic_mbps` is not positive.
    pub fn add_machine(&mut self, name: impl Into<String>, cores: f64, nic_mbps: f64) -> MachineId {
        let name = name.into();
        let id = MachineId(self.machines.len() as u32);
        self.machines.push(Machine {
            // One request cannot run faster than one core.
            cpu: PsResource::with_job_cap(format!("{name}.cpu"), cores, 1.0),
            // Mb/s -> bytes per microsecond: mbps * 1e6 / 8 / 1e6.
            nic: PsResource::new(format!("{name}.nic"), nic_mbps / 8.0),
            name,
            down: false,
            cpu_ev: None,
            nic_ev: None,
        });
        id
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// A machine's display name.
    pub fn machine_name(&self, m: MachineId) -> &str {
        &self.machines[m.0 as usize].name
    }

    /// CPU statistics for a machine, current as of [`now`](Self::now).
    pub fn cpu_stats(&mut self, m: MachineId) -> PsStats {
        let now = self.now;
        let mach = &mut self.machines[m.0 as usize];
        mach.cpu.advance(now);
        mach.cpu.stats()
    }

    /// NIC statistics for a machine, current as of [`now`](Self::now).
    /// `work_done` is in bytes transferred through the interface.
    pub fn nic_stats(&mut self, m: MachineId) -> PsStats {
        let now = self.now;
        let mach = &mut self.machines[m.0 as usize];
        mach.nic.advance(now);
        mach.nic.stats()
    }

    /// Registers a read/write lock (e.g., one per database table).
    pub fn register_lock(&mut self, name: impl Into<String>) -> LockId {
        self.locks.register_lock(name)
    }

    /// Registers a counting semaphore (e.g., the web-server process pool).
    pub fn register_semaphore(&mut self, name: impl Into<String>, capacity: u32) -> SemaphoreId {
        self.locks.register_semaphore(name, capacity)
    }

    /// Registers a counting semaphore with a bounded accept queue: once
    /// `max_waiters` jobs are queued, further acquisitions are rejected and
    /// the requesting job is torn down with [`AbortReason::Rejected`].
    pub fn register_semaphore_bounded(
        &mut self,
        name: impl Into<String>,
        capacity: u32,
        max_waiters: u32,
    ) -> SemaphoreId {
        self.locks.register_semaphore_bounded(name, capacity, max_waiters)
    }

    /// Statistics for one semaphore (rejections land in
    /// [`LockStats::rejected`]).
    pub fn semaphore_stats(&self, sem: SemaphoreId) -> LockStats {
        self.locks.semaphore_stats(sem)
    }

    /// Sets (or clears) a semaphore's deadline-aware shed target. While
    /// `Some(t)`, each release first drops every queued waiter whose
    /// queueing delay already exceeds `t`; dropped waiters are torn down
    /// with [`AbortReason::Shed`] via zero-delay events and the driver's
    /// [`Driver::on_job_aborted`] is called for each. `None` (the default)
    /// disables shedding and restores plain semaphore behavior.
    pub fn set_semaphore_shed_target(&mut self, sem: SemaphoreId, target: Option<SimDuration>) {
        self.locks.set_sem_shed_target(sem, target.map(|d| d.as_micros()));
    }

    /// Describes any lock/semaphore state or in-service PS share that should
    /// not exist once a run has drained (no jobs in flight): aborted jobs
    /// must have released everything. Returns `None` when clean.
    pub fn leak_report(&self) -> Option<String> {
        if let Some(r) = self.locks.leak_report() {
            return Some(r);
        }
        for m in &self.machines {
            if m.cpu.in_service() > 0 {
                return Some(format!(
                    "{} still has {} jobs in service",
                    m.name,
                    m.cpu.in_service()
                ));
            }
            if m.nic.in_service() > 0 {
                return Some(format!(
                    "{}.nic still has {} jobs in service",
                    m.name,
                    m.nic.in_service()
                ));
            }
        }
        None
    }

    /// Statistics for one lock.
    pub fn lock_stats(&self, lock: LockId) -> LockStats {
        self.locks.lock_stats(lock)
    }

    /// Aggregate statistics over all locks.
    pub fn total_lock_stats(&self) -> LockStats {
        self.locks.total_lock_stats()
    }

    /// Submits a trace for execution, returning its job id. The job starts
    /// at the current instant (via a zero-delay calendar event, so it is
    /// safe to call from driver callbacks).
    ///
    /// Malformed traces (unbalanced lock/semaphore ops) are accepted here
    /// and surface as a structured [`SimError`] from [`run`](Self::run) when
    /// the offending op executes.
    pub fn submit(&mut self, trace: Trace, tag: u64) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        if let Some(t) = &mut self.trace {
            // Each op closes at most one interval, so the op count bounds
            // what this job can append — reserving here keeps the record
            // path free of mid-run reallocations.
            t.reserve(trace.len());
        }
        self.jobs.push(
            id,
            Job {
                trace,
                pc: 0,
                net_phase: NetPhase::Idle,
                tag,
                submitted: self.now,
                deadline_ev: None,
            },
        );
        self.stats.submitted += 1;
        self.schedule(self.now, EventKind::JobStart { job: id });
        id
    }

    /// Submits a trace with a deadline: if the job is still in flight
    /// `deadline` from now, it is torn down with
    /// [`AbortReason::DeadlineExpired`] and the driver's
    /// [`on_job_aborted`](Driver::on_job_aborted) is called. A job that
    /// completes (or is rejected) first leaves a stale deadline event that
    /// is ignored — it is never counted twice.
    pub fn submit_with_deadline(&mut self, trace: Trace, tag: u64, deadline: SimDuration) -> JobId {
        let id = self.submit(trace, tag);
        let ev = self.schedule(self.now + deadline, EventKind::Deadline { job: id });
        self.jobs.get_mut(id).expect("just submitted").deadline_ev = Some(ev);
        id
    }

    /// Tears down an in-flight job: removes it from whatever resource or
    /// wait queue it occupies, releases every lock and semaphore unit its
    /// trace prefix acquired (granting waiters), and counts it under
    /// [`EngineStats::aborted`]. Returns `false` when the job is unknown or
    /// already finished. [`Driver::on_job_aborted`] is *not* invoked — the
    /// caller initiated the cancellation and accounts for it directly.
    pub fn cancel(&mut self, job: JobId) -> bool {
        self.abort_job(job, AbortReason::Cancelled).is_some()
    }

    /// Schedules a driver timer at the given absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        assert!(at >= self.now, "timer set in the past");
        self.schedule(at, EventKind::Timer { token });
    }

    /// Convenience: a timer `delay` from now.
    pub fn set_timer_after(&mut self, delay: SimDuration, token: u64) {
        self.set_timer(self.now + delay, token);
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind) -> EventId {
        self.queue.schedule(at, kind)
    }

    /// Runs the calendar until `until` (inclusive), advancing all resource
    /// clocks to `until` at the end so utilization integrals are exact.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] naming the offending job and op when a
    /// malformed trace executes (unlock without hold, lock re-acquisition,
    /// semaphore over-release). The simulation should be discarded after an
    /// error: partial state of the offending job is not unwound.
    pub fn run<D: Driver>(&mut self, until: SimTime, driver: &mut D) -> Result<(), SimError> {
        while let Some((at, kind)) = self.queue.pop_until(until) {
            debug_assert!(at >= self.now, "event in the past");
            self.now = at;
            self.stats.events += 1;
            self.dispatch(kind, driver)?;
        }
        self.now = until;
        for m in &mut self.machines {
            m.cpu.advance(until);
            m.nic.advance(until);
        }
        Ok(())
    }

    /// Runs until the calendar is empty (tests and drain scenarios).
    /// Returns the time of the last processed event.
    ///
    /// # Errors
    ///
    /// Same contract as [`run`](Self::run).
    pub fn run_until_idle<D: Driver>(&mut self, driver: &mut D) -> Result<SimTime, SimError> {
        while let Some((at, kind)) = self.queue.pop() {
            self.now = at;
            self.stats.events += 1;
            self.dispatch(kind, driver)?;
        }
        Ok(self.now)
    }

    fn dispatch<D: Driver>(&mut self, kind: EventKind, driver: &mut D) -> Result<(), SimError> {
        self.stats.by_kind.count(&kind);
        match kind {
            EventKind::Ps { res, epoch } => {
                let resource = self.resource_mut(res);
                if resource.epoch() != epoch {
                    // Predictions are cancelled eagerly in `refresh_ps`, so an
                    // epoch mismatch here is a backstop, not the common path.
                    self.stats.stale_events += 1;
                    return Ok(()); // stale prediction
                }
                let now = self.now;
                let mut done = std::mem::take(&mut self.done_buf);
                self.resource_mut(res).pop_completed(now, &mut done);
                let mut work = std::mem::take(&mut self.work_buf);
                for &job in &done {
                    self.on_service_done(res, job, &mut work, driver);
                }
                done.clear();
                self.done_buf = done;
                self.refresh_ps(res);
                self.drain(work, driver)
            }
            EventKind::DelayDone { job } => {
                let mut work = std::mem::take(&mut self.work_buf);
                self.on_delay_done(job, &mut work, driver);
                self.drain(work, driver)
            }
            EventKind::JobStart { job } => {
                let mut work = std::mem::take(&mut self.work_buf);
                work.push(job);
                self.drain(work, driver)
            }
            EventKind::Timer { token } => {
                driver.on_timer(self, token);
                Ok(())
            }
            EventKind::Deadline { job } => {
                // Stale when the job already completed, aborted, or was
                // rejected: deadline events are cancelled eagerly when a job
                // leaves the table, so reaching here for a dead job means the
                // cancel was missed — count it.
                if let Some(info) = self.abort_job(job, AbortReason::DeadlineExpired) {
                    driver.on_job_aborted(self, info);
                } else {
                    self.stats.stale_events += 1;
                }
                Ok(())
            }
            EventKind::ShedJob { job } => {
                // Stale when the job ended between being shed from the wait
                // queue and this zero-delay event firing (e.g., its own
                // deadline was dispatched at the same instant).
                if let Some(info) = self.abort_job(job, AbortReason::Shed) {
                    driver.on_job_aborted(self, info);
                } else {
                    self.stats.stale_events += 1;
                }
                Ok(())
            }
            EventKind::Crash { machine } => {
                self.machines[machine as usize].down = true;
                // Abort everything in service on the machine, in the
                // resources' deterministic virtual-finish order.
                let mut victims = self.machines[machine as usize].cpu.active_jobs();
                victims.extend(self.machines[machine as usize].nic.active_jobs());
                for v in victims {
                    if let Some(info) = self.abort_job(v, AbortReason::MachineCrash) {
                        driver.on_job_aborted(self, info);
                    }
                }
                Ok(())
            }
            EventKind::Restart { machine } => {
                self.machines[machine as usize].down = false;
                Ok(())
            }
        }
    }

    fn resource_mut(&mut self, res: ResKey) -> &mut PsResource {
        match res {
            ResKey::Cpu(i) => &mut self.machines[i as usize].cpu,
            ResKey::Nic(i) => &mut self.machines[i as usize].nic,
        }
    }

    /// (Re)schedules the completion prediction for a resource.
    ///
    /// When the new prediction lands in the calendar bucket the old one
    /// already occupies, the event is updated in place and no tombstone is
    /// created; otherwise the previous prediction is cancelled so stale
    /// `Ps` events almost never surface. The epoch check in `dispatch`
    /// remains as a counted backstop either way.
    fn refresh_ps(&mut self, res: ResKey) {
        let now = self.now;
        let resource = self.resource_mut(res);
        let next = resource.next_completion(now).map(|at| (at, resource.epoch()));
        let machine = match res {
            ResKey::Cpu(i) | ResKey::Nic(i) => i as usize,
        };
        let slot = match res {
            ResKey::Cpu(_) => &mut self.machines[machine].cpu_ev,
            ResKey::Nic(_) => &mut self.machines[machine].nic_ev,
        };
        let new = match (slot.take(), next) {
            (None, None) => None,
            (None, Some((at, epoch))) => {
                Some(self.queue.schedule(at, EventKind::Ps { res, epoch }))
            }
            (Some(id), None) => {
                self.queue.cancel(id);
                None
            }
            (Some(id), Some((at, epoch))) => {
                if self.queue.reschedule(id, at, EventKind::Ps { res, epoch }) {
                    Some(id)
                } else {
                    let new = self.queue.schedule(at, EventKind::Ps { res, epoch });
                    self.queue.cancel(id);
                    Some(new)
                }
            }
        };
        let slot = match res {
            ResKey::Cpu(_) => &mut self.machines[machine].cpu_ev,
            ResKey::Nic(_) => &mut self.machines[machine].nic_ev,
        };
        *slot = new;
    }

    /// A job finished service on a CPU or NIC: advance its program state and
    /// queue it for further stepping.
    fn on_service_done<D: Driver>(
        &mut self,
        res: ResKey,
        job_id: JobId,
        work: &mut Vec<JobId>,
        driver: &mut D,
    ) {
        let job = self.jobs.get_mut(job_id).expect("service for unknown job");
        match res {
            ResKey::Cpu(_) => {
                if let Some(t) = &mut self.trace {
                    t.end(job_id, self.now);
                }
                let job = self.jobs.get_mut(job_id).expect("service for unknown job");
                job.pc += 1;
                work.push(job_id);
            }
            ResKey::Nic(_) => match job.net_phase {
                NetPhase::SenderNic => {
                    job.net_phase = NetPhase::Latency;
                    if self.link_latency.is_zero() {
                        self.enter_receiver_nic(job_id, work, driver);
                    } else {
                        let at = self.now + self.link_latency;
                        self.schedule(at, EventKind::DelayDone { job: job_id });
                    }
                }
                NetPhase::ReceiverNic => {
                    job.net_phase = NetPhase::Idle;
                    job.pc += 1;
                    if let Some(t) = &mut self.trace {
                        t.end(job_id, self.now);
                    }
                    work.push(job_id);
                }
                other => panic!("NIC completion in phase {other:?}"),
            },
        }
    }

    fn enter_receiver_nic<D: Driver>(
        &mut self,
        job_id: JobId,
        work: &mut Vec<JobId>,
        driver: &mut D,
    ) {
        let job = self.jobs.get_mut(job_id).expect("unknown job");
        let Op::Net { to, bytes, .. } = job.trace.ops()[job.pc] else {
            panic!("receiver phase on non-Net op");
        };
        // The destination crashed while the message was on the wire.
        if self.machines[to.0 as usize].down {
            if let Some(info) = self.abort_job(job_id, AbortReason::MachineCrash) {
                driver.on_job_aborted(self, info);
            }
            return;
        }
        let job = self.jobs.get_mut(job_id).expect("unknown job");
        job.net_phase = NetPhase::ReceiverNic;
        let mut demand = bytes as f64;
        if let Some(f) = &self.faults {
            demand *= f.plan.nic_factor(to, self.now);
        }
        let now = self.now;
        let nic = &mut self.machines[to.0 as usize].nic;
        nic.enqueue(now, job_id, demand);
        self.refresh_ps(ResKey::Nic(to.0));
        let _ = work;
    }

    fn on_delay_done<D: Driver>(&mut self, job_id: JobId, work: &mut Vec<JobId>, driver: &mut D) {
        // Stale when the job aborted while its delay (or the latency leg of
        // its transfer) was pending.
        let Some(job) = self.jobs.get_mut(job_id) else {
            self.stats.stale_events += 1;
            return;
        };
        match job.net_phase {
            NetPhase::Latency => self.enter_receiver_nic(job_id, work, driver),
            NetPhase::Idle => {
                job.pc += 1;
                if let Some(t) = &mut self.trace {
                    t.end(job_id, self.now);
                }
                work.push(job_id);
            }
            other => panic!("delay completion in phase {other:?}"),
        }
    }

    /// Steps every job in `work` (and any jobs they unblock) until each is
    /// parked in a resource, waiting on a lock, delayed, or complete, then
    /// hands the emptied buffer back for the next dispatch.
    fn drain<D: Driver>(&mut self, mut work: Vec<JobId>, driver: &mut D) -> Result<(), SimError> {
        while let Some(job_id) = work.pop() {
            self.step_job(job_id, &mut work, driver)?;
        }
        self.work_buf = work;
        Ok(())
    }

    /// `true` when the installed fault plan's transient-failure draw trips.
    /// Draws come from the plan's private stream, in event order, so the
    /// sequence is deterministic; without a plan no randomness is consumed.
    fn transient_trips(&mut self) -> bool {
        match &mut self.faults {
            Some(f) if f.plan.transient_fail_prob > 0.0 => f.rng.chance(f.plan.transient_fail_prob),
            _ => false,
        }
    }

    /// Tears down `job_id` from the fault path inside a drain, notifying the
    /// driver.
    fn abort_in_step<D: Driver>(&mut self, job_id: JobId, reason: AbortReason, driver: &mut D) {
        if let Some(info) = self.abort_job(job_id, reason) {
            driver.on_job_aborted(self, info);
        }
    }

    /// Executes ops of one job until it blocks or finishes. Newly unblocked
    /// jobs are appended to `queue`.
    fn step_job<D: Driver>(
        &mut self,
        job_id: JobId,
        queue: &mut Vec<JobId>,
        driver: &mut D,
    ) -> Result<(), SimError> {
        loop {
            // Stale when the job was aborted between being scheduled to
            // start/resume and the event firing.
            let Some(job) = self.jobs.get_mut(job_id) else {
                return Ok(());
            };
            if job.pc >= job.trace.len() {
                let done = JobDone {
                    id: job_id,
                    tag: job.tag,
                    submitted: job.submitted,
                    completed: self.now,
                };
                let deadline_ev = job.deadline_ev;
                self.jobs.remove(job_id);
                if let Some(ev) = deadline_ev {
                    self.queue.cancel(ev);
                }
                self.stats.completed += 1;
                driver.on_job_complete(self, done);
                return Ok(());
            }
            let pc = job.pc;
            let op = job.trace.ops()[pc].clone();
            match op {
                Op::Cpu { machine, micros } => {
                    if self.machines[machine.0 as usize].down {
                        self.abort_in_step(job_id, AbortReason::MachineCrash, driver);
                        return Ok(());
                    }
                    if self.transient_trips() {
                        self.abort_in_step(job_id, AbortReason::TransientFault, driver);
                        return Ok(());
                    }
                    let mut demand = micros as f64;
                    if let Some(f) = &self.faults {
                        demand *= f.plan.cpu_factor(machine, self.now);
                    }
                    let now = self.now;
                    if let Some(t) = &mut self.trace {
                        t.begin(job_id, pc, Activity::Cpu { machine, demand_micros: micros }, now);
                    }
                    self.machines[machine.0 as usize].cpu.enqueue(now, job_id, demand);
                    self.refresh_ps(ResKey::Cpu(machine.0));
                    return Ok(());
                }
                Op::Net { from, to, bytes } => {
                    if from == to || bytes == 0 {
                        job.pc += 1;
                        continue;
                    }
                    if self.machines[from.0 as usize].down || self.machines[to.0 as usize].down {
                        self.abort_in_step(job_id, AbortReason::MachineCrash, driver);
                        return Ok(());
                    }
                    if self.transient_trips() {
                        self.abort_in_step(job_id, AbortReason::TransientFault, driver);
                        return Ok(());
                    }
                    let job = self.jobs.get_mut(job_id).expect("job");
                    job.net_phase = NetPhase::SenderNic;
                    let mut demand = bytes as f64;
                    if let Some(f) = &self.faults {
                        demand *= f.plan.nic_factor(from, self.now);
                    }
                    let now = self.now;
                    if let Some(t) = &mut self.trace {
                        t.begin(job_id, pc, Activity::Net { from, to, bytes }, now);
                    }
                    self.machines[from.0 as usize].nic.enqueue(now, job_id, demand);
                    self.refresh_ps(ResKey::Nic(from.0));
                    return Ok(());
                }
                Op::Delay { micros } => {
                    if let Some(t) = &mut self.trace {
                        t.begin(job_id, pc, Activity::Delay, self.now);
                    }
                    let at = self.now + SimDuration::from_micros(micros);
                    self.schedule(at, EventKind::DelayDone { job: job_id });
                    return Ok(());
                }
                Op::Lock { lock, mode } => {
                    if self.locks.is_holder_or_waiter(lock, job_id) {
                        return Err(SimError {
                            job: job_id,
                            op_index: pc,
                            kind: SimErrorKind::LockReacquired(lock),
                        });
                    }
                    if self.locks.acquire(self.now, lock, mode, job_id) {
                        let job = self.jobs.get_mut(job_id).expect("job");
                        job.pc += 1;
                        continue;
                    }
                    // Parked; the pc stays at the Lock op and is advanced by
                    // the grant path below. A new wait-for edge exists only
                    // at this point, so this is the one place a cycle can
                    // appear.
                    if let Some(t) = &mut self.trace {
                        t.begin(job_id, pc, Activity::LockWait { lock }, self.now);
                    }
                    if let Some(victim) = self.find_deadlock_victim(job_id) {
                        self.stats.deadlocks += 1;
                        self.abort_in_step(victim, AbortReason::Deadlock, driver);
                    }
                    return Ok(());
                }
                Op::Unlock { lock } => {
                    if !self.locks.holds(lock, job_id) {
                        return Err(SimError {
                            job: job_id,
                            op_index: pc,
                            kind: SimErrorKind::UnlockNotHeld(lock),
                        });
                    }
                    let granted = self.locks.release(self.now, lock, job_id);
                    for g in granted {
                        // The granted job was parked at its Lock op.
                        if let Some(t) = &mut self.trace {
                            t.end(g, self.now);
                        }
                        let gj = self.jobs.get_mut(g).expect("granted unknown job");
                        gj.pc += 1;
                        queue.push(g);
                    }
                    let job = self.jobs.get_mut(job_id).expect("job");
                    job.pc += 1;
                    continue;
                }
                Op::SemAcquire { sem } => match self.locks.sem_acquire(self.now, sem, job_id) {
                    SemGrant::Granted => {
                        let job = self.jobs.get_mut(job_id).expect("job");
                        job.pc += 1;
                        continue;
                    }
                    SemGrant::Queued => {
                        if let Some(t) = &mut self.trace {
                            t.begin(job_id, pc, Activity::SemWait { sem }, self.now);
                        }
                        return Ok(());
                    }
                    SemGrant::Rejected => {
                        self.abort_in_step(job_id, AbortReason::Rejected, driver);
                        return Ok(());
                    }
                },
                Op::SemRelease { sem } => {
                    if !self.locks.sem_can_release(sem) {
                        return Err(SimError {
                            job: job_id,
                            op_index: pc,
                            kind: SimErrorKind::SemOverRelease(sem),
                        });
                    }
                    let r = self.locks.sem_release(self.now, sem);
                    for sj in r.shed {
                        // Torn down via a zero-delay event; abort_job then
                        // discards the shed job's open SemWait interval.
                        self.schedule(self.now, EventKind::ShedJob { job: sj });
                    }
                    if let Some(g) = r.granted {
                        if let Some(t) = &mut self.trace {
                            t.end(g, self.now);
                        }
                        let gj = self.jobs.get_mut(g).expect("granted unknown job");
                        gj.pc += 1;
                        queue.push(g);
                    }
                    let job = self.jobs.get_mut(job_id).expect("job");
                    job.pc += 1;
                    continue;
                }
            }
        }
    }

    /// The common teardown path: removes the job from whatever it occupies,
    /// releases everything its trace prefix acquired (granting waiters via
    /// zero-delay resume events, which keeps this callable without a driver
    /// borrow), and updates the abort/reject counters. Returns `None` when
    /// the job is unknown (stale deadline, double cancel).
    fn abort_job(&mut self, job_id: JobId, reason: AbortReason) -> Option<JobAborted> {
        let job = self.jobs.remove(job_id)?;
        if let Some(ev) = job.deadline_ev {
            self.queue.cancel(ev);
        }
        // A half-finished op interval is unattributable: drop it.
        if let Some(t) = &mut self.trace {
            t.discard(job_id);
        }
        // 1. Detach from the resource or wait queue the job is parked in.
        if job.pc < job.trace.len() {
            let now = self.now;
            match job.trace.ops()[job.pc] {
                Op::Cpu { machine, .. } => {
                    if self.machines[machine.0 as usize].cpu.cancel(now, job_id) {
                        self.refresh_ps(ResKey::Cpu(machine.0));
                    }
                }
                Op::Net { from, to, .. } => match job.net_phase {
                    NetPhase::SenderNic => {
                        if self.machines[from.0 as usize].nic.cancel(now, job_id) {
                            self.refresh_ps(ResKey::Nic(from.0));
                        }
                    }
                    NetPhase::ReceiverNic => {
                        if self.machines[to.0 as usize].nic.cancel(now, job_id) {
                            self.refresh_ps(ResKey::Nic(to.0));
                        }
                    }
                    // Latency leg (or not yet started): the pending
                    // DelayDone event goes stale and is ignored.
                    NetPhase::Latency | NetPhase::Idle => {}
                },
                Op::Lock { lock, .. } => {
                    for g in self.locks.cancel_waiting(now, lock, job_id) {
                        self.resume_granted(g);
                    }
                }
                Op::SemAcquire { sem } => {
                    self.locks.sem_cancel_waiting(sem, job_id);
                }
                // Delay: the pending DelayDone event goes stale.
                Op::Delay { .. } | Op::Unlock { .. } | Op::SemRelease { .. } => {}
            }
        }
        // 2. Release every lock and semaphore unit the executed prefix still
        //    holds, newest first (reverse acquisition order).
        let (held_locks, held_sems) = held_resources(&job.trace, job.pc);
        let now = self.now;
        for lock in held_locks.into_iter().rev() {
            for g in self.locks.release(now, lock, job_id) {
                self.resume_granted(g);
            }
        }
        for sem in held_sems.into_iter().rev() {
            let r = self.locks.sem_release(now, sem);
            for sj in r.shed {
                self.schedule(now, EventKind::ShedJob { job: sj });
            }
            if let Some(g) = r.granted {
                self.resume_granted(g);
            }
        }
        // 3. Account. Rejections are load shedding, not faults.
        match reason {
            AbortReason::Rejected => self.stats.rejected += 1,
            _ => self.stats.aborted += 1,
        }
        Some(JobAborted {
            id: job_id,
            tag: job.tag,
            submitted: job.submitted,
            aborted: self.now,
            reason,
        })
    }

    /// Looks for a lock wait-for cycle through the freshly parked `start`
    /// and returns the victim to abort: the youngest (highest [`JobId`]) job
    /// on the cycle. Edges run from a parked waiter to every current holder
    /// of the lock it wants; since each job waits on at most one lock, any
    /// cycle created by this park must pass through `start`, so a reachability
    /// search from `start` back to itself is complete. Holders that are
    /// running (not parked on a lock) are dead ends. Returns `None` — at no
    /// cost beyond one queue scan — when there is no cycle, which is every
    /// park in the healthy figure runs (the paper apps order their locks
    /// globally).
    fn find_deadlock_victim(&self, start: JobId) -> Option<JobId> {
        let mut path = vec![start];
        let mut visited: IdSet<JobId> = IdSet::default();
        visited.insert(start);
        if self.deadlock_dfs(start, start, &mut path, &mut visited) {
            path.into_iter().max()
        } else {
            None
        }
    }

    fn deadlock_dfs(
        &self,
        node: JobId,
        start: JobId,
        path: &mut Vec<JobId>,
        visited: &mut IdSet<JobId>,
    ) -> bool {
        let Some(lock) = self.locks.waiting_on(node) else {
            return false;
        };
        for h in self.locks.holders(lock) {
            if h == start {
                return true;
            }
            if visited.insert(h) {
                path.push(h);
                if self.deadlock_dfs(h, start, path, visited) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }

    /// A job granted a lock/semaphore by an aborting holder: advance it past
    /// its acquire op and schedule a zero-delay resume event.
    fn resume_granted(&mut self, g: JobId) {
        if let Some(t) = &mut self.trace {
            t.end(g, self.now);
        }
        let gj = self.jobs.get_mut(g).expect("granted unknown job");
        gj.pc += 1;
        self.schedule(self.now, EventKind::JobStart { job: g });
    }
}

/// The locks and semaphore units still held after executing `trace[..pc]`,
/// in acquisition order.
fn held_resources(trace: &Trace, pc: usize) -> (Vec<LockId>, Vec<SemaphoreId>) {
    let mut locks = Vec::new();
    let mut sems = Vec::new();
    for op in &trace.ops()[..pc] {
        match op {
            Op::Lock { lock, .. } => locks.push(*lock),
            Op::Unlock { lock } => {
                if let Some(pos) = locks.iter().rposition(|l| l == lock) {
                    locks.remove(pos);
                }
            }
            Op::SemAcquire { sem } => sems.push(*sem),
            Op::SemRelease { sem } => {
                if let Some(pos) = sems.iter().rposition(|s| s == sem) {
                    sems.remove(pos);
                }
            }
            _ => {}
        }
    }
    (locks, sems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockMode;

    struct Recorder {
        done: Vec<JobDone>,
        timers: Vec<(SimTime, u64)>,
        aborted: Vec<JobAborted>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder { done: Vec::new(), timers: Vec::new(), aborted: Vec::new() }
        }
    }

    impl Driver for Recorder {
        fn on_job_complete(&mut self, _sim: &mut Simulation, done: JobDone) {
            self.done.push(done);
        }
        fn on_timer(&mut self, sim: &mut Simulation, token: u64) {
            self.timers.push((sim.now(), token));
        }
        fn on_job_aborted(&mut self, _sim: &mut Simulation, info: JobAborted) {
            self.aborted.push(info);
        }
    }

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    #[test]
    fn single_cpu_job_completes_on_time() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 1.0, 100.0);
        let trace: Trace = [Op::Cpu { machine: m, micros: 400 }].into_iter().collect();
        sim.submit(trace, 42);
        let mut rec = Recorder::new();
        sim.run(t(10_000), &mut rec).unwrap();
        assert_eq!(rec.done.len(), 1);
        assert_eq!(rec.done[0].tag, 42);
        assert_eq!(rec.done[0].completed, t(400));
        assert_eq!(rec.done[0].latency(), SimDuration::from_micros(400));
    }

    #[test]
    fn ps_contention_stretches_latency() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 1.0, 100.0);
        for i in 0..2 {
            let trace: Trace = [Op::Cpu { machine: m, micros: 1_000 }].into_iter().collect();
            sim.submit(trace, i);
        }
        let mut rec = Recorder::new();
        sim.run(t(100_000), &mut rec).unwrap();
        assert_eq!(rec.done.len(), 2);
        // Both share the CPU: each takes ~2000us.
        for d in &rec.done {
            assert!(d.latency() >= SimDuration::from_micros(1_999), "{d:?}");
        }
    }

    #[test]
    fn net_transfer_charges_both_nics_and_latency() {
        let mut sim = Simulation::new(SimDuration::from_micros(150));
        let a = sim.add_machine("a", 1.0, 100.0); // 12.5 B/us
        let b = sim.add_machine("b", 1.0, 100.0);
        let trace: Trace = [Op::Net { from: a, to: b, bytes: 1_250 }].into_iter().collect();
        sim.submit(trace, 0);
        let mut rec = Recorder::new();
        sim.run(t(100_000), &mut rec).unwrap();
        // 1250 bytes at 12.5 B/us = 100us per NIC + 150us latency = 350us.
        assert_eq!(rec.done[0].completed, t(350));
        let sa = sim.nic_stats(a);
        let sb = sim.nic_stats(b);
        assert!((sa.work_done - 1_250.0).abs() < 1e-6);
        assert!((sb.work_done - 1_250.0).abs() < 1e-6);
    }

    #[test]
    fn loopback_and_zero_byte_transfers_are_free() {
        let mut sim = Simulation::new(SimDuration::from_micros(150));
        let a = sim.add_machine("a", 1.0, 100.0);
        let b = sim.add_machine("b", 1.0, 100.0);
        let trace: Trace =
            [Op::Net { from: a, to: a, bytes: 1_000_000 }, Op::Net { from: a, to: b, bytes: 0 }]
                .into_iter()
                .collect();
        sim.submit(trace, 0);
        let mut rec = Recorder::new();
        sim.run(t(10_000), &mut rec).unwrap();
        assert_eq!(rec.done[0].completed, t(0));
    }

    #[test]
    fn delay_op_waits_exactly() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let _ = sim.add_machine("a", 1.0, 100.0);
        let trace: Trace = [Op::Delay { micros: 777 }].into_iter().collect();
        sim.submit(trace, 0);
        let mut rec = Recorder::new();
        sim.run(t(10_000), &mut rec).unwrap();
        assert_eq!(rec.done[0].completed, t(777));
    }

    #[test]
    fn lock_serializes_critical_sections() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("db", 1.0, 100.0);
        let l = sim.register_lock("items");
        for i in 0..3 {
            let trace: Trace = [
                Op::Lock { lock: l, mode: LockMode::Exclusive },
                Op::Cpu { machine: m, micros: 1_000 },
                Op::Unlock { lock: l },
            ]
            .into_iter()
            .collect();
            sim.submit(trace, i);
        }
        let mut rec = Recorder::new();
        sim.run(t(100_000), &mut rec).unwrap();
        assert_eq!(rec.done.len(), 3);
        // Fully serialized: completions at 1000, 2000, 3000 (the CPU is
        // never shared because the lock serializes).
        let mut ends: Vec<u64> = rec.done.iter().map(|d| d.completed.as_micros()).collect();
        ends.sort_unstable();
        assert_eq!(ends, vec![1_000, 2_000, 3_000]);
        let ls = sim.lock_stats(l);
        assert_eq!(ls.immediate_grants + ls.contended, 3);
        assert_eq!(ls.contended, 2);
    }

    #[test]
    fn deadlock_aborts_youngest_and_lets_the_other_finish() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("db", 2.0, 100.0);
        let a = sim.register_lock("a");
        let b = sim.register_lock("b");
        // Two jobs take the locks in opposite orders; the CPU op between
        // the acquisitions lets both grab their first lock before either
        // requests its second — a guaranteed cycle.
        let mk = |first: LockId, second: LockId| -> Trace {
            [
                Op::Lock { lock: first, mode: LockMode::Exclusive },
                Op::Cpu { machine: m, micros: 500 },
                Op::Lock { lock: second, mode: LockMode::Exclusive },
                Op::Cpu { machine: m, micros: 500 },
                Op::Unlock { lock: second },
                Op::Unlock { lock: first },
            ]
            .into_iter()
            .collect()
        };
        let j1 = sim.submit(mk(a, b), 1);
        let j2 = sim.submit(mk(b, a), 2);
        let mut rec = Recorder::new();
        sim.run(t(100_000), &mut rec).unwrap();
        // The youngest job in the cycle is the victim; the survivor finishes.
        assert_eq!(rec.aborted.len(), 1);
        assert_eq!(rec.aborted[0].id, j2.max(j1));
        assert_eq!(rec.aborted[0].reason, AbortReason::Deadlock);
        assert_eq!(rec.done.len(), 1);
        assert_eq!(rec.done[0].id, j1.min(j2));
        assert_eq!(sim.stats().deadlocks, 1);
        assert_eq!(sim.stats().aborted, 1);
        assert_eq!(sim.stats().completed, 1);
        assert_eq!(sim.leak_report(), None);
    }

    #[test]
    fn deadlock_detection_handles_three_job_cycles() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("db", 4.0, 100.0);
        let locks: Vec<LockId> = ["a", "b", "c"].iter().map(|n| sim.register_lock(*n)).collect();
        // Job i holds lock i and then wants lock (i+1) % 3.
        for i in 0..3u64 {
            let first = locks[i as usize];
            let second = locks[(i as usize + 1) % 3];
            let trace: Trace = [
                Op::Lock { lock: first, mode: LockMode::Exclusive },
                Op::Cpu { machine: m, micros: 500 },
                Op::Lock { lock: second, mode: LockMode::Exclusive },
                Op::Unlock { lock: second },
                Op::Unlock { lock: first },
            ]
            .into_iter()
            .collect();
            sim.submit(trace, i);
        }
        let mut rec = Recorder::new();
        sim.run(t(100_000), &mut rec).unwrap();
        // One victim breaks the 3-cycle; the other two finish.
        assert_eq!(rec.aborted.len(), 1);
        assert_eq!(rec.aborted[0].reason, AbortReason::Deadlock);
        assert_eq!(rec.done.len(), 2);
        assert_eq!(sim.stats().deadlocks, 1);
        assert_eq!(sim.leak_report(), None);
    }

    #[test]
    fn uncontended_and_ordered_locking_never_reports_deadlock() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("db", 1.0, 100.0);
        let a = sim.register_lock("a");
        let b = sim.register_lock("b");
        // Same global order in both jobs: contention but no cycle.
        for i in 0..2 {
            let trace: Trace = [
                Op::Lock { lock: a, mode: LockMode::Exclusive },
                Op::Lock { lock: b, mode: LockMode::Exclusive },
                Op::Cpu { machine: m, micros: 300 },
                Op::Unlock { lock: b },
                Op::Unlock { lock: a },
            ]
            .into_iter()
            .collect();
            sim.submit(trace, i);
        }
        let mut rec = Recorder::new();
        sim.run(t(100_000), &mut rec).unwrap();
        assert_eq!(rec.done.len(), 2);
        assert!(rec.aborted.is_empty());
        assert_eq!(sim.stats().deadlocks, 0);
    }

    #[test]
    fn readers_proceed_in_parallel() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("db", 2.0, 100.0); // 2 cores
        let l = sim.register_lock("items");
        for i in 0..2 {
            let trace: Trace = [
                Op::Lock { lock: l, mode: LockMode::Shared },
                Op::Cpu { machine: m, micros: 1_000 },
                Op::Unlock { lock: l },
            ]
            .into_iter()
            .collect();
            sim.submit(trace, i);
        }
        let mut rec = Recorder::new();
        sim.run(t(100_000), &mut rec).unwrap();
        // Both run concurrently on 2 cores: both end at 1000us.
        assert!(rec.done.iter().all(|d| d.completed == t(1_000)));
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 4.0, 100.0);
        let s = sim.register_semaphore("pool", 1);
        for i in 0..2 {
            let trace: Trace = [
                Op::SemAcquire { sem: s },
                Op::Cpu { machine: m, micros: 500 },
                Op::SemRelease { sem: s },
            ]
            .into_iter()
            .collect();
            sim.submit(trace, i);
        }
        let mut rec = Recorder::new();
        sim.run(t(100_000), &mut rec).unwrap();
        let mut ends: Vec<u64> = rec.done.iter().map(|d| d.completed.as_micros()).collect();
        ends.sort_unstable();
        // Despite 4 cores, the pool of 1 serializes: 500 then 1000... the
        // second job starts only when the first releases.
        assert_eq!(ends, vec![500, 1_000]);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        sim.set_timer(t(300), 3);
        sim.set_timer(t(100), 1);
        sim.set_timer(t(200), 2);
        let mut rec = Recorder::new();
        sim.run(t(1_000), &mut rec).unwrap();
        assert_eq!(rec.timers, vec![(t(100), 1), (t(200), 2), (t(300), 3)]);
    }

    #[test]
    fn empty_trace_completes_immediately() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        sim.submit(Trace::new(), 9);
        let mut rec = Recorder::new();
        sim.run(t(1), &mut rec).unwrap();
        assert_eq!(rec.done.len(), 1);
        assert_eq!(rec.done[0].completed, t(0));
    }

    /// A driver that submits a new job from within a completion callback.
    struct Chainer {
        m: MachineId,
        remaining: u32,
        finished: u32,
    }

    impl Driver for Chainer {
        fn on_job_complete(&mut self, sim: &mut Simulation, _done: JobDone) {
            self.finished += 1;
            if self.remaining > 0 {
                self.remaining -= 1;
                let trace: Trace = [Op::Cpu { machine: self.m, micros: 100 }].into_iter().collect();
                sim.submit(trace, 0);
            }
        }
        fn on_timer(&mut self, _sim: &mut Simulation, _token: u64) {}
    }

    #[test]
    fn reentrant_submission_from_callback() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 1.0, 100.0);
        let trace: Trace = [Op::Cpu { machine: m, micros: 100 }].into_iter().collect();
        sim.submit(trace, 0);
        let mut chain = Chainer { m, remaining: 4, finished: 0 };
        sim.run(t(10_000), &mut chain).unwrap();
        assert_eq!(chain.finished, 5);
        assert_eq!(sim.stats().completed, 5);
        // 5 sequential 100us jobs.
        assert_eq!(sim.cpu_stats(m).busy_micros as u64, 500);
    }

    #[test]
    fn utilization_integrals_are_exact_at_run_end() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 1.0, 100.0);
        let trace: Trace = [Op::Cpu { machine: m, micros: 2_500 }].into_iter().collect();
        sim.submit(trace, 0);
        let mut rec = Recorder::new();
        sim.run(t(10_000), &mut rec).unwrap();
        let s = sim.cpu_stats(m);
        assert!((s.busy_micros - 2_500.0).abs() < 1e-6);
        // Utilization over the window: 25%.
        let util = s.busy_micros / sim.now().as_micros() as f64;
        assert!((util - 0.25).abs() < 1e-6);
    }

    #[test]
    fn deadline_aborts_and_releases_locks() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("db", 1.0, 100.0);
        let l = sim.register_lock("items");
        // Job 0 holds the lock for 5000us of CPU; its deadline fires at
        // 1000us, which must release the lock to job 1.
        let hog: Trace = [
            Op::Lock { lock: l, mode: LockMode::Exclusive },
            Op::Cpu { machine: m, micros: 5_000 },
            Op::Unlock { lock: l },
        ]
        .into_iter()
        .collect();
        sim.submit_with_deadline(hog, 0, SimDuration::from_micros(1_000));
        let waiter: Trace = [
            Op::Lock { lock: l, mode: LockMode::Exclusive },
            Op::Cpu { machine: m, micros: 100 },
            Op::Unlock { lock: l },
        ]
        .into_iter()
        .collect();
        sim.submit(waiter, 1);
        let mut rec = Recorder::new();
        sim.run(t(100_000), &mut rec).unwrap();
        assert_eq!(rec.aborted.len(), 1);
        assert_eq!(rec.aborted[0].tag, 0);
        assert_eq!(rec.aborted[0].reason, AbortReason::DeadlineExpired);
        assert_eq!(rec.aborted[0].aborted, t(1_000));
        // The waiter got the lock at abort time and ran its 100us.
        assert_eq!(rec.done.len(), 1);
        assert_eq!(rec.done[0].tag, 1);
        assert_eq!(rec.done[0].completed, t(1_100));
        let s = sim.stats();
        assert_eq!((s.submitted, s.completed, s.aborted, s.rejected), (2, 1, 1, 0));
        assert!(sim.leak_report().is_none(), "{:?}", sim.leak_report());
    }

    #[test]
    fn deadline_after_completion_is_stale() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 1.0, 100.0);
        let trace: Trace = [Op::Cpu { machine: m, micros: 100 }].into_iter().collect();
        sim.submit_with_deadline(trace, 0, SimDuration::from_micros(10_000));
        let mut rec = Recorder::new();
        sim.run_until_idle(&mut rec).unwrap();
        assert_eq!(rec.done.len(), 1);
        assert!(rec.aborted.is_empty());
        assert_eq!(sim.stats().aborted, 0);
    }

    #[test]
    fn cancel_unwinds_semaphore_and_grants_waiter() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 4.0, 100.0);
        let s = sim.register_semaphore("pool", 1);
        let mk = || -> Trace {
            [
                Op::SemAcquire { sem: s },
                Op::Cpu { machine: m, micros: 1_000 },
                Op::SemRelease { sem: s },
            ]
            .into_iter()
            .collect()
        };
        let first = sim.submit(mk(), 0);
        sim.submit(mk(), 1);
        let mut rec = Recorder::new();
        sim.run(t(500), &mut rec).unwrap();
        // First holds the pool and is mid-CPU; second is queued.
        assert!(sim.cancel(first));
        assert!(!sim.cancel(first), "double cancel is a no-op");
        sim.run(t(100_000), &mut rec).unwrap();
        assert_eq!(rec.done.len(), 1);
        assert_eq!(rec.done[0].tag, 1);
        // Cancel does not invoke on_job_aborted; the caller knows.
        assert!(rec.aborted.is_empty());
        assert_eq!(sim.stats().aborted, 1);
        assert!(sim.leak_report().is_none(), "{:?}", sim.leak_report());
    }

    #[test]
    fn cancel_of_lock_waiter_leaves_queue_clean() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("db", 1.0, 100.0);
        let l = sim.register_lock("items");
        let mk = |micros| -> Trace {
            [
                Op::Lock { lock: l, mode: LockMode::Exclusive },
                Op::Cpu { machine: m, micros },
                Op::Unlock { lock: l },
            ]
            .into_iter()
            .collect()
        };
        sim.submit(mk(1_000), 0);
        let waiter = sim.submit(mk(1_000), 1);
        let mut rec = Recorder::new();
        sim.run(t(500), &mut rec).unwrap();
        assert!(sim.cancel(waiter));
        sim.run(t(100_000), &mut rec).unwrap();
        assert_eq!(rec.done.len(), 1);
        assert_eq!(rec.done[0].tag, 0);
        assert!(sim.leak_report().is_none(), "{:?}", sim.leak_report());
    }

    #[test]
    fn bounded_semaphore_rejects_and_deadline_does_not_double_count() {
        // The satellite guarantee: a rejected request is counted exactly
        // once, not again as a timeout when its deadline later fires.
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 1.0, 100.0);
        let s = sim.register_semaphore_bounded("accept", 1, 0);
        let mk = || -> Trace {
            [
                Op::SemAcquire { sem: s },
                Op::Cpu { machine: m, micros: 5_000 },
                Op::SemRelease { sem: s },
            ]
            .into_iter()
            .collect()
        };
        sim.submit_with_deadline(mk(), 0, SimDuration::from_micros(1_000));
        sim.submit_with_deadline(mk(), 1, SimDuration::from_micros(1_000));
        let mut rec = Recorder::new();
        sim.run_until_idle(&mut rec).unwrap();
        // Job 1 was rejected at t=0. Job 0's own deadline then kills it at
        // t=1000. Job 1's deadline event is stale and counts nothing.
        let reasons: Vec<(u64, AbortReason)> =
            rec.aborted.iter().map(|a| (a.tag, a.reason)).collect();
        assert_eq!(reasons, vec![(1, AbortReason::Rejected), (0, AbortReason::DeadlineExpired)]);
        let st = sim.stats();
        assert_eq!((st.submitted, st.completed, st.aborted, st.rejected), (2, 0, 1, 1));
        assert_eq!(sim.semaphore_stats(s).rejected, 1);
        assert!(sim.leak_report().is_none(), "{:?}", sim.leak_report());
    }

    #[test]
    fn shed_target_tears_down_stale_waiters_as_shed() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 1.0, 100.0);
        let s = sim.register_semaphore("pool", 1);
        sim.set_semaphore_shed_target(s, Some(SimDuration::from_micros(1_500)));
        let mk = || -> Trace {
            [
                Op::SemAcquire { sem: s },
                Op::Cpu { machine: m, micros: 1_000 },
                Op::SemRelease { sem: s },
            ]
            .into_iter()
            .collect()
        };
        sim.submit(mk(), 0);
        sim.submit(mk(), 1);
        sim.submit(mk(), 2);
        let mut rec = Recorder::new();
        sim.run_until_idle(&mut rec).unwrap();
        // J0 holds the unit until t=1000. J1 waited 1000us <= 1500: granted.
        // At J1's release (t=2000) J2 has waited 2000us > 1500: shed, and
        // with no live waiter left the unit goes free.
        let reasons: Vec<(u64, AbortReason)> =
            rec.aborted.iter().map(|a| (a.tag, a.reason)).collect();
        assert_eq!(reasons, vec![(2, AbortReason::Shed)]);
        let tags: Vec<u64> = rec.done.iter().map(|d| d.tag).collect();
        assert_eq!(tags, vec![0, 1]);
        let st = sim.stats();
        assert_eq!((st.submitted, st.completed, st.aborted, st.rejected), (3, 2, 1, 0));
        assert_eq!(sim.semaphore_stats(s).shed, 1);
        assert!(sim.leak_report().is_none(), "{:?}", sim.leak_report());
    }

    #[test]
    fn shed_job_is_counted_once_even_with_a_pending_deadline() {
        // A shed waiter with a live deadline must not be counted again when
        // the stale deadline event fires.
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("web", 1.0, 100.0);
        let s = sim.register_semaphore("pool", 1);
        sim.set_semaphore_shed_target(s, Some(SimDuration::from_micros(500)));
        let mk = || -> Trace {
            [
                Op::SemAcquire { sem: s },
                Op::Cpu { machine: m, micros: 1_000 },
                Op::SemRelease { sem: s },
            ]
            .into_iter()
            .collect()
        };
        sim.submit_with_deadline(mk(), 0, SimDuration::from_micros(10_000));
        sim.submit_with_deadline(mk(), 1, SimDuration::from_micros(10_000));
        let mut rec = Recorder::new();
        sim.run_until_idle(&mut rec).unwrap();
        // J1 waited 1000us > 500 at J0's release: shed exactly once.
        let reasons: Vec<(u64, AbortReason)> =
            rec.aborted.iter().map(|a| (a.tag, a.reason)).collect();
        assert_eq!(reasons, vec![(1, AbortReason::Shed)]);
        let st = sim.stats();
        assert_eq!((st.completed, st.aborted), (1, 1));
        assert!(sim.leak_report().is_none(), "{:?}", sim.leak_report());
    }

    #[test]
    fn event_kind_counts_sum_to_events() {
        let mut sim = Simulation::new(SimDuration::from_micros(50));
        let web = sim.add_machine("web", 1.0, 100.0);
        let db = sim.add_machine("db", 1.0, 100.0);
        sim.install_faults(FaultPlan {
            seed: 3,
            transient_fail_prob: 0.0,
            crashes: vec![crate::fault::CrashWindow {
                machine: db,
                at: t(6_000),
                restart: t(7_000),
            }],
            degradations: Vec::new(),
        });
        for i in 0..20 {
            let trace: Trace = [
                Op::Cpu { machine: web, micros: 30 },
                Op::Net { from: web, to: db, bytes: 500 },
                Op::Delay { micros: 100 },
                Op::Cpu { machine: db, micros: 20 + i },
            ]
            .into_iter()
            .collect();
            sim.submit_with_deadline(trace, i, SimDuration::from_micros(5_000));
        }
        // Outlives its deadline, then its delay fires stale.
        let slow: Trace = [Op::Delay { micros: 9_000 }].into_iter().collect();
        sim.submit_with_deadline(slow, 20, SimDuration::from_micros(5_000));
        // In service on the db when it crashes.
        let long: Trace = [Op::Cpu { machine: db, micros: 10_000 }].into_iter().collect();
        sim.submit(long, 21);
        sim.set_timer(t(1_000), 1);
        sim.set_timer(t(9_000), 2);
        let mut rec = Recorder::new();
        sim.run(t(20_000), &mut rec).unwrap();
        let st = sim.stats();
        let k = st.by_kind;
        assert_eq!(k.total(), st.events, "{k:?}");
        assert_eq!((st.completed, st.aborted), (20, 2));
        assert_eq!((k.job_start, k.timer), (22, 2));
        // One deadline, the crash and the restart.
        assert_eq!(k.other, 3);
        // Twenty latency legs and twenty Delay ops, plus the stale delay.
        assert_eq!(k.delay, 41);
        assert!(k.ps_cpu > 0 && k.ps_nic > 0, "{k:?}");
    }

    #[test]
    fn machine_crash_aborts_in_service_jobs_and_fast_fails_new_ones() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let web = sim.add_machine("web", 1.0, 100.0);
        let db = sim.add_machine("db", 1.0, 100.0);
        let plan = FaultPlan {
            seed: 7,
            transient_fail_prob: 0.0,
            crashes: vec![crate::fault::CrashWindow {
                machine: db,
                at: t(1_000),
                restart: t(3_000),
            }],
            degradations: Vec::new(),
        };
        sim.install_faults(plan);
        // In service on the db at crash time: aborted.
        let victim: Trace = [Op::Cpu { machine: db, micros: 5_000 }].into_iter().collect();
        sim.submit(victim, 0);
        // Arrives while the db is down: fast-fails.
        let during: Trace = [
            Op::Delay { micros: 2_000 },
            Op::Cpu { machine: web, micros: 10 },
            Op::Net { from: web, to: db, bytes: 100 },
        ]
        .into_iter()
        .collect();
        sim.submit(during, 1);
        // Arrives after the restart: completes.
        let after: Trace = [Op::Delay { micros: 4_000 }, Op::Cpu { machine: db, micros: 100 }]
            .into_iter()
            .collect();
        sim.submit(after, 2);
        let mut rec = Recorder::new();
        sim.run_until_idle(&mut rec).unwrap();
        assert!(!sim.machine_is_down(db));
        let reasons: Vec<(u64, AbortReason)> =
            rec.aborted.iter().map(|a| (a.tag, a.reason)).collect();
        assert_eq!(reasons, vec![(0, AbortReason::MachineCrash), (1, AbortReason::MachineCrash)]);
        assert_eq!(rec.done.len(), 1);
        assert_eq!(rec.done[0].tag, 2);
        let st = sim.stats();
        assert_eq!((st.completed, st.aborted), (1, 2));
        assert!(sim.leak_report().is_none(), "{:?}", sim.leak_report());
    }

    #[test]
    fn degradation_stretches_service() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("db", 1.0, 100.0);
        let plan = FaultPlan {
            seed: 0,
            transient_fail_prob: 0.0,
            crashes: Vec::new(),
            degradations: vec![crate::fault::Degradation {
                machine: m,
                from: t(0),
                until: t(10_000),
                cpu_factor: 2.0,
                nic_factor: 1.0,
            }],
        };
        sim.install_faults(plan);
        let trace: Trace = [Op::Cpu { machine: m, micros: 1_000 }].into_iter().collect();
        sim.submit(trace, 0);
        let mut rec = Recorder::new();
        sim.run_until_idle(&mut rec).unwrap();
        assert_eq!(rec.done[0].completed, t(2_000));
    }

    #[test]
    fn unlock_without_hold_is_structured_error() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let _ = sim.add_machine("db", 1.0, 100.0);
        let l = sim.register_lock("items");
        let bad: Trace = [Op::Unlock { lock: l }].into_iter().collect();
        let id = sim.submit(bad, 0);
        let err = sim.run_until_idle(&mut NullDriver).unwrap_err();
        assert_eq!(err.job, id);
        assert_eq!(err.op_index, 0);
        assert_eq!(err.kind, SimErrorKind::UnlockNotHeld(l));
        assert!(err.to_string().contains("unlock"));
    }

    #[test]
    fn lock_reacquisition_is_structured_error() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let l = sim.register_lock("items");
        let bad: Trace = [
            Op::Lock { lock: l, mode: LockMode::Shared },
            Op::Lock { lock: l, mode: LockMode::Shared },
            Op::Unlock { lock: l },
        ]
        .into_iter()
        .collect();
        sim.submit(bad, 0);
        let err = sim.run_until_idle(&mut NullDriver).unwrap_err();
        assert_eq!(err.op_index, 1);
        assert_eq!(err.kind, SimErrorKind::LockReacquired(l));
    }

    #[test]
    fn semaphore_over_release_is_structured_error() {
        let mut sim = Simulation::new(SimDuration::ZERO);
        let s = sim.register_semaphore("pool", 1);
        let bad: Trace = [Op::SemRelease { sem: s }].into_iter().collect();
        sim.submit(bad, 0);
        let err = sim.run_until_idle(&mut NullDriver).unwrap_err();
        assert_eq!(err.kind, SimErrorKind::SemOverRelease(s));
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let run = || {
            let mut sim = Simulation::new(SimDuration::from_micros(10));
            let a = sim.add_machine("a", 1.0, 100.0);
            let b = sim.add_machine("b", 1.0, 100.0);
            let l = sim.register_lock("x");
            sim.install_faults(FaultPlan {
                seed: 99,
                transient_fail_prob: 0.05,
                crashes: vec![crate::fault::CrashWindow {
                    machine: b,
                    at: t(2_000),
                    restart: t(4_000),
                }],
                degradations: vec![crate::fault::Degradation {
                    machine: a,
                    from: t(1_000),
                    until: t(6_000),
                    cpu_factor: 1.5,
                    nic_factor: 1.25,
                }],
            });
            for i in 0..30 {
                let trace: Trace = [
                    Op::Cpu { machine: a, micros: 100 + i * 7 },
                    Op::Lock { lock: l, mode: LockMode::Exclusive },
                    Op::Net { from: a, to: b, bytes: 200 + i * 13 },
                    Op::Cpu { machine: b, micros: 50 },
                    Op::Unlock { lock: l },
                ]
                .into_iter()
                .collect();
                sim.submit(trace, i);
            }
            let mut rec = Recorder::new();
            sim.run_until_idle(&mut rec).unwrap();
            let st = sim.stats();
            assert_eq!(st.submitted, st.completed + st.aborted + st.rejected);
            assert!(sim.leak_report().is_none(), "{:?}", sim.leak_report());
            (
                rec.done.iter().map(|d| (d.tag, d.completed.as_micros())).collect::<Vec<_>>(),
                rec.aborted.iter().map(|a| (a.tag, a.reason)).collect::<Vec<_>>(),
                st,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deterministic_event_order() {
        let run = || {
            let mut sim = Simulation::new(SimDuration::from_micros(10));
            let a = sim.add_machine("a", 1.0, 100.0);
            let b = sim.add_machine("b", 1.0, 100.0);
            let l = sim.register_lock("x");
            for i in 0..20 {
                let trace: Trace = [
                    Op::Cpu { machine: a, micros: 100 + i * 7 },
                    Op::Lock { lock: l, mode: LockMode::Exclusive },
                    Op::Net { from: a, to: b, bytes: 200 + i * 13 },
                    Op::Cpu { machine: b, micros: 50 },
                    Op::Unlock { lock: l },
                ]
                .into_iter()
                .collect();
                sim.submit(trace, i);
            }
            let mut rec = Recorder::new();
            sim.run(t(1_000_000), &mut rec).unwrap();
            rec.done.iter().map(|d| (d.tag, d.completed.as_micros())).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
