//! Deterministic fault injection: crash/restart windows, transient per-op
//! failures, and resource degradation.
//!
//! A [`FaultPlan`] describes everything that will go wrong during a run,
//! fixed up front and driven off the simulation's event calendar: machines
//! crash and restart at planned instants, individual resource operations
//! fail with a seeded per-op probability, and CPU/NIC service degrades by a
//! factor over planned intervals. Because the plan is data (not callbacks)
//! and every random draw comes from a dedicated [`SimRng`](crate::SimRng)
//! stream owned by the plan, two runs with the same seed and plan produce
//! identical event orders and metrics — chaos is replayable.
//!
//! The healthy path pays nothing: a simulation without an installed plan
//! (or with [`FaultPlan::none`]) schedules no fault events and draws no
//! random numbers, so its event sequence is bit-identical to a build
//! without this module.

use crate::engine::MachineId;
use crate::time::SimTime;

/// One planned machine outage: the machine drops at `at` and serves again
/// at `restart`. Jobs in service on the machine when it drops are aborted;
/// jobs that try to use it while it is down fail fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// The machine that crashes.
    pub machine: MachineId,
    /// When it drops.
    pub at: SimTime,
    /// When it serves again (must be after `at`).
    pub restart: SimTime,
}

/// A planned degradation interval: while `now` is in `[from, until)` the
/// machine's CPU and NIC service demands are inflated by the given factors
/// (a factor of 2.0 means operations take twice the service; 1.0 is
/// healthy). Models thermal throttling, a flaky NIC, a noisy neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// The machine affected.
    pub machine: MachineId,
    /// Interval start (inclusive).
    pub from: SimTime,
    /// Interval end (exclusive).
    pub until: SimTime,
    /// Multiplier on CPU service demand (>= 1.0 degrades).
    pub cpu_factor: f64,
    /// Multiplier on NIC service demand (>= 1.0 degrades).
    pub nic_factor: f64,
}

/// A complete, deterministic description of the faults of one run.
///
/// ```
/// use dynamid_sim::fault::FaultPlan;
/// let plan = FaultPlan::none();
/// assert!(plan.is_trivial());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan's private random stream (transient-failure draws).
    pub seed: u64,
    /// Probability that any single CPU or network operation fails
    /// transiently, aborting its job. Drawn from the plan's own stream so
    /// client randomness is unaffected.
    pub transient_fail_prob: f64,
    /// Planned machine outages.
    pub crashes: Vec<CrashWindow>,
    /// Planned degradation intervals.
    pub degradations: Vec<Degradation>,
}

impl FaultPlan {
    /// The zero-fault plan: nothing crashes, nothing fails, nothing slows.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient_fail_prob: 0.0,
            crashes: Vec::new(),
            degradations: Vec::new(),
        }
    }

    /// `true` when the plan injects nothing (installing it is a no-op).
    pub fn is_trivial(&self) -> bool {
        self.transient_fail_prob <= 0.0 && self.crashes.is_empty() && self.degradations.is_empty()
    }

    /// Validates internal consistency: windows ordered, probabilities in
    /// `[0, 1]`, factors finite and positive.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.transient_fail_prob) {
            return Err(format!("transient_fail_prob {} not in [0,1]", self.transient_fail_prob));
        }
        for (i, c) in self.crashes.iter().enumerate() {
            if c.restart <= c.at {
                return Err(format!("crash window {i}: restart {:?} <= at {:?}", c.restart, c.at));
            }
        }
        for (i, d) in self.degradations.iter().enumerate() {
            if d.until <= d.from {
                return Err(format!("degradation {i}: until {:?} <= from {:?}", d.until, d.from));
            }
            for (name, f) in [("cpu", d.cpu_factor), ("nic", d.nic_factor)] {
                if !f.is_finite() || f <= 0.0 {
                    return Err(format!("degradation {i}: {name} factor {f} must be positive"));
                }
            }
        }
        Ok(())
    }

    /// The CPU demand multiplier in effect on `machine` at `now` (product
    /// of all matching intervals; 1.0 when none match).
    pub fn cpu_factor(&self, machine: MachineId, now: SimTime) -> f64 {
        self.factor(machine, now, |d| d.cpu_factor)
    }

    /// The NIC demand multiplier in effect on `machine` at `now`.
    pub fn nic_factor(&self, machine: MachineId, now: SimTime) -> f64 {
        self.factor(machine, now, |d| d.nic_factor)
    }

    fn factor(&self, machine: MachineId, now: SimTime, pick: impl Fn(&Degradation) -> f64) -> f64 {
        self.degradations
            .iter()
            .filter(|d| d.machine == machine && d.from <= now && now < d.until)
            .map(pick)
            .product()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    #[test]
    fn trivial_plan_is_trivial() {
        assert!(FaultPlan::none().is_trivial());
        assert!(FaultPlan::default().is_trivial());
        let mut p = FaultPlan::none();
        p.transient_fail_prob = 0.1;
        assert!(!p.is_trivial());
    }

    #[test]
    fn validation_catches_bad_windows() {
        let mut p = FaultPlan::none();
        p.crashes.push(CrashWindow { machine: MachineId(0), at: t(100), restart: t(100) });
        assert!(p.validate().is_err());
        p.crashes[0].restart = t(200);
        assert!(p.validate().is_ok());
        p.transient_fail_prob = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn degradation_factors_compose_over_matching_intervals() {
        let m = MachineId(1);
        let p = FaultPlan {
            seed: 0,
            transient_fail_prob: 0.0,
            crashes: Vec::new(),
            degradations: vec![
                Degradation {
                    machine: m,
                    from: t(0),
                    until: t(100),
                    cpu_factor: 2.0,
                    nic_factor: 1.0,
                },
                Degradation {
                    machine: m,
                    from: t(50),
                    until: t(150),
                    cpu_factor: 3.0,
                    nic_factor: 1.5,
                },
            ],
        };
        assert_eq!(p.cpu_factor(m, t(10)), 2.0);
        assert_eq!(p.cpu_factor(m, t(75)), 6.0);
        assert_eq!(p.cpu_factor(m, t(120)), 3.0);
        assert_eq!(p.cpu_factor(m, t(150)), 1.0);
        assert_eq!(p.nic_factor(m, t(75)), 1.5);
        // Other machines are unaffected.
        assert_eq!(p.cpu_factor(MachineId(0), t(75)), 1.0);
    }

    #[test]
    fn factor_boundaries_are_half_open() {
        let m = MachineId(0);
        let p = FaultPlan {
            seed: 0,
            transient_fail_prob: 0.0,
            crashes: Vec::new(),
            degradations: vec![Degradation {
                machine: m,
                from: t(100),
                until: t(200),
                cpu_factor: 4.0,
                nic_factor: 4.0,
            }],
        };
        assert_eq!(p.cpu_factor(m, t(99)), 1.0);
        assert_eq!(p.cpu_factor(m, t(100)), 4.0);
        assert_eq!(p.cpu_factor(m, t(199)), 4.0);
        assert_eq!(p.cpu_factor(m, t(200)), 1.0);
    }
}
