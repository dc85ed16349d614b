//! Client-side resilience policy and role-based fault specification.
//!
//! The simulation kernel consumes a fully materialized
//! [`FaultPlan`] — explicit crash windows against
//! concrete machine ids. Experiments want to talk about faults one level
//! up: "this much fault intensity against whatever machines the deployment
//! has". [`FaultSpec`] is that description; [`FaultSpec::compile`] lowers
//! it into a plan deterministically from its seed, so the same spec against
//! the same deployment always yields the same schedule.
//!
//! [`ResilienceConfig`] is the client half of the story: request deadlines,
//! capped exponential backoff with deterministic jitter, and a retry
//! budget. Both default to fully disabled, leaving the healthy-path
//! experiments bit-identical to the paper reproduction.

use dynamid_core::AdmissionControl;
use dynamid_sim::{CrashWindow, Degradation, FaultPlan, MachineId, SimDuration, SimRng, SimTime};

/// A token bucket capping retries as a fraction of fresh requests. Each
/// fresh (first-attempt) request deposits [`per_fresh`](Self::per_fresh)
/// tokens, capped at [`burst`](Self::burst); each retry withdraws one
/// whole token. A client whose retry finds the bucket empty abandons the
/// interaction — counted under `abandoned`, never dropped silently.
///
/// This is what turns a retry *storm* into a retry *budget*: under
/// overload every request fails, so uncapped retries multiply the offered
/// load by `1 + max_retries` exactly when the system can least afford it,
/// sustaining the overload after its cause has passed (the metastable
/// failure mode). With a budget, retry amplification is bounded by
/// `1 + per_fresh` no matter how hard things are failing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    /// Tokens deposited per fresh request (the sustained retry-to-fresh
    /// ratio), e.g. `0.1` allows one retry per ten fresh requests.
    pub per_fresh: f64,
    /// Bucket capacity: how many retries may burst back-to-back after a
    /// quiet stretch.
    pub burst: f64,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget { per_fresh: 0.1, burst: 10.0 }
    }
}

/// Runtime state of a [`RetryBudget`]: the token bucket itself. With no
/// budget configured every operation is a no-op and withdrawals always
/// succeed, reproducing unbudgeted retries bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryTokens {
    tokens: f64,
}

impl RetryTokens {
    /// A bucket starting full (at `burst`), or permanently inert when no
    /// budget is configured.
    pub fn new(budget: Option<RetryBudget>) -> Self {
        RetryTokens { tokens: budget.map_or(0.0, |b| b.burst) }
    }

    /// Deposits the per-fresh-request tokens, capped at the burst size.
    pub fn deposit(&mut self, budget: Option<RetryBudget>) {
        if let Some(b) = budget {
            self.tokens = (self.tokens + b.per_fresh).min(b.burst);
        }
    }

    /// Attempts to withdraw one whole token for a retry. Always succeeds
    /// without a budget; with one, returns `false` (and changes nothing)
    /// when fewer than one token remains — the caller must then abandon
    /// the interaction, not retry it.
    pub fn try_withdraw(&mut self, budget: Option<RetryBudget>) -> bool {
        match budget {
            None => true,
            Some(_) => {
                if self.tokens >= 1.0 {
                    self.tokens -= 1.0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// Client-side timeout and retry policy. The default disables everything:
/// no deadlines, no retries — the paper's patient client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Per-request deadline; the client abandons (and possibly retries) an
    /// interaction that has not completed within this budget. `None`
    /// disables timeouts.
    pub request_timeout: Option<SimDuration>,
    /// How many times a failed interaction is re-sent before the client
    /// gives up and moves on. `0` disables retries.
    pub max_retries: u32,
    /// First-retry backoff; doubles on every subsequent attempt.
    pub backoff_base: SimDuration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: SimDuration,
    /// Population-wide retry budget. `None` (the default) leaves retries
    /// capped only by `max_retries`, reproducing the pre-budget behaviour
    /// bit-identically.
    pub retry_budget: Option<RetryBudget>,
}

impl ResilienceConfig {
    /// Everything disabled (the paper's client behaviour).
    pub fn disabled() -> Self {
        ResilienceConfig {
            request_timeout: None,
            max_retries: 0,
            backoff_base: SimDuration::from_millis(250),
            backoff_cap: SimDuration::from_secs(5),
            retry_budget: None,
        }
    }

    /// `true` when neither timeouts nor retries are enabled.
    pub fn is_disabled(&self) -> bool {
        self.request_timeout.is_none() && self.max_retries == 0
    }

    /// The backoff delay before retry attempt `attempt` (1-based), before
    /// jitter: `min(cap, base * 2^(attempt-1))`.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(20);
        let exp = self.backoff_base.as_micros().saturating_mul(1u64 << shift);
        SimDuration::from_micros(exp.min(self.backoff_cap.as_micros()))
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A role-agnostic description of how hard to shake a deployment,
/// compilable into a concrete [`FaultPlan`] once the deployment's machines
/// are known.
///
/// Crash arrivals are per-machine Poisson processes, so deployments with
/// more tiers expose proportionally more failure surface — the effect the
/// availability sweep measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed for the compiled schedule and the engine's transient draws.
    pub seed: u64,
    /// Probability that any single CPU or network stage trips a transient
    /// fault (aborting the request).
    pub transient_fail_prob: f64,
    /// Mean crash arrivals per server machine per simulated minute.
    pub crashes_per_machine_min: f64,
    /// Mean outage length once a machine crashes (exponential).
    pub outage: SimDuration,
    /// CPU demand multiplier while degraded (1.0 = no degradation).
    pub cpu_degrade: f64,
    /// NIC demand multiplier while degraded (1.0 = no degradation).
    pub nic_degrade: f64,
}

impl FaultSpec {
    /// A spec that injects nothing.
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            transient_fail_prob: 0.0,
            crashes_per_machine_min: 0.0,
            outage: SimDuration::from_secs(2),
            cpu_degrade: 1.0,
            nic_degrade: 1.0,
        }
    }

    /// `true` when compilation would produce a trivial plan.
    pub fn is_trivial(&self) -> bool {
        self.transient_fail_prob <= 0.0
            && self.crashes_per_machine_min <= 0.0
            && self.cpu_degrade <= 1.0
            && self.nic_degrade <= 1.0
    }

    /// The reference fault ladder used by the availability sweep:
    /// `intensity` in `[0, 1]` scales every knob linearly from nothing to a
    /// hostile environment (transient faults on ~0.2% of stages, one crash
    /// per machine per two minutes with ~2 s outages, 40% CPU and 25% NIC
    /// slowdown).
    pub fn at_intensity(seed: u64, intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        FaultSpec {
            seed,
            transient_fail_prob: 0.002 * i,
            crashes_per_machine_min: 0.5 * i,
            outage: SimDuration::from_secs_f64(2.0),
            cpu_degrade: 1.0 + 0.4 * i,
            nic_degrade: 1.0 + 0.25 * i,
        }
    }

    /// Lowers the spec into a concrete [`FaultPlan`] for the given server
    /// machines over `[0, horizon)`. Deterministic: each machine's crash
    /// schedule comes from its own forked stream, so adding a machine never
    /// perturbs another machine's schedule.
    pub fn compile(&self, server_machines: &[MachineId], horizon: SimDuration) -> FaultPlan {
        let end = SimTime::ZERO + horizon;
        let mut plan = FaultPlan {
            seed: self.seed,
            transient_fail_prob: self.transient_fail_prob.clamp(0.0, 1.0),
            crashes: Vec::new(),
            degradations: Vec::new(),
        };
        let mut root = SimRng::new(self.seed ^ 0x00C0_FFEE);
        for &m in server_machines {
            let mut rng = root.fork(u64::from(m.0));
            if self.crashes_per_machine_min > 0.0 {
                let mean_gap = SimDuration::from_secs_f64(60.0 / self.crashes_per_machine_min);
                let mut at = SimTime::ZERO + rng.exponential(mean_gap);
                while at < end {
                    let outage = SimDuration::from_micros(
                        rng.exponential(self.outage).as_micros().max(1_000),
                    );
                    plan.crashes.push(CrashWindow { machine: m, at, restart: at + outage });
                    at = at + outage + rng.exponential(mean_gap);
                }
            }
            if self.cpu_degrade > 1.0 || self.nic_degrade > 1.0 {
                plan.degradations.push(Degradation {
                    machine: m,
                    from: SimTime::ZERO,
                    until: end,
                    cpu_factor: self.cpu_degrade.max(1.0),
                    nic_factor: self.nic_degrade.max(1.0),
                });
            }
        }
        plan
    }
}

/// Everything an experiment needs to run under faults: the fault spec and
/// the server-side admission limits. (Client-side resilience lives on
/// [`WorkloadConfig`](crate::WorkloadConfig).) The default injects nothing
/// and limits nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosOptions {
    /// Faults to compile and install, when any.
    pub faults: Option<FaultSpec>,
    /// Server-side admission limits.
    pub admission: AdmissionControl,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_resilience_is_default() {
        let r = ResilienceConfig::default();
        assert!(r.is_disabled());
        assert_eq!(r, ResilienceConfig::disabled());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = ResilienceConfig {
            request_timeout: Some(SimDuration::from_secs(1)),
            max_retries: 8,
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_millis(900),
            retry_budget: None,
        };
        assert_eq!(r.backoff_for(1), SimDuration::from_millis(100));
        assert_eq!(r.backoff_for(2), SimDuration::from_millis(200));
        assert_eq!(r.backoff_for(3), SimDuration::from_millis(400));
        assert_eq!(r.backoff_for(4), SimDuration::from_millis(800));
        assert_eq!(r.backoff_for(5), SimDuration::from_millis(900));
        assert_eq!(r.backoff_for(30), SimDuration::from_millis(900));
    }

    #[test]
    fn retry_tokens_start_at_burst_and_run_dry() {
        let budget = Some(RetryBudget { per_fresh: 0.5, burst: 2.0 });
        let mut t = RetryTokens::new(budget);
        assert_eq!(t.available(), 2.0);
        assert!(t.try_withdraw(budget));
        assert!(t.try_withdraw(budget));
        // Dry: withdrawal fails and leaves the fractional remainder alone.
        assert!(!t.try_withdraw(budget));
        assert_eq!(t.available(), 0.0);
        // Two fresh requests earn one retry back.
        t.deposit(budget);
        assert!(!t.try_withdraw(budget));
        t.deposit(budget);
        assert!(t.try_withdraw(budget));
    }

    #[test]
    fn retry_tokens_deposit_caps_at_burst() {
        let budget = Some(RetryBudget { per_fresh: 10.0, burst: 3.0 });
        let mut t = RetryTokens::new(budget);
        t.deposit(budget);
        t.deposit(budget);
        assert_eq!(t.available(), 3.0);
    }

    #[test]
    fn no_budget_always_grants_and_never_accumulates() {
        let mut t = RetryTokens::new(None);
        assert_eq!(t.available(), 0.0);
        for _ in 0..100 {
            assert!(t.try_withdraw(None));
            t.deposit(None);
        }
        assert_eq!(t.available(), 0.0);
    }

    #[test]
    fn zero_intensity_is_trivial() {
        let spec = FaultSpec::at_intensity(7, 0.0);
        assert!(spec.is_trivial());
        let plan = spec.compile(&[MachineId(1), MachineId(2)], SimDuration::from_secs(60));
        assert!(plan.is_trivial());
    }

    #[test]
    fn compile_is_deterministic_and_bounded() {
        let spec = FaultSpec::at_intensity(11, 0.8);
        let machines = [MachineId(1), MachineId(2), MachineId(3)];
        let horizon = SimDuration::from_secs(300);
        let a = spec.compile(&machines, horizon);
        let b = spec.compile(&machines, horizon);
        assert_eq!(a, b);
        assert!(!a.crashes.is_empty(), "0.8 intensity over 5 min should crash something");
        let end = SimTime::ZERO + horizon;
        for w in &a.crashes {
            assert!(w.at < end);
            assert!(w.restart > w.at);
        }
        assert_eq!(a.degradations.len(), machines.len());
        a.validate().unwrap();
    }

    #[test]
    fn per_machine_schedules_are_independent() {
        let spec = FaultSpec::at_intensity(11, 0.8);
        let horizon = SimDuration::from_secs(300);
        let narrow = spec.compile(&[MachineId(1)], horizon);
        let wide = spec.compile(&[MachineId(1), MachineId(9)], horizon);
        let of = |p: &FaultPlan, m: MachineId| -> Vec<CrashWindow> {
            p.crashes.iter().filter(|w| w.machine == m).cloned().collect()
        };
        assert_eq!(of(&narrow, MachineId(1)), of(&wide, MachineId(1)));
    }

    #[test]
    fn more_tiers_more_failure_surface() {
        let spec = FaultSpec::at_intensity(3, 1.0);
        let horizon = SimDuration::from_secs(600);
        let two = spec.compile(&[MachineId(1), MachineId(2)], horizon);
        let four = spec.compile(&[MachineId(1), MachineId(2), MachineId(3), MachineId(4)], horizon);
        assert!(four.crashes.len() > two.crashes.len());
    }
}
