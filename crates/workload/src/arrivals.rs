//! Open-loop arrival processes: request arrivals generated independently of
//! completions.
//!
//! The closed-loop client model (N clients with think times) can never offer
//! the system more load than it absorbs — each client waits for its response
//! before sending again, so saturation self-throttles. Production traffic
//! does not: arrivals keep coming whether or not earlier requests finished,
//! which is exactly the regime where overload control earns its keep. The
//! processes here drive the workload driver's open-loop mode: each arrival
//! claims a client slot (grown on demand, recycled on completion) and runs
//! one interaction through the normal resilience machinery.
//!
//! Determinism: every process draws inter-arrival gaps from a dedicated RNG
//! stream forked from its own root, so closed-loop runs (which never
//! construct that stream) stay bit-identical, and the flash crowd's rate is
//! piecewise linear — no transcendental functions whose libm rounding could
//! vary across toolchains.

use dynamid_sim::{SimDuration, SimRng, SimTime};

/// How request arrivals are generated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalProcess {
    /// Closed-loop (the default): N clients with think times, no arrival
    /// process at all. Selecting this is bit-identical to builds that
    /// predate open-loop support.
    #[default]
    Closed,
    /// Stationary Poisson arrivals.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_sec: f64,
    },
    /// A flash crowd: Poisson at `base_rate`, multiplied by `spike_mult`
    /// during the spike, then ramping linearly back to the base over
    /// `ramp_down`. With `spike_mult == 1.0` the spike is off and the
    /// process is bit-identical to [`Poisson`](Self::Poisson) at
    /// `base_rate`.
    FlashCrowd {
        /// Pre- and post-spike arrival rate in requests per second.
        base_rate: f64,
        /// Rate multiplier during the spike.
        spike_mult: f64,
        /// When the spike begins (offset from the run start).
        spike_start: SimDuration,
        /// How long the spike holds at full intensity.
        spike_len: SimDuration,
        /// How long the rate takes to decay linearly back to the base
        /// after the spike ends.
        ramp_down: SimDuration,
    },
}

impl ArrivalProcess {
    /// `true` for every process that generates arrivals (everything but
    /// [`Closed`](Self::Closed)).
    pub fn is_open(&self) -> bool {
        !matches!(self, ArrivalProcess::Closed)
    }

    /// The instantaneous arrival rate (requests per second) at `t`.
    /// [`Closed`](Self::Closed) has no rate and returns 0.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match *self {
            ArrivalProcess::Closed => 0.0,
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::FlashCrowd {
                base_rate,
                spike_mult,
                spike_start,
                spike_len,
                ramp_down,
            } => {
                let t = t.as_micros();
                let t0 = spike_start.as_micros();
                let t1 = t0 + spike_len.as_micros();
                let t2 = t1 + ramp_down.as_micros();
                if t < t0 || t >= t2 {
                    base_rate
                } else if t < t1 {
                    base_rate * spike_mult
                } else {
                    // Linear decay from spike_mult back to 1.
                    let frac = (t2 - t) as f64 / (t2 - t1) as f64;
                    base_rate * (1.0 + (spike_mult - 1.0) * frac)
                }
            }
        }
    }

    /// Draws the gap to the next arrival at time `now`: exponential with
    /// mean `1 / rate_at(now)` (a non-homogeneous Poisson process via
    /// piecewise-constant rate over one gap). The same `(rate, draw)`
    /// pipeline runs for every open process, so two processes with equal
    /// rate functions consume their RNG streams identically.
    ///
    /// # Panics
    ///
    /// Panics on [`Closed`](Self::Closed), which has no arrivals.
    pub fn next_gap(&self, now: SimTime, rng: &mut SimRng) -> SimDuration {
        let rate = self.rate_at(now);
        assert!(rate > 0.0, "next_gap on a process with zero rate at {now:?}");
        let mean_us = (1e6 / rate).round().max(1.0) as u64;
        rng.exponential(SimDuration::from_micros(mean_us)).max(SimDuration::from_micros(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_is_the_default_and_not_open() {
        assert_eq!(ArrivalProcess::default(), ArrivalProcess::Closed);
        assert!(!ArrivalProcess::Closed.is_open());
        assert!(ArrivalProcess::Poisson { rate_per_sec: 1.0 }.is_open());
    }

    #[test]
    fn flash_crowd_rate_profile() {
        let p = ArrivalProcess::FlashCrowd {
            base_rate: 10.0,
            spike_mult: 5.0,
            spike_start: SimDuration::from_secs(10),
            spike_len: SimDuration::from_secs(5),
            ramp_down: SimDuration::from_secs(4),
        };
        let at = |s: u64| p.rate_at(SimTime::ZERO + SimDuration::from_secs(s));
        assert_eq!(at(0), 10.0);
        assert_eq!(at(9), 10.0);
        assert_eq!(at(10), 50.0);
        assert_eq!(at(14), 50.0);
        // Ramp-down from t=15 to t=19: halfway at t=17.
        assert_eq!(at(17), 30.0);
        assert_eq!(at(19), 10.0);
        assert_eq!(at(100), 10.0);
    }

    #[test]
    fn spike_off_flash_crowd_draws_identically_to_poisson() {
        let poisson = ArrivalProcess::Poisson { rate_per_sec: 25.0 };
        let flat = ArrivalProcess::FlashCrowd {
            base_rate: 25.0,
            spike_mult: 1.0,
            spike_start: SimDuration::from_secs(5),
            spike_len: SimDuration::from_secs(5),
            ramp_down: SimDuration::from_secs(5),
        };
        let mut ra = SimRng::new(99);
        let mut rb = SimRng::new(99);
        let mut t = SimTime::ZERO;
        for _ in 0..1_000 {
            let ga = poisson.next_gap(t, &mut ra);
            let gb = flat.next_gap(t, &mut rb);
            assert_eq!(ga, gb);
            t += ga;
        }
    }

    #[test]
    fn mean_gap_tracks_the_rate() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 100.0 };
        let mut rng = SimRng::new(7);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| p.next_gap(SimTime::ZERO, &mut rng).as_micros()).sum();
        let mean = total as f64 / n as f64;
        // Mean gap should be ~10_000us at 100 req/s.
        assert!((mean - 10_000.0).abs() < 500.0, "mean gap {mean}");
    }
}
