//! Property-based tests for the simulation kernel: work conservation and
//! ordering in the processor-sharing resource, mutual exclusion and
//! liveness in the lock manager, end-to-end conservation in the engine,
//! and determinism/leak-freedom under random fault plans.

use dynamid_sim::engine::{Driver, JobAborted, JobDone, NullDriver};
use dynamid_sim::{
    CrashWindow, Degradation, EngineStats, FaultPlan, GrantPolicy, JobId, LatencyHistogram,
    LockManager, LockMode, Op, PsResource, SimDuration, SimTime, Simulation, Trace,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A PS resource completes every job, delivers (almost exactly) the
    /// total demanded service, and completes jobs in virtual-finish order.
    #[test]
    fn ps_conserves_work_and_completes_everything(
        jobs in prop::collection::vec((1u64..5_000, 0u64..2_000), 1..40)
    ) {
        let mut r = PsResource::new("cpu", 1.0);
        let mut now = SimTime::ZERO;
        let mut done = 0usize;
        let mut popped = Vec::new();
        let mut guard = 0;
        for (i, (demand, gap)) in jobs.iter().enumerate() {
            let arrive = now + SimDuration::from_micros(*gap);
            // Pop completions that fall due before the next arrival, as the
            // engine's calendar would.
            while let Some(t) = r.next_completion(now) {
                guard += 1;
                prop_assert!(guard < 20_000, "did not drain");
                if t > arrive {
                    break;
                }
                now = t;
                done += r.pop_completed(now, &mut popped);
            }
            now = arrive;
            r.enqueue(now, JobId(i as u64), *demand as f64);
        }
        while let Some(t) = r.next_completion(now) {
            guard += 1;
            prop_assert!(guard < 20_000, "did not drain");
            now = t;
            done += r.pop_completed(now, &mut popped);
            if done == jobs.len() {
                break;
            }
        }
        prop_assert_eq!(done, jobs.len());
        let total: f64 = jobs.iter().map(|(d, _)| *d as f64).sum();
        let s = r.stats();
        // Completion events round up to whole microseconds: allow 1us of
        // overshoot per job.
        prop_assert!(
            (s.work_done - total).abs() <= jobs.len() as f64 + 1.0,
            "work {} vs demand {}", s.work_done, total
        );
        prop_assert_eq!(s.completions, jobs.len() as u64);
        // Busy time can never exceed elapsed time.
        prop_assert!(s.busy_micros <= now.as_micros() as f64 + 1.0);
    }

    /// Lock-manager safety: never a writer together with any other holder,
    /// and every acquire is eventually granted when holders release (no
    /// lost wakeups), under both policies.
    #[test]
    fn lock_manager_exclusion_and_liveness(
        script in prop::collection::vec((0u8..2, 0u8..2), 1..120),
        writer_priority in any::<bool>(),
    ) {
        let policy = if writer_priority {
            GrantPolicy::WriterPriority
        } else {
            GrantPolicy::Fifo
        };
        let mut lm = LockManager::new(policy);
        let l = lm.register_lock("t");
        let mut holders: Vec<(JobId, LockMode)> = Vec::new();
        let mut waiting: Vec<(JobId, LockMode)> = Vec::new();
        let mut next_job = 0u64;
        let mut clock = 0u64;

        let check = |holders: &Vec<(JobId, LockMode)>| {
            let writers = holders.iter().filter(|(_, m)| *m == LockMode::Exclusive).count();
            if writers > 0 {
                prop_assert_eq!(holders.len(), 1, "writer must be alone: {:?}", holders);
            }
            Ok(())
        };

        for (action, mode_pick) in script {
            clock += 1;
            let now = SimTime::from_micros(clock);
            if action == 0 || holders.is_empty() {
                // Acquire.
                let mode = if mode_pick == 0 { LockMode::Shared } else { LockMode::Exclusive };
                let job = JobId(next_job);
                next_job += 1;
                if lm.acquire(now, l, mode, job) {
                    holders.push((job, mode));
                } else {
                    waiting.push((job, mode));
                }
            } else {
                // Release a random-ish holder (front).
                let (job, _) = holders.remove(0);
                let granted = lm.release(now, l, job);
                for g in granted {
                    let pos = waiting
                        .iter()
                        .position(|(j, _)| *j == g)
                        .expect("granted job must have been waiting");
                    let (j, m) = waiting.remove(pos);
                    holders.push((j, m));
                }
            }
            check(&holders)?;
        }
        // Drain: release everything; every waiter must eventually hold.
        let mut guard = 0;
        while !holders.is_empty() {
            guard += 1;
            prop_assert!(guard < 10_000);
            clock += 1;
            let (job, _) = holders.remove(0);
            let granted = lm.release(SimTime::from_micros(clock), l, job);
            for g in granted {
                let pos = waiting.iter().position(|(j, _)| *j == g).expect("waiting");
                let e = waiting.remove(pos);
                holders.push(e);
            }
            check(&holders)?;
        }
        prop_assert!(waiting.is_empty(), "lost wakeups: {waiting:?}");
    }

    /// Engine conservation: every submitted trace completes once the
    /// calendar drains, regardless of structure.
    #[test]
    fn engine_completes_all_jobs(
        specs in prop::collection::vec((1u64..2_000, 0u64..3, any::<bool>()), 1..60)
    ) {
        let mut sim = Simulation::new(SimDuration::from_micros(50));
        let a = sim.add_machine("a", 1.0, 100.0);
        let b = sim.add_machine("b", 1.0, 100.0);
        let l = sim.register_lock("t");
        let s = sim.register_semaphore("pool", 4);
        for (i, (cpu, hops, lock)) in specs.iter().enumerate() {
            let mut t = Trace::new();
            t.push(Op::SemAcquire { sem: s });
            if *lock {
                t.push(Op::Lock { lock: l, mode: LockMode::Exclusive });
            }
            t.push(Op::Cpu { machine: a, micros: *cpu });
            for _ in 0..*hops {
                t.push(Op::Net { from: a, to: b, bytes: 100 + *cpu });
                t.push(Op::Cpu { machine: b, micros: *cpu / 2 + 1 });
                t.push(Op::Net { from: b, to: a, bytes: 64 });
            }
            if *lock {
                t.push(Op::Unlock { lock: l });
            }
            t.push(Op::SemRelease { sem: s });
            prop_assert!(t.check_balanced().is_ok());
            sim.submit(t, i as u64);
        }
        sim.run_until_idle(&mut NullDriver).unwrap();
        prop_assert_eq!(sim.stats().completed, specs.len() as u64);
        prop_assert_eq!(sim.jobs_in_flight(), 0);
    }

    /// Chaos battery: a random `FaultPlan` over a random small workload
    /// must (a) be bit-identically reproducible from the same seed — same
    /// `EngineStats`, same latency histogram, same abort sequence — (b)
    /// leave no lock/semaphore/PS state behind once drained (aborted jobs
    /// release everything), and (c) balance
    /// completed + aborted + rejected == submitted.
    #[test]
    fn fault_plans_are_deterministic_and_leak_free(
        specs in prop::collection::vec((1u64..2_000, 0u64..3, any::<bool>(), 0u64..4), 1..40),
        seed in any::<u64>(),
        fail_millis in 0u32..150,
        crash_at in 100u64..5_000,
        crash_len in 100u64..5_000,
        crash_web in any::<bool>(),
        degrade_pct in 100u32..350,
    ) {
        struct Collect {
            hist: LatencyHistogram,
            aborted: Vec<(u64, dynamid_sim::AbortReason)>,
        }
        impl Driver for Collect {
            fn on_job_complete(&mut self, _s: &mut Simulation, d: JobDone) {
                self.hist.record(d.latency());
            }
            fn on_timer(&mut self, _s: &mut Simulation, _t: u64) {}
            fn on_job_aborted(&mut self, _s: &mut Simulation, info: JobAborted) {
                self.aborted.push((info.tag, info.reason));
            }
        }
        type RunOutcome = (LatencyHistogram, Vec<(u64, dynamid_sim::AbortReason)>, EngineStats);
        let run = || -> Result<RunOutcome, TestCaseError> {
            let mut sim = Simulation::new(SimDuration::from_micros(50));
            let a = sim.add_machine("a", 1.0, 100.0);
            let b = sim.add_machine("b", 1.0, 100.0);
            let l = sim.register_lock("t");
            let s = sim.register_semaphore_bounded("pool", 2, 4);
            sim.install_faults(FaultPlan {
                seed,
                transient_fail_prob: f64::from(fail_millis) / 1_000.0,
                crashes: vec![CrashWindow {
                    machine: if crash_web { a } else { b },
                    at: SimTime::from_micros(crash_at),
                    restart: SimTime::from_micros(crash_at + crash_len),
                }],
                degradations: vec![Degradation {
                    machine: a,
                    from: SimTime::from_micros(crash_at / 2),
                    until: SimTime::from_micros(crash_at + 2 * crash_len),
                    cpu_factor: f64::from(degrade_pct) / 100.0,
                    nic_factor: 1.0 + f64::from(degrade_pct) / 400.0,
                }],
            });
            for (i, (cpu, hops, lock, deadline)) in specs.iter().enumerate() {
                let mut t = Trace::new();
                t.push(Op::SemAcquire { sem: s });
                if *lock {
                    t.push(Op::Lock { lock: l, mode: LockMode::Exclusive });
                }
                t.push(Op::Cpu { machine: a, micros: *cpu });
                for _ in 0..*hops {
                    t.push(Op::Net { from: a, to: b, bytes: 100 + *cpu });
                    t.push(Op::Cpu { machine: b, micros: *cpu / 2 + 1 });
                    t.push(Op::Net { from: b, to: a, bytes: 64 });
                }
                if *lock {
                    t.push(Op::Unlock { lock: l });
                }
                t.push(Op::SemRelease { sem: s });
                if *deadline > 0 {
                    sim.submit_with_deadline(
                        t,
                        i as u64,
                        SimDuration::from_micros(*deadline * 1_500),
                    );
                } else {
                    sim.submit(t, i as u64);
                }
            }
            let mut c = Collect { hist: LatencyHistogram::new(), aborted: Vec::new() };
            sim.run_until_idle(&mut c).expect("well-formed traces");
            let st = sim.stats();
            // (c) conservation: every submission is accounted exactly once.
            prop_assert_eq!(st.submitted, specs.len() as u64);
            prop_assert_eq!(st.completed + st.aborted + st.rejected, st.submitted);
            prop_assert_eq!(sim.jobs_in_flight(), 0);
            // (b) aborted jobs released every lock, semaphore unit, and PS
            // share.
            prop_assert!(sim.leak_report().is_none(), "leak: {:?}", sim.leak_report());
            Ok((c.hist, c.aborted, st))
        };
        // (a) bit-identical replay from the same seed and plan.
        prop_assert_eq!(run()?, run()?);
    }

    /// `LatencyHistogram::merge` is commutative and associative, so the
    /// trace-side and PS-side aggregation paths (which merge per-worker
    /// partials in different orders) can never drift apart.
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in prop::collection::vec(0u64..10_000_000, 0..50),
        ys in prop::collection::vec(0u64..10_000_000, 0..50),
        zs in prop::collection::vec(0u64..10_000_000, 0..50),
    ) {
        let build = |v: &Vec<u64>| {
            let mut h = LatencyHistogram::new();
            for us in v {
                h.record(SimDuration::from_micros(*us));
            }
            h
        };
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    /// Latency sanity: a job's completion is never before its submission
    /// plus its own uncontended demand.
    #[test]
    fn latency_lower_bound(demands in prop::collection::vec(1u64..5_000, 1..30)) {
        struct Collect(Vec<JobDone>);
        impl Driver for Collect {
            fn on_job_complete(&mut self, _s: &mut Simulation, d: JobDone) {
                self.0.push(d);
            }
            fn on_timer(&mut self, _s: &mut Simulation, _t: u64) {}
        }
        let mut sim = Simulation::new(SimDuration::ZERO);
        let m = sim.add_machine("m", 1.0, 100.0);
        let mut expect = Vec::new();
        for (i, d) in demands.iter().enumerate() {
            let t: Trace = [Op::Cpu { machine: m, micros: *d }].into_iter().collect();
            sim.submit(t, i as u64);
            expect.push(*d);
        }
        let mut c = Collect(Vec::new());
        sim.run_until_idle(&mut c).unwrap();
        prop_assert_eq!(c.0.len(), demands.len());
        for d in &c.0 {
            let own = expect[d.tag as usize];
            prop_assert!(
                d.latency().as_micros() + 1 >= own,
                "job {} finished in {} < demand {}",
                d.tag,
                d.latency().as_micros(),
                own
            );
        }
    }
}
