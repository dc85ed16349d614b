//! Oracle tests for the two-level calendar queue.
//!
//! The engine's correctness rests on the calendar popping events in
//! exactly the order the original `BinaryHeap<Reverse<(time, seq)>>`
//! produced — ascending time, schedule order within an instant — while
//! cancellation makes superseded entries vanish instead of piling up.
//! These tests drive [`CalendarQueue`] and a retained ordered-set oracle
//! through the same randomized schedule/cancel/pop workloads and demand
//! bit-identical pop sequences, then pin the stale-event ratio at a
//! 60-client contention level so tombstone skipping can't silently
//! regress into starvation.

use dynamid_sim::calendar::{CalendarQueue, EventId};
use dynamid_sim::engine::NullDriver;
use dynamid_sim::{LockMode, Op, SimDuration, SimTime, Simulation, Trace};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Offsets are drawn from three bands so every level gets traffic: the
/// current level-0 window (0..2048 µs), level 1 (..≈4.3 s), and the
/// overflow `BTreeMap` beyond it. Small offsets dominate, matching the
/// engine's mix of near-term completions and far-off deadlines.
fn offset(raw: u64) -> u64 {
    match raw % 8 {
        0..=4 => raw % 64,    // same-bucket churn, frequent same-instant collisions
        5 => raw % 2_048,     // spans the whole level-0 window
        6 => raw % 4_000_000, // lands in level 1
        _ => 4_200_000 + raw % 8_000, // past L1_SPAN: overflow
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The calendar and a `BTreeSet<(time, seq)>` oracle — the exact
    /// order a binary heap keyed on `(time, sequence)` yields — agree on
    /// every pop and on emptiness, under random interleavings of
    /// schedules (all three levels), O(1) cancels, in-place reschedules,
    /// and pops. Each step is `(action, raw, pick)`: `raw` picks a
    /// schedule offset, `pick` selects a cancel/reschedule target. A
    /// reschedule — whether it takes the in-place fast path or falls back
    /// to schedule + cancel exactly as the engine does — must behave like
    /// a cancel followed by a fresh schedule, so the oracle re-inserts the
    /// event under a fresh sequence number either way.
    #[test]
    fn matches_ordered_oracle(
        steps in prop::collection::vec((0u8..10, any::<u64>(), 0u16..u16::MAX), 1..300)
    ) {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let mut oracle: BTreeSet<(u64, u32)> = BTreeSet::new();
        // Live handles mirrored on both sides, plus handles already dead
        // (popped or cancelled) to probe stale-cancel behavior.
        let mut live: Vec<(EventId, u64, u32)> = Vec::new();
        let mut dead: Vec<EventId> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u32;

        for (action, raw, pick) in steps {
            match action % 5 {
                // Schedule twice as often as the other actions so the
                // structure actually fills up.
                0 | 1 => {
                    let at = now + offset(raw);
                    let id = q.schedule(SimTime::from_micros(at), seq);
                    oracle.insert((at, seq));
                    live.push((id, at, seq));
                    seq += 1;
                }
                2 => {
                    let (at_q, got) = match q.pop() {
                        Some((t, p)) => (t, p),
                        None => {
                            prop_assert!(oracle.is_empty(), "calendar empty, oracle not");
                            continue;
                        }
                    };
                    let (at_o, seq_o) = oracle.pop_first().expect("oracle empty, calendar not");
                    prop_assert_eq!(at_q.as_micros(), at_o, "pop time diverged");
                    prop_assert_eq!(got, seq_o, "same-instant order diverged");
                    now = at_o;
                    let idx = live.iter().position(|(_, _, s)| *s == got).expect("live");
                    dead.push(live.swap_remove(idx).0);
                }
                3 => {
                    if !live.is_empty() {
                        let i = pick as usize % live.len();
                        let (id, at, s) = live[i];
                        let at_new = now + offset(raw);
                        let moved = SimTime::from_micros(at_new);
                        if q.reschedule(id, moved, seq) {
                            live[i] = (id, at_new, seq);
                        } else {
                            // The engine's fallback order: fresh schedule,
                            // then cancel the superseded prediction.
                            let nid = q.schedule(moved, seq);
                            prop_assert!(q.cancel(id), "live handle must cancel");
                            live[i] = (nid, at_new, seq);
                            dead.push(id);
                        }
                        prop_assert!(oracle.remove(&(at, s)));
                        oracle.insert((at_new, seq));
                        seq += 1;
                    }
                }
                _ => {
                    if live.is_empty() || (pick as usize).is_multiple_of(3) {
                        // Stale cancel: must refuse and must not disturb
                        // whatever reused the slot.
                        if let Some(id) = dead.get(pick as usize % dead.len().max(1)) {
                            prop_assert!(!q.cancel(*id), "stale handle cancelled something");
                        }
                    } else {
                        let (id, at, s) = live.swap_remove(pick as usize % live.len());
                        prop_assert!(q.cancel(id), "live handle must cancel");
                        prop_assert!(oracle.remove(&(at, s)));
                        dead.push(id);
                    }
                }
            }
            prop_assert_eq!(q.len(), oracle.len(), "live counts diverged");
        }

        // Drain: the tail must come out in oracle order too, across
        // whatever level transfers remain.
        while let Some((at_o, seq_o)) = oracle.pop_first() {
            let peek = q.peek_at().expect("peek on non-empty");
            prop_assert_eq!(peek.as_micros(), at_o, "peek diverged from oracle min");
            let (at_q, got) = q.pop().expect("calendar drained early");
            prop_assert_eq!(at_q.as_micros(), at_o);
            prop_assert_eq!(got, seq_o);
        }
        prop_assert!(q.pop().is_none());
        prop_assert!(q.is_empty());
    }

    /// `pop_until` against the `peek_at` + `pop` pair it replaces in the
    /// engine's run loop. Two calendars take the same schedules, cancels and
    /// reschedules; runs to a horizon `t` drain one with `pop_until(t)` and
    /// the other with peek-then-pop. After each run stops, both get new
    /// events at exactly `t` — what a driver does when the next run starts
    /// at the previous horizon — which the fused pop must still order
    /// correctly. Pops, live counts, tombstone counts and the success of
    /// every in-place reschedule (which depends on bucket layout) must
    /// agree at every step.
    #[test]
    fn pop_until_matches_peek_then_pop(
        steps in prop::collection::vec((0u8..10, any::<u64>(), 0u16..u16::MAX), 1..300)
    ) {
        let mut fused: CalendarQueue<u32> = CalendarQueue::new();
        let mut paired: CalendarQueue<u32> = CalendarQueue::new();
        // Live events as (fused handle, paired handle, payload).
        let mut live: Vec<(EventId, EventId, u32)> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u32;

        for (action, raw, pick) in steps {
            match action % 5 {
                0 | 1 => {
                    let at = SimTime::from_micros(now + offset(raw));
                    live.push((fused.schedule(at, seq), paired.schedule(at, seq), seq));
                    seq += 1;
                }
                2 => {
                    // A run to the horizon `until`, then arrivals at it.
                    let until = now + offset(raw);
                    let horizon = SimTime::from_micros(until);
                    loop {
                        let a = fused.pop_until(horizon);
                        let b = match paired.peek_at() {
                            Some(at) if at <= horizon => paired.pop(),
                            _ => None,
                        };
                        prop_assert_eq!(a, b, "pop diverged");
                        let Some((_, got)) = a else { break };
                        live.retain(|&(_, _, s)| s != got);
                    }
                    now = until;
                    for _ in 0..=(pick % 3) {
                        live.push((fused.schedule(horizon, seq), paired.schedule(horizon, seq), seq));
                        seq += 1;
                    }
                }
                3 => {
                    if !live.is_empty() {
                        let i = pick as usize % live.len();
                        let (fid, pid, _) = live[i];
                        let at = SimTime::from_micros(now + offset(raw));
                        let moved = fused.reschedule(fid, at, seq);
                        prop_assert_eq!(moved, paired.reschedule(pid, at, seq), "layout diverged");
                        if moved {
                            live[i].2 = seq;
                        } else {
                            let nf = fused.schedule(at, seq);
                            let np = paired.schedule(at, seq);
                            prop_assert!(fused.cancel(fid) && paired.cancel(pid));
                            live[i] = (nf, np, seq);
                        }
                        seq += 1;
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let (fid, pid, _) = live.swap_remove(pick as usize % live.len());
                        prop_assert!(fused.cancel(fid) && paired.cancel(pid));
                    }
                }
            }
            prop_assert_eq!(fused.len(), paired.len(), "live counts diverged");
            prop_assert_eq!(fused.stale_popped(), paired.stale_popped(), "tombstone counts diverged");
        }

        // Drain both completely.
        loop {
            let a = fused.pop_until(SimTime::from_micros(u64::MAX));
            let b = paired.peek_at().and_then(|_| paired.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(fused.stale_popped(), paired.stale_popped());
        prop_assert!(fused.is_empty() && paired.is_empty());
    }
}

/// Starvation regression at the paper's highest smoke load (60 clients,
/// fig 11's right edge), compressed into its worst shape: every client
/// arrives at t=0 and hammers both machines' PS resources, so nearly
/// every completion prediction gets superseded. Two invariants guard
/// against eager-cancel regressing into the old heap's pile-up:
///
/// * the live calendar length peaks at O(clients) — cancelled
///   predictions leave only tombstones, so they never count as live
///   (the heap's length scaled with total event traffic instead);
/// * stale pops stay a bounded fraction of calendar traffic even here,
///   because superseded predictions are usually rescheduled in place at
///   their bucket tail (the real smoke figures sit below 0.1% stale),
///   and the tombstones that do arise are skipped in O(1) at the bucket
///   front rather than percolated through a heap.
#[test]
fn stale_ratio_bounded_at_60_clients() {
    let mut sim = Simulation::new(SimDuration::from_micros(50));
    let web = sim.add_machine("web", 1.0, 100.0);
    let db = sim.add_machine("db", 1.0, 100.0);
    let l = sim.register_lock("t");
    let s = sim.register_semaphore("pool", 8);
    for client in 0..60u64 {
        let mut t = Trace::new();
        t.push(Op::SemAcquire { sem: s });
        // A handful of web<->db round trips per client keeps both PS
        // resources churning: every arrival cancels and re-issues the
        // resource's pending completion prediction.
        for hop in 0..6 {
            t.push(Op::Cpu { machine: web, micros: 120 + client % 17 });
            t.push(Op::Net { from: web, to: db, bytes: 400 + hop * 32 });
            if hop == 2 {
                t.push(Op::Lock { lock: l, mode: LockMode::Exclusive });
                t.push(Op::Cpu { machine: db, micros: 40 });
                t.push(Op::Unlock { lock: l });
            }
            t.push(Op::Cpu { machine: db, micros: 80 + client % 11 });
            t.push(Op::Net { from: db, to: web, bytes: 1_200 });
        }
        t.push(Op::SemRelease { sem: s });
        sim.submit(t, client);
    }
    sim.run_until_idle(&mut NullDriver).unwrap();
    let st = sim.stats();
    assert_eq!(st.completed, 60);
    assert!(st.events > 0);
    // 60 submission events at t=0 plus at most one pending prediction
    // per PS resource (2 machines x cpu+nic) and a little slack.
    assert!(
        st.peak_calendar <= 72,
        "calendar peaked at {} live events for 60 clients — stale \
         predictions are being carried as live entries again",
        st.peak_calendar,
    );
    let ratio = st.stale_events as f64 / st.events as f64;
    assert!(
        ratio < 0.60,
        "stale-pop ratio {ratio:.3} ({} of {} events) — cancelled predictions \
         are piling up in the calendar again",
        st.stale_events,
        st.events,
    );
}
