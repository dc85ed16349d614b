//! Two-level calendar queue: the event structure behind [`Simulation`].
//!
//! The engine's event calendar was originally a `BinaryHeap<Reverse<_>>`,
//! which costs `O(log n)` per operation and — worse — carries every stale
//! processor-sharing prediction until its turn comes up, so under load the
//! heap is mostly garbage and live events starve behind it. This module
//! replaces it with a bucketed timer wheel keyed on the integer-microsecond
//! [`SimTime`]:
//!
//! * **Level 0** — one bucket per microsecond over a 2048 µs window.
//!   Scheduling into the window and popping the front are O(1).
//! * **Level 1** — 2048 slots of 2048 µs each (≈4.3 s). When level 0
//!   drains, the next occupied slot is scattered into level 0.
//! * **Overflow** — a `BTreeMap` for the far future (rare: long deadlines
//!   and end-of-run timers).
//!
//! Occupancy bitmaps (one bit per bucket/slot) make "next non-empty
//! bucket" a handful of word scans.
//!
//! Events live in a generational slot-map, so [`CalendarQueue::cancel`] is
//! O(1): it frees the arena slot and bumps its generation, leaving the
//! bucket reference behind as a tombstone that the pop path skips (and
//! counts, see [`CalendarQueue::stale_popped`]). The engine uses this to
//! retire superseded PS completion predictions instead of letting them
//! pile up. When the superseded prediction still sits at its bucket tail
//! — the common case, since predictions are re-issued right after being
//! scheduled — [`CalendarQueue::reschedule`] moves it in O(1) and leaves
//! no tombstone at all.
//!
//! **Ordering contract**: pops come out in exactly the order the old
//! binary heap produced — ascending `(time, schedule-sequence)`. Within a
//! bucket (one microsecond) FIFO order *is* schedule order; the transfer
//! chain (overflow → level 1 → level 0) always appends in stored order, so
//! two events for the same microsecond can never swap places no matter
//! which levels they traveled through. `tests/calendar_oracle.rs` checks
//! this against a retained `BinaryHeap` oracle under randomized
//! schedule/cancel workloads.
//!
//! [`Simulation`]: crate::engine::Simulation

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Microseconds covered by level 0 (one bucket each).
const L0_SPAN: u64 = 2048;
/// Microseconds covered by one level-1 slot.
const L1_SLOT: u64 = L0_SPAN;
/// Microseconds covered by all of level 1.
const L1_SPAN: u64 = L1_SLOT * L0_SPAN;
/// Words in an occupancy bitmap.
const WORDS: usize = (L0_SPAN as usize) / 64;

/// Handle to a scheduled event, valid until it pops or is cancelled. The
/// generation makes a handle to a completed event harmlessly stale instead
/// of aliasing whatever reused its arena slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

/// Arena slot. `gen` is bumped on free, invalidating outstanding
/// `EventId`s and bucket references that still name this slot.
#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    at: u64,
    payload: Option<T>,
}

/// Reference stored in a bucket: arena index plus the generation it was
/// scheduled under.
type Ref = (u32, u32);

/// The two-level calendar queue. See the module docs for the design.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    /// One bucket per microsecond of `[l0_start, l0_start + L0_SPAN)`.
    l0: Vec<VecDeque<Ref>>,
    l0_occ: [u64; WORDS],
    l0_start: u64,
    /// One slot per `L1_SLOT` microseconds of `[l1_start, l1_start + L1_SPAN)`.
    l1: Vec<Vec<Ref>>,
    l1_occ: [u64; WORDS],
    l1_start: u64,
    overflow: BTreeMap<u64, Vec<Ref>>,
    live: usize,
    peak_live: usize,
    stale_popped: u64,
}

fn bit_set(bits: &mut [u64; WORDS], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn bit_clear(bits: &mut [u64; WORDS], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

fn first_bit(bits: &[u64; WORDS]) -> Option<usize> {
    bits.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty calendar starting at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            slots: Vec::new(),
            free: Vec::new(),
            l0: (0..L0_SPAN).map(|_| VecDeque::new()).collect(),
            l0_occ: [0; WORDS],
            l0_start: 0,
            l1: (0..L0_SPAN).map(|_| Vec::new()).collect(),
            l1_occ: [0; WORDS],
            l1_start: 0,
            overflow: BTreeMap::new(),
            live: 0,
            peak_live: 0,
            stale_popped: 0,
        }
    }

    /// Number of live (scheduled, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of [`len`](Self::len) over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_live
    }

    /// Tombstoned references discarded so far: events that were cancelled
    /// and later reached the pop or scatter path.
    pub fn stale_popped(&self) -> u64 {
        self.stale_popped
    }

    /// Schedules `payload` at `at`. Events at the same instant pop in
    /// schedule order.
    ///
    /// `at` must not precede the time of the last popped event (the engine
    /// never schedules into the past); violating this corrupts ordering.
    pub fn schedule(&mut self, at: SimTime, payload: T) -> EventId {
        let t = at.as_micros();
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.at = t;
                slot.payload = Some(payload);
                idx
            }
            None => {
                self.slots.push(Slot { gen: 0, at: t, payload: Some(payload) });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[idx as usize].gen;
        self.place((idx, gen), t);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        EventId { idx, gen }
    }

    /// Routes a reference to the level containing its time.
    fn place(&mut self, r: Ref, t: u64) {
        if t < self.l0_start + L0_SPAN {
            debug_assert!(t >= self.l0_start, "event before the level-0 window");
            let b = (t - self.l0_start) as usize;
            self.l0[b].push_back(r);
            bit_set(&mut self.l0_occ, b);
        } else if t < self.l1_start + L1_SPAN {
            let s = ((t - self.l1_start) / L1_SLOT) as usize;
            self.l1[s].push(r);
            bit_set(&mut self.l1_occ, s);
        } else {
            self.overflow.entry(t).or_default().push(r);
        }
    }

    /// Cancels a scheduled event in O(1). Returns `false` when the event
    /// already popped or was cancelled (stale handle). The bucket keeps a
    /// tombstone that is skipped — and counted — when reached.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.idx as usize) {
            Some(slot) if slot.gen == id.gen => {
                slot.gen = slot.gen.wrapping_add(1);
                slot.payload = None;
                self.free.push(id.idx);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Moves a live event to `at` with a new payload, keeping `id` valid
    /// and leaving no tombstone, when doing so is indistinguishable from
    /// [`cancel`](Self::cancel) + [`schedule`](Self::schedule): the
    /// reference must be the **tail of its bucket**, so it can be removed
    /// in O(1) and re-placed at the target bucket's tail — exactly where a
    /// fresh schedule would append it. Returns `false` — touching nothing
    /// — for a mid-bucket reference or a stale handle; the caller falls
    /// back to cancel + schedule.
    ///
    /// `at` obeys the same contract as [`schedule`](Self::schedule): it
    /// must not precede the time of the last popped event.
    ///
    /// This is the hot path for processor-sharing completion predictions,
    /// which are superseded on every enqueue to the same resource — being
    /// the most recent schedule they usually sit at their bucket tail, and
    /// would otherwise each leave a tombstone behind (see
    /// [`stale_popped`](Self::stale_popped)).
    pub fn reschedule(&mut self, id: EventId, at: SimTime, payload: T) -> bool {
        let t = at.as_micros();
        let old = match self.slots.get(id.idx as usize) {
            Some(slot) if slot.gen == id.gen => slot.at,
            _ => return false,
        };
        let r: Ref = (id.idx, id.gen);
        // Route `old` exactly as `place` did. Live references never move
        // between containers except by scattering, which empties the source,
        // so the current window positions locate the ref correctly.
        if old < self.l0_start + L0_SPAN {
            let b = (old - self.l0_start) as usize;
            if self.l0[b].back() != Some(&r) {
                return false;
            }
            self.l0[b].pop_back();
            if self.l0[b].is_empty() {
                bit_clear(&mut self.l0_occ, b);
            }
        } else if old < self.l1_start + L1_SPAN {
            let s = ((old - self.l1_start) / L1_SLOT) as usize;
            if self.l1[s].last() != Some(&r) {
                return false;
            }
            self.l1[s].pop();
            if self.l1[s].is_empty() {
                bit_clear(&mut self.l1_occ, s);
            }
        } else {
            match self.overflow.get_mut(&old) {
                Some(refs) if refs.last() == Some(&r) => {
                    refs.pop();
                    if refs.is_empty() {
                        self.overflow.remove(&old);
                    }
                }
                _ => return false,
            }
        }
        let slot = &mut self.slots[id.idx as usize];
        slot.at = t;
        slot.payload = Some(payload);
        self.place(r, t);
        true
    }

    /// The time of the earliest live event, without disturbing window
    /// state. Tombstones at the front of level 0 are discarded on the way.
    pub fn peek_at(&mut self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        // Level 0: purge dead refs from the front until a live one shows.
        while let Some(b) = first_bit(&self.l0_occ) {
            while let Some(&(idx, gen)) = self.l0[b].front() {
                if self.slots[idx as usize].gen == gen {
                    return Some(SimTime::from_micros(self.l0_start + b as u64));
                }
                self.l0[b].pop_front();
                self.stale_popped += 1;
            }
            bit_clear(&mut self.l0_occ, b);
        }
        // Level 1: scan occupied slots in order, reaping tombstones so an
        // all-dead slot can't mask live events behind it. The window itself
        // is not advanced (pop does that).
        while let Some(s) = first_bit(&self.l1_occ) {
            let refs = std::mem::take(&mut self.l1[s]);
            let mut kept = Vec::with_capacity(refs.len());
            let mut min: Option<u64> = None;
            for (idx, gen) in refs {
                let slot = &self.slots[idx as usize];
                if slot.gen == gen {
                    min = Some(min.map_or(slot.at, |m| m.min(slot.at)));
                    kept.push((idx, gen));
                } else {
                    self.stale_popped += 1;
                }
            }
            self.l1[s] = kept;
            if let Some(at) = min {
                return Some(SimTime::from_micros(at));
            }
            bit_clear(&mut self.l1_occ, s);
        }
        for refs in self.overflow.values() {
            if let Some(at) = self.min_live(refs) {
                return Some(SimTime::from_micros(at));
            }
        }
        debug_assert!(false, "live count positive but no live event found");
        None
    }

    /// Removes and returns the earliest live event if it is due at or
    /// before `until`; otherwise returns `None` and leaves it queued.
    ///
    /// This is [`peek_at`](Self::peek_at) followed, when the peeked time is
    /// due, by [`pop`](Self::pop), fused so the common case — the next live
    /// event sits in level 0 — costs one bitmap scan instead of two. It
    /// discards exactly the tombstones that pair would discard, including
    /// the level-1 reap when the run stops in front of a later slot, so
    /// [`stale_popped`](Self::stale_popped) and the queue's layout come out
    /// the same. The level-0 window never moves past `until`, so callers may
    /// keep scheduling at `until` after a `None`.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, T)> {
        if self.live == 0 {
            return None;
        }
        while let Some(b) = first_bit(&self.l0_occ) {
            while let Some(&(idx, gen)) = self.l0[b].front() {
                let slot = &self.slots[idx as usize];
                if slot.gen != gen {
                    self.l0[b].pop_front();
                    self.stale_popped += 1;
                    continue;
                }
                if slot.at > until.as_micros() {
                    return None;
                }
                self.l0[b].pop_front();
                if self.l0[b].is_empty() {
                    bit_clear(&mut self.l0_occ, b);
                }
                return Some(self.take_slot(idx));
            }
            bit_clear(&mut self.l0_occ, b);
        }
        // Level 0 holds nothing live: the next event is at least a window
        // away, which is rare enough to take the two-step path.
        if self.peek_at()? > until {
            return None;
        }
        self.pop()
    }

    /// Frees the live arena slot `idx` and returns its event.
    fn take_slot(&mut self, idx: u32) -> (SimTime, T) {
        let slot = &mut self.slots[idx as usize];
        let payload = slot.payload.take().expect("live slot has a payload");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        (SimTime::from_micros(slot.at), payload)
    }

    /// Minimum time among the live references in `refs`.
    fn min_live(&self, refs: &[Ref]) -> Option<u64> {
        refs.iter()
            .filter(|(idx, gen)| self.slots[*idx as usize].gen == *gen)
            .map(|(idx, _)| self.slots[*idx as usize].at)
            .min()
    }

    /// Removes and returns the earliest live event: ascending time,
    /// schedule order within an instant — exactly the order a binary heap
    /// keyed on `(time, sequence)` would produce.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.live == 0 {
            return None;
        }
        loop {
            // Drain the earliest occupied level-0 bucket.
            while let Some(b) = first_bit(&self.l0_occ) {
                while let Some((idx, gen)) = self.l0[b].pop_front() {
                    if self.slots[idx as usize].gen != gen {
                        self.stale_popped += 1;
                        continue;
                    }
                    if self.l0[b].is_empty() {
                        bit_clear(&mut self.l0_occ, b);
                    }
                    return Some(self.take_slot(idx));
                }
                bit_clear(&mut self.l0_occ, b);
            }
            // Level 0 exhausted: advance the window to the next occupied
            // level-1 slot (slots before the window are already empty).
            if let Some(s) = first_bit(&self.l1_occ) {
                self.l0_start = self.l1_start + s as u64 * L1_SLOT;
                let refs = std::mem::take(&mut self.l1[s]);
                bit_clear(&mut self.l1_occ, s);
                for (idx, gen) in refs {
                    if self.slots[idx as usize].gen != gen {
                        self.stale_popped += 1;
                        continue;
                    }
                    let b = (self.slots[idx as usize].at - self.l0_start) as usize;
                    self.l0[b].push_back((idx, gen));
                    bit_set(&mut self.l0_occ, b);
                }
                continue;
            }
            // Level 1 exhausted too: rebase it at the earliest overflow
            // time and pull everything now in range forward.
            let (&k, _) = self.overflow.first_key_value()?;
            self.l1_start = k - (k % L1_SLOT);
            self.l0_start = self.l1_start;
            while let Some(entry) = self.overflow.first_entry() {
                let t = *entry.key();
                if t >= self.l1_start + L1_SPAN {
                    break;
                }
                for r in entry.remove() {
                    self.place(r, t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = CalendarQueue::new();
        q.schedule(t(5), "a");
        q.schedule(t(3), "b");
        q.schedule(t(5), "c");
        q.schedule(t(3), "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["b", "d", "a", "c"]);
    }

    #[test]
    fn crosses_level_boundaries() {
        let mut q = CalendarQueue::new();
        // One event per level: l0, l1, overflow.
        q.schedule(t(10), "near");
        q.schedule(t(L0_SPAN + 7), "mid");
        q.schedule(t(L1_SPAN + 99), "far");
        assert_eq!(q.pop().unwrap(), (t(10), "near"));
        assert_eq!(q.pop().unwrap(), (t(L0_SPAN + 7), "mid"));
        assert_eq!(q.pop().unwrap(), (t(L1_SPAN + 99), "far"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_fifo_survives_level_transfer() {
        let mut q = CalendarQueue::new();
        let far = L1_SPAN + 500;
        for i in 0..10u32 {
            q.schedule(t(far), i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_is_lazy_and_counted() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is stale");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap(), (t(2), "b"));
        assert_eq!(q.stale_popped(), 1);
    }

    #[test]
    fn slot_reuse_does_not_alias_old_handles() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(t(1), "a");
        assert!(q.cancel(a));
        // Reuses the arena slot `a` occupied.
        let b = q.schedule(t(1), "b");
        assert!(!q.cancel(a), "stale handle must not hit the new event");
        assert_eq!(q.pop().unwrap(), (t(1), "b"));
        assert!(!q.cancel(b), "b already popped");
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.schedule(t(40), ());
        q.schedule(t(L0_SPAN * 3 + 1), ());
        q.schedule(t(L1_SPAN * 2), ());
        while let Some(at) = q.peek_at() {
            let (popped, ()) = q.pop().unwrap();
            assert_eq!(popped, at);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled_front() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_at(), Some(t(9)));
        assert_eq!(q.pop().unwrap(), (t(9), "b"));
    }

    #[test]
    fn peek_sees_past_an_all_dead_level1_slot() {
        let mut q = CalendarQueue::new();
        // First occupied l1 slot holds only a cancelled event; live events
        // sit in a later l1 slot and in overflow.
        let dead = q.schedule(t(L0_SPAN + 3), "dead");
        q.schedule(t(L0_SPAN * 5 + 1), "later-l1");
        q.schedule(t(L1_SPAN + 12), "overflow");
        q.cancel(dead);
        assert_eq!(q.peek_at(), Some(t(L0_SPAN * 5 + 1)));
        assert_eq!(q.pop().unwrap(), (t(L0_SPAN * 5 + 1), "later-l1"));
        assert_eq!(q.peek_at(), Some(t(L1_SPAN + 12)));
        assert_eq!(q.pop().unwrap(), (t(L1_SPAN + 12), "overflow"));
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_peak_track_live_events() {
        let mut q = CalendarQueue::new();
        let ids: Vec<EventId> = (0..5).map(|i| q.schedule(t(i), i)).collect();
        assert_eq!(q.len(), 5);
        assert_eq!(q.peak_len(), 5);
        q.cancel(ids[0]);
        q.pop().unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.peak_len(), 5);
    }

    #[test]
    fn reschedule_moves_tail_refs_without_tombstones() {
        let mut q = CalendarQueue::new();
        // Same-instant payload swap at a level-0 bucket tail.
        let a = q.schedule(t(5), "old");
        assert!(q.reschedule(a, t(5), "new"));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap(), (t(5), "new"));
        assert_eq!(q.stale_popped(), 0);

        // Across level-0 buckets, across levels, and out to overflow: the
        // handle stays valid the whole way and nothing goes stale.
        let b = q.schedule(t(6), "roams");
        assert!(q.reschedule(b, t(40), "roams"));
        assert!(q.reschedule(b, t(L0_SPAN * 5 + 1), "roams"));
        assert!(q.reschedule(b, t(L1_SPAN + 9), "roams"));
        assert!(q.reschedule(b, t(7), "landed"));
        assert_eq!(q.pop().unwrap(), (t(7), "landed"));
        assert_eq!(q.len(), 0);

        // Moving within one level-1 slot keeps FIFO order against other
        // events in the slot through the scatter into level 0.
        let base = L0_SPAN + 100;
        q.schedule(t(base), "first");
        let c = q.schedule(t(base + 3), "moves");
        assert!(q.reschedule(c, t(base + 1), "moved"));
        assert_eq!(q.pop().unwrap(), (t(base), "first"));
        assert_eq!(q.pop().unwrap(), (t(base + 1), "moved"));
        assert_eq!(q.stale_popped(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn reschedule_lands_at_target_bucket_tail() {
        let mut q = CalendarQueue::new();
        // The moved event must pop after events already in its new bucket,
        // exactly like a fresh schedule would.
        let a = q.schedule(t(9), "early");
        q.schedule(t(5), "sits");
        assert!(q.reschedule(a, t(5), "joins"));
        assert_eq!(q.pop().unwrap(), (t(5), "sits"));
        assert_eq!(q.pop().unwrap(), (t(5), "joins"));
        assert_eq!(q.stale_popped(), 0);
    }

    #[test]
    fn reschedule_refuses_mid_bucket_and_stale_refs() {
        let mut q = CalendarQueue::new();
        // Not the bucket tail: a later schedule shares the instant.
        let a = q.schedule(t(5), "a");
        q.schedule(t(5), "b");
        assert!(!q.reschedule(a, t(7), "a2"));

        // Not the level-1 slot tail.
        let c = q.schedule(t(L0_SPAN + 2), "c");
        q.schedule(t(L0_SPAN + 9), "d");
        assert!(!q.reschedule(c, t(L0_SPAN + 4), "c2"));

        // Not the overflow vec tail (same instant, scheduled first).
        let e = q.schedule(t(L1_SPAN + 50), "e");
        q.schedule(t(L1_SPAN + 50), "f");
        assert!(!q.reschedule(e, t(L1_SPAN + 60), "e2"));

        // Stale handles are refused.
        let g = q.schedule(t(1), "g");
        q.cancel(g);
        assert!(!q.reschedule(g, t(1), "g2"));

        let popped: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(popped, vec!["a", "b", "c", "d", "e", "f"]);
    }

    #[test]
    fn pop_until_stops_in_front_of_later_events() {
        let mut q = CalendarQueue::new();
        q.schedule(t(3), "a");
        q.schedule(t(L0_SPAN + 5), "b");
        assert_eq!(q.pop_until(t(2)), None);
        assert_eq!(q.pop_until(t(3)), Some((t(3), "a")));
        // "b" lies beyond level 0; stopping short must not move the window,
        // so an event scheduled at the stop time still pops first.
        assert_eq!(q.pop_until(t(10)), None);
        q.schedule(t(10), "c");
        assert_eq!(q.pop_until(t(L0_SPAN + 5)), Some((t(10), "c")));
        assert_eq!(q.pop_until(t(L0_SPAN + 5)), Some((t(L0_SPAN + 5), "b")));
        assert_eq!(q.pop_until(t(u64::MAX)), None);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_at(), None);
        assert!(q.pop().is_none());
        assert!(q.pop_until(t(5)).is_none());
    }
}
