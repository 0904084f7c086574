//! Calendar queue for the event-driven simulation kernel.
//!
//! Each schedulable *unit* (the memory fabric, one per-core slice) owns a
//! small integer id and at most one live key in the calendar: the earliest
//! cycle at which ticking that unit could change machine state (the
//! [`sched`] contract, kept incrementally per unit instead of
//! recomputed machine-wide every cycle).
//!
//! # Ordering
//!
//! Entries pop in `(due, id)` order: strictly by due cycle, with the unit
//! id breaking ties. The event kernel assigns id 0 to the memory fabric
//! and id `1 + i` to core `i`, so same-cycle pops reproduce the lockstep
//! tick order (memory first, then cores ascending) exactly — this is what
//! keeps statistics bit-identical across kernels.
//!
//! # Lazy stale-entry invalidation
//!
//! A binary heap cannot cheaply remove or decrease a key, so [`schedule`]
//! never removes the old entry: it bumps a per-unit *stamp* and pushes a
//! new entry carrying the new stamp. Entries whose stamp no longer matches
//! are *stale* and are discarded lazily when they surface at the top of
//! the heap. [`pop_due`] consumes the unit's live key — the kernel must
//! call [`schedule`] again after ticking the unit (or the unit stays
//! unscheduled, i.e. quiesced).
//!
//! # Near-term buckets
//!
//! On a busy cycle the kernel pops every unit and most of them reschedule
//! for the *very next* cycle — under lockstep-like load the heap would
//! absorb and re-sift ~2·units entries per cycle just to reproduce
//! "everyone again, one cycle later". Two sorted bucket vectors short
//! that circuit: keys equal to the last-rolled cycle ([`pop_due`]'s
//! `now`) or the cycle after it are kept in `near`/`near2`, where a
//! schedule is an append and a pop advances a cursor; everything farther
//! out (or scheduled before the first pop after an idle jump) takes the
//! general heap path. Bucket entries carry no stamps — an entry is live
//! iff the unit's authoritative `keys` slot still equals the bucket's
//! cycle, which is the same lazy-invalidation idea with the bucket's
//! fixed due standing in for the heap entry's `(due, stamp)` pair. The
//! pop order — strictly `(due, id)` ascending — is preserved by merging
//! the bucket cursor with the heap head at every pop.
//!
//! [`sched`]: crate::sched
//! [`schedule`]: Calendar::schedule
//! [`pop_due`]: Calendar::pop_due

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::types::Cycle;

/// One heap entry: `(due, id)` gives the pop order, `stamp` identifies
/// whether the entry is still the unit's live key.
type Entry = (Reverse<(Cycle, usize)>, u64);

/// Priority queue of unit next-work keys with lazy stale-entry removal.
#[derive(Debug, Default)]
pub struct Calendar {
    heap: BinaryHeap<Entry>,
    /// `keys[id]`: the unit's live key, or `None` if unscheduled.
    keys: Vec<Option<Cycle>>,
    /// `stamps[id]`: bumped on every schedule/pop so older heap entries
    /// for the unit become stale.
    stamps: Vec<u64>,
    /// Unit ids with key `== near_due`, ascending; `near_pos..` is the
    /// un-popped tail. An entry is live iff `keys[id] == Some(near_due)`.
    near: Vec<usize>,
    /// Unit ids with key `== near_due + 1`, ascending.
    near2: Vec<usize>,
    near_pos: usize,
    /// The cycle `near` holds keys for — the `now` of the last
    /// [`Calendar::pop_due`] roll (buckets start at cycle zero).
    near_due: Cycle,
}

impl Calendar {
    /// An empty calendar for `units` schedulable units (ids `0..units`).
    pub fn new(units: usize) -> Calendar {
        Calendar {
            heap: BinaryHeap::with_capacity(units * 2),
            keys: vec![None; units],
            stamps: vec![0; units],
            near: Vec::with_capacity(units),
            near2: Vec::with_capacity(units),
            near_pos: 0,
            near_due: Cycle::ZERO,
        }
    }

    /// Number of units this calendar tracks.
    pub fn units(&self) -> usize {
        self.keys.len()
    }

    /// The unit's current live key, if scheduled.
    pub fn key(&self, id: usize) -> Option<Cycle> {
        self.keys[id]
    }

    /// (Re)schedules unit `id` at cycle `due`, replacing any previous key.
    /// The old heap or bucket entry (if any) goes stale and is discarded
    /// lazily. A no-op when `due` already is the unit's live key.
    pub fn schedule(&mut self, id: usize, due: Cycle) {
        if self.keys[id] == Some(due) {
            return;
        }
        self.keys[id] = Some(due);
        self.stamps[id] += 1;
        if due == self.near_due {
            Self::bucket_insert(&mut self.near, self.near_pos, id);
        } else if due == self.near_due + 1 {
            Self::bucket_insert(&mut self.near2, 0, id);
        } else {
            self.heap.push((Reverse((due, id)), self.stamps[id]));
        }
    }

    /// Inserts `id` into the live tail (`from..`) of a sorted bucket,
    /// keeping it sorted; a no-op if already present there. Entries
    /// before `from` are already popped and never revive — a unit
    /// rescheduled to the same cycle after its pop gets a fresh entry in
    /// the tail.
    fn bucket_insert(bucket: &mut Vec<usize>, from: usize, id: usize) {
        let tail = &bucket[from..];
        match tail.binary_search(&id) {
            Ok(_) => {}
            Err(i) => bucket.insert(from + i, id),
        }
    }

    /// Removes unit `id`'s key (the unit reports no pending work at all).
    pub fn unschedule(&mut self, id: usize) {
        if self.keys[id].is_some() {
            self.keys[id] = None;
            self.stamps[id] += 1;
        }
    }

    /// Discards stale heap heads until the top entry is live.
    fn settle(&mut self) {
        while let Some(&(Reverse((due, id)), stamp)) = self.heap.peek() {
            if self.stamps[id] == stamp && self.keys[id] == Some(due) {
                break;
            }
            self.heap.pop();
        }
    }

    /// First live entry in a bucket holding keys for `due`, skipping (and
    /// permanently discarding, via the cursor) stale leading entries.
    fn bucket_head(keys: &[Option<Cycle>], bucket: &[usize], pos: &mut usize, due: Cycle) -> Option<usize> {
        while let Some(&id) = bucket.get(*pos) {
            if keys[id] == Some(due) {
                return Some(id);
            }
            *pos += 1;
        }
        None
    }

    /// Earliest live key over all units, or `None` when every unit is
    /// unscheduled (machine quiesced).
    pub fn next_key(&mut self) -> Option<Cycle> {
        self.settle();
        let mut best = self.heap.peek().map(|&(Reverse((due, _)), _)| due);
        if Self::bucket_head(&self.keys, &self.near, &mut self.near_pos, self.near_due).is_some() {
            best = Some(best.map_or(self.near_due, |b| b.min(self.near_due)));
        }
        let mut p2 = 0;
        if Self::bucket_head(&self.keys, &self.near2, &mut p2, self.near_due + 1).is_some() {
            let d2 = self.near_due + 1;
            best = Some(best.map_or(d2, |b| b.min(d2)));
        }
        best
    }

    /// Rolls the near buckets forward to `now`: live leftovers (keys in
    /// the past are still deliverable) migrate to the heap, and when the
    /// clock moved exactly one cycle the `near2` bucket becomes `near`.
    fn roll_to(&mut self, now: Cycle) {
        if now == self.near_due {
            return;
        }
        for i in self.near_pos..self.near.len() {
            let id = self.near[i];
            if self.keys[id] == Some(self.near_due) {
                self.heap.push((Reverse((self.near_due, id)), self.stamps[id]));
            }
        }
        self.near.clear();
        self.near_pos = 0;
        if now == self.near_due + 1 {
            std::mem::swap(&mut self.near, &mut self.near2);
        } else {
            let d2 = self.near_due + 1;
            for &id in &self.near2 {
                if self.keys[id] == Some(d2) {
                    self.heap.push((Reverse((d2, id)), self.stamps[id]));
                }
            }
            self.near2.clear();
        }
        self.near_due = now;
    }

    /// Pops the next unit whose key is `<= now`, consuming its key. Units
    /// tied on the same cycle pop in ascending id order. Returns `None`
    /// when no unit is due at `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<usize> {
        self.roll_to(now);
        self.settle();
        // After the roll `near` holds keys for `now` itself and `near2`
        // for the future, so the only merge needed is near-head vs
        // heap-head on the full `(due, id)` order.
        let heap_top = self.heap.peek().map(|&(Reverse(k), _)| k);
        let near_top =
            Self::bucket_head(&self.keys, &self.near, &mut self.near_pos, self.near_due)
                .map(|id| (self.near_due, id));
        let (due, id, from_near) = match (near_top, heap_top) {
            (Some(n), Some(h)) if h < n => (h.0, h.1, false),
            (Some(n), _) => (n.0, n.1, true),
            (None, Some(h)) => (h.0, h.1, false),
            (None, None) => return None,
        };
        if due > now {
            return None;
        }
        if from_near {
            self.near_pos += 1;
        } else {
            self.heap.pop();
        }
        self.keys[id] = None;
        self.stamps[id] += 1;
        Some(id)
    }

    /// Clears every key and stale entry (used when the kernel re-seeds the
    /// calendar conservatively at the start of a run).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.near.clear();
        self.near2.clear();
        self.near_pos = 0;
        self.near_due = Cycle::ZERO;
        for k in &mut self.keys {
            *k = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_due_then_id_order() {
        let mut c = Calendar::new(4);
        c.schedule(2, Cycle::new(5));
        c.schedule(0, Cycle::new(9));
        c.schedule(1, Cycle::new(5));
        c.schedule(3, Cycle::new(2));
        assert_eq!(c.pop_due(Cycle::new(10)), Some(3));
        // Tie on cycle 5: ascending id.
        assert_eq!(c.pop_due(Cycle::new(10)), Some(1));
        assert_eq!(c.pop_due(Cycle::new(10)), Some(2));
        assert_eq!(c.pop_due(Cycle::new(10)), Some(0));
        assert_eq!(c.pop_due(Cycle::new(10)), None);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut c = Calendar::new(2);
        c.schedule(0, Cycle::new(7));
        assert_eq!(c.pop_due(Cycle::new(6)), None);
        assert_eq!(c.key(0), Some(Cycle::new(7)), "undelivered key survives");
        assert_eq!(c.pop_due(Cycle::new(7)), Some(0));
        assert_eq!(c.key(0), None, "pop consumes the key");
    }

    #[test]
    fn reschedule_makes_old_entry_stale() {
        let mut c = Calendar::new(2);
        c.schedule(0, Cycle::new(3));
        c.schedule(0, Cycle::new(8)); // moves later: entry at 3 is stale
        assert_eq!(c.pop_due(Cycle::new(5)), None, "stale early entry not delivered");
        assert_eq!(c.next_key(), Some(Cycle::new(8)));
        c.schedule(0, Cycle::new(4)); // moves earlier again
        assert_eq!(c.pop_due(Cycle::new(5)), Some(0));
        assert_eq!(c.pop_due(Cycle::new(100)), None, "both stale entries gone");
    }

    #[test]
    fn unschedule_quiesces_unit() {
        let mut c = Calendar::new(2);
        c.schedule(0, Cycle::new(3));
        c.schedule(1, Cycle::new(4));
        c.unschedule(0);
        assert_eq!(c.next_key(), Some(Cycle::new(4)));
        assert_eq!(c.pop_due(Cycle::new(100)), Some(1));
        assert_eq!(c.next_key(), None);
    }

    #[test]
    fn schedule_same_key_is_idempotent() {
        let mut c = Calendar::new(1);
        for _ in 0..1000 {
            c.schedule(0, Cycle::new(5));
        }
        assert_eq!(c.heap.len(), 1, "idempotent reschedule must not grow the heap");
        assert_eq!(c.pop_due(Cycle::new(5)), Some(0));
        assert_eq!(c.pop_due(Cycle::new(5)), None);
    }

    /// Property: against a randomized schedule/unschedule/pop workload the
    /// calendar behaves exactly like the naive model (a `Vec<Option<Cycle>>`
    /// scanned for its minimum with id tie-break), and stale entries are
    /// never delivered.
    #[test]
    fn randomized_against_naive_model() {
        let mut rng = SimRng::seed(0xca1e).fork(1);
        for round in 0..50 {
            let units = 1 + (rng.bits() % 8) as usize;
            let mut cal = Calendar::new(units);
            let mut model: Vec<Option<Cycle>> = vec![None; units];
            let mut now = Cycle::ZERO;
            for _ in 0..400 {
                match rng.bits() % 4 {
                    0 | 1 => {
                        let id = (rng.bits() % units as u64) as usize;
                        let due = now + rng.bits() % 20;
                        cal.schedule(id, due);
                        model[id] = Some(due);
                    }
                    2 => {
                        let id = (rng.bits() % units as u64) as usize;
                        cal.unschedule(id);
                        model[id] = None;
                    }
                    _ => {
                        // Drain everything due at `now`, in model order.
                        loop {
                            let expect = model
                                .iter()
                                .enumerate()
                                .filter_map(|(id, k)| k.map(|c| (c, id)))
                                .min();
                            match (cal.pop_due(now), expect) {
                                (got, Some((due, id))) if due <= now => {
                                    assert_eq!(got, Some(id), "round {round}: pop order");
                                    model[id] = None;
                                }
                                (got, _) => {
                                    assert_eq!(got, None, "round {round}: spurious pop");
                                    break;
                                }
                            }
                        }
                        now += 1 + rng.bits() % 5;
                    }
                }
                let expect_min = model.iter().flatten().min().copied();
                assert_eq!(cal.next_key(), expect_min, "round {round}: next_key");
            }
        }
    }

    /// Property (satellite): the idle-jump arithmetic the kernel uses —
    /// `n = next_key - now` when the key is in the future — always lands
    /// the clock exactly on the calendar's next key, never past it.
    #[test]
    fn idle_jump_arithmetic_agrees_with_next_key() {
        let mut rng = SimRng::seed(77).fork(2);
        let mut cal = Calendar::new(4);
        let mut now = Cycle::ZERO;
        for _ in 0..500 {
            let id = (rng.bits() % 4) as usize;
            cal.schedule(id, now + 1 + rng.bits() % 30);
            while cal.pop_due(now).is_some() {}
            if let Some(key) = cal.next_key() {
                assert!(key > now, "all due units were popped");
                let n = key - now;
                now += n;
                assert_eq!(cal.next_key(), Some(now), "jump lands on the key");
                assert!(cal.pop_due(now).is_some(), "key is deliverable after jump");
            }
        }
    }
}
