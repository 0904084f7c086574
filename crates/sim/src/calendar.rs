//! Per-unit next-work keys for the event-driven simulation kernel.
//!
//! Each schedulable *unit* (the memory fabric, one per-core slice) owns a
//! small integer id and at most one key: the earliest cycle at which
//! ticking that unit could change machine state (the [`sched`] contract,
//! kept incrementally per unit instead of recomputed machine-wide every
//! cycle).
//!
//! # Ordering
//!
//! The kernel assigns id 0 to the memory fabric and id `1 + i` to core
//! `i`, and runs the units due at a cycle in one ascending-id pass
//! ([`Calendar::take_due`] per id). Same-cycle units therefore run in the
//! lockstep tick order (memory first, then cores ascending) exactly —
//! this is what keeps statistics bit-identical across kernels. Over
//! successive cycles units run in `(due, id)` order.
//!
//! # A flat array
//!
//! The calendar holds one key per unit and never more than `cores + 1`
//! of them: 2 for a single-core point, 17 for a 16-core one. Scanning
//! that many keys for the earliest is cheaper than keeping a heap or
//! sorted buckets in order, and a busy cycle visits every unit anyway.
//!
//! [`sched`]: crate::sched

use crate::types::Cycle;

/// One next-work key per unit (`None`: unscheduled, i.e. quiesced).
#[derive(Debug, Default)]
pub struct Calendar {
    keys: Vec<Option<Cycle>>,
}

impl Calendar {
    /// An empty calendar for `units` schedulable units (ids `0..units`).
    pub fn new(units: usize) -> Calendar {
        Calendar {
            keys: vec![None; units],
        }
    }

    /// The unit's current key, if scheduled.
    pub fn key(&self, id: usize) -> Option<Cycle> {
        self.keys[id]
    }

    /// (Re)schedules unit `id` at cycle `due`, replacing any previous key.
    pub fn schedule(&mut self, id: usize, due: Cycle) {
        self.keys[id] = Some(due);
    }

    /// Removes unit `id`'s key (the unit reports no pending work at all).
    pub fn unschedule(&mut self, id: usize) {
        self.keys[id] = None;
    }

    /// Consumes unit `id`'s key if it is due at `now` (at or before it).
    /// The kernel then runs the unit and must schedule it again, or it
    /// stays unscheduled.
    pub fn take_due(&mut self, id: usize, now: Cycle) -> bool {
        let due = self.keys[id].is_some_and(|k| k <= now);
        if due {
            self.keys[id] = None;
        }
        due
    }

    /// Earliest key over all units, or `None` when every unit is
    /// unscheduled (machine quiesced).
    pub fn next_key(&self) -> Option<Cycle> {
        self.keys.iter().flatten().min().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The kernel's pass at `now`: every due unit, ascending id.
    fn pass(c: &mut Calendar, units: usize, now: Cycle) -> Vec<usize> {
        (0..units).filter(|&id| c.take_due(id, now)).collect()
    }

    #[test]
    fn units_run_in_due_then_id_order() {
        let mut c = Calendar::new(4);
        c.schedule(2, Cycle::new(5));
        c.schedule(0, Cycle::new(9));
        c.schedule(1, Cycle::new(5));
        c.schedule(3, Cycle::new(2));
        let mut order = Vec::new();
        while let Some(now) = c.next_key() {
            order.push((now.raw(), pass(&mut c, 4, now)));
        }
        // Tie on cycle 5: ascending id.
        assert_eq!(order, [(2, vec![3]), (5, vec![1, 2]), (9, vec![0])]);
    }

    #[test]
    fn take_due_respects_now() {
        let mut c = Calendar::new(2);
        c.schedule(0, Cycle::new(7));
        assert!(!c.take_due(0, Cycle::new(6)));
        assert_eq!(c.key(0), Some(Cycle::new(7)), "undelivered key survives");
        assert!(c.take_due(0, Cycle::new(7)));
        assert_eq!(c.key(0), None, "taking consumes the key");
        assert!(!c.take_due(0, Cycle::new(7)), "a key is taken once");
    }

    #[test]
    fn reschedule_replaces_the_key() {
        let mut c = Calendar::new(2);
        c.schedule(0, Cycle::new(3));
        c.schedule(0, Cycle::new(8)); // moves later: 3 is gone
        assert!(!c.take_due(0, Cycle::new(5)), "replaced early key not delivered");
        assert_eq!(c.next_key(), Some(Cycle::new(8)));
        c.schedule(0, Cycle::new(4)); // moves earlier again
        assert!(c.take_due(0, Cycle::new(5)));
        assert_eq!(c.next_key(), None, "both replaced keys gone");
    }

    #[test]
    fn unschedule_quiesces_unit() {
        let mut c = Calendar::new(2);
        c.schedule(0, Cycle::new(3));
        c.schedule(1, Cycle::new(4));
        c.unschedule(0);
        assert_eq!(c.next_key(), Some(Cycle::new(4)));
        assert_eq!(pass(&mut c, 2, Cycle::new(100)), [1]);
        assert_eq!(c.next_key(), None);
    }

    /// Property: against a randomized schedule/unschedule/pass workload
    /// the calendar behaves exactly like the naive model (a
    /// `Vec<Option<Cycle>>`): a pass runs exactly the units whose key is
    /// at or before `now`, in ascending id, and `next_key` is the
    /// model's minimum.
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
                        // Run everything due at `now`, in model order.
                        let expect: Vec<usize> =
                            (0..units).filter(|&id| model[id].is_some_and(|k| k <= now)).collect();
                        assert_eq!(pass(&mut cal, units, now), expect, "round {round}: pass");
                        for id in expect {
                            model[id] = None;
                        }
                        now += 1 + rng.bits() % 5;
                    }
                }
                let expect_min = model.iter().flatten().min().copied();
                assert_eq!(cal.next_key(), expect_min, "round {round}: next_key");
            }
        }
    }

    /// Property: the idle-jump arithmetic the kernel uses —
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
            pass(&mut cal, 4, now);
            if let Some(key) = cal.next_key() {
                assert!(key > now, "the pass took every due unit");
                let n = key - now;
                now += n;
                assert_eq!(cal.next_key(), Some(now), "jump lands on the key");
                assert!(!pass(&mut cal, 4, now).is_empty(), "key is deliverable after jump");
            }
        }
    }
}
