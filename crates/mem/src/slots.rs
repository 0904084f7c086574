//! Line-keyed slot storage for the per-core controller's in-flight state.
//!
//! [`LineSlots`] holds at most one `T` per cache line. The controller keeps
//! three of them: its MSHRs, the loads parked on a not-ready unauthorized
//! line, and the external requests parked on a line (pending a policy
//! decision, or delayed). Finding, inserting and removing by line cost one
//! hash probe each: an `FxHashMap<LineAddr, u32>` maps every live line to
//! its slot in a [`Slab`]. The keys are simulator-internal line
//! addresses, so the fast non-keyed hash is safe.
//!
//! A freed slab slot keeps its value, so a `T` that owns a buffer (a
//! waiter list) hands it, warm, to the slot's next occupant: steady-state
//! reuse allocates nothing. Nothing observes
//! which slot a line gets, so the reuse order (last freed first) is
//! output-neutral.

use tus_sim::{FxHashMap, LineAddr, Slab};

/// At most one `T` per line, found, inserted and removed in O(1).
#[derive(Debug)]
pub(crate) struct LineSlots<T> {
    /// The slot of every live line; its length is the live count.
    index: FxHashMap<LineAddr, u32>,
    slots: Slab<T>,
}

impl<T: Default> LineSlots<T> {
    pub(crate) fn new() -> Self {
        LineSlots {
            index: FxHashMap::default(),
            slots: Slab::new(),
        }
    }

    /// Number of live slots.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether `line` has a live slot.
    pub(crate) fn contains(&self, line: LineAddr) -> bool {
        self.index.contains_key(&line)
    }

    /// The live slot of `line`.
    pub(crate) fn get(&self, line: LineAddr) -> Option<&T> {
        self.index.get(&line).map(|&i| self.slots.get(i))
    }

    /// The live slot of `line`, mutably.
    pub(crate) fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.index.get(&line).map(|&i| self.slots.get_mut(i))
    }

    /// Claims a slot for `line`, which must not have one. A reused slot
    /// still holds what its last occupant left: the caller overwrites the
    /// fields it needs and keeps the buffers.
    pub(crate) fn insert(&mut self, line: LineAddr) -> &mut T {
        let i = self.slots.alloc();
        let prev = self.index.insert(line, i);
        debug_assert!(prev.is_none(), "one slot per line");
        self.slots.get_mut(i)
    }

    /// Frees the slot of `line` and returns it, so the caller can move
    /// out what it needs; the rest stays for the next occupant.
    pub(crate) fn remove(&mut self, line: LineAddr) -> Option<&mut T> {
        let i = self.index.remove(&line)?;
        self.slots.release(i);
        Some(self.slots.get_mut(i))
    }

    /// The lines with a live slot, in no particular order.
    pub(crate) fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.index.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded mix of inserts, lookups, appends and removals over a
    /// small line universe, checked after every step against a plain
    /// `Vec` scan. Removal clears the slot's buffer the way the
    /// controller does (moving the contents out, keeping the capacity).
    #[test]
    fn matches_a_vec_scan() {
        let mut slots: LineSlots<Vec<u32>> = LineSlots::new();
        let mut model: Vec<(LineAddr, Vec<u32>)> = Vec::new();
        let mut rng = 0x51_07_5e_ed_u64;
        let mut bits = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for step in 0..20_000u32 {
            let line = LineAddr::new(bits() % 24);
            let at = model.iter().position(|(l, _)| *l == line);
            match bits() % 3 {
                0 | 1 => match at {
                    // Append to a live line's buffer.
                    Some(i) => {
                        model[i].1.push(step);
                        slots.get_mut(line).expect("live").push(step);
                    }
                    None => {
                        model.push((line, vec![step]));
                        let s = slots.insert(line);
                        assert!(s.is_empty(), "step {step}: a reused slot was left dirty");
                        s.push(step);
                    }
                },
                _ => {
                    let got = slots.remove(line).map(|s| {
                        let v = s.clone();
                        s.clear();
                        v
                    });
                    let want = at.map(|i| model.swap_remove(i).1);
                    assert_eq!(got, want, "step {step}: remove of {line:?}");
                }
            }
            assert_eq!(slots.len(), model.len(), "step {step}: live count");
            for probe in 0..24 {
                let probe = LineAddr::new(probe);
                let want = model.iter().find(|(l, _)| *l == probe).map(|(_, v)| v);
                assert_eq!(slots.get(probe), want, "step {step}: find {probe:?}");
                assert_eq!(slots.contains(probe), want.is_some());
            }
            let mut live: Vec<_> = slots.lines().collect();
            let mut want: Vec<_> = model.iter().map(|(l, _)| *l).collect();
            live.sort_by_key(|l| l.raw());
            want.sort_by_key(|l| l.raw());
            assert_eq!(live, want, "step {step}: live lines");
        }
    }

    #[test]
    fn a_reused_slot_keeps_its_buffer() {
        let mut slots: LineSlots<Vec<u64>> = LineSlots::new();
        slots.insert(LineAddr::new(1)).extend(0..100);
        let dead = slots.remove(LineAddr::new(1)).expect("live");
        dead.clear();
        assert!(slots.remove(LineAddr::new(1)).is_none(), "removed twice");
        let reused = slots.insert(LineAddr::new(2));
        assert!(reused.is_empty());
        assert!(
            reused.capacity() >= 100,
            "the dead slot's buffer was dropped"
        );
        assert_eq!(slots.len(), 1);
    }
}
