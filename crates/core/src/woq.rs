//! The Write Ordering Queue (WOQ).
//!
//! A small circular buffer (64 entries by default) that records, for every
//! temporarily unauthorized cache line, the order in which lines must be
//! made visible to preserve x86-TSO (paper Sections III-A and IV,
//! Figure 6). Each entry stores the L1D set/way the line occupies, the
//! byte mask of locally written data, an atomic-group id, a *CanCycle*
//! bit (cleared while a conflict is being resolved) and a *Ready* bit
//! (write permission acquired and data combined).
//!
//! Store cycles (`A B A`) are handled by merging entries into one *atomic
//! group* that becomes visible simultaneously; the merge copies the found
//! entry's group id to every entry between it and the tail (paper
//! Section IV).
//!
//! Hardware cost per entry: 10 bits of set/way + 6 bits of group id +
//! 16 bits of mask + CanCycle + Ready = 34 bits; 64 entries = 272 bytes,
//! the paper's headline storage overhead (accounted in `tus-energy`).

use std::collections::VecDeque;

use tus_mem::ByteMask;
use tus_sim::trace::{TraceEvent, TraceRecord, Tracer};
use tus_sim::{Cycle, LineAddr};

/// Identifier of an atomic group of WOQ entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// One WOQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WoqEntry {
    /// The unauthorized line (the hardware stores only set/way; the line
    /// address is kept here for assertions and the authorization unit).
    pub line: LineAddr,
    /// L1D set holding the line.
    pub set: usize,
    /// L1D way holding the line.
    pub way: usize,
    /// Atomic group this entry belongs to.
    pub group: GroupId,
    /// Locally written bytes.
    pub mask: ByteMask,
    /// May still participate in new cycles (cleared when an external
    /// conflict targets the group).
    pub can_cycle: bool,
    /// Write permission acquired and data combined.
    pub ready: bool,
    /// Relinquished; must re-request permission under the lex rule.
    pub retry: bool,
}

/// The Write Ordering Queue.
///
/// # Example
///
/// ```
/// use tus::Woq;
/// use tus_mem::ByteMask;
/// use tus_sim::LineAddr;
///
/// let mut woq = Woq::new(4);
/// let g = woq.push(LineAddr::new(1), 0, 0, ByteMask::range(0, 4));
/// woq.push(LineAddr::new(2), 0, 1, ByteMask::range(4, 4));
/// assert_eq!(woq.head_group(), Some(g));
/// assert!(!woq.head_group_ready());
/// woq.mark_ready(0, 0);
/// assert!(woq.head_group_ready());
/// assert_eq!(woq.pop_head_group().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Woq {
    entries: VecDeque<WoqEntry>,
    cap: usize,
    next_group: u32,
    searches: u64,
    peak: usize,
    tracer: Tracer,
    /// Reused buffer for merge-closure group ids (bounded by the queue
    /// capacity, so it plateaus and merge queries allocate nothing).
    scratch_ids: Vec<GroupId>,
    /// Entries with the ready bit clear — lets the per-cycle
    /// [`Woq::head_group_ready`] poll answer without scanning when every
    /// entry is ready.
    not_ready: usize,
    /// Entries with the retry flag set — lets the per-cycle lex
    /// re-request walk skip entirely in the common no-retry state.
    retries: usize,
}

impl Woq {
    /// Creates a WOQ with `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "WOQ needs at least one entry");
        Woq {
            entries: VecDeque::with_capacity(cap),
            cap,
            next_group: 0,
            searches: 0,
            peak: 0,
            tracer: Tracer::default(),
            scratch_ids: Vec::new(),
            not_ready: 0,
            retries: 0,
        }
    }

    /// Enables trace recording into a ring of `cap` records.
    pub fn trace_enable(&mut self, cap: usize) {
        self.tracer.enable(cap);
    }

    /// Sets the clock stamped on subsequently recorded events (the WOQ's
    /// own methods carry no cycle parameter; the owning policy advances
    /// this once per drain step).
    #[inline]
    pub fn trace_set_now(&mut self, now: Cycle) {
        self.tracer.set_now(now);
    }

    /// Drains recorded trace events, oldest first.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.tracer.take()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a push would be refused.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// Free entries.
    pub fn free(&self) -> usize {
        self.cap - self.entries.len()
    }

    /// Entry at queue position `idx` (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn entry(&self, idx: usize) -> &WoqEntry {
        &self.entries[idx]
    }

    /// Iterates entries from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &WoqEntry> {
        self.entries.iter()
    }

    /// Appends a new entry as its own singleton atomic group; returns the
    /// group id.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (check [`Woq::is_full`] first).
    pub fn push(&mut self, line: LineAddr, set: usize, way: usize, mask: ByteMask) -> GroupId {
        let g = GroupId(self.next_group);
        self.next_group = self.next_group.wrapping_add(1);
        self.push_into_group(line, set, way, mask, g);
        g
    }

    /// Appends a new entry into an existing atomic group (used when a WCB
    /// group flushes several lines as one atomic unit).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn push_into_group(
        &mut self,
        line: LineAddr,
        set: usize,
        way: usize,
        mask: ByteMask,
        group: GroupId,
    ) {
        assert!(!self.is_full(), "WOQ overflow");
        self.entries.push_back(WoqEntry {
            line,
            set,
            way,
            group,
            mask,
            can_cycle: true,
            ready: false,
            retry: false,
        });
        self.not_ready += 1;
        self.peak = self.peak.max(self.entries.len());
        self.tracer.emit_now(TraceEvent::WoqEnqueue { line: line.raw(), group: group.0 });
    }

    /// Finds the queue position of the entry at L1D `set`/`way` (the
    /// 10-bit search the paper describes).
    pub fn find(&mut self, set: usize, way: usize) -> Option<usize> {
        self.searches += 1;
        self.entries.iter().position(|e| e.set == set && e.way == way)
    }

    /// Collects into `scratch_ids` the group ids that would be absorbed
    /// by merging from `idx` to the tail (the transitive closure:
    /// atomicity of every touched group is preserved by folding whole
    /// groups in).
    fn collect_merge_ids(&mut self, idx: usize) {
        self.scratch_ids.clear();
        for e in self.entries.iter().skip(idx) {
            if !self.scratch_ids.contains(&e.group) {
                self.scratch_ids.push(e.group);
            }
        }
    }

    /// Merges every entry from `idx` to the tail — *and every other
    /// member of any group touched by that span* — into the group of the
    /// entry at `idx` (the store-cycle rule: "its AtomicG_ID must be
    /// copied to all entries between itself and the tail"; folding whole
    /// groups keeps atomicity when a span cuts across an existing group).
    /// Returns the resulting group id.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn merge_to_tail(&mut self, idx: usize) -> GroupId {
        let g = self.entries[idx].group;
        self.collect_merge_ids(idx);
        for e in self.entries.iter_mut() {
            if self.scratch_ids.contains(&e.group) {
                e.group = g;
            }
        }
        if self.tracer.is_enabled() {
            let size = self.entries.iter().filter(|e| e.group == g).count() as u32;
            self.tracer.emit_now(TraceEvent::AtomicGroupMerge { group: g.0, size });
        }
        g
    }

    /// Size the atomic group would have after [`Woq::merge_to_tail`].
    pub fn merged_size(&mut self, idx: usize) -> usize {
        self.collect_merge_ids(idx);
        let ids = &self.scratch_ids;
        self.entries.iter().filter(|e| ids.contains(&e.group)).count()
    }

    /// Whether any entry that [`Woq::merge_to_tail`] would absorb has its
    /// *CanCycle* bit cleared — in which case the merge (and the store
    /// causing it) must wait.
    pub fn merge_blocked(&mut self, idx: usize) -> bool {
        self.collect_merge_ids(idx);
        let ids = &self.scratch_ids;
        self.entries
            .iter()
            .any(|e| ids.contains(&e.group) && !e.can_cycle)
    }

    /// Appends the lines of the atomic group that [`Woq::merge_to_tail`]
    /// would form to `out` (for lex-conflict checks).
    pub fn merged_lines_into(&mut self, idx: usize, out: &mut Vec<LineAddr>) {
        self.collect_merge_ids(idx);
        let ids = &self.scratch_ids;
        out.extend(
            self.entries
                .iter()
                .filter(|e| ids.contains(&e.group))
                .map(|e| e.line),
        );
    }

    /// Adds written bytes to the entry at `idx` and clears its ready bit
    /// unless `still_ready` (the line retained write permission across the
    /// coalescing write).
    pub fn coalesce(&mut self, idx: usize, mask: ByteMask, still_ready: bool) {
        let e = &mut self.entries[idx];
        e.mask = e.mask.union(mask);
        if e.ready != still_ready {
            if still_ready {
                self.not_ready -= 1;
            } else {
                self.not_ready += 1;
            }
        }
        e.ready = still_ready;
    }

    /// Marks the entry at L1D `set`/`way` ready (permission + data
    /// combined); clears its retry flag.
    pub fn mark_ready(&mut self, set: usize, way: usize) {
        if let Some(i) = self.find(set, way) {
            let e = &mut self.entries[i];
            if !e.ready {
                self.not_ready -= 1;
            }
            if e.retry {
                self.retries -= 1;
            }
            e.ready = true;
            e.retry = false;
        }
    }

    /// Marks the entry at `set`/`way` relinquished: not ready, retry, and
    /// clears *CanCycle*.
    pub fn mark_relinquished(&mut self, set: usize, way: usize) {
        if let Some(i) = self.find(set, way) {
            let e = &mut self.entries[i];
            if e.ready {
                self.not_ready += 1;
            }
            if !e.retry {
                self.retries += 1;
            }
            e.ready = false;
            e.retry = true;
            e.can_cycle = false;
            let line = e.line.raw();
            self.tracer.emit_now(TraceEvent::LexRelinquish { line });
        }
    }

    /// Clears *CanCycle* on the entry at `idx` (conflict resolution in
    /// progress).
    pub fn forbid_cycle(&mut self, idx: usize) {
        self.entries[idx].can_cycle = false;
    }

    /// Group of the oldest entry.
    pub fn head_group(&self) -> Option<GroupId> {
        self.entries.front().map(|e| e.group)
    }

    /// Whether every member of the head group is ready.
    pub fn head_group_ready(&self) -> bool {
        let Some(g) = self.head_group() else {
            return false;
        };
        // Everything ready (the steady drain state) needs no group scan.
        self.not_ready == 0 || self.entries.iter().filter(|e| e.group == g).all(|e| e.ready)
    }

    /// Number of entries with the retry flag set (relinquished lines
    /// awaiting a lex-ordered re-request). The per-cycle re-request walk
    /// gates on this being non-zero.
    #[inline]
    pub fn retry_count(&self) -> usize {
        self.retries
    }

    /// Pops every member of the head group (they become visible
    /// together). Members are contiguous from the head after merges, but
    /// group membership is checked across the whole queue for safety.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub fn pop_head_group(&mut self) -> Vec<WoqEntry> {
        let mut popped = Vec::new();
        self.pop_head_group_into(&mut popped);
        popped
    }

    /// Allocation-free [`Woq::pop_head_group`]: appends the popped head
    /// group to `out` (which the caller clears and reuses), removing the
    /// members in place.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub fn pop_head_group_into(&mut self, out: &mut Vec<WoqEntry>) {
        let g = self.head_group().expect("pop from empty WOQ");
        let before = out.len();
        let (mut popped_not_ready, mut popped_retries) = (0, 0);
        // retain preserves the order of survivors, exactly like the old
        // drain-and-rebuild, and removes in place without a fresh deque.
        self.entries.retain(|e| {
            if e.group == g {
                popped_not_ready += usize::from(!e.ready);
                popped_retries += usize::from(e.retry);
                out.push(*e);
                false
            } else {
                true
            }
        });
        self.not_ready -= popped_not_ready;
        self.retries -= popped_retries;
        self.tracer.emit_now(TraceEvent::WoqVisible {
            group: g.0,
            lines: (out.len() - before) as u32,
        });
    }

    #[cfg(feature = "bug-woq-reorder")]
    fn pop_group_members(&mut self, g: GroupId) -> Vec<WoqEntry> {
        let mut popped = Vec::new();
        let mut rest = VecDeque::with_capacity(self.entries.len());
        for e in self.entries.drain(..) {
            if e.group == g {
                self.not_ready -= usize::from(!e.ready);
                self.retries -= usize::from(e.retry);
                popped.push(e);
            } else {
                rest.push_back(e);
            }
        }
        self.entries = rest;
        popped
    }

    /// Fault-injection hook (`bug-woq-reorder` feature only): the
    /// youngest fully-ready group, regardless of queue position.
    #[cfg(feature = "bug-woq-reorder")]
    pub fn youngest_ready_group(&self) -> Option<GroupId> {
        let mut groups: Vec<GroupId> = self.entries.iter().map(|e| e.group).collect();
        groups.sort_unstable();
        groups.dedup();
        groups
            .into_iter()
            .rev()
            .find(|&g| self.entries.iter().filter(|e| e.group == g).all(|e| e.ready))
    }

    /// Fault-injection hook (`bug-woq-reorder` feature only): pops every
    /// member of `g`, wherever it sits in the queue.
    #[cfg(feature = "bug-woq-reorder")]
    pub fn pop_group(&mut self, g: GroupId) -> Vec<WoqEntry> {
        self.pop_group_members(g)
    }

    /// Iterator over queue positions of entries with the retry flag set.
    pub fn retry_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.retry)
            .map(|(i, _)| i)
    }

    /// Number of 10-bit associative searches performed (energy model).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Peak occupancy.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> ByteMask {
        ByteMask::range(0, 8)
    }

    #[test]
    fn push_creates_singleton_groups() {
        let mut w = Woq::new(4);
        let g1 = w.push(LineAddr::new(1), 0, 0, m());
        let g2 = w.push(LineAddr::new(2), 0, 1, m());
        assert_ne!(g1, g2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.head_group(), Some(g1));
    }

    #[test]
    #[should_panic(expected = "WOQ overflow")]
    fn overflow_panics() {
        let mut w = Woq::new(1);
        w.push(LineAddr::new(1), 0, 0, m());
        w.push(LineAddr::new(2), 0, 1, m());
    }

    #[test]
    fn find_by_coords() {
        let mut w = Woq::new(4);
        w.push(LineAddr::new(1), 3, 7, m());
        w.push(LineAddr::new(2), 4, 2, m());
        assert_eq!(w.find(4, 2), Some(1));
        assert_eq!(w.find(9, 9), None);
        assert_eq!(w.searches(), 2);
    }

    #[test]
    fn cycle_merge_spans_to_tail() {
        // A J K, then a second store to A: {A, J, K} become one group.
        let mut w = Woq::new(8);
        let ga = w.push(LineAddr::new(0xA), 0, 0, m());
        w.push(LineAddr::new(0x1), 0, 1, m());
        w.push(LineAddr::new(0x2), 0, 2, m());
        assert_eq!(w.merged_size(0), 3);
        let g = w.merge_to_tail(0);
        assert_eq!(g, ga);
        assert!(w.iter().all(|e| e.group == ga));
        // Not ready: pop impossible.
        assert!(!w.head_group_ready());
        w.mark_ready(0, 0);
        w.mark_ready(0, 1);
        w.mark_ready(0, 2);
        assert!(w.head_group_ready());
        assert_eq!(w.pop_head_group().len(), 3);
        assert!(w.is_empty());
    }

    #[test]
    fn partial_merge_keeps_older_groups() {
        // J, A, B; cycle on A merges {A, B} but J stays its own group and
        // is made visible first (paper Fig. 4).
        let mut w = Woq::new(8);
        let gj = w.push(LineAddr::new(0x1), 0, 0, m());
        let ga = w.push(LineAddr::new(0xA), 0, 1, m());
        w.push(LineAddr::new(0xB), 0, 2, m());
        w.merge_to_tail(1);
        assert_eq!(w.entry(0).group, gj);
        assert_eq!(w.entry(1).group, ga);
        assert_eq!(w.entry(2).group, ga);
        w.mark_ready(0, 0);
        let first = w.pop_head_group();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].line, LineAddr::new(0x1));
        assert_eq!(w.head_group(), Some(ga));
    }

    #[test]
    fn merged_size_counts_older_members() {
        let mut w = Woq::new(8);
        let g = w.push(LineAddr::new(1), 0, 0, m());
        w.push_into_group(LineAddr::new(2), 0, 1, m(), g);
        w.push(LineAddr::new(3), 0, 2, m());
        // Merging from idx 1 (group g): span 2 (idx 1..=2) + older member
        // at idx 0 = 3.
        assert_eq!(w.merged_size(1), 3);
    }

    #[test]
    fn merge_blocked_by_can_cycle() {
        let mut w = Woq::new(8);
        w.push(LineAddr::new(1), 0, 0, m());
        w.push(LineAddr::new(2), 0, 1, m());
        assert!(!w.merge_blocked(0));
        w.forbid_cycle(1);
        assert!(w.merge_blocked(0));
        // Merging from idx 1 itself is blocked too.
        assert!(w.merge_blocked(1));
    }

    #[test]
    fn coalesce_updates_mask_and_ready() {
        let mut w = Woq::new(4);
        w.push(LineAddr::new(1), 0, 0, ByteMask::range(0, 4));
        w.mark_ready(0, 0);
        w.coalesce(0, ByteMask::range(8, 4), true);
        assert!(w.entry(0).ready);
        assert!(w.entry(0).mask.covers(0, 4));
        assert!(w.entry(0).mask.covers(8, 4));
        w.coalesce(0, ByteMask::range(16, 4), false);
        assert!(!w.entry(0).ready);
    }

    #[test]
    fn relinquish_sets_retry() {
        let mut w = Woq::new(4);
        w.push(LineAddr::new(1), 2, 3, m());
        w.mark_ready(2, 3);
        w.mark_relinquished(2, 3);
        let e = w.entry(0);
        assert!(!e.ready && e.retry && !e.can_cycle);
        assert!(w.retry_iter().eq([0]));
        // Re-acquisition clears retry.
        w.mark_ready(2, 3);
        assert_eq!(w.retry_iter().next(), None);
    }

    #[test]
    fn pop_head_group_gathers_noncontiguous_members() {
        let mut w = Woq::new(8);
        let g = w.push(LineAddr::new(1), 0, 0, m());
        w.push(LineAddr::new(2), 0, 1, m());
        // Manually create a non-contiguous membership (merge from 0 then a
        // later independent push would still be contiguous; emulate via
        // push_into_group).
        w.push_into_group(LineAddr::new(3), 0, 2, m(), g);
        for c in [(0, 0), (0, 2)] {
            w.mark_ready(c.0, c.1);
        }
        let popped = w.pop_head_group();
        assert_eq!(popped.len(), 2);
        assert_eq!(w.len(), 1);
        assert_eq!(w.entry(0).line, LineAddr::new(2));
    }
}
