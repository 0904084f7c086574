//! The unified store buffer (SB).
//!
//! A FIFO of stores from dispatch until the drain policy writes them to
//! the memory system. It is modeled as x86 processors build it (a unified
//! buffer for non-committed and committed stores, searched associatively
//! by every load for store-to-load forwarding). The forwarding latency
//! depends on the SB size (5 cycles at 114 entries, 4 at 64, 3 at ≤32 —
//! Table I / Fog), which is the micro-architectural payoff of TUS running
//! well with a small SB.

use std::collections::VecDeque;

use tus_sim::Addr;

/// One store held in the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbEntry {
    /// Store address.
    pub addr: Addr,
    /// Store size in bytes.
    pub size: u8,
    /// Store data.
    pub value: u64,
    /// The producing instruction has executed (address + data valid).
    pub executed: bool,
    /// The store instruction has committed (may update memory).
    pub committed: bool,
    /// Global instruction sequence number (program order).
    pub seq: u64,
}

impl SbEntry {
    fn overlaps(&self, addr: Addr, size: usize) -> bool {
        let (a0, a1) = (self.addr.raw(), self.addr.raw() + self.size as u64);
        let (b0, b1) = (addr.raw(), addr.raw() + size as u64);
        a0 < b1 && b0 < a1
    }

    fn covers(&self, addr: Addr, size: usize) -> bool {
        self.addr.raw() <= addr.raw()
            && addr.raw() + size as u64 <= self.addr.raw() + self.size as u64
    }
}

/// Result of a store-to-load forwarding search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older store overlaps the load.
    Miss,
    /// The youngest overlapping older store fully covers the load: the
    /// value can be forwarded.
    Hit {
        /// Forwarded value (little-endian slice of the store data).
        value: u64,
    },
    /// The youngest overlapping older store has not produced its data yet;
    /// the load must retry.
    NotReady,
    /// The load overlaps a store that does not fully cover it; the load
    /// must wait until that store drains.
    Partial,
}

/// The unified store buffer.
///
/// # Example
///
/// ```
/// use tus_cpu::{ForwardResult, StoreBuffer};
/// use tus_sim::Addr;
///
/// let mut sb = StoreBuffer::new(4, 3);
/// sb.push(Addr::new(0x100), 8, 7, 0).expect("room");
/// sb.mark_executed(0);
/// assert_eq!(sb.forward(Addr::new(0x100), 8, 1), ForwardResult::Hit { value: 7 });
/// assert_eq!(sb.forward(Addr::new(0x100), 8, 0), ForwardResult::Miss); // older load
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: VecDeque<SbEntry>,
    cap: usize,
    fwd_lat: u64,
    searches: u64,
    peak: usize,
    occupancy_sum: u64,
    occupancy_samples: u64,
    /// Per-line-hash occupancy counts: a zero bucket proves no buffered
    /// store touches any line hashing there, so the associative walks
    /// (`forward`, `older_store_to_line`) can answer Miss without
    /// scanning. Counts, not bits, so removal stays exact.
    line_filter: [u16; LINE_FILTER_BUCKETS],
    /// Committed entries currently buffered (`has_committed` in O(1);
    /// fences and the drain loop poll it every cycle).
    committed_count: usize,
}

/// Bucket count for [`StoreBuffer::line_filter`] (power of two).
const LINE_FILTER_BUCKETS: usize = 128;

/// Filter bucket of a line address.
#[inline]
fn line_bucket(line: tus_sim::LineAddr) -> usize {
    let l = line.raw();
    ((l ^ (l >> 7)) as usize) & (LINE_FILTER_BUCKETS - 1)
}

impl StoreBuffer {
    /// Creates a buffer with `cap` entries and the given forwarding
    /// latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize, fwd_lat: u64) -> Self {
        assert!(cap > 0, "SB must have at least one entry");
        StoreBuffer {
            entries: VecDeque::with_capacity(cap),
            cap,
            fwd_lat,
            searches: 0,
            peak: 0,
            occupancy_sum: 0,
            occupancy_samples: 0,
            line_filter: [0; LINE_FILTER_BUCKETS],
            committed_count: 0,
        }
    }

    /// Applies `delta` to the filter buckets of every line the byte range
    /// `[addr, addr+size)` touches (a store may straddle a line boundary).
    #[inline]
    fn filter_adjust(&mut self, addr: Addr, size: u8, delta: i32) {
        let first = line_bucket(addr.line());
        let b = &mut self.line_filter[first];
        *b = (*b as i32 + delta) as u16;
        let last = line_bucket(Addr::new(addr.raw() + size as u64 - 1).line());
        if last != first {
            let b = &mut self.line_filter[last];
            *b = (*b as i32 + delta) as u16;
        }
    }

    /// Whether any buffered store could touch a line in `[addr, addr+size)`.
    #[inline]
    fn filter_may_overlap(&self, addr: Addr, size: usize) -> bool {
        if self.line_filter[line_bucket(addr.line())] != 0 {
            return true;
        }
        let last = Addr::new(addr.raw() + size.max(1) as u64 - 1).line();
        self.line_filter[line_bucket(last)] != 0
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Store-to-load forwarding latency in cycles.
    pub fn forward_latency(&self) -> u64 {
        self.fwd_lat
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no stores.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a dispatch would be refused.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// Appends a store at dispatch.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` when the buffer is full (dispatch must stall —
    /// the SB-induced stall the paper measures).
    pub fn push(&mut self, addr: Addr, size: u8, value: u64, seq: u64) -> Result<(), ()> {
        if self.is_full() {
            return Err(());
        }
        self.entries.push_back(SbEntry {
            addr,
            size,
            value,
            executed: false,
            committed: false,
            seq,
        });
        self.filter_adjust(addr, size, 1);
        self.peak = self.peak.max(self.entries.len());
        Ok(())
    }

    /// Index of the entry with sequence number `seq` (entries are pushed
    /// in program order, so they are sorted by `seq`).
    #[inline]
    fn index_of(&self, seq: u64) -> Option<usize> {
        let i = self.entries.partition_point(|e| e.seq < seq);
        (self.entries.get(i).map(|e| e.seq) == Some(seq)).then_some(i)
    }

    /// Marks the store with sequence number `seq` as executed.
    pub fn mark_executed(&mut self, seq: u64) {
        if let Some(i) = self.index_of(seq) {
            self.entries[i].executed = true;
        }
    }

    /// Marks the store with sequence number `seq` as committed.
    pub fn mark_committed(&mut self, seq: u64) {
        if let Some(i) = self.index_of(seq) {
            let e = &mut self.entries[i];
            debug_assert!(e.executed, "commit of a non-executed store");
            if !e.committed {
                e.committed = true;
                self.committed_count += 1;
            }
        }
    }

    /// The oldest store, if any.
    pub fn head(&self) -> Option<&SbEntry> {
        self.entries.front()
    }

    /// Pops the oldest store (the drain policy has accepted its write).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty or the head is not committed.
    pub fn pop_head(&mut self) -> SbEntry {
        let e = self.entries.pop_front().expect("pop from empty SB");
        assert!(e.committed, "draining a non-committed store");
        self.filter_adjust(e.addr, e.size, -1);
        self.committed_count -= 1;
        e
    }

    /// Associative search for store-to-load forwarding: finds the youngest
    /// store older than `load_seq` overlapping `[addr, addr+size)`.
    pub fn forward(&mut self, addr: Addr, size: usize, load_seq: u64) -> ForwardResult {
        self.searches += 1;
        if !self.filter_may_overlap(addr, size) {
            return ForwardResult::Miss;
        }
        for e in self.entries.iter().rev() {
            if e.seq >= load_seq || !e.overlaps(addr, size) {
                continue;
            }
            if !e.executed {
                return ForwardResult::NotReady;
            }
            if e.covers(addr, size) {
                let shift = (addr.raw() - e.addr.raw()) * 8;
                let v = e.value >> shift;
                let mask = if size >= 8 { u64::MAX } else { (1u64 << (size * 8)) - 1 };
                return ForwardResult::Hit { value: v & mask };
            }
            return ForwardResult::Partial;
        }
        ForwardResult::Miss
    }

    /// Whether any committed store is still buffered (fences wait for
    /// these — and only these — to drain; younger, uncommitted stores sit
    /// behind the fence in program order).
    pub fn has_committed(&self) -> bool {
        self.committed_count > 0
    }

    /// Whether any store older than `seq` to the same line is still
    /// buffered (used by drain policies that preserve per-line order).
    pub fn older_store_to_line(&self, line: tus_sim::LineAddr, seq: u64) -> bool {
        self.line_filter[line_bucket(line)] != 0
            && self
                .entries
                .iter()
                .any(|e| e.seq < seq && e.addr.line() == line)
    }

    /// Samples occupancy (call once per cycle) for utilization statistics.
    pub fn sample_occupancy(&mut self) {
        self.occupancy_sum += self.entries.len() as u64;
        self.occupancy_samples += 1;
    }

    /// Samples occupancy for `n` cycles at once (the event kernel charging
    /// a stretch of cycles during which the SB did not change).
    pub fn sample_occupancy_n(&mut self, n: u64) {
        self.occupancy_sum += n * self.entries.len() as u64;
        self.occupancy_samples += n;
    }

    /// Number of associative searches performed (the SB energy driver).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Peak occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Mean occupancy over the sampled cycles.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Iterates entries from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &SbEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> StoreBuffer {
        StoreBuffer::new(4, 5)
    }

    #[test]
    fn fills_and_refuses() {
        let mut b = sb();
        for i in 0..4 {
            b.push(Addr::new(i * 8), 8, i, i).expect("room");
        }
        assert!(b.is_full());
        assert!(b.push(Addr::new(64), 8, 9, 9).is_err());
    }

    #[test]
    fn pop_requires_commit() {
        let mut b = sb();
        b.push(Addr::new(0), 8, 1, 0).expect("room");
        b.mark_executed(0);
        b.mark_committed(0);
        let e = b.pop_head();
        assert_eq!(e.value, 1);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-committed")]
    fn pop_uncommitted_panics() {
        let mut b = sb();
        b.push(Addr::new(0), 8, 1, 0).expect("room");
        b.pop_head();
    }

    #[test]
    fn forwards_youngest_older_store() {
        let mut b = sb();
        b.push(Addr::new(0x10), 8, 0xAAAA, 0).expect("room");
        b.push(Addr::new(0x10), 8, 0xBBBB, 2).expect("room");
        b.mark_executed(0);
        b.mark_executed(2);
        // Load at seq 5 sees the youngest (seq 2).
        assert_eq!(b.forward(Addr::new(0x10), 8, 5), ForwardResult::Hit { value: 0xBBBB });
        // Load at seq 1 only sees seq 0.
        assert_eq!(b.forward(Addr::new(0x10), 8, 1), ForwardResult::Hit { value: 0xAAAA });
        // Load at seq 0 sees nothing.
        assert_eq!(b.forward(Addr::new(0x10), 8, 0), ForwardResult::Miss);
    }

    #[test]
    fn forwards_subword_with_shift() {
        let mut b = sb();
        b.push(Addr::new(0x20), 8, 0x8877_6655_4433_2211, 0).expect("room");
        b.mark_executed(0);
        // Little-endian: byte 0x22 holds 0x33, byte 0x23 holds 0x44.
        assert_eq!(
            b.forward(Addr::new(0x22), 2, 1),
            ForwardResult::Hit { value: 0x4433 }
        );
        assert_eq!(
            b.forward(Addr::new(0x27), 1, 1),
            ForwardResult::Hit { value: 0x88 }
        );
    }

    #[test]
    fn partial_and_not_ready() {
        let mut b = sb();
        b.push(Addr::new(0x10), 4, 0xAA, 0).expect("room");
        // Not yet executed.
        assert_eq!(b.forward(Addr::new(0x10), 4, 1), ForwardResult::NotReady);
        b.mark_executed(0);
        // 8-byte load only half-covered by the 4-byte store.
        assert_eq!(b.forward(Addr::new(0x10), 8, 1), ForwardResult::Partial);
    }

    #[test]
    fn miss_on_disjoint_addresses() {
        let mut b = sb();
        b.push(Addr::new(0x10), 8, 1, 0).expect("room");
        b.mark_executed(0);
        assert_eq!(b.forward(Addr::new(0x18), 8, 1), ForwardResult::Miss);
        assert_eq!(b.forward(Addr::new(0x08), 8, 1), ForwardResult::Miss);
        assert_eq!(b.searches(), 2);
    }

    #[test]
    fn older_store_to_line_detects() {
        let mut b = sb();
        b.push(Addr::new(0x40), 8, 1, 3).expect("room");
        assert!(b.older_store_to_line(Addr::new(0x44).line(), 10));
        assert!(!b.older_store_to_line(Addr::new(0x44).line(), 3));
        assert!(!b.older_store_to_line(Addr::new(0x80).line(), 10));
    }

    #[test]
    fn occupancy_stats() {
        let mut b = sb();
        b.sample_occupancy();
        b.push(Addr::new(0), 8, 1, 0).expect("room");
        b.push(Addr::new(8), 8, 1, 1).expect("room");
        b.sample_occupancy();
        assert_eq!(b.peak(), 2);
        assert!((b.mean_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bulk_occupancy_sample_matches_repeated() {
        let mut a = sb();
        let mut b = sb();
        for buf in [&mut a, &mut b] {
            buf.push(Addr::new(0), 8, 1, 0).expect("room");
            buf.push(Addr::new(8), 8, 1, 1).expect("room");
        }
        for _ in 0..7 {
            a.sample_occupancy();
        }
        b.sample_occupancy_n(7);
        assert!((a.mean_occupancy() - b.mean_occupancy()).abs() < 1e-12);
        assert_eq!(a.peak(), b.peak());
    }
}
