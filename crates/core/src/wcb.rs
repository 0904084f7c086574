//! Write-combining buffers (WCBs) re-purposed for coherent stores.
//!
//! Modern cores already provide a handful of WCBs for non-temporal
//! stores; TUS (and CSB) reuse them to coalesce *coherent* stores across
//! multiple non-consecutive cache lines before writing to the L1D (paper
//! Section III-B). Each buffer holds one line's worth of data, a byte
//! mask, and a coalescing-group id (`C_ID`, `log2 N` extra bits per
//! buffer): when a store writes to an existing buffer that is not the
//! last one written, a cycle exists and the involved buffers merge into
//! one atomic group that must be written to the L1D together.

use tus_cpu::ForwardResult;
use tus_mem::{ByteMask, LineData};
use tus_sim::trace::{TraceEvent, TraceRecord, Tracer};
use tus_sim::{Addr, Cycle, LineAddr};

/// One write-combining buffer.
#[derive(Debug, Clone)]
pub struct WcbBuf {
    /// The line being coalesced.
    pub line: LineAddr,
    /// Coalesced data (masked bytes valid).
    pub data: Box<LineData>,
    /// Valid bytes.
    pub mask: ByteMask,
    /// Coalescing group id.
    pub cid: u32,
    /// Cycle the buffer was allocated (age-based flush).
    pub born: Cycle,
}

/// The set of WCBs of one core.
///
/// # Example
///
/// ```
/// use tus::WcbSet;
/// use tus_cpu::ForwardResult;
/// use tus_sim::{Addr, Cycle};
///
/// let mut w = WcbSet::new(2);
/// assert!(w.write(Addr::new(0x100), 4, 7, Cycle::ZERO).is_ok());
/// assert!(w.write(Addr::new(0x104), 4, 9, Cycle::ZERO).is_ok()); // coalesces
/// assert_eq!(w.occupied(), 1);
/// assert_eq!(w.forward(Addr::new(0x100), 4), ForwardResult::Hit { value: 7 });
/// assert_eq!(w.forward(Addr::new(0x104), 4), ForwardResult::Hit { value: 9 });
/// ```
#[derive(Debug, Clone)]
pub struct WcbSet {
    bufs: Vec<Option<WcbBuf>>,
    last_written: Option<usize>,
    next_cid: u32,
    searches: u64,
    coalesced_stores: u64,
    tracer: Tracer,
    /// Retired line-data boxes awaiting reuse. Flushed buffers return
    /// their boxes here (via [`WcbSet::release`]) so steady-state
    /// allocate/flush cycles never touch the heap: the pool plateaus at
    /// the buffer count.
    spare: Vec<Box<LineData>>,
}

/// Why a store could not enter the WCBs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcbRefusal {
    /// All buffers are in use with other lines; a group must be flushed
    /// to the L1D first.
    NeedFlush,
}

impl WcbSet {
    /// Creates `n` empty buffers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one WCB");
        WcbSet {
            bufs: vec![None; n],
            last_written: None,
            next_cid: 0,
            searches: 0,
            coalesced_stores: 0,
            tracer: Tracer::default(),
            spare: Vec::new(),
        }
    }

    /// Enables trace recording into a ring of `cap` records.
    pub fn trace_enable(&mut self, cap: usize) {
        self.tracer.enable(cap);
    }

    /// Drains recorded trace events, oldest first.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.tracer.take()
    }

    /// Number of buffers.
    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Buffers in use.
    pub fn occupied(&self) -> usize {
        self.bufs.iter().filter(|b| b.is_some()).count()
    }

    /// Whether all buffers are empty.
    pub fn is_empty(&self) -> bool {
        self.occupied() == 0
    }

    /// Immutable view of buffer `i`.
    pub fn buf(&self, i: usize) -> Option<&WcbBuf> {
        self.bufs[i].as_ref()
    }

    /// Writes a store into the WCBs: coalesces into a matching buffer,
    /// allocates a free one, or asks the caller to flush. Returns whether
    /// a *cycle* was created (the buffers' groups merged).
    ///
    /// # Errors
    ///
    /// [`WcbRefusal::NeedFlush`] when no buffer matches and none is free.
    pub fn write(
        &mut self,
        addr: Addr,
        size: usize,
        value: u64,
        now: Cycle,
    ) -> Result<bool, WcbRefusal> {
        let line = addr.line();
        if let Some(i) = self.find(line) {
            let cycle = self.last_written.is_some_and(|lw| lw != i)
                && self.bufs.iter().enumerate().any(|(j, b)| {
                    j != i && b.as_ref().is_some_and(|b| b.cid != self.bufs[i].as_ref().expect("found").cid)
                });
            let merged = if cycle {
                // All in-use buffers become one atomic group (conservative
                // reading of "the WCBs must be treated as an atomic
                // group").
                let cid = self.bufs[i].as_ref().expect("found").cid;
                for b in self.bufs.iter_mut().flatten() {
                    b.cid = cid;
                }
                if self.tracer.is_enabled() {
                    let size = self.occupied() as u32;
                    self.tracer.emit(now, 0, TraceEvent::AtomicGroupMerge { group: cid, size });
                }
                true
            } else {
                false
            };
            let b = self.bufs[i].as_mut().expect("found");
            tus_mem::line::write_value(&mut b.data, addr.line_offset(), size, value);
            b.mask.set_range(addr.line_offset(), size);
            self.coalesced_stores += 1;
            self.last_written = Some(i);
            return Ok(merged);
        }
        if let Some(i) = self.bufs.iter().position(|b| b.is_none()) {
            let mut data = match self.spare.pop() {
                Some(mut d) => {
                    *d = [0u8; tus_sim::LINE_BYTES];
                    d
                }
                None => Box::new([0u8; tus_sim::LINE_BYTES]),
            };
            tus_mem::line::write_value(&mut data, addr.line_offset(), size, value);
            let cid = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(1);
            self.bufs[i] = Some(WcbBuf {
                line,
                data,
                mask: ByteMask::range(addr.line_offset(), size),
                cid,
                born: now,
            });
            self.last_written = Some(i);
            return Ok(false);
        }
        Err(WcbRefusal::NeedFlush)
    }

    /// Finds the buffer holding `line`.
    pub fn find(&self, line: LineAddr) -> Option<usize> {
        self.bufs
            .iter()
            .position(|b| b.as_ref().is_some_and(|b| b.line == line))
    }

    /// Store-to-load forwarding search: a hit when the buffer holding the
    /// load's line has every byte of it, partial when it has only some
    /// (the load must wait for the flush), a miss when it has none.
    pub fn forward(&mut self, addr: Addr, size: usize) -> ForwardResult {
        self.searches += 1;
        let Some(i) = self.find(addr.line()) else {
            return ForwardResult::Miss;
        };
        let (b, offset) = (self.bufs[i].as_ref().expect("found"), addr.line_offset());
        if b.mask.covers(offset, size) {
            ForwardResult::Hit { value: tus_mem::line::read_value(&b.data, offset, size) }
        } else if b.mask.overlaps(offset, size) {
            ForwardResult::Partial
        } else {
            ForwardResult::Miss
        }
    }

    /// Clears `out` and fills it with the indices of the buffers forming
    /// the oldest group (by allocation cycle) — the natural flush victim.
    /// `out` stays empty when no buffer is in use.
    pub fn oldest_group_into(&self, out: &mut Vec<usize>) {
        out.clear();
        let Some(oldest) = self
            .bufs
            .iter()
            .flatten()
            .min_by_key(|b| b.born)
            .map(|b| b.cid)
        else {
            return;
        };
        out.extend(
            self.bufs
                .iter()
                .enumerate()
                .filter(|(_, b)| b.as_ref().is_some_and(|b| b.cid == oldest))
                .map(|(i, _)| i),
        );
    }

    /// Removes the buffers at `indices` (after their group was written to
    /// the L1D) and keeps their data boxes for reuse.
    pub fn release(&mut self, indices: &[usize]) {
        for &i in indices {
            let b = self.bufs[i].take().expect("releasing an empty WCB");
            self.spare.push(b.data);
        }
        if self
            .last_written
            .is_some_and(|lw| self.bufs[lw].is_none())
        {
            self.last_written = None;
        }
    }

    /// Age of the oldest buffer, in cycles.
    pub fn oldest_age(&self, now: Cycle) -> u64 {
        self.bufs
            .iter()
            .flatten()
            .map(|b| now.since(b.born))
            .max()
            .unwrap_or(0)
    }

    /// Forwarding searches performed (energy model).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Stores that coalesced into an existing buffer.
    pub fn coalesced_stores(&self) -> u64 {
        self.coalesced_stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_same_line() {
        let mut w = WcbSet::new(2);
        w.write(Addr::new(0x100), 4, 0x11, Cycle::ZERO).expect("ok");
        w.write(Addr::new(0x104), 4, 0x22, Cycle::ZERO).expect("ok");
        assert_eq!(w.occupied(), 1);
        assert_eq!(w.coalesced_stores(), 1);
        assert_eq!(w.forward(Addr::new(0x100), 4), ForwardResult::Hit { value: 0x11 });
        assert_eq!(w.forward(Addr::new(0x104), 4), ForwardResult::Hit { value: 0x22 });
    }

    #[test]
    fn refuses_when_full_of_other_lines() {
        let mut w = WcbSet::new(2);
        w.write(Addr::new(0x000), 8, 1, Cycle::ZERO).expect("ok");
        w.write(Addr::new(0x100), 8, 2, Cycle::ZERO).expect("ok");
        assert_eq!(
            w.write(Addr::new(0x200), 8, 3, Cycle::ZERO),
            Err(WcbRefusal::NeedFlush)
        );
    }

    /// The lines of the oldest group, in buffer order.
    fn oldest_lines(w: &WcbSet) -> Vec<LineAddr> {
        let mut g = Vec::new();
        w.oldest_group_into(&mut g);
        g.iter().map(|&i| w.buf(i).expect("member").line).collect()
    }

    #[test]
    fn cycle_detection_on_alternating_lines() {
        // A, B, A: writing A again while B was last-written => cycle.
        let mut w = WcbSet::new(2);
        assert_eq!(w.write(Addr::new(0x000), 8, 1, Cycle::ZERO), Ok(false));
        assert_eq!(w.write(Addr::new(0x100), 8, 2, Cycle::ZERO), Ok(false));
        assert_eq!(w.write(Addr::new(0x008), 8, 3, Cycle::ZERO), Ok(true));
        assert_eq!(
            oldest_lines(&w),
            [LineAddr::new(0), LineAddr::new(4)],
            "buffers merged into one group"
        );
    }

    #[test]
    fn no_cycle_when_rewriting_last_buffer() {
        let mut w = WcbSet::new(2);
        w.write(Addr::new(0x000), 8, 1, Cycle::ZERO).expect("ok");
        assert_eq!(w.write(Addr::new(0x008), 8, 2, Cycle::ZERO), Ok(false));
        assert_eq!(w.occupied(), 1);
        assert_eq!(oldest_lines(&w), [LineAddr::new(0)]);
    }

    #[test]
    fn forward_requires_full_cover() {
        let mut w = WcbSet::new(1);
        w.write(Addr::new(0x100), 4, 0xAABBCCDD, Cycle::ZERO).expect("ok");
        // Bytes 0-7 overlap the held 0-3 without being covered; bytes
        // 8-15 of the same line hold nothing, and another line has no
        // buffer at all.
        assert_eq!(w.forward(Addr::new(0x100), 8), ForwardResult::Partial);
        assert_eq!(w.forward(Addr::new(0x108), 8), ForwardResult::Miss);
        assert_eq!(w.forward(Addr::new(0x200), 8), ForwardResult::Miss);
        assert_eq!(w.forward(Addr::new(0x102), 2), ForwardResult::Hit { value: 0xAABB });
    }

    #[test]
    fn oldest_group_and_release() {
        let mut w = WcbSet::new(2);
        w.write(Addr::new(0x000), 8, 1, Cycle::new(5)).expect("ok");
        w.write(Addr::new(0x100), 8, 2, Cycle::new(9)).expect("ok");
        let mut g = Vec::new();
        w.oldest_group_into(&mut g);
        assert_eq!(g.len(), 1);
        assert_eq!(w.buf(g[0]).expect("member").line, LineAddr::new(0));
        w.release(&g);
        assert_eq!(w.occupied(), 1);
        assert_eq!(w.oldest_age(Cycle::new(20)), 11);
    }

    #[test]
    fn groups_ordered_oldest_first() {
        let mut w = WcbSet::new(3);
        w.write(Addr::new(0x200), 8, 1, Cycle::new(30)).expect("ok");
        w.write(Addr::new(0x000), 8, 2, Cycle::new(10)).expect("ok");
        w.write(Addr::new(0x100), 8, 3, Cycle::new(20)).expect("ok");
        let mut g = Vec::new();
        for line in [0, 4, 8] {
            w.oldest_group_into(&mut g);
            assert_eq!(g.len(), 1, "three separate groups");
            assert_eq!(w.buf(g[0]).expect("member").line, LineAddr::new(line));
            w.release(&g);
        }
        assert!(w.is_empty());
    }
}
