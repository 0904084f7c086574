//! Structured event tracing and cycle attribution.
//!
//! Two related facilities live here:
//!
//! * [`Tracer`] — a zero-cost-when-disabled, ring-buffered recorder of
//!   [`TraceRecord`]s. Every simulated component (core front end, drain
//!   policy, WOQ, WCBs, private caches, directory, network, and the
//!   kernel itself) owns one; they all start disabled, and a disabled
//!   tracer's [`Tracer::emit`] is a single branch on a bool — the
//!   simulation's observable behaviour and statistics are identical with
//!   tracing on or off (the invariant test suite checks this bit for
//!   bit). When enabled, records land in a fixed-capacity ring so a long
//!   run can never exhaust memory; overwritten records are counted in
//!   [`Tracer::dropped`].
//! * [`AttrClass`] / [`Attribution`] — the stall-attribution accountant.
//!   Every core cycle is charged to **exactly one** class (useful
//!   dispatch, empty front end, or one of the four dispatch-stall
//!   causes), under both the lockstep and the event kernels, so
//!   `sum(classes) == cycles` holds at any instant of any run. This is
//!   always on — the charges are plain integer adds, independent of the
//!   tracer — which is what lets the figures claim *where* cycles went
//!   rather than just how many there were.
//!
//! The harness's `trace` subcommand turns collected records into
//! Chrome-trace/Perfetto JSON; see `EXPERIMENTS.md`.

use crate::types::Cycle;

/// The exclusive per-cycle attribution classes.
///
/// [`AttrClass::label`] is the single source of the category names used
/// by the accountant, the trace export and the harness breakdown table —
/// a typo can no longer silently split a category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AttrClass {
    /// At least one µop dispatched this cycle.
    Dispatch = 0,
    /// Nothing to dispatch (front end empty, no back-end stall).
    FrontEmpty = 1,
    /// Dispatch blocked on a full ROB.
    Rob = 2,
    /// Dispatch blocked on a full load queue.
    Lq = 3,
    /// Dispatch blocked on a full store buffer.
    Sb = 4,
    /// Dispatch blocked on exhausted physical registers.
    Regs = 5,
}

impl AttrClass {
    /// Number of classes.
    pub const COUNT: usize = 6;

    /// Every class, in index order.
    pub const ALL: [AttrClass; AttrClass::COUNT] = [
        AttrClass::Dispatch,
        AttrClass::FrontEmpty,
        AttrClass::Rob,
        AttrClass::Lq,
        AttrClass::Sb,
        AttrClass::Regs,
    ];

    /// Stable category name (shared by stats, traces and tables).
    pub fn label(self) -> &'static str {
        match self {
            AttrClass::Dispatch => "dispatch",
            AttrClass::FrontEmpty => "frontend_empty",
            AttrClass::Rob => "stall_rob",
            AttrClass::Lq => "stall_lq",
            AttrClass::Sb => "stall_sb",
            AttrClass::Regs => "stall_regs",
        }
    }
}

/// Per-class cycle counts; the accountant's ledger for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    counts: [u64; AttrClass::COUNT],
}

impl Attribution {
    /// An empty ledger.
    pub fn new() -> Self {
        Attribution::default()
    }

    /// Charges `n` cycles to `class`.
    #[inline]
    pub fn charge(&mut self, class: AttrClass, n: u64) {
        self.counts[class as usize] += n;
    }

    /// Cycles charged to `class`.
    pub fn get(&self, class: AttrClass) -> u64 {
        self.counts[class as usize]
    }

    /// Total cycles charged — must equal the core's cycle count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(class, cycles)` pairs in class order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrClass, u64)> + '_ {
        AttrClass::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// The ledger of the window between an earlier snapshot and `self`.
    ///
    /// # Panics
    ///
    /// Panics if any category decreased (categories are monotone).
    pub fn since(&self, earlier: &Attribution) -> Attribution {
        let mut out = Attribution::new();
        for (i, v) in out.counts.iter_mut().enumerate() {
            *v = self.counts[i]
                .checked_sub(earlier.counts[i])
                .expect("attribution categories are monotone");
        }
        out
    }
}

/// One structured trace event. Instants carry their payload; spans (a
/// non-zero duration in the enclosing [`TraceRecord`]) describe a state
/// that persisted over an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Span: the core spent the interval in one attribution class
    /// (emitted on class change; `Dispatch` intervals are left implicit).
    CommitStall {
        /// The stall class covering the interval.
        class: AttrClass,
    },
    /// Span: the event kernel jumped the clock over a
    /// machine-wide idle window (keeps timelines gap-free).
    BulkIdle,
    /// Instant: stores drained from the SB into the WCBs this cycle.
    SbWcbDrain {
        /// Stores moved.
        stores: u32,
    },
    /// Instant: an unauthorized line entered the WOQ.
    WoqEnqueue {
        /// Line address.
        line: u64,
        /// Atomic group id.
        group: u32,
    },
    /// Instant: the WOQ head group became visible.
    WoqVisible {
        /// Atomic group id.
        group: u32,
        /// Lines made visible together.
        lines: u32,
    },
    /// Instant: entries merged into one atomic group (store cycle).
    AtomicGroupMerge {
        /// Surviving group id.
        group: u32,
        /// Members after the merge.
        size: u32,
    },
    /// Instant: the authorization unit relinquished a held line.
    LexRelinquish {
        /// Line address.
        line: u64,
    },
    /// Instant: a relinquished line re-requested write permission.
    LexRetry {
        /// Line address.
        line: u64,
    },
    /// Instant: a coherence state transition in a private cache.
    MesiTransition {
        /// Line address.
        line: u64,
        /// State left.
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// Span: the directory resolved a fetch in the L3 or DRAM (duration
    /// covers the access latency).
    DramAccess {
        /// Line address.
        line: u64,
        /// Whether the L3 hit (otherwise DRAM was accessed).
        l3_hit: bool,
    },
    /// Instant: a coherence message entered the interconnect.
    NetMsg {
        /// Message kind label.
        kind: &'static str,
    },
}

impl TraceEvent {
    /// Display name (the Chrome-trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::CommitStall { class } => class.label(),
            TraceEvent::BulkIdle => "bulk_idle",
            TraceEvent::SbWcbDrain { .. } => "sb_wcb_drain",
            TraceEvent::WoqEnqueue { .. } => "woq_enqueue",
            TraceEvent::WoqVisible { .. } => "woq_visible",
            TraceEvent::AtomicGroupMerge { .. } => "atomic_group_merge",
            TraceEvent::LexRelinquish { .. } => "lex_relinquish",
            TraceEvent::LexRetry { .. } => "lex_retry",
            TraceEvent::MesiTransition { .. } => "mesi",
            TraceEvent::DramAccess { l3_hit, .. } => {
                if *l3_hit {
                    "l3_hit"
                } else {
                    "dram_access"
                }
            }
            TraceEvent::NetMsg { kind } => kind,
        }
    }

    /// `(key, value)` argument pairs for structured viewers.
    pub fn args(&self) -> Vec<(&'static str, String)> {
        match *self {
            TraceEvent::CommitStall { .. } | TraceEvent::BulkIdle => Vec::new(),
            TraceEvent::SbWcbDrain { stores } => vec![("stores", stores.to_string())],
            TraceEvent::WoqEnqueue { line, group } => vec![
                ("line", format!("{line:#x}")),
                ("group", group.to_string()),
            ],
            TraceEvent::WoqVisible { group, lines } => vec![
                ("group", group.to_string()),
                ("lines", lines.to_string()),
            ],
            TraceEvent::AtomicGroupMerge { group, size } => vec![
                ("group", group.to_string()),
                ("size", size.to_string()),
            ],
            TraceEvent::LexRelinquish { line } | TraceEvent::LexRetry { line } => {
                vec![("line", format!("{line:#x}"))]
            }
            TraceEvent::MesiTransition { line, from, to } => vec![
                ("line", format!("{line:#x}")),
                ("from", from.to_string()),
                ("to", to.to_string()),
            ],
            TraceEvent::DramAccess { line, l3_hit } => vec![
                ("line", format!("{line:#x}")),
                ("l3_hit", l3_hit.to_string()),
            ],
            TraceEvent::NetMsg { .. } => Vec::new(),
        }
    }
}

/// One recorded event: a timestamp, a duration (0 = instant) and the
/// event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Start cycle.
    pub at: Cycle,
    /// Duration in cycles (0 for instants).
    pub dur: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// A per-component ring-buffered event recorder.
///
/// Disabled by default; [`Tracer::emit`] on a disabled tracer is a
/// single predictable branch, so components can call it unconditionally
/// on their hot paths.
///
/// # Example
///
/// ```
/// use tus_sim::trace::{TraceEvent, Tracer};
/// use tus_sim::Cycle;
///
/// let mut t = Tracer::default();
/// t.emit(Cycle::new(5), 0, TraceEvent::BulkIdle); // disabled: dropped
/// assert!(t.take().is_empty());
/// t.enable(8);
/// t.emit(Cycle::new(7), 3, TraceEvent::BulkIdle);
/// assert_eq!(t.take().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    now: Cycle,
    cap: usize,
    buf: Vec<TraceRecord>,
    next: usize,
    dropped: u64,
}

impl Tracer {
    /// Enables recording into a ring of `cap` records.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn enable(&mut self, cap: usize) {
        assert!(cap > 0, "tracer capacity must be positive");
        self.enabled = true;
        self.cap = cap;
        self.buf = Vec::with_capacity(cap.min(1024));
        self.next = 0;
        self.dropped = 0;
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the clock used by [`Tracer::emit_now`] (for components whose
    /// inner structures have no cycle parameter of their own).
    #[inline]
    pub fn set_now(&mut self, now: Cycle) {
        if self.enabled {
            self.now = now;
        }
    }

    /// Records an event starting at `at` lasting `dur` cycles.
    #[inline]
    pub fn emit(&mut self, at: Cycle, dur: u64, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.push(TraceRecord { at, dur, ev });
    }

    /// Records an instant at the clock last given to [`Tracer::set_now`].
    #[inline]
    pub fn emit_now(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.push(TraceRecord { at: self.now, dur: 0, ev });
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drains the recorded events, oldest first.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        let mut v = std::mem::take(&mut self.buf);
        if self.dropped > 0 {
            v.rotate_left(self.next);
        }
        self.next = 0;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        assert!(!t.is_enabled());
        t.emit(Cycle::new(1), 0, TraceEvent::BulkIdle);
        t.emit_now(TraceEvent::BulkIdle);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = Tracer::default();
        t.enable(3);
        for i in 0..5u64 {
            t.emit(Cycle::new(i), 0, TraceEvent::SbWcbDrain { stores: i as u32 });
        }
        assert_eq!(t.dropped(), 2);
        let recs = t.take();
        assert_eq!(recs.len(), 3);
        // Oldest-first after wrap: cycles 2, 3, 4.
        let at: Vec<u64> = recs.iter().map(|r| r.at.raw()).collect();
        assert_eq!(at, vec![2, 3, 4]);
    }

    #[test]
    fn emit_now_uses_last_set_clock() {
        let mut t = Tracer::default();
        t.enable(4);
        t.set_now(Cycle::new(9));
        t.emit_now(TraceEvent::LexRetry { line: 3 });
        let recs = t.take();
        assert_eq!(recs[0].at, Cycle::new(9));
    }

    #[test]
    fn attribution_partitions_and_diffs() {
        let mut a = Attribution::new();
        a.charge(AttrClass::Dispatch, 10);
        a.charge(AttrClass::Sb, 5);
        assert_eq!(a.total(), 15);
        assert_eq!(a.get(AttrClass::Sb), 5);
        let mut b = a;
        b.charge(AttrClass::Sb, 2);
        let d = b.since(&a);
        assert_eq!(d.get(AttrClass::Sb), 2);
        assert_eq!(d.total(), 2);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn attribution_since_rejects_decrease() {
        let mut a = Attribution::new();
        a.charge(AttrClass::Rob, 1);
        Attribution::new().since(&a);
    }

    #[test]
    fn labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in AttrClass::ALL {
            assert!(seen.insert(c.label()), "duplicate label {}", c.label());
        }
    }
}
