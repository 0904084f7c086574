//! Per-core private cache controller (L1D + private L2, inclusive).
//!
//! One [`PrivateCache`] per core is the coherence endpoint for that core's
//! private hierarchy. It implements:
//!
//! * the load path (L1D → L2 → directory) with MSHR merging,
//! * the baseline store path (write when permission held, GetM otherwise),
//! * the TUS mechanisms of Section III/IV of the paper: *unauthorized*
//!   writes into the L1D without permission, combine-on-arrival using the
//!   byte mask, bulk visibility flips, and the delay/relinquish protocol
//!   for external requests that hit not-visible lines,
//! * the inclusive-hierarchy plumbing: L1D victims write back into the L2,
//!   L2 victims invalidate L1D copies and notify the directory, and an L2
//!   way whose L1D copy is unauthorized is never selected as a victim (the
//!   paper's NACK-refresh replacement rule),
//! * the baseline stream prefetcher (trained on demand load misses).
//!
//! Decision logic — *when* to write unauthorized data, atomic groups, lex
//! order — lives in the `tus` crate and drives this controller through its
//! public methods; decisions flow back via [`CacheEvent`]s.

use tus_sim::stats::names;
use tus_sim::trace::{TraceEvent, TraceRecord, Tracer};
use tus_sim::{Addr, CoherenceKind, CoreId, Cycle, DelayQueue, LineAddr, SimConfig, StatSet};

use crate::backend::tardis::Clock;
use crate::cache::CacheArray;
use crate::line::{combine, read_value, write_value, ByteMask, LineData};
use crate::mesi::Mesi;
use crate::msgs::{CacheEvent, FwdKind, Lease, Msg, ReqKind};
use crate::net::{Network, Node};
use crate::prefetch::StreamPrefetcher;
use crate::slots::LineSlots;

/// What a TUS probe of the L1D found for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// Not present; `ways_free` ways could hold it right now.
    Miss {
        /// Unoccupied or evictable ways in the line's set.
        ways_free: usize,
    },
    /// Present and visible to coherence.
    HitVisible {
        /// Write permission currently held.
        writable: bool,
    },
    /// Present as a temporarily unauthorized line (a store cycle if
    /// written again — paper Section III-B).
    HitUnauth {
        /// L1D set.
        set: usize,
        /// L1D way.
        way: usize,
        /// Permission acquired and data combined.
        ready: bool,
    },
    /// A fill or permission request is outstanding; retry later.
    Busy,
}

/// Result of a store write attempt that requires permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreWriteOutcome {
    /// The write was performed.
    Done,
    /// Permission is missing; a request is (already) in flight — retry.
    NotYet,
}

/// What [`PrivateCache::write_line_visible`] does for a line *right
/// now*: the write branches on it, and the event kernel reads it without
/// writing to decide whether a blocked store drain is pending work, a
/// counting retry (chargeable in bulk), or fully quiet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAttemptClass {
    /// The write would complete ([`StoreWriteOutcome::Done`]) — work now.
    WouldComplete,
    /// The write would miss and *send a new GetM* — work now (state
    /// changes: MSHR allocation plus a network message).
    BlockedWouldRequest,
    /// The write would miss with the request already in flight (or MSHRs
    /// full): each retry cycle only bumps `l1d_store_misses`.
    BlockedCounting,
    /// The write would bounce off an unauthorized line with no counter
    /// charged at all.
    BlockedQuiet,
}

/// Why an unauthorized allocation could not be performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnauthAllocError {
    /// Every way in the set is pinned (locked or unauthorized).
    NoWay,
    /// A fill or request for the line is already in flight.
    Outstanding,
    /// No MSHR available for the write-permission request.
    MshrFull,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    token: u64,
    offset: usize,
    size: usize,
}

/// One MSHR: a request in flight to the directory. In a 16-core PARSEC
/// run a core has 25–81 of them live on average at a lookup and up to
/// 150 at peak (demand loads oversubscribe the MSHR count), so they sit
/// in a [`LineSlots`], not a scanned array; a freed MSHR keeps its
/// `waiters` buffer so reuse allocates nothing.
#[derive(Debug)]
struct Mshr {
    kind: ReqKind,
    prefetch: bool,
    waiters: Vec<Waiter>,
}

impl Default for Mshr {
    fn default() -> Self {
        Mshr {
            kind: ReqKind::GetS,
            prefetch: false,
            waiters: Vec::new(),
        }
    }
}

/// An external request parked on a line (at most one per line by the
/// one-transaction-per-line directory invariant).
#[derive(Debug, Clone, Copy)]
struct PendingFwd {
    kind: FwdKind,
    to_owner: bool,
}

impl Default for PendingFwd {
    fn default() -> Self {
        PendingFwd {
            kind: FwdKind::Inv,
            to_owner: false,
        }
    }
}

/// Swaps a freed slot's waiter list into `scratch` (cleared first), so
/// the slot keeps a warm, empty buffer.
fn take_waiters(slot: &mut Vec<Waiter>, scratch: &mut Vec<Waiter>) {
    scratch.clear();
    std::mem::swap(slot, scratch);
}

/// Whether the private hierarchy holds write permission for `line`: M/E
/// in the L1D (and not hidden as unauthorized) or in the L2.
fn writable_in(l1d: &CacheArray, l2: &CacheArray, line: LineAddr) -> bool {
    l1d.lookup(line).is_some_and(|(s, w)| {
        let l = l1d.way(s, w);
        !l.unauth && l.state.can_write()
    }) || l2
        .lookup(line)
        .is_some_and(|(s, w)| l2.way(s, w).state.can_write())
}

/// Counters exported per core.
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// Demand loads issued to the hierarchy.
    pub loads: u64,
    /// Loads that hit in L1D.
    pub l1d_load_hits: u64,
    /// Loads that missed in L1D.
    pub l1d_load_misses: u64,
    /// Loads served by the L2.
    pub l2_load_hits: u64,
    /// Loads that left the private hierarchy.
    pub l2_load_misses: u64,
    /// Loads that had to wait for an unauthorized line to become ready.
    pub loads_blocked_unauth: u64,
    /// Loads forwarded from not-ready unauthorized lines (ablation knob,
    /// off by default as in the paper).
    pub l1d_unauth_forwards: u64,
    /// Store write accesses performed on the L1D data array. Coalescing
    /// (CSB/TUS) reduces this; the paper reports a 2× average reduction.
    pub l1d_writes: u64,
    /// Stores that hit a writable line on their first attempt.
    pub l1d_store_hits: u64,
    /// Store attempts that found no writable line.
    pub l1d_store_misses: u64,
    /// Authorized-copy updates pushed into the L2 before overwriting a
    /// dirty visible line with unauthorized data (TUS energy overhead).
    pub l2_updates: u64,
    /// L2 data writes performed by the SSB write-through drain.
    pub ssb_l2_writes: u64,
    /// Unauthorized line allocations (TUS).
    pub unauth_allocs: u64,
    /// Lines relinquished to resolve external conflicts (TUS).
    pub relinquishes: u64,
    /// External requests delayed while a line was not visible (TUS).
    pub delayed_externals: u64,
    /// Prefetch requests issued (stream + commit + SPB).
    pub prefetches: u64,
    /// Invalidations received.
    pub invs_received: u64,
    /// L2 evictions notified to the directory.
    pub l2_evictions: u64,
}

/// A per-core private cache hierarchy controller.
pub struct PrivateCache {
    core: CoreId,
    l1d: CacheArray,
    l2: CacheArray,
    mshrs: usize,
    l1_lat: u64,
    l2_rt: u64,
    stream: Option<StreamPrefetcher>,
    unauth_forwarding: bool,
    outstanding: LineSlots<Mshr>,
    /// Loads parked on a not-ready unauthorized line, in arrival order
    /// (the wake path must preserve it).
    unauth_waiters: LineSlots<Vec<Waiter>>,
    pending_fwd: LineSlots<PendingFwd>,
    delayed_fwd: LineSlots<PendingFwd>,
    deferred_fwd: DelayQueue<(LineAddr, FwdKind, bool)>,
    events: Vec<CacheEvent>,
    /// Scratch for processing a freed slot's waiters without holding a
    /// borrow on its container (swapped in and out, capacity retained).
    waiter_scratch: Vec<Waiter>,
    /// The core's Tardis clock and leases; `None` under MESI.
    clock: Option<Clock>,
    tracer: Tracer,
    /// Counters.
    pub stats: MemStats,
}

/// One-letter MESI state label for trace records.
fn mesi_label(s: Mesi) -> &'static str {
    match s {
        Mesi::Invalid => "I",
        Mesi::Shared => "S",
        Mesi::Exclusive => "E",
        Mesi::Modified => "M",
    }
}

impl std::fmt::Debug for PrivateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivateCache")
            .field("core", &self.core)
            .field("outstanding", &self.outstanding.len())
            .field("pending_fwd", &self.pending_fwd.len())
            .finish()
    }
}

impl PrivateCache {
    /// Creates the controller for `core` from the machine configuration.
    pub fn new(core: CoreId, cfg: &SimConfig) -> Self {
        let m = &cfg.mem;
        PrivateCache {
            core,
            l1d: CacheArray::new(m.l1d.sets(), m.l1d.ways),
            l2: CacheArray::new(m.l2.sets(), m.l2.ways),
            mshrs: m.l1d.mshrs.min(m.l2.mshrs),
            l1_lat: m.l1d.latency,
            l2_rt: m.l2.latency,
            stream: if m.stream_prefetcher {
                Some(StreamPrefetcher::new(16, m.stream_degree))
            } else {
                None
            },
            unauth_forwarding: cfg.tus.l1d_unauth_forwarding,
            outstanding: LineSlots::new(),
            unauth_waiters: LineSlots::new(),
            pending_fwd: LineSlots::new(),
            delayed_fwd: LineSlots::new(),
            deferred_fwd: DelayQueue::new(),
            events: Vec::new(),
            waiter_scratch: Vec::new(),
            clock: (cfg.coherence == CoherenceKind::Tardis).then(Clock::default),
            tracer: Tracer::default(),
            stats: MemStats::default(),
        }
    }

    /// Arms structured MESI-transition tracing with a ring of `cap`
    /// records.
    pub fn trace_enable(&mut self, cap: usize) {
        self.tracer.enable(cap);
    }

    /// Drains the buffered trace records, oldest first.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.tracer.take()
    }

    /// Records an L1D coherence-state transition on `line` (no-op while
    /// tracing is disabled).
    fn trace_mesi(&mut self, line: LineAddr, from: Mesi, to: Mesi, now: Cycle) {
        if self.tracer.is_enabled() && from != to {
            self.tracer.emit(
                now,
                0,
                TraceEvent::MesiTransition {
                    line: line.raw(),
                    from: mesi_label(from),
                    to: mesi_label(to),
                },
            );
        }
    }

    /// This controller's core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    // --- MSHRs -----------------------------------------------------------

    /// Opens an MSHR for a request on `line`, which has none in flight,
    /// and sends the request to the home node; returns the MSHR with an
    /// empty (warm) waiter list.
    fn request(
        &mut self,
        line: LineAddr,
        kind: ReqKind,
        prefetch: bool,
        now: Cycle,
        net: &mut Network,
    ) -> &mut Mshr {
        let (core, pts) = (self.core, self.clock.as_ref().map_or(0, Clock::pts));
        let m = self.outstanding.insert(line);
        debug_assert!(m.waiters.is_empty());
        m.kind = kind;
        m.prefetch = prefetch;
        let msg = Msg::Req {
            core,
            line,
            kind,
            prefetch,
            pts,
        };
        net.send(Node::Core(core), Node::Dir, now, msg);
        m
    }

    /// Closes the MSHR for `line`, if any, and moves its waiters into
    /// `waiter_scratch` (replacing its contents).
    fn mshr_close_into_scratch(&mut self, line: LineAddr) {
        match self.outstanding.remove(line) {
            Some(m) => take_waiters(&mut m.waiters, &mut self.waiter_scratch),
            None => self.waiter_scratch.clear(),
        }
    }

    /// Takes the events produced since the last call.
    pub fn take_events(&mut self) -> Vec<CacheEvent> {
        std::mem::take(&mut self.events)
    }

    /// Moves the events produced since the last call into `out`
    /// (appending), leaving the internal buffer empty but warm — the
    /// allocation-free drain used by the per-cycle system loop.
    pub fn drain_events_into(&mut self, out: &mut Vec<CacheEvent>) {
        out.append(&mut self.events);
    }

    /// Whether no request is outstanding and no external request pending.
    pub fn quiesced(&self) -> bool {
        self.outstanding.len() == 0
            && self.pending_fwd.len() == 0
            && self.delayed_fwd.len() == 0
            && self.deferred_fwd.is_empty()
    }

    /// Processes external requests whose grant-hold window has expired.
    /// Called by the memory system once per cycle.
    pub fn tick(&mut self, now: Cycle, net: &mut Network) {
        while let Some((line, kind, to_owner)) = self.deferred_fwd.pop_due(now) {
            self.dispatch_fwd(line, kind, to_owner, now, net, false);
        }
    }

    /// L1D set index of a line (for atomic-group way accounting).
    pub fn l1d_set_of(&self, line: LineAddr) -> usize {
        self.l1d.set_of(line)
    }

    /// Coherence/TUS state of a line, if present in the L1D:
    /// `(state, unauth, ready)` — for tests and assertions.
    pub fn line_state(&self, line: LineAddr) -> Option<(Mesi, bool, bool)> {
        self.l1d
            .lookup(line)
            .map(|(s, w)| {
                let l = self.l1d.way(s, w);
                (l.state, l.unauth, l.ready)
            })
            .or_else(|| {
                self.l2
                    .lookup(line)
                    .map(|(s, w)| (self.l2.way(s, w).state, false, false))
            })
    }

    /// Number of MSHRs still available.
    pub fn mshrs_free(&self) -> usize {
        self.mshrs.saturating_sub(self.outstanding.len())
    }

    /// Whether every MSHR is taken (demand loads may still oversubscribe).
    fn mshrs_full(&self) -> bool {
        self.outstanding.len() >= self.mshrs
    }

    /// Number of requests in flight to the directory (diagnostics).
    pub fn outstanding_requests(&self) -> usize {
        self.outstanding.len()
    }

    /// Lines with a request in flight, sorted (diagnostics).
    pub fn outstanding_lines(&self) -> Vec<LineAddr> {
        let mut v: Vec<LineAddr> = self.outstanding.lines().collect();
        v.sort_by_key(|l| l.raw());
        v
    }

    /// External requests parked on this core: pending a policy decision
    /// plus explicitly delayed ones (diagnostics).
    pub fn parked_externals(&self) -> usize {
        self.pending_fwd.len() + self.delayed_fwd.len() + self.deferred_fwd.len()
    }

    /// Whether a request for `line` is currently in flight to the
    /// directory.
    pub fn request_in_flight(&self, line: LineAddr) -> bool {
        self.outstanding.contains(line)
    }

    /// Whether events are queued for the policy/core layer to consume.
    pub fn has_pending_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Due cycle of the earliest deferred external request (grant-hold
    /// window expiry).
    pub fn next_deferred_fwd(&self) -> Option<Cycle> {
        self.deferred_fwd.next_due()
    }

    /// What [`PrivateCache::write_line_visible`] (and therefore the
    /// baseline/SSB/CSB store-drain attempts built on it) does for `line`
    /// this cycle: the write branches on this answer, and the event
    /// kernel reads it without writing; see [`StoreAttemptClass`].
    pub fn store_write_class(&self, line: LineAddr) -> StoreAttemptClass {
        // Write permission is a property of the private hierarchy: an L2
        // copy in M/E authorizes the write even if the L1D tag still says
        // S.
        let l2_writable = || {
            self.l2
                .lookup(line)
                .is_some_and(|(s2, w2)| self.l2.way(s2, w2).state.can_write())
        };
        match self.l1d.lookup(line) {
            Some((set, way)) => {
                let l = self.l1d.way(set, way);
                if l.unauth {
                    return StoreAttemptClass::BlockedQuiet;
                }
                if l.state.can_write() || (l.state.can_read() && l2_writable()) {
                    return StoreAttemptClass::WouldComplete;
                }
            }
            None if l2_writable() => return StoreAttemptClass::WouldComplete,
            None => {}
        }
        // Miss: a new GetM goes out unless one is already in flight or
        // the MSHRs are exhausted.
        if self.outstanding.contains(line) || self.mshrs_full() {
            StoreAttemptClass::BlockedCounting
        } else {
            StoreAttemptClass::BlockedWouldRequest
        }
    }

    /// Charges `n` skipped idle cycles to the blocked-store retry
    /// counter: the bulk equivalent of `n` consecutive failed
    /// [`PrivateCache::write_line_visible`] attempts in the
    /// [`StoreAttemptClass::BlockedCounting`] state.
    pub fn charge_blocked_store_cycles(&mut self, n: u64) {
        self.stats.l1d_store_misses += n;
    }

    /// Whether the private hierarchy holds write permission for `line`
    /// (M/E in the L1D or the L2) — the CSB flush feasibility test.
    pub fn hierarchy_writable(&self, line: LineAddr) -> bool {
        writable_in(&self.l1d, &self.l2, line)
    }

    /// The coherent copy of a line held by this hierarchy, if any:
    /// `(state, data)` from the L1D when present, else the L2. Intended
    /// for post-run inspection (oracles, final-state extraction).
    pub fn peek_line(&self, line: LineAddr) -> Option<(Mesi, Box<LineData>)> {
        if let Some((s, w)) = self.l1d.lookup(line) {
            let l = self.l1d.way(s, w);
            if !l.unauth && l.state.can_read() {
                return Some((l.state, Box::new(*self.l1d.data(s, w))));
            }
            if l.unauth {
                return None; // not visible to the coherent world
            }
        }
        self.l2.lookup(line).and_then(|(s, w)| {
            let l = self.l2.way(s, w);
            if l.state.can_read() {
                Some((l.state, Box::new(*self.l2.data(s, w))))
            } else {
                None
            }
        })
    }

    // ------------------------------------------------------------------
    // Load path
    // ------------------------------------------------------------------

    /// Issues a demand load. Completion is reported through
    /// [`CacheEvent::LoadDone`] carrying `token` (possibly in the same
    /// call for hits, with the availability cycle in the event).
    pub fn load(&mut self, addr: Addr, size: usize, token: u64, now: Cycle, net: &mut Network) {
        self.stats.loads += 1;
        let line = addr.line();
        let waiter = Waiter {
            token,
            offset: addr.line_offset(),
            size,
        };
        if let Some((set, way)) = self.l1d.lookup(line) {
            let l = self.l1d.way(set, way);
            if l.unauth {
                if l.ready {
                    self.stats.l1d_load_hits += 1;
                    let v = read_value(self.l1d.data(set, way), waiter.offset, waiter.size);
                    self.complete_load(waiter.token, now + self.l1_lat, v);
                } else if self.unauth_forwarding && l.mask.covers(waiter.offset, waiter.size) {
                    // Ablation variant (paper Section IV, "Other
                    // considerations"): the locally written bytes fully
                    // cover the load, so it can forward from the L1D
                    // before permission arrives — reading one's own
                    // store early is always TSO-legal.
                    self.stats.l1d_unauth_forwards += 1;
                    let v = read_value(self.l1d.data(set, way), waiter.offset, waiter.size);
                    self.complete_load(waiter.token, now + self.l1_lat, v);
                } else {
                    self.stats.loads_blocked_unauth += 1;
                    self.park_unauth_waiter(line, waiter);
                }
                self.l1d.touch(set, way);
                return;
            }
            if l.state.can_read() {
                self.stats.l1d_load_hits += 1;
                self.read_touch(line, now);
                let v = read_value(self.l1d.data(set, way), waiter.offset, waiter.size);
                self.l1d.touch(set, way);
                self.complete_load(waiter.token, now + self.l1_lat, v);
                return;
            }
        }
        self.stats.l1d_load_misses += 1;
        if let Some(stream) = &mut self.stream {
            let hints = stream.train(line);
            for h in hints {
                self.prefetch_read(h, now, net);
            }
        }
        if let Some(m) = self.outstanding.get_mut(line) {
            m.waiters.push(waiter);
            m.prefetch = false;
            return;
        }
        if let Some((s2, w2)) = self.l2.lookup(line) {
            if self.l2.way(s2, w2).state.can_read() {
                self.stats.l2_load_hits += 1;
                self.read_touch(line, now);
                self.l2.touch(s2, w2);
                let v = read_value(self.l2.data(s2, w2), waiter.offset, waiter.size);
                self.fill_l1_from_l2(line);
                self.complete_load(waiter.token, now + self.l1_lat + self.l2_rt, v);
                return;
            }
        }
        self.stats.l2_load_misses += 1;
        // Demand loads may oversubscribe the MSHRs (they are effectively
        // reserved entries); only prefetches and store-permission requests
        // honor the cap strictly.
        self.request(line, ReqKind::GetS, false, now, net)
            .waiters
            .push(waiter);
    }

    fn complete_load(&mut self, token: u64, at: Cycle, value: u64) {
        self.events.push(CacheEvent::LoadDone { token, at, value });
    }

    // ------------------------------------------------------------------
    // Prefetch & permission requests
    // ------------------------------------------------------------------

    /// Issues a read prefetch for `line` if it is absent and an MSHR is
    /// free.
    pub fn prefetch_read(&mut self, line: LineAddr, now: Cycle, net: &mut Network) {
        if self.outstanding.contains(line)
            || self.mshrs_full()
            || self.l1d.lookup(line).is_some()
            || self.l2.lookup(line).is_some()
        {
            return;
        }
        self.stats.prefetches += 1;
        self.request(line, ReqKind::GetS, true, now, net);
    }

    /// Ensures write permission for `line` is held or being acquired
    /// (prefetch-at-commit, SPB bursts, baseline store misses). Returns
    /// `true` if permission is already held.
    pub fn ensure_write_permission(
        &mut self,
        line: LineAddr,
        prefetch: bool,
        now: Cycle,
        net: &mut Network,
    ) -> bool {
        if let Some((s, w)) = self.l1d.lookup(line) {
            if self.l1d.way(s, w).state.can_write() {
                return true;
            }
        }
        if let Some((s, w)) = self.l2.lookup(line) {
            if self.l2.way(s, w).state.can_write() {
                return true;
            }
        }
        if self.outstanding.contains(line) || self.mshrs_full() {
            return false;
        }
        if prefetch {
            self.stats.prefetches += 1;
        }
        self.request(line, ReqKind::GetM, prefetch, now, net);
        false
    }

    // ------------------------------------------------------------------
    // Authorized (baseline / CSB / SSB) store paths
    // ------------------------------------------------------------------

    /// Baseline store drain: writes `size` bytes of `value` if write
    /// permission is held, otherwise requests it and reports
    /// [`StoreWriteOutcome::NotYet`].
    pub fn try_visible_store_write(
        &mut self,
        addr: Addr,
        size: usize,
        value: u64,
        now: Cycle,
        net: &mut Network,
    ) -> StoreWriteOutcome {
        let line = addr.line();
        let mut data = [0u8; tus_sim::LINE_BYTES];
        write_value(&mut data, addr.line_offset(), size, value);
        let mask = ByteMask::range(addr.line_offset(), size);
        self.write_line_visible(line, &data, mask, now, net)
    }

    /// Writes masked bytes to a line, requiring write permission (the CSB
    /// flush path; also the building block of the baseline path). One call
    /// is one L1D write access regardless of how many stores coalesced
    /// into the mask. Without permission it counts a store miss and, when
    /// no request is in flight and an MSHR is free, sends a GetM.
    pub fn write_line_visible(
        &mut self,
        line: LineAddr,
        data: &LineData,
        mask: ByteMask,
        now: Cycle,
        net: &mut Network,
    ) -> StoreWriteOutcome {
        match self.store_write_class(line) {
            StoreAttemptClass::WouldComplete => {}
            StoreAttemptClass::BlockedQuiet => return StoreWriteOutcome::NotYet,
            StoreAttemptClass::BlockedCounting => {
                self.stats.l1d_store_misses += 1;
                return StoreWriteOutcome::NotYet;
            }
            StoreAttemptClass::BlockedWouldRequest => {
                self.stats.l1d_store_misses += 1;
                self.request(line, ReqKind::GetM, false, now, net);
                return StoreWriteOutcome::NotYet;
            }
        }
        // Without an L1D copy the L2 one is writable: write-allocate into
        // the L1D and complete the write (the L2 round trip is folded into
        // pipelined store handling).
        let hit = self.l1d.lookup(line).or_else(|| {
            self.fill_l1_from_l2(line);
            self.l1d.lookup(line)
        });
        let Some((set, way)) = hit else {
            // No L1D way could be claimed (fully pinned set): write
            // directly into the L2 copy instead of stalling forever.
            let (s2, w2) = self.l2.lookup(line).expect("writable L2 copy");
            let (l2l, l2d) = self.l2.way_and_data_mut(s2, w2);
            combine(l2d, data, mask);
            l2l.state = Mesi::Modified;
            l2l.dirty = true;
            self.stats.l1d_writes += 1;
            self.store_visible(line, now);
            return StoreWriteOutcome::Done;
        };
        let (l, d) = self.l1d.way_and_data_mut(set, way);
        combine(d, data, mask);
        l.state = Mesi::Modified;
        l.dirty = true;
        self.l1d.touch(set, way);
        self.set_l2_state(line, Mesi::Modified);
        self.stats.l1d_writes += 1;
        self.stats.l1d_store_hits += 1;
        self.store_visible(line, now);
        StoreWriteOutcome::Done
    }

    /// SSB drain: like [`PrivateCache::try_visible_store_write`] but also
    /// writes through to the L2 data array (SSB updates the second-level
    /// cache for each store — its main energy overhead).
    pub fn ssb_store_write(
        &mut self,
        addr: Addr,
        size: usize,
        value: u64,
        now: Cycle,
        net: &mut Network,
    ) -> StoreWriteOutcome {
        let out = self.try_visible_store_write(addr, size, value, now, net);
        if out == StoreWriteOutcome::Done {
            self.stats.ssb_l2_writes += 1;
            let line = addr.line();
            if let (Some((s1, w1)), Some((s2, w2))) = (self.l1d.lookup(line), self.l2.lookup(line))
            {
                let d = *self.l1d.data(s1, w1);
                let (l2l, l2d) = self.l2.way_and_data_mut(s2, w2);
                *l2d = d;
                l2l.dirty = true;
                l2l.state = Mesi::Modified;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // TUS store paths
    // ------------------------------------------------------------------

    /// Classifies the L1D state of `line` for the TUS drain flow (Fig. 7).
    ///
    /// A line with a write-permission request already in flight (e.g.
    /// from prefetch-at-commit) reports as a [`ProbeResult::Miss`]: the
    /// unauthorized write proceeds immediately and the in-flight grant
    /// combines on arrival — this is the paper's "an allocated entry from
    /// the prefetch-at-commit should be found" fast path. Only an
    /// in-flight *read* (GetS) blocks the write.
    pub fn probe(&self, line: LineAddr) -> ProbeResult {
        if let Some((set, way)) = self.l1d.lookup(line) {
            let l = self.l1d.way(set, way);
            if l.locked {
                return ProbeResult::Busy;
            }
            if l.unauth {
                return ProbeResult::HitUnauth {
                    set,
                    way,
                    ready: l.ready,
                };
            }
            return ProbeResult::HitVisible {
                writable: l.state.can_write(),
            };
        }
        if self.outstanding.get(line).is_some_and(|m| m.kind == ReqKind::GetS) {
            return ProbeResult::Busy;
        }
        ProbeResult::Miss {
            ways_free: self.l1d.free_or_evictable_ways(line),
        }
    }

    /// Writes unauthorized data for a line that misses in the L1D:
    /// allocates a way, writes the masked bytes, marks the line *not
    /// visible*, and requests write permission (paper Fig. 7, left path).
    ///
    /// # Errors
    ///
    /// Fails without side effects when no way can be claimed, a request
    /// for the line is already in flight, or MSHRs are exhausted.
    pub fn unauthorized_alloc(
        &mut self,
        line: LineAddr,
        data: &LineData,
        mask: ByteMask,
        now: Cycle,
        net: &mut Network,
    ) -> Result<(usize, usize), UnauthAllocError> {
        // A write-permission request already in flight (prefetch-at-commit
        // or a previous demand) is reused: the grant combines on arrival.
        let getm_in_flight = match self.outstanding.get(line) {
            Some(m) if m.kind == ReqKind::GetM => true,
            Some(_) => return Err(UnauthAllocError::Outstanding),
            None => false,
        };
        if !getm_in_flight && self.mshrs_full() {
            return Err(UnauthAllocError::MshrFull);
        }
        debug_assert!(self.l1d.lookup(line).is_none(), "use the hit paths");
        let Some((set, way)) = self.l1d.victim(line) else {
            return Err(UnauthAllocError::NoWay);
        };
        // The L2 may still hold a coherent copy of the line (the L1D copy
        // was evicted): it supplies the base bytes, and its permission is
        // the hierarchy's permission.
        let l2_copy = self.l2.lookup(line).and_then(|(s2, w2)| {
            let l2l = self.l2.way(s2, w2);
            if l2l.state.can_read() {
                Some((l2l.state, *self.l2.data(s2, w2)))
            } else {
                None
            }
        });
        self.evict_l1_way(set, way);
        self.l1d.install(set, way, line);
        let (l, ld) = self.l1d.way_and_data_mut(set, way);
        l.unauth = true;
        l.mask = mask;
        match l2_copy {
            Some((state, base)) => {
                *ld = base;
                combine(ld, data, mask);
                l.state = state;
                l.base_valid = true;
                l.ready = state.can_write();
            }
            None => {
                l.state = Mesi::Invalid;
                l.ready = false;
                l.base_valid = false;
                *ld = *data;
            }
        }
        let ready = l.ready;
        self.stats.unauth_allocs += 1;
        self.stats.l1d_writes += 1;
        if !getm_in_flight && !ready {
            self.request(line, ReqKind::GetM, false, now, net);
        }
        Ok((set, way))
    }

    /// Writes more unauthorized bytes into an existing unauthorized line
    /// (the store-cycle case — the line's WOQ entry joins an atomic
    /// group; the policy layer handles the group bookkeeping).
    pub fn unauthorized_coalesce(&mut self, set: usize, way: usize, data: &LineData, mask: ByteMask) {
        let (l, ld) = self.l1d.way_and_data_mut(set, way);
        debug_assert!(l.unauth, "coalesce target must be unauthorized");
        combine(ld, data, mask);
        l.mask = l.mask.union(mask);
        self.l1d.touch(set, way);
        self.stats.l1d_writes += 1;
    }

    /// Writes unauthorized data over a *visible* line (paper Fig. 7 right
    /// path): pushes the current authorized copy to the L2 first when
    /// dirty, then overwrites and hides the line. The line is immediately
    /// *ready* when write permission was already held.
    ///
    /// # Errors
    ///
    /// Fails when write permission is absent and no MSHR is free for the
    /// upgrade request.
    pub fn unauth_write_on_visible_hit(
        &mut self,
        line: LineAddr,
        data: &LineData,
        mask: ByteMask,
        now: Cycle,
        net: &mut Network,
    ) -> Result<(usize, usize), UnauthAllocError> {
        let (set, way) = self.l1d.lookup(line).expect("caller probed a visible hit");
        let needs_request = {
            let l = self.l1d.way(set, way);
            debug_assert!(!l.unauth);
            !l.state.can_write() && !self.outstanding.contains(line)
        };
        if needs_request && self.mshrs_full() {
            return Err(UnauthAllocError::MshrFull);
        }
        // Push the authorized dirty copy down to the L2 so a relinquish
        // can always supply the pre-store version.
        let dirty = self.l1d.way(set, way).dirty;
        if dirty {
            let d = *self.l1d.data(set, way);
            let (s2, w2) = self
                .l2
                .lookup(line)
                .expect("inclusive hierarchy: dirty L1D line present in L2");
            let (l2l, l2d) = self.l2.way_and_data_mut(s2, w2);
            *l2d = d;
            l2l.dirty = true;
            self.stats.l2_updates += 1;
        }
        let can_write = self.l1d.way(set, way).state.can_write();
        let (l, ld) = self.l1d.way_and_data_mut(set, way);
        combine(ld, data, mask);
        l.unauth = true;
        l.mask = mask;
        l.base_valid = true;
        l.dirty = false;
        l.ready = can_write;
        self.l1d.touch(set, way);
        self.stats.l1d_writes += 1;
        if needs_request {
            self.request(line, ReqKind::GetM, false, now, net);
        }
        Ok((set, way))
    }

    /// Makes a group of unauthorized lines visible to coherence *at once*
    /// (atomic-group visibility flip — resetting *not visible* bits in
    /// bulk, paper Section IV). Also answers any external requests that
    /// were delayed on these lines. The caller begins the group with
    /// [`PrivateCache::begin_store_group`] on the same lines first.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is not an unauthorized, ready line.
    pub fn make_visible(&mut self, coords: &[(usize, usize)], now: Cycle, net: &mut Network) {
        for &(set, way) in coords {
            let line = self.l1d.line_at(set, way);
            let prev = {
                let l = self.l1d.way_mut(set, way);
                assert!(l.unauth && l.ready, "visibility flip requires ready unauthorized lines");
                let prev = l.state;
                l.unauth = false;
                l.ready = false;
                l.mask = ByteMask::EMPTY;
                l.state = Mesi::Modified;
                l.dirty = true;
                l.base_valid = true;
                prev
            };
            self.trace_mesi(line, prev, Mesi::Modified, now);
            self.store_visible(line, now);
        }
        for &(set, way) in coords {
            // All flips precede all answers (a delayed external on one
            // line must observe the whole group visible); the way's tag
            // is stable, so re-reading it avoids a side list.
            let line = self.l1d.line_at(set, way);
            self.set_l2_state(line, Mesi::Modified);
            // Answer external requests that were explicitly delayed, and
            // also ones still pending a policy decision (the decision was
            // made moot by the visibility flip racing ahead of it).
            let parked = self.delayed_fwd.remove(line).copied();
            let parked = parked.or_else(|| self.pending_fwd.remove(line).copied());
            if let Some(f) = parked {
                self.answer_fwd_visible(line, f, now, net);
            }
        }
    }

    /// Records the policy decision to *delay* the external request that
    /// produced an [`CacheEvent::ExternalConflict`]; it will be answered
    /// when the line becomes visible.
    pub fn delay_external(&mut self, line: LineAddr) {
        let f = *self
            .pending_fwd
            .remove(line)
            .expect("delay_external without a pending external request");
        self.stats.delayed_externals += 1;
        *self.delayed_fwd.insert(line) = f;
    }

    /// Records the policy decision to *relinquish* the unauthorized line:
    /// answers the external request with the old copy held by the private
    /// L2, drops all permission, and keeps the unauthorized bytes + mask
    /// locally for a later retry (paper Fig. 5, steps 7–8).
    pub fn relinquish(&mut self, set: usize, way: usize, now: Cycle, net: &mut Network) {
        let line = self.l1d.line_at(set, way);
        self.pending_fwd
            .remove(line)
            .expect("relinquish without a pending external request");
        let (s2, w2) = self
            .l2
            .lookup(line)
            .expect("relinquish requires the L2 old copy");
        let old = net.alloc_data_copy(self.l2.data(s2, w2));
        self.l2.way_mut(s2, w2).clear();
        let prev = {
            let l = self.l1d.way_mut(set, way);
            let prev = l.state;
            l.state = Mesi::Invalid;
            l.ready = false;
            l.base_valid = false;
            l.dirty = false;
            prev
        };
        self.trace_mesi(line, prev, Mesi::Invalid, now);
        self.stats.relinquishes += 1;
        // Loads that read the (previously combined) line must replay: the
        // remote writer will change the base bytes.
        self.events.push(CacheEvent::Invalidated { line });
        let lease = self.forget_lease(line);
        net.send(
            Node::Core(self.core),
            Node::Dir,
            now,
            Msg::FwdResp {
                core: self.core,
                line,
                data: Some(old),
                relinquished: true,
                lease,
            },
        );
    }

    /// Re-requests write permission for a relinquished line (issued by the
    /// policy layer once the lex order allows it). Returns `false` when no
    /// MSHR is available or a request is already in flight.
    pub fn request_permission(&mut self, line: LineAddr, now: Cycle, net: &mut Network) -> bool {
        if self.outstanding.contains(line) {
            return true;
        }
        if self.mshrs_full() {
            return false;
        }
        self.request(line, ReqKind::GetM, false, now, net);
        true
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Processes one message from the interconnect.
    pub fn handle_msg(&mut self, msg: Msg, now: Cycle, net: &mut Network) {
        match msg {
            Msg::Grant {
                line,
                state,
                data,
                kind,
                prefetch,
                lease,
            } => self.on_grant(line, state, data, kind, prefetch, lease, now, net),
            Msg::Fwd {
                line,
                kind,
                to_owner,
            } => self.dispatch_fwd(line, kind, to_owner, now, net, true),
            other => unreachable!("controller received {other:?}"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_grant(
        &mut self,
        line: LineAddr,
        state: Mesi,
        data: Option<Box<LineData>>,
        kind: ReqKind,
        prefetch: bool,
        lease: Option<Lease>,
        now: Cycle,
        net: &mut Network,
    ) {
        self.mshr_close_into_scratch(line);
        // Tardis staleness gate: a read grant whose lease already ended
        // before this core's clock must not bind — a write the reader is
        // ordered after could carry `wts <= pts` without being in this
        // data. Re-issue the GetS with the current `pts` (the home will
        // extend the lease past it); the merged demand waiters stay
        // parked on the fresh MSHR. Write grants are exempt: the owner
        // may read its own modified copy at any clock.
        let stale = lease.is_some_and(|l| self.clock.as_ref().is_some_and(|c| c.stale(l)));
        if kind == ReqKind::GetS && stale {
            if let Some(d) = data {
                net.recycle_data(d);
            }
            if prefetch && self.waiter_scratch.is_empty() {
                // A stale prefetch is simply dropped.
                return;
            }
            let ws = std::mem::take(&mut self.waiter_scratch);
            let m = self.request(line, ReqKind::GetS, prefetch, now, net);
            self.waiter_scratch = std::mem::replace(&mut m.waiters, ws);
            return;
        }
        if let (Some(clock), Some(l)) = (&mut self.clock, lease) {
            clock.record(line, l);
        }
        let prev = self
            .l1d
            .lookup(line)
            .map(|(s, w)| self.l1d.way(s, w).state)
            .unwrap_or(Mesi::Invalid);
        self.trace_mesi(line, prev, state, now);
        // Unauthorized combine path?
        if let Some((set, way)) = self.l1d.lookup(line) {
            if self.l1d.way(set, way).unauth {
                debug_assert!(state.can_write(), "unauthorized lines request GetM");
                match &data {
                    Some(base) => {
                        let (l, ld) = self.l1d.way_and_data_mut(set, way);
                        let mut merged = **base;
                        combine(&mut merged, ld, l.mask);
                        *ld = merged;
                        l.state = state;
                        l.ready = true;
                        l.base_valid = true;
                        l.granted_at = now;
                        // The L2 keeps the *unmodified* copy for relinquish.
                        self.fill_l2(line, base, state, false, now, net);
                    }
                    None => {
                        let l = self.l1d.way_mut(set, way);
                        debug_assert!(
                            l.base_valid,
                            "permission-only grant requires a valid base copy"
                        );
                        l.state = state;
                        l.ready = true;
                        l.base_valid = true;
                        l.granted_at = now;
                        self.set_l2_state(line, state);
                    }
                }
                if let Some(b) = data {
                    net.recycle_data(b);
                }
                // Demand loads that merged into this request before the
                // unauthorized write happened are program-order-*older*
                // than the store (younger loads are captured by SB/WCB/
                // unauthorized-line forwarding at issue): they must read
                // the PRE-store copy, which the L2 now holds.
                self.read_touch(line, now);
                let ws = std::mem::take(&mut self.waiter_scratch);
                for w in &ws {
                    let v = self
                        .l2
                        .lookup(line)
                        .map(|(s2, w2)| read_value(self.l2.data(s2, w2), w.offset, w.size))
                        .unwrap_or(0);
                    self.complete_load(w.token, now + self.l1_lat, v);
                }
                self.waiter_scratch = ws;
                self.events.push(CacheEvent::PermissionReady { line, set, way });
                self.wake_unauth_waiters(line, set, way, now);
                return;
            }
        }
        // Normal fill path.
        match data {
            Some(d) => {
                self.fill_l2(line, &d, state, false, now, net);
                if let Some((s1, w1)) = self.l1d.lookup(line) {
                    // The line was still present locally (e.g. an S copy
                    // upgrading through a full-data grant): refresh state
                    // and data in place to keep L1D and L2 consistent.
                    let (l, ld) = self.l1d.way_and_data_mut(s1, w1);
                    if !l.unauth {
                        l.state = state;
                        *ld = *d;
                        l.dirty = false;
                    }
                    l.granted_at = now;
                } else {
                    self.fill_l1_from_l2(line);
                    if let Some((s1, w1)) = self.l1d.lookup(line) {
                        self.l1d.way_mut(s1, w1).granted_at = now;
                    }
                }
                net.recycle_data(d);
            }
            None => {
                // Permission-only upgrade: local copies become writable.
                self.set_l2_state(line, state);
                if let Some((s, w)) = self.l1d.lookup(line) {
                    let l = self.l1d.way_mut(s, w);
                    l.state = state;
                    l.granted_at = now;
                }
            }
        }
        if !self.waiter_scratch.is_empty() {
            self.read_touch(line, now);
        }
        let ws = std::mem::take(&mut self.waiter_scratch);
        for w in &ws {
            let v = self.read_local(line, w.offset, w.size);
            self.complete_load(w.token, now + self.l1_lat, v);
        }
        self.waiter_scratch = ws;
    }

    fn park_unauth_waiter(&mut self, line: LineAddr, w: Waiter) {
        match self.unauth_waiters.get_mut(line) {
            Some(ws) => ws.push(w),
            None => self.unauth_waiters.insert(line).push(w),
        }
    }

    fn wake_unauth_waiters(&mut self, line: LineAddr, set: usize, way: usize, now: Cycle) {
        let Some(parked) = self.unauth_waiters.remove(line) else {
            return;
        };
        take_waiters(parked, &mut self.waiter_scratch);
        let ws = std::mem::take(&mut self.waiter_scratch);
        for w in &ws {
            let v = read_value(self.l1d.data(set, way), w.offset, w.size);
            self.complete_load(w.token, now + self.l1_lat, v);
        }
        self.waiter_scratch = ws;
    }

    fn read_local(&self, line: LineAddr, offset: usize, size: usize) -> u64 {
        if let Some((s, w)) = self.l1d.lookup(line) {
            return read_value(self.l1d.data(s, w), offset, size);
        }
        if let Some((s, w)) = self.l2.lookup(line) {
            return read_value(self.l2.data(s, w), offset, size);
        }
        0
    }

    // ------------------------------------------------------------------
    // Tardis clock hooks (`backend::tardis::Clock`; under MESI each is
    // one `Option` check)
    // ------------------------------------------------------------------

    /// A read of `line` moves the Tardis clock to the line's `wts`.
    #[inline]
    fn read_touch(&mut self, line: LineAddr, now: Cycle) {
        if let Some(clock) = &self.clock {
            self.advance_pts(clock.read_floor(line), now);
        }
    }

    /// A store to `line` became visible to coherence, on any path. The
    /// TUS × Tardis visibility rule — the unauthorized-line/lease
    /// interaction this backend exists to study: the store may not land
    /// at a logical time covered by any read lease the line must respect,
    /// so the clock jumps past the line's `rts` and the line is restamped
    /// at the new `pts`.
    fn store_visible(&mut self, line: LineAddr, now: Cycle) {
        let Some(clock) = &self.clock else { return };
        self.advance_pts(clock.store_floor([line]), now);
        if let Some(clock) = &mut self.clock {
            clock.stamp(line);
        }
    }

    /// Begins making a group of stores to `lines` visible: under Tardis
    /// the clock jumps past every member line's read lease before any
    /// member is written (`Clock::store_floor`), so no member lands
    /// inside a lease that predates the group. The coalescing drains call
    /// it before writing a group: CSB before a WCB flush, TUS before a
    /// visibility flip.
    pub fn begin_store_group(&mut self, lines: impl IntoIterator<Item = LineAddr>, now: Cycle) {
        if let Some(clock) = &self.clock {
            self.advance_pts(clock.store_floor(lines), now);
        }
    }

    /// Advances the Tardis clock to `to` and drops every copy whose lease
    /// lapsed ([`Clock::advance`]).
    fn advance_pts(&mut self, to: u64, now: Cycle) {
        let Some(clock) = &mut self.clock else { return };
        let (l1d, l2) = (&self.l1d, &self.l2);
        let Some(lapsed) = clock.advance(to, |line| writable_in(l1d, l2, line)) else {
            return;
        };
        for &line in &lapsed {
            self.self_downgrade(line, now);
        }
        if let Some(clock) = &mut self.clock {
            clock.recycle(lapsed);
        }
    }

    /// Drops a copy whose lease lapsed and which the hierarchy cannot
    /// write, emitting [`CacheEvent::Invalidated`] so speculatively bound
    /// loads replay. Semantically a silent PutS: the home tracks no
    /// sharers, so no message is sent. Exempt are unauthorized or locked
    /// lines (woven into the TUS machinery) and lines mid-upgrade (an MSHR
    /// in flight will refresh the lease on grant).
    fn self_downgrade(&mut self, line: LineAddr, now: Cycle) {
        let unauth_or_locked = self.l1d.lookup(line).is_some_and(|(s, w)| {
            let l = self.l1d.way(s, w);
            l.unauth || l.locked
        });
        if unauth_or_locked || self.outstanding.contains(line) {
            return;
        }
        let mut held = false;
        if let Some((s, w)) = self.l1d.lookup(line) {
            let prev = self.l1d.way(s, w).state;
            self.trace_mesi(line, prev, Mesi::Invalid, now);
            self.l1d.way_mut(s, w).clear();
            held = true;
        }
        if let Some((s, w)) = self.l2.lookup(line) {
            self.l2.way_mut(s, w).clear();
            held = true;
        }
        self.forget_lease(line);
        if held {
            self.events.push(CacheEvent::Invalidated { line });
        }
    }

    /// Stops tracking `line`'s lease, returning it for the home.
    fn forget_lease(&mut self, line: LineAddr) -> Option<Lease> {
        self.clock.as_mut().and_then(|c| c.forget(line))
    }

    /// Grant-hold window in cycles: an external request arriving within
    /// this many cycles of the line's grant is deferred so the local
    /// drain performs at least one write per acquisition (prevents
    /// write-permission livelock under heavy contention).
    const GRANT_HOLD: u64 = 8;

    fn dispatch_fwd(
        &mut self,
        line: LineAddr,
        kind: FwdKind,
        to_owner: bool,
        now: Cycle,
        net: &mut Network,
        fresh: bool,
    ) {
        if fresh {
            if let Some((s, w)) = self.l1d.lookup(line) {
                let granted = self.l1d.way(s, w).granted_at;
                let hold_until = granted + Self::GRANT_HOLD;
                if granted > Cycle::ZERO && now < hold_until {
                    self.deferred_fwd.push(hold_until, (line, kind, to_owner));
                    return;
                }
            }
        }
        self.on_fwd(line, kind, to_owner, now, net);
    }

    fn on_fwd(&mut self, line: LineAddr, kind: FwdKind, to_owner: bool, now: Cycle, net: &mut Network) {
        self.stats.invs_received += 1;
        if let Some((set, way)) = self.l1d.lookup(line) {
            let (unauth, writable) = {
                let l = self.l1d.way(set, way);
                (l.unauth, l.state.can_write())
            };
            if unauth {
                if writable {
                    // The TUS conflict case: consult the authorization unit.
                    *self.pending_fwd.insert(line) = PendingFwd { kind, to_owner };
                    self.events.push(CacheEvent::ExternalConflict { line, set, way });
                    return;
                }
                // Unauthorized over a shared (or already lost) base copy:
                // surrender the base, keep the unauthorized bytes.
                let l = self.l1d.way_mut(set, way);
                l.state = Mesi::Invalid;
                l.base_valid = false;
                l.ready = false;
                if let Some((s2, w2)) = self.l2.lookup(line) {
                    self.l2.way_mut(s2, w2).clear();
                }
                self.events.push(CacheEvent::Invalidated { line });
                self.respond_fwd(line, None, to_owner, now, net);
                self.forget_lease(line);
                return;
            }
        }
        self.answer_fwd_visible(line, PendingFwd { kind, to_owner }, now, net);
    }

    /// Answers a forward targeting a visible (or absent) line.
    fn answer_fwd_visible(&mut self, line: LineAddr, f: PendingFwd, now: Cycle, net: &mut Network) {
        let l1 = self.l1d.lookup(line);
        let l2 = self.l2.lookup(line);
        // Newest data wins: a dirty L1D copy over the L2 copy.
        let data: Option<Box<LineData>> = match (l1, l2) {
            (Some((s, w)), _) if self.l1d.way(s, w).state.can_read() => {
                Some(net.alloc_data_copy(self.l1d.data(s, w)))
            }
            (_, Some((s, w))) if self.l2.way(s, w).state.can_read() => {
                Some(net.alloc_data_copy(self.l2.data(s, w)))
            }
            _ => None,
        };
        if let Some((s, w)) = l1 {
            let prev = self.l1d.way(s, w).state;
            let to = match f.kind {
                FwdKind::Inv => Mesi::Invalid,
                FwdKind::Downgrade => Mesi::Shared,
            };
            self.trace_mesi(line, prev, to, now);
        }
        match f.kind {
            FwdKind::Inv => {
                if let Some((s, w)) = l1 {
                    self.l1d.way_mut(s, w).clear();
                }
                if let Some((s, w)) = l2 {
                    self.l2.way_mut(s, w).clear();
                }
                if l1.is_some() || l2.is_some() {
                    self.events.push(CacheEvent::Invalidated { line });
                }
                self.respond_fwd(line, data, f.to_owner, now, net);
                self.forget_lease(line);
            }
            FwdKind::Downgrade => {
                if let Some((s, w)) = l1 {
                    let l = self.l1d.way_mut(s, w);
                    l.state = Mesi::Shared;
                    l.dirty = false;
                }
                if let Some((s, w)) = l2 {
                    let l = self.l2.way_mut(s, w);
                    l.state = Mesi::Shared;
                    l.dirty = false;
                }
                self.respond_fwd(line, data, f.to_owner, now, net);
            }
        }
    }

    fn respond_fwd(
        &mut self,
        line: LineAddr,
        data: Option<Box<LineData>>,
        to_owner: bool,
        now: Cycle,
        net: &mut Network,
    ) {
        let msg = if to_owner {
            Msg::FwdResp {
                core: self.core,
                line,
                data,
                relinquished: false,
                lease: self.clock.as_ref().and_then(|c| c.lease(line)),
            }
        } else {
            Msg::InvAck {
                core: self.core,
                line,
            }
        };
        net.send(Node::Core(self.core), Node::Dir, now, msg);
    }

    // ------------------------------------------------------------------
    // Fills and evictions
    // ------------------------------------------------------------------

    fn set_l2_state(&mut self, line: LineAddr, state: Mesi) {
        if let Some((s, w)) = self.l2.lookup(line) {
            self.l2.way_mut(s, w).state = state;
        }
    }

    /// Copies a line from the L2 into the L1D if a way can be claimed
    /// (victims are written back into the L2).
    fn fill_l1_from_l2(&mut self, line: LineAddr) {
        if self.l1d.lookup(line).is_some() {
            return;
        }
        let Some((s2, w2)) = self.l2.lookup(line) else {
            return;
        };
        let (data, state) = (*self.l2.data(s2, w2), self.l2.way(s2, w2).state);
        let Some((set, way)) = self.l1d.victim(line) else {
            return; // Served without allocating; no retry needed.
        };
        self.evict_l1_way(set, way);
        self.l1d.install(set, way, line);
        let (l, ld) = self.l1d.way_and_data_mut(set, way);
        l.state = state;
        *ld = data;
    }

    /// Writes an L1D victim back into the L2 (inclusive hierarchy) and
    /// clears the way. No-op for empty ways.
    fn evict_l1_way(&mut self, set: usize, way: usize) {
        let (occupied, dirty, line) = {
            let l = self.l1d.way(set, way);
            (l.occupied(), l.dirty, self.l1d.line_at(set, way))
        };
        if !occupied {
            return;
        }
        debug_assert!(self.l1d.way(set, way).evictable(), "evicting a pinned way");
        if dirty {
            let data = *self.l1d.data(set, way);
            let (s2, w2) = self
                .l2
                .lookup(line)
                .expect("inclusive hierarchy: L1D victim present in L2");
            let (l2l, l2d) = self.l2.way_and_data_mut(s2, w2);
            *l2d = data;
            l2l.dirty = true;
            l2l.state = Mesi::Modified;
        }
        self.l1d.clear_way(set, way);
    }

    /// Installs a line into the L2, evicting as needed (an L2 victim whose
    /// L1D copy is unauthorized is never chosen — the NACK-refresh rule).
    fn fill_l2(
        &mut self,
        line: LineAddr,
        data: &LineData,
        state: Mesi,
        dirty: bool,
        now: Cycle,
        net: &mut Network,
    ) {
        if let Some((s, w)) = self.l2.lookup(line) {
            let (l, ld) = self.l2.way_and_data_mut(s, w);
            *ld = *data;
            l.state = state;
            l.dirty = dirty;
            self.l2.touch(s, w);
            return;
        }
        let set = self.l2.set_of(line);
        // Victim selection honoring the L1D pin: skip ways whose L1D copy
        // is not evictable.
        let mut victim: Option<(usize, u64)> = None;
        let mut empty: Option<usize> = None;
        for w in 0..self.l2.ways() {
            let l = self.l2.way(set, w);
            if !l.occupied() {
                empty = Some(w);
                break;
            }
            let pinned = self
                .l1d
                .lookup(self.l2.line_at(set, w))
                .is_some_and(|(s1, w1)| !self.l1d.way(s1, w1).evictable());
            if pinned {
                continue;
            }
            let stamp = self.l2.lru_stamp(set, w);
            if victim.is_none_or(|(_, lru)| stamp < lru) {
                victim = Some((w, stamp));
            }
        }
        let w = match (empty, victim) {
            (Some(w), _) => w,
            (None, Some((w, _))) => {
                self.evict_l2_way(set, w, now, net);
                w
            }
            (None, None) => {
                unreachable!(
                    "L2 set fully pinned by unauthorized L1D lines; the lex \
                     sub-address and group-size rules prevent this"
                )
            }
        };
        self.l2.install(set, w, line);
        let (l, ld) = self.l2.way_and_data_mut(set, w);
        l.state = state;
        l.dirty = dirty;
        *ld = *data;
    }

    /// Invalidates the L1D copy (merging dirty data), notifies the
    /// directory, and clears the L2 way.
    fn evict_l2_way(&mut self, set: usize, way: usize, now: Cycle, net: &mut Network) {
        let line = self.l2.line_at(set, way);
        let (mut data, mut dirty, state) = {
            let l = self.l2.way(set, way);
            (*self.l2.data(set, way), l.dirty, l.state)
        };
        if let Some((s1, w1)) = self.l1d.lookup(line) {
            let l1 = self.l1d.way(s1, w1);
            debug_assert!(l1.evictable(), "pinned line chosen as L2 victim");
            if l1.dirty {
                data = *self.l1d.data(s1, w1);
                dirty = true;
            }
            self.l1d.clear_way(s1, w1);
        }
        self.l2.clear_way(set, way);
        let lease = self.forget_lease(line);
        if state != Mesi::Invalid {
            self.stats.l2_evictions += 1;
            let payload = if dirty {
                Some(net.alloc_data_copy(&data))
            } else {
                None
            };
            net.send(
                Node::Core(self.core),
                Node::Dir,
                now,
                Msg::Evict {
                    core: self.core,
                    line,
                    data: payload,
                    lease,
                },
            );
        }
    }

    /// Exports per-core memory statistics.
    pub fn export_stats(&self) -> StatSet {
        let s = &self.stats;
        let mut out = StatSet::new();
        out.set("loads", s.loads as f64);
        out.set(names::L1D_LOAD_HITS, s.l1d_load_hits as f64);
        out.set(names::L1D_LOAD_MISSES, s.l1d_load_misses as f64);
        out.set("l2_load_hits", s.l2_load_hits as f64);
        out.set("l2_load_misses", s.l2_load_misses as f64);
        out.set("loads_blocked_unauth", s.loads_blocked_unauth as f64);
        out.set("l1d_unauth_forwards", s.l1d_unauth_forwards as f64);
        out.set(names::L1D_WRITES, s.l1d_writes as f64);
        out.set("l1d_store_hits", s.l1d_store_hits as f64);
        out.set("l1d_store_misses", s.l1d_store_misses as f64);
        out.set("l2_updates", s.l2_updates as f64);
        out.set("ssb_l2_writes", s.ssb_l2_writes as f64);
        out.set("unauth_allocs", s.unauth_allocs as f64);
        out.set("relinquishes", s.relinquishes as f64);
        out.set("delayed_externals", s.delayed_externals as f64);
        out.set("prefetches", s.prefetches as f64);
        out.set("invs_received", s.invs_received as f64);
        out.set("l2_evictions", s.l2_evictions as f64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::MemorySystem;
    use tus_sim::{CoherenceKind, SimConfig, SimRng};

    fn sys(cores: usize) -> MemorySystem {
        sys_on(cores, CoherenceKind::Mesi)
    }

    fn sys_on(cores: usize, coherence: CoherenceKind) -> MemorySystem {
        let cfg = SimConfig::builder()
            .cores(cores)
            .scale_caches_down(64)
            .coherence(coherence)
            .build();
        MemorySystem::new(&cfg, &mut SimRng::seed(7))
    }

    /// Installs `line` in `arr` in `state`, bypassing the protocol.
    fn put(arr: &mut CacheArray, line: LineAddr, state: Mesi) -> (usize, usize) {
        let (s, w) = arr.victim(line).expect("room");
        arr.install(s, w, line);
        arr.way_mut(s, w).state = state;
        (s, w)
    }

    fn settle(s: &mut MemorySystem, from: u64, budget: u64) -> u64 {
        for t in from..from + budget {
            s.tick(Cycle::new(t));
            if s.quiesced() {
                return t + 1;
            }
        }
        panic!("memory system did not settle");
    }

    fn full_mask() -> ByteMask {
        ByteMask::FULL
    }

    fn line_data(b: u8) -> LineData {
        [b; tus_sim::LINE_BYTES]
    }

    #[test]
    fn unauthorized_alloc_combines_on_grant() {
        let mut s = sys(1);
        let line = LineAddr::new(0x400);
        // Pre-set memory so the combine has a visible base.
        let mut base = line_data(0xBB);
        base[0] = 0x01;
        s.memory.write(line, &base);
        let mask = ByteMask::range(8, 8);
        let mut data = line_data(0);
        data[8..16].copy_from_slice(&[0xEE; 8]);
        let (set, way) = s.ctrls[0]
            .unauthorized_alloc(line, &data, mask, Cycle::ZERO, &mut s.net)
            .expect("allocates");
        assert_eq!(
            s.ctrls[0].line_state(line),
            Some((Mesi::Invalid, true, false))
        );
        let t = settle(&mut s, 0, 5_000);
        // Permission arrived: ready, combined, PermissionReady emitted.
        let evs = s.ctrls[0].take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, CacheEvent::PermissionReady { .. })));
        let (st, unauth, ready) = s.ctrls[0].line_state(line).expect("present");
        assert!(st.can_write() && unauth && ready);
        // Combined data: written bytes win, base bytes preserved.
        let probe = s.ctrls[0].probe(line);
        let (pset, pway) = match probe {
            ProbeResult::HitUnauth { set, way, .. } => (set, way),
            other => panic!("expected unauth hit, got {other:?}"),
        };
        assert_eq!((pset, pway), (set, way));
        // Make it visible and check the coherent view.
        s.ctrls[0].make_visible(&[(set, way)], Cycle::new(t), &mut s.net);
        let (st, unauth, _) = s.ctrls[0].line_state(line).expect("present");
        assert_eq!(st, Mesi::Modified);
        assert!(!unauth);
        let (_, d) = s.ctrls[0].peek_line(line).expect("coherent now");
        assert_eq!(d[0], 0x01, "base byte preserved");
        assert_eq!(d[8], 0xEE, "written byte combined");
    }

    #[test]
    fn unauthorized_line_never_evicted() {
        let mut s = sys(1);
        let cfg_ways = s.ctrls[0].l1d.ways();
        let line = LineAddr::new(0x100);
        s.ctrls[0]
            .unauthorized_alloc(line, &line_data(1), full_mask(), Cycle::ZERO, &mut s.net)
            .expect("allocates");
        let set = s.ctrls[0].l1d_set_of(line);
        // Fill the rest of the set with visible lines; the unauth way must
        // survive every eviction.
        let sets = s.ctrls[0].l1d.sets() as u64;
        for i in 1..(cfg_ways as u64 * 3) {
            let other = LineAddr::new(line.raw() + i * sets);
            assert_eq!(s.ctrls[0].l1d_set_of(other), set);
            let mut t = 10 * i;
            loop {
                s.tick(Cycle::new(t));
                let (ctrl, net) = (&mut s.ctrls[0], &mut s.net);
                if ctrl.try_visible_store_write(other.base_addr(), 8, i, Cycle::new(t), net)
                    == StoreWriteOutcome::Done
                {
                    break;
                }
                t += 1;
                assert!(t < 10 * i + 5_000, "store write stuck");
            }
        }
        let (_, unauth, _) = s.ctrls[0].line_state(line).expect("still present");
        assert!(unauth, "unauthorized line was evicted");
    }

    #[test]
    fn external_conflict_event_and_delay_path() {
        let mut s = sys(2);
        let line = LineAddr::new(0x880);
        // Core 0 writes unauthorized and acquires permission.
        let (set, way) = s.ctrls[0]
            .unauthorized_alloc(line, &line_data(7), full_mask(), Cycle::ZERO, &mut s.net)
            .expect("allocates");
        let t = settle(&mut s, 0, 5_000);
        s.ctrls[0].take_events();
        // Core 1 wants the line.
        {
            let (ctrl, net) = (&mut s.ctrls[1], &mut s.net);
            ctrl.load(line.base_addr(), 8, 42, Cycle::new(t), net);
        }
        // Run until core 0 sees the conflict.
        let mut conflict_at = None;
        for tt in t..t + 5_000 {
            s.tick(Cycle::new(tt));
            let evs = s.ctrls[0].take_events();
            if evs
                .iter()
                .any(|e| matches!(e, CacheEvent::ExternalConflict { .. }))
            {
                conflict_at = Some(tt);
                break;
            }
        }
        let tt = conflict_at.expect("conflict event delivered");
        // Policy decision: delay. The requester is answered at visibility.
        s.ctrls[0].delay_external(line);
        s.ctrls[0].make_visible(&[(set, way)], Cycle::new(tt), &mut s.net);
        let mut done = false;
        for t3 in tt..tt + 5_000 {
            s.tick(Cycle::new(t3));
            for e in s.ctrls[1].take_events() {
                if let CacheEvent::LoadDone { token: 42, value, .. } = e {
                    assert_eq!(value, u64::from_le_bytes([7; 8]));
                    done = true;
                }
            }
            if done {
                break;
            }
        }
        assert!(done, "delayed request never answered");
        assert_eq!(s.ctrls[0].stats.delayed_externals, 1);
    }

    #[test]
    fn relinquish_supplies_old_copy_and_rerequest_combines() {
        let mut s = sys(2);
        let line = LineAddr::new(0xCC0);
        // Establish a base value in memory via core 1.
        let mut t = 0;
        loop {
            s.tick(Cycle::new(t));
            let (ctrl, net) = (&mut s.ctrls[1], &mut s.net);
            if ctrl.try_visible_store_write(line.base_addr(), 8, 0x1111, Cycle::new(t), net)
                == StoreWriteOutcome::Done
            {
                break;
            }
            t += 1;
            assert!(t < 10_000);
        }
        let t = settle(&mut s, t, 10_000);
        // Core 0 writes byte 32..40 unauthorized and acquires M.
        let mask = ByteMask::range(32, 8);
        let mut data = line_data(0);
        data[32..40].copy_from_slice(&0x2222u64.to_le_bytes());
        let (set, way) = s.ctrls[0]
            .unauthorized_alloc(line, &data, mask, Cycle::new(t), &mut s.net)
            .expect("allocates");
        let t = settle(&mut s, t, 10_000);
        s.ctrls[0].take_events();
        // Core 1 requests write permission; core 0 relinquishes.
        {
            let (ctrl, net) = (&mut s.ctrls[1], &mut s.net);
            ctrl.ensure_write_permission(line, false, Cycle::new(t), net);
        }
        let mut tt = t;
        'outer: for t2 in t..t + 10_000 {
            s.tick(Cycle::new(t2));
            for e in s.ctrls[0].take_events() {
                if matches!(e, CacheEvent::ExternalConflict { .. }) {
                    s.ctrls[0].relinquish(set, way, Cycle::new(t2), &mut s.net);
                    tt = t2;
                    break 'outer;
                }
            }
        }
        let tt = settle(&mut s, tt, 10_000);
        // Core 1 got the line with the OLD data (0x1111 at offset 0).
        let (st1, _, _) = s.ctrls[1].line_state(line).expect("granted");
        assert!(st1.can_write());
        let (_, d1) = s.ctrls[1].peek_line(line).expect("readable");
        assert_eq!(u64::from_le_bytes(d1[0..8].try_into().expect("8")), 0x1111);
        assert_eq!(d1[32], 0, "core 0's unauthorized bytes must not leak");
        // Core 0 still holds its unauthorized bytes, not ready.
        let (st0, unauth0, ready0) = s.ctrls[0].line_state(line).expect("kept");
        assert_eq!(st0, Mesi::Invalid);
        assert!(unauth0 && !ready0);
        // Re-request: core 0 combines over core 1's (unchanged) data.
        assert!(s.ctrls[0].request_permission(line, Cycle::new(tt), &mut s.net));
        let _ = settle(&mut s, tt, 10_000);
        let (_, _, ready0) = s.ctrls[0].line_state(line).expect("kept");
        assert!(ready0, "re-request must complete the combine");
    }

    #[test]
    fn ssb_write_updates_l2_counters() {
        let mut s = sys(1);
        let a = Addr::new(0x3000);
        let mut t = 0;
        loop {
            s.tick(Cycle::new(t));
            let (ctrl, net) = (&mut s.ctrls[0], &mut s.net);
            if ctrl.ssb_store_write(a, 8, 5, Cycle::new(t), net) == StoreWriteOutcome::Done {
                break;
            }
            t += 1;
            assert!(t < 10_000);
        }
        assert_eq!(s.ctrls[0].stats.ssb_l2_writes, 1);
    }

    #[test]
    fn probe_classifies_states() {
        let mut s = sys(1);
        let line = LineAddr::new(0x40);
        assert!(matches!(s.ctrls[0].probe(line), ProbeResult::Miss { .. }));
        s.ctrls[0]
            .unauthorized_alloc(line, &line_data(3), full_mask(), Cycle::ZERO, &mut s.net)
            .expect("allocates");
        assert!(matches!(
            s.ctrls[0].probe(line),
            ProbeResult::HitUnauth { ready: false, .. }
        ));
        let t = settle(&mut s, 0, 5_000);
        assert!(matches!(
            s.ctrls[0].probe(line),
            ProbeResult::HitUnauth { ready: true, .. }
        ));
        let (set, way) = match s.ctrls[0].probe(line) {
            ProbeResult::HitUnauth { set, way, .. } => (set, way),
            _ => unreachable!(),
        };
        s.ctrls[0].make_visible(&[(set, way)], Cycle::new(t), &mut s.net);
        assert!(matches!(
            s.ctrls[0].probe(line),
            ProbeResult::HitVisible { writable: true }
        ));
    }

    /// One `pts` advance past four lapsed leases: the plain shared copy is
    /// dropped with exactly one `Invalidated` event, the owned copy's
    /// `rts` is refreshed to the new `pts`, and the unauthorized line and
    /// the line with an MSHR in flight are kept with their leases.
    #[test]
    fn pts_advance_expires_only_plain_shared_copies() {
        let mut s = sys_on(1, CoherenceKind::Tardis);
        let (c, net) = (&mut s.ctrls[0], &mut s.net);
        let [shared, owned, unauth, upgrading] = [0x10, 0x11, 0x12, 0x13].map(LineAddr::new);
        let stale = Lease { wts: 1, rts: 5 };
        for (line, state) in [
            (shared, Mesi::Shared),
            (owned, Mesi::Modified),
            (unauth, Mesi::Invalid),
            (upgrading, Mesi::Shared),
        ] {
            if state != Mesi::Invalid {
                put(&mut c.l2, line, state);
            }
            let (s, w) = put(&mut c.l1d, line, state);
            c.l1d.way_mut(s, w).unauth = line == unauth;
            c.clock.as_mut().expect("tardis").record(line, stale);
        }
        c.request(upgrading, ReqKind::GetM, false, Cycle::ZERO, net);

        c.advance_pts(10, Cycle::ZERO);

        let evs = c.take_events();
        assert!(
            matches!(evs[..], [CacheEvent::Invalidated { line }] if line == shared),
            "{evs:?}"
        );
        assert!(c.l1d.lookup(shared).is_none() && c.l2.lookup(shared).is_none());
        let clock = c.clock.as_ref().expect("tardis");
        assert_eq!(clock.pts(), 10);
        assert_eq!(clock.lease(shared), None);
        assert_eq!(clock.lease(owned), Some(Lease { wts: 1, rts: 10 }));
        assert_eq!(c.line_state(owned), Some((Mesi::Modified, false, false)));
        assert_eq!(c.line_state(unauth), Some((Mesi::Invalid, true, false)));
        assert_eq!(clock.lease(unauth), Some(stale));
        assert_eq!(c.line_state(upgrading), Some((Mesi::Shared, false, false)));
        assert_eq!(clock.lease(upgrading), Some(stale));
        assert!(c.request_in_flight(upgrading));
    }

    /// The group rule: two unauthorized member lines leased to `rts` 5
    /// and 9 on a core at `pts` 0 both become visible at `pts` 10,
    /// restamped `(10, 10)`; clearing each line's own lease alone would
    /// put the first at 6. (With no L2 copy the hierarchy cannot write
    /// the members, so the group's advance leaves their leases as they
    /// are.)
    #[test]
    fn store_group_clears_every_member_lease_first() {
        let mut s = sys_on(1, CoherenceKind::Tardis);
        let (c, net) = (&mut s.ctrls[0], &mut s.net);
        let [a, b] = [0x20, 0x21].map(LineAddr::new);
        let mut coords = Vec::new();
        for (line, rts) in [(a, 5), (b, 9)] {
            let (set, way) = put(&mut c.l1d, line, Mesi::Modified);
            let l = c.l1d.way_mut(set, way);
            l.unauth = true;
            l.ready = true;
            c.clock.as_mut().expect("tardis").record(line, Lease { wts: 1, rts });
            coords.push((set, way));
        }

        c.begin_store_group([a, b], Cycle::ZERO);
        c.make_visible(&coords, Cycle::ZERO, net);

        let clock = c.clock.as_ref().expect("tardis");
        assert_eq!(clock.pts(), 10);
        for line in [a, b] {
            assert_eq!(clock.lease(line), Some(Lease { wts: 10, rts: 10 }));
            assert_eq!(c.line_state(line), Some((Mesi::Modified, false, false)));
        }
    }

    /// `write_line_visible` in every hierarchy state its class names:
    /// `WouldComplete` completes; `BlockedWouldRequest` opens one MSHR;
    /// `BlockedCounting` only counts a store miss; `BlockedQuiet` moves
    /// no counter.
    #[test]
    fn store_write_class_predicts_write_line_visible() {
        use StoreAttemptClass::*;
        let line = LineAddr::new(0x40);
        type Setup = fn(&mut PrivateCache, &mut Network, LineAddr);
        let cases: [(&str, Setup, StoreAttemptClass); 10] = [
            (
                "L1 M",
                |c, _, line| {
                    put(&mut c.l2, line, Mesi::Modified);
                    put(&mut c.l1d, line, Mesi::Modified);
                },
                WouldComplete,
            ),
            (
                "L1 E",
                |c, _, line| {
                    put(&mut c.l2, line, Mesi::Exclusive);
                    put(&mut c.l1d, line, Mesi::Exclusive);
                },
                WouldComplete,
            ),
            (
                "L1 S, L2 M",
                |c, _, line| {
                    put(&mut c.l2, line, Mesi::Modified);
                    put(&mut c.l1d, line, Mesi::Shared);
                },
                WouldComplete,
            ),
            (
                "L1 S, L2 S",
                |c, _, line| {
                    put(&mut c.l2, line, Mesi::Shared);
                    put(&mut c.l1d, line, Mesi::Shared);
                },
                BlockedWouldRequest,
            ),
            (
                "L1 unauthorized",
                |c, net, line| {
                    let d = line_data(1);
                    c.unauthorized_alloc(line, &d, full_mask(), Cycle::ZERO, net)
                        .expect("allocates");
                },
                BlockedQuiet,
            ),
            (
                "L2-only M",
                |c, _, line| {
                    put(&mut c.l2, line, Mesi::Modified);
                },
                WouldComplete,
            ),
            (
                "L2-only M, L1D set pinned",
                |c, _, line| {
                    put(&mut c.l2, line, Mesi::Modified);
                    let sets = c.l1d.sets() as u64;
                    for k in 1..=c.l1d.ways() as u64 {
                        let other = LineAddr::new(line.raw() + k * sets);
                        let (s, w) = put(&mut c.l1d, other, Mesi::Invalid);
                        c.l1d.way_mut(s, w).unauth = true;
                    }
                },
                WouldComplete,
            ),
            (
                "miss, GetM in flight",
                |c, net, line| {
                    c.ensure_write_permission(line, false, Cycle::ZERO, net);
                },
                BlockedCounting,
            ),
            (
                "miss, MSHRs full",
                |c, net, line| {
                    for k in 1..=c.mshrs as u64 {
                        let other = LineAddr::new(line.raw() + 0x1000 * k);
                        c.request(other, ReqKind::GetS, false, Cycle::ZERO, net);
                    }
                },
                BlockedCounting,
            ),
            ("cold miss", |_, _, _| {}, BlockedWouldRequest),
        ];
        for (name, setup, expected) in cases {
            let mut s = sys(1);
            let (c, net) = (&mut s.ctrls[0], &mut s.net);
            setup(c, net, line);
            let class = c.store_write_class(line);
            assert_eq!(class, expected, "{name}");
            let (stats, mshrs) = (c.export_stats(), c.outstanding_requests());
            let misses = c.stats.l1d_store_misses;
            let out = c.write_line_visible(line, &line_data(9), full_mask(), Cycle::ZERO, net);
            let new_mshrs = c.outstanding_requests() - mshrs;
            match class {
                WouldComplete => assert_eq!(out, StoreWriteOutcome::Done, "{name}"),
                BlockedWouldRequest => {
                    assert_eq!(out, StoreWriteOutcome::NotYet, "{name}");
                    assert_eq!(new_mshrs, 1, "{name}");
                    assert!(c.request_in_flight(line), "{name}");
                }
                BlockedCounting => {
                    assert_eq!(out, StoreWriteOutcome::NotYet, "{name}");
                    assert_eq!(c.stats.l1d_store_misses, misses + 1, "{name}");
                    assert_eq!(new_mshrs, 0, "{name}");
                }
                BlockedQuiet => {
                    assert_eq!(out, StoreWriteOutcome::NotYet, "{name}");
                    assert_eq!(c.export_stats(), stats, "{name}");
                    assert_eq!(new_mshrs, 0, "{name}");
                }
            }
        }
    }

    #[test]
    fn coalesce_extends_mask() {
        let mut s = sys(1);
        let line = LineAddr::new(0x200);
        let (set, way) = s.ctrls[0]
            .unauthorized_alloc(line, &line_data(1), ByteMask::range(0, 8), Cycle::ZERO, &mut s.net)
            .expect("allocates");
        let mut more = line_data(2);
        more[8] = 0x22;
        s.ctrls[0].unauthorized_coalesce(set, way, &more, ByteMask::range(8, 8));
        let l = s.ctrls[0].l1d.way(set, way);
        assert!(l.mask.covers(0, 16));
        let d = s.ctrls[0].l1d.data(set, way);
        assert_eq!(d[0], 1);
        assert_eq!(d[8], 0x22);
        assert_eq!(s.ctrls[0].stats.l1d_writes, 2);
    }
}
