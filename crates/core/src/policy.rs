//! Store-drain policies.
//!
//! The drain policy is the mechanism that moves committed stores out of
//! the store buffer and into the memory system — the axis the paper's
//! whole evaluation varies. Five policies are implemented behind the
//! [`Policy`] enum:
//!
//! * [`BaselinePolicy`] — prefetch-at-commit + stream prefetching; the SB
//!   head blocks on a store miss (the paper's strengthened baseline).
//! * [`SpbPolicy`] — baseline + Store Prefetch Burst (full-page GetM
//!   prefetch on store bursts) \[Cebrian et al., MICRO'20\].
//! * [`SsbPolicy`] — idealized Scalable Store Buffer: stores leave the SB
//!   into a 1K-entry in-order TSOB immediately and drain to the L2
//!   one-by-one (write-through, no coalescing) \[Wenisch et al.,
//!   ISCA'07\].
//! * [`CsbPolicy`] — Coalescing Store Buffer: WCB coalescing with atomic
//!   groups, but writes require permission, so a WCB write miss stops the
//!   SB drain \[Ros & Kaxiras, ISCA'18\].
//! * [`TusPolicy`] — Temporarily Unauthorized Stores: WCB coalescing plus
//!   unauthorized L1D writes ordered by the WOQ, with the lex-order
//!   authorization unit resolving external conflicts (the paper).

use std::collections::VecDeque;

use tus_cpu::StoreBuffer;
use tus_mem::prefetch::SpbPrefetcher;
use tus_mem::{
    CacheEvent, Network, PrivateCache, ProbeResult, StoreAttemptClass, StoreWriteOutcome,
};
use tus_sim::trace::{TraceEvent, TraceRecord, Tracer};
use tus_sim::{Addr, Cycle, LineAddr, PolicyKind, SimConfig, StatSet};

use crate::lex::{AuthorizationUnit, ConflictDecision};
use crate::wcb::{WcbBuf, WcbRefusal, WcbSet};
use crate::woq::{Woq, WoqEntry};

/// How many stores may move from the SB into the WCBs per cycle.
const SB_TO_WCB_PER_CYCLE: usize = 4;

/// Flush a WCB group once its oldest store has waited this long
/// (coalescing window).
const WCB_FLUSH_AGE: u64 = 100;

/// Maximum SPB backlog prefetches issued per cycle.
const SPB_ISSUE_PER_CYCLE: usize = 4;

/// Policy-side buffer occupancy at the moment a run stopped making
/// progress (WOQ/WCB/TSOB state for deadlock reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyOccupancy {
    /// WOQ entries still queued (TUS only).
    pub woq_len: usize,
    /// WOQ entries whose permission is already granted.
    pub woq_ready: usize,
    /// WOQ entries waiting on a lex-order re-request.
    pub woq_retries: usize,
    /// Occupied write-combining buffers (CSB/TUS).
    pub wcb_occupied: usize,
    /// TSOB entries (SSB only).
    pub tsob_len: usize,
}

/// A per-core store-drain policy.
#[derive(Debug)]
pub enum Policy {
    /// Strengthened baseline.
    Baseline(BaselinePolicy),
    /// Store Prefetch Burst.
    Spb(SpbPolicy),
    /// Scalable Store Buffer (idealized).
    Ssb(SsbPolicy),
    /// Coalescing Store Buffer.
    Csb(CsbPolicy),
    /// Temporarily Unauthorized Stores.
    Tus(TusPolicy),
}

impl Policy {
    /// Builds the policy selected by `cfg.policy`.
    pub fn new(cfg: &SimConfig) -> Self {
        match cfg.policy {
            PolicyKind::Baseline => Policy::Baseline(BaselinePolicy::new(cfg)),
            PolicyKind::Spb => Policy::Spb(SpbPolicy::new(cfg)),
            PolicyKind::Ssb => Policy::Ssb(SsbPolicy::new(cfg)),
            PolicyKind::Csb => Policy::Csb(CsbPolicy::new(cfg)),
            PolicyKind::Tus => Policy::Tus(TusPolicy::new(cfg)),
        }
    }

    /// Drains committed stores from `sb` into the memory system; called
    /// once per cycle before the core ticks.
    pub fn drain(
        &mut self,
        sb: &mut StoreBuffer,
        ctrl: &mut PrivateCache,
        net: &mut Network,
        now: Cycle,
    ) {
        match self {
            Policy::Baseline(p) => p.drain(sb, ctrl, net, now),
            Policy::Spb(p) => p.drain(sb, ctrl, net, now),
            Policy::Ssb(p) => p.drain(sb, ctrl, net, now),
            Policy::Csb(p) => p.drain(sb, ctrl, net, now),
            Policy::Tus(p) => p.drain(sb, ctrl, net, now),
        }
    }

    /// Handles a controller event (TUS consumes `PermissionReady` and
    /// `ExternalConflict`; other policies never receive them).
    pub fn on_event(&mut self, ev: &CacheEvent, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        match self {
            Policy::Tus(p) => p.on_event(ev, ctrl, net, now),
            _ => match ev {
                CacheEvent::ExternalConflict { .. } | CacheEvent::PermissionReady { .. } => {
                    unreachable!("unauthorized-line events without the TUS policy")
                }
                CacheEvent::LoadDone { .. } | CacheEvent::Invalidated { .. } => {}
            },
        }
    }

    /// Store-to-load forwarding from policy-owned buffers.
    pub fn forward_load(&mut self, addr: Addr, size: usize) -> Option<(u64, u64)> {
        match self {
            Policy::Baseline(_) | Policy::Spb(_) => None,
            Policy::Ssb(p) => p.forward_load(addr, size),
            Policy::Csb(p) => p.wcbs.forward(addr, size).map(|v| (v, p.l1_lat)),
            Policy::Tus(p) => p.wcbs.forward(addr, size).map(|v| (v, p.l1_lat)),
        }
    }

    /// Notification that a store committed (prefetch-at-commit, SPB
    /// training).
    pub fn store_committed(
        &mut self,
        ctrl: &mut PrivateCache,
        net: &mut Network,
        addr: Addr,
        now: Cycle,
    ) {
        let line = addr.line();
        let pac = match self {
            Policy::Baseline(p) => p.prefetch_at_commit,
            Policy::Spb(p) => {
                for l in p.spb.observe(line) {
                    p.backlog.push_back(l);
                }
                p.base_prefetch_at_commit
            }
            Policy::Ssb(p) => p.prefetch_at_commit,
            Policy::Csb(p) => p.prefetch_at_commit,
            Policy::Tus(p) => p.prefetch_at_commit,
        };
        if pac {
            ctrl.ensure_write_permission(line, true, now, net);
        }
    }

    /// Whether all policy-side store state has drained (fence condition).
    pub fn drained(&self) -> bool {
        match self {
            Policy::Baseline(_) | Policy::Spb(_) => true,
            Policy::Ssb(p) => p.tsob.is_empty(),
            Policy::Csb(p) => p.wcbs.is_empty(),
            Policy::Tus(p) => p.wcbs.is_empty() && p.woq.is_empty(),
        }
    }

    /// Earliest cycle at or after `now` at which [`Policy::drain`] would
    /// change any buffer, cache, network, or counter state, or `None`
    /// when nothing will change until another component acts first (the
    /// event kernel's per-policy contract; see
    /// [`tus_sim::sched`] for the conservatism rules).
    pub fn next_work(&self, sb: &StoreBuffer, ctrl: &PrivateCache, now: Cycle) -> Option<Cycle> {
        match self {
            Policy::Baseline(p) => p.next_work(sb, ctrl, now),
            Policy::Spb(p) => p.next_work(sb, ctrl, now),
            Policy::Ssb(p) => p.next_work(sb, ctrl, now),
            Policy::Csb(p) => p.next_work(sb, now),
            Policy::Tus(p) => p.next_work(sb, ctrl, now),
        }
    }

    /// Charges `n` skipped idle cycles with exactly the per-cycle counter
    /// increments that `n` lockstep [`Policy::drain`] calls would have
    /// made in this (idle) state. Only the baseline family counts blocked
    /// retry cycles; an idle CSB/TUS drain mutates nothing.
    pub fn charge_idle(&mut self, sb: &StoreBuffer, ctrl: &mut PrivateCache, n: u64) {
        match self {
            Policy::Baseline(p) => p.charge_idle(sb, ctrl, n),
            Policy::Spb(p) => p.charge_idle(sb, ctrl, n),
            Policy::Ssb(p) => p.charge_idle(ctrl, n),
            Policy::Csb(_) | Policy::Tus(_) => {}
        }
    }

    /// Snapshots policy-side buffer occupancy for deadlock diagnostics.
    pub fn occupancy(&self) -> PolicyOccupancy {
        match self {
            Policy::Baseline(_) | Policy::Spb(_) => PolicyOccupancy::default(),
            Policy::Ssb(p) => PolicyOccupancy {
                tsob_len: p.tsob.len(),
                ..PolicyOccupancy::default()
            },
            Policy::Csb(p) => PolicyOccupancy {
                wcb_occupied: p.wcbs.occupied(),
                ..PolicyOccupancy::default()
            },
            Policy::Tus(p) => PolicyOccupancy {
                wcb_occupied: p.wcbs.occupied(),
                woq_len: p.woq.len(),
                woq_ready: p.woq.iter().filter(|e| e.ready).count(),
                woq_retries: p.woq.iter().filter(|e| e.retry).count(),
                tsob_len: 0,
            },
        }
    }

    /// Arms tracing on this policy and its store-path buffers (WCBs, WOQ).
    /// The baseline family has no policy-side buffers and records nothing.
    pub fn trace_enable(&mut self, cap: usize) {
        match self {
            Policy::Baseline(_) | Policy::Spb(_) | Policy::Ssb(_) => {}
            Policy::Csb(p) => {
                p.tracer.enable(cap);
                p.wcbs.trace_enable(cap);
            }
            Policy::Tus(p) => {
                p.tracer.enable(cap);
                p.wcbs.trace_enable(cap);
                p.woq.trace_enable(cap);
            }
        }
    }

    /// Drains the buffered trace records of the policy and its buffers,
    /// merged into a single timestamp-ordered stream.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        let mut out = match self {
            Policy::Baseline(_) | Policy::Spb(_) | Policy::Ssb(_) => Vec::new(),
            Policy::Csb(p) => {
                let mut v = p.tracer.take();
                v.extend(p.wcbs.take_trace());
                v
            }
            Policy::Tus(p) => {
                let mut v = p.tracer.take();
                v.extend(p.wcbs.take_trace());
                v.extend(p.woq.take_trace());
                v
            }
        };
        out.sort_by_key(|r| r.at);
        out
    }

    /// Exports policy statistics.
    pub fn export_stats(&self) -> StatSet {
        let mut s = StatSet::new();
        match self {
            Policy::Baseline(p) => {
                s.set("head_block_cycles", p.head_block_cycles as f64);
                s.set("drained_stores", p.drained as f64);
            }
            Policy::Spb(p) => {
                s.set("head_block_cycles", p.head_block_cycles as f64);
                s.set("drained_stores", p.drained as f64);
                s.set("spb_bursts", p.bursts as f64);
            }
            Policy::Ssb(p) => {
                s.set("tsob_peak", p.tsob_peak as f64);
                s.set("tsob_searches", p.searches as f64);
                s.set("drained_stores", p.drained as f64);
            }
            Policy::Csb(p) => {
                s.set("wcb_coalesced", p.wcbs.coalesced_stores() as f64);
                s.set("wcb_searches", p.wcbs.searches() as f64);
                s.set("wcb_flushes", p.flushes as f64);
                s.set("head_block_cycles", p.head_block_cycles as f64);
            }
            Policy::Tus(p) => {
                s.set("wcb_coalesced", p.wcbs.coalesced_stores() as f64);
                s.set("wcb_searches", p.wcbs.searches() as f64);
                s.set("wcb_flushes", p.flushes as f64);
                s.set("woq_searches", p.woq.searches() as f64);
                s.set("woq_peak", p.woq.peak() as f64);
                s.set("visibility_flips", p.flips as f64);
                s.set("atomic_groups", p.groups_formed as f64);
                s.set("conflict_delays", p.delays as f64);
                s.set("conflict_relinquishes", p.relinquishes as f64);
                s.set("head_block_cycles", p.head_block_cycles as f64);
            }
        }
        s
    }
}

// ----------------------------------------------------------------------
// Baseline
// ----------------------------------------------------------------------

/// The strengthened baseline drain: write when permission is held, block
/// the SB head otherwise (permission was usually prefetched at commit).
#[derive(Debug)]
pub struct BaselinePolicy {
    store_ports: usize,
    prefetch_at_commit: bool,
    head_block_cycles: u64,
    drained: u64,
}

impl BaselinePolicy {
    /// Creates the baseline policy.
    pub fn new(cfg: &SimConfig) -> Self {
        BaselinePolicy {
            store_ports: cfg.backend.store_ports,
            prefetch_at_commit: cfg.tus.prefetch_at_commit,
            head_block_cycles: 0,
            drained: 0,
        }
    }

    fn drain(&mut self, sb: &mut StoreBuffer, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        for _ in 0..self.store_ports {
            let Some(head) = sb.head() else { return };
            if !head.committed {
                return;
            }
            let (addr, size, value) = (head.addr, head.size as usize, head.value);
            match ctrl.try_visible_store_write(addr, size, value, now, net) {
                StoreWriteOutcome::Done => {
                    sb.pop_head();
                    self.drained += 1;
                }
                StoreWriteOutcome::NotYet => {
                    self.head_block_cycles += 1;
                    return;
                }
            }
        }
    }

    fn next_work(&self, sb: &StoreBuffer, ctrl: &PrivateCache, now: Cycle) -> Option<Cycle> {
        let head = sb.head()?;
        if !head.committed {
            return None;
        }
        match ctrl.store_write_class(head.addr.line()) {
            // A write or a fresh GetM would happen this cycle.
            StoreAttemptClass::WouldComplete | StoreAttemptClass::BlockedWouldRequest => Some(now),
            // Retry cycles only move counters; chargeable in bulk. The
            // line state changes on a network delivery, which the memory
            // side schedules.
            StoreAttemptClass::BlockedCounting | StoreAttemptClass::BlockedQuiet => None,
        }
    }

    fn charge_idle(&mut self, sb: &StoreBuffer, ctrl: &mut PrivateCache, n: u64) {
        let Some(head) = sb.head() else { return };
        if !head.committed {
            return;
        }
        match ctrl.store_write_class(head.addr.line()) {
            StoreAttemptClass::BlockedCounting => {
                self.head_block_cycles += n;
                ctrl.charge_blocked_store_cycles(n);
            }
            StoreAttemptClass::BlockedQuiet => self.head_block_cycles += n,
            StoreAttemptClass::WouldComplete | StoreAttemptClass::BlockedWouldRequest => {
                unreachable!("idle cycle cannot have a drainable store")
            }
        }
    }
}

// ----------------------------------------------------------------------
// SPB
// ----------------------------------------------------------------------

/// Baseline + Store Prefetch Burst: on detecting a run of consecutive
/// store lines, prefetch write permission for the whole 4 KiB page.
#[derive(Debug)]
pub struct SpbPolicy {
    inner: BaselinePolicy,
    spb: SpbPrefetcher,
    backlog: VecDeque<LineAddr>,
    base_prefetch_at_commit: bool,
    bursts: u64,
    head_block_cycles: u64,
    drained: u64,
}

impl SpbPolicy {
    /// Creates the SPB policy.
    pub fn new(cfg: &SimConfig) -> Self {
        SpbPolicy {
            inner: BaselinePolicy::new(cfg),
            spb: SpbPrefetcher::new(cfg.tus.spb_trigger),
            backlog: VecDeque::new(),
            base_prefetch_at_commit: cfg.tus.prefetch_at_commit,
            bursts: 0,
            head_block_cycles: 0,
            drained: 0,
        }
    }

    fn drain(&mut self, sb: &mut StoreBuffer, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        if !self.backlog.is_empty() {
            self.bursts += 1;
        }
        for _ in 0..SPB_ISSUE_PER_CYCLE {
            if ctrl.mshrs_free() <= 2 {
                break;
            }
            let Some(l) = self.backlog.pop_front() else { break };
            ctrl.ensure_write_permission(l, true, now, net);
        }
        self.inner.drain(sb, ctrl, net, now);
        self.head_block_cycles = self.inner.head_block_cycles;
        self.drained = self.inner.drained;
    }

    fn next_work(&self, sb: &StoreBuffer, ctrl: &PrivateCache, now: Cycle) -> Option<Cycle> {
        // Backlogged prefetches issue as soon as more than two MSHRs are
        // free; MSHR occupancy only drops on a grant (a network event).
        if !self.backlog.is_empty() && ctrl.mshrs_free() > 2 {
            return Some(now);
        }
        self.inner.next_work(sb, ctrl, now)
    }

    fn charge_idle(&mut self, sb: &StoreBuffer, ctrl: &mut PrivateCache, n: u64) {
        // The burst counter ticks every cycle the backlog is non-empty,
        // even when no prefetch can issue.
        if !self.backlog.is_empty() {
            self.bursts += n;
        }
        self.inner.charge_idle(sb, ctrl, n);
        self.head_block_cycles = self.inner.head_block_cycles;
        self.drained = self.inner.drained;
    }
}

// ----------------------------------------------------------------------
// SSB
// ----------------------------------------------------------------------

/// Idealized Scalable Store Buffer: committed stores move to a large
/// in-order queue (TSOB) instantly, which drains store-by-store into the
/// L2 (write-through, no coalescing; invalidation recovery is free).
#[derive(Debug)]
pub struct SsbPolicy {
    tsob: VecDeque<(Addr, u8, u64)>,
    cap: usize,
    store_ports: usize,
    prefetch_at_commit: bool,
    l1_lat: u64,
    tsob_peak: usize,
    searches: u64,
    drained: u64,
}

impl SsbPolicy {
    /// Creates the SSB policy.
    pub fn new(cfg: &SimConfig) -> Self {
        SsbPolicy {
            tsob: VecDeque::with_capacity(cfg.tus.tsob_entries),
            cap: cfg.tus.tsob_entries,
            store_ports: cfg.backend.store_ports,
            prefetch_at_commit: cfg.tus.prefetch_at_commit,
            l1_lat: cfg.mem.l1d.latency,
            tsob_peak: 0,
            searches: 0,
            drained: 0,
        }
    }

    fn drain(&mut self, sb: &mut StoreBuffer, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        // SB → TSOB: wait-free as long as the TSOB has room. Entering
        // the TSOB re-arms the write-permission prefetch so the line is
        // (re)acquired within the TSOB drain window even if the
        // commit-time prefetch was evicted meanwhile.
        while self.tsob.len() < self.cap {
            let Some(head) = sb.head() else { break };
            if !head.committed {
                break;
            }
            let e = sb.pop_head();
            ctrl.ensure_write_permission(e.addr.line(), true, now, net);
            self.tsob.push_back((e.addr, e.size, e.value));
        }
        self.tsob_peak = self.tsob_peak.max(self.tsob.len());
        // TSOB → L1D/L2, in order, one coherence-checked write per port.
        for _ in 0..self.store_ports {
            let Some(&(addr, size, value)) = self.tsob.front() else {
                return;
            };
            match ctrl.ssb_store_write(addr, size as usize, value, now, net) {
                StoreWriteOutcome::Done => {
                    self.tsob.pop_front();
                    self.drained += 1;
                }
                StoreWriteOutcome::NotYet => return,
            }
        }
    }

    fn next_work(&self, sb: &StoreBuffer, ctrl: &PrivateCache, now: Cycle) -> Option<Cycle> {
        // SB → TSOB movement is unconditional while there is room.
        if self.tsob.len() < self.cap && sb.head().is_some_and(|h| h.committed) {
            return Some(now);
        }
        let &(addr, _, _) = self.tsob.front()?;
        match ctrl.store_write_class(addr.line()) {
            StoreAttemptClass::WouldComplete | StoreAttemptClass::BlockedWouldRequest => Some(now),
            StoreAttemptClass::BlockedCounting | StoreAttemptClass::BlockedQuiet => None,
        }
    }

    fn charge_idle(&mut self, ctrl: &mut PrivateCache, n: u64) {
        // An idle SSB cycle is one blocked TSOB-head write attempt (the
        // peak tracker is idempotent while the queue is untouched).
        if let Some(&(addr, _, _)) = self.tsob.front() {
            if ctrl.store_write_class(addr.line()) == StoreAttemptClass::BlockedCounting {
                ctrl.charge_blocked_store_cycles(n);
            }
        }
    }

    fn forward_load(&mut self, addr: Addr, size: usize) -> Option<(u64, u64)> {
        self.searches += 1;
        for &(a, s, v) in self.tsob.iter().rev() {
            let (a0, a1) = (a.raw(), a.raw() + s as u64);
            let (b0, b1) = (addr.raw(), addr.raw() + size as u64);
            if a0 <= b0 && b1 <= a1 {
                let shift = (b0 - a0) * 8;
                let mask = if size >= 8 { u64::MAX } else { (1u64 << (size * 8)) - 1 };
                return Some(((v >> shift) & mask, self.l1_lat));
            }
            if a0 < b1 && b0 < a1 {
                // Partial overlap: fall through to memory (SSB forwards
                // through the L1D in the original design; partial cases
                // are rare and modeled as misses).
                return None;
            }
        }
        None
    }
}

// ----------------------------------------------------------------------
// Shared coalescing-drain machinery (CSB and TUS)
// ----------------------------------------------------------------------

/// The WCB-side state the two coalescing policies (CSB and TUS) share, so
/// the per-cycle SB→WCB drain loop and the merge-time lex check exist
/// once. The policies differ only in what flushing the oldest group does:
/// CSB writes visible data and stalls without permission, TUS writes
/// temporarily unauthorized data.
trait CoalescingDrain {
    fn wcbs(&self) -> &WcbSet;
    fn wcbs_mut(&mut self) -> &mut WcbSet;
    fn auth(&self) -> &AuthorizationUnit;
    fn tracer_mut(&mut self) -> &mut Tracer;
    /// Counts a cycle in which the SB head could not leave the buffer.
    fn note_head_block(&mut self);
    /// Attempts to flush the oldest WCB group; `true` when it left the
    /// buffers.
    fn flush_oldest(&mut self, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) -> bool;
}

/// Whether adding `line` to the WCBs would merge groups containing a lex
/// conflict (disallowed: such a group could never be authorized
/// together).
fn lex_conflict_on_merge(p: &impl CoalescingDrain, line: LineAddr) -> bool {
    if p.wcbs().find(line).is_none() {
        return false;
    }
    // Writing to an existing buffer may merge all buffers; check all
    // pairs.
    let cap = p.wcbs().capacity();
    for i in 0..cap {
        let Some(a) = p.wcbs().buf(i).map(|b| b.line) else {
            continue;
        };
        for j in i + 1..cap {
            let Some(b) = p.wcbs().buf(j).map(|b| b.line) else {
                continue;
            };
            if p.auth().lex_conflict(a, b) {
                return true;
            }
        }
    }
    false
}

/// Moves up to [`SB_TO_WCB_PER_CYCLE`] committed stores from the SB into
/// the WCBs, flushing the oldest group when refused — the per-cycle drain
/// loop shared by CSB and TUS.
fn drain_sb_into_wcbs(
    p: &mut impl CoalescingDrain,
    sb: &mut StoreBuffer,
    ctrl: &mut PrivateCache,
    net: &mut Network,
    now: Cycle,
) {
    let mut moved = 0;
    while moved < SB_TO_WCB_PER_CYCLE {
        let Some(head) = sb.head() else { break };
        if !head.committed {
            break;
        }
        if lex_conflict_on_merge(p, head.addr.line()) {
            // Lex conflicts in a group are disallowed; wait for the
            // conflicting store to flush.
            p.flush_oldest(ctrl, net, now);
            p.note_head_block();
            break;
        }
        match p.wcbs_mut().write(head.addr, head.size as usize, head.value, now) {
            Ok(_) => {
                sb.pop_head();
                moved += 1;
            }
            Err(WcbRefusal::NeedFlush) => {
                if !p.flush_oldest(ctrl, net, now) {
                    p.note_head_block();
                    break;
                }
            }
        }
    }
    if moved > 0 {
        p.tracer_mut()
            .emit(now, 0, TraceEvent::SbWcbDrain { stores: moved as u32 });
    }
}

/// When the WCB age-flush branch next runs: `Some(now)` while the
/// threshold is already exceeded, the cycle the oldest buffer will cross
/// it otherwise, `None` with no buffered stores.
fn wcb_age_work(wcbs: &WcbSet, now: Cycle) -> Option<Cycle> {
    if wcbs.is_empty() {
        return None;
    }
    let age = wcbs.oldest_age(now);
    if age > WCB_FLUSH_AGE {
        Some(now)
    } else {
        Some(now + (WCB_FLUSH_AGE - age + 1))
    }
}

// ----------------------------------------------------------------------
// CSB
// ----------------------------------------------------------------------

/// Coalescing Store Buffer: WCB coalescing with atomic groups, but every
/// write to the L1D requires permission — a miss stops the drain.
#[derive(Debug)]
pub struct CsbPolicy {
    wcbs: WcbSet,
    auth: AuthorizationUnit,
    tracer: Tracer,
    prefetch_at_commit: bool,
    l1_lat: u64,
    flushes: u64,
    head_block_cycles: u64,
    /// Reused oldest-group index buffer (bounded by the WCB count).
    idxs_scratch: Vec<usize>,
}

impl CsbPolicy {
    /// Creates the CSB policy.
    pub fn new(cfg: &SimConfig) -> Self {
        CsbPolicy {
            wcbs: WcbSet::new(cfg.tus.wcbs),
            auth: AuthorizationUnit::new(cfg.tus.lex_bits),
            tracer: Tracer::default(),
            prefetch_at_commit: cfg.tus.prefetch_at_commit,
            l1_lat: cfg.mem.l1d.latency,
            flushes: 0,
            head_block_cycles: 0,
            idxs_scratch: Vec::new(),
        }
    }

    fn drain(&mut self, sb: &mut StoreBuffer, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        // Age-triggered flush keeps latency bounded.
        if self.wcbs.oldest_age(now) > WCB_FLUSH_AGE {
            self.try_flush(ctrl, net, now);
        }
        drain_sb_into_wcbs(self, sb, ctrl, net, now);
    }

    fn next_work(&self, sb: &StoreBuffer, now: Cycle) -> Option<Cycle> {
        // A committed SB head always enters the drain loop (and a blocked
        // head counts a stall cycle), so it is work even when the WCB
        // write will be refused.
        if sb.head().is_some_and(|h| h.committed) {
            return Some(now);
        }
        // Otherwise the only self-driven activity is the age flush. A
        // failing CSB flush attempt is side-effect-free only while the
        // permission request is in flight, so conservatively treat the
        // whole over-age window as work (it degrades to lockstep there).
        wcb_age_work(&self.wcbs, now)
    }

    /// Attempts to write the oldest WCB group to the L1D; all lines need
    /// write permission or nothing is written. Returns `true` when a
    /// group was flushed.
    fn try_flush(&mut self, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) -> bool {
        let mut idxs = std::mem::take(&mut self.idxs_scratch);
        self.wcbs.oldest_group_into(&mut idxs);
        if idxs.is_empty() {
            self.idxs_scratch = idxs;
            return false;
        }
        let mut writable = true;
        for &i in &idxs {
            let b = self.wcbs.buf(i).expect("member");
            if !ctrl.hierarchy_writable(b.line) {
                // Request permission and stall — CSB cannot write without
                // it (this is the design weakness TUS removes).
                ctrl.ensure_write_permission(b.line, false, now, net);
                writable = false;
            }
        }
        if !writable {
            self.idxs_scratch = idxs;
            return false;
        }
        // Begin the group before writing any member: fusing may have
        // merged a store that is program-order-younger than stores to other
        // group lines, and the first line written must not become visible
        // ahead of them.
        ctrl.begin_store_group(
            idxs.iter().map(|&i| self.wcbs.buf(i).expect("member").line),
            now,
        );
        for &i in &idxs {
            let b = self.wcbs.buf(i).expect("member");
            let (line, data, mask) = (b.line, *b.data, b.mask);
            let out = ctrl.write_line_visible(line, &data, mask, now, net);
            assert_eq!(out, StoreWriteOutcome::Done, "probed writable line must accept");
        }
        self.wcbs.release(&idxs);
        self.flushes += 1;
        self.idxs_scratch = idxs;
        true
    }
}

impl CoalescingDrain for CsbPolicy {
    fn wcbs(&self) -> &WcbSet {
        &self.wcbs
    }
    fn wcbs_mut(&mut self) -> &mut WcbSet {
        &mut self.wcbs
    }
    fn auth(&self) -> &AuthorizationUnit {
        &self.auth
    }
    fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
    fn note_head_block(&mut self) {
        // CSB's weakness: a write miss stops the drain.
        self.head_block_cycles += 1;
    }
    fn flush_oldest(&mut self, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) -> bool {
        self.try_flush(ctrl, net, now)
    }
}

// ----------------------------------------------------------------------
// TUS
// ----------------------------------------------------------------------

/// Temporarily Unauthorized Stores — the paper's mechanism (Fig. 7 flow).
#[derive(Debug)]
pub struct TusPolicy {
    wcbs: WcbSet,
    woq: Woq,
    auth: AuthorizationUnit,
    tracer: Tracer,
    max_group: usize,
    prefetch_at_commit: bool,
    l1_lat: u64,
    flushes: u64,
    flips: u64,
    groups_formed: u64,
    delays: u64,
    relinquishes: u64,
    head_block_cycles: u64,
    // Reused buffers for the per-cycle flush/visibility paths. All are
    // bounded by the WCB or WOQ capacity, so they plateau and the
    // steady-state drain loop never allocates.
    idxs_scratch: Vec<usize>,
    flush_scratch: Vec<WcbBuf>,
    per_set_scratch: Vec<(usize, usize)>,
    lines_scratch: Vec<LineAddr>,
    merged_scratch: Vec<LineAddr>,
    group_scratch: Vec<WoqEntry>,
    coords_scratch: Vec<(usize, usize)>,
}

impl TusPolicy {
    /// Creates the TUS policy.
    pub fn new(cfg: &SimConfig) -> Self {
        TusPolicy {
            wcbs: WcbSet::new(cfg.tus.wcbs),
            woq: Woq::new(cfg.tus.woq_entries),
            auth: AuthorizationUnit::new(cfg.tus.lex_bits),
            tracer: Tracer::default(),
            max_group: cfg.tus.max_atomic_group,
            prefetch_at_commit: cfg.tus.prefetch_at_commit,
            l1_lat: cfg.mem.l1d.latency,
            flushes: 0,
            flips: 0,
            groups_formed: 0,
            delays: 0,
            relinquishes: 0,
            head_block_cycles: 0,
            idxs_scratch: Vec::new(),
            flush_scratch: Vec::new(),
            per_set_scratch: Vec::new(),
            lines_scratch: Vec::new(),
            merged_scratch: Vec::new(),
            group_scratch: Vec::new(),
            coords_scratch: Vec::new(),
        }
    }

    /// Read-only view of the WOQ (tests, introspection).
    pub fn woq(&self) -> &Woq {
        &self.woq
    }

    /// Read-only view of the WCBs.
    pub fn wcbs(&self) -> &WcbSet {
        &self.wcbs
    }

    fn drain(&mut self, sb: &mut StoreBuffer, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        self.woq.trace_set_now(now);
        self.advance_visibility(ctrl, net, now);
        self.rerequest(ctrl, net, now);
        if self.wcbs.oldest_age(now) > WCB_FLUSH_AGE {
            self.try_flush(ctrl, net, now);
        }
        drain_sb_into_wcbs(self, sb, ctrl, net, now);
    }

    fn next_work(&self, sb: &StoreBuffer, ctrl: &PrivateCache, now: Cycle) -> Option<Cycle> {
        // A fully-ready head group flips visible this cycle.
        if self.woq.head_group_ready() {
            return Some(now);
        }
        // A lex-order re-request that can actually go out sends a GetM.
        if self.rerequest_would_send(ctrl) {
            return Some(now);
        }
        if sb.head().is_some_and(|h| h.committed) {
            return Some(now);
        }
        // The age-flush branch must run in lockstep even when the flush
        // will fail: the TUS feasibility probe searches the WOQ
        // ([`Woq::find`] counts every search), so a failing attempt still
        // moves a counter.
        wcb_age_work(&self.wcbs, now)
    }

    /// Whether [`TusPolicy::rerequest`] would issue a permission request
    /// this cycle (the request only goes out when the lex order allows
    /// it, none is in flight, and an MSHR is free).
    fn rerequest_would_send(&self, ctrl: &PrivateCache) -> bool {
        if self.woq.retry_count() == 0 {
            return false;
        }
        self.woq.retry_iter().any(|idx| {
            self.auth.may_rerequest(&self.woq, idx)
                && !ctrl.request_in_flight(self.woq.entry(idx).line)
                && ctrl.mshrs_free() > 0
        })
    }

    /// Makes every fully-ready atomic group at the head of the WOQ
    /// visible (bulk *not visible* reset).
    fn advance_visibility(&mut self, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        let mut entries = std::mem::take(&mut self.group_scratch);
        let mut coords = std::mem::take(&mut self.coords_scratch);
        loop {
            entries.clear();
            if !self.pop_next_visible_group(&mut entries) {
                break;
            }
            coords.clear();
            coords.extend(entries.iter().map(|e| (e.set, e.way)));
            // Begun before any member flips, as in CSB's flush.
            ctrl.begin_store_group(entries.iter().map(|e| e.line), now);
            ctrl.make_visible(&coords, now, net);
            self.flips += 1;
        }
        self.group_scratch = entries;
        self.coords_scratch = coords;
    }

    /// The next atomic group to flip visible: the head group, once every
    /// member is ready — WOQ order is what preserves TSO. Fills `out` and
    /// returns `true` when a group was popped.
    #[cfg(not(feature = "bug-woq-reorder"))]
    fn pop_next_visible_group(&mut self, out: &mut Vec<WoqEntry>) -> bool {
        if self.woq.head_group_ready() {
            self.woq.pop_head_group_into(out);
            true
        } else {
            false
        }
    }

    /// Fault injection (`bug-woq-reorder`): drain *any* fully-ready
    /// group, youngest first, ignoring queue order. Deliberately breaks
    /// store ordering so the differential fuzzer has a real bug to
    /// catch; never enabled in normal builds.
    #[cfg(feature = "bug-woq-reorder")]
    fn pop_next_visible_group(&mut self, out: &mut Vec<WoqEntry>) -> bool {
        let Some(g) = self.woq.youngest_ready_group() else {
            return false;
        };
        out.extend(self.woq.pop_group(g));
        true
    }

    /// Re-requests permission for relinquished entries allowed by the lex
    /// rule.
    fn rerequest(&mut self, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        if self.woq.retry_count() == 0 {
            return;
        }
        // Index loop rather than an iterator: the WOQ itself is untouched
        // inside the body, but borrowing it for iteration would conflict
        // with the tracer emit on `self`.
        for idx in 0..self.woq.len() {
            if !self.woq.entry(idx).retry {
                continue;
            }
            if self.auth.may_rerequest(&self.woq, idx) {
                let line = self.woq.entry(idx).line;
                ctrl.request_permission(line, now, net);
                self.tracer
                    .emit(now, 0, TraceEvent::LexRetry { line: line.raw() });
            }
        }
    }

    /// The Figure 7 flow: writes the oldest WCB group into the L1D as
    /// temporarily unauthorized data. All-or-nothing per atomic group.
    fn try_flush(&mut self, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) -> bool {
        self.wcbs.oldest_group_into(&mut self.idxs_scratch);
        if self.idxs_scratch.is_empty() {
            return false;
        }
        // ---------------- feasibility checks ----------------
        let mut new_entries = 0usize;
        let mut getm_needed = 0usize;
        self.per_set_scratch.clear();
        let mut merge_at: Option<usize> = None;
        self.lines_scratch.clear();
        for &i in &self.idxs_scratch {
            let b = self.wcbs.buf(i).expect("member");
            self.lines_scratch.push(b.line);
            match ctrl.probe(b.line) {
                ProbeResult::Busy => return false,
                ProbeResult::Miss { ways_free } => {
                    new_entries += 1;
                    getm_needed += 1;
                    let set = ctrl.l1d_set_of(b.line);
                    match self.per_set_scratch.iter_mut().find(|(s, _)| *s == set) {
                        Some((_, d)) => *d += 1,
                        None => self.per_set_scratch.push((set, 1)),
                    }
                    let demand = self
                        .per_set_scratch
                        .iter()
                        .find(|(s, _)| *s == set)
                        .map(|(_, d)| *d)
                        .unwrap_or(0);
                    if demand > ways_free {
                        return false; // associativity restriction
                    }
                }
                ProbeResult::HitVisible { writable } => {
                    new_entries += 1;
                    if !writable {
                        getm_needed += 1;
                    }
                }
                ProbeResult::HitUnauth { set, way, .. } => {
                    // A store cycle: the line already has a WOQ entry.
                    let Some(e) = self.woq.find(set, way) else {
                        return false;
                    };
                    if self.woq.merge_blocked(e) {
                        // CanCycle cleared while a conflict resolves: the
                        // store at the head of the SB may not complete.
                        return false;
                    }
                    merge_at = Some(merge_at.map_or(e, |m| m.min(e)));
                }
            }
        }
        if self.woq.free() < new_entries {
            return false;
        }
        if ctrl.mshrs_free() < getm_needed {
            return false;
        }
        // Atomic-group size and lex restrictions for the merged result.
        if let Some(m) = merge_at {
            if self.woq.merged_size(m) + new_entries > self.max_group {
                return false;
            }
            self.merged_scratch.clear();
            self.woq.merged_lines_into(m, &mut self.merged_scratch);
            self.merged_scratch.extend(self.lines_scratch.iter().copied());
            self.merged_scratch.sort_by_key(|l| l.raw());
            self.merged_scratch.dedup();
            for (i, &a) in self.merged_scratch.iter().enumerate() {
                for &b in self.merged_scratch.iter().skip(i + 1) {
                    if self.auth.lex_conflict(a, b) {
                        return false;
                    }
                }
            }
        }
        // ---------------- execution ----------------
        let mut bufs = std::mem::take(&mut self.flush_scratch);
        self.wcbs.take_into(&self.idxs_scratch, &mut bufs);
        let mut group = None;
        for b in &bufs {
            match ctrl.probe(b.line) {
                ProbeResult::Miss { .. } => {
                    let (set, way) = ctrl
                        .unauthorized_alloc(b.line, &b.data, b.mask, now, net)
                        .expect("feasibility checked");
                    match group {
                        None => {
                            group = Some(self.woq.push(b.line, set, way, b.mask));
                            self.groups_formed += 1;
                        }
                        Some(g) => self.woq.push_into_group(b.line, set, way, b.mask, g),
                    }
                    // The allocation may have completed ready (the L2 held
                    // write permission for the hierarchy).
                    if ctrl
                        .line_state(b.line)
                        .is_some_and(|(st, unauth, _)| unauth && st.can_write())
                    {
                        self.woq.mark_ready(set, way);
                    }
                }
                ProbeResult::HitVisible { writable } => {
                    let (set, way) = ctrl
                        .unauth_write_on_visible_hit(b.line, &b.data, b.mask, now, net)
                        .expect("feasibility checked");
                    match group {
                        None => {
                            group = Some(self.woq.push(b.line, set, way, b.mask));
                            self.groups_formed += 1;
                        }
                        Some(g) => self.woq.push_into_group(b.line, set, way, b.mask, g),
                    }
                    if writable {
                        self.woq.mark_ready(set, way);
                    }
                }
                ProbeResult::HitUnauth { set, way, .. } => {
                    ctrl.unauthorized_coalesce(set, way, &b.data, b.mask);
                    let e = self.woq.find(set, way).expect("unauth line tracked");
                    let still_ready = ctrl
                        .line_state(b.line)
                        .is_some_and(|(st, unauth, _)| unauth && st.can_write());
                    self.woq.coalesce(e, b.mask, still_ready);
                }
                ProbeResult::Busy => unreachable!("feasibility checked"),
            }
        }
        for b in bufs.drain(..) {
            self.wcbs.recycle(b);
        }
        self.flush_scratch = bufs;
        if let Some(m) = merge_at {
            self.woq.merge_to_tail(m);
        }
        self.flushes += 1;
        // Some writes may be immediately ready (write permission already
        // held via prefetch-at-commit): try to advance.
        self.advance_visibility(ctrl, net, now);
        true
    }

    fn on_event(&mut self, ev: &CacheEvent, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        self.woq.trace_set_now(now);
        match *ev {
            CacheEvent::PermissionReady { set, way, .. } => {
                self.woq.mark_ready(set, way);
                self.advance_visibility(ctrl, net, now);
            }
            CacheEvent::ExternalConflict { set, way, .. } => {
                let Some(idx) = self.woq.find(set, way) else {
                    // The line's atomic group became visible in the same
                    // cycle (a PermissionReady processed just before this
                    // event); the controller already answered the request
                    // in make_visible.
                    return;
                };
                self.woq.forbid_cycle(idx);
                match self.auth.decide(&self.woq, idx) {
                    ConflictDecision::Delay => {
                        let line = self.woq.entry(idx).line;
                        ctrl.delay_external(line);
                        self.delays += 1;
                    }
                    ConflictDecision::Relinquish => {
                        ctrl.relinquish(set, way, now, net);
                        self.woq.mark_relinquished(set, way);
                        self.relinquishes += 1;
                    }
                }
            }
            CacheEvent::LoadDone { .. } | CacheEvent::Invalidated { .. } => {}
        }
    }
}

impl CoalescingDrain for TusPolicy {
    fn wcbs(&self) -> &WcbSet {
        &self.wcbs
    }
    fn wcbs_mut(&mut self) -> &mut WcbSet {
        &mut self.wcbs
    }
    fn auth(&self) -> &AuthorizationUnit {
        &self.auth
    }
    fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
    fn note_head_block(&mut self) {
        self.head_block_cycles += 1;
    }
    fn flush_oldest(&mut self, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) -> bool {
        self.try_flush(ctrl, net, now)
    }
}
