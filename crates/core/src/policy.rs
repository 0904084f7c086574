//! Store-drain policies.
//!
//! The drain policy is the mechanism that moves committed stores out of
//! the store buffer and into the memory system — the axis the paper's
//! whole evaluation varies. The five policies differ in where committed
//! stores wait between the SB and the L1D, and [`Policy`] holds what they
//! share (prefetch-at-commit, the latency of a forwarded load) around one
//! of three answers:
//!
//! * nowhere: the SB head writes the L1D once it holds permission (the
//!   paper's strengthened baseline: prefetch-at-commit + stream
//!   prefetching). SPB is this drain plus a Store Prefetch Burst unit
//!   that prefetches write permission for a whole page on a store burst
//!   \[Cebrian et al., MICRO'20\];
//! * SSB's TSOB: stores leave the SB into a 1K-entry in-order queue at
//!   once and drain to the L2 one by one (write-through, no coalescing)
//!   \[Wenisch et al., ISCA'07\];
//! * the write-combining buffers, whose one front end (the SB→WCB loop,
//!   the merge-time lex check, the age flush) serves two flushes: CSB
//!   writes a group only with write permission, so a WCB write miss stops
//!   the SB drain \[Ros & Kaxiras, ISCA'18\]; TUS writes it temporarily
//!   unauthorized, orders it in the WOQ and resolves external conflicts
//!   with the lex-order authorization unit (the paper).

use std::collections::VecDeque;

use tus_cpu::{ForwardResult, StoreBuffer};
use tus_mem::prefetch::SpbPrefetcher;
use tus_mem::{
    CacheEvent, Network, PrivateCache, ProbeResult, StoreAttemptClass, StoreWriteOutcome,
};
use tus_sim::trace::{TraceEvent, TraceRecord, Tracer};
use tus_sim::{Addr, Cycle, LineAddr, PolicyKind, SimConfig, StatSet};

use crate::lex::{AuthorizationUnit, ConflictDecision};
use crate::wcb::{WcbRefusal, WcbSet};
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
pub struct Policy {
    prefetch_at_commit: bool,
    stage: Stage,
}

/// Where committed stores wait between the SB and the L1D.
#[derive(Debug)]
enum Stage {
    /// Nowhere (baseline and SPB).
    Direct(Direct),
    /// SSB's TSOB.
    Tsob(Tsob),
    /// The WCBs, flushed with write permission (CSB).
    Csb(WcbFront),
    /// The WCBs, flushed unauthorized and ordered by the WOQ (TUS).
    Tus(WcbFront, TusOrder),
}

impl Policy {
    /// Builds the policy selected by `cfg.policy`.
    pub fn new(cfg: &SimConfig) -> Self {
        let stage = match cfg.policy {
            PolicyKind::Baseline | PolicyKind::Spb => Stage::Direct(Direct::new(cfg)),
            PolicyKind::Ssb => Stage::Tsob(Tsob::new(cfg)),
            PolicyKind::Csb => Stage::Csb(WcbFront::new(cfg)),
            PolicyKind::Tus => Stage::Tus(WcbFront::new(cfg), TusOrder::new(cfg)),
        };
        Policy {
            prefetch_at_commit: cfg.tus.prefetch_at_commit,
            stage,
        }
    }

    /// Drains committed stores from `sb` into the memory system; called
    /// once per cycle before the core ticks.
    pub fn drain(&mut self, sb: &mut StoreBuffer, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        match &mut self.stage {
            Stage::Direct(d) => d.drain(sb, ctrl, net, now),
            Stage::Tsob(t) => t.drain(sb, ctrl, net, now),
            Stage::Csb(front) => front.drain(sb, now, |wcbs, group| {
                flush_with_permission(wcbs, group, ctrl, net, now)
            }),
            Stage::Tus(front, tus) => {
                tus.woq.trace_set_now(now);
                tus.advance_visibility(ctrl, net, now);
                tus.rerequest(front, ctrl, net, now);
                let auth = front.auth;
                front.drain(sb, now, |wcbs, group| {
                    tus.flush_unauthorized(auth, wcbs, group, ctrl, net, now)
                });
            }
        }
    }

    /// Handles a controller event (TUS consumes `PermissionReady` and
    /// `ExternalConflict`; other policies never receive them).
    pub fn on_event(&mut self, ev: &CacheEvent, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        match (&mut self.stage, ev) {
            (Stage::Tus(front, tus), _) => tus.on_event(front.auth, ev, ctrl, net, now),
            (_, CacheEvent::ExternalConflict { .. } | CacheEvent::PermissionReady { .. }) => {
                unreachable!("unauthorized-line events without the TUS policy")
            }
            (_, CacheEvent::LoadDone { .. } | CacheEvent::Invalidated { .. }) => {}
        }
    }

    /// Store-to-load forwarding from policy-owned buffers.
    pub fn forward_load(&mut self, addr: Addr, size: usize) -> ForwardResult {
        match &mut self.stage {
            Stage::Direct(_) => ForwardResult::Miss,
            Stage::Tsob(t) => t.forward(addr, size),
            Stage::Csb(front) | Stage::Tus(front, _) => front.wcbs.forward(addr, size),
        }
    }

    /// Notification that a store committed (SPB training,
    /// prefetch-at-commit).
    pub fn store_committed(&mut self, ctrl: &mut PrivateCache, net: &mut Network, addr: Addr, now: Cycle) {
        let line = addr.line();
        if let Stage::Direct(Direct { spb: Some(spb), .. }) = &mut self.stage {
            spb.backlog.extend(spb.detector.observe(line));
        }
        if self.prefetch_at_commit {
            ctrl.ensure_write_permission(line, true, now, net);
        }
    }

    /// Whether all policy-side store state has drained (fence condition).
    pub fn drained(&self) -> bool {
        match &self.stage {
            Stage::Direct(_) => true,
            Stage::Tsob(t) => t.queue.is_empty(),
            Stage::Csb(front) => front.wcbs.is_empty(),
            Stage::Tus(front, tus) => front.wcbs.is_empty() && tus.woq.is_empty(),
        }
    }

    /// Earliest cycle at or after `now` at which [`Policy::drain`] would
    /// change any buffer, cache, network, or counter state, or `None`
    /// when nothing will change until another component acts first (the
    /// event kernel's per-policy contract; see
    /// [`tus_sim::sched`] for the conservatism rules).
    pub fn next_work(&self, sb: &StoreBuffer, ctrl: &PrivateCache, now: Cycle) -> Option<Cycle> {
        match &self.stage {
            Stage::Direct(d) => d.next_work(sb, ctrl, now),
            Stage::Tsob(t) => t.next_work(sb, ctrl, now),
            Stage::Csb(front) => front.next_work(sb, now),
            Stage::Tus(front, tus) => {
                // A fully-ready head group flips visible this cycle, and a
                // lex-order re-request that can go out sends a GetM.
                if tus.woq.head_group_ready() || tus.rerequest_would_send(front.auth, ctrl) {
                    return Some(now);
                }
                front.next_work(sb, now)
            }
        }
    }

    /// Charges `n` skipped idle cycles with exactly the per-cycle counter
    /// increments that `n` lockstep [`Policy::drain`] calls would have
    /// made in this (idle) state. Only the baseline family counts blocked
    /// retry cycles; an idle CSB/TUS drain mutates nothing.
    pub fn charge_idle(&mut self, sb: &StoreBuffer, ctrl: &mut PrivateCache, n: u64) {
        match &mut self.stage {
            Stage::Direct(d) => d.charge_idle(sb, ctrl, n),
            Stage::Tsob(t) => t.charge_idle(ctrl, n),
            Stage::Csb(_) | Stage::Tus(..) => {}
        }
    }

    /// The WOQ, under TUS.
    pub fn woq(&self) -> Option<&Woq> {
        match &self.stage {
            Stage::Tus(_, tus) => Some(&tus.woq),
            _ => None,
        }
    }

    /// Snapshots policy-side buffer occupancy for deadlock diagnostics.
    pub fn occupancy(&self) -> PolicyOccupancy {
        let mut o = PolicyOccupancy::default();
        match &self.stage {
            Stage::Direct(_) => {}
            Stage::Tsob(t) => o.tsob_len = t.queue.len(),
            Stage::Csb(front) | Stage::Tus(front, _) => o.wcb_occupied = front.wcbs.occupied(),
        }
        if let Some(woq) = self.woq() {
            o.woq_len = woq.len();
            o.woq_ready = woq.iter().filter(|e| e.ready).count();
            o.woq_retries = woq.iter().filter(|e| e.retry).count();
        }
        o
    }

    /// Arms tracing on this policy and its store-path buffers (WCBs, WOQ).
    /// The baseline family has no policy-side buffers and records nothing.
    pub fn trace_enable(&mut self, cap: usize) {
        if let Stage::Csb(front) | Stage::Tus(front, _) = &mut self.stage {
            front.tracer.enable(cap);
            front.wcbs.trace_enable(cap);
        }
        if let Stage::Tus(_, tus) = &mut self.stage {
            tus.woq.trace_enable(cap);
        }
    }

    /// Drains the buffered trace records of the policy and its buffers,
    /// merged into a single timestamp-ordered stream.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        if let Stage::Csb(front) | Stage::Tus(front, _) = &mut self.stage {
            out = front.tracer.take();
            out.extend(front.wcbs.take_trace());
        }
        if let Stage::Tus(_, tus) = &mut self.stage {
            out.extend(tus.woq.take_trace());
        }
        out.sort_by_key(|r| r.at);
        out
    }

    /// Exports policy statistics.
    pub fn export_stats(&self) -> StatSet {
        let mut s = StatSet::new();
        match &self.stage {
            Stage::Direct(d) => {
                s.set("head_block_cycles", d.head_block_cycles as f64);
                s.set("drained_stores", d.drained as f64);
                if let Some(spb) = &d.spb {
                    s.set("spb_bursts", spb.bursts as f64);
                }
            }
            Stage::Tsob(t) => {
                s.set("tsob_peak", t.peak as f64);
                s.set("tsob_searches", t.searches as f64);
                s.set("drained_stores", t.drained as f64);
            }
            Stage::Csb(front) | Stage::Tus(front, _) => {
                s.set("wcb_coalesced", front.wcbs.coalesced_stores() as f64);
                s.set("wcb_searches", front.wcbs.searches() as f64);
                s.set("wcb_flushes", front.flushes as f64);
                s.set("head_block_cycles", front.head_block_cycles as f64);
            }
        }
        if let Stage::Tus(_, tus) = &self.stage {
            s.set("woq_searches", tus.woq.searches() as f64);
            s.set("woq_peak", tus.woq.peak() as f64);
            s.set("visibility_flips", tus.flips as f64);
            s.set("atomic_groups", tus.groups_formed as f64);
            s.set("conflict_delays", tus.delays as f64);
            s.set("conflict_relinquishes", tus.relinquishes as f64);
        }
        s
    }
}

/// When a drain's write attempt on `line` next acts: now, when it would
/// write or send a fresh GetM; `None` while it only retries. Retry cycles
/// move counters alone, which the idle charge books in bulk; the line
/// state changes on a network delivery, which the memory side schedules.
fn write_attempt_work(ctrl: &PrivateCache, line: LineAddr, now: Cycle) -> Option<Cycle> {
    match ctrl.store_write_class(line) {
        StoreAttemptClass::WouldComplete | StoreAttemptClass::BlockedWouldRequest => Some(now),
        StoreAttemptClass::BlockedCounting | StoreAttemptClass::BlockedQuiet => None,
    }
}

// ----------------------------------------------------------------------
// Baseline and SPB: no buffer between the SB and the L1D
// ----------------------------------------------------------------------

/// The strengthened baseline drain: write when permission is held, block
/// the SB head otherwise (permission was usually prefetched at commit).
/// SPB is this drain behind its burst prefetcher.
#[derive(Debug)]
struct Direct {
    store_ports: usize,
    /// SPB's burst prefetcher; `None` under the baseline.
    spb: Option<Burst>,
    head_block_cycles: u64,
    drained: u64,
}

/// Store Prefetch Burst: on detecting a run of consecutive store lines,
/// prefetch write permission for the whole 4 KiB page.
#[derive(Debug)]
struct Burst {
    detector: SpbPrefetcher,
    backlog: VecDeque<LineAddr>,
    /// Cycles with prefetches backlogged.
    bursts: u64,
}

impl Direct {
    fn new(cfg: &SimConfig) -> Self {
        let spb = (cfg.policy == PolicyKind::Spb).then(|| Burst {
            detector: SpbPrefetcher::new(cfg.tus.spb_trigger),
            backlog: VecDeque::new(),
            bursts: 0,
        });
        Direct {
            store_ports: cfg.backend.store_ports,
            spb,
            head_block_cycles: 0,
            drained: 0,
        }
    }

    fn drain(&mut self, sb: &mut StoreBuffer, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        if let Some(spb) = &mut self.spb {
            if !spb.backlog.is_empty() {
                spb.bursts += 1;
            }
            for _ in 0..SPB_ISSUE_PER_CYCLE {
                if ctrl.mshrs_free() <= 2 {
                    break;
                }
                let Some(l) = spb.backlog.pop_front() else { break };
                ctrl.ensure_write_permission(l, true, now, net);
            }
        }
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
        // Backlogged prefetches issue as soon as more than two MSHRs are
        // free; MSHR occupancy only drops on a grant (a network event).
        if self.spb.as_ref().is_some_and(|spb| !spb.backlog.is_empty()) && ctrl.mshrs_free() > 2 {
            return Some(now);
        }
        let head = sb.head().filter(|h| h.committed)?;
        write_attempt_work(ctrl, head.addr.line(), now)
    }

    fn charge_idle(&mut self, sb: &StoreBuffer, ctrl: &mut PrivateCache, n: u64) {
        // The burst counter ticks every cycle the backlog is non-empty,
        // even when no prefetch can issue.
        if let Some(spb) = self.spb.as_mut().filter(|spb| !spb.backlog.is_empty()) {
            spb.bursts += n;
        }
        let Some(head) = sb.head().filter(|h| h.committed) else { return };
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
// SSB
// ----------------------------------------------------------------------

/// Idealized Scalable Store Buffer: committed stores move to a large
/// in-order queue (TSOB) instantly, which drains store-by-store into the
/// L2 (write-through, no coalescing; invalidation recovery is free).
#[derive(Debug)]
struct Tsob {
    queue: VecDeque<(Addr, u8, u64)>,
    cap: usize,
    store_ports: usize,
    peak: usize,
    searches: u64,
    drained: u64,
}

impl Tsob {
    fn new(cfg: &SimConfig) -> Self {
        Tsob {
            queue: VecDeque::with_capacity(cfg.tus.tsob_entries),
            cap: cfg.tus.tsob_entries,
            store_ports: cfg.backend.store_ports,
            peak: 0,
            searches: 0,
            drained: 0,
        }
    }

    fn drain(&mut self, sb: &mut StoreBuffer, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        // SB → TSOB: wait-free as long as the TSOB has room. Entering
        // the TSOB re-arms the write-permission prefetch so the line is
        // (re)acquired within the TSOB drain window even if the
        // commit-time prefetch was evicted meanwhile.
        while self.queue.len() < self.cap {
            let Some(head) = sb.head() else { break };
            if !head.committed {
                break;
            }
            let e = sb.pop_head();
            ctrl.ensure_write_permission(e.addr.line(), true, now, net);
            self.queue.push_back((e.addr, e.size, e.value));
        }
        self.peak = self.peak.max(self.queue.len());
        // TSOB → L1D/L2, in order, one coherence-checked write per port.
        for _ in 0..self.store_ports {
            let Some(&(addr, size, value)) = self.queue.front() else {
                return;
            };
            match ctrl.ssb_store_write(addr, size as usize, value, now, net) {
                StoreWriteOutcome::Done => {
                    self.queue.pop_front();
                    self.drained += 1;
                }
                StoreWriteOutcome::NotYet => return,
            }
        }
    }

    fn next_work(&self, sb: &StoreBuffer, ctrl: &PrivateCache, now: Cycle) -> Option<Cycle> {
        // SB → TSOB movement is unconditional while there is room.
        if self.queue.len() < self.cap && sb.head().is_some_and(|h| h.committed) {
            return Some(now);
        }
        let &(addr, _, _) = self.queue.front()?;
        write_attempt_work(ctrl, addr.line(), now)
    }

    fn charge_idle(&mut self, ctrl: &mut PrivateCache, n: u64) {
        // An idle SSB cycle is one blocked TSOB-head write attempt (the
        // peak tracker is idempotent while the queue is untouched).
        if let Some(&(addr, _, _)) = self.queue.front() {
            if ctrl.store_write_class(addr.line()) == StoreAttemptClass::BlockedCounting {
                ctrl.charge_blocked_store_cycles(n);
            }
        }
    }

    /// Forwarding from the youngest TSOB entry the load overlaps: a hit
    /// when it covers the load, partial (the load waits for it to drain)
    /// when it does not.
    fn forward(&mut self, addr: Addr, size: usize) -> ForwardResult {
        self.searches += 1;
        for &(a, s, v) in self.queue.iter().rev() {
            let (a0, a1) = (a.raw(), a.raw() + s as u64);
            let (b0, b1) = (addr.raw(), addr.raw() + size as u64);
            if a0 <= b0 && b1 <= a1 {
                let shift = (b0 - a0) * 8;
                let mask = if size >= 8 { u64::MAX } else { (1u64 << (size * 8)) - 1 };
                return ForwardResult::Hit { value: (v >> shift) & mask };
            }
            if a0 < b1 && b0 < a1 {
                return ForwardResult::Partial;
            }
        }
        ForwardResult::Miss
    }
}

// ----------------------------------------------------------------------
// The WCB front end (CSB and TUS)
// ----------------------------------------------------------------------

/// The write-combining front end CSB and TUS share: the WCBs, the
/// authorization unit whose lex order keeps every group authorizable,
/// the SB→WCB loop and the age-flush schedule. The two policies differ
/// only in the flush the loop is given.
#[derive(Debug)]
struct WcbFront {
    wcbs: WcbSet,
    auth: AuthorizationUnit,
    tracer: Tracer,
    flushes: u64,
    head_block_cycles: u64,
    /// Reused oldest-group index buffer (bounded by the WCB count).
    group: Vec<usize>,
}

impl WcbFront {
    fn new(cfg: &SimConfig) -> Self {
        WcbFront {
            wcbs: WcbSet::new(cfg.tus.wcbs),
            auth: AuthorizationUnit::new(cfg.tus.lex_bits),
            tracer: Tracer::default(),
            flushes: 0,
            head_block_cycles: 0,
            group: Vec::new(),
        }
    }

    /// Flushes the oldest group once it is over age, then moves up to
    /// [`SB_TO_WCB_PER_CYCLE`] committed stores from the SB into the WCBs,
    /// flushing the oldest group when the WCBs refuse a store or the store
    /// would merge a lex conflict into one group. `flush` gets the WCBs
    /// and the oldest group's buffer indices and returns whether the group
    /// left the buffers.
    fn drain(
        &mut self,
        sb: &mut StoreBuffer,
        now: Cycle,
        mut flush: impl FnMut(&mut WcbSet, &[usize]) -> bool,
    ) {
        // Age-triggered flush keeps latency bounded.
        if self.wcbs.oldest_age(now) > WCB_FLUSH_AGE {
            self.flush_oldest(&mut flush);
        }
        let mut moved = 0;
        while moved < SB_TO_WCB_PER_CYCLE {
            let Some(head) = sb.head() else { break };
            if !head.committed {
                break;
            }
            if self.lex_conflict_on_merge(head.addr.line()) {
                // Lex conflicts in a group are disallowed; wait for the
                // conflicting store to flush.
                self.flush_oldest(&mut flush);
                self.head_block_cycles += 1;
                break;
            }
            match self.wcbs.write(head.addr, head.size as usize, head.value, now) {
                Ok(_) => {
                    sb.pop_head();
                    moved += 1;
                }
                Err(WcbRefusal::NeedFlush) => {
                    if !self.flush_oldest(&mut flush) {
                        self.head_block_cycles += 1;
                        break;
                    }
                }
            }
        }
        if moved > 0 {
            self.tracer.emit(now, 0, TraceEvent::SbWcbDrain { stores: moved as u32 });
        }
    }

    /// Runs `flush` on the oldest group; `true` when it left the buffers.
    fn flush_oldest(&mut self, flush: &mut impl FnMut(&mut WcbSet, &[usize]) -> bool) -> bool {
        self.wcbs.oldest_group_into(&mut self.group);
        let flushed = !self.group.is_empty() && flush(&mut self.wcbs, &self.group);
        self.flushes += u64::from(flushed);
        flushed
    }

    /// Whether adding `line` to the WCBs would merge groups containing a
    /// lex conflict (disallowed: such a group could never be authorized
    /// together).
    fn lex_conflict_on_merge(&self, line: LineAddr) -> bool {
        if self.wcbs.find(line).is_none() {
            return false;
        }
        // Writing to an existing buffer may merge all buffers; check all
        // pairs.
        let lines = || (0..self.wcbs.capacity()).filter_map(|i| self.wcbs.buf(i)).map(|b| b.line);
        lines()
            .enumerate()
            .any(|(n, a)| lines().skip(n + 1).any(|b| self.auth.lex_conflict(a, b)))
    }

    /// A committed SB head always enters the drain loop (and a blocked
    /// head counts a stall cycle), so it is work even when the WCB write
    /// will be refused. Otherwise the only self-driven activity is the age
    /// flush, which runs in lockstep over the whole over-age window even
    /// when it will fail: a failing CSB flush is side-effect-free only
    /// while its permission request is in flight, and TUS's feasibility
    /// probe searches the WOQ ([`Woq::find`] counts every search).
    fn next_work(&self, sb: &StoreBuffer, now: Cycle) -> Option<Cycle> {
        if sb.head().is_some_and(|h| h.committed) {
            return Some(now);
        }
        if self.wcbs.is_empty() {
            return None;
        }
        let age = self.wcbs.oldest_age(now);
        Some(if age > WCB_FLUSH_AGE { now } else { now + (WCB_FLUSH_AGE - age + 1) })
    }
}

/// CSB's flush: writes the WCB group `group` to the L1D only when every
/// line holds write permission, otherwise requests the missing
/// permissions and writes nothing (the stall TUS removes). Returns whether
/// the group was written.
fn flush_with_permission(
    wcbs: &mut WcbSet,
    group: &[usize],
    ctrl: &mut PrivateCache,
    net: &mut Network,
    now: Cycle,
) -> bool {
    let mut writable = true;
    for &i in group {
        let line = wcbs.buf(i).expect("member").line;
        if !ctrl.hierarchy_writable(line) {
            ctrl.ensure_write_permission(line, false, now, net);
            writable = false;
        }
    }
    if !writable {
        return false;
    }
    // Begin the group before writing any member: fusing may have merged a
    // store that is program-order-younger than stores to other group
    // lines, and the first line written must not become visible ahead of
    // them.
    ctrl.begin_store_group(group.iter().map(|&i| wcbs.buf(i).expect("member").line), now);
    for &i in group {
        let b = wcbs.buf(i).expect("member");
        let out = ctrl.write_line_visible(b.line, &b.data, b.mask, now, net);
        assert_eq!(out, StoreWriteOutcome::Done, "probed writable line must accept");
    }
    wcbs.release(group);
    true
}

// ----------------------------------------------------------------------
// TUS: unauthorized writes ordered by the WOQ
// ----------------------------------------------------------------------

/// What TUS adds behind the WCB front end (the paper's Fig. 7 flow): the
/// WOQ that orders temporarily unauthorized lines, their flip to visible,
/// and the lex-order answer to external conflicts.
#[derive(Debug)]
struct TusOrder {
    woq: Woq,
    max_group: usize,
    flips: u64,
    groups_formed: u64,
    delays: u64,
    relinquishes: u64,
    // Reused buffers for the per-cycle flush/visibility paths. All are
    // bounded by the WCB or WOQ capacity, so they plateau and the
    // steady-state drain loop never allocates.
    miss_sets: Vec<usize>,
    merged: Vec<LineAddr>,
    popped: Vec<WoqEntry>,
    coords: Vec<(usize, usize)>,
}

/// Whether `line` is an unauthorized L1D line that already holds write
/// permission (its WOQ entry is ready).
fn unauth_writable(ctrl: &PrivateCache, line: LineAddr) -> bool {
    ctrl.line_state(line).is_some_and(|(st, unauth, _)| unauth && st.can_write())
}

impl TusOrder {
    fn new(cfg: &SimConfig) -> Self {
        TusOrder {
            woq: Woq::new(cfg.tus.woq_entries),
            max_group: cfg.tus.max_atomic_group,
            flips: 0,
            groups_formed: 0,
            delays: 0,
            relinquishes: 0,
            miss_sets: Vec::new(),
            merged: Vec::new(),
            popped: Vec::new(),
            coords: Vec::new(),
        }
    }

    /// TUS's flush, the Figure 7 flow: writes the WCB group `group` into
    /// the L1D as temporarily unauthorized data and queues its lines in
    /// the WOQ, all or nothing. Returns whether the group was written.
    fn flush_unauthorized(
        &mut self,
        auth: AuthorizationUnit,
        wcbs: &mut WcbSet,
        group: &[usize],
        ctrl: &mut PrivateCache,
        net: &mut Network,
        now: Cycle,
    ) -> bool {
        // ---------------- feasibility checks ----------------
        let mut new_entries = 0usize;
        let mut getm_needed = 0usize;
        let mut merge_at: Option<usize> = None;
        self.miss_sets.clear();
        for &i in group {
            let line = wcbs.buf(i).expect("member").line;
            match ctrl.probe(line) {
                ProbeResult::Busy => return false,
                ProbeResult::Miss { ways_free } => {
                    new_entries += 1;
                    getm_needed += 1;
                    let set = ctrl.l1d_set_of(line);
                    self.miss_sets.push(set);
                    let demand = self.miss_sets.iter().filter(|&&s| s == set).count();
                    if demand > ways_free {
                        return false; // associativity restriction
                    }
                }
                ProbeResult::HitVisible { writable } => {
                    new_entries += 1;
                    getm_needed += usize::from(!writable);
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
        if self.woq.free() < new_entries || ctrl.mshrs_free() < getm_needed {
            return false;
        }
        // Atomic-group size and lex restrictions for the merged result.
        if let Some(m) = merge_at {
            if self.woq.merged_size(m) + new_entries > self.max_group {
                return false;
            }
            self.merged.clear();
            self.woq.merged_lines_into(m, &mut self.merged);
            self.merged.extend(group.iter().map(|&i| wcbs.buf(i).expect("member").line));
            self.merged.sort_by_key(|l| l.raw());
            self.merged.dedup();
            for (i, &a) in self.merged.iter().enumerate() {
                if self.merged[i + 1..].iter().any(|&b| auth.lex_conflict(a, b)) {
                    return false;
                }
            }
        }
        // ---------------- execution ----------------
        let mut woq_group = None;
        for &i in group {
            let b = wcbs.buf(i).expect("member");
            let (set, way, ready) = match ctrl.probe(b.line) {
                ProbeResult::Miss { .. } => {
                    let (set, way) = ctrl
                        .unauthorized_alloc(b.line, &b.data, b.mask, now, net)
                        .expect("feasibility checked");
                    // The allocation may have completed ready (the L2 held
                    // write permission for the hierarchy).
                    (set, way, unauth_writable(ctrl, b.line))
                }
                ProbeResult::HitVisible { writable } => {
                    let (set, way) = ctrl
                        .unauth_write_on_visible_hit(b.line, &b.data, b.mask, now, net)
                        .expect("feasibility checked");
                    (set, way, writable)
                }
                ProbeResult::HitUnauth { set, way, .. } => {
                    ctrl.unauthorized_coalesce(set, way, &b.data, b.mask);
                    let e = self.woq.find(set, way).expect("unauth line tracked");
                    self.woq.coalesce(e, b.mask, unauth_writable(ctrl, b.line));
                    continue;
                }
                ProbeResult::Busy => unreachable!("feasibility checked"),
            };
            match woq_group {
                None => {
                    woq_group = Some(self.woq.push(b.line, set, way, b.mask));
                    self.groups_formed += 1;
                }
                Some(g) => self.woq.push_into_group(b.line, set, way, b.mask, g),
            }
            if ready {
                self.woq.mark_ready(set, way);
            }
        }
        wcbs.release(group);
        if let Some(m) = merge_at {
            self.woq.merge_to_tail(m);
        }
        // Some writes may be immediately ready (write permission already
        // held via prefetch-at-commit): try to advance.
        self.advance_visibility(ctrl, net, now);
        true
    }

    /// Makes every fully-ready atomic group at the head of the WOQ
    /// visible (bulk *not visible* reset).
    fn advance_visibility(&mut self, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        let mut entries = std::mem::take(&mut self.popped);
        loop {
            entries.clear();
            if !self.pop_next_visible_group(&mut entries) {
                break;
            }
            self.coords.clear();
            self.coords.extend(entries.iter().map(|e| (e.set, e.way)));
            // Begun before any member flips, as in CSB's flush.
            ctrl.begin_store_group(entries.iter().map(|e| e.line), now);
            ctrl.make_visible(&self.coords, now, net);
            self.flips += 1;
        }
        self.popped = entries;
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
    fn rerequest(&self, front: &mut WcbFront, ctrl: &mut PrivateCache, net: &mut Network, now: Cycle) {
        if self.woq.retry_count() == 0 {
            return;
        }
        for idx in self.woq.retry_iter() {
            if front.auth.may_rerequest(&self.woq, idx) {
                let line = self.woq.entry(idx).line;
                ctrl.request_permission(line, now, net);
                front.tracer.emit(now, 0, TraceEvent::LexRetry { line: line.raw() });
            }
        }
    }

    /// Whether [`TusOrder::rerequest`] would issue a permission request
    /// this cycle (the request only goes out when the lex order allows
    /// it, none is in flight, and an MSHR is free).
    fn rerequest_would_send(&self, auth: AuthorizationUnit, ctrl: &PrivateCache) -> bool {
        self.woq.retry_count() > 0
            && self.woq.retry_iter().any(|idx| {
                auth.may_rerequest(&self.woq, idx)
                    && !ctrl.request_in_flight(self.woq.entry(idx).line)
                    && ctrl.mshrs_free() > 0
            })
    }

    fn on_event(
        &mut self,
        auth: AuthorizationUnit,
        ev: &CacheEvent,
        ctrl: &mut PrivateCache,
        net: &mut Network,
        now: Cycle,
    ) {
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
                match auth.decide(&self.woq, idx) {
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
