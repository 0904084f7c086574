//! The out-of-order core model.
//!
//! [`Core::tick`] advances one cycle: front-end refill, dispatch (with the
//! first-missing-resource stall attribution the paper's Figure 9 is built
//! on), issue/execute with functional-unit contention, and in-order
//! commit. Loads reach the memory system through a [`MemPort`]; committed
//! stores wait in the [`crate::StoreBuffer`] for the drain policy, which
//! runs *outside* the core between ticks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use tus_sim::sched::earliest;
use tus_sim::stats::names;
use tus_sim::trace::{AttrClass, Attribution, TraceEvent, TraceRecord, Tracer};
use tus_sim::{Addr, CoreId, Cycle, SimConfig, StatSet};

use crate::sb::{ForwardResult, StoreBuffer};
use crate::trace::{OpClass, TraceInst, TraceSource};

/// The core's window to the memory system and the drain-policy layer.
pub trait MemPort {
    /// Attempts store-to-load forwarding from policy-owned buffers (WCBs,
    /// SSB's TSOB) — searched in parallel with the SB and L1D. A hit pays
    /// the L1D latency; a partial overlap makes the load retry, as one
    /// with the SB does. Never [`ForwardResult::NotReady`]: held stores
    /// have their data.
    fn forward_load(&mut self, addr: Addr, size: usize) -> ForwardResult;

    /// Issues a load to the memory hierarchy; completion must be delivered
    /// back via [`Core::load_complete`] with the same token.
    fn issue_load(&mut self, addr: Addr, size: usize, token: u64, now: Cycle);

    /// Notifies that a store committed (drives prefetch-at-commit and the
    /// SPB burst detector).
    fn store_committed(&mut self, addr: Addr, size: usize, now: Cycle);

    /// Whether all policy-side store state (WCBs, WOQ, TSOB) has drained —
    /// a fence may only commit when this holds *and* the SB is empty.
    fn fence_drained(&mut self) -> bool;
}

/// Why dispatch stalled in a given cycle (first missing resource).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// Re-order buffer full.
    Rob,
    /// Load queue full.
    Lq,
    /// Store buffer full — the stall class TUS removes.
    Sb,
    /// No free physical register.
    Regs,
}

/// What the next `dispatch` step does for the instruction at the front
/// of the fetch buffer: allocate it, or stop on the first missing
/// resource. `dispatch` loops on it; the event kernel reads the same
/// answer to detect pending work and to attribute skipped cycles to the
/// stall counter lockstep would have bumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchClass {
    /// The front end has no instruction to offer (`frontend_idle`).
    FrontEmpty,
    /// The next instruction is blocked on a back-end resource.
    Stall(StallReason),
    /// At least one instruction would dispatch.
    Dispatch,
}

/// Per-core performance counters.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Fences committed.
    pub fences: u64,
    /// Cycles in which dispatch stalled on a full ROB.
    pub stall_rob: u64,
    /// Cycles in which dispatch stalled on a full load queue.
    pub stall_lq: u64,
    /// Cycles in which dispatch stalled on a full store buffer.
    pub stall_sb: u64,
    /// Cycles in which dispatch stalled on physical registers.
    pub stall_regs: u64,
    /// Cycles in which the front end provided no instruction.
    pub frontend_idle: u64,
    /// Cycles a fence sat at the ROB head waiting for drain.
    pub fence_wait: u64,
    /// Loads forwarded from the SB.
    pub sb_forwards: u64,
    /// Loads forwarded from policy buffers (WCB/TSOB).
    pub policy_forwards: u64,
    /// Loads sent to the memory hierarchy.
    pub mem_loads: u64,
    /// Loads replayed because their line was invalidated before commit
    /// (x86 memory-ordering machine clears).
    pub load_replays: u64,
    /// The stall-attribution ledger: every cycle is charged to exactly
    /// one [`AttrClass`], so `attr.total() == cycles` at any instant
    /// under either kernel. (The `stall_*`/`frontend_idle` counters
    /// above predate it and are *not* a partition — a cycle that both
    /// dispatches and then hits a stall bumps a stall counter but is
    /// attributed to `Dispatch` here.)
    pub attr: Attribution,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RState {
    /// Waiting for `deps_left` producers.
    Waiting,
    /// In the ready queue (or deferred).
    Ready,
    /// Executing; `done_at` holds the completion cycle ([`Cycle::NEVER`]
    /// for loads still in the memory system).
    Issued,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    op: OpClass,
    addr: Addr,
    size: u8,
    #[allow(dead_code)] // kept for debugging dumps
    value: u64,
    state: RState,
    deps_left: u8,
    ready_at: Cycle,
    done_at: Cycle,
    load_value: u64,
    /// The load's value came from the memory hierarchy (not SB/WCB
    /// forwarding) and must replay if the line is invalidated before
    /// commit.
    from_mem: bool,
}

/// Completion times of recently executed instructions, indexed by
/// sequence number modulo a power-of-two window no smaller than the ROB.
///
/// In-flight producers — the only ones whose completion time can still
/// lie in the future — are collision-free: two in-flight sequence
/// numbers differ by less than the ROB size, so they never share a
/// slot. A retired producer's slot may be reclaimed by a newer
/// instruction; a miss there reads as "completed long ago", and a stale
/// hit returns a cycle at or before the present — both exactly how the
/// dispatch dependency check treats retired producers, so replacing the
/// old hash map changes no observable behaviour.
struct CompletionWindow {
    mask: u64,
    tag: Vec<u64>,
    at: Vec<Cycle>,
}

impl CompletionWindow {
    fn new(rob_entries: usize) -> Self {
        let n = rob_entries.next_power_of_two().max(2);
        CompletionWindow {
            mask: n as u64 - 1,
            tag: vec![u64::MAX; n],
            at: vec![Cycle::ZERO; n],
        }
    }

    #[inline]
    fn insert(&mut self, seq: u64, at: Cycle) {
        let i = (seq & self.mask) as usize;
        self.tag[i] = seq;
        self.at[i] = at;
    }

    #[inline]
    fn get(&self, seq: u64) -> Option<Cycle> {
        let i = (seq & self.mask) as usize;
        (self.tag[i] == seq).then(|| self.at[i])
    }
}

/// Consumers waiting on an in-flight producer, in the same
/// sequence-number-modulo-window layout as [`CompletionWindow`]. Only
/// producers that have not yet executed carry waiters, and those are
/// collision-free within the ROB window; a producer's list is drained
/// (and its slot released) exactly once, at execution completion.
struct WaiterWindow {
    mask: u64,
    tag: Vec<u64>,
    lists: Vec<Vec<u64>>,
}

impl WaiterWindow {
    fn new(rob_entries: usize) -> Self {
        let n = rob_entries.next_power_of_two().max(2);
        WaiterWindow {
            mask: n as u64 - 1,
            tag: vec![u64::MAX; n],
            lists: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    #[inline]
    fn push(&mut self, producer: u64, consumer: u64) {
        let i = (producer & self.mask) as usize;
        if self.tag[i] != producer {
            debug_assert_eq!(self.tag[i], u64::MAX, "live waiter slots never collide");
            self.tag[i] = producer;
            self.lists[i].clear();
        }
        self.lists[i].push(consumer);
    }

    /// Claims `producer`'s waiter list (empty slots return `None`). The
    /// caller drains it and hands it back via [`WaiterWindow::restore`]
    /// so the slot keeps its capacity.
    #[inline]
    fn take(&mut self, producer: u64) -> Option<Vec<u64>> {
        let i = (producer & self.mask) as usize;
        if self.tag[i] != producer {
            return None;
        }
        self.tag[i] = u64::MAX;
        Some(std::mem::take(&mut self.lists[i]))
    }

    #[inline]
    fn restore(&mut self, producer: u64, drained: Vec<u64>) {
        let i = (producer & self.mask) as usize;
        self.lists[i] = drained;
    }
}

/// A trace-driven out-of-order core.
pub struct Core {
    id: CoreId,
    cfg: SimConfig,
    trace: Box<dyn TraceSource>,
    trace_done: bool,
    fetch_buf: VecDeque<TraceInst>,
    rob: VecDeque<RobEntry>,
    head_seq: u64,
    next_seq: u64,
    sb: StoreBuffer,
    lq_used: usize,
    int_regs_used: usize,
    fp_regs_used: usize,
    ready_q: BinaryHeap<Reverse<(u64, u64)>>,
    completion: CompletionWindow,
    waiters: WaiterWindow,
    /// Reused buffers for the per-cycle issue loop and the invalidation
    /// snoop (bounded by the issue width / ROB size).
    deferred_scratch: Vec<(u64, u64)>,
    replay_scratch: Vec<u64>,
    record_loads: bool,
    loaded_values: Vec<u64>,
    tracer: Tracer,
    /// Attribution class of the currently open trace span.
    trace_class: AttrClass,
    /// Start cycle of the currently open trace span.
    trace_span_start: Cycle,
    /// Performance counters.
    pub stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("rob", &self.rob.len())
            .field("sb", &self.sb.len())
            .field("committed", &self.stats.committed)
            .finish()
    }
}

impl Core {
    /// Creates a core running `trace` under configuration `cfg`.
    pub fn new(id: CoreId, cfg: &SimConfig, trace: Box<dyn TraceSource>) -> Self {
        Core {
            id,
            cfg: *cfg,
            trace,
            trace_done: false,
            fetch_buf: VecDeque::new(),
            rob: VecDeque::with_capacity(cfg.backend.rob_entries),
            head_seq: 0,
            next_seq: 0,
            sb: StoreBuffer::new(cfg.sb.entries, cfg.sb.forward_latency()),
            lq_used: 0,
            int_regs_used: 0,
            fp_regs_used: 0,
            ready_q: BinaryHeap::new(),
            completion: CompletionWindow::new(cfg.backend.rob_entries),
            waiters: WaiterWindow::new(cfg.backend.rob_entries),
            deferred_scratch: Vec::new(),
            replay_scratch: Vec::new(),
            record_loads: false,
            loaded_values: Vec::new(),
            tracer: Tracer::default(),
            trace_class: AttrClass::Dispatch,
            trace_span_start: Cycle::ZERO,
            stats: CoreStats::default(),
        }
    }

    /// Enables trace recording into a ring of `cap` records.
    pub fn trace_enable(&mut self, cap: usize) {
        self.tracer.enable(cap);
    }

    /// Drains recorded trace events, closing the open stall span at
    /// `now` so the timeline has no trailing gap.
    pub fn take_trace(&mut self, now: Cycle) -> Vec<TraceRecord> {
        self.close_span(now);
        self.trace_span_start = now;
        self.tracer.take()
    }

    /// The stall-attribution ledger (`sum == cycles` at any instant).
    pub fn attribution(&self) -> Attribution {
        self.stats.attr
    }

    /// Charges one cycle to `class` and maintains the stall-span
    /// tracking (a span is emitted when the class changes).
    #[inline]
    fn charge_class(&mut self, class: AttrClass, n: u64, now: Cycle) {
        self.stats.attr.charge(class, n);
        if self.tracer.is_enabled() && class != self.trace_class {
            self.close_span(now);
            self.trace_class = class;
            self.trace_span_start = now;
        }
    }

    /// Emits the open span if it is a stall (dispatch intervals are left
    /// implicit — the interesting signal is where cycles were lost).
    fn close_span(&mut self, now: Cycle) {
        if self.trace_class != AttrClass::Dispatch {
            let dur = now.since(self.trace_span_start);
            if dur > 0 {
                self.tracer.emit(
                    self.trace_span_start,
                    dur,
                    TraceEvent::CommitStall { class: self.trace_class },
                );
            }
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Records every committed load's value (litmus tests, oracles).
    pub fn record_loads(&mut self, on: bool) {
        self.record_loads = on;
    }

    /// Values of committed loads, in program order (when recording).
    pub fn loaded_values(&self) -> &[u64] {
        &self.loaded_values
    }

    /// The store buffer (the drain policy pops committed stores from it).
    pub fn sb(&self) -> &StoreBuffer {
        &self.sb
    }

    /// Mutable access to the store buffer for the drain policy.
    pub fn sb_mut(&mut self) -> &mut StoreBuffer {
        &mut self.sb
    }

    /// Whether the trace is exhausted and the pipeline is empty (the SB
    /// may still hold committed stores for the drain policy).
    pub fn finished(&self) -> bool {
        self.trace_done && self.fetch_buf.is_empty() && self.rob.is_empty()
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Debug description of the ROB head (deadlock diagnostics).
    pub fn describe_head(&self) -> String {
        match self.rob.front() {
            None => "rob empty".to_owned(),
            Some(e) => format!(
                "seq={} op={:?} state={:?} deps_left={} ready_at={} done_at={:?} addr={}",
                e.seq, e.op, e.state, e.deps_left, e.ready_at, e.done_at, e.addr
            ),
        }
    }

    /// Delivers a memory-load completion (token = load sequence number).
    pub fn load_complete(&mut self, token: u64, at: Cycle, value: u64) {
        if token < self.head_seq {
            return; // already squashed/committed (cannot happen today)
        }
        let Some(e) = self.rob_mut(token) else { return };
        debug_assert_eq!(e.op, OpClass::Load);
        if e.state != RState::Issued || e.done_at != Cycle::NEVER {
            // A stale completion for a load that replayed meanwhile.
            return;
        }
        e.done_at = at;
        e.load_value = value;
        e.from_mem = true;
        self.completion.insert(token, at);
        self.wake(token, at);
    }

    /// Replays executed-but-uncommitted loads whose line was invalidated
    /// by a remote write: their bound value may be stale, so they
    /// re-execute. This is the load-queue snoop that preserves load→load
    /// ordering under TSO.
    pub fn on_line_invalidated(&mut self, line: tus_sim::LineAddr, now: Cycle) {
        let head = self.head_seq;
        let mut replays = std::mem::take(&mut self.replay_scratch);
        replays.clear();
        for (i, e) in self.rob.iter_mut().enumerate() {
            if e.op == OpClass::Load
                && e.from_mem
                && e.state == RState::Issued
                && e.done_at != Cycle::NEVER
                && e.addr.line() == line
            {
                e.state = RState::Ready;
                e.done_at = Cycle::NEVER;
                e.ready_at = now + 1;
                e.from_mem = false;
                replays.push(head + i as u64);
            }
        }
        for &seq in &replays {
            self.stats.load_replays += 1;
            self.ready_q.push(Reverse((now.raw() + 1, seq)));
        }
        self.replay_scratch = replays;
    }

    /// Advances one cycle.
    pub fn tick(&mut self, now: Cycle, port: &mut dyn MemPort) {
        self.stats.cycles += 1;
        self.sb.sample_occupancy();
        self.refill_frontend();
        self.commit(now, port);
        self.issue(now, port);
        self.dispatch(now);
    }

    /// Exports the per-core statistics.
    pub fn export_stats(&self) -> StatSet {
        let s = &self.stats;
        let mut out = StatSet::new();
        out.set("cycles", s.cycles as f64);
        out.set("committed", s.committed as f64);
        out.set("loads", s.loads as f64);
        out.set("stores", s.stores as f64);
        out.set("fences", s.fences as f64);
        out.set("stall_rob", s.stall_rob as f64);
        out.set("stall_lq", s.stall_lq as f64);
        out.set(names::STALL_SB, s.stall_sb as f64);
        out.set("stall_regs", s.stall_regs as f64);
        out.set("frontend_idle", s.frontend_idle as f64);
        out.set("fence_wait", s.fence_wait as f64);
        out.set("sb_forwards", s.sb_forwards as f64);
        out.set("policy_forwards", s.policy_forwards as f64);
        out.set("mem_loads", s.mem_loads as f64);
        out.set("load_replays", s.load_replays as f64);
        out.set("sb_searches", self.sb.searches() as f64);
        out.set("sb_peak", self.sb.peak() as f64);
        out.set("sb_mean_occupancy", self.sb.mean_occupancy());
        if s.cycles > 0 {
            out.set("ipc", s.committed as f64 / s.cycles as f64);
        }
        out
    }

    /// Earliest cycle at which `tick` could change core state, given the
    /// drain policy's current answer to [`MemPort::fence_drained`].
    ///
    /// `Some(now)` means "tick me now". A later cycle (or `None`) is only
    /// returned when every pipeline stage is provably a no-op until then:
    /// the front end cannot fetch, the ROB head cannot pop, no ready-queue
    /// entry is due, and dispatch is blocked. External events (memory-load
    /// completions, policy drains freeing the SB) wake the core through the
    /// layers that deliver them, which report their own work.
    pub fn next_work_at(&self, now: Cycle, fence_drained: bool) -> Option<Cycle> {
        // Front-end refill would fetch (or would discover the trace end).
        if !self.trace_done && self.fetch_buf.len() < 2 * self.cfg.backend.dispatch_width {
            return Some(now);
        }
        let mut future: Option<Cycle> = None;
        // Commit: the head pops unless it is a blocked fence; a head still
        // executing completes at `done_at`.
        if let Some(e) = self.rob.front() {
            if e.state == RState::Issued {
                if e.done_at <= now {
                    if !self.fence_blocked(now, fence_drained) {
                        return Some(now);
                    }
                    // A blocked fence only accrues `fence_wait`; the event
                    // that unblocks it lives in the policy/memory layers.
                } else if e.done_at != Cycle::NEVER {
                    future = earliest(future, Some(e.done_at));
                }
            }
        }
        // Issue: any due ready-queue entry is work (popping a stale entry
        // also changes state, so due-ness alone decides).
        if let Some(&Reverse((at, _))) = self.ready_q.peek() {
            if at <= now.raw() {
                return Some(now);
            }
            future = earliest(future, Some(Cycle::new(at)));
        }
        // Dispatch would allocate.
        if self.dispatch_class() == DispatchClass::Dispatch {
            return Some(now);
        }
        future
    }

    /// Charges `n` skipped cycles exactly as `n` lockstep ticks would have,
    /// given that [`Core::next_work_at`] reported no due work throughout
    /// (so the classification below is constant over the stretch).
    pub fn charge_idle(&mut self, n: u64, now: Cycle, fence_drained: bool) {
        self.stats.cycles += n;
        self.sb.sample_occupancy_n(n);
        if self.fence_blocked(now, fence_drained) {
            self.stats.fence_wait += n;
        }
        let class = self.dispatch_class();
        assert_ne!(class, DispatchClass::Dispatch, "idle cycle cannot dispatch");
        self.charge_dispatch(class, false, n, now);
    }

    /// Charges `n` cycles whose dispatch stopped at `class` (after
    /// allocating something, if `dispatched`) to the stall counter and
    /// attribution class a lockstep `dispatch` bumps. The first missing
    /// resource counts even after a partial dispatch; the empty front end
    /// only when nothing dispatched. Attribution is exclusive: a cycle
    /// that dispatched anything is a dispatch cycle, otherwise the first
    /// missing resource (or the empty front end) owns it.
    fn charge_dispatch(&mut self, class: DispatchClass, dispatched: bool, n: u64, now: Cycle) {
        let s = &mut self.stats;
        let (counter, attr) = match class {
            DispatchClass::Dispatch => (None, AttrClass::Dispatch),
            DispatchClass::FrontEmpty => {
                ((!dispatched).then_some(&mut s.frontend_idle), AttrClass::FrontEmpty)
            }
            DispatchClass::Stall(StallReason::Rob) => (Some(&mut s.stall_rob), AttrClass::Rob),
            DispatchClass::Stall(StallReason::Lq) => (Some(&mut s.stall_lq), AttrClass::Lq),
            DispatchClass::Stall(StallReason::Sb) => (Some(&mut s.stall_sb), AttrClass::Sb),
            DispatchClass::Stall(StallReason::Regs) => (Some(&mut s.stall_regs), AttrClass::Regs),
        };
        if let Some(c) = counter {
            *c += n;
        }
        self.charge_class(if dispatched { AttrClass::Dispatch } else { attr }, n, now);
    }

    /// Whether the ROB head is a fence that commit would hold this cycle.
    fn fence_blocked(&self, now: Cycle, fence_drained: bool) -> bool {
        self.rob.front().is_some_and(|e| {
            e.op == OpClass::Fence
                && e.state == RState::Issued
                && e.done_at <= now
                && (self.sb.has_committed() || !fence_drained)
        })
    }

    /// Whether the front instruction can dispatch now, and if not, why
    /// (see [`DispatchClass`]).
    fn dispatch_class(&self) -> DispatchClass {
        let Some(inst) = self.fetch_buf.front() else {
            return DispatchClass::FrontEmpty;
        };
        if self.rob.len() >= self.cfg.backend.rob_entries {
            return DispatchClass::Stall(StallReason::Rob);
        }
        match inst.op {
            OpClass::Load => {
                if self.lq_used >= self.cfg.backend.lq_entries {
                    return DispatchClass::Stall(StallReason::Lq);
                }
            }
            OpClass::Store => {
                if self.sb.is_full() {
                    return DispatchClass::Stall(StallReason::Sb);
                }
            }
            _ => {}
        }
        if inst.op.needs_reg() {
            if inst.op.is_fp() {
                if self.fp_regs_used >= self.cfg.backend.fp_regs {
                    return DispatchClass::Stall(StallReason::Regs);
                }
            } else if self.int_regs_used >= self.cfg.backend.int_regs {
                return DispatchClass::Stall(StallReason::Regs);
            }
        }
        DispatchClass::Dispatch
    }

    // ------------------------------------------------------------------

    fn rob_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.rob.get_mut(idx)
    }

    fn refill_frontend(&mut self) {
        // Fetch/decode/rename collapsed into one stage with the narrowest
        // width (rename, 6) as bandwidth.
        let width = self
            .cfg
            .frontend
            .rename_width
            .min(self.cfg.frontend.decode_width)
            .min(self.cfg.frontend.fetch_width);
        for _ in 0..width {
            if self.fetch_buf.len() >= 2 * self.cfg.backend.dispatch_width {
                break;
            }
            match self.trace.next_inst() {
                Some(i) => self.fetch_buf.push_back(i),
                None => {
                    self.trace_done = true;
                    break;
                }
            }
        }
    }

    fn dispatch(&mut self, now: Cycle) {
        let mut dispatched = 0;
        let mut class = DispatchClass::Dispatch;
        while dispatched < self.cfg.backend.dispatch_width {
            class = self.dispatch_class();
            if class != DispatchClass::Dispatch {
                break;
            }
            // All resources available: allocate.
            let inst = self.fetch_buf.pop_front().expect("dispatch class saw an instruction");
            let seq = self.next_seq;
            self.next_seq += 1;
            if inst.op.needs_reg() {
                if inst.op.is_fp() {
                    self.fp_regs_used += 1;
                } else {
                    self.int_regs_used += 1;
                }
            }
            match inst.op {
                OpClass::Load => self.lq_used += 1,
                OpClass::Store => {
                    self.sb
                        .push(inst.addr, inst.size, inst.value, seq)
                        .expect("checked not full");
                }
                _ => {}
            }
            let mut e = RobEntry {
                seq,
                op: inst.op,
                addr: inst.addr,
                size: inst.size,
                value: inst.value,
                state: RState::Waiting,
                deps_left: 0,
                ready_at: now + 1,
                load_value: 0,
                done_at: Cycle::NEVER,
                from_mem: false,
            };
            if inst.op == OpClass::Fence {
                // Fences do not execute; their ordering is enforced at
                // commit.
                e.state = RState::Issued;
                e.done_at = now;
                self.completion.insert(seq, now);
            } else {
                for d in [inst.dep1, inst.dep2] {
                    if d == 0 {
                        continue;
                    }
                    let Some(p) = seq.checked_sub(d as u64) else {
                        continue;
                    };
                    if let Some(c) = self.completion.get(p) {
                        if e.ready_at < c {
                            e.ready_at = c;
                        }
                    } else if p >= self.head_seq {
                        // Producer still in flight without a known
                        // completion time.
                        self.waiters.push(p, seq);
                        e.deps_left += 1;
                    }
                    // Producers older than the window completed long ago.
                }
                if e.deps_left == 0 {
                    e.state = RState::Ready;
                    self.ready_q.push(Reverse((e.ready_at.raw(), seq)));
                }
            }
            self.rob.push_back(e);
            dispatched += 1;
        }
        self.charge_dispatch(class, dispatched > 0, 1, now);
    }

    fn issue(&mut self, now: Cycle, port: &mut dyn MemPort) {
        let mut issued = 0;
        let mut int_only_free = self.cfg.backend.int_only_alus;
        let mut general_free = self.cfg.backend.general_alus;
        let mut deferred = std::mem::take(&mut self.deferred_scratch);
        deferred.clear();
        while issued < self.cfg.backend.issue_width {
            let Some(&Reverse((at, seq))) = self.ready_q.peek() else {
                break;
            };
            if at > now.raw() {
                break;
            }
            self.ready_q.pop();
            let Some(e) = self.rob_mut(seq) else { continue };
            if e.state != RState::Ready {
                continue;
            }
            let op = e.op;
            // Functional-unit constraints.
            match op {
                OpClass::IntAlu => {
                    if int_only_free > 0 {
                        int_only_free -= 1;
                    } else if general_free > 0 {
                        general_free -= 1;
                    } else {
                        deferred.push((now.raw() + 1, seq));
                        continue;
                    }
                }
                o if o.needs_general_alu() => {
                    if general_free > 0 {
                        general_free -= 1;
                    } else {
                        deferred.push((now.raw() + 1, seq));
                        continue;
                    }
                }
                _ => {} // loads/stores/fences use the AGU/ports
            }
            match op {
                OpClass::Load => {
                    let (addr, size) = {
                        let e = self.rob_mut(seq).expect("entry exists");
                        (e.addr, e.size as usize)
                    };
                    match self.sb.forward(addr, size, seq) {
                        ForwardResult::Hit { value } => {
                            self.stats.sb_forwards += 1;
                            let done = now + self.sb.forward_latency();
                            self.finish_exec(seq, done, Some(value));
                        }
                        ForwardResult::NotReady | ForwardResult::Partial => {
                            deferred.push((now.raw() + 1, seq));
                            continue;
                        }
                        ForwardResult::Miss => match port.forward_load(addr, size) {
                            ForwardResult::Hit { value } => {
                                self.stats.policy_forwards += 1;
                                let done = now + self.cfg.mem.l1d.latency;
                                self.finish_exec(seq, done, Some(value));
                            }
                            ForwardResult::NotReady | ForwardResult::Partial => {
                                deferred.push((now.raw() + 1, seq));
                                continue;
                            }
                            ForwardResult::Miss => {
                                self.stats.mem_loads += 1;
                                let e = self.rob_mut(seq).expect("entry exists");
                                e.state = RState::Issued;
                                port.issue_load(addr, size, seq, now);
                            }
                        },
                    }
                }
                OpClass::Store => {
                    // Execution produces address + data.
                    self.sb.mark_executed(seq);
                    self.finish_exec(seq, now + 1, None);
                }
                OpClass::Fence => unreachable!("fences never enter the ready queue"),
                alu => {
                    let lat = self.latency_of(alu);
                    self.finish_exec(seq, now + lat, None);
                }
            }
            issued += 1;
        }
        for &(at, seq) in &deferred {
            if let Some(e) = self.rob_mut(seq) {
                e.ready_at = Cycle::new(at);
            }
            self.ready_q.push(Reverse((at, seq)));
        }
        self.deferred_scratch = deferred;
    }

    fn latency_of(&self, op: OpClass) -> u64 {
        let l = &self.cfg.latency;
        match op {
            OpClass::IntAlu => l.int_add,
            OpClass::IntMul => l.int_mul,
            OpClass::IntDiv => l.int_div,
            OpClass::FpAdd => l.fp_add,
            OpClass::FpMul => l.fp_mul,
            OpClass::FpDiv => l.fp_div,
            _ => 1,
        }
    }

    fn finish_exec(&mut self, seq: u64, done: Cycle, load_value: Option<u64>) {
        let e = self.rob_mut(seq).expect("entry exists");
        e.state = RState::Issued;
        e.done_at = done;
        if let Some(v) = load_value {
            e.load_value = v;
        }
        self.completion.insert(seq, done);
        self.wake(seq, done);
    }

    fn wake(&mut self, producer: u64, done: Cycle) {
        let Some(mut ws) = self.waiters.take(producer) else {
            return;
        };
        for c in ws.drain(..) {
            let Some(e) = self.rob_mut(c) else { continue };
            if e.ready_at < done {
                e.ready_at = done;
            }
            debug_assert!(e.deps_left > 0);
            e.deps_left -= 1;
            if e.deps_left == 0 && e.state == RState::Waiting {
                e.state = RState::Ready;
                let at = e.ready_at.raw();
                self.ready_q.push(Reverse((at, c)));
            }
        }
        self.waiters.restore(producer, ws);
    }

    fn commit(&mut self, now: Cycle, port: &mut dyn MemPort) {
        let mut committed = 0;
        while committed < self.cfg.backend.commit_width {
            let Some(e) = self.rob.front() else { break };
            if e.state != RState::Issued || e.done_at > now {
                break;
            }
            // A fence commits only once every *older* store has left the
            // SB (older stores are exactly the committed entries — commit
            // is in order) and the policy-side buffers have drained.
            if e.op == OpClass::Fence && (self.sb.has_committed() || !port.fence_drained()) {
                self.stats.fence_wait += 1;
                break;
            }
            let e = *e;
            match e.op {
                OpClass::Load => {
                    self.lq_used -= 1;
                    self.int_regs_used -= 1;
                    self.stats.loads += 1;
                    if self.record_loads {
                        self.loaded_values.push(e.load_value);
                    }
                }
                OpClass::Store => {
                    self.sb.mark_committed(e.seq);
                    port.store_committed(e.addr, e.size as usize, now);
                    self.stats.stores += 1;
                }
                OpClass::Fence => self.stats.fences += 1,
                op => {
                    if op.is_fp() {
                        self.fp_regs_used -= 1;
                    } else {
                        self.int_regs_used -= 1;
                    }
                }
            }
            self.rob.pop_front();
            self.head_seq += 1;
            self.stats.committed += 1;
            committed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;

    /// A memory port where every load hits in 5 cycles and fences drain
    /// instantly (the SB itself is drained by the test).
    struct NullPort {
        issued: Vec<(Addr, u64)>,
        committed_stores: Vec<Addr>,
    }

    impl NullPort {
        fn new() -> Self {
            NullPort {
                issued: Vec::new(),
                committed_stores: Vec::new(),
            }
        }
    }

    impl MemPort for NullPort {
        fn forward_load(&mut self, _addr: Addr, _size: usize) -> ForwardResult {
            ForwardResult::Hit { value: 0 }
        }
        fn issue_load(&mut self, addr: Addr, _size: usize, token: u64, _now: Cycle) {
            self.issued.push((addr, token));
        }
        fn store_committed(&mut self, addr: Addr, _size: usize, _now: Cycle) {
            self.committed_stores.push(addr);
        }
        fn fence_drained(&mut self) -> bool {
            true
        }
    }

    fn run(core: &mut Core, port: &mut NullPort, max_cycles: u64, drain_sb: bool) -> u64 {
        for t in 0..max_cycles {
            core.tick(Cycle::new(t), port);
            if drain_sb {
                while core.sb().head().is_some_and(|e| e.committed) {
                    core.sb_mut().pop_head();
                }
            }
            if core.finished() && core.sb().is_empty() {
                return t;
            }
        }
        panic!("core did not finish in {max_cycles} cycles");
    }

    fn default_core(insts: Vec<TraceInst>) -> Core {
        let cfg = SimConfig::default();
        Core::new(CoreId::new(0), &cfg, Box::new(VecTrace::new(insts)))
    }

    #[test]
    fn commits_all_instructions() {
        let mut core = default_core(vec![TraceInst::alu(); 100]);
        let mut port = NullPort::new();
        run(&mut core, &mut port, 1000, true);
        assert_eq!(core.committed(), 100);
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let n = 10_000;
        let mut core = default_core(vec![TraceInst::alu(); n]);
        let mut port = NullPort::new();
        let cycles = run(&mut core, &mut port, 100_000, true);
        let ipc = n as f64 / cycles as f64;
        // Limited by 4 ALUs; should sustain close to 4.
        assert!(ipc > 3.0, "ipc {ipc}");
    }

    #[test]
    fn dependency_chain_serializes() {
        let n = 1000;
        let insts: Vec<_> = (0..n).map(|_| TraceInst::alu().with_deps(1, 0)).collect();
        let mut core = default_core(insts);
        let mut port = NullPort::new();
        let cycles = run(&mut core, &mut port, 100_000, true);
        // A chain of 1-cycle ops commits about one per cycle.
        assert!(cycles as usize >= n - 1, "cycles {cycles} for chain of {n}");
        assert!((cycles as usize) < n + 200, "cycles {cycles}");
    }

    #[test]
    fn div_chain_serializes_at_div_latency() {
        let n = 200;
        let mut insts = vec![TraceInst::alu()];
        for _ in 0..n {
            insts.push(TraceInst {
                op: OpClass::IntDiv,
                ..TraceInst::alu().with_deps(1, 0)
            });
        }
        let mut core = default_core(insts);
        let mut port = NullPort::new();
        let cycles = run(&mut core, &mut port, 100_000, true);
        assert!(cycles >= 12 * n as u64, "cycles {cycles}");
    }

    #[test]
    fn sb_full_stalls_dispatch_and_attributes() {
        // Stores are never drained: the SB fills and dispatch stalls on it.
        let cfg = SimConfig::builder().sb_entries(8).build();
        let insts: Vec<_> = (0..64)
            .map(|i| TraceInst::store(Addr::new(i * 64), 8, i))
            .collect();
        let mut core = Core::new(CoreId::new(0), &cfg, Box::new(VecTrace::new(insts)));
        let mut port = NullPort::new();
        for t in 0..200 {
            core.tick(Cycle::new(t), &mut port);
        }
        assert!(core.stats.stall_sb > 0, "no SB stalls recorded");
        assert_eq!(core.sb().len(), 8);
        // Commits stopped at SB capacity.
        assert_eq!(core.committed(), 8);
    }

    #[test]
    fn store_forwarding_to_younger_load() {
        let a = Addr::new(0x100);
        let insts = vec![TraceInst::store(a, 8, 42), TraceInst::load(a, 8)];
        let mut core = default_core(insts);
        core.record_loads(true);
        let mut port = NullPort::new();
        run(&mut core, &mut port, 1000, true);
        assert_eq!(core.loaded_values(), &[42]);
        assert_eq!(core.stats.sb_forwards, 1);
        assert_eq!(core.stats.mem_loads, 0);
    }

    #[test]
    fn loads_issue_to_port_on_sb_miss() {
        let cfg = SimConfig::default();
        let insts = vec![TraceInst::load(Addr::new(0x200), 8)];
        let mut core = Core::new(CoreId::new(0), &cfg, Box::new(VecTrace::new(insts)));
        struct MissPort(Vec<u64>);
        impl MemPort for MissPort {
            fn forward_load(&mut self, _a: Addr, _s: usize) -> ForwardResult {
                ForwardResult::Miss
            }
            fn issue_load(&mut self, _a: Addr, _s: usize, token: u64, _n: Cycle) {
                self.0.push(token);
            }
            fn store_committed(&mut self, _a: Addr, _s: usize, _n: Cycle) {}
            fn fence_drained(&mut self) -> bool {
                true
            }
        }
        let mut port = MissPort(Vec::new());
        for t in 0..20 {
            core.tick(Cycle::new(t), &mut port);
        }
        assert_eq!(port.0.len(), 1, "load must reach the memory system");
        let token = port.0[0];
        assert_eq!(core.committed(), 0, "load cannot commit before data");
        core.load_complete(token, Cycle::new(25), 7);
        core.record_loads(true);
        for t in 20..40 {
            core.tick(Cycle::new(t), &mut port);
        }
        assert_eq!(core.committed(), 1);
        assert_eq!(core.loaded_values(), &[7]);
    }

    #[test]
    fn fence_waits_for_sb_drain() {
        let insts = vec![
            TraceInst::store(Addr::new(0), 8, 1),
            TraceInst::fence(),
            TraceInst::alu(),
        ];
        let mut core = default_core(insts);
        let mut port = NullPort::new();
        // Without draining the SB, the fence never commits.
        for t in 0..100 {
            core.tick(Cycle::new(t), &mut port);
        }
        assert_eq!(core.committed(), 1, "only the store commits");
        assert!(core.stats.fence_wait > 0);
        // Drain the SB: the fence and the ALU commit.
        while core.sb().head().is_some_and(|e| e.committed) {
            core.sb_mut().pop_head();
        }
        for t in 100..200 {
            core.tick(Cycle::new(t), &mut port);
        }
        assert_eq!(core.committed(), 3);
    }

    #[test]
    fn store_commit_notifies_port() {
        let insts = vec![TraceInst::store(Addr::new(0x40), 8, 1)];
        let mut core = default_core(insts);
        let mut port = NullPort::new();
        for t in 0..50 {
            core.tick(Cycle::new(t), &mut port);
        }
        assert_eq!(port.committed_stores, vec![Addr::new(0x40)]);
    }

    #[test]
    fn rob_full_attributed_when_load_blocks_head() {
        // A load that never completes blocks commit; the ROB fills.
        struct BlackHole;
        impl MemPort for BlackHole {
            fn forward_load(&mut self, _a: Addr, _s: usize) -> ForwardResult {
                ForwardResult::Miss
            }
            fn issue_load(&mut self, _a: Addr, _s: usize, _t: u64, _n: Cycle) {}
            fn store_committed(&mut self, _a: Addr, _s: usize, _n: Cycle) {}
            fn fence_drained(&mut self) -> bool {
                true
            }
        }
        let cfg = SimConfig::default();
        let mut insts = vec![TraceInst::load(Addr::new(0), 8)];
        // Alternate int/fp so physical registers (332+332) outlast the
        // 512-entry ROB and the ROB is the first missing resource.
        for i in 0..2000 {
            insts.push(if i % 2 == 0 {
                TraceInst::alu()
            } else {
                TraceInst {
                    op: OpClass::FpAdd,
                    ..TraceInst::alu()
                }
            });
        }
        let mut core = Core::new(CoreId::new(0), &cfg, Box::new(VecTrace::new(insts)));
        let mut port = BlackHole;
        for t in 0..500 {
            core.tick(Cycle::new(t), &mut port);
        }
        assert!(core.stats.stall_rob > 0);
        assert_eq!(core.committed(), 0);
    }

    #[test]
    fn finished_core_reports_no_work_and_charges_idle() {
        let mut core = default_core(vec![TraceInst::alu(); 10]);
        let mut port = NullPort::new();
        let end = run(&mut core, &mut port, 100, true);
        let now = Cycle::new(end + 1);
        assert_eq!(core.next_work_at(now, true), None);
        let before = core.stats.frontend_idle;
        core.charge_idle(41, now, true);
        assert_eq!(core.stats.frontend_idle, before + 41);
        assert_eq!(core.stats.cycles, end + 1 + 41);
    }

    #[test]
    fn busy_core_claims_work_now() {
        let core = default_core(vec![TraceInst::alu(); 10]);
        // Nothing fetched yet: the refill stage alone is pending work.
        assert_eq!(core.next_work_at(Cycle::ZERO, true), Some(Cycle::ZERO));
    }

    #[test]
    fn sb_blocked_store_charges_stall_sb() {
        let cfg = SimConfig::builder().sb_entries(8).build();
        let insts: Vec<_> = (0..64)
            .map(|i| TraceInst::store(Addr::new(i * 64), 8, i))
            .collect();
        let mut core = Core::new(CoreId::new(0), &cfg, Box::new(VecTrace::new(insts)));
        let mut port = NullPort::new();
        for t in 0..200 {
            core.tick(Cycle::new(t), &mut port);
        }
        // SB full, nothing drains: idle until the policy frees an entry.
        let now = Cycle::new(200);
        assert_eq!(core.next_work_at(now, true), None);
        let before = core.stats.stall_sb;
        core.charge_idle(17, now, true);
        assert_eq!(core.stats.stall_sb, before + 17);
    }

    /// The accountant partitions cycles under both ticking and bulk idle
    /// charging: every cycle lands in exactly one class.
    #[test]
    fn attribution_partitions_every_cycle() {
        let mut core = default_core(vec![TraceInst::alu(); 500]);
        let mut port = NullPort::new();
        let end = run(&mut core, &mut port, 10_000, true);
        assert_eq!(core.attribution().total(), core.stats.cycles);
        assert!(core.attribution().get(AttrClass::Dispatch) > 0);
        core.charge_idle(13, Cycle::new(end + 1), true);
        assert_eq!(core.attribution().total(), core.stats.cycles);
    }

    /// With tracing on, SB-stall intervals come out as spans; without, the
    /// counters are unchanged (checked end to end by the invariant suite).
    #[test]
    fn stall_spans_are_recorded_when_tracing() {
        let cfg = SimConfig::builder().sb_entries(8).build();
        let insts: Vec<_> = (0..64)
            .map(|i| TraceInst::store(Addr::new(i * 64), 8, i))
            .collect();
        let mut core = Core::new(CoreId::new(0), &cfg, Box::new(VecTrace::new(insts)));
        core.trace_enable(1024);
        let mut port = NullPort::new();
        for t in 0..200 {
            core.tick(Cycle::new(t), &mut port);
        }
        let recs = core.take_trace(Cycle::new(200));
        assert!(
            recs.iter().any(|r| {
                matches!(r.ev, TraceEvent::CommitStall { class: AttrClass::Sb }) && r.dur > 0
            }),
            "expected an SB stall span, got {recs:?}"
        );
    }

    #[test]
    fn stats_export_contains_ipc() {
        let mut core = default_core(vec![TraceInst::alu(); 10]);
        let mut port = NullPort::new();
        run(&mut core, &mut port, 100, true);
        let s = core.export_stats();
        assert!(s.get("ipc") > 0.0);
        assert_eq!(s.get("committed"), 10.0);
    }
}
