//! The coherence home node: one [`Directory`] for both protocols.
//!
//! The per-core private cache controllers ([`crate::percore`]) talk to the
//! home exclusively through [`Msg`]s on the network. The home processes one
//! transaction per line at a time (an *atomic directory*): requests that
//! arrive for a busy line queue and are replayed in order when the current
//! transaction completes. Combined with per-channel FIFO delivery in
//! [`crate::net::Network`], this keeps the protocols race-free without
//! transient-state explosion, while still exercising the cross-core
//! interactions TUS cares about — most importantly, forwarded requests that
//! an owner may *delay* (leaving the transaction open until the line
//! becomes visible) or answer with a *relinquish* carrying the old copy
//! from its private L2 (paper Section III-C).
//!
//! Everything that does not depend on the protocol lives here once: line
//! interning, the per-line transaction slab with its queues and replays,
//! the shared L3 and DRAM, tracing and statistics. A protocol keeps only
//! its per-line state and its rules for a request, an owner's answer, an
//! invalidation ack and an eviction:
//!
//! * [`mesi`] — the paper's invalidation-based full-map directory: owner
//!   plus sharer bitset.
//! * [`tardis`] — a Tardis-2.0-style logical-timestamp protocol: owner
//!   plus a `wts`/`rts` lease. Reads take bounded leases, writes jump the
//!   writer's logical time past every outstanding lease, and *no
//!   invalidation messages exist*. Its core side, the program timestamp
//!   and the leases a core holds, is the `tardis::Clock` each per-core
//!   controller keeps under Tardis.
//!
//! The protocol is picked once per simulation ([`CoherenceKind`]); each
//! inbound message and each DRAM fill pays one `match` on it.
//!
//! Timing: network hops are charged by the interconnect; DRAM fetches add
//! the configured latency (plus queuing when more than
//! `dram_max_inflight` fetches are outstanding). The L3 acts as a latency
//! filter — lines present in the L3 array grant without the DRAM delay.
//! The L3 is kept write-through with respect to [`MainMemory`], so memory
//! always holds the last written-back data.

use std::collections::VecDeque;

use tus_sim::trace::{TraceEvent, TraceRecord, Tracer};
use tus_sim::{
    CoherenceKind, CoreId, Cycle, DelayQueue, LineAddr, LineId, LineInterner, Slab, StatSet,
};

use crate::cache::L3Cache;
use crate::line::LineData;
use crate::mainmem::MainMemory;
use crate::mesi::Mesi;
use crate::msgs::{FwdKind, Lease, Msg, ReqKind};
use crate::net::{Network, Node};

pub mod mesi;
pub mod tardis;

/// A core's request as the home holds it: the one an open transaction
/// serves, or one queued behind it. Its line is the transaction's.
#[derive(Debug, Clone, Copy)]
struct Request {
    core: CoreId,
    kind: ReqKind,
    prefetch: bool,
    /// The requester's logical timestamp at request time (0 under MESI).
    pts: u64,
}

impl Request {
    /// Sends the requester its grant for `line`.
    fn grant(
        &self,
        line: LineAddr,
        state: Mesi,
        data: Option<Box<LineData>>,
        lease: Option<Lease>,
        net: &mut Network,
        now: Cycle,
    ) {
        net.send(
            Node::Dir,
            Node::Core(self.core),
            now,
            Msg::Grant {
                line,
                state,
                data,
                kind: self.kind,
                prefetch: self.prefetch,
                lease,
            },
        );
    }
}

/// An open transaction: the request it serves and those queued behind it.
#[derive(Debug)]
struct Transaction {
    req: Request,
    /// Sharer invalidations not yet acknowledged (MESI only).
    pending_acks: usize,
    /// The requester's copy is current, so the grant carries no data
    /// (MESI only).
    perm_only: bool,
    waiting_mem: bool,
    queued: VecDeque<Request>,
}

impl Default for Transaction {
    fn default() -> Self {
        Transaction {
            req: Request {
                core: CoreId::new(0),
                kind: ReqKind::GetS,
                prefetch: false,
                pts: 0,
            },
            pending_acks: 0,
            perm_only: false,
            waiting_mem: false,
            queued: VecDeque::new(),
        }
    }
}

/// Slot index in the transaction slab meaning "no open transaction".
const NO_TRANS: u32 = u32::MAX;

/// Running counters exported into the run's [`StatSet`].
#[derive(Debug, Default)]
struct Stats {
    /// GetS requests processed.
    gets: u64,
    /// GetM requests processed.
    getm: u64,
    /// Forwards (Inv/Downgrade) sent to owners.
    fwds: u64,
    /// Invalidations sent to sharers (MESI only).
    invs: u64,
    /// Read-lease extensions (Tardis only: every non-owner GetS).
    lease_extends: u64,
    /// L3 data hits.
    l3_hits: u64,
    /// L3 misses (DRAM fetches).
    l3_misses: u64,
    /// Relinquish responses received (TUS lex-order deadlock avoidance).
    relinquishes: u64,
    /// Dirty write-backs received.
    writebacks: u64,
}

/// The protocol-independent half of the home node.
///
/// Line addresses are interned into [`LineId`]s at the message boundary
/// (one hash lookup per inbound message), and the open-transaction
/// handles live in a flat array indexed by id. Open transactions are
/// slots in a [`Slab`] whose free list retains each slot's queue
/// capacity, so the steady-state open/close churn allocates nothing.
struct Home {
    cores: usize,
    lines: LineInterner,
    /// Open-transaction slab slot per line ([`NO_TRANS`] when idle).
    trans_idx: Vec<u32>,
    trans: Slab<Transaction>,
    l3: L3Cache,
    dram: DelayQueue<LineId>,
    dram_busy_until: Cycle,
    dram_latency: u64,
    dram_gap: u64,
    /// Requests released by completed transactions, with their lines.
    replays: VecDeque<(LineAddr, Request)>,
    tracer: Tracer,
    stats: Stats,
}

impl Home {
    /// The open transaction on `id`, if any.
    #[inline]
    fn tr(&self, id: LineId) -> Option<&Transaction> {
        let slot = self.trans_idx[id.index()];
        (slot != NO_TRANS).then(|| self.trans.get(slot))
    }

    /// Mutable access to the open transaction on `id`, if any.
    #[inline]
    fn tr_mut(&mut self, id: LineId) -> Option<&mut Transaction> {
        let slot = self.trans_idx[id.index()];
        (slot != NO_TRANS).then(|| self.trans.get_mut(slot))
    }

    /// The request the open transaction on `id` serves.
    fn serving(&self, id: LineId) -> Request {
        self.tr(id).expect("transaction open").req
    }

    /// Opens a transaction serving `req` on `id`, reusing a warm slab slot
    /// whose queue is empty but keeps its capacity from earlier occupants.
    fn open(&mut self, id: LineId, req: Request) -> &mut Transaction {
        debug_assert_eq!(self.trans_idx[id.index()], NO_TRANS);
        let slot = self.trans.alloc();
        self.trans_idx[id.index()] = slot;
        let t = self.trans.get_mut(slot);
        debug_assert!(t.queued.is_empty());
        t.req = req;
        t.pending_acks = 0;
        t.perm_only = false;
        t.waiting_mem = false;
        t
    }

    /// Opens a transaction for `req` and forwards it to the line's
    /// `owner`, whose [`Msg::FwdResp`] the transaction then waits for.
    fn forward(&mut self, id: LineId, req: Request, owner: CoreId, net: &mut Network, now: Cycle) {
        let kind = match req.kind {
            ReqKind::GetS => FwdKind::Downgrade,
            ReqKind::GetM => FwdKind::Inv,
        };
        self.stats.fwds += 1;
        self.open(id, req);
        net.send(
            Node::Dir,
            Node::Core(owner),
            now,
            Msg::Fwd {
                line: self.lines.addr(id),
                kind,
                to_owner: true,
            },
        );
    }

    /// Closes the transaction on `id`: queues the requests that waited on
    /// it for replay, then releases the slab slot. The memory system feeds
    /// the replays back through [`Directory::handle`] in the same cycle,
    /// which re-serializes them correctly if the first replay opens a new
    /// transaction.
    fn complete(&mut self, id: LineId) {
        let slot = self.trans_idx[id.index()];
        debug_assert_ne!(slot, NO_TRANS, "transaction open");
        self.trans_idx[id.index()] = NO_TRANS;
        let line = self.lines.addr(id);
        let queued = self.trans.get_mut(slot).queued.drain(..);
        self.replays.extend(queued.map(|r| (line, r)));
        self.trans.release(slot);
    }

    /// Data for the open transaction on `id`: a copy of the L3's line now,
    /// or `None` after queuing a DRAM fetch, whose data
    /// [`Home::pop_fill`] returns once it completes.
    fn fetch(&mut self, id: LineId, net: &mut Network, now: Cycle) -> Option<Box<LineData>> {
        let line = self.lines.addr(id);
        if let Some((set, way)) = self.l3.lookup(line) {
            self.stats.l3_hits += 1;
            self.tracer.emit(
                now,
                0,
                TraceEvent::DramAccess {
                    line: line.raw(),
                    l3_hit: true,
                },
            );
            self.l3.touch(set, way);
            return Some(net.alloc_data_copy(self.l3.data(set, way)));
        }
        self.stats.l3_misses += 1;
        let start = now.max(self.dram_busy_until);
        self.dram_busy_until = start + self.dram_gap;
        let done = start + self.dram_latency;
        self.dram.push(done, id);
        self.tracer.emit(
            now,
            done.since(now),
            TraceEvent::DramAccess {
                line: line.raw(),
                l3_hit: false,
            },
        );
        self.tr_mut(id).expect("transaction open").waiting_mem = true;
        None
    }

    /// Completes the DRAM fetches due at `now`, oldest first, filling the
    /// L3 with each. Returns the first whose transaction waits for the
    /// data, with that data; the others' data is recycled.
    #[inline]
    fn pop_fill(
        &mut self,
        net: &mut Network,
        mem: &mut MainMemory,
        now: Cycle,
    ) -> Option<(LineId, Box<LineData>)> {
        while let Some(id) = self.dram.pop_due(now) {
            let line = self.lines.addr(id);
            let mut data = net.alloc_data();
            mem.read_into(line, &mut data);
            self.fill_l3(line, &data);
            if let Some(t) = self.tr_mut(id).filter(|t| t.waiting_mem) {
                t.waiting_mem = false;
                return Some((id, data));
            }
            net.recycle_data(data);
        }
        None
    }

    /// Takes an owner's answer to a forward: writes back the data it
    /// carries and counts a relinquish. Returns the request the line's
    /// transaction serves, with the data to grant it. A stale answer (its
    /// transaction was aborted) returns `None`; its data is recycled.
    fn answer(
        &mut self,
        id: LineId,
        data: Option<Box<LineData>>,
        relinquished: bool,
        net: &mut Network,
        mem: &mut MainMemory,
    ) -> Option<(Request, Option<Box<LineData>>)> {
        if let Some(d) = &data {
            self.write_back(self.lines.addr(id), d, mem);
        }
        let Some(req) = self.tr(id).map(|t| t.req) else {
            if let Some(d) = data {
                net.recycle_data(d);
            }
            return None;
        };
        if relinquished {
            self.stats.relinquishes += 1;
        }
        Some((req, data))
    }

    /// Takes an eviction notice: dirty data is written back.
    fn evicted(
        &mut self,
        id: LineId,
        data: Option<Box<LineData>>,
        net: &mut Network,
        mem: &mut MainMemory,
    ) {
        if let Some(d) = data {
            self.stats.writebacks += 1;
            self.write_back(self.lines.addr(id), &d, mem);
            net.recycle_data(d);
        }
    }

    fn write_back(&mut self, line: LineAddr, data: &LineData, mem: &mut MainMemory) {
        mem.write(line, data);
        self.fill_l3(line, data);
    }

    fn fill_l3(&mut self, line: LineAddr, data: &LineData) {
        if let Some((set, way)) = self.l3.lookup(line) {
            *self.l3.data_mut(set, way) = *data;
            self.l3.touch(set, way);
        } else {
            // L3 is write-through w.r.t. memory, so eviction is a silent
            // drop and allocation never needs a write-back.
            let (set, way) = self.l3.insert(line);
            *self.l3.data_mut(set, way) = *data;
        }
    }
}

/// Per-line state of the protocol the home runs, indexed by [`LineId`].
enum Entries {
    Mesi(Vec<mesi::Entry>),
    Tardis(Vec<tardis::Entry>),
}

/// The coherence home node and shared LLC.
pub struct Directory {
    home: Home,
    entries: Entries,
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let coherence = match self.entries {
            Entries::Mesi(_) => CoherenceKind::Mesi,
            Entries::Tardis(_) => CoherenceKind::Tardis,
        };
        f.debug_struct("Directory")
            .field("coherence", &coherence)
            .field("cores", &self.home.cores)
            .field("entries", &self.home.lines.len())
            .field("open_transactions", &self.open_transactions())
            .finish()
    }
}

impl Directory {
    /// Creates the home node of `coherence` for `cores` cores, with an L3
    /// of the given geometry and DRAM latency.
    pub fn new(
        coherence: CoherenceKind,
        cores: usize,
        l3_sets: usize,
        l3_ways: usize,
        dram_latency: u64,
        dram_max_inflight: usize,
    ) -> Self {
        let entries = match coherence {
            CoherenceKind::Mesi => {
                assert!(cores <= 64, "sharer bitset holds at most 64 cores");
                Entries::Mesi(Vec::new())
            }
            CoherenceKind::Tardis => Entries::Tardis(Vec::new()),
        };
        // A simple bandwidth model: with N permitted in-flight requests and
        // latency L, a new request can start every L/N cycles.
        let dram_gap = (dram_latency / dram_max_inflight.max(1) as u64).max(1);
        let home = Home {
            cores,
            lines: LineInterner::new(),
            trans_idx: Vec::new(),
            trans: Slab::new(),
            l3: L3Cache::new(l3_sets, l3_ways),
            dram: DelayQueue::new(),
            dram_busy_until: Cycle::ZERO,
            dram_latency,
            dram_gap,
            replays: VecDeque::new(),
            tracer: Tracer::default(),
            stats: Stats::default(),
        };
        Directory { home, entries }
    }

    /// Interns `line`, growing the dense per-line arrays on first touch.
    #[inline]
    fn intern(&mut self, line: LineAddr) -> LineId {
        let id = self.home.lines.intern(line);
        if self.home.trans_idx.len() < self.home.lines.len() {
            self.home.trans_idx.push(NO_TRANS);
            match &mut self.entries {
                Entries::Mesi(e) => e.push(mesi::Entry::default()),
                Entries::Tardis(e) => e.push(tardis::Entry::default()),
            }
        }
        id
    }

    /// Arms structured L3/DRAM access tracing with a ring of `cap`
    /// records.
    pub fn trace_enable(&mut self, cap: usize) {
        self.home.tracer.enable(cap);
    }

    /// Drains the buffered trace records, oldest first.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.home.tracer.take()
    }

    /// Handles one inbound message (request, owner's answer, invalidation
    /// ack or eviction notice).
    pub fn handle(&mut self, msg: Msg, net: &mut Network, mem: &mut MainMemory, now: Cycle) {
        match msg {
            Msg::Req {
                core,
                line,
                kind,
                prefetch,
                pts,
            } => {
                let id = self.intern(line);
                let home = &mut self.home;
                let req = Request {
                    core,
                    kind,
                    prefetch,
                    pts,
                };
                if let Some(t) = home.tr_mut(id) {
                    t.queued.push_back(req);
                    return;
                }
                match kind {
                    ReqKind::GetS => home.stats.gets += 1,
                    ReqKind::GetM => home.stats.getm += 1,
                }
                match &mut self.entries {
                    Entries::Mesi(e) => mesi::request(home, e, id, req, net, now),
                    Entries::Tardis(e) => tardis::request(home, e, id, req, net, now),
                }
            }
            Msg::FwdResp {
                core,
                line,
                data,
                relinquished,
                lease,
            } => {
                let id = self.intern(line);
                let home = &mut self.home;
                match &mut self.entries {
                    Entries::Mesi(e) => {
                        mesi::answer(home, e, core, id, data, relinquished, net, mem, now)
                    }
                    Entries::Tardis(e) => {
                        tardis::answer(home, e, id, data, relinquished, lease, net, mem, now)
                    }
                }
            }
            Msg::InvAck { core, line } => {
                let id = self.intern(line);
                match &mut self.entries {
                    Entries::Mesi(e) => mesi::inv_ack(&mut self.home, e, core, id, net, now),
                    Entries::Tardis(_) => {
                        unreachable!("tardis sends no invalidations, so no InvAck can arrive")
                    }
                }
            }
            Msg::Evict {
                core,
                line,
                data,
                lease,
            } => {
                let id = self.intern(line);
                let home = &mut self.home;
                match &mut self.entries {
                    Entries::Mesi(e) => mesi::evict(home, e, core, id, data, net, mem),
                    Entries::Tardis(e) => tardis::evict(home, e, core, id, data, lease, net, mem),
                }
            }
            Msg::Grant { .. } | Msg::Fwd { .. } => {
                unreachable!("directory received a directory-originated message")
            }
        }
    }

    /// Completes DRAM fetches that are due; must be called every cycle.
    pub fn tick(&mut self, net: &mut Network, mem: &mut MainMemory, now: Cycle) {
        while let Some((id, data)) = self.home.pop_fill(net, mem, now) {
            let home = &mut self.home;
            match &mut self.entries {
                Entries::Mesi(e) => mesi::grant(home, e, id, Some(data), net, now),
                Entries::Tardis(e) => tardis::grant(home, e, id, data, net, now),
            }
        }
    }

    /// Whether no transaction is open and no DRAM fetch pending (used by
    /// drain loops and tests).
    pub fn idle(&self) -> bool {
        self.open_transactions() == 0 && self.home.dram.is_empty()
    }

    /// Number of open transactions (watchdog diagnostics).
    pub fn open_transactions(&self) -> usize {
        self.home.trans.live()
    }

    /// Pops the oldest request released by a completed transaction, as
    /// the [`Msg::Req`] the memory system feeds back through
    /// [`Directory::handle`] in the same cycle. Popping one at a time is
    /// order-equivalent to draining the batch: replays produced while
    /// handling one go behind the rest.
    pub fn pop_replay(&mut self) -> Option<Msg> {
        let (line, r) = self.home.replays.pop_front()?;
        Some(Msg::Req {
            core: r.core,
            line,
            kind: r.kind,
            prefetch: r.prefetch,
            pts: r.pts,
        })
    }

    /// Exports statistics. Both protocols export one key set — Tardis
    /// sends no invalidations, so its `invs` stays 0 — and Tardis adds its
    /// lease-extension count.
    pub fn export_stats(&self) -> StatSet {
        let st = &self.home.stats;
        let mut s = StatSet::new();
        s.set("gets", st.gets as f64);
        s.set("getm", st.getm as f64);
        s.set("fwds", st.fwds as f64);
        s.set("invs", st.invs as f64);
        if let Entries::Tardis(_) = self.entries {
            s.set("lease_extends", st.lease_extends as f64);
        }
        s.set("l3_hits", st.l3_hits as f64);
        s.set("l3_misses", st.l3_misses as f64);
        s.set("relinquishes", st.relinquishes as f64);
        s.set("writebacks", st.writebacks as f64);
        s
    }

    /// The home node's next-work answer (the [`tus_sim::sched`]
    /// contract).
    pub fn next_work(&self, now: Cycle) -> Option<Cycle> {
        // Replays are drained by the memory system within the same tick
        // they are produced, so they are normally never pending between
        // ticks; claim work defensively if any are.
        if !self.home.replays.is_empty() {
            return Some(now);
        }
        // Open transactions advance only on inbound messages (tracked by
        // the network) or DRAM completions; the tick itself only pops the
        // DRAM queue.
        self.home.dram.next_due()
    }
}

#[cfg(test)]
/// The harness both protocols' unit tests drive the home node with.
mod tests {
    use super::*;
    use tus_sim::SimRng;

    /// A home node for at least three cores over a 16-set, 4-way L3 and
    /// a 100-cycle DRAM with 4 fetches in flight, on a one-cycle network.
    pub(super) fn setup(
        coherence: CoherenceKind,
        cores: usize,
    ) -> (Directory, Network, MainMemory) {
        let dir = Directory::new(coherence, cores.max(3), 16, 4, 100, 4);
        let net = Network::new(
            cores.max(3),
            crate::net::NetLatency { hop: 1 },
            0,
            SimRng::seed(1),
        );
        (dir, net, MainMemory::new())
    }

    /// Runs cycles `0..until`, delivering home-bound messages and replays
    /// as [`crate::system::MemorySystem::tick`] does, and collects the
    /// messages cores `0..cores` receive with their arrival cycles.
    fn pump_timed(
        dir: &mut Directory,
        net: &mut Network,
        mem: &mut MainMemory,
        until: u64,
        cores: u16,
    ) -> Vec<(Cycle, CoreId, Msg)> {
        let mut out = Vec::new();
        for t in 0..until {
            let now = Cycle::new(t);
            dir.tick(net, mem, now);
            while let Some((_src, msg)) = net.recv(Node::Dir, now) {
                dir.handle(msg, net, mem, now);
            }
            while let Some(msg) = dir.pop_replay() {
                dir.handle(msg, net, mem, now);
            }
            for c in 0..cores {
                while let Some((_src, msg)) = net.recv(Node::Core(CoreId::new(c)), now) {
                    out.push((now, CoreId::new(c), msg));
                }
            }
        }
        out
    }

    /// [`pump_timed`] without the arrival cycles.
    pub(super) fn pump(
        dir: &mut Directory,
        net: &mut Network,
        mem: &mut MainMemory,
        until: u64,
        cores: u16,
    ) -> Vec<(CoreId, Msg)> {
        let msgs = pump_timed(dir, net, mem, until, cores);
        msgs.into_iter().map(|(_, c, m)| (c, m)).collect()
    }

    pub(super) fn req(core: u16, line: u64, kind: ReqKind, pts: u64) -> Msg {
        Msg::Req {
            core: CoreId::new(core),
            line: LineAddr::new(line),
            kind,
            prefetch: false,
            pts,
        }
    }

    #[test]
    fn dram_fetches_start_latency_over_inflight_apart() {
        for coherence in CoherenceKind::ALL {
            let (mut dir, mut net, mut mem) = setup(coherence, 2);
            for line in 1..=4 {
                dir.handle(
                    req(0, line, ReqKind::GetM, 0),
                    &mut net,
                    &mut mem,
                    Cycle::ZERO,
                );
            }
            // 100 cycles / 4 in flight: one fetch may start every 25.
            let granted: Vec<u64> = pump_timed(&mut dir, &mut net, &mut mem, 300, 3)
                .iter()
                .map(|(at, c, m)| {
                    assert_eq!(*c, CoreId::new(0));
                    assert!(
                        matches!(
                            m,
                            Msg::Grant {
                                state: Mesi::Modified,
                                ..
                            }
                        ),
                        "{m:?}"
                    );
                    at.raw()
                })
                .collect();
            assert_eq!(granted, [101, 126, 151, 176], "{coherence:?}");
            assert_eq!(dir.home.stats.l3_misses, 4, "{coherence:?}");
            assert!(dir.idle());
        }
    }
}
