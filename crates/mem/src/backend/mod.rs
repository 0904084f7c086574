//! Pluggable coherence backends behind the [`CoherenceBackend`] contract.
//!
//! The per-core private cache controllers ([`crate::percore`]) talk to the
//! coherence fabric exclusively through [`Msg`]s on the network; the fabric
//! side of that conversation — permission requests and grants, forwarded
//! invalidation/downgrade, old-copy supply for relinquished lines, dirty
//! write-backs, and occupancy/diagnostic stats — is what this trait pins
//! down. Two implementations live here:
//!
//! * [`mesi`] — the paper's invalidation-based full-map directory
//!   ([`mesi::Directory`]), bit-identical to the pre-contract code (the
//!   Tardis message fields ride along as `0`/`None` and never influence
//!   it).
//! * [`tardis`] — a Tardis-2.0-style logical-timestamp backend
//!   ([`tardis::TardisDirectory`]): reads take bounded leases
//!   (`rts = max(rts, max(wts, requester_pts) + LEASE)`), writes jump the
//!   writer's logical time past every outstanding lease (`pts = rts + 1`),
//!   and *no invalidation messages exist* — stale sharers self-downgrade
//!   when their logical time passes a lease's end.
//!
//! Dispatch is a two-variant enum ([`DirBackend`]), not a trait object:
//! the backend is picked once per simulation and the hot path must not pay
//! an indirect call (the zero-allocation steady state and the perf-smoke
//! floor are both gated on the MESI path staying exactly as fast as before
//! the contract existed).

use tus_sim::trace::TraceRecord;
use tus_sim::{CoreId, Cycle, LineAddr, Schedulable, StatSet};

use crate::mainmem::MainMemory;
use crate::msgs::{Msg, ReqKind};
use crate::net::Network;

pub mod mesi;
pub mod tardis;

pub use mesi::Directory;
pub use tardis::TardisDirectory;

/// A queued request released by a completing transaction, to be fed back
/// through [`CoherenceBackend::handle`] as a fresh [`Msg::Req`] in the
/// same cycle.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Requesting core.
    pub core: CoreId,
    /// Target line.
    pub line: LineAddr,
    /// Read or write permission.
    pub kind: ReqKind,
    /// Whether the queued request was a prefetch.
    pub prefetch: bool,
    /// The requester's logical timestamp at request time (0 under MESI).
    pub pts: u64,
}

/// The fabric side of the coherence conversation: everything the memory
/// system (and through it the policy layer and core model) needs from a
/// coherence home node.
///
/// Implementations also provide [`Schedulable`] so the event-driven
/// kernel can compute the fabric's next-work cycle.
pub trait CoherenceBackend: Schedulable {
    /// Handles one inbound message (request, response or eviction notice).
    fn handle(&mut self, msg: Msg, net: &mut Network, mem: &mut MainMemory, now: Cycle);
    /// Completes DRAM fetches that are due; must be called every cycle.
    fn tick(&mut self, net: &mut Network, mem: &mut MainMemory, now: Cycle);
    /// Whether no transaction is open and no DRAM fetch is pending.
    fn idle(&self) -> bool;
    /// Completion cycle of the earliest pending DRAM fetch.
    fn next_dram_due(&self) -> Option<Cycle>;
    /// Number of open transactions (watchdog diagnostics).
    fn open_transactions(&self) -> usize;
    /// Debug description of the backend state for one line (deadlock
    /// diagnostics).
    fn debug_line(&self, line: LineAddr) -> String;
    /// Exports occupancy/traffic statistics.
    fn export_stats(&self) -> StatSet;
    /// Pops the oldest pending replay released by a completed transaction.
    fn pop_replay(&mut self) -> Option<Replay>;
    /// Arms structured tracing with a ring of `cap` records.
    fn trace_enable(&mut self, cap: usize);
    /// Drains the buffered trace records, oldest first.
    fn take_trace(&mut self) -> Vec<TraceRecord>;
}

/// Enum-dispatched backend instance owned by the memory system.
///
/// All methods forward with a two-arm match, which the compiler turns into
/// direct calls — no vtable on the per-message hot path.
pub enum DirBackend {
    /// Invalidation-based full-map MESI directory (the reference).
    Mesi(Directory),
    /// Tardis-style logical-timestamp backend.
    Tardis(TardisDirectory),
}

impl std::fmt::Debug for DirBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirBackend::Mesi(d) => d.fmt(f),
            DirBackend::Tardis(d) => d.fmt(f),
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $d:ident => $e:expr) => {
        match $self {
            DirBackend::Mesi($d) => $e,
            DirBackend::Tardis($d) => $e,
        }
    };
}

impl DirBackend {
    /// Handles one inbound message.
    #[inline]
    pub fn handle(&mut self, msg: Msg, net: &mut Network, mem: &mut MainMemory, now: Cycle) {
        dispatch!(self, d => d.handle(msg, net, mem, now))
    }

    /// Completes DRAM fetches that are due; must be called every cycle.
    #[inline]
    pub fn tick(&mut self, net: &mut Network, mem: &mut MainMemory, now: Cycle) {
        dispatch!(self, d => d.tick(net, mem, now))
    }

    /// Whether no transaction is open and no DRAM fetch is pending.
    pub fn idle(&self) -> bool {
        dispatch!(self, d => d.idle())
    }

    /// Completion cycle of the earliest pending DRAM fetch.
    pub fn next_dram_due(&self) -> Option<Cycle> {
        dispatch!(self, d => d.next_dram_due())
    }

    /// Number of open transactions (watchdog diagnostics).
    pub fn open_transactions(&self) -> usize {
        dispatch!(self, d => d.open_transactions())
    }

    /// Debug description of the backend state for one line.
    pub fn debug_line(&self, line: LineAddr) -> String {
        dispatch!(self, d => d.debug_line(line))
    }

    /// Exports occupancy/traffic statistics.
    pub fn export_stats(&self) -> StatSet {
        dispatch!(self, d => d.export_stats())
    }

    /// Pops the oldest pending replay.
    #[inline]
    pub fn pop_replay(&mut self) -> Option<Replay> {
        dispatch!(self, d => d.pop_replay())
    }

    /// Arms structured tracing with a ring of `cap` records.
    pub fn trace_enable(&mut self, cap: usize) {
        dispatch!(self, d => d.trace_enable(cap))
    }

    /// Drains the buffered trace records, oldest first.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        dispatch!(self, d => d.take_trace())
    }
}

impl Schedulable for DirBackend {
    fn next_work(&self, now: Cycle) -> Option<Cycle> {
        dispatch!(self, d => d.next_work(now))
    }
}
