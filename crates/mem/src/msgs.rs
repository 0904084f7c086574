//! Coherence messages and controller events.
//!
//! Messages ([`Msg`]) travel on the [`crate::net::Network`] between the
//! per-core private cache controllers and the directory. Events
//! ([`CacheEvent`]) are produced by a controller for the policy layer (the
//! `tus` crate) that drives it — most importantly
//! [`CacheEvent::ExternalConflict`], which asks the TUS authorization unit
//! to decide between *delaying* an external request to a temporarily
//! unauthorized line and *relinquishing* the line (Section III-C of the
//! paper).

use tus_sim::{CoreId, Cycle, LineAddr};

use crate::line::LineData;
use crate::mesi::Mesi;

/// What a core asks the directory for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Read permission (grants S, or E when unshared).
    GetS,
    /// Write permission (grants M; permission-only when the requester is
    /// already a sharer).
    GetM,
}

/// What the directory asks an owner to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdKind {
    /// Another core wants write permission: invalidate and surrender data.
    Inv,
    /// Another core wants read permission: downgrade to S and send data.
    Downgrade,
}

/// Per-line logical-timestamp pair carried by the Tardis backend.
///
/// `wts` is the logical time of the last write; `rts` is the end of the
/// latest read lease. A reader at logical time `pts` may use a copy while
/// `pts <= rts`; a writer must move to `rts + 1` before its store becomes
/// visible. The MESI backend never attaches leases (`Option::None`
/// everywhere), which keeps its wire traffic bit-identical to the
/// pre-contract code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Logical time of the line's last write.
    pub wts: u64,
    /// End of the line's current read lease (inclusive).
    pub rts: u64,
}

/// A message on the coherence interconnect.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Core → directory: request permission for a line.
    Req {
        /// Requesting core.
        core: CoreId,
        /// Target line.
        line: LineAddr,
        /// Read or write permission.
        kind: ReqKind,
        /// Whether this is a prefetch (fills without waking waiters and
        /// may be dropped under pressure).
        prefetch: bool,
        /// Requester's logical timestamp (Tardis only; 0 under MESI).
        /// A GetS lease must extend past this value or the grant would be
        /// unreadable on arrival; carrying it avoids renewal livelock.
        pts: u64,
    },
    /// Directory → core: grant of permission (completion of a `Req`).
    Grant {
        /// Target line.
        line: LineAddr,
        /// Granted state (S, E or M).
        state: Mesi,
        /// Line contents; `None` for a permission-only upgrade (the
        /// requester's copy is still valid).
        data: Option<Box<LineData>>,
        /// Echo of the request flavour.
        kind: ReqKind,
        /// Echo of the prefetch flag.
        prefetch: bool,
        /// Tardis timestamps for the granted line (`None` under MESI).
        lease: Option<Lease>,
    },
    /// Directory → owner core: act on behalf of another requester.
    Fwd {
        /// Target line.
        line: LineAddr,
        /// Invalidate or downgrade.
        kind: FwdKind,
        /// Whether the directory believes the target is the owner (expects
        /// a [`Msg::FwdResp`]) or a mere sharer (expects [`Msg::InvAck`]).
        to_owner: bool,
    },
    /// Owner core → directory: response to a [`Msg::Fwd`].
    FwdResp {
        /// Responding core.
        core: CoreId,
        /// Target line.
        line: LineAddr,
        /// Line contents if the core held valid data (`None` when the line
        /// raced away through an eviction).
        data: Option<Box<LineData>>,
        /// True when the core *relinquished* a temporarily unauthorized
        /// line: the data carried here is the old (pre-store) copy from
        /// its private L2, and the core keeps its unauthorized bytes
        /// locally for a later retry (paper Fig. 5, step 7–8).
        relinquished: bool,
        /// The owner's view of the line's Tardis timestamps (`None` under
        /// MESI); the directory merges these into its own entry.
        lease: Option<Lease>,
    },
    /// Sharer core → directory: invalidation acknowledged.
    InvAck {
        /// Responding core.
        core: CoreId,
        /// Target line.
        line: LineAddr,
    },
    /// Core → directory: eviction notice. `data` present for a dirty
    /// (PutM) eviction.
    Evict {
        /// Evicting core.
        core: CoreId,
        /// Target line.
        line: LineAddr,
        /// Dirty data, if any.
        data: Option<Box<LineData>>,
        /// The evictor's view of the line's Tardis timestamps (`None`
        /// under MESI).
        lease: Option<Lease>,
    },
}

impl Msg {
    /// Short static label for trace output (one per message flavour).
    pub fn label(&self) -> &'static str {
        match self {
            Msg::Req { kind: ReqKind::GetS, .. } => "req_gets",
            Msg::Req { kind: ReqKind::GetM, .. } => "req_getm",
            Msg::Grant { .. } => "grant",
            Msg::Fwd { kind: FwdKind::Inv, .. } => "fwd_inv",
            Msg::Fwd { kind: FwdKind::Downgrade, .. } => "fwd_downgrade",
            Msg::FwdResp { .. } => "fwd_resp",
            Msg::InvAck { .. } => "inv_ack",
            Msg::Evict { .. } => "evict",
        }
    }

    /// The line this message concerns.
    pub fn line(&self) -> LineAddr {
        match self {
            Msg::Req { line, .. }
            | Msg::Grant { line, .. }
            | Msg::Fwd { line, .. }
            | Msg::FwdResp { line, .. }
            | Msg::InvAck { line, .. }
            | Msg::Evict { line, .. } => *line,
        }
    }
}

/// Events produced by a private cache controller for the policy layer and
/// the core model.
#[derive(Debug, Clone)]
pub enum CacheEvent {
    /// A load previously issued with a token has completed.
    LoadDone {
        /// Token passed at issue.
        token: u64,
        /// Cycle at which the value is available.
        at: Cycle,
        /// Loaded value (little-endian, zero-extended).
        value: u64,
    },
    /// Write permission (and data, when needed) arrived for a temporarily
    /// unauthorized line; the line's data has been combined and its
    /// *ready* bit set. The policy layer must mark the matching WOQ entry
    /// ready and try to advance visibility.
    PermissionReady {
        /// The line.
        line: LineAddr,
        /// L1D set.
        set: usize,
        /// L1D way.
        way: usize,
    },
    /// An external request (via the directory) targets a temporarily
    /// unauthorized line for which this core holds write permission. The
    /// policy layer must call
    /// [`crate::PrivateCache::delay_external`] or
    /// [`crate::PrivateCache::relinquish`] to resolve it.
    ExternalConflict {
        /// The line.
        line: LineAddr,
        /// L1D set.
        set: usize,
        /// L1D way.
        way: usize,
    },
    /// This core lost its copy of a line to a remote write (invalidation
    /// or relinquish). Speculatively executed loads that bound a value
    /// from that line must replay — this is how x86 cores preserve
    /// load→load ordering (the "memory ordering machine clear"), and how
    /// TUS preserves it too (Section III-D).
    Invalidated {
        /// The line.
        line: LineAddr,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_line_accessor() {
        let l = LineAddr::new(42);
        let msgs = [
            Msg::Req {
                core: CoreId::new(0),
                line: l,
                kind: ReqKind::GetS,
                prefetch: false,
                pts: 0,
            },
            Msg::Fwd {
                line: l,
                kind: FwdKind::Inv,
                to_owner: true,
            },
            Msg::InvAck {
                core: CoreId::new(1),
                line: l,
            },
        ];
        for m in msgs {
            assert_eq!(m.line(), l);
        }
    }
}
