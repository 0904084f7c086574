//! Tardis-style logical-timestamp coherence.
//!
//! After "Tardis 2.0: Optimized Time Traveling Coherence for Relaxed
//! Consistency Models": coherence is enforced in *logical* time instead of
//! by invalidation. Every line carries a write timestamp `wts` (logical
//! time of its last write) and a read timestamp `rts` (end of its current
//! read lease); every core carries a program timestamp `pts`. A shared
//! copy is readable while the reader's `pts <= rts`; a writer must jump
//! its `pts` to at least `rts + 1` before its store becomes visible, which
//! orders the write after every leased read *without telling any reader
//! anything* — there are no invalidation messages and no sharer list.
//! Stale copies die by **self-downgrade**: when a core's `pts` passes a
//! lease's `rts`, the copy silently stops being usable (the private cache
//! controller drops it and replays any speculative loads bound from it).
//!
//! The home node's duties — one open transaction per line, the L3
//! latency filter, the DRAM bandwidth model — are the same as under MESI
//! and live in [`super::Directory`]; the rules here differ from MESI in
//! exactly the timestamp ways:
//!
//! * **GetS** with no owner extends the lease,
//!   `rts = max(rts, max(wts, requester_pts) + LEASE)`, and grants Shared
//!   with the `(wts, rts)` pair. Carrying the requester's `pts` in the
//!   request is what makes renewals converge: the granted lease always
//!   ends past the clock the requester will read at.
//! * **GetM** transfers ownership and the timestamp pair; the owner
//!   becomes the line's timestamp authority until it writes back. No
//!   sharer is notified — their leases simply bound when the new write
//!   may become visible.
//! * **Fwd** exists only toward an *owner* (`to_owner` is always true):
//!   modified lines still have exactly one writable copy, so the TUS
//!   delay/relinquish conflict machinery is exercised identically.
//! * **InvAck** cannot occur.
//!
//! The TUS interaction rule (the new research surface): a temporarily
//! unauthorized line may not become visible at a logical time covered by
//! any lease the line must respect — the controller makes the store
//! visible at `pts = max(pts, rts + 1)` using the `rts` granted here.
//!
//! The core's side of the protocol — `pts`, the leases its copies were
//! granted under, and the rules for reads, visible stores, store groups
//! and self-downgrade — is the `Clock` each per-core controller holds
//! under Tardis.

use tus_sim::{CoreId, Cycle, FxHashMap, LineAddr, LineId};

use super::{Home, Request};
use crate::line::LineData;
use crate::mainmem::MainMemory;
use crate::mesi::Mesi;
use crate::msgs::{Lease, ReqKind};
use crate::net::Network;

/// Lease length in logical-time units. Short leases keep writers close
/// behind readers (small `pts` jumps); long leases amortize renewals.
/// Tardis 2.0 uses a small fixed lease with optional adaptation; a
/// constant is enough here because renewals are cheap L3 hits.
pub const LEASE: u64 = 10;

/// A line's owner and timestamp pair.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Entry {
    owner: Option<CoreId>,
    wts: u64,
    rts: u64,
}

impl Entry {
    /// The timestamp pair a grant carries.
    fn lease(&self) -> Lease {
        Lease {
            wts: self.wts,
            rts: self.rts,
        }
    }

    /// Merges timestamps reported by a core (the line's authority while it
    /// owned the line), component-wise max.
    fn merge(&mut self, lease: Option<Lease>) {
        if let Some(l) = lease {
            self.wts = self.wts.max(l.wts);
            self.rts = self.rts.max(l.rts);
        }
    }

    /// Extends the read lease past a reader's clock `pts`.
    fn extend(&mut self, home: &mut Home, pts: u64) {
        self.rts = self.rts.max(self.wts.max(pts) + LEASE);
        home.stats.lease_extends += 1;
    }
}

/// Starts serving `req` on line `id`, which has no open transaction.
pub(super) fn request(
    home: &mut Home,
    entries: &mut [Entry],
    id: LineId,
    req: Request,
    net: &mut Network,
    now: Cycle,
) {
    let entry = &mut entries[id.index()];
    if let Some(owner) = entry.owner {
        if owner == req.core {
            // Redundant request from the owner itself: it is the timestamp
            // authority; echo what the home last saw.
            let line = home.lines.addr(id);
            req.grant(line, Mesi::Modified, None, Some(entry.lease()), net, now);
        } else {
            // The modified copy lives at a core, so forward — the one
            // place Tardis still talks to a remote cache, and exactly
            // where the TUS delay/relinquish machinery engages.
            home.forward(id, req, owner, net, now);
        }
        return;
    }
    // No owner: the home is the authority. GetS extends the lease before
    // data is fetched so the granted pair already covers the requester's
    // clock; GetM hands the pair over untouched — the new owner will jump
    // past `rts` when its store becomes visible.
    if req.kind == ReqKind::GetS {
        entry.extend(home, req.pts);
    }
    home.open(id, req);
    supply(home, entries, id, net, now);
}

/// Grants the open transaction on `id` with the L3's copy or, after a
/// DRAM fetch, memory's. Tardis grants always carry data: without a
/// sharer list the home cannot know whether the requester's copy is
/// current, so there is no permission-only upgrade.
fn supply(home: &mut Home, entries: &mut [Entry], id: LineId, net: &mut Network, now: Cycle) {
    if let Some(data) = home.fetch(id, net, now) {
        grant(home, entries, id, data, net, now);
    }
}

/// Grants the open transaction on `id`, updates ownership and completes
/// the transaction.
pub(super) fn grant(
    home: &mut Home,
    entries: &mut [Entry],
    id: LineId,
    data: Box<LineData>,
    net: &mut Network,
    now: Cycle,
) {
    let req = home.serving(id);
    let entry = &mut entries[id.index()];
    let state = match req.kind {
        ReqKind::GetM => {
            entry.owner = Some(req.core);
            Mesi::Modified
        }
        // Shared always: with no sharer list there is no "alone, grant
        // Exclusive" special case — exclusivity is what `rts + 1` write
        // ordering buys instead.
        ReqKind::GetS => Mesi::Shared,
    };
    let lease = Some(entry.lease());
    req.grant(home.lines.addr(id), state, Some(data), lease, net, now);
    home.complete(id);
}

/// Takes the owner's answer to a forward, with the timestamps it reports.
#[allow(clippy::too_many_arguments)]
pub(super) fn answer(
    home: &mut Home,
    entries: &mut [Entry],
    id: LineId,
    data: Option<Box<LineData>>,
    relinquished: bool,
    lease: Option<Lease>,
    net: &mut Network,
    mem: &mut MainMemory,
    now: Cycle,
) {
    // The owner was the timestamp authority; fold its view back in, even
    // when the answer is stale.
    entries[id.index()].merge(lease);
    let Some((req, data)) = home.answer(id, data, relinquished, net, mem) else {
        return;
    };
    let entry = &mut entries[id.index()];
    entry.owner = None;
    // A downgrade leaves the old owner holding a Shared copy readable
    // until `rts`; extend the lease for the new reader now that the home
    // is the authority again.
    if req.kind == ReqKind::GetS {
        entry.extend(home, req.pts);
    }
    match data {
        Some(d) => grant(home, entries, id, d, net, now),
        // The owner raced an eviction; its PutM arrived earlier on the
        // same FIFO channel, so L3/memory hold current data.
        None => supply(home, entries, id, net, now),
    }
}

/// Takes core `from`'s eviction notice, with the timestamps it reports.
#[allow(clippy::too_many_arguments)]
pub(super) fn evict(
    home: &mut Home,
    entries: &mut [Entry],
    from: CoreId,
    id: LineId,
    data: Option<Box<LineData>>,
    lease: Option<Lease>,
    net: &mut Network,
    mem: &mut MainMemory,
) {
    let entry = &mut entries[id.index()];
    entry.merge(lease);
    home.evicted(id, data, net, mem);
    if entry.owner == Some(from) {
        entry.owner = None;
    }
}

/// A core's Tardis state: its program timestamp `pts` and the lease each
/// copy in its private hierarchy was granted under. The per-core
/// controller holds one under Tardis and none under MESI, and calls it
/// on every read, visible store and store group; dropping an expired copy
/// from the L1D and L2 stays with the controller, which owns the arrays.
#[derive(Debug, Default)]
pub(crate) struct Clock {
    /// The core's logical program timestamp.
    pts: u64,
    /// `(wts, rts)` per line the private hierarchy holds: the local mirror
    /// of the lease each copy was granted under.
    leases: FxHashMap<LineAddr, Lease>,
    /// Scratch for the lapsed leases of one advance (capacity retained).
    lapsed: Vec<LineAddr>,
}

impl Clock {
    /// The core's logical program timestamp, carried in its requests.
    pub fn pts(&self) -> u64 {
        self.pts
    }

    /// The lease tracked for `line`, if any.
    pub fn lease(&self, line: LineAddr) -> Option<Lease> {
        self.leases.get(&line).copied()
    }

    /// Stops tracking `line`, whose copy left the hierarchy, and returns
    /// the lease to report to the home.
    pub fn forget(&mut self, line: LineAddr) -> Option<Lease> {
        self.leases.remove(&line)
    }

    /// Records the lease a grant arrived with (component-wise max against
    /// anything already tracked).
    pub fn record(&mut self, line: LineAddr, lease: Lease) {
        let e = self.leases.entry(line).or_insert(Lease { wts: 0, rts: 0 });
        e.wts = e.wts.max(lease.wts);
        e.rts = e.rts.max(lease.rts);
    }

    /// Whether a read grant under `lease` arrived stale: the lease ended
    /// before this core's clock, so a write the reader is ordered after
    /// could carry `wts <= pts` without being in the granted data.
    pub fn stale(&self, lease: Lease) -> bool {
        lease.rts < self.pts
    }

    /// The clock a read of `line` moves to: a read observes the line's
    /// last write, so at least its `wts`.
    pub fn read_floor(&self, line: LineAddr) -> u64 {
        self.lease(line).map_or(0, |l| l.wts)
    }

    /// The clock a group of stores must reach before any member becomes
    /// visible: past every member line's read lease, `max(rts) + 1`. A
    /// single store is a group of one. Clearing only each member's own
    /// lease as it is written would place early members at a logical
    /// time *before* older stores that fused later members into the
    /// group — the coalescing reordering TSO forbids (a reader could
    /// observe the merged value of an early member while a lease still
    /// entitles it to the pre-group value of a later one).
    pub fn store_floor(&self, lines: impl IntoIterator<Item = LineAddr>) -> u64 {
        lines
            .into_iter()
            .map(|line| self.lease(line).map_or(0, |l| l.rts) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Restamps `line` after a store to it became visible at the current
    /// clock: `(wts, rts) = (pts, pts)`.
    pub fn stamp(&mut self, line: LineAddr) {
        let pts = self.pts;
        self.leases.insert(line, Lease { wts: pts, rts: pts });
    }

    /// Advances the clock to `to`, or returns `None` when it is not
    /// ahead. On an advance, one pass over the leases: a lapsed lease
    /// (`rts < pts`) on a copy the hierarchy can write (`writable`) gets
    /// `rts = pts` in place, because the owner is the line's timestamp
    /// authority and never self-downgrades; every other lapsed line is
    /// returned, sorted by address, for the controller to drop. Hand the
    /// list back with [`Clock::recycle`].
    ///
    /// Dropping is eager and load-bearing for TSO: Tardis sends no
    /// invalidations, so an expired copy that lingered would never
    /// trigger the machine clear that x86-style load→load ordering relies
    /// on. Splitting refresh from drop is exact: dropping one line never
    /// changes another line's writability.
    pub fn advance(
        &mut self,
        to: u64,
        writable: impl Fn(LineAddr) -> bool,
    ) -> Option<Vec<LineAddr>> {
        if to <= self.pts {
            return None;
        }
        self.pts = to;
        let mut lapsed = std::mem::take(&mut self.lapsed);
        lapsed.clear();
        for (&line, lease) in self.leases.iter_mut() {
            if lease.rts < to {
                if writable(line) {
                    lease.rts = to;
                } else {
                    lapsed.push(line);
                }
            }
        }
        // Deterministic order regardless of hash-map iteration (the
        // addresses are unique, so an unstable sort is as good).
        lapsed.sort_unstable_by_key(|l| l.raw());
        Some(lapsed)
    }

    /// Returns the list [`Clock::advance`] handed out, keeping its
    /// capacity for the next advance.
    pub fn recycle(&mut self, lapsed: Vec<LineAddr>) {
        self.lapsed = lapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{pump, req, setup};
    use super::LEASE;
    use crate::mesi::Mesi;
    use crate::msgs::{FwdKind, Lease, Msg, ReqKind};
    use tus_sim::{CoherenceKind, CoreId, Cycle, LineAddr};

    #[test]
    fn gets_grants_shared_with_lease_past_requester_pts() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Tardis, 2);
        let mut d = [0u8; 64];
        d[0] = 9;
        mem.write(LineAddr::new(5), &d);
        dir.handle(req(0, 5, ReqKind::GetS, 7), &mut net, &mut mem, Cycle::ZERO);
        let msgs = pump(&mut dir, &mut net, &mut mem, 200, 3);
        assert_eq!(msgs.len(), 1);
        match &msgs[0].1 {
            Msg::Grant {
                state, data, lease, ..
            } => {
                assert_eq!(*state, Mesi::Shared);
                assert_eq!(data.as_ref().expect("data")[0], 9);
                let l = lease.expect("tardis grant carries a lease");
                assert_eq!(l.rts, 7 + LEASE);
                assert_eq!(l.wts, 0);
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert_eq!(dir.home.stats.lease_extends, 1);
        assert!(dir.idle());
    }

    #[test]
    fn second_reader_needs_no_forward() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Tardis, 2);
        dir.handle(req(0, 5, ReqKind::GetS, 0), &mut net, &mut mem, Cycle::ZERO);
        pump(&mut dir, &mut net, &mut mem, 200, 3);
        // Unlike MESI (E-state owner -> Fwd Downgrade), a second reader is
        // served straight from the home: no owner, no forward.
        dir.handle(
            req(1, 5, ReqKind::GetS, 3),
            &mut net,
            &mut mem,
            Cycle::new(200),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 300, 3);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            &msgs[0],
            (c, Msg::Grant { state: Mesi::Shared, .. }) if *c == CoreId::new(1)
        ));
        assert_eq!(dir.home.stats.fwds, 0);
    }

    #[test]
    fn writer_gets_no_invalidations_and_inherits_reader_lease() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Tardis, 3);
        // Two readers lease the line.
        dir.handle(req(0, 7, ReqKind::GetS, 4), &mut net, &mut mem, Cycle::ZERO);
        dir.handle(
            req(1, 7, ReqKind::GetS, 20),
            &mut net,
            &mut mem,
            Cycle::new(1),
        );
        pump(&mut dir, &mut net, &mut mem, 200, 3);
        // A writer asks: nobody is invalidated, and the granted pair tells
        // it the latest outstanding lease it must write past.
        dir.handle(
            req(2, 7, ReqKind::GetM, 0),
            &mut net,
            &mut mem,
            Cycle::new(200),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 300, 3);
        assert_eq!(msgs.len(), 1, "grant only — no Inv to either reader");
        match &msgs[0] {
            (
                c,
                Msg::Grant {
                    state: Mesi::Modified,
                    lease,
                    data,
                    ..
                },
            ) => {
                assert_eq!(*c, CoreId::new(2));
                assert!(data.is_some(), "tardis has no permission-only upgrade");
                assert_eq!(lease.expect("lease").rts, 20 + LEASE);
            }
            other => panic!("expected M grant, got {other:?}"),
        }
        assert_eq!(dir.home.stats.fwds, 0);
    }

    #[test]
    fn owned_line_still_forwards_to_owner() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Tardis, 2);
        dir.handle(
            req(0, 11, ReqKind::GetM, 0),
            &mut net,
            &mut mem,
            Cycle::ZERO,
        );
        pump(&mut dir, &mut net, &mut mem, 200, 3);
        dir.handle(
            req(1, 11, ReqKind::GetS, 6),
            &mut net,
            &mut mem,
            Cycle::new(200),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 210, 3);
        assert!(matches!(
            &msgs[..],
            [(c, Msg::Fwd { kind: FwdKind::Downgrade, to_owner: true, .. })] if *c == CoreId::new(0)
        ));
        // Owner answers, reporting the timestamps it advanced to.
        dir.handle(
            Msg::FwdResp {
                core: CoreId::new(0),
                line: LineAddr::new(11),
                data: Some(Box::new([5u8; 64])),
                relinquished: false,
                lease: Some(Lease { wts: 31, rts: 31 }),
            },
            &mut net,
            &mut mem,
            Cycle::new(210),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 400, 3);
        match msgs
            .iter()
            .find(|(c, _)| *c == CoreId::new(1))
            .map(|(_, m)| m)
        {
            Some(Msg::Grant {
                state: Mesi::Shared,
                lease,
                ..
            }) => {
                // Lease extends past the merged wts, not just the pts.
                assert_eq!(lease.expect("lease").rts, 31 + LEASE);
                assert_eq!(lease.expect("lease").wts, 31);
            }
            other => panic!("expected shared grant, got {other:?}"),
        }
        assert_eq!(dir.home.stats.fwds, 1);
    }

    #[test]
    fn evict_merges_timestamps_and_updates_memory() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Tardis, 1);
        dir.handle(
            req(0, 13, ReqKind::GetM, 0),
            &mut net,
            &mut mem,
            Cycle::ZERO,
        );
        pump(&mut dir, &mut net, &mut mem, 200, 3);
        dir.handle(
            Msg::Evict {
                core: CoreId::new(0),
                line: LineAddr::new(13),
                data: Some(Box::new([0x77u8; 64])),
                lease: Some(Lease { wts: 42, rts: 50 }),
            },
            &mut net,
            &mut mem,
            Cycle::new(200),
        );
        assert_eq!(mem.read(LineAddr::new(13))[0], 0x77);
        assert_eq!(dir.home.stats.writebacks, 1);
        // Next reader's lease starts from the merged wts=42.
        dir.handle(
            req(0, 13, ReqKind::GetS, 0),
            &mut net,
            &mut mem,
            Cycle::new(201),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 300, 3);
        match msgs.last().map(|(_, m)| m) {
            Some(Msg::Grant { lease, .. }) => {
                let l = lease.expect("lease");
                assert_eq!(l.wts, 42);
                assert_eq!(l.rts, 52.max(42 + LEASE));
            }
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn queued_requests_replay_with_their_pts() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Tardis, 2);
        dir.handle(req(0, 9, ReqKind::GetM, 0), &mut net, &mut mem, Cycle::ZERO);
        // Second request while the first is fetching from DRAM.
        dir.handle(
            req(1, 9, ReqKind::GetS, 17),
            &mut net,
            &mut mem,
            Cycle::new(1),
        );
        assert_eq!(dir.open_transactions(), 1);
        let msgs = pump(&mut dir, &mut net, &mut mem, 150, 3);
        // Core 0 granted M; the replayed GetS then forwards a Downgrade to
        // the new owner, carrying pts=17 in the reopened transaction.
        assert!(msgs.iter().any(|(c, m)| *c == CoreId::new(0)
            && matches!(
                m,
                Msg::Grant {
                    state: Mesi::Modified,
                    ..
                }
            )));
        assert!(msgs.iter().any(|(c, m)| *c == CoreId::new(0)
            && matches!(
                m,
                Msg::Fwd {
                    kind: FwdKind::Downgrade,
                    to_owner: true,
                    ..
                }
            )));
        // Once the owner answers, the grant's lease extends past pts=17.
        dir.handle(
            Msg::FwdResp {
                core: CoreId::new(0),
                line: LineAddr::new(9),
                data: Some(Box::new([1u8; 64])),
                relinquished: false,
                lease: Some(Lease { wts: 0, rts: 0 }),
            },
            &mut net,
            &mut mem,
            Cycle::new(150),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 300, 3);
        match msgs
            .iter()
            .find(|(c, _)| *c == CoreId::new(1))
            .map(|(_, m)| m)
        {
            Some(Msg::Grant {
                state: Mesi::Shared,
                lease,
                ..
            }) => {
                assert_eq!(lease.expect("lease").rts, 17 + LEASE);
            }
            other => panic!("expected shared grant, got {other:?}"),
        }
    }
}
