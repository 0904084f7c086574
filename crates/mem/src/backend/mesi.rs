//! Full-map MESI: the paper's invalidation-based protocol, and the
//! reference the Tardis protocol is compared against.
//!
//! A line's home entry holds its owner (a core with an E or M copy) and a
//! sharer bitset. A request for a line another core owns is forwarded to
//! the owner; a GetM invalidates every other sharer and is granted once
//! all have acknowledged; a requester whose copy is still current gets a
//! permission-only grant that carries no data. MESI grants carry no lease.

use tus_sim::{CoreId, Cycle, LineId};

use super::{Home, Request};
use crate::line::LineData;
use crate::mainmem::MainMemory;
use crate::mesi::Mesi;
use crate::msgs::{FwdKind, Msg, ReqKind};
use crate::net::{Network, Node};

/// A line's owner and sharers.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Entry {
    owner: Option<CoreId>,
    sharers: u64,
}

impl Entry {
    fn is_sharer(&self, c: CoreId) -> bool {
        self.sharers & (1u64 << c.index()) != 0
    }
    fn add_sharer(&mut self, c: CoreId) {
        self.sharers |= 1u64 << c.index();
    }
    fn remove_sharer(&mut self, c: CoreId) {
        self.sharers &= !(1u64 << c.index());
    }
    fn idle_empty(&self) -> bool {
        self.owner.is_none() && self.sharers == 0
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
    let line = home.lines.addr(id);
    let entry = entries[id.index()];
    if let Some(owner) = entry.owner {
        if owner == req.core {
            // Redundant request from the owner itself: permission-only.
            req.grant(line, Mesi::Modified, None, None, net, now);
        } else {
            home.forward(id, req, owner, net, now);
        }
        return;
    }
    let mut acks = 0;
    if req.kind == ReqKind::GetM {
        for c in 0..home.cores {
            let cid = CoreId::new(c as u16);
            if cid != req.core && entry.is_sharer(cid) {
                home.stats.invs += 1;
                acks += 1;
                net.send(
                    Node::Dir,
                    Node::Core(cid),
                    now,
                    Msg::Fwd {
                        line,
                        kind: FwdKind::Inv,
                        to_owner: false,
                    },
                );
            }
        }
    }
    let t = home.open(id, req);
    t.pending_acks = acks;
    t.perm_only = entry.is_sharer(req.core);
    if acks == 0 {
        supply(home, entries, id, net, now);
    }
}

/// Grants the open transaction on `id` once no invalidation is pending:
/// without data when the requester's copy is current (this returns before
/// any fetch), else with the L3's copy or, after a DRAM fetch, memory's.
fn supply(home: &mut Home, entries: &mut [Entry], id: LineId, net: &mut Network, now: Cycle) {
    if home.tr(id).expect("transaction open").perm_only {
        grant(home, entries, id, None, net, now);
    } else if let Some(data) = home.fetch(id, net, now) {
        grant(home, entries, id, Some(data), net, now);
    }
}

/// Grants the open transaction on `id`, updates the sharing state and
/// completes the transaction.
pub(super) fn grant(
    home: &mut Home,
    entries: &mut [Entry],
    id: LineId,
    data: Option<Box<LineData>>,
    net: &mut Network,
    now: Cycle,
) {
    let req = home.serving(id);
    let entry = &mut entries[id.index()];
    let state = match req.kind {
        ReqKind::GetM => {
            entry.owner = Some(req.core);
            entry.sharers = 0;
            Mesi::Modified
        }
        ReqKind::GetS => {
            if entry.idle_empty() {
                // Unshared: grant Exclusive.
                entry.owner = Some(req.core);
                Mesi::Exclusive
            } else {
                entry.add_sharer(req.core);
                Mesi::Shared
            }
        }
    };
    req.grant(home.lines.addr(id), state, data, None, net, now);
    home.complete(id);
}

/// Takes the owner `from`'s answer to a forward.
#[allow(clippy::too_many_arguments)]
pub(super) fn answer(
    home: &mut Home,
    entries: &mut [Entry],
    from: CoreId,
    id: LineId,
    data: Option<Box<LineData>>,
    relinquished: bool,
    net: &mut Network,
    mem: &mut MainMemory,
    now: Cycle,
) {
    let Some((req, data)) = home.answer(id, data, relinquished, net, mem) else {
        return;
    };
    let entry = &mut entries[id.index()];
    // The old owner is no longer the owner.
    entry.owner = None;
    entry.remove_sharer(from);
    if req.kind == ReqKind::GetS && !relinquished {
        // Normal downgrade: the old owner retains a shared copy.
        entry.add_sharer(from);
    }
    match data {
        Some(d) => grant(home, entries, id, Some(d), net, now),
        // The owner raced an eviction; its PutM arrived earlier on the
        // same FIFO channel, so L3/memory hold current data.
        None => supply(home, entries, id, net, now),
    }
}

/// Takes the sharer `from`'s acknowledgement of an invalidation.
pub(super) fn inv_ack(
    home: &mut Home,
    entries: &mut [Entry],
    from: CoreId,
    id: LineId,
    net: &mut Network,
    now: Cycle,
) {
    entries[id.index()].remove_sharer(from);
    let Some(t) = home.tr_mut(id) else {
        return;
    };
    debug_assert!(t.pending_acks > 0, "unexpected InvAck");
    t.pending_acks -= 1;
    if t.pending_acks == 0 {
        supply(home, entries, id, net, now);
    }
}

/// Takes core `from`'s eviction notice.
pub(super) fn evict(
    home: &mut Home,
    entries: &mut [Entry],
    from: CoreId,
    id: LineId,
    data: Option<Box<LineData>>,
    net: &mut Network,
    mem: &mut MainMemory,
) {
    home.evicted(id, data, net, mem);
    let e = &mut entries[id.index()];
    if e.owner == Some(from) {
        e.owner = None;
    }
    e.remove_sharer(from);
}

#[cfg(test)]
mod tests {
    use super::super::tests::{pump, req, setup};
    use crate::mesi::Mesi;
    use crate::msgs::{FwdKind, Msg, ReqKind};
    use tus_sim::{CoherenceKind, CoreId, Cycle, LineAddr};

    #[test]
    fn first_gets_grants_exclusive_from_dram() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Mesi, 2);
        let mut d = [0u8; 64];
        d[0] = 9;
        mem.write(LineAddr::new(5), &d);
        dir.handle(req(0, 5, ReqKind::GetS, 0), &mut net, &mut mem, Cycle::ZERO);
        let msgs = pump(&mut dir, &mut net, &mut mem, 200, 3);
        assert_eq!(msgs.len(), 1);
        let (to, m) = &msgs[0];
        assert_eq!(*to, CoreId::new(0));
        match m {
            Msg::Grant { state, data, .. } => {
                assert_eq!(*state, Mesi::Exclusive);
                assert_eq!(data.as_ref().expect("data")[0], 9);
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert_eq!(dir.home.stats.l3_misses, 1);
        assert!(dir.idle());
    }

    #[test]
    fn second_gets_grants_shared_from_l3() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Mesi, 2);
        dir.handle(req(0, 5, ReqKind::GetS, 0), &mut net, &mut mem, Cycle::ZERO);
        pump(&mut dir, &mut net, &mut mem, 200, 3);
        // Core 1 asks: owner is core 0 (E) -> forward downgrade.
        dir.handle(
            req(1, 5, ReqKind::GetS, 0),
            &mut net,
            &mut mem,
            Cycle::new(200),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 300, 3);
        assert!(matches!(
            &msgs[..],
            [(c, Msg::Fwd { kind: FwdKind::Downgrade, to_owner: true, .. })] if *c == CoreId::new(0)
        ));
        assert_eq!(dir.home.stats.fwds, 1);
    }

    #[test]
    fn getm_invalidates_sharers_then_grants_perm_only() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Mesi, 3);
        // Make cores 0 and 1 sharers, then let core 0 upgrade.
        dir.handle(req(0, 7, ReqKind::GetS, 0), &mut net, &mut mem, Cycle::ZERO);
        pump(&mut dir, &mut net, &mut mem, 200, 3);
        // Owner(E)=core0; core1 GetS forwards; have core0 answer.
        dir.handle(
            req(1, 7, ReqKind::GetS, 0),
            &mut net,
            &mut mem,
            Cycle::new(200),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 210, 3);
        assert_eq!(msgs.len(), 1); // the Fwd
        dir.handle(
            Msg::FwdResp {
                core: CoreId::new(0),
                line: LineAddr::new(7),
                data: Some(Box::new([3u8; 64])),
                relinquished: false,
                lease: None,
            },
            &mut net,
            &mut mem,
            Cycle::new(210),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 400, 3);
        assert!(msgs.iter().any(|(c, m)| *c == CoreId::new(1)
            && matches!(
                m,
                Msg::Grant {
                    state: Mesi::Shared,
                    ..
                }
            )));
        // Now core 0 (a sharer) upgrades: core 1 must get an Inv; grant is
        // permission-only.
        dir.handle(
            req(0, 7, ReqKind::GetM, 0),
            &mut net,
            &mut mem,
            Cycle::new(400),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 410, 3);
        assert!(matches!(
            &msgs[..],
            [(c, Msg::Fwd { kind: FwdKind::Inv, to_owner: false, .. })] if *c == CoreId::new(1)
        ));
        dir.handle(
            Msg::InvAck {
                core: CoreId::new(1),
                line: LineAddr::new(7),
            },
            &mut net,
            &mut mem,
            Cycle::new(410),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 500, 3);
        assert!(msgs.iter().any(|(c, m)| *c == CoreId::new(0)
            && matches!(
                m,
                Msg::Grant {
                    state: Mesi::Modified,
                    data: None,
                    ..
                }
            )));
        assert!(dir.idle());
    }

    #[test]
    fn requests_to_busy_line_queue_and_replay() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Mesi, 2);
        dir.handle(req(0, 9, ReqKind::GetM, 0), &mut net, &mut mem, Cycle::ZERO);
        // Second request while the first is fetching from DRAM.
        dir.handle(
            req(1, 9, ReqKind::GetM, 0),
            &mut net,
            &mut mem,
            Cycle::new(1),
        );
        assert_eq!(dir.open_transactions(), 1);
        let msgs = pump(&mut dir, &mut net, &mut mem, 150, 3);
        // Core 0 granted M, then the replayed request forwards an Inv to
        // core 0 on behalf of core 1.
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
                    kind: FwdKind::Inv,
                    to_owner: true,
                    ..
                }
            )));
    }

    #[test]
    fn relinquished_gets_leaves_old_owner_without_copy() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Mesi, 2);
        dir.handle(
            req(0, 11, ReqKind::GetM, 0),
            &mut net,
            &mut mem,
            Cycle::ZERO,
        );
        pump(&mut dir, &mut net, &mut mem, 200, 3);
        dir.handle(
            req(1, 11, ReqKind::GetS, 0),
            &mut net,
            &mut mem,
            Cycle::new(200),
        );
        pump(&mut dir, &mut net, &mut mem, 210, 3);
        dir.handle(
            Msg::FwdResp {
                core: CoreId::new(0),
                line: LineAddr::new(11),
                data: Some(Box::new([5u8; 64])),
                relinquished: true,
                lease: None,
            },
            &mut net,
            &mut mem,
            Cycle::new(210),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 400, 3);
        // Relinquished: old owner keeps nothing, so the requester is alone
        // and gets Exclusive.
        assert!(msgs.iter().any(|(c, m)| *c == CoreId::new(1)
            && matches!(
                m,
                Msg::Grant {
                    state: Mesi::Exclusive,
                    ..
                }
            )));
        assert_eq!(dir.home.stats.relinquishes, 1);
    }

    #[test]
    fn evict_with_data_updates_memory() {
        let (mut dir, mut net, mut mem) = setup(CoherenceKind::Mesi, 1);
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
                lease: None,
            },
            &mut net,
            &mut mem,
            Cycle::new(200),
        );
        assert_eq!(mem.read(LineAddr::new(13))[0], 0x77);
        assert_eq!(dir.home.stats.writebacks, 1);
        // Next GetS hits L3, no DRAM.
        let misses = dir.home.stats.l3_misses;
        dir.handle(
            req(0, 13, ReqKind::GetS, 0),
            &mut net,
            &mut mem,
            Cycle::new(201),
        );
        let msgs = pump(&mut dir, &mut net, &mut mem, 300, 3);
        assert!(msgs.iter().any(|(_, m)| matches!(
            m,
            Msg::Grant {
                state: Mesi::Exclusive,
                ..
            }
        )));
        assert_eq!(dir.home.stats.l3_misses, misses);
    }
}
