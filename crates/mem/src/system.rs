//! The assembled memory system.
//!
//! [`MemorySystem`] owns one [`PrivateCache`] per core, the coherence
//! home node ([`Directory`], running the protocol `cfg.coherence`
//! selects), the [`Network`] and [`MainMemory`], and advances them one
//! cycle at a time. The policy layer (the `tus` crate) drives the
//! per-core controllers between ticks and consumes their events.

use tus_sim::sched::earliest;
use tus_sim::trace::TraceRecord;
use tus_sim::{CoreId, Cycle, SimConfig, SimRng, StatSet};

use crate::backend::Directory;
use crate::mainmem::MainMemory;
use crate::msgs::CacheEvent;
use crate::net::{NetLatency, Network};
use crate::percore::PrivateCache;

/// Memory-side snapshot of one core taken when a run fails to make
/// progress (part of the structured deadlock diagnostics).
#[derive(Debug, Clone, Default)]
pub struct CoreMemSnapshot {
    /// Requests in flight from this core to the directory.
    pub outstanding: usize,
    /// Lines those requests target.
    pub outstanding_lines: Vec<tus_sim::LineAddr>,
    /// External requests parked on this core (pending decision, delayed,
    /// or deferred by the grant-hold window).
    pub parked_externals: usize,
}

/// Memory-side half of a deadlock report: what the coherence fabric was
/// doing when progress stopped. The policy-side half (SB/WOQ/WCB
/// occupancy) is assembled by the full-system layer.
#[derive(Debug, Clone, Default)]
pub struct MemDeadlockSnapshot {
    /// Per-core controller state.
    pub cores: Vec<CoreMemSnapshot>,
    /// Directory transactions still open.
    pub dir_open_transactions: usize,
    /// Interconnect messages still in flight.
    pub net_in_flight: usize,
}

impl MemDeadlockSnapshot {
    /// Whether the memory side was fully quiescent (the hang is then in
    /// the policy/pipeline layer).
    pub fn quiescent(&self) -> bool {
        self.dir_open_transactions == 0
            && self.net_in_flight == 0
            && self
                .cores
                .iter()
                .all(|c| c.outstanding == 0 && c.parked_externals == 0)
    }
}

impl std::fmt::Display for MemDeadlockSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "directory: {} open transaction(s); network: {} message(s) in flight",
            self.dir_open_transactions, self.net_in_flight
        )?;
        for (i, c) in self.cores.iter().enumerate() {
            writeln!(
                f,
                "core{i} mem: {} outstanding request(s) {:?}, {} parked external(s)",
                c.outstanding,
                c.outstanding_lines.iter().map(|l| l.raw()).collect::<Vec<_>>(),
                c.parked_externals
            )?;
        }
        Ok(())
    }
}

/// All memory-side components of the simulated machine.
pub struct MemorySystem {
    /// Per-core private cache controllers.
    pub ctrls: Vec<PrivateCache>,
    /// The coherence home node / shared LLC.
    pub dir: Directory,
    /// The interconnect.
    pub net: Network,
    /// Functional backing store.
    pub memory: MainMemory,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("cores", &self.ctrls.len())
            .field("dir", &self.dir)
            .finish()
    }
}

impl MemorySystem {
    /// Builds the memory system described by `cfg`, seeding the network
    /// jitter RNG from `rng`.
    pub fn new(cfg: &SimConfig, rng: &mut SimRng) -> Self {
        let ctrls = (0..cfg.cores)
            .map(|i| PrivateCache::new(CoreId::new(i as u16), cfg))
            .collect();
        let dir = Directory::new(
            cfg.coherence,
            cfg.cores,
            cfg.mem.l3.sets(),
            cfg.mem.l3.ways,
            cfg.mem.dram_latency,
            cfg.mem.dram_max_inflight,
        );
        let net = Network::new(
            cfg.cores,
            NetLatency::from_round_trips(cfg.mem.l2.latency, cfg.mem.l3.latency),
            cfg.chaos_jitter,
            rng.fork(0x6e65_7477_6f72_6b),
        );
        MemorySystem {
            ctrls,
            dir,
            net,
            memory: MainMemory::new(),
        }
    }

    /// Delivers all messages due this cycle and advances DRAM. Call once
    /// per cycle *before* the cores issue new requests.
    pub fn tick(&mut self, now: Cycle) {
        self.dir.tick(&mut self.net, &mut self.memory, now);
        // Directory inbound.
        while let Some((_src, msg)) = self.net.recv(crate::net::Node::Dir, now) {
            self.dir.handle(msg, &mut self.net, &mut self.memory, now);
            self.run_dir_replays(now);
        }
        self.run_dir_replays(now);
        // Core inbound (deferred externals first, then fresh messages).
        for i in 0..self.ctrls.len() {
            self.ctrls[i].tick(now, &mut self.net);
            let node = crate::net::Node::Core(CoreId::new(i as u16));
            while let Some((_src, msg)) = self.net.recv(node, now) {
                self.ctrls[i].handle_msg(msg, now, &mut self.net);
            }
        }
    }

    fn run_dir_replays(&mut self, now: Cycle) {
        while let Some(msg) = self.dir.pop_replay() {
            self.dir.handle(msg, &mut self.net, &mut self.memory, now);
        }
    }

    /// Drains the events of one controller.
    pub fn take_events(&mut self, core: CoreId) -> Vec<CacheEvent> {
        self.ctrls[core.index()].take_events()
    }

    /// Appends one controller's pending events to `out` — the
    /// allocation-free drain for per-cycle loops.
    pub fn drain_events_into(&mut self, core: CoreId, out: &mut Vec<CacheEvent>) {
        self.ctrls[core.index()].drain_events_into(out);
    }

    /// Whether the entire memory system is quiescent (no in-flight
    /// messages, transactions or outstanding requests).
    pub fn quiesced(&self) -> bool {
        self.net.idle() && self.dir.idle() && self.ctrls.iter().all(|c| c.quiesced())
    }

    /// Snapshots the memory-side state for a deadlock report: what each
    /// controller, the directory and the interconnect still had in
    /// flight when forward progress stopped.
    pub fn deadlock_snapshot(&self) -> MemDeadlockSnapshot {
        MemDeadlockSnapshot {
            cores: self
                .ctrls
                .iter()
                .map(|c| CoreMemSnapshot {
                    outstanding: c.outstanding_requests(),
                    outstanding_lines: c.outstanding_lines(),
                    parked_externals: c.parked_externals(),
                })
                .collect(),
            dir_open_transactions: self.dir.open_transactions(),
            net_in_flight: self.net.in_flight(),
        }
    }

    /// Reads the *coherent* value of `size` bytes at `addr`: the dirty
    /// copy of the owning core if one exists, else memory. Intended for
    /// post-run final-state extraction (the system should be quiesced).
    pub fn read_coherent(&self, addr: tus_sim::Addr, size: usize) -> u64 {
        let line = addr.line();
        for c in &self.ctrls {
            if let Some((state, data)) = c.peek_line(line) {
                if state.can_write() {
                    return crate::line::read_value(&data, addr.line_offset(), size);
                }
            }
        }
        self.memory.read_addr(addr, size)
    }

    /// Arms structured tracing on every memory-side component (per-core
    /// controllers, directory, network), each with a ring of `cap`
    /// records.
    pub fn enable_trace(&mut self, cap: usize) {
        for c in &mut self.ctrls {
            c.trace_enable(cap);
        }
        self.dir.trace_enable(cap);
        self.net.trace_enable(cap);
    }

    /// Drains all memory-side trace buffers as named tracks:
    /// `mem.core<i>` per controller, plus `dir` and `net`.
    pub fn take_traces(&mut self) -> Vec<(String, Vec<TraceRecord>)> {
        let mut out = Vec::new();
        for (i, c) in self.ctrls.iter_mut().enumerate() {
            out.push((format!("mem.core{i}"), c.take_trace()));
        }
        out.push(("dir".to_owned(), self.dir.take_trace()));
        out.push(("net".to_owned(), self.net.take_trace()));
        out
    }

    /// Earliest cycle at which [`MemorySystem::tick`] itself would do
    /// anything: an in-flight network delivery (to the directory *or* a
    /// core controller — both are received inside `tick`), a DRAM
    /// completion, or a controller's deferred external request coming of
    /// age. This *excludes* pending controller events: those are consumed
    /// by the per-core slice, not by `tick`, so the event-driven kernel
    /// accounts them to the core unit.
    pub fn fabric_next_work(&self, now: Cycle) -> Option<Cycle> {
        let mut next = earliest(self.net.next_due(), self.dir.next_work(now));
        for c in &self.ctrls {
            next = earliest(next, c.next_deferred_fwd());
            if next.is_some_and(|c| c <= now) {
                break;
            }
        }
        next
    }

    /// Whether [`MemorySystem::tick`] at cycle `now` will mutate core
    /// `i`'s controller: a network message is due for delivery to it, or
    /// one of its deferred external requests comes of age. The
    /// event-driven kernel uses this to charge the core's pending idle
    /// span against its *pre-delivery* state and wake it for this cycle.
    pub fn core_touched_by_fabric(&self, i: usize, now: Cycle) -> bool {
        let node = crate::net::Node::Core(CoreId::new(i as u16));
        self.net.next_due_for(node).is_some_and(|d| d <= now)
            || self.ctrls[i].next_deferred_fwd().is_some_and(|d| d <= now)
    }

    /// Aggregated statistics (`coreN.*`, `dir.*`, `net.*`).
    pub fn export_stats(&self) -> StatSet {
        let mut s = StatSet::new();
        for c in &self.ctrls {
            s.absorb(&format!("core{}", c.core().raw()), &c.export_stats());
        }
        s.absorb("dir", &self.dir.export_stats());
        s.set("net.msgs", self.net.sent_count() as f64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::CacheEvent;
    use tus_sim::{Addr, SimConfig};

    fn small_cfg(cores: usize) -> SimConfig {
        SimConfig::builder()
            .cores(cores)
            .scale_caches_down(64)
            .build()
    }

    /// Runs ticks until `f` yields a value or the cycle budget is hit.
    /// Budget exhaustion is an `Err` carrying the memory-side snapshot,
    /// never a process abort — callers decide how to surface it.
    fn try_run_until<T>(
        sys: &mut MemorySystem,
        start: u64,
        budget: u64,
        mut f: impl FnMut(&mut MemorySystem, Cycle) -> Option<T>,
    ) -> Result<(Cycle, T), MemDeadlockSnapshot> {
        for t in start..start + budget {
            let now = Cycle::new(t);
            sys.tick(now);
            if let Some(v) = f(sys, now) {
                return Ok((now, v));
            }
        }
        Err(sys.deadlock_snapshot())
    }

    fn run_until<T>(
        sys: &mut MemorySystem,
        start: u64,
        budget: u64,
        f: impl FnMut(&mut MemorySystem, Cycle) -> Option<T>,
    ) -> (Cycle, T) {
        match try_run_until(sys, start, budget, f) {
            Ok(v) => v,
            Err(snap) => {
                unreachable!("condition not reached within {budget} cycles:\n{snap}")
            }
        }
    }

    #[test]
    fn load_miss_completes_with_dram_latency() {
        let cfg = small_cfg(1);
        let mut rng = SimRng::seed(1);
        let mut sys = MemorySystem::new(&cfg, &mut rng);
        let c0 = CoreId::new(0);
        {
            let (ctrl, net) = (&mut sys.ctrls[0], &mut sys.net);
            ctrl.load(Addr::new(0x1000), 8, 7, Cycle::ZERO, net);
        }
        let (_, (at, value)) = run_until(&mut sys, 0, 2000, |sys, _| {
            sys.take_events(c0).into_iter().find_map(|e| match e {
                CacheEvent::LoadDone { token: 7, at, value } => Some((at, value)),
                _ => None,
            })
        });
        assert_eq!(value, 0);
        // Two network hops + DRAM latency at minimum.
        assert!(at.raw() >= cfg.mem.dram_latency + 2 * sys.net.hop_latency());
        // Second load to the same line now hits in L1D.
        let t = at.raw() + 1;
        {
            let (ctrl, net) = (&mut sys.ctrls[0], &mut sys.net);
            ctrl.load(Addr::new(0x1008), 8, 8, Cycle::new(t), net);
        }
        let (_, at2) = run_until(&mut sys, t, 50, |sys, _| {
            sys.take_events(c0).into_iter().find_map(|e| match e {
                CacheEvent::LoadDone { token: 8, at, .. } => Some(at),
                _ => None,
            })
        });
        assert_eq!(at2.raw(), t + cfg.mem.l1d.latency);
    }

    #[test]
    fn store_write_read_roundtrip_through_two_cores() {
        let cfg = small_cfg(2);
        let mut rng = SimRng::seed(2);
        let mut sys = MemorySystem::new(&cfg, &mut rng);
        let addr = Addr::new(0x4000);
        // Core 0 acquires write permission and stores 0xdead.
        run_until(&mut sys, 0, 4000, |sys, now| {
            let (ctrl, net) = (&mut sys.ctrls[0], &mut sys.net);
            match ctrl.try_visible_store_write(addr, 8, 0xdead, now, net) {
                crate::percore::StoreWriteOutcome::Done => Some(()),
                crate::percore::StoreWriteOutcome::NotYet => None,
            }
        });
        // Core 1 loads it back: must observe 0xdead via coherence.
        {
            let now = Cycle::new(5000);
            sys.tick(now);
            let (ctrl, net) = (&mut sys.ctrls[1], &mut sys.net);
            ctrl.load(addr, 8, 99, now, net);
        }
        let (_, v) = run_until(&mut sys, 5001, 4000, |sys, _| {
            sys.take_events(CoreId::new(1)).into_iter().find_map(|e| match e {
                CacheEvent::LoadDone { token: 99, value, .. } => Some(value),
                _ => None,
            })
        });
        assert_eq!(v, 0xdead);
        // Core 0 must have been downgraded or invalidated.
        let st = sys.ctrls[0].line_state(addr.line());
        assert!(
            st.is_none() || !st.expect("present").0.can_write(),
            "core 0 still writable after remote read: {st:?}"
        );
    }

    #[test]
    fn write_permission_ping_pong() {
        let cfg = small_cfg(2);
        let mut rng = SimRng::seed(3);
        let mut sys = MemorySystem::new(&cfg, &mut rng);
        let addr = Addr::new(0x8000);
        for round in 0u64..6 {
            let core = (round % 2) as usize;
            let val = 0x100 + round;
            let start = round * 5000;
            run_until(&mut sys, start, 5000, |sys, now| {
                let (ctrl, net) = (&mut sys.ctrls[core], &mut sys.net);
                match ctrl.try_visible_store_write(addr, 8, val, now, net) {
                    crate::percore::StoreWriteOutcome::Done => Some(()),
                    crate::percore::StoreWriteOutcome::NotYet => None,
                }
            });
        }
        // Final value visible to a fresh read from core 0.
        {
            let now = Cycle::new(40_000);
            sys.tick(now);
            let (ctrl, net) = (&mut sys.ctrls[0], &mut sys.net);
            ctrl.load(addr, 8, 1, now, net);
        }
        let (_, v) = run_until(&mut sys, 40_001, 4000, |sys, _| {
            sys.take_events(CoreId::new(0)).into_iter().find_map(|e| match e {
                CacheEvent::LoadDone { token: 1, value, .. } => Some(value),
                _ => None,
            })
        });
        assert_eq!(v, 0x105);
    }

    #[test]
    fn quiesces_after_traffic() {
        let cfg = small_cfg(2);
        let mut rng = SimRng::seed(4);
        let mut sys = MemorySystem::new(&cfg, &mut rng);
        for i in 0..20u64 {
            let now = Cycle::new(i);
            sys.tick(now);
            let (ctrl, net) = (&mut sys.ctrls[(i % 2) as usize], &mut sys.net);
            ctrl.load(Addr::new(0x100 * i), 4, i, now, net);
        }
        let quiesced = try_run_until(&mut sys, 20, 20_000, |sys, _| {
            sys.quiesced().then_some(())
        });
        assert!(
            quiesced.is_ok(),
            "memory system failed to quiesce:\n{}",
            quiesced.expect_err("checked")
        );
    }

    #[test]
    fn stats_export_has_core_prefixes() {
        let cfg = small_cfg(2);
        let mut rng = SimRng::seed(5);
        let mut sys = MemorySystem::new(&cfg, &mut rng);
        {
            let (ctrl, net) = (&mut sys.ctrls[0], &mut sys.net);
            ctrl.load(Addr::new(0), 1, 0, Cycle::ZERO, net);
        }
        let s = sys.export_stats();
        assert_eq!(s.get("core0.loads"), 1.0);
        assert!(s.contains("core1.loads"));
        assert!(s.contains("dir.gets"));
    }
}
