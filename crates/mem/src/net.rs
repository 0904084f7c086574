//! The coherence interconnect.
//!
//! [`Network`] models point-to-point latencies between the per-core cache
//! controllers and the directory. Two properties matter for protocol
//! correctness:
//!
//! 1. **Per-channel FIFO**: messages between the same (source, destination)
//!    pair are delivered in send order, even when jitter is enabled. The
//!    directory protocol relies on this (e.g. an eviction notice must not
//!    be overtaken by a later forward response).
//! 2. **Determinism**: with a fixed seed, delivery order is identical
//!    across runs. The optional `chaos_jitter` adds bounded random latency
//!    per message so the TSO litmus harness can explore interleavings.

use tus_sim::trace::{TraceEvent, TraceRecord, Tracer};
use tus_sim::{BoxPool, CoreId, Cycle, DelayQueue, SimRng};

use crate::line::LineData;
use crate::msgs::Msg;

/// A network endpoint: the directory or one core's cache controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// A core-side private cache controller.
    Core(CoreId),
    /// The directory / shared LLC.
    Dir,
}

impl Node {
    fn index(self, cores: usize) -> usize {
        match self {
            Node::Core(c) => c.index(),
            Node::Dir => cores,
        }
    }
}

/// Latency parameters of the interconnect, derived from Table I round
/// trips: an L1D-to-L2 leg is half the 16-cycle L2 round trip and an
/// L2-to-LLC leg half the 34-cycle L3 round trip, so one hop between a
/// core and the directory costs 8 + 17 = 25 cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetLatency {
    /// Core ↔ directory hop latency in cycles.
    pub hop: u64,
}

impl NetLatency {
    /// Derives hop latency from L2/L3 round trips.
    pub fn from_round_trips(l2_rt: u64, l3_rt: u64) -> Self {
        NetLatency {
            hop: l2_rt / 2 + l3_rt / 2 + 1,
        }
    }
}

impl Default for NetLatency {
    fn default() -> Self {
        NetLatency::from_round_trips(16, 34)
    }
}

/// The interconnect: one inbound queue per endpoint with per-channel FIFO
/// and optional jitter.
#[derive(Debug, Clone)]
pub struct Network {
    queues: Vec<DelayQueue<(Node, Msg)>>,
    last_delivery: Vec<Cycle>,
    cores: usize,
    latency: NetLatency,
    jitter: u64,
    rng: SimRng,
    sent: u64,
    tracer: Tracer,
    /// Recycling pool for the line-data payloads carried by coherence
    /// messages. The network is the one component threaded through every
    /// hot path on both the core and directory sides, so it hosts the
    /// pool: producers draw boxes here, consumers return them after
    /// copying the payload out.
    data_pool: BoxPool<LineData>,
}

impl Network {
    /// Creates a network for `cores` controllers plus the directory.
    pub fn new(cores: usize, latency: NetLatency, jitter: u64, rng: SimRng) -> Self {
        let endpoints = cores + 1;
        Network {
            queues: (0..endpoints).map(|_| DelayQueue::new()).collect(),
            last_delivery: vec![Cycle::ZERO; endpoints * endpoints],
            cores,
            latency,
            jitter,
            rng,
            sent: 0,
            tracer: Tracer::default(),
            data_pool: BoxPool::new(),
        }
    }

    /// A line-data box from the recycling pool (contents are stale — the
    /// caller must overwrite every byte it exposes).
    #[inline]
    pub fn alloc_data(&mut self) -> Box<LineData> {
        self.data_pool.alloc_with(|| [0u8; tus_sim::LINE_BYTES])
    }

    /// A pooled line-data box holding a copy of `src`.
    #[inline]
    pub fn alloc_data_copy(&mut self, src: &LineData) -> Box<LineData> {
        self.data_pool.alloc_copy_of(src)
    }

    /// Returns a message payload to the pool once its bytes are consumed.
    #[inline]
    pub fn recycle_data(&mut self, data: Box<LineData>) {
        self.data_pool.recycle(data);
    }

    /// Arms structured message tracing with a ring of `cap` records.
    pub fn trace_enable(&mut self, cap: usize) {
        self.tracer.enable(cap);
    }

    /// Drains the buffered trace records, oldest first.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.tracer.take()
    }

    /// Sends `msg` from `src` to `dst`, arriving after the hop latency
    /// (plus jitter), but never before an earlier message on the same
    /// channel.
    pub fn send(&mut self, src: Node, dst: Node, now: Cycle, msg: Msg) {
        let jitter = if self.jitter == 0 {
            0
        } else {
            self.rng.range(0, self.jitter + 1)
        };
        let nominal = now + self.latency.hop + jitter;
        let ch = src.index(self.cores) * (self.cores + 1) + dst.index(self.cores);
        let due = nominal.max(self.last_delivery[ch]);
        self.last_delivery[ch] = due;
        self.tracer
            .emit(now, 0, TraceEvent::NetMsg { kind: msg.label() });
        self.queues[dst.index(self.cores)].push(due, (src, msg));
        self.sent += 1;
    }

    /// Pops the next message due at `dst` by cycle `now`.
    pub fn recv(&mut self, dst: Node, now: Cycle) -> Option<(Node, Msg)> {
        self.queues[dst.index(self.cores)].pop_due(now)
    }

    /// Whether any message is still in flight anywhere.
    pub fn idle(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Number of messages currently in flight (deadlock diagnostics).
    pub fn in_flight(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Total messages ever sent (traffic statistic).
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Configured hop latency.
    pub fn hop_latency(&self) -> u64 {
        self.latency.hop
    }

    /// Delivery cycle of the earliest in-flight message at any endpoint.
    ///
    /// Jitter is drawn in [`Network::send`], never while a message waits,
    /// so the earliest delivery cycle is fixed once the message is queued —
    /// which makes it safe for the event kernel to jump to it.
    pub fn next_due(&self) -> Option<Cycle> {
        self.queues.iter().filter_map(|q| q.next_due()).min()
    }

    /// Delivery cycle of the earliest in-flight message addressed to
    /// `dst` (same fixed-once-queued guarantee as [`Network::next_due`]).
    /// The event-driven kernel uses this to wake exactly the unit a
    /// delivery is about to mutate.
    pub fn next_due_for(&self, dst: Node) -> Option<Cycle> {
        self.queues[dst.index(self.cores)].next_due()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::ReqKind;
    use tus_sim::LineAddr;

    fn req(line: u64) -> Msg {
        Msg::Req {
            core: CoreId::new(0),
            line: LineAddr::new(line),
            kind: ReqKind::GetS,
            prefetch: false,
            pts: 0,
        }
    }

    #[test]
    fn delivery_after_hop_latency() {
        let mut n = Network::new(1, NetLatency { hop: 10 }, 0, SimRng::seed(1));
        n.send(Node::Core(CoreId::new(0)), Node::Dir, Cycle::new(5), req(1));
        assert!(n.recv(Node::Dir, Cycle::new(14)).is_none());
        assert!(n.recv(Node::Dir, Cycle::new(15)).is_some());
    }

    #[test]
    fn per_channel_fifo_even_with_jitter() {
        let mut n = Network::new(1, NetLatency { hop: 5 }, 50, SimRng::seed(42));
        let src = Node::Core(CoreId::new(0));
        for i in 0..100 {
            n.send(src, Node::Dir, Cycle::new(i), req(i));
        }
        let mut last = 0;
        let mut got = 0;
        for t in 0..1000 {
            while let Some((_, m)) = n.recv(Node::Dir, Cycle::new(t)) {
                let l = m.line().raw();
                assert!(got == 0 || l > last, "FIFO violated: {l} after {last}");
                last = l;
                got += 1;
            }
        }
        assert_eq!(got, 100);
        assert!(n.idle());
    }

    #[test]
    fn separate_destinations_do_not_interfere() {
        let mut n = Network::new(2, NetLatency { hop: 1 }, 0, SimRng::seed(1));
        n.send(Node::Dir, Node::Core(CoreId::new(1)), Cycle::new(0), req(7));
        assert!(n.recv(Node::Core(CoreId::new(0)), Cycle::new(10)).is_none());
        let (src, m) = n.recv(Node::Core(CoreId::new(1)), Cycle::new(10)).expect("due");
        assert_eq!(src, Node::Dir);
        assert_eq!(m.line(), LineAddr::new(7));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed| {
            let mut n = Network::new(1, NetLatency { hop: 2 }, 20, SimRng::seed(seed));
            let mut order = Vec::new();
            n.send(Node::Core(CoreId::new(0)), Node::Dir, Cycle::ZERO, req(1));
            n.send(Node::Dir, Node::Core(CoreId::new(0)), Cycle::ZERO, req(2));
            for t in 0..100 {
                if n.recv(Node::Dir, Cycle::new(t)).is_some() {
                    order.push((t, 0));
                }
                if n.recv(Node::Core(CoreId::new(0)), Cycle::new(t)).is_some() {
                    order.push((t, 1));
                }
            }
            order
        };
        assert_eq!(run(9), run(9));
    }
}
