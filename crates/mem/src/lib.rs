//! Memory hierarchy for the TUS reproduction.
//!
//! This crate models the full data-side memory system of the simulated
//! machine (Table I of the paper):
//!
//! * [`mod@line`] — cache-line data and byte masks.
//! * [`mesi`] — MESI coherence states.
//! * [`cache`] — generic set-associative arrays with LRU and the
//!   victim-filtering the TUS mechanism needs (unauthorized lines are never
//!   eviction candidates).
//! * [`msgs`] / [`net`] — coherence messages and the latency-modeling
//!   interconnect with per-channel FIFO ordering.
//! * [`backend`] — the coherence home node ([`Directory`]): an atomic
//!   per-line transaction model backed by the shared L3 and DRAM, running
//!   one of two protocols — the paper's full-map MESI directory
//!   ([`backend::mesi`]) or a Tardis-style logical-timestamp protocol
//!   ([`backend::tardis`], leases instead of invalidations, with the
//!   per-core clock each controller holds under it).
//! * [`mainmem`] — functional backing store.
//! * [`prefetch`] — the baseline stream (stride) prefetcher and the SPB
//!   page-burst store prefetcher.
//! * [`percore`] — the per-core private cache controller (L1D + private
//!   L2, inclusive), including the L1D *not-visible*/*ready* bit
//!   extensions the TUS mechanism relies on.
//! * [`system`] — [`MemorySystem`], wiring controllers, directory,
//!   network and DRAM together, ticked once per cycle.
//!
//! The TUS decision logic itself (WOQ, atomic groups, lex order) lives in
//! the `tus` crate; this crate exposes the mechanisms (unauthorized writes,
//! combine-on-arrival, relinquish, external-conflict events) it drives.

pub mod backend;
pub mod cache;
pub mod line;
pub mod mainmem;
pub mod mesi;
pub mod msgs;
pub mod net;
pub mod percore;
pub mod prefetch;
mod slots;
pub mod system;

pub use backend::Directory;
pub use cache::{CacheArray, CacheLineState, L3Cache};
pub use line::{ByteMask, LineData};
pub use mainmem::MainMemory;
pub use mesi::Mesi;
pub use msgs::{CacheEvent, FwdKind, Lease, Msg, ReqKind};
pub use net::Network;
pub use percore::{PrivateCache, ProbeResult, StoreAttemptClass, StoreWriteOutcome, UnauthAllocError};
pub use system::{CoreMemSnapshot, MemDeadlockSnapshot, MemorySystem};
