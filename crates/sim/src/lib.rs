//! Simulation kernel for the TUS reproduction.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on:
//!
//! * [`types`] — strongly-typed identifiers for addresses, cache lines,
//!   cycles and cores ([`Addr`], [`LineAddr`], [`Cycle`], [`CoreId`]).
//! * [`event`] — a deterministic delay queue used to model latencies
//!   ([`DelayQueue`]).
//! * [`rng`] — a seeded, reproducible random-number generator ([`SimRng`]).
//! * [`stats`] — a hierarchical statistics registry ([`StatSet`]).
//! * [`config`] — the full Table I machine description ([`SimConfig`]) with
//!   a builder, plus the store-drain policy selector ([`PolicyKind`]) and
//!   the simulation-kernel selector ([`KernelKind`]).
//! * [`sched`] — the next-work contract the event kernel uses to
//!   compute per-component next-event cycles.
//! * [`calendar`] — the per-unit next-work keys ([`Calendar`]) behind
//!   the event-driven kernel.
//! * [`lineid`] — dense per-run line identifiers ([`LineId`],
//!   [`LineInterner`]) and the allocation-recycling primitives ([`Slab`],
//!   [`BoxPool`]) behind the zero-allocation steady-state hot path.
//! * [`trace`] — the zero-cost-when-disabled structured event recorder
//!   ([`Tracer`]) and the stall-attribution accountant ([`AttrClass`],
//!   [`Attribution`]).
//!
//! # Example
//!
//! ```
//! use tus_sim::{Addr, Cycle, LineAddr, SimConfig};
//!
//! let cfg = SimConfig::builder().cores(1).sb_entries(114).build();
//! assert_eq!(cfg.sb.entries, 114);
//!
//! let a = Addr::new(0x1040);
//! assert_eq!(a.line(), LineAddr::new(0x41));
//! assert_eq!(a.line_offset(), 0);
//! assert_eq!(Cycle::ZERO + 5, Cycle::new(5));
//! ```

pub mod calendar;
pub mod config;
pub mod event;
pub mod hash;
pub mod lineid;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod types;

pub use calendar::Calendar;
pub use config::{CoherenceKind, KernelKind, PolicyKind, SimConfig, SimConfigBuilder};
pub use event::DelayQueue;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use lineid::{BoxPool, LineId, LineInterner, Slab};
pub use rng::SimRng;
pub use stats::StatSet;
pub use trace::{AttrClass, Attribution, TraceEvent, TraceRecord, Tracer};
pub use types::{Addr, CoreId, Cycle, LineAddr, LINE_BYTES, LINE_SHIFT};
