//! Temporarily Unauthorized Stores (TUS) — the paper's contribution.
//!
//! This crate implements the store-handling mechanism of *"Temporarily
//! Unauthorized Stores: Write First, Ask for Permission Later"* (MICRO
//! 2024) on top of the `tus-cpu` core model and the `tus-mem` memory
//! hierarchy:
//!
//! * [`lex`] — the lexicographical sub-address order and the
//!   authorization unit that decides between *delaying* and
//!   *relinquishing* on external conflicts (Section III-C).
//! * [`woq`] — the Write Ordering Queue: tracks the x86-TSO order in
//!   which unauthorized cache lines must become visible, with atomic
//!   groups for store cycles (Sections III-A/III-B, Figure 6).
//! * [`wcb`] — the re-purposed write-combining buffers that coalesce
//!   coherent stores across non-consecutive lines.
//! * [`policy`] — the five drain policies the evaluation compares, as one
//!   [`policy::Policy`] told apart by where committed stores wait:
//!   nowhere (baseline, and SPB with its burst prefetcher), SSB's TSOB,
//!   or the WCBs, whose one front end takes CSB's permission-checked
//!   flush or TUS's unauthorized one.
//! * [`system`] — [`System`]: cores + policies + memory, ticked cycle by
//!   cycle, with run loops, progress watchdogs and statistics.
//!
//! # Quickstart
//!
//! ```
//! use tus::System;
//! use tus_cpu::{TraceInst, VecTrace};
//! use tus_sim::{Addr, PolicyKind, SimConfig};
//!
//! let cfg = SimConfig::builder().policy(PolicyKind::Tus).build();
//! let trace = VecTrace::new(vec![
//!     TraceInst::store(Addr::new(0x1000), 8, 42),
//!     TraceInst::load(Addr::new(0x1000), 8),
//! ]);
//! let mut sys = System::new(&cfg, vec![Box::new(trace)], 1);
//! let stats = sys.run_to_completion(100_000);
//! assert_eq!(stats.get("core0.cpu.committed"), 2.0);
//! ```

pub mod lex;
pub mod policy;
pub mod system;
pub mod wcb;
pub mod woq;

pub use lex::{AuthorizationUnit, ConflictDecision};
pub use policy::{Policy, PolicyOccupancy};
pub use system::{
    CoreDeadlockState, DeadlockKind, DeadlockReport, RunCtl, RunGoal, StepOutcome, System,
    DEFAULT_TRACE_CAP,
};
pub use wcb::WcbSet;
pub use woq::{GroupId, Woq, WoqEntry};
