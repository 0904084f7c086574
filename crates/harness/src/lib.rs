//! Experiment harness.
//!
//! One entry point per table/figure of the paper's evaluation section:
//!
//! | Entry | Paper content |
//! |---|---|
//! | [`experiments::table1`] | Table I configuration parameters |
//! | [`experiments::fig08`] | Speedup vs SB size {32,56,64,114}, all policies, per suite |
//! | [`experiments::fig09`] | SB-induced stalls (% cycles), 114-entry SB |
//! | [`experiments::fig10`] | Speedup S-curve + SB-bound breakdown vs 114-SB |
//! | [`experiments::fig11`] | Normalized EDP vs 114-SB (single-thread SB-bound) |
//! | [`experiments::fig12`] | PARSEC speedup + EDP vs 114-SB (16 cores) |
//! | [`experiments::fig13`] | Speedup S-curve + breakdown vs 32-SB |
//! | [`experiments::fig14`] | PARSEC speedup + EDP vs 32-SB |
//! | [`experiments::fig15`] | Normalized EDP vs 32-SB (single-thread SB-bound) |
//! | [`experiments::intext`] | In-text claims: SB/WOQ area & energy ratios, L1D write reduction, stall totals |
//! | [`experiments::ablation`] | Design-space sweeps: WOQ size, WCB count, atomic-group cap, lex bits, prefetch-at-commit |
//!
//! Each experiment renders an aligned table and writes a CSV under the
//! output directory. [`runner`] executes individual simulations with
//! warm-up subtraction; [`executor`] batches them — deduplicating,
//! memoizing (in process and on disk) and running them on a worker
//! pool — without changing a byte of output; [`table`] renders results.

//! The harness also runs as a long-lived daemon ([`serve`]): one warm
//! process sharing a single memoizing [`Executor`] across many clients
//! over a unix socket and/or TCP, speaking the length-prefixed frame
//! protocol of [`protocol`]. Bad requests — unknown names, malformed
//! frames, over-budget runs, even panicking simulations — come back as
//! structured [`HarnessError`] replies, never a dead process. Each
//! command is a row of [`request::REQUESTS`], run through one function by
//! the CLI and the daemon alike.

pub mod args;
pub mod check_cmd;
pub mod client;
pub mod errors;
pub mod executor;
pub mod experiments;
pub mod fuzz_cmd;
pub mod protocol;
pub mod request;
pub mod runner;
pub mod serve;
pub mod table;
pub mod trace_cmd;

pub use errors::HarnessError;
pub use executor::{ExecCounters, Executor, ResultSet};
pub use runner::{run, try_run, RunResult, RunSpec, Scale, Tweak};
pub use table::Table;
