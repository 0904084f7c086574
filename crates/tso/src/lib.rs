//! x86-TSO verification for the TUS simulator.
//!
//! Section III-D of the paper argues that TUS preserves every x86-TSO
//! ordering. This crate turns that argument into an executable property:
//!
//! * [`prog`] — a tiny litmus-program representation (threads of
//!   stores/loads/fences over named locations).
//! * [`refmodel`] — the operational x86-TSO model of Sewell et al.
//!   (per-thread FIFO store buffers over a shared memory), with an
//!   exhaustive interleaving enumerator that computes the exact set of
//!   TSO-allowed outcomes.
//! * [`litmus`] — the canonical corpus (SB, MP, LB, IRIW, n5/n6, 2+2W,
//!   CoRR, ...) with the classifications from the x86-TSO paper, used to
//!   validate the reference model itself.
//! * [`conformance`] — compiles litmus programs onto the full simulator
//!   (one core per thread) and holds the one simulator run loop,
//!   [`conformance::check_conformance_against`]: it runs a program across
//!   many seeds with coherence-message jitter to explore timings and
//!   judges every observed outcome against an allowed set. Its
//!   [`ConformanceReport::first_failure`] is the one place simulator runs
//!   become a shrinkable [`CaseFailure`].
//! * [`fuzz`] — differential fuzzing: a seeded random litmus generator
//!   biased toward TUS-stressing shapes and its case stream
//!   ([`fuzz::case_at`], [`fuzz::cases_in_bounds`]), the policy-list
//!   checker against the reference model ([`fuzz::check_policies`]), a
//!   counterexample shrinker and the corpus text format used by
//!   `tus-harness fuzz`.
//! * [`check`] — bounded exhaustive model checking: enumerates every
//!   reachable outcome of each policy's observable semantics (with
//!   store-buffer reduction and lazy-TSO pruning) and requires exact
//!   set equality with the reference model, upgrading the fuzzer's
//!   statistical verdicts to exhaustive-at-bound ones. Its simulator
//!   cross-check is the same run loop, judged against each policy's
//!   enumerated set.

pub mod check;
pub mod conformance;
pub mod fuzz;
pub mod litmus;
pub mod prog;
pub mod refmodel;

pub use check::{
    check_case_model, check_program_policies, explore_policy, Bound, CheckConfig, CheckOutcome,
    CheckReport, CheckStats, PolicyCheck,
};
pub use conformance::{check_conformance, ConformanceReport, RunVerdict};
pub use fuzz::{
    case_at, cases_in_bounds, check_case, check_policies, decode_case, encode_case,
    generate_case, shrink_with, CaseFailure, CorpusEntry, FailureKind, FuzzCase,
};
pub use litmus::{all_litmus_tests, LitmusTest};
pub use prog::{LOp, Loc, Outcome, Program, Thread};
pub use refmodel::tso_outcomes;
