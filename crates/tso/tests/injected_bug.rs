//! Fuzzer validation against a real, deliberately injected ordering bug.
//!
//! Built only with `--features bug-woq-reorder`, which makes the TUS
//! policy drain *any* fully-ready WOQ group (youngest first) instead of
//! only the head group — younger stores can become globally visible
//! before older ones, which is exactly the class of bug the WOQ exists
//! to prevent. These tests prove the differential fuzzer (a) detects
//! the resulting non-TSO outcomes from randomly generated programs and
//! (b) shrinks a failing program to a minimal counterexample.
//!
//! Run with:
//! ```sh
//! cargo test -p tus-tso --features bug-woq-reorder --release --test injected_bug
//! ```
#![cfg(feature = "bug-woq-reorder")]

use tus_sim::{CoherenceKind, KernelKind, PolicyKind};
use tus_tso::fuzz::{case_at, check_policies, shrink_with, CaseFailure, FailureKind, FuzzCase};

/// Timing seeds per check: enough scheduling diversity to expose the
/// readiness races the bug needs, small enough to keep the test quick.
const SEEDS: u64 = 8;

/// The differential check under the TUS policy alone.
fn check_tus(case: &FuzzCase) -> Option<CaseFailure> {
    let (kernel, coherence) = (KernelKind::default(), CoherenceKind::default());
    check_policies(case, &[PolicyKind::Tus], SEEDS, kernel, coherence)
}

/// Generated programs to try before giving up. The reorder is easy to
/// hit (any two independently-granted WOQ groups can invert), so the
/// fuzzer finds it within the first handful of programs in practice.
const MAX_PROGRAMS: u64 = 120;

/// Scans generated programs under the TUS policy until the injected
/// reorder shows up as a differential failure.
fn find_failing_case() -> (FuzzCase, u64) {
    for i in 0..MAX_PROGRAMS {
        let case = case_at(0xB06, i);
        if check_tus(&case).is_some() {
            return (case, i);
        }
    }
    panic!("fuzzer failed to catch the injected WOQ reorder in {MAX_PROGRAMS} programs");
}

#[test]
fn fuzzer_catches_injected_woq_reorder() {
    let (case, index) = find_failing_case();
    let failure = check_tus(&case).expect("still fails");
    // The injected bug reorders visibility; it must surface as a non-TSO
    // outcome (or, at worst, a structural failure), never pass silently.
    match &failure.kind {
        FailureKind::Violation(outcome) => {
            eprintln!("caught at program {index}: non-TSO outcome {outcome}\n{case}");
        }
        other => eprintln!("caught at program {index}: {other}\n{case}"),
    }
    assert_eq!(failure.policy, PolicyKind::Tus);
}

#[test]
fn injected_bug_shrinks_to_minimal_counterexample() {
    let (case, _) = find_failing_case();
    let (small, fail) = shrink_with(&case, check_tus);
    eprintln!(
        "shrunk to {} thread(s) / {} op(s): {fail}\n{small}",
        small.program.threads.len(),
        small.program.ops()
    );
    assert!(
        small.program.threads.len() <= 3,
        "shrunk case still has {} threads",
        small.program.threads.len()
    );
    assert!(
        small.program.ops() <= 6,
        "shrunk case still has {} ops",
        small.program.ops()
    );
    // The minimized case must reproduce the failure on its own.
    assert!(check_tus(&small).is_some());
}
