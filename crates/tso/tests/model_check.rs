//! Oracle and soundness tests for the bounded model checker.
//!
//! Four legs, mirroring how much trust `tus-harness check` and the
//! reference model deserve:
//!
//! 1. **Litmus oracles** — on SB, MP, LB and IRIW the enumerated
//!    reachable set of *every* policy must equal the known x86-TSO
//!    outcome set, written out here by hand (not read back from
//!    `refmodel`, which the explorer is diffed against elsewhere — an
//!    independent bug in both would otherwise cancel out).
//! 2. **Seeded-fuzz cross-check** — on random generator programs, every
//!    outcome the sampling fuzzer's simulator runs observe must lie
//!    inside the explorer's enumerated set: exhaustive ⊇ sampled.
//! 3. **Pruning soundness** — store-buffer reduction and lazy-TSO are
//!    exploration optimizations; with them on vs. off the enumerated
//!    sets must be identical on 50 random small programs.
//! 4. **Reference model vs. explorer** — the explorer's unpruned
//!    baseline machine is the same unbounded FIFO machine as `refmodel`,
//!    written independently over explicit buffer contents; the two sets
//!    must be equal on 100 generated programs at the generator's full
//!    bounds (up to 4 threads and 12 ops).

use std::collections::BTreeSet;

use tus_sim::{CoherenceKind, KernelKind, PolicyKind};
use tus_tso::check::{explore_policy, CheckConfig};
use tus_tso::conformance::check_conformance_against;
use tus_tso::fuzz::{case_at, cases_in_bounds, FuzzCase, MAX_OPS, MAX_THREADS};
use tus_tso::litmus::all_litmus_tests;
use tus_tso::prog::{Outcome, Program};
use tus_tso::tso_outcomes;

/// The litmus library's program for `name`.
fn litmus_program(name: &str) -> Program {
    all_litmus_tests()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("litmus test {name} in the library"))
        .program
}

/// Bounds wide enough for the 4-thread IRIW oracle; model-only (the
/// simulator cross-check has its own leg below).
fn cfg() -> CheckConfig {
    CheckConfig { max_threads: 4, sim_seeds: 0, ..CheckConfig::default() }
}

/// Asserts every policy's enumerated set equals `expected` exactly.
///
/// The oracle tests below carry
/// `cfg_attr(feature = "bug-woq-reorder", ignore)`: under fault
/// injection the TUS machine deliberately reaches MP's forbidden
/// outcome, and *catching* that divergence is the injected-bug CI
/// job's assertion (`tus-harness check --litmus MP` must exit 1), not
/// a failure of these tests.
fn assert_exact(name: &str, expected: &BTreeSet<Outcome>) {
    let prog = litmus_program(name);
    for policy in PolicyKind::ALL {
        let (got, _) = explore_policy(&prog, policy, &cfg())
            .unwrap_or_else(|b| panic!("{name}/{}: {b}", policy.label()));
        assert_eq!(
            &got,
            expected,
            "{name} under {}: enumerated set diverges from the hand-written TSO oracle",
            policy.label()
        );
    }
}

fn outcome(regs: Vec<Vec<u64>>, mem: Vec<u64>) -> Outcome {
    Outcome { regs, mem }
}

/// SB (Dekker): both stores always land; each thread's single load may
/// read 0 or 1 independently — all four combinations are TSO-allowed.
#[test]
#[cfg_attr(feature = "bug-woq-reorder", ignore = "fault injection makes TUS diverge by design")]
fn sb_oracle_exact_set() {
    let mut expected = BTreeSet::new();
    for a in 0..=1u64 {
        for b in 0..=1u64 {
            expected.insert(outcome(vec![vec![a], vec![b]], vec![1, 1]));
        }
    }
    assert_eq!(expected.len(), 4);
    assert_exact("SB", &expected);
}

/// MP (message passing): once the flag (`x1`) reads 1 the data (`x0`)
/// must read 1 — `[1, 0]` is the one forbidden combination.
#[test]
#[cfg_attr(feature = "bug-woq-reorder", ignore = "fault injection makes TUS diverge by design")]
fn mp_oracle_exact_set() {
    let mut expected = BTreeSet::new();
    for flag in 0..=1u64 {
        for data in 0..=1u64 {
            if flag == 1 && data == 0 {
                continue;
            }
            expected.insert(outcome(vec![vec![], vec![flag, data]], vec![1, 1]));
        }
    }
    assert_eq!(expected.len(), 3);
    assert_exact("MP", &expected);
}

/// LB (load buffering): loads never read from the future, so both loads
/// observing 1 is forbidden; the other three combinations are allowed.
#[test]
#[cfg_attr(feature = "bug-woq-reorder", ignore = "fault injection makes TUS diverge by design")]
fn lb_oracle_exact_set() {
    let mut expected = BTreeSet::new();
    for a in 0..=1u64 {
        for b in 0..=1u64 {
            if a == 1 && b == 1 {
                continue;
            }
            expected.insert(outcome(vec![vec![a], vec![b]], vec![1, 1]));
        }
    }
    assert_eq!(expected.len(), 3);
    assert_exact("LB", &expected);
}

/// IRIW: the two readers must agree on the order of the two independent
/// writes — of the 16 load combinations only the contradictory pair
/// (T2 sees x0 before x1, T3 sees x1 before x0) is forbidden.
#[test]
#[cfg_attr(feature = "bug-woq-reorder", ignore = "fault injection makes TUS diverge by design")]
fn iriw_oracle_exact_set() {
    let mut expected = BTreeSet::new();
    for a in 0..=1u64 {
        for b in 0..=1u64 {
            for c in 0..=1u64 {
                for d in 0..=1u64 {
                    if a == 1 && b == 0 && c == 1 && d == 0 {
                        continue;
                    }
                    expected.insert(outcome(
                        vec![vec![], vec![], vec![a, b], vec![c, d]],
                        vec![1, 1],
                    ));
                }
            }
        }
    }
    assert_eq!(expected.len(), 15);
    assert_exact("IRIW", &expected);
}

/// The first `n` cases of stream `seed` within the default check
/// bounds, as `tus-harness check --programs` draws them.
fn bounded_cases(seed: u64, n: u64) -> Vec<FuzzCase> {
    let cfg = CheckConfig::default();
    let (found, _) = cases_in_bounds(seed, n, cfg.max_threads, cfg.max_ops);
    assert_eq!(found.len() as u64, n, "stream {seed} has {n} in-bound cases");
    found.into_iter().map(|(_, case)| case).collect()
}

/// Exhaustive ⊇ sampled: every outcome the real simulator produces on a
/// random program (any policy, several timing seeds) is in the
/// explorer's enumerated set for that policy, and every run produces one.
#[test]
fn explorer_set_contains_every_fuzzer_observation() {
    let cfg = CheckConfig { sim_seeds: 0, ..CheckConfig::default() };
    let (kernel, coherence) = (KernelKind::default(), CoherenceKind::default());
    for case in bounded_cases(11, 8) {
        for policy in PolicyKind::ALL {
            let (enumerated, _) = explore_policy(&case.program, policy, &cfg)
                .unwrap_or_else(|b| panic!("in-bound program exceeded a bound: {b}"));
            let sim = check_conformance_against(
                enumerated,
                &case.program,
                &case.addrs,
                policy,
                6,
                kernel,
                coherence,
            );
            assert!(
                sim.conforms(),
                "policy {}: simulator outcomes {:?} escape the enumerated set of\n{case}\n\
                 (timeouts at {:?}, truncated at {:?})",
                policy.label(),
                sim.violations,
                sim.timeouts.iter().map(|(seed, _)| seed).collect::<Vec<_>>(),
                sim.truncated_seeds,
            );
        }
    }
}

/// Store-buffer reduction and lazy-TSO change how much is explored,
/// never what is reachable: on 50 random small programs the enumerated
/// sets with both prunings on and both off are identical (and the
/// prunings actually engage somewhere across the batch).
#[test]
fn prunings_are_outcome_preserving_on_random_programs() {
    let pruned_cfg = CheckConfig { sim_seeds: 0, ..CheckConfig::default() };
    let exhaustive_cfg =
        CheckConfig { reduction: false, lazy: false, sim_seeds: 0, ..CheckConfig::default() };
    let (mut total_pruned, mut total_levels) = (0u64, 0u32);
    for (i, case) in bounded_cases(23, 50).into_iter().enumerate() {
        for policy in PolicyKind::ALL {
            let (fast, stats) = explore_policy(&case.program, policy, &pruned_cfg)
                .unwrap_or_else(|b| panic!("program {i} (pruned): {b}"));
            let (slow, _) = explore_policy(&case.program, policy, &exhaustive_cfg)
                .unwrap_or_else(|b| panic!("program {i} (exhaustive): {b}"));
            assert_eq!(
                fast, slow,
                "program {i} under {}: prunings changed the reachable set of\n{}",
                policy.label(),
                case
            );
            total_pruned += stats.pruned;
            total_levels = total_levels.max(stats.levels);
        }
    }
    assert!(total_pruned > 0, "the reduction never engaged across 50 programs");
    assert!(total_levels >= 2, "lazy deepening never went past SC across 50 programs");
}

/// The reference model equals an independent implementation of the same
/// machine: on the first 100 cases of fuzz stream 1 (the stream the
/// `verify` benchmark and CI's fuzz job check, 4-thread cases included),
/// `tso_outcomes` returns exactly the set that the explorer's baseline
/// machine reaches with both prunings off.
#[test]
fn reference_model_matches_unpruned_explorer_at_generator_bounds() {
    let unpruned = CheckConfig {
        reduction: false,
        lazy: false,
        max_threads: MAX_THREADS,
        max_ops: MAX_OPS,
        sim_seeds: 0,
        ..CheckConfig::default()
    };
    let mut four_threads = 0;
    for i in 0..100u64 {
        let case = case_at(1, i);
        let (explored, _) = explore_policy(&case.program, PolicyKind::Baseline, &unpruned)
            .unwrap_or_else(|b| panic!("case {i}: {b}"));
        assert_eq!(
            tso_outcomes(&case.program),
            explored,
            "case {i}: the reference model and the explorer disagree on\n{case}"
        );
        four_threads += usize::from(case.program.threads.len() == 4);
    }
    assert!(four_threads > 0, "no 4-thread case among the 100");
}
