//! Differential TSO fuzzing: generate → check → shrink.
//!
//! The litmus corpus pins down the famous shapes, but TUS's correctness
//! argument is universal: *every* program must stay within x86-TSO. This
//! module closes the gap with a seeded random litmus generator biased
//! toward the patterns that stress the TUS machinery (cross-line store
//! bursts that force WCB atomic groups, address pairs colliding in the
//! 16-LSB lex order, same-line packing, fence-adjacent races), a
//! differential checker that runs each program across all five drain
//! policies × many timing seeds against the axiomatic reference set from
//! [`crate::refmodel`], and a greedy shrinker that minimizes violating
//! programs (drop ops → drop threads → merge locations) before they are
//! reported or persisted.
//!
//! Everything is deterministic in the base seed, so a CI failure is
//! replayable bit-for-bit from its corpus file.

use tus_sim::{Addr, CoherenceKind, KernelKind, PolicyKind, SimRng};

use crate::conformance::{check_conformance_against, default_addrs};
use crate::prog::{LOp, Loc, Outcome, Program, Thread};
use crate::refmodel::tso_outcomes;

/// Maximum threads per generated program (one simulator core each).
pub const MAX_THREADS: usize = 4;
/// Maximum distinct locations per generated program.
pub const MAX_LOCS: usize = 6;
/// Maximum total operations — keeps the reference model's exhaustive
/// interleaving enumeration instant.
pub const MAX_OPS: usize = 12;

/// First cache line used for fuzz locations (decimal line number of the
/// litmus base address).
const BASE_LINE: u64 = 0x4000;

/// How the generator lays fuzz locations out in the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AddrLayout {
    /// Each location on its own line, distinct lex orders (the litmus
    /// default).
    DistinctLines,
    /// Consecutive locations paired onto lines sharing all 16 LSBs —
    /// equal lex order, distinct lines (paper §deadlock resolution).
    LexCollidingPairs,
    /// Consecutive locations packed into the *same* line at distinct
    /// 8-byte offsets (exercises WCB coalescing and store forwarding).
    SameLinePairs,
}

/// A generated program plus its location→address map. The map is part of
/// the case: TSO semantics do not depend on it, but the simulator paths a
/// program exercises (lex conflicts, coalescing) very much do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// The litmus program.
    pub program: Program,
    /// Address of each location (8-byte slots; may share cache lines).
    pub addrs: Vec<Addr>,
}

impl std::fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (l, a) in self.addrs.iter().enumerate() {
            writeln!(
                f,
                "loc {l} -> addr {:#x} (line {:#x}, lex16 {:#x})",
                a.raw(),
                a.line().raw(),
                a.line().lex_order(16)
            )?;
        }
        for (i, t) in self.program.threads.iter().enumerate() {
            write!(f, "T{i}:")?;
            for op in &t.ops {
                match op {
                    LOp::Store { loc, val } => write!(f, " st x{} {}", loc.0, val)?,
                    LOp::Load { loc } => write!(f, " ld x{}", loc.0)?,
                    LOp::Fence => write!(f, " mfence")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Generates one random litmus case, deterministically from `rng`.
pub fn generate_case(rng: &mut SimRng) -> FuzzCase {
    let threads_n = 1 + rng.index(MAX_THREADS);
    let locs_n = 1 + rng.index(MAX_LOCS);
    // Total op budget: at least one per thread, at most MAX_OPS.
    let total_ops = rng.range(threads_n as u64 * 2, MAX_OPS as u64 + 1).max(threads_n as u64) as usize;
    let mut budgets = vec![1usize; threads_n];
    for _ in threads_n..total_ops {
        budgets[rng.index(threads_n)] += 1;
    }

    let mut val = 1u64; // globally unique store values
    let mut threads = Vec::with_capacity(threads_n);
    for budget in budgets {
        let mut ops: Vec<LOp> = Vec::with_capacity(budget);
        while ops.len() < budget {
            let left = budget - ops.len();
            if rng.chance(0.55) {
                // Store burst: 1–3 stores to (mostly) distinct locations
                // back to back — the shape that builds WCB atomic groups.
                let burst = 1 + rng.index(3.min(left));
                let start = rng.index(locs_n);
                for k in 0..burst {
                    let loc = if rng.chance(0.8) {
                        (start + k) % locs_n // cross-line sweep
                    } else {
                        rng.index(locs_n) // occasional repeat/collision
                    };
                    ops.push(LOp::Store { loc: Loc(loc), val });
                    val += 1;
                }
                // Fence-adjacent race: sometimes pin the burst with a
                // fence so a following load races against drained state.
                if ops.len() < budget && rng.chance(0.25) {
                    ops.push(LOp::Fence);
                }
            } else if rng.chance(0.15) {
                ops.push(LOp::Fence);
            } else {
                ops.push(LOp::Load {
                    loc: Loc(rng.index(locs_n)),
                });
            }
        }
        ops.truncate(budget);
        threads.push(Thread::new(ops));
    }
    let program = Program::new(threads);

    let layout = match rng.index(3) {
        0 => AddrLayout::DistinctLines,
        1 => AddrLayout::LexCollidingPairs,
        _ => AddrLayout::SameLinePairs,
    };
    // The program may use fewer locations than `locs_n`; map whatever it
    // declares (max index + 1).
    let addrs = layout_addrs(layout, program.locations().max(1));
    FuzzCase { program, addrs }
}

fn layout_addrs(layout: AddrLayout, n: usize) -> Vec<Addr> {
    (0..n as u64)
        .map(|i| match layout {
            AddrLayout::DistinctLines => Addr::new((BASE_LINE + i) * 64),
            // Pair (2k, 2k+1): lines differ only above bit 15, so their
            // 16-LSB lex orders are equal.
            AddrLayout::LexCollidingPairs => {
                Addr::new((BASE_LINE + i / 2 + (i % 2) * (1 << 16)) * 64)
            }
            // Pair (2k, 2k+1): same line, different 8-byte slots.
            AddrLayout::SameLinePairs => Addr::new((BASE_LINE + i / 2) * 64 + (i % 2) * 8),
        })
        .collect()
}

/// The case at `index` of stream `seed`: a pure function of both, so
/// workers may take indices in any order, and `fuzz --seed S` finds case
/// `i` of a sweep again.
pub fn case_at(seed: u64, index: u64) -> FuzzCase {
    generate_case(&mut SimRng::seed(seed).fork(index.wrapping_add(1)))
}

/// The first `n` cases of stream `seed` with at most `max_threads`
/// threads and `max_ops` operations, each with its stream index, and the
/// number of cases drawn. The search draws 64 cases per wanted one (at
/// least 1 024) before it gives up, so it returns fewer than `n` only
/// when the bounds reject nearly every case.
pub fn cases_in_bounds(
    seed: u64,
    n: u64,
    max_threads: usize,
    max_ops: usize,
) -> (Vec<(u64, FuzzCase)>, u64) {
    let budget = n.saturating_mul(64).max(1024);
    let mut found = Vec::new();
    let mut drawn = 0;
    while (found.len() as u64) < n && drawn < budget {
        let case = case_at(seed, drawn);
        if case.program.threads.len() <= max_threads && case.program.ops() <= max_ops {
            found.push((drawn, case));
        }
        drawn += 1;
    }
    (found, drawn)
}

/// Why a case failed the differential check.
#[derive(Debug)]
pub enum FailureKind {
    /// The simulator produced an outcome outside the TSO-allowed set.
    Violation(Outcome),
    /// A run hung (cycle budget / progress watchdog); rendered deadlock
    /// diagnostics attached.
    Timeout {
        /// The timing seed that hung.
        seed: u64,
        /// Rendered [`tus::DeadlockReport`].
        report: String,
    },
    /// A run completed with an inconsistent register count.
    Truncated {
        /// The timing seed affected.
        seed: u64,
    },
    /// The model checker's enumeration never reached a TSO-allowed
    /// outcome — the policy machine is over-strong at the bound (only
    /// produced by [`crate::check`], never by simulator runs).
    Missing(Outcome),
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Violation(o) => write!(f, "non-TSO outcome {o}"),
            FailureKind::Timeout { seed, .. } => write!(f, "hang at timing seed {seed}"),
            FailureKind::Truncated { seed } => {
                write!(f, "truncated registers at timing seed {seed}")
            }
            FailureKind::Missing(o) => write!(f, "unreachable TSO outcome {o} (over-strong)"),
        }
    }
}

/// A failed differential check: which policy failed and how.
#[derive(Debug)]
pub struct CaseFailure {
    /// The drain policy that misbehaved.
    pub policy: PolicyKind,
    /// The first failure observed.
    pub kind: FailureKind,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy {}: {}", self.policy.label(), self.kind)
    }
}

/// Differentially checks `case` under each of `policies` in turn, on
/// one kernel and one backend, across `seeds` timing variations; the
/// first failing policy's first failure, or `None` when every run
/// completed and stayed within TSO. The reference set depends only on
/// the program, so it is computed once for the whole list.
pub fn check_policies(
    case: &FuzzCase,
    policies: &[PolicyKind],
    seeds: u64,
    kernel: KernelKind,
    coherence: CoherenceKind,
) -> Option<CaseFailure> {
    let mut allowed = tso_outcomes(&case.program);
    for &policy in policies {
        let report = check_conformance_against(
            allowed,
            &case.program,
            &case.addrs,
            policy,
            seeds,
            kernel,
            coherence,
        );
        if let Some(f) = report.first_failure(policy) {
            return Some(f);
        }
        allowed = report.allowed;
    }
    None
}

/// Differentially checks `case` across **all five** drain policies, with
/// the default kernel and backend.
pub fn check_case(case: &FuzzCase, seeds: u64) -> Option<CaseFailure> {
    let (kernel, coherence) = (KernelKind::default(), CoherenceKind::default());
    check_policies(case, &PolicyKind::ALL, seeds, kernel, coherence)
}

/// Drops threads that became empty and compacts location indices,
/// keeping the surviving locations' addresses.
fn normalize(case: &FuzzCase) -> FuzzCase {
    let threads: Vec<Thread> = case
        .program
        .threads
        .iter()
        .filter(|t| !t.ops.is_empty())
        .cloned()
        .collect();
    // Locations actually referenced, in index order.
    let mut used: Vec<usize> = threads
        .iter()
        .flat_map(|t| t.ops.iter())
        .filter_map(|o| match o {
            LOp::Store { loc, .. } | LOp::Load { loc } => Some(loc.0),
            LOp::Fence => None,
        })
        .collect();
    used.sort_unstable();
    used.dedup();
    let remap = |l: usize| Loc(used.binary_search(&l).expect("used location"));
    let threads = threads
        .into_iter()
        .map(|t| {
            Thread::new(
                t.ops
                    .into_iter()
                    .map(|o| match o {
                        LOp::Store { loc, val } => LOp::Store { loc: remap(loc.0), val },
                        LOp::Load { loc } => LOp::Load { loc: remap(loc.0) },
                        LOp::Fence => LOp::Fence,
                    })
                    .collect(),
            )
        })
        .collect();
    let addrs = used.iter().map(|&l| case.addrs[l]).collect();
    FuzzCase {
        program: Program::new(threads),
        addrs,
    }
}

/// Rewrites every reference to location `from` as `to` (`to < from`),
/// then normalizes.
fn merge_locs(case: &FuzzCase, from: usize, to: usize) -> FuzzCase {
    let threads = case
        .program
        .threads
        .iter()
        .map(|t| {
            Thread::new(
                t.ops
                    .iter()
                    .map(|o| match *o {
                        LOp::Store { loc, val } if loc.0 == from => {
                            LOp::Store { loc: Loc(to), val }
                        }
                        LOp::Load { loc } if loc.0 == from => LOp::Load { loc: Loc(to) },
                        other => other,
                    })
                    .collect(),
            )
        })
        .collect();
    normalize(&FuzzCase {
        program: Program::new(threads),
        addrs: case.addrs.clone(),
    })
}

/// The shrinker, generic over the failing predicate — shared by `fuzz`
/// (simulator differential failures, [`check_policies`]) and `check`
/// (model-enumeration diffs). Greedily minimizes while `failing` keeps
/// returning `Some`: drop single ops, then whole threads, then merge
/// location pairs, to a fixpoint. Returns the minimal case and its
/// failure.
///
/// # Panics
///
/// Panics if `case` does not fail `failing` (shrinking needs a
/// reproducible failure as its predicate).
pub fn shrink_with<F>(case: &FuzzCase, mut failing: F) -> (FuzzCase, CaseFailure)
where
    F: FnMut(&FuzzCase) -> Option<CaseFailure>,
{
    let mut cur = normalize(case);
    let mut fail = failing(&cur).expect("shrink input must fail");
    loop {
        let mut progressed = false;

        // Pass 1: drop one op at a time.
        'ops: loop {
            for t in 0..cur.program.threads.len() {
                for o in 0..cur.program.threads[t].ops.len() {
                    if cur.program.ops() <= 1 {
                        break 'ops;
                    }
                    let mut cand = cur.clone();
                    cand.program.threads[t].ops.remove(o);
                    let cand = normalize(&cand);
                    if cand.program.ops() == 0 {
                        continue;
                    }
                    if let Some(f) = failing(&cand) {
                        cur = cand;
                        fail = f;
                        progressed = true;
                        continue 'ops;
                    }
                }
            }
            break;
        }

        // Pass 2: drop whole threads.
        'threads: loop {
            if cur.program.threads.len() <= 1 {
                break;
            }
            for t in 0..cur.program.threads.len() {
                let mut cand = cur.clone();
                cand.program.threads.remove(t);
                let cand = normalize(&cand);
                if cand.program.ops() == 0 {
                    continue;
                }
                if let Some(f) = failing(&cand) {
                    cur = cand;
                    fail = f;
                    progressed = true;
                    continue 'threads;
                }
            }
            break;
        }

        // Pass 3: merge location pairs (higher index into lower).
        'locs: loop {
            let n = cur.program.locations();
            for to in 0..n {
                for from in (to + 1)..n {
                    let cand = merge_locs(&cur, from, to);
                    if let Some(f) = failing(&cand) {
                        cur = cand;
                        fail = f;
                        progressed = true;
                        continue 'locs;
                    }
                }
            }
            break;
        }

        if !progressed {
            return (cur, fail);
        }
    }
}

// ---------------------------------------------------------------------
// Corpus serialization (std-only, line-based text format).

/// Corpus file format tag.
const CORPUS_HEADER: &str = "tusfuzz v1";

/// Location indices a corpus file may use are below this cap. The
/// address map and the reference model's state are sized by the
/// location count, so [`decode_case`] refuses a larger index before
/// allocating anything from it. The generator emits at most
/// [`MAX_LOCS`] locations and the litmus library at most 3.
pub const MAX_CORPUS_LOCS: usize = 64;

/// Serializes a case (plus the policy/seed count that failed it, for
/// replay) into the `results/fuzz-corpus/` text format.
pub fn encode_case(case: &FuzzCase, policy: Option<PolicyKind>, seeds: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{CORPUS_HEADER}");
    if let Some(p) = policy {
        let _ = writeln!(s, "policy {}", p.label());
    }
    let _ = writeln!(s, "seeds {seeds}");
    let addrs: Vec<String> = case.addrs.iter().map(|a| format!("{:#x}", a.raw())).collect();
    let _ = writeln!(s, "addrs {}", addrs.join(" "));
    for t in &case.program.threads {
        let _ = writeln!(s, "thread");
        for op in &t.ops {
            match op {
                LOp::Store { loc, val } => {
                    let _ = writeln!(s, "st {} {}", loc.0, val);
                }
                LOp::Load { loc } => {
                    let _ = writeln!(s, "ld {}", loc.0);
                }
                LOp::Fence => {
                    let _ = writeln!(s, "mf");
                }
            }
        }
    }
    s
}

/// A corpus entry decoded from disk.
#[derive(Debug)]
pub struct CorpusEntry {
    /// The case to replay.
    pub case: FuzzCase,
    /// The policy recorded as failing, if any (replay checks all five
    /// otherwise).
    pub policy: Option<PolicyKind>,
    /// Timing seeds per policy used when the failure was recorded.
    pub seeds: u64,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let v = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    v.map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_loc(s: &str) -> Result<Loc, String> {
    let loc = parse_u64(s)?;
    if loc >= MAX_CORPUS_LOCS as u64 {
        return Err(format!(
            "location {loc} is past the cap of {MAX_CORPUS_LOCS} locations"
        ));
    }
    Ok(Loc(loc as usize))
}

fn parse_policy(label: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse(label).ok_or_else(|| format!("unknown policy {label:?}"))
}

/// Parses a corpus file produced by [`encode_case`].
pub fn decode_case(text: &str) -> Result<CorpusEntry, String> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    if lines.next() != Some(CORPUS_HEADER) {
        return Err(format!("missing {CORPUS_HEADER:?} header"));
    }
    let mut policy = None;
    let mut seeds = 16;
    let mut addrs: Option<Vec<Addr>> = None;
    let mut threads: Vec<Thread> = Vec::new();
    for line in lines {
        let mut parts = line.split_whitespace();
        let kw = parts.next().expect("non-empty line");
        match kw {
            "policy" => {
                policy = Some(parse_policy(parts.next().ok_or("policy needs a label")?)?);
            }
            "seeds" => {
                seeds = parse_u64(parts.next().ok_or("seeds needs a count")?)?;
            }
            "addrs" => {
                addrs = Some(
                    parts
                        .map(|p| parse_u64(p).map(Addr::new))
                        .collect::<Result<_, _>>()?,
                );
            }
            "thread" => threads.push(Thread::default()),
            "st" | "ld" | "mf" => {
                let t = threads.last_mut().ok_or("op before any `thread` line")?;
                let op = match kw {
                    "st" => LOp::Store {
                        loc: parse_loc(parts.next().ok_or("st needs a location")?)?,
                        val: parse_u64(parts.next().ok_or("st needs a value")?)?,
                    },
                    "ld" => LOp::Load {
                        loc: parse_loc(parts.next().ok_or("ld needs a location")?)?,
                    },
                    _ => LOp::Fence,
                };
                t.ops.push(op);
            }
            other => return Err(format!("unknown keyword {other:?}")),
        }
    }
    if threads.is_empty() {
        return Err("no threads".into());
    }
    let program = Program::new(threads);
    let addrs = match addrs {
        Some(a) => {
            if a.len() < program.locations() {
                return Err(format!(
                    "addrs covers {} locations, program uses {}",
                    a.len(),
                    program.locations()
                ));
            }
            a
        }
        None => default_addrs(&program),
    };
    Ok(CorpusEntry {
        case: FuzzCase { program, addrs },
        policy,
        seeds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::dsl::*;

    #[test]
    fn generator_is_deterministic_and_bounded() {
        for seed in 0..50 {
            let mut a = SimRng::seed(seed);
            let mut b = SimRng::seed(seed);
            let ca = generate_case(&mut a);
            let cb = generate_case(&mut b);
            assert_eq!(ca, cb, "seed {seed} not deterministic");
            assert!((1..=MAX_THREADS).contains(&ca.program.threads.len()));
            assert!(ca.program.ops() <= MAX_OPS, "too many ops: {}", ca.program.ops());
            assert!(ca.program.locations() <= MAX_LOCS);
            assert!(ca.addrs.len() >= ca.program.locations());
            assert!(ca.program.threads.iter().all(|t| !t.ops.is_empty()));
        }
    }

    #[test]
    fn generator_emits_the_biased_layouts() {
        let mut seen_lex_collision = false;
        let mut seen_same_line = false;
        for seed in 0..60 {
            let mut rng = SimRng::seed(seed);
            let c = generate_case(&mut rng);
            for i in 0..c.addrs.len() {
                for j in (i + 1)..c.addrs.len() {
                    let (a, b) = (c.addrs[i].line(), c.addrs[j].line());
                    if a != b && a.lex_order(16) == b.lex_order(16) {
                        seen_lex_collision = true;
                    }
                    if a == b {
                        seen_same_line = true;
                    }
                }
            }
        }
        assert!(seen_lex_collision, "no 16-LSB lex collisions generated");
        assert!(seen_same_line, "no same-line packing generated");
    }

    #[test]
    fn case_at_is_index_stable() {
        let a = case_at(7, 3);
        assert_eq!(a, case_at(7, 3));
        assert_ne!(a, case_at(7, 4), "different indices give different cases");
    }

    /// The in-bound search keeps stream order and stream indices, and
    /// stops at its draw budget when the bounds reject everything.
    #[test]
    fn cases_in_bounds_filters_the_stream() {
        let (found, drawn) = cases_in_bounds(7, 5, 3, 8);
        assert_eq!(found.len(), 5);
        assert_eq!(drawn, found[4].0 + 1, "the search stops at the fifth hit");
        for (i, case) in &found {
            assert_eq!(*case, case_at(7, *i));
            assert!(case.program.threads.len() <= 3 && case.program.ops() <= 8);
        }
        assert!(found.windows(2).all(|w| w[0].0 < w[1].0));
        // Every generated case has at least two operations.
        assert_eq!(cases_in_bounds(7, 5, 3, 1), (Vec::new(), 1024));
    }

    #[test]
    fn corpus_roundtrip() {
        let case = FuzzCase {
            program: Program::new(vec![
                thread(vec![st(0, 1), mfence(), ld(1)]),
                thread(vec![st(1, 2), ld(0)]),
            ]),
            addrs: vec![Addr::new(0x100_000), Addr::new(0x500_008)],
        };
        let text = encode_case(&case, Some(PolicyKind::Tus), 16);
        let entry = decode_case(&text).expect("decode");
        assert_eq!(entry.case, case);
        assert_eq!(entry.policy, Some(PolicyKind::Tus));
        assert_eq!(entry.seeds, 16);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_case("not a corpus file").is_err());
        assert!(decode_case("tusfuzz v1\nst 0 1").is_err(), "op before thread");
        assert!(decode_case("tusfuzz v1\npolicy nope\nthread\nmf").is_err());
        // A huge location index is refused before the default address
        // map is sized from it.
        let huge = decode_case("tusfuzz v1\nseeds 1\nthread\nst 4000000000000 1")
            .expect_err("location past the cap");
        assert!(huge.contains(&MAX_CORPUS_LOCS.to_string()), "{huge}");
        let last = MAX_CORPUS_LOCS - 1;
        assert!(decode_case(&format!("tusfuzz v1\nthread\nld {MAX_CORPUS_LOCS}")).is_err());
        assert!(decode_case(&format!("tusfuzz v1\nthread\nld {last}")).is_ok());
    }

    #[test]
    fn normalize_compacts_locations_and_threads() {
        let case = FuzzCase {
            program: Program::new(vec![
                thread(vec![st(3, 1), ld(5)]),
                thread(vec![]),
            ]),
            addrs: (0..6).map(|i| Addr::new(0x100_000 + i * 64)).collect(),
        };
        let n = normalize(&case);
        assert_eq!(n.program.threads.len(), 1);
        assert_eq!(n.program.locations(), 2);
        assert_eq!(n.addrs.len(), 2);
        // loc 3 -> 0, loc 5 -> 1, keeping their addresses.
        assert_eq!(n.addrs[0], case.addrs[3]);
        assert_eq!(n.addrs[1], case.addrs[5]);
        assert_eq!(n.program.threads[0].ops[0], st(0, 1));
        assert_eq!(n.program.threads[0].ops[1], ld(1));
    }

    #[test]
    fn merge_rewrites_and_renumbers() {
        let case = FuzzCase {
            program: Program::new(vec![thread(vec![st(0, 1), st(2, 2), ld(2)])]),
            addrs: (0..3).map(|i| Addr::new(0x100_000 + i * 64)).collect(),
        };
        let m = merge_locs(&case, 2, 0);
        assert_eq!(m.program.locations(), 1);
        assert_eq!(m.program.threads[0].ops, vec![st(0, 1), st(0, 2), ld(0)]);
    }

    /// A handful of generated cases pass the differential check on the
    /// real simulator (smoke; the full sweep is the harness subcommand).
    #[test]
    fn small_differential_sweep_is_clean() {
        let mut rng = SimRng::seed(0xF00D);
        for i in 0..4 {
            let case = generate_case(&mut rng);
            let fail = check_case(&case, 3);
            assert!(fail.is_none(), "case {i} failed: {}\n{case}", fail.expect("some"));
        }
    }

    /// A handful of generated cases pass the differential check on the
    /// Tardis backend too (smoke; the full policy × backend sweep is the
    /// harness `fuzz --coherence tardis` subcommand).
    #[test]
    fn small_differential_sweep_is_clean_under_tardis() {
        let mut rng = SimRng::seed(0xF00D);
        for i in 0..4 {
            let case = generate_case(&mut rng);
            let (kernel, policies) = (KernelKind::default(), &PolicyKind::ALL);
            let fail = check_policies(&case, policies, 3, kernel, CoherenceKind::Tardis);
            assert!(
                fail.is_none(),
                "case {i} failed under tardis: {}\n{case}",
                fail.expect("some")
            );
        }
    }

    /// The event-driven kernel must reach the same verdict as lockstep
    /// on generated fuzz cases — a differential check of the kernel
    /// itself (the full 500-case sweep is the harness `fuzz` subcommand
    /// run with `--kernel`).
    #[test]
    fn kernels_agree_on_fuzz_verdicts() {
        let mut rng = SimRng::seed(0xBEEF);
        for i in 0..4 {
            let case = generate_case(&mut rng);
            let [lock, event] = [KernelKind::Lockstep, KernelKind::Event].map(|k| {
                check_policies(&case, &PolicyKind::ALL, 3, k, CoherenceKind::default())
            });
            assert_eq!(
                lock.is_none(),
                event.is_none(),
                "case {i}: kernels disagree (lockstep {lock:?}, event {event:?})\n{case}"
            );
        }
    }
}
