//! Bounded exhaustive model checking of the drain policies.
//!
//! The fuzzer ([`crate::fuzz`]) *samples* interleavings; this module
//! *enumerates* them. For a small [`Program`] it explores every reachable
//! state of each policy's **observable** semantics — an abstract machine
//! over per-thread FIFO store buffers whose drain transitions mirror what
//! the policy makes architecturally visible — and diffs the reachable
//! outcome set against the x86-TSO reference set from
//! [`crate::refmodel::tso_outcomes`] with **exact set equality**. Extra
//! outcomes are TSO violations; missing outcomes mean the machine is
//! over-strong (it forbids something TSO allows) — both are reported.
//!
//! Per-policy observable semantics:
//!
//! * `base`, `SSB`, `SPB` — single stores drain in FIFO order (the
//!   classic TSO buffer machine). SSB write-through and SPB permission
//!   prefetch change *timing*, never what becomes visible when.
//! * `CSB`, `TUS` — write-combining buffers drain **atomic groups**: any
//!   prefix of the FIFO may become visible in one indivisible step
//!   (a coalesced WCB flush / an authorized WOQ head-run). Group drains
//!   are a strict subset of single-drain interleavings, so the reachable
//!   set must still equal the reference set exactly.
//!
//! Two prunings keep the exploration small without losing outcomes:
//!
//! 1. **Store-buffer reduction** ("A Better Reduction Theorem for Store
//!    Buffers"): drain transitions are explored only at *buffer
//!    interaction boundaries* — states where some thread's next op is a
//!    load, or a thread with a non-empty buffer sits at a fence or at the
//!    end of its program. Any drain elsewhere commutes forward: it can
//!    only be observed through a later load, fence or final-memory read,
//!    and delaying it keeps buffers fuller, never less enabled.
//! 2. **Lazy TSO** ("Lazy TSO Reachability"): iterative deepening on
//!    per-thread buffer occupancy. Level 0 is sequential consistency
//!    (stores write through); level *k* forces a store at a full buffer
//!    to first drain the oldest entry. Each level's outcomes are valid
//!    TSO outcomes (the forced composite is two legal transitions), and
//!    the first level whose occupancy bound never fires is equivalent to
//!    the unbounded machine — a sound fixpoint.
//!
//! A canonical-state memo (full per-thread pc, buffer contents, memory
//! and observations, hashed) cuts revisits; explored/pruned/memoized
//! counts are reported per policy. On top of the model diff, a sampled
//! **simulator cross-check** runs the real machine over a handful of
//! timing seeds through the fuzzer's run loop
//! ([`crate::conformance::check_conformance_against`]), with the
//! enumerated set as the allowed one, and asserts every observed outcome
//! is in it — tying the cycle-level implementation to the exhaustively
//! verified envelope (and catching the feature-gated `bug-woq-reorder`
//! fault through `check`, not just through fuzzing: under that feature
//! the TUS machine also drains *non-head* runs, which surfaces as extra
//! outcomes in the diff).

use std::collections::{BTreeSet, VecDeque};

use tus_sim::{Addr, CoherenceKind, FxHashSet, KernelKind, PolicyKind};

use crate::conformance::{check_conformance_against, ConformanceReport};
use crate::fuzz::{CaseFailure, FailureKind, FuzzCase};
use crate::prog::{LOp, Outcome, Program};
use crate::refmodel::tso_outcomes;

/// Bounds and toggles for one check run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Reject programs with more threads (structured
    /// [`Bound::Threads`], not a panic).
    pub max_threads: usize,
    /// Reject programs with more total operations.
    pub max_ops: usize,
    /// Per-(program, policy) explored-state budget; exceeding it yields
    /// [`Bound::States`].
    pub max_states: u64,
    /// Store-buffer reduction (drains only at interaction boundaries).
    pub reduction: bool,
    /// Lazy iterative deepening on buffer occupancy.
    pub lazy: bool,
    /// Timing seeds for the simulator cross-check (0 disables it — the
    /// diff against the reference model still runs).
    pub sim_seeds: u64,
    /// Simulation kernel for the cross-check runs.
    pub kernel: KernelKind,
    /// Coherence backend for the cross-check runs.
    pub coherence: CoherenceKind,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_threads: 3,
            max_ops: 8,
            max_states: 2_000_000,
            reduction: true,
            lazy: true,
            sim_seeds: 8,
            kernel: KernelKind::default(),
            coherence: CoherenceKind::default(),
        }
    }
}

/// Exploration counters for one (program, policy) enumeration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// States expanded (memo misses).
    pub explored: u64,
    /// States cut by the canonical-state memo (revisits).
    pub memoized: u64,
    /// Drain transitions suppressed by the store-buffer reduction.
    pub pruned: u64,
    /// Lazy occupancy levels run (1 when `lazy` is off).
    pub levels: u32,
    /// Outcomes already reachable at level 0 (sequential consistency);
    /// 0 when `lazy` is off.
    pub sc_outcomes: usize,
}

impl CheckStats {
    /// Folds another run's counters into an aggregate (sums counts,
    /// keeps the deepest level).
    pub fn absorb(&mut self, other: &CheckStats) {
        self.explored += other.explored;
        self.memoized += other.memoized;
        self.pruned += other.pruned;
        self.levels = self.levels.max(other.levels);
        self.sc_outcomes += other.sc_outcomes;
    }
}

/// Which bound a program exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// More threads than `max_threads`.
    Threads {
        /// Threads in the program.
        got: usize,
        /// The configured ceiling.
        max: usize,
    },
    /// More total operations than `max_ops`.
    Ops {
        /// Operations in the program.
        got: usize,
        /// The configured ceiling.
        max: usize,
    },
    /// The explored-state budget ran out mid-enumeration.
    States {
        /// The configured budget.
        max: u64,
    },
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Bound::Threads { got, max } => write!(f, "{got} threads > --max-threads {max}"),
            Bound::Ops { got, max } => write!(f, "{got} ops > --max-ops {max}"),
            Bound::States { max } => write!(f, "state budget {max} exhausted"),
        }
    }
}

/// The verdict of one program-level check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every policy's reachable set equals the reference set and every
    /// sampled simulator outcome is inside it.
    Verified,
    /// The program (or its exploration) exceeded a bound; nothing was
    /// proved. Structured and non-fatal — sweeps report and continue.
    BoundExceeded(Bound),
    /// At least one policy diverged from the reference set (or the
    /// simulator escaped the enumerated envelope).
    Violated,
}

impl std::fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckOutcome::Verified => write!(f, "verified"),
            CheckOutcome::BoundExceeded(b) => write!(f, "bound exceeded: {b}"),
            CheckOutcome::Violated => write!(f, "VIOLATED"),
        }
    }
}

/// The per-policy result of a program check.
#[derive(Debug, Clone)]
pub struct PolicyCheck {
    /// The policy whose observable machine was enumerated.
    pub policy: PolicyKind,
    /// Size of the enumerated reachable outcome set.
    pub enumerated: usize,
    /// Outcomes the machine reaches but TSO forbids (violations).
    pub extra: Vec<Outcome>,
    /// Outcomes TSO allows but the machine never reaches (over-strong).
    pub missed: Vec<Outcome>,
    /// The simulator cross-check: sampled runs judged against the
    /// enumerated set (its `allowed`).
    pub sim: ConformanceReport,
    /// Exploration counters.
    pub stats: CheckStats,
}

impl PolicyCheck {
    /// Whether this policy passed: exact set equality and a clean
    /// cross-check.
    pub fn clean(&self) -> bool {
        self.extra.is_empty() && self.missed.is_empty() && self.sim.conforms()
    }
}

/// The full result of checking one program.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Size of the TSO reference outcome set.
    pub reference: usize,
    /// One entry per checked policy (empty when a bound fired before
    /// any policy completed).
    pub policies: Vec<PolicyCheck>,
    /// Set when a bound fired.
    pub bound: Option<Bound>,
}

impl CheckReport {
    /// Collapses the report into a single verdict.
    pub fn outcome(&self) -> CheckOutcome {
        if let Some(b) = self.bound {
            return CheckOutcome::BoundExceeded(b);
        }
        if self.policies.iter().all(PolicyCheck::clean) {
            CheckOutcome::Verified
        } else {
            CheckOutcome::Violated
        }
    }

    /// Aggregated exploration counters across policies.
    pub fn stats(&self) -> CheckStats {
        let mut s = CheckStats::default();
        for p in &self.policies {
            s.absorb(&p.stats);
        }
        s
    }

    /// The first failing policy's divergence, as a shrinkable
    /// [`CaseFailure`] (`None` when verified or bound-exceeded): an
    /// outcome the machine has but TSO forbids, else one TSO allows but
    /// the machine never reaches, else the cross-check's first failure.
    pub fn first_failure(&self) -> Option<CaseFailure> {
        let p = self.policies.iter().find(|p| !p.clean())?;
        let kind = if let Some(o) = p.extra.first() {
            FailureKind::Violation(o.clone())
        } else if let Some(o) = p.missed.first() {
            FailureKind::Missing(o.clone())
        } else {
            return p.sim.first_failure(p.policy);
        };
        Some(CaseFailure { policy: p.policy, kind })
    }
}

// ---------------------------------------------------------------------
// The abstract machine.

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    mem: Vec<u64>,
    pcs: Vec<usize>,
    sbs: Vec<VecDeque<(usize, u64)>>,
    obs: Vec<Vec<u64>>,
}

impl State {
    fn initial(prog: &Program) -> Self {
        State {
            mem: vec![0; prog.locations()],
            pcs: vec![0; prog.threads.len()],
            sbs: vec![VecDeque::new(); prog.threads.len()],
            obs: prog.threads.iter().map(|_| Vec::new()).collect(),
        }
    }

    fn is_final(&self, prog: &Program) -> bool {
        self.pcs
            .iter()
            .zip(&prog.threads)
            .all(|(&pc, t)| pc == t.ops.len())
            && self.sbs.iter().all(|sb| sb.is_empty())
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            regs: self.obs.clone(),
            mem: self.mem.clone(),
        }
    }
}

/// Store-buffer reduction enabling predicate: a drain is only observable
/// through a load (any thread), a fence the draining thread must retire,
/// or final memory — so drains are explored only when some thread's next
/// op is a load, or a thread with a non-empty buffer is at a fence or at
/// the end of its program. Delaying a drain past stores and empty-buffer
/// fences commutes (they neither read memory nor touch the buffer's
/// front), and buffers only get fuller, so no enabled drain is lost.
fn drains_enabled(s: &State, prog: &Program) -> bool {
    (0..prog.threads.len()).any(|t| match prog.threads[t].ops.get(s.pcs[t]) {
        Some(LOp::Load { .. }) => true,
        Some(LOp::Fence) => !s.sbs[t].is_empty(),
        None => !s.sbs[t].is_empty(),
        Some(LOp::Store { .. }) => false,
    })
}

/// Applies one drain: entries `start..start + len` of thread `t`'s
/// buffer become visible atomically, oldest first. `start` is 0 for
/// every legal policy; the `bug-woq-reorder` model uses `start > 0`.
fn drained(s: &State, t: usize, start: usize, len: usize) -> State {
    let mut n = s.clone();
    for _ in 0..len {
        let (loc, val) = n.sbs[t].remove(start).expect("drain range in buffer");
        n.mem[loc] = val;
    }
    n
}

/// Largest atomic drain group the policy's observable semantics allows.
fn max_group(policy: PolicyKind, buffered: usize) -> usize {
    match policy {
        // WCB coalescing: any FIFO prefix may flush as one atomic group.
        PolicyKind::Csb | PolicyKind::Tus => buffered,
        // Single-store drains only.
        _ => 1.min(buffered),
    }
}

/// Exhaustive DFS of one occupancy level (`cap = None` → unbounded).
/// Returns the reachable outcome set and whether the occupancy bound
/// fired (i.e. a store executed at a full buffer and was forced to
/// write through).
fn explore_level(
    prog: &Program,
    policy: PolicyKind,
    cfg: &CheckConfig,
    cap: Option<usize>,
    stats: &mut CheckStats,
) -> Result<(BTreeSet<Outcome>, bool), Bound> {
    let mut outcomes = BTreeSet::new();
    let mut seen: FxHashSet<State> = FxHashSet::default();
    let mut stack = vec![State::initial(prog)];
    let mut bound_hit = false;
    while let Some(s) = stack.pop() {
        if !seen.insert(s.clone()) {
            stats.memoized += 1;
            continue;
        }
        stats.explored += 1;
        if stats.explored > cfg.max_states {
            return Err(Bound::States { max: cfg.max_states });
        }
        if s.is_final(prog) {
            outcomes.insert(s.outcome());
            continue;
        }
        let drains_on = !cfg.reduction || drains_enabled(&s, prog);
        for t in 0..prog.threads.len() {
            let buffered = s.sbs[t].len();
            if buffered > 0 {
                if drains_on {
                    for k in 1..=max_group(policy, buffered) {
                        stack.push(drained(&s, t, 0, k));
                    }
                    #[cfg(feature = "bug-woq-reorder")]
                    if policy == PolicyKind::Tus {
                        // Fault-injection model: mirror the simulator's
                        // WOQ bug — a fully-ready *non-head* group may
                        // drain ahead of older entries.
                        for start in 1..buffered {
                            for k in 1..=(buffered - start) {
                                stack.push(drained(&s, t, start, k));
                            }
                        }
                    }
                } else {
                    stats.pruned += max_group(policy, buffered) as u64;
                }
            }
            let Some(op) = prog.threads[t].ops.get(s.pcs[t]) else {
                continue;
            };
            match *op {
                LOp::Store { loc, val } => {
                    let mut n = s.clone();
                    if cap.is_some_and(|c| buffered >= c) {
                        // Occupancy bound: forced composite — drain the
                        // oldest entry (or write through at level 0),
                        // then buffer the store. Both halves are legal
                        // unbounded-machine transitions.
                        bound_hit = true;
                        if let Some(&(l, v)) = n.sbs[t].front() {
                            n.sbs[t].pop_front();
                            n.mem[l] = v;
                            n.sbs[t].push_back((loc.0, val));
                        } else {
                            n.mem[loc.0] = val;
                        }
                    } else {
                        n.sbs[t].push_back((loc.0, val));
                    }
                    n.pcs[t] += 1;
                    stack.push(n);
                }
                LOp::Load { loc } => {
                    let mut n = s.clone();
                    // Forward from own buffer (youngest match), else
                    // read memory.
                    let v = s.sbs[t]
                        .iter()
                        .rev()
                        .find(|&&(l, _)| l == loc.0)
                        .map(|&(_, v)| v)
                        .unwrap_or(s.mem[loc.0]);
                    n.obs[t].push(v);
                    n.pcs[t] += 1;
                    stack.push(n);
                }
                LOp::Fence => {
                    if s.sbs[t].is_empty() {
                        let mut n = s.clone();
                        n.pcs[t] += 1;
                        stack.push(n);
                    }
                }
            }
        }
    }
    Ok((outcomes, bound_hit))
}

/// Enumerates the reachable outcome set of `prog` under `policy`'s
/// observable semantics, applying the configured prunings.
pub fn explore_policy(
    prog: &Program,
    policy: PolicyKind,
    cfg: &CheckConfig,
) -> Result<(BTreeSet<Outcome>, CheckStats), Bound> {
    let mut stats = CheckStats::default();
    if !cfg.lazy {
        let (outs, _) = explore_level(prog, policy, cfg, None, &mut stats)?;
        stats.levels = 1;
        return Ok((outs, stats));
    }
    // Iterative deepening on buffer occupancy. A thread can never hold
    // more entries than it has stores, so the loop always reaches a
    // level whose bound cannot fire.
    let max_cap = prog
        .threads
        .iter()
        .map(|t| t.ops.iter().filter(|o| matches!(o, LOp::Store { .. })).count())
        .max()
        .unwrap_or(0);
    let mut all = BTreeSet::new();
    for cap in 0..=max_cap {
        stats.levels += 1;
        let (outs, hit) = explore_level(prog, policy, cfg, Some(cap), &mut stats)?;
        if cap == 0 {
            stats.sc_outcomes = outs.len();
        }
        all.extend(outs);
        if !hit {
            // This level never clamped a store: it *is* the unbounded
            // machine, so the union is exact.
            break;
        }
    }
    Ok((all, stats))
}

/// Checks one program under `policies`: enumerates each policy's
/// observable machine, diffs it against the TSO reference set (exact
/// equality), and cross-checks sampled simulator runs against the
/// enumerated envelope.
pub fn check_program_policies(
    prog: &Program,
    addrs: &[Addr],
    cfg: &CheckConfig,
    policies: &[PolicyKind],
) -> CheckReport {
    let mut report = CheckReport {
        reference: 0,
        policies: Vec::new(),
        bound: None,
    };
    if prog.threads.len() > cfg.max_threads {
        report.bound = Some(Bound::Threads {
            got: prog.threads.len(),
            max: cfg.max_threads,
        });
        return report;
    }
    if prog.ops() > cfg.max_ops {
        report.bound = Some(Bound::Ops {
            got: prog.ops(),
            max: cfg.max_ops,
        });
        return report;
    }
    let reference = tso_outcomes(prog);
    report.reference = reference.len();
    for &policy in policies {
        let (enumerated, stats) = match explore_policy(prog, policy, cfg) {
            Ok(r) => r,
            Err(b) => {
                report.bound = Some(b);
                return report;
            }
        };
        let extra: Vec<Outcome> =
            enumerated.difference(&reference).cloned().collect();
        let missed: Vec<Outcome> =
            reference.difference(&enumerated).cloned().collect();
        report.policies.push(PolicyCheck {
            policy,
            enumerated: enumerated.len(),
            extra,
            missed,
            sim: check_conformance_against(
                enumerated,
                prog,
                addrs,
                policy,
                cfg.sim_seeds,
                cfg.kernel,
                cfg.coherence,
            ),
            stats,
        });
    }
    report
}

/// Checks a fuzz case (program + address map) under all five policies —
/// the corpus entry point.
pub fn check_case_model(case: &FuzzCase, cfg: &CheckConfig) -> CheckReport {
    check_program_policies(&case.program, &case.addrs, cfg, &PolicyKind::ALL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::default_addrs;
    use crate::prog::dsl::*;

    fn cfg() -> CheckConfig {
        // Model-only in unit tests: the simulator cross-check has its
        // own integration coverage and would dominate runtime here.
        CheckConfig { sim_seeds: 0, ..CheckConfig::default() }
    }

    fn sb() -> Program {
        Program::new(vec![
            thread(vec![st(0, 1), ld(1)]),
            thread(vec![st(1, 1), ld(0)]),
        ])
    }

    /// Every policy machine's reachable set equals the reference set on
    /// SB — including the relaxed both-read-zero outcome.
    #[test]
    fn all_policies_match_reference_on_sb() {
        let p = sb();
        let report = check_program_policies(&p, &default_addrs(&p), &cfg(), &PolicyKind::ALL);
        assert_eq!(report.outcome(), CheckOutcome::Verified, "{report:?}");
        assert_eq!(report.policies.len(), PolicyKind::ALL.len());
        let reference = tso_outcomes(&p);
        for pc in &report.policies {
            assert_eq!(pc.enumerated, reference.len(), "{:?}", pc.policy);
        }
        assert!(reference
            .iter()
            .any(|o| o.regs == vec![vec![0u64], vec![0u64]]));
    }

    /// Reduction and lazy deepening prune real work but change nothing
    /// observable.
    #[test]
    fn prunings_shrink_exploration_not_outcomes() {
        let full = CheckConfig { reduction: false, lazy: false, ..cfg() };

        // On SB the lazy levels are visible: the relaxed outcome only
        // appears above level 0.
        let p = sb();
        let (base_outs, base_stats) =
            explore_policy(&p, PolicyKind::Tus, &full).expect("in budget");
        let (fast_outs, fast_stats) =
            explore_policy(&p, PolicyKind::Tus, &cfg()).expect("in budget");
        assert_eq!(base_outs, fast_outs);
        assert!(fast_stats.levels >= 2, "{fast_stats:?}");
        assert!(
            fast_stats.sc_outcomes < fast_outs.len(),
            "SC must be a strict subset on SB: {fast_stats:?}"
        );
        assert!(base_stats.explored > 0);

        // Back-to-back stores create states where no thread is at a
        // load/fence boundary — exactly where the reduction suppresses
        // drain transitions.
        let bursty = Program::new(vec![
            thread(vec![st(0, 1), st(1, 2), ld(2)]),
            thread(vec![st(2, 3), ld(0)]),
        ]);
        let (slow, _) = explore_policy(&bursty, PolicyKind::Tus, &full).expect("in budget");
        let (quick, stats) = explore_policy(&bursty, PolicyKind::Tus, &cfg()).expect("in budget");
        assert_eq!(slow, quick);
        assert!(stats.pruned > 0, "{stats:?}");
    }

    /// The memo actually fires (diamond revisits collapse).
    #[test]
    fn memo_counts_revisits() {
        let p = sb();
        let (_, stats) = explore_policy(&p, PolicyKind::Baseline, &cfg()).expect("in budget");
        assert!(stats.memoized > 0, "{stats:?}");
    }

    /// Thread/op bounds come back as structured outcomes, not panics.
    #[test]
    fn bounds_are_structured() {
        let wide = Program::new(vec![
            thread(vec![ld(0)]),
            thread(vec![ld(0)]),
            thread(vec![ld(0)]),
            thread(vec![ld(0)]),
        ]);
        let r = check_program_policies(&wide, &default_addrs(&wide), &cfg(), &PolicyKind::ALL);
        assert!(matches!(r.outcome(), CheckOutcome::BoundExceeded(Bound::Threads { got: 4, max: 3 })));

        let long = Program::new(vec![thread(vec![st(0, 1); 9])]);
        let r = check_program_policies(&long, &default_addrs(&long), &cfg(), &PolicyKind::ALL);
        assert!(matches!(r.outcome(), CheckOutcome::BoundExceeded(Bound::Ops { got: 9, max: 8 })));

        let tiny = CheckConfig { max_states: 3, ..cfg() };
        let p = sb();
        let r = check_program_policies(&p, &default_addrs(&p), &tiny, &PolicyKind::ALL);
        assert!(matches!(r.outcome(), CheckOutcome::BoundExceeded(Bound::States { max: 3 })));
    }

    /// Single-threaded programs have exactly the sequential outcome.
    #[test]
    fn single_thread_is_sequential() {
        let p = Program::new(vec![thread(vec![st(0, 5), ld(0), st(1, 6), ld(1)])]);
        for policy in PolicyKind::ALL {
            let (outs, _) = explore_policy(&p, policy, &cfg()).expect("in budget");
            assert_eq!(outs.len(), 1, "{policy:?}");
            let o = outs.first().expect("one");
            assert_eq!(o.regs, vec![vec![5, 6]]);
            assert_eq!(o.mem, vec![5, 6]);
        }
    }

    /// Fences close the relaxation: SB+mfences collapses to the SC set
    /// under every policy machine.
    #[test]
    fn fenced_sb_has_no_relaxed_outcome() {
        let p = Program::new(vec![
            thread(vec![st(0, 1), mfence(), ld(1)]),
            thread(vec![st(1, 1), mfence(), ld(0)]),
        ]);
        for policy in PolicyKind::ALL {
            let (outs, _) = explore_policy(&p, policy, &cfg()).expect("in budget");
            assert!(
                !outs.iter().any(|o| o.regs == vec![vec![0u64], vec![0u64]]),
                "{policy:?} reached the fenced-out outcome"
            );
        }
    }

    /// MP under the injected WOQ-reorder model: the TUS machine drains a
    /// non-head group and reaches the forbidden `r=[1,0]` outcome, which
    /// the diff reports as an extra outcome — `check` catches the bug
    /// deterministically, with no fuzzing luck involved.
    #[cfg(feature = "bug-woq-reorder")]
    #[test]
    fn injected_woq_reorder_is_caught_on_mp() {
        let p = Program::new(vec![
            thread(vec![st(0, 1), st(1, 1)]),
            thread(vec![ld(1), ld(0)]),
        ]);
        let report = check_program_policies(&p, &default_addrs(&p), &cfg(), &PolicyKind::ALL);
        assert_eq!(report.outcome(), CheckOutcome::Violated);
        let tus = report
            .policies
            .iter()
            .find(|pc| pc.policy == PolicyKind::Tus)
            .expect("tus checked");
        assert!(
            tus.extra.iter().any(|o| o.regs[1] == vec![1, 0]),
            "expected the MP-forbidden outcome, got {:?}",
            tus.extra
        );
        // The single-store policies are unaffected by the WOQ fault.
        for pc in &report.policies {
            if pc.policy != PolicyKind::Tus {
                assert!(pc.clean(), "{:?} flagged spuriously", pc.policy);
            }
        }
    }
}
