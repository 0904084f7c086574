//! Conformance checking: simulator ⊑ x86-TSO.
//!
//! A litmus program is compiled onto the full simulator — one core per
//! thread, each location on its own cache line — and run many times with
//! varying coherence-message jitter and instruction padding to explore
//! timings. Every observed outcome must be in the reference model's
//! allowed set; a single outcome outside it is a TSO violation in the
//! store-handling machinery under test.

use std::collections::BTreeSet;

use tus::{DeadlockReport, RunGoal, System};
use tus_cpu::{TraceInst, VecTrace};
use tus_sim::{Addr, CoherenceKind, KernelKind, PolicyKind, SimConfig, SimRng};

use crate::fuzz::{CaseFailure, FailureKind};
use crate::prog::{LOp, Outcome, Program};
use crate::refmodel::tso_outcomes;

/// Base address for litmus locations.
const LITMUS_BASE: u64 = 0x100_000;

/// Cycle budget per litmus run.
const RUN_BUDGET: u64 = 2_000_000;

/// Address of a litmus location (one cache line per location).
pub fn loc_addr(loc: usize) -> Addr {
    Addr::new(LITMUS_BASE + (loc as u64) * 64)
}

/// The default location→address map: one cache line per location.
pub fn default_addrs(prog: &Program) -> Vec<Addr> {
    (0..prog.locations()).map(loc_addr).collect()
}

/// The result of one simulator run of a litmus program.
///
/// Only [`RunVerdict::Outcome`] carries register/memory values that may
/// be compared against the reference model; the other verdicts mean the
/// run produced *no* trustworthy outcome and must be surfaced, not
/// silently treated as an observation.
#[derive(Debug)]
pub enum RunVerdict {
    /// The run completed; all registers and final memory collected.
    Outcome(Outcome),
    /// The run exhausted its cycle budget or tripped the progress
    /// watchdog; the report says what was stuck where.
    Timeout(Box<DeadlockReport>),
    /// The run "completed" but a thread collected a different number of
    /// load values than the program contains — the outcome would be
    /// fabricated, so it is rejected (defense against harness bugs).
    Truncated {
        /// Thread whose register file is inconsistent.
        thread: usize,
        /// Loads the program performs on that thread.
        expected: usize,
        /// Values actually collected.
        got: usize,
    },
}

/// Compiles one thread to a trace, inserting `0..=max_pad` random ALU
/// instructions between operations to perturb pipeline timing.
fn compile_thread(ops: &[LOp], addrs: &[Addr], rng: &mut SimRng, max_pad: u64) -> VecTrace {
    let mut insts = Vec::new();
    for op in ops {
        if max_pad > 0 {
            for _ in 0..rng.range(0, max_pad + 1) {
                insts.push(TraceInst::alu());
            }
        }
        match *op {
            LOp::Store { loc, val } => insts.push(TraceInst::store(addrs[loc.0], 8, val)),
            LOp::Load { loc } => insts.push(TraceInst::load(addrs[loc.0], 8)),
            LOp::Fence => insts.push(TraceInst::fence()),
        }
    }
    VecTrace::new(insts)
}

/// Runs `prog` once with locations mapped through `addrs` (one 8-byte
/// slot per location; distinct locations may share a cache line or
/// collide in the lex order — that is the point of custom maps), at one
/// point of the policy × kernel × backend conformance matrix. Verdicts
/// and outcomes must depend on neither the kernel nor the backend: a
/// Tardis lease is a *visibility* mechanism, not a memory-model change.
///
/// # Panics
///
/// Panics if `addrs` is shorter than the program's location count.
pub fn try_run_once_matrix(
    prog: &Program,
    addrs: &[Addr],
    policy: PolicyKind,
    seed: u64,
    kernel: KernelKind,
    coherence: CoherenceKind,
) -> RunVerdict {
    assert!(
        addrs.len() >= prog.locations(),
        "address map covers every location"
    );
    let mut rng = SimRng::seed(seed);
    let cfg = SimConfig::builder()
        .cores(prog.threads.len())
        .policy(policy)
        .sb_entries(8)
        .chaos_jitter(1 + (seed % 24))
        .scale_caches_down(64)
        .kernel(kernel)
        .coherence(coherence)
        .build();
    let max_pad = seed % 5;
    let traces: Vec<Box<dyn tus_cpu::TraceSource>> = prog
        .threads
        .iter()
        .map(|t| {
            Box::new(compile_thread(&t.ops, addrs, &mut rng, max_pad))
                as Box<dyn tus_cpu::TraceSource>
        })
        .collect();
    let mut sys = System::new(&cfg, traces, seed);
    for i in 0..prog.threads.len() {
        sys.core_mut(i).record_loads(true);
    }
    if let Err(report) = sys.try_run_until(RunGoal::Completion, RUN_BUDGET) {
        return RunVerdict::Timeout(report);
    }
    let regs: Vec<Vec<u64>> = (0..prog.threads.len())
        .map(|i| sys.core(i).loaded_values().to_vec())
        .collect();
    for (i, (r, t)) in regs.iter().zip(&prog.threads).enumerate() {
        if r.len() != t.loads() {
            return RunVerdict::Truncated {
                thread: i,
                expected: t.loads(),
                got: r.len(),
            };
        }
    }
    let mem = (0..prog.locations())
        .map(|l| sys.mem().read_coherent(addrs[l], 8))
        .collect();
    RunVerdict::Outcome(Outcome { regs, mem })
}

/// The verdict of a conformance run.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Outcomes the simulator produced.
    pub observed: BTreeSet<Outcome>,
    /// Outcomes the run was judged against: x86-TSO's set, or the model
    /// checker's enumerated set for one policy.
    pub allowed: BTreeSet<Outcome>,
    /// Observed outcomes outside the allowed set (must be empty).
    pub violations: Vec<Outcome>,
    /// Seeds whose runs timed out or tripped the watchdog, with the
    /// deadlock diagnostics (must be empty).
    pub timeouts: Vec<(u64, Box<DeadlockReport>)>,
    /// Seeds whose runs collected an inconsistent register count
    /// (must be empty).
    pub truncated_seeds: Vec<u64>,
}

impl ConformanceReport {
    /// Whether every run completed and every observed outcome is
    /// TSO-allowed. Timeouts and truncated runs are non-conforming: they
    /// are not evidence of correctness, and under a fuzzer they are
    /// counterexamples in their own right.
    pub fn conforms(&self) -> bool {
        self.violations.is_empty() && self.timeouts.is_empty() && self.truncated_seeds.is_empty()
    }

    /// Fraction of the allowed set that was actually observed (coverage;
    /// informational — narrow coverage is not a failure).
    pub fn coverage(&self) -> f64 {
        if self.allowed.is_empty() {
            return 1.0;
        }
        self.observed
            .iter()
            .filter(|o| self.allowed.contains(*o))
            .count() as f64
            / self.allowed.len() as f64
    }

    /// The first failure of `policy`'s runs as a shrinkable
    /// [`CaseFailure`], checked in the order violation, timeout,
    /// truncation; `None` when the runs conform.
    pub fn first_failure(&self, policy: PolicyKind) -> Option<CaseFailure> {
        let kind = if let Some(o) = self.violations.first() {
            FailureKind::Violation(o.clone())
        } else if let Some((seed, r)) = self.timeouts.first() {
            FailureKind::Timeout { seed: *seed, report: format!("{r}") }
        } else {
            FailureKind::Truncated { seed: *self.truncated_seeds.first()? }
        };
        Some(CaseFailure { policy, kind })
    }
}

/// Checks that `prog` on the simulator under `policy` only produces
/// TSO-allowed outcomes across `seeds` timing variations, with the
/// default address map, kernel and backend.
pub fn check_conformance(prog: &Program, policy: PolicyKind, seeds: u64) -> ConformanceReport {
    let (kernel, coherence) = (KernelKind::default(), CoherenceKind::default());
    check_conformance_against(
        tso_outcomes(prog),
        prog,
        &default_addrs(prog),
        policy,
        seeds,
        kernel,
        coherence,
    )
}

/// Runs `prog` under `policy` once per timing seed in `0..seeds`, with a
/// custom location→address map, kernel and backend, and judges every
/// outcome against `allowed`: the one simulator run loop. The fuzzer
/// passes x86-TSO's set ([`tso_outcomes`]). That set depends only on the
/// program (addresses change timing and lex-order interactions, never
/// TSO semantics), so a caller checking several policies computes it once
/// and passes it on from one report's [`ConformanceReport::allowed`] to
/// the next call. The model checker's cross-check passes each policy's
/// enumerated set.
pub fn check_conformance_against(
    allowed: BTreeSet<Outcome>,
    prog: &Program,
    addrs: &[Addr],
    policy: PolicyKind,
    seeds: u64,
    kernel: KernelKind,
    coherence: CoherenceKind,
) -> ConformanceReport {
    let mut observed = BTreeSet::new();
    let mut timeouts = Vec::new();
    let mut truncated_seeds = Vec::new();
    for seed in 0..seeds {
        match try_run_once_matrix(prog, addrs, policy, seed, kernel, coherence) {
            RunVerdict::Outcome(o) => {
                observed.insert(o);
            }
            RunVerdict::Timeout(r) => timeouts.push((seed, r)),
            RunVerdict::Truncated { .. } => truncated_seeds.push(seed),
        }
    }
    let violations = observed
        .iter()
        .filter(|o| !allowed.contains(*o))
        .cloned()
        .collect();
    ConformanceReport {
        observed,
        allowed,
        violations,
        timeouts,
        truncated_seeds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::all_litmus_tests;
    use crate::prog::dsl::*;

    /// Quick smoke conformance for TUS on the two most famous tests (the
    /// full corpus × policies sweep lives in the integration tests).
    #[test]
    fn tus_conforms_on_sb_and_mp() {
        for t in all_litmus_tests()
            .into_iter()
            .filter(|t| t.name == "SB" || t.name == "MP")
        {
            let r = check_conformance(&t.program, PolicyKind::Tus, 12);
            assert!(
                r.conforms(),
                "{}: violations {:?}",
                t.name,
                r.violations
            );
        }
    }

    /// Same-cycle single-thread sanity: every timing seed's outcome
    /// equals the sequential semantics.
    #[test]
    fn single_thread_outcome_is_sequential() {
        let p = crate::prog::Program::new(vec![thread(vec![
            st(0, 5),
            ld(0),
            st(1, 6),
            ld(1),
            ld(0),
        ])]);
        let r = check_conformance(&p, PolicyKind::Tus, 4);
        assert!(r.conforms(), "{r:?}");
        let sequential = Outcome { regs: vec![vec![5, 6, 5]], mem: vec![5, 6] };
        assert_eq!(r.observed, BTreeSet::from([sequential]));
    }

    /// Both kernels observe the *identical* outcome set on litmus tests:
    /// the event kernel may not suppress or invent timings.
    #[test]
    fn kernels_observe_identical_outcome_sets() {
        for t in all_litmus_tests()
            .into_iter()
            .filter(|t| t.name == "SB" || t.name == "MP")
        {
            for policy in [PolicyKind::Baseline, PolicyKind::Tus] {
                let addrs = default_addrs(&t.program);
                let mesi = CoherenceKind::default();
                let [lock, event] = [KernelKind::Lockstep, KernelKind::Event].map(|k| {
                    let allowed = tso_outcomes(&t.program);
                    check_conformance_against(allowed, &t.program, &addrs, policy, 8, k, mesi)
                });
                assert!(lock.conforms() && event.conforms(), "{} non-conforming", t.name);
                assert_eq!(
                    lock.observed, event.observed,
                    "{} ({policy:?}): kernels observed different outcome sets",
                    t.name
                );
            }
        }
    }

    /// The Tardis backend conforms on the two most famous litmus shapes
    /// under both the baseline and TUS drain policies — leases and
    /// self-downgrades must never manufacture a non-TSO outcome.
    #[test]
    fn tardis_backend_conforms_on_sb_and_mp() {
        for t in all_litmus_tests()
            .into_iter()
            .filter(|t| t.name == "SB" || t.name == "MP")
        {
            for policy in [PolicyKind::Baseline, PolicyKind::Tus] {
                let addrs = default_addrs(&t.program);
                let r = check_conformance_against(
                    tso_outcomes(&t.program),
                    &t.program,
                    &addrs,
                    policy,
                    10,
                    KernelKind::default(),
                    CoherenceKind::Tardis,
                );
                assert!(
                    r.conforms(),
                    "{} ({policy:?}) under tardis: violations {:?}, timeouts {}",
                    t.name,
                    r.violations,
                    r.timeouts.len()
                );
            }
        }
    }

    /// The coverage metric is well-formed.
    #[test]
    fn coverage_between_zero_and_one() {
        let t = &all_litmus_tests()[0];
        let r = check_conformance(&t.program, PolicyKind::Baseline, 6);
        assert!(r.conforms());
        let c = r.coverage();
        assert!((0.0..=1.0).contains(&c), "coverage {c}");
    }
}
