//! Operational x86-TSO reference model.
//!
//! The machine of Owens, Sarkar & Sewell ("x86-TSO: A Rigorous and Usable
//! Programmer's Model for x86 Multiprocessors", CACM 2010): a single
//! shared memory plus one FIFO store buffer per hardware thread.
//! Non-deterministic transitions:
//!
//! * a thread executes its next instruction — a load reads the youngest
//!   matching entry of *its own* store buffer, else memory; a store
//!   appends to its buffer; a fence requires the buffer to be empty;
//! * a thread's oldest buffered store drains to memory.
//!
//! [`tso_outcomes`] enumerates every reachable final state by exhaustive
//! DFS over these transitions (with state memoization), giving the exact
//! set of TSO-allowed outcomes for small litmus programs. It prunes no
//! transition: it is the oracle that [`crate::check`]'s pruned policy
//! machines and the simulator are held to.
//!
//! A search state is one flat `u64` slice: the shared memory, each
//! thread's pc, each thread's buffer occupancy `k`, then per thread one
//! observation slot per load in its program. Buffer contents are not
//! stored. A FIFO buffer always holds exactly the youngest `k` of its
//! thread's executed stores, and those are the stores before its pc, so
//! `(pc, k)` determines the buffer. The loads before the pc fill the
//! first observation slots and the rest stay 0. The encoding is thus
//! one-to-one with the explicit state (memory, pcs, buffer contents,
//! observations), and memoizing on it merges exactly the states the
//! explicit machine would.

use std::collections::BTreeSet;
use std::rc::Rc;

use tus_sim::FxHashSet;

use crate::prog::{LOp, Outcome, Program};

/// Where each part of a search state sits in its slice, and what a
/// thread's pc says about the prefix it has executed.
struct Layout {
    /// Locations: memory is `state[..locs]`.
    locs: usize,
    /// Threads: thread `t`'s pc is `state[locs + t]`, its occupancy
    /// `state[locs + threads + t]`.
    threads: usize,
    /// Per thread, its stores as `(location, value)` in program order.
    stores: Vec<Vec<(usize, u64)>>,
    /// Per thread and pc, how many stores and loads precede that pc.
    before: Vec<Vec<(usize, usize)>>,
    /// Thread `t`'s observation slots are `state[obs[t]..obs[t + 1]]`;
    /// the last entry is the slice width.
    obs: Vec<usize>,
}

impl Layout {
    fn new(prog: &Program) -> Self {
        let locs = prog.locations();
        let threads = prog.threads.len();
        let mut stores = Vec::with_capacity(threads);
        let mut before = Vec::with_capacity(threads);
        let mut obs = vec![locs + 2 * threads];
        for t in &prog.threads {
            let mut s = Vec::new();
            let mut loads = 0;
            let mut b = vec![(0, 0)];
            for op in &t.ops {
                match *op {
                    LOp::Store { loc, val } => s.push((loc.0, val)),
                    LOp::Load { .. } => loads += 1,
                    LOp::Fence => {}
                }
                b.push((s.len(), loads));
            }
            obs.push(obs[obs.len() - 1] + loads);
            stores.push(s);
            before.push(b);
        }
        Layout {
            locs,
            threads,
            stores,
            before,
            obs,
        }
    }

    fn width(&self) -> usize {
        self.obs[self.threads]
    }

    fn pc_slot(&self, t: usize) -> usize {
        self.locs + t
    }

    fn occupancy_slot(&self, t: usize) -> usize {
        self.locs + self.threads + t
    }

    fn outcome(&self, s: &[u64]) -> Outcome {
        Outcome {
            regs: (0..self.threads)
                .map(|t| s[self.obs[t]..self.obs[t + 1]].to_vec())
                .collect(),
            mem: s[..self.locs].to_vec(),
        }
    }
}

/// Enumerates the final states reachable from the all-zero state. With
/// `write_through` a store updates memory at once and buffers stay
/// empty: the sequentially consistent machine.
fn reachable_outcomes(prog: &Program, write_through: bool) -> BTreeSet<Outcome> {
    let lay = Layout::new(prog);
    let mut outcomes = BTreeSet::new();
    // Every state ever pushed, sharing its allocation with the DFS
    // stack: a state is pushed, and so expanded, at most once.
    let mut seen: FxHashSet<Rc<[u64]>> = FxHashSet::default();
    let initial: Rc<[u64]> = vec![0; lay.width()].into();
    seen.insert(initial.clone());
    let mut stack = vec![initial];
    let mut n = vec![0; lay.width()];
    while let Some(s) = stack.pop() {
        let is_final = prog.threads.iter().enumerate().all(|(t, th)| {
            s[lay.pc_slot(t)] as usize == th.ops.len() && s[lay.occupancy_slot(t)] == 0
        });
        if is_final {
            outcomes.insert(lay.outcome(&s));
            continue;
        }
        let mut push = |state: &[u64]| {
            if !seen.contains(state) {
                let state: Rc<[u64]> = state.into();
                seen.insert(state.clone());
                stack.push(state);
            }
        };
        for (t, th) in prog.threads.iter().enumerate() {
            let pc = s[lay.pc_slot(t)] as usize;
            let k = s[lay.occupancy_slot(t)] as usize;
            let (stored, loaded) = lay.before[t][pc];
            // The buffer, oldest first.
            let buffer = &lay.stores[t][stored - k..stored];
            // Transition 1: drain the oldest buffered store.
            if let Some(&(loc, val)) = buffer.first() {
                n.copy_from_slice(&s);
                n[loc] = val;
                n[lay.occupancy_slot(t)] -= 1;
                push(&n);
            }
            // Transition 2: execute the next instruction.
            let Some(op) = th.ops.get(pc) else {
                continue;
            };
            n.copy_from_slice(&s);
            match *op {
                LOp::Store { loc, val } if write_through => n[loc.0] = val,
                LOp::Store { .. } => n[lay.occupancy_slot(t)] += 1,
                LOp::Load { loc } => {
                    // Read own SB (youngest entry) first, else memory.
                    n[lay.obs[t] + loaded] = buffer
                        .iter()
                        .rev()
                        .find(|&&(l, _)| l == loc.0)
                        .map_or(s[loc.0], |&(_, v)| v);
                }
                LOp::Fence if k > 0 => continue,
                LOp::Fence => {}
            }
            n[lay.pc_slot(t)] += 1;
            push(&n);
        }
    }
    outcomes
}

/// Computes the exact set of x86-TSO-allowed outcomes of `prog`.
///
/// # Example
///
/// ```
/// use tus_tso::prog::dsl::*;
/// use tus_tso::{tso_outcomes, Program};
///
/// // Dekker / SB: both loads may see 0 under TSO.
/// let p = Program::new(vec![
///     thread(vec![st(0, 1), ld(1)]),
///     thread(vec![st(1, 1), ld(0)]),
/// ]);
/// let outs = tso_outcomes(&p);
/// assert!(outs.iter().any(|o| o.regs == vec![vec![0], vec![0]]));
/// ```
pub fn tso_outcomes(prog: &Program) -> BTreeSet<Outcome> {
    reachable_outcomes(prog, false)
}

/// Computes the *sequentially consistent* outcomes (no store buffering) —
/// useful to demonstrate which outcomes are TSO-only relaxations.
pub fn sc_outcomes(prog: &Program) -> BTreeSet<Outcome> {
    reachable_outcomes(prog, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::dsl::*;
    use crate::prog::Program;

    fn sb() -> Program {
        Program::new(vec![
            thread(vec![st(0, 1), ld(1)]),
            thread(vec![st(1, 1), ld(0)]),
        ])
    }

    #[test]
    fn sb_allows_both_zero_under_tso_not_sc() {
        let both_zero = |outs: &BTreeSet<Outcome>| {
            outs.iter().any(|o| o.regs == vec![vec![0u64], vec![0u64]])
        };
        assert!(both_zero(&tso_outcomes(&sb())));
        assert!(!both_zero(&sc_outcomes(&sb())));
    }

    #[test]
    fn sb_with_fences_is_sc() {
        let p = Program::new(vec![
            thread(vec![st(0, 1), mfence(), ld(1)]),
            thread(vec![st(1, 1), mfence(), ld(0)]),
        ]);
        let outs = tso_outcomes(&p);
        assert!(!outs.iter().any(|o| o.regs == vec![vec![0u64], vec![0u64]]));
        assert_eq!(outs, sc_outcomes(&p));
    }

    #[test]
    fn mp_forbidden_outcome_absent() {
        // T0: x=1; y=1.  T1: r0=y; r1=x.  r0=1 && r1=0 forbidden.
        let p = Program::new(vec![
            thread(vec![st(0, 1), st(1, 1)]),
            thread(vec![ld(1), ld(0)]),
        ]);
        let outs = tso_outcomes(&p);
        assert!(!outs.iter().any(|o| o.regs[1] == vec![1, 0]));
        // But r0=0, r1=1 and others are present.
        assert!(outs.iter().any(|o| o.regs[1] == vec![0, 0]));
        assert!(outs.iter().any(|o| o.regs[1] == vec![1, 1]));
    }

    #[test]
    fn store_forwarding_n6_allowed() {
        // T0: x=1; r0=x; r1=y.  T1: y=1; x=2.
        // r0=1, r1=0 with final x=1 is TSO-allowed (reads own SB).
        let p = Program::new(vec![
            thread(vec![st(0, 1), ld(0), ld(1)]),
            thread(vec![st(1, 1), st(0, 2)]),
        ]);
        let outs = tso_outcomes(&p);
        assert!(outs
            .iter()
            .any(|o| o.regs[0] == vec![1, 0] && o.mem[0] == 1));
    }

    #[test]
    fn final_memory_reflects_drained_stores() {
        let p = Program::new(vec![thread(vec![st(0, 7), st(1, 9)])]);
        let outs = tso_outcomes(&p);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs.first().expect("one").mem, vec![7, 9]);
    }

    #[test]
    fn empty_programs_have_one_empty_outcome() {
        // Zero threads gives a zero-width state; a lone fence, no memory.
        for p in [
            Program::default(),
            Program::new(vec![thread(vec![mfence()])]),
        ] {
            let outs = tso_outcomes(&p);
            assert_eq!(outs.len(), 1, "{p:?}");
            assert!(outs.iter().all(|o| o.mem.is_empty()));
            assert_eq!(outs, sc_outcomes(&p));
        }
    }

    #[test]
    fn coherence_corr_forbidden() {
        // T0: x=1.  T1: r0=x; r1=x.  r0=1 && r1=0 forbidden (per-location
        // coherence).
        let p = Program::new(vec![
            thread(vec![st(0, 1)]),
            thread(vec![ld(0), ld(0)]),
        ]);
        let outs = tso_outcomes(&p);
        assert!(!outs.iter().any(|o| o.regs[1] == vec![1, 0]));
    }
}
