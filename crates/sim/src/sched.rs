//! Scheduling contract for the event-driven simulation kernel.
//!
//! Every simulated layer (cores, store-buffer policies, caches, network,
//! directory) answers one question: *given the current cycle, when is the
//! earliest cycle at which ticking you could change machine state?* The
//! event kernel keeps one such answer per unit in its [`Calendar`], ticks
//! only the units whose key is due (in one ascending-id pass, the
//! lockstep order), and, when every key lies strictly in the future,
//! jumps the clock straight to the earliest one instead of ticking idle
//! components cycle by cycle.
//!
//! # Skip safety
//!
//! The contract is deliberately **conservative**: a component that is not
//! sure may always answer `Some(now)` ("tick me now"), which degrades the
//! kernel to lockstep for that cycle but can never change simulated
//! behaviour. The only way to break cycle-accuracy is to answer a *later*
//! cycle than the component's true next state change — so implementations
//! must only report a future cycle (or `None`) when their tick is provably
//! a no-op until then. [`DelayQueue::next_due`] is the primitive: a queue
//! whose earliest entry is due at `t > now` is untouched by any
//! `pop_due(now)` drain until `t`.
//!
//! Skipped cycles are *not* free in the statistics: the kernel charges each
//! idle cycle to the same stall/occupancy counters the lockstep tick would
//! have bumped, so `StatSet` output is bit-identical between kernels.
//!
//! # The `next_work` answer
//!
//! Each unit answers through an inherent method of its own type
//! (`next_work(now)` or `next_due()`): the earliest cycle `>= now` at
//! which ticking it could change simulated state, or `None` if it is
//! fully quiesced (no pending work at all, not even in the future).
//! `Some(c)` with `c <= now` means "I have work right now". Answering
//! `Some(now)` when unsure is always safe; answering a cycle later than
//! the true next state change is a correctness bug. [`earliest`] folds
//! the answers of a unit's parts.
//!
//! [`Calendar`]: crate::Calendar
//! [`DelayQueue::next_due`]: crate::DelayQueue::next_due

use crate::types::Cycle;

/// Folds two optional next-event cycles into their minimum.
///
/// `None` means "no pending work", so it is the identity of the fold.
pub fn earliest(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_folds_none_as_identity() {
        let a = Some(Cycle::new(3));
        let b = Some(Cycle::new(9));
        assert_eq!(earliest(a, b), Some(Cycle::new(3)));
        assert_eq!(earliest(None, b), Some(Cycle::new(9)));
        assert_eq!(earliest(a, None), Some(Cycle::new(3)));
        assert_eq!(earliest(None, None), None);
    }
}
