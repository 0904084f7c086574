//! Deterministic delay queue.
//!
//! The simulator models latencies by pushing payloads into a [`DelayQueue`]
//! with a delivery cycle and draining everything that is due at the start of
//! each cycle. Entries due on the same cycle are delivered in insertion
//! order, which keeps the whole simulation deterministic.

use std::collections::BinaryHeap;

use crate::types::Cycle;

/// A min-queue of `(delivery cycle, payload)` with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use tus_sim::{Cycle, DelayQueue};
///
/// let mut q = DelayQueue::new();
/// q.push(Cycle::new(10), "b");
/// q.push(Cycle::new(5), "a");
/// q.push(Cycle::new(10), "c");
/// assert_eq!(q.pop_due(Cycle::new(4)), None);
/// assert_eq!(q.pop_due(Cycle::new(5)), Some("a"));
/// assert_eq!(q.pop_due(Cycle::new(10)), Some("b"));
/// assert_eq!(q.pop_due(Cycle::new(10)), Some("c"));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    due: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest due first and
        // lowest sequence number (FIFO) among equals.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> DelayQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        DelayQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` for delivery at cycle `due`.
    pub fn push(&mut self, due: Cycle, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { due, seq, payload });
    }

    /// Pops the next payload whose delivery cycle is `<= now`, if any.
    pub fn pop_due(&mut self, now: Cycle) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.due <= now) {
            Some(self.heap.pop().expect("peeked entry exists").payload)
        } else {
            None
        }
    }

    /// Delivery cycle of the earliest pending entry.
    pub fn next_due(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.due)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for DelayQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_among_equal_cycles() {
        let mut q = DelayQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop_due(Cycle::new(7)), Some(i));
        }
    }

    #[test]
    fn earliest_first() {
        let mut q = DelayQueue::new();
        assert_eq!(q.next_due(), None);
        q.push(Cycle::new(30), 30);
        q.push(Cycle::new(10), 10);
        q.push(Cycle::new(20), 20);
        assert_eq!(q.next_due(), Some(Cycle::new(10)));
        assert_eq!(q.pop_due(Cycle::new(100)), Some(10));
        assert_eq!(q.pop_due(Cycle::new(100)), Some(20));
        assert_eq!(q.pop_due(Cycle::new(100)), Some(30));
        assert_eq!(q.pop_due(Cycle::new(100)), None);
    }

    #[test]
    fn not_due_yet() {
        let mut q = DelayQueue::new();
        q.push(Cycle::new(5), ());
        assert_eq!(q.pop_due(Cycle::new(4)), None);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
