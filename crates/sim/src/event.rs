//! Time-ordered event calendar.
//!
//! [`EventQueue`] is a classic discrete-event calendar built on a binary
//! heap, with two properties the network models rely on:
//!
//! 1. **Stable ordering** — events scheduled for the same cycle are
//!    delivered in the order they were scheduled (FIFO tie-breaking via a
//!    monotonically increasing sequence number). Without this, two control
//!    flits released in the same cycle could race nondeterministically and
//!    break reproducibility.
//! 2. **No global time regression** — scheduling an event before the last
//!    popped timestamp is a logic error and panics in debug builds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// An event plus its delivery time and tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Cycle at which the event fires.
    pub at: Cycle,
    /// Monotonic sequence number assigned at scheduling time; orders
    /// same-cycle events FIFO.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // cycle, the first-scheduled) event is at the top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event calendar.
///
/// # Examples
/// ```
/// use wavesim_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(5, "b");
/// q.schedule(3, "a");
/// q.schedule(5, "c");
/// assert_eq!(q.pop().map(|e| (e.at, e.event)), Some((3, "a")));
/// assert_eq!(q.pop().map(|e| (e.at, e.event)), Some((5, "b")));
/// assert_eq!(q.pop().map(|e| (e.at, e.event)), Some((5, "c")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    last_popped: Cycle,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: 0,
            scheduled_total: 0,
        }
    }

    /// Creates an empty calendar with room for `cap` events.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            last_popped: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    ///
    /// # Panics
    /// In debug builds, panics if `at` precedes the timestamp of the most
    /// recently popped event (time must not run backwards).
    pub fn schedule(&mut self, at: Cycle, event: E) {
        debug_assert!(
            at >= self.last_popped,
            "event scheduled at {at} but time already advanced to {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        self.last_popped = ev.at;
        Some(ev)
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `now`. Leaves later events untouched.
    pub fn pop_due(&mut self, now: Cycle) -> Option<ScheduledEvent<E>> {
        if self.next_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Timestamp of the earliest pending event.
    #[must_use]
    pub fn next_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for run reports).
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drops all pending events, keeping sequence numbering intact.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for t in [9u64, 2, 7, 4, 0, 11] {
            q.schedule(t, t);
        }
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.at);
        }
        assert_eq!(out, vec![0, 2, 4, 7, 9, 11]);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(5, 'x');
        q.schedule(10, 'y');
        assert!(q.pop_due(4).is_none());
        assert_eq!(q.pop_due(5).unwrap().event, 'x');
        assert!(q.pop_due(9).is_none());
        assert_eq!(q.pop_due(100).unwrap().event, 'y');
        assert!(q.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(1, "a");
        q.schedule(3, "c");
        assert_eq!(q.pop().unwrap().event, "a");
        q.schedule(2, "b");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time already advanced")]
    fn time_regression_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn counts() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
    }
}
