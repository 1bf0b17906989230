//! Time-ordered event calendar.
//!
//! [`EventQueue`] is a discrete-event calendar with two properties the
//! network models rely on:
//!
//! 1. **Stable ordering** — events scheduled for the same cycle are
//!    delivered in the order they were scheduled (FIFO tie-breaking via a
//!    monotonically increasing sequence number). Without this, two control
//!    flits released in the same cycle could race nondeterministically and
//!    break reproducibility.
//! 2. **No global time regression** — scheduling an event before the last
//!    popped timestamp is a logic error and panics in debug builds.
//!
//! It is a calendar wheel: the 64 cycles from the last popped timestamp on
//! are one-cycle buckets, each a FIFO list threaded through one slab, and
//! a `u64` marks the occupied ones, so finding the earliest event is a
//! rotate and a trailing-zero count. Protocol traffic is almost all a few
//! cycles out; the rare event 64 or more cycles out waits in a binary heap
//! and moves into its bucket, in `(at, seq)` order, as soon as the window
//! reaches it. The window only moves in [`EventQueue::pop`], which migrates
//! before it returns, so every heap event for a cycle is in that cycle's
//! bucket before any later [`EventQueue::schedule`] can append to it —
//! which is what keeps each bucket in `seq` order.

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

/// Buckets in the wheel: one per cycle of the window, one bit of the
/// occupancy word each.
const WHEEL: u64 = u64::BITS as u64;

/// End of a bucket list and of the free list.
const NIL: u32 = u32::MAX;

/// A slab entry: an event in a bucket list, or a free slot.
#[derive(Debug, Clone)]
struct Node<E> {
    next: u32,
    ev: Option<ScheduledEvent<E>>,
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
    /// Timestamp of the last popped event: the wheel holds the events of
    /// `[base, base + 64)`, a cycle's in bucket `at % 64`.
    base: Cycle,
    /// Bit `b` set ⇔ bucket `b` holds an event.
    occupied: u64,
    head: [u32; WHEEL as usize],
    tail: [u32; WHEEL as usize],
    /// Bucket lists and free slots, threaded through one allocation.
    nodes: Vec<Node<E>>,
    free: u32,
    in_wheel: usize,
    /// Events at `base + 64` or later.
    far: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
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
        Self::with_capacity(0)
    }

    /// Creates an empty calendar with room for `cap` events in the wheel.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            base: 0,
            occupied: 0,
            head: [NIL; WHEEL as usize],
            tail: [NIL; WHEEL as usize],
            nodes: Vec::with_capacity(cap),
            free: NIL,
            in_wheel: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    ///
    /// # Panics
    /// In debug builds, panics if `at` precedes the timestamp of the most
    /// recently popped event (time must not run backwards). A release
    /// build files such an event under that timestamp.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        debug_assert!(
            at >= self.base,
            "event scheduled at {at} but time already advanced to {}",
            self.base
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.file(ScheduledEvent { at, seq, event });
    }

    /// Files `ev` under its cycle, or under the window's start if that is
    /// later: in its bucket, or in the heap beyond the window.
    #[inline]
    fn file(&mut self, ev: ScheduledEvent<E>) {
        let cycle = ev.at.max(self.base);
        if cycle - self.base < WHEEL {
            self.push_bucket(cycle, ev);
        } else {
            self.far.push(ev);
        }
    }

    /// Appends `ev` to the bucket of `cycle`, which lies in the window.
    fn push_bucket(&mut self, cycle: Cycle, ev: ScheduledEvent<E>) {
        let node = Node {
            next: NIL,
            ev: Some(ev),
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than 2^32 - 1 events in the wheel");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            self.free = std::mem::replace(&mut self.nodes[i as usize], node).next;
            i
        };
        let b = (cycle % WHEEL) as usize;
        if self.occupied & (1 << b) == 0 {
            self.occupied |= 1 << b;
            self.head[b] = i;
        } else {
            self.nodes[self.tail[b] as usize].next = i;
        }
        self.tail[b] = i;
        self.in_wheel += 1;
    }

    /// Moves the window to start at `to` — the earliest pending cycle — and
    /// files every heap event it now covers into its bucket.
    fn advance(&mut self, to: Cycle) {
        self.base = to;
        while self.far.peek().is_some_and(|e| e.at - to < WHEEL) {
            let ev = self.far.pop().expect("peeked");
            self.push_bucket(ev.at, ev);
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let at = self.next_time()?;
        Some(self.pop_at(at))
    }

    /// Removes and returns the earliest event, which fires at `at`
    /// ([`EventQueue::next_time`]'s answer).
    fn pop_at(&mut self, at: Cycle) -> ScheduledEvent<E> {
        if self.occupied == 0 || at != self.base {
            self.advance(at);
        }
        let b = (self.base % WHEEL) as usize;
        let i = self.head[b];
        let node = &mut self.nodes[i as usize];
        let ev = node.ev.take().expect("a listed slot holds an event");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = i;
        if i == self.tail[b] {
            self.occupied &= !(1 << b);
        } else {
            self.head[b] = next;
        }
        self.in_wheel -= 1;
        ev
    }

    /// Every pending event, earliest first (`(at, seq)` order).
    #[must_use]
    pub fn pending(&self) -> Vec<&ScheduledEvent<E>> {
        let wheel = self.nodes.iter().filter_map(|n| n.ev.as_ref());
        let mut all: Vec<_> = wheel.chain(&self.far).collect();
        all.sort_unstable_by_key(|e| (e.at, e.seq));
        all
    }

    /// Removes the pending event with sequence number `seq`, wherever it
    /// sits (a model checker fires events in any order). O(pending): the
    /// rest are re-filed in `(at, seq)` order, keeping buckets in order.
    pub fn remove(&mut self, seq: u64) -> Option<ScheduledEvent<E>> {
        let wheel = self.nodes.drain(..).filter_map(|n| n.ev);
        let mut all: Vec<_> = wheel.chain(std::mem::take(&mut self.far)).collect();
        let base = self.base;
        all.sort_unstable_by_key(|e| (e.at.max(base), e.seq));
        (self.occupied, self.free, self.in_wheel) = (0, NIL, 0);
        let taken = all.iter().position(|e| e.seq == seq).map(|i| all.remove(i));
        all.into_iter().for_each(|ev| self.file(ev));
        taken
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `now`. Leaves later events untouched. The earliest cycle is found
    /// once, for the test and the pop both.
    pub fn pop_due(&mut self, now: Cycle) -> Option<ScheduledEvent<E>> {
        let at = self.next_time()?;
        (at <= now).then(|| self.pop_at(at))
    }

    /// The earliest occupied cycle of a non-empty wheel.
    fn next_in_wheel(&self) -> Cycle {
        let rotated = self.occupied.rotate_right((self.base % WHEEL) as u32);
        self.base + u64::from(rotated.trailing_zeros())
    }

    /// Timestamp of the earliest pending event.
    #[must_use]
    pub fn next_time(&self) -> Option<Cycle> {
        if self.occupied == 0 {
            self.far.peek().map(|e| e.at)
        } else {
            Some(self.next_in_wheel())
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_wheel + self.far.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for run reports).
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drops all pending events, keeping sequence numbering intact.
    pub fn clear(&mut self) {
        self.occupied = 0;
        self.nodes.clear();
        self.free = NIL;
        self.in_wheel = 0;
        self.far.clear();
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
    fn any_pending_event_can_be_removed() {
        let mut q = EventQueue::new();
        // Same-cycle FIFO lists, several buckets, and the far heap.
        for (i, at) in [3u64, 3, 3, 5, 200, 7, 3, 300].into_iter().enumerate() {
            q.schedule(at, i);
        }
        let order = |q: &EventQueue<usize>| q.pending().iter().map(|e| e.event).collect::<Vec<_>>();
        assert_eq!(order(&q), vec![0, 1, 2, 6, 3, 5, 4, 7]);
        for (seq, want) in [(1, vec![0, 2, 6, 3, 5, 4, 7]), (6, vec![0, 2, 3, 5, 4, 7])] {
            assert_eq!(q.remove(seq).map(|e| e.event), Some(seq as usize));
            assert_eq!(order(&q), want);
        }
        assert_eq!(q.remove(0).map(|e| e.event), Some(0));
        assert_eq!(q.remove(4).map(|e| e.event), Some(4));
        assert!(q.remove(4).is_none(), "a removed event is gone");
        q.schedule(3, 8);
        assert_eq!(q.len(), 5);
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e.event);
        }
        assert_eq!(popped, vec![2, 8, 3, 5, 7]);
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
