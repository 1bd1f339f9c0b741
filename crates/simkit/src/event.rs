//! A minimal discrete-event queue with cancellation.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        // Ties break by insertion order for determinism.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue: events are popped in nondecreasing time order;
/// simultaneous events pop in insertion order.
///
/// # Examples
///
/// ```
/// let mut q = dnnperf_simkit::EventQueue::new();
/// q.schedule(2.0, "b");
/// q.schedule(1.0, "a");
/// assert_eq!(q.pop(), Some((1.0, "a")));
/// assert_eq!(q.now(), 1.0);
/// assert_eq!(q.pop(), Some((2.0, "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Number of events scheduled but neither popped nor cancelled.
    live: usize,
    /// Sequence numbers of the `schedule_cancellable` events still
    /// pending: the only ones `cancel` can revoke. Plain `schedule` calls
    /// never touch it.
    revocable: BTreeSet<u64>,
    /// Sequence numbers cancelled while still in the heap; their entries
    /// are skipped (and forgotten) lazily when the heap surfaces them.
    cancelled: BTreeSet<u64>,
    seq: u64,
    now: f64,
}

/// A handle to one scheduled event, returned by
/// [`EventQueue::schedule_cancellable`] and redeemed by
/// [`EventQueue::cancel`]. Tokens are unique per queue and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CancelToken(u64);

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: 0,
            revocable: BTreeSet::new(),
            cancelled: BTreeSet::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// The time of the last popped event (the simulation clock).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending (scheduled, not popped, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or earlier than the current simulation time
    /// (causality violation).
    pub fn schedule(&mut self, at: f64, event: E) {
        self.push(at, event);
    }

    /// Schedules `event` at absolute time `at` and returns a token that
    /// can revoke it while it is still pending — the primitive batching
    /// windows need to retract their scheduled close when a batch fills
    /// early.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or earlier than the current simulation time
    /// (causality violation).
    pub fn schedule_cancellable(&mut self, at: f64, event: E) -> CancelToken {
        let seq = self.push(at, event);
        self.revocable.insert(seq);
        CancelToken(seq)
    }

    /// Schedules `event` at `at` and returns its sequence number.
    fn push(&mut self, at: f64, event: E) -> u64 {
        assert!(!at.is_nan(), "event time must not be NaN");
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
        self.live = self.live.saturating_add(1);
        self.seq = self.seq.wrapping_add(1);
        seq
    }

    /// Cancels the event behind `token` if it is still pending. Returns
    /// `true` if the event was revoked, `false` if it had already been
    /// popped or cancelled. A cancelled event is never returned by
    /// [`EventQueue::pop`] and never advances the clock.
    pub fn cancel(&mut self, token: CancelToken) -> bool {
        if self.revocable.remove(&token.0) {
            self.cancelled.insert(token.0);
            self.live = self.live.saturating_sub(1);
            true
        } else {
            false
        }
    }

    /// Pops the earliest pending event, advancing the clock to it.
    /// Cancelled events are skipped (without advancing the clock).
    pub fn pop(&mut self) -> Option<(f64, E)> {
        loop {
            let e = self.heap.pop()?;
            if self.cancelled.remove(&e.seq) {
                continue;
            }
            self.revocable.remove(&e.seq);
            self.live = self.live.saturating_sub(1);
            self.now = e.time;
            return Some((e.time, e.event));
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        for t in [5.0, 1.0, 3.0, 2.0, 4.0] {
            q.schedule(t, t as i32);
        }
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        let mut last = 0.0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, ());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancelled_event_is_skipped_without_advancing_clock() {
        let mut q = EventQueue::new();
        let tok = q.schedule_cancellable(1.0, "doomed");
        q.schedule(2.0, "kept");
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 1);
        // The cancelled 1.0 event must neither surface nor move `now`.
        assert_eq!(q.pop(), Some((2.0, "kept")));
        assert_eq!(q.now(), 2.0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancelling_all_events_leaves_clock_untouched() {
        let mut q: EventQueue<()> = EventQueue::new();
        let tok = q.schedule_cancellable(5.0, ());
        assert!(q.cancel(tok));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 0.0);
    }

    #[test]
    fn double_cancel_and_cancel_after_pop_return_false() {
        let mut q = EventQueue::new();
        let a = q.schedule_cancellable(1.0, "a");
        let b = q.schedule_cancellable(2.0, "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "second cancel must be a no-op");
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert!(!q.cancel(b), "cancel after pop must be a no-op");
    }

    #[test]
    fn len_accounts_for_cancellation() {
        let mut q = EventQueue::new();
        let toks: Vec<_> = (0..4)
            .map(|i| q.schedule_cancellable(f64::from(i), i))
            .collect();
        assert_eq!(q.len(), 4);
        q.cancel(toks[1]);
        q.cancel(toks[3]);
        assert_eq!(q.len(), 2);
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, vec![0, 2]);
        assert!(q.is_empty());
    }
}
