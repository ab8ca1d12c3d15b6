//! A generic discrete-event queue: events pop in time order, with FIFO
//! tie-breaking for events scheduled at the same instant.

use crate::error::SimError;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
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
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event priority queue.
///
/// ```
/// use sos_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "later").unwrap();
/// q.schedule(SimTime::from_secs(1), "sooner").unwrap();
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "sooner");
/// assert_eq!(t.as_secs(), 1);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Returns [`SimError::SchedulePast`] if `at` is before the current
    /// simulation time — scheduling into the past indicates a logic
    /// error in the caller, and propagating it keeps the substrate
    /// panic-free even when event times are derived from external data.
    /// The queue is left unchanged on error.
    pub fn schedule(&mut self, at: SimTime, event: E) -> Result<(), SimError> {
        if at < self.now {
            return Err(SimError::SchedulePast { at, now: self.now });
        }
        self.heap.push(Entry {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        Ok(())
    }

    /// Pops the earliest event, advancing the queue's clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.event)
        })
    }

    /// Pops the earliest event if it is due strictly before `t`, so a
    /// caller can interleave the queue with a schedule of its own: every
    /// event due before the schedule's next instant runs first.
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek().is_some_and(|e| e.time < t) {
            self.pop()
        } else {
            None
        }
    }

    /// The queue's clock: the time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c').unwrap();
        q.schedule(SimTime::from_secs(1), 'a').unwrap();
        q.schedule(SimTime::from_secs(2), 'b').unwrap();
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn pop_before_stops_short_of_the_bound() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'b').unwrap();
        q.schedule(SimTime::from_secs(1), 'a').unwrap();
        assert_eq!(q.pop_before(SimTime::from_secs(1)), None);
        assert_eq!(
            q.pop_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), 'a'))
        );
        assert_eq!(q.pop_before(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fifo_for_simultaneous_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i).unwrap();
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ()).unwrap();
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn scheduling_into_past_errors() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ()).unwrap();
        q.pop();
        assert_eq!(
            q.schedule(SimTime::from_secs(1), ()),
            Err(crate::SimError::SchedulePast {
                at: SimTime::from_secs(1),
                now: SimTime::from_secs(5),
            })
        );
        // The failed schedule left the queue unchanged.
        assert!(q.is_empty());
        // Scheduling exactly at the clock is still allowed.
        q.schedule(SimTime::from_secs(5), ()).unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ()).unwrap();
        assert_eq!(q.len(), 1);
    }
}
