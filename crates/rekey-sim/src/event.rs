//! The core event queue: a deterministic time-ordered scheduler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in microseconds since the start of the run.
pub type SimTime = u64;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event scheduler.
///
/// Events scheduled for the same instant are delivered in scheduling order
/// (FIFO), which makes whole simulations reproducible bit-for-bit under a
/// fixed RNG seed.
///
/// ```
/// use rekey_sim::Scheduler;
/// let mut s: Scheduler<&str> = Scheduler::new();
/// s.schedule_in(10, "b");
/// s.schedule_in(5, "a");
/// s.schedule_in(10, "c");
/// assert_eq!(s.pop(), Some((5, "a")));
/// assert_eq!(s.pop(), Some((10, "b")));
/// assert_eq!(s.pop(), Some((10, "c")));
/// assert_eq!(s.pop(), None);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time 0.
    pub fn new() -> Scheduler<E> {
        Scheduler {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({} < {})",
            at,
            self.now
        );
        self.queue.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Schedules `event` after a relative `delay`.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.queue.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next pending event without popping it (the clock
    /// does not advance).
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// `true` iff no events are pending.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut s: Scheduler<u32> = Scheduler::new();
        assert_eq!(s.now(), 0);
        s.schedule_in(100, 1);
        s.schedule_at(50, 2);
        assert_eq!(s.pop(), Some((50, 2)));
        assert_eq!(s.now(), 50);
        // Relative scheduling is relative to the new now.
        s.schedule_in(10, 3);
        assert_eq!(s.pop(), Some((60, 3)));
        assert_eq!(s.pop(), Some((100, 1)));
        assert!(s.is_idle());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(10, 1);
        s.pop();
        s.schedule_at(5, 2);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..100 {
            s.schedule_at(42, i);
        }
        for i in 0..100 {
            assert_eq!(s.pop(), Some((42, i)));
        }
    }

    #[test]
    fn pending_counts() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert_eq!(s.pending(), 0);
        s.schedule_in(1, ());
        s.schedule_in(2, ());
        assert_eq!(s.pending(), 2);
        s.pop();
        assert_eq!(s.pending(), 1);
    }
}
