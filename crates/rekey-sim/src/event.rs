//! The core event queue: a deterministic time-ordered scheduler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in microseconds since the start of the run.
pub type SimTime = u64;

/// A deterministic discrete-event scheduler.
///
/// Events scheduled for the same instant are delivered in scheduling order
/// (FIFO), which makes whole simulations reproducible bit-for-bit under a
/// fixed RNG seed.
///
/// The heap holds only `(at, seq, slot)` keys; the events wait in a slab
/// of slots that a free list recycles, so a sift moves 24 bytes however
/// large `E` is.
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
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// The pending events by slot; `None` is a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, reused last freed first.
    free: Vec<u32>,
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
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
                self.slots.push(Some(event));
                slot
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// Schedules `event` after a relative `delay`.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let event = self.slots[slot as usize]
            .take()
            .expect("a queued key names a full slot");
        self.free.push(slot);
        self.now = at;
        Some((at, event))
    }

    /// Timestamp of the next pending event without popping it (the clock
    /// does not advance).
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// `true` iff no events are pending.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[derive(Clone, Debug)]
    enum Op {
        /// `schedule_at(now + offset)`.
        At(u64),
        /// `schedule_in(delay)`.
        In(u64),
        /// `n` events at one instant `now + offset`.
        Burst(u64, usize),
        Pop,
        /// Pop until the queue is empty.
        Drain,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Pops twice as likely as each kind of schedule.
        prop_oneof![
            (0u64..6).prop_map(Op::At),
            (0u64..6).prop_map(Op::In),
            (0u64..4, 1usize..8).prop_map(|(offset, n)| Op::Burst(offset, n)),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Drain),
        ]
    }

    /// Pops `s` and the reference once, and checks they agree.
    fn pop(
        s: &mut Scheduler<u64>,
        reference: &mut Vec<(SimTime, u64)>,
        now: &mut SimTime,
    ) -> Result<(), TestCaseError> {
        reference.sort_unstable();
        let expected = (!reference.is_empty()).then(|| reference.remove(0));
        if let Some((at, _)) = expected {
            *now = at;
        }
        prop_assert_eq!(s.pop(), expected);
        Ok(())
    }

    proptest! {
        /// Any interleaving of schedules and pops pops exactly what a sort
        /// of the pending `(at, seq)` pairs names next, and the clock, the
        /// next time and the pending count agree with that reference after
        /// every step; the slab never holds more slots than the most events
        /// ever pending at once, so freed slots are reused.
        #[test]
        fn pops_follow_a_reference_sort(ops in proptest::collection::vec(op(), 1..200)) {
            let mut s: Scheduler<u64> = Scheduler::new();
            // The reference: pending (at, seq) pairs; the event is its seq.
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            let (mut now, mut seq, mut peak) = (0, 0, 0);
            for op in ops {
                match op {
                    Op::At(offset) => {
                        s.schedule_at(now + offset, seq);
                        reference.push((now + offset, seq));
                        seq += 1;
                    }
                    Op::In(delay) => {
                        s.schedule_in(delay, seq);
                        reference.push((now + delay, seq));
                        seq += 1;
                    }
                    Op::Burst(offset, n) => {
                        for _ in 0..n {
                            s.schedule_at(now + offset, seq);
                            reference.push((now + offset, seq));
                            seq += 1;
                        }
                    }
                    Op::Pop => pop(&mut s, &mut reference, &mut now)?,
                    Op::Drain => {
                        while !reference.is_empty() {
                            pop(&mut s, &mut reference, &mut now)?;
                        }
                        prop_assert!(s.is_idle());
                        pop(&mut s, &mut reference, &mut now)?;
                    }
                }
                peak = peak.max(reference.len());
                prop_assert_eq!(s.now(), now);
                prop_assert_eq!(s.pending(), reference.len());
                prop_assert_eq!(s.next_time(), reference.iter().map(|&(at, _)| at).min());
                prop_assert!(s.slots.len() <= peak, "{} slots for at most {} pending", s.slots.len(), peak);
            }
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
