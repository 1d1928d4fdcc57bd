//! A minimal discrete-event simulation driver.
//!
//! Events are boxed closures over a user state type `S`. Simultaneous
//! events fire in the order they were scheduled (stable FIFO tie-break via
//! a monotonic sequence number), which keeps experiment runs byte-for-byte
//! reproducible.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// An event callback: receives the mutable simulation state and the
/// scheduler (through which follow-up events can be scheduled).
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

struct QueuedEvent<S> {
    at: SimTime,
    seq: u64,
    run: EventFn<S>,
}

impl<S> PartialEq for QueuedEvent<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for QueuedEvent<S> {}
impl<S> PartialOrd for QueuedEvent<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for QueuedEvent<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Width of one calendar bucket, as a power of two of seconds (256 s).
/// Small enough that the draining heap holds only the near future, large
/// enough that a six-sim-day run touches only a few thousand buckets.
const BUCKET_WIDTH_BITS: u32 = 8;

/// A bucketed ("calendar") event queue: a `BTreeMap` of far-future
/// buckets feeding one small [`BinaryHeap`] that holds the bucket being
/// drained. Pushes into the far future are an O(log buckets) map insert
/// plus a `Vec` push — no heap sift through every pending event — and
/// pops only ever sift the current bucket's heap.
///
/// Exact (time, seq) FIFO order is preserved, not approximated:
///
/// * the current heap orders its contents totally by `(at, seq)`;
/// * every far bucket's index is strictly greater than the current
///   bucket's (pushes land in the current heap whenever their bucket is
///   `<= current_bucket`, and `pull` consumes far buckets in ascending
///   order), so every far event's time strictly exceeds every time the
///   current bucket can contain;
/// * two events with equal times share a bucket by construction, so a
///   seq tie-break can never straddle the current/far boundary.
///
/// Hence the minimum of the current heap is the global minimum, and the
/// pop sequence is byte-identical to the flat heap it replaced.
struct CalendarQueue<S> {
    current: BinaryHeap<QueuedEvent<S>>,
    /// Bucket index the current heap is draining; `None` before the
    /// first pull and after the queue fully drains.
    current_bucket: Option<u64>,
    far: BTreeMap<u64, Vec<QueuedEvent<S>>>,
    len: usize,
}

impl<S> CalendarQueue<S> {
    fn new() -> Self {
        CalendarQueue {
            current: BinaryHeap::new(),
            current_bucket: None,
            far: BTreeMap::new(),
            len: 0,
        }
    }

    #[inline]
    fn bucket(at: SimTime) -> u64 {
        at.as_secs() >> BUCKET_WIDTH_BITS
    }

    #[inline]
    fn push(&mut self, ev: QueuedEvent<S>) {
        self.len += 1;
        let b = Self::bucket(ev.at);
        match self.current_bucket {
            Some(cb) if b <= cb => self.current.push(ev),
            _ => self.far.entry(b).or_default().push(ev),
        }
    }

    /// Refill the current heap from the earliest far bucket once it
    /// drains. Far buckets are strictly later than the current one, so
    /// ascending consumption keeps the ordering invariant.
    #[inline]
    fn pull(&mut self) {
        if self.current.is_empty() {
            match self.far.pop_first() {
                Some((b, evs)) => {
                    self.current_bucket = Some(b);
                    self.current.extend(evs);
                }
                None => self.current_bucket = None,
            }
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<QueuedEvent<S>> {
        self.pull();
        let ev = self.current.pop();
        if ev.is_some() {
            self.len -= 1;
        }
        ev
    }

    /// Pop the next event only if its timestamp is `<= end`. One `pull`
    /// and one heap sift per dispatched event — the `run_until` hot loop
    /// previously peeked (pull + compare) and then popped (pull + sift),
    /// touching the heap root twice per event.
    #[inline]
    fn pop_if_at_most(&mut self, end: SimTime) -> Option<QueuedEvent<S>> {
        self.pull();
        if self.current.peek()?.at > end {
            return None;
        }
        self.len -= 1;
        self.current.pop()
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The scheduling half of the simulation, passed to every event callback.
pub struct Scheduler<S> {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<S>,
}

impl<S> Scheduler<S> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Panics if `at` is in the past: an event that rewinds time would make
    /// the run non-reproducible.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        assert!(at >= self.now, "cannot schedule event in the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent {
            at,
            seq,
            run: Box::new(event),
        });
    }

    /// Schedule `event` after a relative delay.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        event: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        // Saturate rather than wrap: a delay that lands past the end of
        // representable time schedules at `SimTime::MAX` instead of
        // tripping the "in the past" assert with a bogus wrapped time.
        let at = self.now.checked_add(delay).unwrap_or(SimTime::MAX);
        self.schedule_at(at, event);
    }
}

/// A hook run after every dispatched event, with the state and the
/// (read-only) scheduler. See [`Simulation::set_post_dispatch`].
pub type PostDispatchFn<S> = Box<dyn FnMut(&mut S, &Scheduler<S>)>;

/// A discrete-event simulation over state `S`.
pub struct Simulation<S> {
    state: S,
    scheduler: Scheduler<S>,
    post_dispatch: Option<PostDispatchFn<S>>,
}

impl<S> Simulation<S> {
    /// Create a simulation with the given initial state at time zero.
    pub fn new(state: S) -> Self {
        Simulation {
            state,
            scheduler: Scheduler::new(),
            post_dispatch: None,
        }
    }

    /// Install a hook that runs after **every** dispatched event, once the
    /// event's own callback has returned. Invariant oracles (toto-chaos)
    /// hang off this: they observe each post-event state without being
    /// events themselves, so installing one never perturbs the event
    /// sequence or any seeded RNG stream.
    pub fn set_post_dispatch(&mut self, hook: impl FnMut(&mut S, &Scheduler<S>) + 'static) {
        self.post_dispatch = Some(Box::new(hook));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now
    }

    /// Immutable access to the simulation state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Access to the scheduler for seeding the initial events.
    pub fn scheduler(&mut self) -> &mut Scheduler<S> {
        &mut self.scheduler
    }

    /// Dispatch one already-popped event: advance the clock, trace,
    /// run the callback, then the post-dispatch hook. Shared by
    /// [`Simulation::step`] and the [`Simulation::run_until`] hot loop.
    #[inline]
    fn dispatch(&mut self, ev: QueuedEvent<S>) {
        debug_assert!(ev.at >= self.scheduler.now, "time went backwards");
        self.scheduler.now = ev.at;
        if toto_trace::is_active() {
            toto_trace::set_now_secs(ev.at.as_secs());
            toto_trace::emit(toto_trace::EventKind::Dispatch, || {
                toto_trace::EventBody::Dispatch { queue_seq: ev.seq }
            });
        }
        (ev.run)(&mut self.state, &mut self.scheduler);
        if let Some(hook) = &mut self.post_dispatch {
            hook(&mut self.state, &self.scheduler);
        }
    }

    /// Run one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.scheduler.queue.pop() {
            Some(ev) => {
                self.dispatch(ev);
                true
            }
            None => false,
        }
    }

    /// Run all events with timestamps `<= end`, then advance the clock to
    /// exactly `end`. Events scheduled beyond `end` remain queued.
    pub fn run_until(&mut self, end: SimTime) {
        while let Some(ev) = self.scheduler.queue.pop_if_at_most(end) {
            self.dispatch(ev);
        }
        if self.scheduler.now < end {
            self.scheduler.now = end;
            toto_trace::set_now_secs(end.as_secs());
        }
    }

    /// Run until the event queue drains. Use with care: self-rescheduling
    /// periodic tasks never drain, so prefer [`Simulation::run_until`].
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Consume the simulation and return the final state.
    pub fn into_state(self) -> S {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Simulation<Vec<u32>> = Simulation::new(Vec::new());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(30), |s: &mut Vec<u32>, _| s.push(30));
        sim.scheduler()
            .schedule_at(SimTime::from_secs(10), |s: &mut Vec<u32>, _| s.push(10));
        sim.scheduler()
            .schedule_at(SimTime::from_secs(20), |s: &mut Vec<u32>, _| s.push(20));
        sim.run_to_completion();
        assert_eq!(sim.state(), &vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim: Simulation<Vec<u32>> = Simulation::new(Vec::new());
        for i in 0..10 {
            sim.scheduler()
                .schedule_at(SimTime::from_secs(5), move |s: &mut Vec<u32>, _| s.push(i));
        }
        sim.run_to_completion();
        assert_eq!(sim.state(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut sim: Simulation<u32> = Simulation::new(0);
        sim.scheduler()
            .schedule_at(SimTime::from_secs(5), |s: &mut u32, _| *s += 1);
        sim.scheduler()
            .schedule_at(SimTime::from_secs(50), |s: &mut u32, _| *s += 100);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(*sim.state(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert_eq!(sim.scheduler.pending(), 1);
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(*sim.state(), 101);
    }

    #[test]
    fn events_can_schedule_followups() {
        // A self-rescheduling task: counts 1-minute ticks over one hour.
        fn tick(count: &mut u32, sched: &mut Scheduler<u32>) {
            *count += 1;
            if *count < 60 {
                sched.schedule_in(SimDuration::from_minutes(1), tick);
            }
        }
        let mut sim: Simulation<u32> = Simulation::new(0);
        sim.scheduler().schedule_at(SimTime::ZERO, tick);
        sim.run_to_completion();
        assert_eq!(*sim.state(), 60);
        assert_eq!(sim.now(), SimTime::from_secs(59 * 60));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Simulation<()> = Simulation::new(());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(100), |_, sched| {
                sched.schedule_at(SimTime::from_secs(50), |_, _| {});
            });
        sim.run_to_completion();
    }

    #[test]
    fn post_dispatch_hook_runs_after_every_event() {
        let mut sim: Simulation<Vec<&'static str>> = Simulation::new(Vec::new());
        sim.set_post_dispatch(|s: &mut Vec<&'static str>, _| s.push("hook"));
        sim.scheduler()
            .schedule_at(SimTime::from_secs(1), |s: &mut Vec<&'static str>, _| {
                s.push("a")
            });
        sim.scheduler()
            .schedule_at(SimTime::from_secs(2), |s: &mut Vec<&'static str>, _| {
                s.push("b")
            });
        sim.run_to_completion();
        assert_eq!(sim.state(), &vec!["a", "hook", "b", "hook"]);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim: Simulation<()> = Simulation::new(());
        sim.run_until(SimTime::from_secs(1234));
        assert_eq!(sim.now(), SimTime::from_secs(1234));
    }

    #[test]
    fn calendar_buckets_preserve_global_time_seq_order() {
        // Events scattered across many buckets (256 s wide), pushed in a
        // deterministic shuffled order, must still pop in exact
        // (time, seq) order — including seq ties within one second and
        // times straddling bucket boundaries (255/256/257).
        let mut sim: Simulation<Vec<(u64, usize)>> = Simulation::new(Vec::new());
        let mut rng = crate::rng::DetRng::seed_from_u64(7);
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for i in 0..500usize {
            let t = match i % 5 {
                0 => 255,
                1 => 256,
                2 => 257,
                _ => rng.next_below(100_000),
            };
            expected.push((t, i));
            sim.scheduler().schedule_at(
                SimTime::from_secs(t),
                move |s: &mut Vec<(u64, usize)>, _| s.push((t, i)),
            );
        }
        // Stable by time: equal times keep scheduling (seq) order.
        expected.sort_by_key(|&(t, _)| t);
        sim.run_to_completion();
        assert_eq!(sim.state(), &expected);
    }

    #[test]
    fn events_scheduled_mid_dispatch_into_current_bucket_stay_ordered() {
        // While draining bucket k, an event may schedule a follow-up
        // that lands in bucket k (or the same second). It must be
        // dispatched from the current heap in correct order, not lost
        // behind the far map.
        let mut sim: Simulation<Vec<&'static str>> = Simulation::new(Vec::new());
        sim.scheduler().schedule_at(
            SimTime::from_secs(10),
            |s: &mut Vec<&'static str>, sched| {
                s.push("a");
                // Same bucket (secs 10..255), later time.
                sched.schedule_at(SimTime::from_secs(40), |s: &mut Vec<&'static str>, _| {
                    s.push("followup-same-bucket")
                });
                // Same second: FIFO after already-queued "b".
                sched.schedule_at(SimTime::from_secs(20), |s: &mut Vec<&'static str>, _| {
                    s.push("followup-same-second")
                });
                // Far bucket.
                sched.schedule_at(SimTime::from_secs(5000), |s: &mut Vec<&'static str>, _| {
                    s.push("far")
                });
            },
        );
        sim.scheduler()
            .schedule_at(SimTime::from_secs(20), |s: &mut Vec<&'static str>, _| {
                s.push("b")
            });
        sim.run_to_completion();
        assert_eq!(
            sim.state(),
            &vec![
                "a",
                "b",
                "followup-same-second",
                "followup-same-bucket",
                "far"
            ]
        );
    }

    #[test]
    fn schedule_in_saturates_at_the_end_of_time() {
        // Regression: `schedule_in` computed `self.now + delay` with
        // unchecked arithmetic, so a near-`SimTime::MAX` schedule wrapped
        // and tripped the "cannot schedule event in the past" assert (or
        // wrapped silently in release). A delay past the end of time now
        // saturates at `SimTime::MAX` and still fires.
        let mut sim: Simulation<u32> = Simulation::new(0);
        sim.scheduler()
            .schedule_at(SimTime::from_secs(u64::MAX - 10), |_, sched| {
                sched.schedule_in(SimDuration::from_secs(100), |s: &mut u32, _| *s += 1);
            });
        sim.run_to_completion();
        assert_eq!(*sim.state(), 1, "saturated event must still fire");
        assert_eq!(sim.now(), SimTime::MAX);
    }

    #[test]
    fn pending_counts_across_buckets() {
        let mut sim: Simulation<u32> = Simulation::new(0);
        for t in [5u64, 300, 70_000, 70_001, 5] {
            sim.scheduler().schedule_at(SimTime::from_secs(t), |s, _| {
                *s += 1;
            });
        }
        assert_eq!(sim.scheduler().pending(), 5);
        sim.run_until(SimTime::from_secs(400));
        assert_eq!(sim.scheduler().pending(), 2);
        sim.run_to_completion();
        assert_eq!(*sim.state(), 5);
        assert_eq!(sim.scheduler().pending(), 0);
    }
}
