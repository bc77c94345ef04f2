//! The event loop.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a scheduled event; can be used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    /// Schedule order, unique per simulation.
    seq: u64,
    slot: u32,
}

type Handler<W> = Box<dyn FnOnce(&mut Simulation<W>)>;

/// One slab entry: the pending handler of event `seq`, or `None` once it
/// fired or was cancelled (the slot is then on the free list).
struct Slot<W> {
    seq: u64,
    handler: Option<Handler<W>>,
}

/// A discrete-event simulation over a user-supplied world `W`.
///
/// ```
/// use rave_sim::{Simulation, SimTime};
///
/// let mut sim = Simulation::new(0u32);
/// sim.schedule_in(SimTime::from_secs(1.0), |sim| {
///     sim.world += 1;
///     sim.schedule_in(SimTime::from_secs(1.0), |sim| sim.world += 10);
/// });
/// sim.run();
/// assert_eq!(sim.world, 11);
/// assert_eq!(sim.now().as_secs(), 2.0);
/// ```
pub struct Simulation<W> {
    pub world: W,
    now: SimTime,
    next_seq: u64,
    // Two structures: an ordered heap of (time, seq, slot) keys and a slab
    // of the boxed handlers, so cancellation is O(1) without touching the
    // heap. A slot is reused as soon as its handler is taken; a heap key
    // whose `seq` no longer matches its slot's is stale and skipped when
    // popped.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    executed: u64,
}

impl<W> Simulation<W> {
    pub fn new(world: W) -> Self {
        Self {
            world,
            now: SimTime::ZERO,
            next_seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled tombstones not
    /// yet drained).
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `handler` to run at absolute time `at`. Scheduling in the
    /// past is a logic error and panics — silently reordering time would
    /// invalidate every measurement downstream.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut Simulation<W>) + 'static,
    ) -> EventId {
        assert!(at >= self.now, "cannot schedule into the past: now={} at={}", self.now, at);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Slot { seq, handler: Some(Box::new(handler)) };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
        EventId { seq, slot }
    }

    /// Schedule `handler` to run `delay` after now.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        handler: impl FnOnce(&mut Simulation<W>) + 'static,
    ) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, handler)
    }

    /// The handler of event `seq` if it is still pending in `slot`; the
    /// slot goes back on the free list.
    fn take(&mut self, seq: u64, slot: u32) -> Option<Handler<W>> {
        let entry = self.slots.get_mut(slot as usize).filter(|e| e.seq == seq)?;
        let handler = entry.handler.take()?;
        self.free.push(slot);
        Some(handler)
    }

    /// Cancel a pending event. Returns `true` if the event existed and had
    /// not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.take(id.seq, id.slot).is_some()
    }

    /// Run the next event, if any. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        while let Some(Reverse((at, seq, slot))) = self.heap.pop() {
            let Some(handler) = self.take(seq, slot) else {
                continue; // cancelled: stale heap key
            };
            self.now = at;
            self.executed += 1;
            handler(self);
            return true;
        }
        false
    }

    /// Run until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue is empty or virtual time would exceed `until`.
    /// Events at exactly `until` still execute; later events stay queued.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(Reverse((at, ..))) = self.heap.peek() {
            if *at > until {
                break;
            }
            if !self.step() {
                break;
            }
        }
        // Time advances to the horizon even if nothing fired exactly there,
        // so periodic samplers observe a consistent clock.
        self.now = self.now.max(until);
    }

    /// Run until `predicate` over the world becomes true or the queue
    /// drains. Returns whether the predicate held on exit.
    pub fn run_while(&mut self, mut keep_going: impl FnMut(&W) -> bool) -> bool {
        while keep_going(&self.world) {
            if !self.step() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_in(SimTime::from_secs(3.0), |s| s.world.push(3));
        sim.schedule_in(SimTime::from_secs(1.0), |s| s.world.push(1));
        sim.schedule_in(SimTime::from_secs(2.0), |s| s.world.push(2));
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.now().as_secs(), 3.0);
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let t = SimTime::from_secs(1.0);
        for i in 0..10 {
            sim.schedule_in(t, move |s| s.world.push(i));
        }
        sim.run();
        assert_eq!(sim.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more() {
        let mut sim = Simulation::new(0u64);
        fn tick(sim: &mut Simulation<u64>) {
            sim.world += 1;
            if sim.world < 5 {
                sim.schedule_in(SimTime::from_secs(1.0), tick);
            }
        }
        sim.schedule_in(SimTime::ZERO, tick);
        sim.run();
        assert_eq!(sim.world, 5);
        assert_eq!(sim.now().as_secs(), 4.0);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulation::new(0u32);
        let id = sim.schedule_in(SimTime::from_secs(1.0), |s| s.world = 99);
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        sim.run();
        assert_eq!(sim.world, 0);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_in(SimTime::from_secs(1.0), |s| s.world.push(1));
        sim.schedule_in(SimTime::from_secs(5.0), |s| s.world.push(5));
        sim.run_until(SimTime::from_secs(2.0));
        assert_eq!(sim.world, vec![1]);
        assert_eq!(sim.now().as_secs(), 2.0);
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.world, vec![1, 5]);
    }

    #[test]
    fn run_until_inclusive_of_horizon_events() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_in(SimTime::from_secs(2.0), |s| s.world = 1);
        sim.run_until(SimTime::from_secs(2.0));
        assert_eq!(sim.world, 1);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(());
        sim.schedule_in(SimTime::from_secs(1.0), |s| {
            s.schedule_at(SimTime::from_secs(0.5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn run_while_predicate() {
        let mut sim = Simulation::new(0u32);
        for _ in 0..10 {
            sim.schedule_in(SimTime::from_secs(1.0), |s| s.world += 1);
        }
        let held = sim.run_while(|w| *w < 3);
        assert!(held);
        assert_eq!(sim.world, 3);
    }

    #[test]
    fn ties_break_fifo_across_slot_reuse() {
        // Free slots 0..4 out of order, then schedule into them: the new
        // events take recycled slots in an order unrelated to schedule
        // order, and must still fire in schedule order.
        let mut sim = Simulation::new(Vec::<u32>::new());
        let early: Vec<EventId> =
            (0..5).map(|_| sim.schedule_in(SimTime::from_secs(1.0), |_| {})).collect();
        for i in [3, 0, 4, 1, 2] {
            assert!(sim.cancel(early[i]));
        }
        let t = SimTime::from_secs(2.0);
        for i in 0..8 {
            sim.schedule_at(t, move |s| s.world.push(i));
        }
        // A handler that fires first frees its slot for an event scheduled
        // from inside it, at the same instant as the rest.
        sim.schedule_in(SimTime::ZERO, move |s| {
            s.schedule_at(t, |s| s.world.push(8));
        });
        sim.run();
        assert_eq!(sim.world, (0..9).collect::<Vec<_>>());
        assert_eq!(sim.executed(), 10);
    }

    #[test]
    fn cancel_is_false_for_fired_and_stale_ids() {
        let mut sim = Simulation::new(0u32);
        let fired = sim.schedule_in(SimTime::from_secs(1.0), |s| s.world += 1);
        sim.run();
        assert!(!sim.cancel(fired), "already fired");

        // The next event reuses `fired`'s slot; the stale id must not
        // cancel it.
        let live = sim.schedule_in(SimTime::from_secs(1.0), |s| s.world += 10);
        assert_eq!(live.slot, fired.slot, "the slot was recycled");
        assert!(!sim.cancel(fired), "stale id, reused slot");
        sim.run();
        assert_eq!(sim.world, 11);

        // Same through a cancel: the cancelled event's slot is reused.
        let cancelled = sim.schedule_in(SimTime::from_secs(1.0), |s| s.world += 100);
        assert!(sim.cancel(cancelled));
        let reuse = sim.schedule_in(SimTime::from_secs(1.0), |s| s.world += 1000);
        assert_eq!(reuse.slot, cancelled.slot);
        assert!(!sim.cancel(cancelled), "double cancel, slot now someone else's");
        sim.run();
        assert_eq!(sim.world, 1011);
    }

    #[test]
    fn pending_counts_tombstones_until_drained() {
        let mut sim = Simulation::new(());
        let a = sim.schedule_in(SimTime::from_secs(1.0), |_| {});
        sim.schedule_in(SimTime::from_secs(2.0), |_| {});
        assert_eq!(sim.pending(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 2, "the cancelled key is still queued");
        // The recycled slot's new event sits beside the tombstone.
        sim.schedule_in(SimTime::from_secs(3.0), |_| {});
        assert_eq!(sim.pending(), 3);
        sim.run();
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.executed(), 2);
    }

    #[test]
    fn handlers_can_schedule_and_cancel() {
        let mut sim = Simulation::new(Vec::<&'static str>::new());
        let victim = sim.schedule_in(SimTime::from_secs(2.0), |s| s.world.push("victim"));
        sim.schedule_in(SimTime::from_secs(1.0), move |s| {
            s.world.push("first");
            assert!(s.cancel(victim));
            // Takes the slot this handler or the victim just gave up.
            let doomed = s.schedule_in(SimTime::from_secs(1.0), |s| s.world.push("doomed"));
            s.schedule_in(SimTime::from_secs(1.0), |s| s.world.push("kept"));
            assert!(s.cancel(doomed));
            assert!(!s.cancel(doomed));
        });
        sim.run();
        assert_eq!(sim.world, vec!["first", "kept"]);
        assert_eq!(sim.executed(), 2);
        assert_eq!(sim.now().as_secs(), 2.0);
    }

    #[test]
    fn executed_counts_only_fired() {
        let mut sim = Simulation::new(());
        let id = sim.schedule_in(SimTime::from_secs(1.0), |_| {});
        sim.schedule_in(SimTime::from_secs(1.0), |_| {});
        sim.cancel(id);
        sim.run();
        assert_eq!(sim.executed(), 1);
    }
}
