//! The delivery side of a data service's update fan-out, kept on the
//! interest index's slot numbering: which host each subscriber slot sits
//! on, how late each slot's FIFO stream already runs, and which of a
//! batch's updates each slot is owed.
//!
//! [`crate::world::publish_batch`] drives it through
//! [`crate::data_service::DataService`]; nothing here is looked up by name
//! or by id per (subscriber, update) pair.

use crate::data_service::FanoutTotals;
use crate::ids::RenderServiceId;
use rave_net::{Fanout, HostId, Network};
use rave_scene::{StampedUpdate, SubSlot};
use rave_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The updates of one batch owed to one subscriber, in seq order.
/// Subscribers owed the same updates share one list.
pub(crate) type UpdateList = Arc<[Arc<StampedUpdate>]>;

/// One scheduled delivery wave: everything a batch owes every subscriber
/// it reaches at the instant `at`, applied by one event. On a shared
/// segment one transmission lands everywhere at once, so a batch has about
/// as many waves as it has distinct (link, largest owed update) pairs —
/// not one per subscriber.
#[derive(Debug, Clone)]
pub(crate) struct Wave {
    pub at: SimTime,
    /// Each member's updates in seq order; members in ascending id order.
    pub deliveries: Vec<(RenderServiceId, UpdateList)>,
}

/// One list of the batch in flight: its prefix plus one more update.
#[derive(Debug, Clone, Default)]
struct ListEntry {
    /// The list without its last update, and that update's index in the
    /// batch. (Meaningless for the empty list.)
    shorter: u32,
    last: u32,
    /// `(update, list)` when `list` is this one extended by batch index
    /// `update`. Updates are fanned out in batch order, so the latest
    /// extension is the only one ever asked for again.
    extended: Option<(u32, u32)>,
    /// The shared list, once some delivery needed it.
    built: Option<UpdateList>,
}

/// The distinct update lists of the batch in flight, by list id; id 0 is
/// the empty list. Appending is one probe, and subscribers that matched
/// the same updates so far hold the same id.
#[derive(Debug, Clone)]
struct ListTable(Vec<ListEntry>);

impl Default for ListTable {
    fn default() -> Self {
        Self(vec![ListEntry::default()])
    }
}

impl ListTable {
    const EMPTY: u32 = 0;

    fn extend(&mut self, list: u32, update: u32) -> u32 {
        if let Some((by, longer)) = self.0[list as usize].extended {
            if by == update {
                return longer;
            }
        }
        let longer = self.0.len() as u32;
        self.0.push(ListEntry { shorter: list, last: update, extended: None, built: None });
        self.0[list as usize].extended = Some((update, longer));
        longer
    }

    fn build(&mut self, list: u32, batch: &[Arc<StampedUpdate>]) -> UpdateList {
        if let Some(built) = &self.0[list as usize].built {
            return Arc::clone(built);
        }
        let mut members = Vec::new();
        let mut at = list;
        while at != Self::EMPTY {
            members.push(self.0[at as usize].last);
            at = self.0[at as usize].shorter;
        }
        let built: UpdateList =
            members.iter().rev().map(|&u| Arc::clone(&batch[u as usize])).collect();
        self.0[list as usize].built = Some(Arc::clone(&built));
        built
    }

    fn clear(&mut self) {
        self.0.truncate(1);
        self.0[0].extended = None;
    }
}

/// Slot-indexed delivery state of one data service.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeliveryState {
    /// Slot → the subscriber's host. `None`: no such render service in
    /// the world, or its host is not on the network — a skipped receiver.
    hosts: Vec<Option<HostId>>,
    /// The data service's own host, and the `(index generation, network
    /// revision)` it and `hosts` were resolved at; they are resolved again
    /// when either moves on.
    resolved: Option<(HostId, (u64, u64))>,
    /// Slot → latest scheduled delivery time. Updates are applied strictly
    /// in publish order on every replica, so a small update must not
    /// overtake a large one still on the wire (TCP FIFO semantics).
    high_water: Vec<SimTime>,
    /// The marks of render services outside the current numbering: a mark
    /// lasts as long as its (data service, render service) pair, through
    /// an unsubscribe and a resubscribe.
    parked: BTreeMap<RenderServiceId, SimTime>,
    /// Slot → the list of this batch's updates it is owed so far.
    list: Vec<u32>,
    /// Slots owed anything by this batch.
    touched: Vec<SubSlot>,
    lists: ListTable,
    fanout: Fanout,
}

impl DeliveryState {
    /// The index was rebuilt: carry every mark from the `old` slot
    /// numbering over to the `new` one (both in ascending id order).
    pub(crate) fn renumber(
        &mut self,
        old: &[RenderServiceId],
        new: impl ExactSizeIterator<Item = RenderServiceId>,
    ) {
        debug_assert!(self.touched.is_empty(), "no batch is in flight across a rebuild");
        let marks = std::mem::take(&mut self.high_water);
        let mut old = old.iter().copied().zip(marks).peekable();
        let park = |parked: &mut BTreeMap<_, _>, (id, mark): (RenderServiceId, SimTime)| {
            if mark > SimTime::ZERO {
                parked.insert(id, mark);
            }
        };
        self.high_water.reserve(new.len());
        for id in new {
            while let Some(left) = old.next_if(|&(o, _)| o < id) {
                park(&mut self.parked, left);
            }
            let mark = match old.next_if(|&(o, _)| o == id) {
                Some((_, mark)) => mark,
                None => self.parked.remove(&id).unwrap_or(SimTime::ZERO),
            };
            self.high_water.push(mark);
        }
        for left in old {
            park(&mut self.parked, left);
        }
        self.list.clear();
        self.list.resize(self.high_water.len(), ListTable::EMPTY);
        self.resolved = None;
    }

    /// Bring slot → host up to date with index generation `generation`
    /// and the network's current revision.
    pub(crate) fn resolve_hosts<'a>(
        &mut self,
        generation: u64,
        ids: &[RenderServiceId],
        sender: &str,
        net: &Network,
        host_of: impl Fn(RenderServiceId) -> Option<&'a str>,
    ) {
        let key = (generation, net.revision());
        if self.resolved.is_some_and(|(_, at)| at == key) {
            return;
        }
        self.hosts.clear();
        self.hosts.extend(ids.iter().map(|&id| host_of(id).and_then(|h| net.host_id(h))));
        self.resolved = Some((net.known_host(sender), key));
    }

    /// Fan update number `update` of the batch out to `slots` (ascending):
    /// one transfer time per receiving segment, every receiver's FIFO mark
    /// and list advanced.
    pub(crate) fn fan_out(
        &mut self,
        now: SimTime,
        update: u32,
        slots: &[SubSlot],
        bytes: u64,
        net: &Network,
        totals: &mut FanoutTotals,
    ) {
        let Self { resolved, hosts, high_water, list, touched, lists, fanout, .. } = self;
        let (sender, _) = resolved.expect("hosts are resolved before the first fan-out");
        let receivers = slots.iter().map(|&s| hosts[s as usize]);
        let cost = fanout.deliver(net, sender, receivers, bytes, |i, wire| {
            let slot = slots[i] as usize;
            // Deliveries to any one subscriber stay FIFO in publish order
            // (TCP semantics): never earlier than anything already queued.
            high_water[slot] = (now + wire).max(high_water[slot]);
            if list[slot] == ListTable::EMPTY {
                touched.push(slots[i]);
            }
            list[slot] = lists.extend(list[slot], update);
        });
        totals.record(&cost, bytes);
    }

    /// Close the batch: every touched subscriber is delivered to at the
    /// arrival of the last update it is owed; subscribers that share that
    /// instant share a wave, in subscriber id order. Waves come out in
    /// time order.
    pub(crate) fn finish_batch(
        &mut self,
        batch: &[Arc<StampedUpdate>],
        ids: &[RenderServiceId],
    ) -> Vec<Wave> {
        self.touched.sort_unstable();
        let mut waves: BTreeMap<SimTime, Vec<(RenderServiceId, UpdateList)>> = BTreeMap::new();
        for &slot in &self.touched {
            let slot = slot as usize;
            let updates = self.lists.build(self.list[slot], batch);
            waves.entry(self.high_water[slot]).or_default().push((ids[slot], updates));
            self.list[slot] = ListTable::EMPTY;
        }
        self.touched.clear();
        self.lists.clear();
        waves.into_iter().map(|(at, deliveries)| Wave { at, deliveries }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::{NodeId, SceneUpdate};

    fn update(seq: u64) -> Arc<StampedUpdate> {
        let update = SceneUpdate::SetName { id: NodeId(0), name: String::new() };
        Arc::new(StampedUpdate { seq, origin: String::new(), update })
    }

    #[test]
    fn equal_sequences_share_one_list() {
        let batch: Vec<_> = (1..=3).map(update).collect();
        let mut t = ListTable::default();
        // Subscribers a and b match updates 0 and 2, c matches all three.
        let (mut a, mut b, mut c) = (ListTable::EMPTY, ListTable::EMPTY, ListTable::EMPTY);
        for u in 0..3 {
            if u != 1 {
                a = t.extend(a, u);
                b = t.extend(b, u);
            }
            c = t.extend(c, u);
        }
        assert_eq!(a, b);
        assert_ne!(a, c);
        let (la, lb, lc) = (t.build(a, &batch), t.build(b, &batch), t.build(c, &batch));
        assert!(Arc::ptr_eq(&la, &lb), "one allocation for both");
        assert_eq!(la.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(lc.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(Arc::ptr_eq(&la[0], &batch[0]), "updates are shared, not copied");

        t.clear();
        let d = t.extend(ListTable::EMPTY, 1);
        assert_eq!(t.build(d, &batch).iter().map(|s| s.seq).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn marks_follow_their_render_service_through_renumbering() {
        let rs = RenderServiceId;
        let t = SimTime::from_secs;
        let mut d = DeliveryState::default();
        d.renumber(&[], [rs(2), rs(5), rs(9)].into_iter());
        d.high_water.copy_from_slice(&[t(2.0), t(5.0), SimTime::ZERO]);
        // 5 leaves, 1 and 7 join: 2 moves from slot 0 to slot 1.
        d.renumber(&[rs(2), rs(5), rs(9)], [rs(1), rs(2), rs(7), rs(9)].into_iter());
        assert_eq!(d.high_water, vec![SimTime::ZERO, t(2.0), SimTime::ZERO, SimTime::ZERO]);
        assert_eq!(d.list.len(), 4);
        // 5 comes back and finds its mark; 2 leaves and parks its own.
        d.renumber(&[rs(1), rs(2), rs(7), rs(9)], [rs(5), rs(9)].into_iter());
        assert_eq!(d.high_water, vec![t(5.0), SimTime::ZERO]);
        assert_eq!(d.parked.into_iter().collect::<Vec<_>>(), vec![(rs(2), t(2.0))]);
    }
}
