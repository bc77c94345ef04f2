//! The delivery side of a data service's update fan-out, kept on the
//! interest index's slot numbering: which link class each subscriber slot
//! is reached by, how late each slot's FIFO stream already runs, and which
//! of a batch's updates each slot is owed.
//!
//! [`crate::world::publish_batch`] drives it through
//! [`crate::data_service::DataService`]; nothing here is looked up by name
//! or by id per (subscriber, update) pair, and an update that reaches
//! every subscriber is not booked per subscriber at all: it costs one
//! transfer time per link class, and the slots' lists and arrivals take
//! it up when the batch closes (DESIGN §5.15).

use crate::data_service::FanoutTotals;
use crate::ids::RenderServiceId;
use rave_net::{Fanout, HostId, LinkClass, Network};
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
    /// How many of the batch's everyone-updates the list holds.
    everyone: u32,
    /// `(update, list)` when `list` is this one extended by batch index
    /// `update`. A list is extended by scoped updates in batch order while
    /// it holds the whole everyone-run, and after that only by the next
    /// update of the run, so the latest extension is the only one ever
    /// asked for again.
    extended: Option<(u32, u32)>,
    /// `(run length, list)` when `list` is this one caught up with the
    /// first `run length` everyone-updates of the batch.
    caught_up: Option<(u32, u32)>,
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

    /// `list` with batch index `update` appended; `everyone` says whether
    /// that update reaches every subscriber.
    fn extend(&mut self, list: u32, update: u32, everyone: bool) -> u32 {
        let entry = &self.0[list as usize];
        if let Some((by, longer)) = entry.extended {
            if by == update {
                return longer;
            }
        }
        let everyone = entry.everyone + everyone as u32;
        let longer = self.0.len() as u32;
        self.0.push(ListEntry { shorter: list, last: update, everyone, ..ListEntry::default() });
        self.0[list as usize].extended = Some((update, longer));
        longer
    }

    /// `list` extended by the updates of the everyone-`run` it does not
    /// hold yet. Memoised per (list, run length): the slots that hold one
    /// list share one probe.
    fn catch_up(&mut self, list: u32, run: &[u32]) -> u32 {
        let entry = &self.0[list as usize];
        let (held, len) = (entry.everyone as usize, run.len() as u32);
        if held == run.len() {
            return list;
        }
        if let Some((at, longer)) = entry.caught_up {
            if at == len {
                return longer;
            }
        }
        let longer = run[held..].iter().fold(list, |at, &u| self.extend(at, u, true));
        self.0[list as usize].caught_up = Some((len, longer));
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
        self.0[0] = ListEntry::default();
    }
}

/// Slot-indexed delivery state of one data service. The slots are the
/// subscribers, numbered as the interest index numbers them.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeliveryState {
    /// Slot → render service, in ascending id order.
    ids: Vec<RenderServiceId>,
    /// Slot → how a delivery reaches the subscriber. Skipped: no such
    /// render service in the world, or its host is not on the network.
    classes: Vec<LinkClass>,
    /// By class index: how many slots are of that class. An update that
    /// reaches every subscriber is booked from these counts.
    per_class: Vec<u32>,
    /// The slots an everyone-update lands at (every class but skipped),
    /// ascending.
    receivers: Vec<SubSlot>,
    /// The data service's own host, and the network revision it and the
    /// classes were resolved at; they are resolved again when the network
    /// or the numbering moves on.
    resolved: Option<(HostId, u64)>,
    /// Slot → latest scheduled delivery time. Updates are applied strictly
    /// in publish order on every replica, so a small update must not
    /// overtake a large one still on the wire (TCP FIFO semantics), nor
    /// a parcel sent before it ([`DeliveryState::hold`]).
    high_water: Vec<SimTime>,
    /// The marks of render services outside the current numbering: a mark
    /// lasts as long as its (data service, render service) pair, through
    /// an unsubscribe and a resubscribe, and a hold on a service subscribed
    /// since the last numbering waits here for the next.
    parked: BTreeMap<RenderServiceId, SimTime>,
    /// Slot → the list of this batch's updates it is owed so far, short
    /// of the everyone-updates it has not caught up with.
    list: Vec<u32>,
    /// Slots a scoped update of this batch reached.
    touched: Vec<SubSlot>,
    lists: ListTable,
    /// The batch index of each everyone-update of the batch in flight, in
    /// order: the run every slot's list catches up with.
    run: Vec<u32>,
    /// By class index: the latest arrival of the run's updates so far.
    run_arrival: Vec<SimTime>,
    fanout: Fanout,
}

impl DeliveryState {
    /// The index was rebuilt: number the render services `new` (ascending
    /// id order) and carry every mark over from the old numbering.
    pub(crate) fn renumber(&mut self, new: impl IntoIterator<Item = RenderServiceId>) {
        debug_assert!(
            self.touched.is_empty() && self.run.is_empty(),
            "no batch is in flight across a rebuild"
        );
        let marks = std::mem::take(&mut self.high_water);
        let mut old = std::mem::take(&mut self.ids).into_iter().zip(marks).peekable();
        let park = |parked: &mut BTreeMap<_, _>, (id, mark): (RenderServiceId, SimTime)| {
            if mark > SimTime::ZERO {
                parked.insert(id, mark);
            }
        };
        for id in new {
            while let Some(left) = old.next_if(|&(o, _)| o < id) {
                park(&mut self.parked, left);
            }
            let mark = match old.next_if(|&(o, _)| o == id) {
                Some((_, mark)) => mark,
                None => self.parked.remove(&id).unwrap_or(SimTime::ZERO),
            };
            self.ids.push(id);
            self.high_water.push(mark);
        }
        for left in old {
            park(&mut self.parked, left);
        }
        self.list.clear();
        self.list.resize(self.high_water.len(), ListTable::EMPTY);
        self.resolved = None;
    }

    /// Slot → render service.
    pub(crate) fn ids(&self) -> &[RenderServiceId] {
        &self.ids
    }

    /// A message to `rs` that crosses the wire by `arrival` was queued on
    /// its stream: it lands behind what the stream holds already, and so
    /// does whatever is delivered to `rs` after it. Returns when it lands.
    pub(crate) fn hold(&mut self, rs: RenderServiceId, arrival: SimTime) -> SimTime {
        debug_assert!(self.touched.is_empty() && self.run.is_empty(), "a hold between batches");
        let mark = match self.ids.binary_search(&rs) {
            Ok(slot) => &mut self.high_water[slot],
            Err(_) => self.parked.entry(rs).or_insert(SimTime::ZERO),
        };
        *mark = arrival.max(*mark);
        *mark
    }

    /// Bring slot → link class up to date with the numbering and the
    /// network's current revision.
    pub(crate) fn resolve_classes<'a>(
        &mut self,
        sender: &str,
        net: &Network,
        host_of: impl Fn(RenderServiceId) -> Option<&'a str>,
    ) {
        let revision = net.revision();
        if self.resolved.is_some_and(|(_, at)| at == revision) {
            return;
        }
        debug_assert!(self.run.is_empty(), "a batch resolves before its first fan-out");
        let sender = net.known_host(sender);
        let class = |id| LinkClass::of(net, sender, host_of(id).and_then(|h| net.host_id(h)));
        self.classes.clear();
        self.classes.extend(self.ids.iter().map(|&id| class(id)));
        self.per_class.clear();
        self.per_class.resize(LinkClass::count(net), 0);
        self.run_arrival.clear();
        self.run_arrival.resize(LinkClass::count(net), SimTime::ZERO);
        self.receivers.clear();
        for (slot, &class) in self.classes.iter().enumerate() {
            self.per_class[class.index()] += 1;
            if class != LinkClass::SKIPPED {
                self.receivers.push(slot as SubSlot);
            }
        }
        self.resolved = Some((sender, revision));
    }

    /// Fan update number `update` of the batch out to `slots` (ascending):
    /// one transfer time per receiving class, every receiver's FIFO mark
    /// advanced and its list caught up with the everyone-run and extended.
    pub(crate) fn fan_out(
        &mut self,
        now: SimTime,
        update: u32,
        slots: &[SubSlot],
        bytes: u64,
        net: &Network,
        totals: &mut FanoutTotals,
    ) {
        let Self { resolved, classes, high_water, list, touched, lists, run, fanout, .. } = self;
        let (sender, _) = resolved.expect("classes are resolved before the first fan-out");
        let receivers = slots.iter().map(|&s| classes[s as usize]);
        let cost = fanout.deliver(net, sender, receivers, bytes, |i, wire| {
            let slot = slots[i] as usize;
            // Deliveries to any one subscriber stay FIFO in publish order
            // (TCP semantics): never earlier than anything already queued.
            high_water[slot] = (now + wire).max(high_water[slot]);
            if list[slot] == ListTable::EMPTY {
                touched.push(slots[i]);
            }
            let caught_up = lists.catch_up(list[slot], run);
            list[slot] = lists.extend(caught_up, update, false);
        });
        totals.record(&cost, bytes);
    }

    /// Fan update number `update` of the batch out to every slot: one
    /// transfer time per class with a slot, booked from the class
    /// counts. No slot is visited; the update joins the everyone-run, which
    /// [`DeliveryState::finish_batch`] hands to every receiver.
    pub(crate) fn fan_out_to_everyone(
        &mut self,
        now: SimTime,
        update: u32,
        bytes: u64,
        net: &Network,
        totals: &mut FanoutTotals,
    ) {
        let Self { resolved, per_class, run, run_arrival, fanout, .. } = self;
        let (sender, _) = resolved.expect("classes are resolved before the first fan-out");
        let cost = fanout.deliver_to_classes(net, sender, per_class, bytes, |class, wire| {
            let at = &mut run_arrival[class.index()];
            *at = (now + wire).max(*at);
        });
        run.push(update);
        totals.record(&cost, bytes);
    }

    /// Close the batch: every subscriber it reached is delivered to at the
    /// arrival of the last update it is owed; subscribers that share that
    /// instant share a wave, in subscriber id order. Waves come out in
    /// time order.
    ///
    /// With an everyone-run, every receiver's list catches up with it, and
    /// its arrival is its FIFO mark raised to its class's run arrival: a
    /// mark is a max, so taking the run's part last gives what booking
    /// each (slot, update) pair in order would. Without one, only the
    /// slots a scoped update reached are visited.
    pub(crate) fn finish_batch(&mut self, batch: &[Arc<StampedUpdate>]) -> Vec<Wave> {
        let Self {
            ids,
            classes,
            receivers,
            high_water,
            list,
            touched,
            lists,
            run,
            run_arrival,
            ..
        } = self;
        let mut waves: BTreeMap<SimTime, Vec<(RenderServiceId, UpdateList)>> = BTreeMap::new();
        let mut deliver = |lists: &mut ListTable, slot: SubSlot, at: SimTime, owed: u32| {
            let updates = lists.build(owed, batch);
            waves.entry(at).or_default().push((ids[slot as usize], updates));
        };
        if run.is_empty() {
            touched.sort_unstable();
            for &slot in touched.iter() {
                let s = slot as usize;
                let owed = std::mem::replace(&mut list[s], ListTable::EMPTY);
                deliver(lists, slot, high_water[s], owed);
            }
        } else {
            for &slot in receivers.iter() {
                let s = slot as usize;
                let at = high_water[s].max(run_arrival[classes[s].index()]);
                high_water[s] = at;
                let owed = std::mem::replace(&mut list[s], ListTable::EMPTY);
                let owed = lists.catch_up(owed, run);
                deliver(lists, slot, at, owed);
            }
            run.clear();
            run_arrival.fill(SimTime::ZERO);
        }
        touched.clear();
        lists.clear();
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
                a = t.extend(a, u, false);
                b = t.extend(b, u, false);
            }
            c = t.extend(c, u, false);
        }
        assert_eq!(a, b);
        assert_ne!(a, c);
        let (la, lb, lc) = (t.build(a, &batch), t.build(b, &batch), t.build(c, &batch));
        assert!(Arc::ptr_eq(&la, &lb), "one allocation for both");
        assert_eq!(la.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(lc.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(Arc::ptr_eq(&la[0], &batch[0]), "updates are shared, not copied");

        t.clear();
        let d = t.extend(ListTable::EMPTY, 1, false);
        assert_eq!(t.build(d, &batch).iter().map(|s| s.seq).collect::<Vec<_>>(), vec![2]);
    }

    /// A batch of everyone-updates and scoped ones, behind an earlier batch
    /// that left a large update on the wireless hop, planned against the
    /// per-pair booking: every (slot, update) pair in batch order, by host
    /// name. Then a batch with no everyone-update.
    #[test]
    fn a_mixed_batch_books_what_per_pair_booking_books() {
        let net = Network::paper_testbed(1.0);
        let rs = RenderServiceId;
        // Loopback, two on the LAN, the PDA on the wireless segment, and a
        // host off the network.
        let hosts = ["laptop", "desktop", "tower", "zaurus", "ghost"];
        let ids: Vec<RenderServiceId> = (1..=5).map(rs).collect();
        let host_of = |id: RenderServiceId| Some(hosts[id.0 as usize - 1]);
        let mut d = DeliveryState::default();
        d.renumber(ids.iter().copied());
        d.resolve_classes("laptop", &net, host_of);
        let mut totals = FanoutTotals::default();

        // Per-pair booking: FIFO marks by slot, and what each slot is owed.
        let mut marks = [SimTime::ZERO; 5];
        let mut book = |now: SimTime, bytes: u64, to: &[usize], owed: &mut [Vec<u64>], seq| {
            for &slot in to.iter().filter(|&&s| net.host_id(hosts[s]).is_some()) {
                let wire = now + net.transfer_time("laptop", hosts[slot], bytes);
                marks[slot] = marks[slot].max(wire);
                owed[slot].push(seq);
            }
        };
        let arrivals = |waves: &[Wave]| -> BTreeMap<RenderServiceId, (SimTime, Vec<u64>)> {
            let mut got = BTreeMap::new();
            for w in waves {
                for (id, list) in &w.deliveries {
                    got.insert(*id, (w.at, list.iter().map(|s| s.seq).collect()));
                }
            }
            got
        };

        // An earlier batch: 200 kB to the PDA and the desktop.
        let now = SimTime::from_secs(1.0);
        let earlier = vec![update(1)];
        let mut owed = vec![Vec::new(); 5];
        d.fan_out(now, 0, &[1, 3], 200_000, &net, &mut totals);
        book(now, 200_000, &[1, 3], &mut owed, 1);
        d.finish_batch(&earlier);

        // Everyone, scoped to 1 and 2, everyone, scoped to 2 and the ghost.
        let now = SimTime::from_secs(1.001);
        let batch: Vec<_> = (2..=5).map(update).collect();
        let mut owed = vec![Vec::new(); 5];
        let everyone = [0, 1, 2, 3, 4];
        d.fan_out_to_everyone(now, 0, 300, &net, &mut totals);
        book(now, 300, &everyone, &mut owed, 2);
        d.fan_out(now, 1, &[1, 2], 5_000, &net, &mut totals);
        book(now, 5_000, &[1, 2], &mut owed, 3);
        d.fan_out_to_everyone(now, 2, 900, &net, &mut totals);
        book(now, 900, &everyone, &mut owed, 4);
        d.fan_out(now, 3, &[2, 4], 40, &net, &mut totals);
        book(now, 40, &[2, 4], &mut owed, 5);
        let waves = d.finish_batch(&batch);

        let want: BTreeMap<_, _> =
            (0..4).map(|slot| (ids[slot], (marks[slot], owed[slot].clone()))).collect();
        assert_eq!(arrivals(&waves), want, "the ghost gets nothing");
        assert!(marks[3] > now + net.transfer_time("laptop", "zaurus", 900), "FIFO behind 200 kB");
        assert!(waves.windows(2).all(|w| w[0].at < w[1].at), "waves in time order");
        let list_of = |id| {
            let member = waves.iter().flat_map(|w| &w.deliveries).find(|(to, _)| *to == id);
            Arc::clone(&member.expect("delivered").1)
        };
        assert!(Arc::ptr_eq(&list_of(rs(1)), &list_of(rs(4))), "loopback and PDA share a list");
        assert!(!Arc::ptr_eq(&list_of(rs(2)), &list_of(rs(3))));
        // Two everyone-updates and one scoped pair skipped the ghost.
        assert_eq!(totals.skipped_receivers, 3);
        assert_eq!(totals.updates_routed, 5);
        // Earlier batch: two segments. Everyone: LAN + WLAN, twice. Scoped:
        // the LAN once, then the LAN again for the pair that was not skipped.
        assert_eq!(
            (totals.transmissions, totals.unicast_transmissions),
            (2 + 4 + 1 + 1, 2 + 6 + 3)
        );

        // No everyone-update: only the matched slot is visited.
        let later = vec![update(6)];
        let before = d.high_water.clone();
        d.fan_out(now, 0, &[2], 10, &net, &mut totals);
        assert_eq!(d.touched, vec![2]);
        let waves = d.finish_batch(&later);
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].deliveries.len(), 1);
        assert_eq!(waves[0].deliveries[0].0, rs(3));
        let untouched = |m: &[SimTime]| [0, 1, 3, 4].map(|s| m[s]);
        assert_eq!(untouched(&d.high_water), untouched(&before));
    }

    #[test]
    fn marks_follow_their_render_service_through_renumbering() {
        let rs = RenderServiceId;
        let t = SimTime::from_secs;
        let mut d = DeliveryState::default();
        d.renumber([rs(2), rs(5), rs(9)]);
        d.high_water.copy_from_slice(&[t(2.0), t(5.0), SimTime::ZERO]);
        // 5 leaves, 1 and 7 join: 2 moves from slot 0 to slot 1.
        d.renumber([rs(1), rs(2), rs(7), rs(9)]);
        assert_eq!(d.high_water, vec![SimTime::ZERO, t(2.0), SimTime::ZERO, SimTime::ZERO]);
        assert_eq!(d.list.len(), 4);
        // 5 comes back and finds its mark; 2 leaves and parks its own.
        d.renumber([rs(5), rs(9)]);
        assert_eq!(d.ids(), [rs(5), rs(9)]);
        assert_eq!(d.high_water, vec![t(5.0), SimTime::ZERO]);
        assert_eq!(d.parked.into_iter().collect::<Vec<_>>(), vec![(rs(2), t(2.0))]);
    }
}
