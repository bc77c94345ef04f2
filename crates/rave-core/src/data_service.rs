//! The data service (§3.1.1): "a persistent, central distribution point
//! for the data to be visualized".

use crate::delivery::{DeliveryState, Wave};
use crate::ids::{DataServiceId, RenderServiceId};
use crate::release_ledger::ReleaseLedger;
use rave_net::Network;
use rave_scene::{
    AuditTrail, EditClass, EditStamp, InterestIndex, InterestSet, Reach, SceneTree, SceneUpdate,
    StampedUpdate, SubSlot, UpdateError,
};
use rave_sim::SimTime;
use rave_store::{CompactionReport, FramedTail, Recovery, Store, StoreConfig};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The latest entries the audit trail keeps for callers reading back a
/// batch. It holds at most twice this.
pub(crate) const KEEP: usize = 1024;

/// What the checkpoint a commit came due for did: the sequence number it
/// covers, and which kind it wrote and what its compaction freed
/// ([`CompactionReport::kind`]) or why it failed.
pub type CheckpointOutcome = (u64, io::Result<CompactionReport>);

/// The store a data service appends to. A clone of the service is an
/// in-memory copy and is detached: it never writes the original's log.
#[derive(Debug, Default)]
struct AttachedStore(Option<Store>);

impl Clone for AttachedStore {
    fn clone(&self) -> Self {
        Self(None)
    }
}

/// Running totals of the delivery fan-out a data service has charged
/// through segment multicast, against the unicast baseline. The
/// collab-scale bench and EXPERIMENTS tables read these.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FanoutTotals {
    /// Updates routed to at least one subscriber, whether it was
    /// reached over the wire, over loopback or skipped.
    pub updates_routed: u64,
    /// Wire transmissions performed (one per receiving segment per
    /// update).
    pub transmissions: u64,
    /// Transmissions unicast would have performed (one per remote
    /// receiver per update).
    pub unicast_transmissions: u64,
    /// Bytes multicast put on the wire.
    pub wire_bytes: u64,
    /// Bytes unicast would have put on the wire.
    pub unicast_wire_bytes: u64,
    /// Receivers skipped because their render service is not in the world
    /// or its host is not on the network.
    pub skipped_receivers: u64,
}

impl FanoutTotals {
    /// Book one update of `bytes` fanned out at `cost`.
    pub fn record(&mut self, cost: &rave_net::FanoutCost, bytes: u64) {
        self.updates_routed += 1;
        self.transmissions += cost.transmissions as u64;
        self.unicast_transmissions += cost.unicast_transmissions as u64;
        self.wire_bytes += cost.transmissions as u64 * bytes;
        self.unicast_wire_bytes += cost.unicast_transmissions as u64 * bytes;
        self.skipped_receivers += cost.skipped as u64;
    }

    /// Multicast wire bytes as a fraction of the unicast baseline
    /// (1.0 when nothing was fanned out).
    pub fn wire_ratio(&self) -> f64 {
        if self.unicast_wire_bytes == 0 {
            return 1.0;
        }
        self.wire_bytes as f64 / self.unicast_wire_bytes as f64
    }
}

/// Running totals of the subtrees a data service has moved between render
/// services (§3.2.7), and of what its [`ReleaseLedger`] kept off the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveTotals {
    /// Subtrees sent to a new holder, first placements included.
    pub moves: u64,
    /// Records whose payload the receiver held, sent as a header.
    pub payloads_cached: u64,
    /// Bytes those records did not put on the wire: the full charge less
    /// the one made.
    pub payload_bytes_saved: u64,
}

/// A data service instance. Multiple sessions may be managed by the same
/// service process; each `DataService` here is one session's distribution
/// point (the paper's "Skull" instance on host "adrenochrome", say).
#[derive(Debug, Clone)]
pub struct DataService {
    pub id: DataServiceId,
    pub host: String,
    /// Session name shown in the registry ("Skull").
    pub name: String,
    /// The master scene.
    pub scene: SceneTree,
    /// The recent tail of the session's log (the store is the recording).
    pub audit: AuditTrail,
    next_seq: u64,
    /// Who is subscribed, with what interest. Only this module writes it;
    /// [`DataService::subscribers`] reads it.
    pub(crate) subscribers: BTreeMap<RenderServiceId, InterestSet>,
    /// Optional durable store: every committed update is appended to it,
    /// with periodic snapshot checkpoints.
    store: AttachedStore,
    /// The inverted interest index `route` consults. Lazily (re)built: a
    /// change of the subscribers sets `index_stale`, the next route
    /// rebuilds; structural scene edits since `index_seen` are read from
    /// the tree's edit journal and folded in instead, and a root moved
    /// between two subscribers ([`DataService::move_interest_root`]) is
    /// patched in on the spot.
    index: InterestIndex,
    index_seen: EditStamp,
    pub(crate) index_stale: bool,
    /// Counts index rebuilds, i.e. slot renumberings.
    index_generation: u64,
    /// Scratch for the routed slots of one update, reused across calls.
    route_slots: Vec<SubSlot>,
    /// What the publish path keeps per slot: its render service, how it is
    /// reached, its FIFO mark, the batch in flight. A parcel sent to a
    /// subscriber raises its mark too ([`DataService::hold_stream`]).
    delivery: DeliveryState,
    /// Multicast-vs-unicast delivery accounting, fed by the world's
    /// publish path.
    pub fanout: FanoutTotals,
    /// Which subscribers cache the payload of a node they released; the
    /// migration path reads and books it per move.
    pub(crate) ledger: ReleaseLedger,
    /// What the moves cost and what the ledger saved, fed by the
    /// migration path.
    pub moves: MoveTotals,
}

impl DataService {
    pub fn new(id: DataServiceId, host: &str, name: &str) -> Self {
        Self {
            id,
            host: host.into(),
            name: name.into(),
            scene: SceneTree::new(),
            audit: AuditTrail::new(),
            next_seq: 1,
            subscribers: BTreeMap::new(),
            store: AttachedStore::default(),
            index: InterestIndex::new(),
            index_seen: EditStamp::default(),
            index_stale: true,
            index_generation: 0,
            route_slots: Vec::new(),
            delivery: DeliveryState::default(),
            fanout: FanoutTotals::default(),
            ledger: ReleaseLedger::default(),
            moves: MoveTotals::default(),
        }
    }

    /// Open (or create) a [`rave_store::Store`] at `dir` and attach it:
    /// every subsequent commit is appended to it, and checkpoints are
    /// taken on its cadence — deltas read from the master's edit journal,
    /// which every commit keeps recording, so they never wait for another
    /// reader to start it.
    pub fn attach_store(&mut self, dir: impl AsRef<Path>, cfg: StoreConfig) -> io::Result<()> {
        self.set_store(Store::open(dir.as_ref(), cfg)?);
        Ok(())
    }

    /// Attach a store already open: a promoted standby takes the one its
    /// replication link wrote the primary's frames to.
    pub(crate) fn set_store(&mut self, store: Store) {
        self.store.0 = Some(store);
    }

    /// The attached store, if any: failover reads its directory and its
    /// config from here without asking the (dead) service.
    pub fn store(&self) -> Option<&Store> {
        self.store.0.as_ref()
    }

    /// Flush the attached store (if any) to stable storage.
    pub fn sync_persistence(&mut self) -> io::Result<()> {
        self.store.0.as_mut().map_or(Ok(()), Store::sync)
    }

    /// The attached store's directory and the records its WAL keeps for a
    /// log-shipping standby until a frame carries them (see
    /// [`Store::ship_source`]); `None` without a store.
    pub fn ship_source(&mut self) -> Option<(&Path, &mut [FramedTail])> {
        self.store.0.as_mut().map(Store::ship_source)
    }

    /// Keep the store's compaction behind a log-shipping standby (see
    /// [`Store::set_retention_floor`]).
    pub fn set_retention_floor(&mut self, acked_seq: Option<u64>) {
        if let Some(store) = &mut self.store.0 {
            store.set_retention_floor(acked_seq);
        }
    }

    /// Bring the master up to a recovered store prefix (the latest
    /// snapshot plus the write-ahead-log tail past it) when the prefix is
    /// ahead of it: its scene and sequence, and an empty trail that
    /// continues after it — the history is in the store. A standby whose
    /// link is re-established over a prefix it already holds keeps its own.
    pub fn seed_from(&mut self, rec: &Recovery) {
        if rec.last_seq > self.audit.last_seq() {
            self.scene = rec.tree.clone();
            self.next_seq = self.next_seq.max(rec.last_seq + 1);
            self.audit = AuditTrail::after(rec.last_seq);
        }
    }

    /// Assign the next global sequence number to an update.
    pub fn stamp(&mut self, origin: &str, update: SceneUpdate) -> StampedUpdate {
        let seq = self.next_seq;
        self.next_seq += 1;
        StampedUpdate { seq, origin: origin.into(), update }
    }

    /// Apply a stamped update to the master scene and the audit trail,
    /// and append it to the attached store. Also advances the sequence
    /// counter past the committed number, so a standby that commits a
    /// primary's shipped log can take over stamping seamlessly after
    /// failover, and every `KEEP` entries releases all of the trail but
    /// its last `KEEP`.
    /// Returns the checkpoint the append made due, if one was: an update
    /// the log holds is committed whether or not its checkpoint succeeds,
    /// and the store keeps one due until a snapshot is written.
    pub fn commit(
        &mut self,
        at_secs: f64,
        stamped: &StampedUpdate,
    ) -> Result<Option<CheckpointOutcome>, UpdateError> {
        stamped.update.apply(&mut self.scene)?;
        self.audit.record(at_secs, stamped.clone())?;
        self.next_seq = self.next_seq.max(stamped.seq + 1);
        let held = self.audit.entries();
        if held.len().is_multiple_of(KEEP) && held.len() > KEEP {
            self.audit.release_through(held[held.len() - KEEP - 1].stamped.seq);
        }
        let Some(store) = &mut self.store.0 else { return Ok(None) };
        // A master assigned over (seeded, promoted) starts unrecorded.
        self.scene.record_edits();
        let recorded = self.audit.entries().last().expect("just recorded");
        store.append(recorded).map_err(|e| UpdateError::Persistence(e.to_string()))?;
        let due = store.checkpoint_due();
        Ok(due.then(|| (store.last_seq(), store.checkpoint(&self.scene, at_secs))))
    }

    /// Subscribe `rs` with `interest`: every update published from now on
    /// is routed to it by its interest. A replica not seeded already (a
    /// local active client is) is sent a snapshot parcel cut now, which
    /// those updates land behind
    /// ([`crate::bootstrap::connect_render_service`]).
    pub fn subscribe_live(&mut self, rs: RenderServiceId, interest: InterestSet) {
        self.subscribers.insert(rs, interest);
        self.index_stale = true;
    }

    /// A parcel to `rs` that crosses the wire by `arrival` was sent: it is
    /// a message on `rs`'s stream, landing behind the updates already on it
    /// (their effects are in it), and every update routed to `rs` from now
    /// on lands behind it (§5.5: "We overlap update messages with the
    /// initial bootstrap messages, so the remote resource does not miss any
    /// updates"). Returns when it lands. Booked as the parcel is sent, so
    /// its arrival event comes before a delivery that lands with it.
    pub(crate) fn hold_stream(&mut self, rs: RenderServiceId, arrival: SimTime) -> SimTime {
        self.delivery.hold(rs, arrival)
    }

    pub fn unsubscribe(&mut self, rs: RenderServiceId) -> bool {
        let removed = self.subscribers.remove(&rs).is_some();
        if removed {
            self.index_stale = true;
            self.ledger.forget(rs);
        }
        removed
    }

    /// How often the interest index was rebuilt and its slots renumbered.
    /// Subscription changes do that; scene edits and migrations must not.
    pub fn index_generation(&self) -> u64 {
        self.index_generation
    }

    /// Ids of every current subscriber, in stable (id) order.
    pub fn subscriber_ids(&self) -> Vec<RenderServiceId> {
        self.subscribers.keys().copied().collect()
    }

    /// Every current subscriber's interest, by render service.
    pub fn subscribers(&self) -> &BTreeMap<RenderServiceId, InterestSet> {
        &self.subscribers
    }

    /// Bring the inverted index in sync with the subscribers and the
    /// scene: a full rebuild if subscriptions changed, otherwise an
    /// incremental repair from the structural edits the tree has
    /// journalled since the index last saw it.
    fn ensure_index(&mut self) {
        let seen = std::mem::replace(&mut self.index_seen, self.scene.edit_stamp());
        if self.index_stale {
            self.delivery.renumber(self.subscribers.keys().copied());
            self.index_generation += 1;
            self.index.rebuild(&self.scene, self.subscribers.values());
            self.index_stale = false;
        } else {
            let dirt = self.scene.changes_since(seen, &[EditClass::Structure]);
            self.index.repair(&self.scene, &dirt);
        }
    }

    /// Route an update against the master as it stands: every subscriber
    /// ([`Reach::Everyone`], nobody listed), or the slots of the
    /// subscribers it must be delivered to, ascending, in `out`.
    fn route_into(&mut self, stamped: &StampedUpdate, out: &mut Vec<SubSlot>) -> Reach {
        self.ensure_index();
        self.index.matches(&stamped.update, &self.scene, out)
    }

    /// Route an update against the master as it stands: the subscribers it
    /// must be delivered to, O(depth + matches) through the
    /// inverted interest index ([`DataService::route_naive`] is its parity
    /// oracle). The publish path routes each update just before its commit;
    /// after it, a removal's target is unknown and reaches everyone.
    pub fn route(&mut self, stamped: &StampedUpdate) -> Vec<RenderServiceId> {
        let mut slots = std::mem::take(&mut self.route_slots);
        let reach = self.route_into(stamped, &mut slots);
        let ids = self.delivery.ids();
        let routed = match reach {
            Reach::Everyone => ids.to_vec(),
            Reach::Slots => slots.iter().map(|&slot| ids[slot as usize]).collect(),
        };
        self.route_slots = slots;
        routed
    }

    /// Publish update number `update` of a batch in flight: route it
    /// against the master just before its own commit (a removal reaches the
    /// holders of its target), commit it, and only if that succeeded book
    /// its segment-multicast fan-out from this service's host, each
    /// receiver FIFO behind what it is owed; an everyone-update is booked
    /// per link class. `host_of` names a render service's host, `None` for
    /// one not in the world. [`DataService::finish_batch`] closes the batch.
    pub(crate) fn publish<'a>(
        &mut self,
        now: SimTime,
        update: u32,
        stamped: &StampedUpdate,
        net: &Network,
        host_of: impl Fn(RenderServiceId) -> Option<&'a str>,
    ) -> Result<Option<CheckpointOutcome>, UpdateError> {
        let mut slots = std::mem::take(&mut self.route_slots);
        let reach = self.route_into(stamped, &mut slots);
        let committed = self.commit(now.as_secs(), stamped);
        let reaches_anyone = match reach {
            Reach::Everyone => !self.delivery.ids().is_empty(),
            Reach::Slots => !slots.is_empty(),
        };
        if committed.is_ok() && reaches_anyone {
            // A structural update earlier in the batch repairs the index
            // without renumbering it, so this resolves at most once a batch.
            self.delivery.resolve_classes(&self.host, net, &host_of);
            let (bytes, totals) = (stamped.wire_size(), &mut self.fanout);
            match reach {
                Reach::Everyone => {
                    self.delivery.fan_out_to_everyone(now, update, bytes, net, totals)
                }
                Reach::Slots => self.delivery.fan_out(now, update, &slots, bytes, net, totals),
            }
        }
        self.route_slots = slots;
        committed
    }

    /// Close the batch [`DataService::publish`] fanned out, whose committed
    /// updates are `batch`: one [`Wave`] per instant it lands at, holding
    /// every subscriber it reaches then in subscriber id order.
    pub(crate) fn finish_batch(&mut self, batch: &[Arc<StampedUpdate>]) -> Vec<Wave> {
        self.delivery.finish_batch(batch)
    }

    /// The pre-index routing decision, kept as the embedded parity oracle
    /// for the inverted index: one `InterestSet::relevant` probe per
    /// subscriber, answered off the scene as it stands. Returns every
    /// interested subscriber, in id order.
    pub fn route_naive(&self, stamped: &StampedUpdate) -> Vec<RenderServiceId> {
        self.subscribers
            .iter()
            .filter(|(_, interest)| interest.relevant(&stamped.update, &self.scene))
            .map(|(rs, _)| *rs)
            .collect()
    }

    /// A migration's effect on who is owed what: `node` joins `to`'s
    /// interest roots and leaves those of the subscriber that lists it —
    /// `from` when it does, else any other but a full replica, which holds
    /// everything and gives nothing up (who holds a node is what the
    /// subscriptions say; `from` is where the caller last put it). Either
    /// side may be absent: a first placement, a dropped workload, a holder
    /// no longer subscribed. Returns the subscriber the node left. The
    /// interest index is edited in place, at the cost of the root's chain
    /// (and, when `from` does not list the node, one probe per
    /// subscriber): the next publish rebuilds nothing and renumbers nobody.
    pub fn move_interest_root(
        &mut self,
        node: rave_scene::NodeId,
        from: Option<RenderServiceId>,
        to: Option<RenderServiceId>,
    ) -> Option<RenderServiceId> {
        // `to` first: a root that changes hands never leaves the index.
        if let Some((rs, interest)) = to.and_then(|rs| Some((rs, self.subscribers.get_mut(&rs)?))) {
            if interest.add_root(node) {
                if let Some(slot) = self.index_slot(rs) {
                    self.index.add_root(&self.scene, slot, node);
                }
            }
        }
        let listed = |(rs, interest): (RenderServiceId, &mut InterestSet)| {
            (Some(rs) != to && interest.remove_root(node)).then_some(rs)
        };
        let asked = from.and_then(|rs| Some((rs, self.subscribers.get_mut(&rs)?)));
        let left = asked.and_then(listed).or_else(|| {
            let partial = self.subscribers.iter_mut().filter(|s| !s.1.is_everything());
            partial.map(|(rs, interest)| (*rs, interest)).find_map(listed)
        })?;
        if let Some(slot) = self.index_slot(left) {
            self.index.remove_root(slot, node);
        }
        Some(left)
    }

    /// Subscriber `rs`'s slot in the index as built; `None` when a rebuild
    /// is already due and there is nothing to patch.
    fn index_slot(&self, rs: RenderServiceId) -> Option<SubSlot> {
        let slot = || self.delivery.ids().binary_search(&rs).expect("a subscriber has a slot");
        (!self.index_stale).then(|| slot() as SubSlot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::{Dirt, MeshData, NodeId, NodeKind};

    const LEFT_SUB: RenderServiceId = RenderServiceId(1);
    const RIGHT_SUB: RenderServiceId = RenderServiceId(2);

    /// Root → `left`, `right` → `node` (a mesh); one subscriber per
    /// subtree, and the index built by routing once. Returns `left` and
    /// `node`.
    fn routed_two_subtrees() -> (DataService, NodeId, NodeId) {
        use rave_math::Vec3;
        let mut ds = DataService::new(DataServiceId(1), "h", "s");
        let root = ds.scene.root();
        let left = ds.scene.add_node(root, "left", NodeKind::Group).unwrap();
        let right = ds.scene.add_node(root, "right", NodeKind::Group).unwrap();
        let mesh = MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]);
        let node = ds.scene.add_node(right, "node", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        ds.subscribe_live(LEFT_SUB, InterestSet::subtrees([left]));
        ds.subscribe_live(RIGHT_SUB, InterestSet::subtrees([right]));
        let u = ds.stamp("t", SceneUpdate::SetName { id: node, name: "n".into() });
        assert_eq!(ds.route(&Arc::new(u)), vec![RIGHT_SUB]);
        (ds, left, node)
    }

    /// `node` now hangs under `left`: a rename of it must be routed as the
    /// naive scan routes it, to `left`'s subscriber.
    fn assert_routed_to_the_left(ds: &mut DataService, node: NodeId) {
        let u = Arc::new(ds.stamp("t", SceneUpdate::SetName { id: node, name: "moved".into() }));
        assert_eq!(ds.route_naive(&u), vec![LEFT_SUB]);
        assert_eq!(ds.route(&u), vec![LEFT_SUB]);
    }

    #[test]
    fn a_second_structure_reader_does_not_starve_the_index() {
        let (mut ds, left, node) = routed_two_subtrees();
        let structure = [EditClass::Structure];
        assert_eq!(ds.scene.changes_since(EditStamp::default(), &structure), Dirt::Everything);
        let outside = ds.scene.edit_stamp();
        ds.scene.reparent(node, left).unwrap();
        assert_eq!(ds.scene.changes_since(outside, &structure), Dirt::Nodes(vec![node]));
        assert_routed_to_the_left(&mut ds, node);
    }

    /// A tree assigned over `ds.scene` is another tree, whoever read it
    /// before: the index repairs every chain and a plan state that
    /// followed the old tree rebuilds.
    #[test]
    fn a_tree_moved_over_the_scene_is_read_from_scratch() {
        use crate::capacity::Headroom;
        use crate::distribution::plan_incremental;
        use crate::sched::PlanState;
        let (mut ds, left, node) = routed_two_subtrees();
        let caps: Vec<_> = [LEFT_SUB, RIGHT_SUB]
            .map(|rs| (rs, Headroom { polygons: 1, texture_bytes: u64::MAX }))
            .into();
        let mut state = PlanState::new();
        plan_incremental(&mut ds.scene, &caps, &mut state, 0.0).unwrap();

        let mut other = ds.scene.clone();
        let all = [EditClass::Structure, EditClass::Payload];
        assert_eq!(other.changes_since(EditStamp::default(), &all), Dirt::Everything);
        let outside = other.edit_stamp();
        other.reparent(node, left).unwrap();
        let kind = other.node(node).unwrap().kind().clone();
        let extra = other.add_node(left, "extra", kind).unwrap();
        assert_eq!(other.changes_since(outside, &all), Dirt::Nodes(vec![node, extra]));
        ds.scene = other;

        assert_routed_to_the_left(&mut ds, node);
        plan_incremental(&mut ds.scene, &caps, &mut state, 0.0).unwrap();
        let mut cold = PlanState::new();
        plan_incremental(&mut ds.scene.clone(), &caps, &mut cold, 0.0).unwrap();
        assert_eq!(state.assignments(), cold.assignments());
        assert_eq!(state.len(), 2, "`node` and `extra`, one service each");
    }

    /// A move takes the root from the subscriber that lists it, whatever
    /// the caller remembered — but not from a full replica.
    #[test]
    fn a_move_takes_the_root_from_whoever_lists_it() {
        const FULL: RenderServiceId = RenderServiceId(3);
        let (mut ds, _, node) = routed_two_subtrees();
        let right = ds.scene.node(node).unwrap().parent().unwrap();
        assert_eq!(ds.move_interest_root(right, None, Some(LEFT_SUB)), Some(RIGHT_SUB));
        ds.subscribe_live(FULL, InterestSet::everything());
        assert_eq!(ds.move_interest_root(right, Some(LEFT_SUB), Some(FULL)), Some(LEFT_SUB));
        assert_eq!(ds.move_interest_root(right, None, Some(RIGHT_SUB)), None);
        assert!(ds.subscribers[&FULL].roots().any(|r| r == right));
        let u = Arc::new(ds.stamp("t", SceneUpdate::SetName { id: node, name: "n".into() }));
        assert_eq!(ds.route(&u), ds.route_naive(&u));
        assert_eq!(ds.route(&u), vec![RIGHT_SUB, FULL]);
    }

    /// Root → `left` → `lleaf`, and `right` → `node` → `deep`; a subscriber
    /// per branch, a full replica, and one holding `node` (to which `right`
    /// is orientation only). The service runs on `laptop` of the paper
    /// testbed.
    struct Branches {
        ds: DataService,
        left: NodeId,
        lleaf: NodeId,
        right: NodeId,
        node: NodeId,
        deep: NodeId,
    }

    const FULL_SUB: RenderServiceId = RenderServiceId(3);
    const NODE_SUB: RenderServiceId = RenderServiceId(4);

    fn branches() -> Branches {
        let mut ds = DataService::new(DataServiceId(1), "laptop", "s");
        let group = |ds: &mut DataService, parent, name: &str| {
            ds.scene.add_node(parent, name, NodeKind::Group).unwrap()
        };
        let left = group(&mut ds, NodeId(0), "left");
        let lleaf = group(&mut ds, left, "lleaf");
        let right = group(&mut ds, NodeId(0), "right");
        let node = group(&mut ds, right, "node");
        let deep = group(&mut ds, node, "deep");
        ds.subscribe_live(LEFT_SUB, InterestSet::subtrees([left]));
        ds.subscribe_live(RIGHT_SUB, InterestSet::subtrees([right]));
        ds.subscribe_live(FULL_SUB, InterestSet::everything());
        ds.subscribe_live(NODE_SUB, InterestSet::subtrees([node]));
        Branches { ds, left, lleaf, right, node, deep }
    }

    /// Publish `updates` as one batch the way `publish_batch` does, every
    /// subscriber on `desktop`: the subscribers each committed update
    /// reached, by batch index, and the commit error that stopped the
    /// batch. Each update reaches what `route_naive` answers just before
    /// its commit.
    fn publish(
        ds: &mut DataService,
        updates: Vec<SceneUpdate>,
    ) -> (Vec<Vec<RenderServiceId>>, Option<UpdateError>) {
        let net = Network::paper_testbed(1.0);
        let (mut batch, mut naive, mut failure) = (Vec::new(), Vec::new(), None);
        for update in updates {
            let stamped = ds.stamp("t", update);
            let before = ds.route_naive(&stamped);
            match ds.publish(SimTime::ZERO, batch.len() as u32, &stamped, &net, |_| Some("desktop"))
            {
                Ok(_) => batch.push(Arc::new(stamped)),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            naive.push(before);
        }
        let mut reached = vec![Vec::new(); batch.len()];
        for wave in ds.finish_batch(&batch) {
            for (rs, list) in wave.deliveries {
                for s in list.iter() {
                    reached[batch.iter().position(|b| b.seq == s.seq).unwrap()].push(rs);
                }
            }
        }
        reached.iter_mut().for_each(|to| to.sort());
        assert_eq!(reached, naive, "the live path routes as the scan before each commit");
        (reached, failure)
    }

    #[test]
    fn a_removal_reaches_exactly_the_holders_of_its_target() {
        let Branches { mut ds, lleaf, deep, .. } = branches();
        let (reached, _) = publish(&mut ds, vec![SceneUpdate::RemoveNode { id: deep }]);
        assert_eq!(reached, [vec![RIGHT_SUB, FULL_SUB, NODE_SUB]]);
        let (reached, _) = publish(&mut ds, vec![SceneUpdate::RemoveNode { id: lleaf }]);
        assert_eq!(reached, [vec![LEFT_SUB, FULL_SUB]]);
        assert_eq!(ds.fanout.unicast_transmissions, 3 + 2, "one per holder");
    }

    /// A subscriber's root goes, itself or with the group that oriented it.
    #[test]
    fn the_removal_of_a_subscribers_root_reaches_that_subscriber() {
        let Branches { mut ds, left, right, node, .. } = branches();
        let mut other = ds.clone();
        let (reached, _) = publish(&mut ds, vec![SceneUpdate::RemoveNode { id: node }]);
        assert_eq!(reached, [vec![RIGHT_SUB, FULL_SUB, NODE_SUB]]);
        let (reached, _) = publish(&mut other, vec![SceneUpdate::RemoveNode { id: right }]);
        assert_eq!(reached, [vec![RIGHT_SUB, FULL_SUB, NODE_SUB]]);
        let (reached, _) = publish(&mut ds, vec![SceneUpdate::RemoveNode { id: left }]);
        assert_eq!(reached, [vec![LEFT_SUB, FULL_SUB]]);
    }

    /// Judged by the tree before the removal, not after it, when the
    /// target would be unknown and reach everyone.
    #[test]
    fn an_update_earlier_in_the_batch_than_its_targets_removal_reaches_only_the_holders() {
        let Branches { mut ds, deep, .. } = branches();
        let transform = rave_scene::Transform::IDENTITY;
        let (reached, _) = publish(
            &mut ds,
            vec![
                SceneUpdate::SetTransform { id: deep, transform },
                SceneUpdate::SetName { id: deep, name: "going".into() },
                SceneUpdate::RemoveNode { id: deep },
            ],
        );
        assert_eq!(reached, vec![vec![RIGHT_SUB, FULL_SUB, NODE_SUB]; 3]);
        let after = ds.stamp("t", SceneUpdate::SetName { id: deep, name: "gone".into() });
        assert_eq!(ds.route(&after).len(), 4, "after the commit: unknown, everyone");
    }

    #[test]
    fn an_add_under_an_orientation_only_parent_does_not_reach_that_subscriber() {
        let Branches { mut ds, right, .. } = branches();
        let add = |ds: &mut DataService, parent| SceneUpdate::AddNode {
            id: ds.scene.allocate_id(),
            parent,
            name: "new".into(),
            kind: NodeKind::Group,
        };
        let under_right = add(&mut ds, right);
        let under_root = add(&mut ds, NodeId(0));
        let (reached, _) = publish(&mut ds, vec![under_right, under_root]);
        assert_eq!(reached, [vec![RIGHT_SUB, FULL_SUB], vec![FULL_SUB]]);
    }

    #[test]
    fn an_add_whose_id_a_subscriber_already_lists_reaches_it() {
        const PENDING_SUB: RenderServiceId = RenderServiceId(5);
        let Branches { mut ds, lleaf, .. } = branches();
        let id = ds.scene.allocate_id();
        ds.subscribe_live(PENDING_SUB, InterestSet::subtrees([id]));
        let kind = NodeKind::Group;
        let add = SceneUpdate::AddNode { id, parent: lleaf, name: "n".into(), kind };
        let (reached, _) = publish(&mut ds, vec![add]);
        assert_eq!(reached, [vec![LEFT_SUB, FULL_SUB, PENDING_SUB]]);
    }

    /// The failed update and the rest of the batch book nothing: the
    /// totals are those of the committed prefix alone.
    #[test]
    fn a_commit_that_fails_mid_batch_books_no_fanout_totals() {
        let Branches { mut ds, lleaf, deep, .. } = branches();
        let mut prefix_only = ds.clone();
        let rename = SceneUpdate::SetName { id: lleaf, name: "kept".into() };
        let (reached, failure) = publish(
            &mut ds,
            vec![
                rename.clone(),
                SceneUpdate::RemoveNode { id: NodeId(999) },
                SceneUpdate::SetName { id: deep, name: "dropped".into() },
            ],
        );
        assert!(matches!(failure, Some(UpdateError::Tree(_))), "{failure:?}");
        assert_eq!(reached, [vec![LEFT_SUB, FULL_SUB]]);
        publish(&mut prefix_only, vec![rename]);
        assert_eq!(ds.fanout, prefix_only.fanout);
        assert_eq!(ds.fanout.updates_routed, 1);
    }

    fn add_update(ds: &mut DataService, name: &str) -> StampedUpdate {
        let id = ds.scene.allocate_id();
        ds.stamp(
            "test",
            SceneUpdate::AddNode {
                id,
                parent: ds.scene.root(),
                name: name.into(),
                kind: NodeKind::Group,
            },
        )
    }

    #[test]
    fn stamp_sequences_monotonically() {
        let mut ds = DataService::new(DataServiceId(1), "adrenochrome", "Skull");
        let a = add_update(&mut ds, "a");
        let b = add_update(&mut ds, "b");
        assert!(b.seq > a.seq);
    }

    #[test]
    fn commit_applies_and_records() {
        let mut ds = DataService::new(DataServiceId(1), "h", "s");
        let u = add_update(&mut ds, "node");
        ds.commit(0.5, &u).unwrap();
        assert!(ds.scene.find_by_path("/node").is_some());
        assert_eq!(ds.audit.len(), 1);
    }

    /// A subscriber is routed to from the moment it subscribes. One sent
    /// a parcel is sent the update behind it; the other is not held up.
    #[test]
    fn route_delivers_to_every_subscriber_and_a_parcel_holds_its_stream() {
        let (joined, joining) = (RenderServiceId(1), RenderServiceId(2));
        let mut ds = DataService::new(DataServiceId(1), "laptop", "s");
        let before = add_update(&mut ds, "before");
        ds.commit(0.0, &before).unwrap();
        ds.subscribe_live(joined, InterestSet::everything());
        ds.subscribe_live(joining, InterestSet::everything());
        let parcel = SimTime::from_secs(5.0);
        ds.hold_stream(joining, parcel);
        let u = add_update(&mut ds, "x");
        assert_eq!(ds.route(&u), vec![joined, joining]);
        let net = Network::paper_testbed(1.0);
        ds.publish(SimTime::ZERO, 0, &u, &net, |_| Some("desktop")).unwrap();
        let waves = ds.finish_batch(&[Arc::new(u)]);
        let landed: Vec<(SimTime, RenderServiceId)> =
            waves.iter().flat_map(|w| w.deliveries.iter().map(|d| (w.at, d.0))).collect();
        assert_eq!(landed.len(), 2);
        assert!(landed[0].0 < parcel && landed[0].1 == joined, "{landed:?}");
        assert_eq!(landed[1], (parcel, joining), "the update waits behind the parcel");
    }

    #[test]
    fn route_respects_interest_sets() {
        let mut ds = DataService::new(DataServiceId(1), "h", "s");
        // Build two subtrees in the master scene.
        let left = ds.scene.add_node(ds.scene.root(), "left", NodeKind::Group).unwrap();
        let right = ds.scene.add_node(ds.scene.root(), "right", NodeKind::Group).unwrap();
        ds.subscribe_live(RenderServiceId(1), InterestSet::subtrees([left]));
        ds.subscribe_live(RenderServiceId(2), InterestSet::subtrees([right]));
        let u = ds.stamp("t", SceneUpdate::SetName { id: left, name: "renamed".into() });
        ds.commit(0.0, &u).unwrap();
        assert_eq!(ds.route_naive(&u), vec![RenderServiceId(1)], "oracle agrees");
        assert_eq!(ds.route(&Arc::new(u)), vec![RenderServiceId(1)]);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut ds = DataService::new(DataServiceId(1), "h", "s");
        ds.subscribe_live(RenderServiceId(1), InterestSet::everything());
        assert!(ds.unsubscribe(RenderServiceId(1)));
        assert!(!ds.unsubscribe(RenderServiceId(1)));
        let u = add_update(&mut ds, "x");
        ds.commit(0.0, &u).unwrap();
        assert!(ds.route(&Arc::new(u)).is_empty());
    }

    /// §3.1.1's asynchronous collaboration: user A records a session into
    /// a store; user B plays it back later into a fresh service, appends
    /// new work to the same recording, and a later playback holds both.
    #[test]
    fn asynchronous_collaboration_appends_to_a_recording() {
        let dir = std::env::temp_dir().join(format!("rave-ds-async-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = DataService::new(DataServiceId(1), "h", "s");
        a.attach_store(&dir, StoreConfig::default()).unwrap();
        for name in ["g", "h"] {
            let u = add_update(&mut a, name);
            a.commit(0.0, &u).unwrap();
        }
        let g = a.scene.find_by_path("/g").unwrap();
        let u = a.stamp("a", SceneUpdate::RemoveNode { id: g });
        a.commit(1.0, &u).unwrap();
        a.sync_persistence().unwrap();
        drop(a);

        let mut b = DataService::new(DataServiceId(2), "h", "s");
        b.seed_from(&rave_store::recover(&dir).unwrap());
        assert_eq!(b.audit.last_seq(), 3);
        b.attach_store(&dir, StoreConfig::default()).unwrap();
        let u = add_update(&mut b, "appended");
        assert_eq!(u.seq, 4, "the recording's numbering continues");
        b.commit(10.0, &u).unwrap();
        b.sync_persistence().unwrap();

        let replayed = rave_store::recover(&dir).unwrap();
        assert_eq!(replayed.last_seq, 4);
        assert!(replayed.tree.find_by_path("/appended").is_some());
        assert!(replayed.tree.find_by_path("/h").is_some());
        assert!(replayed.tree.find_by_path("/g").is_none(), "earlier removal still honoured");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A clone is an in-memory copy: it commits without writing a byte to
    /// the store its original appends to.
    #[test]
    fn a_clone_commits_without_touching_the_store() {
        let dir = std::env::temp_dir().join(format!("rave-ds-clone-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ds = DataService::new(DataServiceId(1), "h", "s");
        ds.attach_store(&dir, StoreConfig { checkpoint_every: 2, ..Default::default() }).unwrap();
        // Every file's name and bytes: a record written over the segment's
        // fill leaves its size as it was.
        let bytes = || -> Vec<(std::ffi::OsString, Vec<u8>)> {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|f| f.unwrap().path())
                .map(|p| (p.file_name().unwrap().to_owned(), std::fs::read(p).unwrap()))
                .collect();
            files.sort();
            files
        };
        let before = bytes();
        let mut copy = ds.clone();
        for name in ["a", "b", "c"] {
            let u = add_update(&mut copy, name);
            copy.commit(0.0, &u).unwrap();
        }
        assert!(bytes() == before, "the clone wrote to the store");
        let u = add_update(&mut ds, "a");
        ds.commit(0.0, &u).unwrap();
        assert!(bytes() != before, "the original still logs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A session keeps a bounded tail: never
    /// more than `2 × KEEP` entries, the latest ones, and `last_seq` is the
    /// last committed seq whatever was released.
    #[test]
    fn the_trail_holds_a_bounded_tail() {
        let mut ds = DataService::new(DataServiceId(1), "h", "s");
        let node = ds.scene.add_node(ds.scene.root(), "n", NodeKind::Group).unwrap();
        ds.subscribe_live(RenderServiceId(1), InterestSet::everything());
        for i in 0..4 * KEEP + 7 {
            let u = ds.stamp("t", SceneUpdate::SetName { id: node, name: format!("n{i}") });
            ds.commit(0.0, &u).unwrap();
            assert_eq!(ds.audit.last_seq(), u.seq);
            assert!(ds.audit.len() <= 2 * KEEP, "{} entries held", ds.audit.len());
        }
        let held: Vec<u64> = ds.audit.entries().iter().map(|e| e.stamped.seq).collect();
        let last = ds.audit.last_seq();
        assert!(held.len() >= KEEP);
        assert!(held.iter().copied().eq(last + 1 - held.len() as u64..=last), "contiguous tail");
    }

    /// A hold raises a numbered subscriber's mark and never lowers it: a
    /// parcel lands behind what its stream holds. One on a service not
    /// numbered yet waits parked, and the service finds it when it
    /// subscribes.
    #[test]
    fn a_hold_follows_its_render_service_into_the_numbering() {
        let (numbered, later) = (RenderServiceId(1), RenderServiceId(9));
        let t = SimTime::from_secs;
        let mut ds = DataService::new(DataServiceId(1), "h", "s");
        ds.subscribe_live(numbered, InterestSet::everything());
        let u = add_update(&mut ds, "x");
        assert_eq!(ds.route(&u), [numbered]);
        assert_eq!(ds.hold_stream(numbered, t(3.0)), t(3.0));
        assert_eq!(ds.hold_stream(numbered, t(2.0)), t(3.0), "behind the first");
        assert_eq!(ds.hold_stream(later, t(4.0)), t(4.0));
        ds.subscribe_live(later, InterestSet::everything());
        assert_eq!(ds.route(&u), [numbered, later]);
        assert_eq!(ds.hold_stream(later, t(1.0)), t(4.0), "the parked mark came along");
    }
}
