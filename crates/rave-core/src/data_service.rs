//! The data service (§3.1.1): "a persistent, central distribution point
//! for the data to be visualized".

use crate::delivery::{DeliveryState, Wave};
use crate::ids::{DataServiceId, RenderServiceId};
use crate::release_ledger::ReleaseLedger;
use rave_net::Network;
use rave_scene::{
    AuditEntry, AuditTrail, EditClass, EditStamp, InterestIndex, InterestSet, Reach, SceneTree,
    SceneUpdate, StampedUpdate, SubSlot, UpdateError,
};
use rave_sim::SimTime;
use rave_store::{CompactionReport, Recovery, Store, StoreConfig};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The name `benchmark/` recovers a store directory by: it leaves with
/// that yardstick's refresh (ROADMAP "Unlocked deletions"), as
/// [`DataService::refresh_interests`] does.
#[derive(Debug)]
pub struct StorePersistence;

impl StorePersistence {
    /// [`rave_store::recover()`]: the latest snapshot plus the WAL tail past it.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<Recovery> {
        rave_store::recover(dir.as_ref())
    }
}

/// The latest entries the audit trail keeps for callers reading back a
/// batch. It holds at most twice this, plus what a bootstrap still needs.
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

/// A subscriber's delivery state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubState {
    /// Scene snapshot still in flight; nothing is routed to it. The
    /// snapshot covers the audit trail up to `since`, and on arrival the
    /// replica replays the trail past it, so it comes up pre-synchronised
    /// (§5.5: "We overlap update messages with the initial bootstrap
    /// messages, so the remote resource does not miss any updates"). The
    /// trail is the one copy of those updates, however many subscribers
    /// are bootstrapping.
    Bootstrapping { since: u64 },
    /// Replica live; updates stream as they are published.
    Live,
}

/// Running totals of the delivery fan-out a data service has charged
/// through segment multicast, against the unicast baseline. The
/// collab-scale bench and EXPERIMENTS tables read these.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FanoutTotals {
    /// Updates routed to at least one live subscriber, whether it was
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

/// One render service's subscription.
#[derive(Debug, Clone)]
pub struct Subscription {
    pub interest: InterestSet,
    pub state: SubState,
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
    /// Who is subscribed, with what interest and in what state. Only this
    /// module writes it; [`DataService::subscribers`] reads it.
    pub(crate) subscribers: BTreeMap<RenderServiceId, Subscription>,
    /// Optional durable store: every committed update is appended to it,
    /// with periodic snapshot checkpoints.
    store: AttachedStore,
    /// The inverted interest index `route` consults, plus its slot → id
    /// map. Lazily (re)built: a change of the subscriber population (or of
    /// a subscriber's state) bumps `index_rev`, the next route rebuilds;
    /// structural scene edits since `index_seen` are read from the tree's
    /// edit journal and folded in instead, and a root moved between two
    /// subscribers ([`DataService::move_interest_root`]) is patched in on
    /// the spot.
    index: InterestIndex,
    index_seen: EditStamp,
    index_sub_ids: Vec<RenderServiceId>,
    /// Slot → is the subscriber `Live`? Snapshotted at rebuild (state
    /// flips bump `index_rev`), so routing's hot path never touches the
    /// subscriber map — and skips the per-match check altogether while
    /// nobody is bootstrapping (every slot live).
    index_live: Vec<bool>,
    /// How many of `index_live` are `true`.
    index_live_slots: usize,
    index_rev: u64,
    index_built_rev: u64,
    /// Counts index rebuilds, i.e. slot renumberings.
    index_generation: u64,
    /// Scratch for the routed slots of one update, reused across calls.
    route_slots: Vec<SubSlot>,
    /// What the publish path keeps per slot: hosts, FIFO marks, the batch
    /// in flight.
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
            index_sub_ids: Vec::new(),
            index_live: Vec::new(),
            index_live_slots: 0,
            index_rev: 1,
            index_built_rev: 0,
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
        self.store.0 = Some(Store::open(dir.as_ref(), cfg)?);
        Ok(())
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
    /// failover, and releases the trail's front every `KEEP` entries.
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
            // All but the last `KEEP`, and nothing a bootstrap reads: one
            // pass over the subscribers per `KEEP` commits.
            let front = held[held.len() - KEEP - 1].stamped.seq;
            let floor = self.subscribers.values().fold(front, |floor, sub| match sub.state {
                SubState::Bootstrapping { since } => floor.min(since),
                SubState::Live => floor,
            });
            self.audit.release_through(floor);
        }
        let Some(store) = &mut self.store.0 else { return Ok(None) };
        // A master assigned over (seeded, promoted) starts unrecorded.
        self.scene.record_edits();
        let recorded = self.audit.entries().last().expect("just recorded");
        store.append(recorded).map_err(|e| UpdateError::Persistence(e.to_string()))?;
        let due = store.checkpoint_due();
        Ok(due.then(|| (store.last_seq(), store.checkpoint(&self.scene, at_secs))))
    }

    /// Register a live subscriber (used when the replica is seeded
    /// synchronously, e.g. a local active client).
    pub fn subscribe_live(&mut self, rs: RenderServiceId, interest: InterestSet) {
        self.subscribers.insert(rs, Subscription { interest, state: SubState::Live });
        self.index_rev += 1;
    }

    /// Begin a bootstrap: the subscriber is registered, but nothing is
    /// routed to it until [`DataService::complete_bootstrap`]. Its snapshot
    /// is the scene as it stands, which covers the audit trail so far.
    pub fn begin_bootstrap(&mut self, rs: RenderServiceId, interest: InterestSet) {
        let state = SubState::Bootstrapping { since: self.audit.last_seq() };
        self.subscribers.insert(rs, Subscription { interest, state });
        self.index_rev += 1;
    }

    /// Finish a bootstrap: flips the subscriber live and returns what it
    /// missed while its snapshot was in flight — the audit trail past the
    /// snapshot, in seq order. Empty for a subscriber that is live already
    /// or not subscribed.
    pub fn complete_bootstrap(&mut self, rs: RenderServiceId) -> &[AuditEntry] {
        let Some(sub) = self.subscribers.get_mut(&rs) else { return &[] };
        let SubState::Bootstrapping { since } = std::mem::replace(&mut sub.state, SubState::Live)
        else {
            return &[];
        };
        // The liveness cache went stale; next route re-snapshots.
        self.index_rev += 1;
        let entries = self.audit.entries();
        &entries[entries.partition_point(|e| e.stamped.seq <= since)..]
    }

    pub fn unsubscribe(&mut self, rs: RenderServiceId) -> bool {
        let removed = self.subscribers.remove(&rs).is_some();
        if removed {
            self.index_rev += 1;
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

    /// Every current subscription, by render service.
    pub fn subscribers(&self) -> &BTreeMap<RenderServiceId, Subscription> {
        &self.subscribers
    }

    /// Bring the inverted index in sync with the subscriber map and the
    /// scene: a full rebuild if subscriptions changed, otherwise an
    /// incremental repair from the structural edits the tree has
    /// journalled since the index last saw it.
    fn ensure_index(&mut self) {
        let seen = std::mem::replace(&mut self.index_seen, self.scene.edit_stamp());
        if self.index_built_rev != self.index_rev {
            self.delivery.renumber(&self.index_sub_ids, self.subscribers.keys().copied());
            self.index_generation += 1;
            self.index_sub_ids.clear();
            self.index_sub_ids.extend(self.subscribers.keys().copied());
            self.index_live.clear();
            self.index_live.extend(self.subscribers.values().map(|s| s.state == SubState::Live));
            self.index_live_slots = self.index_live.iter().filter(|&&live| live).count();
            self.index.rebuild(&self.scene, self.subscribers.values().map(|s| &s.interest));
            self.index_built_rev = self.index_rev;
        } else {
            let dirt = self.scene.changes_since(seen, &[EditClass::Structure]);
            self.index.repair(&self.scene, &dirt);
        }
    }

    /// Route a freshly committed update: every live subscriber
    /// ([`Reach::Everyone`], nobody listed), or the slots of the live
    /// subscribers it must be delivered to, ascending, in `out`. A
    /// bootstrapping subscriber reads it from the audit trail on arrival.
    fn route_into(&mut self, stamped: &StampedUpdate, out: &mut Vec<SubSlot>) -> Reach {
        self.ensure_index();
        let reach = self.index.matches(&stamped.update, &self.scene, out);
        if self.index_live_slots < self.index_live.len() && matches!(reach, Reach::Slots) {
            out.retain(|&slot| self.index_live[slot as usize]);
        }
        reach
    }

    /// Route a freshly committed update: returns the live subscribers it
    /// must be delivered to. O(log roots + matches) through the inverted
    /// interest index — the naive O(subscribers) scan survives as
    /// [`DataService::route_naive`], the index's parity oracle.
    pub fn route(&mut self, stamped: &StampedUpdate) -> Vec<RenderServiceId> {
        let mut slots = std::mem::take(&mut self.route_slots);
        let ids = match self.route_into(stamped, &mut slots) {
            Reach::Everyone => {
                let live = self.index_sub_ids.iter().zip(&self.index_live).filter(|p| *p.1);
                live.map(|(&id, _)| id).collect()
            }
            Reach::Slots => slots.iter().map(|&slot| self.index_sub_ids[slot as usize]).collect(),
        };
        self.route_slots = slots;
        ids
    }

    /// Route every update of a committed `batch` and plan its delivery
    /// with segment-multicast fan-out from this service's host: one
    /// [`Wave`] per instant the batch lands at, holding every live
    /// subscriber it reaches then in subscriber id order, each FIFO behind
    /// whatever that subscriber is already owed. An update that reaches
    /// everyone is booked per link class, not per subscriber, so a batch
    /// costs O(subscribers + scoped pairs), not O(subscribers × updates).
    /// `host_of` names the host of a render service, `None` for one that
    /// is not in the world.
    pub(crate) fn plan_deliveries<'a>(
        &mut self,
        now: SimTime,
        batch: &[Arc<StampedUpdate>],
        net: &Network,
        host_of: impl Fn(RenderServiceId) -> Option<&'a str>,
    ) -> Vec<Wave> {
        let mut slots = std::mem::take(&mut self.route_slots);
        for (i, stamped) in batch.iter().enumerate() {
            let reach = self.route_into(stamped, &mut slots);
            let reaches_anyone = match reach {
                Reach::Everyone => self.index_live_slots > 0,
                Reach::Slots => !slots.is_empty(),
            };
            if !reaches_anyone {
                continue;
            }
            // A structural update earlier in the batch repairs the index
            // without renumbering it, so this resolves at most once here.
            self.delivery.resolve_classes(
                self.index_generation,
                &self.index_sub_ids,
                &self.index_live,
                &self.host,
                net,
                &host_of,
            );
            let (update, bytes, totals) = (i as u32, stamped.wire_size(), &mut self.fanout);
            match reach {
                Reach::Everyone => {
                    self.delivery.fan_out_to_everyone(now, update, bytes, net, totals)
                }
                Reach::Slots => self.delivery.fan_out(now, update, &slots, bytes, net, totals),
            }
        }
        self.route_slots = slots;
        self.delivery.finish_batch(batch, &self.index_sub_ids)
    }

    /// The pre-index routing decision, kept as the embedded parity oracle
    /// for the inverted index: one `InterestSet::relevant` probe per
    /// subscriber, answered off the scene as it stands. Returns every
    /// interested subscriber regardless of state, in id order.
    pub fn route_naive(&self, stamped: &StampedUpdate) -> Vec<RenderServiceId> {
        self.subscribers
            .iter()
            .filter(|(_, sub)| sub.interest.relevant(&stamped.update, &self.scene))
            .map(|(rs, _)| *rs)
            .collect()
    }

    /// Schedule an index rebuild. Nothing needs one: every write to the
    /// subscriptions schedules its own. (The name is from when each
    /// interest set also kept a closure this recomputed; `benchmark/`
    /// calls it by that name.)
    pub fn refresh_interests(&mut self) {
        self.index_rev += 1;
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
        if let Some((rs, sub)) = to.and_then(|rs| Some((rs, self.subscribers.get_mut(&rs)?))) {
            if sub.interest.add_root(node) {
                match self.index_slot(rs) {
                    Some(slot) => self.index.add_root(&self.scene, slot, node),
                    None => self.index_rev += 1,
                }
            }
        }
        let listed = |(rs, sub): (RenderServiceId, &mut Subscription)| {
            (Some(rs) != to && sub.interest.remove_root(node)).then_some(rs)
        };
        let asked = from.and_then(|rs| Some((rs, self.subscribers.get_mut(&rs)?)));
        let left = asked.and_then(listed).or_else(|| {
            let partial = self.subscribers.iter_mut().filter(|s| !s.1.interest.is_everything());
            partial.map(|(rs, sub)| (*rs, sub)).find_map(listed)
        })?;
        match self.index_slot(left) {
            Some(slot) => self.index.remove_root(slot, node),
            None => self.index_rev += 1,
        }
        Some(left)
    }

    /// `rs`'s slot in the index as built. `None` when there is nothing to
    /// patch: a rebuild is already due.
    fn index_slot(&self, rs: RenderServiceId) -> Option<SubSlot> {
        let current = self.index_built_rev == self.index_rev;
        let slot = current.then(|| self.index_sub_ids.binary_search(&rs).ok())??;
        Some(slot as SubSlot)
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
        assert!(ds.subscribers[&FULL].interest.roots().any(|r| r == right));
        let u = Arc::new(ds.stamp("t", SceneUpdate::SetName { id: node, name: "n".into() }));
        assert_eq!(ds.route(&u), ds.route_naive(&u));
        assert_eq!(ds.route(&u), vec![RIGHT_SUB, FULL]);
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

    #[test]
    fn route_delivers_to_live_and_a_bootstrap_reads_the_trail() {
        let mut ds = DataService::new(DataServiceId(1), "h", "s");
        let before = add_update(&mut ds, "before");
        ds.commit(0.0, &before).unwrap();
        ds.subscribe_live(RenderServiceId(1), InterestSet::everything());
        ds.begin_bootstrap(RenderServiceId(2), InterestSet::everything());
        let u = add_update(&mut ds, "x");
        ds.commit(0.0, &u).unwrap();
        assert_eq!(ds.route(&u), vec![RenderServiceId(1)]);
        // Completing the bootstrap yields the trail past the snapshot:
        // the update committed in flight, not the one before it.
        let missed = ds.complete_bootstrap(RenderServiceId(2));
        assert_eq!(missed.iter().map(|e| e.stamped.seq).collect::<Vec<_>>(), vec![u.seq]);
        assert!(ds.complete_bootstrap(RenderServiceId(2)).is_empty(), "live already");
        // Next update now goes to both.
        let u2 = add_update(&mut ds, "y");
        ds.commit(0.0, &u2).unwrap();
        assert_eq!(ds.route(&u2).len(), 2);
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
        let bytes = || -> u64 {
            std::fs::read_dir(&dir).unwrap().map(|f| f.unwrap().metadata().unwrap().len()).sum()
        };
        let before = bytes();
        let mut copy = ds.clone();
        for name in ["a", "b", "c"] {
            let u = add_update(&mut copy, name);
            copy.commit(0.0, &u).unwrap();
        }
        assert_eq!(bytes(), before, "the clone wrote to the store");
        let u = add_update(&mut ds, "a");
        ds.commit(0.0, &u).unwrap();
        assert!(bytes() > before, "the original still logs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A session with nobody bootstrapping keeps a bounded tail: never
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

    #[test]
    fn complete_bootstrap_on_unknown_subscriber_is_empty() {
        let mut ds = DataService::new(DataServiceId(1), "h", "s");
        assert!(ds.complete_bootstrap(RenderServiceId(9)).is_empty());
    }
}
