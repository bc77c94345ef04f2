//! Workload migration (§3.2.7) as event-driven rebalancing.
//!
//! "When a render service becomes overloaded (i.e. its rendering rate
//! drops below a given threshold), it informs the data server. The data
//! server then examines available render services to find which service
//! has spare capacity ... removing nodes or tiles from the overloaded
//! service and adding them to an alternate service. If there is
//! insufficient spare capacity, then the data server uses UDDI to
//! discover additional render services that are not connected to the data
//! service."
//!
//! Every trigger that can change a placement — overload, sustained
//! under-load, service failure (§6), and measured-throughput drift — is
//! one [`SchedEvent`], and every event in a batch is handled through the
//! same headroom ledger and movement machinery. A caller runs the
//! detectors ([`detect_overload`], [`detect_underload`],
//! [`detect_cost_drift`]), or names a failure itself, and hands the events
//! to [`process_events`], which sheds per event, or to
//! [`incremental_replan`], which folds the batch into the persistent plan.
//! Overload and failure re-home their shards through one routine,
//! `rehome`; the decisions themselves — considered candidates, scores,
//! chosen placement — are recorded as
//! [`crate::trace::TraceKind::SchedDecision`] events.

use crate::bootstrap::connect_at;
use crate::ids::{DataServiceId, RenderServiceId};
use crate::release_ledger::HEADER_BYTES;
use crate::sched::placement::Ledger;
use crate::trace::{DecisionRow, TraceEvent};
use crate::world::RaveSim;
use rave_grid::TechnicalModel;
use rave_net::HostId;
use rave_scene::{InterestSet, NodeCost, NodeId};
use rave_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// A render service whose rolling frame rate drops below this reports
/// itself overloaded to the data service (§3.2.7: "its rendering rate
/// drops below a given threshold").
pub const OVERLOAD_FPS: f64 = 10.0;

/// A render service sustaining more than this is a migration target (has
/// spare capacity).
pub const UNDERLOAD_FPS: f64 = 40.0;

/// How long under-load must persist before the data service reacts —
/// "for a given amount of time, to smooth out spikes of usage".
pub const UNDERLOAD_DEBOUNCE: SimTime = SimTime::from_secs(5.0);

const _: () = assert!(OVERLOAD_FPS < UNDERLOAD_FPS);

/// `CostDrift` trigger: a service whose measured throughput falls below
/// this fraction of its advertised rate gets re-planned before the
/// overload fps threshold ever trips.
const DRIFT_RATIO: f64 = 0.5;

/// A rebalance trigger. Initial plans, migrations and failover re-plans
/// all arrive at the scheduler as a stream of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedEvent {
    /// A service's rolling frame rate dropped below the overload
    /// threshold: shed work until it is back inside its budget.
    Overload { service: RenderServiceId },
    /// A service has sustained spare capacity past the debounce window:
    /// pull work onto it from the most loaded donor.
    Underload { service: RenderServiceId },
    /// A service died (crash, or a local user logged on): re-home its
    /// share onto the survivors.
    Failure { service: RenderServiceId },
    /// Measured throughput fell well below what the service advertised:
    /// re-plan before the overload fps threshold ever trips.
    CostDrift { service: RenderServiceId, measured: f64, expected: f64 },
    /// The data service itself died — the last single point of failure.
    /// Promote its warm standby if a replication link exists; otherwise
    /// fall back to cold recovery from its durable store.
    DataFailure { service: DataServiceId },
}

/// What a rebalance pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationOutcome {
    /// `(node, from, to)` moves performed.
    pub moved: Vec<(NodeId, RenderServiceId, RenderServiceId)>,
    /// Render services recruited via UDDI this pass.
    pub recruited: Vec<RenderServiceId>,
    /// Data-service failovers performed this pass (warm promotion or
    /// cold recovery).
    pub promotions: Vec<crate::replica::PromotionReport>,
    /// True when work remained unplaceable ("the request is refused").
    pub refused: bool,
}

impl MigrationOutcome {
    pub fn acted(&self) -> bool {
        !self.moved.is_empty() || !self.recruited.is_empty() || !self.promotions.is_empty()
    }
}

/// The node set to shed from an overloaded service: smallest nodes first,
/// until `excess` polygons are covered. Fine-grain selection is the whole
/// point — "If an underloaded service has capacity for another 5k
/// polygons/sec ... we do not want to add 100k polygons by mistake."
pub fn select_nodes_to_shed(
    scene: &rave_scene::SceneTree,
    roots: &[NodeId],
    excess_polygons: u64,
) -> Vec<(NodeId, NodeCost)> {
    let mut candidates: Vec<(NodeId, NodeCost)> = roots
        .iter()
        .filter_map(|&id| scene.node(id).map(|_| (id, scene.subtree_cost(id))))
        .filter(|(_, c)| !c.is_zero())
        .collect();
    candidates.sort_by_key(|(id, c)| (c.render_weight(), *id));
    let mut shed = Vec::new();
    let mut covered = 0u64;
    for (id, cost) in candidates {
        if covered >= excess_polygons {
            break;
        }
        covered += cost.polygons;
        shed.push((id, cost));
    }
    shed
}

/// Detect overloaded subscribers (rolling fps below the threshold),
/// recording the §3.2.7 "informs the data server" trace for each.
pub fn detect_overload(sim: &mut RaveSim, ds_id: DataServiceId) -> Vec<SchedEvent> {
    let now = sim.now();
    let mut events = Vec::new();
    for rs in sim.world.data(ds_id).subscriber_ids() {
        let fps = sim.world.render(rs).rolling_fps();
        if fps.is_some_and(|f| f < OVERLOAD_FPS) {
            events.push(SchedEvent::Overload { service: rs });
        }
    }
    for ev in &events {
        if let &SchedEvent::Overload { service } = ev {
            let fps = sim.world.render(service).rolling_fps().unwrap_or(0.0);
            sim.world.trace.record(now, TraceEvent::Overloaded { service, fps });
        }
    }
    events
}

/// Track under-load and surface services idle past the debounce window:
/// "When a render service is significantly underloaded (for a given
/// amount of time, to smooth out spikes of usage), the data service again
/// redistributes data." Mutates the debounce ledger in
/// `world.sched.underload_since`.
pub fn detect_underload(sim: &mut RaveSim, ds_id: DataServiceId) -> Vec<SchedEvent> {
    let now = sim.now();
    let mut events = Vec::new();
    for rs in sim.world.data(ds_id).subscriber_ids() {
        let fps = sim.world.render(rs).rolling_fps();
        // No fps data counts as under-loaded only for an *empty* service
        // (a fresh recruit); a loaded service that simply has not rendered
        // lately is not a migration target.
        let under = match fps {
            Some(f) => f > UNDERLOAD_FPS,
            None => sim.world.render(rs).assigned_cost().is_zero(),
        };
        if under {
            let since = *sim.world.sched.underload_since.entry(rs).or_insert(now);
            if now - since >= UNDERLOAD_DEBOUNCE {
                events.push(SchedEvent::Underload { service: rs });
            }
        } else {
            sim.world.sched.underload_since.remove(&rs);
        }
    }
    events
}

/// Detect services whose measured throughput (from the world's
/// scheduler-level [`super::ThroughputTracker`]) has drifted below
/// `DRIFT_RATIO × advertised`. The tracker's unit domain is
/// whatever the caller feeds it — comparisons only make sense against an
/// `expected` in the same units, so the advertised `polys_per_sec` is
/// used as the reference scale.
/// Hysteresis: the EWMA jitters around `DRIFT_RATIO × advertised`,
/// and a trigger-happy detector would storm the scheduler with
/// `CostDrift` events (defeating the incremental replanner's coalescing).
/// A drift observation therefore only *arms* the service on its first
/// detect pass (`world.sched.drift_pending`); the event fires when the
/// drift persists into a second consecutive pass, and any recovered pass
/// disarms it.
pub fn detect_cost_drift(sim: &mut RaveSim, ds_id: DataServiceId) -> Vec<SchedEvent> {
    let mut events = Vec::new();
    for rs in sim.world.data(ds_id).subscriber_ids() {
        // The advertised rate, as `gross_basis` and a capacity report read it.
        let expected = sim.world.render(rs).machine.poly_rate;
        if sim.world.sched.throughput.drifted_below(rs, expected, DRIFT_RATIO) {
            if !sim.world.sched.drift_pending.insert(rs) {
                let measured = sim.world.sched.throughput.throughput(rs).unwrap_or(0.0);
                events.push(SchedEvent::CostDrift { service: rs, measured, expected });
            }
        } else {
            sim.world.sched.drift_pending.remove(&rs);
        }
    }
    events
}

/// Per-batch processing state: one ledger and one set of moves shared by
/// every event, so two events in the same batch can neither overfill a
/// receiver nor move the same node twice.
struct Batch {
    /// Services overloaded (or drifting) in this batch — excluded from
    /// the shared receiving ledger.
    overloaded: Vec<RenderServiceId>,
    /// Services underloaded in this batch — excluded from donor choice.
    underloaded: Vec<RenderServiceId>,
    /// Receiving ledger for overload-type events, built lazily from one
    /// interrogation pass (original order kept across debits).
    ledger: Option<Ledger>,
    /// Donor for underload events, computed once per batch.
    donor: Option<Option<RenderServiceId>>,
    /// The moves made so far; they become the outcome's `moved`.
    moves: MoveBatch,
    /// Recruits, promotions and refusals.
    outcome: MigrationOutcome,
}

/// Process a batch of [`SchedEvent`]s against one data service. Every
/// decision goes through the shared ledger and emits a `SchedDecision`
/// trace record with the considered candidates and chosen placement.
pub fn process_events(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    events: &[SchedEvent],
) -> MigrationOutcome {
    // Coalesce per (action, service) before handling: the first event of
    // each pair wins. `Overload` and `CostDrift` are one action — both
    // shed — so a batch carrying both for one service sheds once.
    let mut seen = BTreeSet::new();
    let events: Vec<SchedEvent> = events
        .iter()
        .copied()
        .filter(|ev| {
            seen.insert(match *ev {
                SchedEvent::Overload { service } | SchedEvent::CostDrift { service, .. } => {
                    (0, service.0)
                }
                SchedEvent::Underload { service } => (1, service.0),
                SchedEvent::Failure { service } => (2, service.0),
                SchedEvent::DataFailure { service } => (3, service.0),
            })
        })
        .collect();
    let services =
        |action| seen.iter().filter(move |k| k.0 == action).map(|k| RenderServiceId(k.1));
    let mut batch = Batch {
        overloaded: services(0).collect(),
        underloaded: services(1).collect(),
        ledger: None,
        donor: None,
        moves: MoveBatch::new(ds_id),
        outcome: MigrationOutcome::default(),
    };
    for ev in events {
        match ev {
            SchedEvent::Overload { service } => {
                handle_overload(sim, service, &mut batch, "Overload");
            }
            SchedEvent::CostDrift { service, measured, expected } => {
                let row = TraceEvent::Drifting { service, measured, expected };
                sim.world.trace.record(sim.now(), row);
                handle_overload(sim, service, &mut batch, "CostDrift");
            }
            SchedEvent::Underload { service } => handle_underload(sim, service, &mut batch),
            SchedEvent::Failure { service } => handle_failure(sim, service, &mut batch),
            SchedEvent::DataFailure { service } => {
                handle_data_failure(sim, service, &mut batch.outcome);
            }
        }
    }
    MigrationOutcome { moved: batch.moves.moved, ..batch.outcome }
}

/// Handle the death of a data service. Preference order: promote the
/// warm standby (log-shipped, nothing to marshal), else rebuild from the
/// durable store via [`crate::bootstrap::recover_data_service`] (cold:
/// every subscriber re-bootstraps), else refuse — the session state is
/// gone with the host.
fn handle_data_failure(sim: &mut RaveSim, dead: DataServiceId, outcome: &mut MigrationOutcome) {
    if !sim.world.data_services.contains_key(&dead) {
        return;
    }
    if sim.world.replicas.contains_key(&dead) {
        let report = crate::replica::promote_standby(sim, dead).expect("link checked above");
        outcome.promotions.push(report);
        return;
    }
    let (host, store_dir, n_subs) = {
        let ds = sim.world.data(dead);
        (ds.host.clone(), ds.store().map(|s| s.dir().to_path_buf()), ds.subscribers().len())
    };
    if let Some(dir) = store_dir {
        let now = sim.now();
        let new_id = crate::bootstrap::recover_data_service(sim, dead, &host, &dir)
            .expect("cold recovery from an intact store");
        outcome.promotions.push(crate::replica::PromotionReport {
            failed: dead,
            promoted: new_id,
            warm: false,
            subscribers_moved: n_subs,
            // The store is lossless up to its last durable append;
            // anything past it died with the host and is unknowable here.
            lost_updates: 0,
            completed_at: now,
        });
        return;
    }
    sim.world.trace.record(sim.now(), TraceEvent::SessionLost { ds: dead });
    outcome.refused = true;
}

/// True when `rs`'s host is on the network: a service off it can be sent
/// nothing, so no planner pass chooses it as a receiver (the publish path
/// skips it too, `FanoutTotals::skipped_receivers`).
fn on_network(sim: &RaveSim, rs: RenderServiceId) -> bool {
    sim.world.network.host_id(&sim.world.render(rs).host).is_some()
}

/// One interrogation pass over the data service's subscribers on the
/// network, `skip` aside, as a receiving ledger: most spacious first, and
/// kept in that order as it is debited.
fn interrogate(sim: &RaveSim, ds_id: DataServiceId, skip: &[RenderServiceId]) -> Ledger {
    let subscribers = sim.world.data(ds_id).subscriber_ids().into_iter();
    let reports: Vec<_> = subscribers
        .filter(|&rs| !skip.contains(&rs) && on_network(sim, rs))
        .map(|rs| sim.world.render(rs).capacity_report(&sim.world.config))
        .collect();
    Ledger::from_reports(&reports, false)
}

/// What becomes of a shard the recruit has no room for.
#[derive(Clone, Copy, PartialEq)]
enum Overflow {
    /// Refused: an overloaded service keeps what nobody can take.
    Refuse,
    /// Placed on the recruit anyway: a dead service's share has nowhere
    /// else to go, and the alternative is losing it.
    Land,
}

/// The §3.2.7 migration act, for overload and failure alike: move each
/// of `shards` off `from` onto the first service in `ledger` with room,
/// each decision a `SchedDecision` row; recruit one service through UDDI
/// for what none has room for — its rows score it by the room it
/// reported, less what already landed on it, and `overflow` says what
/// becomes of a shard that does not fit it either; refuse the rest.
fn rehome(
    sim: &mut RaveSim,
    from: RenderServiceId,
    shards: Vec<(NodeId, NodeCost)>,
    ledger: &mut Ledger,
    batch: &mut Batch,
    trigger: &'static str,
    overflow: Overflow,
) {
    let mut unplaced = Vec::new();
    for (node, cost) in shards {
        let (candidates, chosen) = (ledger.slot_states(), ledger.fit(&cost));
        let row = Box::new(DecisionRow { trigger, node, cost, chosen, candidates });
        sim.world.trace.record(sim.now(), TraceEvent::SchedDecision { row });
        let moved = chosen.map(|to| batch.moves.move_node(sim, node, Some(from), to, &cost));
        if !matches!(moved, Some(Ok(()))) {
            unplaced.push((node, cost));
        }
    }
    if unplaced.is_empty() {
        return;
    }
    let ds_id = batch.moves.ds_id;
    let mut refused = unplaced;
    if let Some(recruit) = recruit_unconnected(sim, ds_id) {
        batch.outcome.recruited.push(recruit);
        let mut room = sim.world.render(recruit).capacity_report(&sim.world.config).headroom();
        for (node, cost) in std::mem::take(&mut refused) {
            let lands = room.fits(&cost) || overflow == Overflow::Land;
            let (chosen, candidates) = (lands.then_some(recruit), vec![(recruit, room.polygons)]);
            let row = Box::new(DecisionRow { trigger, node, cost, chosen, candidates });
            sim.world.trace.record(sim.now(), TraceEvent::SchedDecision { row });
            if lands && batch.moves.move_node(sim, node, Some(from), recruit, &cost).is_ok() {
                room.debit(&cost);
            } else {
                refused.push((node, cost));
            }
        }
        ledger.push(recruit, room);
    }
    if !refused.is_empty() {
        let polygons = refused.iter().map(|(_, c)| c.polygons).sum();
        let row = TraceEvent::Refused { ds: ds_id, nodes: refused.len(), polygons };
        sim.world.trace.record(sim.now(), row);
        batch.outcome.refused = true;
    }
}

/// Shed work from an overloaded (or drifting) service — enough to bring
/// it back inside its interactive polygon budget, smallest shards first —
/// onto the connected services that are not overloaded themselves, one
/// ledger for the whole batch.
fn handle_overload(
    sim: &mut RaveSim,
    over_rs: RenderServiceId,
    batch: &mut Batch,
    trigger: &'static str,
) {
    let Some(rs) = sim.world.render_services.get(&over_rs) else { return };
    let budget = rs.poly_budget(sim.world.config.target_fps);
    let excess = rs.assigned_cost().polygons.saturating_sub(budget);
    if excess == 0 {
        return;
    }
    let shards = select_nodes_to_shed(&rs.scene, &rs.held_roots(), excess)
        .into_iter()
        .filter(|(node, _)| !batch.moves.has_moved(*node))
        .collect();
    let ds_id = batch.moves.ds_id;
    let mut ledger =
        batch.ledger.take().unwrap_or_else(|| interrogate(sim, ds_id, &batch.overloaded));
    rehome(sim, over_rs, shards, &mut ledger, batch, trigger, Overflow::Refuse);
    batch.ledger = Some(ledger);
}

/// Pull work from the most loaded donor onto a debounced under-loaded
/// service, never overshooting its headroom (the §3.2.7 "5k vs 100k"
/// rule).
fn handle_underload(sim: &mut RaveSim, under_rs: RenderServiceId, batch: &mut Batch) {
    let now = sim.now();
    if !sim.world.render_services.contains_key(&under_rs) || !on_network(sim, under_rs) {
        return;
    }
    // Donor: the most loaded subscriber outside the batch's under-loaded
    // set, chosen once per batch.
    if batch.donor.is_none() {
        let underloaded = &batch.underloaded;
        let donor = sim
            .world
            .data(batch.moves.ds_id)
            .subscriber_ids()
            .into_iter()
            .filter(|rs| !underloaded.contains(rs) && sim.world.render_services.contains_key(rs))
            .max_by_key(|&rs| sim.world.render(rs).assigned_cost().polygons);
        batch.donor = Some(donor);
    }
    let Some(donor) = batch.donor.expect("just set") else { return };

    sim.world.trace.record(now, TraceEvent::Underloaded { service: under_rs });
    let mut room = sim.world.render(under_rs).capacity_report(&sim.world.config).headroom();
    if room.polygons == 0 {
        return;
    }
    // Fine-grain: move the largest node set that FITS the headroom.
    let scene = &sim.world.render(donor).scene;
    let mut candidates: Vec<(NodeId, NodeCost)> = sim
        .world
        .render(donor)
        .held_roots()
        .into_iter()
        .filter_map(|id| scene.node(id).map(|_| (id, scene.subtree_cost(id))))
        .filter(|(node, c)| !c.is_zero() && !batch.moves.has_moved(*node))
        .collect();
    candidates.sort_by_key(|(id, c)| (std::cmp::Reverse(c.render_weight()), *id));
    for (node, cost) in candidates {
        if cost.polygons <= room.polygons && donor != under_rs {
            let (chosen, candidates) = (Some(under_rs), vec![(under_rs, room.polygons)]);
            let row = DecisionRow { trigger: "Underload", node, cost, chosen, candidates };
            sim.world.trace.record(sim.now(), TraceEvent::SchedDecision { row: Box::new(row) });
            if batch.moves.move_node(sim, node, Some(donor), under_rs, &cost).is_ok() {
                room.polygons -= cost.polygons;
            }
        }
    }
    sim.world.sched.underload_since.remove(&under_rs);
}

/// Handle the death of a render service (§6): unsubscribe it and re-home
/// what it alone held onto the survivors, recruiting via UDDI if
/// necessary.
fn handle_failure(sim: &mut RaveSim, dead: RenderServiceId, batch: &mut Batch) {
    if !sim.world.render_services.contains_key(&dead) {
        return;
    }
    let ds_id = batch.moves.ds_id;
    // A full replica holds everything; its loss orphans nothing that
    // others don't already have.
    let orphaned: Vec<NodeId> = match sim.world.data(ds_id).subscribers().get(&dead) {
        Some(interest) if !interest.is_everything() => interest.roots().collect(),
        _ => Vec::new(),
    };
    let row = TraceEvent::Failed { service: dead, orphaned: orphaned.len() };
    teardown_render_service(sim, ds_id, dead, row);
    let scene = &sim.world.data(ds_id).scene;
    let shards = orphaned
        .into_iter()
        .filter(|node| !batch.moves.has_moved(*node))
        .map(|node| (node, scene.subtree_cost(node)))
        .collect();
    // Its own interrogation pass: survivor capacity just changed by the
    // death itself.
    let mut ledger = interrogate(sim, ds_id, &[]);
    rehome(sim, dead, shards, &mut ledger, batch, "Failure", Overflow::Land);
}

/// Why [`MoveBatch::move_node`] moved nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveRefused {
    /// The receiver's render service sits on a host the network does not
    /// know, so no transfer can reach it.
    OffNetwork { to: RenderServiceId, host: String },
}

/// The moves one batch (an event batch or a plan diff) makes against one
/// data service, each costing what it moves: the data service's interest
/// index is patched per move ([`DataService::move_interest_root`]), the
/// subtree travels as a flat [`rave_scene::Parcel`], and what the receiver
/// caches of it crosses the wire as a header
/// ([`crate::release_ledger::ReleaseLedger`]). The hosts a transfer is
/// charged between and the services' ledger bits are resolved once per
/// batch, and the ledger reads the master's edit journal once, before the
/// first transfer.
///
/// [`DataService::move_interest_root`]: crate::data_service::DataService::move_interest_root
pub struct MoveBatch {
    ds_id: DataServiceId,
    /// The data service's host, resolved by the first transfer.
    ds_host: Option<HostId>,
    /// Destination hosts, resolved once per service, before its first
    /// move changes anything.
    hosts: BTreeMap<RenderServiceId, HostId>,
    /// Each service's ledger bit and the texture memory it has left,
    /// resolved once per service: `None` for a service that is not
    /// subscribed, or past the ledger's numbering.
    bits: BTreeMap<RenderServiceId, Option<(u32, u64)>>,
    /// `(node, from, to)` of every move with a donor, in order.
    moved: Vec<(NodeId, RenderServiceId, RenderServiceId)>,
}

impl MoveBatch {
    pub fn new(ds_id: DataServiceId) -> Self {
        Self {
            ds_id,
            ds_host: None,
            hosts: BTreeMap::new(),
            bits: BTreeMap::new(),
            moved: Vec::new(),
        }
    }

    /// `service`'s ledger bit and texture room (see [`MoveBatch::bits`]).
    fn bit(&mut self, sim: &mut RaveSim, service: RenderServiceId) -> Option<(u32, u64)> {
        *self.bits.entry(service).or_insert_with(|| {
            let rs = sim.world.render_services.get(&service)?;
            let room = rs.machine.texture_memory.saturating_sub(rs.assigned_cost().texture_bytes);
            let ds = sim.world.data_services.get_mut(&self.ds_id)?;
            if !ds.subscribers.contains_key(&service) {
                return None;
            }
            Some((ds.ledger.bit(service)?, room))
        })
    }

    fn has_moved(&self, node: NodeId) -> bool {
        self.moved.iter().any(|&(moved, ..)| moved == node)
    }

    /// Move `node`'s subtree to `to`, away from the subscriber the data
    /// service lists it under — `from`, where the caller last put it, is
    /// asked first; a node nobody lists moves from `from`, or is a first
    /// placement when that is none. The interest roots at the data service
    /// change now, the subtree is cut out of the master scene as a parcel
    /// and charged to the transfer — less the payloads the receiver caches,
    /// which cross as a header — and the replicas' surgery happens when it
    /// arrives: the node is "in flight" until then, and the old holder
    /// keeps rendering it until the handoff (best effort); `to`'s updates
    /// land behind it. The listed holder caches what it releases, as far as
    /// its texture memory lets it.
    ///
    /// A receiver whose host is off the network can be sent nothing: the
    /// move is refused before anything changes.
    pub fn move_node(
        &mut self,
        sim: &mut RaveSim,
        node: NodeId,
        from: Option<RenderServiceId>,
        to: RenderServiceId,
        cost: &NodeCost,
    ) -> Result<(), MoveRefused> {
        let to_host = match self.hosts.get(&to) {
            Some(&host) => host,
            None => {
                let host = &sim.world.render(to).host;
                let id = sim.world.network.host_id(host);
                let id = id.ok_or_else(|| MoveRefused::OffNetwork { to, host: host.clone() })?;
                *self.hosts.entry(to).or_insert(id)
            }
        };
        let left = sim.world.data_mut(self.ds_id).move_interest_root(node, from, Some(to));
        let from = left.or(from);
        if self.ds_host.is_none() {
            let world = &mut sim.world;
            let ds = world.data_services.get_mut(&self.ds_id).expect("the batch's data service");
            ds.ledger.sync(&mut ds.scene);
            self.ds_host = Some(world.network.known_host(&ds.host));
        }
        let from_host = self.ds_host.expect("just resolved");
        let to_bit = self.bit(sim, to).map(|(bit, _)| bit);
        let from_bit = left.and_then(|left| self.bit(sim, left));
        let ds = sim.world.data(self.ds_id);
        let parcel = ds.scene.extract_parcel(&[node]);
        let now = sim.now();
        let records = ds.scene.descendants_iter(node).map(|n| n.id());
        let (cached, held) = to_bit.map_or((0, 0), |bit| ds.ledger.held(records, bit, now));
        let full = cost.data_bytes.max(HEADER_BYTES);
        let charge = cost.data_bytes.saturating_sub(held).max(HEADER_BYTES);
        let arrival = sim.world.channel_between(from_host, to_host).send(now, charge);
        let ds = sim.world.data_mut(self.ds_id);
        let arrival = ds.hold_stream(to, arrival);
        let records = ds.scene.descendants_iter(node).map(|n| (n.id(), n.own_cost().data_bytes));
        ds.ledger.book(records, from_bit, to_bit, arrival);
        ds.moves.moves += 1;
        ds.moves.payloads_cached += cached;
        ds.moves.payload_bytes_saved += full - charge;
        if let Some(from) = from {
            self.moved.push((node, from, to));
        }
        sim.schedule_at(arrival, move |sim| {
            let at = sim.now();
            // The donor may already be gone (failure-triggered moves), and
            // so may the receiver: it failed with the subtree on the wire,
            // and its own failure re-homes what the data service says it
            // held.
            if let Some(rs) = from.and_then(|from| sim.world.render_services.get_mut(&from)) {
                rs.release_root(node);
            }
            if let Some(rs) = sim.world.render_services.get_mut(&to) {
                rs.interest.add_root(node);
                rs.scene.adopt_parcel(&parcel);
            }
            let row = match from {
                Some(from) => TraceEvent::Moved { node, from, to },
                None => TraceEvent::Installed { node, to },
            };
            sim.world.trace.record(at, row);
        });
        Ok(())
    }

    /// A workload left the plan (removed from the scene or split away):
    /// clean it off the service that held it, by the same donor rule.
    fn uninstall_node(&self, sim: &mut RaveSim, node: NodeId, from: RenderServiceId) {
        let left = sim.world.data_mut(self.ds_id).move_interest_root(node, Some(from), None);
        if let Some(rs) = sim.world.render_services.get_mut(&left.unwrap_or(from)) {
            rs.release_root(node);
        }
    }
}

/// Recruit one registered-but-unconnected render service via UDDI,
/// charging the warm-scan cost and the bootstrap. Returns its id.
fn recruit_unconnected(sim: &mut RaveSim, ds_id: DataServiceId) -> Option<RenderServiceId> {
    let now = sim.now();
    // Which render services exist but are not subscribed?
    let connected = sim.world.data(ds_id).subscriber_ids();
    let candidate = sim
        .world
        .render_services
        .iter()
        .filter(|(id, rs)| !connected.contains(id) && rs.offscreen_capable)
        .map(|(id, _)| *id)
        .find(|&rs| on_network(sim, rs))?;

    // Charge the UDDI inquiry (warm scan on the kept-alive proxy).
    let results =
        sim.world.registry.scan_access_points("RAVE", TechnicalModel::RenderService).len();
    let scan = sim.world.uddi_cost.scan_cost(results);
    let row = TraceEvent::Recruited { service: candidate, scanned: results, scan };
    sim.world.trace.record(now, row);
    // Subscribed now, so the shards the caller moves to it at once are
    // listed in its subscription and routed to it; its handshake and
    // snapshot start once the scan completes.
    let start = now + scan;
    let ship = connect_at(sim, candidate, ds_id, InterestSet::subtrees([]), start);
    sim.schedule_at(start, move |sim| {
        ship(sim);
    });
    Some(candidate)
}

/// What one incremental replan pass did.
#[derive(Debug, Clone, Default)]
pub struct IncrementalOutcome {
    /// Movement bookkeeping in the same shape every other rebalance path
    /// reports (moves, recruits, refusals).
    pub migration: MigrationOutcome,
    /// The applied plan diff — `None` when the pass was deferred or
    /// refused.
    pub diff: Option<crate::sched::incremental::PlanDiff>,
    /// True when nothing changed since the last pass, so nothing was
    /// replanned.
    pub deferred: bool,
}

/// The incremental counterpart of [`process_events`]: instead of
/// shedding through per-event heuristics, fold the batch into the data
/// service's persistent [`crate::sched::incremental::PlanState`], replay
/// the placement engine from the first affected queue position, and
/// apply the resulting minimal [`crate::sched::incremental::PlanDiff`]
/// as migrations.
///
/// Events carry *when*, the world carries *what*: failure events tear
/// their service down here (which changes the capacity basis), while
/// overload/drift conditions are read back from the throughput tracker
/// when the gross basis is computed.
pub fn incremental_replan(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    events: &[SchedEvent],
) -> IncrementalOutcome {
    let mut out = IncrementalOutcome::default();

    // Teardown-type events first: they change the basis the replay packs
    // against.
    for ev in events {
        match *ev {
            SchedEvent::Failure { service } => {
                let row = TraceEvent::FailedBeforeReplay { service };
                teardown_render_service(sim, ds_id, service, row);
            }
            SchedEvent::DataFailure { service } => {
                sim.world.sched.plans.remove(&service);
                handle_data_failure(sim, service, &mut out.migration);
            }
            _ => {}
        }
    }
    if !sim.world.data_services.contains_key(&ds_id) {
        return out;
    }

    let basis = gross_basis(sim, ds_id);
    let mut state = sim.world.sched.plans.remove(&ds_id).unwrap_or_default();
    let result = {
        let ds = sim.world.data_services.get_mut(&ds_id).expect("checked above");
        crate::distribution::plan_incremental(&mut ds.scene, &basis, &mut state, 0.0)
    };
    sim.world.sched.plans.insert(ds_id, state);
    match result {
        Ok(None) => out.deferred = true,
        Ok(Some(diff)) => {
            out.migration.moved = apply_plan_diff(sim, ds_id, &diff);
            out.diff = Some(diff);
        }
        Err(err) => {
            let row = TraceEvent::ReplanRefused { ds: ds_id, error: err.to_string() };
            sim.world.trace.record(sim.now(), row);
            out.migration.refused = true;
        }
    }
    out
}

/// The incremental planner's capacity basis: *gross* per-service budgets
/// ([`crate::render_service::RenderService::poly_budget`] ×
/// `fill_factor`, total texture memory) rather than the interrogation
/// report's remaining headroom — the replay decides the whole assignment
/// itself, so already-assigned work must not be double-counted against
/// capacity. Services whose measured throughput has drifted below the
/// drift ratio are derated by the measured fraction, which is what makes
/// a `CostDrift` event move work off them.
fn gross_basis(
    sim: &RaveSim,
    ds_id: DataServiceId,
) -> Vec<(RenderServiceId, crate::capacity::Headroom)> {
    let cfg = &sim.world.config;
    sim.world
        .data(ds_id)
        .subscriber_ids()
        .into_iter()
        .filter(|&rs_id| on_network(sim, rs_id))
        .map(|rs_id| {
            let rs = sim.world.render(rs_id);
            let mut fillable = (rs.poly_budget(cfg.target_fps) as f64 * cfg.fill_factor) as u64;
            let expected = rs.machine.poly_rate;
            if sim.world.sched.throughput.drifted_below(rs_id, expected, DRIFT_RATIO) {
                let measured = sim.world.sched.throughput.throughput(rs_id).unwrap_or(0.0);
                let scale = (measured / expected).clamp(0.0, 1.0);
                fillable = (fillable as f64 * scale) as u64;
            }
            (
                rs_id,
                crate::capacity::Headroom {
                    polygons: fillable,
                    texture_bytes: rs.machine.texture_memory,
                },
            )
        })
        .collect()
}

/// Take a failed render service out of the world: its subscription, its
/// replica, its advertisement, everything the scheduler remembers about
/// it, and the frame streams it was sending. Both failure paths end here
/// (`row` is the trace row that says what happens to its share) and
/// neither re-homes that share in this function — [`handle_failure`]
/// places the orphaned roots itself, and on the incremental path
/// dropping the service from the capacity basis makes the plan replay
/// reassign every workload it held.
fn teardown_render_service(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    dead: RenderServiceId,
    row: TraceEvent,
) {
    let Some(rs) = sim.world.render_services.remove(&dead) else { return };
    sim.world.data_mut(ds_id).unsubscribe(dead);
    sim.world.registry.unpublish("RAVE", &rs.host, &format!("render-{dead}"));
    sim.world.sched.throughput.forget(dead);
    sim.world.sched.drift_pending.remove(&dead);
    sim.world.sched.underload_since.remove(&dead);
    sim.world.frame_cache.evict_service(dead);
    let now = sim.now();
    sim.world.trace.record(now, row);
}

/// Apply a plan diff to the world: each planned workload moves to its
/// service and each dropped one is cleaned off its holder — whoever the
/// data service's subscriptions list when the move is decided, which the
/// diff's `old` (where the plan last put the node) need not be: a
/// subscription made before the first plan, or an event pass since, may
/// hold it elsewhere. Returns the moves that had a donor.
fn apply_plan_diff(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    diff: &crate::sched::incremental::PlanDiff,
) -> Vec<(NodeId, RenderServiceId, RenderServiceId)> {
    let mut moves = MoveBatch::new(ds_id);
    for &(node, old, to) in &diff.moved {
        let scene = &sim.world.data(ds_id).scene;
        let cost = scene.node(node).map(|n| n.own_cost()).unwrap_or(NodeCost::ZERO);
        // The basis lists no service off the network, so the diff moves
        // nothing to one and no move is refused.
        let _ = moves.move_node(sim, node, old, to, &cost);
    }
    for &(node, from) in &diff.dropped {
        moves.uninstall_node(sim, node, from);
    }
    moves.moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;
    use crate::world::RaveWorld;
    use crate::RaveConfig;
    use rave_math::{Vec3, Viewport};
    use rave_render::OffscreenMode;
    use rave_scene::{CameraParams, MeshData, NodeKind, SceneTree, SceneUpdate};
    use rave_sim::Simulation;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn mesh(tris: usize) -> NodeKind {
        NodeKind::Mesh(Arc::new(MeshData {
            positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
            normals: vec![],
            colors: vec![],
            triangles: vec![[0, 1, 2]; tris],
            texture_bytes: 0,
        }))
    }

    fn overload_world() -> (RaveSim, DataServiceId, RenderServiceId, RenderServiceId) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 11));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let slow = sim.world.spawn_render_service("laptop");
        let fast = sim.world.spawn_render_service("onyx");
        let (big, small) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            let big = scene.add_node(root, "big", mesh(600_000)).unwrap();
            let small = scene.add_node(root, "small", mesh(40_000)).unwrap();
            (big, small)
        };
        {
            let replica = sim.world.data(ds).scene.clone();
            let rs = sim.world.render_mut(slow);
            rs.scene = replica;
            rs.interest = InterestSet::subtrees([big, small]);
            rs.open_session(
                crate::ids::ClientId(1),
                Viewport::new(200, 200),
                CameraParams::default(),
                OffscreenMode::Sequential,
            );
        }
        sim.world.data_mut(ds).subscribe_live(slow, InterestSet::subtrees([big, small]));
        sim.world.data_mut(ds).subscribe_live(fast, InterestSet::subtrees([]));
        (sim, ds, slow, fast)
    }

    fn make_overloaded(sim: &mut RaveSim, rs: RenderServiceId) {
        for i in 0..6 {
            let t = SimTime::from_secs(i as f64 * 0.5);
            sim.world.render_mut(rs).record_frame(t, 10);
        }
    }

    #[test]
    fn overload_events_flow_through_the_engine_with_decisions() {
        let (mut sim, ds, slow, fast) = overload_world();
        make_overloaded(&mut sim, slow);
        let events = detect_overload(&mut sim, ds);
        assert_eq!(events, vec![SchedEvent::Overload { service: slow }]);
        let outcome = process_events(&mut sim, ds, &events);
        assert!(outcome.acted());
        assert!(outcome.moved.iter().all(|(_, from, to)| *from == slow && *to == fast));
        // Every placement decision is on the SchedDecision stream.
        assert_eq!(
            sim.world.trace.count(TraceKind::SchedDecision),
            outcome.moved.len(),
            "{}",
            sim.world.trace.render()
        );
        let row = &sim.world.trace.first_of(TraceKind::SchedDecision).unwrap().event;
        let TraceEvent::SchedDecision { row: decision } = row else { unreachable!() };
        assert_eq!(decision.trigger, "Overload");
        assert!(decision.candidates.iter().any(|&(service, _)| service == fast), "{row}");
    }

    #[test]
    fn one_batch_never_moves_a_node_twice() {
        let (mut sim, ds, slow, fast) = overload_world();
        make_overloaded(&mut sim, slow);
        // A synthetic pathological batch: the same overload event twice.
        let events =
            [SchedEvent::Overload { service: slow }, SchedEvent::Overload { service: slow }];
        let outcome = process_events(&mut sim, ds, &events);
        let mut seen = BTreeSet::new();
        for (node, _, _) in &outcome.moved {
            assert!(seen.insert(*node), "node {node} moved twice in one batch");
        }
        let _ = fast;
    }

    /// A subscriber whose host is off the network is sent nothing, so no
    /// pass chooses it as a receiver, and a move to it is refused before
    /// the data service's interest table changes.
    #[test]
    fn a_receiver_off_the_network_is_never_chosen_and_a_move_to_it_is_refused() {
        let (mut sim, ds, slow, fast) = overload_world();
        sim.world.data_mut(ds).unsubscribe(fast);
        let unplugged = sim.world.spawn_render_service("unplugged");
        sim.world.data_mut(ds).subscribe_live(unplugged, InterestSet::subtrees([]));
        let node = sim.world.data(ds).subscribers()[&slow].roots().next().unwrap();
        let cost = sim.world.data(ds).scene.subtree_cost(node);
        let (interests, rows) =
            (sim.world.data(ds).subscribers().clone(), sim.world.trace.recorded());
        let refused = MoveBatch::new(ds).move_node(&mut sim, node, Some(slow), unplugged, &cost);
        let host = "unplugged".to_string();
        assert_eq!(refused, Err(MoveRefused::OffNetwork { to: unplugged, host }));
        assert!(sim.world.data(ds).subscribers() == &interests, "the move changed the table");
        assert_eq!(sim.world.trace.recorded(), rows);

        make_overloaded(&mut sim, slow);
        let outcome = process_events(&mut sim, ds, &[SchedEvent::Overload { service: slow }]);
        sim.run();
        assert!(!outcome.moved.is_empty(), "the recruit on the network took the excess");
        assert!(outcome.moved.iter().all(|&(_, _, to)| to == fast), "{outcome:?}");
        assert_eq!(sim.world.data(ds).subscribers()[&unplugged].roots().count(), 0);
    }

    #[test]
    fn failure_event_rehomes_and_forgets_throughput() {
        let (mut sim, ds, slow, fast) = overload_world();
        sim.world.sched.throughput.record(slow, 1000, 1.0);
        let outcome = process_events(&mut sim, ds, &[SchedEvent::Failure { service: slow }]);
        sim.run();
        assert!(!outcome.refused);
        assert!(outcome.moved.iter().all(|(_, from, to)| *from == slow && *to == fast));
        assert!(sim.world.sched.throughput.throughput(slow).is_none());
        assert!(sim.world.trace.count(TraceKind::SchedDecision) >= 1);
    }

    #[test]
    fn a_failed_service_is_forgotten_by_either_path() {
        for incremental in [false, true] {
            let (mut sim, ds, slow, _) = overload_world();
            sim.world.sched.throughput.record(slow, 1000, 1.0);
            sim.world.sched.drift_pending.insert(slow);
            sim.world.sched.underload_since.insert(slow, SimTime::ZERO);
            let events = [SchedEvent::Failure { service: slow }];
            if incremental {
                incremental_replan(&mut sim, ds, &events);
            } else {
                process_events(&mut sim, ds, &events);
            }
            let sched = &sim.world.sched;
            assert!(sched.throughput.throughput(slow).is_none(), "incremental={incremental}");
            assert!(!sched.drift_pending.contains(&slow), "incremental={incremental}");
            assert!(!sched.underload_since.contains_key(&slow), "incremental={incremental}");
            assert!(!sim.world.render_services.contains_key(&slow));
            assert_eq!(sim.world.trace.count(TraceKind::Failure), 1, "one failure row");
            assert_eq!(sim.world.trace.count(TraceKind::Overload), 0, "and no overload row");
        }
    }

    #[test]
    fn events_on_dead_services_are_ignored() {
        let (mut sim, ds, slow, _) = overload_world();
        sim.world.data_mut(ds).unsubscribe(slow);
        sim.world.render_services.remove(&slow);
        let outcome = process_events(
            &mut sim,
            ds,
            &[
                SchedEvent::Overload { service: slow },
                SchedEvent::Underload { service: slow },
                SchedEvent::Failure { service: slow },
            ],
        );
        assert!(!outcome.acted());
        assert!(!outcome.refused);
    }

    #[test]
    fn cost_drift_sheds_like_overload() {
        let (mut sim, ds, slow, fast) = overload_world();
        // The laptop advertises ~1e7 polys/s but measures far below the
        // drift ratio: the scheduler re-plans without waiting for the fps
        // threshold to trip.
        let expected = {
            let cfg = sim.world.config.clone();
            sim.world.render(slow).capacity_report(&cfg).polys_per_sec
        };
        sim.world.sched.throughput.record(slow, (expected * 0.01) as u64, 1.0);
        // First pass arms the hysteresis; the event fires when the drift
        // persists into the second consecutive pass.
        assert!(detect_cost_drift(&mut sim, ds).is_empty(), "first observation only arms");
        let events = detect_cost_drift(&mut sim, ds);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], SchedEvent::CostDrift { service, .. } if service == slow));
        let outcome = process_events(&mut sim, ds, &events);
        assert!(outcome.acted(), "drifting service sheds work");
        assert!(outcome.moved.iter().all(|(_, from, to)| *from == slow && *to == fast));
    }

    #[test]
    fn cost_drift_hysteresis_filters_oscillation() {
        let (mut sim, ds, slow, _) = overload_world();
        let expected = {
            let cfg = sim.world.config.clone();
            sim.world.render(slow).capacity_report(&cfg).polys_per_sec
        };
        // Drift observed once: armed, no event.
        sim.world.sched.throughput.record(slow, (expected * 0.01) as u64, 1.0);
        assert!(detect_cost_drift(&mut sim, ds).is_empty());
        // The EWMA jitters back above the ratio: disarmed, no event.
        sim.world.sched.throughput.forget(slow);
        sim.world.sched.throughput.record(slow, expected as u64, 1.0);
        assert!(detect_cost_drift(&mut sim, ds).is_empty());
        // Drifts again: only arms again — the oscillation never fired.
        sim.world.sched.throughput.forget(slow);
        sim.world.sched.throughput.record(slow, (expected * 0.01) as u64, 1.0);
        assert!(detect_cost_drift(&mut sim, ds).is_empty(), "re-arm after recovery");
        // Persisting for a second consecutive pass finally fires.
        assert_eq!(detect_cost_drift(&mut sim, ds).len(), 1);
    }

    #[test]
    fn incremental_replan_builds_applies_and_defers() {
        let (mut sim, ds, _slow, _fast) = overload_world();
        // First pass: no plan exists, so the whole scene is packed.
        let out = incremental_replan(&mut sim, ds, &[]);
        assert!(!out.deferred);
        assert!(!out.migration.refused);
        let diff = out.diff.expect("first pass builds the plan");
        assert!(diff.full_replay);
        assert!(!diff.moved.is_empty());
        assert!(diff.moved.iter().all(|&(_, old, _)| old.is_none()), "first placements install");
        sim.run();
        // Every planned workload landed as an interest root on its service.
        for &(node, _, to) in &diff.moved {
            assert!(
                sim.world.render(to).interest.roots().any(|r| r == node),
                "node {node} missing from {to} interest"
            );
        }
        // A clean second pass defers: nothing is dirty.
        let out = incremental_replan(&mut sim, ds, &[]);
        assert!(out.deferred);
        assert!(out.diff.is_none());
        // Removing a planned node drops it from the plan and its holder.
        let &(gone, _, holder) = diff.moved.last().unwrap();
        let _ = sim.world.data_mut(ds).scene.remove(gone);
        let out = incremental_replan(&mut sim, ds, &[]);
        let diff = out.diff.expect("removal replans");
        assert!(
            diff.dropped.iter().any(|&(n, from)| n == gone && from == holder),
            "removed node must be dropped from its holder: {diff:?}"
        );
        assert!(!sim.world.render(holder).interest.roots().any(|r| r == gone));
    }

    /// A receiver torn down while a subtree is on the wire to it: the
    /// arrival finds nobody and lands nothing, and the failure's own
    /// re-homing (the data service already counted the node as the dead
    /// service's) leaves it with exactly one survivor.
    #[test]
    fn a_receiver_that_fails_with_a_subtree_in_flight_is_skipped() {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 11));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        // Equal machines, so the worst-fit replay spreads the nodes.
        let services = ["desktop", "adrenochrome", "desktop"].map(|host| {
            let rs = sim.world.spawn_render_service(host);
            sim.world.data_mut(ds).subscribe_live(rs, InterestSet::subtrees([]));
            sim.world.render_mut(rs).interest = InterestSet::subtrees([]);
            rs
        });
        let nodes: Vec<NodeId> = (0..6)
            .map(|i| {
                let scene = &mut sim.world.data_mut(ds).scene;
                scene.add_node(scene.root(), format!("n{i}"), mesh(20_000 + i)).unwrap()
            })
            .collect();
        incremental_replan(&mut sim, ds, &[]).diff.expect("first pass plans");
        sim.run();
        let holders = |sim: &RaveSim, node: NodeId| -> Vec<RenderServiceId> {
            let live = services.iter().filter(|rs| sim.world.render_services.contains_key(rs));
            live.filter(|rs| sim.world.render(**rs).scene.contains(node)).copied().collect()
        };

        // A cost edit whose replay hands some node to another service.
        sim.world.data_mut(ds).scene.node_mut(nodes[5]).unwrap().set_kind(mesh(300_000));
        let diff = incremental_replan(&mut sim, ds, &[]).diff.expect("cost edit replans");
        let &(node, from, fast) = diff.moved.first().expect("the edit moves work");
        let from = from.expect("a move, not a first placement");
        assert_eq!(holders(&sim, node), [from], "the subtree is on the wire to {fast}");

        let outcome = process_events(&mut sim, ds, &[SchedEvent::Failure { service: fast }]);
        assert!(outcome.moved.iter().any(|&(n, dead, _)| n == node && dead == fast));
        sim.run();
        let held = holders(&sim, node);
        assert_eq!(held.len(), 1, "node {node} held by {held:?}\n{}", sim.world.trace.render());
        assert!(sim.world.render(held[0]).interest.roots().any(|r| r == node));
    }

    /// A plan diff moves a node away from whoever holds it, which the data
    /// service's subscriptions say and the plan's memory need not:
    /// (1) the first plan finds `slow` already holding both meshes through
    /// its subscription; (2) a failure handled by the event path re-homes
    /// the dead service's share behind the plan's back, and the next replan
    /// — its receiver has since drifted — moves it on from there.
    #[test]
    fn a_plan_diff_moves_a_node_away_from_whoever_holds_it() {
        let (mut sim, ds, slow, _fast) = overload_world();
        let tower = sim.world.spawn_render_service("tower");
        sim.world.data_mut(ds).subscribe_live(tower, InterestSet::subtrees([]));
        sim.world.render_mut(tower).interest = InterestSet::subtrees([]);
        let nodes: Vec<NodeId> = sim.world.data(ds).subscribers()[&slow].roots().collect();
        // Each node on one live service: in its scene, its replica's
        // interest roots and its subscription alike. Returns the holders.
        let held_once = |sim: &RaveSim, when: &str| -> Vec<RenderServiceId> {
            let trace = sim.world.trace.render();
            let services = &sim.world.render_services;
            let subscribers = sim.world.data(ds).subscribers();
            nodes
                .iter()
                .map(|&node| {
                    let held = |interest: &InterestSet| interest.roots().any(|r| r == node);
                    let in_scene: Vec<RenderServiceId> = services
                        .iter()
                        .filter(|(_, rs)| rs.scene.contains(node))
                        .map(|s| *s.0)
                        .collect();
                    let in_interest: Vec<RenderServiceId> = services
                        .iter()
                        .filter(|(_, rs)| held(&rs.interest))
                        .map(|s| *s.0)
                        .collect();
                    let subscribed: Vec<RenderServiceId> = subscribers
                        .iter()
                        .filter(|(_, interest)| held(interest))
                        .map(|s| *s.0)
                        .collect();
                    assert_eq!(in_scene.len(), 1, "{when}: node {node} in {in_scene:?}\n{trace}");
                    assert_eq!(in_interest, in_scene, "{when}: node {node}\n{trace}");
                    assert_eq!(subscribed, in_scene, "{when}: node {node}\n{trace}");
                    in_scene[0]
                })
                .collect()
        };

        let first = incremental_replan(&mut sim, ds, &[]).diff.expect("the first pass plans");
        assert!(first.moved.iter().all(|&(_, old, _)| old.is_none()), "{first:?}");
        sim.run();
        let holders = held_once(&sim, "first plan");
        assert!(!holders.contains(&slow), "{holders:?}");

        let victim = holders[1];
        let outcome = process_events(&mut sim, ds, &[SchedEvent::Failure { service: victim }]);
        assert!(outcome.moved.iter().any(|&(n, from, _)| n == nodes[1] && from == victim));
        sim.run();
        let rehomed = held_once(&sim, "failure");

        let rate = sim.world.render(rehomed[1]).machine.poly_rate;
        sim.world.sched.throughput.record(rehomed[1], (rate * 0.3) as u64, 1.0);
        let replan = incremental_replan(&mut sim, ds, &[]).diff.expect("the basis changed");
        let &(_, old, to) = replan.moved.iter().find(|m| m.0 == nodes[1]).expect("replanned");
        assert_eq!(old, Some(victim), "the plan still remembers the dead holder");
        assert_ne!(to, rehomed[1], "the replan moves the node on: {replan:?}");
        sim.run();
        held_once(&sim, "replan after the failure");
    }

    /// A donor whose last root moves away keeps nothing of the chain that
    /// oriented it; the receiver holds the root under its chain.
    #[test]
    fn a_donor_drops_the_chain_of_the_root_it_gave_away() {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 11));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let (group, node) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let group = scene.add_node(scene.root(), "group", NodeKind::Group).unwrap();
            (group, scene.add_node(group, "mesh", mesh(1_000)).unwrap())
        };
        let donor = sim.world.spawn_render_service("laptop");
        let receiver = sim.world.spawn_render_service("onyx");
        for (rs, roots) in [(donor, vec![node]), (receiver, vec![])] {
            crate::bootstrap::connect_render_service(
                &mut sim,
                rs,
                ds,
                InterestSet::subtrees(roots),
            );
        }
        sim.run();
        assert!(sim.world.render(donor).scene.contains(group), "the chain orients `node`");
        let cost = sim.world.data(ds).scene.subtree_cost(node);
        MoveBatch::new(ds).move_node(&mut sim, node, Some(donor), receiver, &cost).unwrap();
        sim.run();
        let scene = &sim.world.render(donor).scene;
        assert_eq!(scene.descendants(scene.root()), [scene.root()]);
        let scene = &sim.world.render(receiver).scene;
        assert_eq!(scene.descendants(scene.root()), [scene.root(), group, node]);
    }

    /// A node a subset replica holds only to orient its root is content
    /// once it is moved there: the receiver holds it as the master does,
    /// payload and all, whether its payload was there when the receiver
    /// bootstrapped or came after, as a `ReplaceKind` the receiver took
    /// as a version write.
    #[test]
    fn a_node_moved_onto_a_replica_that_held_it_for_orientation_takes_its_payload() {
        for edited_live in [false, true] {
            let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 11));
            let ds = sim.world.spawn_data_service("adrenochrome", "sess");
            let first = if edited_live { NodeKind::Group } else { mesh(500) };
            let (group, leaf) = {
                let scene = &mut sim.world.data_mut(ds).scene;
                let group = scene.add_node(scene.root(), "group", first).unwrap();
                (group, scene.add_node(group, "leaf", mesh(10)).unwrap())
            };
            let receiver = sim.world.spawn_render_service("onyx");
            let interest = InterestSet::subtrees([leaf]);
            crate::bootstrap::connect_render_service(&mut sim, receiver, ds, interest);
            sim.run();
            if edited_live {
                let update = SceneUpdate::ReplaceKind { id: group, kind: mesh(500) };
                crate::world::publish_update(&mut sim, ds, "user", update).unwrap();
                sim.run();
            }
            let held = sim.world.render(receiver).scene.node(group).unwrap();
            assert_eq!(held.kind_tag(), rave_scene::KindTag::Group, "held to orient `leaf`");
            let cost = sim.world.data(ds).scene.subtree_cost(group);
            MoveBatch::new(ds).move_node(&mut sim, group, None, receiver, &cost).unwrap();
            sim.run();
            let master = sim.world.data(ds).scene.node(group).unwrap();
            let held = sim.world.render(receiver).scene.node(group).unwrap();
            let state = |n: rave_scene::NodeRef<'_>| (n.kind().clone(), n.version());
            assert_eq!(state(held), state(master), "edited live: {edited_live}");
            assert_eq!(sim.world.render(receiver).assigned_cost(), cost);
        }
    }

    /// A `ReplaceKind` of a node being moved onto a replica that holds it
    /// to orient a root, published while the parcel is on the wire, lands
    /// after the parcel: the receiver lists the node by then and holds it
    /// as the master does, not as a version write of the `Group` it held.
    #[test]
    fn a_replace_kind_published_while_a_parcel_is_in_flight_reaches_the_receiver() {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 11));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let (group, leaf) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let group = scene.add_node(scene.root(), "group", NodeKind::Group).unwrap();
            (group, scene.add_node(group, "leaf", mesh(400_000)).unwrap())
        };
        let receiver = sim.world.spawn_render_service("onyx");
        let interest = InterestSet::subtrees([leaf]);
        crate::bootstrap::connect_render_service(&mut sim, receiver, ds, interest);
        sim.run();
        let cost = sim.world.data(ds).scene.subtree_cost(group);
        MoveBatch::new(ds).move_node(&mut sim, group, None, receiver, &cost).unwrap();
        sim.run_until(sim.now() + SimTime::from_secs(0.01));
        let update = SceneUpdate::ReplaceKind { id: group, kind: mesh(500) };
        crate::world::publish_update(&mut sim, ds, "user", update).unwrap();
        sim.run();
        let state = |n: rave_scene::NodeRef<'_>| (n.kind_tag(), n.own_cost().polygons, n.version());
        let master = sim.world.data(ds).scene.node(group).map(state);
        let held = sim.world.render(receiver).scene.node(group).map(state);
        assert_eq!(held, master);
    }

    /// A rename of a leaf inside a moved subtree, which the receiver never
    /// held, published while the parcel is on the wire: it lands after the
    /// parcel, not before it as an update of a node the receiver does not
    /// hold, and the receiver names the leaf as the master does.
    #[test]
    fn a_rename_published_while_its_subtree_is_in_flight_reaches_the_receiver() {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 11));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let (group, leaf) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let group = scene.add_node(scene.root(), "group", mesh(400_000)).unwrap();
            (group, scene.add_node(group, "leaf", NodeKind::Group).unwrap())
        };
        let receiver = sim.world.spawn_render_service("onyx");
        let nothing = InterestSet::subtrees([]);
        crate::bootstrap::connect_render_service(&mut sim, receiver, ds, nothing);
        sim.run();
        let cost = sim.world.data(ds).scene.subtree_cost(group);
        MoveBatch::new(ds).move_node(&mut sim, group, None, receiver, &cost).unwrap();
        sim.run_until(sim.now() + SimTime::from_secs(0.01));
        assert!(!sim.world.render(receiver).scene.contains(leaf), "the parcel is on the wire");
        let rename = SceneUpdate::SetName { id: leaf, name: "renamed in flight".into() };
        crate::world::publish_update(&mut sim, ds, "user", rename).unwrap();
        sim.run();
        let state = |n: rave_scene::NodeRef<'_>| (n.name().to_string(), n.version());
        let master = sim.world.data(ds).scene.node(leaf).map(state);
        let held = sim.world.render(receiver).scene.node(leaf).map(state);
        assert_eq!(held, master);
    }

    /// A parcel sent while an update to its receiver is still on the wire
    /// lands behind it, as any message on the stream does: the update, whose
    /// effect the parcel holds already, is not applied over it a second time.
    #[test]
    fn a_parcel_lands_behind_an_update_still_on_the_wire() {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 11));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let (held, placed) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let held = scene.add_node(scene.root(), "held", NodeKind::Group).unwrap();
            (held, scene.add_node(scene.root(), "placed", NodeKind::Group).unwrap())
        };
        let receiver = sim.world.spawn_render_service("tower");
        let interest = InterestSet::subtrees([held]);
        crate::bootstrap::connect_render_service(&mut sim, receiver, ds, interest);
        sim.run();
        let root = sim.world.data(ds).scene.root();
        let rename = SceneUpdate::SetName { id: root, name: "r".repeat(100_000) };
        crate::world::publish_update(&mut sim, ds, "user", rename).unwrap();
        let cost = sim.world.data(ds).scene.subtree_cost(placed);
        MoveBatch::new(ds).move_node(&mut sim, placed, None, receiver, &cost).unwrap();
        sim.run();
        let root_state = |scene: &SceneTree| {
            let r = scene.node(scene.root()).unwrap();
            (r.name().len(), r.version())
        };
        let replica = &sim.world.render(receiver).scene;
        assert!(replica.contains(placed));
        assert_eq!(root_state(replica), root_state(&sim.world.data(ds).scene));
    }

    /// A root `SetTransform` published while a migration's parcel is on
    /// the wire waits behind the parcel, cut before it, and leaves the
    /// receiver's root as the master's. Both services bootstrapped after
    /// the root had already moved once.
    #[test]
    fn a_root_update_published_while_a_parcel_is_in_flight_lands_after_it() {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 11));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let node = {
            let scene = &mut sim.world.data_mut(ds).scene;
            scene.add_node(scene.root(), "mesh", mesh(400_000)).unwrap()
        };
        let root = sim.world.data(ds).scene.root();
        let move_root = |sim: &mut RaveSim, x: f32| {
            let transform = rave_scene::Transform::from_translation(Vec3::new(x, 0.0, 0.0));
            let update = SceneUpdate::SetTransform { id: root, transform };
            crate::world::publish_update(sim, ds, "user", update).unwrap();
        };
        move_root(&mut sim, 5.0);
        let donor = sim.world.spawn_render_service("laptop");
        let receiver = sim.world.spawn_render_service("onyx");
        for (rs, roots) in [(donor, vec![node]), (receiver, vec![])] {
            crate::bootstrap::connect_render_service(
                &mut sim,
                rs,
                ds,
                InterestSet::subtrees(roots),
            );
        }
        sim.run();
        let cost = sim.world.data(ds).scene.subtree_cost(node);
        MoveBatch::new(ds).move_node(&mut sim, node, Some(donor), receiver, &cost).unwrap();
        move_root(&mut sim, 7.0);
        let root_state = |scene: &SceneTree| {
            let r = scene.node(scene.root()).unwrap();
            (r.transform(), r.version())
        };
        let master = root_state(&sim.world.data(ds).scene);
        assert_eq!(master.1, 2);
        sim.run_until(sim.now() + SimTime::from_secs(0.05));
        let scene = &sim.world.render(receiver).scene;
        assert!(!scene.contains(node), "the parcel is still on the wire");
        assert_eq!(root_state(scene).1, 1, "the root update waits behind the parcel");
        sim.run();
        let scene = &sim.world.render(receiver).scene;
        assert!(scene.contains(node), "the parcel has landed");
        assert_eq!(root_state(scene), master);
    }

    /// The interest index as the service keeps it routes an update of
    /// every node as the naive scan does, on the index it had
    /// `generation` rebuilds ago.
    fn assert_index_patched(sim: &RaveSim, ds: DataServiceId, generation: u64) {
        let mut probe = sim.world.data(ds).clone();
        let nodes = probe.scene.descendants(probe.scene.root());
        for node in nodes {
            let update = rave_scene::SceneUpdate::SetName { id: node, name: "probe".into() };
            let stamped = Arc::new(probe.stamp("probe", update));
            assert_eq!(probe.route(&stamped), probe.route_naive(&stamped), "node {node}");
        }
        assert_eq!(probe.index_generation(), generation, "routed on the index it had");
    }

    /// One routed update: the interest index is built.
    fn route_once(sim: &mut RaveSim, ds: DataServiceId) -> u64 {
        let root = sim.world.data(ds).scene.root();
        let rename = rave_scene::SceneUpdate::SetName { id: root, name: "routed".into() };
        crate::world::publish_update(sim, ds, "t", rename).unwrap();
        sim.world.data(ds).index_generation()
    }

    #[test]
    fn a_plan_diff_patches_the_index_in_place() {
        let (mut sim, ds, _slow, _fast) = overload_world();
        // A subscriber the diff never touches, and enough small nodes that
        // the moves outnumber the services.
        let idle = sim.world.spawn_render_service("tower");
        sim.world.data_mut(ds).subscribe_live(idle, InterestSet::subtrees([]));
        for i in 0..8 {
            let scene = &mut sim.world.data_mut(ds).scene;
            scene.add_node(scene.root(), format!("n{i}"), mesh(1_000 + i)).unwrap();
        }
        let generation = route_once(&mut sim, ds);

        let diff = incremental_replan(&mut sim, ds, &[]).diff.expect("first pass plans");
        assert!(diff.moved.len() > sim.world.data(ds).subscribers().len());
        assert_index_patched(&sim, ds, generation);
        sim.run();

        // A cost edit moves placed nodes between services: the same.
        let edited = diff.moved[0].0;
        sim.world.data_mut(ds).scene.node_mut(edited).unwrap().set_kind(mesh(300_000));
        let diff = incremental_replan(&mut sim, ds, &[]).diff.expect("cost edit replans");
        assert!(!diff.moved.is_empty());
        assert_index_patched(&sim, ds, generation);
    }

    #[test]
    fn an_event_batch_patches_the_index_in_place() {
        let (mut sim, ds, slow, fast) = overload_world();
        make_overloaded(&mut sim, slow);
        let generation = route_once(&mut sim, ds);
        let outcome = process_events(&mut sim, ds, &[SchedEvent::Overload { service: slow }]);
        assert!(outcome.moved.iter().all(|&(_, from, to)| (from, to) == (slow, fast)));
        assert!(!outcome.moved.is_empty());
        assert_index_patched(&sim, ds, generation);
        // A failure changes the population: one rebuild, at the next route.
        process_events(&mut sim, ds, &[SchedEvent::Failure { service: slow }]);
        assert_eq!(sim.world.data(ds).subscriber_ids(), [fast], "only {fast} is left");
        assert_index_patched(&sim, ds, generation + 1);
    }

    #[test]
    fn overload_and_drift_for_one_service_shed_once() {
        // A batch carrying both `Overload` and `CostDrift` for the same
        // service must shed exactly what `Overload` alone sheds — not
        // twice through `handle_overload`.
        let moved_with = |extra_drift: bool| {
            let (mut sim, ds, slow, _) = overload_world();
            make_overloaded(&mut sim, slow);
            let mut events = vec![SchedEvent::Overload { service: slow }];
            if extra_drift {
                events.push(SchedEvent::CostDrift {
                    service: slow,
                    measured: 1.0,
                    expected: 100.0,
                });
            }
            let mut moved = process_events(&mut sim, ds, &events).moved;
            moved.sort();
            moved
        };
        let baseline = moved_with(false);
        assert!(!baseline.is_empty());
        assert_eq!(moved_with(true), baseline, "duplicate shed events must coalesce");
    }

    /// Every detector's events for one pass, in the order a full
    /// incremental pass gathers them.
    fn detect_all(sim: &mut RaveSim, ds: DataServiceId) -> Vec<SchedEvent> {
        let mut events = detect_overload(sim, ds);
        events.extend(detect_underload(sim, ds));
        events.extend(detect_cost_drift(sim, ds));
        events
    }

    #[test]
    fn overload_sheds_to_spare_capacity() {
        let (mut sim, ds, slow, fast) = overload_world();
        make_overloaded(&mut sim, slow);
        let events = detect_overload(&mut sim, ds);
        let outcome = process_events(&mut sim, ds, &events);
        assert!(outcome.acted(), "migration must act on overload");
        assert!(!outcome.refused);
        assert!(outcome.moved.iter().all(|(_, from, to)| *from == slow && *to == fast));
        sim.run();
        // Replicas updated: fast now holds content, slow holds less.
        let fast_polys = sim.world.render(fast).assigned_cost().polygons;
        assert!(fast_polys > 0, "receiver got content");
        let slow_polys = sim.world.render(slow).assigned_cost().polygons;
        assert!(slow_polys < 640_000);
        assert_eq!(sim.world.trace.count(TraceKind::Overload), 1);
        assert!(sim.world.trace.count(TraceKind::Migration) >= 1);
    }

    /// Camera motion between two rebalance passes is not a reason to
    /// replan: 600 moves (more than the scene's edit journal holds) must
    /// not read as "everything changed" to the second pass.
    #[test]
    fn camera_motion_between_passes_does_not_rebuild_the_plan() {
        use crate::collaboration::{join_session, session_tick};
        let (mut sim, ds, _slow, _fast) = overload_world();
        let labels: Vec<String> = (0..8).map(|i| format!("user{i}")).collect();
        let crowd: Vec<_> = labels
            .iter()
            .map(|l| join_session(&mut sim, ds, l, Vec3::ONE, CameraParams::default()).unwrap())
            .collect();
        let events = detect_all(&mut sim, ds);
        let first = incremental_replan(&mut sim, ds, &events);
        assert!(first.diff.expect("the first pass builds the plan").full_replay);
        sim.run();

        for tick in 0..75 {
            let eye = Vec3::new(tick as f32, 2.0, 9.0);
            let camera = CameraParams::look_at(eye, Vec3::ZERO, Vec3::Y);
            let moves: Vec<_> =
                crowd.iter().zip(&labels).map(|(&who, l)| (who, l.as_str(), camera)).collect();
            session_tick(&mut sim, ds, &moves).unwrap();
            sim.run();
        }
        let events = detect_all(&mut sim, ds);
        let second = incremental_replan(&mut sim, ds, &events);
        assert!(!second.migration.acted() && !second.migration.refused);
        if let Some(diff) = second.diff {
            assert!(!second.deferred);
            assert!(diff.is_empty(), "no edit touched the plan: {diff:?}");
            assert_eq!((diff.replayed, diff.full_replay), (0, false), "{diff:?}");
        }
    }

    #[test]
    fn no_action_when_healthy() {
        let (mut sim, ds, slow, _) = overload_world();
        // Fast frames: healthy.
        for i in 0..6 {
            sim.world.render_mut(slow).record_frame(SimTime::from_secs(i as f64 * 0.02), 10);
        }
        let events = detect_overload(&mut sim, ds);
        let outcome = process_events(&mut sim, ds, &events);
        assert!(!outcome.acted());
    }

    #[test]
    fn shed_selection_is_fine_grained() {
        let mut scene = SceneTree::new();
        let root = scene.root();
        let tiny = scene.add_node(root, "tiny", mesh(5_000)).unwrap();
        let big = scene.add_node(root, "big", mesh(100_000)).unwrap();
        // Excess of 4k polygons: shedding the tiny node suffices; the big
        // one must stay.
        let shed = select_nodes_to_shed(&scene, &[tiny, big], 4_000);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0, tiny);
    }

    #[test]
    fn recruitment_via_uddi_when_no_connected_capacity() {
        let (mut sim, ds, slow, fast) = overload_world();
        // Saturate the fast service so nothing fits there.
        {
            let rs = sim.world.render_mut(fast);
            let root = rs.scene.root();
            rs.scene.add_node(root, "filler", mesh(3_000_000)).unwrap();
        }
        // Spawn an unconnected render service for UDDI to find.
        let fresh = sim.world.spawn_render_service("tower");
        make_overloaded(&mut sim, slow);
        let events = detect_overload(&mut sim, ds);
        let outcome = process_events(&mut sim, ds, &events);
        assert_eq!(outcome.recruited, vec![fresh]);
        assert!(sim.world.trace.count(TraceKind::Recruitment) == 1);
        sim.run();
        // The recruit ends up subscribed.
        assert!(sim.world.data(ds).subscribers().contains_key(&fresh));
    }

    /// A recruit given migrated work is sent that work's updates:
    /// `recruit_unconnected` subscribes it before the re-homing moves the
    /// shards to it, so `move_interest_root(.., Some(recruit))` lists them.
    #[test]
    fn a_recruit_is_sent_updates_for_the_work_it_was_given() {
        let (mut sim, ds, slow, fast) = overload_world();
        {
            let rs = sim.world.render_mut(fast);
            let root = rs.scene.root();
            rs.scene.add_node(root, "filler", mesh(3_000_000)).unwrap();
        }
        let fresh = sim.world.spawn_render_service("tower");
        make_overloaded(&mut sim, slow);
        let events = detect_overload(&mut sim, ds);
        let outcome = process_events(&mut sim, ds, &events);
        assert_eq!(outcome.recruited, vec![fresh]);
        sim.run();
        let given: BTreeSet<NodeId> =
            outcome.moved.iter().filter(|m| m.2 == fresh).map(|m| m.0).collect();
        let node = *given.first().expect("work moved to the recruit");
        assert!(sim.world.render(fresh).scene.contains(node));
        let rename = SceneUpdate::SetName { id: node, name: "renamed".into() };
        crate::world::publish_update(&mut sim, ds, "user", rename).unwrap();
        sim.run();
        let name = sim.world.render(fresh).scene.node(node).map(|n| n.name().to_string());
        assert_eq!(name.as_deref(), Some("renamed"));
        let roots: BTreeSet<NodeId> = sim.world.data(ds).subscribers()[&fresh].roots().collect();
        assert_eq!(roots, given, "the recruit subscribes to what it holds");
    }

    #[test]
    fn refusal_when_nothing_available() {
        let (mut sim, ds, slow, fast) = overload_world();
        {
            let rs = sim.world.render_mut(fast);
            let root = rs.scene.root();
            rs.scene.add_node(root, "filler", mesh(3_000_000)).unwrap();
        }
        make_overloaded(&mut sim, slow);
        // No unconnected services exist: must refuse.
        let events = detect_overload(&mut sim, ds);
        let outcome = process_events(&mut sim, ds, &events);
        assert!(outcome.refused);
        assert_eq!(sim.world.trace.count(TraceKind::Refusal), 1);
    }

    #[test]
    fn failed_service_work_redistributes() {
        let (mut sim, ds, slow, fast) = overload_world();
        // `slow` holds both subtrees; kill it.
        let outcome = process_events(&mut sim, ds, &[SchedEvent::Failure { service: slow }]);
        sim.run();
        assert!(!outcome.refused);
        assert!(!outcome.moved.is_empty(), "orphans rehomed");
        assert!(outcome.moved.iter().all(|(_, from, to)| *from == slow && *to == fast));
        assert!(!sim.world.data(ds).subscribers().contains_key(&slow));
        assert!(!sim.world.render_services.contains_key(&slow));
        // Fast now holds the content.
        assert!(sim.world.render(fast).assigned_cost().polygons >= 640_000);
    }

    #[test]
    fn failure_recruits_when_survivors_are_full() {
        let (mut sim, ds, slow, fast) = overload_world();
        {
            let rs = sim.world.render_mut(fast);
            let root = rs.scene.root();
            rs.scene.add_node(root, "filler", mesh(3_000_000)).unwrap();
        }
        let fresh = sim.world.spawn_render_service("tower");
        let cfg = sim.world.config.clone();
        let room = sim.world.render(fresh).capacity_report(&cfg).poly_headroom;
        let outcome = process_events(&mut sim, ds, &[SchedEvent::Failure { service: slow }]);
        sim.run();
        assert_eq!(outcome.recruited, vec![fresh]);
        assert!(outcome.moved.iter().all(|(_, _, to)| *to == fresh));
        assert!(sim.world.render(fresh).assigned_cost().polygons > 0);
        // The recruit's decision rows score it by the room it reported,
        // less what already landed on it — not by the shard's own size.
        let scores: Vec<u64> = sim
            .world
            .trace
            .of_kind(TraceKind::SchedDecision)
            .filter_map(|e| match &e.event {
                TraceEvent::SchedDecision { row } => row.candidates.first().copied(),
                _ => None,
            })
            .filter_map(|(service, score)| (service == fresh).then_some(score))
            .collect();
        assert_eq!(scores, [room, room - 600_000]);
    }

    #[test]
    fn failure_of_full_replica_orphans_nothing() {
        let (mut sim, ds, _slow, fast) = overload_world();
        // Make `fast` a full replica, then kill it.
        sim.world.data_mut(ds).subscribe_live(fast, InterestSet::everything());
        let outcome = process_events(&mut sim, ds, &[SchedEvent::Failure { service: fast }]);
        assert!(!outcome.acted());
        assert!(!outcome.refused);
    }

    #[test]
    fn underload_rebalance_waits_for_debounce() {
        let (mut sim, ds, slow, fast) = overload_world();
        // Fast service renders very fast (underloaded); slow is the donor.
        for i in 0..6 {
            sim.world.render_mut(fast).record_frame(SimTime::from_secs(i as f64 * 0.01), 10);
        }
        let _ = slow;
        // First check: starts the debounce clock, no action.
        let events = detect_underload(&mut sim, ds);
        let o1 = process_events(&mut sim, ds, &events);
        assert!(!o1.acted(), "debounce holds immediate action");
        // Advance past the debounce window and check again.
        sim.schedule_in(SimTime::from_secs(6.0), |_| {});
        sim.run();
        let events = detect_underload(&mut sim, ds);
        let o2 = process_events(&mut sim, ds, &events);
        assert!(o2.acted(), "after debounce the rebalance moves work");
        assert!(o2.moved.iter().all(|(_, _, to)| *to == fast));
        // Receiver never overshoots its headroom.
        sim.run();
        let cfg = sim.world.config.clone();
        let fast_report = sim.world.render(fast).capacity_report(&cfg);
        assert!(fast_report.poly_headroom > 0 || fast_report.assigned.polygons > 0);
    }
}
