//! Event-driven rebalancing: every trigger that can change a placement —
//! overload (§3.2.7), sustained under-load, service failure (§6), and
//! measured-throughput drift — is one [`SchedEvent`], and every event in
//! a batch is handled through the same headroom ledger and movement
//! machinery. `migration.rs` is a thin adapter that detects conditions
//! and feeds the stream; the decisions themselves — considered
//! candidates, scores, chosen placement — are recorded as
//! [`crate::trace::TraceKind::SchedDecision`] events.

use crate::bootstrap::connect_render_service;
use crate::ids::{DataServiceId, RenderServiceId};
use crate::sched::placement::{DecisionRecord, Ledger};
use crate::trace::TraceKind;
use crate::world::RaveSim;
use rave_grid::TechnicalModel;
use rave_net::HostId;
use rave_scene::{InterestSet, NodeCost, NodeId, Parcel};
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

/// Bounded staleness [`incremental_replan`] passes to the planner: the
/// fraction of the planned weight that may sit dirty before a replan
/// (0.0 = replan on any dirt).
const MAX_STALENESS: f64 = 0.0;

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
        if let SchedEvent::Overload { service } = ev {
            sim.world.trace.record(
                now,
                TraceKind::Overload,
                format!(
                    "{service} at {:.1} fps (threshold {})",
                    sim.world.render(*service).rolling_fps().unwrap_or(0.0),
                    OVERLOAD_FPS
                ),
            );
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

/// Per-batch processing state: one ledger and one moved-set shared by
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
    /// Nodes already moved by an earlier event in this batch.
    moved_nodes: BTreeSet<NodeId>,
    /// The moves themselves.
    moves: MoveBatch,
}

/// Process a batch of [`SchedEvent`]s against one data service. Every
/// decision goes through the shared ledger and emits a `SchedDecision`
/// trace record with the considered candidates and chosen placement.
pub fn process_events(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    events: &[SchedEvent],
) -> MigrationOutcome {
    // Coalesce per service before handling: `Overload` and `CostDrift`
    // both shed through `handle_overload`, so a batch carrying both for
    // the same service would shed twice. The first event of each
    // (service, action) pair wins; later duplicates are dropped.
    let mut seen_shed = BTreeSet::new();
    let mut seen_pull = BTreeSet::new();
    let mut seen_dead = BTreeSet::new();
    let mut seen_ds_dead = BTreeSet::new();
    let events: Vec<SchedEvent> = events
        .iter()
        .copied()
        .filter(|ev| match ev {
            SchedEvent::Overload { service } | SchedEvent::CostDrift { service, .. } => {
                seen_shed.insert(*service)
            }
            SchedEvent::Underload { service } => seen_pull.insert(*service),
            SchedEvent::Failure { service } => seen_dead.insert(*service),
            SchedEvent::DataFailure { service } => seen_ds_dead.insert(*service),
        })
        .collect();
    let events = events.as_slice();
    let mut outcome = MigrationOutcome::default();
    let mut batch = Batch {
        overloaded: events
            .iter()
            .filter_map(|e| match e {
                SchedEvent::Overload { service } | SchedEvent::CostDrift { service, .. } => {
                    Some(*service)
                }
                _ => None,
            })
            .collect(),
        underloaded: events
            .iter()
            .filter_map(|e| match e {
                SchedEvent::Underload { service } => Some(*service),
                _ => None,
            })
            .collect(),
        ledger: None,
        donor: None,
        moved_nodes: BTreeSet::new(),
        moves: MoveBatch::new(ds_id),
    };
    for ev in events {
        match *ev {
            SchedEvent::Overload { service } => {
                handle_overload(sim, ds_id, service, &mut batch, &mut outcome, "Overload");
            }
            SchedEvent::CostDrift { service, measured, expected } => {
                let now = sim.now();
                sim.world.trace.record(
                    now,
                    TraceKind::Overload,
                    format!(
                        "{service} drifting: measured {measured:.0} vs advertised {expected:.0}"
                    ),
                );
                handle_overload(sim, ds_id, service, &mut batch, &mut outcome, "CostDrift");
            }
            SchedEvent::Underload { service } => {
                handle_underload(sim, ds_id, service, &mut batch, &mut outcome);
            }
            SchedEvent::Failure { service } => {
                handle_failure(sim, ds_id, service, &mut batch, &mut outcome);
            }
            SchedEvent::DataFailure { service } => {
                handle_data_failure(sim, service, &mut outcome);
            }
        }
    }
    outcome
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
        let report = crate::replica::promote_standby(sim, dead)
            .expect("warm promotion replays a verified log")
            .expect("link checked above");
        outcome.promotions.push(report);
        return;
    }
    let (host, store_dir, n_subs) = {
        let ds = sim.world.data(dead);
        (ds.host.clone(), ds.store_dir.clone(), ds.subscribers.len())
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
            residual_entries: 0,
            replayed_bytes: 0,
            // The store is lossless up to its last durable append;
            // anything past it died with the host and is unknowable here.
            lost_updates: 0,
            completed_at: now,
        });
        return;
    }
    let now = sim.now();
    sim.world.trace.record(
        now,
        TraceKind::Refusal,
        format!("{dead} failed with no standby and no durable store — session lost"),
    );
    outcome.refused = true;
}

fn trace_decision(sim: &mut RaveSim, record: &DecisionRecord, event: &str) {
    let now = sim.now();
    sim.world.trace.record(now, TraceKind::SchedDecision, record.detail(event));
}

/// Shed work from an overloaded (or drifting) service onto connected
/// services with headroom, recruiting via UDDI when that is not enough.
fn handle_overload(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    over_rs: RenderServiceId,
    batch: &mut Batch,
    outcome: &mut MigrationOutcome,
    event: &str,
) {
    let cfg = sim.world.config.clone();
    if !sim.world.render_services.contains_key(&over_rs) {
        return;
    }
    // How much must go: bring the service back inside its interactive
    // polygon budget.
    let (assigned, budget, roots) = {
        let rs = sim.world.render(over_rs);
        let pixels =
            rs.sessions.values().map(|s| s.viewport.pixel_count() as u64).max().unwrap_or(160_000);
        let budget = rs.machine.poly_budget_at_fps(cfg.target_fps, pixels);
        let roots: Vec<NodeId> = if rs.interest.is_everything() {
            rs.scene.node(rs.scene.root()).map(|root| root.children().collect()).unwrap_or_default()
        } else {
            rs.interest.roots().collect()
        };
        (rs.assigned_cost(), budget, roots)
    };
    let excess = assigned.polygons.saturating_sub(budget);
    if excess == 0 {
        return;
    }
    let shed: Vec<(NodeId, NodeCost)> =
        select_nodes_to_shed(&sim.world.render(over_rs).scene, &roots, excess)
            .into_iter()
            .filter(|(node, _)| !batch.moved_nodes.contains(node))
            .collect();

    // Receiving ledger: one interrogation pass per batch over connected
    // services that are not themselves overloaded, ordered most-spacious
    // first and debited (without re-sorting) as the batch places work.
    if batch.ledger.is_none() {
        let overloaded = batch.overloaded.clone();
        let reports: Vec<_> = sim
            .world
            .data(ds_id)
            .subscriber_ids()
            .into_iter()
            .filter(|rs| !overloaded.contains(rs))
            .map(|rs| sim.world.render(rs).capacity_report(&cfg))
            .collect();
        batch.ledger = Some(Ledger::from_reports(&reports, false));
    }
    let ledger = batch.ledger.as_mut().expect("just built");

    let mut unplaced: Vec<(NodeId, NodeCost)> = Vec::new();
    let mut placed: Vec<(NodeId, RenderServiceId, NodeCost)> = Vec::new();
    for (node, cost) in shed {
        let (chosen, record) =
            ledger.fit_recorded(&cost, format!("shard {node} ({} polys)", cost.polygons));
        trace_decision(sim, &record, event);
        match chosen {
            Some(to) => placed.push((node, to, cost)),
            None => unplaced.push((node, cost)),
        }
    }
    for (node, to, cost) in placed {
        batch.moves.move_node(sim, node, over_rs, to, &cost);
        batch.moved_nodes.insert(node);
        outcome.moved.push((node, over_rs, to));
    }

    if !unplaced.is_empty() {
        // Recruit via UDDI: registered render services not yet connected
        // to this data service.
        match recruit_unconnected(sim, ds_id) {
            Some(new_rs) => {
                outcome.recruited.push(new_rs);
                let report = sim.world.render(new_rs).capacity_report(&cfg);
                let mut room = report.headroom();
                let mut still_unplaced = Vec::new();
                for (node, cost) in unplaced {
                    let record = DecisionRecord {
                        subject: format!("shard {node} ({} polys)", cost.polygons),
                        chosen: room.fits(&cost).then_some(new_rs),
                        candidates: vec![(new_rs, room.polygons)],
                    };
                    trace_decision(sim, &record, event);
                    if room.fits(&cost) {
                        room.debit(&cost);
                        batch.moves.move_node(sim, node, over_rs, new_rs, &cost);
                        batch.moved_nodes.insert(node);
                        outcome.moved.push((node, over_rs, new_rs));
                    } else {
                        still_unplaced.push((node, cost));
                    }
                }
                let ledger = batch.ledger.as_mut().expect("built above");
                ledger.push(new_rs, room);
                if !still_unplaced.is_empty() {
                    refuse(sim, ds_id, &still_unplaced);
                    outcome.refused = true;
                }
            }
            None => {
                refuse(sim, ds_id, &unplaced);
                outcome.refused = true;
            }
        }
    }
}

/// Pull work from the most loaded donor onto a debounced under-loaded
/// service, never overshooting its headroom (the §3.2.7 "5k vs 100k"
/// rule).
fn handle_underload(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    under_rs: RenderServiceId,
    batch: &mut Batch,
    outcome: &mut MigrationOutcome,
) {
    let now = sim.now();
    let cfg = sim.world.config.clone();
    if !sim.world.render_services.contains_key(&under_rs) {
        return;
    }
    // Donor: the most loaded subscriber outside the batch's under-loaded
    // set, chosen once per batch.
    if batch.donor.is_none() {
        let underloaded = batch.underloaded.clone();
        let donor = sim
            .world
            .data(ds_id)
            .subscriber_ids()
            .into_iter()
            .filter(|rs| !underloaded.contains(rs) && sim.world.render_services.contains_key(rs))
            .max_by_key(|&rs| sim.world.render(rs).assigned_cost().polygons);
        batch.donor = Some(donor);
    }
    let Some(donor) = batch.donor.expect("just set") else { return };

    sim.world.trace.record(now, TraceKind::Underload, format!("{under_rs} has headroom"));
    let mut room = sim.world.render(under_rs).capacity_report(&cfg).headroom();
    if room.polygons == 0 {
        return;
    }
    let roots: Vec<NodeId> = {
        let rs = sim.world.render(donor);
        if rs.interest.is_everything() {
            rs.scene.node(rs.scene.root()).map(|r| r.children().collect()).unwrap_or_default()
        } else {
            rs.interest.roots().collect()
        }
    };
    // Fine-grain: move the largest node set that FITS the headroom.
    let mut candidates: Vec<(NodeId, NodeCost)> = roots
        .iter()
        .filter_map(|&id| {
            let scene = &sim.world.render(donor).scene;
            scene.node(id).map(|_| (id, scene.subtree_cost(id)))
        })
        .filter(|(node, c)| !c.is_zero() && !batch.moved_nodes.contains(node))
        .collect();
    candidates.sort_by_key(|(id, c)| (std::cmp::Reverse(c.render_weight()), *id));
    for (node, cost) in candidates {
        if cost.polygons <= room.polygons && donor != under_rs {
            let record = DecisionRecord {
                subject: format!("shard {node} ({} polys)", cost.polygons),
                chosen: Some(under_rs),
                candidates: vec![(under_rs, room.polygons)],
            };
            trace_decision(sim, &record, "Underload");
            room.polygons -= cost.polygons;
            batch.moves.move_node(sim, node, donor, under_rs, &cost);
            batch.moved_nodes.insert(node);
            outcome.moved.push((node, donor, under_rs));
        }
    }
    sim.world.sched.underload_since.remove(&under_rs);
}

/// Handle the death of a render service (§6): unsubscribe it and
/// redistribute its scene share onto the remaining services, recruiting
/// via UDDI if necessary.
fn handle_failure(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    dead: RenderServiceId,
    batch: &mut Batch,
    outcome: &mut MigrationOutcome,
) {
    let cfg = sim.world.config.clone();
    if !sim.world.render_services.contains_key(&dead) {
        return;
    }

    // What the dead service alone held. A full replica holds everything;
    // its loss orphans nothing that others don't already have.
    let orphaned: Vec<NodeId> = match sim.world.data(ds_id).subscribers.get(&dead) {
        Some(sub) if !sub.interest.is_everything() => sub.interest.roots().collect(),
        _ => Vec::new(),
    };
    teardown_render_service(sim, ds_id, dead, &format!("{} orphaned subtree(s)", orphaned.len()));
    if orphaned.is_empty() {
        return;
    }

    // Redistribute orphaned nodes onto surviving subscribers by headroom
    // (the failure re-plan uses its own interrogation pass: survivor
    // capacity just changed by the death itself).
    let reports: Vec<_> = sim
        .world
        .data(ds_id)
        .subscriber_ids()
        .into_iter()
        .map(|rs| sim.world.render(rs).capacity_report(&cfg))
        .collect();
    let mut ledger = Ledger::from_reports(&reports, false);

    let mut unplaced = Vec::new();
    let mut placed: Vec<(NodeId, RenderServiceId, NodeCost)> = Vec::new();
    for node in orphaned {
        if batch.moved_nodes.contains(&node) {
            continue;
        }
        let cost = sim.world.data(ds_id).scene.subtree_cost(node);
        let (chosen, record) =
            ledger.fit_recorded(&cost, format!("shard {node} ({} polys)", cost.polygons));
        trace_decision(sim, &record, "Failure");
        match chosen {
            Some(to) => placed.push((node, to, cost)),
            None => unplaced.push((node, cost)),
        }
    }
    for (node, to, cost) in placed {
        batch.moves.move_node(sim, node, dead, to, &cost);
        batch.moved_nodes.insert(node);
        outcome.moved.push((node, dead, to));
    }
    if !unplaced.is_empty() {
        match recruit_unconnected(sim, ds_id) {
            Some(new_rs) => {
                outcome.recruited.push(new_rs);
                // A dead service's share lands on the recruit whether or
                // not it fits (the alternative is losing it); the row
                // still says how much room the recruit had.
                let mut room = sim.world.render(new_rs).capacity_report(&cfg).poly_headroom;
                for (node, cost) in unplaced {
                    let record = DecisionRecord {
                        subject: format!("shard {node} ({} polys)", cost.polygons),
                        chosen: Some(new_rs),
                        candidates: vec![(new_rs, room)],
                    };
                    trace_decision(sim, &record, "Failure");
                    room = room.saturating_sub(cost.polygons);
                    batch.moves.move_node(sim, node, dead, new_rs, &cost);
                    batch.moved_nodes.insert(node);
                    outcome.moved.push((node, dead, new_rs));
                }
            }
            None => {
                refuse(sim, ds_id, &unplaced);
                outcome.refused = true;
            }
        }
    }
}

/// The moves one batch (an event batch or a plan diff) makes against one
/// data service, each costing what it moves: the data service's interest
/// index is patched per move ([`DataService::move_interest_root`]), the
/// subtree travels as a flat [`Parcel`], and the hosts a transfer is
/// charged between are resolved once per batch.
///
/// [`DataService::move_interest_root`]: crate::data_service::DataService::move_interest_root
struct MoveBatch {
    ds_id: DataServiceId,
    /// The data service's host, resolved by the first transfer.
    ds_host: Option<HostId>,
    /// Destination hosts, resolved once per service.
    hosts: BTreeMap<RenderServiceId, HostId>,
}

impl MoveBatch {
    fn new(ds_id: DataServiceId) -> Self {
        Self { ds_id, ds_host: None, hosts: BTreeMap::new() }
    }

    /// Cut `node`'s subtree out of the master scene and charge its
    /// transfer to `to`. Returns the parcel and when it arrives.
    fn ship_subtree(
        &mut self,
        sim: &mut RaveSim,
        node: NodeId,
        to: RenderServiceId,
        cost: &NodeCost,
    ) -> (Parcel, SimTime) {
        let world = &sim.world;
        let ds = world.data(self.ds_id);
        let from_host = *self.ds_host.get_or_insert_with(|| world.network.known_host(&ds.host));
        let to_host = *self
            .hosts
            .entry(to)
            .or_insert_with(|| world.network.known_host(&world.render(to).host));
        let parcel = ds.scene.extract_parcel(node);
        let bytes = cost.data_bytes.max(256);
        let now = sim.now();
        (parcel, sim.world.channel_between(from_host, to_host).send(now, bytes))
    }

    /// Execute one node move: update interest roots at the data service,
    /// charge the data transfer to the receiving service, and
    /// install/remove the subtree on the replicas.
    fn move_node(
        &mut self,
        sim: &mut RaveSim,
        node: NodeId,
        from: RenderServiceId,
        to: RenderServiceId,
        cost: &NodeCost,
    ) {
        sim.world.data_mut(self.ds_id).move_interest_root(node, Some(from), Some(to));
        // Replica surgery now; the transfer cost lands on the receiving
        // side as an arrival event (the node is "in flight" until then,
        // but the old holder keeps rendering it until the handoff — best
        // effort).
        let (parcel, arrival) = self.ship_subtree(sim, node, to, cost);
        sim.schedule_at(arrival, move |sim| {
            let at = sim.now();
            // The donor may already be gone (failure-triggered moves), and
            // so may the receiver: it failed with the subtree on the wire,
            // and its own failure re-homes what the data service says it
            // held.
            if let Some(rs) = sim.world.render_services.get_mut(&from) {
                let _ = rs.scene.remove(node);
                rs.interest.remove_root(node);
            }
            if let Some(rs) = sim.world.render_services.get_mut(&to) {
                rs.interest.add_root(node);
                rs.scene.adopt_parcel(&parcel);
            }
            sim.world.trace.record(
                at,
                TraceKind::Migration,
                format!("node {node} moved {from} -> {to}"),
            );
        });
    }

    /// First placement of a workload: interest surgery on the receiving
    /// side only, with the subtree transfer charged like a migration's.
    fn install_node(
        &mut self,
        sim: &mut RaveSim,
        node: NodeId,
        to: RenderServiceId,
        cost: &NodeCost,
    ) {
        if !sim.world.render_services.contains_key(&to) {
            return;
        }
        sim.world.data_mut(self.ds_id).move_interest_root(node, None, Some(to));
        let (parcel, arrival) = self.ship_subtree(sim, node, to, cost);
        sim.schedule_at(arrival, move |sim| {
            let at = sim.now();
            if let Some(rs) = sim.world.render_services.get_mut(&to) {
                rs.interest.add_root(node);
                rs.scene.adopt_parcel(&parcel);
            }
            sim.world.trace.record(
                at,
                TraceKind::Migration,
                format!("node {node} installed on {to}"),
            );
        });
    }

    /// A workload left the plan (removed from the scene or split away):
    /// clean it off the service that held it.
    fn uninstall_node(&self, sim: &mut RaveSim, node: NodeId, from: RenderServiceId) {
        sim.world.data_mut(self.ds_id).move_interest_root(node, Some(from), None);
        if let Some(rs) = sim.world.render_services.get_mut(&from) {
            let _ = rs.scene.remove(node);
            rs.interest.remove_root(node);
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
        .next()?;

    // Charge the UDDI inquiry (warm scan on the kept-alive proxy).
    let results =
        sim.world.registry.scan_access_points("RAVE", TechnicalModel::RenderService).len();
    let scan = sim.world.uddi_cost.scan_cost(results);
    sim.world.trace.record(
        now,
        TraceKind::Recruitment,
        format!("{candidate} discovered via UDDI ({results} services scanned, {scan})"),
    );
    // The bootstrap starts after the scan completes; we approximate by
    // offsetting the connect with a scheduled wrapper.
    let start = now + scan;
    sim.schedule_at(start, move |sim| {
        connect_render_service(sim, candidate, ds_id, InterestSet::subtrees([]));
    });
    Some(candidate)
}

fn refuse(sim: &mut RaveSim, ds_id: DataServiceId, unplaced: &[(NodeId, NodeCost)]) {
    let now = sim.now();
    let polys: u64 = unplaced.iter().map(|(_, c)| c.polygons).sum();
    sim.world.trace.record(
        now,
        TraceKind::Refusal,
        format!(
            "{ds_id}: insufficient resources for {} nodes ({polys} polygons) — request refused",
            unplaced.len()
        ),
    );
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
    /// True when the staleness policy coalesced this pass's dirt instead
    /// of replanning.
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
/// when the gross basis is computed — so a deferred pass loses nothing.
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
                teardown_render_service(sim, ds_id, service, "plan replay will re-home its share")
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
        crate::distribution::plan_incremental(&mut ds.scene, &basis, &mut state, MAX_STALENESS)
    };
    sim.world.sched.plans.insert(ds_id, state);
    match result {
        Ok(None) => out.deferred = true,
        Ok(Some(diff)) => {
            apply_plan_diff(sim, ds_id, &diff, &mut out.migration);
            out.diff = Some(diff);
        }
        Err(err) => {
            let now = sim.now();
            sim.world.trace.record(
                now,
                TraceKind::Refusal,
                format!("{ds_id}: incremental replan: {err}"),
            );
            out.migration.refused = true;
        }
    }
    out
}

/// The incremental planner's capacity basis: *gross* per-service budgets
/// (`poly_budget_at_fps × fill_factor`, total texture memory) rather
/// than the interrogation report's remaining headroom — the replay
/// decides the whole assignment itself, so already-assigned work must
/// not be double-counted against capacity. Services whose measured
/// throughput has drifted below the drift ratio are derated by the
/// measured fraction, which is what makes a `CostDrift` event move work
/// off them.
fn gross_basis(
    sim: &RaveSim,
    ds_id: DataServiceId,
) -> Vec<(RenderServiceId, crate::capacity::Headroom)> {
    let cfg = &sim.world.config;
    sim.world
        .data(ds_id)
        .subscriber_ids()
        .into_iter()
        .map(|rs_id| {
            let rs = sim.world.render(rs_id);
            let pixels = rs
                .sessions
                .values()
                .map(|s| s.viewport.pixel_count() as u64)
                .max()
                .unwrap_or(160_000);
            let budget = rs.machine.poly_budget_at_fps(cfg.target_fps, pixels);
            let mut fillable = (budget as f64 * cfg.fill_factor) as u64;
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
/// (`aftermath` is what the trace row says happens to its share) and
/// neither re-homes that share in this function — [`handle_failure`]
/// places the orphaned roots itself, and on the incremental path
/// dropping the service from the capacity basis makes the plan replay
/// reassign every workload it held.
fn teardown_render_service(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    dead: RenderServiceId,
    aftermath: &str,
) {
    let Some(rs) = sim.world.render_services.remove(&dead) else { return };
    sim.world.data_mut(ds_id).unsubscribe(dead);
    sim.world.registry.unpublish("RAVE", &rs.host, &format!("render-{dead}"));
    sim.world.sched.throughput.forget(dead);
    sim.world.sched.drift_pending.remove(&dead);
    sim.world.sched.underload_since.remove(&dead);
    sim.world.frame_cache.evict_service(dead);
    let now = sim.now();
    sim.world.trace.record(now, TraceKind::Overload, format!("{dead} failed; {aftermath}"));
}

/// Apply a plan diff to the world: placement changes become migrations,
/// first placements install the subtree on their service, and dropped
/// workloads are cleaned off the holder they left.
fn apply_plan_diff(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    diff: &crate::sched::incremental::PlanDiff,
    outcome: &mut MigrationOutcome,
) {
    let mut moves = MoveBatch::new(ds_id);
    for &(node, old, new) in &diff.moved {
        let cost =
            sim.world.data(ds_id).scene.node(node).map(|n| n.own_cost()).unwrap_or(NodeCost::ZERO);
        match old {
            Some(from) => {
                moves.move_node(sim, node, from, new, &cost);
                outcome.moved.push((node, from, new));
            }
            None => moves.install_node(sim, node, new, &cost),
        }
    }
    for &(node, from) in &diff.dropped {
        moves.uninstall_node(sim, node, from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::RaveWorld;
    use crate::RaveConfig;
    use rave_math::{Vec3, Viewport};
    use rave_render::OffscreenMode;
    use rave_scene::{CameraParams, MeshData, NodeKind};
    use rave_sim::Simulation;
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
        let detail = &sim.world.trace.first_of(TraceKind::SchedDecision).unwrap().detail;
        assert!(detail.starts_with("Overload:"), "{detail}");
        assert!(detail.contains("candidates:"), "{detail}");
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
            assert_eq!(sim.world.trace.count(TraceKind::Overload), 1, "one failure row");
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
        assert!(diff.moved.len() > sim.world.data(ds).subscribers.len());
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
}
