//! The assembled RAVE world: network + registry + containers + services,
//! living inside a `rave_sim::Simulation`.

use crate::config::RaveConfig;
use crate::data_service::DataService;
use crate::delivery::{UpdateList, Wave};
use crate::frame_stream::FrameCache;
use crate::ids::{ClientId, DataServiceId, RenderServiceId};
use crate::render_service::RenderService;
use crate::sched::ThroughputTracker;
use crate::thin_client::ThinClient;
use crate::trace::{EventTrace, TraceEvent};
use rave_grid::uddi::ServiceBinding;
use rave_grid::wsdl::WsdlDocument;
use rave_grid::{ServiceContainer, TechnicalModel, UddiCostModel, UddiRegistry};
use rave_net::{Channel, HostId, Network};
use rave_render::MachineProfile;
use rave_scene::{SceneUpdate, StampedUpdate, UpdateError};
use rave_sim::{SimRng, SimTime, Simulation};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The simulation type every RAVE experiment drives.
pub type RaveSim = Simulation<RaveWorld>;

/// All mutable state of a RAVE deployment.
pub struct RaveWorld {
    pub config: RaveConfig,
    pub network: Network,
    pub registry: UddiRegistry,
    pub uddi_cost: UddiCostModel,
    pub containers: BTreeMap<String, ServiceContainer>,
    pub data_services: BTreeMap<DataServiceId, DataService>,
    pub render_services: BTreeMap<RenderServiceId, RenderService>,
    pub thin_clients: BTreeMap<ClientId, ThinClient>,
    /// Serializing per-(sender, receiver) channels for bulk streams.
    channels: BTreeMap<(HostId, HostId), Channel>,
    /// Compressed frame-stream state per (render service, client).
    pub frame_cache: FrameCache,
    /// Active log-shipping replication links, keyed by primary.
    pub replicas: BTreeMap<DataServiceId, crate::replica::ReplicaLink>,
    pub trace: EventTrace,
    pub rng: SimRng,
    /// The unified scheduler's cross-pass state (throughput memory and
    /// under-load debounce).
    pub sched: SchedState,
    next_ds: u64,
    next_rs: u64,
    next_cl: u64,
}

/// Scheduler state that outlives any single rebalance pass.
#[derive(Debug, Clone, Default)]
pub struct SchedState {
    /// Measured per-service throughput (EWMA), fed by tile cost feedback
    /// and consulted by the `CostDrift` rebalance trigger.
    pub throughput: ThroughputTracker,
    /// When each render service first reported sustained under-load
    /// (debounce state for §3.2.7's "for a given amount of time").
    pub underload_since: BTreeMap<RenderServiceId, SimTime>,
    /// The persistent incremental plan per data service: workload →
    /// service with ledger checkpoints, replayed (not rebuilt) on each
    /// rebalance pass.
    pub plans: BTreeMap<DataServiceId, crate::sched::PlanState>,
    /// Drift hysteresis: services whose measured throughput fell below
    /// the drift ratio on the *last* detect pass. A `CostDrift` event
    /// only fires once the drift persists into a second consecutive pass.
    pub drift_pending: BTreeSet<RenderServiceId>,
}

impl RaveWorld {
    pub fn new(network: Network, config: RaveConfig, seed: u64) -> Self {
        let mut registry = UddiRegistry::new();
        registry.register_business("RAVE");
        Self {
            config,
            network,
            registry,
            uddi_cost: UddiCostModel::default(),
            containers: BTreeMap::new(),
            data_services: BTreeMap::new(),
            render_services: BTreeMap::new(),
            thin_clients: BTreeMap::new(),
            channels: BTreeMap::new(),
            frame_cache: FrameCache::new(),
            replicas: BTreeMap::new(),
            trace: EventTrace::new(),
            rng: SimRng::new(seed),
            sched: SchedState::default(),
            next_ds: 1,
            next_rs: 1,
            next_cl: 1,
        }
    }

    /// The paper's testbed (§4.4): LAN + wireless, one container per
    /// render-capable host with both factories deployed.
    pub fn paper_testbed(config: RaveConfig, seed: u64) -> Self {
        let mut w = Self::new(Network::paper_testbed(1.0), config, seed);
        for host in ["onyx", "v880z", "laptop", "desktop", "tower", "adrenochrome"] {
            let mut c = ServiceContainer::new(host);
            c.deploy_factory("data-factory", TechnicalModel::DataService);
            c.deploy_factory("render-factory", TechnicalModel::RenderService);
            w.containers.insert(host.to_string(), c);
        }
        w
    }

    /// The machine profile for a testbed host.
    pub fn machine_for(host: &str) -> MachineProfile {
        match host {
            "onyx" => MachineProfile::sgi_onyx(),
            "v880z" => MachineProfile::sun_v880z(),
            "laptop" => MachineProfile::centrino_laptop(),
            "tower" => MachineProfile::xeon_tower(),
            // "desktop" and anything unknown: the Athlon.
            _ => MachineProfile::athlon_desktop(),
        }
    }

    // ---- spawning -----------------------------------------------------

    pub fn spawn_data_service(&mut self, host: &str, name: &str) -> DataServiceId {
        let id = DataServiceId(self.next_ds);
        self.next_ds += 1;
        self.data_services.insert(id, DataService::new(id, host, name));
        self.publish_to_registry(host, name, TechnicalModel::DataService);
        id
    }

    /// The id the next data service will be assigned (used by failover to
    /// construct a recovered replacement before installing it).
    pub fn next_data_service_id(&self) -> DataServiceId {
        DataServiceId(self.next_ds)
    }

    /// Install an externally constructed data service — e.g. a
    /// replacement recovered from a durable store — publishing it to the
    /// registry like any other spawn.
    pub fn install_data_service(&mut self, ds: DataService) -> DataServiceId {
        let id = ds.id;
        self.next_ds = self.next_ds.max(id.0 + 1);
        let (host, name) = (ds.host.clone(), ds.name.clone());
        self.data_services.insert(id, ds);
        self.publish_to_registry(&host, &name, TechnicalModel::DataService);
        id
    }

    pub fn spawn_render_service(&mut self, host: &str) -> RenderServiceId {
        let id = RenderServiceId(self.next_rs);
        self.next_rs += 1;
        let name = format!("render-{id}");
        self.render_services.insert(id, RenderService::new(id, host, Self::machine_for(host)));
        self.publish_to_registry(host, &name, TechnicalModel::RenderService);
        id
    }

    /// An active render client: render engine without a grid container —
    /// not registered in UDDI (it "does not have a Grid/Web service
    /// interface to advertise", §3.1.2) and cannot assist off-screen.
    pub fn spawn_active_client(&mut self, host: &str) -> RenderServiceId {
        let id = RenderServiceId(self.next_rs);
        self.next_rs += 1;
        self.render_services
            .insert(id, RenderService::active_client(id, host, Self::machine_for(host)));
        id
    }

    pub fn spawn_thin_client(&mut self, host: &str) -> ClientId {
        let id = ClientId(self.next_cl);
        self.next_cl += 1;
        self.thin_clients.insert(id, ThinClient::new(id, host));
        id
    }

    fn publish_to_registry(&mut self, host: &str, name: &str, tmodel: TechnicalModel) {
        let access_point = format!("{host}:{}", 4400 + self.next_rs + self.next_ds);
        let binding = ServiceBinding {
            business: "RAVE".into(),
            service_name: name.to_string(),
            host: host.to_string(),
            tmodel,
            access_point: access_point.clone(),
            wsdl: WsdlDocument::conforming(name, tmodel, &access_point),
        };
        self.registry.publish(binding).expect("registry publish");
    }

    // ---- transport ----------------------------------------------------

    /// The serializing channel from one host to another. Panics on an
    /// unknown host, as [`Network::known_host`] does.
    pub fn channel(&mut self, from: &str, to: &str) -> &mut Channel {
        let (from, to) = (self.network.known_host(from), self.network.known_host(to));
        self.channel_between(from, to)
    }

    /// [`RaveWorld::channel`] for a sender that resolved its hosts once and
    /// sends many times.
    pub fn channel_between(&mut self, from: HostId, to: HostId) -> &mut Channel {
        let network = &self.network;
        self.channels
            .entry((from, to))
            .or_insert_with(|| Channel::new(network.link_between_ids(from, to).clone()))
    }

    /// Queue `bytes` from `from` to `to` at `now`; returns arrival time.
    pub fn send_bytes(&mut self, now: SimTime, from: &str, to: &str, bytes: u64) -> SimTime {
        self.channel(from, to).send(now, bytes)
    }

    /// Queue a compressed payload: `wire_bytes` drive link timing and
    /// goodput, `logical_bytes` (pre-encode size) feed the compression
    /// accounting. Returns arrival time.
    pub fn send_encoded_bytes(
        &mut self,
        now: SimTime,
        from: &str,
        to: &str,
        wire_bytes: u64,
        logical_bytes: u64,
    ) -> SimTime {
        self.channel(from, to).send_encoded(now, wire_bytes, logical_bytes)
    }

    // ---- lookups with panics-on-bug semantics --------------------------

    pub fn data(&self, id: DataServiceId) -> &DataService {
        self.data_services.get(&id).unwrap_or_else(|| panic!("no data service {id}"))
    }

    pub fn data_mut(&mut self, id: DataServiceId) -> &mut DataService {
        self.data_services.get_mut(&id).unwrap_or_else(|| panic!("no data service {id}"))
    }

    pub fn render(&self, id: RenderServiceId) -> &RenderService {
        self.render_services.get(&id).unwrap_or_else(|| panic!("no render service {id}"))
    }

    pub fn render_mut(&mut self, id: RenderServiceId) -> &mut RenderService {
        self.render_services.get_mut(&id).unwrap_or_else(|| panic!("no render service {id}"))
    }

    pub fn client(&self, id: ClientId) -> &ThinClient {
        self.thin_clients.get(&id).unwrap_or_else(|| panic!("no thin client {id}"))
    }

    pub fn client_mut(&mut self, id: ClientId) -> &mut ThinClient {
        self.thin_clients.get_mut(&id).unwrap_or_else(|| panic!("no thin client {id}"))
    }
}

/// One delivery event: apply what a batch owes each member of a wave, in
/// seq order, to the replica it was routed to. Members and
/// `render_services` are both in ascending id order, so the replicas are
/// resolved by one forward walk — a dense wave never probes the map. The
/// walk from one member to the next is bounded by what a seek would have
/// cost, so a wave that reaches ten services of ten thousand pays ten
/// seeks, not ten thousand steps (`collab_scale`'s `sparse_waves` rows and
/// their floor: 2 µs a tick against 43 unbounded; DESIGN §5.15).
fn deliver_wave(sim: &mut RaveSim, wave: &[(RenderServiceId, UpdateList)]) {
    // A member out of order would be walked past and read as a dead service.
    debug_assert!(wave.windows(2).all(|w| w[0].0 < w[1].0), "wave members ascend by id");
    let now = sim.now();
    let RaveWorld { config, render_services, trace, .. } = &mut sim.world;
    let traced = config.update_delivery_trace;
    let Some(&(first, _)) = wave.first() else { return };
    // A seek is about log₂ of the population in steps.
    let seek = usize::BITS - render_services.len().leading_zeros();
    let mut services = render_services.range_mut(first..).peekable();
    for (to, updates) in wave {
        let mut skipped = 0;
        while services.next_if(|(id, _)| *id < to).is_some() {
            skipped += 1;
            if skipped == seek {
                services = render_services.range_mut(*to..).peekable();
                break;
            }
        }
        let Some((_, rs)) = services.next_if(|(id, _)| *id == to) else {
            // The service failed while the batch was on the wire.
            if let (true, Some(first), Some(last)) = (traced, updates.first(), updates.last()) {
                let (first, last) = (first.seq, last.seq);
                trace.record(now, TraceEvent::UpdatesDropped { first, last, to: *to });
            }
            continue;
        };
        for stamped in updates.iter() {
            // A benign race: the replica may legitimately reject an update
            // to a node it never held (interest narrowed since routing, or a
            // presence update to a subset replica, refused unread).
            let applied = stamped.update.try_apply(&mut rs.scene);
            if traced {
                trace.record(
                    now,
                    TraceEvent::UpdateDelivered { seq: stamped.seq, to: *to, applied },
                );
            }
        }
    }
}

/// Publish an update through a data service: commit to the master scene
/// and audit trail, then multicast to every live, interested subscriber
/// (delivery events apply the update to each replica at its arrival
/// time). Returns the assigned sequence number.
pub fn publish_update(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    origin: &str,
    update: SceneUpdate,
) -> Result<u64, UpdateError> {
    let seqs = publish_batch(sim, ds_id, vec![(origin.to_string(), update)])?;
    Ok(seqs[0])
}

/// Publish a batch of updates through a data service in one pass: every
/// update is committed and stamped in order, routed through the inverted
/// interest index (which folds the batch's structural edits in once, not
/// per subscriber), and delivered with segment-multicast fan-out — one
/// wire transmission per receiving segment per update, booked into
/// [`crate::data_service::FanoutTotals`]. The batch schedules **one
/// event per arrival instant** (a delivery wave): every subscriber the
/// batch reaches at that instant gets its `Arc`-shared updates applied in
/// seq order, subscribers in id order, so a 10k-client session tick on
/// one segment is one event, not 10k, and each replica's derived caches
/// rebuild once per batch; subscribers owed the same updates share one
/// list. Equal-time events fire in schedule order, so this is the
/// schedule one event per subscriber would give. Per-subscriber FIFO is
/// preserved against earlier publishes via the delivery high-water mark
/// (the `delivery` module).
///
/// A subscriber with no render service in the world, or whose host is not
/// on the network, is skipped and counted
/// (`FanoutTotals::skipped_receivers`); a batch whose render service is
/// gone by the time it arrives is dropped.
///
/// On a commit failure the batch stops: the already-committed prefix is
/// still delivered (it is in the audit trail), the failed update and the
/// rest are dropped, and the error is returned. A checkpoint that fails
/// after its update was logged is not a commit failure: it is traced.
pub fn publish_batch(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    updates: Vec<(String, SceneUpdate)>,
) -> Result<Vec<u64>, UpdateError> {
    let now = sim.now();
    let mut seqs = Vec::with_capacity(updates.len());
    let mut origins = Vec::with_capacity(updates.len());
    let mut batch: Vec<Arc<StampedUpdate>> = Vec::with_capacity(updates.len());
    let mut failure = None;
    let RaveWorld { data_services, render_services, network, trace, .. } = &mut sim.world;
    let ds = data_services.get_mut(&ds_id).unwrap_or_else(|| panic!("no data service {ds_id}"));
    for (origin, update) in updates {
        let stamped = ds.stamp(&origin, update);
        match ds.commit(now.as_secs(), &stamped) {
            Ok(checkpoint) => {
                if let Some((seq, result)) = checkpoint {
                    let ds = ds_id;
                    let row = match result {
                        Ok(report) => TraceEvent::Checkpoint { ds, seq, report },
                        Err(e) => TraceEvent::CheckpointFailed { ds, seq, error: e.to_string() },
                    };
                    trace.record(now, row);
                }
                seqs.push(stamped.seq);
                origins.push(origin);
                batch.push(Arc::new(stamped));
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    for (&seq, origin) in seqs.iter().zip(origins) {
        trace.record(now, TraceEvent::UpdatePublished { ds: ds_id, seq, origin });
    }
    let waves = ds.plan_deliveries(now, &batch, network, |rs| {
        render_services.get(&rs).map(|service| service.host.as_str())
    });
    for Wave { at, deliveries } in waves {
        sim.schedule_at(at, move |sim| deliver_wave(sim, &deliveries));
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(seqs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;
    use rave_scene::{InterestSet, NodeKind};

    fn sim() -> RaveSim {
        Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 42))
    }

    #[test]
    fn testbed_spawns_and_registers() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "Skull");
        let rs = s.world.spawn_render_service("tower");
        assert_eq!(s.world.data(ds).name, "Skull");
        assert_eq!(s.world.render(rs).host, "tower");
        let aps = s.world.registry.scan_access_points("RAVE", TechnicalModel::RenderService);
        assert_eq!(aps.len(), 1);
    }

    #[test]
    fn active_client_not_in_registry() {
        let mut s = sim();
        s.world.spawn_active_client("desktop");
        let aps = s.world.registry.scan_access_points("RAVE", TechnicalModel::RenderService);
        assert!(aps.is_empty());
    }

    #[test]
    fn publish_propagates_to_live_replicas() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let rs = s.world.spawn_render_service("tower");
        s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());

        let id = s.world.data_mut(ds).scene.allocate_id();
        publish_update(
            &mut s,
            ds,
            "user",
            SceneUpdate::AddNode {
                id,
                parent: rave_scene::NodeId(0),
                name: "obj".into(),
                kind: NodeKind::Group,
            },
        )
        .unwrap();
        // Master updated immediately; replica only after delivery.
        assert!(s.world.data(ds).scene.contains(id));
        assert!(!s.world.render(rs).scene.contains(id));
        s.run();
        assert!(s.world.render(rs).scene.contains(id));
        assert_eq!(s.world.trace.count(TraceKind::UpdateDelivered), 1);
    }

    #[test]
    fn replica_delivery_takes_network_time() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let rs = s.world.spawn_render_service("tower");
        s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        let id = s.world.data_mut(ds).scene.allocate_id();
        publish_update(
            &mut s,
            ds,
            "u",
            SceneUpdate::AddNode {
                id,
                parent: rave_scene::NodeId(0),
                name: "n".into(),
                kind: NodeKind::Group,
            },
        )
        .unwrap();
        s.run();
        assert!(s.now().as_secs() > 0.0, "delivery charged wire time");
        assert!(s.now().as_secs() < 0.1, "but only milliseconds on the LAN");
    }

    #[test]
    fn sequence_numbers_increase_across_publishes() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let id1 = s.world.data_mut(ds).scene.allocate_id();
        let s1 = publish_update(
            &mut s,
            ds,
            "u",
            SceneUpdate::AddNode {
                id: id1,
                parent: rave_scene::NodeId(0),
                name: "a".into(),
                kind: NodeKind::Group,
            },
        )
        .unwrap();
        let id2 = s.world.data_mut(ds).scene.allocate_id();
        let s2 = publish_update(
            &mut s,
            ds,
            "u",
            SceneUpdate::AddNode {
                id: id2,
                parent: rave_scene::NodeId(0),
                name: "b".into(),
                kind: NodeKind::Group,
            },
        )
        .unwrap();
        assert!(s2 > s1);
    }

    #[test]
    fn channels_memoized_per_pair() {
        let mut s = sim();
        let a1 = s.world.send_bytes(SimTime::ZERO, "laptop", "tower", 1_000_000);
        // Second send on the same pair queues behind the first.
        let a2 = s.world.send_bytes(SimTime::ZERO, "laptop", "tower", 1_000_000);
        assert!(a2 > a1);
    }

    #[test]
    fn small_updates_cannot_overtake_large_ones() {
        // A big AddNode followed by a tiny CameraMoved to the same node:
        // FIFO delivery means the replica always applies both, in order.
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let rs = s.world.spawn_render_service("tower");
        s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        let big_mesh = rave_scene::MeshData {
            positions: vec![rave_math::Vec3::ZERO; 3],
            normals: vec![],
            colors: vec![],
            triangles: vec![[0, 1, 2]; 100_000],
            texture_bytes: 0,
        };
        let id = s.world.data_mut(ds).scene.allocate_id();
        publish_update(
            &mut s,
            ds,
            "u",
            SceneUpdate::AddNode {
                id,
                parent: rave_scene::NodeId(0),
                name: "cam".into(),
                kind: NodeKind::Camera(rave_scene::CameraParams::default()),
            },
        )
        .unwrap();
        // Stuff the pipe with a large geometry update, then a tiny one.
        let id2 = s.world.data_mut(ds).scene.allocate_id();
        publish_update(
            &mut s,
            ds,
            "u",
            SceneUpdate::AddNode {
                id: id2,
                parent: rave_scene::NodeId(0),
                name: "big".into(),
                kind: NodeKind::Mesh(std::sync::Arc::new(big_mesh)),
            },
        )
        .unwrap();
        let cam = rave_scene::CameraParams {
            position: rave_math::Vec3::new(9.0, 9.0, 9.0),
            ..Default::default()
        };
        publish_update(&mut s, ds, "u", SceneUpdate::CameraMoved { id, camera: cam }).unwrap();
        s.run();
        // Every delivery applied (in order), none rejected.
        for e in s.world.trace.of_kind(TraceKind::UpdateDelivered) {
            let applied = matches!(e.event, TraceEvent::UpdateDelivered { applied: true, .. });
            assert!(applied, "out-of-order delivery: {}", e.event);
        }
        assert_eq!(
            s.world.render(rs).scene.node(id).unwrap().transform().translation,
            rave_math::Vec3::new(9.0, 9.0, 9.0)
        );
    }

    fn rename(s: &mut RaveSim, ds: DataServiceId, name: &str) -> u64 {
        let update = SceneUpdate::SetName { id: rave_scene::NodeId(0), name: name.into() };
        publish_update(s, ds, "u", update).unwrap()
    }

    fn delivered(s: &RaveSim) -> Vec<(SimTime, TraceEvent)> {
        s.world.trace.of_kind(TraceKind::UpdateDelivered).map(|e| (e.at, e.event.clone())).collect()
    }

    fn applied(seq: u64, to: RenderServiceId) -> TraceEvent {
        TraceEvent::UpdateDelivered { seq, to, applied: true }
    }

    #[test]
    fn service_failing_with_an_update_in_flight_drops_the_batch() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let dead = s.world.spawn_render_service("tower");
        let alive = s.world.spawn_render_service("desktop");
        for rs in [dead, alive] {
            s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        }
        let seq = rename(&mut s, ds, "in flight");
        crate::migration::handle_service_failure(&mut s, ds, dead);
        s.run();
        let rows: Vec<TraceEvent> = delivered(&s).into_iter().map(|(_, row)| row).collect();
        let dropped = TraceEvent::UpdatesDropped { first: seq, last: seq, to: dead };
        assert_eq!(rows, vec![dropped, applied(seq, alive)]);
        assert_eq!(
            s.world.render(alive).scene.node(rave_scene::NodeId(0)).unwrap().name(),
            "in flight"
        );
        // The next publish no longer routes to it.
        rename(&mut s, ds, "after");
        s.run();
        assert_eq!(delivered(&s).len(), 3);
    }

    #[test]
    fn subscriber_without_a_render_service_is_skipped_and_counted() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let rs = s.world.spawn_render_service("tower");
        s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        s.world.data_mut(ds).subscribe_live(RenderServiceId(99), InterestSet::everything());
        rename(&mut s, ds, "x");
        s.run();
        let fanout = s.world.data(ds).fanout;
        assert_eq!((fanout.skipped_receivers, fanout.unicast_transmissions), (1, 1));
        assert_eq!(delivered(&s).len(), 1);
    }

    #[test]
    fn topology_edits_reach_the_next_publish() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let rs = s.world.spawn_render_service("annex");
        s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        // Its host is not on the network yet: skipped.
        rename(&mut s, ds, "a");
        s.run();
        assert_eq!(s.world.data(ds).fanout.skipped_receivers, 1);
        assert!(delivered(&s).is_empty());

        // The host joins the LAN, then moves behind the wireless bridge.
        let lan = s.world.network.link_between("adrenochrome", "tower").clone();
        let wlan = s.world.network.link_between("adrenochrome", "zaurus").clone();
        for (segment, link) in [("lan", lan), ("wlan", wlan)] {
            s.world.network.add_host("annex", segment);
            let (t0, bytes) = (s.now(), {
                rename(&mut s, ds, segment);
                s.world.data(ds).audit.entries().last().unwrap().stamped.wire_size()
            });
            s.run();
            assert_eq!(delivered(&s).last().unwrap().0, t0 + link.transfer_time(bytes));
        }
        assert_eq!(s.world.data(ds).fanout.skipped_receivers, 1, "no new skips");
    }

    #[test]
    fn fifo_mark_outlives_an_unsubscribe_and_a_renumbering() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let early = s.world.spawn_render_service("onyx");
        let rs = s.world.spawn_render_service("zaurus");
        s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        // A big update is on the slow wireless hop to `rs`...
        let big = rave_scene::MeshData {
            positions: vec![rave_math::Vec3::ZERO; 3],
            normals: vec![],
            colors: vec![],
            triangles: vec![[0, 1, 2]; 50_000],
            texture_bytes: 0,
        };
        let id = s.world.data_mut(ds).scene.allocate_id();
        let add = SceneUpdate::AddNode {
            id,
            parent: rave_scene::NodeId(0),
            name: "big".into(),
            kind: NodeKind::Mesh(Arc::new(big)),
        };
        publish_update(&mut s, ds, "u", add).unwrap();
        // ...when it resubscribes, behind a new subscriber with a lower id
        // (so its slot number changes too).
        assert!(s.world.data_mut(ds).unsubscribe(rs));
        s.world.data_mut(ds).subscribe_live(early, InterestSet::everything());
        rename(&mut s, ds, "between");
        s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        let small = rename(&mut s, ds, "small");
        s.run();
        let rows = delivered(&s);
        let at = |seq: u64, to: RenderServiceId| {
            let row = |e: &TraceEvent| matches!(*e, TraceEvent::UpdateDelivered { seq: s, to: t, .. } if (s, t) == (seq, to));
            rows.iter().find(|(_, e)| row(e)).unwrap().0
        };
        let (big_at, small_at) = (at(1, rs), at(small, rs));
        assert_eq!(small_at, big_at, "queued behind the big one, not overtaking it");
        assert!(at(small, early) < big_at, "others are not held back");
    }

    #[test]
    fn a_session_tick_on_one_segment_is_one_event() {
        use crate::collaboration::{join_session, session_tick};
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let hosts = ["onyx", "v880z", "laptop", "desktop", "tower"];
        let crowd: Vec<RenderServiceId> =
            (0..1_000).map(|i| s.world.spawn_active_client(hosts[i % hosts.len()])).collect();
        for &rs in &crowd {
            s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        }
        let labels = ["ann", "bob", "cy"];
        let camera = rave_scene::CameraParams::default();
        let users: Vec<_> = labels
            .iter()
            .map(|l| join_session(&mut s, ds, l, rave_math::Vec3::ONE, camera).unwrap())
            .collect();
        s.run();

        let moved = rave_scene::CameraParams {
            position: rave_math::Vec3::new(1.0, 2.0, 3.0),
            ..Default::default()
        };
        let moves: Vec<_> = users.iter().zip(labels).map(|(&u, l)| (u, l, moved)).collect();
        let before = s.executed();
        session_tick(&mut s, ds, &moves).unwrap();
        assert_eq!(s.pending(), 1, "1,000 subscribers, one arrival instant");
        s.run();
        assert_eq!(s.executed() - before, 1);
        assert_eq!(s.world.trace.count(TraceKind::UpdateDelivered), 3 * 1_000 + 2 * 3 * 1_000);
        for &rs in &crowd {
            let scene = &s.world.render(rs).scene;
            assert!(users
                .iter()
                .all(|u| scene.node(u.avatar).unwrap().transform().translation == moved.position));
        }
    }

    #[test]
    fn same_instant_waves_apply_in_batch_order() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let rs = s.world.spawn_render_service("tower");
        let other = s.world.spawn_render_service("desktop");
        for id in [rs, other] {
            s.world.data_mut(ds).subscribe_live(id, InterestSet::everything());
        }
        // Same size, same `now`, same segment: both batches land at once.
        let (first, second) = (rename(&mut s, ds, "there"), rename(&mut s, ds, "back."));
        assert_eq!(s.pending(), 2, "a wave per batch");
        s.run();
        let rows = delivered(&s);
        assert!(rows.iter().all(|(at, _)| *at == rows[0].0), "one instant: {rows:?}");
        let order: Vec<&TraceEvent> = rows.iter().map(|(_, row)| row).collect();
        assert_eq!(
            order,
            [
                &applied(first, rs),
                &applied(first, other),
                &applied(second, rs),
                &applied(second, other)
            ]
        );
        for id in [rs, other] {
            let name = s.world.render(id).scene.node(rave_scene::NodeId(0)).unwrap().name();
            assert_eq!(name, "back.", "the later batch wins");
        }
    }

    #[test]
    fn a_wave_skips_bystanders_and_drops_only_its_dead_members() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let ids: Vec<RenderServiceId> =
            (0..40).map(|_| s.world.spawn_active_client("tower")).collect();
        // Six of forty subscribe: neighbours (reached by walking on) and
        // members past a gap longer than a seek costs (reached by seeking).
        // One of each kind dies with the wave in flight.
        let members = [0, 2, 3, 20, 21, 39];
        let dead = [2, 20, 39];
        for &m in &members {
            s.world.data_mut(ds).subscribe_live(ids[m], InterestSet::everything());
        }
        let seq = rename(&mut s, ds, "in flight");
        assert_eq!(s.pending(), 1);
        for &d in &dead {
            crate::migration::handle_service_failure(&mut s, ds, ids[d]);
        }
        s.run();
        let rows: Vec<TraceEvent> = delivered(&s).into_iter().map(|(_, row)| row).collect();
        let expected: Vec<TraceEvent> = members
            .iter()
            .map(|m| match dead.contains(m) {
                true => TraceEvent::UpdatesDropped { first: seq, last: seq, to: ids[*m] },
                false => applied(seq, ids[*m]),
            })
            .collect();
        assert_eq!(rows, expected);
        for (i, &rs) in ids.iter().enumerate().filter(|(i, _)| !dead.contains(i)) {
            let name = s.world.render(rs).scene.node(rave_scene::NodeId(0)).unwrap().name();
            let reached = members.contains(&i);
            assert_eq!(name == "in flight", reached, "{rs}: a bystander is not touched");
        }
    }

    #[test]
    fn a_small_update_behind_a_large_one_applies_second() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let near = s.world.spawn_render_service("tower");
        let far = s.world.spawn_render_service("zaurus");
        s.world.data_mut(ds).subscribe_live(far, InterestSet::everything());
        let big = rename(&mut s, ds, &"x".repeat(20_000));
        // `near` joins between the two: only `far` is held back by FIFO.
        s.world.data_mut(ds).subscribe_live(near, InterestSet::everything());
        let small = rename(&mut s, ds, "small");
        s.run();
        let rows = delivered(&s);
        let row = |what: TraceEvent| rows.iter().position(|(_, d)| *d == what).unwrap();
        let big_row = row(applied(big, far));
        let small_row = row(applied(small, far));
        assert!(small_row > big_row, "applied second: {rows:?}");
        assert!(rows[small_row].0 >= rows[big_row].0, "in a later-or-equal wave");
        assert!(rows[row(applied(small, near))].0 < rows[big_row].0);
        let name = s.world.render(far).scene.node(rave_scene::NodeId(0)).unwrap().name();
        assert_eq!(name, "small");
    }

    #[test]
    #[should_panic(expected = "unknown host nowhere")]
    fn channel_to_an_unknown_host_names_it() {
        sim().world.send_bytes(SimTime::ZERO, "laptop", "nowhere", 1);
    }

    #[test]
    fn channels_survive_topology_edits() {
        let mut s = sim();
        let a1 = s.world.send_bytes(SimTime::ZERO, "laptop", "tower", 1_000_000);
        // Unrelated edits renumber nothing; the queue behind the pair stays.
        s.world.network.add_segment("annex", rave_net::LinkSpec::ethernet_1gb());
        s.world.network.link_segments("lan", "annex", rave_net::LinkSpec::ethernet_1gb());
        s.world.network.add_host("spare", "annex");
        s.world.network.add_host("tower", "lan");
        let a2 = s.world.send_bytes(SimTime::ZERO, "laptop", "tower", 1_000_000);
        assert!(a2 > a1, "still the same channel");
        assert_eq!(s.world.channel("laptop", "tower").messages_sent(), 2);
        assert_eq!(s.world.channel("tower", "laptop").messages_sent(), 0, "directed");
        let fresh = s.world.send_bytes(SimTime::ZERO, "laptop", "spare", 1_000_000);
        assert!(fresh < a1, "a new pair gets its own channel over its own link");
    }

    /// An update the store logged is committed even when the checkpoint
    /// it made due fails: it is fanned out, the failure is traced, and the
    /// next commit tries the checkpoint again.
    #[test]
    fn a_failed_checkpoint_still_commits_the_update() {
        let dir = std::env::temp_dir().join(format!("rave-world-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let rs = s.world.spawn_render_service("tower");
        s.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        let cfg = rave_store::StoreConfig { checkpoint_every: 2, ..Default::default() };
        s.world.data_mut(ds).attach_store(&dir, cfg).unwrap();
        let add = |s: &mut RaveSim, name: &str| {
            let id = s.world.data_mut(ds).scene.allocate_id();
            let (parent, name, kind) = (rave_scene::NodeId(0), name.into(), NodeKind::Group);
            publish_update(s, ds, "u", SceneUpdate::AddNode { id, parent, name, kind })
        };
        add(&mut s, "a").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        for (seq, name) in [(2, "b"), (3, "c")] {
            assert_eq!(add(&mut s, name), Ok(seq));
            assert_eq!(s.world.data(ds).audit.last_seq(), seq);
            s.run();
            assert_eq!(s.world.render(rs).scene, s.world.data(ds).scene, "seq {seq} fanned out");
            let row = &s.world.trace.last_of(TraceKind::Checkpoint).unwrap().event;
            let failed = matches!(*row, TraceEvent::CheckpointFailed { ds: d, seq: s, .. } if (d, s) == (ds, seq));
            assert!(failed, "{row}");
        }
        assert_eq!(s.world.trace.count(TraceKind::Checkpoint), 2);
    }

    #[test]
    fn failed_update_does_not_sequence() {
        let mut s = sim();
        let ds = s.world.spawn_data_service("adrenochrome", "sess");
        let err = publish_update(
            &mut s,
            ds,
            "u",
            SceneUpdate::RemoveNode { id: rave_scene::NodeId(999) },
        );
        assert!(err.is_err());
        assert_eq!(s.world.data(ds).audit.len(), 0, "failed update not recorded");
    }
}
