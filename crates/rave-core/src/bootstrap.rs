//! Render-service bootstrap (§5.3/§5.5).
//!
//! A render service joining a session is subscribed at once, and receives
//! its snapshot as a [`Parcel`], the message a migration sends too: the
//! first message on its stream, which every update routed to it lands
//! behind, so that once the parcel is adopted the replica is
//! "pre-synchronised with \[the\] data service". The parcel's marshal
//! is priced, not performed: [`MarshalStats`] counts the interface checks,
//! field visits and bytes of the paper's *introspective* path (its
//! measured bottleneck), [`marshal_time_introspective`] charges them, and
//! [`marshal_time_direct`] prices the same bytes for the ablation.

use crate::data_service::DataService;
use crate::ids::{DataServiceId, RenderServiceId};
use crate::trace::{RecoveryRow, TraceEvent};
use crate::world::{RaveSim, RaveWorld};
use rave_grid::{SoapCodec, SoapEnvelope, SoapValue};
use rave_scene::introspect::MarshalStats;
use rave_scene::{InterestSet, Parcel, SceneTree};
use rave_sim::SimTime;
use std::path::Path;

#[doc(hidden)]
#[allow(deprecated)]
pub use crate::frozen::snapshot_for;

/// Introspection marshalling rates for scene bootstrap (§5.5): the
/// Java-reflection path, seconds per field visit and per byte. Calibrated
/// against Table 5: a 20 MB model bootstraps in ≈68 s, of which ≈58 s is
/// marshalling (the rest is instance creation + wire time) ⇒ ≈2.3 µs/byte
/// through the introspective path.
pub const INTROSPECT_PER_FIELD: f64 = 4.0e-6;
pub const INTROSPECT_PER_BYTE: f64 = 2.3e-6;

/// Direct marshalling per byte (the ablation comparator): bulk
/// memcpy-ish, ~50 ns/byte.
pub const DIRECT_PER_BYTE: f64 = 50.0e-9;

const _: () = assert!(INTROSPECT_PER_BYTE > DIRECT_PER_BYTE * 10.0);

/// CPU time of introspective marshalling.
pub fn marshal_time_introspective(stats: &MarshalStats) -> SimTime {
    SimTime::from_secs(
        stats.field_visits as f64 * INTROSPECT_PER_FIELD
            + stats.interface_checks as f64 * INTROSPECT_PER_FIELD
            + stats.bytes as f64 * INTROSPECT_PER_BYTE,
    )
}

/// CPU time of direct marshalling of the same records (ablation): the same
/// bytes, without the interface machinery.
pub fn marshal_time_direct(stats: &MarshalStats) -> SimTime {
    SimTime::from_secs(stats.bytes as f64 * DIRECT_PER_BYTE)
}

/// Result of initiating a bootstrap.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapTiming {
    /// When the subscribe handshake completed.
    pub subscribed_at: SimTime,
    /// When the snapshot finished marshalling at the data service.
    pub marshalled_at: SimTime,
    /// When the snapshot lands and is adopted.
    pub ready_at: SimTime,
    /// Snapshot payload size.
    pub snapshot_bytes: u64,
}

/// Connect `rs` to `ds` with the given interest set. Returns the
/// projected timing; the actual state flips happen in scheduled events.
pub fn connect_render_service(
    sim: &mut RaveSim,
    rs_id: RenderServiceId,
    ds_id: DataServiceId,
    interest: InterestSet,
) -> BootstrapTiming {
    let now = sim.now();
    connect_at(sim, rs_id, ds_id, interest, now)(sim)
}

/// Subscribe `rs` to `ds` and cut its snapshot parcel now, with the
/// handshake charged from `start`: what is published from now on is routed
/// to it, and a root moved to it before `start` is listed in its
/// subscription. Returns the send, to run at `start` so that the link sees
/// its sends in time order.
pub(crate) fn connect_at(
    sim: &mut RaveSim,
    rs_id: RenderServiceId,
    ds_id: DataServiceId,
    interest: InterestSet,
    start: SimTime,
) -> impl FnOnce(&mut RaveSim) -> BootstrapTiming + 'static {
    let ds_host = sim.world.data(ds_id).host.clone();
    let rs_host = sim.world.render(rs_id).host.clone();

    // 1. SOAP subscribe handshake (discovery/subscription is the one
    //    place SOAP is used, §4.3).
    let codec = SoapCodec::default();
    let subscribe = SoapEnvelope::new("data-service", "subscribe")
        .arg("renderService", SoapValue::Str(rs_id.to_string()))
        .arg("interest", SoapValue::Str(format!("{} roots", interest.roots().count())));
    let soap_cpu = codec.marshal_time(&subscribe) * 2.0;
    let rtt = sim.world.network.round_trip(&rs_host, &ds_host, codec.wire_size(&subscribe), 256);
    let subscribed_at = start + soap_cpu + rtt;

    // 2. Parcel cut + introspective marshal at the data service.
    let parcel = snapshot_parcel(&sim.world.data(ds_id).scene, &interest);
    let stats = MarshalStats::of(parcel.nodes().map(|n| (n.name.as_str(), &n.kind)));
    let marshalled_at = subscribed_at + marshal_time_introspective(&stats);

    // 3. Subscribed from the cut on: what is published is routed to `rs`.
    sim.world.data_mut(ds_id).subscribe_live(rs_id, interest.clone());
    move |sim| {
        // 4. The parcel goes on `rs`'s stream, and what is routed to `rs`
        //    lands behind it. Only a recruit's late send may land its
        //    root-only parcel after updates (routed before the send, or the
        //    next master's once the cutter has failed and holds nothing):
        //    harmless, as the root record is version-checked.
        let sent = sim.world.send_bytes(marshalled_at, &ds_host, &rs_host, stats.bytes);
        let data = sim.world.data_services.get_mut(&ds_id);
        let arrival = data.map_or(sent, |ds| ds.hold_stream(rs_id, sent));
        // 5. On arrival, adopt it whether or not its sender still lives, as
        //    a wave lands; a receiver that failed meanwhile installs nothing.
        sim.schedule_at(arrival, move |sim| {
            let now = sim.now();
            let RaveWorld { render_services, trace, .. } = &mut sim.world;
            let Some(rs) = render_services.get_mut(&rs_id) else {
                trace.record(now, TraceEvent::SnapshotDropped { rs: rs_id, ds: ds_id });
                return;
            };
            // Adopt (not replace): nodes that arrived through other paths
            // while the parcel was in flight — e.g. migration moving work
            // onto a freshly recruited service — must survive.
            rs.scene.adopt_parcel(&parcel);
            let mut interest = interest.clone();
            for root in rs.interest.roots() {
                interest.add_root(root);
            }
            rs.interest = interest;
            trace.record(now, TraceEvent::Bootstrapped { rs: rs_id, ds: ds_id });
        });
        let snapshot_bytes = stats.bytes;
        BootstrapTiming { subscribed_at, marshalled_at, ready_at: arrival, snapshot_bytes }
    }
}

/// Connect every render service a [`crate::distribution::DistributionPlan`]
/// names, each with an interest set covering exactly its assigned subtrees. Returns the
/// per-service timings in plan order.
pub fn connect_planned(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    plan: &crate::distribution::DistributionPlan,
) -> Vec<(RenderServiceId, BootstrapTiming)> {
    plan.assignments
        .iter()
        .map(|a| {
            let interest = InterestSet::subtrees(a.nodes.iter().copied());
            (a.service, connect_render_service(sim, a.service, ds_id, interest))
        })
        .collect()
}

/// Replace a crashed data service with one recovered from its durable
/// store (§3.1.1's persistence made crash-tolerant).
///
/// An id that is not in the world is [`std::io::ErrorKind::NotFound`]; it,
/// like a store that cannot be read back, leaves the world as it was.
/// Otherwise the failed instance is dropped from the world; a replacement
/// on `host` rebuilds the session from the latest snapshot checkpoint plus
/// the write-ahead-log tail, keeps the session name, and re-attaches the
/// store with the failed instance's store config so logging continues
/// where it stopped, at the same cadence. Every render service the
/// failed instance was serving is re-bootstrapped against the
/// replacement with its original interest set: each parcel is the first
/// message on its subscriber's stream, so an update published while it is
/// in flight lands after it.
pub fn recover_data_service(
    sim: &mut RaveSim,
    failed: DataServiceId,
    host: &str,
    dir: impl AsRef<Path>,
) -> std::io::Result<DataServiceId> {
    if !sim.world.data_services.contains_key(&failed) {
        let what = format!("no data service {failed} to recover");
        return Err(std::io::Error::new(std::io::ErrorKind::NotFound, what));
    }
    let rec = rave_store::recover(dir.as_ref())?;
    let failed_ds = sim.world.data_services.remove(&failed).expect("checked above");
    sim.world.registry.unpublish("RAVE", &failed_ds.host, &failed_ds.name);
    let cfg = failed_ds.store().map(|store| *store.config()).unwrap_or_default();
    let new_id = sim.world.next_data_service_id();
    let mut ds = DataService::new(new_id, host, &failed_ds.name);
    ds.seed_from(&rec);
    ds.attach_store(dir, cfg)?;
    sim.world.install_data_service(ds);
    let row = RecoveryRow {
        failed,
        new: new_id,
        host: host.into(),
        session: failed_ds.name.clone(),
        seq: rec.last_seq,
        snapshot_seq: rec.snapshot_seq,
        deltas: rec.deltas,
        replayed: rec.entries.len(),
        subscribers: failed_ds.subscribers().len(),
    };
    sim.world.trace.record(sim.now(), TraceEvent::Recovered { row: Box::new(row) });
    for (&rs_id, interest) in failed_ds.subscribers() {
        connect_render_service(sim, rs_id, new_id, interest.clone());
    }
    Ok(new_id)
}

/// The parcel a bootstrap ships: the whole scene, or the interest closure
/// with ancestor orientation (§3.2.5) — what routing
/// (`InterestSet::relevant`) keeps a live replica of the same interest
/// holding, cameras and avatars included, whenever it joined. A replica
/// built outside a bootstrap is a fresh tree that adopts this parcel.
pub fn snapshot_parcel(scene: &SceneTree, interest: &InterestSet) -> Parcel {
    if interest.is_everything() {
        scene.extract_parcel(&[scene.root()])
    } else {
        scene.extract_parcel(&interest.roots().collect::<Vec<_>>())
    }
}

/// Ablation datum: marshalling times for a scene under both paths, and
/// the counts both are priced from.
pub fn marshal_comparison(scene: &SceneTree) -> (SimTime, SimTime, MarshalStats) {
    let stats =
        MarshalStats::of(scene.descendants_iter(scene.root()).map(|n| (n.name(), n.kind())));
    (marshal_time_introspective(&stats), marshal_time_direct(&stats), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::rebalance::{process_events, SchedEvent};
    use crate::trace::TraceKind;
    use crate::world::publish_update;
    use crate::RaveConfig;
    use rave_math::Vec3;
    use rave_scene::{MeshData, NodeId, NodeKind, SceneUpdate};
    use rave_sim::Simulation;
    use std::sync::Arc;

    fn sim_with_scene(polys: usize) -> (RaveSim, DataServiceId) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 3));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let mesh = MeshData {
            positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
            normals: vec![],
            colors: vec![],
            triangles: vec![[0, 1, 2]; polys],
            texture_bytes: 0,
        };
        let scene = &mut sim.world.data_mut(ds).scene;
        let root = scene.root();
        scene.add_node(root, "model", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        (sim, ds)
    }

    #[test]
    fn bootstrap_installs_replica() {
        let (mut sim, ds) = sim_with_scene(500);
        let rs = sim.world.spawn_render_service("tower");
        let timing = connect_render_service(&mut sim, rs, ds, InterestSet::everything());
        assert!(sim.world.data(ds).subscribers().contains_key(&rs), "subscribed at the cut");
        sim.run();
        let rs_ref = sim.world.render(rs);
        assert!(rs_ref.scene.find_by_path("/model").is_some());
        assert_eq!(rs_ref.assigned_cost().polygons, 500);
        assert!(timing.ready_at > timing.marshalled_at);
        assert_eq!(sim.world.trace.count(TraceKind::Bootstrap), 1);
    }

    #[test]
    fn updates_during_bootstrap_land_after_the_parcel() {
        // The §5.5 overlap: scene and camera changes published while the
        // snapshot is in flight are sent behind it, and applied once it is
        // adopted.
        let (mut sim, ds) = sim_with_scene(200_000); // big: slow marshal
        let rs = sim.world.spawn_render_service("tower");
        connect_render_service(&mut sim, rs, ds, InterestSet::everything());
        // Publish while the bootstrap is still in flight (t=0).
        let id = sim.world.data_mut(ds).scene.allocate_id();
        publish_update(
            &mut sim,
            ds,
            "user",
            SceneUpdate::AddNode {
                id,
                parent: rave_scene::NodeId(0),
                name: "mid-flight".into(),
                kind: NodeKind::Group,
            },
        )
        .unwrap();
        sim.run();
        assert!(
            sim.world.render(rs).scene.contains(id),
            "replica pre-synchronised with mid-flight update"
        );
        let landing = |e: &&TraceEvent| {
            matches!(e, TraceEvent::Bootstrapped { .. } | TraceEvent::UpdateDelivered { .. })
        };
        let landed: Vec<&TraceEvent> =
            sim.world.trace.since(0).map(|r| &r.event).filter(landing).collect();
        let in_order = matches!(
            landed[..],
            [TraceEvent::Bootstrapped { .. }, TraceEvent::UpdateDelivered { applied: true, .. }]
        );
        assert!(in_order, "{landed:?}");
    }

    /// §5.5's overlap: everything committed while two snapshots are in
    /// flight — scoped edits inside and outside a subset, an `AddNode`
    /// inside it, a collaborator joining — reaches the replicas behind
    /// their parcels. The full replica ends equal to the master; the subset
    /// replica holds every node of its snapshot as the master now has it.
    #[test]
    fn replicas_in_flight_take_what_is_published_meanwhile() {
        let (mut sim, ds) = sim_with_scene(200_000); // big: slow marshal
        let model = sim.world.data(ds).scene.find_by_path("/model").unwrap();
        let branch = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            scene.add_node(root, "branch", NodeKind::Group).unwrap()
        };
        let subset = InterestSet::subtrees([branch]);
        let full_rs = sim.world.spawn_render_service("tower");
        let subset_rs = sim.world.spawn_render_service("desktop");
        connect_render_service(&mut sim, full_rs, ds, InterestSet::everything());
        connect_render_service(&mut sim, subset_rs, ds, subset.clone());

        let moved = rave_scene::Transform::from_translation(Vec3::new(1.0, 2.0, 3.0));
        let leaf = sim.world.data_mut(ds).scene.allocate_id();
        let edits = [
            SceneUpdate::SetTransform { id: branch, transform: moved },
            SceneUpdate::SetName { id: model, name: "outside".into() },
            SceneUpdate::AddNode {
                id: leaf,
                parent: branch,
                name: "leaf".into(),
                kind: NodeKind::Group,
            },
            SceneUpdate::SetName { id: leaf, name: "renamed".into() },
        ];
        for edit in edits {
            publish_update(&mut sim, ds, "user", edit).unwrap();
        }
        let camera = rave_scene::CameraParams::default();
        crate::collaboration::join_session(&mut sim, ds, "late", Vec3::X, camera).unwrap();
        assert!(sim.world.data(ds).audit.len() > 4, "the join committed too");
        assert_eq!(sim.world.trace.count(TraceKind::Bootstrap), 0, "both snapshots in flight");
        sim.run();

        let master = &sim.world.data(ds).scene;
        assert!(sim.world.render(full_rs).scene == *master, "the full replica is the master");
        let replica = &sim.world.render(subset_rs).scene;
        let want: Vec<NodeId> = master.extract_parcel(&[branch]).nodes().map(|n| n.id).collect();
        assert!(want.contains(&leaf));
        for id in want {
            let (m, r) = (master.node(id).unwrap(), replica.node(id).expect("held"));
            assert_eq!((r.name(), r.kind(), r.version()), (m.name(), m.kind(), m.version()));
            assert_eq!(r.transform(), m.transform(), "{id}");
        }
    }

    fn rename(sim: &mut RaveSim, ds: DataServiceId, id: NodeId, name: String) {
        publish_update(sim, ds, "user", SceneUpdate::SetName { id, name }).unwrap();
    }

    /// A snapshot in flight across `3 × KEEP` commits lands equal to the
    /// master, and the trail, which nobody reads to catch up, keeps no more
    /// than `2 × KEEP` entries meanwhile.
    #[test]
    fn a_bootstrap_in_flight_leaves_the_trail_bounded() {
        use crate::data_service::KEEP;
        let (mut sim, ds) = sim_with_scene(200_000); // big: slow marshal
        let model = sim.world.data(ds).scene.find_by_path("/model").unwrap();
        let rs = sim.world.spawn_render_service("tower");
        connect_render_service(&mut sim, rs, ds, InterestSet::everything());
        for i in 0..3 * KEEP + 5 {
            rename(&mut sim, ds, model, format!("m{i}"));
            assert!(sim.world.data(ds).audit.len() <= 2 * KEEP, "after {i}");
        }
        assert_eq!(sim.world.trace.count(TraceKind::Bootstrap), 0, "still in flight");
        sim.run();
        assert!(sim.world.render(rs).scene == sim.world.data(ds).scene);
    }

    /// A store whose last checkpoint covers every commit recovers with an
    /// empty WAL tail: the replacement still reports the recovered seq, and
    /// a replica bootstrapped from it catches up an edit made in flight.
    #[test]
    fn recovery_past_an_empty_wal_tail_keeps_the_seq() {
        let dir = std::env::temp_dir().join(format!("rave-boot-tail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 3));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let cfg = rave_store::StoreConfig { checkpoint_every: 4, ..Default::default() };
        sim.world.data_mut(ds).attach_store(&dir, cfg).unwrap();
        let mut ids = Vec::new();
        for i in 0..10 {
            let id = sim.world.data_mut(ds).scene.allocate_id();
            let kind = NodeKind::Group;
            let add = SceneUpdate::AddNode { id, parent: NodeId(0), name: format!("n{i}"), kind };
            publish_update(&mut sim, ds, "user", add).unwrap();
            ids.push(id);
        }
        for (i, &id) in ids.iter().enumerate() {
            rename(&mut sim, ds, id, format!("r{i}"));
        }
        sim.world.data_mut(ds).sync_persistence().unwrap();
        let rec = rave_store::recover(&dir).unwrap();
        assert_eq!((rec.last_seq, rec.entries.len()), (20, 0), "checkpointed at the last commit");

        let new_ds = recover_data_service(&mut sim, ds, "adrenochrome", &dir).unwrap();
        assert_eq!(sim.world.data(new_ds).audit.last_seq(), rec.last_seq);
        assert!(sim.world.data(new_ds).scene == rec.tree);
        let rs = sim.world.spawn_render_service("tower");
        connect_render_service(&mut sim, rs, new_ds, InterestSet::everything());
        rename(&mut sim, new_ds, ids[3], "in flight".into());
        sim.run();
        assert!(sim.world.render(rs).scene == sim.world.data(new_ds).scene);
        assert_eq!(sim.world.data(new_ds).audit.last_seq(), 21);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Recovering one id twice: the second call finds no such data service,
    /// says so, and leaves the world as the first left it.
    #[test]
    fn recovering_the_same_id_twice_is_not_found() {
        let dir = std::env::temp_dir().join(format!("rave-boot-twice-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 3));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        sim.world.data_mut(ds).attach_store(&dir, Default::default()).unwrap();
        let id = sim.world.data_mut(ds).scene.allocate_id();
        let kind = NodeKind::Group;
        let add = SceneUpdate::AddNode { id, parent: NodeId(0), name: "kept".into(), kind };
        publish_update(&mut sim, ds, "user", add).unwrap();
        sim.world.data_mut(ds).sync_persistence().unwrap();

        let new_ds = recover_data_service(&mut sim, ds, "adrenochrome", &dir).unwrap();
        let services: Vec<DataServiceId> = sim.world.data_services.keys().copied().collect();
        let events = sim.world.trace.events().len();
        let err = recover_data_service(&mut sim, ds, "adrenochrome", &dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(sim.world.data_services.keys().copied().eq(services));
        assert_eq!(sim.world.trace.events().len(), events);
        assert!(sim.world.data(new_ds).scene.contains(id));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The standalone tree a bootstrap shipped before it shipped a parcel:
    /// the master's clone, or a fresh tree with the master's root name and
    /// transform that holds the interest closure. Kept as the oracle of the
    /// test below.
    fn snapshot_tree(scene: &SceneTree, interest: &InterestSet) -> SceneTree {
        if interest.is_everything() {
            return scene.clone();
        }
        let mut out = SceneTree::new();
        let master_root = scene.node(scene.root()).unwrap();
        {
            let mut root = out.node_mut(out.root()).unwrap();
            root.set_name(master_root.name());
            root.set_transform(master_root.transform());
        }
        out.adopt_parcel(&scene.extract_parcel(&interest.roots().collect::<Vec<_>>()));
        out
    }

    /// A bootstrap ships one parcel, and marshalling it costs what the
    /// snapshot tree it replaced cost: the same bytes, field visits and
    /// interface checks, for the whole scene and for subsets (one root, and
    /// two with one nested in the other). The master's root is moved and
    /// renamed: every replica's root takes its name and transform.
    #[test]
    fn the_shipped_parcel_marshals_what_the_snapshot_tree_did() {
        let (mut sim, ds) = sim_with_scene(100);
        let model = sim.world.data(ds).scene.find_by_path("/model").unwrap();
        let (branch, leaf) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            scene.set_transform(root, rave_scene::Transform::from_translation(Vec3::Y));
            scene.node_mut(root).unwrap().set_name("master");
            let branch = scene.add_node(root, "branch", NodeKind::Group).unwrap();
            let cam = NodeKind::Camera(rave_scene::CameraParams::default());
            (branch, scene.add_node(branch, "leaf", cam).unwrap())
        };
        let interests = [
            InterestSet::everything(),
            InterestSet::subtrees([model]),
            InterestSet::subtrees([leaf, branch]),
        ];
        for interest in interests {
            let scene = &sim.world.data(ds).scene;
            let want = snapshot_tree(scene, &interest);
            let records = want.descendants_iter(want.root());
            let want_stats = MarshalStats::of(records.map(|n| (n.name(), n.kind())));
            let parcel = snapshot_parcel(scene, &interest);
            let shipped = MarshalStats::of(parcel.nodes().map(|n| (n.name.as_str(), &n.kind)));
            assert_eq!(shipped, want_stats);
            let rs = sim.world.spawn_render_service("tower");
            let timing = connect_render_service(&mut sim, rs, ds, interest);
            assert_eq!(timing.snapshot_bytes, want_stats.bytes);
            let marshal = marshal_time_introspective(&want_stats);
            assert_eq!(timing.marshalled_at, timing.subscribed_at + marshal);
            sim.run();
            let replica = &sim.world.render(rs).scene;
            assert!(want.iter_nodes().all(|n| replica.contains(n.id())));
            let root = replica.node(replica.root()).unwrap();
            assert_eq!((root.name(), root.transform().translation), ("master", Vec3::Y));
        }
    }

    /// Replicas bootstrapped after the master's root was moved and renamed
    /// orient what they are sent as the master does: a node at world
    /// x = 5 on the master is at x = 5 on a full and on a subset replica,
    /// and the full replica is the master.
    #[test]
    fn a_replica_bootstrapped_after_the_root_moved_is_oriented_as_the_master() {
        let (mut sim, ds) = sim_with_scene(100);
        let model = sim.world.data(ds).scene.find_by_path("/model").unwrap();
        let root = sim.world.data(ds).scene.root();
        let moved = rave_scene::Transform::from_translation(Vec3::new(5.0, 0.0, 0.0));
        let edits = [
            SceneUpdate::SetTransform { id: root, transform: moved },
            SceneUpdate::SetName { id: root, name: "stage".into() },
        ];
        for edit in edits {
            publish_update(&mut sim, ds, "user", edit).unwrap();
        }
        let full = sim.world.spawn_render_service("tower");
        let subset = sim.world.spawn_render_service("desktop");
        connect_render_service(&mut sim, full, ds, InterestSet::everything());
        connect_render_service(&mut sim, subset, ds, InterestSet::subtrees([model]));
        sim.run();

        let master = &sim.world.data(ds).scene;
        assert_eq!(
            master.world_transform(model).transform_point(Vec3::ZERO),
            Vec3::new(5.0, 0.0, 0.0)
        );
        for rs in [full, subset] {
            let replica = &sim.world.render(rs).scene;
            let at = replica.world_transform(model).transform_point(Vec3::ZERO);
            assert_eq!(at, Vec3::new(5.0, 0.0, 0.0), "{rs}");
            let r = replica.node(root).unwrap();
            assert_eq!((r.name(), r.version()), ("stage", 2), "{rs}");
        }
        assert!(sim.world.render(full).scene == *master, "the full replica is the master");
    }

    /// A subset replica caught up from the trail holds, node for node, what
    /// one of the same interest live throughout holds and what one
    /// bootstrapped afterwards holds. Committed while its snapshot was in
    /// flight: an `AddNode` under the scene root (outside the interest),
    /// a `ReplaceKind` of the group that orients its root (an orientation
    /// write), and a rename inside it.
    #[test]
    fn a_caught_up_replica_holds_what_a_live_and_a_later_one_hold() {
        let (mut sim, ds) = sim_with_scene(100);
        let (group, leaf) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let group = scene.add_node(scene.root(), "group", NodeKind::Group).unwrap();
            (group, scene.add_node(group, "leaf", NodeKind::Group).unwrap())
        };
        let interest = InterestSet::subtrees([leaf]);
        let [live, caught_up, late] =
            ["tower", "desktop", "laptop"].map(|host| sim.world.spawn_render_service(host));
        connect_render_service(&mut sim, live, ds, interest.clone());
        sim.run();
        connect_render_service(&mut sim, caught_up, ds, interest.clone());
        let outside = sim.world.data_mut(ds).scene.allocate_id();
        let root = sim.world.data(ds).scene.root();
        let mesh = MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]; 1000]);
        let edits = [
            SceneUpdate::AddNode {
                id: outside,
                parent: root,
                name: "outside".into(),
                kind: NodeKind::Group,
            },
            SceneUpdate::ReplaceKind { id: group, kind: NodeKind::Mesh(Arc::new(mesh)) },
            SceneUpdate::SetName { id: leaf, name: "inside".into() },
        ];
        for edit in edits {
            publish_update(&mut sim, ds, "user", edit).unwrap();
        }
        assert_eq!(sim.world.trace.count(TraceKind::Bootstrap), 1, "one snapshot in flight");
        sim.run();
        connect_render_service(&mut sim, late, ds, interest);
        sim.run();

        let replica = |rs| &sim.world.render(rs).scene;
        assert!(!replica(caught_up).contains(outside), "outside the interest");
        assert_eq!(replica(caught_up).node(leaf).unwrap().name(), "inside");
        let group_version = sim.world.data(ds).scene.node(group).unwrap().version();
        assert_eq!(replica(caught_up).node(group).unwrap().version(), group_version);
        assert!(replica(caught_up) == replica(live), "the caught-up replica is the live one");
        assert!(replica(caught_up) == replica(late), "the caught-up replica is the late one");
        let cost = |rs| sim.world.render(rs).assigned_cost();
        assert_eq!((cost(live), cost(caught_up)), (cost(late), cost(late)));
    }

    /// A full replica bootstrapped after the master's root took a camera
    /// holds the master's root, kind and all: the cut took the root. A
    /// subset replica holds it as an orientation record, a group.
    #[test]
    fn a_full_replica_bootstrapped_after_the_root_took_a_payload_is_the_master() {
        let (mut sim, ds) = sim_with_scene(100);
        let model = sim.world.data(ds).scene.find_by_path("/model").unwrap();
        let root = sim.world.data(ds).scene.root();
        let kind = NodeKind::Camera(rave_scene::CameraParams::default());
        publish_update(&mut sim, ds, "user", SceneUpdate::ReplaceKind { id: root, kind }).unwrap();
        let full = sim.world.spawn_render_service("tower");
        let subset = sim.world.spawn_render_service("desktop");
        connect_render_service(&mut sim, full, ds, InterestSet::everything());
        connect_render_service(&mut sim, subset, ds, InterestSet::subtrees([model]));
        sim.run();

        let master = &sim.world.data(ds).scene;
        assert!(sim.world.render(full).scene == *master, "the full replica is the master");
        let r = sim.world.render(subset).scene.node(root).unwrap();
        assert_eq!((r.kind(), r.version()), (&NodeKind::Group, 1));
    }

    /// A data service that fails with a snapshot in flight, recovered
    /// cold: the snapshot lands all the same, as a delivery wave does, then
    /// the re-bootstrap from the replacement, and the replica ends equal to
    /// the new master.
    #[test]
    fn a_snapshot_outliving_its_data_service_still_lands() {
        let dir = std::env::temp_dir().join(format!("rave-boot-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 3));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        sim.world.data_mut(ds).attach_store(&dir, Default::default()).unwrap();
        let id = sim.world.data_mut(ds).scene.allocate_id();
        let mesh = MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]; 200_000]);
        let kind = NodeKind::Mesh(Arc::new(mesh));
        let add = SceneUpdate::AddNode { id, parent: NodeId(0), name: "model".into(), kind };
        publish_update(&mut sim, ds, "user", add).unwrap();
        sim.world.data_mut(ds).sync_persistence().unwrap();
        let rs = sim.world.spawn_render_service("tower");
        connect_render_service(&mut sim, rs, ds, InterestSet::everything());

        let outcome = process_events(&mut sim, ds, &[SchedEvent::DataFailure { service: ds }]);
        let new_ds = outcome.promotions[0].promoted;
        rename(&mut sim, new_ds, id, "renamed".into());
        sim.run();
        assert!(sim.world.render(rs).scene == sim.world.data(new_ds).scene);
        let landed: Vec<&TraceEvent> =
            sim.world.trace.of_kind(TraceKind::Bootstrap).map(|r| &r.event).collect();
        let want =
            [TraceEvent::Bootstrapped { rs, ds }, TraceEvent::Bootstrapped { rs, ds: new_ds }];
        assert_eq!(
            landed,
            want.iter().collect::<Vec<_>>(),
            "the failed master's, then the new one's"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A render service that fails with its snapshot in flight: the
    /// arrival finds nobody to install it on.
    #[test]
    fn a_snapshot_outliving_its_render_service_installs_nothing() {
        let (mut sim, ds) = sim_with_scene(200_000);
        let rs = sim.world.spawn_render_service("tower");
        connect_render_service(&mut sim, rs, ds, InterestSet::everything());
        process_events(&mut sim, ds, &[SchedEvent::Failure { service: rs }]);
        sim.run();
        assert!(!sim.world.render_services.contains_key(&rs));
        assert!(!sim.world.data(ds).subscribers().contains_key(&rs));
        let row = &sim.world.trace.first_of(TraceKind::Bootstrap).unwrap().event;
        assert_eq!(*row, TraceEvent::SnapshotDropped { rs, ds });
    }

    #[test]
    fn subset_interest_gets_subset_snapshot() {
        let (mut sim, ds) = sim_with_scene(100);
        // Add a second subtree the subscriber does NOT want.
        let other = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            scene.add_node(root, "other", NodeKind::Group).unwrap()
        };
        let model = sim.world.data(ds).scene.find_by_path("/model").unwrap();
        let rs = sim.world.spawn_render_service("desktop");
        connect_render_service(&mut sim, rs, ds, InterestSet::subtrees([model]));
        sim.run();
        let replica = &sim.world.render(rs).scene;
        assert!(replica.contains(model));
        assert!(!replica.contains(other));
    }

    #[test]
    fn bigger_scenes_bootstrap_slower() {
        let (mut sim_small, ds_s) = sim_with_scene(1_000);
        let rs_s = sim_small.world.spawn_render_service("tower");
        let t_small = connect_render_service(&mut sim_small, rs_s, ds_s, InterestSet::everything());

        let (mut sim_big, ds_b) = sim_with_scene(800_000);
        let rs_b = sim_big.world.spawn_render_service("tower");
        let t_big = connect_render_service(&mut sim_big, rs_b, ds_b, InterestSet::everything());

        assert!(t_big.ready_at.as_secs() > t_small.ready_at.as_secs() * 5.0);
        assert!(t_big.snapshot_bytes > t_small.snapshot_bytes * 100);
    }

    #[test]
    fn introspection_dominates_direct_marshalling() {
        let (sim, ds) = sim_with_scene(100_000);
        let (intro, direct, _) = marshal_comparison(&sim.world.data(ds).scene);
        assert!(
            intro.as_secs() > direct.as_secs() * 20.0,
            "introspective {intro} vs direct {direct}"
        );
    }

    /// Two replicas of one branch, one subscribed before a collaborator
    /// joins and moves and one bootstrapped after, hold the same scene: the
    /// avatar hangs off the root, outside the branch's closure, so neither
    /// holds it. Each is what a fresh tree that adopts the master's
    /// snapshot parcel holds, and stays so when the avatar is recast as a
    /// camera.
    #[test]
    fn a_subset_replica_is_its_snapshot_whatever_its_join_order() {
        use crate::collaboration::{join_session, move_camera};
        let (mut sim, ds) = sim_with_scene(100);
        let model = sim.world.data(ds).scene.find_by_path("/model").unwrap();
        let interest = InterestSet::subtrees([model]);
        let early = sim.world.spawn_render_service("tower");
        connect_render_service(&mut sim, early, ds, interest.clone());
        sim.run();
        let camera = rave_scene::CameraParams::default();
        let who = join_session(&mut sim, ds, "u", Vec3::X, camera).unwrap();
        let moved = rave_scene::CameraParams { position: Vec3::new(1.0, 2.0, 3.0), ..camera };
        move_camera(&mut sim, ds, who, "u", moved).unwrap();
        sim.run();
        let late = sim.world.spawn_render_service("laptop");
        connect_render_service(&mut sim, late, ds, interest.clone());
        sim.run();
        let check = |sim: &RaveSim, when: &str| {
            let mut fresh = SceneTree::new();
            fresh.adopt_parcel(&snapshot_parcel(&sim.world.data(ds).scene, &interest));
            let (early, late) = (&sim.world.render(early).scene, &sim.world.render(late).scene);
            assert!(!early.contains(who.avatar) && !late.contains(who.avatar), "{when}");
            assert!(early == late, "the early and the late replica differ {when}");
            assert!(*early == fresh, "the replicas are not their snapshot {when}");
        };
        check(&sim, "after the join");
        let recast = SceneUpdate::ReplaceKind { id: who.avatar, kind: NodeKind::Camera(camera) };
        publish_update(&mut sim, ds, "user", recast).unwrap();
        sim.run();
        check(&sim, "after the recast");
    }
}
