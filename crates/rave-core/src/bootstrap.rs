//! Render-service bootstrap (§5.3/§5.5).
//!
//! A render service joining a session receives its snapshot as a
//! [`Parcel`], the message a migration sends too; on arrival the parcel is
//! adopted, the data service's audit trail past it replays, and the replica
//! is "pre-synchronised with \[the\] data service". The parcel's marshal
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
    /// When the replica became live (snapshot applied + trail replayed).
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
/// handshake charged from `start`: the replica's catch-up from the trail
/// starts now, and a root moved to it before `start` is listed in its
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

    // 3. Register the subscription, ship the parcel.
    sim.world.data_mut(ds_id).begin_bootstrap(rs_id, interest.clone());
    move |sim| {
        let arrival = sim.world.send_bytes(marshalled_at, &ds_host, &rs_host, stats.bytes);
        // 4. On arrival: adopt the parcel, replay the trail past it. A
        //    parcel whose sender or receiver failed meanwhile installs
        //    nothing: failover re-bootstraps the receiver from the new
        //    master.
        sim.schedule_at(arrival, move |sim| {
            let now = sim.now();
            let RaveWorld { data_services, render_services, trace, .. } = &mut sim.world;
            let (Some(ds), Some(rs)) =
                (data_services.get_mut(&ds_id), render_services.get_mut(&rs_id))
            else {
                trace.record(now, TraceEvent::SnapshotDropped { rs: rs_id, ds: ds_id });
                return;
            };
            let missed = ds.complete_bootstrap(rs_id);
            // Adopt (not replace): nodes that arrived through other paths
            // while the parcel was in flight — e.g. migration moving work
            // onto a freshly recruited service — must survive.
            rs.scene.adopt_parcel(&parcel);
            let mut interest = interest.clone();
            for root in rs.interest.roots() {
                interest.add_root(root);
            }
            rs.interest = interest;
            for e in missed {
                // The trail holds every update, not only this interest's;
                // one to a node the replica does not hold is refused.
                rs.apply_update(&e.stamped.update);
            }
            let replayed = missed.len();
            trace.record(now, TraceEvent::Bootstrapped { rs: rs_id, ds: ds_id, replayed });
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
/// replacement with its original interest set — the §5.5 catch-up from
/// the trail makes the re-mirror safe against updates published while
/// the snapshots are in flight.
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
    for (&rs_id, sub) in failed_ds.subscribers() {
        connect_render_service(sim, rs_id, new_id, sub.interest.clone());
    }
    Ok(new_id)
}

/// The parcel a bootstrap ships: the whole scene, or the interest closure
/// with ancestor orientation (§3.2.5). A subset carries no presence node
/// outside that closure, so the avatars hanging off the root are not in
/// it: such a replica holds only the avatars whose `AddNode` reached it
/// live (`InterestSet::relevant`). A replica built outside a bootstrap is
/// a fresh tree that adopts this parcel.
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
    use crate::data_service::SubState;
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
        let state = |sim: &RaveSim| sim.world.data(ds).subscribers()[&rs].state;
        assert_eq!(state(&sim), SubState::Bootstrapping { since: 0 });
        sim.run();
        assert_eq!(state(&sim), SubState::Live);
        let rs_ref = sim.world.render(rs);
        assert!(rs_ref.scene.find_by_path("/model").is_some());
        assert_eq!(rs_ref.assigned_cost().polygons, 500);
        assert!(timing.ready_at > timing.marshalled_at);
        assert_eq!(sim.world.trace.count(TraceKind::Bootstrap), 1);
    }

    #[test]
    fn updates_during_bootstrap_are_replayed_in_order() {
        // The §5.5 overlap: scene and camera changes published while the
        // snapshot is in flight must be reflected when the replica goes
        // live.
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
        let row = &sim.world.trace.first_of(TraceKind::Bootstrap).unwrap().event;
        assert!(matches!(row, TraceEvent::Bootstrapped { replayed: 1, .. }), "trace: {row}");
    }

    /// §5.5's overlap, read from the trail: everything committed while two
    /// snapshots are in flight — scoped edits inside and outside a subset,
    /// an `AddNode` inside it, a collaborator joining — is caught up. The
    /// full replica ends equal to the master; the subset replica holds
    /// every node of its snapshot as the master now has it.
    #[test]
    fn replicas_in_flight_catch_up_from_the_trail() {
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
        let in_flight = sim.world.data(ds).audit.len();
        assert!(in_flight > 4, "the join committed too");
        assert!(sim.world.data(ds).subscribers().values().all(|s| s.state != SubState::Live));
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
        for row in sim.world.trace.of_kind(TraceKind::Bootstrap) {
            let replayed = matches!(row.event, TraceEvent::Bootstrapped { replayed, .. } if replayed == in_flight);
            assert!(replayed, "{}", row.event);
        }
    }

    fn rename(sim: &mut RaveSim, ds: DataServiceId, id: NodeId, name: String) {
        publish_update(sim, ds, "user", SceneUpdate::SetName { id, name }).unwrap();
    }

    /// A snapshot in flight across `3 × KEEP` commits keeps the trail past
    /// its `since`; once it lands, the next releases shrink the trail back.
    #[test]
    fn a_bootstrap_in_flight_pins_the_trail() {
        use crate::data_service::KEEP;
        let (mut sim, ds) = sim_with_scene(200_000); // big: slow marshal
        let model = sim.world.data(ds).scene.find_by_path("/model").unwrap();
        let rs = sim.world.spawn_render_service("tower");
        connect_render_service(&mut sim, rs, ds, InterestSet::everything());
        let pinned = 3 * KEEP + 5;
        for i in 0..pinned {
            rename(&mut sim, ds, model, format!("m{i}"));
        }
        assert_eq!(sim.world.data(ds).audit.len(), pinned, "nothing past `since` released");
        sim.run();
        assert!(sim.world.render(rs).scene == sim.world.data(ds).scene);
        let row = &sim.world.trace.first_of(TraceKind::Bootstrap).unwrap().event;
        let replayed =
            matches!(row, TraceEvent::Bootstrapped { replayed, .. } if *replayed == pinned);
        assert!(replayed, "{row}");
        for i in 0..KEEP {
            rename(&mut sim, ds, model, format!("after{i}"));
        }
        assert!(sim.world.data(ds).audit.len() < 2 * KEEP);
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

    /// A data service that fails with a snapshot in flight, recovered
    /// cold: the snapshot installs nothing, the re-bootstrap from the
    /// replacement does, and the replica ends equal to the new master.
    #[test]
    fn a_snapshot_outliving_its_data_service_installs_nothing() {
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
        let rows: Vec<_> = sim.world.trace.of_kind(TraceKind::Bootstrap).collect();
        assert_eq!(rows.len(), 2, "the dropped snapshot and the re-bootstrap");
        assert!(rows.iter().any(|r| matches!(r.event, TraceEvent::SnapshotDropped { .. })));
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
    /// joins and one bootstrapped after, should hold the same scene. They
    /// do not: the early one inserted the avatar's live `AddNode` (routed
    /// to every subscriber), the late one's snapshot is the branch closure,
    /// which leaves the avatar under the root out.
    #[test]
    #[ignore = "ROADMAP: presence in subset snapshots"]
    fn a_subset_replica_holds_presence_whatever_its_join_order() {
        let (mut sim, ds) = sim_with_scene(100);
        let model = sim.world.data(ds).scene.find_by_path("/model").unwrap();
        let early = sim.world.spawn_render_service("tower");
        connect_render_service(&mut sim, early, ds, InterestSet::subtrees([model]));
        sim.run();
        crate::collaboration::join_session(
            &mut sim,
            ds,
            "Desktop",
            Vec3::X,
            rave_scene::CameraParams::default(),
        )
        .unwrap();
        sim.run();
        let late = sim.world.spawn_render_service("laptop");
        connect_render_service(&mut sim, late, ds, InterestSet::subtrees([model]));
        sim.run();
        let (early, late) = (&sim.world.render(early).scene, &sim.world.render(late).scene);
        assert!(early.holds_presence(), "the early replica took the avatar's AddNode");
        assert_eq!(
            early.holds_presence(),
            late.holds_presence(),
            "the late replica holds the avatar too"
        );
        assert_eq!(early, late);
    }
}
