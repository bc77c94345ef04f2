//! Render-service bootstrap (§5.3/§5.5).
//!
//! A render service joining a session receives a scene snapshot while
//! live updates are buffered; on arrival the snapshot is installed, the
//! buffer replays, and the replica is "pre-synchronised with \[the\] data
//! service". Snapshot marshalling goes through the *introspective* path
//! (the paper's measured bottleneck); [`marshal_time_direct`] prices the
//! ablation alternative.

use crate::data_service::DataService;
use crate::ids::{DataServiceId, RenderServiceId};
use crate::trace::TraceKind;
use crate::world::RaveSim;
use rave_grid::{SoapCodec, SoapEnvelope, SoapValue};
use rave_scene::introspect::{marshal_direct, marshal_introspective, MarshalStats};
use rave_scene::{InterestSet, NodeId, SceneTree};
use rave_sim::SimTime;
use std::path::Path;

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

/// CPU time of direct marshalling of the same tree (ablation).
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
    /// When the replica became live (snapshot applied + buffer drained).
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
    let t0 = sim.now();
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
    let subscribed_at = t0 + soap_cpu + rtt;

    // 2. Snapshot extraction + introspective marshal at the data service.
    let (snapshot, stats) = {
        let ds = sim.world.data(ds_id);
        let snapshot = snapshot_for(&ds.scene, &interest);
        let (_bytes, stats) = marshal_introspective(&snapshot);
        (snapshot, stats)
    };
    let marshal = marshal_time_introspective(&stats);
    let marshalled_at = subscribed_at + marshal;

    // 3. Register the buffering subscription, ship the snapshot.
    sim.world.data_mut(ds_id).begin_bootstrap(rs_id, interest.clone());
    sim.world.render_mut(rs_id).bootstrapping = true;
    let arrival = sim.world.send_bytes(marshalled_at, &ds_host, &rs_host, stats.bytes);

    // 4. On arrival: install replica, drain buffered updates in order.
    sim.schedule_at(arrival, move |sim| {
        let now = sim.now();
        let buffered = sim.world.data_mut(ds_id).complete_bootstrap(rs_id);
        let n_buffered = buffered.len();
        {
            let rs = sim.world.render_mut(rs_id);
            // Merge (not replace): nodes that arrived through other paths
            // while the snapshot was in flight — e.g. migration moving
            // work onto a freshly recruited service — must survive.
            rs.scene.merge_subset(&snapshot);
            let mut interest = interest.clone();
            for root in rs.interest.roots() {
                interest.add_root(root);
            }
            rs.interest = interest;
            for stamped in buffered {
                // Buffered updates may touch nodes outside the snapshot
                // (interest conservatism); ignore those.
                let _ = stamped.update.apply(&mut rs.scene);
            }
            rs.bootstrapping = false;
        }
        sim.world.trace.record(
            now,
            TraceKind::Bootstrap,
            format!("{rs_id} live on {ds_id} ({n_buffered} buffered updates replayed)"),
        );
    });

    BootstrapTiming { subscribed_at, marshalled_at, ready_at: arrival, snapshot_bytes: stats.bytes }
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
/// The failed instance is dropped from the world; a replacement on
/// `host` rebuilds the session from the latest snapshot checkpoint plus
/// the write-ahead-log tail, keeps the session name, and re-attaches the
/// store with the failed instance's store config so logging continues
/// where it stopped, at the same cadence. Every render service the
/// failed instance was serving is re-bootstrapped against the
/// replacement with its original interest set — the §5.5 overlap
/// machinery makes the re-mirror safe against updates published while
/// the snapshots are in flight.
pub fn recover_data_service(
    sim: &mut RaveSim,
    failed: DataServiceId,
    host: &str,
    dir: impl AsRef<Path>,
) -> std::io::Result<DataServiceId> {
    let failed_ds = sim
        .world
        .data_services
        .remove(&failed)
        .unwrap_or_else(|| panic!("no data service {failed} to recover"));
    sim.world.registry.unpublish("RAVE", &failed_ds.host, &failed_ds.name);
    let cfg = failed_ds.store().map(|store| *store.config()).unwrap_or_default();
    let new_id = sim.world.next_data_service_id();
    let rec = rave_store::recover(dir.as_ref())?;
    let mut ds = DataService::new(new_id, host, &failed_ds.name);
    ds.seed_from(&rec)?;
    ds.attach_store(dir, cfg)?;
    sim.world.install_data_service(ds);
    let now = sim.now();
    sim.world.trace.record(
        now,
        TraceKind::Recovery,
        format!(
            "{failed} -> {new_id} on {host}: recovered \"{}\" at seq {} \
             (snapshot seq {}, {} WAL entries replayed), {} subscriber(s) re-mirroring",
            failed_ds.name,
            rec.last_seq,
            rec.snapshot_seq,
            rec.entries.len(),
            failed_ds.subscribers.len(),
        ),
    );
    for (rs_id, sub) in failed_ds.subscribers {
        connect_render_service(sim, rs_id, new_id, sub.interest);
    }
    Ok(new_id)
}

/// The snapshot a subscriber receives: the whole scene, or the interest
/// closure with ancestor orientation (§3.2.5).
pub fn snapshot_for(scene: &SceneTree, interest: &InterestSet) -> SceneTree {
    if interest.is_everything() {
        scene.clone()
    } else {
        let roots: Vec<NodeId> = interest.roots().collect();
        scene.extract_subset(&roots)
    }
}

/// Ablation datum: marshalling times for a scene under both paths.
pub fn marshal_comparison(scene: &SceneTree) -> (SimTime, SimTime, MarshalStats) {
    let (_b, intro_stats) = marshal_introspective(scene);
    let (_b2, direct_stats) = marshal_direct(scene);
    (marshal_time_introspective(&intro_stats), marshal_time_direct(&direct_stats), intro_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{publish_update, RaveWorld};
    use crate::RaveConfig;
    use rave_math::Vec3;
    use rave_scene::{MeshData, NodeKind, SceneUpdate};
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
        assert!(sim.world.render(rs).bootstrapping);
        sim.run();
        let rs_ref = sim.world.render(rs);
        assert!(!rs_ref.bootstrapping);
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
        let detail = &sim.world.trace.first_of(TraceKind::Bootstrap).unwrap().detail;
        assert!(detail.contains("1 buffered"), "trace: {detail}");
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
}
