//! Workload migration (§3.2.7).
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
//! The decision machinery lives in [`crate::sched::rebalance`] since the
//! scheduler unification; this module keeps the historical entry points
//! as thin adapters that detect the trigger condition and feed the
//! [`SchedEvent`] stream.

use crate::ids::{DataServiceId, RenderServiceId};
use crate::sched::rebalance::{
    detect_cost_drift, detect_overload, detect_underload, process_events,
};
use crate::world::RaveSim;

pub use crate::sched::rebalance::{
    incremental_replan, select_nodes_to_shed, IncrementalOutcome, MigrationOutcome, SchedEvent,
};

/// One migration pass for `ds_id`: shed from overloaded services onto
/// connected services with headroom, recruiting via UDDI when that is not
/// enough.
pub fn check_and_migrate(sim: &mut RaveSim, ds_id: DataServiceId) -> MigrationOutcome {
    let events = detect_overload(sim, ds_id);
    process_events(sim, ds_id, &events)
}

/// Track under-load and rebalance onto services that have been idle past
/// the debounce window: "When a render service is significantly
/// underloaded (for a given amount of time, to smooth out spikes of
/// usage), the data service again redistributes data."
pub fn check_underload_rebalance(sim: &mut RaveSim, ds_id: DataServiceId) -> MigrationOutcome {
    let events = detect_underload(sim, ds_id);
    process_events(sim, ds_id, &events)
}

/// Handle the death of a render service (§6: "we can stop using a machine
/// once it becomes loaded by (for instance) a local user logging on" — or
/// a crash): unsubscribe it and redistribute its scene share onto the
/// remaining services, recruiting via UDDI if necessary.
pub fn handle_service_failure(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    dead: RenderServiceId,
) -> MigrationOutcome {
    process_events(sim, ds_id, &[SchedEvent::Failure { service: dead }])
}

/// Handle the death of the data service itself — the last single point
/// of failure. The event flows through the same rebalance engine as
/// every other trigger: a warm standby (log-shipping link, see
/// [`crate::replica`]) is promoted in place; without one the service is
/// rebuilt cold from its durable store, and with neither the session is
/// refused as lost.
pub fn handle_data_service_failure(sim: &mut RaveSim, dead: DataServiceId) -> MigrationOutcome {
    process_events(sim, dead, &[SchedEvent::DataFailure { service: dead }])
}

/// One *incremental* rebalance pass for `ds_id`: run every detector and
/// fold the whole event batch into the data service's persistent plan —
/// the replay touches only the affected queue slice and emits a minimal
/// migration diff, instead of the per-event shedding heuristics of
/// [`check_and_migrate`].
pub fn check_and_replan_incremental(sim: &mut RaveSim, ds_id: DataServiceId) -> IncrementalOutcome {
    let mut events = detect_overload(sim, ds_id);
    events.extend(detect_underload(sim, ds_id));
    events.extend(detect_cost_drift(sim, ds_id));
    incremental_replan(sim, ds_id, &events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceKind};
    use crate::world::RaveWorld;
    use crate::RaveConfig;
    use rave_math::{Vec3, Viewport};
    use rave_render::OffscreenMode;
    use rave_scene::InterestSet;
    use rave_scene::{CameraParams, MeshData, NodeId, NodeKind, SceneTree, SceneUpdate};
    use rave_sim::SimTime;
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

    /// Two connected render services: `slow` overloaded with two meshes,
    /// `fast` idle.
    fn overload_world() -> (RaveSim, DataServiceId, RenderServiceId, RenderServiceId) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 11));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let slow = sim.world.spawn_render_service("laptop");
        let fast = sim.world.spawn_render_service("onyx");
        // Master scene: one big and one small mesh.
        let (big, small) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            let big = scene.add_node(root, "big", mesh(600_000)).unwrap();
            let small = scene.add_node(root, "small", mesh(40_000)).unwrap();
            (big, small)
        };
        // Slow service holds everything; fast holds nothing.
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
        // Record slow frames: 2 fps.
        for i in 0..6 {
            let t = SimTime::from_secs(i as f64 * 0.5);
            sim.world.render_mut(rs).record_frame(t, 10);
        }
    }

    #[test]
    fn overload_sheds_to_spare_capacity() {
        let (mut sim, ds, slow, fast) = overload_world();
        make_overloaded(&mut sim, slow);
        let outcome = check_and_migrate(&mut sim, ds);
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
        let first = check_and_replan_incremental(&mut sim, ds);
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
        let second = check_and_replan_incremental(&mut sim, ds);
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
        let outcome = check_and_migrate(&mut sim, ds);
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
        let outcome = check_and_migrate(&mut sim, ds);
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
        let outcome = check_and_migrate(&mut sim, ds);
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
        let roots: BTreeSet<NodeId> =
            sim.world.data(ds).subscribers()[&fresh].interest.roots().collect();
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
        let outcome = check_and_migrate(&mut sim, ds);
        assert!(outcome.refused);
        assert_eq!(sim.world.trace.count(TraceKind::Refusal), 1);
    }

    #[test]
    fn failed_service_work_redistributes() {
        let (mut sim, ds, slow, fast) = overload_world();
        // `slow` holds both subtrees; kill it.
        let outcome = handle_service_failure(&mut sim, ds, slow);
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
        let outcome = handle_service_failure(&mut sim, ds, slow);
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
                TraceEvent::SchedDecision { candidates, .. } => candidates.first().copied(),
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
        let outcome = handle_service_failure(&mut sim, ds, fast);
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
        let o1 = check_underload_rebalance(&mut sim, ds);
        assert!(!o1.acted(), "debounce holds immediate action");
        // Advance past the debounce window and check again.
        sim.schedule_in(SimTime::from_secs(6.0), |_| {});
        sim.run();
        let o2 = check_underload_rebalance(&mut sim, ds);
        assert!(o2.acted(), "after debounce the rebalance moves work");
        assert!(o2.moved.iter().all(|(_, _, to)| *to == fast));
        // Receiver never overshoots its headroom.
        sim.run();
        let cfg = sim.world.config.clone();
        let fast_report = sim.world.render(fast).capacity_report(&cfg);
        assert!(fast_report.poly_headroom > 0 || fast_report.assigned.polygons > 0);
    }
}
