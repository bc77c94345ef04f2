//! Collaboration (§3.2.4, §5.2).
//!
//! "Clients are represented in the dataset by an avatar — a simple
//! graphical object to indicate the position and view of the client.
//! Clients can manipulate items in the dataset, with scene updates being
//! sent to the central data service for reflection to other
//! clients/services." Fig 3 shows the host "Desktop" navigating as a cone
//! avatar in another user's view.

use crate::ids::DataServiceId;
use crate::trace::TraceEvent;
use crate::world::{publish_batch, publish_update, RaveSim};
use rave_math::Vec3;
use rave_scene::node::Interaction;
use rave_scene::{
    AvatarInfo, CameraParams, NodeId, NodeKind, SceneTree, SceneUpdate, Transform, UpdateError,
};

/// A participant handle: the avatar node representing a user/host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Participant {
    pub avatar: NodeId,
}

/// Join a session: publishes the avatar node; every replica will render
/// this user's presence.
pub fn join_session(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    label: &str,
    color: Vec3,
    camera: CameraParams,
) -> Result<Participant, UpdateError> {
    let (id, parent) = {
        let ds = sim.world.data_mut(ds_id);
        (ds.scene.allocate_id(), ds.scene.root())
    };
    publish_update(
        sim,
        ds_id,
        label,
        SceneUpdate::AddNode {
            id,
            parent,
            name: format!("avatar-{label}"),
            kind: NodeKind::Avatar(AvatarInfo { label: label.into(), color, camera }),
        },
    )?;
    // Pose the avatar at the camera immediately.
    publish_update(sim, ds_id, label, SceneUpdate::CameraMoved { id, camera })?;
    sim.world.trace.record(sim.now(), TraceEvent::Joined { label: label.into(), ds: ds_id });
    Ok(Participant { avatar: id })
}

/// Leave a session: removes the avatar everywhere.
pub fn leave_session(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    who: Participant,
    label: &str,
) -> Result<(), UpdateError> {
    publish_update(sim, ds_id, label, SceneUpdate::RemoveNode { id: who.avatar })?;
    sim.world.trace.record(sim.now(), TraceEvent::Left { label: label.into(), ds: ds_id });
    Ok(())
}

/// A camera drag: updates the avatar's mirrored camera and pose on every
/// replica.
pub fn move_camera(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    who: Participant,
    label: &str,
    camera: CameraParams,
) -> Result<(), UpdateError> {
    publish_update(sim, ds_id, label, SceneUpdate::CameraMoved { id: who.avatar, camera })
        .map(|_| ())
}

/// One interactive tick of a big session: every participant's camera
/// move published as a single batch. Routing still runs per update (the
/// interest index makes each one cheap), but delivery coalesces — one
/// scheduled apply event per arrival instant for the whole tick (two or
/// three on the machine room) instead of one per (update, subscriber)
/// pair, which is the difference between a 10k-thin-client tick being
/// simulable and the event queue drowning.
pub fn session_tick(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    moves: &[(Participant, &str, CameraParams)],
) -> Result<Vec<u64>, UpdateError> {
    let updates = moves
        .iter()
        .map(|&(who, label, camera)| {
            (label.to_string(), SceneUpdate::CameraMoved { id: who.avatar, camera })
        })
        .collect();
    publish_batch(sim, ds_id, updates)
}

/// Drag a scene object to a new transform (the click-select-drag
/// interaction).
pub fn drag_object(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    label: &str,
    node: NodeId,
    transform: Transform,
) -> Result<(), UpdateError> {
    publish_update(sim, ds_id, label, SceneUpdate::SetTransform { id: node, transform }).map(|_| ())
}

/// After a data-service failover, a client re-finds its avatar in the
/// recovered scene instead of re-joining (which would duplicate its
/// presence): the avatar node survived in the snapshot/WAL, only the
/// handle to it was lost with the crashed process.
pub fn reattach_participant(scene: &SceneTree, label: &str) -> Option<Participant> {
    scene.iter_nodes().find_map(|n| match n.kind() {
        NodeKind::Avatar(a) if a.label == label => Some(Participant { avatar: n.id() }),
        _ => None,
    })
}

/// The GUI's interaction interrogation (§5.2): "The GUI interrogates
/// objects for any supported interactions, and reflects this in the
/// drop-down menus." Returns the menu for a selected node. Static: the
/// menu rebuild runs per node per frame, so this allocates nothing and —
/// with the arena's kind tag — never touches the node payload.
pub fn interaction_menu(scene: &SceneTree, node: NodeId) -> &'static [Interaction] {
    scene.node(node).map(|n| n.supported_interactions()).unwrap_or(&[])
}

/// Rotate-around interaction: orbit `who`'s camera around the selected
/// object's world-space center ("rotate the camera around a selected
/// object").
pub fn orbit_selected(
    sim: &mut RaveSim,
    ds_id: DataServiceId,
    who: Participant,
    label: &str,
    selected: NodeId,
    d_yaw: f32,
    d_pitch: f32,
) -> Result<(), UpdateError> {
    let (mut camera, center) = {
        let ds = sim.world.data(ds_id);
        let camera = match ds.scene.node(who.avatar).map(|n| n.kind()) {
            Some(NodeKind::Avatar(a)) => a.camera,
            _ => CameraParams::default(),
        };
        let center = ds.scene.world_bounds(selected).center();
        (camera, center)
    };
    camera.orbit(center, d_yaw, d_pitch);
    move_camera(sim, ds_id, who, label, camera)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;
    use crate::world::RaveWorld;
    use crate::RaveConfig;
    use rave_scene::{InterestSet, MeshData};
    use rave_sim::Simulation;
    use std::sync::Arc;

    fn collaborative_world() -> (RaveSim, DataServiceId, crate::ids::RenderServiceId) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 21));
        let ds = sim.world.spawn_data_service("adrenochrome", "hand-session");
        let rs = sim.world.spawn_render_service("desktop");
        // A shared model in the scene.
        {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            scene
                .add_node(
                    root,
                    "hand",
                    NodeKind::Mesh(Arc::new(MeshData::new(
                        vec![Vec3::ZERO, Vec3::X, Vec3::Y],
                        vec![[0, 1, 2]],
                    ))),
                )
                .unwrap();
        }
        sim.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        // Seed the replica.
        let replica = sim.world.data(ds).scene.clone();
        sim.world.render_mut(rs).scene = replica;
        (sim, ds, rs)
    }

    #[test]
    fn two_users_see_each_other() {
        let (mut sim, ds, rs) = collaborative_world();
        let cam_a = CameraParams::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y);
        let cam_b = CameraParams::look_at(Vec3::new(5.0, 0.0, 0.0), Vec3::ZERO, Vec3::Y);
        let a = join_session(&mut sim, ds, "laptop", Vec3::X, cam_a).unwrap();
        let b = join_session(&mut sim, ds, "Desktop", Vec3::Y, cam_b).unwrap();
        sim.run();
        // Both avatars visible in the replica (what user A's render
        // service draws — Fig 3).
        let replica = &sim.world.render(rs).scene;
        assert!(replica.contains(a.avatar));
        assert!(replica.contains(b.avatar));
        match replica.node(b.avatar).unwrap().kind() {
            NodeKind::Avatar(info) => {
                assert_eq!(info.label, "Desktop");
                assert_eq!(info.camera.position, cam_b.position);
            }
            _ => panic!("not an avatar"),
        }
    }

    #[test]
    fn camera_moves_propagate_to_replicas() {
        let (mut sim, ds, rs) = collaborative_world();
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y);
        let who = join_session(&mut sim, ds, "Desktop", Vec3::Y, cam).unwrap();
        sim.run();
        let mut cam2 = cam;
        cam2.orbit(Vec3::ZERO, 0.5, 0.0);
        move_camera(&mut sim, ds, who, "Desktop", cam2).unwrap();
        sim.run();
        let node = sim.world.render(rs).scene.node(who.avatar).unwrap();
        assert_eq!(node.transform().translation, cam2.position);
    }

    #[test]
    fn drag_object_moves_shared_model() {
        let (mut sim, ds, rs) = collaborative_world();
        let hand = sim.world.data(ds).scene.find_by_path("/hand").unwrap();
        drag_object(
            &mut sim,
            ds,
            "laptop",
            hand,
            Transform::from_translation(Vec3::new(2.0, 0.0, 0.0)),
        )
        .unwrap();
        sim.run();
        assert_eq!(
            sim.world.render(rs).scene.node(hand).unwrap().transform().translation,
            Vec3::new(2.0, 0.0, 0.0)
        );
    }

    #[test]
    fn interrogation_menus_differ_by_object() {
        let (sim, ds, _) = collaborative_world();
        let scene = &sim.world.data(ds).scene;
        let hand = scene.find_by_path("/hand").unwrap();
        let menu = interaction_menu(scene, hand);
        assert!(menu.contains(&Interaction::Drag));
        assert!(menu.contains(&Interaction::RotateAround));
        assert!(interaction_menu(scene, NodeId(999)).is_empty());
    }

    #[test]
    fn orbit_selected_keeps_distance_to_object() {
        let (mut sim, ds, _) = collaborative_world();
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y);
        let who = join_session(&mut sim, ds, "u", Vec3::X, cam).unwrap();
        sim.run();
        let hand = sim.world.data(ds).scene.find_by_path("/hand").unwrap();
        let center = sim.world.data(ds).scene.world_bounds(hand).center();
        let before = cam.position.distance(center);
        orbit_selected(&mut sim, ds, who, "u", hand, 0.6, 0.1).unwrap();
        sim.run();
        let after_cam = match sim.world.data(ds).scene.node(who.avatar).unwrap().kind() {
            NodeKind::Avatar(a) => a.camera,
            _ => unreachable!(),
        };
        let after = after_cam.position.distance(center);
        assert!((before - after).abs() < 1e-3, "orbit preserves radius");
        assert!(after_cam.position.distance(cam.position) > 0.5, "camera actually moved");
    }

    #[test]
    fn leave_removes_avatar_everywhere() {
        let (mut sim, ds, rs) = collaborative_world();
        let who = join_session(&mut sim, ds, "u", Vec3::X, CameraParams::default()).unwrap();
        sim.run();
        leave_session(&mut sim, ds, who, "u").unwrap();
        sim.run();
        assert!(!sim.world.data(ds).scene.contains(who.avatar));
        assert!(!sim.world.render(rs).scene.contains(who.avatar));
    }

    #[test]
    fn session_tick_batches_camera_moves_into_one_delivery() {
        let (mut sim, ds, rs) = collaborative_world();
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y);
        let a = join_session(&mut sim, ds, "laptop", Vec3::X, cam).unwrap();
        let b = join_session(&mut sim, ds, "Desktop", Vec3::Y, cam).unwrap();
        sim.run();
        let before = sim.world.trace.recorded();
        let mut cam_a = cam;
        cam_a.orbit(Vec3::ZERO, 0.4, 0.0);
        let mut cam_b = cam;
        cam_b.orbit(Vec3::ZERO, -0.4, 0.1);
        let seqs =
            session_tick(&mut sim, ds, &[(a, "laptop", cam_a), (b, "Desktop", cam_b)]).unwrap();
        assert_eq!(seqs.len(), 2);
        sim.run();
        // Both moves landed on the replica...
        let scene = &sim.world.render(rs).scene;
        assert_eq!(scene.node(a.avatar).unwrap().transform().translation, cam_a.position);
        assert_eq!(scene.node(b.avatar).unwrap().transform().translation, cam_b.position);
        // ...traced per update but applied in one coalesced event: both
        // deliveries carry the identical batch timestamp.
        let ticks: Vec<_> = sim
            .world
            .trace
            .since(before)
            .filter(|e| e.event.kind() == TraceKind::UpdateDelivered)
            .collect();
        assert_eq!(ticks.len(), 2, "one trace per update for the one subscriber");
        assert_eq!(ticks[0].at, ticks[1].at, "batch applies at a single instant");
        assert!(ticks
            .iter()
            .all(|e| matches!(e.event, TraceEvent::UpdateDelivered { applied: true, .. })));
    }

    #[test]
    fn the_recording_replays_collaboration() {
        // Asynchronous collaboration: a later user replays the session.
        let dir = std::env::temp_dir().join(format!("rave-collab-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut sim, ds, _) = collaborative_world();
        sim.world.data_mut(ds).attach_store(&dir, Default::default()).unwrap();
        let who = join_session(&mut sim, ds, "u", Vec3::X, CameraParams::default()).unwrap();
        sim.run();
        sim.world.data_mut(ds).sync_persistence().unwrap();
        let replayed = rave_store::recover(&dir).unwrap().tree;
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(replayed.contains(who.avatar));
    }
}
