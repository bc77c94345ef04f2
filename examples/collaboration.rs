//! Collaborative session (the Fig 3 scenario): two users on different
//! machines share the skeletal-hand scene; each sees the other's cone
//! avatar navigate. The session is recorded into a store and played back
//! from it afterwards — asynchronous collaboration (§3.1.1).
//!
//! Run with: `cargo run --release --example collaboration`

use rave::core::collaboration::{drag_object, interaction_menu, join_session, move_camera};
use rave::core::world::RaveWorld;
use rave::core::RaveConfig;
use rave::math::Vec3;
use rave::models::{build_with_budget, PaperModel};
use rave::scene::{CameraParams, InterestSet, NodeKind, Transform};
use rave::sim::{SimTime, Simulation};
use rave::store::StoreConfig;
use std::fs::File;
use std::sync::Arc;

fn main() {
    let config = RaveConfig { produce_images: true, ..RaveConfig::default() };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(config, 2));

    // Shared scene: a scaled-down skeletal hand (full-size rasterization
    // is for the bench harness; this example favours fast turnaround).
    let ds = sim.world.spawn_data_service("adrenochrome", "hand-session");
    // The recording: every committed update is appended to this store.
    let recording = std::env::temp_dir().join(format!("rave-collab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&recording);
    sim.world.data_mut(ds).attach_store(&recording, StoreConfig::default()).unwrap();
    let hand = build_with_budget(PaperModel::SkeletalHand, 20_000);
    // Import through the update protocol so the store records the whole
    // session from its very first byte (replayable from scratch).
    {
        let (id, root) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            (scene.allocate_id(), scene.root())
        };
        rave::core::world::publish_update(
            &mut sim,
            ds,
            "importer",
            rave::scene::SceneUpdate::AddNode {
                id,
                parent: root,
                name: "hand".into(),
                kind: NodeKind::Mesh(Arc::new(hand)),
            },
        )
        .unwrap();
    }

    // Each user has a render service on their own machine.
    let rs_laptop = sim.world.spawn_render_service("laptop");
    let rs_desktop = sim.world.spawn_render_service("desktop");
    for rs in [rs_laptop, rs_desktop] {
        rave::core::bootstrap::connect_render_service(&mut sim, rs, ds, InterestSet::everything());
    }
    sim.run();

    // Two users join; avatars propagate to both replicas.
    let hand_bounds = sim.world.data(ds).scene.world_bounds(rave::scene::NodeId(0));
    let center = hand_bounds.center();
    let r = hand_bounds.radius();
    let cam_a = CameraParams::look_at(center + Vec3::new(0.0, 0.0, 2.5 * r), center, Vec3::Y);
    let cam_b =
        CameraParams::look_at(center + Vec3::new(2.0 * r, 0.8 * r, 0.8 * r), center, Vec3::Y);
    let alice = join_session(&mut sim, ds, "laptop", Vec3::new(0.2, 0.9, 0.3), cam_a).unwrap();
    let bob = join_session(&mut sim, ds, "Desktop", Vec3::new(0.95, 0.5, 0.1), cam_b).unwrap();
    sim.run();

    // The GUI interrogates the model for its interaction menu (§5.2).
    let hand_node = sim.world.data(ds).scene.find_by_path("/hand").unwrap();
    println!(
        "interactions offered for /hand: {:?}",
        interaction_menu(&sim.world.data(ds).scene, hand_node)
    );

    // Bob navigates around the model (8 drag steps) while Alice watches.
    let mut cam = cam_b;
    for step in 0..8 {
        cam.orbit(center, 0.18, 0.02);
        move_camera(&mut sim, ds, bob, "Desktop", cam).unwrap();
        // Interactive pacing: ~10 drags/second.
        let pause = sim.now() + SimTime::from_millis(100.0);
        sim.schedule_at(pause, |_| {});
        sim.run();
        let _ = step;
    }

    // Alice rotates the model itself: a shared edit.
    drag_object(
        &mut sim,
        ds,
        "laptop",
        hand_node,
        Transform::from_rotation(rave::math::Quat::from_axis_angle(Vec3::Z, 0.35)),
    )
    .unwrap();
    sim.run();

    // Render Alice's view: she sees the hand and Bob's cone + name tag.
    {
        let rs = sim.world.render_mut(rs_laptop);
        rs.renderer.skip_subtree = Some(alice.avatar); // not your own head
        rs.open_session(
            rave::core::ClientId(99),
            rave::math::Viewport::new(400, 400),
            cam_a,
            rave::render::OffscreenMode::Sequential,
        );
        let fb = rs.rasterize(rave::core::ClientId(99)).unwrap();
        std::fs::create_dir_all("out").unwrap();
        fb.write_ppm(&mut File::create("out/collaboration_alice_view.ppm").unwrap()).unwrap();
        println!("wrote out/collaboration_alice_view.ppm — Bob appears as an avatar");
    }

    // Asynchronous collaboration: play the recorded session back later.
    sim.world.data_mut(ds).sync_persistence().unwrap();
    let replayed = rave::store::recover(&recording).unwrap();
    println!(
        "recording: {} updates (snapshot at seq {} + {} WAL entries)",
        replayed.last_seq,
        replayed.snapshot_seq,
        replayed.entries.len()
    );
    assert!(replayed.tree.contains(bob.avatar), "replayed session contains Bob's avatar");
    println!(
        "replayed session: {} nodes (identical to the live master: {})",
        replayed.tree.len(),
        sim.world.data(ds).scene.len()
    );
    std::fs::remove_dir_all(&recording).unwrap();
    println!(
        "\ntrace excerpt:\n{}",
        &sim.world.trace.render()[..600.min(sim.world.trace.render().len())]
    );
}
