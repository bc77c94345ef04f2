//! Quickstart: stand up a one-machine RAVE deployment, share a model,
//! stream remotely rendered frames to a PDA-class thin client, and save a
//! screenshot.
//!
//! Run with: `cargo run --release --example quickstart`

use rave::core::thin_client::{connect, stream_frames};
use rave::core::world::{publish_update, RaveWorld};
use rave::core::RaveConfig;
use rave::math::Vec3;
use rave::models::{build_with_budget, PaperModel};
use rave::scene::{InterestSet, NodeKind, SceneUpdate};
use rave::sim::Simulation;
use std::fs::File;
use std::sync::Arc;

fn main() {
    // 1. A world with the paper's testbed topology (LAN + wireless PDA).
    let config = RaveConfig { produce_images: true, ..RaveConfig::default() };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(config, 1));

    // 2. A data service hosting a session, with the galleon model.
    let ds = sim.world.spawn_data_service("adrenochrome", "galleon-session");
    let galleon = build_with_budget(PaperModel::Galleon, 5_500);
    println!("built {}: {} polygons", PaperModel::Galleon.name(), galleon.triangle_count());
    {
        let scene = &mut sim.world.data_mut(ds).scene;
        let root = scene.root();
        scene.add_node(root, "galleon", NodeKind::Mesh(Arc::new(galleon))).unwrap();
    }

    // 3. A render service on the laptop, bootstrapped from the data
    //    service (snapshot + live-update overlap).
    let rs = sim.world.spawn_render_service("laptop");
    let timing =
        rave::core::bootstrap::connect_render_service(&mut sim, rs, ds, InterestSet::everything());
    println!(
        "render service bootstrap: {} bytes, ready at {}",
        timing.snapshot_bytes, timing.ready_at
    );
    sim.run();

    // 4. A thin client on the PDA streams ten 200x200 frames.
    let pda = sim.world.spawn_thin_client("zaurus");
    {
        // Frame the model.
        let bounds = sim.world.render(rs).scene.world_bounds(rave::scene::NodeId(0));
        let c = bounds.center();
        let eye = c + Vec3::new(0.0, bounds.radius() * 0.6, bounds.radius() * 2.0);
        sim.world.client_mut(pda).camera = rave::scene::CameraParams::look_at(eye, c, Vec3::Y);
    }
    connect(&mut sim, pda, rs);
    stream_frames(&mut sim, pda, 10);
    sim.run();

    let stats = &sim.world.client(pda).stats;
    println!("streamed {} frames over 11Mb wireless:", stats.frames);
    println!("  frame rate     : {:.1} fps", stats.fps());
    println!("  total latency  : {:.3} s", stats.total_latency.mean());
    println!("  image receipt  : {:.3} s", stats.receipt.mean());
    println!("  render time    : {:.3} s", stats.render.mean());
    println!("  other overheads: {:.3} s", stats.other_overheads.mean());

    // 5. A live user edits the scene: every replica follows.
    let node = sim.world.data(ds).scene.find_by_path("/galleon").unwrap();
    publish_update(
        &mut sim,
        ds,
        "quickstart-user",
        SceneUpdate::SetTransform {
            id: node,
            transform: rave::scene::Transform::from_rotation(rave::math::Quat::from_axis_angle(
                Vec3::Y,
                0.4,
            )),
        },
    )
    .unwrap();
    sim.run();

    // 6. Save what the render service now sees.
    let fb = sim.world.render_mut(rs).rasterize(pda).expect("session image");
    std::fs::create_dir_all("out").unwrap();
    let mut f = File::create("out/quickstart.ppm").unwrap();
    fb.write_ppm(&mut f).unwrap();
    println!("wrote out/quickstart.ppm ({}x{})", fb.width(), fb.height());
    println!("\nsession committed {} update(s).", sim.world.data(ds).audit.last_seq());
}
