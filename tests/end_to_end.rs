//! Cross-crate integration: the full RAVE pipeline from model file to
//! delivered pixels.

use rave::core::bootstrap::{connect_planned, connect_render_service};
use rave::core::collaboration::{join_session, move_camera};
use rave::core::distribution::plan_distribution;
use rave::core::thin_client::{connect, stream_frames};
use rave::core::world::{publish_update, RaveWorld};
use rave::core::RaveConfig;
use rave::math::Vec3;
use rave::models::{build_with_budget, obj, ply, PaperModel};
use rave::scene::{CameraParams, InterestSet, NodeKind, SceneUpdate};
use rave::sim::Simulation;
use rave::store::StoreConfig;
use std::sync::Arc;

/// The paper's full ingest path: procedural model → binary PLY → OBJ →
/// data service → render service replica → PDA frames.
#[test]
fn model_file_to_pda_frames() {
    // 1. Model provenance: PLY → OBJ conversion (§5).
    let model = build_with_budget(PaperModel::Galleon, 2_000);
    let mut ply_bytes = Vec::new();
    ply::write(&model, ply::PlyFormat::BinaryLittleEndian, &mut ply_bytes).unwrap();
    let from_ply = ply::read(std::io::Cursor::new(ply_bytes)).unwrap();
    let mut obj_bytes = Vec::new();
    obj::write(&from_ply, &mut obj_bytes).unwrap();
    let imported = obj::read(std::io::Cursor::new(obj_bytes)).unwrap();
    assert_eq!(imported.triangle_count(), 2_000);

    // 2. Serve it.
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 1001));
    let ds = sim.world.spawn_data_service("adrenochrome", "galleon");
    let (node, root) = {
        let scene = &mut sim.world.data_mut(ds).scene;
        (scene.allocate_id(), scene.root())
    };
    publish_update(
        &mut sim,
        ds,
        "importer",
        SceneUpdate::AddNode {
            id: node,
            parent: root,
            name: "galleon".into(),
            kind: NodeKind::Mesh(Arc::new(imported)),
        },
    )
    .unwrap();

    // 3. Render service bootstraps, PDA streams.
    let rs = sim.world.spawn_render_service("laptop");
    connect_render_service(&mut sim, rs, ds, InterestSet::everything());
    sim.run();
    assert_eq!(sim.world.render(rs).assigned_cost().polygons, 2_000);

    let pda = sim.world.spawn_thin_client("zaurus");
    connect(&mut sim, pda, rs);
    stream_frames(&mut sim, pda, 5);
    sim.run();
    let stats = &sim.world.client(pda).stats;
    assert_eq!(stats.frames, 5);
    let fps = stats.fps();
    // Small model at 200x200: the wireless wire is the ceiling (~4 fps
    // with the sequential request loop).
    assert!((2.0..6.0).contains(&fps), "fps {fps}");
}

/// Distribution across heterogeneous services, then collaboration on the
/// distributed scene: the participant's own view, a full replica, shows
/// the avatar where the camera went; the assisting services render their
/// subsets, which the avatar hanging off the root is no part of.
#[test]
fn distributed_collaborative_session_converges() {
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 1002));
    let ds = sim.world.spawn_data_service("adrenochrome", "skeleton");
    // Two content subtrees.
    for (name, tris) in [("skull", 4_000u64), ("torso", 6_000u64)] {
        let (id, root) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            (scene.allocate_id(), scene.root())
        };
        publish_update(
            &mut sim,
            ds,
            "importer",
            SceneUpdate::AddNode {
                id,
                parent: root,
                name: name.into(),
                kind: NodeKind::Mesh(Arc::new(build_with_budget(PaperModel::Elle, tris))),
            },
        )
        .unwrap();
    }

    let rs1 = sim.world.spawn_render_service("laptop");
    let rs2 = sim.world.spawn_render_service("tower");
    // Plan by interrogated capacity, clamped so neither machine can hold
    // the whole 10k-polygon scene alone (forcing a genuine distribution —
    // on the unconstrained testbed the Xeon would swallow everything).
    let cfg = sim.world.config.clone();
    let reports: Vec<_> = vec![
        sim.world.render(rs1).capacity_report(&cfg),
        sim.world.render(rs2).capacity_report(&cfg),
    ]
    .into_iter()
    .map(|mut r| {
        r.poly_headroom = r.poly_headroom.min(6_000);
        r
    })
    .collect();
    let plan = {
        let mut master = sim.world.data(ds).scene.clone();
        let plan = plan_distribution(&mut master, &reports).unwrap();
        sim.world.data_mut(ds).scene = master;
        plan
    };
    let placed: u64 = plan.assignments.iter().map(|a| a.cost.polygons).sum();
    assert_eq!(placed, 10_000, "all content placed");
    connect_planned(&mut sim, ds, &plan);
    let viewer = sim.world.spawn_render_service("desktop");
    connect_render_service(&mut sim, viewer, ds, InterestSet::everything());
    sim.run();

    // A user joins and navigates: the avatar is routed as any node is, to
    // the full replica, and not to the subsets beside the root.
    let cam = CameraParams::look_at(Vec3::new(0.0, 1.0, 4.0), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
    let who = join_session(&mut sim, ds, "Desktop", Vec3::X, cam).unwrap();
    sim.run();
    let mut cam2 = cam;
    cam2.orbit(Vec3::new(0.0, 1.0, 0.0), 0.7, 0.0);
    move_camera(&mut sim, ds, who, "Desktop", cam2).unwrap();
    sim.run();

    let view = &sim.world.render(viewer).scene;
    let avatar = view.node(who.avatar).expect("the viewer has the avatar");
    assert_eq!(avatar.transform().translation, cam2.position, "the viewer applied the move");
    for rs in [rs1, rs2] {
        assert!(!sim.world.render(rs).scene.contains(who.avatar), "{rs} holds no avatar");
    }
    // Replica contents partition the content nodes, and nothing else.
    let p1 = sim.world.render(rs1).assigned_cost().polygons;
    let p2 = sim.world.render(rs2).assigned_cost().polygons;
    assert_eq!(p1 + p2, 10_000, "p1={p1} p2={p2}");
    assert!(p1 > 0 && p2 > 0, "both services hold content");
}

/// Audit-trail persistence round-trips a whole collaborative session
/// through disk format and replays to the identical master scene.
#[test]
fn session_persistence_roundtrip() {
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 1003));
    let ds = sim.world.spawn_data_service("adrenochrome", "sess");
    let dir = std::env::temp_dir().join(format!("rave-e2e-recording-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    sim.world.data_mut(ds).attach_store(&dir, StoreConfig::default()).unwrap();
    let (id, root) = {
        let scene = &mut sim.world.data_mut(ds).scene;
        (scene.allocate_id(), scene.root())
    };
    publish_update(
        &mut sim,
        ds,
        "importer",
        SceneUpdate::AddNode {
            id,
            parent: root,
            name: "model".into(),
            kind: NodeKind::Mesh(Arc::new(build_with_budget(PaperModel::Galleon, 500))),
        },
    )
    .unwrap();
    let who = join_session(&mut sim, ds, "u1", Vec3::X, CameraParams::default()).unwrap();
    sim.run();
    for i in 0..5 {
        let mut cam = CameraParams::default();
        cam.orbit(Vec3::ZERO, 0.2 * i as f32, 0.0);
        move_camera(&mut sim, ds, who, "u1", cam).unwrap();
    }
    sim.run();

    // Record → play back from the store.
    sim.world.data_mut(ds).sync_persistence().unwrap();
    let replayed = rave::store::recover(&dir).unwrap().tree;
    let master = &sim.world.data(ds).scene;
    assert_eq!(replayed.len(), master.len());
    for n in replayed.descendants(replayed.root()) {
        let a = replayed.node(n).unwrap();
        let b = master.node(n).expect("same node set");
        assert_eq!(a.name(), b.name());
        assert_eq!(a.transform(), b.transform());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// §5.1's degrading-wireless scenario end-to-end: real frames from the
/// rasterizer, codec chosen adaptively per link state; the chosen codec's
/// end-to-end frame time beats raw at every signal level and the decoded
/// image is identical (lossless path) to what was rendered.
#[test]
fn adaptive_compression_under_degrading_signal() {
    use rave::compress::adaptive::{select, EndpointSpeed};
    use rave::net::LinkSpec;
    use rave::render::{Framebuffer, Renderer};

    let mesh = build_with_budget(PaperModel::Galleon, 2_000);
    let mut tree = rave::scene::SceneTree::new();
    let root = tree.root();
    tree.add_node(root, "m", NodeKind::Mesh(Arc::new(mesh))).unwrap();
    let b = tree.world_bounds(root);
    let cam0 = CameraParams::look_at(
        b.center() + Vec3::new(0.0, 0.2 * b.radius(), 2.0 * b.radius()),
        b.center(),
        Vec3::Y,
    );
    let renderer = Renderer::default();
    let mut prev_fb = Framebuffer::new(200, 200);
    renderer.render(&tree, &cam0, &mut prev_fb);
    let mut cam1 = cam0;
    cam1.orbit(b.center(), 0.04, 0.0);
    let mut cur_fb = Framebuffer::new(200, 200);
    renderer.render(&tree, &cam1, &mut cur_fb);
    let prev = prev_fb.to_rgb_bytes();
    let cur = cur_fb.to_rgb_bytes();

    let mut last_time = 0.0;
    for signal in [1.0, 0.5, 0.2, 0.08] {
        let link = LinkSpec::wireless_11mb(signal);
        let choice = select(
            &cur,
            Some(&prev),
            &link,
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            false, // lossless only: the decoded frame must be exact
        );
        let raw_time = link.transfer_time(cur.len() as u64).as_secs();
        assert!(
            choice.total_time.as_secs() <= raw_time,
            "codec never loses to raw at {signal}: {} vs {raw_time}",
            choice.total_time.as_secs()
        );
        assert!(choice.total_time.as_secs() >= last_time, "weaker signal cannot be faster");
        last_time = choice.total_time.as_secs();
        // End-to-end decode correctness on the real frame.
        let decoded =
            choice.codec.decode(&choice.codec.encode(&cur, Some(&prev)), Some(&prev)).unwrap();
        assert_eq!(decoded, cur, "lossless roundtrip at signal {signal}");
    }
}

/// Failure injection across the whole stack: a render service dies
/// mid-session; its scene share is redistributed, edits of it keep flowing
/// to the survivor, and a collaborator who joins is shown in the full
/// replica of a viewer.
#[test]
fn service_failure_recovery() {
    use rave::core::sched::rebalance::{process_events, SchedEvent};

    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 1005));
    let ds = sim.world.spawn_data_service("adrenochrome", "sess");
    // Content split across two subset subscribers.
    let mut nodes = Vec::new();
    for name in ["left", "right"] {
        let (id, root) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            (scene.allocate_id(), scene.root())
        };
        publish_update(
            &mut sim,
            ds,
            "importer",
            SceneUpdate::AddNode {
                id,
                parent: root,
                name: name.into(),
                kind: NodeKind::Mesh(Arc::new(build_with_budget(PaperModel::Galleon, 1_000))),
            },
        )
        .unwrap();
        nodes.push(id);
    }
    let rs_a = sim.world.spawn_render_service("laptop");
    let rs_b = sim.world.spawn_render_service("tower");
    connect_render_service(&mut sim, rs_a, ds, InterestSet::subtrees([nodes[0]]));
    connect_render_service(&mut sim, rs_b, ds, InterestSet::subtrees([nodes[1]]));
    let viewer = sim.world.spawn_render_service("desktop");
    connect_render_service(&mut sim, viewer, ds, InterestSet::everything());
    sim.run();

    // rs_a dies; its subtree must land on rs_b.
    let outcome = process_events(&mut sim, ds, &[SchedEvent::Failure { service: rs_a }]);
    sim.run();
    assert!(!outcome.refused);
    assert_eq!(outcome.moved.len(), 1);
    assert!(sim.world.render(rs_b).scene.contains(nodes[0]));
    assert_eq!(sim.world.render(rs_b).assigned_cost().polygons, 2_000);

    // Collaboration continues: an edit of the moved share reaches the
    // survivor, and a collaborator joining reaches the viewer.
    let rename = SceneUpdate::SetName { id: nodes[0], name: "left-edited".into() };
    publish_update(&mut sim, ds, "editor", rename).unwrap();
    let who =
        join_session(&mut sim, ds, "survivor-user", Vec3::X, CameraParams::default()).unwrap();
    sim.run();
    let survivor = &sim.world.render(rs_b).scene;
    assert_eq!(survivor.node(nodes[0]).unwrap().name(), "left-edited");
    assert!(sim.world.render(viewer).scene.contains(who.avatar));
}

/// The grid discovery plane: services registered in UDDI are found by
/// technical model and their WSDL conforms, so clients connect without
/// configuration (§3.2.2).
#[test]
fn discovery_through_uddi_registry() {
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 1004));
    sim.world.spawn_data_service("adrenochrome", "Skull");
    sim.world.spawn_render_service("tower");
    sim.world.spawn_render_service("laptop");
    let renders =
        sim.world.registry.scan_access_points("RAVE", rave::grid::TechnicalModel::RenderService);
    assert_eq!(renders.len(), 2);
    let datas = sim.world.registry.find_services("RAVE", rave::grid::TechnicalModel::DataService);
    assert_eq!(datas.len(), 1);
    assert!(datas[0].wsdl.conforms());
    // The Fig 4 tree renders with both machines.
    let tree = sim.world.registry.render_tree();
    assert!(tree.contains("tower") && tree.contains("adrenochrome"));
}
