//! Crash recovery end-to-end: a collaborative session persisted through
//! the rave-store WAL + snapshot checkpoints, a data-service crash that
//! tears the final log record, and a replacement service that recovers
//! the session and re-mirrors every subscribed render service — called
//! directly, and through the scheduler's failure event for a service
//! that has no standby — a storm of edits whose checkpoints are
//! deltas, recovered through them, and a log with holes where refused
//! updates were stamped, read back whole.

use rave::core::bootstrap::{connect_render_service, recover_data_service};
use rave::core::collaboration::{join_session, move_camera, reattach_participant};
use rave::core::sched::rebalance::{process_events, SchedEvent};
use rave::core::trace::{TraceEvent, TraceKind};
use rave::core::world::{publish_update, RaveWorld};
use rave::core::RaveConfig;
use rave::math::Vec3;
use rave::scene::{CameraParams, InterestSet, MeshData, NodeKind, SceneUpdate, Transform};
use rave::sim::Simulation;
use rave::store::StoreConfig;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rave-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Simulate the crash artifact: a torn final record, as if the process
/// died mid-`write` of an append that never reached any subscriber.
fn tear_wal_tail(dir: &PathBuf) {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|d| d.ok())
        .map(|d| d.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    let active = segs.last().expect("a WAL segment exists");
    let mut bytes = std::fs::read(active).unwrap();
    // A record header promising 200 payload bytes, followed by only 4:
    // exactly what a crash mid-append leaves behind.
    bytes.extend_from_slice(&200u32.to_le_bytes());
    bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    bytes.extend_from_slice(&[0x55; 4]);
    std::fs::write(active, &bytes).unwrap();
}

#[test]
fn session_survives_data_service_crash() {
    let dir = tmp_dir("failover");
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7001));

    // A persistent session: every commit is WAL-logged, with periodic
    // snapshot checkpoints (often, so the WAL tail stays short) and
    // compaction.
    let ds = sim.world.spawn_data_service("adrenochrome", "skull-session");
    sim.world
        .data_mut(ds)
        .attach_store(&dir, StoreConfig { checkpoint_every: 8, segment_max_bytes: 512 })
        .unwrap();

    // A render service mirrors the session; a user joins and works.
    let rs = sim.world.spawn_render_service("tower");
    connect_render_service(&mut sim, rs, ds, InterestSet::everything());
    sim.run();
    let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y);
    let who = join_session(&mut sim, ds, "Desktop", Vec3::Y, cam).unwrap();
    let mut objects = Vec::new();
    for i in 0..20 {
        let (id, root) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            (scene.allocate_id(), scene.root())
        };
        publish_update(
            &mut sim,
            ds,
            "Desktop",
            SceneUpdate::AddNode {
                id,
                parent: root,
                name: format!("obj-{i}"),
                kind: NodeKind::Group,
            },
        )
        .unwrap();
        objects.push(id);
    }
    for (i, &id) in objects.iter().enumerate() {
        publish_update(
            &mut sim,
            ds,
            "Desktop",
            SceneUpdate::SetTransform {
                id,
                transform: Transform::from_translation(Vec3::new(i as f32, 0.0, 0.0)),
            },
        )
        .unwrap();
    }
    let mut cam2 = cam;
    cam2.orbit(Vec3::ZERO, 0.4, 0.1);
    move_camera(&mut sim, ds, who, "Desktop", cam2).unwrap();
    sim.run();

    // Quiescent: the mirror is exactly the master, and checkpoints ran.
    let pre_crash_mirror = sim.world.render(rs).scene.clone();
    assert_eq!(pre_crash_mirror, sim.world.data(ds).scene);
    assert!(sim.world.trace.count(TraceKind::Checkpoint) >= 2, "periodic checkpoints traced");

    // Crash: the data-service process dies mid-append. The torn record
    // was never applied anywhere — it is not part of the session.
    tear_wal_tail(&dir);
    let new_ds = recover_data_service(&mut sim, ds, "v880z", &dir).unwrap();
    assert_ne!(new_ds, ds);

    // The replacement recovered exactly the pre-crash state...
    assert_eq!(sim.world.data(new_ds).scene, pre_crash_mirror);
    assert_eq!(sim.world.trace.count(TraceKind::Recovery), 1);
    let row = &sim.world.trace.first_of(TraceKind::Recovery).unwrap().event;
    assert!(matches!(row, TraceEvent::Recovered { row: r } if r.subscribers == 1), "trace: {row}");

    // ...the user re-finds their avatar instead of duplicating it...
    let who2 = reattach_participant(&sim.world.data(new_ds).scene, "Desktop").unwrap();
    assert_eq!(who2.avatar, who.avatar);

    // ...and the subscriber re-mirrors and receives fresh updates.
    sim.run();
    assert_eq!(sim.world.render(rs).scene, pre_crash_mirror);
    let (id, root) = {
        let scene = &mut sim.world.data_mut(new_ds).scene;
        (scene.allocate_id(), scene.root())
    };
    publish_update(
        &mut sim,
        new_ds,
        "Desktop",
        SceneUpdate::AddNode { id, parent: root, name: "post-crash".into(), kind: NodeKind::Group },
    )
    .unwrap();
    sim.run();
    assert!(
        sim.world.render(rs).scene.contains(id),
        "replacement streams to re-mirrored subscriber"
    );

    // The post-crash update went into the same store: a second crash
    // right now would still recover it.
    let rec = rave::store::recover(&dir).unwrap();
    assert!(rec.tree.contains(id));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_bounds_store_size_over_long_session() {
    let dir = tmp_dir("bounded");
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7002));
    let ds = sim.world.spawn_data_service("adrenochrome", "marathon");
    sim.world
        .data_mut(ds)
        .attach_store(&dir, StoreConfig { checkpoint_every: 32, segment_max_bytes: 2048 })
        .unwrap();
    let (id, root) = {
        let scene = &mut sim.world.data_mut(ds).scene;
        (scene.allocate_id(), scene.root())
    };
    publish_update(
        &mut sim,
        ds,
        "u",
        SceneUpdate::AddNode { id, parent: root, name: "obj".into(), kind: NodeKind::Group },
    )
    .unwrap();
    for i in 0..1000 {
        publish_update(
            &mut sim,
            ds,
            "u",
            SceneUpdate::SetTransform {
                id,
                transform: Transform::from_translation(Vec3::new(i as f32, 0.0, 0.0)),
            },
        )
        .unwrap();
    }
    sim.run();
    // ~1000 transform updates would be ~60 KB of raw log; compaction
    // keeps the store to one small snapshot + the live segments.
    let mut disk = 0;
    for d in std::fs::read_dir(&dir).unwrap() {
        disk += d.unwrap().metadata().unwrap().len();
    }
    assert!(disk < 16 * 1024, "store is {disk} bytes, compaction not bounding it");
    let rec = rave::store::recover(&dir).unwrap();
    assert_eq!(rec.last_seq, 1001);
    assert_eq!(rec.tree, sim.world.data(ds).scene);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn service_without_a_standby_is_rebuilt_from_its_store_and_continues_the_sequence() {
    let dir = tmp_dir("lone");
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7003));
    let ds = sim.world.spawn_data_service("adrenochrome", "lone-session");
    sim.world.data_mut(ds).attach_store(&dir, StoreConfig::default()).unwrap();
    let rs = sim.world.spawn_render_service("tower");
    connect_render_service(&mut sim, rs, ds, InterestSet::everything());
    sim.run();
    let add = |sim: &mut rave::core::RaveSim, ds, name: &str| {
        let (id, root) = {
            let scene = &mut sim.world.data_mut(ds).scene;
            (scene.allocate_id(), scene.root())
        };
        let update =
            SceneUpdate::AddNode { id, parent: root, name: name.into(), kind: NodeKind::Group };
        (id, publish_update(sim, ds, "Desktop", update).unwrap())
    };
    for i in 0..12 {
        add(&mut sim, ds, &format!("obj-{i}"));
    }
    sim.world.data_mut(ds).sync_persistence().unwrap();
    sim.run();
    let committed = sim.world.data(ds).audit.last_seq();
    let pre_failure = sim.world.data(ds).scene.clone();

    // No replication link: the failure event takes the cold path.
    let outcome = process_events(&mut sim, ds, &[SchedEvent::DataFailure { service: ds }]);
    sim.run();
    assert_eq!(outcome.promotions.len(), 1);
    assert!(!outcome.promotions[0].warm);
    assert!(!sim.world.data_services.contains_key(&ds));
    let new_ds = outcome.promotions[0].promoted;
    assert_eq!(sim.world.data(new_ds).scene, pre_failure);
    assert_eq!(sim.world.data(new_ds).audit.last_seq(), committed);
    assert_eq!(sim.world.render(rs).scene, pre_failure, "the subscriber re-mirrored");

    // The replacement owns the session: its stamps carry on from the
    // failed service's, and the subscriber receives them.
    let (id, seq) = add(&mut sim, new_ds, "post-failure");
    assert_eq!(seq, committed + 1);
    sim.run();
    assert!(sim.world.render(rs).scene.contains(id));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_edit_storm_session_checkpoints_in_deltas_and_recovers_through_them() {
    use rave::store::CheckpointKind;
    let dir = tmp_dir("storm");
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7004));
    let ds = sim.world.spawn_data_service("adrenochrome", "storm");
    sim.world.data_mut(ds).attach_store(&dir, StoreConfig::default()).unwrap();
    let mesh = |tris: u32| {
        let corners = vec![Vec3::ZERO, Vec3::X, Vec3::Y];
        NodeKind::Mesh(Arc::new(MeshData::new(corners, vec![[0, 1, 2]; tris as usize])))
    };
    let mut kinds = Vec::new();
    let mut commit = |sim: &mut rave::core::RaveSim, update: SceneUpdate| {
        let service = sim.world.data_mut(ds);
        let stamped = service.stamp("editor", update);
        if let Some((_, report)) = service.commit(1.0, &stamped).unwrap() {
            kinds.push(report.unwrap().kind);
        }
    };
    // The import: 500 tiny meshes under 16 groups.
    let root = sim.world.data(ds).scene.root();
    let mut groups = Vec::new();
    for g in 0..16 {
        let id = sim.world.data_mut(ds).scene.allocate_id();
        let kind = NodeKind::Group;
        commit(&mut sim, SceneUpdate::AddNode { id, parent: root, name: format!("g{g}"), kind });
        groups.push(id);
    }
    let mut meshes = Vec::new();
    for n in 0..500u32 {
        let id = sim.world.data_mut(ds).scene.allocate_id();
        let (parent, kind) = (groups[n as usize % 16], mesh(10 + n * 37 % 390));
        commit(&mut sim, SceneUpdate::AddNode { id, parent, name: format!("m{n}"), kind });
        meshes.push(id);
    }
    // The storm: 12 transforms and 4 cost edits a round.
    for round in 0..48usize {
        for k in 0..16 {
            let id = meshes[(round * 97 + k * 31) % meshes.len()];
            let update = if k < 12 {
                let at = Vec3::new(round as f32, k as f32, 0.0);
                SceneUpdate::SetTransform { id, transform: Transform::from_translation(at) }
            } else {
                SceneUpdate::ReplaceKind { id, kind: mesh(10 + (round * 16 + k) as u32 % 390) }
            };
            commit(&mut sim, update);
        }
    }
    sim.world.data_mut(ds).sync_persistence().unwrap();
    let deltas = kinds.iter().filter(|k| **k == CheckpointKind::Delta).count();
    assert_eq!(kinds[..2], [CheckpointKind::Full, CheckpointKind::Full], "the import: {kinds:?}");
    assert!(deltas >= 2, "the storm's windows write deltas: {kinds:?}");

    let rec = rave::store::recover(&dir).unwrap();
    assert!(rec.deltas >= 1, "recovery went through the chain");
    assert_eq!(rec.last_seq, sim.world.data(ds).audit.last_seq());
    assert_eq!(rec.tree, sim.world.data(ds).scene);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An update stamped and then refused (an edit to a node no scene holds)
/// never reaches the log, and leaves a hole in its seqs: here after every
/// committed update, so every segment after the first starts at one. Such
/// a log is intact, and replay and recovery read every committed entry.
#[test]
fn a_log_with_holes_from_refused_updates_recovers_every_committed_entry() {
    use rave::scene::NodeId;
    use rave::store::wal::Wal;
    let dir = tmp_dir("holes");
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7005));
    let ds = sim.world.spawn_data_service("adrenochrome", "holes");
    let cfg = StoreConfig { checkpoint_every: u64::MAX / 2, segment_max_bytes: 256 };
    sim.world.data_mut(ds).attach_store(&dir, cfg).unwrap();
    let root = sim.world.data(ds).scene.root();
    let mut committed = Vec::new();
    for i in 0..40 {
        let id = sim.world.data_mut(ds).scene.allocate_id();
        let kind = NodeKind::Group;
        let add = SceneUpdate::AddNode { id, parent: root, name: format!("n{i}"), kind };
        committed.push(publish_update(&mut sim, ds, "Desktop", add).unwrap());
        let gone = SceneUpdate::SetName { id: NodeId(1 << 40), name: "gone".into() };
        assert!(publish_update(&mut sim, ds, "Desktop", gone).is_err(), "refused");
    }
    sim.world.data_mut(ds).sync_persistence().unwrap();
    let segments = rave::store::segment::list_segments(&dir).unwrap();
    assert!(segments.len() > 2, "rotated");
    for (_, path) in &segments[1..] {
        let base = rave::store::segment::read_segment_header(path).unwrap().base_seq;
        assert!(!committed.contains(&base), "segment starts at the hole {base}");
    }

    let seqs = |entries: &[rave::scene::AuditEntry]| -> Vec<u64> {
        entries.iter().map(|e| e.stamped.seq).collect()
    };
    assert_eq!(seqs(&Wal::replay_after(&dir, 0).unwrap()), committed);
    let rec = rave::store::recover(&dir).unwrap();
    assert_eq!(seqs(&rec.entries), committed);
    assert_eq!(rec.tree, sim.world.data(ds).scene);
    std::fs::remove_dir_all(&dir).unwrap();
}
