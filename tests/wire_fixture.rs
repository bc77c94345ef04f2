//! Snapshot wire-format stability pin.
//!
//! `tests/fixtures/scene_v1.bin` holds a scene encoded by the *pre-arena*
//! `BTreeMap`-backed tree. Any storage refactor must decode those bytes
//! into an identical tree and re-encode them byte-for-byte, or every WAL
//! checkpoint written by an earlier build becomes unreadable. The fixture
//! is checked in; regenerate (only when the format is deliberately
//! revised) with `REGEN_SCENE_FIXTURE=1 cargo test --test wire_fixture`.

use rave_math::{Quat, Vec3};
use rave_scene::wire::{decode_tree, encode_tree};
use rave_scene::{
    AvatarInfo, CameraParams, MeshData, NodeKind, PointCloudData, SceneTree, SceneUpdate,
    Transform, VolumeData,
};
use std::path::PathBuf;
use std::sync::Arc;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/scene_v1.bin")
}

/// A scene exercising every node kind, non-trivial transforms, version
/// bumps, renames, and a removal that burns an id (so `next_id` differs
/// from the live id range). Fully deterministic.
fn fixture_scene() -> SceneTree {
    let mut t = SceneTree::new();
    let root = t.root();
    let grp = t.add_node(root, "galleon", NodeKind::Group).unwrap();
    t.set_transform(grp, Transform::from_translation(Vec3::new(1.5, -2.0, 0.25)));

    let mut mesh = MeshData::new(
        vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z],
        vec![[0, 1, 2], [0, 2, 3], [1, 2, 3]],
    );
    mesh.normals = vec![Vec3::Z, Vec3::Z, Vec3::Z, Vec3::Z];
    mesh.colors = vec![Vec3::ONE, Vec3::X, Vec3::Y, Vec3::Z];
    mesh.texture_bytes = 4096;
    let hull = t.add_node(grp, "hull", NodeKind::Mesh(Arc::new(mesh))).unwrap();
    t.set_transform(
        hull,
        Transform {
            translation: Vec3::new(0.0, 3.0, 0.0),
            rotation: Quat::from_axis_angle(Vec3::Y, 0.7),
            scale: Vec3::splat(2.0),
        },
    );

    let mut cloud = PointCloudData::new(vec![Vec3::X, Vec3::Y, Vec3::Z, Vec3::ONE]);
    cloud.colors = vec![Vec3::X, Vec3::Y, Vec3::Z, Vec3::ONE];
    cloud.point_size = 2.5;
    t.add_node(grp, "spray", NodeKind::PointCloud(Arc::new(cloud))).unwrap();

    let vol = VolumeData::new([2, 3, 2], Vec3::new(1.0, 0.5, 2.0), (0u8..12).collect());
    let vol_id = t.add_node(root, "fog", NodeKind::Volume(Arc::new(vol))).unwrap();

    let cam = CameraParams::look_at(Vec3::new(5.0, 4.0, 3.0), Vec3::ZERO, Vec3::Y);
    let cam_id = t.add_node(root, "cam-desktop", NodeKind::Camera(cam)).unwrap();

    let avatar = AvatarInfo {
        label: "Desktop".into(),
        color: Vec3::new(0.2, 0.4, 0.9),
        camera: CameraParams::look_at(Vec3::new(-3.0, 1.0, 0.0), Vec3::ZERO, Vec3::Y),
    };
    t.add_node(root, "avatar-desktop", NodeKind::Avatar(avatar)).unwrap();

    // Version bumps through the real update path.
    SceneUpdate::SetName { id: hull, name: "hull-renamed".into() }.apply(&mut t).unwrap();
    SceneUpdate::SetTransform {
        id: vol_id,
        transform: Transform::from_translation(Vec3::new(0.0, 0.0, -4.0)),
    }
    .apply(&mut t)
    .unwrap();
    SceneUpdate::CameraMoved {
        id: cam_id,
        camera: CameraParams::look_at(Vec3::new(6.0, 4.0, 3.0), Vec3::ZERO, Vec3::Y),
    }
    .apply(&mut t)
    .unwrap();

    // Burn an id: allocator state must survive the round-trip.
    let doomed = t.add_node(grp, "doomed", NodeKind::Group).unwrap();
    t.remove(doomed).unwrap();
    t
}

#[test]
fn fixture_bytes_decode_and_reencode_byte_identically() {
    let path = fixture_path();
    if std::env::var("REGEN_SCENE_FIXTURE").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encode_tree(&fixture_scene())).unwrap();
    }
    let bytes = std::fs::read(&path).expect("fixture present (checked in)");

    // The decoded tree must be structurally whole and re-encode to the
    // exact pre-refactor bytes.
    let decoded = decode_tree(&bytes).unwrap();
    decoded.check_invariants().unwrap();
    assert_eq!(encode_tree(&decoded), bytes, "re-encode must be byte-identical");

    // The current encoder must still produce those bytes from scratch:
    // iteration order, allocator state, and versions are all pinned.
    let rebuilt = fixture_scene();
    assert_eq!(encode_tree(&rebuilt), bytes, "fresh encode must match the fixture");

    // Spot checks that decode landed in the right shape.
    assert_eq!(decoded.len(), rebuilt.len());
    let hull = decoded.find_by_path("/galleon/hull-renamed").expect("renamed mesh present");
    assert_eq!(decoded.subtree_cost(hull).polygons, 3);
    let mut a = decoded.clone();
    let mut b = rebuilt.clone();
    assert_eq!(a.allocate_id(), b.allocate_id(), "allocator state pinned");
}
