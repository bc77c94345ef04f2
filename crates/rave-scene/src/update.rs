//! The scene-update protocol.
//!
//! "Changes made locally are transmitted back to the data service,
//! propagating to other members of this collaborative session" (§3.1.2).
//! A [`SceneUpdate`] is one such change; [`StampedUpdate`] adds the data
//! service's global sequence number and the originating client, which is
//! what actually travels on the wire and into the audit trail.

use crate::camera::CameraParams;
use crate::node::{AvatarInfo, KindTag, NodeId, NodeKind, Transform};
use crate::tree::{SceneTree, TreeError};
use serde::{Deserialize, Serialize};

/// One atomic change to the scene.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SceneUpdate {
    /// Insert a node (id pre-allocated by the data service).
    AddNode { id: NodeId, parent: NodeId, name: String, kind: NodeKind },
    /// Remove a node and its subtree.
    RemoveNode { id: NodeId },
    /// Replace a node's local transform (object drags, avatar motion).
    SetTransform { id: NodeId, transform: Transform },
    /// Rename a node.
    SetName { id: NodeId, name: String },
    /// Replace a node's content payload.
    ReplaceKind { id: NodeId, kind: NodeKind },
    /// Fast-path: a client's camera moved (updates the avatar node's
    /// mirrored camera as well as the camera node itself).
    CameraMoved { id: NodeId, camera: CameraParams },
    /// Update an avatar's metadata (label/color/camera).
    AvatarUpdated { id: NodeId, avatar: AvatarInfo },
}

impl SceneUpdate {
    /// The node this update targets (`AddNode` targets the new id).
    pub fn target(&self) -> NodeId {
        match self {
            SceneUpdate::AddNode { id, .. }
            | SceneUpdate::RemoveNode { id }
            | SceneUpdate::SetTransform { id, .. }
            | SceneUpdate::SetName { id, .. }
            | SceneUpdate::ReplaceKind { id, .. }
            | SceneUpdate::CameraMoved { id, .. }
            | SceneUpdate::AvatarUpdated { id, .. } => *id,
        }
    }

    /// Approximate bytes on the wire when sent over the binary socket
    /// protocol: a fixed header plus any geometry payload. (SOAP encoding
    /// of the same update is produced — and priced — by `rave-grid`.)
    pub fn wire_size(&self) -> u64 {
        const HEADER: u64 = 32;
        match self {
            SceneUpdate::AddNode { kind, name, .. } => {
                HEADER + name.len() as u64 + kind_wire_size(kind)
            }
            SceneUpdate::ReplaceKind { kind, .. } => HEADER + kind_wire_size(kind),
            SceneUpdate::RemoveNode { .. } => HEADER,
            SceneUpdate::SetTransform { .. } => HEADER + 40,
            SceneUpdate::SetName { name, .. } => HEADER + name.len() as u64,
            SceneUpdate::CameraMoved { .. } => HEADER + 44,
            SceneUpdate::AvatarUpdated { avatar, .. } => HEADER + 60 + avatar.label.len() as u64,
        }
    }

    /// Apply this update to a local scene copy. Errors (missing targets,
    /// duplicate ids) are surfaced, not silently dropped: the caller
    /// decides whether a failed update is a protocol bug or a benign race
    /// with a removal.
    pub fn apply(&self, tree: &mut SceneTree) -> Result<(), UpdateError> {
        match self {
            SceneUpdate::AddNode { id, parent, name, kind } => {
                tree.insert_with_id(*id, *parent, name.clone(), kind.clone())?;
            }
            SceneUpdate::RemoveNode { id } => {
                tree.remove(*id)?;
            }
            SceneUpdate::SetTransform { id, transform } => {
                if !tree.set_transform(*id, *transform) {
                    return Err(UpdateError::Tree(TreeError::MissingNode(*id)));
                }
            }
            SceneUpdate::SetName { id, name } => {
                let mut node =
                    tree.node_mut(*id).ok_or(UpdateError::Tree(TreeError::MissingNode(*id)))?;
                node.set_name(name.clone());
                node.bump_version();
            }
            SceneUpdate::ReplaceKind { id, kind } => {
                let mut node =
                    tree.node_mut(*id).ok_or(UpdateError::Tree(TreeError::MissingNode(*id)))?;
                node.set_kind(kind.clone());
                node.bump_version();
            }
            SceneUpdate::CameraMoved { id, camera } => {
                // A pose write, not a payload edit: costs stay as they are.
                tree.set_camera_pose(*id, *camera).map_err(|e| match e {
                    TreeError::NoPose { id, found } => {
                        UpdateError::KindMismatch { id, expected: "camera or avatar", found }
                    }
                    other => UpdateError::Tree(other),
                })?;
            }
            SceneUpdate::AvatarUpdated { id, avatar } => {
                // Checked before `node_mut`, which journals an edit: a
                // refused update writes nothing.
                let found = tree
                    .node(*id)
                    .ok_or(UpdateError::Tree(TreeError::MissingNode(*id)))?
                    .kind_tag();
                if found != KindTag::Avatar {
                    let found = found.kind_name();
                    return Err(UpdateError::KindMismatch { id: *id, expected: "avatar", found });
                }
                let mut node = tree.node_mut(*id).expect("looked up above");
                if let NodeKind::Avatar(a) = node.kind_mut() {
                    *a = avatar.clone();
                }
                node.bump_version();
            }
        }
        Ok(())
    }
}

/// Bytes a node payload occupies inside an update.
fn kind_wire_size(kind: &NodeKind) -> u64 {
    match kind {
        NodeKind::Group => 4,
        NodeKind::Mesh(m) => m.wire_size(),
        NodeKind::PointCloud(p) => p.wire_size(),
        NodeKind::Volume(v) => v.wire_size(),
        NodeKind::Camera(_) => 44,
        NodeKind::Avatar(a) => 60 + a.label.len() as u64,
    }
}

/// An update plus its provenance, as distributed by the data service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StampedUpdate {
    /// Global session sequence number, assigned by the data service;
    /// render services apply updates strictly in `seq` order.
    pub seq: u64,
    /// Name of the originating client/host ("Desktop" in Fig 3).
    pub origin: String,
    pub update: SceneUpdate,
}

impl StampedUpdate {
    pub fn wire_size(&self) -> u64 {
        8 + self.origin.len() as u64 + self.update.wire_size()
    }
}

/// Why an update could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    Tree(TreeError),
    KindMismatch {
        id: NodeId,
        expected: &'static str,
        found: &'static str,
    },
    /// An audit append whose sequence number does not advance the trail —
    /// the data service's stamping invariant is broken.
    NonMonotonicSeq {
        last: u64,
        got: u64,
    },
    /// The durable persistence sink failed to log the update. Carries the
    /// underlying I/O error rendered to text so `UpdateError` stays
    /// `Clone + PartialEq`.
    Persistence(String),
}

impl From<TreeError> for UpdateError {
    fn from(e: TreeError) -> Self {
        UpdateError::Tree(e)
    }
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Tree(e) => write!(f, "{e}"),
            UpdateError::KindMismatch { id, expected, found } => {
                write!(f, "update to {id} expected {expected}, found {found}")
            }
            UpdateError::NonMonotonicSeq { last, got } => {
                write!(f, "audit append out of order: seq {got} after {last}")
            }
            UpdateError::Persistence(msg) => {
                write!(f, "persistence sink failed: {msg}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::MeshData;
    use rave_math::Vec3;
    use std::sync::Arc;

    fn mesh_kind() -> NodeKind {
        NodeKind::Mesh(Arc::new(MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]])))
    }

    #[test]
    fn add_then_remove_roundtrip() {
        let mut tree = SceneTree::new();
        let id = tree.allocate_id();
        let add =
            SceneUpdate::AddNode { id, parent: tree.root(), name: "m".into(), kind: mesh_kind() };
        add.apply(&mut tree).unwrap();
        assert!(tree.contains(id));
        SceneUpdate::RemoveNode { id }.apply(&mut tree).unwrap();
        assert!(!tree.contains(id));
    }

    #[test]
    fn replicas_converge_applying_same_updates() {
        // The multicast correctness property: two replicas that apply the
        // same update stream end up identical.
        let mut a = SceneTree::new();
        let mut b = SceneTree::new();
        let id1 = NodeId(1);
        let id2 = NodeId(2);
        let updates = vec![
            SceneUpdate::AddNode {
                id: id1,
                parent: NodeId(0),
                name: "g".into(),
                kind: NodeKind::Group,
            },
            SceneUpdate::AddNode { id: id2, parent: id1, name: "m".into(), kind: mesh_kind() },
            SceneUpdate::SetTransform {
                id: id1,
                transform: Transform::from_translation(Vec3::new(1.0, 2.0, 3.0)),
            },
            SceneUpdate::SetName { id: id2, name: "renamed".into() },
        ];
        for u in &updates {
            u.apply(&mut a).unwrap();
            u.apply(&mut b).unwrap();
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        a.check_invariants().unwrap();
    }

    #[test]
    fn update_to_missing_node_errors() {
        let mut tree = SceneTree::new();
        let err =
            SceneUpdate::SetName { id: NodeId(42), name: "x".into() }.apply(&mut tree).unwrap_err();
        assert!(matches!(err, UpdateError::Tree(TreeError::MissingNode(_))));
    }

    #[test]
    fn camera_moved_updates_camera_node_and_pose() {
        let mut tree = SceneTree::new();
        let cam =
            tree.add_node(tree.root(), "cam", NodeKind::Camera(CameraParams::default())).unwrap();
        let new_cam = CameraParams::look_at(Vec3::new(9.0, 0.0, 0.0), Vec3::ZERO, Vec3::Y);
        SceneUpdate::CameraMoved { id: cam, camera: new_cam }.apply(&mut tree).unwrap();
        let node = tree.node(cam).unwrap();
        assert_eq!(node.transform().translation, Vec3::new(9.0, 0.0, 0.0));
        match node.kind() {
            NodeKind::Camera(c) => assert_eq!(c.position, new_cam.position),
            _ => unreachable!(),
        }
    }

    #[test]
    fn camera_moved_on_mesh_is_kind_mismatch() {
        let mut tree = SceneTree::new();
        let m = tree.add_node(tree.root(), "m", mesh_kind()).unwrap();
        let err = SceneUpdate::CameraMoved { id: m, camera: CameraParams::default() }
            .apply(&mut tree)
            .unwrap_err();
        assert!(matches!(err, UpdateError::KindMismatch { .. }));
    }

    #[test]
    fn avatar_update_moves_avatar() {
        let mut tree = SceneTree::new();
        let av = tree
            .add_node(
                tree.root(),
                "avatar-desktop",
                NodeKind::Avatar(AvatarInfo {
                    label: "Desktop".into(),
                    color: Vec3::X,
                    camera: CameraParams::default(),
                }),
            )
            .unwrap();
        let cam = CameraParams::look_at(Vec3::new(0.0, 3.0, 0.0), Vec3::ZERO, Vec3::Z);
        SceneUpdate::CameraMoved { id: av, camera: cam }.apply(&mut tree).unwrap();
        match tree.node(av).unwrap().kind() {
            NodeKind::Avatar(a) => assert_eq!(a.camera.position, cam.position),
            _ => unreachable!(),
        }
    }

    /// Camera motion is the per-tick update stream: it must neither drop
    /// the O(n) cost aggregate nor fill the edit journal (600 moves are
    /// past its cap), or the next replan rebuilds a plan no edit touched.
    #[test]
    fn camera_moved_is_a_pose_write_not_a_cost_edit() {
        use crate::{Dirt, EditClass, EditStamp};
        let all = [EditClass::Structure, EditClass::Payload];
        let mut tree = SceneTree::new();
        let mesh = tree.add_node(tree.root(), "m", mesh_kind()).unwrap();
        let cam =
            tree.add_node(tree.root(), "cam", NodeKind::Camera(CameraParams::default())).unwrap();
        let avatar = NodeKind::Avatar(AvatarInfo {
            label: "Desktop".into(),
            color: Vec3::ONE,
            camera: CameraParams::default(),
        });
        let av = tree.add_node(tree.root(), "av", avatar).unwrap();
        let before = tree.world_bounds(cam); // bounds are kept from here on
        let polygons = tree.subtree_cost(tree.root()).polygons; // and the cost cache is warm
        assert_eq!(tree.changes_since(EditStamp::default(), &all), Dirt::Everything);
        // One entry from before the moves, for them not to push out.
        let stamp = tree.edit_stamp();
        tree.node_mut(mesh).unwrap().bump_version();
        tree.subtree_cost(tree.root());
        let version = |tree: &SceneTree, id| tree.node(id).unwrap().version();
        let (av_version, mesh_version) = (version(&tree, av), version(&tree, mesh));

        let mut pose = CameraParams::default();
        for i in 0..600 {
            pose = CameraParams::look_at(Vec3::new(9.0 + i as f32, 1.0, 0.0), Vec3::ZERO, Vec3::Y);
            let id = if i % 2 == 0 { cam } else { av };
            SceneUpdate::CameraMoved { id, camera: pose }.apply(&mut tree).unwrap();
        }
        assert!(tree.cost_cache_is_warm());
        assert_eq!(tree.changes_since(stamp, &all), Dirt::Nodes(vec![mesh]));
        assert_eq!(tree.total_cost().polygons, polygons);
        assert_ne!(tree.edit_stamp(), stamp, "a render must see the move");
        assert_eq!(version(&tree, av), av_version + 300);

        // The kept box of the camera went with it (the last move, `pose`,
        // went to the avatar; the camera got the one before).
        tree.check_invariants().unwrap();
        let moved = tree.world_bounds(cam);
        let at = CameraParams::look_at(Vec3::new(9.0 + 598.0, 1.0, 0.0), Vec3::ZERO, Vec3::Y);
        let expected = NodeKind::Camera(at).local_bounds().transformed(&tree.world_transform(cam));
        assert_ne!(moved, before);
        assert_eq!(moved, expected);

        // A refused move writes nothing at all, nor does a refused
        // avatar update.
        let stamp = tree.edit_stamp();
        SceneUpdate::CameraMoved { id: mesh, camera: pose }.apply(&mut tree).unwrap_err();
        let avatar = AvatarInfo { label: "x".into(), color: Vec3::Z, camera: pose };
        SceneUpdate::AvatarUpdated { id: mesh, avatar }.apply(&mut tree).unwrap_err();
        assert!(tree.cost_cache_is_warm());
        assert_eq!(tree.edit_stamp(), stamp);
        assert_eq!(tree.changes_since(stamp, &all), Dirt::Clean);
        assert_eq!(version(&tree, mesh), mesh_version);
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let small = SceneUpdate::RemoveNode { id: NodeId(1) };
        let big = SceneUpdate::AddNode {
            id: NodeId(1),
            parent: NodeId(0),
            name: "m".into(),
            kind: mesh_kind(),
        };
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn stamped_update_serde_roundtrip() {
        let s = StampedUpdate {
            seq: 7,
            origin: "tower".into(),
            update: SceneUpdate::SetName { id: NodeId(3), name: "x".into() },
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: StampedUpdate = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut tree = SceneTree::new();
        let id = tree.add_node(tree.root(), "n", NodeKind::Group).unwrap();
        let v0 = tree.node(id).unwrap().version();
        SceneUpdate::SetName { id, name: "renamed".into() }.apply(&mut tree).unwrap();
        SceneUpdate::SetTransform { id, transform: Transform::IDENTITY }.apply(&mut tree).unwrap();
        assert_eq!(tree.node(id).unwrap().version(), v0 + 2);
    }
}
