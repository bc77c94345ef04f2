//! Scene-tree nodes.

use crate::camera::CameraParams;
use crate::cost::NodeCost;
use crate::geometry::{MeshData, PointCloudData, VolumeData};
use rave_math::{Aabb, Mat4, Quat, Vec3};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Stable identifier of a node within one session's scene tree.
///
/// Ids are allocated by the data service and never reused, so updates that
/// race with removals can be detected (an update to a dead id is rejected,
/// not misapplied).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u64);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A local TRS transform. Every node carries one (identity by default);
/// "the parent nodes ... orientate the scene subset in the world" (§3.2.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transform {
    pub translation: Vec3,
    pub rotation: Quat,
    pub scale: Vec3,
}

impl Default for Transform {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Transform {
    pub const IDENTITY: Self =
        Self { translation: Vec3::ZERO, rotation: Quat::IDENTITY, scale: Vec3::ONE };

    pub fn from_translation(t: Vec3) -> Self {
        Self { translation: t, ..Self::IDENTITY }
    }

    pub fn from_rotation(r: Quat) -> Self {
        Self { rotation: r, ..Self::IDENTITY }
    }

    pub fn matrix(&self) -> Mat4 {
        Mat4::trs(self.translation, self.rotation, self.scale)
    }
}

/// Avatar metadata: "Clients are represented in the dataset by an avatar —
/// a simple graphical object to indicate the position and view of the
/// client" (§3.2.4). The avatar node's transform carries the pose; the
/// camera it mirrors travels alongside so observers can render the view
/// cone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvatarInfo {
    /// User or host name rendered as the label (Fig 3 shows "Desktop").
    pub label: String,
    /// Display color of the cone, RGB in `[0, 1]`.
    pub color: Vec3,
    /// The camera this avatar mirrors.
    pub camera: CameraParams,
}

/// Content of a scene node. `Mesh`/`PointCloud`/`Volume` payloads are
/// `Arc`-shared: cloning a scene (every render service keeps a local copy)
/// must not duplicate multi-million-polygon buffers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Pure structure / transform carrier.
    Group,
    Mesh(Arc<MeshData>),
    PointCloud(Arc<PointCloudData>),
    Volume(Arc<VolumeData>),
    /// A client's camera object (selectable in the GUI, drives rendering).
    Camera(CameraParams),
    /// A collaborating client's presence marker.
    Avatar(AvatarInfo),
}

/// Discriminant of a [`NodeKind`] without its payload. One byte; lives in
/// the scene arena's hot array so traversals that only need to classify a
/// node (cullable? presence marker? splittable content?) never touch the
/// cold payload store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KindTag {
    Group = 0,
    Mesh = 1,
    PointCloud = 2,
    Volume = 3,
    Camera = 4,
    Avatar = 5,
}

impl KindTag {
    pub fn kind_name(self) -> &'static str {
        match self {
            KindTag::Group => "group",
            KindTag::Mesh => "mesh",
            KindTag::PointCloud => "pointcloud",
            KindTag::Volume => "volume",
            KindTag::Camera => "camera",
            KindTag::Avatar => "avatar",
        }
    }

    /// The interaction set for this kind (§5.2). Static: the GUI
    /// interrogates every visible node each menu rebuild, so this must
    /// not allocate.
    pub fn supported_interactions(self) -> &'static [Interaction] {
        match self {
            KindTag::Group => &[Interaction::Select, Interaction::EditTransform],
            KindTag::Mesh | KindTag::PointCloud | KindTag::Volume => &[
                Interaction::Select,
                Interaction::Drag,
                Interaction::RotateAround,
                Interaction::EditTransform,
            ],
            KindTag::Camera => &[Interaction::Select, Interaction::Drag, Interaction::RotateAround],
            KindTag::Avatar => &[Interaction::Select],
        }
    }
}

impl NodeKind {
    /// The payload-free discriminant stored in the arena's hot array.
    pub fn tag(&self) -> KindTag {
        match self {
            NodeKind::Group => KindTag::Group,
            NodeKind::Mesh(_) => KindTag::Mesh,
            NodeKind::PointCloud(_) => KindTag::PointCloud,
            NodeKind::Volume(_) => KindTag::Volume,
            NodeKind::Camera(_) => KindTag::Camera,
            NodeKind::Avatar(_) => KindTag::Avatar,
        }
    }

    pub fn kind_name(&self) -> &'static str {
        self.tag().kind_name()
    }

    /// Interrogate the kind for its supported interactions (§5.2).
    pub fn supported_interactions(&self) -> &'static [Interaction] {
        self.tag().supported_interactions()
    }

    /// Bounds of the content in the node's local frame.
    pub fn local_bounds(&self) -> Aabb {
        match self {
            NodeKind::Group => Aabb::EMPTY,
            NodeKind::Mesh(m) => m.bounds(),
            NodeKind::PointCloud(p) => p.bounds(),
            NodeKind::Volume(v) => v.bounds(),
            // Cameras/avatars occupy a small marker volume so that they are
            // selectable and cullable.
            NodeKind::Camera(c) => {
                Aabb::new(c.position - Vec3::splat(0.1), c.position + Vec3::splat(0.1))
            }
            NodeKind::Avatar(_) => Aabb::new(Vec3::splat(-0.25), Vec3::splat(0.25)),
        }
    }

    /// Resource cost of the content alone (no children).
    pub fn cost(&self) -> NodeCost {
        match self {
            NodeKind::Group | NodeKind::Camera(_) => NodeCost::ZERO,
            NodeKind::Mesh(m) => NodeCost {
                polygons: m.triangle_count(),
                texture_bytes: m.texture_bytes,
                data_bytes: m.wire_size(),
                ..NodeCost::ZERO
            },
            NodeKind::PointCloud(p) => {
                NodeCost { points: p.point_count(), data_bytes: p.wire_size(), ..NodeCost::ZERO }
            }
            NodeKind::Volume(v) => {
                NodeCost { voxels: v.voxel_count(), data_bytes: v.wire_size(), ..NodeCost::ZERO }
            }
            // The avatar cone is a handful of polygons.
            NodeKind::Avatar(_) => NodeCost { polygons: 8, data_bytes: 256, ..NodeCost::ZERO },
        }
    }
}

/// The set of interactions an object supports. "The GUI interrogates
/// objects for any supported interactions, and reflects this in the
/// drop-down menus" (§5.2) — this is that interrogation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interaction {
    Select,
    Drag,
    RotateAround,
    EditTransform,
    /// Bridge into a remote process (the molecule-force example in §5.2).
    RemoteBridge,
}

/// A detached scene-node record: the serde/wire shape of one node, and
/// the unit `SceneTree::from_parts` rebuilds a tree from.
///
/// The tree itself no longer stores `Node` values — storage is a flat
/// slot arena with the per-traversal fields (topology, transform,
/// cost, kind tag) split from the cold payload (name, [`NodeKind`],
/// version). Read access goes through [`crate::tree::NodeRef`]; this
/// struct survives as the stable interchange shape so snapshot bytes and
/// JSON written before the arena refactor decode unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    pub id: NodeId,
    pub name: String,
    pub transform: Transform,
    pub kind: NodeKind,
    pub children: Vec<NodeId>,
    pub parent: Option<NodeId>,
    /// Monotone per-node version; bumped by every update that touches the
    /// node, used for last-writer-wins conflict resolution.
    pub version: u64,
}

impl Node {
    pub fn new(id: NodeId, name: impl Into<String>, kind: NodeKind) -> Self {
        Self {
            id,
            name: name.into(),
            transform: Transform::IDENTITY,
            kind,
            children: Vec::new(),
            parent: None,
            version: 0,
        }
    }

    /// Interrogate the node for its supported interactions (§5.2). The GUI
    /// builds its menus from this, so extending interactions requires no
    /// GUI or transport change. Returns a static slice — the menu rebuild
    /// runs per node per frame and must not allocate.
    pub fn supported_interactions(&self) -> &'static [Interaction] {
        self.kind.supported_interactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_identity_matrix() {
        let t = Transform::IDENTITY;
        assert_eq!(t.matrix(), Mat4::IDENTITY);
    }

    #[test]
    fn transform_composition() {
        let t = Transform {
            translation: Vec3::new(1.0, 0.0, 0.0),
            rotation: Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_2),
            scale: Vec3::splat(2.0),
        };
        // Point (1,0,0): scaled to (2,0,0), rotated to (0,2,0), translated
        // to (1,2,0).
        let p = t.matrix().transform_point(Vec3::X);
        assert!((p.x - 1.0).abs() < 1e-5);
        assert!((p.y - 2.0).abs() < 1e-5);
    }

    #[test]
    fn mesh_cost_counts_polygons() {
        let mesh = MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]);
        let k = NodeKind::Mesh(Arc::new(mesh));
        let c = k.cost();
        assert_eq!(c.polygons, 1);
        assert!(c.data_bytes > 0);
    }

    #[test]
    fn group_costs_nothing() {
        assert!(NodeKind::Group.cost().is_zero());
    }

    #[test]
    fn arc_sharing_means_cheap_clone() {
        let mesh = Arc::new(MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]));
        let a = NodeKind::Mesh(Arc::clone(&mesh));
        let b = a.clone();
        if let (NodeKind::Mesh(ma), NodeKind::Mesh(mb)) = (&a, &b) {
            assert!(Arc::ptr_eq(ma, mb), "clone must share the payload");
        } else {
            unreachable!()
        }
    }

    #[test]
    fn interactions_differ_by_kind() {
        let mesh_node =
            Node::new(NodeId(1), "m", NodeKind::Mesh(Arc::new(MeshData::new(vec![], vec![]))));
        let avatar_node = Node::new(
            NodeId(2),
            "a",
            NodeKind::Avatar(AvatarInfo {
                label: "Desktop".into(),
                color: Vec3::ONE,
                camera: CameraParams::default(),
            }),
        );
        assert!(mesh_node.supported_interactions().contains(&Interaction::Drag));
        assert!(!avatar_node.supported_interactions().contains(&Interaction::Drag));
    }

    #[test]
    fn node_serde_roundtrip() {
        let n = Node::new(NodeId(7), "test", NodeKind::Camera(CameraParams::default()));
        let json = serde_json::to_string(&n).unwrap();
        let back: Node = serde_json::from_str(&json).unwrap();
        assert_eq!(n, back);
    }
}
