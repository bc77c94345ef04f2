//! Introspection-based scene marshalling.
//!
//! §5.5: "We are using introspection, where each node in the scene graph is
//! examined for implemented interfaces, and the appropriate interface is
//! used to extract the data and publish it on the network. ... it is likely
//! that this is slowing up the transfer of data to and from the network."
//!
//! This module reproduces that design faithfully enough to measure it: a
//! node is marshalled by *interface discovery* (querying which field
//! interfaces it implements, one dynamic dispatch per interface per node)
//! followed by per-field extraction, instead of one bulk write. The
//! [`marshal_direct`] writes the identical byte stream without the
//! interface machinery; the delta between the two is the paper's bootstrap
//! bottleneck, and `bench/table5` charges the introspective path's cost
//! model to reproduce the 68.2 s Skeletal-Hand bootstrap.

use crate::node::{Node, NodeKind, Transform};
use crate::tree::{NodeRef, SceneTree};
use rave_math::Vec3;

/// One extracted field value, as the introspection layer sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// A named scalar.
    F32(&'static str, f32),
    U64(&'static str, u64),
    Str(&'static str, String),
    /// A named bulk buffer (vertex arrays, index arrays, voxels), already
    /// flattened to bytes. The introspective path still pays a per-element
    /// visit for these — that is the point.
    Bytes(&'static str, Vec<u8>),
}

/// The field interfaces a node may implement. Mirrors the paper's "many
/// items have a 'Position' field, so this is an interface we check for".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldInterface {
    Named,
    Positioned,
    Oriented,
    Scaled,
    HasGeometry,
    HasCamera,
    HasAvatar,
}

const ALL_INTERFACES: [FieldInterface; 7] = [
    FieldInterface::Named,
    FieldInterface::Positioned,
    FieldInterface::Oriented,
    FieldInterface::Scaled,
    FieldInterface::HasGeometry,
    FieldInterface::HasCamera,
    FieldInterface::HasAvatar,
];

/// Objects that can be interrogated for field interfaces and asked to
/// extract the fields behind each one.
pub trait Introspect {
    /// Does the object implement `iface`? (One dynamic check per interface
    /// per node — the cost the paper observed.)
    fn implements(&self, iface: FieldInterface) -> bool;
    /// Extract the fields behind an implemented interface.
    fn extract(&self, iface: FieldInterface) -> Vec<Field>;
}

fn vec3_bytes(vs: &[Vec3]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vs.len() * 12);
    for v in vs {
        out.extend_from_slice(&v.x.to_le_bytes());
        out.extend_from_slice(&v.y.to_le_bytes());
        out.extend_from_slice(&v.z.to_le_bytes());
    }
    out
}

fn tri_bytes(ts: &[[u32; 3]]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ts.len() * 12);
    for t in ts {
        for i in t {
            out.extend_from_slice(&i.to_le_bytes());
        }
    }
    out
}

/// Shared interrogation logic: both the detached [`Node`] record and the
/// arena's [`NodeRef`] view marshal identically, so the interface checks
/// and extraction run over the decomposed (name, transform, kind) parts.
fn kind_implements(kind: &NodeKind, iface: FieldInterface) -> bool {
    match iface {
        FieldInterface::Named => true,
        FieldInterface::Positioned | FieldInterface::Oriented | FieldInterface::Scaled => true,
        FieldInterface::HasGeometry => {
            matches!(kind, NodeKind::Mesh(_) | NodeKind::PointCloud(_) | NodeKind::Volume(_))
        }
        FieldInterface::HasCamera => matches!(kind, NodeKind::Camera(_)),
        FieldInterface::HasAvatar => matches!(kind, NodeKind::Avatar(_)),
    }
}

fn extract_parts(
    name: &str,
    transform: &Transform,
    kind: &NodeKind,
    iface: FieldInterface,
) -> Vec<Field> {
    match iface {
        FieldInterface::Named => vec![Field::Str("name", name.to_string())],
        FieldInterface::Positioned => {
            let t = transform.translation;
            vec![Field::F32("px", t.x), Field::F32("py", t.y), Field::F32("pz", t.z)]
        }
        FieldInterface::Oriented => {
            let r = transform.rotation;
            vec![
                Field::F32("qx", r.x),
                Field::F32("qy", r.y),
                Field::F32("qz", r.z),
                Field::F32("qw", r.w),
            ]
        }
        FieldInterface::Scaled => {
            let s = transform.scale;
            vec![Field::F32("sx", s.x), Field::F32("sy", s.y), Field::F32("sz", s.z)]
        }
        FieldInterface::HasGeometry => match kind {
            NodeKind::Mesh(m) => vec![
                Field::U64("polygons", m.triangle_count()),
                Field::Bytes("positions", vec3_bytes(&m.positions)),
                Field::Bytes("normals", vec3_bytes(&m.normals)),
                Field::Bytes("colors", vec3_bytes(&m.colors)),
                Field::Bytes("triangles", tri_bytes(&m.triangles)),
            ],
            NodeKind::PointCloud(p) => vec![
                Field::U64("points", p.point_count()),
                Field::Bytes("positions", vec3_bytes(&p.points)),
                Field::Bytes("colors", vec3_bytes(&p.colors)),
            ],
            NodeKind::Volume(v) => vec![
                Field::U64("voxels", v.voxel_count()),
                Field::Bytes("density", v.voxels.clone()),
            ],
            _ => Vec::new(),
        },
        FieldInterface::HasCamera => match kind {
            NodeKind::Camera(c) => vec![
                Field::F32("fov", c.fov_y),
                Field::F32("near", c.near),
                Field::F32("far", c.far),
            ],
            _ => Vec::new(),
        },
        FieldInterface::HasAvatar => match kind {
            NodeKind::Avatar(a) => vec![Field::Str("label", a.label.clone())],
            _ => Vec::new(),
        },
    }
}

impl Introspect for Node {
    fn implements(&self, iface: FieldInterface) -> bool {
        kind_implements(&self.kind, iface)
    }

    fn extract(&self, iface: FieldInterface) -> Vec<Field> {
        extract_parts(&self.name, &self.transform, &self.kind, iface)
    }
}

impl Introspect for NodeRef<'_> {
    fn implements(&self, iface: FieldInterface) -> bool {
        kind_implements(self.kind(), iface)
    }

    fn extract(&self, iface: FieldInterface) -> Vec<Field> {
        extract_parts(self.name(), &self.transform(), self.kind(), iface)
    }
}

/// Statistics describing how much work a marshalling pass did; the cost
/// model in `rave-core` converts these into virtual seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarshalStats {
    /// Interface-implementation checks performed.
    pub interface_checks: u64,
    /// Individual field extractions (each a dynamic call in the Java
    /// original).
    pub field_visits: u64,
    /// Payload bytes produced.
    pub bytes: u64,
    /// Nodes visited.
    pub nodes: u64,
}

fn encode_field(out: &mut Vec<u8>, f: &Field) {
    match f {
        Field::F32(_, v) => out.extend_from_slice(&v.to_le_bytes()),
        Field::U64(_, v) => out.extend_from_slice(&v.to_le_bytes()),
        Field::Str(_, s) => {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Field::Bytes(_, b) => {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
    }
}

/// Marshal a whole tree via introspection: for every node, check every
/// interface, extract field-by-field.
pub fn marshal_introspective(tree: &SceneTree) -> (Vec<u8>, MarshalStats) {
    let mut out = Vec::new();
    let mut stats = MarshalStats::default();
    for id in tree.descendants(tree.root()) {
        let node = tree.node(id).expect("descendant exists");
        stats.nodes += 1;
        for iface in ALL_INTERFACES {
            stats.interface_checks += 1;
            if node.implements(iface) {
                for field in node.extract(iface) {
                    stats.field_visits += 1;
                    encode_field(&mut out, &field);
                }
            }
        }
    }
    stats.bytes = out.len() as u64;
    (out, stats)
}

/// Marshal the identical byte stream directly, without interface checks —
/// the comparison point for the ablation bench. Produces byte-identical
/// output to [`marshal_introspective`] (asserted in tests), so the only
/// difference between the two paths is the marshalling machinery itself.
pub fn marshal_direct(tree: &SceneTree) -> (Vec<u8>, MarshalStats) {
    let mut out = Vec::new();
    let mut stats = MarshalStats::default();
    for id in tree.descendants(tree.root()) {
        let node = tree.node(id).expect("descendant exists");
        stats.nodes += 1;
        for iface in ALL_INTERFACES {
            if node.implements(iface) {
                // Same bytes, but batched: one "visit" per interface, not
                // per field.
                stats.field_visits += 1;
                for field in node.extract(iface) {
                    encode_field(&mut out, &field);
                }
            }
        }
    }
    stats.bytes = out.len() as u64;
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::MeshData;
    use crate::node::NodeKind;
    use std::sync::Arc;

    fn tree_with_mesh() -> SceneTree {
        let mut t = SceneTree::new();
        let mut mesh =
            MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z], vec![[0, 1, 2], [0, 2, 3]]);
        mesh.compute_normals();
        t.add_node(t.root(), "mesh", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        t
    }

    #[test]
    fn both_marshallers_produce_identical_bytes() {
        let t = tree_with_mesh();
        let (a, _) = marshal_introspective(&t);
        let (b, _) = marshal_direct(&t);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn introspective_path_does_more_work() {
        let t = tree_with_mesh();
        let (_, intro) = marshal_introspective(&t);
        let (_, direct) = marshal_direct(&t);
        assert!(intro.field_visits > direct.field_visits);
        assert!(intro.interface_checks > 0);
        assert_eq!(direct.interface_checks, 0);
        assert_eq!(intro.bytes, direct.bytes);
    }

    #[test]
    fn geometry_dominates_payload() {
        let t = tree_with_mesh();
        let (bytes, stats) = marshal_introspective(&t);
        // 4 positions + 4 normals = 96 bytes, 2 triangles = 24 bytes.
        assert!(bytes.len() >= 120, "payload {} too small", bytes.len());
        assert_eq!(stats.nodes, 2); // root + mesh
    }

    #[test]
    fn group_node_implements_only_structural_interfaces() {
        let t = SceneTree::new();
        let root = t.node(t.root()).unwrap();
        assert!(root.implements(FieldInterface::Named));
        assert!(!root.implements(FieldInterface::HasGeometry));
        assert!(!root.implements(FieldInterface::HasCamera));
    }

    #[test]
    fn stats_scale_with_scene_size() {
        let t1 = tree_with_mesh();
        let mut t2 = tree_with_mesh();
        for i in 0..5 {
            t2.add_node(t2.root(), format!("g{i}"), NodeKind::Group).unwrap();
        }
        let (_, s1) = marshal_introspective(&t1);
        let (_, s2) = marshal_introspective(&t2);
        assert!(s2.interface_checks > s1.interface_checks);
        assert!(s2.nodes > s1.nodes);
    }
}
