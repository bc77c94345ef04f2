//! What introspection-based scene marshalling costs, counted.
//!
//! §5.5: "We are using introspection, where each node in the scene graph is
//! examined for implemented interfaces, and the appropriate interface is
//! used to extract the data and publish it on the network. ... it is likely
//! that this is slowing up the transfer of data to and from the network."
//!
//! The cost model in `rave-core`'s `bootstrap` prices that design from
//! three counts: the interface checks (every record is asked for each of
//! the seven field interfaces — named, positioned, oriented, scaled, has
//! geometry, has a camera, has an avatar), the field extractions behind the
//! interfaces it implements (each a dynamic call in the Java original), and
//! the bytes those fields encode to. [`MarshalStats::of`] computes the three
//! in closed form from each record's name and kind; no byte stream is
//! built. Records are counted in the order they go out: a bootstrap's
//! [`crate::Parcel::nodes`], or a tree's pre-order walk
//! ([`crate::SceneTree::descendants_iter`]).
//!
//! The encoding counted: a string or a bulk buffer is a `u32` length
//! followed by its bytes, a scalar its little-endian `f32` or `u64`, a
//! `Vec3` or a triangle twelve bytes. A mesh's `texture_bytes` is not
//! marshalled.

use crate::node::NodeKind;

/// How much work marshalling a run of records does; the cost model in
/// `rave-core` converts these into virtual seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarshalStats {
    /// Interface-implementation checks performed.
    pub interface_checks: u64,
    /// Individual field extractions (each a dynamic call in the Java
    /// original).
    pub field_visits: u64,
    /// Payload bytes the extracted fields encode to.
    pub bytes: u64,
    /// Records marshalled.
    pub nodes: u64,
}

/// Field interfaces every record is checked for.
const INTERFACES: u64 = 7;
/// Fields every record implements: its name, position (3), orientation (4)
/// and scale (3).
const STRUCTURAL_FIELDS: u64 = 11;
/// A string's or a buffer's length prefix.
const PREFIX: u64 = 4;
/// The bytes of the ten transform `f32`s and the name's prefix.
const STRUCTURAL_BYTES: u64 = 10 * 4 + PREFIX;

impl MarshalStats {
    /// Count the marshal of `records`, each given as its `(name, kind)`.
    pub fn of<'a>(records: impl IntoIterator<Item = (&'a str, &'a NodeKind)>) -> Self {
        let mut stats = Self::default();
        for (name, kind) in records {
            let (fields, bytes) = content(kind);
            stats.nodes += 1;
            stats.interface_checks += INTERFACES;
            stats.field_visits += STRUCTURAL_FIELDS + fields;
            stats.bytes += STRUCTURAL_BYTES + name.len() as u64 + bytes;
        }
        stats
    }
}

/// Field visits and bytes behind the one content interface a kind
/// implements: geometry (an element count and its buffers), a camera (field
/// of view, near, far) or an avatar (its label). A group has none.
fn content(kind: &NodeKind) -> (u64, u64) {
    const COUNT: u64 = 8;
    let elements = |n: usize| PREFIX + 12 * n as u64;
    match kind {
        NodeKind::Group => (0, 0),
        NodeKind::Mesh(m) => {
            let buffers = [m.positions.len(), m.normals.len(), m.colors.len(), m.triangles.len()];
            (5, COUNT + buffers.into_iter().map(elements).sum::<u64>())
        }
        NodeKind::PointCloud(p) => (3, COUNT + elements(p.points.len()) + elements(p.colors.len())),
        NodeKind::Volume(v) => (2, COUNT + PREFIX + v.voxels.len() as u64),
        NodeKind::Camera(_) => (3, 3 * 4),
        NodeKind::Avatar(a) => (1, PREFIX + a.label.len() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::CameraParams;
    use crate::geometry::{MeshData, PointCloudData, VolumeData};
    use crate::node::{AvatarInfo, Node, NodeId, Transform};
    use crate::tree::SceneTree;
    use proptest::prelude::*;
    use rave_math::{Quat, Vec3};
    use std::sync::Arc;

    /// One extracted field of the marshaller the counts stand for.
    enum Field {
        F32(f32),
        U64(u64),
        Str(String),
        Bytes(Vec<u8>),
    }

    fn vec3_bytes(vs: &[Vec3]) -> Vec<u8> {
        vs.iter().flat_map(|v| [v.x, v.y, v.z]).flat_map(f32::to_le_bytes).collect()
    }

    /// The fields behind field interface `iface` of `node` — named,
    /// positioned, oriented, scaled, has geometry, has a camera, has an
    /// avatar — or `None` where the node does not implement it.
    fn extract(node: &Node, iface: usize) -> Option<Vec<Field>> {
        let Transform { translation: p, rotation: q, scale: s } = node.transform;
        let f32s = |vs: &[f32]| Some(vs.iter().map(|&v| Field::F32(v)).collect());
        match (iface, &node.kind) {
            (0, _) => Some(vec![Field::Str(node.name.clone())]),
            (1, _) => f32s(&[p.x, p.y, p.z]),
            (2, _) => f32s(&[q.x, q.y, q.z, q.w]),
            (3, _) => f32s(&[s.x, s.y, s.z]),
            (4, NodeKind::Mesh(m)) => Some(vec![
                Field::U64(m.triangle_count()),
                Field::Bytes(vec3_bytes(&m.positions)),
                Field::Bytes(vec3_bytes(&m.normals)),
                Field::Bytes(vec3_bytes(&m.colors)),
                Field::Bytes(m.triangles.iter().flatten().flat_map(|i| i.to_le_bytes()).collect()),
            ]),
            (4, NodeKind::PointCloud(c)) => Some(vec![
                Field::U64(c.point_count()),
                Field::Bytes(vec3_bytes(&c.points)),
                Field::Bytes(vec3_bytes(&c.colors)),
            ]),
            (4, NodeKind::Volume(v)) => {
                Some(vec![Field::U64(v.voxel_count()), Field::Bytes(v.voxels.clone())])
            }
            (5, NodeKind::Camera(c)) => f32s(&[c.fov_y, c.near, c.far]),
            (6, NodeKind::Avatar(a)) => Some(vec![Field::Str(a.label.clone())]),
            _ => None,
        }
    }

    /// The marshaller the counts stand for, written out: every record is
    /// checked for all seven interfaces, and every field behind one it
    /// implements is extracted, visited and encoded into a real stream.
    fn reference(records: &[Node]) -> (Vec<u8>, MarshalStats) {
        let mut out = Vec::new();
        let mut stats = MarshalStats::default();
        for node in records {
            stats.nodes += 1;
            for iface in 0..7 {
                stats.interface_checks += 1;
                for field in extract(node, iface).unwrap_or_default() {
                    stats.field_visits += 1;
                    match field {
                        Field::F32(v) => out.extend_from_slice(&v.to_le_bytes()),
                        Field::U64(v) => out.extend_from_slice(&v.to_le_bytes()),
                        Field::Str(s) => {
                            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                            out.extend_from_slice(s.as_bytes());
                        }
                        Field::Bytes(b) => {
                            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                            out.extend_from_slice(&b);
                        }
                    }
                }
            }
        }
        stats.bytes = out.len() as u64;
        (out, stats)
    }

    fn vec3s() -> impl Strategy<Value = Vec<Vec3>> {
        prop::collection::vec((-9.0f32..9.0, -9.0f32..9.0, -9.0f32..9.0), 0..5)
            .prop_map(|vs| vs.into_iter().map(|(x, y, z)| Vec3::new(x, y, z)).collect())
    }

    /// Every kind, each with empty and non-empty buffers and labels.
    fn kind() -> impl Strategy<Value = NodeKind> {
        let tris = prop::collection::vec((0u32..9, 0u32..9, 0u32..9), 0..5)
            .prop_map(|ts| ts.into_iter().map(|(a, b, c)| [a, b, c]).collect::<Vec<_>>());
        prop_oneof![
            Just(NodeKind::Group),
            (vec3s(), vec3s(), vec3s(), tris, 0u64..99).prop_map(|(p, n, c, t, texture)| {
                let mesh = MeshData {
                    positions: p,
                    normals: n,
                    colors: c,
                    triangles: t,
                    texture_bytes: texture,
                };
                NodeKind::Mesh(Arc::new(mesh))
            }),
            (vec3s(), vec3s()).prop_map(|(points, colors)| {
                let cloud = PointCloudData { colors, ..PointCloudData::new(points) };
                NodeKind::PointCloud(Arc::new(cloud))
            }),
            (0u32..3, 0u32..3, 0u32..3).prop_map(|(x, y, z)| {
                let voxels = vec![7; (x * y * z) as usize];
                NodeKind::Volume(Arc::new(VolumeData::new([x, y, z], Vec3::ONE, voxels)))
            }),
            (0.1f32..2.0, 0.01f32..1.0, 2.0f32..900.0).prop_map(|(fov_y, near, far)| {
                NodeKind::Camera(CameraParams { fov_y, near, far, ..CameraParams::default() })
            }),
            "[a-z ]{0,12}".prop_map(|label| {
                let camera = CameraParams::default();
                NodeKind::Avatar(AvatarInfo { label, color: Vec3::X, camera })
            }),
        ]
    }

    fn record() -> impl Strategy<Value = Node> {
        let transform = (-5.0f32..5.0, -1.0f32..1.0, 0.5f32..2.0).prop_map(|(t, r, s)| Transform {
            translation: Vec3::new(t, -t, 1.0),
            rotation: Quat::from_axis_angle(Vec3::Y, r),
            scale: Vec3::new(s, 1.0, s),
        });
        ("[a-z/]{0,9}", transform, kind(), 0u64..99).prop_map(|(name, transform, kind, id)| Node {
            transform,
            ..Node::new(NodeId(id), name, kind)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The closed form counts what the written-out marshaller does,
        /// field for field: nodes, interface checks, visits and every byte
        /// of the stream it builds.
        #[test]
        fn the_counts_are_what_the_reference_marshaller_does(
            records in prop::collection::vec(record(), 0..8),
        ) {
            let (stream, want) = reference(&records);
            prop_assert_eq!(want.bytes, stream.len() as u64);
            let got = MarshalStats::of(records.iter().map(|n| (n.name.as_str(), &n.kind)));
            prop_assert_eq!(got, want);
        }
    }

    fn tree_with_mesh() -> SceneTree {
        let mut t = SceneTree::new();
        let mut mesh =
            MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z], vec![[0, 1, 2], [0, 2, 3]]);
        mesh.compute_normals();
        t.add_node(t.root(), "mesh", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        t
    }

    fn of_tree(t: &SceneTree) -> MarshalStats {
        MarshalStats::of(t.descendants_iter(t.root()).map(|n| (n.name(), n.kind())))
    }

    /// A group implements only the four structural interfaces: its record
    /// is its name and transform, whatever is under it.
    #[test]
    fn a_group_marshals_its_name_and_transform_alone() {
        let t = SceneTree::new();
        let want = MarshalStats { interface_checks: 7, field_visits: 11, bytes: 48, nodes: 1 };
        assert_eq!(of_tree(&t), want, "`root`: 4 + 4 name bytes, ten f32s");
    }

    #[test]
    fn geometry_dominates_payload() {
        let stats = of_tree(&tree_with_mesh());
        // The root's and the mesh's 48 structural bytes each, then the
        // mesh's count, four prefixes, 4 positions + 4 normals, no colours
        // and 2 triangles.
        assert_eq!(stats.bytes, 2 * 48 + 8 + 16 + 96 + 24);
        assert_eq!(stats.nodes, 2); // root + mesh
        assert_eq!(stats.field_visits, 11 + 16);
    }

    #[test]
    fn stats_scale_with_scene_size() {
        let t1 = tree_with_mesh();
        let mut t2 = tree_with_mesh();
        for i in 0..5 {
            t2.add_node(t2.root(), format!("g{i}"), NodeKind::Group).unwrap();
        }
        let (s1, s2) = (of_tree(&t1), of_tree(&t2));
        assert!(s2.interface_checks > s1.interface_checks);
        assert!(s2.nodes > s1.nodes);
    }
}
