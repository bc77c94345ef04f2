//! Compact binary serialization of updates, audit entries and whole
//! scene trees.
//!
//! This is the format a session is recorded in: the write-ahead log and
//! snapshot checkpoints in `rave-store` frame these bytes, and a recorded
//! session is played back by decoding them.
//!
//! All integers are little-endian. Strings and sequences are
//! length-prefixed with a `u32`. Enums carry a one-byte tag. The format
//! is self-contained per value — no back-references — so a decoder can
//! always tell a truncated buffer ([`WireError::Eof`]) from a corrupt tag.

use crate::audit::AuditEntry;
use crate::camera::CameraParams;
use crate::geometry::{MeshData, PointCloudData, VolumeData};
use crate::node::{AvatarInfo, Node, NodeId, NodeKind, Transform};
use crate::tree::SceneTree;
use crate::update::{SceneUpdate, StampedUpdate};
use rave_math::{Quat, Vec3};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended mid-value.
    Eof,
    /// An enum tag byte outside the known range.
    BadTag { what: &'static str, tag: u8 },
    /// A string field was not valid UTF-8.
    Utf8,
    /// Decoding finished with bytes left over.
    Trailing(usize),
    /// A structural invariant failed after decode (e.g. a tree whose
    /// root is missing).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of buffer"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            WireError::Utf8 => write!(f, "invalid utf-8 in string field"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            WireError::Invalid(what) => write!(f, "decoded value invalid: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---- writer ------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_vec3(out: &mut Vec<u8>, v: Vec3) {
    put_f32(out, v.x);
    put_f32(out, v.y);
    put_f32(out, v.z);
}

fn put_quat(out: &mut Vec<u8>, q: Quat) {
    put_f32(out, q.x);
    put_f32(out, q.y);
    put_f32(out, q.z);
    put_f32(out, q.w);
}

fn put_vec3s(out: &mut Vec<u8>, vs: &[Vec3]) {
    put_u32(out, vs.len() as u32);
    for v in vs {
        put_vec3(out, *v);
    }
}

fn put_transform(out: &mut Vec<u8>, t: &Transform) {
    put_vec3(out, t.translation);
    put_quat(out, t.rotation);
    put_vec3(out, t.scale);
}

fn put_camera(out: &mut Vec<u8>, c: &CameraParams) {
    put_vec3(out, c.position);
    put_quat(out, c.orientation);
    put_f32(out, c.fov_y);
    put_f32(out, c.near);
    put_f32(out, c.far);
}

fn put_avatar(out: &mut Vec<u8>, a: &AvatarInfo) {
    put_str(out, &a.label);
    put_vec3(out, a.color);
    put_camera(out, &a.camera);
}

fn put_kind(out: &mut Vec<u8>, kind: &NodeKind) {
    match kind {
        NodeKind::Group => put_u8(out, 0),
        NodeKind::Mesh(m) => {
            put_u8(out, 1);
            put_vec3s(out, &m.positions);
            put_vec3s(out, &m.normals);
            put_vec3s(out, &m.colors);
            put_u32(out, m.triangles.len() as u32);
            for t in &m.triangles {
                put_u32(out, t[0]);
                put_u32(out, t[1]);
                put_u32(out, t[2]);
            }
            put_u64(out, m.texture_bytes);
        }
        NodeKind::PointCloud(p) => {
            put_u8(out, 2);
            put_vec3s(out, &p.points);
            put_vec3s(out, &p.colors);
            put_f32(out, p.point_size);
        }
        NodeKind::Volume(v) => {
            put_u8(out, 3);
            put_u32(out, v.dims[0]);
            put_u32(out, v.dims[1]);
            put_u32(out, v.dims[2]);
            put_vec3(out, v.spacing);
            put_u32(out, v.voxels.len() as u32);
            out.extend_from_slice(&v.voxels);
        }
        NodeKind::Camera(c) => {
            put_u8(out, 4);
            put_camera(out, c);
        }
        NodeKind::Avatar(a) => {
            put_u8(out, 5);
            put_avatar(out, a);
        }
    }
}

fn put_update(out: &mut Vec<u8>, u: &SceneUpdate) {
    match u {
        SceneUpdate::AddNode { id, parent, name, kind } => {
            put_u8(out, 0);
            put_u64(out, id.0);
            put_u64(out, parent.0);
            put_str(out, name);
            put_kind(out, kind);
        }
        SceneUpdate::RemoveNode { id } => {
            put_u8(out, 1);
            put_u64(out, id.0);
        }
        SceneUpdate::SetTransform { id, transform } => {
            put_u8(out, 2);
            put_u64(out, id.0);
            put_transform(out, transform);
        }
        SceneUpdate::SetName { id, name } => {
            put_u8(out, 3);
            put_u64(out, id.0);
            put_str(out, name);
        }
        SceneUpdate::ReplaceKind { id, kind } => {
            put_u8(out, 4);
            put_u64(out, id.0);
            put_kind(out, kind);
        }
        SceneUpdate::CameraMoved { id, camera } => {
            put_u8(out, 5);
            put_u64(out, id.0);
            put_camera(out, camera);
        }
        SceneUpdate::AvatarUpdated { id, avatar } => {
            put_u8(out, 6);
            put_u64(out, id.0);
            put_avatar(out, avatar);
        }
    }
}

// ---- reader ------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Eof)?;
        if end > self.buf.len() {
            return Err(WireError::Eof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Utf8)
    }

    fn vec3(&mut self) -> Result<Vec3, WireError> {
        Ok(Vec3::new(self.f32()?, self.f32()?, self.f32()?))
    }

    fn quat(&mut self) -> Result<Quat, WireError> {
        Ok(Quat { x: self.f32()?, y: self.f32()?, z: self.f32()?, w: self.f32()? })
    }

    /// Length-prefixed sequence, with the count sanity-capped against the
    /// remaining bytes so a corrupt length can't trigger a huge
    /// allocation before `Eof` surfaces.
    fn counted(&mut self, elem_min_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_min_bytes) > self.buf.len() - self.pos {
            return Err(WireError::Eof);
        }
        Ok(n)
    }

    fn vec3s(&mut self) -> Result<Vec<Vec3>, WireError> {
        let n = self.counted(12)?;
        (0..n).map(|_| self.vec3()).collect()
    }

    fn transform(&mut self) -> Result<Transform, WireError> {
        Ok(Transform { translation: self.vec3()?, rotation: self.quat()?, scale: self.vec3()? })
    }

    fn camera(&mut self) -> Result<CameraParams, WireError> {
        Ok(CameraParams {
            position: self.vec3()?,
            orientation: self.quat()?,
            fov_y: self.f32()?,
            near: self.f32()?,
            far: self.f32()?,
        })
    }

    fn avatar(&mut self) -> Result<AvatarInfo, WireError> {
        Ok(AvatarInfo { label: self.str()?, color: self.vec3()?, camera: self.camera()? })
    }

    fn kind(&mut self) -> Result<NodeKind, WireError> {
        match self.u8()? {
            0 => Ok(NodeKind::Group),
            1 => {
                let positions = self.vec3s()?;
                let normals = self.vec3s()?;
                let colors = self.vec3s()?;
                let n = self.counted(12)?;
                let triangles = (0..n)
                    .map(|_| Ok([self.u32()?, self.u32()?, self.u32()?]))
                    .collect::<Result<Vec<_>, WireError>>()?;
                let texture_bytes = self.u64()?;
                Ok(NodeKind::Mesh(Arc::new(MeshData {
                    positions,
                    normals,
                    colors,
                    triangles,
                    texture_bytes,
                })))
            }
            2 => {
                let points = self.vec3s()?;
                let colors = self.vec3s()?;
                let point_size = self.f32()?;
                Ok(NodeKind::PointCloud(Arc::new(PointCloudData { points, colors, point_size })))
            }
            3 => {
                let dims = [self.u32()?, self.u32()?, self.u32()?];
                let spacing = self.vec3()?;
                let n = self.counted(1)?;
                let voxels = self.take(n)?.to_vec();
                Ok(NodeKind::Volume(Arc::new(VolumeData { dims, spacing, voxels })))
            }
            4 => Ok(NodeKind::Camera(self.camera()?)),
            5 => Ok(NodeKind::Avatar(self.avatar()?)),
            tag => Err(WireError::BadTag { what: "node kind", tag }),
        }
    }

    fn update(&mut self) -> Result<SceneUpdate, WireError> {
        match self.u8()? {
            0 => Ok(SceneUpdate::AddNode {
                id: NodeId(self.u64()?),
                parent: NodeId(self.u64()?),
                name: self.str()?,
                kind: self.kind()?,
            }),
            1 => Ok(SceneUpdate::RemoveNode { id: NodeId(self.u64()?) }),
            2 => Ok(SceneUpdate::SetTransform {
                id: NodeId(self.u64()?),
                transform: self.transform()?,
            }),
            3 => Ok(SceneUpdate::SetName { id: NodeId(self.u64()?), name: self.str()? }),
            4 => Ok(SceneUpdate::ReplaceKind { id: NodeId(self.u64()?), kind: self.kind()? }),
            5 => Ok(SceneUpdate::CameraMoved { id: NodeId(self.u64()?), camera: self.camera()? }),
            6 => Ok(SceneUpdate::AvatarUpdated { id: NodeId(self.u64()?), avatar: self.avatar()? }),
            tag => Err(WireError::BadTag { what: "scene update", tag }),
        }
    }

    fn stamped(&mut self) -> Result<StampedUpdate, WireError> {
        Ok(StampedUpdate { seq: self.u64()?, origin: self.str()?, update: self.update()? })
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(left))
        }
    }
}

// ---- public entry points -----------------------------------------------

/// Encode a stamped update (a WAL record payload without its timestamp).
pub fn encode_stamped(s: &StampedUpdate) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + s.origin.len());
    put_u64(&mut out, s.seq);
    put_str(&mut out, &s.origin);
    put_update(&mut out, &s.update);
    out
}

pub fn decode_stamped(buf: &[u8]) -> Result<StampedUpdate, WireError> {
    let mut r = Reader::new(buf);
    let s = r.stamped()?;
    r.finish()?;
    Ok(s)
}

/// Encode a full audit entry: virtual timestamp plus stamped update.
/// This is the unit the write-ahead log frames.
pub fn encode_entry(e: &AuditEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + e.stamped.origin.len());
    put_f64(&mut out, e.at_secs);
    put_u64(&mut out, e.stamped.seq);
    put_str(&mut out, &e.stamped.origin);
    put_update(&mut out, &e.stamped.update);
    out
}

pub fn decode_entry(buf: &[u8]) -> Result<AuditEntry, WireError> {
    let mut r = Reader::new(buf);
    let at_secs = r.f64()?;
    let stamped = r.stamped()?;
    r.finish()?;
    Ok(AuditEntry { at_secs, stamped })
}

/// Encode a whole scene tree (the snapshot checkpoint payload). Captures
/// every node verbatim — ids, versions, hierarchy, allocator state — so
/// the decoded tree is indistinguishable from the original.
pub fn encode_tree(tree: &SceneTree) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * tree.len());
    put_u32(&mut out, tree.len() as u32);
    for node in tree.iter_nodes() {
        put_u64(&mut out, node.id().0);
        put_str(&mut out, node.name());
        put_transform(&mut out, &node.transform());
        put_kind(&mut out, node.kind());
        match node.parent() {
            Some(p) => {
                put_u8(&mut out, 1);
                put_u64(&mut out, p.0);
            }
            None => put_u8(&mut out, 0),
        }
        put_u32(&mut out, node.child_count() as u32);
        for c in node.children() {
            put_u64(&mut out, c.0);
        }
        put_u64(&mut out, node.version());
    }
    put_u64(&mut out, tree.root().0);
    put_u64(&mut out, tree.id_allocator_state());
    out
}

pub fn decode_tree(buf: &[u8]) -> Result<SceneTree, WireError> {
    let mut r = Reader::new(buf);
    let count = r.counted(8)?;
    let mut nodes = BTreeMap::new();
    for _ in 0..count {
        let id = NodeId(r.u64()?);
        let name = r.str()?;
        let transform = r.transform()?;
        let kind = r.kind()?;
        let parent = match r.u8()? {
            0 => None,
            1 => Some(NodeId(r.u64()?)),
            tag => return Err(WireError::BadTag { what: "parent flag", tag }),
        };
        let n = r.counted(8)?;
        let children = (0..n).map(|_| Ok(NodeId(r.u64()?))).collect::<Result<_, WireError>>()?;
        let version = r.u64()?;
        let mut node = Node::new(id, name, kind);
        node.transform = transform;
        node.parent = parent;
        node.children = children;
        node.version = version;
        nodes.insert(id, node);
    }
    let root = NodeId(r.u64()?);
    let next_id = r.u64()?;
    r.finish()?;
    SceneTree::from_parts(nodes, root, next_id).map_err(WireError::Invalid)
}

// ---- delta checkpoint bodies -------------------------------------------
//
// delta_body := next_id: u64 | count: u32 | record*
// record     := id: u64 | 0: u8 | name | transform | kind | version: u64
//             | id: u64 | 1: u8 | transform | version: u64 | camera?
// camera?    := 0: u8 | 1: u8 | camera

/// The camera a pose write moves: a camera's own, an avatar's.
fn pose_camera(kind: &NodeKind) -> Option<&CameraParams> {
    match kind {
        NodeKind::Camera(c) => Some(c),
        NodeKind::Avatar(a) => Some(&a.camera),
        _ => None,
    }
}

/// One node's record in a delta body.
enum NodeState {
    /// Everything but its links: what `node_mut` may have written.
    Payload { id: NodeId, name: String, transform: Transform, kind: NodeKind, version: u64 },
    /// What a pose write changes.
    Pose { id: NodeId, transform: Transform, version: u64, camera: Option<CameraParams> },
}

/// Encode the body of a delta checkpoint of `tree`: its allocator state,
/// then one record per node — a `payload` node's non-structural state
/// (name, transform, kind, version), a `pose` node's pose (transform,
/// version and, for a camera or an avatar, its camera). A node in both
/// lists is written once, as payload; both lists are sorted, as
/// [`crate::Dirt::Nodes`] lists are. `None` when a listed node is not in
/// the tree: a delta carries no structure.
pub fn encode_node_states(
    tree: &SceneTree,
    payload: &[NodeId],
    pose: &[NodeId],
) -> Option<Vec<u8>> {
    let pose_only: Vec<NodeId> =
        pose.iter().copied().filter(|id| payload.binary_search(id).is_err()).collect();
    let mut out = Vec::with_capacity(64 * (payload.len() + pose_only.len()) + 12);
    put_u64(&mut out, tree.id_allocator_state());
    put_u32(&mut out, (payload.len() + pose_only.len()) as u32);
    for &id in payload {
        let node = tree.node(id)?;
        put_u64(&mut out, id.0);
        put_u8(&mut out, 0);
        put_str(&mut out, node.name());
        put_transform(&mut out, &node.transform());
        put_kind(&mut out, node.kind());
        put_u64(&mut out, node.version());
    }
    for id in pose_only {
        let node = tree.node(id)?;
        put_u64(&mut out, id.0);
        put_u8(&mut out, 1);
        put_transform(&mut out, &node.transform());
        put_u64(&mut out, node.version());
        match pose_camera(node.kind()) {
            Some(c) => {
                put_u8(&mut out, 1);
                put_camera(&mut out, c);
            }
            None => put_u8(&mut out, 0),
        }
    }
    Some(out)
}

/// Apply a body [`encode_node_states`] wrote to the tree it was taken
/// against (its base, and the deltas before it). Decoded and checked
/// whole before anything is written: a body naming a node the tree lacks,
/// or a camera on a node that has none, leaves the tree untouched.
pub fn apply_node_states(tree: &mut SceneTree, buf: &[u8]) -> Result<(), WireError> {
    let mut r = Reader::new(buf);
    let next_id = r.u64()?;
    let count = r.counted(9)?;
    let mut states = Vec::with_capacity(count);
    for _ in 0..count {
        let id = NodeId(r.u64()?);
        let state = match r.u8()? {
            0 => NodeState::Payload {
                id,
                name: r.str()?,
                transform: r.transform()?,
                kind: r.kind()?,
                version: r.u64()?,
            },
            1 => NodeState::Pose {
                id,
                transform: r.transform()?,
                version: r.u64()?,
                camera: match r.u8()? {
                    0 => None,
                    1 => Some(r.camera()?),
                    tag => return Err(WireError::BadTag { what: "pose camera flag", tag }),
                },
            },
            tag => return Err(WireError::BadTag { what: "node state", tag }),
        };
        states.push(state);
    }
    r.finish()?;
    for state in &states {
        let fits = match state {
            NodeState::Payload { id, .. } => tree.contains(*id),
            NodeState::Pose { id, camera, .. } => {
                tree.node(*id).is_some_and(|n| pose_camera(n.kind()).is_some() == camera.is_some())
            }
        };
        if !fits {
            return Err(WireError::Invalid("delta record does not fit the tree"));
        }
    }
    for state in states {
        match state {
            NodeState::Payload { id, name, transform, kind, version } => {
                let mut node = tree.node_mut(id).expect("checked above");
                node.set_name(name);
                node.set_kind(kind);
                node.set_transform(transform);
                node.set_version(version);
            }
            NodeState::Pose { id, transform, version, camera } => {
                let mut node = tree.node_mut(id).expect("checked above");
                node.set_transform(transform);
                node.set_version(version);
                if let Some(camera) = camera {
                    match node.kind_mut() {
                        NodeKind::Camera(c) => *c = camera,
                        NodeKind::Avatar(a) => a.camera = camera,
                        _ => unreachable!("checked above"),
                    }
                }
            }
        }
    }
    tree.restore_id_allocator(next_id);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::UpdateError;

    fn mesh_kind() -> NodeKind {
        let mut m =
            MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z], vec![[0, 1, 2], [0, 2, 3]]);
        m.texture_bytes = 1024;
        NodeKind::Mesh(Arc::new(m))
    }

    fn all_update_variants() -> Vec<SceneUpdate> {
        vec![
            SceneUpdate::AddNode {
                id: NodeId(5),
                parent: NodeId(0),
                name: "mesh".into(),
                kind: mesh_kind(),
            },
            SceneUpdate::AddNode {
                id: NodeId(6),
                parent: NodeId(0),
                name: "cloud".into(),
                kind: NodeKind::PointCloud(Arc::new(PointCloudData::new(vec![Vec3::X, Vec3::Y]))),
            },
            SceneUpdate::AddNode {
                id: NodeId(7),
                parent: NodeId(0),
                name: "vol".into(),
                kind: NodeKind::Volume(Arc::new(VolumeData::new(
                    [2, 2, 2],
                    Vec3::ONE,
                    vec![0, 50, 100, 150, 200, 250, 30, 60],
                ))),
            },
            SceneUpdate::RemoveNode { id: NodeId(6) },
            SceneUpdate::SetTransform {
                id: NodeId(5),
                transform: Transform::from_translation(Vec3::new(1.5, -2.0, 0.25)),
            },
            SceneUpdate::SetName { id: NodeId(5), name: "renamed".into() },
            SceneUpdate::ReplaceKind { id: NodeId(5), kind: NodeKind::Group },
            SceneUpdate::CameraMoved {
                id: NodeId(7),
                camera: CameraParams::look_at(Vec3::new(3.0, 4.0, 5.0), Vec3::ZERO, Vec3::Y),
            },
            SceneUpdate::AvatarUpdated {
                id: NodeId(7),
                avatar: AvatarInfo {
                    label: "onyx".into(),
                    color: Vec3::new(0.2, 0.4, 0.9),
                    camera: CameraParams::default(),
                },
            },
        ]
    }

    #[test]
    fn every_update_variant_roundtrips() {
        for (i, u) in all_update_variants().into_iter().enumerate() {
            let s = StampedUpdate { seq: i as u64 + 1, origin: format!("host{i}"), update: u };
            let enc = encode_stamped(&s);
            let dec = decode_stamped(&enc).unwrap();
            assert_eq!(dec, s, "variant {i}");
        }
    }

    #[test]
    fn audit_entry_roundtrips_with_timestamp() {
        let e = AuditEntry {
            at_secs: 12.625,
            stamped: StampedUpdate {
                seq: 42,
                origin: "v880z".into(),
                update: SceneUpdate::RemoveNode { id: NodeId(3) },
            },
        };
        let enc = encode_entry(&e);
        assert_eq!(decode_entry(&enc).unwrap(), e);
    }

    #[test]
    fn truncated_buffer_is_eof_not_panic() {
        let e = AuditEntry {
            at_secs: 1.0,
            stamped: StampedUpdate {
                seq: 9,
                origin: "laptop".into(),
                update: SceneUpdate::SetName { id: NodeId(2), name: "abcdef".into() },
            },
        };
        let enc = encode_entry(&e);
        for cut in 0..enc.len() {
            let err = decode_entry(&enc[..cut]).unwrap_err();
            assert_eq!(err, WireError::Eof, "cut at {cut}");
        }
    }

    #[test]
    fn bad_tag_is_reported() {
        let s = StampedUpdate {
            seq: 1,
            origin: "x".into(),
            update: SceneUpdate::RemoveNode { id: NodeId(1) },
        };
        let mut enc = encode_stamped(&s);
        // Tag byte sits after seq (8) + origin len (4) + origin (1).
        enc[13] = 0xEE;
        assert!(matches!(
            decode_stamped(&enc),
            Err(WireError::BadTag { what: "scene update", tag: 0xEE })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let s = StampedUpdate {
            seq: 1,
            origin: "x".into(),
            update: SceneUpdate::RemoveNode { id: NodeId(1) },
        };
        let mut enc = encode_stamped(&s);
        enc.push(0);
        assert_eq!(decode_stamped(&enc), Err(WireError::Trailing(1)));
    }

    #[test]
    fn tree_snapshot_roundtrips_exactly() -> Result<(), UpdateError> {
        let mut tree = SceneTree::new();
        let g = tree.add_node(tree.root(), "group", NodeKind::Group)?;
        let m = tree.add_node(g, "mesh", mesh_kind())?;
        tree.add_node(g, "cam", NodeKind::Camera(CameraParams::default()))?;
        // Mutations bump versions; removal burns an id — next_id must
        // survive the roundtrip so recovered services don't reuse ids.
        SceneUpdate::SetName { id: m, name: "renamed".into() }.apply(&mut tree)?;
        let burned = tree.add_node(tree.root(), "doomed", NodeKind::Group)?;
        SceneUpdate::RemoveNode { id: burned }.apply(&mut tree)?;

        let enc = encode_tree(&tree);
        let dec = decode_tree(&enc).unwrap();
        assert_eq!(format!("{tree:?}"), format!("{dec:?}"));
        dec.check_invariants().unwrap();
        // Allocator state preserved: the next id differs from any live id.
        let mut a = tree.clone();
        let mut b = dec;
        assert_eq!(a.allocate_id(), b.allocate_id());
        Ok(())
    }

    #[test]
    fn corrupt_length_cannot_oom() {
        let tree = SceneTree::new();
        let mut enc = encode_tree(&tree);
        // Claim 4 billion nodes: decode must fail with Eof, not allocate.
        enc[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_tree(&enc), Err(WireError::Eof));
    }

    #[test]
    fn node_states_carry_payload_and_pose_onto_the_base() {
        let mut live = SceneTree::new();
        let m = live.add_node(live.root(), "mesh", mesh_kind()).unwrap();
        let cam =
            live.add_node(live.root(), "cam", NodeKind::Camera(CameraParams::default())).unwrap();
        let base = live.clone();
        SceneUpdate::ReplaceKind { id: m, kind: NodeKind::Group }.apply(&mut live).unwrap();
        SceneUpdate::SetName { id: m, name: "renamed".into() }.apply(&mut live).unwrap();
        let moved = CameraParams::look_at(Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO, Vec3::Y);
        SceneUpdate::CameraMoved { id: cam, camera: moved }.apply(&mut live).unwrap();
        live.allocate_id();

        let body = encode_node_states(&live, &[m], &[m, cam]).unwrap();
        let mut got = base.clone();
        apply_node_states(&mut got, &body).unwrap();
        assert_eq!(got, live);
        got.check_invariants().unwrap();

        // A body that does not fit leaves the tree as it was.
        let mut other = SceneTree::new();
        assert!(apply_node_states(&mut other, &body).is_err());
        assert_eq!(other, SceneTree::new());
        assert!(encode_node_states(&live, &[NodeId(99)], &[]).is_none());
        for cut in 0..body.len() {
            assert!(apply_node_states(&mut base.clone(), &body[..cut]).is_err(), "cut at {cut}");
        }
    }
}
