//! Property test on the one path every session frame goes through,
//! `RenderService::rasterize_session_tile`: whatever was edited, moved,
//! restyled, swapped or cloned since the session's last frame — or was
//! not — the frame it hands out, drawn or lent again, is the serial
//! reference render of the scene, camera and tile it was asked for.

use proptest::prelude::*;
use rave::core::render_service::RenderService;
use rave::core::{ClientId, RenderServiceId};
use rave::math::{Quat, Vec3, Viewport};
use rave::render::{Framebuffer, MachineProfile, OffscreenMode, Rgb};
use rave::scene::{
    wire, AvatarInfo, CameraParams, MeshData, NodeId, NodeKind, PointCloudData, SceneTree,
    SceneUpdate, Transform, VolumeData,
};
use std::sync::Arc;

const CLIENT: ClientId = ClientId(7);
const MESH: NodeId = NodeId(1);
const GROUP: NodeId = NodeId(2);
const CAMERA: NodeId = NodeId(3);
const AVATAR: NodeId = NodeId(4);

fn base_camera() -> CameraParams {
    CameraParams::look_at(Vec3::new(0.4, 0.3, 5.0), Vec3::ZERO, Vec3::Y)
}

fn triangle(at: Vec3, size: f32) -> NodeKind {
    let mut mesh = MeshData::new(
        vec![at, at + Vec3::new(size, 0.0, 0.0), at + Vec3::new(0.0, size, 0.2)],
        vec![[0, 1, 2]],
    );
    mesh.colors = vec![Vec3::new(0.9, 0.4, 0.2); 3];
    NodeKind::Mesh(Arc::new(mesh))
}

fn avatar(label: &str, shade: f32) -> AvatarInfo {
    AvatarInfo { label: label.into(), color: Vec3::new(shade, 0.5, 0.2), camera: base_camera() }
}

/// A node of every kind the walk draws or an update can target, at ids
/// the steps below name.
fn base_scene() -> SceneTree {
    let mut tree = SceneTree::new();
    let root = tree.root();
    let mut cloud = PointCloudData::new(vec![Vec3::new(-1.0, 0.8, 0.3), Vec3::new(0.9, -0.7, 0.1)]);
    cloud.point_size = 0.08;
    let voxels = (0..27u32).map(|i| 100 + (i * 37 % 150) as u8).collect();
    let volume = VolumeData::new([3, 3, 3], Vec3::splat(0.3), voxels);
    for (id, name, kind) in [
        (MESH, "mesh", triangle(Vec3::new(-1.0, -1.0, 0.0), 2.0)),
        (GROUP, "group", NodeKind::Group),
        (CAMERA, "camera", NodeKind::Camera(base_camera())),
        (AVATAR, "avatar", NodeKind::Avatar(avatar("Desktop", 0.9))),
        (NodeId(5), "cloud", NodeKind::PointCloud(Arc::new(cloud))),
        (NodeId(6), "volume", NodeKind::Volume(Arc::new(volume))),
    ] {
        tree.insert_with_id(id, root, name, kind).unwrap();
    }
    tree.set_transform(AVATAR, Transform::from_translation(Vec3::new(0.8, 0.6, 0.5)));
    tree.set_transform(NodeId(6), Transform::from_translation(Vec3::new(-1.4, 0.2, 0.4)));
    tree
}

/// One thing that can happen between two frames of a session.
#[derive(Debug, Clone)]
enum Step {
    /// Ask for a frame with the request as it stands.
    Render,
    /// 0: the camera it has; 1: orbit; 2: lens; 3: back to the start;
    /// 4: a position that is not a number.
    Camera(usize),
    /// Another tile of the frame (some share a size, not an origin).
    Tile(usize),
    Full(usize),
    /// A field of the renderer's style, set to one of two values.
    Style(usize, bool),
    Threads(usize),
    /// The scene through its own `&mut self` API.
    Edit(usize, f32),
    /// The scene through `SceneUpdate::apply`, one variant each.
    Update(usize, f32),
    /// 0: an equal clone assigned over the scene; 1: a decoded copy;
    /// 2: swapped with the spare tree (and back, next time); 3: the spare
    /// tree becomes a clone of the scene, to diverge from it from here on.
    SwapScene(usize),
    CloneService,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let amount = || -1.0f32..1.0;
    prop_oneof![
        Just(Step::Render),
        Just(Step::Render),
        Just(Step::Render),
        Just(Step::Render),
        (0usize..5).prop_map(Step::Camera),
        (0usize..5).prop_map(Step::Camera),
        (0usize..6).prop_map(Step::Tile),
        (0usize..3).prop_map(Step::Full),
        (0usize..9, any::<bool>()).prop_map(|(which, on)| Step::Style(which, on)),
        (1usize..4).prop_map(Step::Threads),
        (0usize..10, amount()).prop_map(|(which, by)| Step::Edit(which, by)),
        (0usize..10, amount()).prop_map(|(which, by)| Step::Edit(which, by)),
        (0usize..8, amount()).prop_map(|(which, by)| Step::Update(which, by)),
        (0usize..8, amount()).prop_map(|(which, by)| Step::Update(which, by)),
        (0usize..4).prop_map(Step::SwapScene),
        (2usize..4).prop_map(Step::SwapScene),
        Just(Step::CloneService),
    ]
}

/// The session under test and the request its next frame is asked with.
struct Harness {
    rs: RenderService,
    spare: SceneTree,
    camera: CameraParams,
    full: Viewport,
    tile: Viewport,
    threads: usize,
    /// Nodes the steps added and have not removed.
    added: Vec<NodeId>,
    /// Whether anything that could change the frame happened since the
    /// last one. While false (and the camera equals itself) the next
    /// frame must be lent, not drawn.
    touched: bool,
}

impl Harness {
    fn new() -> Self {
        let mut rs =
            RenderService::new(RenderServiceId(1), "laptop", MachineProfile::centrino_laptop());
        rs.scene = base_scene();
        let full = Viewport::new(48, 36);
        rs.open_session(CLIENT, full, base_camera(), OffscreenMode::Sequential);
        let mut spare = base_scene();
        spare.set_transform(MESH, Transform::from_translation(Vec3::new(0.5, 0.2, 0.0)));
        Self {
            rs,
            spare,
            camera: base_camera(),
            full,
            tile: full,
            threads: 1,
            added: Vec::new(),
            touched: true,
        }
    }

    fn apply(&mut self, step: &Step) -> Result<(), TestCaseError> {
        match step {
            Step::Render => return self.render(),
            Step::Threads(n) => {
                self.threads = *n;
                return Ok(());
            }
            // The client sends the pose it sent before.
            Step::Camera(0) => return Ok(()),
            Step::Camera(how) => match how {
                1 => self.camera.orbit(Vec3::ZERO, 0.15, 0.05),
                2 => self.camera.fov_y = (self.camera.fov_y * 0.93).max(0.3),
                3 => self.camera = base_camera(),
                _ => self.camera.position.y = f32::NAN,
            },
            Step::Tile(pick) => {
                let tiles = [
                    self.full,
                    Viewport::with_origin(0, 0, 24, 36),
                    Viewport::with_origin(24, 0, 24, 36),
                    Viewport::with_origin(12, 9, 24, 18),
                    Viewport::with_origin(13, 9, 24, 18),
                    Viewport::with_origin(47, 35, 1, 1),
                ];
                self.tile = tiles[*pick];
            }
            Step::Full(pick) => {
                let before = self.full;
                self.full =
                    [Viewport::new(48, 36), Viewport::new(64, 36), Viewport::new(48, 40)][*pick];
                if self.tile == before {
                    self.tile = self.full;
                }
            }
            Step::Style(which, on) => {
                let r = &mut self.rs.renderer;
                match which {
                    0 => r.lighting.light_dir = if *on { Vec3::Z } else { Vec3::Y },
                    1 => r.lighting.ambient = if *on { 0.6 } else { 0.25 },
                    2 => r.background = if *on { Rgb(9, 60, 9) } else { Rgb(24, 24, 32) },
                    3 => r.transfer.threshold = if *on { 0.4 } else { 0.15 },
                    4 => r.transfer.opacity_scale = if *on { 1.5 } else { 4.0 },
                    5 => r.transfer.tint = if *on { Vec3::new(1.0, 0.4, 0.4) } else { Vec3::ONE },
                    6 => r.volume_steps = if *on { 12 } else { 48 },
                    7 => r.default_material = if *on { Vec3::X } else { Vec3::splat(0.75) },
                    _ => r.skip_subtree = on.then_some(AVATAR),
                }
            }
            Step::Edit(which, by) => self.edit(*which, *by),
            Step::Update(which, by) => self.update(*which, *by),
            Step::SwapScene(how) => match how {
                0 => self.rs.scene = self.rs.scene.clone(),
                1 => {
                    let bytes = wire::encode_tree(&self.rs.scene);
                    self.rs.scene = wire::decode_tree(&bytes).unwrap();
                }
                3 => self.spare = self.rs.scene.clone(),
                _ => {
                    std::mem::swap(&mut self.rs.scene, &mut self.spare);
                    // The spare tree never got the added nodes.
                    self.added.retain(|id| self.rs.scene.contains(*id));
                }
            },
            Step::CloneService => self.rs = self.rs.clone(),
        }
        // Everything but a render, a pool width and a repeated pose.
        self.touched = true;
        Ok(())
    }

    /// Edits through the tree's own API, edits that change nothing
    /// included.
    fn edit(&mut self, which: usize, by: f32) {
        let scene = &mut self.rs.scene;
        let place = Transform {
            translation: Vec3::new(by, -0.5 * by, 0.3),
            rotation: Quat::from_axis_angle(Vec3::Y, by),
            scale: Vec3::ONE,
        };
        match which {
            0 => assert!(scene.set_transform(MESH, place)),
            1 => {
                let same = scene.node(MESH).unwrap().transform();
                assert!(scene.set_transform(MESH, same));
            }
            2 => {
                let kind = triangle(Vec3::new(by, by, 0.5), 0.7);
                self.added.push(scene.add_node(GROUP, "added", kind).unwrap());
            }
            3 => {
                if let Some(id) = self.added.pop() {
                    scene.remove(id).unwrap();
                }
            }
            4 => {
                let to = if scene.node(MESH).unwrap().parent() == Some(GROUP) {
                    scene.root()
                } else {
                    GROUP
                };
                scene.reparent(MESH, to).unwrap();
            }
            5 => {
                if let NodeKind::Mesh(m) = scene.node_mut(MESH).unwrap().kind_mut() {
                    Arc::make_mut(m).positions[0].x = by;
                }
            }
            6 => scene.node_mut(GROUP).unwrap().set_kind(triangle(Vec3::new(0.2, by, 0.4), 0.5)),
            7 => scene.node_mut(GROUP).unwrap().transform_mut().translation.x = by,
            8 => {
                let mut other = SceneTree::new();
                let id = NodeId(900 + self.added.len() as u64);
                let root = other.root();
                other
                    .insert_with_id(id, root, "merged", triangle(Vec3::new(by, 0.0, 1.0), 0.6))
                    .unwrap();
                if !scene.contains(id) {
                    self.added.push(id);
                }
                scene.adopt_parcel(&other.extract_parcel(&[id]));
            }
            // Handing out the mutable view is an edit, conservatively.
            _ => drop(scene.node_mut(MESH).unwrap()),
        }
    }

    /// One `SceneUpdate` variant each; 5 is a `CameraMoved` the mesh
    /// refuses after its payload view was taken.
    fn update(&mut self, which: usize, by: f32) {
        let scene = &mut self.rs.scene;
        let mut pose = base_camera();
        pose.orbit(Vec3::ZERO, by, 0.1);
        let update = match which {
            0 => {
                let id = scene.allocate_id();
                self.added.push(id);
                SceneUpdate::AddNode {
                    id,
                    parent: GROUP,
                    name: "update".into(),
                    kind: triangle(Vec3::new(by, -by, 0.8), 0.4),
                }
            }
            1 => match self.added.pop() {
                Some(id) => SceneUpdate::RemoveNode { id },
                None => return,
            },
            2 => SceneUpdate::SetTransform {
                id: AVATAR,
                transform: Transform::from_translation(Vec3::new(by, 0.6, 0.5)),
            },
            3 => SceneUpdate::SetName { id: MESH, name: "renamed".into() },
            4 => SceneUpdate::ReplaceKind {
                id: GROUP,
                kind: if by > 0.0 { triangle(Vec3::splat(by), 0.9) } else { NodeKind::Group },
            },
            5 => SceneUpdate::CameraMoved { id: MESH, camera: pose },
            6 => {
                SceneUpdate::CameraMoved { id: [CAMERA, AVATAR][(by > 0.0) as usize], camera: pose }
            }
            _ => SceneUpdate::AvatarUpdated { id: AVATAR, avatar: avatar("Laptop", by.abs()) },
        };
        assert_eq!(update.apply(scene).is_ok(), which != 5, "{update:?}");
    }

    /// Ask for the frame and hold what comes back, and what the session
    /// keeps, to a reference render into a fresh buffer.
    fn render(&mut self) -> Result<(), TestCaseError> {
        let (camera, full, tile) = (self.camera, self.full, self.tile);
        let before = {
            let s = &self.rs.sessions[&CLIENT];
            (s.frames_drawn, s.frames_reused)
        };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(self.threads).build().unwrap();
        let rs = &mut self.rs;
        let (lent, stats) = pool
            .install(|| rs.rasterize_session_tile(CLIENT, &camera, &full, &tile))
            .map(|(fb, stats)| (fb.clone(), stats))
            .expect("the session is open");

        let mut reference = Framebuffer::new(tile.width, tile.height);
        let want =
            rs.renderer.render_tile_reference(&rs.scene, &camera, &full, &tile, &mut reference);
        let depth_bits = |fb: &Framebuffer| -> Vec<u32> {
            fb.depth_pixels().iter().map(|d| d.to_bits()).collect()
        };
        let session = &rs.sessions[&CLIENT];
        let kept = session.last_frame.as_ref().expect("a frame is retained");
        for (what, fb) in [("lent", &lent), ("retained", kept)] {
            prop_assert_eq!(fb.color_pixels(), reference.color_pixels(), "{} colors", what);
            prop_assert_eq!(depth_bits(fb), depth_bits(&reference), "{} depths", what);
        }
        prop_assert_eq!(stats, want, "statistics");

        let after = (session.frames_drawn, session.frames_reused);
        prop_assert_eq!(after.0 + after.1, before.0 + before.1 + 1, "one frame counted");
        // `Step::Camera(4)` is the one way a NaN gets into the request.
        if !self.touched && !camera.position.y.is_nan() {
            prop_assert_eq!(after, (before.0, before.1 + 1), "nothing moved: lent, not drawn");
        }
        self.touched = false;
        Ok(())
    }
}

proptest! {
    /// Scene edits (every `SceneUpdate` variant and the tree's own API,
    /// no-ops included), camera nudges and repeats, tile, viewport and
    /// style changes, wholesale scene swaps and service clones, renders in
    /// between at 1–3 threads: every frame equals the reference in pixels,
    /// depth bits and every statistic, and a frame asked for again with
    /// nothing touched is lent, not drawn.
    #[test]
    fn session_frames_equal_the_reference_whatever_happened_in_between(
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        let mut h = Harness::new();
        for step in &steps {
            h.apply(step)?;
        }
        // Whatever the sequence was, the same request twice lends once.
        h.apply(&Step::Camera(3))?;
        h.render()?;
        let reused = h.rs.sessions[&CLIENT].frames_reused;
        h.render()?;
        prop_assert_eq!(h.rs.sessions[&CLIENT].frames_reused, reused + 1);
    }
}
