//! The scene renderer: walk a [`SceneTree`] with a camera and draw every
//! visible node into a framebuffer (or one tile of it).
//!
//! Two engines share one scene walk and one set of per-pixel kernels:
//!
//! - [`Renderer::render`] / [`Renderer::render_tile`] — the **binned
//!   parallel engine**. The walk draws nothing: for each node that can
//!   reach the tile (the others are booked and skipped, `tile_cull`) it
//!   runs the vertex stage and emits one command per mesh (plus splats
//!   and volume casts). The framebuffer is cut into disjoint row bands,
//!   one per rayon worker, and each band streams the commands in walk
//!   order, setting up and rasterizing the triangles that reach its rows
//!   and columns. Bands never share
//!   pixels, so no locks are needed, and every band sees the commands in
//!   walk order, so each pixel sees the exact serial sequence of depth
//!   tests and blends — output is bit-identical to the reference
//!   (property-tested in `tests/proptest_render.rs`).
//! - [`Renderer::render_reference`] / [`Renderer::render_tile_reference`]
//!   — the immediate-mode serial path kept as the correctness baseline
//!   and the `parallel_render` bench's comparison point.
//!
//! Per-tile `RasterStats` from the bands merge with a rayon reduce;
//! [`crate::raster::RasterStats::cost_units`] turns the totals into the
//! measured-cost signal the tile planner feeds back on.

use crate::avatar::avatar_mesh;
use crate::composite::VolumeLayer;
use crate::framebuffer::{Framebuffer, Rgb};
use crate::points::{draw_points, setup_splat, splat_rows, Splat};
use crate::raster::{draw_mesh, raster_mesh_rows, BinVertex, ClipVertex, Lighting, RasterStats};
use crate::tile_cull::{finite_bounds, points_miss_tile, volume_misses_tile};
use crate::tile_cull::{GUARD_PX, SPLAT_REACH_PX};
use crate::volume::{raycast_rows, raycast_volume, TransferFunction};
use rave_math::{frustum::Containment, Aabb, Mat4, Vec3, Viewport};
use rave_scene::{CameraParams, MeshData, NodeId, NodeKind, SceneTree, VolumeData};
use rayon::prelude::*;
use std::borrow::Cow;

/// Statistics for one rendered frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    pub raster: RasterStats,
    pub nodes_visited: u64,
    pub nodes_culled: u64,
    pub polygons_on_screen: u64,
    pub points_on_screen: u64,
    pub voxels_sampled_nodes: u64,
}

impl RenderStats {
    /// Add another frame's (or eye's, or tile's) counts, every field.
    pub fn accumulate(&mut self, o: &RenderStats) {
        self.raster.accumulate(&o.raster);
        self.nodes_visited += o.nodes_visited;
        self.nodes_culled += o.nodes_culled;
        self.polygons_on_screen += o.polygons_on_screen;
        self.points_on_screen += o.points_on_screen;
        self.voxels_sampled_nodes += o.voxels_sampled_nodes;
    }
}

/// One deferred drawing operation. The scene walk emits these instead of
/// touching pixels; every row band streams them in order.
enum Cmd<'a> {
    /// A mesh's vertex-stage output and its triangle list (borrowed from
    /// the scene; owned for an avatar, whose mesh exists only for the
    /// frame).
    Mesh {
        verts: Vec<BinVertex>,
        tris: Cow<'a, [[u32; 3]]>,
    },
    Splat(Splat),
    Volume {
        vol: &'a VolumeData,
        model: Mat4,
    },
}

/// What the walk hands the bands: the commands, and how many projected
/// vertices and splat centres fall on each row of the tile — the load
/// estimate the band cuts are taken from.
struct Binned<'a> {
    cmds: Vec<Cmd<'a>>,
    row_load: Vec<u32>,
}

impl<'a> Binned<'a> {
    /// Count a projected point towards its row's load when it is on the
    /// tile. (Comparisons written so NaN counts nowhere.)
    fn load_row(&mut self, tile: &Viewport, x: f32, y: f32) {
        let (x0, y0) = (tile.x as f32, tile.y as f32);
        if x >= x0 && x < x0 + tile.width as f32 && y >= y0 {
            if let Some(load) = self.row_load.get_mut((y - y0) as usize) {
                *load += 1;
            }
        }
    }

    fn add_mesh(&mut self, tile: &Viewport, verts: Vec<BinVertex>, tris: Cow<'a, [[u32; 3]]>) {
        for v in &verts {
            if v.projected() {
                self.load_row(tile, v.screen.x, v.screen.y);
            }
        }
        self.cmds.push(Cmd::Mesh { verts, tris });
    }
}

/// Rows at which to cut a tile into at most `bands` row bands of
/// near-equal load (strictly increasing, inside `0 < cut < height`).
/// A row weighs one (its clear and its share of large triangles' pixels)
/// plus the vertices projected onto it: a tessellated model's triangles,
/// and with them setup and fill cost, sit where its vertices do, and
/// equal-height bands would leave the workers over the background idle.
fn band_cuts(row_load: &[u32], bands: usize) -> Vec<u32> {
    let height = row_load.len();
    let bands = bands.clamp(1, height) as u64;
    let total: u64 = row_load.iter().map(|&v| v as u64 + 1).sum();
    let mut cuts = Vec::with_capacity(bands as usize - 1);
    let mut seen = 0u64;
    for (row, &v) in row_load[..height - 1].iter().enumerate() {
        seen += v as u64 + 1;
        let k = cuts.len() as u64 + 1;
        if k < bands && seen * bands >= total * k {
            cuts.push(row as u32 + 1);
        }
    }
    cuts
}

/// Vertices a worker of the vertex stage must have to itself before the
/// stage is split. A vertex is 12 ns of work; a split pays for a section
/// start (the idle core's wake-up: 60–130 µs after the other core idled
/// 1–5 ms, 16–37 µs back to back, medians of 400 starts on the 2-core
/// host, with the thread count read once) and for writing the output
/// buffer twice, once to size it and once to fill it. On the 2-core host
/// BENCH_render_parallel.json records, frames 1 ms apart, one thread
/// against two (medians, µs): Elle's 25,004 vertices 300 against 380–430,
/// 32.5k 377 : 455, 65k 785 : 833, 100k 1238 : 1212, 131k 1550 :
/// 1400–1510, 200k 2514 : 2065. A split that gives each worker this many
/// never lost; the 4,096 vertices *in all* that were asked for before
/// lost 0.1 ms of every frame and every strip the end-to-end benchmark
/// draws. Taken again with the count read once (the stage alone, two
/// runs): 25,004 vertices 456–472 : 451–465, 32,768 507–598 : 538–596,
/// 65,536 921–1198 : 956–978, 131,072 1860–2320 : 1821–2988 — no split
/// below 131k won on both runs, so the bound stays.
const VERTICES_PER_WORKER: usize = 65_536;

/// Frame renderer. Holds the style configuration (lighting, background,
/// volume transfer function) and scratch state reused across frames.
#[derive(Debug, Clone, PartialEq)]
pub struct Renderer {
    pub lighting: Lighting,
    pub background: Rgb,
    pub transfer: TransferFunction,
    /// Ray-march steps per volume (quality/cost knob).
    pub volume_steps: u32,
    /// Fallback material for meshes without vertex colors.
    pub default_material: Vec3,
    /// When set, this node (and its subtree) is skipped — a render
    /// service does not draw the avatar of the very client it renders for
    /// (you don't see your own head).
    pub skip_subtree: Option<NodeId>,
}

impl Default for Renderer {
    fn default() -> Self {
        Self {
            lighting: Lighting::default(),
            background: Rgb(24, 24, 32),
            transfer: TransferFunction::default(),
            volume_steps: 48,
            default_material: Vec3::new(0.75, 0.75, 0.78),
            skip_subtree: None,
        }
    }
}

impl Renderer {
    /// Render the whole viewport with the binned parallel engine.
    pub fn render(
        &self,
        tree: &SceneTree,
        camera: &CameraParams,
        fb: &mut Framebuffer,
    ) -> RenderStats {
        let vp = fb.viewport();
        self.render_tile(tree, camera, &vp, &vp, fb)
    }

    /// Render the whole viewport with the serial immediate-mode reference
    /// path (no binning, no threads). The parallel engine is verified
    /// bit-identical against this.
    pub fn render_reference(
        &self,
        tree: &SceneTree,
        camera: &CameraParams,
        fb: &mut Framebuffer,
    ) -> RenderStats {
        let vp = fb.viewport();
        self.render_tile_reference(tree, camera, &vp, &vp, fb)
    }

    /// Render one `tile` of the image defined by `full_viewport` into a
    /// tile-sized framebuffer. Rendering each tile of a split and
    /// stitching reproduces the full render bit-exactly (tested in
    /// `raster`): the property that makes framebuffer distribution
    /// transparent.
    ///
    /// Binned parallel engine: walk → one command per mesh → row bands
    /// stream them on rayon workers. Same output as
    /// [`Renderer::render_tile_reference`], bit for bit.
    pub fn render_tile(
        &self,
        tree: &SceneTree,
        camera: &CameraParams,
        full_viewport: &Viewport,
        tile: &Viewport,
        fb: &mut Framebuffer,
    ) -> RenderStats {
        // Phase 1 (serial walk, parallel vertex stage): the scene as a
        // command list in walk order, and the rows its vertices land on.
        let (mut binned, mut stats) = self.walk_and_bin(tree, camera, full_viewport, tile);

        // Phase 2: one band per worker, cut where the load estimate says
        // the work divides evenly. Ray-cast volumes cost by the pixel, so
        // with one in the frame equal heights are the even split.
        if binned.cmds.iter().any(|cmd| matches!(cmd, Cmd::Volume { .. })) {
            binned.row_load.fill(0);
        }
        let cuts = band_cuts(&binned.row_load, rayon::current_num_threads());
        let frag = self.render_bands(&binned.cmds, camera, full_viewport, tile, fb, &cuts);
        stats.raster.accumulate(&frag);
        stats
    }

    /// Phase 3 of [`Renderer::render_tile`]: each of the bands `cuts`
    /// defines (see [`Framebuffer::row_bands_at`]) clears its rows, then
    /// streams every command. Bands own disjoint framebuffer rows (no
    /// locks); each pixel sees the same op sequence as a serial draw, so
    /// depth-test ties and volume blends resolve identically and the
    /// output does not depend on where the cuts are. The bands' counters
    /// merge with a deterministic reduce.
    fn render_bands(
        &self,
        cmds: &[Cmd<'_>],
        camera: &CameraParams,
        full_viewport: &Viewport,
        tile: &Viewport,
        fb: &mut Framebuffer,
        cuts: &[u32],
    ) -> RasterStats {
        assert_eq!((fb.width(), fb.height()), (tile.width, tile.height), "tile buffer size");
        if cmds.is_empty() {
            // A tile no command reaches is its background: one fill, less
            // work than the section start that would split it.
            fb.clear(self.background);
            return RasterStats::default();
        }
        let view_proj = camera.view_proj(full_viewport);
        fb.row_bands_at(cuts)
            .into_par_iter()
            .map(|mut band| {
                let mut s = RasterStats::default();
                band.clear(self.background);
                for cmd in cmds {
                    match cmd {
                        Cmd::Mesh { verts, tris } => {
                            raster_mesh_rows(&mut band, full_viewport, tile, verts, tris, &mut s)
                        }
                        Cmd::Splat(sp) => splat_rows(&mut band, tile, sp, &mut s),
                        Cmd::Volume { vol, model } => raycast_rows(
                            &mut band,
                            full_viewport,
                            tile,
                            vol,
                            model,
                            &view_proj,
                            camera.position,
                            &self.transfer,
                            self.volume_steps,
                            &mut s,
                        ),
                    }
                }
                s
            })
            .reduce(RasterStats::default, RasterStats::merged)
    }

    /// The shared scene walk, emitting commands instead of pixels. Only
    /// the vertex stage and splat projection run here; triangle setup
    /// happens in the bands. The frustum cull is the reference's (full
    /// viewport, so `nodes_culled`, `polygons_on_screen` and the other
    /// walk counters mean the same for a tile as for the whole frame); on
    /// top of it a node whose content cannot reach `tile` emits nothing
    /// and books what the reference books for it (`tile_cull`).
    fn walk_and_bin<'a>(
        &self,
        tree: &'a SceneTree,
        camera: &CameraParams,
        full_viewport: &Viewport,
        tile: &Viewport,
    ) -> (Binned<'a>, RenderStats) {
        let mut stats = RenderStats::default();
        let mut out = Binned { cmds: Vec::new(), row_load: vec![0; tile.height as usize] };
        let view_proj = camera.view_proj(full_viewport);
        let frustum = camera.frustum(full_viewport);
        // The whole frame is the rectangle the frustum cull is made
        // against; only a proper tile is worth a second look at a node.
        let tiled = tile != full_viewport;
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            if self.skip_subtree == Some(id) {
                continue;
            }
            let Some(node) = tree.node(id) else { continue };
            stats.nodes_visited += 1;

            let bounds = tree.world_bounds(id);
            if !bounds.is_empty() && frustum.classify(&bounds) == Containment::Outside {
                stats.nodes_culled += 1;
                continue;
            }
            stack.extend(node.children().rev());

            let model = tree.world_transform(id);
            // The one product every draw path of this node multiplies by.
            let mvp = view_proj * model;
            // `local`: a finite box around every point the node draws, if
            // there is one (the tree's kept box, or a scan for a mesh made
            // for the frame).
            let off_tile = |local: Option<Aabb>, reach: f64| {
                tiled
                    && local.is_some_and(|b| points_miss_tile(&b, &mvp, full_viewport, tile, reach))
            };
            let mut bin_mesh = |mesh: &MeshData,
                                local: Option<Aabb>,
                                tris: Cow<'a, [[u32; 3]]>,
                                base_color: Vec3| {
                stats.polygons_on_screen += tris.len() as u64;
                if off_tile(local, GUARD_PX) {
                    // Every triangle would be submitted, set up once and
                    // found to have no column on the tile.
                    stats.raster.triangles_submitted += tris.len() as u64;
                    stats.raster.triangles_clipped_away += tris.len() as u64;
                } else {
                    let verts = self.vertex_stage(full_viewport, mesh, &model, &mvp, base_color);
                    out.add_mesh(tile, verts, tris);
                }
            };
            match node.kind() {
                NodeKind::Group | NodeKind::Camera(_) => {}
                NodeKind::Mesh(mesh) => bin_mesh(
                    mesh,
                    node.finite_local_bounds(),
                    Cow::Borrowed(&mesh.triangles),
                    self.default_material,
                ),
                NodeKind::Avatar(info) => {
                    let mut mesh = avatar_mesh(info);
                    let tris = std::mem::take(&mut mesh.triangles);
                    let local = tiled.then(|| finite_bounds(&mesh.positions)).flatten();
                    bin_mesh(&mesh, local, Cow::Owned(tris), info.color);
                }
                NodeKind::PointCloud(cloud) => {
                    stats.points_on_screen += cloud.point_count();
                    if off_tile(node.finite_local_bounds(), GUARD_PX + SPLAT_REACH_PX) {
                        continue;
                    }
                    for i in 0..cloud.points.len() {
                        if let Some(s) =
                            setup_splat(full_viewport, cloud, i, &mvp, self.default_material)
                        {
                            out.load_row(tile, s.cx as f32, s.cy as f32);
                            out.cmds.push(Cmd::Splat(s));
                        }
                    }
                }
                NodeKind::Volume(vol) => {
                    stats.voxels_sampled_nodes += 1;
                    let off_tile = tiled
                        && volume_misses_tile(
                            &vol.bounds(),
                            &model,
                            &view_proj,
                            camera.position,
                            full_viewport,
                            tile,
                        );
                    if !off_tile {
                        out.cmds.push(Cmd::Volume { vol, model });
                    }
                }
            }
        }
        (out, stats)
    }

    /// Vertex stage for one mesh. Each vertex is transformed, shaded and
    /// projected exactly once (the reference path re-runs the vertex
    /// stage per triangle corner — same expressions, so the cached values
    /// are bit-identical). A mesh large enough to give every worker
    /// [`VERTICES_PER_WORKER`] splits the work across rayon workers.
    fn vertex_stage(
        &self,
        full_viewport: &Viewport,
        mesh: &MeshData,
        model: &Mat4,
        mvp: &Mat4,
        base_color: Vec3,
    ) -> Vec<BinVertex> {
        let workers = rayon::current_num_threads().min(mesh.positions.len() / VERTICES_PER_WORKER);
        self.vertex_stage_on(workers, full_viewport, mesh, model, mvp, base_color)
    }

    /// [`Renderer::vertex_stage`] on `workers` workers (none or one: the
    /// caller alone), each filling its own contiguous chunk of the one
    /// output buffer: nothing is collected per worker and copied together.
    fn vertex_stage_on(
        &self,
        workers: usize,
        full_viewport: &Viewport,
        mesh: &MeshData,
        model: &Mat4,
        mvp: &Mat4,
        base_color: Vec3,
    ) -> Vec<BinVertex> {
        let lighting = &self.lighting;
        let vertex = |i: usize| -> BinVertex {
            let pos = mesh.positions[i];
            let normal = if mesh.normals.is_empty() {
                Vec3::Z
            } else {
                model.transform_dir(mesh.normals[i]).normalized()
            };
            let base = if mesh.colors.is_empty() { base_color } else { mesh.colors[i] };
            let v = ClipVertex {
                clip: mvp.mul_vec4(pos.extend(1.0)),
                color: lighting.shade(base, normal),
            };
            BinVertex::new(full_viewport, v)
        };
        let n = mesh.positions.len();
        if workers > 1 {
            let mut verts = vec![BinVertex::UNSET; n];
            let chunk = n.div_ceil(workers);
            verts.par_chunks_mut(chunk).enumerate().for_each(|(k, slots)| {
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = vertex(k * chunk + j);
                }
            });
            verts
        } else {
            (0..n).map(vertex).collect()
        }
    }

    /// Serial immediate-mode tile render (the original code path): draws
    /// node by node with per-triangle clipping and no command stream.
    pub fn render_tile_reference(
        &self,
        tree: &SceneTree,
        camera: &CameraParams,
        full_viewport: &Viewport,
        tile: &Viewport,
        fb: &mut Framebuffer,
    ) -> RenderStats {
        assert_eq!((fb.width(), fb.height()), (tile.width, tile.height), "tile buffer size");
        fb.clear(self.background);
        let mut stats = RenderStats::default();
        let view_proj = camera.view_proj(full_viewport);
        let frustum = camera.frustum(full_viewport);

        // Iterative pre-order walk with subtree culling.
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            if self.skip_subtree == Some(id) {
                continue;
            }
            let Some(node) = tree.node(id) else { continue };
            stats.nodes_visited += 1;

            // Cull whole subtrees by world bounds.
            let bounds = tree.world_bounds(id);
            if !bounds.is_empty() && frustum.classify(&bounds) == Containment::Outside {
                stats.nodes_culled += 1;
                continue;
            }
            stack.extend(node.children().rev());

            let model = tree.world_transform(id);
            match node.kind() {
                NodeKind::Group | NodeKind::Camera(_) => {}
                NodeKind::Mesh(mesh) => {
                    stats.polygons_on_screen += mesh.triangle_count();
                    draw_mesh(
                        fb,
                        full_viewport,
                        tile,
                        mesh,
                        &model,
                        &view_proj,
                        &self.lighting,
                        self.default_material,
                        &mut stats.raster,
                    );
                }
                NodeKind::PointCloud(cloud) => {
                    stats.points_on_screen += cloud.point_count();
                    draw_points(
                        fb,
                        full_viewport,
                        tile,
                        cloud,
                        &model,
                        &view_proj,
                        self.default_material,
                        &mut stats.raster,
                    );
                }
                NodeKind::Volume(vol) => {
                    stats.voxels_sampled_nodes += 1;
                    raycast_volume(
                        fb,
                        full_viewport,
                        tile,
                        vol,
                        &model,
                        &view_proj,
                        camera.position,
                        &self.transfer,
                        self.volume_steps,
                        &mut stats.raster,
                    );
                }
                NodeKind::Avatar(info) => {
                    let mesh = avatar_mesh(info);
                    stats.polygons_on_screen += mesh.triangle_count();
                    draw_mesh(
                        fb,
                        full_viewport,
                        tile,
                        &mesh,
                        &model,
                        &view_proj,
                        &self.lighting,
                        info.color,
                        &mut stats.raster,
                    );
                }
            }
        }
        stats
    }

    /// Render only the volume content into an RGBA layer for distributed
    /// volume compositing (§6): returns the layer tagged with the volume
    /// subtree's mean view distance.
    pub fn render_volume_layer(
        &self,
        tree: &SceneTree,
        volume_node: NodeId,
        camera: &CameraParams,
        viewport: &Viewport,
    ) -> Option<VolumeLayer> {
        let node = tree.node(volume_node)?;
        let NodeKind::Volume(vol) = node.kind() else { return None };
        let mut fb = Framebuffer::new(viewport.width, viewport.height);
        fb.clear(Rgb::BLACK);
        let mut stats = RasterStats::default();
        let model = tree.world_transform(volume_node);
        raycast_volume(
            &mut fb,
            viewport,
            viewport,
            vol,
            &model,
            &camera.view_proj(viewport),
            camera.position,
            &self.transfer,
            self.volume_steps,
            &mut stats,
        );
        // Approximate alpha: luminance of the layer (the raycaster wrote
        // premultiplied color over black).
        let color = (0..viewport.pixel_count())
            .map(|i| {
                let x = i as u32 % viewport.width;
                let y = i as u32 / viewport.width;
                let c = fb.get(x, y);
                let a = if c == Rgb::BLACK { 0.0 } else { 1.0f32.min(fb_lum(c) * 2.0) };
                [c.0 as f32 / 255.0, c.1 as f32 / 255.0, c.2 as f32 / 255.0, a]
            })
            .collect();
        let dist = tree.world_bounds(volume_node).center().distance(camera.position);
        Some(VolumeLayer {
            color,
            view_distance: dist,
            width: viewport.width,
            height: viewport.height,
        })
    }
}

fn fb_lum(c: Rgb) -> f32 {
    (0.299 * c.0 as f32 + 0.587 * c.1 as f32 + 0.114 * c.2 as f32) / 255.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::{AvatarInfo, MeshData, Transform};
    use std::sync::Arc;

    fn scene_with_triangle() -> (SceneTree, CameraParams) {
        let mut tree = SceneTree::new();
        let mesh = MeshData::new(
            vec![Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0)],
            vec![[0, 1, 2]],
        );
        tree.add_node(tree.root(), "tri", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, Vec3::Y);
        (tree, cam)
    }

    /// Mesh + point cloud + volume under one root: exercises every
    /// command kind in one frame.
    fn mixed_scene() -> (SceneTree, CameraParams) {
        let (mut tree, cam) = scene_with_triangle();
        let mut cloud = rave_scene::PointCloudData::new(vec![
            Vec3::new(-0.8, 0.6, 0.2),
            Vec3::new(0.7, -0.5, -0.3),
            Vec3::new(0.1, 0.8, 0.0),
        ]);
        cloud.point_size = 0.05;
        tree.add_node(tree.root(), "cloud", NodeKind::PointCloud(Arc::new(cloud))).unwrap();
        let n = 8u32;
        let mut voxels = vec![0u8; (n * n * n) as usize];
        for (i, v) in voxels.iter_mut().enumerate() {
            *v = ((i * 37) % 256) as u8;
        }
        let vol = rave_scene::VolumeData::new([n, n, n], Vec3::splat(0.2), voxels);
        let vid = tree.add_node(tree.root(), "vol", NodeKind::Volume(Arc::new(vol))).unwrap();
        tree.set_transform(vid, Transform::from_translation(Vec3::new(0.3, -0.2, 0.5)));
        (tree, cam)
    }

    #[test]
    fn renders_scene_content() {
        let (tree, cam) = scene_with_triangle();
        let mut fb = Framebuffer::new(64, 64);
        let r = Renderer::default();
        let stats = r.render(&tree, &cam, &mut fb);
        assert!(stats.raster.fragments_written > 100);
        assert_eq!(stats.polygons_on_screen, 1);
        assert!(fb.coverage(r.background) > 100);
    }

    #[test]
    fn culls_out_of_view_subtrees() {
        let (mut tree, cam) = scene_with_triangle();
        let far = tree
            .add_node(
                tree.root(),
                "far",
                NodeKind::Mesh(Arc::new(MeshData::new(
                    vec![Vec3::ZERO, Vec3::X, Vec3::Y],
                    vec![[0, 1, 2]],
                ))),
            )
            .unwrap();
        tree.set_transform(far, Transform::from_translation(Vec3::new(1e5, 0.0, 0.0)));
        let mut fb = Framebuffer::new(32, 32);
        let stats = Renderer::default().render(&tree, &cam, &mut fb);
        assert!(stats.nodes_culled >= 1);
        // Culled node's polygon not counted on-screen.
        assert_eq!(stats.polygons_on_screen, 1);
    }

    #[test]
    fn avatar_visible_to_other_user_but_not_self() {
        let mut tree = SceneTree::new();
        let avatar_cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 1.0), Vec3::ZERO, Vec3::Y);
        let av = tree
            .add_node(
                tree.root(),
                "avatar-desktop",
                NodeKind::Avatar(AvatarInfo {
                    label: "Desktop".into(),
                    color: Vec3::new(1.0, 0.2, 0.1),
                    camera: avatar_cam,
                }),
            )
            .unwrap();
        let observer = CameraParams::look_at(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, Vec3::Y);

        let mut fb = Framebuffer::new(64, 64);
        let mut r = Renderer::default();
        let stats = r.render(&tree, &observer, &mut fb);
        assert!(stats.raster.fragments_written > 0, "observer sees the avatar");

        r.skip_subtree = Some(av);
        let mut fb2 = Framebuffer::new(64, 64);
        let stats2 = r.render(&tree, &observer, &mut fb2);
        assert_eq!(stats2.raster.fragments_written, 0, "owner's own avatar skipped");
    }

    #[test]
    fn transform_chain_moves_rendering() {
        let (mut tree, cam) = scene_with_triangle();
        let tri = tree.find_by_path("/tri").unwrap();
        let mut fb_before = Framebuffer::new(64, 64);
        let r = Renderer::default();
        r.render(&tree, &cam, &mut fb_before);
        tree.set_transform(tri, Transform::from_translation(Vec3::new(0.6, 0.0, 0.0)));
        let mut fb_after = Framebuffer::new(64, 64);
        r.render(&tree, &cam, &mut fb_after);
        assert!(fb_before.diff_fraction(&fb_after, 0.0) > 0.05, "image changed");
    }

    #[test]
    fn tile_render_matches_full_render() {
        let (tree, cam) = scene_with_triangle();
        let r = Renderer::default();
        let mut full = Framebuffer::new(60, 60);
        r.render(&tree, &cam, &mut full);

        let vp = Viewport::new(60, 60);
        let mut stitched = Framebuffer::new(60, 60);
        for tile in vp.split_tiles(3, 2) {
            let mut tf = Framebuffer::new(tile.width, tile.height);
            r.render_tile(&tree, &cam, &vp, &tile, &mut tf);
            stitched.blit(&tf, tile.x, tile.y);
        }
        assert_eq!(full.diff_fraction(&stitched, 0.0), 0.0);
    }

    #[test]
    fn empty_scene_renders_background_only() {
        let tree = SceneTree::new();
        let cam = CameraParams::default();
        let mut fb = Framebuffer::new(16, 16);
        let r = Renderer::default();
        let stats = r.render(&tree, &cam, &mut fb);
        assert_eq!(stats.raster.fragments_written, 0);
        assert_eq!(fb.coverage(r.background), 0);
    }

    /// THE parallel-engine invariant: the binned engine equals the serial
    /// immediate-mode reference — pixels, depths, and stats — at several
    /// thread counts, on a scene exercising every command kind.
    #[test]
    fn binned_engine_bit_identical_to_reference() {
        let (tree, cam) = mixed_scene();
        let r = Renderer::default();
        let mut reference = Framebuffer::new(72, 56);
        let ref_stats = r.render_reference(&tree, &cam, &mut reference);

        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut fb = Framebuffer::new(72, 56);
            let stats = pool.install(|| r.render(&tree, &cam, &mut fb));
            assert_eq!(
                reference.diff_fraction(&fb, 0.0),
                0.0,
                "pixels differ at {threads} threads"
            );
            for y in 0..56 {
                for x in 0..72 {
                    assert_eq!(
                        reference.depth_at(x, y).to_bits(),
                        fb.depth_at(x, y).to_bits(),
                        "depth differs at ({x},{y}) with {threads} threads"
                    );
                }
            }
            assert_eq!(stats.raster, ref_stats.raster, "stats differ at {threads} threads");
        }
    }

    #[test]
    fn binned_tiles_match_reference_tiles() {
        let (tree, cam) = mixed_scene();
        let r = Renderer::default();
        let vp = Viewport::new(64, 48);
        for tile in vp.split_tiles(2, 2) {
            let mut a = Framebuffer::new(tile.width, tile.height);
            let mut b = Framebuffer::new(tile.width, tile.height);
            r.render_tile(&tree, &cam, &vp, &tile, &mut a);
            r.render_tile_reference(&tree, &cam, &vp, &tile, &mut b);
            assert_eq!(a.diff_fraction(&b, 0.0), 0.0, "tile {tile:?}");
        }
    }

    /// The output cannot depend on where the bands are cut: unequal bands,
    /// one-row bands, a band over rows nothing reaches — pixels, depth
    /// bits and every counter equal the reference each time.
    #[test]
    fn any_band_partition_matches_reference() {
        let (tree, cam) = mixed_scene();
        let r = Renderer::default();
        let vp = Viewport::new(72, 56);
        let tile = Viewport::with_origin(8, 4, 60, 50);
        let mut reference = Framebuffer::new(tile.width, tile.height);
        let ref_stats = r.render_tile_reference(&tree, &cam, &vp, &tile, &mut reference);

        let (binned, _) = r.walk_and_bin(&tree, &cam, &vp, &tile);
        let partitions: [&[u32]; 6] =
            [&[], &[1], &[49], &[3, 4, 5, 30], &[10, 25, 26, 48], &[7, 14, 21, 28, 35, 42]];
        for cuts in partitions {
            let mut fb = Framebuffer::new(tile.width, tile.height);
            let stats = r.render_bands(&binned.cmds, &cam, &vp, &tile, &mut fb, cuts);
            assert_eq!(fb, reference, "pixels or depth differ with cuts {cuts:?}");
            assert_eq!(stats, ref_stats.raster, "stats differ with cuts {cuts:?}");
        }
    }

    /// A strip no content reaches runs no vertex stage and no triangle
    /// pass — the walk emits no command for it — and still books what the
    /// reference books; a strip some of the content reaches gets commands
    /// for that content only.
    #[test]
    fn content_off_the_tile_emits_no_command() {
        let (mut tree, cam) = mixed_scene();
        let root = tree.root();
        let avatar = AvatarInfo {
            label: "Desktop".into(),
            color: Vec3::new(1.0, 0.2, 0.1),
            camera: CameraParams::default(),
        };
        let av = tree.add_node(root, "avatar", NodeKind::Avatar(avatar)).unwrap();
        tree.set_transform(av, Transform::from_translation(Vec3::new(-0.4, 0.3, 0.0)));
        let r = Renderer::default();
        let vp = Viewport::new(320, 96);
        // The scene sits in the middle of a wide frame, the volume
        // reaching from there to the right edge.
        let strips = vp.split_tiles(8, 1);
        let mut emitted = Vec::new();
        for tile in &strips {
            let (binned, stats) = r.walk_and_bin(&tree, &cam, &vp, tile);
            emitted.push(binned.cmds.len());
            let mut fb = Framebuffer::new(tile.width, tile.height);
            let got = r.render_tile(&tree, &cam, &vp, tile, &mut fb);
            let mut reference = Framebuffer::new(tile.width, tile.height);
            let want = r.render_tile_reference(&tree, &cam, &vp, tile, &mut reference);
            assert_eq!(fb, reference, "pixels or depth of {tile:?}");
            assert_eq!(got, want, "stats of {tile:?}");
            // The walk counters are the whole frame's, tile or not.
            assert_eq!(stats.polygons_on_screen, want.polygons_on_screen);
            assert_eq!((stats.nodes_visited, stats.nodes_culled), (5, 0));
            if binned.cmds.is_empty() {
                assert_eq!(want.raster.triangles_submitted, want.raster.triangles_clipped_away);
                assert_eq!(want.raster.fragments_shaded, 0);
                assert_eq!(fb.coverage(r.background), 0);
            }
        }
        assert_eq!(emitted[..2], [0, 0], "nothing reaches the left quarter: {emitted:?}");
        assert_eq!(emitted[7], 1, "the volume alone reaches the right edge: {emitted:?}");
        let whole = r.walk_and_bin(&tree, &cam, &vp, &vp).0.cmds.len();
        assert_eq!(whole, 6, "triangle, three splats, volume, avatar");
        assert!(emitted.iter().all(|&n| n < whole), "no strip holds everything: {emitted:?}");
        assert!(emitted.iter().any(|&n| n > 0));
    }

    /// The in-place vertex stage split over several worker counts, chunk
    /// lengths that do not divide the vertex count included.
    #[test]
    fn vertex_stage_is_the_same_at_any_width() {
        let n = 4099usize;
        let positions: Vec<Vec3> = (0..n)
            .map(|i| {
                let t = i as f32 * 0.01;
                Vec3::new(t.sin(), t.cos(), (t * 0.37).sin())
            })
            .collect();
        let mut mesh = MeshData::new(positions, vec![]);
        mesh.normals = (0..n).map(|i| Vec3::new(0.0, (i % 3) as f32, 1.0)).collect();
        let r = Renderer::default();
        let vp = Viewport::new(64, 48);
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let model = Mat4::translation(Vec3::new(0.1, 0.0, 0.0));
        let mvp = cam.view_proj(&vp) * model;
        let bits = |verts: Vec<BinVertex>| -> Vec<[u32; 10]> {
            verts
                .iter()
                .map(|v| {
                    let (c, k, s) = (v.vertex.clip, v.vertex.color, v.screen);
                    [c.x, c.y, c.z, c.w, k.x, k.y, k.z, s.x, s.y, s.z].map(f32::to_bits)
                })
                .collect()
        };
        // A mesh this small is not worth a split: the caller alone.
        let serial = bits(r.vertex_stage(&vp, &mesh, &model, &mvp, Vec3::ONE));
        assert_eq!(serial.len(), n);
        for workers in [2usize, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
            let par = bits(
                pool.install(|| r.vertex_stage_on(workers, &vp, &mesh, &model, &mvp, Vec3::ONE)),
            );
            assert_eq!(par, serial, "{workers} workers");
        }
    }

    #[test]
    fn band_cuts_balance_the_row_load() {
        // No load: equal heights.
        assert_eq!(band_cuts(&[0; 12], 3), vec![4, 8]);
        assert_eq!(band_cuts(&[0; 12], 1), Vec::<u32>::new());
        // Load in the last quarter: the cut moves down into it.
        let mut rows = [0u32; 40];
        rows[30..].fill(50);
        let cuts = band_cuts(&rows, 2);
        assert_eq!(cuts.len(), 1);
        assert!((30..40).contains(&cuts[0]), "cut inside the loaded rows: {cuts:?}");
        // Everything on one row, more bands than rows, a single row: cuts
        // stay strictly increasing inside the tile.
        let mut spike = [0u32; 9];
        spike[4] = 1_000_000;
        for (rows, bands) in [(&spike[..], 4), (&[0u32; 3][..], 8), (&[7u32][..], 2)] {
            let cuts = band_cuts(rows, bands);
            assert!(cuts.len() < bands.min(rows.len()).max(1), "{cuts:?}");
            assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
            assert!(cuts.iter().all(|&c| c > 0 && (c as usize) < rows.len()), "{cuts:?}");
        }
    }
}
