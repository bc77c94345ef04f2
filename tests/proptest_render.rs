//! Property tests on the renderer and compositors: the pixel-exactness
//! guarantees both distribution schemes depend on.

use proptest::prelude::*;
use rave::math::{Quat, Vec3, Vec4, Viewport};
use rave::render::composite::{depth_composite, stitch_tiles};
use rave::render::raster::{
    raster_mesh_rows, rasterize_triangle, BinVertex, ClipVertex, RasterStats,
};
use rave::render::{Framebuffer, Renderer, Rgb};
use rave::scene::{
    AvatarInfo, CameraParams, MeshData, NodeKind, PointCloudData, SceneTree, Transform, VolumeData,
};
use std::sync::Arc;

/// A random small scene of colored triangles around the origin.
fn scene_strategy() -> impl Strategy<Value = SceneTree> {
    prop::collection::vec(
        (
            prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0, -2.0f32..2.0), 3),
            (0.1f32..1.0, 0.1f32..1.0, 0.1f32..1.0),
        ),
        1..6,
    )
    .prop_map(|tris| {
        let mut tree = SceneTree::new();
        let root = tree.root();
        for (i, (pts, color)) in tris.into_iter().enumerate() {
            let mut mesh = MeshData::new(
                pts.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect(),
                vec![[0, 1, 2]],
            );
            mesh.colors = vec![Vec3::new(color.0, color.1, color.2); 3];
            mesh.normals = vec![Vec3::Z; 3];
            tree.add_node(root, format!("t{i}"), NodeKind::Mesh(Arc::new(mesh))).unwrap();
        }
        tree
    })
}

fn camera_strategy() -> impl Strategy<Value = CameraParams> {
    (0.0f32..std::f32::consts::TAU, -0.8f32..0.8, 3.0f32..8.0).prop_map(|(yaw, pitch, dist)| {
        let eye = Vec3::new(
            dist * pitch.cos() * yaw.sin(),
            dist * pitch.sin(),
            dist * pitch.cos() * yaw.cos(),
        );
        CameraParams::look_at(eye, Vec3::ZERO, Vec3::Y)
    })
}

/// A mesh of small triangles scattered around the origin: `size` is the
/// triangles' world extent, from far below a pixel of the 48x36 test
/// frames (about 0.1 units) to a few pixels — the shapes a tessellated
/// model is made of, which the centre-sampled box mostly drops.
fn small_triangle_scene() -> impl Strategy<Value = SceneTree> {
    let offset = || (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0);
    let tri = (
        offset(),
        offset(),
        offset(),
        offset(),
        prop_oneof![Just(0.004f32), Just(0.06), Just(0.4)],
    );
    prop::collection::vec(tri, 1..40).prop_map(|tris| {
        let v = |(x, y, z): (f32, f32, f32)| Vec3::new(x, y, z);
        let mut positions = Vec::new();
        let mut triangles = Vec::new();
        for (base, a, b, c, size) in tris {
            let n = positions.len() as u32;
            positions.extend([a, b, c].map(|o| v(base) * 1.5 + v(o) * size));
            triangles.push([n, n + 1, n + 2]);
        }
        let count = positions.len();
        let mut mesh = MeshData::new(positions, triangles);
        mesh.colors = (0..count).map(|i| Vec3::new(0.2, (i % 7) as f32 / 7.0, 0.9)).collect();
        mesh.normals = vec![Vec3::Z; count];
        let mut tree = SceneTree::new();
        let root = tree.root();
        tree.add_node(root, "dust", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        tree
    })
}

/// One coordinate of a node's placement: mostly within reach of the
/// cameras of [`camera_strategy`] (3 to 8 units from the origin, so this
/// range holds content on the frame, beside it, around the eye and behind
/// it), now and then far away, huge or not a number.
fn placement_coord() -> impl Strategy<Value = f32> {
    let near = || -8.0f32..8.0;
    prop_oneof![
        near(),
        near(),
        near(),
        near(),
        near(),
        near(),
        -300.0f32..300.0,
        prop_oneof![
            Just(0.0f32),
            Just(1.0e6),
            Just(-1.0e20),
            Just(1.0e30),
            Just(f32::NAN),
            Just(f32::INFINITY)
        ],
    ]
}

/// A point of a node's local geometry, one coordinate in sixteen broken.
fn local_point() -> impl Strategy<Value = Vec3> {
    let coord = || {
        (-1.0f32..1.0, 0u32..48).prop_map(|(v, dice)| match dice {
            0 => f32::NAN,
            1 => f32::NEG_INFINITY,
            2 => 1.0e30,
            _ => v,
        })
    };
    (coord(), coord(), coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Content of every kind the walk emits commands for.
fn content_strategy() -> impl Strategy<Value = NodeKind> {
    let mesh = prop::collection::vec(local_point(), 3..10).prop_map(|positions| {
        let n = positions.len() as u32;
        let triangles = (0..n - 2).map(|i| [i, i + 1, i + 2]).collect();
        let mut mesh = MeshData::new(positions, triangles);
        mesh.colors = (0..n).map(|i| Vec3::new(0.9, i as f32 / n as f32, 0.3)).collect();
        NodeKind::Mesh(Arc::new(mesh))
    });
    let avatar = (0.1f32..1.0).prop_map(|shade| {
        NodeKind::Avatar(AvatarInfo {
            label: "Desktop".into(),
            color: Vec3::new(shade, 0.5, 1.0 - shade),
            camera: CameraParams::default(),
        })
    });
    let cloud = (
        prop::collection::vec(local_point(), 1..7),
        prop_oneof![Just(0.01f32), Just(0.1), Just(1.0), Just(40.0)],
    )
        .prop_map(|(points, point_size)| {
            let mut cloud = PointCloudData::new(points);
            cloud.point_size = point_size;
            NodeKind::PointCloud(Arc::new(cloud))
        });
    let volume = (2u32..6, 0.05f32..0.6).prop_map(|(n, spacing)| {
        let voxels = (0..n * n * n).map(|i| 90 + (i * 37 % 160) as u8).collect();
        NodeKind::Volume(Arc::new(VolumeData::new([n, n, n], Vec3::splat(spacing), voxels)))
    });
    prop_oneof![mesh, avatar, cloud, volume]
}

/// Several content nodes, each under the root or under the node before it
/// (so transforms compose), placed anywhere [`placement_coord`] reaches,
/// turned, and scaled — now and then by zero or by a lot.
fn placed_scene_strategy() -> impl Strategy<Value = SceneTree> {
    let scale = || {
        (0.2f32..3.0, 0u32..32).prop_map(|(v, dice)| match dice {
            0 => 0.0,
            1 => -1.0,
            2 => 1.0e4,
            3 => 1.0e-6,
            _ => v,
        })
    };
    let node = (
        content_strategy(),
        (placement_coord(), placement_coord(), placement_coord()),
        (-3.2f32..3.2, -1.0f32..1.0),
        (scale(), scale(), scale()),
        any::<bool>(),
    );
    prop::collection::vec(node, 1..6).prop_map(|nodes| {
        let mut tree = SceneTree::new();
        let mut parent = tree.root();
        for (i, (kind, at, (yaw, tilt), scale, nest)) in nodes.into_iter().enumerate() {
            let under = if nest { parent } else { tree.root() };
            let id = tree.add_node(under, format!("n{i}"), kind).unwrap();
            let rotation =
                Quat::from_axis_angle(Vec3::Y, yaw) * Quat::from_axis_angle(Vec3::X, tilt);
            let transform = Transform {
                translation: Vec3::new(at.0, at.1, at.2),
                rotation,
                scale: Vec3::new(scale.0, scale.1, scale.2),
            };
            tree.set_transform(id, transform);
            parent = id;
        }
        tree
    })
}

/// A tile grid over a 48x36 frame, from the whole frame to one-pixel
/// strips, and which of its tiles to render.
fn grid_strategy() -> impl Strategy<Value = ((u32, u32), usize)> {
    let grid = prop_oneof![
        Just((1u32, 1u32)),
        Just((2, 1)),
        Just((4, 1)),
        Just((1, 3)),
        Just((3, 2)),
        Just((5, 4)),
        Just((48, 1)),
        Just((1, 36)),
        Just((48, 36)),
    ];
    (grid, 0usize..48 * 36)
}

/// Frame the triangle-level properties draw into: a power-of-two size,
/// so a screen coordinate with a short mantissa (a pixel centre, a pixel
/// or tile edge) survives the trip through NDC exactly.
const FRAME: Viewport = Viewport { x: 0, y: 0, width: 64, height: 64 };

/// The whole frame, or a tile of it with all four edges inside.
fn tile_strategy() -> impl Strategy<Value = Viewport> {
    prop_oneof![Just(FRAME), Just(Viewport { x: 16, y: 8, width: 32, height: 40 })]
}

/// One screen coordinate, in pixels of [`FRAME`].
fn coord_strategy() -> impl Strategy<Value = f32> {
    prop_oneof![
        -8.0f32..72.0,
        -8.0f32..72.0,
        (0u32..64).prop_map(|k| k as f32 + 0.5),
        // Up to three ulps off a pixel centre or an integer, where the
        // centre-sampled box decides a column or row the other way.
        (0u32..65, any::<bool>(), -3i32..4).prop_map(|(k, centre, ulps)| {
            let on = k as f32 + if centre { 0.5 } else { 0.0 };
            (0..ulps.abs()).fold(on, |v, _| if ulps < 0 { v.next_down() } else { v.next_up() })
        }),
        prop_oneof![Just(0.0f32), Just(8.0), Just(16.0), Just(48.0), Just(64.0)],
        -1.0e6f32..1.0e6,
        prop_oneof![Just(f32::NAN), Just(f32::INFINITY), Just(f32::NEG_INFINITY), Just(1e35f32)],
    ]
}

/// Three screen-space corners `(x, y)`.
fn corners_strategy() -> impl Strategy<Value = [(f32, f32); 3]> {
    let point = || (coord_strategy(), coord_strategy());
    prop_oneof![
        // Anything goes.
        (point(), point(), point()).prop_map(|(a, b, c)| [a, b, c]),
        // Sub-pixel to a few pixels, anywhere on the frame.
        (
            (0.0f32..64.0, 0.0f32..64.0),
            prop::collection::vec((-1.0f32..1.0, -1.0f32..1.0), 3),
            prop_oneof![Just(0.3f32), Just(0.9), Just(2.5)]
        )
            .prop_map(|((x, y), o, size)| {
                [0, 1, 2].map(|i| (x + o[i].0 * size, y + o[i].1 * size))
            }),
        // Area around the 1e-9 degeneracy threshold: only next to the
        // origin is f32 fine enough to hold such a triangle.
        prop::collection::vec((-4.0e-5f32..4.0e-5, -4.0e-5f32..4.0e-5), 3)
            .prop_map(|o| [0, 1, 2].map(|i| (0.5 + o[i].0, 0.5 + o[i].1))),
        // A long sliver: the third corner an ulp or so off the long edge.
        (point(), point(), 0.0f32..1.0, -3i32..4).prop_map(|(a, b, t, ulps)| {
            let on_edge = a.1 + (b.1 - a.1) * t;
            let nudged = f32::from_bits((on_edge.to_bits() as i32 + ulps) as u32);
            [a, b, (a.0 + (b.0 - a.0) * t, nudged)]
        }),
    ]
}

/// A clip-space triangle whose corners project to `corners_strategy`
/// pixels of [`FRAME`] — mostly at `w = 1`, so the chosen pixel
/// coordinates are the projected ones; now and then a corner sits on or
/// behind the near guard and the triangle takes the clip path.
fn clip_triangle_strategy() -> impl Strategy<Value = [ClipVertex; 3]> {
    let w = || {
        prop_oneof![
            Just(1.0f32),
            Just(1.0),
            Just(1.0),
            Just(1.0),
            Just(2.0e-5),
            Just(-0.5),
            0.1f32..3.0
        ]
    };
    let z = || prop_oneof![-1.5f32..1.5, -1.5f32..1.5, -1.5f32..1.5, Just(f32::NAN)];
    (corners_strategy(), (w(), w(), w()), (z(), z(), z()), (0.0f32..1.0, 0.0f32..1.0)).prop_map(
        |(corners, w, z, (r, g))| {
            let (w, z) = ([w.0, w.1, w.2], [z.0, z.1, z.2]);
            [0, 1, 2].map(|i| {
                let (x, y) = corners[i];
                let ndc_x = x / FRAME.width as f32 * 2.0 - 1.0;
                let ndc_y = 1.0 - y / FRAME.height as f32 * 2.0;
                ClipVertex {
                    clip: Vec4::new(ndc_x * w[i], ndc_y * w[i], z[i] * w[i], w[i]),
                    color: Vec3::new(r, g, i as f32 / 2.0),
                }
            })
        },
    )
}

/// Band cuts for a tile `height` rows tall: any strictly increasing set
/// of interior rows, none to many.
fn cuts_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..32, 0..9).prop_map(|mut cuts| {
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    })
}

fn depth_bits(fb: &Framebuffer) -> Vec<u32> {
    fb.depth_pixels().iter().map(|z| z.to_bits()).collect()
}

/// The reference engine on clip-space triangles: `rasterize_triangle`
/// scans each floor/ceil box whole.
fn draw_reference(tile: &Viewport, tris: &[[ClipVertex; 3]]) -> (Framebuffer, RasterStats) {
    let mut fb = Framebuffer::new(tile.width, tile.height);
    let mut stats = RasterStats::default();
    for t in tris {
        rasterize_triangle(&mut fb, &FRAME, tile, t[0], t[1], t[2], &mut stats);
    }
    (fb, stats)
}

/// The triangles as one indexed mesh after the vertex stage.
fn staged_mesh(tris: &[[ClipVertex; 3]]) -> (Vec<BinVertex>, Vec<[u32; 3]>) {
    let verts = tris.iter().flatten().map(|v| BinVertex::new(&FRAME, *v)).collect();
    let index = (0..tris.len() as u32).map(|i| [3 * i, 3 * i + 1, 3 * i + 2]).collect();
    (verts, index)
}

/// The binned engine on the same triangles: one `raster_mesh_rows` pass
/// per band of whatever partition `bands` makes.
fn draw_banded(
    tile: &Viewport,
    tris: &[[ClipVertex; 3]],
    bands: impl FnOnce(&mut Framebuffer) -> Vec<rave::render::framebuffer::FramebufferBand<'_>>,
) -> (Framebuffer, RasterStats) {
    let (verts, index) = staged_mesh(tris);
    let mut fb = Framebuffer::new(tile.width, tile.height);
    let mut stats = RasterStats::default();
    for mut band in bands(&mut fb) {
        raster_mesh_rows(&mut band, &FRAME, tile, &verts, &index, &mut stats);
    }
    (fb, stats)
}

/// Triangle lists with depth contests in them: some triangles are
/// followed by a copy in other colours at the same depth (every pixel a
/// tie, which a strict compare gives to the first), farther (loses) or
/// nearer (wins).
fn contested_triangles_strategy() -> impl Strategy<Value = Vec<[ClipVertex; 3]>> {
    let rematch = prop_oneof![Just(None), Just(Some(0.0f32)), Just(Some(0.25)), Just(Some(-0.25))];
    prop::collection::vec((clip_triangle_strategy(), rematch), 1..8).prop_map(|list| {
        let mut tris = Vec::new();
        for (tri, rematch) in list {
            tris.push(tri);
            if let Some(dz) = rematch {
                tris.push(tri.map(|v| {
                    let clip = Vec4::new(v.clip.x, v.clip.y, v.clip.z + dz * v.clip.w, v.clip.w);
                    ClipVertex { clip, color: Vec3::new(v.color.z, 1.0 - v.color.x, v.color.y) }
                }));
            }
        }
        tris
    })
}

/// What `raster`'s module doc says is drawn, written out pixel by pixel
/// with no code from that module: near clip, projection, fan, the
/// degeneracy and floor/ceil-box tests, then the kernel's six steps on
/// every pixel of the box — the colour computed before the depth compare.
/// Returns the colour plane, the depth plane's bits and the counters.
fn draw_written_out(
    tile: &Viewport,
    tris: &[[ClipVertex; 3]],
) -> (Vec<Rgb>, Vec<u32>, RasterStats) {
    const W_EPS: f32 = 1e-5;
    let (w, h) = (tile.width as usize, tile.height as usize);
    let mut color = vec![Rgb(0, 0, 0); w * h];
    let mut depth = vec![1.0f32; w * h];
    let mut stats = RasterStats::default();
    let cross = |ux: f32, uy: f32, vx: f32, vy: f32| ux * vy - uy * vx;
    for tri in tris {
        stats.triangles_submitted += 1;
        let mut poly: Vec<(Vec4, Vec3)> = Vec::new();
        for i in 0..3 {
            let (cur, next) = (tri[i], tri[(i + 1) % 3]);
            let (cin, nin) = (cur.clip.w >= W_EPS, next.clip.w >= W_EPS);
            if cin {
                poly.push((cur.clip, cur.color));
            }
            if cin != nin {
                let t = (W_EPS - cur.clip.w) / (next.clip.w - cur.clip.w);
                let mix = |a: f32, b: f32| a + (b - a) * t;
                let (p, q, c, d) = (cur.clip, next.clip, cur.color, next.color);
                poly.push((
                    Vec4::new(mix(p.x, q.x), mix(p.y, q.y), mix(p.z, q.z), mix(p.w, q.w)),
                    Vec3::new(mix(c.x, d.x), mix(c.y, d.y), mix(c.z, d.z)),
                ));
            }
        }
        if poly.len() < 3 {
            stats.triangles_clipped_away += 1;
            continue;
        }
        let screen: Vec<(Vec3, Vec3)> = poly
            .iter()
            .map(|&(clip, col)| {
                let inv = 1.0 / clip.w;
                let ndc = Vec3::new(clip.x * inv, clip.y * inv, clip.z * inv);
                (FRAME.ndc_to_pixel(ndc), col)
            })
            .collect();
        for k in 1..screen.len() - 1 {
            let ((a, ca), (b, cb), (c, cc)) = (screen[0], screen[k], screen[k + 1]);
            let area = cross(b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y);
            if area.abs() < 1e-9 || !area.is_finite() {
                stats.triangles_clipped_away += 1;
                continue;
            }
            let min_x = (a.x.min(b.x).min(c.x).floor() as i64).max(tile.x as i64);
            let max_x = (a.x.max(b.x).max(c.x).ceil() as i64).min((tile.x + tile.width) as i64 - 1);
            let min_y = (a.y.min(b.y).min(c.y).floor() as i64).max(tile.y as i64);
            let max_y =
                (a.y.max(b.y).max(c.y).ceil() as i64).min((tile.y + tile.height) as i64 - 1);
            if min_x > max_x || min_y > max_y {
                stats.triangles_clipped_away += 1;
                continue;
            }
            stats.triangles_rasterized += 1;
            let inv_area = 1.0 / area;
            for py in min_y..=max_y {
                for px in min_x..=max_x {
                    let (x, y) = (px as f32 + 0.5, py as f32 + 0.5);
                    let w0 = cross(b.x - x, b.y - y, c.x - x, c.y - y) * inv_area;
                    let w1 = cross(c.x - x, c.y - y, a.x - x, a.y - y) * inv_area;
                    let w2 = 1.0 - w0 - w1;
                    if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                        continue;
                    }
                    stats.fragments_shaded += 1;
                    let z = w0 * a.z + w1 * b.z + w2 * c.z;
                    if !(-1.0..=1.0).contains(&z) {
                        continue;
                    }
                    let channel = |ca: f32, cb: f32, cc: f32| {
                        let v = ca * w0 + cb * w1 + cc * w2;
                        (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u8
                    };
                    let rgb = Rgb(
                        channel(ca.x, cb.x, cc.x),
                        channel(ca.y, cb.y, cc.y),
                        channel(ca.z, cb.z, cc.z),
                    );
                    let i = (py as usize - tile.y as usize) * w + (px as usize - tile.x as usize);
                    if z < depth[i] {
                        color[i] = rgb;
                        depth[i] = z;
                        stats.fragments_written += 1;
                    }
                }
            }
        }
    }
    (color, depth.iter().map(|z| z.to_bits()).collect(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// THE framebuffer-distribution invariant: for any scene, camera and
    /// tile grid, rendering tiles separately and stitching is bit-exact
    /// equal to rendering the whole image ("the framebuffer aligns
    /// exactly").
    #[test]
    fn tiling_is_pixel_exact(
        tree in scene_strategy(),
        cam in camera_strategy(),
        cols in 1u32..4,
        rows in 1u32..4,
    ) {
        let r = Renderer::default();
        let vp = Viewport::new(48, 36);
        let mut full = Framebuffer::new(vp.width, vp.height);
        r.render(&tree, &cam, &mut full);

        let mut stitched = Framebuffer::new(vp.width, vp.height);
        let tiles: Vec<(Viewport, Framebuffer)> = vp
            .split_tiles(cols, rows)
            .into_iter()
            .map(|tile| {
                let mut fb = Framebuffer::new(tile.width, tile.height);
                r.render_tile(&tree, &cam, &vp, &tile, &mut fb);
                (tile, fb)
            })
            .collect();
        let refs: Vec<(Viewport, &Framebuffer)> =
            tiles.iter().map(|(v, f)| (*v, f)).collect();
        stitch_tiles(&mut stitched, &refs);
        prop_assert_eq!(full.diff_fraction(&stitched, 0.0), 0.0);
    }

    /// THE dataset-distribution invariant: splitting a scene's nodes
    /// across two renderers and depth-compositing their full-viewport
    /// buffers equals rendering everything on one machine (opaque
    /// content, any order).
    #[test]
    fn depth_compositing_is_pixel_exact(
        tree in scene_strategy(),
        cam in camera_strategy(),
        order in any::<bool>(),
    ) {
        let r = Renderer::default();
        let vp = Viewport::new(48, 36);
        let mut reference = Framebuffer::new(vp.width, vp.height);
        r.render(&tree, &cam, &mut reference);

        // Partition content nodes into two halves by index.
        let root = tree.root();
        let content: Vec<_> = tree.node(root).unwrap().children().collect();
        let (half_a, half_b): (Vec<_>, Vec<_>) =
            content.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let subset = |ids: Vec<(usize, &rave::scene::NodeId)>| {
            let roots: Vec<rave::scene::NodeId> = ids.into_iter().map(|(_, id)| *id).collect();
            let mut replica = SceneTree::new();
            replica.adopt_parcel(&tree.extract_parcel(&roots));
            replica
        };
        let scene_a = subset(half_a);
        let scene_b = subset(half_b);

        let mut fb_a = Framebuffer::new(vp.width, vp.height);
        r.render(&scene_a, &cam, &mut fb_a);
        let mut fb_b = Framebuffer::new(vp.width, vp.height);
        r.render(&scene_b, &cam, &mut fb_b);

        // Composite over a background-cleared target; sources in either
        // order.
        let mut composed = Framebuffer::new(vp.width, vp.height);
        composed.clear(r.background);
        if order {
            depth_composite(&mut composed, &[&fb_a, &fb_b]);
        } else {
            depth_composite(&mut composed, &[&fb_b, &fb_a]);
        }
        prop_assert_eq!(reference.diff_fraction(&composed, 0.0), 0.0);
    }

    /// Rendering is deterministic: the same scene and camera give
    /// bit-identical images across runs.
    #[test]
    fn rendering_deterministic(tree in scene_strategy(), cam in camera_strategy()) {
        let r = Renderer::default();
        let mut a = Framebuffer::new(40, 40);
        let mut b = Framebuffer::new(40, 40);
        r.render(&tree, &cam, &mut a);
        r.render(&tree, &cam, &mut b);
        prop_assert_eq!(a.diff_fraction(&b, 0.0), 0.0);
    }

    /// THE parallel-engine invariant: the binned rayon renderer produces
    /// the same image as the serial immediate-mode reference — bit for
    /// bit, color and depth, and all five raster counters — at every
    /// thread count from 1 to 8.
    #[test]
    fn parallel_render_bit_identical_to_serial(
        tree in prop_oneof![scene_strategy(), small_triangle_scene()],
        cam in camera_strategy(),
        tile in prop_oneof![
            Just(Viewport::new(48, 36)),
            Just(Viewport::with_origin(12, 6, 30, 25)),
        ],
    ) {
        let r = Renderer::default();
        let vp = Viewport::new(48, 36);
        let mut reference = Framebuffer::new(tile.width, tile.height);
        let ref_stats = r.render_tile_reference(&tree, &cam, &vp, &tile, &mut reference);

        for threads in 1usize..=8 {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut fb = Framebuffer::new(tile.width, tile.height);
            let stats = pool.install(|| r.render_tile(&tree, &cam, &vp, &tile, &mut fb));
            prop_assert_eq!(
                reference.color_pixels(), fb.color_pixels(),
                "color differs at {} threads", threads
            );
            prop_assert_eq!(
                depth_bits(&reference), depth_bits(&fb),
                "depth differs at {} threads", threads
            );
            prop_assert_eq!(ref_stats.raster, stats.raster, "counters differ at {} threads", threads);
        }
    }

    /// A band over rows where nothing lands is legal and books nothing:
    /// all triangles in the top rows, cuts below them.
    #[test]
    fn band_without_triangles_books_nothing(
        offsets in prop::collection::vec((0.0f32..64.0, 0.0f32..6.0), 3..30),
    ) {
        let tris: Vec<[ClipVertex; 3]> = offsets
            .chunks_exact(3)
            .map(|c| {
                [0, 1, 2].map(|i| ClipVertex {
                    clip: Vec4::new(c[i].0 / 32.0 - 1.0, 1.0 - c[i].1 / 32.0, 0.0, 1.0),
                    color: Vec3::ONE,
                })
            })
            .collect();
        let (reference, ref_stats) = draw_reference(&FRAME, &tris);
        let (fb, stats) = draw_banded(&FRAME, &tris, |fb| fb.row_bands_at(&[7, 20, 40]));
        prop_assert_eq!(&reference, &fb);
        prop_assert_eq!(ref_stats, stats);
        // And the bands below row 7 on their own: nothing at all.
        let mut lower = Framebuffer::new(64, 64);
        let mut lower_stats = RasterStats::default();
        let (verts, index) = staged_mesh(&tris);
        for band in lower.row_bands_at(&[7, 20, 40]).iter_mut().skip(1) {
            raster_mesh_rows(band, &FRAME, &FRAME, &verts, &index, &mut lower_stats);
        }
        prop_assert_eq!(lower_stats, RasterStats::default());
    }

    /// Depth buffer correctness under arbitrary draw order: rendering a
    /// scene with nodes in reversed child order gives the same image.
    #[test]
    fn draw_order_independent(tree in scene_strategy(), cam in camera_strategy()) {
        let r = Renderer::default();
        let mut forward = Framebuffer::new(40, 40);
        r.render(&tree, &cam, &mut forward);

        let mut reversed_tree = tree.clone();
        let root = reversed_tree.root();
        // Reverse the root's child order via reparent's move-to-last:
        // moving each child to the back in reverse original order leaves
        // the sibling list exactly reversed.
        let kids: Vec<_> = reversed_tree.node(root).unwrap().children().collect();
        for c in kids.into_iter().rev() {
            reversed_tree.reparent(c, root).unwrap();
        }
        let mut reversed = Framebuffer::new(40, 40);
        r.render(&reversed_tree, &cam, &mut reversed);
        // Opaque z-buffered content: order cannot matter except for exact
        // depth ties, which our random triangles avoid almost surely.
        prop_assert!(forward.diff_fraction(&reversed, 1.5) < 0.002);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The narrowing, triangle by triangle: whatever the corners — on
    /// pixel centres, on tile edges, a fraction of a pixel apart, an ulp
    /// off a line, a million pixels away, NaN, infinite, behind the eye —
    /// the binned engine's centre-sampled boxes and spans leave the same
    /// pixels, depth bits and counters as the reference's scan of every
    /// floor/ceil box, at one to eight equal bands.
    #[test]
    fn binned_triangles_match_reference_scan(
        tris in prop::collection::vec(clip_triangle_strategy(), 1..12),
        tile in tile_strategy(),
    ) {
        let (reference, ref_stats) = draw_reference(&tile, &tris);
        for bands in 1u32..=8 {
            let (fb, stats) = draw_banded(&tile, &tris, |fb| fb.row_bands(bands));
            prop_assert_eq!(reference.color_pixels(), fb.color_pixels(), "color, {} bands", bands);
            prop_assert_eq!(depth_bits(&reference), depth_bits(&fb), "depth, {} bands", bands);
            prop_assert_eq!(ref_stats, stats, "counters, {} bands", bands);
        }
    }

    /// Band-partition invariance: any cuts at all — unequal, one row
    /// tall, over rows no triangle reaches — give the reference's output,
    /// and each triangle's setup counters are booked exactly once.
    #[test]
    fn any_band_cuts_match_reference_scan(
        tris in prop::collection::vec(clip_triangle_strategy(), 1..12),
        tile in tile_strategy(),
        cuts in cuts_strategy(),
    ) {
        let (reference, ref_stats) = draw_reference(&tile, &tris);
        let (fb, stats) = draw_banded(&tile, &tris, |fb| fb.row_bands_at(&cuts));
        prop_assert_eq!(reference.color_pixels(), fb.color_pixels(), "color, cuts {:?}", &cuts);
        prop_assert_eq!(depth_bits(&reference), depth_bits(&fb), "depth, cuts {:?}", &cuts);
        prop_assert_eq!(ref_stats, stats, "counters, cuts {:?}", &cuts);
    }

    /// The kernel against a reference that shares no code with it: both
    /// engines funnel every pixel through one kernel, so the properties
    /// above cannot see an error in it. `draw_written_out` is the module
    /// doc's six steps and nothing else; the immediate-mode scan and the
    /// binned engine, at any band cuts, leave its pixels, its depth bits
    /// and its five counters — on lists where a later triangle ties, loses
    /// or wins in depth at every pixel of an earlier one.
    #[test]
    fn both_engines_match_the_written_out_kernel(
        tris in contested_triangles_strategy(),
        tile in tile_strategy(),
        cuts in cuts_strategy(),
    ) {
        let (color, depth, stats) = draw_written_out(&tile, &tris);
        let (reference, ref_stats) = draw_reference(&tile, &tris);
        prop_assert_eq!(&color[..], reference.color_pixels(), "color, reference scan");
        prop_assert_eq!(&depth, &depth_bits(&reference), "depth, reference scan");
        prop_assert_eq!(stats, ref_stats, "counters, reference scan");
        let (fb, band_stats) = draw_banded(&tile, &tris, |fb| fb.row_bands_at(&cuts));
        prop_assert_eq!(&color[..], fb.color_pixels(), "color, cuts {:?}", &cuts);
        prop_assert_eq!(&depth, &depth_bits(&fb), "depth, cuts {:?}", &cuts);
        prop_assert_eq!(stats, band_stats, "counters, cuts {:?}", &cuts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tile cull, node by node: meshes, avatars, point clouds and
    /// volumes on the tile, beside it, far from it, around the eye, behind
    /// it, at huge and at non-finite coordinates — whatever the tile, down
    /// to a single pixel, the binned engine (which skips the nodes it can
    /// show never reach the tile) leaves the pixels, the depth bits and
    /// every field of `RenderStats` of the reference (which culls nothing
    /// by tile), at 1, 2 and 3 threads.
    #[test]
    fn tile_culled_render_matches_reference(
        tree in placed_scene_strategy(),
        cam in camera_strategy(),
        ((cols, rows), pick) in grid_strategy(),
    ) {
        let r = Renderer::default();
        let vp = Viewport::new(48, 36);
        let tiles = vp.split_tiles(cols, rows);
        let tile = tiles[pick % tiles.len()];
        let mut reference = Framebuffer::new(tile.width, tile.height);
        let ref_stats = r.render_tile_reference(&tree, &cam, &vp, &tile, &mut reference);

        for threads in 1usize..=3 {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut fb = Framebuffer::new(tile.width, tile.height);
            let stats = pool.install(|| r.render_tile(&tree, &cam, &vp, &tile, &mut fb));
            prop_assert_eq!(
                reference.color_pixels(), fb.color_pixels(),
                "color of {:?} at {} threads", tile, threads
            );
            prop_assert_eq!(
                depth_bits(&reference), depth_bits(&fb),
                "depth of {:?} at {} threads", tile, threads
            );
            prop_assert_eq!(ref_stats, stats, "stats of {:?} at {} threads", tile, threads);
        }
    }
}
