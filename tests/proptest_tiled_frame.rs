//! Property test on the owner's side of framebuffer distribution,
//! `tiles::render_tiled_frame`: the owner keeps the stitched image between
//! frames and copies into it only the tiles that were redrawn, and the
//! image it hands out shares that image's copy-on-write planes. Whatever
//! moved, was edited, stalled, was planned otherwise or was kept by the
//! caller in between — every frame's image is a fresh target with the
//! frame's tiles stitched into it, colour and depth bit for bit, and an
//! image handed out earlier still is what it was then.
//!
//! The same, with the helpers' tiles returned through the adaptive
//! compressed stream: each helper's stream, which sends a tile it already
//! holds as a header, counts and picks exactly what a stream fed every
//! tile's `to_rgb_bytes` in full does.

use proptest::prelude::*;
use rave::compress::adaptive::{CodecSelector, EndpointSpeed};
use rave::compress::{stream, Codec};
use rave::core::config::CompressionMode;
use rave::core::frame_stream::StreamStats;
use rave::core::tiles::{plan_tiles, render_tiled_frame, TilePlan};
use rave::core::world::RaveWorld;
use rave::core::{ClientId, RaveConfig, RaveSim, RenderServiceId};
use rave::math::{Vec3, Viewport};
use rave::render::composite::stitch_tiles;
use rave::render::{Framebuffer, OffscreenMode, Rgb};
use rave::scene::{CameraParams, MeshData, NodeId, NodeKind, Transform};
use rave::sim::Simulation;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const CLIENT: ClientId = ClientId(1);
const MOVED: NodeId = NodeId(1);
const SIZES: [Viewport; 2] = [
    Viewport { x: 0, y: 0, width: 48, height: 36 },
    Viewport { x: 0, y: 0, width: 40, height: 30 },
];

fn base_camera() -> CameraParams {
    CameraParams::look_at(Vec3::new(0.3, 0.2, 5.0), Vec3::ZERO, Vec3::Y)
}

fn triangle(at: Vec3, size: f32, shade: f32) -> NodeKind {
    let mut mesh = MeshData::new(
        vec![at, at + Vec3::new(size, 0.0, 0.0), at + Vec3::new(0.0, size, 0.3)],
        vec![[0, 1, 2]],
    );
    mesh.colors = vec![Vec3::new(shade, 0.5, 1.0 - shade); 3];
    NodeKind::Mesh(Arc::new(mesh))
}

/// One thing that can happen between two tiled frames of a session.
#[derive(Debug, Clone)]
enum Step {
    /// Ask for a frame: which helpers do not answer (a bit each), and
    /// whether the caller still holds the previous frame's image.
    Frame {
        stalled: usize,
        keep_previous: bool,
    },
    /// 0: the pose sent before; 1: orbit; 2: back to the start; 3: a
    /// position that is not a number.
    Camera(usize),
    /// Move a node on one replica (0–3: owner, helpers) or on all (4).
    Edit(usize, f32),
    Plan(usize),
    Size(usize),
    /// The owner draws the whole frame itself between two tiled ones.
    Monolithic,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let frame = || {
        (0usize..8, any::<bool>())
            .prop_map(|(stalled, keep_previous)| Step::Frame { stalled, keep_previous })
    };
    let unstalled =
        || any::<bool>().prop_map(|keep_previous| Step::Frame { stalled: 0, keep_previous });
    prop_oneof![
        frame(),
        frame(),
        unstalled(),
        unstalled(),
        unstalled(),
        (0usize..4).prop_map(Step::Camera),
        (0usize..3).prop_map(Step::Camera),
        (0usize..5, -1.0f32..1.0).prop_map(|(which, by)| Step::Edit(which, by)),
        (0usize..6).prop_map(Step::Plan),
        (0usize..2).prop_map(Step::Size),
        Just(Step::Monolithic),
    ]
}

fn depth_bits(fb: &Framebuffer) -> Vec<u32> {
    fb.depth_pixels().iter().map(|d| d.to_bits()).collect()
}

fn planes(fb: &Framebuffer) -> (*const Rgb, *const f32) {
    (fb.color_pixels().as_ptr(), fb.depth_pixels().as_ptr())
}

/// A helper's tile stream rebuilt from the public codec calls: every tile
/// it returned converted with `to_rgb_bytes` and sent in full.
struct ReferenceStream {
    selector: CodecSelector,
    last_raw: Option<Vec<u8>>,
    prev_view: Option<Vec<u8>>,
    last_codec: Option<Codec>,
    stats: StreamStats,
}

impl ReferenceStream {
    fn new(world: &RaveWorld) -> Self {
        let cfg = &world.config;
        Self {
            selector: CodecSelector::new(cfg.codec_ewma_alpha, cfg.codec_reprobe_every),
            last_raw: None,
            prev_view: None,
            last_codec: None,
            stats: StreamStats::default(),
        }
    }

    /// One lossless tile return from `from` to `to`.
    fn send(&mut self, world: &RaveWorld, from: &str, to: &str, rgb: Vec<u8>) {
        let link = world.network.link_between(from, to);
        let ws = EndpointSpeed::workstation();
        let prev_view = self.prev_view.as_deref();
        let codec = self.selector.choose(&rgb, prev_view, link, ws, ws, false).codec;
        let strips = stream::strip_count_for(rgb.len(), world.config.frame_strip_bytes);
        let (container, meta) = stream::encode_frame_with_meta(
            codec,
            &rgb,
            self.last_raw.as_deref(),
            prev_view,
            strips,
        );
        self.prev_view = stream::decode_frame(&container, prev_view);
        self.selector.observe(codec, rgb.len() as u64, container.len() as u64);
        let s = &mut self.stats;
        s.frames += 1;
        s.logical_bytes += rgb.len() as u64;
        s.encoded_bytes += container.len() as u64;
        s.codec_switches += u64::from(self.last_codec.is_some_and(|c| c != codec));
        s.strips_total += u64::from(meta.strips);
        s.strips_skipped += u64::from(meta.skipped);
        self.last_codec = Some(codec);
        self.last_raw = Some(rgb);
    }
}

/// Everything a stream counts but `resent`, which a full send never is.
fn books(s: &StreamStats) -> (u64, u64, u64, u64, u64, u64) {
    (s.frames, s.logical_bytes, s.encoded_bytes, s.codec_switches, s.strips_total, s.strips_skipped)
}

struct Harness {
    sim: RaveSim,
    /// Per helper, the reference of its tile stream (adaptive mode only).
    references: BTreeMap<RenderServiceId, ReferenceStream>,
    /// The owner, then the three helpers.
    services: [RenderServiceId; 4],
    camera: CameraParams,
    plan: usize,
    size: usize,
    /// The last frame's plan and size, and the planes of its image.
    last: Option<(usize, usize, (*const Rgb, *const f32))>,
    /// The last frame's image, until the caller lets go of it.
    previous: Option<Framebuffer>,
    /// Images the caller held on to, with the pixels and depth bits each
    /// had when it was handed out.
    kept: Vec<(Framebuffer, Vec<Rgb>, Vec<u32>)>,
}

impl Harness {
    fn new(frame_compression: CompressionMode) -> Self {
        let cfg = RaveConfig { produce_images: true, frame_compression, ..RaveConfig::default() };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(cfg, 11));
        let services =
            ["laptop", "tower", "desktop", "onyx"].map(|host| sim.world.spawn_render_service(host));
        for rs in services {
            let scene = &mut sim.world.render_mut(rs).scene;
            let root = scene.root();
            // Something in every strip and every quadrant.
            let content = [
                triangle(Vec3::new(-2.2, -1.2, 0.0), 1.6, 0.9),
                triangle(Vec3::new(-0.6, -0.4, 0.4), 1.4, 0.6),
                triangle(Vec3::new(0.9, 0.2, -0.3), 1.5, 0.3),
                triangle(Vec3::new(-1.8, 0.6, 0.2), 3.4, 0.1),
            ];
            for (i, kind) in content.into_iter().enumerate() {
                scene.insert_with_id(NodeId(1 + i as u64), root, "tri", kind).unwrap();
            }
        }
        sim.world.render_mut(services[0]).open_session(
            CLIENT,
            SIZES[0],
            base_camera(),
            OffscreenMode::Sequential,
        );
        Self {
            sim,
            references: BTreeMap::new(),
            services,
            camera: base_camera(),
            plan: 0,
            size: 0,
            last: None,
            previous: None,
            kept: Vec::new(),
        }
    }

    /// Three strips, the same three with another helper on the last, a
    /// 2×2 grid, the planner's own four strips, two strips, and two strips
    /// with a gap nobody renders between them.
    fn tile_plan(&self) -> TilePlan {
        let full = SIZES[self.size];
        let [owner, h1, h2, h3] = self.services;
        let assign = |cells: Vec<Viewport>, to: &[RenderServiceId]| TilePlan {
            tiles: cells.into_iter().zip(to.iter().copied()).collect(),
        };
        match self.plan {
            0 => assign(full.split_tiles(3, 1), &[owner, h1, h2]),
            1 => assign(full.split_tiles(3, 1), &[owner, h1, h3]),
            2 => assign(full.split_tiles(2, 2), &[owner, h1, h2, h3]),
            3 => {
                let cfg = self.sim.world.config.clone();
                let reports = [h1, h2, h3].map(|h| self.sim.world.render(h).capacity_report(&cfg));
                plan_tiles(&full, owner, &reports)
            }
            4 => assign(full.split_tiles(2, 1), &[owner, h3]),
            _ => {
                let mut cells = full.split_tiles(3, 1);
                cells.remove(1);
                assign(cells, &[owner, h2])
            }
        }
    }

    fn frames_drawn(&self) -> u64 {
        let drawn = |rs: &RenderServiceId| {
            self.sim.world.render(*rs).sessions.get(&CLIENT).map_or(0, |s| s.frames_drawn)
        };
        self.services.iter().map(drawn).sum()
    }

    fn apply(&mut self, step: &Step) -> Result<(), TestCaseError> {
        match step {
            Step::Frame { stalled, keep_previous } => return self.frame(*stalled, *keep_previous),
            Step::Camera(how) => match how {
                0 => {}
                1 => self.camera.orbit(Vec3::ZERO, 0.2, 0.05),
                2 => self.camera = base_camera(),
                _ => self.camera.position.x = f32::NAN,
            },
            Step::Edit(which, by) => {
                let moved = Transform::from_translation(Vec3::new(*by, -0.4 * by, 0.2));
                for (i, rs) in self.services.into_iter().enumerate() {
                    if *which == i || *which == 4 {
                        assert!(self.sim.world.render_mut(rs).scene.set_transform(MOVED, moved));
                    }
                }
            }
            Step::Plan(pick) => self.plan = *pick,
            Step::Size(pick) => {
                self.size = *pick;
                let owner = self.sim.world.render_mut(self.services[0]);
                owner.sessions.get_mut(&CLIENT).unwrap().viewport = SIZES[*pick];
            }
            Step::Monolithic => {
                self.sim.world.render_mut(self.services[0]).rasterize(CLIENT).unwrap();
            }
        }
        Ok(())
    }

    fn frame(&mut self, stall_bits: usize, keep_previous: bool) -> Result<(), TestCaseError> {
        let (full, camera, owner) = (SIZES[self.size], self.camera, self.services[0]);
        let plan = self.tile_plan();
        let stalled: BTreeSet<RenderServiceId> = (0..3)
            .filter(|bit| stall_bits >> bit & 1 == 1)
            .map(|bit| self.services[1 + bit])
            .collect();

        // A stalled helper's tile is the one it delivered; one that never
        // delivered this tile is rendered for, with the camera it last
        // heard of. Known before the frame, outside the code under test.
        let aside: Vec<Option<Framebuffer>> = plan
            .tiles
            .iter()
            .map(|(tile, svc)| {
                if !stalled.contains(svc) {
                    return None;
                }
                let helper = self.sim.world.render(*svc);
                let session = helper.sessions.get(&CLIENT);
                let delivered = session.is_some_and(|s| {
                    let size = s.last_frame.as_ref().map(|fb| (fb.width(), fb.height()));
                    s.viewport == *tile && size == Some((tile.width, tile.height))
                });
                let stale_camera = session.map_or(camera, |s| s.camera);
                (!delivered).then(|| helper.rasterize_tile_with_stats(&stale_camera, &full, tile).0)
            })
            .collect();
        let drawn_before = self.frames_drawn();

        // The caller keeps the previous image across the call, or lets go
        // of it first.
        if let Some(previous) = self.previous.take().filter(|_| keep_previous) {
            let was = (previous.color_pixels().to_vec(), depth_bits(&previous));
            self.kept.push((previous, was.0, was.1));
        }
        let result = render_tiled_frame(&mut self.sim, owner, CLIENT, &plan, camera, &stalled);
        prop_assert_eq!(result.used_stale_tile, plan.tiles.iter().any(|t| stalled.contains(&t.1)));
        let image = result.image.expect("the world renders images");

        // The frame's tiles, stitched into a fresh target.
        let mut fresh = Framebuffer::new(full.width, full.height);
        let sources: Vec<(Viewport, &Framebuffer)> = plan
            .tiles
            .iter()
            .zip(&aside)
            .map(|((tile, svc), aside)| {
                let retained = || self.sim.world.render(*svc).sessions[&CLIENT].last_frame.as_ref();
                (*tile, aside.as_ref().or_else(retained).expect("a tile is retained"))
            })
            .collect();
        for ((tile, svc), (_, source)) in plan.tiles.iter().zip(&sources) {
            if !stalled.contains(svc) {
                let rs = self.sim.world.render(*svc);
                let mut reference = Framebuffer::new(tile.width, tile.height);
                rs.renderer.render_tile_reference(&rs.scene, &camera, &full, tile, &mut reference);
                prop_assert_eq!(source.color_pixels(), reference.color_pixels(), "{} tile", svc);
                prop_assert_eq!(depth_bits(source), depth_bits(&reference), "{} tile depth", svc);
            }
        }
        stitch_tiles(&mut fresh, &sources);
        prop_assert_eq!((image.width(), image.height()), (full.width, full.height));
        prop_assert_eq!(image.color_pixels(), fresh.color_pixels(), "colours");
        prop_assert_eq!(depth_bits(&image), depth_bits(&fresh), "depths");

        // Each helper that answered returned its tile through its stream,
        // which counted and picked what a full send of the tile's bytes does.
        if matches!(self.sim.world.config.frame_compression, CompressionMode::Adaptive) {
            let owner_host = self.sim.world.render(owner).host.clone();
            for (_, svc) in &plan.tiles {
                if *svc == owner || stalled.contains(svc) {
                    continue;
                }
                let world = &self.sim.world;
                let helper = world.render(*svc);
                let rgb =
                    helper.sessions[&CLIENT].last_frame.as_ref().expect("tile").to_rgb_bytes();
                let reference =
                    self.references.entry(*svc).or_insert_with(|| ReferenceStream::new(world));
                reference.send(world, &helper.host, &owner_host, rgb);
                let real = world.frame_cache.get(*svc, CLIENT).expect("the helper's stream");
                prop_assert_eq!(books(&real.stats), books(&reference.stats), "{} stream", svc);
                prop_assert_eq!(real.last_codec(), reference.last_codec, "{} codec", svc);
            }
        }

        // Images handed out earlier are what they were.
        for (i, (fb, colors, depths)) in self.kept.iter().enumerate() {
            prop_assert_eq!(fb.color_pixels(), &colors[..], "kept image {} colours", i);
            prop_assert_eq!(&depth_bits(fb), depths, "kept image {} depths", i);
        }

        // A frame in which no tile was drawn copies nothing: its image is
        // the previous one's planes, kept by the caller or not.
        let nothing_drawn =
            self.frames_drawn() == drawn_before && aside.iter().all(Option::is_none);
        if let Some((plan, size, before)) = self.last {
            if nothing_drawn && (plan, size) == (self.plan, self.size) {
                prop_assert_eq!(planes(&image), before, "no tile drawn, yet planes were copied");
                if keep_previous {
                    let (previous, ..) = self.kept.last().expect("kept above");
                    prop_assert!(image.shares_planes_with(previous));
                }
            }
        }
        self.last = Some((self.plan, self.size, planes(&image)));
        self.previous = Some(image);
        if self.kept.len() > 4 {
            self.kept.remove(0);
        }
        Ok(())
    }
}

/// Whatever the sequence was: the same frame twice, the first image
/// dropped in between, is one image, and no helper's stream reads its tile
/// the second time.
fn run(mode: CompressionMode, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut h = Harness::new(mode);
    for step in steps {
        h.apply(step)?;
    }
    h.apply(&Step::Camera(2))?;
    h.frame(0, false)?;
    let first = h.last.expect("a frame was made").2;
    let resent = |h: &Harness| {
        let streams =
            h.services[1..].iter().filter_map(|svc| h.sim.world.frame_cache.stats(*svc, CLIENT));
        streams.map(|s| s.resent).sum::<u64>()
    };
    let (before, helpers) = (resent(&h), h.tile_plan().tiles.len() as u64 - 1);
    h.frame(0, false)?;
    prop_assert_eq!(planes(h.previous.as_ref().expect("a frame was made")), first);
    if matches!(mode, CompressionMode::Adaptive) {
        prop_assert_eq!(resent(&h), before + helpers, "every helper sent its tile as a header");
    }
    Ok(())
}

proptest! {
    /// Camera moves and repeats, scene edits on one replica or on all,
    /// helpers that stall before and after they ever delivered a tile,
    /// plans with other rectangles, other helpers on the same rectangles
    /// and a viewport of another size, the owner drawing whole frames in
    /// between, callers that keep the previous image and callers that drop
    /// it: every image equals a fresh stitch of the frame's tiles, kept
    /// images never change, and a frame nobody redrew copies nothing.
    #[test]
    fn tiled_frames_equal_a_fresh_stitch_whatever_happened_in_between(
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        run(CompressionMode::Raw, &steps)?;
    }

    /// The same through the adaptive tile streams: each helper's stream
    /// books and picks what a full send of every tile it returned would.
    #[test]
    fn compressed_tile_streams_send_what_full_tile_bytes_would(
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        run(CompressionMode::Adaptive, &steps)?;
    }
}
