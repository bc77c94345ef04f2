//! `tile_wall`: framebuffer distribution. Elle is replicated from a data
//! service to four render services; an 800×600 console session on `laptop`
//! is split by `plan_tiles` into four vertical strips, three rendered by
//! helpers and returned lossless through the compressed frame stream.
//!
//! Why it exists: it uses the same two layers as `pda_stream` the other
//! way — per-tile binning, stitching, dirty-strip skip on a camera that
//! mostly stands still, stale-tile reuse — so an optimisation tuned for
//! moving full frames that costs static, tiled or lossless use shows as a
//! regression here.

use super::{channel_totals, orbit_camera, trace_counts, Checks, Counters, LayerCounts, Workload};
use super::{StreamMirror, WARM_UP_ROUNDS, WORLD_SEED};
use crate::gen;
use crate::spans::Tracer;
use rave_compress::adaptive::EndpointSpeed;
use rave_core::bootstrap::connect_render_service;
use rave_core::config::CompressionMode;
use rave_core::tiles::{plan_tiles, render_tiled_frame, TilePlan, TiledFrameResult};
use rave_core::world::RaveWorld;
use rave_core::{ClientId, RaveConfig, RaveSim, RenderServiceId};
use rave_math::{Vec3, Viewport};
use rave_models::{build_with_budget, PaperModel};
use rave_render::composite::stitch_tiles;
use rave_render::{Framebuffer, OffscreenMode};
use rave_scene::{CameraParams, InterestSet, NodeKind};
use rave_sim::Simulation;
use std::collections::BTreeSet;
use std::sync::Arc;

const DS_HOST: &str = "adrenochrome";
const OWNER_HOST: &str = "laptop";
const HELPER_HOSTS: [&str; 3] = ["tower", "desktop", "onyx"];
const ORBIT_STEP: f32 = 0.05;
/// The camera moves on every 4th round; on the others the frame is static.
const MOVE_EVERY: u64 = 4;
/// On one camera-move round in every 16 a helper does not answer.
const STALL_EVERY: u64 = 16;
const STALL_PHASE: u64 = 8;
/// The stitched frame is checked against a monolithic render on one
/// camera-move round in every 16 (not the stalled one).
const MONOLITHIC_PHASE: u64 = 4;

pub struct TileWall {
    seed: u64,
    sim: RaveSim,
    owner: RenderServiceId,
    helpers: Vec<RenderServiceId>,
    client: ClientId,
    plan: TilePlan,
    viewport: Viewport,
    center: Vec3,
    camera: CameraParams,
    pairs: Vec<(String, String)>,
    /// One stream mirror per helper, in plan order.
    mirrors: Option<Vec<(RenderServiceId, StreamMirror)>>,
    frames: u64,
    tiles: u64,
    stale_tiles: u64,
    latency_secs: f64,
    cost_units: u64,
    bootstrap_sim_s: f64,
}

impl TileWall {
    fn one_round(&mut self, i: u64, tr: &mut Tracer, checks: &mut Checks) {
        if i.is_multiple_of(MOVE_EVERY) {
            self.camera.orbit(self.center, ORBIT_STEP, 0.0);
        }
        let mut stalled = BTreeSet::new();
        if i % STALL_EVERY == STALL_PHASE {
            let n = gen::stalled_helper(self.seed, i / STALL_EVERY, self.helpers.len());
            stalled.insert(self.helpers[n]);
        }
        let camera = self.camera;
        // A stalled helper renders with the camera it last heard of.
        let stale_cameras: Vec<(RenderServiceId, CameraParams)> = stalled
            .iter()
            .map(|rs| {
                let session = self.sim.world.render(*rs).sessions.get(&self.client);
                (*rs, session.map_or(camera, |s| s.camera))
            })
            .collect();

        let t0 = self.sim.now();
        let (sim, owner, client, plan) = (&mut self.sim, self.owner, self.client, &self.plan);
        let result: TiledFrameResult = tr.direct("tiles.frame", 1, || {
            render_tiled_frame(sim, owner, client, plan, camera, &stalled)
        });
        tr.direct("sim.run", 1, || sim.run_until(result.completed_at));

        self.frames += 1;
        self.tiles += plan.tiles.len() as u64;
        self.stale_tiles += stalled.len() as u64;
        self.latency_secs += (result.completed_at - t0).as_secs();
        checks.check(result.image.is_some(), || "tiled frame produced no image".into());
        checks.check(result.used_stale_tile != stalled.is_empty(), || {
            format!(
                "stale tile use {} with {} helper(s) stalled",
                result.used_stale_tile,
                stalled.len()
            )
        });

        if self.mirrors.is_some() {
            tr.pause();
            self.shadows(&result, camera, &stale_cameras, tr, checks);
            tr.resume();
        }

        if i % STALL_EVERY == MONOLITHIC_PHASE {
            tr.untimed(|| {
                let rs = self.sim.world.render(self.owner);
                let mut whole = Framebuffer::new(self.viewport.width, self.viewport.height);
                rs.renderer.render(&rs.scene, &camera, &mut whole);
                checks.check(result.image.as_ref() == Some(&whole), || {
                    "stitched frame differs from a monolithic render of the same camera".into()
                });
            });
        }
    }

    /// Repeat the frame's layer calls: each tile's raster (a stalled helper
    /// with the camera it last heard of), each fresh helper tile's trip
    /// through the lossless stream, and the stitch.
    fn shadows(
        &mut self,
        result: &TiledFrameResult,
        camera: CameraParams,
        stale_cameras: &[(RenderServiceId, CameraParams)],
        tr: &mut Tracer,
        checks: &mut Checks,
    ) {
        let mirrors = self.mirrors.as_mut().expect("traced run");
        let mut images = Vec::with_capacity(self.plan.tiles.len());
        for (tile, svc) in &self.plan.tiles {
            let rs = self.sim.world.render(*svc);
            let stale = stale_cameras.iter().find(|(s, _)| s == svc).map(|(_, c)| *c);
            let (fb, stats) = tr.shadow("render.raster", "tiles.frame", 1, || {
                rs.rasterize_tile_with_stats(&stale.unwrap_or(camera), &self.viewport, tile)
            });
            self.cost_units += stats.raster.cost_units();
            if let (None, Some((_, mirror))) = (stale, mirrors.iter_mut().find(|(s, _)| s == svc)) {
                let rgb = tr.shadow("render.to_rgb", "tiles.frame", 1, || fb.to_rgb_bytes());
                mirror.send(tr, "tiles.frame", rgb, checks);
            }
            images.push(fb);
        }
        let mut target = Framebuffer::new(self.viewport.width, self.viewport.height);
        let refs: Vec<(Viewport, &Framebuffer)> =
            self.plan.tiles.iter().map(|(vp, _)| *vp).zip(&images).collect();
        tr.shadow("render.stitch", "tiles.frame", 1, || stitch_tiles(&mut target, &refs));
        checks.check(result.image.as_ref() == Some(&target), || {
            "shadow stitch differs from the tiled frame".into()
        });
        for (svc, mirror) in mirrors.iter() {
            let real = self.sim.world.frame_cache.stats(*svc, self.client);
            checks.check(real.map(|s| s.encoded_bytes) == Some(mirror.encoded_bytes), || {
                format!("tile stream mirror of {svc} encoded different bytes")
            });
        }
    }
}

impl Workload for TileWall {
    const PARALLEL: bool = true;

    fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Self {
        let mesh = tr.direct("models.build", 1, || build_with_budget(PaperModel::Elle, 50_000));
        let config = RaveConfig {
            produce_images: true,
            frame_compression: CompressionMode::Adaptive,
            ..RaveConfig::default()
        };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(config, WORLD_SEED));
        let ds = sim.world.spawn_data_service(DS_HOST, "elle");
        {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            scene.add_node(root, "elle", NodeKind::Mesh(Arc::new(mesh))).expect("fresh scene");
        }
        let owner = sim.world.spawn_render_service(OWNER_HOST);
        let helpers: Vec<RenderServiceId> =
            HELPER_HOSTS.iter().map(|h| sim.world.spawn_render_service(h)).collect();
        for rs in std::iter::once(owner).chain(helpers.iter().copied()) {
            tr.direct("bootstrap.connect", 1, || {
                connect_render_service(&mut sim, rs, ds, InterestSet::everything())
            });
        }
        sim.run();
        let bootstrap_sim_s = sim.now().as_secs();

        let scene = &sim.world.render(owner).scene;
        let bounds = scene.world_bounds(scene.root());
        let (center, radius) = (bounds.center(), bounds.radius());
        let camera = orbit_camera(seed, center, radius);
        let viewport = Viewport::new(800, 600);
        let client = ClientId(1);
        sim.world.render_mut(owner).open_session(
            client,
            viewport,
            camera,
            OffscreenMode::Sequential,
        );

        let cfg = sim.world.config.clone();
        let reports: Vec<_> =
            helpers.iter().map(|h| sim.world.render(*h).capacity_report(&cfg)).collect();
        let plan = plan_tiles(&viewport, owner, &reports);
        assert_eq!(plan.tiles.len(), 4, "owner and three helpers each take a strip");

        let mirrors = tr.on().then(|| {
            plan.tiles
                .iter()
                .skip(1)
                .map(|(_, svc)| {
                    let host = sim.world.render(*svc).host.clone();
                    let speed = EndpointSpeed::workstation();
                    (*svc, StreamMirror::new(&sim, &host, OWNER_HOST, speed, false))
                })
                .collect()
        });
        let pairs = HELPER_HOSTS.iter().map(|h| (OWNER_HOST.to_string(), h.to_string())).collect();
        let mut w = Self {
            seed,
            sim,
            owner,
            helpers,
            client,
            plan,
            viewport,
            center,
            camera,
            pairs,
            mirrors,
            frames: 0,
            tiles: 0,
            stale_tiles: 0,
            latency_secs: 0.0,
            cost_units: 0,
            bootstrap_sim_s,
        };
        for _ in 0..WARM_UP_ROUNDS {
            // A round id off the move, stall and oracle phases.
            w.one_round(1, tr, checks);
        }
        w
    }

    fn round(&mut self, i: u64, tr: &mut Tracer, checks: &mut Checks) {
        self.one_round(i, tr, checks);
    }

    fn counters(&mut self) -> Counters {
        Counters {
            sim_secs: self.sim.now().as_secs(),
            wire_bytes: channel_totals(&mut self.sim, &self.pairs).0,
        }
    }

    fn finish(mut self, rounds: u64, _tr: &mut Tracer, _checks: &mut Checks) -> LayerCounts {
        let mut out = LayerCounts::new();
        out.insert("bootstrap.sim_s", self.bootstrap_sim_s);
        out.insert("sim.fps", self.frames as f64 / self.latency_secs);
        out.insert("sim.frame_latency_ms", self.latency_secs * 1e3 / self.frames as f64);
        out.insert("render.frames", self.frames as f64);
        out.insert("render.tiles", self.tiles as f64);
        out.insert("tiles.stale_tiles", self.stale_tiles as f64);
        if self.mirrors.is_some() {
            out.insert("render.cost_units_per_frame", self.cost_units as f64 / self.frames as f64);
        }
        let (mut logical, mut encoded, mut strips, mut skipped, mut switches) = (0, 0, 0, 0, 0);
        for helper in &self.helpers {
            if let Some(s) = self.sim.world.frame_cache.stats(*helper, self.client) {
                logical += s.logical_bytes;
                encoded += s.encoded_bytes;
                strips += s.strips_total;
                skipped += s.strips_skipped;
                switches += s.codec_switches;
            }
        }
        out.insert("compress.ratio", encoded as f64 / logical.max(1) as f64);
        out.insert("compress.strips_skipped_ratio", skipped as f64 / strips.max(1) as f64);
        out.insert("compress.codec_switches", switches as f64);
        let (bytes, msgs) = channel_totals(&mut self.sim, &self.pairs);
        out.insert("net.wire_bytes", bytes as f64);
        out.insert("net.channel_msgs", msgs as f64);
        trace_counts(&self.sim, rounds + WARM_UP_ROUNDS, &mut out);
        out
    }
}
