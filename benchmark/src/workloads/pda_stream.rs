//! `pda_stream`: the paper testbed's thin-client path. A render service on
//! `laptop` holds Elle (50k polygons) and streams adaptive-compressed
//! 640×480 frames to a `zaurus` PDA over wireless, two frames in flight.
//!
//! Why it exists: `rave-render` and `rave-compress` do nearly all the work,
//! on moving full-frame content, while the scheduler, the store and update
//! routing are idle — a raster or codec kernel gain shows here and nowhere
//! else.

use super::{channel_totals, orbit_camera, trace_counts, Checks, Counters, LayerCounts, Workload};
use super::{StreamMirror, WARM_UP_ROUNDS, WORLD_SEED};
use crate::spans::Tracer;
use rave_compress::adaptive::EndpointSpeed;
use rave_core::config::CompressionMode;
use rave_core::thin_client::{connect, stream_frames};
use rave_core::world::RaveWorld;
use rave_core::{ClientId, RaveConfig, RaveSim, RenderServiceId};
use rave_math::{Vec3, Viewport};
use rave_models::{build_with_budget, PaperModel};
use rave_render::Framebuffer;
use rave_scene::{CameraParams, NodeKind};
use rave_sim::Simulation;
use std::sync::Arc;

const RS_HOST: &str = "laptop";
const CLIENT_HOST: &str = "zaurus";
const FRAMES_PER_ROUND: u64 = 2;
const ORBIT_STEP: f32 = 0.02;
/// Every this many rounds the displayed frame is compared with the serial
/// reference renderer.
const REFERENCE_EVERY: u64 = 32;

pub struct PdaStream {
    sim: RaveSim,
    rs: RenderServiceId,
    client: ClientId,
    center: Vec3,
    camera: CameraParams,
    pairs: Vec<(String, String)>,
    mirror: Option<StreamMirror>,
    cost_units: u64,
}

impl PdaStream {
    /// The last frame the service rasterized equals the serial reference
    /// render of the same scene and camera.
    fn check_reference(&self, checks: &mut Checks) {
        let rs = self.sim.world.render(self.rs);
        let session = &rs.sessions[&self.client];
        let mut reference = Framebuffer::new(session.viewport.width, session.viewport.height);
        rs.renderer.render_reference(&rs.scene, &session.camera, &mut reference);
        checks.check(session.last_frame.as_ref() == Some(&reference), || {
            "streamed frame differs from Renderer::render_reference".into()
        });
    }

    fn one_round(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        self.camera.orbit(self.center, ORBIT_STEP, 0.0);
        let camera = self.camera;
        let session = self.sim.world.render_mut(self.rs).sessions.get_mut(&self.client);
        session.expect("client session is open").camera = camera;

        let before = self.sim.world.client(self.client).stats.frames;
        let (sim, client) = (&mut self.sim, self.client);
        tr.direct("frame_path.stream", FRAMES_PER_ROUND, || {
            stream_frames(sim, client, FRAMES_PER_ROUND);
            sim.run();
        });
        let shown = self.sim.world.client(self.client).stats.frames - before;
        checks.tally(FRAMES_PER_ROUND, FRAMES_PER_ROUND.saturating_sub(shown), || {
            format!("{shown} of {FRAMES_PER_ROUND} frames displayed")
        });

        if self.mirror.is_some() {
            tr.pause();
            self.shadows(camera, tr, checks);
            tr.resume();
        }
    }

    /// Repeat what the frame path did for this round's frames, layer by
    /// layer, on the same camera and the mirrored stream state.
    fn shadows(&mut self, camera: CameraParams, tr: &mut Tracer, checks: &mut Checks) {
        let mirror = self.mirror.as_mut().expect("traced run");
        let rs = self.sim.world.render(self.rs);
        let viewport = rs.sessions[&self.client].viewport;
        for _ in 0..FRAMES_PER_ROUND {
            let (fb, stats) = tr.shadow("render.raster", "frame_path.stream", 1, || {
                rs.rasterize_tile_with_stats(&camera, &viewport, &viewport)
            });
            self.cost_units += stats.raster.cost_units();
            let rgb = tr.shadow("render.to_rgb", "frame_path.stream", 1, || fb.to_rgb_bytes());
            mirror.send(tr, "frame_path.stream", rgb, checks);
        }
        let real = self.sim.world.frame_cache.stats(self.rs, self.client);
        checks.check(real.map(|s| s.encoded_bytes) == Some(mirror.encoded_bytes), || {
            "stream mirror and the real frame channel encoded different bytes".into()
        });
    }
}

impl Workload for PdaStream {
    const PARALLEL: bool = true;

    fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Self {
        let mesh = tr.direct("models.build", 1, || build_with_budget(PaperModel::Elle, 50_000));
        let config = RaveConfig {
            produce_images: true,
            frame_compression: CompressionMode::Adaptive,
            pipeline_depth: 2,
            ..RaveConfig::default()
        };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(config, WORLD_SEED));
        let rs = sim.world.spawn_render_service(RS_HOST);
        let scene = &mut sim.world.render_mut(rs).scene;
        let root = scene.root();
        scene.add_node(root, "elle", NodeKind::Mesh(Arc::new(mesh))).expect("fresh scene");
        let bounds = scene.world_bounds(root);
        let (center, radius) = (bounds.center(), bounds.radius());

        let camera = orbit_camera(seed, center, radius);
        let client = sim.world.spawn_thin_client(CLIENT_HOST);
        {
            let c = sim.world.client_mut(client);
            c.viewport = Viewport::new(640, 480);
            c.camera = camera;
        }
        connect(&mut sim, client, rs);

        let mirror = tr
            .on()
            .then(|| StreamMirror::new(&sim, RS_HOST, CLIENT_HOST, EndpointSpeed::pda(), true));
        let mut w = Self {
            sim,
            rs,
            client,
            center,
            camera,
            pairs: vec![(RS_HOST.into(), CLIENT_HOST.into())],
            mirror,
            cost_units: 0,
        };
        for i in 0..WARM_UP_ROUNDS {
            w.one_round(tr, checks);
            if i == 0 {
                tr.untimed(|| w.check_reference(checks));
            }
        }
        w
    }

    fn round(&mut self, i: u64, tr: &mut Tracer, checks: &mut Checks) {
        self.one_round(tr, checks);
        if i.is_multiple_of(REFERENCE_EVERY) {
            tr.untimed(|| self.check_reference(checks));
        }
    }

    fn counters(&mut self) -> Counters {
        Counters {
            sim_secs: self.sim.now().as_secs(),
            wire_bytes: channel_totals(&mut self.sim, &self.pairs).0,
        }
    }

    fn finish(mut self, rounds: u64, _tr: &mut Tracer, _checks: &mut Checks) -> LayerCounts {
        let mut out = LayerCounts::new();
        let stats = &self.sim.world.client(self.client).stats;
        let span = stats.last_display.expect("frames were displayed");
        out.insert("sim.fps", stats.fps());
        out.insert("sim.frame_latency_ms", stats.total_latency.mean() * 1e3);
        out.insert("frame_path.render_util", stats.render_utilization(span));
        out.insert("frame_path.wire_util", stats.wire_utilization(span));
        out.insert("frame_path.client_util", stats.client_utilization(span));
        out.insert("frame_path.bound_render", stats.bound_by.render as f64);
        out.insert("frame_path.bound_wire", stats.bound_by.wire as f64);
        out.insert("frame_path.bound_client", stats.bound_by.client as f64);
        out.insert("frame_path.stalled_frames", stats.stalled_frames as f64);
        out.insert("render.frames", stats.frames as f64);
        if self.mirror.is_some() {
            out.insert("render.cost_units_per_frame", self.cost_units as f64 / stats.frames as f64);
        }
        let stream = self.sim.world.frame_cache.stats(self.rs, self.client).expect("stream sent");
        out.insert("compress.ratio", stream.ratio());
        out.insert(
            "compress.strips_skipped_ratio",
            stream.strips_skipped as f64 / stream.strips_total.max(1) as f64,
        );
        out.insert("compress.codec_switches", stream.codec_switches as f64);
        let (bytes, msgs) = channel_totals(&mut self.sim, &self.pairs);
        out.insert("net.wire_bytes", bytes as f64);
        out.insert("net.channel_msgs", msgs as f64);
        trace_counts(&self.sim, rounds + WARM_UP_ROUNDS, &mut out);
        out
    }
}
