//! The thin client (§3.1.3): a PDA-class device that "has no or very
//! modest local rendering resources" and receives rendered frames from a
//! render service.
//!
//! Frame delivery runs through an explicit staged pipeline
//! (`FramePipeline`): request → render (service GPU) → encode (service
//! CPU) → transmit (wire) → decode/import/blit (client CPU) → display.
//! Each stage is a separate occupancy timeline, so with
//! `pipeline_depth ≥ 2` the render of frame N+1 overlaps the
//! encode/transmit of frame N and the decode/import of frame N−1 — the
//! stream's rate collapses to the bottleneck stage instead of the sum of
//! all stages. Depth 1 keeps every stage idle when its frame arrives and
//! reproduces the paper's strictly serial §5.1 cycle (and Table 2's
//! timings) bit-identically.

use crate::config::CompressionMode;
use crate::frame_stream;
use crate::ids::{ClientId, RenderServiceId};
use crate::render_service::FPS_WINDOW;
use crate::trace::TraceKind;
use crate::world::RaveSim;
use rave_compress::adaptive::EndpointSpeed;
use rave_math::Viewport;
use rave_render::machine::PdaProfile;
use rave_render::OffscreenMode;
use rave_scene::CameraParams;
use rave_sim::{Histogram, Occupancy, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Thin-client frame streams may pick the lossy (RGB565) codecs. Tile
/// returns never do — they pass `false` to the same send: they are
/// stitched into a composite that must match the monolithic render.
pub const ALLOW_LOSSY_FRAMES: bool = true;

/// How the client converts received bytes into a displayable image —
/// §5.1's J2ME-vs-C++ finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportMode {
    /// J2ME per-pixel "manual" conversion (over two minutes per frame).
    J2me,
    /// C/C++ pointer cast (minimal overhead) — what the Zaurus client
    /// actually shipped with.
    NativeCast,
}

/// Per-frame counts of which resource bound each displayed frame: the
/// stage the frame stalled on (waited for a previous in-flight frame to
/// release), or — stall-free — the stage that consumed the largest share
/// of its life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundCounts {
    /// Frames bound by the render service's GPU.
    pub render: u64,
    /// Frames bound by transport: encode CPU + wire occupancy.
    pub wire: u64,
    /// Frames bound by the client's decode/import/blit CPU.
    pub client: u64,
}

impl BoundCounts {
    /// The most common binding resource ("render", "wire", or "client";
    /// ties resolve in that order).
    pub fn dominant(&self) -> &'static str {
        if self.render >= self.wire && self.render >= self.client {
            "render"
        } else if self.wire >= self.client {
            "wire"
        } else {
            "client"
        }
    }
}

/// The binding resource of one frame (internal; aggregated into
/// [`BoundCounts`] at display time).
#[derive(Debug, Clone, Copy)]
enum Bound {
    Render,
    Wire,
    Client,
}

impl Bound {
    fn name(self) -> &'static str {
        match self {
            Bound::Render => "render",
            Bound::Wire => "wire",
            Bound::Client => "client",
        }
    }
}

/// Per-frame timing breakdown, mirroring Table 2's columns, plus the
/// pipeline's per-stage occupancy and binding-resource books.
#[derive(Debug, Clone, Default)]
pub struct FrameStats {
    pub frames: u64,
    /// Inter-display period (1/fps).
    pub periods: Histogram,
    /// Request → displayed (Table 2 "Total Latency").
    pub total_latency: Histogram,
    /// Wire time of the image (Table 2 "Image Receipt Time").
    pub receipt: Histogram,
    /// Render-service render time (Table 2 "Render").
    pub render: Histogram,
    /// Decode + import + blit + GUI (Table 2 "Other Overheads").
    pub other_overheads: Histogram,
    pub last_display: Option<SimTime>,
    /// Raw 24 bpp bytes the received frames represent.
    pub logical_bytes: u64,
    /// Bytes that actually crossed the wire (== logical in Raw mode).
    pub encoded_bytes: u64,
    /// Cumulative busy seconds per pipeline stage over the displayed
    /// frames: service GPU, encoder CPU, wire (tx only), client CPU.
    pub render_busy: f64,
    pub encode_busy: f64,
    pub wire_busy: f64,
    pub client_busy: f64,
    /// Which resource bound each displayed frame.
    pub bound_by: BoundCounts,
    /// Frames that waited on a busy stage, and total seconds waited.
    /// Always zero at `pipeline_depth = 1` (no overlap, nothing to wait
    /// on).
    pub stalled_frames: u64,
    pub stall_secs: f64,
}

impl FrameStats {
    pub fn fps(&self) -> f64 {
        let p = self.periods.mean();
        if p <= 0.0 {
            0.0
        } else {
            1.0 / p
        }
    }

    /// Achieved wire/logical compression ratio (1.0 with no frames or an
    /// uncompressed stream).
    pub fn compression_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.logical_bytes as f64
        }
    }

    /// Fraction of `span` the render service's GPU spent on this stream.
    pub fn render_utilization(&self, span: SimTime) -> f64 {
        frac(self.render_busy, span)
    }

    /// Fraction of `span` the wire carried this stream's frames (tx time
    /// only — the serial baseline leaves it idle during render/display).
    pub fn wire_utilization(&self, span: SimTime) -> f64 {
        frac(self.wire_busy, span)
    }

    /// Fraction of `span` the client CPU spent decoding/importing.
    pub fn client_utilization(&self, span: SimTime) -> f64 {
        frac(self.client_busy, span)
    }
}

fn frac(busy: f64, span: SimTime) -> f64 {
    let s = span.as_secs();
    if s <= 0.0 {
        0.0
    } else {
        busy / s
    }
}

/// A thin client instance.
#[derive(Debug, Clone)]
pub struct ThinClient {
    pub id: ClientId,
    pub host: String,
    pub pda: PdaProfile,
    pub import_mode: ImportMode,
    pub render_service: Option<RenderServiceId>,
    pub viewport: Viewport,
    pub camera: CameraParams,
    pub stats: FrameStats,
    /// The client CPU's occupancy timeline (decode + import + blit): a
    /// pipelined stream queues frame N+1's import behind frame N's here.
    pub cpu: Occupancy,
}

impl ThinClient {
    pub fn new(id: ClientId, host: &str) -> Self {
        Self {
            id,
            host: host.into(),
            pda: PdaProfile::zaurus(),
            import_mode: ImportMode::NativeCast,
            render_service: None,
            viewport: Viewport::new(200, 200),
            camera: CameraParams::default(),
            stats: FrameStats::default(),
            cpu: Occupancy::new(),
        }
    }

    /// Image import time under the configured mode.
    pub fn import_time(&self, bytes: u64) -> f64 {
        match self.import_mode {
            ImportMode::J2me => self.pda.import_j2me(bytes),
            ImportMode::NativeCast => self.pda.import_cast(bytes),
        }
    }
}

/// Connect a thin client to a render service (opens an off-screen session
/// sized to the client's viewport).
pub fn connect(sim: &mut RaveSim, client_id: ClientId, rs_id: RenderServiceId) {
    let (viewport, camera) = {
        let c = sim.world.client_mut(client_id);
        c.render_service = Some(rs_id);
        (c.viewport, c.camera)
    };
    sim.world.render_mut(rs_id).open_session(
        client_id,
        viewport,
        camera,
        OffscreenMode::Sequential,
    );
}

/// One stream's issue/display bookkeeping: at most `depth` frames are
/// ever in flight (requested but not displayed). The hosts are resolved
/// once here — per-frame issue borrows them instead of re-cloning
/// `String`s out of the world.
#[derive(Debug)]
struct FramePipeline {
    client: ClientId,
    rs: RenderServiceId,
    client_host: String,
    rs_host: String,
    depth: u64,
    total: u64,
    issued: u64,
    displayed: u64,
}

/// Stream `frames` frames to the client: the §5.1 measurement loop.
/// Each cycle: interaction request → off-screen render → image transfer →
/// import/blit → display ("local and remote simply rendering best effort
/// and continuously stream images to the user"). `pipeline_depth`
/// controls how many cycles may overlap: 1 is the paper's serial loop
/// (the next request leaves only after the previous display); ≥ 2 keeps
/// that many frames in flight across the staged resources.
pub fn stream_frames(sim: &mut RaveSim, client_id: ClientId, frames: u64) {
    if frames == 0 {
        return;
    }
    let Some(rs_id) = sim.world.client(client_id).render_service else { return };
    let pipe = Rc::new(RefCell::new(FramePipeline {
        client: client_id,
        rs: rs_id,
        client_host: sim.world.client(client_id).host.clone(),
        rs_host: sim.world.render(rs_id).host.clone(),
        depth: sim.world.config.pipeline_depth.max(1) as u64,
        total: frames,
        issued: 0,
        displayed: 0,
    }));
    pump(sim, &pipe);
}

/// Issue frames while the stream has frames left and in-flight budget.
/// Runs at stream start (fills the pipeline to `depth`) and after every
/// display (each display frees one slot).
fn pump(sim: &mut RaveSim, pipe: &Rc<RefCell<FramePipeline>>) {
    loop {
        {
            let p = pipe.borrow();
            if p.issued >= p.total || p.issued - p.displayed >= p.depth {
                return;
            }
        }
        issue_frame(sim, pipe);
    }
}

/// Issue one frame: book its request, render, encode/transmit, and
/// client-import onto the respective occupancy timelines (each stage
/// starting no earlier than the previous stage's completion *and* the
/// resource's release by earlier in-flight frames), then schedule its
/// display event. All stage timings are computed analytically at issue
/// time — the display event only does the accounting.
fn issue_frame(sim: &mut RaveSim, pipe: &Rc<RefCell<FramePipeline>>) {
    let t0 = sim.now();
    let (client_id, rs_id, index) = {
        let mut p = pipe.borrow_mut();
        let i = p.issued;
        p.issued += 1;
        (p.client, p.rs, i)
    };

    // 1. Interaction/camera request (small control message).
    let t_request_arrives = {
        let p = pipe.borrow();
        sim.world.send_bytes(t0, &p.client_host, &p.rs_host, 64)
    };

    // 2. Off-screen render, queued on the service's GPU timeline. At
    // depth 1 the GPU is always idle when the request arrives and this
    // degenerates to exactly `t_request_arrives + render_secs`.
    let render_cost = sim
        .world
        .render(rs_id)
        .offscreen_render_cost(client_id)
        .expect("thin client session must be off-screen capable");
    let render_secs = render_cost.total();
    let (render_start, t_rendered) =
        sim.world.render_mut(rs_id).queue_render(t_request_arrives, render_secs);

    // 3. Image transfer back: uncompressed 24 bpp (the paper's baseline)
    // or the adaptive compressed stream, per config. Either way the
    // encoder/wire occupancies serialize in-flight frames in order.
    let frame_bytes = sim.world.client(client_id).viewport.pixel_count() as u64 * 3;
    let (t_image_arrives, decode_secs, encoded_bytes, encode_secs, wire_secs, transport_stall) =
        match sim.world.config.frame_compression {
            CompressionMode::Raw => {
                let p = pipe.borrow();
                let (wire_start, wire_secs) = {
                    let ch = sim.world.channel(&p.rs_host, &p.client_host);
                    (t_rendered.max(ch.busy_until()), ch.link().tx_time(frame_bytes).as_secs())
                };
                let t = sim.world.send_bytes(t_rendered, &p.rs_host, &p.client_host, frame_bytes);
                (t, 0.0, frame_bytes, 0.0, wire_secs, (wire_start - t_rendered).as_secs())
            }
            CompressionMode::Adaptive => {
                let vp = sim.world.client(client_id).viewport;
                // Real pixels when the world renders them — laid out in
                // the world's staging vector, straight from the session's
                // retained frame — else a synthetic render-shaped frame so
                // timing runs still exercise the codec path with
                // representative content.
                let mut rgb = sim.world.frame_cache.take_staging();
                let drawn = if sim.world.config.produce_images {
                    sim.world.render_mut(rs_id).rasterize(client_id)
                } else {
                    None
                };
                match drawn {
                    Some(fb) => fb.rgb_bytes_into(&mut rgb),
                    None => rgb = frame_stream::synthesize_frame(vp.width, vp.height, index),
                }
                let encoder_free = sim.world.render(rs_id).encoder.busy_until();
                let out = {
                    let p = pipe.borrow();
                    frame_stream::send_frame_after(
                        &mut sim.world,
                        t_rendered,
                        encoder_free,
                        rs_id,
                        client_id,
                        &p.rs_host,
                        &p.client_host,
                        &rgb,
                        EndpointSpeed::workstation(),
                        EndpointSpeed::pda(),
                        ALLOW_LOSSY_FRAMES,
                    )
                };
                sim.world.frame_cache.put_staging(rgb);
                sim.world.render_mut(rs_id).encoder.acquire(out.encode_start, out.encode_secs);
                let t_sent = out.encode_start + SimTime::from_secs(out.encode_secs);
                let stall =
                    (out.encode_start - t_rendered).as_secs() + (out.wire_start - t_sent).as_secs();
                (
                    out.arrival,
                    out.decode_secs,
                    out.encoded_bytes,
                    out.encode_secs,
                    out.wire_secs,
                    stall,
                )
            }
        };
    let receipt = t_image_arrives - t_rendered;

    // 4. Decode (adaptive mode) + import + blit + GUI overhead, queued on
    // the client CPU's timeline, then display.
    let (import, overhead) = {
        let c = sim.world.client(client_id);
        (c.import_time(frame_bytes), c.pda.frame_overhead)
    };
    let client_cpu = decode_secs + import + overhead;
    let (client_start, t_displayed) =
        sim.world.client_mut(client_id).cpu.acquire(t_image_arrives, client_cpu);

    // Which resource bound this frame: the stage it stalled on the
    // longest, or — stall-free — the stage with the largest service time.
    let stall_render = (render_start - t_request_arrives).as_secs();
    let stall_client = (client_start - t_image_arrives).as_secs();
    let stall = stall_render + transport_stall + stall_client;
    let bound = if stall > 0.0 {
        if stall_render >= transport_stall && stall_render >= stall_client {
            Bound::Render
        } else if transport_stall >= stall_client {
            Bound::Wire
        } else {
            Bound::Client
        }
    } else {
        let transport = encode_secs + wire_secs;
        if render_secs >= transport && render_secs >= client_cpu {
            Bound::Render
        } else if transport >= client_cpu {
            Bound::Wire
        } else {
            Bound::Client
        }
    };

    let pipe = Rc::clone(pipe);
    sim.schedule_at(t_displayed, move |sim| {
        let now = sim.now();
        {
            let rs = sim.world.render_mut(rs_id);
            rs.record_frame(now, FPS_WINDOW);
        }
        {
            let c = sim.world.client_mut(client_id);
            c.stats.frames += 1;
            c.stats.total_latency.record((now - t0).as_secs());
            c.stats.receipt.record(receipt.as_secs());
            c.stats.render.record(render_secs);
            c.stats.other_overheads.record(client_cpu);
            c.stats.logical_bytes += frame_bytes;
            c.stats.encoded_bytes += encoded_bytes;
            if let Some(last) = c.stats.last_display {
                c.stats.periods.record((now - last).as_secs());
            }
            c.stats.last_display = Some(now);
            c.stats.render_busy += render_secs;
            c.stats.encode_busy += encode_secs;
            c.stats.wire_busy += wire_secs;
            c.stats.client_busy += client_cpu;
            match bound {
                Bound::Render => c.stats.bound_by.render += 1,
                Bound::Wire => c.stats.bound_by.wire += 1,
                Bound::Client => c.stats.bound_by.client += 1,
            }
            if stall > 0.0 {
                c.stats.stalled_frames += 1;
                c.stats.stall_secs += stall;
            }
        }
        sim.world.trace.record(
            now,
            TraceKind::FrameDelivered,
            format!("{client_id} frame via {rs_id}"),
        );
        if stall > 0.0 {
            sim.world.trace.record(
                now,
                TraceKind::PipelineStall,
                format!("{client_id} frame {index} waited {stall:.4}s ({})", bound.name()),
            );
        }
        pipe.borrow_mut().displayed += 1;
        pump(sim, &pipe);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{RaveSim, RaveWorld};
    use crate::RaveConfig;
    use rave_math::Vec3;
    use rave_scene::{MeshData, NodeKind};
    use rave_sim::Simulation;
    use std::sync::Arc;

    fn world_with_model(polys: usize) -> (RaveSim, ClientId, RenderServiceId) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7));
        let rs = sim.world.spawn_render_service("laptop");
        let mesh = MeshData {
            positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
            normals: vec![],
            colors: vec![],
            triangles: vec![[0, 1, 2]; polys],
            texture_bytes: 0,
        };
        let scene = &mut sim.world.render_mut(rs).scene;
        let root = scene.root();
        scene.add_node(root, "model", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        let cl = sim.world.spawn_thin_client("zaurus");
        connect(&mut sim, cl, rs);
        (sim, cl, rs)
    }

    #[test]
    fn hand_streaming_matches_table2_shape() {
        // 0.83M polygons at 200x200 over wireless: paper reports 2.9 fps,
        // 0.339s total latency, 0.201s receipt, 0.091s render.
        let (mut sim, cl, _) = world_with_model(830_000);
        stream_frames(&mut sim, cl, 12);
        sim.run();
        let stats = &sim.world.client(cl).stats;
        assert_eq!(stats.frames, 12);
        let fps = stats.fps();
        assert!((2.2..3.6).contains(&fps), "hand fps {fps} (paper 2.9)");
        let lat = stats.total_latency.mean();
        assert!((0.28..0.42).contains(&lat), "latency {lat} (paper 0.339)");
        let receipt = stats.receipt.mean();
        assert!((0.17..0.24).contains(&receipt), "receipt {receipt} (paper 0.201)");
    }

    #[test]
    fn skeleton_slower_than_hand() {
        let (mut sim, cl, _) = world_with_model(2_800_000);
        stream_frames(&mut sim, cl, 8);
        sim.run();
        let fps = sim.world.client(cl).stats.fps();
        assert!((1.2..2.1).contains(&fps), "skeleton fps {fps} (paper 1.6)");
    }

    #[test]
    fn j2me_import_destroys_frame_rate() {
        let (mut sim, cl, _) = world_with_model(10_000);
        sim.world.client_mut(cl).import_mode = ImportMode::J2me;
        stream_frames(&mut sim, cl, 3);
        sim.run();
        let stats = &sim.world.client(cl).stats;
        assert!(
            stats.total_latency.mean() > 100.0,
            "J2ME frame takes minutes: {}",
            stats.total_latency.mean()
        );
    }

    #[test]
    fn bigger_viewport_lowers_fps() {
        // §5.1: 640x480 would fall to ~0.6 fps.
        let (mut sim, cl, rs) = world_with_model(10_000);
        sim.world.client_mut(cl).viewport = Viewport::new(640, 480);
        // Reconnect with the larger viewport.
        connect(&mut sim, cl, rs);
        stream_frames(&mut sim, cl, 5);
        sim.run();
        let fps = sim.world.client(cl).stats.fps();
        assert!((0.4..0.8).contains(&fps), "640x480 fps {fps} (paper ~0.6)");
    }

    #[test]
    fn render_service_load_tracked() {
        let (mut sim, cl, rs) = world_with_model(830_000);
        stream_frames(&mut sim, cl, 12);
        sim.run();
        let fps = sim.world.render(rs).rolling_fps().unwrap();
        assert!(fps < 5.0, "render service sees its own low fps: {fps}");
        assert_eq!(sim.world.trace.count(TraceKind::FrameDelivered), 12);
    }

    #[test]
    fn adaptive_compression_raises_wireless_fps() {
        // The same §5.1 hand scenario as hand_streaming_matches_table2_shape
        // (0.83M polys, 200x200, wireless), with the raw 24 bpp transfer
        // replaced by the adaptive compressed stream.
        let (mut sim_raw, cl_raw, _) = world_with_model(830_000);
        stream_frames(&mut sim_raw, cl_raw, 12);
        sim_raw.run();
        let fps_raw = sim_raw.world.client(cl_raw).stats.fps();

        let (mut sim, cl, _) = world_with_model(830_000);
        sim.world.config.frame_compression = crate::config::CompressionMode::Adaptive;
        stream_frames(&mut sim, cl, 12);
        sim.run();
        let stats = &sim.world.client(cl).stats;
        assert_eq!(stats.frames, 12);
        let fps = stats.fps();
        assert!(fps > fps_raw * 1.2, "adaptive stream beats the raw baseline: {fps} vs {fps_raw}");
        assert!(
            stats.compression_ratio() < 0.5,
            "wire traffic shrank: ratio {}",
            stats.compression_ratio()
        );
        assert!(stats.encoded_bytes < stats.logical_bytes);
    }

    #[test]
    fn raw_mode_books_equal_logical_and_encoded_bytes() {
        let (mut sim, cl, _) = world_with_model(10_000);
        stream_frames(&mut sim, cl, 3);
        sim.run();
        let stats = &sim.world.client(cl).stats;
        assert_eq!(stats.logical_bytes, stats.encoded_bytes);
        assert_eq!(stats.logical_bytes, 3 * 200 * 200 * 3);
        assert_eq!(stats.compression_ratio(), 1.0);
    }

    /// Two frames on one camera: the service draws once and lends the
    /// frame again, and nothing downstream of the raster can tell — the
    /// lent frame is converted, encoded, sent and charged like a drawn
    /// one. The twin world touches its scene between the two frames (a
    /// transform set to the value it has), which forces the second draw.
    #[test]
    fn a_repeated_frame_is_drawn_once_and_streams_the_same_bytes() {
        let stream = |touch_between_frames: bool| {
            let (mut sim, cl, rs) = world_with_model(1);
            sim.world.config.produce_images = true;
            sim.world.config.frame_compression = crate::config::CompressionMode::Adaptive;
            let cam =
                CameraParams::look_at(Vec3::new(0.3, 0.3, 3.0), Vec3::new(0.3, 0.3, 0.0), Vec3::Y);
            sim.world.render_mut(rs).sessions.get_mut(&cl).unwrap().camera = cam;
            stream_frames(&mut sim, cl, 2);
            if touch_between_frames {
                // Frame 1 is issued at t = 0, frame 2 when it is displayed.
                sim.schedule_at(SimTime::from_secs(1e-6), move |sim| {
                    let scene = &mut sim.world.render_mut(rs).scene;
                    let root = scene.root();
                    assert!(scene.set_transform(root, rave_scene::Transform::IDENTITY));
                });
            }
            sim.run();
            let service = sim.world.render(rs);
            let session = &service.sessions[&cl];
            let frames = (session.frames_drawn, session.frames_reused);
            let sent = sim.world.frame_cache.stats(rs, cl).unwrap();
            let stats = sim.world.client(cl).stats.clone();
            assert_eq!(stats.frames, 2);
            assert!(session.last_frame.as_ref().unwrap().coverage(service.renderer.background) > 0);
            let wire = (sent.encoded_bytes, sent.strips_skipped, stats.encoded_bytes);
            (frames, wire, stats.total_latency.mean(), sim.now())
        };
        let (frames, wire, latency, end) = stream(false);
        let (frames_drawn_twice, wire_twice, latency_twice, end_twice) = stream(true);
        assert_eq!(frames, (1, 1), "one draw, one reuse");
        assert_eq!(frames_drawn_twice, (2, 0));
        assert_eq!(wire, wire_twice, "same encoded bytes, same skipped strips");
        assert!(wire.1 > 0, "the second frame's strips were found unchanged");
        assert_eq!((latency, end), (latency_twice, end_twice), "same virtual time");
    }

    #[test]
    fn stream_zero_frames_is_noop() {
        let (mut sim, cl, _) = world_with_model(100);
        stream_frames(&mut sim, cl, 0);
        sim.run();
        assert_eq!(sim.world.client(cl).stats.frames, 0);
    }

    #[test]
    fn depth_one_never_stalls() {
        // The serial cycle has no overlap: every stage is idle when its
        // frame arrives, so nothing ever waits and no stall is traced.
        let (mut sim, cl, _) = world_with_model(830_000);
        stream_frames(&mut sim, cl, 12);
        sim.run();
        let stats = &sim.world.client(cl).stats;
        assert_eq!(stats.stalled_frames, 0);
        assert_eq!(stats.stall_secs, 0.0);
        assert_eq!(sim.world.trace.count(TraceKind::PipelineStall), 0);
        // Every frame still gets a binding-resource verdict.
        let b = stats.bound_by;
        assert_eq!(b.render + b.wire + b.client, 12);
        // The wireless raw hand stream spends most of each frame on the
        // wire (0.208s tx vs 0.091s render).
        assert_eq!(b.dominant(), "wire");
    }

    #[test]
    fn deeper_pipeline_overlaps_and_raises_fps() {
        let (mut sim1, cl1, _) = world_with_model(830_000);
        stream_frames(&mut sim1, cl1, 12);
        sim1.run();
        let serial = sim1.world.client(cl1).stats.clone();

        let (mut sim3, cl3, _) = world_with_model(830_000);
        sim3.world.config.pipeline_depth = 3;
        stream_frames(&mut sim3, cl3, 12);
        sim3.run();
        let piped = sim3.world.client(cl3).stats.clone();

        assert_eq!(piped.frames, 12);
        let (f1, f3) = (serial.fps(), piped.fps());
        assert!(f3 > f1 * 1.4, "overlap raises fps: {f3} vs serial {f1}");
        // Same frames crossed the wire either way.
        assert_eq!(piped.encoded_bytes, serial.encoded_bytes);
        assert_eq!(piped.logical_bytes, serial.logical_bytes);
        // Steady-state frames queue on the bottleneck (the wireless
        // wire), so stalls exist and are traced.
        assert!(piped.stalled_frames > 0);
        assert!(piped.stall_secs > 0.0);
        assert_eq!(sim3.world.trace.count(TraceKind::PipelineStall), piped.stalled_frames as usize);
        assert!(piped.bound_by.wire > piped.bound_by.render);
        // Same wire-busy seconds squeezed into a shorter run: the wire
        // runs nearly continuously once the pipeline fills.
        let u_serial = serial.wire_utilization(serial.last_display.unwrap());
        let u_piped = piped.wire_utilization(piped.last_display.unwrap());
        assert!(
            u_piped > u_serial * 1.3,
            "overlap lifts wire utilization: {u_piped} vs {u_serial}"
        );
    }

    #[test]
    fn pipeline_depth_bounds_frames_in_flight() {
        // With depth 2 the third frame's request may only leave after the
        // first display; its issue time must be >= frame 1's display.
        let (mut sim, cl, _) = world_with_model(830_000);
        sim.world.config.pipeline_depth = 2;
        stream_frames(&mut sim, cl, 12);
        sim.run();
        let stats = &sim.world.client(cl).stats;
        assert_eq!(stats.frames, 12);
        // Depth 2 on a wire-dominated stream already approaches the wire
        // ceiling: strictly faster than serial.
        let fps = stats.fps();
        assert!(fps > 3.6, "depth-2 wireless hand fps {fps}");
    }

    #[test]
    fn adaptive_pipeline_is_render_bound() {
        // Compressed frames shrink the wire stage below the 0.091s render,
        // so the pipelined adaptive stream binds on the GPU instead.
        let (mut sim, cl, _) = world_with_model(830_000);
        sim.world.config.frame_compression = crate::config::CompressionMode::Adaptive;
        sim.world.config.pipeline_depth = 3;
        stream_frames(&mut sim, cl, 12);
        sim.run();
        let stats = &sim.world.client(cl).stats;
        assert_eq!(stats.frames, 12);
        assert_eq!(stats.bound_by.dominant(), "render");
        let span = stats.last_display.unwrap();
        assert!(stats.render_utilization(span) > 0.7, "GPU nearly saturated");
    }
}
