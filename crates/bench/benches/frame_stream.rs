//! Frame-streaming head to head: the word-wide RLE/delta kernels versus
//! their scalar reference encoders on render-like 640x480 frames, the
//! RGB565 kernels the PDA stream picks, the dirty-strip container around
//! them — alone, and driven the way a `FrameChannel` drives it, with
//! retained buffers — and the simulated
//! §5.1 PDA session (0.83M polygons, 200x200, wireless) with the raw
//! 24 bpp transfer replaced by the adaptive compressed stream. Emits
//! `BENCH_frame_stream.json` at the repo root. The headline claims —
//! held by `check` — are >= 2x kernel throughput for both word-wide
//! encoders, a static frame's send within a few compares and a moving
//! frame's within a fraction of its codec's two passes, a session send of
//! the render its stream already holds under half a compare, a higher
//! simulated fps for the adaptive stream, and the pipeline floors of the
//! virtual-time depth grid. `BENCH_QUICK=1` runs fewer timing rounds and
//! frames.

use bench::harness::{num, obj, quick, secs, staged, Report};
use rave_compress::adaptive::EndpointSpeed;
use rave_compress::{delta, quantize, rle, stream, Codec};
use rave_core::config::CompressionMode;
use rave_core::frame_stream::{send_frame, synthesize_frame, Outgoing};
use rave_core::thin_client::{connect, stream_frames, ALLOW_LOSSY_FRAMES};
use rave_core::world::RaveWorld;
use rave_core::{ClientId, RaveConfig, RenderServiceId};
use rave_math::{Vec3, Viewport};
use rave_models::PaperModel;
use rave_render::OffscreenMode;
use rave_scene::{MeshData, NodeKind};
use rave_sim::Simulation;
use serde::{Serialize, Value};
use std::sync::Arc;

const FRAME: (u32, u32) = (640, 480);

/// The §5.1 hand scenario: one render service holding a `polys`-triangle
/// mesh, one PDA over the wireless link.
fn pda_session(polys: usize, mode: CompressionMode) -> (Simulation<RaveWorld>, ClientId) {
    let config = RaveConfig { frame_compression: mode, ..RaveConfig::default() };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(config, 7));
    let rs: RenderServiceId = sim.world.spawn_render_service("laptop");
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
    (sim, cl)
}

fn streamed_fps(polys: usize, frames: u64, mode: CompressionMode) -> (f64, f64) {
    let (mut sim, cl) = pda_session(polys, mode);
    stream_frames(&mut sim, cl, frames);
    sim.run();
    let stats = &sim.world.client(cl).stats;
    (stats.fps(), stats.compression_ratio())
}

/// One pipelined stream at a given depth: fps, wire utilization over the
/// run, stall count, and the per-frame wire occupancy (for the ceiling).
struct PipeRun {
    fps: f64,
    wire_util: f64,
    stalls: u64,
    wire_busy: f64,
    frames: u64,
}

fn pipelined_run(polys: usize, frames: u64, mode: CompressionMode, depth: usize) -> PipeRun {
    let (mut sim, cl) = pda_session(polys, mode);
    sim.world.config.pipeline_depth = depth;
    stream_frames(&mut sim, cl, frames);
    sim.run();
    let stats = &sim.world.client(cl).stats;
    let span = stats.last_display.expect("frames displayed");
    PipeRun {
        fps: stats.fps(),
        wire_util: stats.wire_utilization(span),
        stalls: stats.stalled_frames,
        wire_busy: stats.wire_busy,
        frames: stats.frames,
    }
}

/// What a `FrameChannel` keeps between frames, and the three steps
/// `frame_stream::send_frame_after` makes of them.
struct Channel {
    last_raw: Vec<u8>,
    prev_view: Vec<u8>,
    container: Vec<u8>,
    strips: u16,
}

impl Channel {
    fn send(&mut self, cur: &[u8]) {
        stream::encode_frame_into(
            Codec::Quant565,
            cur,
            Some(&self.last_raw),
            Some(&self.prev_view),
            self.strips,
            &mut self.container,
        );
        stream::decode_frame_in_place(&self.container, &mut self.prev_view)
            .expect("self-encoded container must decode");
        stream::copy_dirty_strips(&self.container, cur, &mut self.last_raw);
    }
}

/// A render service on the PDA stream's laptop holding one rendered
/// `w`x`h` session frame of the 5.5k Galleon, streamed to the PDA once:
/// the stream now holds that render.
fn held_session(w: u32, h: u32) -> (RaveWorld, RenderServiceId, ClientId) {
    let mut world = RaveWorld::paper_testbed(RaveConfig::default(), 7);
    let rs = world.spawn_render_service("laptop");
    let client = ClientId(1);
    let (tree, camera) = staged(PaperModel::Galleon, 5_500);
    let service = world.render_mut(rs);
    service.scene = tree;
    service.open_session(client, Viewport::new(w, h), camera, OffscreenMode::Sequential);
    service.rasterize(client).expect("session opened above");
    resend(&mut world, rs, client);
    (world, rs, client)
}

/// One session send of `rs`'s frame for `client` to the PDA.
fn resend(world: &mut RaveWorld, rs: RenderServiceId, client: ClientId) {
    let (ws, pda) = (EndpointSpeed::workstation(), EndpointSpeed::pda());
    let t = rave_sim::SimTime::ZERO;
    let frame = Outgoing::Session;
    send_frame(world, t, rs, client, "laptop", "zaurus", frame, ws, pda, ALLOW_LOSSY_FRAMES);
}

fn main() {
    let quick = quick();
    let rounds = if quick { 3 } else { 9 };
    let sim_frames: u64 = if quick { 4 } else { 12 };
    let (w, h) = FRAME;
    let frame_len = (w * h * 3) as usize;
    let mb = frame_len as f64 / 1e6;

    // Render-like content: flat background plus a moving gradient block,
    // the same generator the simulated stream uses. Consecutive frames so
    // the delta base is realistic.
    let prev = synthesize_frame(w, h, 0);
    let cur = synthesize_frame(w, h, 1);

    // The word-wide kernels must be bit-identical to the scalar reference
    // before any timing is trusted.
    assert_eq!(rle::encode(&cur), rle::encode_scalar(&cur));
    assert_eq!(delta::encode(&cur, Some(&prev)), delta::encode_scalar(&cur, Some(&prev)));

    // Interleaved best-of-`rounds` timing so background-load noise hits
    // every configuration equally instead of whichever ran last.
    let mut rle_scalar = f64::INFINITY;
    let mut rle_word = f64::INFINITY;
    let mut delta_scalar = f64::INFINITY;
    let mut delta_word = f64::INFINITY;
    let strips = stream::strip_count_for(frame_len, 16 * 1024);
    let mut strip_container = f64::INFINITY;
    for _ in 0..rounds {
        rle_scalar = rle_scalar.min(secs(|| rle::encode_scalar(&cur)));
        rle_word = rle_word.min(secs(|| rle::encode(&cur)));
        delta_scalar = delta_scalar.min(secs(|| delta::encode_scalar(&cur, Some(&prev))));
        delta_word = delta_word.min(secs(|| delta::encode(&cur, Some(&prev))));
        strip_container = strip_container.min(secs(|| {
            stream::encode_frame(Codec::DeltaRle, &cur, Some(&prev), Some(&prev), strips)
        }));
    }
    // The codec the PDA stream picks, into warm buffers, and a channel's
    // whole send around it: a frame that differs from the last in every
    // strip (two frames taking turns, a byte in every 4 KiB apart) and one
    // that differs in none, beside one compare of the same bytes. Each
    // takes well under a millisecond, so many more rounds than above.
    let stream_rounds = if quick { 30 } else { 300 };
    let turns =
        [cur.clone(), cur.iter().enumerate().map(|(i, &b)| b ^ u8::from(i % 4096 == 0)).collect()];
    let mut ch = Channel { last_raw: vec![], prev_view: vec![], container: vec![], strips };
    ch.send(&turns[0]);
    let mut packed = Vec::with_capacity(frame_len / 3 * 2);
    let mut unpacked = vec![0u8; frame_len];
    let mut q565_encode = f64::INFINITY;
    let mut q565_decode = f64::INFINITY;
    let mut moving_send = f64::INFINITY;
    let mut static_send = f64::INFINITY;
    let mut compare = f64::INFINITY;
    let (mut held, held_rs, held_client) = held_session(w, h);
    let mut resent = f64::INFINITY;
    for round in 0..stream_rounds {
        let frame = &turns[(round + 1) % 2];
        q565_encode = q565_encode.min(secs(|| {
            packed.clear();
            quantize::encode_565_into(frame, &mut packed);
        }));
        q565_decode = q565_decode.min(secs(|| quantize::decode_565_into(&packed, &mut unpacked)));
        moving_send = moving_send.min(secs(|| ch.send(frame)));
        assert_eq!(ch.prev_view, unpacked, "every strip was dirty: the view is the whole decode");
        static_send = static_send.min(secs(|| ch.send(frame)));
        compare = compare.min(secs(|| ch.last_raw == *frame));
        assert_eq!(ch.container.len(), 8 + (strips as usize).div_ceil(8), "nothing was dirty");
        resent = resent.min(secs(|| resend(&mut held, held_rs, held_client)));
    }
    let held_stats = held.frame_cache.stats(held_rs, held_client).expect("the stream sent");
    assert_eq!(held_stats.resent, stream_rounds as u64, "every send after the first is a resend");
    let q565_passes = q565_encode + q565_decode;

    // Simulated PDA fps, raw 24 bpp versus the adaptive stream, on the
    // paper's 0.83M-polygon hand scene. Virtual-time, so deterministic.
    let (fps_raw, _) = streamed_fps(830_000, sim_frames, CompressionMode::Raw);
    let (fps_adaptive, ratio) = streamed_fps(830_000, sim_frames, CompressionMode::Adaptive);

    // Pipelined-vs-serial grid on the same scenario: mode x depth, always
    // 12 frames (virtual-time, deterministic, identical in quick and full
    // runs so `check` can hold `serial_fps` to a fixed band).
    const PIPE_FRAMES: u64 = 12;
    const DEPTHS: [usize; 4] = [1, 2, 3, 4];
    let mut grid = Vec::new();
    let mut runs: Vec<(CompressionMode, usize, PipeRun)> = Vec::new();
    for mode in [CompressionMode::Raw, CompressionMode::Adaptive] {
        for depth in DEPTHS {
            let r = pipelined_run(830_000, PIPE_FRAMES, mode, depth);
            let tag = match mode {
                CompressionMode::Raw => "raw",
                CompressionMode::Adaptive => "adaptive",
            };
            grid.push((
                format!("{tag}_d{depth}"),
                obj([
                    ("fps", num(r.fps, 2)),
                    ("wire_utilization", num(r.wire_util, 3)),
                    ("stalled_frames", r.stalls.to_value()),
                ]),
            ));
            runs.push((mode, depth, r));
        }
    }
    let find = |mode: CompressionMode, depth: usize| -> &PipeRun {
        &runs.iter().find(|(m, d, _)| *m == mode && *d == depth).expect("grid run").2
    };
    let raw_serial = find(CompressionMode::Raw, 1);
    let raw_piped = find(CompressionMode::Raw, 3);
    let ad_serial = find(CompressionMode::Adaptive, 1);
    let ad_piped = find(CompressionMode::Adaptive, 3);
    // The pure-wire-time ceiling: if the wire never idled, the stream
    // would run one frame per tx time.
    let wire_ceiling_fps = raw_piped.frames as f64 / raw_piped.wire_busy;
    let gap_closed = (raw_piped.fps - raw_serial.fps) / (wire_ceiling_fps - raw_serial.fps);
    let serial_fps = ad_serial.fps;
    let pipelined_fps = ad_piped.fps;

    // Depth 2 already overlaps; deeper never hurts.
    let depth_gain = |deep: usize, shallow: usize| {
        [CompressionMode::Raw, CompressionMode::Adaptive]
            .map(|mode| find(mode, deep).fps / find(mode, shallow).fps)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    };

    // Depth 1 must reproduce the serial loop exactly (full mode streams
    // the same 12 frames through both paths).
    if !quick {
        assert!(
            (raw_serial.fps - fps_raw).abs() < 1e-9 && (serial_fps - fps_adaptive).abs() < 1e-9,
            "depth 1 == serial loop: {} vs {fps_raw}, {serial_fps} vs {fps_adaptive}",
            raw_serial.fps
        );
    }

    Report::new("frame_stream")
        .set("frame", format!("{w}x{h}"))
        .set(
            "kernels",
            obj([
                ("rle_scalar_mb_s", num(mb / rle_scalar, 1)),
                ("rle_wordwide_mb_s", num(mb / rle_word, 1)),
                ("rle_speedup", num(rle_scalar / rle_word, 2)),
                ("delta_scalar_mb_s", num(mb / delta_scalar, 1)),
                ("delta_wordwide_mb_s", num(mb / delta_word, 1)),
                ("delta_speedup", num(delta_scalar / delta_word, 2)),
                ("q565_encode_mb_s", num(mb / q565_encode, 1)),
                ("q565_decode_mb_s", num(mb / q565_decode, 1)),
            ]),
        )
        .set("strip_container_mb_s", num(mb / strip_container, 1))
        .set(
            "stream",
            obj([
                ("codec", Codec::Quant565.name().to_value()),
                ("moving_send_us", num(moving_send * 1e6, 1)),
                ("static_send_us", num(static_send * 1e6, 1)),
                ("compare_us", num(compare * 1e6, 1)),
                ("q565_passes_us", num(q565_passes * 1e6, 1)),
                ("moving_send_over_kernels", num(moving_send / q565_passes, 2)),
                ("static_send_over_compare", num(static_send / compare, 2)),
                ("resend_us", num(resent * 1e6, 2)),
                ("resend_over_compare", num(resent / compare, 3)),
            ]),
        )
        .set(
            "sim",
            obj([
                ("fps_raw", num(fps_raw, 2)),
                ("fps_adaptive", num(fps_adaptive, 2)),
                ("fps_gain", num(fps_adaptive / fps_raw, 2)),
                ("compression_ratio", num(ratio, 4)),
            ]),
        )
        .set(
            "pipeline",
            obj([
                ("frames", PIPE_FRAMES.to_value()),
                ("serial_fps", num(serial_fps, 2)),
                ("pipelined_fps", num(pipelined_fps, 2)),
                ("pipeline_speedup", num(pipelined_fps / serial_fps, 2)),
                ("wire_utilization", num(raw_piped.wire_util, 3)),
                ("wire_ceiling_fps", num(wire_ceiling_fps, 2)),
                ("gap_closed", num(gap_closed, 3)),
                ("depth2_over_depth1", num(depth_gain(2, 1), 3)),
                ("depth4_over_depth2", num(depth_gain(4, 2), 3)),
                ("grid", Value::Map(grid)),
            ]),
        )
        .write();
}
