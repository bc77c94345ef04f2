//! Parity pin for the pipelined frame-path refactor: at
//! `pipeline_depth = 1` the staged pipeline must reproduce the
//! pre-refactor strictly-serial frame cycle *bit-identically* — the same
//! FrameStats (every Table-2 column, every byte counter), the same trace
//! stream byte-for-byte, and the same channel accounting. The reference
//! implementation below is the old `thin_client::frame_cycle` embedded
//! verbatim (modulo paths), still driven through the same public
//! transport/cost APIs.

use rave::compress::adaptive::EndpointSpeed;
use rave::core::config::CompressionMode;
use rave::core::frame_stream::{self, StreamStats};
use rave::core::thin_client::{connect, stream_frames, ImportMode};
use rave::core::trace::TraceEvent;
use rave::core::world::{RaveSim, RaveWorld};
use rave::core::{ClientId, RaveConfig, RenderServiceId};
use rave::math::{Vec3, Viewport};
use rave::scene::{MeshData, NodeKind};
use rave::sim::{SimTime, Simulation};
use std::sync::Arc;

/// The pre-refactor serial frame cycle, kept as the parity reference:
/// one closed loop per frame — request, render, transfer, import,
/// display — with the next cycle issued from inside the display event.
fn reference_stream(sim: &mut RaveSim, client_id: ClientId, frames: u64) {
    if frames == 0 {
        return;
    }
    reference_cycle(sim, client_id, frames);
}

fn reference_cycle(sim: &mut RaveSim, client_id: ClientId, remaining: u64) {
    let t0 = sim.now();
    let Some(rs_id) = sim.world.client(client_id).render_service else { return };
    let client_host = sim.world.client(client_id).host.clone();
    let rs_host = sim.world.render(rs_id).host.clone();

    // 1. Interaction/camera request (small control message).
    let t_request_arrives = sim.world.send_bytes(t0, &client_host, &rs_host, 64);

    // 2. Off-screen render at the service.
    let render_cost = sim
        .world
        .render(rs_id)
        .offscreen_render_cost(client_id)
        .expect("thin client session must be off-screen capable");
    let t_rendered = t_request_arrives + SimTime::from_secs(render_cost.total());

    // 3. Image transfer back: uncompressed 24 bpp or the adaptive
    // compressed stream, per config.
    let frame_bytes = {
        let c = sim.world.client(client_id);
        c.viewport.pixel_count() as u64 * 3
    };
    let (t_image_arrives, decode_secs, encoded_bytes) = match sim.world.config.frame_compression {
        CompressionMode::Raw => {
            let t = sim.world.send_bytes(t_rendered, &rs_host, &client_host, frame_bytes);
            (t, 0.0, frame_bytes)
        }
        CompressionMode::Adaptive => {
            let (vp, seq) = {
                let c = sim.world.client(client_id);
                (c.viewport, c.stats.frames)
            };
            let rgb = if sim.world.config.produce_images {
                sim.world
                    .render_mut(rs_id)
                    .rasterize(client_id)
                    .map(|fb| fb.to_rgb_bytes())
                    .unwrap_or_else(|| frame_stream::synthesize_frame(vp.width, vp.height, seq))
            } else {
                frame_stream::synthesize_frame(vp.width, vp.height, seq)
            };
            let allow_lossy = rave::core::thin_client::ALLOW_LOSSY_FRAMES;
            let out = frame_stream::send_frame(
                &mut sim.world,
                t_rendered,
                rs_id,
                client_id,
                &rs_host,
                &client_host,
                frame_stream::Outgoing::Rgb(&rgb),
                EndpointSpeed::workstation(),
                EndpointSpeed::pda(),
                allow_lossy,
            );
            (out.arrival, out.decode_secs, out.encoded_bytes)
        }
    };
    let receipt = t_image_arrives - t_rendered;

    // 4. Decode + import + blit + GUI overhead at the client, then
    // display.
    let (import, overhead) = {
        let c = sim.world.client(client_id);
        (c.import_time(frame_bytes), c.pda.frame_overhead)
    };
    let client_cpu = decode_secs + import + overhead;
    let t_displayed = t_image_arrives + SimTime::from_secs(client_cpu);

    let window = rave::core::render_service::FPS_WINDOW;
    sim.schedule_at(t_displayed, move |sim| {
        let now = sim.now();
        {
            let rs = sim.world.render_mut(rs_id);
            rs.record_frame(now, window);
        }
        {
            let c = sim.world.client_mut(client_id);
            c.stats.frames += 1;
            c.stats.total_latency.record((now - t0).as_secs());
            c.stats.receipt.record(receipt.as_secs());
            c.stats.render.record(render_cost.total());
            c.stats.other_overheads.record(client_cpu);
            c.stats.logical_bytes += frame_bytes;
            c.stats.encoded_bytes += encoded_bytes;
            if let Some(last) = c.stats.last_display {
                c.stats.periods.record((now - last).as_secs());
            }
            c.stats.last_display = Some(now);
        }
        sim.world.trace.record(now, TraceEvent::FrameDelivered { client: client_id, via: rs_id });
        if remaining > 1 {
            reference_cycle(sim, client_id, remaining - 1);
        }
    });
}

// ---- scenario harness --------------------------------------------------

struct Scenario {
    polys: usize,
    /// Frames streamed in runs: the camera holds still within a run and
    /// orbits between two.
    runs: &'static [u64],
    mode: CompressionMode,
    viewport: Viewport,
    import: ImportMode,
    produce_images: bool,
}

fn build(sc: &Scenario) -> (RaveSim, ClientId, RenderServiceId) {
    let config = RaveConfig { produce_images: sc.produce_images, ..RaveConfig::default() };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(config, 7));
    sim.world.config.frame_compression = sc.mode;
    let rs = sim.world.spawn_render_service("laptop");
    let mesh = MeshData {
        positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
        normals: vec![],
        colors: vec![],
        triangles: vec![[0, 1, 2]; sc.polys],
        texture_bytes: 0,
    };
    let scene = &mut sim.world.render_mut(rs).scene;
    let root = scene.root();
    scene.add_node(root, "model", NodeKind::Mesh(Arc::new(mesh))).unwrap();
    let cl = sim.world.spawn_thin_client("zaurus");
    {
        let c = sim.world.client_mut(cl);
        c.viewport = sc.viewport;
        c.import_mode = sc.import;
    }
    connect(&mut sim, cl, rs);
    (sim, cl, rs)
}

/// Stream `sc`'s runs through `stream`, orbiting the session camera
/// between two.
fn stream_runs(
    sim: &mut RaveSim,
    sc: &Scenario,
    cl: ClientId,
    rs: RenderServiceId,
    stream: Stream,
) {
    for (i, &frames) in sc.runs.iter().enumerate() {
        if i > 0 {
            let session = sim.world.render_mut(rs).sessions.get_mut(&cl).expect("session");
            session.camera.orbit(Vec3::ZERO, 0.2, 0.05);
        }
        stream(sim, cl, frames);
        sim.run();
    }
}

type Stream = fn(&mut RaveSim, ClientId, u64);

/// Run the live pipeline (depth 1) and the embedded serial reference on
/// twin worlds and demand bit-identical books; the two frame streams'
/// counters, live then reference, when the scenario compresses.
fn assert_depth1_parity(sc: &Scenario) -> Option<(StreamStats, StreamStats)> {
    let (mut live, cl_live, rs_live) = build(sc);
    stream_runs(&mut live, sc, cl_live, rs_live, stream_frames);

    let (mut refr, cl_ref, rs_ref) = build(sc);
    stream_runs(&mut refr, sc, cl_ref, rs_ref, reference_stream);

    // Virtual clocks ended at the same instant.
    assert_eq!(live.now(), refr.now(), "end-of-run clock");

    // Every Table-2 column, bit-for-bit (Debug shows each Histogram's
    // running sum and count).
    let a = &live.world.client(cl_live).stats;
    let b = &refr.world.client(cl_ref).stats;
    assert_eq!(a.frames, b.frames);
    assert_eq!(format!("{:?}", a.periods), format!("{:?}", b.periods));
    assert_eq!(format!("{:?}", a.total_latency), format!("{:?}", b.total_latency));
    assert_eq!(format!("{:?}", a.receipt), format!("{:?}", b.receipt));
    assert_eq!(format!("{:?}", a.render), format!("{:?}", b.render));
    assert_eq!(format!("{:?}", a.other_overheads), format!("{:?}", b.other_overheads));
    assert_eq!(a.last_display, b.last_display);
    assert_eq!(a.logical_bytes, b.logical_bytes);
    assert_eq!(a.encoded_bytes, b.encoded_bytes);

    // The serial cycle never stalls, so the pipeline books no waits and
    // the trace streams are byte-identical (no PipelineStall records).
    assert_eq!(a.stalled_frames, 0);
    assert_eq!(a.stall_secs, 0.0);
    assert_eq!(live.world.trace.render(), refr.world.trace.render(), "trace byte parity");

    // Channel accounting (wire + logical bytes, message counts) matches
    // in both directions.
    let (ch_l, cc_l) = {
        let rs_host = live.world.render(rs_live).host.clone();
        let cl_host = live.world.client(cl_live).host.clone();
        let down = live.world.channel(&rs_host, &cl_host);
        let down_books = (down.bytes_sent(), down.logical_bytes_sent(), down.messages_sent());
        let up = live.world.channel(&cl_host, &rs_host);
        (down_books, (up.bytes_sent(), up.messages_sent()))
    };
    let (ch_r, cc_r) = {
        let rs_host = refr.world.render(rs_ref).host.clone();
        let cl_host = refr.world.client(cl_ref).host.clone();
        let down = refr.world.channel(&rs_host, &cl_host);
        let down_books = (down.bytes_sent(), down.logical_bytes_sent(), down.messages_sent());
        let up = refr.world.channel(&cl_host, &rs_host);
        (down_books, (up.bytes_sent(), up.messages_sent()))
    };
    assert_eq!(ch_l, ch_r, "frame channel books");
    assert_eq!(cc_l, cc_r, "request channel books");

    // The two streams counted the same frames, bytes, switches and strips.
    let live_stream = live.world.frame_cache.stats(rs_live, cl_live);
    let ref_stream = refr.world.frame_cache.stats(rs_ref, cl_ref);
    let books = |s: StreamStats| {
        (
            s.frames,
            s.logical_bytes,
            s.encoded_bytes,
            s.codec_switches,
            s.strips_total,
            s.strips_skipped,
        )
    };
    assert_eq!(live_stream.map(books), ref_stream.map(books), "frame stream books");
    let codec =
        |sim: &RaveSim, rs, cl| sim.world.frame_cache.get(rs, cl).and_then(|c| c.last_codec());
    assert_eq!(codec(&live, rs_live, cl_live), codec(&refr, rs_ref, cl_ref), "last codec");
    live_stream.zip(ref_stream)
}

#[test]
fn depth1_matches_serial_hand_raw() {
    assert_depth1_parity(&Scenario {
        polys: 830_000,
        runs: &[12],
        mode: CompressionMode::Raw,
        viewport: Viewport::new(200, 200),
        import: ImportMode::NativeCast,
        produce_images: false,
    });
}

#[test]
fn depth1_matches_serial_skeleton_raw() {
    assert_depth1_parity(&Scenario {
        polys: 2_800_000,
        runs: &[8],
        mode: CompressionMode::Raw,
        viewport: Viewport::new(200, 200),
        import: ImportMode::NativeCast,
        produce_images: false,
    });
}

#[test]
fn depth1_matches_serial_hand_adaptive() {
    assert_depth1_parity(&Scenario {
        polys: 830_000,
        runs: &[12],
        mode: CompressionMode::Adaptive,
        viewport: Viewport::new(200, 200),
        import: ImportMode::NativeCast,
        produce_images: false,
    });
}

#[test]
fn depth1_matches_serial_vga_viewport() {
    assert_depth1_parity(&Scenario {
        polys: 10_000,
        runs: &[5],
        mode: CompressionMode::Raw,
        viewport: Viewport::new(640, 480),
        import: ImportMode::J2me,
        produce_images: false,
    });
}

/// Rendered frames through the adaptive stream: the live path sends the
/// session's frame, and one the stream already holds as a header; the
/// reference converts every frame with `to_rgb_bytes` and sends the bytes.
/// Thirty-two frames in six camera runs, so frame 30, a re-probe of the
/// codec selector, is lent.
#[test]
fn depth1_matches_serial_rendered_adaptive() {
    let runs: &[u64] = &[5, 7, 1, 9, 4, 6];
    let (live, reference) = assert_depth1_parity(&Scenario {
        polys: 2_000,
        runs,
        mode: CompressionMode::Adaptive,
        viewport: Viewport::new(96, 72),
        import: ImportMode::NativeCast,
        produce_images: true,
    })
    .expect("the scenario compresses");
    let frames: u64 = runs.iter().sum();
    assert_eq!(live.frames, frames);
    assert_eq!(live.resent, frames - runs.len() as u64, "every frame after a run's first");
    assert_eq!(reference.resent, 0, "bytes are no render");
}
