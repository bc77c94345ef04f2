//! Property tests on the pipelined frame path: whatever the pipeline
//! depth, network quality, transport mode, or scene size, the stream must
//! display frames in order, display exactly the requested count, never go
//! slower than the serial baseline, and ship the identical byte stream.

use proptest::prelude::*;
use rave::core::config::CompressionMode;
use rave::core::thin_client::{connect, stream_frames};
use rave::core::trace::TraceKind;
use rave::core::world::{RaveSim, RaveWorld};
use rave::core::{ClientId, RaveConfig};
use rave::math::Vec3;
use rave::net::Network;
use rave::scene::{MeshData, NodeKind};
use rave::sim::Simulation;
use std::sync::Arc;

fn session(polys: usize, mode: CompressionMode, depth: usize, quality: f64) -> (RaveSim, ClientId) {
    let config =
        RaveConfig { frame_compression: mode, pipeline_depth: depth, ..RaveConfig::default() };
    let mut sim = Simulation::new(RaveWorld::new(Network::paper_testbed(quality), config, 7));
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
    (sim, cl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Displays arrive in frame order (nondecreasing trace times), every
    /// requested frame displays, and per-stage busy books stay within the
    /// run's span.
    #[test]
    fn displays_ordered_and_complete(
        depth in 1usize..6,
        frames in 1u64..11,
        polys_i in 0usize..3,
        adaptive in any::<bool>(),
        quality_i in 0usize..3,
    ) {
        let polys = [10_000usize, 300_000, 830_000][polys_i];
        let quality = [0.5f64, 0.8, 1.0][quality_i];
        let mode = if adaptive { CompressionMode::Adaptive } else { CompressionMode::Raw };
        let (mut sim, cl) = session(polys, mode, depth, quality);
        stream_frames(&mut sim, cl, frames);
        sim.run();
        let stats = &sim.world.client(cl).stats;
        prop_assert_eq!(stats.frames, frames);
        let displays: Vec<_> =
            sim.world.trace.of_kind(TraceKind::FrameDelivered).map(|e| e.at).collect();
        prop_assert_eq!(displays.len() as u64, frames);
        for w in displays.windows(2) {
            prop_assert!(w[0] <= w[1], "display order monotone: {:?} then {:?}", w[0], w[1]);
        }
        // Stall records only ever appear with real overlap.
        if depth == 1 {
            prop_assert_eq!(sim.world.trace.count(TraceKind::PipelineStall), 0);
            prop_assert_eq!(stats.stalled_frames, 0);
        }
        // No stage can be busy longer than the whole run.
        let span = stats.last_display.unwrap().as_secs();
        for busy in [stats.render_busy, stats.encode_busy, stats.wire_busy, stats.client_busy] {
            prop_assert!(busy <= span + 1e-9, "stage busy {busy} inside span {span}");
        }
        let b = stats.bound_by;
        prop_assert_eq!(b.render + b.wire + b.client, frames);
    }

    /// Any depth ships the exact bytes the serial run ships (same codec
    /// decisions, same encoded sizes), and never finishes later.
    #[test]
    fn any_depth_matches_serial_bytes(
        depth in 2usize..6,
        frames in 2u64..11,
        polys_i in 0usize..2,
        adaptive in any::<bool>(),
    ) {
        let polys = [10_000usize, 830_000][polys_i];
        let mode = if adaptive { CompressionMode::Adaptive } else { CompressionMode::Raw };
        let (mut serial, cl_s) = session(polys, mode, 1, 1.0);
        stream_frames(&mut serial, cl_s, frames);
        serial.run();
        let (mut piped, cl_p) = session(polys, mode, depth, 1.0);
        stream_frames(&mut piped, cl_p, frames);
        piped.run();
        let a = &piped.world.client(cl_p).stats;
        let b = &serial.world.client(cl_s).stats;
        prop_assert_eq!(a.encoded_bytes, b.encoded_bytes, "wire bytes depth-invariant");
        prop_assert_eq!(a.logical_bytes, b.logical_bytes);
        prop_assert!(
            a.last_display.unwrap() <= b.last_display.unwrap(),
            "overlap never slower: {:?} vs {:?}", a.last_display, b.last_display
        );
    }
}
