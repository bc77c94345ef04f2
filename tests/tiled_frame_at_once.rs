//! A distributed frame's tiles are drawn at once: `render_tiled_frame`
//! decides lend or draw for every tile first, then draws the tiles that
//! must be drawn in one parallel section whose threads the draws share —
//! side by side, single-threaded or on a share of the threads.
//!
//! The reference draws the same frames tile by tile: before each frame,
//! every service that answers is asked for its tile through
//! `rasterize_session_tile`, one after another in plan order, each draw
//! on every thread, so the frame itself draws nothing and lends them all.
//! Frame for frame, a four-strip plan drawn at once on 1, 2, 3, 4 and 8
//! threads must equal it: the image (colour and depth bits), the tile
//! costs, the tile arrival times, the draws and lends of every service,
//! what each helper's tile stream counted, and the trace rows — with no
//! helper stalled and with one, on frames that draw four tiles, three,
//! two, one and none.

use rave::core::config::CompressionMode;
use rave::core::tiles::{render_tiled_frame, TileCost, TilePlan};
use rave::core::world::RaveWorld;
use rave::core::{ClientId, RaveConfig, RaveSim, RenderServiceId};
use rave::math::{Vec3, Viewport};
use rave::render::{Framebuffer, OffscreenMode, Rgb};
use rave::scene::{CameraParams, MeshData, NodeId, NodeKind, Transform};
use rave::sim::{SimTime, Simulation};
use std::collections::BTreeSet;
use std::sync::Arc;

const CLIENT: ClientId = ClientId(1);
const FULL: Viewport = Viewport { x: 0, y: 0, width: 96, height: 48 };
const MOVED: NodeId = NodeId(2);

/// A grid of `n`×`n` quads over the middle of the view (the inner strips
/// cost far more than the outer ones) and a triangle that the edits move.
fn content() -> [NodeKind; 2] {
    let n = 24u32;
    let mut positions = Vec::new();
    for j in 0..=n {
        for i in 0..=n {
            let (x, y) = (i as f32 / n as f32 - 0.5, j as f32 / n as f32 - 0.5);
            positions.push(Vec3::new(0.9 * x, 1.6 * y, 0.3 * (x * 7.0).sin() * y));
        }
    }
    let mut triangles = Vec::new();
    for j in 0..n {
        for i in 0..n {
            let at = j * (n + 1) + i;
            triangles.push([at, at + 1, at + n + 1]);
            triangles.push([at + 1, at + n + 2, at + n + 1]);
        }
    }
    let grid = MeshData::new(positions, triangles);
    let tri = MeshData::new(
        vec![Vec3::new(-2.4, -0.9, 0.2), Vec3::new(-1.2, -0.9, 0.2), Vec3::new(-1.8, 0.8, 0.4)],
        vec![[0, 1, 2]],
    );
    [NodeKind::Mesh(Arc::new(grid)), NodeKind::Mesh(Arc::new(tri))]
}

/// One frame of the script: whether the camera orbits first, which
/// replicas (0: the owner, 1–3: the helpers) see the moved node first,
/// and which helper, if any, does not answer.
struct Step {
    orbit: bool,
    edit: &'static [usize],
    stalled: Option<usize>,
}

const SCRIPT: [Step; 9] = [
    // The first frame: four draws.
    Step { orbit: false, edit: &[], stalled: None },
    // The camera moved: four draws.
    Step { orbit: true, edit: &[], stalled: None },
    // Nothing moved: every tile lent.
    Step { orbit: false, edit: &[], stalled: None },
    // Moved with an inner helper stalled: three draws.
    Step { orbit: true, edit: &[], stalled: Some(2) },
    // The stalled helper catches up: one draw.
    Step { orbit: false, edit: &[], stalled: None },
    // Two replicas edited: two draws.
    Step { orbit: false, edit: &[1, 2], stalled: None },
    // Moved with the outer helper stalled.
    Step { orbit: true, edit: &[], stalled: Some(3) },
    // Moved, every replica edited, an inner helper stalled.
    Step { orbit: true, edit: &[0, 1, 2, 3], stalled: Some(1) },
    // Caught up again.
    Step { orbit: false, edit: &[], stalled: None },
];

/// One frame: its image (colour, depth bits) and the rest it produced
/// and left behind.
struct Record {
    image: (Vec<Rgb>, Vec<u32>),
    frame: Frame,
}

#[derive(Debug, PartialEq)]
struct Frame {
    tile_costs: Vec<TileCost>,
    tile_arrivals: Vec<SimTime>,
    completed_at: SimTime,
    used_stale_tile: bool,
    /// Per service, in plan order: frames drawn and frames lent.
    counters: Vec<(u64, u64)>,
    /// Per helper: frames, logical and encoded bytes its stream booked.
    streams: Vec<(u64, u64, u64)>,
    /// Whether the frame equals a monolithic render of the owner's scene.
    monolithic: bool,
}

fn camera() -> CameraParams {
    CameraParams::look_at(Vec3::new(0.2, 0.3, 3.0), Vec3::ZERO, Vec3::Y)
}

/// Four services holding the same scene, each with its session open: the
/// owner's on the whole frame, each helper's on its strip of `plan`.
fn world() -> (RaveSim, TilePlan) {
    let cfg = RaveConfig {
        produce_images: true,
        frame_compression: CompressionMode::Adaptive,
        ..RaveConfig::default()
    };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(cfg, 17));
    let services =
        ["laptop", "tower", "desktop", "onyx"].map(|host| sim.world.spawn_render_service(host));
    let plan = TilePlan { tiles: FULL.split_tiles(4, 1).into_iter().zip(services).collect() };
    for (i, (tile, rs)) in plan.tiles.iter().enumerate() {
        let rs = sim.world.render_mut(*rs);
        let root = rs.scene.root();
        for (n, kind) in content().into_iter().enumerate() {
            rs.scene.insert_with_id(NodeId(1 + n as u64), root, "content", kind).unwrap();
        }
        let viewport = if i == 0 { FULL } else { *tile };
        rs.open_session(CLIENT, viewport, camera(), OffscreenMode::Sequential);
    }
    (sim, plan)
}

/// The script on a fresh world, its tiles drawn by the frames themselves
/// or tile by tile ahead of each frame: each frame's record, then the
/// trace.
fn run(tile_by_tile: bool) -> (Vec<Record>, String) {
    let (mut sim, plan) = world();
    let services: Vec<RenderServiceId> = plan.tiles.iter().map(|(_, rs)| *rs).collect();
    let mut camera = camera();
    let mut records = Vec::new();
    // Per service, the tiles asked for ahead of the frames.
    let mut asked_ahead = vec![0u64; services.len()];
    for (n, step) in SCRIPT.iter().enumerate() {
        if step.orbit {
            camera.orbit(Vec3::ZERO, 0.15, 0.05);
        }
        let moved = Transform::from_translation(Vec3::new(0.1 * n as f32, 0.05, 0.0));
        for &i in step.edit {
            assert!(sim.world.render_mut(services[i]).scene.set_transform(MOVED, moved));
        }
        let stalled: BTreeSet<RenderServiceId> =
            step.stalled.map(|i| services[i]).into_iter().collect();
        if tile_by_tile {
            for (i, (tile, rs)) in plan.tiles.iter().enumerate() {
                if !stalled.contains(rs) {
                    let rs = sim.world.render_mut(*rs);
                    rs.rasterize_session_tile(CLIENT, &camera, &FULL, tile).expect("session");
                    asked_ahead[i] += 1;
                }
            }
        }
        let result = render_tiled_frame(&mut sim, services[0], CLIENT, &plan, camera, &stalled);
        let image = result.image.expect("the world renders images");
        let owner = sim.world.render(services[0]);
        let mut whole = Framebuffer::new(FULL.width, FULL.height);
        owner.renderer.render_reference(&owner.scene, &camera, &mut whole);
        let world = &sim.world;
        let image_bits = (
            image.color_pixels().to_vec(),
            image.depth_pixels().iter().map(|d| d.to_bits()).collect(),
        );
        let frame = Frame {
            tile_costs: result.tile_costs,
            tile_arrivals: result.tile_arrivals,
            completed_at: result.completed_at,
            used_stale_tile: result.used_stale_tile,
            // A tile asked for ahead is lent again by the frame.
            counters: services
                .iter()
                .zip(&asked_ahead)
                .map(|(rs, ahead)| {
                    let s = &world.render(*rs).sessions[&CLIENT];
                    (s.frames_drawn, s.frames_reused - ahead)
                })
                .collect(),
            streams: services[1..]
                .iter()
                .map(|rs| {
                    let s = world.frame_cache.stats(*rs, CLIENT).unwrap_or_default();
                    (s.frames, s.logical_bytes, s.encoded_bytes)
                })
                .collect(),
            monolithic: image == whole,
        };
        sim.run_until(frame.completed_at);
        records.push(Record { image: image_bits, frame });
    }
    (records, sim.world.trace.render())
}

#[test]
fn a_plan_drawn_at_once_equals_one_drawn_tile_by_tile() {
    let (tile_by_tile, trace) = run(true);

    // The script reaches what it says it does.
    let per_frame = |counter: fn(&(u64, u64)) -> u64| -> Vec<u64> {
        let totals = tile_by_tile.iter().map(|r| r.frame.counters.iter().map(counter).sum::<u64>());
        let mut before = 0;
        totals.map(|total| total - std::mem::replace(&mut before, total)).collect()
    };
    assert_eq!(per_frame(|c| c.0), [4, 4, 0, 3, 1, 2, 3, 3, 1], "draws per frame");
    assert_eq!(per_frame(|c| c.1), [0, 0, 4, 0, 3, 2, 0, 0, 3], "lends per frame");
    let stale: Vec<bool> = tile_by_tile.iter().map(|r| r.frame.used_stale_tile).collect();
    assert_eq!(stale, SCRIPT.map(|s| s.stalled.is_some()));
    for (n, r) in tile_by_tile.iter().enumerate() {
        // The replicas differ from the last edit of some of them to the
        // next edit of all of them.
        let last_edit = SCRIPT[..=n].iter().rev().find(|s| !s.edit.is_empty());
        let apart = last_edit.is_some_and(|s| s.edit.len() < r.frame.counters.len());
        let expect = SCRIPT[n].stalled.is_none() && !apart;
        assert_eq!(r.frame.monolithic, expect, "frame {n} against a monolithic render");
    }
    // The inner strips cost more than the outer ones, as Elle's do.
    let costs: Vec<u64> = tile_by_tile[1].frame.tile_costs.iter().map(|c| c.cost_units).collect();
    assert!(costs[1].min(costs[2]) > costs[0].max(costs[3]), "{costs:?}");

    for threads in [1, 2, 3, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let (at_once, at_once_trace) = pool.install(|| run(false));
        for (n, (a, b)) in at_once.iter().zip(&tile_by_tile).enumerate() {
            assert!(a.image == b.image, "frame {n} image at {threads} threads");
            assert_eq!(a.frame, b.frame, "frame {n} at {threads} threads");
        }
        assert_eq!(at_once_trace, trace, "trace rows at {threads} threads");
    }
}
