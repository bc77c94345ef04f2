//! Parallel renderer head to head: the binned rayon engine versus the
//! serial immediate-mode reference, on full 200x200 frames of the 5.5k-
//! and 50k-triangle Galleon and on the frame the end-to-end benchmark
//! streams (Elle, 50k triangles, 640x480), plus the two compositors (the
//! depth merge, serial, and the band-parallel volume blend), and the frame
//! of the end-to-end benchmark's tiled workload (Elle 50k, 800x600)
//! rendered whole, as four column strips, and through `render_tiled_frame`.
//! The thread grid is 1/2/4/8 clamped to the cores the host
//! has — a pool wider than the machine measures the scheduler, not the
//! engine. Emits `BENCH_render_parallel.json` at the repo root with the
//! measured times (`BENCH_QUICK=1` times fewer rounds). The headline numbers,
//! which `check` holds to their floors, are `speedup_50k`: the full-frame
//! speedup over the serial reference on the 50k Galleon at the widest
//! pool measured; and `tiled.strips4_over_monolithic`: what the four
//! strips cost together over the whole frame on one thread — the work a
//! tiled frame repeats, with no scheduler in the number (the ratio at the
//! other pool widths is reported beside it); and
//! `session.static_over_moving`: what a frame nothing changed for costs a
//! session over one the camera moved for; and
//! `tiled_frame.static_over_moving`: the same for a whole tiled frame —
//! four services, lossless tile returns, the owner's composite; and
//! `subpixel.binned_1t_over_reference`: the binned engine on one thread
//! over the reference's whole-box scan on the Elle frame, where a triangle
//! is smaller than a pixel and per-triangle overhead, not fill, is the
//! frame.

use bench::harness::{best_of, median, num, obj, pool, quick, secs, staged, Report};
use rave_core::config::CompressionMode;
use rave_core::render_service::RenderService;
use rave_core::tiles::{plan_tiles, render_tiled_frame};
use rave_core::world::RaveWorld;
use rave_core::{ClientId, RaveConfig, RenderServiceId};
use rave_math::Viewport;
use rave_models::PaperModel;
use rave_render::composite::{blend_volume_layers, depth_composite, stitch_tiles, VolumeLayer};
use rave_render::{Framebuffer, MachineProfile, OffscreenMode, Renderer};
use rave_sim::Simulation;
use serde::{Serialize, Value};
use std::collections::BTreeSet;

/// (model, triangle budget, frame) of each timed scene.
const SCENES: [(PaperModel, u64, (u32, u32)); 3] = [
    (PaperModel::Galleon, 5_500, (200, 200)),
    (PaperModel::Galleon, 50_000, (200, 200)),
    (PaperModel::Elle, 50_000, (640, 480)),
];

/// 1/2/4/8 threads, no wider than the host.
fn thread_grid(cores: usize) -> Vec<usize> {
    [1, 2, 4, 8].into_iter().filter(|&t| t <= cores.max(1)).collect()
}

/// `{"1": a, "2": b, ...}` from per-thread-count timings.
fn by_threads(times: &[(usize, f64)]) -> Value {
    Value::Map(times.iter().map(|(t, s)| (t.to_string(), num(*s, 6))).collect())
}

fn synthetic_layers(width: u32, height: u32, n: usize) -> Vec<VolumeLayer> {
    (0..n)
        .map(|i| {
            let color = (0..(width * height) as usize)
                .map(|p| {
                    let t = (p % 97) as f32 / 97.0;
                    [t, 1.0 - t, 0.5, 0.25 + 0.1 * i as f32]
                })
                .collect();
            VolumeLayer { color, view_distance: 10.0 - i as f32, width, height }
        })
        .collect()
}

fn main() {
    let renderer = Renderer::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = thread_grid(cores);
    let rounds = if quick() { 3 } else { 9 };

    // Headline numbers for BENCH_render_parallel.json: the binned image
    // is checked bit-identical to the serial reference before any timing
    // is trusted, then baseline and parallel runs are timed in
    // *interleaved* rounds (min over them) so background-load noise hits
    // every configuration equally instead of whichever ran last.
    let mut scenes = Vec::new();
    let mut speedup_50k = 0.0;
    let mut subpixel = Value::Null;
    for (model, budget, (w, h)) in SCENES {
        let (tree, cam) = staged(model, budget);
        let mut reference = Framebuffer::new(w, h);
        let ref_stats = renderer.render_reference(&tree, &cam, &mut reference);
        let pools: Vec<(usize, rayon::ThreadPool)> =
            threads.iter().map(|&t| (t, pool(t))).collect();
        let mut fb = Framebuffer::new(w, h);
        for (t, p) in &pools {
            let stats = p.install(|| renderer.render(&tree, &cam, &mut fb));
            assert!(
                reference == fb && ref_stats.raster == stats.raster,
                "binned output differs from serial reference ({model:?} {budget} tris, {t} threads)"
            );
        }
        let mut baseline = f64::INFINITY;
        let mut par: Vec<(usize, f64)> = threads.iter().map(|&t| (t, f64::INFINITY)).collect();
        for _ in 0..rounds {
            baseline =
                baseline.min(secs(|| renderer.render_reference(&tree, &cam, &mut reference)));
            for (i, (_, p)) in pools.iter().enumerate() {
                let t = secs(|| p.install(|| renderer.render(&tree, &cam, &mut fb)));
                par[i].1 = par[i].1.min(t);
            }
        }
        if (model, budget) == (PaperModel::Galleon, 50_000) {
            speedup_50k = baseline / par.last().expect("grid has 1 thread").1;
        }
        // The sub-pixel regime: about one shaded fragment a triangle, so
        // what a frame costs is what a triangle costs before any pixel.
        if model == PaperModel::Elle {
            let raster = ref_stats.raster;
            let binned_1t = par[0].1;
            subpixel = obj([
                ("scene", format!("{model:?} {budget}, {w}x{h}").to_value()),
                (
                    "fragments_shaded_per_triangle",
                    num(raster.fragments_shaded as f64 / raster.triangles_rasterized as f64, 3),
                ),
                ("reference_secs", num(baseline, 6)),
                ("binned_1t_secs", num(binned_1t, 6)),
                ("binned_1t_over_reference", num(binned_1t / baseline, 3)),
            ]);
        }
        scenes.push(obj([
            ("model", format!("{model:?}").to_value()),
            ("budget", budget.to_value()),
            ("frame", format!("{w}x{h}").to_value()),
            ("baseline_serial_secs", num(baseline, 6)),
            ("parallel_secs", by_threads(&par)),
        ]));
    }

    // Compositors on 400x400 inputs: the depth merge has one, serial path;
    // the band-parallel volume blend gets the thread sweep.
    let (tree, cam) = staged(PaperModel::Galleon, 5_500);
    let mut a = Framebuffer::new(400, 400);
    renderer.render(&tree, &cam, &mut a);
    let b_buf = a.clone();
    let depth_secs = best_of(rounds.min(5), || {
        let mut dst = Framebuffer::new(400, 400);
        depth_composite(&mut dst, &[&a, &b_buf]);
        dst.get(0, 0)
    });
    let mut blend = Vec::new();
    for &t in &threads {
        let p = pool(t);
        let mut layers = synthetic_layers(400, 400, 4);
        blend.push((
            t,
            best_of(rounds.min(5), || {
                let mut dst = Framebuffer::new(400, 400);
                p.install(|| blend_volume_layers(&mut dst, &mut layers));
                dst.get(0, 0)
            }),
        ));
    }

    // A tile pays for its part of the picture: the four column strips of
    // the frame against the frame rendered whole, each strip checked
    // against the reference first, whole frame and strips timed in
    // interleaved rounds — three times as many as the scenes above get:
    // the ratio needs five quiet timings, and a round is 20 ms. The strips
    // the model does not reach (the outer two, with this camera) are what
    // a tile of background costs.
    let (tree, cam) = staged(PaperModel::Elle, 50_000);
    let frame = Viewport::new(800, 600);
    let strips = frame.split_tiles(4, 1);
    let mut whole = Framebuffer::new(frame.width, frame.height);
    let mut strip_fbs: Vec<Framebuffer> =
        strips.iter().map(|t| Framebuffer::new(t.width, t.height)).collect();
    let mut empty = Vec::new();
    for (tile, fb) in strips.iter().zip(&mut strip_fbs) {
        let mut reference = Framebuffer::new(tile.width, tile.height);
        let want = renderer.render_tile_reference(&tree, &cam, &frame, tile, &mut reference);
        let got = renderer.render_tile(&tree, &cam, &frame, tile, fb);
        assert!(reference == *fb && want == got, "strip {tile:?} differs from the reference");
        empty.push(got.raster.triangles_rasterized == 0);
    }
    assert_eq!(empty, [true, false, false, true], "the model fills the two middle strips");
    let mut tiled_rows: Vec<(usize, [f64; 3])> = Vec::new();
    for &t in &threads {
        let p = pool(t);
        let (mut mono, mut strip_secs) = (f64::INFINITY, [f64::INFINITY; 4]);
        for _ in 0..3 * rounds {
            mono = mono.min(secs(|| p.install(|| renderer.render(&tree, &cam, &mut whole))));
            for (i, (tile, fb)) in strips.iter().zip(&mut strip_fbs).enumerate() {
                let s = secs(|| p.install(|| renderer.render_tile(&tree, &cam, &frame, tile, fb)));
                strip_secs[i] = strip_secs[i].min(s);
            }
        }
        tiled_rows.push((t, [mono, strip_secs.iter().sum(), strip_secs[0].min(strip_secs[3])]));
    }
    let column =
        |i: usize| by_threads(&tiled_rows.iter().map(|(t, r)| (*t, r[i])).collect::<Vec<_>>());
    let ratios: Vec<(usize, f64)> = tiled_rows.iter().map(|(t, r)| (*t, r[1] / r[0])).collect();

    // A frame pays for what changed since the last one: the frame the
    // end-to-end benchmark streams, through a session
    // (`RenderService::rasterize`, default pool). Every other call steps
    // the camera and is drawn; the call after it asks for the same frame
    // and is lent the retained one. Medians, the two kinds interleaved.
    // Beside it, what bounding the model costs a walk now that the tree
    // keeps each payload's box (it re-scanned 25k vertices per call).
    let (tree, cam) = staged(PaperModel::Elle, 50_000);
    let root = tree.root();
    let centre = tree.world_bounds(root).center();
    let world_bounds_us = 1e6 * best_of(20 * rounds, || tree.world_bounds(root));
    let mut service =
        RenderService::new(RenderServiceId(1), "bench", MachineProfile::centrino_laptop());
    service.scene = tree;
    let client = ClientId(1);
    let stream = Viewport::new(640, 480);
    service.open_session(client, stream, cam, OffscreenMode::Sequential);
    let frames = 5 * rounds;
    let (mut moving, mut unchanged) = (Vec::new(), Vec::new());
    for _ in 0..frames {
        service.sessions.get_mut(&client).expect("session is open").camera.orbit(centre, 0.02, 0.0);
        moving.push(secs(|| service.rasterize(client).map(|fb| fb.get(320, 240))));
        unchanged.push(secs(|| service.rasterize(client).map(|fb| fb.get(320, 240))));
    }
    let session = &service.sessions[&client];
    let counted = (session.frames_drawn, session.frames_reused);
    assert_eq!(counted, (frames as u64, frames as u64), "every second frame is lent");
    let mut reference = Framebuffer::new(stream.width, stream.height);
    renderer.render_reference(&service.scene, &session.camera, &mut reference);
    assert!(session.last_frame.as_ref() == Some(&reference), "lent frame differs from reference");
    let (moving_secs, static_secs) = (median(&mut moving), median(&mut unchanged));

    // A frame nobody redrew is not copied: the end-to-end benchmark's
    // tiled frame (four services holding Elle, 800x600 in four strips,
    // tiles returned through the lossless stream) through
    // `render_tiled_frame`, the image dropped before the next frame is
    // asked for. Every other frame steps the camera: every tile is drawn
    // and copied into the owner's composite; the frame after it draws and
    // copies nothing. Medians, the two kinds interleaved; beside them what
    // stitching a moving frame's four tiles into a kept target costs.
    let config = RaveConfig {
        produce_images: true,
        frame_compression: CompressionMode::Adaptive,
        ..RaveConfig::default()
    };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(config, 1));
    let hosts = ["laptop", "tower", "desktop", "onyx"];
    let services = hosts.map(|host| sim.world.spawn_render_service(host));
    for rs in services {
        sim.world.render_mut(rs).scene = service.scene.clone();
    }
    let (owner, helpers) = (services[0], &services[1..]);
    let mut camera = cam;
    sim.world.render_mut(owner).open_session(client, frame, camera, OffscreenMode::Sequential);
    let cfg = sim.world.config.clone();
    let reports: Vec<_> =
        helpers.iter().map(|h| sim.world.render(*h).capacity_report(&cfg)).collect();
    let plan = plan_tiles(&frame, owner, &reports);
    assert_eq!(plan.tiles.len(), 4, "owner and three helpers each take a strip");
    let nobody = BTreeSet::new();
    let tiled_frames = 3 * rounds;
    let mut stitch_target = Framebuffer::new(frame.width, frame.height);
    let (mut moving, mut unchanged, mut stitch) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..tiled_frames {
        for moves in [true, false] {
            if moves {
                camera.orbit(centre, 0.05, 0.0);
            }
            let mut completed_at = sim.now();
            let frame_secs = secs(|| {
                let result = render_tiled_frame(&mut sim, owner, client, &plan, camera, &nobody);
                completed_at = result.completed_at;
                result.image.map(|image| image.get(400, 300))
            });
            if moves { &mut moving } else { &mut unchanged }.push(frame_secs);
            sim.run_until(completed_at);
        }
        let tiles: Vec<(Viewport, &Framebuffer)> = plan
            .tiles
            .iter()
            .map(|(vp, rs)| {
                let session = &sim.world.render(*rs).sessions[&client];
                (*vp, session.last_frame.as_ref().expect("the tile is retained"))
            })
            .collect();
        stitch.push(secs(|| stitch_tiles(&mut stitch_target, &tiles)));
    }
    for rs in services {
        let session = &sim.world.render(rs).sessions[&client];
        let counted = (session.frames_drawn, session.frames_reused);
        assert_eq!(counted, (tiled_frames as u64, tiled_frames as u64), "{rs}: every second tile");
    }
    let mut whole = Framebuffer::new(frame.width, frame.height);
    renderer.render_reference(&service.scene, &camera, &mut whole);
    let last = render_tiled_frame(&mut sim, owner, client, &plan, camera, &nobody);
    assert!(last.image.as_ref() == Some(&whole), "tiled frame differs from the monolithic render");
    assert!(last.image.as_ref() == Some(&stitch_target), "and from a stitch of its tiles");
    let (tiled_moving, tiled_static) = (median(&mut moving), median(&mut unchanged));
    let stitch_secs = median(&mut stitch);

    Report::new("render_parallel")
        .set("threads", &threads)
        .set("scenes", scenes)
        .set(
            "compositors",
            obj([
                ("depth_composite_400x400_x2_secs", num(depth_secs, 6)),
                ("blend_volume_layers_400x400_x4", by_threads(&blend)),
            ]),
        )
        .set(
            "tiled",
            obj([
                ("scene", "Elle 50000, 800x600, four column strips".to_value()),
                ("monolithic_secs", column(0)),
                ("strips4_secs", column(1)),
                ("empty_strip_secs", column(2)),
                (
                    "strips4_over_monolithic_by_threads",
                    Value::Map(ratios.iter().map(|(t, r)| (t.to_string(), num(*r, 3))).collect()),
                ),
                ("strips4_over_monolithic", num(ratios[0].1, 3)),
            ]),
        )
        .set(
            "session",
            obj([
                ("scene", "Elle 50000, 640x480, RenderService::rasterize".to_value()),
                ("moving_secs", num(moving_secs, 6)),
                ("static_secs", num(static_secs, 9)),
                ("static_over_moving", num(static_secs / moving_secs, 6)),
                ("world_bounds_50k_us", num(world_bounds_us, 2)),
            ]),
        )
        .set(
            "tiled_frame",
            obj([
                ("scene", "Elle 50000, 800x600, four strips, render_tiled_frame".to_value()),
                ("moving_frame_us", num(1e6 * tiled_moving, 1)),
                ("static_frame_us", num(1e6 * tiled_static, 1)),
                ("static_over_moving", num(tiled_static / tiled_moving, 4)),
                ("stitch_us", num(1e6 * stitch_secs, 1)),
                ("stitch_share_of_moving", num(stitch_secs / tiled_moving, 4)),
            ]),
        )
        .set("subpixel", subpixel)
        .set("speedup_50k_threads", *threads.last().expect("grid has 1 thread"))
        .set("speedup_50k", num(speedup_50k, 2))
        .write();
}
