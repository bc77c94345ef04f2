//! Parallel renderer head to head: the binned rayon engine versus the
//! serial immediate-mode reference, on full 200x200 frames of the 5.5k-
//! and 50k-triangle Galleon and on the frame the end-to-end benchmark
//! streams (Elle, 50k triangles, 640x480), plus the two band-parallel
//! compositors. The thread grid is 1/2/4/8 clamped to the cores the host
//! has — a pool wider than the machine measures the scheduler, not the
//! engine — and `cores` is written beside it. Emits
//! `BENCH_render_parallel.json` at the repo root with the measured times,
//! alongside the usual criterion lines. The headline claim — checked with
//! an assert at the bottom — is a >= 2x full-frame speedup over the serial
//! reference on the 50k Galleon at the widest pool measured.

use criterion::Criterion;
use rave_math::Vec3;
use rave_models::{build_with_budget, PaperModel};
use rave_render::composite::{blend_volume_layers, depth_composite, VolumeLayer};
use rave_render::{Framebuffer, Renderer};
use rave_scene::{CameraParams, NodeKind, SceneTree};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

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

fn staged(model: PaperModel, budget: u64) -> (SceneTree, CameraParams) {
    let mesh = build_with_budget(model, budget);
    let mut tree = SceneTree::new();
    let root = tree.root();
    tree.add_node(root, "m", NodeKind::Mesh(Arc::new(mesh))).unwrap();
    let b = tree.world_bounds(root);
    let cam = CameraParams::look_at(
        b.center() + Vec3::new(0.0, 0.2 * b.radius(), 2.0 * b.radius()),
        b.center(),
        Vec3::Y,
    );
    (tree, cam)
}

/// Best-of-`n` wall time of `f`, in seconds.
fn time_best<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
}

/// `{"1": a, "2": b, ...}` from per-thread-count timings.
fn json_by_threads(times: &[(usize, f64)]) -> String {
    let fields: Vec<String> = times.iter().map(|(t, s)| format!("\"{t}\": {s:.6}")).collect();
    format!("{{ {} }}", fields.join(", "))
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

    // Criterion lines for the usual `cargo bench` readout (5.5k scene
    // only; the JSON pass below covers every scene).
    let mut c = Criterion::default().sample_size(10);
    {
        let (tree, cam) = staged(PaperModel::Galleon, 5_500);
        let mut fb = Framebuffer::new(200, 200);
        c.bench_function("render_reference_5500", |b| {
            b.iter(|| {
                renderer.render_reference(&tree, &cam, &mut fb);
                std::hint::black_box(fb.get(100, 100));
            })
        });
        for &t in &threads {
            let p = pool(t);
            c.bench_function(&format!("render_binned_5500_{t}t"), |b| {
                b.iter(|| {
                    p.install(|| renderer.render(&tree, &cam, &mut fb));
                    std::hint::black_box(fb.get(100, 100));
                })
            });
        }
    }

    // Headline numbers for BENCH_render_parallel.json: the binned image
    // is checked bit-identical to the serial reference before any timing
    // is trusted, then baseline and parallel runs are timed in
    // *interleaved* rounds (min over 9) so background-load noise hits
    // every configuration equally instead of whichever ran last.
    let mut scene_json = Vec::new();
    let mut speedup_50k = 0.0;
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
        for _ in 0..9 {
            let t0 = Instant::now();
            std::hint::black_box(renderer.render_reference(&tree, &cam, &mut reference));
            baseline = baseline.min(t0.elapsed().as_secs_f64());
            for (i, (_, p)) in pools.iter().enumerate() {
                let t0 = Instant::now();
                std::hint::black_box(p.install(|| renderer.render(&tree, &cam, &mut fb)));
                par[i].1 = par[i].1.min(t0.elapsed().as_secs_f64());
            }
        }
        if (model, budget) == (PaperModel::Galleon, 50_000) {
            speedup_50k = baseline / par.last().expect("grid has 1 thread").1;
        }
        scene_json.push(format!(
            "    {{ \"model\": \"{model:?}\", \"budget\": {budget}, \"frame\": \"{w}x{h}\", \"baseline_serial_secs\": {baseline:.6}, \"parallel_secs\": {} }}",
            json_by_threads(&par)
        ));
    }

    // Band-parallel compositors, same thread sweep on 400x400 inputs.
    let (tree, cam) = staged(PaperModel::Galleon, 5_500);
    let mut a = Framebuffer::new(400, 400);
    renderer.render(&tree, &cam, &mut a);
    let b_buf = a.clone();
    let mut depth = Vec::new();
    let mut blend = Vec::new();
    for &t in &threads {
        let p = pool(t);
        depth.push((
            t,
            time_best(5, || {
                let mut dst = Framebuffer::new(400, 400);
                p.install(|| depth_composite(&mut dst, &[&a, &b_buf]));
                dst.get(0, 0)
            }),
        ));
        let mut layers = synthetic_layers(400, 400, 4);
        blend.push((
            t,
            time_best(5, || {
                let mut dst = Framebuffer::new(400, 400);
                p.install(|| blend_volume_layers(&mut dst, &mut layers));
                dst.get(0, 0)
            }),
        ));
    }

    let widest = threads.last().expect("grid has 1 thread");
    let out = format!(
        "{{\n  \"bench\": \"parallel_render\",\n  \"cores\": {cores},\n  \"threads\": {threads:?},\n  \"scenes\": [\n{}\n  ],\n  \"compositors\": {{\n    \"depth_composite_400x400_x2\": {},\n    \"blend_volume_layers_400x400_x4\": {}\n  }},\n  \"speedup_50k_threads\": {widest},\n  \"speedup_50k\": {speedup_50k:.2}\n}}\n",
        scene_json.join(",\n"),
        json_by_threads(&depth),
        json_by_threads(&blend),
    );
    let dest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_render_parallel.json");
    std::fs::write(&dest, &out).unwrap();
    println!("{out}");
    println!("wrote {}", dest.display());
    assert!(
        speedup_50k >= 2.0,
        "binned engine at {widest} threads should be >= 2x the serial reference \
         on the 50k-triangle frame (got {speedup_50k:.2}x)"
    );
}
