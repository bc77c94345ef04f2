//! Criterion micro-benches for the software renderer: full-frame
//! rasterization, tile rendering, and the two compositors.

use bench::harness::staged;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rave_math::Viewport;
use rave_models::PaperModel;
use rave_render::composite::{depth_composite, stitch_tiles};
use rave_render::{Framebuffer, Renderer};

fn bench_fullframe(c: &mut Criterion) {
    let mut g = c.benchmark_group("rasterize_full_frame_200x200");
    for budget in [5_500u64, 50_000] {
        let (tree, cam) = staged(PaperModel::Galleon, budget);
        let renderer = Renderer::default();
        g.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, _| {
            let mut fb = Framebuffer::new(200, 200);
            b.iter(|| {
                renderer.render(&tree, &cam, &mut fb);
                std::hint::black_box(fb.get(100, 100));
            });
        });
    }
    g.finish();
}

fn bench_tiles(c: &mut Criterion) {
    let (tree, cam) = staged(PaperModel::Galleon, 5_500);
    let renderer = Renderer::default();
    let vp = Viewport::new(200, 200);
    let mut g = c.benchmark_group("rasterize_one_tile_of_4");
    let tile = vp.split_tiles(2, 2)[0];
    g.bench_function("tile_100x100", |b| {
        let mut fb = Framebuffer::new(tile.width, tile.height);
        b.iter(|| {
            renderer.render_tile(&tree, &cam, &vp, &tile, &mut fb);
            std::hint::black_box(fb.get(10, 10));
        });
    });
    g.finish();
}

fn bench_compositors(c: &mut Criterion) {
    let (tree, cam) = staged(PaperModel::Galleon, 5_500);
    let renderer = Renderer::default();
    let mut a = Framebuffer::new(400, 400);
    renderer.render(&tree, &cam, &mut a);
    let b_buf = a.clone();

    c.bench_function("depth_composite_400x400_x2", |b| {
        b.iter(|| {
            let mut dst = Framebuffer::new(400, 400);
            depth_composite(&mut dst, &[&a, &b_buf]);
            std::hint::black_box(dst.get(0, 0));
        });
    });

    let vp = Viewport::new(400, 400);
    let tiles: Vec<_> = vp.split_tiles(2, 2).into_iter().map(|t| (t, a.crop(t))).collect();
    c.bench_function("stitch_tiles_400x400_x4", |b| {
        b.iter(|| {
            let mut dst = Framebuffer::new(400, 400);
            let refs: Vec<_> = tiles.iter().map(|(v, f)| (*v, f)).collect();
            stitch_tiles(&mut dst, &refs);
            std::hint::black_box(dst.get(0, 0));
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fullframe, bench_tiles, bench_compositors
}
criterion_main!(benches);
