//! Compositing distributed render results.
//!
//! Two schemes, matching §3.2.5:
//!
//! - **Depth compositing** (dataset distribution): each assisting service
//!   renders *its scene subset* over the full viewport and ships color +
//!   depth; the owner merges per pixel by nearest depth. "Compositing is
//!   currently restricted to opaque solids, as this does not require any
//!   specific ordering of frame buffers."
//! - **Tile stitching** (framebuffer distribution): each assistant renders
//!   a *tile* of the viewport; the owner blits tiles into place. Stale
//!   tiles produce the tearing of Fig 5, quantified here by
//!   [`seam_discontinuity`].
//! - **Ordered alpha blending** (volume subsets, §6 future work —
//!   implemented as an extension): layers sorted by view distance and
//!   alpha-blended back-to-front.

use crate::framebuffer::{Framebuffer, Rgb};
use rave_math::Viewport;
use rayon::prelude::*;

/// Merge `sources` into `dst` by per-pixel depth test (all buffers must be
/// the full viewport size). The merge is order-independent for opaque
/// content — asserted by the tests.
///
/// One sweep per source over matching contiguous slices — no per-pixel
/// `get`/`set` calls. Per pixel, sources apply in argument order. Serial:
/// a source is a compare and two moves a pixel, less work than the
/// section start that would split it (BENCH_render_parallel.json had two
/// threads slower than one on two 400x400 sources).
pub fn depth_composite(dst: &mut Framebuffer, sources: &[&Framebuffer]) {
    for src in sources {
        assert_eq!(
            (src.width(), src.height()),
            (dst.width(), dst.height()),
            "depth compositing requires aligned full-viewport buffers"
        );
    }
    let mut whole = dst.as_band();
    let (dc, dz) = whole.planes_mut();
    for src in sources {
        let sc = &src.color_pixels()[..dc.len()];
        let sz = &src.depth_pixels()[..dz.len()];
        for i in 0..dc.len() {
            let z = sz[i];
            if z < 1.0 && z < dz[i] {
                dc[i] = sc[i];
                dz[i] = z;
            }
        }
    }
}

/// Stitch tiles into `dst`. Each entry pairs the tile's viewport placement
/// with its rendered buffer; a tile is one [`Framebuffer::blit`]. Tiles
/// never overlap a pixel (enforced by the planner).
pub fn stitch_tiles(dst: &mut Framebuffer, tiles: &[(Viewport, &Framebuffer)]) {
    for (vp, fb) in tiles {
        assert_eq!((fb.width(), fb.height()), (vp.width, vp.height), "tile size mismatch");
        dst.blit(fb, vp.x, vp.y);
    }
}

/// An RGBA + depth layer from a volume-subset render, tagged with its
/// mean view distance for ordering.
pub struct VolumeLayer {
    pub color: Vec<[f32; 4]>,
    pub view_distance: f32,
    pub width: u32,
    pub height: u32,
}

/// Number of row bands the blend splits its target into: a few per worker
/// for load balance, never more than the row count. The output is
/// bit-identical for any band count — bands only partition the pixels.
fn band_count(height: u32) -> u32 {
    (rayon::current_num_threads() as u32 * 2).clamp(1, height)
}

/// Blend volume layers back-to-front (farthest first) into `dst` over its
/// current contents — the Visapult-style distributed volume composite.
///
/// Band-parallel: after the (serial) distance sort, each row band of
/// `dst` applies every layer in view order over contiguous slices. Each
/// pixel sees the same layer sequence as the serial loop, so the image
/// is bit-identical. Bright overlapping layers can push `r + bg*(1-a)`
/// past 1.0; channels saturate to 1.0 before quantization instead of
/// wrapping (regression-tested below).
pub fn blend_volume_layers(dst: &mut Framebuffer, layers: &mut [VolumeLayer]) {
    layers.sort_by(|a, b| b.view_distance.total_cmp(&a.view_distance));
    let layers: &[VolumeLayer] = layers;
    for layer in layers {
        assert_eq!((layer.width, layer.height), (dst.width(), dst.height()));
    }
    let w = dst.width() as usize;
    dst.row_bands(band_count(dst.height())).into_par_iter().for_each(|mut band| {
        let row0 = band.y_start() as usize;
        let (dc, _) = band.planes_mut();
        for layer in layers.iter() {
            let src = &layer.color[row0 * w..row0 * w + dc.len()];
            for (px, &[r, g, b, a]) in dc.iter_mut().zip(src) {
                if a <= 0.0 {
                    continue;
                }
                let out = [
                    (r + px.0 as f32 / 255.0 * (1.0 - a)).min(1.0),
                    (g + px.1 as f32 / 255.0 * (1.0 - a)).min(1.0),
                    (b + px.2 as f32 / 255.0 * (1.0 - a)).min(1.0),
                ];
                *px = Rgb::from_f32(out[0], out[1], out[2]);
            }
        }
    });
}

/// Mean color discontinuity across the seam between two horizontally
/// adjacent tiles in a stitched image: the average RGB distance between
/// the last column of the left tile and the first column of the right
/// tile, minus the same statistic one column *inside* the left tile
/// (which calibrates for natural image gradients). Large values indicate
/// tearing (Fig 5).
pub fn seam_discontinuity(stitched: &Framebuffer, seam_x: u32) -> f32 {
    assert!(seam_x > 1 && seam_x < stitched.width());
    let mut seam_delta = 0.0;
    let mut interior_delta = 0.0;
    for y in 0..stitched.height() {
        seam_delta += stitched.get(seam_x - 1, y).distance(stitched.get(seam_x, y));
        interior_delta += stitched.get(seam_x - 2, y).distance(stitched.get(seam_x - 1, y));
    }
    (seam_delta - interior_delta) / stitched.height() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solid(w: u32, h: u32, c: Rgb, z: f32) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h);
        for y in 0..h {
            for x in 0..w {
                fb.set(x, y, c, z);
            }
        }
        fb
    }

    #[test]
    fn depth_composite_takes_nearest() {
        let near = solid(8, 8, Rgb(255, 0, 0), 0.2);
        let far = solid(8, 8, Rgb(0, 255, 0), 0.8);
        let mut dst = Framebuffer::new(8, 8);
        depth_composite(&mut dst, &[&far, &near]);
        assert_eq!(dst.get(4, 4), Rgb(255, 0, 0));
        assert_eq!(dst.depth_at(4, 4), 0.2);
    }

    #[test]
    fn depth_composite_order_independent() {
        let a = solid(8, 8, Rgb(255, 0, 0), 0.3);
        let mut b = solid(8, 8, Rgb(0, 0, 255), 0.6);
        // Make b nearer in one quadrant.
        for y in 0..4 {
            for x in 0..4 {
                b.set(x, y, Rgb(0, 0, 255), 0.1);
            }
        }
        let mut d1 = Framebuffer::new(8, 8);
        depth_composite(&mut d1, &[&a, &b]);
        let mut d2 = Framebuffer::new(8, 8);
        depth_composite(&mut d2, &[&b, &a]);
        assert_eq!(d1.diff_fraction(&d2, 0.0), 0.0, "opaque compositing commutes");
        assert_eq!(d1.get(2, 2), Rgb(0, 0, 255));
        assert_eq!(d1.get(6, 6), Rgb(255, 0, 0));
    }

    #[test]
    fn background_pixels_do_not_overwrite() {
        let mut dst = solid(4, 4, Rgb(9, 9, 9), 0.5);
        let empty = Framebuffer::new(4, 4); // all depth = 1.0
        depth_composite(&mut dst, &[&empty]);
        assert_eq!(dst.get(1, 1), Rgb(9, 9, 9), "far-plane pixels are background");
    }

    #[test]
    #[should_panic]
    fn depth_composite_size_mismatch_panics() {
        let a = Framebuffer::new(4, 4);
        let mut dst = Framebuffer::new(8, 8);
        depth_composite(&mut dst, &[&a]);
    }

    #[test]
    fn stitch_covers_viewport() {
        let full = Viewport::new(8, 8);
        let tiles = full.split_tiles(2, 1);
        let left = solid(4, 8, Rgb(255, 0, 0), 0.5);
        let right = solid(4, 8, Rgb(0, 255, 0), 0.5);
        let mut dst = Framebuffer::new(8, 8);
        stitch_tiles(&mut dst, &[(tiles[0], &left), (tiles[1], &right)]);
        assert_eq!(dst.get(1, 1), Rgb(255, 0, 0));
        assert_eq!(dst.get(6, 6), Rgb(0, 255, 0));
    }

    #[test]
    fn seam_metric_flags_tears() {
        // Continuous image: same color both sides -> ~0.
        let cont = solid(8, 8, Rgb(100, 100, 100), 0.5);
        assert!(seam_discontinuity(&cont, 4).abs() < 1e-6);
        // Torn image: hard color step at the seam.
        let full = Viewport::new(8, 8);
        let tiles = full.split_tiles(2, 1);
        let left = solid(4, 8, Rgb(100, 100, 100), 0.5);
        let right = solid(4, 8, Rgb(200, 200, 200), 0.5);
        let mut torn = Framebuffer::new(8, 8);
        stitch_tiles(&mut torn, &[(tiles[0], &left), (tiles[1], &right)]);
        assert!(seam_discontinuity(&torn, 4) > 50.0);
    }

    #[test]
    fn bright_overlapping_layers_saturate_not_wrap() {
        // Two nearly-opaque bright layers: the accumulated channel
        // r + bg*(1-a) exceeds 1.0. It must clamp to 255, not wrap to a
        // small value.
        let mk = |d: f32| VolumeLayer {
            color: vec![[0.9, 0.9, 0.2, 0.2]; 4],
            view_distance: d,
            width: 2,
            height: 2,
        };
        let mut dst = Framebuffer::new(2, 2);
        for y in 0..2 {
            for x in 0..2 {
                dst.set(x, y, Rgb(250, 250, 250), 0.5);
            }
        }
        blend_volume_layers(&mut dst, &mut [mk(5.0), mk(1.0)]);
        let px = dst.get(0, 0);
        assert_eq!(px.0, 255, "saturated, not wrapped: {px:?}");
        assert_eq!(px.1, 255);
        assert!(px.2 > 150, "blue accumulated sanely: {px:?}");
        // Depth untouched by color blending.
        assert_eq!(dst.depth_at(0, 0), 0.5);
    }

    #[test]
    fn compositors_bit_identical_across_thread_counts() {
        // Build a non-trivial source pair once.
        let mut a = Framebuffer::new(33, 17);
        let mut b = Framebuffer::new(33, 17);
        for y in 0..17u32 {
            for x in 0..33u32 {
                if (x + y) % 3 == 0 {
                    a.set(x, y, Rgb((x * 7) as u8, y as u8, 3), (x as f32) / 40.0);
                }
                if (x * y) % 4 == 1 {
                    b.set(x, y, Rgb(9, (x * 5) as u8, y as u8), (y as f32) / 20.0);
                }
            }
        }
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut dst = Framebuffer::new(33, 17);
                depth_composite(&mut dst, &[&a, &b]);
                dst
            })
        };
        let one = run(1);
        for n in [2, 3, 8] {
            assert_eq!(one.diff_fraction(&run(n), 0.0), 0.0, "{n} threads");
        }
    }

    #[test]
    fn volume_layers_blend_in_view_order() {
        let w = 2;
        let h = 1;
        // Far layer: opaque red. Near layer: half-transparent blue.
        let far = VolumeLayer {
            color: vec![[1.0, 0.0, 0.0, 1.0]; 2],
            view_distance: 10.0,
            width: w,
            height: h,
        };
        let near = VolumeLayer {
            color: vec![[0.0, 0.0, 0.5, 0.5]; 2],
            view_distance: 1.0,
            width: w,
            height: h,
        };
        let mut dst = Framebuffer::new(w, h);
        // Intentionally pass near-first: the sort must fix the order.
        blend_volume_layers(&mut dst, &mut [near, far]);
        let px = dst.get(0, 0);
        // red*0.5 + blue contribution.
        assert!(px.0 > 100 && px.0 < 150, "red attenuated: {px:?}");
        assert!(px.2 > 100, "blue present: {px:?}");
    }
}
