//! Tile-level node cull for the binned engine: decide, before the vertex
//! stage, that nothing a node draws can reach the tile being rendered.
//!
//! The scene walk culls against the frustum of the *full* viewport, so a
//! tile of a distributed frame would otherwise run the vertex stage and a
//! triangle pass per band for content that lies on other services' tiles.
//! The contract is the one `raster`'s triangle setup narrows boxes under: skip
//! only what the reference engine provably draws nothing for, with every
//! counter it books known in advance, and fail open (keep the node) on
//! anything non-finite or ill-conditioned. `render_tile_reference` never
//! calls this module and stays the independent oracle.
//!
//! Both tests work from the node's *local* bounds and the very `f32`
//! matrices the draw path multiplies by, evaluated in `f64`, so the only
//! error to bound is the draw path's own per-element rounding — not a
//! second derivation of the same transform.

use crate::raster::W_EPS;
use rave_math::{Aabb, Mat4, Vec3, Viewport};

/// Slack, in pixels, between a triangle's projected corners and the tile
/// beyond what `raster`'s setup needs for an empty box (a corner at or
/// beyond `tile.x − 1`, resp. `tile.x + width`, rounds to a column outside
/// the tile): one spare pixel on top of every rounding term below.
pub(crate) const GUARD_PX: f64 = 2.0;

/// How far from its projected point a splat can write: `setup_splat`
/// truncates the centre to an integer (under one pixel either way) and
/// clamps the radius to 16.
pub(crate) const SPLAT_REACH_PX: f64 = 17.0;

/// Allowance per rounded operation: twice the unit roundoff of `f32`, so
/// every bound below carries 2× headroom over the textbook one, which also
/// absorbs this module's own `f64` arithmetic (2⁻²⁹ of an `f32` rounding).
const U: f64 = f32::EPSILON as f64;

/// Magnitudes above this are kept rather than reasoned about: the rounding
/// model assumes no `f32` intermediate of the draw path overflows.
const LARGEST: f64 = 1.0e30;

/// Exact componentwise bounds of `points`; `None` when there are none or a
/// coordinate is NaN or infinite (`Aabb::from_points` silently drops a
/// NaN, and a NaN vertex takes the reference through its near-clip path).
///
/// The walk scans only what no tree keeps a box for — an avatar's mesh,
/// made for the frame. For a mesh or point-cloud node it reads
/// `NodeRef::finite_local_bounds`, which is this function's answer over
/// the node's points (property-tested below) up to the sign of a zero:
/// where +0 and −0 tie, `f32::min` and the comparisons here may each keep
/// either. [`points_miss_tile`] takes the box through products, sums,
/// `abs`, `min`/`max` and comparisons only, none of which tells the two
/// zeros apart, so it returns the same for either box.
pub(crate) fn finite_bounds(points: &[Vec3]) -> Option<Aabb> {
    // Plain comparisons (one min/max instruction each; `f32::min` pays for
    // its NaN rule) beside a sum that is 0 over finite points and NaN
    // over any other, since the comparisons just skip a NaN. Four
    // accumulators, so that a point does not wait for the one before it
    // (25k vertices: 33 µs against 91 through one).
    let less = |a: Vec3, b: Vec3| {
        Vec3::new(
            if a.x < b.x { a.x } else { b.x },
            if a.y < b.y { a.y } else { b.y },
            if a.z < b.z { a.z } else { b.z },
        )
    };
    let more = |a: Vec3, b: Vec3| {
        Vec3::new(
            if a.x > b.x { a.x } else { b.x },
            if a.y > b.y { a.y } else { b.y },
            if a.z > b.z { a.z } else { b.z },
        )
    };
    let (mut lo, mut hi, mut poison) = ([Aabb::EMPTY.min; 4], [Aabb::EMPTY.max; 4], [0.0f32; 4]);
    let mut quads = points.chunks_exact(4);
    let mut take = |k: usize, p: Vec3| {
        lo[k] = less(p, lo[k]);
        hi[k] = more(p, hi[k]);
        poison[k] += (p.x * 0.0 + p.y * 0.0) + p.z * 0.0;
    };
    for quad in &mut quads {
        for (k, &p) in quad.iter().enumerate() {
            take(k, p);
        }
    }
    for &p in quads.remainder() {
        take(0, p);
    }
    let lo = less(less(lo[0], lo[1]), less(lo[2], lo[3]));
    let hi = more(more(hi[0], hi[1]), more(hi[2], hi[3]));
    let poison = (poison[0] + poison[1]) + (poison[2] + poison[3]);
    (poison == 0.0 && !points.is_empty()).then_some(Aabb::new(lo, hi))
}

type V3 = [f64; 3];

fn row(m: &Mat4, i: usize) -> [f64; 4] {
    [m.at(i, 0) as f64, m.at(i, 1) as f64, m.at(i, 2) as f64, m.at(i, 3) as f64]
}

fn v3(v: Vec3) -> V3 {
    [v.x as f64, v.y as f64, v.z as f64]
}

/// `r · (p, 1)`.
fn affine(r: &[f64; 4], p: V3) -> f64 {
    r[0] * p[0] + r[1] * p[1] + r[2] * p[2] + r[3]
}

/// `|r| · (|p|, 1)`: bounds every intermediate of the `f32` evaluation of
/// [`affine`], and with it the evaluation's rounding.
fn affine_abs(r: &[f64; 4], p: V3) -> f64 {
    r[0].abs() * p[0].abs() + r[1].abs() * p[1].abs() + r[2].abs() * p[2].abs() + r[3].abs()
}

fn dot(a: V3, b: V3) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn cross(a: V3, b: V3) -> V3 {
    [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
}

fn norm(a: V3) -> f64 {
    dot(a, a).sqrt()
}

/// The box's largest `|coordinate|` per axis.
fn largest_abs(bounds: &Aabb) -> V3 {
    let (lo, hi) = (v3(bounds.min), v3(bounds.max));
    [0, 1, 2].map(|j| lo[j].abs().max(hi[j].abs()))
}

/// Whether no point inside `bounds` (a node's local box, finite: from
/// [`finite_bounds`]), taken through `mvp` and
/// `full_viewport.ndc_to_pixel` the way the vertex stage, the reference's
/// `draw_mesh` and `setup_splat` do, lands within `reach` pixels of `tile`
/// — and every such point clears the near guard.
///
/// *Exact arithmetic.* `mvp · (p, 1)` is affine in `p`, so the clip
/// position of a point of the box is a convex combination `Σ λₖ cₖ` of the
/// eight corners' clip positions. When every corner has `w > 0`, so has
/// the point, and its NDC x is `Σ μₖ (cₖ.x / cₖ.w)` with
/// `μₖ = λₖ cₖ.w / Σ λⱼ cⱼ.w ≥ 0`, `Σ μₖ = 1`: inside the corners' NDC
/// range. Likewise y. The projected box is the hull of the projected
/// corners.
///
/// *Rounding.* The draw path computes each clip component as a four-term
/// `f32` dot product, within `2u · Σⱼ |mvpᵢⱼ| |pⱼ|` of exact
/// (`u = 2⁻²⁴`); `|pⱼ|` is at most the box's largest coordinate on that
/// axis, which gives `eₓ, e_y, e_w` below at twice that. With
/// `w_safe = min cₖ.w − e_w ≥ W_EPS` every computed `w` clears the guard
/// too — no vertex is clipped, each triangle is set up exactly once — and
/// the computed NDC x is off by at most `(eₓ + r·e_w) / w_safe`, `r` the
/// largest corner `|x/w|`. The reciprocal, the product and the three
/// operations of `ndc_to_pixel` add under `5u` relative to `(r + 1)·W/2`
/// and `u` relative to the viewport origin.
///
/// So a mesh this returns true for (at `reach = GUARD_PX`) books, per
/// triangle, `submitted + 1` and — its box empty on the tile, or its area
/// degenerate, the same counter — `clipped_away + 1`, and shades nothing;
/// a point cloud (at `GUARD_PX + SPLAT_REACH_PX`) books nothing at all.
pub(crate) fn points_miss_tile(
    bounds: &Aabb,
    mvp: &Mat4,
    full_viewport: &Viewport,
    tile: &Viewport,
    reach: f64,
) -> bool {
    let (rx, ry, rw) = (row(mvp, 0), row(mvp, 1), row(mvp, 3));
    let largest = largest_abs(bounds);
    let (ax, ay, aw) =
        (affine_abs(&rx, largest), affine_abs(&ry, largest), affine_abs(&rw, largest));
    // A finite matrix and box from here on, and no overflow on the draw
    // path (NaN fails the comparison), so min/max below see no NaN.
    let in_range = ax + ay + aw <= LARGEST;
    if !in_range {
        return false;
    }
    let (ex, ey, ew) = (4.0 * U * ax, 4.0 * U * ay, 4.0 * U * aw);
    let mut w_lo = f64::INFINITY;
    let mut ndc_x = (f64::INFINITY, f64::NEG_INFINITY);
    let mut ndc_y = ndc_x;
    for c in bounds.corners() {
        let p = v3(c);
        let w = affine(&rw, p);
        w_lo = w_lo.min(w);
        let (x, y) = (affine(&rx, p) / w, affine(&ry, p) / w);
        ndc_x = (ndc_x.0.min(x), ndc_x.1.max(x));
        ndc_y = (ndc_y.0.min(y), ndc_y.1.max(y));
    }
    let w_safe = w_lo - ew;
    if w_safe < W_EPS as f64 {
        return false;
    }
    // Pixel extent of the projected box on one axis, widened by the
    // rounding of the draw path's projection and by `reach`; everything
    // when the pixel coordinates themselves are out of range.
    let extent = |ndc: (f64, f64), e: f64, origin: u32, size: u32| {
        let r = ndc.0.abs().max(ndc.1.abs());
        let ndc_err = (e + r * ew) / w_safe;
        let half = 0.5 * size as f64;
        let reached = (r + ndc_err + 1.0) * half;
        let slack = half * ndc_err + 4.0 * U * reached + U * origin as f64 + reach;
        let at = |n: f64| origin as f64 + (n + 1.0) * half;
        if reached <= LARGEST {
            (at(ndc.0) - slack, at(ndc.1) + slack)
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        }
    };
    let (x_lo, x_hi) = extent(ndc_x, ex, full_viewport.x, full_viewport.width);
    // Pixel y runs against NDC y.
    let (y_lo, y_hi) = extent((-ndc_y.1, -ndc_y.0), ey, full_viewport.y, full_viewport.height);
    x_hi <= tile.x as f64
        || x_lo >= tile.x as f64 + tile.width as f64
        || y_hi <= tile.y as f64
        || y_lo >= tile.y as f64 + tile.height as f64
}

/// The least projection of four vectors onto their mean direction: a lower
/// bound on the length of every vector in their hull (NaN when the mean
/// vanishes).
fn least_along_mean(vs: &[V3; 4]) -> f64 {
    let mean = [0, 1, 2].map(|i| vs[0][i] + vs[1][i] + vs[2][i] + vs[3][i]);
    let len = norm(mean);
    if len > 0.0 {
        vs.iter().map(|v| dot(*v, mean) / len).fold(f64::INFINITY, f64::min)
    } else {
        f64::NAN
    }
}

/// Whether no ray `raycast_rows` casts through a pixel of `tile` can reach
/// the volume's local box `bounds`, so that the volume shades nothing on
/// the tile (a ray that misses books nothing).
///
/// `raycast_rows` un-projects each pixel centre through `view_proj⁻¹` to a
/// far point, takes the direction from `camera_pos` to it, and carries
/// origin and direction through `model⁻¹` into a slab test. This function
/// forms the same rays, from the same two `f32` inverses taken as given, in
/// `f64`, at the four corners of the tile widened by [`GUARD_PX`]. In
/// exact arithmetic the un-normalised local direction
/// `G(q) = model⁻¹ · (F.xyz − F.w · camera_pos)`, `F = view_proj⁻¹ ·
/// (ndc(q), 1, 1)`, is affine in the pixel `q` while `F.w > 0`, so the
/// directions through the rectangle are the hull of the four corner
/// directions. If the plane through the local origin and two adjacent
/// corner rays has the other two in front of it and the whole box strictly
/// behind, no ray through the rectangle meets the box.
///
/// *Rounding.* The per-pixel `f32` evaluation is bounded term by term
/// (comments below) into `angle`, how far the direction `ray_box` sees can
/// turn from the exact one, and `shift`, how far origin and box faces can
/// move; the box must clear the plane by `angle · |v|` plus twice `shift`
/// at every corner `v` (a convex condition, so the corners speak for the
/// box; twice, so that the origin stays outside the box on some single
/// axis, which is what decides a ray whose direction rounds to zero).
/// Un-projecting at NDC depth 1 cancels badly (`F.w` is `1/far` formed
/// from two terms near `1/(2·near)`), which scales the far point about the
/// world origin: the error in direction grows with the camera's distance
/// from that origin, and a scene laid out far from it is simply not culled.
pub(crate) fn volume_misses_tile(
    bounds: &Aabb,
    model: &Mat4,
    view_proj: &Mat4,
    camera_pos: Vec3,
    full_viewport: &Viewport,
    tile: &Viewport,
) -> bool {
    let (Some(inv_model), Some(inv_vp)) = (model.inverse(), view_proj.inverse()) else {
        return false;
    };
    let cam = v3(camera_pos);
    let im = [0, 1, 2].map(|i| row(&inv_model, i));
    let iv = [0, 1, 2, 3].map(|i| row(&inv_vp, i));
    // Everything below is min/max and comparisons, which a NaN slips
    // through; a sum does not lose one (nor an infinity).
    let (lo, hi) = (v3(bounds.min), v3(bounds.max));
    let inputs: f64 = iv.iter().chain(&im).flatten().chain(&cam).chain(&lo).chain(&hi).sum();
    if !inputs.is_finite() {
        return false;
    }
    // Frobenius norm of `model⁻¹`'s linear part.
    let im_norm = im.iter().map(|r| r[0] * r[0] + r[1] * r[1] + r[2] * r[2]).sum::<f64>().sqrt();

    // Ray origin `inv_model.transform_point(camera_pos)` and its rounding.
    let origin = im.map(|r| affine(&r, cam));
    let origin_abs = im.map(|r| affine_abs(&r, cam));
    let origin_err = origin_abs.map(|a| 4.0 * U * a);

    // The widened tile's corners, in cyclic order.
    let (x0, x1) = (tile.x as f64 - GUARD_PX, tile.x as f64 + tile.width as f64 + GUARD_PX);
    let (y0, y1) = (tile.y as f64 - GUARD_PX, tile.y as f64 + tile.height as f64 + GUARD_PX);
    let corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)];

    // F and the bound on its rounding, per corner; |F.i| and the bound are
    // convex in the pixel and F.w is affine, so the corner extremes below
    // hold across the rectangle.
    let far = corners.map(|(qx, qy)| {
        let ndc_x = (qx - full_viewport.x as f64) / full_viewport.width as f64 * 2.0 - 1.0;
        let ndc_y = 1.0 - (qy - full_viewport.y as f64) / full_viewport.height as f64 * 2.0;
        let f = iv.map(|r| r[0] * ndc_x + r[1] * ndc_y + r[2] + r[3]);
        // `pixel_to_ndc` is within u·(|ndc| + 1), the dot product within
        // 2u·Σ|ivᵢⱼ||vⱼ|.
        let abs = iv.map(|r| {
            r[0].abs() * (ndc_x.abs() + 1.0)
                + r[1].abs() * (ndc_y.abs() + 1.0)
                + r[2].abs()
                + r[3].abs()
        });
        (f, abs)
    });
    let biggest = |i: usize| far.iter().map(|(_, abs)| abs[i]).fold(0.0, f64::max);
    let far_abs = [biggest(0), biggest(1), biggest(2)];
    let far_err = far_abs.map(|a| 4.0 * U * a);
    let w_err = 4.0 * U * biggest(3);
    let w_hi = far.iter().map(|(f, _)| f[3]).fold(f64::NEG_INFINITY, f64::max);
    let w_lo = far.iter().map(|(f, _)| f[3]).fold(f64::INFINITY, f64::min) - w_err;
    // No `f32` overflow on the way to the far point; the computed F.w is
    // at least `w_lo`.
    let largest = largest_abs(bounds);
    let magnitude = far_abs.iter().chain(&origin_abs).chain(&largest).sum::<f64>() + im_norm;
    if !(w_lo > 0.0 && magnitude + biggest(3) <= LARGEST * w_lo.min(1.0)) {
        return false;
    }

    // World direction. The computed far point is `far·s + δ/F.w` with
    // `|s − 1| ≤ rel_w`: `far·s − cam = s·(far − cam) + (s − 1)·cam`, so
    // beside the harmless scaling of the direction there is a sideways
    // error of `|s − 1|·|cam|`, plus δ, plus the roundings of the divide
    // and the subtraction (2u of |far| + |cam|).
    let rel_w = w_err / w_lo;
    let sideways = norm([0, 1, 2].map(|i| {
        let far_point = (far_abs[i] + far_err[i]) / w_lo;
        rel_w * cam[i].abs() + far_err[i] / w_lo + 2.0 * U * (far_point + cam[i].abs())
    }));
    let dir_world = far.map(|(f, _)| [0, 1, 2].map(|i| f[i] - f[3] * cam[i]));
    // |far − cam| = |F.xyz − F.w·cam| / F.w, scaled by at least 1/(1 + rel_w).
    let reach_world = least_along_mean(&dir_world) / (w_hi * (1.0 + rel_w));
    // tan θ ≤ τ/(1 − τ) ≤ 1.25τ for τ ≤ 1/8; `normalized()` adds 4u.
    if !(reach_world > 0.0 && sideways <= 0.125 * reach_world) {
        return false;
    }
    let angle_world = 1.25 * sideways / reach_world + 4.0 * U;

    // Local direction `inv_model.transform_dir(dir).normalized()`: the
    // world error and the dot products' rounding, both carried by the
    // matrix's Frobenius norm, against the shortest local image of a unit
    // world direction.
    let dir_local = dir_world.map(|d| im.map(|r| r[0] * d[0] + r[1] * d[1] + r[2] * d[2]));
    let longest_world = dir_world.iter().map(|d| norm(*d)).fold(0.0, f64::max);
    let shortest_image = least_along_mean(&dir_local) / longest_world;
    let carried = im_norm * (angle_world + 2.0 * U);
    if !(shortest_image > 0.0 && carried <= 0.125 * shortest_image) {
        return false;
    }
    let angle = 1.25 * carried / shortest_image + 4.0 * U;

    // `ray_box` forms `(face − origin) · (1 / d)` per axis: each face is
    // effectively moved by under 2u·|face − origin|, and a direction
    // component below its 1e-12 cut-off is a turn far inside `angle`.
    let shift = norm(
        [0, 1, 2].map(|i| origin_err[i] + 2.0 * U * (largest[i] + origin[i].abs() + origin_err[i])),
    );
    let clearance = 2.0 * (1.0 + angle) * shift;

    let box_dirs = bounds.corners().map(|c| {
        let p = v3(c);
        [p[0] - origin[0], p[1] - origin[1], p[2] - origin[2]]
    });
    (0..4).any(|k| {
        let normal = cross(dir_local[k], dir_local[(k + 1) % 4]);
        let len = norm(normal);
        let side = |v: V3| dot(normal, v) / len;
        // Orient the plane so the rectangle's other two corner rays are
        // in front of it; NaN orients nothing.
        let (a, b) = (side(dir_local[(k + 2) % 4]), side(dir_local[(k + 3) % 4]));
        let sign = if a > 0.0 && b > 0.0 {
            1.0
        } else if a < 0.0 && b < 0.0 {
            -1.0
        } else {
            return false;
        };
        box_dirs.iter().all(|v| sign * side(*v) + angle * norm(*v) + clearance < 0.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::{CameraParams, MeshData, NodeKind, PointCloudData, SceneTree};
    use std::sync::Arc;

    const FULL: Viewport = Viewport { x: 0, y: 0, width: 800, height: 600 };

    fn camera() -> CameraParams {
        CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y)
    }

    fn unit_box_at(x: f32) -> Aabb {
        Aabb::new(Vec3::new(x - 0.5, -0.5, -0.5), Vec3::new(x + 0.5, 0.5, 0.5))
    }

    #[test]
    fn finite_bounds_are_exact_and_refuse_non_finite_points() {
        let pts = [Vec3::new(1.0, -2.0, 3.0), Vec3::new(-1.0, 4.0, 0.0)];
        assert_eq!(finite_bounds(&pts), Some(Aabb::from_points(pts)));
        assert_eq!(finite_bounds(&[]), None);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for axis in 0..3 {
                let mut p = Vec3::ONE;
                match axis {
                    0 => p.x = bad,
                    1 => p.y = bad,
                    _ => p.z = bad,
                }
                assert_eq!(finite_bounds(&[Vec3::ZERO, p, Vec3::ONE]), None, "{bad}, axis {axis}");
            }
        }
        // The largest finite coordinates do not read as poisoned.
        assert!(finite_bounds(&[Vec3::splat(f32::MAX), Vec3::splat(f32::MIN)]).is_some());
    }

    #[test]
    fn a_box_beside_the_tile_misses_it_and_one_on_it_does_not() {
        let mvp = camera().view_proj(&FULL);
        let strips = FULL.split_tiles(4, 1);
        // A unit box at the origin projects to the middle of the frame:
        // on the two inner strips, off the two outer ones.
        let hits: Vec<bool> = strips
            .iter()
            .map(|tile| !points_miss_tile(&unit_box_at(0.0), &mvp, &FULL, tile, GUARD_PX))
            .collect();
        assert_eq!(hits, [false, true, true, false]);
        // The whole frame is never missed by what the frustum kept.
        assert!(!points_miss_tile(&unit_box_at(0.0), &mvp, &FULL, &FULL, GUARD_PX));
        // To the right of the frame's left strip; with a reach as wide as
        // the frame, off nothing.
        assert!(points_miss_tile(&unit_box_at(1.5), &mvp, &FULL, &strips[0], GUARD_PX));
        assert!(!points_miss_tile(&unit_box_at(1.5), &mvp, &FULL, &strips[0], 800.0));
    }

    #[test]
    fn the_guard_band_is_kept() {
        // The identity `mvp` maps a box's x range [a, b] (w = 1) to
        // pixels 400·(x + 1).
        let tile = Viewport::with_origin(400, 0, 200, 600);
        let slab = |a: f32, b: f32| Aabb::new(Vec3::new(a, -0.1, 0.0), Vec3::new(b, 0.1, 0.0));
        let px = |x: f32| x / 400.0 - 1.0;
        let miss = |b: &Aabb| points_miss_tile(b, &Mat4::IDENTITY, &FULL, &tile, GUARD_PX);
        // Content ending 2.5 px left of the tile is culled, 1.5 px is not.
        assert!(miss(&slab(px(100.0), px(397.5))));
        assert!(!miss(&slab(px(100.0), px(398.5))));
        // Content starting 2.5 px right of the tile's last column.
        assert!(miss(&slab(px(602.5), px(700.0))));
        assert!(!miss(&slab(px(601.5), px(700.0))));
    }

    #[test]
    fn boxes_at_or_behind_the_near_guard_are_kept() {
        let mvp = camera().view_proj(&FULL);
        let left_strip = FULL.split_tiles(4, 1)[0];
        // Well off to the right but reaching back past the eye.
        let straddling = Aabb::new(Vec3::new(2.0, -0.5, 0.0), Vec3::new(3.0, 0.5, 5.0));
        assert!(!points_miss_tile(&straddling, &mvp, &FULL, &left_strip, GUARD_PX));
        let behind = Aabb::new(Vec3::new(2.0, -0.5, 5.0), Vec3::new(3.0, 0.5, 6.0));
        assert!(!points_miss_tile(&behind, &mvp, &FULL, &left_strip, GUARD_PX));
        let in_front = Aabb::new(Vec3::new(2.0, -0.5, -1.0), Vec3::new(3.0, 0.5, 0.0));
        assert!(points_miss_tile(&in_front, &mvp, &FULL, &left_strip, GUARD_PX));
    }

    #[test]
    fn non_finite_and_ill_conditioned_input_is_kept() {
        let mvp = camera().view_proj(&FULL);
        let left_strip = FULL.split_tiles(4, 1)[0];
        let b = unit_box_at(3.0);
        assert!(points_miss_tile(&b, &mvp, &FULL, &left_strip, GUARD_PX));
        for bad in [f32::NAN, f32::INFINITY, 1.0e35] {
            let mut m = mvp;
            m.cols[1].x = bad;
            assert!(!points_miss_tile(&b, &m, &FULL, &left_strip, GUARD_PX), "x row {bad}");
            let mut m = mvp;
            m.cols[3].w = bad;
            assert!(!points_miss_tile(&b, &m, &FULL, &left_strip, GUARD_PX), "w row {bad}");
        }
        // Coordinates so large that an f32 rounding is many pixels wide:
        // the box is off the strip by a few hundred pixels, the allowance
        // is larger.
        let model = Mat4::translation(Vec3::new(-1.0e9, 0.0, 0.0));
        let far_box = unit_box_at(1.0e9 + 3.0);
        assert!(!points_miss_tile(&far_box, &(mvp * model), &FULL, &left_strip, GUARD_PX));
    }

    proptest::proptest! {
        /// The box the scene tree keeps for a mesh or a point cloud, with
        /// its finite flag, is `finite_bounds` of the node's points under
        /// `f32` `==` — on zeros of both signs, NaN, infinities, the
        /// largest finite values, and no points at all.
        #[test]
        fn kept_bounds_are_finite_bounds_of_the_points(
            picks in proptest::collection::vec([0usize..16, 0usize..16, 0usize..16], 0..24),
            cloud in proptest::prelude::any::<bool>(),
            tame in proptest::prelude::any::<bool>(),
        ) {
            // The last four are not finite; a tame case folds them back.
            const PALETTE: [f32; 16] = [
                0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0e-39, 1.0e30,
                f32::MAX, f32::MIN, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::NAN,
            ];
            let coord = |i: usize| PALETTE[if tame { i % 12 } else { i }];
            let points: Vec<Vec3> =
                picks.iter().map(|p| Vec3::new(coord(p[0]), coord(p[1]), coord(p[2]))).collect();
            if tame {
                proptest::prop_assert_eq!(finite_bounds(&points).is_some(), !points.is_empty());
            }
            let kind = if cloud {
                NodeKind::PointCloud(Arc::new(PointCloudData::new(points.clone())))
            } else {
                NodeKind::Mesh(Arc::new(MeshData::new(points.clone(), vec![])))
            };
            let mut tree = SceneTree::new();
            let id = tree.add_node(tree.root(), "n", kind).unwrap();
            let node = tree.node(id).unwrap();
            proptest::prop_assert_eq!(node.finite_local_bounds(), finite_bounds(&points));
            // Replaced in place: the kept box follows.
            let shifted: Vec<Vec3> = points.iter().map(|p| *p + Vec3::X).collect();
            let kind = NodeKind::Mesh(Arc::new(MeshData::new(shifted.clone(), vec![])));
            tree.node_mut(id).unwrap().set_kind(kind);
            let node = tree.node(id).unwrap();
            proptest::prop_assert_eq!(node.finite_local_bounds(), finite_bounds(&shifted));
        }
    }

    /// The one difference the property above allows, and why it does not
    /// matter: boxes that differ in the sign of a zero get the same answer.
    #[test]
    fn the_sign_of_a_zero_does_not_reach_the_cull() {
        let mvp = camera().view_proj(&FULL);
        let plus = Aabb::new(Vec3::new(0.0, -0.5, 0.0), Vec3::new(1.0, 0.0, 0.0));
        let minus = Aabb::new(Vec3::new(-0.0, -0.5, -0.0), Vec3::new(1.0, -0.0, -0.0));
        assert_eq!(plus, minus);
        for tile in FULL.split_tiles(8, 3) {
            assert_eq!(
                points_miss_tile(&plus, &mvp, &FULL, &tile, GUARD_PX),
                points_miss_tile(&minus, &mvp, &FULL, &tile, GUARD_PX),
                "{tile:?}"
            );
        }
    }

    fn volume_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.6))
    }

    #[test]
    fn a_volume_beside_the_tile_misses_it_and_one_on_it_does_not() {
        let cam = camera();
        let vp = cam.view_proj(&FULL);
        let centred = Mat4::translation(Vec3::splat(-0.8));
        let misses = |tile: &Viewport| {
            volume_misses_tile(&volume_box(), &centred, &vp, cam.position, &FULL, tile)
        };
        let strips = FULL.split_tiles(4, 1);
        assert_eq!(strips.iter().map(misses).collect::<Vec<_>>(), [true, false, false, true]);
        assert!(!misses(&FULL));
        // Row tiles: above and below.
        let rows = FULL.split_tiles(1, 5);
        assert_eq!(rows.iter().map(misses).collect::<Vec<_>>(), [true, false, false, false, true]);
    }

    #[test]
    fn a_volume_around_the_eye_or_with_a_broken_transform_is_kept() {
        let cam = camera();
        let vp = cam.view_proj(&FULL);
        let strip = FULL.split_tiles(4, 1)[0];
        let misses = |model: &Mat4| {
            volume_misses_tile(&volume_box(), model, &vp, cam.position, &FULL, &strip)
        };
        assert!(!misses(&Mat4::translation(cam.position - Vec3::splat(0.8))));
        assert!(!misses(&Mat4::scale(Vec3::new(1.0, 0.0, 1.0))));
        let mut beside = Mat4::translation(Vec3::new(3.0, 0.0, 0.0));
        assert!(misses(&beside));
        beside.cols[3].x = f32::NAN;
        assert!(!misses(&beside));
        // A box with a NaN corner (a volume with NaN spacing), however far
        // off: `ray_box` loses the NaN face and hits.
        let broken = Aabb::new(Vec3::ZERO, Vec3::new(1.6, f32::NAN, 1.6));
        let far_right = Mat4::translation(Vec3::new(3.0, 0.0, 0.0));
        assert!(!volume_misses_tile(&broken, &far_right, &vp, cam.position, &FULL, &strip));
    }

    #[test]
    fn a_scene_far_from_the_world_origin_keeps_its_volumes() {
        // The picture of the first volume test moved 10⁶ units away: the
        // un-projection's cancellation now turns rays by whole pixels.
        let offset = Vec3::new(1.0e6, 0.0, 0.0);
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0) + offset, offset, Vec3::Y);
        let vp = cam.view_proj(&FULL);
        let model = Mat4::translation(offset - Vec3::splat(0.8));
        let strip = FULL.split_tiles(4, 1)[0];
        assert!(!volume_misses_tile(&volume_box(), &model, &vp, cam.position, &FULL, &strip));
    }
}
