//! Triangle rasterization: clip → project → scan-convert with z-buffer
//! and Gouraud shading.
//!
//! Two call paths share one pixel loop:
//!
//! - the **immediate-mode reference** ([`rasterize_triangle`],
//!   [`draw_mesh`]) — simple per-triangle code, the baseline every
//!   optimization is verified against;
//! - the **binned pipeline** ([`raster_mesh_rows`]: per-triangle setup and
//!   [`raster_tri_rows`] in one pass over a mesh's cached vertex stage)
//!   used by [`crate::renderer::Renderer`] to rasterize disjoint row bands
//!   in parallel.
//!
//! Both evaluate the identical per-pixel expressions, so a banded draw is
//! bit-identical to a serial one — the guarantee the parallel renderer's
//! property tests pin down. The binned path may *skip* pixels (the
//! centre-sampled box of [`centre_box`], the spans of `walk_spans`), but
//! only ones the kernel provably rejects; the reference scans the whole
//! floor/ceil box and stays an independent oracle.

use crate::framebuffer::{Framebuffer, FramebufferBand, Rgb};
use rave_math::{Mat4, Vec2, Vec3, Vec4, Viewport};

/// A vertex after the vertex stage: clip-space position plus the
/// attributes interpolated across the triangle.
#[derive(Debug, Clone, Copy)]
pub struct ClipVertex {
    pub clip: Vec4,
    /// Lit color at the vertex (Gouraud: lighting runs per vertex).
    pub color: Vec3,
}

impl ClipVertex {
    fn lerp(a: &ClipVertex, b: &ClipVertex, t: f32) -> ClipVertex {
        ClipVertex { clip: a.clip.lerp(b.clip, t), color: a.color.lerp(b.color, t) }
    }
}

/// Simple fixed-function lighting: one directional light + ambient,
/// mirroring the Java3D default scene setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lighting {
    /// Unit vector *towards* the light.
    pub light_dir: Vec3,
    pub ambient: f32,
}

impl Default for Lighting {
    fn default() -> Self {
        Self { light_dir: Vec3::new(0.4, 0.8, 0.45).normalized(), ambient: 0.25 }
    }
}

impl Lighting {
    /// Lambertian shade of `base` with world-space normal `n`. Two-sided
    /// (isosurfaces and open parametric shells have no consistent
    /// orientation guarantee).
    pub fn shade(&self, base: Vec3, n: Vec3) -> Vec3 {
        let diffuse = n.dot(self.light_dir).abs();
        base * (self.ambient + (1.0 - self.ambient) * diffuse)
    }
}

/// Per-draw statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterStats {
    pub triangles_submitted: u64,
    pub triangles_clipped_away: u64,
    pub triangles_rasterized: u64,
    pub fragments_shaded: u64,
    pub fragments_written: u64,
}

impl RasterStats {
    pub fn accumulate(&mut self, o: &RasterStats) {
        self.triangles_submitted += o.triangles_submitted;
        self.triangles_clipped_away += o.triangles_clipped_away;
        self.triangles_rasterized += o.triangles_rasterized;
        self.fragments_shaded += o.fragments_shaded;
        self.fragments_written += o.fragments_written;
    }

    /// Merge two partial stats (rayon `reduce` shape).
    pub fn merged(mut self, o: RasterStats) -> RasterStats {
        self.accumulate(&o);
        self
    }

    /// Scalar work proxy for cost-feedback tile planning: roughly
    /// "pipeline operations charged", dominated by shaded fragments with
    /// a per-triangle setup term. Dimensionless — planners only compare
    /// ratios of it (units per second across services).
    pub fn cost_units(&self) -> u64 {
        self.fragments_shaded + 8 * self.triangles_submitted
    }
}

/// A triangle after clipping and projection, ready to rasterize:
/// screen-space vertices (pixel x/y + NDC z), Gouraud colors, the
/// signed-area inverse, and its floor/ceil pixel bounding box already
/// intersected with the target tile (inclusive bounds).
#[derive(Debug, Clone, Copy)]
pub struct ScreenTri {
    pub p0: Vec3,
    pub p1: Vec3,
    pub p2: Vec3,
    pub c0: Vec3,
    pub c1: Vec3,
    pub c2: Vec3,
    pub inv_area: f32,
    pub min_x: i64,
    pub max_x: i64,
    pub min_y: i64,
    pub max_y: i64,
}

/// `v.floor() as i64` for f32 without the `floorf` libcall: truncate,
/// then correct the negative direction. The saturating arithmetic keeps
/// huge and NaN inputs on the same results the libcall + saturating cast
/// would produce.
#[inline]
fn floor_f32_i64(v: f32) -> i64 {
    let t = v as i64;
    t.saturating_sub(((t as f32) > v) as i64)
}

/// `v.ceil() as i64` for f32, same construction as [`floor_f32_i64`].
#[inline]
fn ceil_f32_i64(v: f32) -> i64 {
    let t = v as i64;
    t.saturating_add(((t as f32) < v) as i64)
}

/// Screen-space setup shared by both call paths: degeneracy and bounding
/// box tests with the exact bookkeeping the reference path performs.
/// Returns `None` when nothing would be rasterized.
pub fn setup_screen_tri(
    tile: &Viewport,
    (p0, c0): (Vec3, Vec3),
    (p1, c1): (Vec3, Vec3),
    (p2, c2): (Vec3, Vec3),
    stats: &mut RasterStats,
) -> Option<ScreenTri> {
    let a = Vec2::new(p0.x, p0.y);
    let b = Vec2::new(p1.x, p1.y);
    let c = Vec2::new(p2.x, p2.y);
    let area = (b - a).cross(c - a);
    // Non-finite area means a non-finite projected vertex (`x/w` overflows
    // once `w` is barely above `W_EPS`): the kernel could write nothing for
    // it, yet `NaN < 0.0` being false would book a shaded fragment for
    // every pixel of its box.
    if area.abs() < 1e-9 || !area.is_finite() {
        stats.triangles_clipped_away += 1;
        return None; // degenerate in screen space
    }
    let inv_area = 1.0 / area;

    // Bounding box intersected with the tile. floor/ceil go through the
    // truncate-and-correct helpers: this runs for every submitted
    // triangle, and baseline x86-64 would turn `f32::floor` into a
    // libcall.
    let min_x = floor_f32_i64(a.x.min(b.x).min(c.x)).max(tile.x as i64);
    let max_x = ceil_f32_i64(a.x.max(b.x).max(c.x)).min((tile.x + tile.width) as i64 - 1);
    let min_y = floor_f32_i64(a.y.min(b.y).min(c.y)).max(tile.y as i64);
    let max_y = ceil_f32_i64(a.y.max(b.y).max(c.y)).min((tile.y + tile.height) as i64 - 1);
    if min_x > max_x || min_y > max_y {
        stats.triangles_clipped_away += 1;
        return None;
    }
    stats.triangles_rasterized += 1;
    Some(ScreenTri { p0, p1, p2, c0, c1, c2, inv_area, min_x, max_x, min_y, max_y })
}

/// THE per-pixel kernel. Both engines funnel every shaded pixel through
/// this exact body, so any partition of a triangle's pixels — rows,
/// columns, bands — reproduces the serial result bit-for-bit, z-ties
/// included (each pixel is touched once per triangle, so visit order
/// within a triangle cannot matter).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn raster_pixel(
    band: &mut FramebufferBand<'_>,
    tile: &Viewport,
    tri: &ScreenTri,
    a: Vec2,
    b: Vec2,
    c: Vec2,
    px: i64,
    py: i64,
    stats: &mut RasterStats,
) {
    // Sample at the pixel center.
    let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
    let w0 = (b - p).cross(c - p) * tri.inv_area;
    let w1 = (c - p).cross(a - p) * tri.inv_area;
    let w2 = 1.0 - w0 - w1;
    if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
        return;
    }
    stats.fragments_shaded += 1;
    let z = w0 * tri.p0.z + w1 * tri.p1.z + w2 * tri.p2.z;
    if !(-1.0..=1.0).contains(&z) {
        return; // beyond near/far in NDC
    }
    let col = tri.c0 * w0 + tri.c1 * w1 + tri.c2 * w2;
    let x_local = (px as u32) - tile.x;
    let y_local = (py as u32) - tile.y;
    if band.set_if_closer(x_local, y_local, Rgb::from_f32(col.x, col.y, col.z), z) {
        stats.fragments_written += 1;
    }
}

/// Rasterize pixels `px_lo..=px_hi` of row `py` through the kernel.
#[inline]
fn raster_span(
    band: &mut FramebufferBand<'_>,
    tile: &Viewport,
    tri: &ScreenTri,
    py: i64,
    px_lo: i64,
    px_hi: i64,
    stats: &mut RasterStats,
) {
    let a = Vec2::new(tri.p0.x, tri.p0.y);
    let b = Vec2::new(tri.p1.x, tri.p1.y);
    let c = Vec2::new(tri.p2.x, tri.p2.y);
    for px in px_lo..=px_hi {
        raster_pixel(band, tile, tri, a, b, c, px, py, stats);
    }
}

/// Rasterize pixels `py_lo..=py_hi` of column `px` through the kernel.
#[inline]
fn raster_col(
    band: &mut FramebufferBand<'_>,
    tile: &Viewport,
    tri: &ScreenTri,
    px: i64,
    py_lo: i64,
    py_hi: i64,
    stats: &mut RasterStats,
) {
    let a = Vec2::new(tri.p0.x, tri.p0.y);
    let b = Vec2::new(tri.p1.x, tri.p1.y);
    let c = Vec2::new(tri.p2.x, tri.p2.y);
    for py in py_lo..=py_hi {
        raster_pixel(band, tile, tri, a, b, c, px, py, stats);
    }
}

/// `floor(v) as i64` without `f64::floor` (a libcall on baseline
/// x86-64): truncate, then correct the negative direction. Saturates at
/// the i64 range like any float→int cast.
#[inline]
fn floor_i64(v: f64) -> i64 {
    let t = v as i64;
    t.saturating_sub(((t as f64) > v) as i64)
}

/// `ceil(v) as i64`, same construction as [`floor_i64`].
#[inline]
fn ceil_i64(v: f64) -> i64 {
    let t = v as i64;
    t.saturating_add(((t as f64) < v) as i64)
}

/// Walk `outer_lo..=outer_hi` along one screen axis, solving per step the
/// conservative pixel interval on the *other* axis that could pass the
/// kernel's inside test, and emit `(outer, solved_lo, solved_hi)` for
/// each non-empty interval.
///
/// Each barycentric the kernel computes is (in exact arithmetic) an
/// affine function of the pixel center, `w(x, y) = sx·x + sy·y + c`.
/// `e[k] = [s_solved, s_outer, c]` gives those coefficients with the
/// solved axis first; `w >= 0` then bounds the solved coordinate from
/// below (positive `s_solved`) or above (negative), while slope-free
/// constraints collapse to an interval on the outer axis, resolved once
/// up front. Margins must dominate both the f32 kernel's worst-case
/// rounding and this solver's own f64 rounding, so the interval can only
/// over-cover — every pixel the kernel would accept is inside it.
///
/// Per step this is six multiply-adds, a max/min tree over fixed slots
/// (unused slots hold ∓∞ and never win), and two integer conversions —
/// cheap enough to pay off even on bounding boxes a few pixels across.
/// All comparisons are written so NaN/±inf coefficients (degenerate
/// projections) fail *open*: the solver falls back to the full interval
/// and the kernel decides, which can only cost time, never pixels.
#[inline(always)]
fn walk_spans<F: FnMut(i64, i64, i64)>(
    e: &[[f64; 3]; 3],
    margins: &[f64; 3],
    mut outer_lo: i64,
    mut outer_hi: i64,
    solved_min: i64,
    solved_max: i64,
    mut emit: F,
) {
    let mut la = [0.0f64; 3];
    let mut lb = [f64::NEG_INFINITY; 3];
    let mut ha = [0.0f64; 3];
    let mut hb = [f64::INFINITY; 3];
    for k in 0..3 {
        let [sv, su, c] = e[k];
        let m = margins[k];
        if sv == 0.0 || !sv.is_finite() {
            // Cold path (axis-aligned or degenerate edge). With no
            // solved-axis slope the constraint is an interval on the
            // outer axis, resolved here once (floor_i64 keeps it
            // conservative by up to one step). NaN/±inf slopes drop the
            // constraint entirely — fail open.
            if sv == 0.0 {
                let t = (-m - c) / su;
                if su > 0.0 && t.is_finite() {
                    outer_lo = outer_lo.max(floor_i64(t - 0.5));
                } else if su < 0.0 && t.is_finite() {
                    outer_hi = outer_hi.min(floor_i64(t - 0.5).saturating_add(1));
                } else if su == 0.0 && c < -m {
                    return; // constant and provably negative everywhere
                }
            }
            continue;
        }
        // Bound on the solved *pixel index* (center − ½), affine in the
        // outer center coordinate: slope in `la/ha`, constant in `lb/hb`.
        // Branch-free slot fill: edge orientations are effectively
        // random, so a data-dependent branch here mispredicts half the
        // time; selects keep unused slots at their ∓∞ neutral values.
        let inv = 1.0 / sv;
        let slope = -su * inv;
        let bound = (-m - c) * inv - 0.5;
        let is_lo = sv > 0.0;
        la[k] = if is_lo { slope } else { 0.0 };
        lb[k] = if is_lo { bound } else { f64::NEG_INFINITY };
        ha[k] = if is_lo { 0.0 } else { slope };
        hb[k] = if is_lo { f64::INFINITY } else { bound };
    }
    if outer_lo > outer_hi {
        return;
    }
    let smin = solved_min as f64;
    let smax = solved_max as f64;
    // Exact center coordinates: integer + ½ accumulates exactly in f64.
    let mut uc = outer_lo as f64 + 0.5;
    for u in outer_lo..=outer_hi {
        // NaN bounds lose every max/min below, so lo/hi stay finite.
        let lo = (la[0] * uc + lb[0]).max(la[1] * uc + lb[1]).max(la[2] * uc + lb[2]).max(smin);
        let hi = (ha[0] * uc + hb[0]).min(ha[1] * uc + hb[1]).min(ha[2] * uc + hb[2]).min(smax);
        // ±1e-5 px of slack covers the conversion arithmetic itself;
        // casts saturate, so ±inf bounds collapse to an empty interval.
        let v_lo = ceil_i64(lo - 1e-5);
        let v_hi = (hi + 1e-5) as i64; // floor for hi >= 0; else empty
        if v_lo <= v_hi {
            emit(u, v_lo, v_hi);
        }
        uc += 1.0;
    }
}

/// Pixel coordinates below this convert to exact f32 centres
/// (`px as f32 + 0.5`), which [`centre_box`]'s error bound assumes.
const EXACT_CENTRE_LIMIT: i64 = 1 << 22;

/// Narrow `tri`'s floor/ceil box to the pixels whose *centres* can pass
/// the kernel's inside test: `(min_x, max_x, min_y, max_y)`, inclusive,
/// possibly empty (`min > max`). A model tessellated finer than the pixel
/// grid is mostly triangles whose floor/ceil box is 2–4 pixels wide around
/// zero or one pixel centre; the difference is all wasted kernel calls.
///
/// Same contract as [`walk_spans`] — skip only what [`raster_pixel`]
/// provably rejects, fail open on anything non-finite — and the same kind
/// of margin argument:
///
/// Let `D` bound every per-axis distance between a vertex and a pixel
/// centre of the floor/ceil box (vertex extent + 1.5). Each difference the
/// kernel forms is then at most `D` with relative rounding ε/2, so an edge
/// value `cross(b − p, c − p)` carries at most `4·D²·ε` of absolute error,
/// and the computed area the same. Write `Wᵢ` for the exact edge function
/// times the *computed* `inv_area`, and λᵢ for the true barycentrics. With
/// `η = 32·D²·ε·|inv_area| + 10⁻⁶` (8× headroom plus a floor for the
/// `1 − w0 − w1` roundings and underflow), a pixel the kernel accepts has
/// `W₀, W₁, W₂ ≥ −η`, and `κ = area · inv_area` — the factor between
/// `Wᵢ` and λᵢ — is within η of 1. Only for `η ≤ ¼` is anything narrowed;
/// then `κ ≥ ¾` and λ₀, λ₁ ≥ −4η/3, λ₂ ≥ −8η/3. The centre is
/// `p = Σ λᵢ·vᵢ` with `Σ λᵢ = 1`, so it lies beyond the vertices' extent
/// on either axis by at most `Σ|negative λᵢ| · extent ≤ 16η/3 · D`;
/// `δ = 8·η·D` covers that and the f64 arithmetic below (≥ 10⁻⁵ px against
/// ~10⁻⁹ of rounding at the coordinate limit).
///
/// Slivers (`|inv_area|` large), non-finite input and framebuffers too
/// large for exact f32 pixel centres get the box back unchanged.
#[inline]
pub fn centre_box(tri: &ScreenTri) -> (i64, i64, i64, i64) {
    let wide = (tri.min_x, tri.max_x, tri.min_y, tri.max_y);
    let lo_x = tri.p0.x.min(tri.p1.x).min(tri.p2.x) as f64;
    let hi_x = tri.p0.x.max(tri.p1.x).max(tri.p2.x) as f64;
    let lo_y = tri.p0.y.min(tri.p1.y).min(tri.p2.y) as f64;
    let hi_y = tri.p0.y.max(tri.p1.y).max(tri.p2.y) as f64;
    let d = (hi_x - lo_x).max(hi_y - lo_y) + 1.5;
    let eta = 32.0 * d * d * (f32::EPSILON as f64) * (tri.inv_area as f64).abs() + 1e-6;
    // `f32::min`/`max` drop a NaN operand, so one NaN coordinate would not
    // reach `eta`; the sum does not lose it. `!(..)` so a NaN `eta` (from
    // `inv_area`) fails open too.
    let finite = (tri.p0.x + tri.p1.x + tri.p2.x + tri.p0.y + tri.p1.y + tri.p2.y).is_finite();
    let exact_centres = tri.max_x < EXACT_CENTRE_LIMIT && tri.max_y < EXACT_CENTRE_LIMIT;
    if !(finite && exact_centres && eta <= 0.25) {
        return wide;
    }
    let delta = 8.0 * eta * d;
    (
        wide.0.max(ceil_i64(lo_x - 0.5 - delta)),
        wide.1.min(floor_i64(hi_x - 0.5 + delta)),
        wide.2.max(ceil_i64(lo_y - 0.5 - delta)),
        wide.3.min(floor_i64(hi_y - 0.5 + delta)),
    )
}

/// Rasterize the rows of `tri` that fall inside `band` (a view over the
/// tile-sized framebuffer for `tile`) — the binned engine's inner loop.
/// The floor/ceil box `tri` carries is first narrowed to the pixel centres
/// the triangle can cover ([`centre_box`]) and to the band's rows; within
/// what is left, [`walk_spans`] visits only the conservative span of each
/// row or column (whichever axis of the bounding box is shorter becomes
/// the walk axis, which matters for the tall sliver triangles tessellated
/// models decompose into). Every visited pixel runs the shared exact
/// kernel, so the output (pixels, depth bits, and fragment counters)
/// matches the reference's full bounding-box scan bit-for-bit.
pub fn raster_tri_rows(
    band: &mut FramebufferBand<'_>,
    tile: &Viewport,
    tri: &ScreenTri,
    stats: &mut RasterStats,
) {
    let (min_x, max_x, min_y, max_y) = centre_box(tri);
    let y_lo = min_y.max(tile.y as i64 + band.y_start() as i64);
    let y_hi = max_y.min(tile.y as i64 + band.y_end() as i64 - 1);
    if y_lo > y_hi || min_x > max_x {
        return;
    }
    // Tiny bounding boxes can't amortize the span solver's setup; the
    // kernel over the whole box is cheaper. (Identical output either
    // way — the solver only skips pixels the kernel would reject.)
    if (max_x - min_x + 1) * (y_hi - y_lo + 1) <= 16 {
        for py in y_lo..=y_hi {
            raster_span(band, tile, tri, py, min_x, max_x, stats);
        }
        return;
    }
    let (ax, ay) = (tri.p0.x as f64, tri.p0.y as f64);
    let (bx, by) = (tri.p1.x as f64, tri.p1.y as f64);
    let (cx, cy) = (tri.p2.x as f64, tri.p2.y as f64);
    let ia = tri.inv_area as f64;
    // w0's edge spans (b, c), w1's spans (c, a); w2 = 1 - w0 - w1.
    let e0 = [(by - cy) * ia, (cx - bx) * ia, (bx * cy - by * cx) * ia];
    let e1 = [(cy - ay) * ia, (ax - cx) * ia, (cx * ay - cy * ax) * ia];
    let e2 = [-(e0[0] + e1[0]), -(e0[1] + e1[1]), 1.0 - (e0[2] + e1[2])];
    // Worst-case |f32 kernel − f64 line|: the kernel's differences and
    // products involve magnitudes up to `m`, so the raw edge value
    // carries ~24·m²·ε of rounding; ×|inv_area| maps it into barycentric
    // units. The f64 solver rounds with the same m²·|inv_area| scale but
    // at f64's ε, 10⁹× smaller, so one margin dominates both. The factor
    // 32 and the additive floor are headroom.
    let m = ax
        .abs()
        .max(ay.abs())
        .max(bx.abs())
        .max(by.abs())
        .max(cx.abs())
        .max(cy.abs())
        .max(max_x as f64 + 1.0)
        .max(max_y as f64 + 1.0)
        .max(1.0);
    let mw = 32.0 * m * m * (f32::EPSILON as f64) * ia.abs() + 1e-6;
    let margins = [mw, mw, 2.0 * mw + 1e-6];
    if max_x - min_x < y_hi - y_lo {
        // Tall bounding box: walk the (fewer) columns, solve y per column.
        let es = [[e0[1], e0[0], e0[2]], [e1[1], e1[0], e1[2]], [e2[1], e2[0], e2[2]]];
        walk_spans(&es, &margins, min_x, max_x, y_lo, y_hi, |px, lo, hi| {
            raster_col(band, tile, tri, px, lo, hi, stats);
        });
    } else {
        walk_spans(&[e0, e1, e2], &margins, y_lo, y_hi, min_x, max_x, |py, lo, hi| {
            raster_span(band, tile, tri, py, lo, hi, stats);
        });
    }
}

/// Clip a polygon against the `w >= W_EPS` half-space (near-plane guard:
/// every vertex must have positive w before perspective divide). The
/// binned engine's vertex cache also keys its "safe to pre-project" test
/// on this.
pub(crate) const W_EPS: f32 = 1e-5;

fn clip_near(poly: &mut Vec<ClipVertex>, scratch: &mut Vec<ClipVertex>) {
    scratch.clear();
    let n = poly.len();
    for i in 0..n {
        let cur = poly[i];
        let next = poly[(i + 1) % n];
        let cin = cur.clip.w >= W_EPS;
        let nin = next.clip.w >= W_EPS;
        if cin {
            scratch.push(cur);
        }
        if cin != nin {
            let t = (W_EPS - cur.clip.w) / (next.clip.w - cur.clip.w);
            scratch.push(ClipVertex::lerp(&cur, &next, t));
        }
    }
    std::mem::swap(poly, scratch);
}

/// Near-clip one triangle without heap allocation: a triangle clipped
/// against a single plane yields at most 4 vertices. Runs the identical
/// Sutherland–Hodgman sweep as [`clip_near`] (same visit order, same
/// `lerp` expression), so the emitted polygon is bit-identical — just on
/// the stack.
fn clip_near_fixed(tri: [ClipVertex; 3]) -> ([ClipVertex; 4], usize) {
    let mut out = [tri[0]; 4];
    let mut m = 0usize;
    for i in 0..3 {
        let cur = tri[i];
        let next = tri[(i + 1) % 3];
        let cin = cur.clip.w >= W_EPS;
        let nin = next.clip.w >= W_EPS;
        if cin {
            out[m] = cur;
            m += 1;
        }
        if cin != nin {
            let t = (W_EPS - cur.clip.w) / (next.clip.w - cur.clip.w);
            out[m] = ClipVertex::lerp(&cur, &next, t);
            m += 1;
        }
    }
    (out, m)
}

/// Clip, project, and set up one clip-space triangle for the binned
/// pipeline, emitting 0–2 [`ScreenTri`]s through `sink`. Bookkeeping and
/// float expressions match [`rasterize_triangle`] exactly; the only
/// differences are performance-neutral-to-output: no heap allocation
/// (stack clip) and a no-clip fast path for fully-visible triangles
/// (which `clip_near` passes through unchanged anyway).
pub fn bin_triangle(
    full_viewport: &Viewport,
    tile: &Viewport,
    v0: ClipVertex,
    v1: ClipVertex,
    v2: ClipVertex,
    stats: &mut RasterStats,
    sink: &mut impl FnMut(ScreenTri),
) {
    stats.triangles_submitted += 1;
    let project =
        |v: &ClipVertex| (full_viewport.ndc_to_pixel(v.clip.perspective_divide()), v.color);

    if v0.clip.w >= W_EPS && v1.clip.w >= W_EPS && v2.clip.w >= W_EPS {
        // Fully in front of the near guard: the clip sweep would emit the
        // triangle unchanged.
        if let Some(tri) = setup_screen_tri(tile, project(&v0), project(&v1), project(&v2), stats) {
            sink(tri);
        }
        return;
    }

    let (poly, m) = clip_near_fixed([v0, v1, v2]);
    if m < 3 {
        stats.triangles_clipped_away += 1;
        return;
    }
    // Project every polygon vertex once, then fan.
    let mut projected = [(Vec3::ZERO, Vec3::ZERO); 4];
    for (dst, src) in projected[..m].iter_mut().zip(&poly[..m]) {
        *dst = project(src);
    }
    for k in 1..m - 1 {
        if let Some(tri) =
            setup_screen_tri(tile, projected[0], projected[k], projected[k + 1], stats)
        {
            sink(tri);
        }
    }
}

/// One mesh vertex after the binned engine's vertex stage: the clip-space
/// vertex plus, when it clears the near guard (`clip.w >= W_EPS`), its
/// screen projection — computed once with the expression [`bin_triangle`]
/// would use per corner, so the cached value is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct BinVertex {
    pub vertex: ClipVertex,
    /// Pixel x/y + NDC z; meaningful only when `vertex.clip.w >= W_EPS`.
    pub screen: Vec3,
}

impl BinVertex {
    /// What a vertex buffer holds before the vertex stage has written it.
    pub(crate) const UNSET: Self = Self {
        vertex: ClipVertex { clip: Vec4::new(0.0, 0.0, 0.0, 0.0), color: Vec3::ZERO },
        screen: Vec3::ZERO,
    };

    pub fn new(full_viewport: &Viewport, vertex: ClipVertex) -> Self {
        let screen = if vertex.clip.w >= W_EPS {
            full_viewport.ndc_to_pixel(vertex.clip.perspective_divide())
        } else {
            Vec3::ZERO
        };
        Self { vertex, screen }
    }

    /// Whether `screen` holds a projection (it is zero behind the near
    /// guard).
    #[inline]
    pub fn projected(&self) -> bool {
        self.vertex.clip.w >= W_EPS
    }
}

/// Whether a triangle with projected corner columns `x` has no pixel
/// column in `tile`: [`setup_screen_tri`]'s own box test on the x axis
/// (`floor(xmin).max(tile.x) > ceil(xmax).min(tile.x + width - 1)`), taken
/// before the area and the floor/ceil work. Corner by corner rather than
/// through `xmin`/`xmax`: on a tile the triangle does reach, the first
/// comparison of either side already says so. A NaN corner is never off.
#[inline]
fn off_tile_x(tile: &Viewport, x: [f32; 3]) -> bool {
    // f64 holds any u32 and any f32 exactly.
    let left = tile.x as f64 - 1.0;
    let right = tile.x as f64 + tile.width as f64;
    let x = x.map(f64::from);
    (x[0] <= left && x[1] <= left && x[2] <= left)
        || (x[0] >= right && x[1] >= right && x[2] >= right)
}

/// Set up and rasterize, in list order, the part of an indexed mesh that
/// falls inside `band` — the binned engine's triangle stream. Every band
/// of a tile runs this over the same `verts`/`tris`; a band rejects a
/// triangle on its own y-range, then on the tile's x-range, before paying
/// for setup, so a frame costs one cheap pass over its triangles per band
/// plus setup and pixels where they land.
///
/// The per-triangle counters (`triangles_*`) are booked by exactly one
/// **owner** band per triangle — the one holding the row of the
/// triangle's topmost vertex, clamped into the tile; the first band for
/// the near-clipped and the non-finite — so the bands' stats sum to the
/// reference's. Fragment counters are booked where the pixels are.
pub fn raster_mesh_rows(
    band: &mut FramebufferBand<'_>,
    full_viewport: &Viewport,
    tile: &Viewport,
    verts: &[BinVertex],
    tris: &[[u32; 3]],
    stats: &mut RasterStats,
) {
    let first = band.y_start() == 0;
    let last = band.y_end() == tile.height;
    // The band's rows in viewport pixels; f64 holds any u32 exactly.
    let lo = (tile.y + band.y_start()) as f64;
    let hi = (tile.y + band.y_end()) as f64;
    for t in tris {
        let (v0, v1, v2) = (&verts[t[0] as usize], &verts[t[1] as usize], &verts[t[2] as usize]);
        // Setup counters of a triangle this band does not own.
        let mut unowned = RasterStats::default();
        if v0.projected() && v1.projected() && v2.projected() {
            let (y0, y1, y2) = (v0.screen.y, v1.screen.y, v2.screen.y);
            let ymin = y0.min(y1).min(y2) as f64;
            let ymax = y0.max(y1).max(y2) as f64;
            // Bands tile the rows, so exactly one of them sees
            // `lo <= ymin < hi` (first and last extend to ∓∞); NaN lands
            // in the first.
            let own = (first || ymin >= lo) && (last || ymin < hi || ymin.is_nan());
            // Rows `floor(ymin)..=ceil(ymax)` against `lo..hi`; NaN passes.
            let touches = !(ymax <= lo - 1.0 || ymin >= hi);
            if !(own || touches) {
                continue;
            }
            if off_tile_x(tile, [v0.screen.x, v1.screen.x, v2.screen.x]) {
                // Setup would book it clipped away (degenerate or an
                // empty box, the same counter) and draw nothing.
                if own {
                    stats.triangles_submitted += 1;
                    stats.triangles_clipped_away += 1;
                }
                continue;
            }
            // All corners in front of the near guard: the clip sweep would
            // pass the triangle through unchanged, so set up straight from
            // the cached projections.
            let setup = if own { &mut *stats } else { &mut unowned };
            setup.triangles_submitted += 1;
            let tri = setup_screen_tri(
                tile,
                (v0.screen, v0.vertex.color),
                (v1.screen, v1.vertex.color),
                (v2.screen, v2.vertex.color),
                setup,
            );
            if let Some(tri) = tri {
                raster_tri_rows(band, tile, &tri, stats);
            }
        } else {
            bin_triangle(
                full_viewport,
                tile,
                v0.vertex,
                v1.vertex,
                v2.vertex,
                &mut unowned,
                &mut |tri| raster_tri_rows(band, tile, &tri, stats),
            );
            if first {
                stats.accumulate(&unowned);
            }
        }
    }
}

/// Rasterize one triangle (given in clip space) into `fb`, restricted to
/// the pixels of `tile` (which may be the whole framebuffer or a sub-tile
/// in its own smaller buffer — see `tile_origin`).
///
/// `tile_origin` maps viewport pixel coordinates to `fb` indices:
/// `fb[(x - origin.x, y - origin.y)]`. Passing the full viewport with
/// origin (0,0) renders normally; passing a sub-viewport with its own
/// origin renders *that tile* of the global image into a tile-sized
/// buffer with identical pixels — the property the framebuffer
/// distribution scheme depends on ("the framebuffer aligns exactly").
#[allow(clippy::too_many_arguments)]
pub fn rasterize_triangle(
    fb: &mut Framebuffer,
    full_viewport: &Viewport,
    tile: &Viewport,
    v0: ClipVertex,
    v1: ClipVertex,
    v2: ClipVertex,
    stats: &mut RasterStats,
) {
    stats.triangles_submitted += 1;

    // Near clip (produces a fan of 0..=2 extra triangles).
    let mut poly = vec![v0, v1, v2];
    let mut scratch = Vec::with_capacity(4);
    clip_near(&mut poly, &mut scratch);
    if poly.len() < 3 {
        stats.triangles_clipped_away += 1;
        return;
    }

    // Project every polygon vertex once.
    let projected: Vec<(Vec3, Vec3)> = poly
        .iter()
        .map(|v| {
            let ndc = v.clip.perspective_divide();
            (full_viewport.ndc_to_pixel(ndc), v.color)
        })
        .collect();

    for k in 1..projected.len() - 1 {
        raster_screen_tri(fb, tile, projected[0], projected[k], projected[k + 1], stats);
    }
}

fn raster_screen_tri(
    fb: &mut Framebuffer,
    tile: &Viewport,
    v0: (Vec3, Vec3),
    v1: (Vec3, Vec3),
    v2: (Vec3, Vec3),
    stats: &mut RasterStats,
) {
    // The original algorithm, preserved as the baseline: scan the whole
    // bounding box and let the kernel's inside test reject. The binned
    // engine's span-skipping path must match this bit-for-bit.
    if let Some(tri) = setup_screen_tri(tile, v0, v1, v2, stats) {
        let mut band = fb.as_band();
        for py in tri.min_y..=tri.max_y {
            raster_span(&mut band, tile, &tri, py, tri.min_x, tri.max_x, stats);
        }
    }
}

/// Run the vertex stage for an indexed mesh and rasterize every triangle.
///
/// - `model`: local→world matrix of the node
/// - `view_proj`: world→clip
/// - `base_color`: used when the mesh has no vertex colors
#[allow(clippy::too_many_arguments)]
pub fn draw_mesh(
    fb: &mut Framebuffer,
    full_viewport: &Viewport,
    tile: &Viewport,
    mesh: &rave_scene::MeshData,
    model: &Mat4,
    view_proj: &Mat4,
    lighting: &Lighting,
    base_color: Vec3,
    stats: &mut RasterStats,
) {
    let mvp = *view_proj * *model;
    // Normal matrix: for rigid + uniform-scale transforms the upper-left of
    // `model` works directly (non-uniform scale would need the inverse
    // transpose; scene content here is rigid).
    let vertex = |i: u32| -> ClipVertex {
        let i = i as usize;
        let pos = mesh.positions[i];
        let normal = if mesh.normals.is_empty() {
            Vec3::Z
        } else {
            model.transform_dir(mesh.normals[i]).normalized()
        };
        let base = if mesh.colors.is_empty() { base_color } else { mesh.colors[i] };
        ClipVertex { clip: mvp.mul_vec4(pos.extend(1.0)), color: lighting.shade(base, normal) }
    };
    for t in &mesh.triangles {
        rasterize_triangle(
            fb,
            full_viewport,
            tile,
            vertex(t[0]),
            vertex(t[1]),
            vertex(t[2]),
            stats,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::{CameraParams, MeshData};

    fn fullscreen_tri(fb_size: u32) -> (Framebuffer, Viewport, CameraParams, MeshData) {
        let fb = Framebuffer::new(fb_size, fb_size);
        let vp = Viewport::new(fb_size, fb_size);
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, Vec3::Y);
        let mesh = MeshData::new(
            vec![Vec3::new(-2.0, -2.0, 0.0), Vec3::new(2.0, -2.0, 0.0), Vec3::new(0.0, 2.5, 0.0)],
            vec![[0, 1, 2]],
        );
        (fb, vp, cam, mesh)
    }

    fn draw(
        fb: &mut Framebuffer,
        vp: &Viewport,
        tile: &Viewport,
        cam: &CameraParams,
        mesh: &MeshData,
        color: Vec3,
    ) -> RasterStats {
        let mut stats = RasterStats::default();
        draw_mesh(
            fb,
            vp,
            tile,
            mesh,
            &Mat4::IDENTITY,
            &cam.view_proj(vp),
            &Lighting::default(),
            color,
            &mut stats,
        );
        stats
    }

    #[test]
    fn triangle_covers_center() {
        let (mut fb, vp, cam, mesh) = fullscreen_tri(64);
        let stats = draw(&mut fb, &vp, &vp.clone(), &cam, &mesh, Vec3::X);
        assert!(stats.fragments_written > 200);
        let center = fb.get(32, 32);
        assert!(center.0 > 0, "center pixel shaded red: {center:?}");
        assert!(fb.depth_at(32, 32) < 1.0);
    }

    #[test]
    fn triangle_behind_camera_clipped() {
        let (mut fb, vp, _, mesh) = fullscreen_tri(32);
        let cam =
            CameraParams::look_at(Vec3::new(0.0, 0.0, -3.0), Vec3::new(0.0, 0.0, -9.0), Vec3::Y);
        let stats = draw(&mut fb, &vp, &vp.clone(), &cam, &mesh, Vec3::X);
        assert_eq!(stats.fragments_written, 0);
        assert_eq!(fb.coverage(Rgb::BLACK), 0);
    }

    #[test]
    fn triangle_straddling_near_plane_partially_drawn() {
        let mut fb = Framebuffer::new(48, 48);
        let vp = Viewport::new(48, 48);
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 1.0), Vec3::ZERO, Vec3::Y);
        // One vertex far behind the camera, two in front.
        let mesh = MeshData::new(
            vec![
                Vec3::new(-1.0, -0.5, 0.0),
                Vec3::new(1.0, -0.5, 0.0),
                Vec3::new(0.0, 0.0, 5.0), // behind the eye
            ],
            vec![[0, 1, 2]],
        );
        let stats = draw(&mut fb, &vp, &vp.clone(), &cam, &mesh, Vec3::Y);
        assert!(stats.fragments_written > 0, "clipped triangle still visible");
    }

    #[test]
    fn depth_buffer_orders_triangles() {
        let mut fb = Framebuffer::new(32, 32);
        let vp = Viewport::new(32, 32);
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let far_tri = MeshData::new(
            vec![
                Vec3::new(-2.0, -2.0, -1.0),
                Vec3::new(2.0, -2.0, -1.0),
                Vec3::new(0.0, 2.0, -1.0),
            ],
            vec![[0, 1, 2]],
        );
        let near_tri = MeshData::new(
            vec![Vec3::new(-2.0, -2.0, 1.0), Vec3::new(2.0, -2.0, 1.0), Vec3::new(0.0, 2.0, 1.0)],
            vec![[0, 1, 2]],
        );
        // Draw near first, then far: far must NOT overwrite.
        draw(&mut fb, &vp, &vp.clone(), &cam, &near_tri, Vec3::X);
        let red = fb.get(16, 16);
        draw(&mut fb, &vp, &vp.clone(), &cam, &far_tri, Vec3::Y);
        assert_eq!(fb.get(16, 16), red, "near triangle survives");
    }

    #[test]
    fn tiles_reproduce_full_image_exactly() {
        // THE tiling invariant: rendering each tile separately and
        // stitching equals rendering the whole image at once.
        let (mut full, vp, cam, mesh) = fullscreen_tri(64);
        draw(&mut full, &vp, &vp.clone(), &cam, &mesh, Vec3::X);

        let mut stitched = Framebuffer::new(64, 64);
        for tile in vp.split_tiles(2, 2) {
            let mut tile_fb = Framebuffer::new(tile.width, tile.height);
            draw(&mut tile_fb, &vp, &tile, &cam, &mesh, Vec3::X);
            stitched.blit(&tile_fb, tile.x, tile.y);
        }
        assert_eq!(full.diff_fraction(&stitched, 0.0), 0.0, "bit-exact tiling");
    }

    #[test]
    fn gouraud_vertex_colors_interpolate() {
        let mut fb = Framebuffer::new(33, 33);
        let vp = Viewport::new(33, 33);
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, Vec3::Y);
        let mut mesh = MeshData::new(
            vec![Vec3::new(-2.0, -2.0, 0.0), Vec3::new(2.0, -2.0, 0.0), Vec3::new(0.0, 2.5, 0.0)],
            vec![[0, 1, 2]],
        );
        mesh.colors = vec![Vec3::X, Vec3::Y, Vec3::Z];
        mesh.normals = vec![Vec3::Z; 3];
        draw(&mut fb, &vp, &vp.clone(), &cam, &mesh, Vec3::ONE);
        // Bottom-left leans red, bottom-right leans green.
        let bl = fb.get(8, 28);
        let br = fb.get(24, 28);
        assert!(bl.0 > bl.1, "left is redder: {bl:?}");
        assert!(br.1 > br.0, "right is greener: {br:?}");
    }

    #[test]
    fn lighting_modulates_by_normal() {
        let l = Lighting { light_dir: Vec3::Y, ambient: 0.2 };
        let lit = l.shade(Vec3::ONE, Vec3::Y);
        let grazing = l.shade(Vec3::ONE, Vec3::X);
        assert!(lit.x > grazing.x);
        assert!((grazing.x - 0.2).abs() < 1e-6, "ambient floor");
        // Two-sided: flipped normal shades the same.
        assert_eq!(l.shade(Vec3::ONE, -Vec3::Y), lit);
    }

    #[test]
    fn stats_count_consistently() {
        let (mut fb, vp, cam, mesh) = fullscreen_tri(64);
        let stats = draw(&mut fb, &vp, &vp.clone(), &cam, &mesh, Vec3::X);
        assert_eq!(stats.triangles_submitted, 1);
        assert_eq!(stats.triangles_rasterized, 1);
        assert!(stats.fragments_shaded >= stats.fragments_written);
    }

    /// A clip vertex that projects to screen pixel `(x, y)` of `vp` at
    /// NDC depth 0 (exactly, for the power-of-two viewports used here).
    fn at_pixel(vp: &Viewport, x: f32, y: f32) -> ClipVertex {
        let ndc_x = x / vp.width as f32 * 2.0 - 1.0;
        let ndc_y = 1.0 - y / vp.height as f32 * 2.0;
        ClipVertex { clip: Vec4::new(ndc_x, ndc_y, 0.0, 1.0), color: Vec3::ONE }
    }

    /// Both engines on one clip-space triangle: (reference, banded) stats
    /// and framebuffers, the banded one drawn in three unequal bands.
    fn both_engines(
        vp: &Viewport,
        tri: [ClipVertex; 3],
    ) -> ((RasterStats, Framebuffer), (RasterStats, Framebuffer)) {
        let mut reference = Framebuffer::new(vp.width, vp.height);
        let mut ref_stats = RasterStats::default();
        rasterize_triangle(&mut reference, vp, vp, tri[0], tri[1], tri[2], &mut ref_stats);

        let mut banded = Framebuffer::new(vp.width, vp.height);
        let mut stats = RasterStats::default();
        let verts = tri.map(|v| BinVertex::new(vp, v));
        for mut band in banded.row_bands_at(&[1, vp.height - 3]) {
            raster_mesh_rows(&mut band, vp, vp, &verts, &[[0, 1, 2]], &mut stats);
        }
        ((ref_stats, reference), (stats, banded))
    }

    #[test]
    fn non_finite_projection_is_clipped_not_shaded() {
        // w barely clears the near guard, so x/w overflows to +inf: the
        // area is NaN and the triangle's box is the whole tile.
        let vp = Viewport::new(16, 16);
        let blown = ClipVertex { clip: Vec4::new(1e35, 0.0, 0.0, 2.0 * W_EPS), color: Vec3::ONE };
        let tri = [blown, at_pixel(&vp, 2.0, 12.0), at_pixel(&vp, 12.0, 12.0)];
        let untouched = Framebuffer::new(16, 16);
        let expect = RasterStats {
            triangles_submitted: 1,
            triangles_clipped_away: 1,
            ..RasterStats::default()
        };
        let ((ref_stats, reference), (stats, banded)) = both_engines(&vp, tri);
        assert_eq!(ref_stats, expect, "reference books no fragment for a NaN triangle");
        assert_eq!(stats, expect, "binned engine likewise");
        assert_eq!(ref_stats.cost_units(), 8);
        assert_eq!(reference, untouched);
        assert_eq!(banded, untouched);
    }

    fn screen_tri(pts: [(f32, f32); 3], tile: &Viewport) -> ScreenTri {
        let v = pts.map(|(x, y)| (Vec3::new(x, y, 0.0), Vec3::ONE));
        setup_screen_tri(tile, v[0], v[1], v[2], &mut RasterStats::default()).expect("has a box")
    }

    #[test]
    fn centre_box_keeps_only_coverable_centres() {
        let tile = Viewport::new(64, 64);
        // Around the centre of pixel (10, 20) only: floor/ceil box 2x2.
        let tri = screen_tri([(10.2, 20.1), (10.9, 20.3), (10.4, 20.95)], &tile);
        assert_eq!((tri.min_x, tri.max_x, tri.min_y, tri.max_y), (10, 11, 20, 21));
        assert_eq!(centre_box(&tri), (10, 10, 20, 20));
        // Between centres: 2x2 floor/ceil box, no centre inside the extent.
        let tri = screen_tri([(10.6, 20.6), (11.4, 20.7), (11.0, 21.4)], &tile);
        let (x0, x1, y0, y1) = centre_box(&tri);
        assert!(x0 > x1 && y0 > y1, "empty on both axes: {:?}", (x0, x1, y0, y1));
        // Vertices exactly on pixel centres keep those pixels.
        let tri = screen_tri([(4.5, 4.5), (8.5, 4.5), (4.5, 8.5)], &tile);
        assert_eq!(centre_box(&tri), (4, 8, 4, 8));
    }

    #[test]
    fn centre_box_fails_open() {
        let tile = Viewport::new(64, 64);
        // A sliver one ulp thick: inv_area ~1e4 over a 40-pixel extent puts
        // the error bound far past 1/4.
        let tri = screen_tri([(1.25, 1.25), (40.25, 40.25), (20.25, 20.250002)], &tile);
        assert_eq!(centre_box(&tri), (tri.min_x, tri.max_x, tri.min_y, tri.max_y));
        // Non-finite input (such a triangle never leaves setup; the box
        // function must not rely on that).
        for bad in [f32::NAN, f32::INFINITY] {
            let mut tri = screen_tri([(4.5, 4.5), (8.5, 4.5), (4.5, 8.5)], &tile);
            tri.p1.x = bad;
            assert_eq!(centre_box(&tri), (tri.min_x, tri.max_x, tri.min_y, tri.max_y));
            let mut tri = screen_tri([(4.5, 4.5), (8.5, 4.5), (4.5, 8.5)], &tile);
            tri.inv_area = bad;
            assert_eq!(centre_box(&tri), (tri.min_x, tri.max_x, tri.min_y, tri.max_y));
        }
    }

    /// The x-reject is `setup_screen_tri`'s box test and nothing more: at
    /// the two boundary columns and an ulp either side of them it says
    /// "off" exactly when setup finds the box empty, and a mesh pass books
    /// the same counters either way.
    #[test]
    fn x_reject_agrees_with_setup_on_the_boundary_columns() {
        let vp = Viewport::new(64, 64);
        let tile = Viewport::with_origin(16, 8, 32, 40);
        let ulps = |v: f32| [v.next_down(), v, v.next_up()];
        // Triangles on the tile's rows whose rightmost corner is at, just
        // left and just right of `tile.x − 1`, then whose leftmost corner
        // is around `tile.x + width`.
        let mut cases = Vec::new();
        for xmax in ulps(15.0) {
            cases.push([(3.0, 10.0), (xmax, 20.0), (5.0, 30.0)]);
        }
        for xmin in ulps(48.0) {
            cases.push([(xmin, 10.0), (60.0, 20.0), (55.0, 30.0)]);
        }
        let mut off = Vec::new();
        for pts in cases {
            let v = pts.map(|(x, y)| (Vec3::new(x, y, 0.0), Vec3::ONE));
            let mut setup_stats = RasterStats::default();
            let set_up = setup_screen_tri(&tile, v[0], v[1], v[2], &mut setup_stats).is_some();
            let rejected = off_tile_x(&tile, pts.map(|(x, _)| x));
            assert_eq!(rejected, !set_up, "{pts:?}");
            off.push(rejected);

            // The same triangle through a banded mesh pass.
            // (The cached projection set by hand: a trip through NDC
            // would round the ulp away.)
            let verts = pts.map(|(x, y)| BinVertex {
                vertex: ClipVertex { clip: Vec4::new(0.0, 0.0, 0.0, 1.0), color: Vec3::ONE },
                screen: Vec3::new(x, y, 0.0),
            });
            let mut fb = Framebuffer::new(tile.width, tile.height);
            let mut stats = RasterStats::default();
            for mut band in fb.row_bands_at(&[5, 17]) {
                raster_mesh_rows(&mut band, &vp, &tile, &verts, &[[0, 1, 2]], &mut stats);
            }
            let expect = RasterStats { triangles_submitted: 1, ..setup_stats };
            assert_eq!(
                RasterStats { fragments_shaded: 0, fragments_written: 0, ..stats },
                expect,
                "{pts:?}"
            );
        }
        // `xmax == tile.x − 1` is off, an ulp more is on; `xmin == tile.x +
        // width` is off, an ulp less is on.
        assert_eq!(off, [true, true, false, false, true, true]);
        // NaN is never off.
        assert!(!off_tile_x(&tile, [f32::NAN, 3.0, 4.0]));
        assert!(!off_tile_x(&tile, [60.0, f32::NAN, 70.0]));
    }

    #[test]
    fn near_clipped_triangle_counts_once_across_bands() {
        // One corner behind the eye: every band runs the clip path, the
        // first band alone books its setup counters.
        let vp = Viewport::new(16, 16);
        let behind = ClipVertex { clip: Vec4::new(0.0, 0.5, 0.0, -1.0), color: Vec3::ONE };
        let tri = [at_pixel(&vp, 2.0, 14.0), at_pixel(&vp, 14.0, 14.0), behind];
        let ((ref_stats, reference), (stats, banded)) = both_engines(&vp, tri);
        assert!(ref_stats.fragments_written > 0);
        assert_eq!(stats, ref_stats);
        assert_eq!(banded, reference);
    }
}
