//! Triangle rasterization: clip → project → scan-convert with z-buffer
//! and Gouraud shading.
//!
//! **What is drawn.** A clip-space triangle is counted *submitted* and
//! clipped against `w ≥ 10⁻⁵` (Sutherland–Hodgman; the crossing at
//! `t = (10⁻⁵ − w_cur) / (w_next − w_cur)` is `cur + (next − cur)·t` on
//! position and colour); fewer than three vertices left is *clipped away*.
//! Each vertex left is divided by its `w` and mapped to pixels, and the
//! polygon is drawn as a fan about its first vertex. A fan triangle with
//! screen corners `a, b, c` (`u × v = u.x·v.y − u.y·v.x`, everything in
//! f32, left to right) has `area = (b − a) × (c − a)`. It is *clipped
//! away* when `|area| < 10⁻⁹` or the area is not finite, or when its
//! floor/ceil box — columns `floor(min x)..=ceil(max x)`, rows likewise,
//! cut to the tile — holds no pixel; otherwise it is *rasterized*, with
//! `inv_area = 1 / area`, by running **the kernel** on the pixels
//! `(px, py)` of that box:
//!
//! 1. sample the pixel centre, `p = (px + ½, py + ½)`;
//! 2. `w0 = (b − p) × (c − p) · inv_area`, `w1 = (c − p) × (a − p) ·
//!    inv_area`, `w2 = 1 − w0 − w1`;
//! 3. the pixel is outside if `w0 < 0` or `w1 < 0` or `w2 < 0`;
//! 4. inside: one more `fragments_shaded`; `z = w0·z_a + w1·z_b + w2·z_c`,
//!    and the fragment is dropped unless `−1 ≤ z ≤ 1`;
//! 5. its colour is `c_a·w0 + c_b·w1 + c_c·w2` per channel, clamped to
//!    `[0, 1]` and quantised `(x·255 + ½) as u8`;
//! 6. it is written — colour and depth, one more `fragments_written` — if
//!    `z` is strictly less than the depth stored at the pixel.
//!
//! The colour reaches the picture only through step 6, so the code takes
//! 6's comparison before 5's arithmetic.
//!
//! Two call paths draw this way:
//!
//! - the **immediate-mode reference** ([`rasterize_triangle`],
//!   [`draw_mesh`]) — per-triangle code that runs the kernel on every
//!   pixel of every floor/ceil box, the baseline every optimization is
//!   verified against;
//! - the **binned pipeline** ([`raster_mesh_rows`], one pass over a mesh's
//!   cached vertex stage per row band) used by
//!   [`crate::renderer::Renderer`] to rasterize disjoint row bands in
//!   parallel.
//!
//! They share the setup (`setup_tri`: the counters, `inv_area`, the box)
//! and the kernel's two halves (`barycentrics` for steps 1–2,
//! `shade_fragment` for 4–6), so a banded draw is bit-identical to a
//! serial one — the guarantee the parallel renderer's property tests pin
//! down. The binned path may *skip* pixels (the centre-sampled box
//! `setup_tri` narrows to, the spans of `walk_spans`, the clear bits of
//! `raster_small_box`'s mask), but only ones step 3 provably rejects; the
//! reference scans the whole floor/ceil box and stays an independent
//! oracle, and `tests/proptest_render.rs` holds both to the six steps
//! above written out with no code from here.

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

/// A triangle set up for the kernel: screen-space corners (pixel x/y),
/// their NDC depths and Gouraud colors, the signed-area inverse, and the
/// pixel box to run the kernel over (inclusive, never empty, inside the
/// tile and the rows [`setup_tri`] was asked for).
#[derive(Debug, Clone, Copy)]
struct ScreenTri {
    a: Vec2,
    b: Vec2,
    c: Vec2,
    z: [f32; 3],
    c0: Vec3,
    c1: Vec3,
    c2: Vec3,
    inv_area: f32,
    min_x: i64,
    max_x: i64,
    min_y: i64,
    max_y: i64,
}

/// `floor(v) as i64` without `f64::floor` (a libcall on baseline
/// x86-64, and this runs for every submitted triangle): truncate, then
/// correct the negative direction. Saturates at the i64 range like any
/// float→int cast.
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

/// The extremes of a projected triangle's corners on both screen axes,
/// taken once: the band and tile rejects, the floor/ceil box the setup
/// counters are defined by and the centre box are all read off these
/// four. In `f64`, which holds any `f32` and any `u32` exactly, so they
/// compare against tile and band edges without rounding. `f32::min`/`max`
/// drop a NaN operand: an extent is NaN only when all three corners are.
#[derive(Debug, Clone, Copy)]
struct Extent {
    lo_x: f64,
    hi_x: f64,
    lo_y: f64,
    hi_y: f64,
}

impl Extent {
    #[inline(always)]
    fn of(p0: Vec3, p1: Vec3, p2: Vec3) -> Self {
        Self {
            lo_x: p0.x.min(p1.x).min(p2.x) as f64,
            hi_x: p0.x.max(p1.x).max(p2.x) as f64,
            lo_y: p0.y.min(p1.y).min(p2.y) as f64,
            hi_y: p0.y.max(p1.y).max(p2.y) as f64,
        }
    }
}

/// Pixel coordinates below this convert to exact f32 centres
/// (`px as f32 + 0.5`), which [`setup_tri`]'s error bound assumes.
const EXACT_CENTRE_LIMIT: i64 = 1 << 22;

/// THE per-triangle setup, shared by every call path: books the triangle
/// as clipped away or rasterized in `counters`, and returns what the
/// kernel needs with the pixel box to run it over — `None` when nothing
/// can be drawn on rows `rows.0..=rows.1` (viewport pixels, inside
/// `tile`). The [`Extent`] is [`Extent::of`] the three corners. Exits are
/// ordered by what they cost: nothing is divided before the counters are
/// settled, and no [`ScreenTri`] is filled before its box is known to hold
/// a pixel.
///
/// **The counters** are defined by the degeneracy test and by the
/// floor/ceil box `floor(lo)..=ceil(hi)` against the tile: empty →
/// clipped away. With `lo ≤ hi` and `t0`, `t1` the tile's first and last
/// column, `floor(lo).max(t0) > ceil(hi).min(t1)` is `hi ≤ t0 − 1` or
/// `lo ≥ t1 + 1`, which is how the box test is taken here — before the
/// area, so a triangle beside the tile costs four comparisons. A NaN
/// corner may pass it or not; its area is NaN and books the same counter.
///
/// **The box.** With `narrow` off it is the floor/ceil box — the
/// reference's scan. With it on, the box is narrowed to the pixels whose
/// *centres* can pass the kernel's inside test: a model tessellated finer
/// than the pixel grid is mostly triangles whose floor/ceil box is 2–4
/// pixels wide around zero or one pixel centre, and the difference is all
/// wasted kernel calls. The contract is [`walk_spans`]' — skip only what
/// [`raster_pixel`] provably rejects, fail open — and the margin argument
/// of the same kind:
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
/// `Wᵢ` and λᵢ — is within η of 1. For `η ≤ ¼`, `κ ≥ ¾` and λ₀, λ₁ ≥
/// −4η/3, λ₂ ≥ −8η/3. The centre is `p = Σ λᵢ·vᵢ` with `Σ λᵢ = 1`, so it
/// lies beyond the vertices' extent on either axis by at most
/// `Σ|negative λᵢ| · extent ≤ 16η/3 · D`; `δ = 8·η·D` covers that and the
/// f64 arithmetic below (≥ 10⁻⁵ px against ~10⁻⁹ of rounding at the
/// coordinate limit). Only centres in `lo − δ ..= hi + δ` can pass: pixels
/// `ceil(lo − ½ − δ)..=floor(hi − ½ + δ)`.
///
/// Narrowing is taken only for `δ ≤ ¼`. `D ≥ 1.5` makes that `η ≤ 1/48`,
/// inside the argument's `η ≤ ¼`; and it keeps the centre box inside the
/// floor/ceil box (`ceil(lo − ¾) ≥ floor(lo)`, `floor(hi − ¼) ≤
/// ceil(hi)`), so only one of the two is ever converted to integers.
/// Slivers (`|inv_area|` large against `D`) and framebuffers too large
/// for exact f32 pixel centres get the floor/ceil box and the kernel
/// decides. Nothing non-finite reaches the bound: an infinite or NaN
/// corner makes the area infinite or NaN — every operation of the cross
/// product keeps either — and left above; `!(δ ≤ ¼)` fails open all the
/// same.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn setup_tri(
    tile: &Viewport,
    rows: (i64, i64),
    narrow: bool,
    Extent { lo_x, hi_x, lo_y, hi_y }: Extent,
    (p0, c0): (Vec3, Vec3),
    (p1, c1): (Vec3, Vec3),
    (p2, c2): (Vec3, Vec3),
    counters: &mut RasterStats,
) -> Option<ScreenTri> {
    // The tile's first column and row, and one past its last.
    let (tx0, tx1) = (tile.x as f64, tile.x as f64 + tile.width as f64);
    let (ty0, ty1) = (tile.y as f64, tile.y as f64 + tile.height as f64);
    if hi_x <= tx0 - 1.0 || lo_x >= tx1 || hi_y <= ty0 - 1.0 || lo_y >= ty1 {
        counters.triangles_clipped_away += 1;
        return None; // no pixel of its floor/ceil box on the tile
    }
    let a = Vec2::new(p0.x, p0.y);
    let b = Vec2::new(p1.x, p1.y);
    let c = Vec2::new(p2.x, p2.y);
    let area = (b - a).cross(c - a);
    // Non-finite area means a non-finite projected vertex (`x/w` overflows
    // once `w` is barely above `W_EPS`): the kernel could write nothing for
    // it, yet `NaN < 0.0` being false would book a shaded fragment for
    // every pixel of its box.
    if area.abs() < 1e-9 || !area.is_finite() {
        counters.triangles_clipped_away += 1;
        return None; // degenerate in screen space
    }
    counters.triangles_rasterized += 1;
    let inv_area = 1.0 / area;

    let d = (hi_x - lo_x).max(hi_y - lo_y) + 1.5;
    let eta = 32.0 * d * d * (f32::EPSILON as f64) * (inv_area as f64).abs() + 1e-6;
    let delta = 8.0 * eta * d;
    // The floor/ceil box's last column and row are `ceil(hi).min(t1 − 1)`.
    let limit = (EXACT_CENTRE_LIMIT - 1) as f64;
    let exact_centres = hi_x.min(tx1 - 1.0) <= limit && hi_y.min(ty1 - 1.0) <= limit;
    let (x0, x1, y0, y1) = if narrow && exact_centres && delta <= 0.25 {
        (
            ceil_i64(lo_x - 0.5 - delta),
            floor_i64(hi_x - 0.5 + delta),
            ceil_i64(lo_y - 0.5 - delta),
            floor_i64(hi_y - 0.5 + delta),
        )
    } else {
        (floor_i64(lo_x), ceil_i64(hi_x), floor_i64(lo_y), ceil_i64(hi_y))
    };
    let min_x = x0.max(tile.x as i64);
    let max_x = x1.min((tile.x + tile.width) as i64 - 1);
    let min_y = y0.max(rows.0);
    let max_y = y1.min(rows.1);
    if min_x > max_x || min_y > max_y {
        return None; // no pixel centre it can cover on these rows
    }
    let z = [p0.z, p1.z, p2.z];
    Some(ScreenTri { a, b, c, z, c0, c1, c2, inv_area, min_x, max_x, min_y, max_y })
}

/// The barycentrics the kernel tests and interpolates with, sampled at
/// the centre of pixel `(px, py)`. Every path that decides or shades a
/// pixel takes them from here, so they are the same bits wherever and
/// however often they are computed.
#[inline(always)]
fn barycentrics(tri: &ScreenTri, px: i64, py: i64) -> (f32, f32, f32) {
    let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
    let w0 = (tri.b - p).cross(tri.c - p) * tri.inv_area;
    let w1 = (tri.c - p).cross(tri.a - p) * tri.inv_area;
    (w0, w1, 1.0 - w0 - w1)
}

/// The kernel past its inside test: book the fragment, interpolate depth,
/// test it against NDC near/far and then against the stored depth, and
/// only for a fragment that wins interpolate, clamp and quantise the
/// colour (over half of a tessellated model's shaded fragments lose).
#[inline(always)]
fn shade_fragment(
    band: &mut FramebufferBand<'_>,
    tile: &Viewport,
    tri: &ScreenTri,
    px: i64,
    py: i64,
    (w0, w1, w2): (f32, f32, f32),
    stats: &mut RasterStats,
) {
    stats.fragments_shaded += 1;
    let z = w0 * tri.z[0] + w1 * tri.z[1] + w2 * tri.z[2];
    if !(-1.0..=1.0).contains(&z) {
        return; // beyond near/far in NDC
    }
    let x_local = (px as u32) - tile.x;
    let y_local = (py as u32) - tile.y;
    let wrote = band.set_if_closer_with(x_local, y_local, z, || {
        let col = tri.c0 * w0 + tri.c1 * w1 + tri.c2 * w2;
        Rgb::from_f32(col.x, col.y, col.z)
    });
    stats.fragments_written += wrote as u64;
}

/// THE per-pixel kernel. Both engines funnel every shaded pixel through
/// this exact body — [`barycentrics`], the three sign tests,
/// [`shade_fragment`] — so any partition of a triangle's pixels — rows,
/// columns, bands — reproduces the serial result bit-for-bit, z-ties
/// included (each pixel is touched once per triangle, so visit order
/// within a triangle cannot matter).
#[inline(always)]
fn raster_pixel(
    band: &mut FramebufferBand<'_>,
    tile: &Viewport,
    tri: &ScreenTri,
    px: i64,
    py: i64,
    stats: &mut RasterStats,
) {
    let (w0, w1, w2) = barycentrics(tri, px, py);
    if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
        return;
    }
    shade_fragment(band, tile, tri, px, py, (w0, w1, w2), stats);
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
    for px in px_lo..=px_hi {
        raster_pixel(band, tile, tri, px, py, stats);
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
    for py in py_lo..=py_hi {
        raster_pixel(band, tile, tri, px, py, stats);
    }
}

/// The kernel over a box of at most 16 pixels, in two passes: the inside
/// test of every pixel into a bit mask, then [`shade_fragment`] for the
/// set bits. On a tessellated model two candidates in three fail the
/// inside test, in no order a branch predictor can learn; the first pass
/// has no data-dependent branch (`|` where [`raster_pixel`] has `||`, on
/// the same [`barycentrics`]) and the second runs once per covered pixel.
/// Each pixel is still visited once per triangle, so the output is
/// `raster_pixel`'s over the box.
#[inline]
fn raster_small_box(
    band: &mut FramebufferBand<'_>,
    tile: &Viewport,
    tri: &ScreenTri,
    stats: &mut RasterStats,
) {
    // Pixel (col, row) of the box is bit `row << shift | col`: 16 pixels
    // are at most 4 columns by 16 rows or 16 columns by 3 rows, 64 bits
    // either way.
    let shift = if tri.max_x - tri.min_x < 4 { 2 } else { 4 };
    let mut mask = 0u64;
    for py in tri.min_y..=tri.max_y {
        let row = (py - tri.min_y) << shift;
        for px in tri.min_x..=tri.max_x {
            let (w0, w1, w2) = barycentrics(tri, px, py);
            let outside = (w0 < 0.0) | (w1 < 0.0) | (w2 < 0.0);
            mask |= (!outside as u64) << (row + px - tri.min_x);
        }
    }
    while mask != 0 {
        let bit = mask.trailing_zeros() as i64;
        mask &= mask - 1;
        let (px, py) = (tri.min_x + (bit & ((1 << shift) - 1)), tri.min_y + (bit >> shift));
        shade_fragment(band, tile, tri, px, py, barycentrics(tri, px, py), stats);
    }
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

/// Run the kernel over the box of a set-up triangle — the binned
/// engine's inner loop. A box of at most 16 pixels cannot amortize the
/// span solver's setup and is masked, then shaded ([`raster_small_box`]);
/// within a larger one [`walk_spans`] visits only the conservative span
/// of each row or column (whichever axis of the box is shorter becomes
/// the walk axis, which matters for the tall sliver triangles tessellated
/// models decompose into). Every visited pixel runs the shared exact
/// kernel, so the output (pixels, depth bits, and fragment counters)
/// matches the reference's full bounding-box scan bit-for-bit.
fn raster_tri(
    band: &mut FramebufferBand<'_>,
    tile: &Viewport,
    tri: &ScreenTri,
    stats: &mut RasterStats,
) {
    let ScreenTri { min_x, max_x, min_y: y_lo, max_y: y_hi, .. } = *tri;
    if (max_x - min_x + 1) * (y_hi - y_lo + 1) <= 16 {
        return raster_small_box(band, tile, tri, stats);
    }
    let (ax, ay) = (tri.a.x as f64, tri.a.y as f64);
    let (bx, by) = (tri.b.x as f64, tri.b.y as f64);
    let (cx, cy) = (tri.c.x as f64, tri.c.y as f64);
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
        .max(y_hi as f64 + 1.0)
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

/// The binned engine's clip path, for a triangle with a corner at or
/// behind the near guard: clip, project and set up one clip-space
/// triangle, and draw the rows of `band` of the 0–2 triangles that come
/// out. Setup counters go to `counters`, fragments to `stats`.
/// Bookkeeping and float expressions match [`rasterize_triangle`] exactly;
/// the only difference is performance-neutral-to-output: no heap
/// allocation (stack clip).
#[allow(clippy::too_many_arguments)]
fn bin_triangle(
    band: &mut FramebufferBand<'_>,
    full_viewport: &Viewport,
    tile: &Viewport,
    v0: ClipVertex,
    v1: ClipVertex,
    v2: ClipVertex,
    counters: &mut RasterStats,
    stats: &mut RasterStats,
) {
    counters.triangles_submitted += 1;
    let project =
        |v: &ClipVertex| (full_viewport.ndc_to_pixel(v.clip.perspective_divide()), v.color);
    let (poly, m) = clip_near_fixed([v0, v1, v2]);
    if m < 3 {
        counters.triangles_clipped_away += 1;
        return;
    }
    // Project every polygon vertex once, then fan.
    let mut projected = [(Vec3::ZERO, Vec3::ZERO); 4];
    for (dst, src) in projected[..m].iter_mut().zip(&poly[..m]) {
        *dst = project(src);
    }
    let rows = band_rows(band, tile);
    for k in 1..m - 1 {
        let (v0, v1, v2) = (projected[0], projected[k], projected[k + 1]);
        let ext = Extent::of(v0.0, v1.0, v2.0);
        if let Some(tri) = setup_tri(tile, rows, true, ext, v0, v1, v2, counters) {
            raster_tri(band, tile, &tri, stats);
        }
    }
}

/// One mesh vertex after the binned engine's vertex stage: the clip-space
/// vertex plus, when it clears the near guard (`clip.w >= W_EPS`), its
/// screen projection — computed once with the expression [`rasterize_triangle`]
/// uses per corner, so the cached value is bit-identical.
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

/// The rows of `band` in viewport pixels, inclusive — what [`setup_tri`]
/// clips a triangle's box to.
#[inline]
fn band_rows(band: &FramebufferBand<'_>, tile: &Viewport) -> (i64, i64) {
    (tile.y as i64 + band.y_start() as i64, tile.y as i64 + band.y_end() as i64 - 1)
}

/// Set up and rasterize, in list order, the part of an indexed mesh that
/// falls inside `band` — the binned engine's triangle stream. Every band
/// of a tile runs this over the same `verts`/`tris`; a band rejects a
/// triangle on its own y-range before paying for setup, and setup leaves
/// a triangle beside the tile's columns after four comparisons, so a
/// frame costs one cheap pass over its triangles per band plus setup and
/// pixels where they land.
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
    let rows = band_rows(band, tile);
    // The band's first row and one past its last; f64 holds any u32
    // exactly.
    let lo = rows.0 as f64;
    let hi = rows.1 as f64 + 1.0;
    for t in tris {
        let (v0, v1, v2) = (&verts[t[0] as usize], &verts[t[1] as usize], &verts[t[2] as usize]);
        // Setup counters of a triangle this band does not own.
        let mut unowned = RasterStats::default();
        if v0.projected() && v1.projected() && v2.projected() {
            let ext = Extent::of(v0.screen, v1.screen, v2.screen);
            // Bands tile the rows, so exactly one of them sees
            // `lo <= ymin < hi` (first and last extend to ∓∞); NaN lands
            // in the first.
            let own = (first || ext.lo_y >= lo) && (last || ext.lo_y < hi || ext.lo_y.is_nan());
            // Rows `floor(ymin)..=ceil(ymax)` against `lo..hi`; NaN passes.
            let touches = !(ext.hi_y <= lo - 1.0 || ext.lo_y >= hi);
            if !(own || touches) {
                continue;
            }
            // All corners in front of the near guard: the clip sweep would
            // pass the triangle through unchanged, so set up straight from
            // the cached projections.
            let counters = if own { &mut *stats } else { &mut unowned };
            counters.triangles_submitted += 1;
            let tri = setup_tri(
                tile,
                rows,
                true,
                ext,
                (v0.screen, v0.vertex.color),
                (v1.screen, v1.vertex.color),
                (v2.screen, v2.vertex.color),
                counters,
            );
            if let Some(tri) = tri {
                raster_tri(band, tile, &tri, stats);
            }
        } else {
            bin_triangle(
                band,
                full_viewport,
                tile,
                v0.vertex,
                v1.vertex,
                v2.vertex,
                &mut unowned,
                stats,
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
    // floor/ceil box (setup with narrowing off) and let the kernel's
    // inside test reject. The binned engine's centre boxes, masks and
    // spans must match this bit-for-bit.
    let mut band = fb.as_band();
    let ext = Extent::of(v0.0, v1.0, v2.0);
    if let Some(tri) = setup_tri(tile, band_rows(&band, tile), false, ext, v0, v1, v2, stats) {
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

    type PixelBox = (i64, i64, i64, i64);

    /// `setup_tri` on screen corners `pts`: the box it returns — `None`
    /// when it draws nothing — and what it booked.
    fn setup(
        pts: [(f32, f32); 3],
        tile: &Viewport,
        rows: (i64, i64),
        narrow: bool,
    ) -> (Option<PixelBox>, RasterStats) {
        let v = pts.map(|(x, y)| (Vec3::new(x, y, 0.0), Vec3::ONE));
        let ext = Extent::of(v[0].0, v[1].0, v[2].0);
        let mut stats = RasterStats::default();
        let tri = setup_tri(tile, rows, narrow, ext, v[0], v[1], v[2], &mut stats);
        (tri.map(|t| (t.min_x, t.max_x, t.min_y, t.max_y)), stats)
    }

    fn tile_rows(tile: &Viewport) -> (i64, i64) {
        (tile.y as i64, (tile.y + tile.height) as i64 - 1)
    }

    const RASTERIZED: RasterStats = RasterStats {
        triangles_submitted: 0,
        triangles_clipped_away: 0,
        triangles_rasterized: 1,
        fragments_shaded: 0,
        fragments_written: 0,
    };
    const CLIPPED: RasterStats =
        RasterStats { triangles_clipped_away: 1, triangles_rasterized: 0, ..RASTERIZED };

    #[test]
    fn setup_keeps_only_coverable_centres() {
        let tile = Viewport::new(64, 64);
        let rows = tile_rows(&tile);
        // Around the centre of pixel (10, 20) only: floor/ceil box 2x2.
        let pts = [(10.2, 20.1), (10.9, 20.3), (10.4, 20.95)];
        assert_eq!(setup(pts, &tile, rows, false), (Some((10, 11, 20, 21)), RASTERIZED));
        assert_eq!(setup(pts, &tile, rows, true), (Some((10, 10, 20, 20)), RASTERIZED));
        // Between centres: 2x2 floor/ceil box, no centre inside the extent
        // — nothing to draw, and rasterized all the same.
        let pts = [(10.6, 20.6), (11.4, 20.7), (11.0, 21.4)];
        assert_eq!(setup(pts, &tile, rows, false), (Some((10, 12, 20, 22)), RASTERIZED));
        assert_eq!(setup(pts, &tile, rows, true), (None, RASTERIZED));
        // Vertices exactly on pixel centres keep those pixels; the rows
        // asked for clip the box, not the counters.
        let pts = [(4.5, 4.5), (8.5, 4.5), (4.5, 8.5)];
        assert_eq!(setup(pts, &tile, rows, true), (Some((4, 8, 4, 8)), RASTERIZED));
        assert_eq!(setup(pts, &tile, (6, 7), true), (Some((4, 8, 6, 7)), RASTERIZED));
        assert_eq!(setup(pts, &tile, (9, 63), true), (None, RASTERIZED));
    }

    #[test]
    fn setup_fails_open() {
        let tile = Viewport::new(64, 64);
        let rows = tile_rows(&tile);
        // A sliver one ulp thick: inv_area ~1e4 over a 40-pixel extent puts
        // the error bound far past the narrowing limit.
        let sliver = [(1.25, 1.25), (40.25, 40.25), (20.25, 20.250002)];
        assert_eq!(setup(sliver, &tile, rows, true), (Some((1, 41, 1, 41)), RASTERIZED));
        assert_eq!(setup(sliver, &tile, rows, true), setup(sliver, &tile, rows, false));
        // Pixel coordinates with no exact f32 centre: the same small
        // triangle is narrowed on a tile below the limit, not on one at it.
        let at = |x0: f32| [(x0 + 0.5, 1.2), (x0 + 2.5, 1.3), (x0 + 1.0, 2.9)];
        for (x0, narrowed) in [(1u32 << 21, true), (1 << 22, false)] {
            let tile = Viewport::with_origin(x0, 0, 8, 8);
            let (x0, rows) = (x0 as i64, tile_rows(&tile));
            let wide = (Some((x0, x0 + 3, 1, 3)), RASTERIZED);
            assert_eq!(setup(at(x0 as f32), &tile, rows, false), wide);
            let got = setup(at(x0 as f32), &tile, rows, true);
            assert_eq!(got != wide, narrowed, "{got:?}");
        }
        // Non-finite corners never reach the bound: clipped away, on the
        // tile or beside it.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for narrow in [false, true] {
                let pts = [(4.5, 4.5), (bad, 4.5), (4.5, 8.5)];
                assert_eq!(setup(pts, &tile, rows, narrow), (None, CLIPPED));
                let pts = [(4.5, bad), (8.5, 4.5), (4.5, bad)];
                assert_eq!(setup(pts, &tile, rows, narrow), (None, CLIPPED));
            }
        }
    }

    /// Setup reads "no pixel of the floor/ceil box on the tile" off the
    /// corners' extremes; the counters are defined by the box itself. At
    /// the tile's four boundary lines and an ulp either side of them the
    /// two agree, and a mesh pass books what setup books.
    #[test]
    fn box_test_agrees_with_the_floor_ceil_box_on_the_tile_boundary() {
        let vp = Viewport::new(64, 64);
        let tile = Viewport::with_origin(16, 8, 32, 40);
        let ulps = |v: f32| [v.next_down(), v, v.next_up()];
        // Triangles whose rightmost corner is at, just left and just right
        // of `tile.x − 1`, then whose leftmost corner is around
        // `tile.x + width`; then the same against the tile's rows.
        let mut cases = Vec::new();
        for xmax in ulps(15.0) {
            cases.push([(3.0, 10.0), (xmax, 20.0), (5.0, 30.0)]);
        }
        for xmin in ulps(48.0) {
            cases.push([(xmin, 10.0), (60.0, 20.0), (55.0, 30.0)]);
        }
        for ymax in ulps(7.0) {
            cases.push([(20.0, 1.0), (30.0, ymax), (25.0, 3.0)]);
        }
        for ymin in ulps(48.0) {
            cases.push([(20.0, ymin), (30.0, 60.0), (25.0, 55.0)]);
        }
        let mut off = Vec::new();
        for pts in cases {
            // The floor/ceil box against the tile, as the counters define it.
            let lo = |f: fn(&(f32, f32)) -> f32| pts.iter().map(f).fold(f32::INFINITY, f32::min);
            let hi =
                |f: fn(&(f32, f32)) -> f32| pts.iter().map(f).fold(f32::NEG_INFINITY, f32::max);
            let empty = (lo(|p| p.0).floor() as i64).max(16) > (hi(|p| p.0).ceil() as i64).min(47)
                || (lo(|p| p.1).floor() as i64).max(8) > (hi(|p| p.1).ceil() as i64).min(47);
            let (set_up, setup_stats) = setup(pts, &tile, tile_rows(&tile), false);
            assert_eq!(set_up.is_none(), empty, "{pts:?}");
            assert_eq!(setup_stats, if empty { CLIPPED } else { RASTERIZED }, "{pts:?}");
            off.push(empty);

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
        // A corner extreme on `tile.x − 1` or `tile.x + width` is off, an
        // ulp towards the tile is on; likewise the rows.
        let axis = [true, true, false, false, true, true];
        assert_eq!(off, [axis, axis].concat());
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
