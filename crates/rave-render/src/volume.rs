//! Volume rendering by per-pixel ray casting with front-to-back alpha
//! compositing.
//!
//! §6: "Subset blocks of the volume can be blended, even though they
//! contain transparency, by considering their relative distance from the
//! view in the order of blending (such as Visapult)." The renderer
//! produces per-tile RGBA+depth volume layers; [`crate::composite`] blends
//! distributed layers in view order.

use crate::framebuffer::{Framebuffer, FramebufferBand, Rgb};
use crate::raster::RasterStats;
use rave_math::{clampf, Mat4, Vec3, Viewport};
use rave_scene::VolumeData;

/// Density → color+opacity mapping (a minimal transfer function: grayscale
/// ramp with an opacity threshold window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferFunction {
    /// Densities below this are fully transparent.
    pub threshold: f32,
    /// Opacity accumulated per unit optical depth above threshold.
    pub opacity_scale: f32,
    /// Tint applied to the density ramp.
    pub tint: Vec3,
}

impl Default for TransferFunction {
    fn default() -> Self {
        Self { threshold: 0.15, opacity_scale: 4.0, tint: Vec3::ONE }
    }
}

impl TransferFunction {
    /// RGBA sample for a normalized density.
    pub fn map(&self, density: f32) -> (Vec3, f32) {
        if density < self.threshold {
            return (Vec3::ZERO, 0.0);
        }
        let v = (density - self.threshold) / (1.0 - self.threshold).max(1e-6);
        (self.tint * v, clampf(v * self.opacity_scale, 0.0, 1.0))
    }
}

/// Ray-cast `volume` into the framebuffer over the pixels of `tile`.
/// The volume occupies its local bounds transformed by `model`. Fragments
/// composite front-to-back and write depth at the first non-transparent
/// sample, so opaque geometry drawn earlier occludes correctly.
#[allow(clippy::too_many_arguments)]
pub fn raycast_volume(
    fb: &mut Framebuffer,
    full_viewport: &Viewport,
    tile: &Viewport,
    volume: &VolumeData,
    model: &Mat4,
    view_proj: &Mat4,
    camera_pos: Vec3,
    tf: &TransferFunction,
    steps: u32,
    stats: &mut RasterStats,
) {
    raycast_rows(
        &mut fb.as_band(),
        full_viewport,
        tile,
        volume,
        model,
        view_proj,
        camera_pos,
        tf,
        steps,
        stats,
    );
}

/// Ray-cast the rows of `tile` covered by `band` (a view over the
/// tile-sized framebuffer). Each pixel is independent, so partitioning
/// the rows across bands reproduces the serial sweep bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub fn raycast_rows(
    band: &mut FramebufferBand<'_>,
    full_viewport: &Viewport,
    tile: &Viewport,
    volume: &VolumeData,
    model: &Mat4,
    view_proj: &Mat4,
    camera_pos: Vec3,
    tf: &TransferFunction,
    steps: u32,
    stats: &mut RasterStats,
) {
    let Some(inv_model) = model.inverse() else { return };
    let bounds = volume.bounds();
    let Some(inv_vp) = view_proj.inverse() else { return };

    for py in tile.y + band.y_start()..tile.y + band.y_end() {
        for px in tile.x..tile.x + tile.width {
            // Un-project the pixel to a world-space ray.
            let ndc =
                full_viewport.pixel_to_ndc(rave_math::Vec2::new(px as f32 + 0.5, py as f32 + 0.5));
            let far = inv_vp.mul_vec4(rave_math::Vec4::new(ndc.x, ndc.y, 1.0, 1.0));
            let far = far.perspective_divide();
            let dir_world = (far - camera_pos).normalized();

            // Into volume-local space.
            let origin = inv_model.transform_point(camera_pos);
            let dir = inv_model.transform_dir(dir_world).normalized();

            // Slab intersection with the volume bounds.
            let Some((t0, t1)) = ray_box(origin, dir, bounds.min, bounds.max) else {
                continue;
            };
            let t0 = t0.max(0.0);
            if t1 <= t0 {
                continue;
            }
            let dt = (t1 - t0) / steps as f32;
            let mut color = Vec3::ZERO;
            let mut alpha = 0.0f32;
            let mut hit_depth: Option<f32> = None;
            for s in 0..steps {
                let t = t0 + (s as f32 + 0.5) * dt;
                let sample = volume.sample(origin + dir * t);
                let (c, a) = tf.map(sample);
                if a > 0.0 {
                    let contrib = a * (1.0 - alpha);
                    color += c * contrib;
                    alpha += contrib;
                    if hit_depth.is_none() {
                        // Depth of the first hit, in NDC z.
                        let world = model.transform_point(origin + dir * t);
                        let clip = view_proj.mul_vec4(world.extend(1.0));
                        if clip.w > 1e-5 {
                            hit_depth = Some(clip.perspective_divide().z);
                        }
                    }
                    if alpha > 0.98 {
                        break; // early ray termination
                    }
                }
            }
            if alpha <= 0.001 {
                continue;
            }
            stats.fragments_shaded += 1;
            let z = hit_depth.unwrap_or(1.0);
            let x_local = px - tile.x;
            let y_local = py - tile.y;
            // Composite over whatever is behind (alpha blend against the
            // existing color), respecting opaque depth.
            if z < band.depth_at(x_local, y_local) {
                let bg = band.get(x_local, y_local);
                let bgv = Vec3::new(bg.0 as f32 / 255.0, bg.1 as f32 / 255.0, bg.2 as f32 / 255.0);
                let out = color + bgv * (1.0 - alpha);
                band.set(x_local, y_local, Rgb::from_f32(out.x, out.y, out.z), z);
                stats.fragments_written += 1;
            }
        }
    }
}

/// Ray–AABB slab test: returns entry/exit parameters if the ray hits.
fn ray_box(origin: Vec3, dir: Vec3, min: Vec3, max: Vec3) -> Option<(f32, f32)> {
    let mut t0 = f32::NEG_INFINITY;
    let mut t1 = f32::INFINITY;
    for axis in 0..3 {
        let (o, d, lo, hi) = match axis {
            0 => (origin.x, dir.x, min.x, max.x),
            1 => (origin.y, dir.y, min.y, max.y),
            _ => (origin.z, dir.z, min.z, max.z),
        };
        if d.abs() < 1e-12 {
            if o < lo || o > hi {
                return None;
            }
            continue;
        }
        let inv = 1.0 / d;
        let (mut a, mut b) = ((lo - o) * inv, (hi - o) * inv);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        t0 = t0.max(a);
        t1 = t1.min(b);
        if t0 > t1 {
            return None;
        }
    }
    Some((t0, t1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::CameraParams;

    /// A dense 8³ ball in the middle of a 16³ volume.
    fn ball_volume() -> VolumeData {
        let n = 16u32;
        let mut voxels = vec![0u8; (n * n * n) as usize];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let p = Vec3::new(x as f32 - 7.5, y as f32 - 7.5, z as f32 - 7.5);
                    if p.length() < 5.0 {
                        voxels[(x + n * (y + n * z)) as usize] = 255;
                    }
                }
            }
        }
        VolumeData::new([n, n, n], Vec3::ONE, voxels)
    }

    fn render_ball(cam_z: f32) -> (Framebuffer, RasterStats) {
        let mut fb = Framebuffer::new(48, 48);
        let vp = Viewport::new(48, 48);
        let cam = CameraParams::look_at(Vec3::new(8.0, 8.0, cam_z), Vec3::splat(8.0), Vec3::Y);
        let mut stats = RasterStats::default();
        raycast_volume(
            &mut fb,
            &vp,
            &vp.clone(),
            &ball_volume(),
            &Mat4::IDENTITY,
            &cam.view_proj(&vp),
            cam.position,
            &TransferFunction::default(),
            64,
            &mut stats,
        );
        (fb, stats)
    }

    #[test]
    fn ball_renders_in_center() {
        let (fb, stats) = render_ball(40.0);
        assert!(stats.fragments_written > 50);
        assert!(fb.get(24, 24) != Rgb::BLACK, "ball visible at center");
        assert_eq!(fb.get(2, 2), Rgb::BLACK, "corners stay background");
        assert!(fb.depth_at(24, 24) < 1.0, "depth written");
    }

    #[test]
    fn camera_inside_empty_region_sees_ball() {
        let (fb, _) = render_ball(14.5); // just outside the ball, inside bounds
        assert!(fb.get(24, 24) != Rgb::BLACK);
    }

    #[test]
    fn ray_box_hits_and_misses() {
        let hit = ray_box(Vec3::new(-5.0, 0.5, 0.5), Vec3::X, Vec3::ZERO, Vec3::ONE);
        assert!(hit.is_some());
        let (t0, t1) = hit.unwrap();
        assert!((t0 - 5.0).abs() < 1e-5 && (t1 - 6.0).abs() < 1e-5);
        assert!(ray_box(Vec3::new(-5.0, 5.0, 0.5), Vec3::X, Vec3::ZERO, Vec3::ONE).is_none());
        // Parallel ray inside the slab.
        assert!(ray_box(Vec3::new(0.5, 0.5, 0.5), Vec3::X, Vec3::ZERO, Vec3::ONE).is_some());
    }

    #[test]
    fn transfer_function_threshold() {
        let tf = TransferFunction::default();
        assert_eq!(tf.map(0.0).1, 0.0);
        assert!(tf.map(0.9).1 > 0.5);
    }

    #[test]
    fn opaque_geometry_occludes_volume() {
        let mut fb = Framebuffer::new(32, 32);
        let vp = Viewport::new(32, 32);
        let cam = CameraParams::look_at(Vec3::new(8.0, 8.0, 40.0), Vec3::splat(8.0), Vec3::Y);
        // Pre-fill the z-buffer with a very near opaque plane.
        for y in 0..32 {
            for x in 0..32 {
                fb.set(x, y, Rgb(200, 0, 0), -0.9);
            }
        }
        let mut stats = RasterStats::default();
        raycast_volume(
            &mut fb,
            &vp,
            &vp.clone(),
            &ball_volume(),
            &Mat4::IDENTITY,
            &cam.view_proj(&vp),
            cam.position,
            &TransferFunction::default(),
            32,
            &mut stats,
        );
        assert_eq!(stats.fragments_written, 0, "occluded volume writes nothing");
        assert_eq!(fb.get(16, 16), Rgb(200, 0, 0));
    }
}
