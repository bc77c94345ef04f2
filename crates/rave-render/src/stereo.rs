//! Stereo rendering for immersive displays.
//!
//! The paper's testbed drives an "Immersadesk R2" and a "FakeSpace
//! Portico rear-projection active stereo Workwall" (§3.1.2, §5.3); the
//! e-Demand comparison system targets autostereo displays. This module
//! provides the stereo camera rig and the two standard output packings:
//! side-by-side (passive/autostereo) and sequential pages (active
//! shutter).

use crate::framebuffer::Framebuffer;
use crate::renderer::{RenderStats, Renderer};
use rave_math::{Vec3, Viewport};
use rave_scene::{CameraParams, SceneTree};

/// A stereo camera rig derived from a mono camera: two eyes offset along
/// the camera's right axis, converged at a focal distance (off-axis
/// convergence keeps vertical parallax at zero).
#[derive(Debug, Clone, Copy)]
pub struct StereoRig {
    /// Interocular distance in world units.
    pub eye_separation: f32,
    /// Distance to the zero-parallax plane.
    pub convergence: f32,
}

impl Default for StereoRig {
    fn default() -> Self {
        Self { eye_separation: 0.065, convergence: 2.5 }
    }
}

/// Which eye a view belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eye {
    Left,
    Right,
}

impl StereoRig {
    /// The per-eye camera: position shifted by half the separation along
    /// the rig's right vector, oriented toward the shared convergence
    /// point.
    pub fn eye_camera(&self, center: &CameraParams, eye: Eye) -> CameraParams {
        let sign = match eye {
            Eye::Left => -0.5,
            Eye::Right => 0.5,
        };
        let offset = center.right() * (self.eye_separation * sign);
        let focus = center.position + center.forward() * self.convergence;
        let mut cam = CameraParams::look_at(center.position + offset, focus, center.up());
        cam.fov_y = center.fov_y;
        cam.near = center.near;
        cam.far = center.far;
        cam
    }

    /// Render both eyes side-by-side into one double-width framebuffer
    /// (the passive-projection packing). Returns the two eyes' stats
    /// summed, every field.
    pub fn render_side_by_side(
        &self,
        renderer: &Renderer,
        tree: &SceneTree,
        center: &CameraParams,
        eye_viewport: Viewport,
    ) -> (Framebuffer, RenderStats) {
        let mut out = Framebuffer::new(eye_viewport.width * 2, eye_viewport.height);
        let mut total = RenderStats::default();
        for (i, eye) in [Eye::Left, Eye::Right].into_iter().enumerate() {
            let cam = self.eye_camera(center, eye);
            let mut fb = Framebuffer::new(eye_viewport.width, eye_viewport.height);
            let stats = renderer.render(tree, &cam, &mut fb);
            out.blit(&fb, i as u32 * eye_viewport.width, 0);
            total.accumulate(&stats);
        }
        (out, total)
    }

    /// Render the two sequential pages of an active-stereo frame (shutter
    /// glasses): returns `(left, right)` full-resolution images.
    pub fn render_pages(
        &self,
        renderer: &Renderer,
        tree: &SceneTree,
        center: &CameraParams,
        viewport: Viewport,
    ) -> (Framebuffer, Framebuffer) {
        let render_eye = |eye| {
            let cam = self.eye_camera(center, eye);
            let mut fb = Framebuffer::new(viewport.width, viewport.height);
            renderer.render(tree, &cam, &mut fb);
            fb
        };
        (render_eye(Eye::Left), render_eye(Eye::Right))
    }

    /// Horizontal disparity (in pixels, right-eye x minus left-eye x) of a
    /// world-space point, used to validate depth ordering on the wall:
    /// points nearer than the convergence plane have negative disparity
    /// (pop out), farther ones positive.
    pub fn disparity_of(
        &self,
        center: &CameraParams,
        viewport: &Viewport,
        world: Vec3,
    ) -> Option<f32> {
        let project = |eye| {
            let cam: CameraParams = self.eye_camera(center, eye);
            let clip = cam.view_proj(viewport).mul_vec4(world.extend(1.0));
            if clip.w <= 1e-5 {
                None
            } else {
                Some(viewport.ndc_to_pixel(clip.perspective_divide()).x)
            }
        };
        Some(project(Eye::Right)? - project(Eye::Left)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_math::approx_eq;
    use rave_scene::{MeshData, NodeKind};
    use std::sync::Arc;

    fn center_cam() -> CameraParams {
        CameraParams::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y)
    }

    #[test]
    fn eyes_separated_by_interocular_distance() {
        let rig = StereoRig::default();
        let c = center_cam();
        let l = rig.eye_camera(&c, Eye::Left);
        let r = rig.eye_camera(&c, Eye::Right);
        assert!(approx_eq(l.position.distance(r.position), rig.eye_separation, 1e-5));
        // Both converge: forward vectors cross in front.
        assert!(l.forward().dot(r.forward()) > 0.99);
    }

    #[test]
    fn disparity_sign_encodes_depth() {
        let rig = StereoRig { eye_separation: 0.1, convergence: 5.0 };
        let c = center_cam();
        let vp = Viewport::new(200, 200);
        // Convergence plane (z=0 when camera at z=5, convergence 5).
        let at_plane = rig.disparity_of(&c, &vp, Vec3::ZERO).unwrap();
        assert!(at_plane.abs() < 0.5, "zero parallax at convergence: {at_plane}");
        // Nearer: pops out (negative), farther: recedes (positive).
        let near = rig.disparity_of(&c, &vp, Vec3::new(0.0, 0.0, 2.5)).unwrap();
        let far = rig.disparity_of(&c, &vp, Vec3::new(0.0, 0.0, -5.0)).unwrap();
        assert!(near < -0.5, "near disparity {near}");
        assert!(far > 0.5, "far disparity {far}");
    }

    #[test]
    fn point_behind_eye_yields_none() {
        let rig = StereoRig::default();
        let c = center_cam();
        let vp = Viewport::new(100, 100);
        assert!(rig.disparity_of(&c, &vp, Vec3::new(0.0, 0.0, 50.0)).is_none());
    }

    fn tri_scene() -> SceneTree {
        let mut tree = SceneTree::new();
        let root = tree.root();
        let mesh = MeshData::new(
            vec![Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0)],
            vec![[0, 1, 2]],
        );
        tree.add_node(root, "tri", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        tree
    }

    #[test]
    fn side_by_side_renders_two_distinct_views() {
        // Convergence in front of the model so the triangle itself
        // carries visible parallax.
        let rig = StereoRig { eye_separation: 0.6, convergence: 2.0 };
        let tree = tri_scene();
        let renderer = Renderer::default();
        let (fb, stats) =
            rig.render_side_by_side(&renderer, &tree, &center_cam(), Viewport::new(64, 64));
        assert_eq!(fb.width(), 128);
        assert!(stats.raster.fragments_written > 0);
        // The two halves differ (parallax) but both contain the model.
        let left = fb.crop(Viewport::with_origin(0, 0, 64, 64));
        let right = fb.crop(Viewport::with_origin(64, 0, 64, 64));
        assert!(left.coverage(renderer.background) > 50);
        assert!(right.coverage(renderer.background) > 50);
        assert!(left.diff_fraction(&right, 0.0) > 0.005, "parallax visible");
    }

    /// The side-by-side total is the sum of its two eyes on every field —
    /// culled nodes, points and volumes included.
    #[test]
    fn side_by_side_stats_are_the_sum_of_both_eyes() {
        use rave_scene::{PointCloudData, Transform, VolumeData};
        let mut tree = tri_scene();
        let root = tree.root();
        let far_mesh = MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]);
        let far = tree.add_node(root, "far", NodeKind::Mesh(Arc::new(far_mesh))).unwrap();
        tree.set_transform(far, Transform::from_translation(Vec3::new(1e5, 0.0, 0.0)));
        let mut cloud = PointCloudData::new(vec![
            Vec3::new(-0.8, 0.6, 0.2),
            Vec3::new(0.7, -0.5, -0.3),
            Vec3::new(0.1, 0.8, 0.0),
        ]);
        cloud.point_size = 0.05;
        tree.add_node(root, "cloud", NodeKind::PointCloud(Arc::new(cloud))).unwrap();
        let voxels = (0..8u32 * 8 * 8).map(|i| (i * 37 % 256) as u8).collect();
        let vol = VolumeData::new([8, 8, 8], Vec3::splat(0.2), voxels);
        tree.add_node(root, "vol", NodeKind::Volume(Arc::new(vol))).unwrap();

        let rig = StereoRig::default();
        let renderer = Renderer::default();
        let vp = Viewport::new(48, 48);
        let (_, total) = rig.render_side_by_side(&renderer, &tree, &center_cam(), vp);
        let mut sum = RenderStats::default();
        for eye in [Eye::Left, Eye::Right] {
            let mut fb = Framebuffer::new(vp.width, vp.height);
            let stats = renderer.render(&tree, &rig.eye_camera(&center_cam(), eye), &mut fb);
            assert!(stats.nodes_culled >= 1 && stats.points_on_screen == 3, "{stats:?}");
            assert!(stats.voxels_sampled_nodes == 1 && stats.polygons_on_screen == 1);
            sum.accumulate(&stats);
        }
        assert_eq!(total, sum);
    }

    #[test]
    fn active_pages_match_side_by_side_halves() {
        let rig = StereoRig::default();
        let tree = tri_scene();
        let renderer = Renderer::default();
        let vp = Viewport::new(48, 48);
        let (sbs, _) = rig.render_side_by_side(&renderer, &tree, &center_cam(), vp);
        let (l, r) = rig.render_pages(&renderer, &tree, &center_cam(), vp);
        assert_eq!(sbs.crop(Viewport::with_origin(0, 0, 48, 48)).diff_fraction(&l, 0.0), 0.0);
        assert_eq!(sbs.crop(Viewport::with_origin(48, 0, 48, 48)).diff_fraction(&r, 0.0), 0.0);
    }
}
