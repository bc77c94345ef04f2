//! 4×4 column-major matrices.
//!
//! The convention matches OpenGL / Java3D (the APIs the paper's
//! implementation used): column-major storage, right-handed world space,
//! camera looking down `-Z`, clip space `z ∈ [-1, 1]`.

use crate::{Quat, Vec3, Vec4};

/// Column-major 4×4 matrix. `cols[c]` is column `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Mat4 {
    pub cols: [Vec4; 4],
}

impl Default for Mat4 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mat4 {
    pub const IDENTITY: Self = Self {
        cols: [
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        ],
    };

    #[inline]
    pub const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Self { cols: [c0, c1, c2, c3] }
    }

    /// Element at `row`, `col`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        let c = self.cols[col];
        match row {
            0 => c.x,
            1 => c.y,
            2 => c.z,
            3 => c.w,
            _ => panic!("row out of range"),
        }
    }

    pub fn translation(t: Vec3) -> Self {
        let mut m = Self::IDENTITY;
        m.cols[3] = Vec4::new(t.x, t.y, t.z, 1.0);
        m
    }

    pub fn scale(s: Vec3) -> Self {
        Self::from_cols(
            Vec4::new(s.x, 0.0, 0.0, 0.0),
            Vec4::new(0.0, s.y, 0.0, 0.0),
            Vec4::new(0.0, 0.0, s.z, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    pub fn rotation_y(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(c, 0.0, -s, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(s, 0.0, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    pub fn rotation_z(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(c, s, 0.0, 0.0),
            Vec4::new(-s, c, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Compose translation · rotation · scale (the scene-graph transform
    /// node order).
    pub fn trs(t: Vec3, r: Quat, s: Vec3) -> Self {
        Self::translation(t) * r.to_mat4() * Self::scale(s)
    }

    /// Right-handed look-at view matrix (camera at `eye`, looking at
    /// `target`, `up` approximately up).
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let f = (target - eye).normalized(); // forward
        let r = f.cross(up).normalized(); // right
        let u = r.cross(f); // true up
        Self::from_cols(
            Vec4::new(r.x, u.x, -f.x, 0.0),
            Vec4::new(r.y, u.y, -f.y, 0.0),
            Vec4::new(r.z, u.z, -f.z, 0.0),
            Vec4::new(-r.dot(eye), -u.dot(eye), f.dot(eye), 1.0),
        )
    }

    /// Right-handed perspective projection, depth to `[-1, 1]` (GL-style).
    pub fn perspective(fov_y: f32, aspect: f32, near: f32, far: f32) -> Self {
        let f = 1.0 / (fov_y * 0.5).tan();
        let nf = 1.0 / (near - far);
        Self::from_cols(
            Vec4::new(f / aspect, 0.0, 0.0, 0.0),
            Vec4::new(0.0, f, 0.0, 0.0),
            Vec4::new(0.0, 0.0, (far + near) * nf, -1.0),
            Vec4::new(0.0, 0.0, 2.0 * far * near * nf, 0.0),
        )
    }

    /// Right-handed orthographic projection, depth to `[-1, 1]`.
    pub fn orthographic(l: f32, r: f32, b: f32, t: f32, near: f32, far: f32) -> Self {
        let rl = 1.0 / (r - l);
        let tb = 1.0 / (t - b);
        let fnr = 1.0 / (far - near);
        Self::from_cols(
            Vec4::new(2.0 * rl, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 2.0 * tb, 0.0, 0.0),
            Vec4::new(0.0, 0.0, -2.0 * fnr, 0.0),
            Vec4::new(-(r + l) * rl, -(t + b) * tb, -(far + near) * fnr, 1.0),
        )
    }

    #[inline]
    pub fn mul_vec4(&self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }

    /// Transform a point (w = 1), returning the Cartesian result. Only valid
    /// for affine matrices; projective transforms must go through
    /// [`Mat4::mul_vec4`] and a perspective divide.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.mul_vec4(p.extend(1.0)).truncate()
    }

    /// Transform a direction (w = 0): rotation/scale only, no translation.
    #[inline]
    pub fn transform_dir(&self, d: Vec3) -> Vec3 {
        self.mul_vec4(d.extend(0.0)).truncate()
    }

    pub fn transpose(&self) -> Self {
        Self::from_cols(
            Vec4::new(self.cols[0].x, self.cols[1].x, self.cols[2].x, self.cols[3].x),
            Vec4::new(self.cols[0].y, self.cols[1].y, self.cols[2].y, self.cols[3].y),
            Vec4::new(self.cols[0].z, self.cols[1].z, self.cols[2].z, self.cols[3].z),
            Vec4::new(self.cols[0].w, self.cols[1].w, self.cols[2].w, self.cols[3].w),
        )
    }

    pub fn determinant(&self) -> f32 {
        let m = |r: usize, c: usize| self.at(r, c);
        let s0 = m(0, 0) * m(1, 1) - m(1, 0) * m(0, 1);
        let s1 = m(0, 0) * m(1, 2) - m(1, 0) * m(0, 2);
        let s2 = m(0, 0) * m(1, 3) - m(1, 0) * m(0, 3);
        let s3 = m(0, 1) * m(1, 2) - m(1, 1) * m(0, 2);
        let s4 = m(0, 1) * m(1, 3) - m(1, 1) * m(0, 3);
        let s5 = m(0, 2) * m(1, 3) - m(1, 2) * m(0, 3);
        let c5 = m(2, 2) * m(3, 3) - m(3, 2) * m(2, 3);
        let c4 = m(2, 1) * m(3, 3) - m(3, 1) * m(2, 3);
        let c3 = m(2, 1) * m(3, 2) - m(3, 1) * m(2, 2);
        let c2 = m(2, 0) * m(3, 3) - m(3, 0) * m(2, 3);
        let c1 = m(2, 0) * m(3, 2) - m(3, 0) * m(2, 2);
        let c0 = m(2, 0) * m(3, 1) - m(3, 0) * m(2, 1);
        s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    }

    /// General inverse via the adjugate. Returns `None` for singular
    /// matrices (collapsed scale in a malformed scene transform).
    pub fn inverse(&self) -> Option<Self> {
        let m = |r: usize, c: usize| self.at(r, c);
        let s0 = m(0, 0) * m(1, 1) - m(1, 0) * m(0, 1);
        let s1 = m(0, 0) * m(1, 2) - m(1, 0) * m(0, 2);
        let s2 = m(0, 0) * m(1, 3) - m(1, 0) * m(0, 3);
        let s3 = m(0, 1) * m(1, 2) - m(1, 1) * m(0, 2);
        let s4 = m(0, 1) * m(1, 3) - m(1, 1) * m(0, 3);
        let s5 = m(0, 2) * m(1, 3) - m(1, 2) * m(0, 3);
        let c5 = m(2, 2) * m(3, 3) - m(3, 2) * m(2, 3);
        let c4 = m(2, 1) * m(3, 3) - m(3, 1) * m(2, 3);
        let c3 = m(2, 1) * m(3, 2) - m(3, 1) * m(2, 2);
        let c2 = m(2, 0) * m(3, 3) - m(3, 0) * m(2, 3);
        let c1 = m(2, 0) * m(3, 2) - m(3, 0) * m(2, 2);
        let c0 = m(2, 0) * m(3, 1) - m(3, 0) * m(2, 1);
        let det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0;
        if det.abs() < 1e-12 {
            return None;
        }
        let inv = 1.0 / det;
        Some(Self::from_cols(
            Vec4::new(
                (m(1, 1) * c5 - m(1, 2) * c4 + m(1, 3) * c3) * inv,
                (-m(1, 0) * c5 + m(1, 2) * c2 - m(1, 3) * c1) * inv,
                (m(1, 0) * c4 - m(1, 1) * c2 + m(1, 3) * c0) * inv,
                (-m(1, 0) * c3 + m(1, 1) * c1 - m(1, 2) * c0) * inv,
            ),
            Vec4::new(
                (-m(0, 1) * c5 + m(0, 2) * c4 - m(0, 3) * c3) * inv,
                (m(0, 0) * c5 - m(0, 2) * c2 + m(0, 3) * c1) * inv,
                (-m(0, 0) * c4 + m(0, 1) * c2 - m(0, 3) * c0) * inv,
                (m(0, 0) * c3 - m(0, 1) * c1 + m(0, 2) * c0) * inv,
            ),
            Vec4::new(
                (m(3, 1) * s5 - m(3, 2) * s4 + m(3, 3) * s3) * inv,
                (-m(3, 0) * s5 + m(3, 2) * s2 - m(3, 3) * s1) * inv,
                (m(3, 0) * s4 - m(3, 1) * s2 + m(3, 3) * s0) * inv,
                (-m(3, 0) * s3 + m(3, 1) * s1 - m(3, 2) * s0) * inv,
            ),
            Vec4::new(
                (-m(2, 1) * s5 + m(2, 2) * s4 - m(2, 3) * s3) * inv,
                (m(2, 0) * s5 - m(2, 2) * s2 + m(2, 3) * s1) * inv,
                (-m(2, 0) * s4 + m(2, 1) * s2 - m(2, 3) * s0) * inv,
                (m(2, 0) * s3 - m(2, 1) * s1 + m(2, 2) * s0) * inv,
            ),
        ))
    }
}

impl std::ops::Mul for Mat4 {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        Self::from_cols(
            self.mul_vec4(o.cols[0]),
            self.mul_vec4(o.cols[1]),
            self.mul_vec4(o.cols[2]),
            self.mul_vec4(o.cols[3]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn mat_approx_eq(a: &Mat4, b: &Mat4) -> bool {
        (0..4).all(|r| (0..4).all(|c| approx_eq(a.at(r, c), b.at(r, c), 1e-5)))
    }

    #[test]
    fn identity_is_neutral() {
        let p = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat4::IDENTITY.transform_point(p), p);
    }

    #[test]
    fn translation_moves_points_not_dirs() {
        let m = Mat4::translation(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(m.transform_point(Vec3::ZERO), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(m.transform_dir(Vec3::X), Vec3::X);
    }

    #[test]
    fn rotation_z_quarter_turn() {
        let m = Mat4::rotation_z(std::f32::consts::FRAC_PI_2);
        let p = m.transform_point(Vec3::X);
        assert!(approx_eq(p.x, 0.0, 1e-6));
        assert!(approx_eq(p.y, 1.0, 1e-6));
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Mat4::trs(
            Vec3::new(3.0, -1.0, 2.0),
            Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.0).normalized(), 0.7),
            Vec3::new(2.0, 0.5, 1.5),
        );
        let inv = m.inverse().expect("invertible");
        assert!(mat_approx_eq(&(m * inv), &Mat4::IDENTITY));
    }

    #[test]
    fn singular_has_no_inverse() {
        let m = Mat4::scale(Vec3::new(1.0, 0.0, 1.0));
        assert!(m.inverse().is_none());
    }

    #[test]
    fn look_at_centers_target_on_axis() {
        let eye = Vec3::new(0.0, 0.0, 5.0);
        let v = Mat4::look_at(eye, Vec3::ZERO, Vec3::Y);
        let p = v.transform_point(Vec3::ZERO);
        // Target straight ahead: on -Z in view space, 5 units away.
        assert!(approx_eq(p.x, 0.0, 1e-6));
        assert!(approx_eq(p.y, 0.0, 1e-6));
        assert!(approx_eq(p.z, -5.0, 1e-6));
    }

    #[test]
    fn perspective_maps_near_far_to_ndc() {
        let p = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 1.0, 100.0);
        let near = p.mul_vec4(Vec4::new(0.0, 0.0, -1.0, 1.0)).perspective_divide();
        let far = p.mul_vec4(Vec4::new(0.0, 0.0, -100.0, 1.0)).perspective_divide();
        assert!(approx_eq(near.z, -1.0, 1e-5));
        assert!(approx_eq(far.z, 1.0, 1e-4));
    }

    #[test]
    fn orthographic_maps_box_to_ndc() {
        let m = Mat4::orthographic(-2.0, 2.0, -1.0, 1.0, 0.0, 10.0);
        let p = m.transform_point(Vec3::new(2.0, 1.0, -10.0));
        assert!(approx_eq(p.x, 1.0, 1e-6));
        assert!(approx_eq(p.y, 1.0, 1e-6));
        assert!(approx_eq(p.z, 1.0, 1e-6));
    }

    #[test]
    fn matrix_multiply_composes() {
        let t = Mat4::translation(Vec3::new(1.0, 0.0, 0.0));
        let r = Mat4::rotation_z(std::f32::consts::FRAC_PI_2);
        // t * r: rotate first, then translate.
        let p = (t * r).transform_point(Vec3::X);
        assert!(approx_eq(p.x, 1.0, 1e-6));
        assert!(approx_eq(p.y, 1.0, 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let m = Mat4::perspective(1.0, 1.5, 0.1, 50.0);
        assert!(mat_approx_eq(&m.transpose().transpose(), &m));
    }

    #[test]
    fn determinant_of_scale() {
        let m = Mat4::scale(Vec3::new(2.0, 3.0, 4.0));
        assert!(approx_eq(m.determinant(), 24.0, 1e-5));
    }
}
