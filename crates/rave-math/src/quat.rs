//! Unit quaternions for scene-node and camera orientations.

use crate::{Mat4, Vec3, Vec4};

/// A rotation quaternion `w + xi + yj + zk`. Constructors produce unit
/// quaternions; `normalized` is available to re-unitize after long
/// accumulation chains (interactive camera drags).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Quat {
    pub x: f32,
    pub y: f32,
    pub z: f32,
    pub w: f32,
}

impl Default for Quat {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Quat {
    pub const IDENTITY: Self = Self { x: 0.0, y: 0.0, z: 0.0, w: 1.0 };

    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// Rotation of `angle` radians about the (unit) `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let (s, c) = (angle * 0.5).sin_cos();
        Self::new(axis.x * s, axis.y * s, axis.z * s, c)
    }

    #[inline]
    pub fn length(self) -> f32 {
        (self.x * self.x + self.y * self.y + self.z * self.z + self.w * self.w).sqrt()
    }

    pub fn normalized(self) -> Self {
        let len = self.length();
        if len <= f32::EPSILON {
            Self::IDENTITY
        } else {
            let inv = 1.0 / len;
            Self::new(self.x * inv, self.y * inv, self.z * inv, self.w * inv)
        }
    }

    /// Inverse of a unit quaternion (the conjugate).
    #[inline]
    pub fn conjugate(self) -> Self {
        Self::new(-self.x, -self.y, -self.z, self.w)
    }

    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = q * v * q^-1, expanded to avoid constructing temporaries.
        let u = Vec3::new(self.x, self.y, self.z);
        let s = self.w;
        u * (2.0 * u.dot(v)) + v * (s * s - u.dot(u)) + u.cross(v) * (2.0 * s)
    }

    /// Spherical linear interpolation (used by session playback to smooth
    /// recorded camera paths).
    pub fn slerp(self, mut other: Self, t: f32) -> Self {
        let mut cos = self.x * other.x + self.y * other.y + self.z * other.z + self.w * other.w;
        // Take the short way round.
        if cos < 0.0 {
            cos = -cos;
            other = Self::new(-other.x, -other.y, -other.z, -other.w);
        }
        if cos > 0.9995 {
            // Nearly parallel: fall back to nlerp.
            return Self::new(
                self.x + (other.x - self.x) * t,
                self.y + (other.y - self.y) * t,
                self.z + (other.z - self.z) * t,
                self.w + (other.w - self.w) * t,
            )
            .normalized();
        }
        let theta = cos.acos();
        let sin = theta.sin();
        let a = ((1.0 - t) * theta).sin() / sin;
        let b = (t * theta).sin() / sin;
        Self::new(
            self.x * a + other.x * b,
            self.y * a + other.y * b,
            self.z * a + other.z * b,
            self.w * a + other.w * b,
        )
    }

    pub fn to_mat4(self) -> Mat4 {
        let (x, y, z, w) = (self.x, self.y, self.z, self.w);
        let (x2, y2, z2) = (x + x, y + y, z + z);
        let (xx, xy, xz) = (x * x2, x * y2, x * z2);
        let (yy, yz, zz) = (y * y2, y * z2, z * z2);
        let (wx, wy, wz) = (w * x2, w * y2, w * z2);
        Mat4::from_cols(
            Vec4::new(1.0 - (yy + zz), xy + wz, xz - wy, 0.0),
            Vec4::new(xy - wz, 1.0 - (xx + zz), yz + wx, 0.0),
            Vec4::new(xz + wy, yz - wx, 1.0 - (xx + yy), 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }
}

impl std::ops::Mul for Quat {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        Self::new(
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn vec_approx(a: Vec3, b: Vec3) -> bool {
        approx_eq(a.x, b.x, 1e-5) && approx_eq(a.y, b.y, 1e-5) && approx_eq(a.z, b.z, 1e-5)
    }

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(vec_approx(Quat::IDENTITY.rotate(v), v));
    }

    #[test]
    fn axis_angle_quarter_turn_about_z() {
        let q = Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_2);
        assert!(vec_approx(q.rotate(Vec3::X), Vec3::Y));
    }

    #[test]
    fn rotation_matches_matrix_form() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 2.0, -1.0).normalized(), 1.1);
        let v = Vec3::new(0.3, -0.7, 2.0);
        assert!(vec_approx(q.rotate(v), q.to_mat4().transform_point(v)));
    }

    #[test]
    fn conjugate_inverts() {
        let q = Quat::from_axis_angle(Vec3::Y, 0.9);
        let v = Vec3::new(1.0, 0.5, -2.0);
        assert!(vec_approx(q.conjugate().rotate(q.rotate(v)), v));
    }

    #[test]
    fn composition_order() {
        // (a * b).rotate == a.rotate(b.rotate(.))
        let a = Quat::from_axis_angle(Vec3::X, 0.4);
        let b = Quat::from_axis_angle(Vec3::Y, -0.8);
        let v = Vec3::new(0.2, 1.0, -0.5);
        assert!(vec_approx((a * b).rotate(v), a.rotate(b.rotate(v))));
    }

    #[test]
    fn slerp_endpoints_and_midpoint() {
        let a = Quat::IDENTITY;
        let b = Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_2);
        assert!(vec_approx(a.slerp(b, 0.0).rotate(Vec3::X), Vec3::X));
        assert!(vec_approx(a.slerp(b, 1.0).rotate(Vec3::X), Vec3::Y));
        let mid = a.slerp(b, 0.5).rotate(Vec3::X);
        let expect = Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_4).rotate(Vec3::X);
        assert!(vec_approx(mid, expect));
    }

    #[test]
    fn slerp_takes_short_path() {
        let a = Quat::from_axis_angle(Vec3::Z, 0.1);
        let b = Quat::from_axis_angle(Vec3::Z, 0.2);
        let negated = Quat::new(-b.x, -b.y, -b.z, -b.w); // same rotation
        let v = a.slerp(negated, 0.5).rotate(Vec3::X);
        let expect = Quat::from_axis_angle(Vec3::Z, 0.15).rotate(Vec3::X);
        assert!(vec_approx(v, expect));
    }

    #[test]
    fn normalized_unit_length() {
        let q = Quat::new(1.0, 2.0, 3.0, 4.0).normalized();
        assert!(approx_eq(q.length(), 1.0, 1e-6));
    }
}
