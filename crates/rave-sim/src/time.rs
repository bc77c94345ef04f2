//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or span of) virtual time, in seconds. `SimTime` is used for
/// both instants and durations; the arithmetic keeps the distinction clear
/// enough in practice and avoids a second newtype at every call site.
///
/// `SimTime` is totally ordered (`NaN` is rejected at construction), so it
/// can key the event queue directly.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimTime(f64);

impl SimTime {
    pub const ZERO: Self = Self(0.0);

    /// Construct from seconds. Panics on NaN — a NaN timestamp would
    /// corrupt the event-queue ordering silently.
    pub const fn from_secs(s: f64) -> Self {
        assert!(!s.is_nan(), "SimTime cannot be NaN");
        Self(s)
    }

    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us / 1e6)
    }

    pub fn as_secs(self) -> f64 {
        self.0
    }

    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    pub fn max(self, o: Self) -> Self {
        if self >= o {
            self
        } else {
            o
        }
    }

    pub fn min(self, o: Self) -> Self {
        if self <= o {
            self
        } else {
            o
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self(self.0 + o.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, o: Self) {
        self.0 += o.0;
    }
}

impl Sub for SimTime {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        Self(self.0 - o.0)
    }
}

impl Mul<f64> for SimTime {
    type Output = Self;
    fn mul(self, s: f64) -> Self {
        Self::from_secs(self.0 * s)
    }
}

impl Div<f64> for SimTime {
    type Output = Self;
    fn div(self, s: f64) -> Self {
        Self::from_secs(self.0 / s)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else {
            write!(f, "{:.3}ms", self.0 * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimTime::from_micros(250.0).as_millis(), 0.25);
    }

    #[test]
    fn ordering_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(2.0) + SimTime::from_secs(0.5);
        assert_eq!(t.as_secs(), 2.5);
        assert_eq!((t - SimTime::from_secs(1.0)).as_secs(), 1.5);
        assert_eq!((t * 2.0).as_secs(), 5.0);
        assert_eq!((t / 2.0).as_secs(), 1.25);
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500s");
        assert_eq!(format!("{}", SimTime::from_millis(2.5)), "2.500ms");
    }
}
