//! Nanometre coordinate newtype.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A length or coordinate expressed in integer nanometres.
///
/// All layout geometry in this workspace uses integer nanometre units, which
/// matches how manufacturing grids are expressed in real design kits and
/// avoids floating-point comparisons in geometric predicates.
///
/// # Example
///
/// ```
/// use mpl_geometry::Nm;
///
/// let half_pitch = Nm(20);
/// let min_spacing = Nm(20);
/// let coloring_distance = (half_pitch + min_spacing) * 2;
/// assert_eq!(coloring_distance, Nm(80));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nm(pub i64);

impl Nm {
    /// The zero length.
    pub const ZERO: Nm = Nm(0);

    /// Returns the raw nanometre value.
    #[inline]
    pub fn value(self) -> i64 {
        self.0
    }

    /// Returns the absolute value of this length.
    #[inline]
    pub fn abs(self) -> Nm {
        Nm(self.0.abs())
    }

    /// Returns the smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Nm) -> Nm {
        Nm(self.0.min(other.0))
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Nm) -> Nm {
        Nm(self.0.max(other.0))
    }

    /// Converts to `f64` nanometres, for distance computations that require
    /// Euclidean (non-integer) arithmetic.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64
    }

    /// Squares the length, returning a plain `i64` (nm²).  Saturates at
    /// `i64::MAX` for lengths of about 3.04·10⁹ nm or more, so a distant
    /// gap compares as far rather than wrapping negative.
    #[inline]
    pub fn squared(self) -> i64 {
        self.0.saturating_mul(self.0)
    }
}

impl fmt::Display for Nm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.0)
    }
}

impl From<i64> for Nm {
    fn from(v: i64) -> Self {
        Nm(v)
    }
}

impl From<Nm> for i64 {
    fn from(v: Nm) -> Self {
        v.0
    }
}

impl Add for Nm {
    type Output = Nm;
    fn add(self, rhs: Nm) -> Nm {
        Nm(self.0 + rhs.0)
    }
}

impl AddAssign for Nm {
    fn add_assign(&mut self, rhs: Nm) {
        self.0 += rhs.0;
    }
}

impl Sub for Nm {
    type Output = Nm;
    fn sub(self, rhs: Nm) -> Nm {
        Nm(self.0 - rhs.0)
    }
}

impl SubAssign for Nm {
    fn sub_assign(&mut self, rhs: Nm) {
        self.0 -= rhs.0;
    }
}

impl Neg for Nm {
    type Output = Nm;
    fn neg(self) -> Nm {
        Nm(-self.0)
    }
}

impl Mul<i64> for Nm {
    type Output = Nm;
    fn mul(self, rhs: i64) -> Nm {
        Nm(self.0 * rhs)
    }
}

impl Mul<Nm> for i64 {
    type Output = Nm;
    fn mul(self, rhs: Nm) -> Nm {
        Nm(self * rhs.0)
    }
}

impl Div<i64> for Nm {
    type Output = Nm;
    fn div(self, rhs: i64) -> Nm {
        Nm(self.0 / rhs)
    }
}

impl Sum for Nm {
    fn sum<I: Iterator<Item = Nm>>(iter: I) -> Nm {
        iter.fold(Nm::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_integers() {
        assert_eq!(Nm(20) + Nm(22), Nm(42));
        assert_eq!(Nm(20) - Nm(22), Nm(-2));
        assert_eq!(Nm(20) * 3, Nm(60));
        assert_eq!(3 * Nm(20), Nm(60));
        assert_eq!(Nm(60) / 3, Nm(20));
        assert_eq!(-Nm(5), Nm(-5));
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(Nm(-3).abs(), Nm(3));
        assert_eq!(Nm(2).min(Nm(7)), Nm(2));
        assert_eq!(Nm(2).max(Nm(7)), Nm(7));
    }

    #[test]
    fn display_and_conversions() {
        assert_eq!(Nm(15).to_string(), "15nm");
        assert_eq!(Nm::from(9).value(), 9);
        assert_eq!(i64::from(Nm(9)), 9);
        assert_eq!(Nm(4).squared(), 16);
        assert_eq!(Nm(4).to_f64(), 4.0);
    }

    #[test]
    fn sum_of_lengths() {
        let total: Nm = [Nm(1), Nm(2), Nm(3)].into_iter().sum();
        assert_eq!(total, Nm(6));
    }

    #[test]
    fn assign_ops() {
        let mut x = Nm(10);
        x += Nm(5);
        assert_eq!(x, Nm(15));
        x -= Nm(20);
        assert_eq!(x, Nm(-5));
    }
}
