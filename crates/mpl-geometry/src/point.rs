//! Two-dimensional points in nanometre units.

use crate::Nm;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in the layout plane, in nanometres.
///
/// # Example
///
/// ```
/// use mpl_geometry::{Nm, Point};
///
/// let origin = Point::new(Nm(0), Nm(0));
/// let p = Point::new(Nm(30), Nm(40));
/// assert_eq!(origin.distance(p), 50.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Nm,
    /// Vertical coordinate.
    pub y: Nm,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub fn new(x: Nm, y: Nm) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: Nm(0), y: Nm(0) };

    /// Euclidean distance to `other`, in nanometres.
    pub fn distance(self, other: Point) -> f64 {
        let dx = (self.x - other.x).to_f64();
        let dy = (self.y - other.y).to_f64();
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance to `other`, in nm², using exact integer
    /// arithmetic (saturating at `i64::MAX`).  Prefer this over
    /// [`Point::distance`] for comparisons.
    pub fn distance_squared(self, other: Point) -> i64 {
        (self.x - other.x)
            .squared()
            .saturating_add((self.y - other.y).squared())
    }

    /// Manhattan (L1) distance to `other`.
    pub fn manhattan_distance(self, other: Point) -> Nm {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl From<(i64, i64)> for Point {
    fn from((x, y): (i64, i64)) -> Self {
        Point::new(Nm(x), Nm(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point::from((0, 0));
        let b = Point::from((3, 4));
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_squared(b), 25);
        assert_eq!(a.manhattan_distance(b), Nm(7));
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::from((-5, 12));
        let b = Point::from((7, -1));
        assert_eq!(a.distance_squared(b), b.distance_squared(a));
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
    }

    #[test]
    fn add_sub() {
        let a = Point::from((1, 2));
        let b = Point::from((10, 20));
        assert_eq!(a + b, Point::from((11, 22)));
        assert_eq!(b - a, Point::from((9, 18)));
    }

    #[test]
    fn display() {
        assert_eq!(Point::from((1, 2)).to_string(), "(1nm, 2nm)");
    }
}
