//! Axis-aligned rectangles.

use crate::{Interval, Nm, Point};
use std::fmt;

/// An axis-aligned rectangle with integer nanometre corners.
///
/// Rectangles are half-open in neither direction: they are treated as closed
/// regions `[xlo, xhi] × [ylo, yhi]`.  Zero-width or zero-height rectangles
/// are permitted (they behave as segments) but construction panics on
/// negative extents.
///
/// # Example
///
/// ```
/// use mpl_geometry::{Nm, Rect};
///
/// let wire = Rect::new(Nm(0), Nm(0), Nm(200), Nm(20));
/// assert_eq!(wire.width(), Nm(200));
/// assert_eq!(wire.height(), Nm(20));
/// assert_eq!(wire.area(), 4000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rect {
    xlo: Nm,
    ylo: Nm,
    xhi: Nm,
    yhi: Nm,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `xhi < xlo` or `yhi < ylo`.
    pub fn new(xlo: Nm, ylo: Nm, xhi: Nm, yhi: Nm) -> Self {
        assert!(
            xhi >= xlo && yhi >= ylo,
            "rectangle extents must be non-negative: ({xlo}, {ylo}) .. ({xhi}, {yhi})"
        );
        Rect { xlo, ylo, xhi, yhi }
    }

    /// Creates a rectangle from two opposite corner points (in any order).
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// Creates a rectangle from its lower-left corner plus a width and height.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn with_size(origin: Point, width: Nm, height: Nm) -> Self {
        Rect::new(origin.x, origin.y, origin.x + width, origin.y + height)
    }

    /// Left edge coordinate.
    #[inline]
    pub fn xlo(&self) -> Nm {
        self.xlo
    }

    /// Bottom edge coordinate.
    #[inline]
    pub fn ylo(&self) -> Nm {
        self.ylo
    }

    /// Right edge coordinate.
    #[inline]
    pub fn xhi(&self) -> Nm {
        self.xhi
    }

    /// Top edge coordinate.
    #[inline]
    pub fn yhi(&self) -> Nm {
        self.yhi
    }

    /// Horizontal extent.
    #[inline]
    pub fn width(&self) -> Nm {
        self.xhi - self.xlo
    }

    /// Vertical extent.
    #[inline]
    pub fn height(&self) -> Nm {
        self.yhi - self.ylo
    }

    /// Area in nm².
    #[inline]
    pub fn area(&self) -> i64 {
        self.width().value() * self.height().value()
    }

    /// The centre point (rounded down to the nanometre grid).
    pub fn center(&self) -> Point {
        Point::new(
            Nm((self.xlo.value() + self.xhi.value()) / 2),
            Nm((self.ylo.value() + self.yhi.value()) / 2),
        )
    }

    /// The lower-left corner.
    pub fn lower_left(&self) -> Point {
        Point::new(self.xlo, self.ylo)
    }

    /// The upper-right corner.
    pub fn upper_right(&self) -> Point {
        Point::new(self.xhi, self.yhi)
    }

    /// The projection of the rectangle onto the x axis.
    pub fn x_interval(&self) -> Interval {
        Interval::new(self.xlo, self.xhi)
    }

    /// The projection of the rectangle onto the y axis.
    pub fn y_interval(&self) -> Interval {
        Interval::new(self.ylo, self.yhi)
    }

    /// Returns `true` if the closed rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.xlo <= other.xhi
            && other.xlo <= self.xhi
            && self.ylo <= other.yhi
            && other.ylo <= self.yhi
    }

    /// Returns the intersection rectangle, if the two rectangles overlap.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if self.intersects(other) {
            Some(Rect::new(
                self.xlo.max(other.xlo),
                self.ylo.max(other.ylo),
                self.xhi.min(other.xhi),
                self.yhi.min(other.yhi),
            ))
        } else {
            None
        }
    }

    /// Returns `true` if `p` lies inside the closed rectangle.
    pub fn contains_point(&self, p: Point) -> bool {
        self.xlo <= p.x && p.x <= self.xhi && self.ylo <= p.y && p.y <= self.yhi
    }

    /// Returns `true` if `other` lies entirely within `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.xlo <= other.xlo
            && self.ylo <= other.ylo
            && other.xhi <= self.xhi
            && other.yhi <= self.yhi
    }

    /// The smallest rectangle containing both `self` and `other`.
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        Rect::new(
            self.xlo.min(other.xlo),
            self.ylo.min(other.ylo),
            self.xhi.max(other.xhi),
            self.yhi.max(other.yhi),
        )
    }

    /// Expands the rectangle by `margin` on every side.
    ///
    /// # Panics
    ///
    /// Panics if a negative margin would produce negative extents.
    pub fn expanded(&self, margin: Nm) -> Rect {
        Rect::new(
            self.xlo - margin,
            self.ylo - margin,
            self.xhi + margin,
            self.yhi + margin,
        )
    }

    /// Translates the rectangle by `(dx, dy)`.
    pub fn translated(&self, dx: Nm, dy: Nm) -> Rect {
        Rect::new(self.xlo + dx, self.ylo + dy, self.xhi + dx, self.yhi + dy)
    }

    /// The horizontal gap between the x-projections (zero if they overlap).
    pub fn x_gap(&self, other: &Rect) -> Nm {
        self.x_interval().gap(&other.x_interval())
    }

    /// The vertical gap between the y-projections (zero if they overlap).
    pub fn y_gap(&self, other: &Rect) -> Nm {
        self.y_interval().gap(&other.y_interval())
    }

    /// Squared Euclidean distance between the two closed rectangles (0 if they
    /// touch or overlap), using exact integer arithmetic.  Saturates at
    /// `i64::MAX` instead of wrapping for gaps too large to square.
    pub fn distance_squared(&self, other: &Rect) -> i64 {
        let dx = self.x_gap(other);
        let dy = self.y_gap(other);
        dx.squared().saturating_add(dy.squared())
    }

    /// Euclidean distance between the two closed rectangles, in nanometres.
    pub fn distance(&self, other: &Rect) -> f64 {
        (self.distance_squared(other) as f64).sqrt()
    }

    /// Returns `true` if the Euclidean distance between the rectangles is
    /// *strictly less than* `limit`.
    ///
    /// This is the conflict predicate of the decomposition graph: two features
    /// closer than the minimum coloring distance `min_s` must receive
    /// different masks.
    pub fn within_distance(&self, other: &Rect, limit: Nm) -> bool {
        self.distance_squared(other) < limit.squared()
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {} {}]",
            self.xlo.value(),
            self.ylo.value(),
            self.xhi.value(),
            self.yhi.value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64, c: i64, d: i64) -> Rect {
        Rect::new(Nm(a), Nm(b), Nm(c), Nm(d))
    }

    #[test]
    fn basic_accessors() {
        let rect = r(0, 10, 40, 30);
        assert_eq!(rect.width(), Nm(40));
        assert_eq!(rect.height(), Nm(20));
        assert_eq!(rect.area(), 800);
        assert_eq!(rect.center(), Point::from((20, 20)));
        assert_eq!(rect.lower_left(), Point::from((0, 10)));
        assert_eq!(rect.upper_right(), Point::from((40, 30)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_extent_panics() {
        let _ = r(10, 0, 0, 10);
    }

    #[test]
    fn from_corners_normalises() {
        let rect = Rect::from_corners(Point::from((10, 20)), Point::from((0, 5)));
        assert_eq!(rect, r(0, 5, 10, 20));
    }

    #[test]
    fn with_size() {
        let rect = Rect::with_size(Point::from((5, 5)), Nm(10), Nm(20));
        assert_eq!(rect, r(5, 5, 15, 25));
    }

    #[test]
    fn intersection_and_union() {
        let a = r(0, 0, 10, 10);
        let b = r(5, 5, 20, 20);
        let c = r(11, 11, 12, 12);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r(5, 5, 10, 10)));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
        assert_eq!(a.union_bbox(&c), r(0, 0, 12, 12));
    }

    #[test]
    fn touching_rectangles_intersect() {
        let a = r(0, 0, 10, 10);
        let b = r(10, 0, 20, 10);
        assert!(a.intersects(&b));
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn containment() {
        let a = r(0, 0, 10, 10);
        assert!(a.contains_point(Point::from((10, 10))));
        assert!(!a.contains_point(Point::from((11, 10))));
        assert!(a.contains_rect(&r(1, 1, 9, 9)));
        assert!(!a.contains_rect(&r(1, 1, 11, 9)));
    }

    #[test]
    fn distances_horizontal_vertical_diagonal() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.distance(&r(30, 0, 40, 10)), 20.0);
        assert_eq!(a.distance(&r(0, 25, 10, 30)), 15.0);
        // Diagonal: gap (30, 40) => 50
        assert_eq!(a.distance(&r(40, 50, 60, 70)), 50.0);
        assert_eq!(a.distance_squared(&r(40, 50, 60, 70)), 2500);
    }

    #[test]
    fn within_distance_is_strict() {
        let a = r(0, 0, 20, 20);
        let b = r(100, 0, 120, 20); // 80 apart
        assert!(!a.within_distance(&b, Nm(80)));
        assert!(a.within_distance(&b, Nm(81)));
    }

    #[test]
    fn expand_and_translate() {
        let a = r(10, 10, 20, 20);
        assert_eq!(a.expanded(Nm(5)), r(5, 5, 25, 25));
        assert_eq!(a.translated(Nm(-10), Nm(100)), r(0, 110, 10, 120));
    }

    #[test]
    fn distance_is_symmetric() {
        let a = r(0, 0, 10, 10);
        let b = r(37, 91, 40, 95);
        assert_eq!(a.distance_squared(&b), b.distance_squared(&a));
    }
}
