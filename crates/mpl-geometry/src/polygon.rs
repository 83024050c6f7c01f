//! Rectilinear polygons represented as unions of rectangles.

use crate::{Nm, Rect};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A rectilinear layout feature, stored as a union of axis-aligned
/// rectangles.
///
/// Metal and contact features in the layouts this workspace targets are
/// rectilinear; representing them as rectangle unions keeps every geometric
/// predicate (distance, overlap, projection) a simple fold over rectangle
/// pairs while still allowing L/T/U-shaped wires.
///
/// The rectangle list is never empty and rectangles may touch or overlap;
/// the polygon is their set union.
///
/// # Example
///
/// ```
/// use mpl_geometry::{Nm, Polygon, Rect};
///
/// // An L-shaped wire built from two rectangles.
/// let ell = Polygon::from_rects(vec![
///     Rect::new(Nm(0), Nm(0), Nm(100), Nm(20)),
///     Rect::new(Nm(0), Nm(0), Nm(20), Nm(100)),
/// ])?;
/// assert_eq!(ell.bounding_box(), Rect::new(Nm(0), Nm(0), Nm(100), Nm(100)));
/// # Ok::<(), mpl_geometry::EmptyPolygonError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Polygon {
    rects: Rects,
}

/// A polygon's rectangle list in its one canonical form: a single
/// rectangle inline, two or more in a vector, so the common one-rectangle
/// shape costs no heap allocation and the derived equality compares lists.
#[derive(Clone, PartialEq, Eq)]
enum Rects {
    One(Rect),
    Many(Vec<Rect>),
}

/// Error returned when constructing a [`Polygon`] from an empty rectangle
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyPolygonError;

impl fmt::Display for EmptyPolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polygon requires at least one rectangle")
    }
}

impl std::error::Error for EmptyPolygonError {}

impl Polygon {
    /// Creates a polygon from a single rectangle.
    pub fn rect(r: Rect) -> Self {
        Polygon {
            rects: Rects::One(r),
        }
    }

    /// Creates a polygon from a non-empty union of rectangles.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyPolygonError`] if `rects` is empty.
    pub fn from_rects(rects: Vec<Rect>) -> Result<Self, EmptyPolygonError> {
        match rects[..] {
            [] => Err(EmptyPolygonError),
            [r] => Ok(Polygon::rect(r)),
            _ => Ok(Polygon {
                rects: Rects::Many(rects),
            }),
        }
    }

    /// The component rectangles of this polygon.
    #[inline]
    pub fn rects(&self) -> &[Rect] {
        match &self.rects {
            Rects::One(r) => std::slice::from_ref(r),
            Rects::Many(rects) => rects,
        }
    }

    /// Number of component rectangles.
    #[inline]
    pub fn rect_count(&self) -> usize {
        self.rects().len()
    }

    /// The bounding box of the polygon.
    pub fn bounding_box(&self) -> Rect {
        let rects = self.rects();
        rects[1..].iter().fold(rects[0], |acc, r| acc.union_bbox(r))
    }

    /// An upper bound on the polygon area (sum of rectangle areas; exact when
    /// the component rectangles are disjoint, as produced by the layout
    /// generators in this workspace).
    pub fn area_upper_bound(&self) -> i64 {
        self.rects().iter().map(Rect::area).sum()
    }

    /// Squared Euclidean distance between the closest points of two polygons
    /// (zero when they touch or overlap).
    pub fn distance_squared(&self, other: &Polygon) -> i64 {
        let mut best = i64::MAX;
        for a in self.rects() {
            for b in other.rects() {
                best = best.min(a.distance_squared(b));
                if best == 0 {
                    return 0;
                }
            }
        }
        best
    }

    /// Euclidean distance between the closest points of two polygons.
    pub fn distance(&self, other: &Polygon) -> f64 {
        (self.distance_squared(other) as f64).sqrt()
    }

    /// Returns `true` if the Euclidean distance between the polygons is
    /// strictly less than `limit` — the conflict predicate.
    pub fn within_distance(&self, other: &Polygon, limit: Nm) -> bool {
        // Cheap bounding-box rejection before the pairwise rectangle scan.
        if !self
            .bounding_box()
            .within_distance(&other.bounding_box(), limit)
        {
            return false;
        }
        self.distance_squared(other) < limit.squared()
    }

    /// Returns `true` if the polygons touch or overlap.
    pub fn touches(&self, other: &Polygon) -> bool {
        self.distance_squared(other) == 0
    }

    /// The canonical disjoint decomposition of this polygon's region (see
    /// [`crate::union_rects`]): identical for any fragmentation of the same
    /// covered point set, which makes polygons comparable across I/O round
    /// trips that re-slice geometry.
    pub fn canonical_rects(&self) -> Vec<Rect> {
        crate::union_rects(self.rects())
    }

    /// Translates the whole polygon by `(dx, dy)`.
    pub fn translated(&self, dx: Nm, dy: Nm) -> Polygon {
        let rects = match &self.rects {
            Rects::One(r) => Rects::One(r.translated(dx, dy)),
            Rects::Many(rects) => Rects::Many(rects.iter().map(|r| r.translated(dx, dy)).collect()),
        };
        Polygon { rects }
    }
}

/// Hashes the rectangle list as the slice [`Polygon::rects`] returns, so
/// either form hashes like the `Vec<Rect>` it stands for.
impl Hash for Polygon {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rects().hash(state);
    }
}

/// Prints `Polygon { rects: [..] }`, whichever form holds the list.
impl fmt::Debug for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Polygon")
            .field("rects", &self.rects())
            .finish()
    }
}

impl From<Rect> for Polygon {
    fn from(r: Rect) -> Self {
        Polygon::rect(r)
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polygon{{")?;
        for (i, r) in self.rects().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64, c: i64, d: i64) -> Rect {
        Rect::new(Nm(a), Nm(b), Nm(c), Nm(d))
    }

    #[test]
    fn empty_polygon_is_rejected() {
        assert_eq!(Polygon::from_rects(vec![]), Err(EmptyPolygonError));
        assert_eq!(
            EmptyPolygonError.to_string(),
            "polygon requires at least one rectangle"
        );
    }

    #[test]
    fn bounding_box_covers_all_rects() {
        let p = Polygon::from_rects(vec![r(0, 0, 10, 10), r(50, -5, 60, 3)]).unwrap();
        assert_eq!(p.bounding_box(), r(0, -5, 60, 10));
        assert_eq!(p.rect_count(), 2);
    }

    #[test]
    fn single_rect_conversion() {
        let p: Polygon = r(0, 0, 5, 5).into();
        assert_eq!(p.rects(), &[r(0, 0, 5, 5)]);
        assert_eq!(p.area_upper_bound(), 25);
    }

    #[test]
    fn distance_between_l_shapes_uses_closest_rects() {
        // L-shape whose vertical arm reaches close to the other polygon even
        // though the horizontal arms are far apart.
        let a = Polygon::from_rects(vec![r(0, 0, 100, 20), r(80, 0, 100, 100)]).unwrap();
        let b = Polygon::rect(r(130, 80, 150, 100));
        assert_eq!(a.distance(&b), 30.0);
        assert!(a.within_distance(&b, Nm(31)));
        assert!(!a.within_distance(&b, Nm(30)));
    }

    #[test]
    fn touching_polygons_have_zero_distance() {
        let a = Polygon::rect(r(0, 0, 10, 10));
        let b = Polygon::rect(r(10, 10, 20, 20));
        assert!(a.touches(&b));
        assert_eq!(a.distance_squared(&b), 0);
    }

    #[test]
    fn translation_moves_every_rect() {
        let p = Polygon::from_rects(vec![r(0, 0, 10, 10), r(20, 0, 30, 10)]).unwrap();
        let q = p.translated(Nm(5), Nm(-5));
        assert_eq!(q.rects(), &[r(5, -5, 15, 5), r(25, -5, 35, 5)]);
    }

    #[test]
    fn display_formats_rects() {
        let p = Polygon::rect(r(0, 0, 1, 1));
        assert_eq!(p.to_string(), "Polygon{[0 0 1 1]}");
    }
}
