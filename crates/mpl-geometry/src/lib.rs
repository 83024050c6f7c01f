//! Geometry substrate for multiple-patterning layout decomposition.
//!
//! Layout decomposition for quadruple patterning (and general K-patterning)
//! operates on polygonal layout features measured in nanometres.  This crate
//! provides the small, self-contained geometric toolkit the rest of the
//! workspace builds on:
//!
//! * [`Nm`] — an integer nanometre coordinate newtype, so that distances and
//!   widths can never be confused with unit-less numbers.
//! * [`Point`] and [`Rect`] — axis-aligned primitives with the distance and
//!   overlap predicates needed for conflict-edge construction.
//! * [`Polygon`] — a rectilinear shape represented as a union of rectangles,
//!   which is how Metal1/contact features are modelled throughout the
//!   workspace. A one-rectangle polygon, the common case, holds its
//!   rectangle inline and costs no heap allocation.
//! * [`Interval`] — 1-D interval arithmetic used for projection/overlap tests
//!   when generating stitch candidates.
//! * [`GridIndex`] — a build-once uniform-grid spatial index answering
//!   "which shapes are within distance `d` of this shape" queries in roughly
//!   constant time per neighbour, which keeps decomposition-graph
//!   construction linear in the number of features. It stores only the
//!   cells that hold entries, so white space costs nothing. Results come in
//!   a fixed order (grid column, then row, then entry order), and the index
//!   holds at most `4·n + 1024` cell slots for `n` entries, coarsening its
//!   cells only when very long wires would need more.
//!
//! # Example
//!
//! ```
//! use mpl_geometry::{Nm, Rect};
//!
//! let a = Rect::new(Nm(0), Nm(0), Nm(40), Nm(100));
//! let b = Rect::new(Nm(100), Nm(0), Nm(140), Nm(100));
//! // Features 60 nm apart conflict under a 80 nm coloring distance.
//! assert_eq!(a.distance(&b), 60.0);
//! assert!(a.within_distance(&b, Nm(80)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coord;
mod interval;
mod point;
mod polygon;
mod rect;
mod spatial;
mod union;

pub use coord::Nm;
pub use interval::Interval;
pub use point::Point;
pub use polygon::{EmptyPolygonError, Polygon};
pub use rect::Rect;
pub use spatial::GridIndex;
pub use union::union_rects;
