//! GDSII I/O for multiple-patterning layout decomposition.
//!
//! GDSII is the universal binary interchange format for mask layouts; every
//! production decomposer ingests it. This crate opens real layouts as
//! decomposition workloads and exports decomposition results as *colored*
//! GDS that loads directly in a layout viewer:
//!
//! * [`record`] — the stream layer: a zero-copy record lexer
//!   ([`record::RecordReader`]), typed payload decoders (big-endian i16/i32,
//!   8-byte excess-64 reals, ASCII) and a length/padding-correct emitter.
//! * [`GdsLibrary`] / [`GdsStruct`] / [`GdsElement`] — the object model,
//!   with [`GdsLibrary::from_bytes`] / [`GdsLibrary::to_bytes`].
//! * [`LayerMap`] + [`layout_from_library`] — flatten a library and select
//!   which `layer:datatype` pairs become [`mpl_layout::Layout`] shapes.
//!   Flattening walks SREF/AREF hierarchies with Manhattan transforms
//!   (translation, x-reflection, 90° rotations), every boundary, box and
//!   path becomes a rectangle union (the polygon model the decomposition
//!   flow works on), and touching polygons merge back into connected
//!   features. [`layout_with_hierarchy`] returns the same layout plus the
//!   top-level cell instance each shape came from.
//! * [`layout_from_bytes`] / [`load_layout_file`] — the one loader of both
//!   layout formats: the format is detected from the path and the leading
//!   bytes, and a GDSII input also returns its cell-instance hierarchy.
//! * [`library_from_layout`] / [`library_from_masks`] — write layouts, and
//!   colored decompositions with one layer per mask (`base_layer + k`);
//!   [`write_layout_file`] / [`write_colored_file`] check every coordinate
//!   and the name, then stream the same bytes to a file through a
//!   fixed-size buffer without building the library.
//! * [`GdsError`] — every failure is typed and carries the byte offset of
//!   the offending record where applicable.
//!
//! # Example
//!
//! ```
//! use mpl_geometry::{Nm, Rect};
//! use mpl_gds::{layout_from_library, library_from_layout, LayerMap, ReadOptions};
//! use mpl_layout::Layout;
//!
//! let mut builder = Layout::builder("demo");
//! builder.add_rect(Rect::new(Nm(0), Nm(0), Nm(20), Nm(20)));
//! let layout = builder.build();
//!
//! // Layout -> GDS bytes -> Layout.
//! let library = library_from_layout(&layout, 17, 0)?;
//! let bytes = library.to_bytes()?;
//! let parsed = mpl_gds::GdsLibrary::from_bytes(&bytes)?;
//! let round_tripped = layout_from_library(&parsed, &LayerMap::all(), &ReadOptions::default())?;
//! assert_eq!(round_tripped, layout);
//! # Ok::<(), mpl_gds::GdsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod error;
mod flatten;
mod load;
mod model;
mod poly;
pub mod record;
mod write;

pub use convert::{
    layout_from_library, layout_with_hierarchy, library_from_layout, library_from_masks, LayerMap,
    ReadOptions,
};
pub use error::GdsError;
pub use load::{layout_from_bytes, load_layout_file, LoadLayoutError};
pub use model::{GdsElement, GdsLibrary, GdsStrans, GdsStruct, MAX_EXPANDED, MAX_REF_DEPTH};
pub use poly::{loop_to_rects, path_to_rects, DbRect};
pub use record::{decode_real8, encode_real8};

use mpl_geometry::Polygon;
use mpl_layout::Layout;
use std::borrow::Borrow;

/// Writes a [`Layout`] to a GDSII file on `layer:datatype`, one `BOUNDARY`
/// per component rectangle.
///
/// The file holds the bytes of [`library_from_layout`] followed by
/// [`GdsLibrary::to_bytes`]. Every coordinate and then the name are
/// checked before the file is created or truncated; the records then
/// stream to it through a fixed-size buffer, without building the library.
///
/// # Errors
///
/// [`GdsError::CoordinateOverflow`], else [`GdsError::RecordTooLong`] for a
/// name too long for its record, each before the file is touched;
/// [`GdsError::Io`] when the file cannot be created or written.
pub fn write_layout_file(
    path: &str,
    layout: &Layout,
    layer: i16,
    datatype: i16,
) -> Result<(), GdsError> {
    write::write_rect_library(path, layout.name(), move || {
        layout
            .iter()
            .flat_map(|shape| shape.polygon().rects())
            .map(move |rect| (layer, datatype, rect))
    })
}

/// Writes a colored decomposition to a GDSII file, one layer per mask
/// (`base_layer + k`). The polygons may be owned or borrowed.
///
/// The file holds the bytes of [`library_from_masks`] followed by
/// [`GdsLibrary::to_bytes`], checked and streamed as
/// [`write_layout_file`] does.
///
/// # Errors
///
/// [`GdsError::CoordinateOverflow`], else [`GdsError::RecordTooLong`] for a
/// name too long for its record, each before the file is touched;
/// [`GdsError::Io`] when the file cannot be created or written.
pub fn write_colored_file<P: Borrow<Polygon>>(
    path: &str,
    name: &str,
    masks: &[Vec<P>],
    base_layer: i16,
) -> Result<(), GdsError> {
    write::write_rect_library(path, name, move || {
        masks.iter().enumerate().flat_map(move |(mask, polygons)| {
            let layer = base_layer + mask as i16;
            polygons
                .iter()
                .flat_map(|polygon| polygon.borrow().rects())
                .map(move |rect| (layer, 0, rect))
        })
    })
}
