//! Format-dispatching layout loader.
//!
//! The workspace understands two on-disk layout formats — the line-oriented
//! text format of `mpl_layout::io` and GDSII. [`layout_from_bytes`] is the
//! single place that sniffs the format (via
//! [`mpl_layout::io::LayoutFormat::detect`]) and routes to the right
//! parser, so every front end (CLI, server, benchmarks) agrees on dispatch
//! and error wording.

use crate::{layout_with_hierarchy, GdsError, GdsLibrary, LayerMap, ReadOptions};
use mpl_layout::io::{self, LayoutFormat, ParseLayoutError};
use mpl_layout::{Layout, LayoutHierarchy};
use std::fmt;

/// Error loading a layout file of either supported format.
#[derive(Debug)]
pub enum LoadLayoutError {
    /// The file could not be read.
    Io {
        /// The path being read.
        path: String,
        /// The operating-system error message.
        message: String,
    },
    /// The file was detected as text but is not valid UTF-8.
    NotText {
        /// The path being read.
        path: String,
    },
    /// The file was detected as text but failed to parse.
    Text {
        /// The path being read.
        path: String,
        /// The underlying parse error.
        error: ParseLayoutError,
    },
    /// The file was detected as GDSII but failed to parse or convert.
    Gds {
        /// The path being read.
        path: String,
        /// The underlying GDS error (carries byte offsets).
        error: GdsError,
    },
}

impl fmt::Display for LoadLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadLayoutError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            LoadLayoutError::NotText { path } => {
                write!(f, "cannot parse {path}: not valid UTF-8 text")
            }
            LoadLayoutError::Text { path, error } => write!(f, "cannot parse {path}: {error}"),
            LoadLayoutError::Gds { path, error } => write!(f, "cannot parse {path}: {error}"),
        }
    }
}

impl std::error::Error for LoadLayoutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadLayoutError::Io { .. } | LoadLayoutError::NotText { .. } => None,
            LoadLayoutError::Text { error, .. } => Some(error),
            LoadLayoutError::Gds { error, .. } => Some(error),
        }
    }
}

/// Loads a layout file, dispatching on the detected format: the file is
/// read once and converted by [`layout_from_bytes`], and a GDSII input's
/// hierarchy is dropped.
///
/// # Errors
///
/// Returns a [`LoadLayoutError`] naming the failing path and cause.
pub fn load_layout_file(
    path: &str,
    map: &LayerMap,
    options: &ReadOptions,
) -> Result<Layout, LoadLayoutError> {
    let bytes = std::fs::read(path).map_err(|error| LoadLayoutError::Io {
        path: path.to_string(),
        message: error.to_string(),
    })?;
    Ok(layout_from_bytes(path, &bytes, map, options)?.0)
}

/// Converts the bytes of the layout file at `path`, dispatching on the
/// format detected from the path and the leading bytes.
///
/// GDSII inputs are filtered through `map`, flattened per `options`, and
/// also return the cell-instance hierarchy that conversion builds
/// ([`layout_with_hierarchy`]); the hierarchy is `Some` exactly for GDSII.
/// Text inputs are parsed strictly (invalid UTF-8 is an error, not
/// silently replaced).
///
/// # Errors
///
/// Returns a [`LoadLayoutError`] naming `path` and the cause.
pub fn layout_from_bytes(
    path: &str,
    bytes: &[u8],
    map: &LayerMap,
    options: &ReadOptions,
) -> Result<(Layout, Option<LayoutHierarchy>), LoadLayoutError> {
    match LayoutFormat::detect(path, bytes) {
        LayoutFormat::Gds => {
            let gds = |error| LoadLayoutError::Gds {
                path: path.to_string(),
                error,
            };
            let library = GdsLibrary::from_bytes(bytes).map_err(gds)?;
            let (layout, hierarchy) = layout_with_hierarchy(&library, map, options).map_err(gds)?;
            Ok((layout, Some(hierarchy)))
        }
        LayoutFormat::Text => {
            let text = std::str::from_utf8(bytes).map_err(|_| LoadLayoutError::NotText {
                path: path.to_string(),
            })?;
            let layout = io::from_text(text).map_err(|error| LoadLayoutError::Text {
                path: path.to_string(),
                error,
            })?;
            Ok((layout, None))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_geometry::{Nm, Rect};

    fn temp_path(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!("mpl-gds-load-{}-{name}", std::process::id()));
        path.to_string_lossy().into_owned()
    }

    fn sample_layout() -> Layout {
        let mut builder = Layout::builder("load");
        builder.add_rect(Rect::new(Nm(0), Nm(0), Nm(20), Nm(20)));
        builder.build()
    }

    #[test]
    fn dispatches_text_and_gds_by_content() {
        let layout = sample_layout();
        let text_path = temp_path("a.txt");
        std::fs::write(&text_path, io::to_text(&layout)).expect("write");
        let gds_path = temp_path("a.gds");
        crate::write_layout_file(&gds_path, &layout, 1, 0).expect("write");
        assert_eq!(
            load_layout_file(&text_path, &LayerMap::all(), &ReadOptions::default())
                .expect("text")
                .shape_count(),
            1
        );
        assert_eq!(
            load_layout_file(&gds_path, &LayerMap::all(), &ReadOptions::default())
                .expect("gds")
                .shape_count(),
            1
        );
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&gds_path).ok();
    }

    #[test]
    fn only_gds_bytes_carry_a_hierarchy() {
        let layout = sample_layout();
        let text = io::to_text(&layout);
        let gds = crate::library_from_layout(&layout, 1, 0)
            .and_then(|library| library.to_bytes())
            .expect("encode");
        let load = |path: &str, bytes: &[u8]| {
            layout_from_bytes(path, bytes, &LayerMap::all(), &ReadOptions::default())
                .expect("loads")
        };
        let (from_text, none) = load("a.txt", text.as_bytes());
        assert_eq!((from_text, none), (layout.clone(), None));
        // The HEADER record selects GDSII whatever the extension says.
        for path in ["a.gds", "a.txt"] {
            let (from_gds, hierarchy) = load(path, &gds);
            assert_eq!(from_gds.shape_count(), 1);
            assert!(hierarchy.is_some(), "{path}");
        }
    }

    #[test]
    fn invalid_utf8_text_is_a_typed_error() {
        let path = temp_path("bad.txt");
        std::fs::write(&path, [0x23u8, 0x20, 0xff, 0xfe]).expect("write");
        let error = load_layout_file(&path, &LayerMap::all(), &ReadOptions::default())
            .expect_err("must fail");
        assert!(matches!(error, LoadLayoutError::NotText { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_files_name_the_path() {
        let error = load_layout_file(
            "/nonexistent/layout.gds",
            &LayerMap::all(),
            &ReadOptions::default(),
        )
        .expect_err("must fail");
        assert!(error.to_string().contains("/nonexistent/layout.gds"));
    }
}
