//! Typed errors for GDSII parsing, conversion and writing.

use std::fmt;

/// Error produced while reading, interpreting or converting a GDSII stream.
///
/// Every lexical variant carries the byte offset of the offending record so
/// command-line consumers can point at the exact position in the file,
/// matching the line-number idiom of `mpl_layout::io::ParseLayoutError`.
#[derive(Debug, Clone, PartialEq)]
pub enum GdsError {
    /// The stream ended in the middle of a record header or payload.
    Truncated {
        /// Byte offset of the record whose header or payload was cut short.
        offset: usize,
        /// Number of bytes the record still needed.
        needed: usize,
        /// Number of bytes actually remaining.
        remaining: usize,
    },
    /// A record header declared an impossible length (< 4 bytes or odd).
    BadRecordLength {
        /// Byte offset of the record header.
        offset: usize,
        /// The declared total record length.
        length: usize,
    },
    /// A record type byte outside the GDSII specification.
    UnknownRecordType {
        /// Byte offset of the record header.
        offset: usize,
        /// The unrecognised record-type byte.
        record_type: u8,
    },
    /// A record carried a payload whose size does not fit its data type
    /// (e.g. an `XY` record whose payload is not a multiple of 8 bytes).
    BadPayload {
        /// Byte offset of the record header.
        offset: usize,
        /// Name of the record being decoded.
        record: &'static str,
        /// What was wrong with the payload.
        reason: &'static str,
    },
    /// A record appeared somewhere the GDSII grammar does not allow it.
    UnexpectedRecord {
        /// Byte offset of the record header.
        offset: usize,
        /// Name of the record that appeared.
        record: &'static str,
        /// The parser context it appeared in.
        context: &'static str,
    },
    /// The stream ended before `ENDLIB` (or a structure before `ENDSTR`).
    UnexpectedEof {
        /// The parser context that was still open.
        context: &'static str,
    },
    /// A structure reference names a structure the library does not define.
    UndefinedStruct {
        /// The referenced structure name.
        name: String,
    },
    /// Structure references form a cycle.
    RecursiveStruct {
        /// The structure on which the cycle was detected.
        name: String,
    },
    /// An acyclic reference chain exceeds the supported depth limit.
    DeepHierarchy {
        /// The structure whose reference chain exceeds the limit.
        name: String,
        /// The maximum supported reference depth, in chain edges.
        limit: usize,
    },
    /// Flattening would expand more reference placements and shapes than
    /// the library holds elements, by more than
    /// [`MAX_EXPANDED`](crate::MAX_EXPANDED). Counted before anything is
    /// expanded.
    ExpansionTooLarge {
        /// Placements plus shapes the flattening would expand (saturated
        /// at `u64::MAX`).
        count: u64,
        /// The limit it exceeds: the library's element count plus
        /// [`MAX_EXPANDED`](crate::MAX_EXPANDED).
        limit: u64,
    },
    /// A reference uses a transform the rectilinear pipeline cannot honour
    /// (non-multiple-of-90° rotation or non-unit magnification).
    UnsupportedTransform {
        /// The referenced structure name.
        name: String,
        /// Rotation angle in degrees.
        angle: f64,
        /// Magnification factor.
        mag: f64,
    },
    /// A boundary is not rectilinear, so it cannot be decomposed into the
    /// rectangle-union polygon model.
    NonRectilinear {
        /// The structure containing the boundary.
        structure: String,
        /// Index of the offending element within the structure.
        element: usize,
    },
    /// The requested top structure does not exist, or the library is empty.
    NoTopStruct {
        /// The requested name, if any.
        requested: Option<String>,
    },
    /// Several structures are referenced by nothing; the caller must name
    /// the top structure explicitly rather than have geometry silently
    /// dropped.
    AmbiguousTop {
        /// The candidate top-structure names, in file order.
        candidates: Vec<String>,
    },
    /// No geometry survived layer selection.
    EmptySelection,
    /// A layout coordinate does not fit the 32-bit GDSII coordinate space.
    CoordinateOverflow {
        /// The offending nanometre coordinate.
        value: i64,
    },
    /// A record payload exceeds the 16-bit GDSII record length (e.g. a
    /// boundary with more vertices than one `XY` record can carry).
    RecordTooLong {
        /// Name of the record being emitted.
        record: &'static str,
        /// The payload size that did not fit.
        bytes: usize,
    },
    /// A malformed `--layer L[:D]` specification.
    BadLayerSpec {
        /// The offending specification text.
        spec: String,
    },
    /// An underlying I/O failure (file read/write).
    Io {
        /// The path being accessed.
        path: String,
        /// The operating-system error message.
        message: String,
    },
}

impl fmt::Display for GdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdsError::Truncated {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "truncated GDSII record at byte {offset}: needs {needed} more bytes, \
                 only {remaining} remain"
            ),
            GdsError::BadRecordLength { offset, length } => write!(
                f,
                "bad GDSII record length {length} at byte {offset} \
                 (records are at least 4 bytes and even-sized)"
            ),
            GdsError::UnknownRecordType {
                offset,
                record_type,
            } => write!(
                f,
                "unknown GDSII record type {record_type:#04x} at byte {offset}"
            ),
            GdsError::BadPayload {
                offset,
                record,
                reason,
            } => write!(f, "bad {record} payload at byte {offset}: {reason}"),
            GdsError::UnexpectedRecord {
                offset,
                record,
                context,
            } => write!(f, "unexpected {record} record at byte {offset} {context}"),
            GdsError::UnexpectedEof { context } => {
                write!(f, "GDSII stream ended {context}")
            }
            GdsError::UndefinedStruct { name } => {
                write!(f, "reference to undefined structure {name:?}")
            }
            GdsError::RecursiveStruct { name } => {
                write!(f, "structure references recurse through {name:?}")
            }
            GdsError::DeepHierarchy { name, limit } => write!(
                f,
                "structure {name:?} exceeds the reference depth limit of {limit}"
            ),
            GdsError::ExpansionTooLarge { count, limit } => write!(
                f,
                "flattening would expand {count} reference placements and shapes, \
                 more than the limit of {limit} (the library's own elements plus {})",
                crate::MAX_EXPANDED
            ),
            GdsError::UnsupportedTransform { name, angle, mag } => write!(
                f,
                "reference to {name:?} uses an unsupported transform \
                 (angle {angle}°, mag {mag}); only 90° multiples and mag 1 are supported"
            ),
            GdsError::NonRectilinear { structure, element } => write!(
                f,
                "element {element} of structure {structure:?} is not rectilinear"
            ),
            GdsError::NoTopStruct { requested } => match requested {
                Some(name) => write!(f, "top structure {name:?} not found in library"),
                None => write!(f, "library defines no structures to flatten"),
            },
            GdsError::AmbiguousTop { candidates } => write!(
                f,
                "library has {} top-level structures ({}); select one explicitly",
                candidates.len(),
                candidates.join(", ")
            ),
            GdsError::EmptySelection => {
                write!(f, "no geometry matched the layer selection")
            }
            GdsError::CoordinateOverflow { value } => write!(
                f,
                "coordinate {value} nm does not fit the 32-bit GDSII coordinate space"
            ),
            GdsError::RecordTooLong { record, bytes } => write!(
                f,
                "{record} payload of {bytes} bytes exceeds the 16-bit GDSII record length"
            ),
            GdsError::BadLayerSpec { spec } => write!(
                f,
                "bad layer specification {spec:?} (expected LAYER or LAYER:DATATYPE)"
            ),
            GdsError::Io { path, message } => write!(f, "cannot access {path}: {message}"),
        }
    }
}

impl std::error::Error for GdsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offsets() {
        let err = GdsError::Truncated {
            offset: 12,
            needed: 8,
            remaining: 2,
        };
        assert!(err.to_string().contains("byte 12"));
        let err = GdsError::BadRecordLength {
            offset: 40,
            length: 3,
        };
        assert!(err.to_string().contains("byte 40"));
        let err = GdsError::UnknownRecordType {
            offset: 7,
            record_type: 0x7f,
        };
        assert!(err.to_string().contains("0x7f"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let err: Box<dyn std::error::Error> = Box::new(GdsError::EmptySelection);
        assert!(!err.to_string().is_empty());
    }
}
