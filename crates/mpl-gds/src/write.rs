//! GDSII serialisation: turns a [`GdsLibrary`] back into a record stream,
//! and streams rectangle boundaries straight to bytes for the file writers.
//!
//! The emitter produces deterministic output (fixed timestamps) so written
//! files are byte-for-byte reproducible and diff-friendly in tests.

use crate::convert::rect_loop;
use crate::model::{GdsElement, GdsLibrary, GdsStrans};
use crate::record::{
    emit_ascii, emit_f64s, emit_header, emit_i16s, emit_i32s, emit_record, RecordType, DATA_BITS,
    DATA_I32, DATA_NONE,
};
use crate::GdsError;
use mpl_geometry::Rect;

/// Fixed timestamp written into `BGNLIB`/`BGNSTR` (year, month, day, hour,
/// minute, second — twice, for modification and access). Deterministic
/// output matters more to this workspace than real wall-clock stamps.
const TIMESTAMP: [i16; 12] = [2026, 1, 1, 0, 0, 0, 2026, 1, 1, 0, 0, 0];

/// Bytes of one rectangle `BOUNDARY` element: the `BOUNDARY`, `LAYER`,
/// `DATATYPE`, five-point `XY` and `ENDEL` records.
const RECT_BOUNDARY_BYTES: usize = 4 + 6 + 6 + (4 + 5 * 8) + 4;

impl GdsLibrary {
    /// Serialises the library to GDSII bytes.
    ///
    /// # Errors
    ///
    /// Returns [`GdsError::RecordTooLong`] when a name or vertex list does
    /// not fit the 16-bit GDSII record length.
    pub fn to_bytes(&self) -> Result<Vec<u8>, GdsError> {
        let mut out = Vec::new();
        emit_library_start(&mut out, &self.name, self.user_unit, self.meter_unit)?;
        for st in &self.structs {
            emit_struct_start(&mut out, &st.name)?;
            for element in &st.elements {
                emit_element(&mut out, element)?;
            }
            emit_record(&mut out, RecordType::EndStr, DATA_NONE, &[])?;
        }
        emit_record(&mut out, RecordType::EndLib, DATA_NONE, &[])?;
        Ok(out)
    }

    /// Writes the library to a file.
    ///
    /// # Errors
    ///
    /// Returns [`GdsError::Io`] when the file cannot be written, or any
    /// serialisation error from [`GdsLibrary::to_bytes`].
    pub fn save(&self, path: &str) -> Result<(), GdsError> {
        write_file(path, &self.to_bytes()?)
    }
}

/// Writes `bytes` to the file at `path`, creating or truncating it.
pub(crate) fn write_file(path: &str, bytes: &[u8]) -> Result<(), GdsError> {
    std::fs::write(path, bytes).map_err(|error| GdsError::Io {
        path: path.to_string(),
        message: error.to_string(),
    })
}

/// Serialises `count` rectangle boundaries, given as `(layer, datatype,
/// rectangle)`, as a library with one structure, both named `name`, in
/// 1 nm database units. The bytes are those [`GdsLibrary::to_bytes`] gives
/// for the library [`library_from_layout`](crate::library_from_layout) or
/// [`library_from_masks`](crate::library_from_masks) builds from the same
/// rectangles, made in one pre-sized buffer without building it.
///
/// # Errors
///
/// [`GdsError::CoordinateOverflow`] for the first coordinate outside the
/// 32-bit GDSII space; otherwise [`GdsError::RecordTooLong`] for a name
/// too long for its record. The library path converts every coordinate
/// before it serialises a name, so a bad name is reported last here too.
pub(crate) fn rect_library_bytes<'a>(
    name: &str,
    count: usize,
    boundaries: impl IntoIterator<Item = (i16, i16, &'a Rect)>,
) -> Result<Vec<u8>, GdsError> {
    let GdsLibrary {
        user_unit,
        meter_unit,
        ..
    } = GdsLibrary::new(name);
    let mut out = Vec::with_capacity(128 + 2 * name.len() + count * RECT_BOUNDARY_BYTES);
    let names = emit_library_start(&mut out, name, user_unit, meter_unit)
        .and_then(|()| emit_struct_start(&mut out, name));
    for (layer, datatype, rect) in boundaries {
        let xy = rect_loop(rect)?;
        emit_record(&mut out, RecordType::Boundary, DATA_NONE, &[])?;
        emit_i16s(&mut out, RecordType::Layer, &[layer])?;
        emit_i16s(&mut out, RecordType::Datatype, &[datatype])?;
        emit_xy(&mut out, &xy)?;
        emit_record(&mut out, RecordType::EndEl, DATA_NONE, &[])?;
    }
    names?;
    emit_record(&mut out, RecordType::EndStr, DATA_NONE, &[])?;
    emit_record(&mut out, RecordType::EndLib, DATA_NONE, &[])?;
    Ok(out)
}

fn emit_library_start(
    out: &mut Vec<u8>,
    name: &str,
    user_unit: f64,
    meter_unit: f64,
) -> Result<(), GdsError> {
    emit_i16s(out, RecordType::Header, &[600])?;
    emit_i16s(out, RecordType::BgnLib, &TIMESTAMP)?;
    emit_ascii(out, RecordType::LibName, name)?;
    emit_f64s(out, RecordType::Units, &[user_unit, meter_unit])
}

fn emit_struct_start(out: &mut Vec<u8>, name: &str) -> Result<(), GdsError> {
    emit_i16s(out, RecordType::BgnStr, &TIMESTAMP)?;
    emit_ascii(out, RecordType::StrName, name)
}

fn emit_strans(out: &mut Vec<u8>, strans: &GdsStrans) -> Result<(), GdsError> {
    let default = GdsStrans::default();
    if *strans == default {
        return Ok(());
    }
    let bits: i16 = if strans.reflect { -0x8000 } else { 0 };
    emit_record(out, RecordType::Strans, DATA_BITS, &bits.to_be_bytes())?;
    if strans.mag != 1.0 {
        emit_f64s(out, RecordType::Mag, &[strans.mag])?;
    }
    if strans.angle != 0.0 {
        emit_f64s(out, RecordType::Angle, &[strans.angle])?;
    }
    Ok(())
}

fn emit_xy(out: &mut Vec<u8>, points: &[(i32, i32)]) -> Result<(), GdsError> {
    emit_header(out, RecordType::Xy, DATA_I32, points.len() * 8)?;
    for &(x, y) in points {
        out.extend_from_slice(&x.to_be_bytes());
        out.extend_from_slice(&y.to_be_bytes());
    }
    Ok(())
}

fn emit_element(out: &mut Vec<u8>, element: &GdsElement) -> Result<(), GdsError> {
    match element {
        GdsElement::Boundary {
            layer,
            datatype,
            xy,
        } => {
            emit_record(out, RecordType::Boundary, DATA_NONE, &[])?;
            emit_i16s(out, RecordType::Layer, &[*layer])?;
            emit_i16s(out, RecordType::Datatype, &[*datatype])?;
            emit_xy(out, xy)?;
        }
        GdsElement::Box { layer, boxtype, xy } => {
            emit_record(out, RecordType::Box, DATA_NONE, &[])?;
            emit_i16s(out, RecordType::Layer, &[*layer])?;
            emit_i16s(out, RecordType::BoxType, &[*boxtype])?;
            emit_xy(out, xy)?;
        }
        GdsElement::Path {
            layer,
            datatype,
            pathtype,
            width,
            xy,
        } => {
            emit_record(out, RecordType::Path, DATA_NONE, &[])?;
            emit_i16s(out, RecordType::Layer, &[*layer])?;
            emit_i16s(out, RecordType::Datatype, &[*datatype])?;
            if *pathtype != 0 {
                emit_i16s(out, RecordType::PathType, &[*pathtype])?;
            }
            if *width != 0 {
                emit_i32s(out, RecordType::Width, &[*width])?;
            }
            emit_xy(out, xy)?;
        }
        GdsElement::Sref {
            name,
            strans,
            origin,
        } => {
            emit_record(out, RecordType::Sref, DATA_NONE, &[])?;
            emit_ascii(out, RecordType::Sname, name)?;
            emit_strans(out, strans)?;
            emit_xy(out, &[*origin])?;
        }
        GdsElement::Aref {
            name,
            strans,
            cols,
            rows,
            xy,
        } => {
            emit_record(out, RecordType::Aref, DATA_NONE, &[])?;
            emit_ascii(out, RecordType::Sname, name)?;
            emit_strans(out, strans)?;
            emit_i16s(out, RecordType::ColRow, &[*cols, *rows])?;
            emit_xy(out, xy.as_slice())?;
        }
    }
    emit_record(out, RecordType::EndEl, DATA_NONE, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GdsStruct;

    fn sample_library() -> GdsLibrary {
        let mut library = GdsLibrary::new("RT");
        library.structs.push(GdsStruct {
            name: "TOP".into(),
            elements: vec![
                GdsElement::Boundary {
                    layer: 5,
                    datatype: 2,
                    xy: vec![(0, 0), (40, 0), (40, 20), (0, 20), (0, 0)],
                },
                GdsElement::Path {
                    layer: 5,
                    datatype: 0,
                    pathtype: 2,
                    width: 8,
                    xy: vec![(100, 0), (200, 0), (200, 80)],
                },
                GdsElement::Sref {
                    name: "CELL".into(),
                    strans: GdsStrans {
                        reflect: true,
                        mag: 1.0,
                        angle: 270.0,
                    },
                    origin: (-30, 60),
                },
                GdsElement::Aref {
                    name: "CELL".into(),
                    strans: GdsStrans::default(),
                    cols: 4,
                    rows: 2,
                    xy: [(0, 0), (400, 0), (0, 100)],
                },
            ],
        });
        library.structs.push(GdsStruct {
            name: "CELL".into(),
            elements: vec![GdsElement::Box {
                layer: 6,
                boxtype: 1,
                xy: vec![(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)],
            }],
        });
        library
    }

    #[test]
    fn library_round_trips_through_bytes() {
        let library = sample_library();
        let bytes = library.to_bytes().unwrap();
        let parsed = GdsLibrary::from_bytes(&bytes).expect("parse");
        assert_eq!(parsed, library);
    }

    #[test]
    fn oversized_records_are_typed_errors_not_panics() {
        // A boundary with more vertices than one XY record can carry (the
        // payload limit is 65531 bytes, i.e. 8191 x/y pairs).
        let mut library = GdsLibrary::new("BIG");
        library.structs.push(GdsStruct {
            name: "TOP".into(),
            elements: vec![GdsElement::Boundary {
                layer: 1,
                datatype: 0,
                xy: (0..9000).map(|i| (i, 0)).collect(),
            }],
        });
        assert!(matches!(
            library.to_bytes(),
            Err(GdsError::RecordTooLong { record: "XY", .. })
        ));
    }

    #[test]
    fn serialisation_is_deterministic() {
        let library = sample_library();
        assert_eq!(library.to_bytes().unwrap(), library.to_bytes().unwrap());
    }

    #[test]
    fn records_are_even_sized_and_stream_starts_with_header() {
        let bytes = sample_library().to_bytes().unwrap();
        assert_eq!(&bytes[..4], &[0x00, 0x06, 0x00, 0x02]);
        assert_eq!(bytes.len() % 2, 0);
        // Odd-length names must be NUL-padded: library "RT" is even, but a
        // 3-character structure name exercises the padding path.
        let mut library = GdsLibrary::new("ODD");
        library.structs.push(GdsStruct {
            name: "TOP".into(),
            elements: vec![],
        });
        let bytes = library.to_bytes().unwrap();
        let parsed = GdsLibrary::from_bytes(&bytes).expect("parse");
        assert_eq!(parsed.name, "ODD");
        assert_eq!(parsed.structs[0].name, "TOP");
    }
}
