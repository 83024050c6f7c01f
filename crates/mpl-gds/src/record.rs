//! The GDSII record layer: lexing, payload decoding and emission.
//!
//! A GDSII stream is a sequence of records, each with a 4-byte header —
//! big-endian total length (including the header), a record-type byte and a
//! data-type byte — followed by the payload. This module provides
//! [`RecordReader`], a zero-copy lexer over a byte slice, typed payload
//! decoders on [`RawRecord`], and [`emit_record`], the length/padding-correct
//! writer used by the serialisation path.

use crate::GdsError;

/// The record types of the GDSII stream format that this reader understands.
///
/// Numeric values are the record-type bytes of the specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum RecordType {
    Header = 0x00,
    BgnLib = 0x01,
    LibName = 0x02,
    Units = 0x03,
    EndLib = 0x04,
    BgnStr = 0x05,
    StrName = 0x06,
    EndStr = 0x07,
    Boundary = 0x08,
    Path = 0x09,
    Sref = 0x0a,
    Aref = 0x0b,
    Text = 0x0c,
    Layer = 0x0d,
    Datatype = 0x0e,
    Width = 0x0f,
    Xy = 0x10,
    EndEl = 0x11,
    Sname = 0x12,
    ColRow = 0x13,
    TextNode = 0x14,
    Node = 0x15,
    TextType = 0x16,
    Presentation = 0x17,
    String = 0x19,
    Strans = 0x1a,
    Mag = 0x1b,
    Angle = 0x1c,
    RefLibs = 0x1f,
    Fonts = 0x20,
    PathType = 0x21,
    Generations = 0x22,
    AttrTable = 0x23,
    ElFlags = 0x26,
    NodeType = 0x2a,
    PropAttr = 0x2b,
    PropValue = 0x2c,
    Box = 0x2d,
    BoxType = 0x2e,
    Plex = 0x2f,
    TapeNum = 0x32,
    TapeCode = 0x33,
    Format = 0x36,
    Mask = 0x37,
    EndMasks = 0x38,
}

impl RecordType {
    /// Maps a record-type byte to a known record type.
    pub fn from_byte(byte: u8) -> Option<RecordType> {
        use RecordType::*;
        Some(match byte {
            0x00 => Header,
            0x01 => BgnLib,
            0x02 => LibName,
            0x03 => Units,
            0x04 => EndLib,
            0x05 => BgnStr,
            0x06 => StrName,
            0x07 => EndStr,
            0x08 => Boundary,
            0x09 => Path,
            0x0a => Sref,
            0x0b => Aref,
            0x0c => Text,
            0x0d => Layer,
            0x0e => Datatype,
            0x0f => Width,
            0x10 => Xy,
            0x11 => EndEl,
            0x12 => Sname,
            0x13 => ColRow,
            0x14 => TextNode,
            0x15 => Node,
            0x16 => TextType,
            0x17 => Presentation,
            0x19 => String,
            0x1a => Strans,
            0x1b => Mag,
            0x1c => Angle,
            0x1f => RefLibs,
            0x20 => Fonts,
            0x21 => PathType,
            0x22 => Generations,
            0x23 => AttrTable,
            0x26 => ElFlags,
            0x2a => NodeType,
            0x2b => PropAttr,
            0x2c => PropValue,
            0x2d => Box,
            0x2e => BoxType,
            0x2f => Plex,
            0x32 => TapeNum,
            0x33 => TapeCode,
            0x36 => Format,
            0x37 => Mask,
            0x38 => EndMasks,
            _ => return None,
        })
    }

    /// The record name used in error messages.
    pub fn name(self) -> &'static str {
        use RecordType::*;
        match self {
            Header => "HEADER",
            BgnLib => "BGNLIB",
            LibName => "LIBNAME",
            Units => "UNITS",
            EndLib => "ENDLIB",
            BgnStr => "BGNSTR",
            StrName => "STRNAME",
            EndStr => "ENDSTR",
            Boundary => "BOUNDARY",
            Path => "PATH",
            Sref => "SREF",
            Aref => "AREF",
            Text => "TEXT",
            Layer => "LAYER",
            Datatype => "DATATYPE",
            Width => "WIDTH",
            Xy => "XY",
            EndEl => "ENDEL",
            Sname => "SNAME",
            ColRow => "COLROW",
            TextNode => "TEXTNODE",
            Node => "NODE",
            TextType => "TEXTTYPE",
            Presentation => "PRESENTATION",
            String => "STRING",
            Strans => "STRANS",
            Mag => "MAG",
            Angle => "ANGLE",
            RefLibs => "REFLIBS",
            Fonts => "FONTS",
            PathType => "PATHTYPE",
            Generations => "GENERATIONS",
            AttrTable => "ATTRTABLE",
            ElFlags => "ELFLAGS",
            NodeType => "NODETYPE",
            PropAttr => "PROPATTR",
            PropValue => "PROPVALUE",
            Box => "BOX",
            BoxType => "BOXTYPE",
            Plex => "PLEX",
            TapeNum => "TAPENUM",
            TapeCode => "TAPECODE",
            Format => "FORMAT",
            Mask => "MASK",
            EndMasks => "ENDMASKS",
        }
    }
}

/// One lexed record: header fields plus a borrowed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecord<'a> {
    /// Byte offset of the record header within the stream.
    pub offset: usize,
    /// The record type.
    pub record_type: RecordType,
    /// The raw payload (record bytes after the 4-byte header).
    pub data: &'a [u8],
}

impl RawRecord<'_> {
    /// Decodes the payload as big-endian two-byte signed integers.
    pub fn i16s(&self) -> Result<Vec<i16>, GdsError> {
        if !self.data.len().is_multiple_of(2) {
            return Err(self.bad_payload("length is not a multiple of 2"));
        }
        Ok(self
            .data
            .chunks_exact(2)
            .map(|c| i16::from_be_bytes([c[0], c[1]]))
            .collect())
    }

    /// Decodes the payload as a single two-byte signed integer.
    pub fn single_i16(&self) -> Result<i16, GdsError> {
        match self.data {
            [a, b] => Ok(i16::from_be_bytes([*a, *b])),
            _ => Err(self.bad_payload("expected exactly 2 bytes")),
        }
    }

    /// Decodes the payload as big-endian four-byte signed integers.
    pub fn i32s(&self) -> Result<Vec<i32>, GdsError> {
        if !self.data.len().is_multiple_of(4) {
            return Err(self.bad_payload("length is not a multiple of 4"));
        }
        Ok(self
            .data
            .chunks_exact(4)
            .map(|c| i32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Decodes the payload as a single four-byte signed integer.
    pub fn single_i32(&self) -> Result<i32, GdsError> {
        match self.data {
            [a, b, c, d] => Ok(i32::from_be_bytes([*a, *b, *c, *d])),
            _ => Err(self.bad_payload("expected exactly 4 bytes")),
        }
    }

    /// Decodes the payload as 8-byte excess-64 reals.
    pub fn f64s(&self) -> Result<Vec<f64>, GdsError> {
        if !self.data.len().is_multiple_of(8) {
            return Err(self.bad_payload("length is not a multiple of 8"));
        }
        Ok(self
            .data
            .chunks_exact(8)
            .map(|c| {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(c);
                decode_real8(bytes)
            })
            .collect())
    }

    /// Decodes the payload as a single 8-byte excess-64 real.
    pub fn single_f64(&self) -> Result<f64, GdsError> {
        if self.data.len() != 8 {
            return Err(self.bad_payload("expected exactly 8 bytes"));
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(self.data);
        Ok(decode_real8(bytes))
    }

    /// Decodes the payload as ASCII text, stripping NUL padding.
    pub fn ascii(&self) -> String {
        let trimmed = match self.data.iter().rposition(|&b| b != 0) {
            Some(last) => &self.data[..=last],
            None => &[],
        };
        trimmed.iter().map(|&b| b as char).collect()
    }

    /// Decodes the payload as coordinate pairs (XY record).
    pub fn points(&self) -> Result<Vec<(i32, i32)>, GdsError> {
        if !self.data.len().is_multiple_of(8) {
            return Err(self.bad_payload("length is not a multiple of 8 (x/y pairs)"));
        }
        let word = |c: &[u8]| i32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        Ok(self
            .data
            .chunks_exact(8)
            .map(|pair| (word(&pair[..4]), word(&pair[4..])))
            .collect())
    }

    fn bad_payload(&self, reason: &'static str) -> GdsError {
        GdsError::BadPayload {
            offset: self.offset,
            record: self.record_type.name(),
            reason,
        }
    }
}

/// Zero-copy record lexer over a GDSII byte stream.
#[derive(Debug, Clone)]
pub struct RecordReader<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl<'a> RecordReader<'a> {
    /// Starts lexing at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        RecordReader { bytes, position: 0 }
    }

    /// Current byte offset (start of the next record).
    pub fn position(&self) -> usize {
        self.position
    }

    /// Lexes the next record, or `None` at a clean end of stream.
    ///
    /// Trailing NUL padding after `ENDLIB` (GDSII files are often padded to
    /// a 2048-byte tape-block multiple) is treated as end of stream.
    pub fn next_record(&mut self) -> Result<Option<RawRecord<'a>>, GdsError> {
        let offset = self.position;
        let remaining = &self.bytes[offset..];
        if remaining.is_empty() || remaining.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        if remaining.len() < 4 {
            return Err(GdsError::Truncated {
                offset,
                needed: 4 - remaining.len(),
                remaining: remaining.len(),
            });
        }
        let length = u16::from_be_bytes([remaining[0], remaining[1]]) as usize;
        if length < 4 || !length.is_multiple_of(2) {
            return Err(GdsError::BadRecordLength { offset, length });
        }
        if remaining.len() < length {
            return Err(GdsError::Truncated {
                offset,
                needed: length - remaining.len(),
                remaining: remaining.len(),
            });
        }
        let record_type = RecordType::from_byte(remaining[2]).ok_or({
            GdsError::UnknownRecordType {
                offset,
                record_type: remaining[2],
            }
        })?;
        self.position = offset + length;
        Ok(Some(RawRecord {
            offset,
            record_type,
            data: &remaining[4..length],
        }))
    }
}

/// Decodes an 8-byte GDSII excess-64 real.
///
/// Layout: sign bit, 7-bit base-16 exponent biased by 64, 56-bit mantissa
/// interpreted as a fraction in `[0, 1)`.
pub fn decode_real8(bytes: [u8; 8]) -> f64 {
    let sign = if bytes[0] & 0x80 != 0 { -1.0 } else { 1.0 };
    let exponent = i32::from(bytes[0] & 0x7f) - 64;
    let mut mantissa = 0u64;
    for &byte in &bytes[1..8] {
        mantissa = (mantissa << 8) | u64::from(byte);
    }
    if mantissa == 0 {
        return 0.0;
    }
    let fraction = mantissa as f64 / (1u64 << 56) as f64;
    sign * fraction * 16f64.powi(exponent)
}

/// Encodes a finite `f64` as an 8-byte GDSII excess-64 real.
pub fn encode_real8(value: f64) -> [u8; 8] {
    if value == 0.0 || !value.is_finite() {
        return [0u8; 8];
    }
    let sign_bit = if value < 0.0 { 0x80u8 } else { 0x00u8 };
    let mut fraction = value.abs();
    let mut exponent = 0i32;
    // Normalise so that fraction lies in [1/16, 1).
    while fraction >= 1.0 {
        fraction /= 16.0;
        exponent += 1;
    }
    while fraction < 1.0 / 16.0 {
        fraction *= 16.0;
        exponent -= 1;
    }
    let mut mantissa = (fraction * (1u64 << 56) as f64).round() as u64;
    if mantissa >= (1u64 << 56) {
        // Rounding pushed the fraction to 1.0: renormalise instead of
        // letting the value collapse to an all-zero (0.0) mantissa.
        mantissa >>= 4;
        exponent += 1;
    }
    let biased = (exponent + 64).clamp(0, 127) as u8;
    let mut bytes = [0u8; 8];
    bytes[0] = sign_bit | biased;
    for i in 0..7 {
        bytes[1 + i] = ((mantissa >> (8 * (6 - i))) & 0xff) as u8;
    }
    bytes
}

/// Appends one record (header + payload, padded per the data type) to `out`.
///
/// # Errors
///
/// Returns [`GdsError::RecordTooLong`] when the payload does not fit the
/// 16-bit GDSII record length (e.g. a boundary with more vertices than one
/// `XY` record can carry).
pub fn emit_record(
    out: &mut Vec<u8>,
    record_type: RecordType,
    data_type: u8,
    payload: &[u8],
) -> Result<(), GdsError> {
    emit_header(out, record_type, data_type, payload.len())?;
    out.extend_from_slice(payload);
    Ok(())
}

/// Appends the 4-byte header of a record whose payload of `payload_len`
/// bytes the caller appends next.
///
/// # Errors
///
/// Returns [`GdsError::RecordTooLong`] when the payload does not fit.
pub(crate) fn emit_header(
    out: &mut Vec<u8>,
    record_type: RecordType,
    data_type: u8,
    payload_len: usize,
) -> Result<(), GdsError> {
    let total = 4 + payload_len;
    if total > u16::MAX as usize {
        return Err(GdsError::RecordTooLong {
            record: record_type.name(),
            bytes: payload_len,
        });
    }
    out.extend_from_slice(&(total as u16).to_be_bytes());
    out.push(record_type as u8);
    out.push(data_type);
    Ok(())
}

/// Appends an ASCII record, NUL-padding the string to an even length.
///
/// # Errors
///
/// Returns [`GdsError::RecordTooLong`] when the string does not fit.
pub fn emit_ascii(out: &mut Vec<u8>, record_type: RecordType, text: &str) -> Result<(), GdsError> {
    let pad = text.len() % 2;
    emit_header(out, record_type, DATA_ASCII, text.len() + pad)?;
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(&[0][..pad]);
    Ok(())
}

/// Appends a record of big-endian two-byte integers.
///
/// # Errors
///
/// Returns [`GdsError::RecordTooLong`] when the values do not fit.
pub fn emit_i16s(
    out: &mut Vec<u8>,
    record_type: RecordType,
    values: &[i16],
) -> Result<(), GdsError> {
    emit_header(out, record_type, DATA_I16, values.len() * 2)?;
    for value in values {
        out.extend_from_slice(&value.to_be_bytes());
    }
    Ok(())
}

/// Appends a record of big-endian four-byte integers.
///
/// # Errors
///
/// Returns [`GdsError::RecordTooLong`] when the values do not fit.
pub fn emit_i32s(
    out: &mut Vec<u8>,
    record_type: RecordType,
    values: &[i32],
) -> Result<(), GdsError> {
    emit_header(out, record_type, DATA_I32, values.len() * 4)?;
    for value in values {
        out.extend_from_slice(&value.to_be_bytes());
    }
    Ok(())
}

/// Appends a record of excess-64 reals.
///
/// # Errors
///
/// Returns [`GdsError::RecordTooLong`] when the values do not fit.
pub fn emit_f64s(
    out: &mut Vec<u8>,
    record_type: RecordType,
    values: &[f64],
) -> Result<(), GdsError> {
    emit_header(out, record_type, DATA_F64, values.len() * 8)?;
    for &value in values {
        out.extend_from_slice(&encode_real8(value));
    }
    Ok(())
}

/// GDSII data-type byte: no data.
pub const DATA_NONE: u8 = 0x00;
/// GDSII data-type byte: bit array.
pub const DATA_BITS: u8 = 0x01;
/// GDSII data-type byte: two-byte signed integers.
pub const DATA_I16: u8 = 0x02;
/// GDSII data-type byte: four-byte signed integers.
pub const DATA_I32: u8 = 0x03;
/// GDSII data-type byte: eight-byte excess-64 reals.
pub const DATA_F64: u8 = 0x05;
/// GDSII data-type byte: ASCII string.
pub const DATA_ASCII: u8 = 0x06;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real8_known_vectors() {
        // 1.0 encodes as exponent 1 (16^1), mantissa 1/16: 0x41 0x10 00...
        assert_eq!(encode_real8(1.0), [0x41, 0x10, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_real8([0x41, 0x10, 0, 0, 0, 0, 0, 0]), 1.0);
        // -2.0: sign bit set, same exponent, mantissa 2/16.
        assert_eq!(encode_real8(-2.0), [0xc1, 0x20, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_real8([0xc1, 0x20, 0, 0, 0, 0, 0, 0]), -2.0);
        // Zero is all-zero bytes.
        assert_eq!(encode_real8(0.0), [0u8; 8]);
        assert_eq!(decode_real8([0u8; 8]), 0.0);
    }

    #[test]
    fn real8_round_trips_typical_unit_values() {
        for &value in &[1e-9, 1e-3, 0.5, 0.001, 25.0, 1e-6, 3.25, -0.125] {
            let decoded = decode_real8(encode_real8(value));
            let relative = ((decoded - value) / value).abs();
            assert!(relative < 1e-12, "{value} -> {decoded}");
        }
    }

    #[test]
    fn lexer_walks_records_and_reports_offsets() {
        let mut bytes = Vec::new();
        emit_record(&mut bytes, RecordType::Header, DATA_I16, &[0x02, 0x58]).unwrap();
        emit_ascii(&mut bytes, RecordType::LibName, "LIB").unwrap();
        emit_record(&mut bytes, RecordType::EndLib, DATA_NONE, &[]).unwrap();
        let mut reader = RecordReader::new(&bytes);
        let header = reader.next_record().unwrap().unwrap();
        assert_eq!(header.record_type, RecordType::Header);
        assert_eq!(header.offset, 0);
        assert_eq!(header.single_i16().unwrap(), 600);
        let libname = reader.next_record().unwrap().unwrap();
        assert_eq!(libname.record_type, RecordType::LibName);
        assert_eq!(libname.offset, 6);
        assert_eq!(libname.ascii(), "LIB");
        let endlib = reader.next_record().unwrap().unwrap();
        assert_eq!(endlib.record_type, RecordType::EndLib);
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn trailing_nul_padding_is_end_of_stream() {
        let mut bytes = Vec::new();
        emit_record(&mut bytes, RecordType::EndLib, DATA_NONE, &[]).unwrap();
        bytes.extend_from_slice(&[0u8; 44]);
        let mut reader = RecordReader::new(&bytes);
        assert!(reader.next_record().unwrap().is_some());
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_reported() {
        let bytes = [0x00u8, 0x06, 0x00];
        let mut reader = RecordReader::new(&bytes);
        assert_eq!(
            reader.next_record(),
            Err(GdsError::Truncated {
                offset: 0,
                needed: 1,
                remaining: 3,
            })
        );
    }

    #[test]
    fn truncated_payload_is_reported() {
        // Declares 12 bytes but only 6 are present.
        let bytes = [0x00u8, 0x0c, 0x10, 0x03, 0x00, 0x01];
        let mut reader = RecordReader::new(&bytes);
        assert_eq!(
            reader.next_record(),
            Err(GdsError::Truncated {
                offset: 0,
                needed: 6,
                remaining: 6,
            })
        );
    }

    #[test]
    fn bad_record_lengths_are_reported() {
        for bad in [[0x00u8, 0x03, 0x10, 0x03], [0x00, 0x07, 0x10, 0x03]] {
            let mut reader = RecordReader::new(&bad);
            assert!(matches!(
                reader.next_record(),
                Err(GdsError::BadRecordLength { offset: 0, .. })
            ));
        }
        // Length 0 would loop forever if accepted.
        let mut reader = RecordReader::new(&[0x00, 0x00, 0x10, 0x03, 0x01]);
        assert!(matches!(
            reader.next_record(),
            Err(GdsError::BadRecordLength {
                offset: 0,
                length: 0
            })
        ));
    }

    #[test]
    fn unknown_record_types_are_reported() {
        let bytes = [0x00u8, 0x04, 0x7e, 0x00];
        let mut reader = RecordReader::new(&bytes);
        assert_eq!(
            reader.next_record(),
            Err(GdsError::UnknownRecordType {
                offset: 0,
                record_type: 0x7e,
            })
        );
    }

    #[test]
    fn payload_decoders_validate_sizes() {
        let record = RawRecord {
            offset: 0,
            record_type: RecordType::Xy,
            data: &[0, 0, 0],
        };
        assert!(record.points().is_err());
        assert!(record.i32s().is_err());
        assert!(record.single_i16().is_err());
        let record = RawRecord {
            offset: 0,
            record_type: RecordType::Xy,
            data: &[0, 0, 0, 1, 0, 0, 0, 2],
        };
        assert_eq!(record.points().unwrap(), vec![(1, 2)]);
    }

    #[test]
    fn ascii_strips_nul_padding() {
        let record = RawRecord {
            offset: 0,
            record_type: RecordType::StrName,
            data: b"TOP\0",
        };
        assert_eq!(record.ascii(), "TOP");
    }
}
