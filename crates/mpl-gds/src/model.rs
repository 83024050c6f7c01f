//! The GDSII object model: libraries, structures and elements.

use crate::record::{RawRecord, RecordReader, RecordType};
use crate::GdsError;
use std::collections::{HashMap, HashSet};

/// Reflection/magnification/rotation applied by a structure reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GdsStrans {
    /// Reflect about the x axis before rotating.
    pub reflect: bool,
    /// Magnification factor (1.0 when absent).
    pub mag: f64,
    /// Counter-clockwise rotation in degrees (0.0 when absent).
    pub angle: f64,
}

impl Default for GdsStrans {
    fn default() -> Self {
        GdsStrans {
            reflect: false,
            mag: 1.0,
            angle: 0.0,
        }
    }
}

/// One element of a GDSII structure.
#[derive(Debug, Clone, PartialEq)]
pub enum GdsElement {
    /// A filled polygon (`BOUNDARY`).
    Boundary {
        /// GDS layer number.
        layer: i16,
        /// GDS datatype number.
        datatype: i16,
        /// The vertex loop in database units (closing point optional).
        xy: Vec<(i32, i32)>,
    },
    /// A wire with width (`PATH`).
    Path {
        /// GDS layer number.
        layer: i16,
        /// GDS datatype number.
        datatype: i16,
        /// End-cap style: 0 flush, 1 round (treated as square), 2 extended.
        pathtype: i16,
        /// Wire width in database units (negative means absolute; abs is used).
        width: i32,
        /// The centre-line vertices in database units.
        xy: Vec<(i32, i32)>,
    },
    /// A rectangle annotation (`BOX`), treated as filled geometry.
    Box {
        /// GDS layer number.
        layer: i16,
        /// GDS boxtype number (mapped to the datatype slot on conversion).
        boxtype: i16,
        /// The vertex loop in database units.
        xy: Vec<(i32, i32)>,
    },
    /// A single structure reference (`SREF`).
    Sref {
        /// Referenced structure name.
        name: String,
        /// Reference transform.
        strans: GdsStrans,
        /// Placement origin in database units.
        origin: (i32, i32),
    },
    /// An array of structure references (`AREF`).
    Aref {
        /// Referenced structure name.
        name: String,
        /// Reference transform.
        strans: GdsStrans,
        /// Number of columns.
        cols: i16,
        /// Number of rows.
        rows: i16,
        /// Origin, column reference point and row reference point.
        xy: [(i32, i32); 3],
    },
}

/// A named GDSII structure (cell): an ordered list of elements.
#[derive(Debug, Clone, PartialEq)]
pub struct GdsStruct {
    /// The structure name.
    pub name: String,
    /// The structure's elements, in file order.
    pub elements: Vec<GdsElement>,
}

/// A GDSII library: named structures plus the unit declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct GdsLibrary {
    /// Library name (`LIBNAME`).
    pub name: String,
    /// Size of a database unit in user units (first `UNITS` value).
    pub user_unit: f64,
    /// Size of a database unit in meters (second `UNITS` value).
    pub meter_unit: f64,
    /// The structures, in file order.
    pub structs: Vec<GdsStruct>,
}

impl GdsLibrary {
    /// An empty library with 1 nm database units.
    pub fn new(name: impl Into<String>) -> Self {
        GdsLibrary {
            name: name.into(),
            user_unit: 1e-3,
            meter_unit: 1e-9,
            structs: Vec::new(),
        }
    }

    /// Nanometres per database unit implied by the `UNITS` record.
    pub fn nm_per_db_unit(&self) -> f64 {
        self.meter_unit / 1e-9
    }

    /// Looks up a structure by name.
    pub fn find_struct(&self, name: &str) -> Option<&GdsStruct> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// The top structure: the requested name, or the unique structure that
    /// no other structure references.
    ///
    /// # Errors
    ///
    /// [`GdsError::NoTopStruct`] when the name is absent or the library is
    /// empty, and [`GdsError::AmbiguousTop`] when no name was requested but
    /// several structures are referenced by nothing — silently flattening
    /// just one of them would drop the others' geometry.
    pub fn top_struct(&self, requested: Option<&str>) -> Result<&GdsStruct, GdsError> {
        if let Some(name) = requested {
            return self.find_struct(name).ok_or_else(|| GdsError::NoTopStruct {
                requested: Some(name.to_string()),
            });
        }
        let mut referenced: HashSet<&str> = HashSet::new();
        for st in &self.structs {
            for element in &st.elements {
                match element {
                    GdsElement::Sref { name, .. } | GdsElement::Aref { name, .. } => {
                        referenced.insert(name);
                    }
                    _ => {}
                }
            }
        }
        let unreferenced: Vec<&GdsStruct> = self
            .structs
            .iter()
            .filter(|s| !referenced.contains(s.name.as_str()))
            .collect();
        match unreferenced.as_slice() {
            [single] => Ok(single),
            [] => self
                .structs
                .first()
                .ok_or(GdsError::NoTopStruct { requested: None }),
            several => Err(GdsError::AmbiguousTop {
                candidates: several.iter().map(|s| s.name.clone()).collect(),
            }),
        }
    }

    /// Parses a GDSII byte stream into a library.
    ///
    /// Text, node and property records are skipped; all structural errors
    /// carry the byte offset of the offending record. The structure
    /// reference graph is validated after parsing: cyclic SREF/AREF chains
    /// are [`GdsError::RecursiveStruct`] and chains deeper than
    /// [`MAX_REF_DEPTH`] are [`GdsError::DeepHierarchy`], so a hostile or
    /// corrupt stream can never drive the flattener into unbounded
    /// recursion.
    pub fn from_bytes(bytes: &[u8]) -> Result<GdsLibrary, GdsError> {
        let library = Parser::new(bytes).parse()?;
        check_references(&library, &struct_index(&library))?;
        Ok(library)
    }
}

/// Maximum supported SREF/AREF reference depth (edges along a chain).
pub const MAX_REF_DEPTH: usize = 64;

/// The most reference placements plus shapes flattening may expand beyond
/// the elements the library already holds: 2²⁰ = 1,048,576.
///
/// An AREF places its structure `cols · rows` times and nested references
/// multiply, so a file of a few hundred bytes can ask for 10⁹ shapes. What
/// the parsed library holds is not counted against the budget: a flat
/// file of any size, or a hierarchy that places every structure once,
/// expands to no more than its own elements. Flattening rejects a larger
/// expansion with [`GdsError::ExpansionTooLarge`] before expanding
/// anything.
///
/// Memory sets the value: a generated 52,440-shape row chip peaks at
/// 25.7 MiB through `qpl-decompose --json --output-gds` (flatten, graph,
/// plan, coloring and export), about 0.5 KiB per shape, so the budget
/// admits about 0.5 GiB beyond what the file itself costs. That is 20 times
/// the largest benchmark chip, and a placement is counted like a shape
/// although it costs less.
pub const MAX_EXPANDED: u64 = 1 << 20;

/// Each structure name's position in the library; a repeated name maps to
/// its first structure, the one [`GdsLibrary::find_struct`] finds.
pub(crate) fn struct_index(library: &GdsLibrary) -> HashMap<&str, usize> {
    let mut index = HashMap::with_capacity(library.structs.len());
    for (position, st) in library.structs.iter().enumerate() {
        index.entry(st.name.as_str()).or_insert(position);
    }
    index
}

/// Validates the structure reference graph: no cycles, no chain deeper
/// than [`MAX_REF_DEPTH`]. References to undefined structures are ignored
/// here and expand nothing: flattening reports them, with placement
/// context, before it would walk into them.
///
/// Returns, per structure, how many reference placements plus shapes
/// flattening it expands: its own shapes, and for every reference the
/// placements (an AREF places its structure `cols · rows` times) times one
/// more than what the placed structure expands. Each structure is counted
/// once, in the same post-order as its depth, and the sums and products
/// saturate at `u64::MAX`. `index` is the library's [`struct_index`].
pub(crate) fn check_references(
    library: &GdsLibrary,
    index: &HashMap<&str, usize>,
) -> Result<Vec<u64>, GdsError> {
    // Per structure: its shape count, and every reference to a defined
    // structure with the number of times it places it.
    let mut shapes = vec![0u64; library.structs.len()];
    let mut children: Vec<Vec<(usize, u64)>> = Vec::with_capacity(library.structs.len());
    for (position, st) in library.structs.iter().enumerate() {
        let mut edges = Vec::new();
        for element in &st.elements {
            let (name, placements) = match element {
                GdsElement::Sref { name, .. } => (name, 1),
                GdsElement::Aref {
                    name, cols, rows, ..
                } => {
                    let side = |count: i16| u64::from(count.max(1).unsigned_abs());
                    (name, side(*cols) * side(*rows))
                }
                _ => {
                    shapes[position] += 1;
                    continue;
                }
            };
            if let Some(&child) = index.get(name.as_str()) {
                edges.push((child, placements));
            }
        }
        children.push(edges);
    }

    // Iterative three-state DFS: an explicit stack keeps adversarially
    // deep inputs from overflowing the call stack before the typed error
    // can be produced. `depth[s]` is the longest reference chain (in
    // edges) below `s` and `expanded[s]` what flattening `s` expands, both
    // well-defined once the graph is known acyclic.
    const NEW: u8 = 0;
    const OPEN: u8 = 1;
    const DONE: u8 = 2;
    let mut state = vec![NEW; children.len()];
    let mut depth = vec![0usize; children.len()];
    let mut expanded = vec![0u64; children.len()];
    for start in 0..children.len() {
        if state[start] != NEW {
            continue;
        }
        state[start] = OPEN;
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(frame) = stack.last_mut() {
            let (node, next_child) = *frame;
            if let Some(&(child, _)) = children[node].get(next_child) {
                frame.1 += 1;
                match state[child] {
                    NEW => {
                        state[child] = OPEN;
                        stack.push((child, 0));
                    }
                    OPEN => {
                        return Err(GdsError::RecursiveStruct {
                            name: library.structs[child].name.clone(),
                        })
                    }
                    _ => {}
                }
            } else {
                let mut below = 0;
                let mut count = shapes[node];
                for &(child, placements) in &children[node] {
                    below = below.max(depth[child] + 1);
                    count = count.saturating_add(
                        placements.saturating_mul(expanded[child].saturating_add(1)),
                    );
                }
                if below > MAX_REF_DEPTH {
                    return Err(GdsError::DeepHierarchy {
                        name: library.structs[node].name.clone(),
                        limit: MAX_REF_DEPTH,
                    });
                }
                depth[node] = below;
                expanded[node] = count;
                state[node] = DONE;
                stack.pop();
            }
        }
    }
    Ok(expanded)
}

/// Recursive-descent parser over the record stream.
struct Parser<'a> {
    reader: RecordReader<'a>,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Parser {
            reader: RecordReader::new(bytes),
        }
    }

    fn next(&mut self, context: &'static str) -> Result<RawRecord<'a>, GdsError> {
        self.reader
            .next_record()?
            .ok_or(GdsError::UnexpectedEof { context })
    }

    fn parse(&mut self) -> Result<GdsLibrary, GdsError> {
        let header = self.next("before HEADER")?;
        if header.record_type != RecordType::Header {
            return Err(unexpected(&header, "where HEADER was required"));
        }
        let mut library = GdsLibrary::new("");
        loop {
            let record = self.next("inside the library (before ENDLIB)")?;
            match record.record_type {
                RecordType::BgnLib
                | RecordType::RefLibs
                | RecordType::Fonts
                | RecordType::AttrTable
                | RecordType::Generations
                | RecordType::Format
                | RecordType::Mask
                | RecordType::EndMasks => {}
                RecordType::LibName => library.name = record.ascii(),
                RecordType::Units => {
                    let units = record.f64s()?;
                    if units.len() != 2 {
                        return Err(GdsError::BadPayload {
                            offset: record.offset,
                            record: "UNITS",
                            reason: "expected exactly two reals",
                        });
                    }
                    library.user_unit = units[0];
                    library.meter_unit = units[1];
                }
                RecordType::BgnStr => {
                    library.structs.push(self.parse_struct()?);
                }
                RecordType::EndLib => return Ok(library),
                _ => return Err(unexpected(&record, "inside the library")),
            }
        }
    }

    fn parse_struct(&mut self) -> Result<GdsStruct, GdsError> {
        let mut name = String::new();
        let mut elements = Vec::new();
        loop {
            let record = self.next("inside a structure (before ENDSTR)")?;
            match record.record_type {
                RecordType::StrName => name = record.ascii(),
                RecordType::Boundary => elements.push(self.parse_boundary(false)?),
                RecordType::Box => elements.push(self.parse_boundary(true)?),
                RecordType::Path => elements.push(self.parse_path()?),
                RecordType::Sref => elements.push(self.parse_sref()?),
                RecordType::Aref => elements.push(self.parse_aref()?),
                RecordType::Text | RecordType::Node => self.skip_element()?,
                RecordType::EndStr => return Ok(GdsStruct { name, elements }),
                _ => return Err(unexpected(&record, "inside a structure")),
            }
        }
    }

    /// Skips records up to and including the next `ENDEL`.
    fn skip_element(&mut self) -> Result<(), GdsError> {
        loop {
            let record = self.next("inside an element (before ENDEL)")?;
            if record.record_type == RecordType::EndEl {
                return Ok(());
            }
        }
    }

    fn parse_boundary(&mut self, is_box: bool) -> Result<GdsElement, GdsError> {
        let mut layer = 0i16;
        let mut datatype = 0i16;
        let mut xy = Vec::new();
        loop {
            let record = self.next("inside an element (before ENDEL)")?;
            match record.record_type {
                RecordType::ElFlags | RecordType::Plex => {}
                RecordType::PropAttr | RecordType::PropValue => {}
                RecordType::Layer => layer = record.single_i16()?,
                RecordType::Datatype | RecordType::BoxType => datatype = record.single_i16()?,
                RecordType::Xy => xy = record.points()?,
                RecordType::EndEl => {
                    return Ok(if is_box {
                        GdsElement::Box {
                            layer,
                            boxtype: datatype,
                            xy,
                        }
                    } else {
                        GdsElement::Boundary {
                            layer,
                            datatype,
                            xy,
                        }
                    });
                }
                _ => return Err(unexpected(&record, "inside a boundary element")),
            }
        }
    }

    fn parse_path(&mut self) -> Result<GdsElement, GdsError> {
        let mut layer = 0i16;
        let mut datatype = 0i16;
        let mut pathtype = 0i16;
        let mut width = 0i32;
        let mut xy = Vec::new();
        loop {
            let record = self.next("inside an element (before ENDEL)")?;
            match record.record_type {
                RecordType::ElFlags | RecordType::Plex => {}
                RecordType::PropAttr | RecordType::PropValue => {}
                RecordType::Layer => layer = record.single_i16()?,
                RecordType::Datatype => datatype = record.single_i16()?,
                RecordType::PathType => pathtype = record.single_i16()?,
                RecordType::Width => width = record.single_i32()?,
                RecordType::Xy => xy = record.points()?,
                RecordType::EndEl => {
                    return Ok(GdsElement::Path {
                        layer,
                        datatype,
                        pathtype,
                        width,
                        xy,
                    });
                }
                _ => return Err(unexpected(&record, "inside a path element")),
            }
        }
    }

    /// Folds a STRANS/MAG/ANGLE record into `strans`. Returns `Ok(false)`
    /// when the record is none of the three; malformed payloads are typed
    /// errors, never silently-defaulted transforms.
    fn parse_strans(
        &mut self,
        record: &RawRecord<'_>,
        strans: &mut GdsStrans,
    ) -> Result<bool, GdsError> {
        match record.record_type {
            RecordType::Strans => {
                strans.reflect = (record.single_i16()? as u16) & 0x8000 != 0;
                Ok(true)
            }
            RecordType::Mag => {
                strans.mag = record.single_f64()?;
                Ok(true)
            }
            RecordType::Angle => {
                strans.angle = record.single_f64()?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn parse_sref(&mut self) -> Result<GdsElement, GdsError> {
        let mut name = String::new();
        let mut strans = GdsStrans::default();
        let mut origin = (0i32, 0i32);
        loop {
            let record = self.next("inside an element (before ENDEL)")?;
            if self.parse_strans(&record, &mut strans)? {
                continue;
            }
            match record.record_type {
                RecordType::ElFlags | RecordType::Plex => {}
                RecordType::PropAttr | RecordType::PropValue => {}
                RecordType::Sname => name = record.ascii(),
                RecordType::Xy => {
                    let points = record.points()?;
                    origin = *points.first().ok_or(GdsError::BadPayload {
                        offset: record.offset,
                        record: "XY",
                        reason: "SREF placement needs one point",
                    })?;
                }
                RecordType::EndEl => {
                    return Ok(GdsElement::Sref {
                        name,
                        strans,
                        origin,
                    })
                }
                _ => return Err(unexpected(&record, "inside an SREF element")),
            }
        }
    }

    fn parse_aref(&mut self) -> Result<GdsElement, GdsError> {
        let mut name = String::new();
        let mut strans = GdsStrans::default();
        let mut cols = 1i16;
        let mut rows = 1i16;
        let mut xy = [(0i32, 0i32); 3];
        loop {
            let record = self.next("inside an element (before ENDEL)")?;
            if self.parse_strans(&record, &mut strans)? {
                continue;
            }
            match record.record_type {
                RecordType::ElFlags | RecordType::Plex => {}
                RecordType::PropAttr | RecordType::PropValue => {}
                RecordType::Sname => name = record.ascii(),
                RecordType::ColRow => {
                    let values = record.i16s()?;
                    if values.len() != 2 {
                        return Err(GdsError::BadPayload {
                            offset: record.offset,
                            record: "COLROW",
                            reason: "expected exactly two integers",
                        });
                    }
                    cols = values[0];
                    rows = values[1];
                }
                RecordType::Xy => {
                    let points = record.points()?;
                    if points.len() != 3 {
                        return Err(GdsError::BadPayload {
                            offset: record.offset,
                            record: "XY",
                            reason: "AREF placement needs three points",
                        });
                    }
                    xy = [points[0], points[1], points[2]];
                }
                RecordType::EndEl => {
                    return Ok(GdsElement::Aref {
                        name,
                        strans,
                        cols,
                        rows,
                        xy,
                    })
                }
                _ => return Err(unexpected(&record, "inside an AREF element")),
            }
        }
    }
}

fn unexpected(record: &RawRecord<'_>, context: &'static str) -> GdsError {
    GdsError::UnexpectedRecord {
        offset: record.offset,
        record: record.record_type.name(),
        context,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{emit_ascii, emit_i16s, emit_record, DATA_NONE};

    fn minimal_library() -> Vec<u8> {
        let mut bytes = Vec::new();
        emit_i16s(&mut bytes, RecordType::Header, &[600]).unwrap();
        emit_i16s(&mut bytes, RecordType::BgnLib, &[0; 12]).unwrap();
        emit_ascii(&mut bytes, RecordType::LibName, "TESTLIB").unwrap();
        crate::record::emit_f64s(&mut bytes, RecordType::Units, &[1e-3, 1e-9]).unwrap();
        emit_i16s(&mut bytes, RecordType::BgnStr, &[0; 12]).unwrap();
        emit_ascii(&mut bytes, RecordType::StrName, "TOP").unwrap();
        emit_record(&mut bytes, RecordType::Boundary, DATA_NONE, &[]).unwrap();
        emit_i16s(&mut bytes, RecordType::Layer, &[7]).unwrap();
        emit_i16s(&mut bytes, RecordType::Datatype, &[1]).unwrap();
        crate::record::emit_i32s(
            &mut bytes,
            RecordType::Xy,
            &[0, 0, 10, 0, 10, 20, 0, 20, 0, 0],
        )
        .unwrap();
        emit_record(&mut bytes, RecordType::EndEl, DATA_NONE, &[]).unwrap();
        emit_record(&mut bytes, RecordType::EndStr, DATA_NONE, &[]).unwrap();
        emit_record(&mut bytes, RecordType::EndLib, DATA_NONE, &[]).unwrap();
        bytes
    }

    #[test]
    fn parses_a_minimal_library() {
        let library = GdsLibrary::from_bytes(&minimal_library()).expect("parse");
        assert_eq!(library.name, "TESTLIB");
        assert_eq!(library.nm_per_db_unit(), 1.0);
        assert_eq!(library.structs.len(), 1);
        let top = library.top_struct(None).expect("top");
        assert_eq!(top.name, "TOP");
        assert_eq!(
            top.elements,
            vec![GdsElement::Boundary {
                layer: 7,
                datatype: 1,
                xy: vec![(0, 0), (10, 0), (10, 20), (0, 20), (0, 0)],
            }]
        );
    }

    /// Emits a structure that only places `target` via SREF.
    fn emit_ref_struct(bytes: &mut Vec<u8>, name: &str, target: &str) {
        emit_i16s(bytes, RecordType::BgnStr, &[0; 12]).unwrap();
        emit_ascii(bytes, RecordType::StrName, name).unwrap();
        emit_record(bytes, RecordType::Sref, DATA_NONE, &[]).unwrap();
        emit_ascii(bytes, RecordType::Sname, target).unwrap();
        crate::record::emit_i32s(bytes, RecordType::Xy, &[0, 0]).unwrap();
        emit_record(bytes, RecordType::EndEl, DATA_NONE, &[]).unwrap();
        emit_record(bytes, RecordType::EndStr, DATA_NONE, &[]).unwrap();
    }

    fn library_preamble() -> Vec<u8> {
        let mut bytes = Vec::new();
        emit_i16s(&mut bytes, RecordType::Header, &[600]).unwrap();
        emit_i16s(&mut bytes, RecordType::BgnLib, &[0; 12]).unwrap();
        emit_ascii(&mut bytes, RecordType::LibName, "TESTLIB").unwrap();
        crate::record::emit_f64s(&mut bytes, RecordType::Units, &[1e-3, 1e-9]).unwrap();
        bytes
    }

    #[test]
    fn cyclic_references_are_rejected_at_parse_time() {
        let mut bytes = library_preamble();
        emit_ref_struct(&mut bytes, "A", "B");
        emit_ref_struct(&mut bytes, "B", "A");
        emit_record(&mut bytes, RecordType::EndLib, DATA_NONE, &[]).unwrap();
        assert!(matches!(
            GdsLibrary::from_bytes(&bytes),
            Err(GdsError::RecursiveStruct { name }) if name == "A" || name == "B"
        ));
    }

    #[test]
    fn over_deep_reference_chains_are_rejected_at_parse_time() {
        let mut bytes = library_preamble();
        // S0 -> S1 -> ... -> S{MAX_REF_DEPTH+1}: one edge too many.
        for level in 0..=MAX_REF_DEPTH {
            emit_ref_struct(&mut bytes, &format!("S{level}"), &format!("S{}", level + 1));
        }
        emit_i16s(&mut bytes, RecordType::BgnStr, &[0; 12]).unwrap();
        emit_ascii(
            &mut bytes,
            RecordType::StrName,
            &format!("S{}", MAX_REF_DEPTH + 1),
        )
        .unwrap();
        emit_record(&mut bytes, RecordType::EndStr, DATA_NONE, &[]).unwrap();
        emit_record(&mut bytes, RecordType::EndLib, DATA_NONE, &[]).unwrap();
        assert_eq!(
            GdsLibrary::from_bytes(&bytes),
            Err(GdsError::DeepHierarchy {
                name: "S0".into(),
                limit: MAX_REF_DEPTH,
            })
        );
    }

    #[test]
    fn a_chain_at_the_depth_limit_still_parses() {
        let mut bytes = library_preamble();
        for level in 0..MAX_REF_DEPTH {
            emit_ref_struct(&mut bytes, &format!("S{level}"), &format!("S{}", level + 1));
        }
        emit_i16s(&mut bytes, RecordType::BgnStr, &[0; 12]).unwrap();
        emit_ascii(
            &mut bytes,
            RecordType::StrName,
            &format!("S{MAX_REF_DEPTH}"),
        )
        .unwrap();
        emit_record(&mut bytes, RecordType::EndStr, DATA_NONE, &[]).unwrap();
        emit_record(&mut bytes, RecordType::EndLib, DATA_NONE, &[]).unwrap();
        let library = GdsLibrary::from_bytes(&bytes).expect("exactly at the limit");
        assert_eq!(library.structs.len(), MAX_REF_DEPTH + 1);
    }

    #[test]
    fn missing_endlib_is_an_unexpected_eof() {
        let mut bytes = minimal_library();
        bytes.truncate(bytes.len() - 4);
        assert_eq!(
            GdsLibrary::from_bytes(&bytes),
            Err(GdsError::UnexpectedEof {
                context: "inside the library (before ENDLIB)"
            })
        );
    }

    #[test]
    fn stream_must_start_with_header() {
        let mut bytes = Vec::new();
        emit_record(&mut bytes, RecordType::EndLib, DATA_NONE, &[]).unwrap();
        assert!(matches!(
            GdsLibrary::from_bytes(&bytes),
            Err(GdsError::UnexpectedRecord {
                offset: 0,
                record: "ENDLIB",
                ..
            })
        ));
    }

    #[test]
    fn requested_top_struct_must_exist() {
        let library = GdsLibrary::from_bytes(&minimal_library()).expect("parse");
        assert!(matches!(
            library.top_struct(Some("MISSING")),
            Err(GdsError::NoTopStruct { .. })
        ));
    }

    #[test]
    fn multiple_unreferenced_structs_are_ambiguous() {
        let mut library = GdsLibrary::new("L");
        library.structs.push(GdsStruct {
            name: "TOP_A".into(),
            elements: vec![],
        });
        library.structs.push(GdsStruct {
            name: "TOP_B".into(),
            elements: vec![],
        });
        match library.top_struct(None) {
            Err(GdsError::AmbiguousTop { candidates }) => {
                assert_eq!(candidates, vec!["TOP_A".to_string(), "TOP_B".to_string()]);
            }
            other => panic!("expected AmbiguousTop, got {other:?}"),
        }
        // Naming one explicitly resolves the ambiguity.
        assert_eq!(library.top_struct(Some("TOP_B")).unwrap().name, "TOP_B");
    }
}
