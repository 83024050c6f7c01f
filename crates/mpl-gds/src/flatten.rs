//! Structure flattening: expands SREF/AREF hierarchies into flat geometry.
//!
//! Real layouts are deeply hierarchical; the decomposition flow wants a flat
//! bag of polygons. [`flatten_from`] walks the reference tree from a top
//! structure, applying reference transforms (translation, reflection about
//! x, and rotations in 90° multiples — the transforms that keep rectilinear
//! geometry rectilinear) and converting every boundary, box and path into
//! rectangle lists in database units.
//!
//! It also records, per shape, which *top-level instance* (direct
//! SREF/AREF child of the top structure, AREFs expanded row-major) emitted
//! it — the provenance the hierarchical decomposition driver needs to split
//! merged conflict components back into per-cell pieces.
//!
//! The walk validates the reference graph first
//! ([`GdsLibrary::from_bytes`](crate::GdsLibrary::from_bytes) does too), so
//! cyclic or over-deep hierarchies surface as typed errors instead of
//! unbounded recursion, and count what the walk would expand, so an array
//! of arrays surfaces as [`GdsError::ExpansionTooLarge`] instead of
//! exhausting memory.

use crate::model::{
    check_references, struct_index, GdsElement, GdsLibrary, GdsStrans, GdsStruct, MAX_EXPANDED,
    MAX_REF_DEPTH,
};
use crate::poly::{loop_to_rects, path_to_rects, DbRect};
use crate::GdsError;
use std::collections::HashMap;

/// One flattened feature: a rectangle union on a layer:datatype pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatShape {
    /// GDS layer number.
    pub layer: i16,
    /// GDS datatype number (boxtype for `BOX` elements).
    pub datatype: i16,
    /// Disjoint-or-touching rectangles in database units.
    pub rects: Vec<DbRect>,
}

/// One expanded top-level placement, in database units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatInstance {
    /// Name of the referenced structure.
    pub cell: String,
    /// Placement translation in database units.
    pub dx: i64,
    /// Placement translation in database units.
    pub dy: i64,
}

/// Flattened geometry plus per-shape instance provenance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct TaggedFlat {
    /// Flattened shapes.
    pub shapes: Vec<FlatShape>,
    /// Parallel to `shapes`: the index into `instances` of the top-level
    /// placement that emitted the shape, or `None` for geometry of the top
    /// structure itself.
    pub origins: Vec<Option<usize>>,
    /// Expanded top-level placements in emission order (AREFs row-major).
    pub instances: Vec<FlatInstance>,
    /// Number of shapes that were emitted through a *nested* reference
    /// (depth ≥ 2) and therefore inherit the enclosing top-level
    /// instance's tag rather than carrying their own placement identity.
    ///
    /// The hierarchical decomposition driver treats each tag as one cell
    /// placement, so geometry counted here is silently merged into its
    /// enclosing instance — a known approximation for deep SREF chains.
    /// The counter makes that loss of provenance observable downstream.
    pub nested_inherited: usize,
}

/// An affine placement restricted to Manhattan transforms.
#[derive(Debug, Clone, Copy)]
struct Placement {
    /// Translation in database units.
    dx: i64,
    dy: i64,
    /// Number of 90° counter-clockwise rotations (0..4).
    rot: u8,
    /// Reflect about the x axis (applied before rotation, GDS order).
    reflect: bool,
}

impl Placement {
    const IDENTITY: Placement = Placement {
        dx: 0,
        dy: 0,
        rot: 0,
        reflect: false,
    };

    fn apply(&self, (x, y): (i64, i64)) -> (i64, i64) {
        let (x, y) = if self.reflect { (x, -y) } else { (x, y) };
        let (x, y) = match self.rot {
            0 => (x, y),
            1 => (-y, x),
            2 => (-x, -y),
            _ => (y, -x),
        };
        (x + self.dx, y + self.dy)
    }

    /// Composes `self` (outer) with a child reference placement.
    fn then(&self, child: &Placement) -> Placement {
        let (dx, dy) = self.apply((child.dx, child.dy));
        let child_rot = if self.reflect {
            // Reflection conjugates the rotation direction.
            (4 - child.rot) % 4
        } else {
            child.rot
        };
        Placement {
            dx,
            dy,
            rot: (self.rot + child_rot) % 4,
            reflect: self.reflect ^ child.reflect,
        }
    }
}

/// Converts a reference transform into a Manhattan placement.
fn placement_of(name: &str, strans: &GdsStrans, origin: (i64, i64)) -> Result<Placement, GdsError> {
    let angle = strans.angle.rem_euclid(360.0);
    let quarter = angle / 90.0;
    let rot = quarter.round();
    if (quarter - rot).abs() > 1e-9 || (strans.mag - 1.0).abs() > 1e-9 {
        return Err(GdsError::UnsupportedTransform {
            name: name.to_string(),
            angle: strans.angle,
            mag: strans.mag,
        });
    }
    Ok(Placement {
        dx: origin.0,
        dy: origin.1,
        rot: (rot as u8) % 4,
        reflect: strans.reflect,
    })
}

/// Flattens the library from `top` into rectangle-union shapes in database
/// units and tags every emitted shape with the top-level instance that
/// produced it.
///
/// Geometry owned by the top structure directly is tagged `None`; geometry
/// reached through a direct SREF child of the top gets that placement's
/// instance index, an AREF contributes `cols · rows` instances in the
/// row-major order the grid is expanded, and nested references inherit the
/// enclosing top-level instance's tag. Every shape that inherits a tag
/// this way (emitted at reference depth ≥ 2) is counted in
/// [`TaggedFlat::nested_inherited`].
///
/// Before anything is expanded, the placements plus shapes the walk would
/// produce are counted; more than the library's own elements plus
/// [`MAX_EXPANDED`] is [`GdsError::ExpansionTooLarge`].
///
/// # Errors
///
/// Propagates [`GdsError::UndefinedStruct`], [`GdsError::RecursiveStruct`],
/// [`GdsError::DeepHierarchy`], [`GdsError::ExpansionTooLarge`],
/// [`GdsError::UnsupportedTransform`] and [`GdsError::NonRectilinear`].
pub(crate) fn flatten_from(library: &GdsLibrary, top: &GdsStruct) -> Result<TaggedFlat, GdsError> {
    let targets = Targets {
        library,
        index: struct_index(library),
    };
    let expanded = check_references(library, &targets.index)?;
    let position = library
        .structs
        .iter()
        .position(|st| std::ptr::eq(st, top))
        .expect("the top structure belongs to the library");
    let held: u64 = library
        .structs
        .iter()
        .map(|st| st.elements.len() as u64)
        .sum();
    let (count, limit) = (expanded[position], held.saturating_add(MAX_EXPANDED));
    if count > limit {
        return Err(GdsError::ExpansionTooLarge { count, limit });
    }
    let mut flat = TaggedFlat::default();
    for (index, element) in top.elements.iter().enumerate() {
        match element {
            GdsElement::Sref {
                name,
                strans,
                origin,
            } => {
                let target = targets.get(name)?;
                let child = placement_of(name, strans, (i64::from(origin.0), i64::from(origin.1)))?;
                let tag = open_instance(&mut flat.instances, name, &child);
                walk(&targets, target, child, 1, tag, &mut flat)?;
            }
            GdsElement::Aref { name, .. } => {
                let target = targets.get(name)?;
                for child in aref_placements(element)? {
                    let tag = open_instance(&mut flat.instances, name, &child);
                    walk(&targets, target, child, 1, tag, &mut flat)?;
                }
            }
            _ => emit_geometry(top, index, element, &Placement::IDENTITY, None, &mut flat)?,
        }
    }
    Ok(flat)
}

/// Reference targets by name, through one map built per flattening.
struct Targets<'a> {
    library: &'a GdsLibrary,
    index: HashMap<&'a str, usize>,
}

impl<'a> Targets<'a> {
    /// The structure `name` refers to, as [`GdsLibrary::find_struct`]
    /// finds it.
    fn get(&self, name: &str) -> Result<&'a GdsStruct, GdsError> {
        self.index
            .get(name)
            .map(|&position| &self.library.structs[position])
            .ok_or_else(|| GdsError::UndefinedStruct {
                name: name.to_string(),
            })
    }
}

fn open_instance(
    instances: &mut Vec<FlatInstance>,
    name: &str,
    placement: &Placement,
) -> Option<usize> {
    instances.push(FlatInstance {
        cell: name.to_string(),
        dx: placement.dx,
        dy: placement.dy,
    });
    Some(instances.len() - 1)
}

/// The placements of an AREF element's grid, row-major, made one at a time
/// as the walk visits them: the grid is never held in memory.
fn aref_placements(element: &GdsElement) -> Result<impl Iterator<Item = Placement>, GdsError> {
    let GdsElement::Aref {
        name,
        strans,
        cols,
        rows,
        xy,
    } = element
    else {
        unreachable!("aref_placements is only called on AREF elements");
    };
    let cols = i64::from((*cols).max(1));
    let rows = i64::from((*rows).max(1));
    let origin = (i64::from(xy[0].0), i64::from(xy[0].1));
    // Per the spec, xy[1] is origin displaced by cols inter-column
    // spacings and xy[2] by rows inter-row spacings. Divide with
    // rounding: a tool that rounds the lattice endpoint must not
    // shift every instance by a truncated step.
    let col_step = (
        div_round(i64::from(xy[1].0) - origin.0, cols),
        div_round(i64::from(xy[1].1) - origin.1, cols),
    );
    let row_step = (
        div_round(i64::from(xy[2].0) - origin.0, rows),
        div_round(i64::from(xy[2].1) - origin.1, rows),
    );
    // Every grid position shares the transform, so one check covers all.
    let first = placement_of(name, strans, origin)?;
    Ok((0..rows).flat_map(move |row| {
        (0..cols).map(move |col| Placement {
            dx: origin.0 + col * col_step.0 + row * row_step.0,
            dy: origin.1 + col * col_step.1 + row * row_step.1,
            ..first
        })
    }))
}

fn emit_geometry(
    current: &GdsStruct,
    index: usize,
    element: &GdsElement,
    placement: &Placement,
    tag: Option<usize>,
    flat: &mut TaggedFlat,
) -> Result<(), GdsError> {
    let non_rectilinear = || GdsError::NonRectilinear {
        structure: current.name.clone(),
        element: index,
    };
    let shape = match element {
        GdsElement::Boundary {
            layer,
            datatype,
            xy,
        } => FlatShape {
            layer: *layer,
            datatype: *datatype,
            rects: placed(xy, placement, loop_to_rects).ok_or_else(non_rectilinear)?,
        },
        GdsElement::Box { layer, boxtype, xy } => FlatShape {
            layer: *layer,
            datatype: *boxtype,
            rects: placed(xy, placement, loop_to_rects).ok_or_else(non_rectilinear)?,
        },
        GdsElement::Path {
            layer,
            datatype,
            pathtype,
            width,
            xy,
        } => FlatShape {
            layer: *layer,
            datatype: *datatype,
            rects: placed(xy, placement, |points| {
                path_to_rects(points, i64::from(width.unsigned_abs()), *pathtype)
            })
            .ok_or_else(non_rectilinear)?,
        },
        GdsElement::Sref { .. } | GdsElement::Aref { .. } => {
            unreachable!("emit_geometry is only called on geometry elements")
        }
    };
    flat.shapes.push(shape);
    flat.origins.push(tag);
    Ok(())
}

fn walk(
    targets: &Targets,
    current: &GdsStruct,
    placement: Placement,
    depth: usize,
    tag: Option<usize>,
    flat: &mut TaggedFlat,
) -> Result<(), GdsError> {
    if depth > MAX_REF_DEPTH {
        // Unreachable after check_references, kept as a defensive backstop.
        return Err(GdsError::DeepHierarchy {
            name: current.name.clone(),
            limit: MAX_REF_DEPTH,
        });
    }
    for (index, element) in current.elements.iter().enumerate() {
        match element {
            GdsElement::Sref {
                name,
                strans,
                origin,
            } => {
                let target = targets.get(name)?;
                let child = placement_of(name, strans, (i64::from(origin.0), i64::from(origin.1)))?;
                walk(
                    targets,
                    target,
                    placement.then(&child),
                    depth + 1,
                    tag,
                    flat,
                )?;
            }
            GdsElement::Aref { name, .. } => {
                let target = targets.get(name)?;
                for child in aref_placements(element)? {
                    walk(
                        targets,
                        target,
                        placement.then(&child),
                        depth + 1,
                        tag,
                        flat,
                    )?;
                }
            }
            _ => {
                // Geometry reached below the direct children of the top
                // structure inherits the enclosing top-level instance's
                // tag; count it so the provenance loss is observable.
                if depth >= 2 && tag.is_some() {
                    flat.nested_inherited += 1;
                }
                emit_geometry(current, index, element, &placement, tag, flat)?;
            }
        }
    }
    Ok(())
}

/// Signed division rounding to the nearest integer (ties away from zero).
fn div_round(numerator: i64, denominator: i64) -> i64 {
    let half = denominator.abs() / 2;
    if numerator >= 0 {
        (numerator + half) / denominator
    } else {
        (numerator - half) / denominator
    }
}

/// Hands `points`, moved by `placement`, to `convert`. Loops of up to five
/// vertices, every rectangle among them, are moved on the stack.
fn placed<R>(
    points: &[(i32, i32)],
    placement: &Placement,
    convert: impl FnOnce(&[(i64, i64)]) -> R,
) -> R {
    let place = |&(x, y): &(i32, i32)| placement.apply((i64::from(x), i64::from(y)));
    let mut small = [(0, 0); 5];
    if points.len() <= small.len() {
        for (slot, point) in small.iter_mut().zip(points) {
            *slot = place(point);
        }
        convert(&small[..points.len()])
    } else {
        convert(&points.iter().map(place).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GdsElement, GdsLibrary, GdsStrans, GdsStruct};
    use crate::poly::sweep_loop;
    use proptest::prelude::*;

    /// [`flatten_from`] the named (or the inferred) top structure.
    fn flatten_tagged(library: &GdsLibrary, top: Option<&str>) -> Result<TaggedFlat, GdsError> {
        flatten_from(library, library.top_struct(top)?)
    }

    /// The shapes of [`flatten_tagged`].
    fn flatten(library: &GdsLibrary, top: Option<&str>) -> Result<Vec<FlatShape>, GdsError> {
        Ok(flatten_tagged(library, top)?.shapes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The direct rectangle path of `loop_to_rects` returns what the
        /// slab sweep returns, for a rectangle traced from any corner in
        /// either direction, with or without the closing vertex, with one
        /// vertex repeated or none, after any of the eight Manhattan
        /// placements flattening applies. Zero-width or zero-height loops
        /// still give `None`.
        #[test]
        fn rectangle_loops_take_the_direct_path_to_the_sweeps_result(
            corner in (-1000i64..1000, -1000i64..1000),
            size in (0i64..40, 0i64..40),
            start in 0usize..4,
            clockwise in 0u8..2,
            closed in 0u8..2,
            repeat in 0usize..8,
            transform in (0u8..4, 0u8..2, -5000i64..5000, -5000i64..5000),
        ) {
            let ((x, y), (w, h)) = (corner, size);
            let corners = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)];
            let mut points: Vec<(i64, i64)> = (0..4).map(|i| corners[(start + i) % 4]).collect();
            if clockwise == 1 {
                points[1..].reverse();
            }
            if closed == 1 {
                points.push(points[0]);
            }
            if repeat < points.len() {
                points.insert(repeat, points[repeat]);
            }
            let (rot, reflect, dx, dy) = transform;
            let placement = Placement { dx, dy, rot, reflect: reflect == 1 };
            let points: Vec<(i64, i64)> = points.iter().map(|&p| placement.apply(p)).collect();
            let rects = loop_to_rects(&points);
            prop_assert_eq!(&rects, &sweep_loop(&points));
            prop_assert_eq!(rects.map(|rects| rects.len()), (w > 0 && h > 0).then_some(1));
        }

        /// Any short loop on a 3 × 3 grid (diagonal, collinear, repeated,
        /// self-touching or a real rectangle) gets the sweep's answer.
        #[test]
        fn short_loops_on_a_small_grid_match_the_sweep(
            points in prop::collection::vec((0i64..3, 0i64..3), 0..8),
        ) {
            prop_assert_eq!(loop_to_rects(&points), sweep_loop(&points));
        }
    }

    #[test]
    fn expansion_counts_placements_and_shapes_once_per_structure() {
        // LEAF: 1 square. PAIR: 1 square + SREF LEAF = 3. TOP: 1 square +
        // SREF LEAF (2) + a 2 × 2 AREF of PAIR (4 × 4) = 19. The same
        // library flattens to 10 shapes through 5 + 4 placements.
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![unit_square(1)],
            },
            GdsStruct {
                name: "PAIR".into(),
                elements: vec![
                    unit_square(1),
                    GdsElement::Sref {
                        name: "LEAF".into(),
                        strans: GdsStrans::default(),
                        origin: (20, 0),
                    },
                ],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![
                    unit_square(1),
                    GdsElement::Sref {
                        name: "LEAF".into(),
                        strans: GdsStrans::default(),
                        origin: (100, 0),
                    },
                    GdsElement::Aref {
                        name: "PAIR".into(),
                        strans: GdsStrans::default(),
                        cols: 2,
                        rows: 2,
                        xy: [(0, 200), (120, 200), (0, 400)],
                    },
                ],
            },
        ]);
        assert_eq!(
            check_references(&library, &struct_index(&library)),
            Ok(vec![1, 3, 19])
        );
        assert_eq!(flatten(&library, None).expect("flatten").len(), 10);
    }

    /// `TOP` places `MID` once; `MID` places the empty `E` by a 1024 × 1024
    /// AREF and by a second `extra × 1` one. Nothing below `TOP` is
    /// emitted, so the walk allocates nothing per placement.
    fn arrays_of_an_empty_cell(extra: i16) -> GdsLibrary {
        let aref = |cols: i16, rows: i16| GdsElement::Aref {
            name: "E".into(),
            strans: GdsStrans::default(),
            cols,
            rows,
            xy: [(0, 0), (i32::from(cols), 0), (0, i32::from(rows))],
        };
        library_with(vec![
            GdsStruct {
                name: "E".into(),
                elements: Vec::new(),
            },
            GdsStruct {
                name: "MID".into(),
                elements: vec![aref(1024, 1024), aref(extra, 1)],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![GdsElement::Sref {
                    name: "MID".into(),
                    strans: GdsStrans::default(),
                    origin: (0, 0),
                }],
            },
        ])
    }

    #[test]
    fn the_budget_admits_its_limit_and_rejects_one_more() {
        // Three elements held. 1 + 2²⁰ + 2 placements expand exactly
        // MAX_EXPANDED more than that; one more placement is too many.
        let limit = MAX_EXPANDED + 3;
        let flat = flatten_tagged(&arrays_of_an_empty_cell(2), None).expect("at the limit");
        assert_eq!((flat.shapes.len(), flat.instances.len()), (0, 1));
        assert_eq!(
            flatten_tagged(&arrays_of_an_empty_cell(3), None),
            Err(GdsError::ExpansionTooLarge {
                count: limit + 1,
                limit
            })
        );
    }

    #[test]
    fn a_flat_library_larger_than_the_budget_flattens() {
        // The parsed library already holds every shape a flat file
        // expands to, so none of them counts against the budget.
        let count = MAX_EXPANDED as usize + 1;
        let square = |i: usize| {
            let x = 20 * (i % 1024) as i32;
            let y = 20 * (i / 1024) as i32;
            GdsElement::Boundary {
                layer: 1,
                datatype: 0,
                xy: vec![(x, y), (x + 10, y), (x + 10, y + 10), (x, y + 10)],
            }
        };
        let library = library_with(vec![GdsStruct {
            name: "TOP".into(),
            elements: (0..count).map(square).collect(),
        }]);
        let shapes = flatten(&library, None).expect("flat libraries are never amplified");
        assert_eq!(shapes.len(), count);
        assert_eq!(shapes[count - 1].rects, vec![(0, 20480, 10, 20490)]);
    }

    fn unit_square(layer: i16) -> GdsElement {
        GdsElement::Boundary {
            layer,
            datatype: 0,
            xy: vec![(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)],
        }
    }

    fn library_with(structs: Vec<GdsStruct>) -> GdsLibrary {
        let mut library = GdsLibrary::new("T");
        library.structs = structs;
        library
    }

    #[test]
    fn sref_translates_geometry() {
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![unit_square(1)],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![GdsElement::Sref {
                    name: "LEAF".into(),
                    strans: GdsStrans::default(),
                    origin: (100, 200),
                }],
            },
        ]);
        let shapes = flatten(&library, None).expect("flatten");
        assert_eq!(shapes.len(), 1);
        assert_eq!(shapes[0].rects, vec![(100, 200, 110, 210)]);
    }

    #[test]
    fn top_structure_is_inferred_as_the_unreferenced_one() {
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![unit_square(1)],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![GdsElement::Sref {
                    name: "LEAF".into(),
                    strans: GdsStrans::default(),
                    origin: (0, 0),
                }],
            },
        ]);
        assert_eq!(library.top_struct(None).unwrap().name, "TOP");
    }

    #[test]
    fn rotation_by_90_degrees_is_applied() {
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![GdsElement::Boundary {
                    layer: 1,
                    datatype: 0,
                    xy: vec![(0, 0), (30, 0), (30, 10), (0, 10), (0, 0)],
                }],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![GdsElement::Sref {
                    name: "LEAF".into(),
                    strans: GdsStrans {
                        reflect: false,
                        mag: 1.0,
                        angle: 90.0,
                    },
                    origin: (0, 0),
                }],
            },
        ]);
        let shapes = flatten(&library, None).expect("flatten");
        // (x, y) -> (-y, x): the 30x10 bar becomes a 10x30 bar at x in [-10, 0].
        assert_eq!(shapes[0].rects, vec![(-10, 0, 0, 30)]);
    }

    #[test]
    fn aref_expands_the_full_grid() {
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![unit_square(3)],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![GdsElement::Aref {
                    name: "LEAF".into(),
                    strans: GdsStrans::default(),
                    cols: 3,
                    rows: 2,
                    // Origin (0,0); columns 40 apart; rows 50 apart.
                    xy: [(0, 0), (120, 0), (0, 100)],
                }],
            },
        ]);
        let shapes = flatten(&library, None).expect("flatten");
        assert_eq!(shapes.len(), 6);
        assert!(shapes.iter().any(|s| s.rects == vec![(80, 50, 90, 60)]));
    }

    #[test]
    fn aref_steps_round_instead_of_truncating() {
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![unit_square(1)],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![GdsElement::Aref {
                    name: "LEAF".into(),
                    strans: GdsStrans::default(),
                    cols: 4,
                    rows: 1,
                    // Column reference point at 110: spacing 27.5 rounds to
                    // 28, not a truncated 27 that would shift every column.
                    xy: [(0, 0), (110, 0), (0, 40)],
                }],
            },
        ]);
        let shapes = flatten(&library, None).expect("flatten");
        let mut xs: Vec<i64> = shapes.iter().map(|s| s.rects[0].0).collect();
        xs.sort_unstable();
        assert_eq!(xs, vec![0, 28, 56, 84]);
    }

    #[test]
    fn non_manhattan_transforms_are_rejected() {
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![unit_square(1)],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![GdsElement::Sref {
                    name: "LEAF".into(),
                    strans: GdsStrans {
                        reflect: false,
                        mag: 1.0,
                        angle: 45.0,
                    },
                    origin: (0, 0),
                }],
            },
        ]);
        assert!(matches!(
            flatten(&library, None),
            Err(GdsError::UnsupportedTransform { .. })
        ));
    }

    #[test]
    fn undefined_references_are_reported() {
        let library = library_with(vec![GdsStruct {
            name: "TOP".into(),
            elements: vec![GdsElement::Sref {
                name: "GHOST".into(),
                strans: GdsStrans::default(),
                origin: (0, 0),
            }],
        }]);
        assert_eq!(
            flatten(&library, None),
            Err(GdsError::UndefinedStruct {
                name: "GHOST".into()
            })
        );
    }

    #[test]
    fn recursive_hierarchies_are_reported() {
        let library = library_with(vec![GdsStruct {
            name: "A".into(),
            elements: vec![GdsElement::Sref {
                name: "A".into(),
                strans: GdsStrans::default(),
                origin: (1, 1),
            }],
        }]);
        assert!(matches!(
            flatten(&library, None),
            Err(GdsError::RecursiveStruct { .. })
        ));
    }

    #[test]
    fn over_deep_hierarchies_are_reported() {
        // A linear chain S0 -> S1 -> ... deeper than the limit.
        let mut structs = Vec::new();
        for level in 0..=(MAX_REF_DEPTH + 1) {
            let elements = if level <= MAX_REF_DEPTH {
                vec![GdsElement::Sref {
                    name: format!("S{}", level + 1),
                    strans: GdsStrans::default(),
                    origin: (0, 0),
                }]
            } else {
                vec![unit_square(1)]
            };
            structs.push(GdsStruct {
                name: format!("S{level}"),
                elements,
            });
        }
        let library = library_with(structs);
        assert!(matches!(
            flatten(&library, Some("S0")),
            Err(GdsError::DeepHierarchy { limit, .. }) if limit == MAX_REF_DEPTH
        ));
    }

    #[test]
    fn reflection_flips_about_the_x_axis() {
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![GdsElement::Boundary {
                    layer: 1,
                    datatype: 0,
                    xy: vec![(0, 0), (10, 0), (10, 30), (0, 30), (0, 0)],
                }],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![GdsElement::Sref {
                    name: "LEAF".into(),
                    strans: GdsStrans {
                        reflect: true,
                        mag: 1.0,
                        angle: 0.0,
                    },
                    origin: (0, 0),
                }],
            },
        ]);
        let shapes = flatten(&library, None).expect("flatten");
        assert_eq!(shapes[0].rects, vec![(0, -30, 10, 0)]);
    }

    #[test]
    fn tags_follow_top_level_instances() {
        // TOP owns a square, places LEAF once via SREF and a 2x2 AREF of
        // PAIR (which itself nests LEAF): 1 + 1 + 4 instances of geometry,
        // with nested references inheriting the enclosing instance tag.
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![unit_square(1)],
            },
            GdsStruct {
                name: "PAIR".into(),
                elements: vec![
                    unit_square(1),
                    GdsElement::Sref {
                        name: "LEAF".into(),
                        strans: GdsStrans::default(),
                        origin: (20, 0),
                    },
                ],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![
                    unit_square(1),
                    GdsElement::Sref {
                        name: "LEAF".into(),
                        strans: GdsStrans::default(),
                        origin: (100, 0),
                    },
                    GdsElement::Aref {
                        name: "PAIR".into(),
                        strans: GdsStrans::default(),
                        cols: 2,
                        rows: 2,
                        xy: [(0, 200), (120, 200), (0, 400)],
                    },
                ],
            },
        ]);
        let flat = flatten_tagged(&library, None).expect("flatten");
        // Same shape stream as the untagged entry point.
        assert_eq!(flat.shapes, flatten(&library, None).expect("flatten"));
        assert_eq!(flat.instances.len(), 5);
        assert_eq!(flat.instances[0].cell, "LEAF");
        assert_eq!(flat.instances[0].dx, 100);
        assert_eq!(flat.instances[2].cell, "PAIR");
        // Row-major AREF expansion: (row 0, col 1) is the second PAIR.
        assert_eq!(flat.instances[2].dx, 60);
        assert_eq!(flat.instances[2].dy, 200);
        assert_eq!(
            flat.origins,
            vec![
                None,    // TOP's own square
                Some(0), // SREF LEAF
                Some(1), // PAIR #0 body
                Some(1), // PAIR #0 nested LEAF inherits the tag
                Some(2),
                Some(2),
                Some(3),
                Some(3),
                Some(4),
                Some(4),
            ]
        );
        // Each of the four PAIR placements emits one LEAF square through a
        // nested SREF (depth 2) that inherits the PAIR instance's tag.
        assert_eq!(flat.nested_inherited, 4);
    }

    #[test]
    fn top_level_geometry_never_counts_as_nested_inherited() {
        // Direct SREF children of the top emit at depth 1: their geometry
        // carries its own instance tag and must not be counted as
        // inherited provenance.
        let library = library_with(vec![
            GdsStruct {
                name: "LEAF".into(),
                elements: vec![unit_square(1)],
            },
            GdsStruct {
                name: "TOP".into(),
                elements: vec![
                    unit_square(1),
                    GdsElement::Sref {
                        name: "LEAF".into(),
                        strans: GdsStrans::default(),
                        origin: (40, 0),
                    },
                ],
            },
        ]);
        let flat = flatten_tagged(&library, None).expect("flatten");
        assert_eq!(flat.shapes.len(), 2);
        assert_eq!(flat.nested_inherited, 0);
    }
}
