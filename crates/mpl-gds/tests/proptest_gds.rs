//! Property-based tests for the GDSII subsystem.
//!
//! The central property: `Layout -> GDS bytes -> Layout` preserves geometry
//! up to rectangle fragmentation. The writer fractures every polygon into
//! one `BOUNDARY` per component rectangle and the reader re-merges touching
//! boundaries into connected shapes, so the round trip recovers the same
//! shape partition with possibly different (but canonically equal)
//! rectangle lists.

use mpl_gds::{
    layout_from_library, library_from_layout, library_from_masks, GdsError, GdsLibrary, LayerMap,
    ReadOptions,
};
use mpl_geometry::{Nm, Polygon, Rect};
use mpl_layout::Layout;
use proptest::prelude::*;

fn r(a: i64, b: i64, c: i64, d: i64) -> Rect {
    Rect::new(Nm(a), Nm(b), Nm(c), Nm(d))
}

/// One shape confined to a 200x200 box at a grid cell: a plain rectangle,
/// an L (two touching rects), or a T (three touching rects). Grid pitch is
/// 400 nm, so distinct cells can never touch and the reader's
/// touching-merge must recover exactly the written shape partition.
fn cell_polygon(kind: u8, w: i64, h: i64, base_x: i64, base_y: i64) -> Polygon {
    let w = 20 + (w % 180);
    let h = 20 + (h % 180);
    let rects = match kind % 3 {
        0 => vec![r(base_x, base_y, base_x + w, base_y + h)],
        1 => vec![
            r(base_x, base_y, base_x + 200, base_y + 20),
            r(base_x, base_y, base_x + 20, base_y + h),
        ],
        _ => vec![
            r(base_x, base_y, base_x + 200, base_y + 20),
            r(base_x + 80, base_y, base_x + 100, base_y + h),
            r(base_x, base_y + h, base_x + 200, base_y + h + 20),
        ],
    };
    Polygon::from_rects(rects).expect("non-empty")
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    prop::collection::vec((0i64..8, 0i64..8, 0u8..3, 0i64..180, 0i64..180), 0..24).prop_map(
        |cells| {
            let mut builder = Layout::builder("prop-gds");
            let mut used: Vec<(i64, i64)> = Vec::new();
            for (cx, cy, kind, w, h) in cells {
                if used.contains(&(cx, cy)) {
                    continue;
                }
                used.push((cx, cy));
                builder.add_polygon(cell_polygon(kind, w, h, cx * 400, cy * 400));
            }
            builder.build()
        },
    )
}

/// Geometry comparison that ignores rectangle fragmentation.
fn same_geometry(a: &Layout, b: &Layout) -> bool {
    a.name() == b.name()
        && a.shape_count() == b.shape_count()
        && a.iter()
            .zip(b.iter())
            .all(|(sa, sb)| sa.polygon().canonical_rects() == sb.polygon().canonical_rects())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layout_round_trips_through_gds_bytes(layout in arb_layout()) {
        let library = library_from_layout(&layout, 17, 4).expect("convert");
        let bytes = library.to_bytes().expect("serialise");
        let parsed = GdsLibrary::from_bytes(&bytes).expect("GDS we wrote always parses");
        let round_tripped =
            layout_from_library(&parsed, &LayerMap::all(), &ReadOptions::default())
                .expect("convert back");
        prop_assert!(
            same_geometry(&layout, &round_tripped),
            "round trip changed geometry: {} vs {} shapes",
            layout.shape_count(),
            round_tripped.shape_count()
        );
    }

    #[test]
    fn layer_selection_round_trips(layout in arb_layout()) {
        let library = library_from_layout(&layout, 17, 4).expect("convert");
        // Selecting the written pair keeps everything...
        let selected = layout_from_library(
            &library,
            &LayerMap::all().with(17, Some(4)),
            &ReadOptions::default(),
        )
        .expect("selected convert");
        prop_assert!(same_geometry(&layout, &selected));
        // ...and selecting a different pair keeps nothing (error for
        // non-empty inputs, empty layout for empty inputs).
        let other = layout_from_library(
            &library,
            &LayerMap::all().with(18, None),
            &ReadOptions::default(),
        );
        if layout.is_empty() {
            prop_assert!(other.expect("empty stays empty").is_empty());
        } else {
            prop_assert!(other.is_err());
        }
    }

    #[test]
    fn truncated_streams_error_but_never_panic(layout in arb_layout(), cut in 0usize..2048) {
        let bytes = library_from_layout(&layout, 1, 0)
            .expect("convert")
            .to_bytes()
            .expect("serialise");
        if cut < bytes.len() {
            // Truncation mid-stream must produce a typed error, not a panic
            // (trailing NULs of a cut record can also read as clean EOF for
            // offset-0 cuts of the padded tail, so only assert no panic and
            // structured failure for in-record cuts).
            let result = GdsLibrary::from_bytes(&bytes[..cut]);
            prop_assert!(result.is_err());
        }
    }

    #[test]
    fn corrupted_bytes_never_panic(
        layout in arb_layout(),
        index in 0usize..4096,
        value in 0u8..=255,
    ) {
        let mut bytes = library_from_layout(&layout, 1, 0)
            .expect("convert")
            .to_bytes()
            .expect("serialise");
        if !bytes.is_empty() {
            let index = index % bytes.len();
            bytes[index] = value;
            // Any outcome is acceptable except a panic.
            let _ = GdsLibrary::from_bytes(&bytes);
        }
    }
}

fn temp_path(name: &str) -> String {
    let mut path = std::env::temp_dir();
    path.push(format!("mpl-gds-proptest-{}-{name}", std::process::id()));
    path.to_string_lossy().into_owned()
}

/// One of the two file writers, bound to its layout, taking the path.
type FileWriter<'a> = &'a dyn Fn(&str) -> Result<(), GdsError>;

/// Splits the layout's polygons over `k` masks by `picks`, cycled.
fn masks_of(layout: &Layout, picks: &[u8], k: usize) -> Vec<Vec<Polygon>> {
    let mut masks = vec![Vec::new(); k];
    for (index, shape) in layout.iter().enumerate() {
        let pick = picks.get(index % picks.len().max(1)).copied().unwrap_or(0);
        masks[usize::from(pick) % k].push(shape.polygon().clone());
    }
    masks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn file_writers_match_the_library_serialisation(
        layout in arb_layout(),
        picks in prop::collection::vec(0u8..8, 1..16),
        k in 1usize..6,
        layer in 0i16..200,
        datatype in 0i16..4,
    ) {
        let path = temp_path("writer.gds");
        mpl_gds::write_layout_file(&path, &layout, layer, datatype).expect("in range");
        let expected = library_from_layout(&layout, layer, datatype)
            .and_then(|library| library.to_bytes())
            .expect("in range");
        prop_assert_eq!(std::fs::read(&path).expect("written"), expected);

        let masks = masks_of(&layout, &picks, k);
        mpl_gds::write_colored_file(&path, layout.name(), &masks, layer).expect("in range");
        let expected = library_from_masks(layout.name(), &masks, layer)
            .and_then(|library| library.to_bytes())
            .expect("in range");
        prop_assert_eq!(std::fs::read(&path).expect("written"), expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_coordinates_leave_an_existing_file_untouched(
        layout in arb_layout(),
        far in 2_147_483_648i64..4_000_000_000,
        negative in 0u8..2,
        picks in prop::collection::vec(0u8..4, 1..8),
    ) {
        // One rectangle beyond the 32-bit GDSII coordinate space, placed
        // after every in-range shape.
        let far = if negative == 1 { -far } else { far };
        let mut builder = Layout::builder(layout.name());
        for shape in layout.iter() {
            builder.add_polygon(shape.polygon().clone());
        }
        let (lo, hi) = if far < 0 { (far, far + 20) } else { (far - 20, far) };
        builder.add_rect(r(0, lo, 20, hi));
        let layout = builder.build();
        // The first coordinate out of range, in xlo, ylo, xhi, yhi order.
        let value = if i32::try_from(lo).is_err() { lo } else { hi };
        let expected = Err(GdsError::CoordinateOverflow { value });

        let path = temp_path("overflow.gds");
        std::fs::write(&path, b"previous contents").expect("seed file");
        prop_assert_eq!(mpl_gds::write_layout_file(&path, &layout, 1, 0), expected.clone());
        prop_assert_eq!(std::fs::read(&path).expect("still there"), b"previous contents");
        let masks = masks_of(&layout, &picks, 4);
        prop_assert_eq!(
            mpl_gds::write_colored_file(&path, layout.name(), &masks, 100),
            expected
        );
        prop_assert_eq!(std::fs::read(&path).expect("still there"), b"previous contents");
        std::fs::remove_file(&path).ok();

        let missing = temp_path("overflow-missing.gds");
        prop_assert!(mpl_gds::write_layout_file(&missing, &layout, 1, 0).is_err());
        prop_assert!(!std::path::Path::new(&missing).exists(), "no file may be created");
    }

    #[test]
    fn names_too_long_for_their_record_leave_an_existing_file_untouched(
        layout in arb_layout(),
        length in 65_531usize..66_000,
        far in 2_147_483_648i64..4_000_000_000,
        bad_coordinate in 0u8..2,
        picks in prop::collection::vec(0u8..4, 1..8),
    ) {
        // The name fills more than one LIBNAME record (65,531 payload
        // bytes once NUL-padded to an even length); half the layouts also
        // hold a rectangle beyond the 32-bit GDSII coordinate space, which
        // is reported first.
        let mut builder = Layout::builder("N".repeat(length));
        for shape in layout.iter() {
            builder.add_polygon(shape.polygon().clone());
        }
        let expected = if bad_coordinate == 1 {
            builder.add_rect(r(0, 0, 20, far));
            GdsError::CoordinateOverflow { value: far }
        } else {
            GdsError::RecordTooLong { record: "LIBNAME", bytes: length + length % 2 }
        };
        let layout = builder.build();
        let masks = masks_of(&layout, &picks, 4);
        let writers: [FileWriter<'_>; 2] = [
            &|path| mpl_gds::write_layout_file(path, &layout, 1, 0),
            &|path| mpl_gds::write_colored_file(path, layout.name(), &masks, 100),
        ];
        for write in writers {
            let path = temp_path("long-name.gds");
            std::fs::write(&path, b"previous contents").expect("seed file");
            prop_assert_eq!(write(&path), Err(expected.clone()));
            prop_assert_eq!(std::fs::read(&path).expect("still there"), b"previous contents");
            std::fs::remove_file(&path).ok();

            let missing = temp_path("long-name-missing.gds");
            prop_assert_eq!(write(&missing), Err(expected.clone()));
            prop_assert!(!std::path::Path::new(&missing).exists(), "no file may be created");
        }
    }
}
