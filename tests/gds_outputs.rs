//! Pins the GDSII files this repository reads and writes.
//!
//! For every committed GDS fixture and one generated row layout, the
//! re-read layout (shape count, every rectangle in order, hierarchy tags
//! and `nested_inherited`) and the exact bytes of `write_layout_file` and
//! `write_colored_file` are compared with FNV-1a digests. A change to the
//! reader, the flattener or the writers that alters any file or any
//! re-read rectangle fails here, however the output is produced.

use mpl_core::{extract_masks, DecompositionGraph, StitchConfig};
use mpl_gds::{LayerMap, ReadOptions};
use mpl_geometry::{Nm, Polygon, Rect};
use mpl_layout::{gen, Layout, LayoutHierarchy, Technology};

fn temp_path(name: &str) -> String {
    let mut path = std::env::temp_dir();
    path.push(format!("qpl-gds-outputs-{}-{name}", std::process::id()));
    path.to_string_lossy().into_owned()
}

/// 64-bit FNV-1a: a digest that is stable across platforms and toolchains.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bytes a re-read layout is digested from: the shape count, then
/// every shape's rectangle count and rectangles in order, then each
/// shape's instance tag, the instances and `nested_inherited`.
fn layout_bytes(layout: &Layout, hierarchy: &LayoutHierarchy) -> Vec<u8> {
    let mut out = Vec::new();
    let mut word = |value: i64| out.extend_from_slice(&value.to_le_bytes());
    word(layout.shape_count() as i64);
    for shape in layout.iter() {
        word(shape.polygon().rect_count() as i64);
        for rect in shape.polygon().rects() {
            for value in [rect.xlo(), rect.ylo(), rect.xhi(), rect.yhi()] {
                word(value.value());
            }
        }
    }
    for origin in hierarchy.shape_origins() {
        word(origin.map_or(-1, |index| index as i64));
    }
    for instance in hierarchy.instances() {
        word(instance.cell.len() as i64);
        for byte in instance.cell.bytes() {
            word(i64::from(byte));
        }
        word(instance.dx);
        word(instance.dy);
    }
    word(hierarchy.nested_inherited() as i64);
    out
}

/// What one input's files must reproduce.
struct Pins {
    shapes: usize,
    layout: u64,
    written: (usize, u64),
    colored: (usize, u64),
}

fn check(name: &str, path: &str, pins: &Pins) {
    let bytes = std::fs::read(path).expect("input reads");
    let (layout, hierarchy) =
        mpl_gds::layout_from_bytes(path, &bytes, &LayerMap::all(), &ReadOptions::default())
            .expect("input loads");
    let hierarchy = hierarchy.expect("GDSII inputs carry a hierarchy");
    let flat = mpl_gds::load_layout_file(path, &LayerMap::all(), &ReadOptions::default())
        .expect("input loads");
    assert_eq!(flat, layout, "{name}: both loaders return one layout");

    let written_path = temp_path(&format!("{name}-written.gds"));
    mpl_gds::write_layout_file(&written_path, &layout, 1, 0).expect("layout writes");
    let written = std::fs::read(&written_path).expect("written file");
    std::fs::remove_file(&written_path).ok();

    // A fixed coloring (vertex index mod K): the export must not depend on
    // which engine chose the masks.
    let tech = Technology::nm20();
    let graph = DecompositionGraph::build(&layout, &tech, 4, &StitchConfig::default());
    let colors: Vec<u8> = (0..graph.vertex_count()).map(|v| (v % 4) as u8).collect();
    let mut per_mask: Vec<Vec<Polygon>> = vec![Vec::new(); 4];
    for mask in extract_masks(&graph, &colors) {
        for &vertex in &mask.vertices {
            per_mask[mask.index].push(graph.polygon(vertex).clone());
        }
    }
    let colored_path = temp_path(&format!("{name}-colored.gds"));
    mpl_gds::write_colored_file(&colored_path, layout.name(), &per_mask, 100)
        .expect("colored export writes");
    let colored = std::fs::read(&colored_path).expect("colored file");
    std::fs::remove_file(&colored_path).ok();

    let found = (
        layout.shape_count(),
        digest(&layout_bytes(&layout, &hierarchy)),
        (written.len(), digest(&written)),
        (colored.len(), digest(&colored)),
    );
    assert_eq!(
        found,
        (pins.shapes, pins.layout, pins.written, pins.colored),
        "{name}: re-read layout or written bytes changed"
    );
}

#[test]
fn committed_gds_fixtures_read_and_write_the_pinned_bytes() {
    let fixtures = [(
        "hier_array",
        Pins {
            shapes: 39,
            layout: 3480451467579243642,
            written: (3946, 9669689807496073656),
            colored: (3946, 7315334795480094484),
        },
    )];
    for (name, pins) in &fixtures {
        let path = format!("{}/tests/fixtures/{name}.gds", env!("CARGO_MANIFEST_DIR"));
        check(name, &path, pins);
    }
}

#[test]
fn a_generated_row_layout_reads_and_writes_the_pinned_bytes() {
    let tech = Technology::nm20();
    let rows = gen::generate_row_layout(&gen::RowLayoutConfig::small("gds-pins", 7), &tech);
    // Plus an L and a T far from the rows: the writer fractures them into
    // one boundary per rectangle and the reader merges them back.
    let mut builder = Layout::builder(rows.name());
    for shape in rows.iter() {
        builder.add_polygon(shape.polygon().clone());
    }
    let r = |a: i64, b: i64, c: i64, d: i64| Rect::new(Nm(a), Nm(b), Nm(c), Nm(d));
    for polygon in [
        vec![r(-5000, 0, -4800, 20), r(-5000, 0, -4980, 200)],
        vec![
            r(-4000, 0, -3800, 20),
            r(-3920, 0, -3900, 160),
            r(-4000, 160, -3800, 180),
        ],
    ] {
        builder.add_polygon(Polygon::from_rects(polygon).expect("non-empty"));
    }
    let layout = builder.build();
    let path = temp_path("rows-input.gds");
    mpl_gds::write_layout_file(&path, &layout, 1, 0).expect("input writes");
    let input = std::fs::read(&path).expect("input file");
    assert_eq!(
        (input.len(), digest(&input)),
        (16498, 14880186468560971763),
        "input bytes changed"
    );
    check(
        "rows",
        &path,
        &Pins {
            shapes: 253,
            layout: 9897096450309721876,
            written: (16498, 14880186468560971763),
            colored: (17074, 16920690329500558968),
        },
    );
    std::fs::remove_file(&path).ok();
}
