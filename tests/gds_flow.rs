//! End-to-end GDSII flow: generate a synthetic benchmark, write it to GDS,
//! read it back through the layer map, decompose with K = 4, export a
//! colored GDS (one layer per mask) and independently re-verify that every
//! mask layer is spacing-clean — the full path a real layout would take
//! through the system.

use mpl_core::{
    extract_masks, verify_spacing, ColorAlgorithm, Decomposer, DecomposerConfig,
    DecompositionGraph, StitchConfig,
};
use mpl_gds::{LayerMap, ReadOptions};
use mpl_layout::{gen, Layout, Technology};

fn temp_path(name: &str) -> String {
    let mut path = std::env::temp_dir();
    path.push(format!("qpl-gds-flow-{}-{name}", std::process::id()));
    path.to_string_lossy().into_owned()
}

fn synthetic_benchmark(tech: &Technology) -> Layout {
    let config = gen::RowLayoutConfig {
        name: "gdsflow".into(),
        rows: 2,
        cells_per_row: 10,
        contact_density: 0.6,
        wire_density: 0.6,
        // No K5 clusters (they need a fifth mask) and no dense strips (they
        // need stitches, which this test disables so decomposition vertices
        // coincide with shapes): the benchmark must be 4-colorable outright.
        k5_clusters: 0,
        dense_strips: 0,
        strip_length: 5,
        seed: 20140601,
    };
    gen::generate_row_layout(&config, tech)
}

#[test]
fn colored_gds_round_trip_verifies_clean_per_mask() {
    let tech = Technology::nm20();
    let k = 4;
    let layout = synthetic_benchmark(&tech);
    assert!(layout.shape_count() > 20, "benchmark should be non-trivial");

    // Write the benchmark to GDS on layer 17:0 and read it back through the
    // layer map.
    let input_path = temp_path("input.gds");
    mpl_gds::write_layout_file(&input_path, &layout, 17, 0).expect("write input GDS");
    let map = LayerMap::all().with(17, Some(0));
    let read_back =
        mpl_gds::read_layout_file(&input_path, &map, &ReadOptions::default()).expect("read input");
    assert_eq!(read_back.shape_count(), layout.shape_count());
    for (original, parsed) in layout.iter().zip(read_back.iter()) {
        assert_eq!(
            original.polygon().canonical_rects(),
            parsed.polygon().canonical_rects(),
            "round trip must preserve geometry up to rect fragmentation"
        );
    }

    // Decompose the re-read layout for quadruple patterning. Stitches are
    // disabled so that decomposition vertices coincide with shapes and the
    // per-mask layers partition the layout exactly.
    let mut config = DecomposerConfig::quadruple(tech).with_algorithm(ColorAlgorithm::SdpBacktrack);
    config.stitch = StitchConfig::disabled();
    let result = Decomposer::new(config.clone())
        .decompose(&read_back)
        .expect("valid config");
    assert_eq!(
        result.conflicts(),
        0,
        "the synthetic benchmark must decompose cleanly with K = 4"
    );

    // Export the colored GDS: mask k on layer 100 + k.
    let graph = DecompositionGraph::build(&read_back, &tech, k, &config.stitch);
    let masks = extract_masks(&graph, result.colors());
    let mut per_mask = vec![Vec::new(); k];
    for mask in &masks {
        for &vertex in &mask.vertices {
            per_mask[mask.index].push(graph.polygon(vertex).clone());
        }
    }
    let colored_path = temp_path("colored.gds");
    mpl_gds::write_colored_file(&colored_path, read_back.name(), &per_mask, 100)
        .expect("write colored GDS");

    // Independently re-read each mask layer and re-verify the same-mask
    // spacing rule from the geometry alone: a clean decomposition means no
    // two features on one mask are closer than the coloring distance.
    let coloring_distance = tech.coloring_distance(k);
    let mut total_features = 0;
    for mask_index in 0..k {
        let mask_map = LayerMap::all().with(100 + mask_index as i16, None);
        let mask_layout =
            mpl_gds::read_layout_file(&colored_path, &mask_map, &ReadOptions::default())
                .expect("read mask layer");
        total_features += mask_layout.shape_count();
        let mask_graph =
            DecompositionGraph::build(&mask_layout, &tech, k, &StitchConfig::disabled());
        let same_mask_colors = vec![0u8; mask_graph.vertex_count()];
        let violations = verify_spacing(&mask_graph, &same_mask_colors, coloring_distance);
        assert!(
            violations.is_empty(),
            "mask layer {mask_index} has {} spacing violations",
            violations.len()
        );
    }
    assert_eq!(
        total_features,
        read_back.shape_count(),
        "the mask layers must partition the layout"
    );

    std::fs::remove_file(&input_path).ok();
    std::fs::remove_file(&colored_path).ok();
}

#[test]
fn gds_errors_surface_with_byte_offsets() {
    // A file whose second record is truncated reports the exact offset.
    let layout = synthetic_benchmark(&Technology::nm20());
    let path = temp_path("trunc.gds");
    mpl_gds::write_layout_file(&path, &layout, 1, 0).expect("write");
    let mut bytes = std::fs::read(&path).expect("read bytes");
    bytes.truncate(9);
    std::fs::write(&path, &bytes).expect("rewrite");
    let error = mpl_gds::read_layout_file(&path, &LayerMap::all(), &ReadOptions::default())
        .expect_err("truncated file must fail");
    let message = error.to_string();
    assert!(
        message.contains("byte 6"),
        "error should carry the record offset: {message}"
    );
    std::fs::remove_file(&path).ok();
}

/// 262 bytes: one 10 nm square cell placed by one 32767 × 32767 AREF. Its
/// ~2.1·10⁹ placements and shapes used to be reserved up front, which
/// aborted the process under a 2 GB address-space cap.
const AREF_BOMB: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/aref_bomb.gds");

#[test]
fn an_exploding_aref_is_a_typed_error_in_the_cli() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_qpl-decompose"))
        .args(["--gds", AREF_BOMB])
        .output()
        .expect("run qpl-decompose");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(
            "flattening would expand 2147352578 reference placements and shapes, \
             more than the limit of 1048578 (the library's own elements plus 1048576)"
        ),
        "{stderr}"
    );
}
