//! Seeded inputs of the three workloads.  Everything here is a pure
//! function of the workload seed: the programs under test only ever see the
//! generated files and frames.

use mpl_core::ColorAlgorithm;
use mpl_gds::{GdsElement, GdsLibrary, GdsStrans, GdsStruct};
use mpl_geometry::Nm;
use mpl_hier::fixtures::{bit_cell_array, BitArrayStyle};
use mpl_layout::gen::{generate_row_layout, RowLayoutConfig};
use mpl_layout::{io, Layout, Technology};
use mpl_serve::{base64, LayoutSource};

/// SplitMix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5151_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

pub fn tech() -> Technology {
    Technology::nm20()
}

/// Chips per rows-gds run: enough distinct inputs that one chip's quirks
/// do not set the run's figures.
pub const ROW_CHIPS: usize = 4;

/// Distinct standard-cell row chips of roughly 54k decomposition-graph
/// vertices each: the perf-large shape, with seeded cell contents.
pub fn row_chips(seed: u64) -> Vec<Layout> {
    let mut rng = Rng::new(seed);
    (0..ROW_CHIPS)
        .map(|index| {
            let config = RowLayoutConfig {
                name: format!("rows-{seed}-{index}"),
                rows: 24,
                cells_per_row: 400,
                contact_density: 0.7,
                wire_density: 0.6,
                k5_clusters: 40,
                dense_strips: 24,
                strip_length: 8,
                seed: rng.next_u64(),
            };
            generate_row_layout(&config, &tech())
        })
        .collect()
}

/// Contact pitch at which orthogonal and diagonal neighbours conflict
/// under the quadruple-patterning coloring distance (a degree-8 lattice).
const LATTICE_PITCH: Nm = Nm(70);

/// A full `cols × rows` contact lattice.
pub fn lattice(name: &str, cols: usize, rows: usize) -> Layout {
    let tech = tech();
    let mut builder = Layout::builder(name);
    for j in 0..rows {
        for i in 0..cols {
            builder.add_contact(
                LATTICE_PITCH * i as i64,
                LATTICE_PITCH * j as i64,
                tech.min_width(),
            );
        }
    }
    builder.build()
}

/// Side lengths of the lattice-division slots: the 40–64 range of the
/// division-scaling work item, one lattice per slot.
const LATTICE_SIDES: [usize; 4] = [40, 48, 56, 64];

/// One untiled lattice per slot.  The seed picks each lattice's width
/// (within ±2 of the slot side; the height keeps the slot's area), so every
/// seed sees the same sizes to within a few percent.  Lattices carry no
/// holes: a hole reorders the linear engine's choices, and three holes
/// swing a lattice's conflict count anywhere between 0 and 46, where a
/// width change moves it by at most 1.
pub fn lattices(seed: u64) -> Vec<Layout> {
    let mut rng = Rng::new(seed ^ 0x1a77);
    LATTICE_SIDES
        .iter()
        .map(|&side| {
            let cols = rng.range(side - 2, side + 2);
            let rows = (side * side + cols / 2) / cols;
            lattice(&format!("lattice-{seed}-{cols}x{rows}"), cols, rows)
        })
        .collect()
}

/// One distinct request of the serve-mixed pool.
pub struct ServeItem {
    pub source: LayoutSource,
    pub algorithm: ColorAlgorithm,
    pub tile_size: Option<i64>,
    pub hier: bool,
    /// The layout the server should see, for the benchmark's own recount.
    pub layout: Layout,
}

pub const SERVE_ROWS: usize = 24;
pub const SERVE_HIER: usize = 3;
pub const SERVE_TILE: usize = 3;
/// Tile window edge for the tiled lattices: about six contacts per side.
pub const SERVE_TILE_SIZE: i64 = 400;

/// The serve-mixed request pool.
pub fn serve_pool(seed: u64) -> Vec<ServeItem> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let mut pool = Vec::new();
    for index in 0..SERVE_ROWS {
        let config = RowLayoutConfig {
            name: format!("row-{seed}-{index}"),
            rows: 6,
            cells_per_row: 20,
            contact_density: 0.7,
            wire_density: 0.6,
            k5_clusters: 1,
            dense_strips: 1,
            strip_length: 7,
            seed: rng.next_u64(),
        };
        let layout = generate_row_layout(&config, &tech());
        pool.push(ServeItem {
            source: LayoutSource::Text(io::to_text(&layout)),
            algorithm: ColorAlgorithm::SdpBacktrack,
            tile_size: None,
            hier: false,
            layout,
        });
    }
    // Even array sides: an odd × odd merged array leaves 14–18 conflicts
    // where every even one decomposes cleanly, and the quality sums must
    // not swing with the seed.
    for _ in 0..SERVE_HIER {
        let (nx, ny) = (2 * rng.range(3, 5), 2 * rng.range(3, 5));
        let (layout, _) = bit_cell_array(nx, ny, BitArrayStyle::Merged);
        pool.push(ServeItem {
            source: LayoutSource::GdsBase64(base64::encode(&merged_bit_array_gds(nx, ny))),
            algorithm: ColorAlgorithm::Linear,
            tile_size: None,
            hier: true,
            layout,
        });
    }
    // Widths of 22 or 24 contacts tile cleanly under the exact engine at
    // every even height from 18 to 28; holes or widths of 20 and 26 leave
    // 0–20 seam conflicts that jump with the seed.
    for index in 0..SERVE_TILE {
        let cols = 22 + 2 * rng.range(0, 1);
        let rows = 2 * rng.range(9, 14);
        let layout = lattice(&format!("tile-{seed}-{index}-{cols}x{rows}"), cols, rows);
        pool.push(ServeItem {
            source: LayoutSource::Text(io::to_text(&layout)),
            algorithm: ColorAlgorithm::Ilp,
            tile_size: Some(SERVE_TILE_SIZE),
            hier: false,
            layout,
        });
    }
    pool
}

/// Picks a pool entry for the next request: mostly rows, one request in
/// twenty hierarchical and one in twenty tiled.
pub fn pick(rng: &mut Rng) -> usize {
    match rng.range(0, 19) {
        0 => SERVE_ROWS + rng.range(0, SERVE_HIER - 1),
        1 => SERVE_ROWS + SERVE_HIER + rng.range(0, SERVE_TILE - 1),
        _ => rng.range(0, SERVE_ROWS - 1),
    }
}

/// The GDSII stream of `mpl_hier::fixtures::bit_cell_array(nx, ny,
/// Merged)`: one `BIT` cell (a 2×2 contact clique plus a tab reaching the
/// next column) stamped by an `AREF` at a 120 × 100 nm pitch.
fn merged_bit_array_gds(nx: usize, ny: usize) -> Vec<u8> {
    let rect = |x0: i32, y0: i32, x1: i32, y1: i32| GdsElement::Boundary {
        layer: 1,
        datatype: 0,
        xy: vec![(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)],
    };
    let mut library = GdsLibrary::new(format!("sram{nx}x{ny}"));
    library.structs.push(GdsStruct {
        name: "BIT".into(),
        elements: vec![
            rect(0, 0, 20, 20),
            rect(40, 0, 60, 20),
            rect(0, 40, 20, 60),
            rect(40, 40, 60, 60),
            rect(60, 0, 120, 20),
        ],
    });
    library.structs.push(GdsStruct {
        name: "TOP".into(),
        elements: vec![GdsElement::Aref {
            name: "BIT".into(),
            strans: GdsStrans::default(),
            cols: nx as i16,
            rows: ny as i16,
            xy: [(0, 0), (nx as i32 * 120, 0), (0, ny as i32 * 100)],
        }],
    });
    library
        .to_bytes()
        .expect("the bit-cell library has in-range coordinates")
}
