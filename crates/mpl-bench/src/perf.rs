//! Hot-path performance suite: per-stage timings plus hardware-independent
//! work counters on deterministic generated workloads.
//!
//! The suite behind the `perfbench` binary.  Two kinds of cases:
//!
//! * **Layout cases** — full `plan` + `execute` runs on generated layouts
//!   (a large standard-cell-row benchmark and untiled dense contact
//!   lattices of sides 32 to 96), reporting graph-build and color wall
//!   seconds alongside the work counters accumulated by the engines
//!   (branch-and-bound nodes, division augmenting paths and max-flow arc
//!   scans, scratch allocation events).
//! * **Branch-and-bound cases** — standalone [`mpl_ilp`] instances (dense
//!   cliques, overlapping cliques, dense random graphs) whose explored
//!   node counts measure the pruning strength of the exact search
//!   independently of any layout.
//! * **GDS cases** — the large row benchmark written with
//!   `mpl_gds::write_layout_file`, read back with `load_layout_file` and
//!   exported with `write_colored_file` under a fixed coloring, reporting
//!   each step's best-of-3 wall seconds with the file sizes and the
//!   re-read shape and rectangle counts, which the check pins.
//! * **Memo cases** — an AREF-style repeated-cluster layout (one distinct
//!   signature) and the large row benchmark (mostly distinct signatures),
//!   each decomposed three times with the backtracking SDP engine: without
//!   a memo cache, with a cold cache, and again with the now-warm cache
//!   shared across sessions.  Reports the plan+color wall seconds of each
//!   run plus the deterministic hit/miss counters and the number of
//!   vertices whose warm coloring differs from the cold one (always zero).
//! * **Kernel cases** — a two-K7-plus-fringe fixture whose conflict graph
//!   is a hard exact core with a peelable low-degree chain attached,
//!   decomposed through the iterated-simplification pipeline (hide + cut
//!   to a fixed point, color the kernel exactly, reinsert greedily).
//!   Reports the hidden/kernel vertex counts, simplification rounds,
//!   branch-and-bound nodes on the kernel, and a spacing re-verification
//!   that classifies violations touching reinserted vertices.
//! * **Tile cases** — a full-chip contact lattice (one chip-spanning
//!   component) sharded into halo-expanded windows through [`mpl_tile`]
//!   and solved exactly per window, reporting the reconciliation counters
//!   (cross-window conflicts before/after, permuted tiles, recolored
//!   vertices), a spacing re-verification of the merged coloring, and a
//!   one-window control that must match the untiled coloring bit for bit.
//! * **Hier cases** — an SRAM-like cell array whose instance geometry
//!   *merges* across cell boundaries (one giant conflict component with a
//!   single, never-repeated flat signature — the flat memo cache cannot
//!   help), decomposed through [`mpl_hier`]'s provenance splitting,
//!   reporting the reconciliation counters, a spacing re-verification of
//!   the merged coloring, and an all-isolated control array that must
//!   match the flat memoized coloring bit for bit.
//!
//! Wall-clock numbers depend on the host, and any pool-speedup figure must
//! be reported together with the host's `available_parallelism`; the
//! counters are deterministic, which is why [`PerfReport::check_ceilings`]
//! pins ceilings on counters only — for the lattices, arc scans per size
//! and their near-linear growth; for the memo cases, the cold hit/miss
//! counts, a warm run served entirely from the cache (so a warm hit rate
//! of at least 90 %) and zero coloring diffs.

use mpl_core::{
    extract_masks, verify_spacing, ColorAlgorithm, ComponentProblem, Decomposer, DecomposerConfig,
    DecompositionGraph, DecompositionResult, DecompositionSession, Json, MemoCache, SerialExecutor,
    StitchConfig, TileConfig,
};
use mpl_gds::{LayerMap, ReadOptions};
use mpl_geometry::{Nm, Polygon};
use mpl_hier::fixtures::{bit_cell_array, BitArrayStyle};
use mpl_hier::{run_hier, HierLayoutResult};
use mpl_ilp::{solve_exact, ExactOptions};
use mpl_layout::{gen, Layout, LayoutHierarchy, Technology};
use mpl_tile::{run_tiled, TiledLayoutResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for [`run_perf_suite`].
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Free-form label recorded in the report (e.g. `baseline`, `pr5`).
    pub label: String,
    /// Whether the caller intends to run [`PerfReport::check_ceilings`].
    pub check: bool,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            label: "current".to_string(),
            check: false,
        }
    }
}

/// One full plan + color measurement on a generated layout.
#[derive(Debug, Clone)]
pub struct LayoutPerfCase {
    /// Case name (stable across runs; used by the trajectory record).
    pub name: String,
    /// Engine used for color assignment.
    pub algorithm: String,
    /// Mask count K.
    pub k: usize,
    /// Input shapes.
    pub shapes: usize,
    /// Decomposition-graph vertices.
    pub vertices: usize,
    /// Conflict edges.
    pub conflict_edges: usize,
    /// Independent components (scheduled tasks).
    pub components: usize,
    /// Unresolved conflicts.
    pub conflicts: usize,
    /// Inserted stitches.
    pub stitches: usize,
    /// Seconds building the decomposition graph and the plan.
    pub plan_seconds: f64,
    /// Seconds dividing and coloring every component.
    pub color_seconds: f64,
    /// Seconds of `color_seconds` spent inside graph division, when the
    /// engines report it.
    pub division_seconds: Option<f64>,
    /// Branch-and-bound nodes expanded by the exact engine across all
    /// components, when reported.
    pub bnb_nodes: Option<u64>,
    /// Max-flow augmenting paths pushed during (K−1)-cut division, when
    /// reported.
    pub augmenting_paths: Option<u64>,
    /// The `n · K` ceiling the augmenting-path count must stay under
    /// (summed per component), when reported.
    pub augmenting_path_bound: Option<u64>,
    /// Max-flow arcs examined during (K−1)-cut division, when reported.
    pub arc_scans: Option<u64>,
    /// Scratch-buffer allocation (growth) events across all components,
    /// when reported.
    pub scratch_allocs: Option<u64>,
    /// Whether any component's exact solve was truncated by its time limit.
    pub hit_time_limit: Option<bool>,
}

/// One memoization measurement: the same repeated-cluster layout planned
/// and colored three times — memo off, cold cache, warm cache.
#[derive(Debug, Clone)]
pub struct MemoPerfCase {
    /// Case name (stable across runs).
    pub name: String,
    /// Engine used for color assignment.
    pub algorithm: String,
    /// Mask count K.
    pub k: usize,
    /// Input shapes.
    pub shapes: usize,
    /// Decomposition-graph vertices.
    pub vertices: usize,
    /// Independent components (scheduled tasks).
    pub components: usize,
    /// Plan + color wall seconds without a cache.
    pub no_memo_seconds: f64,
    /// Plan + color wall seconds with a fresh cache.
    pub cold_seconds: f64,
    /// Plan + color wall seconds re-running against the warmed cache.
    pub warm_seconds: f64,
    /// Cold-run components stamped from the cache (in-batch duplicates).
    pub cold_hits: usize,
    /// Cold-run components colored by the engine.
    pub cold_misses: usize,
    /// Warm-run components stamped from the cache.
    pub warm_hits: usize,
    /// Warm-run components colored by the engine.
    pub warm_misses: usize,
    /// Entries resident in the shared cache after both memoized runs.
    pub cache_entries: usize,
    /// Evictions across both memoized runs.
    pub cache_evictions: u64,
    /// Vertices whose warm coloring differs from the cold coloring — the
    /// bit-identity guarantee pins this to zero.
    pub coloring_diffs: usize,
}

impl MemoPerfCase {
    /// Plan+color speedup of the warm run over the uncached run.
    pub fn warm_speedup(&self) -> f64 {
        self.no_memo_seconds / self.warm_seconds.max(1e-12)
    }

    /// Fraction of warm-run components served from the cache.
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }
}

/// One GDSII round trip of a generated layout through the library's file
/// functions: `write_layout_file`, `load_layout_file`, then the colored
/// export of its decomposition graph under a fixed coloring.
#[derive(Debug, Clone)]
pub struct GdsPerfCase {
    /// Case name (stable across runs).
    pub name: String,
    /// Input shapes.
    pub shapes: usize,
    /// Input rectangles, one `BOUNDARY` each in the written file.
    pub rects: usize,
    /// Bytes of the written layout file.
    pub layout_bytes: usize,
    /// Shapes read back from that file.
    pub read_shapes: usize,
    /// Rectangles read back from that file.
    pub read_rects: usize,
    /// Decomposition-graph vertices exported, one `BOUNDARY` each.
    pub vertices: usize,
    /// Bytes of the colored file.
    pub colored_bytes: usize,
    /// Best-of-3 wall seconds writing the layout file.
    pub write_seconds: f64,
    /// Best-of-3 wall seconds reading it back.
    pub read_seconds: f64,
    /// Best-of-3 wall seconds gathering the masks and writing the colored
    /// file, as `qpl-decompose --output-gds` does.
    pub export_seconds: f64,
}

/// One standalone branch-and-bound instance measurement.
#[derive(Debug, Clone)]
pub struct BnbPerfCase {
    /// Case name.
    pub name: String,
    /// Vertices of the instance.
    pub vertices: usize,
    /// Conflict edges of the instance.
    pub conflict_edges: usize,
    /// Colors K.
    pub k: usize,
    /// Optimal cost found.
    pub cost: f64,
    /// Whether the search proved optimality.
    pub proven_optimal: bool,
    /// Nodes expanded.
    pub nodes: u64,
    /// Wall seconds for the solve.
    pub seconds: f64,
}

/// One kernelization measurement: a layout whose conflict graph is a hard
/// exact-engine core (two overlapping K7s sharing two contacts) with a
/// peelable low-degree fringe chained onto it, decomposed through the
/// iterated-simplification pipeline (hide + cut to a fixed point, color
/// the kernel exactly, reinsert greedily).
#[derive(Debug, Clone)]
pub struct KernelPerfCase {
    /// Case name (stable across runs).
    pub name: String,
    /// Engine used on the kernel.
    pub algorithm: String,
    /// Mask count K.
    pub k: usize,
    /// Input shapes.
    pub shapes: usize,
    /// Decomposition-graph vertices.
    pub vertices: usize,
    /// Vertices hidden by iterated simplification (the fringe).
    pub hidden_vertices: usize,
    /// Vertices of the surviving kernel handed to the engine.
    pub kernel_vertices: usize,
    /// Hide/cut rounds until the simplification fixed point.
    pub simplify_rounds: usize,
    /// Branch-and-bound nodes the exact engine expanded on the kernel.
    pub bnb_nodes: u64,
    /// Unresolved conflicts of the final coloring (the kernel's optimum —
    /// two K7s cannot be 4-colored cleanly).
    pub conflicts: usize,
    /// Inserted stitches of the final coloring.
    pub stitches: usize,
    /// Spacing violations of the final coloring under the independent
    /// geometric checker (must equal `conflicts`).
    pub spacing_violations: usize,
    /// Spacing violations with at least one endpoint in the reinserted
    /// fringe — greedy reinsertion always has a free color, so this must
    /// be zero.
    pub reinsertion_conflicts: usize,
    /// Whether the kernel's exact solve ran to proven optimality.
    pub proven_optimal: bool,
    /// Wall seconds for the plan + simplify + color run.
    pub seconds: f64,
}

/// One full-chip tiled decomposition measurement: a chip-spanning
/// component sharded into halo-expanded tile windows through `mpl-tile`,
/// with an all-fits-one-window control run.
#[derive(Debug, Clone)]
pub struct TilePerfCase {
    /// Case name (stable across runs).
    pub name: String,
    /// Engine used for color assignment (per tile sub-problem).
    pub algorithm: String,
    /// Mask count K.
    pub k: usize,
    /// Input shapes.
    pub shapes: usize,
    /// Decomposition-graph vertices.
    pub vertices: usize,
    /// Tile window edge length in nm.
    pub tile_size: i64,
    /// Tile grid columns.
    pub grid_x: usize,
    /// Tile grid rows.
    pub grid_y: usize,
    /// Non-empty tile sub-problems decomposed.
    pub tiles: usize,
    /// Components sharded across windows.
    pub tiled_components: usize,
    /// Halo-shared vertices decomposed by more than one tile.
    pub shared_vertices: usize,
    /// Tiles whose coloring was permuted during reconciliation.
    pub permuted_tiles: usize,
    /// Boundary vertices recolored by the fallback pass.
    pub recolored_vertices: usize,
    /// Cross-window conflicts before reconciliation.
    pub cross_conflicts_before: usize,
    /// Cross-window conflicts after reconciliation.
    pub cross_conflicts_after: usize,
    /// Unresolved conflicts of the merged coloring (full-graph count).
    pub conflicts: usize,
    /// Inserted stitches of the merged coloring.
    pub stitches: usize,
    /// Wall seconds for the tiled plan + decompose + reconcile run.
    pub tiled_seconds: f64,
    /// Wall seconds for the untiled run of the same layout and engine —
    /// skipped (`None`) under `--check`, where only the deterministic
    /// counters matter and the untiled exact solve dominates the suite.
    pub untiled_seconds: Option<f64>,
    /// Spacing violations of the merged coloring under the same geometric
    /// checker as untiled runs (must equal `conflicts`).
    pub spacing_violations: usize,
    /// Whether the control layout (which fits one window) colored
    /// bit-identically tiled and untiled.
    pub control_bit_identical: bool,
}

impl TilePerfCase {
    /// Tiled-over-untiled wall-clock speedup, when the untiled run was
    /// taken.
    pub fn tiled_speedup(&self) -> Option<f64> {
        self.untiled_seconds
            .map(|untiled| untiled / self.tiled_seconds.max(1e-12))
    }
}

/// One cell-level hierarchical decomposition measurement: an SRAM-like
/// merged cell array split by instance provenance through `mpl-hier`, with
/// an all-isolated control array.
#[derive(Debug, Clone)]
pub struct HierPerfCase {
    /// Case name (stable across runs).
    pub name: String,
    /// Engine used for color assignment (per cell piece).
    pub algorithm: String,
    /// Mask count K.
    pub k: usize,
    /// Input shapes (after cross-instance merging).
    pub shapes: usize,
    /// Decomposition-graph vertices.
    pub vertices: usize,
    /// Cell instances recorded by the hierarchy.
    pub instances: usize,
    /// Distinct cell masters.
    pub cells: usize,
    /// Components left on the ordinary flat path (single provenance).
    pub resident_components: usize,
    /// Components split by instance provenance.
    pub split_components: usize,
    /// Per-instance pieces carved out of the split components.
    pub instance_pieces: usize,
    /// Vertices of the split components owned by no single instance.
    pub boundary_vertices: usize,
    /// Pieces whose coloring was permuted during reconciliation.
    pub permuted_pieces: usize,
    /// Boundary vertices recolored by the fallback pass.
    pub recolored_vertices: usize,
    /// Cross-instance conflicts before reconciliation.
    pub cross_conflicts_before: usize,
    /// Cross-instance conflicts after reconciliation.
    pub cross_conflicts_after: usize,
    /// Unresolved conflicts of the merged coloring (full-graph count).
    pub conflicts: usize,
    /// Inserted stitches of the merged coloring.
    pub stitches: usize,
    /// Wall seconds for the hierarchical plan + decompose + reconcile run.
    pub hier_seconds: f64,
    /// Wall seconds for the flatten-then-decompose run of the same layout
    /// and engine — skipped (`None`) under `--check`, where only the
    /// deterministic counters matter and the flat giant-component solve
    /// dominates the suite.
    pub flat_seconds: Option<f64>,
    /// Spacing violations of the merged coloring under the same geometric
    /// checker as flat runs (must equal `conflicts`).
    pub spacing_violations: usize,
    /// Whether the all-isolated control array colored bit-identically
    /// hierarchically and through the flat memoized path.
    pub control_bit_identical: bool,
}

impl HierPerfCase {
    /// Hierarchical-over-flat wall-clock speedup, when the flat run was
    /// taken.
    pub fn hier_speedup(&self) -> Option<f64> {
        self.flat_seconds
            .map(|flat| flat / self.hier_seconds.max(1e-12))
    }
}

/// The full perf report (schema `mpl-bench/perf-v7`).
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The label the run was taken under.
    pub label: String,
    /// Layout cases, in suite order.
    pub layouts: Vec<LayoutPerfCase>,
    /// GDSII round-trip cases, in suite order.
    pub gds: Vec<GdsPerfCase>,
    /// Memoization cases, in suite order.
    pub memo: Vec<MemoPerfCase>,
    /// Kernelization cases, in suite order.
    pub kernel: Vec<KernelPerfCase>,
    /// Full-chip tiled cases, in suite order.
    pub tile: Vec<TilePerfCase>,
    /// Cell-level hierarchical cases, in suite order.
    pub hier: Vec<HierPerfCase>,
    /// Branch-and-bound cases, in suite order.
    pub bnb: Vec<BnbPerfCase>,
}

/// xorshift64* — deterministic instance generation without a RNG crate.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Adds every edge of a clique over `vertices` to `instance`.
fn add_clique(instance: &mut ComponentProblem, vertices: &[usize]) {
    for (position, &u) in vertices.iter().enumerate() {
        for &v in &vertices[position + 1..] {
            if u != v {
                instance.add_conflict(u.min(v), u.max(v));
            }
        }
    }
}

/// The standalone branch-and-bound instances: dense cliques (the native
/// conflict structures of quadruple patterning), two overlapping cliques,
/// and dense pseudo-random graphs.
fn bnb_instances() -> Vec<(String, ComponentProblem)> {
    let mut cases = Vec::new();
    for n in [9usize, 10, 11] {
        let mut instance = ComponentProblem::new(n, 4, 0.1);
        let vertices: Vec<usize> = (0..n).collect();
        add_clique(&mut instance, &vertices);
        cases.push((format!("clique-{n}"), instance));
    }
    // Two K7s sharing two vertices: clique bounds must compose.
    let mut shared = ComponentProblem::new(12, 4, 0.1);
    add_clique(&mut shared, &(0..7).collect::<Vec<_>>());
    add_clique(&mut shared, &(5..12).collect::<Vec<_>>());
    cases.push(("two-k7-share2".to_string(), shared));
    // Dense pseudo-random graphs (seeded xorshift, stable forever).
    for (n, per_mille, seed) in [
        (16usize, 550u64, 0x9E3779B97F4A7C15u64),
        (18, 500, 0xD1B54A32D192ED03),
    ] {
        let mut state = seed;
        let mut instance = ComponentProblem::new(n, 4, 0.1);
        for u in 0..n {
            for v in (u + 1)..n {
                if xorshift(&mut state) % 1000 < per_mille {
                    instance.add_conflict(u, v);
                }
            }
        }
        cases.push((format!("random-{n}-p{per_mille}"), instance));
    }
    cases
}

/// The large standard-cell-row benchmark: about 54k vertices in 911
/// components, most of them distinct.
fn perf_large_layout() -> Layout {
    gen::generate_row_layout(
        &gen::RowLayoutConfig {
            name: "perf-large".to_string(),
            rows: 24,
            cells_per_row: 400,
            contact_density: 0.7,
            wire_density: 0.6,
            k5_clusters: 40,
            dense_strips: 24,
            strip_length: 8,
            seed: 42,
        },
        &Technology::nm20(),
    )
}

/// The generated layouts of the suite, with the engines to run on each.
fn layout_cases() -> Vec<(Layout, Vec<ColorAlgorithm>, Duration)> {
    let tech = Technology::nm20();
    let mut cases = vec![(
        perf_large_layout(),
        vec![ColorAlgorithm::Linear, ColorAlgorithm::Ilp],
        Duration::from_secs(2),
    )];
    // Untiled contact grids at 70 nm pitch: orthogonal *and* diagonal
    // neighbours conflict (degree-8 lattice), so a large kernel survives
    // peeling and the (K−1)-cut division does real max-flow work on one big
    // component.  The four sides chart how that work scales.
    for (side, _) in LATTICES {
        cases.push((
            gen::contact_array(&tech, side, side, Nm(70)),
            vec![ColorAlgorithm::Linear],
            Duration::from_secs(2),
        ));
    }
    cases
}

/// The untiled contact-lattice layout cases, smallest first: contacts per
/// side, and the pinned division arc-scan ceiling — about 2× the measured
/// 595k, 1.39M, 2.51M and 5.74M scans.
const LATTICES: [(usize, u64); 4] = [
    (32, 1_200_000),
    (48, 2_800_000),
    (64, 5_000_000),
    (96, 11_500_000),
];

/// The memo cases' pinned cold-run counters, `(name, cold_hits,
/// cold_misses)`: a cold run colors the first component of each distinct
/// signature and stamps every in-batch duplicate from it, so these count
/// the layout's distinct and repeated components.
const MEMO_COLD_COUNTERS: [(&str, usize, usize); 2] =
    [("aref-strip-16x16", 255, 1), ("perf-large", 191, 720)];

/// The GDS cases' pinned sizes, `(name, layout_bytes, read_shapes,
/// read_rects, colored_bytes)`: a writer, reader or export change that
/// alters a file shows here.
const GDS_PINS: [(&str, usize, usize, usize, usize); 1] =
    [("perf-large", 3_372_278, 52_690, 52_690, 3_478_710)];

/// The layout name of the untiled contact lattice with `side` contacts a
/// side.
fn lattice_name(side: usize) -> String {
    format!("contact-array-{side}x{side}")
}

/// The pinned arc-scan ceiling of a lattice layout case.
fn lattice_arc_scan_ceiling(name: &str) -> Option<u64> {
    LATTICES
        .iter()
        .find(|&&(side, _)| name == lattice_name(side))
        .map(|&(_, ceiling)| ceiling)
}

/// The GDS cases: `perf-large` written, read back and exported colored.
fn run_gds_cases() -> Result<Vec<GdsPerfCase>, String> {
    [perf_large_layout()].iter().map(run_gds_case).collect()
}

fn run_gds_case(layout: &Layout) -> Result<GdsPerfCase, String> {
    const REPEATS: usize = 3;
    let file = |step: &str| {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "perfbench-{}-{}-{step}.gds",
            std::process::id(),
            layout.name()
        ));
        path.to_string_lossy().into_owned()
    };
    let (input, output) = (file("layout"), file("colored"));
    let size = |path: &str| {
        std::fs::metadata(path)
            .map(|meta| meta.len() as usize)
            .map_err(|error| format!("{path}: {error}"))
    };
    let best = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);

    let mut write_times = Vec::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        mpl_gds::write_layout_file(&input, layout, 1, 0).map_err(|error| error.to_string())?;
        write_times.push(start.elapsed().as_secs_f64());
    }
    let mut read_times = Vec::new();
    let mut read = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let layout = mpl_gds::load_layout_file(&input, &LayerMap::all(), &ReadOptions::default())
            .map_err(|error| error.to_string())?;
        read_times.push(start.elapsed().as_secs_f64());
        read = Some(layout);
    }
    let read = read.expect("at least one read");

    let k = 4;
    let graph = DecompositionGraph::build(&read, &Technology::nm20(), k, &StitchConfig::default());
    let colors: Vec<u8> = (0..graph.vertex_count()).map(|v| (v % k) as u8).collect();
    let mut export_times = Vec::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        let mut per_mask: Vec<Vec<&Polygon>> = vec![Vec::new(); k];
        for mask in extract_masks(&graph, &colors) {
            for &vertex in &mask.vertices {
                per_mask[mask.index].push(graph.polygon(vertex));
            }
        }
        mpl_gds::write_colored_file(&output, read.name(), &per_mask, 100)
            .map_err(|error| error.to_string())?;
        export_times.push(start.elapsed().as_secs_f64());
    }
    let case = GdsPerfCase {
        name: layout.name().to_string(),
        shapes: layout.shape_count(),
        rects: layout
            .iter()
            .map(|shape| shape.polygon().rect_count())
            .sum(),
        layout_bytes: size(&input)?,
        read_shapes: read.shape_count(),
        read_rects: read.iter().map(|shape| shape.polygon().rect_count()).sum(),
        vertices: graph.vertex_count(),
        colored_bytes: size(&output)?,
        write_seconds: best(&write_times),
        read_seconds: best(&read_times),
        export_seconds: best(&export_times),
    };
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
    eprintln!(
        "  gds {:<14} shapes={:<6} bytes={:<9} write={:.4}s read={:.4}s export={:.4}s",
        case.name,
        case.shapes,
        case.layout_bytes,
        case.write_seconds,
        case.read_seconds,
        case.export_seconds,
    );
    Ok(case)
}

/// Plans and colors `layout` in one session, optionally memoized, and
/// returns the plan+color wall seconds with the result.
fn timed_session_run(
    layout: &Layout,
    algorithm: ColorAlgorithm,
    memo: Option<Arc<MemoCache>>,
) -> Result<(f64, DecompositionResult), String> {
    let config = DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm);
    let decomposer = Decomposer::new(config);
    let mut session = DecompositionSession::new();
    if let Some(cache) = memo {
        session = session.with_memo(cache);
    }
    let start = Instant::now();
    session
        .submit_layout(&decomposer, layout)
        .map_err(|error| format!("{}: {error}", layout.name()))?;
    let results = session.run(&SerialExecutor);
    let seconds = start.elapsed().as_secs_f64();
    let (_, result) = results.into_iter().next().expect("one layout submitted");
    Ok((seconds, result))
}

/// The memoization cases, run with the backtracking SDP engine (the
/// expensive path memoization should save):
///
/// * `aref-strip-16x16` — a deep-AREF repeated-cluster layout where every
///   cluster is a translated copy of the same dense strip (one distinct
///   signature), so it measures what a warm cache saves;
/// * `perf-large` — the row benchmark, whose components are mostly
///   distinct, so its cold run measures what canonicalizing, hashing and
///   storing each signature costs.
fn run_memo_cases() -> Result<Vec<MemoPerfCase>, String> {
    // 16×16 = 256 identical clusters of 15 vertices each, stepped 200 nm
    // apart — far beyond nm20's 100 nm friendly distance, so each cluster
    // is one independent component.
    let strips = gen::repeated_strip_array(&Technology::nm20(), 16, 16, 8, Nm(200));
    [strips, perf_large_layout()]
        .iter()
        .map(|layout| run_memo_case(layout, ColorAlgorithm::SdpBacktrack))
        .collect()
}

/// Decomposes `layout` without a cache, with a cold cache, and again in a
/// new session against the now-warm cache.
fn run_memo_case(layout: &Layout, algorithm: ColorAlgorithm) -> Result<MemoPerfCase, String> {
    let (no_memo_seconds, _) = timed_session_run(layout, algorithm, None)?;
    let cache = Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY));
    let (cold_seconds, cold) = timed_session_run(layout, algorithm, Some(Arc::clone(&cache)))?;
    // A new session against the same cache: everything the cold run
    // learned is stamped back, nothing is re-colored.
    let (warm_seconds, warm) = timed_session_run(layout, algorithm, Some(Arc::clone(&cache)))?;
    let coloring_diffs = cold
        .colors()
        .iter()
        .zip(warm.colors())
        .filter(|(a, b)| a != b)
        .count();
    let stats = cache.stats();
    let case = MemoPerfCase {
        name: layout.name().to_string(),
        algorithm: warm.algorithm().to_string(),
        k: warm.k(),
        shapes: layout.shape_count(),
        vertices: warm.vertex_count(),
        components: warm.component_count(),
        no_memo_seconds,
        cold_seconds,
        warm_seconds,
        cold_hits: cold.memo_hits().unwrap_or(0),
        cold_misses: cold.memo_misses().unwrap_or(0),
        warm_hits: warm.memo_hits().unwrap_or(0),
        warm_misses: warm.memo_misses().unwrap_or(0),
        cache_entries: stats.entries,
        cache_evictions: stats.evictions,
        coloring_diffs,
    };
    eprintln!(
        "  memo {:<16} {:<14} comps={:<4} no-memo={:.3}s cold={:.3}s warm={:.3}s ({:.1}x, {:.0}% warm hits, {} diffs)",
        case.name,
        case.algorithm,
        case.components,
        case.no_memo_seconds,
        case.cold_seconds,
        case.warm_seconds,
        case.warm_speedup(),
        case.warm_hit_rate() * 100.0,
        case.coloring_diffs,
    );
    Ok(case)
}

/// The kernelization fixture: two K7 cliques (contact columns A and B,
/// each completed by the shared pair S) with an eight-contact low-degree
/// fringe chained onto cluster B.  Every fringe contact has conflict
/// degree < K, so iterated simplification hides the whole chain and hands
/// the exact engine only the 12-vertex two-K7 core — the geometric twin of
/// the standalone `two-k7-share2` branch-and-bound case, except the shared
/// edge is simple (geometry cannot produce parallel edges), so the optimum
/// is 5 conflicts (3 + 3 − 1 for the doubly-counted shared pair).
fn kernel_fixture() -> Layout {
    let mut builder = Layout::builder("kernel-two-k7-fringe");
    // Clusters A (x=0) and B (x=120): five 20 nm contacts each at 24 nm
    // pitch — the worst in-column gap is 76 nm, inside the 80 nm coloring
    // distance, while the 100 nm A–B gap keeps the clusters conflict-free
    // of each other.
    for y in [0i64, 24, 48, 72, 96] {
        builder.add_contact(Nm(0), Nm(y), Nm(20));
    }
    // Shared pair S (x=60): within 80 nm of every contact of both
    // clusters (worst diagonal ≈ 57 nm), completing two K7s that share
    // exactly these two vertices.
    for y in [36i64, 60] {
        builder.add_contact(Nm(60), Nm(y), Nm(20));
    }
    for y in [0i64, 24, 48, 72, 96] {
        builder.add_contact(Nm(120), Nm(y), Nm(20));
    }
    // Fringe chain above cluster B at 72 nm pitch: each contact conflicts
    // only with its chain neighbours (52 nm gap; 124 nm skips a link) and
    // the first one with B's top contact (56 nm) — conflict degree ≤ 2 < K
    // everywhere, so simplification hides the entire chain.
    for y in [172i64, 244, 316, 388, 460, 532, 604, 676] {
        builder.add_contact(Nm(120), Nm(y), Nm(20));
    }
    builder.build()
}

/// The kernelization cases: the two-K7-plus-fringe fixture decomposed with
/// the exact engine through the full iterated-simplification pipeline.
/// The multiplicity-aware clique-cover bound must close the 12-vertex
/// kernel within a handful of branch-and-bound nodes, and greedy
/// reinsertion of the hidden fringe must be conflict-free.
fn run_kernel_cases() -> Result<Vec<KernelPerfCase>, String> {
    let tech = Technology::nm20();
    let layout = kernel_fixture();
    let config =
        DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(ColorAlgorithm::Ilp);
    let decomposer = Decomposer::new(config);
    let start = Instant::now();
    let plan = decomposer
        .plan(&layout)
        .map_err(|error| format!("{}: {error}", layout.name()))?;
    let result = plan.execute(&SerialExecutor);
    let seconds = start.elapsed().as_secs_f64();
    let violations = verify_spacing(plan.graph(), result.colors(), tech.coloring_distance(4));
    // The fringe lives strictly above the core (y ≥ 172 nm vs ≤ 116 nm),
    // so violations touching reinserted vertices are classified purely
    // geometrically — independent of the pipeline's own bookkeeping.
    let fringe_floor = Nm(150);
    let in_fringe = |vertex| plan.graph().polygon(vertex).bounding_box().ylo() >= fringe_floor;
    let reinsertion_conflicts = violations
        .iter()
        .filter(|violation| in_fringe(violation.a) || in_fringe(violation.b))
        .count();
    let stats = result.component_stats();
    let bnb_nodes: u64 = stats.iter().map(|s| s.bnb_nodes).sum();
    let proven_optimal = !stats.iter().any(|s| s.hit_time_limit);
    let counters = result.counters();
    let case = KernelPerfCase {
        name: layout.name().to_string(),
        algorithm: result.algorithm().to_string(),
        k: result.k(),
        shapes: layout.shape_count(),
        vertices: result.vertex_count(),
        hidden_vertices: counters.hidden_vertices,
        kernel_vertices: counters.kernel_vertices,
        simplify_rounds: counters.simplify_rounds,
        bnb_nodes,
        conflicts: result.conflicts(),
        stitches: result.stitches(),
        spacing_violations: violations.len(),
        reinsertion_conflicts,
        proven_optimal,
        seconds,
    };
    eprintln!(
        "  kernel {:<15} {:<14} |V|={:<3} hidden={:<2} kernel={:<2} rounds={} nodes={:<5} cn#={} sv#={} reins#={} optimal={} ({:.3}s)",
        case.name,
        case.algorithm,
        case.vertices,
        case.hidden_vertices,
        case.kernel_vertices,
        case.simplify_rounds,
        case.bnb_nodes,
        case.conflicts,
        case.spacing_violations,
        case.reinsertion_conflicts,
        case.proven_optimal,
        case.seconds,
    );
    Ok(vec![case])
}

/// The full-chip tiled cases: a chip-spanning degree-8 contact lattice
/// (one giant component) sharded into 400 nm windows through `mpl-tile`
/// and solved exactly per tile — a configuration the untiled exact engine
/// only finishes by burning its per-component time limit — plus a small
/// control layout that fits one window and must color bit-identically
/// tiled and untiled.
fn run_tile_cases(options: &PerfOptions) -> Result<Vec<TilePerfCase>, String> {
    let tech = Technology::nm20();
    let tile_size = Nm(400);
    let algorithm = ColorAlgorithm::Ilp;
    // 96×96 contacts at 70 nm pitch: orthogonal and diagonal neighbours
    // conflict, so the whole chip is one spanning component.
    let layout = gen::contact_array(&tech, 96, 96, Nm(70));
    let config = DecomposerConfig::quadruple(Technology::nm20())
        .with_algorithm(algorithm)
        .with_ilp_time_limit(Duration::from_secs(2));
    let decomposer = Decomposer::new(config);
    let mut session = DecompositionSession::new()
        .with_memo(Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY)))
        .with_tiling(TileConfig::new(tile_size));
    let start = Instant::now();
    session
        .submit_layout(&decomposer, &layout)
        .map_err(|error| format!("{}: {error}", layout.name()))?;
    let results =
        run_tiled(&session, &SerialExecutor).map_err(|error| format!("tiled run: {error}"))?;
    let tiled_seconds = start.elapsed().as_secs_f64();
    let (id, TiledLayoutResult { result, stats }) =
        results.into_iter().next().expect("one layout submitted");
    // The merged coloring must be spacing-clean under the same geometric
    // checker untiled results answer to — every violation is a counted
    // conflict, nothing hides in a window seam.
    let plan = session.plan(id).expect("plan retained by the session");
    let spacing_violations =
        verify_spacing(plan.graph(), result.colors(), tech.coloring_distance(4)).len();

    // The untiled comparison run is wall-clock only, so `--check` skips it
    // (it dominates the suite's runtime without adding any counter).
    let untiled_seconds = if options.check {
        None
    } else {
        Some(timed_session_run(&layout, algorithm, None)?.0)
    };

    // Control: a layout whose single component fits one window must take
    // the resident path and reproduce the untiled coloring bit for bit.
    // Both runs are unmemoized so the identity is an engine-path claim,
    // not a cache artifact.
    let control = gen::contact_array(&tech, 6, 6, Nm(70));
    let (_, control_untiled) = timed_session_run(&control, algorithm, None)?;
    let control_decomposer =
        Decomposer::new(DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm));
    let mut control_session =
        DecompositionSession::new().with_tiling(TileConfig::new(Nm(1_000_000)));
    control_session
        .submit_layout(&control_decomposer, &control)
        .map_err(|error| format!("{}: {error}", control.name()))?;
    let control_results = run_tiled(&control_session, &SerialExecutor)
        .map_err(|error| format!("tiled control run: {error}"))?;
    let (_, control_tiled) = control_results
        .into_iter()
        .next()
        .expect("one control layout submitted");
    let control_bit_identical = control_tiled.result.colors() == control_untiled.colors();

    let case = TilePerfCase {
        name: layout.name().to_string(),
        algorithm: result.algorithm().to_string(),
        k: result.k(),
        shapes: layout.shape_count(),
        vertices: result.vertex_count(),
        tile_size: tile_size.value(),
        grid_x: stats.grid_x,
        grid_y: stats.grid_y,
        tiles: stats.tiles,
        tiled_components: stats.tiled_components,
        shared_vertices: stats.shared_vertices,
        permuted_tiles: stats.permuted_tiles,
        recolored_vertices: stats.recolored_vertices,
        cross_conflicts_before: stats.cross_conflicts_before,
        cross_conflicts_after: stats.cross_conflicts_after,
        conflicts: result.conflicts(),
        stitches: result.stitches(),
        tiled_seconds,
        untiled_seconds,
        spacing_violations,
        control_bit_identical,
    };
    eprintln!(
        "  tile {:<17} {:<14} |V|={:<6} tiles={:<4} tiled={:.3}s untiled={} cross={}→{} cn#={} sv#={} control-identical={}",
        case.name,
        case.algorithm,
        case.vertices,
        case.tiles,
        case.tiled_seconds,
        case.untiled_seconds
            .map_or_else(|| "skipped".to_string(), |seconds| format!("{seconds:.3}s")),
        case.cross_conflicts_before,
        case.cross_conflicts_after,
        case.conflicts,
        case.spacing_violations,
        case.control_bit_identical,
    );
    Ok(vec![case])
}

/// Plans and colors a hierarchical layout through `mpl-hier` in one
/// memoized session, returning the wall seconds with the result and stats.
fn timed_hier_run(
    layout: &Layout,
    hierarchy: LayoutHierarchy,
    algorithm: ColorAlgorithm,
) -> Result<
    (
        f64,
        mpl_core::LayoutId,
        DecompositionSession,
        HierLayoutResult,
    ),
    String,
> {
    let config = DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm);
    let decomposer = Decomposer::new(config);
    let mut session = DecompositionSession::new()
        .with_memo(Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY)));
    let start = Instant::now();
    let id = session
        .submit_layout(&decomposer, layout)
        .map_err(|error| format!("{}: {error}", layout.name()))?;
    session.set_hierarchy(id, Some(Arc::new(hierarchy)));
    let results =
        run_hier(&session, &SerialExecutor).map_err(|error| format!("hier run: {error}"))?;
    let seconds = start.elapsed().as_secs_f64();
    let (id, hier) = results.into_iter().next().expect("one layout submitted");
    Ok((seconds, id, session, hier))
}

/// The cell-level hierarchical cases: an SRAM-like bit-cell array whose
/// per-cell tabs *merge* into the next column (the whole array is one
/// giant conflict component with a single, never-repeated flat signature,
/// so the flat memo cache cannot help and only provenance splitting does),
/// plus an all-isolated control array that must reproduce the flat
/// memoized coloring bit for bit.
fn run_hier_cases(options: &PerfOptions) -> Result<Vec<HierPerfCase>, String> {
    let tech = Technology::nm20();
    let algorithm = ColorAlgorithm::SdpBacktrack;
    // 12×12 merged bit cells: tabs fuse every column into its neighbour
    // and 60 nm row gaps couple the rows, one spanning component.
    let (layout, hierarchy) = bit_cell_array(12, 12, BitArrayStyle::Merged);
    let (hier_seconds, id, session, HierLayoutResult { result, stats }) =
        timed_hier_run(&layout, hierarchy, algorithm)?;
    // The merged coloring must be spacing-clean under the same geometric
    // checker flat results answer to — every violation is a counted
    // conflict, nothing hides at an instance boundary.
    let plan = session.plan(id).expect("plan retained by the session");
    let spacing_violations =
        verify_spacing(plan.graph(), result.colors(), tech.coloring_distance(4)).len();

    // The flatten-then-decompose comparison run is wall-clock only, so
    // `--check` skips it (the giant single component dominates the suite).
    let flat_seconds = if options.check {
        None
    } else {
        Some(timed_session_run(&layout, algorithm, None)?.0)
    };

    // Control: every instance isolated beyond the color-friendly distance,
    // so the hierarchical path must degenerate to resident components and
    // reproduce the flat memoized coloring bit for bit.
    let (control_layout, control_hierarchy) = bit_cell_array(6, 6, BitArrayStyle::Isolated);
    let (_, control_flat) = timed_session_run(
        &control_layout,
        algorithm,
        Some(Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY))),
    )?;
    let (_, _, _, control_hier) = timed_hier_run(&control_layout, control_hierarchy, algorithm)?;
    let control_bit_identical = control_hier.result.colors() == control_flat.colors();

    let case = HierPerfCase {
        name: layout.name().to_string(),
        algorithm: result.algorithm().to_string(),
        k: result.k(),
        shapes: layout.shape_count(),
        vertices: result.vertex_count(),
        instances: stats.instances,
        cells: stats.cells,
        resident_components: stats.resident_components,
        split_components: stats.split_components,
        instance_pieces: stats.instance_pieces,
        boundary_vertices: stats.boundary_vertices,
        permuted_pieces: stats.permuted_pieces,
        recolored_vertices: stats.recolored_vertices,
        cross_conflicts_before: stats.cross_conflicts_before,
        cross_conflicts_after: stats.cross_conflicts_after,
        conflicts: result.conflicts(),
        stitches: result.stitches(),
        hier_seconds,
        flat_seconds,
        spacing_violations,
        control_bit_identical,
    };
    eprintln!(
        "  hier {:<17} {:<14} |V|={:<6} inst={:<4} hier={:.3}s flat={} cross={}→{} cn#={} sv#={} control-identical={}",
        case.name,
        case.algorithm,
        case.vertices,
        case.instances,
        case.hier_seconds,
        case.flat_seconds
            .map_or_else(|| "skipped".to_string(), |seconds| format!("{seconds:.3}s")),
        case.cross_conflicts_before,
        case.cross_conflicts_after,
        case.conflicts,
        case.spacing_violations,
        case.control_bit_identical,
    );
    Ok(vec![case])
}

/// Runs the whole suite.
///
/// # Errors
///
/// Returns a human-readable message when a generated layout unexpectedly
/// fails to plan (which would indicate a generator/config bug).
pub fn run_perf_suite(options: &PerfOptions) -> Result<PerfReport, String> {
    let mut layouts = Vec::new();
    for (layout, algorithms, ilp_limit) in layout_cases() {
        for algorithm in algorithms {
            let config = DecomposerConfig::quadruple(Technology::nm20())
                .with_algorithm(algorithm)
                .with_ilp_time_limit(ilp_limit);
            let decomposer = Decomposer::new(config);
            let plan_start = Instant::now();
            let plan = decomposer
                .plan(&layout)
                .map_err(|error| format!("{}: {error}", layout.name()))?;
            let plan_seconds = plan_start.elapsed().as_secs_f64();
            let color_start = Instant::now();
            let result = plan.execute(&SerialExecutor);
            let color_seconds = color_start.elapsed().as_secs_f64();
            let stats = result.component_stats();
            let division_seconds: f64 = stats.iter().map(|s| s.division_time.as_secs_f64()).sum();
            let bnb_nodes: u64 = stats.iter().map(|s| s.bnb_nodes).sum();
            let augmenting_paths: u64 = stats.iter().map(|s| s.augmenting_paths).sum();
            let augmenting_path_bound: u64 = stats.iter().map(|s| s.augmenting_path_bound).sum();
            let arc_scans: u64 = stats.iter().map(|s| s.arc_scans).sum();
            let scratch_allocs: u64 = stats.iter().map(|s| s.scratch_allocs).sum();
            let hit_time_limit = stats.iter().any(|s| s.hit_time_limit);
            eprintln!(
                "  {:<18} {:<14} |V|={:<6} comps={:<5} plan={:.3}s color={:.3}s cn#={} st#={}",
                layout.name(),
                result.algorithm(),
                result.vertex_count(),
                result.component_count(),
                plan_seconds,
                color_seconds,
                result.conflicts(),
                result.stitches(),
            );
            layouts.push(LayoutPerfCase {
                name: layout.name().to_string(),
                algorithm: result.algorithm().to_string(),
                k: result.k(),
                shapes: layout.shape_count(),
                vertices: result.vertex_count(),
                conflict_edges: result.conflict_edge_count(),
                components: result.component_count(),
                conflicts: result.conflicts(),
                stitches: result.stitches(),
                plan_seconds,
                color_seconds,
                division_seconds: Some(division_seconds),
                bnb_nodes: Some(bnb_nodes),
                augmenting_paths: Some(augmenting_paths),
                augmenting_path_bound: Some(augmenting_path_bound),
                arc_scans: Some(arc_scans),
                scratch_allocs: Some(scratch_allocs),
                hit_time_limit: Some(hit_time_limit),
            });
        }
    }

    let gds = run_gds_cases()?;
    let memo = run_memo_cases()?;
    let kernel = run_kernel_cases()?;
    let tile = run_tile_cases(options)?;
    let hier = run_hier_cases(options)?;

    let mut bnb = Vec::new();
    for (name, instance) in bnb_instances() {
        let start = Instant::now();
        let solution = solve_exact(
            instance.vertex_count(),
            instance.k(),
            instance.alpha(),
            instance.conflict_edges(),
            instance.stitch_edges(),
            &ExactOptions::default(),
        );
        let seconds = start.elapsed().as_secs_f64();
        eprintln!(
            "  bnb {:<18} n={:<3} |CE|={:<4} nodes={:<10} cost={} ({:.3}s)",
            name,
            instance.vertex_count(),
            instance.conflict_edges().len(),
            solution.nodes,
            solution.cost,
            seconds,
        );
        bnb.push(BnbPerfCase {
            name,
            vertices: instance.vertex_count(),
            conflict_edges: instance.conflict_edges().len(),
            k: instance.k(),
            cost: solution.cost,
            proven_optimal: solution.proven_optimal,
            nodes: solution.nodes,
            seconds,
        });
    }

    Ok(PerfReport {
        label: options.label.clone(),
        layouts,
        gds,
        memo,
        kernel,
        tile,
        hier,
        bnb,
    })
}

impl PerfReport {
    /// The machine-readable report (schema `mpl-bench/perf-v7`; v2 added
    /// the `memo_cases` array to v1, v3 the `tile_cases` array, v4 the
    /// `hier_cases` array, v5 the `kernel_cases` array, v6 the per-layout
    /// `arc_scans` counter, v7 the `gds_cases` array).  `BENCH_perf.json` is its `{:#}` document
    /// layout plus a trailing newline; each case is one line.
    pub fn to_json(&self) -> Json {
        let layouts = self.layouts.iter().map(|case| {
            Json::object(vec![
                ("name", case.name.as_str().into()),
                ("algorithm", case.algorithm.as_str().into()),
                ("k", case.k.into()),
                ("shapes", case.shapes.into()),
                ("vertices", case.vertices.into()),
                ("conflict_edges", case.conflict_edges.into()),
                ("components", case.components.into()),
                ("conflicts", case.conflicts.into()),
                ("stitches", case.stitches.into()),
                ("plan_seconds", case.plan_seconds.into()),
                ("color_seconds", case.color_seconds.into()),
                ("division_seconds", case.division_seconds.into()),
                ("bnb_nodes", case.bnb_nodes.into()),
                ("augmenting_paths", case.augmenting_paths.into()),
                ("augmenting_path_bound", case.augmenting_path_bound.into()),
                ("arc_scans", case.arc_scans.into()),
                ("scratch_allocs", case.scratch_allocs.into()),
                ("hit_time_limit", case.hit_time_limit.into()),
            ])
        });
        let gds = self.gds.iter().map(|case| {
            Json::object(vec![
                ("name", case.name.as_str().into()),
                ("shapes", case.shapes.into()),
                ("rects", case.rects.into()),
                ("layout_bytes", case.layout_bytes.into()),
                ("read_shapes", case.read_shapes.into()),
                ("read_rects", case.read_rects.into()),
                ("vertices", case.vertices.into()),
                ("colored_bytes", case.colored_bytes.into()),
                ("write_seconds", case.write_seconds.into()),
                ("read_seconds", case.read_seconds.into()),
                ("export_seconds", case.export_seconds.into()),
            ])
        });
        let memo = self.memo.iter().map(|case| {
            Json::object(vec![
                ("name", case.name.as_str().into()),
                ("algorithm", case.algorithm.as_str().into()),
                ("k", case.k.into()),
                ("shapes", case.shapes.into()),
                ("vertices", case.vertices.into()),
                ("components", case.components.into()),
                ("no_memo_seconds", case.no_memo_seconds.into()),
                ("cold_seconds", case.cold_seconds.into()),
                ("warm_seconds", case.warm_seconds.into()),
                ("warm_speedup", case.warm_speedup().into()),
                ("cold_hits", case.cold_hits.into()),
                ("cold_misses", case.cold_misses.into()),
                ("warm_hits", case.warm_hits.into()),
                ("warm_misses", case.warm_misses.into()),
                ("cache_entries", case.cache_entries.into()),
                ("cache_evictions", case.cache_evictions.into()),
                ("coloring_diffs", case.coloring_diffs.into()),
            ])
        });
        let kernel = self.kernel.iter().map(|case| {
            Json::object(vec![
                ("name", case.name.as_str().into()),
                ("algorithm", case.algorithm.as_str().into()),
                ("k", case.k.into()),
                ("shapes", case.shapes.into()),
                ("vertices", case.vertices.into()),
                ("hidden_vertices", case.hidden_vertices.into()),
                ("kernel_vertices", case.kernel_vertices.into()),
                ("simplify_rounds", case.simplify_rounds.into()),
                ("bnb_nodes", case.bnb_nodes.into()),
                ("conflicts", case.conflicts.into()),
                ("stitches", case.stitches.into()),
                ("spacing_violations", case.spacing_violations.into()),
                ("reinsertion_conflicts", case.reinsertion_conflicts.into()),
                ("proven_optimal", case.proven_optimal.into()),
                ("seconds", case.seconds.into()),
            ])
        });
        let tile = self.tile.iter().map(|case| {
            Json::object(vec![
                ("name", case.name.as_str().into()),
                ("algorithm", case.algorithm.as_str().into()),
                ("k", case.k.into()),
                ("shapes", case.shapes.into()),
                ("vertices", case.vertices.into()),
                ("tile_size", case.tile_size.into()),
                ("grid_x", case.grid_x.into()),
                ("grid_y", case.grid_y.into()),
                ("tiles", case.tiles.into()),
                ("tiled_components", case.tiled_components.into()),
                ("shared_vertices", case.shared_vertices.into()),
                ("permuted_tiles", case.permuted_tiles.into()),
                ("recolored_vertices", case.recolored_vertices.into()),
                ("cross_conflicts_before", case.cross_conflicts_before.into()),
                ("cross_conflicts_after", case.cross_conflicts_after.into()),
                ("conflicts", case.conflicts.into()),
                ("stitches", case.stitches.into()),
                ("tiled_seconds", case.tiled_seconds.into()),
                ("untiled_seconds", case.untiled_seconds.into()),
                ("tiled_speedup", case.tiled_speedup().into()),
                ("spacing_violations", case.spacing_violations.into()),
                ("control_bit_identical", case.control_bit_identical.into()),
            ])
        });
        let hier = self.hier.iter().map(|case| {
            Json::object(vec![
                ("name", case.name.as_str().into()),
                ("algorithm", case.algorithm.as_str().into()),
                ("k", case.k.into()),
                ("shapes", case.shapes.into()),
                ("vertices", case.vertices.into()),
                ("instances", case.instances.into()),
                ("cells", case.cells.into()),
                ("resident_components", case.resident_components.into()),
                ("split_components", case.split_components.into()),
                ("instance_pieces", case.instance_pieces.into()),
                ("boundary_vertices", case.boundary_vertices.into()),
                ("permuted_pieces", case.permuted_pieces.into()),
                ("recolored_vertices", case.recolored_vertices.into()),
                ("cross_conflicts_before", case.cross_conflicts_before.into()),
                ("cross_conflicts_after", case.cross_conflicts_after.into()),
                ("conflicts", case.conflicts.into()),
                ("stitches", case.stitches.into()),
                ("hier_seconds", case.hier_seconds.into()),
                ("flat_seconds", case.flat_seconds.into()),
                ("hier_speedup", case.hier_speedup().into()),
                ("spacing_violations", case.spacing_violations.into()),
                ("control_bit_identical", case.control_bit_identical.into()),
            ])
        });
        let bnb = self.bnb.iter().map(|case| {
            Json::object(vec![
                ("name", case.name.as_str().into()),
                ("vertices", case.vertices.into()),
                ("conflict_edges", case.conflict_edges.into()),
                ("k", case.k.into()),
                ("cost", case.cost.into()),
                ("proven_optimal", case.proven_optimal.into()),
                ("nodes", case.nodes.into()),
                ("seconds", case.seconds.into()),
            ])
        });
        Json::object(vec![
            ("schema", "mpl-bench/perf-v7".into()),
            ("label", self.label.as_str().into()),
            ("layouts", Json::Array(layouts.collect())),
            ("gds_cases", Json::Array(gds.collect())),
            ("memo_cases", Json::Array(memo.collect())),
            ("kernel_cases", Json::Array(kernel.collect())),
            ("tile_cases", Json::Array(tile.collect())),
            ("hier_cases", Json::Array(hier.collect())),
            ("bnb_cases", Json::Array(bnb.collect())),
        ])
    }

    /// Verifies the deterministic work counters against pinned ceilings.
    ///
    /// Ceilings are deliberately loose (≈2× the measured values at the time
    /// they were pinned) so they catch order-of-magnitude regressions — a
    /// lost pruning rule, an uncapped max-flow — without flaking on small
    /// search-order drift.  Wall-clock numbers are never checked.
    ///
    /// # Errors
    ///
    /// Returns one message per violated ceiling.
    pub fn check_ceilings(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        for case in &self.bnb {
            // Measured on the PR-5 overhaul (see BENCH_perf.json): cliques
            // close at the root node (1), random-16 at ~19k, random-18 at
            // ~0.8k.  two-k7-share2 measured ~201k under the old vertex-
            // disjoint clique cover; the multiplicity-aware edge-clique
            // cover closes it at the root node, so its ceiling is pinned
            // at under 1 % of the old count to lock the improvement in.
            let ceiling = match case.name.as_str() {
                "clique-9" | "clique-10" | "clique-11" => 2_000,
                "two-k7-share2" => 2_000,
                "random-16-p550" => 40_000,
                "random-18-p500" => 5_000,
                _ => continue,
            };
            if case.nodes > ceiling {
                violations.push(format!(
                    "bnb case {}: {} nodes expanded exceeds the pinned ceiling {}",
                    case.name, case.nodes, ceiling
                ));
            }
            if !case.proven_optimal {
                violations.push(format!(
                    "bnb case {}: search no longer proves optimality",
                    case.name
                ));
            }
        }
        for case in &self.layouts {
            match (case.augmenting_paths, case.augmenting_path_bound) {
                (Some(paths), Some(bound)) => {
                    if paths > bound {
                        violations.push(format!(
                            "layout {} ({}): {} augmenting paths exceeds the n·K bound {}",
                            case.name, case.algorithm, paths, bound
                        ));
                    }
                }
                _ => violations.push(format!(
                    "layout {} ({}): augmenting-path counters missing from the report",
                    case.name, case.algorithm
                )),
            }
            match (case.arc_scans, lattice_arc_scan_ceiling(&case.name)) {
                (None, _) => violations.push(format!(
                    "layout {} ({}): arc-scan counter missing from the report",
                    case.name, case.algorithm
                )),
                (Some(scans), Some(ceiling)) if scans > ceiling => violations.push(format!(
                    "layout {} ({}): {scans} max-flow arc scans exceeds the ceiling {ceiling}",
                    case.name, case.algorithm
                )),
                _ => {}
            }
            match case.scratch_allocs {
                // Warm-path allocation discipline: a serial run of the whole
                // suite grows its scratch buffers a handful of times, not
                // once per component (911 components measured 5 events).
                Some(allocs) => {
                    if allocs > 64 {
                        violations.push(format!(
                            "layout {} ({}): {} scratch allocation events exceeds the ceiling 64",
                            case.name, case.algorithm, allocs
                        ));
                    }
                }
                None => violations.push(format!(
                    "layout {} ({}): scratch allocation counters missing from the report",
                    case.name, case.algorithm
                )),
            }
            if case.name == "perf-large" && case.algorithm == "ILP" {
                match case.bnb_nodes {
                    // Measured ~50k nodes across 911 components.
                    Some(nodes) => {
                        if nodes > 150_000 {
                            violations.push(format!(
                                "layout perf-large (ILP): {nodes} B&B nodes exceeds the ceiling 150000"
                            ));
                        }
                    }
                    None => violations.push(
                        "layout perf-large (ILP): B&B node counters missing from the report"
                            .to_string(),
                    ),
                }
            }
        }
        // Near-linear division: arc scans per vertex may grow at most 1.5×
        // from the smallest to the largest lattice (measured 1.07×).
        let scans_per_vertex = |side: usize| {
            let case = self
                .layouts
                .iter()
                .find(|case| case.name == lattice_name(side))?;
            Some(case.arc_scans? as f64 / case.vertices.max(1) as f64)
        };
        let (small, large) = (LATTICES[0].0, LATTICES[LATTICES.len() - 1].0);
        if let (Some(base), Some(top)) = (scans_per_vertex(small), scans_per_vertex(large)) {
            if top > 1.5 * base {
                violations.push(format!(
                    "lattice division grows superlinearly: {top:.1} arc scans per vertex at \
                     {large}×{large} exceeds 1.5× the {base:.1} at {small}×{small}"
                ));
            }
        }
        for case in &self.gds {
            let pinned = GDS_PINS.iter().find(|&&(name, ..)| name == case.name);
            let found = (
                case.layout_bytes,
                case.read_shapes,
                case.read_rects,
                case.colored_bytes,
            );
            if let Some(&(_, bytes, shapes, rects, colored)) = pinned {
                if found != (bytes, shapes, rects, colored) {
                    violations.push(format!(
                        "gds case {}: wrote {} bytes, read back {} shapes of {} rectangles and \
                         exported {} bytes; pinned {bytes}, {shapes}, {rects} and {colored}",
                        case.name, found.0, found.1, found.2, found.3
                    ));
                }
            }
        }
        for case in &self.memo {
            let pinned = MEMO_COLD_COUNTERS
                .iter()
                .find(|&&(name, ..)| name == case.name);
            if let Some(&(_, hits, misses)) = pinned {
                if (case.cold_hits, case.cold_misses) != (hits, misses) {
                    violations.push(format!(
                        "memo case {}: cold run gave {} hits and {} misses, pinned {hits} and \
                         {misses}",
                        case.name, case.cold_hits, case.cold_misses
                    ));
                }
            }
            // The memoized acceptance bar: a warm cache must serve every
            // component (so ≥ 90 % on the repeated-array case) and
            // reproduce the cold coloring bit for bit.  Counters only — the
            // wall seconds (and the ≥ 5× warm speedup recorded in the
            // report) are informative, not asserted, because CI machines
            // vary.
            if (case.warm_hits, case.warm_misses) != (case.components, 0) {
                violations.push(format!(
                    "memo case {}: warm run gave {} hits and {} misses for {} components",
                    case.name, case.warm_hits, case.warm_misses, case.components
                ));
            }
            if case.warm_hit_rate() < 0.9 {
                violations.push(format!(
                    "memo case {}: warm hit rate {:.1}% is below the pinned 90% floor",
                    case.name,
                    case.warm_hit_rate() * 100.0
                ));
            }
            if case.coloring_diffs != 0 {
                violations.push(format!(
                    "memo case {}: {} vertices differ between warm and cold colorings",
                    case.name, case.coloring_diffs
                ));
            }
        }
        for case in &self.kernel {
            // The kernelization acceptance bar: iterated simplification
            // must actually fire (the whole fringe hidden, the 12-vertex
            // two-K7 core surviving), the multiplicity-aware bound must
            // close the kernel within a handful of nodes (measured 1),
            // greedy reinsertion must stay conflict-free, and the final
            // coloring must be spacing-clean and provably optimal.
            if case.simplify_rounds == 0 {
                violations.push(format!(
                    "kernel case {}: iterated simplification never ran",
                    case.name
                ));
            }
            if case.hidden_vertices == 0 {
                violations.push(format!(
                    "kernel case {}: simplification hid no vertices — the fringe survived",
                    case.name
                ));
            }
            if case.kernel_vertices > 12 {
                violations.push(format!(
                    "kernel case {}: {} kernel vertices exceed the 12-vertex two-K7 core",
                    case.name, case.kernel_vertices
                ));
            }
            if case.bnb_nodes > 100 {
                violations.push(format!(
                    "kernel case {}: {} B&B nodes exceeds the pinned ceiling 100",
                    case.name, case.bnb_nodes
                ));
            }
            if case.reinsertion_conflicts != 0 {
                violations.push(format!(
                    "kernel case {}: {} spacing violations touch reinserted fringe vertices",
                    case.name, case.reinsertion_conflicts
                ));
            }
            if case.spacing_violations != case.conflicts {
                violations.push(format!(
                    "kernel case {}: {} spacing violations disagree with {} reported conflicts",
                    case.name, case.spacing_violations, case.conflicts
                ));
            }
            if !case.proven_optimal {
                violations.push(format!(
                    "kernel case {}: kernel solve no longer proves optimality",
                    case.name
                ));
            }
        }
        for case in &self.tile {
            // The tiled acceptance bar: the shard must be real (a giant
            // component split over many windows), the reconciliation must
            // leave zero cross-window conflicts, the merged coloring must
            // be spacing-clean under the untiled checker, and the one-
            // window control must reproduce the untiled bits.  Counters
            // only — tiled_seconds and the speedup are informative.
            if case.tiles <= 1 {
                violations.push(format!(
                    "tile case {}: only {} tile sub-problems — the full-chip shard collapsed",
                    case.name, case.tiles
                ));
            }
            if case.cross_conflicts_after != 0 {
                violations.push(format!(
                    "tile case {}: {} cross-window conflicts survive reconciliation",
                    case.name, case.cross_conflicts_after
                ));
            }
            if case.conflicts != 0 {
                violations.push(format!(
                    "tile case {}: merged coloring reports {} conflicts",
                    case.name, case.conflicts
                ));
            }
            if case.spacing_violations != case.conflicts {
                violations.push(format!(
                    "tile case {}: {} spacing violations disagree with {} reported conflicts",
                    case.name, case.spacing_violations, case.conflicts
                ));
            }
            if !case.control_bit_identical {
                violations.push(format!(
                    "tile case {}: one-window control diverged from the untiled coloring",
                    case.name
                ));
            }
        }
        for case in &self.hier {
            // The hierarchical acceptance bar: the provenance split must be
            // real (every instance carved into its own piece), the
            // reconciliation must leave zero cross-instance conflicts, the
            // merged coloring must be spacing-clean under the flat checker,
            // and the all-isolated control must reproduce the flat memoized
            // bits.  Counters only — hier_seconds and the speedup are
            // informative.
            if case.instances <= 1 {
                violations.push(format!(
                    "hier case {}: only {} instances — the hierarchy collapsed",
                    case.name, case.instances
                ));
            }
            if case.instance_pieces < case.instances {
                violations.push(format!(
                    "hier case {}: {} instance pieces cover fewer than {} instances",
                    case.name, case.instance_pieces, case.instances
                ));
            }
            if case.cross_conflicts_after != 0 {
                violations.push(format!(
                    "hier case {}: {} cross-instance conflicts survive reconciliation",
                    case.name, case.cross_conflicts_after
                ));
            }
            if case.conflicts != 0 {
                violations.push(format!(
                    "hier case {}: merged coloring reports {} conflicts",
                    case.name, case.conflicts
                ));
            }
            if case.spacing_violations != case.conflicts {
                violations.push(format!(
                    "hier case {}: {} spacing violations disagree with {} reported conflicts",
                    case.name, case.spacing_violations, case.conflicts
                ));
            }
            if !case.control_bit_identical {
                violations.push(format!(
                    "hier case {}: isolated-instance control diverged from the flat memoized coloring",
                    case.name
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bnb_instances_are_deterministic() {
        let a = bnb_instances();
        let b = bnb_instances();
        assert_eq!(a.len(), b.len());
        for ((name_a, inst_a), (name_b, inst_b)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            assert_eq!(inst_a.conflict_edges(), inst_b.conflict_edges());
        }
    }

    #[test]
    fn report_json_has_the_schema_header() {
        let report = PerfReport {
            label: "test".to_string(),
            layouts: Vec::new(),
            gds: Vec::new(),
            memo: Vec::new(),
            kernel: Vec::new(),
            tile: Vec::new(),
            hier: Vec::new(),
            bnb: Vec::new(),
        };
        let json = format!("{:#}", report.to_json());
        assert!(json.contains("\"schema\": \"mpl-bench/perf-v7\""));
        assert!(json.contains("\"gds_cases\""));
        assert!(json.contains("\"label\": \"test\""));
        assert!(json.contains("\"memo_cases\""));
        assert!(json.contains("\"kernel_cases\""));
        assert!(json.contains("\"tile_cases\""));
        assert!(json.contains("\"hier_cases\""));
    }

    #[test]
    fn committed_bench_perf_json_is_its_own_document_layout() {
        // Every perf PR diffs `BENCH_perf.json` one case per line, so the
        // report's `{:#}` layout must reproduce the committed file exactly.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
        let text = std::fs::read_to_string(path).expect("BENCH_perf.json is committed");
        let parsed = Json::parse(&text).expect("BENCH_perf.json parses");
        assert_eq!(format!("{parsed:#}\n"), text);
    }

    #[test]
    fn lattice_ceilings_catch_missing_and_superlinear_arc_scans() {
        let lattice = |side: usize, arc_scans: u64| LayoutPerfCase {
            name: lattice_name(side),
            algorithm: "Linear".to_string(),
            k: 4,
            shapes: side * side,
            vertices: side * side,
            conflict_edges: 4 * side * side,
            components: 1,
            conflicts: side / 2,
            stitches: 0,
            plan_seconds: 0.01,
            color_seconds: 0.01,
            division_seconds: Some(0.01),
            bnb_nodes: Some(0),
            augmenting_paths: Some(4 * (side * side) as u64 - 4),
            augmenting_path_bound: Some(4 * (side * side) as u64),
            arc_scans: Some(arc_scans),
            scratch_allocs: Some(5),
            hit_time_limit: Some(false),
        };
        let measured = vec![
            lattice(32, 594_645),
            lattice(48, 1_386_984),
            lattice(64, 2_509_016),
            lattice(96, 5_741_597),
        ];
        let mut report = PerfReport {
            label: "test".to_string(),
            layouts: measured.clone(),
            gds: Vec::new(),
            memo: Vec::new(),
            kernel: Vec::new(),
            tile: Vec::new(),
            hier: Vec::new(),
            bnb: Vec::new(),
        };
        assert!(report.check_ceilings().is_ok());

        // Under the 96-side ceiling, but 1.6× the 32-side scans per vertex.
        report.layouts[3].arc_scans = Some(8_600_000);
        let violations = report
            .check_ceilings()
            .expect_err("superlinear growth fails");
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("superlinearly"), "{violations:?}");

        report.layouts = measured;
        report.layouts[1].arc_scans = Some(3_000_000);
        let violations = report.check_ceilings().expect_err("48-side ceiling fails");
        assert!(
            violations
                .iter()
                .any(|v| v.contains("exceeds the ceiling 2800000")),
            "{violations:?}"
        );

        report.layouts[1].arc_scans = None;
        let violations = report.check_ceilings().expect_err("missing counter fails");
        assert!(
            violations
                .iter()
                .any(|v| v.contains("arc-scan counter missing")),
            "{violations:?}"
        );
    }

    #[test]
    fn memo_ceilings_catch_low_hit_rates_and_coloring_diffs() {
        let case = MemoPerfCase {
            name: "aref-test".to_string(),
            algorithm: "SDP+backtrack".to_string(),
            k: 4,
            shapes: 100,
            vertices: 100,
            components: 10,
            no_memo_seconds: 1.0,
            cold_seconds: 0.2,
            warm_seconds: 0.1,
            cold_hits: 9,
            cold_misses: 1,
            warm_hits: 10,
            warm_misses: 0,
            cache_entries: 1,
            cache_evictions: 0,
            coloring_diffs: 0,
        };
        let mut report = PerfReport {
            label: "test".to_string(),
            layouts: Vec::new(),
            gds: Vec::new(),
            memo: vec![case.clone()],
            kernel: Vec::new(),
            tile: Vec::new(),
            hier: Vec::new(),
            bnb: Vec::new(),
        };
        assert!(report.check_ceilings().is_ok());
        assert!((report.memo[0].warm_speedup() - 10.0).abs() < 1e-9);
        assert!((report.memo[0].warm_hit_rate() - 1.0).abs() < 1e-9);

        report.memo[0].warm_hits = 5;
        report.memo[0].warm_misses = 5;
        let violations = report.check_ceilings().expect_err("50% hit rate fails");
        assert!(
            violations.iter().any(|v| v.contains("90% floor")),
            "{violations:?}"
        );

        report.memo[0] = MemoPerfCase {
            coloring_diffs: 3,
            ..case.clone()
        };
        let violations = report.check_ceilings().expect_err("diffs fail");
        assert!(
            violations
                .iter()
                .any(|v| v.contains("differ between warm and cold")),
            "{violations:?}"
        );

        // A pinned case must reproduce its cold counters exactly, and a
        // warm run must serve every component.
        report.memo[0] = MemoPerfCase {
            name: "perf-large".to_string(),
            components: 911,
            cold_hits: 191,
            cold_misses: 720,
            warm_hits: 911,
            ..case
        };
        assert!(report.check_ceilings().is_ok());
        report.memo[0].cold_hits = 190;
        report.memo[0].cold_misses = 721;
        let violations = report
            .check_ceilings()
            .expect_err("moved cold counters fail");
        assert!(
            violations.iter().any(|v| v.contains("pinned 191 and 720")),
            "{violations:?}"
        );
        report.memo[0].cold_hits = 191;
        report.memo[0].cold_misses = 720;
        report.memo[0].warm_hits = 910;
        report.memo[0].warm_misses = 1;
        let violations = report.check_ceilings().expect_err("a warm miss fails");
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("warm run gave"), "{violations:?}");
    }

    #[test]
    fn gds_pins_catch_changed_files() {
        let pinned = GdsPerfCase {
            name: "perf-large".to_string(),
            shapes: 52_690,
            rects: 52_690,
            layout_bytes: 3_372_278,
            read_shapes: 52_690,
            read_rects: 52_690,
            vertices: 54_353,
            colored_bytes: 3_478_710,
            write_seconds: 0.01,
            read_seconds: 0.05,
            export_seconds: 0.02,
        };
        let mut report = PerfReport {
            label: "test".to_string(),
            layouts: Vec::new(),
            gds: vec![pinned.clone()],
            memo: Vec::new(),
            kernel: Vec::new(),
            tile: Vec::new(),
            hier: Vec::new(),
            bnb: Vec::new(),
        };
        assert!(report.check_ceilings().is_ok());
        report.gds[0].colored_bytes += 2;
        let violations = report
            .check_ceilings()
            .expect_err("a changed export is caught");
        assert!(
            violations[0].contains("gds case perf-large"),
            "{violations:?}"
        );
        report.gds[0] = GdsPerfCase {
            read_rects: 52_691,
            ..pinned
        };
        assert!(report.check_ceilings().is_err());
    }

    #[test]
    fn kernel_ceilings_catch_dead_simplification_and_reinsertion_conflicts() {
        let case = KernelPerfCase {
            name: "kernel-two-k7-fringe".to_string(),
            algorithm: "ILP".to_string(),
            k: 4,
            shapes: 20,
            vertices: 20,
            hidden_vertices: 8,
            kernel_vertices: 12,
            simplify_rounds: 1,
            bnb_nodes: 1,
            conflicts: 5,
            stitches: 0,
            spacing_violations: 5,
            reinsertion_conflicts: 0,
            proven_optimal: true,
            seconds: 0.001,
        };
        let mut report = PerfReport {
            label: "test".to_string(),
            layouts: Vec::new(),
            gds: Vec::new(),
            memo: Vec::new(),
            kernel: vec![case.clone()],
            tile: Vec::new(),
            hier: Vec::new(),
            bnb: Vec::new(),
        };
        assert!(report.check_ceilings().is_ok());

        report.kernel[0].hidden_vertices = 0;
        let violations = report.check_ceilings().expect_err("dead fringe fails");
        assert!(
            violations.iter().any(|v| v.contains("hid no vertices")),
            "{violations:?}"
        );

        report.kernel[0] = KernelPerfCase {
            reinsertion_conflicts: 2,
            ..case.clone()
        };
        let violations = report
            .check_ceilings()
            .expect_err("reinsertion conflicts fail");
        assert!(
            violations
                .iter()
                .any(|v| v.contains("reinserted fringe vertices")),
            "{violations:?}"
        );

        report.kernel[0] = KernelPerfCase {
            bnb_nodes: 50_000,
            ..case.clone()
        };
        let violations = report.check_ceilings().expect_err("weak bound fails");
        assert!(
            violations.iter().any(|v| v.contains("pinned ceiling 100")),
            "{violations:?}"
        );

        report.kernel[0] = KernelPerfCase {
            kernel_vertices: 18,
            hidden_vertices: 2,
            ..case
        };
        let violations = report.check_ceilings().expect_err("bloated kernel fails");
        assert!(
            violations
                .iter()
                .any(|v| v.contains("12-vertex two-K7 core")),
            "{violations:?}"
        );
    }

    #[test]
    fn tile_ceilings_catch_seam_conflicts_and_control_divergence() {
        let case = TilePerfCase {
            name: "contact-grid-96".to_string(),
            algorithm: "ILP".to_string(),
            k: 4,
            shapes: 9216,
            vertices: 9216,
            tile_size: 400,
            grid_x: 17,
            grid_y: 17,
            tiles: 289,
            tiled_components: 1,
            shared_vertices: 2000,
            permuted_tiles: 10,
            recolored_vertices: 0,
            cross_conflicts_before: 40,
            cross_conflicts_after: 0,
            conflicts: 0,
            stitches: 0,
            tiled_seconds: 0.2,
            untiled_seconds: Some(10.0),
            spacing_violations: 0,
            control_bit_identical: true,
        };
        let mut report = PerfReport {
            label: "test".to_string(),
            layouts: Vec::new(),
            gds: Vec::new(),
            memo: Vec::new(),
            kernel: Vec::new(),
            tile: vec![case.clone()],
            hier: Vec::new(),
            bnb: Vec::new(),
        };
        assert!(report.check_ceilings().is_ok());
        assert!((report.tile[0].tiled_speedup().expect("recorded") - 50.0).abs() < 1e-9);

        report.tile[0].cross_conflicts_after = 2;
        let violations = report.check_ceilings().expect_err("seam conflicts fail");
        assert!(
            violations
                .iter()
                .any(|v| v.contains("survive reconciliation")),
            "{violations:?}"
        );

        report.tile[0] = TilePerfCase {
            control_bit_identical: false,
            ..case.clone()
        };
        let violations = report.check_ceilings().expect_err("control drift fails");
        assert!(
            violations.iter().any(|v| v.contains("one-window control")),
            "{violations:?}"
        );

        report.tile[0] = TilePerfCase { tiles: 1, ..case };
        let violations = report.check_ceilings().expect_err("collapsed shard fails");
        assert!(
            violations.iter().any(|v| v.contains("shard collapsed")),
            "{violations:?}"
        );
        assert!(report.tile[0].untiled_seconds.is_some());
    }

    #[test]
    fn hier_ceilings_catch_boundary_conflicts_and_control_divergence() {
        let case = HierPerfCase {
            name: "sram12x12".to_string(),
            algorithm: "SDP+backtrack".to_string(),
            k: 4,
            shapes: 600,
            vertices: 720,
            instances: 144,
            cells: 1,
            resident_components: 0,
            split_components: 1,
            instance_pieces: 144,
            boundary_vertices: 300,
            permuted_pieces: 20,
            recolored_vertices: 0,
            cross_conflicts_before: 10,
            cross_conflicts_after: 0,
            conflicts: 0,
            stitches: 0,
            hier_seconds: 0.05,
            flat_seconds: Some(1.0),
            spacing_violations: 0,
            control_bit_identical: true,
        };
        let mut report = PerfReport {
            label: "test".to_string(),
            layouts: Vec::new(),
            gds: Vec::new(),
            memo: Vec::new(),
            kernel: Vec::new(),
            tile: Vec::new(),
            hier: vec![case.clone()],
            bnb: Vec::new(),
        };
        assert!(report.check_ceilings().is_ok());
        assert!((report.hier[0].hier_speedup().expect("recorded") - 20.0).abs() < 1e-9);

        report.hier[0].cross_conflicts_after = 3;
        let violations = report
            .check_ceilings()
            .expect_err("boundary conflicts fail");
        assert!(
            violations
                .iter()
                .any(|v| v.contains("survive reconciliation")),
            "{violations:?}"
        );

        report.hier[0] = HierPerfCase {
            control_bit_identical: false,
            ..case.clone()
        };
        let violations = report.check_ceilings().expect_err("control drift fails");
        assert!(
            violations
                .iter()
                .any(|v| v.contains("isolated-instance control")),
            "{violations:?}"
        );

        report.hier[0] = HierPerfCase {
            spacing_violations: 2,
            ..case.clone()
        };
        let violations = report.check_ceilings().expect_err("hidden violations fail");
        assert!(
            violations.iter().any(|v| v.contains("disagree with")),
            "{violations:?}"
        );

        report.hier[0] = HierPerfCase {
            instance_pieces: 100,
            ..case
        };
        let violations = report.check_ceilings().expect_err("lost pieces fail");
        assert!(
            violations.iter().any(|v| v.contains("cover fewer than")),
            "{violations:?}"
        );
        assert!(report.hier[0].flat_seconds.is_some());
    }
}
