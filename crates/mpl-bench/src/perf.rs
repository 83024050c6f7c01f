//! Hot-path performance suite: per-stage timings plus hardware-independent
//! work counters on deterministic generated workloads.
//!
//! The suite behind the `perfbench` binary.  Every layout, memo, kernel,
//! tile and hier case plans its layout and runs it through
//! [`mpl_serve::run_layouts`], the dispatch `qpl-decompose`, `qpl-serve`
//! and `workload --batch` share, on a one-thread pool, and reports the
//! records that run returns ([`TileStats`], [`HierStats`],
//! [`LayoutCounters`]) through their [`JsonRecord::fields`].  Seven kinds
//! of cases:
//!
//! * **Layout cases** — full plan + run passes on generated layouts
//!   (a large standard-cell-row benchmark, untiled dense contact lattices
//!   of sides 32 to 96, and 250 or 1000 fully overlapping contacts whose
//!   conflict graph is a clique), reporting best-of-3 graph-build, color
//!   and division wall seconds alongside the work counters accumulated by
//!   the engines in the first run (branch-and-bound nodes, division
//!   augmenting paths and arc scans, scratch allocation events).
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
//!   decomposed with the backtracking SDP engine: once without a memo
//!   cache, then three times with a fresh cold cache followed by a second
//!   session against the now-warm cache.  Reports the no-memo wall seconds
//!   and the best cold and warm plan+color wall seconds, plus the
//!   deterministic hit/miss counters of the first repeat and the number of
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
//! pins ceilings on counters only — for the lattices and cliques, arc
//! scans per size and their near-linear growth; for the memo cases, the
//! cold hit/miss counts, a warm run served entirely from the cache (so a
//! warm hit rate of at least 90 %) and zero coloring diffs.
//!
//! The report is schema `mpl-bench/perf-v9` ([`PerfReport::to_json`]);
//! each case also prints its report object compactly on stderr as it
//! finishes.

use mpl_core::{
    extract_masks, verify_spacing, ColorAlgorithm, ComponentProblem, Decomposer, DecomposerConfig,
    DecompositionGraph, DecompositionSession, Json, JsonRecord, LayoutCounters, MemoCache,
    StitchConfig, ThreadPoolExecutor, TileConfig,
};
use mpl_gds::{LayerMap, ReadOptions};
use mpl_geometry::{Nm, Polygon};
use mpl_hier::fixtures::{bit_cell_array, BitArrayStyle};
use mpl_hier::HierStats;
use mpl_ilp::{solve_exact, ExactOptions};
use mpl_layout::{gen, Layout, LayoutHierarchy, Technology};
use mpl_serve::{run_layouts, LayoutRun};
use mpl_tile::TileStats;
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
    /// Seconds of `color_seconds` spent inside graph division.
    pub division_seconds: f64,
    /// Branch-and-bound nodes expanded by the exact engine across all
    /// components.
    pub bnb_nodes: u64,
    /// Max-flow augmenting paths pushed during (K−1)-cut division.
    pub augmenting_paths: u64,
    /// The `n · K` ceiling the augmenting-path count must stay under
    /// (summed per component).
    pub augmenting_path_bound: u64,
    /// Arcs examined during (K−1)-cut division, by its max-flows and its
    /// local certificates.
    pub arc_scans: u64,
    /// Scratch-buffer allocation (growth) events across all components.
    pub scratch_allocs: u64,
    /// Whether any component's exact solve was truncated by its time limit.
    pub hit_time_limit: bool,
}

impl LayoutPerfCase {
    /// The case's report object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", self.name.as_str().into()),
            ("algorithm", self.algorithm.as_str().into()),
            ("k", self.k.into()),
            ("shapes", self.shapes.into()),
            ("vertices", self.vertices.into()),
            ("conflict_edges", self.conflict_edges.into()),
            ("components", self.components.into()),
            ("conflicts", self.conflicts.into()),
            ("stitches", self.stitches.into()),
            ("plan_seconds", self.plan_seconds.into()),
            ("color_seconds", self.color_seconds.into()),
            ("division_seconds", self.division_seconds.into()),
            ("bnb_nodes", self.bnb_nodes.into()),
            ("augmenting_paths", self.augmenting_paths.into()),
            ("augmenting_path_bound", self.augmenting_path_bound.into()),
            ("arc_scans", self.arc_scans.into()),
            ("scratch_allocs", self.scratch_allocs.into()),
            ("hit_time_limit", self.hit_time_limit.into()),
        ])
    }
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

    /// The case's report object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", self.name.as_str().into()),
            ("algorithm", self.algorithm.as_str().into()),
            ("k", self.k.into()),
            ("shapes", self.shapes.into()),
            ("vertices", self.vertices.into()),
            ("components", self.components.into()),
            ("no_memo_seconds", self.no_memo_seconds.into()),
            ("cold_seconds", self.cold_seconds.into()),
            ("warm_seconds", self.warm_seconds.into()),
            ("warm_speedup", self.warm_speedup().into()),
            ("cold_hits", self.cold_hits.into()),
            ("cold_misses", self.cold_misses.into()),
            ("warm_hits", self.warm_hits.into()),
            ("warm_misses", self.warm_misses.into()),
            ("cache_entries", self.cache_entries.into()),
            ("cache_evictions", self.cache_evictions.into()),
            ("coloring_diffs", self.coloring_diffs.into()),
        ])
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

impl GdsPerfCase {
    /// The case's report object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", self.name.as_str().into()),
            ("shapes", self.shapes.into()),
            ("rects", self.rects.into()),
            ("layout_bytes", self.layout_bytes.into()),
            ("read_shapes", self.read_shapes.into()),
            ("read_rects", self.read_rects.into()),
            ("vertices", self.vertices.into()),
            ("colored_bytes", self.colored_bytes.into()),
            ("write_seconds", self.write_seconds.into()),
            ("read_seconds", self.read_seconds.into()),
            ("export_seconds", self.export_seconds.into()),
        ])
    }
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

impl BnbPerfCase {
    /// The case's report object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", self.name.as_str().into()),
            ("vertices", self.vertices.into()),
            ("conflict_edges", self.conflict_edges.into()),
            ("k", self.k.into()),
            ("cost", self.cost.into()),
            ("proven_optimal", self.proven_optimal.into()),
            ("nodes", self.nodes.into()),
            ("seconds", self.seconds.into()),
        ])
    }
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
    /// The run's simplify and bound counters: the fringe's hidden
    /// vertices, the surviving kernel handed to the engine, the hide/cut
    /// rounds to the fixed point and the bound improvements.
    pub counters: LayoutCounters,
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

impl KernelPerfCase {
    /// The case's report object, with the counters spliced flat.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", self.name.as_str().into()),
            ("algorithm", self.algorithm.as_str().into()),
            ("k", self.k.into()),
            ("shapes", self.shapes.into()),
            ("vertices", self.vertices.into()),
        ];
        pairs.extend(self.counters.fields());
        pairs.extend([
            ("bnb_nodes", self.bnb_nodes.into()),
            ("conflicts", self.conflicts.into()),
            ("stitches", self.stitches.into()),
            ("spacing_violations", self.spacing_violations.into()),
            ("reinsertion_conflicts", self.reinsertion_conflicts.into()),
            ("proven_optimal", self.proven_optimal.into()),
            ("seconds", self.seconds.into()),
        ]);
        Json::object(pairs)
    }
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
    /// What the tiler did: the grid, the tile pieces, the halo sharing and
    /// the reconciliation counters.
    pub stats: TileStats,
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

    /// The case's report object, with the tiler's statistics spliced flat.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", self.name.as_str().into()),
            ("algorithm", self.algorithm.as_str().into()),
            ("k", self.k.into()),
            ("shapes", self.shapes.into()),
            ("vertices", self.vertices.into()),
            ("tile_size", self.tile_size.into()),
        ];
        pairs.extend(self.stats.fields());
        pairs.extend([
            ("conflicts", self.conflicts.into()),
            ("stitches", self.stitches.into()),
            ("tiled_seconds", self.tiled_seconds.into()),
            ("untiled_seconds", self.untiled_seconds.into()),
            ("tiled_speedup", self.tiled_speedup().into()),
            ("spacing_violations", self.spacing_violations.into()),
            ("control_bit_identical", self.control_bit_identical.into()),
        ]);
        Json::object(pairs)
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
    /// What the hierarchical driver did: the instances and cells, the
    /// resident and split components, the pieces and the reconciliation
    /// counters.
    pub stats: HierStats,
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

    /// The case's report object, with the driver's statistics spliced
    /// flat.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", self.name.as_str().into()),
            ("algorithm", self.algorithm.as_str().into()),
            ("k", self.k.into()),
            ("shapes", self.shapes.into()),
            ("vertices", self.vertices.into()),
        ];
        pairs.extend(self.stats.fields());
        pairs.extend([
            ("conflicts", self.conflicts.into()),
            ("stitches", self.stitches.into()),
            ("hier_seconds", self.hier_seconds.into()),
            ("flat_seconds", self.flat_seconds.into()),
            ("hier_speedup", self.hier_speedup().into()),
            ("spacing_violations", self.spacing_violations.into()),
            ("control_bit_identical", self.control_bit_identical.into()),
        ]);
        Json::object(pairs)
    }
}

/// The full perf report (schema `mpl-bench/perf-v9`).
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The label the run was taken under.
    pub label: String,
    /// The host's `std::thread::available_parallelism` during the run:
    /// planning a large layout (`plan_seconds`, and the memo cases'
    /// `cold_seconds`) uses that many threads, and every pool speedup is
    /// read against it.
    pub available_parallelism: usize,
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
    // simplification and the (K−1)-cut division does real max-flow work on
    // one big component.  The four sides chart how that work scales.
    for (side, _) in LATTICES {
        cases.push((
            gen::contact_array(&tech, side, side, Nm(70)),
            vec![ColorAlgorithm::Linear],
            Duration::from_secs(2),
        ));
    }
    // n contacts stacked on one spot: every pair conflicts, so the one
    // component is the clique K_n, the densest input division can meet.
    for (n, _) in CLIQUES {
        let mut builder = Layout::builder(clique_name(n));
        for _ in 0..n {
            builder.add_contact(Nm(0), Nm(0), tech.min_width());
        }
        cases.push((
            builder.build(),
            vec![ColorAlgorithm::Linear],
            Duration::from_secs(2),
        ));
    }
    cases
}

/// The untiled contact-lattice layout cases, smallest first: contacts per
/// side, and the pinned division arc-scan ceiling — about 2× the measured
/// 50.2k, 98.7k, 162k and 330k scans (5.7 % to 8.4 % of the 595k to
/// 5.74M that max-flow alone scanned before the local certificate).
const LATTICES: [(usize, u64); 4] = [(32, 100_000), (48, 200_000), (64, 320_000), (96, 660_000)];

/// The clique layout cases, smallest first: stacked contacts, and the
/// pinned division arc-scan ceiling — about 2× the measured 63.0k and 1.00M
/// scans (7.97M and 502.5M with max-flow alone).
const CLIQUES: [(usize, u64); 2] = [(250, 126_000), (1000, 2_000_000)];

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

/// How many times each timed layout, memo and GDS step runs; the report
/// keeps the fastest, so a `BENCH_perf.json` diff is not one run's noise.
const REPEATS: usize = 3;

/// The fastest of `times`.
fn best(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The layout name of the untiled contact lattice with `side` contacts a
/// side.
fn lattice_name(side: usize) -> String {
    format!("contact-array-{side}x{side}")
}

/// The layout name of the clique case with `n` stacked contacts.
fn clique_name(n: usize) -> String {
    format!("clique-{n}")
}

/// The pinned arc-scan ceiling of a lattice or clique layout case.
fn arc_scan_ceiling(name: &str) -> Option<u64> {
    let lattices = LATTICES.map(|(side, ceiling)| (lattice_name(side), ceiling));
    let cliques = CLIQUES.map(|(n, ceiling)| (clique_name(n), ceiling));
    lattices
        .into_iter()
        .chain(cliques)
        .find(|(case, _)| case == name)
        .map(|(_, ceiling)| ceiling)
}

/// The GDS cases: `perf-large` written, read back and exported colored.
fn run_gds_cases() -> Result<Vec<GdsPerfCase>, String> {
    [perf_large_layout()].iter().map(run_gds_case).collect()
}

fn run_gds_case(layout: &Layout) -> Result<GdsPerfCase, String> {
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
    eprintln!("  gds {}", case.to_json());
    Ok(case)
}

/// The quadruple-patterning nm20 configuration with `algorithm`.
fn quadruple(algorithm: ColorAlgorithm) -> DecomposerConfig {
    DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm)
}

/// A fresh memo cache of the default capacity.
fn fresh_memo() -> Option<Arc<MemoCache>> {
    Some(Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY)))
}

/// One layout planned and run by [`run_case`].
struct CaseRun {
    /// Wall seconds planning the layout.
    plan_seconds: f64,
    /// Wall seconds in [`run_layouts`]: division, coloring and any
    /// reconciliation.
    run_seconds: f64,
    /// The layout's run, with the tiler's or the hierarchical driver's
    /// statistics when the case asked for them.
    run: LayoutRun,
    /// The session holding the plan, whose graph the spacing checks read.
    session: DecompositionSession,
}

impl CaseRun {
    /// Plan + run wall seconds.
    fn seconds(&self) -> f64 {
        self.plan_seconds + self.run_seconds
    }

    /// The decomposition graph the run colored.
    fn graph(&self) -> &DecompositionGraph {
        self.session
            .plan(self.run.id)
            .expect("the session keeps its plan")
            .graph()
    }
}

/// Plans `layout` with `config`, submits the plan to a fresh session with
/// `memo`, `tiling` and `hierarchy` attached, and runs it through
/// [`run_layouts`] on a one-thread pool — hierarchically exactly when a
/// hierarchy is given — timing the plan and the run separately.
fn run_case(
    layout: &Layout,
    config: &DecomposerConfig,
    memo: Option<Arc<MemoCache>>,
    tiling: Option<TileConfig>,
    hierarchy: Option<LayoutHierarchy>,
) -> Result<CaseRun, String> {
    let decomposer = Decomposer::new(config.clone());
    let start = Instant::now();
    let plan = decomposer
        .plan(layout)
        .map_err(|error| format!("{}: {error}", layout.name()))?;
    let plan_seconds = start.elapsed().as_secs_f64();
    let mut session = DecompositionSession::new();
    session.set_memo(memo);
    session.set_tiling(tiling);
    let id = session.submit(plan);
    let hier = hierarchy.is_some();
    session.set_hierarchy(id, hierarchy.map(Arc::new));
    let start = Instant::now();
    let run = run_layouts(&session, &ThreadPoolExecutor::default(), hier, &())
        .map_err(|error| format!("{}: {error}", layout.name()))?
        .pop()
        .expect("one layout submitted");
    let run_seconds = start.elapsed().as_secs_f64();
    Ok(CaseRun {
        plan_seconds,
        run_seconds,
        run,
        session,
    })
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

/// Decomposes `layout` once without a cache, then [`REPEATS`] times with a
/// fresh cold cache followed by a new session against the now-warm cache.
/// The counters come from the first repeat, the seconds are the fastest.
fn run_memo_case(layout: &Layout, algorithm: ColorAlgorithm) -> Result<MemoPerfCase, String> {
    let config = quadruple(algorithm);
    let no_memo_seconds = run_case(layout, &config, None, None, None)?.seconds();
    let (mut cold_times, mut warm_times) = (Vec::new(), Vec::new());
    let mut first = None;
    for _ in 0..REPEATS {
        let cache = Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY));
        let cold = run_case(layout, &config, Some(Arc::clone(&cache)), None, None)?;
        // A new session against the same cache: everything the cold run
        // learned is stamped back, nothing is re-colored.
        let warm = run_case(layout, &config, Some(Arc::clone(&cache)), None, None)?;
        cold_times.push(cold.seconds());
        warm_times.push(warm.seconds());
        first.get_or_insert((cold.run.result, warm.run.result, cache.stats()));
    }
    let (cold, warm, stats) = first.expect("at least one repeat");
    let coloring_diffs = cold
        .colors()
        .iter()
        .zip(warm.colors())
        .filter(|(a, b)| a != b)
        .count();
    let case = MemoPerfCase {
        name: layout.name().to_string(),
        algorithm: warm.algorithm().to_string(),
        k: warm.k(),
        shapes: layout.shape_count(),
        vertices: warm.vertex_count(),
        components: warm.component_count(),
        no_memo_seconds,
        cold_seconds: best(&cold_times),
        warm_seconds: best(&warm_times),
        cold_hits: cold.memo_hits().unwrap_or(0),
        cold_misses: cold.memo_misses().unwrap_or(0),
        warm_hits: warm.memo_hits().unwrap_or(0),
        warm_misses: warm.memo_misses().unwrap_or(0),
        cache_entries: stats.entries,
        cache_evictions: stats.evictions,
        coloring_diffs,
    };
    eprintln!("  memo {}", case.to_json());
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
/// kernel within 100 branch-and-bound nodes, and greedy reinsertion of
/// the hidden fringe must be conflict-free.
fn run_kernel_cases() -> Result<Vec<KernelPerfCase>, String> {
    let tech = Technology::nm20();
    let layout = kernel_fixture();
    let kernel = run_case(&layout, &quadruple(ColorAlgorithm::Ilp), None, None, None)?;
    let (graph, result) = (kernel.graph(), &kernel.run.result);
    let violations = verify_spacing(graph, result.colors(), tech.coloring_distance(4));
    // The fringe lives strictly above the core (y ≥ 172 nm vs ≤ 116 nm),
    // so violations touching reinserted vertices are classified purely
    // geometrically — independent of the pipeline's own bookkeeping.
    let fringe_floor = Nm(150);
    let in_fringe = |vertex| graph.polygon(vertex).bounding_box().ylo() >= fringe_floor;
    let reinsertion_conflicts = violations
        .iter()
        .filter(|violation| in_fringe(violation.a) || in_fringe(violation.b))
        .count();
    let stats = result.component_stats();
    let bnb_nodes: u64 = stats.iter().map(|s| s.bnb_nodes).sum();
    let proven_optimal = !stats.iter().any(|s| s.hit_time_limit);
    let case = KernelPerfCase {
        name: layout.name().to_string(),
        algorithm: result.algorithm().to_string(),
        k: result.k(),
        shapes: layout.shape_count(),
        vertices: result.vertex_count(),
        counters: result.counters(),
        bnb_nodes,
        conflicts: result.conflicts(),
        stitches: result.stitches(),
        spacing_violations: violations.len(),
        reinsertion_conflicts,
        proven_optimal,
        seconds: kernel.seconds(),
    };
    eprintln!("  kernel {}", case.to_json());
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
    // Every run of the case, the untiled comparison and both controls
    // included, colors under this one budget, so `tiled_speedup` compares
    // like with like.
    let config = quadruple(algorithm).with_ilp_time_limit(Duration::from_secs(2));
    let tiling = Some(TileConfig::new(tile_size));
    let tiled = run_case(&layout, &config, fresh_memo(), tiling, None)?;
    let result = &tiled.run.result;
    // The merged coloring must be spacing-clean under the same geometric
    // checker untiled results answer to — every violation is a counted
    // conflict, nothing hides in a window seam.
    let spacing_violations =
        verify_spacing(tiled.graph(), result.colors(), tech.coloring_distance(4)).len();

    // The untiled comparison run is wall-clock only, so `--check` skips it
    // (it dominates the suite's runtime without adding any counter).
    let untiled_seconds = if options.check {
        None
    } else {
        Some(run_case(&layout, &config, None, None, None)?.seconds())
    };

    // Control: a layout whose single component fits one window must take
    // the resident path and reproduce the untiled coloring bit for bit.
    // Both runs are unmemoized so the identity is an engine-path claim,
    // not a cache artifact.
    let control = gen::contact_array(&tech, 6, 6, Nm(70));
    let control_untiled = run_case(&control, &config, None, None, None)?;
    let one_window = Some(TileConfig::new(Nm(1_000_000)));
    let control_tiled = run_case(&control, &config, None, one_window, None)?;
    let control_bit_identical =
        control_tiled.run.result.colors() == control_untiled.run.result.colors();

    let case = TilePerfCase {
        name: layout.name().to_string(),
        algorithm: result.algorithm().to_string(),
        k: result.k(),
        shapes: layout.shape_count(),
        vertices: result.vertex_count(),
        tile_size: tile_size.value(),
        stats: tiled.run.tiles.expect("a tiled run reports its tiles"),
        conflicts: result.conflicts(),
        stitches: result.stitches(),
        tiled_seconds: tiled.seconds(),
        untiled_seconds,
        spacing_violations,
        control_bit_identical,
    };
    eprintln!("  tile {}", case.to_json());
    Ok(vec![case])
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
    let config = quadruple(algorithm);
    let (layout, hierarchy) = bit_cell_array(12, 12, BitArrayStyle::Merged);
    let hier = run_case(&layout, &config, fresh_memo(), None, Some(hierarchy))?;
    let result = &hier.run.result;
    // The merged coloring must be spacing-clean under the same geometric
    // checker flat results answer to — every violation is a counted
    // conflict, nothing hides at an instance boundary.
    let spacing_violations =
        verify_spacing(hier.graph(), result.colors(), tech.coloring_distance(4)).len();

    // The flatten-then-decompose comparison run is wall-clock only, so
    // `--check` skips it (the giant single component dominates the suite).
    let flat_seconds = if options.check {
        None
    } else {
        Some(run_case(&layout, &config, None, None, None)?.seconds())
    };

    // Control: every instance isolated beyond the color-friendly distance,
    // so the hierarchical path must degenerate to resident components and
    // reproduce the flat memoized coloring bit for bit.
    let (control_layout, control_hierarchy) = bit_cell_array(6, 6, BitArrayStyle::Isolated);
    let control_flat = run_case(&control_layout, &config, fresh_memo(), None, None)?;
    let control_hier = run_case(
        &control_layout,
        &config,
        fresh_memo(),
        None,
        Some(control_hierarchy),
    )?;
    let control_bit_identical =
        control_hier.run.result.colors() == control_flat.run.result.colors();

    let case = HierPerfCase {
        name: layout.name().to_string(),
        algorithm: result.algorithm().to_string(),
        k: result.k(),
        shapes: layout.shape_count(),
        vertices: result.vertex_count(),
        stats: hier
            .run
            .hierarchy
            .expect("a hier run reports its hierarchy"),
        conflicts: result.conflicts(),
        stitches: result.stitches(),
        hier_seconds: hier.seconds(),
        flat_seconds,
        spacing_violations,
        control_bit_identical,
    };
    eprintln!("  hier {}", case.to_json());
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
            let config = quadruple(algorithm).with_ilp_time_limit(ilp_limit);
            let (mut plan_times, mut color_times) = (Vec::new(), Vec::new());
            let mut division_times = Vec::new();
            let mut first = None;
            for _ in 0..REPEATS {
                let case_run = run_case(&layout, &config, None, None, None)?;
                plan_times.push(case_run.plan_seconds);
                color_times.push(case_run.run_seconds);
                let result = case_run.run.result;
                let stats = result.component_stats();
                division_times.push(stats.iter().map(|s| s.division_time.as_secs_f64()).sum());
                // Later repeats find this thread's division scratch warm,
                // so the counters are the first run's.
                first.get_or_insert(result);
            }
            let result = first.expect("at least one repeat");
            let stats = result.component_stats();
            let case = LayoutPerfCase {
                name: layout.name().to_string(),
                algorithm: result.algorithm().to_string(),
                k: result.k(),
                shapes: layout.shape_count(),
                vertices: result.vertex_count(),
                conflict_edges: result.conflict_edge_count(),
                components: result.component_count(),
                conflicts: result.conflicts(),
                stitches: result.stitches(),
                plan_seconds: best(&plan_times),
                color_seconds: best(&color_times),
                division_seconds: best(&division_times),
                bnb_nodes: stats.iter().map(|s| s.bnb_nodes).sum(),
                augmenting_paths: stats.iter().map(|s| s.augmenting_paths).sum(),
                augmenting_path_bound: stats.iter().map(|s| s.augmenting_path_bound).sum(),
                arc_scans: stats.iter().map(|s| s.arc_scans).sum(),
                scratch_allocs: stats.iter().map(|s| s.scratch_allocs).sum(),
                hit_time_limit: stats.iter().any(|s| s.hit_time_limit),
            };
            eprintln!("  layout {}", case.to_json());
            layouts.push(case);
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
        let case = BnbPerfCase {
            name,
            vertices: instance.vertex_count(),
            conflict_edges: instance.conflict_edges().len(),
            k: instance.k(),
            cost: solution.cost,
            proven_optimal: solution.proven_optimal,
            nodes: solution.nodes,
            seconds,
        };
        eprintln!("  bnb {}", case.to_json());
        bnb.push(case);
    }

    Ok(PerfReport {
        label: options.label.clone(),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
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
    /// The machine-readable report (schema `mpl-bench/perf-v9`; v2 added
    /// the `memo_cases` array to v1, v3 the `tile_cases` array, v4 the
    /// `hier_cases` array, v5 the `kernel_cases` array, v6 the per-layout
    /// `arc_scans` counter, v7 the `gds_cases` array, v8 the whole
    /// [`TileStats`], [`HierStats`] and [`LayoutCounters`] records in the
    /// tile, hier and kernel cases, v9 the header's
    /// `available_parallelism`).  `BENCH_perf.json` is its `{:#}`
    /// document layout plus a trailing newline; each case is one line.
    pub fn to_json(&self) -> Json {
        fn cases<T>(cases: &[T], to_json: fn(&T) -> Json) -> Json {
            Json::Array(cases.iter().map(to_json).collect())
        }
        Json::object(vec![
            ("schema", "mpl-bench/perf-v9".into()),
            ("label", self.label.as_str().into()),
            ("available_parallelism", self.available_parallelism.into()),
            ("layouts", cases(&self.layouts, LayoutPerfCase::to_json)),
            ("gds_cases", cases(&self.gds, GdsPerfCase::to_json)),
            ("memo_cases", cases(&self.memo, MemoPerfCase::to_json)),
            ("kernel_cases", cases(&self.kernel, KernelPerfCase::to_json)),
            ("tile_cases", cases(&self.tile, TilePerfCase::to_json)),
            ("hier_cases", cases(&self.hier, HierPerfCase::to_json)),
            ("bnb_cases", cases(&self.bnb, BnbPerfCase::to_json)),
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
            if case.augmenting_paths > case.augmenting_path_bound {
                violations.push(format!(
                    "layout {} ({}): {} augmenting paths exceeds the n·K bound {}",
                    case.name, case.algorithm, case.augmenting_paths, case.augmenting_path_bound
                ));
            }
            if let Some(ceiling) = arc_scan_ceiling(&case.name) {
                if case.arc_scans > ceiling {
                    violations.push(format!(
                        "layout {} ({}): {} division arc scans exceeds the ceiling {ceiling}",
                        case.name, case.algorithm, case.arc_scans
                    ));
                }
            }
            // Warm-path allocation discipline: a serial run of the whole
            // suite grows its scratch buffers a handful of times, not once
            // per component (the 911 perf-large components measured 2
            // events on the Linear engine and 0 on the ILP one).
            if case.scratch_allocs > 64 {
                violations.push(format!(
                    "layout {} ({}): {} scratch allocation events exceeds the ceiling 64",
                    case.name, case.algorithm, case.scratch_allocs
                ));
            }
            // Measured 2,368 nodes across 911 components.
            if case.name == "perf-large" && case.algorithm == "ILP" && case.bnb_nodes > 150_000 {
                violations.push(format!(
                    "layout perf-large (ILP): {} B&B nodes exceeds the ceiling 150000",
                    case.bnb_nodes
                ));
            }
        }
        // Near-linear division: arc scans per vertex of a lattice (measured
        // 0.73× from 32×32 to 96×96) and per conflict edge of a clique
        // (measured 0.99× from K_250 to K_1000; 3.9× with max-flow alone)
        // may grow at most 1.5× from the smallest case to the largest.
        let per_vertex: fn(&LayoutPerfCase) -> usize = |case| case.vertices;
        let per_edge: fn(&LayoutPerfCase) -> usize = |case| case.conflict_edges;
        for (small, large, unit, size) in [
            (
                lattice_name(LATTICES[0].0),
                lattice_name(LATTICES[LATTICES.len() - 1].0),
                "vertex",
                per_vertex,
            ),
            (
                clique_name(CLIQUES[0].0),
                clique_name(CLIQUES[CLIQUES.len() - 1].0),
                "conflict edge",
                per_edge,
            ),
        ] {
            let scans_per_unit = |name: &str| {
                let case = self.layouts.iter().find(|case| case.name == name)?;
                Some(case.arc_scans as f64 / size(case).max(1) as f64)
            };
            if let (Some(base), Some(top)) = (scans_per_unit(&small), scans_per_unit(&large)) {
                if top > 1.5 * base {
                    violations.push(format!(
                        "division grows superlinearly: {top:.1} arc scans per {unit} in \
                         {large} exceeds 1.5× the {base:.1} in {small}"
                    ));
                }
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
            // close the kernel within 100 nodes (measured 41),
            // greedy reinsertion must stay conflict-free, and the final
            // coloring must be spacing-clean and provably optimal.
            if case.counters.simplify_rounds == 0 {
                violations.push(format!(
                    "kernel case {}: iterated simplification never ran",
                    case.name
                ));
            }
            if case.counters.hidden_vertices == 0 {
                violations.push(format!(
                    "kernel case {}: simplification hid no vertices — the fringe survived",
                    case.name
                ));
            }
            if case.counters.kernel_vertices > 12 {
                violations.push(format!(
                    "kernel case {}: {} kernel vertices exceed the 12-vertex two-K7 core",
                    case.name, case.counters.kernel_vertices
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
            if case.stats.tiles <= 1 {
                violations.push(format!(
                    "tile case {}: only {} tile sub-problems — the full-chip shard collapsed",
                    case.name, case.stats.tiles
                ));
            }
            if case.stats.cross_conflicts_after != 0 {
                violations.push(format!(
                    "tile case {}: {} cross-window conflicts survive reconciliation",
                    case.name, case.stats.cross_conflicts_after
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
            if case.stats.instances <= 1 {
                violations.push(format!(
                    "hier case {}: only {} instances — the hierarchy collapsed",
                    case.name, case.stats.instances
                ));
            }
            if case.stats.instance_pieces < case.stats.instances {
                violations.push(format!(
                    "hier case {}: {} instance pieces cover fewer than {} instances",
                    case.name, case.stats.instance_pieces, case.stats.instances
                ));
            }
            if case.stats.cross_conflicts_after != 0 {
                violations.push(format!(
                    "hier case {}: {} cross-instance conflicts survive reconciliation",
                    case.name, case.stats.cross_conflicts_after
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
            available_parallelism: 2,
            layouts: Vec::new(),
            gds: Vec::new(),
            memo: Vec::new(),
            kernel: Vec::new(),
            tile: Vec::new(),
            hier: Vec::new(),
            bnb: Vec::new(),
        };
        let json = format!("{:#}", report.to_json());
        assert!(json.contains("\"schema\": \"mpl-bench/perf-v9\""));
        assert!(json.contains("\"available_parallelism\": 2"));
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

    /// A Linear-engine layout case named `name` with `vertices` vertices,
    /// `conflict_edges` edges and `arc_scans` division arc scans.
    fn division_case(
        name: String,
        vertices: usize,
        conflict_edges: usize,
        arc_scans: u64,
    ) -> LayoutPerfCase {
        LayoutPerfCase {
            name,
            algorithm: "Linear".to_string(),
            k: 4,
            shapes: vertices,
            vertices,
            conflict_edges,
            components: 1,
            conflicts: 0,
            stitches: 0,
            plan_seconds: 0.01,
            color_seconds: 0.01,
            division_seconds: 0.01,
            bnb_nodes: 0,
            augmenting_paths: 0,
            augmenting_path_bound: 4 * vertices as u64,
            arc_scans,
            scratch_allocs: 5,
            hit_time_limit: false,
        }
    }

    fn layout_report(layouts: Vec<LayoutPerfCase>) -> PerfReport {
        PerfReport {
            label: "test".to_string(),
            available_parallelism: 2,
            layouts,
            gds: Vec::new(),
            memo: Vec::new(),
            kernel: Vec::new(),
            tile: Vec::new(),
            hier: Vec::new(),
            bnb: Vec::new(),
        }
    }

    #[test]
    fn lattice_ceilings_catch_oversized_and_superlinear_arc_scans() {
        let lattice = |side: usize, arc_scans: u64| {
            division_case(lattice_name(side), side * side, 4 * side * side, arc_scans)
        };
        let measured = vec![
            lattice(32, 50_222),
            lattice(48, 98_716),
            lattice(64, 161_548),
            lattice(96, 330_216),
        ];
        let mut report = layout_report(measured.clone());
        assert!(report.check_ceilings().is_ok());

        // Under the 32-side ceiling, but then the 96-side scans per vertex
        // are 1.8× the 32-side ones.
        report.layouts[0].arc_scans = 20_000;
        let violations = report
            .check_ceilings()
            .expect_err("superlinear growth fails");
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("superlinearly"), "{violations:?}");

        report.layouts = measured;
        report.layouts[1].arc_scans = 300_000;
        let violations = report.check_ceilings().expect_err("48-side ceiling fails");
        assert!(
            violations
                .iter()
                .any(|v| v.contains("exceeds the ceiling 200000")),
            "{violations:?}"
        );
    }

    #[test]
    fn clique_ceilings_catch_cubic_division() {
        let clique =
            |n: usize, arc_scans: u64| division_case(clique_name(n), n, n * (n - 1) / 2, arc_scans);
        let report = layout_report(vec![clique(250, 62_997), clique(1000, 1_001_997)]);
        assert!(report.check_ceilings().is_ok());

        // Max-flow alone scanned 7.97M and 502.5M arcs, 256 and 1006 per
        // conflict edge: both ceilings and the growth check fail.
        let report = layout_report(vec![clique(250, 7_970_000), clique(1000, 502_500_000)]);
        let violations = report.check_ceilings().expect_err("cubic division fails");
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(
            violations[2].contains("per conflict edge in clique-1000"),
            "{violations:?}"
        );

        // Growth alone, under both ceilings.
        let report = layout_report(vec![clique(250, 30_000), clique(1000, 1_001_997)]);
        let violations = report
            .check_ceilings()
            .expect_err("superlinear growth fails");
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("superlinearly"), "{violations:?}");
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
            available_parallelism: 2,
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
            available_parallelism: 2,
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
            counters: LayoutCounters {
                hidden_vertices: 8,
                kernel_vertices: 12,
                simplify_rounds: 1,
                bound_improvements: 0,
            },
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
            available_parallelism: 2,
            layouts: Vec::new(),
            gds: Vec::new(),
            memo: Vec::new(),
            kernel: vec![case.clone()],
            tile: Vec::new(),
            hier: Vec::new(),
            bnb: Vec::new(),
        };
        assert!(report.check_ceilings().is_ok());

        report.kernel[0].counters.hidden_vertices = 0;
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
            counters: LayoutCounters {
                kernel_vertices: 18,
                hidden_vertices: 2,
                ..case.counters
            },
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
            stats: TileStats {
                grid_x: 17,
                grid_y: 17,
                tiles: 289,
                tiled_components: 1,
                resident_components: 0,
                shared_vertices: 2000,
                permuted_tiles: 10,
                recolored_vertices: 0,
                cross_conflicts_before: 40,
                cross_conflicts_after: 0,
            },
            conflicts: 0,
            stitches: 0,
            tiled_seconds: 0.2,
            untiled_seconds: Some(10.0),
            spacing_violations: 0,
            control_bit_identical: true,
        };
        let mut report = PerfReport {
            label: "test".to_string(),
            available_parallelism: 2,
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

        report.tile[0].stats.cross_conflicts_after = 2;
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

        report.tile[0] = TilePerfCase {
            stats: TileStats {
                tiles: 1,
                ..case.stats
            },
            ..case
        };
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
            stats: HierStats {
                instances: 144,
                cells: 1,
                nested_inherited: 0,
                resident_components: 0,
                split_components: 1,
                instance_pieces: 144,
                boundary_vertices: 300,
                permuted_pieces: 20,
                recolored_vertices: 0,
                cross_conflicts_before: 10,
                cross_conflicts_after: 0,
            },
            conflicts: 0,
            stitches: 0,
            hier_seconds: 0.05,
            flat_seconds: Some(1.0),
            spacing_violations: 0,
            control_bit_identical: true,
        };
        let mut report = PerfReport {
            label: "test".to_string(),
            available_parallelism: 2,
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

        report.hier[0].stats.cross_conflicts_after = 3;
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
            stats: HierStats {
                instance_pieces: 100,
                ..case.stats
            },
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
