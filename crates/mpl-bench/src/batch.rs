//! Batch benchmarking: many layouts through one [`DecompositionSession`]
//! on a shared thread pool, with machine-readable `BENCH_*.json` reports.
//!
//! The table harness measures one (circuit, algorithm) cell at a time; this
//! module measures *fleets* of layouts the way a production decomposer is
//! driven — every layout's components in one largest-first queue — and
//! reports aggregate throughput (layouts/sec, components/sec) alongside the
//! per-layout breakdown.  Parse (file load) time is tracked separately from
//! planning (graph build) and coloring time, so I/O regressions never hide
//! inside decomposition numbers and vice versa.
//!
//! [`BatchBenchReport::to_json`] renders a stable schema
//! (`mpl-bench/batch-v2`) intended to be committed or archived per PR, so
//! the performance trajectory is tracked across changes.

use crate::workload::TimedLayout;
use mpl_core::{
    ColorAlgorithm, ConfigError, DecomposeError, Decomposer, DecompositionSession, Json,
    JsonRecord, MemoCache, MemoStats, ThreadPoolExecutor, TileConfig,
};
use mpl_serve::{run_layouts, ResultPayload};
use std::sync::Arc;
use std::time::Instant;

/// One layout's row of a batch run: its input plus its record.
#[derive(Debug, Clone)]
pub struct LayoutBenchStats {
    /// The path the layout was loaded from (empty for generated layouts).
    pub path: String,
    /// Number of shapes in the input layout.
    pub shapes: usize,
    /// Seconds spent parsing the input file (0 for generated layouts).
    pub parse_seconds: f64,
    /// The layout's record, as `qpl-decompose --json` and a served
    /// `result` frame report it: `graph_seconds` is the planning time
    /// (graph build and tasks), `color_seconds` runs from batch start
    /// until the layout's last component finished, and `tiles` /
    /// `hierarchy` are set when the batch ran tiled / hierarchically.
    pub record: ResultPayload,
}

/// The result of one batch benchmark run: per-layout rows plus the batch
/// aggregate.
#[derive(Debug, Clone)]
pub struct BatchBenchReport {
    /// Mask count K.
    pub k: usize,
    /// The color-assignment engine used for every layout.
    pub algorithm: String,
    /// The pool that drained the batch (`serial` or e.g. `threads:2`).
    pub executor: String,
    /// Wall-clock seconds spent draining the whole batch.
    pub batch_wall_seconds: f64,
    /// End-of-run snapshot of the shared memo cache, when one was
    /// attached.
    pub memo: Option<MemoStats>,
    /// The tiling the batch ran under, when sharded through `mpl-tile`.
    pub tiling: Option<TileConfig>,
    /// Whether the batch decomposed hierarchically through `mpl-hier`.
    pub hier: bool,
    /// Per-layout rows, in submission order.
    pub layouts: Vec<LayoutBenchStats>,
}

impl BatchBenchReport {
    /// Total number of component tasks across the batch.
    pub fn component_count(&self) -> usize {
        self.layouts.iter().map(|row| row.record.components).sum()
    }

    /// Total seconds spent parsing input files.
    pub fn total_parse_seconds(&self) -> f64 {
        self.layouts.iter().map(|row| row.parse_seconds).sum()
    }

    /// Total seconds spent planning (graph construction).
    pub fn total_plan_seconds(&self) -> f64 {
        self.layouts
            .iter()
            .map(|row| row.record.graph_seconds)
            .sum()
    }

    /// Layouts decomposed per second of batch wall time, or `None` when
    /// the clock registered no elapsed time (a rate computed against a
    /// zero duration would be meaningless).
    pub fn layouts_per_sec(&self) -> Option<f64> {
        (self.batch_wall_seconds > 0.0).then(|| self.layouts.len() as f64 / self.batch_wall_seconds)
    }

    /// Component tasks colored per second of batch wall time, or `None`
    /// when the clock registered no elapsed time.
    pub fn components_per_sec(&self) -> Option<f64> {
        (self.batch_wall_seconds > 0.0)
            .then(|| self.component_count() as f64 / self.batch_wall_seconds)
    }

    /// The machine-readable report (schema `mpl-bench/batch-v2`); `{:#}`
    /// renders the `BENCH_*.json` document layout.
    ///
    /// Each row is `path`, `shapes` and `parse_seconds` followed by the
    /// layout's record ([`ResultPayload::fields`]).  Memo fields
    /// (`batch.memo`, per-row `memo_hits`/`memo_misses`), tiling fields
    /// (`batch.tiling`, per-row `tiles`), and hierarchy fields
    /// (`batch.hier`, per-row `hierarchy`) appear only when the run was
    /// memoized/tiled/hierarchical.  The throughput rates are `null` when
    /// the batch clock registered no elapsed time — consumers must not
    /// divide by, or trust, a rate computed against a zero duration.
    pub fn to_json(&self) -> Json {
        let mut batch = vec![
            ("layouts", self.layouts.len().into()),
            ("components", self.component_count().into()),
        ];
        if let Some(memo) = &self.memo {
            batch.push(("memo", memo.to_json()));
        }
        if let Some(tiling) = &self.tiling {
            batch.push((
                "tiling",
                Json::object(vec![
                    ("tile_size", tiling.tile_size.value().into()),
                    ("halo", tiling.halo.map(|halo| halo.value()).into()),
                ]),
            ));
        }
        if self.hier {
            batch.push(("hier", true.into()));
        }
        batch.extend([
            ("parse_seconds", self.total_parse_seconds().into()),
            ("plan_seconds", self.total_plan_seconds().into()),
            ("wall_seconds", self.batch_wall_seconds.into()),
            ("layouts_per_sec", self.layouts_per_sec().into()),
            ("components_per_sec", self.components_per_sec().into()),
        ]);
        let rows = self
            .layouts
            .iter()
            .map(|row| {
                let mut pairs = vec![
                    ("path", row.path.as_str().into()),
                    ("shapes", row.shapes.into()),
                    ("parse_seconds", row.parse_seconds.into()),
                ];
                pairs.extend(row.record.fields());
                Json::object(pairs)
            })
            .collect();
        Json::object(vec![
            ("schema", "mpl-bench/batch-v2".into()),
            ("k", self.k.into()),
            ("algorithm", self.algorithm.as_str().into()),
            ("executor", self.executor.as_str().into()),
            ("batch", Json::object(batch)),
            ("layouts", Json::Array(rows)),
        ])
    }
}

/// Runs `layouts` as one batch on `pool` and measures everything.
///
/// With `memo`, the session stamps translation-identical components from
/// the given cache instead of re-coloring them; pass a pre-warmed cache to
/// measure warm-path throughput, a fresh one to measure cold, or `None`
/// (the historical behaviour) to keep memoization out of the measurement.
///
/// With `tiling`, every layout is sharded into halo-expanded tile windows
/// through `mpl-tile` and the per-row reports carry the reconciliation
/// statistics; `None` runs the plain batch engine.
///
/// With `hier`, layouts that loaded with a cell-instance hierarchy (GDSII
/// files, see [`crate::workload::load_layout_timed`]) decompose
/// cell-by-cell through `mpl-hier` and the per-row reports carry the
/// hierarchy reconciliation statistics; layouts without a hierarchy
/// degenerate to the flat path inside the same run.  Every run goes
/// through [`mpl_serve::run_layouts`], the driver dispatch the CLI and the
/// server use.
///
/// # Errors
///
/// Propagates the first layout's typed planning error (e.g. a degenerate
/// shape in a user-supplied file), the typed configuration error of an
/// invalid tiling (non-positive tile size, halo below the coloring
/// distance), or [`ConfigError::HierWithTiling`] when `hier` is combined
/// with a tiling.
pub fn run_batch_bench(
    layouts: &[TimedLayout],
    k: usize,
    algorithm: ColorAlgorithm,
    pool: &ThreadPoolExecutor,
    memo: Option<Arc<MemoCache>>,
    tiling: Option<TileConfig>,
    hier: bool,
) -> Result<BatchBenchReport, DecomposeError> {
    if hier && tiling.is_some() {
        return Err(DecomposeError::Config(ConfigError::HierWithTiling));
    }
    let decomposer = Decomposer::new(crate::table_config(k, algorithm));
    let mut session = DecompositionSession::new();
    if let Some(cache) = &memo {
        session = session.with_memo(Arc::clone(cache));
    }
    session.set_tiling(tiling);
    for timed in layouts {
        let id = session.submit_layout(&decomposer, &timed.layout)?;
        if hier {
            session.set_hierarchy(id, timed.hierarchy.clone());
        }
    }
    let batch_start = Instant::now();
    let runs = run_layouts(&session, pool, hier, &()).map_err(DecomposeError::Config)?;
    let batch_wall_seconds = batch_start.elapsed().as_secs_f64();

    let rows = runs
        .iter()
        .zip(layouts)
        .enumerate()
        .map(|(index, (run, timed))| LayoutBenchStats {
            path: timed.path.clone(),
            shapes: timed.layout.shape_count(),
            parse_seconds: timed.parse_seconds,
            record: ResultPayload::from_run(index.to_string(), run, None),
        })
        .collect();
    Ok(BatchBenchReport {
        k,
        algorithm: algorithm.name().to_string(),
        executor: pool.name().to_string(),
        batch_wall_seconds,
        memo: memo.map(|cache| cache.stats()),
        tiling,
        hier,
        layouts: rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_layout::{gen, io, Technology};

    fn timed(name: &str, seed: u64) -> TimedLayout {
        TimedLayout {
            path: format!("<generated {name}>"),
            layout: gen::generate_row_layout(
                &gen::RowLayoutConfig::small(name, seed),
                &Technology::nm20(),
            ),
            hierarchy: None,
            parse_seconds: 0.0,
        }
    }

    #[test]
    fn batch_bench_reports_per_layout_and_aggregate_numbers() {
        let layouts = [timed("bb-a", 3), timed("bb-b", 7)];
        let report = run_batch_bench(
            &layouts,
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            None,
            false,
        )
        .expect("valid");
        assert_eq!(report.layouts.len(), 2);
        assert_eq!(report.k, 4);
        assert_eq!(report.algorithm, "Linear");
        assert_eq!(report.executor, "serial");
        assert!(report.batch_wall_seconds > 0.0);
        let layouts_per_sec = report.layouts_per_sec().expect("non-zero wall time");
        let components_per_sec = report.components_per_sec().expect("non-zero wall time");
        assert!(layouts_per_sec > 0.0);
        assert!(components_per_sec >= layouts_per_sec);
        let components: usize = report.layouts.iter().map(|row| row.record.components).sum();
        assert_eq!(report.component_count(), components);
        for row in &report.layouts {
            assert!(row.record.vertices > 0);
            assert!(row.record.components > 0);
            assert!(row.record.graph_seconds >= 0.0);
        }
    }

    #[test]
    fn batch_results_match_the_single_layout_flow() {
        let layouts = [timed("bb-x", 5), timed("bb-y", 9)];
        let report = run_batch_bench(
            &layouts,
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            None,
            false,
        )
        .expect("valid");
        for (row, timed) in report.layouts.iter().zip(&layouts) {
            let standalone = Decomposer::new(crate::table_config(4, ColorAlgorithm::Linear))
                .decompose(&timed.layout)
                .expect("valid");
            assert_eq!(row.record.conflicts, standalone.conflicts());
            assert_eq!(row.record.stitches, standalone.stitches());
        }
    }

    #[test]
    fn json_report_is_well_formed_enough_to_round_trip_key_fields() {
        let layouts = [timed("bb-json \"quoted\"", 3)];
        let report = run_batch_bench(
            &layouts,
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            None,
            false,
        )
        .expect("valid");
        let json = format!("{:#}", report.to_json());
        assert!(json.contains("\"schema\": \"mpl-bench/batch-v2\""));
        assert!(json.contains("\"layouts_per_sec\""));
        assert!(json.contains("\\\"quoted\\\""));
        // Balanced braces/brackets — a cheap structural sanity check that
        // catches trailing-comma/unclosed-array regressions without a JSON
        // parser dependency.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close} in {json}");
        }
    }

    #[test]
    fn zero_duration_batches_report_null_rates() {
        // A batch whose clock registered no elapsed time must report null
        // rates, not the absurd numbers a `max(1e-12)` clamp produced.
        let mut report = run_batch_bench(
            &[timed("bb-zero", 13)],
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            None,
            false,
        )
        .expect("valid");
        report.batch_wall_seconds = 0.0;
        assert_eq!(report.layouts_per_sec(), None);
        assert_eq!(report.components_per_sec(), None);
        let json = format!("{:#}", report.to_json());
        assert!(json.contains("\"layouts_per_sec\": null"));
        assert!(json.contains("\"components_per_sec\": null"));
    }

    #[test]
    fn memoized_batch_reports_counters_and_a_cache_snapshot() {
        let layouts = [timed("bb-twin", 11), timed("bb-twin", 11)];
        let cache = Arc::new(MemoCache::new(4096));
        let report = run_batch_bench(
            &layouts,
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            Some(Arc::clone(&cache)),
            None,
            false,
        )
        .expect("valid");
        let memo = report.memo.expect("memoized run snapshots the cache");
        assert!(memo.entries > 0);
        for row in &report.layouts {
            let hits = row
                .record
                .memo_hits
                .expect("memoized rows carry hit counts");
            let misses = row
                .record
                .memo_misses
                .expect("memoized rows carry miss counts");
            assert_eq!(hits + misses, row.record.components);
        }
        // The second, identical layout is stamped entirely from the first.
        let twin = &report.layouts[1].record;
        assert_eq!(twin.memo_hits, Some(twin.components));
        let json = format!("{:#}", report.to_json());
        assert!(json.contains("\"memo\": {\"entries\""));
        assert!(json.contains("\"memo_hits\""));

        // An unmemoized run carries no memo fields at all.
        let plain = run_batch_bench(
            &layouts,
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            None,
            false,
        )
        .expect("valid");
        assert!(plain.memo.is_none());
        assert!(!format!("{:#}", plain.to_json()).contains("memo"));
    }

    #[test]
    fn parse_time_is_reported_separately_from_decompose_time() {
        let tech = Technology::nm20();
        let layout = gen::fig1_contact_clique(&tech);
        let mut path = std::env::temp_dir();
        path.push(format!("mpl-bench-batch-parse-{}.txt", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        std::fs::write(&path, io::to_text(&layout)).expect("write text");
        let timed = crate::workload::load_layout_timed(&path, &[]).expect("load");
        assert!(timed.hierarchy.is_none(), "text layouts are flat");
        assert!(timed.parse_seconds > 0.0);
        assert_eq!(timed.path, path);
        let report = run_batch_bench(
            &[timed],
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            None,
            false,
        )
        .expect("valid");
        assert_eq!(
            report.layouts[0].parse_seconds,
            report.total_parse_seconds()
        );
        assert!(format!("{:#}", report.to_json()).contains("parse_seconds"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiled_batch_reports_reconciliation_columns_and_matches_untiled_quality() {
        use mpl_geometry::Nm;
        let tech = Technology::nm20();
        // One chip-spanning degree-8 lattice: several 300 nm windows.
        let lattice = TimedLayout {
            path: String::new(),
            layout: gen::contact_array(&tech, 12, 12, Nm(70)),
            hierarchy: None,
            parse_seconds: 0.0,
        };
        let tiling = TileConfig::new(Nm(300));
        let report = std::slice::from_ref(&lattice);
        let tiled = run_batch_bench(
            report,
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            Some(tiling),
            false,
        )
        .expect("valid tiling");
        assert_eq!(tiled.tiling, Some(tiling));
        let row = &tiled.layouts[0];
        let tiles = row.record.tiles.expect("tiled rows carry tile stats");
        assert!(tiles.tiles > 1);
        assert_eq!(tiles.tiled_components, 1);
        assert!(tiles.cross_conflicts_after <= tiles.cross_conflicts_before);
        let json = format!("{:#}", tiled.to_json());
        assert!(json.contains("\"tiling\": {\"tile_size\": 300, \"halo\": null}"));
        assert!(json.contains("\"cross_conflicts_after\""));

        // An untiled run of the same batch carries no tiling fields at all.
        let plain = run_batch_bench(
            report,
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            None,
            false,
        )
        .expect("valid");
        assert!(plain.tiling.is_none());
        assert!(plain.layouts[0].record.tiles.is_none());
        assert!(!format!("{:#}", plain.to_json()).contains("tiling"));
    }

    #[test]
    fn hier_batch_reports_instance_columns_and_rejects_tiling() {
        use mpl_geometry::Nm;
        use mpl_hier::fixtures::{bit_cell_array, BitArrayStyle};
        let (layout, hierarchy) = bit_cell_array(4, 3, BitArrayStyle::Merged);
        let timed = TimedLayout {
            path: String::new(),
            layout,
            hierarchy: Some(Arc::new(hierarchy)),
            parse_seconds: 0.0,
        };
        let report = run_batch_bench(
            std::slice::from_ref(&timed),
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            None,
            true,
        )
        .expect("valid hier batch");
        assert!(report.hier);
        let row = &report.layouts[0];
        let hier = row
            .record
            .hierarchy
            .expect("hier rows carry hierarchy stats");
        assert_eq!(hier.instances, 12);
        assert_eq!(hier.cells, 1);
        assert_eq!(hier.cross_conflicts_after, 0);
        assert_eq!(row.record.conflicts, 0);
        let json = format!("{:#}", report.to_json());
        assert!(json.contains("\"hier\": true"));
        assert!(json.contains("\"hierarchy\": {\"instances\": 12"));

        // Hierarchy and tiling shard by different axes; the combination is
        // the pipeline's typed contradiction, rejected before any work.
        let error = run_batch_bench(
            std::slice::from_ref(&timed),
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            Some(TileConfig::new(Nm(300))),
            true,
        )
        .unwrap_err();
        assert!(error.to_string().contains("cannot be combined with tiling"));

        // A flat run of the same input carries no hier fields at all.
        let plain = run_batch_bench(
            std::slice::from_ref(&timed),
            4,
            ColorAlgorithm::Linear,
            &ThreadPoolExecutor::default(),
            None,
            None,
            false,
        )
        .expect("valid");
        assert!(!plain.hier);
        assert!(plain.layouts[0].record.hierarchy.is_none());
        let json = format!("{:#}", plain.to_json());
        assert!(!json.contains("\"hier\"") && !json.contains("\"hierarchy\""));
    }
}
