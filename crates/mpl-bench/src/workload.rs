//! Workload ingestion: benchmark tables over real layout files.
//!
//! The original tables run on the synthetic ISCAS-style circuits; this
//! module opens arbitrary layout files — the text format or GDSII — as
//! additional table rows, so real routed benchmarks can be measured with
//! the same harness. Format dispatch and error reporting live in
//! [`mpl_gds::layout_from_bytes`]; this module only adds the `--layer`
//! specification plumbing, the parse timer and the table loop.

use mpl_core::{ColorAlgorithm, DecomposeError, TableReport, ThreadPoolExecutor};
use mpl_gds::{LayerMap, ReadOptions};
use mpl_layout::{Layout, LayoutHierarchy};
use std::sync::Arc;

pub use mpl_gds::LoadLayoutError as WorkloadError;

/// A loaded layout together with where it came from and how long the load
/// (parse) took — the input unit of the batch benchmark harness
/// ([`crate::batch`]), which reports parse time separately from decompose
/// time.
#[derive(Debug, Clone)]
pub struct TimedLayout {
    /// The file the layout was loaded from (or a `<generated …>` marker).
    pub path: String,
    /// The layout itself.
    pub layout: Layout,
    /// The cell-instance hierarchy of a GDSII file (read only by a
    /// hierarchical batch); text layouts are flat by construction.
    pub hierarchy: Option<Arc<LayoutHierarchy>>,
    /// Wall-clock seconds spent loading and parsing the file.
    pub parse_seconds: f64,
}

/// Loads a layout file once, dispatching on the detected format (text or
/// GDSII), and times the load.
///
/// `layer_specs` restricts GDSII imports to the given `L[:D]` pairs; it is
/// ignored for text layouts, which are single-layer by construction.
///
/// # Errors
///
/// Returns a [`WorkloadError`] describing the failing path and cause.
pub fn load_layout_timed(path: &str, layer_specs: &[String]) -> Result<TimedLayout, WorkloadError> {
    let map = LayerMap::from_specs(layer_specs).map_err(|error| WorkloadError::Gds {
        path: path.to_string(),
        error,
    })?;
    let parse_start = std::time::Instant::now();
    let bytes = std::fs::read(path).map_err(|error| WorkloadError::Io {
        path: path.to_string(),
        message: error.to_string(),
    })?;
    let (layout, hierarchy) =
        mpl_gds::layout_from_bytes(path, &bytes, &map, &ReadOptions::default())?;
    Ok(TimedLayout {
        path: path.to_string(),
        layout,
        hierarchy: hierarchy.map(Arc::new),
        parse_seconds: parse_start.elapsed().as_secs_f64(),
    })
}

/// Runs the table cells for a list of pre-loaded layouts on `pool`,
/// printing each row as it finishes.
///
/// # Errors
///
/// Propagates the first cell's typed planning error (e.g. a degenerate
/// shape in a user-supplied layout file).
pub fn run_layout_table_on(
    layouts: &[Layout],
    algorithms: &[ColorAlgorithm],
    k: usize,
    pool: &ThreadPoolExecutor,
) -> Result<TableReport, DecomposeError> {
    let mut report = TableReport::new();
    for layout in layouts {
        for &algorithm in algorithms {
            let row = crate::run_cell_on(layout, k, algorithm, pool)?;
            eprintln!(
                "  {:<8} {:<14} cn#={:<4} st#={:<5} cpu={:.3}s",
                row.circuit, row.algorithm, row.conflicts, row.stitches, row.cpu_seconds
            );
            report.push(row);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_layout::{gen, io, Technology};

    fn temp_path(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!("mpl-bench-workload-{}-{name}", std::process::id()));
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn loads_text_and_gds_workloads_identically() {
        let tech = Technology::nm20();
        let layout = gen::fig1_contact_clique(&tech);

        let text_path = temp_path("fig1.txt");
        std::fs::write(&text_path, io::to_text(&layout)).expect("write text");
        let from_text = load_layout_timed(&text_path, &[]).expect("load text");

        let gds_path = temp_path("fig1.gds");
        mpl_gds::write_layout_file(&gds_path, &layout, 1, 0).expect("write gds");
        let from_gds = load_layout_timed(&gds_path, &[]).expect("load gds");

        assert_eq!(from_text.layout, layout);
        assert!(from_text.hierarchy.is_none());
        assert_eq!(from_gds.layout.shape_count(), layout.shape_count());
        assert!(from_gds.hierarchy.is_some(), "GDSII keeps its hierarchy");

        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&gds_path).ok();
    }

    #[test]
    fn missing_files_error_with_the_path() {
        let error = load_layout_timed("/nonexistent/x.gds", &[]).unwrap_err();
        assert!(error.to_string().contains("/nonexistent/x.gds"));
    }

    #[test]
    fn gds_workloads_feed_the_table_harness() {
        let tech = Technology::nm20();
        let layout = gen::fig1_contact_clique(&tech);
        let gds_path = temp_path("table.gds");
        mpl_gds::write_layout_file(&gds_path, &layout, 1, 0).expect("write gds");
        let loaded = load_layout_timed(&gds_path, &[]).expect("load").layout;
        let report = run_layout_table_on(
            &[loaded],
            &[ColorAlgorithm::Linear],
            4,
            &ThreadPoolExecutor::default(),
        )
        .expect("clean layout");
        assert_eq!(report.rows().len(), 1);
        assert_eq!(report.rows()[0].conflicts, 0);
        std::fs::remove_file(&gds_path).ok();
    }
}
