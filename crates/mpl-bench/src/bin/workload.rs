//! Benchmarks arbitrary layout files (text format or GDSII) with the same
//! row structure as the paper's tables, or — with `--batch` — as one
//! cross-layout batch on a shared executor, or — with `--serve ADDR` — as
//! a client-driven request stream against a running `qpl-serve`.
//!
//! Usage: `cargo run -p mpl-bench --release --bin workload -- \
//!     [--k N] [--threads N] [--layer L[:D] ...] \
//!     [--batch [--memo | --no-memo] \
//!      [--tile-size NM [--halo NM]] [--hier] \
//!      | --serve ADDR [--executor serial|pool]] \
//!     [--algorithm NAME] [--bench-json PATH] FILE [FILE ...]`
//!
//! Table mode (the default) decomposes each file with every Table 1
//! algorithm.  Batch mode (`--batch`) submits every file to one
//! [`mpl_core::DecompositionSession`] and drains all component tasks
//! through one shared executor, reporting per-layout rows plus aggregate
//! throughput (layouts/sec, components/sec) with parse time separated from
//! decompose time.  Batch mode can attach a translation-canonical memo
//! cache (`--memo`, off by default so timings measure the engines) and then
//! reports per-layout hit/miss counts plus the cache's aggregate
//! hits/misses/evictions.  Batch mode can also shard every layout into
//! halo-expanded tile windows through `mpl-tile` (`--tile-size NM`,
//! optionally `--halo NM`), adding per-layout tile/reconciliation columns to
//! the table and the report, or decompose cell-by-cell through `mpl-hier`
//! (`--hier`, mutually exclusive with tiling): GDSII inputs load with
//! their cell-instance hierarchy and each distinct cell body is colored
//! once, adding per-layout instance/reconciliation columns; text inputs
//! degenerate to the flat path.  Serve mode (`--serve ADDR`) instead streams every file
//! as a `submit` request to the decomposition service at ADDR and measures
//! client-observed requests/sec and p50/p90/p99 latency (each request's
//! submit sent → its terminal frame received; the whole wave is
//! pipelined, so latency includes queueing behind earlier submits) — the
//! socket round trips and scheduler coalescing included.  In both modes
//! `--bench-json PATH` writes the machine-readable `BENCH_*.json` report
//! (schemas `mpl-bench/batch-v2` / `mpl-bench/serve-v2`, whose rows carry
//! each layout's record — the keys `qpl-decompose --json` and a served
//! `result` frame report) for tracking the performance trajectory across
//! changes.  GDSII inputs can be restricted
//! to specific layers with `--layer`.  Invalid mask counts, thread counts
//! and degenerate layouts are reported as the pipeline's typed errors.

use mpl_bench::batch::run_batch_bench;
use mpl_bench::serve::run_serve_bench;
use mpl_bench::workload::{load_layout_timed, run_layout_table_on, TimedLayout};
use mpl_bench::{executor_for_threads, table_config, threads_from_args, TABLE1_ALGORITHMS};
use mpl_core::{ColorAlgorithm, MemoCache, TileConfig};
use mpl_serve::ExecutorChoice;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let (rest, threads) = match threads_from_args(&raw_args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let usage = "usage: workload [--k N] [--threads N] [--layer L[:D] ...] \
                 [--batch [--memo | --no-memo] \
                 [--tile-size NM [--halo NM]] [--hier] \
                 | --serve ADDR [--executor serial|pool] [--deadline-ms MS]] \
                 [--algorithm NAME] [--bench-json PATH] FILE [FILE ...]";
    let mut k = 4usize;
    let mut layer_specs: Vec<String> = Vec::new();
    let mut paths: Vec<String> = Vec::new();
    let mut batch = false;
    let mut serve: Option<String> = None;
    let mut executor_choice: Option<ExecutorChoice> = None;
    let mut algorithm: Option<ColorAlgorithm> = None;
    let mut bench_json: Option<String> = None;
    let mut memo: Option<bool> = None;
    let mut tile_size: Option<i64> = None;
    let mut halo: Option<i64> = None;
    let mut hier = false;
    let mut deadline_ms: Option<u64> = None;
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serve" => match args.next() {
                Some(addr) => serve = Some(addr),
                None => {
                    eprintln!("--serve requires a HOST:PORT value");
                    return ExitCode::FAILURE;
                }
            },
            "--executor" => match args.next().as_deref() {
                Some("serial") => executor_choice = Some(ExecutorChoice::Serial),
                Some("pool") => executor_choice = Some(ExecutorChoice::Pool),
                other => {
                    eprintln!("--executor requires \"serial\" or \"pool\", got {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            "--k" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(value)) => k = value,
                _ => {
                    eprintln!("--k requires an integer value");
                    return ExitCode::FAILURE;
                }
            },
            "--layer" => match args.next() {
                Some(spec) => layer_specs.push(spec),
                None => {
                    eprintln!("--layer requires a L[:D] value");
                    return ExitCode::FAILURE;
                }
            },
            "--batch" => batch = true,
            "--memo" => memo = Some(true),
            "--no-memo" => memo = Some(false),
            "--tile-size" => match args.next().map(|v| v.parse::<i64>()) {
                Some(Ok(value)) => tile_size = Some(value),
                _ => {
                    eprintln!("--tile-size requires an integer nm value");
                    return ExitCode::FAILURE;
                }
            },
            "--halo" => match args.next().map(|v| v.parse::<i64>()) {
                Some(Ok(value)) => halo = Some(value),
                _ => {
                    eprintln!("--halo requires an integer nm value");
                    return ExitCode::FAILURE;
                }
            },
            "--hier" => hier = true,
            "--deadline-ms" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(value)) => deadline_ms = Some(value),
                _ => {
                    eprintln!("--deadline-ms requires an integer millisecond value");
                    return ExitCode::FAILURE;
                }
            },
            "--algorithm" => match args.next().as_deref().map(ColorAlgorithm::from_cli_name) {
                Some(Ok(value)) => algorithm = Some(value),
                Some(Err(message)) => {
                    eprintln!("{message}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--algorithm requires a value");
                    return ExitCode::FAILURE;
                }
            },
            "--bench-json" => match args.next() {
                Some(path) => bench_json = Some(path),
                None => {
                    eprintln!("--bench-json requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("{usage}");
                return ExitCode::SUCCESS;
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    }
    if batch && serve.is_some() {
        eprintln!("--batch and --serve are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if serve.is_none() && executor_choice.is_some() {
        eprintln!("--executor only applies to --serve mode (use --threads locally)");
        return ExitCode::FAILURE;
    }
    if serve.is_none() && deadline_ms.is_some() {
        eprintln!("--deadline-ms only applies to --serve mode");
        return ExitCode::FAILURE;
    }
    let executor_choice = executor_choice.unwrap_or(ExecutorChoice::Pool);
    if !batch && serve.is_none() && bench_json.is_some() {
        eprintln!("--bench-json only applies to --batch or --serve mode");
        return ExitCode::FAILURE;
    }
    if !batch && serve.is_none() && algorithm.is_some() {
        eprintln!(
            "--algorithm only applies to --batch or --serve mode (table mode runs every engine)"
        );
        return ExitCode::FAILURE;
    }
    let algorithm = algorithm.unwrap_or(ColorAlgorithm::Linear);
    if !batch && memo.is_some() {
        eprintln!("--memo/--no-memo only apply to --batch mode");
        return ExitCode::FAILURE;
    }
    // Memoization is off by default here: the benchmark measures the
    // engines unless warm-path throughput is explicitly requested.
    let memo_cache = memo
        .unwrap_or(false)
        .then(|| Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY)));
    // Tiling shards the batch through mpl-tile and hierarchy splits it by
    // instance provenance, so both only exist in batch mode.  Invalid tile
    // geometry, and tiling combined with hierarchy (the two shardings don't
    // compose), are the pipeline's typed errors.
    if !batch && (tile_size.is_some() || halo.is_some()) {
        eprintln!("--tile-size/--halo only apply to --batch mode");
        return ExitCode::FAILURE;
    }
    if !batch && hier {
        eprintln!("--hier only applies to --batch mode");
        return ExitCode::FAILURE;
    }
    let tiling = match TileConfig::from_request(tile_size, halo, hier) {
        Ok(tiling) => tiling,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::FAILURE;
        }
    };
    // Surface bad mask counts (e.g. --k 1 or --k 300) as the pipeline's
    // typed error before any file is loaded.
    if let Err(error) = table_config(k, ColorAlgorithm::Linear).validate() {
        eprintln!("{error}");
        return ExitCode::FAILURE;
    }

    let mut layouts: Vec<TimedLayout> = Vec::with_capacity(paths.len());
    for path in &paths {
        match load_layout_timed(path, &layer_specs) {
            Ok(timed) => {
                eprintln!(
                    "{path}: {} shapes (parsed in {:.3}s)",
                    timed.layout.shape_count(),
                    timed.parse_seconds
                );
                layouts.push(timed);
            }
            Err(error) => {
                eprintln!("{error}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(addr) = serve {
        eprintln!(
            "Serve workload: K = {k}, {} on {} layout(s) against {addr} ({} executor)",
            algorithm.name(),
            layouts.len(),
            executor_choice.as_str()
        );
        let report =
            match run_serve_bench(&addr, &layouts, k, algorithm, executor_choice, deadline_ms) {
                Ok(report) => report,
                Err(message) => {
                    eprintln!("{message}");
                    return ExitCode::FAILURE;
                }
            };
        println!("\nServe workload (K = {k}, {})", report.algorithm);
        println!(
            "{:<24} {:>8} {:>9} {:>6} {:>6} {:>9}",
            "layout", "vertices", "comps", "cn#", "st#", "color(s)"
        );
        for row in &report.requests {
            let record = &row.record;
            println!(
                "{:<24} {:>8} {:>9} {:>6} {:>6} {:>9.3}{}",
                record.layout,
                record.vertices,
                record.components,
                record.conflicts,
                record.stitches,
                record.color_seconds,
                if record.deadline_exceeded {
                    format!(
                        "  [deadline exceeded, {} skipped]",
                        record.components_skipped
                    )
                } else {
                    String::new()
                }
            );
        }
        println!(
            "serve: {} requests, {} components in {:.3}s against {} ({:.1} requests/s, {:.1} components/s; \
             latency p50/p90/p99 {:.1}/{:.1}/{:.1} ms)",
            report.requests.len(),
            report.component_count(),
            report.wall_seconds,
            report.addr,
            report.requests_per_sec(),
            report.components_per_sec(),
            report.latency_percentile_seconds(50) * 1e3,
            report.latency_percentile_seconds(90) * 1e3,
            report.latency_percentile_seconds(99) * 1e3
        );
        if report.deadline_ms.is_some() {
            println!(
                "deadlines: {} of {} requests missed the {} ms deadline \
                 (worst client-observed overrun {:.3}s)",
                report.deadline_miss_count(),
                report.requests.len(),
                report.deadline_ms.unwrap_or(0),
                report.max_deadline_overrun_seconds()
            );
        }
        if let Some(path) = bench_json {
            if let Err(error) = std::fs::write(&path, format!("{:#}", report.to_json())) {
                eprintln!("cannot write {path}: {error}");
                return ExitCode::FAILURE;
            }
            eprintln!("benchmark report written to {path}");
        }
        return ExitCode::SUCCESS;
    }

    let executor = executor_for_threads(threads);
    if batch {
        eprintln!(
            "Batch workload: K = {k}, {} on {} layout(s) ({} executor, one shared queue)",
            algorithm.name(),
            layouts.len(),
            executor.name()
        );
        let report = match run_batch_bench(
            &layouts,
            k,
            algorithm,
            executor.as_ref(),
            memo_cache,
            tiling,
            hier,
        ) {
            Ok(report) => report,
            Err(error) => {
                eprintln!("{error}");
                return ExitCode::FAILURE;
            }
        };
        println!("\nBatch workload (K = {k}, {})", report.algorithm);
        let memo_columns = report.memo.is_some();
        let memo_header = if memo_columns {
            format!(" {:>6} {:>6}", "hits", "miss")
        } else {
            String::new()
        };
        let tile_columns = report.tiling.is_some();
        let tile_header = if tile_columns {
            format!(" {:>6} {:>6}", "tiles", "cross")
        } else {
            String::new()
        };
        let hier_columns = report.hier;
        let hier_header = if hier_columns {
            format!(" {:>6} {:>6}", "inst", "cross")
        } else {
            String::new()
        };
        println!(
            "{:<24} {:>8} {:>9} {:>6} {:>6}{memo_header}{tile_header}{hier_header} {:>9} {:>9} {:>9}",
            "layout", "vertices", "comps", "cn#", "st#", "parse(s)", "plan(s)", "color(s)"
        );
        for row in &report.layouts {
            let record = &row.record;
            let memo_cells = if memo_columns {
                format!(
                    " {:>6} {:>6}",
                    record.memo_hits.unwrap_or(0),
                    record.memo_misses.unwrap_or(0)
                )
            } else {
                String::new()
            };
            let tile_cells = if tile_columns {
                let tiles = record.tiles.as_ref();
                format!(
                    " {:>6} {:>6}",
                    tiles.map_or(0, |t| t.tiles),
                    tiles.map_or(0, |t| t.cross_conflicts_after)
                )
            } else {
                String::new()
            };
            let hier_cells = if hier_columns {
                let hier = record.hierarchy.as_ref();
                format!(
                    " {:>6} {:>6}",
                    hier.map_or(0, |h| h.instances),
                    hier.map_or(0, |h| h.cross_conflicts_after)
                )
            } else {
                String::new()
            };
            println!(
                "{:<24} {:>8} {:>9} {:>6} {:>6}{memo_cells}{tile_cells}{hier_cells} {:>9.3} {:>9.3} {:>9.3}",
                record.layout,
                record.vertices,
                record.components,
                record.conflicts,
                record.stitches,
                row.parse_seconds,
                record.graph_seconds,
                record.color_seconds
            );
        }
        let rate = |value: Option<f64>| {
            value.map_or_else(|| "n/a".to_string(), |rate| format!("{rate:.1}"))
        };
        println!(
            "batch: {} layouts, {} components in {:.3}s on {} ({} layouts/s, {} components/s); parse {:.3}s, plan {:.3}s",
            report.layouts.len(),
            report.component_count(),
            report.batch_wall_seconds,
            report.executor,
            rate(report.layouts_per_sec()),
            rate(report.components_per_sec()),
            report.total_parse_seconds(),
            report.total_plan_seconds()
        );
        if let Some(memo) = &report.memo {
            println!(
                "memo: {} hits, {} misses, {} evictions ({} entries, {} bytes)",
                memo.hits, memo.misses, memo.evictions, memo.entries, memo.bytes
            );
        }
        if let Some(tiling) = &report.tiling {
            let tiles: usize = report
                .layouts
                .iter()
                .filter_map(|row| row.record.tiles.as_ref())
                .map(|t| t.tiles)
                .sum();
            let cross_after: usize = report
                .layouts
                .iter()
                .filter_map(|row| row.record.tiles.as_ref())
                .map(|t| t.cross_conflicts_after)
                .sum();
            println!(
                "tiling: {} nm windows ({} halo), {} tiles, {} cross-window conflicts after reconciliation",
                tiling.tile_size.value(),
                tiling
                    .halo
                    .map_or_else(|| "default".to_string(), |halo| format!("{} nm", halo.value())),
                tiles,
                cross_after
            );
        }
        if report.hier {
            let instances: usize = report
                .layouts
                .iter()
                .filter_map(|row| row.record.hierarchy.as_ref())
                .map(|h| h.instances)
                .sum();
            let cells: usize = report
                .layouts
                .iter()
                .filter_map(|row| row.record.hierarchy.as_ref())
                .map(|h| h.cells)
                .sum();
            let cross_after: usize = report
                .layouts
                .iter()
                .filter_map(|row| row.record.hierarchy.as_ref())
                .map(|h| h.cross_conflicts_after)
                .sum();
            println!(
                "hier: {instances} instances of {cells} distinct cell(s), \
                 {cross_after} cross-instance conflicts after reconciliation"
            );
        }
        if let Some(path) = bench_json {
            if let Err(error) = std::fs::write(&path, format!("{:#}", report.to_json())) {
                eprintln!("cannot write {path}: {error}");
                return ExitCode::FAILURE;
            }
            eprintln!("benchmark report written to {path}");
        }
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "Workload table: K = {k} on {} layout(s) ({} executor)",
        layouts.len(),
        executor.name()
    );
    let table_inputs: Vec<_> = layouts.into_iter().map(|timed| timed.layout).collect();
    match run_layout_table_on(&table_inputs, &TABLE1_ALGORITHMS, k, executor.as_ref()) {
        Ok(report) => {
            println!("\nWorkload table (K = {k})");
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("{error}");
            ExitCode::FAILURE
        }
    }
}
