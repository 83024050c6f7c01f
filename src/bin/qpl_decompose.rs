//! `qpl-decompose` — command-line front end to the decomposition flow.
//!
//! Decomposes one or more layouts (text-format layout files, GDSII files —
//! freely mixed — or named synthetic benchmark circuits) into K masks and
//! reports conflicts, stitches, per-mask statistics and optional same-mask
//! spacing verification.  Results can be exported as *colored* GDSII files
//! with one layer per mask, ready to open in a layout viewer.
//!
//! All inputs are decomposed as **one batch** through a
//! [`DecompositionSession`]: every layout's independent components enter a
//! single largest-first queue, so `--threads N` keeps one shared pool busy
//! across layouts instead of parallelising each layout alone.  `--threads`
//! sizes that coloring pool only: planning a large input (its graph build
//! and memo prepass) runs on every available CPU
//! ([`mpl_geometry::range_count`]), and a small one on the calling thread.
//! `--progress` streams per-layout progress lines to stderr, and `--json`
//! replaces the human-readable summary with a machine-readable one.
//! Invalid configurations are reported as typed errors, not panics.
//!
//! The CLI shares its request-to-run path with `qpl-serve` and
//! `workload --batch`: each input file is read once and converted by
//! [`mpl_gds::layout_from_bytes`], `--tile-size`/`--halo`/`--hier` become a
//! tiling through [`TileConfig::from_request`], and the batch runs through
//! [`mpl_serve::run_layouts`].
//!
//! ```text
//! Usage:
//!   qpl-decompose FILE [FILE ...] [options]        # format auto-detected
//!   qpl-decompose --circuit C6288 [options]
//!   qpl-decompose --layout path/to/layout.txt [options]
//!   qpl-decompose --gds path/to/layout.gds [--layer L[:D] ...] [options]
//!   qpl-decompose --connect HOST:PORT FILE [FILE ...] [options]
//!   qpl-decompose --connect HOST:PORT --shutdown
//!
//! Inputs (repeatable and mixable; all decompose as one batch):
//!   FILE                 a text layout or GDSII file (auto-detected)
//!   --circuit <NAME>     a named synthetic benchmark circuit
//!   --layout <PATH>      a layout file (same auto-detection as positional)
//!   --gds <PATH>         a GDSII file (rejects non-GDS inputs)
//!
//! Options:
//!   --k <N>              number of masks (default 4)
//!   --algorithm <NAME>   ilp | sdp-backtrack | sdp-greedy | linear (default sdp-backtrack)
//!   --alpha <F>          stitch weight (default 0.1)
//!   --threads <N>        color the batch on N shared worker threads
//!   --progress           print `[k/N] NAME` on stderr as component k of
//!                        layout NAME's N finishes (`[tile k/N]` per
//!                        tile piece with --tile-size, `[hier k/N]` per
//!                        piece with --hier; the same lines as --connect)
//!   --json               print a machine-readable JSON summary on stdout
//!   --no-stitches        disable stitch-candidate generation
//!   --balance            rebalance mask densities after coloring
//!   --verify             re-check same-mask spacing from scratch
//!   --no-memo            color every component from scratch (by default,
//!                        translation-identical components are memoized)
//!   --tile-size <NM>     decompose through the halo-aware tiler with
//!                        square windows of this edge length (in nm)
//!   --halo <NM>          explicit halo width in nm (default: the
//!                        technology's color-friendly distance; must be at
//!                        least the coloring distance)
//!   --hier               decompose GDS inputs hierarchically: color each
//!                        distinct cell body once, stamp every instance
//!                        and reconcile the inter-instance boundaries.
//!                        Always memoizes (a transient cache stands in
//!                        under --no-memo); inputs without a hierarchy
//!                        (text layouts, circuits) degenerate to the
//!                        ordinary memoized run.  Contradicts
//!                        --tile-size/--halo.
//!   --output <PATH>      write the mask assignment (one `shape segment mask` line per vertex)
//!   --layer <L[:D]>      import only this GDS layer (repeatable; applies to every GDS input)
//!   --top <NAME>         flatten from this GDS structure (default: the unique top)
//!   --output-gds <PATH>  write the colored decomposition: mask k on GDS layer 100+k
//!
//! Client mode (`--connect`): inputs are streamed to a running `qpl-serve`
//! instead of being decomposed in-process — text layouts and circuits
//! inline, GDSII files as base64 — and results stream back per layout.
//!   --connect <ADDR>     submit to the server at ADDR (HOST:PORT)
//!   --executor <NAME>    serial | pool: which server executor drains the
//!                        submissions (default pool)
//!   --shutdown           after the results (or alone: immediately), ask
//!                        the server to shut down
//!   --deadline-ms <MS>   soft per-submission deadline: the server stops
//!                        colouring at the next engine poll once MS
//!                        milliseconds have passed and returns a partial
//!                        result flagged `deadline_exceeded` (completed
//!                        components keep their colors; skipped ones are
//!                        zeroed and counted)
//! Interactive cancellation (Ctrl-C) is not wired up: installing a signal
//! handler portably needs platform code outside std, so the supported
//! ways to bound a run from this CLI are `--deadline-ms` or speaking the
//! protocol's `cancel` frame directly.
//! `--verify` maps to server-side spacing re-verification,
//! `--tile-size`/`--halo` travel on the submit frame (the server tiles and
//! streams `tile_progress` events) and so does `--hier` (the server
//! decomposes hierarchically and streams `hier_progress` events);
//! `--threads`, `--balance`,
//! `--no-stitches`, `--no-memo` (the server always memoizes with its own
//! shared cache), `--layer`, `--top`,
//! `--output` and `--output-gds` are local-mode-only and rejected with
//! `--connect`.
//!
//! With more than one input, `--output`/`--output-gds` write one file per
//! layout, inserting the batch index before the extension (`out.gds` →
//! `out.0.gds`, `out.1.gds`, …).
//! ```

use mpl_core::{
    extract_masks, rebalance_masks, verify_spacing, BalanceReport, ColorAlgorithm, ComponentStats,
    ComponentTask, Decomposer, DecomposerConfig, DecompositionSession, Executor, Json, JsonRecord,
    LayoutId, Mask, MemoCache, MemoStats, Progress, SerialExecutor, StitchConfig,
    ThreadPoolExecutor, TileConfig, VertexId,
};
use mpl_gds::{LayerMap, ReadOptions};
use mpl_geometry::{Nm, Polygon};
use mpl_layout::{gen::IscasCircuit, io::LayoutFormat, Layout, LayoutHierarchy, Technology};
use mpl_serve::{
    Client, ExecutorChoice, LayoutRun, LayoutSource, Request, Response, ResultPayload,
    SubmitRequest,
};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// GDS layer holding mask 0 in `--output-gds` files (mask k lands on
/// `COLORED_BASE_LAYER + k`).
const COLORED_BASE_LAYER: i16 = 100;

struct Options {
    inputs: Vec<InputSpec>,
    gds_input: GdsInputOptions,
    k: usize,
    algorithm: ColorAlgorithm,
    alpha: f64,
    threads: Option<usize>,
    progress: bool,
    json: bool,
    stitches: bool,
    balance: bool,
    verify: bool,
    memo: bool,
    /// The validated `--tile-size`/`--halo` tiling (`None` = untiled).
    tiling: Option<TileConfig>,
    /// `--hier`: cell-level hierarchical decomposition (contradicts
    /// tiling).
    hier: bool,
    output: Option<String>,
    output_gds: Option<String>,
    connect: Option<String>,
    executor_choice: ExecutorChoice,
    shutdown: bool,
    /// `--deadline-ms`: soft per-submission deadline forwarded on the
    /// submit frame (connect-mode only).
    deadline_ms: Option<u64>,
}

/// Reads one input file whole, once, and reports whether it is GDSII.
/// `force_gds` (the `--gds` flag) rejects an input that is not, before
/// anything converts it.
fn read_input(path: &str, force_gds: bool) -> Result<(Vec<u8>, bool), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let is_gds = LayoutFormat::detect(path, &bytes) == LayoutFormat::Gds;
    if force_gds && !is_gds {
        return Err(format!(
            "{path} is not a GDSII stream (missing HEADER record)"
        ));
    }
    Ok((bytes, is_gds))
}

/// GDS-specific input selection collected from the command line.
#[derive(Default)]
struct GdsInputOptions {
    layer_specs: Vec<String>,
    top: Option<String>,
}

/// One requested input, before loading.
enum InputSpec {
    Circuit(IscasCircuit),
    Path { path: String, force_gds: bool },
}

impl InputSpec {
    /// The name the summary lines give this input: the circuit's or the
    /// path.
    fn label(&self) -> &str {
        match self {
            InputSpec::Circuit(circuit) => circuit.name(),
            InputSpec::Path { path, .. } => path,
        }
    }
}

fn parse_options() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut inputs: Vec<InputSpec> = Vec::new();
    let mut gds_input = GdsInputOptions::default();
    let mut k = 4usize;
    let mut algorithm = ColorAlgorithm::SdpBacktrack;
    let mut alpha = 0.1f64;
    let mut threads: Option<usize> = None;
    let mut progress = false;
    let mut json = false;
    let mut stitches = true;
    let mut balance = false;
    let mut verify = false;
    let mut memo = true;
    let mut tile_size: Option<i64> = None;
    let mut halo: Option<i64> = None;
    let mut hier = false;
    let mut output = None;
    let mut output_gds = None;
    let mut connect: Option<String> = None;
    let mut executor_choice: Option<ExecutorChoice> = None;
    let mut shutdown = false;
    let mut deadline_ms: Option<u64> = None;

    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--circuit" => {
                let name = value("--circuit")?;
                inputs.push(InputSpec::Circuit(
                    IscasCircuit::ALL
                        .into_iter()
                        .find(|c| c.name().eq_ignore_ascii_case(&name))
                        .ok_or_else(|| format!("unknown circuit {name:?}"))?,
                ));
            }
            "--layout" => inputs.push(InputSpec::Path {
                path: value("--layout")?,
                force_gds: false,
            }),
            "--gds" => inputs.push(InputSpec::Path {
                path: value("--gds")?,
                force_gds: true,
            }),
            "--layer" => gds_input.layer_specs.push(value("--layer")?),
            "--top" => gds_input.top = Some(value("--top")?),
            "--k" => {
                k = value("--k")?
                    .parse()
                    .map_err(|e| format!("invalid --k value: {e}"))?;
            }
            "--algorithm" => algorithm = ColorAlgorithm::from_cli_name(&value("--algorithm")?)?,
            "--alpha" => {
                alpha = value("--alpha")?
                    .parse()
                    .map_err(|e| format!("invalid --alpha value: {e}"))?;
            }
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("invalid --threads value: {e}"))?,
                );
            }
            "--progress" => progress = true,
            "--json" => json = true,
            "--no-stitches" => stitches = false,
            "--balance" => balance = true,
            "--verify" => verify = true,
            "--no-memo" => memo = false,
            "--tile-size" => {
                tile_size = Some(
                    value("--tile-size")?
                        .parse()
                        .map_err(|e| format!("invalid --tile-size value: {e}"))?,
                );
            }
            "--halo" => {
                halo = Some(
                    value("--halo")?
                        .parse()
                        .map_err(|e| format!("invalid --halo value: {e}"))?,
                );
            }
            "--hier" => hier = true,
            "--output" => output = Some(value("--output")?),
            "--output-gds" => output_gds = Some(value("--output-gds")?),
            "--connect" => connect = Some(value("--connect")?),
            "--executor" => {
                executor_choice = Some(match value("--executor")?.as_str() {
                    "serial" => ExecutorChoice::Serial,
                    "pool" => ExecutorChoice::Pool,
                    other => return Err(format!("unknown executor {other:?}")),
                })
            }
            "--shutdown" => shutdown = true,
            "--deadline-ms" => {
                deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("invalid --deadline-ms value: {e}"))?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: qpl-decompose FILE [FILE ...] | --circuit <NAME> | --layout <FILE> \
                            | --gds <FILE> (inputs repeat and mix; one shared batch) \
                            [--layer L[:D] ...] [--top NAME] [--k N] \
                            [--algorithm ilp|sdp-backtrack|sdp-greedy|linear] \
                            [--alpha F] [--threads N] [--progress] [--json] \
                            [--no-stitches] [--balance] [--verify] [--no-memo] \
                            [--tile-size NM [--halo NM] | --hier] \
                            [--output FILE] [--output-gds FILE] \
                            | --connect HOST:PORT [--executor serial|pool] \
                            [--deadline-ms MS] [--shutdown]"
                        .to_string(),
                )
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            path => inputs.push(InputSpec::Path {
                path: path.to_string(),
                force_gds: false,
            }),
        }
    }
    if connect.is_none() {
        // Serve-only flags make no sense locally.
        if shutdown {
            return Err("--shutdown only applies to --connect mode".to_string());
        }
        if executor_choice.is_some() {
            return Err(
                "--executor only applies to --connect mode (use --threads locally)".to_string(),
            );
        }
        if deadline_ms.is_some() {
            return Err("--deadline-ms only applies to --connect mode".to_string());
        }
    } else {
        // Local-only post-processing cannot run on the server.
        for (set, flag) in [
            (threads.is_some(), "--threads"),
            (balance, "--balance"),
            (!stitches, "--no-stitches"),
            (!memo, "--no-memo"),
            (output.is_some(), "--output"),
            (output_gds.is_some(), "--output-gds"),
            (!gds_input.layer_specs.is_empty(), "--layer"),
            (gds_input.top.is_some(), "--top"),
        ] {
            if set {
                return Err(format!("{flag} does not apply to --connect mode"));
            }
        }
    }
    if inputs.is_empty() && !(connect.is_some() && shutdown) {
        return Err(
            "at least one input is required: FILE, --circuit, --layout or --gds".to_string(),
        );
    }
    // Tiling and hierarchy contradictions are the pipeline's typed
    // configuration errors.
    let tiling =
        TileConfig::from_request(tile_size, halo, hier).map_err(|error| error.to_string())?;
    Ok(Options {
        inputs,
        gds_input,
        k,
        algorithm,
        alpha,
        threads,
        progress,
        json,
        stitches,
        balance,
        verify,
        memo,
        tiling,
        hier,
        output,
        output_gds,
        connect,
        executor_choice: executor_choice.unwrap_or_default(),
        shutdown,
        deadline_ms,
    })
}

/// A loaded input: the flat layout plus, with `--hier`, its GDSII
/// cell-instance hierarchy.
type LoadedLayout = (Layout, Option<Arc<LayoutHierarchy>>);

/// Loads every input as a [`Layout`] for local decomposition (the
/// pre-`--connect` behaviour): circuits generate, files load through the
/// shared format-dispatching loader ([`mpl_gds::layout_from_bytes`]).  In
/// a mixed batch, `--layer`/`--top` apply to the GDS inputs and leave text
/// inputs untouched.  With `--hier`, GDSII inputs carry their cell-instance
/// provenance alongside (other inputs get `None` and degenerate to the
/// memoized flat run); without it, the hierarchy is dropped on load.
fn load_local_layouts(options: &Options, tech: &Technology) -> Result<Vec<LoadedLayout>, String> {
    let read_options = ReadOptions {
        top: options.gds_input.top.clone(),
    };
    let mut layouts = Vec::with_capacity(options.inputs.len());
    let mut any_gds = false;
    for input in &options.inputs {
        let (layout, hierarchy) = match input {
            InputSpec::Circuit(circuit) => (circuit.generate(tech), None),
            InputSpec::Path { path, force_gds } => {
                let map = LayerMap::from_specs(&options.gds_input.layer_specs)
                    .map_err(|e| e.to_string())?;
                let (bytes, is_gds) = read_input(path, *force_gds)?;
                any_gds |= is_gds;
                let (layout, hierarchy) =
                    mpl_gds::layout_from_bytes(path, &bytes, &map, &read_options)
                        .map_err(|e| e.to_string())?;
                (layout, hierarchy.filter(|_| options.hier).map(Arc::new))
            }
        };
        if layout.is_empty() {
            return Err(format!("input {:?} contains no shapes", layout.name()));
        }
        layouts.push((layout, hierarchy));
    }
    // A --layer/--top selection that never met a GDS input would be a
    // silent no-op; reject it (the GDS loads above already applied it).
    if (!options.gds_input.layer_specs.is_empty() || options.gds_input.top.is_some()) && !any_gds {
        return Err(
            "--layer/--top only apply to GDSII inputs, but no input is a GDSII file".to_string(),
        );
    }
    Ok(layouts)
}

/// Streams one stderr line per finished unit (`--progress`), the lines
/// `--connect` prints for the server's progress frames: `[k/N] name` per
/// component, `[tile k/N] name` per tile piece (`--tile-size`) and
/// `[hier k/N] name` per hierarchical piece (`--hier`), counted per layout.
struct StderrProgress {
    /// `""`, `"tile "` or `"hier "`.
    label: &'static str,
    names: Vec<String>,
}

impl Progress for StderrProgress {
    fn done(&self, layout: LayoutId, done: usize, total: usize) {
        eprintln!(
            "[{}{done}/{total}] {}",
            self.label,
            self.names[layout.index()]
        );
    }
}

/// The machine-readable summary of one layout's decomposition, which
/// `--json` prints in the `{:#}` document layout: the layout's record
/// ([`ResultPayload::fields`], the keys of a served `result` frame but
/// `type`, `id` and `colors`) plus the local extras `memo_cache`,
/// `balance`, `masks` and `component_breakdown`.
///
/// The record's `conflicts`/`stitches`/`cost` and `component_breakdown`
/// describe the raw decomposition; when `balance` is present, `masks` (and
/// `spacing_violations`, if verification ran) describe the *rebalanced*
/// coloring, and the `balance` object records the difference.  With
/// memoization on, `memo_cache` snapshots the run-wide cache — the same
/// snapshot on every layout of a batch, since the batch shares one cache.
fn render_json(
    record: &ResultPayload,
    masks: &[Mask],
    balance: Option<&BalanceReport>,
    memo_stats: Option<&MemoStats>,
    components: &[ComponentStats],
) -> Json {
    let mut pairs = record.fields();
    if let Some(stats) = memo_stats {
        pairs.push(("memo_cache", stats.to_json()));
    }
    if let Some(balance) = balance {
        pairs.push((
            "balance",
            Json::object(vec![
                ("moves", balance.moves.into()),
                ("imbalance_before", balance.imbalance_before.into()),
                ("imbalance_after", balance.imbalance_after.into()),
            ]),
        ));
    }
    let masks = masks
        .iter()
        .map(|mask| {
            Json::object(vec![
                ("index", mask.index.into()),
                ("features", mask.feature_count().into()),
                ("area", mask.area.into()),
            ])
        })
        .collect();
    pairs.push(("masks", Json::Array(masks)));
    let breakdown = components
        .iter()
        .map(|stats| {
            Json::object(vec![
                ("index", stats.index.into()),
                ("vertices", stats.vertex_count.into()),
                ("conflicts", stats.conflicts.into()),
                ("stitches", stats.stitches.into()),
                ("seconds", stats.time.as_secs_f64().into()),
            ])
        })
        .collect();
    pairs.push(("component_breakdown", Json::Array(breakdown)));
    Json::object(pairs)
}

/// The human-readable summary on stdout.  The first failed write (stdout
/// closed early, as by `| head`) is kept and every later line dropped, so
/// the run reports it once and exits 1, as it does for the JSON summary.
#[derive(Default)]
struct Summary {
    error: Option<std::io::Error>,
}

impl Summary {
    /// Writes one line, unless an earlier write failed.
    fn line(&mut self, line: std::fmt::Arguments) {
        if self.error.is_none() {
            self.error = writeln!(std::io::stdout(), "{line}").err();
        }
    }

    /// The message for the failed write, if any.
    fn finish(self) -> Option<String> {
        self.error
            .map(|error| format!("cannot write the summary: {error}"))
    }
}

/// Prints the human-readable lines of one layout's record, named `label`:
/// the lines local and `--connect` mode share (local mode appends its own).
fn print_summary(out: &mut Summary, label: &str, record: &ResultPayload) {
    out.line(format_args!(
        "{label}: layout {}, K = {}, algorithm = {}, executor = {}",
        record.layout, record.k, record.algorithm, record.executor
    ));
    out.line(format_args!(
        "  graph: {} vertices, {} conflict edges, {} stitch candidates, {} components",
        record.vertices, record.conflict_edges, record.stitch_edges, record.components
    ));
    out.line(format_args!(
        "  result: {} conflicts, {} stitches (cost {:.2}) in {:.3}s + {:.3}s",
        record.conflicts, record.stitches, record.cost, record.graph_seconds, record.color_seconds
    ));
    if let (Some(hits), Some(misses)) = (record.memo_hits, record.memo_misses) {
        out.line(format_args!(
            "  memo: {hits} components stamped (cache hits and in-batch duplicates), \
             {misses} colored fresh"
        ));
    }
    if record.deadline_exceeded || record.cancelled {
        out.line(format_args!(
            "  partial: {} of {} components completed, {} skipped ({})",
            record.components_completed,
            record.components,
            record.components_skipped,
            if record.deadline_exceeded {
                "deadline exceeded"
            } else {
                "cancelled"
            }
        ));
    }
    if let Some(violations) = record.spacing_violations {
        out.line(format_args!(
            "  verification: {violations} same-mask spacing violations"
        ));
    }
    if let Some(stats) = &record.tiles {
        out.line(format_args!(
            "  tiling: {}x{} grid, {} tiles over {} spanning components \
             ({} resident), {} halo-shared vertices",
            stats.grid_x,
            stats.grid_y,
            stats.tiles,
            stats.tiled_components,
            stats.resident_components,
            stats.shared_vertices
        ));
        out.line(format_args!(
            "  reconcile: {} tiles permuted, {} vertices recolored, \
             cross-window conflicts {} -> {}",
            stats.permuted_tiles,
            stats.recolored_vertices,
            stats.cross_conflicts_before,
            stats.cross_conflicts_after
        ));
    }
    if let Some(stats) = &record.hierarchy {
        out.line(format_args!(
            "  hierarchy: {} instances of {} cells, {} resident components, \
             {} split into {} instance pieces + {} boundary vertices",
            stats.instances,
            stats.cells,
            stats.resident_components,
            stats.split_components,
            stats.instance_pieces,
            stats.boundary_vertices
        ));
        if stats.nested_inherited > 0 {
            out.line(format_args!(
                "  hierarchy: {} shapes inherited their tag through nested \
                 references (attributed to the enclosing instance)",
                stats.nested_inherited
            ));
        }
        out.line(format_args!(
            "  reconcile: {} pieces permuted, {} vertices recolored, \
             cross-instance conflicts {} -> {}",
            stats.permuted_pieces,
            stats.recolored_vertices,
            stats.cross_conflicts_before,
            stats.cross_conflicts_after
        ));
    }
}

/// Inserts the batch index before the path's extension when the batch has
/// more than one layout (`out.gds` → `out.2.gds`); single-layout batches
/// keep the path unchanged.
fn per_layout_path(path: &str, index: usize, batch_size: usize) -> String {
    if batch_size <= 1 {
        return path.to_string();
    }
    match path.rfind('.') {
        // A dot inside the final path component splits name from extension;
        // a dot before the last separator (e.g. `./out`) does not count.
        Some(dot) if !path[dot..].contains('/') && dot > 0 => {
            format!("{}.{index}{}", &path[..dot], &path[dot..])
        }
        _ => format!("{path}.{index}"),
    }
}

/// Everything `main` needs from one layout's post-processing.
struct LayoutArtifacts {
    json: Json,
    verify_mismatch: bool,
    /// The first failed `--output`/`--output-gds` write, if any (reported
    /// after the JSON summary is printed, so machine consumers still get
    /// their output).
    write_error: Option<String>,
}

/// Post-processes one layout of the batch: balance, mask extraction,
/// verification and file outputs.  Returns the JSON fragment (always
/// rendered; cheap), whether verification disagreed with the reported
/// conflicts (in which case the suspect coloring is *not* written to any
/// output file), and any failed output write.  Without `--json` it prints
/// the layout's summary lines followed by the local ones: shape count and
/// largest component, balance, masks, the first violations and the files
/// written.
#[allow(clippy::too_many_arguments)]
fn process_layout(
    out: &mut Summary,
    options: &Options,
    tech: &Technology,
    layout: &Layout,
    session: &DecompositionSession,
    run: &LayoutRun,
    memo_stats: Option<&MemoStats>,
    index: usize,
    batch_size: usize,
) -> LayoutArtifacts {
    let plan = session.plan(run.id).expect("session keeps every plan");
    let result = &run.result;
    let graph = plan.graph();
    let mut colors = result.colors().to_vec();
    let balance = options.balance.then(|| rebalance_masks(graph, &mut colors));
    let masks = extract_masks(graph, &colors);
    let violations = options
        .verify
        .then(|| verify_spacing(graph, &colors, tech.coloring_distance(options.k)));
    let record = ResultPayload::from_run(index.to_string(), run, violations.as_ref().map(Vec::len));
    if !options.json {
        print_summary(out, options.inputs[index].label(), &record);
        let largest = plan
            .tasks()
            .iter()
            .map(ComponentTask::vertex_count)
            .max()
            .unwrap_or(0);
        out.line(format_args!(
            "  {} shapes, largest component {largest} vertices",
            layout.shape_count()
        ));
        if let Some(report) = &balance {
            out.line(format_args!(
                "  balance: {} moves, imbalance {:.3} -> {:.3}",
                report.moves, report.imbalance_before, report.imbalance_after
            ));
        }
        for mask in &masks {
            out.line(format_args!(
                "  mask {}: {} features, {} nm² area",
                mask.index,
                mask.feature_count(),
                mask.area
            ));
        }
        for violation in violations.iter().flatten().take(10) {
            out.line(format_args!("  violation: {violation}"));
        }
    }

    let mut verify_mismatch = false;
    if let Some(violations) = &violations {
        if violations.len() != result.conflicts() && !options.balance {
            eprintln!(
                "warning: {}: verification count {} differs from reported conflicts {}",
                result.layout_name(),
                violations.len(),
                result.conflicts()
            );
            verify_mismatch = true;
        }
    }

    // A verification mismatch means the coloring is suspect: never write
    // it to an output file (the process will exit with failure anyway).
    let mut write_error = None;
    if let (Some(path), false) = (&options.output, verify_mismatch) {
        let path = per_layout_path(path, index, batch_size);
        let mut text = String::new();
        text.push_str(&format!("# masks {} {}\n", result.layout_name(), options.k));
        for (vertex, &color) in colors.iter().enumerate() {
            text.push_str(&format!(
                "{} {} {}\n",
                graph.shape_of(VertexId(vertex)).index(),
                vertex,
                color
            ));
        }
        match std::fs::write(&path, text) {
            Ok(()) if !options.json => {
                out.line(format_args!("  mask assignment written to {path}"))
            }
            Ok(()) => {}
            Err(error) => write_error = Some(format!("cannot write {path}: {error}")),
        }
    }

    if let (Some(path), false, None) = (&options.output_gds, verify_mismatch, &write_error) {
        let path = per_layout_path(path, index, batch_size);
        let mut per_mask: Vec<Vec<&Polygon>> = vec![Vec::new(); options.k];
        for mask in &masks {
            for &vertex in &mask.vertices {
                per_mask[mask.index].push(graph.polygon(vertex));
            }
        }
        match mpl_gds::write_colored_file(
            &path,
            result.layout_name(),
            &per_mask,
            COLORED_BASE_LAYER,
        ) {
            Ok(()) if !options.json => out.line(format_args!(
                "  colored GDS written to {path} (mask k on layer {}+k)",
                COLORED_BASE_LAYER
            )),
            Ok(()) => {}
            Err(error) => write_error = Some(format!("cannot write {path}: {error}")),
        }
    }

    LayoutArtifacts {
        json: render_json(
            &record,
            &masks,
            balance.as_ref(),
            memo_stats,
            result.component_stats(),
        ),
        verify_mismatch,
        write_error,
    }
}

/// One submission built from a CLI input for `--connect` mode.
struct WireInput {
    id: String,
    label: String,
    source: LayoutSource,
}

/// Turns the CLI inputs into wire submissions: circuits and text files
/// travel inline as layout text, GDSII files as base64 of the raw stream
/// (the server parses them; `--layer`/`--top` are local-mode-only).
fn build_wire_inputs(options: &Options, tech: &Technology) -> Result<Vec<WireInput>, String> {
    options
        .inputs
        .iter()
        .enumerate()
        .map(|(index, input)| {
            let source = match input {
                InputSpec::Circuit(circuit) => {
                    LayoutSource::Text(mpl_layout::io::to_text(&circuit.generate(tech)))
                }
                InputSpec::Path { path, force_gds } => {
                    let (bytes, is_gds) = read_input(path, *force_gds)?;
                    if is_gds {
                        LayoutSource::GdsBase64(mpl_serve::base64::encode(&bytes))
                    } else {
                        let text = String::from_utf8(bytes)
                            .map_err(|_| format!("cannot parse {path}: not valid UTF-8 text"))?;
                        LayoutSource::Text(text)
                    }
                }
            };
            Ok(WireInput {
                id: index.to_string(),
                label: input.label().to_string(),
                source,
            })
        })
        .collect()
}

/// Prints `json` in the `{:#}` document layout plus a newline, as one
/// write: `println!` on the line-buffered stdout writes each line apart.
fn print_json(json: &Json) -> std::io::Result<()> {
    let text = format!("{json:#}\n");
    std::io::stdout().lock().write_all(text.as_bytes())
}

/// Renders the connect-mode JSON summary: per result its `id` plus the
/// layout's record — the frame without `type` and the full color array
/// (clients that need colors speak the protocol directly).
fn render_connect_json(
    addr: &str,
    results: &[Option<ResultPayload>],
    cancelled: &[(String, usize, usize, u64)],
    errors: &[(Option<String>, String, String)],
) -> Json {
    let results_json: Vec<Json> = results
        .iter()
        .flatten()
        .map(|payload| {
            let mut pairs = vec![("id", payload.id.as_str().into())];
            pairs.extend(payload.fields());
            Json::object(pairs)
        })
        .collect();
    let cancelled_json: Vec<Json> = cancelled
        .iter()
        .map(|(id, completed, skipped, bnb_nodes)| {
            Json::object(vec![
                ("id", id.as_str().into()),
                ("components_completed", (*completed).into()),
                ("components_skipped", (*skipped).into()),
                ("bnb_nodes", (*bnb_nodes).into()),
            ])
        })
        .collect();
    let errors_json: Vec<Json> = errors
        .iter()
        .map(|(id, code, message)| {
            Json::object(vec![
                ("id", id.as_deref().into()),
                ("code", code.as_str().into()),
                ("message", message.as_str().into()),
            ])
        })
        .collect();
    Json::object(vec![
        ("connect", addr.into()),
        ("results", Json::Array(results_json)),
        ("cancelled", Json::Array(cancelled_json)),
        ("errors", Json::Array(errors_json)),
    ])
}

/// Client mode: stream the inputs to a running `qpl-serve` and report the
/// results as they come back.
fn run_connect(addr: &str, options: &Options, tech: &Technology) -> ExitCode {
    let wire_inputs = match build_wire_inputs(options, tech) {
        Ok(inputs) => inputs,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(error) => {
            eprintln!("cannot connect to {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };

    for input in &wire_inputs {
        let mut submit = SubmitRequest::new(input.id.clone(), input.source.clone());
        submit.k = options.k;
        submit.algorithm = options.algorithm;
        submit.alpha = options.alpha;
        submit.executor = options.executor_choice;
        submit.progress = options.progress;
        submit.verify = options.verify;
        submit.tile_size = options.tiling.map(|tiling| tiling.tile_size.value());
        submit.halo = options.tiling.and_then(|tiling| tiling.halo).map(Nm::value);
        submit.hier = options.hier;
        submit.deadline_ms = options.deadline_ms;
        if let Err(error) = client.send(&Request::Submit(submit)) {
            eprintln!("cannot send to {addr}: {error}");
            return ExitCode::FAILURE;
        }
    }

    let index_of = |id: &str| wire_inputs.iter().position(|input| input.id == *id);
    let label_of =
        |id: &str| index_of(id).map_or_else(|| id.to_string(), |i| wire_inputs[i].label.clone());
    let mut results: Vec<Option<ResultPayload>> = wire_inputs.iter().map(|_| None).collect();
    let mut errors: Vec<(Option<String>, String, String)> = Vec::new();
    let mut cancelled: Vec<(String, usize, usize, u64)> = Vec::new();
    let mut remaining = wire_inputs.len();
    while remaining > 0 {
        match client.recv() {
            Ok(Response::Queued {
                id,
                layout,
                vertices,
                components,
            }) => {
                if !options.json {
                    eprintln!(
                        "queued {}: layout {layout}, {vertices} vertices, {components} components",
                        label_of(&id)
                    );
                }
            }
            Ok(Response::Progress { id, done, total }) => {
                if options.progress {
                    eprintln!("[{done}/{total}] {}", label_of(&id));
                }
            }
            Ok(Response::TileProgress { id, done, total }) => {
                if options.progress {
                    eprintln!("[tile {done}/{total}] {}", label_of(&id));
                }
            }
            Ok(Response::HierProgress { id, done, total }) => {
                if options.progress {
                    eprintln!("[hier {done}/{total}] {}", label_of(&id));
                }
            }
            Ok(Response::Result(payload)) => match index_of(&payload.id) {
                Some(index) if results[index].is_none() => {
                    results[index] = Some(payload);
                    remaining -= 1;
                }
                _ => {
                    eprintln!("unexpected result for id {:?}", payload.id);
                    return ExitCode::FAILURE;
                }
            },
            Ok(Response::Cancelled {
                id,
                components_completed,
                components_skipped,
                bnb_nodes,
            }) => {
                eprintln!(
                    "{}: cancelled ({components_completed} components completed, \
                     {components_skipped} skipped, {bnb_nodes} B&B nodes)",
                    label_of(&id)
                );
                let tagged = index_of(&id);
                cancelled.push((id, components_completed, components_skipped, bnb_nodes));
                match tagged {
                    Some(index) if results[index].is_none() => remaining -= 1,
                    _ => {}
                }
            }
            Ok(Response::Error { id, code, message }) => {
                eprintln!(
                    "{}: {} error: {message}",
                    id.as_deref().map_or_else(|| "server".to_string(), label_of),
                    code.as_str()
                );
                let tagged = id.as_deref().and_then(index_of);
                errors.push((id, code.as_str().to_string(), message));
                match tagged {
                    Some(index) if results[index].is_none() => remaining -= 1,
                    // An untagged (or duplicate) error cannot be matched to
                    // a pending submission; keep waiting for the rest.
                    _ => {}
                }
            }
            Ok(_) => {}
            Err(error) => {
                eprintln!("{error}");
                return ExitCode::FAILURE;
            }
        }
    }

    if options.shutdown {
        if let Err(error) = client.shutdown() {
            eprintln!("shutdown failed: {error}");
            return ExitCode::FAILURE;
        }
        if !options.json {
            eprintln!("server at {addr} is shutting down");
        }
    }

    if options.json {
        let json = render_connect_json(addr, &results, &cancelled, &errors);
        if let Err(error) = print_json(&json) {
            eprintln!("cannot write the JSON summary: {error}");
            return ExitCode::FAILURE;
        }
    } else {
        let mut summary = Summary::default();
        for (input, result) in wire_inputs.iter().zip(&results) {
            if let Some(payload) = result {
                print_summary(&mut summary, &input.label, payload);
            }
        }
        if let Some(message) = summary.finish() {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    // A cancelled submission produced no colors; like an error, that is a
    // non-success exit (deadline-exceeded *partial results* still count as
    // success — the flags travel in the JSON for callers that care).
    if errors.is_empty() && cancelled.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let tech = Technology::nm20();
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(addr) = options.connect.clone() {
        return run_connect(&addr, &options, &tech);
    }

    let layouts = match load_local_layouts(&options, &tech) {
        Ok(layouts) => layouts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = DecomposerConfig::k_patterning(options.k, tech)
        .with_algorithm(options.algorithm)
        .with_alpha(options.alpha);
    if !options.stitches {
        config.stitch = StitchConfig::disabled();
    }

    // The executor is part of the typed-error surface: `--threads 0` is a
    // ConfigError, not a panic.
    let executor: Box<dyn Executor> = match options.threads {
        None => Box::new(SerialExecutor),
        Some(threads) => match ThreadPoolExecutor::new(threads) {
            Ok(pool) => Box::new(pool),
            Err(error) => {
                eprintln!("{error}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Stage 1: plan every input and submit it to one shared session.
    // Invalid configurations (e.g. `--k 1`, negative `--alpha`) and
    // degenerate layouts surface here as typed errors.
    let decomposer = Decomposer::new(config);
    let memo = options
        .memo
        .then(|| Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY)));
    let mut session = DecompositionSession::new();
    if let Some(cache) = &memo {
        session = session.with_memo(Arc::clone(cache));
    }
    for (layout, hierarchy) in &layouts {
        match session.submit_layout(&decomposer, layout) {
            Ok(id) => session.set_hierarchy(id, hierarchy.clone()),
            Err(error) => {
                eprintln!("{}: {error}", layout.name());
                return ExitCode::FAILURE;
            }
        }
    }

    // Stage 2: drain the whole batch through the executor and the driver
    // the flags chose: the halo-aware tiler with --tile-size, the
    // cell-level hierarchical driver with --hier, the plain batch engine
    // otherwise.
    session.set_tiling(options.tiling);
    let batch_start = Instant::now();
    let stderr_progress = StderrProgress {
        label: match (options.hier, options.tiling.is_some()) {
            (true, _) => "hier ",
            (false, true) => "tile ",
            (false, false) => "",
        },
        names: layouts
            .iter()
            .map(|(layout, _)| layout.name().to_string())
            .collect(),
    };
    let progress: &dyn Progress = if options.progress {
        &stderr_progress
    } else {
        &()
    };
    let runs = match mpl_serve::run_layouts(&session, executor.as_ref(), options.hier, progress) {
        Ok(runs) => runs,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::FAILURE;
        }
    };
    let batch_wall = batch_start.elapsed();
    let memo_stats = memo.as_ref().map(|cache| cache.stats());

    let batch_size = runs.len();
    let mut summary = Summary::default();
    let mut any_mismatch = false;
    let mut write_errors = Vec::new();
    let mut layout_json = Vec::with_capacity(batch_size);
    for (index, run) in runs.iter().enumerate() {
        if !options.json && index > 0 {
            summary.line(format_args!(""));
        }
        let artifacts = process_layout(
            &mut summary,
            &options,
            &tech,
            &layouts[index].0,
            &session,
            run,
            memo_stats.as_ref(),
            index,
            batch_size,
        );
        any_mismatch |= artifacts.verify_mismatch;
        write_errors.extend(artifacts.write_error);
        layout_json.push(artifacts.json);
    }

    if options.json {
        let printed = if batch_size == 1 {
            // The single-layout summary keeps the pre-batch shape.
            print_json(&layout_json[0])
        } else {
            let components = session.task_count();
            let wall = batch_wall.as_secs_f64();
            let batch = Json::object(vec![
                ("layouts", batch_size.into()),
                ("components", components.into()),
                ("executor", executor.name().into()),
                ("wall_seconds", wall.into()),
                (
                    "layouts_per_sec",
                    (batch_size as f64 / wall.max(1e-12)).into(),
                ),
                (
                    "components_per_sec",
                    (components as f64 / wall.max(1e-12)).into(),
                ),
            ]);
            let document = Json::object(vec![
                ("batch", batch),
                ("layouts", Json::Array(layout_json)),
            ]);
            print_json(&document)
        };
        if let Err(error) = printed {
            write_errors.push(format!("cannot write the JSON summary: {error}"));
        }
    } else if batch_size > 1 {
        summary.line(format_args!(
            "\nbatch: {} layouts, {} component tasks in {:.3}s on {} ({:.1} layouts/s, {:.1} components/s)",
            batch_size,
            session.task_count(),
            batch_wall.as_secs_f64(),
            executor.name(),
            batch_size as f64 / batch_wall.as_secs_f64().max(1e-12),
            session.task_count() as f64 / batch_wall.as_secs_f64().max(1e-12)
        ));
    }
    if !options.json {
        if let Some(stats) = &memo_stats {
            summary.line(format_args!(
                "memo cache: {} entries, {} hits, {} misses, {} evictions ({} bytes)",
                stats.entries, stats.hits, stats.misses, stats.evictions, stats.bytes
            ));
        }
    }

    write_errors.extend(summary.finish());
    // Write failures are reported *after* the JSON summary so machine
    // consumers always get their output; they still fail the process.
    for message in &write_errors {
        eprintln!("{message}");
    }
    if any_mismatch || !write_errors.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
