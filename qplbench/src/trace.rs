//! The traced run: the workload's seeded inputs decomposed in-process, once
//! through the program's own path (untraced, for the program's work
//! counters and the overhead baseline) and once layer by layer with a span
//! around every call into a layer's public functions.
//!
//! Spans live in memory and are written out as JSON lines when the run
//! ends.  A layer's self time is its span's duration minus its children's.
//! `DecompositionGraph::build` runs as a *probe*: `Decomposer::plan` builds
//! the same graph internally, so the probe's duration stands in for that
//! part of the plan span (`plan.extract` = plan − build) and the probe
//! itself is left out of the coverage denominator.

use crate::recount::{self, Quality, ALPHA, K};
use crate::report::{median, Report};
use mpl_core::assign::{assigner_for, ColorAssigner};
use mpl_core::division::{biconnected_blocks, ghtree_pieces, merge_with_rotation, peel_low_degree};
use mpl_core::{
    component_signatures, extract_masks, ColorAlgorithm, ComponentProblem, Decomposer,
    DecomposerConfig, DecompositionGraph, DecompositionPlan, DecompositionResult,
    DecompositionSession, MemoCache, Signature, ThreadPoolExecutor, TileConfig,
};
use mpl_gds::{GdsLibrary, LayerMap, ReadOptions};
use mpl_geometry::Nm;
use mpl_hier::HierStats;
use mpl_layout::{io, Layout, LayoutHierarchy};
use mpl_tile::TileStats;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of the in-process pool (the programs' `--threads 2`).
pub const THREADS: usize = 2;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: u64,
    pub probe: bool,
}

/// An in-memory span recorder for one thread of work.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// The request id stamped on spans begun from now on.
    pub request: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64()
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.at(Instant::now()),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request: self.request,
            probe: false,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.at(Instant::now());
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let value = f();
        self.end(id);
        value
    }

    /// Runs `f` inside a probe span (see the module documentation).
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        self.spans[id].probe = true;
        let value = f();
        self.end(id);
        value
    }

    /// Records a span measured elsewhere (client threads).
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            request: self.request,
            probe: false,
        });
        self.spans.len() - 1
    }

    /// Per-span self time: duration minus the children's durations.
    pub fn self_times(&self) -> Vec<f64> {
        let mut times: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                times[parent] -= span.end - span.start;
            }
        }
        times
    }

    /// Writes the first `count` spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path, count: usize) -> Result<(), String> {
        let mut out = String::new();
        for span in &self.spans[..count] {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"request\": {}, \"probe\": {}}}\n",
                span.name, span.start, span.end, span.request, span.probe
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Layer times and work counts of one pass over the workload's inputs.
#[derive(Default)]
pub struct Pass {
    /// Self seconds per span name.
    pub seconds: BTreeMap<&'static str, f64>,
    /// Work counts (summed over the pass's inputs unless noted).
    pub counts: BTreeMap<&'static str, f64>,
    pub traced_wall: f64,
    pub probe_wall: f64,
    pub untraced_wall: f64,
    /// One past the pass's last span in the tracer.
    pub spans_end: usize,
}

impl Pass {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.counts.entry(key).or_default() += value;
    }

    fn max(&mut self, key: &'static str, value: f64) {
        let slot = self.counts.entry(key).or_default();
        *slot = slot.max(value);
    }

    /// Folds the spans `range` of `tracer` (one pass, rooted at its first
    /// span) into layer self times.
    pub fn absorb(&mut self, tracer: &Tracer, range: std::ops::Range<usize>) {
        let self_times = tracer.self_times();
        let root = range.start;
        self.spans_end = range.end;
        self.traced_wall += tracer.spans[root].end - tracer.spans[root].start;
        for index in range {
            let span = &tracer.spans[index];
            if span.parent.is_none() {
                continue;
            }
            if span.probe {
                self.probe_wall += span.end - span.start;
                *self.seconds.entry(span.name).or_default() += span.end - span.start;
            } else {
                *self.seconds.entry(span.name).or_default() += self_times[index];
            }
        }
    }

    fn time(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The pass's value of per-layer metric `name`.
    pub fn metric(&self, name: &str) -> f64 {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        match name {
            "gds.parse_s" => self.time("gds.parse"),
            "gds.write_s" => self.time("gds.write"),
            "layout.text_parse_s" => self.time("layout.text_parse"),
            "graph.build_s" => self.time("graph.build"),
            "plan.extract_s" => (self.time("plan") - self.time("graph.build")).max(0.0),
            "memo.signature_s" => self.time("memo.signature"),
            "memo.hit_ratio" => ratio(
                self.count("memo.hits"),
                self.count("memo.hits") + self.count("memo.misses"),
            ),
            "simplify.s" => self.time("simplify"),
            "division.s" => [
                "division.peel",
                "division.blocks",
                "division.ghtree",
                "division.merge",
            ]
            .iter()
            .map(|n| self.time(n))
            .sum(),
            "division.path_bound_ratio" => ratio(
                self.count("division.augmenting_paths"),
                self.count("division.path_bound"),
            ),
            "engine.s" => self.time("engine"),
            "executor.busy_ratio" => ratio(
                self.count("executor.component_s"),
                self.count("executor.color_s") * THREADS as f64,
            ),
            "tile.s" => self.time("tile"),
            "hier.s" => self.time("hier"),
            "trace.coverage" => {
                // Layer self times, without the per-input root's gaps and
                // without the probe (its duplicate inside the plan span is
                // what it stands for).
                let covered: f64 =
                    self.seconds.values().sum::<f64>() - self.probe_wall - self.time("layout");
                ratio(covered, self.traced_wall - self.probe_wall)
            }
            "trace.overhead_ratio" => ratio(self.traced_wall, self.untraced_wall),
            other => self.count(other),
        }
    }
}

/// Where one input's geometry comes from.
pub enum Source {
    GdsFile(PathBuf),
    /// A GDS stream with cell hierarchy (the serve mix's `gds_base64`).
    GdsBytes(Vec<u8>),
    Text(String),
}

/// How the program decomposes one input.
pub enum Driver {
    Plain,
    Tiled(i64),
    Hier,
}

pub struct Input {
    pub source: Source,
    pub algorithm: ColorAlgorithm,
    pub driver: Driver,
    /// Write the colored export here (the CLI's `--output-gds`).
    pub masks: Option<PathBuf>,
}

fn decomposer(algorithm: ColorAlgorithm) -> Decomposer {
    Decomposer::new(
        DecomposerConfig::quadruple(crate::gen::tech())
            .with_algorithm(algorithm)
            .with_alpha(ALPHA),
    )
}

type Parsed = (Layout, Option<Arc<LayoutHierarchy>>);

fn parse(source: &Source) -> Result<Parsed, String> {
    match source {
        Source::GdsFile(path) => mpl_gds::load_layout_file(
            crate::files::path_str(path)?,
            &LayerMap::all(),
            &ReadOptions::default(),
        )
        .map(|layout| (layout, None))
        .map_err(|e| e.to_string()),
        Source::GdsBytes(bytes) => {
            let library = GdsLibrary::from_bytes(bytes).map_err(|e| e.to_string())?;
            mpl_gds::layout_with_hierarchy(&library, &LayerMap::all(), &ReadOptions::default())
                .map(|(layout, hierarchy)| (layout, Some(Arc::new(hierarchy))))
                .map_err(|e| e.to_string())
        }
        Source::Text(text) => io::from_text(text)
            .map(|layout| (layout, None))
            .map_err(|e| e.to_string()),
    }
}

/// The program's outcome for one input.
pub struct Outcome {
    pub result: DecompositionResult,
    pub tile: Option<TileStats>,
    pub hier: Option<HierStats>,
}

fn run_program(
    plan: DecompositionPlan,
    input: &Input,
    hierarchy: Option<Arc<LayoutHierarchy>>,
    cache: &Arc<MemoCache>,
    pool: &ThreadPoolExecutor,
) -> Result<Outcome, String> {
    let mut session = DecompositionSession::new().with_memo(Arc::clone(cache));
    let id = session.submit(plan);
    match input.driver {
        Driver::Plain => {
            let (_, result) = session.run(pool).pop().ok_or("no result")?;
            Ok(Outcome {
                result,
                tile: None,
                hier: None,
            })
        }
        Driver::Tiled(size) => {
            session.set_tiling(Some(TileConfig::new(Nm(size))));
            let (_, tiled) = mpl_tile::run_tiled(&session, pool)
                .map_err(|e| e.to_string())?
                .pop()
                .ok_or("no result")?;
            Ok(Outcome {
                result: tiled.result,
                tile: Some(tiled.stats),
                hier: None,
            })
        }
        Driver::Hier => {
            session.set_hierarchy(id, hierarchy);
            let (_, hier) = mpl_hier::run_hier(&session, pool)
                .map_err(|e| e.to_string())?
                .pop()
                .ok_or("no result")?;
            Ok(Outcome {
                result: hier.result,
                tile: None,
                hier: Some(hier.stats),
            })
        }
    }
}

fn write_masks(
    path: &Path,
    graph: &DecompositionGraph,
    result: &DecompositionResult,
) -> Result<(), String> {
    let mut per_mask = vec![Vec::new(); K];
    for mask in extract_masks(graph, result.colors()) {
        for &vertex in &mask.vertices {
            per_mask[mask.index].push(graph.polygon(vertex).clone());
        }
    }
    mpl_gds::write_colored_file(
        crate::files::path_str(path)?,
        result.layout_name(),
        &per_mask,
        recount::COLORED_BASE_LAYER,
    )
    .map_err(|e| e.to_string())
}

/// Decomposes `input` the way the program does, untraced; returns the
/// outcome and the wall seconds.
pub fn untraced(
    input: &Input,
    cache: &Arc<MemoCache>,
    pool: &ThreadPoolExecutor,
) -> Result<(Outcome, f64), String> {
    let start = Instant::now();
    let (layout, hierarchy) = parse(&input.source)?;
    let plan = decomposer(input.algorithm)
        .plan(&layout)
        .map_err(|e| e.to_string())?;
    let graph = plan.graph_shared();
    let outcome = run_program(plan, input, hierarchy, cache, pool)?;
    if let Some(path) = &input.masks {
        write_masks(path, &graph, &outcome.result)?;
    }
    Ok((outcome, start.elapsed().as_secs_f64()))
}

/// Adds the program's own work counters of `outcome` to `pass`.
pub fn absorb_program(pass: &mut Pass, outcome: &Outcome) {
    let result = &outcome.result;
    for stats in result.component_stats() {
        pass.add("simplify.hidden_vertices", stats.hidden_vertices as f64);
        pass.add("simplify.kernel_vertices", stats.kernel_vertices as f64);
        pass.add("simplify.rounds", stats.simplify_rounds as f64);
        pass.add("division.augmenting_paths", stats.augmenting_paths as f64);
        pass.add("division.path_bound", stats.augmenting_path_bound as f64);
        pass.add("engine.bnb_nodes", stats.bnb_nodes as f64);
        pass.add("engine.time_limit_hits", stats.hit_time_limit as u8 as f64);
        pass.add("executor.component_s", stats.time.as_secs_f64());
    }
    pass.add("executor.color_s", result.color_time().as_secs_f64());
    pass.add("memo.hits", result.memo_hits().unwrap_or(0) as f64);
    pass.add("memo.misses", result.memo_misses().unwrap_or(0) as f64);
    if let Some(tile) = &outcome.tile {
        pass.add("tile.tiles", tile.tiles as f64);
        pass.add("tile.shared_vertices", tile.shared_vertices as f64);
        pass.add("tile.recolored_vertices", tile.recolored_vertices as f64);
        pass.add(
            "tile.cross_conflicts_after",
            tile.cross_conflicts_after as f64,
        );
    }
    if let Some(hier) = &outcome.hier {
        pass.add("hier.instance_pieces", hier.instance_pieces as f64);
        pass.add("hier.recolored_vertices", hier.recolored_vertices as f64);
        pass.add(
            "hier.cross_conflicts_after",
            hier.cross_conflicts_after as f64,
        );
    }
}

/// Colors one component task layer by layer, each call in its own span:
/// iterated simplification, then peeling, biconnected blocks, (K−1)-cut
/// pieces, the engine per piece and rotation merging on the kernel.
/// Returns the number of (K−1)-cut pieces.
fn replay(tracer: &mut Tracer, problem: &ComponentProblem, assigner: &dyn ColorAssigner) -> usize {
    let simplification = tracer.time("simplify", || {
        mpl_graph::simplify(
            problem.vertex_count(),
            problem.conflict_edges(),
            problem.stitch_edges(),
            problem.k(),
            true,
            true,
        )
    });
    let kernel;
    let problem = if simplification.is_trivial() {
        problem
    } else if simplification.kernel.is_empty() {
        return 0;
    } else {
        kernel = tracer.time("simplify", || {
            problem
                .induced_without(
                    &simplification.kernel,
                    &simplification.cut_conflicts,
                    &simplification.cut_stitches,
                )
                .0
        });
        &kernel
    };
    let peeling = tracer.time("division.peel", || peel_low_degree(problem));
    if peeling.kernel.is_empty() {
        return 0;
    }
    let blocks = tracer.time("division.blocks", || {
        biconnected_blocks(problem, &peeling.kernel)
    });
    let mut colors = vec![0u8; problem.vertex_count()];
    let mut pieces_total = 0;
    for block in &blocks {
        let pieces = tracer.time("division.ghtree", || ghtree_pieces(problem, block));
        pieces_total += pieces.len();
        for piece in &pieces {
            tracer.time("engine", || {
                let (sub, original) = problem.induced(piece);
                let outcome = assigner.assign_with_stats(&sub);
                for (local, &global) in original.iter().enumerate() {
                    colors[global] = outcome.colors[local];
                }
            });
        }
        if pieces.len() > 1 {
            tracer.time("division.merge", || {
                merge_with_rotation(problem, &pieces, &mut colors)
            });
        }
    }
    pieces_total
}

/// The counts a traced pass sees for one input (compared with the
/// program's own figures by the determinism guard).
#[derive(Debug, PartialEq)]
pub struct Shape {
    pub vertices: usize,
    pub conflict_edges: usize,
    pub stitch_edges: usize,
}

/// Decomposes `input` layer by layer inside `tracer`.  Plain inputs are
/// colored by [`replay`] on every task whose signature `seen` does not
/// hold yet (the memo cache's first occurrences); tiled and hierarchical
/// inputs run their driver inside one span.  The colored export, when the
/// input asks for one, is written from `program`'s coloring.  Returns the
/// input's graph (built by the probe) and its shape.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    tracer: &mut Tracer,
    pass: &mut Pass,
    input: &Input,
    program: &Outcome,
    seen: &mut HashSet<Signature>,
    cache: &Arc<MemoCache>,
    pool: &ThreadPoolExecutor,
) -> Result<(DecompositionGraph, Shape), String> {
    let root = tracer.begin("layout");
    let parse_span = match input.source {
        Source::Text(_) => "layout.text_parse",
        _ => "gds.parse",
    };
    let (layout, hierarchy) = tracer.time(parse_span, || parse(&input.source))?;
    let graph = tracer.probe("graph.build", || recount::graph_of(&layout));
    let decomposer = decomposer(input.algorithm);
    let plan = tracer
        .time("plan", || decomposer.plan(&layout))
        .map_err(|e| e.to_string())?;
    let signatures = tracer.time("memo.signature", || component_signatures(&plan));
    pass.add("plan.components", plan.tasks().len() as f64);
    let largest = plan
        .tasks()
        .iter()
        .map(|t| t.vertex_count())
        .max()
        .unwrap_or(0);
    pass.max("plan.largest_component", largest as f64);
    match input.driver {
        Driver::Plain => {
            let assigner = assigner_for(input.algorithm, decomposer.config());
            for (task, signature) in plan.tasks().iter().zip(signatures) {
                if seen.insert(signature) {
                    let pieces = replay(tracer, task.problem(), assigner.as_ref());
                    pass.add("division.pieces", pieces as f64);
                }
            }
        }
        Driver::Tiled(_) => {
            tracer.time("tile", || run_program(plan, input, None, cache, pool))?;
        }
        Driver::Hier => {
            tracer.time("hier", || run_program(plan, input, hierarchy, cache, pool))?;
        }
    }
    if let Some(path) = &input.masks {
        tracer.time("gds.write", || write_masks(path, &graph, &program.result))?;
    }
    tracer.end(root);
    if let Source::GdsFile(path) = &input.source {
        let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        pass.add("gds.bytes", bytes as f64);
    }
    if let Source::GdsBytes(bytes) = &input.source {
        pass.add("gds.bytes", bytes.len() as f64);
    }
    let shape = Shape {
        vertices: graph.vertex_count(),
        conflict_edges: graph.conflict_edges().len(),
        stitch_edges: graph.stitch_edges().len(),
    };
    pass.add("graph.vertices", shape.vertices as f64);
    pass.add("graph.conflict_edges", shape.conflict_edges as f64);
    pass.add("graph.stitch_edges", shape.stitch_edges as f64);
    Ok((graph, shape))
}

/// Checks one traced input against the program's untraced outcome: the
/// graph shape must match, and the program's figures must match the
/// benchmark's recount of its coloring over the probe's graph.
pub fn check(report: &mut Report, graph: &DecompositionGraph, shape: &Shape, program: &Outcome) {
    let result = &program.result;
    let expected = Shape {
        vertices: result.vertex_count(),
        conflict_edges: result.conflict_edge_count(),
        stitch_edges: result.stitch_edge_count(),
    };
    if *shape != expected {
        report.guards.push(format!(
            "{}: traced graph {shape:?} differs from the program's {expected:?}",
            result.layout_name()
        ));
    }
    let reported = Quality {
        conflicts: result.conflicts(),
        stitches: result.stitches(),
        cost: result.cost(),
    };
    let verdict = recount::check(graph, result.colors(), &reported)
        .map_err(|e| format!("{}: {e}", result.layout_name()));
    report.ledger.record(verdict);
}

/// Every per-layer metric the traced run prints, with its unit; the ones
/// marked `true` are also in the result line (they are measured, and
/// non-zero where they are times, on every workload).
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("gds.parse_s", "s", true),
    ("gds.bytes", "bytes", true),
    ("gds.write_s", "s", false),
    ("layout.text_parse_s", "s", false),
    ("graph.build_s", "s", true),
    ("graph.vertices", "count", true),
    ("graph.conflict_edges", "count", true),
    ("graph.stitch_edges", "count", true),
    ("plan.extract_s", "s", true),
    ("plan.components", "count", true),
    ("plan.largest_component", "count", true),
    ("memo.signature_s", "s", true),
    ("memo.hits", "count", true),
    ("memo.misses", "count", true),
    ("memo.hit_ratio", "ratio", true),
    ("simplify.s", "s", true),
    ("simplify.hidden_vertices", "count", true),
    ("simplify.kernel_vertices", "count", true),
    ("simplify.rounds", "count", true),
    ("division.s", "s", true),
    ("division.pieces", "count", true),
    ("division.augmenting_paths", "count", true),
    ("division.path_bound_ratio", "ratio", true),
    ("engine.s", "s", true),
    ("engine.bnb_nodes", "count", true),
    ("engine.time_limit_hits", "count", true),
    ("executor.busy_ratio", "ratio", true),
    ("tile.s", "s", false),
    ("tile.tiles", "count", true),
    ("tile.shared_vertices", "count", true),
    ("tile.recolored_vertices", "count", true),
    ("tile.cross_conflicts_after", "count", true),
    ("hier.s", "s", false),
    ("hier.instance_pieces", "count", true),
    ("hier.recolored_vertices", "count", true),
    ("hier.cross_conflicts_after", "count", true),
    ("serve.queued_ms", "ms", false),
    ("serve.result_ms", "ms", false),
    ("serve.request_bytes", "bytes", true),
    ("serve.result_bytes", "bytes", true),
    ("serve.codec_s", "s", false),
    ("serve.dropped_progress", "count", true),
    ("trace.coverage", "ratio", true),
    ("trace.overhead_ratio", "ratio", true),
];

/// Reports the median over `passes` of every per-layer metric, plus the
/// self-time share table, and writes the spans out.
pub fn finish(
    report: &mut Report,
    passes: &[Pass],
    extra: &BTreeMap<&'static str, f64>,
    tracer: &Tracer,
    spans_path: &Path,
) -> Result<(), String> {
    let value = |name: &str| {
        extra.get(name).copied().unwrap_or_else(|| {
            let values: Vec<f64> = passes.iter().map(|p| p.metric(name)).collect();
            median(&values)
        })
    };
    let shares: Vec<(&str, f64)> = [
        "gds.parse_s",
        "layout.text_parse_s",
        "graph.build_s",
        "plan.extract_s",
        "memo.signature_s",
        "simplify.s",
        "division.s",
        "engine.s",
        "tile.s",
        "hier.s",
        "gds.write_s",
    ]
    .iter()
    .map(|&name| (name, value(name)))
    .collect();
    let layer_total: f64 = shares.iter().map(|s| s.1).sum();
    report.lines.push(format!(
        "{} per-layer self-time shares (median pass):",
        report.workload
    ));
    for (name, seconds) in &shares {
        report.lines.push(format!(
            "{}   {:<24} {:>10.6} s {:>6.1} %",
            report.workload,
            name,
            seconds,
            100.0 * seconds / layer_total.max(1e-12)
        ));
    }
    if let Some((name, _)) = shares.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        report.lines.push(format!(
            "{} largest self-time share: {name}",
            report.workload
        ));
    }
    for &(name, unit, in_result) in PER_LAYER {
        let v = value(name);
        if in_result {
            report.metric(name, v, unit, passes.len());
        } else {
            report.table_line(name, v, unit, passes.len());
        }
    }
    // Every span up to the end of the first pass (client spans come first
    // on serve-mixed): later passes repeat the same calls, and a 30 s rows
    // run records over half a million spans.
    let count = passes.first().map_or(tracer.spans.len(), |p| p.spans_end);
    tracer.write_jsonl(spans_path, count)?;
    report.lines.push(format!(
        "{} spans written to {}",
        report.workload,
        spans_path.display()
    ));
    Ok(())
}
