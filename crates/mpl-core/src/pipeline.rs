//! The staged decomposition pipeline: an inspectable plan of per-component
//! color-assignment tasks.
//!
//! [`crate::Decomposer::plan`] builds the decomposition graph and
//! materialises every independent component as a self-contained
//! [`ComponentTask`]; the tasks then execute through a pluggable
//! [`Executor`](crate::Executor), either alone
//! ([`DecompositionPlan::execute`]) or batched with other layouts' tasks
//! in a [`DecompositionSession`](crate::DecompositionSession).  Because
//! components are independent by construction (no conflict or stitch edge
//! crosses them), tasks can run in any order — or in parallel, interleaved
//! with another layout's tasks — without changing the result.
//!
//! Progress can be traced with a [`DecompositionObserver`]; per-component
//! conflict/stitch/time breakdowns are reported as [`ComponentStats`] on the
//! final [`DecompositionResult`](crate::DecompositionResult).

use crate::session::{execute_batch, LayoutId};
use crate::{ComponentProblem, Decomposer, DecompositionGraph, DecompositionResult};
use crate::{Executor, SerialExecutor};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One independent component of the decomposition graph, packaged as a
/// self-contained color-assignment task.
#[derive(Debug, Clone)]
pub struct ComponentTask {
    index: usize,
    problem: ComponentProblem,
    to_global: Vec<usize>,
}

impl ComponentTask {
    pub(crate) fn new(index: usize, problem: ComponentProblem, to_global: Vec<usize>) -> Self {
        ComponentTask {
            index,
            problem,
            to_global,
        }
    }

    /// Position of this task in [`DecompositionPlan::tasks`].
    pub fn index(&self) -> usize {
        self.index
    }

    /// The induced color-assignment problem (local dense vertex ids).
    pub fn problem(&self) -> &ComponentProblem {
        &self.problem
    }

    /// Maps each local vertex id to its decomposition-graph vertex id.
    pub fn to_global(&self) -> &[usize] {
        &self.to_global
    }

    /// Number of vertices in the component.
    pub fn vertex_count(&self) -> usize {
        self.problem.vertex_count()
    }
}

/// Per-component statistics reported after execution — the task-level
/// breakdown of the totals on [`DecompositionResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentStats {
    /// The task index this entry belongs to.
    pub index: usize,
    /// Number of vertices in the component.
    pub vertex_count: usize,
    /// Number of conflict edges in the component.
    pub conflict_edge_count: usize,
    /// Number of stitch edges in the component.
    pub stitch_edge_count: usize,
    /// Unresolved conflicts after color assignment.
    pub conflicts: usize,
    /// Stitches inserted by color assignment.
    pub stitches: usize,
    /// The component's weighted objective `conflicts + α · stitches`.
    pub cost: f64,
    /// Wall-clock time spent coloring the component.
    pub time: Duration,
    /// Wall-clock time of `time` spent inside graph division (peeling,
    /// biconnectivity splitting, (K−1)-cut partition, rotation merging).
    pub division_time: Duration,
    /// Branch-and-bound nodes expanded by the exact engine on this
    /// component (0 for the heuristic engines).
    pub bnb_nodes: u64,
    /// `true` when the exact engine's wall-clock budget expired on some
    /// piece of this component: its colors are the incumbent found so far,
    /// not a proven optimum.
    pub hit_time_limit: bool,
    /// Max-flow augmenting paths pushed by the (K−1)-cut division.
    pub augmenting_paths: u64,
    /// The certified ceiling for `augmenting_paths`: Σ `|piece| · K` over
    /// the division's partition calls.
    pub augmenting_path_bound: u64,
    /// Max-flow arcs examined by the (K−1)-cut division (BFS and DFS
    /// passes; a hardware-independent measure of its work).
    pub arc_scans: u64,
    /// Scratch-buffer growth events while coloring (≈ heap allocations on
    /// the hot path; 0 once a worker's buffers are warm).
    pub scratch_allocs: u64,
    /// Vertices hidden by iterated simplification (0 when the component was
    /// already at the fixed point and took the one-shot division path).
    pub hidden_vertices: usize,
    /// Vertices left in the simplification kernel handed to the engine (0
    /// when simplification did not run or hid everything).
    pub kernel_vertices: usize,
    /// Iterated-simplification rounds that made progress before the fixed
    /// point.
    pub simplify_rounds: usize,
    /// Clique-expansion steps that strengthened the exact engine's lower
    /// bound past the vertex-disjoint clique cover (0 for the heuristic
    /// engines).
    pub bound_improvements: u64,
    /// `true` when an explicit [`CancelToken`](crate::CancelToken)
    /// cancellation stopped this component's work — either mid-search (the
    /// colors are the engine's incumbent) or before the task started
    /// (`skipped` is also set).
    pub cancelled: bool,
    /// `true` when the request deadline carried by the component's
    /// [`CancelToken`](crate::CancelToken) was observed expired while (or
    /// before) the component ran.
    pub deadline_exceeded: bool,
    /// `true` when the component never reached an engine at all: its
    /// request was cancelled (or its deadline expired) before the task
    /// started, so the colors are the all-zero placeholder and the
    /// conflict/stitch counts are an honest evaluation of that placeholder.
    pub skipped: bool,
    /// Whether the component's colors came from the memo cache instead of
    /// an engine run: `None` when no cache was attached, `Some(true)` when
    /// the coloring was stamped from a cached (or batch-deduplicated)
    /// canonical coloring, `Some(false)` when this component was colored by
    /// the engine (a cache miss).  Memoized components report zero engine
    /// work counters and `time == Duration::ZERO`.
    pub memo_hit: Option<bool>,
}

/// The colored outcome of one [`ComponentTask`], produced by the per-task
/// work function an [`Executor`] drives.
#[derive(Debug, Clone)]
pub struct ComponentOutcome {
    /// One color per local vertex of the task's problem.
    pub colors: Vec<u8>,
    /// The task's statistics.
    pub stats: ComponentStats,
}

/// Progress callbacks fired while a batch executes.
///
/// Every callback carries the [`LayoutId`] of the layout the event belongs
/// to, so one observer can demultiplex an interleaved cross-layout batch;
/// the batch-level hooks bracket the whole run.  A single plan's
/// [`execute`](DecompositionPlan::execute) is the degenerate one-layout
/// batch (id `0`) and fires the same sequence.
///
/// Parallel executors invoke the component callbacks from worker threads,
/// so implementations must be `Sync`; use atomics or locks for mutable
/// state.  All methods have empty default bodies — implement only what you
/// need.
pub trait DecompositionObserver: Sync {
    /// A batch of `layouts` layouts totalling `tasks` component tasks is
    /// about to execute.
    fn batch_started(&self, layouts: usize, tasks: usize) {
        let _ = (layouts, tasks);
    }

    /// Execution is about to start on `plan` (fired once per layout, in
    /// submission order, before any component runs).
    fn execution_started(&self, layout: LayoutId, plan: &DecompositionPlan) {
        let _ = (layout, plan);
    }

    /// A component task of `layout` was picked up by a worker.
    fn component_started(&self, layout: LayoutId, task: &ComponentTask) {
        let _ = (layout, task);
    }

    /// A component task of `layout` finished with the given statistics.
    fn component_finished(&self, layout: LayoutId, task: &ComponentTask, stats: &ComponentStats) {
        let _ = (layout, task, stats);
    }

    /// Every task of `layout` finished; `result` is its assembled
    /// decomposition.
    fn execution_finished(&self, layout: LayoutId, result: &DecompositionResult) {
        let _ = (layout, result);
    }

    /// Every layout of the batch finished; `results` is what the run
    /// returns, in submission order.
    fn batch_finished(&self, results: &[(LayoutId, DecompositionResult)]) {
        let _ = results;
    }
}

/// An observer that ignores every event (the default for
/// [`DecompositionPlan::execute`] and
/// [`DecompositionSession::run`](crate::DecompositionSession::run)).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl DecompositionObserver for NoopObserver {}

/// A per-layout progress consumer for streaming front ends.
///
/// [`DecompositionObserver`] reports raw events; a service that streams
/// progress *per layout* (a queue position, `done`/`total` counters, the
/// final result) would have to re-derive the counters itself — and every
/// front end would redo the same bookkeeping.  Implement this trait instead
/// and wrap it in a [`ProgressObserver`]: the adapter tracks each layout's
/// completed-component count and calls the sink with ready-to-forward
/// numbers.
///
/// Like observers, sinks are called from executor worker threads and must
/// be `Sync`.
pub trait ProgressSink: Sync {
    /// `layout` entered execution; its plan has `total` component tasks.
    fn layout_started(&self, layout: LayoutId, total: usize) {
        let _ = (layout, total);
    }

    /// A component of `layout` finished; `done` of `total` are complete.
    ///
    /// `done` is strictly increasing per layout (1, 2, …, `total`), even
    /// when components finish concurrently on a pool executor.
    fn component_done(&self, layout: LayoutId, done: usize, total: usize) {
        let _ = (layout, done, total);
    }

    /// Every component of `layout` finished and its result is assembled.
    fn layout_finished(&self, layout: LayoutId, result: &DecompositionResult) {
        let _ = (layout, result);
    }
}

impl<S: ProgressSink + ?Sized> ProgressSink for &S {
    fn layout_started(&self, layout: LayoutId, total: usize) {
        (**self).layout_started(layout, total);
    }

    fn component_done(&self, layout: LayoutId, done: usize, total: usize) {
        (**self).component_done(layout, done, total);
    }

    fn layout_finished(&self, layout: LayoutId, result: &DecompositionResult) {
        (**self).layout_finished(layout, result);
    }
}

/// Adapts a [`ProgressSink`] to the [`DecompositionObserver`] interface,
/// maintaining the per-layout `done`/`total` counters.
///
/// The counter update and the sink call happen under one lock per layout
/// batch, so `done` values reach the sink in order even when a pool
/// executor finishes components concurrently.
pub struct ProgressObserver<S> {
    sink: S,
    counts: Mutex<HashMap<LayoutId, (usize, usize)>>,
}

impl<S: ProgressSink> ProgressObserver<S> {
    /// Wraps `sink` (pass `&sink` to keep ownership).
    pub fn new(sink: S) -> Self {
        ProgressObserver {
            sink,
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }
}

impl<S: ProgressSink> DecompositionObserver for ProgressObserver<S> {
    fn execution_started(&self, layout: LayoutId, plan: &DecompositionPlan) {
        let total = plan.tasks().len();
        self.counts
            .lock()
            .expect("no panics while counting progress")
            .insert(layout, (0, total));
        self.sink.layout_started(layout, total);
    }

    fn component_finished(&self, layout: LayoutId, _task: &ComponentTask, _stats: &ComponentStats) {
        // Hold the lock across the sink call so two workers finishing
        // components of the same layout cannot deliver `done` out of order.
        let mut counts = self
            .counts
            .lock()
            .expect("no panics while counting progress");
        let entry = counts
            .get_mut(&layout)
            .expect("component_finished after execution_started");
        entry.0 += 1;
        let (done, total) = *entry;
        self.sink.component_done(layout, done, total);
    }

    fn execution_finished(&self, layout: LayoutId, result: &DecompositionResult) {
        self.counts
            .lock()
            .expect("no panics while counting progress")
            .remove(&layout);
        self.sink.layout_finished(layout, result);
    }
}

/// A planned decomposition: the decomposition graph plus one
/// [`ComponentTask`] per independent component, ready to execute.
///
/// The plan is immutable and self-contained; executing it does not mutate
/// it, so the same plan can be executed several times (e.g. once per
/// executor when comparing schedules) or submitted to a
/// [`DecompositionSession`](crate::DecompositionSession) to run batched
/// with other layouts.
#[derive(Debug, Clone)]
pub struct DecompositionPlan {
    decomposer: Decomposer,
    layout_name: String,
    /// Shared with every result this plan produces (geometry lookups for
    /// `mask_layouts()`), so executing never copies the graph.
    graph: Arc<DecompositionGraph>,
    tasks: Vec<ComponentTask>,
    graph_time: Duration,
}

impl DecompositionPlan {
    pub(crate) fn new(
        decomposer: Decomposer,
        layout_name: String,
        graph: DecompositionGraph,
        tasks: Vec<ComponentTask>,
        graph_time: Duration,
    ) -> Self {
        DecompositionPlan {
            decomposer,
            layout_name,
            graph: Arc::new(graph),
            tasks,
            graph_time,
        }
    }

    /// The shared graph handle handed to results.
    pub(crate) fn graph_arc(&self) -> &Arc<DecompositionGraph> {
        &self.graph
    }

    /// A clone of the shared graph handle, for drivers (like the `mpl-tile`
    /// crate) that derive sub-plans over the same graph without copying it.
    pub fn graph_shared(&self) -> Arc<DecompositionGraph> {
        Arc::clone(&self.graph)
    }

    /// Builds a plan whose tasks are hand-picked sub-problems of `graph`
    /// rather than its independent components.
    ///
    /// This is the escape hatch the `mpl-tile` crate uses to route tile
    /// windows of an oversized component through the ordinary batch engine:
    /// each `(problem, to_global)` pair becomes a [`ComponentTask`] (indexed
    /// in the order given), sharing `graph` with the parent plan so memo
    /// canonicalization and result assembly see the exact same geometry.
    /// Every `to_global` entry must be a valid vertex id of `graph`, and the
    /// problems must be induced sub-problems of it for the recomputed cost
    /// to mean anything.  `graph_time` is reported as zero: the parent plan
    /// already paid for the graph.
    pub fn for_subproblems(
        decomposer: Decomposer,
        layout_name: String,
        graph: Arc<DecompositionGraph>,
        subproblems: Vec<(ComponentProblem, Vec<usize>)>,
    ) -> Self {
        let tasks = subproblems
            .into_iter()
            .enumerate()
            .map(|(index, (problem, to_global))| ComponentTask::new(index, problem, to_global))
            .collect();
        DecompositionPlan {
            decomposer,
            layout_name,
            graph,
            tasks,
            graph_time: Duration::ZERO,
        }
    }

    /// The decomposer the plan was built by (the batch engine colors each
    /// task with its own plan's configuration).
    pub(crate) fn decomposer(&self) -> &Decomposer {
        &self.decomposer
    }

    /// The layout the plan was built for.
    pub fn layout_name(&self) -> &str {
        &self.layout_name
    }

    /// The configuration the plan was built with.
    pub fn config(&self) -> &crate::DecomposerConfig {
        self.decomposer.config()
    }

    /// The decomposition graph.
    pub fn graph(&self) -> &DecompositionGraph {
        &self.graph
    }

    /// The independent component tasks, in discovery order.
    pub fn tasks(&self) -> &[ComponentTask] {
        &self.tasks
    }

    /// Time spent constructing the decomposition graph and the tasks.
    pub fn graph_time(&self) -> Duration {
        self.graph_time
    }

    /// Executes every task through `executor` and assembles the result —
    /// the degenerate one-plan batch.
    pub fn execute(&self, executor: &dyn Executor) -> DecompositionResult {
        self.execute_observed(executor, &NoopObserver)
    }

    /// Executes every task on the serial executor (convenience).
    pub fn execute_serial(&self) -> DecompositionResult {
        self.execute(&SerialExecutor)
    }

    /// Executes every task through `executor`, reporting progress to
    /// `observer`.
    ///
    /// This is a one-plan batch through the same engine that drives
    /// [`DecompositionSession::run_observed`](crate::DecompositionSession::run_observed);
    /// the plan's tasks are tagged with [`LayoutId`] `0` and observers see
    /// the full batch event sequence.
    ///
    /// The coloring work itself is a function of each task alone, so the
    /// assembled colors are identical for every executor (and for every
    /// batch the plan is submitted to); only the scheduling (and the
    /// wall-clock `color_time`) differs.  One caveat: engines with
    /// *wall-clock* cut-offs (the exact engine's
    /// [`ilp_time_limit`](crate::DecomposerConfig::ilp_time_limit), the SDP
    /// solve budget) stop at whatever incumbent they reached when the
    /// deadline fires, so on components large enough to hit a deadline the
    /// result can depend on machine load.  Raise the limits when exact
    /// reproducibility across executors matters.
    pub fn execute_observed(
        &self,
        executor: &dyn Executor,
        observer: &dyn DecompositionObserver,
    ) -> DecompositionResult {
        let entries = [(LayoutId::new(0), self)];
        let mut results = execute_batch(&entries, executor, observer, None, None);
        results
            .pop()
            .expect("a one-plan batch produces exactly one result")
            .1
    }
}
