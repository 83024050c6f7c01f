//! The staged decomposition pipeline: an inspectable plan of per-component
//! color-assignment tasks.
//!
//! [`crate::Decomposer::plan`] builds the decomposition graph and
//! materialises every independent component as a self-contained
//! [`ComponentTask`]; the tasks then color on a
//! [`ThreadPoolExecutor`], either alone
//! ([`DecompositionPlan::execute`]) or batched with other layouts' tasks
//! in a [`DecompositionSession`](crate::DecompositionSession).  Because
//! components are independent by construction (no conflict or stitch edge
//! crosses them), tasks can run in any order — or in parallel, interleaved
//! with another layout's tasks — without changing the result.
//!
//! Finished components are counted per layout through [`Progress`];
//! per-component conflict/stitch/time breakdowns are reported as
//! [`ComponentStats`] on the final
//! [`DecompositionResult`](crate::DecompositionResult).

use crate::session::{execute_batch, LayoutId};
use crate::{
    ComponentProblem, Decomposer, DecompositionGraph, DecompositionResult, ThreadPoolExecutor,
};
use std::sync::Arc;
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
#[derive(Debug, Default, Clone, PartialEq)]
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
    /// Wall-clock time of `time` spent inside graph division
    /// (simplification, biconnectivity splitting, (K−1)-cut partition,
    /// rotation merging).
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
    /// Arcs examined by the (K−1)-cut division: its max-flows' BFS and
    /// DFS passes and its local certificates' adjacency reads (a
    /// hardware-independent measure of its work).
    pub arc_scans: u64,
    /// Scratch-buffer growth events while coloring (≈ heap allocations on
    /// the hot path; 0 once a worker's buffers are warm).
    pub scratch_allocs: u64,
    /// Vertices hidden by graph simplification.  Like the other two
    /// simplify counters it is 0 when simplification hid and cut nothing;
    /// with [`iterated_simplify`](crate::DivisionConfig::iterated_simplify)
    /// off it counts the one hide-only pass.
    pub hidden_vertices: usize,
    /// Vertices left in the simplification kernel handed to the engine (0
    /// when simplification hid and cut nothing, or hid everything).
    pub kernel_vertices: usize,
    /// Simplification rounds that made progress before the fixed point (at
    /// most 1 for the hide-only pass).
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

impl ComponentStats {
    /// These stats with the size and quality fields of component `index`
    /// colored `colors` (evaluated on its `problem`); every work counter,
    /// time and flag is kept.
    pub(crate) fn evaluated(self, index: usize, problem: &ComponentProblem, colors: &[u8]) -> Self {
        let (conflicts, stitches, cost) = problem.evaluate(colors);
        ComponentStats {
            index,
            vertex_count: problem.vertex_count(),
            conflict_edge_count: problem.conflict_edges().len(),
            stitch_edge_count: problem.stitch_edges().len(),
            conflicts,
            stitches,
            cost,
            ..self
        }
    }
}

/// The colored outcome of one [`ComponentTask`], produced by the batch's
/// per-task work function.
#[derive(Debug, Clone)]
pub(crate) struct ComponentOutcome {
    /// One color per local vertex of the task's problem.
    pub colors: Vec<u8>,
    /// The task's statistics.
    pub stats: ComponentStats,
}

/// Progress of a running decomposition: `done` of `total` units of `layout`
/// are finished.
///
/// A session run ([`DecompositionSession::run_observed`](crate::DecompositionSession::run_observed))
/// ticks once per component task; the [`partition`](crate::partition)
/// driver ticks once per inner decomposition (a piece, or a layout's batch
/// of resident components) as each one finishes.  Per layout, `done` runs
/// 1, 2, …, `total` in order on every pool size: the batch engine counts
/// and calls under the layout's own lock.  A layout with no units never
/// ticks.
///
/// Pool workers call it from their threads, so implementations must be
/// `Sync`.  `()` ignores every tick.
pub trait Progress: Sync {
    /// `done` of `total` units of `layout` are finished.
    fn done(&self, layout: LayoutId, done: usize, total: usize);
}

impl Progress for () {
    fn done(&self, _layout: LayoutId, _done: usize, _total: usize) {}
}

/// A planned decomposition: the decomposition graph plus one
/// [`ComponentTask`] per independent component, ready to execute.
///
/// The plan is immutable and self-contained; executing it does not mutate
/// it, so the same plan can be executed several times (e.g. once per
/// pool size when comparing schedules) or submitted to a
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

    /// Executes every task on `pool` and assembles the result — the
    /// degenerate one-plan batch (layout id `0`) through the same engine
    /// that drives [`DecompositionSession::run`](crate::DecompositionSession::run).
    ///
    /// The coloring work itself is a function of each task alone, so the
    /// assembled colors are identical for every pool size (and for every
    /// batch the plan is submitted to); only the scheduling (and the
    /// wall-clock `color_time`) differs.  One caveat: engines with
    /// *wall-clock* cut-offs (the exact engine's
    /// [`ilp_time_limit`](crate::DecomposerConfig::ilp_time_limit), the SDP
    /// solve budget) stop at whatever incumbent they reached when the
    /// deadline fires, so on components large enough to hit a deadline the
    /// result can depend on machine load.  Raise the limits when exact
    /// reproducibility across pool sizes matters.
    pub fn execute(&self, pool: &ThreadPoolExecutor) -> DecompositionResult {
        let entries = [(LayoutId::new(0), self)];
        let mut results = execute_batch(&entries, pool, &(), None, None);
        results
            .pop()
            .expect("a one-plan batch produces exactly one result")
            .1
    }
}
