//! Umbrella crate for the quadruple-patterning layout decomposition
//! reproduction.
//!
//! This crate re-exports the workspace members so that the runnable examples
//! under `examples/` and the integration tests under `tests/` can exercise
//! the full public API from a single dependency:
//!
//! * [`mpl_geometry`] — geometric primitives (nanometre units, rectangles,
//!   polygons, spatial index).
//! * [`mpl_layout`] — layout model, technology parameters, and the synthetic
//!   ISCAS-style benchmark generators.
//! * [`mpl_gds`] — GDSII I/O: opens real mask layouts as workloads and
//!   exports colored decompositions (one layer per mask).
//! * [`mpl_graph`] — graph algorithms (connectivity, biconnectivity, max
//!   flow, Gomory–Hu trees).
//! * [`mpl_sdp`] — the semidefinite-programming relaxation solver.
//! * [`mpl_ilp`] — the 0-1 branch-and-bound / exact coloring solver.
//! * [`mpl_core`] — the layout decomposition framework itself (decomposition
//!   graph, graph division, color assignment, reporting).
//!
//! # Architecture: the batch-first plan → submit → run pipeline
//!
//! The decomposition flow of the paper (Fig. 2) — graph construction, graph
//! division, per-component color assignment — is staged behind a
//! batch-first API in [`mpl_core`]:
//!
//! 1. **Plan.** [`mpl_core::Decomposer::plan`] validates the configuration
//!    and the layout (returning typed [`mpl_core::DecomposeError`]s instead
//!    of panicking), builds the decomposition graph, and materialises every
//!    independent component as a self-contained
//!    [`mpl_core::ComponentTask`] — the induced sub-problem plus its
//!    local → global vertex map — inside an inspectable
//!    [`mpl_core::DecompositionPlan`].
//! 2. **Submit.** A [`mpl_core::DecompositionSession`] batches plans from
//!    *many* layouts: every submitted plan's tasks join one shared,
//!    largest-first global queue, tagged with the
//!    [`mpl_core::LayoutId`] the submission returned.
//! 3. **Run.** [`mpl_core::DecompositionSession::run`] drains the whole
//!    batch through a pluggable [`mpl_core::Executor`]:
//!    [`mpl_core::SerialExecutor`] colors tasks one by one,
//!    [`mpl_core::ThreadPoolExecutor`] fans them out to a scoped thread
//!    pool, largest component first *across layouts*, so small layouts
//!    never leave pool workers idle.  Components are independent by
//!    construction, so every executor and every batching yields
//!    **byte-identical** per-layout colors (assuming no engine wall-clock
//!    cut-off — e.g. the exact engine's time limit — fires mid-component);
//!    only wall-clock time changes.  A [`mpl_core::Progress`] receives
//!    one in-order `done`/`total` tick per finished component of each
//!    layout, and each final
//!    [`mpl_core::DecompositionResult`] carries a per-component breakdown
//!    ([`mpl_core::ComponentStats`]) plus
//!    [`mpl_core::DecompositionResult::mask_layouts`], which splits the
//!    input into K colored layouts.
//!    [`mpl_core::DecompositionPlan::execute`] remains as the degenerate
//!    one-plan batch.
//!
//! ```
//! use qpl_mpl::mpl_core::{ColorAlgorithm, Decomposer, DecomposerConfig,
//!                         DecompositionSession, SerialExecutor, ThreadPoolExecutor};
//! use qpl_mpl::mpl_layout::{gen, Technology};
//!
//! let tech = Technology::nm20();
//! let config = DecomposerConfig::quadruple(tech).with_algorithm(ColorAlgorithm::Linear);
//! let decomposer = Decomposer::new(config);
//!
//! let mut session = DecompositionSession::new();                  // stages 1+2
//! session.submit_layout(&decomposer, &gen::fig1_contact_clique(&tech))?;
//! session.submit_layout(&decomposer, &gen::k5_cluster_layout(&tech))?;
//!
//! let pooled = session.run(&ThreadPoolExecutor::new(2)?);         // stage 3
//! let serial = session.run(&SerialExecutor);
//! for ((_, a), (_, b)) in pooled.iter().zip(&serial) {
//!     assert_eq!(a.colors(), b.colors());      // schedules never change colors
//! }
//! assert_eq!(pooled[0].1.conflicts(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `qpl-decompose` binary fronts the same pipeline on the command line
//! — it accepts any mix of text and GDSII inputs and decomposes them as
//! one batch (`--threads N`, `--progress`, `--json`) — and the `mpl-bench`
//! harness drives it for the paper's tables (`--threads` on the `table1`,
//! `table2` and `workload` bins) and for batch throughput measurements
//! (`workload --batch --bench-json`).

pub use mpl_core;
pub use mpl_gds;
pub use mpl_geometry;
pub use mpl_graph;
pub use mpl_ilp;
pub use mpl_layout;
pub use mpl_sdp;
