//! Layout decomposition for quadruple patterning lithography and beyond.
//!
//! This crate is a from-scratch reproduction of the decomposition framework
//! of Yu & Pan, *"Layout Decomposition for Quadruple Patterning Lithography
//! and Beyond"* (DAC 2014).  Given a single-layer layout and a patterning
//! order K (4 for quadruple patterning, 5 for pentuple, any K ≥ 2 in
//! general), it assigns every feature to one of K masks while minimising the
//! number of unresolved conflicts and inserted stitches:
//!
//! 1. **Decomposition graph construction** ([`DecompositionGraph`]) —
//!    features become vertices, features closer than the minimum coloring
//!    distance become conflict edges, and legal stitch candidates split
//!    features into stitch-connected sub-features.  Color-friendly pairs
//!    (Definition 2 of the paper) are detected at the same time.
//! 2. **Graph division** ([`division`]) — independent components, iterative
//!    removal of non-critical vertices, 2-vertex-connected component
//!    splitting, and Gomory–Hu-tree based (K−1)-cut removal with
//!    color-rotation merging.
//! 3. **Color assignment** ([`assign`]) — four interchangeable engines:
//!    exact (ILP-equivalent branch and bound), SDP relaxation followed by
//!    merge-and-backtrack, SDP relaxation followed by greedy mapping, and
//!    the linear-time heuristic with color-friendly rules, peer selection
//!    and post-refinement.
//!
//! The [`Decomposer`] ties the three stages together and produces a
//! [`DecompositionResult`] carrying the mask assignment, a per-component
//! breakdown, and the conflict/stitch/runtime statistics the paper reports
//! in its tables.
//!
//! # The session lifecycle: plan → submit → run
//!
//! The flow above is staged behind a batch-first API.  Production
//! decomposers are driven as services over *streams* of layouts, so the
//! execution layer schedules the component tasks of **many** layouts on
//! one shared executor; a single layout is just the degenerate batch.
//!
//! 1. **Plan.** [`Decomposer::plan`] validates the configuration and the
//!    layout (typed [`DecomposeError`]s instead of panics), builds the
//!    decomposition graph, and materialises every independent component as
//!    a self-contained [`ComponentTask`] inside a [`DecompositionPlan`].
//! 2. **Submit.** A [`DecompositionSession`] collects plans:
//!    [`submit`](DecompositionSession::submit) enqueues a plan's tasks
//!    into one shared, largest-first global queue — each tagged with the
//!    [`LayoutId`] returned by the submission —
//!    ([`submit_layout`](DecompositionSession::submit_layout) plans
//!    internally).  Batches may mix configurations: every task carries its
//!    own plan's engine, K and α.
//! 3. **Run.** [`DecompositionSession::run`] drains the whole batch
//!    through a pluggable [`Executor`] — [`SerialExecutor`] for the
//!    classic single-threaded run, or [`ThreadPoolExecutor`] to color
//!    components on a scoped thread pool, largest component first *across
//!    layouts*, so small layouts never leave pool workers idle — and
//!    returns one [`DecompositionResult`] per layout, in submission order.
//!    Components share no edges, so every executor and every batching
//!    produces bit-identical colors per layout (provided no engine
//!    wall-clock cut-off fires mid-component; see
//!    [`DecompositionPlan::execute`]).
//!
//! [`DecompositionPlan::execute`] is the one-plan session (same engine,
//! layout id `0`), and [`Decomposer::decompose`] remains as the one-call
//! serial convenience wrapper.  Progress is one [`Progress`] tick, "`done`
//! of `total` units of this [`LayoutId`] are finished", delivered in order
//! per layout as each component finishes.
//!
//! Tiled (`mpl-tile`) and hierarchical (`mpl-hier`) runs cut components
//! into pieces and hand them to the one driver in [`partition`], which
//! colors every piece through an inner session, ticks [`Progress`] as each
//! piece finishes, and re-joins them with color permutations.
//!
//! # Reports and JSON
//!
//! [`Json`] is the workspace's one JSON value type: the `qpl-decompose`
//! CLI, the `mpl-bench` reports and the `mpl-serve` wire protocol build
//! (and the protocol parses) their documents with it — `{}` writes the
//! compact frame form, `{:#}` the report layout.  A statistics record
//! that more than one of them writes — [`LayoutCounters`], [`MemoStats`],
//! and `mpl-tile`'s and `mpl-hier`'s `TileStats` and `HierStats` —
//! implements [`JsonRecord`] from one [`json_record!`] key list next to its
//! declaration, so a new field is a one-file change.
//!
//! # Quick start
//!
//! ```
//! use mpl_core::{ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession,
//!                SerialExecutor, ThreadPoolExecutor};
//! use mpl_layout::{gen, Technology};
//!
//! let tech = Technology::nm20();
//! let config = DecomposerConfig::quadruple(tech).with_algorithm(ColorAlgorithm::Linear);
//! let decomposer = Decomposer::new(config);
//!
//! // Stage 1+2: plan each layout and submit it to a shared session.
//! let mut session = DecompositionSession::new();
//! let clique = session.submit_layout(&decomposer, &gen::fig1_contact_clique(&tech))?;
//! let cluster = session.submit_layout(&decomposer, &gen::k5_cluster_layout(&tech))?;
//!
//! // Stage 3: run the whole batch on one executor; results come back in
//! // submission order, and every schedule agrees bit for bit.
//! let pooled = session.run(&ThreadPoolExecutor::new(2)?);
//! let serial = session.run(&SerialExecutor);
//! assert_eq!(pooled.len(), 2);
//! for ((id_a, a), (id_b, b)) in pooled.iter().zip(&serial) {
//!     assert_eq!(id_a, id_b);
//!     assert_eq!(a.colors(), b.colors());
//! }
//!
//! // The Fig. 1 pattern is a K4: indecomposable with three masks, clean with four.
//! assert_eq!(pooled[clique.index()].1.conflicts(), 0);
//! assert_eq!(pooled[clique.index()].1.mask_layouts().len(), 4);
//! // The K5 cluster needs a fifth mask, so quadruple patterning costs one conflict.
//! assert_eq!(pooled[cluster.index()].1.conflicts(), 1);
//!
//! // The degenerate batch: execute one plan directly.
//! let plan = decomposer.plan(&gen::fig1_contact_clique(&tech))?;
//! assert_eq!(plan.execute(&SerialExecutor).conflicts(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
mod balance;
mod cancel;
mod component;
mod config;
mod cost;
mod decomp_graph;
mod decomposer;
pub mod division;
mod error;
mod executor;
mod json;
mod memo;
pub mod partition;
mod pipeline;
mod report;
mod session;
mod stitch;
pub mod verify;

pub use balance::{rebalance_masks, BalanceReport};
pub use cancel::CancelToken;
pub use component::ComponentProblem;
pub use config::{ColorAlgorithm, DecomposerConfig, DivisionConfig, TileConfig};
pub use cost::{coloring_cost, ColoringCost};
pub use decomp_graph::{DecompositionGraph, VertexId};
pub use decomposer::{Decomposer, DecompositionResult, LayoutCounters};
pub use error::{ConfigError, DecomposeError};
pub use executor::{BatchWork, Executor, SerialExecutor, ThreadPoolExecutor};
pub use json::{FieldError, Json, JsonParseError, JsonRecord};
pub use memo::component_signatures;
pub use mpl_memo::{MemoCache, MemoStats, Signature};
pub use pipeline::{ComponentOutcome, ComponentStats, ComponentTask, DecompositionPlan, Progress};
pub use report::{ResultRow, TableReport};
pub use session::{BatchTask, DecompositionSession, LayoutId};
pub use stitch::StitchConfig;
pub use verify::{density_imbalance, extract_masks, verify_spacing, Mask, SpacingViolation};
