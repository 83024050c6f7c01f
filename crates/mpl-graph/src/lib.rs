//! Graph algorithms substrate for multiple-patterning layout decomposition.
//!
//! The layout decomposition flow of Yu & Pan (DAC 2014) reduces mask
//! assignment to coloring a *decomposition graph* and relies on a collection
//! of classical graph algorithms to divide that graph into small components
//! before coloring:
//!
//! * [`Graph`] — a compact undirected graph over a flat [`Csr`] adjacency.
//! * [`connected_components`] — independent component computation.
//! * [`Biconnectivity`] — articulation points, bridges and 2-vertex-connected
//!   components (Tarjan's algorithm).
//! * [`MaxFlow`] — Dinic's blocking-flow maximum-flow algorithm, used both
//!   directly for minimum s–t cuts and as the engine for Gomory–Hu trees.
//! * [`GomoryHuTree`] — Gusfield's "very simple" all-pairs minimum-cut tree,
//!   the data structure behind the paper's GH-tree based 3-cut removal.
//! * [`threshold_components`] — the capped-flow shortcut for the (K−1)-cut
//!   division: the same partition the GH tree yields at threshold K,
//!   certifying each vertex against an already-certified neighbour, by K
//!   edge-disjoint paths of one or two edges where it can find them and
//!   otherwise by a max-flow query of at most K augmenting paths.
//!
//! All algorithms are deterministic and allocation-conscious; vertex ids are
//! dense `usize` indices `0..n`.
//!
//! # Example
//!
//! ```
//! use mpl_graph::{connected_components, Graph};
//!
//! let mut g = Graph::new(5);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! g.add_edge(3, 4);
//! let comps = connected_components(&g);
//! assert_eq!(comps.component_count(), 2);
//! assert_eq!(comps.component_of(0), comps.component_of(2));
//! assert_ne!(comps.component_of(0), comps.component_of(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod biconnected;
mod clique;
mod connected;
mod csr;
mod gomory_hu;
mod graph;
mod maxflow;
mod partition;
mod simplify;

pub use biconnected::Biconnectivity;
pub use clique::{conflict_lower_bound, greedy_disjoint_cliques};
pub use connected::{connected_components, ConnectedComponents};
pub use csr::Csr;
pub use gomory_hu::GomoryHuTree;
pub use graph::Graph;
pub use maxflow::MaxFlow;
pub use partition::{threshold_components, threshold_components_with, ThresholdScratch};
pub use simplify::{simplify, Simplification, SimplifyOp};
