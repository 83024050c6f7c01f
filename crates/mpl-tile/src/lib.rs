//! Halo-aware spatial tiling for full-chip layout decomposition.
//!
//! The decomposition flow of Yu & Pan (DAC 2014) scales by shattering the
//! conflict graph into independent components, but a full-chip layout
//! yields single connected components far larger than any exact or SDP
//! engine can hold.  This crate adds the standard production answer:
//! spatial windowing.
//!
//! 1. **Partition** — a [`TileGrid`] of square windows is laid over the
//!    layout bounding box; every graph vertex is owned by the window
//!    containing its polygon-bbox center.
//! 2. **Shard** — components resident in one window flow through the
//!    ordinary batch engine untouched (bit-identical to untiled); a
//!    component spanning windows is sharded into per-window pieces, each
//!    expanded by a conflict-radius halo plus the one-hop edge closure of
//!    its owned vertices, so no conflict or stitch edge is invisible to
//!    the piece owning either endpoint.
//! 3. **Decompose and reconcile** — the partition goes to the shared
//!    [`mpl_core::partition`] driver, which drains every piece through one
//!    [`DecompositionSession`] queue (so the thread pool and the
//!    translation-canonical memo cache apply per tile for free), then
//!    merges tiles deterministically in row-major order: the
//!    mismatch-minimising color permutation aligns each tile with the halo
//!    vertices already fixed (free — permutations preserve all intra-tile
//!    cost), then a bounded greedy repair pass re-colors boundary-strip
//!    vertices that strictly lower the global cost.
//!
//! The merged result is rebuilt over the **full** layout graph
//! ([`DecompositionResult::assemble`](mpl_core::DecompositionResult::assemble)),
//! so its conflict count always agrees with the independent
//! [`verify_spacing`](mpl_core::verify_spacing) checker — tiling can never
//! silently hide a violation.
//!
//! [`DecompositionSession`]: mpl_core::DecompositionSession

mod driver;
mod grid;
mod shard;

pub use driver::{run_tiled, run_tiled_observed, TileStats, TiledLayoutResult};
pub use grid::TileGrid;

#[cfg(test)]
mod tests;
