//! Decomposer configuration.

use crate::{ConfigError, StitchConfig};
use mpl_geometry::Nm;
use mpl_layout::Technology;
use std::time::Duration;

/// The color-assignment engine to run on each divided component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColorAlgorithm {
    /// Exact conflict/stitch minimisation (the paper's ILP baseline,
    /// solved here by an equivalent branch and bound with a time limit).
    Ilp,
    /// Semidefinite relaxation followed by threshold merging and exhaustive
    /// backtracking on the merged graph (Section 3.1, Algorithm 1).
    SdpBacktrack,
    /// Semidefinite relaxation followed by the greedy mapping of
    /// Yu et al. (ICCAD 2011).
    SdpGreedy,
    /// The linear-time color assignment with color-friendly rules, peer
    /// selection and post-refinement (Section 3.2, Algorithm 2).
    Linear,
}

impl ColorAlgorithm {
    /// All four engines, in the column order of the paper's Table 1.
    pub const ALL: [ColorAlgorithm; 4] = [
        ColorAlgorithm::Ilp,
        ColorAlgorithm::SdpBacktrack,
        ColorAlgorithm::SdpGreedy,
        ColorAlgorithm::Linear,
    ];

    /// Human-readable name matching the paper's column headers.
    pub fn name(&self) -> &'static str {
        match self {
            ColorAlgorithm::Ilp => "ILP",
            ColorAlgorithm::SdpBacktrack => "SDP+Backtrack",
            ColorAlgorithm::SdpGreedy => "SDP+Greedy",
            ColorAlgorithm::Linear => "Linear",
        }
    }

    /// Parses a command-line engine name (the shared alias list of the
    /// `qpl-decompose` and `workload` binaries), case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the rejected input.
    pub fn from_cli_name(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "ilp" | "exact" => Ok(ColorAlgorithm::Ilp),
            "sdp-backtrack" | "sdp_backtrack" | "backtrack" => Ok(ColorAlgorithm::SdpBacktrack),
            "sdp-greedy" | "sdp_greedy" | "greedy" => Ok(ColorAlgorithm::SdpGreedy),
            "linear" => Ok(ColorAlgorithm::Linear),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

impl std::fmt::Display for ColorAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which graph-division techniques to apply before color assignment.
///
/// All techniques are enabled by default, matching the paper's experimental
/// setup; individual techniques can be disabled for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivisionConfig {
    /// Iterative removal of vertices with conflict degree < K and stitch
    /// degree < 2.
    pub low_degree_removal: bool,
    /// 2-vertex-connected component splitting at articulation points.
    pub biconnected_split: bool,
    /// Gomory–Hu-tree based (K−1)-cut removal with color-rotation merging.
    pub ghtree_cut_removal: bool,
    /// Iterated simplification to a fixed point (the OpenMPL-style kernel
    /// stage): [`mpl_graph::simplify`] alternates {hide low-degree
    /// vertices, cut bridges} until neither makes progress; only the kernel
    /// is colored, and the rest is reinserted in reverse order.  Every
    /// component goes through that one call: hiding is gated by
    /// [`low_degree_removal`](DivisionConfig::low_degree_removal), and
    /// bridge cutting by this flag together with
    /// [`biconnected_split`](DivisionConfig::biconnected_split), so the
    /// ablation knobs keep their meaning.  Turned off, low-degree vertices
    /// are hidden to a fixed point once and no bridge is cut.
    pub iterated_simplify: bool,
}

impl Default for DivisionConfig {
    fn default() -> Self {
        DivisionConfig {
            low_degree_removal: true,
            biconnected_split: true,
            ghtree_cut_removal: true,
            iterated_simplify: true,
        }
    }
}

impl DivisionConfig {
    /// Disables every division technique (color assignment then sees each
    /// whole connected component).
    pub fn none() -> Self {
        DivisionConfig {
            low_degree_removal: false,
            biconnected_split: false,
            ghtree_cut_removal: false,
            iterated_simplify: false,
        }
    }
}

/// Configuration of the spatial tiling pass for full-chip decomposition.
///
/// Tiling partitions a layout into a grid of square windows of side
/// [`tile_size`](TileConfig::tile_size); connected components spanning more
/// than one window are decomposed tile by tile, each tile expanded by a
/// conflict-radius [`halo`](TileConfig::halo), and the per-tile colorings
/// are reconciled deterministically afterwards.  The configuration lives in
/// `mpl-core` so a [`DecompositionSession`](crate::DecompositionSession)
/// can carry it ([`set_tiling`](crate::DecompositionSession::set_tiling));
/// the tiled driver that consumes it is the `mpl-tile` crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Side length of the square tile core windows.
    pub tile_size: Nm,
    /// Geometric halo each tile window is expanded by when collecting
    /// context shapes.  `None` (the default) derives the halo from the
    /// technology's color-friendly distance for the plan's K, which covers
    /// both conflict edges and color-friendly pairs.  An explicit halo must
    /// be at least the coloring distance.
    pub halo: Option<Nm>,
}

impl TileConfig {
    /// Tiling with the given core window size and the derived default halo.
    pub fn new(tile_size: Nm) -> Self {
        TileConfig {
            tile_size,
            halo: None,
        }
    }

    /// Overrides the derived halo with an explicit distance.
    pub fn with_halo(mut self, halo: Nm) -> Self {
        self.halo = Some(halo);
        self
    }

    /// The validated tiling of one request's `tile_size`/`halo` fields (the
    /// CLI flags, a `submit` frame's fields): `None` without a tile size.
    /// Every front end turns its request into a tiling here, before it
    /// reads any input.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TileHaloWithoutTiling`] for a halo without a tile
    /// size, the errors of [`validate`](TileConfig::validate), then
    /// [`ConfigError::HierWithTiling`] when the request also asks for
    /// hierarchical decomposition (`hier`).
    pub fn from_request(
        tile_size: Option<i64>,
        halo: Option<i64>,
        hier: bool,
    ) -> Result<Option<TileConfig>, ConfigError> {
        let Some(size) = tile_size else {
            return match halo {
                Some(_) => Err(ConfigError::TileHaloWithoutTiling),
                None => Ok(None),
            };
        };
        let mut tiling = TileConfig::new(Nm(size));
        tiling.halo = halo.map(Nm);
        tiling.validate()?;
        if hier {
            return Err(ConfigError::HierWithTiling);
        }
        Ok(Some(tiling))
    }

    /// Checks the configuration: the tile size and any explicit halo must
    /// be positive distances, and the halo must be smaller than the tile
    /// size — a halo spanning a whole tile makes every window swallow its
    /// neighbours, so the "grid" silently degenerates to overlapping
    /// copies of the full layout.  (The per-plan check that the halo
    /// covers the coloring distance happens when the tiled driver sees the
    /// plan's K, which also re-checks the derived default halo against the
    /// tile size.)
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tile_size <= Nm::ZERO {
            return Err(ConfigError::TileSize {
                size: self.tile_size.value(),
            });
        }
        if let Some(halo) = self.halo {
            if halo <= Nm::ZERO {
                return Err(ConfigError::TileHalo { halo: halo.value() });
            }
            if halo >= self.tile_size {
                return Err(ConfigError::TileHaloDominates {
                    halo: halo.value(),
                    tile_size: self.tile_size.value(),
                });
            }
        }
        Ok(())
    }
}

/// Full configuration of a [`crate::Decomposer`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecomposerConfig {
    /// Number of masks K (≥ 2).
    pub k: usize,
    /// Process technology (coloring distances are derived from it).
    pub technology: Technology,
    /// Stitch weight α in the objective `conflicts + α · stitches`.
    pub alpha: f64,
    /// Merge threshold t_th of the SDP + backtrack engine.
    pub sdp_merge_threshold: f64,
    /// The color-assignment engine.
    pub algorithm: ColorAlgorithm,
    /// Graph-division techniques to apply.
    pub division: DivisionConfig,
    /// Stitch-candidate generation parameters.
    pub stitch: StitchConfig,
    /// Wall-clock budget for the exact (ILP) engine per component.
    pub ilp_time_limit: Duration,
}

impl DecomposerConfig {
    /// The paper's quadruple-patterning setup: K = 4, α = 0.1, t_th = 0.9,
    /// all division techniques enabled.
    pub fn quadruple(technology: Technology) -> Self {
        DecomposerConfig::k_patterning(4, technology)
    }

    /// The paper's pentuple-patterning setup (K = 5).
    pub fn pentuple(technology: Technology) -> Self {
        DecomposerConfig::k_patterning(5, technology)
    }

    /// General K-patterning with the paper's default parameters.
    ///
    /// The mask count is not checked here; [`DecomposerConfig::validate`]
    /// (called by [`crate::Decomposer::plan`]) rejects `k` outside `2..=255`
    /// with a typed [`ConfigError`] instead of panicking.
    pub fn k_patterning(k: usize, technology: Technology) -> Self {
        DecomposerConfig {
            k,
            technology,
            alpha: 0.1,
            sdp_merge_threshold: 0.9,
            algorithm: ColorAlgorithm::SdpBacktrack,
            division: DivisionConfig::default(),
            stitch: StitchConfig::default(),
            ilp_time_limit: Duration::from_secs(600),
        }
    }

    /// Selects the color-assignment engine.
    pub fn with_algorithm(mut self, algorithm: ColorAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Overrides the stitch weight α (validated by
    /// [`DecomposerConfig::validate`], not here).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Overrides the division configuration.
    pub fn with_division(mut self, division: DivisionConfig) -> Self {
        self.division = division;
        self
    }

    /// Overrides the per-component time budget of the exact engine.
    pub fn with_ilp_time_limit(mut self, limit: Duration) -> Self {
        self.ilp_time_limit = limit;
        self
    }

    /// Checks the configuration, returning the first violated constraint.
    ///
    /// Colors are stored as `u8`, so the mask count must fit `2..=255`; the
    /// stitch weight must be a finite non-negative number; and the SDP merge
    /// threshold is a cosine similarity, so it must be a finite value in
    /// `[-1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.k < 2 || self.k > u8::MAX as usize {
            return Err(ConfigError::MaskCount { k: self.k });
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(ConfigError::Alpha { alpha: self.alpha });
        }
        if !self.sdp_merge_threshold.is_finite() || self.sdp_merge_threshold.abs() > 1.0 {
            return Err(ConfigError::MergeThreshold {
                threshold: self.sdp_merge_threshold,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = DecomposerConfig::quadruple(Technology::nm20());
        assert_eq!(config.k, 4);
        assert_eq!(config.alpha, 0.1);
        assert_eq!(config.sdp_merge_threshold, 0.9);
        assert_eq!(config.algorithm, ColorAlgorithm::SdpBacktrack);
        assert!(config.division.ghtree_cut_removal);
        assert!(config.division.iterated_simplify);
        assert!(!DivisionConfig::none().iterated_simplify);
        let penta = DecomposerConfig::pentuple(Technology::nm20());
        assert_eq!(penta.k, 5);
    }

    #[test]
    fn builder_methods_override_fields() {
        let config = DecomposerConfig::quadruple(Technology::nm20())
            .with_algorithm(ColorAlgorithm::Linear)
            .with_alpha(0.25)
            .with_division(DivisionConfig::none())
            .with_ilp_time_limit(Duration::from_secs(1));
        assert_eq!(config.algorithm, ColorAlgorithm::Linear);
        assert_eq!(config.alpha, 0.25);
        assert!(!config.division.low_degree_removal);
        assert_eq!(config.ilp_time_limit, Duration::from_secs(1));
    }

    #[test]
    fn algorithm_names_match_table_headers() {
        assert_eq!(ColorAlgorithm::Ilp.name(), "ILP");
        assert_eq!(ColorAlgorithm::SdpBacktrack.to_string(), "SDP+Backtrack");
        assert_eq!(ColorAlgorithm::ALL.len(), 4);
    }

    #[test]
    fn validate_accepts_the_paper_defaults() {
        assert_eq!(
            DecomposerConfig::quadruple(Technology::nm20()).validate(),
            Ok(())
        );
    }

    #[test]
    fn tile_config_validates_sizes_and_halos() {
        use crate::ConfigError;
        assert_eq!(TileConfig::new(Nm(1000)).validate(), Ok(()));
        assert_eq!(
            TileConfig::new(Nm(1000)).with_halo(Nm(100)).validate(),
            Ok(())
        );
        for size in [0i64, -400] {
            assert_eq!(
                TileConfig::new(Nm(size)).validate(),
                Err(ConfigError::TileSize { size })
            );
        }
        assert_eq!(
            TileConfig::new(Nm(1000)).with_halo(Nm(0)).validate(),
            Err(ConfigError::TileHalo { halo: 0 })
        );
        // A halo covering the whole tile span degenerates the grid.
        for halo in [1000i64, 2500] {
            assert_eq!(
                TileConfig::new(Nm(1000)).with_halo(Nm(halo)).validate(),
                Err(ConfigError::TileHaloDominates {
                    halo,
                    tile_size: 1000
                })
            );
        }
    }

    #[test]
    fn tile_requests_check_the_halo_then_the_tiling_then_the_hierarchy() {
        use crate::ConfigError;
        assert_eq!(TileConfig::from_request(None, None, true), Ok(None));
        assert_eq!(
            TileConfig::from_request(Some(1000), Some(100), false),
            Ok(Some(TileConfig::new(Nm(1000)).with_halo(Nm(100))))
        );
        for hier in [false, true] {
            assert_eq!(
                TileConfig::from_request(None, Some(100), hier),
                Err(ConfigError::TileHaloWithoutTiling)
            );
            assert_eq!(
                TileConfig::from_request(Some(0), None, hier),
                Err(ConfigError::TileSize { size: 0 })
            );
        }
        assert_eq!(
            TileConfig::from_request(Some(1000), None, true),
            Err(ConfigError::HierWithTiling)
        );
    }

    #[test]
    fn validate_rejects_bad_mask_counts() {
        use crate::ConfigError;
        for k in [0usize, 1, 256, 1000] {
            let config = DecomposerConfig::k_patterning(k, Technology::nm20());
            assert_eq!(config.validate(), Err(ConfigError::MaskCount { k }));
        }
    }

    #[test]
    fn validate_rejects_bad_alpha_and_threshold() {
        use crate::ConfigError;
        let negative = DecomposerConfig::quadruple(Technology::nm20()).with_alpha(-0.1);
        assert_eq!(negative.validate(), Err(ConfigError::Alpha { alpha: -0.1 }));
        let nan = DecomposerConfig::quadruple(Technology::nm20()).with_alpha(f64::NAN);
        assert!(matches!(nan.validate(), Err(ConfigError::Alpha { .. })));
        let mut bad_threshold = DecomposerConfig::quadruple(Technology::nm20());
        bad_threshold.sdp_merge_threshold = 1.5;
        assert_eq!(
            bad_threshold.validate(),
            Err(ConfigError::MergeThreshold { threshold: 1.5 })
        );
    }
}
