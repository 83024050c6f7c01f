//! Typed errors for configuration validation and the decomposition pipeline.
//!
//! The staged API ([`crate::Decomposer::plan`]) rejects invalid inputs with
//! [`DecomposeError`] values instead of panicking, so services and command
//! line front ends can report problems without crashing.

use std::error::Error;
use std::fmt;

/// An invalid [`crate::DecomposerConfig`] or executor parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The mask count K is outside the supported range `2..=255`.
    MaskCount {
        /// The rejected mask count.
        k: usize,
    },
    /// The stitch weight α is negative, NaN or infinite.
    Alpha {
        /// The rejected stitch weight.
        alpha: f64,
    },
    /// The SDP merge threshold t_th is outside `[-1, 1]` or not finite.
    MergeThreshold {
        /// The rejected threshold.
        threshold: f64,
    },
    /// A thread-pool executor was asked for zero worker threads.
    ThreadCount,
    /// A memo cache was asked for a zero-entry capacity.
    MemoCapacity {
        /// The rejected capacity.
        capacity: usize,
    },
    /// A memo capacity was given while memoization is disabled.
    MemoCapacityWithoutMemo,
    /// A tile size that is not a positive distance.
    TileSize {
        /// The rejected tile size, in nm.
        size: i64,
    },
    /// A tile halo that is not a positive distance, or smaller than the
    /// coloring distance the tiles must cover.
    TileHalo {
        /// The rejected halo, in nm.
        halo: i64,
    },
    /// A tile halo was given while tiling is disabled.
    TileHaloWithoutTiling,
    /// A tile halo at least as large as the tile size: every window would
    /// swallow its neighbours whole, so tiling degenerates to overlapping
    /// copies of the full layout.
    TileHaloDominates {
        /// The rejected halo, in nm.
        halo: i64,
        /// The tile size it was combined with, in nm.
        tile_size: i64,
    },
    /// Hierarchical decomposition was combined with tiling; the two
    /// drivers partition components along different seams and cannot be
    /// composed in one run.
    HierWithTiling,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MaskCount { k } => {
                write!(f, "mask count K must be in 2..=255, got {k}")
            }
            ConfigError::Alpha { alpha } => {
                write!(
                    f,
                    "stitch weight alpha must be finite and >= 0, got {alpha}"
                )
            }
            ConfigError::MergeThreshold { threshold } => write!(
                f,
                "SDP merge threshold must be a finite cosine in [-1, 1], got {threshold}"
            ),
            ConfigError::ThreadCount => {
                write!(f, "a thread-pool executor needs at least one worker thread")
            }
            ConfigError::MemoCapacity { capacity } => {
                write!(f, "memo capacity must be at least 1 entry, got {capacity}")
            }
            ConfigError::MemoCapacityWithoutMemo => {
                write!(f, "--memo-capacity requires memoization to be enabled")
            }
            ConfigError::TileSize { size } => {
                write!(f, "tile size must be a positive distance in nm, got {size}")
            }
            ConfigError::TileHalo { halo } => write!(
                f,
                "tile halo must be a positive distance of at least the coloring distance, got {halo}"
            ),
            ConfigError::TileHaloWithoutTiling => {
                write!(f, "--halo requires tiling to be enabled (--tile-size)")
            }
            ConfigError::TileHaloDominates { halo, tile_size } => write!(
                f,
                "tile halo {halo} nm must be smaller than the tile size {tile_size} nm; \
                 such windows would swallow whole neighbouring tiles"
            ),
            ConfigError::HierWithTiling => {
                write!(
                    f,
                    "hierarchical decomposition (--hier) cannot be combined with tiling \
                     (--tile-size/--halo)"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// A failure to plan a decomposition.
#[derive(Debug, Clone, PartialEq)]
pub enum DecomposeError {
    /// The decomposer configuration is invalid.
    Config(ConfigError),
    /// A layout shape has no geometry or a zero-area rectangle; such shapes
    /// have no well-defined spacing to their neighbours.
    DegenerateShape {
        /// Index of the offending shape in the input layout.
        shape: usize,
    },
}

impl fmt::Display for DecomposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecomposeError::Config(error) => write!(f, "invalid configuration: {error}"),
            DecomposeError::DegenerateShape { shape } => {
                write!(
                    f,
                    "layout shape s{shape} is degenerate (empty or zero-area)"
                )
            }
        }
    }
}

impl Error for DecomposeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DecomposeError::Config(error) => Some(error),
            DecomposeError::DegenerateShape { .. } => None,
        }
    }
}

impl From<ConfigError> for DecomposeError {
    fn from(error: ConfigError) -> Self {
        DecomposeError::Config(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offending_value() {
        assert!(ConfigError::MaskCount { k: 1 }
            .to_string()
            .contains("got 1"));
        assert!(ConfigError::Alpha { alpha: -0.5 }
            .to_string()
            .contains("-0.5"));
        assert!(ConfigError::MergeThreshold { threshold: 2.0 }
            .to_string()
            .contains('2'));
        assert!(ConfigError::ThreadCount.to_string().contains("worker"));
        assert!(ConfigError::TileSize { size: -5 }
            .to_string()
            .contains("got -5"));
        assert!(ConfigError::TileHalo { halo: 0 }
            .to_string()
            .contains("got 0"));
        assert!(ConfigError::TileHaloWithoutTiling
            .to_string()
            .contains("--tile-size"));
        assert!(ConfigError::TileHaloDominates {
            halo: 500,
            tile_size: 400
        }
        .to_string()
        .contains("500"));
        assert!(ConfigError::HierWithTiling.to_string().contains("--hier"));
        assert!(DecomposeError::DegenerateShape { shape: 3 }
            .to_string()
            .contains("s3"));
    }

    #[test]
    fn config_errors_convert_and_expose_a_source() {
        let error: DecomposeError = ConfigError::MaskCount { k: 0 }.into();
        assert_eq!(
            error,
            DecomposeError::Config(ConfigError::MaskCount { k: 0 })
        );
        assert!(Error::source(&error).is_some());
        assert!(Error::source(&DecomposeError::DegenerateShape { shape: 0 }).is_none());
    }
}
