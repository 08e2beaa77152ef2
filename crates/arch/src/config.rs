//! CGRA architecture description.

use std::error::Error;
use std::fmt;

/// Architecture description of a clustered CGRA.
///
/// Validated by [`Cgra::new`](crate::Cgra::new); the cluster grid must tile
/// the PE grid exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CgraConfig {
    /// PE rows.
    pub rows: usize,
    /// PE columns.
    pub cols: usize,
    /// Cluster rows (the paper's `R`).
    pub cluster_rows: usize,
    /// Cluster columns (the paper's `C`).
    pub cluster_cols: usize,
    /// Registers per PE register file.
    pub rf_size: usize,
    /// RF read ports per PE per cycle.
    pub rf_read_ports: usize,
    /// RF write ports per PE per cycle.
    pub rf_write_ports: usize,
    /// Directed inter-cluster links per neighbouring cluster pair per
    /// direction (the paper's detailed architecture uses 6).
    pub inter_cluster_links: usize,
    /// Whether only the left-most PE column of each cluster may execute
    /// loads/stores (the paper's memory model). When `false`, every PE is
    /// memory-capable.
    pub mem_left_column_only: bool,
    /// Heterogeneity (REVAMP-style): only every `n`-th PE column carries a
    /// multiplier. `1` (the default) is the paper's homogeneous array.
    pub mul_every_n_columns: usize,
    /// Whether the array has multipliers at all. `false` models an
    /// adder-only fabric (ADL directive `mul none`); kernels containing
    /// `mul` ops are then statically unmappable, which the lint
    /// prechecker reports instead of letting a mapper time out.
    pub mul_support: bool,
}

impl CgraConfig {
    /// The paper's main evaluation target: 16×16 PEs in 4×4 clusters of
    /// 4×4, RF of 8 with 4R/4W ports, 6 inter-cluster links.
    pub fn paper_16x16() -> Self {
        CgraConfig {
            rows: 16,
            cols: 16,
            cluster_rows: 4,
            cluster_cols: 4,
            rf_size: 8,
            rf_read_ports: 4,
            rf_write_ports: 4,
            inter_cluster_links: 6,
            mem_left_column_only: true,
            mul_every_n_columns: 1,
            mul_support: true,
        }
    }

    /// The paper's power-comparison baseline: 9×9 PEs in 3×3 clusters of
    /// 3×3.
    pub fn paper_9x9() -> Self {
        CgraConfig {
            rows: 9,
            cols: 9,
            cluster_rows: 3,
            cluster_cols: 3,
            ..Self::paper_16x16()
        }
    }

    /// A scaled-down 8×8 CGRA (2×2 clusters of 4×4) used by the default
    /// experiment profile so the suite regenerates quickly.
    pub fn scaled_8x8() -> Self {
        CgraConfig {
            rows: 8,
            cols: 8,
            cluster_rows: 2,
            cluster_cols: 2,
            ..Self::paper_16x16()
        }
    }

    /// A small 4×4 CGRA (single cluster) for tests and the Table 1b row.
    pub fn small_4x4() -> Self {
        CgraConfig {
            rows: 4,
            cols: 4,
            cluster_rows: 1,
            cluster_cols: 1,
            ..Self::paper_16x16()
        }
    }

    /// The 6×1 linear CGRA of the motivating example (Figure 3): two 3×1
    /// clusters, single-cycle single-hop left/right links only.
    pub fn linear_6x1() -> Self {
        CgraConfig {
            rows: 1,
            cols: 6,
            cluster_rows: 1,
            cluster_cols: 2,
            rf_size: 2,
            rf_read_ports: 2,
            rf_write_ports: 2,
            inter_cluster_links: 1,
            mem_left_column_only: false,
            mul_every_n_columns: 1,
            mul_support: true,
        }
    }

    /// The preset compiles target when no architecture is named.
    pub const DEFAULT_PRESET: &'static str = "8x8";

    /// Resolves a preset name (`4x4`, `8x8`, `9x9`, `16x16`, `6x1`).
    ///
    /// # Errors
    ///
    /// Returns ``unknown arch preset `name` `` for anything else.
    pub fn preset(name: &str) -> Result<CgraConfig, String> {
        match name {
            "4x4" => Ok(Self::small_4x4()),
            "8x8" => Ok(Self::scaled_8x8()),
            "9x9" => Ok(Self::paper_9x9()),
            "16x16" => Ok(Self::paper_16x16()),
            "6x1" => Ok(Self::linear_6x1()),
            other => Err(format!("unknown arch preset `{other}`")),
        }
    }

    /// Deterministic enumeration of the architecture space the fuzzer
    /// sweeps: the presets plus heterogeneous-FU, memory-model, cluster
    /// shape, link-budget, and register-pressure variants. Every entry
    /// passes [`CgraConfig::validate`]; the order is part of the fuzzer's
    /// reproducibility contract, so append new variants at the end.
    pub fn sample_space() -> Vec<(&'static str, CgraConfig)> {
        let space = vec![
            ("4x4", Self::small_4x4()),
            ("8x8", Self::scaled_8x8()),
            ("6x1", Self::linear_6x1()),
            // Heterogeneous FUs: multipliers only in every 2nd/3rd column.
            (
                "4x4-mul2",
                CgraConfig {
                    mul_every_n_columns: 2,
                    ..Self::small_4x4()
                },
            ),
            (
                "8x8-mul3",
                CgraConfig {
                    mul_every_n_columns: 3,
                    ..Self::scaled_8x8()
                },
            ),
            // Adder-only fabric: kernels with muls are statically infeasible.
            (
                "4x4-nomul",
                CgraConfig {
                    mul_support: false,
                    ..Self::small_4x4()
                },
            ),
            // All-PE memory model instead of left-column-only.
            (
                "4x4-memall",
                CgraConfig {
                    mem_left_column_only: false,
                    ..Self::small_4x4()
                },
            ),
            // Varied cluster shapes on the same PE budget.
            (
                "4x8-c1x2",
                CgraConfig {
                    rows: 4,
                    cols: 8,
                    cluster_rows: 1,
                    cluster_cols: 2,
                    ..Self::paper_16x16()
                },
            ),
            (
                "6x6-c2x2",
                CgraConfig {
                    rows: 6,
                    cols: 6,
                    cluster_rows: 2,
                    cluster_cols: 2,
                    ..Self::paper_16x16()
                },
            ),
            // Link-starved inter-cluster fabric.
            (
                "8x8-icl1",
                CgraConfig {
                    inter_cluster_links: 1,
                    ..Self::scaled_8x8()
                },
            ),
            // Register-pressure variant: tiny RF with single ports.
            (
                "4x4-rf2",
                CgraConfig {
                    rf_size: 2,
                    rf_read_ports: 1,
                    rf_write_ports: 1,
                    ..Self::small_4x4()
                },
            ),
        ];
        debug_assert!(space.iter().all(|(_, c)| c.validate().is_ok()));
        space
    }

    /// PEs per cluster row (`rows / cluster_rows`).
    pub fn cluster_height(&self) -> usize {
        self.rows / self.cluster_rows
    }

    /// PEs per cluster column (`cols / cluster_cols`).
    pub fn cluster_width(&self) -> usize {
        self.cols / self.cluster_cols
    }

    /// Validates grid divisibility and nonzero dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] describing the first violated requirement.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(ArchError::EmptyGrid);
        }
        if self.cluster_rows == 0
            || self.cluster_cols == 0
            || !self.rows.is_multiple_of(self.cluster_rows)
            || !self.cols.is_multiple_of(self.cluster_cols)
        {
            return Err(ArchError::ClusterMismatch {
                rows: self.rows,
                cols: self.cols,
                cluster_rows: self.cluster_rows,
                cluster_cols: self.cluster_cols,
            });
        }
        if self.rf_size == 0 || self.rf_read_ports == 0 || self.rf_write_ports == 0 {
            return Err(ArchError::DegenerateRegisterFile);
        }
        if self.mul_every_n_columns == 0 || self.mul_every_n_columns > self.cols {
            return Err(ArchError::NoMultipliers);
        }
        Ok(())
    }
}

/// Error produced when validating a [`CgraConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// Zero-sized PE grid.
    EmptyGrid,
    /// Cluster grid does not tile the PE grid.
    ClusterMismatch {
        /// PE rows.
        rows: usize,
        /// PE columns.
        cols: usize,
        /// Cluster rows.
        cluster_rows: usize,
        /// Cluster columns.
        cluster_cols: usize,
    },
    /// Register file with zero registers or ports.
    DegenerateRegisterFile,
    /// Heterogeneity stride leaves the array without any multiplier.
    NoMultipliers,
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::EmptyGrid => write!(f, "PE grid must be non-empty"),
            ArchError::ClusterMismatch {
                rows,
                cols,
                cluster_rows,
                cluster_cols,
            } => write!(
                f,
                "cluster grid {cluster_rows}x{cluster_cols} does not tile PE grid {rows}x{cols}"
            ),
            ArchError::DegenerateRegisterFile => {
                write!(f, "register file needs at least one register and port")
            }
            ArchError::NoMultipliers => {
                write!(f, "multiplier column stride must be in 1..=cols")
            }
        }
    }
}

impl Error for ArchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for name in ["16x16", "9x9", "8x8", "4x4", "6x1"] {
            CgraConfig::preset(name).unwrap().validate().unwrap();
        }
        assert_eq!(
            CgraConfig::preset(CgraConfig::DEFAULT_PRESET),
            Ok(CgraConfig::scaled_8x8())
        );
        assert_eq!(
            CgraConfig::preset("3x3").unwrap_err(),
            "unknown arch preset `3x3`"
        );
    }

    #[test]
    fn sample_space_entries_validate_and_have_unique_names() {
        let space = CgraConfig::sample_space();
        assert!(space.len() >= 8, "fuzz space should cover many variants");
        let mut names: Vec<_> = space.iter().map(|(n, _)| *n).collect();
        for (name, cfg) in &space {
            cfg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), space.len(), "duplicate sample-space names");
    }

    #[test]
    fn paper_dimensions() {
        let cfg = CgraConfig::paper_16x16();
        assert_eq!(cfg.cluster_height(), 4);
        assert_eq!(cfg.cluster_width(), 4);
        let cfg = CgraConfig::paper_9x9();
        assert_eq!(cfg.cluster_height(), 3);
    }

    #[test]
    fn bad_tiling_rejected() {
        let cfg = CgraConfig {
            cluster_rows: 3,
            ..CgraConfig::paper_16x16()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ArchError::ClusterMismatch { .. })
        ));
    }

    #[test]
    fn empty_and_degenerate_rejected() {
        let cfg = CgraConfig {
            rows: 0,
            ..CgraConfig::paper_16x16()
        };
        assert_eq!(cfg.validate(), Err(ArchError::EmptyGrid));
        let cfg = CgraConfig {
            rf_size: 0,
            ..CgraConfig::paper_16x16()
        };
        assert_eq!(cfg.validate(), Err(ArchError::DegenerateRegisterFile));
    }

    #[test]
    fn error_messages() {
        let e = ArchError::ClusterMismatch {
            rows: 16,
            cols: 16,
            cluster_rows: 3,
            cluster_cols: 4,
        };
        assert!(e.to_string().contains("3x4"));
    }
}
