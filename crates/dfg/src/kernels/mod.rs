//! Structural generators for the twelve loop kernels of the paper's
//! evaluation (Table 1a).
//!
//! The original toolchain extracts these DFGs from annotated MediaBench /
//! Embench C sources with an LLVM pass, after unrolling each loop to fill a
//! 16×16 CGRA (average 432 nodes). We rebuild the same dataflow *structure*
//! generatively — shared coefficient broadcasts in `fir`/`matched filter`
//! (the high-fan-out hotspots), butterfly stages in the DCT kernels,
//! iteration chains in `cordic`, dot-product lattices in `mmul` — with an
//! unroll knob per kernel. [`KernelScale::Paper`] approximates the paper's
//! published node counts; [`KernelScale::Scaled`] is roughly a third of the
//! size for fast regression runs; [`KernelScale::Tiny`] fits unit tests.
//!
//! # Examples
//!
//! ```
//! use panorama_dfg::{kernels, KernelId, KernelScale};
//!
//! for id in KernelId::ALL {
//!     let dfg = kernels::generate(id, KernelScale::Tiny);
//!     assert!(dfg.validate().is_ok(), "{id} must be well-formed");
//! }
//! ```

mod algebra;
mod dct;
mod dsp;
mod helpers;
mod misc;

use crate::Dfg;
use std::fmt;

pub(crate) use helpers::KernelBuilder;

/// The twelve benchmark loop kernels of Table 1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelId {
    /// `edn` (Embench): vector MAC / dot-product mix.
    Edn,
    /// `idctcols` (MediaBench): inverse DCT over block columns.
    IdctCols,
    /// `idctrows` (MediaBench): inverse DCT over block rows.
    IdctRows,
    /// 2-D convolution (3×3 stencil).
    Conv2d,
    /// Matched filter (long dot products against a shared template).
    MatchedFilter,
    /// Matrix multiply (tile of inner products).
    MatrixMultiply,
    /// CORDIC rotation iterations.
    Cordic,
    /// k-means clustering distance + argmin step.
    KMeansClustering,
    /// FIR filter (short taps, deeply unrolled).
    Fir,
    /// JPEG forward DCT.
    JpegFdct,
    /// JPEG fast inverse DCT.
    JpegIdctFst,
    /// Matrix inversion (Gauss–Jordan elimination steps).
    InvertMat,
}

impl KernelId {
    /// All kernels in the paper's table order.
    pub const ALL: [KernelId; 12] = [
        KernelId::Edn,
        KernelId::IdctCols,
        KernelId::IdctRows,
        KernelId::Conv2d,
        KernelId::MatchedFilter,
        KernelId::MatrixMultiply,
        KernelId::Cordic,
        KernelId::KMeansClustering,
        KernelId::Fir,
        KernelId::JpegFdct,
        KernelId::JpegIdctFst,
        KernelId::InvertMat,
    ];

    /// Kernel name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            KernelId::Edn => "edn",
            KernelId::IdctCols => "idctcols",
            KernelId::IdctRows => "idctrows",
            KernelId::Conv2d => "2-D convolution",
            KernelId::MatchedFilter => "matched filter",
            KernelId::MatrixMultiply => "matrix multiply",
            KernelId::Cordic => "cordic",
            KernelId::KMeansClustering => "k-means clust.",
            KernelId::Fir => "fir",
            KernelId::JpegFdct => "jpegfdct",
            KernelId::JpegIdctFst => "jpegidctfst",
            KernelId::InvertMat => "invertmat",
        }
    }

    /// Resolves a user spelling of a built-in kernel: the paper name or
    /// the variant name (`matchedfilter` for "matched filter"), ignoring
    /// ASCII case.
    ///
    /// # Errors
    ///
    /// Returns ``unknown kernel `name` `` when nothing matches.
    pub fn parse(name: &str) -> Result<KernelId, String> {
        KernelId::ALL
            .into_iter()
            .find(|id| {
                id.name().eq_ignore_ascii_case(name) || format!("{id:?}").eq_ignore_ascii_case(name)
            })
            .ok_or_else(|| format!("unknown kernel `{name}`"))
    }

    /// (nodes, edges, max degree) reported in the paper's Table 1a, used by
    /// the experiment harness to print paper-vs-measured columns.
    pub fn paper_stats(self) -> (usize, usize, usize) {
        match self {
            KernelId::Edn => (507, 633, 25),
            KernelId::IdctCols => (403, 580, 23),
            KernelId::IdctRows => (427, 694, 40),
            KernelId::Conv2d => (512, 666, 36),
            KernelId::MatchedFilter => (501, 572, 75),
            KernelId::MatrixMultiply => (503, 609, 53),
            KernelId::Cordic => (294, 491, 14),
            KernelId::KMeansClustering => (461, 545, 42),
            KernelId::Fir => (256, 310, 49),
            KernelId::JpegFdct => (440, 593, 35),
            KernelId::JpegIdctFst => (486, 626, 27),
            KernelId::InvertMat => (389, 610, 37),
        }
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Generation size: paper scale, a scaled-down regression size, or tiny
/// unit-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelScale {
    /// Approximates the paper's Table 1a node counts (~430 avg).
    Paper,
    /// Roughly a third of paper size; the default experiment profile.
    #[default]
    Scaled,
    /// A handful of operations, for unit tests.
    Tiny,
    /// Explicit unroll control: kernel dimensions at `permille`/1000 of the
    /// paper size (the paper unrolls each loop "to take advantage of
    /// larger CGRA"; this knob does the same for arbitrary arrays).
    /// `Custom { permille: 1000 }` ≈ `Paper`.
    Custom {
        /// Unroll factor in thousandths of the paper size (1..=4000).
        permille: u16,
    },
}

impl KernelScale {
    /// The three named scales, for exhaustive test iteration.
    pub const ALL: [KernelScale; 3] = [KernelScale::Paper, KernelScale::Scaled, KernelScale::Tiny];

    /// Resolves the `tiny|scaled|paper` spelling of a named scale.
    ///
    /// # Errors
    ///
    /// Returns ``unknown scale `name` `` for anything else.
    pub fn parse(name: &str) -> Result<KernelScale, String> {
        KernelScale::ALL
            .into_iter()
            .find(|scale| scale.to_string() == name)
            .ok_or_else(|| format!("unknown scale `{name}`"))
    }

    /// Scales a paper-sized dimension, never below `min`.
    pub(crate) fn dim(self, paper: usize, scaled: usize, tiny: usize, min: usize) -> usize {
        match self {
            KernelScale::Paper => paper,
            KernelScale::Scaled => scaled,
            KernelScale::Tiny => tiny,
            KernelScale::Custom { permille } => ((paper * permille as usize) / 1000).max(min),
        }
    }
}

impl fmt::Display for KernelScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelScale::Paper => f.write_str("paper"),
            KernelScale::Scaled => f.write_str("scaled"),
            KernelScale::Tiny => f.write_str("tiny"),
            KernelScale::Custom { permille } => write!(f, "custom({permille}‰)"),
        }
    }
}

/// Generates the DFG for `id` at `scale`.
///
/// The output is deterministic: the same `(id, scale)` pair always yields a
/// structurally identical DFG.
pub fn generate(id: KernelId, scale: KernelScale) -> Dfg {
    match id {
        KernelId::Fir => dsp::fir(scale),
        KernelId::MatchedFilter => dsp::matched_filter(scale),
        KernelId::Conv2d => dsp::conv2d(scale),
        KernelId::Edn => dsp::edn(scale),
        KernelId::IdctCols => dct::idctcols(scale),
        KernelId::IdctRows => dct::idctrows(scale),
        KernelId::JpegFdct => dct::jpegfdct(scale),
        KernelId::JpegIdctFst => dct::jpegidctfst(scale),
        KernelId::MatrixMultiply => algebra::matrix_multiply(scale),
        KernelId::InvertMat => algebra::invertmat(scale),
        KernelId::Cordic => misc::cordic(scale),
        KernelId::KMeansClustering => misc::kmeans(scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_valid_at_all_scales() {
        for id in KernelId::ALL {
            for scale in KernelScale::ALL {
                let dfg = generate(id, scale);
                dfg.validate()
                    .unwrap_or_else(|e| panic!("{id} @ {scale}: {e}"));
                assert!(dfg.num_ops() > 0);
                assert!(dfg.num_mem_ops() > 0, "{id} should touch memory");
            }
        }
    }

    #[test]
    fn names_round_trip_through_parse() {
        for id in KernelId::ALL {
            assert_eq!(KernelId::parse(id.name()), Ok(id));
            assert_eq!(KernelId::parse(&format!("{id:?}").to_uppercase()), Ok(id));
        }
        assert_eq!(
            KernelId::parse("nope").unwrap_err(),
            "unknown kernel `nope`"
        );
        for scale in KernelScale::ALL {
            assert_eq!(KernelScale::parse(&scale.to_string()), Ok(scale));
        }
        assert_eq!(
            KernelScale::parse("huge").unwrap_err(),
            "unknown scale `huge`"
        );
    }

    #[test]
    fn paper_scale_node_counts_are_close() {
        for id in KernelId::ALL {
            let dfg = generate(id, KernelScale::Paper);
            let (paper_nodes, _, _) = id.paper_stats();
            let nodes = dfg.num_ops() as f64;
            let ratio = nodes / paper_nodes as f64;
            assert!(
                (0.7..1.3).contains(&ratio),
                "{id}: generated {nodes} nodes vs paper {paper_nodes}"
            );
        }
    }

    #[test]
    fn scales_are_ordered() {
        for id in KernelId::ALL {
            let tiny = generate(id, KernelScale::Tiny).num_ops();
            let scaled = generate(id, KernelScale::Scaled).num_ops();
            let paper = generate(id, KernelScale::Paper).num_ops();
            assert!(tiny < scaled, "{id}: tiny {tiny} !< scaled {scaled}");
            assert!(scaled < paper, "{id}: scaled {scaled} !< paper {paper}");
            assert!(tiny <= 72, "{id}: tiny too big ({tiny})");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for id in [KernelId::Fir, KernelId::Cordic, KernelId::Edn] {
            let a = generate(id, KernelScale::Scaled);
            let b = generate(id, KernelScale::Scaled);
            assert_eq!(a.to_dot(), b.to_dot());
        }
    }

    #[test]
    fn high_fanout_kernels_have_high_max_degree() {
        // the paper singles out mmul / fir / matched filter for fan-out
        let fir = generate(KernelId::Fir, KernelScale::Paper).stats();
        let cordic = generate(KernelId::Cordic, KernelScale::Paper).stats();
        assert!(
            fir.max_degree > cordic.max_degree,
            "fir {} vs cordic {}",
            fir.max_degree,
            cordic.max_degree
        );
    }

    #[test]
    fn names_match_paper_table() {
        assert_eq!(KernelId::Fir.name(), "fir");
        assert_eq!(KernelId::KMeansClustering.to_string(), "k-means clust.");
        assert_eq!(KernelId::ALL.len(), 12);
    }
}

#[cfg(test)]
mod custom_scale_tests {
    use super::*;

    #[test]
    fn custom_permille_interpolates_sizes() {
        for id in KernelId::ALL {
            let paper = generate(id, KernelScale::Paper).num_ops();
            let full = generate(id, KernelScale::Custom { permille: 1000 }).num_ops();
            let half = generate(id, KernelScale::Custom { permille: 500 }).num_ops();
            let double = generate(id, KernelScale::Custom { permille: 2000 }).num_ops();
            // full ≈ paper (same dimensions)
            assert_eq!(full, paper, "{id}");
            assert!(half < paper, "{id}: half {half} !< paper {paper}");
            assert!(double > paper, "{id}: double {double} !> paper {paper}");
        }
    }

    #[test]
    fn custom_scale_dfgs_validate() {
        for id in KernelId::ALL {
            for permille in [100, 700, 1500] {
                let dfg = generate(id, KernelScale::Custom { permille });
                dfg.validate()
                    .unwrap_or_else(|e| panic!("{id}@{permille}: {e}"));
            }
        }
    }

    #[test]
    fn display_shows_permille() {
        assert_eq!(
            KernelScale::Custom { permille: 250 }.to_string(),
            "custom(250‰)"
        );
    }
}
