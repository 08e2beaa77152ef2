//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4).
//!
//! Each generator returns the rendered table as a `String`, so integration
//! tests can assert on structure while the `cargo bench` targets print it.
//! The **profile** controls scale:
//!
//! * default — the *scaled* profile: kernels at roughly a third of the
//!   paper's node counts on an 8×8 CGRA (2×2 clusters of 4×4), so the full
//!   suite regenerates in minutes on one core;
//! * `PANORAMA_PAPER_SCALE=1` — the paper's setting: ~430-node kernels on
//!   the 16×16 CGRA with 4×4 clusters (hours of compute, like the paper's
//!   Xeon runs).
//!
//! Table/figure index (see DESIGN.md §4): [`table1a`], [`table1b`],
//! [`fig5`], [`fig7`], [`fig9`], plus the [`ablations`] module
//! for the design-choice studies called out in DESIGN.md §6. These targets
//! regenerate the paper's artifacts; the time and II yardstick is
//! `benchmark/run.sh`, and determinism is asserted in `tests/perf.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
mod experiments;
mod format;

pub use experiments::{fig5, fig7, fig9, table1a, table1b};
pub use format::Table;

use panorama_arch::CgraConfig;
use panorama_dfg::KernelScale;

/// The evaluation profile: architecture sizes and kernel scale.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Human-readable profile name, printed in every table header.
    pub name: &'static str,
    /// The CGRA every experiment targets (Figures 5, 7, 9; Table 1a).
    pub cgra: CgraConfig,
    /// Kernel generation scale.
    pub scale: KernelScale,
}

/// Resolves the active profile from `PANORAMA_PAPER_SCALE`.
pub fn profile() -> Profile {
    if std::env::var_os("PANORAMA_PAPER_SCALE").is_some() {
        Profile {
            name: "paper (16x16 CGRA, ~430-node kernels)",
            cgra: CgraConfig::paper_16x16(),
            scale: KernelScale::Paper,
        }
    } else {
        Profile {
            name: "scaled (8x8 CGRA, ~1/3-size kernels)",
            cgra: CgraConfig::scaled_8x8(),
            scale: KernelScale::Scaled,
        }
    }
}

/// Geometric mean of positive values; 0 when empty or any value is 0.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_scaled() {
        // NB: assumes the test environment does not set PANORAMA_PAPER_SCALE
        let p = profile();
        assert_eq!(p.cgra.rows, 8);
        assert_eq!(p.scale, KernelScale::Scaled);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
