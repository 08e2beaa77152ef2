//! Lower-level CGRA mappers: SPR\* (schedule / place / route) and
//! Ultra-Fast, both optionally guided by PANORAMA's cluster mapping.
//!
//! The pipeline follows the paper's Algorithm 2:
//!
//! 1. [`min_ii`] computes the recurrence- and resource-constrained minimum
//!    initiation interval (Rau, MICRO'94);
//! 2. [`schedule`](schedule::modulo_schedule) produces an iterative modulo
//!    schedule at a candidate II;
//! 3. [`SprMapper`] places operations on FUs (restricted to their assigned
//!    CGRA clusters when a [`Restriction`] is given) and routes every data
//!    dependency through the [`Mrrg`](panorama_arch::Mrrg) with
//!    PathFinder-style negotiated congestion, repairing overuse with a
//!    simulated-annealing placement loop;
//! 4. [`UltraFastMapper`] reproduces the Ultra-Fast baseline: a greedy 2-D
//!    scheduler over an abstract single-cycle multi-hop HyCUBE with a
//!    per-cycle wiring budget.
//!
//! Both mappers return a [`Mapping`] whose [`verify`](Mapping::verify)
//! method independently re-checks placement legality, route connectivity,
//! route timing and resource capacities.
//!
//! # Examples
//!
//! ```
//! use panorama_arch::{Cgra, CgraConfig};
//! use panorama_dfg::{kernels, KernelId, KernelScale};
//! use panorama_mapper::{LowerLevelMapper, SprMapper};
//!
//! let cgra = Cgra::new(CgraConfig::small_4x4())?;
//! let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
//! let mapping = SprMapper::default().map(&dfg, &cgra, None)?;
//! assert!(mapping.qom() <= 1.0);
//! mapping.verify(&dfg, &cgra)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod configware;
mod control;
mod exact;
mod mapping;
mod mii;
mod placement;
mod render;
mod restrict;
mod router;
mod sat_encode;
mod sat_mapper;
mod schedule;
mod spr;
mod stats;
mod ultrafast;
mod warmstart;

pub use cancel::CancelToken;
pub use configware::{ConfigWord, Configware, InPort, OperandSel, ValueSource};
pub use control::{PortfolioBound, SearchControl};
pub use exact::{ExactConfig, ExactMapper};
pub use mapping::{Mapping, MappingStats, Route, VerifyError};
pub use mii::{
    critical_recurrences, exact_recurrence_mii, min_ii, restricted_min_ii, MiiReport,
    RecurrenceAnalysis,
};
pub use restrict::Restriction;
pub use router::RouterConfig;
pub use sat_mapper::{sat_attempt_log, IiAttempt, SatMapper, SatMapperConfig};
pub use schedule::{modulo_schedule, modulo_schedule_variant, ScheduleError};
pub use spr::{MapError, SprConfig, SprMapper};
pub use stats::RouteStats;
pub use ultrafast::{UltraFastConfig, UltraFastMapper};
pub use warmstart::{WarmHint, WarmStartCache, DEFAULT_WARM_CACHE_CAPACITY};

use panorama_arch::Cgra;
use panorama_dfg::Dfg;
use panorama_trace::SpanCollector;

/// A lower-level mapper that PANORAMA's higher-level cluster mapping can
/// guide (paper §3.3: "Panorama is a portable higher-level mapper which
/// can be combined with any lower-level CGRA mapper").
///
/// `Sync` is required so the portfolio pipeline can drive one mapper from
/// several candidate worker threads; mappers are plain configuration
/// structs, so this holds trivially.
pub trait LowerLevelMapper: Sync {
    /// Maps `dfg` onto `cgra`. When `restriction` is given, each operation
    /// may only be placed inside its assigned CGRA clusters.
    ///
    /// `control` is a portfolio search's handle on this run: before each II
    /// attempt the mapper asks [`SearchControl::admits`] and gives up once
    /// the answer is `false` (II searches ascend, so the answer stays
    /// `false`), polls [`SearchControl::is_cancelled`], and reports
    /// successes via [`SearchControl::record_success`]. Per-phase spans and
    /// counters go to `trace`; a disabled collector must cost nothing
    /// beyond a branch per would-be event.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] when no admissible mapping is found within the
    /// mapper's II and effort budgets.
    fn map_traced(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        restriction: Option<&Restriction>,
        control: Option<&SearchControl>,
        trace: &mut SpanCollector,
    ) -> Result<Mapping, MapError>;

    /// [`map_traced`](LowerLevelMapper::map_traced) without a portfolio
    /// control or trace recording.
    ///
    /// # Errors
    ///
    /// As for [`map_traced`](LowerLevelMapper::map_traced).
    fn map(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        restriction: Option<&Restriction>,
    ) -> Result<Mapping, MapError> {
        self.map_traced(dfg, cgra, restriction, None, &mut SpanCollector::disabled())
    }

    /// Short mapper name for reports ("SPR*", "Ultra-Fast").
    fn name(&self) -> &'static str;
}
