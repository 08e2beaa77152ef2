//! Lower-level CGRA mappers — SPR\* (schedule / place / route), Ultra-Fast
//! and the SAT backend — all optionally guided by PANORAMA's cluster
//! mapping.
//!
//! Every backend sits on one search frame (`search.rs`), the two lines of
//! the paper's Algorithm 2 that tie the levels together:
//!
//! 1. [`ii_floor`] computes the proven lower bounds — the recurrence- and
//!    resource-constrained minimum initiation interval (Rau, MICRO'94),
//!    tightened by per-cluster-group capacity under a [`Restriction`] —
//!    and the one II ascent starts there, ends at the backend's cap or the
//!    request's, polls the [`SearchControl`] before every attempt and
//!    returns one convention of [`MapError`];
//! 2. one op-domain table per search says which PEs may host each op
//!    (memory capability, multiplier, and — *"if Cluster(node) is mapped to
//!    Cluster(FU)"* — the op's assigned CGRA clusters).
//!
//! A backend supplies the attempt at one II:
//!
//! * [`SprMapper`] schedules and places jointly (`placement.rs`: each op
//!   picks its `(time, PE)` pair at once, least cost first) and routes
//!   every data dependency through the [`Mrrg`](panorama_arch::Mrrg) with
//!   PathFinder-style negotiated congestion, repairing overuse with a
//!   simulated-annealing placement loop;
//! * [`UltraFastMapper`] reproduces the Ultra-Fast baseline: a greedy 2-D
//!   scheduler over an abstract single-cycle multi-hop HyCUBE with a
//!   per-cycle wiring budget;
//! * [`SatMapper`] decides each II with two CNF problems (schedule +
//!   placement, then routing) on the `panorama-sat` CDCL solver; it is
//!   also the exact reference the fuzzer checks the others against.
//!
//! Every mapper returns a [`Mapping`] whose [`verify`](Mapping::verify)
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
mod mapping;
mod mii;
mod placement;
mod render;
mod restrict;
mod router;
mod sat_encode;
mod sat_mapper;
mod search;
mod spr;
mod stats;
mod ultrafast;

pub use cancel::CancelToken;
pub use configware::{ConfigWord, Configware, InPort, OperandSel, ValueSource};
pub use control::{PortfolioBound, SearchControl};
pub use mapping::{Mapping, MappingStats, Route, VerifyError};
pub use mii::{
    exact_recurrence_mii, ii_floor, min_ii, restricted_min_ii, IiFloor, MiiReport,
    RecurrenceAnalysis,
};
pub use restrict::Restriction;
pub use sat_mapper::{sat_attempt_log, IiAttempt, SatMapper, SatMapperConfig};
pub use spr::{MapError, SprConfig, SprMapper};
pub use stats::RouteStats;
pub use ultrafast::UltraFastMapper;

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
    /// attempt the search polls [`SearchControl::is_cancelled`], then asks
    /// [`SearchControl::admits`] and gives up once the answer is `false`
    /// (II searches ascend, so the answer stays `false`; a request's II
    /// cap arrives the same way, see [`PortfolioBound::capped`]), and
    /// reports successes via [`SearchControl::record_success`]. Per-phase spans and
    /// counters go to `trace`; a disabled collector must cost nothing
    /// beyond a branch per would-be event.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] when no admissible mapping is found within the
    /// mapper's II and effort budgets: cancelled at the II that was about
    /// to be attempted, or exhausted at the last II that was.
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
