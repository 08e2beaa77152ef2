//! Cooperative bounding of portfolio II searches.
//!
//! The pipeline maps several partition candidates concurrently and keeps
//! the best result under the deterministic ordering *(achieved II, cluster
//! routing complexity, candidate index)*. [`PortfolioBound`] holds that
//! ordering's current minimum packed into one atomic word; each candidate's
//! [`SearchControl`] asks, before every II attempt, whether a success at
//! that II could still beat the bound. Because the bound only ever
//! tightens, and a candidate is only pruned when *nothing it could still
//! produce* would win the final reduction, pruning never changes the
//! winner — the portfolio's outcome is identical for any thread count or
//! completion order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Packs the reduction key `(ii, routing_complexity, candidate_index)`
/// into one `u64` preserving lexicographic order: II in the top 16 bits,
/// complexity in the middle 32, index in the low 16.
fn pack(ii: usize, complexity: u32, index: usize) -> u64 {
    let ii = ii.min(u16::MAX as usize) as u64;
    let index = index.min(u16::MAX as usize) as u64;
    (ii << 48) | (u64::from(complexity) << 16) | index
}

/// The portfolio-wide best result seen so far, shared by every candidate.
#[derive(Debug)]
pub struct PortfolioBound {
    best: AtomicU64,
}

impl Default for PortfolioBound {
    fn default() -> Self {
        PortfolioBound {
            best: AtomicU64::new(u64::MAX),
        }
    }
}

impl PortfolioBound {
    /// A fresh bound admitting everything.
    pub fn new() -> Arc<Self> {
        Arc::new(PortfolioBound::default())
    }

    /// A bound that already refuses every II above `max_ii` — how a
    /// request's II cap reaches the mappers without any of them learning an
    /// argument: as if a rival had mapped at `max_ii + 1` with the best
    /// tie-break. `None` is [`PortfolioBound::new`].
    pub fn capped(max_ii: Option<usize>) -> Arc<Self> {
        let bound = PortfolioBound::new();
        if let Some(cap) = max_ii {
            bound.record(cap.saturating_add(1), 0, 0);
        }
        bound
    }

    /// Records a completed mapping; the bound keeps the minimum key.
    fn record(&self, ii: usize, complexity: u32, index: usize) {
        self.best
            .fetch_min(pack(ii, complexity, index), Ordering::SeqCst);
    }

    fn admits(&self, key: u64) -> bool {
        key < self.best.load(Ordering::SeqCst)
    }
}

/// One candidate's view of the shared [`PortfolioBound`]: carries the
/// candidate's fixed tie-break fields (cluster-mapping routing complexity
/// and candidate index) so mappers only have to supply the II, plus an
/// optional [`CancelToken`](crate::CancelToken) for external abort
/// (deadlines, shutdown).
///
/// Mappers search II ascending, so once [`SearchControl::admits`] returns
/// `false` it stays `false` for every higher II — giving up on the whole
/// candidate is safe.
#[derive(Debug, Clone)]
pub struct SearchControl {
    bound: Arc<PortfolioBound>,
    complexity: u32,
    index: usize,
    cancel: Option<crate::CancelToken>,
}

impl SearchControl {
    /// A control for candidate `index` whose cluster mapping scored
    /// `complexity`, sharing `bound` with its siblings.
    pub fn new(bound: Arc<PortfolioBound>, complexity: u32, index: usize) -> Self {
        SearchControl {
            bound,
            complexity,
            index,
            cancel: None,
        }
    }

    /// A control that never prunes — for single-candidate (baseline) runs
    /// that only need a [`CancelToken`](crate::CancelToken), deadline
    /// included.
    pub fn unbounded() -> Self {
        SearchControl::new(PortfolioBound::new(), 0, 0)
    }

    /// Attaches a cancellation token; mappers poll it at each II attempt
    /// and PathFinder round, aborting with a cancelled
    /// [`MapError`](crate::MapError) once it fires.
    #[must_use]
    pub fn with_cancel(mut self, token: crate::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether external cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(crate::CancelToken::is_cancelled)
    }

    /// The attached cancellation token, if any — forwarded to inner loops
    /// (the router) that poll it independently of the II search.
    pub fn cancel_token(&self) -> Option<&crate::CancelToken> {
        self.cancel.as_ref()
    }

    /// Whether a mapping achieved at `ii` would still win the portfolio's
    /// deterministic reduction.
    pub fn admits(&self, ii: usize) -> bool {
        self.bound.admits(pack(ii, self.complexity, self.index))
    }

    /// Reports a successful mapping at `ii`, tightening the shared bound
    /// so sibling candidates can stop earlier.
    pub fn record_success(&self, ii: usize) {
        self.bound.record(ii, self.complexity, self.index);
    }

    /// The packed reduction key for `(ii, complexity, index)` — exposed so
    /// the portfolio's sequential reduction compares results under exactly
    /// the total order the bound prunes against.
    pub fn reduction_key(ii: usize, complexity: u32, index: usize) -> u64 {
        pack(ii, complexity, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_preserves_lexicographic_order() {
        assert!(pack(2, 999, 9) < pack(3, 0, 0));
        assert!(pack(3, 1, 9) < pack(3, 2, 0));
        assert!(pack(3, 2, 0) < pack(3, 2, 1));
        // saturation keeps order sane at the extremes
        assert!(pack(70_000, 0, 0) <= pack(70_001, 0, 0));
    }

    #[test]
    fn fresh_bound_admits_everything() {
        let bound = PortfolioBound::new();
        // the worst representable candidate short of full saturation (a
        // fully saturated key equals the fresh bound and is the one value
        // never admitted — it cannot win any reduction anyway)
        let ctl = SearchControl::new(bound, u32::MAX, u16::MAX as usize - 1);
        assert!(ctl.admits(u16::MAX as usize));
    }

    #[test]
    fn recorded_success_prunes_losers_but_not_potential_winners() {
        let bound = PortfolioBound::new();
        let winner = SearchControl::new(Arc::clone(&bound), 5, 0);
        let lower_complexity = SearchControl::new(Arc::clone(&bound), 4, 1);
        let higher_complexity = SearchControl::new(Arc::clone(&bound), 6, 2);
        winner.record_success(3);
        // strictly worse II: pruned regardless of tie-break fields
        assert!(!lower_complexity.admits(4));
        // same II, better complexity: still worth trying
        assert!(lower_complexity.admits(3));
        // same II, worse complexity: pruned
        assert!(!higher_complexity.admits(3));
        // better II: always worth trying
        assert!(higher_complexity.admits(2));
    }

    #[test]
    fn capped_bound_admits_up_to_the_cap_for_every_candidate() {
        let bound = PortfolioBound::capped(Some(5));
        let worst = SearchControl::new(Arc::clone(&bound), u32::MAX, 9);
        assert!(worst.admits(5));
        assert!(!SearchControl::new(Arc::clone(&bound), 0, 0).admits(6));
        // a sibling's success below the cap still tightens it
        worst.record_success(3);
        assert!(!SearchControl::new(bound, u32::MAX, 10).admits(3));
        assert!(SearchControl::new(PortfolioBound::capped(None), 0, 0).admits(60_000));
    }

    #[test]
    fn bound_keeps_the_minimum() {
        let bound = PortfolioBound::new();
        let a = SearchControl::new(Arc::clone(&bound), 1, 0);
        let b = SearchControl::new(Arc::clone(&bound), 1, 1);
        a.record_success(4);
        b.record_success(2);
        a.record_success(5); // later, worse: ignored
                             // bound is b's (ii 2, complexity 1, index 1): a at ii 2 would still
                             // win the index tie-break, b itself would not
        assert!(a.admits(2));
        assert!(!b.admits(2));
        assert!(!a.admits(3));
    }
}
