//! Cooperative cancellation of in-flight mapping work.
//!
//! A compile serving an interactive DSE loop (or a shared daemon) must be
//! able to stop *early* — not just have its result discarded — because the
//! II search and PathFinder easily run for seconds on hard kernels. The
//! mappers poll a [`CancelToken`] at their natural backtracking points:
//! once per II attempt and once per PathFinder rip-up-and-reroute round.
//! Cancellation is therefore bounded by the cost of a single routing
//! round, never by the whole search.
//!
//! A token fires on [`CancelToken::cancel`] or, if built by
//! [`CancelToken::with_deadline`], once its deadline passes: the poll reads
//! the clock, so no thread watches the time. This is the tree's one
//! wall-clock stop — the daemon's `deadline_ms` and `fuzz --max-seconds`
//! both build their token this way.
//!
//! Tokens are cheap, clonable (clones share the flag and the deadline), and
//! one-way: once cancelled they stay cancelled. A token that never fires
//! changes nothing about a mapping run — the result stays bit-identical.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared one-way cancellation flag with an optional deadline.
///
/// # Examples
///
/// ```
/// use panorama_mapper::CancelToken;
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
///
/// // a zero deadline has expired by definition: no clock is read
/// assert!(CancelToken::with_deadline(Duration::ZERO).is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token without a deadline.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that fires `after` from now, or earlier on
    /// [`cancel`](Self::cancel). A zero `after` fires at construction,
    /// without reading the clock, so the caller sees a cancelled token
    /// however fast the host is; one too far out to represent never fires
    /// by time.
    pub fn with_deadline(after: Duration) -> Self {
        if after.is_zero() {
            let token = CancelToken::new();
            token.cancel();
            return token;
        }
        CancelToken {
            flag: Arc::default(),
            deadline: Instant::now().checked_add(after),
        }
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the deadline has passed. Safe
    /// to call from any hot loop: one atomic load, plus one clock read
    /// while a deadline is pending.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        // `Instant` is monotonic: once passed, a deadline stays passed
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        // idempotent
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn cross_thread_cancellation_is_observed() {
        let token = CancelToken::new();
        let remote = token.clone();
        std::thread::spawn(move || remote.cancel()).join().unwrap();
        assert!(token.is_cancelled());
    }

    #[test]
    fn a_zero_deadline_is_cancelled_at_construction() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert!(token.flag.load(Ordering::Acquire), "fired without a poll");
        assert_eq!(token.deadline, None, "no clock was read");
        assert!(token.clone().is_cancelled());
    }

    #[test]
    fn a_token_without_a_deadline_never_fires_by_time() {
        let token = CancelToken::new();
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(2) {
            assert!(!token.is_cancelled());
        }
        assert!(!token.is_cancelled());
    }

    #[test]
    fn a_deadline_fires_once_passed_and_stays_fired() {
        let token = CancelToken::with_deadline(Duration::from_millis(1));
        let clone = token.clone();
        // ends on any host: the clock passes the deadline eventually
        while !token.is_cancelled() {
            std::hint::spin_loop();
        }
        for _ in 0..1_000 {
            assert!(token.is_cancelled() && clone.is_cancelled());
        }
    }

    #[test]
    fn cancel_before_the_deadline_fires_every_clone() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        let clones = [token.clone(), token.clone()];
        assert!(!token.is_cancelled());
        clones[0].cancel();
        assert!(token.is_cancelled());
        assert!(clones.iter().all(CancelToken::is_cancelled));
    }
}
