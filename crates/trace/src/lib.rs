//! Zero-dependency, thread-aware observability for the PANORAMA pipeline.
//!
//! The compile pipeline maps several partition candidates concurrently;
//! plain logging interleaves unreadably and perturbs the timings it is
//! supposed to measure. This crate records *spans* instead: each worker
//! thread owns a [`SpanCollector`] that appends `(phase, start_ns, end_ns,
//! counters)` events to a fixed-capacity ring buffer with no locking and no
//! allocation beyond the counters. At join time the per-candidate buffers
//! are merged deterministically by `(candidate, seq)` and appended to the
//! tracer's [`RecordingSink`], the one sink: the CLI, the daemon and the
//! benchmark all read their events back from it.
//!
//! Tracing is opt-in and free when off: a disabled [`Tracer`] hands out
//! disabled collectors whose `start`/`record` calls are single-branch
//! no-ops that never read the clock (verified by a bench guard in the
//! workspace test suite).
//!
//! # Determinism
//!
//! The merged event order is independent of thread count for every event
//! marked [`TraceEvent::stable`]. Pipeline-level spans, partitioning and
//! scattering events, and the *winning* candidate's mapper events are
//! stable: the portfolio's bound-pruning never changes the winner, so the
//! winner's II search replays identically at any thread count. Losing
//! candidates' mapper streams depend on pruning timing and are marked
//! unstable, as are cache hit/miss totals. [`TraceReport::deterministic_signature`]
//! digests exactly the stable subset (with wall-clock stripped) and is what
//! the thread-invariance tests compare.
//!
//! # Examples
//!
//! ```
//! use panorama_trace::{RecordingSink, Tracer};
//!
//! let sink = RecordingSink::shared();
//! let tracer = Tracer::new(sink.clone());
//! let mut col = tracer.collector(0);
//! let t = col.start();
//! let answer = 6 * 7; // ... traced work ...
//! col.record("demo.work", t, &[("answer", answer)]);
//! tracer.submit(vec![col]);
//! assert_eq!(sink.take().len(), 1);
//! ```

pub mod json;
mod report;
pub mod schema;

pub use report::{phase_totals, TraceReport};

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Candidate id used for pipeline-level events not tied to any candidate.
/// Sorts after every real candidate in the deterministic merge.
pub const NO_CANDIDATE: u32 = u32::MAX;

/// Ring-buffer capacity of a [`SpanCollector`]; the oldest events are
/// overwritten (and counted as dropped) beyond this.
pub const COLLECTOR_CAPACITY: usize = 8192;

/// Sequence base for a candidate's lower-level mapping collector, so its
/// events sort after the same candidate's cluster-mapping events without
/// sharing a buffer. See [`Tracer::collector_from`].
pub const SEQ_BASE_MAP: u64 = 1 << 20;

/// One recorded span: a phase name, wall-clock bounds relative to the
/// tracer's epoch, and a small set of integer counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dotted phase name; top-level phases (no `.`) partition the
    /// end-to-end wall-clock, sub-phases (`spr.route`, …) nest within.
    pub phase: &'static str,
    /// Candidate rank the event belongs to, or [`NO_CANDIDATE`].
    pub candidate: u32,
    /// Per-collector sequence number; merge key is `(candidate, seq)`.
    pub seq: u64,
    /// Span start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Span end, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Named integer counters attached to the span.
    pub counters: Vec<(&'static str, i64)>,
    /// Whether the event recurs identically (ignoring wall-clock) for any
    /// thread count — see the crate docs on determinism.
    pub stable: bool,
}

/// The trace sink: accumulates every merged batch in memory, in arrival
/// order, for the caller to [`take`](RecordingSink::take) or
/// [`snapshot`](RecordingSink::snapshot). [`Tracer::disabled`] is the
/// no-op.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl RecordingSink {
    /// A fresh recording sink behind an [`Arc`], ready for [`Tracer::new`].
    pub fn shared() -> Arc<Self> {
        Arc::new(RecordingSink::default())
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.lock())
    }

    /// Copies everything recorded so far without draining.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        // The sink only appends; a panic mid-push cannot corrupt the Vec
        // beyond losing the pushed element, so recover from poisoning.
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct TracerInner {
    sink: Arc<RecordingSink>,
    epoch: Instant,
}

/// Handle that creates [`SpanCollector`]s and submits their merged events
/// to a [`RecordingSink`]. Cloning shares the sink and the time epoch.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer whose collectors are free no-ops and that records nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer recording into `sink`, with its epoch set to now.
    pub fn new(sink: Arc<RecordingSink>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether collectors created by this tracer record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A collector for `candidate` with sequence numbers starting at 0.
    pub fn collector(&self, candidate: u32) -> SpanCollector {
        self.collector_from(candidate, 0)
    }

    /// A collector for `candidate` whose sequence numbers start at
    /// `seq_base` — lets two pipeline phases record for the same candidate
    /// in separate buffers while keeping the merge order well-defined.
    pub fn collector_from(&self, candidate: u32, seq_base: u64) -> SpanCollector {
        match &self.inner {
            Some(inner) => SpanCollector {
                epoch: Some(inner.epoch),
                candidate,
                seq: seq_base,
                events: Vec::new(),
                head: 0,
                dropped: 0,
                stable: true,
            },
            None => SpanCollector::disabled(),
        }
    }

    /// Merges the collectors deterministically and hands the batch to the
    /// sink. A disabled tracer ignores the call.
    pub fn submit(&self, collectors: Vec<SpanCollector>) {
        if let Some(inner) = &self.inner {
            let merged = merge(collectors);
            inner.sink.lock().extend(merged);
        }
    }
}

/// Opaque span start returned by [`SpanCollector::start`].
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(u64);

/// Per-thread event buffer. Collectors are cheap to create (one per
/// portfolio work item), never lock, and cap memory with a ring buffer.
#[derive(Debug)]
pub struct SpanCollector {
    epoch: Option<Instant>,
    candidate: u32,
    seq: u64,
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    stable: bool,
}

impl SpanCollector {
    /// A collector that records nothing; every method is a cheap no-op.
    pub fn disabled() -> Self {
        SpanCollector {
            epoch: None,
            candidate: NO_CANDIDATE,
            seq: 0,
            events: Vec::new(),
            head: 0,
            dropped: 0,
            stable: true,
        }
    }

    /// Whether this collector records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// The candidate rank events are tagged with.
    pub fn candidate(&self) -> u32 {
        self.candidate
    }

    /// Marks the start of a span. Disabled collectors never read the clock.
    #[inline]
    pub fn start(&self) -> SpanStart {
        match self.epoch {
            Some(epoch) => SpanStart(saturating_ns(epoch)),
            None => SpanStart(0),
        }
    }

    /// Records a span from `start` to now under `phase`.
    #[inline]
    pub fn record(
        &mut self,
        phase: &'static str,
        start: SpanStart,
        counters: &[(&'static str, i64)],
    ) {
        if let Some(epoch) = self.epoch {
            self.push(phase, start.0, saturating_ns(epoch), counters, self.stable);
        }
    }

    /// Records an instantaneous event (zero-width span) under `phase`.
    #[inline]
    pub fn event(&mut self, phase: &'static str, counters: &[(&'static str, i64)]) {
        if let Some(epoch) = self.epoch {
            let now = saturating_ns(epoch);
            self.push(phase, now, now, counters, self.stable);
        }
    }

    /// Records an instantaneous event that is always marked unstable
    /// (e.g. cache totals that depend on scheduling).
    #[inline]
    pub fn event_unstable(&mut self, phase: &'static str, counters: &[(&'static str, i64)]) {
        if let Some(epoch) = self.epoch {
            let now = saturating_ns(epoch);
            self.push(phase, now, now, counters, false);
        }
    }

    /// Marks every event recorded so far — and all future ones — unstable.
    /// The pipeline calls this on losing candidates' collectors, whose
    /// mapper streams depend on bound-pruning timing.
    pub fn mark_unstable(&mut self) {
        self.stable = false;
        for event in &mut self.events {
            event.stable = false;
        }
    }

    /// Number of events overwritten because the ring buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the collector, yielding its events oldest-first.
    pub fn into_events(mut self) -> Vec<TraceEvent> {
        if self.dropped > 0 {
            self.events.rotate_left(self.head);
        }
        self.events
    }

    fn push(
        &mut self,
        phase: &'static str,
        start_ns: u64,
        end_ns: u64,
        counters: &[(&'static str, i64)],
        stable: bool,
    ) {
        let event = TraceEvent {
            phase,
            candidate: self.candidate,
            seq: self.seq,
            start_ns,
            end_ns,
            counters: counters.to_vec(),
            stable,
        };
        self.seq += 1;
        if self.events.len() < COLLECTOR_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % COLLECTOR_CAPACITY;
            self.dropped += 1;
        }
    }
}

#[inline]
fn saturating_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Merges collectors into one event stream ordered by `(candidate, seq)`.
/// The order is a pure function of what was recorded, never of which
/// thread recorded it first — the portfolio's join point relies on this.
pub fn merge(collectors: impl IntoIterator<Item = SpanCollector>) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = collectors
        .into_iter()
        .flat_map(SpanCollector::into_events)
        .collect();
    events.sort_by_key(|e| (e.candidate, e.seq));
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let mut col = SpanCollector::disabled();
        let t = col.start();
        col.record("x", t, &[("a", 1)]);
        col.event("y", &[]);
        assert!(!col.is_enabled());
        assert!(col.into_events().is_empty());
    }

    #[test]
    fn disabled_tracer_hands_out_disabled_collectors() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        assert!(!tracer.collector(3).is_enabled());
        tracer.submit(vec![tracer.collector(0)]); // must not panic
    }

    #[test]
    fn spans_carry_monotonic_seq_and_counters() {
        let tracer = Tracer::new(RecordingSink::shared());
        let mut col = tracer.collector(2);
        let t = col.start();
        col.record("a", t, &[("k", 7)]);
        col.event("b", &[("v", -1)]);
        let events = col.into_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, "a");
        assert_eq!(events[0].candidate, 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].counters, vec![("k", 7)]);
        assert!(events[0].end_ns >= events[0].start_ns);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].start_ns, events[1].end_ns);
        assert!(events.iter().all(|e| e.stable));
    }

    #[test]
    fn merge_orders_by_candidate_then_seq() {
        let tracer = Tracer::new(RecordingSink::shared());
        let mut late = tracer.collector(1);
        late.event("later", &[]);
        let mut early = tracer.collector(0);
        early.event("e0", &[]);
        early.event("e1", &[]);
        let mut map = tracer.collector_from(0, SEQ_BASE_MAP);
        map.event("m0", &[]);
        let mut global = tracer.collector(NO_CANDIDATE);
        global.event("pipeline", &[]);
        let merged = merge(vec![global, late, map, early]);
        let order: Vec<&str> = merged.iter().map(|e| e.phase).collect();
        assert_eq!(order, vec!["e0", "e1", "m0", "later", "pipeline"]);
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let tracer = Tracer::new(RecordingSink::shared());
        let mut col = tracer.collector(0);
        for _ in 0..COLLECTOR_CAPACITY + 3 {
            col.event("e", &[]);
        }
        assert_eq!(col.dropped(), 3);
        let events = col.into_events();
        assert_eq!(events.len(), COLLECTOR_CAPACITY);
        assert_eq!(events.first().unwrap().seq, 3);
        assert_eq!(events.last().unwrap().seq, (COLLECTOR_CAPACITY + 2) as u64);
        // oldest-first even after wraparound
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn mark_unstable_flips_past_and_future_events() {
        let tracer = Tracer::new(RecordingSink::shared());
        let mut col = tracer.collector(0);
        col.event("before", &[]);
        col.mark_unstable();
        col.event("after", &[]);
        assert!(col.into_events().iter().all(|e| !e.stable));
    }

    #[test]
    fn recording_sink_accumulates_batches() {
        let sink = RecordingSink::shared();
        let tracer = Tracer::new(sink.clone());
        let mut a = tracer.collector(0);
        a.event("one", &[]);
        tracer.submit(vec![a]);
        let mut b = tracer.collector(1);
        b.event("two", &[]);
        tracer.submit(vec![b]);
        assert_eq!(sink.snapshot().len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.take().is_empty());
    }
}
