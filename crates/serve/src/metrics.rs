//! Exact request accounting and per-phase latency aggregation.
//!
//! Every request-state transition happens under one lock as a *combined*
//! update (e.g. "left the queue, became in-flight"), so the fundamental
//! conservation invariant
//!
//! ```text
//! received == completed + shed + cancelled + failed + quota_rejected
//!             + queued + in_flight
//! ```
//!
//! holds at every instant, not just quiescently — `/metrics` snapshots can
//! be checked for exact equality (lint `SERVE002`), and a violated
//! invariant is a server bug, never a race artifact.
//!
//! Latencies aggregate into power-of-two bucket histograms fed from the
//! per-job trace collectors ([`panorama_trace`] events), keeping memory
//! constant regardless of request volume while still answering
//! p50/p90/p99 within a factor of two.

use crate::diskcache::DiskCacheStats;
use crate::quota::QuotaStats;
use panorama_trace::json::Writer;
use panorama_trace::schema;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Log2-bucketed latency histogram.
#[derive(Debug, Clone)]
struct Hist {
    phase: String,
    /// `buckets[i]` counts samples with `ns < 2^i` (and `>= 2^(i-1)`).
    buckets: [u64; 64],
    count: u64,
    total_ns: u64,
}

impl Hist {
    fn new(phase: &str) -> Self {
        Hist {
            phase: phase.to_string(),
            buckets: [0; 64],
            count: 0,
            total_ns: 0,
        }
    }

    fn add(&mut self, ns: u64) {
        let idx = (64 - ns.leading_zeros() as usize).min(63);
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_ns += ns;
    }

    /// The upper bound of the bucket holding the `p`-th percentile sample
    /// (`p` in 0..=100).
    fn percentile_ns(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count * p).div_ceil(100).max(1);
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if idx >= 63 {
                    u64::MAX
                } else {
                    (1u64 << idx) - 1
                };
            }
        }
        u64::MAX
    }
}

#[derive(Debug, Default)]
struct Inner {
    received: u64,
    completed: u64,
    shed: u64,
    cancelled: u64,
    failed: u64,
    quota_rejected: u64,
    queued: u64,
    in_flight: u64,
    cache_hits: u64,
    cache_misses: u64,
    phases: Vec<Hist>,
}

impl Inner {
    fn hist(&mut self, phase: &str) -> &mut Hist {
        if let Some(i) = self.phases.iter().position(|h| h.phase == phase) {
            return &mut self.phases[i];
        }
        self.phases.push(Hist::new(phase));
        self.phases.last_mut().expect("just pushed")
    }
}

/// Cache statistics snapshot passed into [`Metrics::to_json`] (the caches
/// live outside the metrics lock).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Maximum entries retained (`0` = unbounded).
    pub capacity: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

/// The daemon's counters; shared by every connection and worker thread.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Poison recovery: every update is a batch of integer increments —
    /// no partial state can leak from a panicking thread.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `n` compile units (a `/compile` is one, batch entries count
    /// individually) answered from a cache tier — in-memory or disk.
    pub fn request_cache_hits(&self, n: u64) {
        let mut m = self.lock();
        m.received += n;
        m.cache_hits += n;
        m.completed += n;
    }

    /// `n` cache-missing compile units accepted into the queue. A job
    /// occupies *one* queue slot but counts each entry here — the metrics
    /// `queue.depth` is in requests, not jobs.
    pub fn request_enqueued(&self, n: u64) {
        let mut m = self.lock();
        m.received += n;
        m.cache_misses += n;
        m.queued += n;
    }

    /// `n` units counted by [`Metrics::request_enqueued`] whose job
    /// bounced off a full (or draining) queue: queued → shed. The enqueue
    /// is accounted *before* the push so a worker popping the job
    /// immediately cannot decrement `queued` below zero; a refused push is
    /// then rolled back here.
    pub fn request_shed_after_enqueue(&self, n: u64) {
        let mut m = self.lock();
        m.queued -= n;
        m.shed += n;
    }

    /// `n` compile units rejected by the per-tenant quota gate (`429`) —
    /// a terminal state of its own so admission pressure is visible
    /// without polluting the shed (overload) counter.
    pub fn request_quota_rejected(&self, n: u64) {
        let mut m = self.lock();
        m.received += n;
        m.quota_rejected += n;
    }

    /// A worker popped a job of `n` compile units: queued → in-flight
    /// for each. Entries then settle individually via
    /// [`Metrics::job_completed`] / [`Metrics::job_failed`] /
    /// [`Metrics::job_cancelled`].
    pub fn jobs_started(&self, n: u64) {
        let mut m = self.lock();
        m.queued -= n;
        m.in_flight += n;
    }

    /// An in-flight job finished successfully; `phase_ns` are the
    /// per-phase durations folded into the latency histograms.
    pub fn job_completed(&self, phase_ns: &[(&str, u64)]) {
        let mut m = self.lock();
        m.in_flight -= 1;
        m.completed += 1;
        for &(phase, ns) in phase_ns {
            m.hist(phase).add(ns);
        }
    }

    /// An in-flight job hit its deadline (or the drain) and was cancelled.
    pub fn job_cancelled(&self) {
        let mut m = self.lock();
        m.in_flight -= 1;
        m.cancelled += 1;
    }

    /// An in-flight job failed (infeasible input, mapping exhaustion, …).
    pub fn job_failed(&self) {
        let mut m = self.lock();
        m.in_flight -= 1;
        m.failed += 1;
    }

    /// Jobs currently waiting or running — the drain loop's exit check.
    pub fn pending(&self) -> u64 {
        let m = self.lock();
        m.queued + m.in_flight
    }

    /// Renders the `panorama-serve-metrics-v2` document. `queue_capacity`
    /// and the cache statistics come from the structures that own them;
    /// `disk_cache` is all-zero when the daemon runs without `--cache-dir`
    /// and `quota.enabled` is `false` without `--quota-burst` (the rows
    /// are always present so the lint shape check stays unconditional).
    pub fn to_json(
        &self,
        queue_capacity: usize,
        mut result_cache: CacheStats,
        mrrg_cache: CacheStats,
        disk_cache: DiskCacheStats,
        quota: &QuotaStats,
    ) -> String {
        let m = self.lock();
        // Result-cache lookups are tallied here (they take part in the
        // conservation invariant); the cache only knows its occupancy.
        result_cache.hits = m.cache_hits;
        result_cache.misses = m.cache_misses;
        let mut w = Writer::new(&schema::SERVE_METRICS);
        w.key("queue").open();
        w.key("depth").uint(m.queued);
        w.key("capacity").uint(queue_capacity);
        w.key("in_flight").uint(m.in_flight);
        w.close();
        w.key("requests").open();
        w.key("received").uint(m.received);
        w.key("completed").uint(m.completed);
        w.key("shed").uint(m.shed);
        w.key("cancelled").uint(m.cancelled);
        w.key("failed").uint(m.failed);
        w.key("quota_rejected").uint(m.quota_rejected);
        w.close();
        let tier = |w: &mut Writer, [hits, misses, entries, capacity, evictions]: [u64; 5]| {
            w.key("hits").uint(hits);
            w.key("misses").uint(misses);
            w.key("entries").uint(entries);
            w.key("capacity").uint(capacity);
            w.key("evictions").uint(evictions);
        };
        for (name, c) in [("result_cache", result_cache), ("mrrg_cache", mrrg_cache)] {
            w.key(name).open();
            tier(
                &mut w,
                [c.hits, c.misses, c.entries, c.capacity, c.evictions],
            );
            w.close();
        }
        let d = disk_cache;
        w.key("disk_cache").open();
        tier(
            &mut w,
            [d.hits, d.misses, d.entries, d.capacity, d.evictions],
        );
        w.key("bytes").uint(d.bytes);
        w.key("corrupt").uint(d.corrupt);
        w.close();
        w.key("quota").open();
        w.key("enabled").bool(quota.enabled);
        w.key("rps").uint(quota.rps);
        w.key("burst").uint(quota.burst);
        w.key("rejected").uint(m.quota_rejected);
        w.key("tenants").open();
        for t in &quota.tenants {
            w.open();
            w.key("tenant").str(&t.tenant);
            w.key("admitted").uint(t.admitted);
            w.key("rejected").uint(t.rejected);
            w.key("tokens").uint(t.tokens);
            w.close();
        }
        w.close();
        w.close();
        let mut phases: Vec<&Hist> = m.phases.iter().collect();
        phases.sort_by(|a, b| a.phase.cmp(&b.phase));
        w.key("phases").open();
        for h in phases {
            w.open();
            w.key("phase").str(&h.phase);
            w.key("count").uint(h.count);
            w.key("total_ns").uint(h.total_ns);
            w.key("p50_ns").uint(h.percentile_ns(50));
            w.key("p90_ns").uint(h.percentile_ns(90));
            w.key("p99_ns").uint(h.percentile_ns(99));
            w.close();
        }
        w.close();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_trace::json;

    fn counters(doc: &json::Json) -> (u64, u64) {
        let req = doc.get("requests").unwrap();
        let get = |k: &str| req.get(k).unwrap().as_f64().unwrap() as u64;
        let q = doc.get("queue").unwrap();
        let flows = get("completed")
            + get("shed")
            + get("cancelled")
            + get("failed")
            + get("quota_rejected");
        let held = q.get("depth").unwrap().as_f64().unwrap() as u64
            + q.get("in_flight").unwrap().as_f64().unwrap() as u64;
        (get("received"), flows + held)
    }

    fn render(m: &Metrics) -> String {
        m.to_json(
            4,
            CacheStats::default(),
            CacheStats::default(),
            DiskCacheStats::default(),
            &QuotaStats::default(),
        )
    }

    #[test]
    fn conservation_holds_through_every_transition() {
        let m = Metrics::new();
        let check = |m: &Metrics| {
            let doc = json::parse(&render(m)).expect("metrics JSON parses");
            let (received, accounted) = counters(&doc);
            assert_eq!(received, accounted);
        };
        check(&m);
        m.request_cache_hits(1);
        check(&m);
        m.request_enqueued(1);
        check(&m);
        m.request_enqueued(1);
        m.request_shed_after_enqueue(1);
        check(&m);
        m.jobs_started(1);
        check(&m);
        m.job_completed(&[("map", 1_000_000), ("preflight", 5_000)]);
        check(&m);
        m.request_enqueued(1);
        m.jobs_started(1);
        m.job_cancelled();
        check(&m);
        m.request_enqueued(1);
        m.jobs_started(1);
        m.job_failed();
        check(&m);
        m.request_quota_rejected(3);
        check(&m);
    }

    #[test]
    fn batch_accounting_conserves_per_entry() {
        let m = Metrics::new();
        // A 5-entry batch: 2 hits, 3 misses enqueued as one job.
        m.request_cache_hits(2);
        m.request_enqueued(3);
        let doc = json::parse(&render(&m)).unwrap();
        let (received, accounted) = counters(&doc);
        assert_eq!((received, accounted), (5, 5));
        m.jobs_started(3);
        m.job_completed(&[("map", 100)]);
        m.job_failed();
        m.job_cancelled();
        let doc = json::parse(&render(&m)).unwrap();
        let (received, accounted) = counters(&doc);
        assert_eq!((received, accounted), (5, 5));
        // A refused batch push rolls all entries back to shed.
        m.request_enqueued(4);
        m.request_shed_after_enqueue(4);
        let doc = json::parse(&render(&m)).unwrap();
        let (received, accounted) = counters(&doc);
        assert_eq!((received, accounted), (9, 9));
    }

    #[test]
    fn disk_and_quota_rows_render() {
        let m = Metrics::new();
        m.request_quota_rejected(2);
        let disk = DiskCacheStats {
            hits: 3,
            misses: 1,
            entries: 3,
            capacity: 1024,
            evictions: 0,
            bytes: 300,
            corrupt: 1,
        };
        let quota = QuotaStats {
            enabled: true,
            rps: 5,
            burst: 10,
            tenants: vec![crate::quota::TenantStats {
                tenant: "alice".to_string(),
                admitted: 7,
                rejected: 2,
                tokens: 3,
            }],
        };
        let doc = json::parse(&m.to_json(
            4,
            CacheStats::default(),
            CacheStats::default(),
            disk,
            &quota,
        ))
        .unwrap();
        let d = doc.get("disk_cache").unwrap();
        assert_eq!(d.get("bytes").unwrap().as_f64().unwrap() as u64, 300);
        assert_eq!(d.get("corrupt").unwrap().as_f64().unwrap() as u64, 1);
        let q = doc.get("quota").unwrap();
        assert!(q.get("enabled").unwrap().as_bool().unwrap());
        assert_eq!(q.get("rejected").unwrap().as_f64().unwrap() as u64, 2);
        let tenants = q.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(tenants[0].get("tenant").unwrap().as_str().unwrap(), "alice");
    }

    #[test]
    fn percentiles_are_ordered_and_bucketed() {
        let mut h = Hist::new("map");
        for ns in [100, 200, 400, 800, 100_000] {
            h.add(ns);
        }
        let (p50, p90, p99) = (
            h.percentile_ns(50),
            h.percentile_ns(90),
            h.percentile_ns(99),
        );
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // p50 falls in the bucket holding 400 (256..=511)
        assert_eq!(p50, 511);
        // p99 falls in the bucket holding 100_000
        assert!(p99 >= 100_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Hist::new("x");
        assert_eq!(h.percentile_ns(99), 0);
    }

    #[test]
    fn schema_and_phases_render() {
        let m = Metrics::new();
        m.request_enqueued(1);
        m.jobs_started(1);
        m.job_completed(&[("preflight", 10), ("map", 20)]);
        let doc = json::parse(&render(&m)).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str().unwrap(),
            schema::SERVE_METRICS.id
        );
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        let names: Vec<&str> = phases
            .iter()
            .map(|p| p.get("phase").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["map", "preflight"]); // sorted
    }
}
