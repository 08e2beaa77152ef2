//! Per-tenant admission control: token buckets over the shed path.
//!
//! The queue-full 503 shed protects the *server*; it does nothing to stop
//! one greedy client from starving everyone else before the queue is even
//! full. This module adds the per-client layer: each tenant (the
//! `X-Panorama-Tenant` header, `"anonymous"` when absent) owns a token
//! bucket of capacity `burst` refilled at `rps` tokens per second, and a
//! request that finds the bucket empty is rejected with `429` *before* it
//! touches the cache or the queue.
//!
//! Determinism note: with `rps = 0` the bucket never refills, so a tenant
//! gets exactly `burst` admissions ever — which is what the e2e tests use
//! to assert exact admit/reject counts without racing a clock.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Hard cap on distinct tenant buckets; past it, unseen tenants share one
/// overflow bucket so a hostile client cannot balloon memory by rotating
/// tenant names.
const MAX_TENANTS: usize = 1024;

/// Tenant names longer than this are truncated (they key a map and appear
/// in `/metrics`; nothing legitimate needs more).
const MAX_TENANT_LEN: usize = 64;

/// The shared bucket for tenants arriving after `MAX_TENANTS` (1024) distinct
/// names have been seen.
pub const OVERFLOW_TENANT: &str = "(overflow)";

/// The tenant name used when no `X-Panorama-Tenant` header is present.
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// The HTTP header carrying the tenant name.
pub const TENANT_HEADER: &str = "X-Panorama-Tenant";

#[derive(Debug, Clone)]
struct Bucket {
    /// Fractional tokens currently available, `<= burst`.
    tokens: f64,
    last_refill: Instant,
    admitted: u64,
    rejected: u64,
}

/// One tenant's counters, snapshotted for `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant name (sanitized).
    pub tenant: String,
    /// Requests admitted past the quota gate.
    pub admitted: u64,
    /// Requests rejected with 429.
    pub rejected: u64,
    /// Whole tokens currently available (floor of the fractional bucket).
    pub tokens: u64,
}

/// Snapshot of the quota gate for `/metrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuotaStats {
    /// Whether the gate is enforcing (a disabled gate admits everything).
    pub enabled: bool,
    /// Refill rate, tokens per second.
    pub rps: u64,
    /// Bucket capacity.
    pub burst: u64,
    /// Per-tenant counters, sorted by tenant name (unique).
    pub tenants: Vec<TenantStats>,
}

/// Token-bucket admission control keyed by tenant name.
#[derive(Debug)]
pub struct Quota {
    rps: u64,
    burst: u64,
    buckets: Mutex<BTreeMap<String, Bucket>>,
}

impl Quota {
    /// A gate refilling `rps` tokens per second into buckets of capacity
    /// `burst`. `burst = 0` disables enforcement entirely (every request
    /// admitted, no state kept).
    pub fn new(rps: u64, burst: u64) -> Quota {
        Quota {
            rps,
            burst,
            buckets: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether the gate is enforcing.
    pub fn enabled(&self) -> bool {
        self.burst > 0
    }

    /// Poison recovery: bucket updates are whole under the lock.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Bucket>> {
        self.buckets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Normalizes a tenant header value into a bucket key.
    fn key(&self, tenant: Option<&str>, buckets: &BTreeMap<String, Bucket>) -> String {
        let name = tenant
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .unwrap_or(ANONYMOUS_TENANT);
        let name: String = name.chars().take(MAX_TENANT_LEN).collect();
        if !buckets.contains_key(&name) && buckets.len() >= MAX_TENANTS {
            return OVERFLOW_TENANT.to_string();
        }
        name
    }

    /// Admits or rejects `n` compile units for `tenant` at time `now`,
    /// all-or-nothing (a `/compile-batch` of `n` entries charges `n`
    /// tokens — batching is not a quota bypass, and a batch larger than
    /// `burst` can never be admitted while the gate is on). A disabled
    /// gate admits unconditionally without recording the tenant.
    pub fn admit_n_at(&self, tenant: Option<&str>, n: u64, now: Instant) -> bool {
        if !self.enabled() {
            return true;
        }
        let mut buckets = self.lock();
        let key = self.key(tenant, &buckets);
        let bucket = buckets.entry(key).or_insert_with(|| Bucket {
            tokens: self.burst as f64,
            last_refill: now,
            admitted: 0,
            rejected: 0,
        });
        let elapsed = now.saturating_duration_since(bucket.last_refill);
        bucket.last_refill = now;
        bucket.tokens =
            (bucket.tokens + elapsed.as_secs_f64() * self.rps as f64).min(self.burst as f64);
        if bucket.tokens >= n as f64 {
            bucket.tokens -= n as f64;
            bucket.admitted += n;
            true
        } else {
            bucket.rejected += n;
            false
        }
    }

    /// Single-unit [`Quota::admit_n_at`] at time `now`.
    pub fn admit_at(&self, tenant: Option<&str>, now: Instant) -> bool {
        self.admit_n_at(tenant, 1, now)
    }

    /// [`Quota::admit_at`] with the current time.
    pub fn admit(&self, tenant: Option<&str>) -> bool {
        self.admit_at(tenant, Instant::now())
    }

    /// [`Quota::admit_n_at`] with the current time.
    pub fn admit_n(&self, tenant: Option<&str>, n: u64) -> bool {
        self.admit_n_at(tenant, n, Instant::now())
    }

    /// Seconds until `tenant` plausibly has a token again — the
    /// `Retry-After` hint on a 429 (at least 1; `rps = 0` never refills,
    /// so the hint caps at 60).
    pub fn retry_after_secs(&self) -> u64 {
        if self.rps == 0 {
            60
        } else {
            1
        }
    }

    /// Snapshot for `/metrics`: tenants sorted (BTreeMap order), counters
    /// exact under the lock.
    pub fn stats(&self) -> QuotaStats {
        let buckets = self.lock();
        QuotaStats {
            enabled: self.enabled(),
            rps: self.rps,
            burst: self.burst,
            tenants: buckets
                .iter()
                .map(|(tenant, b)| TenantStats {
                    tenant: tenant.clone(),
                    admitted: b.admitted,
                    rejected: b.rejected,
                    tokens: b.tokens.max(0.0) as u64,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_gate_admits_everything_statelessly() {
        let q = Quota::new(0, 0);
        assert!(!q.enabled());
        for _ in 0..100 {
            assert!(q.admit(Some("anyone")));
        }
        assert!(q.stats().tenants.is_empty());
    }

    #[test]
    fn zero_rps_burst_k_admits_exactly_k() {
        let q = Quota::new(0, 3);
        let now = Instant::now();
        for i in 0..3 {
            assert!(q.admit_at(Some("alice"), now), "admission {i}");
        }
        assert!(!q.admit_at(Some("alice"), now));
        assert!(!q.admit_at(Some("alice"), now));
        // An unrelated tenant has a full bucket of its own.
        assert!(q.admit_at(Some("bob"), now));
        let stats = q.stats();
        let names: Vec<&str> = stats.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["alice", "bob"], "sorted, unique");
        assert_eq!(stats.tenants[0].admitted, 3);
        assert_eq!(stats.tenants[0].rejected, 2);
        assert_eq!(stats.tenants[1].admitted, 1);
    }

    #[test]
    fn refill_restores_tokens_at_rps() {
        let q = Quota::new(10, 2);
        let t0 = Instant::now();
        assert!(q.admit_at(Some("t"), t0));
        assert!(q.admit_at(Some("t"), t0));
        assert!(!q.admit_at(Some("t"), t0), "bucket drained");
        // 100 ms at 10 rps refills one token; capacity caps at burst.
        let t1 = t0 + Duration::from_millis(100);
        assert!(q.admit_at(Some("t"), t1));
        assert!(!q.admit_at(Some("t"), t1));
        let t2 = t1 + Duration::from_secs(10);
        assert!(q.admit_at(Some("t"), t2));
        assert!(q.admit_at(Some("t"), t2));
        assert!(!q.admit_at(Some("t"), t2), "refill caps at burst");
    }

    #[test]
    fn batches_charge_per_entry_all_or_nothing() {
        let q = Quota::new(0, 5);
        let now = Instant::now();
        assert!(!q.admit_n_at(Some("t"), 6, now), "batch larger than burst");
        assert!(q.admit_n_at(Some("t"), 4, now));
        assert!(!q.admit_n_at(Some("t"), 2, now), "only 1 token left");
        assert!(q.admit_n_at(Some("t"), 1, now));
        let stats = q.stats();
        assert_eq!(stats.tenants[0].admitted, 5);
        assert_eq!(stats.tenants[0].rejected, 8);
    }

    #[test]
    fn missing_or_blank_tenant_maps_to_anonymous() {
        let q = Quota::new(0, 1);
        let now = Instant::now();
        assert!(q.admit_at(None, now));
        assert!(
            !q.admit_at(Some("  "), now),
            "blank shares anonymous bucket"
        );
        let stats = q.stats();
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.tenants[0].tenant, ANONYMOUS_TENANT);
    }

    #[test]
    fn tenant_rotation_cannot_balloon_memory() {
        let q = Quota::new(0, 1);
        let now = Instant::now();
        for i in 0..(MAX_TENANTS + 50) {
            q.admit_at(Some(&format!("tenant-{i}")), now);
        }
        let stats = q.stats();
        assert!(stats.tenants.len() <= MAX_TENANTS + 1);
        assert!(stats.tenants.iter().any(|t| t.tenant == OVERFLOW_TENANT));
    }

    #[test]
    fn long_tenant_names_are_truncated() {
        let q = Quota::new(0, 5);
        let now = Instant::now();
        let long = "x".repeat(500);
        assert!(q.admit_at(Some(&long), now));
        let stats = q.stats();
        assert_eq!(stats.tenants[0].tenant.len(), MAX_TENANT_LEN);
    }
}
