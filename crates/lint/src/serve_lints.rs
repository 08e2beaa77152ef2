//! Schema and invariant validation for `panorama-serve-metrics-v2` JSON.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `SERVE001` | error | invalid JSON, wrong `schema`, or missing/mistyped field |
//! | `SERVE002` | error | conservation broken, or a cumulative counter decreased between snapshots |
//! | `SERVE003` | error | pipeline phases missing despite non-cached completions, or percentiles out of order |
//! | `SERVE004` | error | quota section inconsistent: tenants unsorted/duplicated, rejected counts disagree, or tokens exceed burst |
//! | `SERVE005` | error | disk-cache invariants broken: resident bytes exceed the budget, or disk hits exceed total cache hits |
//!
//! The daemon's `/metrics` endpoint maintains the conservation invariant
//!
//! ```text
//! received == completed + shed + cancelled + failed + quota_rejected
//!             + queued + in_flight
//! ```
//!
//! *exactly* (transitions are combined updates under one lock), so
//! `SERVE002` checks equality, not a tolerance. The input may be a single
//! metrics document or a JSON array of successive snapshots; with an
//! array, cumulative counters must also be non-decreasing pairwise —
//! a decrease means the daemon restarted mid-scrape or the collector
//! interleaved two servers.

use crate::report::{err, lint_text, num, text, Checks};
use crate::{Diagnostics, Entity};
use panorama_trace::json::Json;
use panorama_trace::schema;

pub(crate) const CHECKS: Checks = Checks {
    schema: &schema::SERVE_METRICS,
    doc: &[check_conservation, check_phases, check_quota, check_disk],
    pair: Some(check_monotonic),
};

/// Validates a `panorama-serve-metrics-v2` document — either one snapshot
/// object or an array of successive snapshots — appending findings to
/// `out`.
pub fn lint_serve_json(text: &str, out: &mut Diagnostics) {
    lint_text(text, &CHECKS, out);
}

/// The request states a received request is in exactly one of.
const ACCOUNTED: [&str; 7] = [
    "requests.completed",
    "requests.shed",
    "requests.cancelled",
    "requests.failed",
    "requests.quota_rejected",
    "queue.depth",
    "queue.in_flight",
];

/// `SERVE002` (single snapshot): the conservation equality. Counters
/// arrive exact up to `u64::MAX`, so the sum is checked: a crafted
/// snapshot must not wrap its way back onto `received`.
fn check_conservation(doc: &Json, at: &Entity, out: &mut Diagnostics) {
    let received = num(doc, "requests.received");
    let accounted = ACCOUNTED
        .iter()
        .try_fold(0u64, |sum, path| sum.checked_add(num(doc, path)));
    let terms = "completed+shed+cancelled+failed+quota_rejected+queued+in_flight";
    let finding = match accounted {
        Some(sum) if sum == received => return,
        Some(sum) => format!("conservation broken: received {received} != {terms} = {sum}"),
        None => format!("conservation broken: received {received} but {terms} overflows u64"),
    };
    out.push(err("SERVE002", at.clone(), finding));
}

/// `SERVE004`: internal consistency of the quota section — tenants
/// sorted and unique, per-tenant rejections summing to both the quota's
/// and the request counter's totals, and no bucket holding more than
/// `burst` tokens.
fn check_quota(doc: &Json, at: &Entity, out: &mut Diagnostics) {
    let burst = num(doc, "quota.burst");
    let mut names: Vec<&str> = Vec::new();
    let mut rejected_sum = Some(0u64);
    let tenants = doc.get("quota").and_then(|q| q.get("tenants"));
    for t in tenants.and_then(Json::as_arr).unwrap_or_default() {
        let name = text(t, "tenant");
        names.push(name);
        rejected_sum = rejected_sum.and_then(|sum| sum.checked_add(num(t, "rejected")));
        let tokens = num(t, "tokens");
        if tokens > burst {
            out.push(err(
                "SERVE004",
                at.clone(),
                format!("tenant `{name}` holds {tokens} tokens, above the burst capacity {burst}"),
            ));
        }
    }
    if names.windows(2).any(|w| w[0] >= w[1]) {
        out.push(err(
            "SERVE004",
            at.clone(),
            "`quota.tenants` not sorted by unique tenant name",
        ));
    }
    let quota_rejected = num(doc, "quota.rejected");
    let counter = num(doc, "requests.quota_rejected");
    if rejected_sum != Some(quota_rejected) || quota_rejected != counter {
        let sum = rejected_sum.map_or("overflows u64".to_string(), |sum| sum.to_string());
        out.push(err(
            "SERVE004",
            at.clone(),
            format!(
                "quota rejection counters disagree: per-tenant sum {sum}, quota.rejected {quota_rejected}, requests.quota_rejected {counter}"
            ),
        ));
    }
}

/// `SERVE005`: disk-cache tier invariants — resident bytes within the
/// byte budget (when one is set), and disk hits never exceeding the total
/// cache hits they are a subset of.
fn check_disk(doc: &Json, at: &Entity, out: &mut Diagnostics) {
    let (bytes, capacity) = (
        num(doc, "disk_cache.bytes"),
        num(doc, "disk_cache.capacity"),
    );
    if capacity > 0 && bytes > capacity {
        out.push(err(
            "SERVE005",
            at.clone(),
            format!("disk cache holds {bytes} bytes, above its {capacity}-byte budget"),
        ));
    }
    let disk_hits = num(doc, "disk_cache.hits");
    let total_hits = num(doc, "result_cache.hits");
    if disk_hits > total_hits {
        out.push(err(
            "SERVE005",
            at.clone(),
            format!(
                "disk cache reports {disk_hits} hits but only {total_hits} requests were answered from any cache tier"
            ),
        ));
    }
}

/// `SERVE003`: phase coverage and percentile ordering.
fn check_phases(doc: &Json, at: &Entity, out: &mut Diagnostics) {
    let mut names = Vec::new();
    for p in doc.get("phases").and_then(Json::as_arr).unwrap_or_default() {
        let name = text(p, "phase");
        names.push(name);
        let (p50, p90, p99) = (num(p, "p50_ns"), num(p, "p90_ns"), num(p, "p99_ns"));
        if !(p50 <= p90 && p90 <= p99) {
            out.push(err(
                "SERVE003",
                at.clone(),
                format!("phase `{name}` percentiles out of order: p50 {p50} p90 {p90} p99 {p99}"),
            ));
        }
    }
    // Completions beyond result-cache hits ran the full pipeline, so its
    // top-level phases must have latency histograms.
    let completed = num(doc, "requests.completed");
    let hits = num(doc, "result_cache.hits");
    if completed > hits {
        for required in ["preflight", "map"] {
            if !names.contains(&required) {
                out.push(err(
                    "SERVE003",
                    at.clone(),
                    format!(
                        "{} non-cached compile(s) completed but phase `{required}` has no latency histogram",
                        completed - hits
                    ),
                ));
            }
        }
    }
}

/// `SERVE002` (snapshot pairs): the counters the table marks cumulative
/// never decrease.
fn check_monotonic(prev: &Json, cur: &Json, at: Entity, out: &mut Diagnostics) {
    for path in schema::SERVE_METRICS.cumulative_paths() {
        let (before, after) = (num(prev, &path), num(cur, &path));
        if after < before {
            out.push(err(
                "SERVE002",
                at.clone(),
                format!("`{path}` decreased between snapshots: {before} -> {after}"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(received: u64, completed: u64, hits: u64, phases: &str) -> String {
        let depth = received - completed;
        format!(
            "{{\"schema\":\"{id}\",\
             \"queue\":{{\"depth\":{depth},\"capacity\":8,\"in_flight\":0}},\
             \"requests\":{{\"received\":{received},\"completed\":{completed},\"shed\":0,\"cancelled\":0,\"failed\":0,\"quota_rejected\":0}},\
             \"result_cache\":{{\"hits\":{hits},\"misses\":1,\"entries\":1,\"capacity\":256,\"evictions\":0}},\
             \"mrrg_cache\":{{\"hits\":4,\"misses\":2,\"entries\":2,\"capacity\":32,\"evictions\":0}},\
             \"disk_cache\":{{\"hits\":0,\"misses\":0,\"entries\":0,\"capacity\":0,\"evictions\":0,\"bytes\":0,\"corrupt\":0}},\
             \"quota\":{{\"enabled\":false,\"rps\":0,\"burst\":0,\"rejected\":0,\"tenants\":[]}},\
             \"phases\":[{phases}]}}",
            id = schema::SERVE_METRICS.id
        )
    }

    const GOOD_PHASES: &str = "{\"phase\":\"map\",\"count\":1,\"total_ns\":9,\"p50_ns\":15,\"p90_ns\":15,\"p99_ns\":15},\
         {\"phase\":\"preflight\",\"count\":1,\"total_ns\":2,\"p50_ns\":3,\"p90_ns\":3,\"p99_ns\":3}";

    fn run(text: &str) -> Vec<String> {
        let mut diags = Diagnostics::new();
        lint_serve_json(text, &mut diags);
        diags.iter().map(|d| d.code.to_string()).collect()
    }

    #[test]
    fn clean_snapshot_passes() {
        assert!(run(&snapshot(3, 3, 1, GOOD_PHASES)).is_empty());
    }

    #[test]
    fn wrong_schema_and_bad_json_hit_serve001() {
        assert_eq!(run("{\"schema\":\"nope\"}"), ["SERVE001"]);
        assert_eq!(run("{nope"), ["SERVE001"]);
    }

    #[test]
    fn broken_conservation_hits_serve002() {
        // received=5 but only 3 accounted (completed 1 + depth 2... make it wrong on purpose)
        let text = snapshot(5, 1, 1, GOOD_PHASES).replace("\"depth\":4", "\"depth\":1");
        assert_eq!(run(&text), ["SERVE002"]);
    }

    #[test]
    fn sums_that_overflow_u64_are_findings_not_wraps() {
        // received 8 = completed 3 + depth 5. With one more term at
        // u64::MAX and depth 6 the wrapped sum is 3 + MAX + 6 = 8 again:
        // the snapshot a wrapping sum waves through.
        let max = u64::MAX;
        let tenants = format!(
            "\"tenants\":[{{\"tenant\":\"a\",\"admitted\":0,\"rejected\":{max},\"tokens\":0}},\
             {{\"tenant\":\"b\",\"admitted\":0,\"rejected\":1,\"tokens\":0}}]"
        );
        let table: [(&[(&str, &str)], &str); 3] = [
            (
                &[
                    ("\"shed\":0", "\"shed\":MAX"),
                    ("\"depth\":5", "\"depth\":6"),
                ],
                "SERVE002",
            ),
            (
                &[
                    ("\"in_flight\":0", "\"in_flight\":MAX"),
                    ("\"depth\":5", "\"depth\":6"),
                ],
                "SERVE002",
            ),
            (&[("\"tenants\":[]", &tenants)], "SERVE004"),
        ];
        for (edits, want) in table {
            let mut text = snapshot(8, 3, 3, GOOD_PHASES);
            for (from, to) in edits {
                assert!(text.contains(from), "{from}");
                text = text.replace(from, &to.replace("MAX", &max.to_string()));
            }
            let mut diags = Diagnostics::new();
            lint_serve_json(&text, &mut diags);
            let found: Vec<_> = diags.iter().map(|d| (d.code, &d.message)).collect();
            assert_eq!(found.len(), 1, "{edits:?}: {found:?}");
            assert_eq!(found[0].0, want, "{edits:?}");
            assert!(found[0].1.contains("overflows u64"), "{found:?}");
        }
    }

    #[test]
    fn counter_decrease_across_snapshots_hits_serve002() {
        let a = snapshot(5, 5, 2, GOOD_PHASES);
        let b = snapshot(3, 3, 1, GOOD_PHASES);
        let codes = run(&format!("[{a},{b}]"));
        assert!(codes.iter().all(|c| c == "SERVE002"), "{codes:?}");
        assert!(!codes.is_empty());
        // Reverse order is monotone and clean.
        assert!(run(&format!("[{b},{a}]")).is_empty());
    }

    #[test]
    fn missing_pipeline_phases_hit_serve003() {
        // 2 completions, 1 cache hit -> one real compile, but no histograms.
        let codes = run(&snapshot(2, 2, 1, ""));
        assert_eq!(codes, ["SERVE003", "SERVE003"]); // preflight + map
                                                     // All completions from cache: no phases required.
        assert!(run(&snapshot(2, 2, 2, "")).is_empty());
    }

    #[test]
    fn unordered_percentiles_hit_serve003() {
        let bad = GOOD_PHASES.replace("\"p90_ns\":15", "\"p90_ns\":1");
        assert_eq!(run(&snapshot(1, 1, 1, &bad)), ["SERVE003"]);
    }

    #[test]
    fn quota_rejections_take_part_in_conservation() {
        // received 5 = completed 3 + quota_rejected 2, depth 0.
        let text = snapshot(5, 5, 5, GOOD_PHASES)
            .replace("\"completed\":5", "\"completed\":3")
            .replace("\"quota_rejected\":0", "\"quota_rejected\":2")
            .replace(
                "\"quota\":{\"enabled\":false,\"rps\":0,\"burst\":0,\"rejected\":0,\"tenants\":[]}",
                "\"quota\":{\"enabled\":true,\"rps\":0,\"burst\":4,\"rejected\":2,\
                 \"tenants\":[{\"tenant\":\"a\",\"admitted\":3,\"rejected\":2,\"tokens\":1}]}",
            );
        assert!(run(&text).is_empty(), "{:?}", run(&text));
        // Dropping the tenant-side count breaks SERVE004, not SERVE002.
        let bad = text.replace("\"rejected\":2,\"tenants\"", "\"rejected\":1,\"tenants\"");
        assert_eq!(run(&bad), ["SERVE004"]);
    }

    #[test]
    fn unsorted_tenants_and_overfull_buckets_hit_serve004() {
        let base = snapshot(1, 1, 1, GOOD_PHASES);
        let unsorted = base.replace(
            "\"tenants\":[]",
            "\"tenants\":[{\"tenant\":\"b\",\"admitted\":0,\"rejected\":0,\"tokens\":0},\
             {\"tenant\":\"a\",\"admitted\":0,\"rejected\":0,\"tokens\":0}]",
        );
        assert_eq!(run(&unsorted), ["SERVE004"]);
        let overfull = base.replace(
            "\"tenants\":[]",
            "\"tenants\":[{\"tenant\":\"a\",\"admitted\":0,\"rejected\":0,\"tokens\":9}]",
        );
        assert_eq!(run(&overfull), ["SERVE004"]);
    }

    #[test]
    fn disk_cache_invariants_hit_serve005() {
        let base = snapshot(1, 1, 1, GOOD_PHASES);
        let over_budget = base.replace(
            "\"disk_cache\":{\"hits\":0,\"misses\":0,\"entries\":0,\"capacity\":0,\"evictions\":0,\"bytes\":0,\"corrupt\":0}",
            "\"disk_cache\":{\"hits\":0,\"misses\":0,\"entries\":3,\"capacity\":100,\"evictions\":0,\"bytes\":150,\"corrupt\":0}",
        );
        assert_eq!(run(&over_budget), ["SERVE005"]);
        // Disk hits are a subset of total cache hits.
        let phantom_hits =
            base.replace("\"disk_cache\":{\"hits\":0,", "\"disk_cache\":{\"hits\":7,");
        assert_eq!(run(&phantom_hits), ["SERVE005"]);
        // Within budget and consistent: clean.
        let clean = base.replace(
            "\"disk_cache\":{\"hits\":0,\"misses\":0,\"entries\":0,\"capacity\":0,\"evictions\":0,\"bytes\":0,\"corrupt\":0}",
            "\"disk_cache\":{\"hits\":1,\"misses\":2,\"entries\":2,\"capacity\":1000,\"evictions\":0,\"bytes\":200,\"corrupt\":0}",
        );
        assert!(run(&clean).is_empty());
    }
}
