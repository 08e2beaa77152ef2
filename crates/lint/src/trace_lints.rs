//! Schema validation for `panorama-trace-v1` JSON exports.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `TRACE001` | error | the document is not valid JSON |
//! | `TRACE002` | error | missing or unknown `schema` field |
//! | `TRACE003` | error | missing or mistyped top-level field |
//! | `TRACE004` | error | malformed event (missing/mistyped field, or `end_ns < start_ns`) |
//! | `TRACE005` | error | events out of `(candidate, seq)` merge order |
//! | `TRACE006` | warn | top-level phases cover less than 90% or more than 100% of `wall_ns` |
//!
//! The trace writer ([`panorama_trace::TraceReport::to_json`]) always
//! produces clean output; these checks guard the other direction —
//! hand-edited fixtures, truncated artifact uploads, and future writers —
//! so CI can fail fast on a corrupt trace artifact.

use crate::report::{err, lint_text, num, text, Checks};
use crate::{Diagnostic, Diagnostics, Entity, Severity};
use panorama_trace::json::Json;
use panorama_trace::schema;

/// Minimum share of `wall_ns` the top-level phases must cover before
/// `TRACE006` fires. Matches the pipeline's acceptance bar (phases within
/// 10% of end-to-end wall-clock).
const MIN_TOP_LEVEL_COVERAGE: f64 = 0.90;

pub(crate) const CHECKS: Checks = Checks {
    schema: &schema::TRACE,
    doc: &[check_events],
    pair: None,
};

/// Validates a `panorama-trace-v1` document, appending findings to `out`.
/// Unparseable JSON, a wrong schema or a malformed field ends the checks
/// there — invariants of an arbitrary document would only produce noise.
pub fn lint_trace_json(text: &str, out: &mut Diagnostics) {
    lint_text(text, &CHECKS, out);
}

/// `TRACE004` (a span that ends before it starts), `TRACE005` (merge
/// order) and `TRACE006` (top-level coverage). A `null` candidate
/// (pipeline-level event) sorts as `u64::MAX`, matching the writer.
fn check_events(doc: &Json, at: &Entity, out: &mut Diagnostics) {
    let events = doc.get("events").and_then(Json::as_arr).unwrap_or_default();
    let mut last_key: Option<(u64, u64)> = None;
    let mut top_level_ns = 0u64;
    for (i, event) in events.iter().enumerate() {
        let (start_ns, end_ns) = (num(event, "start_ns"), num(event, "end_ns"));
        if end_ns < start_ns {
            out.push(err(
                "TRACE004",
                Entity::Event(i),
                format!("span ends before it starts (start_ns {start_ns}, end_ns {end_ns})"),
            ));
            // a malformed event has no trustworthy merge key or width
            last_key = None;
            continue;
        }
        if !text(event, "phase").contains('.') {
            top_level_ns += end_ns - start_ns;
        }
        let candidate = event.get("candidate").and_then(Json::as_u64);
        let key = (candidate.unwrap_or(u64::MAX), num(event, "seq"));
        if let Some(last) = last_key {
            if key <= last {
                out.push(err(
                    "TRACE005",
                    Entity::Event(i),
                    format!(
                        "events out of merge order: (candidate {}, seq {}) after \
                         (candidate {}, seq {})",
                        display_candidate(key.0),
                        key.1,
                        display_candidate(last.0),
                        last.1
                    ),
                ));
            }
        }
        last_key = Some(key);
    }

    let wall_ns = num(doc, "wall_ns");
    if wall_ns > 0 && !events.is_empty() {
        let coverage = top_level_ns as f64 / wall_ns as f64;
        let help = if coverage < MIN_TOP_LEVEL_COVERAGE {
            "the trace may be truncated, or a pipeline phase is not instrumented"
        } else if coverage > 1.0 {
            "a nested phase is named as a top-level one, or wall_ns misses part of the run"
        } else {
            return;
        };
        out.push(
            Diagnostic::new(
                "TRACE006",
                Severity::Warn,
                at.clone(),
                format!(
                    "top-level phases cover {:.1}% of wall_ns (expected {:.0}% to 100%)",
                    coverage * 100.0,
                    MIN_TOP_LEVEL_COVERAGE * 100.0
                ),
            )
            .with_help(help),
        );
    }
}

fn display_candidate(candidate: u64) -> String {
    if candidate == u64::MAX {
        "null".into()
    } else {
        candidate.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_trace::{TraceEvent, TraceReport, NO_CANDIDATE};

    fn lint(text: &str) -> Diagnostics {
        let mut diags = Diagnostics::new();
        lint_trace_json(text, &mut diags);
        diags
    }

    fn codes(diags: &Diagnostics) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn sample_report() -> TraceReport {
        TraceReport {
            kernel: "fir".into(),
            arch: "8x8".into(),
            mapper: "SPR*".into(),
            threads: 2,
            wall_ns: 1_000_000,
            events: vec![
                TraceEvent {
                    phase: "spr.route",
                    candidate: 0,
                    seq: 5,
                    start_ns: 100,
                    end_ns: 200,
                    counters: vec![("ii", 3)],
                    stable: true,
                },
                TraceEvent {
                    phase: "map",
                    candidate: NO_CANDIDATE,
                    seq: 0,
                    start_ns: 0,
                    end_ns: 950_000,
                    counters: vec![],
                    stable: true,
                },
            ],
        }
    }

    #[test]
    fn writer_output_is_clean() {
        let diags = lint(&sample_report().to_json());
        assert!(diags.is_empty(), "{}", diags.render_human());
    }

    #[test]
    fn invalid_json_is_trace001() {
        assert_eq!(codes(&lint("{not json")), vec!["TRACE001"]);
    }

    #[test]
    fn wrong_or_missing_schema_is_trace002() {
        assert_eq!(codes(&lint(r#"{"schema": "bogus-v9"}"#)), vec!["TRACE002"]);
        assert_eq!(codes(&lint(r#"{"kernel": "fir"}"#)), vec!["TRACE002"]);
    }

    #[test]
    fn a_span_that_ends_before_it_starts_is_trace004() {
        let mut report = sample_report();
        report.events[0].start_ns = 300;
        let diags = lint(&report.to_json());
        assert!(codes(&diags).contains(&"TRACE004"));
    }

    #[test]
    fn merge_order_violation_is_trace005() {
        let mut report = sample_report();
        report.events.swap(0, 1); // NO_CANDIDATE first: out of order
        let diags = lint(&report.to_json());
        assert_eq!(codes(&diags), vec!["TRACE005"]);
    }

    #[test]
    fn low_coverage_is_trace006_warning() {
        let mut report = sample_report();
        report.events[1].end_ns = 100_000; // top-level covers 10%
        let diags = lint(&report.to_json());
        assert_eq!(codes(&diags), vec!["TRACE006"]);
        assert!(!diags.has_errors());
    }

    #[test]
    fn coverage_above_wall_clock_is_trace006_warning() {
        let mut report = sample_report();
        report.events[0].phase = "scatter"; // a nested span named top-level
        report.events[0].end_ns = 150_100; // top-level covers 110%
        let diags = lint(&report.to_json());
        assert_eq!(codes(&diags), vec!["TRACE006"]);
        assert!(!diags.has_errors());
        report.events[0].end_ns = 50_100; // exactly 100%
        assert!(lint(&report.to_json()).is_empty());
    }
}
