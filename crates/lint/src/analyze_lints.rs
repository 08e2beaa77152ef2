//! Schema validation for `panorama-analyze-v1` JSON reports.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `ANLZ005` | error | the document is not a well-formed `panorama-analyze-v1` report |
//!
//! `ANLZ005` guards the serialized form — hand-edited fixtures, truncated
//! artifact uploads — so CI can fail fast on a corrupt analyze artifact.
//! (A rewrite that fails its equivalence check never gets this far:
//! `panorama_analyze::analyze` returns the error.) Beyond field shapes,
//! the cross-field invariants the writer guarantees are re-checked: the
//! op accounting (`ops.after = ops.before - merged - removed`), and the
//! witness cycle actually proving the claimed `rec_mii.after`
//! (`ceil(latency / distance)`).

use crate::report::{err, lint_text, num, Checks};
use crate::{Diagnostics, Entity};
use panorama_trace::json::Json;
use panorama_trace::schema;

pub(crate) const CHECKS: Checks = Checks {
    schema: &schema::ANALYZE,
    doc: &[check_accounting],
    pair: None,
};

/// Validates a `panorama-analyze-v1` document, appending findings to
/// `out`. Unparseable JSON, a wrong schema or a malformed field ends the
/// checks there — invariants of an arbitrary document would only produce
/// noise.
pub fn lint_analyze_json(text: &str, out: &mut Diagnostics) {
    lint_text(text, &CHECKS, out);
}

fn check_accounting(doc: &Json, at: &Entity, out: &mut Diagnostics) {
    let mut fail = |message: String| out.push(err("ANLZ005", at.clone(), message));
    // Op accounting: folding replaces an op in place, merging and removal
    // drop one op each — nothing else changes the op count.
    let (ops_before, ops_after) = (num(doc, "ops.before"), num(doc, "ops.after"));
    let (merged, removed) = (num(doc, "merged"), num(doc, "removed"));
    if ops_before.saturating_sub(merged.saturating_add(removed)) != ops_after {
        fail(format!(
            "op accounting broken: ops.before {ops_before} - merged {merged} - \
             removed {removed} != ops.after {ops_after}"
        ));
    }

    let rec_mii_after = num(doc, "rec_mii.after");
    let Some(ops) = doc.get("witness").and_then(|w| w.get("ops")) else {
        if rec_mii_after > 1 {
            fail(format!(
                "rec_mii.after is {rec_mii_after} but no witness cycle proves it"
            ));
        }
        return;
    };
    let (lat, dist) = (num(doc, "witness.latency"), num(doc, "witness.distance"));
    if ops.as_arr().is_some_and(<[Json]>::is_empty) || dist == 0 {
        fail(
            "`witness` must be null or an object with a non-empty `ops` array and \
             a positive `distance`"
                .into(),
        );
    } else if lat.div_ceil(dist) != rec_mii_after {
        fail(format!(
            "witness proves RecMII ceil({lat}/{dist}) = {}, but rec_mii.after claims \
             {rec_mii_after}",
            lat.div_ceil(dist)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(text: &str) -> Diagnostics {
        let mut diags = Diagnostics::new();
        lint_analyze_json(text, &mut diags);
        diags
    }

    fn sample(witness: &str) -> String {
        format!(
            r#"{{
  "schema": "panorama-analyze-v1",
  "kernel": "k",
  "ops": {{"before": 7, "after": 5}},
  "deps": {{"before": 8, "after": 5}},
  "rounds": 2,
  "folded": 1,
  "merged": 0,
  "removed": 2,
  "known_constants": 3,
  "critical_path": {{"before": 4, "after": 3}},
  "rec_mii": {{"before": 1, "after": 1}},
  "witness": {witness},
  "equiv_iterations": 6
}}"#
        )
    }

    #[test]
    fn clean_report_passes() {
        let diags = lint(&sample("null"));
        assert!(diags.is_empty(), "{}", diags.render_human());
        let diags = lint(&sample(r#"{"ops": [3], "latency": 1, "distance": 1}"#));
        assert!(diags.is_empty(), "{}", diags.render_human());
    }

    #[test]
    fn invalid_json_and_wrong_schema_are_anlz005() {
        assert!(lint("{nope").has_errors());
        assert!(lint(r#"{"schema": "bogus-v9"}"#).has_errors());
        assert!(lint(r#"{"kernel": "k"}"#).has_errors());
        assert!(lint("{nope").iter().all(|d| d.code == "ANLZ005"));
    }

    #[test]
    fn op_accounting_is_checked() {
        let text = sample("null").replace(r#""removed": 2"#, r#""removed": 1"#);
        let diags = lint(&text);
        assert!(
            diags.iter().any(|d| d.message.contains("op accounting")),
            "{}",
            diags.render_human()
        );
    }

    #[test]
    fn witness_must_prove_the_claimed_bound() {
        // claims RecMII 1 but the cycle proves ceil(4/2) = 2
        let diags = lint(&sample(r#"{"ops": [1, 2], "latency": 4, "distance": 2}"#));
        assert!(
            diags.iter().any(|d| d.message.contains("witness proves")),
            "{}",
            diags.render_human()
        );
        // claims RecMII 2 with no witness at all
        let text = sample("null").replace(
            r#""rec_mii": {"before": 1, "after": 1}"#,
            r#""rec_mii": {"before": 1, "after": 2}"#,
        );
        let diags = lint(&text);
        assert!(
            diags.iter().any(|d| d.message.contains("no witness")),
            "{}",
            diags.render_human()
        );
    }
}
