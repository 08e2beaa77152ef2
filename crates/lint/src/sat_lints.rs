//! Schema and invariant validation for `panorama-sat-v1` JSON — the
//! per-II attempt log `panorama compile --mapper sat --sat-report` writes.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `SAT001` | error | malformed report, or an attempt's CNF exceeded the variable/clause budget |
//! | `SAT002` | warn | the solver timed out or ran out of CEGAR rounds at the II cap without an answer |
//! | `SAT003` | error | a decoded assignment failed `Mapping::verify` (decode/verify mismatch) |
//!
//! Per II the SAT mapper proves infeasibility (`unsat`: phase 1 refuted
//! its widest schedule window) or produces a verified mapping (`mapped`);
//! `rounds` (every CEGAR refinement round spent without either), `budget`
//! and `timeout` rows mean it gave no answer for that II. `SAT003` is the serious one: the encoder's model of
//! the MRRG disagreed with the verifier, which a correct encoding never
//! does — each occurrence was re-blocked and re-solved, so results stay
//! sound, but the encoding should be fixed.

use crate::report::{err, lint_text, num, text, Checks};
use crate::{Diagnostic, Diagnostics, Entity, Severity};
use panorama_trace::json::Json;
use panorama_trace::schema;

pub(crate) const CHECKS: Checks = Checks {
    schema: &schema::SAT,
    doc: &[check_attempts],
    pair: None,
};

/// Validates a `panorama-sat-v1` document, appending findings to `out`.
pub fn lint_sat_json(text: &str, out: &mut Diagnostics) {
    lint_text(text, &CHECKS, out);
}

/// The invariant checks proper: budget overruns (`SAT001`), a cap
/// timeout or rounds exhaustion (`SAT002`) and decode/verify mismatches (`SAT003`).
fn check_attempts(doc: &Json, _at: &Entity, out: &mut Diagnostics) {
    let (max_vars, max_clauses) = (num(doc, "max_vars"), num(doc, "max_clauses"));
    let max_ii = num(doc, "max_ii");
    let rows = doc
        .get("attempts")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let mut cap_timeout = None;
    for (i, row) in rows.iter().enumerate() {
        let ii = num(row, "ii");
        let result = text(row, "result");
        let (vars, clauses) = (num(row, "vars"), num(row, "clauses"));
        if result == "budget" || vars > max_vars || clauses > max_clauses {
            out.push(err(
                "SAT001",
                Entity::Event(i),
                format!(
                    "II {ii}: CNF budget exceeded ({vars} vars / {clauses} clauses against a \
                     {max_vars} var / {max_clauses} clause budget)"
                ),
            ));
        }
        if (result == "timeout" || result == "rounds") && ii >= max_ii {
            cap_timeout = Some((i, ii, result));
        }
        let mismatches = num(row, "decode_mismatches");
        if mismatches > 0 {
            out.push(err(
                "SAT003",
                Entity::Event(i),
                format!(
                    "II {ii}: {mismatches} decoded assignment(s) failed Mapping::verify — \
                     the CNF encoding disagrees with the verifier"
                ),
            ));
        }
    }
    // A timeout (or rounds exhaustion) at the cap only matters when
    // nothing mapped: the search ended on exhausted conflict budgets or
    // refinement rounds, not an infeasibility proof or a solution.
    if let (Some((i, ii, result)), 0) = (cap_timeout, num(doc, "mapped_ii")) {
        out.push(Diagnostic::new(
            "SAT002",
            Severity::Warn,
            Entity::Event(i),
            format!(
                "solver gave up at the II cap ({ii}, `{result}`): the search ran out of \
                 conflict budget or refinement rounds without proving infeasibility or \
                 finding a mapping"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(mapped_ii: u64, attempts: &str) -> String {
        format!(
            "{{\"schema\": \"{id}\", \"kernel\": \"fir\", \"arch\": \"4x4\", \
             \"mii\": 2, \"max_ii\": 12, \"mapped_ii\": {mapped_ii}, \
             \"max_vars\": 200000, \"max_clauses\": 2000000, \
             \"attempts\": [{attempts}]}}",
            id = schema::SAT.id
        )
    }

    fn attempt(ii: u64, result: &str, mismatches: u64, vars: u64) -> String {
        format!(
            "{{\"ii\": {ii}, \"result\": \"{result}\", \"refinements\": 0, \
             \"decode_mismatches\": {mismatches}, \"vars\": {vars}, \"clauses\": 10, \
             \"conflicts\": 5, \"propagations\": 100, \"decisions\": 9, \"restarts\": 0}}"
        )
    }

    fn run(text: &str) -> Vec<String> {
        let mut diags = Diagnostics::new();
        lint_sat_json(text, &mut diags);
        diags.iter().map(|d| d.code.to_string()).collect()
    }

    #[test]
    fn clean_report_passes() {
        let ok = report(
            3,
            &format!(
                "{},{}",
                attempt(2, "unsat", 0, 50),
                attempt(3, "mapped", 0, 60)
            ),
        );
        assert!(run(&ok).is_empty(), "{:?}", run(&ok));
    }

    #[test]
    fn malformed_reports_hit_sat001() {
        assert_eq!(run("{nope"), ["SAT001"]);
        assert_eq!(run("{\"schema\": \"nope\"}"), ["SAT001"]);
        let bad_result = report(0, &attempt(2, "exploded", 0, 1));
        assert!(run(&bad_result).contains(&"SAT001".to_string()));
    }

    #[test]
    fn budget_overruns_hit_sat001() {
        assert_eq!(run(&report(0, &attempt(2, "budget", 0, 10))), ["SAT001"]);
        // vars over the declared budget, even when not flagged as such
        assert_eq!(
            run(&report(0, &attempt(2, "unsat", 0, 300_000))),
            ["SAT001"]
        );
    }

    #[test]
    fn cap_timeout_hits_sat002_only_when_nothing_mapped() {
        let codes = run(&report(0, &attempt(12, "timeout", 0, 10)));
        assert_eq!(codes, ["SAT002"]);
        let codes = run(&report(0, &attempt(12, "rounds", 0, 10)));
        assert_eq!(codes, ["SAT002"]);
        assert!(run(&report(0, &attempt(5, "rounds", 0, 10))).is_empty());
        // A timeout below the cap, or one followed by a success at a
        // later window, is business as usual.
        assert!(run(&report(0, &attempt(5, "timeout", 0, 10))).is_empty());
        let mapped_anyway = report(
            12,
            &format!(
                "{},{}",
                attempt(12, "timeout", 0, 10),
                attempt(12, "mapped", 0, 10)
            ),
        );
        assert!(run(&mapped_anyway).is_empty());
    }

    #[test]
    fn decode_mismatches_hit_sat003() {
        let codes = run(&report(2, &attempt(2, "mapped", 3, 10)));
        assert_eq!(codes, ["SAT003"]);
    }
}
