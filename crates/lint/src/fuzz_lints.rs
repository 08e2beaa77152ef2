//! Schema and invariant validation for `panorama-fuzz-v3` JSON.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `FUZZ001` | error | invalid JSON, wrong `schema`, or missing/mistyped field |
//! | `FUZZ002` | error | tally conservation broken, or two reports of the same budget differ (determinism violation) |
//! | `FUZZ003` | error/warn | corpus files skipped or failing replay (error); report carries no corpus section at all (warn) |
//!
//! The fuzz harness is deterministic by construction: a report is a pure
//! function of `(seed, cases, max_nodes)`. `FUZZ002` therefore demands —
//! when the input is a JSON array of reports — that any two uncancelled
//! reports with an identical budget be *structurally identical*, not
//! merely consistent. It also checks the per-report conservation laws:
//! every oracle's `checks == pass + fail + skip`, the failure list is as
//! long as the fail tallies plus crashes, and `completed <= cases`.

use crate::report::{err, lint_text, num, text, Checks};
use crate::{Diagnostic, Diagnostics, Entity, Severity};
use panorama_trace::json::Json;
use panorama_trace::schema;

pub(crate) const CHECKS: Checks = Checks {
    schema: &schema::FUZZ,
    doc: &[check_conservation, check_corpus],
    pair: Some(check_determinism),
};

/// Validates a `panorama-fuzz-v3` document — either one report object or
/// a JSON array of reports (e.g. two runs of the same seed, for the
/// determinism check) — appending findings to `out`.
pub fn lint_fuzz_json(text: &str, out: &mut Diagnostics) {
    lint_text(text, &CHECKS, out);
}

/// The five oracles every report must tally, in report order.
const ORACLES: &[&str] = &["verify", "simulate", "exec", "ii_bound", "rewrite"];

/// `FUZZ001` (a missing oracle row) and `FUZZ002` (single report): the
/// tally conservation laws.
fn check_conservation(doc: &Json, at: &Entity, out: &mut Diagnostics) {
    let rows = doc
        .get("oracles")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    for required in ORACLES {
        if !rows.iter().any(|row| text(row, "oracle") == *required) {
            out.push(err(
                "FUZZ001",
                at.clone(),
                format!("no tally row for oracle `{required}`"),
            ));
        }
    }
    let mut total_fails = num(doc, "crashes");
    for row in rows {
        let name = text(row, "oracle");
        let (checks, pass, fail, skip) = (
            num(row, "checks"),
            num(row, "pass"),
            num(row, "fail"),
            num(row, "skip"),
        );
        if checks != pass + fail + skip {
            out.push(err(
                "FUZZ002",
                at.clone(),
                format!(
                    "oracle `{name}`: checks {checks} != pass {pass} + fail {fail} + skip {skip}"
                ),
            ));
        }
        total_fails += fail;
    }
    let failures = doc
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    if failures.len() as u64 != total_fails {
        out.push(err(
            "FUZZ002",
            at.clone(),
            format!(
                "{} failure record(s) but the tallies account for {total_fails} (oracle fails + crashes)",
                failures.len()
            ),
        ));
    }
    let (completed, cases) = (num(doc, "completed"), num(doc, "cases"));
    if completed > cases {
        out.push(err(
            "FUZZ002",
            at.clone(),
            format!("completed {completed} exceeds the case budget {cases}"),
        ));
    }
    if completed < cases && !cancelled(doc) {
        out.push(err(
            "FUZZ002",
            at.clone(),
            format!("only {completed}/{cases} cases ran but the report is not marked cancelled"),
        ));
    }
}

fn cancelled(doc: &Json) -> bool {
    doc.get("cancelled").and_then(Json::as_bool) == Some(true)
}

/// `FUZZ003`: corpus replay coverage.
fn check_corpus(doc: &Json, at: &Entity, out: &mut Diagnostics) {
    let Some(corpus) = doc.get("corpus") else {
        out.push(Diagnostic::new(
            "FUZZ003",
            Severity::Warn,
            at.clone(),
            "report has no `corpus` section: the regression corpus was not replayed",
        ));
        return;
    };
    let (total, replayed, failed) = (
        num(corpus, "total"),
        num(corpus, "replayed"),
        num(corpus, "failed"),
    );
    if replayed != total {
        out.push(err(
            "FUZZ003",
            at.clone(),
            format!("only {replayed}/{total} corpus file(s) replayed — the rest did not parse"),
        ));
    }
    if failed > 0 {
        let lines = corpus.get("failures").and_then(Json::as_arr);
        let detail: Vec<&str> = lines
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        out.push(err(
            "FUZZ003",
            at.clone(),
            format!(
                "{failed} corpus case(s) failed replay: {}",
                detail.join("; ")
            ),
        ));
    }
}

/// `FUZZ002` (report pairs): identical budgets must yield identical
/// reports — the harness's core determinism claim.
fn check_determinism(prev: &Json, cur: &Json, at: Entity, out: &mut Diagnostics) {
    let budget = |d: &Json| (num(d, "seed"), num(d, "cases"), num(d, "max_nodes"));
    if budget(prev) != budget(cur) {
        return;
    }
    if cancelled(prev) || cancelled(cur) {
        return; // a wall-clock cap legitimately truncates a run
    }
    // The corpus section depends on the directory contents, not the
    // budget; compare everything else.
    let strip = |d: &Json| {
        let mut m = d.as_obj().map(<[_]>::to_vec).unwrap_or_default();
        m.retain(|(k, _)| k != "corpus");
        m
    };
    if strip(prev) != strip(cur) {
        out.push(err(
            "FUZZ002",
            at,
            format!(
                "two reports with seed {} and identical budgets differ: the harness is not deterministic",
                num(cur, "seed")
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seed: u64, completed: u64, fails: u64, corpus: &str) -> String {
        let failures: Vec<String> = (0..fails)
            .map(|i| {
                format!(
                    "{{\"case\": {i}, \"backend\": \"spr\", \"oracle\": \"verify\", \
                     \"message\": \"m\", \"arch\": \"4x4\", \"arch_text\": \"cgra 4 4\", \
                     \"original_ops\": 9, \"minimized_ops\": 2, \"shrink_steps\": 3, \
                     \"repro\": \"dfg x\"}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{id}\", \"seed\": {seed}, \"cases\": {completed}, \
             \"max_nodes\": 48, \"completed\": {completed}, \"cancelled\": false, \"crashes\": 0, \
             \"oracles\": [\
               {{\"oracle\": \"verify\", \"checks\": {c2}, \"pass\": {vp}, \"fail\": {fails}, \"skip\": 0}},\
               {{\"oracle\": \"simulate\", \"checks\": {c2}, \"pass\": {c2}, \"fail\": 0, \"skip\": 0}},\
               {{\"oracle\": \"exec\", \"checks\": {c2}, \"pass\": {c2}, \"fail\": 0, \"skip\": 0}},\
               {{\"oracle\": \"ii_bound\", \"checks\": {completed}, \"pass\": 0, \"fail\": 0, \"skip\": {completed}}},\
               {{\"oracle\": \"rewrite\", \"checks\": {completed}, \"pass\": {completed}, \"fail\": 0, \"skip\": 0}}],\
             \"backends\": [\
               {{\"backend\": \"spr\", \"mapped\": {completed}, \"unmapped\": 0}},\
               {{\"backend\": \"ultrafast\", \"mapped\": {completed}, \"unmapped\": 0}}],\
             \"failures\": [{failures}]{corpus}}}",
            c2 = completed * 2,
            id = schema::FUZZ.id,
            vp = completed * 2 - fails,
            failures = failures.join(",")
        )
    }

    const CLEAN_CORPUS: &str =
        ", \"corpus\": {\"total\": 3, \"replayed\": 3, \"failed\": 0, \"failures\": []}";

    fn run(text: &str) -> Vec<String> {
        let mut diags = Diagnostics::new();
        lint_fuzz_json(text, &mut diags);
        diags.iter().map(|d| d.code.to_string()).collect()
    }

    #[test]
    fn clean_report_passes() {
        assert!(run(&report(42, 5, 0, CLEAN_CORPUS)).is_empty());
        // A clean failure-bearing report is still *valid*.
        assert!(run(&report(42, 5, 2, CLEAN_CORPUS)).is_empty());
    }

    #[test]
    fn bad_json_schema_and_fields_hit_fuzz001() {
        assert_eq!(run("{nope"), ["FUZZ001"]);
        assert_eq!(run("{\"schema\": \"nope\"}"), ["FUZZ001"]);
        let no_row = report(1, 2, 0, CLEAN_CORPUS).replace(
            "{\"oracle\": \"ii_bound\", \"checks\": 2, \"pass\": 0, \"fail\": 0, \"skip\": 2},",
            "",
        );
        assert_eq!(run(&no_row), ["FUZZ001"]);
    }

    #[test]
    fn broken_conservation_hits_fuzz002() {
        // checks != pass+fail+skip (the ii_bound row is the only one with skip 5)
        let bad = report(1, 5, 0, CLEAN_CORPUS).replace("\"skip\": 5}", "\"skip\": 4}");
        assert_eq!(run(&bad), ["FUZZ002"]);
        // failure records out of step with the tallies
        let bad = report(1, 5, 2, CLEAN_CORPUS).replace("\"crashes\": 0", "\"crashes\": 1");
        assert_eq!(run(&bad), ["FUZZ002"]);
        // short run not marked cancelled
        let bad = report(1, 5, 0, CLEAN_CORPUS).replace("\"completed\": 5", "\"completed\": 3");
        assert_eq!(run(&bad), ["FUZZ002"]);
    }

    #[test]
    fn determinism_violation_across_reports_hits_fuzz002() {
        let a = report(42, 5, 0, CLEAN_CORPUS);
        let b = report(42, 5, 2, CLEAN_CORPUS);
        let codes = run(&format!("[{a},{b}]"));
        assert_eq!(codes, ["FUZZ002"]);
        // Identical reports are clean, even as an array.
        assert!(run(&format!("[{a},{a}]")).is_empty());
        // Different seeds are not comparable — including two that are one
        // apart above 2^53, where an `f64` reading would merge them.
        let c = report(7, 5, 0, CLEAN_CORPUS);
        assert!(run(&format!("[{a},{c}]")).is_empty());
        let d = report(9_007_199_254_740_992, 5, 0, CLEAN_CORPUS);
        let e = report(9_007_199_254_740_993, 5, 2, CLEAN_CORPUS);
        assert!(run(&format!("[{d},{e}]")).is_empty());
    }

    #[test]
    fn corpus_gaps_hit_fuzz003() {
        // No corpus section at all: a warning.
        let mut diags = Diagnostics::new();
        lint_fuzz_json(&report(1, 2, 0, ""), &mut diags);
        let warns: Vec<_> = diags.iter().filter(|d| d.code == "FUZZ003").collect();
        assert_eq!(warns.len(), 1);
        assert_eq!(warns[0].severity, Severity::Warn);
        // Unparsed or failing corpus files: errors.
        let bad = ", \"corpus\": {\"total\": 3, \"replayed\": 2, \"failed\": 1, \
                   \"failures\": [\"x.dfg: bad DFG text\"]}";
        let codes = run(&report(1, 2, 0, bad));
        assert_eq!(codes, ["FUZZ003", "FUZZ003"]);
    }
}
