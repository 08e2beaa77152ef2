//! Schema and invariant validation for `panorama-exec-v1` JSON.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `EXEC001` | error | invalid JSON, wrong `schema`, or missing/mistyped field |
//! | `EXEC002` | error | a vector records a value-level divergence between machine and reference |
//! | `EXEC003` | error | conservation broken: status, checked totals or vector rows inconsistent |
//!
//! An exec report is the written verdict of the data-level differential
//! oracle: the cycle-accurate machine replaying the configware must
//! produce the exact token stream the DFG reference interpreter
//! computes. `EXEC002` makes a recorded divergence a lint *error*, so a
//! CI pipeline that lints its exec reports cannot silently ship a
//! semantically wrong encoder. `EXEC003` guards the report's own
//! arithmetic: a `pass` status must be backed by divergence-free vector
//! rows whose checked counts cover every (op, iteration) token.

use crate::report::{err, lint_text, num, text, Checks};
use crate::{Diagnostics, Entity};
use panorama_trace::json::Json;
use panorama_trace::schema;

pub(crate) const CHECKS: Checks = Checks {
    schema: &schema::EXEC,
    doc: &[check_vectors],
    pair: None,
};

/// Validates a `panorama-exec-v1` document, appending findings to `out`.
pub fn lint_exec_json(text: &str, out: &mut Diagnostics) {
    lint_text(text, &CHECKS, out);
}

/// The five input-vector families every report must carry, in order.
const VECTORS: &[&str] = &["seeded", "zeros", "ones", "i32-min", "i32-max"];

/// `EXEC002` (every recorded divergence is an error finding) and
/// `EXEC003` (the report's own conservation laws).
fn check_vectors(doc: &Json, at: &Entity, out: &mut Diagnostics) {
    let rows = doc
        .get("vectors")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let names: Vec<&str> = rows.iter().map(|row| text(row, "vector")).collect();
    if names != VECTORS {
        out.push(err(
            "EXEC003",
            at.clone(),
            format!(
                "vector rows [{}] do not match the required families [{}]",
                names.join(", "),
                VECTORS.join(", ")
            ),
        ));
    }
    let iterations = num(doc, "iterations");
    // tokens a clean vector covers and streams; `None` when the product
    // leaves u64, which is a finding of its own and never a wrapped match
    let product = |factor: &str, out: &mut Diagnostics| {
        let n = num(doc, factor).checked_mul(iterations);
        if n.is_none() {
            out.push(err(
                "EXEC003",
                at.clone(),
                format!("`{factor}` x `iterations` overflows u64"),
            ));
        }
        n
    };
    let (per_vector, per_stream) = (product("ops", out), product("stores", out));
    let mut divergences = 0usize;
    let mut checked_sum = Some(0u64);
    for (i, row) in rows.iter().enumerate() {
        let vector = names[i];
        let checked = num(row, "checked");
        checked_sum = checked_sum.and_then(|sum| sum.checked_add(checked));
        if let Some(msg) = row.get("divergence").and_then(Json::as_str) {
            divergences += 1;
            out.push(err(
                "EXEC002",
                Entity::Event(i),
                format!("`{vector}` vector diverged from the reference: {msg}"),
            ));
        } else if let Some(want) = per_vector.filter(|&want| checked != want) {
            out.push(err(
                "EXEC003",
                Entity::Event(i),
                format!(
                    "`{vector}` checked {checked} tokens but a clean vector must cover \
                     ops x iterations = {want}"
                ),
            ));
        }
        let tokens = num(row, "output_tokens");
        if let Some(want) = per_stream.filter(|&want| tokens != want) {
            out.push(err(
                "EXEC003",
                Entity::Event(i),
                format!(
                    "`{vector}` streams {tokens} output tokens but stores x iterations = {want}"
                ),
            ));
        }
    }
    let total = num(doc, "checked");
    if checked_sum != Some(total) {
        let finding = match checked_sum {
            Some(sum) => format!("`checked` {total} does not equal the vector sum {sum}"),
            None => format!("`checked` {total} but the vector sum overflows u64"),
        };
        out.push(err("EXEC003", at.clone(), finding));
    }
    let status = text(doc, "status");
    if status == "pass" && divergences > 0 {
        out.push(err(
            "EXEC003",
            at.clone(),
            format!("status `pass` but {divergences} vector(s) record a divergence"),
        ));
    }
    if status == "fail" && divergences == 0 {
        out.push(err(
            "EXEC003",
            at.clone(),
            "status `fail` but no vector records a divergence",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(status: &str, divergence: &str) -> String {
        format!(
            "{{\"schema\": \"{id}\", \"kernel\": \"fir\", \"arch\": \"4x4\", \
             \"mapper\": \"spr\", \"ii\": 2, \"iterations\": 4, \"seed\": 42, \"ops\": 3, \
             \"stores\": 1, \"status\": \"{status}\", \"checked\": {checked}, \"vectors\": [\
               {{\"vector\": \"seeded\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x1\", \"divergence\": {divergence}}},\
               {{\"vector\": \"zeros\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x2\", \"divergence\": null}},\
               {{\"vector\": \"ones\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x3\", \"divergence\": null}},\
               {{\"vector\": \"i32-min\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x4\", \"divergence\": null}},\
               {{\"vector\": \"i32-max\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x5\", \"divergence\": null}}]}}",
            id = schema::EXEC.id,
            checked = 60
        )
    }

    fn run(text: &str) -> Vec<String> {
        let mut diags = Diagnostics::new();
        lint_exec_json(text, &mut diags);
        diags.iter().map(|d| d.code.to_string()).collect()
    }

    #[test]
    fn clean_report_passes() {
        assert!(run(&report("pass", "null")).is_empty());
    }

    #[test]
    fn malformed_documents_hit_exec001() {
        assert_eq!(run("{nope"), ["EXEC001"]);
        assert_eq!(run("{\"schema\": \"nope\"}"), ["EXEC001"]);
    }

    #[test]
    fn divergences_hit_exec002() {
        let codes = run(&report(
            "fail",
            "\"op #2 iteration 1: machine 0x0 != reference 0x1\"",
        ));
        assert!(codes.contains(&"EXEC002".to_string()), "{codes:?}");
        assert!(!codes.contains(&"EXEC003".to_string()), "{codes:?}");
    }

    #[test]
    fn products_and_sums_that_overflow_u64_are_exec003_findings() {
        // 2^63 x 4 and 2^62 x 4 wrap to 0; the rows are rewritten to
        // agree with the wrapped products, so a wrapping check passes
        let zeroed = |text: String| {
            text.replace("\"checked\": 12,", "\"checked\": 0,")
                .replace("\"checked\": 60,", "\"checked\": 0,")
        };
        let table: [(String, &str); 3] = [
            (
                zeroed(report("pass", "null"))
                    .replace("\"ops\": 3,", "\"ops\": 9223372036854775808,"),
                "`ops` x `iterations` overflows u64",
            ),
            (
                report("pass", "null")
                    .replace("\"stores\": 1,", "\"stores\": 4611686018427387904,")
                    .replace("\"output_tokens\": 4,", "\"output_tokens\": 0,"),
                "`stores` x `iterations` overflows u64",
            ),
            (
                // five rows of 2^62 - 1: the vector sum leaves u64
                report("pass", "null")
                    .replace("\"iterations\": 4,", "\"iterations\": 1537228672809129301,")
                    .replace("\"checked\": 12,", "\"checked\": 4611686018427387903,")
                    .replace(
                        "\"output_tokens\": 4,",
                        "\"output_tokens\": 1537228672809129301,",
                    )
                    .replace("\"checked\": 60,", "\"checked\": 4611686018427387899,"),
                "the vector sum overflows u64",
            ),
        ];
        for (text, want) in table {
            let mut diags = Diagnostics::new();
            lint_exec_json(&text, &mut diags);
            let found: Vec<_> = diags.iter().map(|d| (d.code, &d.message)).collect();
            assert_eq!(found.len(), 1, "{want}: {found:?}");
            assert_eq!(found[0].0, "EXEC003");
            assert!(found[0].1.contains(want), "{found:?}");
        }
    }

    #[test]
    fn inconsistent_reports_hit_exec003() {
        // status pass but a divergence recorded
        let codes = run(&report("pass", "\"boom\""));
        assert!(codes.contains(&"EXEC003".to_string()), "{codes:?}");
        // status fail but nothing diverged
        let codes = run(&report("fail", "null"));
        assert_eq!(codes, ["EXEC003"]);
        // clean vector with short coverage
        let short = report("pass", "null").replace(
            "{\"vector\": \"zeros\", \"checked\": 12,",
            "{\"vector\": \"zeros\", \"checked\": 7,",
        );
        assert!(run(&short).contains(&"EXEC003".to_string()));
        // checked total out of step with the vector sum
        let bad_total = report("pass", "null").replace("\"checked\": 60,", "\"checked\": 59,");
        assert!(run(&bad_total).contains(&"EXEC003".to_string()));
        // a missing vector family
        let dropped = report("pass", "null").replace(
            "{\"vector\": \"ones\", \"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x3\", \"divergence\": null},",
            "",
        );
        assert!(run(&dropped).contains(&"EXEC003".to_string()));
        // wrong output-token count
        let bad_tokens = report("pass", "null").replace(
            "\"checked\": 12, \"output_tokens\": 4, \
                 \"output_digest\": \"0x5\"",
            "\"checked\": 12, \"output_tokens\": 3, \
                 \"output_digest\": \"0x5\"",
        );
        assert!(run(&bad_tokens).contains(&"EXEC003".to_string()));
    }
}
