//! Report linting shared by every `panorama-*-v*` schema: the shape
//! walker over the [`panorama_trace::schema`] table, the loop over a
//! document or an array of documents, and the dispatch by schema id.
//!
//! A schema's lint module contributes only its [`Checks`]: the table row
//! and the hand-written invariant checks that run on documents whose
//! shape is already known to be right.

use crate::{Diagnostic, Diagnostics, Entity, Severity};
use panorama_trace::json::{self, Json};
use panorama_trace::schema::{Schema, Ty};

/// What `lint --report` runs for one schema.
pub(crate) struct Checks {
    /// The table row the shape is checked against.
    pub schema: &'static Schema,
    /// Invariants of one shape-valid document.
    pub doc: &'static [fn(&Json, &Entity, &mut Diagnostics)],
    /// Invariants across two successive shape-valid documents of an array.
    pub pair: Option<fn(&Json, &Json, Entity, &mut Diagnostics)>,
}

/// The schemas `lint --report` accepts.
const REPORTS: [&Checks; 6] = [
    &crate::trace_lints::CHECKS,
    &crate::serve_lints::CHECKS,
    &crate::fuzz_lints::CHECKS,
    &crate::sat_lints::CHECKS,
    &crate::exec_lints::CHECKS,
    &crate::analyze_lints::CHECKS,
];

pub(crate) fn err(code: &'static str, entity: Entity, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, entity, message)
}

/// The unsigned integer at the dotted `path` below `doc`; 0 when there is
/// none, which [`check_shape`] has ruled out for every required table
/// field by the time an invariant check reads one.
pub(crate) fn num(doc: &Json, path: &str) -> u64 {
    path.split('.')
        .try_fold(doc, |value, key| value.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The string under `field` of `row`; empty when there is none, which
/// [`check_shape`] has likewise ruled out.
pub(crate) fn text<'a>(row: &'a Json, field: &str) -> &'a str {
    row.get(field).and_then(Json::as_str).unwrap_or_default()
}

/// Lints a report of any accepted schema: one document, or an array of
/// documents of one schema (successive `/metrics` snapshots, two fuzz
/// runs of one seed). The schema is named by the document's — or the
/// first element's — `schema` field; text that does not parse, or names
/// no schema, gets the trace linter's `TRACE001` / `TRACE002`.
///
/// # Errors
///
/// When the document names a schema `lint --report` does not know.
pub fn lint_report(text: &str, out: &mut Diagnostics) -> Result<(), String> {
    let parsed = json::parse(text);
    let id = parsed.as_ref().ok().and_then(|doc| {
        let first = doc.as_arr().map_or(Some(doc), <[Json]>::first)?;
        first.get("schema")?.as_str()
    });
    let checks = match id {
        None => &crate::trace_lints::CHECKS,
        Some(id) => REPORTS
            .into_iter()
            .find(|checks| checks.schema.id == id)
            .ok_or_else(|| {
                let known: Vec<&str> = REPORTS.iter().map(|c| c.schema.id).collect();
                format!(
                    "unknown schema `{id}` (expected one of {})",
                    known.join(", ")
                )
            })?,
    };
    lint_parsed(parsed, checks, out);
    Ok(())
}

pub(crate) fn lint_text(text: &str, checks: &Checks, out: &mut Diagnostics) {
    lint_parsed(json::parse(text), checks, out);
}

fn lint_parsed(parsed: Result<Json, String>, checks: &Checks, out: &mut Diagnostics) {
    let [syntax, tag, ..] = checks.schema.codes;
    let doc = match parsed {
        Ok(doc) => doc,
        Err(e) => return out.push(err(syntax, Entity::Global, format!("invalid JSON: {e}"))),
    };
    let docs = doc.as_arr().unwrap_or(std::slice::from_ref(&doc));
    if docs.is_empty() {
        out.push(err(tag, Entity::Global, "empty document array"));
    }
    // the previous element, when its shape was valid
    let mut prev = None;
    for (i, doc) in docs.iter().enumerate() {
        let at = if docs.len() == 1 {
            Entity::Global
        } else {
            Entity::Event(i)
        };
        let shaped = check_shape(doc, checks.schema, &at, out);
        if shaped {
            for check in checks.doc {
                check(doc, &at, out);
            }
            if let (Some(prev), Some(pair)) = (prev, checks.pair) {
                pair(prev, doc, Entity::Event(i), out);
            }
        }
        prev = shaped.then_some(doc);
    }
}

/// Checks `doc` against `schema`: the `schema` tag, then every table
/// field present (unless optional) with a value of its declared type, at
/// any depth. Findings carry the schema's shape codes; one outside any
/// row is about `at`, one inside row `i` of a single document about
/// `Entity::Event(i)`. Returns whether the shape is valid, which is what
/// the invariant checks need before they read fields.
pub fn check_shape(doc: &Json, schema: &Schema, at: &Entity, out: &mut Diagnostics) -> bool {
    let [_, tag, field, in_row] = schema.codes;
    if matches!(schema.root, Ty::Obj(_)) {
        let expected = schema.id;
        let message = match doc.get("schema").and_then(Json::as_str) {
            Some(id) if id == expected => None,
            Some(other) => Some(format!("unknown schema `{other}` (expected `{expected}`)")),
            None => Some(format!("missing `schema` field (expected `{expected}`)")),
        };
        if let Some(message) = message {
            out.push(err(tag, at.clone(), message));
            return false;
        }
    }
    let before = out.len();
    walk(Some(doc), &schema.root, "", None, &mut |row, message| {
        out.push(match (row, at) {
            (Some(i), Entity::Global) => err(in_row, Entity::Event(i), message),
            (Some(_), _) => err(in_row, at.clone(), message),
            (None, _) => err(field, at.clone(), message),
        });
    });
    out.len() == before
}

/// Reports, through `report(row, message)`, every place below `value`
/// that is not what `declared` says; `row` is the index in the outermost
/// array of objects around the place, if any.
fn walk(
    value: Option<&Json>,
    declared: &Ty,
    path: &str,
    row: Option<usize>,
    report: &mut dyn FnMut(Option<usize>, String),
) {
    let ty = match declared {
        Ty::Nullable(_) if value == Some(&Json::Null) => return,
        Ty::Nullable(inner) => inner,
        other => other,
    };
    let join = |key: &str| {
        let dot = if path.is_empty() { "" } else { "." };
        format!("{path}{dot}{key}")
    };
    let ok = value.is_some_and(|value| match ty {
        Ty::Str => value.as_str().is_some(),
        Ty::Enum(literals) => value.as_str().is_some_and(|s| literals.contains(&s)),
        Ty::U64 => value.as_u64().is_some(),
        Ty::I64 => value.as_f64().is_some_and(|n| n.fract() == 0.0),
        Ty::Fixed(_) => value.as_f64().is_some(),
        Ty::Bool => value.as_bool().is_some(),
        Ty::Doc | Ty::Nullable(_) => true,
        Ty::Obj(fields) | Ty::Section(fields) => value.as_obj().is_some_and(|_| {
            for f in *fields {
                let child = value.get(f.name);
                if child.is_some() || !f.optional {
                    walk(child, &f.ty, &join(f.name), row, report);
                }
            }
            true
        }),
        Ty::Map(inner) => value.as_obj().is_some_and(|entries| {
            for (key, child) in entries {
                walk(Some(child), inner, &join(key), row, report);
            }
            true
        }),
        Ty::Arr(inner) => value.as_arr().is_some_and(|items| {
            for (i, item) in items.iter().enumerate() {
                let row = row.or(matches!(inner, Ty::Obj(_)).then_some(i));
                walk(Some(item), inner, &format!("{path}[{i}]"), row, report);
            }
            true
        }),
    });
    if !ok {
        report(
            row,
            format!("`{path}` missing or not {}", describe(declared)),
        );
    }
}

fn describe(ty: &Ty) -> String {
    match ty {
        Ty::Str => "a string".into(),
        Ty::U64 => "a non-negative integer".into(),
        Ty::I64 => "an integer".into(),
        Ty::Fixed(_) => "a number".into(),
        Ty::Bool => "a boolean".into(),
        Ty::Enum(literals) => format!("one of `{}`", literals.join("`/`")),
        Ty::Nullable(inner) => format!("null or {}", describe(inner)),
        Ty::Obj(_) | Ty::Section(_) | Ty::Map(_) => "an object".into(),
        Ty::Arr(_) => "an array".into(),
        Ty::Doc => "a JSON value".into(),
    }
}
