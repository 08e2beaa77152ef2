//! The one table of report documents: for every JSON document the
//! toolchain emits, its id, layout and ordered, typed fields.
//!
//! Producers write through [`json::Writer`](crate::json::Writer), which
//! follows a row of this table; `panorama-lint`'s `check_shape` walks a
//! parsed document against the same row. The table describes *shape*
//! only — what each linter checks beyond it (conservation, monotonicity,
//! determinism, merge order) is code in `panorama-lint`.

/// How a document's bytes are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// No whitespace at all.
    Compact,
    /// One line, a space after every `:` and `,`.
    Spaced,
    /// The root's keys (or items) one per line, indented by two; so are a
    /// [`Ty::Section`]'s keys and the rows of an array of objects that
    /// sits directly in such a container. Everything else is `Spaced`.
    Lines,
}

/// The type of one value.
#[derive(Debug)]
pub enum Ty {
    /// A string.
    Str,
    /// An unsigned integer, exact over all of `u64`.
    U64,
    /// A signed integer.
    I64,
    /// A float written with this many decimals.
    Fixed(usize),
    /// `true` or `false`.
    Bool,
    /// A string that is one of these literals.
    Enum(&'static [&'static str]),
    /// `null`, or a value of the inner type.
    Nullable(&'static Ty),
    /// An object with exactly these fields, in this order.
    Obj(&'static [Field]),
    /// An [`Ty::Obj`] that the `Lines` layout breaks one key per line.
    Section(&'static [Field]),
    /// An array of any length; an array of objects is an array of rows.
    Arr(&'static Ty),
    /// An object with free keys, every value of the inner type.
    Map(&'static Ty),
    /// Any JSON value: a complete document rendered elsewhere.
    Doc,
}

/// One key of an object.
#[derive(Debug)]
pub struct Field {
    /// The key.
    pub name: &'static str,
    /// The type of its value.
    pub ty: Ty,
    /// The key may be absent altogether (which is not the same as `null`).
    pub optional: bool,
    /// A counter that only ever grows over one daemon's lifetime
    /// (`SERVE002` checks it between successive snapshots).
    pub cumulative: bool,
}

/// One document kind.
#[derive(Debug)]
pub struct Schema {
    /// The document's `schema` tag, or — for the one document without a
    /// tag, whose root is an array — just its name in this table.
    pub id: &'static str,
    /// Byte layout.
    pub layout: Layout,
    /// Whether the document ends in a newline.
    pub newline: bool,
    /// The root value; an object root carries the `schema` tag as its
    /// first key, ahead of the fields listed here.
    pub root: Ty,
    /// The lint codes of a syntax error, a missing or wrong tag, a
    /// missing or mistyped field outside any row, and one inside a row;
    /// empty for documents `lint --report` does not accept.
    pub codes: [&'static str; 4],
}

const fn field(name: &'static str, ty: Ty) -> Field {
    Field {
        name,
        ty,
        optional: false,
        cumulative: false,
    }
}

const fn optional(name: &'static str, ty: Ty) -> Field {
    Field {
        optional: true,
        ..field(name, ty)
    }
}

const fn s(name: &'static str) -> Field {
    field(name, Ty::Str)
}

const fn n(name: &'static str) -> Field {
    field(name, Ty::U64)
}

const fn cumulative(name: &'static str) -> Field {
    Field {
        cumulative: true,
        ..n(name)
    }
}

const NOT_LINTED: [&str; 4] = [""; 4];

/// `panorama-trace-v1`: `TraceReport::to_json`.
pub static TRACE: Schema = Schema {
    id: "panorama-trace-v1",
    layout: Layout::Lines,
    newline: true,
    root: Ty::Obj(&[
        s("kernel"),
        s("arch"),
        s("mapper"),
        n("threads"),
        n("wall_ns"),
        field(
            "events",
            Ty::Arr(&Ty::Obj(&[
                s("phase"),
                field("candidate", Ty::Nullable(&Ty::U64)),
                n("seq"),
                n("start_ns"),
                n("end_ns"),
                field("stable", Ty::Bool),
                field("counters", Ty::Map(&Ty::I64)),
            ])),
        ),
    ]),
    codes: ["TRACE001", "TRACE002", "TRACE003", "TRACE004"],
};

const CACHE: Ty = Ty::Obj(&[
    cumulative("hits"),
    cumulative("misses"),
    n("entries"),
    n("capacity"),
    cumulative("evictions"),
]);

/// `panorama-serve-metrics-v2`: the daemon's `/metrics`.
pub static SERVE_METRICS: Schema = Schema {
    id: "panorama-serve-metrics-v2",
    layout: Layout::Compact,
    newline: false,
    root: Ty::Obj(&[
        field(
            "queue",
            Ty::Obj(&[n("depth"), n("capacity"), n("in_flight")]),
        ),
        field(
            "requests",
            Ty::Obj(&[
                cumulative("received"),
                cumulative("completed"),
                cumulative("shed"),
                cumulative("cancelled"),
                cumulative("failed"),
                cumulative("quota_rejected"),
            ]),
        ),
        field("result_cache", CACHE),
        field("mrrg_cache", CACHE),
        field(
            "disk_cache",
            Ty::Obj(&[
                cumulative("hits"),
                cumulative("misses"),
                n("entries"),
                n("capacity"),
                cumulative("evictions"),
                n("bytes"),
                cumulative("corrupt"),
            ]),
        ),
        field(
            "quota",
            Ty::Obj(&[
                field("enabled", Ty::Bool),
                n("rps"),
                n("burst"),
                cumulative("rejected"),
                field(
                    "tenants",
                    Ty::Arr(&Ty::Obj(&[
                        s("tenant"),
                        n("admitted"),
                        n("rejected"),
                        n("tokens"),
                    ])),
                ),
            ]),
        ),
        field(
            "phases",
            Ty::Arr(&Ty::Obj(&[
                s("phase"),
                n("count"),
                n("total_ns"),
                n("p50_ns"),
                n("p90_ns"),
                n("p99_ns"),
            ])),
        ),
    ]),
    codes: ["SERVE001"; 4],
};

/// `panorama-fuzz-v3`: `FuzzReport::to_json`.
pub static FUZZ: Schema = Schema {
    id: "panorama-fuzz-v3",
    layout: Layout::Lines,
    newline: true,
    root: Ty::Obj(&[
        n("seed"),
        n("cases"),
        n("max_nodes"),
        n("completed"),
        field("cancelled", Ty::Bool),
        n("crashes"),
        field(
            "oracles",
            Ty::Arr(&Ty::Obj(&[
                s("oracle"),
                n("checks"),
                n("pass"),
                n("fail"),
                n("skip"),
            ])),
        ),
        field(
            "backends",
            Ty::Arr(&Ty::Obj(&[s("backend"), n("mapped"), n("unmapped")])),
        ),
        field(
            "failures",
            Ty::Arr(&Ty::Obj(&[
                n("case"),
                s("backend"),
                s("oracle"),
                s("message"),
                s("arch"),
                s("arch_text"),
                n("original_ops"),
                n("minimized_ops"),
                n("shrink_steps"),
                s("repro"),
            ])),
        ),
        optional(
            "corpus",
            Ty::Section(&[
                n("total"),
                n("replayed"),
                n("failed"),
                field("failures", Ty::Arr(&Ty::Str)),
            ]),
        ),
    ]),
    codes: ["FUZZ001"; 4],
};

const BEFORE_AFTER: Ty = Ty::Obj(&[n("before"), n("after")]);

/// `panorama-analyze-v1`: `AnalyzeReport::to_json`.
pub static ANALYZE: Schema = Schema {
    id: "panorama-analyze-v1",
    layout: Layout::Lines,
    newline: false,
    root: Ty::Obj(&[
        s("kernel"),
        field("ops", BEFORE_AFTER),
        field("deps", BEFORE_AFTER),
        n("rounds"),
        n("folded"),
        n("merged"),
        n("removed"),
        n("known_constants"),
        field("critical_path", BEFORE_AFTER),
        field("rec_mii", BEFORE_AFTER),
        field(
            "witness",
            Ty::Nullable(&Ty::Obj(&[
                field("ops", Ty::Arr(&Ty::U64)),
                n("latency"),
                n("distance"),
            ])),
        ),
        n("equiv_iterations"),
    ]),
    codes: ["ANLZ005"; 4],
};

/// `panorama-sat-v1`: `sat_attempt_log`, the SAT mapper's per-II log.
pub static SAT: Schema = Schema {
    id: "panorama-sat-v1",
    layout: Layout::Spaced,
    newline: true,
    root: Ty::Obj(&[
        s("kernel"),
        s("arch"),
        n("mii"),
        n("max_ii"),
        n("mapped_ii"),
        n("max_vars"),
        n("max_clauses"),
        field(
            "attempts",
            Ty::Arr(&Ty::Obj(&[
                n("ii"),
                field(
                    "result",
                    Ty::Enum(&[
                        "mapped",
                        "unsat",
                        "rounds",
                        "budget",
                        "timeout",
                        "cancelled",
                    ]),
                ),
                n("refinements"),
                n("decode_mismatches"),
                n("vars"),
                n("clauses"),
                n("conflicts"),
                n("propagations"),
                n("decisions"),
                n("restarts"),
            ])),
        ),
    ]),
    codes: ["SAT001"; 4],
};

/// `panorama-exec-v1`: `exec_report_json`.
pub static EXEC: Schema = Schema {
    id: "panorama-exec-v1",
    layout: Layout::Lines,
    newline: true,
    root: Ty::Obj(&[
        s("kernel"),
        s("arch"),
        s("mapper"),
        n("ii"),
        n("iterations"),
        n("seed"),
        n("ops"),
        n("stores"),
        field("status", Ty::Enum(&["pass", "fail"])),
        n("checked"),
        field(
            "vectors",
            Ty::Arr(&Ty::Obj(&[
                s("vector"),
                n("checked"),
                n("output_tokens"),
                s("output_digest"),
                field("divergence", Ty::Nullable(&Ty::Str)),
            ])),
        ),
    ]),
    codes: ["EXEC001"; 4],
};

const INDEX_LISTS: Ty = Ty::Arr(&Ty::Arr(&Ty::U64));

/// `panorama-compile-v1`: `CompileReport::to_json`, the `/compile` body.
pub static COMPILE: Schema = Schema {
    id: "panorama-compile-v1",
    layout: Layout::Compact,
    newline: false,
    root: Ty::Obj(&[
        s("kernel"),
        s("arch"),
        s("mapper"),
        field("guided", Ty::Bool),
        n("ii"),
        n("mii"),
        field("qom", Ty::Fixed(4)),
        optional("analyzed_ops", Ty::U64),
        field("placement", INDEX_LISTS),
        field("routes", Ty::Nullable(&INDEX_LISTS)),
        field(
            "plan",
            Ty::Nullable(&Ty::Obj(&[
                n("clusters"),
                n("zeta1"),
                field("histogram", INDEX_LISTS),
            ])),
        ),
        field(
            "stats",
            Ty::Obj(&[n("ii_attempts"), n("router_iterations"), n("anneal_moves")]),
        ),
    ]),
    codes: NOT_LINTED,
};

/// `panorama-error-v1`: every non-200 body of the daemon.
pub static ERROR: Schema = Schema {
    id: "panorama-error-v1",
    layout: Layout::Compact,
    newline: true,
    root: Ty::Obj(&[s("error"), s("detail")]),
    codes: NOT_LINTED,
};

/// `panorama-serve-batch-v1`: the `/compile-batch` envelope.
pub static SERVE_BATCH: Schema = Schema {
    id: "panorama-serve-batch-v1",
    layout: Layout::Compact,
    newline: true,
    root: Ty::Obj(&[
        n("count"),
        field(
            "results",
            Ty::Arr(&Ty::Obj(&[
                n("index"),
                n("status"),
                field("response", Ty::Doc),
            ])),
        ),
    ]),
    codes: NOT_LINTED,
};

/// `lint-diagnostics`: `Diagnostics::render_json`, an untagged array.
pub static DIAGNOSTICS: Schema = Schema {
    id: "lint-diagnostics",
    layout: Layout::Lines,
    newline: false,
    root: Ty::Arr(&Ty::Obj(&[
        s("code"),
        field("severity", Ty::Enum(&["info", "warn", "error"])),
        s("entity"),
        s("message"),
        field("help", Ty::Nullable(&Ty::Str)),
    ])),
    codes: NOT_LINTED,
};

/// Every row of the table.
pub static ALL: [&Schema; 10] = [
    &TRACE,
    &SERVE_METRICS,
    &FUZZ,
    &ANALYZE,
    &SAT,
    &EXEC,
    &COMPILE,
    &ERROR,
    &SERVE_BATCH,
    &DIAGNOSTICS,
];

impl Schema {
    /// The dotted path of every field marked `cumulative`, in table order.
    /// Only object fields (`Obj`/`Section`, at any depth) have a path; a
    /// counter inside an array row has none and is not listed.
    pub fn cumulative_paths(&self) -> Vec<String> {
        fn walk(ty: &Ty, prefix: &str, out: &mut Vec<String>) {
            let (Ty::Obj(fields) | Ty::Section(fields)) = ty else {
                return;
            };
            for f in *fields {
                let path = if prefix.is_empty() {
                    f.name.to_string()
                } else {
                    format!("{prefix}.{}", f.name)
                };
                if f.cumulative {
                    out.push(path.clone());
                }
                walk(&f.ty, &path, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, "", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `cumulative` field reachable through any type, arrays
    /// included.
    fn count_cumulative(ty: &Ty) -> usize {
        match ty {
            Ty::Obj(fields) | Ty::Section(fields) => fields
                .iter()
                .map(|f| usize::from(f.cumulative) + count_cumulative(&f.ty))
                .sum(),
            Ty::Nullable(inner) | Ty::Arr(inner) | Ty::Map(inner) => count_cumulative(inner),
            _ => 0,
        }
    }

    #[test]
    fn cumulative_paths_are_the_serve_counters_and_none_sits_in_an_array() {
        assert_eq!(
            SERVE_METRICS.cumulative_paths(),
            [
                "requests.received",
                "requests.completed",
                "requests.shed",
                "requests.cancelled",
                "requests.failed",
                "requests.quota_rejected",
                "result_cache.hits",
                "result_cache.misses",
                "result_cache.evictions",
                "mrrg_cache.hits",
                "mrrg_cache.misses",
                "mrrg_cache.evictions",
                "disk_cache.hits",
                "disk_cache.misses",
                "disk_cache.evictions",
                "disk_cache.corrupt",
                "quota.rejected",
            ]
        );
        // A counter the walk cannot reach (one under an `Arr`, `Map` or
        // `Nullable`) would never be checked for monotonicity.
        for schema in ALL {
            assert_eq!(
                schema.cumulative_paths().len(),
                count_cumulative(&schema.root),
                "{}: a cumulative field has no stable path",
                schema.id
            );
        }
    }
}
