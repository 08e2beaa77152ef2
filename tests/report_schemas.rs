//! Every `panorama-*-v*` document, pinned twice: byte-for-byte against
//! the goldens under `tests/golden/` (captured from the hand-rolled
//! emitters the schema table replaced), and shape-wise against the table
//! itself.

use panorama::CompileRequest;
use panorama_analyze::AnalyzeReport;
use panorama_arch::Cgra;
use panorama_exec::{exec_report_json, ExecOutcome, VectorRun};
use panorama_fuzz::{CorpusStats, FailureRecord, FuzzReport, OracleCounts};
use panorama_lint::{check_shape, Diagnostic, Diagnostics, Entity, Severity};
use panorama_mapper::{sat_attempt_log, IiAttempt, SatMapperConfig};
use panorama_serve::{
    CacheStats, DiskCacheStats, Metrics, QuotaStats, ServeConfig, Server, TenantStats,
};
use panorama_trace::json::{parse, Json};
use panorama_trace::schema::{self, Field, Schema, Ty};
use panorama_trace::{TraceEvent, TraceReport, NO_CANDIDATE};

/// `(golden file stem, document)` for every sample below.
fn samples() -> Vec<(&'static str, String)> {
    let mut docs = vec![
        ("trace", trace().to_json()),
        ("serve-metrics", metrics()),
        ("fuzz-clean", fuzz(false).to_json()),
        ("fuzz-failures-corpus", fuzz(true).to_json()),
        ("analyze-witness", analyze(vec![3, 5]).to_json()),
        ("analyze-no-witness", analyze(vec![]).to_json()),
        ("exec-divergence", exec()),
        ("diagnostics-empty", Diagnostics::new().render_json()),
        ("diagnostics", diagnostics().render_json()),
    ];
    let sat = |kernel, mapped_ii, attempts: &[IiAttempt]| {
        sat_attempt_log(
            kernel,
            "4x4",
            2,
            mapped_ii,
            &SatMapperConfig::default(),
            None,
            attempts,
        )
    };
    docs.push(("sat", sat("fir \"t\"", 3, &sat_attempts())));
    docs.push(("sat-no-attempts", sat("fir", 0, &[])));
    let (error, batch) = served_error_and_batch();
    docs.push(("error", error));
    docs.push(("serve-batch", batch));
    for (name, body) in [
        (
            "compile-guided",
            r#"{"kernel":"fir","arch":"8x8","scale":"tiny"}"#,
        ),
        (
            "compile-baseline",
            r#"{"kernel":"fir","arch":"8x8","scale":"tiny","baseline":true}"#,
        ),
        (
            "compile-analyzed",
            r#"{"kernel":"invertmat","arch":"8x8","scale":"tiny","analyze":true}"#,
        ),
        (
            "compile-no-routes",
            r#"{"kernel":"fir","arch":"8x8","scale":"tiny","mapper":"ultrafast"}"#,
        ),
    ] {
        docs.push((name, compile(body)));
    }
    docs
}

fn trace() -> TraceReport {
    let event = |phase, candidate, seq, counters| TraceEvent {
        phase,
        candidate,
        seq,
        start_ns: 100 * seq,
        end_ns: 100 * seq + 40,
        counters,
        stable: candidate != 1,
    };
    TraceReport {
        kernel: "fir \"q\"".into(),
        arch: "8x8".into(),
        mapper: "Pan-SPR*".into(),
        threads: 4,
        wall_ns: 1_000_000,
        events: vec![
            event("spr.route", 0, 3, vec![("ii", 3), ("delta", -2)]),
            event("spr.ii", 1, 4, vec![("ii", 4)]),
            event("map", NO_CANDIDATE, 0, vec![]),
        ],
    }
}

fn metrics() -> String {
    let m = Metrics::new();
    m.request_cache_hits(2);
    m.request_enqueued(3);
    m.jobs_started(2);
    m.job_completed(&[("preflight", 5_000), ("map", 1_000_000)]);
    m.job_failed();
    m.request_quota_rejected(4);
    let cache = |hits| CacheStats {
        hits,
        misses: 2,
        entries: 3,
        capacity: 256,
        evictions: 1,
    };
    let disk = DiskCacheStats {
        hits: 1,
        misses: 2,
        entries: 3,
        capacity: 1 << 20,
        evictions: 0,
        bytes: 4096,
        corrupt: 1,
    };
    let tenant = |tenant: &str, rejected| TenantStats {
        tenant: tenant.into(),
        admitted: 7,
        rejected,
        tokens: 3,
    };
    let quota = QuotaStats {
        enabled: true,
        rps: 5,
        burst: 10,
        tenants: vec![tenant("alice", 1), tenant("bo\"b", 3)],
    };
    m.to_json(8, cache(0), cache(6), disk, &quota)
}

fn fuzz(failing: bool) -> FuzzReport {
    let mut r = FuzzReport::new(9_007_199_254_740_993, 5, 24);
    r.completed = 5;
    let counts = |pass, fail, skip| OracleCounts {
        checks: pass + fail + skip,
        pass,
        fail,
        skip,
    };
    r.verify = counts(13, 2 * usize::from(failing), 0);
    r.simulate = counts(10, 0, 5);
    r.exec = counts(10, 0, 5);
    r.ii_bound = counts(2, 0, 3);
    r.rewrite = counts(5, 0, 0);
    r.spr.mapped = 5;
    r.ultrafast.mapped = 4;
    r.ultrafast.unmapped = 1;
    r.sat.mapped = 5;
    if failing {
        for case in [1, 4] {
            r.failures.push(FailureRecord {
                case,
                backend: "spr".into(),
                oracle: "verify".into(),
                message: "edge 0->1: \"late\"\tby 1".into(),
                arch: "4x4".into(),
                arch_text: "cgra 4 4; clusters 1 1".into(),
                original_ops: 9,
                minimized_ops: 2,
                shrink_steps: 3,
                repro: "dfg x\nop 0 add a\n".into(),
            });
        }
        r.corpus = Some(CorpusStats {
            total: 3,
            replayed: 2,
            failed: 2,
            failures: vec!["a.dfg: bad \"DFG\" text".into(), "b.dfg: II 3 > 2".into()],
        });
    }
    r
}

fn analyze(witness: Vec<usize>) -> AnalyzeReport {
    let cyclic = !witness.is_empty();
    AnalyzeReport {
        kernel: "k\\1".into(),
        ops_before: 7,
        ops_after: 5,
        deps_before: 8,
        deps_after: 5,
        rounds: 2,
        folded: 1,
        merged: 0,
        removed: 2,
        known_constants: 3,
        critical_path_before: 4,
        critical_path_after: 3,
        rec_mii_before: 2,
        rec_mii_after: if cyclic { 2 } else { 1 },
        witness,
        witness_latency: if cyclic { 4 } else { 0 },
        witness_distance: if cyclic { 2 } else { 0 },
        equiv_iterations: 6,
    }
}

fn exec() -> String {
    let run = |vector, divergence: Option<&str>| VectorRun {
        vector,
        checked: if divergence.is_some() { 7 } else { 12 },
        output_tokens: 4,
        output_digest: 0x00ab_cdef_0123_4567,
        divergence: divergence.map(String::from),
    };
    let outcome = ExecOutcome {
        ii: 2,
        iterations: 4,
        seed: 42,
        ops: 3,
        stores: 1,
        vectors: vec![
            run(
                "seeded",
                Some("op #2 \"m\" iteration 1:\nmachine 0x0 != reference 0x1"),
            ),
            run("zeros", None),
            run("ones", None),
            run("i32-min", None),
            run("i32-max", None),
        ],
    };
    exec_report_json("fir", "4x4", "spr", &outcome)
}

fn diagnostics() -> Diagnostics {
    let mut d = Diagnostics::new();
    d.push(Diagnostic::new(
        "DFG001",
        Severity::Warn,
        Entity::Op {
            index: 3,
            name: "m\"0".into(),
        },
        "dangling op",
    ));
    d.push(
        Diagnostic::new("MAP003", Severity::Error, Entity::Global, "II cap too low")
            .with_help("raise --max-ii to 4"),
    );
    d
}

fn compile(body: &str) -> String {
    let req = CompileRequest::from_json(&parse(body).unwrap(), 1, false).unwrap();
    let cgra = Cgra::new(req.arch.clone()).unwrap();
    let report = req.run(&cgra, None, None).unwrap();
    report.to_json(req.dfg.name(), &req.arch_display)
}

/// The two documents only a daemon produces: a `/compile` error payload
/// and a `/compile-batch` envelope (one entry per terminal kind that
/// needs no compile: a malformed entry, and a cache-cold valid one the
/// zero deadline cancels at registration).
fn served_error_and_batch() -> (String, String) {
    use std::io::{Read, Write};
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let (addr, drain) = (server.local_addr(), server.drain_handle());
    let thread = std::thread::spawn(move || server.run());
    let post = |path: &str, body: &str| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response.split_once("\r\n\r\n").unwrap().1.to_string()
    };
    let error = post("/compile", r#"{"kernel":"no \"such\" kernel"}"#);
    let batch = post(
        "/compile-batch",
        r#"{"deadline_ms":0,"entries":[{"kernel":"nope"},{"kernel":"fir","scale":"tiny"}]}"#,
    );
    drain.drain();
    thread.join().unwrap().unwrap();
    (error, batch)
}

fn sat_attempts() -> Vec<IiAttempt> {
    let attempt = |ii, result| IiAttempt {
        ii,
        result,
        refinements: 1,
        decode_mismatches: 0,
        vars: 50 * ii,
        clauses: 400 * ii,
        conflicts: 5,
        propagations: 100,
        decisions: 9,
        restarts: 0,
    };
    vec![attempt(2, "unsat"), attempt(3, "mapped")]
}

#[test]
fn every_document_matches_its_golden_bytes() {
    for (name, doc) in samples() {
        let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(doc, golden, "{name}");
    }
}

/// One table field that a sample document actually carries: how to reach
/// it from the root, and what the table says about it.
struct Site {
    steps: Vec<Step>,
    field: &'static Field,
    in_row: bool,
}

#[derive(Clone, Copy)]
enum Step {
    Key(&'static str),
    Index(usize),
}

/// The walker's spelling of a site: `vectors[0].checked`.
fn path(steps: &[Step]) -> String {
    let mut path = String::new();
    for step in steps {
        match step {
            Step::Key(key) if path.is_empty() => path.push_str(key),
            Step::Key(key) => path.push_str(&format!(".{key}")),
            Step::Index(i) => path.push_str(&format!("[{i}]")),
        }
    }
    path
}

/// Collects the sites below `value`: every table field present, through
/// objects, sections, non-null nullables and the first row of row arrays.
fn sites(value: &Json, ty: &'static Ty, here: &mut Vec<Step>, in_row: bool, out: &mut Vec<Site>) {
    match ty {
        Ty::Nullable(inner) if *value != Json::Null => sites(value, inner, here, in_row, out),
        Ty::Obj(fields) | Ty::Section(fields) => {
            for field in *fields {
                let Some(child) = value.get(field.name) else {
                    continue;
                };
                here.push(Step::Key(field.name));
                out.push(Site {
                    steps: here.clone(),
                    field,
                    in_row,
                });
                sites(child, &field.ty, here, in_row, out);
                here.pop();
            }
        }
        Ty::Arr(row @ Ty::Obj(_)) => {
            if let Some(first) = value.as_arr().and_then(<[Json]>::first) {
                here.push(Step::Index(0));
                sites(first, row, here, true, out);
                here.pop();
            }
        }
        _ => {}
    }
}

/// `doc` with the value at `steps` replaced by `with`, or its key removed.
fn mutated(doc: &Json, steps: &[Step], with: Option<&Json>) -> Json {
    let (step, rest) = steps.split_first().expect("a site is below the root");
    match (doc, step) {
        (Json::Obj(fields), Step::Key(key)) => Json::Obj(
            fields
                .iter()
                .filter_map(|(k, v)| match (k == key, rest.is_empty(), with) {
                    (false, _, _) => Some((k.clone(), v.clone())),
                    (true, false, _) => Some((k.clone(), mutated(v, rest, with))),
                    (true, true, Some(with)) => Some((k.clone(), with.clone())),
                    (true, true, None) => None,
                })
                .collect(),
        ),
        (Json::Arr(items), Step::Index(i)) => {
            let mut items = items.clone();
            items[*i] = mutated(&items[*i], rest, with);
            Json::Arr(items)
        }
        _ => unreachable!("sites are collected from this very document"),
    }
}

fn shape_findings(doc: &Json, schema: &Schema) -> Vec<(&'static str, String)> {
    let mut diags = Diagnostics::new();
    let valid = check_shape(doc, schema, &Entity::Global, &mut diags);
    assert_eq!(valid, diags.is_empty());
    diags.iter().map(|d| (d.code, d.message.clone())).collect()
}

#[test]
fn every_table_field_is_checked_and_every_sample_fits_the_table() {
    let docs: Vec<(&str, Json)> = samples()
        .into_iter()
        .map(|(name, doc)| (name, parse(&doc).unwrap_or_else(|e| panic!("{name}: {e}"))))
        .collect();
    for schema in schema::ALL {
        let [_, _, field_code, row_code] = schema.codes;
        let of_schema = |doc: &Json| match doc.get("schema") {
            Some(id) => id.as_str() == Some(schema.id),
            None => matches!(schema.root, Ty::Arr(_)),
        };
        // table paths (`events[].phase`) some sample exercised
        let mut covered = std::collections::BTreeSet::new();
        for (name, doc) in docs.iter().filter(|(_, doc)| of_schema(doc)) {
            assert_eq!(shape_findings(doc, schema), [], "{name}");
            let mut found = Vec::new();
            sites(doc, &schema.root, &mut Vec::new(), false, &mut found);
            for Site {
                steps,
                field,
                in_row,
            } in found
            {
                let place = path(&steps);
                covered.insert(place.replace("[0]", "[]"));
                let code = if in_row { row_code } else { field_code };
                let one_finding = |found: Vec<(&str, String)>, what: &str| {
                    let [(got, message)] = &found[..] else {
                        panic!("{name}: {what} `{place}` gave {found:?}");
                    };
                    assert_eq!(*got, code, "{name}: {what} `{place}`");
                    let expected = format!("`{place}` missing or not ");
                    assert!(message.starts_with(&expected), "{name}: {message}");
                };
                let deleted = shape_findings(&mutated(doc, &steps, None), schema);
                if field.optional {
                    assert_eq!(deleted, [], "{name}: optional `{place}` deleted");
                } else {
                    one_finding(deleted, "deleting");
                }
                // no table type but `Doc` takes both a boolean and a float
                let wrong = match field.ty {
                    Ty::Doc => continue,
                    Ty::Bool => Json::Num(0.5),
                    _ => Json::Bool(true),
                };
                let mistyped = shape_findings(&mutated(doc, &steps, Some(&wrong)), schema);
                one_finding(mistyped, "mistyping");
            }
        }
        let mut declared = Vec::new();
        table_paths(&schema.root, "", &mut declared);
        let missed: Vec<&String> = declared.iter().filter(|p| !covered.contains(*p)).collect();
        assert!(
            missed.is_empty(),
            "{}: no sample carries {missed:?}",
            schema.id
        );
    }
}

/// Every field path the table declares below `ty`.
fn table_paths(ty: &Ty, prefix: &str, out: &mut Vec<String>) {
    match ty {
        Ty::Nullable(inner) => table_paths(inner, prefix, out),
        Ty::Arr(row @ Ty::Obj(_)) => table_paths(row, &format!("{prefix}[]"), out),
        Ty::Obj(fields) | Ty::Section(fields) => {
            for field in *fields {
                let dot = if prefix.is_empty() { "" } else { "." };
                let here = format!("{prefix}{dot}{}", field.name);
                table_paths(&field.ty, &here, out);
                out.push(here);
            }
        }
        _ => {}
    }
}

#[test]
fn design_md_lists_the_table() {
    let design = include_str!("../DESIGN.md");
    let section = design
        .split_once(". Report schemas\n")
        .expect("DESIGN.md has a `Report schemas` section")
        .1;
    let section = section.split("\n## ").next().unwrap();
    let documented: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect();
    let ids: Vec<&str> = schema::ALL.iter().map(|s| s.id).collect();
    assert_eq!(documented, ids, "the id column of DESIGN.md's table");
}
