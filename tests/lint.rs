//! End-to-end tests of the `panorama lint` subcommand and the pipeline's
//! static pre-flight rejection of provably infeasible runs.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_panorama"))
}

/// Variant names of all twelve built-in kernels — `load_dfg` accepts them
/// case-insensitively alongside the paper-table names (which contain spaces).
const KERNELS: [&str; 12] = [
    "Edn",
    "IdctCols",
    "IdctRows",
    "Conv2d",
    "MatchedFilter",
    "MatrixMultiply",
    "Cordic",
    "KMeansClustering",
    "Fir",
    "JpegFdct",
    "JpegIdctFst",
    "InvertMat",
];

#[test]
fn all_builtin_kernels_lint_clean_on_presets() {
    for kernel in KERNELS {
        for arch in ["4x4", "8x8"] {
            let out = bin()
                .args(["lint", "--dfg", kernel, "--arch", arch, "--scale", "tiny"])
                .output()
                .unwrap();
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "lint of `{kernel}` on {arch} found errors:\n{stdout}"
            );
            assert!(
                stdout.contains("0 error(s)"),
                "lint of `{kernel}` on {arch} should report zero errors:\n{stdout}"
            );
        }
    }
}

/// Minimal JSON reader: consumes one JSON value and returns the rest of the
/// input, panicking on malformed text. Enough to prove `--json` emits a
/// syntactically valid array of objects without pulling in a JSON crate.
fn skip_ws(s: &str) -> &str {
    s.trim_start()
}

fn consume_value(s: &str) -> &str {
    let s = skip_ws(s);
    match s.as_bytes().first().copied() {
        Some(b'[') => consume_seq(&s[1..], b']'),
        Some(b'{') => consume_seq(&s[1..], b'}'),
        Some(b'"') => consume_string(&s[1..]),
        Some(_) => {
            // number / true / false / null
            let end = s
                .find(|c: char| ",]}".contains(c) || c.is_whitespace())
                .unwrap_or(s.len());
            let atom = &s[..end];
            assert!(
                atom == "true" || atom == "false" || atom == "null" || atom.parse::<f64>().is_ok(),
                "bad JSON atom: {atom}"
            );
            &s[end..]
        }
        None => panic!("unexpected end of JSON"),
    }
}

fn consume_string(mut s: &str) -> &str {
    loop {
        match s.as_bytes().first().copied() {
            Some(b'"') => return &s[1..],
            Some(b'\\') => s = &s[2..],
            Some(_) => s = &s[1..],
            None => panic!("unterminated JSON string"),
        }
    }
}

fn consume_seq(mut s: &str, close: u8) -> &str {
    loop {
        s = skip_ws(s);
        if s.as_bytes().first().copied() == Some(close) {
            return &s[1..];
        }
        if close == b'}' {
            s = skip_ws(consume_string(&skip_ws(s)[1..]));
            assert_eq!(s.as_bytes().first().copied(), Some(b':'), "missing `:`");
            s = &s[1..];
        }
        s = consume_value(s);
        s = skip_ws(s);
        if s.as_bytes().first().copied() == Some(b',') {
            s = &s[1..];
        }
    }
}

#[test]
fn lint_json_output_parses_as_array() {
    let out = bin()
        .args([
            "lint", "--dfg", "fir", "--arch", "8x8", "--scale", "tiny", "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let trimmed = stdout.trim();
    assert!(trimmed.starts_with('['), "not a JSON array:\n{stdout}");
    let rest = consume_value(trimmed);
    assert!(
        rest.trim().is_empty(),
        "trailing garbage after array: {rest}"
    );
    // the prechecker always reports the static II bound
    assert!(stdout.contains("\"code\": \"MAP002\""), "{stdout}");
    assert!(stdout.contains("\"severity\": \"info\""), "{stdout}");
}

/// An adder-only 8x8 ADL file, named per test so that parallel tests do
/// not remove each other's file.
fn write_mul_less_arch(test: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "panorama-lint-test-{}-{test}.arch",
        std::process::id()
    ));
    std::fs::write(&path, "cgra 8 8\nclusters 2 2\nmul none\n").unwrap();
    path
}

#[test]
fn lint_rejects_kernel_with_unsupported_op_kind() {
    // `fir` at tiny scale contains multiplies; an adder-only fabric cannot
    // execute them at any II.
    let arch = write_mul_less_arch("lint-fir");
    let out = bin()
        .args(["lint", "--dfg", "fir", "--scale", "tiny", "--arch"])
        .arg(&arch)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        !out.status.success(),
        "adder-only lint should fail:\n{stdout}"
    );
    assert!(stdout.contains("MAP001"), "{stdout}");
    assert!(stdout.contains("unmappable at any II"), "{stdout}");
    assert!(stderr.contains("error(s)"), "{stderr}");
    let _ = std::fs::remove_file(arch);
}

#[test]
fn compile_rejects_kernel_with_unsupported_op_kind() {
    let arch = write_mul_less_arch("compile-fir");
    let out = bin()
        .args(["compile", "--dfg", "fir", "--scale", "tiny", "--arch"])
        .arg(&arch)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        !out.status.success(),
        "compile on adder-only fabric should fail"
    );
    assert!(stderr.contains("statically infeasible"), "{stderr}");
    assert!(stderr.contains("MAP001"), "{stderr}");
    let _ = std::fs::remove_file(arch);
}

/// Four chained adds with a distance-1 recurrence: RecMII = 4, so any II
/// cap below 4 is provably unsatisfiable before running the mapper.
const LOOP4: &[u8] = b"dfg loop4\n\
    op 0 add a\nop 1 add b\nop 2 add c\nop 3 add d\n\
    edge 0 1\nedge 1 2\nedge 2 3\nback 3 0 1\n";

fn run_with_stdin(input: &[u8], args: &[&str]) -> std::process::Output {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(input).unwrap();
    child.wait_with_output().unwrap()
}

fn run_with_loop4_stdin(args: &[&str]) -> std::process::Output {
    run_with_stdin(LOOP4, args)
}

#[test]
fn lint_rejects_ii_cap_below_static_bound() {
    let out = run_with_loop4_stdin(&["lint", "--dfg", "-", "--arch", "4x4", "--max-ii", "2"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        !out.status.success(),
        "II cap 2 < RecMII 4 should fail lint:\n{stdout}"
    );
    assert!(stdout.contains("MAP003"), "{stdout}");
    assert!(stdout.contains("static lower bound"), "{stdout}");
}

#[test]
fn lint_refuses_an_ii_cap_without_an_architecture() {
    // the cap is a claim about a target: with none named there is nothing
    // to check it against
    let out = run_with_loop4_stdin(&["lint", "--dfg", "-", "--max-ii", "2"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("`arch` or `arch_text`"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// One add → mul → add recurrence (RecMII 3) with an orphan head, on the
/// adder-only fabric under an II cap of 2: every kernel pass finds
/// something, and the findings come in pass order — dfg, arch, precheck.
#[test]
fn lint_reports_the_passes_in_order() {
    const MIXED: &[u8] = b"dfg mixed\n\
        op 0 add a\nop 1 mul m\nop 2 add c\n\
        edge 0 1\nedge 1 2\nback 2 0 1\n";
    let arch = write_mul_less_arch("order");
    let arch_arg = arch.to_str().unwrap();
    let args = [
        "lint", "--dfg", "-", "--arch", arch_arg, "--max-ii", "2", "--json",
    ];
    let out = run_with_stdin(MIXED, &args);
    let _ = std::fs::remove_file(&arch);
    let expected = "[
  {\"code\": \"DFG002\", \"severity\": \"warn\", \"entity\": \"op 0 `a`\", \"message\": \"`add` op has no intra-iteration producers\", \"help\": \"feed it from a load/const or remove it\"},
  {\"code\": \"ARCH003\", \"severity\": \"error\", \"entity\": \"(global)\", \"message\": \"kernel `mixed` contains 1 `mul` op(s) but no PE has a multiplier\", \"help\": \"use an architecture with `mul all` or rewrite the kernel\"},
  {\"code\": \"MAP001\", \"severity\": \"error\", \"entity\": \"(global)\", \"message\": \"kernel `mixed` needs a multiplier for 1 op(s) but the target has none; unmappable at any II\", \"help\": \"target an architecture with `mul all`, or strength-reduce the kernel\"},
  {\"code\": \"MAP002\", \"severity\": \"info\", \"entity\": \"(global)\", \"message\": \"static lower bound: II >= 3 (ResMII 1, RecMII 3)\", \"help\": null},
  {\"code\": \"MAP003\", \"severity\": \"error\", \"entity\": \"(global)\", \"message\": \"II cap 2 is below the static lower bound 3; no mapping can exist\", \"help\": \"raise the cap to at least 3\"}
]
";
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        "error: lint found 3 error(s)\n"
    );
    assert!(!out.status.success());
}

#[test]
fn compile_rejects_ii_cap_below_static_bound() {
    let out = run_with_loop4_stdin(&["compile", "--dfg", "-", "--arch", "4x4", "--max-ii", "2"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!out.status.success(), "compile with II cap 2 should fail");
    assert!(stderr.contains("statically infeasible"), "{stderr}");
    assert!(stderr.contains("MAP003"), "{stderr}");
}

#[test]
fn compile_honours_achievable_ii_cap() {
    // RecMII is 4 and the cap allows it, so the pipeline must still succeed.
    let out = run_with_loop4_stdin(&[
        "compile",
        "--dfg",
        "-",
        "--arch",
        "4x4",
        "--baseline",
        "--max-ii",
        "8",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("mapped with SPR*"), "{stdout}");
}

#[test]
fn compile_max_ii_caps_the_search() {
    // edn on 8x8 maps at II 5 guided and unguided (MII 4): a cap of 4
    // passes the static check and must end the search, not be ignored; a
    // cap at the achieved II must change nothing.
    for (mode, achieved) in [(None, "5"), (Some("--baseline"), "5")] {
        let compile = |cap: Option<&str>| {
            let mut cmd = bin();
            cmd.args(["compile", "--dfg", "edn", "--arch", "8x8", "--json"]);
            cmd.args(mode);
            if let Some(cap) = cap {
                cmd.args(["--max-ii", cap]);
            }
            cmd.output().unwrap()
        };
        let capped = compile(Some("4"));
        let stderr = String::from_utf8(capped.stderr).unwrap();
        assert!(!capped.status.success(), "{mode:?}: {stderr}");
        assert!(
            stderr.contains("found no valid mapping up to II 4"),
            "{mode:?}: {stderr}"
        );
        let (free, at_achieved) = (compile(None), compile(Some(achieved)));
        assert!(free.status.success() && at_achieved.status.success());
        let doc = String::from_utf8(free.stdout).unwrap();
        assert!(doc.contains(&format!("\"ii\":{achieved},")), "{doc}");
        assert_eq!(doc, String::from_utf8(at_achieved.stdout).unwrap());
    }
}

#[test]
fn unknown_flags_and_commands_are_named_in_errors() {
    let out = bin()
        .args(["lint", "--dfg", "fir", "--frobnicate"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown flag `--frobnicate` for `lint`"),
        "{stderr}"
    );
    assert!(stderr.contains("accepted:"), "{stderr}");

    let out = bin().args(["delint"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command `delint`"), "{stderr}");

    let out = bin().args(["lint"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--dfg"), "{stderr}");
}
