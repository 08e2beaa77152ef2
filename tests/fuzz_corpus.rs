//! Replays every committed fuzz reproducer in `fuzz/corpus/` through the
//! full oracle stack.
//!
//! Each corpus file is a minimized regression (a bug the fuzzer found and
//! the toolchain has since fixed) or a boundary case worth pinning. Replay
//! must produce zero `Fail` outcomes — `Skip`s are fine (an oracle can be
//! inapplicable, e.g. `exec` on an abstract mapping without routes), but a
//! `Fail` means a fixed bug has come back.

use panorama::BackendId;
use panorama_arch::Cgra;
use panorama_fuzz::{parse_corpus_case, replay_case, run_case, OracleConfig, OracleOutcome};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fuzz")
        .join("corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("fuzz/corpus exists in the repository")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "dfg"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_seeded() {
    assert!(
        corpus_files().len() >= 3,
        "the committed corpus must hold at least three reproducers"
    );
}

#[test]
fn every_corpus_case_replays_clean() {
    let cfg = OracleConfig::default();
    let mut failures = Vec::new();
    for path in corpus_files() {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: unreadable corpus file: {e}"));
        let case =
            parse_corpus_case(&text).unwrap_or_else(|e| panic!("{name}: malformed corpus: {e}"));
        if let Err(msg) = replay_case(&case, &cfg) {
            failures.push(format!("{name}: {msg}"));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus regressions resurfaced:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_directives_are_well_formed() {
    // Every committed case should be self-describing: an arch is required
    // by the parser, and a note explaining *why* the case is pinned keeps
    // the corpus reviewable.
    for path in corpus_files() {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = std::fs::read_to_string(&path).unwrap();
        let case = parse_corpus_case(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            case.note.is_some(),
            "{name}: corpus cases must carry a `#! note` explaining the pin"
        );
        assert!(!case.dfg.to_text().is_empty(), "{name}: empty DFG");
    }
}

#[test]
fn sat_keeps_its_ii_1_claim_on_the_pinned_case() {
    // the exhaustive mapper called II 1 infeasible here; SAT's II-1
    // mapping is what the ii_bound oracle must accept
    let text = std::fs::read_to_string(corpus_dir().join("sat-ii1-below-exhaustive.dfg")).unwrap();
    let case = parse_corpus_case(&text).unwrap();
    let cgra = Cgra::new(case.arch).unwrap();
    let result = run_case(&case.dfg, &cgra, &OracleConfig::default());
    let sat = result
        .backends
        .iter()
        .find(|b| b.backend == BackendId::Sat)
        .unwrap();
    assert_eq!(sat.ii, Some(1));
    assert_eq!(sat.exec, OracleOutcome::Pass);
    assert_eq!(result.ii_bound, OracleOutcome::Pass);
}
