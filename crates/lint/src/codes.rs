//! The machine-readable index of every stable diagnostic code.
//!
//! Each pass module documents its codes in a table; this module is the
//! single registry the golden test locks down: codes are unique, grouped
//! by prefix in pipeline order, numbered densely in emission order, and
//! every code ships a docs entry (severity + one-line summary). Adding a
//! diagnostic anywhere in the toolchain without registering it here —
//! or registering one that no pass emits — fails the test suite.
//!
//! The `ANLZ001`–`ANLZ004` findings are emitted by `panorama-analyze`
//! (which depends on this crate); they are registered here so one table
//! covers the whole toolchain, and the analyze crate's own tests assert
//! its emissions stay in sync.

/// One diagnostic code's registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code string, e.g. `"DFG001"`.
    pub code: &'static str,
    /// Severity (or the severity range) the code is emitted at.
    pub severity: &'static str,
    /// One-line summary, matching the emitting module's doc table.
    pub summary: &'static str,
}

const fn info(code: &'static str, severity: &'static str, summary: &'static str) -> CodeInfo {
    CodeInfo {
        code,
        severity,
        summary,
    }
}

/// Prefix groups in pipeline order — the order [`ALL`] lists codes in.
pub const PREFIXES: &[&str] = &[
    "DFG", "ARCH", "PART", "MAP", "SAT", "EXEC", "TRACE", "SERVE", "FUZZ", "ANLZ",
];

/// Every stable diagnostic code of the toolchain, grouped by prefix in
/// [`PREFIXES`] order, numerically ascending within a group.
pub const ALL: &[CodeInfo] = &[
    info(
        "DFG001",
        "warn",
        "dangling op: a non-store whose result no one consumes",
    ),
    info(
        "DFG002",
        "warn",
        "orphan op: a compute/store op with no producers",
    ),
    info(
        "DFG003",
        "warn",
        "back edge with an iteration distance larger than the op count",
    ),
    info(
        "DFG004",
        "warn/error",
        "arity inconsistent with the op kind",
    ),
    info(
        "DFG005",
        "info",
        "back edge that closes no recurrence cycle",
    ),
    info("ARCH000", "error", "configuration fails its own validation"),
    info("ARCH001", "error", "PE topology is not strongly connected"),
    info(
        "ARCH002",
        "error",
        "multiple clusters but zero inter-cluster links",
    ),
    info(
        "ARCH003",
        "error",
        "kernel uses an op kind no functional unit supports",
    ),
    info(
        "ARCH004",
        "warn",
        "register file cannot feed a two-operand ALU per cycle",
    ),
    info("ARCH005", "error", "cluster with zero PEs"),
    info(
        "PART001",
        "error",
        "partition does not cover the DFG's nodes exactly",
    ),
    info(
        "PART002",
        "error",
        "CDG cut weight disagrees with the partition's inter-edges",
    ),
    info(
        "PART003",
        "warn",
        "empty cluster (wastes a scattering slot)",
    ),
    info(
        "PART004",
        "warn",
        "imbalance factor above the acceptance limit",
    ),
    info(
        "PART005",
        "error",
        "restriction leaves an op with no allowed cluster, or a home outside the allowed set",
    ),
    info(
        "MAP001",
        "error",
        "kernel uses an op kind no PE of the target supports",
    ),
    info(
        "MAP002",
        "info",
        "the computed static lower bound on the II",
    ),
    info(
        "MAP003",
        "error",
        "requested II cap is below the static lower bound",
    ),
    info(
        "MAP004",
        "error/info",
        "restriction-aware capacity bound (tightened or unmappable)",
    ),
    info(
        "SAT001",
        "error",
        "malformed panorama-sat-v1 report, or an attempt's CNF exceeded the variable/clause budget",
    ),
    info(
        "SAT002",
        "warn",
        "SAT solver timed out or ran out of CEGAR rounds at the II cap without an answer",
    ),
    info(
        "SAT003",
        "error",
        "decoded SAT assignment failed Mapping::verify (encoder/verifier mismatch)",
    ),
    info(
        "EXEC001",
        "error",
        "invalid JSON, wrong `schema`, or missing/mistyped field",
    ),
    info(
        "EXEC002",
        "error",
        "a vector records a value-level divergence between machine and reference",
    ),
    info(
        "EXEC003",
        "error",
        "conservation broken: status, checked totals or vector rows inconsistent",
    ),
    info("TRACE001", "error", "the document is not valid JSON"),
    info("TRACE002", "error", "missing or unknown `schema` field"),
    info("TRACE003", "error", "missing or mistyped top-level field"),
    info(
        "TRACE004",
        "error",
        "malformed event (missing/mistyped field, or end before start)",
    ),
    info(
        "TRACE005",
        "error",
        "events out of (candidate, seq) merge order",
    ),
    info(
        "TRACE006",
        "warn",
        "top-level phases cover less than 90% or more than 100% of wall_ns",
    ),
    info(
        "SERVE001",
        "error",
        "invalid JSON, wrong `schema`, or missing/mistyped field",
    ),
    info(
        "SERVE002",
        "error",
        "conservation broken, or a cumulative counter decreased between snapshots",
    ),
    info(
        "SERVE003",
        "error",
        "pipeline phases missing despite non-cached completions, or percentiles out of order",
    ),
    info(
        "SERVE004",
        "error",
        "quota section inconsistent: tenants unsorted/duplicated, rejected counts disagree, or tokens exceed burst",
    ),
    info(
        "SERVE005",
        "error",
        "disk-cache invariants broken: resident bytes exceed the budget, or disk hits exceed total cache hits",
    ),
    info(
        "FUZZ001",
        "error",
        "invalid JSON, wrong `schema`, or missing/mistyped field",
    ),
    info(
        "FUZZ002",
        "error",
        "tally conservation broken, or two reports of the same budget differ",
    ),
    info(
        "FUZZ003",
        "error/warn",
        "corpus files skipped or failing replay; or no corpus section at all",
    ),
    info("ANLZ001", "warn", "dead op: no store or sink depends on it"),
    info(
        "ANLZ002",
        "info",
        "constant subgraph: op provably computes one value",
    ),
    info(
        "ANLZ003",
        "info",
        "witness recurrence cycle attaining the exact RecMII",
    ),
    info(
        "ANLZ004",
        "info",
        "optimization sharpened the static II floor",
    ),
    info(
        "ANLZ005",
        "error",
        "malformed panorama-analyze-v1 report",
    ),
];

/// Looks up a code's registry entry.
pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
    ALL.iter().find(|c| c.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn codes_are_unique_with_docs_entries() {
        let mut seen = BTreeSet::new();
        for c in ALL {
            assert!(
                seen.insert(c.code),
                "duplicate registry entry for {}",
                c.code
            );
            assert!(!c.summary.is_empty(), "{} lacks a docs summary", c.code);
            assert!(
                ["error", "warn", "info"]
                    .iter()
                    .any(|s| c.severity.split('/').any(|part| part == *s)),
                "{} has unknown severity `{}`",
                c.code,
                c.severity
            );
        }
    }

    #[test]
    fn ordering_is_stable() {
        // Grouped by prefix in PREFIXES order, numerically ascending
        // within each group — so diffs to the table are append-only and
        // reviewable.
        let key = |c: &CodeInfo| {
            let prefix_len = c.code.len() - 3;
            let (prefix, num) = c.code.split_at(prefix_len);
            let group = PREFIXES
                .iter()
                .position(|p| *p == prefix)
                .unwrap_or_else(|| panic!("{} has unregistered prefix {prefix}", c.code));
            (group, num.parse::<u32>().expect("3-digit numeric suffix"))
        };
        for w in ALL.windows(2) {
            assert!(
                key(&w[0]) < key(&w[1]),
                "{} must sort before {}",
                w[0].code,
                w[1].code
            );
        }
    }

    /// Every code literal emitted by this crate's passes has a registry
    /// entry, and every registered code (minus the ANLZ findings that
    /// `panorama-analyze` emits) appears in some pass source. This is the
    /// golden gate: a new diagnostic cannot ship without a docs entry.
    #[test]
    fn registry_matches_the_pass_sources() {
        let sources = [
            include_str!("dfg_lints.rs"),
            include_str!("arch_lints.rs"),
            include_str!("partition_lints.rs"),
            include_str!("precheck.rs"),
            include_str!("sat_lints.rs"),
            include_str!("exec_lints.rs"),
            include_str!("trace_lints.rs"),
            include_str!("serve_lints.rs"),
            include_str!("fuzz_lints.rs"),
            include_str!("analyze_lints.rs"),
        ];
        let mut emitted = BTreeSet::new();
        for src in sources {
            for (i, _) in src.match_indices('"') {
                let rest = &src[i + 1..];
                if let Some(end) = rest.find('"') {
                    let lit = &rest[..end];
                    if lit.len() >= 6
                        && PREFIXES.iter().any(|p| lit.starts_with(p))
                        && lit[lit.len() - 3..].chars().all(|c| c.is_ascii_digit())
                    {
                        emitted.insert(lit.to_string());
                    }
                }
            }
        }
        // the shape codes of the report linters live in the schema table
        let shape_codes = panorama_trace::schema::ALL.iter().flat_map(|s| s.codes);
        emitted.extend(shape_codes.filter(|c| !c.is_empty()).map(String::from));
        for code in &emitted {
            assert!(
                lookup(code).is_some(),
                "pass source emits {code} but the registry has no docs entry for it"
            );
        }
        // ANLZ001–ANLZ004 are emitted by panorama-analyze, which the
        // analyze crate's own tests pin against this registry.
        let external: BTreeSet<&str> = ["ANLZ001", "ANLZ002", "ANLZ003", "ANLZ004"]
            .into_iter()
            .collect();
        for c in ALL {
            assert!(
                emitted.contains(c.code) || external.contains(c.code),
                "registry lists {} but no pass source emits it",
                c.code
            );
        }
    }
}
