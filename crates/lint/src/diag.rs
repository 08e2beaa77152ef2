//! The diagnostic data model and its human/JSON renderers.

use panorama_trace::json::Writer;
use panorama_trace::schema;
use std::fmt;

/// How bad a finding is.
///
/// Ordered: `Info < Warn < Error`, so `diags.iter().map(|d| d.severity).max()`
/// yields the worst finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Neutral information (e.g. a computed static bound).
    Info,
    /// Suspicious but not provably wrong.
    Warn,
    /// Provably wrong or provably infeasible; tools should refuse to
    /// proceed.
    Error,
}

impl Severity {
    /// Lowercase label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a diagnostic is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entity {
    /// The artifact as a whole (kernel, architecture, report…).
    Global,
    /// A DFG operation, by dense index and diagnostic name.
    Op {
        /// Dense op index.
        index: usize,
        /// The op's diagnostic name.
        name: String,
    },
    /// A DFG dependency edge, by endpoint op indices.
    Edge {
        /// Producer op index.
        src: usize,
        /// Consumer op index.
        dst: usize,
    },
    /// A CGRA or CDG cluster, by dense index.
    Cluster(usize),
    /// A trace event, by position in the trace's event array.
    Event(usize),
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Entity::Global => f.write_str("(global)"),
            Entity::Op { index, name } => write!(f, "op {index} `{name}`"),
            Entity::Edge { src, dst } => write!(f, "edge {src}->{dst}"),
            Entity::Cluster(c) => write!(f, "cluster {c}"),
            Entity::Event(i) => write!(f, "event {i}"),
        }
    }
}

/// One finding of a lint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`DFG001`, `ARCH003`, `MAP002`, …).
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// What the finding is about.
    pub entity: Entity,
    /// Human-readable description of the problem.
    pub message: String,
    /// Optional suggestion for fixing it.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic about `entity`.
    pub fn new(
        code: &'static str,
        severity: Severity,
        entity: Entity,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            entity,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a fix suggestion (builder style).
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.entity, self.message
        )?;
        if let Some(help) = &self.help {
            write!(f, "\n  help: {help}")?;
        }
        Ok(())
    }
}

/// An ordered collection of [`Diagnostic`]s with rendering helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.items.push(diagnostic);
    }

    /// Appends all findings of `other`.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// All findings, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no findings.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of [`Severity::Error`] findings.
    pub fn num_errors(&self) -> usize {
        self.iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.num_errors() > 0
    }

    /// The error findings, in emission order.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Consumes the collection into its findings.
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.items
    }

    /// Renders all findings for a terminal, one (or two, with help) lines
    /// each, followed by a summary line.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.items {
            let _ = writeln!(out, "{d}");
        }
        let warns = self.iter().filter(|d| d.severity == Severity::Warn).count();
        let _ = writeln!(
            out,
            "{} finding(s): {} error(s), {} warning(s)",
            self.len(),
            self.num_errors(),
            warns
        );
        out
    }

    /// Renders all findings as a JSON array of objects with the fields
    /// `code`, `severity`, `entity`, `message` and `help` (`null` when
    /// absent).
    pub fn render_json(&self) -> String {
        let mut w = Writer::new(&schema::DIAGNOSTICS);
        for d in &self.items {
            w.open();
            w.key("code").str(d.code);
            w.key("severity").str(d.severity.label());
            w.key("entity").str(&d.entity.to_string());
            w.key("message").str(&d.message);
            match &d.help {
                Some(help) => w.key("help").str(help),
                None => w.key("help").null(),
            }
            w.close();
        }
        w.finish()
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostics {
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

    #[test]
    fn severity_is_ordered() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn counting_and_errors() {
        let d = sample();
        assert_eq!(d.len(), 2);
        assert_eq!(d.num_errors(), 1);
        assert!(d.has_errors());
        assert_eq!(d.errors().next().unwrap().code, "MAP003");
    }

    #[test]
    fn human_rendering_mentions_code_and_help() {
        let text = sample().render_human();
        assert!(text.contains("warn[DFG001] op 3 `m\"0`: dangling op"));
        assert!(text.contains("error[MAP003]"));
        assert!(text.contains("help: raise --max-ii to 4"));
        assert!(text.contains("2 finding(s): 1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_rendering_escapes_and_nulls() {
        let json = sample().render_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"code\": \"DFG001\""));
        assert!(json.contains("m\\\"0"), "quote in name must be escaped");
        assert!(json.contains("\"help\": null"));
        assert!(json.contains("\"help\": \"raise --max-ii to 4\""));
    }

    #[test]
    fn empty_json_is_an_empty_array() {
        assert_eq!(Diagnostics::new().render_json(), "[]");
    }
}
