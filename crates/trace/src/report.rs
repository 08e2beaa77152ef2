//! Renderers for a finished trace: the human profile table and the stable
//! `panorama-trace-v1` JSON export.

use crate::json::Writer;
use crate::{schema, TraceEvent, NO_CANDIDATE};
use std::fmt::Write as _;

/// A complete trace of one compile: run metadata plus the
/// deterministically merged event stream.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Kernel the trace describes.
    pub kernel: String,
    /// Architecture preset compiled for.
    pub arch: String,
    /// Lower-level mapper name.
    pub mapper: String,
    /// Configured worker thread count (0 = auto).
    pub threads: usize,
    /// End-to-end wall-clock of the traced run, nanoseconds.
    pub wall_ns: u64,
    /// Merged events, ordered by `(candidate, seq)`.
    pub events: Vec<TraceEvent>,
}

impl TraceReport {
    /// Serializes the report as `panorama-trace-v1` JSON. The schema is
    /// [`schema::TRACE`] and validated by `panorama-lint`'s `TRACE*`
    /// checks.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(&schema::TRACE);
        w.key("kernel").str(&self.kernel);
        w.key("arch").str(&self.arch);
        w.key("mapper").str(&self.mapper);
        w.key("threads").uint(self.threads);
        w.key("wall_ns").uint(self.wall_ns);
        w.key("events").open();
        for event in &self.events {
            w.open();
            w.key("phase").str(event.phase);
            if event.candidate == NO_CANDIDATE {
                w.key("candidate").null();
            } else {
                w.key("candidate").uint(event.candidate);
            }
            w.key("seq").uint(event.seq);
            w.key("start_ns").uint(event.start_ns);
            w.key("end_ns").uint(event.end_ns);
            w.key("stable").bool(event.stable);
            w.key("counters").open();
            for &(name, value) in &event.counters {
                w.key(name).int(value);
            }
            w.close();
            w.close();
        }
        w.close();
        w.finish()
    }

    /// Renders the per-phase profile table: event count, total time and
    /// share of end-to-end wall-clock per phase, plus a coverage line for
    /// the top-level phases (those without a `.` in the name, which
    /// partition the pipeline's wall-clock).
    pub fn render_profile(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace profile: {} on {} ({}, threads {})",
            self.kernel, self.arch, self.mapper, self.threads
        );
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12} {:>7}",
            "phase", "count", "total ms", "share"
        );
        let mut rows = phase_totals(&self.events);
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        for (phase, count, total_ns) in rows {
            let share = if self.wall_ns > 0 {
                100.0 * total_ns as f64 / self.wall_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>12.3} {:>6.1}%",
                phase,
                count,
                total_ns as f64 / 1e6,
                share
            );
        }
        let covered = self.top_level_ns();
        let coverage = if self.wall_ns > 0 {
            100.0 * covered as f64 / self.wall_ns as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "top-level phases cover {:.3} ms of {:.3} ms wall-clock ({coverage:.1}%)",
            covered as f64 / 1e6,
            self.wall_ns as f64 / 1e6,
        );
        out
    }

    /// Total nanoseconds spanned by top-level phases (no `.` in the name).
    /// Top-level phases run sequentially on the pipeline thread, so this is
    /// directly comparable to `wall_ns`.
    pub fn top_level_ns(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| !e.phase.contains('.'))
            .map(|e| e.end_ns.saturating_sub(e.start_ns))
            .sum()
    }

    /// The thread-count-invariant digest of this trace: every stable event
    /// with wall-clock stripped, one per line. Two runs of the same compile
    /// at different thread counts produce identical signatures.
    pub fn deterministic_signature(&self) -> String {
        let mut out = String::new();
        for event in self.events.iter().filter(|e| e.stable) {
            let _ = write!(out, "{} c{} s{}", event.phase, event.candidate, event.seq);
            for (name, value) in &event.counters {
                let _ = write!(out, " {name}={value}");
            }
            out.push('\n');
        }
        out
    }
}

/// Aggregates events per phase: `(phase, event count, total nanoseconds)`,
/// sorted by phase name. Shared by the profile table and the daemon's
/// `/metrics` phase rows.
pub fn phase_totals(events: &[TraceEvent]) -> Vec<(&'static str, u64, u64)> {
    let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
    for event in events {
        let width = event.end_ns.saturating_sub(event.start_ns);
        match rows.iter_mut().find(|(phase, _, _)| *phase == event.phase) {
            Some(row) => {
                row.1 += 1;
                row.2 += width;
            }
            None => rows.push((event.phase, 1, width)),
        }
    }
    rows.sort_by_key(|(phase, _, _)| *phase);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn sample() -> TraceReport {
        TraceReport {
            kernel: "fir".into(),
            arch: "8x8".into(),
            mapper: "Pan-SPR*".into(),
            threads: 4,
            wall_ns: 1_000_000,
            events: vec![
                TraceEvent {
                    phase: "partition",
                    candidate: NO_CANDIDATE,
                    seq: 0,
                    start_ns: 0,
                    end_ns: 400_000,
                    counters: vec![("k", 3)],
                    stable: true,
                },
                TraceEvent {
                    phase: "map",
                    candidate: NO_CANDIDATE,
                    seq: 1,
                    start_ns: 400_000,
                    end_ns: 950_000,
                    counters: vec![],
                    stable: true,
                },
                TraceEvent {
                    phase: "spr.route",
                    candidate: 0,
                    seq: 0,
                    start_ns: 500_000,
                    end_ns: 900_000,
                    counters: vec![("ii", 3), ("overuse", 2)],
                    stable: false,
                },
            ],
        }
    }

    #[test]
    fn json_export_is_schema_valid_and_faithful() {
        let report = sample();
        let v = json::parse(&report.to_json()).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("panorama-trace-v1")
        );
        assert_eq!(v.get("kernel").and_then(Json::as_str), Some("fir"));
        assert_eq!(v.get("wall_ns").and_then(Json::as_f64), Some(1_000_000.0));
        let events = v.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("candidate"), Some(&Json::Null));
        assert_eq!(events[2].get("candidate").and_then(Json::as_f64), Some(0.0));
        assert_eq!(events[2].get("stable").and_then(Json::as_bool), Some(false));
        let counters = events[2].get("counters").and_then(Json::as_obj).unwrap();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0], ("ii".into(), Json::Int(3)));
    }

    #[test]
    fn profile_table_reports_coverage() {
        let report = sample();
        assert_eq!(report.top_level_ns(), 950_000);
        let table = report.render_profile();
        assert!(table.contains("partition"));
        assert!(table.contains("spr.route"));
        assert!(table.contains("95.0%"), "{table}");
    }

    #[test]
    fn signature_keeps_stable_events_only_and_no_timestamps() {
        let sig = sample().deterministic_signature();
        assert!(sig.contains("partition"));
        assert!(sig.contains("k=3"));
        assert!(!sig.contains("spr.route"), "{sig}");
        assert!(!sig.contains("400000"), "{sig}");
    }

    #[test]
    fn phase_totals_aggregates() {
        let report = sample();
        let rows = phase_totals(&report.events);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], ("map", 1, 550_000));
        assert_eq!(rows[2], ("spr.route", 1, 400_000));
    }
}
