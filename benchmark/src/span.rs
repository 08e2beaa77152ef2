//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around every call into a layer; spans nest
//! through an explicit stack, carry the index of the input they belong
//! to, and are written out once, when the run ends. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.embed`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the input (kernel or request) the span belongs to.
    pub input: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Single-threaded span store. The serve workload's client threads time
/// their requests themselves and hand the intervals to
/// [`record`](Recorder::record) afterwards.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, input: usize) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            input,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, input: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, input);
        let out = f();
        self.exit(id);
        (out, self.spans[id.0].duration_ns() as f64 / 1e9)
    }

    /// Appends an already-measured top-level span (a request timed on a
    /// client thread, on this recorder's clock).
    pub fn record(&mut self, name: &'static str, input: usize, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            input,
        });
    }

    /// Adds spans the program itself recorded (its `panorama-trace`
    /// events), given as `(name, start, end)` on this recorder's clock.
    /// Parents are inferred by containment below `parent`, which is how
    /// the program nests them (`spr.ii` around `spr.place`/`spr.route`).
    pub fn adopt(
        &mut self,
        parent: SpanId,
        input: usize,
        mut events: Vec<(&'static str, u64, u64)>,
    ) {
        // Outer spans first: earlier start, then later end.
        events.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
        let mut open: Vec<usize> = vec![parent.0];
        for (name, start_ns, end_ns) in events {
            while open.len() > 1 && self.spans[*open.last().expect("non-empty")].end_ns < end_ns {
                open.pop();
            }
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: open.last().copied(),
                input,
            });
            open.push(self.spans.len() - 1);
        }
    }

    /// Every recorded span, in creation order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of one span, seconds.
    pub fn duration_s(&self, id: SpanId) -> f64 {
        self.spans[id.0].duration_ns() as f64 / 1e9
    }

    /// Self time of every span, nanoseconds, in creation order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Share of `root`'s duration not covered by its direct children: the
    /// harness glue no layer accounts for.
    pub fn unattributed_share(&self, root: SpanId) -> f64 {
        let dur = self.spans[root.0].duration_ns();
        if dur == 0 {
            return 0.0;
        }
        self.self_times_ns()[root.0] as f64 / dur as f64
    }

    /// The `benchmark/out/trace-<workload>.json` document.
    pub fn to_json(&self, workload: &str, inputs: &[String]) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"schema\":\"panorama-benchmark-trace-v1\",\"workload\":\"{workload}\",\"inputs\":["
        );
        for (i, name) in inputs.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\"", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"input\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                s.input,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time per span: duration minus the union of the direct children's
/// intervals, clipped to the parent (siblings that overlap are counted
/// once, a child that outlives its parent only for the shared part).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            input: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root: 100 - (30 + 40); a: 30 - 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_siblings_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("late", 90, 130, Some(0)),
        ];
        // Union of [10,60) ∪ [40,80) ∪ [90,100) = 80.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_through_the_stack() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.enter("root", 3);
        let ((), _) = rec.time("child", 3, || ());
        rec.exit(root);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].parent, None);
        assert_eq!(rec.spans()[1].input, 3);
        assert!(rec.unattributed_share(root) <= 1.0);
    }

    #[test]
    fn adopted_events_nest_by_containment() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.enter("map", 0);
        rec.exit(root);
        rec.spans[0].end_ns = 1000;
        rec.adopt(
            root,
            0,
            vec![
                ("spr.place", 110, 150),
                ("spr.ii", 100, 400),
                ("spr.route", 160, 390),
                ("spr.ii", 500, 900),
            ],
        );
        let parents: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("map", None),
                ("spr.ii", Some(0)),
                ("spr.place", Some(1)),
                ("spr.route", Some(1)),
                ("spr.ii", Some(0)),
            ]
        );
    }
}
