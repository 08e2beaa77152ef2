//! The search frame every backend sits on: which PEs may host an op
//! ([`OpDomains`]) and which II is attempted next ([`IiSearch`]). A
//! backend supplies one attempt at one II; everything the four II loops
//! used to repeat — floor, cap, cancellation, portfolio admission,
//! attempt counting, the error payload — lives here once.

use crate::{ii_floor, MapError, Mapping, MappingStats, Restriction, Route, SearchControl};
use panorama_arch::{Cgra, ClusterId, PeId};
use panorama_dfg::{Dfg, OpId, OpKind};
use panorama_trace::SpanCollector;
use std::time::Instant;

/// For every op, the PEs that may host it: memory ops on memory PEs,
/// multiplies on multiplier PEs, and — under a [`Restriction`] — only PEs of
/// the op's allowed clusters (paper Algorithm 2, line 6). No restriction
/// means every cluster, so nothing below this table asks whether one was
/// given. [`Mapping::verify`] deliberately spells the same three clauses
/// out again: the checker must not share the predicate it checks.
#[derive(Debug)]
pub(crate) struct OpDomains<'a> {
    /// Ascending PE order per op.
    domains: Vec<Vec<PeId>>,
    restriction: Option<&'a Restriction>,
}

impl<'a> OpDomains<'a> {
    pub fn new(dfg: &Dfg, cgra: &Cgra, restriction: Option<&'a Restriction>) -> Self {
        let domains = dfg
            .op_ids()
            .map(|op| {
                let kind = dfg.op(op).kind;
                cgra.pes()
                    .filter(|&pe| !kind.needs_memory() || cgra.is_mem_pe(pe))
                    .filter(|&pe| kind != OpKind::Mul || cgra.has_multiplier(pe))
                    .filter(|&pe| restriction.is_none_or(|r| r.allows(op, cgra.cluster_of(pe))))
                    .collect()
            })
            .collect();
        OpDomains {
            domains,
            restriction,
        }
    }

    /// The PEs that may host `op`, ascending.
    pub fn of(&self, op: OpId) -> &[PeId] {
        &self.domains[op.index()]
    }

    /// Whether some op has no PE at all: unmappable at any II.
    pub fn any_empty(&self) -> bool {
        self.domains.iter().any(Vec::is_empty)
    }

    /// The op's strictly assigned clusters (see [`Restriction::home_of`]);
    /// empty when unrestricted.
    pub fn home_of(&self, op: OpId) -> &[ClusterId] {
        self.restriction.map_or(&[], |r| r.home_of(op))
    }
}

/// What is fixed about a backend's search: its name in reports, the three
/// loop-head trace events the search emits on its behalf, and how far past
/// the MII it keeps trying.
#[derive(Debug)]
pub(crate) struct Backend {
    /// [`LowerLevelMapper::name`](crate::LowerLevelMapper::name).
    pub name: &'static str,
    /// Unstable event: a fired [`CancelToken`](crate::CancelToken) stopped
    /// the search at `ii`.
    pub abort: &'static str,
    /// Unstable event: the portfolio bound (or the request's II cap riding
    /// on it) refused `ii`; II searches ascend, so it refuses the rest.
    pub cancelled: &'static str,
    /// Stable event: every II up to `max_ii` was attempted and failed.
    pub exhausted: &'static str,
    /// `(factor, offset)`: the last II tried is `mii * factor + offset`.
    pub max_ii: (usize, usize),
}

impl Backend {
    /// The last II the backend tries for a graph whose MII is `mii`.
    pub fn last_ii(&self, mii: usize) -> usize {
        mii * self.max_ii.0 + self.max_ii.1
    }
}

/// One backend's verdict on one II.
pub(crate) enum Attempt {
    /// A mapping from [`IiSearch::mapping`]; the search stamps its stats.
    Mapped(Mapping),
    /// No mapping at this II; try the next.
    Failed,
    /// The backend is out of its own budget (SPR\*'s wall clock): end the
    /// search here.
    Stop,
    /// The backend saw the cancel token fire mid-attempt.
    Cancelled,
}

/// The one II ascent: from [`ii_floor`] to the backend's cap, stopping early
/// on cancellation or once the [`SearchControl`] no longer admits the II.
///
/// Errors follow one convention: `cancelled(ii)` names the II that was
/// about to be (or was being) attempted, `exhausted(ii)` the last II that
/// was attempted.
#[derive(Debug)]
pub(crate) struct IiSearch<'a> {
    backend: &'static Backend,
    mii: usize,
    /// The first II attempted: [`IiFloor::ii`](crate::IiFloor::ii).
    floor: usize,
    /// The last II the backend itself would try.
    cap: usize,
    pub control: Option<&'a SearchControl>,
    pub started: Instant,
}

impl<'a> IiSearch<'a> {
    /// Computes the bounds, once per `map_traced`.
    pub fn new(
        backend: &'static Backend,
        dfg: &Dfg,
        cgra: &Cgra,
        restriction: Option<&Restriction>,
        control: Option<&'a SearchControl>,
    ) -> Self {
        let started = Instant::now();
        let floor = ii_floor(dfg, cgra, restriction);
        let mii = floor.mii.mii();
        IiSearch {
            backend,
            mii,
            floor: floor.ii(),
            cap: backend.last_ii(mii),
            control,
            started,
        }
    }

    /// A mapping at `ii` in this backend's name, for [`Attempt::Mapped`].
    pub fn mapping(
        &self,
        ii: usize,
        time_of: Vec<usize>,
        pe_of: Vec<PeId>,
        routes: Option<Vec<Route>>,
    ) -> Mapping {
        Mapping::from_parts(self.backend.name, ii, self.mii, time_of, pe_of, routes)
    }

    /// Attempts the floor, the floor + 1, … up to the cap. Before each
    /// attempt the cancel token is polled, then the control's admission;
    /// `attempt` owns everything between (its own spans included).
    pub fn run(
        &self,
        trace: &mut SpanCollector,
        mut attempt: impl FnMut(usize, &mut MappingStats, &mut SpanCollector) -> Attempt,
    ) -> Result<Mapping, MapError> {
        let backend = self.backend;
        let mut stats = MappingStats::default();
        for ii in self.floor..=self.cap {
            // Cancellation first: it must stop even a search the bound still
            // admits. Both events are timing-dependent, hence unstable.
            if self.control.is_some_and(SearchControl::is_cancelled) {
                trace.event_unstable(backend.abort, &[("ii", ii as i64)]);
                return Err(MapError::cancelled(ii, backend.name));
            }
            if self.control.is_some_and(|c| !c.admits(ii)) {
                trace.event_unstable(backend.cancelled, &[("ii", ii as i64)]);
                return Err(MapError::exhausted(ii.saturating_sub(1), backend.name));
            }
            stats.ii_attempts += 1;
            match attempt(ii, &mut stats, trace) {
                Attempt::Mapped(mut mapping) => {
                    if let Some(c) = self.control {
                        c.record_success(ii);
                    }
                    stats.compile_time = self.started.elapsed();
                    mapping.stats = stats;
                    return Ok(mapping);
                }
                Attempt::Failed => {}
                Attempt::Stop => return Err(MapError::exhausted(ii, backend.name)),
                Attempt::Cancelled => {
                    trace.event_unstable(backend.abort, &[("ii", ii as i64)]);
                    return Err(MapError::cancelled(ii, backend.name));
                }
            }
        }
        trace.event(backend.exhausted, &[("max_ii", self.cap as i64)]);
        Err(MapError::exhausted(self.cap, backend.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{min_ii, restricted_min_ii, CancelToken, PortfolioBound};
    use panorama_arch::CgraConfig;
    use panorama_cluster::{Cdg, Partition};
    use panorama_dfg::{random_dfg, DfgBuilder, RandomDfgConfig};
    use panorama_place::{map_clusters, ScatterConfig};
    use panorama_trace::{RecordingSink, TraceEvent, Tracer};
    use proptest::prelude::*;
    use std::sync::Arc;

    static SCRIPTED: Backend = Backend {
        name: "scripted",
        abort: "t.abort",
        cancelled: "t.cancelled",
        exhausted: "t.exhausted",
        max_ii: (0, 40),
    };

    /// 33 ops confined to one 8×8 cluster group: whole-array MII 1, but the
    /// restriction's capacity bound is higher.
    fn skewed() -> (Dfg, Cgra, Restriction) {
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let mut b = DfgBuilder::new("skew");
        let hub = b.op(OpKind::Add, "hub");
        let mut labels = vec![0];
        for i in 1..33 {
            let v = b.op(OpKind::Add, format!("big{i}"));
            b.data(hub, v);
            labels.push(0);
        }
        for g in 1..4 {
            let v = b.op(OpKind::Add, format!("small{g}"));
            b.data(hub, v);
            labels.push(g);
        }
        let dfg = b.build().unwrap();
        let cdg = Cdg::new(&dfg, &Partition::new(labels, 4));
        let map = map_clusters(&cdg, 2, 2, &ScatterConfig::default()).unwrap();
        let r = Restriction::from_cluster_map(&dfg, &cdg, &map, &cgra);
        (dfg, cgra, r)
    }

    /// Runs a search whose attempt answers `script(ii)` and returns the
    /// result, the IIs the closure saw and the events recorded.
    fn scripted(
        control: Option<&SearchControl>,
        cap: usize,
        mut script: impl FnMut(usize) -> Attempt,
    ) -> (Result<Mapping, MapError>, Vec<usize>, Vec<TraceEvent>) {
        let (dfg, cgra, r) = skewed();
        let mut search = IiSearch::new(&SCRIPTED, &dfg, &cgra, Some(&r), control);
        search.cap = cap;
        let mut col = Tracer::new(RecordingSink::shared()).collector(0);
        let mut seen = Vec::new();
        let result = search.run(&mut col, |ii, _, _| {
            seen.push(ii);
            script(ii)
        });
        (result, seen, col.into_events())
    }

    fn floor() -> usize {
        let (dfg, cgra, r) = skewed();
        let floor = restricted_min_ii(&dfg, &cgra, &r);
        assert!(floor > min_ii(&dfg, &cgra).mii(), "fixture must tighten");
        floor
    }

    fn mapped(search_ii: usize) -> Attempt {
        Attempt::Mapped(Mapping::from_parts(
            "scripted",
            search_ii,
            1,
            vec![],
            vec![],
            None,
        ))
    }

    #[test]
    fn starts_at_the_restricted_floor_and_exhausts_at_the_cap() {
        let floor = floor();
        let (result, seen, events) = scripted(None, floor + 2, |_| Attempt::Failed);
        assert_eq!(seen, vec![floor, floor + 1, floor + 2]);
        assert_eq!(
            result.unwrap_err(),
            MapError::exhausted(floor + 2, "scripted")
        );
        let [event] = events.as_slice() else {
            panic!("one event expected: {events:?}");
        };
        assert_eq!(event.phase, "t.exhausted");
        assert_eq!(event.counters, vec![("max_ii", (floor + 2) as i64)]);
        assert!(event.stable);
    }

    #[test]
    fn a_floor_above_the_cap_attempts_nothing() {
        let floor = floor();
        let (result, seen, _) = scripted(None, floor - 1, |_| Attempt::Failed);
        assert!(seen.is_empty());
        assert_eq!(
            result.unwrap_err(),
            MapError::exhausted(floor - 1, "scripted")
        );
    }

    #[test]
    fn a_token_fired_before_attempt_k_cancels_at_k() {
        let floor = floor();
        let token = CancelToken::new();
        let control = SearchControl::unbounded().with_cancel(token.clone());
        let k = floor + 2;
        let (result, seen, events) = scripted(Some(&control), floor + 9, |ii| {
            if ii + 1 == k {
                token.cancel();
            }
            Attempt::Failed
        });
        assert_eq!(seen.len(), k - floor);
        assert_eq!(result.unwrap_err(), MapError::cancelled(k, "scripted"));
        assert_eq!(events.last().unwrap().phase, "t.abort");
        assert!(!events.last().unwrap().stable);
    }

    #[test]
    fn a_cancelled_attempt_names_its_own_ii() {
        let floor = floor();
        let (result, seen, events) = scripted(None, floor + 9, |_| Attempt::Cancelled);
        assert_eq!(seen, vec![floor]);
        assert_eq!(result.unwrap_err(), MapError::cancelled(floor, "scripted"));
        assert_eq!(events.last().unwrap().phase, "t.abort");
    }

    #[test]
    fn a_bound_tightened_mid_way_reports_the_last_attempted_ii() {
        let floor = floor();
        let bound = PortfolioBound::new();
        let sibling = SearchControl::new(Arc::clone(&bound), 0, 0);
        let control = SearchControl::new(bound, 1, 1);
        let (result, seen, events) = scripted(Some(&control), floor + 9, |ii| {
            if ii == floor + 1 {
                sibling.record_success(floor + 2);
            }
            Attempt::Failed
        });
        // II floor+2 would tie on II and lose on complexity: not admitted
        assert_eq!(seen, vec![floor, floor + 1]);
        assert_eq!(
            result.unwrap_err(),
            MapError::exhausted(floor + 1, "scripted")
        );
        assert_eq!(events.last().unwrap().phase, "t.cancelled");
        assert_eq!(
            events.last().unwrap().counters,
            vec![("ii", (floor + 2) as i64)]
        );
    }

    #[test]
    fn a_request_cap_rides_on_the_bound() {
        let floor = floor();
        let control = SearchControl::new(PortfolioBound::capped(Some(floor + 1)), 7, 7);
        let (result, seen, _) = scripted(Some(&control), floor + 9, |_| Attempt::Failed);
        assert_eq!(seen, vec![floor, floor + 1]);
        assert_eq!(
            result.unwrap_err(),
            MapError::exhausted(floor + 1, "scripted")
        );
    }

    #[test]
    fn stop_ends_the_search_at_the_attempted_ii() {
        let floor = floor();
        let (result, seen, events) = scripted(None, floor + 9, |ii| {
            if ii == floor + 1 {
                Attempt::Stop
            } else {
                Attempt::Failed
            }
        });
        assert_eq!(seen, vec![floor, floor + 1]);
        assert_eq!(
            result.unwrap_err(),
            MapError::exhausted(floor + 1, "scripted")
        );
        assert!(events.is_empty(), "a backend's own budget is its own event");
    }

    #[test]
    fn success_counts_attempts_and_tells_the_siblings() {
        let floor = floor();
        let bound = PortfolioBound::new();
        let sibling = SearchControl::new(Arc::clone(&bound), 9, 9);
        let control = SearchControl::new(bound, 0, 0);
        let (result, seen, events) = scripted(Some(&control), floor + 9, |ii| {
            if ii == floor + 2 {
                mapped(ii)
            } else {
                Attempt::Failed
            }
        });
        let mapping = result.unwrap();
        assert_eq!(mapping.ii(), floor + 2);
        assert_eq!(mapping.stats().ii_attempts, seen.len());
        assert_eq!(seen.len(), 3);
        assert!(events.is_empty());
        assert!(!sibling.admits(floor + 2), "success must reach the bound");
        assert!(sibling.admits(floor + 1));
    }

    #[test]
    fn every_backend_starts_at_the_restricted_floor() {
        use crate::{LowerLevelMapper, SatMapper, SprMapper, UltraFastMapper};
        // 17 adds confined to one 16-PE cluster: whole-array MII 1, floor 2
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let mut b = DfgBuilder::new("crowd");
        let hub = b.op(OpKind::Add, "hub");
        for i in 1..17 {
            let v = b.op(OpKind::Add, format!("n{i}"));
            b.data(hub, v);
        }
        let dfg = b.build().unwrap();
        let r = Restriction::from_allowed(vec![vec![cgra.cluster_at(0, 0)]; 17]);
        assert_eq!(min_ii(&dfg, &cgra).mii(), 1);
        assert_eq!(restricted_min_ii(&dfg, &cgra, &r), 2);
        let sat = SatMapper::default();
        let backends: [&dyn LowerLevelMapper; 3] =
            [&SprMapper::default(), &UltraFastMapper::default(), &sat];
        for mapper in backends {
            let m = mapper.map(&dfg, &cgra, Some(&r)).unwrap();
            assert_eq!(
                m.stats().ii_attempts,
                m.ii() - 1,
                "{}: II 1 is below the floor and must not be attempted",
                mapper.name()
            );
        }
        assert_eq!(sat.take_attempts()[0].ii, 2);
    }

    proptest! {
        /// The table equals the spelled-out three-clause predicate, PE for
        /// PE, on random heterogeneous arrays, graphs and cluster subsets.
        #[test]
        fn domains_match_the_spelled_out_predicate(
            mul_every_n_columns in 1usize..5,
            mem_left_column_only in any::<bool>(),
            cluster_rows in 1usize..3,
            cluster_cols in 1usize..3,
            seed in 0u64..1_000,
            picks in proptest::collection::vec(1u8..16, 1..40),
            restricted in any::<bool>(),
        ) {
            let cgra = Cgra::new(CgraConfig {
                rows: 4 * cluster_rows,
                cols: 4 * cluster_cols,
                cluster_rows,
                cluster_cols,
                mul_every_n_columns,
                mem_left_column_only,
                ..CgraConfig::small_4x4()
            })
            .unwrap();
            let dfg = random_dfg(&RandomDfgConfig {
                seed,
                layers: 3,
                width: 4,
                extra_fanin: 1,
                back_edges: 1,
            });
            // a random non-empty-or-empty cluster subset per op, from the
            // low bits of `picks` (cycled)
            let clusters: Vec<ClusterId> = (0..cluster_rows)
                .flat_map(|r| (0..cluster_cols).map(move |c| (r, c)))
                .map(|(r, c)| cgra.cluster_at(r, c))
                .collect();
            let allowed: Vec<Vec<ClusterId>> = dfg
                .op_ids()
                .map(|op| {
                    let bits = picks[op.index() % picks.len()];
                    clusters
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| bits >> i & 1 == 1)
                        .map(|(_, &cl)| cl)
                        .collect()
                })
                .collect();
            let restriction = restricted.then(|| Restriction::from_allowed(allowed.clone()));
            let domains = OpDomains::new(&dfg, &cgra, restriction.as_ref());
            let mut any_empty = false;
            for op in dfg.op_ids() {
                let kind = dfg.op(op).kind;
                let mut count = 0;
                for pe in cgra.pes() {
                    let expect = (!kind.needs_memory() || cgra.is_mem_pe(pe))
                        && (kind != OpKind::Mul || cgra.has_multiplier(pe))
                        && (!restricted || allowed[op.index()].contains(&cgra.cluster_of(pe)));
                    prop_assert_eq!(domains.of(op).contains(&pe), expect);
                    count += usize::from(expect);
                }
                prop_assert_eq!(domains.of(op).len(), count);
                prop_assert!(domains.of(op).windows(2).all(|w| w[0] < w[1]));
                any_empty |= count == 0;
                let home = restriction.as_ref().map_or(&[][..], |r| r.home_of(op));
                prop_assert_eq!(domains.home_of(op), home);
            }
            prop_assert_eq!(domains.any_empty(), any_empty);
        }
    }
}
