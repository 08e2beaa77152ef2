//! SPR\* — the schedule / place / route mapper (paper §3.3, Algorithm 2),
//! re-implementing SPR (Friedman et al., FPGA'09) on the MRRG.

use crate::placement::{candidates_for, home_bias, placement_cost, placement_pass, PlacementState};
use crate::router::{route_all, RouterConfig, RouterScratch};
use crate::search::{Attempt, Backend, IiSearch, OpDomains};
use crate::{LowerLevelMapper, Mapping, Restriction, SearchControl};
use panorama_arch::{Cgra, PeId};
use panorama_dfg::{Dfg, OpId};
use panorama_trace::SpanCollector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Error produced when a mapper exhausts its II budget — or is cancelled
/// mid-search by a [`CancelToken`](crate::CancelToken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapError {
    /// Highest II attempted.
    pub max_ii_tried: usize,
    /// The mapper that gave up.
    pub mapper: &'static str,
    /// Whether the search was aborted by cooperative cancellation rather
    /// than exhausting its budget.
    pub cancelled: bool,
}

impl MapError {
    /// The search ran its full II budget without success.
    pub fn exhausted(max_ii_tried: usize, mapper: &'static str) -> Self {
        MapError {
            max_ii_tried,
            mapper,
            cancelled: false,
        }
    }

    /// The search observed a fired cancellation token and stopped early.
    pub fn cancelled(max_ii_tried: usize, mapper: &'static str) -> Self {
        MapError {
            max_ii_tried,
            mapper,
            cancelled: true,
        }
    }
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cancelled {
            write!(
                f,
                "{} was cancelled while attempting II {}",
                self.mapper, self.max_ii_tried
            )
        } else {
            write!(
                f,
                "{} found no valid mapping up to II {}",
                self.mapper, self.max_ii_tried
            )
        }
    }
}

impl Error for MapError {}

static BACKEND: Backend = Backend {
    name: "SPR*",
    abort: "spr.abort",
    cancelled: "spr.cancelled",
    exhausted: "spr.exhausted",
    max_ii: (4, 12),
};

/// Simulated-annealing initial temperature.
const SA_INITIAL_TEMP: f64 = 2.0;
/// Annealing stops below this temperature (Algorithm 2 line 9).
const SA_MIN_TEMP: f64 = 0.02;
/// Multiplicative cooling per routing round (Algorithm 2 line 15).
const SA_ALPHA: f64 = 0.82;
/// Relocation attempts per temperature step.
const SA_MOVES_PER_TEMP: usize = 128;

/// SPR\* tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct SprConfig {
    /// PathFinder settings per routing invocation.
    pub router: RouterConfig,
    /// RNG seed (deterministic mapping).
    pub seed: u64,
    /// Optional wall-clock budget; the II search aborts once exceeded.
    pub time_budget: Option<std::time::Duration>,
}

impl Default for SprConfig {
    fn default() -> Self {
        SprConfig {
            router: RouterConfig {
                max_iterations: 12,
                ..RouterConfig::default()
            },
            seed: 0x5912,
            time_budget: None,
        }
    }
}

/// The SPR\* lower-level mapper. With a [`Restriction`] it becomes
/// Pan-SPR\*.
#[derive(Debug, Clone, Default)]
pub struct SprMapper {
    /// Mapper configuration.
    pub config: SprConfig,
}

impl SprMapper {
    /// Creates a mapper with custom settings.
    pub fn new(config: SprConfig) -> Self {
        SprMapper { config }
    }
}

impl LowerLevelMapper for SprMapper {
    fn map_traced(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        restriction: Option<&Restriction>,
        control: Option<&SearchControl>,
        trace: &mut SpanCollector,
    ) -> Result<Mapping, MapError> {
        let search = IiSearch::new(&BACKEND, dfg, cgra, restriction, control);
        let domains = OpDomains::new(dfg, cgra, restriction);
        let out_of_time = || {
            self.config
                .time_budget
                .is_some_and(|budget| search.started.elapsed() > budget)
        };
        let cancel = control.and_then(SearchControl::cancel_token);
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut scratch = RouterScratch::default();
        let mut anneal_scratch = AnnealScratch::default();
        search.run(trace, |ii, stats, trace| {
            if out_of_time() {
                // Wall-clock cutoffs depend on machine load, so the event
                // is excluded from the deterministic trace signature.
                trace.event_unstable("spr.timeout", &[("ii", ii as i64)]);
                return Attempt::Stop;
            }
            let ii_span = trace.start();
            // joint schedule + least-cost placement (Algorithm 2 lines 4–8)
            let place_span = trace.start();
            let placement = placement_pass(dfg, cgra, ii, &domains);
            match &placement {
                Ok(_) => trace.record("spr.place", place_span, &[("ii", ii as i64)]),
                Err(fail) => trace.record(
                    "spr.place_fail",
                    place_span,
                    &[
                        ("ii", ii as i64),
                        ("op", fail.op.index() as i64),
                        ("reason", fail.reason as i64),
                    ],
                ),
            }
            let Ok(mut state) = placement else {
                trace.record(
                    "spr.ii",
                    ii_span,
                    &[("ii", ii as i64), ("success", 0), ("structural", 0)],
                );
                return Attempt::Failed;
            };
            let mrrg = cgra.mrrg_shared(ii);
            scratch.reset_for_ii();
            let mut temp = SA_INITIAL_TEMP;
            // whether the attempt's last routing round still held a
            // signal placed beyond its slack (why the II failed)
            let mut structural;
            let mut verdict = Attempt::Failed;

            loop {
                let route_span = trace.start();
                let outcome = route_all(
                    &mrrg,
                    cgra,
                    dfg,
                    &state.pe_of,
                    &state.time_of,
                    &self.config.router,
                    &mut scratch,
                    cancel,
                );
                stats.router_iterations += outcome.iterations;
                structural = outcome.unreachable > 0;
                if trace.is_enabled() {
                    // overused-node census, formerly a PANORAMA_DEBUG
                    // stderr dump; only computed when someone listens
                    let overused = outcome
                        .usage
                        .iter()
                        .enumerate()
                        .filter(|&(i, &u)| {
                            let cap = mrrg.capacity(panorama_arch::MrrgNodeId::from_index(i));
                            cap != u16::MAX && u as usize > cap as usize
                        })
                        .count();
                    trace.record(
                        "spr.route",
                        route_span,
                        &[
                            ("ii", ii as i64),
                            ("iterations", outcome.iterations as i64),
                            ("searches", outcome.searches as i64),
                            ("kept", outcome.kept as i64),
                            ("overuse", outcome.overuse as i64),
                            ("failed", outcome.failed as i64),
                            ("unreachable", outcome.unreachable as i64),
                            ("overused_nodes", overused as i64),
                        ],
                    );
                }
                if outcome.is_clean() {
                    let routes = outcome
                        .routes
                        .into_iter()
                        .map(|r| r.expect("clean outcome has every route"))
                        .collect();
                    let mapping = search.mapping(ii, state.time_of, state.pe_of, Some(routes));
                    trace.record("spr.ii", ii_span, &[("ii", ii as i64), ("success", 1)]);
                    return Attempt::Mapped(mapping);
                }
                if temp < SA_MIN_TEMP {
                    break; // give up on this II
                }
                // A fired token makes the router return early with a dirty
                // outcome; abort before spending another annealing round.
                if control.is_some_and(SearchControl::is_cancelled) {
                    return Attempt::Cancelled;
                }
                if out_of_time() {
                    trace.event_unstable("spr.timeout", &[("ii", ii as i64)]);
                    verdict = Attempt::Stop;
                    break;
                }
                // simulated-annealing placement repair targeting the ops on
                // congested PEs (Algorithm 2 line 14)
                let anneal_span = trace.start();
                congested_ops(
                    dfg,
                    &mrrg,
                    cgra,
                    &state,
                    &outcome.usage,
                    &outcome.routes,
                    &mut anneal_scratch,
                );
                let moves = anneal_step(
                    dfg,
                    cgra,
                    &mut state,
                    &domains,
                    &mut anneal_scratch,
                    temp,
                    &mut rng,
                );
                stats.anneal_moves += moves;
                trace.record(
                    "spr.anneal",
                    anneal_span,
                    &[
                        ("ii", ii as i64),
                        ("temp_milli", (temp * 1000.0) as i64),
                        ("moves", moves as i64),
                        ("candidates", anneal_scratch.ops.len() as i64),
                    ],
                );
                temp *= SA_ALPHA;
            }
            trace.record(
                "spr.ii",
                ii_span,
                &[
                    ("ii", ii as i64),
                    ("success", 0),
                    ("structural", i64::from(structural)),
                ],
            );
            verdict
        })
    }

    fn name(&self) -> &'static str {
        BACKEND.name
    }
}

/// Scratch buffers for the annealing candidate/heat computation, sized
/// once from the MRRG and reused across every SA round of an II attempt —
/// the previous `HashMap`/`HashSet` version reallocated all four
/// containers on every temperature step.
#[derive(Debug, Default)]
struct AnnealScratch {
    /// PEs owning at least one overused MRRG node (`num_pes` flags).
    hot_pe: Vec<bool>,
    /// Overused MRRG nodes (`num_nodes` flags), for route membership
    /// tests.
    over: Vec<bool>,
    /// Congestion heat per `(PE, modulo slot)`, indexed
    /// `pe.index() * ii + slot`.
    heat: Vec<f64>,
    /// Candidate ops for relocation/retiming ([`congested_ops`]' output).
    ops: Vec<OpId>,
    /// `true` per op: during repair every neighbour is placed.
    placed: Vec<bool>,
    /// Free PEs of the move under consideration.
    options: Vec<PeId>,
}

/// Ops to consider moving: those placed on PEs owning overused MRRG nodes
/// plus the endpoints of unroutable signals. Fills `scratch.ops` and the
/// per-(PE, slot) congestion heat map `scratch.heat` steering the
/// annealing cost.
fn congested_ops(
    dfg: &Dfg,
    mrrg: &panorama_arch::Mrrg,
    cgra: &Cgra,
    state: &PlacementState,
    usage: &[u16],
    routes: &[Option<crate::mapping::Route>],
    scratch: &mut AnnealScratch,
) {
    let ii = mrrg.ii();
    scratch.hot_pe.clear();
    scratch.hot_pe.resize(cgra.num_pes(), false);
    scratch.over.clear();
    scratch.over.resize(mrrg.num_nodes(), false);
    scratch.heat.clear();
    scratch.heat.resize(cgra.num_pes() * ii, 0.0);
    scratch.ops.clear();
    for (i, &u) in usage.iter().enumerate() {
        let node = panorama_arch::MrrgNodeId::from_index(i);
        let cap = mrrg.capacity(node);
        if cap != u16::MAX && u as usize > cap as usize {
            let pe = mrrg.pe_of(node);
            scratch.hot_pe[pe.index()] = true;
            scratch.over[i] = true;
            let over = (u as usize - cap as usize) as f64;
            scratch.heat[pe.index() * ii + mrrg.time_of(node)] += 12.0 * over;
        }
    }
    scratch.ops.extend(
        dfg.op_ids()
            .filter(|&v| scratch.hot_pe[state.pe_of[v.index()].index()]),
    );
    for (i, e) in dfg.deps().enumerate() {
        match &routes[i] {
            // endpoints of unroutable signals must move or retime
            None => {
                scratch.ops.push(e.src);
                scratch.ops.push(e.dst);
            }
            // endpoints of signals squeezed through overused nodes are the
            // ones whose relocation/retiming actually clears the congestion
            Some(route) => {
                if route.nodes.iter().any(|n| scratch.over[n.index()]) {
                    scratch.ops.push(e.src);
                    scratch.ops.push(e.dst);
                }
            }
        }
    }
    scratch.ops.sort_unstable();
    scratch.ops.dedup();
    if scratch.ops.is_empty() {
        scratch.ops.extend(dfg.op_ids());
    }
}

/// One temperature step: relocate or retime candidate ops with Metropolis
/// acceptance on the placement-cost proxy plus the router's congestion
/// heat map, both as [`congested_ops`] left them in `scratch`. Returns
/// accepted moves.
fn anneal_step(
    dfg: &Dfg,
    cgra: &Cgra,
    state: &mut PlacementState,
    domains: &OpDomains,
    scratch: &mut AnnealScratch,
    temp: f64,
    rng: &mut SmallRng,
) -> usize {
    let AnnealScratch {
        ops: candidates,
        heat,
        placed,
        options,
        ..
    } = scratch;
    if candidates.is_empty() {
        return 0;
    }
    placed.resize(dfg.num_ops(), true);
    let ii = state.ii as i64;
    let mut accepted = 0usize;
    for _ in 0..SA_MOVES_PER_TEMP {
        let op = candidates[rng.gen_range(0..candidates.len())];
        let old_t = state.time_of[op.index()];
        let old_pe = state.pe_of[op.index()];
        let old_cost = placement_cost(dfg, cgra, state, placed, op, old_pe, old_t)
            + home_bias(cgra, domains, op, old_pe)
            + heat[old_pe.index() * state.ii + old_t % state.ii];
        state.remove(op);

        // legal retiming window against the current neighbour schedule;
        // retiming adds routing slack, which is what frees signals whose
        // only shortest path is contested. Iteration-varying values keep
        // the <= II lifetime bound (see placement) so modulo wrap never
        // collides consecutive iterations in a register.
        let op_is_const = dfg.op(op).kind == panorama_dfg::OpKind::Const;
        let mut estart = 0i64;
        let mut lend = i64::MAX;
        for e in dfg.graph().incoming(op) {
            let tu = state.time_of[e.src.index()] as i64;
            let d = e.weight.distance() as i64;
            estart = estart.max(tu + 1 - d * ii);
            if dfg.op(e.src).kind != panorama_dfg::OpKind::Const {
                lend = lend.min(tu + (1 - d) * ii);
            }
        }
        for e in dfg.graph().outgoing(op) {
            let tv = state.time_of[e.dst.index()] as i64;
            let d = e.weight.distance() as i64;
            lend = lend.min(tv - 1 + d * ii);
            if !op_is_const {
                estart = estart.max(tv + (d - 1) * ii);
            }
        }
        let estart = estart.max(0);
        let lend = lend.min(estart + ii - 1).max(estart);

        let new_t = if rng.gen_bool(0.5) {
            old_t
        } else {
            rng.gen_range(estart..=lend) as usize
        };
        options.clear();
        options.extend(candidates_for(state, domains, op, new_t % state.ii));
        if options.is_empty() {
            state.place(op, old_pe, old_t);
            continue;
        }
        let new_pe = options[rng.gen_range(0..options.len())];
        let new_cost = placement_cost(dfg, cgra, state, placed, op, new_pe, new_t)
            + home_bias(cgra, domains, op, new_pe)
            + heat[new_pe.index() * state.ii + new_t % state.ii];
        let delta = new_cost - old_cost;
        let accept = delta < 0.0 || rng.gen::<f64>() < (-delta / temp.max(1e-9)).exp();
        if accept && (new_pe != old_pe || new_t != old_t) {
            state.place(op, new_pe, new_t);
            accepted += 1;
        } else {
            state.place(op, old_pe, old_t);
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, DfgBuilder, KernelId, KernelScale, OpKind};

    fn cgra() -> Cgra {
        Cgra::new(CgraConfig::small_4x4()).unwrap()
    }

    #[test]
    fn maps_tiny_chain_at_mii() {
        let mut b = DfgBuilder::new("chain");
        let n: Vec<_> = (0..6).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
        for w in n.windows(2) {
            b.data(w[0], w[1]);
        }
        let dfg = b.build().unwrap();
        let mapping = SprMapper::default().map(&dfg, &cgra(), None).unwrap();
        assert_eq!(mapping.ii(), 1, "6 independent-slot ops fit at II 1");
        assert_eq!(mapping.qom(), 1.0);
        mapping.verify(&dfg, &cgra()).unwrap();
    }

    #[test]
    fn maps_tiny_kernels_and_verifies() {
        for id in [KernelId::Fir, KernelId::Cordic, KernelId::MatrixMultiply] {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let cgra = cgra();
            let mapping = SprMapper::default()
                .map(&dfg, &cgra, None)
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            mapping
                .verify(&dfg, &cgra)
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(mapping.qom() > 0.0 && mapping.qom() <= 1.0);
        }
    }

    #[test]
    fn respects_recurrences() {
        let mut b = DfgBuilder::new("rec");
        let n: Vec<_> = (0..3).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
        b.data(n[0], n[1]);
        b.data(n[1], n[2]);
        b.back(n[2], n[0], 1);
        let dfg = b.build().unwrap();
        let mapping = SprMapper::default().map(&dfg, &cgra(), None).unwrap();
        assert!(mapping.ii() >= 3, "RecMII is 3");
        mapping.verify(&dfg, &cgra()).unwrap();
    }

    #[test]
    fn impossible_mapping_errors() {
        // 40 loads on 4 mem PEs need II ≥ 10; a request cap of 1 (riding on
        // the bound, as the pipeline passes it) leaves nothing to attempt
        let mut b = DfgBuilder::new("big");
        for i in 0..40 {
            b.op(OpKind::Load, format!("l{i}"));
        }
        let dfg = b.build().unwrap();
        let control = SearchControl::new(crate::PortfolioBound::capped(Some(1)), 0, 0);
        let err = SprMapper::default()
            .map_traced(
                &dfg,
                &cgra(),
                None,
                Some(&control),
                &mut SpanCollector::disabled(),
            )
            .unwrap_err();
        assert_eq!(err, MapError::exhausted(9, "SPR*"));
    }

    #[test]
    fn guided_mapping_verifies() {
        use panorama_cluster::{explore_partitions, top_balanced, Cdg, Partition, SpectralConfig};
        use panorama_place::{map_clusters, ScatterConfig};
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let check = |mapper: &dyn LowerLevelMapper, dfg: &Dfg, cdg: &Cdg| {
            let cmap = map_clusters(cdg, 2, 2, &ScatterConfig::default()).unwrap();
            let restriction = Restriction::from_cluster_map(dfg, cdg, &cmap, &cgra);
            let mapping = mapper
                .map(dfg, &cgra, Some(&restriction))
                .unwrap_or_else(|e| panic!("{}: {e}", mapper.name()));
            mapping.verify(dfg, &cgra).unwrap();
            // placement actually honours the restriction
            for op in dfg.op_ids() {
                let cl = cgra.cluster_of(mapping.pe_of(op));
                assert!(
                    restriction.allows(op, cl),
                    "{}: op {op} escaped its cluster",
                    mapper.name()
                );
            }
        };
        let dfg = kernels::generate(KernelId::Edn, KernelScale::Tiny);
        let parts = explore_partitions(&dfg, 2, 6, &SpectralConfig::default()).unwrap();
        check(
            &SprMapper::default(),
            &dfg,
            &Cdg::new(&dfg, top_balanced(&parts, 1)[0].1),
        );
        // every backend under one restriction: four load → mul → add
        // chains, one per cluster
        let mut b = DfgBuilder::new("chains");
        let mut labels = Vec::new();
        for g in 0..4 {
            let l = b.op(OpKind::Load, format!("l{g}"));
            let m = b.op(OpKind::Mul, format!("m{g}"));
            let st = b.op(OpKind::Add, format!("a{g}"));
            b.data(l, m);
            b.data(m, st);
            labels.extend([g; 3]);
        }
        let dfg = b.build().unwrap();
        let cdg = Cdg::new(&dfg, &Partition::new(labels, 4));
        let backends: [&dyn LowerLevelMapper; 3] = [
            &SprMapper::default(),
            &crate::UltraFastMapper::default(),
            &crate::SatMapper::default(),
        ];
        for mapper in backends {
            check(mapper, &dfg, &cdg);
        }
    }
}
