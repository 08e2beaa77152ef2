//! SPR\* — the schedule / place / route mapper (paper §3.3, Algorithm 2),
//! re-implementing SPR (Friedman et al., FPGA'09) on the MRRG.

use crate::placement::{
    candidates_for, home_bias, initial_placement, placement_cost, warm_placement, PlacementState,
};
use crate::router::{route_all, RouterConfig, RouterScratch};
use crate::warmstart::WarmStartCache;
use crate::{min_ii, LowerLevelMapper, Mapping, MappingStats, Restriction, SearchControl};
use panorama_arch::Cgra;
use panorama_dfg::{Dfg, OpId};
use panorama_trace::SpanCollector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;
use std::time::Instant;

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

/// SPR\* tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct SprConfig {
    /// II search cap as `mii * factor + offset`.
    pub max_ii_factor: usize,
    /// Absolute II cap added to `mii * max_ii_factor`.
    pub max_ii_offset: usize,
    /// PathFinder settings per routing invocation.
    pub router: RouterConfig,
    /// Simulated-annealing initial temperature.
    pub sa_initial_temp: f64,
    /// Annealing stops below this temperature (Algorithm 2 line 9).
    pub sa_min_temp: f64,
    /// Multiplicative cooling per routing round (Algorithm 2 line 15).
    pub sa_alpha: f64,
    /// Relocation attempts per temperature step.
    pub sa_moves_per_temp: usize,
    /// RNG seed (deterministic mapping).
    pub seed: u64,
    /// Optional wall-clock budget; the II search aborts once exceeded.
    pub time_budget: Option<std::time::Duration>,
}

impl Default for SprConfig {
    fn default() -> Self {
        SprConfig {
            max_ii_factor: 4,
            max_ii_offset: 12,
            router: RouterConfig {
                max_iterations: 12,
                ..RouterConfig::default()
            },
            sa_initial_temp: 2.0,
            sa_min_temp: 0.02,
            sa_alpha: 0.82,
            sa_moves_per_temp: 64,
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
    /// Optional warm-start store; see [`SprMapper::with_warm_cache`].
    warm: Option<WarmStartCache>,
}

impl SprMapper {
    /// Creates a mapper with custom settings.
    pub fn new(config: SprConfig) -> Self {
        SprMapper { config, warm: None }
    }

    /// Attaches a [`WarmStartCache`]: successful mappings are recorded
    /// into it, and each search first consults it for a prior mapping of
    /// a structurally near-identical `(DFG, architecture)` pair. On a hit
    /// the attempt at the prior II seeds placement and PathFinder history
    /// from the stored solution; every seed that no longer fits falls
    /// back to the cold path, so results always pass the same
    /// [`Mapping::verify`] as a cold search.
    #[must_use]
    pub fn with_warm_cache(mut self, cache: WarmStartCache) -> Self {
        self.warm = Some(cache);
        self
    }

    /// The attached warm-start cache, if any (for hit/miss accounting).
    pub fn warm_cache(&self) -> Option<&WarmStartCache> {
        self.warm.as_ref()
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
        let start = Instant::now();
        let mii = min_ii(dfg, cgra).mii();
        let max_ii = mii * self.config.max_ii_factor + self.config.max_ii_offset;
        // With a restriction, per-cluster capacity bounds prove some low II
        // values infeasible; skipping them avoids pointless SA+router runs.
        let cold_start_ii = match restriction {
            Some(r) => mii.max(crate::restricted_min_ii(dfg, cgra, r)),
            None => mii,
        };
        let out_of_time = |start: Instant| {
            self.config
                .time_budget
                .is_some_and(|budget| start.elapsed() > budget)
        };
        let cancel = control.and_then(SearchControl::cancel_token);
        // One structural lookup per search. A hint's II was proven feasible
        // for a near-identical graph, so the ascent resumes there instead of
        // re-paying every failing low-II attempt; the delta could in theory
        // relax a recurrence and admit a lower II, which the warm search
        // deliberately forgoes — the incremental-compile trade.
        let mut warm_hint = self.warm.as_ref().and_then(|w| w.lookup(dfg, cgra));
        // The outer loop runs at most twice: once warm, and — only when an
        // exact-structure hit produced a mapping whose content hash differs
        // from the recorded one — once more cold, so a warm-enabled replay
        // returns byte-identical reports to a cold run.
        'search: loop {
            let mut rng = SmallRng::seed_from_u64(self.config.seed);
            let mut stats = MappingStats::default();
            let mut scratch = RouterScratch::new();
            let mut anneal_scratch = AnnealScratch::default();
            let start_ii = match &warm_hint {
                Some(h) if h.ii > cold_start_ii && h.ii <= max_ii => h.ii,
                _ => cold_start_ii,
            };
            for ii in start_ii..=max_ii {
                // External cancellation (deadline, shutdown) aborts the whole
                // search with a distinguishable error; timing-dependent, so the
                // event stays out of the deterministic signature.
                if control.is_some_and(SearchControl::is_cancelled) {
                    trace.event_unstable("spr.abort", &[("ii", ii as i64)]);
                    return Err(MapError::cancelled(ii, self.name()));
                }
                if out_of_time(start) {
                    // Wall-clock cutoffs depend on machine load, so the event
                    // is excluded from the deterministic trace signature.
                    trace.event_unstable("spr.timeout", &[("ii", ii as i64)]);
                    break;
                }
                // II searches ascend: once the portfolio bound rejects this II
                // it rejects every later one, so the candidate is done.
                if control.is_some_and(|c| !c.admits(ii)) {
                    trace.event_unstable("spr.cancelled", &[("ii", ii as i64)]);
                    break;
                }
                stats.ii_attempts += 1;
                let ii_span = trace.start();
                // joint schedule + least-cost placement (Algorithm 2 lines 4–8)
                let place_span = trace.start();
                let warm = warm_hint.as_ref().filter(|h| h.ii == ii);
                let placement = match warm {
                    // seeds that no longer fit degrade per-op; a wholesale
                    // failure falls back to the cold search for the same II
                    Some(h) => warm_placement(dfg, cgra, ii, restriction, &h.seeds)
                        .or_else(|_| initial_placement(dfg, cgra, ii, restriction)),
                    None => initial_placement(dfg, cgra, ii, restriction),
                };
                if let Some(h) = warm {
                    trace.event(
                        "spr.warm",
                        &[
                            ("ii", ii as i64),
                            ("edit_distance", h.edit_distance as i64),
                            (
                                "seeds",
                                h.seeds.iter().filter(|s| s.is_some()).count() as i64,
                            ),
                        ],
                    );
                }
                match &placement {
                    Ok(_) => trace.record("spr.place", place_span, &[("ii", ii as i64)]),
                    Err(op) => trace.record(
                        "spr.place_fail",
                        place_span,
                        &[("ii", ii as i64), ("op", op.index() as i64)],
                    ),
                }
                let Ok(mut state) = placement else {
                    trace.record(
                        "spr.ii",
                        ii_span,
                        &[("ii", ii as i64), ("success", 0), ("structural", 0)],
                    );
                    continue;
                };
                let mrrg = cgra.mrrg_shared(ii);
                scratch.reset_for_ii();
                if let Some(h) = warm {
                    // same arch, same II ⇒ node indices line up: PathFinder
                    // starts knowing which nodes the prior run fought over
                    scratch.seed_history(&h.history);
                }
                let mut temp = self.config.sa_initial_temp;
                // whether the attempt's last routing round still held a
                // signal placed beyond its slack (why the II failed)
                let mut structural;

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
                                ("overuse", outcome.overuse as i64),
                                ("failed", outcome.failed as i64),
                                ("unreachable", outcome.unreachable as i64),
                                ("overused_nodes", overused as i64),
                            ],
                        );
                    }
                    if outcome.is_clean() {
                        stats.compile_time = start.elapsed();
                        let routes = outcome
                            .routes
                            .into_iter()
                            .map(|r| r.expect("clean outcome has every route"))
                            .collect();
                        let mapping = Mapping {
                            mapper: self.name(),
                            ii,
                            mii,
                            time_of: state.time_of.clone(),
                            pe_of: state.pe_of.clone(),
                            routes: Some(routes),
                            stats,
                        };
                        // An exact-structure warm hit must reproduce the
                        // recorded mapping bit for bit; a divergent result
                        // (seeded history steered the router elsewhere) is
                        // discarded and the search redone cold, so warm replay
                        // never changes report bytes (ROADMAP item 2).
                        let diverged = warm_hint.as_ref().is_some_and(|h| {
                            h.edit_distance == 0
                                && h.content_hash != 0
                                && mapping.content_hash() != h.content_hash
                        });
                        if diverged {
                            trace.record(
                                "spr.ii",
                                ii_span,
                                &[("ii", ii as i64), ("success", 0), ("warm_diverged", 1)],
                            );
                            warm_hint = None;
                            continue 'search;
                        }
                        if let Some(c) = control {
                            c.record_success(ii);
                        }
                        if let Some(w) = &self.warm {
                            w.record_parts(
                                dfg,
                                cgra,
                                ii,
                                state.pe_of,
                                state.time_of,
                                scratch.export_history(),
                                mapping.content_hash(),
                            );
                        }
                        trace.record("spr.ii", ii_span, &[("ii", ii as i64), ("success", 1)]);
                        return Ok(mapping);
                    }
                    if temp < self.config.sa_min_temp {
                        break; // give up on this II
                    }
                    // A fired token makes the router return early with a dirty
                    // outcome; abort before spending another annealing round.
                    if control.is_some_and(SearchControl::is_cancelled) {
                        trace.event_unstable("spr.abort", &[("ii", ii as i64)]);
                        return Err(MapError::cancelled(ii, self.name()));
                    }
                    if out_of_time(start) {
                        trace.event_unstable("spr.timeout", &[("ii", ii as i64)]);
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
                        restriction,
                        &anneal_scratch.ops,
                        &anneal_scratch.heat,
                        temp,
                        self.config.sa_moves_per_temp,
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
                    temp *= self.config.sa_alpha;
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
            }
            trace.event("spr.exhausted", &[("max_ii", max_ii as i64)]);
            return Err(MapError::exhausted(max_ii, self.name()));
        } // 'search
    }

    fn name(&self) -> &'static str {
        "SPR*"
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
    /// Candidate ops for relocation/retiming (the function's output).
    ops: Vec<OpId>,
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
/// heat map (`heat[pe.index() * ii + slot]`). Returns accepted moves.
#[allow(clippy::too_many_arguments)]
fn anneal_step(
    dfg: &Dfg,
    cgra: &Cgra,
    state: &mut PlacementState,
    restriction: Option<&Restriction>,
    candidates: &[OpId],
    heat: &[f64],
    temp: f64,
    budget: usize,
    rng: &mut SmallRng,
) -> usize {
    if candidates.is_empty() {
        return 0;
    }
    let placed = vec![true; dfg.num_ops()];
    let ii = state.ii as i64;
    let mut accepted = 0usize;
    for _ in 0..budget {
        let op = candidates[rng.gen_range(0..candidates.len())];
        let old_t = state.time_of[op.index()];
        let old_pe = state.pe_of[op.index()];
        let old_cost = placement_cost(dfg, cgra, state, &placed, op, old_pe, old_t)
            + home_bias(cgra, restriction, op, old_pe)
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
        let options = candidates_for(dfg, cgra, state, restriction, op, new_t % state.ii);
        if options.is_empty() {
            state.place(op, old_pe, old_t);
            continue;
        }
        let new_pe = options[rng.gen_range(0..options.len())];
        let new_cost = placement_cost(dfg, cgra, state, &placed, op, new_pe, new_t)
            + home_bias(cgra, restriction, op, new_pe)
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
        // a store (needs mem PE) on an architecture where memory exists but
        // the op count per II slot is forced impossible via a tiny max II
        let mut b = DfgBuilder::new("big");
        for i in 0..40 {
            b.op(OpKind::Load, format!("l{i}"));
        }
        let dfg = b.build().unwrap();
        let mapper = SprMapper::new(SprConfig {
            max_ii_factor: 0,
            max_ii_offset: 1, // II can only be mii*0+1 = 1... below need
            ..SprConfig::default()
        });
        // 40 loads on 4 mem PEs need II ≥ 10; cap is 1 → error
        let err = mapper.map(&dfg, &cgra(), None).unwrap_err();
        assert_eq!(err.mapper, "SPR*");
    }

    #[test]
    fn guided_mapping_verifies() {
        use panorama_cluster::{explore_partitions, top_balanced, Cdg, SpectralConfig};
        use panorama_place::{map_clusters, ScatterConfig};
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let dfg = kernels::generate(KernelId::Edn, KernelScale::Tiny);
        let parts = explore_partitions(&dfg, 2, 6, &SpectralConfig::default()).unwrap();
        let best = top_balanced(&parts, 1)[0].1;
        let cdg = Cdg::new(&dfg, best);
        let cmap = map_clusters(&cdg, 2, 2, &ScatterConfig::default()).unwrap();
        let restriction = Restriction::from_cluster_map(&dfg, &cdg, &cmap, &cgra);
        let mapping = SprMapper::default()
            .map(&dfg, &cgra, Some(&restriction))
            .unwrap();
        mapping.verify(&dfg, &cgra).unwrap();
        // placement actually honours the restriction
        for op in dfg.op_ids() {
            let cl = cgra.cluster_of(mapping.pe_of(op));
            assert!(restriction.allows(op, cl), "op {op} escaped its cluster");
        }
    }
}
