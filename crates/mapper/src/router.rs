//! PathFinder-style negotiated-congestion routing over the MRRG
//! (McMurchie & Ebeling).
//!
//! Every DFG dependency becomes a signal routed from the producer's
//! broadcast point to a node feeding the consumer's FU, with the number of
//! time-advancing hops fixed by the schedule. Signals overusing a node pay
//! a growing *present* penalty within an iteration and deposit *history*
//! cost across iterations, until either every capacity is respected or the
//! iteration budget runs out (placement then changes via simulated
//! annealing, Algorithm 2 lines 9–15).
//!
//! Rerouting is negotiated, not wholesale: routes and node usage persist in
//! the [`RouterScratch`], and an iteration rips up and re-searches only the
//! producer groups that hold an unrouted signal or cross a node that is
//! overused at that moment. The same state survives from one `route_all`
//! call to the next, so after an annealing step only the signals of the ops
//! that moved (and whatever they now collide with) are searched again.
//!
//! This is the hottest loop in the toolchain, so the per-signal A* runs on
//! flat `Vec`-backed tables indexed by `(elapsed, MRRG node)` and
//! invalidated by generation stamps — no hashing, and no per-signal
//! clearing. Producer broadcast claims live in a packed per-time-slice
//! `u64` bitset (one AND/OR per probe), the congestion cost of entering a
//! node is one load from a per-node table kept current with the usage
//! counts, and neighbor expansion walks a flattened CSR with FU
//! destinations pre-filtered and destination PE coordinates inlined per
//! edge. All buffers live in the [`RouterScratch`] reused across signals,
//! PathFinder iterations, and annealing rounds.

use crate::mapping::Route;
use panorama_arch::{Cgra, Mrrg, MrrgNodeId, PeId};
use panorama_dfg::Dfg;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Present-congestion penalty per unit of overuse, grows each iteration.
const PRESENT_FACTOR: f64 = 0.6;
/// History cost deposited per unit of overuse per iteration.
const HISTORY_INCREMENT: f64 = 0.35;

/// PathFinder tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Rip-up-and-reroute iterations per invocation.
    pub max_iterations: usize,
    /// Hard cap on A* state expansions per signal (guards worst cases).
    pub max_expansions: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_iterations: 24,
            max_expansions: 400_000,
        }
    }
}

/// Result of one full routing attempt.
#[derive(Debug, Clone)]
pub(crate) struct RouteOutcome {
    /// Per-DFG-edge routes (`None` for unroutable signals).
    pub routes: Vec<Option<Route>>,
    /// Total capacity overuse across nodes after the last iteration.
    pub overuse: usize,
    /// Signals left without a route in the last iteration, whatever the
    /// reason.
    pub failed: usize,
    /// How many of `failed` are [`Search::Unreachable`]: endpoints placed
    /// further apart than the schedule slack, which only a placement
    /// change can cure. The rest ran out of A* expansions.
    pub unreachable: usize,
    /// PathFinder iterations actually run.
    pub iterations: usize,
    /// A* searches run, over all iterations.
    pub(crate) searches: usize,
    /// Signals that came into the call with a route still valid for their
    /// endpoints and schedule.
    pub(crate) kept: usize,
    /// Per-node usage after the last iteration (for annealing to target
    /// congested ops).
    pub usage: Vec<u16>,
}

impl RouteOutcome {
    pub fn is_clean(&self) -> bool {
        self.overuse == 0 && self.failed == 0
    }
}

/// What one A* search over `(MRRG node, elapsed)` states came to.
#[derive(Debug, PartialEq, Eq)]
enum Search {
    /// A cheapest path, every node with its elapsed time.
    Found(Vec<(MrrgNodeId, u32)>),
    /// No path with exactly `delta` advances exists: the slack is below
    /// one cycle, or the frontier emptied inside the expansion budget.
    /// Node costs are finite, so congestion never removes a state from
    /// the frontier — this is a fact about placement and schedule alone,
    /// and no amount of negotiation changes it.
    Unreachable,
    /// The expansion cap was hit with states still open; a path may
    /// exist.
    BudgetExhausted,
}

/// One signal to route: a DFG dependency lowered against the current
/// placement and schedule.
struct Signal {
    edge_index: usize,
    producer: u32,
    key: SignalKey,
}

/// Everything a route depends on besides congestion. The MRRG is fixed for
/// an II attempt, so a path found for one key is a legal path for an equal
/// key in any later call.
#[derive(Clone, Copy, PartialEq, Eq)]
struct SignalKey {
    src_pe: PeId,
    dst_pe: PeId,
    start_time: usize,
    dst_slot: usize,
    delta: i64,
}

/// A route held in the scratch together with the usage it took.
struct KeptRoute {
    /// The signal the path was searched for. When the live signal of the
    /// edge differs (an endpoint moved or was retimed) the path is stale:
    /// useless as a route, but still counted in `usage` until its producer
    /// group is released.
    key: SignalKey,
    /// Every node with its elapsed time, as [`Search::Found`] returned it.
    path: Vec<(MrrgNodeId, u32)>,
}

/// One pre-lowered MRRG edge in the flattened CSR: everything the A*
/// inner loop needs (destination, time advance, destination PE grid
/// position for the heuristic) in one cache line's worth of sequential
/// reads, with FU destinations already filtered out.
#[derive(Clone, Copy)]
struct FlatEdge {
    dst: u32,
    /// 0 or 1 time advance.
    advance: u8,
    dst_row: u8,
    dst_col: u8,
}

/// Routing state of one II attempt: A* tables, the priority heap,
/// per-producer claim bits, congestion history and node costs, and the
/// routes found so far with the usage they hold. Threaded through every
/// `route_all` call of the annealing loop; [`Self::reset_for_ii`] makes it
/// new again.
#[derive(Default)]
pub(crate) struct RouterScratch {
    /// Generation stamp per `(elapsed, node)` A* state; a state is live
    /// only when its stamp equals the current generation.
    stamp: Vec<u32>,
    /// Best g-cost per live state.
    best: Vec<f64>,
    /// Predecessor state key per live state (`u32::MAX` = none).
    parent: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<HeapEntry>,
    /// Packed occupancy bits marking `(elapsed, node)` pairs already
    /// claimed by the current producer's broadcast tree (shared fan-out
    /// routes cost ~nothing). Bit `node % 64` of word
    /// `elapsed * claim_words + node / 64`. A claim is only shareable at
    /// the *same elapsed time*: the same producer crossing a node at two
    /// different times carries two different iterations' values in the
    /// pipelined steady state, which is a real conflict, not a broadcast
    /// share. One AND per probe, one OR per claim.
    claim_bits: Vec<u64>,
    /// Words of `claim_bits` set since the last [`Self::clear_claims`];
    /// clearing a producer group zeroes only these.
    claim_dirty: Vec<u32>,
    /// `u64` words per time slice (`num_nodes / 64`, rounded up).
    claim_words: usize,
    /// Flattened neighbor CSR: `flat_edges[flat_offsets[n]..flat_offsets
    /// [n + 1]]` are node `n`'s outgoing edges, FU destinations excluded.
    /// Built lazily per MRRG (reset with the II).
    flat_offsets: Vec<u32>,
    flat_edges: Vec<FlatEdge>,
    /// What entering each node costs a signal that does not already claim
    /// it, see [`Self::effective_cost`]. Rewritten for every node at the
    /// start of a PathFinder iteration and for one node whenever its usage
    /// changes, so the A* inner loop pays one load instead of the float
    /// expression per visit.
    eff_cost: Vec<f64>,
    /// Present-congestion penalty of the current iteration.
    present: f64,
    /// Persistent congestion history (per II attempt, across annealing
    /// rounds).
    history: Vec<f32>,
    /// Distinct `(node, elapsed)` pairs per producer over the paths in
    /// `kept`, stale ones included — what [`Mapping::verify`] counts once
    /// every path is a route.
    ///
    /// [`Mapping::verify`]: crate::Mapping::verify
    usage: Vec<u16>,
    signals: Vec<Signal>,
    /// Per-DFG-edge path as last found (`None`: never found, or given back
    /// when its group was released).
    kept: Vec<Option<KeptRoute>>,
}

impl RouterScratch {
    /// Forgets congestion history, routes and usage; call when moving to a
    /// new II attempt (the MRRG, and hence every node index, changes
    /// meaning).
    pub fn reset_for_ii(&mut self) {
        self.history.clear();
        self.kept.clear();
        self.usage.clear();
        // Node counts change between IIs, so stamped state sizes change
        // too; dropping the stamps (cheap — they are reused allocations)
        // keeps stale small-II entries from aliasing large-II states.
        self.stamp.clear();
        self.claim_bits.clear();
        self.claim_dirty.clear();
        self.claim_words = 0;
        // The CSR is a projection of the MRRG, which changes with the II.
        self.flat_offsets.clear();
        self.flat_edges.clear();
        self.generation = 0;
    }

    /// Sizes every per-node / per-state table for `num_nodes` MRRG nodes
    /// and signal slacks up to `max_delta`.
    fn ensure_capacity(&mut self, num_nodes: usize, max_delta: usize) {
        let states = num_nodes * (max_delta + 1);
        if self.stamp.len() < states {
            self.stamp.resize(states, 0);
            self.best.resize(states, 0.0);
            self.parent.resize(states, u32::MAX);
        }
        self.claim_words = num_nodes.div_ceil(64);
        let claim_len = (max_delta + 1) * self.claim_words;
        if self.claim_bits.len() < claim_len {
            self.claim_bits.resize(claim_len, 0);
        }
        self.history.resize(num_nodes, 0.0);
        self.usage.resize(num_nodes, 0);
        self.eff_cost.resize(num_nodes, 0.0);
    }

    /// Builds the flattened neighbor CSR for `mrrg`: per-edge destination,
    /// time advance and destination PE position, with edges
    /// into FU nodes dropped up front (compute slots belong to placed ops;
    /// routes terminate at inputs or register reads). Source edge order is
    /// preserved, so A* tie-breaking matches walking `Mrrg::out_edges`.
    fn build_flat(&mut self, mrrg: &Mrrg, cgra: &Cgra) {
        let num_nodes = mrrg.num_nodes();
        self.flat_offsets.clear();
        self.flat_edges.clear();
        self.flat_offsets.reserve(num_nodes + 1);
        self.flat_offsets.push(0);
        for n in 0..num_nodes {
            let node = MrrgNodeId::from_index(n);
            for e in mrrg.out_edges(node) {
                if matches!(mrrg.kind(e.dst), panorama_arch::NodeKind::Fu) {
                    continue;
                }
                let (row, col) = cgra.pe_position(mrrg.pe_of(e.dst));
                self.flat_edges.push(FlatEdge {
                    dst: e.dst.index() as u32,
                    advance: u8::from(e.advance),
                    dst_row: row as u8,
                    dst_col: col as u8,
                });
            }
            self.flat_offsets.push(self.flat_edges.len() as u32);
        }
    }

    /// True when the current producer group already claimed `node` at
    /// `elapsed` cycles from its broadcast.
    #[inline]
    fn is_claimed(&self, node: usize, elapsed: u32) -> bool {
        let word = elapsed as usize * self.claim_words + (node >> 6);
        self.claim_bits[word] & (1u64 << (node & 63)) != 0
    }

    /// Claims `(node, elapsed)` for the current producer group. Returns
    /// `true` when it was already claimed — a genuine same-cycle broadcast
    /// share whose occupancy must not be counted twice.
    fn claim(&mut self, node: usize, elapsed: u32) -> bool {
        let word = elapsed as usize * self.claim_words + (node >> 6);
        let mask = 1u64 << (node & 63);
        let bits = self.claim_bits[word];
        if bits & mask != 0 {
            return true;
        }
        if bits == 0 {
            self.claim_dirty.push(word as u32);
        }
        self.claim_bits[word] = bits | mask;
        false
    }

    /// Starts a new producer group by zeroing exactly the bitset words the
    /// previous group dirtied — O(nodes touched), not O(table).
    fn clear_claims(&mut self) {
        for &word in &self.claim_dirty {
            self.claim_bits[word as usize] = 0;
        }
        self.claim_dirty.clear();
    }

    /// Cost of routing one more signal through node `i` of capacity `cap`
    /// under the current usage, history and present penalty.
    fn effective_cost(&self, i: usize, cap: u16) -> f64 {
        if cap == u16::MAX {
            return 0.05; // topology nodes are nearly free
        }
        let over = (f64::from(self.usage[i]) + 1.0 - f64::from(cap)).max(0.0);
        (1.0 + f64::from(self.history[i])) * (1.0 + over * self.present)
    }

    /// Starts a PathFinder iteration: `present` as given, and every node
    /// repriced under it from the usage and history as they stand.
    fn reprice(&mut self, mrrg: &Mrrg, present: f64) {
        self.present = present;
        for i in 0..mrrg.num_nodes() {
            self.eff_cost[i] = self.effective_cost(i, mrrg.capacity(MrrgNodeId::from_index(i)));
        }
    }

    /// Takes `path` into the current producer group: each capacitated
    /// `(node, elapsed)` the group did not hold yet costs one unit of usage.
    /// Fan-out edges of one producer broadcast a single physical value, so
    /// nodes shared *at the same cycle* count once; a second visit at a
    /// different time is a different iteration's value and must pay. The
    /// bitset remembers every claim of the group, so occupancy matches the
    /// verifier's distinct-`(node, time)` model exactly.
    fn occupy_path(&mut self, mrrg: &Mrrg, path: &[(MrrgNodeId, u32)]) {
        for &(n, t) in path {
            let (i, cap) = (n.index(), mrrg.capacity(n));
            if cap != u16::MAX && !self.claim(i, t) {
                self.usage[i] += 1;
                self.eff_cost[i] = self.effective_cost(i, cap);
            }
        }
    }

    /// The path held for `signals[s]`, if it was searched for the signal
    /// as it is now.
    fn route_of(&self, s: usize) -> Option<&KeptRoute> {
        let signal = &self.signals[s];
        self.kept[signal.edge_index]
            .as_ref()
            .filter(|k| k.key == signal.key)
    }

    /// The rip-up test for the producer group `signals[group]`: a signal
    /// without a route, or a route through a node that is overused now.
    fn is_dirty(&self, mrrg: &Mrrg, group: std::ops::Range<usize>) -> bool {
        let overused = |&(n, _): &(MrrgNodeId, u32)| self.usage[n.index()] > mrrg.capacity(n);
        group
            .into_iter()
            .any(|s| self.route_of(s).is_none_or(|k| k.path.iter().any(overused)))
    }

    /// Gives back everything the producer group `signals[group]` holds and
    /// forgets its paths. Replaying them through the claim bitset undoes
    /// [`Self::occupy_path`] unit for unit: the group was searched as a
    /// whole, so its distinct `(node, elapsed)` pairs are exactly what it
    /// was charged. Leaves the bitset empty for the group's re-search.
    fn release(&mut self, mrrg: &Mrrg, group: std::ops::Range<usize>) {
        self.clear_claims();
        for s in group {
            let Some(kept) = self.kept[self.signals[s].edge_index].take() else {
                continue;
            };
            for (n, t) in kept.path {
                let (i, cap) = (n.index(), mrrg.capacity(n));
                if cap != u16::MAX && !self.claim(i, t) {
                    self.usage[i] -= 1;
                    self.eff_cost[i] = self.effective_cost(i, cap);
                }
            }
        }
        self.clear_claims();
    }

    /// Advances the A* generation, invalidating every stamped state
    /// without touching memory (stamps wrap safely: on overflow the table
    /// is zeroed once).
    fn next_generation(&mut self) -> u32 {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }

    /// A* over `(MRRG node, elapsed cycles)`: finds a cheapest path from
    /// the producer's `Out` to any node feeding the consumer's FU with
    /// *exactly* `delta` time advances. Returns every node together with
    /// its elapsed time so the caller can account occupancy per
    /// `(node, time)` rather than per node.
    #[allow(clippy::too_many_arguments)]
    fn route_one(
        &mut self,
        mrrg: &Mrrg,
        cgra: &Cgra,
        src_pe: PeId,
        dst_pe: PeId,
        start_time: usize,
        delta: i64,
        dst_slot: usize,
        max_expansions: usize,
    ) -> Search {
        if delta < 1 {
            return Search::Unreachable;
        }
        let delta = delta as u32;
        let num_nodes = mrrg.num_nodes();
        if self.flat_offsets.len() != num_nodes + 1 {
            self.build_flat(mrrg, cgra);
        }
        let generation = self.next_generation();
        let start = mrrg.out(src_pe, start_time);
        let goal_in = mrrg.input(dst_pe, dst_slot);
        let goal_rr = mrrg.reg_read(dst_pe, dst_slot);
        let (goal_row, goal_col) = cgra.pe_position(dst_pe);
        let (goal_row, goal_col) = (goal_row as u32, goal_col as u32);

        // a node this producer already broadcasts through *in the same
        // cycle* carries one physical value, genuinely shared; anything
        // else pays the table price (topology nodes are never claimed)
        let node_cost = |scratch: &Self, i: usize, elapsed: u32| -> f64 {
            if scratch.is_claimed(i, elapsed) {
                0.02
            } else {
                scratch.eff_cost[i]
            }
        };

        self.heap.clear();
        let g0 = node_cost(self, start.index(), 0);
        let start_key = start.index() as u32; // elapsed 0 ⇒ key = node index
        self.stamp[start_key as usize] = generation;
        self.best[start_key as usize] = g0;
        self.parent[start_key as usize] = u32::MAX;
        self.heap.push(HeapEntry {
            f: g0 + cgra.manhattan(src_pe, dst_pe) as f64,
            key: start_key,
            elapsed: 0,
        });

        let mut expansions = 0usize;
        while let Some(HeapEntry { key, elapsed, .. }) = self.heap.pop() {
            let node_index = (key - elapsed * num_nodes as u32) as usize;
            let g = self.best[key as usize];
            expansions += 1;
            if expansions > max_expansions {
                return Search::BudgetExhausted;
            }
            if elapsed == delta {
                let node = MrrgNodeId::from_index(node_index);
                if node == goal_in || node == goal_rr {
                    // reconstruct; the elapsed time of every hop is encoded
                    // in its state key, so recovering it is free
                    let mut path = vec![(node, elapsed)];
                    let mut cur = key;
                    while self.parent[cur as usize] != u32::MAX {
                        cur = self.parent[cur as usize];
                        path.push((
                            MrrgNodeId::from_index(cur as usize % num_nodes),
                            cur / num_nodes as u32,
                        ));
                    }
                    path.reverse();
                    return Search::Found(path);
                }
            }
            let lo = self.flat_offsets[node_index] as usize;
            let hi = self.flat_offsets[node_index + 1] as usize;
            // FU destinations were filtered when the CSR was built; the
            // slice walk re-checks no bounds and touches no MRRG tables.
            for edge in &self.flat_edges[lo..hi] {
                let edge = *edge;
                let ne = elapsed + u32::from(edge.advance);
                if ne > delta {
                    continue;
                }
                // reachability prune: remaining advances must cover the
                // distance
                let dist = u32::from(edge.dst_row).abs_diff(goal_row)
                    + u32::from(edge.dst_col).abs_diff(goal_col);
                if dist > delta - ne {
                    continue;
                }
                let ng = g + node_cost(self, edge.dst as usize, ne);
                let nkey = ne * num_nodes as u32 + edge.dst;
                let ni = nkey as usize;
                if self.stamp[ni] != generation || ng < self.best[ni] - 1e-12 {
                    self.stamp[ni] = generation;
                    self.best[ni] = ng;
                    self.parent[ni] = key;
                    self.heap.push(HeapEntry {
                        f: ng + f64::from(dist),
                        key: nkey,
                        elapsed: ne,
                    });
                }
            }
        }
        Search::Unreachable
    }
}

/// Routes every DFG dependency. `scratch` carries the routes, usage and
/// congestion history of the II attempt from call to call: a signal whose
/// endpoints and schedule are as they were keeps its route, and only
/// producer groups with a moved signal or an overused node are searched.
/// A fired `cancel` token stops the negotiation after the current
/// iteration — the caller sees a dirty outcome and is expected to check the
/// token itself before retrying.
///
/// An iteration that meets a [`Search::Unreachable`] signal is the last
/// one: the routing can never become clean under this placement, so the
/// outcome goes back as it stands — history untouched — and the caller's
/// placement repair works from that iteration's usage map. A signal without
/// a route is searched in every iteration, so a structural miss shows in
/// the first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_all(
    mrrg: &Mrrg,
    cgra: &Cgra,
    dfg: &Dfg,
    pe_of: &[PeId],
    times: &[usize],
    config: &RouterConfig,
    scratch: &mut RouterScratch,
    cancel: Option<&crate::CancelToken>,
) -> RouteOutcome {
    let ii = mrrg.ii();
    let num_nodes = mrrg.num_nodes();

    // signals, grouped by producer, hardest (longest distance) first
    scratch.signals.clear();
    for (i, e) in dfg.deps().enumerate() {
        let tu = times[e.src.index()];
        let tv = times[e.dst.index()];
        scratch.signals.push(Signal {
            edge_index: i,
            producer: e.src.index() as u32,
            key: SignalKey {
                src_pe: pe_of[e.src.index()],
                dst_pe: pe_of[e.dst.index()],
                start_time: tu % ii,
                dst_slot: tv % ii,
                delta: tv as i64 + (e.weight.distance() as i64) * ii as i64 - tu as i64,
            },
        });
    }
    // fan-out edges of one producer are grouped (they share routing
    // resources for free — it is one physical value), hardest first inside
    scratch.signals.sort_by_key(|s| {
        (
            s.producer,
            std::cmp::Reverse(cgra.manhattan(s.key.src_pe, s.key.dst_pe)),
        )
    });
    let max_delta = scratch
        .signals
        .iter()
        .map(|s| s.key.delta.max(0) as usize)
        .max()
        .unwrap_or(0);
    scratch.ensure_capacity(num_nodes, max_delta);
    scratch.kept.resize_with(dfg.num_deps(), || None);
    let kept = (0..scratch.signals.len())
        .filter(|&s| scratch.route_of(s).is_some())
        .count();

    let mut present = PRESENT_FACTOR;
    let mut iterations = 0;
    let mut searches = 0;

    let (overuse, failed, unreachable) = loop {
        if cancel.is_some_and(crate::CancelToken::is_cancelled) {
            // Abandon the negotiation between iterations; report every
            // signal as failed so the partial state cannot pass for a
            // success.
            break (0, scratch.signals.len().max(1), 0);
        }
        iterations += 1;
        scratch.reprice(mrrg, present);
        let mut failed = 0usize;
        let mut unreachable = 0usize;
        let mut lo = 0;
        while lo < scratch.signals.len() {
            let producer = scratch.signals[lo].producer;
            let group = lo..lo
                + scratch.signals[lo..]
                    .iter()
                    .take_while(|s| s.producer == producer)
                    .count();
            lo = group.end;
            if !scratch.is_dirty(mrrg, group.clone()) {
                continue;
            }
            scratch.release(mrrg, group.clone());
            for s in group {
                let Signal {
                    edge_index, key, ..
                } = scratch.signals[s];
                searches += 1;
                let found = scratch.route_one(
                    mrrg,
                    cgra,
                    key.src_pe,
                    key.dst_pe,
                    key.start_time,
                    key.delta,
                    key.dst_slot,
                    config.max_expansions,
                );
                match found {
                    Search::Found(path) => {
                        scratch.occupy_path(mrrg, &path);
                        scratch.kept[edge_index] = Some(KeptRoute { key, path });
                    }
                    miss => {
                        failed += 1;
                        unreachable += usize::from(miss == Search::Unreachable);
                    }
                }
            }
        }
        let overuse: usize = scratch
            .usage
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let cap = mrrg.capacity(MrrgNodeId::from_index(i));
                (u as usize).saturating_sub(cap as usize)
            })
            .sum();
        // Clean, or structurally unroutable: further iterations would only
        // negotiate (and deposit history for) a routing that cannot exist.
        if (overuse == 0 && failed == 0) || unreachable > 0 {
            break (overuse, failed, unreachable);
        }
        // deposit history on overused nodes; sharpen present penalty
        for (i, &u) in scratch.usage.iter().enumerate() {
            let cap = mrrg.capacity(MrrgNodeId::from_index(i));
            let over = (u as usize).saturating_sub(cap as usize);
            if over > 0 {
                scratch.history[i] += (over as f64 * HISTORY_INCREMENT) as f32;
            }
        }
        present *= 1.4;
        if iterations >= config.max_iterations {
            break (overuse, failed, unreachable);
        }
    };
    let mut routes: Vec<Option<Route>> = vec![None; dfg.num_deps()];
    for s in 0..scratch.signals.len() {
        if let Some(kept) = scratch.route_of(s) {
            let edge_index = scratch.signals[s].edge_index;
            routes[edge_index] = Some(Route {
                edge_index,
                nodes: kept.path.iter().map(|&(n, _)| n).collect(),
            });
        }
    }
    RouteOutcome {
        routes,
        overuse,
        failed,
        unreachable,
        iterations,
        searches,
        kept,
        usage: scratch.usage.clone(),
    }
}

/// Heap entry ordered by ascending f-cost.
struct HeapEntry {
    f: f64,
    /// Packed `(elapsed, node)` state: `elapsed * num_nodes + node`.
    key: u32,
    /// The state's elapsed time again, so a pop unpacks `key` with a
    /// multiply instead of a division (the entry is 16 bytes either way).
    elapsed: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we need the min f on top
        other.f.partial_cmp(&self.f).unwrap_or(Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{DfgBuilder, OpId, OpKind};

    fn setup(ii: usize) -> (Cgra, Mrrg) {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mrrg = cgra.mrrg(ii);
        (cgra, mrrg)
    }

    /// Unwraps a found path.
    fn found(search: Search, why: &str) -> Vec<(MrrgNodeId, u32)> {
        match search {
            Search::Found(path) => path,
            other => panic!("{why}: {other:?}"),
        }
    }

    /// A scratch sized for direct `route_one` tests (no congestion).
    fn fresh_scratch(mrrg: &Mrrg, max_delta: usize) -> RouterScratch {
        let mut s = RouterScratch::default();
        s.ensure_capacity(mrrg.num_nodes(), max_delta);
        s.reprice(mrrg, 0.5);
        s
    }

    #[test]
    fn neighbour_route_is_direct() {
        let (cgra, mrrg) = setup(2);
        let a = cgra.pe_at(0, 0);
        let b = cgra.pe_at(0, 1);
        let mut scratch = fresh_scratch(&mrrg, 1);
        let path = found(
            scratch.route_one(&mrrg, &cgra, a, b, 0, 1, 1, 100_000),
            "adjacent PEs route in one hop",
        );
        // out(a,0) → link → in(b,1)
        assert_eq!(path.first().copied(), Some((mrrg.out(a, 0), 0)));
        assert_eq!(path.last().copied(), Some((mrrg.input(b, 1), 1)));
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn too_far_for_slack_fails() {
        let (cgra, mrrg) = setup(2);
        let a = cgra.pe_at(0, 0);
        let b = cgra.pe_at(3, 3); // manhattan 6
        let mut scratch = fresh_scratch(&mrrg, 2);
        assert_eq!(
            scratch.route_one(&mrrg, &cgra, a, b, 0, 2, 0, 100_000),
            Search::Unreachable
        );
        // a slack below one cycle is unreachable without any search
        assert_eq!(
            scratch.route_one(&mrrg, &cgra, a, a, 0, 0, 0, 100_000),
            Search::Unreachable
        );
        // a reachable pair cut short by the expansion cap is not
        assert_eq!(
            scratch.route_one(&mrrg, &cgra, a, cgra.pe_at(0, 2), 0, 2, 0, 1),
            Search::BudgetExhausted
        );
    }

    #[test]
    fn waiting_in_registers_bridges_extra_time() {
        // same PE pair, delta 3: value must park in a register for 2 cycles
        let (cgra, mrrg) = setup(4);
        let a = cgra.pe_at(1, 1);
        let b = cgra.pe_at(1, 2);
        let mut scratch = fresh_scratch(&mrrg, 3);
        let path = found(
            scratch.route_one(&mrrg, &cgra, a, b, 0, 3, 3, 100_000),
            "register parking allows late consumption",
        );
        // count advances, and check the per-hop elapsed times agree
        let mut adv = 0u32;
        for w in path.windows(2) {
            let e = mrrg
                .out_edges(w[0].0)
                .iter()
                .find(|e| e.dst == w[1].0)
                .expect("path edges exist");
            if e.advance {
                adv += 1;
            }
            assert_eq!(w[1].1, w[0].1 + u32::from(e.advance));
        }
        assert_eq!(adv, 3);
    }

    #[test]
    fn stale_entries_are_invisible_across_generations() {
        // Route a first signal to pollute the tables, then a second,
        // unrelated one without any clearing: generation stamps must hide
        // every stale entry, so the second answer matches a fresh scratch.
        let (cgra, mrrg) = setup(4);
        let mut reused = fresh_scratch(&mrrg, 3);
        let first = found(
            reused.route_one(
                &mrrg,
                &cgra,
                cgra.pe_at(0, 0),
                cgra.pe_at(0, 3),
                0,
                3,
                3,
                100_000,
            ),
            "row route exists",
        );
        assert!(first.len() >= 4);
        let stale_generation = reused.generation;
        let reused_path = found(
            reused.route_one(
                &mrrg,
                &cgra,
                cgra.pe_at(3, 3),
                cgra.pe_at(3, 2),
                1,
                2,
                3,
                100_000,
            ),
            "second route exists",
        );
        assert_eq!(reused.generation, stale_generation + 1, "no table clears");
        let mut fresh = fresh_scratch(&mrrg, 3);
        let fresh_path = found(
            fresh.route_one(
                &mrrg,
                &cgra,
                cgra.pe_at(3, 3),
                cgra.pe_at(3, 2),
                1,
                2,
                3,
                100_000,
            ),
            "second route exists",
        );
        assert_eq!(reused_path, fresh_path, "stale entries leaked into A*");
    }

    #[test]
    fn claims_clear_between_producer_groups() {
        let (cgra, mrrg) = setup(2);
        let mut scratch = fresh_scratch(&mrrg, 1);
        let a = cgra.pe_at(0, 0);
        let b = cgra.pe_at(0, 1);
        let path = found(
            scratch.route_one(&mrrg, &cgra, a, b, 0, 1, 1, 100_000),
            "adjacent PEs route",
        );
        // claim the path for the producer, as route_all does
        let mut claimed_now = Vec::new();
        for &(n, t) in &path {
            if mrrg.capacity(n) != u16::MAX {
                assert!(!scratch.claim(n.index(), t), "first claim is not a share");
                assert!(
                    scratch.claim(n.index(), t),
                    "same-cycle re-claim is a share"
                );
                claimed_now.push((n.index(), t));
            }
        }
        assert!(!claimed_now.is_empty());
        // a new producer group must not see those claims
        scratch.clear_claims();
        for (i, t) in claimed_now {
            assert!(!scratch.is_claimed(i, t));
        }
    }

    #[test]
    fn claims_are_per_cycle_not_per_node() {
        let (_cgra, mrrg) = setup(4);
        let mut scratch = fresh_scratch(&mrrg, 3);
        assert!(!scratch.claim(5, 1));
        assert!(
            !scratch.claim(5, 2),
            "same node at another cycle carries another iteration's value"
        );
        assert!(scratch.is_claimed(5, 1), "earlier claims stay visible");
        assert!(scratch.claim(5, 1), "both cycles remain claimed");
        scratch.clear_claims();
        assert!(!scratch.is_claimed(5, 1) && !scratch.is_claimed(5, 2));
    }

    #[test]
    fn route_all_clean_on_chain() {
        let (cgra, mrrg) = setup(4);
        let mut b = DfgBuilder::new("chain");
        let n: Vec<_> = (0..4).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
        for w in n.windows(2) {
            b.data(w[0], w[1]);
        }
        let dfg = b.build().unwrap();
        let times = vec![0, 1, 2, 3];
        // place along the top row
        let pe_of: Vec<PeId> = (0..4).map(|c| cgra.pe_at(0, c)).collect();
        let mut scratch = RouterScratch::default();
        let outcome = route_all(
            &mrrg,
            &cgra,
            &dfg,
            &pe_of,
            &times,
            &RouterConfig::default(),
            &mut scratch,
            None,
        );
        assert!(
            outcome.is_clean(),
            "overuse {} failed {}",
            outcome.overuse,
            outcome.failed
        );
        assert!(outcome.routes.iter().all(std::option::Option::is_some));
    }

    #[test]
    fn congestion_negotiation_spreads_signals() {
        // many values crossing the same boundary in the same cycle must
        // negotiate; with enough iterations the router resolves them
        let (cgra, mrrg) = setup(6);
        let mut b = DfgBuilder::new("cross");
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        for i in 0..3 {
            let s = b.op(OpKind::Add, format!("s{i}"));
            let d = b.op(OpKind::Add, format!("d{i}"));
            b.data(s, d);
            srcs.push(s);
            dsts.push(d);
        }
        let dfg = b.build().unwrap();
        // all sources on (0,0)-(2,0), all sinks on (0,1)-(2,1), same slots
        let times = vec![0, 1, 0, 1, 0, 1];
        let mut pe_of = vec![cgra.pe_at(0, 0); 6];
        for i in 0..3 {
            pe_of[2 * i] = cgra.pe_at(i, 0);
            pe_of[2 * i + 1] = cgra.pe_at(i, 1);
        }
        let mut scratch = RouterScratch::default();
        let outcome = route_all(
            &mrrg,
            &cgra,
            &dfg,
            &pe_of,
            &times,
            &RouterConfig::default(),
            &mut scratch,
            None,
        );
        assert!(outcome.is_clean());
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_scratch() {
        // two consecutive route_all calls over different placements with
        // one reused scratch must agree with fresh-scratch runs
        let (cgra, mrrg) = setup(4);
        let mut b = DfgBuilder::new("pair");
        let s = b.op(OpKind::Add, "s");
        let d = b.op(OpKind::Add, "d");
        b.data(s, d);
        let dfg = b.build().unwrap();
        let times = [0usize, 1];
        let cfg = RouterConfig::default();
        let mut reused = RouterScratch::default();
        let mut fresh_routes = Vec::new();
        let mut reused_routes = Vec::new();
        for col in [0, 2] {
            let pe_of = [cgra.pe_at(0, col), cgra.pe_at(1, col)];
            let a = route_all(&mrrg, &cgra, &dfg, &pe_of, &times, &cfg, &mut reused, None);
            let mut fresh = RouterScratch::default();
            let b = route_all(&mrrg, &cgra, &dfg, &pe_of, &times, &cfg, &mut fresh, None);
            reused_routes.push(a.routes);
            fresh_routes.push(b.routes);
        }
        assert_eq!(reused_routes, fresh_routes);
    }

    /// `a` and `b` feed `d` along the top row so that both values need
    /// the one link `(0,1) → (0,2)` in the same cycle (overuse in every
    /// round), and `s → f` sits across the whole array with one cycle of
    /// slack (no route whatever the congestion).
    fn contested_link_with_far_pair(cgra: &Cgra) -> (Dfg, Vec<PeId>, Vec<usize>) {
        let mut b = DfgBuilder::new("contested+far");
        let ops: Vec<_> = ["a", "b", "d", "s", "f"]
            .iter()
            .map(|&name| b.op(OpKind::Add, name))
            .collect();
        b.data(ops[0], ops[2]);
        b.data(ops[1], ops[2]);
        b.data(ops[3], ops[4]);
        let dfg = b.build().unwrap();
        let times = vec![0, 1, 2, 0, 1];
        let pe_of = vec![
            cgra.pe_at(0, 0),
            cgra.pe_at(0, 1),
            cgra.pe_at(0, 2),
            cgra.pe_at(3, 0),
            cgra.pe_at(0, 3), // manhattan 6 from `s`, slack 1
        ];
        (dfg, pe_of, times)
    }

    #[test]
    fn unreachable_signal_ends_negotiation_after_one_round() {
        let (cgra, mrrg) = setup(4);
        let (dfg, pe_of, times) = contested_link_with_far_pair(&cgra);
        let mut scratch = RouterScratch::default();
        let outcome = route_all(
            &mrrg,
            &cgra,
            &dfg,
            &pe_of,
            &times,
            &RouterConfig::default(),
            &mut scratch,
            None,
        );
        assert_eq!(outcome.iterations, 1, "no round after the structural miss");
        assert_eq!((outcome.failed, outcome.unreachable), (1, 1));
        assert!(!outcome.is_clean());
        assert!(outcome.routes[2].is_none(), "the far pair has no route");
        assert!(
            outcome.routes[..2].iter().all(Option::is_some) && outcome.overuse > 0,
            "the round still routed everything routable (SA needs its heat map)"
        );
        assert!(
            scratch.history.iter().all(|&h| h == 0.0),
            "the overused link must not enter the history of a negotiation that cannot succeed"
        );
    }

    #[test]
    fn budget_exhaustion_keeps_negotiating() {
        // same graph and placement; with no expansions allowed every search
        // stops with states still open, which proves nothing about
        // reachability, so PathFinder runs its full budget
        let (cgra, mrrg) = setup(4);
        let (dfg, pe_of, times) = contested_link_with_far_pair(&cgra);
        let config = RouterConfig {
            max_expansions: 0,
            ..RouterConfig::default()
        };
        let mut scratch = RouterScratch::default();
        let outcome = route_all(
            &mrrg,
            &cgra,
            &dfg,
            &pe_of,
            &times,
            &config,
            &mut scratch,
            None,
        );
        assert_eq!(outcome.iterations, config.max_iterations);
        assert_eq!((outcome.failed, outcome.unreachable), (3, 0));
    }

    #[test]
    fn effective_cost_table_tracks_the_reference_formula_bit_for_bit() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let (cgra, mrrg) = setup(4);
        let n = mrrg.num_nodes();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut scratch = RouterScratch::default();
        scratch.ensure_capacity(n, 3);
        for h in &mut scratch.history {
            *h = if rng.gen_bool(0.3) {
                rng.gen_range(0..40) as f32 * 0.35
            } else {
                0.0
            };
        }
        let present = 0.6 * 1.4 * 1.4;
        scratch.reprice(&mrrg, present);
        // the cost expression as PathFinder defines it, spelled out
        let reference = |s: &RouterScratch, i: usize| -> f64 {
            let cap = mrrg.capacity(MrrgNodeId::from_index(i));
            if cap == u16::MAX {
                return 0.05;
            }
            let base = 1.0 + f64::from(s.history[i]);
            let over = (f64::from(s.usage[i]) + 1.0 - f64::from(cap)).max(0.0);
            base * (1.0 + over * present)
        };
        let check = |s: &RouterScratch, when: &str| {
            for i in 0..n {
                assert_eq!(
                    s.eff_cost[i].to_bits(),
                    reference(s, i).to_bits(),
                    "node {i} {when}"
                );
            }
        };
        // 100 producer groups of 1–4 signals over a pool of 48 nodes, so
        // groups overlap each other and their own fan-out; paths need not
        // be connected for the accounting to be exercised
        let key = SignalKey {
            src_pe: cgra.pe_at(0, 0),
            dst_pe: cgra.pe_at(0, 1),
            start_time: 0,
            dst_slot: 1,
            delta: 1,
        };
        let mut groups = Vec::new();
        for producer in 0..100u32 {
            let lo = scratch.signals.len();
            scratch.clear_claims();
            for _ in 0..rng.gen_range(1..5) {
                let path: Vec<_> = (0..10)
                    .map(|_| {
                        let node = MrrgNodeId::from_index(rng.gen_range(0..48));
                        (node, rng.gen_range(0..4u32))
                    })
                    .collect();
                scratch.occupy_path(&mrrg, &path);
                scratch.signals.push(Signal {
                    edge_index: scratch.kept.len(),
                    producer,
                    key,
                });
                scratch.kept.push(Some(KeptRoute { key, path }));
            }
            groups.push(lo..scratch.signals.len());
        }
        let occupied = scratch.usage.clone();
        assert!(occupied.iter().any(|&u| u > 1), "sequence overuses nodes");
        check(&scratch, "after occupying");
        // releasing every other group and taking the same paths back
        // returns to the same table, through one that differs
        for group in groups.iter().step_by(2) {
            let paths: Vec<_> = group
                .clone()
                .map(|s| scratch.kept[s].as_ref().unwrap().path.clone())
                .collect();
            scratch.release(&mrrg, group.clone());
            check(&scratch, "after a release");
            assert_ne!(scratch.usage, occupied);
            for (s, path) in group.clone().zip(paths) {
                scratch.occupy_path(&mrrg, &path);
                scratch.kept[s] = Some(KeptRoute { key, path });
            }
            assert_eq!(scratch.usage, occupied);
        }
        for group in groups {
            scratch.release(&mrrg, group);
        }
        assert!(
            scratch.usage.iter().all(|&u| u == 0),
            "every unit given back"
        );
        check(&scratch, "when empty");
    }

    #[test]
    fn a_shared_fan_out_link_is_released_once() {
        // p feeds c1 and c2 further along the top row: both routes leave
        // through the same nodes in the same cycles, counted once
        let (cgra, mrrg) = setup(4);
        let mut b = DfgBuilder::new("fanout");
        let p = b.op(OpKind::Add, "p");
        let c1 = b.op(OpKind::Add, "c1");
        let c2 = b.op(OpKind::Add, "c2");
        b.data(p, c1);
        b.data(p, c2);
        let dfg = b.build().unwrap();
        let pe_of = [cgra.pe_at(0, 0), cgra.pe_at(0, 2), cgra.pe_at(0, 3)];
        let times = [0, 2, 3];
        let mut scratch = RouterScratch::default();
        let cfg = RouterConfig::default();
        let outcome = route_all(&mrrg, &cgra, &dfg, &pe_of, &times, &cfg, &mut scratch, None);
        assert!(outcome.is_clean());
        let paths: Vec<_> = scratch.kept.iter().flatten().map(|k| &k.path).collect();
        let shared: Vec<_> = paths[0]
            .iter()
            .filter(|hop| mrrg.capacity(hop.0) != u16::MAX && paths[1].contains(hop))
            .collect();
        assert!(shared.len() >= 2, "the two routes share the way out of p");
        for (n, _) in shared {
            assert_eq!(scratch.usage[n.index()], 1, "a broadcast share is one unit");
        }
        // a unit taken back twice would underflow, one kept would show
        scratch.release(&mrrg, 0..2);
        assert!(scratch.usage.iter().all(|&u| u == 0));
        assert!(scratch.kept.iter().all(Option::is_none));
    }

    /// Usage as [`Mapping::verify`](crate::Mapping::verify) counts it:
    /// distinct `(producer, node, elapsed)` over the routes, elapsed read
    /// off the MRRG edges.
    fn recount(mrrg: &Mrrg, dfg: &Dfg, routes: &[Option<Route>]) -> Vec<u16> {
        let mut seen = std::collections::HashSet::new();
        let mut usage = vec![0u16; mrrg.num_nodes()];
        for (e, route) in dfg.deps().zip(routes) {
            let Some(route) = route else { continue };
            let mut elapsed = 0u32;
            for (k, &n) in route.nodes.iter().enumerate() {
                if k > 0 {
                    let prev = route.nodes[k - 1];
                    let edge = mrrg.out_edges(prev).iter().find(|me| me.dst == n);
                    elapsed += u32::from(edge.expect("route follows MRRG edges").advance);
                }
                if mrrg.capacity(n) != u16::MAX && seen.insert((e.src, n, elapsed)) {
                    usage[n.index()] += 1;
                }
            }
        }
        usage
    }

    proptest::proptest! {
        /// Random graphs of adds on 4×4, placed one op per FU slot near
        /// their producers, then six random relocations / retimings with a
        /// `route_all` after each, all on one scratch.
        #[test]
        fn kept_routes_and_usage_stay_exact_across_calls(seed in 0u64..u64::MAX) {
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let ii = rng.gen_range(1..4usize);
            let (cgra, mrrg) = setup(ii);
            let n = rng.gen_range(4..15usize);
            let mut edges = Vec::new();
            for j in 1..n {
                for _ in 0..rng.gen_range(1..3) {
                    edges.push((rng.gen_range(0..j), j));
                }
            }
            // a PE within `radius` rows and columns of `pe`; retries widen
            // the radius so a free FU slot is always found
            let near = |rng: &mut SmallRng, pe: PeId, radius: usize| {
                let (row, col) = cgra.pe_position(pe);
                let mut shift = |x: usize| (x + rng.gen_range(0..=2 * radius)).saturating_sub(radius);
                cgra.pe_at(shift(row).min(3), shift(col).min(3))
            };
            let mut pe_of = vec![cgra.pe_at(1, 1); n];
            let mut times = vec![0usize; n];
            let mut taken = std::collections::HashSet::new();
            for j in 0..n {
                let preds: Vec<_> = edges.iter().filter(|e| e.1 == j).map(|e| e.0).collect();
                let anchor = preds.first().map_or(pe_of[j], |&i| pe_of[i]);
                for tries in 4.. {
                    let pe = near(&mut rng, anchor, tries / 4);
                    // every producer within reach, with cycles to spare
                    let reach = |&i: &usize| times[i] + cgra.manhattan(pe_of[i], pe).max(1);
                    let t = preds.iter().map(reach).max().unwrap_or(0) + rng.gen_range(0..tries / 2);
                    if taken.insert((pe, t % ii)) {
                        (pe_of[j], times[j]) = (pe, t);
                        break;
                    }
                }
            }
            let mut b = DfgBuilder::new("random");
            let ops: Vec<_> = (0..n).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
            for &(i, j) in &edges {
                b.data(ops[i], ops[j]);
            }
            // one recurrence, where the schedule leaves it room
            let fits = |&(i, j): &(usize, usize)| {
                times[i] + ii >= times[j] + cgra.manhattan(pe_of[i], pe_of[j]).max(1)
            };
            if let Some(&(i, j)) = edges.iter().find(|e| fits(e)) {
                b.back(ops[j], ops[i], 1);
            }
            let dfg = b.build().unwrap();

            let cfg = RouterConfig::default();
            let mut scratch = RouterScratch::default();
            let mut routed_before: Option<Vec<bool>> = None;
            let mut moved = 0;
            for _ in 0..7 {
                let outcome = route_all(&mrrg, &cgra, &dfg, &pe_of, &times, &cfg, &mut scratch, None);
                proptest::prop_assert_eq!(&outcome.usage, &recount(&mrrg, &dfg, &outcome.routes));
                if let Some(before) = &routed_before {
                    // exactly the moved op's signals lost their routes
                    let expect = dfg.deps().zip(before).filter(|(e, &was)| {
                        was && e.src.index() != moved && e.dst.index() != moved
                    });
                    proptest::prop_assert_eq!(outcome.kept, expect.count());
                }
                if outcome.is_clean() {
                    let routes: Vec<_> = outcome.routes.iter().flatten().cloned().collect();
                    let mapping = crate::Mapping::from_parts(
                        "test", ii, 1, times.clone(), pe_of.clone(), Some(routes),
                    );
                    proptest::prop_assert_eq!(mapping.verify(&dfg, &cgra), Ok(()));
                    // nothing to argue about: nothing is searched
                    let again = route_all(&mrrg, &cgra, &dfg, &pe_of, &times, &cfg, &mut scratch, None);
                    proptest::prop_assert_eq!(
                        (again.searches, again.kept, again.iterations),
                        (0, dfg.num_deps(), 1)
                    );
                    proptest::prop_assert_eq!(&again.routes, &outcome.routes);
                    proptest::prop_assert_eq!(&again.usage, &outcome.usage);
                }
                routed_before = Some(outcome.routes.iter().map(Option::is_some).collect());
                // relocate or retime one op onto a free FU slot
                moved = rng.gen_range(0..n);
                taken.remove(&(pe_of[moved], times[moved] % ii));
                for tries in 4.. {
                    let (pe, t) = if rng.gen_bool(0.5) {
                        (near(&mut rng, pe_of[moved], tries / 4), times[moved])
                    } else {
                        let later = times[moved] + rng.gen_range(0..=2 * (tries / 4));
                        (pe_of[moved], later.saturating_sub(tries / 4))
                    };
                    // mostly moves the schedule can carry, so that rounds
                    // negotiate instead of ending on an unreachable signal
                    let carried = dfg.deps().all(|e| {
                        let at = |op: OpId| match op.index() == moved {
                            true => (pe, t),
                            false => (pe_of[op.index()], times[op.index()]),
                        };
                        let ((src_pe, tu), (dst_pe, tv)) = (at(e.src), at(e.dst));
                        tv + e.weight.distance() as usize * ii
                            >= tu + cgra.manhattan(src_pe, dst_pe).max(1)
                    });
                    if (pe, t) != (pe_of[moved], times[moved])
                        && (carried || tries > 40)
                        && taken.insert((pe, t % ii))
                    {
                        (pe_of[moved], times[moved]) = (pe, t);
                        break;
                    }
                }
            }
        }
    }
}
