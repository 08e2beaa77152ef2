//! The result of a mapping attempt, with independent verification.

use panorama_arch::{Cgra, Ledger, MrrgNodeId, NodeKind, PeId};
use panorama_dfg::Dfg;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// A routed path for one DFG dependency: MRRG nodes from the producer's
/// broadcast point to the node feeding the consumer's FU, inclusive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Index of the DFG edge (in [`Dfg::deps`] order) this route realises.
    pub edge_index: usize,
    /// The MRRG nodes traversed, in order.
    pub nodes: Vec<MrrgNodeId>,
}

/// Counters describing the mapping effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MappingStats {
    /// IIs attempted before success.
    pub ii_attempts: usize,
    /// PathFinder iterations summed over all IIs.
    pub router_iterations: usize,
    /// Simulated-annealing placement moves applied.
    pub anneal_moves: usize,
    /// Wall-clock compile time.
    pub compile_time: Duration,
}

/// A complete mapping of a DFG onto a CGRA at some II.
///
/// Produced by the mappers in this crate; checked end-to-end by
/// [`Mapping::verify`].
#[derive(Debug, Clone)]
pub struct Mapping {
    pub(crate) mapper: &'static str,
    pub(crate) ii: usize,
    pub(crate) mii: usize,
    pub(crate) time_of: Vec<usize>,
    pub(crate) pe_of: Vec<PeId>,
    /// Concrete MRRG routes (SPR\*); `None` for abstract mappers
    /// (Ultra-Fast models the interconnect with a wiring budget instead).
    pub(crate) routes: Option<Vec<Route>>,
    pub(crate) stats: MappingStats,
}

impl Mapping {
    /// Assembles a mapping from raw parts — for importing externally
    /// computed mappings or constructing test fixtures. No validation is
    /// performed here; call [`Mapping::verify`] (and, for dynamic checks,
    /// `panorama-sim`'s `simulate`) on the result.
    pub fn from_parts(
        mapper: &'static str,
        ii: usize,
        mii: usize,
        time_of: Vec<usize>,
        pe_of: Vec<PeId>,
        routes: Option<Vec<Route>>,
    ) -> Self {
        Mapping {
            mapper,
            ii,
            mii,
            time_of,
            pe_of,
            routes,
            stats: MappingStats::default(),
        }
    }

    /// The mapper that produced this result.
    pub fn mapper(&self) -> &'static str {
        self.mapper
    }

    /// Achieved initiation interval.
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// The minimum possible II used as the QoM reference.
    pub fn mii(&self) -> usize {
        self.mii
    }

    /// Quality of mapping = MII / II (1.0 is optimal) — the paper's QoM
    /// metric from Figures 7 and 9.
    pub fn qom(&self) -> f64 {
        self.mii as f64 / self.ii as f64
    }

    /// Absolute schedule time of operation `op`.
    pub fn time_of(&self, op: panorama_dfg::OpId) -> usize {
        self.time_of[op.index()]
    }

    /// PE executing operation `op`.
    pub fn pe_of(&self, op: panorama_dfg::OpId) -> PeId {
        self.pe_of[op.index()]
    }

    /// Per-op `(cycle, PE)` assignments in DFG op order.
    pub fn assignments(&self) -> impl Iterator<Item = (usize, PeId)> + '_ {
        self.time_of.iter().copied().zip(self.pe_of.iter().copied())
    }

    /// Routed paths, when the mapper produced concrete routes.
    pub fn routes(&self) -> Option<&[Route]> {
        self.routes.as_deref()
    }

    /// Compile-effort counters.
    pub fn stats(&self) -> &MappingStats {
        &self.stats
    }

    /// Deterministic hash of the mapping's *content*: producing mapper,
    /// II, MII, schedule, placement and routes — everything a report
    /// renders, nothing timing-dependent ([`MappingStats`] is excluded).
    /// Two mappings with equal content hashes produce byte-identical
    /// reports, which is what the determinism tests and the benchmark's
    /// per-kernel `hash` rows compare.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.mapper.hash(&mut h);
        self.ii.hash(&mut h);
        self.mii.hash(&mut h);
        self.time_of.hash(&mut h);
        for pe in &self.pe_of {
            pe.index().hash(&mut h);
        }
        match &self.routes {
            None => h.write_u8(0),
            Some(routes) => {
                h.write_u8(1);
                for r in routes {
                    r.edge_index.hash(&mut h);
                    for n in &r.nodes {
                        n.index().hash(&mut h);
                    }
                    h.write_usize(usize::MAX); // route terminator
                }
            }
        }
        h.finish()
    }

    /// Independently re-checks the mapping against `dfg` and `cgra`:
    /// placement legality (FU exclusivity, memory PEs), schedule timing,
    /// and — when routes are present — route connectivity, exact route
    /// latency, and MRRG capacity limits.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`VerifyError`].
    pub fn verify(&self, dfg: &Dfg, cgra: &Cgra) -> Result<(), VerifyError> {
        let n = dfg.num_ops();
        if self.time_of.len() != n || self.pe_of.len() != n {
            return Err(VerifyError::WrongShape);
        }
        // FU exclusivity and memory-capability
        let mut fu_used: HashMap<(PeId, usize), usize> = HashMap::new();
        for v in dfg.op_ids() {
            let pe = self.pe_of[v.index()];
            let slot = self.time_of[v.index()] % self.ii;
            if dfg.op(v).kind.needs_memory() && !cgra.is_mem_pe(pe) {
                return Err(VerifyError::MemOpOnComputePe { op: v.index() });
            }
            if dfg.op(v).kind == panorama_dfg::OpKind::Mul && !cgra.has_multiplier(pe) {
                return Err(VerifyError::MulOnPlainPe { op: v.index() });
            }
            if let Some(&other) = fu_used.get(&(pe, slot)) {
                return Err(VerifyError::FuConflict {
                    a: other,
                    b: v.index(),
                });
            }
            fu_used.insert((pe, slot), v.index());
        }
        // dependence timing
        for (i, e) in dfg.deps().enumerate() {
            let tu = self.time_of[e.src.index()] as i64;
            let tv = self.time_of[e.dst.index()] as i64;
            let lat = dfg.op(e.src).kind.latency() as i64;
            let dist = e.weight.distance() as i64;
            if tv < tu + lat - dist * self.ii as i64 {
                return Err(VerifyError::DependenceViolated { edge: i });
            }
        }

        let Some(routes) = &self.routes else {
            return Ok(());
        };
        if routes.len() != dfg.num_deps() {
            return Err(VerifyError::WrongShape);
        }
        let mrrg = cgra.mrrg_shared(self.ii);
        // every route hop claims its node at its visit time (see `Ledger`)
        let mut ledger = Ledger::default();
        for (i, e) in dfg.deps().enumerate() {
            let route = &routes[i];
            if route.edge_index != i || route.nodes.is_empty() {
                return Err(VerifyError::RouteMissing { edge: i });
            }
            let pe_u = self.pe_of[e.src.index()];
            let pe_v = self.pe_of[e.dst.index()];
            let tu = self.time_of[e.src.index()];
            let tv = self.time_of[e.dst.index()];
            let expected_delta =
                tv as i64 + (e.weight.distance() as i64) * self.ii as i64 - tu as i64;
            // starts at the producer's broadcast point
            if route.nodes[0] != mrrg.out(pe_u, tu % self.ii) {
                return Err(VerifyError::RouteEndpoint { edge: i });
            }
            // consecutive nodes are MRRG-adjacent; count time advances and
            // claim every node at its visit time
            let producer = e.src.index();
            let mut delta = 0i64;
            ledger.claim(route.nodes[0], producer, tu as i64);
            for w in route.nodes.windows(2) {
                let Some(edge) = mrrg.out_edges(w[0]).find(|me| me.dst == w[1]) else {
                    return Err(VerifyError::RouteDisconnected { edge: i });
                };
                delta += i64::from(edge.advance);
                ledger.claim(w[1], producer, tu as i64 + delta);
            }
            if delta != expected_delta {
                return Err(VerifyError::RouteLatency {
                    edge: i,
                    got: delta,
                    want: expected_delta,
                });
            }
            // terminates at a node feeding the consumer's FU
            let last = *route.nodes.last().expect("nonempty");
            let feeds_fu = mrrg
                .out_edges(last)
                .any(|me| me.dst == mrrg.fu(pe_v, tv % self.ii));
            if !feeds_fu {
                return Err(VerifyError::RouteEndpoint { edge: i });
            }
        }
        match ledger.overflow(&mrrg) {
            Some((node, used)) => Err(VerifyError::CapacityExceeded {
                kind: mrrg.kind(node),
                used,
                cap: usize::from(mrrg.capacity(node)),
            }),
            None => Ok(()),
        }
    }
}

/// An invariant violated by a [`Mapping`], found by [`Mapping::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Vectors don't match the DFG's shape.
    WrongShape,
    /// Two ops share one FU time slot.
    FuConflict {
        /// First op index.
        a: usize,
        /// Second op index.
        b: usize,
    },
    /// A load/store sits on a PE without memory access.
    MemOpOnComputePe {
        /// Op index.
        op: usize,
    },
    /// A multiply sits on a PE without a multiplier (heterogeneous CGRA).
    MulOnPlainPe {
        /// Op index.
        op: usize,
    },
    /// Schedule times violate a dependence.
    DependenceViolated {
        /// DFG edge index.
        edge: usize,
    },
    /// An edge has no route.
    RouteMissing {
        /// DFG edge index.
        edge: usize,
    },
    /// Route endpoints don't match the placement.
    RouteEndpoint {
        /// DFG edge index.
        edge: usize,
    },
    /// Adjacent route nodes are not connected in the MRRG.
    RouteDisconnected {
        /// DFG edge index.
        edge: usize,
    },
    /// Route time-advance count differs from the schedule distance.
    RouteLatency {
        /// DFG edge index.
        edge: usize,
        /// Advances found on the route.
        got: i64,
        /// Advances the schedule requires.
        want: i64,
    },
    /// More signals than capacity on an MRRG node.
    CapacityExceeded {
        /// Node kind.
        kind: NodeKind,
        /// Signals using the node.
        used: usize,
        /// Node capacity.
        cap: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::WrongShape => write!(f, "mapping shape does not match the DFG"),
            VerifyError::FuConflict { a, b } => {
                write!(f, "ops {a} and {b} share an FU time slot")
            }
            VerifyError::MemOpOnComputePe { op } => {
                write!(f, "memory op {op} placed on a PE without memory access")
            }
            VerifyError::MulOnPlainPe { op } => {
                write!(f, "multiply {op} placed on a PE without a multiplier")
            }
            VerifyError::DependenceViolated { edge } => {
                write!(f, "schedule violates dependence of edge {edge}")
            }
            VerifyError::RouteMissing { edge } => write!(f, "edge {edge} has no route"),
            VerifyError::RouteEndpoint { edge } => {
                write!(f, "route of edge {edge} does not match its placement")
            }
            VerifyError::RouteDisconnected { edge } => {
                write!(f, "route of edge {edge} uses non-adjacent MRRG nodes")
            }
            VerifyError::RouteLatency { edge, got, want } => {
                write!(
                    f,
                    "route of edge {edge} advances {got} cycles, schedule needs {want}"
                )
            }
            VerifyError::CapacityExceeded { kind, used, cap } => {
                write!(f, "{kind:?} node used by {used} signals (capacity {cap})")
            }
        }
    }
}

impl Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LowerLevelMapper, SprMapper};
    use panorama_arch::CgraConfig;
    use panorama_dfg::{DfgBuilder, OpKind};

    fn mapped_chain() -> (panorama_dfg::Dfg, Cgra, Mapping) {
        let mut b = DfgBuilder::new("chain");
        let n: Vec<_> = (0..4).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
        for w in n.windows(2) {
            b.data(w[0], w[1]);
        }
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        (dfg, cgra, mapping)
    }

    #[test]
    fn clean_mapping_verifies() {
        let (dfg, cgra, mapping) = mapped_chain();
        mapping.verify(&dfg, &cgra).unwrap();
    }

    #[test]
    fn corrupted_placement_is_caught() {
        let (dfg, cgra, mut mapping) = mapped_chain();
        // force two ops onto the same PE and slot
        mapping.pe_of[1] = mapping.pe_of[0];
        mapping.time_of[1] = mapping.time_of[0];
        assert!(matches!(
            mapping.verify(&dfg, &cgra),
            Err(VerifyError::FuConflict { .. } | VerifyError::DependenceViolated { .. })
        ));
    }

    #[test]
    fn corrupted_schedule_is_caught() {
        let (dfg, cgra, mut mapping) = mapped_chain();
        // consumer before producer
        mapping.time_of[1] = 0;
        mapping.time_of[0] = 5;
        let err = mapping.verify(&dfg, &cgra).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::DependenceViolated { .. } | VerifyError::FuConflict { .. }
        ));
    }

    #[test]
    fn truncated_route_is_caught() {
        let (dfg, cgra, mut mapping) = mapped_chain();
        if let Some(routes) = &mut mapping.routes {
            routes[0].nodes.truncate(1);
        }
        let err = mapping.verify(&dfg, &cgra).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::RouteLatency { .. }
                | VerifyError::RouteEndpoint { .. }
                | VerifyError::RouteDisconnected { .. }
        ));
    }

    #[test]
    fn missing_route_is_caught() {
        let (dfg, cgra, mut mapping) = mapped_chain();
        if let Some(routes) = &mut mapping.routes {
            routes[0].nodes.clear();
        }
        assert!(matches!(
            mapping.verify(&dfg, &cgra),
            Err(VerifyError::RouteMissing { edge: 0 })
        ));
    }

    #[test]
    fn mem_op_on_compute_pe_is_caught() {
        let mut b = DfgBuilder::new("mem");
        let l = b.op(OpKind::Load, "l");
        let a = b.op(OpKind::Add, "a");
        b.data(l, a);
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mut mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        // move the load to a non-memory PE (column 1)
        mapping.pe_of[l.index()] = cgra.pe_at(0, 1);
        let err = mapping.verify(&dfg, &cgra).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::MemOpOnComputePe { .. }
                | VerifyError::FuConflict { .. }
                | VerifyError::RouteEndpoint { .. }
        ));
    }

    #[test]
    fn wrong_shape_is_caught() {
        let (dfg, cgra, mut mapping) = mapped_chain();
        mapping.pe_of.pop();
        assert_eq!(mapping.verify(&dfg, &cgra), Err(VerifyError::WrongShape));
    }

    // --- from_parts fixtures: each corruption yields its exact variant ---

    fn pair_dfg() -> panorama_dfg::Dfg {
        let mut b = DfgBuilder::new("pair");
        let x = b.op(OpKind::Add, "x");
        let y = b.op(OpKind::Add, "y");
        b.data(x, y);
        b.build().unwrap()
    }

    #[test]
    fn unplaced_op_is_wrong_shape() {
        let dfg = pair_dfg();
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        // only one of the two ops is placed/scheduled
        let mapping = Mapping::from_parts("fixture", 1, 1, vec![0], vec![cgra.pe_at(0, 1)], None);
        assert_eq!(mapping.verify(&dfg, &cgra), Err(VerifyError::WrongShape));
    }

    #[test]
    fn modulo_time_resource_conflict_is_fu_conflict() {
        // two independent ops, no deps — the only possible violation is the
        // FU slot
        let mut b = DfgBuilder::new("par");
        let _x = b.op(OpKind::Add, "x");
        let _y = b.op(OpKind::Add, "y");
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let pe = cgra.pe_at(1, 1);
        // absolute times 0 and 2 alias at II 2: same PE, same modulo slot
        let mapping = Mapping::from_parts("fixture", 2, 1, vec![0, 2], vec![pe, pe], None);
        assert_eq!(
            mapping.verify(&dfg, &cgra),
            Err(VerifyError::FuConflict { a: 0, b: 1 })
        );
    }

    #[test]
    fn route_jumping_between_non_adjacent_nodes_is_disconnected() {
        let dfg = pair_dfg();
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let ii = 2;
        let mrrg = cgra.mrrg(ii);
        let pe_u = cgra.pe_at(0, 1);
        let pe_v = cgra.pe_at(0, 2);
        // correct start, then a teleport across the array
        let bad = Route {
            edge_index: 0,
            nodes: vec![mrrg.out(pe_u, 0), mrrg.out(cgra.pe_at(3, 3), 1)],
        };
        let mapping = Mapping::from_parts(
            "fixture",
            ii,
            1,
            vec![0, 1],
            vec![pe_u, pe_v],
            Some(vec![bad]),
        );
        assert_eq!(
            mapping.verify(&dfg, &cgra),
            Err(VerifyError::RouteDisconnected { edge: 0 })
        );
    }

    #[test]
    fn route_starting_away_from_the_producer_is_endpoint_mismatch() {
        let dfg = pair_dfg();
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let ii = 2;
        let mrrg = cgra.mrrg(ii);
        let pe_u = cgra.pe_at(0, 1);
        let pe_v = cgra.pe_at(0, 2);
        // the route claims the value originates at the *consumer's* PE
        let bad = Route {
            edge_index: 0,
            nodes: vec![mrrg.out(pe_v, 0)],
        };
        let mapping = Mapping::from_parts(
            "fixture",
            ii,
            1,
            vec![0, 1],
            vec![pe_u, pe_v],
            Some(vec![bad]),
        );
        assert_eq!(
            mapping.verify(&dfg, &cgra),
            Err(VerifyError::RouteEndpoint { edge: 0 })
        );
    }

    #[test]
    fn two_overflows_name_the_lower_numbered_node_on_every_call() {
        // a → c, b → d and a → e along the top row at II 2: a and b both
        // cross the link (0,1) → (0,2) in cycle 1 and both sit in register
        // 0 of (0,2) in cycle 3, so a link and a register each hold two
        // values at capacity 1
        let mut b = DfgBuilder::new("two-overflows");
        let ops: Vec<_> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|&name| b.op(OpKind::Add, name))
            .collect();
        b.data(ops[0], ops[2]);
        b.data(ops[1], ops[3]);
        b.data(ops[0], ops[4]);
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let mrrg = cgra.mrrg(2);
        let pe: Vec<PeId> = (0..4).map(|c| cgra.pe_at(0, c)).collect();
        let link = |from: usize, t: usize| {
            let hop = |l: &panorama_arch::Link| l.src == pe[from] && l.dst == pe[from + 1];
            mrrg.link_node(cgra.links().iter().position(hop).unwrap(), t)
        };
        let to_c = vec![mrrg.out(pe[0], 0), link(0, 0), mrrg.input(pe[1], 1)];
        let to_c = [
            to_c,
            vec![mrrg.out(pe[1], 1), link(1, 1), mrrg.input(pe[2], 0)],
        ]
        .concat();
        let parked = [mrrg.reg_write(pe[2], 0), mrrg.reg(pe[2], 0, 1)];
        let mut to_e = [to_c.clone(), parked.to_vec()].concat();
        to_e.extend([
            mrrg.reg(pe[2], 0, 0),
            mrrg.reg_read(pe[2], 0),
            mrrg.out(pe[2], 0),
        ]);
        to_e.extend([link(2, 0), mrrg.input(pe[3], 1)]);
        let to_d = [mrrg.out(pe[1], 1), link(1, 1), mrrg.input(pe[2], 0)];
        let to_d = [&to_d[..], &parked, &[mrrg.reg_read(pe[2], 1)]].concat();
        let routes = [to_c, to_d, to_e]
            .into_iter()
            .enumerate()
            .map(|(edge_index, nodes)| Route { edge_index, nodes })
            .collect();
        let mapping = Mapping::from_parts(
            "fixture",
            2,
            1,
            vec![0, 1, 2, 3, 5],
            vec![pe[0], pe[1], pe[2], pe[2], pe[3]],
            Some(routes),
        );
        let (reg, link) = (mrrg.reg(pe[2], 0, 1), link(1, 1));
        assert!(reg < link);
        assert_ne!(mrrg.kind(reg), mrrg.kind(link));
        for _ in 0..16 {
            assert_eq!(
                mapping.verify(&dfg, &cgra),
                Err(VerifyError::CapacityExceeded {
                    kind: mrrg.kind(reg),
                    used: 2,
                    cap: 1,
                })
            );
        }
    }

    #[test]
    fn verify_errors_have_messages() {
        for e in [
            VerifyError::WrongShape,
            VerifyError::FuConflict { a: 1, b: 2 },
            VerifyError::MemOpOnComputePe { op: 3 },
            VerifyError::DependenceViolated { edge: 4 },
            VerifyError::RouteMissing { edge: 5 },
            VerifyError::RouteEndpoint { edge: 6 },
            VerifyError::RouteDisconnected { edge: 7 },
            VerifyError::RouteLatency {
                edge: 8,
                got: 1,
                want: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn qom_is_mii_over_ii() {
        let (_, _, mapping) = mapped_chain();
        assert!((mapping.qom() - mapping.mii() as f64 / mapping.ii() as f64).abs() < 1e-12);
        assert!(!mapping.mapper().is_empty());
    }
}
