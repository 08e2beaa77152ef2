//! Cycle-level walk of a mapping: every routed token — one per
//! `(producer op, iteration)` — is pushed through the machine, claiming
//! each physical resource it visits at each absolute cycle. No values
//! are carried; occupancy is counted in tokens.

use panorama_arch::{Cgra, NodeKind};
use panorama_dfg::Dfg;
use panorama_mapper::Mapping;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Error found by [`simulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The mapping carries no routes (abstract mappers); nothing to
    /// execute cycle by cycle.
    NoRoutes,
    /// The mapping's tables do not match the DFG it is being simulated
    /// against — wrong op count or wrong route count. Indexing into a
    /// mismatched mapping would read garbage (or panic), so this is
    /// rejected up front; the differential fuzzer exercises exactly this
    /// class of truncated/foreign mappings.
    WrongShape {
        /// Ops in the mapping.
        ops: usize,
        /// Ops in the DFG.
        expected_ops: usize,
        /// Routes in the mapping.
        deps: usize,
        /// Dependencies in the DFG.
        expected_deps: usize,
    },
    /// More distinct tokens than its capacity occupied one physical
    /// resource in the same cycle — e.g. the modulo-wrap hazard where
    /// consecutive iterations of one producer collide in a register.
    ValueCollision {
        /// Physical resource kind.
        kind: NodeKind,
        /// Absolute cycle of the collision.
        cycle: u64,
        /// Distinct tokens present.
        values: usize,
        /// Resource capacity.
        cap: usize,
    },
    /// A route delivered its value in a cycle that does not match the
    /// consumer's schedule.
    ArrivalMismatch {
        /// DFG edge index.
        edge: usize,
    },
    /// A route starts somewhere other than its producer's output port, or
    /// ends on a node that does not feed its consumer's FU — the value
    /// physically travels to the wrong place even if the timing happens to
    /// line up (caught by mutation testing: a same-producer aliased route
    /// with a matching delta passed the timing-only walk).
    Misrouted {
        /// DFG edge index.
        edge: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoRoutes => write!(f, "mapping has no routes to simulate"),
            SimError::WrongShape {
                ops,
                expected_ops,
                deps,
                expected_deps,
            } => write!(
                f,
                "mapping shape mismatch: {ops} ops / {deps} routes vs DFG with {expected_ops} ops / {expected_deps} deps"
            ),
            SimError::ValueCollision {
                kind,
                cycle,
                values,
                cap,
            } => write!(
                f,
                "{values} distinct tokens on a {kind:?} resource at cycle {cycle} (capacity {cap})"
            ),
            SimError::ArrivalMismatch { edge } => {
                write!(f, "edge {edge} delivered its value at the wrong cycle")
            }
            SimError::Misrouted { edge } => {
                write!(
                    f,
                    "edge {edge}'s route does not connect its producer to its consumer"
                )
            }
        }
    }
}

impl Error for SimError {}

/// Outcome of a successful simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Loop iterations executed.
    pub iterations: usize,
    /// Absolute cycles covered (iterations pipelined at II, plus drain).
    pub cycles: u64,
    /// Operand deliveries walked from producer to consumer and found to
    /// arrive in the consumer's execution cycle.
    pub checked_deliveries: usize,
    /// Fraction of FU slots doing useful work over the steady state.
    pub fu_utilization: f64,
    /// Fraction of physical links carrying a value per steady-state cycle.
    pub link_utilization: f64,
}

/// Walks `iterations` pipelined loop iterations of `mapping` through
/// the MRRG: every route must leave its producer, follow MRRG edges,
/// arrive in its consumer's execution cycle, and no resource may hold
/// more distinct `(producer, iteration)` tokens in a cycle than its
/// capacity.
///
/// # Errors
///
/// See [`SimError`]; the first violation is reported.
pub fn simulate(
    dfg: &Dfg,
    cgra: &Cgra,
    mapping: &Mapping,
    iterations: usize,
) -> Result<SimReport, SimError> {
    let routes = mapping.routes().ok_or(SimError::NoRoutes)?;
    let mapped_ops = mapping.assignments().count();
    if mapped_ops != dfg.num_ops() || routes.len() != dfg.num_deps() {
        return Err(SimError::WrongShape {
            ops: mapped_ops,
            expected_ops: dfg.num_ops(),
            deps: routes.len(),
            expected_deps: dfg.num_deps(),
        });
    }
    let ii = mapping.ii() as u64;
    let mrrg = cgra.mrrg_shared(mapping.ii());

    // (physical resource, absolute cycle) → distinct tokens present, a
    // token being (producer op, iteration)
    let mut occupancy: HashMap<(u32, u64), HashSet<(usize, usize)>> = HashMap::new();
    let mut checked = 0usize;

    // claim FU slots with the op's output token
    for iter in 0..iterations {
        for op in dfg.op_ids() {
            let t = mapping.time_of(op) as u64 + iter as u64 * ii;
            let node = mrrg.fu(mapping.pe_of(op), mapping.time_of(op) % mapping.ii());
            occupancy
                .entry((mrrg.resource_of(node) as u32, t))
                .or_default()
                .insert((op.index(), iter));
        }
    }

    // walk every route instance, claiming resources along the way
    for (i, e) in dfg.deps().enumerate() {
        let route = &routes[i];
        let d = e.weight.distance() as i64;
        // spatial endpoints: the walk below only checks *when* the value
        // arrives; it must also leave from the producer's output port and
        // land on a node feeding the consumer's FU
        let src_slot = mapping.time_of(e.src) % mapping.ii();
        let dst_slot = mapping.time_of(e.dst) % mapping.ii();
        let starts_at_producer =
            route.nodes.first() == Some(&mrrg.out(mapping.pe_of(e.src), src_slot));
        let feeds_consumer = route.nodes.last().is_some_and(|&last| {
            mrrg.out_edges(last)
                .iter()
                .any(|me| me.dst == mrrg.fu(mapping.pe_of(e.dst), dst_slot))
        });
        if !starts_at_producer || !feeds_consumer {
            return Err(SimError::Misrouted { edge: i });
        }
        for iter in 0..iterations {
            // this instance carries the producer token of iteration `iter`
            // to the consumer of iteration `iter + d`; skip instances whose
            // consumer lies beyond the simulated horizon
            if iter as i64 + d >= iterations as i64 {
                continue;
            }
            let token = (e.src.index(), iter);
            let start = mapping.time_of(e.src) as u64 + iter as u64 * ii;
            let mut t = start;
            for w in route.nodes.windows(2) {
                let Some(advance) = mrrg
                    .out_edges(w[0])
                    .iter()
                    .find(|me| me.dst == w[1])
                    .map(|me| me.advance)
                else {
                    // consecutive nodes not MRRG-adjacent: the signal
                    // cannot physically take this path
                    return Err(SimError::Misrouted { edge: i });
                };
                if advance {
                    t += 1;
                }
                if mrrg.capacity(w[1]) != u16::MAX {
                    occupancy
                        .entry((mrrg.resource_of(w[1]) as u32, t))
                        .or_default()
                        .insert(token);
                }
            }
            // arrival: the consumer reads in its execution cycle
            let consumer_cycle = mapping.time_of(e.dst) as u64 + (iter as i64 + d) as u64 * ii;
            if t != consumer_cycle {
                return Err(SimError::ArrivalMismatch { edge: i });
            }
            checked += 1;
        }
    }

    // capacity check per (resource, cycle) over *distinct* tokens
    for ((res, cycle), tokens) in &occupancy {
        // reconstruct a node of this resource to query kind/capacity
        let node = panorama_arch::MrrgNodeId::from_index(*res as usize);
        let cap = mrrg.capacity(node) as usize;
        if tokens.len() > cap {
            return Err(SimError::ValueCollision {
                kind: mrrg.kind(node),
                cycle: *cycle,
                values: tokens.len(),
                cap,
            });
        }
    }

    // utilization over the steady state (one full II window mid-stream)
    let makespan = dfg.op_ids().map(|v| mapping.time_of(v)).max().unwrap_or(0) as u64;
    let cycles = makespan + iterations as u64 * ii + 1;
    let fu_utilization = dfg.num_ops() as f64 / (cgra.num_pes() as f64 * ii as f64);
    let links_in_use: HashSet<u32> = occupancy
        .keys()
        .filter(|(res, _)| {
            matches!(
                mrrg.kind(panorama_arch::MrrgNodeId::from_index(*res as usize)),
                NodeKind::Link { .. }
            )
        })
        .map(|(res, _)| *res)
        .collect();
    let link_utilization = links_in_use.len() as f64 / cgra.links().len().max(1) as f64;

    Ok(SimReport {
        iterations,
        cycles,
        checked_deliveries: checked,
        fu_utilization,
        link_utilization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, DfgBuilder, KernelId, KernelScale, OpKind};
    use panorama_mapper::{LowerLevelMapper, SprMapper, UltraFastMapper};

    fn cgra() -> Cgra {
        Cgra::new(CgraConfig::small_4x4()).unwrap()
    }

    #[test]
    fn tiny_kernels_simulate_clean() {
        for id in [KernelId::Fir, KernelId::Cordic, KernelId::Edn] {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let cgra = cgra();
            let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
            let report = simulate(&dfg, &cgra, &mapping, 5).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(report.iterations, 5);
            assert!(report.checked_deliveries > 0);
            assert!(report.fu_utilization > 0.0 && report.fu_utilization <= 1.0);
        }
    }

    #[test]
    fn recurrences_simulate_clean() {
        let mut b = DfgBuilder::new("rec");
        let l = b.op(OpKind::Load, "l");
        let a = b.op(OpKind::Add, "a");
        let s = b.op(OpKind::Store, "s");
        b.data(l, a);
        b.data(a, s);
        b.back(a, a, 1);
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        simulate(&dfg, &cgra, &mapping, 6).unwrap();
    }

    #[test]
    fn abstract_mapping_has_no_routes() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = cgra();
        let mapping = UltraFastMapper::default().map(&dfg, &cgra, None).unwrap();
        assert_eq!(simulate(&dfg, &cgra, &mapping, 2), Err(SimError::NoRoutes));
    }

    #[test]
    fn error_messages_are_meaningful() {
        assert!(SimError::NoRoutes.to_string().contains("no routes"));
        assert!(SimError::ArrivalMismatch { edge: 3 }
            .to_string()
            .contains("edge 3"));
        assert!(SimError::Misrouted { edge: 1 }
            .to_string()
            .contains("edge 1"));
    }

    #[test]
    fn zero_iterations_is_trivially_clean() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = cgra();
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        let report = simulate(&dfg, &cgra, &mapping, 0).unwrap();
        assert_eq!(report.checked_deliveries, 0);
    }
}

#[cfg(test)]
mod wrap_hazard_tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{DfgBuilder, OpKind};
    use panorama_mapper::{Mapping, Route};

    /// Hand-builds the modulo-wrap hazard: a producer's token parked in
    /// one register for 4 cycles at II = 2, so consecutive iterations
    /// collide. Historically the static checker deduplicated
    /// same-producer visits per node and missed this; the differential
    /// fuzzer caught the gap (simulate rejected a verified mapping) and
    /// verify now counts occupancy per `(producer, visit time)`. Both
    /// oracles must agree — for a `Const` producer too: its iterations
    /// carry the same word but are distinct tokens, and a register holds
    /// one (a value-keyed simulator used to wave this through).
    #[test]
    fn register_wrap_collision_is_caught() {
        for producer in [OpKind::Load, OpKind::Const] {
            let mut b = DfgBuilder::new("hazard");
            let u = b.op(producer, "u");
            let v = b.op(OpKind::Add, "v");
            b.data(u, v);
            let dfg = b.build().unwrap();
            let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
            let ii = 2;
            let mrrg = cgra.mrrg_shared(ii);
            let pe = cgra.pe_at(0, 0); // memory-capable

            // u at t=0, v at t=5 (delta 5 > II): value waits in register 0
            let path = vec![
                mrrg.out(pe, 0),
                mrrg.input(pe, 1),
                mrrg.reg_write(pe, 1),
                mrrg.reg(pe, 0, 0), // t=2 (slot 0)
                mrrg.reg(pe, 0, 1), // t=3
                mrrg.reg(pe, 0, 0), // t=4 — wraps onto slot 0 again
                mrrg.reg(pe, 0, 1), // t=5
                mrrg.reg_read(pe, 1),
            ];
            let mapping = Mapping::from_parts(
                "hand",
                ii,
                1,
                vec![0, 5],
                vec![pe, pe],
                Some(vec![Route {
                    edge_index: 0,
                    nodes: path,
                }]),
            );
            // the static checker sees the wrap: slot 0 of register 0 is
            // visited at t=2 and t=4, two iterations' tokens at once
            let verr = mapping.verify(&dfg, &cgra).unwrap_err();
            assert!(
                matches!(verr, panorama_mapper::VerifyError::CapacityExceeded { .. }),
                "{producer}: verify must count per (producer, time), got {verr:?}"
            );
            // executing two or more iterations exposes the same collision
            match simulate(&dfg, &cgra, &mapping, 3) {
                Err(SimError::ValueCollision { .. }) => {}
                other => panic!("{producer}: expected a token collision, got {other:?}"),
            }
        }
    }
}
