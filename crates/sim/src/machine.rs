//! The one cycle machine: it replays a mapping's configware — the per-PE
//! control words cycled every II — on a model of the fabric, and both
//! [`simulate`] and `panorama_exec::execute` run it.
//!
//! Every input latch, link latch and register holds a *token*: the op
//! that produced it, the loop iteration it belongs to, and its value. A
//! latch that nothing drove holds a *bubble*. The machine never consults
//! the mapping or the DFG's edges; the DFG serves only as a symbol table
//! (op names and immediates).
//!
//! ## Cycle model
//!
//! Within one cycle, in order:
//!
//! 1. **Latch** — values driven last cycle (onto links or local
//!    forwarding slots) sit in the destination PE's input latches.
//! 2. **Compute** — each PE whose word programs an op fires its FU,
//!    reading operands from input latches and register files
//!    (start-of-cycle state). The FU result is available to this PE's
//!    own drives in the same cycle (the MRRG's fu→out edge).
//! 3. **Drive** — link, forwarding-slot and register-write sources are
//!    resolved; link/forward values latch at their destination *next*
//!    cycle, register writes commit at end of cycle.
//!
//! Input latches hold a value for exactly one cycle; registers hold
//! until overwritten.
//!
//! ## Firing indices
//!
//! An op scheduled at time `t = phase·II + slot` fires whenever
//! `cycle ≡ slot (mod II)`. The word's `phase` masks the first `phase`
//! firings (prologue), so post-mask firing `j` computes exactly loop
//! iteration `j`. An operand with dependence distance `d` must hold the
//! producer's token of iteration `j − d`; for `j < d` the machine
//! substitutes the producer's pre-loop initial value (the preloaded
//! recurrence register), mirroring the reference interpreter.
//!
//! ## What fails
//!
//! A firing whose operand holds a bubble or another token, a port that
//! holds more distinct tokens in a cycle than its MRRG capacity (links,
//! input muxes, register-file write and read ports), a register read
//! that finds a later token than the one it wants (the modulo-wrap
//! hazard), and an op that never produced some iteration inside the
//! horizon (two ops lowered onto one control word).

use crate::semantics::{initial_value, op_value, InputVectors, VectorKind};
use panorama_arch::{Cgra, Ledger, Mrrg, MrrgNodeId, NodeKind, PeId};
use panorama_dfg::Dfg;
use panorama_mapper::{ConfigWord, Configware, InPort, Mapping, Route, ValueSource};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Error found by [`simulate`] and [`run_machine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The mapping carries no routes (abstract mappers); nothing to
    /// lower to control words.
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
    /// A route starts somewhere other than its producer's output port,
    /// ends on a node that does not feed its consumer's FU, or steps
    /// between two nodes the MRRG does not connect.
    Misrouted {
        /// DFG edge index.
        edge: usize,
    },
    /// A firing read a bubble: no token was latched where an operand
    /// select points.
    MissingToken {
        /// Index of the starving op.
        op: usize,
        /// Loop iteration of the firing.
        iteration: usize,
        /// Which operand (position in the op's dependence order).
        operand: usize,
    },
    /// A firing found another token than its operand's producer and
    /// iteration at an input latch: the value arrived at the wrong time or
    /// from the wrong op.
    WrongToken {
        /// Index of the consuming op.
        op: usize,
        /// Loop iteration of the firing.
        iteration: usize,
        /// Which operand (position in the op's dependence order).
        operand: usize,
        /// `(producer op, iteration)` of the token found.
        found: (usize, usize),
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
    /// An op produced no token for an iteration inside the horizon: no
    /// control word fires it.
    Unfired {
        /// Index of the op.
        op: usize,
        /// The first iteration it missed.
        iteration: usize,
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
            SimError::Misrouted { edge } => {
                write!(
                    f,
                    "edge {edge}'s route does not connect its producer to its consumer"
                )
            }
            SimError::MissingToken {
                op,
                iteration,
                operand,
            } => write!(
                f,
                "op #{op} iteration {iteration} operand {operand} read a bubble: \
                 no token was latched at the selected port"
            ),
            SimError::WrongToken {
                op,
                iteration,
                operand,
                found: (producer, its),
            } => write!(
                f,
                "op #{op} iteration {iteration} operand {operand} read the token of \
                 op #{producer} iteration {its}"
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
            SimError::Unfired { op, iteration } => {
                write!(f, "op #{op} never fired for iteration {iteration}")
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
    /// Operand deliveries that found their producer's token of the right
    /// iteration in the consumer's execution cycle.
    pub checked_deliveries: usize,
    /// Fraction of FU slots doing useful work over the steady state.
    pub fu_utilization: f64,
    /// Fraction of physical links carrying a value per steady-state cycle.
    pub link_utilization: f64,
}

/// Lowers `mapping` to its configware and runs `iterations` pipelined
/// loop iterations of it on the cycle machine ([`run_machine`]).
///
/// # Errors
///
/// See [`SimError`]; the route-shape guard ([`check_routes`]) runs first,
/// then the first violation the machine meets is reported.
pub fn simulate(
    dfg: &Dfg,
    cgra: &Cgra,
    mapping: &Mapping,
    iterations: usize,
) -> Result<SimReport, SimError> {
    let routes = check_routes(dfg, cgra, mapping)?;
    let cfg = Configware::generate(dfg, cgra, mapping);
    let inputs = InputVectors::new(VectorKind::Zeros, 0);
    let run = run_machine(dfg, cgra, &cfg, &inputs, iterations)?;

    let ii = mapping.ii() as u64;
    let makespan = dfg.op_ids().map(|v| mapping.time_of(v)).max().unwrap_or(0) as u64;
    let cycles = makespan + iterations as u64 * ii + 1;
    let fu_utilization = dfg.num_ops() as f64 / (cgra.num_pes() as f64 * ii as f64);
    // a link is in use when a route delivering inside the horizon crosses it
    let mrrg = cgra.mrrg_shared(mapping.ii());
    let links_in_use: HashSet<u32> = (dfg.deps().zip(routes))
        .filter(|(e, _)| (e.weight.distance() as usize) < iterations)
        .flat_map(|(_, route)| &route.nodes)
        .filter_map(|&node| match mrrg.kind(node) {
            NodeKind::Link { index } => Some(index),
            _ => None,
        })
        .collect();
    let link_utilization = links_in_use.len() as f64 / cgra.links().len().max(1) as f64;

    Ok(SimReport {
        iterations,
        cycles,
        checked_deliveries: run.deliveries,
        fu_utilization,
        link_utilization,
    })
}

/// The route-shape guard, and [`Configware::generate`]'s precondition:
/// the mapping has routes, its tables match `dfg`, and every route leaves
/// its producer's output port, follows MRRG edges and ends on a node
/// feeding its consumer's FU. Returns the routes.
///
/// # Errors
///
/// [`SimError::NoRoutes`], [`SimError::WrongShape`] or
/// [`SimError::Misrouted`].
pub fn check_routes<'m>(
    dfg: &Dfg,
    cgra: &Cgra,
    mapping: &'m Mapping,
) -> Result<&'m [Route], SimError> {
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
    let ii = mapping.ii();
    let mrrg = cgra.mrrg_shared(ii);
    for (edge, (e, route)) in dfg.deps().zip(routes).enumerate() {
        let src = mrrg.out(mapping.pe_of(e.src), mapping.time_of(e.src) % ii);
        let dst = mrrg.fu(mapping.pe_of(e.dst), mapping.time_of(e.dst) % ii);
        let adjacent = |a: MrrgNodeId, b: MrrgNodeId| mrrg.out_edges(a).any(|me| me.dst == b);
        let connected = route.nodes.windows(2).all(|w| adjacent(w[0], w[1]));
        let feeds_consumer = route.nodes.last().is_some_and(|&last| adjacent(last, dst));
        if route.nodes.first() != Some(&src) || !connected || !feeds_consumer {
            return Err(SimError::Misrouted { edge });
        }
    }
    Ok(routes)
}

/// A value in flight: the op that produced it, its loop iteration and
/// the word itself.
#[derive(Debug, Clone, Copy)]
struct Token {
    producer: usize,
    iteration: usize,
    value: u64,
}

impl Token {
    fn id(self) -> (usize, usize) {
        (self.producer, self.iteration)
    }
}

/// Every op's value per iteration, read off a clean run of the machine.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// `values[op][iter]`.
    values: Vec<Vec<u64>>,
    /// Operand reads inside the horizon that found the token they wanted.
    deliveries: usize,
}

impl MachineRun {
    /// The value op `op_index` produced in iteration `iter`.
    pub fn value(&self, op_index: usize, iter: usize) -> u64 {
        self.values[op_index][iter]
    }
}

/// Fabric state at the start of a cycle, and the tokens the ports of the
/// current cycle have claimed so far: each port's MRRG node holds its
/// token's producer at the token's iteration.
struct Fabric<'a> {
    mrrg: &'a Mrrg,
    slot: usize,
    regs: HashMap<(PeId, u8), Option<Token>>,
    latch: HashMap<(PeId, InPort), Option<Token>>,
    claims: Ledger,
}

impl Fabric<'_> {
    fn claim(&mut self, port: MrrgNodeId, token: Option<Token>) {
        if let Some(token) = token {
            self.claims
                .claim(port, token.producer, token.iteration as i64);
        }
    }

    /// What `source` holds on `pe` this cycle; a register read claims one
    /// of the PE's read ports.
    fn read(&mut self, pe: PeId, source: ValueSource, fu: Option<Token>) -> Option<Token> {
        match source {
            ValueSource::FuResult => fu,
            ValueSource::Input(port) => self.latch.get(&(pe, port)).copied().flatten(),
            ValueSource::Register(r) => {
                let token = self.regs.get(&(pe, r)).copied().flatten();
                self.claim(self.mrrg.reg_read(pe, self.slot), token);
                token
            }
        }
    }

    /// Fails on the lowest-numbered port whose distinct tokens outnumber
    /// its capacity, then forgets this cycle's claims.
    fn settle(&mut self, cycle: usize) -> Result<(), SimError> {
        match self.claims.overflow(self.mrrg) {
            Some((port, values)) => Err(SimError::ValueCollision {
                kind: self.mrrg.kind(port),
                cycle: cycle as u64,
                values,
                cap: usize::from(self.mrrg.capacity(port)),
            }),
            None => Ok(()),
        }
    }
}

/// Replays `cfg` on the fabric for `iterations` loop iterations under
/// `inputs`, collecting every op's value stream.
///
/// `dfg` is used only as a symbol table (names and immediates); the
/// schedule, routing and operand wiring all come from the control words.
///
/// # Errors
///
/// The first [`SimError`] the machine meets, in cycle order.
///
/// # Panics
///
/// Panics when `cfg` was generated for another fabric than `cgra`.
pub fn run_machine(
    dfg: &Dfg,
    cgra: &Cgra,
    cfg: &Configware,
    inputs: &InputVectors,
    iterations: usize,
) -> Result<MachineRun, SimError> {
    let ii = cfg.ii();
    let mut values: Vec<Vec<Option<u64>>> = vec![vec![None; iterations]; dfg.num_ops()];
    let mut deliveries = 0;
    if iterations > 0 && ii > 0 {
        // words grouped per modulo slot, in deterministic (BTreeMap) order
        let mut by_slot: Vec<Vec<(PeId, &ConfigWord)>> = vec![Vec::new(); ii];
        let mut max_time = 0usize;
        for (&(pe, slot), w) in cfg.words() {
            by_slot[slot].push((pe, w));
            if w.op.is_some() {
                max_time = max_time.max(w.phase as usize * ii + slot);
            }
        }
        let mrrg = cgra.mrrg_shared(ii);
        let mut fabric = Fabric {
            mrrg: &mrrg,
            slot: 0,
            regs: HashMap::new(),
            latch: HashMap::new(),
            claims: Ledger::default(),
        };
        let mut next_latch: HashMap<(PeId, InPort), Option<Token>> = HashMap::new();

        // steady-state horizon: the latest op completes iteration
        // `iterations - 1` at cycle max_time + (iterations - 1) * II
        for c in 0..=max_time + (iterations - 1) * ii {
            let slot = c % ii;
            fabric.slot = slot;
            // 1. latch: last cycle's drives occupy the input muxes
            for (&(pe, _), token) in &fabric.latch {
                if let Some(token) = token {
                    let port = mrrg.input(pe, slot);
                    fabric
                        .claims
                        .claim(port, token.producer, token.iteration as i64);
                }
            }
            let mut reg_commits: Vec<((PeId, u8), Option<Token>)> = Vec::new();
            for &(pe, w) in &by_slot[slot] {
                // 2. compute the FU
                let mut fu = None;
                let t = w.phase as usize * ii + slot;
                if let Some((op, _)) = w.op.filter(|_| c >= t) {
                    let j = (c - t) / ii; // post-mask firing = loop iteration
                    let mut operands = Vec::with_capacity(w.operands.len());
                    for (operand, sel) in w.operands.iter().enumerate() {
                        let Some(iteration) = j.checked_sub(sel.skip as usize) else {
                            // pre-loop iteration: preloaded initial value
                            operands.push(initial_value(&dfg.op(sel.producer).name));
                            continue;
                        };
                        // the FU's own result of this cycle is no operand:
                        // reading it yields a bubble
                        let token =
                            (fabric.read(pe, sel.source, None)).ok_or(SimError::MissingToken {
                                op: op.index(),
                                iteration: j,
                                operand,
                            })?;
                        if token.id() != (sel.producer.index(), iteration) {
                            let overwritten = token.producer != sel.producer.index()
                                || token.iteration > iteration;
                            return Err(match sel.source {
                                // the register had to hold two tokens at once
                                ValueSource::Register(r) if overwritten => {
                                    let reg = mrrg.reg(pe, usize::from(r), slot);
                                    SimError::ValueCollision {
                                        kind: mrrg.kind(reg),
                                        cycle: c as u64,
                                        values: 2,
                                        cap: usize::from(mrrg.capacity(reg)),
                                    }
                                }
                                _ => SimError::WrongToken {
                                    op: op.index(),
                                    iteration: j,
                                    operand,
                                    found: token.id(),
                                },
                            });
                        }
                        operands.push(token.value);
                        deliveries += usize::from(j < iterations);
                    }
                    let value = op_value(dfg.op(op), j as u64, &operands, inputs);
                    fu = Some(Token {
                        producer: op.index(),
                        iteration: j,
                        value,
                    });
                    if j < iterations {
                        values[op.index()][j] = Some(value);
                    }
                }
                // 3. drive: links and forwarding slots latch next cycle,
                // register writes commit at the end of this one
                for &(l, src) in &w.link_drives {
                    let token = fabric.read(pe, src, fu);
                    fabric.claim(mrrg.link_node(l as usize, slot), token);
                    let sink = cgra.links()[l as usize].dst;
                    next_latch.insert((sink, InPort::Link(l)), token);
                }
                for (k, &src) in w.loop_drives.iter().enumerate() {
                    let port = InPort::Loop(u8::try_from(k).expect("loop slots fit in u8"));
                    next_latch.insert((pe, port), fabric.read(pe, src, fu));
                }
                for &(r, src) in &w.reg_writes {
                    let token = fabric.read(pe, src, fu);
                    fabric.claim(mrrg.reg_write(pe, slot), token);
                    reg_commits.push(((pe, r), token));
                }
            }
            fabric.settle(c)?;
            fabric.regs.extend(reg_commits);
            std::mem::swap(&mut fabric.latch, &mut next_latch);
            next_latch.clear();
        }
    }
    let values = (values.into_iter().enumerate())
        .map(|(op, row)| {
            (row.into_iter().enumerate())
                .map(|(iteration, v)| v.ok_or(SimError::Unfired { op, iteration }))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    Ok(MachineRun { values, deliveries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret;
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
    fn checked_deliveries_count_every_edge_instance_inside_the_horizon() {
        // an edge of distance d delivers to consumer iterations d..n
        for id in [KernelId::Fir, KernelId::Cordic, KernelId::Edn] {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let cgra = cgra();
            let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
            for n in [0usize, 1, 5] {
                let want: usize = (dfg.deps())
                    .map(|e| n.saturating_sub(e.weight.distance() as usize))
                    .sum();
                let report = simulate(&dfg, &cgra, &mapping, n).unwrap();
                assert_eq!(report.checked_deliveries, want, "{id} at n = {n}");
            }
        }
    }

    #[test]
    fn machine_matches_reference_on_fir() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = cgra();
        let mapping = SprMapper::default().map(&dfg, &cgra, None).unwrap();
        let cfg = Configware::generate(&dfg, &cgra, &mapping);
        let inputs = InputVectors::new(VectorKind::Seeded, 42);
        let run = run_machine(&dfg, &cgra, &cfg, &inputs, 6).unwrap();
        let reference = interpret(&dfg, &inputs, 6);
        for op in dfg.op_ids() {
            for iter in 0..6 {
                assert_eq!(
                    run.value(op.index(), iter),
                    reference.value(op, iter),
                    "op {} iter {iter}",
                    dfg.op(op).name
                );
            }
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
    fn a_store_lowered_under_another_op_never_fires() {
        // `s` and `b` share one (PE, slot); the configware keeps only `b`,
        // and nothing downstream of the store could starve to tell
        let mut b = DfgBuilder::new("dropped");
        let a = b.op(OpKind::Load, "a");
        let s = b.op(OpKind::Store, "s");
        let c = b.op(OpKind::Add, "b");
        b.data(a, s);
        b.data(a, c);
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let (pe, ii) = (cgra.pe_at(0, 0), 2);
        let mrrg = cgra.mrrg_shared(ii);
        let path = vec![mrrg.out(pe, 0), mrrg.input(pe, 1)];
        let routes = (0..2)
            .map(|edge_index| Route {
                edge_index,
                nodes: path.clone(),
            })
            .collect();
        let mapping = Mapping::from_parts("hand", ii, 1, vec![0, 1, 1], vec![pe; 3], Some(routes));
        assert_eq!(
            simulate(&dfg, &cgra, &mapping, 3),
            Err(SimError::Unfired {
                op: s.index(),
                iteration: 0
            })
        );
    }

    #[test]
    fn an_operand_finding_another_token_or_a_bubble_fails() {
        // `a` self-forwards into `s`'s input latch one cycle later; moving
        // either end by one II keeps every route's shape
        let mut b = DfgBuilder::new("pair");
        let a = b.op(OpKind::Load, "a");
        let s = b.op(OpKind::Store, "s");
        b.data(a, s);
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let (pe, ii) = (cgra.pe_at(0, 0), 2);
        let mrrg = cgra.mrrg_shared(ii);
        let routes = vec![Route {
            edge_index: 0,
            nodes: vec![mrrg.out(pe, 0), mrrg.input(pe, 1)],
        }];
        let run = |times: Vec<usize>| {
            let m = Mapping::from_parts("hand", ii, 1, times, vec![pe; 2], Some(routes.clone()));
            simulate(&dfg, &cgra, &m, 3)
        };
        assert!(run(vec![0, 1]).is_ok());
        // a late consumer reads the next iteration's token
        assert_eq!(
            run(vec![0, 3]),
            Err(SimError::WrongToken {
                op: s.index(),
                iteration: 0,
                operand: 0,
                found: (a.index(), 1),
            })
        );
        // a late producer leaves the consumer's first firing a bubble
        assert_eq!(
            run(vec![2, 1]),
            Err(SimError::MissingToken {
                op: s.index(),
                iteration: 0,
                operand: 0,
            })
        );
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
        assert!(SimError::Misrouted { edge: 1 }
            .to_string()
            .contains("edge 1"));
        let wrong = SimError::WrongToken {
            op: 3,
            iteration: 2,
            operand: 0,
            found: (1, 1),
        };
        assert!(wrong.to_string().contains("op #1 iteration 1"));
        assert!(SimError::Unfired {
            op: 4,
            iteration: 0
        }
        .to_string()
        .contains("op #4 never fired"));
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
