//! Table-driven cross-check of the two mapping oracles.
//!
//! `Mapping::verify` is the *static* oracle: it checks structure —
//! placement legality, dependence timing, route endpoints, latency, and
//! resource capacity counted over the routes. `panorama_sim::simulate` is
//! the *dynamic* oracle: behind a route-shape guard (`Misrouted`) it
//! lowers the mapping to configware and runs the pipelined loop on the
//! cycle machine, which checks every operand's `(producer, iteration)`
//! token and counts the distinct tokens on every port per cycle. Neither
//! compares values; value fidelity is `panorama_exec::execute`'s question.
//!
//! The first seven tests take a known-good SPR\* mapping and apply one
//! targeted corruption; the four capacity rows hand-build a mapping that
//! over-subscribes exactly one port kind. Every test asserts both oracles
//! reject it. The table documents which check catches which defect class:
//!
//! | mutation                   | verify                      | simulate                   |
//! |----------------------------|-----------------------------|----------------------------|
//! | swap two placements        | RouteEndpoint               | Misrouted                  |
//! | truncate a route           | RouteLatency/Endpoint       | Misrouted                  |
//! | drop a route entirely      | RouteMissing                | Misrouted                  |
//! | alias another route        | RouteEndpoint/Disconn.      | Misrouted                  |
//! | break dependence time      | DependenceViolated          | Misrouted                  |
//! | collide two FU slots       | FuConflict                  | Misrouted                  |
//! | park a value > II          | CapacityExceeded (Reg)      | ValueCollision (Reg)       |
//! | two tokens on one link     | CapacityExceeded (Link)     | ValueCollision (Link)      |
//! | 7 tokens at one input mux  | CapacityExceeded (In)       | ValueCollision (In)        |
//! | 5 register writes at once  | CapacityExceeded (RegWrite) | ValueCollision (RegWrite)  |
//! | 5 register reads at once   | CapacityExceeded (RegRead)  | ValueCollision (RegRead)   |
//!
//! Both oracles overlap on most structural defects (a broken route also
//! produces wrong dynamics), which is exactly what makes differential
//! fuzzing informative: a case where they *disagree* — like the
//! `route-dwell-link-collision` corpus entry, where a route dwelling on a
//! link across II windows passed the old per-producer verify but failed
//! simulation — is a bug in one of the oracles or in the mapper.

use panorama_arch::{Cgra, CgraConfig, MrrgNodeId, NodeKind, PeId};
use panorama_dfg::{Dfg, DfgBuilder, OpKind};
use panorama_mapper::{LowerLevelMapper, Mapping, Route, SprMapper, VerifyError};
use panorama_sim::{simulate, SimError};

/// A small diamond with a recurrence: enough edges for every mutation.
fn fixture() -> (panorama_dfg::Dfg, Cgra, Mapping) {
    let mut b = DfgBuilder::new("diamond");
    let a = b.op(OpKind::Load, "a");
    let l = b.op(OpKind::Add, "l");
    let r = b.op(OpKind::Shift, "r");
    let j = b.op(OpKind::Add, "j");
    let s = b.op(OpKind::Store, "s");
    b.data(a, l);
    b.data(a, r);
    b.data(l, j);
    b.data(r, j);
    b.data(j, s);
    b.back(j, j, 1);
    let dfg = b.build().unwrap();
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let mapping = SprMapper::default()
        .map(&dfg, &cgra, None)
        .expect("fixture maps");
    mapping.verify(&dfg, &cgra).expect("fixture verifies");
    simulate(&dfg, &cgra, &mapping, 4).expect("fixture simulates");
    (dfg, cgra, mapping)
}

/// Rebuilds the fixture mapping with one field replaced.
fn rebuild(
    m: &Mapping,
    dfg: &panorama_dfg::Dfg,
    time_of: Option<Vec<usize>>,
    pe_of: Option<Vec<panorama_arch::PeId>>,
    routes: Option<Vec<panorama_mapper::Route>>,
) -> Mapping {
    let _ = dfg;
    Mapping::from_parts(
        "mutated",
        m.ii(),
        m.mii(),
        time_of.unwrap_or_else(|| m.assignments().map(|(t, _)| t).collect()),
        pe_of.unwrap_or_else(|| m.assignments().map(|(_, pe)| pe).collect()),
        Some(routes.unwrap_or_else(|| m.routes().unwrap().to_vec())),
    )
}

#[test]
fn swapping_two_placements_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut pe_of: Vec<_> = m.assignments().map(|(_, pe)| pe).collect();
    // find two ops on different PEs so the swap matters
    let (i, j) = (0..pe_of.len())
        .flat_map(|i| (i + 1..pe_of.len()).map(move |j| (i, j)))
        .find(|&(i, j)| pe_of[i] != pe_of[j])
        .expect("fixture spreads ops");
    pe_of.swap(i, j);
    let mutant = rebuild(&m, &dfg, None, Some(pe_of), None);
    let err = mutant.verify(&dfg, &cgra).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::RouteEndpoint { .. }
                | VerifyError::MemOpOnComputePe { .. }
                | VerifyError::MulOnPlainPe { .. }
                | VerifyError::FuConflict { .. }
        ),
        "swap must break endpoints or placement legality, got {err:?}"
    );
    assert!(
        simulate(&dfg, &cgra, &mutant, 4).is_err(),
        "simulation must reject swapped placements"
    );
}

#[test]
fn truncating_a_route_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut routes = m.routes().unwrap().to_vec();
    let victim = routes
        .iter_mut()
        .find(|r| r.nodes.len() >= 2)
        .expect("some route has at least two nodes");
    victim.nodes.pop();
    let mutant = rebuild(&m, &dfg, None, None, Some(routes));
    let err = mutant.verify(&dfg, &cgra).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::RouteLatency { .. } | VerifyError::RouteEndpoint { .. }
        ),
        "truncation must break latency or the terminal endpoint, got {err:?}"
    );
    assert!(
        simulate(&dfg, &cgra, &mutant, 4).is_err(),
        "simulation must reject a truncated route"
    );
}

#[test]
fn dropping_a_route_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut routes = m.routes().unwrap().to_vec();
    routes[0].nodes.clear();
    let mutant = rebuild(&m, &dfg, None, None, Some(routes));
    assert!(
        matches!(
            mutant.verify(&dfg, &cgra).unwrap_err(),
            VerifyError::RouteMissing { edge: 0 }
        ),
        "an empty route is a missing route"
    );
    assert!(simulate(&dfg, &cgra, &mutant, 4).is_err());
}

#[test]
fn aliasing_another_routes_path_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut routes = m.routes().unwrap().to_vec();
    // point edge 1's signal down edge 0's wires: endpoints no longer match
    // edge 1's producer/consumer placement
    let donor = routes[0].nodes.clone();
    let distinct = routes
        .iter()
        .position(|r| r.edge_index != 0 && r.nodes != donor)
        .expect("fixture has distinct routes");
    routes[distinct].nodes = donor;
    let mutant = rebuild(&m, &dfg, None, None, Some(routes));
    let err = mutant.verify(&dfg, &cgra).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::RouteEndpoint { .. }
                | VerifyError::RouteLatency { .. }
                | VerifyError::RouteDisconnected { .. }
        ),
        "an aliased path must break endpoints, latency, or adjacency, got {err:?}"
    );
    assert!(simulate(&dfg, &cgra, &mutant, 4).is_err());
}

#[test]
fn breaking_dependence_timing_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut time_of: Vec<usize> = m.assignments().map(|(t, _)| t).collect();
    // pull a consumer to cycle 0; some forward edge then has
    // t(dst) < t(src) + lat
    let e = dfg
        .deps()
        .find(|e| !e.weight.is_back() && time_of[e.dst.index()] > 0)
        .expect("fixture has a forward edge with a late consumer");
    time_of[e.dst.index()] = 0;
    let mutant = rebuild(&m, &dfg, Some(time_of), None, None);
    let err = mutant.verify(&dfg, &cgra).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::DependenceViolated { .. } | VerifyError::FuConflict { .. }
        ),
        "retiming must violate a dependence (or collide a slot), got {err:?}"
    );
    assert!(
        simulate(&dfg, &cgra, &mutant, 4).is_err(),
        "simulation must reject broken dependence timing"
    );
}

#[test]
fn colliding_two_fu_slots_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut time_of: Vec<usize> = m.assignments().map(|(t, _)| t).collect();
    let mut pe_of: Vec<_> = m.assignments().map(|(_, pe)| pe).collect();
    // land op 1 on op 0's exact (PE, slot)
    pe_of[1] = pe_of[0];
    time_of[1] = time_of[0];
    let mutant = rebuild(&m, &dfg, Some(time_of), Some(pe_of), None);
    assert!(
        matches!(
            mutant.verify(&dfg, &cgra).unwrap_err(),
            VerifyError::FuConflict { .. } | VerifyError::MemOpOnComputePe { .. }
        ),
        "two ops on one FU slot must conflict"
    );
    assert!(simulate(&dfg, &cgra, &mutant, 4).is_err());
}

#[test]
fn parking_a_value_in_one_register_past_ii_is_rejected() {
    // Placement no longer caps how long a value lives; this is the check
    // that does. Delay the store by two IIs (same FU slot, every
    // dependence still met) and let its operand wait the whole time in
    // one register of the store's PE: from the operand's last arrival on
    // that PE, route it RegWrite → Reg r for every cycle → RegRead. The
    // register then holds two iterations' values in every slot.
    let (dfg, cgra, m) = fixture();
    let ii = m.ii();
    let mrrg = cgra.mrrg_shared(ii);
    let (edge, dep) = dfg
        .deps()
        .enumerate()
        .find(|(_, e)| dfg.op(e.dst).kind == OpKind::Store)
        .expect("fixture stores");
    let (store, pe) = (dep.dst, m.pe_of(dep.dst));
    let mut routes = m.routes().unwrap().to_vec();
    let nodes = &mut routes[edge].nodes;
    // the last visit of the store PE's input mux, with its absolute cycle
    let (mut t, mut last_in) = (m.time_of(dep.src), None);
    for k in 1..nodes.len() {
        let advances = mrrg
            .out_edges(nodes[k - 1])
            .any(|h| h.dst == nodes[k] && h.advance);
        t += usize::from(advances);
        if nodes[k] == mrrg.input(pe, t % ii) {
            last_in = Some((k, t));
        }
    }
    let (k, t_in) = last_in.expect("every route enters its consumer's PE");
    let t_store = m.time_of(store) + 2 * ii;
    nodes.truncate(k + 1);
    nodes.push(mrrg.reg_write(pe, t_in % ii));
    nodes.extend((t_in + 1..=t_store).map(|c| mrrg.reg(pe, 0, c % ii)));
    nodes.push(mrrg.reg_read(pe, t_store % ii));
    assert!(t_store - t_in > ii, "the value parks longer than II");
    let mut time_of: Vec<usize> = m.assignments().map(|(t, _)| t).collect();
    time_of[store.index()] = t_store;
    let mutant = rebuild(&m, &dfg, Some(time_of), None, Some(routes));
    let err = mutant.verify(&dfg, &cgra).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::CapacityExceeded {
                kind: NodeKind::Reg { .. },
                ..
            }
        ),
        "two iterations in one register must exceed its capacity, got {err:?}"
    );
    let err = simulate(&dfg, &cgra, &mutant, 4).unwrap_err();
    assert!(
        matches!(
            err,
            SimError::ValueCollision {
                kind: NodeKind::Reg { .. },
                ..
            }
        ),
        "simulation must see the register collision, got {err:?}"
    );
}

/// PE (1, 1) of the 4×4 fabric — the hub — and, for each of its four mesh
/// neighbours, the neighbour and the index of its link into the hub.
fn hub(cgra: &Cgra) -> (PeId, Vec<(PeId, usize)>) {
    let hub = cgra.pe_at(1, 1);
    let feeds: Vec<(PeId, usize)> = (cgra.links().iter().enumerate())
        .filter(|(_, link)| link.dst == hub)
        .map(|(i, link)| (link.src, i))
        .collect();
    assert_eq!(feeds.len(), 4, "an inner PE has four mesh neighbours");
    (hub, feeds)
}

/// A hand-built mapping of `dfg`, whose edges are numbered in insertion
/// order, so route `i` realises edge `i`.
fn hand_built(ii: usize, placement: &[(PeId, usize)], paths: Vec<Vec<MrrgNodeId>>) -> Mapping {
    let routes = (paths.into_iter().enumerate())
        .map(|(edge_index, nodes)| Route { edge_index, nodes })
        .collect();
    Mapping::from_parts(
        "hand",
        ii,
        1,
        placement.iter().map(|&(_, t)| t).collect(),
        placement.iter().map(|&(pe, _)| pe).collect(),
        Some(routes),
    )
}

/// Both oracles reject `mapping` for over-subscribing a resource of
/// `want`'s kind (the payload of `want` is ignored), and for nothing else.
fn both_see_over_capacity(dfg: &Dfg, cgra: &Cgra, mapping: &Mapping, want: NodeKind) {
    let same = |kind: NodeKind| std::mem::discriminant(&kind) == std::mem::discriminant(&want);
    match mapping.verify(dfg, cgra) {
        Err(VerifyError::CapacityExceeded { kind, .. }) if same(kind) => {}
        other => panic!("verify must see a {want:?} over capacity, got {other:?}"),
    }
    match simulate(dfg, cgra, mapping, 4) {
        Err(SimError::ValueCollision { kind, .. }) if same(kind) => {}
        other => panic!("simulate must see a {want:?} over capacity, got {other:?}"),
    }
}

/// Const producers `p0..pn` feeding one `add` consumer each, as a DFG
/// whose edge `i` leaves `p{i}`.
fn fan_in(consumers: &[usize]) -> Dfg {
    let mut b = DfgBuilder::new("fan-in");
    let sinks: Vec<_> = (0..consumers.iter().max().map_or(0, |&c| c + 1))
        .map(|c| b.op(OpKind::Add, format!("c{c}")))
        .collect();
    for (i, &c) in consumers.iter().enumerate() {
        let p = b.op(OpKind::Const, format!("p{i}"));
        b.data(p, sinks[c]);
    }
    b.build().unwrap()
}

#[test]
fn two_tokens_on_one_link_in_one_cycle_are_rejected() {
    // p0 runs at t 0 and forwards itself on its PE into t 1, where it
    // leaves over the link to the hub together with p1's fresh result.
    let dfg = fan_in(&[0, 0]);
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let (hub, feeds) = hub(&cgra);
    let ((a, l), ii) = (feeds[0], 3);
    let mrrg = cgra.mrrg_shared(ii);
    let mapping = hand_built(
        ii,
        &[(hub, 2), (a, 0), (a, 1)],
        vec![
            vec![
                mrrg.out(a, 0),
                mrrg.input(a, 1),
                mrrg.out(a, 1),
                mrrg.link_node(l, 1),
                mrrg.input(hub, 2),
            ],
            vec![mrrg.out(a, 1), mrrg.link_node(l, 1), mrrg.input(hub, 2)],
        ],
    );
    both_see_over_capacity(&dfg, &cgra, &mapping, NodeKind::Link { index: 0 });
}

#[test]
fn more_tokens_than_an_input_mux_holds_are_rejected() {
    // In(hub, 2) receives one token per neighbour link (p2..p5 at t 1),
    // the hub's own result (p6) and two tokens that arrived a cycle early
    // (p0, p1) and wait one cycle on the hub's self-forward: 7 tokens
    // against a capacity of rf_write_ports + 2 = 6.
    let dfg = fan_in(&[0; 7]);
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let (hub, feeds) = hub(&cgra);
    let ii = 3;
    let mrrg = cgra.mrrg_shared(ii);
    assert_eq!(mrrg.capacity(mrrg.input(hub, 2)), 6);
    let mut placement = vec![(hub, 2), (feeds[0].0, 0), (feeds[1].0, 0)];
    placement.extend(feeds.iter().map(|&(pe, _)| (pe, 1)));
    placement.push((hub, 1));
    let mut paths: Vec<Vec<MrrgNodeId>> = (feeds[..2].iter())
        .map(|&(pe, l)| {
            vec![
                mrrg.out(pe, 0),
                mrrg.link_node(l, 0),
                mrrg.input(hub, 1),
                mrrg.out(hub, 1),
                mrrg.input(hub, 2),
            ]
        })
        .collect();
    paths.extend(
        (feeds.iter())
            .map(|&(pe, l)| vec![mrrg.out(pe, 1), mrrg.link_node(l, 1), mrrg.input(hub, 2)]),
    );
    paths.push(vec![mrrg.out(hub, 1), mrrg.input(hub, 2)]);
    let mapping = hand_built(ii, &placement, paths);
    both_see_over_capacity(&dfg, &cgra, &mapping, NodeKind::In);
}

#[test]
fn more_register_writes_than_write_ports_are_rejected() {
    // Five tokens reach In(hub, 1) — one per neighbour link plus the hub's
    // own result — and all five are written to the register file in that
    // cycle (4 write ports). They are read back four at t 2 and one at
    // t 3, so no read port is over-subscribed.
    let dfg = fan_in(&[0, 0, 0, 0, 1]);
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let (hub, feeds) = hub(&cgra);
    let ii = 4;
    let mrrg = cgra.mrrg_shared(ii);
    assert_eq!(mrrg.capacity(mrrg.reg_write(hub, 1)), 4);
    let mut placement = vec![(hub, 2), (hub, 3)];
    placement.extend(feeds.iter().map(|&(pe, _)| (pe, 0)));
    placement.push((hub, 0));
    let mut paths: Vec<Vec<MrrgNodeId>> = (feeds.iter().enumerate())
        .map(|(r, &(pe, l))| {
            vec![
                mrrg.out(pe, 0),
                mrrg.link_node(l, 0),
                mrrg.input(hub, 1),
                mrrg.reg_write(hub, 1),
                mrrg.reg(hub, r, 2),
                mrrg.reg_read(hub, 2),
            ]
        })
        .collect();
    paths.push(vec![
        mrrg.out(hub, 0),
        mrrg.input(hub, 1),
        mrrg.reg_write(hub, 1),
        mrrg.reg(hub, 4, 2),
        mrrg.reg(hub, 4, 3),
        mrrg.reg_read(hub, 3),
    ]);
    let mapping = hand_built(ii, &placement, paths);
    both_see_over_capacity(&dfg, &cgra, &mapping, NodeKind::RegWrite);
}

#[test]
fn more_register_reads_than_read_ports_are_rejected() {
    // Four neighbour tokens are written at t 1 and the hub's own result at
    // t 2, each into its own register; one consumer reads all five at
    // t 3 (4 read ports).
    let dfg = fan_in(&[0; 5]);
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let (hub, feeds) = hub(&cgra);
    let ii = 4;
    let mrrg = cgra.mrrg_shared(ii);
    assert_eq!(mrrg.capacity(mrrg.reg_read(hub, 3)), 4);
    let mut placement = vec![(hub, 3)];
    placement.extend(feeds.iter().map(|&(pe, _)| (pe, 0)));
    placement.push((hub, 1));
    let mut paths: Vec<Vec<MrrgNodeId>> = (feeds.iter().enumerate())
        .map(|(r, &(pe, l))| {
            vec![
                mrrg.out(pe, 0),
                mrrg.link_node(l, 0),
                mrrg.input(hub, 1),
                mrrg.reg_write(hub, 1),
                mrrg.reg(hub, r, 2),
                mrrg.reg(hub, r, 3),
                mrrg.reg_read(hub, 3),
            ]
        })
        .collect();
    paths.push(vec![
        mrrg.out(hub, 1),
        mrrg.input(hub, 2),
        mrrg.reg_write(hub, 2),
        mrrg.reg(hub, 4, 3),
        mrrg.reg_read(hub, 3),
    ]);
    let mapping = hand_built(ii, &placement, paths);
    both_see_over_capacity(&dfg, &cgra, &mapping, NodeKind::RegRead);
}
