//! Table-driven cross-check of the two mapping oracles.
//!
//! `Mapping::verify` is the *static* oracle: it checks structure —
//! placement legality, dependence timing, route endpoints, latency, and
//! resource capacity. `panorama_sim::simulate` is the *dynamic* oracle: it
//! walks the pipelined loop's routes cycle by cycle and cross-checks
//! route connectivity, arrival cycles, and per-cycle resource occupancy
//! counted in `(producer, iteration)` tokens. Neither carries values;
//! value fidelity is `panorama_exec::execute`'s question.
//!
//! Each test takes a known-good SPR\* mapping, applies one targeted
//! corruption, and asserts the oracles reject it. The table documents
//! which oracle catches which defect class:
//!
//! | mutation              | verify                  | simulate            |
//! |-----------------------|-------------------------|---------------------|
//! | swap two placements   | RouteEndpoint           | rejects (arrival)   |
//! | truncate a route      | RouteLatency/Endpoint   | rejects (arrival)   |
//! | drop a route entirely | RouteMissing            | rejects (no path)   |
//! | alias another route   | RouteEndpoint/Disconn.  | rejects (arrival)   |
//! | break dependence time | DependenceViolated      | rejects (arrival)   |
//! | collide two FU slots  | FuConflict              | rejects (collision) |
//! | park a value > II     | CapacityExceeded (Reg)  | rejects (collision) |
//!
//! Both oracles overlap on most structural defects (a broken route also
//! produces wrong dynamics), which is exactly what makes differential
//! fuzzing informative: a case where they *disagree* — like the
//! `route-dwell-link-collision` corpus entry, where a route dwelling on a
//! link across II windows passed the old per-producer verify but failed
//! simulation — is a bug in one of the oracles or in the mapper.

use panorama_arch::{Cgra, CgraConfig, NodeKind};
use panorama_dfg::{DfgBuilder, OpKind};
use panorama_mapper::{LowerLevelMapper, Mapping, SprMapper, VerifyError};
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
        let hops = mrrg.out_edges(nodes[k - 1]);
        t += usize::from(hops.iter().any(|h| h.dst == nodes[k] && h.advance));
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
