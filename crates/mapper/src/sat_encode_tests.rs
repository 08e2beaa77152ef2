//! The expansion memo against the algorithm it replaced. `reference` is the
//! pre-memo per-edge expansion — forward BFS and backward co-reachability
//! over `BTreeMap`s — kept here as the test oracle and nowhere else.

use super::*;
use crate::search::OpDomains;
use panorama_arch::CgraConfig;
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_sat::{Limits, SolveResult};
use std::collections::VecDeque;

/// Successor states of `(node, d)`: follow MRRG edges, never through an
/// FU, never past `d_total` advances.
fn successors(mrrg: &Mrrg, node: u32, d: i64, d_total: i64) -> Vec<State> {
    let mut out = Vec::new();
    for me in mrrg.out_edges(MrrgNodeId::from_index(node as usize)) {
        if matches!(mrrg.kind(me.dst), NodeKind::Fu) {
            continue;
        }
        let nd = d + i64::from(me.advance);
        if nd <= d_total {
            out.push((me.dst.index() as u32, nd));
        }
    }
    out
}

fn is_terminal(mrrg: &Mrrg, state: State, d_total: i64, target_fu: u32) -> bool {
    state.1 == d_total
        && mrrg
            .out_edges(MrrgNodeId::from_index(state.0 as usize))
            .any(|me| me.dst.index() as u32 == target_fu)
}

/// `(states, terminal flags, kept successor indices per state)`, or `None`
/// when infeasible — computed the way `RoutingCnf::build` did before the
/// memo.
#[allow(clippy::type_complexity)]
fn reference(
    mrrg: &Mrrg,
    (start, d_total, target_fu): ExpansionKey,
) -> Option<(Vec<State>, Vec<bool>, Vec<Vec<u32>>)> {
    let mut reach: BTreeMap<State, bool> = BTreeMap::new();
    let mut queue = VecDeque::from([(start, 0i64)]);
    reach.insert(
        (start, 0),
        is_terminal(mrrg, (start, 0), d_total, target_fu),
    );
    while let Some(s) = queue.pop_front() {
        for ns in successors(mrrg, s.0, s.1, d_total) {
            if let std::collections::btree_map::Entry::Vacant(e) = reach.entry(ns) {
                e.insert(is_terminal(mrrg, ns, d_total, target_fu));
                queue.push_back(ns);
            }
        }
    }
    if !reach.values().any(|&t| t) {
        return None;
    }
    let mut rev: BTreeMap<State, Vec<State>> = BTreeMap::new();
    for &s in reach.keys() {
        for ns in successors(mrrg, s.0, s.1, d_total) {
            if reach.contains_key(&ns) {
                rev.entry(ns).or_default().push(s);
            }
        }
    }
    let mut kept: BTreeMap<State, bool> = BTreeMap::new();
    let mut queue: VecDeque<State> = reach.iter().filter(|&(_, &t)| t).map(|(&s, _)| s).collect();
    for s in &queue {
        kept.insert(*s, true);
    }
    while let Some(s) = queue.pop_front() {
        for &ps in rev.get(&s).map_or(&[] as &[State], Vec::as_slice) {
            kept.entry(ps).or_insert_with(|| {
                queue.push_back(ps);
                false
            });
        }
    }
    if !kept.contains_key(&(start, 0)) {
        return None;
    }
    let states: Vec<State> = kept.keys().copied().collect();
    let index: BTreeMap<State, u32> = states
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let terminal = states
        .iter()
        .map(|&s| is_terminal(mrrg, s, d_total, target_fu))
        .collect();
    let onward = states
        .iter()
        .map(|&(node, d)| {
            successors(mrrg, node, d, d_total)
                .iter()
                .filter_map(|ns| index.get(ns).copied())
                .collect()
        })
        .collect();
    Some((states, terminal, onward))
}

fn cgra() -> Cgra {
    Cgra::new(CgraConfig::small_4x4()).expect("preset is valid")
}

proptest::proptest! {
    /// Random `(start, d_total, target FU)` keys on 4×4 at II 2–5: the
    /// flat expansion equals the `BTreeMap` oracle state for state, flag
    /// for flag, successor list for successor list, and agrees on every
    /// infeasible verdict; a second lookup through the memo is a hit that
    /// returns the same entry.
    #[test]
    fn flat_expansion_equals_the_btreemap_oracle(seed in 0u64..u64::MAX) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let cgra = cgra();
        let mrrg = cgra.mrrg_shared(rng.gen_range(2..=5usize));
        let ii = mrrg.ii();
        let mut memo = ExpansionMemo::new(&mrrg);
        let mut pes: Vec<PeId> = cgra.pes().collect();
        for _ in 0..24 {
            let src = pes[rng.gen_range(0..pes.len())];
            let dst = pes[rng.gen_range(0..pes.len())];
            let key = (
                mrrg.out(src, rng.gen_range(0..ii)).index() as u32,
                rng.gen_range(-1..=4 * ii as i64),
                mrrg.fu(dst, rng.gen_range(0..ii)).index() as u32,
            );
            let want = reference(&mrrg, key);
            let got = memo.get(key).map(|id| memo.entries[id as usize].clone());
            proptest::prop_assert_eq!(got.is_some(), want.is_some(), "verdict on {:?}", key);
            if let (Some(x), Some((states, terminal, onward))) = (&got, want) {
                proptest::prop_assert_eq!(&x.states, &states);
                proptest::prop_assert_eq!(&x.terminal, &terminal);
                for (i, list) in onward.iter().enumerate() {
                    proptest::prop_assert_eq!(x.onward(i), list.as_slice());
                }
                proptest::prop_assert_eq!(x.states[x.start as usize], (key.0, 0));
            }
            let expanded = memo.expanded;
            let again = memo.get(key).map(|id| memo.entries[id as usize].clone());
            proptest::prop_assert_eq!(again, got);
            proptest::prop_assert_eq!(memo.expanded, expanded);
            pes.rotate_left(1);
        }
    }
}

/// Two phase-1 models of fir at II 3 routed through one shared memo give
/// the CNF sizes, solver verdicts and decoded routes of fresh memos; the
/// second build is answered partly from the memo.
#[test]
fn a_shared_memo_builds_what_fresh_memos_build() {
    let cgra = cgra();
    let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
    let domains = OpDomains::new(&dfg, &cgra, None);
    let hops = hop_distances(&cgra);
    let budget = CnfBudget {
        max_vars: 200_000,
        max_clauses: 2_000_000,
    };
    let ii = 3;
    let mrrg = cgra.mrrg_shared(ii);
    let mut sched = ScheduleCnf::build(&dfg, &domains, &hops, ii, 2, budget).expect("builds");
    let mut assignments = Vec::new();
    for _ in 0..3 {
        assert_eq!(sched.cnf.solver.solve(), SolveResult::Sat);
        let (times, pes) = sched.decode().expect("decodes");
        sched.block(0..times.len(), &times, &pes);
        assignments.push((times, pes));
    }

    // what one build yields: (vars, clauses, verdict, routes), or the error
    type Built = Result<(usize, usize, SolveResult, Option<Vec<Route>>), RouteError>;
    let run = |memo: &mut ExpansionMemo<'_>, times: &[usize], pes: &[PeId]| -> Built {
        let mut routing = RoutingCnf::build(memo, &sched.edges, times, pes, budget)?;
        let vars = routing.cnf.solver.num_vars();
        let verdict = routing.solve(&Limits::default(), &mut || false);
        let routes = routing.decode(memo);
        Ok((vars, routing.cnf.clauses, verdict, routes))
    };
    let mut shared = ExpansionMemo::new(&mrrg);
    let mut routed = 0;
    for (k, (times, pes)) in assignments.iter().enumerate() {
        let reused = shared.reused;
        let with_shared = run(&mut shared, times, pes);
        let with_fresh = run(&mut ExpansionMemo::new(&mrrg), times, pes);
        assert_eq!(with_shared, with_fresh, "assignment {k}");
        if k > 0 {
            assert!(shared.reused > reused, "assignment {k} reused nothing");
        }
        routed += usize::from(matches!(with_shared, Ok((_, _, SolveResult::Sat, Some(_)))));
    }
    assert!(
        routed > 0,
        "no assignment routed: the comparison saw no routes"
    );
}

/// The CEGAR loop of `SatMapper::try_ii` on idctcols and jpegfdct at their
/// MII: every routing refutation's core edges, built into a fresh
/// `RoutingCnf` on their own, are unroutable by themselves. That is what
/// makes blocking only the core's endpoints sound.
#[test]
fn every_routing_core_is_unroutable_on_its_own() {
    let cgra = cgra();
    let hops = hop_distances(&cgra);
    let budget = CnfBudget {
        max_vars: 200_000,
        max_clauses: 2_000_000,
    };
    let limits = Limits {
        max_conflicts: Some(30_000),
        max_propagations: None,
    };
    let mut refutations = Vec::new();
    for id in [KernelId::IdctCols, KernelId::JpegFdct] {
        let dfg = kernels::generate(id, KernelScale::Tiny);
        let ii = crate::min_ii(&dfg, &cgra).mii();
        let domains = OpDomains::new(&dfg, &cgra, None);
        let mrrg = cgra.mrrg_shared(ii);
        let mut memo = ExpansionMemo::new(&mrrg);
        let mut refuted = 0;
        let mut mapped = false;
        'windows: for wf in [2, 4] {
            let mut sched =
                ScheduleCnf::build(&dfg, &domains, &hops, ii, wf, budget).expect("builds");
            for _ in 0..48 {
                let result = sched.cnf.solver.solve_limited(&limits, &mut || false);
                if result != SolveResult::Sat {
                    continue 'windows;
                }
                let (times, pes) = sched.decode().expect("decodes");
                let core = match RoutingCnf::build(&mut memo, &sched.edges, &times, &pes, budget) {
                    Err(RouteError::Unroutable(edge)) => vec![edge],
                    Err(RouteError::OverBudget) => panic!("{id}: phase 2 over budget"),
                    Ok(mut routing) => match routing.solve(&limits, &mut || false) {
                        SolveResult::Sat => {
                            mapped = true;
                            break 'windows;
                        }
                        SolveResult::Unsat => routing.core_edges(),
                        SolveResult::Unknown => panic!("{id}: phase 2 ran out of conflicts"),
                    },
                };
                let alone: Vec<EdgeInfo> = core.iter().map(|&e| sched.edges[e]).collect();
                let mut fresh = ExpansionMemo::new(&mrrg);
                match RoutingCnf::build(&mut fresh, &alone, &times, &pes, budget) {
                    Err(RouteError::Unroutable(_)) => {}
                    Err(RouteError::OverBudget) => panic!("{id}: the core is over budget"),
                    Ok(mut routing) => assert_eq!(
                        routing.solve(&Limits::default(), &mut || false),
                        SolveResult::Unsat,
                        "{id} at II {ii}: core {core:?} routes on its own"
                    ),
                }
                sched.block(endpoints(&sched.edges, &core), &times, &pes);
                refuted += 1;
            }
        }
        assert!(mapped, "{id} does not map at its MII {ii}");
        refutations.push(refuted);
    }
    assert!(
        refutations.iter().all(|&r| r > 0),
        "a kernel saw no routing refutation: {refutations:?}"
    );
}
