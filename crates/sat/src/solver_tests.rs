//! DIMACS-style unit suite for the CDCL core: pigeonhole UNSAT instances,
//! small SAT/UNSAT pairs, learned-clause/backjump behaviour, budget and
//! interrupt handling, and byte-identical determinism across runs.

use crate::{Limits, Lit, SolveResult, Solver, SolverStats, Var};

/// Builds a solver over `n` fresh variables.
fn with_vars(n: usize) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars = (0..n).map(|_| s.new_var()).collect();
    (s, vars)
}

/// Adds DIMACS-style clauses: positive numbers are positive literals of
/// `vars[k-1]`, negative numbers the negations.
fn add_dimacs(s: &mut Solver, vars: &[Var], clauses: &[&[i32]]) {
    for c in clauses {
        let lits: Vec<Lit> = c
            .iter()
            .map(|&x| {
                let v = vars[(x.unsigned_abs() - 1) as usize];
                if x > 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect();
        s.add_clause(&lits);
    }
}

/// `php(n)`: n+1 pigeons into n holes — the canonical resolution-hard
/// UNSAT family; forces genuine clause learning.
fn pigeonhole(n: usize) -> Solver {
    let (mut s, vars) = with_vars((n + 1) * n);
    let p = |pigeon: usize, hole: usize| vars[pigeon * n + hole];
    for pigeon in 0..=n {
        let lits: Vec<Lit> = (0..n).map(|h| Lit::pos(p(pigeon, h))).collect();
        s.add_clause(&lits);
    }
    for hole in 0..n {
        for a in 0..=n {
            for b in (a + 1)..=n {
                s.add_clause(&[Lit::neg(p(a, hole)), Lit::neg(p(b, hole))]);
            }
        }
    }
    s
}

#[test]
fn empty_problem_is_sat() {
    let mut s = Solver::new();
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn unit_clauses_fix_the_model() {
    let (mut s, v) = with_vars(2);
    assert!(s.add_clause(&[Lit::pos(v[0])]));
    assert!(s.add_clause(&[Lit::neg(v[1])]));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(v[0]), Some(true));
    assert_eq!(s.value(v[1]), Some(false));
}

#[test]
fn contradictory_units_are_unsat() {
    let (mut s, v) = with_vars(1);
    assert!(s.add_clause(&[Lit::pos(v[0])]));
    assert!(!s.add_clause(&[Lit::neg(v[0])]));
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert_eq!(s.value(v[0]), None);
}

#[test]
fn tautologies_and_duplicates_are_harmless() {
    let (mut s, v) = with_vars(2);
    assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]));
    assert!(s.add_clause(&[Lit::pos(v[1]), Lit::pos(v[1])]));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(v[1]), Some(true));
}

#[test]
fn small_sat_unsat_pair() {
    // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) is satisfied only by a=b=true ...
    let (mut s, v) = with_vars(2);
    add_dimacs(&mut s, &v, &[&[1, 2], &[-1, 2], &[1, -2]]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(v[0]), Some(true));
    assert_eq!(s.value(v[1]), Some(true));
    // ... and adding (¬a ∨ ¬b) completes the UNSAT quartet
    s.add_clause(&[Lit::neg(v[0]), Lit::neg(v[1])]);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn three_sat_instance_with_propagation_chains() {
    // implication chain x1 → x2 → ... → x6 plus a unit driving it
    let (mut s, v) = with_vars(6);
    add_dimacs(
        &mut s,
        &v,
        &[&[1], &[-1, 2], &[-2, 3], &[-3, 4], &[-4, 5], &[-5, 6]],
    );
    assert_eq!(s.solve(), SolveResult::Sat);
    for var in &v {
        assert_eq!(s.value(*var), Some(true));
    }
}

#[test]
fn reduce_db_leaves_only_live_literals_in_the_arena() {
    let mut s = pigeonhole(7);
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(
        s.stats().removed > 0,
        "reduce_db never ran: {:?}",
        s.stats()
    );
    let (arena, live) = s.arena_fill();
    assert_eq!(arena, live);
}

#[test]
fn pigeonhole_instances_are_unsat() {
    for n in 2..=5 {
        let mut s = pigeonhole(n);
        assert_eq!(s.solve(), SolveResult::Unsat, "php({n}) must be UNSAT");
    }
}

#[test]
fn pigeonhole_learns_clauses_and_backjumps() {
    let mut s = pigeonhole(5);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let st = *s.stats();
    assert!(
        st.conflicts > 0,
        "php(5) cannot be solved without conflicts"
    );
    assert!(st.learned > 0, "CDCL must learn clauses on php(5)");
    assert!(st.decisions > 0);
    // every analyzed conflict learns one clause under first-UIP; the
    // final root-level conflict terminates the search without learning
    assert!(st.learned >= st.conflicts - 1);
}

#[test]
fn satisfiable_pigeonhole_variant_finds_a_model() {
    // n pigeons into n holes is satisfiable (a perfect matching)
    let n = 4;
    let (mut s, vars) = with_vars(n * n);
    let p = |pigeon: usize, hole: usize| vars[pigeon * n + hole];
    for pigeon in 0..n {
        let lits: Vec<Lit> = (0..n).map(|h| Lit::pos(p(pigeon, h))).collect();
        s.add_clause(&lits);
    }
    for hole in 0..n {
        for a in 0..n {
            for b in (a + 1)..n {
                s.add_clause(&[Lit::neg(p(a, hole)), Lit::neg(p(b, hole))]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    // the model is a function: every pigeon sits in at least one hole,
    // no two pigeons share one
    for hole in 0..n {
        let users = (0..n)
            .filter(|&a| s.value(p(a, hole)) == Some(true))
            .count();
        assert!(users <= 1);
    }
    for pigeon in 0..n {
        let holes = (0..n)
            .filter(|&h| s.value(p(pigeon, h)) == Some(true))
            .count();
        assert!(holes >= 1);
    }
}

#[test]
fn model_satisfies_every_clause_on_random_like_instances() {
    // a deterministic pseudo-random 3-SAT instance at a satisfiable
    // clause/variable ratio, literals drawn from a SplitMix64 stream
    let n = 40;
    let (mut s, vars) = with_vars(n);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for _ in 0..120 {
        let mut c = Vec::new();
        for _ in 0..3 {
            let v = vars[(next() % n as u64) as usize];
            c.push(if next() & 1 == 0 {
                Lit::pos(v)
            } else {
                Lit::neg(v)
            });
        }
        s.add_clause(&c);
        clauses.push(c);
    }
    if s.solve() == SolveResult::Sat {
        for c in &clauses {
            let sat = c.iter().any(|l| {
                let val = s.value(l.var()).expect("model is total");
                val != l.is_neg()
            });
            assert!(sat, "model violates a clause");
        }
    }
}

#[test]
fn incremental_model_enumeration_terminates_exactly() {
    // block each model of (a ∨ b ∨ c) in turn: exactly 7 models exist,
    // so the 8th solve must be UNSAT — exercises clause addition between
    // solves and root-level restarts
    let (mut s, v) = with_vars(3);
    add_dimacs(&mut s, &v, &[&[1, 2, 3]]);
    let mut models = 0;
    while s.solve() == SolveResult::Sat {
        models += 1;
        assert!(models <= 7, "more models than the clause admits");
        let blocking: Vec<Lit> = v
            .iter()
            .map(|&var| {
                if s.value(var).unwrap() {
                    Lit::neg(var)
                } else {
                    Lit::pos(var)
                }
            })
            .collect();
        s.add_clause(&blocking);
    }
    assert_eq!(models, 7);
}

#[test]
fn conflict_budget_yields_unknown_and_search_resumes() {
    let mut s = pigeonhole(6);
    let limits = Limits {
        max_conflicts: Some(5),
        max_propagations: None,
    };
    assert_eq!(
        s.solve_limited(&limits, &mut || false),
        SolveResult::Unknown
    );
    // an unbudgeted re-run completes (learned clauses are kept)
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn interrupt_yields_unknown() {
    let mut s = pigeonhole(6);
    let mut polls = 0u32;
    let result = s.solve_limited(&Limits::default(), &mut || {
        polls += 1;
        true
    });
    assert_eq!(result, SolveResult::Unknown);
    assert!(polls > 0);
}

#[test]
fn determinism_stats_and_model_are_identical_across_runs() {
    let run = || {
        let mut s = pigeonhole(5);
        let r = s.solve();
        (r, *s.stats())
    };
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(r1, r2);
    assert_eq!(s1, s2, "search statistics must be bit-identical");

    let run_sat = || {
        let (mut s, vars) = with_vars(30);
        for w in vars.windows(3) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1]), Lit::pos(w[2])]);
            s.add_clause(&[Lit::pos(w[0]), Lit::neg(w[2])]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let model: Vec<Option<bool>> = vars.iter().map(|&v| s.value(v)).collect();
        (model, *s.stats())
    };
    let (m1, t1) = run_sat();
    let (m2, t2) = run_sat();
    assert_eq!(m1, m2, "models must be bit-identical");
    assert_eq!(t1, t2);
}

#[test]
fn learned_clause_reduction_is_triggered_on_hard_instances() {
    // php(7) generates thousands of conflicts — enough to cross the
    // first reduction threshold deterministically
    let mut s = pigeonhole(7);
    let limits = Limits {
        max_conflicts: Some(6000),
        max_propagations: None,
    };
    let _ = s.solve_limited(&limits, &mut || false);
    let st = s.stats();
    assert!(st.conflicts > 2000, "expected a long run, got {st:?}");
    assert!(
        st.removed > 0,
        "clause-database reduction never fired: {st:?}"
    );
}

#[test]
fn stats_are_monotone_and_restarts_happen() {
    let mut s = pigeonhole(5);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let st = s.stats();
    assert!(st.propagations > st.conflicts);
    assert!(st.restarts > 0, "php(5) runs past the first Luby restart");
}

#[test]
fn num_clauses_counts_live_clauses() {
    let (mut s, v) = with_vars(2);
    add_dimacs(&mut s, &v, &[&[1, 2], &[-1, 2]]);
    assert_eq!(s.num_clauses(), 2);
    assert_eq!(s.num_vars(), 2);
}

/// FNV-1a over the model: one byte per variable (0 false, 1 true, 2 none).
fn model_hash(s: &Solver, n: usize) -> u64 {
    (0..n).fold(0xcbf2_9ce4_8422_2325, |h, i| {
        let b = match s.value(Var::from_index(i)) {
            Some(false) => 0u8,
            Some(true) => 1,
            None => 2,
        };
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The search itself is contract: watch order, propagation order, the
/// learned clauses and the `(lbd, len, cid)` reduction order decide every
/// counter below, so a storage change that claims to be exact (the clause
/// arena) keeps all three rows. Pigeonhole 6→5 (UNSAT), a SplitMix64 3-SAT
/// instance near the threshold long enough to reduce the database, and a
/// model enumeration that adds clauses between solves.
#[test]
fn search_trajectory_is_pinned() {
    let mut rows: Vec<(SolveResult, SolverStats, u64)> = Vec::new();

    let mut s = pigeonhole(5);
    let r = s.solve();
    rows.push((r, *s.stats(), model_hash(&s, s.num_vars())));

    let n = 200;
    let (mut s, vars) = with_vars(n);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..(n * 426 / 100) {
        let c: Vec<Lit> = (0..3)
            .map(|_| {
                let v = vars[(next() % n as u64) as usize];
                if next() & 1 == 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect();
        s.add_clause(&c);
    }
    let r = s.solve();
    assert!(
        s.stats().removed > 0,
        "reduce_db never ran: {:?}",
        s.stats()
    );
    rows.push((r, *s.stats(), model_hash(&s, n)));

    let (mut s, v) = with_vars(12);
    for w in v.windows(3) {
        s.add_clause(&[Lit::pos(w[0]), Lit::neg(w[1]), Lit::pos(w[2])]);
    }
    // the first 40 models in the order the search finds them, chained
    let (mut models, mut chain) = (0, 0u64);
    while models < 40 && s.solve() == SolveResult::Sat {
        models += 1;
        chain = chain.rotate_left(5) ^ model_hash(&s, v.len());
        let blocking: Vec<Lit> = v
            .iter()
            .map(|&var| {
                if s.value(var).unwrap() {
                    Lit::neg(var)
                } else {
                    Lit::pos(var)
                }
            })
            .collect();
        s.add_clause(&blocking);
    }
    assert_eq!(models, 40);
    rows.push((SolveResult::Sat, *s.stats(), chain));

    let stats = |conflicts, propagations, decisions, restarts, learned, removed| SolverStats {
        conflicts,
        propagations,
        decisions,
        restarts,
        learned,
        removed,
    };
    let pinned = vec![
        (
            SolveResult::Unsat,
            stats(151, 1_783, 186, 1, 150, 0),
            9_568_073_400_783_108_261,
        ),
        (
            SolveResult::Sat,
            stats(20_638, 777_853, 24_868, 71, 20_638, 16_503),
            206_384_827_988_060_260,
        ),
        (
            SolveResult::Sat,
            stats(22, 524, 358, 0, 22, 0),
            1_369_541_018_589_462_619,
        ),
    ];
    assert_eq!(rows, pinned);
}

/// Solves under `assumptions` with no budget and no interrupt.
fn solve_under(s: &mut Solver, assumptions: &[Lit]) -> SolveResult {
    s.solve_assuming(assumptions, &Limits::default(), &mut || false)
}

/// `php(n)` with each pigeon's at-least-one-hole clause guarded by a
/// selector: the selectors (returned in pigeon order) switch pigeons on,
/// so any `n` of them fit and all `n + 1` refute.
fn guarded_pigeonhole(n: usize) -> (Solver, Vec<Lit>) {
    let (mut s, vars) = with_vars((n + 1) * n);
    let p = |pigeon: usize, hole: usize| vars[pigeon * n + hole];
    let selectors: Vec<Lit> = (0..=n).map(|_| Lit::pos(s.new_var())).collect();
    for (pigeon, sel) in selectors.iter().enumerate() {
        let mut lits = vec![sel.negate()];
        lits.extend((0..n).map(|h| Lit::pos(p(pigeon, h))));
        s.add_clause(&lits);
    }
    for hole in 0..n {
        for a in 0..=n {
            for b in (a + 1)..=n {
                s.add_clause(&[Lit::neg(p(a, hole)), Lit::neg(p(b, hole))]);
            }
        }
    }
    (s, selectors)
}

#[test]
fn the_core_is_a_refuting_subset_of_the_negated_assumptions() {
    let (mut s, selectors) = guarded_pigeonhole(4);
    // a free variable assumed alongside takes no part in the refutation
    let free = Lit::neg(s.new_var());
    let mut assumptions = vec![free];
    assumptions.extend(&selectors);
    assert_eq!(solve_under(&mut s, &assumptions), SolveResult::Unsat);
    let mut core = s.core().to_vec();
    core.sort_unstable();
    for l in &core {
        assert!(
            assumptions.contains(&l.negate()),
            "{l:?} is not a negated assumption"
        );
    }
    // php is minimally unsatisfiable: every pigeon is needed, nothing else
    let mut want: Vec<Lit> = selectors.iter().map(|l| l.negate()).collect();
    want.sort_unstable();
    assert_eq!(core, want);
    // the core's assumptions alone still refute
    let again: Vec<Lit> = core.iter().map(|l| l.negate()).collect();
    assert_eq!(solve_under(&mut s, &again), SolveResult::Unsat);
    // any four pigeons fit
    assert_eq!(solve_under(&mut s, &selectors[1..]), SolveResult::Sat);
    assert!(s.core().is_empty());
}

#[test]
fn a_model_under_assumptions_satisfies_every_assumption() {
    let (mut s, v) = with_vars(8);
    add_dimacs(&mut s, &v, &[&[1, 2, 3], &[-1, 4], &[-4, -5], &[5, 6, -7]]);
    // the phase of an undecided variable starts false; assume the opposite
    let assumptions = [Lit::pos(v[0]), Lit::pos(v[6]), Lit::neg(v[7])];
    assert_eq!(solve_under(&mut s, &assumptions), SolveResult::Sat);
    for a in assumptions {
        assert_eq!(s.value(a.var()), Some(!a.is_neg()), "{a:?}");
    }
    assert_eq!(s.value(v[3]), Some(true));
    assert_eq!(s.value(v[5]), Some(true));

    let (mut s, selectors) = guarded_pigeonhole(4);
    assert_eq!(solve_under(&mut s, &selectors[..4]), SolveResult::Sat);
    for a in &selectors[..4] {
        assert_eq!(s.value(a.var()), Some(true));
    }
}

#[test]
fn an_assumption_refutation_does_not_poison_the_solver() {
    let (mut s, selectors) = guarded_pigeonhole(4);
    assert_eq!(solve_under(&mut s, &selectors), SolveResult::Unsat);
    let core = s.core().to_vec();
    assert!(!core.is_empty());
    assert_eq!(s.solve(), SolveResult::Sat);
    // the refutation replays: same verdict, same core
    assert_eq!(solve_under(&mut s, &selectors), SolveResult::Unsat);
    assert_eq!(s.core(), core.as_slice());
    // an assumption false at the root is its own core
    assert!(s.add_clause(&[selectors[2].negate()]));
    assert_eq!(solve_under(&mut s, &selectors), SolveResult::Unsat);
    assert_eq!(s.core(), [selectors[2].negate()]);
    assert_eq!(s.solve(), SolveResult::Sat);
    // a genuine refutation has an empty core
    let (mut t, v) = with_vars(1);
    add_dimacs(&mut t, &v, &[&[1], &[-1]]);
    assert_eq!(solve_under(&mut t, &[Lit::pos(v[0])]), SolveResult::Unsat);
    assert!(t.core().is_empty());
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(400))]

    /// Random CNFs over at most 8 variables against brute force: the
    /// verdict under assumptions is the truth-table verdict; a model
    /// satisfies every clause and every assumption; a core holds negated
    /// assumptions only, and its assumptions alone refute the clauses;
    /// a plain solve afterwards still answers for the clauses alone.
    #[test]
    fn assumptions_agree_with_the_truth_table(
        n in 1usize..9,
        words in proptest::collection::vec(0u64..u64::MAX, 1..30),
        picks in proptest::collection::vec(0u64..u64::MAX, 0..6),
    ) {
        let (mut s, vars) = with_vars(n);
        let lit = |w: u64| {
            let v = vars[(w % n as u64) as usize];
            if (w >> 8) & 1 == 0 { Lit::pos(v) } else { Lit::neg(v) }
        };
        let clauses: Vec<Vec<Lit>> = words
            .iter()
            .map(|&w| (0..1 + (w >> 60) % 3).map(|k| lit(w >> (16 * k))).collect())
            .collect();
        for c in &clauses {
            s.add_clause(c);
        }
        let assumptions: Vec<Lit> = picks.iter().map(|&w| lit(w)).collect();
        let holds = |mask: u32, l: &Lit| (mask >> l.var().index() & 1 == 1) != l.is_neg();
        let satisfiable = |extra: &[Lit]| {
            (0..1u32 << n).any(|mask| {
                clauses.iter().all(|c| c.iter().any(|l| holds(mask, l)))
                    && extra.iter().all(|l| holds(mask, l))
            })
        };

        let result = solve_under(&mut s, &assumptions);
        proptest::prop_assert_eq!(result == SolveResult::Sat, satisfiable(&assumptions));
        if result == SolveResult::Sat {
            let value = |l: &Lit| s.value(l.var()) == Some(!l.is_neg());
            proptest::prop_assert!(clauses.iter().all(|c| c.iter().any(value)));
            proptest::prop_assert!(assumptions.iter().all(value));
        } else {
            let used: Vec<Lit> = s.core().iter().map(|l| l.negate()).collect();
            proptest::prop_assert!(used.iter().all(|l| assumptions.contains(l)));
            proptest::prop_assert!(!satisfiable(&used));
        }
        let plain = s.solve();
        proptest::prop_assert_eq!(plain == SolveResult::Sat, satisfiable(&[]));
    }
}
