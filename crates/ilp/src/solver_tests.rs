//! End-to-end solver tests: known optima, infeasibility, degenerate cases,
//! and a brute-force cross-check over randomised small boolean programs.

use crate::{Cmp, LinExpr, Model, Sense, SolveError};

#[test]
fn knapsack_small() {
    let mut m = Model::new(Sense::Maximize);
    let items = [(3.0, 2.0), (4.0, 3.0), (2.0, 1.0), (5.0, 4.0)];
    let vars: Vec<_> = (0..items.len())
        .map(|i| m.bool_var(format!("item{i}")))
        .collect();
    m.set_objective(LinExpr::sum(
        vars.iter().zip(&items).map(|(&v, &(val, _))| (val, v)),
    ));
    m.add_constraint(
        LinExpr::sum(vars.iter().zip(&items).map(|(&v, &(_, w))| (w, v))),
        Cmp::Le,
        5.0,
    );
    let sol = m.solve().unwrap();
    // best: items 0 (3/2) + 1 (4/3) → value 7 weight 5
    assert_eq!(sol.objective(), 7.0);
    assert!(sol.bool_value(vars[0]));
    assert!(sol.bool_value(vars[1]));
}

#[test]
fn pure_lp_no_integers() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.cont_var("x", 0.0, 10.0);
    let y = m.cont_var("y", 0.0, 10.0);
    m.add_constraint(x + y, Cmp::Ge, 3.5);
    m.set_objective(1.0 * x + 2.0 * y);
    let sol = m.solve().unwrap();
    assert!((sol.objective() - 3.5).abs() < 1e-7);
    assert!((sol.value(x) - 3.5).abs() < 1e-7);
}

#[test]
fn integrality_matters() {
    // LP optimum is fractional; ILP optimum differs.
    // max x + y st 2x + 2y <= 3, x,y ∈ {0,1} → LP 1.5, ILP 1
    let mut m = Model::new(Sense::Maximize);
    let x = m.bool_var("x");
    let y = m.bool_var("y");
    m.add_constraint(2.0 * x + 2.0 * y, Cmp::Le, 3.0);
    m.set_objective(x + y);
    let sol = m.solve().unwrap();
    assert_eq!(sol.objective(), 1.0);
}

#[test]
fn equality_partition() {
    // pick exactly 2 of 4 items minimising cost
    let mut m = Model::new(Sense::Minimize);
    let costs = [5.0, 1.0, 4.0, 2.0];
    let vars: Vec<_> = costs.iter().map(|_| m.bool_var("v")).collect();
    m.add_constraint(LinExpr::sum(vars.iter().map(|&v| (1.0, v))), Cmp::Eq, 2.0);
    m.set_objective(LinExpr::sum(vars.iter().zip(&costs).map(|(&v, &c)| (c, v))));
    let sol = m.solve().unwrap();
    assert_eq!(sol.objective(), 3.0);
    assert!(sol.bool_value(vars[1]) && sol.bool_value(vars[3]));
}

#[test]
fn infeasible_model() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.bool_var("x");
    m.add_constraint(LinExpr::from(x), Cmp::Ge, 2.0);
    assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
}

#[test]
fn unbounded_model() {
    let mut m = Model::new(Sense::Maximize);
    // continuous var with a huge range and no constraint
    let x = m.cont_var("x", 0.0, f64::MAX / 4.0);
    m.set_objective(LinExpr::from(x));
    // Bounded (by the variable's upper bound) but astronomically large —
    // treated as a normal solve; verify it does not error.
    let sol = m.solve().unwrap();
    assert!(sol.objective() > 1e300);
}

#[test]
fn negative_integer_bounds() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.int_var("x", -5, 5);
    m.add_constraint(LinExpr::from(x), Cmp::Ge, -3.5);
    m.set_objective(LinExpr::from(x));
    let sol = m.solve().unwrap();
    assert_eq!(sol.int_value(x), -3);
}

#[test]
fn abs_linearisation_positive_and_negative() {
    // minimise |x − 7| with x ∈ [0, 10] integer and x ≥ 9 → x = 9, |·| = 2
    let mut m = Model::new(Sense::Minimize);
    let x = m.int_var("x", 0, 10);
    m.add_constraint(LinExpr::from(x), Cmp::Ge, 9.0);
    let t = m.abs_var("t", LinExpr::from(x) - 7.0, 20.0);
    m.set_objective(LinExpr::from(t));
    let sol = m.solve().unwrap();
    assert_eq!(sol.int_value(x), 9);
    assert!((sol.value(t) - 2.0).abs() < 1e-6);

    // minimise |x − 7| with x ≤ 4 → x = 4, |·| = 3
    let mut m = Model::new(Sense::Minimize);
    let x = m.int_var("x", 0, 10);
    m.add_constraint(LinExpr::from(x), Cmp::Le, 4.0);
    let t = m.abs_var("t", LinExpr::from(x) - 7.0, 20.0);
    m.set_objective(LinExpr::from(t));
    let sol = m.solve().unwrap();
    assert_eq!(sol.int_value(x), 4);
    assert!((sol.value(t) - 3.0).abs() < 1e-6);
}

#[test]
fn assignment_problem_3x3() {
    // classic assignment: cost matrix, each row/col exactly once
    let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
    let mut m = Model::new(Sense::Minimize);
    let mut x = Vec::new();
    for i in 0..3 {
        let row: Vec<_> = (0..3).map(|j| m.bool_var(format!("x{i}{j}"))).collect();
        x.push(row);
    }
    for (i, row) in x.iter().enumerate() {
        m.add_constraint(LinExpr::sum(row.iter().map(|&v| (1.0, v))), Cmp::Eq, 1.0);
        m.add_constraint(LinExpr::sum((0..3).map(|j| (1.0, x[j][i]))), Cmp::Eq, 1.0);
    }
    let obj_terms: Vec<_> = (0..3)
        .flat_map(|i| (0..3).map(move |j| (i, j)))
        .map(|(i, j)| (cost[i][j], x[i][j]))
        .collect();
    m.set_objective(LinExpr::sum(obj_terms));
    let sol = m.solve().unwrap();
    // optimum: (0,1)+(1,0)+(2,2) = 1+2+2 = 5
    assert_eq!(sol.objective(), 5.0);
}

/// A loose knapsack with correlated weights: forces branching.
fn correlated_knapsack() -> Model {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..16).map(|i| m.bool_var(format!("b{i}"))).collect();
    let weighted = |base: f64, modulus: usize| {
        LinExpr::sum(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (base + (i % modulus) as f64, v)),
        )
    };
    m.add_constraint(weighted(2.0, 3), Cmp::Le, 17.0);
    m.set_objective(weighted(3.0, 5));
    m
}

#[test]
fn node_limit_errors_gracefully() {
    let mut m = correlated_knapsack();
    m.set_node_limit(1);
    match m.solve() {
        Err(SolveError::NodeLimit(_)) => {}
        Ok(_) => {} // solved at the root — also acceptable
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn node_budget_reports_explored_nodes() {
    let mut m = correlated_knapsack();
    let full = m.solve().unwrap().stats().nodes;
    assert!(full > 2, "the model must need a search, took {full} nodes");

    // a budget that is exactly enough is not an error
    m.set_node_limit(full as usize);
    assert_eq!(m.solve().unwrap().stats().nodes, full);
    // one node short: the count is what was explored, not budget + 1
    m.set_node_limit(full as usize - 1);
    match m.solve() {
        Err(SolveError::NodeLimit(Some(sol))) => assert_eq!(sol.stats().nodes, full - 1),
        other => panic!("expected a node-limited incumbent, got {other:?}"),
    }
}

#[test]
fn fixed_variable_via_equal_bounds() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.int_var("x", 3, 3);
    let y = m.int_var("y", 0, 10);
    m.add_constraint(x + y, Cmp::Ge, 5.0);
    m.set_objective(LinExpr::from(y));
    let sol = m.solve().unwrap();
    assert_eq!(sol.int_value(x), 3);
    assert_eq!(sol.int_value(y), 2);
}

#[test]
fn maximization_with_constant_offset() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.bool_var("x");
    m.set_objective(2.0 * x + 10.0);
    let sol = m.solve().unwrap();
    assert_eq!(sol.objective(), 12.0);
}

mod brute_force_cross_check {
    use super::*;
    use proptest::prelude::*;

    /// Enumerates all 0/1 assignments and returns the best objective, or
    /// None when infeasible.
    fn brute_force(
        n: usize,
        cons: &[(Vec<f64>, Cmp, f64)],
        obj: &[f64],
        sense: Sense,
    ) -> Option<f64> {
        let mut best: Option<f64> = None;
        for mask in 0..(1u32 << n) {
            let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
            let ok = cons.iter().all(|(coef, cmp, rhs)| {
                let lhs: f64 = coef.iter().zip(&x).map(|(c, v)| c * v).sum();
                match cmp {
                    Cmp::Le => lhs <= rhs + 1e-9,
                    Cmp::Ge => lhs >= rhs - 1e-9,
                    Cmp::Eq => (lhs - rhs).abs() < 1e-9,
                }
            });
            if !ok {
                continue;
            }
            let val: f64 = obj.iter().zip(&x).map(|(c, v)| c * v).sum();
            best = Some(match (best, sense) {
                (None, _) => val,
                (Some(b), Sense::Minimize) => b.min(val),
                (Some(b), Sense::Maximize) => b.max(val),
            });
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn solver_matches_brute_force(
            n in 2usize..7,
            ncons in 1usize..4,
            coef_seed in proptest::collection::vec(-4i8..5, 0..64),
            rhs_seed in proptest::collection::vec(-3i8..8, 0..8),
            obj_seed in proptest::collection::vec(-5i8..6, 0..8),
            maximize in any::<bool>(),
        ) {
            let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
            let mut m = Model::new(sense);
            let vars: Vec<_> = (0..n).map(|i| m.bool_var(format!("v{i}"))).collect();
            let mut cons = Vec::new();
            for c in 0..ncons {
                let coeffs: Vec<f64> = (0..n)
                    .map(|j| *coef_seed.get(c * n + j).unwrap_or(&1) as f64)
                    .collect();
                let rhs = *rhs_seed.get(c).unwrap_or(&2) as f64;
                let cmp = match c % 3 {
                    0 => Cmp::Le,
                    1 => Cmp::Ge,
                    _ => Cmp::Le,
                };
                m.add_constraint(
                    LinExpr::sum(coeffs.iter().zip(&vars).map(|(&co, &v)| (co, v))),
                    cmp,
                    rhs,
                );
                cons.push((coeffs, cmp, rhs));
            }
            let obj: Vec<f64> = (0..n)
                .map(|j| *obj_seed.get(j).unwrap_or(&1) as f64)
                .collect();
            m.set_objective(LinExpr::sum(obj.iter().zip(&vars).map(|(&c, &v)| (c, v))));

            let expect = brute_force(n, &cons, &obj, sense);
            match (m.solve(), expect) {
                (Ok(sol), Some(best)) => {
                    prop_assert!((sol.objective() - best).abs() < 1e-6,
                        "solver {} vs brute force {}", sol.objective(), best);
                    // solution must satisfy every constraint
                    for (coeffs, cmp, rhs) in &cons {
                        let lhs: f64 = coeffs.iter().zip(&vars)
                            .map(|(c, &v)| c * sol.value(v)).sum();
                        let ok = match cmp {
                            Cmp::Le => lhs <= rhs + 1e-6,
                            Cmp::Ge => lhs >= rhs - 1e-6,
                            Cmp::Eq => (lhs - rhs).abs() < 1e-6,
                        };
                        prop_assert!(ok, "constraint violated: {lhs} {cmp} {rhs}");
                    }
                }
                (Err(SolveError::Infeasible), None) => {}
                (got, want) => prop_assert!(false, "solver {got:?} vs brute force {want:?}"),
            }
        }
    }
}

#[test]
fn presolve_shrinks_search_fast() {
    // chain of implications: x0 ≥ 3 forces a cascade through equalities —
    // presolve should make this nearly free
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..12).map(|i| m.int_var(format!("v{i}"), 0, 20)).collect();
    m.add_constraint(LinExpr::from(vars[0]), Cmp::Ge, 3.0);
    for w in vars.windows(2) {
        // v_{i+1} = v_i + 1
        m.add_constraint(LinExpr::from(w[1]) - w[0], Cmp::Eq, 1.0);
    }
    m.set_objective(LinExpr::from(vars[11]));
    let sol = m.solve().unwrap();
    assert_eq!(sol.int_value(vars[0]), 3);
    assert_eq!(sol.int_value(vars[11]), 14);
}

#[test]
fn degenerate_equalities_with_zero_rhs() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.bool_var("x");
    let y = m.bool_var("y");
    m.add_constraint(LinExpr::from(x) - y, Cmp::Eq, 0.0);
    m.set_objective(x + y);
    let sol = m.solve().unwrap();
    assert_eq!(sol.objective(), 2.0);
    assert_eq!(sol.bool_value(x), sol.bool_value(y));
}

#[test]
fn big_coefficients_stay_stable() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.int_var("x", 0, 1000);
    m.add_constraint(997.0 * x, Cmp::Ge, 49_850.0);
    m.set_objective(LinExpr::from(x));
    let sol = m.solve().unwrap();
    assert_eq!(sol.int_value(x), 50);
}

#[test]
fn scatter_like_model_solves() {
    // smoke: a model shaped like row scattering
    let mut m = Model::new(Sense::Minimize);
    let mut obj = LinExpr::new();
    for i in 0..3 {
        let cols: Vec<_> = (0..2).map(|c| m.bool_var(format!("v{i}{c}"))).collect();
        m.add_constraint(LinExpr::sum(cols.iter().map(|&v| (1.0, v))), Cmp::Eq, 1.0);
        let t = m.abs_var(format!("t{i}"), LinExpr::from(cols[0]) - cols[1], 4.0);
        obj = obj + LinExpr::sum([(1.0, t)]);
    }
    m.set_objective(obj);
    assert!(m.solve().is_ok());
}

mod objective_floor {
    use super::*;
    use crate::VarId;
    use proptest::prelude::*;

    /// `t ≥ |expr|` written out by hand — the rows of [`Model::abs_var`]
    /// without the record the floor is derived from.
    fn abs_by_hand(m: &mut Model, expr: LinExpr, bound: f64) -> VarId {
        let t = m.cont_var("t", 0.0, bound);
        m.add_constraint(expr.clone() - LinExpr::from(t), Cmp::Le, 0.0);
        m.add_constraint(-expr - LinExpr::from(t), Cmp::Le, 0.0);
        t
    }

    #[test]
    fn floor_is_the_distance_to_the_coefficient_lattice() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", -3, 9);
        let y = m.bool_var("y");
        // 4x + 8y − 6 ∈ 2 + 4ℤ: never closer to zero than 2
        let a = m.abs_var("a", 4.0 * x + 8.0 * y - 6.0, 100.0);
        // duplicate terms merge before the gcd: 3x + 3x − 6y + 2.5 ∈ 2.5 + 6ℤ
        let b = m.abs_var("b", 3.0 * x + 3.0 * x - 6.0 * y + 2.5, 100.0);
        // no variables at all: the constant itself
        let c = m.abs_var("c", LinExpr::constant(-1.5), 100.0);
        let unused = m.abs_var("unused", LinExpr::from(x) - 0.5, 100.0);
        m.set_objective(1.0 * a + 2.0 * b + 4.0 * c + 0.0 * unused + 7.0);
        assert_eq!(m.objective_floor(), Some(2.0 + 2.0 * 2.5 + 4.0 * 1.5));
        // a bound, not a promise: b's lattice point needs x = y, a's does not
        assert!(m.solve().unwrap().objective() > 13.0 + 7.0);
    }

    #[test]
    fn models_without_a_floor() {
        type Build = fn(&mut Model, VarId, VarId) -> LinExpr;
        let cases: [(&str, Sense, Build); 7] = [
            ("maximise", Sense::Maximize, |m, x, _| {
                LinExpr::from(m.abs_var("t", 2.0 * x - 1.0, 9.0))
            }),
            ("negative weight", Sense::Minimize, |m, x, y| {
                let t = m.abs_var("t", 2.0 * x - 1.0, 9.0);
                let u = m.abs_var("u", 2.0 * y - 1.0, 9.0);
                1.0 * t - 1.0 * u
            }),
            ("continuous operand", Sense::Minimize, |m, x, _| {
                let z = m.cont_var("z", 0.0, 1.0);
                LinExpr::from(m.abs_var("t", 2.0 * x + 2.0 * z - 1.0, 9.0))
            }),
            ("fractional coefficient", Sense::Minimize, |m, x, y| {
                LinExpr::from(m.abs_var("t", 2.0 * x + 0.5 * y - 1.0, 9.0))
            }),
            ("term that is no abs_var", Sense::Minimize, |m, x, y| {
                m.abs_var("t", 2.0 * x - 1.0, 9.0) + y
            }),
            ("hand-written rows", Sense::Minimize, |m, x, _| {
                LinExpr::from(abs_by_hand(m, 2.0 * x - 1.0, 9.0))
            }),
            ("empty objective", Sense::Minimize, |m, x, _| {
                m.abs_var("t", 2.0 * x - 1.0, 9.0);
                LinExpr::new()
            }),
        ];
        for (name, sense, build) in cases {
            let mut m = Model::new(sense);
            let x = m.int_var("x", 0, 4);
            let y = m.bool_var("y");
            let objective = build(&mut m, x, y);
            m.set_objective(objective);
            assert_eq!(m.objective_floor(), None, "{name}");
            assert!(m.solve().is_ok(), "{name} still solves");
        }
        // the control: the first case, minimised, has one
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0, 4);
        let t = m.abs_var("t", 2.0 * x - 1.0, 9.0);
        m.set_objective(LinExpr::from(t));
        assert_eq!(m.objective_floor(), Some(1.0));
    }

    /// The scattering balance `min |R·Σ wᵢ·xᵢ − target|` under `≤`
    /// cardinality rows (a bit mask of members and a cap each).
    fn balance(
        weights: &[i64],
        rows: i64,
        target: i64,
        cards: &[(u16, usize)],
        by_hand: bool,
    ) -> (Model, Vec<VarId>) {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..weights.len())
            .map(|i| m.bool_var(format!("x{i}")))
            .collect();
        for &(mask, cap) in cards {
            let members = vars.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
            m.add_constraint(
                LinExpr::sum(members.map(|(_, &v)| (1.0, v))),
                Cmp::Le,
                cap as f64,
            );
        }
        let expr = LinExpr::sum(
            weights
                .iter()
                .zip(&vars)
                .map(|(&w, &v)| ((rows * w) as f64, v)),
        ) - target as f64;
        let bound = (rows * weights.iter().sum::<i64>() + target.abs()) as f64;
        let t = if by_hand {
            abs_by_hand(&mut m, expr, bound)
        } else {
            m.abs_var("t", expr, bound)
        };
        m.set_objective(LinExpr::from(t));
        (m, vars)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn floor_stops_a_prefix_of_the_same_search(
            weights in proptest::collection::vec(1i64..41, 2..13),
            rows in 2i64..5,
            share in 20i64..81,
            offset in -3i64..4,
            masks in proptest::collection::vec(0u16..4096, 0..4),
            caps in proptest::collection::vec(0usize..13, 3..4),
        ) {
            let n = weights.len();
            let cards: Vec<(u16, usize)> = masks.into_iter().zip(caps).collect();
            // a target the subsets can straddle, a few units off the lattice
            let target = rows * weights.iter().sum::<i64>() * share / 100 + offset;
            let best = (0..1u32 << n)
                .filter(|pick| {
                    cards.iter().all(|&(mask, cap)| {
                        (pick & u32::from(mask) & ((1 << n) - 1)).count_ones() as usize <= cap
                    })
                })
                .map(|pick| {
                    let stay: i64 = (0..n).filter(|i| pick >> i & 1 == 1).map(|i| weights[i]).sum();
                    (rows * stay - target).abs()
                })
                .min()
                .expect("all-zero satisfies every cap") as f64;

            let (with_floor, vars) = balance(&weights, rows, target, &cards, false);
            let (by_hand, hand_vars) = balance(&weights, rows, target, &cards, true);
            let floor = with_floor.objective_floor().expect("a balance model has a floor");
            prop_assert!(floor <= best, "floor {floor} above the optimum {best}");
            prop_assert_eq!(by_hand.objective_floor(), None);

            let stopped = with_floor.solve().unwrap();
            let exhaustive = by_hand.solve().unwrap();
            prop_assert!((stopped.objective() - best).abs() < 1e-6,
                "solver {} vs brute force {best}", stopped.objective());
            prop_assert!((exhaustive.objective() - best).abs() < 1e-6);
            // same tree, same incumbent, possibly fewer nodes
            prop_assert!(stopped.stats().nodes <= exhaustive.stats().nodes);
            prop_assert!(stopped.stats().pivots <= exhaustive.stats().pivots);
            for (&a, &b) in vars.iter().zip(&hand_vars) {
                prop_assert_eq!(stopped.bool_value(a), exhaustive.bool_value(b));
            }
        }
    }
}

/// The solver against exhaustive enumeration on seeded random models:
/// up to 14 binaries, `≤` / `≥` / `=` rows, objectives with
/// [`Model::abs_var`] terms. Enumeration is the oracle, so no second LP
/// solver is kept to compare with.
mod enumeration_oracle {
    use super::*;
    use crate::{Solution, VarId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `Σ coeffs·x + constant` over the binaries, integer coefficients.
    type IntExpr = (Vec<i64>, i64);

    struct Case {
        n: usize,
        rows: Vec<(Vec<i64>, Cmp, i64)>,
        linear: Vec<i64>,
        /// `(weight, expr)`: the objective adds `weight · |expr|`.
        abs: Vec<(i64, IntExpr)>,
        sense: Sense,
    }

    fn dot(coeffs: &[i64], x: &[i64]) -> i64 {
        coeffs.iter().zip(x).map(|(a, b)| a * b).sum()
    }

    impl Case {
        fn random(rng: &mut SmallRng) -> Case {
            let n = rng.gen_range(1..15usize);
            let coeffs = |rng: &mut SmallRng, lo: i64, hi: i64| -> Vec<i64> {
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.6) {
                            rng.gen_range(lo..hi + 1)
                        } else {
                            0
                        }
                    })
                    .collect()
            };
            // right-hand sides around a random point: mostly feasible
            let anchor: Vec<i64> = (0..n).map(|_| rng.gen_range(0..2i64)).collect();
            let rows = (0..rng.gen_range(0..6usize))
                .map(|_| {
                    let a = coeffs(rng, -3, 3);
                    let at = dot(&a, &anchor);
                    match rng.gen_range(0..3u8) {
                        0 => (a, Cmp::Le, at + rng.gen_range(-2..3i64)),
                        1 => (a, Cmp::Ge, at - rng.gen_range(-2..3i64)),
                        _ => (a, Cmp::Eq, at + i64::from(rng.gen_bool(0.15))),
                    }
                })
                .collect();
            let minimize = rng.gen_bool(0.75);
            let abs = if minimize {
                (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        let weight = rng.gen_range(0..5i64);
                        (weight, (coeffs(rng, -6, 6), rng.gen_range(-9..10i64)))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            Case {
                n,
                rows,
                linear: coeffs(rng, -5, 5),
                abs,
                sense: if minimize {
                    Sense::Minimize
                } else {
                    Sense::Maximize
                },
            }
        }

        fn model(&self, node_limit: Option<usize>) -> (Model, Vec<VarId>) {
            let mut m = Model::new(self.sense);
            if let Some(limit) = node_limit {
                m.set_node_limit(limit);
            }
            let x: Vec<VarId> = (0..self.n).map(|j| m.bool_var(format!("x{j}"))).collect();
            let expr =
                |coeffs: &[i64]| LinExpr::sum(coeffs.iter().zip(&x).map(|(&a, &v)| (a as f64, v)));
            for (a, cmp, rhs) in &self.rows {
                m.add_constraint(expr(a), *cmp, *rhs as f64);
            }
            let mut objective = expr(&self.linear);
            for (weight, (a, c)) in &self.abs {
                let bound = (a.iter().map(|v| v.abs()).sum::<i64>() + c.abs()) as f64;
                let t = m.abs_var("t", expr(a) + *c as f64, bound);
                objective = objective + LinExpr::sum([(*weight as f64, t)]);
            }
            m.set_objective(objective);
            (m, x)
        }

        /// Best objective over all `2ⁿ` assignments; `None` if none is feasible.
        fn enumerate(&self) -> Option<i64> {
            (0..1u32 << self.n)
                .map(|mask| {
                    (0..self.n)
                        .map(|j| i64::from(mask >> j & 1))
                        .collect::<Vec<_>>()
                })
                .filter(|x| {
                    self.rows.iter().all(|(a, cmp, rhs)| match cmp {
                        Cmp::Le => dot(a, x) <= *rhs,
                        Cmp::Ge => dot(a, x) >= *rhs,
                        Cmp::Eq => dot(a, x) == *rhs,
                    })
                })
                .map(|x| {
                    let abs: i64 = self
                        .abs
                        .iter()
                        .map(|(w, (a, c))| w * (dot(a, &x) + c).abs())
                        .sum();
                    dot(&self.linear, &x) + abs
                })
                .reduce(|a, b| match self.sense {
                    Sense::Minimize => a.min(b),
                    Sense::Maximize => a.max(b),
                })
        }

        /// Every row holds within 1e-6 at `sol`, every binary is 0 or 1,
        /// and the returned objective is what the values give.
        fn check_solution(&self, sol: &Solution, x: &[VarId]) {
            let values: Vec<f64> = x.iter().map(|&v| sol.value(v)).collect();
            assert!(values.iter().all(|&v| v == 0.0 || v == 1.0), "{values:?}");
            for (a, cmp, rhs) in &self.rows {
                let lhs: f64 = a.iter().zip(&values).map(|(&c, v)| c as f64 * v).sum();
                let rhs = *rhs as f64;
                let holds = match cmp {
                    Cmp::Le => lhs <= rhs + 1e-6,
                    Cmp::Ge => lhs >= rhs - 1e-6,
                    Cmp::Eq => (lhs - rhs).abs() <= 1e-6,
                };
                assert!(holds, "row violated: {lhs} {cmp} {rhs}");
            }
            let ints: Vec<i64> = values.iter().map(|&v| v as i64).collect();
            let abs: i64 = self
                .abs
                .iter()
                .map(|(w, (a, c))| w * (dot(a, &ints) + c).abs())
                .sum();
            let at = (dot(&self.linear, &ints) + abs) as f64;
            // a `t` may sit above `|expr|` only where its weight is 0
            assert!(
                (sol.objective() - at).abs() < 1e-6,
                "objective {} but the values give {at}",
                sol.objective()
            );
        }
    }

    #[test]
    fn solver_matches_enumeration_on_256_seeded_models() {
        let mut rng = SmallRng::seed_from_u64(0x11b_0ac1e);
        let (mut infeasible, mut limited_with_incumbent) = (0, 0);
        for case_no in 0..256 {
            let case = Case::random(&mut rng);
            let (model, x) = case.model(None);
            let Some(best) = case.enumerate() else {
                assert_eq!(model.solve(), Err(SolveError::Infeasible), "case {case_no}");
                infeasible += 1;
                continue;
            };
            let sol = model
                .solve()
                .unwrap_or_else(|e| panic!("case {case_no}: {e}, enumeration found {best}"));
            assert!(
                (sol.objective() - best as f64).abs() < 1e-6,
                "case {case_no}: solver {} vs enumeration {best}",
                sol.objective()
            );
            case.check_solution(&sol, &x);

            // one node short of the full search: a node-limited stop that
            // keeps a feasible incumbent no better than the optimum
            let nodes = sol.stats().nodes as usize;
            if nodes < 2 {
                continue;
            }
            let (short, x) = case.model(Some(nodes - 1));
            match short.solve() {
                Err(SolveError::NodeLimit(Some(inc))) => {
                    assert_eq!(inc.stats().nodes as usize, nodes - 1);
                    case.check_solution(&inc, &x);
                    let worse_or_equal = match case.sense {
                        Sense::Minimize => inc.objective() >= best as f64 - 1e-6,
                        Sense::Maximize => inc.objective() <= best as f64 + 1e-6,
                    };
                    assert!(
                        worse_or_equal,
                        "case {case_no}: incumbent beats the optimum"
                    );
                    limited_with_incumbent += 1;
                }
                Err(SolveError::NodeLimit(None)) => {}
                other => panic!("case {case_no}: expected a node limit, got {other:?}"),
            }
        }
        // the generator reaches both error paths, not only the happy one
        assert!(infeasible >= 10, "only {infeasible} infeasible models");
        assert!(
            limited_with_incumbent >= 10,
            "only {limited_with_incumbent} node-limited incumbents"
        );
    }
}
