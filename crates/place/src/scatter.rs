//! The two scattering ILPs (paper §3.2.1 and §3.2.2).

use crate::{IlpEffort, PlaceError};
use panorama_cluster::{Cdg, CdgNodeId};
use panorama_ilp::{Cmp, LinExpr, Model, Sense, Solution, SolveError, VarId};

/// Branch & bound node budget of every scattering ILP.
const ILP_NODE_LIMIT: usize = 60_000;

/// Runs a model, accepting a node-limit incumbent as a (possibly
/// suboptimal) success — scattering quality degrades gracefully. Every
/// solve counts into `effort`, the choke point through which all
/// scattering ILP statistics flow.
fn solve_lenient(model: &Model, effort: &mut IlpEffort) -> Result<Option<Solution>, PlaceError> {
    effort.solves += 1;
    match model.solve() {
        Ok(sol) => {
            effort.absorb(sol.stats());
            Ok(Some(sol))
        }
        Err(SolveError::Infeasible) => Ok(None),
        Err(SolveError::NodeLimit(Some(sol))) => {
            effort.node_limited += 1;
            effort.absorb(sol.stats());
            Ok(Some(sol))
        }
        Err(e @ SolveError::NodeLimit(None)) => Err(PlaceError::Solver(e)),
    }
}

/// Column-wise scattering (paper §3.2.1): assigns every CDG node a cluster
/// row in `0..rows` by repeated matching-cut splits with fixed ζ values,
/// accumulating ILP solver effort into `effort` (one matching-cut solve
/// per split).
///
/// Returns `Ok(None)` when some split is infeasible at these ζ values (the
/// caller escalates ζ, Algorithm 1 lines 7–9).
///
/// # Errors
///
/// * [`PlaceError::TooFewClusters`] when the CDG has fewer nodes than
///   `rows`;
/// * [`PlaceError::Solver`] on solver breakdown (node budget without
///   incumbent).
pub fn column_scatter(
    cdg: &Cdg,
    rows: usize,
    zeta1: u32,
    zeta2: u32,
    effort: &mut IlpEffort,
) -> Result<Option<Vec<usize>>, PlaceError> {
    let k = cdg.num_clusters();
    if k < rows {
        return Err(PlaceError::TooFewClusters { k, rows });
    }
    let total = cdg.total_dfg_nodes() as f64;
    let mut row_of = vec![0usize; k];
    // the working set: nodes still at the current row
    let mut current: Vec<CdgNodeId> = cdg.cluster_ids().collect();

    for r in 0..rows.saturating_sub(1) {
        let below = rows - 1 - r; // rows still to fill underneath
        let mut model = Model::new(Sense::Minimize);
        model.set_node_limit(ILP_NODE_LIMIT);
        // v_i = 1 ⇔ node i stays at row r (is NOT pushed down)
        let vars: Vec<VarId> = current
            .iter()
            .map(|n| model.bool_var(format!("stay_{n}")))
            .collect();

        // every row keeps at least one node; enough nodes continue downward
        model.add_constraint(LinExpr::sum(vars.iter().map(|&v| (1.0, v))), Cmp::Ge, 1.0);
        model.add_constraint(
            LinExpr::sum(vars.iter().map(|&v| (1.0, v))),
            Cmp::Le,
            (current.len() - below) as f64,
        );

        // objective: | Σ stay sizes − total/rows |, scaled by `rows` to stay
        // integral
        let stay_weight = LinExpr::sum(
            current
                .iter()
                .zip(&vars)
                .map(|(&n, &v)| (rows as f64 * cdg.size(n) as f64, v)),
        );
        let target = total;
        let bound = rows as f64 * total + total;
        let t = model.abs_var("balance", stay_weight - target, bound);
        model.set_objective(LinExpr::from(t));

        // matching-cut constraints on multi-degree nodes (degree within the
        // working set)
        let in_set: Vec<bool> = {
            let mut m = vec![false; k];
            for &n in &current {
                m[n.index()] = true;
            }
            m
        };
        let var_of = |n: CdgNodeId| -> VarId {
            let pos = current.iter().position(|&x| x == n).expect("node in set");
            vars[pos]
        };
        for (pos, &n) in current.iter().enumerate() {
            let adj: Vec<CdgNodeId> = cdg
                .neighbors(n)
                .into_iter()
                .map(|(o, _)| o)
                .filter(|o| in_set[o.index()])
                .collect();
            let deg = adj.len();
            if deg < 2 {
                continue; // constraints apply to multi-degree nodes
            }
            let eta = (2 * deg + 4) as f64;
            let vi = vars[pos];
            // Σ_j (v_j + v_i) ≤ ζ1 + η·v_i
            let lhs = LinExpr::sum(
                adj.iter()
                    .map(|&j| (1.0, var_of(j)))
                    .chain(std::iter::once((deg as f64 - eta, vi))),
            );
            model.add_constraint(lhs, Cmp::Le, zeta1 as f64);
            // Σ_j (v_j + v_i) ≥ 2·deg − ζ2 − η·(1 − v_i)
            // ⇔ Σ_j v_j + (deg − η)·v_i ≥ 2·deg − ζ2 − η
            let lhs = LinExpr::sum(
                adj.iter()
                    .map(|&j| (1.0, var_of(j)))
                    .chain(std::iter::once((deg as f64 - eta, vi))),
            );
            model.add_constraint(lhs, Cmp::Ge, 2.0 * deg as f64 - zeta2 as f64 - eta);
        }

        let Some(sol) = solve_lenient(&model, effort)? else {
            return Ok(None);
        };

        let mut stay = Vec::new();
        let mut pushed = Vec::new();
        for (&n, &v) in current.iter().zip(&vars) {
            if sol.bool_value(v) {
                row_of[n.index()] = r;
                stay.push(n);
            } else {
                row_of[n.index()] = r + 1;
                pushed.push(n);
            }
        }
        debug_assert!(!stay.is_empty() && pushed.len() >= below);
        current = pushed;
    }
    // nodes still in `current` already carry row = rows-1
    Ok(Some(row_of))
}

/// Row-wise scattering (paper §3.2.2): given each node's cluster row,
/// chooses the set of cluster columns it occupies, accumulating ILP solver
/// effort into `effort` (one solve per row per balance-slack attempt).
///
/// Large clusters span `ceil(size / avg)` contiguous columns (one-to-many
/// mapping); the objective minimises the inter-cluster-edge-weighted column
/// distance between dependent CDG nodes.
///
/// Returns, for each CDG node, its occupied columns (sorted). Of a row's
/// solution and its mirror image, the cheaper is kept, and on a tie the
/// one that puts the lowest-numbered node whose columns differ further
/// left: which image the ILP solver meets first does not decide the plan.
///
/// # Errors
///
/// * [`PlaceError::RowScatterInfeasible`] when no assignment satisfies the
///   span/coverage constraints;
/// * [`PlaceError::Solver`] on solver breakdown.
pub fn row_scatter(
    cdg: &Cdg,
    row_of: &[usize],
    rows: usize,
    cols: usize,
    effort: &mut IlpEffort,
) -> Result<Vec<Vec<usize>>, PlaceError> {
    let k = cdg.num_clusters();
    assert_eq!(row_of.len(), k, "row assignment must cover every CDG node");
    let total = cdg.total_dfg_nodes() as f64;
    let avg = (total / (rows * cols) as f64).max(1.0);

    let span_of: Vec<usize> = cdg
        .cluster_ids()
        .map(|n| {
            let s = (cdg.size(n) as f64 / avg).ceil() as usize;
            s.clamp(1, cols)
        })
        .collect();

    // Try tight per-cell load balance first, relaxing only when the ILP
    // has no solution at that slack.
    for slack in [1.35, 1.7, 2.5, f64::INFINITY] {
        match row_scatter_at(cdg, row_of, rows, cols, &span_of, slack, effort)? {
            Some(columns) => return Ok(columns),
            None => continue,
        }
    }
    Err(PlaceError::RowScatterInfeasible)
}

/// One row-scatter attempt at a fixed balance slack; `Ok(None)` when any
/// row is infeasible at this slack.
///
/// Rows are solved **sequentially**: each row's ILP only involves that
/// row's nodes (a handful of booleans), with edges to already-placed rows
/// entering the objective as fixed column positions. The paper solves one
/// joint ILP with Gurobi; the decomposition keeps our branch & bound
/// solver comfortably inside its budget at every scale and loses little —
/// inter-row alignment is still optimised, one direction at a time.
#[allow(clippy::too_many_arguments)]
fn row_scatter_at(
    cdg: &Cdg,
    row_of: &[usize],
    rows: usize,
    cols: usize,
    span_of: &[usize],
    balance_slack: f64,
    effort: &mut IlpEffort,
) -> Result<Option<Vec<Vec<usize>>>, PlaceError> {
    let k = cdg.num_clusters();
    let mut cols_of: Vec<Vec<usize>> = vec![Vec::new(); k];
    // fixed centre-of-mass (sum of 1-based columns / span) per placed node
    let mut fixed_center: Vec<Option<f64>> = vec![None; k];

    for r in 0..rows {
        let members: Vec<usize> = (0..k).filter(|&i| row_of[i] == r).collect();
        if members.is_empty() {
            continue;
        }
        let mut model = Model::new(Sense::Minimize);
        model.set_node_limit(ILP_NODE_LIMIT);
        let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(members.len());
        for &i in &members {
            let row: Vec<VarId> = (0..cols)
                .map(|c| model.bool_var(format!("v_{i}_{c}")))
                .collect();
            // exactly span columns
            model.add_constraint(
                LinExpr::sum(row.iter().map(|&v| (1.0, v))),
                Cmp::Eq,
                span_of[i] as f64,
            );
            // contiguity: no selected-gap-selected pattern
            for c1 in 0..cols {
                for c2 in (c1 + 1)..cols {
                    for c3 in (c2 + 1)..cols {
                        model.add_constraint(
                            LinExpr::sum([(1.0, row[c1]), (-1.0, row[c2]), (1.0, row[c3])]),
                            Cmp::Le,
                            1.0,
                        );
                    }
                }
            }
            vars.push(row);
        }
        let var_of = |i: usize| -> &Vec<VarId> {
            &vars[members.iter().position(|&m| m == i).expect("member")]
        };

        // coverage + per-cell load balance
        let capacity: usize = members.iter().map(|&i| span_of[i]).sum();
        let row_load: f64 = members.iter().map(|&i| cdg.size(i_id(i)) as f64).sum();
        for c in 0..cols {
            if capacity >= cols {
                model.add_constraint(
                    LinExpr::sum(members.iter().map(|&i| (1.0, var_of(i)[c]))),
                    Cmp::Ge,
                    1.0,
                );
            }
            if balance_slack.is_finite() {
                model.add_constraint(
                    LinExpr::sum(
                        members
                            .iter()
                            .map(|&i| (cdg.size(i_id(i)) as f64 / span_of[i] as f64, var_of(i)[c])),
                    ),
                    Cmp::Le,
                    (balance_slack * row_load / cols as f64).max(1.0),
                );
            }
        }

        // objective: weighted column distance, within the row (both ends
        // free) and toward already-placed rows (fixed centres); `terms`
        // keeps each (weight, distance) to price the mirror image below
        let mut objective = LinExpr::new();
        let mut terms: Vec<(f64, LinExpr)> = Vec::new();
        let in_row: std::collections::HashSet<usize> = members.iter().copied().collect();
        for e in cdg.edges() {
            let (i, j) = (e.a.index(), e.b.index());
            let (ii, jj) = (in_row.contains(&i), in_row.contains(&j));
            let bound = 2.0 * (cols * (cols + 1)) as f64;
            match (ii, jj) {
                (true, true) => {
                    let (si, sj) = (span_of[i] as f64, span_of[j] as f64);
                    let diff = LinExpr::sum(
                        (0..cols)
                            .map(|c| (sj * (c + 1) as f64, var_of(i)[c]))
                            .chain((0..cols).map(|c| (-si * (c + 1) as f64, var_of(j)[c]))),
                    );
                    let t = model.abs_var(format!("d_{i}_{j}"), diff.clone(), bound * si.max(sj));
                    objective = objective + LinExpr::sum([(e.weight as f64, t)]);
                    terms.push((e.weight as f64, diff));
                }
                (true, false) | (false, true) => {
                    let (free, anchor) = if ii { (i, j) } else { (j, i) };
                    let Some(center) = fixed_center[anchor] else {
                        continue; // anchor row not placed yet
                    };
                    let sf = span_of[free] as f64;
                    // | Σ (c+1)·v_c − span_free·center |
                    let diff = LinExpr::sum((0..cols).map(|c| ((c + 1) as f64, var_of(free)[c])))
                        - sf * center;
                    let t = model.abs_var(format!("a_{i}_{j}"), diff.clone(), bound * sf);
                    objective = objective + LinExpr::sum([(e.weight as f64, t)]);
                    terms.push((e.weight as f64, diff));
                }
                (false, false) => {}
            }
        }
        model.set_objective(objective);

        let Some(sol) = solve_lenient(&model, effort)? else {
            return Ok(None);
        };
        let mut image: Vec<Vec<usize>> = vars
            .iter()
            .map(|row_vars| (0..cols).filter(|&c| sol.bool_value(row_vars[c])).collect())
            .collect();
        // Every constraint maps onto itself under the mirror c ↦ cols−1−c,
        // and so does the objective when the anchors are symmetric (always
        // on the first row). Of the two images take the cheaper, and on a
        // tie the one that puts the lowest-numbered member whose columns
        // differ further left, so the plan does not hang on which image
        // the solver met first.
        let cost = |image: &[Vec<usize>]| -> f64 {
            let mut values = vec![0.0; model.num_vars()];
            for (chosen, row_vars) in image.iter().zip(&vars) {
                for &c in chosen {
                    values[row_vars[c].index()] = 1.0;
                }
            }
            terms
                .iter()
                .map(|(w, diff)| w * diff.eval(&values).abs())
                .sum()
        };
        let mirror: Vec<Vec<usize>> = image
            .iter()
            .map(|chosen| chosen.iter().rev().map(|&c| cols - 1 - c).collect())
            .collect();
        let (here, there) = (cost(&image), cost(&mirror));
        if there < here - 1e-9 || (there <= here + 1e-9 && mirror < image) {
            image = mirror;
        }
        for (&i, chosen) in members.iter().zip(image) {
            let center =
                chosen.iter().map(|&c| (c + 1) as f64).sum::<f64>() / chosen.len().max(1) as f64;
            fixed_center[i] = Some(center);
            cols_of[i] = chosen;
        }
    }
    Ok(Some(cols_of))
}

/// Dense index → CDG node id.
fn i_id(i: usize) -> CdgNodeId {
    CdgNodeId::from_index(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_cluster::Partition;
    use panorama_dfg::{Dfg, DfgBuilder, OpKind};

    /// A DFG of `sizes.len()` chained groups; group i has `sizes[i]` nodes.
    fn chained_cdg(sizes: &[usize]) -> (Dfg, Cdg) {
        let mut b = DfgBuilder::new("chain");
        let mut labels = Vec::new();
        let mut last_of_group = Vec::new();
        for (g, &s) in sizes.iter().enumerate() {
            let nodes: Vec<_> = (0..s)
                .map(|i| b.op(OpKind::Add, format!("g{g}_{i}")))
                .collect();
            for w in nodes.windows(2) {
                b.data(w[0], w[1]);
            }
            if let Some(&prev) = last_of_group.last() {
                b.data(prev, nodes[0]);
            }
            last_of_group.push(*nodes.last().unwrap());
            labels.extend(std::iter::repeat_n(g, s));
        }
        let dfg = b.build().unwrap();
        let part = Partition::new(labels, sizes.len());
        let cdg = Cdg::new(&dfg, &part);
        (dfg, cdg)
    }

    #[test]
    fn column_scatter_balances_rows() {
        let (_, cdg) = chained_cdg(&[4, 4, 4, 4]);
        let rows = column_scatter(&cdg, 2, 1, 1, &mut IlpEffort::default())
            .unwrap()
            .expect("feasible at zeta 1 for a path CDG");
        // two groups per row (8 DFG nodes each)
        let weight_row0: usize = (0..4)
            .filter(|&i| rows[i] == 0)
            .map(|i| cdg.size(CdgNodeId::from_index(i)))
            .sum();
        assert_eq!(weight_row0, 8);
        assert!(rows.iter().all(|&r| r < 2));
    }

    #[test]
    fn column_scatter_respects_matching_cut_on_path() {
        // a path CDG always admits a matching cut: zeta 1 must suffice
        let (_, cdg) = chained_cdg(&[2, 2, 2, 2, 2, 2]);
        let result = column_scatter(&cdg, 3, 1, 1, &mut IlpEffort::default()).unwrap();
        assert!(result.is_some());
        let rows = result.unwrap();
        for r in 0..3 {
            assert!(rows.contains(&r), "row {r} left empty");
        }
    }

    #[test]
    fn column_scatter_too_few_clusters() {
        let (_, cdg) = chained_cdg(&[3, 3]);
        assert!(matches!(
            column_scatter(&cdg, 4, 1, 1, &mut IlpEffort::default()),
            Err(PlaceError::TooFewClusters { k: 2, rows: 4 })
        ));
    }

    #[test]
    fn row_scatter_spans_big_clusters() {
        // group sizes 9,3: avg over 1×2 grid = 6 → spans 2 and 1
        let (_, cdg) = chained_cdg(&[9, 3]);
        let cols = row_scatter(&cdg, &[0, 0], 1, 2, &mut IlpEffort::default()).unwrap();
        assert_eq!(cols[0].len(), 2, "big cluster spans both columns");
        assert_eq!(cols[1].len(), 1);
    }

    #[test]
    fn row_scatter_places_dependent_clusters_near() {
        // 4 equal groups on one row of 4 columns: chain i—i+1 ⇒ the
        // weighted distance optimum keeps neighbours adjacent
        let (_, cdg) = chained_cdg(&[3, 3, 3, 3]);
        let cols = row_scatter(&cdg, &[0; 4], 1, 4, &mut IlpEffort::default()).unwrap();
        // each takes exactly one column, all distinct (coverage)
        let mut seen: Vec<usize> = cols.iter().map(|c| c[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // chain neighbours sit in adjacent columns
        for w in 0..3 {
            let d = cols[w][0].abs_diff(cols[w + 1][0]);
            assert_eq!(d, 1, "groups {w},{} at distance {d}", w + 1);
        }
    }

    #[test]
    fn row_scatter_breaks_mirror_ties_to_the_left() {
        // a chain on one free row has two optimal images, one the other's
        // mirror: the lowest-numbered group takes the left one
        let (_, cdg) = chained_cdg(&[3, 3, 3, 3]);
        let cols = row_scatter(&cdg, &[0; 4], 1, 4, &mut IlpEffort::default()).unwrap();
        assert_eq!(cols, vec![vec![0], vec![1], vec![2], vec![3]]);
        // a mirror that costs more is not taken: row 0 puts group 2 left
        // of group 3 (a tie), so group 1, anchored by group 2, goes left
        // of group 0 on row 1
        let (_, cdg) = chained_cdg(&[2, 2, 2, 2]);
        let cols = row_scatter(&cdg, &[1, 1, 0, 0], 2, 2, &mut IlpEffort::default()).unwrap();
        assert_eq!(cols, vec![vec![1], vec![0], vec![0], vec![1]]);
    }

    #[test]
    fn row_scatter_columns_are_contiguous() {
        let (_, cdg) = chained_cdg(&[12, 2, 2]);
        let cols = row_scatter(&cdg, &[0, 0, 0], 1, 4, &mut IlpEffort::default()).unwrap();
        for c in &cols {
            for w in c.windows(2) {
                assert_eq!(w[1] - w[0], 1, "span must be contiguous: {c:?}");
            }
        }
    }
}
