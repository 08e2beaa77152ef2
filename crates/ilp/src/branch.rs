//! Branch & bound over LP relaxations.

use crate::model::{Model, Sense};
use crate::simplex::{Basis, Lp, LpOutcome, LpRow};
use crate::VarId;
use std::error::Error;
use std::fmt;

/// Solver effort counters for one [`Model::solve`] call.
///
/// The scattering pipeline aggregates these across its matching-cut solves
/// and surfaces them as trace events, reproducing the per-phase solver
/// statistics that make ILP-based mappers comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch & bound nodes explored.
    pub nodes: u64,
    /// Simplex pivots across every LP relaxation solved.
    pub pivots: u64,
    /// Individual bound tightenings applied by presolve.
    pub presolve_reductions: u64,
}

impl SolveStats {
    /// Accumulates another solve's counters into `self`.
    pub fn absorb(&mut self, other: SolveStats) {
        self.nodes += other.nodes;
        self.pivots += other.pivots;
        self.presolve_reductions += other.presolve_reductions;
    }
}

/// Error produced by [`Model::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The constraint set admits no feasible assignment.
    Infeasible,
    /// The branch & bound node budget (or one LP relaxation's pivot
    /// budget) was exhausted before proving optimality. Carries the best
    /// feasible solution found, if any.
    NodeLimit(Option<Solution>),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::NodeLimit(Some(_)) => {
                write!(f, "node limit reached with a feasible incumbent")
            }
            SolveError::NodeLimit(None) => write!(f, "node limit reached without a solution"),
        }
    }
}

impl Error for SolveError {}

/// An optimal (or incumbent) assignment for a [`Model`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
    stats: SolveStats,
}

impl Solution {
    /// Value assigned to `var`.
    ///
    /// # Panics
    ///
    /// Panics when `var` does not belong to the solved model.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Value of an integer variable, rounded to the nearest integer.
    ///
    /// # Panics
    ///
    /// Panics when `var` does not belong to the solved model.
    pub fn int_value(&self, var: VarId) -> i64 {
        self.values[var.index()].round() as i64
    }

    /// Convenience accessor for 0/1 variables.
    ///
    /// # Panics
    ///
    /// Panics when `var` does not belong to the solved model.
    pub fn bool_value(&self, var: VarId) -> bool {
        self.int_value(var) != 0
    }

    /// Objective value under the model's optimisation sense.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Effort counters accumulated while solving for this solution.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }
}

const INT_TOL: f64 = 1e-6;

/// A pending node: its box, and the basis to start from. `None` is the
/// tableau as the previous node left it — the near child, popped right
/// after its parent.
struct BnbNode {
    lower: Vec<f64>,
    upper: Vec<f64>,
    basis: Option<Basis>,
}

impl Model {
    /// Solves the model to proven optimality.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Infeasible`] — no assignment satisfies the
    ///   constraints;
    /// * [`SolveError::NodeLimit`] — the node budget, or one LP's pivot
    ///   budget, ran out (carries the best incumbent found, if any).
    pub fn solve(&self) -> Result<Solution, SolveError> {
        let n = self.num_vars();
        // Internally always minimise.
        let mut cost = self.objective.coefficients(n);
        let obj_const = self.objective.constant_term();
        if self.sense == Sense::Maximize {
            for c in &mut cost {
                *c = -*c;
            }
        }

        // presolve: tighten the root box before searching
        let mut stats = SolveStats::default();
        let root_lower: Vec<f64> = self.vars.iter().map(|v| v.lower).collect();
        let root_upper: Vec<f64> = self.vars.iter().map(|v| v.upper).collect();
        let (root_lower, root_upper) = match crate::presolve::tighten(
            self,
            root_lower,
            root_upper,
            &mut stats.presolve_reductions,
        ) {
            crate::presolve::Presolve::Bounds(lo, up) => (lo, up),
            crate::presolve::Presolve::Infeasible => return Err(SolveError::Infeasible),
        };
        let root = BnbNode {
            lower: root_lower,
            upper: root_upper,
            basis: None,
        };

        // One tableau for the whole search; a node only moves bounds.
        let rows: Vec<LpRow> = self
            .constraints
            .iter()
            .map(|c| {
                let mut coeffs = vec![0.0; n];
                for &(v, a) in &c.coeffs {
                    coeffs[v.index()] += a;
                }
                LpRow {
                    coeffs,
                    cmp: c.cmp,
                    rhs: c.rhs,
                }
            })
            .collect();
        let mut lp = Lp::new(n, &rows, &cost);
        drop(rows);

        // Stop rule only: an incumbent at the floor is optimal. The floor
        // never reaches the LP, the branching or the child order.
        let objective_floor = self.objective_floor();

        let mut stack = vec![root];
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        let mut nodes = 0usize;
        let out_of_budget = |incumbent: Option<(Vec<f64>, f64)>, stats| {
            SolveError::NodeLimit(incumbent.map(|(values, obj)| Solution {
                values,
                objective: self.finish_objective(obj, obj_const),
                stats,
            }))
        };

        while let Some(node) = stack.pop() {
            if nodes == self.node_limit {
                stats.nodes = nodes as u64;
                return Err(out_of_budget(incumbent, stats));
            }
            nodes += 1;
            // Fast infeasibility: crossed bounds from branching.
            if node
                .lower
                .iter()
                .zip(&node.upper)
                .any(|(l, u)| l > &(u + 1e-9))
            {
                continue;
            }

            if let Some(basis) = &node.basis {
                lp.restore(basis, &mut stats.pivots);
            }
            lp.set_bounds(&node.lower, &node.upper);
            // an LP that reaches the incumbent is pruned by bound
            let cutoff = incumbent.as_ref().map(|(_, inc)| inc - 1e-9);
            match lp.solve(cutoff, &mut stats.pivots) {
                LpOutcome::Optimal(_) => {}
                LpOutcome::Infeasible | LpOutcome::Cutoff => continue,
                // an unsolved LP leaves its subtree unsearched, so the
                // incumbent is no proven optimum
                LpOutcome::Stalled => {
                    stats.nodes = nodes as u64;
                    return Err(out_of_budget(incumbent, stats));
                }
            }
            let values = lp.values();
            // Most fractional integer variable.
            let mut branch_var = None;
            let mut worst = INT_TOL;
            for (j, def) in self.vars.iter().enumerate() {
                if def.integer {
                    let frac = (values[j] - values[j].round()).abs();
                    if frac > worst {
                        worst = frac;
                        branch_var = Some(j);
                    }
                }
            }
            match branch_var {
                None => {
                    // Integer-feasible: snap and record.
                    let snapped: Vec<f64> = self
                        .vars
                        .iter()
                        .zip(values)
                        .map(|(def, v)| if def.integer { v.round() } else { v })
                        .collect();
                    let obj: f64 = snapped.iter().zip(&cost).map(|(v, c)| v * c).sum();
                    if incumbent.as_ref().is_none_or(|(_, inc)| obj < inc - 1e-9) {
                        incumbent = Some((snapped, obj));
                        if objective_floor.is_some_and(|f| obj <= f + 1e-9) {
                            break;
                        }
                    }
                }
                Some(j) => {
                    let v = values[j];
                    let floor = v.floor();
                    // Push the "far" child first so the child closer to the
                    // LP optimum is explored first (DFS). The far child
                    // keeps this node's basis; the near one starts from the
                    // tableau as it stands.
                    let mut down = BnbNode {
                        lower: node.lower.clone(),
                        upper: node.upper.clone(),
                        basis: None,
                    };
                    down.upper[j] = floor;
                    let mut up = BnbNode {
                        lower: node.lower,
                        upper: node.upper,
                        basis: None,
                    };
                    up.lower[j] = floor + 1.0;
                    let (mut far, near) = if v - floor < 0.5 {
                        (up, down)
                    } else {
                        (down, up)
                    };
                    far.basis = Some(lp.basis());
                    stack.push(far);
                    stack.push(near);
                }
            }
        }

        stats.nodes = nodes as u64;
        match incumbent {
            Some((values, obj)) => Ok(Solution {
                values,
                objective: self.finish_objective(obj, obj_const),
                stats,
            }),
            None => Err(SolveError::Infeasible),
        }
    }

    fn finish_objective(&self, internal: f64, obj_const: f64) -> f64 {
        match self.sense {
            Sense::Minimize => internal + obj_const,
            Sense::Maximize => -internal + obj_const,
        }
    }
}
