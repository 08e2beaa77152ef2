//! Bounded-variable dual simplex over one dense tableau.
//!
//! Solves the LP relaxations branch & bound explores,
//! `minimize c·x  s.t.  A x {≤,≥,=} b,  l ≤ x ≤ u`, where every `l_j` and
//! `u_j` is finite. Row `i` owns one slack column, `a_i·x + s_i = b_i`,
//! whose bounds carry the comparison: `s_i ≥ 0` for `≤`, `s_i ≤ 0` for
//! `≥`, `s_i = 0` for `=`. Variable bounds are not rows: a nonbasic column
//! sits at its lower or its upper bound, and the ratio tests read the
//! bounds.
//!
//! Every structural column is boxed, so any basis becomes dual feasible by
//! putting each nonbasic structural at the bound its reduced cost points
//! to. There is no phase 1: the slack basis is a dual feasible start, and
//! the dual simplex walks to primal feasibility. A branch & bound child
//! changes one bound of a basic variable, which leaves its parent's optimal
//! basis dual feasible; the child starts there and needs a few pivots.
//! [`Lp`] keeps one tableau for a whole `solve`: the near child continues
//! on it, and a node taken from the stack is reached by pivoting the
//! columns its saved [`Basis`] holds back in.
//!
//! Rules, each fixed by a principle rather than by a measurement:
//! * leaving row: the largest bound violation (dual Dantzig), the lowest
//!   row on a tie;
//! * entering column: the least dual ratio, then the largest pivot
//!   magnitude among ratios within `EPS` (the stablest pivot), then the
//!   lowest column;
//! * after `BLAND_SWITCH` pivots in one LP both become Bland's (lowest
//!   basic column, lowest entering column), which cannot cycle.
//!
//! The dual objective never falls, so an LP stops as soon as it reaches
//! the cutoff branch & bound would prune at. Every `REFRESH` pivots the
//! tableau is rebuilt from the original rows under the current basis. An
//! LP that spends `MAX_ITERS` pivots is [`LpOutcome::Stalled`]: it proves
//! nothing, so branch & bound ends its search there instead of pruning.
//!
//! What is pinned: an LP's optimal *value* is exact up to the tolerances
//! (the crate's enumeration oracle checks the ILP optimum), but which of
//! several optimal vertices it returns follows from the rules above, the
//! basis each node starts from and the refresh period. Scattering ILPs
//! have many optimal vertices and the vertex decides the cluster map, so
//! `scattering_search_is_pinned` in `panorama-place` holds all of that
//! down: a change that moves it is a change of plans, argued with II
//! numbers (DESIGN.md §9, "Tableau column layout").

use crate::model::Cmp;

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LpOutcome {
    /// Optimal; the objective value. [`Lp::values`] reads the point.
    Optimal(f64),
    /// No feasible point exists.
    Infeasible,
    /// The pivot budget ran out: the LP proves nothing either way.
    Stalled,
    /// The objective reached the cutoff before the LP was solved.
    Cutoff,
}

/// One LP row: `coeffs · x  cmp  rhs` over the structural variables.
#[derive(Debug, Clone)]
pub(crate) struct LpRow {
    pub coeffs: Vec<f64>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A basis: the basic column of each row, and which nonbasic columns sit
/// at their upper bound. What a pending branch & bound node stores.
#[derive(Debug, Clone)]
pub(crate) struct Basis {
    head: Vec<usize>,
    at_upper: Vec<bool>,
}

const EPS: f64 = 1e-9;
const BLAND_SWITCH: usize = 2_000;
const MAX_ITERS: usize = 200_000;
/// Pivots between two rebuilds of the tableau from the original rows,
/// which bounds the rounding the updates accumulate.
const REFRESH: u64 = 1_000;

/// The LP of one [`Model::solve`](crate::Model::solve): the tableau, the
/// bounds and the current basis.
pub(crate) struct Lp {
    /// Structural columns; slacks are `n..n + m`, the RHS is column `n + m`.
    n: usize,
    width: usize,
    /// `[A | I | b]` as built: what a refresh starts from.
    origin: Vec<f64>,
    /// `B⁻¹ [A | I | b]`, row-major.
    t: Vec<f64>,
    cost: Vec<f64>,
    /// Reduced costs `c − c_B B⁻¹ [A | I]`.
    d: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    basis: Basis,
    /// The row a column is basic in, `usize::MAX` when nonbasic.
    row_of: Vec<usize>,
    /// Values of the basic variables, row by row.
    beta: Vec<f64>,
    /// Scratch: the nonzero columns of the pivot row, a column mark, and
    /// the nonbasic structurals whose bound value is not zero.
    nonzero: Vec<usize>,
    mark: Vec<bool>,
    off_zero: Vec<(usize, f64)>,
    since_refresh: u64,
}

impl Lp {
    /// The LP `minimize cost·x` over `rows`, at the slack basis. Bounds
    /// come from [`Lp::set_bounds`].
    pub(crate) fn new(num_vars: usize, rows: &[LpRow], cost: &[f64]) -> Lp {
        debug_assert_eq!(cost.len(), num_vars);
        let (n, m) = (num_vars, rows.len());
        let width = n + m + 1;
        let mut origin = vec![0.0; m * width];
        let (mut lower, mut upper) = (vec![0.0; n + m], vec![0.0; n + m]);
        for (i, (row, t)) in rows.iter().zip(origin.chunks_exact_mut(width)).enumerate() {
            t[..n].copy_from_slice(&row.coeffs);
            t[n + i] = 1.0;
            t[n + m] = row.rhs;
            match row.cmp {
                Cmp::Le => upper[n + i] = f64::INFINITY,
                Cmp::Ge => lower[n + i] = f64::NEG_INFINITY,
                Cmp::Eq => {}
            }
        }
        let mut full_cost = vec![0.0; n + m];
        full_cost[..n].copy_from_slice(cost);
        let mut lp = Lp {
            n,
            width,
            t: origin.clone(),
            origin,
            d: full_cost.clone(),
            cost: full_cost,
            lower,
            upper,
            basis: Basis {
                head: Vec::new(),
                at_upper: vec![false; n + m],
            },
            row_of: vec![usize::MAX; n + m],
            beta: vec![0.0; m],
            nonzero: Vec::with_capacity(width),
            mark: vec![false; n + m],
            off_zero: Vec::with_capacity(n),
            since_refresh: 0,
        };
        lp.slack_basis();
        lp
    }

    /// Resets the tableau to `[A | I | b]` with every slack basic.
    fn slack_basis(&mut self) {
        let (n, m) = (self.n, self.beta.len());
        self.t.copy_from_slice(&self.origin);
        self.d.copy_from_slice(&self.cost);
        self.basis.head = (n..n + m).collect();
        self.row_of.fill(usize::MAX);
        for (i, &h) in self.basis.head.iter().enumerate() {
            self.row_of[h] = i;
        }
        // a nonbasic `≥` slack sits at its only finite bound, the upper 0
        for j in n..n + m {
            self.basis.at_upper[j] = self.lower[j] == f64::NEG_INFINITY;
        }
        self.since_refresh = 0;
    }

    /// Sets the structural bounds of the next solve.
    pub(crate) fn set_bounds(&mut self, lower: &[f64], upper: &[f64]) {
        self.lower[..self.n].copy_from_slice(lower);
        self.upper[..self.n].copy_from_slice(upper);
    }

    /// The current basis.
    pub(crate) fn basis(&self) -> Basis {
        self.basis.clone()
    }

    /// Makes `basis` the current one by pivoting its missing columns in.
    pub(crate) fn restore(&mut self, basis: &Basis, pivots: &mut u64) {
        self.pivot_in(&basis.head, pivots);
        self.basis.at_upper.copy_from_slice(&basis.at_upper);
    }

    /// Pivots every column of `head` into the basis, each into the row
    /// (among rows whose column is not in `head`) with the largest entry.
    /// Falls back to the slack basis if rounding made the set singular.
    fn pivot_in(&mut self, head: &[usize], pivots: &mut u64) {
        self.mark.fill(false);
        for &j in head {
            self.mark[j] = true;
        }
        for &q in head {
            if self.row_of[q] != usize::MAX {
                continue;
            }
            let mut best = (usize::MAX, EPS);
            for (i, &h) in self.basis.head.iter().enumerate() {
                let a = self.t[i * self.width + q].abs();
                if !self.mark[h] && a > best.1 {
                    best = (i, a);
                }
            }
            if best.0 == usize::MAX {
                self.slack_basis();
                return;
            }
            self.pivot(best.0, q);
            *pivots += 1;
        }
    }

    /// Rebuilds the tableau of the current basis from the original rows.
    fn refresh(&mut self, pivots: &mut u64) {
        let head = std::mem::take(&mut self.basis.head);
        let at_upper = self.basis.at_upper.clone();
        self.slack_basis();
        self.pivot_in(&head, pivots);
        self.basis.at_upper = at_upper;
        self.since_refresh = 0;
    }

    /// Value of nonbasic column `j`: the bound it sits at.
    fn bound_value(&self, j: usize) -> f64 {
        if self.basis.at_upper[j] {
            self.upper[j]
        } else {
            self.lower[j]
        }
    }

    /// The structural point of the current basis.
    pub(crate) fn values(&self) -> Vec<f64> {
        let mut x: Vec<f64> = (0..self.n).map(|j| self.bound_value(j)).collect();
        for (&h, &b) in self.basis.head.iter().zip(&self.beta) {
            if h < self.n {
                x[h] = b;
            }
        }
        x
    }

    /// Runs the dual simplex from the current basis under the current
    /// bounds, counting pivots into `pivots`. Stops with
    /// [`LpOutcome::Cutoff`] once the objective reaches `cutoff`.
    pub(crate) fn solve(&mut self, cutoff: Option<f64>, pivots: &mut u64) -> LpOutcome {
        if self.since_refresh >= REFRESH {
            self.refresh(pivots);
        }
        let (n, width) = (self.n, self.width);
        let rhs = width - 1;
        // boxed columns are dual feasible at the bound their cost points to
        for j in (0..n).filter(|&j| self.row_of[j] == usize::MAX) {
            if self.d[j] < -EPS {
                self.basis.at_upper[j] = true;
            } else if self.d[j] > EPS {
                self.basis.at_upper[j] = false;
            }
        }
        // β = B⁻¹b − Σ B⁻¹a_j·x_j over the nonbasic structurals away from
        // zero (slacks sit at 0)
        self.off_zero.clear();
        for j in (0..n).filter(|&j| self.row_of[j] == usize::MAX) {
            let x = self.bound_value(j);
            if x != 0.0 {
                self.off_zero.push((j, x));
            }
        }
        for (b, row) in self.beta.iter_mut().zip(self.t.chunks_exact(width)) {
            *b = row[rhs] - self.off_zero.iter().map(|&(j, x)| row[j] * x).sum::<f64>();
        }

        for iter in 0..MAX_ITERS {
            if let Some(cutoff) = cutoff {
                if self.objective() >= cutoff {
                    return LpOutcome::Cutoff;
                }
            }
            let bland = iter >= BLAND_SWITCH;
            let Some(r) = self.leaving_row(bland) else {
                return LpOutcome::Optimal(self.objective());
            };
            let h = self.basis.head[r];
            let to_lower = self.beta[r] < self.lower[h];
            let Some(q) = self.entering_column(r, to_lower, bland) else {
                return LpOutcome::Infeasible;
            };

            // primal step: x_q moves until x_h reaches the bound it broke
            let a_rq = self.t[r * width + q];
            let target = if to_lower {
                self.lower[h]
            } else {
                self.upper[h]
            };
            let step = (self.beta[r] - target) / a_rq;
            for (b, row) in self.beta.iter_mut().zip(self.t.chunks_exact(width)) {
                *b -= row[q] * step;
            }
            self.beta[r] = self.bound_value(q) + step;
            self.basis.at_upper[h] = !to_lower;
            self.pivot(r, q);
            *pivots += 1;
        }
        LpOutcome::Stalled
    }

    /// `c·x` at the current basis: the dual objective while it is dual
    /// feasible, which never falls from pivot to pivot.
    fn objective(&self) -> f64 {
        let nonbasic: f64 = (0..self.n)
            .filter(|&j| self.row_of[j] == usize::MAX)
            .map(|j| self.cost[j] * self.bound_value(j))
            .sum();
        let basic: f64 = self
            .basis
            .head
            .iter()
            .zip(&self.beta)
            .map(|(&h, &b)| self.cost[h] * b)
            .sum();
        nonbasic + basic
    }

    /// The row whose basic variable breaks its bounds the most (Bland: the
    /// lowest basic column that breaks them), `None` when primal feasible.
    fn leaving_row(&self, bland: bool) -> Option<usize> {
        let mut leave = None;
        let mut worst = EPS;
        for (i, (&h, &b)) in self.basis.head.iter().zip(&self.beta).enumerate() {
            let violation = (self.lower[h] - b).max(b - self.upper[h]);
            if violation <= EPS {
                continue;
            }
            if bland {
                if leave.is_none_or(|l: usize| h < self.basis.head[l]) {
                    leave = Some(i);
                }
            } else if violation > worst {
                worst = violation;
                leave = Some(i);
            }
        }
        leave
    }

    /// Dual ratio test on row `r`: the nonbasic column whose move brings
    /// the basic variable back toward its broken bound and keeps every
    /// reduced cost's sign. `None` proves the LP infeasible.
    fn entering_column(&self, r: usize, to_lower: bool, bland: bool) -> Option<usize> {
        let row = &self.t[r * self.width..r * self.width + self.width - 1];
        let mut enter = None;
        let (mut best, mut best_abs) = (f64::INFINITY, 0.0);
        for (j, &a) in row.iter().enumerate() {
            if self.row_of[j] != usize::MAX || self.lower[j] == self.upper[j] {
                continue;
            }
            let at_upper = self.basis.at_upper[j];
            // +1 when x_j can only rise, −1 when it can only fall
            let dir = if at_upper { -1.0 } else { 1.0 };
            let toward = if to_lower { -a * dir } else { a * dir };
            if toward <= EPS {
                continue;
            }
            let ratio = (self.d[j] * dir).max(0.0) / a.abs();
            if ratio < best - EPS || (!bland && ratio <= best + EPS && a.abs() > best_abs) {
                best = ratio;
                best_abs = a.abs();
                enter = Some(j);
            }
        }
        enter
    }

    /// Makes `col` basic in `row`: scales the row to a unit pivot and
    /// eliminates the column from every other row and from the reduced
    /// costs, visiting only the pivot row's nonzero columns.
    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width;
        let (above, rest) = self.t.split_at_mut(row * width);
        let (pivot_row, below) = rest.split_at_mut(width);
        let inv = 1.0 / pivot_row[col];
        for x in pivot_row.iter_mut() {
            *x *= inv;
        }
        pivot_row[col] = 1.0;
        self.nonzero.clear();
        self.nonzero
            .extend((0..width).filter(|&j| j != col && pivot_row[j] != 0.0));
        let others = above
            .chunks_exact_mut(width)
            .chain(below.chunks_exact_mut(width));
        for other in others {
            let factor = other[col];
            if factor == 0.0 {
                continue;
            }
            for &j in &self.nonzero {
                other[j] -= factor * pivot_row[j];
            }
            other[col] = 0.0;
        }
        let factor = self.d[col];
        if factor != 0.0 {
            for &j in self.nonzero.iter().filter(|&&j| j < width - 1) {
                self.d[j] -= factor * pivot_row[j];
            }
            self.d[col] = 0.0;
        }
        let leaving = std::mem::replace(&mut self.basis.head[row], col);
        self.row_of[leaving] = usize::MAX;
        self.row_of[col] = row;
        self.since_refresh += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(coeffs: Vec<f64>, cmp: Cmp, rhs: f64) -> LpRow {
        LpRow { coeffs, cmp, rhs }
    }

    /// Solves from the slack basis; `upper` defaults to 100 per variable.
    fn solve(n: usize, rows: &[LpRow], upper: &[f64], cost: &[f64]) -> (LpOutcome, Vec<f64>) {
        let mut lp = Lp::new(n, rows, cost);
        let upper = if upper.is_empty() {
            vec![100.0; n]
        } else {
            upper.to_vec()
        };
        lp.set_bounds(&vec![0.0; n], &upper);
        let outcome = lp.solve(None, &mut 0);
        (outcome, lp.values())
    }

    fn assert_optimal(outcome: LpOutcome, want: f64) {
        match outcome {
            LpOutcome::Optimal(got) => assert!((got - want).abs() < 1e-9, "{got} vs {want}"),
            other => panic!("expected optimal {want}, got {other:?}"),
        }
    }

    #[test]
    fn textbook_maximisation_as_min() {
        // max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 → (2,6), obj 36
        let rows = [
            row(vec![1.0, 0.0], Cmp::Le, 4.0),
            row(vec![0.0, 2.0], Cmp::Le, 12.0),
            row(vec![3.0, 2.0], Cmp::Le, 18.0),
        ];
        let (outcome, x) = solve(2, &rows, &[], &[-3.0, -5.0]);
        assert_optimal(outcome, -36.0);
        assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn ge_and_equality_rows() {
        // min x + y st x + y >= 2, x >= 0.5 → 2
        let rows = [
            row(vec![1.0, 1.0], Cmp::Ge, 2.0),
            row(vec![1.0, 0.0], Cmp::Ge, 0.5),
        ];
        assert_eq!(solve(2, &rows, &[], &[1.0, 1.0]).0, LpOutcome::Optimal(2.0));
        // min 2x + y st x + y = 3, x <= 1 → x = 0, y = 3
        let rows = [
            row(vec![1.0, 1.0], Cmp::Eq, 3.0),
            row(vec![1.0, 0.0], Cmp::Le, 1.0),
        ];
        let (outcome, x) = solve(2, &rows, &[], &[2.0, 1.0]);
        assert_eq!(outcome, LpOutcome::Optimal(3.0));
        assert_eq!(x, vec![0.0, 3.0]);
    }

    #[test]
    fn infeasible_rows_and_bounds() {
        let rows = [row(vec![1.0], Cmp::Le, 1.0), row(vec![1.0], Cmp::Ge, 2.0)];
        assert_eq!(solve(1, &rows, &[], &[0.0]).0, LpOutcome::Infeasible);
        // feasible rows, but the box excludes them
        let rows = [row(vec![1.0, 1.0], Cmp::Ge, 3.0)];
        assert_eq!(
            solve(2, &rows, &[1.0, 1.0], &[1.0, 1.0]).0,
            LpOutcome::Infeasible
        );
    }

    #[test]
    fn negative_rhs_and_redundant_rows() {
        // x − y <= −1 (y >= x + 1), min y → y = 1
        let rows = [row(vec![1.0, -1.0], Cmp::Le, -1.0)];
        assert_eq!(solve(2, &rows, &[], &[0.0, 1.0]).0, LpOutcome::Optimal(1.0));
        // duplicated equality rows
        let rows = [
            row(vec![1.0, 1.0], Cmp::Eq, 2.0),
            row(vec![1.0, 1.0], Cmp::Eq, 2.0),
            row(vec![2.0, 2.0], Cmp::Eq, 4.0),
        ];
        assert_eq!(solve(2, &rows, &[], &[1.0, 0.0]).0, LpOutcome::Optimal(0.0));
    }

    #[test]
    fn upper_bounds_are_not_rows() {
        // max x + y st x + 2y <= 8, x <= 4, y <= 6 → (4, 2), obj 6
        let rows = [row(vec![1.0, 2.0], Cmp::Le, 8.0)];
        let mut lp = Lp::new(2, &rows, &[-1.0, -1.0]);
        assert_eq!(lp.beta.len(), 1, "one tableau row per constraint");
        lp.set_bounds(&[0.0, 0.0], &[4.0, 6.0]);
        let mut pivots = 0;
        assert_eq!(lp.solve(None, &mut pivots), LpOutcome::Optimal(-6.0));
        assert_eq!(lp.values(), vec![4.0, 2.0]);
        assert!(pivots > 0);
    }

    #[test]
    fn a_child_from_its_parents_basis_matches_a_cold_solve() {
        // max 5a + 4b + 3c st 2a + 3b + c <= 5, 4a + b + 2c <= 11, box [0, 1]
        let rows = [
            row(vec![2.0, 3.0, 1.0], Cmp::Le, 5.0),
            row(vec![4.0, 1.0, 2.0], Cmp::Le, 11.0),
        ];
        let cost = [-5.0, -4.0, -3.0];
        let mut lp = Lp::new(3, &rows, &cost);
        lp.set_bounds(&[0.0; 3], &[1.0; 3]);
        let mut pivots = 0;
        assert_optimal(lp.solve(None, &mut pivots), -10.0 - 2.0 / 3.0);
        let parent = lp.basis();
        for (lower, upper) in [
            ([0.0, 0.0, 0.0], [1.0, 0.0, 1.0]),
            ([0.0, 1.0, 0.0], [1.0; 3]),
        ] {
            // warm: the parent's basis, restored after a detour
            lp.set_bounds(&[0.0; 3], &[0.0, 1.0, 1.0]);
            lp.solve(None, &mut pivots);
            lp.restore(&parent, &mut pivots);
            lp.set_bounds(&lower, &upper);
            let warm = lp.solve(None, &mut pivots);
            let cold = {
                let mut lp = Lp::new(3, &rows, &cost);
                lp.set_bounds(&lower, &upper);
                lp.solve(None, &mut 0)
            };
            let LpOutcome::Optimal(cold) = cold else {
                panic!("{cold:?}")
            };
            assert_optimal(warm, cold);
        }
    }

    #[test]
    fn cutoff_stops_a_solve_that_cannot_win() {
        let rows = [row(vec![1.0, 1.0], Cmp::Ge, 2.0)];
        let mut lp = Lp::new(2, &rows, &[1.0, 1.0]);
        lp.set_bounds(&[0.0; 2], &[5.0; 2]);
        assert_eq!(lp.solve(Some(1.5), &mut 0), LpOutcome::Cutoff);
        let mut lp = Lp::new(2, &rows, &[1.0, 1.0]);
        lp.set_bounds(&[0.0; 2], &[5.0; 2]);
        assert_eq!(lp.solve(Some(2.5), &mut 0), LpOutcome::Optimal(2.0));
    }

    #[test]
    fn zero_variable_problem() {
        assert_eq!(solve(0, &[], &[], &[]), (LpOutcome::Optimal(0.0), vec![]));
    }
}
