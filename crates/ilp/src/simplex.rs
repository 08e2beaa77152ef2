//! Dense two-phase primal simplex over a tableau.
//!
//! Solves `minimize c·x  s.t.  A x {≤,≥,=} b,  0 ≤ x ≤ u` for the LP
//! relaxations explored by branch & bound. Upper bounds become explicit
//! `≤` rows of the tableau (problems in this workspace are small enough
//! that the simpler tableau beats a bounded-variable simplex on
//! maintainability).
//!
//! Pivoting uses Dantzig's rule with an automatic switch to Bland's rule
//! after an iteration threshold, which guarantees termination.
//!
//! The pivot sequence is part of the contract: scattering ILPs have many
//! optimal vertices, and which one branch & bound returns decides the
//! cluster map. Every comparison, tie-break and floating-point operation
//! below keeps its order; `scattering_pivot_sequence_is_pinned` in
//! `panorama-place` holds it down.

use crate::model::Cmp;

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LpOutcome {
    /// Optimal structural assignment and objective value.
    Optimal { x: Vec<f64>, objective: f64 },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// One LP row: `coeffs · x  cmp  rhs` over the structural variables.
#[derive(Debug, Clone)]
pub(crate) struct LpRow {
    pub coeffs: Vec<f64>,
    pub cmp: Cmp,
    pub rhs: f64,
}

impl LpRow {
    /// The comparison once the row is negated to make its RHS non-negative.
    fn normalised_cmp(&self) -> Cmp {
        match self.cmp {
            Cmp::Le if self.rhs < 0.0 => Cmp::Ge,
            Cmp::Ge if self.rhs < 0.0 => Cmp::Le,
            cmp => cmp,
        }
    }
}

const EPS: f64 = 1e-9;
const BLAND_SWITCH: usize = 2_000;
const MAX_ITERS: usize = 200_000;

/// Solves `minimize cost·x` subject to `rows` and `x ≥ 0`, without
/// upper bounds.
#[cfg(test)]
pub(crate) fn solve_lp(num_vars: usize, rows: &[LpRow], cost: &[f64]) -> LpOutcome {
    solve_lp_counted(num_vars, rows, &[], cost, &mut 0)
}

/// Solves `minimize cost·x` subject to `rows`, `x_j ≤ upper[j]` for every
/// entry of `upper` (none, or one non-negative bound per variable) and
/// `x ≥ 0`, accumulating the number of simplex pivots into `pivots` (both
/// phases plus artificial-cleanup pivots) — the effort counter surfaced
/// through [`Solution::stats`](crate::Solution::stats).
pub(crate) fn solve_lp_counted(
    num_vars: usize,
    rows: &[LpRow],
    upper: &[f64],
    cost: &[f64],
    pivots: &mut u64,
) -> LpOutcome {
    debug_assert_eq!(cost.len(), num_vars);
    debug_assert!(upper.len() <= num_vars && upper.iter().all(|&u| u >= 0.0));
    let m = rows.len() + upper.len();

    // Column layout: [structural | slack/surplus | artificial | RHS], with
    // exactly the artificial columns the `≥` / `=` rows need. Bound rows
    // come after `rows`, own a slack each and never need an artificial.
    let num_slack = rows.iter().filter(|r| r.cmp != Cmp::Eq).count() + upper.len();
    let num_art = rows
        .iter()
        .filter(|r| r.normalised_cmp() != Cmp::Le)
        .count();
    let art_start = num_vars + num_slack;
    let total = art_start + num_art;
    let width = total + 1;
    let mut tab = Tableau {
        t: vec![0.0f64; m * width],
        width,
        basis: vec![usize::MAX; m],
        nonzero: Vec::with_capacity(width),
    };

    let mut slack_cursor = num_vars;
    let mut art_cursor = art_start;
    let mut tableau_rows = tab.t.chunks_exact_mut(width).zip(&mut tab.basis);
    for (row, (t, basis)) in rows.iter().zip(&mut tableau_rows) {
        let sign = if row.rhs < 0.0 { -1.0 } else { 1.0 };
        for (x, &c) in t.iter_mut().zip(&row.coeffs) {
            *x = sign * c;
        }
        t[total] = sign * row.rhs;
        match row.normalised_cmp() {
            Cmp::Le => {
                t[slack_cursor] = 1.0;
                *basis = slack_cursor;
                slack_cursor += 1;
            }
            cmp => {
                if cmp == Cmp::Ge {
                    t[slack_cursor] = -1.0;
                    slack_cursor += 1;
                }
                t[art_cursor] = 1.0;
                *basis = art_cursor;
                art_cursor += 1;
            }
        }
    }
    for ((j, &u), (t, basis)) in upper.iter().enumerate().zip(tableau_rows) {
        t[j] = 1.0;
        t[total] = u;
        t[slack_cursor] = 1.0;
        *basis = slack_cursor;
        slack_cursor += 1;
    }

    // ---- Phase 1: minimise the sum of artificials ----
    if num_art > 0 {
        let mut cost1 = vec![0.0f64; total];
        cost1[art_start..].fill(1.0);
        if tab.run_simplex(&cost1, total, pivots) == RunOutcome::Unbounded {
            // Phase-1 objective is bounded below by 0; unbounded here means
            // a numerical breakdown — treat as infeasible.
            return LpOutcome::Infeasible;
        }
        let phase1: f64 = tab
            .rows()
            .zip(&tab.basis)
            .filter(|&(_, &b)| b >= art_start)
            .map(|(row, _)| row[total])
            .sum();
        if phase1 > 1e-7 {
            return LpOutcome::Infeasible;
        }
        // Pivot remaining (degenerate) artificials out of the basis.
        for i in 0..m {
            if tab.basis[i] >= art_start {
                let row = &mut tab.t[i * width..(i + 1) * width];
                match row[..art_start].iter().position(|x| x.abs() > EPS) {
                    Some(j) => {
                        tab.pivot(i, j);
                        *pivots += 1;
                    }
                    // Row is all-zero over real columns: redundant. Leave
                    // the artificial basic at value 0; zero the row so it
                    // can never pivot again.
                    None => row.fill(0.0),
                }
            }
        }
    }

    // ---- Phase 2: original objective, artificial columns frozen ----
    let mut cost2 = vec![0.0f64; total];
    cost2[..num_vars].copy_from_slice(cost);
    if tab.run_simplex(&cost2, art_start, pivots) == RunOutcome::Unbounded {
        return LpOutcome::Unbounded;
    }

    let mut x = vec![0.0f64; num_vars];
    for (row, &b) in tab.rows().zip(&tab.basis) {
        if b < num_vars {
            x[b] = row[total];
        }
    }
    let objective = x.iter().zip(cost).map(|(a, b)| a * b).sum();
    LpOutcome::Optimal { x, objective }
}

#[derive(Debug, PartialEq, Eq)]
enum RunOutcome {
    Optimal,
    Unbounded,
}

/// The simplex tableau: one row per constraint, the RHS in the last column.
struct Tableau {
    /// Row-major, `basis.len()` rows of `width` entries.
    t: Vec<f64>,
    width: usize,
    /// The basic column of each row.
    basis: Vec<usize>,
    /// Scratch for [`Tableau::pivot`]: the nonzero columns of the pivot row.
    nonzero: Vec<usize>,
}

impl Tableau {
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.t.chunks_exact(self.width)
    }

    /// Primal simplex loop on `cost` (one entry per non-RHS column); only
    /// columns `< enter_limit` may *enter* the basis (phase 2 freezes the
    /// artificials this way).
    fn run_simplex(&mut self, cost: &[f64], enter_limit: usize, pivots: &mut u64) -> RunOutcome {
        let rhs = self.width - 1;
        // Reduced costs: z_j - c_j computed from scratch each iteration would
        // be O(m·n); keep a working cost row updated by pivots instead.
        let mut red = vec![0.0f64; self.width];
        red[..rhs].copy_from_slice(cost);
        // Make the cost row consistent with the current basis.
        for (row, &b) in self.rows().zip(&self.basis) {
            let cb = red[b];
            if cb != 0.0 {
                for (r, &x) in red.iter_mut().zip(row) {
                    *r -= cb * x;
                }
            }
        }

        for iter in 0..MAX_ITERS {
            let bland = iter >= BLAND_SWITCH;
            // entering column: negative reduced cost
            let candidates = &red[..enter_limit];
            let enter = if bland {
                candidates.iter().position(|&rc| rc < -EPS)
            } else {
                let mut best = -EPS;
                let mut enter = None;
                for (j, &rc) in candidates.iter().enumerate() {
                    if rc < best {
                        best = rc;
                        enter = Some(j);
                    }
                }
                enter
            };
            let Some(enter) = enter else {
                return RunOutcome::Optimal;
            };

            // leaving row: min ratio test
            let mut leave = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            for (i, row) in self.rows().enumerate() {
                let a = row[enter];
                if a > EPS {
                    let ratio = row[rhs] / a;
                    if ratio < best_ratio - EPS
                        || (bland
                            && (ratio - best_ratio).abs() <= EPS
                            && leave != usize::MAX
                            && self.basis[i] < self.basis[leave])
                    {
                        best_ratio = ratio;
                        leave = i;
                    }
                }
            }
            if leave == usize::MAX {
                return RunOutcome::Unbounded;
            }

            self.pivot(leave, enter);
            *pivots += 1;
            let factor = red[enter];
            if factor.abs() > EPS {
                let pivot_row = &self.t[leave * self.width..(leave + 1) * self.width];
                for (r, &x) in red.iter_mut().zip(pivot_row) {
                    *r -= factor * x;
                }
            }
        }
        // Iteration safety net: report the current (possibly suboptimal) basis
        // as optimal; callers treat LP bounds conservatively.
        RunOutcome::Optimal
    }

    /// Makes `col` basic in `row`: scales the row to a unit pivot and
    /// eliminates the column from every other row.
    ///
    /// The elimination visits only the pivot row's nonzero columns: a
    /// skipped `x -= factor · 0.0` (finite `factor`) could only have turned
    /// a `-0.0` into `+0.0`, and no comparison, ratio or rounding tells the
    /// two apart (DESIGN.md §9, "Tableau column layout").
    fn pivot(&mut self, row: usize, col: usize) {
        let (above, rest) = self.t.split_at_mut(row * self.width);
        let (pivot_row, below) = rest.split_at_mut(self.width);
        let p = pivot_row[col];
        debug_assert!(p.abs() > EPS, "pivot element must be nonzero");
        let inv = 1.0 / p;
        for x in pivot_row.iter_mut() {
            *x *= inv;
        }
        self.nonzero.clear();
        self.nonzero
            .extend((0..self.width).filter(|&j| pivot_row[j] != 0.0));
        let others = above
            .chunks_exact_mut(self.width)
            .chain(below.chunks_exact_mut(self.width));
        for other in others {
            let factor = other[col];
            if factor.abs() > EPS {
                for &j in &self.nonzero {
                    other[j] -= factor * pivot_row[j];
                }
            }
        }
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(coeffs: Vec<f64>, rhs: f64) -> LpRow {
        LpRow {
            coeffs,
            cmp: Cmp::Le,
            rhs,
        }
    }

    fn ge(coeffs: Vec<f64>, rhs: f64) -> LpRow {
        LpRow {
            coeffs,
            cmp: Cmp::Ge,
            rhs,
        }
    }

    fn eq(coeffs: Vec<f64>, rhs: f64) -> LpRow {
        LpRow {
            coeffs,
            cmp: Cmp::Eq,
            rhs,
        }
    }

    #[test]
    fn textbook_maximisation_as_min() {
        // max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 → (2,6), obj 36
        let rows = vec![
            le(vec![1.0, 0.0], 4.0),
            le(vec![0.0, 2.0], 12.0),
            le(vec![3.0, 2.0], 18.0),
        ];
        match solve_lp(2, &rows, &[-3.0, -5.0]) {
            LpOutcome::Optimal { x, objective } => {
                assert!((x[0] - 2.0).abs() < 1e-7);
                assert!((x[1] - 6.0).abs() < 1e-7);
                assert!((objective + 36.0).abs() < 1e-7);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn ge_constraints_need_phase_one() {
        // min x + y st x + y >= 2, x >= 0.5 → obj 2
        let rows = vec![ge(vec![1.0, 1.0], 2.0), ge(vec![1.0, 0.0], 0.5)];
        match solve_lp(2, &rows, &[1.0, 1.0]) {
            LpOutcome::Optimal { objective, .. } => assert!((objective - 2.0).abs() < 1e-7),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn equality_constraint() {
        // min 2x + y st x + y = 3, x <= 1 → x=1, y=2, obj 4
        let rows = vec![eq(vec![1.0, 1.0], 3.0), le(vec![1.0, 0.0], 1.0)];
        match solve_lp(2, &rows, &[2.0, 1.0]) {
            LpOutcome::Optimal { x, objective } => {
                assert!(
                    (x[0] - 0.0).abs() < 1e-7
                        || (objective - 3.0).abs() < 1e-7
                        || (objective - 4.0).abs() < 1e-7
                );
                // min is actually x=0,y=3 → obj 3
                assert!((objective - 3.0).abs() < 1e-7);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        let rows = vec![le(vec![1.0], 1.0), ge(vec![1.0], 2.0)];
        assert_eq!(solve_lp(1, &rows, &[0.0]), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x with no upper bound on x
        let rows = vec![ge(vec![1.0], 0.0)];
        assert_eq!(solve_lp(1, &rows, &[-1.0]), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // x - y <= -1  (i.e. y >= x + 1), min y st x >= 0 → x=0,y=1
        let rows = vec![le(vec![1.0, -1.0], -1.0)];
        match solve_lp(2, &rows, &[0.0, 1.0]) {
            LpOutcome::Optimal { x, objective } => {
                assert!((objective - 1.0).abs() < 1e-7);
                assert!(x[1] >= 1.0 - 1e-7);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_redundant_rows() {
        // duplicated equality rows exercise the redundant-row handling
        let rows = vec![
            eq(vec![1.0, 1.0], 2.0),
            eq(vec![1.0, 1.0], 2.0),
            eq(vec![2.0, 2.0], 4.0),
        ];
        match solve_lp(2, &rows, &[1.0, 0.0]) {
            LpOutcome::Optimal { objective, .. } => assert!(objective.abs() < 1e-7),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn pivot_counter_accumulates() {
        let rows = vec![
            le(vec![1.0, 0.0], 4.0),
            le(vec![0.0, 2.0], 12.0),
            le(vec![3.0, 2.0], 18.0),
        ];
        let mut pivots = 0u64;
        let outcome = solve_lp_counted(2, &rows, &[], &[-3.0, -5.0], &mut pivots);
        assert!(matches!(outcome, LpOutcome::Optimal { .. }));
        assert!(pivots > 0, "a non-trivial LP must pivot at least once");
    }

    #[test]
    fn upper_bounds_act_as_le_rows() {
        // max x + y st x + 2y <= 8, x <= 4, y <= 6 → (4,2), obj 6
        let rows = vec![le(vec![1.0, 2.0], 8.0)];
        let mut pivots = 0u64;
        match solve_lp_counted(2, &rows, &[4.0, 6.0], &[-1.0, -1.0], &mut pivots) {
            LpOutcome::Optimal { x, objective } => {
                assert!((x[0] - 4.0).abs() < 1e-7);
                assert!((x[1] - 2.0).abs() < 1e-7);
                assert!((objective + 6.0).abs() < 1e-7);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn zero_variable_problem() {
        let rows: Vec<LpRow> = vec![];
        match solve_lp(0, &rows, &[]) {
            LpOutcome::Optimal { x, objective } => {
                assert!(x.is_empty());
                assert_eq!(objective, 0.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
