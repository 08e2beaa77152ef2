//! A small exact mixed-integer linear programming (MILP) solver.
//!
//! PANORAMA's cluster-mapping step formulates *column-wise scattering* and
//! *row-wise scattering* as ILPs, solved with Gurobi in the original work.
//! This crate replaces Gurobi with a self-contained solver sized for those
//! problems (a few hundred variables):
//!
//! * [`Model`] — builder API for variables, linear constraints and a linear
//!   objective, including an [absolute-value linearisation
//!   helper](Model::abs_var) used by both scattering objectives;
//! * a dense **bounded-variable dual simplex** for LP relaxations:
//!   variable bounds are read by the ratio tests rather than added as
//!   rows, the slack basis is a dual feasible start (no phase 1), and a
//!   switch to Bland's rule keeps it from cycling;
//! * depth-first **branch & bound** on the most fractional integer
//!   variable, on one tableau per [`Model::solve`]: the near child starts
//!   from its parent's optimal basis, a node taken from the stack from the
//!   basis its parent saved (indices and bound states, never a tableau
//!   copy), and an LP stops as soon as its objective reaches the
//!   incumbent's; a search over [`Model::abs_var`] objectives ends as soon
//!   as an incumbent meets the objective's arithmetic floor (the gcd bound
//!   on `|Σ aᵢxᵢ + c|`).
//!
//! What is pinned: the optimum (against enumeration in the crate's
//! tests) and, through the place crate's `scattering_search_is_pinned`,
//! which of several optimal assignments a model returns — the pivot
//! rules, the warm starts and the search order decide that.
//!
//! A model is built and then solved; apart from [`Model::var_name`],
//! nothing outside the crate reads its rows, bounds or objective back.
//! A row that no point inside its variables' bounds satisfies is caught by
//! the presolve at the root of every [`Model::solve`], which answers
//! [`SolveError::Infeasible`] before any LP runs.
//!
//! # Examples
//!
//! A tiny knapsack:
//!
//! ```
//! use panorama_ilp::{Cmp, Model, Sense};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let a = m.bool_var("a"); // value 3, weight 2
//! let b = m.bool_var("b"); // value 4, weight 3
//! let c = m.bool_var("c"); // value 2, weight 1
//! m.set_objective(3.0 * a + 4.0 * b + 2.0 * c);
//! m.add_constraint(2.0 * a + 3.0 * b + 1.0 * c, Cmp::Le, 4.0);
//! let sol = m.solve()?;
//! assert_eq!(sol.objective(), 6.0); // b + c
//! # Ok::<(), panorama_ilp::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod model;
mod presolve;
mod simplex;

pub use branch::{Solution, SolveError, SolveStats};
pub use model::{Cmp, LinExpr, Model, Sense, VarId};

#[cfg(test)]
mod solver_tests;
