//! `panorama-sat`: a from-scratch, zero-dependency CDCL SAT solver.
//!
//! Peer to `panorama-ilp`: where the ILP crate solves the scattering
//! placement relaxations, this crate decides CNF feasibility for the SAT
//! modulo-scheduling mapper. The solver implements the classic conflict-
//! driven clause-learning loop:
//!
//! * **two-watched-literal** unit propagation,
//! * **VSIDS**-style decision ordering with a deterministic tie-break
//!   (equal activities break toward the lower variable index),
//! * **first-UIP** clause learning with non-chronological backjumping,
//! * **Luby** restarts driven by conflict counts,
//! * deterministic **learned-clause reduction** (sorted by literal-block
//!   distance, then length, then clause id — never by pointer or time),
//! * **assumption literals** ([`Solver::solve_assuming`]) with MiniSat's
//!   final conflict analysis: an UNSAT under assumptions names the
//!   assumptions it used ([`Solver::core`]) and leaves the solver usable.
//!
//! Every data structure is seeded from the input alone: no wall clock, no
//! RNG, no hash-map iteration feeds the search. Two runs over the same
//! clause stream produce byte-identical models, statistics and learned
//! clauses, which is what lets the SAT mapping backend participate in the
//! portfolio's bit-identical-at-any-thread-count guarantee.
//!
//! # Examples
//!
//! ```
//! use panorama_sat::{Lit, SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(a), Some(false));
//! assert_eq!(s.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod solver;

pub use solver::{Limits, Lit, SolveResult, Solver, SolverStats, Var};

#[cfg(test)]
mod solver_tests;
