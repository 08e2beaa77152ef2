//! MILP model builder: variables, linear expressions, constraints.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Handle to a decision variable of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Dense index of the variable inside its model.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Eq => "=",
        })
    }
}

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// A linear expression `Σ cᵢ·xᵢ + constant`.
///
/// Built with ordinary arithmetic: `2.0 * x + y - 3.0`. Duplicate variable
/// terms are merged lazily by [`LinExpr::coefficients`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    pub(crate) terms: Vec<(VarId, f64)>,
    pub(crate) constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(value: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// Adds `coeff · var` to the expression (builder style).
    pub fn plus(mut self, coeff: f64, var: VarId) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// Sum of `coeff · var` pairs.
    pub fn sum(pairs: impl IntoIterator<Item = (f64, VarId)>) -> Self {
        LinExpr {
            terms: pairs.into_iter().map(|(c, v)| (v, c)).collect(),
            constant: 0.0,
        }
    }

    /// The expression's constant offset.
    pub fn constant_term(&self) -> f64 {
        self.constant
    }

    /// Merged per-variable coefficients as a dense vector of length
    /// `num_vars` (zero for absent variables).
    pub fn coefficients(&self, num_vars: usize) -> Vec<f64> {
        let mut c = vec![0.0; num_vars];
        for &(v, coeff) in &self.terms {
            c[v.index()] += coeff;
        }
        c
    }

    /// Evaluates the expression at the given assignment (indexed by
    /// variable).
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values[v.index()])
                .sum::<f64>()
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr {
            terms: vec![(v, 1.0)],
            constant: 0.0,
        }
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant(c)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<VarId> for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: VarId) -> LinExpr {
        self + LinExpr::from(rhs)
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl Add<LinExpr> for VarId {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        LinExpr::from(self) + rhs
    }
}

impl Add<VarId> for VarId {
    type Output = LinExpr;
    fn add(self, rhs: VarId) -> LinExpr {
        LinExpr::from(self) + LinExpr::from(rhs)
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Sub<VarId> for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: VarId) -> LinExpr {
        self - LinExpr::from(rhs)
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl Sub<VarId> for VarId {
    type Output = LinExpr;
    fn sub(self, rhs: VarId) -> LinExpr {
        LinExpr::from(self) - LinExpr::from(rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for t in &mut self.terms {
            t.1 = -t.1;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<VarId> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: VarId) -> LinExpr {
        LinExpr {
            terms: vec![(rhs, self)],
            constant: 0.0,
        }
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for t in &mut self.terms {
            t.1 *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub lower: f64,
    pub upper: f64,
    pub integer: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub coeffs: Vec<(VarId, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A mixed-integer linear program under construction.
///
/// # Examples
///
/// ```
/// use panorama_ilp::{Cmp, Model, Sense};
///
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.int_var("x", 0, 10);
/// let y = m.int_var("y", 0, 10);
/// m.add_constraint(x + y, Cmp::Ge, 7.0);
/// m.set_objective(2.0 * x + 3.0 * y);
/// let sol = m.solve()?;
/// assert_eq!(sol.int_value(x), 7);
/// assert_eq!(sol.int_value(y), 0);
/// # Ok::<(), panorama_ilp::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
    /// Node budget for branch & bound; `solve` errors past this.
    pub(crate) node_limit: usize,
    /// `(t, expr)` of every [`Model::abs_var`]: what the objective floor is
    /// derived from.
    pub(crate) abs_defs: Vec<(VarId, LinExpr)>,
}

impl Model {
    /// Creates an empty model with the given optimisation sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
            sense,
            node_limit: 200_000,
            abs_defs: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Overrides the branch & bound node budget (default 200 000).
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Adds a binary (0/1) variable.
    pub fn bool_var(&mut self, name: impl Into<String>) -> VarId {
        self.push_var(name.into(), 0.0, 1.0, true)
    }

    /// Adds a bounded integer variable.
    ///
    /// # Panics
    ///
    /// Panics when `lower > upper`.
    pub fn int_var(&mut self, name: impl Into<String>, lower: i64, upper: i64) -> VarId {
        assert!(lower <= upper, "integer variable bounds must be ordered");
        self.push_var(name.into(), lower as f64, upper as f64, true)
    }

    /// Adds a bounded continuous variable.
    ///
    /// # Panics
    ///
    /// Panics when bounds are not finite or `lower > upper`.
    pub fn cont_var(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        assert!(
            lower.is_finite() && upper.is_finite() && lower <= upper,
            "continuous variable bounds must be finite and ordered"
        );
        self.push_var(name.into(), lower, upper, false)
    }

    fn push_var(&mut self, name: String, lower: f64, upper: f64, integer: bool) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDef {
            name,
            lower,
            upper,
            integer,
        });
        id
    }

    /// Variable name, for diagnostics.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.index()].name
    }

    /// Adds the constraint `expr cmp rhs`. Any constant term inside `expr`
    /// is folded into the right-hand side.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, cmp: Cmp, rhs: f64) {
        let expr = expr.into();
        self.constraints.push(Constraint {
            rhs: rhs - expr.constant,
            coeffs: expr.terms,
            cmp,
        });
    }

    /// Sets the objective expression.
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>) {
        self.objective = expr.into();
    }

    /// Introduces a continuous variable `t ≥ |expr|` and returns it.
    ///
    /// With `t` in a minimised objective this is the standard exact
    /// linearisation of `|expr|`; `bound` must be a valid upper bound on
    /// `|expr|` (e.g. the sum of absolute coefficient ranges).
    ///
    /// The expression is remembered: when a minimised objective is a
    /// non-negative combination of such variables over integer
    /// expressions, [`Model::solve`] knows the least value it can take and
    /// stops at the first incumbent that meets it.
    pub fn abs_var(&mut self, name: impl Into<String>, expr: LinExpr, bound: f64) -> VarId {
        let t = self.cont_var(name, 0.0, bound);
        // t ≥ expr  ⇔  expr − t ≤ 0
        self.add_constraint(expr.clone() - LinExpr::from(t), Cmp::Le, 0.0);
        // t ≥ −expr ⇔ −expr − t ≤ 0
        self.add_constraint(-expr.clone() - LinExpr::from(t), Cmp::Le, 0.0);
        self.abs_defs.push((t, expr));
        t
    }

    /// The arithmetic floor of the objective: a value no feasible
    /// assignment can go below, read off the coefficients alone.
    ///
    /// Defined only when the model minimises a non-negative combination
    /// `Σ wₖ·tₖ` of [`Model::abs_var`]s whose expressions have integer
    /// coefficients on integer variables. Such an expression only takes
    /// values in `cₖ + gₖℤ` (`gₖ` the gcd of its coefficients), so
    /// `tₖ ≥ dist(−cₖ, gₖℤ)` and the floor is `Σ wₖ·dist(−cₖ, gₖℤ)`.
    /// Anything else — maximisation, a negative weight, an objective term
    /// that is no `abs_var`, a continuous operand, a fractional
    /// coefficient, an empty objective — has no floor.
    ///
    /// Branch & bound uses it for one thing: an incumbent that meets the
    /// floor is optimal, so the search ends there. It never enters the LP.
    pub(crate) fn objective_floor(&self) -> Option<f64> {
        if self.sense != Sense::Minimize {
            return None;
        }
        let mut weights = self.objective.coefficients(self.num_vars());
        let mut floor = 0.0;
        let mut terms = 0usize;
        for (t, expr) in &self.abs_defs {
            let w = std::mem::take(&mut weights[t.index()]);
            if w == 0.0 {
                continue;
            }
            if w.is_nan() || w < 0.0 {
                return None;
            }
            floor += w * self.integer_gap(expr)?;
            terms += 1;
        }
        // whatever weight is left sits on a variable that is no abs_var
        (terms > 0 && weights.iter().all(|&w| w == 0.0)).then_some(floor)
    }

    /// `min |expr|` over the integer lattice, `dist(−c, gℤ)`; `None` unless
    /// every coefficient is an integer on an integer variable.
    fn integer_gap(&self, expr: &LinExpr) -> Option<f64> {
        // integers past 2⁵³ are not exact in an f64
        const EXACT: f64 = 9_007_199_254_740_992.0;
        let mut g = 0u64;
        for (def, a) in self.vars.iter().zip(expr.coefficients(self.num_vars())) {
            if a == 0.0 {
                continue;
            }
            if !def.integer || a.fract() != 0.0 || a.abs() > EXACT {
                return None;
            }
            g = gcd(g, a.abs() as u64);
        }
        let c = expr.constant.abs();
        if !c.is_finite() {
            return None;
        }
        if g == 0 {
            return Some(c);
        }
        let g = g as f64;
        let r = c % g;
        Some(r.min(g - r))
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_arithmetic() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.bool_var("x");
        let y = m.bool_var("y");
        let e = 2.0 * x + 3.0 * y - 1.0;
        assert_eq!(e.constant_term(), -1.0);
        let coeffs = e.coefficients(2);
        assert_eq!(coeffs, vec![2.0, 3.0]);
        let e2 = e.clone() + e.clone();
        assert_eq!(e2.coefficients(2), vec![4.0, 6.0]);
        let neg = -e;
        assert_eq!(neg.coefficients(2), vec![-2.0, -3.0]);
        assert_eq!(neg.constant_term(), 1.0);
    }

    #[test]
    fn duplicate_terms_merge() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.bool_var("x");
        let e = 1.0 * x + 2.0 * x;
        assert_eq!(e.coefficients(1), vec![3.0]);
    }

    #[test]
    fn eval_expression() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0, 5);
        let y = m.int_var("y", 0, 5);
        let e = 2.0 * x - 1.0 * y + 4.0;
        assert_eq!(e.eval(&[3.0, 1.0]), 9.0);
    }

    #[test]
    fn constraint_folds_constant() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.bool_var("x");
        m.add_constraint(1.0 * x + 5.0, Cmp::Le, 6.0);
        assert_eq!(m.constraints[0].rhs, 1.0);
    }

    #[test]
    fn var_metadata() {
        let mut m = Model::new(Sense::Maximize);
        let b = m.bool_var("flag");
        let i = m.int_var("count", -2, 9);
        let c = m.cont_var("slack", 0.0, 100.0);
        assert_eq!(m.var_name(b), "flag");
        assert_eq!(m.num_vars(), 3);
        assert!(m.vars[i.index()].integer);
        assert!(!m.vars[c.index()].integer);
        assert_eq!(m.vars[i.index()].lower, -2.0);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn inverted_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        let _ = m.int_var("bad", 3, 1);
    }

    #[test]
    fn display_impls() {
        assert_eq!(VarId(4).to_string(), "x4");
        assert_eq!(Cmp::Le.to_string(), "<=");
        assert_eq!(Cmp::Ge.to_string(), ">=");
        assert_eq!(Cmp::Eq.to_string(), "=");
    }

    #[test]
    fn sum_builder() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.bool_var("x");
        let y = m.bool_var("y");
        let e = LinExpr::sum([(1.5, x), (-0.5, y)]);
        assert_eq!(e.coefficients(2), vec![1.5, -0.5]);
    }
}
